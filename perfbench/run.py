"""Run one workload of the spanner benchmark and print its metrics.

Usage, from the root of a checkout::

    python3 perfbench/run.py --workload udg --seed 1 --seconds 55 --trace 0

``--trace 0`` runs the workload's fixed number of rounds and prints
every end-to-end metric, its timings scaled to the nominal host speed
of :mod:`perfbench.hostspeed`; ``--trace 1`` runs one round untraced
and one traced, slot by slot, and prints the per-layer table with the
tracing overhead, in unscaled seconds.  The work of a run is fixed, so that its samples do not
depend on the host's speed; ``--seconds`` is accepted for the calling
convention and does not change it (``run_seconds`` in
``BENCHMARK.json`` records how long a run takes).  Lines
starting with ``#`` are for people: the host stamp, the metric table
with sample counts, failures and layer flags.  The last line is one
JSON object with ``correct``, ``attempted``, ``failed`` and ``metrics``.
The program is imported from ``src/`` of the same checkout; without it
the run exits with code 2 and prints no result.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"


def _cpu_model() -> str:
    """CPU model name as the kernel reports it (Linux), else
    ``"unknown"``."""
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return "unknown"


def _git_commit(root: Path) -> str:
    """HEAD of the checkout when it is a git work tree, else
    ``"unknown"``; read from ``.git`` directly (no subprocess)."""
    git = root / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        loose = git / ref
        if loose.is_file():
            return loose.read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def _source_digest(src: Path) -> str:
    """SHA-256 over the program's Python sources, so a run outside git
    still names the code it measured."""
    digest = hashlib.sha256()
    for path in sorted(src.rglob("*.py")):
        digest.update(str(path.relative_to(src)).encode())
        digest.update(path.read_bytes())
    return digest.hexdigest()


def host_stamp() -> dict:
    """Host and software versions every result is stamped with."""
    import numpy
    import scipy

    return {
        "cores": os.cpu_count(),
        "cpu": _cpu_model(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "git_commit": _git_commit(ROOT),
        "source_sha256": _source_digest(SRC),
    }


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (SRC / "repro" / "__init__.py").is_file():
        print(f"perfbench: no program sources under {SRC}", file=sys.stderr)
        return 2
    sys.path[:0] = [str(SRC), str(ROOT)]
    from perfbench import bench
    from perfbench.hostspeed import NOMINAL_S

    if args.workload not in bench.WORKLOADS:
        print(
            f"perfbench: unknown workload {args.workload!r}; "
            f"choose from {sorted(bench.WORKLOADS)}",
            file=sys.stderr,
        )
        return 2
    if args.seconds <= 0:
        print("perfbench: --seconds must be positive", file=sys.stderr)
        return 2
    workload = bench.WORKLOADS[args.workload]

    print(f"# workload {workload.name} seed {args.seed} trace {args.trace}")
    print("# host " + json.dumps(host_stamp(), sort_keys=True))
    if args.trace:
        predictions = json.loads(
            (Path(__file__).parent / "predictions.json").read_text()
        )
        values, table, tally = bench.trace(workload, args.seed, predictions)
        units = {name: unit for name, (unit, _) in bench.PER_LAYER.items()}
        print(f"# {'layer':<48} {'self_s':>10} {'calls':>9} {'share':>7}")
        for layer, self_s, calls, share in table["rows"]:
            print(f"# {layer:<48} {self_s:>10.4f} {calls:>9d} {share:>7.1%}")
        for name in bench.PER_LAYER:
            if not (name.endswith(".s") or name.endswith(".calls")):
                print(f"# {name:<48} {values[name]:>10.4f} {units[name]}")
        for flag in table["flags"]:
            print(f"# FLAG {flag}")
        samples = {}
    else:
        values, samples, tally, speed = bench.measure(workload, args.seed)
        units = bench.END_TO_END
        print(
            f"# host speed: median reference burst {1e3 * speed.burst_s:.2f} ms "
            f"over {len(speed.bursts)} bursts; each timing is scaled to the "
            f"nominal {1e3 * NOMINAL_S:.0f} ms by the bursts around it"
        )
        print(f"# {'metric':<22} {'value':>14} {'unit':<7} samples")
        for name, unit in units.items():
            print(f"# {name:<22} {values[name]:>14.4f} {unit:<7} {samples[name]}")
    for failure in tally.failures:
        print(f"# FAILED {failure}")
    print(json.dumps({
        "correct": tally.failed == 0,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": {
            name: {"value": values[name], "unit": unit}
            for name, unit in units.items()
        },
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
