"""Bit-equality pins of the static and distributed spanner builders.

``tests/fixtures/builder_pins.json`` records, for four n=300 instances
(UDG and alpha=0.5 Bernoulli quasi-UBG, in 2-D and 3-D), what every
builder variant produced: a SHA-256 of the sorted spanner edges, every
``PhaseReport`` (as a row in field order), the probe-cache counters
and, for distributed builds, the ledger entries, round total and MIS
count (plus the fault summary under a ``FaultPlan``).  Refactors of the
build pipeline must reproduce these records exactly; the fixture is
never rewritten to follow a change in output.

Regenerate (only when an output change is intended and reviewed)::

    PYTHONPATH=src python tests/test_builder_pins.py
"""

from __future__ import annotations

import dataclasses
import functools
import hashlib
import json
import re
import sys
from pathlib import Path

import pytest

from repro.core.relaxed_greedy import RelaxedGreedySpanner
from repro.distributed.dist_spanner import DistributedRelaxedGreedy
from repro.experiments.failures import fault_scenario
from repro.geometry.sampling import uniform_points
from repro.graphs.build import BernoulliPolicy, build_qubg, build_udg
from repro.params import SpannerParams

FIXTURE = Path(__file__).parent / "fixtures" / "builder_pins.json"

#: name -> (alpha, dim, point seed)
INSTANCES = {
    "udg-d2": (1.0, 2, 301),
    "udg-d3": (1.0, 3, 302),
    "qubg-d2": (0.5, 2, 303),
    "qubg-d3": (0.5, 3, 304),
}
N = 300
EPSILON = 0.5


@functools.lru_cache(maxsize=None)
def instance(name: str):
    alpha, dim, seed = INSTANCES[name]
    points = uniform_points(N, dim=dim, expected_degree=10.0, seed=seed)
    if alpha >= 1.0:
        graph = build_udg(points)
    else:
        graph = build_qubg(
            points, alpha, policy=BernoulliPolicy(0.5, seed=seed)
        )
    params = SpannerParams.from_epsilon(EPSILON, alpha=alpha, dim=dim)
    return points, graph, params


def _static(**options):
    def run(points, graph, params):
        return RelaxedGreedySpanner(params, **options).build(
            graph, points.distance
        )

    return run


def _dist(fault: str | None = None, **options):
    def run(points, graph, params):
        plan = fault_scenario(fault).plan(seed=17) if fault else None
        return DistributedRelaxedGreedy(
            params, seed=5, fault_plan=plan, **options
        ).build(graph, points.distance)

    return run


BUILDS = {
    "static": _static(),
    "static-no-covered-filter": _static(use_covered_filter=False),
    "static-no-redundancy": _static(use_redundancy_removal=False),
    "dist": _dist(),
    "dist-jobs2": _dist(jobs=2),
    "dist-empty-phases": _dist(process_empty_phases=True),
    "dist-lossy": _dist("lossy"),
    "dist-crashy": _dist("crashy"),
}


def _edges_sha256(spanner) -> str:
    lines = "".join(
        f"{min(u, v)} {max(u, v)} {w!r}\n" for u, v, w in spanner.edges()
    )
    ordered = "".join(sorted(lines.splitlines(keepends=True)))
    return hashlib.sha256(ordered.encode()).hexdigest()


def record(result) -> dict:
    """The pinned, JSON-ready summary of one build."""
    out = {
        "num_edges": result.spanner.num_edges,
        "edges_sha256": _edges_sha256(result.spanner),
        "num_bins": result.num_bins,
        "phases": [dataclasses.astuple(p) for p in result.phases],
        "probe_cache": dict(result.probe_cache),
    }
    ledger = getattr(result, "ledger", None)
    if ledger is not None:
        out["ledger"] = [
            [e.phase, e.step, e.rounds, e.messages] for e in ledger.entries
        ]
        out["total_rounds"] = result.total_rounds
        out["mis_invocations"] = result.mis_invocations
        for key in (
            "retransmissions", "recovery_rounds", "repair_edges",
            "final_time",
        ):
            out[key] = getattr(result, key)
        out["crashed"] = list(result.crashed)
    return out


def compute(inst: str, build: str) -> dict:
    # A JSON round trip so floats and tuples compare as the fixture does.
    return json.loads(json.dumps(record(BUILDS[build](*instance(inst)))))


@functools.lru_cache(maxsize=None)
def _fixture() -> dict:
    return json.loads(FIXTURE.read_text())


@pytest.mark.parametrize("build", sorted(BUILDS))
@pytest.mark.parametrize("inst", sorted(INSTANCES))
def test_build_matches_pin(inst, build):
    pinned = _fixture()[inst][build]
    got = compute(inst, build)
    for key in pinned:
        assert got[key] == pinned[key], f"{inst}/{build}: {key} differs"
    assert got.keys() == pinned.keys()


def test_fixture_covers_every_build():
    assert set(_fixture()) == set(INSTANCES)
    for inst in INSTANCES:
        assert set(_fixture()[inst]) == set(BUILDS)


if __name__ == "__main__":
    data = {
        inst: {build: compute(inst, build) for build in sorted(BUILDS)}
        for inst in sorted(INSTANCES)
    }
    text = json.dumps(data, indent=1, sort_keys=True)
    # One line per phase row / ledger entry: collapse innermost arrays.
    text = re.sub(
        r"\[[^\[\]{}]*\]", lambda m: re.sub(r"\s+", "", m.group()), text
    )
    FIXTURE.parent.mkdir(exist_ok=True)
    FIXTURE.write_text(text + "\n")
    sys.stdout.write(f"wrote {FIXTURE}\n")
