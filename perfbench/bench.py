"""Workloads and the four timed paths of the spanner benchmark.

Every run drives the four ways the program serves the paper's spanner,
each through its public entry point with default knobs:

* build  -- ``RelaxedGreedySpanner.build``, then
  ``DistributedRelaxedGreedy.build`` with ``jobs=1`` and ``jobs=2``, on
  each build instance;
* mixed  -- ``MaintenanceSession.apply`` fed single insert / delete /
  move events in equal shares at seeded random sites;
* flock  -- ``MaintenanceSession.apply_epoch`` over flocking steps that
  move a fixed share of the nodes per epoch;
* lossy  -- hardened Luby (``run_luby_mis_event``) under the ``lossy``
  fault scenario.

A workload fixes the input family the four paths run on; the seed fixes
the instances.  A run is a sequence of rounds, each doing a share of
every path, so each timing is a median over samples spread across the
whole run rather than one stretch of it: the speed of a shared host
drifts by tens of percent over seconds to minutes.  What the medians
cannot take out, :mod:`perfbench.hostspeed` does: reference bursts run
between the timed operations, and each end-to-end sample is scaled to
the nominal host speed by the bursts just before and after it.  Every
output is checked (see :mod:`perfbench.checks`), and each failed
operation or check is counted against the operations attempted.
"""

from __future__ import annotations

import math
import resource
import statistics
from contextlib import nullcontext
from dataclasses import dataclass, field
from time import perf_counter

import numpy as np

from repro.core import MaintenanceEvent, MaintenanceSession, RelaxedGreedySpanner
from repro.distributed.dist_spanner import DistributedRelaxedGreedy
from repro.distributed.shard import shutdown_pools
from repro.distributed.unreliable import run_luby_mis_event
from repro.exceptions import ReproError
from repro.experiments.failures import fault_scenario
from repro.experiments.workloads import make_mobility
from repro.geometry.sampling import uniform_points
from repro.graphs.build import BernoulliPolicy, build_qubg, build_udg
from repro.params import SpannerParams

from perfbench import checks
from perfbench.hostspeed import HostSpeed
from perfbench.tracer import PATH_LAYERS, ROOT_LAYER, Recorder

__all__ = [
    "Workload",
    "WORKLOADS",
    "END_TO_END",
    "PER_LAYER",
    "Tally",
    "measure",
    "trace",
]


#: Spanner parameter, expected degree of the build and churn instances,
#: and expected degree of the hardened-Luby instance.
EPSILON = 0.5
DEGREE = 8.0
LOSSY_DEGREE = 12.0
#: Instances of a seed that the builds and the hardened Luby runs cycle
#: through, so that a run's medians average over instances as well as
#: over the host's speed.
BUILD_INSTANCES = 2
LOSSY_INSTANCES = 4


@dataclass(frozen=True)
class Workload:
    """Sizes and input family of one workload.

    ``alpha`` < 1 makes every graph an alpha-quasi-UBG whose gray-zone
    pairs (length in ``(alpha, 1]``) are kept by a seeded
    ``BernoulliPolicy(0.5)`` adversary; ``alpha == 1`` gives unit disk
    graphs.
    """

    name: str
    alpha: float
    #: Nodes of the churn instance, each build instance and each Luby
    #: instance.  The timed builds and Luby runs are kept short so that
    #: a run holds many samples of each.
    n: int = 3000
    build_n: int = 1500
    lossy_n: int = 300
    #: A round runs the slots of ``SLOTS``, each followed by these many
    #: mixed events and one flocking epoch that moves ``flock_fraction``
    #: of the nodes.
    mixed_chunk: int = 33
    flock_fraction: float = 0.01
    #: Rounds in a run; two give the mixed p99 at least 10 samples
    #: beyond it.
    rounds: int = 2


WORKLOADS = {
    "udg": Workload("udg", alpha=1.0),
    "qubg": Workload("qubg", alpha=0.5),
}

#: name -> unit of every end-to-end metric, in print order.
END_TO_END = {
    "setup_s": "s",
    "peak_rss_mb": "MB",
    "static_build_s": "s",
    "dist_build_s": "s",
    "dist_build_jobs2_s": "s",
    "dist_rounds": "rounds",
    "spanner_edges": "edges",
    "max_degree": "degree",
    "lightness": "ratio",
    "event_ms_p50": "ms",
    "event_ms_p99": "ms",
    "epoch_ms_per_event": "ms",
    "luby_event_s": "s",
    "messages": "count",
    "retransmissions": "count",
}


def _layers(path: str) -> list[str]:
    names = [ROOT_LAYER[path]]
    for _, _, layer in PATH_LAYERS[path]:
        if layer not in names:
            names.append(layer)
    return names


_BUILD_RATIOS = (
    ("core.covered.ratio", "ratio", "higher"),
    ("queries.accept_ratio", "ratio", "higher"),
    ("core.redundancy.ratio", "ratio", "lower"),
    ("graphs.paths.probe_cache.hit_ratio", "ratio", "higher"),
)
_CHURN_COUNTS = (
    ("cover_cache.hit_ratio", "ratio", "higher"),
    ("resyncs", "count", "lower"),
    ("repaired_edges_per_event", "edges", "lower"),
)
_OVERHEAD = {
    "static_build_s": "s",
    "dist_build_s": "s",
    "dist_build_jobs2_s": "s",
    "event_ms_p50": "ms",
    "epoch_ms_per_event": "ms",
    "luby_event_s": "s",
}


def _per_layer() -> dict[str, tuple[str, str]]:
    out: dict[str, tuple[str, str]] = {}
    for path in PATH_LAYERS:
        for layer in _layers(path):
            out[f"{path}.{layer}.s"] = ("s", "lower")
            out[f"{path}.{layer}.calls"] = ("count", "lower")
        if path in ("static", "dist"):
            for name, unit, better in _BUILD_RATIOS:
                out[f"{path}.{name}"] = (unit, better)
        if path in ("mixed", "flock"):
            for name, unit, better in _CHURN_COUNTS:
                out[f"{path}.{name}"] = (unit, better)
    out["lossy.retrans_ratio"] = ("ratio", "lower")
    for name, unit in _OVERHEAD.items():
        out[f"overhead.{name}"] = (unit, "lower")
    out["layer_table.flagged"] = ("count", "lower")
    return out


#: name -> (unit, better) of every per-layer metric of the traced run.
PER_LAYER = _per_layer()


# ----------------------------------------------------------------------
# Inputs
# ----------------------------------------------------------------------
@dataclass
class Inputs:
    """Everything a run feeds the program, derived from one seed."""

    workload: Workload
    points: object
    build_points: list
    build_graphs: list
    lossy_graphs: list
    plan: object
    policy_seed: int
    dist_seed: int
    mixed_seed: int
    flock_seed: int
    luby_seed: int


def _graph(w: Workload, points, policy_seed: int):
    if w.alpha >= 1.0:
        return build_udg(points)
    return build_qubg(points, w.alpha, policy=BernoulliPolicy(0.5, seed=policy_seed))


def make_inputs(w: Workload, seed: int) -> Inputs:
    """Generate the run's instances, streams' seeds and fault plan."""
    s = [int(x) for x in np.random.SeedSequence(seed).generate_state(8)]
    sub = np.random.SeedSequence([seed, 1]).generate_state(
        BUILD_INSTANCES + LOSSY_INSTANCES
    )
    points = uniform_points(w.n, expected_degree=DEGREE, seed=s[0])
    build_points = [
        uniform_points(w.build_n, expected_degree=DEGREE, seed=int(x))
        for x in sub[:BUILD_INSTANCES]
    ]
    lossy_graphs = [
        _graph(
            w,
            uniform_points(w.lossy_n, expected_degree=LOSSY_DEGREE, seed=int(x)),
            s[2],
        )
        for x in sub[BUILD_INSTANCES:]
    ]
    return Inputs(
        workload=w,
        points=points,
        build_points=build_points,
        build_graphs=[_graph(w, pts, s[2]) for pts in build_points],
        lossy_graphs=lossy_graphs,
        plan=fault_scenario("lossy").plan(s[3]),
        policy_seed=s[2],
        dist_seed=s[4],
        mixed_seed=s[5],
        flock_seed=s[6],
        luby_seed=s[7],
    )


def _session(inputs: Inputs) -> MaintenanceSession:
    w = inputs.workload
    policy = (
        BernoulliPolicy(0.5, seed=inputs.policy_seed) if w.alpha < 1.0 else None
    )
    return MaintenanceSession(inputs.points, EPSILON, alpha=w.alpha, policy=policy)


def set_up(w: Workload, seed: int, count: int, speed: HostSpeed | None = None):
    """Generate the inputs and build a maintenance session ``count``
    times; returns the first inputs, every session and every wall.

    With ``speed``, a reference burst comes before the first set-up and
    after each one, and the walls come back scaled by the bursts around
    them."""
    first = None
    sessions, walls, marks = [], [], []
    if speed is not None:
        speed.sample()
    for _ in range(count):
        t0 = perf_counter()
        inputs = make_inputs(w, seed)
        sessions.append(_session(inputs))
        walls.append(perf_counter() - t0)
        first = first or inputs
        if speed is not None:
            marks.append(speed.mark())
            speed.sample()
    if speed is not None:
        walls = speed.scaled(walls, marks)
    return first, sessions, walls


# ----------------------------------------------------------------------
# Operation accounting
# ----------------------------------------------------------------------
@dataclass
class Tally:
    """Operations attempted and failed, with the reason of each failure.

    An operation fails when it raises one of the program's errors or
    when a check of its output fails.
    """

    attempted: int = 0
    failed: int = 0
    failures: list[str] = field(default_factory=list)

    def call(self, label: str, fn, root=None):
        """Run one timed operation; returns ``(output, wall_s)`` with
        ``output`` None when it raised."""
        self.attempted += 1
        t0 = perf_counter()
        try:
            with root if root is not None else nullcontext():
                out = fn()
        except ReproError as exc:
            self.fail(label, f"{type(exc).__name__}: {exc}")
            return None, perf_counter() - t0
        return out, perf_counter() - t0

    def fail(self, label: str, reason: str) -> None:
        self.failed += 1
        self.failures.append(f"{label}: {reason}")

    def check(self, label: str, reason: str | None) -> None:
        if reason is not None:
            self.fail(label, reason)


class _Tracing:
    """Patches one path's layers and opens a root span per operation."""

    def __init__(self, rec: Recorder | None, path: str) -> None:
        self.rec, self.path = rec, path

    def __enter__(self):
        self._ctx = self.rec.path(self.path) if self.rec else nullcontext()
        self._ctx.__enter__()
        return self

    def __exit__(self, *exc):
        return self._ctx.__exit__(*exc)

    def root(self):
        if self.rec is None:
            return None
        return self.rec.root(f"{self.path}.{ROOT_LAYER[self.path]}")


def _quality(base, spanner) -> tuple[int, int, float]:
    return (
        spanner.num_edges,
        spanner.max_degree(),
        checks.lightness(base, spanner),
    )


# ----------------------------------------------------------------------
# The four paths
# ----------------------------------------------------------------------
_KINDS = ("insert", "delete", "move")


def _mixed_event(kind: str, session, rng, lo, hi) -> MaintenanceEvent:
    if kind == "insert":
        return MaintenanceEvent("insert", pos=tuple(rng.uniform(lo, hi).tolist()))
    node = int(rng.choice(session.alive_nodes()))
    if kind == "delete":
        return MaintenanceEvent("delete", node=node)
    # A move stays within radio range of where the node was.
    angle, radius = rng.uniform(0.0, 2.0 * math.pi), math.sqrt(rng.uniform())
    step = radius * np.array([math.cos(angle), math.sin(angle)])
    pos = np.clip(session.position(node) + step, lo, hi)
    return MaintenanceEvent("move", node=node, pos=tuple(pos.tolist()))


@dataclass
class Churn:
    """A maintenance session with the wall and event count of every
    operation applied to it, and its spanner quality at the end of the
    run."""

    session: MaintenanceSession
    walls: list[float] = field(default_factory=list)
    events: list[int] = field(default_factory=list)
    quality: tuple | None = None

    def per_event(self) -> list[float]:
        return [wall / k for wall, k in zip(self.walls, self.events)]


#: The heavy operation of each slot of a round, in order: each path four
#: times, so a run holds eight samples of each.
SLOTS = ("static", "dist", "lossy", "jobs2") * 4


class Run:
    """The four paths of one run, advanced a round at a time.

    ``rec`` traces every timed operation when given.  ``speed`` takes a
    reference burst before each heavy operation and before each share of
    the churn streams when given, and ``marks[path]`` then holds, for
    every wall of the path, the number of bursts taken before it: a wall
    lies between bursts ``mark - 1`` and ``mark``.
    """

    def __init__(self, inputs: Inputs, sessions, tally: Tally,
                 rec: Recorder | None = None,
                 speed: HostSpeed | None = None) -> None:
        w = inputs.workload
        self.w, self.inputs, self.tally, self.rec = w, inputs, tally, rec
        self.speed = speed
        self.marks: dict[str, list[int]] = {}
        self.params = SpannerParams.from_epsilon(EPSILON, alpha=w.alpha)
        self.build_walls: dict[str, list[float]] = {
            "static": [], "dist": [], "jobs2": []
        }
        #: (path, instance) -> the first result, and the latest one.
        self.builds: dict[tuple[str, int], object] = {}
        self._latest: dict[tuple[str, int], object] = {}
        self._uses: dict[str, int] = {}
        self.mixed = Churn(sessions[0])
        self.flock = Churn(sessions[1])
        self._rng = np.random.default_rng(inputs.mixed_seed)
        self._kinds: list[str] = []
        self._lo = inputs.points.coords.min(axis=0)
        self._hi = inputs.points.coords.max(axis=0)
        self._model = make_mobility(
            "flocking", inputs.points.coords, seed=inputs.flock_seed
        )
        #: instance -> every hardened Luby run on it.
        self.lossy: dict[int, list] = {}
        self.lossy_walls: list[float] = []

    def round(self) -> None:
        for slot in SLOTS:
            self.slot(slot)
        self.end_round()

    def slot(self, slot: str) -> None:
        """One heavy operation, then a share of both churn streams."""
        self._burst()
        if slot == "lossy":
            self._lossy()
        else:
            self._build(slot)
        self._burst()
        self._mixed()
        self._flock()

    def _burst(self) -> None:
        if self.speed is not None:
            self.speed.sample()

    def _instance(self, path: str, count: int) -> int:
        """Instance of the next operation of ``path``: the paths cycle
        through their ``count`` instances."""
        uses = self._uses.get(path, 0)
        self._uses[path] = uses + 1
        return uses % count

    def _mark(self, path: str) -> None:
        if self.speed is not None:
            self.marks.setdefault(path, []).append(self.speed.mark())

    def end_round(self) -> None:
        """Checkpoint both sessions, outside any timed region: the
        session's own ``verify()`` and the independent stretch check,
        which does not rest on the program's distance code."""
        for label, churn in (("mixed", self.mixed), ("flock", self.flock)):
            session = churn.session
            self.tally.check(
                f"{label} checkpoint", checks.verify_fault(session.verify())
            )
            self.tally.check(
                f"{label} checkpoint",
                checks.stretch_fault(session.graph, session.spanner, self.params.t),
            )

    def finish(self) -> None:
        """Close the run: take the maintained spanners' quality, and
        check that the cover cache holds no stale row and that every
        hardened Luby run sent the same counts."""
        for churn in (self.mixed, self.flock):
            churn.quality = _quality(churn.session.graph, churn.session.spanner)
        self.tally.check(
            "flock cover cache",
            checks.audit_fault(self.flock.session.cover_cache_audit()),
        )
        for runs in self.lossy.values():
            if len(runs) > 1:
                self.tally.check(
                    "hardened luby repeat", checks.same_counts_fault(runs)
                )

    def _build(self, path: str) -> None:
        """One static, distributed or ``jobs=2`` build of the next build
        instance; a ``jobs=2`` build must equal the latest ``jobs=1``
        build of its instance."""
        inputs, params, tally = self.inputs, self.params, self.tally
        i = self._instance(path, BUILD_INSTANCES)
        graph, points = inputs.build_graphs[i], inputs.build_points[i]
        if path == "static":
            builder = RelaxedGreedySpanner(params)
        elif path == "dist":
            builder = DistributedRelaxedGreedy(params, seed=inputs.dist_seed)
        else:
            builder = DistributedRelaxedGreedy(
                params, seed=inputs.dist_seed, jobs=2, points=points
            )
        try:
            with _Tracing(self.rec, path) as tr:
                result, wall = tally.call(
                    f"{path} build",
                    lambda: builder.build(graph, points.distance),
                    tr.root(),
                )
        finally:
            shutdown_pools()
        self.build_walls[path].append(wall)
        self._mark(path)
        self._latest[path, i] = result
        if result is None:
            return
        self.builds.setdefault((path, i), result)
        if path == "jobs2":
            reference = self._latest.get(("dist", i))
            if reference is not None:
                tally.check("jobs2 build", checks.same_build_fault(reference, result))
        else:
            tally.check(
                f"{path} build",
                checks.stretch_fault(graph, result.spanner, params.t),
            )

    def _mixed(self) -> None:
        """``mixed_chunk`` single ``apply`` events."""
        churn, tally = self.mixed, self.tally
        with _Tracing(self.rec, "mixed") as tr:
            for _ in range(self.w.mixed_chunk):
                if not self._kinds:
                    self._kinds = [_KINDS[i] for i in self._rng.permutation(3)]
                event = _mixed_event(
                    self._kinds.pop(), churn.session, self._rng, self._lo, self._hi
                )
                _, wall = tally.call(
                    "mixed apply", lambda: churn.session.apply(event), tr.root()
                )
                churn.walls.append(wall)
                churn.events.append(1)
                self._mark("mixed")

    def _flock(self) -> None:
        """One ``apply_epoch`` call over a flocking step."""
        churn = self.flock
        events = self._model.step_events(
            self.w.flock_fraction, time=float(len(churn.walls))
        )
        with _Tracing(self.rec, "flock") as tr:
            _, wall = self.tally.call(
                "flock epoch", lambda: churn.session.apply_epoch(events), tr.root()
            )
        churn.walls.append(wall)
        churn.events.append(len(events))
        self._mark("flock")

    def _lossy(self) -> None:
        """One hardened Luby run on the next Luby instance; every run on
        an instance is the same."""
        inputs = self.inputs
        j = self._instance("lossy", LOSSY_INSTANCES)
        graph = inputs.lossy_graphs[j]
        with _Tracing(self.rec, "lossy") as tr:
            run, wall = self.tally.call(
                "hardened luby",
                lambda: run_luby_mis_event(
                    graph, seed=inputs.luby_seed, plan=inputs.plan
                ),
                tr.root(),
            )
        self.lossy_walls.append(wall)
        self._mark("lossy")
        if run is not None:
            self.tally.check(
                "hardened luby",
                checks.mis_fault(graph, run.alive, run.independent_set),
            )
            self.lossy.setdefault(j, []).append(run)


# ----------------------------------------------------------------------
# Untraced (end-to-end) and traced (per-layer) runs
# ----------------------------------------------------------------------
def _p(values, q: float) -> float:
    return float(np.percentile(np.asarray(values), q)) if values else 0.0


def _median(values) -> float:
    return statistics.median(values) if values else 0.0


def measure(w: Workload, seed: int):
    """The end-to-end run: ``w.rounds`` rounds.  Set-up is timed for the
    two sessions the run uses and once more after each round, so
    ``setup_s`` too is a median across the run.  Every wall is scaled to
    the nominal host speed by the reference bursts just before and just
    after it.  Returns ``(metrics, samples, tally, speed)`` with
    ``metrics`` name -> value, ``samples`` name -> sample count and
    ``speed`` the run's reference bursts."""
    tally = Tally()
    speed = HostSpeed()
    inputs, sessions, setup_walls = set_up(w, seed, 2, speed)
    run = Run(inputs, sessions, tally, speed=speed)
    del sessions
    for _ in range(w.rounds):
        run.round()
        setup_walls += set_up(w, seed, 1, speed)[2]
    run.finish()
    walls = {
        path: speed.scaled(raw, run.marks.get(path, []))
        for path, raw in (
            *run.build_walls.items(),
            ("lossy", run.lossy_walls),
            ("mixed", run.mixed.walls),
            ("flock", run.flock.walls),
        )
    }
    per_event = [wall / k for wall, k in zip(walls["flock"], run.flock.events)]

    qualities = [
        _quality(inputs.build_graphs[i], result.spanner)
        for (path, i), result in sorted(run.builds.items())
        if path == "static"
    ]
    qualities += [q for q in (run.mixed.quality, run.flock.quality) if q is not None]
    if len(qualities) < BUILD_INSTANCES + 2:
        tally.fail("quality", "a spanner is missing; quality is partial")
    rounds = [r.total_rounds for (path, _), r in run.builds.items() if path == "dist"]
    firsts = [runs[0].result for runs in run.lossy.values()]
    metrics = {
        "setup_s": _median(setup_walls),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        "static_build_s": _median(walls["static"]),
        "dist_build_s": _median(walls["dist"]),
        "dist_build_jobs2_s": _median(walls["jobs2"]),
        "dist_rounds": statistics.fmean(rounds) if rounds else 0,
        "spanner_edges": sum(q[0] for q in qualities),
        "max_degree": max((q[1] for q in qualities), default=0),
        "lightness": statistics.fmean(q[2] for q in qualities) if qualities else 0.0,
        "event_ms_p50": 1e3 * _p(walls["mixed"], 50),
        "event_ms_p99": 1e3 * _p(walls["mixed"], 99),
        "epoch_ms_per_event": 1e3 * _median(per_event),
        "luby_event_s": _median(walls["lossy"]),
        "messages": sum(r.messages for r in firsts),
        "retransmissions": sum(r.retransmissions for r in firsts),
    }
    samples = {name: 1 for name in metrics}
    samples.update(
        setup_s=len(setup_walls),
        static_build_s=len(walls["static"]),
        dist_build_s=len(walls["dist"]),
        dist_build_jobs2_s=len(walls["jobs2"]),
        event_ms_p50=len(walls["mixed"]),
        event_ms_p99=len(walls["mixed"]),
        epoch_ms_per_event=len(per_event),
        luby_event_s=len(walls["lossy"]),
    )
    return metrics, samples, tally, speed


def _phase_ratios(result) -> dict[str, float]:
    long = [p for p in result.phases if p.index >= 1]
    bin_edges = sum(p.num_bin_edges for p in long)
    queries = sum(p.num_queries for p in long)
    added = sum(p.num_added for p in long)
    probes = result.probe_cache.get("hits", 0) + result.probe_cache.get("misses", 0)
    return {
        "core.covered.ratio": sum(p.num_covered for p in long) / max(bin_edges, 1),
        "queries.accept_ratio": added / max(queries, 1),
        "core.redundancy.ratio": sum(p.num_removed for p in long) / max(added, 1),
        "graphs.paths.probe_cache.hit_ratio": (
            result.probe_cache.get("hits", 0) / max(probes, 1)
        ),
    }


def _churn_counts(session) -> dict[str, float]:
    st = session.stats()
    lookups = st["cover_cache_hits"] + st["cover_cache_misses"]
    return {
        "cover_cache.hit_ratio": st["cover_cache_hits"] / max(lookups, 1),
        "resyncs": st["resyncs"],
        "repaired_edges_per_event": st["repaired_edges"] / max(st["events"], 1),
    }


def trace(w: Workload, seed: int, predictions: dict):
    """The traced run: one round untraced and one traced on the same
    inputs, slot by slot, alternating which goes first so that host
    drift cancels out of the overhead.  Returns ``(metrics, table,
    tally)``; ``table`` holds the layer rows and flags for printing."""
    tally = Tally()
    rec = Recorder()
    inputs, sessions, _ = set_up(w, seed, 4)
    plain = Run(inputs, sessions[:2], tally)
    shown = Run(inputs, sessions[2:], tally, rec=rec)
    del sessions
    for i, slot in enumerate(SLOTS):
        for run in (plain, shown) if i % 2 == 0 else (shown, plain):
            run.slot(slot)
    for run in (plain, shown):
        run.end_round()
    for run in (plain, shown):
        run.finish()
    for j, runs in shown.lossy.items():
        tally.check(
            "hardened luby repeat",
            checks.same_counts_fault(plain.lossy.get(j, []) + runs),
        )
    for key, b in shown.builds.items():
        a = plain.builds.get(key)
        if a is not None and sorted(a.spanner.edges()) != sorted(b.spanner.edges()):
            tally.fail(f"{key[0]} build", "tracing changed the spanner")
    for path in ("mixed", "flock"):
        if getattr(plain, path).quality != getattr(shown, path).quality:
            tally.fail(path, "tracing changed the maintained spanner")

    traced = {path: sum(v) for path, v in shown.build_walls.items()}
    traced.update(
        mixed=sum(shown.mixed.walls),
        flock=sum(shown.flock.walls),
        lossy=sum(shown.lossy_walls),
    )

    metrics: dict[str, float] = {}
    for name in PER_LAYER:
        if name.endswith(".s") or name.endswith(".calls"):
            base, _, kind = name.rpartition(".")
            stat = rec.layers.get(base)
            metrics[name] = 0 if stat is None else (
                stat.self_s if kind == "s" else stat.calls
            )
    for path in ("static", "dist"):
        result = shown.builds.get((path, 0))
        if result is not None:
            for key, value in _phase_ratios(result).items():
                metrics[f"{path}.{key}"] = value
    for path in ("mixed", "flock"):
        for key, value in _churn_counts(getattr(shown, path).session).items():
            metrics[f"{path}.{key}"] = value
    firsts = [runs[0].result for runs in shown.lossy.values()]
    if firsts:
        metrics["lossy.retrans_ratio"] = sum(r.retransmissions for r in firsts) / max(
            sum(r.messages for r in firsts), 1
        )

    for name, path in (("static_build_s", "static"), ("dist_build_s", "dist"),
                       ("dist_build_jobs2_s", "jobs2")):
        metrics[f"overhead.{name}"] = (
            _median(shown.build_walls[path]) - _median(plain.build_walls[path])
        )
    metrics["overhead.luby_event_s"] = (
        _median(shown.lossy_walls) - _median(plain.lossy_walls)
    )
    metrics["overhead.event_ms_p50"] = 1e3 * (
        _p(shown.mixed.walls, 50) - _p(plain.mixed.walls, 50)
    )
    metrics["overhead.epoch_ms_per_event"] = 1e3 * (
        _median(shown.flock.per_event()) - _median(plain.flock.per_event())
    )

    table = layer_table(rec, traced, predictions)
    metrics["layer_table.flagged"] = len(table["flags"])
    for problem in table["errors"]:
        tally.fail("layer table", problem)
    for name in PER_LAYER:
        metrics.setdefault(name, 0)
    return metrics, table, tally


#: Share of a path's timed wall its layers' self times may leave
#: unattributed: the benchmark's own bookkeeping between its timer and
#: the root span, a few microseconds per operation.
COVER_TOL = 0.01


def layer_table(rec: Recorder, traced_walls: dict[str, float], predictions: dict):
    """Rows of ``(layer, self_s, calls, share of path wall)`` plus the
    table's own checks.

    ``errors``: a path whose layers' self times do not account for the
    wall the benchmark timed around its operations, to within
    ``COVER_TOL`` either way -- time went unattributed, or was counted
    twice.  ``flags``: a layer the predictions expect to work on a path
    that recorded zero calls, a call that reached a traced layer with no
    root span open (so it was not recorded), or a traced target that no
    longer exists in the program.
    """
    errors, rows = [], []
    for path in PATH_LAYERS:
        wall = traced_walls.get(path, 0.0)
        total = 0.0
        for layer in _layers(path):
            stat = rec.layers.get(f"{path}.{layer}")
            self_s = stat.self_s if stat else 0.0
            total += self_s
            rows.append(
                (f"{path}.{layer}", self_s, stat.calls if stat else 0,
                 self_s / wall if wall > 0 else 0.0)
            )
        if abs(total - wall) > COVER_TOL * wall:
            errors.append(
                f"{path}: layer self times sum to {total:.6f}s, the timed "
                f"wall is {wall:.6f}s"
            )
    expected = {
        layer for entry in predictions["predictions"] for layer in entry["layers"]
    }
    flags = [
        f"{layer}: predicted to work here but recorded zero calls"
        for layer in sorted(expected)
        if (rec.layers.get(layer) is None or rec.layers[layer].calls == 0)
    ]
    flags += [
        f"{layer}: {calls} calls with no root span open, not recorded"
        for layer, calls in sorted(rec.unrooted.items())
    ]
    flags += [f"{target}: traced target is missing" for target in rec.missing]
    return {"rows": rows, "errors": errors, "flags": flags}
