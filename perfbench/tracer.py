"""Span recorder for the traced run.

The program has no instrumentation of its own, so the traced run wraps
the public functions and methods each path calls into, from outside:
the attribute is replaced in the *calling* module's namespace (or on
the class) for the duration of one path and restored afterwards.

Spans are recorded only while a root span is open -- the benchmark
opens one around each timed call -- so the checks and the set-up the
benchmark runs between timed calls never count; a call that reaches a
wrapped layer with no root open is counted in ``unrooted`` instead.
A layer's self time is the wall of its spans minus the wall of their
child spans; spans of one layer accumulate over the whole path.  One
stack holds every open span, so a child's span always lies inside its
parent's and the self times of a root and everything below it sum to
the root's wall.
"""

from __future__ import annotations

import functools
import importlib
from contextlib import contextmanager
from dataclasses import dataclass
from time import perf_counter

__all__ = ["LayerStat", "Recorder", "PATH_LAYERS", "ROOT_LAYER", "resolve"]


@dataclass
class LayerStat:
    """Accumulated self time and call count of one layer."""

    self_s: float = 0.0
    calls: int = 0


# Root span of each path: the benchmark's timed call.  Its self time is
# the entry point's wall minus every traced layer below it.
ROOT_LAYER = {
    "static": "core.relaxed_greedy.self",
    "dist": "distributed.dist_spanner.self",
    "jobs2": "distributed.dist_spanner.self",
    "mixed": "core.maintenance.self",
    "flock": "core.maintenance.self",
    "lossy": "distributed.unreliable.self",
}

_GRAPH = "repro.graphs.graph:Graph"
_RG = "repro.core.relaxed_greedy"
_DS = "repro.distributed.dist_spanner"
_MT = "repro.core.maintenance"

_STATIC = (
    (_RG, "process_short_edges", "core.short_edges"),
    (_RG, "build_cluster_cover", "core.cover"),
    (_RG, "split_covered", "core.covered"),
    (_RG, "select_query_edges", "core.selection"),
    (_RG, "build_cluster_graph", "core.cluster_graph"),
    (_RG, "answer_spanner_queries", "core.cluster_graph.queries"),
    (_RG, "remove_redundant_edges", "core.redundancy"),
    (_GRAPH, "csr_snapshot", "graphs.graph.csr_snapshot"),
)

_DIST = (
    (_DS, "process_short_edges", "core.short_edges"),
    (_DS, "cover_from_centers", "core.cover"),
    (_DS, "split_covered", "core.covered"),
    (_DS, "select_query_edges", "core.selection"),
    (_DS, "build_cluster_graph", "core.cluster_graph"),
    (_DS, "answer_spanner_queries", "core.cluster_graph.queries"),
    (_DS, "find_redundant_pairs", "core.redundancy"),
    (_DS, "conflict_graph_arrays", "core.redundancy"),
    (_DS, "multi_source_ball_lists", "graphs.paths.ball_lists"),
    (_DS, "run_luby_mis_arrays", "distributed.mis"),
    (_GRAPH, "csr_snapshot", "graphs.graph.csr_snapshot"),
)

_MAINT = (
    (_MT, "pair_distances", "graphs.paths.pair_distances"),
    (_MT, "dijkstra_distance", "graphs.paths.dijkstra_distance"),
    (_MT, "detour_distance", "graphs.paths.detour_distance"),
    (_MT, "select_query_edges", "core.selection"),
    (_MT, "build_cluster_cover_reference", "core.cover"),
    (_MT, "invalidate_cover_rows", "core.cover"),
    (_GRAPH, "csr_snapshot", "graphs.graph.csr_snapshot"),
)

_HARD = "repro.distributed.protocols.reliable:HardenedProtocol"
_LUBY = "repro.distributed.protocols.luby:LubyMIS"
_PLAN = "repro.distributed.faults:FaultPlan"
_LOSSY = (
    ("repro.distributed.event_engine:EventNetwork", "run",
     "distributed.event_engine.self"),
    *(
        (_HARD, hook, "distributed.protocols.reliable")
        for hook in ("on_start", "on_deliver", "on_deliver_epoch",
                     "on_timer", "on_timer_epoch", "on_recover")
    ),
    (_LUBY, "on_start", "distributed.protocols.luby"),
    (_LUBY, "on_round", "distributed.protocols.luby"),
    *(
        (_PLAN, draw, "distributed.faults")
        for draw in ("drop_mask", "latencies", "link_down_mask",
                     "alive_at", "clock_rates")
    ),
    ("repro.distributed.unreliable", "repair_mis",
     "distributed.unreliable.repair"),
    ("repro.distributed.unreliable", "verify_mis",
     "distributed.unreliable.repair"),
)

#: path -> ``(owner, attribute, layer)``; ``owner`` is ``module`` or
#: ``module:Class``.
PATH_LAYERS = {
    "static": _STATIC,
    "dist": _DIST,
    "jobs2": _DIST + (("repro.distributed.shard", "run_sharded",
                       "distributed.shard"),),
    "mixed": _MAINT,
    "flock": _MAINT,
    "lossy": _LOSSY,
}


def resolve(owner: str):
    """Import ``module`` or ``module:Class`` and return the object."""
    module, _, cls = owner.partition(":")
    obj = importlib.import_module(module)
    return getattr(obj, cls) if cls else obj


class Recorder:
    """Span stack over wrapped callables (one per traced run).

    ``layers`` maps ``<path>.<layer>`` to its :class:`LayerStat`;
    ``missing`` lists targets that no longer exist in the program, and
    ``unrooted`` counts, per layer, the calls made with no root open.
    """

    def __init__(self) -> None:
        self.layers: dict[str, LayerStat] = {}
        self.missing: list[str] = []
        self.unrooted: dict[str, int] = {}
        self._stack: list[list] = []

    def _enter(self, name: str) -> None:
        self._stack.append([name, perf_counter(), 0.0])

    def _exit(self) -> float:
        name, start, child_s = self._stack.pop()
        wall = perf_counter() - start
        stat = self.layers.setdefault(name, LayerStat())
        stat.self_s += wall - child_s
        stat.calls += 1
        if self._stack:
            self._stack[-1][2] += wall
        return wall

    @contextmanager
    def root(self, name: str):
        """Open a root span; layers below it are recorded."""
        self._enter(name)
        try:
            yield
        finally:
            self._exit()

    def wrap(self, name: str, fn):
        """``fn`` recording a ``name`` span when called under a root."""
        stack = self._stack

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if not stack:
                self.unrooted[name] = self.unrooted.get(name, 0) + 1
                return fn(*args, **kwargs)
            self._enter(name)
            try:
                return fn(*args, **kwargs)
            finally:
                self._exit()

        return traced

    @contextmanager
    def path(self, path: str):
        """Patch the layers of ``path`` for the duration of the block."""
        saved = []
        try:
            for owner_name, attr, layer in PATH_LAYERS[path]:
                owner = resolve(owner_name)
                original = vars(owner).get(attr)
                if original is None:
                    self.missing.append(f"{owner_name}.{attr}")
                    continue
                saved.append((owner, attr, original))
                setattr(owner, attr, self.wrap(f"{path}.{layer}", original))
            yield
        finally:
            for owner, attr, original in reversed(saved):
                setattr(owner, attr, original)
