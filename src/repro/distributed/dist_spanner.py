"""Distributed relaxed greedy spanner (Section 3 of the paper).

Section 3 is Section 2 with each sequential subroutine swapped for a
local protocol, so this builder runs the sequential builder's driver and
five-step phase, :func:`repro.core.relaxed_greedy.run_phases`, and plugs
in:

* a **cover** step: the proximity graph ``J`` of the partial spanner,
  its MIS by the Luby protocol (sharded when ``jobs > 1``; on the event
  tier with center promotion under a ``FaultPlan``), then
  :func:`repro.core.cover.cover_from_centers` (Theorem 16, Lemma 15);
* a **conflict-MIS** step: Luby on the redundancy conflict graph
  (event-tier Luby with a crash-free plan under a ``FaultPlan``;
  Theorem 21, Lemma 20);
* its :class:`RoundLedger` as the **charge** hook, billed ``O(1)``
  rounds of k-hop gathering for query selection, cluster-graph
  construction and query answering (Theorems 17, 18, 19).

This module keeps those strategies, the phase-0 flooding exchange, the
fault pruning and the final repair sweep.  The total is
``O(log n * R_MIS)`` rounds -- ``O(log n * log* n)`` with the Kuhn et
al. MIS of the paper, ``O(log n * log n)`` w.h.p. with the Luby protocol
this reproduction substitutes (see DESIGN.md).

Execution model of this implementation:

* **MIS invocations are real message-level protocol runs** on the derived
  graphs, executed by :class:`repro.distributed.engine.SynchronousNetwork`
  and converted to network rounds via the hop factor of the phase (one
  derived-graph round costs ``O(1)`` network rounds because derived-graph
  neighbors are a constant number of hops apart -- Lemmas 15/20).  The
  engine's *batch tier* steps every node of a round at once over CSR
  mailbox arrays, so these runs -- and the phase-0 flooding below -- scale
  to ``n >= 10^4`` while billing the exact same rounds and messages as
  the per-node reference tier;
* **phase 0 is a real message-level run** of 1-hop flooding followed by
  identical node-local computations (Theorem 14);
* **k-hop gathers of later phases are charged to the ledger at their
  exact hop cost** while the node-local computation they enable is
  evaluated once globally -- the gathered views determine those
  computations exactly (each node's decision depends only on its k-hop
  ball; :mod:`repro.distributed.local_views` and the test-suite verify
  this equivalence on sampled nodes).

The output spanner satisfies the same three theorems as the sequential
algorithm; it can differ edge-by-edge (different cover centers, different
MIS draws) but the test-suite checks both against identical bounds.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from functools import partial

import numpy as np

from ..core.cover import ClusterCover, cover_from_centers
from ..core.covered import DistanceOracle
from ..core.relaxed_greedy import SpannerResult, run_phases
from ..graphs.graph import Graph
from ..graphs.paths import (
    multi_source_ball_lists,
    multi_source_distances,
    pair_distances,
    prefer_batched_sources,
    source_block_size,
)
from ..params import SpannerParams
from .engine import SynchronousNetwork
from .faults import FaultPlan
from .ledger import RoundLedger
from .mis import run_luby_mis_arrays
from .protocols.flooding import KHopGather
from .unreliable import induced_csr, run_luby_mis_event

__all__ = ["DistributedSpannerResult", "DistributedRelaxedGreedy"]


@dataclass
class DistributedSpannerResult(SpannerResult):
    """Output of a distributed build.

    Extends :class:`repro.core.relaxed_greedy.SpannerResult` (spanner,
    params, per-phase statistics, bin count, probe-cache counters) with:

    Attributes
    ----------
    ledger:
        Full round/message accounting (see :class:`RoundLedger`).
    mis_invocations:
        Number of protocol-backed MIS runs.
    crashed:
        Nodes down when the build finished (fault-plan builds only;
        recovered nodes are *not* listed -- they rejoined the network).
    retransmissions / recovery_rounds:
        Totals over every event-tier protocol run of the build.
    repair_edges:
        Base edges reinstated by the final stretch re-certification
        sweep after crashes severed spanner paths.
    final_time:
        Event-simulation clock when the last protocol run drained.
    """

    ledger: RoundLedger = field(default_factory=RoundLedger)
    mis_invocations: int = 0
    crashed: tuple = ()
    retransmissions: int = 0
    recovery_rounds: int = 0
    repair_edges: int = 0
    final_time: float = 0.0

    @property
    def total_rounds(self) -> int:
        """Network rounds charged over the whole run."""
        return self.ledger.total_rounds


class DistributedRelaxedGreedy:
    """Distributed spanner builder (Section 3).

    Parameters
    ----------
    params:
        Validated spanner parameters.
    seed:
        Seed driving the Luby MIS protocols.
    process_empty_phases:
        When true, phases whose bin is empty still pay their cover
        schedule (gather + MIS on the proximity graph), matching the
        paper's fixed global schedule; when false (default) empty phases
        are skipped, matching a practical implementation where nodes
        with no work stay silent.
    jobs:
        Worker-process budget for the cover MIS runs: when ``jobs > 1``
        the proximity-graph Luby protocol executes on the sharded batch
        tier (:mod:`repro.distributed.shard`) across ``jobs`` shards.
        Results are bit-identical to ``jobs=1`` -- same spanner, rounds,
        message counts -- only wall-clock changes.  Ignored on the event
        tier (fault-plan builds are inherently sequential).
    points:
        Optional :class:`~repro.geometry.points.PointSet` behind the
        graph; when given and ``jobs > 1``, shards are cut along grid
        cells (:func:`repro.distributed.shard.grid_partition`) so halos
        stay one cell ring thick.  Without it, contiguous id ranges are
        used -- identical output either way.
    fault_plan:
        When set, every MIS invocation runs on the *event tier*
        (:mod:`repro.distributed.unreliable`, batched timer-wheel engine)
        under this plan, sharing one crash timeline across phases: the
        simulation clock advances run by run, nodes down at a phase's
        start are excluded from its proximity graph and cover (so the
        shared phase drops their bin edges), crashed nodes' spanner
        edges are pruned, their clusters re-covered by promoted centers,
        and a final re-certification sweep restores the stretch bound on
        the surviving subgraph.  A zero-fault plan reproduces the default
        build exactly (pinned by the test-suite).
    """

    def __init__(
        self,
        params: SpannerParams,
        *,
        seed: int = 0,
        process_empty_phases: bool = False,
        fault_plan: FaultPlan | None = None,
        jobs: int = 1,
        points=None,
    ) -> None:
        self.params = params
        self._seed = seed
        self._process_empty = process_empty_phases
        self._fault_plan = fault_plan
        self._jobs = max(1, int(jobs))
        self._points = points
        self._partition: np.ndarray | None = None
        self._clock = 0.0

    def _cover_partition(self, n: int) -> np.ndarray | None:
        """Owner array for sharded cover-MIS runs (computed once).

        Grid cells when the point set is known, else the contiguous
        fallback chosen by the engine; ``None`` when ``jobs == 1`` so
        the single-process batch tier runs untouched.
        """
        if self._jobs <= 1:
            return None
        if self._partition is None and self._points is not None:
            from .shard import grid_partition

            self._partition = grid_partition(self._points, self._jobs)
        return self._partition

    # ------------------------------------------------------------------
    def build(
        self, graph: Graph, dist: DistanceOracle
    ) -> DistributedSpannerResult:
        """Run the distributed construction on ``graph``.

        Parameters mirror
        :meth:`repro.core.relaxed_greedy.RelaxedGreedySpanner.build`.
        """
        result = DistributedSpannerResult(Graph(graph.num_vertices), self.params)
        ledger = result.ledger
        self._clock = 0.0
        spanner = run_phases(
            result,
            graph,
            dist,
            cover=partial(
                self._cover if self._fault_plan is None else self._cover_event,
                result,
            ),
            conflict_mis=partial(self._conflict_mis, result),
            charge=ledger.charge,
            gather_short=partial(self._gather_short, graph, ledger),
            every_phase=self._process_empty,
            check_clique=False,
        )
        if self._fault_plan is not None:
            self._finalize_faults(graph, spanner, result)
        result.spanner = spanner
        result.probe_cache = spanner.probe_cache_stats()
        return result

    # ------------------------------------------------------------------
    # Fault-plan machinery (event-tier builds)
    # ------------------------------------------------------------------
    @staticmethod
    def _prune_dead(spanner: Graph, dead: set[int]) -> None:
        """Drop every spanner edge incident to a crashed node -- its
        links are gone until (and unless) the final repair sweep finds
        the stretch bound needs them back."""
        for u in dead:
            for v in list(spanner.neighbors(u)):
                spanner.remove_edge(u, v)

    def _finalize_faults(
        self, graph: Graph, spanner: Graph, result: DistributedSpannerResult
    ) -> None:
        """Close the fault timeline: prune nodes still down, then
        re-certify the stretch bound on the surviving subgraph.

        One ``pair_distances`` sweep over alive-alive base edges suffices
        -- every reinstated edge has stretch 1, so a single pass restores
        ``sp(u, v) <= t * w`` for all surviving base edges (the invariant
        E11 and the hardening tests verify).
        """
        plan = self._fault_plan
        n = graph.num_vertices
        dead = {u for u in range(n) if plan.dead_at(u, self._clock)}
        self._prune_dead(spanner, dead)
        result.crashed = tuple(sorted(dead))
        result.final_time = self._clock
        ever_crashed = any(
            sched is not None and sched[0] <= self._clock
            for sched in (plan.crash_schedule(u) for u in range(n))
        )
        if not ever_crashed:
            return
        us, vs, ws = graph.edges_arrays()
        if us.size == 0:
            return
        dead_mask = np.zeros(n, dtype=bool)
        if dead:
            dead_mask[sorted(dead)] = True
        sel = ~dead_mask[us] & ~dead_mask[vs]
        us, vs, ws = us[sel], vs[sel], ws[sel]
        if us.size == 0:
            return
        t = self.params.t
        cutoff = t * float(ws.max()) * (1.0 + 1e-6)
        sp = pair_distances(spanner, us, vs, cutoff=cutoff)
        violated = np.flatnonzero(sp > t * ws * (1.0 + 1e-9))
        for i in violated:
            spanner.add_edge(int(us[i]), int(vs[i]), float(ws[i]))
        result.repair_edges = int(violated.size)
        if result.repair_edges:
            result.ledger.charge(
                result.num_bins + 1,
                "repair.certify",
                1,
                messages=2 * result.repair_edges,
                detail=(
                    f"{result.repair_edges} base edges reinstated on the "
                    "surviving subgraph"
                ),
            )

    # ------------------------------------------------------------------
    @staticmethod
    def _gather_short(
        graph: Graph,
        ledger: RoundLedger,
        short_edges: list[tuple[int, int, float]],
    ) -> None:
        """Theorem 14: the 1-hop ``E_0`` exchange, in real message rounds.

        Every node floods its incident short edges one hop; each node
        then knows the full topology of its ``G_0`` component (Lemma 1
        puts the component inside its closed neighborhood) and computes
        the same deterministic clique spanner -- evaluated once by the
        shared phase 0 -- keeping its incident edges.  One more round
        announces kept edges to neighbors.
        """
        facts = {u: set() for u in graph.vertices()}
        for u, v, w in short_edges:
            facts[u].add((u, v, w))
            facts[v].add((u, v, w))
        net = SynchronousNetwork(graph, max_rounds=16)
        run = net.run(KHopGather(facts, k=1))
        ledger.charge(
            0,
            "short.gather",
            run.rounds,
            messages=run.messages,
            detail="1-hop E_0 exchange",
        )
        ledger.charge(0, "short.announce", 1, detail="announce kept edges")

    # ------------------------------------------------------------------
    def _proximity_graph(
        self, spanner: Graph, radius: float
    ) -> tuple[np.ndarray, np.ndarray]:
        """The cover proximity graph ``J``: ``{x, y}`` iff
        ``sp_{G'}(x, y) <= radius`` (Section 3.2.1), as CSR arrays.

        Computed over the spanner's CSR snapshot -- the frontier-sharing
        sparse search from all ``n`` sources at once in the tiny-radius
        phases (total work O(J mass), no dense rows), blocked C-level
        multi-source cutoff Dijkstras once balls are wide (see
        :func:`prefer_batched_sources`) -- then symmetrized and
        deduplicated into one sorted ``(indptr, indices)`` pair over
        nodes ``0..n-1``: the form the engine's batch tier and
        :func:`repro.distributed.mis.run_luby_mis_arrays` consume
        directly.  ``J`` stays arrays end-to-end: no per-node dict or
        set is ever materialized on this path.
        """
        n = spanner.num_vertices
        if n == 0 or spanner.num_edges == 0 or radius <= 0.0:
            return (
                np.zeros(n + 1, dtype=np.int64),
                np.empty(0, dtype=np.int64),
            )
        all_nodes = np.arange(n, dtype=np.int64)
        if prefer_batched_sources(spanner, all_nodes, radius):
            block = source_block_size(spanner)
            pair_u: list[np.ndarray] = []
            pair_v: list[np.ndarray] = []
            for lo in range(0, n, block):
                src = all_nodes[lo : min(lo + block, n)]
                rows = multi_source_distances(spanner, src, cutoff=radius)
                ui, vi = np.nonzero(rows <= radius)
                keep = src[ui] != vi
                pair_u.append(src[ui[keep]])
                pair_v.append(vi[keep])
            us = np.concatenate(pair_u)
            vs = np.concatenate(pair_v)
        else:
            starts, ball_v, _ = multi_source_ball_lists(
                spanner, all_nodes, radius
            )
            src = np.repeat(all_nodes, np.diff(starts))
            keep = src != ball_v
            us, vs = src[keep], ball_v[keep]
        # Symmetrize (floating-point Dijkstra can in principle disagree
        # across directions; J must be undirected) and deduplicate: one
        # unique pass over (u, v) keys yields sorted loop-free rows.
        keys = np.unique(
            np.concatenate([us * np.int64(n) + vs, vs * np.int64(n) + us])
        )
        indptr = np.searchsorted(
            keys, np.arange(n + 1, dtype=np.int64) * np.int64(n)
        )
        return indptr, keys % np.int64(n)

    def _cover(
        self,
        result: DistributedSpannerResult,
        spanner: Graph,
        radius: float,
        index: int,
    ) -> ClusterCover:
        """Step (i), Theorem 16: Luby MIS of ``J`` as centers, then
        every node joins its highest-id center in range."""
        ledger = result.ledger
        n = spanner.num_vertices
        k_cluster = self.params.cluster_hop_bound(index, n)
        ledger.charge(
            index, "cover.gather", k_cluster, detail=f"G' within {k_cluster} hops"
        )
        mis_run = run_luby_mis_arrays(
            *self._proximity_graph(spanner, radius),
            seed=self._seed * 1_000_003 + index,
            jobs=self._jobs,
            shards=self._jobs if self._jobs > 1 else None,
            partition=self._cover_partition(n),
        )
        result.mis_invocations += 1
        ledger.charge(
            index,
            "cover.mis",
            mis_run.engine_rounds * k_cluster,
            messages=mis_run.messages,
            detail=f"{mis_run.engine_rounds} J-rounds x {k_cluster} hop factor",
        )
        cover = cover_from_centers(spanner, radius, mis_run.independent_set)
        ledger.charge(index, "cover.attach", k_cluster, detail="join center")
        return cover

    def _cover_event(
        self,
        result: DistributedSpannerResult,
        spanner: Graph,
        radius: float,
        index: int,
    ) -> ClusterCover:
        """Step (i) on the event tier under the fault plan.

        Nodes down at the phase's start lose their spanner edges and
        stay out of ``J``.  The hardened Luby protocol runs on ``J``
        induced on the alive nodes, from the shared simulation clock;
        crashes during the run are absorbed (their spanner edges
        pruned), and alive nodes those crashes left uncovered are
        promoted to centers -- a local O(1)-round operation charged as
        ``cover.recover``.  Nodes dead by the end stay out of the cover,
        which is empty (and nothing is charged) when no node is alive.
        """
        ledger = result.ledger
        plan = self._fault_plan
        n = spanner.num_vertices
        k_cluster = self.params.cluster_hop_bound(index, n)
        dead = {u for u in range(n) if plan.dead_at(u, self._clock)}
        self._prune_dead(spanner, dead)
        if len(dead) == n:
            return ClusterCover(radius, (), {}, {})
        ledger.charge(
            index, "cover.gather", k_cluster, detail=f"G' within {k_cluster} hops"
        )
        alive_mask = np.ones(n, dtype=bool)
        alive_mask[sorted(dead)] = False
        sub_indptr, sub_indices, labels = induced_csr(
            *self._proximity_graph(spanner, radius), alive_mask
        )
        run = run_luby_mis_event(
            (sub_indptr, sub_indices),
            seed=self._seed * 1_000_003 + index,
            plan=plan,
            fault_labels={i: int(u) for i, u in enumerate(labels)},
            t0=self._clock,
            # Event volume grows with the node count; keep the default
            # ceiling for small runs but scale it for n >= 10^4 builds.
            max_events=max(5_000_000, 3_000 * n),
        )
        self._clock = run.t_end
        result.mis_invocations += 1
        result.retransmissions += run.result.retransmissions
        result.recovery_rounds += run.result.recovery_rounds
        ledger.charge(
            index,
            "cover.mis",
            run.result.rounds * k_cluster,
            messages=run.result.messages,
            detail=(
                f"{run.result.rounds} hardened J-epochs x {k_cluster} hop "
                f"factor, {run.result.retransmissions} retransmissions"
            ),
        )
        alive_now = {int(labels[c]) for c in run.alive}
        newly_dead = set(map(int, labels)) - alive_now
        if newly_dead:
            dead = dead | newly_dead
            self._prune_dead(spanner, newly_dead)
        centers = sorted(int(labels[c]) for c in run.independent_set)

        # Mid-run crashes may have severed the paths that certified some
        # nodes' coverage: promote each still-uncovered alive node to a
        # center, in ascending id order (promoted centers stay pairwise
        # > radius apart because each promotion covers its whole ball).
        covered: set[int] = set()
        if centers:
            _, ball_v, _ = multi_source_ball_lists(
                spanner, np.asarray(centers, dtype=np.int64), radius
            )
            covered = set(map(int, ball_v))
        promoted: list[int] = []
        for u in range(n):
            if u in dead or u in covered:
                continue
            promoted.append(u)
            _, ball_v, _ = multi_source_ball_lists(
                spanner, np.asarray([u], dtype=np.int64), radius
            )
            covered.update(map(int, ball_v))
        if promoted:
            centers = sorted(centers + promoted)
            result.recovery_rounds += 1
            ledger.charge(
                index,
                "cover.recover",
                k_cluster,
                messages=len(promoted),
                detail=f"{len(promoted)} centers promoted after crashes",
            )
        universe = [u for u in range(n) if u not in dead]
        if not universe:
            return ClusterCover(radius, (), {}, {})
        cover = cover_from_centers(spanner, radius, centers, vertices=universe)
        ledger.charge(index, "cover.attach", k_cluster, detail="join center")
        return cover

    def _conflict_mis(
        self,
        result: DistributedSpannerResult,
        indptr: np.ndarray,
        indices: np.ndarray,
        index: int,
    ) -> frozenset[int]:
        """Step (v)'s MIS, Theorem 21: Luby on the conflict graph.

        Under a fault plan it runs on the event tier: conflict-graph
        nodes are *edges* hosted by alive cluster heads, so they suffer
        the plan's link faults but cannot crash (a dead host's edges
        already left the phase with it).
        """
        seed = self._seed * 2_000_003 + index
        plan = self._fault_plan
        if plan is None:
            run = run_luby_mis_arrays(indptr, indices, seed=seed)
            rounds, messages = run.engine_rounds, run.messages
        else:
            vplan = replace(
                plan, crash_rate=0.0, seed=plan.seed * 1_000_003 + 17
            )
            run = run_luby_mis_event(
                (indptr, indices), seed=seed, plan=vplan, t0=self._clock
            )
            self._clock = run.t_end
            result.retransmissions += run.result.retransmissions
            result.recovery_rounds += run.result.recovery_rounds
            rounds, messages = run.result.rounds, run.result.messages
        result.mis_invocations += 1
        k_query = self.params.query_hop_bound()
        result.ledger.charge(
            index,
            "redundant.mis",
            rounds * k_query,
            messages=messages,
            detail=f"{rounds} J-rounds x {k_query} hop factor",
        )
        return run.independent_set
