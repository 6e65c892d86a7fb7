"""Equivalence suite for the incremental maintenance engine.

Two pins, mirroring ISSUE 9's acceptance criteria:

* ``repair="rebuild"`` -- after randomized insert/delete/move
  sequences the maintained base graph and spanner are **bit-equal**
  (same edge sets, identical float weights) to a from-scratch build on
  the current point set.
* ``repair="local"`` -- after every event the maintained spanner is a
  subgraph of the base graph with stretch <= t over every base edge
  (the tested bounded-stretch guarantee), while the *base graph* stays
  bit-equal to a scratch rebuild.

Plus the FaultPlan -> event-stream adapter's seed-determinism
regression and the crash/recover round-trip.
"""

import numpy as np
import pytest

from repro.core import (
    MaintenanceEvent,
    MaintenanceSession,
    events_from_fault_plan,
)
from repro.distributed.faults import FaultPlan
from repro.exceptions import GraphError
from repro.geometry.sampling import uniform_points
from repro.graphs.build import BernoulliPolicy, DecayPolicy


def edge_table(g):
    return {(u, v): w for u, v, w in g.edges()}


def drive(session, rng, steps, span):
    """Apply ``steps`` randomized insert/delete/move events."""
    lo, hi = span
    reports = []
    for _ in range(steps):
        op = int(rng.integers(4))
        alive = session.alive_nodes()
        if op == 0:
            reports.append(session.insert(rng.uniform(lo, hi)))
        elif op == 1 and alive.size > 5:
            reports.append(session.delete(int(rng.choice(alive))))
        else:
            node = int(rng.choice(alive))
            new = session.position(node) + rng.normal(0.0, 0.3, lo.shape)
            reports.append(session.move(node, np.clip(new, lo, hi)))
    return reports


def make_session(seed, repair, n=160, policy=None, alpha=1.0):
    pts = uniform_points(n, dim=2, seed=seed, expected_degree=8.0)
    session = MaintenanceSession(
        pts, 0.5, alpha=alpha, policy=policy, repair=repair
    )
    span = (pts.coords.min(axis=0), pts.coords.max(axis=0))
    return session, span


class TestRebuildPath:
    @pytest.mark.parametrize("seed", range(3))
    def test_bit_equal_after_random_events(self, seed):
        session, span = make_session(
            seed,
            "rebuild",
            policy=BernoulliPolicy(0.6, seed=seed),
            alpha=0.7,
        )
        rng = np.random.default_rng(100 + seed)
        drive(session, rng, 12, span)
        base_ref, result_ref = session.rebuild_reference()
        assert edge_table(session.graph) == edge_table(base_ref)
        assert edge_table(session.spanner) == edge_table(result_ref.spanner)

    def test_every_event_reports_resync(self):
        session, span = make_session(0, "rebuild")
        reports = drive(session, np.random.default_rng(0), 5, span)
        assert all(r.resync for r in reports)

    def test_zero_events_equals_static_build(self):
        session, _ = make_session(1, "rebuild")
        base_ref, result_ref = session.rebuild_reference()
        assert edge_table(session.graph) == edge_table(base_ref)
        assert edge_table(session.spanner) == edge_table(result_ref.spanner)


class TestLocalPath:
    @pytest.mark.parametrize("seed", range(3))
    def test_stretch_bound_after_every_event(self, seed):
        session, span = make_session(
            seed, "local", policy=DecayPolicy(0.7, seed=seed), alpha=0.7
        )
        rng = np.random.default_rng(200 + seed)
        for _ in range(20):
            drive(session, rng, 1, span)
            check = session.verify()
            assert check["ok"], check
            # The base graph itself stays pinned bit-equal: only the
            # spanner is allowed to deviate (within the stretch bound).
            base_ref, _ = session.rebuild_reference()
            assert edge_table(session.graph) == edge_table(base_ref)

    def test_quality_tracks_rebuild(self):
        session, span = make_session(3, "local", n=250)
        drive(session, np.random.default_rng(33), 30, span)
        _, result_ref = session.rebuild_reference()
        ref = result_ref.spanner
        assert session.spanner.num_edges <= 2 * ref.num_edges + 10
        assert session.spanner.max_degree() <= 2 * ref.max_degree() + 2

    def test_repair_accounting_populated(self):
        session, span = make_session(4, "local")
        reports = drive(session, np.random.default_rng(44), 10, span)
        assert len(reports) == 10
        assert all(r.wall_s >= 0.0 for r in reports)
        assert any(r.dirty_nodes > 0 for r in reports)
        assert all(
            r.repaired_edges == r.added_edges + r.removed_edges
            for r in reports
        )
        stats = session.stats()
        assert stats["events"] == 10
        assert stats["wall_s"] == pytest.approx(
            sum(r.wall_s for r in reports)
        )

    def test_resync_escape_hatch_restores_bit_equality(self):
        session, span = make_session(5, "local")
        drive(session, np.random.default_rng(55), 15, span)
        session.resync()
        base_ref, result_ref = session.rebuild_reference()
        assert edge_table(session.graph) == edge_table(base_ref)
        assert edge_table(session.spanner) == edge_table(result_ref.spanner)

    def test_routing_follows_repairs(self):
        session, span = make_session(6, "local", n=120)
        alive = session.alive_nodes()
        src, dst = int(alive[0]), int(alive[-1])
        session.routing.warm([src])
        drive(session, np.random.default_rng(66), 3, span)
        # Table was invalidated; a fresh one routes on the new spanner.
        table = session.routing
        if dst in set(session.alive_nodes().tolist()):
            table.warm([src])

    def test_event_errors(self):
        session, span = make_session(7, "local", n=40)
        alive = session.alive_nodes()
        dead = int(alive[0])
        session.delete(dead)
        with pytest.raises(GraphError):
            session.delete(dead)
        with pytest.raises(GraphError):
            session.move(dead, (0.0, 0.0))
        with pytest.raises(GraphError):
            session.insert(node=int(alive[1]))  # still alive
        with pytest.raises(GraphError):
            session.insert()  # fresh insert needs a position
        session.insert(node=dead)  # revival is fine
        assert session.verify()["ok"]


def snapshot(session):
    return (
        session.num_alive,
        session.capacity,
        session.graph.num_edges,
        session.spanner.num_edges,
        edge_table(session.spanner),
    )


class TestFailedEventLeavesSession:
    """An invalid event raises a named :class:`GraphError` before it
    mutates anything: the session is exactly as it was, and still
    repairs the next valid event."""

    def assert_rejected(self, session, apply, match):
        before = snapshot(session)
        with pytest.raises(GraphError, match=match):
            apply()
        assert snapshot(session) == before
        node = int(session.alive_nodes()[0])
        session.move(node, session.position(node) + 0.01)
        assert session.verify()["ok"]

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_non_finite_insert(self, bad):
        session, _ = make_session(11, "local", n=200)
        self.assert_rejected(
            session, lambda: session.insert((bad, 1.0)), "finite"
        )

    def test_non_finite_move(self):
        session, _ = make_session(11, "local", n=200)
        node = int(session.alive_nodes()[3])
        self.assert_rejected(
            session, lambda: session.move(node, (1.0, np.nan)), "finite"
        )

    def test_revival_with_wrong_dimension(self):
        session, _ = make_session(12, "local", n=200)
        dead = int(session.alive_nodes()[4])
        session.delete(dead)
        self.assert_rejected(
            session,
            lambda: session.insert((1.0, 2.0, 3.0), node=dead),
            "dim",
        )

    def test_insert_onto_alive_node(self):
        session, _ = make_session(13, "local", n=200)
        taken = session.position(int(session.alive_nodes()[5]))
        self.assert_rejected(
            session, lambda: session.insert(taken), "lands on alive node"
        )

    def test_move_onto_alive_node(self):
        session, _ = make_session(13, "local", n=200)
        alive = session.alive_nodes()
        taken = session.position(int(alive[5]))
        self.assert_rejected(
            session,
            lambda: session.move(int(alive[6]), taken),
            "lands on alive node",
        )

    def test_bad_event_rejects_whole_epoch(self):
        session, _ = make_session(14, "local", n=200)
        alive = session.alive_nodes()
        a, b = int(alive[0]), int(alive[1])
        epoch = [
            MaintenanceEvent("delete", node=a),
            MaintenanceEvent("move", node=b, pos=(0.5, 0.5)),
            MaintenanceEvent("insert", pos=(np.nan, 0.0)),
        ]
        self.assert_rejected(
            session, lambda: session.apply_epoch(epoch), "finite"
        )

    def test_epoch_may_build_on_its_own_events(self):
        # Validation replays the epoch: reviving a node the epoch
        # deleted, and moving a node onto a spot the epoch vacated, are
        # both fine.
        session, _ = make_session(15, "local", n=200)
        alive = session.alive_nodes()
        a, b = int(alive[0]), int(alive[1])
        spot = tuple(session.position(a))
        session.apply_epoch(
            [
                MaintenanceEvent("delete", node=a),
                MaintenanceEvent("move", node=b, pos=spot),
                MaintenanceEvent("insert", node=a, pos=(0.25, 0.25)),
            ]
        )
        assert session.num_alive == 200
        assert session.verify()["ok"]

    def test_constructor_rejects_nan(self):
        pts = uniform_points(50, dim=2, seed=1).coords.copy()
        pts[7, 1] = np.nan
        with pytest.raises(GraphError, match="finite"):
            MaintenanceSession(pts, 0.5)


class TestFaultPlanAdapter:
    def test_seed_determinism(self):
        nodes = range(64)
        plan = FaultPlan(seed=9, crash_rate=0.3, recover_after=4.0)
        first = events_from_fault_plan(plan, nodes, horizon=64.0)
        second = events_from_fault_plan(plan, nodes, horizon=64.0)
        assert first == second
        other = events_from_fault_plan(
            FaultPlan(seed=10, crash_rate=0.3, recover_after=4.0),
            nodes,
            horizon=64.0,
        )
        assert first != other
        assert any(e.kind == "delete" for e in first)
        assert any(e.kind == "insert" for e in first)

    def test_stream_is_time_ordered(self):
        plan = FaultPlan(seed=2, crash_rate=0.5, recover_after=2.0)
        events = events_from_fault_plan(plan, range(80), horizon=64.0)
        times = [e.time for e in events]
        assert times == sorted(times)
        crashed = set()
        for event in events:
            if event.kind == "delete":
                assert event.node not in crashed
                crashed.add(event.node)
            else:
                assert event.node in crashed
                crashed.discard(event.node)

    def test_crash_recover_round_trip_restores_base(self):
        session, _ = make_session(8, "local", n=150)
        before = edge_table(session.graph)
        plan = FaultPlan(seed=5, crash_rate=0.2, recover_after=3.0)
        events = events_from_fault_plan(
            plan, range(session.capacity), horizon=1e9
        )
        assert events, "plan produced no churn"
        session.apply_stream(events)
        deleted = {e.node for e in events if e.kind == "delete"}
        revived = {e.node for e in events if e.kind == "insert"}
        assert deleted == revived  # every crash recovered in-horizon
        # Revivals reuse stored positions and global ids, so the base
        # graph round-trips exactly (policy draws included).
        assert edge_table(session.graph) == before
        assert session.verify()["ok"]

    def test_fail_stop_nodes_stay_dead(self):
        session, _ = make_session(9, "local", n=100)
        plan = FaultPlan(seed=3, crash_rate=0.4, recover_after=None)
        events = events_from_fault_plan(
            plan, range(session.capacity), horizon=1e9
        )
        assert events and all(e.kind == "delete" for e in events)
        session.apply_stream(events)
        assert session.num_alive == session.capacity - len(events)
        assert session.verify()["ok"]

    def test_unknown_event_kind_rejected(self):
        session, _ = make_session(10, "local", n=30)
        with pytest.raises(Exception):
            session.apply(MaintenanceEvent("teleport", node=0))
