"""Randomized churn sequences against the local-repair invariant.

Hypothesis drives interleaved ``apply`` / ``apply_epoch`` calls made of
fresh inserts, revivals of dead ids, deletes (down to a handful of
nodes, or none), moves clipped onto the bounding box, and inserts onto
an alive node's spot (which must be rejected without touching the
session).
After every step the session's own ``verify()`` must pass, and an
independent check -- scipy's Dijkstra over the spanner, every base
edge, no cutoff -- must agree that the spanner is a ``t``-spanner of
the base graph, so certification never vouches for itself.

Half the examples switch the promotion and redundancy phases off, so
certification alone must repair every certificate the events broke:
that pins the change-site suspect rule for deletes and moves, which
the promotion phase would otherwise mostly mask.
"""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st
from scipy.sparse import coo_matrix
from scipy.sparse.csgraph import dijkstra

from repro.core import MaintenanceEvent, MaintenanceSession
from repro.exceptions import GraphError
from repro.geometry.sampling import uniform_points

N = 40
EPSILON = 0.5

_pick = st.integers(0, 10**6)
_unit = st.floats(0.0, 1.0)
_step = st.floats(-1.5, 1.5)
OPS = st.one_of(
    st.tuples(st.just("insert"), _unit, _unit),
    st.tuples(st.just("revive"), _pick),
    st.tuples(st.just("delete"), _pick),
    st.tuples(st.just("drain"), st.integers(1, N)),
    st.tuples(st.just("move"), _pick, _step, _step),
    st.tuples(st.just("clash"), _pick),
)
STEPS = st.lists(
    st.tuples(st.booleans(), st.lists(OPS, min_size=1, max_size=4)),
    min_size=1,
    max_size=14,
)


def independent_stretch(session) -> float:
    """Max spanner stretch over every base edge, by scipy's Dijkstra."""
    base = list(session.graph.edges())
    if not base:
        return 1.0
    n = session.capacity
    edges = list(session.spanner.edges())
    ends = np.array([(u, v) for u, v, _ in edges], dtype=np.int64)
    ws = np.array([w for _, _, w in edges], dtype=np.float64)
    ends = ends.reshape(-1, 2)
    mat = coo_matrix((ws, (ends[:, 0], ends[:, 1])), shape=(n, n))
    dist = dijkstra(mat.tocsr(), directed=False)
    return max(dist[u, v] / w for u, v, w in base)


def snapshot(session):
    return (
        session.num_alive,
        session.capacity,
        sorted(session.graph.edges()),
        sorted(session.spanner.edges()),
    )


def build_epoch(session, ops, lo, hi):
    """Turn ``ops`` into valid events against a replay of the epoch, and
    report whether some event lands on an alive node's spot."""
    alive = set(session.alive_nodes().tolist())
    where = {}
    capacity = session.capacity
    events, clash = [], False

    def pos_of(v):
        return where[v] if v in where else session.position(v)

    def occupied(p, node):
        return any(v != node and np.array_equal(pos_of(v), p) for v in alive)

    for op in ops:
        kind = op[0]
        dead = sorted(set(range(capacity)) - alive)
        live = sorted(alive)
        if kind == "insert":
            p = lo + np.array(op[1:]) * (hi - lo)
            node = capacity
            capacity += 1
            events.append(MaintenanceEvent("insert", pos=tuple(p)))
        elif kind == "revive" and dead:
            node = dead[op[1] % len(dead)]
            p = pos_of(node)
            events.append(MaintenanceEvent("insert", node=node))
        elif kind == "clash" and live:
            p = pos_of(live[op[1] % len(live)])
            node = capacity
            capacity += 1
            events.append(MaintenanceEvent("insert", pos=tuple(p)))
        elif kind == "delete" and live:
            node = live[op[1] % len(live)]
            alive.discard(node)
            events.append(MaintenanceEvent("delete", node=node))
            continue
        elif kind == "drain":
            # Delete the newest ``op[1]`` alive nodes (all of them at
            # most), one event each.
            for node in live[::-1][: op[1]]:
                alive.discard(node)
                events.append(MaintenanceEvent("delete", node=node))
            continue
        elif kind == "move" and live:
            node = live[op[1] % len(live)]
            p = np.clip(pos_of(node) + np.array(op[2:]), lo, hi)
            events.append(MaintenanceEvent("move", node=node, pos=tuple(p)))
        else:
            continue
        clash |= occupied(p, node)
        alive.add(node)
        where[node] = np.asarray(p, dtype=float)
    return events, clash


@settings(
    max_examples=40,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)
@given(
    seed=st.integers(0, 3),
    alpha=st.sampled_from([1.0, 0.6]),
    certify_only=st.booleans(),
    steps=STEPS,
)
def test_random_churn_keeps_certified_spanner(
    seed, alpha, certify_only, steps
):
    with pytest.MonkeyPatch.context() as mp:
        if certify_only:
            mp.setattr(
                MaintenanceSession, "_repair_region", lambda *args: None
            )
        drive(seed, alpha, steps)


def drive(seed, alpha, steps):
    points = uniform_points(N, dim=2, seed=seed, expected_degree=8.0)
    # ``resync_fraction=1.0`` never escalates: at this size every dirty
    # ball would otherwise trigger a rebuild and skip local repair.
    session = MaintenanceSession(
        points, EPSILON, alpha=alpha, resync_fraction=1.0
    )
    lo, hi = points.coords.min(axis=0), points.coords.max(axis=0)
    t = session.params.t
    for epoch_mode, ops in steps:
        if not epoch_mode:
            ops = ops[:1]
        events, clash = build_epoch(session, ops, lo, hi)
        if not events:
            continue
        if clash:
            before = snapshot(session)
            with pytest.raises(GraphError, match="lands on alive node"):
                session.apply_epoch(events)
            assert snapshot(session) == before
            continue
        if epoch_mode:
            session.apply_epoch(events)
        else:
            for event in events:
                session.apply(event)
        assert session.verify()["ok"]
        assert independent_stretch(session) <= t * (1.0 + 1e-9)
