"""Tests for mutually-redundant edge elimination (Section 2.2.5)."""

import numpy as np
import pytest

from repro.core.cluster_graph import ClusterGraph
from repro.core.cover import build_cluster_cover
from repro.core.redundancy import (
    conflict_graph_arrays,
    find_redundant_pairs,
    greedy_mis,
    remove_redundant_edges,
)
from repro.distributed.unreliable import run_luby_mis_event
from repro.exceptions import GraphError
from repro.experiments.failures import fault_scenario
from repro.graphs.graph import Graph


def csr(rows):
    """CSR arrays of an adjacency given as one neighbor list per node."""
    indptr = np.cumsum([0] + [len(r) for r in rows]).astype(np.int64)
    indices = np.asarray([v for r in rows for v in sorted(r)], np.int64)
    return indptr, indices


def make_h(edges, n) -> ClusterGraph:
    """Wrap a hand-built H graph (cover content irrelevant for these tests)."""
    h = Graph(n)
    for u, v, w in edges:
        h.add_edge(u, v, w)
    cover = build_cluster_cover(h, 0.0)
    return ClusterGraph(
        graph=h, cover=cover, w_prev=1.0, num_intra_edges=0, num_inter_edges=0
    )


class TestGreedyMis:
    def test_empty(self):
        assert greedy_mis(*csr([])).size == 0

    def test_independent_and_maximal(self):
        rows = [{1}, {0, 2}, {1}]
        mis = set(greedy_mis(*csr(rows)).tolist())
        for node in mis:
            assert not rows[node] & mis
        for node in range(len(rows)):
            assert node in mis or rows[node] & mis

    def test_prefers_low_ids(self):
        assert greedy_mis(*csr([{1}, {0}])).tolist() == [0]


class TestFindRedundantPairs:
    def test_parallel_close_edges_are_redundant(self):
        """Two nearly-parallel edges with tiny H-connections between
        endpoints satisfy both conditions."""
        # u=0, v=1 and u'=2, v'=3; H gives sp(0,2)=sp(1,3)=0.01.
        h = make_h([(0, 2, 0.01), (1, 3, 0.01)], 4)
        added = [(0, 1, 1.0), (2, 3, 1.0)]
        pairs = find_redundant_pairs(added, h, t1=1.2, w_cur=1.0)
        assert len(pairs) == 1

    def test_far_edges_not_redundant(self):
        h = make_h([(0, 2, 3.0), (1, 3, 3.0)], 4)
        added = [(0, 1, 1.0), (2, 3, 1.0)]
        assert not find_redundant_pairs(added, h, t1=1.2, w_cur=1.0)

    def test_disconnected_endpoints_not_redundant(self):
        h = make_h([], 4)
        added = [(0, 1, 1.0), (2, 3, 1.0)]
        assert not find_redundant_pairs(added, h, t1=1.2, w_cur=1.0)

    def test_opposite_orientation_detected(self):
        """Pairing (u,v') and (v,u') must also be checked (d_J takes the
        min of the two pairings)."""
        h = make_h([(0, 3, 0.01), (1, 2, 0.01)], 4)
        added = [(0, 1, 1.0), (2, 3, 1.0)]
        pairs = find_redundant_pairs(added, h, t1=1.2, w_cur=1.0)
        assert len(pairs) == 1

    def test_one_sided_condition_insufficient(self):
        """Condition must hold for *both* edges: a cheap bypass for one
        edge only does not make the pair mutually redundant."""
        # sp(0,2)=0.01 but sp(1,3)=5 -> neither condition can hold.
        h = make_h([(0, 2, 0.01), (1, 3, 5.0)], 4)
        added = [(0, 1, 1.0), (2, 3, 1.0)]
        assert not find_redundant_pairs(added, h, t1=1.2, w_cur=5.0)

    def test_rejects_bad_t1(self):
        h = make_h([], 2)
        with pytest.raises(GraphError):
            find_redundant_pairs([(0, 1, 1.0)], h, t1=1.0, w_cur=1.0)

    def test_empty_added(self):
        h = make_h([], 2)
        assert find_redundant_pairs([], h, t1=1.2, w_cur=1.0) == []


class TestConflictGraphAndRemoval:
    def test_conflict_graph_symmetric(self):
        pairs = [((3, 2, 1.0), (0, 1, 1.0))]
        key_u, key_v, indptr, indices = conflict_graph_arrays(pairs, 4)
        # Nodes are the implicated edge keys in sorted order.
        assert list(zip(key_u.tolist(), key_v.tolist())) == [(0, 1), (2, 3)]
        assert indptr.tolist() == [0, 1, 2]
        assert indices.tolist() == [1, 0]

    def test_conflict_graph_empty(self):
        key_u, key_v, indptr, indices = conflict_graph_arrays([], 4)
        assert key_u.size == key_v.size == indices.size == 0
        assert indptr.tolist() == [0]

    def test_removal_keeps_counterpart(self):
        """Every removed edge must keep a surviving redundant partner
        (the Theorem 10 safety condition)."""
        h = make_h([(0, 2, 0.01), (1, 3, 0.01)], 4)
        spanner = Graph(4)
        spanner.add_edge(0, 1, 1.0)
        spanner.add_edge(2, 3, 1.0)
        added = [(0, 1, 1.0), (2, 3, 1.0)]
        outcome = remove_redundant_edges(
            spanner, added, h, t1=1.2, w_cur=1.0
        )
        assert len(outcome.removed) == 1
        assert len(outcome.kept) == 1
        assert outcome.num_pairs == 1
        # The removed edge's redundant partner survived.
        (e1, e2), = find_redundant_pairs(added, h, t1=1.2, w_cur=1.0)
        assert {e1, e2} == {outcome.removed[0], outcome.kept[0]}
        # spanner mutated accordingly
        assert spanner.num_edges == 1

    def test_no_pairs_no_removal(self):
        h = make_h([], 4)
        spanner = Graph(4)
        spanner.add_edge(0, 1, 1.0)
        outcome = remove_redundant_edges(
            spanner, [(0, 1, 1.0)], h, t1=1.2, w_cur=1.0
        )
        assert not outcome.removed and spanner.num_edges == 1

    def test_custom_mis_function_used(self):
        """The MIS hook decides who survives."""
        h = make_h([(0, 2, 0.01), (1, 3, 0.01)], 4)
        spanner = Graph(4)
        spanner.add_edge(0, 1, 1.0)
        spanner.add_edge(2, 3, 1.0)
        added = [(0, 1, 1.0), (2, 3, 1.0)]

        def keep_high(indptr, indices):
            return [len(indptr) - 2]

        outcome = remove_redundant_edges(
            spanner, added, h, t1=1.2, w_cur=1.0, mis=keep_high
        )
        assert outcome.removed[0][:2] == (0, 1)
        assert spanner.has_edge(2, 3)


@pytest.mark.parametrize("fault", ["lossy", "chaos", "crashy"])
@pytest.mark.parametrize("trial", range(4))
def test_event_luby_on_conflict_csr_matches_dict_oracle(fault, trial):
    """The fault branch's conflict MIS runs event-tier Luby on the CSR of
    :func:`conflict_graph_arrays`; the same run on a mapping over the
    sorted edge keys (built here as the oracle) must agree exactly."""
    rng = np.random.default_rng(1000 * trial + len(fault))
    n = 40
    edges = set()
    while len(edges) < 30:
        u, v = sorted(rng.choice(n, size=2, replace=False).tolist())
        edges.add((u, v, 1.0))
    edges = sorted(edges)
    pairs = []
    for i, j in rng.integers(0, len(edges), size=(45, 2)).tolist():
        if i != j:
            pairs.append((edges[i], edges[j]))
    key_u, key_v, indptr, indices = conflict_graph_arrays(pairs, n)

    keys = sorted({e[:2] for pair in pairs for e in pair})
    label = {key: i for i, key in enumerate(keys)}
    mapping = {i: set() for i in range(len(keys))}
    for e1, e2 in pairs:
        a, b = label[e1[:2]], label[e2[:2]]
        mapping[a].add(b)
        mapping[b].add(a)
    assert list(zip(key_u.tolist(), key_v.tolist())) == keys

    plan = fault_scenario(fault).plan(seed=trial)
    fast = run_luby_mis_event((indptr, indices), seed=trial, plan=plan, t0=3.0)
    oracle = run_luby_mis_event(mapping, seed=trial, plan=plan, t0=3.0)
    assert fast.independent_set == oracle.independent_set
    assert fast.t_end == oracle.t_end
    for field in ("rounds", "messages", "retransmissions", "crashed"):
        assert getattr(fast.result, field) == getattr(oracle.result, field)
