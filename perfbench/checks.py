"""Output checks, written against plain arrays rather than the program's
own analysis code, so a defect in the program cannot vouch for itself.

Every check returns ``None`` when the output is correct and a short
reason string when it is not.
"""

from __future__ import annotations

import numpy as np
from scipy.sparse import coo_matrix
from scipy.sparse.csgraph import dijkstra, minimum_spanning_tree

__all__ = [
    "stretch_fault",
    "same_build_fault",
    "mis_fault",
    "same_counts_fault",
    "verify_fault",
    "audit_fault",
    "lightness",
]

_TOL = 1e-9
_BLOCK = 256  # dijkstra sources per block: bounds the dense rows to ~20 MB


def _csr(n: int, us: np.ndarray, vs: np.ndarray, ws: np.ndarray):
    rows = np.concatenate([us, vs])
    cols = np.concatenate([vs, us])
    data = np.concatenate([ws, ws])
    return coo_matrix((data, (rows, cols)), shape=(n, n)).tocsr()


def stretch_fault(base, spanner, t: float) -> str | None:
    """The spanner is a subgraph of ``base`` with stretch <= ``t`` over
    every base edge."""
    n = base.num_vertices
    if spanner.num_vertices != n:
        return f"spanner has {spanner.num_vertices} vertices, base {n}"
    us, vs, ws = base.edges_arrays()
    su, sv, sw = spanner.edges_arrays()
    base_keys = np.minimum(us, vs) * n + np.maximum(us, vs)
    span_keys = np.minimum(su, sv) * n + np.maximum(su, sv)
    extra = np.setdiff1d(span_keys, base_keys)
    if extra.size:
        return f"{extra.size} spanner edges are not base edges"
    if us.size == 0:
        return None
    mat = _csr(n, su, sv, sw)
    limit = t * float(ws.max()) * (1.0 + _TOL)
    worst = 0.0
    for lo in range(0, n, _BLOCK):
        hi = min(lo + _BLOCK, n)
        sel = np.flatnonzero((us >= lo) & (us < hi))
        if sel.size == 0:
            continue
        rows = dijkstra(mat, directed=False, indices=np.arange(lo, hi),
                        limit=limit)
        sp = rows[us[sel] - lo, vs[sel]]
        worst = max(worst, float(np.max(sp / ws[sel])))
    if not worst <= t * (1.0 + _TOL):
        return f"stretch {worst:.6g} exceeds t = {t:.6g}"
    return None


def same_build_fault(reference, other) -> str | None:
    """Two distributed builds produced the same spanner and rounds."""
    a = sorted(reference.spanner.edges())
    b = sorted(other.spanner.edges())
    if a != b:
        return f"spanners differ ({len(a)} vs {len(b)} edges)"
    if reference.total_rounds != other.total_rounds:
        return (
            f"rounds differ ({reference.total_rounds} vs "
            f"{other.total_rounds})"
        )
    return None


def mis_fault(graph, alive, chosen) -> str | None:
    """``chosen`` is an independent, maximal set of the subgraph induced
    by the ``alive`` nodes of ``graph``."""
    n = graph.num_vertices
    alive_mask = np.zeros(n, dtype=bool)
    alive_mask[list(alive)] = True
    mask = np.zeros(n, dtype=bool)
    mask[list(chosen)] = True
    if (mask & ~alive_mask).any():
        return "a chosen node is not alive"
    us, vs, _ = graph.edges_arrays()
    live = alive_mask[us] & alive_mask[vs]
    us, vs = us[live], vs[live]
    clash = mask[us] & mask[vs]
    if clash.any():
        i = int(np.argmax(clash))
        return f"adjacent nodes {int(us[i])} and {int(vs[i])} both chosen"
    covered = mask.copy()
    covered[us[mask[vs]]] = True
    covered[vs[mask[us]]] = True
    exposed = alive_mask & ~covered
    if exposed.any():
        return f"node {int(np.argmax(exposed))} has no chosen neighbor"
    return None


def same_counts_fault(runs) -> str | None:
    """Every hardened run of one seed sent the same messages and
    retransmissions."""
    counts = {(r.result.messages, r.result.retransmissions) for r in runs}
    if len(counts) > 1:
        return f"message/retransmission counts differ: {sorted(counts)}"
    return None


def verify_fault(report: dict) -> str | None:
    """A ``MaintenanceSession.verify()`` report came back ok."""
    if not report.get("ok"):
        return f"verify failed: {report}"
    return None


def audit_fault(mismatches: list) -> str | None:
    """``MaintenanceSession.cover_cache_audit()`` found no stale row."""
    if mismatches:
        return f"{len(mismatches)} stale cover-cache rows, first {mismatches[0]}"
    return None


def lightness(base, spanner) -> float:
    """Spanner weight over the weight of a minimum spanning forest of
    ``base``."""
    n = base.num_vertices
    us, vs, ws = base.edges_arrays()
    forest = minimum_spanning_tree(_csr(n, us, vs, ws)).sum()
    _, _, sw = spanner.edges_arrays()
    return float(sw.sum() / forest) if forest > 0 else 1.0
