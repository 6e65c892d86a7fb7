"""A fixed reference kernel that measures the host's speed during a run.

The speed of a shared host drifts by tens of percent over minutes, with
the load other tenants put on the same cores, so two runs of identical
code can differ by more than a regression bound even when each reports
medians over its whole length.  The benchmark runs this kernel in short
bursts between the program's timed operations, so that a burst comes
just before and just after each of them, and scales each wall by
``NOMINAL_S`` over the mean of those two bursts: the result reads as
seconds on a host where one burst takes ``NOMINAL_S``.  The kernel does
not touch the program, so a change to the program moves the scaled
timings and leaves the scale alone.

A burst mixes interpreted work (a heap-based Dijkstra over Python lists,
like the program's scalar search paths) with array work (sort, gather
and bincount over numpy arrays of a few hundred kilobytes, like its
vectorized phases).  The cyclic garbage collector is off during a burst,
so the program's live heap cannot make a burst slower, and one untimed
pass first refills the caches the program's last operation evicted.
"""

from __future__ import annotations

import gc
import heapq
import random
import statistics
from time import perf_counter

import numpy as np

__all__ = ["NOMINAL_S", "HostSpeed"]

#: Burst length, in seconds, that scaled timings are expressed against:
#: about what one burst takes on a 2-core Intel Xeon host when its
#: neighbours are quiet.
NOMINAL_S = 0.015

_N = 4000
_DEGREE = 6
_ARRAY = 1 << 16


def _graph() -> list[list[tuple[int, float]]]:
    rng = random.Random(11)
    return [
        [(rng.randrange(_N), rng.random()) for _ in range(_DEGREE)]
        for _ in range(_N)
    ]


class HostSpeed:
    """Bursts of the reference kernel taken through one run."""

    def __init__(self) -> None:
        self.bursts: list[float] = []
        self._adj = _graph()
        rng = np.random.default_rng(11)
        self._values = rng.random(_ARRAY)
        self._index = rng.integers(0, _ARRAY, _ARRAY)
        self._out = np.empty(_ARRAY)

    def _kernel(self) -> None:
        adj = self._adj
        dist = [float("inf")] * _N
        dist[0] = 0.0
        heap = [(0.0, 0)]
        while heap:
            d, u = heapq.heappop(heap)
            if d > dist[u]:
                continue
            for v, w in adj[u]:
                nd = d + w
                if nd < dist[v]:
                    dist[v] = nd
                    heapq.heappush(heap, (nd, v))
        out = self._out
        out[:] = self._values
        out.sort()
        np.take(self._values, self._index, out=out)
        np.bincount(self._index, weights=out, minlength=_ARRAY)

    def sample(self) -> None:
        """Take one burst: an untimed pass, then two timed ones."""
        enabled = gc.isenabled()
        gc.disable()
        try:
            self._kernel()
            t0 = perf_counter()
            self._kernel()
            self._kernel()
            self.bursts.append(perf_counter() - t0)
        finally:
            if enabled:
                gc.enable()

    def mark(self) -> int:
        """Bursts taken so far: a wall timed now lies between bursts
        ``mark() - 1`` and ``mark()``."""
        return len(self.bursts)

    def scaled(self, walls: list[float], marks: list[int]) -> list[float]:
        """Each wall in seconds at the nominal host speed, by the mean of
        the bursts just before and just after it."""
        bursts = self.bursts
        return [
            wall * 2.0 * NOMINAL_S / (bursts[k - 1] + bursts[k])
            for wall, k in zip(walls, marks, strict=True)
        ]

    @property
    def burst_s(self) -> float:
        """Median burst of the run."""
        return statistics.median(self.bursts)
