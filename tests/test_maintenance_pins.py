"""Bit-equality pins of local churn repair.

``tests/fixtures/maintenance_pins.json`` records, for two n=400
instances (UDG and alpha=0.5 Bernoulli quasi-UBG), what
``MaintenanceSession(repair="local")`` did on two seeded streams: 150
single ``apply`` events (insert / delete / move in equal shares) and 10
flocking ``apply_epoch`` epochs.  After every event (every epoch) the
record holds a SHA-256 of the sorted spanner edges with their weights
plus each repair report's ``added_edges``, ``removed_edges`` and
``resync``.  At this size every event repairs locally (no resync), so
the pins cover the promotion, redundancy and certification phases.
Speed work on the repair pipeline must reproduce these records exactly;
the fixture is never rewritten to follow a change in output.

Regenerate (only when an output change is intended and reviewed)::

    PYTHONPATH=src python tests/test_maintenance_pins.py
"""

from __future__ import annotations

import functools
import hashlib
import json
import math
import re
import sys
from pathlib import Path

import numpy as np
import pytest

from repro.core.maintenance import MaintenanceEvent, MaintenanceSession
from repro.experiments.workloads import make_mobility
from repro.geometry.sampling import uniform_points
from repro.graphs.build import BernoulliPolicy

FIXTURE = Path(__file__).parent / "fixtures" / "maintenance_pins.json"

#: name -> (alpha, point seed)
INSTANCES = {"udg": (1.0, 401), "qubg": (0.5, 402)}
N = 400
EPSILON = 0.5
DEGREE = 8.0
MIXED_EVENTS = 150
FLOCK_EPOCHS = 10
FLOCK_FRACTION = 0.05
KINDS = ("insert", "delete", "move")


def _session(inst: str) -> tuple[MaintenanceSession, np.ndarray]:
    alpha, seed = INSTANCES[inst]
    points = uniform_points(N, expected_degree=DEGREE, seed=seed)
    policy = BernoulliPolicy(0.5, seed=seed) if alpha < 1.0 else None
    session = MaintenanceSession(points, EPSILON, alpha=alpha, policy=policy)
    return session, points.coords


def _edges_sha256(spanner) -> str:
    lines = sorted(
        f"{min(u, v)} {max(u, v)} {w!r}\n" for u, v, w in spanner.edges()
    )
    return hashlib.sha256("".join(lines).encode()).hexdigest()


def _step(session, reports) -> list:
    return [
        _edges_sha256(session.spanner),
        [[r.added_edges, r.removed_edges, r.resync] for r in reports],
    ]


def _mixed_event(kind, session, rng, lo, hi) -> MaintenanceEvent:
    if kind == "insert":
        pos = rng.uniform(lo, hi)
        return MaintenanceEvent("insert", pos=tuple(pos.tolist()))
    node = int(rng.choice(session.alive_nodes()))
    if kind == "delete":
        return MaintenanceEvent("delete", node=node)
    angle = rng.uniform(0.0, 2.0 * math.pi)
    radius = math.sqrt(rng.uniform())
    step = radius * np.array([math.cos(angle), math.sin(angle)])
    pos = np.clip(session.position(node) + step, lo, hi)
    return MaintenanceEvent("move", node=node, pos=tuple(pos.tolist()))


def mixed(inst: str) -> list:
    """One record per single-event ``apply``."""
    session, coords = _session(inst)
    rng = np.random.default_rng(INSTANCES[inst][1] + 1000)
    lo, hi = coords.min(axis=0), coords.max(axis=0)
    out = []
    for i in range(MIXED_EVENTS):
        if i % len(KINDS) == 0:
            kinds = [KINDS[k] for k in rng.permutation(len(KINDS))]
        event = _mixed_event(kinds[i % len(KINDS)], session, rng, lo, hi)
        out.append(_step(session, [session.apply(event)]))
    return out


def flock(inst: str) -> list:
    """One record per flocking ``apply_epoch``."""
    session, coords = _session(inst)
    model = make_mobility("flocking", coords, seed=INSTANCES[inst][1] + 2000)
    out = []
    for epoch in range(FLOCK_EPOCHS):
        events = model.step_events(FLOCK_FRACTION, time=float(epoch))
        out.append(_step(session, session.apply_epoch(events)))
    return out


STREAMS = {"mixed": mixed, "flock": flock}


def compute(inst: str, stream: str) -> list:
    # A JSON round trip so tuples compare as the fixture does.
    return json.loads(json.dumps(STREAMS[stream](inst)))


@functools.lru_cache(maxsize=None)
def _fixture() -> dict:
    return json.loads(FIXTURE.read_text())


@pytest.mark.parametrize("stream", sorted(STREAMS))
@pytest.mark.parametrize("inst", sorted(INSTANCES))
def test_stream_matches_pin(inst, stream):
    pinned = _fixture()[inst][stream]
    got = compute(inst, stream)
    assert len(got) == len(pinned)
    for i, (a, b) in enumerate(zip(got, pinned)):
        assert a == b, f"{inst}/{stream}: step {i} differs"


def test_fixture_repairs_locally():
    """The pinned streams never escalate, so every step pins the local
    repair phases rather than a rebuild."""
    assert set(_fixture()) == set(INSTANCES)
    for inst in INSTANCES:
        assert set(_fixture()[inst]) == set(STREAMS)
        assert len(_fixture()[inst]["mixed"]) == MIXED_EVENTS
        assert len(_fixture()[inst]["flock"]) == FLOCK_EPOCHS
        for stream in STREAMS:
            for _, reports in _fixture()[inst][stream]:
                assert not any(resync for _, _, resync in reports)


if __name__ == "__main__":
    data = {
        inst: {stream: compute(inst, stream) for stream in sorted(STREAMS)}
        for inst in sorted(INSTANCES)
    }
    text = json.dumps(data, indent=1, sort_keys=True)
    # One line per step: collapse the innermost report triples.
    text = re.sub(
        r"\[[^\[\]{}]*\]", lambda m: re.sub(r"\s+", "", m.group()), text
    )
    FIXTURE.parent.mkdir(exist_ok=True)
    FIXTURE.write_text(text + "\n")
    sys.stdout.write(f"wrote {FIXTURE}\n")
