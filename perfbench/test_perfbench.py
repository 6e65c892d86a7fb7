"""Smoke test of the benchmark at tiny sizes.

Proves that every workload emits every metric ``BENCHMARK.json`` names,
in both modes, and that each correctness check rejects a deliberately
broken output.  Run with::

    PYTHONPATH=src python -m pytest perfbench -q
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
import time
from dataclasses import replace
from pathlib import Path
from types import SimpleNamespace

import numpy as np
import pytest

ROOT = Path(__file__).resolve().parent.parent
if str(ROOT / "src") not in sys.path:
    sys.path.insert(0, str(ROOT / "src"))

from perfbench import bench, checks, hostspeed, run  # noqa: E402
from perfbench.tracer import Recorder  # noqa: E402
from repro.core import MaintenanceSession, RelaxedGreedySpanner  # noqa: E402
from repro.core import maintenance  # noqa: E402
from repro.distributed.unreliable import run_luby_mis_event  # noqa: E402
from repro.experiments.failures import fault_scenario  # noqa: E402
from repro.geometry.sampling import uniform_points  # noqa: E402
from repro.graphs.build import build_udg  # noqa: E402
from repro.params import SpannerParams  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


def _tiny(w: bench.Workload) -> bench.Workload:
    return replace(
        w, n=200, build_n=150, lossy_n=120, mixed_chunk=2, flock_fraction=0.05,
        rounds=1,
    )


def _run(monkeypatch, capsys, name: str, trace: int) -> dict:
    monkeypatch.setitem(bench.WORKLOADS, name, _tiny(bench.WORKLOADS[name]))
    code = run.main(
        ["--workload", name, "--seed", "5", "--seconds", "0.1",
         "--trace", str(trace)]
    )
    assert code == 0
    return json.loads(capsys.readouterr().out.strip().splitlines()[-1])


def test_spec_matches_the_code():
    assert {w["name"] for w in SPEC["workloads"]} == set(bench.WORKLOADS)
    assert {m["name"]: m["unit"] for m in SPEC["end_to_end"]} == bench.END_TO_END
    assert {
        m["name"]: (m["unit"], m["better"]) for m in SPEC["per_layer"]
    } == bench.PER_LAYER


def test_predictions_name_real_layers_and_metrics():
    predictions = json.loads((ROOT / "perfbench" / "predictions.json").read_text())
    assert set(predictions["workloads"]) == set(bench.WORKLOADS)
    for entry in predictions["predictions"]:
        assert all(f"{layer}.s" in bench.PER_LAYER for layer in entry["layers"])
        named = entry["moves"] + entry["not"]
        assert set(named) <= set(bench.END_TO_END)
        assert not set(entry["moves"]) & set(entry["not"])


@pytest.mark.parametrize("name", sorted(bench.WORKLOADS))
@pytest.mark.parametrize("trace", [0, 1])
def test_every_metric_is_emitted(monkeypatch, capsys, name, trace):
    result = _run(monkeypatch, capsys, name, trace)
    spec = SPEC["per_layer" if trace else "end_to_end"]
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True and result["failed"] == 0
    assert result["attempted"] >= 1
    assert {
        name: value["unit"] for name, value in result["metrics"].items()
    } == {m["name"]: m["unit"] for m in spec}
    if not trace:
        assert all(v["value"] != 0 for v in result["metrics"].values())


def test_without_program_sources_no_result(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(
        ROOT / "perfbench", tmp_path / "perfbench",
        ignore=shutil.ignore_patterns("__pycache__"),
    )
    done = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "udg", "--seed",
         "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=120,
    )
    assert done.returncode != 0
    assert '"correct"' not in done.stdout


def test_each_wall_is_scaled_by_the_bursts_around_it():
    speed = hostspeed.HostSpeed()
    speed.bursts = [0.01, 0.03, 0.02]
    nominal = hostspeed.NOMINAL_S
    assert speed.scaled([2.0, 1.0], [1, 2]) == pytest.approx(
        [2.0 * nominal / 0.02, 1.0 * nominal / 0.025]
    )
    speed.sample()
    assert len(speed.bursts) == 4 and speed.bursts[-1] > 0
    with pytest.raises(ValueError):
        speed.scaled([1.0], [])


@pytest.fixture(scope="module")
def instance():
    pts = uniform_points(150, expected_degree=8.0, seed=3)
    graph = build_udg(pts)
    params = SpannerParams.from_epsilon(0.5)
    return graph, params, RelaxedGreedySpanner(params).build(graph, pts.distance)


def _copy(graph, drop=None):
    out = type(graph)(graph.num_vertices)
    for u, v, w in graph.edges():
        if drop is None or {u, v} != set(drop):
            out.add_edge(u, v, w)
    return out


def _leaf_edge(spanner):
    leaf = next(u for u in range(spanner.num_vertices) if spanner.degree(u) == 1)
    return leaf, next(iter(spanner.neighbors(leaf)))


def test_stretch_check_rejects_a_missing_edge(instance):
    graph, params, result = instance
    assert checks.stretch_fault(graph, result.spanner, params.t) is None
    broken = _copy(result.spanner, drop=_leaf_edge(result.spanner))
    assert checks.stretch_fault(graph, broken, params.t) is not None


def test_stretch_check_rejects_a_non_base_edge(instance):
    graph, params, result = instance
    broken = _copy(result.spanner)
    u = 0
    v = next(x for x in range(1, graph.num_vertices) if not graph.has_edge(u, x))
    broken.add_edge(u, v, 1.0)
    assert checks.stretch_fault(graph, broken, params.t) is not None


def test_same_build_check(instance):
    _, _, result = instance
    ref = SimpleNamespace(spanner=result.spanner, total_rounds=40)
    assert checks.same_build_fault(ref, ref) is None
    fewer = SimpleNamespace(
        spanner=_copy(result.spanner, drop=_leaf_edge(result.spanner)),
        total_rounds=40,
    )
    assert checks.same_build_fault(ref, fewer) is not None
    slower = SimpleNamespace(spanner=result.spanner, total_rounds=41)
    assert checks.same_build_fault(ref, slower) is not None


def test_mis_check_rejects_adjacent_and_uncovered(instance):
    graph = instance[0]
    mis = run_luby_mis_event(graph, seed=1, plan=fault_scenario("lossy").plan(2))
    chosen = set(mis.independent_set)
    assert checks.mis_fault(graph, mis.alive, chosen) is None
    u = next(iter(chosen))
    v = next(iter(graph.neighbors(u)))
    assert checks.mis_fault(graph, mis.alive, chosen | {v}) is not None
    assert checks.mis_fault(graph, mis.alive, chosen - {u}) is not None


def test_same_counts_check():
    def fake(messages, retrans):
        return SimpleNamespace(
            result=SimpleNamespace(messages=messages, retransmissions=retrans)
        )

    assert checks.same_counts_fault([fake(10, 3), fake(10, 3)]) is None
    assert checks.same_counts_fault([fake(10, 3), fake(10, 4)]) is not None
    assert checks.same_counts_fault([fake(10, 3), fake(11, 3)]) is not None


def test_session_checks_reject_broken_sessions():
    pts = uniform_points(150, expected_degree=8.0, seed=4)
    session = MaintenanceSession(pts, 0.5)
    t = session.params.t
    assert checks.verify_fault(session.verify()) is None
    assert checks.stretch_fault(session.graph, session.spanner, t) is None
    assert checks.audit_fault(session.cover_cache_audit()) is None
    session.spanner.remove_edge(*_leaf_edge(session.spanner))
    assert checks.verify_fault(session.verify()) is not None
    assert checks.stretch_fault(session.graph, session.spanner, t) is not None
    assert checks.audit_fault([(1, 7, 3, 0.5, 0.625)]) is not None


def test_checkpoint_does_not_rest_on_the_program(monkeypatch):
    """A distance kernel that reports paths too short blinds the
    session's own ``verify()``, but not the benchmark's checkpoint."""
    inputs, sessions, _ = bench.set_up(_tiny(bench.WORKLOADS["udg"]), 5, 2)
    tally = bench.Tally()
    run_ = bench.Run(inputs, sessions, tally)
    run_.end_round()
    assert tally.failed == 0
    spanner = run_.mixed.session.spanner
    spanner.remove_edge(*_leaf_edge(spanner))
    monkeypatch.setattr(
        maintenance, "pair_distances",
        lambda graph, us, vs, cutoff=None: np.zeros(len(us)),
    )
    assert run_.mixed.session.verify()["ok"]
    run_.end_round()
    assert tally.failed == 1
    assert "mixed checkpoint: stretch" in tally.failures[0]


PREDICTED = {"predictions": [{"layers": ["static.core.cover"]}]}
ROOT_SPAN = "static.core.relaxed_greedy.self"


def _timed(rec, work, outside_s=0.0):
    """Wall of one root span around ``work``, as the benchmark times it,
    plus ``outside_s`` of work that no span covers."""
    t0 = time.perf_counter()
    with rec.root(ROOT_SPAN):
        work()
    if outside_s:
        time.sleep(outside_s)
    return time.perf_counter() - t0


def test_layer_table_accepts_a_covered_wall():
    rec = Recorder()
    work = rec.wrap("static.core.cover", lambda: time.sleep(0.02))
    wall = _timed(rec, work)
    table = bench.layer_table(rec, {"static": wall}, PREDICTED)
    assert not table["errors"] and not table["flags"]
    child = rec.layers["static.core.cover"].self_s
    assert 0.0 < child <= rec.layers[ROOT_SPAN].self_s + child <= wall


def test_layer_table_rejects_unattributed_and_double_counted_time():
    rec = Recorder()
    work = rec.wrap("static.core.cover", lambda: time.sleep(0.02))
    wall = _timed(rec, work, outside_s=0.02)
    table = bench.layer_table(rec, {"static": wall}, PREDICTED)
    assert any("timed wall" in e for e in table["errors"])
    table = bench.layer_table(rec, {"static": wall / 4}, PREDICTED)
    assert any("timed wall" in e for e in table["errors"])


def test_layer_table_flags_idle_and_unrooted_layers():
    rec = Recorder()
    work = rec.wrap("static.core.cover", lambda: None)
    work()
    table = bench.layer_table(rec, {}, PREDICTED)
    assert any("zero calls" in f for f in table["flags"])
    assert any("no root span" in f for f in table["flags"])
    assert not table["errors"]
