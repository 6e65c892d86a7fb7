"""E12 -- dynamic maintenance: quality and cost vs churn rate.

Drives a :class:`repro.core.MaintenanceSession` with the registered
mobility samplers (random waypoint, convoy, flocking) at increasing
churn rates and measures what local repair costs and what it gives up
relative to the static pipeline.  Shape:

* after every churn epoch the maintained spanner still satisfies the
  tested stretch bound over the maintained base graph (the invariant
  :meth:`MaintenanceSession.verify` certifies);
* the **zero-churn row is pinned bit-equal to the static build** --
  same base edge table, same spanner edge table, float weights
  included -- so the dynamic engine provably adds nothing when nothing
  moves;
* per-event repair cost (milliseconds) and the amortized speedup over
  a from-scratch rebuild are recorded per row, alongside the spanner
  size ratio against the rebuilt reference (quality drift);
* every churn row runs under both application modes -- ``batch=event``
  (repair after every move) and ``batch=epoch`` (one coalesced repair
  per mobility epoch) -- with per-phase millisecond splits (cover /
  promotion / redundancy / certification) from the session's repair
  reports, so the amortization the epoch path buys is a column, not a
  claim;
* a **long-horizon sweep** follows local repair over >= 500 events,
  checkpointing ``edges_ratio``, the symmetric-difference ``drift``
  against a canonical rebuild, and the certified stretch; the tested
  stretch bound must hold at *every* checkpoint (the bound never
  degrades with horizon -- certification re-establishes it each
  epoch), while drift is measured, not assumed;
* every churning row must have repaired locally at least once
  (``resyncs < events``): a row where every event escalated to a
  rebuild never ran the repair pipeline it claims to measure, so the
  default sizes are large enough for dirty balls to stay under the
  resync fraction.

``repro sweep --experiments E12`` re-verifies the claim across the
deployment grid (the ``scenarios``/``sizes`` kwargs plug into the
sweep driver's cell overrides).
"""

from __future__ import annotations

import time

from ..core.maintenance import MaintenanceSession
from .runner import ExperimentResult, register, stopwatch
from .workloads import make_mobility, make_workload, mobility_names

__all__ = ["run"]


def _quality_columns(session, ref) -> dict[str, object]:
    """Spanner-size and edge-set drift columns vs a rebuilt reference."""
    maintained = {(u, v) for u, v, _ in session.spanner.edges()}
    canonical = {(u, v) for u, v, _ in ref.spanner.edges()}
    sym = len(maintained ^ canonical)
    return {
        "spanner_edges": session.spanner.num_edges,
        "edges_ratio": round(
            session.spanner.num_edges / max(ref.spanner.num_edges, 1), 4
        ),
        "drift": round(sym / max(len(canonical), 1), 4),
        "max_degree": session.spanner.max_degree(),
    }


def _phase_columns(stats: dict[str, float]) -> dict[str, float]:
    """Per-phase wall splits in milliseconds, straight from stats()."""
    return {
        "cover_ms": round(1e3 * stats["cover_s"], 3),
        "promotion_ms": round(1e3 * stats["promotion_s"], 3),
        "redundancy_ms": round(1e3 * stats["redundancy_s"], 3),
        "certification_ms": round(1e3 * stats["certification_s"], 3),
    }


@register("E12")
def run(
    quick: bool = False,
    seed: int = 0,
    *,
    scenarios: tuple[str, ...] | None = None,
    sizes: tuple[int, ...] | None = None,
    churn_rates: tuple[float, ...] | None = None,
    mobility: tuple[str, ...] | None = None,
    epochs: int | None = None,
    horizon: int | None = None,
) -> ExperimentResult:
    """Execute E12.

    ``scenarios``/``sizes`` override the workload cell (the sweep
    driver passes one cell at a time); ``churn_rates`` is the fraction
    of nodes moving per epoch (0.0 = the pinned static anchor);
    ``mobility`` restricts the mobility models driving the churn;
    ``horizon`` is the minimum event count of the long-horizon drift
    sweep (default 500, or 60 under ``quick``).
    """
    n = sizes[0] if sizes else (400 if quick else 800)
    scenario = scenarios[0] if scenarios else "uniform"
    rates = tuple(churn_rates) if churn_rates else (
        (0.0, 0.02, 0.1) if quick else (0.0, 0.01, 0.02, 0.05, 0.1)
    )
    models = tuple(mobility) if mobility else (
        ("random_waypoint",) if quick else mobility_names()
    )
    num_epochs = epochs if epochs is not None else (3 if quick else 6)
    min_horizon = horizon if horizon is not None else (60 if quick else 500)
    eps = 0.5

    workload = make_workload(scenario, n, seed=seed + 12)
    coords = workload.points.coords

    # One static-pipeline cost anchor per cell: what a from-scratch
    # rebuild of this workload's spanner costs (the thing every event
    # would pay without the maintenance engine).
    t0 = time.perf_counter()
    probe = MaintenanceSession(workload.points, eps)
    rebuild_s = time.perf_counter() - t0

    result = ExperimentResult(
        experiment="E12",
        claim=(
            "incremental maintenance: local repair keeps the stretch "
            "bound under mobility churn at any horizon; zero churn is "
            "bit-equal to the static build"
        ),
        notes=(
            "mobility samplers -> MaintenanceSession event epochs; "
            "speedup = rebuild cost / mean per-event repair cost; "
            "batch=epoch coalesces one mobility step per repair; "
            "drift = |maintained XOR rebuilt| / |rebuilt| edge sets"
        ),
    )
    del probe
    for model_name in models:
        for rate in rates:
            batches = ("event",) if rate == 0.0 else ("event", "epoch")
            for batch in batches:
                row = {
                    "scenario": scenario,
                    "n": n,
                    "mobility": model_name,
                    "churn": rate,
                    "batch": batch,
                }
                ok = True
                with stopwatch(row):
                    session = MaintenanceSession(workload.points, eps)
                    if rate > 0.0:
                        model = make_mobility(
                            model_name, coords, seed=seed + 34, speed=0.25
                        )
                        events = [
                            ev
                            for epoch in range(num_epochs)
                            for ev in model.step_events(
                                rate, time=float(epoch)
                            )
                        ]
                        session.apply_stream(events, batch=batch)
                    check = session.verify()
                    stats = session.stats()
                    _, ref = session.rebuild_reference()
                ok &= check["ok"]
                if stats["events"]:
                    ok &= stats["resyncs"] < stats["events"]
                row.update(
                    events=stats["events"],
                    epochs=stats["epochs"],
                    dirty_balls=stats["dirty_balls"],
                    repaired_edges=stats["repaired_edges"],
                    resyncs=stats["resyncs"],
                    event_ms=round(1e3 * stats["mean_wall_s"], 3),
                    rebuild_ms=round(1e3 * rebuild_s, 3),
                    speedup=round(
                        rebuild_s / max(stats["mean_wall_s"], 1e-9), 2
                    )
                    if stats["events"]
                    else None,
                    stretch_ok=check["ok"],
                    **_phase_columns(stats),
                    **_quality_columns(session, ref),
                )
                if rate == 0.0:
                    # The anchor row: an event-free session must be the
                    # static pipeline, bit for bit.
                    static_equal = sorted(
                        session.spanner.edges()
                    ) == sorted(ref.spanner.edges()) and sorted(
                        session.graph.edges()
                    ) == sorted(workload.graph.edges())
                    row["static_equal"] = static_equal
                    ok &= static_equal
                result.rows.append(row)
                result.passed &= ok

    # Long-horizon drift bound: follow repair="local" for >= min_horizon
    # events and checkpoint quality along the way.  The certified
    # stretch bound must hold at every checkpoint -- local repair's
    # certification sweep re-establishes it per epoch, so horizon
    # length cannot erode it -- while edges_ratio and drift quantify
    # how far the maintained edge set wanders from the canonical
    # rebuild (ROADMAP 1(a)).
    h_rate = 0.05
    h_model = models[0]
    session = MaintenanceSession(workload.points, eps)
    model = make_mobility(h_model, coords, seed=seed + 56, speed=0.25)
    applied = 0
    epoch = 0
    checkpoints = 4 if quick else 5
    per_epoch = max(1, int(round(h_rate * n)))
    total_epochs = max(1, -(-min_horizon // per_epoch))
    every = max(1, total_epochs // checkpoints)
    while applied < min_horizon:
        reports = session.apply_epoch(
            model.step_events(h_rate, time=float(epoch))
        )
        applied += len(reports)
        epoch += 1
        if epoch % every == 0 or applied >= min_horizon:
            check = session.verify()
            stats = session.stats()
            _, ref = session.rebuild_reference()
            row = {
                "scenario": scenario,
                "n": n,
                "mobility": h_model,
                "churn": h_rate,
                "batch": "epoch",
                "horizon": applied,
                "events": stats["events"],
                "epochs": stats["epochs"],
                "resyncs": stats["resyncs"],
                "event_ms": round(1e3 * stats["mean_wall_s"], 3),
                "stretch": round(float(check["stretch"]), 6),
                "stretch_ok": check["ok"],
                **_quality_columns(session, ref),
            }
            result.rows.append(row)
            result.passed &= check["ok"]
            result.passed &= stats["resyncs"] < stats["events"]
    return result
