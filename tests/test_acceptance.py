"""Acceptance gate: eight go/no-go checks, one test per criterion.

Run with `pytest tests/test_acceptance.py -v`; the verdict line per test is
the pass/fail line per criterion. Each test also prints a bracketed summary
of the measured values (visible with -s or on failure).
"""
from __future__ import annotations

import dataclasses
import math
import time
from datetime import datetime, timezone

import numpy as np
import pytest

from helpers import (
    conventional_hourly_model,
    duck_day_series,
    random_day_series,
    random_small_instance,
    rows_as_maps,
    two_unit_fixture,
)
from oracle import brute_force_solve, objective_terms
from tauc.aggregation import HiResSeries, cluster_adjacent, normalize_features
from tauc.ingestion import LoadedTrace, build_portfolio, illustrative_case
from tauc.model import (
    ThermalUnit,
    build_uc_model,
    effective_min_times,
    effective_ramp_limits,
)
from tauc.simulation import (
    MODE_CH,
    MODE_TA,
    PowerSystem,
    compare_day,
    day_ahead_grid,
    fix_from_plan,
    generation_shares,
    run_day_ahead,
    run_real_time,
    run_rolling_horizon,
)
from tauc.solver import solve

REL_TOL = 1e-6


def note(message: str) -> None:
    print(f"[acceptance] {message}")


def run_mode(system: PowerSystem, series: HiResSeries, mode: str):
    plan = run_day_ahead(system, series, mode)
    fixings = fix_from_plan(plan, system.units, series.n_points)
    return run_real_time(system, series, fixings)


def test_criterion_1_illustrative_golden_costs():
    system, series = illustrative_case()
    t0 = time.perf_counter()
    rt_ch = run_mode(system, series, MODE_CH)
    rt_ta = run_mode(system, series, MODE_TA)
    elapsed = time.perf_counter() - t0
    assert abs(rt_ch.cost - 18500.0) <= REL_TOL * 18500.0
    assert abs(rt_ta.cost - 11500.0) <= REL_TOL * 11500.0
    delta = 100.0 * (rt_ch.cost - rt_ta.cost) / rt_ch.cost
    assert round(delta, 2) == 37.84
    assert elapsed < 5.0
    note(
        f"criterion 1 PASS: CH {rt_ch.cost:.2f}, TA {rt_ta.cost:.2f}, "
        f"delta {delta:.2f}%, {elapsed:.2f}s"
    )


def test_criterion_2_clustering_partition():
    system, series = illustrative_case()
    feats = normalize_features(series, "net_demand_only", 0.0, system.solar_capacity)
    grid = cluster_adjacent(feats, 3, series.step_minutes)
    assert grid.cluster_bounds == ((0, 4), (4, 5), (5, 6))
    np.testing.assert_allclose(grid.durations, [2.0, 0.5, 0.5])
    note(f"criterion 2 PASS: partition {grid.cluster_bounds}")


def test_criterion_3_oracle_equivalence_sweep():
    rng = np.random.default_rng(18)
    t0 = time.perf_counter()
    optimal = infeasible = 0
    for _ in range(50):
        model = build_uc_model(*random_small_instance(rng))
        exact = brute_force_solve(model)
        got = solve(model)
        assert got.status == exact.status, f"{got.status} vs {exact.status}"
        if exact.status == "optimal":
            optimal += 1
            scale = max(1.0, abs(exact.objective))
            assert abs(got.objective - exact.objective) <= REL_TOL * scale
        else:
            infeasible += 1
    elapsed = time.perf_counter() - t0
    assert elapsed < 60.0
    assert optimal >= 25
    note(
        f"criterion 3 PASS: 50 instances ({optimal} optimal, {infeasible} infeasible) "
        f"agree within 1e-6 in {elapsed:.1f}s"
    )


def test_criterion_4_hourly_degeneration_structural_identity():
    system, periods = two_unit_fixture()
    model = build_uc_model(system, periods)
    want_rows, want_obj = conventional_hourly_model(system, periods)
    got_rows = rows_as_maps(model)
    assert got_rows == want_rows
    assert objective_terms(model) == pytest.approx(want_obj)
    note(
        f"criterion 4 PASS: {len(got_rows)} constraint rows identical to the "
        "independent hourly builder"
    )


def test_criterion_5_effective_parameter_table():
    units = {u.unit_id: u for u in build_portfolio("study13")}
    n = 24
    for d in (0.5, 1.0, 2.0, 3.0):
        durations = [d] * n
        for unit in units.values():
            ru, rd, su, sd = effective_ramp_limits(unit, durations)
            want_ru = min(unit.pmax, max(unit.pmin, unit.ramp_up * d))
            want_sd = min(unit.pmax, max(unit.pmin, max(unit.pmin, unit.ramp_down) * d))
            np.testing.assert_allclose(ru, want_ru, rtol=1e-12)
            np.testing.assert_allclose(sd, want_sd, rtol=1e-12)
            ut_init, ut_counts, dt_init, dt_counts = effective_min_times(unit, durations)
            if unit.min_up <= 0:
                assert not ut_counts.any()
            else:
                k_min = math.ceil(unit.min_up / d - 1e-9)
                expected = np.minimum(k_min, n - np.arange(n))
                np.testing.assert_array_equal(ut_counts, expected)
            assert ut_init == 0 and dt_init == 0
            np.testing.assert_array_equal(dt_counts, ut_counts)

    g1 = units["g1"]
    assert effective_ramp_limits(g1, [1.0] * 6)[0][3] == 200.0
    assert effective_ramp_limits(g1, [3.0] * 6)[0][3] == 360.0
    assert effective_min_times(units["g2"], [1.0] * 24)[1][5] == 9
    assert effective_min_times(units["g5"], [0.5] * 24)[1][5] == 10
    mixed_ru = effective_ramp_limits(g1, [0.5, 1.0, 2.0, 3.0])[0]
    np.testing.assert_allclose(mixed_ru, [200.0, 200.0, 200.0, 300.0])
    note(
        "criterion 5 PASS: hat ramps and min-time counts match hand-computed "
        "values on d in {0.5, 1, 2, 3}"
    )


def test_criterion_6_property_suite_on_random_days():
    system, _ = illustrative_case()
    worst_balance = 0.0
    worst_closure = 0.0
    for seed in range(20):
        rng = np.random.default_rng(seed)
        day = random_day_series(rng, step_minutes=60)
        free = run_real_time(system, day, None)
        for mode in (MODE_CH, MODE_TA):
            plan = run_day_ahead(system, day, mode)
            assert abs(float(plan.grid.durations.sum()) - day.horizon_hours) <= 1e-9
            fixed = run_real_time(system, day, fix_from_plan(plan, system.units, day.n_points))
            sched = fixed.schedule
            residual = np.max(
                np.abs(sched.dispatch.sum(axis=0) + sched.p_wind + sched.p_solar + sched.shed - day.demand)
            )
            worst_balance = max(worst_balance, float(residual))
            assert residual <= 1e-6
            closure = abs(sum(generation_shares(fixed, system).values()) - 100.0)
            worst_closure = max(worst_closure, closure)
            assert closure <= 1e-6
            assert fixed.cost >= free.cost - 1e-6 * max(1.0, abs(free.cost))
    note(
        f"criterion 6 PASS: 20 days, worst balance residual {worst_balance:.2e} MW, "
        f"worst share closure {worst_closure:.2e}"
    )


def test_criterion_7_duck_curve_directional():
    system, _ = illustrative_case()
    duck = duck_day_series(step_minutes=30)
    duck_report, _, _ = compare_day(system, duck, "duck")
    assert duck_report.c_ta < duck_report.c_ch

    n = 48
    t = np.arange(n) * 0.5
    smooth = HiResSeries(
        demand=500.0 + 15.0 * np.sin(2 * np.pi * t / 24.0),
        wind_cf=np.full(n, 0.4),
        solar_cf=np.zeros(n),
        step_minutes=30,
    )
    windy = PowerSystem(system.units, wind_capacity=200.0, solar_capacity=0.0, load_shed_cost=100.0)
    smooth_report, _, _ = compare_day(windy, smooth, "smooth")
    assert abs(smooth_report.delta_pct) < 0.1
    note(
        f"criterion 7 PASS: duck delta {duck_report.delta_pct:.2f}% (TA cheaper), "
        f"smooth delta {smooth_report.delta_pct:.4f}% (|.| < 0.1)"
    )


def chaining_portfolio() -> tuple[ThermalUnit, ...]:
    return (
        ThermalUnit("c1", "base", 300.0, 700.0, 22.0, ramp_up=250.0, ramp_down=250.0,
                    min_up=6.0, min_down=6.0, u0=1, hours0=24.0, p0=500.0),
        ThermalUnit("c2", "base", 200.0, 500.0, 25.0, ramp_up=200.0, ramp_down=200.0,
                    min_up=5.0, min_down=5.0, u0=1, hours0=24.0, p0=300.0),
        ThermalUnit("m1", "medium", 80.0, 300.0, 48.0, ramp_up=150.0, ramp_down=150.0,
                    min_up=3.0, min_down=3.0),
        ThermalUnit("m2", "medium", 60.0, 250.0, 52.0, ramp_up=120.0, ramp_down=120.0,
                    min_up=2.5, min_down=2.5),
        ThermalUnit("p1", "peak", 0.0, 150.0, 80.0),
        ThermalUnit("p2", "peak", 0.0, 120.0, 85.0),
    )


def seven_day_trace(step_minutes: int = 60) -> LoadedTrace:
    rng = np.random.default_rng(20230601)
    per_day = 24 * 60 // step_minutes
    chunks = []
    for k in range(7):
        t = np.arange(per_day) * step_minutes / 60.0
        wave = 1000.0 + 450.0 * np.sin(2 * np.pi * (t - 5.0 - k) / 24.0)
        chunks.append(np.clip(wave + rng.normal(0.0, 50.0, per_day), 150.0, None))
    n = 7 * per_day
    hour_of_day = (np.arange(n) * step_minutes / 60.0) % 24.0
    solar = np.clip(np.sin(np.pi * (hour_of_day - 6.0) / 12.0), 0.0, 1.0) * rng.uniform(0.5, 1.0, n)
    series = HiResSeries(
        demand=np.concatenate(chunks),
        wind_cf=np.zeros(n),
        solar_cf=solar,
        step_minutes=step_minutes,
    )
    return LoadedTrace(series=series, start=datetime(2023, 6, 1, tzinfo=timezone.utc))


def streak_from_schedule(row: np.ndarray, step_minutes: int) -> tuple[int, float]:
    """Length in hours of the trailing constant-commitment run, capped at 24."""
    u_end = int(row[-1])
    k = 1
    while k < len(row) and row[-1 - k] == u_end:
        k += 1
    return u_end, min(k * step_minutes / 60.0, 24.0)


def test_criterion_8_rolling_horizon_chaining():
    trace = seven_day_trace(step_minutes=60)
    series = trace.series
    step = series.step_minutes
    per_day = 24 * 60 // step
    lookahead = 8 * 60 // step
    system = PowerSystem(chaining_portfolio(), 0.0, 600.0, 10000.0)

    # manual day loop mirroring the rolling engine, checking the handoff at
    # every midnight against an independent streak computation
    units = {MODE_CH: system.units, MODE_TA: system.units}
    manual_costs = {MODE_CH: [], MODE_TA: []}
    for day in range(7):
        a = day * per_day
        b = min(a + per_day + lookahead, series.n_points)
        b -= (b - a - per_day) % (60 // step)
        window = HiResSeries(
            demand=series.demand[a:b],
            wind_cf=series.wind_cf[a:b],
            solar_cf=series.solar_cf[a:b],
            step_minutes=step,
        )
        for mode in (MODE_CH, MODE_TA):
            day_system = dataclasses.replace(system, units=units[mode])
            plan = run_day_ahead(day_system, window, mode)
            rt = run_real_time(
                day_system, window, fix_from_plan(plan, day_system.units, window.n_points)
            )
            manual_costs[mode].append(rt.cost)
            assert rt.schedule.commitment.shape[1] == per_day
            next_units = rt.next_units
            for i, unit in enumerate(units[mode]):
                u_end, hours = streak_from_schedule(rt.schedule.commitment[i], step)
                handed = next_units[i]
                assert handed.u0 == u_end
                assert handed.hours0 == pytest.approx(hours, abs=1e-9)
                if u_end:
                    assert handed.p0 == pytest.approx(rt.schedule.dispatch[i, -1], abs=1e-6)
                else:
                    assert handed.p0 == 0.0
            units[mode] = next_units

    reports = run_rolling_horizon(system, trace, lookahead_hours=8.0)
    assert len(reports) == 7
    assert all(not r.warning for r in reports)
    for day, report in enumerate(reports):
        assert report.c_ch == pytest.approx(manual_costs[MODE_CH][day], rel=1e-9)
        assert report.c_ta == pytest.approx(manual_costs[MODE_TA][day], rel=1e-9)
    note(
        "criterion 8 PASS: 7-day roll complete, terminal/initial handoff "
        "consistent at every midnight in both modes"
    )
