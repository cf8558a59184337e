"""Tests for day-ahead planning, fixed real-time operation and rolling runs."""
from __future__ import annotations

import dataclasses
import math
from datetime import datetime, timezone

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from helpers import duck_day_series, flat_day_series, random_day_series
from oracle import brute_force_solve
from test_acceptance import chaining_portfolio, seven_day_trace
from tauc import simulation
from tauc.aggregation import HiResSeries, reduce_series, singleton_grid, normalize_features
from tauc.ingestion import LoadedTrace, illustrative_case
from tauc.model import PowerSystem, build_uc_model
from tauc.simulation import (
    CSV_COLUMNS,
    MODE_CH,
    MODE_TA,
    ComparisonReport,
    compare_day,
    cost_delta,
    day_ahead_grid,
    fix_from_plan,
    generation_shares,
    reports_to_csv,
    run_day_ahead,
    run_real_time,
    run_rolling_horizon,
)
from tauc.solver import solve


def class_totals(system, matrix, flex):
    rows = [i for i, u in enumerate(system.units) if u.flex_class == flex]
    return matrix[rows].sum(axis=0)


def test_planning_grids_on_the_example_day():
    system, series = illustrative_case()
    ch = day_ahead_grid(series, MODE_CH, solar_capacity=system.solar_capacity)
    assert ch.cluster_bounds == ((0, 2), (2, 4), (4, 6))
    np.testing.assert_array_equal(ch.durations, [1.0, 1.0, 1.0])
    ta = day_ahead_grid(series, MODE_TA, solar_capacity=system.solar_capacity)
    assert ta.cluster_bounds == ((0, 4), (4, 5), (5, 6))
    np.testing.assert_array_equal(ta.durations, [2.0, 0.5, 0.5])


def test_hourly_day_ahead_plan_matches_published_tables():
    system, series = illustrative_case()
    plan = run_day_ahead(system, series, MODE_CH)
    np.testing.assert_allclose(
        class_totals(system, plan.dispatch, "base"), [200.0, 200.0, 600.0], atol=1e-6
    )
    np.testing.assert_allclose(
        class_totals(system, plan.dispatch, "medium"), [0.0, 0.0, 50.0], atol=1e-6
    )
    np.testing.assert_allclose(
        class_totals(system, plan.dispatch, "peak"), [0.0, 0.0, 0.0], atol=1e-6
    )
    np.testing.assert_array_equal(
        class_totals(system, plan.commitment, "base"), [1, 1, 3]
    )


def test_adaptive_day_ahead_plan_matches_published_tables():
    system, series = illustrative_case()
    plan = run_day_ahead(system, series, MODE_TA)
    np.testing.assert_allclose(
        class_totals(system, plan.dispatch, "base"), [200.0, 400.0, 800.0], atol=1e-6
    )
    np.testing.assert_allclose(
        class_totals(system, plan.dispatch, "medium"), [0.0, 50.0, 50.0], atol=1e-6
    )
    assert plan.objective == pytest.approx(11500.0, abs=1e-5)


def test_real_time_costs_match_published_example():
    system, series = illustrative_case()
    plan_ch = run_day_ahead(system, series, MODE_CH)
    fix_ch = fix_from_plan(plan_ch, system.units, series.n_points)
    rt_ch = run_real_time(system, series, fix_ch)
    assert rt_ch.cost == pytest.approx(18500.0, abs=1e-5)
    np.testing.assert_allclose(rt_ch.schedule.shed, [0, 0, 0, 0, 0, 100.0], atol=1e-6)

    plan_ta = run_day_ahead(system, series, MODE_TA)
    fix_ta = fix_from_plan(plan_ta, system.units, series.n_points)
    rt_ta = run_real_time(system, series, fix_ta)
    assert rt_ta.cost == pytest.approx(11500.0, abs=1e-5)
    np.testing.assert_allclose(rt_ta.schedule.shed, np.zeros(6), atol=1e-6)
    np.testing.assert_allclose(rt_ta.schedule.solar_spill, np.zeros(6), atol=1e-6)


def test_hourly_plan_sheds_and_spills_where_the_tables_say():
    system, series = illustrative_case()
    plan = run_day_ahead(system, series, MODE_CH)
    rt = run_real_time(system, series, fix_from_plan(plan, system.units, series.n_points))
    np.testing.assert_allclose(rt.schedule.shed, [0, 0, 0, 0, 0, 100.0], atol=1e-6)
    np.testing.assert_allclose(rt.schedule.solar_spill, [0, 0, 0, 0, 200.0, 0], atol=1e-6)
    np.testing.assert_allclose(
        class_totals(system, rt.schedule.dispatch, "medium"), [0, 0, 0, 0, 50.0, 100.0], atol=1e-6
    )
    np.testing.assert_allclose(
        class_totals(system, rt.schedule.dispatch, "peak"), [0, 0, 0, 0, 0, 50.0], atol=1e-6
    )


def test_adaptive_plan_model_agrees_with_exhaustive_search():
    """The planning MILP for the example day is small enough to enumerate."""
    system, series = illustrative_case()
    grid = day_ahead_grid(series, MODE_TA, solar_capacity=system.solar_capacity)
    model = build_uc_model(system, reduce_series(series, grid))
    assert model.n_binaries == 18
    exact = brute_force_solve(model)
    assert exact.status == "optimal"
    assert exact.objective == pytest.approx(11500.0, abs=1e-6)
    assert solve(model).objective == pytest.approx(exact.objective, rel=1e-9)


def test_generation_shares_match_published_example():
    system, series = illustrative_case()
    plan = run_day_ahead(system, series, MODE_TA)
    rt = run_real_time(system, series, fix_from_plan(plan, system.units, series.n_points))
    shares = generation_shares(rt, system)
    assert shares["base"] == pytest.approx(100.0 * 1000.0 / 1750.0, abs=1e-9)
    assert shares["medium"] == pytest.approx(100.0 * 50.0 / 1750.0, abs=1e-9)
    assert shares["solar"] == pytest.approx(40.0, abs=1e-9)
    assert shares["wind"] == 0.0 and shares["peak"] == 0.0
    assert sum(shares.values()) == pytest.approx(100.0, abs=1e-9)


def test_cost_delta_golden_values():
    assert round(cost_delta(18500.0, 11500.0), 2) == 37.84
    assert round(cost_delta(783643.0, 765366.0), 2) == 2.33
    assert cost_delta(100.0, 100.0) == 0.0
    with pytest.raises(ValueError, match="positive"):
        cost_delta(0.0, 10.0)


def test_fixing_dominance_on_a_random_day():
    """A plan's fixings can only restrict the real-time problem."""
    system, _ = illustrative_case()
    rng = np.random.default_rng(90125)
    series = random_day_series(rng, step_minutes=60)
    free = run_real_time(system, series, {})
    for mode in (MODE_CH, MODE_TA):
        plan = run_day_ahead(system, series, mode)
        fixed = run_real_time(system, series, fix_from_plan(plan, system.units, series.n_points))
        assert fixed.cost >= free.cost - 1e-6 * max(1.0, abs(free.cost))


def test_refixing_the_free_optimum_changes_nothing():
    system, series = illustrative_case()
    free = run_real_time(system, series, {})
    fixings = {}
    for i, unit in enumerate(system.units):
        if unit.flex_class == "peak":
            continue
        for t in range(1, series.n_points + 1):
            fixings[f"u_{unit.unit_id}_{t}"] = float(free.schedule.commitment[i, t - 1])
            if unit.flex_class == "base":
                fixings[f"pg_{unit.unit_id}_{t}"] = float(free.schedule.dispatch[i, t - 1])
    refixed = run_real_time(system, series, fixings)
    assert refixed.cost == pytest.approx(free.cost, rel=1e-9, abs=1e-6)


def test_flat_day_makes_both_modes_identical():
    """Constant features leave nothing for clustering to exploit."""
    system, _ = illustrative_case()
    series = flat_day_series(step_minutes=30)
    report, rt_ch, rt_ta = compare_day(system, series, "flat")
    assert report.c_ta == pytest.approx(report.c_ch, rel=1e-6)
    assert abs(report.delta_pct) < 1e-6
    # at a 60-minute step the adaptive target equals the sample count, so the
    # two grids are literally the same partition and the reductions coincide
    hourly = flat_day_series(step_minutes=60)
    grid_ch = day_ahead_grid(hourly, MODE_CH, solar_capacity=system.solar_capacity)
    grid_ta = day_ahead_grid(hourly, MODE_TA, solar_capacity=system.solar_capacity)
    assert grid_ch.cluster_bounds == grid_ta.cluster_bounds
    assert reduce_series(hourly, grid_ch) == reduce_series(hourly, grid_ta)


def test_energy_accounting_served_plus_shed_is_demand():
    system, _ = illustrative_case()
    rng = np.random.default_rng(5150)
    series = random_day_series(rng, step_minutes=60)
    for mode in (MODE_CH, MODE_TA):
        plan = run_day_ahead(system, series, mode)
        rt = run_real_time(system, series, fix_from_plan(plan, system.units, series.n_points))
        served = rt.schedule.p_served.sum()
        shed = rt.schedule.shed.sum()
        demand = series.demand.sum()
        assert served + shed == pytest.approx(demand, rel=1e-6)


def test_terminal_states_reflect_final_commitments():
    system, series = illustrative_case()
    plan = run_day_ahead(system, series, MODE_TA)
    rt = run_real_time(system, series, fix_from_plan(plan, system.units, series.n_points))
    assert [u.unit_id for u in rt.next_units] == [u.unit_id for u in system.units]
    states = {u.unit_id: u for u in rt.next_units}
    for i, unit in enumerate(system.units):
        s = states[unit.unit_id]
        assert s.u0 == rt.schedule.commitment[i, -1]
        if s.u0:
            assert s.p0 == pytest.approx(rt.schedule.dispatch[i, -1], abs=1e-6)
        else:
            assert s.p0 == 0.0
    medium = states["m1"]
    assert medium.u0 == 1 and medium.hours_on0 == pytest.approx(1.0)
    base_states = [states[f"b{i}"] for i in range(1, 5)]
    assert all(s.u0 == 1 for s in base_states)
    chained = rt.next_units
    assert chained[4].u0 == 1 and chained[4].hours_on0 == pytest.approx(1.0)


def test_fixings_must_cover_the_window():
    system, series = illustrative_case()
    plan = run_day_ahead(system, series, MODE_TA)
    with pytest.raises(ValueError, match="covers 6"):
        fix_from_plan(plan, system.units, 8)


def test_unknown_mode_rejected():
    _, series = illustrative_case()
    with pytest.raises(ValueError, match="mode"):
        day_ahead_grid(series, "XX")


def make_trace(series: HiResSeries, start: datetime) -> LoadedTrace:
    return LoadedTrace(series=series, start=start)


def repeat_days(day: HiResSeries, n: int) -> HiResSeries:
    return HiResSeries(
        demand=np.tile(day.demand, n),
        wind_cf=np.tile(day.wind_cf, n),
        solar_cf=np.tile(day.solar_cf, n),
        step_minutes=day.step_minutes,
    )


def test_two_identical_flat_days_give_identical_reports():
    system, _ = illustrative_case()
    day = flat_day_series(step_minutes=60)
    trace = make_trace(repeat_days(day, 2), datetime(2023, 6, 1, tzinfo=timezone.utc))
    reports = run_rolling_horizon(system, trace, lookahead_hours=0.0)
    assert [r.date for r in reports] == ["2023-06-01", "2023-06-02"]
    assert all(not r.warning for r in reports)
    first, second = reports
    assert second.c_ch == pytest.approx(first.c_ch, rel=1e-9)
    assert second.c_ta == pytest.approx(first.c_ta, rel=1e-9)
    assert second.shares_ch == pytest.approx(first.shares_ch)


def test_rolling_aligns_to_midnight_and_truncates_lookahead():
    system, _ = illustrative_case()
    day = flat_day_series(step_minutes=60)
    # trace starts at 18:00; 6 hours of lead-in, then two full days, then 2 hours
    lead = HiResSeries(
        demand=np.full(6, 500.0), wind_cf=np.zeros(6), solar_cf=np.full(6, 0.5),
        step_minutes=60,
    )
    tail = HiResSeries(
        demand=np.full(2, 500.0), wind_cf=np.zeros(2), solar_cf=np.full(2, 0.5),
        step_minutes=60,
    )
    full = HiResSeries(
        demand=np.concatenate([lead.demand, np.tile(day.demand, 2), tail.demand]),
        wind_cf=np.zeros(6 + 48 + 2),
        solar_cf=np.concatenate([lead.solar_cf, np.tile(day.solar_cf, 2), tail.solar_cf]),
        step_minutes=60,
    )
    trace = make_trace(full, datetime(2023, 5, 31, 18, tzinfo=timezone.utc))
    reports = run_rolling_horizon(system, trace, lookahead_hours=8.0)
    assert [r.date for r in reports] == ["2023-06-01", "2023-06-02"]
    assert all(not r.warning for r in reports)


def test_day_windows_reject_a_start_off_the_step_grid():
    day = flat_day_series(step_minutes=10)
    trace = make_trace(repeat_days(day, 2), datetime(2023, 6, 1, 0, 7, tzinfo=timezone.utc))
    with pytest.raises(ValueError, match="cannot align to a day boundary"):
        next(simulation.day_windows(trace, 0.0))


def test_rolling_date_filter_and_short_trace_warning():
    system, _ = illustrative_case()
    day = flat_day_series(step_minutes=60)
    trace = make_trace(repeat_days(day, 3), datetime(2023, 6, 1, tzinfo=timezone.utc))
    reports = run_rolling_horizon(
        system, trace, lookahead_hours=0.0, start_date="2023-06-02", end_date="2023-06-02"
    )
    assert [r.date for r in reports] == ["2023-06-02"]

    short = make_trace(
        HiResSeries(
            demand=np.full(10, 400.0), wind_cf=np.zeros(10), solar_cf=np.zeros(10),
            step_minutes=60,
        ),
        datetime(2023, 6, 1, tzinfo=timezone.utc),
    )
    warn = run_rolling_horizon(system, short, lookahead_hours=0.0)
    assert len(warn) == 1 and warn[0].warning
    assert math.isnan(warn[0].c_ch)


def test_reports_render_as_csv():
    system, _ = illustrative_case()
    day = flat_day_series(step_minutes=60)
    trace = make_trace(repeat_days(day, 2), datetime(2023, 6, 1, tzinfo=timezone.utc))
    reports = run_rolling_horizon(system, trace, lookahead_hours=4.0)
    reports.append(
        ComparisonReport(
            date="2023-06-03", c_ch=math.nan, c_ta=math.nan, delta_pct=math.nan,
            shares_ch={}, shares_ta={}, solve_time_ch=0.0, solve_time_ta=0.0,
            warning="day skipped: no data",
        )
    )
    text = reports_to_csv(reports)
    lines = text.strip().split("\n")
    assert lines[0] == ",".join(CSV_COLUMNS)
    assert len(lines) == 3
    first = lines[1].split(",")
    assert first[0] == "2023-06-01"
    assert float(first[1]) == pytest.approx(reports[0].c_ch, abs=0.01)


def test_duck_day_favors_the_adaptive_grid():
    system, _ = illustrative_case()
    series = duck_day_series(step_minutes=30)
    report, _, _ = compare_day(system, series, "duck")
    assert report.c_ta < report.c_ch


WEEK = [f"2023-06-0{day}" for day in range(1, 8)]


def memoized(memo, fn, key):
    def wrapper(*args):
        k = key(*args)
        if k not in memo:
            memo[k] = fn(*args)
        return memo[k]

    return wrapper


def forced_failure_week(memo, failing):
    """Roll the criterion-8 week with run_day_ahead raising for each (mode, date)
    in failing. Returns the reports and the units each (mode, date) started from.

    Solves are memoized on everything they depend on (mode, date, units and,
    in real time, the fixings), so examples share the days they have in common.
    """
    system = PowerSystem(chaining_portfolio(), 0.0, 600.0, 10000.0)
    plan = memoized(
        memo, simulation.run_day_ahead, lambda s, w, mode, *rest: ("da", mode, rest[-1], s.units)
    )
    operate = memoized(
        memo,
        simulation.run_real_time,
        lambda s, w, fixings, *rest: ("rt", rest[-1], s.units, frozenset(fixings.items())),
    )
    seen = {}

    def day_ahead(system, window, mode, *args):
        label = args[-1]
        seen[mode, label] = system.units
        if (mode, label) in failing:
            raise RuntimeError("forced failure")
        return plan(system, window, mode, *args)

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(simulation, "run_day_ahead", day_ahead)
        mp.setattr(simulation, "run_real_time", operate)
        reports = run_rolling_horizon(system, seven_day_trace(step_minutes=60), lookahead_hours=8.0)
    return reports, seen


@pytest.fixture(scope="module")
def roll_week():
    """forced_failure_week with one memo of solves shared by every call."""
    memo = {}
    return lambda failing: forced_failure_week(memo, failing)


@settings(max_examples=10, deadline=None)
@given(
    failing=st.sets(
        st.tuples(st.sampled_from((MODE_CH, MODE_TA)), st.sampled_from(WEEK)), min_size=1, max_size=3
    )
)
def test_a_failed_day_holds_only_the_failing_fleet(roll_week, failing):
    base_reports, base_seen = roll_week(set())
    assert [r.date for r in base_reports] == WEEK and not any(r.warning for r in base_reports)
    reports, seen = roll_week(failing)
    assert [r.date for r in reports] == WEEK
    for mode, cost in ((MODE_CH, "c_ch"), (MODE_TA, "c_ta")):
        if any(m == mode for m, _ in failing):
            continue
        # a mode that never fails runs the same fleet, so the same costs, as without failures
        assert all(seen[mode, day] == base_seen[mode, day] for day in WEEK)
        for rep, base in zip(reports, base_reports):
            if not rep.warning:
                assert getattr(rep, cost) == pytest.approx(getattr(base, cost), rel=1e-9)
    for rep in reports:
        modes = {m for m, day in failing if day == rep.date}
        assert bool(rep.warning) == bool(modes)
        for mode in (MODE_CH, MODE_TA):
            assert (f"{mode}: forced failure" in rep.warning) == (mode in modes)
    for mode, day in failing:
        k = WEEK.index(day)
        if k + 1 < len(WEEK):
            held = tuple(
                dataclasses.replace(u, hours_on0=24.0, hours_off0=24.0) for u in seen[mode, day]
            )
            assert seen[mode, WEEK[k + 1]] == held
