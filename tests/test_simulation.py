"""Tests for day-ahead planning, fixed real-time operation and rolling runs."""
from __future__ import annotations

import dataclasses
import math
import threading
from datetime import datetime, timezone

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from helpers import duck_day_series, flat_day_series, random_day_series
from oracle import brute_force_solve
from test_acceptance import chaining_portfolio, seven_day_trace
from tauc import simulation, solver
from tauc.aggregation import HiResSeries, reduce_series, singleton_grid, normalize_features
from tauc.ingestion import LoadedTrace, illustrative_case
from tauc.model import Fixings, PowerSystem, ThermalUnit, build_uc_model, extract_schedule, operating_cost
from tauc.simulation import (
    MODE_CH,
    MODE_TA,
    compare_day,
    cost_delta,
    day_ahead_grid,
    fix_from_plan,
    generation_shares,
    run_day_ahead,
    run_chain,
    run_real_time,
    run_rolling_horizon,
    shed_and_spill,
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
        class_totals(system, plan.schedule.dispatch, "base"), [200.0, 200.0, 600.0], atol=1e-6
    )
    np.testing.assert_allclose(
        class_totals(system, plan.schedule.dispatch, "medium"), [0.0, 0.0, 50.0], atol=1e-6
    )
    np.testing.assert_allclose(
        class_totals(system, plan.schedule.dispatch, "peak"), [0.0, 0.0, 0.0], atol=1e-6
    )
    np.testing.assert_array_equal(
        class_totals(system, plan.schedule.commitment, "base"), [1, 1, 3]
    )


def test_adaptive_day_ahead_plan_matches_published_tables():
    system, series = illustrative_case()
    plan = run_day_ahead(system, series, MODE_TA)
    np.testing.assert_allclose(
        class_totals(system, plan.schedule.dispatch, "base"), [200.0, 400.0, 800.0], atol=1e-6
    )
    np.testing.assert_allclose(
        class_totals(system, plan.schedule.dispatch, "medium"), [0.0, 50.0, 50.0], atol=1e-6
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


def test_shed_and_spill_energy_covers_the_day_only():
    system, series = illustrative_case()
    plan = run_day_ahead(system, series, MODE_CH)
    rt = run_real_time(system, series, fix_from_plan(plan, system.units, series.n_points))
    # 100 MW shed in the sixth half-hour, 200 MW of solar spilled in the fifth
    assert shed_and_spill(rt) == pytest.approx((50.0, 100.0), abs=1e-6)


def test_real_time_result_keeps_the_day_and_drops_the_look_ahead_tail():
    """The example fleet over 24 h plus an 8 h tail, solved free at one hour.
    The day needs m1 in hours 10-14 only; the tail asks 1400 MW, more than
    the fleet and the sun give, so it sheds and runs m1 to its end."""
    system, _ = illustrative_case()
    demand = np.concatenate((np.full(9, 800.0), np.full(5, 850.0), np.full(10, 800.0), np.full(8, 1400.0)))
    solar = np.concatenate((np.zeros(24), np.ones(8)))
    window = HiResSeries(demand=demand, wind_cf=np.zeros(32), solar_cf=solar, step_minutes=60)
    periods = reduce_series(window, singleton_grid(32, 60))
    whole = extract_schedule(system, periods, solve(build_uc_model(system, periods)).x)
    assert np.all(whole.shed[24:] > 0) and whole.commitment[4, -1] == 1

    rt = run_real_time(system, window, None)
    for field in dataclasses.fields(rt.schedule):
        assert getattr(rt.schedule, field.name).shape[-1] == 24 * 60 // window.step_minutes
    day = HiResSeries(demand=demand[:24], wind_cf=np.zeros(24), solar_cf=solar[:24], step_minutes=60)
    np.testing.assert_array_equal(rt.schedule.duration_h, reduce_series(day, singleton_grid(24, 60)).duration_h)
    assert rt.cost == operating_cost(system, rt.schedule)
    assert rt.cost == pytest.approx(24 * 800.0 * 10.0 + 5 * 50.0 * 30.0)
    assert shed_and_spill(rt) == (0.0, 0.0)
    assert generation_shares(rt, system)["medium"] == pytest.approx(100.0 * 250.0 / 19450.0)
    # the next day starts from the day's last hour: m1 off for 10 hours
    m1 = rt.next_units[4]
    assert (m1.unit_id, m1.u0, m1.hours0, m1.p0) == ("m1", 0, 10.0, 0.0)
    assert [u.u0 for u in rt.next_units] == rt.schedule.commitment[:, -1].tolist()


@pytest.mark.parametrize("mode", [MODE_CH, MODE_TA])
def test_an_infeasible_day_ahead_solve_names_the_mode_and_the_window(mode):
    """A base unit that must stay on at 300 MW or more for four more hours
    oversupplies a 100 MW window, and nothing absorbs thermal output."""
    stuck = ThermalUnit("b", "base", 300.0, 400.0, 10.0, min_up=5.0, u0=1, hours0=1.0, p0=300.0)
    system = PowerSystem(units=(stuck,), wind_capacity=0.0, solar_capacity=0.0, load_shed_cost=1000.0)
    with pytest.raises(RuntimeError, match=rf"^day-ahead {mode} solve for w ended infeasible: the initial state "
                                            r"holds b on, which pins 200\.0 MW more thermal output than the "
                                            r"demand of period 1$"):
        run_day_ahead(system, flat_day_series(demand=100.0), mode, label="w")


def test_real_time_names_the_period_where_frozen_output_exceeds_demand():
    """A base unit fixed at 60 MW and a medium unit committed at its 50 MW
    minimum meet 100 MW of demand in period 2. Neither shedding nor
    curtailment absorbs a surplus, so the solve is infeasible, and the error
    says where and by how much."""
    base = ThermalUnit("b", "base", 60.0, 60.0, 10.0, u0=1, hours0=24.0, p0=60.0)
    medium = ThermalUnit("m", "medium", 50.0, 100.0, 30.0, u0=1, hours0=24.0, p0=50.0)
    peak = ThermalUnit("p", "peak", 0.0, 50.0, 50.0)
    system = PowerSystem(units=(base, medium, peak), wind_capacity=0.0, solar_capacity=0.0,
                         load_shed_cost=1000.0)
    series = HiResSeries(demand=np.array([150.0, 100.0, 120.0]), wind_cf=np.zeros(3), solar_cf=np.zeros(3),
                         step_minutes=60)
    free = [np.nan] * 3
    fixings = Fixings(commitment=np.array([[1.0] * 3, [1.0] * 3, free]),
                      dispatch=np.array([[60.0] * 3, free, free]))
    with pytest.raises(RuntimeError, match=r"real-time solve for d ended infeasible: the plan freezes 10\.0 MW "
                                           r"more thermal output than the demand of period 2 \(sample 1 of"):
        run_real_time(system, series, fixings, label="d")
    # with the medium unit free to stop, the same plan is feasible
    fixings.commitment[1] = np.nan
    assert run_real_time(system, series, fixings).cost > 0


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
    free = run_real_time(system, series, None)
    for mode in (MODE_CH, MODE_TA):
        plan = run_day_ahead(system, series, mode)
        fixed = run_real_time(system, series, fix_from_plan(plan, system.units, series.n_points))
        assert fixed.cost >= free.cost - 1e-6 * max(1.0, abs(free.cost))


def test_refixing_the_free_optimum_changes_nothing():
    system, series = illustrative_case()
    free = run_real_time(system, series, None)
    flex = np.array([unit.flex_class for unit in system.units])[:, None]
    fixings = Fixings(
        commitment=np.where(flex != "peak", free.schedule.commitment, np.nan),
        dispatch=np.where(flex == "base", free.schedule.dispatch, np.nan),
    )
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
    reduced_ch, reduced_ta = reduce_series(hourly, grid_ch), reduce_series(hourly, grid_ta)
    for field in ("duration_h", "demand_mw", "wind_cf", "solar_cf"):
        np.testing.assert_array_equal(getattr(reduced_ch, field), getattr(reduced_ta, field))


def test_energy_accounting_served_plus_shed_is_demand():
    system, _ = illustrative_case()
    rng = np.random.default_rng(5150)
    series = random_day_series(rng, step_minutes=60)
    for mode in (MODE_CH, MODE_TA):
        plan = run_day_ahead(system, series, mode)
        rt = run_real_time(system, series, fix_from_plan(plan, system.units, series.n_points))
        served = rt.schedule.dispatch.sum() + rt.schedule.p_wind.sum() + rt.schedule.p_solar.sum()
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
    assert medium.u0 == 1 and medium.hours0 == pytest.approx(1.0)
    base_states = [states[f"b{i}"] for i in range(1, 5)]
    assert all(s.u0 == 1 for s in base_states)
    chained = rt.next_units
    assert chained[4].u0 == 1 and chained[4].hours0 == pytest.approx(1.0)


def test_an_uncommitted_unit_dispatches_exactly_zero():
    """Noise HiGHS leaves on an off unit's dispatch stays out of the plan and
    so out of the bounds of the next real-time model."""
    system, series = illustrative_case()
    real_milp = solver.milp

    def noisy_milp(*args, **kwargs):
        # every continuous column HiGHS returns at 0 comes back at +3e-13
        res = real_milp(*args, **kwargs)
        if res.x is not None:
            res.x[(res.x == 0.0) & (kwargs["integrality"] == 0)] = 3e-13
        return res

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(solver, "milp", noisy_milp)
        plan = run_day_ahead(system, series, MODE_CH)
    off = plan.schedule.commitment == 0
    assert off[[i for i, u in enumerate(system.units) if u.flex_class == "base"]].any()
    assert np.all(plan.schedule.dispatch[off] == 0.0)
    fixings = fix_from_plan(plan, system.units, series.n_points)
    model = build_uc_model(system, reduce_series(series, singleton_grid(series.n_points, series.step_minutes)), fixings)
    base_off = (fixings.commitment == 0) & ~np.isnan(fixings.dispatch)
    assert base_off.any()
    ng, nt = fixings.dispatch.shape
    pg_block = slice(ng * nt, 2 * ng * nt)
    assert np.all(model.lb[pg_block][base_off.ravel()] == 0.0)
    assert np.all(model.ub[pg_block][base_off.ravel()] == 0.0)


def test_fix_from_plan_copies_each_plan_period_onto_its_members():
    system, series = illustrative_case()
    plan = run_day_ahead(system, series, MODE_TA)
    fixings = fix_from_plan(plan, system.units, 5)
    assert fixings.commitment.shape == fixings.dispatch.shape == (len(system.units), 5)
    for i, unit in enumerate(system.units):
        for k, (a, b) in enumerate(plan.grid.cluster_bounds):
            for t in range(a, min(b, 5)):
                on = fixings.commitment[i, t]
                p = fixings.dispatch[i, t]
                assert math.isnan(on) if unit.flex_class == "peak" else on == plan.schedule.commitment[i, k]
                assert p == plan.schedule.dispatch[i, k] if unit.flex_class == "base" else math.isnan(p)


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
    assert second.ch.shares == pytest.approx(first.ch.shares)


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
    # 7 minutes past midnight, and half a second past it, off any step
    for step, start, offset in ((10, datetime(2023, 6, 1, 0, 7), "0:07:00"),
                                (30, datetime(2023, 6, 1, 0, 0, 0, 500000), "0:00:00.500000")):
        day = flat_day_series(step_minutes=step)
        trace = make_trace(repeat_days(day, 2), start.replace(tzinfo=timezone.utc))
        with pytest.raises(ValueError, match=f"starts {offset} past midnight, .* cannot align to a day boundary"):
            next(simulation.day_windows(trace, 0.0))


def test_day_windows_reject_a_lookahead_that_is_not_whole_hours():
    day = flat_day_series(step_minutes=30)
    trace = make_trace(repeat_days(day, 2), datetime(2023, 6, 1, tzinfo=timezone.utc))
    for hours in (8.5, 0.5):
        with pytest.raises(ValueError, match=f"whole number of hours, got {hours}"):
            next(simulation.day_windows(trace, hours))
    assert [w.n_points for _, w in simulation.day_windows(trace, 8.0)] == [48 + 16, 48]


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


def test_a_day_without_energy_is_skipped_in_both_modes_and_the_chains_go_on():
    system, _ = illustrative_case()
    served = HiResSeries(demand=np.full(24, 500.0), wind_cf=np.zeros(24), solar_cf=np.zeros(24), step_minutes=60)
    idle = dataclasses.replace(served, demand=np.zeros(24))
    days = (served, idle, served)
    series = HiResSeries(
        *(np.concatenate([getattr(d, name) for d in days]) for name in ("demand", "wind_cf", "solar_cf")),
        step_minutes=60,
    )
    reports = run_rolling_horizon(system, make_trace(series, datetime(2023, 6, 1, tzinfo=timezone.utc)), 0.0)
    assert [r.date for r in reports] == ["2023-06-01", "2023-06-02", "2023-06-03"]
    first, skipped, third = reports
    assert skipped.warning == (
        "day skipped: CH: no energy served; shares are undefined; TA: no energy served; shares are undefined"
    )
    assert skipped.ch is None and skipped.ta is None and math.isnan(skipped.delta_pct)
    for report in (first, third):
        assert not report.warning
        assert (f"{report.c_ch:.2f}", f"{report.c_ta:.2f}", report.delta_pct) == ("168000.00", "168000.00", 0.0)


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
        lambda s, w, fixings, *rest: ("rt", rest[-1], s.units, fixings.commitment.tobytes(),
                                      fixings.dispatch.tobytes()),
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
            held = tuple(dataclasses.replace(u, hours0=24.0) for u in seen[mode, day])
            assert seen[mode, WEEK[k + 1]] == held


def test_rolling_run_equals_a_sequential_join_of_the_two_chains():
    system = PowerSystem(chaining_portfolio(), 0.0, 600.0, 10000.0)
    trace = seven_day_trace(step_minutes=60)
    reports = run_rolling_horizon(system, trace, lookahead_hours=8.0)
    chains = [list(run_chain(system, trace, mode, lookahead_hours=8.0)) for mode in (MODE_CH, MODE_TA)]
    expected = []
    for (label, (_, rt_ch)), (label_ta, (_, rt_ta)) in zip(*chains):
        assert label_ta == label
        expected.append((label, rt_ch.cost, rt_ta.cost, cost_delta(rt_ch.cost, rt_ta.cost),
                         generation_shares(rt_ch, system), generation_shares(rt_ta, system), ""))
    got = [(r.date, r.c_ch, r.c_ta, r.delta_pct, r.ch.shares, r.ta.shares, r.warning) for r in reports]
    assert [r[0] for r in got] == WEEK
    assert got == expected  # every field but the solve times


def fail_in_ta_mode(monkeypatch):
    """Make run_one_mode raise KeyError in TA mode; returns the threads it ran on."""
    real = simulation.run_one_mode
    threads = {}

    def run_one_mode(system, window, mode, *args):
        threads[mode] = threading.get_ident()
        if mode == MODE_TA:
            raise KeyError("unexpected")
        return real(system, window, mode, *args)

    monkeypatch.setattr(simulation, "run_one_mode", run_one_mode)
    return threads


def test_an_unexpected_error_in_the_ta_mode_propagates_from_compare_day(monkeypatch):
    threads = fail_in_ta_mode(monkeypatch)
    system, series = illustrative_case()
    before = threading.active_count()
    with pytest.raises(KeyError, match="unexpected"):
        compare_day(system, series, "example")
    assert threading.active_count() == before
    assert threads[MODE_CH] == threading.get_ident() != threads[MODE_TA]


def test_an_unexpected_error_in_the_ta_mode_propagates_from_a_rolling_run(monkeypatch):
    threads = fail_in_ta_mode(monkeypatch)
    system = PowerSystem(chaining_portfolio(), 0.0, 600.0, 10000.0)
    before = threading.active_count()
    with pytest.raises(KeyError, match="unexpected"):
        run_rolling_horizon(system, seven_day_trace(step_minutes=60), lookahead_hours=8.0)
    assert threading.active_count() == before
    assert threads[MODE_CH] == threading.get_ident() != threads[MODE_TA]


def test_dispatch_returned_a_hair_below_its_bound_is_snapped_and_the_day_solved(monkeypatch):
    """HiGHS may return a continuous column a few 1e-9 below its lower bound,
    inside the audit tolerance; the accepted point lands on the bound, so the
    plan's base dispatch fixes the real-time model without a complaint."""
    real_milp = solver.milp

    def noisy_milp(*args, **kwargs):
        res = real_milp(*args, **kwargs)
        if res.x is not None:
            res.x[(res.x == 0.0) & (kwargs["integrality"] == 0)] = -5e-9
        return res

    monkeypatch.setattr("tauc.solver.milp", noisy_milp)
    system = PowerSystem(
        units=(ThermalUnit("b", "base", 0.0, 100.0, 90.0), ThermalUnit("p", "peak", 0.0, 600.0, 10.0)),
        wind_capacity=0.0,
        solar_capacity=0.0,
        load_shed_cost=1000.0,
    )
    series = flat_day_series(step_minutes=60, hours=24.0, demand=500.0)
    plan = run_day_ahead(system, series, MODE_CH)
    assert np.all(plan.schedule.dispatch[0] == 0.0)  # the base unit is too dear to run
    reports = run_rolling_horizon(system, make_trace(series, datetime(2023, 6, 5, tzinfo=timezone.utc)), 0.0)
    assert [(r.date, r.warning) for r in reports] == [("2023-06-05", "")]
