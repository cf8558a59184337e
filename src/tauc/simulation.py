"""Day-ahead planning against real-time operation, on one day or a sequence.

The comparison works the same way in both modes. A day (plus a look-ahead
tail) is reduced to a coarse grid: uniform hourly periods in CH mode, or the
same number of variable-duration periods from adjacent clustering in TA mode.
The commitment problem is solved on that grid, then the high-resolution day
is re-solved with the plan partially frozen: base units keep commitment and
dispatch, medium units keep commitment only, peak units stay free. The cost
difference between the two real-time outcomes is the value of the adaptive
grid. A rolling run is one chain of days per mode: each day's real-time
result hands the fleet, with its initial conditions set from the day's end,
to the next day of the same mode, and the comparison joins the two chains by
date.
"""
from __future__ import annotations

import dataclasses
import math
from dataclasses import dataclass
from datetime import date, timedelta
from io import StringIO
from typing import Iterator

import csv

import numpy as np

from .aggregation import (
    HiResSeries,
    TimeGrid,
    cluster_adjacent,
    hourly_grid,
    normalize_features,
    reduce_series,
    singleton_grid,
)
from .ingestion import LoadedTrace
from .model import (
    PowerSystem,
    Schedule,
    ThermalUnit,
    build_uc_model,
    extract_schedule,
    operating_cost,
    pg_name,
    u_name,
)
from .solver import BackendConfig, solve

MODE_CH = "CH"
MODE_TA = "TA"
MODES = (MODE_CH, MODE_TA)

TECHNOLOGIES = ("wind", "solar", "base", "medium", "peak")


@dataclass(frozen=True)
class DayAheadPlan:
    """Commitment and dispatch solved on a reduced grid."""

    mode: str
    grid: TimeGrid
    commitment: np.ndarray
    dispatch: np.ndarray
    objective: float
    solve_time: float


@dataclass(frozen=True)
class RealTimeResult:
    """High-resolution operation of one window under a plan's fixings.

    cost covers only the first day_periods periods (the look-ahead tail is
    planned but its cost belongs to the next day). next_units are the
    system's units with their initial conditions set from the end of that
    day, ready to seed the following one.
    """

    cost: float
    schedule: Schedule
    step_minutes: int
    day_periods: int
    next_units: tuple[ThermalUnit, ...]
    objective: float
    solve_time: float


@dataclass(frozen=True)
class ComparisonReport:
    """One day's outcome under both modes. A nonempty warning marks a day
    that was skipped (costs are NaN then)."""

    date: str
    c_ch: float
    c_ta: float
    delta_pct: float
    shares_ch: dict[str, float]
    shares_ta: dict[str, float]
    solve_time_ch: float
    solve_time_ta: float
    warning: str = ""


def day_ahead_grid(
    series: HiResSeries,
    mode: str,
    features: str = "net_demand_only",
    wind_capacity: float = 0.0,
    solar_capacity: float = 0.0,
) -> TimeGrid:
    """Reduced grid for the planning stage: hourly in CH, clustered in TA.

    TA uses one cluster per hour of window on average, so both modes hand
    the solver the same number of periods.
    """
    if mode not in MODES:
        raise ValueError(f"mode must be one of {MODES}, got {mode!r}")
    if mode == MODE_CH:
        return hourly_grid(series.n_points, series.step_minutes)
    feats = normalize_features(series, features, wind_capacity, solar_capacity)
    target = round(series.horizon_hours)
    return cluster_adjacent(feats, target, series.step_minutes)


def run_day_ahead(
    system: PowerSystem,
    series: HiResSeries,
    mode: str,
    features: str = "net_demand_only",
    config: BackendConfig | None = None,
    label: str = "window",
) -> DayAheadPlan:
    """Solve the commitment problem on the reduced grid for one window."""
    grid = day_ahead_grid(series, mode, features, system.wind_capacity, system.solar_capacity)
    periods = reduce_series(series, grid)
    model = build_uc_model(system, periods)
    result = solve(model, config)
    if result.status != "optimal":
        raise RuntimeError(f"day-ahead {mode} solve for {label} ended {result.status}: {result.message}")
    schedule = extract_schedule(system, periods, result.values)
    return DayAheadPlan(
        mode=mode,
        grid=grid,
        commitment=schedule.commitment,
        dispatch=schedule.dispatch,
        objective=result.objective,
        solve_time=result.wall_time,
    )


def fix_from_plan(
    plan: DayAheadPlan, units: tuple[ThermalUnit, ...], n_hi_periods: int
) -> dict[str, float]:
    """Freeze plan decisions onto the high-resolution grid, by flexibility.

    Base units carry commitment and dispatch into every member period,
    medium units carry commitment only, peak units nothing. Sample index i
    of the window is high-resolution period i+1.
    """
    covered = plan.grid.cluster_bounds[-1][1]
    if n_hi_periods > covered:
        raise ValueError(
            f"plan covers {covered} high-resolution periods, window has {n_hi_periods}"
        )
    owner = np.empty(covered, dtype=int)
    for k, (a, b) in enumerate(plan.grid.cluster_bounds):
        owner[a:b] = k
    fixings: dict[str, float] = {}
    for i, unit in enumerate(units):
        if unit.flex_class == "peak":
            continue
        for t in range(1, n_hi_periods + 1):
            k = owner[t - 1]
            fixings[u_name(unit.unit_id, t)] = float(plan.commitment[i, k])
            if unit.flex_class == "base":
                fixings[pg_name(unit.unit_id, t)] = float(plan.dispatch[i, k])
    return fixings


def _next_units(
    units: tuple[ThermalUnit, ...],
    schedule: Schedule,
    day_periods: int,
    step_minutes: int,
) -> tuple[ThermalUnit, ...]:
    """The units with commitment streaks and output taken from the end of the day."""
    hours_per_period = step_minutes / 60.0
    out = []
    for i, unit in enumerate(units):
        row = schedule.commitment[i, :day_periods]
        u_end = int(row[-1])
        streak = 1
        while streak < day_periods and row[-1 - streak] == u_end:
            streak += 1
        hours = min(streak * hours_per_period, 24.0)
        if u_end:
            p_end = float(np.clip(schedule.dispatch[i, day_periods - 1], unit.pmin, unit.pmax))
            out.append(dataclasses.replace(unit, u0=1, hours_on0=hours, hours_off0=24.0, p0=p_end))
        else:
            out.append(dataclasses.replace(unit, u0=0, hours_on0=24.0, hours_off0=hours, p0=0.0))
    return tuple(out)


def _held_units(units: tuple[ThermalUnit, ...]) -> tuple[ThermalUnit, ...]:
    """The units after a day that could not be solved: each keeps its commitment
    and output through the day, so both streak counters reach the 24 h cap."""
    return tuple(dataclasses.replace(u, hours_on0=24.0, hours_off0=24.0) for u in units)


def run_real_time(
    system: PowerSystem,
    series: HiResSeries,
    fixings: dict[str, float],
    config: BackendConfig | None = None,
    label: str = "window",
) -> RealTimeResult:
    """Re-solve one window at full resolution under a plan's fixings.

    The model keeps the load-shed slack, so this stays feasible for any
    plan; rows fully pinned by fixings are dropped rather than enforced.
    """
    grid = singleton_grid(series.n_points, series.step_minutes)
    periods = reduce_series(series, grid)
    model = build_uc_model(system, periods, fixings=fixings)
    result = solve(model, config)
    if result.status != "optimal":
        raise RuntimeError(
            f"real-time solve for {label} ended {result.status} despite load-shed slack: "
            f"{result.message}"
        )
    schedule = extract_schedule(system, periods, result.values)
    day_periods = min(len(periods), 24 * 60 // series.step_minutes)
    cost = operating_cost(system, periods, schedule, slice(0, day_periods))
    return RealTimeResult(
        cost=cost,
        schedule=schedule,
        step_minutes=series.step_minutes,
        day_periods=day_periods,
        next_units=_next_units(system.units, schedule, day_periods, series.step_minutes),
        objective=result.objective,
        solve_time=result.wall_time,
    )


def cost_delta(c_ch: float, c_ta: float) -> float:
    """Relative saving of the adaptive schedule, in percent of the hourly cost."""
    if c_ch <= 0:
        raise ValueError(f"cost delta needs a positive reference cost, got {c_ch}")
    return 100.0 * (c_ch - c_ta) / c_ch


def generation_shares(result: RealTimeResult, system: PowerSystem) -> dict[str, float]:
    """Energy share per technology over the day, in percent of served energy."""
    sl = slice(0, result.day_periods)
    d = result.step_minutes / 60.0
    energy = dict.fromkeys(TECHNOLOGIES, 0.0)
    energy["wind"] = float(np.sum(result.schedule.p_wind[sl]) * d)
    energy["solar"] = float(np.sum(result.schedule.p_solar[sl]) * d)
    for i, unit in enumerate(system.units):
        energy[unit.flex_class] += float(np.sum(result.schedule.dispatch[i, sl]) * d)
    total = sum(energy.values())
    if total <= 0:
        raise ValueError("no energy served; shares are undefined")
    return {tech: 100.0 * energy[tech] / total for tech in TECHNOLOGIES}


def run_one_mode(
    system: PowerSystem,
    window: HiResSeries,
    mode: str,
    features: str = "net_demand_only",
    config: BackendConfig | None = None,
    label: str = "window",
) -> tuple[DayAheadPlan, RealTimeResult]:
    """Plan one window in one mode, then operate it in real time under the plan."""
    plan = run_day_ahead(system, window, mode, features, config, label)
    fixings = fix_from_plan(plan, system.units, window.n_points)
    result = run_real_time(system, window, fixings, config, label)
    return plan, result


def _report(
    label: str,
    system: PowerSystem,
    ch: tuple[DayAheadPlan, RealTimeResult],
    ta: tuple[DayAheadPlan, RealTimeResult],
) -> ComparisonReport:
    """One day's report from the (plan, real-time result) pair of each mode."""
    (plan_ch, rt_ch), (plan_ta, rt_ta) = ch, ta
    return ComparisonReport(
        date=label,
        c_ch=rt_ch.cost,
        c_ta=rt_ta.cost,
        delta_pct=cost_delta(rt_ch.cost, rt_ta.cost) if rt_ch.cost > 0 else 0.0,
        shares_ch=generation_shares(rt_ch, system),
        shares_ta=generation_shares(rt_ta, system),
        solve_time_ch=plan_ch.solve_time + rt_ch.solve_time,
        solve_time_ta=plan_ta.solve_time + rt_ta.solve_time,
    )


def compare_day(
    system: PowerSystem,
    window: HiResSeries,
    day_label: str,
    features: str = "net_demand_only",
    config: BackendConfig | None = None,
) -> tuple[ComparisonReport, RealTimeResult, RealTimeResult]:
    """Run both modes on one window and assemble the day's report."""
    ch = run_one_mode(system, window, MODE_CH, features, config, day_label)
    ta = run_one_mode(system, window, MODE_TA, features, config, day_label)
    return _report(day_label, system, ch, ta), ch[1], ta[1]


def _skipped_day(label: str, reason: str) -> ComparisonReport:
    """The record of a day that could not be compared: no costs, only the reason."""
    return ComparisonReport(
        date=label,
        c_ch=math.nan,
        c_ta=math.nan,
        delta_pct=math.nan,
        shares_ch={},
        shares_ta={},
        solve_time_ch=0.0,
        solve_time_ta=0.0,
        warning=f"day skipped: {reason}",
    )


def _parse_date(value) -> date | None:
    if value is None or isinstance(value, date):
        return value
    return date.fromisoformat(value)


def _first_midnight(trace: LoadedTrace) -> int:
    """Index of the first sample that falls on a midnight."""
    step = trace.series.step_minutes
    start = trace.start
    offset_hours = start.hour + start.minute / 60.0 + start.second / 3600.0
    skip = ((24.0 - offset_hours) % 24.0) * (60 // step)
    if abs(skip - round(skip)) > 1e-9:
        raise ValueError(
            f"trace starts {offset_hours} h past midnight, which the "
            f"{step}-minute step cannot align to a day boundary"
        )
    return int(round(skip))


def _sample_date(trace: LoadedTrace, index: int) -> date:
    return (trace.start + timedelta(minutes=index * trace.series.step_minutes)).date()


def day_windows(trace: LoadedTrace, lookahead_hours: float) -> Iterator[tuple[date, HiResSeries]]:
    """Yield (date, window) for each complete midnight-to-midnight day of a trace.

    A window is the day's 24 hours plus a look-ahead tail of lookahead_hours,
    truncated to whole hours where the trace ends first.
    """
    if lookahead_hours < 0:
        raise ValueError("lookahead_hours must be nonnegative")
    series = trace.series
    per_hour = 60 // series.step_minutes
    per_day = 24 * per_hour
    lookahead = int(round(lookahead_hours * per_hour))
    for start in range(_first_midnight(trace), series.n_points - per_day + 1, per_day):
        tail = min(lookahead, series.n_points - start - per_day)
        stop = start + per_day + tail - tail % per_hour
        window = HiResSeries(
            demand=series.demand[start:stop],
            wind_cf=series.wind_cf[start:stop],
            solar_cf=series.solar_cf[start:stop],
            step_minutes=series.step_minutes,
        )
        yield _sample_date(trace, start), window


def run_chain(
    system: PowerSystem,
    trace: LoadedTrace,
    mode: str,
    lookahead_hours: float = 8.0,
    features: str = "net_demand_only",
    config: BackendConfig | None = None,
    start_date=None,
    end_date=None,
) -> Iterator[tuple[str, tuple[DayAheadPlan, RealTimeResult] | str]]:
    """Operate one mode's fleet day after day over a trace.

    Yields (label, (plan, result)) for each solved day in the date range, or
    (label, reason) for a day that failed. A solved day hands its next_units
    to the following day; after a failed day the units keep their commitment
    and output, with both streak counters at the 24 h cap.
    """
    lo_date = _parse_date(start_date)
    hi_date = _parse_date(end_date)
    for day, window in day_windows(trace, lookahead_hours):
        if (lo_date is not None and day < lo_date) or (hi_date is not None and day > hi_date):
            continue
        label = day.isoformat()
        try:
            plan, rt = run_one_mode(system, window, mode, features, config, label)
        except (RuntimeError, ValueError) as exc:
            yield label, str(exc)
            system = system.with_units(_held_units(system.units))
        else:
            yield label, (plan, rt)
            system = system.with_units(rt.next_units)


def run_rolling_horizon(
    system: PowerSystem,
    trace: LoadedTrace,
    lookahead_hours: float = 8.0,
    features: str = "net_demand_only",
    config: BackendConfig | None = None,
    start_date=None,
    end_date=None,
) -> list[ComparisonReport]:
    """Compare both modes over every complete midnight-to-midnight day.

    Each mode runs its own chain (see run_chain) and the reports join the
    two chains by date, one day at a time. Days outside the requested date
    range are left out; a day that fails in either mode, or a trace without
    one complete day, gives a warning record instead of a result.
    """
    if next(day_windows(trace, lookahead_hours), None) is None:
        first = _sample_date(trace, _first_midnight(trace))
        return [_skipped_day(first.isoformat(), "trace shorter than one full day")]
    chains = [
        run_chain(system, trace, mode, lookahead_hours, features, config, start_date, end_date)
        for mode in MODES
    ]
    reports: list[ComparisonReport] = []
    for (label, ch), (_, ta) in zip(*chains):
        failed = [f"{mode}: {out}" for mode, out in zip(MODES, (ch, ta)) if isinstance(out, str)]
        if failed:
            reports.append(_skipped_day(label, "; ".join(failed)))
            continue
        try:
            reports.append(_report(label, system, ch, ta))
        except ValueError as exc:  # no energy served, so no shares
            reports.append(_skipped_day(label, str(exc)))
    return reports


CSV_COLUMNS = (
    "date",
    "c_ch",
    "c_ta",
    "delta_pct",
    "share_wind_ch",
    "share_solar_ch",
    "share_base_ch",
    "share_medium_ch",
    "share_peak_ch",
    "share_wind_ta",
    "share_solar_ta",
    "share_base_ta",
    "share_medium_ta",
    "share_peak_ta",
    "solve_time_ch",
    "solve_time_ta",
)


def reports_to_csv(reports: list[ComparisonReport]) -> str:
    """Render solved days as CSV; warning records carry no numbers and are left out."""
    buf = StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(CSV_COLUMNS)
    for rep in reports:
        if rep.warning:
            continue
        row = [rep.date, f"{rep.c_ch:.2f}", f"{rep.c_ta:.2f}", f"{rep.delta_pct:.4f}"]
        row.extend(f"{rep.shares_ch[tech]:.4f}" for tech in TECHNOLOGIES)
        row.extend(f"{rep.shares_ta[tech]:.4f}" for tech in TECHNOLOGIES)
        row.append(f"{rep.solve_time_ch:.3f}")
        row.append(f"{rep.solve_time_ta:.3f}")
        writer.writerow(row)
    return buf.getvalue()
