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
date. The chains share nothing, so they run side by side, each to its
end: TA on a worker thread, CH on the calling thread.
"""
from __future__ import annotations

import dataclasses
import functools
import math
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass
from datetime import date, timedelta
from typing import Callable, Iterator, TypeVar

import numpy as np

from .aggregation import (
    HiResSeries,
    ReducedSeries,
    TimeGrid,
    cluster_adjacent,
    hourly_grid,
    normalize_features,
    reduce_series,
    singleton_grid,
)
from .ingestion import LoadedTrace
from .model import (
    Fixings,
    PowerSystem,
    Schedule,
    ThermalUnit,
    build_uc_model,
    extract_schedule,
    operating_cost,
)
from .solver import BackendConfig, solve

MODE_CH = "CH"
MODE_TA = "TA"
MODES = (MODE_CH, MODE_TA)

TECHNOLOGIES = ("wind", "solar", "base", "medium", "peak")

T = TypeVar("T")


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
    """High-resolution operation of one day under a plan's fixings.

    The window's look-ahead tail is solved but belongs to the next day, so
    schedule and cost cover the day's periods only. next_units are the
    system's units with their initial conditions set from the end of the
    day, ready to seed the following one.
    """

    cost: float
    schedule: Schedule
    step_minutes: int
    next_units: tuple[ThermalUnit, ...]
    solve_time: float


@dataclass(frozen=True)
class ModeDay:
    """One mode's outcome on one day: the real-time cost, the energy share
    of each technology in percent, the wall seconds of the day-ahead and
    real-time solves, and the shed demand and spilled wind plus solar energy
    in MWh, all over the day's periods as the cost is."""

    cost: float
    shares: dict[str, float]
    da_time: float
    rt_time: float
    shed_mwh: float
    spill_mwh: float


@dataclass(frozen=True)
class ComparisonReport:
    """One day's outcome under both modes. A nonempty warning marks a day
    that was skipped; ch and ta are None then, and c_ch, c_ta and delta_pct
    read NaN."""

    date: str
    ch: ModeDay | None = None
    ta: ModeDay | None = None
    warning: str = ""

    @property
    def c_ch(self) -> float:
        return math.nan if self.ch is None else self.ch.cost

    @property
    def c_ta(self) -> float:
        return math.nan if self.ta is None else self.ta.cost

    @property
    def delta_pct(self) -> float:
        """cost_delta of the day, 0.0 when the hourly cost is not positive."""
        if self.ch is None or self.ta is None:
            return math.nan
        return cost_delta(self.c_ch, self.c_ta) if self.c_ch > 0 else 0.0


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
    schedule = extract_schedule(system, periods, result.x)
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
) -> Fixings:
    """Freeze plan decisions onto the high-resolution grid, by flexibility.

    Base units carry commitment and dispatch into every member period,
    medium units carry commitment only, peak units nothing. Sample index i
    of the window is high-resolution period i+1.
    """
    owner = np.repeat(np.arange(plan.grid.n_periods), plan.grid.member_counts)
    if n_hi_periods > len(owner):
        raise ValueError(f"plan covers {len(owner)} high-resolution periods, window has {n_hi_periods}")
    owner = owner[:n_hi_periods]
    flex = np.array([unit.flex_class for unit in units])[:, None]
    return Fixings(
        commitment=np.where(flex != "peak", plan.commitment[:, owner], np.nan),
        dispatch=np.where(flex == "base", plan.dispatch[:, owner], np.nan),
    )


def _next_units(
    units: tuple[ThermalUnit, ...], schedule: Schedule, step_minutes: int
) -> tuple[ThermalUnit, ...]:
    """The units in the state the schedule ends in, with the hours they have
    held it (capped at 24) and their last output."""
    hours_per_period = step_minutes / 60.0
    out = []
    for unit, row, p in zip(units, schedule.commitment, schedule.dispatch):
        u_end = int(row[-1])
        streak = 1
        while streak < len(row) and row[-1 - streak] == u_end:
            streak += 1
        p_end = float(np.clip(p[-1], unit.pmin, unit.pmax)) if u_end else 0.0
        out.append(dataclasses.replace(unit, u0=u_end, hours0=min(streak * hours_per_period, 24.0), p0=p_end))
    return tuple(out)


def _head(record: T, n: int) -> T:
    """A Schedule or ReducedSeries cut to its first n periods."""
    return type(record)(*(getattr(record, f.name)[..., :n] for f in dataclasses.fields(record)))


def run_real_time(
    system: PowerSystem,
    series: HiResSeries,
    fixings: Fixings | None,
    config: BackendConfig | None = None,
    label: str = "window",
) -> RealTimeResult:
    """Re-solve one window at full resolution under a plan's fixings.

    Load shedding covers any shortfall and curtailment any renewable
    surplus, but nothing absorbs thermal output the plan froze above
    demand: fixed dispatch plus the pmin of units whose commitment is fixed
    on. A period where that output exceeds demand makes the model
    infeasible, and the RuntimeError names the first such period and the
    excess. Rows fully pinned by fixings are dropped rather than enforced.
    fixings None leaves every column free. The result keeps the first day,
    24 * 60 // step_minutes periods, or the whole window if it is shorter.
    """
    grid = singleton_grid(series.n_points, series.step_minutes)
    periods = reduce_series(series, grid)
    model = build_uc_model(system, periods, fixings=fixings)
    result = solve(model, config)
    if result.status != "optimal":
        why = result.message
        over = None if fixings is None else _frozen_excess(system, periods, fixings)
        if over is not None:
            t, excess = over
            why = (f"the plan freezes {excess:.1f} MW more thermal output than the demand of "
                   f"period {t} (sample {t - 1} of the window)")
        raise RuntimeError(f"real-time solve for {label} ended {result.status}: {why}")
    day = 24 * 60 // series.step_minutes
    schedule = _head(extract_schedule(system, periods, result.x), day)
    return RealTimeResult(
        cost=operating_cost(system, _head(periods, day), schedule),
        schedule=schedule,
        step_minutes=series.step_minutes,
        next_units=_next_units(system.units, schedule, series.step_minutes),
        solve_time=result.wall_time,
    )


def _frozen_excess(system: PowerSystem, periods: ReducedSeries, fixings: Fixings) -> tuple[int, float] | None:
    """(period, MW) of the first period whose frozen thermal output, fixed
    dispatch or else pmin times a fixed commitment, exceeds demand; None if none does."""
    pmin = np.array([unit.pmin for unit in system.units])[:, None]
    floor = np.where(np.isnan(fixings.dispatch), np.nan_to_num(fixings.commitment) * pmin, fixings.dispatch)
    excess = floor.sum(axis=0) - periods.demand_mw
    over = np.flatnonzero(excess > 1e-6)
    if len(over) == 0:
        return None
    return int(over[0]) + 1, float(excess[over[0]])


def cost_delta(c_ch: float, c_ta: float) -> float:
    """Relative saving of the adaptive schedule, in percent of the hourly cost."""
    if c_ch <= 0:
        raise ValueError(f"cost delta needs a positive reference cost, got {c_ch}")
    return 100.0 * (c_ch - c_ta) / c_ch


def generation_shares(result: RealTimeResult, system: PowerSystem) -> dict[str, float]:
    """Energy share per technology over the day, in percent of served energy."""
    d = result.step_minutes / 60.0
    energy = dict.fromkeys(TECHNOLOGIES, 0.0)
    energy["wind"] = float(np.sum(result.schedule.p_wind) * d)
    energy["solar"] = float(np.sum(result.schedule.p_solar) * d)
    for unit, p in zip(system.units, result.schedule.dispatch):
        energy[unit.flex_class] += float(np.sum(p) * d)
    total = sum(energy.values())
    if total <= 0:
        raise ValueError("no energy served; shares are undefined")
    return {tech: 100.0 * energy[tech] / total for tech in TECHNOLOGIES}


def shed_and_spill(result: RealTimeResult) -> tuple[float, float]:
    """Shed demand and spilled wind plus solar energy over the day, in MWh."""
    d = result.step_minutes / 60.0
    schedule = result.schedule
    spill = schedule.wind_spill + schedule.solar_spill
    return float(np.sum(schedule.shed) * d), float(np.sum(spill) * d)


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


def _mode_day(system: PowerSystem, plan: DayAheadPlan, rt: RealTimeResult) -> ModeDay:
    """One mode's day from its plan and real-time result. Raises ValueError
    when the day served no energy, so its shares are undefined."""
    shed, spill = shed_and_spill(rt)
    return ModeDay(rt.cost, generation_shares(rt, system), plan.solve_time, rt.solve_time, shed, spill)


def _side_by_side(ch_step: Callable[[], T], ta_step: Callable[[], T]) -> tuple[T, T]:
    """Run ta_step on a worker thread while ch_step runs on this one; return (ch, ta).

    A step is one mode's day (compare_day) or one mode's whole chain
    (run_rolling_horizon); neither waits for the other. The two modes share
    nothing, and HiGHS releases the GIL while it solves, so the two modes'
    solves overlap. An exception from either step propagates here once the
    worker has finished.
    """
    with ThreadPoolExecutor(max_workers=1, thread_name_prefix="tauc-ta") as worker:
        ta = worker.submit(ta_step)
        ch = ch_step()
    return ch, ta.result()


def compare_day(
    system: PowerSystem,
    window: HiResSeries,
    day_label: str,
    features: str = "net_demand_only",
    config: BackendConfig | None = None,
) -> tuple[ComparisonReport, RealTimeResult, RealTimeResult]:
    """Run both modes on one window, side by side, and assemble the day's report."""
    steps = [functools.partial(run_one_mode, system, window, mode, features, config, day_label)
             for mode in MODES]
    ch, ta = _side_by_side(*steps)
    report = ComparisonReport(day_label, _mode_day(system, *ch), _mode_day(system, *ta))
    return report, ch[1], ta[1]


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
    and output, with their clocks at the 24 h cap.
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
            units = tuple(dataclasses.replace(unit, hours0=24.0) for unit in system.units)
        else:
            yield label, (plan, rt)
            units = rt.next_units
        system = dataclasses.replace(system, units=units)


def _mode_days(
    system: PowerSystem, chain: Iterator[tuple[str, tuple[DayAheadPlan, RealTimeResult] | str]]
) -> list[tuple[str, ModeDay | str]]:
    """Run one mode's chain to its end, keeping (label, ModeDay) for each
    solved day and (label, reason) for each day that failed or served no
    energy."""
    days = []
    for label, out in chain:
        if not isinstance(out, str):
            try:
                out = _mode_day(system, *out)
            except ValueError as exc:  # no energy served, so no shares
                out = str(exc)
        days.append((label, out))
    return days


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

    Each mode runs its own chain (see run_chain) to its end, the TA chain
    on a worker thread while the CH chain runs on this one, and reduces
    each day to a ModeDay as it comes. The reports then join the two
    chains by date. Days outside the requested date range are left out; a
    day that fails or serves no energy in either mode, or a trace without
    one complete day, gives a warning record instead of a result.
    """
    if next(day_windows(trace, lookahead_hours), None) is None:
        first = _sample_date(trace, _first_midnight(trace))
        return [ComparisonReport(first.isoformat(), warning="day skipped: trace shorter than one full day")]
    chains = [
        run_chain(system, trace, mode, lookahead_hours, features, config, start_date, end_date)
        for mode in MODES
    ]
    ch_days, ta_days = _side_by_side(*(functools.partial(_mode_days, system, chain) for chain in chains))
    reports = []
    for (label, ch), (_, ta) in zip(ch_days, ta_days, strict=True):  # both chains walk the same days
        failed = [f"{mode}: {out}" for mode, out in zip(MODES, (ch, ta)) if isinstance(out, str)]
        if failed:
            reports.append(ComparisonReport(label, warning="day skipped: " + "; ".join(failed)))
        else:
            reports.append(ComparisonReport(label, ch, ta))
    return reports
