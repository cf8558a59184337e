"""Duration-aware unit-commitment MILP over variable-length periods.

The formulation prices energy per period as power times duration and rescales
every inter-period coupling quantity (ramp room, minimum up and down times) by
the actual period lengths, so the same builder serves uniform hourly grids and
clustered grids alike. Served demand is elastic up to the forecast at a load
shedding price, and renewable injections are free but curtailable, which keeps
every instance feasible for any commitment.
"""
from __future__ import annotations

import dataclasses
import math
from dataclasses import dataclass
from typing import Mapping, Sequence

import numpy as np

from .aggregation import ReducedPeriod

FLEX_CLASSES = ("base", "medium", "peak")

_SUM_TOL = 1e-9  # slack when a duration sum must reach an hour threshold


@dataclass(frozen=True)
class ThermalUnit:
    """One dispatchable generator with its technical data and initial state.

    Ramp rates are MW per hour; None means the unit is not ramp limited.
    startup_ramp / shutdown_ramp default to max(pmin, ramp) when omitted.
    min_up / min_down are hours. The initial state carries the commitment at
    the instant before the horizon, how long it has held, and the dispatch.
    """

    unit_id: str
    flex_class: str
    pmin: float
    pmax: float
    marginal_cost: float
    startup_cost: float = 0.0
    ramp_up: float | None = None
    ramp_down: float | None = None
    startup_ramp: float | None = None
    shutdown_ramp: float | None = None
    min_up: float = 0.0
    min_down: float = 0.0
    u0: int = 0
    hours_on0: float = 0.0
    hours_off0: float = 24.0
    p0: float = 0.0

    def __post_init__(self) -> None:
        if self.flex_class not in FLEX_CLASSES:
            raise ValueError(f"unknown flexibility class {self.flex_class!r}")
        if not 0 <= self.pmin <= self.pmax:
            raise ValueError(f"{self.unit_id}: need 0 <= pmin <= pmax")
        for name in ("ramp_up", "ramp_down", "startup_ramp", "shutdown_ramp"):
            val = getattr(self, name)
            if val is not None and val <= 0:
                raise ValueError(f"{self.unit_id}: {name} must be positive or None")
        if self.min_up < 0 or self.min_down < 0:
            raise ValueError(f"{self.unit_id}: minimum times must be nonnegative")
        if self.startup_cost < 0:
            raise ValueError(f"{self.unit_id}: startup_cost must be nonnegative")
        if self.u0 not in (0, 1):
            raise ValueError(f"{self.unit_id}: u0 must be 0 or 1")
        if self.u0:
            if self.hours_on0 <= 0:
                raise ValueError(f"{self.unit_id}: an online unit needs hours_on0 > 0")
            if not self.pmin - 1e-9 <= self.p0 <= self.pmax + 1e-9:
                raise ValueError(f"{self.unit_id}: p0 outside [pmin, pmax] while online")
        else:
            if self.hours_off0 <= 0:
                raise ValueError(f"{self.unit_id}: an offline unit needs hours_off0 > 0")
            if self.p0 != 0.0:
                raise ValueError(f"{self.unit_id}: p0 must be 0 while offline")

    def resolved_startup_ramp(self) -> float | None:
        if self.startup_ramp is not None:
            return self.startup_ramp
        if self.ramp_up is None:
            return None
        return max(self.pmin, self.ramp_up)

    def resolved_shutdown_ramp(self) -> float | None:
        if self.shutdown_ramp is not None:
            return self.shutdown_ramp
        if self.ramp_down is None:
            return None
        return max(self.pmin, self.ramp_down)


@dataclass(frozen=True)
class PowerSystem:
    """Generators and renewable fleet sizes, independent of any window."""

    units: tuple[ThermalUnit, ...]
    wind_capacity: float
    solar_capacity: float
    load_shed_cost: float

    def __post_init__(self) -> None:
        object.__setattr__(self, "units", tuple(self.units))
        if not self.units:
            raise ValueError("system needs at least one unit")
        ids = [u.unit_id for u in self.units]
        if len(set(ids)) != len(ids):
            raise ValueError("unit ids must be unique")
        if self.wind_capacity < 0 or self.solar_capacity < 0:
            raise ValueError("capacities must be nonnegative")
        if self.load_shed_cost <= 0:
            raise ValueError("load_shed_cost must be positive")

    def with_units(self, units: tuple[ThermalUnit, ...]) -> "PowerSystem":
        return dataclasses.replace(self, units=tuple(units))


def period_durations(periods: Sequence[ReducedPeriod]) -> np.ndarray:
    """Durations in hours of a window's periods, which must be nonempty and positive."""
    if not periods:
        raise ValueError("a window needs at least one period")
    d = np.array([p.duration_h for p in periods])
    if np.any(d <= 0):
        raise ValueError("period durations must be positive")
    return d


def effective_ramp_limits(
    unit: ThermalUnit, durations: Sequence[float], d_prev: float | None = None
) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """Per-period ramp-up, ramp-down, startup and shutdown power limits.

    Each limit is the per-hour rate times the mean of the period's duration
    and the previous one's (the span over which an inter-period power change
    happens), clamped into [pmin, pmax]. d_prev is the duration of the last period of the previously solved
    window; a cold start reuses the first duration instead.
    """
    d = np.asarray(durations, dtype=float)
    if d.ndim != 1 or len(d) == 0 or np.any(d <= 0):
        raise ValueError("durations must be a nonempty positive vector")
    if d_prev is not None and d_prev <= 0:
        raise ValueError("d_prev must be positive")
    lead = d[0] if d_prev is None else d_prev
    d_hat = 0.5 * (np.concatenate(([lead], d[:-1])) + d)

    def clamp(rate: float | None) -> np.ndarray:
        if rate is None:
            return np.full_like(d_hat, unit.pmax)
        return np.minimum(unit.pmax, np.maximum(unit.pmin, rate * d_hat))

    return (
        clamp(unit.ramp_up),
        clamp(unit.ramp_down),
        clamp(unit.resolved_startup_ramp()),
        clamp(unit.resolved_shutdown_ramp()),
    )


def _forward_cover(d: np.ndarray, start: int, threshold: float) -> int:
    """Smallest k with d[start:start+k] summing to threshold; capped at the tail."""
    if threshold <= _SUM_TOL:
        return 0
    acc = 0.0
    for k in range(start, len(d)):
        acc += d[k]
        if acc >= threshold - _SUM_TOL:
            return k - start + 1
    return len(d) - start


def _backward_cover(d: np.ndarray, threshold: float) -> int:
    if threshold <= _SUM_TOL:
        return 0
    acc = 0.0
    for k in range(len(d) - 1, -1, -1):
        acc += d[k]
        if acc >= threshold - _SUM_TOL:
            return len(d) - k
    return len(d)


def effective_min_times(
    unit: ThermalUnit, durations: Sequence[float]
) -> tuple[int, int, np.ndarray, int, int, np.ndarray]:
    """Minimum up/down times converted into period counts for one unit.

    Returns (ut_init, ut_end, ut_counts, dt_init, dt_end, dt_counts):
    the number of leading periods the initial state pins, the number of
    trailing periods whose duration sum first reaches the threshold, and the
    per-period counts used by the rolling-window constraints.
    """
    d = np.asarray(durations, dtype=float)
    n = len(d)

    def family(threshold_h: float, init_hours: float) -> tuple[int, int, np.ndarray]:
        if threshold_h <= 0:
            return 0, 0, np.zeros(n, dtype=int)
        init = _forward_cover(d, 0, init_hours)
        end = _backward_cover(d, threshold_h)
        counts = np.array([_forward_cover(d, t, threshold_h) for t in range(n)], dtype=int)
        return init, end, counts

    ut_pin = max(0.0, (unit.min_up - unit.hours_on0)) * unit.u0
    dt_pin = max(0.0, (unit.min_down - unit.hours_off0)) * (1 - unit.u0)
    ut_init, ut_end, ut_counts = family(unit.min_up, ut_pin)
    dt_init, dt_end, dt_counts = family(unit.min_down, dt_pin)
    return ut_init, ut_end, ut_counts, dt_init, dt_end, dt_counts


# ---------------------------------------------------------------------------
# model container
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class Variable:
    name: str
    lb: float
    ub: float
    binary: bool = False


@dataclass(frozen=True)
class Row:
    """One linear constraint: coeffs . x (sense) rhs."""

    label: str
    coeffs: Mapping[str, float]
    sense: str
    rhs: float

    def __post_init__(self) -> None:
        if self.sense not in ("<=", ">=", "="):
            raise ValueError(f"{self.label}: unknown sense {self.sense!r}")


@dataclass(frozen=True)
class UcModel:
    """Solver-agnostic MILP: variables with bounds, rows, linear objective.

    The objective is minimized and carries a constant offset so that reported
    objective values equal the full operating cost. Fixed variables are those
    whose bounds coincide. pruned_violations lists rows that were dropped
    because every variable in them was fixed, together with the amount by
    which the frozen values violate them (normally zero).
    """

    variables: tuple[Variable, ...]
    constraints: tuple[Row, ...]
    objective: Mapping[str, float]
    objective_offset: float = 0.0
    pruned_violations: tuple[tuple[str, float], ...] = ()

    def __post_init__(self) -> None:
        names = [v.name for v in self.variables]
        if len(set(names)) != len(names):
            raise ValueError("variable names must be unique")
        known = set(names)
        labels = [r.label for r in self.constraints]
        if len(set(labels)) != len(labels):
            raise ValueError("constraint labels must be unique")
        for row in self.constraints:
            for name, coef in row.coeffs.items():
                if name not in known:
                    raise ValueError(f"row {row.label} references unknown variable {name}")
                if not math.isfinite(coef):
                    raise ValueError(f"row {row.label} has non-finite coefficient on {name}")
        for name, coef in self.objective.items():
            if name not in known:
                raise ValueError(f"objective references unknown variable {name}")
            if not math.isfinite(coef):
                raise ValueError(f"objective has non-finite coefficient on {name}")

    @property
    def variable_map(self) -> dict[str, Variable]:
        return {v.name: v for v in self.variables}

    @property
    def binary_names(self) -> tuple[str, ...]:
        return tuple(v.name for v in self.variables if v.binary)

    @property
    def n_binaries(self) -> int:
        return sum(1 for v in self.variables if v.binary)


def u_name(unit_id: str, t: int) -> str:
    return f"u_{unit_id}_{t}"


def pg_name(unit_id: str, t: int) -> str:
    return f"pg_{unit_id}_{t}"


def su_name(unit_id: str, t: int) -> str:
    return f"su_{unit_id}_{t}"


def pw_name(t: int) -> str:
    return f"pw_{t}"


def ps_name(t: int) -> str:
    return f"ps_{t}"


def pd_name(t: int) -> str:
    return f"pd_{t}"


def _add(coeffs: dict[str, float], name: str, value: float) -> None:
    if value == 0.0:
        return
    acc = coeffs.get(name, 0.0) + value
    if acc == 0.0:
        coeffs.pop(name, None)
    else:
        coeffs[name] = acc


def build_uc_model(
    system: PowerSystem,
    periods: Sequence[ReducedPeriod],
    fixings: Mapping[str, float] | None = None,
) -> UcModel:
    """Build the commitment MILP for one system over one window of periods.

    Each unit's ramp limits and minimum-time counts are rescaled to the
    period durations (effective_ramp_limits, effective_min_times). fixings
    maps variable names to frozen values and is applied as equality bounds.
    Rows whose variables are all fixed are removed (they are constants); any
    such row the frozen values violate is reported in pruned_violations
    rather than making the model infeasible, which is what a simulation of a
    committed plan needs.
    """
    d = period_durations(periods)
    nt = len(d)

    variables: list[Variable] = []
    for unit in system.units:
        variables.extend(Variable(u_name(unit.unit_id, t), 0.0, 1.0, binary=True) for t in range(1, nt + 1))
    for unit in system.units:
        variables.extend(Variable(pg_name(unit.unit_id, t), 0.0, unit.pmax) for t in range(1, nt + 1))
    for unit in system.units:
        variables.extend(Variable(su_name(unit.unit_id, t), 0.0, math.inf) for t in range(1, nt + 1))
    variables.extend(
        Variable(pw_name(t), 0.0, periods[t - 1].wind_cf * system.wind_capacity) for t in range(1, nt + 1)
    )
    variables.extend(
        Variable(ps_name(t), 0.0, periods[t - 1].solar_cf * system.solar_capacity) for t in range(1, nt + 1)
    )
    variables.extend(Variable(pd_name(t), 0.0, periods[t - 1].demand_mw) for t in range(1, nt + 1))

    rows: list[Row] = []
    for t in range(1, nt + 1):
        coeffs: dict[str, float] = {}
        for unit in system.units:
            _add(coeffs, pg_name(unit.unit_id, t), 1.0)
        _add(coeffs, pw_name(t), 1.0)
        _add(coeffs, ps_name(t), 1.0)
        _add(coeffs, pd_name(t), -1.0)
        rows.append(Row(f"bal_{t}", coeffs, "=", 0.0))

    for unit in system.units:
        uid = unit.unit_id
        ru_hat, rd_hat, su_hat, sd_hat = effective_ramp_limits(unit, d)
        ut_init, ut_end, ut_counts, dt_init, dt_end, dt_counts = effective_min_times(unit, d)
        # commitment-linked dispatch bounds
        for t in range(1, nt + 1):
            coeffs = {pg_name(uid, t): 1.0}
            _add(coeffs, u_name(uid, t), -unit.pmin)
            rows.append(Row(f"onmin_{uid}_{t}", coeffs, ">=", 0.0))
            coeffs = {pg_name(uid, t): 1.0}
            _add(coeffs, u_name(uid, t), -unit.pmax)
            rows.append(Row(f"onmax_{uid}_{t}", coeffs, "<=", 0.0))
        # start-up cost recovery
        for t in range(1, nt + 1):
            coeffs = {su_name(uid, t): 1.0}
            rhs = 0.0
            _add(coeffs, u_name(uid, t), -unit.startup_cost)
            if t > 1:
                _add(coeffs, u_name(uid, t - 1), unit.startup_cost)
            else:
                rhs = -unit.startup_cost * unit.u0
            rows.append(Row(f"sucost_{uid}_{t}", coeffs, ">=", rhs))
        # ramping, skipped entirely for rate-unlimited units (rows are vacuous
        # once every limit clamps to pmax)
        emit_up = unit.ramp_up is not None or unit.startup_ramp is not None
        emit_dn = unit.ramp_down is not None or unit.shutdown_ramp is not None
        for t, ru, rd, suh, sdh in zip(range(1, nt + 1), ru_hat, rd_hat, su_hat, sd_hat):
            if emit_up:
                coeffs = {pg_name(uid, t): 1.0}
                rhs = unit.pmax
                _add(coeffs, u_name(uid, t), unit.pmax - suh)
                if t > 1:
                    _add(coeffs, pg_name(uid, t - 1), -1.0)
                    _add(coeffs, u_name(uid, t - 1), suh - ru)
                else:
                    rhs += unit.p0 + (ru - suh) * unit.u0
                rows.append(Row(f"rampup_{uid}_{t}", coeffs, "<=", rhs))
            if emit_dn:
                coeffs = {pg_name(uid, t): -1.0}
                rhs = unit.pmax
                _add(coeffs, u_name(uid, t), sdh - rd)
                if t > 1:
                    _add(coeffs, pg_name(uid, t - 1), 1.0)
                    _add(coeffs, u_name(uid, t - 1), unit.pmax - sdh)
                else:
                    rhs += -unit.p0 - (unit.pmax - sdh) * unit.u0
                rows.append(Row(f"rampdn_{uid}_{t}", coeffs, "<=", rhs))
        if emit_dn:
            for t, sdh in zip(range(1, nt), sd_hat):
                coeffs = {pg_name(uid, t): 1.0}
                _add(coeffs, u_name(uid, t + 1), sdh - unit.pmax)
                _add(coeffs, u_name(uid, t), -sdh)
                rows.append(Row(f"sdramp_{uid}_{t}", coeffs, "<=", 0.0))
        # minimum up time
        if unit.min_up > 0:
            pin, end = ut_init, ut_end
            if pin >= 1:
                coeffs = {u_name(uid, t): 1.0 for t in range(1, pin + 1)}
                rows.append(Row(f"upinit_{uid}", coeffs, "=", float(pin)))
            for t in range(pin + 1, nt - end + 2):
                omega = int(ut_counts[t - 1])
                coeffs = {}
                for tau in range(t, t + omega):
                    _add(coeffs, u_name(uid, tau), 1.0)
                rhs = 0.0
                _add(coeffs, u_name(uid, t), -float(omega))
                if t > 1:
                    _add(coeffs, u_name(uid, t - 1), float(omega))
                else:
                    rhs = -float(omega) * unit.u0
                rows.append(Row(f"up_{uid}_{t}", coeffs, ">=", rhs))
            for t in range(max(2, nt - end + 2), nt + 1):
                k = float(nt - t + 1)
                coeffs = {}
                for tau in range(t, nt + 1):
                    _add(coeffs, u_name(uid, tau), 1.0)
                _add(coeffs, u_name(uid, t), -k)
                _add(coeffs, u_name(uid, t - 1), k)
                rows.append(Row(f"upend_{uid}_{t}", coeffs, ">=", 0.0))
        # minimum down time
        if unit.min_down > 0:
            pin, end = dt_init, dt_end
            if pin >= 1:
                coeffs = {u_name(uid, t): 1.0 for t in range(1, pin + 1)}
                rows.append(Row(f"dninit_{uid}", coeffs, "=", 0.0))
            for t in range(pin + 1, nt - end + 2):
                omega = int(dt_counts[t - 1])
                coeffs = {}
                for tau in range(t, t + omega):
                    _add(coeffs, u_name(uid, tau), -1.0)
                rhs = -float(omega)
                _add(coeffs, u_name(uid, t), float(omega))
                if t > 1:
                    _add(coeffs, u_name(uid, t - 1), -float(omega))
                else:
                    rhs += float(omega) * unit.u0
                rows.append(Row(f"dn_{uid}_{t}", coeffs, ">=", rhs))
            for t in range(max(2, nt - end + 2), nt + 1):
                k = float(nt - t + 1)
                coeffs = {}
                for tau in range(t, nt + 1):
                    _add(coeffs, u_name(uid, tau), -1.0)
                _add(coeffs, u_name(uid, t), k)
                _add(coeffs, u_name(uid, t - 1), -k)
                rows.append(Row(f"dnend_{uid}_{t}", coeffs, ">=", -k))

    objective: dict[str, float] = {}
    offset = 0.0
    for unit in system.units:
        for t in range(1, nt + 1):
            _add(objective, pg_name(unit.unit_id, t), unit.marginal_cost * d[t - 1])
            _add(objective, su_name(unit.unit_id, t), 1.0)
    for t in range(1, nt + 1):
        _add(objective, pd_name(t), -system.load_shed_cost * d[t - 1])
        offset += system.load_shed_cost * d[t - 1] * periods[t - 1].demand_mw

    if fixings:
        by_name = {v.name: i for i, v in enumerate(variables)}
        for name, value in fixings.items():
            if name not in by_name:
                raise KeyError(f"cannot fix unknown variable {name!r}")
            var = variables[by_name[name]]
            if var.binary:
                if abs(value - round(value)) > 1e-9 or round(value) not in (0, 1):
                    raise ValueError(f"{name}: binary fixing must be 0 or 1, got {value}")
                value = float(round(value))
            if not var.lb - 1e-9 <= value <= var.ub + 1e-9:
                raise ValueError(f"{name}: fixing {value} outside bounds [{var.lb}, {var.ub}]")
            variables[by_name[name]] = Variable(var.name, value, value, var.binary)

    pruned: list[tuple[str, float]] = []
    fixed_vals = {v.name: v.lb for v in variables if v.lb == v.ub}
    kept: list[Row] = []
    for row in rows:
        if row.coeffs and all(n in fixed_vals for n in row.coeffs):
            value = sum(c * fixed_vals[n] for n, c in row.coeffs.items())
            if row.sense == "<=":
                violation = max(0.0, value - row.rhs)
            elif row.sense == ">=":
                violation = max(0.0, row.rhs - value)
            else:
                violation = abs(value - row.rhs)
            if violation > 1e-6:
                pruned.append((row.label, violation))
        else:
            kept.append(row)

    return UcModel(
        variables=tuple(variables),
        constraints=tuple(kept),
        objective=objective,
        objective_offset=offset,
        pruned_violations=tuple(pruned),
    )


# ---------------------------------------------------------------------------
# solution unpacking
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class Schedule:
    """Solved operating plan on one grid, in physical quantities.

    Unit-indexed arrays follow the system's unit order; column t is period
    t+1. shed and spill entries are derived from the balance variables and
    clamped of numerical dust (they are asserted nonnegative to 1e-6 first).
    """

    commitment: np.ndarray
    dispatch: np.ndarray
    startup_cost: np.ndarray
    p_wind: np.ndarray
    p_solar: np.ndarray
    p_served: np.ndarray
    shed: np.ndarray
    wind_spill: np.ndarray
    solar_spill: np.ndarray


def extract_schedule(
    system: PowerSystem, periods: Sequence[ReducedPeriod], values: Mapping[str, float]
) -> Schedule:
    """Turn a solution's variable values into a Schedule."""
    nt = len(periods)
    g = len(system.units)
    commitment = np.zeros((g, nt), dtype=int)
    dispatch = np.zeros((g, nt))
    startup = np.zeros((g, nt))
    for i, unit in enumerate(system.units):
        for t in range(1, nt + 1):
            uval = values[u_name(unit.unit_id, t)]
            if abs(uval - round(uval)) > 1e-6:
                raise ValueError(f"{u_name(unit.unit_id, t)} is not integral: {uval}")
            commitment[i, t - 1] = int(round(uval))
            dispatch[i, t - 1] = values[pg_name(unit.unit_id, t)]
            startup[i, t - 1] = values[su_name(unit.unit_id, t)]
    p_wind = np.array([values[pw_name(t)] for t in range(1, nt + 1)])
    p_solar = np.array([values[ps_name(t)] for t in range(1, nt + 1)])
    p_served = np.array([values[pd_name(t)] for t in range(1, nt + 1)])
    demand = np.array([p.demand_mw for p in periods])
    wind_avail = np.array([p.wind_cf for p in periods]) * system.wind_capacity
    solar_avail = np.array([p.solar_cf for p in periods]) * system.solar_capacity
    shed = demand - p_served
    wind_spill = wind_avail - p_wind
    solar_spill = solar_avail - p_solar
    for name, arr in (("shed", shed), ("wind spill", wind_spill), ("solar spill", solar_spill)):
        if np.any(arr < -1e-6):
            raise ValueError(f"negative {name} of {arr.min():g} MW in solution")
    return Schedule(
        commitment=commitment,
        dispatch=dispatch,
        startup_cost=startup,
        p_wind=np.clip(p_wind, 0.0, None),
        p_solar=np.clip(p_solar, 0.0, None),
        p_served=np.clip(p_served, 0.0, None),
        shed=np.clip(shed, 0.0, None),
        wind_spill=np.clip(wind_spill, 0.0, None),
        solar_spill=np.clip(solar_spill, 0.0, None),
    )


def operating_cost(
    system: PowerSystem,
    periods: Sequence[ReducedPeriod],
    schedule: Schedule,
    span: slice | None = None,
) -> float:
    """Operating cost of (part of) a schedule: energy, start-ups, shed penalty."""
    sl = span if span is not None else slice(None)
    d = period_durations(periods)[sl]
    cost = 0.0
    for i, unit in enumerate(system.units):
        cost += float(np.sum(unit.marginal_cost * schedule.dispatch[i, sl] * d))
        cost += float(np.sum(schedule.startup_cost[i, sl]))
    cost += float(system.load_shed_cost * np.sum(schedule.shed[sl] * d))
    return cost
