"""Duration-aware unit-commitment MILP over variable-length periods.

The formulation prices energy per period as power times duration and rescales
every inter-period coupling quantity (ramp room, minimum up and down times) by
the actual period lengths, so the same builder serves uniform hourly grids and
clustered grids alike. Load may be shed up to the forecast at a load shedding
price, and renewable injections are free but curtailable, so a shortfall or a
renewable surplus never makes an instance infeasible; thermal output held
above demand by commitments or fixings still does.
"""
from __future__ import annotations

import dataclasses
import functools
import math
from dataclasses import dataclass
from typing import Mapping, Sequence

import numpy as np

from .aggregation import ReducedSeries

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
        if self.marginal_cost < 0:
            raise ValueError(f"{self.unit_id}: marginal_cost must be nonnegative")
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


def period_durations(periods: ReducedSeries) -> np.ndarray:
    """Durations in hours of a window's periods, which must be nonempty and positive."""
    d = periods.duration_h
    if len(d) == 0 or np.any(d <= 0):
        raise ValueError("a window needs at least one period, and period durations must be positive")
    return d


def effective_ramp_limits(
    unit: ThermalUnit, durations: Sequence[float]
) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """Per-period ramp-up, ramp-down, startup and shutdown power limits.

    Each limit is the per-hour rate times the mean of the period's duration
    and the previous one's (the span over which an inter-period power change
    happens), clamped into [pmin, pmax]. The first period has no previous
    one in the window, so its span is its own duration, also when the window
    continues a previously solved day.
    """
    d = np.asarray(durations, dtype=float)
    if d.ndim != 1 or len(d) == 0 or np.any(d <= 0):
        raise ValueError("durations must be a nonempty positive vector")
    d_hat = 0.5 * (np.concatenate((d[:1], d[:-1])) + d)

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
    """Read-only view of one column (see UcModel.variables)."""

    name: str
    lb: float
    ub: float
    binary: bool = False


@dataclass(frozen=True)
class Row:
    """Read-only view of one linear constraint: coeffs . x (sense) rhs."""

    label: str
    coeffs: Mapping[str, float]
    sense: str
    rhs: float

    def __post_init__(self) -> None:
        if self.sense not in ("<=", ">=", "="):
            raise ValueError(f"{self.label}: unknown sense {self.sense!r}")


def row_sense(lo: float, hi: float) -> tuple[str, float]:
    """(sense, rhs) of a row with bounds lo <= a.x <= hi, one side infinite or both equal."""
    if lo == hi:
        return "=", lo
    if lo == -math.inf:
        return "<=", hi
    if hi == math.inf:
        return ">=", lo
    raise ValueError(f"a row bounded on both sides ({lo}, {hi}) has no single sense")


@dataclass(frozen=True, eq=False)
class Names:
    """Names of a model's columns or rows, made into strings only on request.

    Item i is called stems[stem[i]], followed by "_<t[i]>" when t[i] > 0.
    """

    stems: tuple[str, ...]
    stem: np.ndarray
    t: np.ndarray

    def __len__(self) -> int:
        return len(self.stem)

    def __getitem__(self, i: int) -> str:
        base = self.stems[self.stem[i]]
        return f"{base}_{self.t[i]}" if self.t[i] else base

    def tolist(self) -> list[str]:
        stems = self.stems
        return [f"{stems[s]}_{t}" if t else stems[s] for s, t in zip(self.stem.tolist(), self.t.tolist())]

    def take(self, keep: np.ndarray) -> "Names":
        return Names(self.stems, self.stem[keep], self.t[keep])


@dataclass(frozen=True, eq=False)
class UcModel:
    """Solver-agnostic MILP held as arrays.

    Minimize c @ x subject to row_lb <= A x <= row_ub and lb <= x <= ub,
    with x[j] binary where integrality[j] is 1; c @ x is the operating cost.
    A is kept as the triplets (rows, cols, vals), sorted by row and, within
    a row, in the order the builder wrote the terms, so the sparse matrix
    HiGHS receives and the views below are reproducible.

    Names are made only for error and audit messages, pruned_violations and
    the read-only views variables and constraints, which are built on first
    use. Fixed columns are those whose bounds coincide.
    pruned_violations lists rows that were dropped because none of their
    terms is on a free column, together with the amount by which the frozen
    values violate them (normally zero).
    """

    col_names: Names
    lb: np.ndarray
    ub: np.ndarray
    c: np.ndarray
    integrality: np.ndarray
    row_names: Names
    row_lb: np.ndarray
    row_ub: np.ndarray
    rows: np.ndarray
    cols: np.ndarray
    vals: np.ndarray
    pruned_violations: tuple[tuple[str, float], ...] = ()

    def __post_init__(self) -> None:
        n, m = len(self.col_names), len(self.row_names)
        if not len(self.lb) == len(self.ub) == len(self.c) == len(self.integrality) == n:
            raise ValueError("bounds, costs and integrality need one entry per column")
        if not len(self.row_lb) == len(self.row_ub) == m:
            raise ValueError("row bounds need one entry per row")
        if not len(self.rows) == len(self.cols) == len(self.vals):
            raise ValueError("triplet arrays differ in length")
        if len(self.rows):
            if self.rows[0] < 0 or self.rows[-1] >= m or np.any(np.diff(self.rows) < 0):
                raise ValueError("triplet rows must be sorted and name existing rows")
            if self.cols.min() < 0 or self.cols.max() >= n:
                raise ValueError("triplets reference an unknown column")
        if not (np.all(np.isfinite(self.vals)) and np.all(np.isfinite(self.c))):
            raise ValueError("coefficients must be finite")

    @property
    def n_cols(self) -> int:
        return len(self.c)

    @property
    def n_rows(self) -> int:
        return len(self.row_lb)

    @property
    def n_binaries(self) -> int:
        return int(np.count_nonzero(self.integrality))

    def row_activity(self, x: np.ndarray) -> np.ndarray:
        """A @ x, summed row by row in triplet order."""
        return np.bincount(self.rows, weights=self.vals * x[self.cols], minlength=self.n_rows)

    @functools.cached_property
    def variables(self) -> tuple[Variable, ...]:
        """Read-only view: one Variable per column, in column order."""
        binary = (self.integrality == 1).tolist()
        return tuple(map(Variable, self.col_names.tolist(), self.lb.tolist(), self.ub.tolist(), binary))

    @functools.cached_property
    def constraints(self) -> tuple[Row, ...]:
        """Read-only view: one Row per row, terms in their written order."""
        names = self.col_names.tolist()
        cols, vals = self.cols.tolist(), self.vals.tolist()
        stops = np.searchsorted(self.rows, np.arange(1, self.n_rows + 1)).tolist()
        out = []
        start = 0
        for label, lo, hi, stop in zip(self.row_names.tolist(), self.row_lb.tolist(), self.row_ub.tolist(), stops):
            coeffs = {names[j]: v for j, v in zip(cols[start:stop], vals[start:stop])}
            out.append(Row(label, coeffs, *row_sense(lo, hi)))
            start = stop
        return tuple(out)


@dataclass(frozen=True, eq=False)
class Fixings:
    """Frozen values of a model's u and pg columns.

    commitment and dispatch are (units, periods) arrays in the system's unit
    order, column t being period t+1; NaN leaves a column free.
    """

    commitment: np.ndarray
    dispatch: np.ndarray


def _blocks(n_units: int, nt: int) -> tuple[slice, ...]:
    """Column slices of u, pg and su (each unit-major, then period) and of pw, ps and shed."""
    gt = n_units * nt
    starts = (0, gt, 2 * gt, 3 * gt, 3 * gt + nt, 3 * gt + 2 * nt)
    sizes = (gt, gt, gt, nt, nt, nt)
    return tuple(slice(a, a + size) for a, size in zip(starts, sizes))


class _RowWriter:
    """Row families in the order they are written: triplets, bounds and names."""

    def __init__(self) -> None:
        self.stems: list[str] = []
        self.parts: list[tuple[np.ndarray, ...]] = []
        self.n = 0

    def add(self, stems, which, t, lo, hi, *terms) -> None:
        """Append len(which) rows; row i is named stems[which[i]] (plus _t[i])
        and bounded by lo and hi (scalars or one value per row).

        Each term is (local row, column, value) with one entry per row it
        touches. A row's terms keep the order of the term arguments, and zero
        values are left out, as a written row never carries a zero.
        """
        m = len(which)
        if m == 0:
            return
        r = np.concatenate([term[0] for term in terms])
        c = np.concatenate([term[1] for term in terms])
        v = np.concatenate([np.broadcast_to(np.asarray(term[2], dtype=float), len(term[0])) for term in terms])
        keep = v != 0.0
        order = np.argsort(r[keep], kind="stable")
        self.parts.append((
            r[keep][order] + self.n,
            c[keep][order],
            v[keep][order],
            np.asarray(which) + len(self.stems),
            np.asarray(t),
            np.broadcast_to(np.asarray(lo, dtype=float), m),
            np.broadcast_to(np.asarray(hi, dtype=float), m),
        ))
        self.stems.extend(stems)
        self.n += m

    def arrays(self) -> tuple[np.ndarray, ...]:
        return tuple(np.concatenate(part) for part in zip(*self.parts))


def build_uc_model(
    system: PowerSystem,
    periods: ReducedSeries,
    fixings: Fixings | None = None,
) -> UcModel:
    """Build the commitment MILP for one system over one window of periods.

    Each unit's ramp limits and minimum-time counts are rescaled to the
    period durations (effective_ramp_limits, effective_min_times). Each row
    family is written with index arrays over (unit, period). su counts
    start-ups (su_t >= u_t - u_{t-1}, priced at the unit's startup_cost); a
    unit whose start-ups are free has its su columns pinned to 0 and no
    start-up rows. The rampup and rampdn rows relax their limit, when the
    unit is off in t (rampup) or in t-1 (rampdn), by
    M_t = max(0, SU_t - RU_t - pmin) (rampdn: SD_t - RD_t - pmin) where the
    paper uses pmax: onmin keeps a committed unit at pmin or above, so both
    forms admit the same integer points, and the smaller M_t lifts the LP
    bound. M_t is 0 for every unit of the built-in portfolios. Shed load
    is its own column, priced at the shed cost, so every entry of c is
    nonnegative and c @ x is the operating cost. fixings freezes u and pg
    columns through equality bounds.
    Rows with no term on a free column are removed (they are constants); any
    such row the frozen values violate is reported in pruned_violations
    rather than making the model infeasible, which is what a simulation of a
    committed plan needs.
    """
    d = period_durations(periods)
    nt = len(d)
    units = system.units
    ng = len(units)
    blocks = _blocks(ng, nt)
    s_u, s_pg, s_su, s_pw, s_ps, s_shed = blocks
    n = blocks[-1].stop
    col = np.arange(n)
    u, pg, su = (col[s].reshape(ng, nt) for s in (s_u, s_pg, s_su))
    pw, ps, shed = col[s_pw], col[s_ps], col[s_shed]
    tt = np.arange(1, nt + 1)
    loc = tt - 1  # local row of period t in a one-row-per-period family
    demand = periods.demand_mw

    col_names = Names(
        tuple(f"{kind}_{unit.unit_id}" for kind in ("u", "pg", "su") for unit in units) + ("pw", "ps", "shed"),
        np.repeat(np.arange(3 * ng + 3), nt),
        np.tile(tt, 3 * ng + 3),
    )
    lb = np.zeros(n)
    ub = np.empty(n)
    ub[s_u] = 1.0
    ub[s_pg] = np.repeat([unit.pmax for unit in units], nt)
    # a start-up indicator per unit and period, pinned to 0 when start-ups are free
    su_cost = np.array([unit.startup_cost for unit in units], dtype=float)
    ub[s_su] = np.repeat(np.where(su_cost > 0, math.inf, 0.0), nt)
    ub[s_pw] = periods.wind_cf * system.wind_capacity
    ub[s_ps] = periods.solar_cf * system.solar_capacity
    ub[s_shed] = demand
    integrality = np.zeros(n, dtype=np.uint8)
    integrality[s_u] = 1

    c = np.zeros(n)
    c[s_pg] = (np.array([unit.marginal_cost for unit in units], dtype=float)[:, None] * d).ravel()
    c[s_su] = np.repeat(su_cost, nt)
    c[s_shed] = system.load_shed_cost * d

    rows = _RowWriter()
    rows.add(["bal"], np.zeros(nt, dtype=int), tt, demand, demand,
             *((loc, pg[g], 1.0) for g in range(ng)), (loc, pw, 1.0), (loc, ps, 1.0), (loc, shed, 1.0))

    for g, unit in enumerate(units):
        uid = unit.unit_id
        ug, pgg = u[g], pg[g]
        ru_hat, rd_hat, su_hat, sd_hat = effective_ramp_limits(unit, d)
        ut_init, ut_end, ut_counts, dt_init, dt_end, dt_counts = effective_min_times(unit, d)
        # commitment-linked dispatch bounds, onmin and onmax alternating by period
        pair = np.arange(2 * nt)
        rows.add([f"onmin_{uid}", f"onmax_{uid}"], np.tile([0, 1], nt), np.repeat(tt, 2),
                 np.tile([0.0, -math.inf], nt), np.tile([math.inf, 0.0], nt),
                 (pair, np.repeat(pgg, 2), 1.0),
                 (pair, np.repeat(ug, 2), np.tile([-unit.pmin, -unit.pmax], nt)))
        # start-up indicators, su_t >= u_t - u_{t-1}; none for free start-ups
        if unit.startup_cost > 0:
            lo = np.zeros(nt)
            lo[0] = -unit.u0
            rows.add([f"sucost_{uid}"], np.zeros(nt, dtype=int), tt, lo, math.inf,
                     (loc, su[g], 1.0), (loc, ug, -1.0), (loc[1:], ug[:-1], 1.0))
        # ramping, skipped entirely for rate-unlimited units (rows are vacuous
        # once every limit clamps to pmax); rampup and rampdn alternate by
        # period. m is each row's big-M, smaller than the paper's pmax (see above)
        emit_up = unit.ramp_up is not None or unit.startup_ramp is not None
        emit_dn = unit.ramp_down is not None or unit.shutdown_ramp is not None
        families = []
        if emit_up:
            m = np.maximum(0.0, su_hat - ru_hat - unit.pmin)
            first = m[0] + (unit.p0 + (ru_hat[0] - su_hat[0]) * unit.u0)
            families.append(("rampup", m, first, (pgg, 1.0), (ug, m - su_hat),
                             (pgg[:-1], -1.0), (ug[:-1], su_hat[1:] - ru_hat[1:])))
        if emit_dn:
            m = np.maximum(0.0, sd_hat - rd_hat - unit.pmin)
            first = m[0] + (-unit.p0 - (m[0] - sd_hat[0]) * unit.u0)
            families.append(("rampdn", m, first, (pgg, -1.0), (ug, sd_hat - rd_hat),
                             (pgg[:-1], 1.0), (ug[:-1], m[1:] - sd_hat[1:])))
        if families:
            k = len(families)
            hi = np.empty((nt, k))
            terms = []
            for i, (_, m, first, now_p, now_u, prev_p, prev_u) in enumerate(families):
                hi[:, i] = m
                hi[0, i] = first
                r = loc * k + i
                terms += [(r, *now_p), (r, *now_u), (r[1:], *prev_p), (r[1:], *prev_u)]
            rows.add([f"{family[0]}_{uid}" for family in families], np.tile(np.arange(k), nt),
                     np.repeat(tt, k), -math.inf, hi.ravel(), *terms)
        if emit_dn:
            r = loc[:-1]
            rows.add([f"sdramp_{uid}"], np.zeros(nt - 1, dtype=int), tt[:-1], -math.inf, 0.0,
                     (r, pgg[:-1], 1.0), (r, ug[1:], sd_hat[:-1] - unit.pmax), (r, ug[:-1], -sd_hat[:-1]))
        # minimum up and down times
        for word, sign, hours, pin, end, counts in (
            ("up", 1.0, unit.min_up, ut_init, ut_end, ut_counts),
            ("dn", -1.0, unit.min_down, dt_init, dt_end, dt_counts),
        ):
            if hours <= 0:
                continue
            if pin >= 1:
                rhs = float(pin) if word == "up" else 0.0
                rows.add([f"{word}init_{uid}"], [0], [0], rhs, rhs, (np.zeros(pin, dtype=int), ug[:pin], 1.0))
            _add_window_rows(rows, word, uid, ug, sign, unit.u0, pin, end, counts)

    r, cols, vals, which, t, row_lb, row_ub = rows.arrays()
    row_names = Names(tuple(rows.stems), which, t)

    if fixings is not None:
        _apply_fixings(fixings, (ng, nt), col_names, integrality, lb, ub)

    # a row with no term on a free column is a constant: drop it, and report
    # by how much the frozen values violate it
    fixed = lb == ub
    drop = np.bincount(r[~fixed[cols]], minlength=rows.n) == 0
    pruned: tuple[tuple[str, float], ...] = ()
    if drop.any():
        # bincount adds each row's terms in their written order
        value = np.bincount(r, weights=vals * lb[cols], minlength=rows.n)[drop]
        lo, hi = row_lb[drop], row_ub[drop]
        violation = np.maximum(0.0, np.maximum(lo - value, value - hi))
        violated = violation > 1e-6
        pruned = tuple(zip(map(row_names.__getitem__, np.flatnonzero(drop)[violated].tolist()),
                           violation[violated].tolist()))
        keep = ~drop
        on_kept = keep[r]
        r = (np.cumsum(keep) - 1)[r[on_kept]]
        cols, vals = cols[on_kept], vals[on_kept]
        row_names, row_lb, row_ub = row_names.take(keep), row_lb[keep], row_ub[keep]

    return UcModel(
        col_names=col_names,
        lb=lb,
        ub=ub,
        c=c,
        integrality=integrality,
        row_names=row_names,
        row_lb=row_lb,
        row_ub=row_ub,
        rows=r,
        cols=cols,
        vals=vals,
        pruned_violations=pruned,
    )


def _apply_fixings(fixings: Fixings, shape: tuple[int, int], col_names: Names,
                   integrality: np.ndarray, lb: np.ndarray, ub: np.ndarray) -> None:
    """Narrow the bounds of each fixed u and pg column to its value.

    Binary values must be 0 or 1 (to 1e-9) and are rounded; every value must
    lie within the column's bounds (to 1e-9). The first fixing, in column
    order, that breaks a rule raises.
    """
    for name, given in (("commitment", fixings.commitment), ("dispatch", fixings.dispatch)):
        if np.shape(given) != shape:
            raise ValueError(f"{name} fixings have shape {np.shape(given)}, the model {shape}")
    # the u and pg blocks are the model's first columns, unit-major like the arrays
    given = np.concatenate((fixings.commitment, fixings.dispatch), axis=None)
    j = np.flatnonzero(~np.isnan(given))
    given = given[j]
    binary = integrality[j] == 1
    rounded = np.round(given)
    not_binary = binary & ((np.abs(given - rounded) > 1e-9) | ((rounded != 0.0) & (rounded != 1.0)))
    value = np.where(binary, rounded, given)
    inside = (lb[j] - 1e-9 <= value) & (value <= ub[j] + 1e-9)
    bad = not_binary | ~inside
    if bad.any():
        i = int(np.argmax(bad))
        name = col_names[j[i]]
        if not_binary[i]:
            raise ValueError(f"{name}: binary fixing must be 0 or 1, got {given[i]}")
        raise ValueError(f"{name}: fixing {value[i]} outside bounds [{lb[j[i]]}, {ub[j[i]]}]")
    lb[j] = value
    ub[j] = value


def _add_window_rows(rows: _RowWriter, word: str, uid: str, ug: np.ndarray, sign: float,
                     u0: int, pin: int, end: int, counts: np.ndarray) -> None:
    """Rolling-window rows of a minimum up (sign 1) or down (sign -1) time.

    The row of period t spans the w periods t..t+w-1 after t-1: with s the
    sign, s*(u[t..t+w-1] - w*u[t] + w*u[t-1]) >= rhs, so u[t] carries
    s*(1 - w) (nothing when w = 1) and u[t-1] carries s*w. Rows from pin+1
    on take w from counts; the end rows, whose window reaches the horizon,
    take w = nt - t + 1. Before the horizon, u[0] is the initial state u0.
    """
    nt = len(ug)
    start = np.arange(pin + 1, nt - end + 2)
    tail = np.arange(max(2, nt - end + 2), nt + 1)
    t = np.concatenate((start, tail))
    if len(t) == 0:
        return
    w = np.concatenate((counts[start - 1], nt - tail + 1)).astype(float)
    if word == "up":
        rhs = np.where(t == 1, -w * u0, 0.0)
    else:
        rhs = np.where(t == 1, -w + w * u0, -w)
    width = w.astype(int)
    rr = np.repeat(np.arange(len(t)), width)
    pos = np.arange(len(rr)) - np.repeat(np.cumsum(width) - width, width)
    first = sign + (-sign * w)
    window = (rr, ug[t[rr] + pos - 1], np.where(pos == 0, first[rr], sign))
    later = t > 1
    before = (np.flatnonzero(later), ug[t[later] - 2], sign * w[later])
    rows.add([f"{word}_{uid}", f"{word}end_{uid}"],
             np.repeat([0, 1], [len(start), len(tail)]), t, rhs, math.inf, window, before)


# ---------------------------------------------------------------------------
# solution unpacking
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class Schedule:
    """Solved operating plan on one grid, in physical quantities.

    Unit-indexed arrays follow the system's unit order; column t is period
    t+1. startup_cost is in euros: the start-up count times the unit's
    start-up cost. p_served is demand less shed, and spill is availability
    less injection; shed and spill are clamped of numerical dust (they are
    asserted nonnegative to 1e-6 first).
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


def extract_schedule(system: PowerSystem, periods: ReducedSeries, x: np.ndarray) -> Schedule:
    """The Schedule of a solution x of the model built on (system, periods); an off unit dispatches 0."""
    nt = len(periods)
    ng = len(system.units)
    s_u, s_pg, s_su, s_pw, s_ps, s_shed = _blocks(ng, nt)
    x = np.asarray(x, dtype=float)
    if x.shape != (s_shed.stop,):
        raise ValueError(f"solution has {x.size} values, the model {s_shed.stop} columns")
    u = x[s_u].reshape(ng, nt)
    rounded = np.round(u)
    off = np.abs(u - rounded) > 1e-6
    if off.any():
        g, t = np.argwhere(off)[0]
        raise ValueError(f"u_{system.units[g].unit_id}_{t + 1} is not integral: {u[g, t]}")
    commitment = rounded.astype(int)
    dispatch = np.where(commitment == 1, x[s_pg].reshape(ng, nt), 0.0)
    su_cost = np.array([unit.startup_cost for unit in system.units], dtype=float)
    startup = x[s_su].reshape(ng, nt) * su_cost[:, None]
    p_wind, p_solar, shed = x[s_pw], x[s_ps], x[s_shed]
    p_served = periods.demand_mw - shed
    wind_spill = periods.wind_cf * system.wind_capacity - p_wind
    solar_spill = periods.solar_cf * system.solar_capacity - p_solar
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
    periods: ReducedSeries,
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
