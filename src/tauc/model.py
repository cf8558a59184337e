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

import functools
import math
from dataclasses import dataclass, fields
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
    min_up / min_down are hours. The initial state is the commitment u0 at
    the instant before the horizon, the hours0 hours it has held that state,
    and the dispatch p0.
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
    hours0: float = 24.0
    p0: float = 0.0

    def __post_init__(self) -> None:
        if self.flex_class not in FLEX_CLASSES:
            raise ValueError(f"unknown flexibility class {self.flex_class!r}")
        for field in fields(self)[2:]:  # every numeric field; only the ramps may be None
            name, val = field.name, getattr(self, field.name)
            if val is not None and not math.isfinite(val):
                raise ValueError(f"{self.unit_id}: {name} must be finite, got {val}")
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
        if self.hours0 <= 0:
            raise ValueError(f"{self.unit_id}: hours0 must be positive")
        if self.u0 and not self.pmin - 1e-9 <= self.p0 <= self.pmax + 1e-9:
            raise ValueError(f"{self.unit_id}: p0 outside [pmin, pmax] while online")
        if not self.u0 and self.p0 != 0.0:
            raise ValueError(f"{self.unit_id}: p0 must be 0 while offline")


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
        for name in ("wind_capacity", "solar_capacity", "load_shed_cost"):
            val = getattr(self, name)
            if not math.isfinite(val):
                raise ValueError(f"{name} must be finite, got {val}")
        if self.wind_capacity < 0 or self.solar_capacity < 0:
            raise ValueError("capacities must be nonnegative")
        if self.load_shed_cost <= 0:
            raise ValueError("load_shed_cost must be positive")


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

    # an omitted start-up or shut-down rate defaults to max(pmin, ramp)
    su_rate, sd_rate = unit.startup_ramp, unit.shutdown_ramp
    if su_rate is None and unit.ramp_up is not None:
        su_rate = max(unit.pmin, unit.ramp_up)
    if sd_rate is None and unit.ramp_down is not None:
        sd_rate = max(unit.pmin, unit.ramp_down)
    return clamp(unit.ramp_up), clamp(unit.ramp_down), clamp(su_rate), clamp(sd_rate)


def effective_min_times(
    unit: ThermalUnit, durations: Sequence[float]
) -> tuple[int, np.ndarray, int, np.ndarray]:
    """Minimum up/down times converted into period counts for one unit.

    Returns (ut_init, ut_counts, dt_init, dt_counts): the number of leading
    periods the initial state pins, and for each period t the number of
    periods from t on whose durations first sum to the minimum time, capped
    at the tail. A sum reaches an hour threshold within _SUM_TOL.
    """
    d = np.asarray(durations, dtype=float)
    n = len(d)
    ends = np.concatenate(([0.0], np.cumsum(d)))  # ends[k]: hours to the end of period k

    def cover(start: np.ndarray, hours: float) -> np.ndarray:
        if hours <= _SUM_TOL:
            return np.zeros(len(start), dtype=int)
        return np.minimum(np.searchsorted(ends, ends[start] + (hours - _SUM_TOL)), n) - start

    ut_pin = max(0.0, unit.min_up - unit.hours0) * unit.u0
    dt_pin = max(0.0, unit.min_down - unit.hours0) * (1 - unit.u0)
    first, every = np.zeros(1, dtype=int), np.arange(n)
    return (int(cover(first, ut_pin)[0]), cover(every, unit.min_up),
            int(cover(first, dt_pin)[0]), cover(every, unit.min_down))


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

    def add(self, t, *families) -> None:
        """Append, for each family (stem, lo, hi, *terms), one row per entry
        of t: local row j is named stem_<t[j]> and bounded by lo and hi
        (scalars or one value per row).

        Each term is (local row, column, value) with one entry per row it
        touches. A row's terms keep the order of the term arguments, and zero
        values are left out, as a written row never carries a zero. The rows
        of k families alternate: local row j of family i is row j * k + i.
        """
        m, k = len(t), len(families)
        if m == 0 or k == 0:
            return
        # HiGHS breaks ties by row order, so the order is part of the model:
        # all onmin rows ahead of all onmax rows gave other tied plans on the
        # study13 30-minute days (seed 3 TA 466691.14 for 466191.14 EUR,
        # seed 7 CH 479063.46 for 479563.46 EUR)
        terms = [(r * k + i if k > 1 else r, c, v) for i, family in enumerate(families) for r, c, v in family[3:]]
        r = np.concatenate([term[0] for term in terms])
        c = np.concatenate([term[1] for term in terms])
        v = np.concatenate([np.broadcast_to(np.asarray(term[2], dtype=float), len(term[0])) for term in terms])
        keep = v != 0.0
        order = np.argsort(r[keep], kind="stable")
        bounds = np.empty((2, m, k))
        for i, (_, lo, hi, *_) in enumerate(families):
            bounds[0, :, i] = lo
            bounds[1, :, i] = hi
        self.parts.append((
            r[keep][order] + self.n,
            c[keep][order],
            v[keep][order],
            np.arange(m * k) % k + len(self.stems) if k > 1 else np.full(m, len(self.stems)),
            np.repeat(t, k) if k > 1 else np.asarray(t),
            *bounds.reshape(2, m * k),
        ))
        self.stems.extend(family[0] for family in families)
        self.n += m * k

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
    family (onmin, rampup, ...) is one writer statement over the periods, and
    families written together alternate period by period. su counts
    start-ups (su_t >= u_t - u_{t-1}, priced at the unit's startup_cost) for
    each unit with a start-up cost or a minimum time; any other unit has its
    su columns pinned to 0 and no start-up rows. Minimum times are the rows
    of Rajan and Takriti, one per period and direction: with a..t the
    periods whose minimum up (down) window, started there, still covers t,
    up_t is sum su_a..t - u_t <= -[t pinned on] and dn_t is
    sum su_a..t + u_{a-1} <= 1 - [t pinned off], u_0 being the initial
    state. The rampup and rampdn rows relax their limit, when the
    unit is off in t (rampup) or in t-1 (rampdn), by
    M_t = max(0, SU_t - RU_t - pmin) (rampdn: SD_t - RD_t - pmin) where the
    paper uses pmax: onmin keeps a committed unit at pmin or above, so both
    forms admit the same integer points, and the smaller M_t lifts the LP
    bound. M_t is 0 for every unit of the built-in portfolios. Shed load
    is its own column, priced at the shed cost, so every entry of c is
    nonnegative and c @ x is the operating cost. fixings freezes u and pg
    columns through equality bounds, and each free su_t whose u_t and
    u_{t-1} are both frozen at max(0, u_t - u_{t-1}): nothing rewards a
    larger su.
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
    # a start-up indicator per unit and period, pinned to 0 when nothing reads it
    su_cost = np.array([unit.startup_cost for unit in units], dtype=float)
    counts_su = (su_cost > 0) | np.array([unit.min_up > 0 or unit.min_down > 0 for unit in units])
    ub[s_su] = np.repeat(np.where(counts_su, math.inf, 0.0), nt)
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
    rows.add(tt, ("bal", demand, demand, *((loc, pg[g], 1.0) for g in range(ng)),
                  (loc, pw, 1.0), (loc, ps, 1.0), (loc, shed, 1.0)))

    for g, unit in enumerate(units):
        uid = unit.unit_id
        ug, pgg = u[g], pg[g]
        ru_hat, rd_hat, su_hat, sd_hat = effective_ramp_limits(unit, d)
        ut_init, ut_counts, dt_init, dt_counts = effective_min_times(unit, d)
        # commitment-linked dispatch bounds
        rows.add(tt, (f"onmin_{uid}", 0.0, math.inf, (loc, pgg, 1.0), (loc, ug, -unit.pmin)),
                 (f"onmax_{uid}", -math.inf, 0.0, (loc, pgg, 1.0), (loc, ug, -unit.pmax)))
        # start-up indicators, su_t >= u_t - u_{t-1}
        if counts_su[g]:
            rows.add(tt, (f"sucost_{uid}", np.where(loc == 0, -unit.u0, 0.0), math.inf,
                          (loc, su[g], 1.0), (loc, ug, -1.0), (loc[1:], ug[:-1], 1.0)))
        # ramping, skipped entirely for rate-unlimited units (rows are vacuous
        # once every limit clamps to pmax). m is each row's big-M, smaller
        # than the paper's pmax (see above); period 1 moves u_0 and p_0 into the bound
        emit_up = unit.ramp_up is not None or unit.startup_ramp is not None
        emit_dn = unit.ramp_down is not None or unit.shutdown_ramp is not None
        ramps = []
        if emit_up:
            m = np.maximum(0.0, su_hat - ru_hat - unit.pmin)
            first = m[0] + (unit.p0 + (ru_hat[0] - su_hat[0]) * unit.u0)
            ramps.append((f"rampup_{uid}", -math.inf, np.concatenate(([first], m[1:])),
                          (loc, pgg, 1.0), (loc, ug, m - su_hat),
                          (loc[1:], pgg[:-1], -1.0), (loc[1:], ug[:-1], su_hat[1:] - ru_hat[1:])))
        if emit_dn:
            m = np.maximum(0.0, sd_hat - rd_hat - unit.pmin)
            first = m[0] + (-unit.p0 - (m[0] - sd_hat[0]) * unit.u0)
            ramps.append((f"rampdn_{uid}", -math.inf, np.concatenate(([first], m[1:])),
                          (loc, pgg, -1.0), (loc, ug, sd_hat - rd_hat),
                          (loc[1:], pgg[:-1], 1.0), (loc[1:], ug[:-1], m[1:] - sd_hat[1:])))
        rows.add(tt, *ramps)
        if emit_dn:
            r = loc[:-1]
            rows.add(tt[:-1], (f"sdramp_{uid}", -math.inf, 0.0, (r, pgg[:-1], 1.0),
                               (r, ug[1:], sd_hat[:-1] - unit.pmax), (r, ug[:-1], -sd_hat[:-1])))
        # minimum up and down times: a is the first period whose window,
        # started there, still covers t; windows end in order, so it is a search
        for word, hours, pin, counts in (("up", unit.min_up, ut_init, ut_counts),
                                         ("dn", unit.min_down, dt_init, dt_counts)):
            if hours <= 0:
                continue
            a = np.searchsorted(loc + counts - 1, loc)
            w = loc - a + 1
            rr = np.repeat(loc, w)  # row t lists su_a .. su_t
            window = (rr, su[g][np.repeat(a - np.cumsum(w) + w, w) + np.arange(len(rr))], 1.0)
            hi = np.where(loc < pin, -1.0, 0.0)
            if word == "up":
                rows.add(tt, (f"up_{uid}", -math.inf, hi, window, (loc, ug, -1.0)))
            else:
                later = a > 0
                rows.add(tt, (f"dn_{uid}", -math.inf, hi + np.where(later, 1.0, 1.0 - unit.u0),
                              window, (loc[later], ug[a[later] - 1], 1.0)))

    r, cols, vals, stem, t, row_lb, row_ub = rows.arrays()
    row_names = Names(tuple(rows.stems), stem, t)

    if fixings is not None:
        _apply_fixings(fixings, (ng, nt), col_names, integrality, lb, ub)
        frozen = np.where(lb[s_u] == ub[s_u], lb[s_u], np.nan).reshape(ng, nt)
        before = np.concatenate(([[unit.u0] for unit in units], frozen[:, :-1]), axis=1)
        start = np.maximum(0.0, frozen - before).ravel()  # NaN unless both are frozen
        j = np.flatnonzero(~np.isnan(start) & (ub[s_su] > 0))
        lb[s_su][j] = ub[s_su][j] = start[j]

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


# ---------------------------------------------------------------------------
# solution unpacking
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class Schedule:
    """Solved operating plan on one grid, in physical quantities.

    duration_h is each period's length in hours. Unit-indexed arrays follow
    the system's unit order; column t is period t+1. startup_cost is in
    euros: the start-up count times the unit's start-up cost. Spill is
    availability less injection; shed and spill are clamped of numerical
    dust (they are asserted nonnegative to 1e-6 first).
    """

    duration_h: np.ndarray
    commitment: np.ndarray
    dispatch: np.ndarray
    startup_cost: np.ndarray
    p_wind: np.ndarray
    p_solar: np.ndarray
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
    wind_spill = periods.wind_cf * system.wind_capacity - p_wind
    solar_spill = periods.solar_cf * system.solar_capacity - p_solar
    for name, arr in (("shed", shed), ("wind spill", wind_spill), ("solar spill", solar_spill)):
        if np.any(arr < -1e-6):
            raise ValueError(f"negative {name} of {arr.min():g} MW in solution")
    return Schedule(
        duration_h=period_durations(periods),
        commitment=commitment,
        dispatch=dispatch,
        startup_cost=startup,
        p_wind=np.clip(p_wind, 0.0, None),
        p_solar=np.clip(p_solar, 0.0, None),
        shed=np.clip(shed, 0.0, None),
        wind_spill=np.clip(wind_spill, 0.0, None),
        solar_spill=np.clip(solar_spill, 0.0, None),
    )


def operating_cost(system: PowerSystem, schedule: Schedule) -> float:
    """Operating cost of a schedule over its own periods: energy, start-ups, shed penalty."""
    d = schedule.duration_h
    cost = 0.0
    for i, unit in enumerate(system.units):
        cost += float(np.sum(unit.marginal_cost * schedule.dispatch[i] * d))
        cost += float(np.sum(schedule.startup_cost[i]))
    cost += float(system.load_shed_cost * np.sum(schedule.shed * d))
    return cost
