"""Chronological aggregation of high-resolution series into variable-duration periods.

A day of demand and renewable capacity factors sampled every few minutes is
compressed into a small number of contiguous periods by agglomerative
clustering restricted to adjacent-in-time merges. Each resulting period keeps
the arithmetic mean of its members and a duration proportional to its member
count, so the reduced series conserves both energy and horizon length.
"""
from __future__ import annotations

import heapq
from dataclasses import dataclass

import numpy as np

ALLOWED_STEPS = (5, 10, 30, 60)

# the columns normalize_features returns under each selector
FEATURE_COLUMNS = {"net_demand_only": ("net_demand",), "demand_wind_solar": ("demand", "wind_cf", "solar_cf")}
FEATURE_SELECTORS = tuple(FEATURE_COLUMNS)


@dataclass(frozen=True)
class HiResSeries:
    """One contiguous window of high-resolution system data.

    demand is in MW; wind_cf and solar_cf are capacity factors in [0, 1].
    Where a trace starts in time is not part of the series: LoadedTrace
    carries that instant.
    """

    demand: np.ndarray
    wind_cf: np.ndarray
    solar_cf: np.ndarray
    step_minutes: int

    def __post_init__(self) -> None:
        demand = np.asarray(self.demand, dtype=float)
        wind = np.asarray(self.wind_cf, dtype=float)
        solar = np.asarray(self.solar_cf, dtype=float)
        object.__setattr__(self, "demand", demand)
        object.__setattr__(self, "wind_cf", wind)
        object.__setattr__(self, "solar_cf", solar)
        if self.step_minutes not in ALLOWED_STEPS:
            raise ValueError(
                f"step_minutes must be one of {ALLOWED_STEPS}, got {self.step_minutes}"
            )
        n = len(demand)
        if n < 1:
            raise ValueError("series must contain at least one sample")
        if len(wind) != n or len(solar) != n:
            raise ValueError("demand, wind_cf and solar_cf must have equal length")
        for name, arr in (("demand", demand), ("wind_cf", wind), ("solar_cf", solar)):
            if not np.all(np.isfinite(arr)):
                raise ValueError(f"{name} contains non-finite values")
        if np.any(demand < 0):
            raise ValueError("demand must be nonnegative")
        for name, arr in (("wind_cf", wind), ("solar_cf", solar)):
            if np.any(arr < 0) or np.any(arr > 1):
                raise ValueError(f"{name} must lie in [0, 1]")

    @property
    def n_points(self) -> int:
        return len(self.demand)

    @property
    def horizon_hours(self) -> float:
        return self.n_points * self.step_minutes / 60.0


@dataclass(frozen=True)
class TimeGrid:
    """A contiguous partition of a window into variable-duration periods.

    cluster_bounds are half-open [start, stop) sample-index ranges covering
    the window in order; every other fact about the grid follows from them
    and the sampling step. merge_distances records the clustering cost of
    each merge that produced the grid, in merge order (empty for grids built
    directly, e.g. uniform hourly ones).
    """

    cluster_bounds: tuple[tuple[int, int], ...]
    step_minutes: int
    merge_distances: tuple[float, ...] = ()

    def __post_init__(self) -> None:
        bounds = tuple((int(a), int(b)) for a, b in self.cluster_bounds)
        object.__setattr__(self, "cluster_bounds", bounds)
        if not bounds:
            raise ValueError("grid must contain at least one period")
        prev_stop = 0
        for start, stop in bounds:
            if start != prev_stop or stop <= start:
                raise ValueError(f"cluster bounds are not a contiguous partition: {bounds}")
            prev_stop = stop

    @property
    def n_periods(self) -> int:
        return len(self.cluster_bounds)

    @property
    def member_counts(self) -> tuple[int, ...]:
        return tuple(b - a for a, b in self.cluster_bounds)

    @property
    def durations(self) -> np.ndarray:
        """Period lengths in hours: member count times the step."""
        return np.array(self.member_counts, dtype=float) * self.step_minutes / 60.0


@dataclass(frozen=True, eq=False)
class ReducedSeries:
    """A window on a grid: per-period durations (hours) and member means."""

    duration_h: np.ndarray
    demand_mw: np.ndarray
    wind_cf: np.ndarray
    solar_cf: np.ndarray

    def __len__(self) -> int:
        return len(self.duration_h)


def normalize_features(
    series: HiResSeries,
    selector: str = "net_demand_only",
    wind_capacity: float | None = None,
    solar_capacity: float | None = None,
) -> np.ndarray:
    """The (samples, features) clustering matrix of one window.

    net_demand_only uses a single column, demand minus renewable capability
    (capacities default to zero, degrading to plain demand). demand_wind_solar
    uses three columns: demand and both capacity factors. Every column is
    min-max scaled over the window to [0, 1]; a column that is constant over
    the window carries no signal and is scaled to zero.
    """
    if selector not in FEATURE_SELECTORS:
        raise ValueError(f"unknown feature selector {selector!r}; expected one of {FEATURE_SELECTORS}")
    wcap = 0.0 if wind_capacity is None else float(wind_capacity)
    scap = 0.0 if solar_capacity is None else float(solar_capacity)
    if wcap < 0 or scap < 0:
        raise ValueError("capacities must be nonnegative")
    if selector == "net_demand_only":
        raw = (series.demand - series.wind_cf * wcap - series.solar_cf * scap)[:, None]
    else:
        raw = np.column_stack([series.demand, series.wind_cf, series.solar_cf])
    scaled = np.empty_like(raw)
    for j in range(raw.shape[1]):
        col = raw[:, j]
        lo, hi = col.min(), col.max()
        if hi - lo == 0.0:
            scaled[:, j] = 0.0
        else:
            scaled[:, j] = (col - lo) / (hi - lo)
    return scaled


def cluster_adjacent(features: np.ndarray, target_n: int, step_minutes: int) -> TimeGrid:
    """Greedy agglomerative clustering restricted to adjacent-in-time merges.

    features is a (samples, features) array such as normalize_features
    returns. Starts from singletons and repeatedly merges the adjacent pair
    with the smallest merge cost until target_n clusters remain. Costs are
    rounded to 12 decimals before comparison so that exact ties resolve to
    the leftmost pair on every platform.

    The adjacent pairs sit in a min-heap keyed (cost, left start, right stop),
    so a merge costs O(log n) and the whole run O(n log n). A merge changes
    only the two pairs that touch the merged cluster; their new costs are
    pushed and the old entries are skipped when popped. A cluster is named by
    its first sample a: stop[a] is where it ends and prev[a] is its left
    neighbour.
    """
    values = np.asarray(features, dtype=float)
    if values.ndim != 2:
        raise ValueError("feature matrix must be two-dimensional")
    n = len(values)
    if not 1 <= target_n <= n:
        raise ValueError(f"target_n must be in [1, {n}], got {target_n}")
    columns = [values[:, j].tolist() for j in range(values.shape[1])]
    # Between singletons the factor 2 na nb / (na + nb) is exactly 1; columns
    # are summed from the first, as in cost() (einsum's order can differ).
    diff = values[:-1] - values[1:]
    initial = np.round(sum(diff[:, j] * diff[:, j] for j in range(diff.shape[1])), 12)
    heap = list(zip(initial.tolist(), range(n - 1), range(2, n + 1)))
    heapq.heapify(heap)
    del diff, initial
    stop = list(range(1, n + 1))
    prev = list(range(-1, n - 1))

    def cost(a: int, b: int, e: int) -> float:
        # Plain floats in numpy's operation order (columns summed from the
        # first; round(x * 1e12) / 1e12 equals np.round(x, 12)), so costs and
        # ties are bit-identical to a vectorised recomputation of every pair.
        na, nb = b - a, e - b
        sq = 0.0
        for col in columns:
            d = col[a] - col[b]
            sq += d * d
        return round(2.0 * na * nb / (na + nb) * sq * 1e12) / 1e12

    merges: list[float] = []
    for _ in range(n - target_n):
        while True:
            dist, a, e = heapq.heappop(heap)
            b = stop[a]
            # current only while a still starts a cluster and both halves
            # of the pair still end where they did when it was pushed
            if b < n and prev[b] == a and stop[b] == e:
                break
        merges.append(dist)
        na, nb = b - a, e - b
        for col in columns:
            col[a] = (na * col[a] + nb * col[b]) / (na + nb)
        stop[a] = e
        if a > 0:
            p = prev[a]
            heapq.heappush(heap, (cost(p, a, e), p, e))
        if e < n:
            prev[e] = a
            f = stop[e]
            heapq.heappush(heap, (cost(a, e, f), a, f))
    bounds = []
    a = 0
    while a < n:
        bounds.append((a, stop[a]))
        a = stop[a]
    return TimeGrid(tuple(bounds), step_minutes, tuple(merges))


def hourly_grid(n_points: int, step_minutes: int) -> TimeGrid:
    """Uniform one-hour partition of n_points samples (the conventional grid)."""
    per_hour = 60 // step_minutes
    if 60 % step_minutes:
        raise ValueError("step_minutes must divide 60")
    if n_points % per_hour:
        raise ValueError(f"{n_points} samples at {step_minutes}-minute steps do not fill whole hours")
    return TimeGrid(tuple((i, i + per_hour) for i in range(0, n_points, per_hour)), step_minutes)


def singleton_grid(n_points: int, step_minutes: int) -> TimeGrid:
    """One period per sample; the identity grid used for real-time solves."""
    return TimeGrid(tuple((i, i + 1) for i in range(n_points)), step_minutes)


def member_means(grid: TimeGrid, *values: np.ndarray) -> list[np.ndarray]:
    """Each array of values averaged over the grid's periods, along its first
    axis: values[a:b].mean(axis=0) per period, bit for bit.

    Periods of k members are averaged as the rows of one (periods, k, ...)
    gather per array, which sums in the order a slice does, for 1-D and 2-D
    arrays alike. Stacking 1-D arrays into one 2-D gather would not.
    """
    starts, stops = np.array(grid.cluster_bounds).T
    counts = stops - starts
    means = [np.empty((len(starts),) + arr.shape[1:]) for arr in values]
    for k in np.unique(counts).tolist():
        sel = np.flatnonzero(counts == k)
        members = starts[sel, None] + np.arange(k)
        for arr, out in zip(values, means):
            out[sel] = arr[members].mean(axis=1)
    return means


def reduce_series(series: HiResSeries, grid: TimeGrid) -> ReducedSeries:
    """Collapse a window onto a grid by per-period arithmetic means."""
    if grid.cluster_bounds[-1][1] != series.n_points:
        raise ValueError("grid does not cover the series")
    if grid.step_minutes != series.step_minutes:
        raise ValueError("grid and series disagree on the sampling step")
    return ReducedSeries(grid.durations, *member_means(grid, series.demand, series.wind_cf, series.solar_cf))
