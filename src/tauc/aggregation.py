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

    A cluster is named by its first sample a: stop[a] is where it ends and
    prev[a] is its left neighbour. The pair that cluster a starts sits in a
    min-heap as one Python int, K * n + a, where K = round(cost * 1e12) is
    its cost in units of 1e-12: the smallest key is the cheapest pair and, of
    equal costs, the leftmost. live[a] is the key of the pair that a starts
    now (-1 when it starts none), so the heap top is current iff
    live[a] == top, and stale tops are popped and skipped. A merge changes
    only the two pairs that touch the merged cluster and pushes their new
    keys, so it costs O(log n) and the whole run O(n log n). The reported
    merge costs are K / 1e12, the costs rounded to 12 decimals.

    Below a cost of 2**13 = 8192, doubles lie at most 2**-40 < 1e-12 apart,
    so distinct 12-decimal costs are distinct doubles and the int order is
    exactly the order of the rounded float costs. A normalized matrix of n
    samples and c columns costs at most c * n / 2 per merge, so that covers
    every day-ahead window (under 455 hours at a 5-minute step) and every
    test and benchmark input. Above it two rounded costs can be one double,
    and the int key still orders them by their exact 12-decimal values.
    Keys are Python ints, since K * n outgrows int64 on unnormalized input.

    A NaN or infinite feature, or a merge cost that overflows, raises
    ValueError naming the samples and the column.
    """
    values = np.asarray(features, dtype=float)
    if values.ndim != 2:
        raise ValueError("feature matrix must be two-dimensional")
    n = len(values)
    if not 1 <= target_n <= n:
        raise ValueError(f"target_n must be in [1, {n}], got {target_n}")
    bad = np.argwhere(~np.isfinite(values))
    if len(bad):
        i, j = bad[0].tolist()
        raise ValueError(f"feature column {j} of sample {i} is {values[i, j]}, not a finite number")
    columns = [values[:, j].tolist() for j in range(values.shape[1])]
    # Between singletons the factor 2 na nb / (na + nb) is exactly 1; columns
    # are summed from the first, as in key() (einsum's order can differ), and
    # rint(x * 1e12) is the K of np.round(x, 12).
    with np.errstate(over="ignore"):
        diff = values[:-1] - values[1:]
        scaled = np.rint(sum(diff[:, j] * diff[:, j] for j in range(diff.shape[1])) * 1e12)
    overflow = np.flatnonzero(~np.isfinite(scaled))
    if len(overflow):
        a = int(overflow[0])
        raise _overflow(columns, a, a + 1, a + 2)
    live = [int(k) * n + a for a, k in enumerate(scaled.tolist())]
    heap = live.copy()
    heapq.heapify(heap)
    live.append(-1)
    del diff, scaled
    stop = list(range(1, n + 1))
    prev = list(range(-1, n - 1))

    def key(a: int, b: int, e: int) -> int:
        # Plain floats in numpy's operation order (columns summed from the
        # first; round(x * 1e12) is the K of np.round(x, 12)), so keys and
        # ties are bit-identical to a vectorised recomputation of every pair.
        na, nb = b - a, e - b
        sq = 0.0
        for col in columns:
            d = col[a] - col[b]
            sq += d * d
        try:
            return round(2.0 * na * nb / (na + nb) * sq * 1e12) * n + a
        except (OverflowError, ValueError):  # an infinite or NaN cost
            raise _overflow(columns, a, b, e) from None

    heappop, heappush, heapreplace = heapq.heappop, heapq.heappush, heapq.heapreplace
    merges: list[int] = []
    for _ in range(n - target_n):
        item = heap[0]
        a = item % n
        while live[a] != item:
            heappop(heap)
            item = heap[0]
            a = item % n
        merges.append(item)
        b = stop[a]
        e = stop[b]
        live[b] = -1
        na, nb = b - a, e - b
        for col in columns:
            col[a] = (na * col[a] + nb * col[b]) / (na + nb)
        stop[a] = e
        # the merged pair's key leaves the heap top; the new pair on its
        # right takes its place in one sift
        if e < n:
            prev[e] = a
            live[a] = item = key(a, e, stop[e])
            heapreplace(heap, item)
        else:
            live[a] = -1
            heappop(heap)
        if a > 0:
            p = prev[a]
            live[p] = item = key(p, a, e)
            heappush(heap, item)
    bounds = []
    a = 0
    while a < n:
        bounds.append((a, stop[a]))
        a = stop[a]
    return TimeGrid(tuple(bounds), step_minutes, tuple([item // n / 1e12 for item in merges]))


def _overflow(columns: list[list[float]], a: int, b: int, e: int) -> ValueError:
    """The error for the merge cost of clusters [a, b) and [b, e) that is not
    finite, naming the column whose centroids differ the most (NaN first)."""
    gaps = [abs(col[a] - col[b]) for col in columns]
    j = max(range(len(gaps)), key=lambda j: (gaps[j] != gaps[j], gaps[j]))
    return ValueError(
        f"merge cost of samples [{a}, {b}) and [{b}, {e}) overflows: "
        f"their centroids differ by {gaps[j]} in feature column {j}"
    )


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
