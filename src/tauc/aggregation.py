"""Chronological aggregation of high-resolution series into variable-duration periods.

A day of demand and renewable capacity factors sampled every few minutes is
compressed into a small number of contiguous periods by agglomerative
clustering restricted to adjacent-in-time merges. Each resulting period keeps
the arithmetic mean of its members and a duration proportional to its member
count, so the reduced series conserves both energy and horizon length.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

ALLOWED_STEPS = (5, 10, 30, 60)

FEATURE_SELECTORS = ("net_demand_only", "demand_wind_solar")


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
class FeatureMatrix:
    """Per-sample clustering features, min-max scaled column-wise to [0, 1].

    Columns that were constant over the window carry no signal; they are
    scaled to zero and their indices recorded in constant_columns.
    """

    values: np.ndarray
    constant_columns: tuple[int, ...] = ()

    def __post_init__(self) -> None:
        vals = np.asarray(self.values, dtype=float)
        if vals.ndim != 2:
            raise ValueError("feature matrix must be two-dimensional")
        object.__setattr__(self, "values", vals)

    @property
    def n_points(self) -> int:
        return self.values.shape[0]


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


@dataclass(frozen=True)
class ReducedPeriod:
    """One period of a reduced series: duration plus member-mean data."""

    duration_h: float
    demand_mw: float
    wind_cf: float
    solar_cf: float


def normalize_features(
    series: HiResSeries,
    selector: str = "net_demand_only",
    wind_capacity: float | None = None,
    solar_capacity: float | None = None,
) -> FeatureMatrix:
    """Build the clustering feature matrix for one window.

    net_demand_only uses a single column, demand minus renewable capability
    (capacities default to zero, degrading to plain demand). demand_wind_solar
    uses three columns: demand and both capacity factors. Every column is
    min-max scaled over the window.
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
    constant: list[int] = []
    for j in range(raw.shape[1]):
        col = raw[:, j]
        lo, hi = col.min(), col.max()
        if hi - lo == 0.0:
            scaled[:, j] = 0.0
            constant.append(j)
        else:
            scaled[:, j] = (col - lo) / (hi - lo)
    return FeatureMatrix(values=scaled, constant_columns=tuple(constant))


def cluster_adjacent(features: FeatureMatrix, target_n: int, step_minutes: int) -> TimeGrid:
    """Greedy agglomerative clustering restricted to adjacent-in-time merges.

    Starts from singletons and repeatedly merges the adjacent pair with the
    smallest merge cost until target_n clusters remain. Costs are recomputed
    from centroids each step and rounded to 12 decimals before comparison so
    that exact ties resolve to the leftmost pair on every platform.
    """
    n = features.n_points
    if not 1 <= target_n <= n:
        raise ValueError(f"target_n must be in [1, {n}], got {target_n}")
    bounds = [(i, i + 1) for i in range(n)]
    centroids = features.values.astype(float).copy()
    sizes = np.ones(n, dtype=float)
    merges: list[float] = []
    while len(bounds) > target_n:
        left_s, right_s = sizes[:-1], sizes[1:]
        diff = centroids[:-1] - centroids[1:]
        dist = 2.0 * left_s * right_s / (left_s + right_s) * np.einsum("ij,ij->i", diff, diff)
        dist = np.round(dist, 12)
        k = int(np.argmin(dist))
        merges.append(float(dist[k]))
        merged_size = sizes[k] + sizes[k + 1]
        merged_centroid = (sizes[k] * centroids[k] + sizes[k + 1] * centroids[k + 1]) / merged_size
        bounds[k] = (bounds[k][0], bounds[k + 1][1])
        del bounds[k + 1]
        centroids = np.delete(centroids, k + 1, axis=0)
        centroids[k] = merged_centroid
        sizes = np.delete(sizes, k + 1)
        sizes[k] = merged_size
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


def reduce_series(series: HiResSeries, grid: TimeGrid) -> tuple[ReducedPeriod, ...]:
    """Collapse a window onto a grid by per-period arithmetic means."""
    if grid.cluster_bounds[-1][1] != series.n_points:
        raise ValueError("grid does not cover the series")
    if grid.step_minutes != series.step_minutes:
        raise ValueError("grid and series disagree on the sampling step")
    out = []
    for (a, b), dur in zip(grid.cluster_bounds, grid.durations):
        out.append(
            ReducedPeriod(
                duration_h=float(dur),
                demand_mw=float(series.demand[a:b].mean()),
                wind_cf=float(series.wind_cf[a:b].mean()),
                solar_cf=float(series.solar_cf[a:b].mean()),
            )
        )
    return tuple(out)
