"""Clustering and series-reduction behaviour on hand-checked and random windows."""
from __future__ import annotations

from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from oracle import quadratic_cluster, slice_means, ward_distance
from tauc.aggregation import (
    FEATURE_COLUMNS,
    FEATURE_SELECTORS,
    HiResSeries,
    ReducedSeries,
    TimeGrid,
    cluster_adjacent,
    hourly_grid,
    member_means,
    normalize_features,
    reduce_series,
    singleton_grid,
)

# Six 30-minute samples: flat morning, one shoulder sample, one evening spike.
DEMAND6 = np.array([500.0, 500.0, 500.0, 500.0, 650.0, 850.0])
SOLAR6_CF = np.array([1.0, 1.0, 1.0, 1.0, 2.0 / 3.0, 0.0])


def small_series() -> HiResSeries:
    return HiResSeries(
        demand=DEMAND6,
        wind_cf=np.zeros(6),
        solar_cf=SOLAR6_CF,
        step_minutes=30,
    )


# ---------------------------------------------------------------------------
# series container validation
# ---------------------------------------------------------------------------


def test_series_rejects_bad_step():
    for step in (7, 15):
        with pytest.raises(ValueError, match="step_minutes"):
            HiResSeries(np.ones(4), np.zeros(4), np.zeros(4), step_minutes=step)


def test_series_rejects_cf_out_of_range():
    with pytest.raises(ValueError, match="wind_cf"):
        HiResSeries(np.ones(3), np.array([0.0, 1.2, 0.1]), np.zeros(3), step_minutes=10)


def test_series_rejects_negative_demand():
    with pytest.raises(ValueError, match="demand"):
        HiResSeries(np.array([1.0, -2.0]), np.zeros(2), np.zeros(2), step_minutes=10)


def test_series_rejects_length_mismatch():
    with pytest.raises(ValueError, match="equal length"):
        HiResSeries(np.ones(3), np.zeros(2), np.zeros(3), step_minutes=10)


def test_series_horizon():
    assert small_series().horizon_hours == pytest.approx(3.0)


# ---------------------------------------------------------------------------
# feature scaling
# ---------------------------------------------------------------------------


def test_normalize_net_demand_frozen_values():
    # net demand [200,200,200,200,450,850]; min-max gives (v-200)/650
    feats = normalize_features(small_series(), "net_demand_only", solar_capacity=300.0)
    expect = np.array([0.0, 0.0, 0.0, 0.0, 250.0 / 650.0, 1.0])
    assert feats.shape == (6, 1)
    assert feats[:, 0] == pytest.approx(expect, abs=1e-15)


def test_normalize_without_capacities_uses_plain_demand():
    feats = normalize_features(small_series(), "net_demand_only")
    expect = (DEMAND6 - 500.0) / 350.0
    assert feats[:, 0] == pytest.approx(expect)


def test_normalize_three_feature_selector_flags_constant_column():
    feats = normalize_features(small_series(), "demand_wind_solar")
    assert feats.shape == (6, 3)
    # wind is identically zero over the window
    assert np.all(feats[:, 1] == 0.0)
    assert feats[:, 0].min() == 0.0 and feats[:, 0].max() == 1.0


@pytest.mark.parametrize("selector", FEATURE_SELECTORS)
def test_each_selector_names_one_column_per_feature(selector):
    assert normalize_features(small_series(), selector).shape == (6, len(FEATURE_COLUMNS[selector]))


def test_normalize_rejects_unknown_selector():
    with pytest.raises(ValueError, match="selector"):
        normalize_features(small_series(), "pca")


# ---------------------------------------------------------------------------
# merge cost
# ---------------------------------------------------------------------------


def test_ward_distance_frozen_value():
    # sizes 4 and 1, centroids 0 and 250/650 in one dimension
    d = ward_distance(4, np.array([0.0]), 1, np.array([250.0 / 650.0]))
    assert d == pytest.approx(40.0 / 169.0)  # 0.23668639...
    assert d == pytest.approx(0.23669, abs=5e-6)


def test_ward_distance_symmetry_and_zero():
    a, b = np.array([0.3, 0.7]), np.array([0.9, 0.1])
    assert ward_distance(2, a, 5, b) == pytest.approx(ward_distance(5, b, 2, a))
    assert ward_distance(3, a, 4, a) == 0.0


def test_ward_distance_rejects_bad_sizes():
    with pytest.raises(ValueError):
        ward_distance(0, np.array([0.0]), 1, np.array([1.0]))


# ---------------------------------------------------------------------------
# adjacency-constrained clustering
# ---------------------------------------------------------------------------


def test_cluster_small_window_golden_partition():
    feats = normalize_features(small_series(), "net_demand_only", solar_capacity=300.0)
    grid = cluster_adjacent(feats, target_n=3, step_minutes=30)
    assert grid.cluster_bounds == ((0, 4), (4, 5), (5, 6))
    assert grid.durations == pytest.approx([2.0, 0.5, 0.5])


def test_cluster_identity_when_target_equals_n():
    feats = normalize_features(small_series(), "net_demand_only", solar_capacity=300.0)
    grid = cluster_adjacent(feats, target_n=6, step_minutes=30)
    assert grid.cluster_bounds == tuple((i, i + 1) for i in range(6))
    assert grid.durations == pytest.approx([0.5] * 6)
    assert grid.merge_distances == ()


def test_cluster_constant_trace_ties_break_leftmost():
    feats = np.zeros((6, 1))
    grid = cluster_adjacent(feats, target_n=2, step_minutes=30)
    assert grid.cluster_bounds == ((0, 5), (5, 6))
    assert all(d == 0.0 for d in grid.merge_distances)


def test_cluster_rejects_bad_target():
    feats = np.zeros((4, 1))
    with pytest.raises(ValueError, match="target_n"):
        cluster_adjacent(feats, target_n=0, step_minutes=30)
    with pytest.raises(ValueError, match="target_n"):
        cluster_adjacent(feats, target_n=5, step_minutes=30)
    with pytest.raises(ValueError, match="two-dimensional"):
        cluster_adjacent(np.zeros(4), target_n=2, step_minutes=30)


def _greedy_oracle(values: np.ndarray, target_n: int):
    """Step-by-step re-simulation of the merge loop, written independently:
    clusters kept as explicit member lists, costs recomputed from raw means."""
    clusters = [[i] for i in range(len(values))]
    log = []
    while len(clusters) > target_n:
        costs = []
        for i in range(len(clusters) - 1):
            a, b = clusters[i], clusters[i + 1]
            ca = values[a].mean(axis=0)
            cb = values[b].mean(axis=0)
            costs.append(round(ward_distance(len(a), ca, len(b), cb), 12))
        best = min(range(len(costs)), key=lambda i: (costs[i], i))
        log.append(costs[best])
        clusters[best] = clusters[best] + clusters[best + 1]
        del clusters[best + 1]
    bounds = tuple((c[0], c[-1] + 1) for c in clusters)
    return bounds, log


@settings(max_examples=60, deadline=None)
@given(
    data=st.lists(st.floats(0.0, 1000.0, allow_nan=False), min_size=2, max_size=12),
    target=st.integers(1, 4),
)
def test_cluster_matches_greedy_oracle(data, target):
    n = len(data)
    target = min(target, n)
    scale = max(data) or 1.0
    feats = np.array(data)[:, None] / scale
    grid = cluster_adjacent(feats, target, step_minutes=10)
    oracle_bounds, oracle_log = _greedy_oracle(feats, target)
    assert grid.cluster_bounds == oracle_bounds
    assert list(grid.merge_distances) == pytest.approx(oracle_log, rel=1e-9, abs=1e-12)


@settings(max_examples=60, deadline=None)
@given(
    columns=st.sampled_from([1, 3]),
    levels=st.sampled_from([2, 3, 5, 1000]),
    data=st.data(),
)
def test_cluster_equals_quadratic_reference_exactly(columns, levels, data):
    # few levels make equal costs common, so the leftmost-pair tie rule is
    # exercised; the heap must match the full recomputation bit for bit
    n = data.draw(st.integers(1, 300), label="n")
    codes = data.draw(
        st.lists(st.integers(0, levels - 1), min_size=n * columns, max_size=n * columns),
        label="codes",
    )
    target = data.draw(st.integers(1, n), label="target")
    values = np.array(codes, dtype=float).reshape(n, columns) / (levels - 1)
    grid = cluster_adjacent(values, target, step_minutes=5)
    assert (grid.cluster_bounds, grid.merge_distances) == quadratic_cluster(values, target)


def test_three_feature_costs_sum_their_columns_in_one_order():
    """Five 3-column samples (shrunk from a hypothesis case) whose last merge
    cost sits on a rounding boundary at 12 decimals: a sum of squares that adds
    the columns in another order (as np.einsum can) rounds it the other way."""
    values = np.array([[699, 534, 579], [504, 223, 35], [531, 696, 403], [38, 651, 671], [500, 696, 219]],
                      dtype=float) / 999
    grid = cluster_adjacent(values, 1, step_minutes=5)
    assert (grid.cluster_bounds, grid.merge_distances) == quadratic_cluster(values, 1)


def test_cluster_equals_quadratic_reference_on_3000_samples():
    rng = np.random.default_rng(7)
    values = np.column_stack([
        np.round(rng.random(3000), 2),
        np.sin(np.arange(3000) / 50.0) ** 2,
        rng.integers(0, 4, 3000) / 3.0,
    ])
    grid = cluster_adjacent(values, 96, step_minutes=5)
    assert (grid.cluster_bounds, grid.merge_distances) == quadratic_cluster(values, 96)


@settings(max_examples=40, deadline=None)
@given(
    data=st.lists(st.floats(0.0, 5000.0, allow_nan=False), min_size=3, max_size=60),
    target=st.integers(1, 24),
)
def test_cluster_partition_invariants(data, target):
    n = len(data)
    target = min(target, n)
    step = 10
    scale = max(data) or 1.0
    feats = np.array(data)[:, None] / scale
    grid = cluster_adjacent(feats, target, step_minutes=step)
    # contiguous partition covering [0, n)
    assert grid.cluster_bounds[0][0] == 0
    assert grid.cluster_bounds[-1][1] == n
    assert grid.n_periods == target
    # duration conservation, checked in rational arithmetic on member counts
    total = sum(Fraction(c) * Fraction(step, 60) for c in grid.member_counts)
    assert total == Fraction(n * step, 60)
    assert float(np.sum(grid.durations)) == pytest.approx(n * step / 60.0, rel=1e-12)
    # one recorded merge cost per merge, all nonnegative; minimality of each
    # against the adjacent pairs of its step is covered by the oracle test
    assert len(grid.merge_distances) == n - target
    assert all(d >= 0.0 for d in grid.merge_distances)


@settings(max_examples=20, deadline=None)
@given(
    hour_values=st.permutations(list(range(24))),
    per_hour=st.sampled_from([2, 6]),
)
def test_cluster_recovers_hourly_blocks_from_piecewise_constant_trace(hour_values, per_hour):
    values = np.repeat(np.array(hour_values, dtype=float), per_hour)[:, None]
    step = 60 // per_hour
    grid = cluster_adjacent(values / values.max(), 24, step_minutes=step)
    assert grid.cluster_bounds == tuple(
        (i * per_hour, (i + 1) * per_hour) for i in range(24)
    )
    assert grid.durations == pytest.approx(np.ones(24))


# ---------------------------------------------------------------------------
# fixed grids and reduction
# ---------------------------------------------------------------------------


def test_hourly_grid_shapes():
    grid = hourly_grid(small_series().n_points, 30)
    assert grid.cluster_bounds == ((0, 2), (2, 4), (4, 6))
    assert grid.durations == pytest.approx([1.0, 1.0, 1.0])


def test_hourly_grid_rejects_partial_hours():
    with pytest.raises(ValueError, match="whole hours"):
        hourly_grid(5, 30)


def test_singleton_grid_is_identity():
    grid = singleton_grid(4, 10)
    assert grid.cluster_bounds == ((0, 1), (1, 2), (2, 3), (3, 4))
    assert grid.durations == pytest.approx([1 / 6] * 4)


def test_reduce_series_means_on_clustered_grid():
    series = small_series()
    feats = normalize_features(series, "net_demand_only", solar_capacity=300.0)
    grid = cluster_adjacent(feats, 3, step_minutes=30)
    periods = reduce_series(series, grid)
    assert isinstance(periods, ReducedSeries) and len(periods) == 3
    assert periods.demand_mw == pytest.approx([500.0, 650.0, 850.0])
    assert periods.solar_cf * 300.0 == pytest.approx([300.0, 200.0, 0.0])
    assert periods.duration_h == pytest.approx([2.0, 0.5, 0.5])


def test_reduce_series_hourly_merges_pairs():
    series = small_series()
    periods = reduce_series(series, hourly_grid(series.n_points, 30))
    assert periods.demand_mw == pytest.approx([500.0, 500.0, 750.0])
    assert periods.solar_cf * 300.0 == pytest.approx([300.0, 300.0, 100.0])


@st.composite
def series_on_grids(draw):
    """A random window with a singleton, an hourly or a random uneven grid."""
    step = draw(st.sampled_from([5, 10, 30]))
    n = draw(st.integers(1, 20)) * (60 // step)
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    series = HiResSeries(
        demand=rng.uniform(0.0, 1.0, n) * 10.0 ** draw(st.integers(-3, 5)),
        wind_cf=rng.uniform(0.0, 1.0, n),
        solar_cf=rng.uniform(0.0, 1.0, n),
        step_minutes=step,
    )
    kind = draw(st.sampled_from(["singleton", "hourly", "uneven"]))
    if kind == "singleton":
        return series, singleton_grid(n, step)
    if kind == "hourly":
        return series, hourly_grid(n, step)
    cuts = sorted(draw(st.sets(st.integers(1, n - 1), max_size=n - 1))) if n > 1 else []
    edges = [0, *cuts, n]
    return series, TimeGrid(tuple(zip(edges[:-1], edges[1:])), step)


@settings(max_examples=150, deadline=None)
@given(series_on_grids())
def test_reduce_series_equals_per_slice_means_bit_for_bit(case):
    series, grid = case
    periods = reduce_series(series, grid)
    assert periods.duration_h.tolist() == grid.durations.tolist()
    for got, arr in ((periods.demand_mw, series.demand), (periods.wind_cf, series.wind_cf),
                     (periods.solar_cf, series.solar_cf)):
        want = [arr[a:b].mean() for a, b in grid.cluster_bounds]
        assert [float(v).hex() for v in got] == [float(v).hex() for v in want]


@settings(max_examples=150, deadline=None)
@given(st.integers(1, 400), st.sampled_from(FEATURE_SELECTORS), st.integers(0, 2**32 - 1), st.data())
def test_member_means_equal_slice_means_of_features_bit_for_bit(n, selector, seed, data):
    """The centroids tauc cluster writes: a feature matrix of either selector
    averaged over periods of 1 to 40 samples."""
    rng = np.random.default_rng(seed)
    series = HiResSeries(demand=rng.uniform(0.0, 3000.0, n), wind_cf=rng.uniform(0.0, 1.0, n),
                         solar_cf=rng.uniform(0.0, 1.0, n), step_minutes=5)
    feats = normalize_features(series, selector, 800.0, 500.0)
    edges = [0]
    while edges[-1] < n:
        edges.append(min(n, edges[-1] + data.draw(st.integers(1, 40))))
    grid = TimeGrid(tuple(zip(edges[:-1], edges[1:])), 5)
    got = member_means(grid, feats)[0]
    want = slice_means(feats, grid.cluster_bounds)
    assert got.shape == want.shape == (grid.n_periods, len(FEATURE_COLUMNS[selector]))
    assert [float(v).hex() for v in got.ravel()] == [float(v).hex() for v in want.ravel()]


def test_reduce_series_rejects_mismatched_grid():
    series = small_series()
    grid = TimeGrid(((0, 2), (2, 4)), 30)
    with pytest.raises(ValueError, match="cover"):
        reduce_series(series, grid)


def test_grid_validation_rejects_gaps():
    with pytest.raises(ValueError, match="contiguous"):
        TimeGrid(((0, 2), (3, 4)), 30)
