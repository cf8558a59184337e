"""Clustering and series-reduction behaviour on hand-checked and random windows."""
from __future__ import annotations

from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from oracle import ward_distance
from tauc.aggregation import (
    FeatureMatrix,
    HiResSeries,
    ReducedPeriod,
    TimeGrid,
    cluster_adjacent,
    hourly_grid,
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
    assert feats.values.shape == (6, 1)
    assert feats.values[:, 0] == pytest.approx(expect, abs=1e-15)
    assert feats.constant_columns == ()


def test_normalize_without_capacities_uses_plain_demand():
    feats = normalize_features(small_series(), "net_demand_only")
    expect = (DEMAND6 - 500.0) / 350.0
    assert feats.values[:, 0] == pytest.approx(expect)


def test_normalize_three_feature_selector_flags_constant_column():
    feats = normalize_features(small_series(), "demand_wind_solar")
    assert feats.values.shape == (6, 3)
    # wind is identically zero over the window
    assert feats.constant_columns == (1,)
    assert np.all(feats.values[:, 1] == 0.0)
    assert feats.values[:, 0].min() == 0.0 and feats.values[:, 0].max() == 1.0


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
    feats = FeatureMatrix(np.zeros((6, 1)), constant_columns=(0,))
    grid = cluster_adjacent(feats, target_n=2, step_minutes=30)
    assert grid.cluster_bounds == ((0, 5), (5, 6))
    assert all(d == 0.0 for d in grid.merge_distances)


def test_cluster_rejects_bad_target():
    feats = FeatureMatrix(np.zeros((4, 1)))
    with pytest.raises(ValueError, match="target_n"):
        cluster_adjacent(feats, target_n=0, step_minutes=30)
    with pytest.raises(ValueError, match="target_n"):
        cluster_adjacent(feats, target_n=5, step_minutes=30)


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
    feats = FeatureMatrix(np.array(data)[:, None] / scale)
    grid = cluster_adjacent(feats, target, step_minutes=10)
    oracle_bounds, oracle_log = _greedy_oracle(feats.values, target)
    assert grid.cluster_bounds == oracle_bounds
    assert list(grid.merge_distances) == pytest.approx(oracle_log, rel=1e-9, abs=1e-12)


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
    feats = FeatureMatrix(np.array(data)[:, None] / scale)
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
    grid = cluster_adjacent(FeatureMatrix(values / values.max()), 24, step_minutes=step)
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
    assert [p.demand_mw for p in periods] == pytest.approx([500.0, 650.0, 850.0])
    assert [p.solar_cf * 300.0 for p in periods] == pytest.approx([300.0, 200.0, 0.0])
    assert [p.duration_h for p in periods] == pytest.approx([2.0, 0.5, 0.5])
    assert all(isinstance(p, ReducedPeriod) for p in periods)


def test_reduce_series_hourly_merges_pairs():
    series = small_series()
    periods = reduce_series(series, hourly_grid(series.n_points, 30))
    assert [p.demand_mw for p in periods] == pytest.approx([500.0, 500.0, 750.0])
    assert [p.solar_cf * 300.0 for p in periods] == pytest.approx([300.0, 300.0, 100.0])


def test_reduce_series_rejects_mismatched_grid():
    series = small_series()
    grid = TimeGrid(((0, 2), (2, 4)), 30)
    with pytest.raises(ValueError, match="cover"):
        reduce_series(series, grid)


def test_grid_validation_rejects_gaps():
    with pytest.raises(ValueError, match="contiguous"):
        TimeGrid(((0, 2), (3, 4)), 30)
