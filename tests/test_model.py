"""Model-builder behaviour: effective parameters, constraint families, extraction."""
from __future__ import annotations

import dataclasses
import itertools
import math

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from helpers import (
    conventional_hourly_model,
    fixing_names,
    fixings_from,
    periods_from,
    rows_as_maps,
    two_unit_fixture,
    uc_instances,
    unit,
)
from oracle import brute_force_solve, model_from_rows, objective_terms, reference_build_uc_model
from tauc.aggregation import HiResSeries, reduce_series, singleton_grid
from tauc.ingestion import build_portfolio, compute_installed_capacity
from tauc.model import (
    Fixings,
    PowerSystem,
    ThermalUnit,
    UcModel,
    build_uc_model,
    effective_min_times,
    effective_ramp_limits,
    extract_schedule,
    operating_cost,
)
from tauc.simulation import MODES, fix_from_plan, run_day_ahead
from tauc.solver import solve

G1 = ThermalUnit(
    unit_id="g1",
    flex_class="base",
    pmin=200.0,
    pmax=400.0,
    marginal_cost=20.0,
    startup_cost=1000.0,
    ramp_up=120.0,
    ramp_down=120.0,
    min_up=9.0,
    min_down=9.0,
    u0=1,
    hours_on0=9.0,
    p0=300.0,
)


# ---------------------------------------------------------------------------
# effective ramp limits
# ---------------------------------------------------------------------------


def test_ramp_limits_frozen_table():
    # durations chosen so the inter-period spans come out [0.5, 1, 2, 3]
    durations = [0.5, 1.5, 2.5, 3.5]
    ru, rd, su, sd = effective_ramp_limits(G1, durations)
    assert ru == pytest.approx([200.0, 200.0, 240.0, 360.0])
    assert rd == pytest.approx([200.0, 200.0, 240.0, 360.0])
    # startup/shutdown rate defaults to max(pmin, ramp) = 200 MW/h
    assert su == pytest.approx([200.0, 200.0, 400.0, 400.0])
    assert sd == pytest.approx([200.0, 200.0, 400.0, 400.0])


def test_ramp_limits_unit_span_equals_hourly_rate_clamp():
    ru, _, _, _ = effective_ramp_limits(G1, [1.0, 1.0])
    assert ru == pytest.approx([200.0, 200.0])  # max(pmin, 120 * 1)


def test_ramp_limits_first_span_is_own_duration():
    # the first period has no predecessor in the window: its span is its own
    # 3 h duration (120 * 3 = 360), the second spans (3 + 1) / 2 = 2 h
    ru, rd, *_ = effective_ramp_limits(G1, [3.0, 1.0])
    assert ru == pytest.approx([360.0, 240.0])
    assert rd == pytest.approx([360.0, 240.0])


def test_ramp_limits_unlimited_rate_saturates_at_pmax():
    free = unit("f1", "peak", 0.0, 50.0, 50.0)
    ru, rd, su, sd = effective_ramp_limits(free, [0.5, 2.0])
    for arr in (ru, rd, su, sd):
        assert arr == pytest.approx([50.0, 50.0])


def test_ramp_limits_reject_bad_durations():
    with pytest.raises(ValueError):
        effective_ramp_limits(G1, [])
    with pytest.raises(ValueError):
        effective_ramp_limits(G1, [1.0, -1.0])


# ---------------------------------------------------------------------------
# effective minimum times
# ---------------------------------------------------------------------------


def test_min_time_counts_hourly_nine_periods_for_8p5_hours():
    u = ThermalUnit("m1", "medium", 100.0, 300.0, 50.0, min_up=8.5, min_down=4.0,
                    u0=0, hours_off0=24.0)
    ut_init, ut_end, ut_counts, dt_init, dt_end, dt_counts = effective_min_times(
        u, [1.0] * 24
    )
    assert ut_init == 0
    assert ut_end == 9
    assert list(ut_counts[:16]) == [9] * 16
    assert list(ut_counts[16:]) == [8, 7, 6, 5, 4, 3, 2, 1]
    assert dt_end == 4
    assert list(dt_counts[:21]) == [4] * 21


def test_min_time_counts_on_variable_durations():
    u = ThermalUnit("m1", "medium", 100.0, 300.0, 50.0, min_up=1.0,
                    u0=0, hours_off0=24.0)
    _, ut_end, ut_counts, *_ = effective_min_times(u, [2.0, 0.5, 0.5])
    assert list(ut_counts) == [1, 2, 1]  # the last is capped at the tail
    assert ut_end == 2


def test_min_time_initial_pin_from_carryover():
    u = ThermalUnit("m1", "medium", 100.0, 300.0, 50.0, min_up=5.0,
                    u0=1, hours_on0=3.0, p0=150.0)
    ut_init, *_ = effective_min_times(u, [1.0] * 6)
    assert ut_init == 2  # two more on-hours owed


def test_min_time_initial_pin_absent_when_offline():
    u = ThermalUnit("m1", "medium", 100.0, 300.0, 50.0, min_up=5.0,
                    u0=0, hours_off0=24.0)
    ut_init, *_ = effective_min_times(u, [1.0] * 6)
    assert ut_init == 0


def test_min_time_counts_tolerate_inexact_step_sums():
    # 51 ten-minute periods sum to 8.5 h only up to float dust
    u = ThermalUnit("m1", "medium", 100.0, 300.0, 50.0, min_up=8.5,
                    u0=0, hours_off0=24.0)
    _, _, ut_counts, *_ = effective_min_times(u, [1.0 / 6.0] * 60)
    assert ut_counts[0] == 51


def test_min_time_zero_gives_all_zero_counts():
    u = ThermalUnit("p1", "peak", 0.0, 50.0, 80.0)
    ut_init, ut_end, ut_counts, dt_init, dt_end, dt_counts = effective_min_times(
        u, [1.0] * 4
    )
    assert ut_init == ut_end == dt_init == dt_end == 0
    assert not ut_counts.any() and not dt_counts.any()


# ---------------------------------------------------------------------------
# model construction
# ---------------------------------------------------------------------------


def _flat_instance():
    units = tuple(
        unit(f"b{i}", "base", 200.0, 200.0, 10.0) for i in range(1, 5)
    ) + (
        unit("m1", "medium", 50.0, 100.0, 30.0),
        unit("p1", "peak", 0.0, 50.0, 50.0),
    )
    system = PowerSystem(units=units, wind_capacity=0.0, solar_capacity=300.0, load_shed_cost=100.0)
    periods = periods_from([2.0, 0.5, 0.5], [500.0, 650.0, 850.0], solar_cf=[1.0, 2.0 / 3.0, 0.0])
    return system, periods


def test_build_counts_for_unconstrained_units():
    model = build_uc_model(*_flat_instance())
    assert model.n_binaries == 18
    assert len(model.variables) == 63
    families = {}
    for row in model.constraints:
        families.setdefault(row.label.split("_")[0], []).append(row.label)
    assert len(families["bal"]) == 3
    assert len(families["onmin"]) == len(families["onmax"]) == 18
    # rate-unlimited units with zero minimum times and free start-ups
    # produce no coupling rows
    assert set(families) == {"bal", "onmin", "onmax"}


def test_build_objective_prices_energy_and_shedding():
    model = build_uc_model(*_flat_instance())
    objective = objective_terms(model)
    assert objective["pg_b1_1"] == pytest.approx(10.0 * 2.0)
    assert objective["pg_m1_2"] == pytest.approx(30.0 * 0.5)
    # free start-ups are not priced; a priced one costs the unit's start-up cost
    assert "su_p1_3" not in objective
    assert objective_terms(build_uc_model(*two_unit_fixture()))["su_a1_3"] == 500.0
    # shed load pays the shed cost per MWh, so a zero-shed solution pays energy only
    assert objective["shed_1"] == pytest.approx(100.0 * 2.0)
    assert np.all(model.c >= 0.0)


def test_free_start_ups_get_no_rows_and_pinned_indicators():
    system, periods = two_unit_fixture()  # a1 pays 500 per start-up, b1 nothing
    model = build_uc_model(system, periods)
    labels = [r.label for r in model.constraints]
    assert not any(l.startswith("sucost_b1") for l in labels)
    assert sum(l.startswith("sucost_a1") for l in labels) == len(periods)
    vmap = {v.name: v for v in model.variables}
    for t in range(1, len(periods) + 1):
        assert vmap[f"su_b1_{t}"].lb == vmap[f"su_b1_{t}"].ub == 0.0
        assert (vmap[f"su_a1_{t}"].lb, vmap[f"su_a1_{t}"].ub) == (0.0, math.inf)
    row = next(r for r in model.constraints if r.label == "sucost_a1_2")
    assert dict(row.coeffs) == {"su_a1_2": 1.0, "u_a1_2": -1.0, "u_a1_1": 1.0}
    assert (row.sense, row.rhs) == (">=", 0.0)


def test_build_variable_bounds_follow_availability():
    vmap = {v.name: v for v in build_uc_model(*_flat_instance()).variables}
    assert (vmap["shed_2"].lb, vmap["shed_2"].ub) == (0.0, 650.0)
    assert vmap["ps_1"].ub == pytest.approx(300.0)
    assert vmap["ps_2"].ub == pytest.approx(200.0)
    assert vmap["ps_3"].ub == pytest.approx(0.0)
    assert vmap["pw_1"].ub == 0.0
    assert vmap["pg_b1_2"].ub == 200.0
    assert vmap["u_m1_1"].binary


def test_build_min_time_rows_emitted_with_pins():
    model = build_uc_model(*two_unit_fixture())
    labels = {r.label for r in model.constraints}
    # a1 entered the horizon with 1 of its 2.5 on-hours served: 2 pinned periods
    assert "upinit_a1" in labels
    up_init = next(r for r in model.constraints if r.label == "upinit_a1")
    assert up_init.coeffs == {"u_a1_1": 1.0, "u_a1_2": 1.0}
    assert up_init.sense == "=" and up_init.rhs == 2.0
    assert "dninit_a1" not in labels
    assert not any(l.startswith(("up_b1", "dn_b1", "upinit_b1")) for l in labels)


def test_build_ramp_rows_reference_adjacent_periods():
    model = build_uc_model(*two_unit_fixture())
    row = next(r for r in model.constraints if r.label == "rampup_a1_2")
    # p2 - p1 <= 100*u1 + 100*(u2-u1) + M*(1-u2): clamped rates are 100, and
    # M = max(0, SU - RU - pmin) = 0 where the paper has pmax = 250
    assert row.coeffs == pytest.approx(
        {"pg_a1_2": 1.0, "pg_a1_1": -1.0, "u_a1_2": -100.0}
    )
    assert row.sense == "<=" and row.rhs == 0.0
    first = next(r for r in model.constraints if r.label == "rampup_a1_1")
    assert "pg_a1_0" not in first.coeffs
    assert first.rhs == pytest.approx(0.0 + 150.0 + (100.0 - 100.0) * 1)


def test_structural_equality_with_conventional_hourly_builder():
    system, periods = two_unit_fixture()
    model = build_uc_model(system, periods)
    got_rows = rows_as_maps(model)
    want_rows, want_obj = conventional_hourly_model(system, periods)
    assert got_rows == want_rows
    assert objective_terms(model) == pytest.approx(want_obj)


def _flat_fixings(**named: float) -> Fixings:
    system, periods = _flat_instance()
    return fixings_from(system, len(periods), named)


def test_fixings_of_the_wrong_shape_raise():
    free = np.full((6, 3), np.nan)
    with pytest.raises(ValueError, match=r"commitment fixings have shape \(6, 2\), the model \(6, 3\)"):
        build_uc_model(*_flat_instance(), fixings=Fixings(free[:, :2], free))
    with pytest.raises(ValueError, match=r"dispatch fixings have shape \(5, 3\)"):
        build_uc_model(*_flat_instance(), fixings=Fixings(free, free[:5]))


def test_fixing_outside_bounds_rejected():
    with pytest.raises(ValueError, match=r"pg_b1_1: fixing 500.0 outside bounds \[0.0, 200.0\]"):
        build_uc_model(*_flat_instance(), fixings=_flat_fixings(pg_b1_1=500.0))
    with pytest.raises(ValueError, match="pg_m1_3: fixing -0.1 outside bounds"):
        build_uc_model(*_flat_instance(), fixings=_flat_fixings(pg_m1_3=-0.1))
    with pytest.raises(ValueError, match="u_b1_1: binary fixing must be 0 or 1, got 0.5"):
        build_uc_model(*_flat_instance(), fixings=_flat_fixings(u_b1_1=0.5))
    with pytest.raises(ValueError, match="u_p1_2: binary fixing must be 0 or 1, got 2.0"):
        build_uc_model(*_flat_instance(), fixings=_flat_fixings(u_p1_2=2.0))
    # the first offending column in column order is the one named
    with pytest.raises(ValueError, match="u_m1_1: binary"):
        build_uc_model(*_flat_instance(), fixings=_flat_fixings(pg_b1_1=500.0, u_m1_1=0.5))


def test_fixing_narrows_bounds_to_equality():
    fixings = _flat_fixings(u_b1_1=1.0 - 1e-10, pg_b1_1=200.0 + 1e-10)
    model = build_uc_model(*_flat_instance(), fixings=fixings)
    vmap = {v.name: v for v in model.variables}
    assert (vmap["u_b1_1"].lb, vmap["u_b1_1"].ub) == (1.0, 1.0)  # binaries are rounded
    assert (vmap["pg_b1_1"].lb, vmap["pg_b1_1"].ub) == (200.0 + 1e-10, 200.0 + 1e-10)
    # NaN leaves a column free
    assert (vmap["u_b1_2"].lb, vmap["u_b1_2"].ub) == (0.0, 1.0)
    assert (vmap["pg_p1_1"].lb, vmap["pg_p1_1"].ub) == (0.0, 50.0)
    assert sum(v.lb == v.ub for v in model.variables if v.name.startswith(("u_", "pg_"))) == 2


def test_prune_drops_constant_rows_and_reports_violations():
    system, periods = two_unit_fixture()
    # freeze a1 entirely to a plan that breaks its own ramp limit (9->160+)
    free = [np.nan] * 4
    fix = Fixings(commitment=np.array([[1.0] * 4, free]), dispatch=np.array([[100.0, 250.0, 100.0, 100.0], free]))
    model = build_uc_model(system, periods, fixings=fix)
    labels = {r.label for r in model.constraints}
    assert not any(l.startswith(("rampup_a1", "onmin_a1", "up_a1", "upinit_a1")) for l in labels)
    # the 100 -> 250 jump exceeds the clamped 100 MW/h room by 50
    assert ("rampup_a1_2", pytest.approx(50.0)) in model.pruned_violations
    # rows mixing fixed and free variables must stay
    assert any(l.startswith("sucost_a1") for l in labels)
    assert "bal_1" in labels


def _bits(value: float) -> str:
    return float(value).hex()


@settings(max_examples=200, deadline=None)
@given(uc_instances())
def test_array_builder_equals_reference_builder_bit_for_bit(instance):
    """Same labels, term order, coefficients, row and column bounds,
    integrality, objective and pruned rows as the dict builder; a
    reference row left with no terms is the one allowed difference: the
    array builder drops it like a fully fixed row."""
    system, periods, fixings = instance
    got = build_uc_model(system, periods, fixings)
    want = reference_build_uc_model(system, periods, fixing_names(system, fixings))

    empty = [row for row in want.constraints if not row.coeffs]
    rows = [row for row in want.constraints if row.coeffs]
    assert [row.label for row in got.constraints] == [row.label for row in rows]
    for a, b in zip(got.constraints, rows):
        assert (a.sense, _bits(a.rhs)) == (b.sense, _bits(b.rhs)), b.label
        assert [(k, _bits(v)) for k, v in a.coeffs.items()] == [(k, _bits(v)) for k, v in b.coeffs.items()]
    assert [(v.name, _bits(v.lb), _bits(v.ub), v.binary) for v in got.variables] == [
        (v.name, _bits(v.lb), _bits(v.ub), v.binary) for v in want.variables
    ]
    assert {k: _bits(v) for k, v in objective_terms(got).items()} == {
        k: _bits(v) for k, v in want.objective.items()
    }

    def zero_violation(row):
        return {"<=": max(0.0, -row.rhs), ">=": max(0.0, row.rhs), "=": abs(row.rhs)}[row.sense]

    pruned = dict(want.pruned_violations)
    pruned.update((row.label, zero_violation(row)) for row in empty if zero_violation(row) > 1e-6)
    assert {k: _bits(v) for k, v in got.pruned_violations} == {k: _bits(v) for k, v in pruned.items()}
    assert [k for k, _ in got.pruned_violations if k in dict(want.pruned_violations)] == [
        k for k, _ in want.pruned_violations
    ]


def _paper_model(system, periods, fixings=None) -> tuple[UcModel, tuple]:
    """The model with the paper's ramp rows (big-M pmax) as an array model,
    and its pruned rows; rows left with no terms are dropped, as the array
    builder drops them."""
    ref = reference_build_uc_model(system, periods, fixing_names(system, fixings), ramp_big_m="pmax")
    rows = [row for row in ref.constraints if row.coeffs]
    return model_from_rows(ref.variables, rows, ref.objective), ref.pruned_violations


def _relaxed(model: UcModel) -> UcModel:
    return dataclasses.replace(model, integrality=np.zeros_like(model.integrality))


@settings(max_examples=80, deadline=None)
@given(uc_instances(ramp_limited=True))
def test_strengthened_ramp_rows_keep_the_papers_optimum_and_lift_its_lp_bound(instance):
    """The shipped ramp rows (big-M max(0, SU - RU - pmin)) and the paper's
    (big-M pmax) reach the same status and optimum at gap 0, prune the same
    rows, and the shipped LP relaxation never sits below the paper's."""
    system, periods, fixings = instance
    shipped = build_uc_model(system, periods, fixings)
    paper, paper_pruned = _paper_model(system, periods, fixings)
    assert [k for k, _ in shipped.pruned_violations] == [k for k, _ in paper_pruned]
    got, want = solve(shipped), solve(paper)
    assert got.status == want.status
    if want.status == "optimal":
        assert got.objective == pytest.approx(want.objective, rel=1e-9, abs=1e-9)
    got, want = solve(_relaxed(shipped)), solve(_relaxed(paper))
    if want.status == "infeasible":
        assert got.status == "infeasible"
    elif got.status != "infeasible":
        assert (got.status, want.status) == ("optimal", "optimal")
        assert got.objective >= want.objective - 1e-9 * max(1.0, abs(want.objective))


@settings(max_examples=80, deadline=None)
@given(uc_instances())
def test_shed_column_and_served_demand_reach_the_same_optimum(instance):
    """The shipped balance, shed load as a column priced at the shed cost,
    and the served-demand form (pd_t priced at minus the shed cost, plus the
    price of shedding the whole forecast) reach the same status and cost to
    1e-6; every cost the shipped builder writes is nonnegative."""
    system, periods, fixings = instance
    shipped = build_uc_model(system, periods, fixings)
    assert np.all(shipped.c >= 0.0)
    ref = reference_build_uc_model(system, periods, fixing_names(system, fixings), balance="served")
    served = model_from_rows(ref.variables, [row for row in ref.constraints if row.coeffs], ref.objective)
    got, want = solve(shipped), solve(served)
    assert got.status == want.status
    if want.status == "optimal":
        assert got.objective == pytest.approx(want.objective + ref.objective_offset, rel=1e-6, abs=1e-6)


@settings(max_examples=50, deadline=None)
@given(uc_instances(max_units=2, max_periods=3, fix=False, ramp_limited=True))
def test_strengthened_ramp_rows_admit_the_same_commitments(instance):
    """Every commitment vector, solved exactly with the commitment fixed, is
    feasible under the shipped ramp rows exactly when it is under the paper's."""
    system, periods, _ = instance
    forms = (build_uc_model(system, periods), _paper_model(system, periods)[0])
    k = len(system.units) * len(periods)  # the u columns come first in both forms
    for bits in itertools.product((0.0, 1.0), repeat=k):
        status = []
        for model in forms:
            lb, ub = model.lb.copy(), model.ub.copy()
            lb[:k] = ub[:k] = bits
            status.append(brute_force_solve(dataclasses.replace(model, lb=lb, ub=ub)).status)
        assert status[0] == status[1], bits


def test_real_time_lp_bound_of_the_day_fleet_is_near_the_optimum():
    """The day benchmark's fleet (study13 g4 and g8) over one half-hour day
    from a cold start: the LP relaxation of each mode's real-time model lies
    within 0.1% of its MIP optimum. With the paper's pmax ramp rows it sat
    about half the cost below."""
    rng = np.random.default_rng(0)
    t = np.arange(48) * 0.5
    demand = np.clip(400.0 + 100.0 * np.sin(2 * np.pi * (t - 9.0) / 24.0) + rng.normal(0.0, 15.0, 48), 50.0, None)
    wind = np.clip(0.35 + 0.2 * np.sin(2 * np.pi * t / 37.0) + rng.normal(0.0, 0.05, 48), 0.0, 1.0)
    solar = np.clip(np.sin(np.pi * ((t % 24.0) - 6.0) / 12.0), 0.0, 1.0)
    series = HiResSeries(demand=demand, wind_cf=wind, solar_cf=solar, step_minutes=30)
    system = PowerSystem(
        units=tuple(u for u in build_portfolio("study13") if u.unit_id in ("g4", "g8")),
        wind_capacity=compute_installed_capacity(0.2, demand, wind),
        solar_capacity=compute_installed_capacity(0.2, demand, solar),
        load_shed_cost=10000.0,
    )
    periods = reduce_series(series, singleton_grid(48, 30))
    for mode in MODES:
        fixings = fix_from_plan(run_day_ahead(system, series, mode), system.units, 48)
        model = build_uc_model(system, periods, fixings)
        mip, lp = solve(model), solve(_relaxed(model))
        assert mip.status == lp.status == "optimal"
        assert mip.objective - lp.objective <= 1e-3 * mip.objective, mode


@settings(max_examples=100, deadline=None)
@given(uc_instances(), st.data())
def test_row_activity_sums_each_row_in_triplet_order_bit_for_bit(instance, data):
    """row_activity(x) is A @ x with each row summed left to right in the
    order the builder wrote its terms."""
    model = build_uc_model(*instance)
    x = np.array(data.draw(st.lists(st.floats(-1e4, 1e4), min_size=model.n_cols, max_size=model.n_cols)))
    want = [0.0] * model.n_rows
    for i, j, v in zip(model.rows.tolist(), model.cols.tolist(), model.vals.tolist()):
        want[i] += v * x[j]  # not sum(): from Python 3.12 it compensates rounding
    got = model.row_activity(x)
    assert got.shape == (model.n_rows,)
    assert [_bits(v) for v in got] == [_bits(v) for v in want]


def test_unit_initial_state_validation():
    with pytest.raises(ValueError, match="hours_on0"):
        ThermalUnit("x", "base", 10.0, 20.0, 5.0, u0=1, hours_on0=0.0, p0=15.0)
    with pytest.raises(ValueError, match="p0"):
        ThermalUnit("x", "base", 10.0, 20.0, 5.0, u0=1, hours_on0=2.0, p0=5.0)
    with pytest.raises(ValueError, match="p0"):
        ThermalUnit("x", "base", 10.0, 20.0, 5.0, u0=0, hours_off0=3.0, p0=15.0)
    with pytest.raises(ValueError, match="class"):
        ThermalUnit("x", "nuclear", 10.0, 20.0, 5.0)


def test_negative_marginal_cost_is_rejected():
    """Solve results count as optimal on the cost only while every cost is nonnegative."""
    with pytest.raises(ValueError, match="x: marginal_cost must be nonnegative"):
        ThermalUnit("x", "peak", 0.0, 20.0, -5.0)
    assert ThermalUnit("x", "peak", 0.0, 20.0, 0.0).marginal_cost == 0.0


def test_instance_validation():
    with pytest.raises(ValueError, match="unique"):
        PowerSystem(
            units=(unit("a", "base", 0, 10, 5), unit("a", "base", 0, 10, 5)),
            wind_capacity=0.0,
            solar_capacity=0.0,
            load_shed_cost=100.0,
        )
    with pytest.raises(ValueError, match="period"):
        build_uc_model(
            PowerSystem(
                units=(unit("a", "base", 0, 10, 5),),
                wind_capacity=0.0,
                solar_capacity=0.0,
                load_shed_cost=100.0,
            ),
            periods=periods_from([], []),
        )


# ---------------------------------------------------------------------------
# schedule extraction and costing
# ---------------------------------------------------------------------------


def _toy_solution():
    system = PowerSystem(
        units=(unit("a", "base", 50.0, 100.0, 10.0),),
        wind_capacity=0.0,
        solar_capacity=100.0,
        load_shed_cost=500.0,
    )
    periods = periods_from([1.0, 0.5], [120.0, 200.0], solar_cf=[0.5, 1.0])
    values = {
        "u_a_1": 1.0, "u_a_2": 1.0,
        "pg_a_1": 100.0, "pg_a_2": 100.0,
        "su_a_1": 0.0, "su_a_2": 0.0,
        "pw_1": 0.0, "pw_2": 0.0,
        "ps_1": 20.0, "ps_2": 80.0,
        "shed_1": 0.0, "shed_2": 20.0,
    }
    names = build_uc_model(system, periods).col_names.tolist()
    return system, periods, np.array([values[name] for name in names]), names


def test_extract_schedule_derives_shed_and_spill():
    system, periods, values, _ = _toy_solution()
    sched = extract_schedule(system, periods, values)
    assert sched.commitment.tolist() == [[1, 1]]
    assert sched.shed == pytest.approx([0.0, 20.0])
    assert sched.solar_spill == pytest.approx([30.0, 20.0])
    assert sched.wind_spill == pytest.approx([0.0, 0.0])


def test_extract_schedule_rejects_fractional_commitment():
    system, periods, values, names = _toy_solution()
    values[names.index("u_a_2")] = 0.4
    with pytest.raises(ValueError, match="integral"):
        extract_schedule(system, periods, values)


def test_extract_schedule_rejects_oversupply():
    system, periods, values, names = _toy_solution()
    values[names.index("shed_2")] = -30.0  # serves 230 MW of a 200 MW forecast
    with pytest.raises(ValueError, match="shed"):
        extract_schedule(system, periods, values)


def test_operating_cost_full_and_sliced():
    system, periods, values, _ = _toy_solution()
    sched = extract_schedule(system, periods, values)
    # energy: 100*1*10 + 100*0.5*10 ; shed: 20 MW * 0.5 h * 500
    assert operating_cost(system, periods, sched) == pytest.approx(1000.0 + 500.0 + 5000.0)
    assert operating_cost(system, periods, sched, slice(0, 1)) == pytest.approx(1000.0)
    assert operating_cost(system, periods, sched, slice(1, 2)) == pytest.approx(5500.0)


@settings(max_examples=60, deadline=None)
@given(uc_instances(fix=False))
def test_solved_objective_equals_operating_cost_of_the_schedule(instance):
    """The objective prices a start-up at the unit's start-up cost, exactly
    as the schedule's startup_cost does, so the two costs agree."""
    system, periods, _ = instance
    solved = solve(build_uc_model(system, periods))
    assume(solved.status == "optimal")  # a unit held at pmin may oversupply
    schedule = extract_schedule(system, periods, solved.x)
    assert operating_cost(system, periods, schedule) == pytest.approx(solved.objective, rel=1e-9, abs=1e-9)
