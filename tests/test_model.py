"""Model-builder behaviour: effective parameters, constraint families, extraction."""
from __future__ import annotations

import numpy as np
import pytest

from helpers import (
    conventional_hourly_model,
    periods_from,
    rows_as_maps,
    two_unit_fixture,
    unit,
)
from tauc.model import (
    PowerSystem,
    ThermalUnit,
    build_uc_model,
    effective_min_times,
    effective_ramp_limits,
    extract_schedule,
    operating_cost,
)

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


def test_ramp_limits_chained_previous_duration():
    ru_cold, *_ = effective_ramp_limits(G1, [1.0, 1.0])
    ru_chained, *_ = effective_ramp_limits(G1, [1.0, 1.0], d_prev=5.0)
    assert ru_cold[0] == pytest.approx(200.0)
    assert ru_chained[0] == pytest.approx(360.0)  # span (5+1)/2 = 3 h
    assert ru_chained[1] == ru_cold[1]


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
    with pytest.raises(ValueError):
        effective_ramp_limits(G1, [1.0], d_prev=0.0)


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
    assert len(families["sucost"]) == 18
    # rate-unlimited units with zero minimum times produce no coupling rows
    assert set(families) == {"bal", "onmin", "onmax", "sucost"}


def test_build_objective_prices_energy_and_shedding():
    model = build_uc_model(*_flat_instance())
    assert model.objective["pg_b1_1"] == pytest.approx(10.0 * 2.0)
    assert model.objective["pg_m1_2"] == pytest.approx(30.0 * 0.5)
    assert model.objective["su_p1_3"] == 1.0
    assert model.objective["pd_1"] == pytest.approx(-100.0 * 2.0)
    # offset prices the full forecast so a zero-shed solution pays energy only
    assert model.objective_offset == pytest.approx(100.0 * (2.0 * 500 + 0.5 * 650 + 0.5 * 850))


def test_build_variable_bounds_follow_availability():
    vmap = build_uc_model(*_flat_instance()).variable_map
    assert (vmap["pd_2"].lb, vmap["pd_2"].ub) == (0.0, 650.0)
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
    # p2 - p1 <= 100*u1 + 100*(u2-u1) + 250*(1-u2): clamped rates are 100
    assert row.coeffs == pytest.approx(
        {"pg_a1_2": 1.0, "pg_a1_1": -1.0, "u_a1_2": 150.0}
    )
    assert row.sense == "<=" and row.rhs == 250.0
    first = next(r for r in model.constraints if r.label == "rampup_a1_1")
    assert "pg_a1_0" not in first.coeffs
    assert first.rhs == pytest.approx(250.0 + 150.0 + (100.0 - 100.0) * 1)


def test_structural_equality_with_conventional_hourly_builder():
    system, periods = two_unit_fixture()
    model = build_uc_model(system, periods)
    got_rows = rows_as_maps(model)
    want_rows, want_obj, want_offset = conventional_hourly_model(system, periods)
    assert got_rows == want_rows
    assert dict(model.objective) == pytest.approx(want_obj)
    assert model.objective_offset == pytest.approx(want_offset)


def test_fixing_unknown_label_raises_keyerror():
    with pytest.raises(KeyError, match="unknown variable"):
        build_uc_model(*_flat_instance(), fixings={"pg_zz_1": 1.0})


def test_fixing_outside_bounds_rejected():
    with pytest.raises(ValueError, match="outside bounds"):
        build_uc_model(*_flat_instance(), fixings={"pg_b1_1": 500.0})
    with pytest.raises(ValueError, match="binary"):
        build_uc_model(*_flat_instance(), fixings={"u_b1_1": 0.5})


def test_fixing_narrows_bounds_to_equality():
    model = build_uc_model(*_flat_instance(), fixings={"u_b1_1": 1.0, "pg_b1_1": 200.0})
    vmap = model.variable_map
    assert (vmap["u_b1_1"].lb, vmap["u_b1_1"].ub) == (1.0, 1.0)
    assert (vmap["pg_b1_1"].lb, vmap["pg_b1_1"].ub) == (200.0, 200.0)


def test_prune_drops_constant_rows_and_reports_violations():
    system, periods = two_unit_fixture()
    # freeze a1 entirely to a plan that breaks its own ramp limit (9->160+)
    fix = {}
    dispatch = [100.0, 250.0, 100.0, 100.0]
    for t, p in enumerate(dispatch, start=1):
        fix[f"u_a1_{t}"] = 1.0
        fix[f"pg_a1_{t}"] = p
    model = build_uc_model(system, periods, fixings=fix)
    labels = {r.label for r in model.constraints}
    assert not any(l.startswith(("rampup_a1", "onmin_a1", "up_a1", "upinit_a1")) for l in labels)
    # the 100 -> 250 jump exceeds the clamped 100 MW/h room by 50
    assert ("rampup_a1_2", pytest.approx(50.0)) in model.pruned_violations
    # rows mixing fixed and free variables must stay
    assert any(l.startswith("sucost_a1") for l in labels)
    assert "bal_1" in labels


def test_unit_initial_state_validation():
    with pytest.raises(ValueError, match="hours_on0"):
        ThermalUnit("x", "base", 10.0, 20.0, 5.0, u0=1, hours_on0=0.0, p0=15.0)
    with pytest.raises(ValueError, match="p0"):
        ThermalUnit("x", "base", 10.0, 20.0, 5.0, u0=1, hours_on0=2.0, p0=5.0)
    with pytest.raises(ValueError, match="p0"):
        ThermalUnit("x", "base", 10.0, 20.0, 5.0, u0=0, hours_off0=3.0, p0=15.0)
    with pytest.raises(ValueError, match="class"):
        ThermalUnit("x", "nuclear", 10.0, 20.0, 5.0)


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
            periods=(),
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
        "pd_1": 120.0, "pd_2": 180.0,
    }
    return system, periods, values


def test_extract_schedule_derives_shed_and_spill():
    system, periods, values = _toy_solution()
    sched = extract_schedule(system, periods, values)
    assert sched.commitment.tolist() == [[1, 1]]
    assert sched.shed == pytest.approx([0.0, 20.0])
    assert sched.solar_spill == pytest.approx([30.0, 20.0])
    assert sched.wind_spill == pytest.approx([0.0, 0.0])


def test_extract_schedule_rejects_fractional_commitment():
    system, periods, values = _toy_solution()
    values["u_a_2"] = 0.4
    with pytest.raises(ValueError, match="integral"):
        extract_schedule(system, periods, values)


def test_extract_schedule_rejects_oversupply():
    system, periods, values = _toy_solution()
    values["pd_2"] = 230.0  # above the 200 MW forecast: negative shed
    with pytest.raises(ValueError, match="shed"):
        extract_schedule(system, periods, values)


def test_operating_cost_full_and_sliced():
    system, periods, values = _toy_solution()
    sched = extract_schedule(system, periods, values)
    # energy: 100*1*10 + 100*0.5*10 ; shed: 20 MW * 0.5 h * 500
    assert operating_cost(system, periods, sched) == pytest.approx(1000.0 + 500.0 + 5000.0)
    assert operating_cost(system, periods, sched, slice(0, 1)) == pytest.approx(1000.0)
    assert operating_cost(system, periods, sched, slice(1, 2)) == pytest.approx(5500.0)
