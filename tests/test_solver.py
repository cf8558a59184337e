"""Solve layer: LP round trip, exhaustive oracle, solve(), audits."""
import json
import math
import re
import textwrap

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st
from scipy import sparse
from scipy.optimize import Bounds, LinearConstraint, milp

from helpers import (
    TESTS,
    fixings_from,
    periods_from,
    random_small_instance,
    run_in_fresh_interpreter,
    two_unit_fixture,
    uc_instances,
    unit,
)
from oracle import (
    brute_force_solve,
    emit_model_file,
    model_from_rows,
    objective_terms,
    read_model_file,
    reference_build_uc_model,
    reference_check_solution,
    solve_lp,
    u_name,
)
from tauc.aggregation import HiResSeries, reduce_series, singleton_grid
from tauc.ingestion import build_portfolio
from tauc.model import Fixings, PowerSystem, Row, UcModel, Variable, build_uc_model, extract_schedule
from tauc.simulation import MODES, fix_from_plan, run_day_ahead
from tauc.solver import BackendConfig, check_solution, solve

GOLDEN_ONE_VAR_LP = (
    "Minimize\n"
    " obj: 1 x\n"
    "Subject To\n"
    "Bounds\n"
    " 0 <= x <= 1\n"
    "End\n"
)


def one_var_model() -> UcModel:
    return model_from_rows((Variable("x", 0.0, 1.0),), (), {"x": 1.0})


def model_maps(model: UcModel):
    rows = {r.label: (dict(r.coeffs), r.sense, r.rhs) for r in model.constraints}
    bounds = {v.name: (v.lb, v.ub, v.binary) for v in model.variables}
    return rows, bounds, objective_terms(model)


def assert_models_equivalent(a: UcModel, b: UcModel) -> None:
    rows_a, bounds_a, obj_a = model_maps(a)
    rows_b, bounds_b, obj_b = model_maps(b)
    assert rows_a.keys() == rows_b.keys()
    for label in rows_a:
        coeffs_a, sense_a, rhs_a = rows_a[label]
        coeffs_b, sense_b, rhs_b = rows_b[label]
        assert sense_a == sense_b
        assert coeffs_a.keys() == coeffs_b.keys()
        for name in coeffs_a:
            assert coeffs_b[name] == pytest.approx(coeffs_a[name], rel=1e-11)
        assert rhs_b == pytest.approx(rhs_a, rel=1e-11, abs=1e-11)
    assert bounds_a.keys() == bounds_b.keys()
    for name, (lo, hi, is_bin) in bounds_a.items():
        lo_b, hi_b, bin_b = bounds_b[name]
        assert bin_b == is_bin
        if math.isfinite(lo):
            assert lo_b == pytest.approx(lo, rel=1e-11, abs=1e-11)
        else:
            assert lo_b == lo
        if math.isfinite(hi):
            assert hi_b == pytest.approx(hi, rel=1e-11, abs=1e-11)
        else:
            assert hi_b == hi
    assert obj_a.keys() == obj_b.keys()
    for name in obj_a:
        assert obj_b[name] == pytest.approx(obj_a[name], rel=1e-11)


# ---------------------------------------------------------------------------
# simplex engine behind the oracle


def test_simplex_bounded_optimum():
    # min -x - 2y, x + y <= 3, boxes [0,2]: y saturates first, then x
    res = solve_lp([-1.0, -2.0], [[1.0, 1.0]], ["<="], [3.0], [0.0, 0.0], [2.0, 2.0])
    assert res.status == "optimal"
    assert res.objective == pytest.approx(-5.0, abs=1e-9)
    assert res.x == pytest.approx([1.0, 2.0], abs=1e-9)


def test_simplex_equality_and_ge_rows():
    res = solve_lp([2.0, 1.0], [[1.0, 1.0], [1.0, -1.0]], ["=", ">="],
                   [4.0, -2.0], [0.0, 0.0], [10.0, 10.0])
    assert res.status == "optimal"
    assert res.objective == pytest.approx(5.0, abs=1e-9)
    assert res.x == pytest.approx([1.0, 3.0], abs=1e-9)


def test_simplex_detects_infeasible():
    res = solve_lp([1.0], [[1.0]], [">="], [5.0], [0.0], [1.0])
    assert res.status == "infeasible"


def test_simplex_detects_unbounded():
    res = solve_lp([-1.0], np.zeros((0, 1)), [], [], [0.0], [math.inf])
    assert res.status == "unbounded"


def test_simplex_negative_lower_bound_and_fixed_variable():
    res = solve_lp([1.0, 3.0], [[1.0, 1.0]], ["<="], [5.0],
                   [-3.0, 2.0], [4.0, 2.0])
    assert res.status == "optimal"
    assert res.x == pytest.approx([-3.0, 2.0], abs=1e-9)
    assert res.objective == pytest.approx(3.0, abs=1e-9)


def test_simplex_agrees_with_reference_lp_solver_on_random_problems():
    """Exactness check of the hand-rolled engine against scipy's LP."""
    from scipy.optimize import linprog

    rng = np.random.default_rng(424242)
    agreements = 0
    for _ in range(60):
        n = int(rng.integers(1, 6))
        m = int(rng.integers(0, 6))
        c = rng.normal(size=n) * 10
        a = rng.normal(size=(m, n)) * 5
        senses = [str(rng.choice(["<=", ">=", "="])) for _ in range(m)]
        b = rng.normal(size=m) * 20
        lb = rng.choice([0.0, -5.0, 2.0], size=n)
        ub = lb + rng.choice([0.0, 3.0, 10.0, np.inf], size=n)
        res = solve_lp(c, a, senses, b, lb, ub)

        a_ub, b_ub, a_eq, b_eq = [], [], [], []
        for i, sense in enumerate(senses):
            if sense == "<=":
                a_ub.append(a[i])
                b_ub.append(b[i])
            elif sense == ">=":
                a_ub.append(-a[i])
                b_ub.append(-b[i])
            else:
                a_eq.append(a[i])
                b_eq.append(b[i])
        ref = linprog(c, A_ub=np.array(a_ub) if a_ub else None,
                      b_ub=b_ub or None,
                      A_eq=np.array(a_eq) if a_eq else None,
                      b_eq=b_eq or None,
                      bounds=list(zip(lb, ub)), method="highs")
        expected = {0: "optimal", 2: "infeasible", 3: "unbounded"}.get(ref.status)
        assert expected is not None
        assert res.status == expected
        if expected == "optimal":
            assert res.objective == pytest.approx(ref.fun, rel=1e-8, abs=1e-8)
            agreements += 1
    assert agreements >= 20


# ---------------------------------------------------------------------------
# LP file emission and parsing


def test_emitted_lp_matches_golden_text():
    assert emit_model_file(one_var_model()) == GOLDEN_ONE_VAR_LP


def test_emission_is_deterministic():
    model_a = build_uc_model(*two_unit_fixture())
    model_b = build_uc_model(*two_unit_fixture())
    text = emit_model_file(model_a)
    assert emit_model_file(model_b) == text
    assert emit_model_file(model_a) == text


def test_lp_round_trip_preserves_every_coefficient():
    model = build_uc_model(*two_unit_fixture())
    parsed = read_model_file(emit_model_file(model))
    assert_models_equivalent(model, parsed)


def test_lp_round_trip_with_fixed_binaries():
    system, periods = two_unit_fixture()
    model = build_uc_model(system, periods, fixings=fixings_from(system, len(periods), {u_name("a1", 1): 1.0}))
    parsed = read_model_file(emit_model_file(model))
    assert_models_equivalent(model, parsed)
    vmap = {v.name: v for v in parsed.variables}
    assert vmap[u_name("a1", 1)].lb == 1.0
    assert vmap[u_name("a1", 1)].ub == 1.0


def test_emit_rejects_a_non_finite_number():
    model = model_from_rows((Variable("x", 0.0, 1.0),), (Row("open", {"x": 1.0}, "<=", math.inf),), {"x": 1.0})
    with pytest.raises(ValueError, match="non-finite"):
        emit_model_file(model)


def test_parser_rejects_maximization_and_junk():
    with pytest.raises(ValueError):
        read_model_file("Maximize\n obj: 1 x\nEnd\n")
    with pytest.raises(ValueError):
        read_model_file("garbage before any section\nMinimize\n obj: 1 x\nEnd\n")
    with pytest.raises(ValueError):
        read_model_file("Minimize\n obj: 1 x\nBounds\n x <= <= 3\nEnd\n")
    with pytest.raises(ValueError, match="constant"):
        read_model_file("Minimize\n obj: 1 x + 7\nEnd\n")


def test_parser_handles_wrapped_constraints_and_rhs_terms():
    text = textwrap.dedent("""\
        Minimize
         obj: 2 x + 3 y
        Subject To
         c1: 1 x
          + 2 y <= 10
         c2: 3 x >= 1 y + 1
        Bounds
         x >= 0
         0 <= y <= 8
        End
        """)
    model = read_model_file(text)
    rows = {r.label: r for r in model.constraints}
    assert rows["c1"].coeffs == {"x": 1.0, "y": 2.0}
    assert rows["c1"].sense == "<="
    assert rows["c1"].rhs == 10.0
    assert rows["c2"].coeffs == {"x": 3.0, "y": -1.0}
    assert rows["c2"].rhs == 1.0
    assert {v.name: v for v in model.variables}["y"].ub == 8.0


# ---------------------------------------------------------------------------
# solution audit


def test_check_solution_flags_bound_row_and_integrality_violations():
    model = build_uc_model(*two_unit_fixture())
    good = solve(model)
    assert good.status == "optimal"
    assert check_solution(model, good.x) == []
    column = model.col_names.tolist().index

    bad = good.x.copy()
    bad[column("pg_a1_1")] += 5.0
    assert any("bal_1" in p for p in check_solution(model, bad))

    bad = good.x.copy()
    bad[column(u_name("b1", 2))] = 0.4
    assert any("not integral" in p for p in check_solution(model, bad))

    bad = good.x.copy()
    bad[column("pg_a1_1")] = math.nan
    assert any("missing" in p for p in check_solution(model, bad))


def _flagged(problems: list[str]) -> set[str]:
    """The column or row each audit message names."""
    return {re.split(r"[=:]", p, maxsplit=1)[0] for p in problems}


def _near_tolerance_edge(model, values: dict[str, float], tol: float = 1e-6) -> bool:
    """Whether a bound, integrality or row residual of the reference audit lies
    within a factor of two of its allowance, where summation order may tip it."""
    def near(excess: float, allow: float) -> bool:
        return 0.5 * allow < excess < 2.0 * allow

    for var in model.variables:
        x = values[var.name]
        allow = tol * max(1.0, abs(x))
        if near(var.lb - x, allow) or near(x - var.ub, allow):
            return True
        if var.binary and near(abs(x - round(x)), tol):
            return True
    for row in model.constraints:
        lhs = sum(c * values[n] for n, c in row.coeffs.items())
        scale = max([1.0, abs(row.rhs)] + [abs(c * values[n]) for n, c in row.coeffs.items()])
        excess = {"<=": lhs - row.rhs, ">=": row.rhs - lhs, "=": abs(lhs - row.rhs)}[row.sense]
        if near(excess, tol * scale):
            return True
    return False


@settings(max_examples=60, deadline=None)
@given(uc_instances(fix=False), st.data())
def test_array_audit_agrees_with_reference_audit(instance, data):
    """check_solution (A @ x) flags the same columns and rows as the per-row
    dict audit on solved points moved off feasibility by various amounts."""
    system, periods, _ = instance
    model = build_uc_model(system, periods)
    reference = reference_build_uc_model(system, periods)
    solved = solve(model)
    assume(solved.status == "optimal")
    x = solved.x.copy()
    for j in data.draw(st.lists(st.integers(0, model.n_cols - 1), max_size=4)):
        x[j] += data.draw(st.sampled_from([-50.0, -0.3, -1e-3, -2e-5, 1e-9, 2e-5, 1e-3, 0.3, 50.0]))
    values = dict(zip(model.col_names.tolist(), x.tolist()))
    assume(not _near_tolerance_edge(reference, values))
    got = check_solution(model, x)
    want = reference_check_solution(reference, values)
    assert bool(got) == bool(want)
    assert _flagged(got) == _flagged(want)


UNFOLDED_STATUS = {0: "optimal", 2: "infeasible", 3: "unbounded"}


def whole_model_milp(model: UcModel):
    """HiGHS at gap 0 on every column of the model, nothing folded."""
    matrix = sparse.csr_matrix((model.vals, (model.rows, model.cols)), shape=(model.n_rows, model.n_cols))
    return milp(c=model.c, constraints=LinearConstraint(matrix, model.row_lb, model.row_ub),
                integrality=model.integrality, bounds=Bounds(model.lb, model.ub),
                options={"presolve": True, "mip_rel_gap": 0.0})


@settings(max_examples=40, deadline=None)
@given(uc_instances())
def test_folding_fixed_columns_matches_the_unfolded_solve(instance):
    """HiGHS on the free columns, with the fixed ones folded into the row
    bounds and a constant, solves the same problem as HiGHS on the whole model."""
    model = build_uc_model(*instance)
    fixed = model.lb == model.ub
    assume(fixed.any())
    folded = solve(model)
    whole = whole_model_milp(model)
    assert folded.status == UNFOLDED_STATUS[whole.status]
    if folded.status != "optimal":
        return
    assert folded.objective == pytest.approx(whole.fun, rel=1e-9, abs=1e-9)
    assert folded.dual_bound == pytest.approx(whole.mip_dual_bound, rel=1e-9, abs=1e-9)
    assert np.array_equal(folded.x[fixed], model.lb[fixed])


@settings(max_examples=200, deadline=None)
@given(uc_instances(free_unit=True))
def test_lifting_binaries_that_cannot_matter_matches_the_unfolded_solve(instance):
    """A free binary that costs nothing and whose rise no row resists is fixed
    at 1 before HiGHS; the solve still reaches the whole model's optimum."""
    system, periods, fixings = instance
    model = build_uc_model(system, periods, fixings)
    folded = solve(model)
    whole = whole_model_milp(model)
    assert folded.status == UNFOLDED_STATUS[whole.status]
    if folded.status != "optimal":
        return
    assert folded.objective == pytest.approx(whole.fun, rel=1e-9, abs=1e-9)
    commitment = folded.x[:len(system.units) * len(periods)].reshape(len(system.units), -1)
    assert np.all(commitment[-1] == 1.0)  # the free unit, appended last


def recorded_calls(monkeypatch) -> list[dict]:
    """Patch the solver's milp to note the integrality and options of each call it gets."""
    seen = []

    def recording_milp(*args, **kwargs):
        seen.append({"integrality": np.asarray(kwargs["integrality"]).copy(),
                     "options": dict(kwargs["options"])})
        return milp(*args, **kwargs)

    monkeypatch.setattr("tauc.solver.milp", recording_milp)
    return seen


@pytest.mark.parametrize("mode", MODES)
def test_a_rolling_real_time_model_reaches_highs_as_an_lp(monkeypatch, mode):
    """example6 under a plan: the plan fixes the base and medium units, and
    the peak unit p1 (pmin 0, free start-ups, no ramps or minimum times) is
    lifted, so HiGHS gets no integer column."""
    rng = np.random.default_rng(0)
    t = np.arange(96) * 5 / 60.0
    series = HiResSeries(
        demand=1150.0 + 150.0 * np.sin(2 * np.pi * (t - 9.0) / 24.0) + rng.normal(0.0, 20.0, 96),
        wind_cf=np.clip(0.35 + rng.normal(0.0, 0.05, 96), 0.0, 1.0),
        solar_cf=np.clip(np.sin(np.pi * (t - 6.0) / 12.0), 0.0, 1.0),
        step_minutes=5,
    )
    system = PowerSystem(units=build_portfolio("example6"), wind_capacity=200.0, solar_capacity=150.0,
                         load_shed_cost=100.0)
    plan = run_day_ahead(system, series, mode)
    periods = reduce_series(series, singleton_grid(series.n_points, series.step_minutes))
    model = build_uc_model(system, periods, fix_from_plan(plan, system.units, series.n_points))
    assert model.integrality[model.lb != model.ub].any()  # p1's commitment is left free
    seen = recorded_calls(monkeypatch)
    res = solve(model)
    assert len(seen) == 1 and not seen[0]["integrality"].any()
    assert res.status == "optimal"
    assert res.gap == 0.0 and res.node_count == 0
    # an LP optimum is its own bound, so it cannot sit above the audited objective
    assert res.dual_bound <= res.objective
    p1 = [u.unit_id for u in system.units].index("p1")
    assert np.all(extract_schedule(system, periods, res.x).commitment[p1] == 1.0)


@pytest.mark.parametrize("fleet", [("g4", "g8"), None])
def test_start_up_costs_and_minimum_outputs_keep_every_binary(monkeypatch, fleet):
    """The day workload's fleet (g4+g8) and study13: a start-up cost or a
    pmin > 0 blocks each commitment, so HiGHS gets every free binary."""
    units = build_portfolio("study13")
    if fleet is not None:
        units = tuple(u for u in units if u.unit_id in fleet)
    system = PowerSystem(units=units, wind_capacity=300.0, solar_capacity=300.0, load_shed_cost=10000.0)
    capacity = sum(u.pmax for u in units)
    periods = periods_from([1.0] * 4, [0.3 * capacity, 0.6 * capacity, 0.8 * capacity, 0.5 * capacity],
                           wind_cf=[0.3] * 4, solar_cf=[0.0, 0.5, 1.0, 0.2])
    model = build_uc_model(system, periods)
    seen = recorded_calls(monkeypatch)
    assert solve(model).status == "optimal"
    assert len(seen) == 1
    assert np.array_equal(seen[0]["integrality"], model.integrality[model.lb != model.ub])


def test_every_in_process_call_turns_two_root_heuristics_off(monkeypatch):
    """A model with a free binary (the MIP path) and one whose binaries are all
    fixed (the LP path) both reach HiGHS with presolve, the configured gap, and
    the root reduced-cost sub-MIP and feasibility jump switched off."""
    seen = recorded_calls(monkeypatch)
    mip = build_uc_model(*two_unit_fixture())
    lp = model_from_rows((Variable("p", 0.0, 50.0), Variable("u", 1.0, 1.0, binary=True)),
                         (Row("cap", {"p": 1.0, "u": -50.0}, "<=", 0.0), Row("floor", {"p": 1.0}, ">=", 30.0)),
                         {"p": 3.0, "u": 25.0})
    for model in (mip, lp):
        assert solve(model, BackendConfig(gap=1e-3)).status == "optimal"
    assert [call["integrality"].any() for call in seen] == [True, False]
    for call in seen:
        assert call["options"] == {"presolve": True, "mip_rel_gap": 1e-3,
                                   "mip_heuristic_run_root_reduced_cost": False,
                                   "mip_heuristic_run_feasibility_jump": False}


def test_an_option_the_bundled_highs_lacks_still_warns_and_is_ignored():
    """tauc.solver filters only scipy's notice that it passes options on
    verbatim; an option HiGHS does not know still raises scipy's
    OptimizeWarning, and the solve goes on with HiGHS's default."""
    proc = run_in_fresh_interpreter("""
import tauc.solver
from scipy.optimize import milp
res = milp(c=[-1.0], integrality=[1], bounds=(0, 1), options={"mip_heuristic_run_no_such_switch": False})
print(res.status, res.fun)
""", "-W", "default")
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.split() == ["0", "-1.0"]
    assert "OptimizeWarning" in proc.stderr and "mip_heuristic_run_no_such_switch" in proc.stderr
    assert "RuntimeWarning" not in proc.stderr


def test_a_model_with_every_column_fixed_skips_highs_but_not_the_audit(monkeypatch):
    def no_milp(*args, **kwargs):
        raise AssertionError("milp called on a model with no free column")

    monkeypatch.setattr("tauc.solver.milp", no_milp)
    variables = (Variable("p", 40.0, 40.0), Variable("u", 1.0, 1.0, binary=True))
    cap = Row("cap", {"p": 1.0, "u": -50.0}, "<=", 0.0)
    res = solve(model_from_rows(variables, (cap,), {"p": 3.0, "u": 25.0}))
    assert res.status == "optimal"
    assert res.objective == res.dual_bound == 3.0 * 40.0 + 25.0
    assert res.node_count == 0 and res.gap == 0.0
    assert res.x.tolist() == [40.0, 1.0]
    # the fixed point still goes through the audit
    floor = Row("floor", {"p": 1.0}, ">=", 45.0)
    res = solve(model_from_rows(variables, (cap, floor), {"p": 3.0}))
    assert res.status == "error"
    assert "floor" in res.message


def test_a_model_whose_binaries_are_all_fixed_keeps_its_mip_figures():
    variables = (Variable("p", 0.0, 50.0), Variable("u", 1.0, 1.0, binary=True))
    rows = (Row("cap", {"p": 1.0, "u": -50.0}, "<=", 0.0), Row("floor", {"p": 1.0}, ">=", 30.0))
    res = solve(model_from_rows(variables, rows, {"p": 3.0, "u": 25.0}))
    assert res.status == "optimal"
    assert res.objective == pytest.approx(3.0 * 30.0 + 25.0, rel=1e-12)
    assert res.dual_bound == res.objective and res.gap == 0.0 and res.node_count == 0


def test_solution_keeps_node_count_and_dual_bound():
    model = build_uc_model(*two_unit_fixture())
    res = solve(model)
    assert res.status == "optimal"
    assert isinstance(res.node_count, int) and res.node_count >= 0
    # the bound is on the cost, like the objective
    assert res.dual_bound <= res.objective + 1e-6 * abs(res.objective)
    assert res.dual_bound == pytest.approx(res.objective, rel=1e-6)


STUDY13 = build_portfolio("study13")


@st.composite
def study13_windows(draw):
    """study13 over 4 to 12 hourly periods of drawn demand, wind and solar:
    models whose root gap HiGHS does not always close."""
    nt = draw(st.integers(4, 12))
    share = st.lists(st.floats(0.0, 1.0), min_size=nt, max_size=nt)
    capacity = sum(u.pmax for u in STUDY13)
    system = PowerSystem(units=STUDY13, wind_capacity=0.2 * capacity, solar_capacity=0.2 * capacity,
                         load_shed_cost=10000.0)
    demand = capacity * (0.2 + 0.7 * np.array(draw(share)))
    return system, periods_from([1.0] * nt, demand, draw(share), draw(share))


@settings(max_examples=30, deadline=None)
@given(study13_windows(), st.sampled_from([1e-3, 1e-2]))
def test_an_optimal_solve_meets_its_gap_target_on_the_cost(instance, gap):
    """HiGHS applies the gap target to its own objective, the cost less the
    cost of the folded columns; as every cost is nonnegative, a solve that
    stops as "optimal" is within the target on the cost too."""
    res = solve(build_uc_model(*instance), BackendConfig(gap=gap))
    assert res.status == "optimal"
    assert res.gap <= gap


def test_a_bound_above_the_audited_objective_is_clamped_onto_it(monkeypatch):
    """HiGHS's bound comes with its own objective; one that sits above the
    objective recomputed from the audited point is no bound on it."""
    def high_milp(*args, **kwargs):
        res = milp(*args, **kwargs)
        res.mip_dual_bound = res.fun + 1e-3
        return res

    monkeypatch.setattr("tauc.solver.milp", high_milp)
    res = solve(build_uc_model(*two_unit_fixture()))
    assert res.status == "optimal"
    assert res.dual_bound == res.objective and res.gap == 0.0


# ---------------------------------------------------------------------------
# exhaustive oracle vs HiGHS


def test_oracle_matches_default_backend_on_the_two_unit_fixture():
    model = build_uc_model(*two_unit_fixture())
    fast = solve(model)
    reference = brute_force_solve(model)
    assert fast.status == "optimal"
    assert reference.status == "optimal"
    assert fast.objective == pytest.approx(reference.objective, rel=1e-8)
    assert check_solution(model, reference.x) == []


def test_oracle_matches_default_backend_on_random_instances():
    rng = np.random.default_rng(20250816)
    solved = 0
    for _ in range(18):
        model = build_uc_model(*random_small_instance(rng))
        fast = solve(model)
        reference = brute_force_solve(model)
        assert fast.status == reference.status
        if reference.status == "optimal":
            assert fast.objective == pytest.approx(reference.objective,
                                                   rel=1e-7, abs=1e-6)
            solved += 1
    assert solved >= 10


def test_oracle_honours_fixings():
    system, periods = two_unit_fixture()
    base = solve(build_uc_model(system, periods))
    shape = (len(system.units), len(periods))
    # the u block leads the columns, unit by unit
    fixings = Fixings(commitment=base.x[: shape[0] * shape[1]].reshape(shape), dispatch=np.full(shape, np.nan))
    fixed_model = build_uc_model(system, periods, fixings=fixings)
    reference = brute_force_solve(fixed_model)
    assert reference.status == "optimal"
    assert reference.objective == pytest.approx(base.objective, rel=1e-8)
    assert "0 binaries" in reference.message


def test_oracle_refuses_oversized_models():
    from helpers import periods_from, unit

    units = tuple(unit(f"g{i}", "peak", 0.0, 100.0, 30.0 + i) for i in range(3))
    periods = periods_from([1.0] * 7, [150.0] * 7, [0.0] * 7, [0.0] * 7)
    model = build_uc_model(PowerSystem(units, 0.0, 0.0, 1000.0), periods)
    assert model.n_binaries == 21
    with pytest.raises(ValueError):
        brute_force_solve(model)


def test_oracle_reports_unbounded_models():
    model = model_from_rows(
        (Variable("x", 0.0, math.inf), Variable("u", 0.0, 1.0, binary=True)),
        (Row("cap", {"x": 1.0, "u": -10.0}, ">=", 0.0),),
        {"x": -1.0},
    )
    res = brute_force_solve(model)
    assert res.status == "unbounded"


def test_oracle_reports_infeasible_models():
    model = model_from_rows(
        (Variable("x", 0.0, 1.0), Variable("u", 0.0, 1.0, binary=True)),
        (Row("lo", {"x": 1.0}, ">=", 0.5),
         Row("hi", {"x": 1.0, "u": -0.1}, "<=", 0.2),),
        {"x": 1.0},
    )
    res = brute_force_solve(model)
    assert res.status == "infeasible"


# ---------------------------------------------------------------------------
# solve() orchestration


def test_solve_returns_audited_objective_and_gap():
    model = build_uc_model(*two_unit_fixture())
    res = solve(model)
    assert res.status == "optimal"
    values = dict(zip(model.col_names.tolist(), res.x))
    recomputed = sum(coef * values[name] for name, coef in objective_terms(model).items())
    assert res.objective == pytest.approx(recomputed, rel=1e-12)
    assert res.gap is not None and res.gap <= 1e-9
    assert res.wall_time >= 0.0


def test_solve_accepts_gap_and_oracle_backend():
    model = build_uc_model(*two_unit_fixture())
    loose = solve(model, BackendConfig(gap=0.05))
    exact = brute_force_solve(model)
    assert loose.status == "optimal"
    assert exact.status == "optimal"
    # a 5% gap target may stop early but never below the true optimum
    assert loose.objective >= exact.objective - 1e-6
    assert loose.objective <= exact.objective * 1.05 + 1e-6


def test_solve_reports_infeasible_models():
    model = model_from_rows(
        (Variable("x", 0.0, 1.0),),
        (Row("lo", {"x": 1.0}, ">=", 2.0),),
        {"x": 1.0},
    )
    res = solve(model)
    assert res.status == "infeasible"
    assert res.objective is None


def test_model_with_vacuous_minimum_time_rows_drops_them_and_solves():
    """min_up = min_down = one period left up_g_1 and dn_g_1 without terms,
    and the LP writer refused the model; the rows are dropped now."""
    system = PowerSystem(
        units=(unit("g", "peak", 10.0, 100.0, 30.0, startup_cost=50.0, min_up=1.0, min_down=1.0),),
        wind_capacity=0.0,
        solar_capacity=0.0,
        load_shed_cost=1000.0,
    )
    periods = periods_from([1.0] * 3, [50.0, 80.0, 20.0])
    empty = {r.label for r in reference_build_uc_model(system, periods).constraints if not r.coeffs}
    assert empty == {"up_g_1", "dn_g_1"}
    model = build_uc_model(system, periods)
    assert not empty & {r.label for r in model.constraints}
    assert model.pruned_violations == ()
    assert_models_equivalent(model, read_model_file(emit_model_file(model)))
    res = solve(model)
    exact = brute_force_solve(model)
    assert res.status == exact.status == "optimal", res.message
    assert res.objective == pytest.approx(exact.objective, rel=1e-9)


def test_a_first_solve_imports_scipy_before_its_clock_starts():
    """wall_time, and so a day's solve_time, leaves out the one-off import."""
    proc = run_in_fresh_interpreter(f"""
import json, sys, time, types
sys.path.insert(0, {str(TESTS)!r})
from oracle import model_from_rows
from tauc import solver
from tauc.model import Variable
loaded = []

def perf_counter():
    loaded.append("scipy.optimize" in sys.modules)
    return time.perf_counter()

solver.time = types.SimpleNamespace(perf_counter=perf_counter)
res = solver.solve(model_from_rows((Variable("x", 0.0, 1.0),), (), {{"x": 1.0}}))
print(json.dumps([res.status, loaded]))
""")
    assert proc.returncode == 0, proc.stderr
    assert json.loads(proc.stdout.splitlines()[-1]) == ["optimal", [True, True]]
