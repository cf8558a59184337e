"""Solve layer: LP round trip, exhaustive oracle, backends, audits."""
import math
import textwrap

import numpy as np
import pytest

from helpers import random_small_instance, two_unit_fixture
from oracle import brute_force_solve, read_model_file, solve_lp
from tauc.model import PowerSystem, Row, UcModel, Variable, build_uc_model, u_name
from tauc.solver import (
    BackendConfig,
    check_solution,
    emit_model_file,
    parse_solution_file,
    solve,
)

GOLDEN_ONE_VAR_LP = (
    "Minimize\n"
    " obj: 1 x\n"
    "Subject To\n"
    "Bounds\n"
    " 0 <= x <= 1\n"
    "End\n"
)


def one_var_model() -> UcModel:
    return UcModel((Variable("x", 0.0, 1.0),), (), {"x": 1.0})


def model_maps(model: UcModel):
    rows = {r.label: (dict(r.coeffs), r.sense, r.rhs) for r in model.constraints}
    bounds = {v.name: (v.lb, v.ub, v.binary) for v in model.variables}
    return rows, bounds, dict(model.objective), model.objective_offset


def assert_models_equivalent(a: UcModel, b: UcModel) -> None:
    rows_a, bounds_a, obj_a, off_a = model_maps(a)
    rows_b, bounds_b, obj_b, off_b = model_maps(b)
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
    assert off_b == pytest.approx(off_a, rel=1e-11, abs=1e-11)


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
    model = build_uc_model(*two_unit_fixture(), fixings={u_name("a1", 1): 1.0})
    parsed = read_model_file(emit_model_file(model))
    assert_models_equivalent(model, parsed)
    assert parsed.variable_map[u_name("a1", 1)].lb == 1.0
    assert parsed.variable_map[u_name("a1", 1)].ub == 1.0


def test_emit_rejects_non_finite_offset():
    model = UcModel((Variable("x", 0.0, 1.0),), (), {"x": 1.0},
                    objective_offset=math.inf)
    with pytest.raises(ValueError):
        emit_model_file(model)


def test_parser_rejects_maximization_and_junk():
    with pytest.raises(ValueError):
        read_model_file("Maximize\n obj: 1 x\nEnd\n")
    with pytest.raises(ValueError):
        read_model_file("garbage before any section\nMinimize\n obj: 1 x\nEnd\n")
    with pytest.raises(ValueError):
        read_model_file("Minimize\n obj: 1 x\nBounds\n x <= <= 3\nEnd\n")


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
    assert model.variable_map["y"].ub == 8.0


def test_parse_solution_text_formats():
    model = one_var_model()
    values, hint, notes = parse_solution_file("x 0.25\n", model)
    assert values == {"x": 0.25}
    assert hint is None
    assert notes == []

    # index / name / value / reduced-cost columns and a status banner
    text = "Optimal - objective value 0.25\n0 x 0.25 0\n"
    values, hint, _ = parse_solution_file(text, model)
    assert values == {"x": 0.25}
    assert hint == "optimal"

    values, hint, notes = parse_solution_file("x 0.5\nzzz 4\n", model)
    assert values == {"x": 0.5}
    assert any("zzz" in note for note in notes)

    _, hint, _ = parse_solution_file("Problem proved INFEASIBLE\n", model)
    assert hint == "infeasible"


def test_parse_solution_xml():
    xml = textwrap.dedent("""\
        <?xml version="1.0" encoding="UTF-8"?>
        <CPLEXSolution version="1.2">
         <header problemName="model" solutionStatusString="integer optimal solution"/>
         <variables>
          <variable name="x" index="0" value="0.75"/>
          <variable name="ghost" index="1" value="1"/>
         </variables>
        </CPLEXSolution>
        """)
    values, hint, notes = parse_solution_file(xml, one_var_model())
    assert values == {"x": 0.75}
    assert hint == "optimal"
    assert any("ghost" in note for note in notes)


# ---------------------------------------------------------------------------
# solution audit


def test_check_solution_flags_bound_row_and_integrality_violations():
    model = build_uc_model(*two_unit_fixture())
    good = solve(model)
    assert good.status == "optimal"
    assert check_solution(model, good.values) == []

    bad = dict(good.values)
    bad["pg_a1_1"] += 5.0
    assert any("bal_1" in p for p in check_solution(model, bad))

    bad = dict(good.values)
    bad[u_name("b1", 2)] = 0.4
    assert any("not integral" in p for p in check_solution(model, bad))

    bad = dict(good.values)
    del bad["pg_a1_1"]
    assert any("missing" in p for p in check_solution(model, bad))


# ---------------------------------------------------------------------------
# exhaustive oracle vs in-process backend


def test_oracle_matches_default_backend_on_the_two_unit_fixture():
    model = build_uc_model(*two_unit_fixture())
    fast = solve(model)
    reference = brute_force_solve(model)
    assert fast.status == "optimal"
    assert reference.status == "optimal"
    assert fast.objective == pytest.approx(reference.objective, rel=1e-8)
    assert check_solution(model, reference.values) == []


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
    fixings = {name: base.values[name]
               for name in build_uc_model(system, periods).binary_names}
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
    model = UcModel(
        (Variable("x", 0.0, math.inf), Variable("u", 0.0, 1.0, binary=True)),
        (Row("cap", {"x": 1.0, "u": -10.0}, ">=", 0.0),),
        {"x": -1.0},
    )
    res = brute_force_solve(model)
    assert res.status == "unbounded"


def test_oracle_reports_infeasible_models():
    model = UcModel(
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
    recomputed = model.objective_offset + sum(
        coef * res.values[name] for name, coef in model.objective.items())
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
    model = UcModel(
        (Variable("x", 0.0, 1.0),),
        (Row("lo", {"x": 1.0}, ">=", 2.0),),
        {"x": 1.0},
    )
    res = solve(model)
    assert res.status == "infeasible"
    assert res.objective is None


# ---------------------------------------------------------------------------
# external process backend, driven by stub executables


def make_stub(tmp_path, body: str) -> str:
    path = tmp_path / "fakesolver"
    path.write_text("#!/usr/bin/env python3\nimport os, sys\n"
                    + textwrap.dedent(body))
    path.chmod(0o755)
    return str(path)


def test_process_backend_runs_the_executable_contract(tmp_path):
    stub = make_stub(tmp_path, """\
        lp = open(sys.argv[1]).read()
        assert lp.startswith("Minimize")
        assert lp.rstrip().endswith("End")
        side = os.path.join(os.path.dirname(sys.argv[0]), "seen_gap.txt")
        open(side, "w").write(os.environ.get("TAUC_MIP_GAP", "missing"))
        with open(sys.argv[2], "w") as fh:
            fh.write("# written by stub\\n")
            fh.write("x 0.25\\n")
        """)
    res = solve(one_var_model(), BackendConfig(backend=stub, gap=0.01))
    assert res.status == "optimal"
    assert res.values["x"] == 0.25
    assert res.objective == pytest.approx(0.25)
    assert (tmp_path / "seen_gap.txt").read_text() == "0.01"


def test_environment_variable_overrides_configured_backend(tmp_path, monkeypatch):
    stub = make_stub(tmp_path, """\
        with open(sys.argv[2], "w") as fh:
            fh.write("x 0.25\\n")
        """)
    monkeypatch.setenv("TAUC_SOLVER", stub)
    res = solve(one_var_model())  # config says auto; env must win
    assert res.status == "optimal"
    assert res.values["x"] == 0.25


def test_process_backend_fills_omitted_variables_with_zero(tmp_path):
    model = UcModel((Variable("x", 0.0, 2.0), Variable("y", 0.0, 2.0)),
                    (), {"x": 1.0, "y": 1.0})
    stub = make_stub(tmp_path, """\
        with open(sys.argv[2], "w") as fh:
            fh.write("x 1.5\\n")
        """)
    res = solve(model, BackendConfig(backend=stub))
    assert res.status == "optimal"
    assert res.values == {"x": 1.5, "y": 0.0}


def test_process_backend_surfaces_crashes(tmp_path):
    stub = make_stub(tmp_path, """\
        sys.stderr.write("boom\\n")
        sys.exit(3)
        """)
    res = solve(one_var_model(), BackendConfig(backend=stub))
    assert res.status == "error"
    assert "code 3" in res.message
    assert "boom" in res.message


def test_process_backend_requires_a_solution_file(tmp_path):
    stub = make_stub(tmp_path, "pass\n")
    res = solve(one_var_model(), BackendConfig(backend=stub))
    assert res.status == "error"
    assert "no solution file" in res.message


def test_process_backend_missing_executable(tmp_path):
    res = solve(one_var_model(),
                BackendConfig(backend=str(tmp_path / "does-not-exist")))
    assert res.status == "error"
    assert "not found" in res.message


def test_process_backend_propagates_infeasible_verdict(tmp_path):
    stub = make_stub(tmp_path, """\
        with open(sys.argv[2], "w") as fh:
            fh.write("Problem is infeasible\\n")
        """)
    res = solve(one_var_model(), BackendConfig(backend=stub))
    assert res.status == "infeasible"


def test_process_backend_rejects_solutions_that_fail_the_audit(tmp_path):
    stub = make_stub(tmp_path, """\
        with open(sys.argv[2], "w") as fh:
            fh.write("x 7.0\\n")
        """)
    res = solve(one_var_model(), BackendConfig(backend=stub))
    assert res.status == "error"
    assert "failed verification" in res.message


def test_process_backend_parses_xml_solutions(tmp_path):
    stub = make_stub(tmp_path, """\
        with open(sys.argv[2], "w") as fh:
            fh.write('<CPLEXSolution><variables>'
                     '<variable name="x" value="0.5"/>'
                     '</variables></CPLEXSolution>')
        """)
    res = solve(one_var_model(), BackendConfig(backend=stub))
    assert res.status == "optimal"
    assert res.values["x"] == 0.5


def test_process_backend_reports_a_truncated_xml_solution(tmp_path):
    stub = make_stub(tmp_path, """\
        with open(sys.argv[2], "w") as fh:
            fh.write('<CPLEXSolution><variables><variable name="x" value="0.5"/>')
        """)
    res = solve(one_var_model(), BackendConfig(backend=stub))
    assert res.status == "error"
    assert res.objective is None
    assert "cannot parse solution file" in res.message
