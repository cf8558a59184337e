"""Tests of the benchmark's own machinery: fixtures, self times and the checker.

Run with: python3 -m pytest perfbench
"""
import sys
import threading
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path[:0] = [str(ROOT / "src"), str(ROOT)]

from perfbench import check, fixtures, spans  # noqa: E402

DAYS = {
    "2023-06-01": {"c_ch": "1000.00", "c_ta": "900.00", "delta_pct": "10.0000"},
    "2023-06-02": {"c_ch": "2000.00", "c_ta": "1950.00", "delta_pct": "2.5000"},
}


def _write_comparison(out: Path, rows) -> None:
    out.mkdir(parents=True, exist_ok=True)
    lines = ["date,c_ch,c_ta,delta_pct"] + [",".join(r) for r in rows]
    (out / "comparison.csv").write_text("\n".join(lines) + "\n")


def _files(directory: Path) -> dict[str, bytes]:
    return {str(p.relative_to(directory)): p.read_bytes() for p in directory.rglob("*") if p.is_file()}


def test_same_seed_gives_identical_files(tmp_path):
    for workload in fixtures.WORKLOADS:
        a = fixtures.generate(workload, 7, tmp_path / f"{workload}-a")
        b = fixtures.generate(workload, 7, tmp_path / f"{workload}-b")
        assert len(_files(a.directory)) == 1 + (workload == "day") + 2 * a.inputs
        assert _files(a.directory) == _files(b.directory)
        c = fixtures.generate(workload, 8, tmp_path / f"{workload}-c")
        trace = Path("0") / "trace.csv"
        assert (c.directory / trace).read_bytes() != (a.directory / trace).read_bytes()


def test_inputs_of_one_seed_differ(tmp_path):
    fx = fixtures.generate("day", 1, tmp_path / "day")
    traces = {(fx.directory / str(i) / "trace.csv").read_bytes() for i in range(fx.inputs)}
    assert len(traces) == fx.inputs > 1


def test_fixture_records_seed_and_recipe(tmp_path):
    import json

    fx = fixtures.generate("day", 3, tmp_path / "day")
    record = json.loads((fx.directory / "fixture.json").read_text())
    assert record["seed"] == 3
    assert record["recipe"] == fixtures.RECIPES["day"]
    assert record["recipe_digest"] == fixtures.recipe_digest("day")


def _span(sid, parent, start, end, layer="solver", group="solver.highs", thread=1):
    return spans.Span(sid, f"s{sid}", layer, group, start, end, parent, thread, 0)


def test_self_time_subtracts_union_of_children():
    tree = [
        _span(0, None, 0.0, 10.0, "cli", "cli"),
        _span(1, 0, 1.0, 4.0, "simulation", "simulation.da"),
        _span(2, 0, 3.0, 6.0, "model", "model.build", thread=2),  # overlaps span 1
        _span(3, 1, 2.0, 3.0),
        _span(4, 0, 9.0, 12.0),  # ends after its parent: only 9-10 counts
    ]
    own = spans.self_times(tree)
    assert own == {0: 10.0 - 6.0, 1: 2.0, 2: 3.0, 3: 1.0, 4: 3.0}


def test_layer_self_times_add_up_to_wall_time():
    tree = [
        _span(0, None, 0.0, 10.0, "cli", "cli"),
        _span(1, 0, 1.0, 7.0, "simulation", "simulation.rolling"),
        _span(2, 1, 2.0, 6.0, "solver", "solver.assembly"),
        _span(3, 2, 2.5, 5.0, "solver", "solver.highs"),
        _span(4, 0, 7.5, 8.0, "ingestion", "ingestion.load"),
    ]
    metrics = spans.layer_metrics(tree, {0: dict.fromkeys(spans.COUNTS, 0)})
    assert metrics["trace.wall_s"] == 10.0
    assert metrics["trace.layer_sum_s"] == 10.0
    assert metrics["solver.highs_s"] == 2.5
    assert metrics["solver.assembly_s"] == 1.5
    assert metrics["simulation.self_s"] == 2.0
    assert metrics["cli.self_s"] == 3.5
    assert metrics["simulation.solve_overlap"] == 0.4


def test_recorder_attributes_worker_thread_spans_to_the_operation():
    rec = spans.Recorder()

    def work():
        def in_thread():
            with rec.span("child", "solver", "solver.highs"):
                pass

        t = threading.Thread(target=in_thread)
        t.start()
        t.join(timeout=10)
        assert not t.is_alive()
        return 0

    assert rec.operation(5, work) == 0
    root = next(s for s in rec.spans if s.name == "tauc.cli.main")
    child = next(s for s in rec.spans if s.name == "child")
    assert child.parent == root.sid and child.op == 5
    assert child.thread != root.thread


def test_recorder_restores_wrapped_functions():
    import tauc.simulation
    import tauc.solver

    before = (tauc.simulation.solve, tauc.solver.milp)
    with spans.Recorder().installed():
        assert tauc.simulation.solve is not before[0]
        assert tauc.solver.milp.__wrapped__ is before[1]
    assert (tauc.simulation.solve, tauc.solver.milp) == before


def test_checker_accepts_matching_output(tmp_path):
    _write_comparison(tmp_path, [
        ("2023-06-01", "1000.00", "900.00", "10.0000"),
        ("2023-06-02", "2000.00", "1950.00", "2.5000"),
    ])
    assert check.check_compare({"days": DAYS}, tmp_path, 0) == (2, 0, [])


def test_checker_rejects_cost_off_by_two_cents(tmp_path):
    _write_comparison(tmp_path, [
        ("2023-06-01", "1000.02", "900.00", "10.0000"),
        ("2023-06-02", "2000.00", "1950.00", "2.5000"),
    ])
    attempted, failed, problems = check.check_compare({"days": DAYS}, tmp_path, 0)
    assert (attempted, failed) == (2, 1)
    assert "2023-06-01" in problems[0]


def test_checker_rejects_skipped_day(tmp_path):
    _write_comparison(tmp_path, [("2023-06-01", "1000.00", "900.00", "10.0000")])
    attempted, failed, problems = check.check_compare({"days": DAYS}, tmp_path, 0)
    assert (attempted, failed) == (2, 1)
    assert "skipped" in problems[0]


def test_checker_fails_every_day_on_nonzero_exit(tmp_path):
    _write_comparison(tmp_path, [
        ("2023-06-01", "1000.00", "900.00", "10.0000"),
        ("2023-06-02", "2000.00", "1950.00", "2.5000"),
    ])
    attempted, failed, _ = check.check_compare({"days": DAYS}, tmp_path, 2)
    assert (attempted, failed) == (2, 2)


def test_checker_rejects_wrong_cluster_bounds(tmp_path):
    bounds = [(0, 2), (2, 5), (5, 6)]
    reference = {"samples": 6, "periods": 3, "bounds_sha256": check.bounds_digest(bounds)}
    rows = ["period,start_sample,stop_sample,duration_h"]
    rows += [f"{k},{a},{b},1" for k, (a, b) in enumerate([(0, 3), (3, 5), (5, 6)], start=1)]
    (tmp_path / "durations.csv").write_text("\n".join(rows) + "\n")
    assert check.check_cluster(reference, tmp_path, 0)[:2] == (1, 1)


def test_checker_rejects_wrong_day_ahead_objective():
    reference = {"da_objectives": {"2023-06-01": {"CH": "100.00", "TA": "90.00"}}}
    assert check.check_objectives(reference, [(0, "2023-06-01", "CH", 100.0)]) == []
    assert check.check_objectives(reference, [(0, "2023-06-01", "TA", 90.02)])
