"""End-to-end tests of the command-line interface."""
from __future__ import annotations

import csv
import json
import math
from datetime import datetime, timezone

import numpy as np
import pytest

from helpers import duck_day_series, flat_day_series, run_in_fresh_interpreter
from test_simulation import make_trace, repeat_days
from tauc import cli, simulation
from tauc.aggregation import HiResSeries, normalize_features
from tauc.ingestion import compute_installed_capacity, illustrative_case, load_scenario, write_timeseries


def test_reproduce_example_prints_goldens(capsys):
    assert cli.main(["reproduce-example"]) == 0
    out = capsys.readouterr().out
    assert "hourly 18500.00 EUR" in out
    assert "adaptive 11500.00 EUR" in out
    assert "saving 37.84%" in out
    assert "Hourly day-ahead plan:" in out and "Adaptive real-time operation:" in out
    assert cli.main(["reproduce-example"]) == 0
    assert capsys.readouterr().out == out


def test_reproduce_example_writes_nothing_to_stderr_with_every_warning_shown():
    """Under -W default a warning is printed wherever it comes from; scipy's
    notice that it passes HiGHS options on verbatim is filtered by tauc.solver
    itself, so no caller sees it."""
    proc = run_in_fresh_interpreter("import sys, tauc.cli; sys.exit(tauc.cli.main(['reproduce-example']))",
                                    "-W", "default")
    assert proc.returncode == 0
    assert "saving 37.84%" in proc.stdout
    assert proc.stderr == ""


def test_reproduce_example_fails_loud_when_golden_is_wrong(capsys, monkeypatch):
    monkeypatch.setattr(cli, "GOLDEN_COST_TA", 11111.0)
    assert cli.main(["reproduce-example"]) == 1
    assert "assertion failed" in capsys.readouterr().err


def write_config(path, data_csv, **overrides):
    body = {
        "data_path": str(data_csv),
        "step_minutes": 60,
        "alpha_wind": 0.0,
        "alpha_solar": 0.4,
        "portfolio": "example6",
        "lookahead_hours": 0.0,
    }
    body.update(overrides)
    path.write_text(json.dumps(body))
    return path


def flat_trace_csv(tmp_path, days=2, demand=500.0):
    n = days * 24
    series = HiResSeries(
        demand=np.full(n, demand),
        wind_cf=np.zeros(n),
        solar_cf=np.full(n, 0.5),
        step_minutes=60,
    )
    path = tmp_path / "trace.csv"
    write_timeseries(path, series, datetime(2023, 6, 1, tzinfo=timezone.utc))
    return path


def test_cluster_reproduces_example_partition(tmp_path, capsys):
    _, series = illustrative_case()
    trace = tmp_path / "example.csv"
    write_timeseries(trace, series, datetime(2023, 6, 1, tzinfo=timezone.utc))
    cfg = write_config(tmp_path / "scenario.json", trace, step_minutes=30)
    out = tmp_path / "out"
    assert cli.main(["cluster", "--config", str(cfg), "--out", str(out)]) == 0
    with open(out / "durations.csv") as handle:
        rows = list(csv.DictReader(handle))
    assert [float(r["duration_h"]) for r in rows] == [2.0, 0.5, 0.5]
    assert [(int(r["start_sample"]), int(r["stop_sample"])) for r in rows] == [
        (0, 4), (4, 5), (5, 6),
    ]
    with open(out / "centroids.csv") as handle:
        centroid_rows = list(csv.DictReader(handle))
    assert len(centroid_rows) == 3 and "net_demand" in centroid_rows[0]
    # each row is the member mean of the scaled features over the written bounds
    solar = compute_installed_capacity(0.4, series.demand, series.solar_cf)
    feats = normalize_features(series, "net_demand_only", 0.0, solar)
    for r, c in zip(rows, centroid_rows):
        a, b = int(r["start_sample"]), int(r["stop_sample"])
        assert [c["net_demand"]] == [f"{v:.6f}" for v in feats[a:b].mean(axis=0)]
    assert [float(c["net_demand"]) for c in centroid_rows] == pytest.approx(
        [0.0, 250.0 / 650.0, 1.0], abs=5e-7
    )
    assert "3 periods" in capsys.readouterr().out


def test_cluster_identity_when_target_equals_samples(tmp_path):
    cfg = write_config(tmp_path / "s.json", flat_trace_csv(tmp_path, days=1))
    out = tmp_path / "out"
    assert cli.main(["cluster", "--config", str(cfg), "--out", str(out), "--target", "24"]) == 0
    with open(out / "durations.csv") as handle:
        rows = list(csv.DictReader(handle))
    assert len(rows) == 24
    assert all(float(r["duration_h"]) == 1.0 for r in rows)


def test_cluster_rejects_the_flags_it_would_not_read(tmp_path, capsys):
    cfg = write_config(tmp_path / "s.json", flat_trace_csv(tmp_path, days=1))
    for flag, value in (("--gap", "0.5"), ("--lookahead-hours", "3")):
        with pytest.raises(SystemExit) as exc:
            cli.main(["cluster", "--config", str(cfg), "--out", str(tmp_path / "out"), flag, value])
        assert exc.value.code == 2
        assert f"unrecognized arguments: {flag}" in capsys.readouterr().err
    assert not (tmp_path / "out").exists()


def test_written_csv_files_end_lines_in_a_bare_newline(tmp_path):
    cfg = write_config(tmp_path / "s.json", flat_trace_csv(tmp_path, days=1))
    out = tmp_path / "out"
    for command in (["cluster", "--config", str(cfg)], ["plan", "--config", str(cfg)],
                    ["compare", "--config", str(cfg)], ["sweep", str(cfg)]):
        assert cli.main([*command, "--out", str(out)]) == 0
    written = sorted(path.name for path in out.iterdir())
    assert written == ["centroids.csv", "comparison.csv", "comparison_s.csv", "durations.csv",
                       "plan_ch.csv", "plan_ta.csv", "summary.csv", "sweep_summary.csv"]
    for name in written:
        assert b"\r" not in (out / name).read_bytes(), name


def test_cluster_never_loads_scipy(tmp_path):
    """cluster solves nothing, so a process that runs it never imports the
    solver; and the package imports neither subprocess nor an XML parser."""
    cfg = write_config(tmp_path / "s.json", flat_trace_csv(tmp_path, days=2))
    proc = run_in_fresh_interpreter(f"""
import json, sys
import tauc, tauc.cli
code = tauc.cli.main(["cluster", "--config", {str(cfg)!r}, "--out", {str(tmp_path / "out")!r}])
print(json.dumps([code, sorted(m for m in sys.modules if m.split(".")[0] == "scipy"),
                  sorted({{"subprocess", "xml.etree.ElementTree"}} & set(sys.modules))]))
""")
    assert proc.returncode == 0, proc.stderr
    assert json.loads(proc.stdout.splitlines()[-1]) == [0, [], []]


def test_first_solves_on_two_threads_agree_with_the_library(tmp_path):
    """In a fresh process, the CH and TA modes of the first day make their
    first solve, and so the first import of scipy, on two threads at once."""
    trace = tmp_path / "trace.csv"
    write_timeseries(trace, duck_day_series(step_minutes=30), datetime(2023, 6, 1, tzinfo=timezone.utc))
    cfg = write_config(tmp_path / "s.json", trace, step_minutes=30)
    out = tmp_path / "out"
    proc = run_in_fresh_interpreter(f"""
import json, sys
import tauc.cli
loaded = "scipy" in sys.modules
code = tauc.cli.main(["compare", "--config", {str(cfg)!r}, "--out", {str(out)!r}])
print(json.dumps([loaded, code]))
""")
    assert proc.returncode == 0, proc.stderr
    assert json.loads(proc.stdout.splitlines()[-1]) == [False, 0]

    config = load_scenario(cfg)
    trace = cli._scaled_trace(config)
    label, window = next(simulation.day_windows(trace, config.lookahead_hours))
    report, _, _ = simulation.compare_day(cli._system_for(config, trace), window, label.isoformat(),
                                          config.features, config.solver_config())
    with open(out / "comparison.csv") as handle:
        rows = [(r["date"], r["c_ch"], r["c_ta"]) for r in csv.DictReader(handle)]
    assert rows == [(report.date, f"{report.c_ch:.2f}", f"{report.c_ta:.2f}")]
    assert report.c_ta < report.c_ch


def test_missing_data_file_exits_two(tmp_path, capsys):
    cfg = write_config(tmp_path / "s.json", tmp_path / "absent.csv")
    assert cli.main(["cluster", "--config", str(cfg), "--out", str(tmp_path)]) == 2
    assert "error:" in capsys.readouterr().err


@pytest.mark.parametrize(
    "key, value",
    [
        ("portfolio", 5),
        ("data_path", 7),
        ("alpha_wind", "x"),
        ("lookahead_hours", None),
        ("time_limit", 0),
        ("lookahead_hours", math.inf),
        ("lookahead_hours", 8.5),
    ],
)
def test_config_value_of_wrong_type_or_range_exits_two(tmp_path, capsys, key, value):
    cfg = write_config(tmp_path / "s.json", flat_trace_csv(tmp_path, days=1), **{key: value})
    assert cli.main(["cluster", "--config", str(cfg), "--out", str(tmp_path / "out")]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error:")
    assert str(cfg) in err and key in err
    assert not (tmp_path / "out").exists()


def test_malformed_config_exits_two(tmp_path, capsys):
    bad = tmp_path / "bad.json"
    bad.write_text("{not json")
    assert cli.main(["compare", "--config", str(bad), "--out", str(tmp_path)]) == 2
    assert "error:" in capsys.readouterr().err


def test_compare_flat_days_reports_zero_delta(tmp_path, capsys):
    cfg = write_config(tmp_path / "s.json", flat_trace_csv(tmp_path, days=2))
    out = tmp_path / "out"
    assert cli.main(["compare", "--config", str(cfg), "--out", str(out)]) == 0
    with open(out / "comparison.csv") as handle:
        rows = list(csv.DictReader(handle))
    assert [r["date"] for r in rows] == ["2023-06-01", "2023-06-02"]
    assert all(abs(float(r["delta_pct"])) < 1e-4 for r in rows)
    with open(out / "summary.csv") as handle:
        summary = next(csv.DictReader(handle))
    assert summary["days"] == "2"
    assert summary["n_ta_eq_ch"] == "2"
    assert summary["n_skipped"] == "0"
    assert "2 days" in capsys.readouterr().out


def test_reports_render_as_csv(tmp_path):
    system, _ = illustrative_case()
    day = flat_day_series(step_minutes=60)
    trace = make_trace(repeat_days(day, 2), datetime(2023, 6, 1, tzinfo=timezone.utc))
    reports = simulation.run_rolling_horizon(system, trace, lookahead_hours=4.0)
    reports.append(
        simulation.ComparisonReport("2023-06-03", warning="day skipped: no data")
    )
    cli._write_csv(tmp_path / "comparison.csv", cli.CSV_COLUMNS, cli._comparison_rows(reports))
    text = (tmp_path / "comparison.csv").read_text()
    lines = text.strip().split("\n")
    assert lines[0] == (
        "date,c_ch,c_ta,delta_pct,"
        "share_wind_ch,share_solar_ch,share_base_ch,share_medium_ch,share_peak_ch,"
        "share_wind_ta,share_solar_ta,share_base_ta,share_medium_ta,share_peak_ta,"
        "da_time_ch,rt_time_ch,da_time_ta,rt_time_ta,"
        "shed_mwh_ch,spill_mwh_ch,shed_mwh_ta,spill_mwh_ta"
    )
    assert len(lines) == 3
    first = lines[1].split(",")
    assert first[0] == "2023-06-01"
    assert float(first[1]) == pytest.approx(reports[0].c_ch, abs=0.01)
    rep = reports[0]
    times = (rep.ch.da_time, rep.ch.rt_time, rep.ta.da_time, rep.ta.rt_time)
    assert min(times) > 0.0
    assert first[-8:-4] == [f"{t:.3f}" for t in times]
    energies = (rep.ch.shed_mwh, rep.ch.spill_mwh, rep.ta.shed_mwh, rep.ta.spill_mwh)
    assert first[-4:] == [f"{e:.3f}" for e in energies]


def test_plan_emits_requested_modes(tmp_path):
    cfg = write_config(tmp_path / "s.json", flat_trace_csv(tmp_path, days=1))
    out = tmp_path / "out"
    assert cli.main(["plan", "--config", str(cfg), "--out", str(out), "--mode", "ch"]) == 0
    assert (out / "plan_ch.csv").exists()
    assert not (out / "plan_ta.csv").exists()
    assert cli.main(["plan", "--config", str(cfg), "--out", str(out)]) == 0
    assert (out / "plan_ta.csv").exists()
    with open(out / "plan_ch.csv") as handle:
        rows = list(csv.DictReader(handle))
    assert len(rows) == 24 * 6
    assert {r["unit_id"] for r in rows} == {"b1", "b2", "b3", "b4", "m1", "p1"}


def test_plan_accepts_overrides(tmp_path):
    cfg = write_config(tmp_path / "s.json", flat_trace_csv(tmp_path, days=2))
    out = tmp_path / "out"
    rc = cli.main(
        [
            "plan", "--config", str(cfg), "--out", str(out),
            "--mode", "ta", "--gap", "0.01", "--lookahead-hours", "4",
        ]
    )
    assert rc == 0
    with open(out / "plan_ta.csv") as handle:
        rows = list(csv.DictReader(handle))
    assert len(rows) == 28 * 6


def test_sweep_merges_scenarios(tmp_path):
    trace = flat_trace_csv(tmp_path, days=1)
    cfg_a = write_config(tmp_path / "low_solar.json", trace, alpha_solar=0.2)
    cfg_b = write_config(tmp_path / "high_solar.json", trace, alpha_solar=0.4)
    out = tmp_path / "out"
    rc = cli.main(["sweep", str(cfg_a), str(cfg_b), "--out", str(out), "--workers", "2"])
    assert rc == 0
    with open(out / "sweep_summary.csv") as handle:
        rows = list(csv.DictReader(handle))
    assert [r["scenario"] for r in rows] == ["low_solar", "high_solar"]
    assert all(r["days"] == "1" for r in rows)
    assert (out / "comparison_low_solar.csv").exists()
    assert (out / "comparison_high_solar.csv").exists()
    # each sweep row is the summary.csv row that compare writes for the scenario
    for cfg, row in zip((cfg_a, cfg_b), rows):
        single = tmp_path / f"single_{cfg.stem}"
        assert cli.main(["compare", "--config", str(cfg), "--out", str(single)]) == 0
        with open(single / "summary.csv") as handle:
            assert next(csv.DictReader(handle)) == {k: v for k, v in row.items() if k != "scenario"}


def test_sweep_rejects_repeated_scenario_names(tmp_path, capsys, monkeypatch):
    trace = flat_trace_csv(tmp_path, days=1)
    configs = []
    for folder, alpha in (("a", 0.2), ("b", 0.4)):
        (tmp_path / folder).mkdir()
        configs.append(str(write_config(tmp_path / folder / "s.json", trace, alpha_solar=alpha)))

    def no_solve(*args, **kwargs):
        raise AssertionError("a scenario was solved before its name was checked")

    monkeypatch.setattr(simulation, "run_day_ahead", no_solve)
    out = tmp_path / "out"
    assert cli.main(["sweep", *configs, "--out", str(out)]) == 2
    assert "repeat: s" in capsys.readouterr().err
    assert not out.exists()


def test_sweep_rejects_nonpositive_workers(tmp_path, capsys):
    cfg = write_config(tmp_path / "s.json", flat_trace_csv(tmp_path, days=1))
    for workers in ("0", "-1"):
        with pytest.raises(SystemExit) as exc:
            cli.main(["sweep", str(cfg), "--out", str(tmp_path / "out"), "--workers", workers])
        assert exc.value.code == 2
        assert "--workers" in capsys.readouterr().err
    assert not (tmp_path / "out").exists()


def test_plan_plans_the_first_rolling_window(tmp_path, capsys, monkeypatch):
    # the trace starts at 18:00: 6 hours of lead-in, two full days, 2 more hours
    n = 6 + 48 + 2
    hour_of_day = (18 + np.arange(n)) % 24
    series = HiResSeries(
        demand=500.0 + 200.0 * np.sin(2 * np.pi * (hour_of_day - 8) / 24.0),
        wind_cf=np.zeros(n),
        solar_cf=np.clip(np.sin(np.pi * (hour_of_day - 6) / 12.0), 0.0, 1.0),
        step_minutes=60,
    )
    trace = tmp_path / "trace.csv"
    write_timeseries(trace, series, datetime(2023, 5, 31, 18, tzinfo=timezone.utc))
    first_plans = {}
    run_day_ahead = simulation.run_day_ahead

    def recording(system, window, mode, *args, **kwargs):
        plan = run_day_ahead(system, window, mode, *args, **kwargs)
        first_plans.setdefault(mode, plan)
        return plan

    monkeypatch.setattr(simulation, "run_day_ahead", recording)
    # the whole trace: 24 hours plus the full 8-hour look-ahead; from the
    # second day on: 24 hours plus the 2 hours left of the trace
    for start_date, n_periods in ((None, 32), ("2023-06-02", 26)):
        cfg = write_config(tmp_path / "s.json", trace, lookahead_hours=8.0, start_date=start_date)
        first_plans.clear()
        assert cli.main(["compare", "--config", str(cfg), "--out", str(tmp_path / "cmp")]) == 0
        capsys.readouterr()
        assert cli.main(["plan", "--config", str(cfg), "--out", str(tmp_path / "plan")]) == 0
        out = capsys.readouterr().out
        for mode in (simulation.MODE_CH, simulation.MODE_TA):
            plan = first_plans[mode]
            assert plan.grid.n_periods == n_periods
            assert f"{mode}: {n_periods} periods, objective {plan.objective:.2f}," in out


def test_plan_on_a_trace_shorter_than_one_day_exits_two(tmp_path, capsys):
    short = tmp_path / "short.csv"
    series = HiResSeries(
        demand=np.full(23, 300.0), wind_cf=np.zeros(23), solar_cf=np.zeros(23), step_minutes=60
    )
    write_timeseries(short, series, datetime(2023, 6, 1, tzinfo=timezone.utc))
    cfg = write_config(tmp_path / "s.json", short, alpha_solar=0.0)
    assert cli.main(["plan", "--config", str(cfg), "--out", str(tmp_path / "out")]) == 2
    assert "one complete midnight-to-midnight day" in capsys.readouterr().err


def test_compare_with_no_usable_day_exits_two(tmp_path, capsys):
    short = tmp_path / "short.csv"
    series = HiResSeries(
        demand=np.full(5, 300.0), wind_cf=np.zeros(5), solar_cf=np.zeros(5), step_minutes=60
    )
    write_timeseries(short, series, datetime(2023, 6, 1, tzinfo=timezone.utc))
    cfg = write_config(tmp_path / "s.json", short, alpha_solar=0.0)
    assert cli.main(["compare", "--config", str(cfg), "--out", str(tmp_path)]) == 2
    err = capsys.readouterr().err
    assert "no day could be compared" in err


def test_unknown_subcommand_is_an_argparse_error():
    with pytest.raises(SystemExit) as exc:
        cli.main(["frobnicate"])
    assert exc.value.code == 2
