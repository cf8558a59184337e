"""Tests for trace loading, fleet sizing, portfolios and scenario configs."""
from __future__ import annotations

import csv
import json
import math
import tempfile
from datetime import datetime, timedelta, timezone
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from helpers import scenario_to_json
from tauc.aggregation import ALLOWED_STEPS, HiResSeries
from tauc.ingestion import (
    PORTFOLIO_HEADER,
    PORTFOLIO_IDS,
    TRACE_HEADER,
    ScenarioConfig,
    _read_canonical,
    _read_rows,
    build_portfolio,
    compute_installed_capacity,
    default_shed_cost,
    illustrative_case,
    load_scenario,
    load_timeseries,
    write_timeseries,
)
from tauc.model import PowerSystem


def series_for_tests(n=48, step=30, seed=7):
    rng = np.random.default_rng(seed)
    return HiResSeries(
        demand=rng.uniform(100.0, 900.0, n),
        wind_cf=rng.uniform(0.0, 1.0, n),
        solar_cf=rng.uniform(0.0, 1.0, n),
        step_minutes=step,
    )


def test_write_then_load_is_exact(tmp_path):
    """repr-formatted floats survive the CSV round trip bit for bit."""
    series = series_for_tests()
    start = datetime(2023, 3, 1, tzinfo=timezone.utc)
    path = tmp_path / "trace.csv"
    write_timeseries(path, series, start)
    trace = load_timeseries(path, step_minutes=30)
    assert trace.start == start
    assert trace.series.step_minutes == 30
    np.testing.assert_array_equal(trace.series.demand, series.demand)
    np.testing.assert_array_equal(trace.series.wind_cf, series.wind_cf)
    np.testing.assert_array_equal(trace.series.solar_cf, series.solar_cf)


def test_load_records_offset_from_midnight(tmp_path):
    series = series_for_tests(n=4)
    start = datetime(2023, 3, 1, 6, 30, tzinfo=timezone.utc)
    path = tmp_path / "trace.csv"
    write_timeseries(path, series, start)
    trace = load_timeseries(path, step_minutes=30)
    assert trace.start == start


def test_naive_and_zoned_timestamps_mean_utc(tmp_path):
    path = tmp_path / "trace.csv"
    path.write_text(
        "timestamp,demand_mw,wind_cf,solar_cf\n"
        "2023-03-01T00:00:00,100,0,0\n"
        "2023-03-01T02:00:00+01:00,100,0,0\n"
        "2023-03-01T02:00:00Z,100,0,0\n"
    )
    trace = load_timeseries(path, step_minutes=60)
    assert trace.start == datetime(2023, 3, 1, tzinfo=timezone.utc)
    assert trace.series.n_points == 3


def test_load_rejects_wrong_header(tmp_path):
    path = tmp_path / "trace.csv"
    path.write_text("time,demand,wind,solar\n2023-01-01T00:00:00Z,1,0,0\n")
    with pytest.raises(ValueError, match="line 1"):
        load_timeseries(path, step_minutes=60)


def test_load_rejects_bad_capacity_factor_with_line_number(tmp_path):
    path = tmp_path / "trace.csv"
    path.write_text(
        "timestamp,demand_mw,wind_cf,solar_cf\n"
        "2023-01-01T00:00:00Z,100,0.5,0.5\n"
        "2023-01-01T01:00:00Z,100,1.2,0.5\n"
    )
    with pytest.raises(ValueError, match="line 3.*wind_cf"):
        load_timeseries(path, step_minutes=60)


def test_load_rejects_negative_demand(tmp_path):
    path = tmp_path / "trace.csv"
    path.write_text(
        "timestamp,demand_mw,wind_cf,solar_cf\n2023-01-01T00:00:00Z,-5,0,0\n"
    )
    with pytest.raises(ValueError, match="line 2.*demand_mw"):
        load_timeseries(path, step_minutes=60)


def test_load_rejects_gap_in_timestamps(tmp_path):
    path = tmp_path / "trace.csv"
    path.write_text(
        "timestamp,demand_mw,wind_cf,solar_cf\n"
        "2023-01-01T00:00:00Z,100,0,0\n"
        "2023-01-01T01:00:00Z,100,0,0\n"
        "2023-01-01T03:00:00Z,100,0,0\n"
    )
    with pytest.raises(ValueError, match="line 4"):
        load_timeseries(path, step_minutes=60)


def test_a_sub_second_start_survives_the_round_trip(tmp_path):
    start = datetime(2023, 6, 1, 0, 0, 0, 500000, tzinfo=timezone.utc)
    path = tmp_path / "trace.csv"
    write_timeseries(path, series_for_tests(n=3), start)
    assert path.read_text().splitlines()[1].startswith("2023-06-01T00:00:00.500000Z,")
    assert load_timeseries(path, step_minutes=30).start == start


def test_a_start_before_year_1000_survives_the_round_trip(tmp_path):
    start = datetime(999, 1, 1, tzinfo=timezone.utc)
    path = tmp_path / "trace.csv"
    write_timeseries(path, series_for_tests(n=2), start)
    assert path.read_text().splitlines()[1].startswith("0999-01-01T00:00:00Z,")
    assert load_timeseries(path, step_minutes=30).start == start


def test_a_gap_message_prints_the_sub_second_part(tmp_path):
    path = tmp_path / "trace.csv"
    path.write_text(
        "timestamp,demand_mw,wind_cf,solar_cf\n"
        "2023-06-01T00:00:00Z,100,0,0\n"
        "2023-06-01T00:30:00.500Z,100,0,0\n"
    )
    with pytest.raises(ValueError) as err:
        load_timeseries(path, step_minutes=30)
    assert str(err.value) == (f"{path} line 3: expected timestamp 2023-06-01T00:30:00Z, "
                              "got 2023-06-01T00:30:00.500000Z")


def test_trace_row_errors_name_the_real_line_past_blank_lines(tmp_path):
    path = tmp_path / "trace.csv"
    head = (
        "timestamp,demand_mw,wind_cf,solar_cf\n"
        "2023-01-01T00:00:00Z,100,0,0\n"
        "2023-01-01T01:00:00Z,100,0,0\n"
        "\n"
        "\n"
    )
    cases = (
        ("2023-01-01T03:00:00Z,100,0,0", "line 6: expected timestamp 2023-01-01T02:00:00Z, got 2023-01-01T03:00:00Z"),
        ("yesterday,100,0,0", "line 6: cannot parse timestamp 'yesterday'"),
        ("2023-01-01T01:00:00Z,100,0,0", "line 6: expected timestamp 2023-01-01T02:00:00Z, got 2023-01-01T01:00:00Z"),
        ("2023-01-01T02:00:00Z,100,0", "line 6: expected 4 fields, got 3"),
        ("2023-01-01T02:00:00Z,100,0,0,0", "line 6: expected 4 fields, got 5"),
        ("2023-01-01T02:00:00Z,nan,0,0", "line 6: demand_mw value 'nan' is not finite"),
        ("2023-01-01T02:00:00Z,100,inf,0", "line 6: wind_cf value 'inf' is not finite"),
        ("#2023-01-01T02:00:00Z,100,0,0", "line 6: cannot parse timestamp '#2023-01-01T02:00:00Z'"),
        ("2023-01-01T02:00:00Z0,100,0,0", "line 6: cannot parse timestamp '2023-01-01T02:00:00Z0'"),
        ("2023-01-01T02:00:00Z,100,0,1.5", "line 6: solar_cf must lie in [0, 1]"),
        ("2023-01-01T02:00:00Z,-5,0,0", "line 6: demand_mw must be nonnegative"),
    )
    for row, message in cases:
        path.write_text(f"{head}{row}\n")
        with pytest.raises(ValueError) as err:
            load_timeseries(path, step_minutes=60)
        assert str(err.value) == f"{path} {message}"
        # the same row after two rows in the form write_timeseries writes
        path.write_bytes(f"{head.strip()}\n{row}\n".replace("\n", "\r\n").encode())
        with pytest.raises(ValueError) as err:
            load_timeseries(path, step_minutes=60)
        assert str(err.value) == f"{path} {message.replace('line 6', 'line 4')}"


def test_load_rejects_unparseable_number(tmp_path):
    path = tmp_path / "trace.csv"
    path.write_text(
        "timestamp,demand_mw,wind_cf,solar_cf\n2023-01-01T00:00:00Z,abc,0,0\n"
    )
    with pytest.raises(ValueError, match="line 2.*demand_mw"):
        load_timeseries(path, step_minutes=60)


def test_load_rejects_empty_file(tmp_path):
    path = tmp_path / "trace.csv"
    path.write_text("timestamp,demand_mw,wind_cf,solar_cf\n")
    with pytest.raises(ValueError, match="no data rows"):
        load_timeseries(path, step_minutes=60)
    for text in (b"timestamp,demand_mw,wind_cf,solar_cf\r\n", b"timestamp,demand_mw,wind_cf,solar_cf\n\n  \n"):
        path.write_bytes(text)
        with pytest.raises(ValueError) as err:
            load_timeseries(path, step_minutes=60)
        assert str(err.value) == f"{path}: no data rows"


def _same_trace(got, want) -> bool:
    """Two LoadedTraces equal bit for bit, the start's time zone included."""
    return (got.start == want.start and got.start.tzinfo == want.start.tzinfo
            and got.series.step_minutes == want.series.step_minutes
            and all(getattr(got.series, name).tobytes() == getattr(want.series, name).tobytes()
                    for name in ("demand", "wind_cf", "solar_cf")))


def test_every_accepted_form_reads_as_the_file_write_timeseries_writes(tmp_path):
    """LF endings, a missing last newline, blank and whitespace-only lines,
    quoted fields, an underscore in a number (float reads 1_000), and
    +00:00, +01:00 or naive stamps read as the canonical file."""
    header = ",".join(TRACE_HEADER)
    stamps = ("2023-01-01T00:00:00Z", "2023-01-01T01:00:00Z", "2023-01-01T02:00:00Z")
    values = ("1000.0,0.0,1.0", "0.0,0.5,0.25", "1e+300,1.0,0.0")
    rows = [f"{stamp},{value}" for stamp, value in zip(stamps, values)]
    canonical = tmp_path / "canonical.csv"
    series = HiResSeries(demand=np.array([1000.0, 0.0, 1e300]), wind_cf=np.array([0.0, 0.5, 1.0]),
                         solar_cf=np.array([1.0, 0.25, 0.0]), step_minutes=60)
    write_timeseries(canonical, series, datetime(2023, 1, 1, tzinfo=timezone.utc))
    assert canonical.read_bytes() == "".join(f"{line}\r\n" for line in (header, *rows)).encode()
    want = load_timeseries(canonical, step_minutes=60)
    quoted = [",".join(f'"{cell}"' for cell in row.split(",")) for row in rows]
    variants = (
        "\n".join((header, *rows)) + "\n",
        "\n".join((header, *rows)),
        "\n".join((header, rows[0], "", rows[1], "", "", rows[2], "")) + "\n",
        "\n".join((header, "", *rows)) + "\n",
        "\n".join((header, rows[0], "   ", rows[1], "\t", rows[2])) + "\n",
        "\n".join((header, *quoted)) + "\n",
        "\n".join((header, rows[0].replace("1000.0", "1_000"), *rows[1:])) + "\n",
        "\n".join((header, *(row.replace("Z,", "+00:00,") for row in rows))) + "\n",
        "\n".join((header, *(row.replace("Z,", ",") for row in rows))) + "\n",
        "\n".join((header, rows[0], rows[1].replace("01:00:00Z", "02:00:00+01:00"), rows[2])) + "\n",
        "\n".join((header, *(row.replace(f"0{h}:00:00Z", f"0{h + 1}:00:00+01:00") for h, row in enumerate(rows)))),
    )
    path = tmp_path / "trace.csv"
    for text in variants:
        path.write_bytes(text.encode())
        assert _same_trace(load_timeseries(path, step_minutes=60), want), text


@st.composite
def written_traces(draw):
    """A series and a start as write_timeseries takes them: 1 to 2 000
    samples at any allowed step, from any start whose last sample datetime
    can still hold, with or without a sub-second part, with demands that
    include 0, 1 and 1e300 MW."""
    n = draw(st.integers(1, 2000))
    step = draw(st.sampled_from(ALLOWED_STEPS))
    start = draw(st.datetimes(max_value=datetime.max - (n - 1) * timedelta(minutes=step)))
    if draw(st.booleans()):
        start = start.replace(microsecond=0)
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    demand = rng.uniform(0.0, 1.0, n) * 10.0 ** draw(st.integers(-3, 300))
    wind, solar = rng.uniform(0.0, 1.0, (2, n))
    for arr, values in ((demand, st.sampled_from([0.0, 1.0, 1e300]) | st.floats(0.0, 1e300)),
                        (wind, st.floats(0.0, 1.0)), (solar, st.floats(0.0, 1.0))):
        for i in draw(st.lists(st.integers(0, n - 1), max_size=8)):
            arr[i] = draw(values)
    series = HiResSeries(demand=demand, wind_cf=wind, solar_cf=solar, step_minutes=step)
    return series, start.replace(tzinfo=timezone.utc)


@settings(max_examples=60, deadline=None)
@given(written_traces())
def test_load_timeseries_equals_the_row_loop_on_every_written_trace(case):
    """A trace write_timeseries writes reads the same bit for bit through
    load_timeseries and through the row loop alone; it takes the one-pass
    read unless its stamps carry a sub-second part."""
    series, start = case
    with tempfile.TemporaryDirectory() as folder:
        path = Path(folder) / "trace.csv"
        write_timeseries(path, series, start)
        got = load_timeseries(path, series.step_minutes)
        want = _read_rows(path, series.step_minutes)
        assert (_read_canonical(path, series.step_minutes) is None) == bool(start.microsecond)
    assert want.start == start
    assert _same_trace(got, want)


def test_capacity_sizing_hits_target_energy_share():
    """Installed capacity is defined so fleet energy equals the demand share."""
    rng = np.random.default_rng(11)
    demand = rng.uniform(200.0, 1500.0, 144)
    cf = rng.uniform(0.0, 1.0, 144)
    alpha = 0.35
    cap = compute_installed_capacity(alpha, demand, cf)
    assert np.sum(cf * cap) == pytest.approx(alpha * np.sum(demand), rel=1e-12)


def test_capacity_sizing_zero_share_means_no_fleet():
    assert compute_installed_capacity(0.0, np.ones(5), np.zeros(5)) == 0.0


def test_capacity_sizing_rejects_bad_inputs():
    with pytest.raises(ValueError, match="alpha"):
        compute_installed_capacity(1.5, np.ones(3), np.ones(3))
    with pytest.raises(ValueError, match="zero capacity factors"):
        compute_installed_capacity(0.5, np.ones(3), np.zeros(3))


def test_six_unit_portfolio_golden_fields():
    units = build_portfolio("example6")
    assert len(units) == 6
    base = [u for u in units if u.flex_class == "base"]
    assert len(base) == 4
    for u in base:
        assert (u.pmin, u.pmax, u.marginal_cost) == (200.0, 200.0, 10.0)
        assert u.u0 == 1 and u.p0 == 200.0
        assert u.ramp_up is None and u.min_up == 0.0
    (medium,) = [u for u in units if u.flex_class == "medium"]
    assert (medium.pmin, medium.pmax, medium.marginal_cost) == (50.0, 100.0, 30.0)
    assert medium.u0 == 0
    (peak,) = [u for u in units if u.flex_class == "peak"]
    assert (peak.pmin, peak.pmax, peak.marginal_cost) == (0.0, 50.0, 50.0)
    assert default_shed_cost("example6") == 100.0


def test_thirteen_unit_portfolio_golden_rows():
    units = {u.unit_id: u for u in build_portfolio("study13")}
    assert len(units) == 13
    g1 = units["g1"]
    assert g1.flex_class == "base"
    assert (g1.pmin, g1.pmax) == (200.0, 400.0)
    assert g1.ramp_up == 120.0 and g1.ramp_down == 120.0
    assert g1.min_up == 9.0 and g1.min_down == 9.0
    assert g1.startup_cost == 1000.0 and g1.marginal_cost == 20.0
    assert g1.u0 == 1 and g1.p0 == 200.0 and g1.hours0 == 24.0
    assert units["g5"].min_up == 4.7
    g13 = units["g13"]
    assert g13.flex_class == "peak"
    assert g13.ramp_up == 150.0 and g13.marginal_cost == 85.0
    assert g13.min_up == 0.0 and g13.startup_cost == 500.0 and g13.u0 == 0
    counts = {c: sum(u.flex_class == c for u in units.values()) for c in ("base", "medium", "peak")}
    assert counts == {"base": 3, "medium": 4, "peak": 6}
    assert default_shed_cost("study13") == 10000.0


def test_seventy_unit_portfolio_shape_and_ranges():
    units = build_portfolio("spanish70")
    assert len(units) == 70
    base = [u for u in units if u.flex_class == "base"]
    medium = [u for u in units if u.flex_class == "medium"]
    peak = [u for u in units if u.flex_class == "peak"]
    assert (len(base), len(medium), len(peak)) == (8, 12, 50)
    assert base[0].marginal_cost == 20.0 and base[-1].marginal_cost == 25.0
    assert base[0].min_up == 7.5 and base[-1].min_up == 9.0
    assert all(u.pmin == 500.0 and u.pmax == 1000.0 and u.ramp_up == 3000.0 for u in base)
    assert medium[0].min_up == 4.0 and medium[-1].min_up == 5.0
    assert medium[0].marginal_cost == 50.0 and medium[-1].marginal_cost == 55.0
    assert peak[0].marginal_cost == 80.0 and peak[-1].marginal_cost == 90.0
    assert all(u.pmin == 0.0 and u.min_up == 0.0 and u.startup_cost == 500.0 for u in peak)
    costs = [u.marginal_cost for u in units]
    assert costs == sorted(costs)
    assert build_portfolio("spanish70") == units


def test_portfolio_csv_round_trip(tmp_path):
    path = tmp_path / "fleet.csv"
    path.write_text(
        "unit_id,flex_class,pmin,pmax,marginal_cost,startup_cost,"
        "ramp_up,ramp_down,min_up,min_down\n"
        "a1,base,100,250,12.5,600,80,80,6,6\n"
        "a2,peak,0,90,45,100,,,0,0\n"
    )
    units = build_portfolio(path)
    assert len(units) == 2
    assert units[0].unit_id == "a1" and units[0].marginal_cost == 12.5
    assert units[0].u0 == 1 and units[0].p0 == 100.0
    assert units[1].ramp_up is None and units[1].u0 == 0


def test_every_builtin_fleet_reads_back_from_a_portfolio_csv(tmp_path):
    """The built-in fleets and a portfolio CSV go through one schema: each
    fleet written under PORTFOLIO_HEADER, an empty cell for no ramp limit,
    reads back as the same units, initial state included."""
    n_units = 0
    for portfolio in PORTFOLIO_IDS:
        units = build_portfolio(portfolio)
        path = tmp_path / f"{portfolio}.csv"
        with open(path, "w", newline="") as handle:
            writer = csv.writer(handle)  # writes None as an empty cell and floats exactly
            writer.writerow(PORTFOLIO_HEADER)
            writer.writerows([getattr(u, name) for name in PORTFOLIO_HEADER] for u in units)
        assert build_portfolio(path) == units
        n_units += len(units)
    assert n_units == 89


def test_portfolio_csv_reports_bad_row_line(tmp_path):
    path = tmp_path / "fleet.csv"
    path.write_text(
        "unit_id,flex_class,pmin,pmax,marginal_cost,startup_cost,"
        "ramp_up,ramp_down,min_up,min_down\n"
        "a1,base,300,250,12.5,600,80,80,6,6\n"
    )
    with pytest.raises(ValueError, match="line 2"):
        build_portfolio(path)


def test_portfolio_csv_rejects_negative_marginal_cost(tmp_path):
    path = tmp_path / "fleet.csv"
    path.write_text(
        "unit_id,flex_class,pmin,pmax,marginal_cost,startup_cost,"
        "ramp_up,ramp_down,min_up,min_down\n"
        "a1,base,100,250,12.5,600,80,80,6,6\n"
        "a2,peak,0,90,-45,100,,,0,0\n"
    )
    with pytest.raises(ValueError, match="line 3: a2: marginal_cost must be nonnegative"):
        build_portfolio(path)


@pytest.mark.parametrize("header, good_row, load", [
    (TRACE_HEADER, "2023-01-01T00:00:00Z,100,0.5,0.5", lambda path: load_timeseries(path, step_minutes=60)),
    (PORTFOLIO_HEADER, "a1,base,100,250,12.5,600,80,80,6,6", build_portfolio),
])
def test_trace_and_portfolio_csvs_follow_one_set_of_rules(tmp_path, header, good_row, load):
    """An empty file, a wrong header, a row with the wrong field count and a
    field that is not a number raise the same errors for both inputs; blank
    lines are skipped but counted."""
    path = tmp_path / "input.csv"
    fields = good_row.split(",")
    k = fields.index("100")
    bad_row = ",".join(fields[:k] + ["x"] + fields[k + 1:])
    cases = (
        ("", f"{path}: file is empty"),
        (f"a,b\n{good_row}\n", f"{path} line 1: header must be {','.join(header)}, got a,b"),
        (f"{','.join(header)}\n{good_row}\n\n1,2\n", f"{path} line 4: expected {len(header)} fields, got 2"),
        (f"{','.join(header)}\n\n{bad_row}\n", f"{path} line 3: {header[k]} value 'x' is not a number"),
    )
    for text, message in cases:
        path.write_text(text)
        with pytest.raises(ValueError) as err:
            load(path)
        assert str(err.value) == message


def test_unknown_portfolio_id_rejected():
    with pytest.raises(ValueError, match="unknown portfolio"):
        build_portfolio("example7")


def test_illustrative_case_matches_published_numbers():
    system, series = illustrative_case()
    assert isinstance(system, PowerSystem) and isinstance(series, HiResSeries)
    np.testing.assert_array_equal(
        series.demand, [500.0, 500.0, 500.0, 500.0, 650.0, 850.0]
    )
    assert series.step_minutes == 30
    assert system.wind_capacity == 0.0 and system.solar_capacity == 300.0
    assert system.load_shed_cost == 100.0
    net = series.demand - system.solar_capacity * series.solar_cf
    np.testing.assert_allclose(net, [200.0, 200.0, 200.0, 200.0, 450.0, 850.0])


def test_scenario_config_defaults_and_solver_mapping():
    cfg = ScenarioConfig(data_path="trace.csv")
    assert cfg.step_minutes == 10 and cfg.portfolio == "study13"
    solver = cfg.solver_config()
    assert solver.gap == 0.0 and solver.time_limit is None
    assert cfg.resolved_shed_cost() == 10000.0
    assert ScenarioConfig(data_path="t.csv", shed_cost=123.0).resolved_shed_cost() == 123.0


@pytest.mark.parametrize(
    "overrides,match",
    [
        ({"step_minutes": 15}, "step_minutes"),
        ({"demand_scale": 0.0}, "demand_scale"),
        ({"alpha_wind": -0.1}, "alpha_wind"),
        ({"alpha_solar": 1.3}, "alpha_solar"),
        ({"features": "everything"}, "features"),
        ({"lookahead_hours": -1.0}, "lookahead_hours"),
        ({"gap": -0.5}, "gap"),
        ({"start_date": "yesterday"}, "start_date"),
        ({"start_date": "2023-05-02", "end_date": "2023-05-01"}, "after end_date"),
        ({"shed_cost": 0.0}, "shed_cost"),
        # wrong types get the same ValueError naming the key as in a JSON config
        ({"lookahead_hours": None}, "lookahead_hours"),
        ({"step_minutes": True}, "step_minutes"),
    ],
)
def test_scenario_config_rejects_invalid_values(overrides, match):
    with pytest.raises(ValueError, match=match):
        ScenarioConfig(data_path="trace.csv", **overrides)


def test_scenario_json_round_trip(tmp_path):
    cfg = ScenarioConfig(
        data_path=str(tmp_path / "trace.csv"),
        step_minutes=30,
        alpha_solar=0.4,
        portfolio="spanish70",
        lookahead_hours=6.0,
        gap=0.001,
    )
    path = tmp_path / "scenario.json"
    path.write_text(scenario_to_json(cfg))
    assert load_scenario(path) == cfg


def test_load_scenario_resolves_paths_relative_to_config(tmp_path):
    sub = tmp_path / "runs"
    sub.mkdir()
    (sub / "scenario.json").write_text(
        json.dumps({"data_path": "data/trace.csv", "portfolio": "fleet.csv"})
    )
    cfg = load_scenario(sub / "scenario.json")
    assert cfg.data_path == str((sub / "data" / "trace.csv").resolve())
    assert cfg.portfolio == str((sub / "fleet.csv").resolve())


def test_load_scenario_keeps_builtin_portfolio_ids(tmp_path):
    path = tmp_path / "scenario.json"
    path.write_text(json.dumps({"data_path": "trace.csv", "portfolio": "example6"}))
    assert load_scenario(path).portfolio == "example6"


@pytest.mark.parametrize("key", ["solver", "backend", "threads"])
def test_load_scenario_rejects_unknown_keys(tmp_path, key):
    """A key the config does not have, such as the removed backend and threads, fails by name."""
    path = tmp_path / "scenario.json"
    path.write_text(json.dumps({"data_path": "t.csv", key: "glpk"}))
    with pytest.raises(ValueError, match=f"unknown config keys: {key}$"):
        load_scenario(path)


@pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf])
@pytest.mark.parametrize(
    "key",
    ["step_minutes", "demand_scale", "alpha_wind", "alpha_solar", "lookahead_hours", "shed_cost", "gap", "time_limit"],
)
def test_load_scenario_rejects_non_finite_numbers(tmp_path, key, value):
    """json.loads reads NaN, Infinity and -Infinity; no number field takes them."""
    path = tmp_path / "scenario.json"
    path.write_text(json.dumps({"data_path": "t.csv", key: value}))
    with pytest.raises(ValueError, match=f": {key} must be (an integer|a finite number)"):
        load_scenario(path)


def test_load_scenario_requires_data_path(tmp_path):
    path = tmp_path / "scenario.json"
    path.write_text(json.dumps({"portfolio": "study13"}))
    with pytest.raises(ValueError, match="missing data_path"):
        load_scenario(path)
