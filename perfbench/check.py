"""Output checks against a reference kept in the benchmark.

``reference.json`` holds, per workload, seed and input, the outputs that
tauc's library API produced when the benchmark was defined (see
``make_reference.py``). For a seed it does not hold, an input's reference is
computed through the library API, not the command line, before the input's
first timed command. A mismatch fails the operation; it is never a warning.

compare: every day of the trace must be present, with ``c_ch`` and ``c_ta``
equal to the cent and ``delta_pct`` equal at the four decimals
comparison.csv carries. A day the program skipped, or a nonzero exit, fails
the day.
cluster: ``durations.csv`` must be a contiguous partition of the trace with
the reference's period count and bounds.
"""
from __future__ import annotations

import csv
import hashlib
import json
import math
from pathlib import Path

from perfbench.fixtures import Fixture, recipe_digest

REFERENCE_FILE = Path(__file__).with_name("reference.json")


def _cents(value: float) -> str:
    return f"{value:.2f}"


def _pct(value: float) -> str:
    """delta_pct at the four decimals comparison.csv carries."""
    return f"{value:.4f}"


def bounds_digest(bounds) -> str:
    text = "".join(f"{a},{b}\n" for a, b in bounds)
    return hashlib.sha256(text.encode()).hexdigest()


def library_reference(fixture: Fixture, i: int) -> dict:
    """Compute the reference for input i by calling tauc's library API directly."""
    from tauc import (
        PowerSystem,
        build_portfolio,
        cluster_adjacent,
        compute_installed_capacity,
        load_scenario,
        load_timeseries,
        normalize_features,
        run_rolling_horizon,
    )
    from perfbench.spans import Recorder

    cfg = load_scenario(fixture.config(i))
    trace = load_timeseries(cfg.data_path, cfg.step_minutes)
    series = trace.series
    system = PowerSystem(
        units=build_portfolio(cfg.portfolio),
        wind_capacity=compute_installed_capacity(cfg.alpha_wind, series.demand, series.wind_cf),
        solar_capacity=compute_installed_capacity(cfg.alpha_solar, series.demand, series.solar_cf),
        load_shed_cost=cfg.resolved_shed_cost(),
    )
    if fixture.recipe["command"] == "cluster":
        feats = normalize_features(series, cfg.features, system.wind_capacity, system.solar_capacity)
        grid = cluster_adjacent(feats, round(series.horizon_hours), series.step_minutes)
        return {
            "samples": series.n_points,
            "periods": grid.n_periods,
            "bounds_sha256": bounds_digest(grid.cluster_bounds),
        }
    recorder = Recorder()
    with recorder.installed():
        reports = run_rolling_horizon(
            system,
            trace,
            lookahead_hours=cfg.lookahead_hours,
            features=cfg.features,
            config=cfg.solver_config(),
            start_date=cfg.start_date,
            end_date=cfg.end_date,
        )
    days = {}
    for rep in reports:
        if rep.warning:
            days[rep.date] = None
        else:
            days[rep.date] = {
                "c_ch": _cents(rep.c_ch),
                "c_ta": _cents(rep.c_ta),
                "delta_pct": _pct(rep.delta_pct),
            }
    objectives: dict[str, dict[str, str]] = {}
    for _, label, mode, objective in recorder.objectives:
        objectives.setdefault(label, {})[mode] = _cents(objective)
    return {"days": days, "da_objectives": objectives}


def stored_references(fixture: Fixture) -> list[dict | None]:
    """The kept reference of each input for this workload and seed; None
    where none is kept or the recipe has changed since."""
    entry = json.loads(REFERENCE_FILE.read_text()).get(fixture.workload)
    if entry and entry["recipe_digest"] == recipe_digest(fixture.workload):
        kept = entry["seeds"].get(str(fixture.seed))
        if kept:
            return kept
    return [None] * fixture.inputs


def check_compare(reference: dict, out: Path, exit_code: int) -> tuple[int, int, list[str]]:
    """Return (attempted days, failed days, problems) for one compare run."""
    expected = reference["days"]
    rows = {}
    path = out / "comparison.csv"
    if exit_code == 0 and path.exists():
        with open(path, newline="") as handle:
            rows = {row["date"]: row for row in csv.DictReader(handle)}
    problems = []
    if exit_code != 0:
        problems.append(f"exit code {exit_code}")
    failed = 0
    for day in sorted(set(expected) | set(rows)):
        want = expected.get(day)
        row = rows.get(day)
        if want is None:
            problems.append(f"{day}: not expected" if row else f"{day}: skipped in the reference")
            failed += 1
            continue
        if row is None:
            problems.append(f"{day}: missing from comparison.csv (skipped day)")
            failed += 1
            continue
        got = {
            "c_ch": _cents(float(row["c_ch"])),
            "c_ta": _cents(float(row["c_ta"])),
            "delta_pct": _pct(float(row["delta_pct"])),
        }
        if got != want:
            problems.append(f"{day}: got {got}, expected {want}")
            failed += 1
    return len(set(expected) | set(rows)), failed, problems


def check_cluster(reference: dict, out: Path, exit_code: int) -> tuple[int, int, list[str]]:
    """Return (1, failed, problems) for one cluster run."""
    if exit_code != 0:
        return 1, 1, [f"exit code {exit_code}"]
    path = out / "durations.csv"
    if not path.exists():
        return 1, 1, ["durations.csv missing"]
    with open(path, newline="") as handle:
        rows = list(csv.DictReader(handle))
    bounds = [(int(r["start_sample"]), int(r["stop_sample"])) for r in rows]
    problems = []
    prev = 0
    for (a, b), r in zip(bounds, rows):
        if a != prev or b <= a:
            problems.append(f"period {r['period']}: bounds {a}-{b} do not follow {prev}")
            break
        prev = b
    if prev != reference["samples"]:
        problems.append(f"periods cover {prev} samples, expected {reference['samples']}")
    if len(bounds) != reference["periods"]:
        problems.append(f"{len(bounds)} periods, expected {reference['periods']}")
    if bounds_digest(bounds) != reference["bounds_sha256"]:
        problems.append("period bounds differ from the reference")
    return 1, int(bool(problems)), problems


def check_objectives(reference: dict, objectives) -> list[str]:
    """Day-ahead objectives recorded by a traced run against the reference."""
    want = reference.get("da_objectives", {})
    problems = []
    for _, label, mode, objective in objectives:
        expected = want.get(label, {}).get(mode)
        if expected is None or not math.isfinite(objective) or _cents(objective) != expected:
            problems.append(f"{label} {mode}: day-ahead objective {objective!r}, expected {expected}")
    return problems


def check(fixture: Fixture, reference: dict, out: Path, exit_code: int) -> tuple[int, int, list[str]]:
    if fixture.recipe["command"] == "cluster":
        return check_cluster(reference, out, exit_code)
    return check_compare(reference, out, exit_code)
