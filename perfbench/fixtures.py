"""Deterministic benchmark inputs: a trace CSV and a scenario JSON per workload.

Every number comes from ``numpy.random.default_rng(seed)`` and the recipe
below, and the trace is written with ``tauc.ingestion.write_timeseries``
(floats as ``repr``), so one seed gives byte-identical files on every run.
The program under test sees only the files in the fixture directory.
"""
from __future__ import annotations

import csv
import hashlib
import json
from dataclasses import dataclass
from datetime import datetime, timezone
from pathlib import Path

import numpy as np

START = datetime(2023, 6, 1, tzinfo=timezone.utc)

# Demand is base + amp * sin(2*pi*(t - 9)/24) + N(0, sd), clipped at floor.
# Wind is 0.35 + 0.2 * sin(2*pi*t/37) + N(0, 0.05) clipped to [0, 1]; solar is
# clip(sin(pi*((t mod 24) - 6)/12), 0, 1). t is in hours from the first sample.
RECIPES: dict[str, dict] = {
    # One paper comparison per command, dominated by HiGHS branch-and-bound.
    # Solve time varies by about 25% from day to day, so each command takes
    # the next of `inputs` one-day traces, and a run averages the 20-odd days
    # it reaches. A two-unit cut of study13 (one medium, one peak unit) keeps
    # a day near 0.8 s, so a run reaches enough days for their mean to settle.
    # The cut has no base unit: real time fixes a base unit's hourly output,
    # and a half-hour whose demand dips below that output cannot be served
    # (the program skips the day). The medium unit's minimum output, 100 MW,
    # stays far below this demand, so no day is skipped.
    "day": {
        "command": "compare",
        "inputs": 32,
        "days": 1,
        "tail_hours": 0,
        "step_minutes": 30,
        "fleet": ["g4", "g8"],
        "demand": {"base": 400.0, "amp": 100.0, "sd": 15.0, "floor": 50.0},
        "alpha_wind": 0.2,
        "alpha_solar": 0.2,
        "shed_cost": 10000.0,
        "lookahead_hours": 0.0,
    },
    # Many small MILPs with an 8 h look-ahead and day-to-day state chaining:
    # model build, matrix assembly and the audit weigh as much as HiGHS.
    "rolling": {
        "command": "compare",
        "days": 7,
        "tail_hours": 8,
        "step_minutes": 5,
        "portfolio": "example6",
        "demand": {"base": 1150.0, "amp": 150.0, "sd": 20.0, "floor": 200.0},
        "alpha_wind": 0.2,
        "alpha_solar": 0.2,
        "shed_cost": 100.0,
        "lookahead_hours": 8.0,
    },
    # Adjacent clustering of a long trace, one period per hour; no solver runs.
    "cluster": {
        "command": "cluster",
        "days": 60,
        "tail_hours": 0,
        "step_minutes": 5,
        "portfolio": "study13",
        "demand": {"base": 1500.0, "amp": 500.0, "sd": 60.0, "floor": 200.0},
        "alpha_wind": 0.2,
        "alpha_solar": 0.2,
        "shed_cost": 10000.0,
        "lookahead_hours": 8.0,
    },
}

WORKLOADS = tuple(RECIPES)


@dataclass(frozen=True)
class Fixture:
    """A workload's inputs for one seed: input i lives in directory/<i>/."""

    workload: str
    seed: int
    directory: Path
    recipe: dict

    @property
    def inputs(self) -> int:
        return self.recipe.get("inputs", 1)

    @property
    def days(self) -> int:
        """Days of trace that one command covers."""
        return self.recipe["days"]

    def config(self, i: int) -> Path:
        return self.directory / str(i) / "scenario.json"

    def argv(self, i: int, out: Path) -> list[str]:
        """Arguments for ``tauc.cli.main`` that run the command on input i."""
        return [self.recipe["command"], "--config", str(self.config(i)), "--out", str(out)]


def recipe_digest(workload: str) -> str:
    """Short hash of a workload's recipe; stored references are tied to it."""
    text = json.dumps(RECIPES[workload], sort_keys=True)
    return hashlib.sha256(text.encode()).hexdigest()[:16]


def _series(recipe: dict, rng: np.random.Generator):
    from tauc.aggregation import HiResSeries

    step = recipe["step_minutes"]
    n = (recipe["days"] * 24 + recipe["tail_hours"]) * 60 // step
    t = np.arange(n) * step / 60.0
    d = recipe["demand"]
    demand = d["base"] + d["amp"] * np.sin(2 * np.pi * (t - 9.0) / 24.0) + rng.normal(0.0, d["sd"], n)
    wind = 0.35 + 0.2 * np.sin(2 * np.pi * t / 37.0) + rng.normal(0.0, 0.05, n)
    solar = np.sin(np.pi * ((t % 24.0) - 6.0) / 12.0)
    return HiResSeries(
        demand=np.clip(demand, d["floor"], None),
        wind_cf=np.clip(wind, 0.0, 1.0),
        solar_cf=np.clip(solar, 0.0, 1.0),
        step_minutes=step,
    )


def _write_fleet(path: Path, unit_ids: list[str]) -> None:
    """A subset of the built-in study13 fleet as a portfolio CSV."""
    from tauc.ingestion import PORTFOLIO_HEADER, build_portfolio

    units = {u.unit_id: u for u in build_portfolio("study13")}
    with open(path, "w", newline="") as handle:
        writer = csv.writer(handle, lineterminator="\n")
        writer.writerow(PORTFOLIO_HEADER)
        for uid in unit_ids:
            u = units[uid]
            writer.writerow(
                [u.unit_id, u.flex_class, repr(u.pmin), repr(u.pmax), repr(u.marginal_cost),
                 repr(u.startup_cost), "" if u.ramp_up is None else repr(u.ramp_up),
                 "" if u.ramp_down is None else repr(u.ramp_down), repr(u.min_up), repr(u.min_down)]
            )


def generate(workload: str, seed: int, directory: Path) -> Fixture:
    """Write the workload's inputs for one seed into directory."""
    from tauc.ingestion import write_timeseries

    recipe = RECIPES[workload]
    fixture = Fixture(workload, seed, directory, recipe)
    directory.mkdir(parents=True, exist_ok=True)
    if "fleet" in recipe:
        _write_fleet(directory / "fleet.csv", recipe["fleet"])
    rng = np.random.default_rng(seed)
    for i in range(fixture.inputs):
        config = fixture.config(i)
        config.parent.mkdir(exist_ok=True)
        write_timeseries(config.parent / "trace.csv", _series(recipe, rng), START)
        scenario = {
            "data_path": "trace.csv",
            "portfolio": "../fleet.csv" if "fleet" in recipe else recipe["portfolio"],
            "step_minutes": recipe["step_minutes"],
            "alpha_wind": recipe["alpha_wind"],
            "alpha_solar": recipe["alpha_solar"],
            "shed_cost": recipe["shed_cost"],
            "lookahead_hours": recipe["lookahead_hours"],
        }
        config.write_text(json.dumps(scenario, indent=2, sort_keys=True) + "\n")
    record = {
        "workload": workload,
        "seed": seed,
        "recipe": recipe,
        "recipe_digest": recipe_digest(workload),
        "files": {
            str(p.relative_to(directory)): hashlib.sha256(p.read_bytes()).hexdigest()
            for p in sorted(directory.rglob("*"))
            if p.is_file() and p.name != "fixture.json"
        },
    }
    (directory / "fixture.json").write_text(json.dumps(record, indent=2, sort_keys=True) + "\n")
    return fixture
