"""The set-up every tauc command pays, run in a fresh interpreter.

Imports tauc and its command line, loads the scenario and the trace, and
builds the fleet and the renewable capacities. run.py times this script from
process start to exit. Usage: python3 perfbench/setup_probe.py scenario.json
"""
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

import tauc.cli  # noqa: E402,F401  (every command imports the command line)
from tauc import (  # noqa: E402
    PowerSystem,
    build_portfolio,
    compute_installed_capacity,
    load_scenario,
    load_timeseries,
)

if __name__ == "__main__":
    cfg = load_scenario(sys.argv[1])
    series = load_timeseries(cfg.data_path, cfg.step_minutes).series
    PowerSystem(
        units=build_portfolio(cfg.portfolio),
        wind_capacity=compute_installed_capacity(cfg.alpha_wind, series.demand, series.wind_cf),
        solar_capacity=compute_installed_capacity(cfg.alpha_solar, series.demand, series.solar_cf),
        load_shed_cost=cfg.resolved_shed_cost(),
    )
