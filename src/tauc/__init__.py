"""Time-adaptive unit commitment toolkit.

Clusters a high-resolution net-demand trace into a small number of
variable-duration periods, builds a duration-aware unit commitment MILP on
that grid, and simulates the day-ahead/real-time loop to compare adaptive
planning against a conventional hourly plan.

The submodules are usable on their own; this package root re-exports the
names most workflows need. The command line lives in ``tauc.cli`` and is
installed as the ``tauc`` executable.
"""
from .aggregation import (
    HiResSeries,
    ReducedSeries,
    TimeGrid,
    cluster_adjacent,
    hourly_grid,
    normalize_features,
    reduce_series,
    singleton_grid,
)
from .ingestion import (
    LoadedTrace,
    ScenarioConfig,
    build_portfolio,
    compute_installed_capacity,
    illustrative_case,
    load_scenario,
    load_timeseries,
    write_timeseries,
)
from .model import (
    Fixings,
    PowerSystem,
    Schedule,
    ThermalUnit,
    UcModel,
    build_uc_model,
    extract_schedule,
    operating_cost,
)
from .simulation import (
    ComparisonReport,
    DayAheadPlan,
    RealTimeResult,
    compare_day,
    fix_from_plan,
    generation_shares,
    run_chain,
    run_day_ahead,
    run_real_time,
    run_rolling_horizon,
    shed_and_spill,
)
from .solver import BackendConfig, MipSolution, solve

__version__ = "0.1.0"

__all__ = [
    "BackendConfig",
    "ComparisonReport",
    "DayAheadPlan",
    "Fixings",
    "HiResSeries",
    "LoadedTrace",
    "MipSolution",
    "PowerSystem",
    "RealTimeResult",
    "ReducedSeries",
    "ScenarioConfig",
    "Schedule",
    "ThermalUnit",
    "TimeGrid",
    "UcModel",
    "build_portfolio",
    "build_uc_model",
    "cluster_adjacent",
    "compare_day",
    "compute_installed_capacity",
    "extract_schedule",
    "fix_from_plan",
    "generation_shares",
    "hourly_grid",
    "illustrative_case",
    "load_scenario",
    "load_timeseries",
    "normalize_features",
    "operating_cost",
    "reduce_series",
    "run_chain",
    "run_day_ahead",
    "run_real_time",
    "run_rolling_horizon",
    "shed_and_spill",
    "singleton_grid",
    "solve",
    "write_timeseries",
]
