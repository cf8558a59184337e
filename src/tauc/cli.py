"""Command-line front end: clustering, planning, comparison and the example.

Exit codes: 0 on success, 1 when a golden assertion fails, 2 on input errors
(missing files, malformed configs, bad arguments).
"""
from __future__ import annotations

import argparse
import csv
import dataclasses
import sys
from concurrent.futures import ThreadPoolExecutor
from pathlib import Path

import numpy as np

from .aggregation import FEATURE_COLUMNS, cluster_adjacent, member_means, normalize_features
from .ingestion import (
    LoadedTrace,
    ScenarioConfig,
    build_portfolio,
    compute_installed_capacity,
    illustrative_case,
    load_scenario,
    load_timeseries,
)
from .model import PowerSystem, Schedule
from .simulation import (
    MODE_CH,
    MODE_TA,
    MODES,
    TECHNOLOGIES,
    ComparisonReport,
    DayAheadPlan,
    cost_delta,
    day_windows,
    run_day_ahead,
    run_one_mode,
    run_rolling_horizon,
)

GOLDEN_COST_CH = 18500.0
GOLDEN_COST_TA = 11500.0
GOLDEN_DELTA = 37.84

CSV_COLUMNS = (
    ("date", "c_ch", "c_ta", "delta_pct")
    + tuple(f"share_{tech}_{mode.lower()}" for mode in MODES for tech in TECHNOLOGIES)
    + ("da_time_ch", "rt_time_ch", "da_time_ta", "rt_time_ta")
    + ("shed_mwh_ch", "spill_mwh_ch", "shed_mwh_ta", "spill_mwh_ta")
)

SUMMARY_COLUMNS = (
    "days",
    "c_ch_total",
    "c_ta_total",
    "delta_pct",
    "n_ta_lt_ch",
    "n_ta_eq_ch",
    "n_ta_gt_ch",
    "n_skipped",
)


def _scaled_trace(config: ScenarioConfig) -> LoadedTrace:
    trace = load_timeseries(config.data_path, config.step_minutes)
    series = trace.series
    scaled = dataclasses.replace(series, demand=series.demand * config.demand_scale)
    return dataclasses.replace(trace, series=scaled)


def _system_for(config: ScenarioConfig, trace: LoadedTrace) -> PowerSystem:
    """Portfolio plus renewable fleets sized over the whole trace."""
    series = trace.series
    wind_cap = compute_installed_capacity(config.alpha_wind, series.demand, series.wind_cf)
    solar_cap = compute_installed_capacity(config.alpha_solar, series.demand, series.solar_cf)
    return PowerSystem(
        units=build_portfolio(config.portfolio),
        wind_capacity=wind_cap,
        solar_capacity=solar_cap,
        load_shed_cost=config.resolved_shed_cost(),
    )


def _out_dir(args) -> Path:
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    return out


def _effective(config: ScenarioConfig, args) -> ScenarioConfig:
    """Apply command-line overrides on top of the config file."""
    updates = {}
    if args.gap is not None:
        updates["gap"] = args.gap
    if args.lookahead_hours is not None:
        updates["lookahead_hours"] = args.lookahead_hours
    return dataclasses.replace(config, **updates) if updates else config


def _write_csv(path: Path, header, rows) -> None:
    """Write a header and rows as CSV with newline line endings."""
    with open(path, "w", newline="") as handle:
        writer = csv.writer(handle, lineterminator="\n")
        writer.writerow(header)
        writer.writerows(rows)


def cmd_cluster(args) -> int:
    config = load_scenario(args.config)
    trace = _scaled_trace(config)
    system = _system_for(config, trace)
    series = trace.series
    feats = normalize_features(
        series, config.features, system.wind_capacity, system.solar_capacity
    )
    target = args.target if args.target is not None else round(series.horizon_hours)
    grid = cluster_adjacent(feats, target, series.step_minutes)
    out = _out_dir(args)
    _write_csv(out / "durations.csv", ["period", "start_sample", "stop_sample", "duration_h"],
               ([k, a, b, f"{dur:g}"]
                for k, ((a, b), dur) in enumerate(zip(grid.cluster_bounds, grid.durations), start=1)))
    centroids = member_means(grid, feats)[0]
    _write_csv(out / "centroids.csv", ("period",) + FEATURE_COLUMNS[config.features],
               ([k] + [f"{v:.6f}" for v in row] for k, row in enumerate(centroids.tolist(), start=1)))
    print(f"wrote {len(grid.cluster_bounds)} periods to {out / 'durations.csv'}")
    return 0


def _write_plan(path: Path, system: PowerSystem, plan: DayAheadPlan) -> None:
    sched = plan.schedule
    _write_csv(path, ["period", "duration_h", "unit_id", "commit", "dispatch_mw"],
               ([k, f"{dur:g}", unit.unit_id, int(sched.commitment[i, k - 1]), f"{sched.dispatch[i, k - 1]:.3f}"]
                for k, dur in enumerate(sched.duration_h, start=1)
                for i, unit in enumerate(system.units)))


def cmd_plan(args) -> int:
    config = _effective(load_scenario(args.config), args)
    trace = _scaled_trace(config)
    system = _system_for(config, trace)
    first = next(day_windows(trace, config.lookahead_hours, config.start_date, config.end_date), None)
    if first is None:
        raise ValueError("trace does not contain one complete midnight-to-midnight day in the date range")
    day, window = first
    out = _out_dir(args)
    modes = {"ch": [MODE_CH], "ta": [MODE_TA], "both": [MODE_CH, MODE_TA]}[args.mode]
    for mode in modes:
        plan = run_day_ahead(
            system, window, mode, config.features, config.solver_config(), label=day.isoformat()
        )
        path = out / f"plan_{mode.lower()}.csv"
        _write_plan(path, system, plan)
        print(f"{mode}: {len(plan.grid.durations)} periods, objective {plan.objective:.2f}, {path}")
    return 0


def _summary_counts(reports: list[ComparisonReport]) -> dict[str, float]:
    solved = [r for r in reports if not r.warning]
    lt = eq = gt = 0
    for r in solved:
        scale = max(1.0, abs(r.c_ch))
        if abs(r.c_ta - r.c_ch) <= 1e-6 * scale:
            eq += 1
        elif r.c_ta < r.c_ch:
            lt += 1
        else:
            gt += 1
    c_ch_total = sum(r.c_ch for r in solved)
    c_ta_total = sum(r.c_ta for r in solved)
    delta = cost_delta(c_ch_total, c_ta_total) if c_ch_total > 0 else 0.0
    return {
        "days": len(solved),
        "c_ch_total": c_ch_total,
        "c_ta_total": c_ta_total,
        "delta_pct": delta,
        "n_ta_lt_ch": lt,
        "n_ta_eq_ch": eq,
        "n_ta_gt_ch": gt,
        "n_skipped": len(reports) - len(solved),
    }


_SUMMARY_FORMATS = {"c_ch_total": ".2f", "c_ta_total": ".2f", "delta_pct": ".4f"}


def _summary_row(summary: dict[str, float]) -> list[str]:
    """One row under SUMMARY_COLUMNS, formatted as summary.csv and sweep_summary.csv carry it."""
    return [format(summary[name], _SUMMARY_FORMATS.get(name, "")) for name in SUMMARY_COLUMNS]


def _comparison_rows(reports: list[ComparisonReport]):
    """Rows under CSV_COLUMNS, one per solved day, as comparison.csv carries
    them; warning records carry no numbers and are left out."""
    for rep in reports:
        if rep.warning:
            continue
        days = (rep.ch, rep.ta)
        row = [rep.date, f"{rep.c_ch:.2f}", f"{rep.c_ta:.2f}", f"{rep.delta_pct:.4f}"]
        row.extend(f"{day.shares[tech]:.4f}" for day in days for tech in TECHNOLOGIES)
        row.extend(f"{t:.3f}" for day in days for t in (day.da_time, day.rt_time))
        row.extend(f"{e:.3f}" for day in days for e in (day.shed_mwh, day.spill_mwh))
        yield row


def _run_comparison(config: ScenarioConfig) -> tuple[list[ComparisonReport], dict[str, float]]:
    trace = _scaled_trace(config)
    system = _system_for(config, trace)
    reports = run_rolling_horizon(
        system,
        trace,
        lookahead_hours=config.lookahead_hours,
        features=config.features,
        config=config.solver_config(),
        start_date=config.start_date,
        end_date=config.end_date,
    )
    return reports, _summary_counts(reports)


def cmd_compare(args) -> int:
    config = _effective(load_scenario(args.config), args)
    reports, summary = _run_comparison(config)
    for rep in reports:
        if rep.warning:
            print(f"{rep.date}: {rep.warning}", file=sys.stderr)
    if summary["days"] == 0:
        print("error: no day could be compared", file=sys.stderr)
        return 2
    out = _out_dir(args)
    _write_csv(out / "comparison.csv", CSV_COLUMNS, _comparison_rows(reports))
    _write_csv(out / "summary.csv", SUMMARY_COLUMNS, [_summary_row(summary)])
    print(
        f"{summary['days']} days: delta {summary['delta_pct']:.2f}%, "
        f"TA<CH {summary['n_ta_lt_ch']}, TA=CH {summary['n_ta_eq_ch']}, "
        f"TA>CH {summary['n_ta_gt_ch']}"
    )
    return 0


def cmd_sweep(args) -> int:
    names = [Path(path).stem for path in args.configs]
    repeated = sorted({name for name in names if names.count(name) > 1})
    if repeated:
        raise ValueError(f"scenario names (config file stems) repeat: {', '.join(repeated)}")
    configs = [_effective(load_scenario(path), args) for path in args.configs]
    with ThreadPoolExecutor(max_workers=args.workers) as pool:
        futures = [pool.submit(_run_comparison, cfg) for cfg in configs]
        results = [(name, *future.result()) for name, future in zip(names, futures)]
    out = _out_dir(args)
    _write_csv(out / "sweep_summary.csv", ("scenario",) + SUMMARY_COLUMNS,
               ([name] + _summary_row(summary) for name, _, summary in results))
    for name, reports, _ in results:
        _write_csv(out / f"comparison_{name}.csv", CSV_COLUMNS, _comparison_rows(reports))
    print(f"swept {len(results)} scenarios into {out / 'sweep_summary.csv'}")
    return 0


def _schedule_block(title: str, system: PowerSystem, schedule: Schedule) -> list[str]:
    """A schedule as a table, one row per period: its duration, thermal
    output by flexibility class, solar, shed and spilled wind plus solar,
    all in MW."""
    flex = np.array([unit.flex_class for unit in system.units])
    base, medium, peak = (schedule.dispatch[flex == c].sum(axis=0) for c in ("base", "medium", "peak"))
    spill = schedule.solar_spill + schedule.wind_spill
    lines = [title, "  period  dur_h   base_mw  medium_mw  peak_mw  solar_mw  shed_mw  spill_mw"]
    for t, dur in enumerate(schedule.duration_h):
        lines.append(
            f"  {t + 1:>6}  {dur:5.1f}  {base[t]:8.1f}  {medium[t]:9.1f}  {peak[t]:7.1f}"
            f"  {schedule.p_solar[t]:8.1f}  {schedule.shed[t]:7.1f}  {spill[t]:8.1f}"
        )
    return lines


def cmd_reproduce_example(args) -> int:
    system, series = illustrative_case()
    lines: list[str] = ["Teaching example: 6 x 30-minute periods", ""]
    results = {}
    for mode, name in ((MODE_CH, "Hourly"), (MODE_TA, "Adaptive")):
        plan, rt = run_one_mode(system, series, mode, label="example")
        results[mode] = rt
        lines.extend(_schedule_block(f"{name} day-ahead plan:", system, plan.schedule))
        lines.append("")
        lines.extend(_schedule_block(f"{name} real-time operation:", system, rt.schedule))
        lines.append("")
    c_ch = results[MODE_CH].cost
    c_ta = results[MODE_TA].cost
    delta = cost_delta(c_ch, c_ta)
    lines.append(
        f"Costs: hourly {c_ch:.2f} EUR, adaptive {c_ta:.2f} EUR, saving {delta:.2f}%"
    )
    print("\n".join(lines))
    failures = []
    if abs(c_ch - GOLDEN_COST_CH) > 1e-6 * GOLDEN_COST_CH:
        failures.append(f"hourly cost {c_ch:.6f} differs from expected {GOLDEN_COST_CH}")
    if abs(c_ta - GOLDEN_COST_TA) > 1e-6 * GOLDEN_COST_TA:
        failures.append(f"adaptive cost {c_ta:.6f} differs from expected {GOLDEN_COST_TA}")
    if round(delta, 2) != GOLDEN_DELTA:
        failures.append(f"saving {delta:.4f}% differs from expected {GOLDEN_DELTA}%")
    for failure in failures:
        print(f"assertion failed: {failure}", file=sys.stderr)
    return 1 if failures else 0


def _positive_int(text: str) -> int:
    value = int(text)
    if value < 1:
        raise argparse.ArgumentTypeError(f"must be at least 1, got {value}")
    return value


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="tauc",
        description="Compare hourly and time-adaptive unit commitment schedules.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p):
        p.add_argument("--config", required=True, help="scenario JSON file")
        p.add_argument("--out", default=".", help="output directory (default: current)")

    def overrides(p):
        """Scenario overrides, for the subcommands that solve; cluster reads neither."""
        p.add_argument("--gap", type=float, default=None, help="override MIP gap")
        p.add_argument(
            "--lookahead-hours", type=float, default=None, help="override look-ahead window"
        )

    p_cluster = sub.add_parser("cluster", help="reduce a trace to a coarse grid")
    common(p_cluster)
    p_cluster.add_argument(
        "--target", type=int, default=None, help="number of periods (default: one per hour)"
    )
    p_cluster.set_defaults(func=cmd_cluster)

    p_plan = sub.add_parser("plan", help="day-ahead plan for the first complete day")
    common(p_plan)
    overrides(p_plan)
    p_plan.add_argument("--mode", choices=("ch", "ta", "both"), default="both")
    p_plan.set_defaults(func=cmd_plan)

    p_compare = sub.add_parser("compare", help="rolling day-by-day comparison")
    common(p_compare)
    overrides(p_compare)
    p_compare.set_defaults(func=cmd_compare)

    p_sweep = sub.add_parser("sweep", help="compare several scenarios")
    p_sweep.add_argument("configs", nargs="+", help="scenario JSON files")
    p_sweep.add_argument("--out", default=".", help="output directory")
    overrides(p_sweep)
    p_sweep.add_argument(
        "--workers", type=_positive_int, default=1, help="parallel scenario workers (>= 1)"
    )
    p_sweep.set_defaults(func=cmd_sweep)

    p_repro = sub.add_parser(
        "reproduce-example", help="print and check the built-in teaching example"
    )
    p_repro.set_defaults(func=cmd_reproduce_example)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (ValueError, RuntimeError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


def entrypoint() -> None:
    sys.exit(main())


if __name__ == "__main__":
    entrypoint()
