"""Loading of system data: traces, generator portfolios and scenario configs.

A trace is a CSV of timestamped demand and renewable capacity factors on a
uniform step. Portfolios are either one of the built-in generator sets or a
user CSV. Scenario configs are JSON documents that bundle a trace, a
portfolio and run settings; paths inside a config resolve relative to the
config file so a scenario directory can be moved as a whole.
"""
from __future__ import annotations

import csv
import dataclasses
import json
import math
import numbers
from dataclasses import dataclass
from datetime import date, datetime, timedelta, timezone
from pathlib import Path

import numpy as np

from .aggregation import ALLOWED_STEPS, FEATURE_SELECTORS, HiResSeries
from .model import PowerSystem, ThermalUnit
from .solver import BackendConfig

PORTFOLIO_IDS = ("example6", "study13", "spanish70")

TRACE_HEADER = ("timestamp", "demand_mw", "wind_cf", "solar_cf")


@dataclass(frozen=True)
class LoadedTrace:
    """A high-resolution series together with the UTC instant it starts at.

    start is the only record of where the trace sits in time: a rolling run
    finds midnights and names calendar days from it.
    """

    series: HiResSeries
    start: datetime


def _parse_timestamp(raw: str, path: Path, line_no: int) -> datetime:
    text = raw.strip()
    if text.endswith(("Z", "z")):
        text = text[:-1] + "+00:00"
    try:
        stamp = datetime.fromisoformat(text)
    except ValueError:
        raise ValueError(f"{path} line {line_no}: cannot parse timestamp {raw!r}") from None
    if stamp.tzinfo is None:
        stamp = stamp.replace(tzinfo=timezone.utc)
    return stamp.astimezone(timezone.utc)


def _format_timestamp(stamp: datetime) -> str:
    """A UTC stamp as ISO 8601 with a Z, with its microseconds when it has any.

    isoformat pads the year to four digits; strftime's %Y does not on glibc,
    which would write year 999 as 999-01-01.
    """
    return stamp.replace(tzinfo=None).isoformat() + "Z"


def _parse_float(raw: str, column: str, path: Path, line_no: int) -> float:
    try:
        value = float(raw)
    except ValueError:
        raise ValueError(f"{path} line {line_no}: {column} value {raw!r} is not a number") from None
    if not math.isfinite(value):
        raise ValueError(f"{path} line {line_no}: {column} value {raw!r} is not finite")
    return value


def _csv_rows(path: Path, header: tuple[str, ...]):
    """Yield (line number, row) for each non-blank data row of a CSV whose
    first line must be header and whose rows must have one field per column."""
    with open(path, newline="") as handle:
        reader = csv.reader(handle)
        try:
            first = next(reader)
        except StopIteration:
            raise ValueError(f"{path}: file is empty") from None
        if tuple(cell.strip() for cell in first) != header:
            raise ValueError(f"{path} line 1: header must be {','.join(header)}, got {','.join(first)}")
        for line_no, row in enumerate(reader, start=2):
            if not row or (len(row) == 1 and not row[0].strip()):
                continue
            if len(row) != len(header):
                raise ValueError(f"{path} line {line_no}: expected {len(header)} fields, got {len(row)}")
            yield line_no, row


def load_timeseries(path: str | Path, step_minutes: int) -> LoadedTrace:
    """Read a trace CSV and validate it against the expected uniform step.

    The header must be exactly timestamp,demand_mw,wind_cf,solar_cf.
    Timestamps are ISO 8601; a trailing Z and naive stamps both mean UTC.
    Errors carry the 1-based line number of the offending row.

    A file in the canonical form that write_timeseries writes is read in one
    numpy pass (_read_canonical); every other file goes through the row loop
    (_read_rows), which is the only code that words an error.
    """
    path = Path(path)
    return _read_canonical(path, step_minutes) or _read_rows(path, step_minutes)


# One canonical row as np.loadtxt reads it. The stamp field holds one byte
# more than a canonical stamp, so a longer stamp fills that byte instead of
# being cut to fit.
_CANONICAL_ROW = np.dtype([("timestamp", "S21")] + [(column, "f8") for column in TRACE_HEADER[1:]])
# the stamp field byte by byte; each 9 stands for any digit
_CANONICAL_STAMP = b"9999-99-99T99:99:99Z\0"


def _read_canonical(path: Path, step_minutes: int) -> LoadedTrace | None:
    """The trace in path, read in one np.loadtxt pass, or None unless the
    file is canonical and passes every check of the row loop.

    Canonical is the exact header, then rows stamped YYYY-MM-DDTHH:MM:SSZ
    exactly one step apart, each with four fields of which the last three
    are numbers. Like the row loop, loadtxt skips blank lines. loadtxt warns
    only when it reads no row, which a nonblank second line rules out, so
    the process-wide warning filters stay untouched (sweep loads traces on
    worker threads).
    """
    try:
        with open(path) as handle:
            if handle.readline() != ",".join(TRACE_HEADER) + "\n":
                return None
            body = handle.tell()
            if not handle.readline().strip():
                return None
            handle.seek(body)
            rows = np.loadtxt(handle, dtype=_CANONICAL_ROW, delimiter=",", comments=None, ndmin=1)
        stamps = rows.view(np.uint8).reshape(len(rows), -1)
        for i, byte in enumerate(_CANONICAL_STAMP):
            column = stamps[:, i]
            fits = (column >= ord("0")) & (column <= ord("9")) if byte == ord("9") else column == byte
            if not fits.all():
                return None
        stamps[:, _CANONICAL_STAMP.index(b"Z")] = 0  # numpy reads a zoned stamp only with a warning
        times = rows["timestamp"].astype("datetime64[s]")
        if not (np.diff(times) == np.timedelta64(step_minutes, "m")).all():
            return None
        # datetime refuses year 0, which numpy reads
        start = datetime.fromisoformat(rows["timestamp"][0].decode()).replace(tzinfo=timezone.utc)
        # HiResSeries refuses exactly the values the row loop refuses
        series = HiResSeries(*(np.array(rows[column]) for column in TRACE_HEADER[1:]), step_minutes)
    except ValueError:
        return None
    return LoadedTrace(series=series, start=start)


def _read_rows(path: Path, step_minutes: int) -> LoadedTrace:
    """Read a trace row by row: any form load_timeseries accepts, and the
    wording of every error it raises."""
    step = timedelta(minutes=step_minutes)
    stamps: list[datetime] = []
    demand: list[float] = []
    wind: list[float] = []
    solar: list[float] = []
    for line_no, row in _csv_rows(path, TRACE_HEADER):
        stamp = _parse_timestamp(row[0], path, line_no)
        if stamps and stamp - stamps[-1] != step:
            raise ValueError(
                f"{path} line {line_no}: expected timestamp "
                f"{_format_timestamp(stamps[-1] + step)}, got {_format_timestamp(stamp)}"
            )
        stamps.append(stamp)
        demand.append(_parse_float(row[1], "demand_mw", path, line_no))
        wind.append(_parse_float(row[2], "wind_cf", path, line_no))
        solar.append(_parse_float(row[3], "solar_cf", path, line_no))
        if demand[-1] < 0:
            raise ValueError(f"{path} line {line_no}: demand_mw must be nonnegative")
        for column, value in (("wind_cf", wind[-1]), ("solar_cf", solar[-1])):
            if not 0.0 <= value <= 1.0:
                raise ValueError(f"{path} line {line_no}: {column} must lie in [0, 1]")
    if not stamps:
        raise ValueError(f"{path}: no data rows")
    series = HiResSeries(
        demand=np.array(demand),
        wind_cf=np.array(wind),
        solar_cf=np.array(solar),
        step_minutes=step_minutes,
    )
    return LoadedTrace(series=series, start=stamps[0])


def write_timeseries(path: str | Path, series: HiResSeries, start: datetime) -> None:
    """Write a trace CSV that load_timeseries reads back bit-for-bit.

    Floats are written with repr so the round trip is exact.
    """
    if start.tzinfo is None:
        start = start.replace(tzinfo=timezone.utc)
    start = start.astimezone(timezone.utc)
    step = timedelta(minutes=series.step_minutes)
    with open(path, "w", newline="") as handle:
        writer = csv.writer(handle)
        writer.writerow(TRACE_HEADER)
        for i in range(series.n_points):
            stamp = start + i * step
            writer.writerow(
                [
                    _format_timestamp(stamp),
                    repr(float(series.demand[i])),
                    repr(float(series.wind_cf[i])),
                    repr(float(series.solar_cf[i])),
                ]
            )


def compute_installed_capacity(alpha: float, demand: np.ndarray, cf: np.ndarray) -> float:
    """Size a renewable fleet so its energy is a target share of demand energy.

    Returns the installed capacity P such that sum(cf * P) == alpha *
    sum(demand) over the sizing window. alpha is a fraction of demand energy
    in [0, 1]; alpha == 0 means no fleet at all.
    """
    if not 0.0 <= alpha <= 1.0:
        raise ValueError(f"alpha must lie in [0, 1], got {alpha}")
    if alpha == 0.0:
        return 0.0
    demand = np.asarray(demand, dtype=float)
    cf = np.asarray(cf, dtype=float)
    cf_total = float(cf.sum())
    if cf_total <= 0.0:
        raise ValueError("cannot size a fleet with zero capacity factors everywhere")
    return float(alpha * demand.sum() / cf_total)


def default_shed_cost(portfolio: str) -> float:
    """Value of lost load paired with a built-in portfolio, in currency/MWh."""
    if portfolio == "example6":
        return 100.0
    return 10000.0


PORTFOLIO_HEADER = (
    "unit_id",
    "flex_class",
    "pmin",
    "pmax",
    "marginal_cost",
    "startup_cost",
    "ramp_up",
    "ramp_down",
    "min_up",
    "min_down",
)


def _unit(*values) -> ThermalUnit:
    """A generator from its values in PORTFOLIO_HEADER order, which are
    ThermalUnit fields; trailing values left out take the ThermalUnit
    defaults. The initial state is added: base units start the horizon
    online at minimum, everything else cold, each having held its state
    for 24 h."""
    fields = dict(zip(PORTFOLIO_HEADER, values))
    online = fields["flex_class"] == "base"
    return ThermalUnit(**fields, u0=int(online), p0=fields["pmin"] if online else 0.0)


def _example6() -> tuple[ThermalUnit, ...]:
    base = tuple(_unit(f"b{i}", "base", 200.0, 200.0, 10.0) for i in range(1, 5))
    return (*base, _unit("m1", "medium", 50.0, 100.0, 30.0), _unit("p1", "peak", 0.0, 50.0, 50.0))


# unit_id: (flex_class, pmin, pmax, ramp, min_up/min_down, startup_cost, marginal_cost)
_STUDY13_ROWS = {
    "g1": ("base", 200.0, 400.0, 120.0, 9.0, 1000.0, 20.0),
    "g2": ("base", 200.0, 400.0, 130.0, 8.5, 1000.0, 21.0),
    "g3": ("base", 200.0, 400.0, 140.0, 8.0, 1000.0, 22.0),
    "g4": ("medium", 100.0, 300.0, 105.0, 5.0, 800.0, 50.0),
    "g5": ("medium", 100.0, 300.0, 120.0, 4.7, 800.0, 51.0),
    "g6": ("medium", 100.0, 300.0, 135.0, 4.3, 800.0, 52.0),
    "g7": ("medium", 100.0, 300.0, 150.0, 4.0, 800.0, 53.0),
    "g8": ("peak", 0.0, 250.0, 125.0, 0.0, 500.0, 80.0),
    "g9": ("peak", 0.0, 250.0, 130.0, 0.0, 500.0, 81.0),
    "g10": ("peak", 0.0, 250.0, 135.0, 0.0, 500.0, 82.0),
    "g11": ("peak", 0.0, 250.0, 140.0, 0.0, 500.0, 83.0),
    "g12": ("peak", 0.0, 250.0, 145.0, 0.0, 500.0, 84.0),
    "g13": ("peak", 0.0, 250.0, 150.0, 0.0, 500.0, 85.0),
}


def _study13() -> tuple[ThermalUnit, ...]:
    return tuple(
        _unit(unit_id, flex_class, pmin, pmax, cost, su_cost, ramp, ramp, min_time, min_time)
        for unit_id, (flex_class, pmin, pmax, ramp, min_time, su_cost, cost) in _STUDY13_ROWS.items()
    )


def _spread(lo: float, hi: float, n: int) -> np.ndarray:
    """Evenly spaced values over a published range, rounded to tame the floats."""
    return np.round(np.linspace(lo, hi, n), 6)


def _spanish70() -> tuple[ThermalUnit, ...]:
    units: list[ThermalUnit] = []
    classes = [
        ("base", 8, 500.0, 1000.0, 3000.0, _spread(7.5, 9.0, 8), 2000.0, _spread(20.0, 25.0, 8)),
        ("medium", 12, 400.0, 800.0, 4800.0, _spread(4.0, 5.0, 12), 1000.0, _spread(50.0, 55.0, 12)),
        ("peak", 50, 0.0, 500.0, 4500.0, np.zeros(50), 500.0, _spread(80.0, 90.0, 50)),
    ]
    index = 1
    for flex_class, count, pmin, pmax, ramp, min_times, su_cost, costs in classes:
        for i in range(count):
            min_time = float(min_times[i])
            units.append(
                _unit(f"g{index}", flex_class, pmin, pmax, float(costs[i]), su_cost, ramp, ramp,
                      min_time, min_time)
            )
            index += 1
    return tuple(units)


def _read_portfolio_csv(path: Path) -> tuple[ThermalUnit, ...]:
    """Read generators from a CSV with the PORTFOLIO_HEADER columns.

    Empty ramp cells mean not ramp limited. Initial state follows the same
    rule as the built-in sets: base units online at minimum, the rest cold.
    """
    units: list[ThermalUnit] = []
    for line_no, row in _csv_rows(path, PORTFOLIO_HEADER):
        unit_id = row[0].strip()
        flex_class = row[1].strip()
        numbers = []
        for column, cell in zip(PORTFOLIO_HEADER[2:], row[2:]):
            cell = cell.strip()
            if cell == "" and column in ("ramp_up", "ramp_down"):
                numbers.append(None)
                continue
            numbers.append(_parse_float(cell, column, path, line_no))
        try:
            units.append(_unit(unit_id, flex_class, *numbers))
        except ValueError as exc:
            raise ValueError(f"{path} line {line_no}: {exc}") from None
    if not units:
        raise ValueError(f"{path}: no generator rows")
    return tuple(units)


def build_portfolio(portfolio: str | Path) -> tuple[ThermalUnit, ...]:
    """Materialize a generator set from a built-in id or a CSV path."""
    if portfolio == "example6":
        return _example6()
    if portfolio == "study13":
        return _study13()
    if portfolio == "spanish70":
        return _spanish70()
    path = Path(portfolio)
    if path.suffix.lower() == ".csv":
        if not path.exists():
            raise ValueError(f"portfolio file not found: {path}")
        return _read_portfolio_csv(path)
    raise ValueError(
        f"unknown portfolio {str(portfolio)!r}; expected one of {PORTFOLIO_IDS} or a CSV path"
    )


def illustrative_case() -> tuple[PowerSystem, HiResSeries]:
    """The six-period teaching example used by the reproduce-example command.

    Three hours in 30-minute steps: flat 500 MW demand with full solar for
    two hours, then solar fades while demand climbs to 850 MW. Solar fleet
    is 300 MW, no wind.
    """
    series = HiResSeries(
        demand=np.array([500.0, 500.0, 500.0, 500.0, 650.0, 850.0]),
        wind_cf=np.zeros(6),
        solar_cf=np.array([1.0, 1.0, 1.0, 1.0, 2.0 / 3.0, 0.0]),
        step_minutes=30,
    )
    system = PowerSystem(
        units=_example6(),
        wind_capacity=0.0,
        solar_capacity=300.0,
        load_shed_cost=default_shed_cost("example6"),
    )
    return system, series


# Value types accepted for each ScenarioConfig annotation: a number field
# takes integers too but not NaN or an infinity (which json.loads accepts),
# booleans count as neither, and a "| None" field also takes None (null in JSON).
_CONFIG_TYPES = {
    "str": (str, "a string"),
    "int": (numbers.Integral, "an integer"),
    "float": (numbers.Real, "a finite number"),
}


def _check_config_type(key: str, annotation: str, value) -> None:
    kind, _, optional = annotation.partition(" | ")
    if value is None and optional:
        return
    types, expected = _CONFIG_TYPES[kind]
    if isinstance(value, bool) or not isinstance(value, types) or (kind == "float" and not math.isfinite(value)):
        expected += " or null" if optional else ""
        raise ValueError(f"{key} must be {expected}, got {json.dumps(value, default=repr)}")


@dataclass(frozen=True)
class ScenarioConfig:
    """Run settings for a rolling comparison, loadable from JSON.

    data_path points at a trace CSV; portfolio is a built-in id or a CSV
    path. Relative paths in a config file resolve against the file's own
    directory. start_date / end_date (ISO dates, inclusive) clip the trace;
    None means use everything. shed_cost None means the portfolio default.
    """

    data_path: str
    step_minutes: int = 10
    demand_scale: float = 1.0
    alpha_wind: float = 0.2
    alpha_solar: float = 0.2
    portfolio: str = "study13"
    features: str = "net_demand_only"
    lookahead_hours: float = 8.0
    start_date: str | None = None
    end_date: str | None = None
    shed_cost: float | None = None
    gap: float = 0.0
    time_limit: float | None = None

    def __post_init__(self) -> None:
        for f in dataclasses.fields(self):
            _check_config_type(f.name, f.type, getattr(self, f.name))
        if self.step_minutes not in ALLOWED_STEPS:
            raise ValueError(
                f"step_minutes must be one of {ALLOWED_STEPS}, got {self.step_minutes}"
            )
        if not self.demand_scale > 0:
            raise ValueError(f"demand_scale must be positive, got {self.demand_scale}")
        for name in ("alpha_wind", "alpha_solar"):
            value = getattr(self, name)
            if not 0.0 <= value <= 1.0:
                raise ValueError(f"{name} must lie in [0, 1], got {value}")
        if self.features not in FEATURE_SELECTORS:
            raise ValueError(
                f"features must be one of {FEATURE_SELECTORS}, got {self.features!r}"
            )
        if self.lookahead_hours < 0 or self.lookahead_hours % 1:
            raise ValueError(
                f"lookahead_hours must be a nonnegative whole number of hours, got {self.lookahead_hours}"
            )
        self.solver_config()  # checks gap and time_limit
        if self.shed_cost is not None and self.shed_cost <= 0:
            raise ValueError("shed_cost must be positive or None")
        if not self.portfolio:
            raise ValueError("portfolio must be a built-in id or a CSV path")
        bounds = []
        for name in ("start_date", "end_date"):
            value = getattr(self, name)
            if value is None:
                bounds.append(None)
                continue
            try:
                bounds.append(date.fromisoformat(value))
            except ValueError:
                raise ValueError(f"{name} must be an ISO date, got {value!r}") from None
        if bounds[0] is not None and bounds[1] is not None and bounds[0] > bounds[1]:
            raise ValueError("start_date is after end_date")

    def solver_config(self) -> BackendConfig:
        return BackendConfig(gap=self.gap, time_limit=self.time_limit)

    def resolved_shed_cost(self) -> float:
        if self.shed_cost is not None:
            return self.shed_cost
        return default_shed_cost(self.portfolio)


def load_scenario(path: str | Path) -> ScenarioConfig:
    """Read a scenario config from JSON, resolving paths against its directory."""
    path = Path(path)
    try:
        data = json.loads(path.read_text())
    except json.JSONDecodeError as exc:
        raise ValueError(f"{path}: invalid JSON ({exc})") from None
    if not isinstance(data, dict):
        raise ValueError(f"{path}: config must be a JSON object")
    known = {f.name for f in dataclasses.fields(ScenarioConfig)}
    unknown = sorted(set(data) - known)
    if unknown:
        raise ValueError(f"{path}: unknown config keys: {', '.join(unknown)}")
    if "data_path" not in data:
        raise ValueError(f"{path}: config is missing data_path")
    try:
        config = ScenarioConfig(**data)
        base = path.parent
        resolved = {"data_path": str((base / config.data_path).resolve())}
        if config.portfolio not in PORTFOLIO_IDS:
            resolved["portfolio"] = str((base / config.portfolio).resolve())
        return dataclasses.replace(config, **resolved)
    except ValueError as exc:
        raise ValueError(f"{path}: {exc}") from None
