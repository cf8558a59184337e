"""Shared fixtures and independent oracle builders used across test modules."""
from __future__ import annotations

import dataclasses
import json
import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
from hypothesis import strategies as st

from tauc.aggregation import HiResSeries, ReducedSeries
from tauc.ingestion import ScenarioConfig, build_portfolio, compute_installed_capacity
from tauc.model import Fixings, PowerSystem, ThermalUnit

TESTS = Path(__file__).resolve().parent


def run_in_fresh_interpreter(code: str, *options: str) -> subprocess.CompletedProcess:
    """Run code in a new Python process that imports tauc from src/; options
    (such as "-W", "default") go to the interpreter."""
    env = dict(os.environ, PYTHONPATH=str(TESTS.parent / "src"))
    return subprocess.run([sys.executable, *options, "-c", code], env=env, capture_output=True, text=True,
                          timeout=300)


def scenario_to_json(config: ScenarioConfig) -> str:
    """Serialize a config to JSON with stable key order."""
    return json.dumps(dataclasses.asdict(config), indent=2, sort_keys=True) + "\n"


def unit(uid: str, flex: str, pmin: float, pmax: float, cost: float, **kw) -> ThermalUnit:
    return ThermalUnit(
        unit_id=uid, flex_class=flex, pmin=pmin, pmax=pmax, marginal_cost=cost, **kw
    )


def periods_from(durations, demand, wind_cf=None, solar_cf=None) -> ReducedSeries:
    n = len(durations)
    wind_cf = wind_cf if wind_cf is not None else [0.0] * n
    solar_cf = solar_cf if solar_cf is not None else [0.0] * n
    return ReducedSeries(*(np.array(v, dtype=float) for v in (durations, demand, wind_cf, solar_cf)))


def fixings_from(system: PowerSystem, n_periods: int, named: dict[str, float]) -> Fixings:
    """Fixings from name-keyed values ("u_<unit>_<t>", "pg_<unit>_<t>")."""
    arrays = {kind: np.full((len(system.units), n_periods), np.nan) for kind in ("u", "pg")}
    for g, unit_ in enumerate(system.units):
        for t in range(1, n_periods + 1):
            for kind, values in arrays.items():
                values[g, t - 1] = named.get(f"{kind}_{unit_.unit_id}_{t}", np.nan)
    return Fixings(commitment=arrays["u"], dispatch=arrays["pg"])


def fixing_names(system: PowerSystem, fixings: Fixings | None) -> dict[str, float]:
    """The name-keyed form of fixings that the reference builder takes, unit by
    unit and period by period (u before pg); NaN entries are left out."""
    named: dict[str, float] = {}
    if fixings is None:
        return named
    for g, unit_ in enumerate(system.units):
        for t, (on, p) in enumerate(zip(fixings.commitment[g], fixings.dispatch[g]), start=1):
            if not math.isnan(on):
                named[f"u_{unit_.unit_id}_{t}"] = float(on)
            if not math.isnan(p):
                named[f"pg_{unit_.unit_id}_{t}"] = float(p)
    return named


def two_unit_fixture() -> tuple[PowerSystem, ReducedSeries]:
    """2 units x 4 hourly periods with ramps and minimum times on one unit."""
    a = unit(
        "a1", "base", 100.0, 250.0, 20.0,
        startup_cost=500.0, ramp_up=80.0, ramp_down=80.0,
        min_up=2.5, min_down=1.5, u0=1, hours0=1.0, p0=150.0,
    )
    b = unit("b1", "peak", 0.0, 120.0, 55.0, ramp_up=200.0, ramp_down=200.0)
    system = PowerSystem(units=(a, b), wind_capacity=0.0, solar_capacity=200.0, load_shed_cost=1000.0)
    periods = periods_from(
        [1.0, 1.0, 1.0, 1.0],
        [300.0, 420.0, 150.0, 380.0],
        solar_cf=[0.5, 0.25, 0.0, 0.0],
    )
    return system, periods


def rows_as_maps(model) -> dict[str, tuple[tuple[tuple[str, float], ...], str, float]]:
    return {
        r.label: (tuple(sorted(r.coeffs.items())), r.sense, r.rhs) for r in model.constraints
    }


def conventional_hourly_model(system: PowerSystem, periods):
    """Conventional hourly unit commitment, coded directly from the uniform
    formulation: unit durations, per-hour ramp clamps, integer-hour minimum
    times via ceilings written as start-up rows (Rajan and Takriti), and
    shed load as a column priced at the shed cost
    (pg + pw + ps + shed = demand). Independent of the production builder;
    returns (rows map, objective dict) in the production label convention.
    """
    nt = len(periods)
    assert np.all(periods.duration_h == 1.0), "hourly oracle needs 1 h periods"
    tol = 1e-9
    rows: dict[str, tuple[dict, str, float]] = {}

    def put(label, coeffs, sense, rhs):
        coeffs = {k: v for k, v in coeffs.items() if v != 0.0}
        assert label not in rows
        rows[label] = (coeffs, sense, rhs)

    for t, demand in enumerate(periods.demand_mw.tolist(), start=1):
        coeffs = {f"pg_{u.unit_id}_{t}": 1.0 for u in system.units}
        coeffs[f"pw_{t}"] = 1.0
        coeffs[f"ps_{t}"] = 1.0
        coeffs[f"shed_{t}"] = 1.0
        put(f"bal_{t}", coeffs, "=", demand)

    for u in system.units:
        g = u.unit_id
        ru = u.pmax if u.ramp_up is None else min(u.pmax, max(u.pmin, u.ramp_up * 1.0))
        rd = u.pmax if u.ramp_down is None else min(u.pmax, max(u.pmin, u.ramp_down * 1.0))
        su_rate = u.startup_ramp if u.startup_ramp is not None else (
            None if u.ramp_up is None else max(u.pmin, u.ramp_up)
        )
        sd_rate = u.shutdown_ramp if u.shutdown_ramp is not None else (
            None if u.ramp_down is None else max(u.pmin, u.ramp_down)
        )
        su = u.pmax if su_rate is None else min(u.pmax, max(u.pmin, su_rate * 1.0))
        sd = u.pmax if sd_rate is None else min(u.pmax, max(u.pmin, sd_rate * 1.0))
        # the ramp rows' big-M: the room an off unit needs beyond pmin
        m_up = max(0.0, su - ru - u.pmin)
        m_dn = max(0.0, sd - rd - u.pmin)
        for t in range(1, nt + 1):
            put(f"onmin_{g}_{t}", {f"pg_{g}_{t}": 1.0, f"u_{g}_{t}": -u.pmin}, ">=", 0.0)
            put(f"onmax_{g}_{t}", {f"pg_{g}_{t}": 1.0, f"u_{g}_{t}": -u.pmax}, "<=", 0.0)
        # start-ups need indicator rows when they cost or a minimum time counts them
        if u.startup_cost != 0.0 or u.min_up > 0 or u.min_down > 0:
            for t in range(1, nt + 1):
                if t == 1:
                    put(f"sucost_{g}_{t}", {f"su_{g}_{t}": 1.0, f"u_{g}_{t}": -1.0}, ">=", float(-u.u0))
                else:
                    put(
                        f"sucost_{g}_{t}",
                        {f"su_{g}_{t}": 1.0, f"u_{g}_{t}": -1.0, f"u_{g}_{t-1}": 1.0},
                        ">=",
                        0.0,
                    )
        emit_up = u.ramp_up is not None or u.startup_ramp is not None
        emit_dn = u.ramp_down is not None or u.shutdown_ramp is not None
        for t in range(1, nt + 1):
            if emit_up:
                if t == 1:
                    put(
                        f"rampup_{g}_{t}",
                        {f"pg_{g}_{t}": 1.0, f"u_{g}_{t}": m_up - su},
                        "<=",
                        m_up + u.p0 + (ru - su) * u.u0,
                    )
                else:
                    put(
                        f"rampup_{g}_{t}",
                        {
                            f"pg_{g}_{t}": 1.0,
                            f"pg_{g}_{t-1}": -1.0,
                            f"u_{g}_{t}": m_up - su,
                            f"u_{g}_{t-1}": su - ru,
                        },
                        "<=",
                        m_up,
                    )
            if emit_dn:
                if t == 1:
                    put(
                        f"rampdn_{g}_{t}",
                        {f"pg_{g}_{t}": -1.0, f"u_{g}_{t}": sd - rd},
                        "<=",
                        m_dn - u.p0 - (m_dn - sd) * u.u0,
                    )
                else:
                    put(
                        f"rampdn_{g}_{t}",
                        {
                            f"pg_{g}_{t}": -1.0,
                            f"pg_{g}_{t-1}": 1.0,
                            f"u_{g}_{t}": sd - rd,
                            f"u_{g}_{t-1}": m_dn - sd,
                        },
                        "<=",
                        m_dn,
                    )
        if emit_dn:
            for t in range(1, nt):
                put(
                    f"sdramp_{g}_{t}",
                    {f"pg_{g}_{t}": 1.0, f"u_{g}_{t+1}": sd - u.pmax, f"u_{g}_{t}": -sd},
                    "<=",
                    0.0,
                )
        # minimum times as start-up rows: a start-up in period a keeps the
        # unit on (off, after a stop) through a + k - 1, k whole hours
        for word, hours, pin_h in (("up", u.min_up, max(0.0, u.min_up - u.hours0) * u.u0),
                                   ("dn", u.min_down, max(0.0, u.min_down - u.hours0) * (1 - u.u0))):
            if hours <= 0:
                continue
            k = math.ceil(hours - tol)
            pin = 0 if pin_h <= tol else min(nt, math.ceil(pin_h - tol))
            for t in range(1, nt + 1):
                first = max(1, t - k + 1)
                coeffs = {f"su_{g}_{a}": 1.0 for a in range(first, t + 1)}
                rhs = -1.0 if t <= pin else 0.0
                if word == "up":
                    coeffs[f"u_{g}_{t}"] = -1.0
                elif first > 1:
                    coeffs[f"u_{g}_{first - 1}"] = 1.0
                    rhs += 1.0
                else:
                    rhs += 1.0 - u.u0
                put(f"{word}_{g}_{t}", coeffs, "<=", rhs)

    objective: dict[str, float] = {}
    for u in system.units:
        for t in range(1, nt + 1):
            if u.marginal_cost != 0.0:
                objective[f"pg_{u.unit_id}_{t}"] = u.marginal_cost
            if u.startup_cost != 0.0:
                objective[f"su_{u.unit_id}_{t}"] = u.startup_cost
    for t in range(1, nt + 1):
        objective[f"shed_{t}"] = system.load_shed_cost

    rows_canonical = {
        label: (tuple(sorted(coeffs.items())), sense, rhs)
        for label, (coeffs, sense, rhs) in rows.items()
    }
    return rows_canonical, objective


def random_day_series(rng: np.random.Generator, step_minutes: int = 60, hours: float = 24.0) -> HiResSeries:
    """A plausible random day: smooth demand wave, solar bell, noisy wind."""
    n = int(round(hours * 60 / step_minutes))
    t = np.arange(n) * step_minutes / 60.0
    demand = 450.0 + 250.0 * np.sin(2 * np.pi * (t - 6.0) / 24.0) + rng.normal(0.0, 15.0, n)
    demand = np.clip(demand, 50.0, None)
    solar = np.clip(np.sin(np.pi * (t - 6.0) / 12.0), 0.0, 1.0) * rng.uniform(0.6, 1.0)
    wind = np.clip(0.3 + np.cumsum(rng.normal(0.0, 0.05, n)), 0.0, 1.0)
    return HiResSeries(demand=demand, wind_cf=wind, solar_cf=solar, step_minutes=step_minutes)


def study13_window(seed: int, step_minutes: int) -> tuple[PowerSystem, HiResSeries]:
    """The study13 fixture day: the whole study13 portfolio over a 32 h window
    (a day plus an 8 h look-ahead) at step_minutes. default_rng(seed) draws
    the demand noise, then the wind noise: demand is
    1500 + 500 sin(2 pi (t - 9) / 24) + N(0, 60) clipped at 200 MW, wind
    0.35 + 0.2 sin(2 pi t / 37) + N(0, 0.05) clipped to [0, 1], and solar
    clip(sin(pi ((t mod 24) - 6) / 12), 0, 1), t in hours. Both renewable
    fleets are sized at alpha 0.2 over the window; shedding costs 10000 EUR/MWh."""
    n = 32 * 60 // step_minutes
    t = np.arange(n) * step_minutes / 60.0
    rng = np.random.default_rng(seed)
    demand = np.clip(1500.0 + 500.0 * np.sin(2 * np.pi * (t - 9.0) / 24.0) + rng.normal(0.0, 60.0, n), 200.0, None)
    wind = np.clip(0.35 + 0.2 * np.sin(2 * np.pi * t / 37.0) + rng.normal(0.0, 0.05, n), 0.0, 1.0)
    solar = np.clip(np.sin(np.pi * ((t % 24.0) - 6.0) / 12.0), 0.0, 1.0)
    system = PowerSystem(
        units=build_portfolio("study13"),
        wind_capacity=compute_installed_capacity(0.2, demand, wind),
        solar_capacity=compute_installed_capacity(0.2, demand, solar),
        load_shed_cost=10000.0,
    )
    return system, HiResSeries(demand=demand, wind_cf=wind, solar_cf=solar, step_minutes=step_minutes)


def flat_day_series(step_minutes: int = 60, hours: float = 24.0, demand: float = 500.0) -> HiResSeries:
    n = int(round(hours * 60 / step_minutes))
    return HiResSeries(
        demand=np.full(n, demand),
        wind_cf=np.zeros(n),
        solar_cf=np.full(n, 0.5),
        step_minutes=step_minutes,
    )


def duck_day_series(step_minutes: int = 30) -> HiResSeries:
    """A day with a deep midday solar belly and a steep evening ramp.

    Within-hour variation around sunset is what an hourly grid averages
    away, so adaptive grids should do strictly better here.
    """
    n = 24 * 60 // step_minutes
    t = np.arange(n) * step_minutes / 60.0
    demand = 500.0 + 120.0 * np.exp(-((t - 20.0) ** 2) / 2.0) + 350.0 * np.clip((t - 16.0) / 3.0, 0.0, 1.0)
    solar = np.clip(np.sin(np.pi * (t - 7.0) / 11.0), 0.0, 1.0) ** 1.5
    return HiResSeries(demand=demand, wind_cf=np.zeros(n), solar_cf=solar, step_minutes=step_minutes)


def random_small_instance(rng: np.random.Generator) -> tuple[PowerSystem, ReducedSeries]:
    """A random instance small enough for exhaustive verification:
    2-3 units, 3-5 periods, at most 10 commitment binaries."""
    n_units = int(rng.integers(2, 4))
    nt = int(rng.integers(3, 6))
    while n_units * nt > 10:
        nt -= 1
    units = []
    for i in range(n_units):
        pmin = float(rng.integers(2, 8) * 10)
        pmax = pmin + float(rng.integers(2, 10) * 10)
        on = bool(rng.integers(0, 2))
        units.append(
            ThermalUnit(
                unit_id=f"r{i+1}",
                flex_class=("base", "medium", "peak")[i % 3],
                pmin=pmin,
                pmax=pmax,
                marginal_cost=float(rng.integers(10, 90)),
                startup_cost=float(rng.integers(0, 5) * 100),
                ramp_up=float(rng.integers(2, 12) * 10),
                ramp_down=float(rng.integers(2, 12) * 10),
                min_up=float(rng.integers(0, 4)) * 0.5,
                min_down=float(rng.integers(0, 4)) * 0.5,
                u0=1 if on else 0,
                hours0=float(rng.integers(1, 6)),
                p0=float(rng.uniform(pmin, pmax)) if on else 0.0,
            )
        )
    cap = sum(u.pmax for u in units)
    durations = rng.choice([0.5, 1.0, 2.0], size=nt)
    demand = rng.uniform(0.2, 1.1, size=nt) * cap
    solar_cf = rng.uniform(0.0, 1.0, size=nt)
    system = PowerSystem(
        units=tuple(units),
        wind_capacity=0.0,
        solar_capacity=float(rng.integers(0, 3) * 50),
        load_shed_cost=2000.0,
    )
    return system, periods_from(durations, demand, solar_cf=solar_cf)


@st.composite
def uc_instances(draw, max_units: int = 3, max_periods: int = 8, fix: bool = True, free_unit: bool = False,
                 ramp_limited: bool = False):
    """(system, periods, fixings) for the model builder: ramp-limited and
    unlimited units, minimum times that cover whole periods or fall between
    period ends, both initial states, and fixings in the style of a plan
    (commitment, or commitment and dispatch, of some units) that may break
    the unit's own rows. free_unit appends one more unit, never fixed, whose
    commitment cannot change cost or feasibility: pmin 0, free start-ups,
    no ramp rates and no minimum times. ramp_limited gives every drawn unit
    all four ramp rates (ramp up and down, start-up and shut-down), so each
    has both ramp row families."""
    nt = draw(st.integers(1, max_periods))
    durations = draw(st.lists(st.sampled_from([0.25, 0.5, 1.0, 1.5, 3.0]), min_size=nt, max_size=nt))
    units = []
    for g in range(draw(st.integers(1, max_units))):
        pmax = draw(st.sampled_from([40.0, 120.0, 250.0]))
        pmin = draw(st.sampled_from([0.0, 0.25, 0.5, 1.0])) * pmax
        u0 = draw(st.integers(0, 1))
        rate = st.sampled_from([15.0, 70.0, 400.0])
        if not ramp_limited:
            rate = st.one_of(st.none(), rate)
        units.append(ThermalUnit(
            unit_id=f"g{g}",
            flex_class=draw(st.sampled_from(["base", "medium", "peak"])),
            pmin=pmin,
            pmax=pmax,
            marginal_cost=draw(st.sampled_from([0.0, 12.5, 41.0])),
            startup_cost=draw(st.sampled_from([0.0, 90.0, 700.0])),
            ramp_up=draw(rate),
            ramp_down=draw(rate),
            startup_ramp=draw(rate),
            shutdown_ramp=draw(rate),
            min_up=draw(st.sampled_from([0.0, 0.25, 0.5, 1.0, 2.5, 4.0])),
            min_down=draw(st.sampled_from([0.0, 0.25, 0.5, 1.0, 1.75, 4.0])),
            u0=u0,
            hours0=draw(st.sampled_from([0.25, 1.0, 24.0] if u0 else [0.5, 1.0, 24.0])),
            p0=draw(st.sampled_from([pmin, pmax])) if u0 else 0.0,
        ))
    drawn = len(units)
    if free_unit:
        pmax = draw(st.sampled_from([40.0, 120.0, 250.0]))
        u0 = draw(st.integers(0, 1))
        units.append(ThermalUnit(
            unit_id=f"g{drawn}",
            flex_class="peak",
            pmin=0.0,
            pmax=pmax,
            marginal_cost=draw(st.sampled_from([0.0, 12.5, 41.0])),
            u0=u0,
            hours0=24.0,
            p0=draw(st.sampled_from([0.0, pmax])) if u0 else 0.0,
        ))
    system = PowerSystem(
        units=tuple(units),
        wind_capacity=draw(st.sampled_from([0.0, 80.0])),
        solar_capacity=draw(st.sampled_from([0.0, 150.0])),
        load_shed_cost=draw(st.sampled_from([100.0, 3000.0])),
    )
    cf = st.lists(st.sampled_from([0.0, 0.3, 1.0]), min_size=nt, max_size=nt)
    periods = periods_from(
        durations,
        draw(st.lists(st.sampled_from([0.0, 60.0, 180.0, 333.3]), min_size=nt, max_size=nt)),
        draw(cf),
        draw(cf),
    )
    if not fix:
        return system, periods, None
    commitment = np.full((len(units), nt), np.nan)
    dispatch = np.full((len(units), nt), np.nan)
    for g, unit_ in enumerate(units[:drawn]):
        how = draw(st.sampled_from(["free", "commitment", "dispatch"]))
        if how == "free":
            continue
        for t in range(nt):
            on = draw(st.integers(0, 1))
            commitment[g, t] = on
            if how == "dispatch":
                dispatch[g, t] = draw(st.sampled_from([unit_.pmin, unit_.pmax])) * on
    return system, periods, Fixings(commitment, dispatch)
