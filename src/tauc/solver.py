"""Solving layer for commitment models.

The default backend is the in-process HiGHS MILP solver that ships with
scipy. Any external solver can be plugged in through a small command-line
contract: the executable is invoked as ``exe model.lp solution.sol`` and must
leave a readable solution file behind (plain name/value lines or a CPLEX-style
XML file). The ``TAUC_SOLVER`` environment variable overrides the configured
backend so operators can redirect solves without touching code.

Every answer, regardless of backend, is audited before it is returned:
binaries are snapped to integers, bounds and rows are re-checked against the
model with an independent residual test, and the objective is recomputed from
the returned point. A backend can therefore be wrong but not quietly wrong.
"""
from __future__ import annotations

import math
import os
import subprocess
import tempfile
import time
import xml.etree.ElementTree as ET
from dataclasses import dataclass, field, replace
from pathlib import Path

import numpy as np
from scipy import sparse
from scipy.optimize import Bounds, LinearConstraint, milp

from .model import UcModel

BINARY_SNAP_TOL = 1e-6
CHECK_TOL = 1e-6


@dataclass(frozen=True)
class BackendConfig:
    """How to run a solve.

    backend: "auto" (in-process HiGHS) or a path to an external solver
    executable. The TAUC_SOLVER environment variable, when set, wins over
    this field.
    gap is the relative MIP gap target. threads is forwarded to external
    backends via TAUC_THREADS; the in-process backend ignores it.
    """

    backend: str = "auto"
    gap: float = 0.0
    time_limit: float | None = None
    threads: int | None = None


@dataclass(frozen=True)
class MipSolution:
    status: str  # "optimal" | "feasible" | "infeasible" | "unbounded" | "error"
    objective: float | None
    values: dict[str, float] = field(default_factory=dict)
    gap: float | None = None
    wall_time: float = 0.0
    message: str = ""


def solve(model: UcModel, config: BackendConfig | None = None) -> MipSolution:
    """Solve a model and return an audited solution."""
    cfg = config or BackendConfig()
    backend = os.environ.get("TAUC_SOLVER", "").strip() or cfg.backend
    start = time.perf_counter()
    if backend in ("auto", "highs", "scipy"):
        raw = _solve_inprocess(model, cfg)
    else:
        raw = _solve_process(backend, model, cfg)
    wall = time.perf_counter() - start
    if raw.status not in ("optimal", "feasible"):
        return replace(raw, wall_time=wall)

    values = dict(raw.values)
    for var in model.variables:
        if var.name not in values:
            return replace(raw, status="error", wall_time=wall,
                           message=f"backend returned no value for {var.name}")
        if var.binary:
            val = values[var.name]
            snapped = float(round(val))
            if abs(val - snapped) > BINARY_SNAP_TOL:
                return replace(raw, status="error", wall_time=wall,
                               message=f"non-integral binary {var.name}={val:.9g}")
            values[var.name] = snapped
    problems = check_solution(model, values)
    if problems:
        return replace(raw, status="error", wall_time=wall,
                       message="solution failed verification: " + problems[0])
    objective = model.objective_offset
    for name, coef in model.objective.items():
        objective += coef * values[name]
    return MipSolution(raw.status, float(objective), values, raw.gap, wall, raw.message)


def check_solution(model: UcModel, values: dict[str, float],
                   tol: float = CHECK_TOL) -> list[str]:
    """Independent feasibility audit; returns human-readable violations.

    Residuals are judged relative to the row's magnitude (rhs and the
    individual terms), so tol is a relative tolerance on anything large and
    an absolute one near zero.
    """
    out = []
    for var in model.variables:
        x = values.get(var.name)
        if x is None:
            out.append(f"missing value for {var.name}")
            continue
        allow = tol * max(1.0, abs(x))
        if x < var.lb - allow:
            out.append(f"{var.name}={x:.9g} below lower bound {var.lb:.9g}")
        if x > var.ub + allow:
            out.append(f"{var.name}={x:.9g} above upper bound {var.ub:.9g}")
        if var.binary and abs(x - round(x)) > tol:
            out.append(f"{var.name}={x:.9g} is not integral")
    for row in model.constraints:
        lhs = 0.0
        scale = max(1.0, abs(row.rhs))
        ok = True
        for name, coef in row.coeffs.items():
            x = values.get(name)
            if x is None:
                ok = False
                break
            lhs += coef * x
            scale = max(scale, abs(coef * x))
        if not ok:
            continue  # already reported as a missing value
        allow = tol * scale
        if row.sense == "<=" and lhs > row.rhs + allow:
            out.append(f"{row.label}: {lhs:.9g} > {row.rhs:.9g}")
        elif row.sense == ">=" and lhs < row.rhs - allow:
            out.append(f"{row.label}: {lhs:.9g} < {row.rhs:.9g}")
        elif row.sense == "=" and abs(lhs - row.rhs) > allow:
            out.append(f"{row.label}: {lhs:.9g} != {row.rhs:.9g}")
    return out


# ---------------------------------------------------------------------------
# in-process backend


def _solve_inprocess(model: UcModel, cfg: BackendConfig) -> MipSolution:
    names = [v.name for v in model.variables]
    pos = {name: i for i, name in enumerate(names)}
    nvar = len(names)
    c = np.zeros(nvar)
    for name, coef in model.objective.items():
        c[pos[name]] = coef
    integrality = np.array([1 if v.binary else 0 for v in model.variables])
    lo = np.array([v.lb for v in model.variables])
    hi = np.array([v.ub for v in model.variables])

    constraints = None
    nrow = len(model.constraints)
    if nrow:
        data: list[float] = []
        rows_ix: list[int] = []
        cols_ix: list[int] = []
        cl = np.empty(nrow)
        cu = np.empty(nrow)
        for r, row in enumerate(model.constraints):
            for name, coef in row.coeffs.items():
                rows_ix.append(r)
                cols_ix.append(pos[name])
                data.append(coef)
            if row.sense == "<=":
                cl[r], cu[r] = -np.inf, row.rhs
            elif row.sense == ">=":
                cl[r], cu[r] = row.rhs, np.inf
            else:
                cl[r] = cu[r] = row.rhs
        amat = sparse.csr_matrix((data, (rows_ix, cols_ix)), shape=(nrow, nvar))
        constraints = LinearConstraint(amat, cl, cu)

    # Always pass the gap: left unset, HiGHS applies its own default of 1e-4
    # and can stop on a suboptimal incumbent while still reporting "optimal".
    options: dict[str, object] = {"presolve": True, "mip_rel_gap": float(cfg.gap)}
    if cfg.time_limit is not None:
        options["time_limit"] = float(cfg.time_limit)
    res = milp(c=c, constraints=constraints, integrality=integrality,
               bounds=Bounds(lo, hi), options=options)

    if res.status == 0:
        status = "optimal"
    elif res.status == 2:
        status = "infeasible"
    elif res.status == 3:
        status = "unbounded"
    elif res.status == 1 and res.x is not None:
        status = "feasible"  # stopped on a limit with an incumbent
    else:
        status = "error"
    values = {}
    if res.x is not None:
        values = {name: float(res.x[i]) for i, name in enumerate(names)}
    objective = None
    if res.fun is not None:
        objective = float(res.fun) + model.objective_offset
    gap = getattr(res, "mip_gap", None)
    gap = float(gap) if gap is not None and status in ("optimal", "feasible") else None
    return MipSolution(status, objective, values, gap, 0.0, str(res.message))


# ---------------------------------------------------------------------------
# external process backend


def _solve_process(executable: str, model: UcModel, cfg: BackendConfig) -> MipSolution:
    lp_text = emit_model_file(model)
    with tempfile.TemporaryDirectory(prefix="tauc-solve-") as tmp:
        lp_path = Path(tmp) / "model.lp"
        sol_path = Path(tmp) / "solution.sol"
        lp_path.write_text(lp_text)
        env = dict(os.environ)
        env["TAUC_MIP_GAP"] = str(cfg.gap)
        if cfg.time_limit is not None:
            env["TAUC_TIME_LIMIT"] = str(cfg.time_limit)
        if cfg.threads is not None:
            env["TAUC_THREADS"] = str(int(cfg.threads))
        timeout = cfg.time_limit + 60.0 if cfg.time_limit else None
        try:
            proc = subprocess.run([executable, str(lp_path), str(sol_path)],
                                  capture_output=True, text=True, env=env,
                                  timeout=timeout)
        except FileNotFoundError:
            return MipSolution("error", None, {}, None, 0.0,
                               f"solver executable not found: {executable}")
        except subprocess.TimeoutExpired:
            return MipSolution("error", None, {}, None, 0.0,
                               f"solver timed out after {timeout:.0f}s")
        if proc.returncode != 0:
            tail = (proc.stderr or proc.stdout or "").strip()[-400:]
            return MipSolution("error", None, {}, None, 0.0,
                               f"solver exited with code {proc.returncode}: {tail}")
        if not sol_path.exists():
            return MipSolution("error", None, {}, None, 0.0,
                               "solver wrote no solution file")
        values, hint, notes = parse_solution_file(sol_path.read_text(), model)
    if hint in ("infeasible", "unbounded"):
        return MipSolution(hint, None, {}, None, 0.0,
                           "; ".join(notes) or f"solver reported {hint}")
    if not values:
        return MipSolution("error", None, {}, None, 0.0,
                           "solution file contained no variable values")
    for var in model.variables:
        values.setdefault(var.name, 0.0)  # sparse files omit zero variables
    return MipSolution("optimal", None, values, None, 0.0, "; ".join(notes))


def parse_solution_file(text: str, model: UcModel | None = None):
    """Parse a solution file into (values, status_hint, notes).

    Two formats are understood: XML with <variable name=... value=...>
    elements, and plain text where each line carries "name value" (extra
    leading index and trailing columns, as some solvers write, are
    tolerated). Lines that are not value pairs are scanned for status
    keywords. When a model is given, names it does not know are dropped and
    reported in notes.
    """
    values: dict[str, float] = {}
    notes: list[str] = []
    hint = None
    if text.lstrip().startswith("<"):
        root = ET.fromstring(text)
        for el in root.iter("variable"):
            name = el.get("name")
            raw = el.get("value")
            if name is None or raw is None:
                continue
            try:
                values[name] = float(raw)
            except ValueError:
                notes.append(f"unparseable value for {name!r}")
        header = root.find("header")
        if header is not None:
            status_str = (header.get("solutionStatusString") or "").lower()
            for word in ("infeasible", "unbounded", "optimal"):
                if word in status_str:
                    hint = word
                    break
    else:
        for line in text.splitlines():
            line = line.strip()
            if not line or line.startswith(("#", "//")):
                continue
            pair = _value_pair(line.split())
            if pair is None:
                low = line.lower()
                if "infeasible" in low:
                    hint = "infeasible"
                elif "unbounded" in low:
                    hint = "unbounded"
                elif "optimal" in low and hint is None:
                    hint = "optimal"
                continue
            values[pair[0]] = pair[1]
    if model is not None:
        known = model.variable_map
        for name in [n for n in values if n not in known]:
            notes.append(f"ignoring unknown variable {name!r} in solution file")
            del values[name]
    return values, hint, notes


def _value_pair(toks: list[str]) -> tuple[str, float] | None:
    def as_float(s: str) -> float | None:
        try:
            return float(s)
        except ValueError:
            return None

    if len(toks) >= 3 and toks[0].lstrip("-").isdigit() and as_float(toks[1]) is None:
        val = as_float(toks[2])
        if val is not None:
            return toks[1], val  # "index name value [extra]" style
    if len(toks) >= 2 and as_float(toks[0]) is None:
        val = as_float(toks[1])
        if val is not None:
            return toks[0], val
    return None


# ---------------------------------------------------------------------------
# LP file emission


def _fmt(value: float) -> str:
    if not math.isfinite(value):
        raise ValueError("cannot write a non-finite number to an LP file")
    if value == 0.0:
        value = 0.0  # normalize -0.0
    return f"{value:.12g}"


def _terms(coeffs, constant: float = 0.0) -> str:
    parts: list[str] = []
    for name, coef in coeffs.items():
        if not parts:
            head = f"- {_fmt(-coef)} {name}" if coef < 0 else f"{_fmt(coef)} {name}"
        else:
            head = f"- {_fmt(-coef)} {name}" if coef < 0 else f"+ {_fmt(coef)} {name}"
        parts.append(head)
    if constant != 0.0 or not parts:
        if not parts:
            parts.append(_fmt(constant))
        elif constant < 0:
            parts.append(f"- {_fmt(-constant)}")
        else:
            parts.append(f"+ {_fmt(constant)}")
    return " ".join(parts)


def emit_model_file(model: UcModel) -> str:
    """Serialize a model to LP text; byte-identical for equal models."""
    lines = ["Minimize",
             f" obj: {_terms(model.objective, model.objective_offset)}",
             "Subject To"]
    for row in model.constraints:
        if not row.coeffs:
            raise ValueError(f"constraint {row.label} has no terms")
        lines.append(f" {row.label}: {_terms(row.coeffs)} {row.sense} {_fmt(row.rhs)}")
    lines.append("Bounds")
    binaries = []
    for var in model.variables:
        if var.binary:
            binaries.append(var.name)
            if var.lb == var.ub:
                lines.append(f" {var.name} = {_fmt(var.lb)}")
            continue
        lo_inf = math.isinf(var.lb)
        hi_inf = math.isinf(var.ub)
        if var.lb == var.ub:
            lines.append(f" {var.name} = {_fmt(var.lb)}")
        elif lo_inf and hi_inf:
            lines.append(f" {var.name} free")
        elif hi_inf:
            lines.append(f" {var.name} >= {_fmt(var.lb)}")
        elif lo_inf:
            lines.append(f" -inf <= {var.name} <= {_fmt(var.ub)}")
        else:
            lines.append(f" {_fmt(var.lb)} <= {var.name} <= {_fmt(var.ub)}")
    if binaries:
        lines.append("Binary")
        lines.extend(f" {name}" for name in binaries)
    lines.append("End")
    return "\n".join(lines) + "\n"
