"""Solving layer for commitment models.

The default backend is the in-process HiGHS MILP solver that ships with
scipy. Any external solver can be plugged in through a small command-line
contract: the executable is invoked as ``exe model.lp solution.sol`` and must
leave a readable solution file behind (plain name/value lines or a CPLEX-style
XML file). The ``TAUC_SOLVER`` environment variable overrides the configured
backend so operators can redirect solves without touching code.

Every answer, regardless of backend, is audited before it is returned:
binaries are snapped to integers, bounds and rows are re-checked against the
model with an independent residual test, the accepted point is clipped onto
its column bounds, and the objective is recomputed from it. A backend can
therefore be wrong but not quietly wrong.
"""
from __future__ import annotations

import math
import os
import subprocess
import tempfile
import time
import warnings
import xml.etree.ElementTree as ET
from dataclasses import dataclass, replace
from pathlib import Path

import numpy as np

from .model import UcModel, row_sense

BINARY_SNAP_TOL = 1e-6
CHECK_TOL = 1e-6

# scipy's milp warns about every HiGHS option outside its own short list and
# then passes it on verbatim; the two heuristic switches below are such
# options. A filter installed once, rather than catch_warnings around each
# call, because catch_warnings is not thread-safe and two solves run at once.
warnings.filterwarnings("ignore", message=r"Unrecognized options detected: .* passed to HiGHS verbatim",
                        category=RuntimeWarning)


@dataclass(frozen=True)
class BackendConfig:
    """How to run a solve.

    backend: "auto" (in-process HiGHS) or a path to an external solver
    executable. The TAUC_SOLVER environment variable, when set, wins over
    this field.
    gap is the relative MIP gap target. The in-process HiGHS applies it to
    its own objective, which lacks the objective offset (the price of
    shedding all demand) and is mostly far larger in magnitude than the
    cost, so it may stop with a gap on the cost above gap; MipSolution.gap
    reports the gap on the cost. threads is forwarded to external backends
    via TAUC_THREADS; the in-process backend ignores it.

    The in-process HiGHS always runs with two root heuristics switched off:
    mip_heuristic_run_root_reduced_cost (the sub-MIP on the columns the
    root's reduced costs leave free, the "L" line of its log) and
    mip_heuristic_run_feasibility_jump. The benchmark's models close at or
    near the root, where the two took about a third of HiGHS's time. On
    the study13 fixture day at gap 0 (four solves) both off reached the
    same optima as HiGHS's defaults in 82-85 s against 116-118 s at a
    10-minute step, and in 10-13 s against 13-26 s on three of four seeds
    at 30 minutes (a tie on the fourth); feasibility jump off alone took
    149-150 s at 10 minutes (README, "Solver backends"). A scipy whose
    bundled HiGHS lacks one of these options warns with OptimizeWarning
    and runs HiGHS with its default for it, so results do not change.
    """

    backend: str = "auto"
    gap: float = 0.0
    time_limit: float | None = None
    threads: int | None = None


@dataclass(frozen=True, eq=False)
class MipSolution:
    """What a solve returns.

    x holds one value per model column, in column order, when the backend
    returned a point. gap, node_count and dual_bound come from the
    in-process backend, which may finish in presolve with 0 nodes;
    dual_bound includes the objective offset, like objective, and is at
    most objective, which solve() recomputes from the audited x; gap is
    (objective - dual_bound) / max(1, |objective|).
    """

    status: str  # "optimal" | "feasible" | "infeasible" | "unbounded" | "error"
    objective: float | None
    x: np.ndarray | None = None
    gap: float | None = None
    wall_time: float = 0.0
    message: str = ""
    node_count: int | None = None
    dual_bound: float | None = None


def solve(model: UcModel, config: BackendConfig | None = None) -> MipSolution:
    """Solve a model and return an audited solution."""
    cfg = config or BackendConfig()
    backend = os.environ.get("TAUC_SOLVER", "").strip() or cfg.backend
    inprocess = backend in ("auto", "highs", "scipy")
    if inprocess:
        import scipy.optimize  # noqa: F401  (a first solve's wall_time leaves out the import)
    start = time.perf_counter()
    raw = _solve_inprocess(model, cfg) if inprocess else _solve_process(backend, model, cfg)
    wall = time.perf_counter() - start
    if raw.status not in ("optimal", "feasible"):
        return replace(raw, wall_time=wall)

    x = np.array(raw.x, dtype=float)
    binary = np.flatnonzero(model.integrality == 1)
    snapped = np.round(x[binary])
    off = np.abs(x[binary] - snapped) > BINARY_SNAP_TOL
    if off.any():
        j = binary[np.argmax(off)]
        return replace(raw, status="error", wall_time=wall,
                       message=f"non-integral binary {model.col_names[j]}={x[j]:.9g}")
    x[binary] = snapped
    problems = check_solution(model, x)
    if problems:
        return replace(raw, status="error", wall_time=wall,
                       message="solution failed verification: " + problems[0])
    # what passed the audit within its tolerance lands exactly on the bounds,
    # so a fixing taken from it is never out of bounds
    x = np.clip(x, model.lb, model.ub)
    objective = float(model.c @ x) + model.objective_offset
    bound, gap = raw.dual_bound, raw.gap
    if bound is not None:
        # the backend's bound comes with its own objective and may sit above the
        # audited one by rounding; a gap the backend closed stays closed
        bound = min(bound, objective) if gap else objective
        gap = (objective - bound) / max(1.0, abs(objective))
    return replace(raw, objective=objective, x=x, wall_time=wall, dual_bound=bound, gap=gap)


def check_solution(model: UcModel, x: np.ndarray, tol: float = CHECK_TOL) -> list[str]:
    """Independent feasibility audit of x (one value per column); returns
    human-readable violations.

    Residuals are judged relative to the row's magnitude: a row's scale is
    max(1, |rhs|, max_j |a_ij x_j|), so tol is a relative tolerance on
    anything large and an absolute one near zero. Bounds are judged relative
    to max(1, |x_j|).
    """
    x = np.asarray(x, dtype=float)
    if x.shape != (model.n_cols,):
        return [f"solution has {x.size} values for {model.n_cols} columns"]
    names = model.col_names
    finite = np.isfinite(x)
    out = [f"missing or non-finite value for {names[j]}" for j in np.flatnonzero(~finite)]
    x = np.where(finite, x, 0.0)  # nothing that touches a missing value is judged
    allow = tol * np.maximum(1.0, np.abs(x))
    out += [f"{names[j]}={x[j]:.9g} below lower bound {model.lb[j]:.9g}"
            for j in np.flatnonzero(finite & (x < model.lb - allow))]
    out += [f"{names[j]}={x[j]:.9g} above upper bound {model.ub[j]:.9g}"
            for j in np.flatnonzero(finite & (x > model.ub + allow))]
    fractional = finite & (model.integrality == 1) & (np.abs(x - np.round(x)) > tol)
    out += [f"{names[j]}={x[j]:.9g} is not integral" for j in np.flatnonzero(fractional)]
    if model.n_rows:
        lhs = model.row_activity(x)
        lo, hi = model.row_lb, model.row_ub
        scale = np.maximum.reduce([np.ones(model.n_rows),
                                   np.abs(np.where(np.isfinite(lo), lo, 0.0)),
                                   np.abs(np.where(np.isfinite(hi), hi, 0.0))])
        np.maximum.at(scale, model.rows, np.abs(model.vals * x[model.cols]))
        allow = tol * scale
        high = lhs > hi + allow
        judged = np.bincount(model.rows[~finite[model.cols]], minlength=model.n_rows) == 0
        for i in np.flatnonzero(judged & (high | (lhs < lo - allow))):
            sense, rhs = row_sense(lo[i], hi[i])
            op = "!=" if sense == "=" else (">" if high[i] else "<")
            out.append(f"{model.row_names[i]}: {lhs[i]:.9g} {op} {rhs:.9g}")
    return out


# ---------------------------------------------------------------------------
# in-process backend


def milp(*args, **kwargs):
    """scipy's HiGHS MILP, looked up per call so that importing tauc does not load scipy."""
    from scipy.optimize import milp as highs_milp

    return highs_milp(*args, **kwargs)


def _solve_inprocess(model: UcModel, cfg: BackendConfig) -> MipSolution:
    """HiGHS on the free columns only.

    A fixed column (lb == ub) is folded out: its cost moves into the
    objective offset and its terms into the row bounds, so HiGHS gets a
    smaller matrix. A free binary is fixed at 1 and folded out with them
    when raising it can neither add cost nor break a row: its cost is <= 0,
    each positive coefficient sits in a row with no upper bound and each
    negative one in a row with no lower bound (dual fixing). Such a binary
    is the commitment of a unit with pmin 0, free start-ups and no ramp or
    minimum-time rows, which may stay committed and dispatch 0 when idle.
    x comes back at full length, the folded entries exactly at their
    bounds, for solve() to audit against the whole model.
    """
    from scipy import sparse
    from scipy.optimize import Bounds, LinearConstraint

    free = model.lb != model.ub
    # the row bound each term pushes against when its column rises
    limit = np.where(model.vals > 0, model.row_ub[model.rows], -model.row_lb[model.rows])
    lift = free & (model.integrality == 1) & (model.c <= 0)
    lift &= np.bincount(model.cols[limit < math.inf], minlength=model.n_cols) == 0
    free &= ~lift
    x = np.where(free, 0.0, model.ub)
    offset = model.objective_offset + float(model.c @ x)
    if not free.any():  # nothing to decide; milp rejects an empty problem
        return MipSolution("optimal", offset, x, 0.0, 0.0, "every column is fixed", 0, offset)

    constraints = None
    if model.n_rows:
        on_free = free[model.cols]
        pinned = ~on_free
        shift = np.bincount(model.rows[pinned], weights=model.vals[pinned] * x[model.cols[pinned]],
                            minlength=model.n_rows)
        renumber = np.cumsum(free) - 1
        matrix = sparse.csr_matrix(
            (model.vals[on_free], (model.rows[on_free], renumber[model.cols[on_free]])),
            shape=(model.n_rows, int(renumber[-1]) + 1),
        )
        constraints = LinearConstraint(matrix, model.row_lb - shift, model.row_ub - shift)

    # Always pass the gap: left unset, HiGHS applies its own default of 1e-4
    # and can stop on a suboptimal incumbent while still reporting "optimal".
    # Two root heuristics stay off; BackendConfig says why.
    options: dict[str, object] = {"presolve": True, "mip_rel_gap": float(cfg.gap),
                                  "mip_heuristic_run_root_reduced_cost": False,
                                  "mip_heuristic_run_feasibility_jump": False}
    if cfg.time_limit is not None:
        options["time_limit"] = float(cfg.time_limit)
    res = milp(c=model.c[free], constraints=constraints, integrality=model.integrality[free],
               bounds=Bounds(model.lb[free], model.ub[free]), options=options)

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
    objective = None
    if res.fun is not None:
        objective = float(res.fun) + offset
    solved = status in ("optimal", "feasible")
    if res.x is None:
        x = None
    else:
        x[free] = res.x
    if status == "optimal" and not model.integrality[free].any():
        # every binary was fixed or lifted, so HiGHS solved an LP and reports no MIP
        # figures; an LP optimum is its own bound, found without branching
        return MipSolution(status, objective, x, 0.0, 0.0, str(res.message), 0, objective)
    nodes = getattr(res, "mip_node_count", None)
    bound = getattr(res, "mip_dual_bound", None)
    bound = float(bound) + offset if bound is not None and solved else None
    # HiGHS's own mip_gap is relative to its offset-free objective, which can
    # be far larger than the cost; measure the gap on the cost instead
    gap = None if bound is None else max(0.0, objective - bound) / max(1.0, abs(objective))
    return MipSolution(status, objective, x, gap, 0.0, str(res.message),
                       None if nodes is None else int(nodes), bound)


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
            return MipSolution("error", None, None, None, 0.0,
                               f"solver executable not found: {executable}")
        except subprocess.TimeoutExpired:
            return MipSolution("error", None, None, None, 0.0,
                               f"solver timed out after {timeout:.0f}s")
        if proc.returncode != 0:
            tail = (proc.stderr or proc.stdout or "").strip()[-400:]
            return MipSolution("error", None, None, None, 0.0,
                               f"solver exited with code {proc.returncode}: {tail}")
        if not sol_path.exists():
            return MipSolution("error", None, None, None, 0.0,
                               "solver wrote no solution file")
        try:
            values, hint, notes = parse_solution_file(sol_path.read_text(), model)
        except ET.ParseError as exc:
            return MipSolution("error", None, None, None, 0.0,
                               f"cannot parse solution file: {exc}")
    if hint in ("infeasible", "unbounded"):
        return MipSolution(hint, None, None, None, 0.0,
                           "; ".join(notes) or f"solver reported {hint}")
    if not values:
        return MipSolution("error", None, None, None, 0.0,
                           "solution file contained no variable values")
    x = np.zeros(model.n_cols)  # sparse files omit zero variables
    x[model.col_names.positions(values)] = list(values.values())
    return MipSolution("optimal", None, x, None, 0.0, "; ".join(notes))


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
        unknown = model.col_names.positions(values) < 0
        for name in [n for n, missing in zip(values, unknown) if missing]:
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
