"""Solving layer for commitment models.

Models are solved by the HiGHS MILP solver that ships with scipy, called in
process through scipy's HiGHS binding (scipy.optimize._highspy._core) and
not through scipy.optimize.milp, whose Python wrapper validates the input
again and loops over the columns for duals that tauc never reads. Every
answer is audited before it is returned: binaries are snapped to integers,
bounds and rows are re-checked against the model with an independent
residual test, the accepted point is clipped onto its column bounds, and
the objective is recomputed from it. A snapped point that fails
the audit gets one LP re-solve with every binary fixed at its snapped value.
The solver can therefore be wrong but not quietly wrong.
"""
from __future__ import annotations

import math
import time
import warnings
from dataclasses import dataclass, replace
from types import SimpleNamespace

import numpy as np

from .model import UcModel, row_sense

BINARY_SNAP_TOL = 1e-6
CHECK_TOL = 1e-6


@dataclass(frozen=True)
class BackendConfig:
    """How to run a solve.

    gap is the relative MIP gap target, finite and nonnegative; time_limit,
    in seconds, finite and positive, stops HiGHS with its incumbent.

    HiGHS always runs with two root heuristics switched off:
    mip_heuristic_run_root_reduced_cost (the sub-MIP on the columns the
    root's reduced costs leave free) and mip_heuristic_run_feasibility_jump.
    The benchmark's models close at or near the root, where the two took
    about a third of HiGHS's time; with both off HiGHS reached the same
    optima in less time in all on the benchmark's models and on the study13
    fixture days (README, "Solver"). milp hands both to HiGHS with
    setOptionValue; if scipy's bundled HiGHS lacks one, milp warns with
    RuntimeWarning and HiGHS runs with its default for it, so results do
    not change.
    """

    gap: float = 0.0
    time_limit: float | None = None

    def __post_init__(self) -> None:
        if not (math.isfinite(self.gap) and self.gap >= 0):
            raise ValueError(f"gap must be a finite nonnegative number, got {self.gap}")
        if self.time_limit is not None and not (math.isfinite(self.time_limit) and self.time_limit > 0):
            raise ValueError(f"time_limit must be a finite positive number or None, got {self.time_limit}")


@dataclass(frozen=True, eq=False)
class MipSolution:
    """What a solve returns.

    status and message are milp's (its docstring maps HiGHS's model status),
    except that a point failing the audit gives "error" with the audit's
    finding. x holds one value per model column, in column order, when
    HiGHS returned a point. node_count and dual_bound come from HiGHS, which
    may finish in presolve with 0 nodes; an LP reports 0 nodes and its
    optimum as the bound. solve() alone sets gap and clamps dual_bound: it
    recomputes objective from the audited x, lowers HiGHS's bound onto it
    where it sits above, and sets gap to
    (objective - dual_bound) / max(1, |objective|). "optimal" means HiGHS
    met the gap target on its own objective, which is the cost less the
    cost of the folded columns; with every cost nonnegative, as
    build_uc_model writes them, gap then meets the target too.
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
    import scipy.optimize._highspy._core  # noqa: F401  (a first solve's wall_time leaves out the import)
    start = time.perf_counter()
    raw = _solve_highs(model, cfg)
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
        # HiGHS accepts a binary within its own integrality tolerance, and a
        # term such as pmax * u can carry that dust past the audit once u is
        # snapped; the LP over the snapped commitment gives the point exactly
        lb, ub = model.lb.copy(), model.ub.copy()
        lb[binary] = ub[binary] = snapped
        redo = _solve_highs(replace(model, lb=lb, ub=ub), cfg)
        wall = time.perf_counter() - start
        if redo.status == "optimal":
            x = np.array(redo.x, dtype=float)
            problems = check_solution(model, x)
    if problems:
        return replace(raw, status="error", wall_time=wall,
                       message="solution failed verification: " + problems[0])
    # what passed the audit within its tolerance lands exactly on the bounds,
    # so a fixing taken from it is never out of bounds
    x = np.clip(x, model.lb, model.ub)
    objective = float(model.c @ x)
    # HiGHS's bound comes with its own objective and may sit above the
    # audited one by rounding; a gap HiGHS closed stays closed
    bound = min(raw.dual_bound, objective) if raw.dual_bound < raw.objective else objective
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
# HiGHS


def milp(c, *, lb, ub, matrix, row_lb, row_ub, integrality, options):
    """HiGHS on min c @ x subject to row_lb <= matrix @ x <= row_ub and
    lb <= x <= ub, integrality 1 marking an integer column.

    matrix is a scipy CSC array and options maps HiGHS option names to
    values. The model reaches HiGHS in one passModel call on the arrays, so
    no Python runs per column, and scipy is imported on the first call, not
    with tauc. An option HiGHS refuses is skipped with a RuntimeWarning that
    names it, and HiGHS runs with its default for it.

    This is the one place that reads HiGHS's model status. It returns a
    record of status, message, x, objective, mip_node_count, mip_dual_bound
    and mip_gap, where status is tauc's word for HiGHS's model status:

        kOptimal                                "optimal"
        kTimeLimit, on a MIP with an incumbent  "feasible"
        kInfeasible                             "infeasible"
        kUnbounded                              "unbounded"
        anything else, a refused model too      "error"

    and message is HiGHS's own string for it. x, objective and the three MIP
    figures are None unless the status is "optimal" or "feasible"; a model
    with no integer column reports 0 nodes, its objective as the bound and
    gap 0. When a run with presolve on ends in kSolveError, HiGHS runs the
    model it holds once more with presolve off, and the message says so.
    """
    from scipy.optimize._highspy import _core as hs

    m, n = matrix.shape
    # HiGHS reads each array through a bare pointer, so a short one would be read past its end
    if matrix.format != "csc" or not (c.shape == lb.shape == ub.shape == integrality.shape == (n,)
                                      and row_lb.shape == row_ub.shape == (m,)):
        raise ValueError("milp needs a CSC matrix, one entry per column in c, lb, ub and "
                         "integrality, and one per row in row_lb and row_ub")
    highs = hs._Highs()
    highs.setOptionValue("output_flag", False)
    for name, value in options.items():
        if highs.setOptionValue(name, value) != hs.HighsStatus.kOk:
            warnings.warn(f"HiGHS refused option {name}={value!r} and runs with its default for it",
                          RuntimeWarning, stacklevel=2)
    known = hs.HighsModelStatus
    res = SimpleNamespace(status="error", x=None, objective=None, mip_node_count=None, mip_dual_bound=None,
                          mip_gap=None)
    if highs.passModel(n, m, matrix.nnz, int(hs.MatrixFormat.kColwise), int(hs.ObjSense.kMinimize), 0.0,
                       c, lb, ub, row_lb, row_ub, matrix.indptr, matrix.indices, matrix.data,
                       integrality) == hs.HighsStatus.kError:
        res.message = highs.modelStatusToString(known.kModelError)
        return res
    highs.run()  # releases the GIL
    status = highs.getModelStatus()
    res.message = highs.modelStatusToString(status)
    if status == known.kSolveError and options.get("presolve") != "off":
        highs.setOptionValue("presolve", "off")
        highs.run()
        status = highs.getModelStatus()
        res.message = (f"{highs.modelStatusToString(status)}, run again with presolve off "
                       f"after presolve on ended in {res.message}")
    info = highs.getInfo()
    mip = bool(integrality.any())
    incumbent = mip and status == known.kTimeLimit and info.objective_function_value != hs.kHighsInf
    if status == known.kOptimal or incumbent:
        res.status = "feasible" if incumbent else "optimal"
        res.x = np.array(highs.getSolution().col_value)
        res.objective = info.objective_function_value
        res.mip_node_count, res.mip_dual_bound, res.mip_gap = (
            (info.mip_node_count, info.mip_dual_bound, info.mip_gap) if mip else (0, res.objective, 0.0))
    else:
        res.status = {known.kInfeasible: "infeasible", known.kUnbounded: "unbounded"}.get(status, "error")
    return res


def _solve_highs(model: UcModel, cfg: BackendConfig) -> MipSolution:
    """HiGHS on the free columns only.

    A fixed column (lb == ub) is folded out: its cost moves into a constant
    offset and its terms into the row bounds, so HiGHS gets a smaller
    matrix. A free binary is fixed at 1 and folded out with them
    when raising it can neither add cost nor break a row: its cost is <= 0,
    each positive coefficient sits in a row with no upper bound and each
    negative one in a row with no lower bound (dual fixing). Such a binary
    is the commitment of a unit with pmin 0, free start-ups and no ramp or
    minimum-time rows, which may stay committed and dispatch 0 when idle.
    x comes back at full length, the folded entries exactly at their
    bounds, for solve() to audit against the whole model. The objective
    and the dual bound include the offset; a model with no free column is
    its own optimum, with 0 nodes.
    """
    from scipy import sparse

    free = model.lb != model.ub
    # the row bound each term pushes against when its column rises
    limit = np.where(model.vals > 0, model.row_ub[model.rows], -model.row_lb[model.rows])
    lift = free & (model.integrality == 1) & (model.c <= 0)
    lift &= np.bincount(model.cols[limit < math.inf], minlength=model.n_cols) == 0
    free &= ~lift
    x = np.where(free, 0.0, model.ub)
    offset = float(model.c @ x)
    if not free.any():  # nothing to decide
        return MipSolution("optimal", offset, x, message="every column is fixed", node_count=0, dual_bound=offset)

    on_free = free[model.cols]
    pinned = ~on_free
    shift = np.bincount(model.rows[pinned], weights=model.vals[pinned] * x[model.cols[pinned]],
                        minlength=model.n_rows)
    renumber = np.cumsum(free) - 1
    matrix = sparse.csc_array(
        (model.vals[on_free], (model.rows[on_free], renumber[model.cols[on_free]])),
        shape=(model.n_rows, int(renumber[-1]) + 1),
    )

    # Always pass the gap: left unset, HiGHS applies its own default of 1e-4
    # and can stop on a suboptimal incumbent while still reporting "optimal".
    # Two root heuristics stay off; BackendConfig says why.
    options: dict[str, object] = {"presolve": "on", "mip_rel_gap": float(cfg.gap),
                                  "mip_heuristic_run_root_reduced_cost": False,
                                  "mip_heuristic_run_feasibility_jump": False}
    if cfg.time_limit is not None:
        options["time_limit"] = float(cfg.time_limit)
    res = milp(c=model.c[free], lb=model.lb[free], ub=model.ub[free], matrix=matrix,
               row_lb=model.row_lb - shift, row_ub=model.row_ub - shift,
               integrality=model.integrality[free], options=options)
    if res.x is None:
        return MipSolution(res.status, None, message=res.message)
    x[free] = res.x
    return MipSolution(res.status, res.objective + offset, x, message=res.message,
                       node_count=int(res.mip_node_count), dual_bound=res.mip_dual_bound + offset)
