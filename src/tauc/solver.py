"""Solving layer for commitment models.

Models are solved by the in-process HiGHS MILP solver that ships with scipy.
Every answer is audited before it is returned: binaries are snapped to
integers, bounds and rows are re-checked against the model with an
independent residual test, the accepted point is clipped onto its column
bounds, and the objective is recomputed from it. The solver can therefore be
wrong but not quietly wrong.
"""
from __future__ import annotations

import math
import time
import warnings
from dataclasses import dataclass, replace

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

    gap is the relative MIP gap target; time_limit, in seconds, stops
    HiGHS with its incumbent.

    HiGHS always runs with two root heuristics switched off:
    mip_heuristic_run_root_reduced_cost (the sub-MIP on the columns the
    root's reduced costs leave free) and mip_heuristic_run_feasibility_jump.
    The benchmark's models close at or near the root, where the two took
    about a third of HiGHS's time; with both off HiGHS reached the same
    optima in less time in all on the benchmark's models and on the study13
    fixture days (README, "Solver"). A scipy whose
    bundled HiGHS lacks one of these options warns with OptimizeWarning and
    runs HiGHS with its default for it, so results do not change.
    """

    gap: float = 0.0
    time_limit: float | None = None


@dataclass(frozen=True, eq=False)
class MipSolution:
    """What a solve returns.

    x holds one value per model column, in column order, when HiGHS
    returned a point. node_count and dual_bound come from HiGHS, which may
    finish in presolve with 0 nodes. solve() alone sets gap and clamps
    dual_bound: it recomputes objective from the audited x, lowers HiGHS's
    bound onto it where it sits above, and sets gap to
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
    import scipy.optimize  # noqa: F401  (a first solve's wall_time leaves out the import)
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
        return replace(raw, status="error", wall_time=wall,
                       message="solution failed verification: " + problems[0])
    # what passed the audit within its tolerance lands exactly on the bounds,
    # so a fixing taken from it is never out of bounds
    x = np.clip(x, model.lb, model.ub)
    objective = float(model.c @ x)
    bound, gap = raw.dual_bound, None
    if bound is not None:
        # HiGHS's bound comes with its own objective and may sit above the
        # audited one by rounding; a gap HiGHS closed stays closed
        bound = min(bound, objective) if bound < raw.objective else objective
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


def milp(*args, **kwargs):
    """scipy's HiGHS MILP, looked up per call so that importing tauc does not load scipy."""
    from scipy.optimize import milp as highs_milp

    return highs_milp(*args, **kwargs)


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
    and the dual bound include the offset; the bound is the objective itself
    when HiGHS solved an LP or had no free column.
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
    offset = float(model.c @ x)
    if not free.any():  # nothing to decide; milp rejects an empty problem
        return MipSolution("optimal", offset, x, message="every column is fixed", node_count=0, dual_bound=offset)

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
        return MipSolution(status, objective, x, message=str(res.message), node_count=0, dual_bound=objective)
    nodes = getattr(res, "mip_node_count", None)
    bound = getattr(res, "mip_dual_bound", None)
    bound = float(bound) + offset if bound is not None and solved else None
    return MipSolution(status, objective, x, message=str(res.message),
                       node_count=None if nodes is None else int(nodes), dual_bound=bound)
