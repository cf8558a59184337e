"""Test-only references: an exhaustive MILP oracle, the dict model builder, an LP-file writer and reader, and Ward's formula.

Nothing here runs in the package. Each piece is an independent route to a
result the package computes another way, so tests can compare the two:

- ``solve_lp`` is a dense two-phase simplex for small LPs with variable
  bounds. It is the exact sub-solver behind the oracle and uses numpy only,
  so oracle results share no code with the production MILP solver. Sizes
  are tiny, so it favours clarity and airtight termination (Bland's rule
  throughout) over speed.
- ``brute_force_solve`` enumerates the binaries of a small model and solves
  each LP subproblem with ``solve_lp``.
- ``emit_model_file`` writes a model as LP text, and ``read_model_file``
  parses LP text back into a model; their round trip checks that the
  array model carries every coefficient, bound and name it should.
- ``reference_build_uc_model`` and ``reference_check_solution`` are the
  earlier builder and audit of ``tauc.model``/``tauc.solver``: one dict of
  coefficients per row and one ``Variable`` per column, walked by name. The
  array builder must write the same rows, terms, bounds and objective bit
  for bit, and the ``A @ x`` audit must reach the same verdict. The builder
  also keeps the paper's ramp rows, whose big-M is pmax
  (``ramp_big_m="pmax"``), as the reference for the strengthened ones, the
  served-demand balance (``balance="served"``), priced below zero and made
  up by a constant offset, as the reference for the shed column, and the
  aggregated window rows of minimum up and down times on ``u`` alone
  (``min_time="window"``), as the reference for the start-up rows.
- ``reference_min_times`` is the per-period loop that turned minimum times
  into period counts before ``tauc.model.effective_min_times`` searched a
  cumulative sum; it also gives the end counts the window rows need.
- ``objective_terms`` is the objective of an array model by column name.
- ``model_from_rows`` makes an array ``UcModel`` from hand-written
  ``Variable``/``Row`` lists, for small test models and the LP reader.
- ``ward_distance`` is the scalar Ward merge cost that the greedy clustering
  oracle uses as its reference for ``tauc.aggregation.cluster_adjacent``.
- ``quadratic_cluster`` is the earlier quadratic merge loop of
  ``cluster_adjacent``, which recomputes every adjacent cost after each
  merge; the heap-based loop must reproduce its partitions and merge costs
  exactly, ties included.
- ``slice_means`` is the earlier per-period slice mean that ``tauc cluster``
  wrote its centroids from; ``tauc.aggregation.member_means`` must give the
  same floats bit for bit.
"""
from __future__ import annotations

import math
import re
import time
from dataclasses import dataclass
from typing import Mapping, Sequence

import numpy as np

from tauc.aggregation import ReducedSeries
from tauc.model import (
    Names,
    PowerSystem,
    Row,
    UcModel,
    Variable,
    _SUM_TOL,
    effective_min_times,
    effective_ramp_limits,
    period_durations,
)
from tauc.solver import MipSolution

ORACLE_MAX_BINARIES = 20


# ---------------------------------------------------------------------------
# dense simplex


PIVOT_TOL = 1e-9


@dataclass(frozen=True)
class LpResult:
    status: str  # "optimal" | "infeasible" | "unbounded"
    objective: float
    x: np.ndarray | None


def solve_lp(c, a, senses, b, lb, ub, max_iter: int = 50000) -> LpResult:
    """Minimize c.x subject to a x (senses) b and lb <= x <= ub.

    senses is a sequence of "<=", ">=" or "=" per row. Lower bounds must be
    finite (upper bounds may be +inf); variables that are free on both sides
    are not supported.
    """
    c = np.asarray(c, dtype=float).copy()
    a = np.asarray(a, dtype=float).reshape(len(senses), len(c)).copy()
    b = np.asarray(b, dtype=float).copy()
    lb = np.asarray(lb, dtype=float).copy()
    ub = np.asarray(ub, dtype=float).copy()
    n = len(c)

    mirrored = np.zeros(n, dtype=bool)
    for j in range(n):
        if not math.isfinite(lb[j]):
            if not math.isfinite(ub[j]):
                raise ValueError("free variables are not supported")
            mirrored[j] = True
            c[j] = -c[j]
            a[:, j] = -a[:, j]
            lb[j], ub[j] = -ub[j], math.inf
    if np.any(ub < lb - 1e-12):
        return LpResult("infeasible", math.inf, None)

    # shift to y = x - lb >= 0
    shift_cost = float(c @ lb)
    b = b - a @ lb
    span = ub - lb

    rows: list[np.ndarray] = []
    rhs: list[float] = []
    slack_cols: list[int] = []
    for i, sense in enumerate(senses):
        row = a[i].copy()
        r = b[i]
        if sense == ">=":
            row, r = -row, -r
            sense = "<="
        elif sense not in ("<=", "="):
            raise ValueError(f"unknown sense {sense!r}")
        rows.append(row)
        rhs.append(r)
        slack_cols.append(1 if sense == "<=" else 0)

    m = len(rows)
    n_slack = sum(slack_cols)
    total = n + n_slack + m  # structural + slacks + artificials
    tab = np.zeros((m, total + 1))
    ub_all = np.full(total, math.inf)
    ub_all[:n] = span
    si = n
    for i in range(m):
        tab[i, :n] = rows[i]
        tab[i, -1] = rhs[i]
        if slack_cols[i]:
            tab[i, si] = 1.0
            si += 1
    for i in range(m):
        if tab[i, -1] < 0:
            tab[i, :] = -tab[i, :]
        tab[i, n + n_slack + i] = 1.0

    basis = np.arange(n + n_slack, total)
    at_upper = np.zeros(total, dtype=bool)

    phase1 = np.zeros(total)
    phase1[n + n_slack:] = 1.0
    status = _iterate(tab, basis, at_upper, ub_all, phase1, max_iter)
    if status == "unbounded":  # cannot happen with nonnegative phase-1 costs
        return LpResult("infeasible", math.inf, None)
    beta = _basic_values(tab, basis, at_upper, ub_all)
    infeas = sum(abs(beta[i]) for i in range(m) if basis[i] >= n + n_slack)
    if infeas > 1e-6 * max(1.0, float(np.max(np.abs(rhs))) if m else 1.0):
        return LpResult("infeasible", math.inf, None)
    ub_all[n + n_slack:] = 0.0  # artificials may never move again

    phase2 = np.zeros(total)
    phase2[:n] = c
    status = _iterate(tab, basis, at_upper, ub_all, phase2, max_iter)
    if status == "unbounded":
        return LpResult("unbounded", -math.inf, None)

    x_int = np.zeros(total)
    x_int[at_upper] = ub_all[at_upper]
    beta = _basic_values(tab, basis, at_upper, ub_all)
    x_int[basis] = beta
    y = x_int[:n]
    x = y + lb
    x[mirrored] = -x[mirrored]
    obj = float(phase2 @ x_int) + shift_cost
    return LpResult("optimal", obj, x)


def _basic_values(tab, basis, at_upper, ub_all) -> np.ndarray:
    beta = tab[:, -1].copy()
    nb_up = np.flatnonzero(at_upper)
    if nb_up.size:
        beta -= tab[:, nb_up] @ ub_all[nb_up]
    return beta


def _iterate(tab, basis, at_upper, ub_all, cost, max_iter) -> str:
    m, width = tab.shape
    total = width - 1
    in_basis = np.zeros(total, dtype=bool)
    in_basis[basis] = True
    for _ in range(max_iter):
        beta = _basic_values(tab, basis, at_upper, ub_all)
        z = cost - cost[basis] @ tab[:, :total]
        # Bland's rule: the eligible variable with the smallest index enters
        eligible = (~in_basis) & (ub_all > 0.0) & (
            (~at_upper & (z < -PIVOT_TOL)) | (at_upper & (z > PIVOT_TOL)))
        js = np.flatnonzero(eligible)
        if js.size == 0:
            return "optimal"
        j = int(js[0])
        sigma = -1.0 if at_upper[j] else 1.0
        d = tab[:, j] * sigma
        ub_basis = ub_all[basis]
        t = np.full(m, math.inf)
        pos = d > PIVOT_TOL
        t[pos] = beta[pos] / d[pos]
        neg = (d < -PIVOT_TOL) & np.isfinite(ub_basis)
        t[neg] = (ub_basis[neg] - beta[neg]) / (-d[neg])
        np.maximum(t, 0.0, out=t)
        span = ub_all[j]
        tmin = float(t.min()) if m else math.inf
        if math.isinf(tmin) or tmin > span + PIVOT_TOL:
            if math.isinf(span):
                return "unbounded"
            at_upper[j] = not at_upper[j]
            continue
        # among rows tied at the minimum ratio the smallest variable leaves
        cand = np.flatnonzero(t <= tmin + PIVOT_TOL)
        leave_row = int(cand[np.argmin(basis[cand])])
        leave_to_upper = bool(d[leave_row] < 0)
        leaving = int(basis[leave_row])
        pivot = tab[leave_row, j]
        tab[leave_row, :] /= pivot
        col = tab[:, j].copy()
        col[leave_row] = 0.0
        tab -= np.outer(col, tab[leave_row, :])
        basis[leave_row] = j
        in_basis[j] = True
        in_basis[leaving] = False
        at_upper[j] = False
        at_upper[leaving] = leave_to_upper
    raise RuntimeError("simplex iteration limit exceeded")


# ---------------------------------------------------------------------------
# LP file writer


def _fmt(value: float) -> str:
    if not math.isfinite(value):
        raise ValueError("cannot write a non-finite number to an LP file")
    if value == 0.0:
        value = 0.0  # normalize -0.0
    return f"{value:.12g}"


def _terms(coeffs) -> str:
    parts: list[str] = []
    for name, coef in coeffs.items():
        if not parts:
            head = f"- {_fmt(-coef)} {name}" if coef < 0 else f"{_fmt(coef)} {name}"
        else:
            head = f"- {_fmt(-coef)} {name}" if coef < 0 else f"+ {_fmt(coef)} {name}"
        parts.append(head)
    return " ".join(parts) or "0"


def objective_terms(model: UcModel) -> dict[str, float]:
    """The model's nonzero costs by column name, in column order."""
    return {model.col_names[j]: float(model.c[j]) for j in np.flatnonzero(model.c)}


def emit_model_file(model: UcModel) -> str:
    """Serialize a model to LP text; byte-identical for equal models."""
    lines = ["Minimize",
             f" obj: {_terms(objective_terms(model))}",
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


# ---------------------------------------------------------------------------
# LP file reader


_SENSE_RE = re.compile(r"<=|=<|>=|=>|<|>|=")
_EXPR_TOKEN_RE = re.compile(
    r"[A-Za-z_][A-Za-z0-9_]*|[0-9]*\.?[0-9]+(?:[eE][+-]?[0-9]+)?|[+-]")
_BOUND_TOKEN_RE = re.compile(r"<=|=<|>=|=>|=|<|>|[^\s<>=]+")


def _parse_expr(text: str):
    """Parse a linear expression into (coeffs, constant)."""
    coeffs: dict[str, float] = {}
    constant = 0.0
    sign = 1.0
    pending: float | None = None
    pos = 0
    for match in _EXPR_TOKEN_RE.finditer(text):
        if text[pos:match.start()].strip():
            raise ValueError(f"unparseable expression fragment {text[pos:match.start()]!r}")
        pos = match.end()
        tok = match.group()
        if tok in "+-":
            if pending is not None:
                constant += sign * pending
                pending = None
                sign = 1.0
            if tok == "-":
                sign = -sign
        elif tok[0].isdigit() or tok[0] == ".":
            if pending is not None:
                raise ValueError(f"two numbers in a row in expression {text!r}")
            pending = float(tok)
        else:
            coef = sign * (1.0 if pending is None else pending)
            coeffs[tok] = coeffs.get(tok, 0.0) + coef
            pending = None
            sign = 1.0
    if text[pos:].strip():
        raise ValueError(f"unparseable expression fragment {text[pos:]!r}")
    if pending is not None:
        constant += sign * pending
    return coeffs, constant


def _bound_number(tok: str) -> float:
    low = tok.lower()
    if low in ("inf", "+inf", "infinity", "+infinity"):
        return math.inf
    if low in ("-inf", "-infinity"):
        return -math.inf
    return float(tok)


def _is_number(tok: str) -> bool:
    try:
        _bound_number(tok)
        return True
    except ValueError:
        return False


def read_model_file(text: str) -> UcModel:
    """Parse LP text back into a model (minimization only)."""
    sections: dict[str, list[str]] = {
        "minimize": [], "subject to": [], "bounds": [], "binary": []}
    current: str | None = None
    for raw in text.splitlines():
        line = raw.strip()
        if not line or line.startswith("\\"):
            continue
        low = line.lower()
        if low in ("minimize", "min", "minimise"):
            current = "minimize"
            continue
        if low in ("subject to", "st", "s.t.", "such that"):
            current = "subject to"
            continue
        if low in ("bounds", "bound"):
            current = "bounds"
            continue
        if low in ("binary", "binaries", "bin"):
            current = "binary"
            continue
        if low == "end":
            current = None
            continue
        if low in ("maximize", "max", "maximise"):
            raise ValueError("only minimization problems are supported")
        if low in ("general", "generals", "gen", "semi-continuous", "sos"):
            raise ValueError(f"unsupported LP section {line!r}")
        if current is None:
            raise ValueError(f"content outside any LP section: {line!r}")
        sections[current].append(line)

    obj_text = " ".join(sections["minimize"])
    label_match = re.match(r"\s*[A-Za-z_][A-Za-z0-9_]*\s*:", obj_text)
    if label_match:
        obj_text = obj_text[label_match.end():]
    objective, offset = _parse_expr(obj_text)
    if offset != 0.0:
        raise ValueError("a model's objective has no constant term")

    # group physical lines into one logical line per constraint
    logical: list[str] = []
    for line in sections["subject to"]:
        if re.match(r"\s*[A-Za-z_][A-Za-z0-9_]*\s*:", line) or not logical:
            logical.append(line)
        else:
            logical[-1] += " " + line
    rows: list[Row] = []
    for i, line in enumerate(logical):
        label = f"r{i + 1}"
        body = line
        head = re.match(r"\s*([A-Za-z_][A-Za-z0-9_]*)\s*:", line)
        if head:
            label = head.group(1)
            body = line[head.end():]
        sense_match = _SENSE_RE.search(body)
        if not sense_match:
            raise ValueError(f"constraint {label} has no relational operator")
        sense = {"=<": "<=", "<": "<=", "=>": ">=", ">": ">="}.get(
            sense_match.group(), sense_match.group())
        lhs, lconst = _parse_expr(body[:sense_match.start()])
        rhs_coeffs, rconst = _parse_expr(body[sense_match.end():])
        for name, coef in rhs_coeffs.items():
            lhs[name] = lhs.get(name, 0.0) - coef
        coeffs = {name: coef for name, coef in lhs.items() if coef != 0.0}
        if not coeffs:
            raise ValueError(f"constraint {label} has no variables")
        rows.append(Row(label, coeffs, sense, rconst - lconst))

    explicit: dict[str, tuple[float, float]] = {}
    for line in sections["bounds"]:
        toks = _BOUND_TOKEN_RE.findall(line)
        toks = [{"=<": "<=", "<": "<=", "=>": ">=", ">": ">="}.get(t, t) for t in toks]
        if len(toks) == 2 and toks[1].lower() == "free":
            explicit[toks[0]] = (-math.inf, math.inf)
        elif len(toks) == 3 and toks[1] in ("<=", ">=", "="):
            a, op, b = toks
            if _is_number(a) and not _is_number(b):
                name = b
                lo, hi = explicit.get(name, (0.0, math.inf))
                if op == "<=":
                    lo = _bound_number(a)
                elif op == ">=":
                    hi = _bound_number(a)
                else:
                    lo = hi = _bound_number(a)
            elif _is_number(b) and not _is_number(a):
                name = a
                lo, hi = explicit.get(name, (0.0, math.inf))
                if op == "<=":
                    hi = _bound_number(b)
                elif op == ">=":
                    lo = _bound_number(b)
                else:
                    lo = hi = _bound_number(b)
            else:
                raise ValueError(f"unparseable bound line {line!r}")
            explicit[name] = (lo, hi)
        elif len(toks) == 5 and toks[1] in ("<=", ">=") and toks[3] == toks[1]:
            a, op, name, _, b = toks
            lo, hi = _bound_number(a), _bound_number(b)
            if op == ">=":
                lo, hi = hi, lo
            explicit[name] = (lo, hi)
        else:
            raise ValueError(f"unparseable bound line {line!r}")

    binary_names: list[str] = []
    for line in sections["binary"]:
        binary_names.extend(line.split())
    binary_set = set(binary_names)

    order: list[str] = []
    seen = set()
    for name in (*objective, *(n for row in rows for n in row.coeffs),
                 *explicit, *binary_names):
        if name not in seen:
            seen.add(name)
            order.append(name)
    variables = []
    for name in order:
        is_bin = name in binary_set
        default = (0.0, 1.0) if is_bin else (0.0, math.inf)
        lo, hi = explicit.get(name, default)
        variables.append(Variable(name, lo, hi, binary=is_bin))
    return model_from_rows(variables, rows, objective)


# ---------------------------------------------------------------------------
# hand-written models


def model_from_rows(variables: Sequence[Variable], constraints: Sequence[Row],
                    objective: Mapping[str, float]) -> UcModel:
    """An array UcModel from Variable and Row lists; each name is its own stem."""
    names = [v.name for v in variables]
    if len(set(names)) != len(names):
        raise ValueError("variable names must be unique")
    labels = [r.label for r in constraints]
    if len(set(labels)) != len(labels):
        raise ValueError("constraint labels must be unique")
    pos = {name: j for j, name in enumerate(names)}
    for name in [*objective, *(n for row in constraints for n in row.coeffs)]:
        if name not in pos:
            raise ValueError(f"model references unknown variable {name}")
    c = np.zeros(len(names))
    c[[pos[n] for n in objective]] = list(objective.values())
    row_lb = [-math.inf if row.sense == "<=" else row.rhs for row in constraints]
    row_ub = [math.inf if row.sense == ">=" else row.rhs for row in constraints]
    rows = np.array([r for r, row in enumerate(constraints) for _ in row.coeffs], dtype=int)
    cols = np.array([pos[n] for row in constraints for n in row.coeffs], dtype=int)
    vals = np.array([v for row in constraints for v in row.coeffs.values()], dtype=float)
    return UcModel(
        col_names=Names(tuple(names), np.arange(len(names)), np.zeros(len(names), dtype=int)),
        lb=np.array([v.lb for v in variables], dtype=float),
        ub=np.array([v.ub for v in variables], dtype=float),
        c=c,
        integrality=np.array([v.binary for v in variables], dtype=np.uint8),
        row_names=Names(tuple(labels), np.arange(len(labels)), np.zeros(len(labels), dtype=int)),
        row_lb=np.array(row_lb, dtype=float),
        row_ub=np.array(row_ub, dtype=float),
        rows=rows,
        cols=cols,
        vals=vals,
    )


# ---------------------------------------------------------------------------
# reference dict builder and audit


@dataclass(frozen=True)
class ReferenceModel:
    """Solver-agnostic MILP: variables with bounds, rows, linear objective.

    The objective is minimized; adding the constant objective_offset (0
    unless demand is written as served) gives the full operating cost.
    Fixed variables are those whose bounds coincide. pruned_violations lists
    rows that were dropped because every variable in them was fixed,
    together with the amount by which the frozen values violate them
    (normally zero).
    """

    variables: tuple[Variable, ...]
    constraints: tuple[Row, ...]
    objective: Mapping[str, float]
    objective_offset: float = 0.0
    pruned_violations: tuple[tuple[str, float], ...] = ()

    def __post_init__(self) -> None:
        names = [v.name for v in self.variables]
        if len(set(names)) != len(names):
            raise ValueError("variable names must be unique")
        known = set(names)
        labels = [r.label for r in self.constraints]
        if len(set(labels)) != len(labels):
            raise ValueError("constraint labels must be unique")
        for row in self.constraints:
            for name, coef in row.coeffs.items():
                if name not in known:
                    raise ValueError(f"row {row.label} references unknown variable {name}")
                if not math.isfinite(coef):
                    raise ValueError(f"row {row.label} has non-finite coefficient on {name}")
        for name, coef in self.objective.items():
            if name not in known:
                raise ValueError(f"objective references unknown variable {name}")
            if not math.isfinite(coef):
                raise ValueError(f"objective has non-finite coefficient on {name}")

    @property
    def variable_map(self) -> dict[str, Variable]:
        return {v.name: v for v in self.variables}

    @property
    def binary_names(self) -> tuple[str, ...]:
        return tuple(v.name for v in self.variables if v.binary)

    @property
    def n_binaries(self) -> int:
        return sum(1 for v in self.variables if v.binary)


def u_name(unit_id: str, t: int) -> str:
    return f"u_{unit_id}_{t}"


def pg_name(unit_id: str, t: int) -> str:
    return f"pg_{unit_id}_{t}"


def su_name(unit_id: str, t: int) -> str:
    return f"su_{unit_id}_{t}"


def pw_name(t: int) -> str:
    return f"pw_{t}"


def ps_name(t: int) -> str:
    return f"ps_{t}"


def shed_name(t: int) -> str:
    return f"shed_{t}"


def pd_name(t: int) -> str:
    return f"pd_{t}"


def _add(coeffs: dict[str, float], name: str, value: float) -> None:
    if value == 0.0:
        return
    acc = coeffs.get(name, 0.0) + value
    if acc == 0.0:
        coeffs.pop(name, None)
    else:
        coeffs[name] = acc


def _forward_cover(d: np.ndarray, start: int, threshold: float) -> int:
    """Smallest k with d[start:start+k] summing to threshold; capped at the tail."""
    if threshold <= _SUM_TOL:
        return 0
    acc = 0.0
    for k in range(start, len(d)):
        acc += d[k]
        if acc >= threshold - _SUM_TOL:
            return k - start + 1
    return len(d) - start


def _backward_cover(d: np.ndarray, threshold: float) -> int:
    if threshold <= _SUM_TOL:
        return 0
    acc = 0.0
    for k in range(len(d) - 1, -1, -1):
        acc += d[k]
        if acc >= threshold - _SUM_TOL:
            return len(d) - k
    return len(d)


def reference_min_times(unit, durations) -> tuple[int, int, np.ndarray, int, int, np.ndarray]:
    """Minimum up/down times as period counts, one period at a time.

    Returns (ut_init, ut_end, ut_counts, dt_init, dt_end, dt_counts): the
    number of leading periods the initial state pins, the number of
    trailing periods whose duration sum first reaches the threshold, and
    the per-period counts used by the rolling-window rows.
    """
    d = np.asarray(durations, dtype=float)
    n = len(d)

    def family(threshold_h: float, init_hours: float) -> tuple[int, int, np.ndarray]:
        if threshold_h <= 0:
            return 0, 0, np.zeros(n, dtype=int)
        init = _forward_cover(d, 0, init_hours)
        end = _backward_cover(d, threshold_h)
        counts = np.array([_forward_cover(d, t, threshold_h) for t in range(n)], dtype=int)
        return init, end, counts

    ut_pin = max(0.0, unit.min_up - unit.hours0) * unit.u0
    dt_pin = max(0.0, unit.min_down - unit.hours0) * (1 - unit.u0)
    ut_init, ut_end, ut_counts = family(unit.min_up, ut_pin)
    dt_init, dt_end, dt_counts = family(unit.min_down, dt_pin)
    return ut_init, ut_end, ut_counts, dt_init, dt_end, dt_counts


def reference_build_uc_model(
    system: PowerSystem,
    periods: ReducedSeries,
    fixings: Mapping[str, float] | None = None,
    ramp_big_m: str = "tight",
    balance: str = "shed",
    min_time: str = "startup",
) -> ReferenceModel:
    """Build the commitment MILP for one system over one window of periods.

    Each unit's ramp limits and minimum-time counts are rescaled to the
    period durations (effective_ramp_limits, effective_min_times). The
    rampup and rampdn rows of period t are relaxed by a big-M when the unit
    is off in t (rampup) or in t-1 (rampdn): ramp_big_m "tight" uses
    max(0, SU_t - RU_t - pmin) (rampdn: SD_t - RD_t - pmin), as
    tauc.model.build_uc_model does, and "pmax" uses the paper's pmax.
    balance "shed" writes shed load as the column shed_t in [0, demand_t]
    priced at the shed cost (sum pg + pw + ps + shed_t = demand_t), as
    tauc.model.build_uc_model does; "served" writes served demand pd_t in
    [0, demand_t] priced at minus the shed cost (sum pg + pw + ps - pd_t = 0)
    and adds the price of shedding the whole forecast as objective_offset,
    the same cost with opposite signs. min_time "startup" writes minimum up
    and down times as one row per period on the start-up indicators, as
    tauc.model.build_uc_model does: su is free, with its sucost rows, for a
    unit with a start-up cost or a minimum time, and a fixing of u_t and
    u_{t-1} fixes su_t at max(0, u_t - u_{t-1}). "window" writes the
    aggregated window rows on u alone (upinit, up, upend, dninit, dn,
    dnend) from the counts of reference_min_times, with su free only for a
    unit with a start-up cost and never fixed. fixings maps variable names
    to frozen values and is applied as equality bounds.
    Rows whose variables are all fixed are removed (they are constants); any
    such row the frozen values violate is reported in pruned_violations
    rather than making the model infeasible, which is what a simulation of a
    committed plan needs.
    """
    if ramp_big_m not in ("tight", "pmax"):
        raise ValueError(f"ramp_big_m must be 'tight' or 'pmax', got {ramp_big_m!r}")
    if balance not in ("shed", "served"):
        raise ValueError(f"balance must be 'shed' or 'served', got {balance!r}")
    if min_time not in ("startup", "window"):
        raise ValueError(f"min_time must be 'startup' or 'window', got {min_time!r}")
    window = min_time == "window"
    served = balance == "served"
    demand_name = pd_name if served else shed_name
    d = period_durations(periods)
    nt = len(d)

    variables: list[Variable] = []
    for unit in system.units:
        variables.extend(Variable(u_name(unit.unit_id, t), 0.0, 1.0, binary=True) for t in range(1, nt + 1))
    for unit in system.units:
        variables.extend(Variable(pg_name(unit.unit_id, t), 0.0, unit.pmax) for t in range(1, nt + 1))

    def counts_su(unit) -> bool:
        return unit.startup_cost > 0 or (not window and (unit.min_up > 0 or unit.min_down > 0))

    for unit in system.units:
        su_ub = math.inf if counts_su(unit) else 0.0
        variables.extend(Variable(su_name(unit.unit_id, t), 0.0, su_ub) for t in range(1, nt + 1))
    variables.extend(
        Variable(pw_name(t), 0.0, periods.wind_cf[t - 1] * system.wind_capacity) for t in range(1, nt + 1)
    )
    variables.extend(
        Variable(ps_name(t), 0.0, periods.solar_cf[t - 1] * system.solar_capacity) for t in range(1, nt + 1)
    )
    variables.extend(Variable(demand_name(t), 0.0, periods.demand_mw[t - 1]) for t in range(1, nt + 1))

    rows: list[Row] = []
    for t in range(1, nt + 1):
        coeffs: dict[str, float] = {}
        for unit in system.units:
            _add(coeffs, pg_name(unit.unit_id, t), 1.0)
        _add(coeffs, pw_name(t), 1.0)
        _add(coeffs, ps_name(t), 1.0)
        _add(coeffs, demand_name(t), -1.0 if served else 1.0)
        rows.append(Row(f"bal_{t}", coeffs, "=", 0.0 if served else float(periods.demand_mw[t - 1])))

    for unit in system.units:
        uid = unit.unit_id
        ru_hat, rd_hat, su_hat, sd_hat = effective_ramp_limits(unit, d)
        if window:
            ut_init, ut_end, ut_counts, dt_init, dt_end, dt_counts = reference_min_times(unit, d)
        else:
            ut_init, ut_counts, dt_init, dt_counts = effective_min_times(unit, d)
        # commitment-linked dispatch bounds
        for t in range(1, nt + 1):
            coeffs = {pg_name(uid, t): 1.0}
            _add(coeffs, u_name(uid, t), -unit.pmin)
            rows.append(Row(f"onmin_{uid}_{t}", coeffs, ">=", 0.0))
            coeffs = {pg_name(uid, t): 1.0}
            _add(coeffs, u_name(uid, t), -unit.pmax)
            rows.append(Row(f"onmax_{uid}_{t}", coeffs, "<=", 0.0))
        # start-up indicators
        if counts_su(unit):
            for t in range(1, nt + 1):
                coeffs = {su_name(uid, t): 1.0}
                rhs = 0.0
                _add(coeffs, u_name(uid, t), -1.0)
                if t > 1:
                    _add(coeffs, u_name(uid, t - 1), 1.0)
                else:
                    rhs = float(-unit.u0)
                rows.append(Row(f"sucost_{uid}_{t}", coeffs, ">=", rhs))
        # ramping, skipped entirely for rate-unlimited units (rows are vacuous
        # once every limit clamps to pmax)
        emit_up = unit.ramp_up is not None or unit.startup_ramp is not None
        emit_dn = unit.ramp_down is not None or unit.shutdown_ramp is not None
        for t, ru, rd, suh, sdh in zip(range(1, nt + 1), ru_hat, rd_hat, su_hat, sd_hat):
            if emit_up:
                m = unit.pmax if ramp_big_m == "pmax" else max(0.0, suh - ru - unit.pmin)
                coeffs = {pg_name(uid, t): 1.0}
                rhs = m
                _add(coeffs, u_name(uid, t), m - suh)
                if t > 1:
                    _add(coeffs, pg_name(uid, t - 1), -1.0)
                    _add(coeffs, u_name(uid, t - 1), suh - ru)
                else:
                    rhs += unit.p0 + (ru - suh) * unit.u0
                rows.append(Row(f"rampup_{uid}_{t}", coeffs, "<=", rhs))
            if emit_dn:
                m = unit.pmax if ramp_big_m == "pmax" else max(0.0, sdh - rd - unit.pmin)
                coeffs = {pg_name(uid, t): -1.0}
                rhs = m
                _add(coeffs, u_name(uid, t), sdh - rd)
                if t > 1:
                    _add(coeffs, pg_name(uid, t - 1), 1.0)
                    _add(coeffs, u_name(uid, t - 1), m - sdh)
                else:
                    rhs += -unit.p0 - (m - sdh) * unit.u0
                rows.append(Row(f"rampdn_{uid}_{t}", coeffs, "<=", rhs))
        if emit_dn:
            for t, sdh in zip(range(1, nt), sd_hat):
                coeffs = {pg_name(uid, t): 1.0}
                _add(coeffs, u_name(uid, t + 1), sdh - unit.pmax)
                _add(coeffs, u_name(uid, t), -sdh)
                rows.append(Row(f"sdramp_{uid}_{t}", coeffs, "<=", 0.0))
        if not window:
            # minimum up and down times: the row of period t sums the
            # start-ups in the periods whose window, started there, covers t
            for word, hours, pin, counts in (("up", unit.min_up, ut_init, ut_counts),
                                             ("dn", unit.min_down, dt_init, dt_counts)):
                if hours <= 0:
                    continue
                for t in range(1, nt + 1):
                    first = next((a for a in range(1, t + 1) if a + int(counts[a - 1]) - 1 >= t), t + 1)
                    coeffs = {su_name(uid, a): 1.0 for a in range(first, t + 1)}
                    rhs = -1.0 if t <= pin else 0.0
                    if word == "up":
                        _add(coeffs, u_name(uid, t), -1.0)
                    elif first > 1:
                        _add(coeffs, u_name(uid, first - 1), 1.0)
                        rhs += 1.0
                    else:
                        rhs += 1.0 - unit.u0
                    rows.append(Row(f"{word}_{uid}_{t}", coeffs, "<=", rhs))
        # minimum up time
        if window and unit.min_up > 0:
            pin, end = ut_init, ut_end
            if pin >= 1:
                coeffs = {u_name(uid, t): 1.0 for t in range(1, pin + 1)}
                rows.append(Row(f"upinit_{uid}", coeffs, "=", float(pin)))
            for t in range(pin + 1, nt - end + 2):
                omega = int(ut_counts[t - 1])
                coeffs = {}
                for tau in range(t, t + omega):
                    _add(coeffs, u_name(uid, tau), 1.0)
                rhs = 0.0
                _add(coeffs, u_name(uid, t), -float(omega))
                if t > 1:
                    _add(coeffs, u_name(uid, t - 1), float(omega))
                else:
                    rhs = -float(omega) * unit.u0
                rows.append(Row(f"up_{uid}_{t}", coeffs, ">=", rhs))
            for t in range(max(2, nt - end + 2), nt + 1):
                k = float(nt - t + 1)
                coeffs = {}
                for tau in range(t, nt + 1):
                    _add(coeffs, u_name(uid, tau), 1.0)
                _add(coeffs, u_name(uid, t), -k)
                _add(coeffs, u_name(uid, t - 1), k)
                rows.append(Row(f"upend_{uid}_{t}", coeffs, ">=", 0.0))
        # minimum down time
        if window and unit.min_down > 0:
            pin, end = dt_init, dt_end
            if pin >= 1:
                coeffs = {u_name(uid, t): 1.0 for t in range(1, pin + 1)}
                rows.append(Row(f"dninit_{uid}", coeffs, "=", 0.0))
            for t in range(pin + 1, nt - end + 2):
                omega = int(dt_counts[t - 1])
                coeffs = {}
                for tau in range(t, t + omega):
                    _add(coeffs, u_name(uid, tau), -1.0)
                rhs = -float(omega)
                _add(coeffs, u_name(uid, t), float(omega))
                if t > 1:
                    _add(coeffs, u_name(uid, t - 1), -float(omega))
                else:
                    rhs += float(omega) * unit.u0
                rows.append(Row(f"dn_{uid}_{t}", coeffs, ">=", rhs))
            for t in range(max(2, nt - end + 2), nt + 1):
                k = float(nt - t + 1)
                coeffs = {}
                for tau in range(t, nt + 1):
                    _add(coeffs, u_name(uid, tau), -1.0)
                _add(coeffs, u_name(uid, t), k)
                _add(coeffs, u_name(uid, t - 1), -k)
                rows.append(Row(f"dnend_{uid}_{t}", coeffs, ">=", -k))

    objective: dict[str, float] = {}
    offset = 0.0
    for unit in system.units:
        for t in range(1, nt + 1):
            _add(objective, pg_name(unit.unit_id, t), unit.marginal_cost * d[t - 1])
            _add(objective, su_name(unit.unit_id, t), unit.startup_cost)
    for t in range(1, nt + 1):
        if served:
            _add(objective, pd_name(t), -system.load_shed_cost * d[t - 1])
            offset += system.load_shed_cost * d[t - 1] * periods.demand_mw[t - 1]
        else:
            _add(objective, shed_name(t), system.load_shed_cost * d[t - 1])

    if fixings:
        by_name = {v.name: i for i, v in enumerate(variables)}
        for name, value in fixings.items():
            if name not in by_name:
                raise KeyError(f"cannot fix unknown variable {name!r}")
            var = variables[by_name[name]]
            if var.binary:
                if abs(value - round(value)) > 1e-9 or round(value) not in (0, 1):
                    raise ValueError(f"{name}: binary fixing must be 0 or 1, got {value}")
                value = float(round(value))
            if not var.lb - 1e-9 <= value <= var.ub + 1e-9:
                raise ValueError(f"{name}: fixing {value} outside bounds [{var.lb}, {var.ub}]")
            variables[by_name[name]] = Variable(var.name, value, value, var.binary)
        if not window:
            # a start-up between two frozen commitments is frozen too
            fixed = {v.name: v.lb for v in variables if v.lb == v.ub}
            for unit in system.units:
                uid = unit.unit_id
                for t in range(1, nt + 1):
                    before = float(unit.u0) if t == 1 else fixed.get(u_name(uid, t - 1))
                    if counts_su(unit) and u_name(uid, t) in fixed and before is not None:
                        value = max(0.0, fixed[u_name(uid, t)] - before)
                        variables[by_name[su_name(uid, t)]] = Variable(su_name(uid, t), value, value)

    pruned: list[tuple[str, float]] = []
    fixed_vals = {v.name: v.lb for v in variables if v.lb == v.ub}
    kept: list[Row] = []
    for row in rows:
        if row.coeffs and all(n in fixed_vals for n in row.coeffs):
            value = sum(c * fixed_vals[n] for n, c in row.coeffs.items())
            if row.sense == "<=":
                violation = max(0.0, value - row.rhs)
            elif row.sense == ">=":
                violation = max(0.0, row.rhs - value)
            else:
                violation = abs(value - row.rhs)
            if violation > 1e-6:
                pruned.append((row.label, violation))
        else:
            kept.append(row)

    return ReferenceModel(
        variables=tuple(variables),
        constraints=tuple(kept),
        objective=objective,
        objective_offset=offset,
        pruned_violations=tuple(pruned),
    )


def reference_check_solution(model: ReferenceModel, values: dict[str, float],
                             tol: float = 1e-6) -> list[str]:
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
# exhaustive oracle


def _lower_corner(c, a, senses, rhs, lb, tol: float = 1e-9):
    """(status, objective, x) of an LP that its lower-bound corner settles
    without a simplex, else None. With c >= 0 the corner minimises c.x over
    the box, so it is optimal when it meets every row; a row it breaks in the
    direction every one of its coefficients pushes cannot be mended by
    raising variables, so the LP is infeasible."""
    if np.any(c < 0) or not np.all(np.isfinite(lb)):
        return None
    act = a @ lb
    high = np.array([s != ">=" for s in senses], dtype=bool) & (act > rhs + tol)
    low = np.array([s != "<=" for s in senses], dtype=bool) & (act < rhs - tol)
    if np.any(high & np.all(a >= 0, axis=1)) or np.any(low & np.all(a <= 0, axis=1)):
        return ("infeasible", math.inf, None)
    if high.any() or low.any():
        return None
    return ("optimal", float(c @ lb), lb.copy())


def brute_force_solve(model: UcModel,
                      max_binaries: int = ORACLE_MAX_BINARIES) -> MipSolution:
    """Exhaustive reference solve: enumerate binaries, solve LPs exactly.

    Rows touching no continuous variable are checked for all assignments at
    once; the rest decompose into connected components of continuous
    variables whose LP solutions are memoized on the binary bits they
    actually see. An LP that its lower-bound corner settles (_lower_corner)
    skips the simplex. Refuses models with more than max_binaries free binaries.
    """
    start = time.perf_counter()
    variables = model.variables
    index = {v.name: i for i, v in enumerate(variables)}
    fixed_value: dict[int, float] = {}
    free_bins: list[int] = []
    cont: list[int] = []
    for i, var in enumerate(variables):
        if var.lb == var.ub:
            fixed_value[i] = var.lb
        elif var.binary:
            free_bins.append(i)
        else:
            cont.append(i)
    k = len(free_bins)
    if k > max_binaries:
        raise ValueError(
            f"model has {k} free binaries; exhaustive search is capped at {max_binaries}")
    bin_pos = {i: p for p, i in enumerate(free_bins)}
    cont_pos = {i: p for p, i in enumerate(cont)}

    pure = []   # rows with no continuous variables
    mixed = []  # (bin_terms, const, cont_terms, sense, rhs)
    for row in model.constraints:
        const = 0.0
        bin_terms: dict[int, float] = {}
        cont_terms: dict[int, float] = {}
        for name, coef in row.coeffs.items():
            i = index[name]
            if i in fixed_value:
                const += coef * fixed_value[i]
            elif i in bin_pos:
                p = bin_pos[i]
                bin_terms[p] = bin_terms.get(p, 0.0) + coef
            else:
                p = cont_pos[i]
                cont_terms[p] = cont_terms.get(p, 0.0) + coef
        if cont_terms:
            mixed.append((sorted(bin_terms.items()), const, cont_terms,
                          row.sense, row.rhs))
        else:
            pure.append((bin_terms, const, row.sense, row.rhs))

    n_assign = 1 << k
    if k:
        bits_mat = ((np.arange(n_assign)[:, None] >> np.arange(k)) & 1).astype(np.int8)
    else:
        bits_mat = np.zeros((1, 0), dtype=np.int8)
    mask = np.ones(bits_mat.shape[0], dtype=bool)
    tol = 1e-9
    for bin_terms, const, sense, rhs in pure:
        vec = np.zeros(k)
        for p, coef in bin_terms.items():
            vec[p] = coef
        vals = bits_mat @ vec + const
        if sense == "<=":
            mask &= vals <= rhs + tol
        elif sense == ">=":
            mask &= vals >= rhs - tol
        else:
            mask &= np.abs(vals - rhs) <= tol
    candidates = np.flatnonzero(mask)
    elapsed = lambda: time.perf_counter() - start  # noqa: E731
    if candidates.size == 0:
        return MipSolution("infeasible", None, None, None, elapsed(),
                           "every binary assignment violates a binary-only row")

    # connected components over continuous variables
    parent = list(range(len(cont)))

    def find(x: int) -> int:
        while parent[x] != x:
            parent[x] = parent[parent[x]]
            x = parent[x]
        return x

    for _, _, cont_terms, _, _ in mixed:
        ps = list(cont_terms)
        root = find(ps[0])
        for p in ps[1:]:
            parent[find(p)] = root

    comp_rows: dict[int, list[int]] = {}
    comp_vars: dict[int, list[int]] = {}
    for p in range(len(cont)):
        comp_vars.setdefault(find(p), []).append(p)
    for ri, (_, _, cont_terms, _, _) in enumerate(mixed):
        comp_rows.setdefault(find(next(iter(cont_terms))), []).append(ri)

    obj_of = objective_terms(model)

    class _Comp:
        __slots__ = ("vars", "key_bins", "a", "senses", "rhs_base", "bin_rows",
                     "folds", "c", "lb", "ub")

    comps: list[_Comp] = []
    attached = set()
    for root, vps in comp_vars.items():
        row_ids = comp_rows.get(root)
        if not row_ids:
            continue  # variables with no rows are handled in closed form
        comp = _Comp()
        comp.vars = sorted(vps)
        attached.update(comp.vars)
        local = {p: j for j, p in enumerate(comp.vars)}
        nv = len(comp.vars)
        arows: list[np.ndarray] = []
        comp.senses = []
        rhs_base: list[float] = []
        comp.bin_rows = []
        comp.folds = []  # single-variable rows become bounds per assignment
        keyset: set[int] = set()
        for ri in row_ids:
            bin_terms, const, cont_terms, sense, rhs = mixed[ri]
            keyset.update(p for p, _ in bin_terms)
            if len(cont_terms) == 1:
                (p, coef), = cont_terms.items()
                comp.folds.append((local[p], coef, sense, rhs - const, bin_terms))
                continue
            arow = np.zeros(nv)
            for p, coef in cont_terms.items():
                arow[local[p]] = coef
            arows.append(arow)
            comp.senses.append(sense)
            rhs_base.append(rhs - const)
            comp.bin_rows.append(bin_terms)
        comp.a = np.array(arows).reshape(len(arows), nv)
        comp.rhs_base = np.array(rhs_base)
        comp.key_bins = np.array(sorted(keyset), dtype=np.intp)
        comp.c = np.array([obj_of.get(variables[cont[p]].name, 0.0) for p in comp.vars])
        comp.lb = np.array([variables[cont[p]].lb for p in comp.vars])
        comp.ub = np.array([variables[cont[p]].ub for p in comp.vars])
        comps.append(comp)

    base_obj = 0.0
    for i, val in fixed_value.items():
        base_obj += obj_of.get(variables[i].name, 0.0) * val
    obj_bin = np.zeros(k)
    for p, i in enumerate(free_bins):
        obj_bin[p] = obj_of.get(variables[i].name, 0.0)

    loose_values: dict[int, float] = {}
    loose_unbounded = False
    for p in range(len(cont)):
        if p in attached:
            continue
        var = variables[cont[p]]
        coef = obj_of.get(var.name, 0.0)
        if coef > 0 or (coef == 0 and math.isfinite(var.lb)):
            if not math.isfinite(var.lb):
                loose_unbounded = True
                break
            loose_values[p] = var.lb
        elif coef < 0:
            if not math.isfinite(var.ub):
                loose_unbounded = True
                break
            loose_values[p] = var.ub
        else:
            loose_values[p] = var.ub if math.isfinite(var.ub) else 0.0
    loose_cost = sum(obj_of.get(variables[cont[p]].name, 0.0) * v
                     for p, v in loose_values.items())

    best_total = math.inf
    best_bits: np.ndarray | None = None
    best_xs: list[np.ndarray] | None = None
    memo: list[dict[bytes, tuple[str, float, np.ndarray | None]]] = [dict() for _ in comps]
    for idx in candidates:
        bits = bits_mat[idx]
        total = base_obj + loose_cost + float(obj_bin @ bits)
        xs: list[np.ndarray] = []
        feasible = True
        for ci, comp in enumerate(comps):
            key = bits[comp.key_bins].tobytes()
            cached = memo[ci].get(key)
            if cached is None:
                rhs = comp.rhs_base.copy()
                for rj, bin_terms in enumerate(comp.bin_rows):
                    for p, coef in bin_terms:
                        rhs[rj] -= coef * bits[p]
                lb = comp.lb.copy()
                ub = comp.ub.copy()
                for j, coef, sense, base, bin_terms in comp.folds:
                    bound = base - sum(c_ * bits[p] for p, c_ in bin_terms)
                    bound /= coef
                    if sense == "=":
                        lb[j] = max(lb[j], bound)
                        ub[j] = min(ub[j], bound)
                    elif (sense == "<=") == (coef > 0):
                        ub[j] = min(ub[j], bound)
                    else:
                        lb[j] = max(lb[j], bound)
                if np.any(lb > ub + 1e-9):
                    cached = ("infeasible", math.inf, None)
                else:
                    cached = _lower_corner(comp.c, comp.a, comp.senses, rhs, lb)
                if cached is None:
                    res = solve_lp(comp.c, comp.a, comp.senses, rhs, lb, ub)
                    cached = (res.status, res.objective, res.x)
                memo[ci][key] = cached
            status, obj, x = cached
            if status == "infeasible":
                feasible = False
                break
            if status == "unbounded":
                return MipSolution("unbounded", None, None, None, elapsed(),
                                   "continuous subproblem unbounded under a feasible commitment")
            total += obj
            xs.append(x)
        if not feasible:
            continue
        if loose_unbounded:
            return MipSolution("unbounded", None, None, None, elapsed(),
                               "an unconstrained variable improves the objective without limit")
        if total < best_total:
            best_total = total
            best_bits = bits.copy()
            best_xs = [x.copy() for x in xs]
    if best_bits is None:
        return MipSolution("infeasible", None, None, None, elapsed(),
                           "no binary assignment admits a feasible dispatch")

    values: dict[str, float] = {}
    for i, val in fixed_value.items():
        values[variables[i].name] = float(val)
    for p, i in enumerate(free_bins):
        values[variables[i].name] = float(best_bits[p])
    for comp, x in zip(comps, best_xs):
        for j, p in enumerate(comp.vars):
            values[variables[cont[p]].name] = float(x[j])
    for p, val in loose_values.items():
        values[variables[cont[p]].name] = float(val)
    x = np.array([values[var.name] for var in variables])
    return MipSolution("optimal", float(best_total), x, 0.0, elapsed(),
                       f"exhaustive search over {k} binaries, "
                       f"{candidates.size} candidate assignments")


# ---------------------------------------------------------------------------
# Ward merge cost


def ward_distance(size_i: int, centroid_i: np.ndarray, size_j: int, centroid_j: np.ndarray) -> float:
    """Merge cost between two clusters: the increase in within-cluster variance."""
    if size_i <= 0 or size_j <= 0:
        raise ValueError("cluster sizes must be positive")
    diff = np.asarray(centroid_i, dtype=float) - np.asarray(centroid_j, dtype=float)
    return 2.0 * size_i * size_j / (size_i + size_j) * float(np.dot(diff, diff))


def quadratic_cluster(values: np.ndarray, target_n: int) -> tuple[tuple, tuple]:
    """Adjacent Ward clustering by full recomputation: (cluster bounds, merge costs)."""
    n = len(values)
    bounds = [(i, i + 1) for i in range(n)]
    centroids = np.asarray(values, dtype=float).copy()
    sizes = np.ones(n, dtype=float)
    merges: list[float] = []
    while len(bounds) > target_n:
        left_s, right_s = sizes[:-1], sizes[1:]
        diff = centroids[:-1] - centroids[1:]
        # columns summed from the first: einsum's order varies with its SIMD path
        sq = sum(diff[:, j] * diff[:, j] for j in range(diff.shape[1]))
        dist = 2.0 * left_s * right_s / (left_s + right_s) * sq
        dist = np.round(dist, 12)
        k = int(np.argmin(dist))
        merges.append(float(dist[k]))
        merged_size = sizes[k] + sizes[k + 1]
        merged_centroid = (sizes[k] * centroids[k] + sizes[k + 1] * centroids[k + 1]) / merged_size
        bounds[k] = (bounds[k][0], bounds[k + 1][1])
        del bounds[k + 1]
        centroids = np.delete(centroids, k + 1, axis=0)
        centroids[k] = merged_centroid
        sizes = np.delete(sizes, k + 1)
        sizes[k] = merged_size
    return tuple(bounds), tuple(merges)


def slice_means(values: np.ndarray, bounds) -> np.ndarray:
    """Each period's rows of values averaged, one slice per (start, stop)."""
    return np.array([values[a:b].mean(axis=0) for a, b in bounds])
