"""Span recorder that wraps tauc's public functions at each layer boundary.

Wrappers replace names in the calling module's namespace (for example
``tauc.simulation.solve`` and ``tauc.solver.milp``), so nothing under
``src/tauc`` changes. Each call records a span with its name, layer, start,
end, parent, thread and operation id. Spans stay in memory until the run
writes them out. Parents come from a per-thread stack; a span opened on a
thread with an empty stack belongs to the operation's root span, so the
attribution stays right once solves run on worker threads.
"""
from __future__ import annotations

import contextlib
import inspect
import threading
import time
from collections import defaultdict
from dataclasses import asdict, dataclass


@dataclass
class Span:
    sid: int
    name: str
    layer: str
    group: str
    start: float
    end: float
    parent: int | None
    thread: int
    op: int

    @property
    def duration(self) -> float:
        return self.end - self.start


def _observe_rows(rec, op, result, bound):
    rec.add(op, "ingestion.rows", result.series.n_points)


def _observe_grid(rec, op, result, bound):
    rec.add(op, "aggregation.merges", len(result.merge_distances))


def _observe_model(rec, op, result, bound):
    rec.add(op, "model.rows", len(result.constraints))
    rec.add(op, "model.cols", len(result.variables))
    rec.add(op, "model.binaries", result.n_binaries)
    rec.add(op, "model.nnz", sum(len(row.coeffs) for row in result.constraints))


def _observe_milp(rec, op, result, bound):
    rec.add(op, "solver.nodes", int(getattr(result, "mip_node_count", 0) or 0))
    gap = getattr(result, "mip_gap", None)
    if gap is not None:
        rec.maximum(op, "solver.gap_max", float(gap))


def _observe_solve(rec, op, result, bound):
    rec.add(op, "solver.solves", 1)
    rec.add(op, "solver.not_optimal", int(result.status != "optimal"))


def _observe_rolling(rec, op, result, bound):
    skipped = sum(1 for r in result if r.warning)
    rec.add(op, "simulation.days", len(result) - skipped)
    rec.add(op, "simulation.skipped", skipped)


def _observe_plan(rec, op, result, bound):
    rec.objectives.append((op, bound.arguments.get("label", ""), result.mode, result.objective))


# (module, attribute, layer, group, observer). The module is where the name is
# looked up at call time, i.e. the caller's namespace.
BOUNDARIES = (
    ("tauc.cli", "load_scenario", "ingestion", "ingestion.load", None),
    ("tauc.cli", "load_timeseries", "ingestion", "ingestion.load", _observe_rows),
    ("tauc.cli", "build_portfolio", "ingestion", "ingestion.fleet", None),
    ("tauc.cli", "compute_installed_capacity", "ingestion", "ingestion.fleet", None),
    ("tauc.cli", "normalize_features", "aggregation", "aggregation.grid", None),
    ("tauc.cli", "cluster_adjacent", "aggregation", "aggregation.cluster", _observe_grid),
    ("tauc.cli", "run_rolling_horizon", "simulation", "simulation.rolling", _observe_rolling),
    ("tauc.simulation", "compare_day", "simulation", "simulation.compare", None),
    ("tauc.simulation", "run_day_ahead", "simulation", "simulation.da", _observe_plan),
    ("tauc.simulation", "run_real_time", "simulation", "simulation.rt", None),
    ("tauc.simulation", "normalize_features", "aggregation", "aggregation.grid", None),
    ("tauc.simulation", "hourly_grid", "aggregation", "aggregation.grid", None),
    ("tauc.simulation", "singleton_grid", "aggregation", "aggregation.grid", None),
    ("tauc.simulation", "reduce_series", "aggregation", "aggregation.grid", None),
    ("tauc.simulation", "cluster_adjacent", "aggregation", "aggregation.cluster", _observe_grid),
    ("tauc.simulation", "build_uc_model", "model", "model.build", _observe_model),
    ("tauc.simulation", "solve", "solver", "solver.assembly", _observe_solve),
    ("tauc.simulation", "fix_from_plan", "simulation", "simulation.unpack", None),
    ("tauc.simulation", "extract_schedule", "simulation", "simulation.unpack", None),
    ("tauc.simulation", "operating_cost", "simulation", "simulation.unpack", None),
    ("tauc.simulation", "generation_shares", "simulation", "simulation.unpack", None),
    ("tauc.solver", "milp", "solver", "solver.highs", _observe_milp),
    ("tauc.solver", "check_solution", "solver", "solver.audit", None),
)

LAYERS = ("cli", "ingestion", "aggregation", "model", "solver", "simulation")

COUNTS = (
    "aggregation.merges",
    "ingestion.rows",
    "model.rows",
    "model.cols",
    "model.binaries",
    "model.nnz",
    "solver.solves",
    "solver.nodes",
    "solver.gap_max",
    "solver.not_optimal",
    "simulation.days",
    "simulation.skipped",
)


class Recorder:
    """In-memory spans and counters for the operations of one run."""

    def __init__(self) -> None:
        self.spans: list[Span] = []
        self.counts: dict[int, dict[str, float]] = defaultdict(lambda: dict.fromkeys(COUNTS, 0))
        self.objectives: list[tuple[int, str, str, float]] = []
        self._lock = threading.Lock()
        self._local = threading.local()
        self._next_id = 0
        self._op = 0
        self._root: int | None = None

    def add(self, op: int, key: str, value: float) -> None:
        with self._lock:
            self.counts[op][key] += value

    def maximum(self, op: int, key: str, value: float) -> None:
        with self._lock:
            self.counts[op][key] = max(self.counts[op][key], value)

    def _stack(self) -> list[int]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    @contextlib.contextmanager
    def span(self, name: str, layer: str, group: str):
        stack = self._stack()
        with self._lock:
            sid = self._next_id
            self._next_id += 1
        parent = stack[-1] if stack else self._root
        op = self._op
        stack.append(sid)
        start = time.perf_counter()
        try:
            yield op
        finally:
            end = time.perf_counter()
            stack.pop()
            with self._lock:
                self.spans.append(
                    Span(sid, name, layer, group, start, end, parent, threading.get_ident(), op)
                )

    def operation(self, op: int, fn, *args):
        """Run fn(*args) as operation op under a root span in the cli layer."""
        self._op = op
        with self.span("tauc.cli.main", "cli", "cli"):
            self._root = self._stack()[-1]
            try:
                return fn(*args)
            finally:
                self._root = None

    def wrapper(self, original, name, layer, group, observe):
        signature = inspect.signature(original)

        def traced(*args, **kwargs):
            with self.span(name, layer, group) as op:
                result = original(*args, **kwargs)
            if observe is not None:
                observe(self, op, result, signature.bind(*args, **kwargs))
            return result

        traced.__wrapped__ = original
        return traced

    @contextlib.contextmanager
    def installed(self):
        """Wrap every boundary for the duration of the block, then restore."""
        import importlib

        patched = []
        try:
            for module_name, attr, layer, group, observe in BOUNDARIES:
                module = importlib.import_module(module_name)
                original = getattr(module, attr)
                name = f"{module_name}.{attr}"
                setattr(module, attr, self.wrapper(original, name, layer, group, observe))
                patched.append((module, attr, original))
            yield self
        finally:
            for module, attr, original in reversed(patched):
                setattr(module, attr, original)

    def to_json(self) -> list[dict]:
        return [asdict(s) for s in self.spans]


def covered(intervals: list[tuple[float, float]], lo: float, hi: float) -> float:
    """Length of the union of intervals, clipped to [lo, hi]."""
    total = 0.0
    cur_lo = cur_hi = None
    for a, b in sorted(intervals):
        a, b = max(a, lo), min(b, hi)
        if b <= a:
            continue
        if cur_hi is None or a > cur_hi:
            if cur_hi is not None:
                total += cur_hi - cur_lo
            cur_lo, cur_hi = a, b
        else:
            cur_hi = max(cur_hi, b)
    if cur_hi is not None:
        total += cur_hi - cur_lo
    return total


def self_times(spans: list[Span]) -> dict[int, float]:
    """Each span's duration minus the part of it that its children cover."""
    children: dict[int, list[tuple[float, float]]] = defaultdict(list)
    for s in spans:
        if s.parent is not None:
            children[s.parent].append((s.start, s.end))
    return {s.sid: s.duration - covered(children[s.sid], s.start, s.end) for s in spans}


def layer_metrics(spans: list[Span], counts: dict[int, dict[str, float]]) -> dict[str, float]:
    """Per-operation layer figures: mean seconds per traced operation, and
    the counters of the first operation."""
    roots = [s for s in spans if s.parent is None]
    n = len(roots)
    own = self_times(spans)
    by_group: dict[str, float] = defaultdict(float)
    by_layer: dict[str, float] = dict.fromkeys(LAYERS, 0.0)
    inclusive: dict[str, float] = defaultdict(float)
    for s in spans:
        by_group[s.group] += own[s.sid]
        by_layer[s.layer] += own[s.sid]
        inclusive[s.group] += s.duration
    root_total = sum(s.duration for s in roots)
    out = {
        "aggregation.cluster_s": by_group["aggregation.cluster"] / n,
        "aggregation.grid_s": by_group["aggregation.grid"] / n,
        "ingestion.load_s": by_group["ingestion.load"] / n,
        "model.build_s": by_group["model.build"] / n,
        "solver.highs_s": by_group["solver.highs"] / n,
        "solver.audit_s": by_group["solver.audit"] / n,
        "solver.assembly_s": by_group["solver.assembly"] / n,
        "simulation.da_s": inclusive["simulation.da"] / n,
        "simulation.rt_s": inclusive["simulation.rt"] / n,
        "simulation.unpack_s": by_group["simulation.unpack"] / n,
        "simulation.self_s": by_group["simulation.rolling"] / n,
        "simulation.solve_overlap": inclusive["solver.assembly"] / root_total,
        "cli.self_s": by_group["cli"] / n,
    }
    for layer in LAYERS[1:]:  # the cli layer's self time is cli.self_s
        out[f"self.{layer}_s"] = by_layer[layer] / n
    out["trace.wall_s"] = root_total / n
    out["trace.layer_sum_s"] = sum(by_layer.values()) / n
    first = counts[roots[0].op]
    out.update({key: first[key] for key in COUNTS})
    return out

