"""Span tracer that wraps tempclique's public functions from the outside.

Each wrapped function is replaced at the module attribute its caller looks up
at call time (for example `tempclique.experiments.solve_max_delta_clique`), so
no program code changes.  A call becomes a span with its name, layer, start,
end, process CPU time and parent.  Parents are tracked per thread: a span
opened on a worker thread with no open span of its own is parented to the
`run_indexed` call that started the pool.  Functions called once per trial or
more, 10^4 or more times in a large op, are aggregated into a count and a
total time instead of spans.
"""

from __future__ import annotations

import contextlib
import functools
import importlib
import itertools
import os
import statistics
import threading
import time
from collections import defaultdict

# (module, attribute, layer) recorded as one span per call.
SPAN_POINTS = [
    ("tempclique.cli", "main", "cli"),
    ("tempclique.cli", "read_temporal_graph", "io"),
    ("tempclique.cli", "solve_max_delta_clique", "solver"),
    ("tempclique.cli", "threshold_sweep", "experiments"),
    ("tempclique.experiments", "run_indexed", "experiments"),
    ("tempclique.experiments", "generate_random_complete", "graphs"),
    ("tempclique.experiments", "solve_max_delta_clique", "solver"),
    ("tempclique.experiments", "atomic_write_text", "io"),
    ("tempclique.solver", "max_delta_clique_exact", "solver"),
    ("tempclique.solver", "max_delta_clique_heuristic", "solver"),
    ("tempclique.solver", "delta_clique_check", "graphs"),
]
# (module, class, method, layer): methods looked up on the class by callers.
METHOD_POINTS = [
    ("tempclique.experiments", "ExperimentReport", method, "experiments")
    for method in ("from_trials", "csv_text", "json_text", "write")
]
# (module, attribute, layer) recorded as a count and a total time only.
AGGREGATE_POINTS = [
    ("tempclique.experiments", "derive_seed", "seeds"),
    ("tempclique.solver", "derive_seed", "seeds"),
    ("tempclique.experiments", "k0_threshold", "analytics"),
]
# span name -> how much work a call carries, read from its positional arguments.
AMOUNTS = {
    "io.read_temporal_graph": lambda args: os.path.getsize(args[0]),
    "io.atomic_write_text": lambda args: len(args[1].encode()),
    "solver.max_delta_clique_exact": lambda args: args[0].m,
    "solver.max_delta_clique_heuristic": lambda args: args[0].m,
}
POOL = "experiments.run_indexed"


def _span_name(fn) -> str:
    return f"{fn.__module__.rpartition('.')[2]}.{fn.__qualname__}"


class Span:
    __slots__ = ("id", "name", "layer", "parent", "thread", "start", "end", "cpu", "nested", "amount")

    def __init__(self, span_id: int, name: str, layer: str, parent: "Span | None"):
        self.id = span_id
        self.name = name
        self.layer = layer
        self.parent = parent
        self.thread = threading.get_ident()
        self.nested = 0.0  # time of aggregated calls made directly inside this span
        self.amount = None

    def as_dict(self, op: int) -> dict:
        return {
            "op": op,
            "id": self.id,
            "name": self.name,
            "layer": self.layer,
            "parent": self.parent.id if self.parent else None,
            "thread": self.thread,
            "start": self.start,
            "end": self.end,
            "cpu": self.cpu,
            "amount": self.amount,
        }


class Tracer:
    """Spans and aggregates of one op; install with `installed()` around the op."""

    def __init__(self):
        self.spans: list[Span] = []
        self.aggregates: dict[str, list] = {}  # name -> [layer, calls, seconds]
        self.errors: dict[str, int] = defaultdict(int)  # layer -> exceptions raised
        self._ids = itertools.count()
        self._lock = threading.Lock()
        self._local = threading.local()
        self._pool: Span | None = None

    def _stack(self) -> list[Span]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def _owner(self, stack: list[Span]) -> Span | None:
        return stack[-1] if stack else self._pool

    def _span_wrapper(self, fn, layer: str):
        name = _span_name(fn)
        amount = AMOUNTS.get(name)

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            stack = self._stack()
            span = Span(next(self._ids), name, layer, self._owner(stack))
            stack.append(span)
            if name == POOL:
                outer_pool, self._pool = self._pool, span
            span.cpu = -time.process_time()
            span.start = time.perf_counter()
            try:
                return fn(*args, **kwargs)
            except Exception:
                with self._lock:
                    self.errors[layer] += 1
                raise
            finally:
                span.end = time.perf_counter()
                span.cpu += time.process_time()
                stack.pop()
                if name == POOL:
                    self._pool = outer_pool
                if amount is not None:
                    span.amount = amount(args)
                self.spans.append(span)

        return wrapper

    def _aggregate_wrapper(self, fn, layer: str):
        name = _span_name(fn)
        entry = self.aggregates.setdefault(name, [layer, 0, 0.0])

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            start = time.perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                took = time.perf_counter() - start
                owner = self._owner(self._stack())
                with self._lock:
                    entry[1] += 1
                    entry[2] += took
                    if owner is not None:
                        owner.nested += took

        return wrapper

    @contextlib.contextmanager
    def installed(self):
        """Patch every trace point for the duration of the block."""
        saved = []

        def patch(owner, attr, value):
            saved.append((owner, attr, owner.__dict__[attr]))
            setattr(owner, attr, value)

        try:
            for module, attr, layer in SPAN_POINTS:
                mod = importlib.import_module(module)
                patch(mod, attr, self._span_wrapper(getattr(mod, attr), layer))
            for module, attr, layer in AGGREGATE_POINTS:
                mod = importlib.import_module(module)
                patch(mod, attr, self._aggregate_wrapper(getattr(mod, attr), layer))
            for module, cls_name, method, layer in METHOD_POINTS:
                cls = getattr(importlib.import_module(module), cls_name)
                raw = cls.__dict__[method]
                if isinstance(raw, classmethod):
                    patch(cls, method, classmethod(self._span_wrapper(raw.__func__, layer)))
                else:
                    patch(cls, method, self._span_wrapper(raw, layer))
            yield self
        finally:
            for owner, attr, value in reversed(saved):
                setattr(owner, attr, value)

    def layer_metrics(self, op_wall: float) -> dict[str, float]:
        """Per-layer metrics of the op this tracer recorded."""
        children = defaultdict(list)
        for span in self.spans:
            if span.parent is not None:
                children[span.parent.id].append((span.start, span.end))
        by_layer = defaultdict(float)
        self_time = defaultdict(float)
        total = defaultdict(float)
        calls = defaultdict(int)
        amount = defaultdict(float)
        cpu = defaultdict(float)
        for span in self.spans:
            own = span.end - span.start - _covered(span, children[span.id]) - span.nested
            by_layer[span.layer] += own
            self_time[span.name] += own
            total[span.name] += span.end - span.start
            calls[span.name] += 1
            cpu[span.name] += span.cpu
            if span.amount is not None:
                amount[span.name] += span.amount
        agg_calls = defaultdict(int)
        for name, (layer, count, seconds) in self.aggregates.items():
            by_layer[layer] += seconds
            agg_calls[layer] += count
        exact, heuristic = "solver.max_delta_clique_exact", "solver.max_delta_clique_heuristic"
        csv_text = "experiments.ExperimentReport.csv_text"
        return {
            "solver.exact_self_s": self_time[exact],
            "solver.exact_calls": calls[exact],
            "solver.exact_edges": amount[exact],
            "solver.heuristic_self_s": self_time[heuristic],
            "solver.heuristic_calls": calls[heuristic],
            "solver.errors": self.errors["solver"],
            "graphs.errors": self.errors["graphs"],
            "io.errors": self.errors["io"],
            "experiments.parallelism": cpu[POOL] / total[POOL] if calls[POOL] else 0.0,
            "experiments.self_s": by_layer["experiments"],
            "experiments.records_s": total["experiments.ExperimentReport.from_trials"],
            "experiments.csv_s": total[csv_text],
            "experiments.csv_calls": calls[csv_text],
            "seeds.derive_seed_calls": agg_calls["seeds"],
            "io.write_s": total["io.atomic_write_text"],
            "io.write_bytes": amount["io.atomic_write_text"],
            "io.read_s": total["io.read_temporal_graph"],
            "io.read_bytes": amount["io.read_temporal_graph"],
            "graphs.generate_s": total["graphs.generate_random_complete"],
            "graphs.generate_calls": calls["graphs.generate_random_complete"],
            "graphs.check_s": total["graphs.delta_clique_check"],
            "graphs.check_calls": calls["graphs.delta_clique_check"],
            "cli.self_s": by_layer["cli"],
            "analytics.calls": agg_calls["analytics"],
            "trace.coverage": sum(by_layer.values()) / op_wall,
        }

    def solve_walls(self) -> dict[str, list[float]]:
        """Wall time of each solver call, keyed by route and instance size."""
        out = defaultdict(list)
        for span in self.spans:
            if span.name in AMOUNTS and span.layer == "solver":
                route = span.name.rpartition("_")[2]
                out[f"{route} m={int(span.amount)}"].append(span.end - span.start)
        return out

    def records(self, op: int) -> list[dict]:
        return [span.as_dict(op) for span in self.spans]


def _covered(span: Span, intervals: list[tuple[float, float]]) -> float:
    """Length of the union of child intervals, clipped to the span."""
    covered, reach = 0.0, span.start
    for start, end in sorted(intervals):
        start, end = max(start, reach), min(end, span.end)
        if end > start:
            covered += end - start
            reach = end
    return covered


def median_metrics(per_op: list[dict[str, float]]) -> dict[str, float]:
    return {key: statistics.median(m[key] for m in per_op) for key in per_op[0]}
