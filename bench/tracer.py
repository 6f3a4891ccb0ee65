"""Outside-in tracing of srnoma's layers for the benchmark's traced run.

The package is not changed: each public function or method the benchmark
reports on is replaced, for the duration of the traced pass, by a wrapper
that records a span (name, start, end, parent span, thread) and per-name
counts in memory.  A function is replaced under every name a srnoma module
binds it to, because callers look it up there (``srnoma.env.rate_report``,
``srnoma.harness.decode_action``, ...), not only where it is defined.
Spans are written out once, when the run ends.
"""

from __future__ import annotations

import functools
import itertools
import json
from array import array
import sys
import threading
import time

# (layer name, module that defines it, attribute) for plain functions
FUNCTIONS = (
    ("network.draw_realization", "srnoma.network", "draw_realization"),
    ("network.make_placement", "srnoma.network", "make_placement"),
    ("env.decode_action", "srnoma.env", "decode_action"),
    ("rates.rate_report", "srnoma.rates", "rate_report"),
    ("problem.evaluate_constraints", "srnoma.problem", "evaluate_constraints"),
    ("harness.evaluate_decision", "srnoma.harness", "evaluate_decision"),
    ("harness.random_search", "srnoma.harness", "random_search"),
    ("harness.grid_oracle", "srnoma.harness", "grid_oracle"),
    ("agents.train", "srnoma.agents.train", "train"),
)

# (layer name, module, class, method); several methods may share one name
METHODS = (
    ("env.step", "srnoma.env", "SrEnv", "step"),
    ("nn.Mlp.forward", "srnoma.nn", "Mlp", "forward"),
    ("nn.Mlp.forward_cached", "srnoma.nn", "Mlp", "forward_cached"),
    ("nn.Mlp.backward", "srnoma.nn", "Mlp", "backward"),
    ("nn.optimizer.step", "srnoma.nn", "Sgd", "step"),
    ("nn.optimizer.step", "srnoma.nn", "Adam", "step"),
    ("nn.GaussianPolicy.sample", "srnoma.nn", "GaussianPolicy", "sample"),
    ("agents.ppo.update", "srnoma.agents.ppo", "PpoAgent", "update"),
    ("agents.td3.update", "srnoma.agents.td3", "Td3Agent", "update"),
    ("agents.a3c.snapshot", "srnoma.agents.a3c", "A3cAgent", "snapshot"),
    ("agents.a3c.apply_gradients", "srnoma.agents.a3c", "A3cAgent", "apply_gradients"),
    ("agents.a3c.segment_gradients", "srnoma.agents.a3c", "A3cAgent", "segment_gradients"),
)


def _forward_rows(args, kwargs, result) -> dict:
    x = args[1] if len(args) > 1 else kwargs["x"]
    return {"rows": 1 if getattr(x, "ndim", 1) == 1 else len(x)}


def _search_counts(args, kwargs, result) -> dict:
    return {"feasible": result.feasible_count, "evaluated": result.evaluated}


def _ppo_samples(args, kwargs, result) -> dict:
    agent, states = args[0], args[1]
    return {"samples": len(states) * agent.update_epochs}


def _train_counts(args, kwargs, result) -> dict:
    agent, _ = result
    dropped = getattr(agent, "dropped_samples", None)
    return {} if dropped is None else {"ppo_dropped": dropped}


SPAN_FIELDS = ("id", "parent", "name", "thread", "start_ns", "end_ns")

# extra per-call counts, keyed by layer name
COUNTERS = {
    "nn.Mlp.forward": _forward_rows,
    "harness.random_search": _search_counts,
    "harness.grid_oracle": _search_counts,
    "agents.ppo.update": _ppo_samples,
    "agents.train": _train_counts,
}


class Tracer:
    """Spans and counts kept in memory; thread-safe (A3C workers are threads).

    Per layer name it keeps the call count, total time, and the time covered
    by timed child spans on the same thread (for self time).  The first
    ``span_cap`` spans are kept individually; later ones are only counted.
    """

    def __init__(self, span_cap: int = 200_000) -> None:
        self.span_cap = span_cap
        self.totals: dict = {}  # name -> [calls, total_ns, child_ns]
        self.counts: dict = {}  # (name, counter) -> sum
        # span columns as typed arrays: a list of tuples would be tracked by the
        # cyclic garbage collector and slow every traced call as it grows
        self.span_columns = tuple(array("q") for _ in SPAN_FIELDS)
        self.span_names: dict = {}  # name -> index stored in the "name" column
        self.spans_dropped = 0
        self.patched_at: dict = {}  # layer name -> list of "module.attr" bindings
        self._ids = itertools.count()
        self._lock = threading.Lock()
        self._local = threading.local()
        self._restore: list = []

    def _wrap(self, name: str, fn):
        counter = COUNTERS.get(name)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            stack = self._local.__dict__.setdefault("stack", [])
            parent = stack[-1] if stack else None
            frame = [0, next(self._ids)]  # [child ns, span id]
            stack.append(frame)
            start = time.perf_counter_ns()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = time.perf_counter_ns()
                stack.pop()
                if parent is not None:
                    parent[0] += end - start
                self._record(name, frame, parent, start, end)
            if counter is not None:
                self._count(name, counter(args, kwargs, result))
            return result

        return traced

    def _record(self, name, frame, parent, start, end) -> None:
        with self._lock:
            entry = self.totals.setdefault(name, [0, 0, 0])
            entry[0] += 1
            entry[1] += end - start
            entry[2] += frame[0]
            if len(self.span_columns[0]) < self.span_cap:
                row = (frame[1], -1 if parent is None else parent[1],
                       self.span_names.setdefault(name, len(self.span_names)),
                       threading.get_native_id(), start, end)
                for column, value in zip(self.span_columns, row):
                    column.append(value)
            else:
                self.spans_dropped += 1

    def _count(self, name: str, values: dict) -> None:
        with self._lock:
            for key, value in values.items():
                self.counts[(name, key)] = self.counts.get((name, key), 0) + value

    def install(self) -> None:
        """Replace every listed function and method by its traced wrapper."""
        modules = [m for key, m in list(sys.modules.items())
                   if m is not None and (key == "srnoma" or key.startswith("srnoma."))]
        for name, module_name, attr in FUNCTIONS:
            original = getattr(sys.modules[module_name], attr)
            traced = self._wrap(name, original)
            for module in modules:
                if module.__dict__.get(attr) is original:
                    self._restore.append((module, attr, original))
                    setattr(module, attr, traced)
                    self.patched_at.setdefault(name, []).append(f"{module.__name__}.{attr}")
        for name, module_name, cls_name, attr in METHODS:
            cls = getattr(sys.modules[module_name], cls_name)
            original = cls.__dict__[attr]
            self._restore.append((cls, attr, original))
            setattr(cls, attr, self._wrap(name, original))
            self.patched_at.setdefault(name, []).append(f"{module_name}.{cls_name}.{attr}")

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._restore):
            setattr(owner, attr, original)
        self._restore.clear()

    def calls(self, name: str) -> int:
        return self.totals.get(name, [0, 0, 0])[0]

    def mean_us(self, name: str, self_time: bool = False) -> float:
        calls, total, child = self.totals.get(name, [0, 0, 0])
        if not calls:
            return 0.0
        return ((total - child) if self_time else total) / calls / 1e3

    def total_s(self, name: str) -> float:
        return self.totals.get(name, [0, 0, 0])[1] / 1e9

    def count(self, name: str, key: str) -> float:
        return self.counts.get((name, key), 0)

    def write(self, path) -> None:
        """One JSON header line (totals, counts, bindings, span names), then one
        span per line as a list in SPAN_FIELDS order (parent -1: a root span)."""
        with open(path, "w") as fh:
            header = {
                "totals": {k: {"calls": v[0], "total_ns": v[1], "child_ns": v[2]}
                           for k, v in sorted(self.totals.items())},
                "counts": {f"{k[0]}:{k[1]}": v for k, v in sorted(self.counts.items())},
                "patched_at": self.patched_at,
                "spans_kept": len(self.span_columns[0]),
                "spans_dropped": self.spans_dropped,
                "span_fields": SPAN_FIELDS,
                "span_names": [n for n, _ in sorted(self.span_names.items(), key=lambda e: e[1])],
            }
            fh.write(json.dumps(header) + "\n")
            for row in zip(*self.span_columns):
                fh.write(json.dumps(row) + "\n")


def layer_metrics(tracer: Tracer, untraced: dict, traced: dict) -> dict:
    """Per-layer metrics of a traced pass, with their units, plus the tracing
    overhead: 1 - traced/untraced for each end-to-end median."""
    metrics = {}

    def put(name, value, unit):
        metrics[name] = {"value": value, "unit": unit}

    def timing(layer, *, calls=True, self_time=False, unit="us"):
        if calls:
            put(f"{layer}.calls", tracer.calls(layer), "count")
        scale = 1e-3 if unit == "ms" else 1.0
        put(f"{layer}.{unit}", tracer.mean_us(layer) * scale, unit)
        if self_time:
            put(f"{layer}.self_us", tracer.mean_us(layer, self_time=True), "us")

    for layer in ("network.draw_realization", "network.make_placement",
                  "env.decode_action", "rates.rate_report", "problem.evaluate_constraints",
                  "nn.Mlp.forward", "nn.Mlp.forward_cached", "nn.Mlp.backward",
                  "nn.optimizer.step", "agents.td3.update"):
        timing(layer)
    timing("env.step", self_time=True)
    timing("harness.evaluate_decision", self_time=True)
    put("nn.Mlp.forward.rows",
        tracer.count("nn.Mlp.forward", "rows") / max(tracer.calls("nn.Mlp.forward"), 1), "rows")
    timing("nn.GaussianPolicy.sample", calls=False)
    for search in ("harness.random_search", "harness.grid_oracle"):
        evaluated = tracer.count(search, "evaluated")
        put(f"{search}.feasible_ratio",
            tracer.count(search, "feasible") / evaluated if evaluated else 0.0, "ratio")
        put(f"{search}.evaluated", evaluated, "count")
    timing("agents.ppo.update", unit="ms")
    put("agents.ppo.dropped_samples", tracer.count("agents.train", "ppo_dropped"), "count")
    put("agents.ppo.update_samples", tracer.count("agents.ppo.update", "samples"), "count")
    for method in ("snapshot", "apply_gradients", "segment_gradients"):
        timing(f"agents.a3c.{method}", calls=False)
    train_s = tracer.total_s("agents.train")
    put("agents.train.env_share", tracer.total_s("env.step") / train_s if train_s else 0.0,
        "ratio")
    for name in untraced:
        if name in traced:
            put(f"trace.overhead.{name}", 1.0 - traced[name] / untraced[name], "ratio")
    return metrics
