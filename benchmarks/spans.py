"""Span recorder for traced benchmark runs, and the per-layer metrics.

The recorder wraps the package's functions from outside: each target is
replaced at every module-level name that refers to it, which is where its
callers look it up, so ``from .wmd import dataset_wmd`` in the harness sees
the wrapper too. Each call becomes a span (name, start, end, parent) held in
flat in-memory arrays; the spans of one evaluate call share a run id and are
written to one file when the call returns. A target that no longer exists is
listed as absent and its metrics read 0; one whose arguments or result no
longer fit its counter hook keeps its spans, and the hook is listed absent.

Spans are parented through a per-thread stack, so a call made on a pool
thread starts a new root; its time then counts toward no caller's children.
"""

from __future__ import annotations

import importlib
import json
import sys
import threading
import time
from array import array
from pathlib import Path

import numpy as np

#: The package's modules, one layer each (``errors`` does no work).
LAYERS = ("cli", "harness", "embeddings", "labelset", "bipartition", "semantic",
          "wmd", "sentence", "report")

#: Wrapped callables as "layer.attribute"; "Class.method" names a method.
TARGETS = (
    "cli.main",
    "harness.RunConfig.from_file", "harness.run_evaluation", "harness.natural_key",
    "harness._score_units", "harness._sentence_mean",
    "embeddings.load_model", "embeddings.load_text_model",
    "embeddings.load_binary_model", "embeddings.clean_label",
    "embeddings.resolve_label", "embeddings.cosine", "embeddings.euclidean",
    "labelset.read_ground_truth", "labelset.read_predictions", "labelset.top_k",
    "labelset.label_bag", "labelset.metadata_stats",
    "bipartition.dedup_normalized", "bipartition.exact_intersection",
    "bipartition.scores_from_counts", "bipartition.example_scores",
    "bipartition.mean_scores", "bipartition.ConfusionLedger.__init__",
    "bipartition.ConfusionLedger.accumulate", "bipartition.label_based_scores",
    "semantic.similarity_matrix", "semantic.semantic_intersection",
    "semantic.semantic_example_scores",
    "wmd.build_nbow", "wmd.cost_matrix", "wmd.solve_transport", "wmd.wmd_pair",
    "wmd.dataset_wmd",
    "sentence.render_bow_text", "sentence.fetch_embeddings", "sentence.text_digest",
    "report.columns_for", "report.rank_and_colorize", "report.emit",
    "report.emit_json_lines",
)


def _arg(args, kwargs, index: int, name: str):
    return args[index] if len(args) > index else kwargs.get(name)


def _same_nbow(left, right) -> bool:
    """Whether two token bags normalize to the same bag-of-words."""
    if not left or not right:
        return False
    def weights(bag):
        counts: dict[str, int] = {}
        for token in bag:
            counts[token] = counts.get(token, 0) + 1
        return {token: count / len(bag) for token, count in counts.items()}
    return weights(left) == weights(right)


class Recorder:
    """Spans and counters of one traced evaluate call."""

    def __init__(self, run_id: str):
        self.run_id = run_id
        self.names: list[str] = []
        self.absent: list[str] = []
        self.counters: dict[str, float] = {}
        self._sets: dict[str, set] = {}
        self._name = array("i")
        self._parent = array("i")
        self._start = array("d")
        self._end = array("d")
        self._local = threading.local()
        self._lock = threading.Lock()
        self._broken: set[str] = set()

    # -- counters ------------------------------------------------------------

    def count(self, key: str, amount: float = 1) -> None:
        self.counters[key] = self.counters.get(key, 0) + amount

    def distinct(self, key: str, value) -> None:
        self._sets.setdefault(key, set()).add(value)

    def _hooks(self):
        c, d = self.count, self.distinct
        return {
            "embeddings.clean_label": lambda a, k, r: d(
                "embeddings.clean_distinct", _arg(a, k, 0, "raw")),
            "embeddings.resolve_label": lambda a, k, r: (
                d("embeddings.resolve_distinct", _arg(a, k, 1, "raw")),
                r.token is None and c("embeddings.resolve_unknown")),
            "embeddings.load_model": lambda a, k, r: c(
                "embeddings.rows_loaded", len(r)),
            "labelset.read_ground_truth": lambda a, k, r: c(
                "labelset.records_read", len(r)),
            "labelset.read_predictions": lambda a, k, r: c(
                "labelset.records_read", len(r)),
            "semantic.similarity_matrix": lambda a, k, r: c(
                "semantic.grid_cells", r.values.size),
            "semantic.semantic_intersection": lambda a, k, r: c(
                "semantic.matched", r.matched),
            "wmd.cost_matrix": lambda a, k, r: c("wmd.cost_cells", r.size),
            "wmd.solve_transport": self._solve_hook,
            "wmd.wmd_pair": lambda a, k, r: _same_nbow(
                _arg(a, k, 0, "truth_bag"), _arg(a, k, 1, "predicted_bag"))
            and c("wmd.pairs_identical"),
            "wmd.dataset_wmd": lambda a, k, r: (
                c("wmd.pairs_used", r.used), c("wmd.pairs_skipped", r.skipped)),
            "sentence.fetch_embeddings": self._fetch_hook,
            "harness._score_units": lambda a, k, r: c(
                "harness.units", len(_arg(a, k, 0, "units"))),
            "report.emit": lambda a, k, r: c(
                "report.bytes_written", sum(Path(p).stat().st_size for p in r)),
        }

    def _solve_hook(self, args, kwargs, result) -> None:
        m = len(_arg(args, kwargs, 0, "supply"))
        n = len(_arg(args, kwargs, 1, "demand"))
        self.count("wmd.solve_cells", m * n)
        if m == 1 or n == 1:
            self.count("wmd.solve_single_side")

    def _fetch_hook(self, args, kwargs, result) -> None:
        texts = _arg(args, kwargs, 1, "texts")
        self.count("sentence.texts_requested", len(texts))
        for text in texts:
            self.distinct("sentence.texts_distinct", text)

    # -- spans ---------------------------------------------------------------

    def _wrap(self, name: str, func):
        name_id = len(self.names)
        self.names.append(name)
        hook = self._hooks().get(name)
        names, parents, starts, ends = self._name, self._parent, self._start, self._end
        local, lock, broken = self._local, self._lock, self._broken
        clock = time.perf_counter

        def wrapper(*args, **kwargs):
            stack = getattr(local, "stack", None)
            if stack is None:
                stack = local.stack = []
            with lock:
                index = len(starts)
                names.append(name_id)
                parents.append(stack[-1] if stack else -1)
                starts.append(0.0)
                ends.append(0.0)
            stack.append(index)
            starts[index] = clock()
            try:
                result = func(*args, **kwargs)
            finally:
                ends[index] = clock()
                stack.pop()
            if hook is not None and name not in broken:
                try:
                    hook(args, kwargs, result)
                except (AttributeError, TypeError, KeyError, IndexError, ValueError):
                    # The target changed shape; its counters stop, the run goes on.
                    broken.add(name)
                    self.absent.append(f"{name} (counters)")
            return result

        wrapper.__wrapped__ = func
        wrapper.__name__ = getattr(func, "__name__", name)
        wrapper.__doc__ = getattr(func, "__doc__", None)
        return wrapper

    def install(self, package: str = "labeleval") -> None:
        """Wrap every target found in the (already imported) package."""
        modules = [module for key, module in list(sys.modules.items())
                   if module is not None
                   and (key == package or key.startswith(package + "."))]
        for target in TARGETS:
            layer, _, attr = target.partition(".")
            try:
                module = importlib.import_module(f"{package}.{layer}")
            except ImportError:
                self.absent.append(target)
                continue
            owner_name, _, method = attr.rpartition(".")
            if owner_name:
                owner = getattr(module, owner_name, None)
                raw = vars(owner).get(method) if isinstance(owner, type) else None
                if isinstance(raw, classmethod):
                    setattr(owner, method, classmethod(self._wrap(target, raw.__func__)))
                elif callable(raw):
                    setattr(owner, method, self._wrap(target, raw))
                else:
                    self.absent.append(target)
                continue
            original = getattr(module, attr, None)
            if not callable(original):
                self.absent.append(target)
                continue
            wrapper = self._wrap(target, original)
            for mod in modules:
                for key, value in list(vars(mod).items()):
                    if value is original:
                        setattr(mod, key, wrapper)

    def save(self, path: str | Path) -> None:
        counters = dict(self.counters)
        for key, values in self._sets.items():
            counters[key] = len(values)
        meta = {"run_id": self.run_id, "names": self.names, "absent": self.absent,
                "counters": counters}
        np.savez(path, meta=np.array(json.dumps(meta)),
                 name=np.frombuffer(self._name, dtype=np.int32),
                 parent=np.frombuffer(self._parent, dtype=np.int32),
                 start=np.frombuffer(self._start, dtype=np.float64),
                 end=np.frombuffer(self._end, dtype=np.float64))


def load(path: str | Path) -> dict:
    with np.load(path) as data:
        trace = json.loads(str(data["meta"]))
        for key in ("name", "parent", "start", "end"):
            trace[key] = data[key]
    return trace


def self_times(parent: np.ndarray, start: np.ndarray, end: np.ndarray) -> np.ndarray:
    """Each span's duration minus the part of it its child spans cover."""
    self_s = end - start
    children = np.flatnonzero(parent >= 0)
    order = children[np.lexsort((start[children], parent[children]))]
    current, covered_to = -1, 0.0
    for index in order.tolist():
        p = int(parent[index])
        s, e = float(start[index]), float(end[index])
        if p != current:
            current, covered_to = p, float(start[p])
        lo = max(s, covered_to)
        if e > lo:
            self_s[p] -= e - lo
            covered_to = e
    return self_s


#: Inclusive seconds of the named targets.
_TIMES = {
    "wmd.dataset_s": ("wmd.dataset_wmd",),
    "wmd.nbow_s": ("wmd.build_nbow",),
    "wmd.cost_s": ("wmd.cost_matrix",),
    "wmd.solve_s": ("wmd.solve_transport",),
    "embeddings.euclidean_s": ("embeddings.euclidean",),
    "semantic.scores_s": ("semantic.semantic_example_scores",),
    "semantic.grid_s": ("semantic.similarity_matrix",),
    "semantic.match_s": ("semantic.semantic_intersection",),
    "embeddings.cosine_s": ("embeddings.cosine",),
    "embeddings.clean_s": ("embeddings.clean_label",),
    "embeddings.resolve_s": ("embeddings.resolve_label",),
    "labelset.top_k_s": ("labelset.top_k",),
    "labelset.label_bag_s": ("labelset.label_bag",),
    "labelset.metadata_stats_s": ("labelset.metadata_stats",),
    "bipartition.example_s": ("bipartition.example_scores",),
    "bipartition.ledger_s": ("bipartition.ConfusionLedger.__init__",
                             "bipartition.ConfusionLedger.accumulate"),
    "bipartition.label_based_s": ("bipartition.label_based_scores",),
    "embeddings.load_s": ("embeddings.load_model",),
    "labelset.read_s": ("labelset.read_ground_truth", "labelset.read_predictions"),
    "sentence.render_s": ("sentence.render_bow_text",),
    "sentence.fetch_s": ("sentence.fetch_embeddings",),
    "harness.run_s": ("harness.run_evaluation",),
    "report.rank_s": ("report.rank_and_colorize",),
    "report.emit_s": ("report.emit",),
}

#: Call counts of the named targets.
_CALLS = {
    "wmd.solve_calls": "wmd.solve_transport",
    "embeddings.euclidean_calls": "embeddings.euclidean",
    "embeddings.cosine_calls": "embeddings.cosine",
    "embeddings.clean_calls": "embeddings.clean_label",
    "embeddings.resolve_calls": "embeddings.resolve_label",
    "labelset.top_k_calls": "labelset.top_k",
    "labelset.label_bag_calls": "labelset.label_bag",
    "bipartition.exact_intersection_calls": "bipartition.exact_intersection",
    "bipartition.dedup_calls": "bipartition.dedup_normalized",
    "sentence.fetch_calls": "sentence.fetch_embeddings",
}

#: Counters kept by the call hooks.
_COUNTERS = (
    "wmd.cost_cells", "wmd.solve_cells", "wmd.solve_single_side",
    "wmd.pairs_identical", "wmd.pairs_used", "wmd.pairs_skipped",
    "semantic.grid_cells", "semantic.matched",
    "embeddings.clean_distinct", "embeddings.resolve_distinct",
    "embeddings.resolve_unknown", "embeddings.rows_loaded", "labelset.records_read",
    "sentence.texts_requested", "sentence.texts_distinct", "harness.units",
    "report.bytes_written",
)

#: Useful outcomes over attempts: (metric, numerator, denominator).
_RATIOS = (
    ("embeddings.clean_useful_ratio", "embeddings.clean_distinct",
     "embeddings.clean_calls"),
    ("embeddings.resolve_useful_ratio", "embeddings.resolve_distinct",
     "embeddings.resolve_calls"),
    ("sentence.texts_useful_ratio", "sentence.texts_distinct",
     "sentence.texts_requested"),
)

#: Metrics that count work and must repeat exactly between traced runs.
COUNT_METRICS = tuple(_CALLS) + _COUNTERS + ("trace.spans", "trace.absent_targets")

#: Every per-layer metric with its unit, grouped by the workload it serves.
PER_LAYER: dict[str, str] = {
    # transport (grid)
    "wmd.dataset_s": "s", "wmd.nbow_s": "s", "wmd.cost_s": "s",
    "wmd.cost_cells": "count", "wmd.solve_s": "s", "wmd.solve_calls": "count",
    "wmd.solve_cells": "count", "wmd.solve_ms_p50": "ms", "wmd.solve_ms_p99": "ms",
    "wmd.solve_single_side": "count", "wmd.pairs_identical": "count",
    "wmd.pairs_used": "count", "wmd.pairs_skipped": "count",
    "embeddings.euclidean_calls": "count", "embeddings.euclidean_s": "s",
    # similarity grid (grid)
    "semantic.scores_s": "s", "semantic.grid_s": "s", "semantic.grid_cells": "count",
    "semantic.match_s": "s", "semantic.matched": "count",
    "embeddings.cosine_calls": "count", "embeddings.cosine_s": "s",
    # label work (labels-sentence, grid)
    "embeddings.clean_calls": "count", "embeddings.clean_distinct": "count",
    "embeddings.clean_s": "s", "embeddings.clean_useful_ratio": "ratio",
    "embeddings.resolve_calls": "count", "embeddings.resolve_distinct": "count",
    "embeddings.resolve_unknown": "count", "embeddings.resolve_s": "s",
    "embeddings.resolve_useful_ratio": "ratio",
    "labelset.top_k_calls": "count", "labelset.top_k_s": "s",
    "labelset.label_bag_calls": "count", "labelset.label_bag_s": "s",
    "labelset.metadata_stats_s": "s", "bipartition.example_s": "s",
    "bipartition.exact_intersection_calls": "count", "bipartition.dedup_calls": "count",
    "bipartition.ledger_s": "s", "bipartition.label_based_s": "s",
    # loading (vocab-load)
    "embeddings.load_s": "s", "embeddings.rows_loaded": "count",
    "labelset.read_s": "s", "labelset.records_read": "count",
    # sentence provider (labels-sentence)
    "sentence.render_s": "s", "sentence.fetch_s": "s", "sentence.fetch_calls": "count",
    "sentence.texts_requested": "count", "sentence.texts_distinct": "count",
    "sentence.texts_useful_ratio": "ratio",
    # orchestration and output
    "harness.run_s": "s", "harness.units": "count", "report.rank_s": "s",
    "report.emit_s": "s", "report.bytes_written": "bytes",
    # self time of each layer
    **{f"{layer}.self_s": "s" for layer in LAYERS},
    # the trace itself
    "trace.overhead_ratio": "ratio", "trace.spans": "count",
    "trace.absent_targets": "count",
}


def layer_metrics(trace: dict) -> dict[str, float]:
    """Per-layer metrics of one traced evaluate call."""
    names = trace["names"]
    name, parent = trace["name"], trace["parent"]
    start, end = trace["start"], trace["end"]
    duration = end - start
    self_s = self_times(parent, start, end)
    by_name = {n: np.flatnonzero(name == i) for i, n in enumerate(names)}
    empty = np.empty(0, dtype=np.int64)

    metrics: dict[str, float] = {}
    for metric, targets in _TIMES.items():
        metrics[metric] = float(sum(duration[by_name.get(t, empty)].sum()
                                    for t in targets))
    for metric, target in _CALLS.items():
        metrics[metric] = int(by_name.get(target, empty).size)
    for key in _COUNTERS:
        metrics[key] = int(trace["counters"].get(key, 0))
    for metric, num, den in _RATIOS:
        metrics[metric] = metrics[num] / metrics[den] if metrics[den] else 0.0
    solve_ms = duration[by_name.get("wmd.solve_transport", empty)] * 1000.0
    for q in (50, 99):
        metrics[f"wmd.solve_ms_p{q}"] = (
            float(np.percentile(solve_ms, q)) if solve_ms.size else 0.0)
    layer_of = np.array([n.split(".", 1)[0] for n in names] or [""])
    span_layer = layer_of[name] if name.size else np.empty(0, dtype=layer_of.dtype)
    for layer in LAYERS:
        metrics[f"{layer}.self_s"] = float(self_s[span_layer == layer].sum())
    metrics["trace.spans"] = int(name.size)
    metrics["trace.absent_targets"] = len(trace["absent"])
    return metrics
