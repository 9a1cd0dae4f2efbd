"""Spans and counts around latquot's layer entry points, for the traced run.

Each wrap replaces the name a calling module binds (for example
``latquot.quality._listing``), so the calls that module makes are
recorded and nothing inside the package changes.  Spans stay in memory
until the run ends.  An entry point that no longer exists is recorded
as absent and its metrics are reported as null.
"""

from __future__ import annotations

import functools
import importlib
import json
from collections import Counter
from time import perf_counter

# (module, attribute, span name).  The span name's first part is the layer.
ENTRY_POINTS = (
    ("latquot.quality", "qb", "quality.qb"),
    ("latquot.watson", "maximal_index", "watson.maximal_index"),
    ("latquot.enumeration", "is_well_rounded", "enumeration.is_well_rounded"),
    ("latquot.enumeration", "lll", "reduction.lll"),
    ("latquot.quality", "lll", "reduction.lll"),
    ("latquot.enumeration", "_listing", "enumeration.listing"),
    ("latquot.quality", "_listing", "enumeration.listing"),
    ("latquot.watson", "_listing", "enumeration.listing"),
    ("latquot.enumeration", "successive_minima", "enumeration.successive_minima"),
    ("latquot.quality", "successive_minima", "enumeration.successive_minima"),
    ("latquot.watson", "successive_minima", "enumeration.successive_minima"),
    ("latquot.quality", "is_primitive", "linalg.is_primitive"),
    ("latquot.quality", "hnf_rows", "linalg.hnf_rows"),
    ("latquot.quality", "det_int", "linalg.det_int"),
    ("latquot.watson", "det_int", "linalg.det_int"),
    ("latquot.watson", "matmul", "linalg.matmul"),
    ("latquot.watson", "det_rational", "linalg.det_rational"),
    ("latquot.watson", "smith_invariants", "linalg.smith"),
)

LAYERS = ("reduction", "enumeration", "linalg", "quality", "watson")

# per-layer metric -> (span, statistic, unit); statistics are computed in summary()
SPAN_METRICS = {
    "reduction.lll.calls": ("reduction.lll", "calls", "count"),
    "reduction.lll.busy_s": ("reduction.lll", "busy", "s"),
    "enumeration.listing.calls": ("enumeration.listing", "calls", "count"),
    "enumeration.listing.self_s": ("enumeration.listing", "self", "s"),
    "enumeration.successive_minima.calls": ("enumeration.successive_minima", "calls", "count"),
    "linalg.is_primitive.calls": ("linalg.is_primitive", "calls", "count"),
    "linalg.is_primitive.busy_s": ("linalg.is_primitive", "busy", "s"),
    "linalg.hnf_rows.calls": ("linalg.hnf_rows", "calls", "count"),
    "quality.qb.self_s": ("quality.qb", "self", "s"),
    "linalg.matmul.calls": ("linalg.matmul", "calls", "count"),
    "linalg.matmul.busy_s": ("linalg.matmul", "busy", "s"),
    "linalg.det_rational.calls": ("linalg.det_rational", "calls", "count"),
    "linalg.det_rational.busy_s": ("linalg.det_rational", "busy", "s"),
    "linalg.det_int.calls": ("linalg.det_int", "calls", "count"),
    "linalg.smith.calls": ("linalg.smith", "calls", "count"),
    "watson.maximal_index.self_s": ("watson.maximal_index", "self", "s"),
}

# metrics counted by the hooks below -> (the span whose calls feed them, unit)
DERIVED_METRICS = {
    "reduction.lll.calls_per_lattice": ("reduction.lll", "calls/lattice"),
    "enumeration.vectors_listed": ("enumeration.listing", "count"),
    "enumeration.unique_ratio": ("enumeration.listing", "ratio"),
    "linalg.is_primitive.true_ratio": ("linalg.is_primitive", "ratio"),
}


class Tracer:
    """Wraps the entry points while installed; restores them on uninstall."""

    def __init__(self):
        self.spans: list[list] = []  # [name, start, end, parent index or -1]
        self.stack: list[int] = []
        self.counts: Counter = Counter()
        self.absent: set[str] = set()
        self._seen_vectors: set[int] = set()
        self._lll_lattices: set[int] = set()
        self._undo: list[tuple[object, str, object]] = []

    def install(self) -> None:
        present = set()
        for module_name, attr, span in ENTRY_POINTS:
            module = importlib.import_module(module_name)
            fn = getattr(module, attr, None)
            if fn is None:
                continue
            present.add(span)
            setattr(module, attr, self._wrap(fn, span))
            self._undo.append((module, attr, fn))
        self.absent = {span for _, _, span in ENTRY_POINTS} - present

    def uninstall(self) -> None:
        for module, attr, fn in reversed(self._undo):
            setattr(module, attr, fn)
        self._undo.clear()

    def _wrap(self, fn, span: str):
        spans, stack = self.spans, self.stack
        on_result = getattr(self, "_on_" + span.split(".", 1)[1], None)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            record = [span, 0.0, 0.0, stack[-1] if stack else -1]
            stack.append(len(spans))
            spans.append(record)
            record[1] = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                record[2] = perf_counter()
                stack.pop()
            if on_result is not None:
                on_result(args, result)
            return result
        return traced

    # count hooks, looked up by the span name's second part
    def _on_listing(self, args, pairs) -> None:
        lattice = hash(args[0].gram)
        self.counts["vectors_listed"] += len(pairs)
        self._seen_vectors.update(hash((lattice, v)) for _, v in pairs)

    def _on_lll(self, args, _reduced) -> None:
        self._lll_lattices.add(hash(args[0].gram))

    def _on_is_primitive(self, _args, primitive) -> None:
        self.counts["primitive_true"] += bool(primitive)

    def summary(self, wall_s: float) -> dict[str, float | None]:
        """Per-layer metrics from the recorded spans and counts.

        A span's self time is its duration minus that of its direct
        children; one thread records them, so children never overlap.
        """
        calls: Counter = Counter()
        busy: Counter = Counter()
        own = [end - start for _, start, end, _ in self.spans]
        for name, start, end, parent in self.spans:
            calls[name] += 1
            busy[name] += end - start
            if parent >= 0:
                own[parent] -= end - start
        self_s: Counter = Counter()
        for (name, *_), t in zip(self.spans, own):
            self_s[name] += t

        def ratio(num, den):
            return num / den if den else 0.0

        stats = {"calls": calls, "busy": busy, "self": self_s}
        out: dict[str, float | None] = {}
        for metric, (span, stat, _unit) in SPAN_METRICS.items():
            out[metric] = None if span in self.absent else stats[stat][span]
        listed = self.counts["vectors_listed"]
        lll_calls = calls["reduction.lll"]
        out["reduction.lll.calls_per_lattice"] = ratio(lll_calls, len(self._lll_lattices))
        out["enumeration.vectors_listed"] = listed
        out["enumeration.unique_ratio"] = ratio(len(self._seen_vectors), listed)
        out["linalg.is_primitive.true_ratio"] = ratio(
            self.counts["primitive_true"], calls["linalg.is_primitive"])
        for metric, (span, _unit) in DERIVED_METRICS.items():
            if span in self.absent:
                out[metric] = None
        for layer in LAYERS:
            layer_self = sum(t for name, t in self_s.items() if name.startswith(layer + "."))
            out[f"{layer}.share"] = ratio(layer_self, wall_s)
        return out

    def dump(self, path) -> None:
        """Write every span as [name, start, end, parent] to ``path``."""
        with open(path, "w", encoding="utf-8") as fh:
            json.dump({"absent": sorted(self.absent), "spans": self.spans}, fh)
