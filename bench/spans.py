"""In-memory span tracer for the benchmark's traced runs.

The tracer wraps the package's public functions from outside: each target
function is replaced, in every ``refined_inertia`` module namespace that
holds it, by a wrapper that records one span (id, parent id, name, start,
end).  Spans stay in memory and are written out once, when the run ends.
Self time is a span's duration minus the time its direct child spans
cover.  Only calls made in this process are seen; work sent to a process
pool is not traced.
"""

from __future__ import annotations

import json
import sys
import time
from collections import Counter, defaultdict
from pathlib import Path

# Layer metric name -> (module, attribute) of the function it wraps.  The
# numeric classifier is the private helper behind refined_inertia_numeric
# and the falsifier's first pass; taylor_shift is a RationalPoly method.
SPANS = {
    "patterns.sgn_of_matrix": ("patterns", "sgn_of_matrix"),
    "patterns.family_pattern": ("patterns", "family_pattern"),
    "realization.sample_realization": ("realization", "sample_realization"),
    "realization.family_index": ("realization", "family_index"),
    "realization.to_arrow_form": ("realization", "to_arrow_form"),
    "realization.arrow_char_poly": ("realization", "arrow_char_poly"),
    "realization.embed_witness": ("realization", "embed_witness"),
    "ratpoly.poly_gcd": ("ratpoly", "poly_gcd"),
    "ratpoly.squarefree_decomposition": ("ratpoly", "squarefree_decomposition"),
    "ratpoly.cauchy_index_line": ("ratpoly", "cauchy_index_line"),
    "ratpoly.taylor_shift": ("ratpoly", "RationalPoly.taylor_shift"),
    "engine.numeric": ("engine", "_numeric_inertia_flagged"),
    "engine.refined_inertia_exact": ("engine", "refined_inertia_exact"),
    "engine.char_poly": ("engine", "char_poly"),
    "engine.det_rational": ("engine", "det_rational"),
    "engine.arrow_shift_det": ("engine", "arrow_shift_det"),
    "analysis.falsify_requires": ("analysis", "falsify_requires"),
    "analysis.shrink": ("analysis", "_shrink_counterexample"),
    "analysis.validate_lemmas": ("analysis", "validate_lemmas"),
    "analysis.witness_suite": ("analysis", "witness_suite"),
    "cli.main": ("cli", "main"),
}

ESCALATIONS = "analysis.exact_escalations"
USEFUL_RATIO = "analysis.escalation_useful_ratio"
_MODULES = ("patterns", "ratpoly", "engine", "realization", "analysis", "cli")


class Tracer:
    """Wraps the functions in SPANS and keeps their spans and counts."""

    def __init__(self) -> None:
        self.spans: list[tuple[int, int | None, str, float, float]] = []
        self.calls: Counter = Counter()
        self.self_s: defaultdict = defaultdict(float)
        self.escalations = 0
        self.useful_escalations = 0
        self._stack: list[list] = []  # [span id, name, time covered by children]
        self._next_id = 0
        self._last_numeric = None
        self._restore: list[tuple[object, str, object]] = []

    # -- wrappers -------------------------------------------------------

    def _span(self, name: str, fn):
        def traced(*args, **kwargs):
            span_id = self._next_id
            self._next_id += 1
            parent = self._stack[-1][0] if self._stack else None
            frame = [span_id, name, 0.0]
            self._stack.append(frame)
            start = time.perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                end = time.perf_counter()
                self._stack.pop()
                duration = end - start
                self.self_s[name] += duration - frame[2]
                self.calls[name] += 1
                if self._stack:
                    self._stack[-1][2] += duration
                self.spans.append((span_id, parent, name, start, end))

        return traced

    def _remember_numeric(self, fn):
        def numeric(*args, **kwargs):
            self._last_numeric = None
            inertia, near_axis = fn(*args, **kwargs)
            self._last_numeric = inertia
            return inertia, near_axis

        return numeric

    def _count_escalations(self, fn):
        """Count falsifier escalations: exact re-runs outside counterexample shrinking.

        An escalation is useful when its exact inertia differs from the
        numeric one just computed for the same sample (or the numeric pass
        failed outright).
        """

        def exact(matrix):
            inertia = fn(matrix)
            if not self._stack or self._stack[-1][1] != "analysis.shrink":
                self.escalations += 1
                if inertia != self._last_numeric:
                    self.useful_escalations += 1
            return inertia

        return exact

    # -- installation ---------------------------------------------------

    def install(self) -> None:
        import refined_inertia

        modules = [refined_inertia] + [sys.modules[f"refined_inertia.{m}"] for m in _MODULES]
        targets = [(name, *where) for name, where in SPANS.items()]
        targets.append((None, "analysis", "_exact_inertia"))
        for name, module_name, attr in targets:
            module = sys.modules[f"refined_inertia.{module_name}"]
            if "." in attr:
                cls_name, method = attr.split(".")
                owner = getattr(module, cls_name)
                self._patch(owner, method, self._span(name, getattr(owner, method)))
                continue
            original = getattr(module, attr)
            if name is None:
                wrapper = self._count_escalations(original)
            elif name == "engine.numeric":
                wrapper = self._span(name, self._remember_numeric(original))
            else:
                wrapper = self._span(name, original)
            for holder in modules:
                for key, value in list(vars(holder).items()):
                    if value is original:
                        self._patch(holder, key, wrapper)

    def _patch(self, owner, attr: str, value) -> None:
        self._restore.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, value)

    def uninstall(self) -> None:
        for owner, attr, value in reversed(self._restore):
            setattr(owner, attr, value)
        self._restore.clear()

    # -- output -----------------------------------------------------------

    def layer_metrics(self, rounds: int) -> dict[str, dict]:
        """Per-round calls and self time for every span name, plus escalation counts."""
        metrics = {}
        for name in SPANS:
            metrics[f"{name}.calls"] = {"value": self.calls[name] / rounds, "unit": "count"}
            metrics[f"{name}.self_s"] = {"value": self.self_s[name] / rounds, "unit": "s"}
        metrics[ESCALATIONS] = {"value": self.escalations / rounds, "unit": "count"}
        ratio = self.useful_escalations / self.escalations if self.escalations else 0.0
        metrics[USEFUL_RATIO] = {"value": ratio, "unit": "ratio"}
        return metrics

    def write(self, path: Path) -> None:
        """Write every span as one JSON array per line: [id, parent, name, start, end]."""
        path.parent.mkdir(parents=True, exist_ok=True)
        with open(path, "w", encoding="utf-8") as handle:
            for span in sorted(self.spans):
                handle.write(json.dumps(span) + "\n")
