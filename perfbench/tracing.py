"""Spans around public qmlines functions, for the traced benchmark run.

Each call of a traced function records one span: its layer, start, end,
parent span and an outcome tag.  A wrapper replaces the original function at
every attribute of every loaded ``qmlines`` module that holds it, so each call
is seen where its caller looks the function up: ``realize`` finds the LP at
``qmlines.realizability.maximize_slack``, the theorem check finds ``realize``
at ``qmlines.enumeration.realize``, and the benchmark finds both on the
``qmlines`` package.  Spans stay in memory until the run ends.
"""

import functools
import json
import sys
import time
from collections import Counter, defaultdict

# public name in qmlines.__all__ -> layer name used in the per-layer metrics
LAYERS = {
    "maximize_slack": "lp.maximize_slack",
    "build_realization_system": "realizability.build_realization_system",
    "realize": "realizability.realize",
    "verify_witness": "realizability.verify_witness",
    "realize_bounded_integer": "realizability.realize_bounded_integer",
    "realize_digraph": "realizability.realize_digraph",
    "canonical_classes": "enumeration.canonical_classes",
    "verify_theorem_four_points": "enumeration.verify_theorem_four_points",
    "line_set": "core.line_set",
    "canonical_form": "isomorphism.canonical_form",
}
LP_LAYER = "lp.maximize_slack"
LP_OUTCOMES = ("positive", "nonpositive", "infeasible")
SEARCH_LAYERS = ("realizability.realize_bounded_integer", "realizability.realize_digraph")


def lp_outcome(outcome) -> str:
    """positive (realizable), nonpositive (optimal slack <= 0) or infeasible."""
    if outcome.status == "infeasible":
        return "infeasible"
    return "positive" if outcome.realizable else "nonpositive"


def _tag(layer, result):
    if layer == LP_LAYER:
        return lp_outcome(result)
    if layer in SEARCH_LAYERS:
        return "found" if result is not None else "none"
    return ""


class Tracer:
    """Installs span-recording wrappers into the qmlines modules and removes
    them again; single-threaded, like the benchmark."""

    def __init__(self, package):
        self.package = package
        self.spans = []  # [layer, start, end, parent index or None, tag]
        self.lp_sizes = []  # (rows, cols) of every LinearSystem solved
        self._stack = []
        self._patched = []

    def install(self) -> None:
        prefix = self.package.__name__
        modules = [
            m
            for name, m in list(sys.modules.items())
            if m is not None and (name == prefix or name.startswith(prefix + "."))
        ]
        for public, layer in LAYERS.items():
            original = getattr(self.package, public)
            wrapper = self._wrap(layer, original)
            for module in modules:
                for attr, value in list(vars(module).items()):
                    if value is original:
                        setattr(module, attr, wrapper)
                        self._patched.append((module, attr, original))

    def uninstall(self) -> None:
        for module, attr, original in reversed(self._patched):
            setattr(module, attr, original)
        self._patched.clear()

    def _wrap(self, layer, fn):
        spans, stack, lp_sizes = self.spans, self._stack, self.lp_sizes
        clock = time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span = [layer, 0.0, 0.0, stack[-1] if stack else None, "error"]
            stack.append(len(spans))
            spans.append(span)
            span[1] = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                span[2] = clock()
                stack.pop()
            span[4] = _tag(layer, result)
            if layer == LP_LAYER:
                system = args[0]
                lp_sizes.append((len(system.constraints), len(system.variables)))
            return result

        return traced

    def summary(self, wall_s: float) -> dict:
        """Per-layer self time and counts; self time is a span's duration
        minus the time covered by its child spans."""
        child_s = [0.0] * len(self.spans)
        for layer, start, end, parent, _ in self.spans:
            if parent is not None:
                child_s[parent] += end - start
        self_s = defaultdict(float)
        calls = Counter()
        found = Counter()
        rooted = 0.0
        for k, (layer, start, end, parent, tag) in enumerate(self.spans):
            key = f"{layer}.{tag}" if layer == LP_LAYER else layer
            self_s[key] += end - start - child_s[k]
            calls[key] += 1
            if tag == "found":
                found[layer] += 1
            if parent is None:
                rooted += end - start
        metrics = {}
        for layer in LAYERS.values():
            keys = [f"{layer}.{o}" for o in LP_OUTCOMES] if layer == LP_LAYER else [layer]
            for key in keys:
                metrics[f"{key}.self_s"] = (self_s[key], "s")
                metrics[f"{key}.calls"] = (calls[key], "count")
        for layer in SEARCH_LAYERS:
            metrics[f"{layer}.found"] = (found[layer], "count")
            metrics[f"{layer}.hit_ratio"] = (found[layer] / calls[layer] if calls[layer] else 0.0, "ratio")
        n_lp = len(self.lp_sizes)
        metrics["lp.rows_mean"] = (sum(r for r, _ in self.lp_sizes) / n_lp if n_lp else 0.0, "rows")
        metrics["lp.cols_mean"] = (sum(c for _, c in self.lp_sizes) / n_lp if n_lp else 0.0, "cols")
        metrics["bench.unattributed_s"] = (wall_s - rooted, "s")
        return metrics

    def lp_calls(self) -> dict:
        """LP calls per outcome, as the spans recorded them."""
        counts = Counter(tag for layer, *_, tag in self.spans if layer == LP_LAYER)
        return {o: counts[o] for o in LP_OUTCOMES}

    def write(self, path, origin: float) -> None:
        """Write the spans as JSON lines, times in seconds from origin."""
        with open(path, "w") as out:
            for k, (layer, start, end, parent, tag) in enumerate(self.spans):
                out.write(
                    json.dumps(
                        {
                            "id": k,
                            "name": layer,
                            "start": start - origin,
                            "end": end - origin,
                            "parent": parent,
                            "tag": tag,
                        }
                    )
                    + "\n"
                )
