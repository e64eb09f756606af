"""In-memory tracing of the thetachi layers, installed from outside ``src/``.

``Tracer.install()`` replaces the public functions of each module by
wrappers, in every ``thetachi`` namespace that binds them by name (``wedge``
is imported into ``abelian`` and ``identities``, ``enumerate_rows`` into
``cli``), and methods on their class (``Poly.__mul__``,
``ExteriorClass.__init__``, ``MorphismH1.pullback``).  ``uninstall()``
puts the originals back.

A timed wrapper records a span (trace id, span id, parent span id, name,
start and end in ns) and adds its self time -- duration minus the time
covered by child spans -- to its layer.  A counting wrapper only counts:
it sits on calls too hot to time (``merge_sign``, ``Poly.__add__``).
Spans stay in memory, up to ``SPAN_CAP``, and are written out when the run
ends.
"""

from __future__ import annotations

import dataclasses
import functools
import json
import sys
import time
from collections import Counter
from statistics import median

from thetachi.identities import ALL_IDENTITIES

SPAN_CAP = 20_000

# (module, attribute or Class.method, layer metric prefix)
TIMED = (
    ("thetachi.poly", "Poly.__mul__", "poly.mul"),
    ("thetachi.poly", "Poly.__rmul__", "poly.mul"),
    ("thetachi.poly", "eliminate_linear", "poly.eliminate_linear"),
    ("thetachi.exterior", "wedge", "exterior.wedge"),
    ("thetachi.exterior", "ExteriorClass.__init__", "exterior.class_init"),
    ("thetachi.exterior", "MorphismH1.pullback", "exterior.pullback"),
    ("thetachi.exterior", "fiber_integrate", "exterior.fiber_integrate"),
    ("thetachi.exterior", "exp_even", "exterior.exp_even"),
    ("thetachi.abelian", "fm_transform", "abelian.fm_transform"),
    ("thetachi.abelian", "fm_transform_back", "abelian.fm_transform"),
    ("thetachi.abelian", "projection", "abelian.morphism_build"),
    ("thetachi.abelian", "addition", "abelian.morphism_build"),
    ("thetachi.abelian", "factorwise", "abelian.morphism_build"),
    ("thetachi.abelian", "make_phi", "abelian.morphism_build"),
    ("thetachi.abelian", "f_map", "abelian.morphism_build"),
    ("thetachi.mukai", "euler_chi_tensor", "mukai.euler_chi_tensor"),
    ("thetachi.mukai", "fm_vector_via_engine", "mukai.fm_vector_via_engine"),
    ("thetachi.formulas", "binom", "formulas.binom"),
    ("thetachi.formulas", "chi_fixed_det", "formulas.chi_eval"),
    ("thetachi.formulas", "chi_fixed_fm_det", "formulas.chi_eval"),
    ("thetachi.formulas", "chi_arbitrary_det", "formulas.chi_eval"),
    ("thetachi.identities", "run_suite", "identities.run_suite"),
    ("thetachi.pairs", "admissible_vectors", "pairs.admissible_vectors"),
    ("thetachi.pairs", "build_row", "pairs.build_row"),
    ("thetachi.pairs", "rows_to_csv", "pairs.rows_to_csv"),
    ("thetachi.pairs", "enumerate_rows", "pairs.enumerate_rows"),
    ("thetachi.cli", "main", "cli.cmd"),
)
COUNTED = (
    ("thetachi.poly", "Poly.__add__", "poly.add"),
    ("thetachi.poly", "Poly.__radd__", "poly.add"),
    ("thetachi.exterior", "merge_sign", "exterior.merge_sign"),
    ("thetachi.abelian", "poincare_class", "abelian.poincare_class"),
)

# Per-layer metrics: (name, unit, better).  Counts come from the first
# traced pass; times are medians over the traced passes.
COUNT_METRICS = (
    ("poly.mul.calls", "count", "lower"),
    ("poly.add.calls", "count", "lower"),
    ("poly.terms_max", "count", "lower"),
    ("poly.eliminate_linear.calls", "count", "lower"),
    ("exterior.wedge.calls", "count", "lower"),
    ("exterior.wedge.pairs", "count", "lower"),
    ("exterior.wedge.terms_out", "count", "lower"),
    ("exterior.merge_sign.calls", "count", "lower"),
    ("exterior.merge_sign.hit_ratio", "ratio", "higher"),
    ("exterior.class_init.calls", "count", "lower"),
    ("exterior.pullback.calls", "count", "lower"),
    ("exterior.fiber_integrate.calls", "count", "lower"),
    ("exterior.exp_even.calls", "count", "lower"),
    ("abelian.fm_transform.calls", "count", "lower"),
    ("abelian.morphism_build.calls", "count", "lower"),
    ("abelian.poincare_class.calls", "count", "lower"),
    ("mukai.euler_chi_tensor.calls", "count", "lower"),
    ("mukai.scan.hit_ratio", "ratio", "higher"),
    ("mukai.fm_vector_via_engine.calls", "count", "lower"),
    ("formulas.binom.calls", "count", "lower"),
    ("formulas.chi_eval.calls", "count", "lower"),
    ("pairs.build_row.calls", "count", "lower"),
)
SELF_TIME_LAYERS = (
    "poly.mul", "poly.eliminate_linear",
    "exterior.wedge", "exterior.class_init", "exterior.pullback",
    "exterior.fiber_integrate", "exterior.exp_even",
    "abelian.fm_transform", "abelian.morphism_build",
    "mukai.euler_chi_tensor", "mukai.fm_vector_via_engine",
    "formulas.binom", "formulas.chi_eval",
    "identities.sample",
    "pairs.admissible_vectors", "pairs.build_row", "pairs.rows_to_csv",
    "pairs.enumerate_rows",
    "cli.cmd",
)
OVERHEAD_METRIC = ("trace.overhead_ratio", "ratio", "lower")


def metric_specs() -> list:
    """Every per-layer metric the traced run reports, in output order."""
    specs = list(COUNT_METRICS)
    specs += [(f"{layer}.self_s", "s", "lower") for layer in SELF_TIME_LAYERS]
    specs += [(f"identities.{ident}.s", "s", "lower") for ident in ALL_IDENTITIES]
    specs.append(OVERHEAD_METRIC)
    return specs


def _ratio(hits: int, calls: int) -> float:
    return hits / calls if calls else 0.0


class Tracer:
    def __init__(self):
        self.spans = []
        self.spans_dropped = 0
        self.trace_id = 0
        self._next_span = 0
        self._stack = []  # open spans: [child_ns, span_id]
        self._undo = []
        self.reset()

    def reset(self):
        """Start a new pass: zero every count and time."""
        self.calls = Counter()
        self.self_ns = Counter()
        self.total_ns = Counter()
        self.counts = Counter()

    # -- wrappers --------------------------------------------------------

    def timed(self, layer: str, fn, observe=None):
        stack, clock = self._stack, time.perf_counter_ns

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            span_id = self._next_span
            self._next_span += 1
            parent = stack[-1][1] if stack else None
            frame = [0, span_id]
            stack.append(frame)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                duration = end - start
                self.calls[layer] += 1
                self.self_ns[layer] += duration - frame[0]
                self.total_ns[layer] += duration
                if stack:
                    stack[-1][0] += duration
                if len(self.spans) < SPAN_CAP:
                    self.spans.append((self.trace_id, span_id, parent, layer, start, end))
                else:
                    self.spans_dropped += 1
            if observe is not None:
                observe(args, result)
            return result

        return wrapper

    def counted(self, layer: str, fn, observe=None):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            result = fn(*args, **kwargs)
            self.calls[layer] += 1
            if observe is not None:
                observe(args, result)
            return result

        return wrapper

    # -- observers: counts measured where the work happens -----------------

    def _poly_size(self, args, result):
        size = len(result.terms)
        if size > self.counts["poly.terms_max"]:
            self.counts["poly.terms_max"] = size

    def _wedge(self, args, result):
        a, b = args[:2]
        self.counts["exterior.wedge.pairs"] += len(a.terms) * len(b.terms)
        self.counts["exterior.wedge.terms_out"] += len(result.terms)

    def _merge(self, args, result):
        if result is not None:
            self.counts["exterior.merge_sign.hits"] += 1

    def _scan(self, args, result):
        self.counts["mukai.scan.calls"] += 1
        if result == 0:
            self.counts["mukai.scan.hits"] += 1

    # -- installation ----------------------------------------------------

    def _set(self, owner, attr, new):
        self._undo.append((owner, attr, vars(owner)[attr]))
        setattr(owner, attr, new)

    def _patch_function(self, fn, wrapper):
        """Replace fn by wrapper in every thetachi namespace that binds it."""
        for name, module in list(sys.modules.items()):
            if name != "thetachi" and not name.startswith("thetachi."):
                continue
            for attr, value in list(vars(module).items()):
                if value is fn:
                    self._set(module, attr, wrapper)

    def install(self):
        observers = {
            "poly.mul": self._poly_size,
            "poly.add": self._poly_size,
            "exterior.wedge": self._wedge,
            "exterior.merge_sign": self._merge,
        }
        for table, kind in ((TIMED, self.timed), (COUNTED, self.counted)):
            for module_name, attr, layer in table:
                module = sys.modules[module_name]
                observe = observers.get(layer)
                if "." in attr:
                    cls_name, method = attr.split(".")
                    cls = getattr(module, cls_name)
                    self._set(cls, method, kind(layer, vars(cls)[method], observe))
                    continue
                fn = getattr(module, attr)
                self._patch_function(fn, kind(layer, fn, observe))
        # the pair scan of enumerate_rows also counts its orthogonal hits
        pairs = sys.modules["thetachi.pairs"]
        self._set(pairs, "euler_chi_tensor", self.timed(
            "mukai.euler_chi_tensor", pairs.euler_chi_tensor.__wrapped__, self._scan))
        registry = sys.modules["thetachi.identities"].REGISTRY
        for ident, entry in list(registry.items()):
            self._set_item(registry, ident, dataclasses.replace(
                entry,
                check=self.timed(f"identities.{ident}", entry.check),
                sample=self.timed("identities.sample", entry.sample),
            ))

    def _set_item(self, mapping, key, new):
        self._undo.append((mapping, key, mapping[key]))
        mapping[key] = new

    def uninstall(self):
        while self._undo:
            owner, key, original = self._undo.pop()
            if isinstance(owner, dict):
                owner[key] = original
            else:
                setattr(owner, key, original)

    # -- results ---------------------------------------------------------

    def run_pass(self, fn):
        """Run one pass under a fresh trace id; return its result and stats."""
        self.reset()
        self.trace_id += 1
        result = fn()
        return result, self.snapshot()

    def snapshot(self) -> dict:
        """Per-layer metrics of the pass since the last reset."""
        calls, counts = self.calls, self.counts
        out = {}
        for name, _, _ in COUNT_METRICS:
            if name.endswith(".calls"):
                out[name] = calls[name[: -len(".calls")]]
            else:
                out[name] = counts[name]
        out["exterior.merge_sign.hit_ratio"] = _ratio(
            counts["exterior.merge_sign.hits"], calls["exterior.merge_sign"]
        )
        out["mukai.scan.hit_ratio"] = _ratio(
            counts["mukai.scan.hits"], counts["mukai.scan.calls"]
        )
        for layer in SELF_TIME_LAYERS:
            out[f"{layer}.self_s"] = self.self_ns[layer] / 1e9
        for ident in ALL_IDENTITIES:
            out[f"identities.{ident}.s"] = self.total_ns[f"identities.{ident}"] / 1e9
        return out

    def write_spans(self, path):
        with open(path, "w", encoding="utf-8") as handle:
            for trace, span, parent, name, start, end in self.spans:
                handle.write(json.dumps({
                    "trace": trace, "span": span, "parent": parent,
                    "name": name, "start_ns": start, "end_ns": end,
                }) + "\n")


def combine(snapshots: list) -> dict:
    """Counts from the first pass, times as the median over all passes."""
    counts = {name for name, _, _ in COUNT_METRICS}
    return {
        name: value if name in counts else median(snap[name] for snap in snapshots)
        for name, value in snapshots[0].items()
    }
