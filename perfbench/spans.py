"""In-memory span tracing of exactplane's public boundaries, from outside.

``Tracer.install`` wraps, for the duration of a traced pass, every public
function of each layer module and every public method (and ``__init__``) of
the classes those modules define.  Wrappers are placed in every exactplane
module namespace that holds the original, so calls through ``from .kernel
import intersect`` and through ``dp.p_hor`` are both seen.  Nothing under
``src/`` is edited; ``uninstall`` restores every original.

A span is recorded when control crosses into a layer from a different layer
(a layer is a module: ``kernel``, ``textio``, ...).  Calls that stay inside
one layer run unwrapped apart from a call counter, so their time stays in
the enclosing span's self time.  ``ALWAYS_SPAN`` names the few functions
that get a span even inside their own layer because a metric is about them.
Self time is a span's duration minus the durations of its direct children.

With ``count_fractions``, pure-Python ``fractions.Fraction`` is instrumented
too: ``__new__`` and the arithmetic operators are counted, and every created
value's numerator and denominator bit length feeds ``peak_bits``.
"""

from __future__ import annotations

import functools
import inspect
import sys
import time
from array import array
from fractions import Fraction
from typing import Callable, Dict, List, Tuple

LAYERS = (
    "kernel",
    "textio",
    "linsolve",
    "double_projection",
    "axis_projection",
    "parallelogram",
    "parallelogram_axis",
    "figures",
    "checks",
    "cli",
)

ALWAYS_SPAN = frozenset({"axis_projection.verify_p2", "cli.build_parser"})

ROOT = "perfbench.op"

# prefix of the stderr line on which a traced CLI child reports its spans
TRACE_MARK = "PERFBENCH-TRACE "

_FRACTION_ARITH = (
    "__add__", "__radd__", "__sub__", "__rsub__", "__mul__", "__rmul__",
    "__truediv__", "__rtruediv__", "__floordiv__", "__rfloordiv__",
    "__mod__", "__rmod__", "__pow__", "__rpow__", "__neg__", "__pos__", "__abs__",
)


class Tracer:
    """Spans and counters of one traced pass; create one per pass."""

    def __init__(self) -> None:
        self.names: List[str] = []
        self._ids: Dict[str, int] = {}
        self._layer_of: List[int] = []
        self.span_name = array("i")
        self.span_parent = array("i")
        self.span_start = array("q")
        self.span_end = array("q")
        self.span_op = array("i")
        self.calls = array("q")  # per name id, every call including unwrapped ones
        self.fraction_new = 0
        self.fraction_arith = 0
        self.peak_bits = 0
        self._stack: List[int] = []  # open span indices
        self._stack_layer: List[int] = [-1]
        self._op = -1
        self._restore: List[Tuple[object, str, object]] = []

    # ------------------------------------------------------------- names

    def name_id(self, name: str) -> int:
        nid = self._ids.get(name)
        if nid is None:
            nid = self._ids[name] = len(self.names)
            self.names.append(name)
            self._layer_of.append(self._layer_index(name.split(".", 1)[0]))
            self.calls.append(0)
        return nid

    def _layer_index(self, layer: str) -> int:
        return LAYERS.index(layer) if layer in LAYERS else len(LAYERS)

    # ------------------------------------------------------------- spans

    def _open(self, nid: int) -> int:
        idx = len(self.span_name)
        self.span_name.append(nid)
        self.span_parent.append(self._stack[-1] if self._stack else -1)
        self.span_op.append(self._op)
        self.span_end.append(0)
        self._stack.append(idx)
        self._stack_layer.append(self._layer_of[nid])
        self.span_start.append(time.perf_counter_ns())
        return idx

    def _close(self, idx: int) -> None:
        self.span_end[idx] = time.perf_counter_ns()
        self._stack.pop()
        self._stack_layer.pop()

    def wrap(self, name: str, fn: Callable) -> Callable:
        nid = self.name_id(name)
        layer = self._layer_of[nid]
        always = name in ALWAYS_SPAN
        calls = self.calls
        stack_layer = self._stack_layer
        open_, close = self._open, self._close

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            calls[nid] += 1
            if stack_layer[-1] == layer and not always:
                return fn(*args, **kwargs)
            idx = open_(nid)
            try:
                return fn(*args, **kwargs)
            finally:
                close(idx)

        return traced

    def span(self, name: str, fn: Callable, *args, **kwargs):
        """Run ``fn`` inside one explicitly named span."""
        nid = self.name_id(name)
        self.calls[nid] += 1
        idx = self._open(nid)
        try:
            return fn(*args, **kwargs)
        finally:
            self._close(idx)

    def run_op(self, index: int, fn: Callable, *args):
        """Run one benchmark operation as a root span."""
        self._op = index
        return self.span(ROOT, fn, *args)

    # ----------------------------------------------------------- install

    def _patch(self, owner: object, attr: str, value: object) -> None:
        self._restore.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, value)

    def install(self, count_fractions: bool = False, package: str = "exactplane") -> None:
        """Wrap the public boundary of every layer module of ``package``;
        with ``count_fractions``, also count Fraction creation and arithmetic."""
        modules = {
            name: mod for name, mod in sys.modules.items()
            if mod is not None and (name == package or name.startswith(package + "."))
        }
        wrapped: Dict[int, Callable] = {}
        for layer in LAYERS:
            mod = modules.get(f"{package}.{layer}")
            if mod is None:
                continue
            for attr, obj in list(vars(mod).items()):
                if attr.startswith("_") or getattr(obj, "__module__", None) != mod.__name__:
                    continue
                if inspect.isclass(obj):
                    self._wrap_class(layer, obj)
                elif f"{layer}.{attr}" == "checks.run_property":
                    wrapped[id(obj)] = self._wrap_property(obj)
                elif inspect.isfunction(obj):
                    wrapped[id(obj)] = self.wrap(f"{layer}.{attr}", obj)
        # replace every reference, including the defining module's own, so
        # module-attribute calls (dp.p_hor) and imported names both go through
        for mod in modules.values():
            for attr, obj in list(vars(mod).items()):
                replacement = wrapped.get(id(obj))
                if replacement is not None:
                    self._patch(mod, attr, replacement)
        if count_fractions:
            self._instrument_fraction()

    def _wrap_property(self, fn: Callable) -> Callable:
        """One span per property run, named ``checks.property.<name>``."""

        @functools.wraps(fn)
        def traced(name, *args, **kwargs):
            return self.span(f"checks.property.{name}", fn, name, *args, **kwargs)

        return traced

    def _wrap_class(self, layer: str, cls: type) -> None:
        if issubclass(cls, BaseException) or not hasattr(cls, "__dataclass_fields__"):
            return  # errors and enums carry no work worth a span
        for attr, obj in list(vars(cls).items()):
            if attr == "__init__" or (not attr.startswith("_") and inspect.isfunction(obj)):
                self._patch(cls, attr, self.wrap(f"{layer}.{cls.__name__}.{attr}", obj))

    def _instrument_fraction(self) -> None:
        tracer = self
        original_new = Fraction.__dict__["__new__"]
        new_fn = original_new.__func__ if isinstance(original_new, staticmethod) else original_new

        def counted_new(cls, *args, **kwargs):
            value = new_fn(cls, *args, **kwargs)
            tracer.fraction_new += 1
            bits = max(value._numerator.bit_length(), value._denominator.bit_length())
            if bits > tracer.peak_bits:
                tracer.peak_bits = bits
            return value

        self._patch(Fraction, "__new__", staticmethod(counted_new))
        for attr in _FRACTION_ARITH:
            op = Fraction.__dict__.get(attr)
            if op is None:
                continue

            def counted(*args, _op=op):
                tracer.fraction_arith += 1
                return _op(*args)

            self._patch(Fraction, attr, counted)

    def uninstall(self) -> None:
        while self._restore:
            owner, attr, original = self._restore.pop()
            setattr(owner, attr, original)

    # --------------------------------------------------------- summaries

    def summary(self) -> dict:
        """Per layer: boundary ``calls`` and ``self_ns``; per span name:
        ``spans`` and inclusive ``dur_ns``; every call count; Fraction counts."""
        n = len(self.span_name)
        names, parent = self.span_name, self.span_parent
        start, end = self.span_start, self.span_end
        child = [0] * n
        for i in range(n):
            if parent[i] >= 0:
                child[parent[i]] += end[i] - start[i]
        layers: Dict[str, Dict[str, int]] = {}
        by_name: Dict[str, Dict[str, int]] = {}
        for i in range(n):
            name = self.names[names[i]]
            layer = name.split(".", 1)[0]
            dur = end[i] - start[i]
            rec = layers.setdefault(layer, {"calls": 0, "self_ns": 0})
            rec["self_ns"] += dur - child[i]
            p = parent[i]
            if p < 0 or self.names[names[p]].split(".", 1)[0] != layer:
                rec["calls"] += 1
            named = by_name.setdefault(name, {"spans": 0, "dur_ns": 0})
            named["spans"] += 1
            named["dur_ns"] += dur
        return {
            "layers": layers,
            "spans": by_name,
            "calls": {name: self.calls[i] for i, name in enumerate(self.names)},
            "fraction_new": self.fraction_new,
            "fraction_arith": self.fraction_arith,
            "peak_bits": self.peak_bits,
        }

    def export(self) -> dict:
        """All spans, columnar, with times relative to the first span."""
        t0 = self.span_start[0] if len(self.span_start) else 0
        return {
            "names": list(self.names),
            "name": list(self.span_name),
            "parent": list(self.span_parent),
            "op": list(self.span_op),
            "start_ns": [t - t0 for t in self.span_start],
            "end_ns": [t - t0 for t in self.span_end],
        }


def merge(summaries: List[dict]) -> dict:
    """Sum the summaries of several traced processes (peak_bits: maximum)."""
    out = {"layers": {}, "spans": {}, "calls": {}, "fraction_new": 0,
           "fraction_arith": 0, "peak_bits": 0}
    for s in summaries:
        for section in ("layers", "spans"):
            for name, rec in s[section].items():
                into = out[section].setdefault(name, dict.fromkeys(rec, 0))
                for key, value in rec.items():
                    into[key] += value
        for name, count in s["calls"].items():
            out["calls"][name] = out["calls"].get(name, 0) + count
        out["fraction_new"] += s["fraction_new"]
        out["fraction_arith"] += s["fraction_arith"]
        out["peak_bits"] = max(out["peak_bits"], s["peak_bits"])
    return out
