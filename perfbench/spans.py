"""Span tracing for the benchmark's traced run.

The tracer wraps, from outside the package, every public function of each
finslerlab module, ``Jet.__mul__``/``Jet.__rmul__`` (span ``jet.mul``) and the
``json.dump`` the CLI writes its report with (span ``cli.json``).  Modules
bind names directly (``from .jet import eval_jet``), so a wrapper is patched
into every finslerlab namespace that holds the original object: module
globals, module-level dicts such as dispatch tables, and class attributes.
Each call records one span (name, start, end, parent index) in memory.
"""

from __future__ import annotations

import contextlib
import inspect
import json
import sys
import time
import types
from collections import defaultdict
from typing import Callable

LAYERS = ("expr", "jet", "geometry", "spray", "curvature", "surface", "cli")
MUL = "jet.mul"


class CoverageError(RuntimeError):
    """A traced function stays reachable through a binding that cannot be patched."""


class SpanStats:
    """Per span name: calls, inclusive time, self time (minus child spans)
    and time minus the ``jet.mul`` spans beneath it, all in seconds."""

    def __init__(self):
        self.calls: dict[str, int] = defaultdict(int)
        self.total: dict[str, float] = defaultdict(float)
        self.self_time: dict[str, float] = defaultdict(float)
        self.without_mul: dict[str, float] = defaultdict(float)

    def add(self, spans: list[tuple[str, float, float, int]], scale: float) -> None:
        """Adds one call's spans, their durations multiplied by scale."""
        child = [0.0] * len(spans)
        mul = [0.0] * len(spans)
        # A child span starts after its parent, so it has the larger index.
        for i in range(len(spans) - 1, -1, -1):
            name, start, end, parent = spans[i]
            d = (end - start) * scale
            self.calls[name] += 1
            self.total[name] += d
            self.self_time[name] += d - child[i]
            self.without_mul[name] += d - mul[i]
            if parent >= 0:
                child[parent] += d
                mul[parent] += d if name == MUL else mul[i]

    def per_call(self, table: dict[str, float], name: str) -> float:
        """Mean of table[name] over calls; 0.0 for a layer that never ran."""
        return table[name] / self.calls[name] if self.calls[name] else 0.0


def _finslerlab_namespaces() -> list[types.ModuleType]:
    return [
        mod
        for name, mod in sorted(sys.modules.items())
        if mod is not None and (name == "finslerlab" or name.startswith("finslerlab."))
    ]


class Tracer:
    """Patches span-recording wrappers in while ``active``.  ``spans`` fills
    while they are in place; ``drain`` empties it."""

    def __init__(self):
        self.spans: list = []
        self._stack = [-1]
        self._wrapper: dict[int, Callable] = {}  # id(original) -> wrapper
        for layer in LAYERS:
            mod = sys.modules[f"finslerlab.{layer}"]
            for name, obj in vars(mod).items():
                if inspect.isfunction(obj) and obj.__module__ == mod.__name__ and not name.startswith("_"):
                    self._add(obj, f"{layer}.{name}")
        jet_cls = sys.modules["finslerlab.jet"].Jet
        for method in (jet_cls.__mul__, jet_cls.__rmul__):
            if id(method) not in self._wrapper:
                self._add(method, MUL)
        self._add(json.dump, "cli.json")
        self._json_proxy = types.ModuleType("json")
        self._json_proxy.__dict__.update(vars(json))
        self._json_proxy.dump = self._wrapper[id(json.dump)]
        self._bindings = self._find_bindings()

    def _add(self, fn: Callable, name: str) -> None:
        spans, stack, clock = self.spans, self._stack, time.perf_counter

        def traced(*args, **kwargs):
            idx = len(spans)
            spans.append(None)
            parent = stack[-1]
            stack.append(idx)
            start = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                spans[idx] = (name, start, end, parent)

        traced.__wrapped__ = fn
        traced.__name__ = fn.__name__
        self._wrapper[id(fn)] = traced

    def _find_bindings(self) -> list[tuple[Callable[[object], None], object, object]]:
        """(setter, original, replacement) for every patchable binding.

        Raises CoverageError for an original held where no setter can reach
        it (a tuple, list or set), since its calls would go unrecorded."""
        bindings = []

        def visit(items, setter, where: str, nested: bool) -> None:
            for key, value in list(items):
                if id(value) in self._wrapper:
                    bindings.append((setter(key), value, self._wrapper[id(value)]))
                elif value is json:
                    bindings.append((setter(key), json, self._json_proxy))
                elif isinstance(value, dict) and nested:
                    visit(value.items(), item_setter(value), f"{where}.{key}", False)
                elif isinstance(value, (tuple, list, set, frozenset)):
                    if any(id(v) in self._wrapper for v in value):
                        raise CoverageError(f"{where}.{key} holds a traced function")

        def attr_setter(owner):
            return lambda key: lambda v: setattr(owner, key, v)

        def item_setter(table):
            return lambda key: lambda v: table.__setitem__(key, v)

        for mod in _finslerlab_namespaces():
            visit(vars(mod).items(), attr_setter(mod), mod.__name__, True)
            for obj in list(vars(mod).values()):
                if isinstance(obj, type) and obj.__module__ == mod.__name__:
                    visit(vars(obj).items(), attr_setter(obj), f"{mod.__name__}.{obj.__name__}", False)
        return bindings

    @contextlib.contextmanager
    def active(self):
        """Wrappers in place for the duration of the block."""
        for setter, _, replacement in self._bindings:
            setter(replacement)
        try:
            yield
        finally:
            for setter, original, _ in self._bindings:
                setter(original)

    def drain(self) -> list:
        spans = list(self.spans)
        self.spans.clear()
        return spans
