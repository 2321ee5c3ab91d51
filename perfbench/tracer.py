"""Span tracing from outside the program.

`Tracer.install` wraps every public function of each dramastyle layer
module, and every public method of the classes those modules define, and
rebinds each wrapped function under every name that refers to it in any
loaded dramastyle module. Functions are found by walking the modules, not
by a list of names, so renamed or merged functions are still traced.

Each call records one span: id, parent span id, layer, qualified name,
thread, start, end and whether it raised. Spans stay in memory until the
run ends. A span opened on a worker thread with no open span of its own
takes the main thread's innermost open span as its parent, because the
pipeline starts threads only from inside a traced call.
"""
from __future__ import annotations

import functools
import inspect
import itertools
import json
import sys
import threading
import time

LAYERS = ("cli", "experiment", "ingest", "segmentation", "tokenization",
          "similarity", "homogeneity")

FIELDS = ("id", "parent", "layer", "name", "thread", "start", "end", "error")


class Tracer:
    def __init__(self):
        self.spans: list[tuple] = []
        self.results: list = []  # return values the work counters read
        self._ids = itertools.count(1)
        self._local = threading.local()
        self._main_ident = threading.main_thread().ident
        self._main_stack: list[int] = []

    def _stack(self) -> list[int]:
        if threading.get_ident() == self._main_ident:
            return self._main_stack
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def _wrap(self, fn, layer: str, name: str):
        spans, ids, clock, get_ident = self.spans, self._ids, time.perf_counter, threading.get_ident
        main_stack, keep = self._main_stack, self.results.append

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            stack = self._stack()
            if stack:
                parent = stack[-1]
            else:
                parent = main_stack[-1] if main_stack else None
            sid = next(ids)
            stack.append(sid)
            error = True
            start = clock()
            try:
                result = fn(*args, **kwargs)
                error = False
            finally:
                end = clock()
                stack.pop()
                spans.append((sid, parent, layer, name, get_ident(), start, end, error))
            if hasattr(result, "turns") or hasattr(result, "counts"):
                keep(result)
            return result

        return traced

    def install(self, package: str = "dramastyle") -> int:
        """Wrap the package's public functions; return how many were wrapped."""
        modules = [m for n, m in sorted(sys.modules.items())
                   if m is not None and (n == package or n.startswith(package + "."))]
        wrapped = {}
        for mod in modules:
            layer = mod.__name__.rpartition(".")[2]
            if layer not in LAYERS:
                continue
            for name, obj in vars(mod).items():
                if name.startswith("_") or getattr(obj, "__module__", None) != mod.__name__:
                    continue
                if inspect.isfunction(obj):
                    wrapped[obj] = self._wrap(obj, layer, f"{layer}.{name}")
                elif inspect.isclass(obj):
                    self._wrap_methods(obj, layer)
        for mod in modules:
            for name, obj in list(vars(mod).items()):
                if inspect.isfunction(obj) and obj in wrapped:
                    setattr(mod, name, wrapped[obj])
        return len(wrapped)

    def _wrap_methods(self, cls, layer: str) -> None:
        for attr, raw in list(vars(cls).items()):
            if attr.startswith("_"):
                continue
            name = f"{layer}.{cls.__name__}.{attr}"
            if isinstance(raw, (classmethod, staticmethod)):
                setattr(cls, attr, type(raw)(self._wrap(raw.__func__, layer, name)))
            elif inspect.isfunction(raw):
                setattr(cls, attr, self._wrap(raw, layer, name))

    def dump(self, path) -> None:
        """Write the spans as JSON: the field names once, then one row per span.

        One file holds one run, so the file is the trace identifier.
        """
        with open(path, "w", encoding="utf-8") as f:
            json.dump({"fields": FIELDS, "spans": self.spans}, f)


def _covered(intervals: list[tuple[float, float]], lo: float, hi: float) -> float:
    """Length of [lo, hi] covered by the union of the intervals."""
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


def layer_summary(spans) -> dict[str, dict[str, float]]:
    """Per layer: self time (span time not covered by child spans), calls, errors.

    Spans on concurrent threads each count their own self time, so a layer
    running on several threads can report more self time than wall time.
    """
    children: dict = {}
    for s in spans:
        children.setdefault(s[1], []).append((s[5], s[6]))
    out = {layer: {"self_s": 0.0, "calls": 0, "errors": 0} for layer in LAYERS}
    for sid, _, layer, _, _, start, end, error in spans:
        row = out[layer]
        row["self_s"] += (end - start) - _covered(children.get(sid, []), start, end)
        row["calls"] += 1
        row["errors"] += int(error)
    return out
