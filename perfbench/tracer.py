"""Span tracing of ``treepark`` from outside the package.

:meth:`Tracer.install` wraps every public module-level function of the
traced modules and the kernel methods of ``Series``.  A function is rebound
under every name that refers to it in any ``treepark`` module, so calls made
inside the package are seen too.  Each call records one span
``(name, start, end, parent)`` in memory; a generator records one span per
resumption, so a span always covers time spent in the layer's own frames.
A function that calls itself gets no span per recursive call: the outermost
call's span covers them, and they count as its own time.
Counters sit at the same boundaries.  Nothing here runs unless a traced
run asks for it.
"""

from __future__ import annotations

import functools
import inspect
import json
import sys
import time
from collections import Counter
from pathlib import Path

LAYERS = ("trees", "parking", "bijections", "series", "census", "cli")
SERIES_METHODS = {
    "__mul__": "mul",
    "__rmul__": "mul",
    "exp": "exp",
    "log": "log",
    "sqrt": "sqrt",
    "inverse": "inverse",
    "compose": "compose",
}


class Tracer:
    def __init__(self) -> None:
        self.names: list[str] = []
        self.starts: list[float] = []
        self.ends: list[float] = []
        self.parents: list[int] = []
        self.calls: Counter[str] = Counter()
        self.items: Counter[str] = Counter()
        self.drivers = 0
        self._open: list[int] = []
        self._undo: list[tuple[object, str, object]] = []

    # -- recording -------------------------------------------------------------

    def _begin(self, name: str) -> int:
        index = len(self.names)
        self.names.append(name)
        self.parents.append(self._open[-1] if self._open else -1)
        self.ends.append(0.0)
        self._open.append(index)
        self.starts.append(time.perf_counter())
        return index

    def _end(self, index: int) -> None:
        self.ends[index] = time.perf_counter()
        self._open.pop()

    def _wrap_function(self, name: str, fn):
        begin, end, calls = self._begin, self._end, self.calls

        if inspect.isgeneratorfunction(fn):
            items = self.items

            @functools.wraps(fn)
            def traced_generator(*args, **kwargs):
                calls[name] += 1
                inner = fn(*args, **kwargs)
                while True:
                    span = begin(name)
                    try:
                        item = next(inner)
                    except StopIteration:
                        end(span)
                        return
                    except BaseException:
                        end(span)
                        raise
                    end(span)
                    items[name] += 1
                    yield item

            return traced_generator

        tracer = self

        open_spans, names = self._open, self.names

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            calls[name] += 1
            if name == "parking.run_parking":
                tracer.drivers += len(args[1])
            if open_spans and names[open_spans[-1]] == name:
                return fn(*args, **kwargs)  # recursion: the outer span covers it
            span = begin(name)
            try:
                return fn(*args, **kwargs)
            finally:
                end(span)

        return traced

    # -- installation ------------------------------------------------------------

    def install(self) -> None:
        """Wrap the package's public functions and ``Series`` kernel methods."""
        import treepark

        loaded = [(layer, sys.modules.get(f"treepark.{layer}")) for layer in LAYERS]
        loaded = [(layer, module) for layer, module in loaded if module is not None]
        holders = [module for _, module in loaded] + [treepark]
        for layer, module in loaded:
            for attr, value in list(vars(module).items()):
                if attr.startswith("_") or not inspect.isfunction(value):
                    continue
                if value.__module__ != module.__name__:
                    continue  # imported here; wrapped where it is defined
                wrapped = self._wrap_function(f"{layer}.{attr}", value)
                for holder in holders:
                    for other, bound in list(vars(holder).items()):
                        if bound is value:
                            self._undo.append((holder, other, value))
                            setattr(holder, other, wrapped)
        series_cls = sys.modules["treepark.series"].Series
        for method, short in SERIES_METHODS.items():
            original = series_cls.__dict__[method]
            self._undo.append((series_cls, method, original))
            setattr(series_cls, method, self._wrap_function(f"series.{short}", original))

    def uninstall(self) -> None:
        for holder, attr, value in reversed(self._undo):
            setattr(holder, attr, value)
        self._undo.clear()

    # -- analysis -----------------------------------------------------------------

    def span_count(self) -> int:
        return len(self.names)

    def duration(self, index: int) -> float:
        return self.ends[index] - self.starts[index]

    def self_times(self) -> Counter[str]:
        """Seconds per layer: each span's duration minus its children's."""
        child_time = [0.0] * len(self.names)
        for i, parent in enumerate(self.parents):
            if parent >= 0:
                child_time[parent] += self.duration(i)
        out: Counter[str] = Counter()
        for i, name in enumerate(self.names):
            out[name.split(".", 1)[0]] += self.duration(i) - child_time[i]
        return out

    def inclusive(self, names, since: int = 0, until: int | None = None) -> float:
        """Seconds under the outermost spans named in ``names``, optionally
        limited to the spans recorded between two :meth:`span_count` marks."""
        names = set(names)
        total = 0.0
        for i in range(since, len(self.names) if until is None else until):
            if self.names[i] in names and not self._inside(i, names):
                total += self.duration(i)
        return total

    def _inside(self, index: int, names: set[str]) -> bool:
        parent = self.parents[index]
        while parent >= 0:
            if self.names[parent] in names:
                return True
            parent = self.parents[parent]
        return False

    def dump(self, path: Path) -> None:
        """Write every span, one JSON array per line: name, start, end, parent."""
        path.parent.mkdir(parents=True, exist_ok=True)
        with path.open("w") as out:
            for row in zip(self.names, self.starts, self.ends, self.parents):
                out.write(json.dumps(row) + "\n")
