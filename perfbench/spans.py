"""In-memory spans around calls into the program's public functions.

The benchmark never edits the program. It wraps a function by replacing
every module attribute under the ``spi`` package that refers to it, so a
call through ``from .model import encode_context`` is seen as well as one
through ``model.encode_context``. Spans are kept in a list and written out
when the run ends.
"""
from __future__ import annotations

import functools
import sys
import time
from dataclasses import dataclass, field
from typing import Callable


@dataclass
class Span:
    name: str
    start: float
    end: float
    parent: int           # index of the enclosing span, -1 at the top
    example: int          # example id, -1 when the call is not about one example
    info: dict = field(default_factory=dict)  # counts taken at the boundary

    @property
    def duration(self) -> float:
        return self.end - self.start


def covered(intervals, lo: float, hi: float) -> float:
    """Length of [lo, hi] covered by the union of ``intervals``."""
    total = 0.0
    reach = lo
    for a, b in sorted(intervals):
        a, b = max(a, reach), min(b, hi)
        if b > a:
            total += b - a
            reach = b
    return total


def self_times(spans: list[Span]) -> list[float]:
    """Each span's duration minus the part of it its child spans cover."""
    children: list[list[tuple[float, float]]] = [[] for _ in spans]
    for span in spans:
        if span.parent >= 0:
            children[span.parent].append((span.start, span.end))
    return [s.duration - covered(children[i], s.start, s.end)
            for i, s in enumerate(spans)]


class Recorder:
    """Collects spans while ``enabled``; when off, wrappers only forward.

    ``example_ids`` maps ``id(example)`` to the benchmark's id for it, so a
    span about one dialogue example carries that id.
    """

    def __init__(self):
        self.spans: list[Span] = []
        self.enabled = False
        self.example_ids: dict[int, int] = {}
        self._open: list[int] = []
        self._restore: list[tuple[object, str, object]] = []

    def wrap(self, name: str, fn: Callable, on_call: Callable | None = None) -> Callable:
        """A function that calls ``fn`` inside a span called ``name``.

        ``on_call(info, parent, args, kwargs, result)`` may add counts to the
        span's ``info`` after ``fn`` returns; ``parent`` is the enclosing
        span's name or None. Its own cost falls outside the span.
        """
        recorder = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if not recorder.enabled:
                return fn(*args, **kwargs)
            example = -1
            for arg in args[:2]:
                example = recorder.example_ids.get(id(arg), -1)
                if example >= 0:
                    break
            parent = recorder._open[-1] if recorder._open else -1
            index = len(recorder.spans)
            span = Span(name, 0.0, 0.0, parent, example)
            recorder.spans.append(span)
            recorder._open.append(index)
            span.start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                span.end = time.perf_counter()
                recorder._open.pop()
            if on_call is not None:
                outer = recorder.spans[parent].name if parent >= 0 else None
                on_call(span.info, outer, args, kwargs, result)
            return result

        return traced

    def install(self, package: str, targets) -> list[str]:
        """Wrap each ``(span name, module, attribute, on_call)`` target at
        every place under ``package`` that refers to the same function.

        A target whose attribute does not exist is skipped, so the benchmark
        keeps running when a later version of the program drops a function;
        the names of skipped targets are returned.
        """
        modules = [m for key, m in sorted(sys.modules.items())
                   if m is not None and (key == package or key.startswith(package + "."))]
        missing = []
        for name, module_name, attr, on_call in targets:
            original = getattr(sys.modules.get(module_name), attr, None)
            if original is None:
                missing.append(name)
                continue
            wrapper = self.wrap(name, original, on_call)
            for module in modules:
                for key, value in list(vars(module).items()):
                    if value is original:
                        setattr(module, key, wrapper)
                        self._restore.append((module, key, original))
        return missing

    def uninstall(self) -> None:
        for module, key, original in reversed(self._restore):
            setattr(module, key, original)
        self._restore.clear()
