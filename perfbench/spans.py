"""In-memory span tracing around library functions, from outside the library.

A span is ``[name, start, end, parent, game]``: ``parent`` is the index of
the enclosing span (-1 at the top) and ``game`` the input the benchmark was
working on when the span opened. Spans come from a call stack, so a child
always lies inside its parent, and a span's self time is its duration minus
the durations of its direct children.

Spans are recorded by replacing a function on the module where its callers
look it up (``smpe.solver.nash_enumerate`` is the name ``solve`` calls, not
``smpe.nash.nash_enumerate``). :class:`Tracer` puts every original back on
exit and can report any name that is still replaced.
"""

from __future__ import annotations

import functools
import importlib
import json
import time
from dataclasses import dataclass
from typing import Callable


@dataclass(frozen=True)
class Target:
    """One function to trace: where callers resolve it and the span name.

    ``tally(args, kwargs, result)`` may return counter increments to record
    at the same boundary, so ratios are measured where the work happens.
    """

    module: str
    attr: str
    name: str
    tally: Callable | None = None


class Tracer:
    """Records spans and counters while installed; restores originals on exit."""

    def __init__(self, targets=(), clock=time.perf_counter):
        self.targets = tuple(targets)
        self.clock = clock
        self.spans = []
        self.counters = {}
        self.game = None
        self.missing = []
        self._stack = []
        self._originals = []

    def begin(self, name: str) -> int:
        index = len(self.spans)
        parent = self._stack[-1] if self._stack else -1
        self.spans.append([name, self.clock(), None, parent, self.game])
        self._stack.append(index)
        return index

    def end(self, index: int) -> None:
        self.spans[index][2] = self.clock()
        self._stack.pop()

    def count(self, key: str, amount=1) -> None:
        self.counters[key] = self.counters.get(key, 0) + amount

    def _wrap(self, fn, target: Target):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            index = self.begin(target.name)
            try:
                result = fn(*args, **kwargs)
            finally:
                self.end(index)
            if target.tally is not None:
                for key, amount in target.tally(args, kwargs, result).items():
                    self.count(key, amount)
            return result

        return traced

    def install(self) -> None:
        """Replace every target that exists; absent ones are listed in ``missing``."""
        for target in self.targets:
            module = importlib.import_module(target.module)
            original = getattr(module, target.attr, None)
            if original is None:
                self.missing.append(f"{target.module}.{target.attr}")
                continue
            self._originals.append((module, target.attr, original))
            setattr(module, target.attr, self._wrap(original, target))

    def uninstall(self) -> None:
        for module, attr, original in reversed(self._originals):
            setattr(module, attr, original)

    def still_wrapped(self) -> list:
        """Names whose original function is not back in place."""
        return [
            f"{module.__name__}.{attr}"
            for module, attr, original in self._originals
            if getattr(module, attr) is not original
        ]

    def __enter__(self):
        self.install()
        return self

    def __exit__(self, *exc):
        self.uninstall()
        return False

    def self_times(self) -> list:
        """Self seconds of every span, in recording order."""
        child_time = [0.0] * len(self.spans)
        for _name, start, end, parent, _game in self.spans:
            if parent >= 0:
                child_time[parent] += end - start
        return [end - start - child for (_, start, end, _, _), child in zip(self.spans, child_time)]

    def summary(self) -> dict:
        """Per span name: calls, total (inclusive) seconds and self seconds."""
        out = {}
        for (name, start, end, _, _), own in zip(self.spans, self.self_times()):
            row = out.setdefault(name, {"calls": 0, "total_s": 0.0, "self_s": 0.0})
            row["calls"] += 1
            row["total_s"] += end - start
            row["self_s"] += own
        return out

    def write(self, path) -> None:
        """One JSON array per span: name, start, end, parent, game."""
        with open(path, "w", encoding="utf-8") as fh:
            for span in self.spans:
                fh.write(json.dumps(span) + "\n")
