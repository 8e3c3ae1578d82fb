"""Span tracing from outside the program.

The tracer replaces a function at the place its callers look it up (a module
attribute) with a wrapper that records a span: name, start, end and parent.
Spans stay in memory and are written out once, at exit.  A span's self time
is its duration minus the time its child spans cover; single-threaded calls
nest, so the children's durations are summed straight into the parent.
"""

from __future__ import annotations

import functools
import gzip
import math
from collections import Counter, defaultdict
from time import perf_counter


class Tracer:
    def __init__(self):
        self.spans: list[tuple[int, str, float, float, int]] = []
        self.calls: Counter = Counter()
        self.total = defaultdict(float)
        self.self_time = defaultdict(float)
        self.durations = defaultdict(list)  # per-call durations, for named keys only
        self.counters: Counter = Counter()
        self._stack: list[list] = []
        self._next_id = 0
        self._patches: list[tuple[object, str, object, object]] = []

    # -- spans ---------------------------------------------------------------

    def begin(self, name: str) -> None:
        self._next_id += 1
        self._stack.append([self._next_id, name, perf_counter(), 0.0])

    def end(self) -> float:
        now = perf_counter()
        sid, name, start, child = self._stack.pop()
        dur = now - start
        self.calls[name] += 1
        self.total[name] += dur
        self.self_time[name] += dur - child
        parent = 0
        if self._stack:
            self._stack[-1][3] += dur
            parent = self._stack[-1][0]
        self.spans.append((sid, name, start, now, parent))
        return dur

    # -- patching ------------------------------------------------------------

    def wrap(self, module, attr: str, name: str, observe=None, on_error=None) -> None:
        """Trace calls that look `attr` up on `module`.

        observe(tracer, args, kwargs, result, seconds) runs after a call that
        returned; on_error(tracer, exc) after one that raised.
        """
        original = getattr(module, attr)
        tracer = self

        @functools.wraps(original)
        def wrapper(*args, **kwargs):
            tracer.begin(name)
            try:
                result = original(*args, **kwargs)
            except BaseException as exc:
                tracer.end()
                if on_error is not None:
                    on_error(tracer, exc)
                raise
            dur = tracer.end()
            if observe is not None:
                observe(tracer, args, kwargs, result, dur)
            return result

        self._patches.append((module, attr, original, wrapper))

    def install(self) -> None:
        for module, attr, _, wrapper in self._patches:
            setattr(module, attr, wrapper)

    def uninstall(self) -> None:
        for module, attr, original, _ in self._patches:
            setattr(module, attr, original)

    # -- output --------------------------------------------------------------

    def write(self, path) -> None:
        with gzip.open(path, "wt", encoding="ascii") as fh:
            fh.write("id,name,start_s,end_s,parent\n")
            for sid, name, start, end, parent in self.spans:
                fh.write(f"{sid},{name},{start:.9f},{end:.9f},{parent}\n")


def percentile(values, q: float) -> float:
    """Nearest-rank percentile; 0.0 for no values."""
    if not values:
        return 0.0
    ordered = sorted(values)
    rank = max(1, math.ceil(q / 100.0 * len(ordered)))
    return ordered[rank - 1]
