"""In-memory span tracer for the traced benchmark run.

The tracer replaces selected public functions of geopoly with wrappers at
every place they are bound: the defining module, every geopoly module that
imported the name, and every class attribute that aliases it (so
``PowerSeries.__rmul__`` is traced along with ``__mul__``).  The library
itself is not edited.  Each call records one span (name, start, end,
parent, tag); spans stay in memory until the worker writes them out.

Self time of a span is its duration minus the durations of its direct
children.  Calls run on one thread, so children never overlap and that
difference is exactly the part of the interval the children do not cover.
"""

from __future__ import annotations

import functools
import json
import math
import statistics
import sys
import time


class Tracer:
    def __init__(self) -> None:
        # span: [name, start, end, parent index or -1, tag, outermost-of-its-name, cache miss]
        self.spans: list[list] = []
        self._stack: list[int] = []
        self._depth: dict[str, int] = {}

    def _open(self, name: str, tag) -> int:
        idx = len(self.spans)
        parent = self._stack[-1] if self._stack else -1
        depth = self._depth.get(name, 0)
        self._depth[name] = depth + 1
        self.spans.append([name, 0.0, 0.0, parent, tag, depth == 0, None])
        self._stack.append(idx)
        return idx

    def _close(self, idx: int) -> None:
        self._stack.pop()
        name = self.spans[idx][0]
        self._depth[name] -= 1

    def run(self, name: str, fn, *args, **kwargs):
        """Call ``fn`` inside a span named ``name`` (the benchmark's own steps)."""
        return self.wrap(name, fn)(*args, **kwargs)

    def wrap(self, name: str, fn, tag_of=None, cache=None):
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            idx = tracer._open(name, tag_of(*args, **kwargs) if tag_of else None)
            span = tracer.spans[idx]
            misses = cache.cache_info().misses if cache is not None else None
            span[1] = time.perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                span[2] = time.perf_counter()
                if cache is not None:
                    span[6] = cache.cache_info().misses > misses
                tracer._close(idx)

        return traced

    def install(self, targets) -> None:
        """Wrap each ``(name, owner, attr, tag_of)`` target at all its bindings."""
        package = [m for k, m in sys.modules.items() if k == "geopoly" or k.startswith("geopoly.")]
        for name, owner, attr, tag_of in targets:
            original = getattr(owner, attr)
            cache = original if hasattr(original, "cache_info") else None
            traced = self.wrap(name, original, tag_of, cache)
            if isinstance(owner, type):
                for key, value in list(vars(owner).items()):
                    if value is original:
                        setattr(owner, key, traced)
                continue
            for module in package:
                for key, value in list(vars(module).items()):
                    if value is original:
                        setattr(module, key, traced)

    def write(self, path) -> None:
        with open(path, "w") as fh:
            json.dump(
                {
                    "fields": ["name", "start", "end", "parent", "tag", "outermost", "miss"],
                    "spans": [[s[0], s[1], s[2], s[3], _plain(s[4]), s[5], s[6]] for s in self.spans],
                },
                fh,
            )


def _plain(tag):
    if tag is None or isinstance(tag, (int, float, str)):
        return tag
    return str(tag)


def self_times(spans) -> list[float]:
    out = [s[2] - s[1] for s in spans]
    for s in spans:
        if s[3] >= 0:
            out[s[3]] -= s[2] - s[1]
    return out


def aggregate(spans) -> dict[str, dict]:
    """Per span name: calls, total_s (outermost spans only), self_s."""
    selfs = self_times(spans)
    out: dict[str, dict] = {}
    for s, own in zip(spans, selfs):
        row = out.setdefault(s[0], {"calls": 0, "total_s": 0.0, "self_s": 0.0})
        row["calls"] += 1
        row["self_s"] += own
        if s[5]:
            row["total_s"] += s[2] - s[1]
    return out


def curve(spans, name: str, keep) -> dict[int, float]:
    """Median duration per tag (a size) over the spans of ``name`` that ``keep`` accepts."""
    by_size: dict[int, list[float]] = {}
    for s in spans:
        if s[0] == name and keep(s):
            by_size.setdefault(s[4], []).append(s[2] - s[1])
    return {size: statistics.median(ds) for size, ds in sorted(by_size.items())}


def loglog_exponent(points: dict[int, float]) -> float | None:
    """Least-squares slope of log(time) against log(size); None below three sizes."""
    pts = [(math.log(n), math.log(t)) for n, t in points.items() if n > 0 and t > 0]
    if len(pts) < 3:
        return None
    mx = sum(x for x, _ in pts) / len(pts)
    my = sum(y for _, y in pts) / len(pts)
    sxx = sum((x - mx) ** 2 for x, _ in pts)
    return sum((x - mx) * (y - my) for x, y in pts) / sxx
