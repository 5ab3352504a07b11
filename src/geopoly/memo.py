"""One cache policy: a bounded, insertion-ordered memo behind one lock.

A `Memo` dict keeps at most ``maxsize`` keys (a module constant), dropping the
oldest; ``lookup(key, n)`` hits on a value with terms 0..n (any value if n < 0).
``@Memo(cap)`` caches ``f(*args)`` (never None).  ``@Memo(cap).prefix`` keeps
terms 0..L of ``f(*key, n)``, term n free of L, per key; rebuilds at max(n, 2L).
A prefix value is any sequence with ``len`` and ``seq[: n + 1]``: a tuple,
or a `stirling.StirlingTable`, whose prefix is a table of rows 0..n.
"""

from collections import namedtuple
from functools import wraps
from threading import Lock

from .exact import as_size

CACHE_CAP = 4096
CacheInfo = namedtuple("CacheInfo", "hits misses maxsize currsize")


class Memo(dict):
    __slots__ = ("maxsize", "lookups", "misses", "_lock")  # fast reads on the hot path

    def __init__(self, maxsize: int) -> None:  # dict.__new__ made it empty
        self.maxsize, self.lookups, self.misses, self._lock = maxsize, 0, 0, Lock()

    def lookup(self, key, n: int = -1):
        with self._lock:
            value = self.get(key)
            self.lookups += 1
            self.misses += value is None or 0 <= n and len(value) <= n
            return value

    def put(self, key, value):
        with self._lock:
            self[key] = value
            if len(self) > self.maxsize:
                del self[next(iter(self))]
        return value

    def cache_info(self) -> CacheInfo:
        with self._lock:
            return CacheInfo(self.lookups - self.misses, self.misses, self.maxsize, len(self))

    def __call__(self, f):
        @wraps(f)
        def cached(*args):
            value = self.lookup(args)
            return self.put(args, f(*args)) if value is None else value
        cached.cache_info = self.cache_info
        return cached

    def prefix(self, f):
        @wraps(f)
        def cached(*args):
            key, n = args[:-1], as_size(args[-1])
            seq = self.lookup(key, n)
            if seq is None or len(seq) <= n:
                seq = self.put(key, f(*key, n if seq is None else max(n, 2 * len(seq) - 2)))
            return seq[: n + 1]
        cached.cache_info = self.cache_info
        return cached
