"""Exhaustive combinatorial counting oracles.

Everything here is counted by brute enumeration -- no Stirling numbers, no
closed forms -- so these totals can sit on the opposite side of an identity
check from the algebraic machinery.  Enumeration blows up factorially, so
every entry point guards n <= MAX_ENUM_N, and the barred count s <= MAX_ENUM_S.
"""

from __future__ import annotations

from itertools import combinations, permutations
from operator import countOf
from typing import Iterator

from .exact import as_size
from .memo import CACHE_CAP, Memo

MAX_ENUM_N = 10
# The bars' walk at n = MAX_ENUM_N visits C(n + s + 1, s + 1) placements; at s = 12
# it took 0.037 s, under the 0.12 s of the n = 10 ordering walk it rides with
# (s = 13: 0.064 s; one pinned CPU, Python 3.11).
MAX_ENUM_S = 12


def set_partition_labels(n: int) -> Iterator[tuple[list[int], int]]:
    """Every partition of {0, ..., n-1} as (labels, blocks), one at a time.

    labels[i] is the block of element i, blocks numbered from 0 in the
    order of their least elements, so each label is at most one more than
    every label before it (a restricted growth string); blocks is how many
    there are.  One plain walk in lexicographic order of the labels: the
    same list is yielded each time, changed in place.
    """
    as_size(n, most=MAX_ENUM_N)
    labels = [0] * n
    opened = [0] + [1] * n  # opened[i]: blocks among elements 0..i-1
    while True:
        yield labels, opened[n]
        i = n - 1
        while i > 0 and labels[i] == opened[i]:  # element i already opens a block
            i -= 1
        if i <= 0:
            return
        labels[i] += 1
        labels[i + 1:] = [0] * (n - 1 - i)
        opened[i + 1:] = [max(opened[i], labels[i] + 1)] * (n - i)


@Memo(CACHE_CAP)
def _block_count_profile(n: int) -> tuple[int, ...]:
    """profile[k] = number of partitions of an n-set into exactly k blocks, k <= n."""
    profile = [0] * (n + 1)  # no partition has more blocks than elements
    for _, blocks in set_partition_labels(n):
        profile[blocks] += 1
    return tuple(profile)


def set_partitions_count(n: int, k: int | None = None) -> int:
    """Partitions of an n-set, optionally into exactly k blocks."""
    as_size(n, most=MAX_ENUM_N)
    profile = _block_count_profile(n)
    if k is None:
        return sum(profile)
    return profile[k] if as_size(k, "k") < len(profile) else 0


@Memo(CACHE_CAP)
def _perm_count(k: int) -> int:
    # orderings counted by enumeration, not by a factorial formula: every
    # one has length k (the empty one at k = 0 too), counted in one C pass
    return countOf(map(len, permutations(range(k))), k)


@Memo(CACHE_CAP)
def _bar_placements(k: int, s: int) -> int:
    # ways to interleave s identical bars with k blocks, counted exhaustively
    return countOf(map(len, combinations(range(k + s), s)), s)


def ordered_set_partitions_count(n: int, k: int | None = None) -> int:
    """Ordered set partitions (every block sequence of every partition)."""
    as_size(n, most=MAX_ENUM_N)
    profile = _block_count_profile(n)
    if k is not None:
        return profile[k] * _perm_count(k) if as_size(k, "k") < len(profile) else 0
    return sum(profile[j] * _perm_count(j) for j in range(len(profile)))


def barred_preferential_count(n: int, s: int) -> int:
    """Ordered set partitions with s separating bars inserted among blocks."""
    as_size(n, most=MAX_ENUM_N)
    as_size(s, "s", 0, MAX_ENUM_S)
    profile = _block_count_profile(n)
    return sum(
        profile[j] * _perm_count(j) * _bar_placements(j, s) for j in range(len(profile))
    )


def r_stirling_count(n: int, k: int, r: int) -> int:
    """Partitions of an n-set into k blocks with elements 0..r-1 separated."""
    as_size(n, most=MAX_ENUM_N)
    as_size(k, "k")
    as_size(r, "r", 0, n)
    return sum(1 for labels, blocks in set_partition_labels(n)
               if blocks == k and len(set(labels[:r])) == r)
