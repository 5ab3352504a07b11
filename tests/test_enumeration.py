from itertools import permutations
from math import comb, factorial

import pytest

from geopoly import enumeration
from geopoly.enumeration import (
    MAX_ENUM_N,
    barred_preferential_count,
    ordered_set_partitions_count,
    r_stirling_count,
    set_partition_labels,
    set_partitions_count,
)
from geopoly.memo import CACHE_CAP, Memo


def test_bell_numbers():
    assert [set_partitions_count(n) for n in range(7)] == [1, 1, 2, 5, 15, 52, 203]


def test_fubini_numbers():
    assert [ordered_set_partitions_count(n) for n in range(6)] == [1, 1, 3, 13, 75, 541]


def test_block_count_profile():
    assert set_partitions_count(4, 2) == 7
    assert set_partitions_count(5, 1) == 1
    assert set_partitions_count(5, 5) == 1
    assert set_partitions_count(5, 6) == 0
    for n in range(9):
        assert set_partitions_count(n, n + 1) == 0


def test_orderings_never_exceed_the_block_count(monkeypatch):
    # a partition of an 8-set has at most 8 blocks, so no count may order 9 items
    lengths = []

    def recording(items):
        items = list(items)
        lengths.append(len(items))
        return permutations(items)

    monkeypatch.setattr(enumeration, "permutations", recording)
    fresh = Memo(CACHE_CAP)(enumeration._perm_count.__wrapped__)
    monkeypatch.setattr(enumeration, "_perm_count", fresh)
    profile = [set_partitions_count(8, k) for k in range(9)]
    assert ordered_set_partitions_count(8) == 545835
    for s in range(3):
        expected = sum(c * factorial(k) * comb(k + s, s) for k, c in enumerate(profile))
        assert barred_preferential_count(8, s) == expected
    assert max(lengths) == 8


def test_barred_hand_value():
    assert barred_preferential_count(2, 1) == 8
    assert barred_preferential_count(0, 3) == 1  # empty arrangement, bars only


def _barred_direct(n: int, s: int) -> int:
    """Fully explicit re-enumeration: every block sequence, every bar layout."""
    from itertools import combinations

    total = 0
    for _, blocks in set_partition_labels(n):
        for _order in permutations(range(blocks)):
            total += sum(1 for _ in combinations(range(blocks + s), s))
    return total


@pytest.mark.parametrize("n", range(6))
@pytest.mark.parametrize("s", range(4))
def test_barred_matches_direct_enumeration(n, s):
    assert barred_preferential_count(n, s) == _barred_direct(n, s)


def _recursive_partitions(n):
    """Every partition of {0..n-1} as a set of blocks, by placing each element in turn."""
    if n == 0:
        return [frozenset()]
    out = []
    for part in _recursive_partitions(n - 1):
        out.append(part | {frozenset({n - 1})})
        for block in part:
            out.append(part - {block} | {block | {n - 1}})
    return out


@pytest.mark.parametrize("n", range(8))
def test_label_walk_visits_every_partition_once(n):
    seen = []
    for labels, blocks in set_partition_labels(n):
        assert all(label <= max(labels[:i], default=-1) + 1 for i, label in enumerate(labels))
        assert blocks == len(set(labels))
        seen.append(frozenset(frozenset(i for i in range(n) if labels[i] == b) for b in range(blocks)))
    assert len(seen) == len(set(seen))
    assert set(seen) == set(_recursive_partitions(n))


def test_r_stirling_counts():
    # {n k}_1 equals {n k}: separating a single element is vacuous
    for n in range(1, 6):
        for k in range(n + 1):
            assert r_stirling_count(n, k, 1) == set_partitions_count(n, k)
    # elements 0 and 1 must be split: {2 1}_2 = 0, {3 2}_2 = 2
    assert r_stirling_count(2, 1, 2) == 0
    assert r_stirling_count(3, 2, 2) == 2
    assert r_stirling_count(3, 2, 1) == 3


def test_size_guard():
    with pytest.raises(ValueError):
        set_partitions_count(MAX_ENUM_N + 1)
    with pytest.raises(ValueError):
        ordered_set_partitions_count(11)
    with pytest.raises(ValueError):
        set_partitions_count(-1)
