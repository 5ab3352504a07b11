"""The one cache policy: Memo, prefix growth and the caches built on them."""

import pkgutil
import re
import sys
import threading
from fractions import Fraction as F
from importlib import import_module
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

import geopoly
from geopoly import families as fam
from geopoly.memo import Memo
from geopoly.params import HsuShiueParams
from geopoly.series import gf_carlitz_beta, gf_degenerate_euler
from geopoly.stirling import build_table, cached_table

SRC = Path(geopoly.__file__).resolve().parent
# each triple in three input forms: equal values, distinct objects
TRIPLE_FORMS = (
    ((F(1, 2), 3, -2), ("2/4", F(6, 2), "-4/2"), ("1/2", "3", F(-6, 3))),
    ((0, 1, 0), (F(0), F(1), F(0)), ("0/5", "3/3", 0)),
    ((1, 0, 0), ("1", "0", "0"), (F(7, 7), 0, "0/2")),
)
TRIPLES = tuple(HsuShiueParams(*forms[0]) for forms in TRIPLE_FORMS)
# shuffled, repeated request orders of n in 0..40
REQUESTS = st.lists(st.integers(0, 40), min_size=1, max_size=8)


# ---------------------------------------------------------------------------
# The policy itself
# ---------------------------------------------------------------------------


@settings(max_examples=60, deadline=None)
@given(st.lists(st.integers(0, 5), max_size=40))
def test_small_cap_memo_evicts_oldest_first_with_exact_counts(keys):
    calls, expected_calls = [], []
    square = Memo(3)(lambda k: calls.append(k) or k * k)
    model, hits = [], 0  # the insertion-ordered keys a cap-3 FIFO keeps
    for k in keys:
        assert square(k) == k * k
        if k in model:
            hits += 1
        else:
            expected_calls.append(k)
            model.append(k)
            del model[:-3]
    assert calls == expected_calls
    assert list(square.cache_info.__self__) == [(k,) for k in model]
    assert square.cache_info()._asdict() == {
        "hits": hits, "misses": len(keys) - hits, "maxsize": 3, "currsize": len(model),
    }


@settings(max_examples=30, deadline=None)
@given(REQUESTS)
def test_prefix_memo_rebuilds_at_twice_its_last_index(ns):
    built = []
    rows = Memo(4).prefix(lambda p, n: built.append(n) or build_table(p, n).rows)
    p = TRIPLES[0]
    last = None  # last index of the stored sequence
    expected_builds = []
    for n in ns:
        if last is None or n > last:
            last = n if last is None else max(n, 2 * last)
            expected_builds.append(last)
        assert rows(p, n) == build_table(p, n).rows
    assert built == expected_builds
    info = rows.cache_info()
    assert (info.misses, info.hits) == (len(built), len(ns) - len(built))


def test_memo_counts_and_caps_under_threads():
    # more threads than cores and a short switch interval: a lost counter
    # update or an unlocked eviction would break the totals or the cap
    calls_per_thread, n_threads = 5000, 6
    square = Memo(8)(lambda k: k * k)
    grow = Memo(4).prefix(lambda key, n: tuple(range(n + 1)))
    errors = []

    def work(seed):
        for i in range(calls_per_thread):
            k = (seed * 7 + i) % 13
            if square(k) != k * k or grow(k % 3, k) != tuple(range(k + 1)):
                errors.append((seed, i))

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        threads = [threading.Thread(target=work, args=(t,)) for t in range(n_threads)]
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=60)
    finally:
        sys.setswitchinterval(interval)
    assert not any(t.is_alive() for t in threads)
    assert errors == []
    for info, cap in ((square.cache_info(), 8), (grow.cache_info(), 4)):
        assert info.hits + info.misses == calls_per_thread * n_threads
        assert info.currsize <= cap


# ---------------------------------------------------------------------------
# Growth is exact: every prefix equals a from-scratch build at exactly n
# ---------------------------------------------------------------------------


@settings(max_examples=25, deadline=None)
@given(REQUESTS, st.lists(st.integers(0, 2), min_size=8, max_size=8))
def test_cached_table_equals_build_table_in_any_request_order(ns, forms):
    # each request builds its key afresh, in one of the input forms
    for triple_forms, want_params in zip(TRIPLE_FORMS, TRIPLES):
        for n, form in zip(ns, forms):
            p = HsuShiueParams(*triple_forms[form])
            got, want = cached_table(p, n), build_table(want_params, n)
            assert got == want  # params, n_max and rows
            with pytest.raises(IndexError):
                got.value(n + 1, 0)
            with pytest.raises(IndexError):
                got.row(n + 1)


@settings(max_examples=25, deadline=None)
@given(REQUESTS, st.integers(1, 3))
def test_bernoulli_and_euler_equal_scratch_extraction(ns, s):
    for n in ns:
        bern = gf_carlitz_beta(0, 0, n)
        assert fam.bernoulli_numbers(n) == tuple(bern.egf_coeff(j) for j in range(n + 1))
        euler = gf_degenerate_euler(s, 0, 0, n)
        assert fam._degenerate_euler_values(s, 0, 0, n) == tuple(euler.egf_coeff(j) for j in range(n + 1))


def test_the_table_cache_stores_the_table_itself():
    p = HsuShiueParams(F(5, 7), -2, F(1, 3))  # a triple no other test builds
    first = cached_table(p, 5)
    (stored,) = [v for k, v in cached_table.cache_info.__self__.items() if k == (p,)]
    assert first is stored and len(stored) == 6
    assert cached_table(HsuShiueParams("10/14", -2, "1/3"), 5) is stored
    smaller = cached_table(p, 3)
    assert smaller == build_table(p, 3) and smaller.rows[3] is stored.rows[3]


# ---------------------------------------------------------------------------
# The key: a triple is hashed once, at construction, on its integer form
# ---------------------------------------------------------------------------


@given(
    st.tuples(*[st.fractions(max_denominator=12)] * 3).filter(any),
    st.tuples(*[st.integers(1, 5)] * 3),
)
def test_equal_triples_have_one_form_and_one_hash_in_every_input_form(triple, scales):
    # ints where they are integers, Fractions, and non-reduced "p/q" strings
    plain = [int(v) if v.denominator == 1 else v for v in triple]
    strings = [f"{v.numerator * k}/{v.denominator * k}" for v, k in zip(triple, scales)]
    keys = [HsuShiueParams(*forms) for forms in (triple, plain, strings)]
    for p in keys:
        assert p == keys[0]
        assert p.integer_form() == keys[0].integer_form()
        assert hash(p) == hash(keys[0]) == hash(p.integer_form())


def test_warm_reads_hash_no_fraction(monkeypatch):
    p = HsuShiueParams(F(-1, 3), F(5, 2), F(1, 4))
    x = F(1, 3)
    calls = [
        lambda: cached_table(p, 12),
        lambda: cached_table(p, 7),
        lambda: fam.exp_poly(9, p),
        lambda: fam.geometric_poly(11, 2, p)(x),
        lambda: fam.geometric_poly(4, F(-3, 2), p),
        lambda: fam.spivey_step(6, 3, 1, x, p),
        lambda: fam.geometric_at(10, 2, x, p),
    ]
    for call in calls:  # warm the table at n = 12
        call()
    hashes, fraction_hash = [], F.__hash__
    monkeypatch.setattr(F, "__hash__", lambda self: hashes.append(self) or fraction_hash(self))
    assert hash(F(1, 3)) and hashes  # the counter is live
    hashes.clear()
    for call in calls:
        call()
    assert hashes == []
    cached_table(HsuShiueParams(F(-1, 3), F(5, 2), F(1, 4)), 12)  # an equal, new key
    assert hashes == []


# ---------------------------------------------------------------------------
# Negative n is refused at the prefix boundary, cold or warm
# ---------------------------------------------------------------------------

NEGATIVE_CALLS = (
    "cached_table(HsuShiueParams(0, 1, 0), -1)",
    "bernoulli_numbers(-1)",
    "_degenerate_euler_values(1, 0, 0, -1)",
    "bernoulli_poly(-1)",
)


def test_negative_n_raises_on_a_cold_store(fresh_python):
    code = (
        "from geopoly.families import _degenerate_euler_values, bernoulli_numbers, "
        "bernoulli_poly\n"
        "from geopoly.params import HsuShiueParams\n"
        "from geopoly.stirling import cached_table\n"
        f"for call in {NEGATIVE_CALLS!r}:\n"
        "    try:\n"
        "        eval(call)\n"
        "    except ValueError as exc:\n"
        "        print(call, exc)\n"
        "for c in (cached_table, bernoulli_numbers, _degenerate_euler_values):\n"
        "    print(c.cache_info().hits, c.cache_info().misses, c.cache_info().currsize)\n"
    )
    out = fresh_python("-c", code)
    assert out.returncode == 0, out.stderr
    lines = out.stdout.splitlines()
    assert lines[:-3] == [f"{call} n must be >= 0, got -1" for call in NEGATIVE_CALLS]
    assert lines[-3:] == ["0 0 0"] * 3  # refused before the store was read or written


def test_negative_n_raises_on_a_warm_store():
    p = HsuShiueParams(0, 1, 0)
    cached_table(p, 8), fam.bernoulli_numbers(8), fam._degenerate_euler_values(1, 0, 0, 8)
    scope = {**vars(fam), "cached_table": cached_table, "HsuShiueParams": HsuShiueParams}
    for call in NEGATIVE_CALLS:
        with pytest.raises(ValueError, match="n must be >= 0, got -1"):
            eval(call, scope)


@pytest.mark.parametrize("size", ["True", "2.0"])
@pytest.mark.parametrize("call", NEGATIVE_CALLS)
def test_a_size_that_is_not_an_int_raises(call, size):
    scope = {**vars(fam), "cached_table": cached_table, "HsuShiueParams": HsuShiueParams}
    with pytest.raises(TypeError, match=f"n must be an integer, got {size}"):
        eval(call.replace("-1", size), scope)


# ---------------------------------------------------------------------------
# Cache accounting seen from outside the library
# ---------------------------------------------------------------------------


def test_check_eq14_grows_instead_of_rebuilding_per_n(fresh_python):
    # B_0..B_20 and E_0(0)..E_20(0) one n at a time: 7 growths (at 0, 1, 2,
    # 4, 8, 16, 32) each, where a cache keyed on n would build 21 times
    out = fresh_python(
        "-c",
        "from geopoly import families as f\n"
        "assert f.check_eq14(20).status == 'pass'\n"
        "print(f.bernoulli_numbers.cache_info().misses,\n"
        "      f._degenerate_euler_values.cache_info().misses)\n",
    )
    assert out.returncode == 0, out.stderr
    bern, euler = map(int, out.stdout.split())
    assert bern <= 7 and euler <= 7


def test_check_eq14_builds_each_sequence_once(fresh_python):
    # the (0,1,0) table, B_0..B_20 and E_0(0)..E_20(0) are built once, at
    # n = 20, before the scan; every read per n then hits
    out = fresh_python(
        "-c",
        "from geopoly import families as f, stirling\n"
        "built, build = [], stirling.build_table\n"
        "stirling.build_table = lambda p, n: built.append(n) or build(p, n)\n"
        "assert f.check_eq14(20).status == 'pass'\n"
        "print(built)\n"
        "for c in (stirling.cached_table, f.bernoulli_numbers, f._degenerate_euler_values):\n"
        "    print(c.cache_info().misses)\n",
    )
    assert out.returncode == 0, out.stderr
    assert out.stdout.split() == ["[20]", "1", "1", "1"]


def test_benchmark_cache_names_exist_and_start_cold(fresh_python):
    # the names perfbench/worker.py reads, after the imports it makes
    out = fresh_python(
        "-c",
        "import geopoly\n"
        "from geopoly import analytic, cli, enumeration, exact, families, identities, mellin\n"
        "from geopoly import polynomials, series, stirling\n"
        "print(stirling.cached_table.cache_info()._asdict())\n"
        "print(families.bernoulli_numbers.cache_info()._asdict())\n"
        "print(len(analytic._ZETA_CACHE), len(analytic._CONST_CACHE))\n",
    )
    assert out.returncode == 0, out.stderr
    table, bern, sizes = out.stdout.splitlines()
    assert table == str({"hits": 0, "misses": 0, "maxsize": 512, "currsize": 0})
    assert bern == str({"hits": 0, "misses": 0, "maxsize": 4096, "currsize": 0})
    assert sizes == "0 0"


def test_every_cache_is_a_memo():
    pattern = re.compile(
        r"\blru_cache\b|\bfunctools\.cache\b|from functools import[^\n]*\bcache\b"
    )
    for path in sorted(SRC.glob("*.py")):
        assert not pattern.search(path.read_text()), path.name
    exposed = 0
    for info in pkgutil.iter_modules([str(SRC)]):
        module = import_module(f"geopoly.{info.name}")
        for name, value in vars(module).items():
            if hasattr(value, "cache_info") and not isinstance(value, type):
                assert isinstance(getattr(value.cache_info, "__self__", None), Memo), name
                exposed += 1
    assert exposed >= 8  # the tables, both Bernoulli routes, Euler, EM coefficients, enumeration
