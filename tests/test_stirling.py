import ast
import inspect
import itertools
from fractions import Fraction as F

import pytest
from hypothesis import example, given, settings, strategies as st

from geopoly import series, stirling
from geopoly.enumeration import r_stirling_count, set_partitions_count
from geopoly.exact import gen_factorial
from geopoly.params import HsuShiueParams
from geopoly.report import fmt_rational
from geopoly.series import binom_deform, deformed_base
from geopoly.stirling import build_table, cached_table, specialize, verify_against_gf

small_fractions = st.fractions(min_value=-4, max_value=4, max_denominator=3)


def fraction_rows(params, n_max):
    """The reference: the recurrence on reduced Fractions, one cell at a time."""
    alpha, beta, r = params.alpha, params.beta, params.r
    rows = [(F(1),)]
    for n in range(n_max):
        prev = rows[n]
        nxt = []
        for k in range(n + 2):
            acc = prev[k - 1] if 1 <= k <= n + 1 else F(0)
            if k <= n:
                acc += (k * beta - n * alpha + r) * prev[k]
            nxt.append(acc)
        rows.append(tuple(nxt))
    return rows


sevenths = st.fractions(min_value=-3, max_value=3, max_denominator=7)


@settings(max_examples=40, deadline=None)
@given(alpha=sevenths, beta=sevenths, r=sevenths, n_max=st.integers(0, 30))
@example(alpha=F(0), beta=F(1), r=F(0), n_max=30)  # stirling2, alpha = 0
@example(alpha=F(1), beta=F(0), r=F(0), n_max=30)  # stirling1_signed, beta = 0
@example(alpha=F(-2, 7), beta=F(-5, 3), r=F(-1, 6), n_max=30)  # all three parameters negative
def test_integer_triangle_equals_the_fraction_recurrence(alpha, beta, r, n_max):
    if alpha == beta == r == 0:
        r = F(1, 7)
    params = HsuShiueParams(alpha, beta, r)
    table, want = build_table(params, n_max), fraction_rows(params, n_max)
    assert all(isinstance(t, int) for row in table.rows for t in row)
    for n in range(n_max + 1):
        assert table.row(n) == want[n]
        assert [table.value(n, k) for k in range(n + 2)] == [*want[n], 0]


@pytest.mark.parametrize("bump", [1, F(1, 7)])
def test_with_entry_rescales_only_its_row(bump):
    table = build_table(HsuShiueParams(F(1, 2), 3, -2), 6)
    bad = table.with_entry(4, 2, table.value(4, 2) + bump)
    assert bad.value(4, 2) == table.value(4, 2) + bump
    assert bad.row(4) == tuple(v + bump * (k == 2) for k, v in enumerate(table.row(4)))
    for n in (0, 1, 2, 3, 5, 6):
        assert (bad.rows[n], bad.dens[n]) == (table.rows[n], table.dens[n])
        assert bad.row(n) == table.row(n)
    assert table.value(4, 2) == fraction_rows(table.params, 6)[4][2]  # the original is untouched


def test_no_index_reads_or_writes_from_the_end():
    # a negative row or column raises as value does, and does not wrap to the end
    table = build_table(HsuShiueParams(0, 1, 0), 4)
    for read in (lambda: table.row(-1), lambda: table.row(5), lambda: table.value(-1, 0),
                 lambda: table.value(2, -1)):
        with pytest.raises(IndexError, match=r"row -1 outside|row 5 outside|negative column"):
            read()
    for n, k, match in ((-1, 0, "row -1 outside"), (5, 0, "row 5 outside"),
                        (2, -1, "negative column -1"), (2, 3, "column 3 outside row 2")):
        with pytest.raises(IndexError, match=match):
            table.with_entry(n, k, 7)
    assert table.value(2, 3) == 0  # a cell past the diagonal reads 0, but is no cell to write
    assert table.with_entry(2, 2, 9).value(2, 2) == 9


def test_table_builds_without_the_series_module(monkeypatch):
    # the oracle's module may fail entirely: build_table and cached_table never call it
    def boom(*args, **kwargs):
        raise AssertionError("stirling called series outside the GF oracle")

    for name, value in list(vars(series).items()):
        public = inspect.isfunction(value) and not name.startswith("_")
        if public and value.__module__ == series.__name__:
            monkeypatch.setattr(series, name, boom)
            if getattr(stirling, name, None) is value:
                monkeypatch.setattr(stirling, name, boom)
    params = HsuShiueParams(F(3, 11), F(-2, 5), F(5, 6))  # a triple no other test builds
    assert build_table(params, 12).row(12) == fraction_rows(params, 12)[12]
    misses = cached_table.cache_info().misses
    assert cached_table(params, 9).value(9, 4) == fraction_rows(params, 9)[9][4]
    assert cached_table.cache_info().misses == misses + 1
    with pytest.raises(AssertionError, match="outside the GF oracle"):
        verify_against_gf(build_table(params, 3), 3)  # the patch does reach the oracle


def test_only_the_gf_oracle_names_series():
    tree = ast.parse(inspect.getsource(stirling))
    imported = {
        alias.asname or alias.name
        for node in ast.walk(tree)
        if isinstance(node, ast.ImportFrom) and node.module == "series"
        for alias in node.names
    }
    assert imported == {"falling_products"}
    outside = [
        (node.lineno, node.id)
        for top in tree.body
        if not (isinstance(top, ast.FunctionDef) and top.name == "verify_against_gf")
        and not isinstance(top, ast.ImportFrom)
        for node in ast.walk(top)
        if isinstance(node, ast.Name) and node.id in imported | {"series"}
    ]
    assert outside == []


def test_invalid_triple_rejected():
    with pytest.raises(ValueError):
        HsuShiueParams(0, 0, 0)


def test_table_shape_and_diagonals():
    p = HsuShiueParams(F(1, 2), 3, F(-2))
    table = build_table(p, 8)
    for n in range(9):
        assert table.value(n, n) == 1
        assert table.value(n, 0) == gen_factorial(p.r, p.alpha, n)
    assert table.value(5, 7) == 0  # k > n convention
    assert table.value(2, 1) == 2 * p.r + p.beta - p.alpha


def test_recurrence_holds_at_every_cell():
    p = HsuShiueParams(F(-1, 3), F(5, 2), F(1, 4))
    table = build_table(p, 10)
    for n in range(10):
        for k in range(n + 2):
            expected = table.value(n, k - 1) if k >= 1 else F(0)
            expected += (k * p.beta - n * p.alpha + p.r) * table.value(n, k) if k <= n else 0
            assert table.value(n + 1, k) == expected


def test_classical_stirling2_matches_enumeration():
    table = build_table(specialize("stirling2"), 8)
    for n in range(9):
        for k in range(n + 1):
            assert table.value(n, k) == set_partitions_count(n, k), (n, k)
    assert table.value(3, 2) == 3
    assert table.value(4, 2) == 7


def test_stirling1_signed_values():
    table = build_table(specialize("stirling1_signed"), 5)
    # signed first kind: row 4 is 0, -6, 11, -6, 1
    assert table.row(4) == (0, -6, 11, -6, 1)
    rep = verify_against_gf(table, 5)
    assert rep.status == "pass"


def test_r_stirling_matches_enumeration():
    r = 2
    table = build_table(specialize("r_stirling", r=r), 6)
    for n in range(7):
        for k in range(n + 1):
            assert table.value(n, k) == r_stirling_count(n + r, k + r, r), (n, k)


def test_r_stirling_r1_shifts_classical():
    table = build_table(specialize("r_stirling", r=1), 6)
    classical = build_table(specialize("stirling2"), 7)
    for n in range(7):
        for k in range(n + 1):
            assert table.value(n, k) == classical.value(n + 1, k + 1)


def test_whitney_and_r_whitney():
    p = specialize("r_whitney", beta=2, r=1)
    assert p == HsuShiueParams(0, 2, 1)
    table = build_table(p, 4)
    assert table.value(1, 1) == 1  # [t] of ((e^{2t}-1)/2) e^t
    assert table.value(1, 0) == 1  # r
    assert specialize("whitney", beta=3) == HsuShiueParams(0, 3, 1)


def test_howard_and_carlitz_triples():
    assert specialize("howard_degenerate_weighted", alpha=F(1, 3), r=F(2)) == HsuShiueParams(
        F(1, 3), 1, 2
    )
    assert specialize("carlitz_degenerate", alpha=F(1, 3)) == HsuShiueParams(F(1, 3), 1, 0)


def test_unknown_family_rejected():
    with pytest.raises(ValueError):
        specialize("nope")


def test_gf_oracle_classical_order10():
    table = build_table(specialize("stirling2"), 10)
    assert verify_against_gf(table, 10).status == "pass"


def test_gf_oracle_rational_params():
    table = build_table(HsuShiueParams(F(1, 2), 3, -2), 8)
    assert verify_against_gf(table, 8).status == "pass"


def test_gf_oracle_detects_corruption():
    # every single-cell corruption, by an integer or by a new denominator, is
    # caught and named by its own (n, k); (0,1,0) and (1,0,0) take the
    # alpha = 0 and beta = 0 paths of the GF
    triples = (HsuShiueParams(F(1, 2), 3, -2), HsuShiueParams(0, 1, 0), HsuShiueParams(1, 0, 0))
    for params, bump in itertools.product(triples, (1, F(1, 7))):
        table = build_table(params, 8)
        for n in range(9):
            for k in range(n + 1):
                bad = table.with_entry(n, k, table.value(n, k) + bump)
                rep = verify_against_gf(bad, 8)
                assert rep.status == "fail", (params, bump, n, k)
                assert rep.witness.startswith(f"(n={n}, k={k}):"), (params, n, k, rep.witness)


@pytest.mark.parametrize("order", [-1, -3])
def test_gf_oracle_refuses_a_negative_order(order):
    # a negative order would compare no cell and pass, even on a corrupt table
    bad = build_table(HsuShiueParams(1, 2, 3), 3).with_entry(0, 0, 5)
    assert verify_against_gf(bad, 0).witness == "(n=0, k=0): table 5 != gf 1"
    with pytest.raises(ValueError, match="order must be >= 0"):
        verify_against_gf(bad, order)


@settings(max_examples=25, deadline=None)
@given(alpha=small_fractions, beta=small_fractions, r=small_fractions)
def test_gf_oracle_random_triples(alpha, beta, r):
    if alpha == 0 and beta == 0 and r == 0:
        alpha = F(1)
    table = build_table(HsuShiueParams(alpha, beta, r), 7)
    assert verify_against_gf(table, 7).status == "pass"


def test_column_zero_via_egf_weight():
    # S(n,0) coefficients are exactly those of (1+alpha t)^(r/alpha)
    p = HsuShiueParams(F(2, 3), F(-1, 2), F(5, 4))
    table = build_table(p, 9)
    weight = binom_deform(p.alpha, p.r, 9)
    for n in range(10):
        assert table.value(n, 0) == weight.egf_coeff(n)


def test_cached_table_is_shared():
    # a repeat, for the same or a smaller n, is a hit that views the same rows
    p = HsuShiueParams(0, 1, 0)
    first = cached_table(p, 6)
    for n in (6, 3):
        before = cached_table.cache_info()
        again = cached_table(p, n)
        after = cached_table.cache_info()
        assert (after.hits, after.misses) == (before.hits + 1, before.misses)
        assert again.n_max == n and len(again.rows) == n + 1
        assert all(a is b for a, b in zip(again.rows, first.rows))


def test_a_table_is_the_sequence_of_its_rows():
    # Memo.prefix reads len(table) and table[:n + 1]: a prefix is a smaller table
    p = HsuShiueParams(F(1, 2), 3, -2)
    table = build_table(p, 6)
    assert len(table) == 7
    assert table[:7] is table and table[:40] is table
    for k in range(1, 7):
        assert table[:k] == build_table(p, k - 1)
        assert all(a is b for a, b in zip(table[:k].rows, table.rows))
    for index in (0, slice(1, 3), slice(None, 3, 2)):
        with pytest.raises(TypeError):
            table[index]
    with pytest.raises(IndexError):
        table[:0]


def series_route(table, order):
    """The reference: the oracle's running product of Fraction series, gf = gf * base.

    Returns (status, witness) with the oracle's scan order and witness text.
    """
    p = table.params
    base = deformed_base(p.alpha, p.beta, order)
    gf = binom_deform(p.alpha, p.r, order)
    for k in range(order + 1):
        if k:
            gf = gf * base
        fall = 1  # n!/k!
        for n in range(k, order + 1):
            expected = gf.coeffs[n] * fall
            if table.value(n, k) != expected:
                got = fmt_rational(table.value(n, k))
                return "fail", f"(n={n}, k={k}): table {got} != gf {fmt_rational(expected)}"
            fall *= n + 1
    return "pass", None


@settings(max_examples=60, deadline=None)
@given(
    alpha=sevenths,
    beta=sevenths,
    r=sevenths,
    order=st.integers(0, 14),
    cell=st.tuples(st.integers(0, 14), st.integers(0, 14)),
    bump=st.sampled_from([0, 1, -1, F(1, 7), F(-3, 11)]),
)
@example(alpha=F(0), beta=F(1), r=F(0), order=14, cell=(9, 4), bump=1)  # alpha = 0
@example(alpha=F(1), beta=F(0), r=F(0), order=14, cell=(9, 4), bump=F(1, 7))  # beta = 0
@example(alpha=F(-2, 7), beta=F(5, 3), r=F(0), order=14, cell=(14, 0), bump=1)  # r = 0
@example(alpha=F(1, 2), beta=F(3), r=F(-2), order=12, cell=(12, 12), bump=0)
def test_gf_oracle_agrees_with_the_series_route(alpha, beta, r, order, cell, bump):
    # same status and witness as the Fraction running product, on clean
    # tables (bump 0) and on tables with one cell moved
    if alpha == beta == r == 0:
        r = F(1, 7)
    table = build_table(HsuShiueParams(alpha, beta, r), order)
    n, k = cell[0] % (order + 1), cell[1] % (cell[0] % (order + 1) + 1)
    if bump:
        table = table.with_entry(n, k, table.value(n, k) + bump)
    rpt = verify_against_gf(table, order)
    assert (rpt.status, rpt.witness) == series_route(table, order)
    assert rpt.status == ("fail" if bump else "pass")


@settings(max_examples=30, deadline=None)
@given(
    alpha=sevenths,
    beta=sevenths,
    r=sevenths,
    j=st.integers(0, 9),
    call=st.sampled_from([0, 1]),
)
@example(alpha=F(0), beta=F(1), r=F(0), j=0, call=0)
@example(alpha=F(1), beta=F(0), r=F(0), j=9, call=1)
def test_a_falling_product_moved_by_one_fails_at_its_first_cell(alpha, beta, r, j, call):
    # the oracle reads the base's products first and the weight's second:
    # base product j is b_(j+1), first read at (n=j+1, k=1), and weight
    # product j is w_j, the cell (n=j, k=0)
    if alpha == beta == r == 0:
        r = F(1, 7)
    params = HsuShiueParams(alpha, beta, r)
    real, calls = series.falling_products, []

    def moved(c, a, order):
        out = real(c, a, order)
        if len(calls) == call:
            out[j] += 1
        calls.append(c)
        return out

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(stirling, "falling_products", moved)
        rpt = verify_against_gf(build_table(params, 10), 10)
    assert len(calls) == 2
    assert rpt.status == "fail"
    assert rpt.witness.startswith(f"(n={j + 1 - call}, k={1 - call}):"), rpt.witness
