"""Triangular tables of generalized Stirling numbers S(n,k; alpha, beta, r).

Tables are built by the triangular recurrence

    S(0,0) = 1,   S(n+1,k) = S(n,k-1) + (k*beta - n*alpha + r) * S(n,k)

with S(n,k) = 0 for k > n.  The recurrence runs on integers: with D from
`HsuShiueParams.integer_form`, row n is kept as the integers
T(n,k) = S(n,k) D^n over its own denominator, D^n when built, so no cell
pays a gcd.  Readers that stay in integers take the numerators and the row
denominator: `families.exp_poly` and `families.geometric_poly`, one
integer polynomial over one denominator; `families.geometric_rows`, one dot
product per row for a value at a point, read by `families.geometric_at`
and `families.spivey_step`; and the comparison in `verify_against_gf`.
`value` and `row` build a Fraction only when asked.  The
denominator is kept per row so that `with_entry` can write any rational
into one row without touching the others.

`cached_table` keeps one growable table per triple; its docstring gives
the key and the hit path.  `families.spivey_step` reads its table once
and hands it to every `families.geometric_rows` call through that
function's ``table`` argument.

The exponential generating function

    (1/k!) * [((1+alpha t)^(beta/alpha) - 1)/beta]^k * (1+alpha t)^(r/alpha)

is kept as an independent oracle (`verify_against_gf`), never as the
constructor, so the two derivations guard each other.

Named specializations return the parameter triple whose table reproduces a
classical family under this convention:

    stirling2                    (0, 1, 0)      partition numbers {n k}
    stirling1_signed             (1, 0, 0)      signed first kind s(n,k)
    howard_degenerate_weighted   (alpha, 1, r)  weighted degenerate, 2nd kind
    carlitz_degenerate           (alpha, 1, 0)  degenerate 2nd kind
    r_stirling                   (0, 1, r)      {n+r k+r}_r
    whitney                      (0, beta, 1)   Dowling-lattice W_beta(n,k)
    r_whitney                    (0, beta, r)   W_{beta,r}(n,k)
"""

from __future__ import annotations

from fractions import Fraction
from math import comb
from operator import mul

from .exact import RationalLike, as_rational, as_size, over_lcm
from .memo import Memo
from .params import HsuShiueParams
from .record import Frozen
from .report import EXACT, CheckReport
from .series import falling_products


class StirlingTable(Frozen):
    """Immutable triangle of exact S(n,k) values, 0 <= k <= n <= n_max.

    Row n is kept as integer numerators over one row denominator:
    S(n,k) = rows[n][k] / dens[n].  A table is the sequence of its rows
    for `Memo.prefix`: ``len(table)`` is n_max + 1 and ``table[:k]`` is
    the table of rows 0..k-1, which slices the two tuples and never
    rebuilds a row (``table`` itself once k > n_max).
    """

    __slots__ = ("params", "n_max", "rows", "dens")
    params: HsuShiueParams
    n_max: int
    rows: tuple[tuple[int, ...], ...]
    dens: tuple[int, ...]

    def __init__(self, params: HsuShiueParams, n_max: int, rows: tuple, dens: tuple) -> None:
        object.__setattr__(self, "params", params)
        object.__setattr__(self, "n_max", n_max)
        object.__setattr__(self, "rows", rows)
        object.__setattr__(self, "dens", dens)

    def __len__(self) -> int:
        return self.n_max + 1

    def __getitem__(self, index: slice) -> StirlingTable:
        if not isinstance(index, slice) or index.start is not None or index.step is not None:
            raise TypeError(f"a StirlingTable slices only as table[:k], got {index!r}")
        k = index.stop
        if not 0 < k:
            raise IndexError(f"a table keeps at least row 0, got table[:{k}]")
        if k > self.n_max:
            return self
        return StirlingTable(self.params, k - 1, self.rows[:k], self.dens[:k])

    def _check(self, n: int, k: int = 0) -> None:
        """Row n in 0..n_max and column k >= 0, or IndexError: no negative
        index reads or writes from the end."""
        if n < 0 or n > self.n_max:
            raise IndexError(f"row {n} outside table range 0..{self.n_max}")
        if k < 0:
            raise IndexError(f"negative column {k}")

    def value(self, n: int, k: int) -> Fraction:
        self._check(n, k)
        if k > n:
            return Fraction(0)
        return Fraction(self.rows[n][k], self.dens[n])

    def row(self, n: int) -> tuple[Fraction, ...]:
        self._check(n)
        den = self.dens[n]
        return tuple(Fraction(t, den) for t in self.rows[n])

    def with_entry(self, n: int, k: int, value: RationalLike) -> StirlingTable:
        """Copy with one cell replaced; a hook for negative-control tests.

        Only row n is rescaled, to the lcm of its denominator and the new value's.
        A cell k > n, which `value` reads as 0, is no cell of the table.
        """
        self._check(n, k)
        if k > n:
            raise IndexError(f"column {k} outside row {n}")
        (unit, row_k), den = over_lcm((Fraction(1, self.dens[n]), as_rational(value)))
        row = [t * unit for t in self.rows[n]]
        row[k] = row_k
        rows = self.rows[:n] + (tuple(row),) + self.rows[n + 1 :]
        dens = self.dens[:n] + (den,) + self.dens[n + 1 :]
        return StirlingTable(self.params, self.n_max, rows, dens)


def build_table(params: HsuShiueParams, n_max: int) -> StirlingTable:
    """Rows 0..n_max by the recurrence, on integers T(n,k) = S(n,k) D^n.

    With (D, A, B, R) = `params.integer_form()`, the recurrence becomes
    T(n+1,k) = D T(n,k-1) + (kB - nA + R) T(n,k), with no gcd in the loop.
    """
    as_size(n_max, "n_max")
    d, a, b, c = params.integer_form()
    rows = [(1,)]
    for n in range(n_max):
        prev = rows[n]
        nxt = [c * prev[0]]
        for k in range(1, n + 1):
            nxt.append(d * prev[k - 1] + (c + k * b) * prev[k])
        nxt.append(d * prev[n])
        rows.append(tuple(nxt))
        c -= a  # now R - (n+1)A, the k = 0 factor of the next row
    return StirlingTable(params, n_max, tuple(rows), tuple(d**n for n in range(n_max + 1)))


# Parameter triples whose triangles are kept (see memo for the growth rule).
TABLE_CAP = 512


@Memo(TABLE_CAP).prefix
def cached_table(params: HsuShiueParams, n_max: int) -> StirlingTable:
    """Shared read-only table: rows 0..n_max of the one triangle kept per triple.

    The key is ``(params,)``: `HsuShiueParams` hashes and compares its
    integer form, computed at construction, so a read hashes no Fraction
    and equal triples share one entry.  A hit returns the stored
    `StirlingTable` itself, or its prefix ``table[:n_max + 1]``, two tuple
    slices, and rebuilds no row; a miss builds at max(n_max, 2 * the
    stored n_max) (see `memo`).
    """
    return build_table(params, n_max)


# each named family's triple: a number is fixed, a name reads specialize's argument
_FAMILY_TRIPLES = {
    "stirling2": (0, 1, 0),
    "stirling1_signed": (1, 0, 0),
    "howard_degenerate_weighted": ("alpha", 1, "r"),
    "carlitz_degenerate": ("alpha", 1, 0),
    "r_stirling": (0, 1, "r"),
    "whitney": (0, "beta", 1),
    "r_whitney": (0, "beta", "r"),
}
SPECIAL_FAMILIES = tuple(_FAMILY_TRIPLES)


def specialize(
    kind: str,
    *,
    alpha: RationalLike = 0,
    beta: RationalLike = 1,
    r: RationalLike = 0,
) -> HsuShiueParams:
    """Parameter triple of a named classical family (see module docstring)."""
    if kind not in SPECIAL_FAMILIES:
        raise ValueError(f"unknown family kind {kind!r}; expected one of {SPECIAL_FAMILIES}")
    given = {"alpha": alpha, "beta": beta, "r": r}
    return HsuShiueParams(*(given.get(v, v) for v in _FAMILY_TRIPLES[kind]))


def verify_against_gf(table: StirlingTable, order: int) -> CheckReport:
    """Compare table entries with generating-function coefficients.

    For each k <= order, extracts n! * [t^n] of
    (1/k!) * base^k * (1+alpha t)^(r/alpha) with base the beta-normalized
    deformed exponential; exact mismatches are reported with their (n,k).
    Both series are read as EGF integers off `series.falling_products`:
    with (D, A, B, R) = `p.integer_form()`, b_j = j! D^j [t^j]base =
    D (B - A|A)_(j-1) for j >= 1 (b_0 = 0) and w_j = j! D^j [t^j]weight =
    (R|A)_j.  Column k is then the binomial convolution
    g_n = sum_i C(n,i) g'_i b_(n-i) of column k-1 with b, on plain
    integers, and g_n = k! D^n S(n,k); base has valuation 1, so column k
    starts at n = k and reads column k-1 from i = k-1.  Columns are
    scanned in increasing k and rows in increasing n within a column, so
    the witness is the first mismatch in that order.  A cell is compared by
    cross-multiplying its integer numerator and row denominator; a Fraction
    is built only for the witness.
    """
    as_size(order, "order", 0, table.n_max)
    p = table.params
    rpt = CheckReport(id="GF_VS_TABLE", params={"params": p, "order": order}, tolerance=EXACT)
    d, a, b, r = p.integer_form()
    base = [0] + [d * x for x in falling_products(b - a, a, order - 1)]
    g, scale = falling_products(r, a, order), 1
    # conv[n][i] = C(n, i) b_(n-i) for i < n: one multiplication per term below
    conv = [[comb(n, i) * base[n - i] for i in range(n)] for n in range(order + 1)]
    d_pow = [d**n for n in range(order + 1)]
    rows, dens = table.rows, table.dens
    for k in range(order + 1):
        if k:
            g[k:] = [sum(map(mul, g[k - 1 : n], conv[n][k - 1 :])) for n in range(k, order + 1)]
            scale *= k  # now g_n / scale = D^n S(n, k)
        for n in range(k, order + 1):
            # the scan stays inline: a generator per cell costs ~5% at n = 40
            if g[n] * dens[n] != scale * d_pow[n] * rows[n][k]:
                expected = Fraction(g[n], scale * d_pow[n])
                return rpt.compare_each(
                    [(n, k, table.value(n, k), expected)], "(n={}, k={}): table {} != gf {}"
                )
    return rpt
