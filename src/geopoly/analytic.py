"""High-precision evaluation of zeta-weighted series against closed forms.

Float layer
-----------
Values live in :class:`decimal.Decimal` under an explicit per-configuration
context: :class:`EvalConfig` fixes ``precision_bits`` and every routine runs
at ``ceil(bits*log10(2)) + 15`` decimal digits, so ambient rounding noise
sits far below the pass threshold 2^(32 - bits).  Rationals convert exactly;
only the final divisions round.

Special functions
-----------------
zeta(s) and the Hurwitz zeta(s, a) (integer s >= 2, rational a = p/q > 0)
are computed to an absolute error below 10^-(digits-5) by one route,
Euler-Maclaurin:

    sum_{j<N} (a+j)^-s + (a+N)^(1-s)/(s-1) + (a+N)^-s/2
        + sum_m B_2m/(2m)! <s>_{2m-1} (a+N)^(-s-2m+1)

whose integrand x -> (a+x)^-s is completely monotone for real s > 0, so the
remainder after the m-th correction is bounded by the first omitted term
(classical envelope property).  That bound is the Decimal term the loop
computes anyway, and the expansion is cut once it falls below the target
10^-(digits-5) less one part in 10^digits, a margin that covers its
rounding error (the budget is in `_em_terms` and `_em_cut`); if the
terms bottom out first, N is doubled and the evaluation restarts.  Every
head term is written as q^s / (p + jq)^s, so no Fraction arithmetic runs
inside the loop.

digamma is the same expansion at s = 1, since psi(a) = -lim_{s->1}
(zeta(s, a) - 1/(s-1)): the term (a+N)^(1-s)/(s-1) gives way to -ln(a+N),
B_2m/(2m)! <1>_{2m-1} = B_2m/(2m), and N lifts a + N to the cut.  One
row, `_em_terms`, yields the correction terms for both, one rule,
`_em_cut`, stops them, and `_em_parts` adds the head and the doubling of
N.  The Euler constant is -digamma(1), pi comes from a Machin arctangent
pair (alternating series, tail bounded by the first omitted term), and
log 2 from the correctly rounded stdlib ln.

The row reads B_2m/(2m)! from one table per working precision, built
on its first use at the length that precision asks for from the integer
tangent numbers T_1..T_M (Brent & Harvey, "Fast computation of Bernoulli,
Tangent and Secant numbers", arXiv:1108.0286): B_2m = (-1)^(m-1) 2m T_m /
(4^m (4^m - 1)), so each entry is one division of two exact integers,
rounded once at digits + 10; 4^m (2m)! is carried as an exact Decimal.
The table keeps each T_m next to its entry, for the even zeta values of
the series sides (below).
`families.bernoulli_numbers`, the t/(e^t - 1) series, stays the
exact-layer oracle and is the test oracle of the tangent route.  The row
carries <s>_{2m-1} (a+N)^(1-s-2m) as one running Decimal, moved to the
next m by an integer product and an integer division (a + N = num/den),
so each step multiplies two full-precision Decimals only once, for the
term itself.  Should it run past the end of its table, the table of that
precision is built again, twice as long.  The zeta values, the
constants, pi at digits + 10, the tables and the zeta table below are
each cached in a `memo.Memo` of CACHE_CAP keys.

The series sides (Theorem 5 and the Eq. (30) family) read zeta(2), zeta(3),
... from `_zeta_table`, one finite run over s per precision, at a fraction
of the cost of zeta_int; the closed sides keep hurwitz_zeta, zeta_int and
digamma.  Below some s, the direct switch, the parity of s picks the
route.  An even s = 2k comes from the tangent numbers and pi:

    zeta(2k) = pi^2k k T_k / ((2k)! (4^k - 1)),

a running pi^2k times one quotient of exact integers.  T_k is read from
the coefficient table of that precision and pi is the `_machin` value
that pi(cfg) rounds, so at even s the series sides share only the exact
tangent triangle with the closed sides, and each entry is within half an
ulp plus 2 s 10^-(digits+4) of zeta(s).  An odd s runs Euler-Maclaurin at
a fixed N, and carries its corrections from s - 2 to s rather than
building each row: term_m(s) = term_m(s-2) (s+2m-2)(s+2m-3) /
((s-1)(s-2)(1+N)^2) takes a product and a division by small integers, and
no full-precision product (the budgets are in `_zeta_table`).  So the
series sides build the closed sides' row only at s = 3 and where the
carried terms fail `_em_cut`, and the odd entries are the Decimals
zeta_int returns.  From the switch on the table sums directly.  The tail
of the sum is bounded by its first term plus the integral of the
decreasing (1+x)^-s:

    sum_{j>=J} (1+j)^-s <= (1+J)^-s * (s+J)/(s-1).

If some J <= N brings this bound under a quarter ulp of the first term, 1,
at the working precision (which is below the target too; the test is exact,
in integers, on a power (1+J)^s carried over s), the table holds the plain
sum of the terms j <= J.  Every
omitted term is then below half an ulp of the running total, so
Euler-Maclaurin returns the same Decimal.  Once J = 1 every later zeta(s)
is that same Decimal, so the table ends there and the series sides repeat
its last entry.

Precision budget: EvalConfig refuses precision_bits above MAX_BITS = 4096,
the top of the range the numeric layer is measured at.  Precision is the one
setting: every cache keys on the working digits, and MAX_TERMS = 10000
bounds every series and Euler-Maclaurin loop.  Measured on
eval_theorem5((1/2, 2, 1), 3, 1/2) from 1024 to 4096 bits, each doubling of
the bits costs five to six times more.

Series verdicts
---------------
Each eval_* routine checks its size n with `exact.as_size` and hands its
two sides to `_verdict`, the one numeric verdict frame: the infinite side
as an iterable of its terms from the first index on, plus a rational
majorant M(j) (zeta(2) <= 2 and (2*pi)^2 <= 40 style bounds), and the
closed side as a function.  `_verdict` sums the terms with
`_sum_to_tolerance` and evaluates the closed side, both at digits + 10.
The contract: M(j) bounds |term j|, and M(j+1)/M(j) does not increase
with j.  After term k the tail is then at most M(k+1)/(1 - ratio),
ratio = M(k+2)/M(k+1) < 1, and the sum may stop once that bound is below
tolerance/4 or M(k+1) = 0, tested in exact integers.  Under the contract
that bound does not grow with k once ratio < 1, so the rule holds at every
k after the first one: `_stop_index` finds that first k from the majorant
alone, by galloping and bisecting, and only then are terms start..k built
and summed in order.  Without
such a k up to MAX_TERMS, the terms through MAX_TERMS are built and an
ArithmeticError raised.  `_verdict` then rounds both sides and
|LHS - RHS| to digits and reports |LHS - RHS| against the threshold.  No
"looks converged" cutoffs anywhere.

A majorant returns M(j) as an integer `Pair` (num, den), den > 0, built
from the integer form of the triple and the numerator and denominator of
|x| or |x/beta|, and in no particular terms: the rule, gap = q2 p1 - p2 q1
> 0 and u p1^2 q2 < t q1 gap for M(k+1) = p1/q1, M(k+2) = p2/q2 and
tolerance/4 = t/u, is homogeneous in each pair (scaling the first pair
by c > 0 multiplies gap by c and both sides of the second test by c^2,
scaling the second multiplies all three by c), so no gcd is needed to
find the stop index.  The terms are different: each coefficient
is a quotient of integers, reduced by one gcd (`_lowest`; the Eq. (30)
family's k^n / 2^k by a shift of min(n v2(k), k) bits) to the lowest
terms a Fraction would hold, and a term is rounded from that pair.  In
(zeta * num) / den, the terms of Theorem 5 and the Eq. (30) family, the
product rounds before the division, so the term depends on the pair and
not on its value alone: lowest terms keep each term the Decimal that a
Fraction coefficient gave.  A plain num / den (Eqs. (16)-(18)) is
correctly rounded from its value; there the gcd keeps the operands
small.  `_lowest` is read by the series sides only.
"""

from __future__ import annotations

from bisect import bisect_left
from collections.abc import Callable, Iterable, Iterator
from decimal import MAX_PREC, Context, Decimal, Inexact, localcontext
from fractions import Fraction
from itertools import chain, count, islice, repeat
from math import ceil, factorial, gcd, prod

from .exact import RationalLike, as_rational, as_size, gen_factorial
from .families import exp_poly
from .memo import CACHE_CAP, Memo
from .params import HsuShiueParams
from .record import Frozen
from .report import FAIL, PASS, CheckReport
from .stirling import cached_table


MAX_BITS = 4096  # the precision budget, see the module docstring
MAX_TERMS = 10000  # the term budget of every series and Euler-Maclaurin loop
# a majorant's value num/den as (num, den) with den > 0, not necessarily in
# lowest terms (see "Series verdicts")
Pair = tuple[int, int]


class EvalConfig(Frozen):
    """Precision contract for the numeric layer, its one setting.

    precision_bits is an int in 64..MAX_BITS; the pass threshold is
    2^(32 - precision_bits).  MAX_TERMS bounds every series loop (exceeding
    it is an error, never a silent truncation).
    """

    __slots__ = ("precision_bits",)

    def __init__(self, precision_bits: int = 256) -> None:
        as_size(precision_bits, "precision_bits", 64, MAX_BITS)
        object.__setattr__(self, "precision_bits", precision_bits)

    @property
    def tolerance(self) -> Fraction:
        return Fraction(1, 2 ** (self.precision_bits - 32))

    @property
    def digits(self) -> int:
        return ceil(self.precision_bits * 0.30103) + 15


def _dec(q: Fraction) -> Decimal:
    """q rounded once, in the current decimal context."""
    return Decimal(q.numerator) / Decimal(q.denominator)


def to_decimal(x: RationalLike, cfg: EvalConfig) -> Decimal:
    x = as_rational(x)
    with localcontext() as ctx:
        ctx.prec = cfg.digits
        return _dec(x)


# Keyed by (s, a, digits) and (name, digits).  Only the closed sides read
# _ZETA_CACHE, a few keys per verdict, and each miss runs _zeta_em; the
# series sides read _zeta_table instead.
_ZETA_CACHE = Memo(CACHE_CAP)
_CONST_CACHE = Memo(CACHE_CAP)


def _constant(name: str, cfg: EvalConfig, compute: Callable[[], Decimal]) -> Decimal:
    """The cached constant ``name`` at cfg.digits; ``compute`` runs at that precision."""
    key = (name, cfg.digits)
    hit = _CONST_CACHE.lookup(key)
    if hit is not None:
        return hit
    with localcontext() as ctx:
        ctx.prec = cfg.digits
        out = compute()
    return _CONST_CACHE.put(key, out)


# integer products in this context are exact, or raise Inexact
_EXACT = Context(prec=MAX_PREC, traps=[Inexact])


def _asymptotic_cut(digits: int) -> int:
    # exp(-2*pi*N) must undercut 10^-digits; 0.45*digits leaves ~25% slack
    return max(24, ceil(0.45 * digits))


def _tangent_numbers(m: int) -> list[int]:
    """[0, T_1, ..., T_m], the tangent numbers by the triangular integer
    recurrence of Brent & Harvey (arXiv:1108.0286)."""
    t = [0, 1] + [0] * (m - 1)  # t[k] = T_k once both sweeps are done
    for k in range(2, m + 1):
        t[k] = (k - 1) * t[k - 1]
    for k in range(2, m + 1):
        for j in range(k, m + 1):
            t[j] = (j - k) * t[j - 1] + (j - k + 2) * t[j]
    return t


@Memo(CACHE_CAP).prefix
def _em_coeffs(digits: int, m: int) -> tuple[tuple[int, Decimal], ...]:
    """(T_j, B_2j/(2j)!) for j = 0..m: the tangent number and the
    coefficient, rounded once at digits + 10 (T_0 = 0 and B_0 = 1).

    B_2j = (-1)^(j-1) 2j T_j / (4^j (4^j - 1)), so each coefficient is one
    division of exact integers, the correctly rounded quotient.  The
    denominator's 4^j (2j)! is carried as a Decimal in a context too wide
    to round (`_EXACT`, which traps Inexact), so each entry converts only
    the numerator and 4^j - 1 from int.  The even zeta values of
    `_zeta_table` read the T_j.
    """
    t = _tangent_numbers(m)
    out = [(0, Decimal(1))]
    four, scale = 1, Decimal(1)  # 4^j, and 4^j (2j)! as an exact Decimal
    with localcontext() as ctx:
        ctx.prec = digits + 10
        for j in range(1, m + 1):
            four *= 4
            scale = _EXACT.multiply(scale, 4 * (2 * j - 1) * 2 * j)
            den = _EXACT.multiply(scale, four - 1)
            out.append((t[j], Decimal((-1) ** (j - 1) * 2 * j * t[j]) / den))
    return tuple(out)


def _table_length(cut: int) -> int:
    # the Euler-Maclaurin loop reads terms up to m = 1.4 * cut at 64..2048
    # bits, so this covers it; a run past it fetches the table again
    return 3 * cut // 2


def _head_sum(s: int, p: int, q: int, q_pow: Decimal, count: int) -> Decimal:
    # sum_{j<count} (a+j)^-s with a = p/q; a+j = (p+jq)/q is in lowest terms
    total = Decimal(0)
    for j in range(count):
        total += q_pow / Decimal(p + j * q) ** s
    return total


def _tail_below(s: int, cut: int, power: int, thr_den: int) -> bool:
    """Whether (1+J)^-s * (s+J)/(s-1) < 1/thr_den, J = cut, power = (1+J)^s.

    The left side bounds sum_{j>=J} (1+j)^-s: the first term plus the
    integral of the decreasing (1+x)^-s from J to infinity.  The caller
    carries the exact power over s.
    """
    return (s + cut) * thr_den < (s - 1) * power


def _em_terms(s: int, power: Decimal, num: int, den: int, digits: int) -> Iterator[Decimal]:
    """The Euler-Maclaurin row at a + N = num/den, power = (a+N)^-s.

    Yields term_m = B_2m/(2m)! <s>_{2m-1} (a+N)^(1-s-2m) for m = 1, 2, ...
    and raises ArithmeticError past MAX_TERMS.  Runs in the caller's
    decimal context.  The running factor moves from m to m + 1 by an
    integer product and an integer division, linear in the digits, so each
    step multiplies two full-precision Decimals once, for term_m.

    Error budget.  One rounding at digits + 10 has relative error below
    u = 10^-(digits+9).  power, inv**s or the table's running quotient, is
    within (2s + 1)u of (a+N)^-s; the first factor adds 2u, each later step
    2u and the table entry and the product 2u, so term_m is within
    (2s + 2m + 3)u of its exact value, relative.
    """
    coeffs = _em_coeffs(digits, _table_length(_asymptotic_cut(digits)))
    num2, den2 = num * num, den * den
    factor = power * (s * den) / num  # <s>_{2m-1} (a+N)^(1-s-2m)
    for m in range(1, MAX_TERMS + 1):
        if m == len(coeffs):
            coeffs = _em_coeffs(digits, 2 * m)
        yield coeffs[m][1] * factor
        factor = factor * ((s + 2 * m - 1) * (s + 2 * m) * den2) / num2
    raise ArithmeticError("Euler-Maclaurin failed to converge")


def _em_cut(terms: Iterable[Decimal], digits: int) -> list[Decimal] | None:
    """[term_1, ..., term_M] read from ``terms``, or None.

    M >= 2 is the first index with |term_M| below 10^-(digits-5): by the
    envelope property |term_M| bounds the remainder, so the corrections
    are the sum of the terms before it.  None if the terms grow again
    first (|term_m| >= |term_m-1|, m >= 3), so N must grow, or if they run
    out first.  For terms each within (2s + 2m + 3)u of their exact value
    (`_em_terms`), s + m below 10^8 puts that under 10^-digits, so
    |term_M| < limit = 10^-(digits-5) * (1 - 10^-digits), an exact
    comparison of Decimals, proves the exact |term_M| below the target.
    The growth test only chooses N and needs no margin.
    """
    limit = Decimal(10**digits - 1).scaleb(5 - 2 * digits)
    read: list[Decimal] = []
    prev = None  # |term_m-1|
    for term in terms:
        size = abs(term)
        read.append(term)
        if len(read) > 1 and size < limit:
            return read
        if len(read) > 2 and size >= prev:
            return None  # divergent zone reached before target
        prev = size
    return None


def _em_parts(s: int, p: int, q: int, n_cut: int, digits: int) -> tuple[Decimal, ...]:
    """Euler-Maclaurin parts of sum_{j>=0} (a+j)^-s, integer s >= 1, a = p/q > 0.

    Returns head = sum_{j<N} (a+j)^-s, a+N, 1/(a+N) and the corrections,
    the row `_em_terms` at a + N cut by `_em_cut`; when those bottom out
    before the target, N doubles and the parts are built again.  Runs in
    the caller's decimal context.
    """
    q_pow = Decimal(q) ** s
    while True:
        head = _head_sum(s, p, q, q_pow, n_cut)
        edge = Decimal(p + n_cut * q) / Decimal(q)  # a + N
        inv = 1 / edge
        row = _em_cut(_em_terms(s, inv**s, p + n_cut * q, q, digits), digits)
        if row is not None:
            return head, edge, inv, sum(row[:-1], Decimal(0))
        n_cut = max(1, 2 * n_cut)  # N = 0 (digamma at a >= cut) must grow too
        if n_cut > MAX_TERMS:
            raise ArithmeticError("Euler-Maclaurin cutoff grew without reaching tolerance")


def _zeta_em(s: int, a: Fraction, digits: int) -> Decimal:
    """Hurwitz zeta by Euler-Maclaurin from N = _asymptotic_cut(digits)."""
    with localcontext() as ctx:
        ctx.prec = digits + 10
        n_cut = _asymptotic_cut(digits)
        head, edge, inv, corrections = _em_parts(s, a.numerator, a.denominator, n_cut, digits)
        total = head + edge * inv**s / (s - 1) + inv**s / 2 + corrections
        ctx.prec = digits
        return +total


def hurwitz_zeta(s: int, a: RationalLike, cfg: EvalConfig) -> Decimal:
    """Hurwitz zeta(s, a) = sum_{j>=0} (j+a)^-s for integer s >= 2, a > 0."""
    as_size(s, "s", 2)  # an int only: 3.0 == 3 would hit the cache
    a = as_rational(a)
    if a <= 0:
        raise ValueError(f"a must be positive, got {a}")
    key = (s, a, cfg.digits)
    hit = _ZETA_CACHE.lookup(key)
    if hit is not None:
        return hit
    return _ZETA_CACHE.put(key, _zeta_em(s, a, cfg.digits))


def zeta_int(s: int, cfg: EvalConfig) -> Decimal:
    """Riemann zeta at integer s >= 2."""
    return hurwitz_zeta(s, Fraction(1), cfg)


@Memo(CACHE_CAP)
def _zeta_table(digits: int) -> tuple[Decimal | None, ...]:
    """(None, None, zeta(2), ..., zeta(S)) at ``digits`` from one run over
    s, for the series sides alone.

    Below the direct switch, the first s whose tail bound at the cut N
    holds (`_tail_below`), parity picks the route; u = 10^-(digits+9)
    bounds one rounding at digits + 10, relative.

    Even s = 2k: zeta(2k) = (2 pi)^2k |B_2k| / (2 (2k)!) with |B_2k| = 2k
    T_k / (4^k (4^k - 1)), that is pi^2k k T_k / ((2k)! (4^k - 1)).  T_k is
    the exact integer of `_em_coeffs` at this precision, read from the table
    built for the odd route, T_0..T_M with M = `_table_length(N)`: the even
    route reads k <= (switch - 1)/2, at most 59% of the M + 1 entries at
    every precision `EvalConfig` admits (22 of 37 at 120 bits, the worst),
    so it never grows the table.  pi is the `_machin` value, within
    10^-(digits+4) relative.  pi^2k is one running product and
    k T_k / ((2k)! (4^k - 1)) one division of exact integers.  Error
    budget: pi^2 is within 2 10^-(digits+4) + u, pi^2k within k times that
    plus (k - 1)u, and the quotient and the product add 2u, so before its
    final rounding the entry is within s 10^-(digits+4) + (s + 1)u of
    zeta(s), relative, and, as zeta(s) < 1.65, within 2 s 10^-(digits+4)
    absolute.  The final entry is within half an ulp plus that of
    zeta(s): at most 0.01 ulp more for s <= 500, which covers the switch
    (s = 458 at MAX_BITS).

    Odd s: Euler-Maclaurin at N, assembled as in `_zeta_em` from the
    head, (1+N)^-s and the corrections.  Each (1+j)^-s, j <= N, is the one
    at s - 2 divided by the exact (1+j)^2, linear in the digits, and
    within (s + 1)/2 roundings of its exact value, inside the budget of
    `_em_terms`.  The corrections come from a column carried from s - 2
    rather than from a row: with N fixed,

        term_m(s) = term_m(s-2) (s+2m-2)(s+2m-3) / ((s-1)(s-2)(1+N)^2),

    one product and one division by small integers, each linear in the
    digits.  `_em_cut` cuts the carried terms as it cuts a row.  The row
    `_em_terms` seeds the column at s = 3, and again at any odd s whose
    carried terms run out before the stop test holds or fail the growth
    test; should the row's corrections bottom out too, `_zeta_em` doubles
    N.  Error budget: a term seeded at s0 is within (2s0 + 2m + 3)u of its
    exact value (`_em_terms`); each carry adds two roundings, 2u, while
    the budget grows by 4u from s - 2 to s, so term_m(s) stays within
    (2s + 2m + 3)u, the margin of the stop test in `_em_cut`.

    From the switch on the sum is direct at every s, its powers carried
    from s - 1 by one division by 1 + j: the threshold (module docstring)
    is a quarter ulp of 1 for every s and the tail bound falls as s grows,
    so the direct cut J(s) only walks down from N, each step proven by
    `_tail_below` on (1+J)^s, an exact power carried over s and taken
    afresh only where J steps down.  Term J is summed too: it moves no
    digit, but like the sub-ulp additions of Euler-Maclaurin it pads an
    exactly representable head to the full working precision.

    The table ends at S, the first s whose cut is 1, because every s >= S
    gives the same Decimal.  The head is 1 + 2^-s, and the tail test at
    J = 1, 2^-s (s+1)/(s-1) < 10^-(digits+9)/4, puts 2^-s below a quarter
    ulp of 1 at digits + 10, so the head rounds to exactly 1 there and
    final.plus gives the same Decimal for each such s: the cut never
    rises and the bound only falls as s grows.
    """
    n_cut = _asymptotic_cut(digits)
    edge = 1 + n_cut
    thr_den = 4 * 10 ** (digits + 9)  # 1/thr_den: a quarter ulp of 1
    coeffs = _em_coeffs(digits, _table_length(n_cut))  # [k][0] = T_k
    out: list[Decimal | None] = [None, None]
    with localcontext() as ctx:
        ctx.prec = digits + 10
        final = ctx.copy()
        final.prec = digits
        bases = [Decimal(1 + j) for j in range(edge)]
        squares = [base * base for base in bases]  # exact
        powers = [1 / base for base in bases]  # (1+j)^-s for j <= N at the last odd s
        column = None  # term_1..term_M at the last odd s, as `_em_cut` read them
        pi_sq = _machin(digits) ** 2
        pi_pow, fact = Decimal(1), 1  # pi^(2k) and (2k)! at the last even s = 2k
        edge_pow = edge**2  # (1+N)^s, exact
        for s in count(2):
            if _tail_below(s, n_cut, edge_pow, thr_den):
                break
            edge_pow *= edge
            if s % 2 == 0:  # zeta(2k) = pi^2k k T_k / ((2k)! (4^k - 1))
                k = s // 2
                pi_pow *= pi_sq
                fact *= (s - 1) * s
                ratio = Decimal(k * coeffs[k][0]) / Decimal(fact * (4**k - 1))
                out.append(final.plus(pi_pow * ratio))
                continue
            powers = [x / y for x, y in zip(powers, squares)]
            power = powers[n_cut]
            if column is not None:
                step = (s - 1) * (s - 2) * edge * edge
                column = _em_cut((term * ((s + 2 * m - 2) * (s + 2 * m - 3)) / step
                                  for m, term in enumerate(column, 1)), digits)
            if column is None:
                column = _em_cut(_em_terms(s, power, edge, 1, digits), digits)
            if column is None:
                out.append(_zeta_em(s, Fraction(1), digits))
                continue
            # the total of _zeta_em, term for term, each sum in its order
            head = sum(powers[:n_cut], Decimal(0))
            corrections = sum(column[:-1], Decimal(0))
            total = head + bases[n_cut] * power / (s - 1) + power / 2 + corrections
            out.append(final.plus(total))
        if s % 2:  # the direct sum carries its powers from s - 1
            powers = [x / y for x, y in zip(powers, bases)]
        cut, low = n_cut, n_cut**s  # the direct cut J(s), N down to 1, and the J^s its test reads
        while True:
            while cut > 1 and _tail_below(s, cut - 1, low, thr_den):
                cut -= 1
                low = cut**s
            powers = [x / y for x, y in zip(powers[: cut + 1], bases)]
            out.append(final.plus(sum(powers, Decimal(0))))
            if cut == 1:
                return tuple(out)
            s += 1
            low *= cut


def _series_zetas(digits: int) -> Iterator[Decimal]:
    """zeta(2), zeta(3), ... at ``digits``: `_zeta_table`, then its last entry forever."""
    table = _zeta_table(digits)
    return chain(table[2:], repeat(table[-1]))


def digamma(a: RationalLike, cfg: EvalConfig) -> Decimal:
    """psi(a) for rational a > 0: the Euler-Maclaurin parts at s = 1.

    N lifts a + N to at least _asymptotic_cut(digits); B_2m/(2m)! <1>_{2m-1}
    is B_2m/(2m), so psi(a) = ln(a+N) - 1/(2(a+N)) - corrections - head.
    """
    a = as_rational(a)
    if a <= 0:
        raise ValueError(f"a must be positive, got {a}")
    n_cut = max(0, ceil(_asymptotic_cut(cfg.digits) - a))
    with localcontext() as ctx:
        ctx.prec = cfg.digits + 10
        head, edge, inv, corrections = _em_parts(1, a.numerator, a.denominator, n_cut, cfg.digits)
        total = edge.ln() - inv / 2 - corrections - head
        ctx.prec = cfg.digits
        return +total


def gamma_euler(cfg: EvalConfig) -> Decimal:
    """Euler's constant, as -psi(1)."""
    return _constant("gamma", cfg, lambda: -digamma(Fraction(1), cfg))


def _arctan_inv(m: int, digits: int) -> Decimal:
    # atan(1/m) by its alternating series; remainder <= first omitted term
    with localcontext() as ctx:
        ctx.prec = digits + 10
        inv = 1 / Decimal(m)
        inv2 = inv * inv
        total = Decimal(0)
        power = inv
        k = 0
        floor = Decimal(10) ** -(digits + 5)
        while True:
            term = power / (2 * k + 1)
            total += term if k % 2 == 0 else -term
            power *= inv2
            k += 1
            if power / (2 * k + 1) < floor:
                break
        return total


@Memo(CACHE_CAP)
def _machin(digits: int) -> Decimal:
    """pi = 16 atan(1/5) - 4 atan(1/239) at digits + 10, within
    3 * 10^-(digits+4): each series stops below 10^-(digits+5), and the
    roundings at digits + 10 add less than 10^-(digits+5) up to MAX_BITS."""
    with localcontext() as ctx:
        ctx.prec = digits + 10
        return 16 * _arctan_inv(5, digits) - 4 * _arctan_inv(239, digits)


def pi(cfg: EvalConfig) -> Decimal:
    """pi (Machin), `_machin` rounded to cfg.digits."""
    return _constant("pi", cfg, lambda: +_machin(cfg.digits))


def log2(cfg: EvalConfig) -> Decimal:
    return _constant("log2", cfg, lambda: Decimal(2).ln())


# ---------------------------------------------------------------------------
# Series-vs-closed-form verdicts
# ---------------------------------------------------------------------------


def _verdict(
    rid: str,
    params: dict,
    cfg: EvalConfig,
    terms: Iterable[Decimal | None],
    majorant: Callable[[int], Pair],
    start: int,
    closed: Callable[[], Decimal],
) -> CheckReport:
    """The numeric verdict of ``rid``: the series side against ``closed()``.

    Both sides run at digits + 10: the series by `_sum_to_tolerance` from
    ``terms``, ``majorant`` and ``start``, then the closed side.  |lhs - rhs|
    and both sides are rounded to cfg.digits and |lhs - rhs| is compared
    with the tolerance; the report's params gain the precision as "bits".
    """
    with localcontext() as ctx:
        ctx.prec = cfg.digits + 10
        lhs = _sum_to_tolerance(terms, majorant, start, cfg)
        rhs = closed()
        ctx.prec = cfg.digits
        diff = abs(lhs - rhs)
        lhs, rhs = +lhs, +rhs
    tol = to_decimal(cfg.tolerance, cfg)
    return CheckReport(
        id=rid,
        params={**params, "bits": cfg.precision_bits},
        status=PASS if diff < tol else FAIL,
        witness=f"|lhs-rhs| = {diff:.6E}",
        tolerance=f"2^-{cfg.precision_bits - 32}",
        detail={
            "lhs": str(lhs),
            "rhs": str(rhs),
            "abs_diff": f"{diff:.6E}",
            "precision_digits": cfg.digits,
        },
    )


def _stop_index(majorant: Callable[[int], Pair], start: int, cfg: EvalConfig) -> int | None:
    """The first k in start..MAX_TERMS after which the tail bound holds, or None.

    The stopping rule is in "Series verdicts" above.  Under the majorant
    contract it holds at every k after the first, so the first is found
    by galloping to an index where it holds and bisecting back: O(log k)
    majorant evaluations, each index at most once.  The rule is tested on
    the integer pairs as they come: with M(k+1) = p1/q1 > 0, M(k+2) =
    p2/q2 and tolerance/4 = t/u, ratio < 1 is gap = q2 p1 - p2 q1 > 0, and
    then bound/(1 - ratio) = p1^2 q2/(q1 gap) < t/u is u p1^2 q2 < t q1 gap.
    """
    t, u = cfg.tolerance.numerator, 4 * cfg.tolerance.denominator
    seen: dict[int, Pair] = {}

    def at(j: int) -> Pair:
        if j not in seen:
            seen[j] = majorant(j)
        return seen[j]

    def stops(k: int) -> bool:
        p1, q1 = at(k + 1)
        if not p1:
            return True
        p2, q2 = at(k + 2)
        gap = q2 * p1 - p2 * q1
        return gap > 0 and u * p1 * p1 * q2 < t * q1 * gap

    if start > MAX_TERMS:
        return None
    lo = hi = start  # the rule fails at every index below lo
    while not stops(hi):
        if hi == MAX_TERMS:
            return None
        lo, hi = hi + 1, min(MAX_TERMS, 2 * hi - start + 1)
    return lo + bisect_left(range(lo, hi), True, key=stops)


def _sum_to_tolerance(
    terms: Iterable[Decimal | None],
    majorant: Callable[[int], Pair],
    start: int,
    cfg: EvalConfig,
) -> Decimal:
    """Sum terms k = start, ..., `_stop_index` in the caller's decimal context.

    ``terms`` yields the terms from index start on.  A None term is an
    exact zero and is skipped, so it cannot move the exponent of the
    total.  Without a stop index the terms up to index MAX_TERMS are built
    and an ArithmeticError raised; no term past MAX_TERMS is built.
    """
    last = _stop_index(majorant, start, cfg)
    end = MAX_TERMS if last is None else last
    built = list(islice(terms, max(0, end - start + 1)))
    if last is None or len(built) <= end - start:
        raise ArithmeticError("tail bound not reached within max_terms")
    total = Decimal(0)
    for term in built:
        if term is not None:
            total += term
    return total


def _scaled_factorials(
    params: HsuShiueParams, n: int, indices: Iterable[int]
) -> tuple[int, Iterator[int]]:
    """D^n and the integers (i*beta + r | alpha)_n * D^n for i in indices.

    With (D, A, B, R) = `params.integer_form()` each factor i*B + R - j*A
    is an integer: a series term multiplies n integers and reduces one
    integer pair by `_lowest` to the lowest terms that gen_factorial times
    the term's other factors would give.
    """
    d, a, b, c = params.integer_form()
    return d**n, (prod(i * b + c - j * a for j in range(n)) for i in indices)


def _lowest(top: int, bot: int) -> tuple[Decimal, Decimal]:
    """top/bot in lowest terms, bot > 0, as two exact Decimals: the pair a
    Fraction would hold, reduced by one gcd ("Series verdicts" says why)."""
    g = gcd(top, bot)
    return Decimal(top // g), Decimal(bot // g)


def _poly_bound_base(params: HsuShiueParams, n: int) -> tuple[int, int, int]:
    # |(r + k*beta | alpha)_n| <= ((a + b*k)/d)^n for the integers a, b, d below
    d, alpha, beta, r = params.integer_form()
    return abs(r) + n * abs(alpha), abs(beta), d


def eval_theorem5(
    params: HsuShiueParams, n: int, x: RationalLike, cfg: EvalConfig = EvalConfig()
) -> CheckReport:
    """zeta-coefficient power series vs its digamma/Hurwitz closed form.

    sum_{k>=1} zeta(k+1) (r+k*beta|alpha)_n x^k against
    -(r|alpha)_n (psi(1-x) + gamma)
        + sum_{k=1..n} S(n,k) k! zeta(k+1, 1-x) (beta x)^k,  |x| < 1.
    """
    as_size(n)
    x = as_rational(x)
    if not -1 < x < 1:
        raise ValueError(f"need |x| < 1, got {x}")
    a, b, d = _poly_bound_base(params, n)
    xn, xd, dn = abs(x.numerator), x.denominator, d**n

    def terms():
        den, nums = _scaled_factorials(params, n, count(1))
        p_pow, q_pow = 1, 1  # x^k = p^k / q^k
        for zeta, num in zip(_series_zetas(cfg.digits), nums):  # zeta(k + 1), k >= 1
            p_pow *= x.numerator
            q_pow *= x.denominator
            top, bot = _lowest(num * p_pow, den * q_pow)
            # (zeta * num) / den: zeta * (num / den) rounds differently
            yield zeta * top / bot if top else None

    def closed():
        rhs = Decimal(0)
        head = gen_factorial(params.r, params.alpha, n)
        if head:
            psi_val = digamma(1 - x, cfg) + gamma_euler(cfg)
            rhs -= _dec(head) * psi_val
        table = cached_table(params, n)
        bx = params.beta * x
        for k in range(1, n + 1):
            c = table.value(n, k) * factorial(k) * bx**k
            if c:
                rhs += _dec(c) * hurwitz_zeta(k + 1, 1 - x, cfg)
        return rhs

    # zeta(k+1) <= 2
    return _verdict("EQ26", {"params": params, "n": n, "x": x}, cfg,
                    terms(), lambda j: (2 * (a + b * j) ** n * xn**j, dn * xd**j), 1, closed)


def eval_eq30_family(n: int, cfg: EvalConfig = EvalConfig()) -> CheckReport:
    """sum_{k>=2} zeta(k) k^n / 2^k vs its log2 + weighted-zeta closed form."""
    as_size(n)

    def terms():
        for k, zeta in enumerate(_series_zetas(cfg.digits), 2):
            # k^n / 2^k in lowest terms: 2^(n v) divides k^n, v = v2(k)
            z = min(n * ((k & -k).bit_length() - 1), k)
            # (zeta * num) / den, as in eval_theorem5
            yield zeta * Decimal(k**n >> z) / Decimal(1 << (k - z))

    def closed():
        rhs = log2(cfg)
        table = cached_table(HsuShiueParams(0, 1, 0), n + 1)
        for k in range(1, n + 1):
            c = table.value(n + 1, k + 1) * factorial(k) * (1 - Fraction(1, 2 ** (k + 1)))
            rhs += _dec(c) * zeta_int(k + 1, cfg)
        return rhs

    return _verdict("EQ30_FAMILY", {"n": n}, cfg,
                    terms(), lambda j: (2 * j**n, 2**j), 2, closed)


def eval_eq17_18(
    n: int,
    params: HsuShiueParams,
    cfg: EvalConfig = EvalConfig(),
    eq: int = 17,
    start_index: str = "derived_j0",
) -> CheckReport:
    """Trigonometric-type factorial series vs the finite Stirling sum.

    eq=17: sum_k (2k*beta+r|alpha)_n (-1)^k (2pi)^2k / (2k)!
           == sum_j S(n,2j) (-1)^j (2pi*beta)^2j
    eq=18: sum_k ((2k+1)*beta+r|alpha)_n (-1)^k (2pi)^2k / (2k+1)!
           == beta * sum_j S(n,2j+1) (-1)^j (2pi*beta)^2j
    start_index="derived_j0" starts the finite sum at j=0 (the form that
    matches the series); "paper_j1" starts at j=1 and is kept as a must-fail
    regression (already wrong at n=1).
    """
    as_size(n)
    if eq not in (17, 18):
        raise ValueError(f"eq must be 17 or 18, got {eq}")
    if start_index not in ("derived_j0", "paper_j1"):
        raise ValueError(f"unknown start_index {start_index!r}")
    odd = eq - 17  # the index 2k + odd of the factorial and of beta
    a0, b, d = _poly_bound_base(params, n)
    a, dn = a0 + odd * b, d**n

    def two_pi_sq():
        return 4 * pi(cfg) ** 2  # in the caller's context, digits + 10

    def terms():
        step = two_pi_sq()
        pi_pow = Decimal(1)  # (2pi)^(2k), kept as a running product
        den, nums = _scaled_factorials(params, n, count(odd, 2))
        fact = 1  # (2k + odd)!, a running integer
        for k, num in enumerate(nums):
            top, bot = _lowest((-1) ** k * num, den * fact)
            yield top / bot * pi_pow if top else None
            pi_pow *= step
            fact *= (2 * k + odd + 1) * (2 * k + odd + 2)

    def closed():
        step = two_pi_sq()
        table = cached_table(params, n)
        beta_sq = params.beta**2
        j0 = 0 if start_index == "derived_j0" else 1
        rhs = Decimal(0)
        for j in range(j0, n // 2 + 1):
            c = table.value(n, 2 * j + odd) * (-1) ** j * beta_sq**j
            if c:
                rhs += _dec(c) * step**j
        if odd:
            rhs *= to_decimal(params.beta, cfg)
        return rhs

    # (2pi)^2 <= 40, shared (2k)! denominator floor
    return _verdict(f"EQ{eq}", {"n": n, "params": params, "start_index": start_index}, cfg,
                    terms(), lambda j: (40**j * (a + 2 * b * j) ** n, factorial(2 * j) * dn), 0,
                    closed)


def eval_dobinski_numeric(
    n: int, params: HsuShiueParams, x: RationalLike, cfg: EvalConfig = EvalConfig()
) -> CheckReport:
    """Factorially damped expansion vs e^(x/beta) * S_n(x), for beta > 0."""
    as_size(n)
    x = as_rational(x)
    if params.beta <= 0:
        raise ValueError("numeric check restricted to beta > 0")
    a, b, d = _poly_bound_base(params, n)
    ratio = x / params.beta  # (x/beta)^k = u^k / v^k, with v > 0
    un, dn = abs(ratio.numerator), d**n

    def terms():
        den, nums = _scaled_factorials(params, n, count())
        u_pow, v_pow, fact = 1, 1, 1  # and k!, all running integers
        for k, num in enumerate(nums):
            top, bot = _lowest(num * u_pow, den * v_pow * fact)
            yield top / bot if top else None
            u_pow *= ratio.numerator
            v_pow *= ratio.denominator
            fact *= k + 1

    def closed():
        exponent = to_decimal(x / params.beta, cfg)
        value = exp_poly(n, params)(x)
        return exponent.exp() * _dec(value)

    return _verdict("EQ16_NUMERIC", {"n": n, "params": params, "x": x}, cfg,
                    terms(), lambda j: ((a + b * j) ** n * un**j,
                                        dn * ratio.denominator**j * factorial(j)), 0, closed)
