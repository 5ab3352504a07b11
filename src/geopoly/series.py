"""Truncated formal power series over exact rationals.

A :class:`PowerSeries` stores the coefficients of t^0..t^order as a tuple of
Fractions; its constructor refuses anything but Fraction and int.  Ring
operations are exact and truncate to the minimum operand order; division
shifts out the common t-valuation first, so quotients of valuation-1 series
(log/exp-type numerators and denominators) stay exact.

The deformed exponential base used by every generating function here is

    (1 + alpha*t)^(c/alpha)  =  sum_j  (c|alpha)_j * t^j / j!

whose right-hand side is an exact rational expression that remains valid at
alpha = 0, where it degenerates to exp(c*t).  All alpha -> 0 "limits" in
this module are therefore the same code path, never a numeric limit.
Similarly ((1+alpha*t)^(beta/alpha) - 1)/beta has j-th coefficient
prod_{i=1}^{j-1}(beta - i*alpha) / j!, exact even at beta = 0 (where it
becomes log(1+alpha*t)/alpha).  Both are written once, on integers: with
(c, alpha) = (C, A)/D, (c|alpha)_j = (C|A)_j / D^j, and
:func:`falling_products` gives the integers (C|A)_j, so each coefficient
is one Fraction of a product over D^j j!.  The GF oracle
(`stirling.verify_against_gf`) reads the same products as EGF integers.

The ring kernels (``*``, :func:`divide`, :func:`exp_series`,
:func:`log_series`) never accumulate Fractions term by term.  Each puts
its operands once on integers with `exact.over_lcm`, runs the O(n^2)
convolution or recurrence in ``int``, and builds exactly one Fraction --
one gcd normalization -- per output coefficient (`log_series` one more,
for its division by n).  A product of long operands with narrow numerators
is no O(n^2) loop: Kronecker substitution packs each operand's numerators
into the byte slots of one int, and one big-integer product (a square for
``a * a``) holds every coefficient (:func:`_kronecker`).  Short operands,
and wide ones, whose slots would cost more than the loop, take the
schoolbook; a square there computes each cross product a_i a_j (i < j)
once and doubles it.  The switch reads the length and the numerators'
widths.  The recurrences are sequential, as each output is fed back
before the next, so they have no one product to pack.  They feed each new
coefficient back as a numerator over the least common denominator of the
coefficients produced so far (:func:`_recurrence`); `divide` and
`log_series` run the same recurrence, the latter on t*a'/a, whose
coefficients are n*l_n.  That denominator grows only when a new
coefficient needs it, and then only the newest numerators -- fewer than
ceil(sqrt(order)) of them -- are rescaled; the older ones stay settled over
an earlier denominator, their dot product is scaled by one multiplication,
and they are rescaled together once per ceil(sqrt(order)) coefficients.
"""

from __future__ import annotations

from fractions import Fraction
from math import factorial, gcd, isqrt
from operator import mul
from typing import Callable, Iterable, Union

from .exact import RationalLike, as_rational, as_size, over_lcm
from .params import HsuShiueParams
from .record import Frozen

ScalarLike = Union[Fraction, int]


def _recurrence(
    c: list[int], first: Fraction, step: Callable[[int, int, int], Fraction]
) -> tuple[Fraction, ...]:
    """q_0 = first and q_n = step(n, dot, den) for n = 1..order, order = len(c) - 1.

    dot/den = sum_{i<n} q_i c_(n-i), with den the least common denominator
    of q_0..q_(n-1).  The fed-back numerators q_i den are kept in two parts.
    The newest, fewer than `block`, are in `tail` over den.  The older ones
    are settled in `head` over den/scale, so their dot product is scaled by
    one multiplication.  When den grows, only the tail and scale are
    rescaled, and every `block` appends the tail joins the head with one
    rescale of the head.
    block = ceil(sqrt(order)) makes that O(sqrt(order)) big-integer products
    per step, where rescaling every stored numerator would be O(order).
    """
    order = len(c) - 1
    rev = c[::-1]
    block = isqrt(order - 1) + 1 if order else 1
    out = [first]
    head: list[int] = []
    tail: list[int] = []
    den = scale = 1
    q = first
    for n in range(1, order + 1):
        e = q.denominator  # feed back q = q_(n-1)
        if den % e:
            f = e // gcd(den, e)
            tail = [x * f for x in tail]
            scale *= f
            den *= f
        tail.append(q.numerator * (den // e))
        if len(tail) == block:
            if scale != 1:
                head = [x * scale for x in head]
                scale = 1
            head += tail
            tail = []
        h = len(head)
        lo = order - n
        dot = sum(map(mul, tail, rev[lo + h : order]))
        if h:
            dot += sum(map(mul, head, rev[lo : lo + h])) * scale
        q = step(n, dot, den)
        out.append(q)
    return tuple(out)


class PowerSeries(Frozen):
    """Coefficients of t^0 .. t^order, exact rationals."""

    __slots__ = ("coeffs",)
    coeffs: tuple[Fraction, ...]

    def __init__(self, coeffs: tuple[Fraction, ...]) -> None:
        if not coeffs:
            raise ValueError("a PowerSeries needs at least the t^0 coefficient")
        if set(map(type, coeffs)) - {Fraction, int}:
            raise TypeError(f"PowerSeries takes Fraction or int coefficients, got {coeffs!r}")
        object.__setattr__(self, "coeffs", coeffs)

    @staticmethod
    def from_coeffs(coeffs: Iterable[RationalLike], order: int | None = None) -> "PowerSeries":
        cs = [as_rational(c) for c in coeffs]
        if order is not None:
            cs = cs[: order + 1] + [Fraction(0)] * (order + 1 - len(cs))
        return PowerSeries(tuple(cs))

    @staticmethod
    def constant(c: RationalLike, order: int) -> "PowerSeries":
        return PowerSeries.from_coeffs([as_rational(c)], order)

    @staticmethod
    def one(order: int) -> "PowerSeries":
        return PowerSeries.constant(1, order)

    @staticmethod
    def t(order: int) -> "PowerSeries":
        return PowerSeries.from_coeffs([0, 1], order)

    @property
    def order(self) -> int:
        return len(self.coeffs) - 1

    def coeff(self, j: int) -> Fraction:
        """[t^j], an error beyond the truncation order."""
        if j < 0 or j > self.order:
            raise IndexError(f"coefficient t^{j} outside truncation order {self.order}")
        return self.coeffs[j]

    def egf_coeff(self, n: int) -> Fraction:
        """n! * [t^n] -- the n-th value of the family this series generates."""
        return self.coeff(n) * factorial(n)

    def valuation(self) -> int | None:
        """Index of the first nonzero coefficient, or None for the zero series."""
        for j, c in enumerate(self.coeffs):
            if c:
                return j
        return None

    def __add__(self, other: "PowerSeries | ScalarLike") -> "PowerSeries":
        if not isinstance(other, PowerSeries):
            cs = list(self.coeffs)
            cs[0] += as_rational(other)
            return PowerSeries(tuple(cs))
        n = min(self.order, other.order)
        return PowerSeries(tuple(self.coeffs[j] + other.coeffs[j] for j in range(n + 1)))

    __radd__ = __add__

    def __neg__(self) -> "PowerSeries":
        return PowerSeries(tuple(-c for c in self.coeffs))

    def __sub__(self, other: "PowerSeries | ScalarLike") -> "PowerSeries":
        return self + (-other if isinstance(other, PowerSeries) else -as_rational(other))

    def __rsub__(self, other: ScalarLike) -> "PowerSeries":
        return (-self) + as_rational(other)

    def __mul__(self, other: "PowerSeries | ScalarLike") -> "PowerSeries":
        if not isinstance(other, PowerSeries):
            c = as_rational(other)
            return PowerSeries(tuple(c * a for a in self.coeffs))
        n = min(self.order, other.order)
        a, da = over_lcm(self.coeffs[: n + 1])
        b, db = (a, da) if other is self else over_lcm(other.coeffs[: n + 1])
        den = da * db
        return PowerSeries(tuple(Fraction(c, den) for c in _convolve(a, b)))

    __rmul__ = __mul__


# A product of n >= _PACKED_TERMS terms is packed (`_kronecker`) while
# bits^2 <= k * total, where bits, the widest numerator of each operand
# summed, sets the slot, and total, the summed widths of all 2n numerators,
# sets the schoolbook's cost; k = max(6, n/16) for a product and 2 for a
# square.  At equal widths that is k bits per term, and uneven widths cut the
# budget by their ratio of mean to widest.  Measured on one CPU against the
# schoolbook and the half-convolution: at equal widths a product took
# x0.64-0.83 of the schoolbook at 6 bits per term and 32-400 terms, was level
# at 8 bits and 32-96 terms, and took x0.94-0.58 at n/12 bits and 128-400
# terms; a square took x0.44-0.76 at 2 bits per term.  A binom_deform product
# (mean to widest 0.68) took x1.27, 1.05, 0.85 and 0.77 at 128, 200, 256 and
# 400 terms, and one wide numerator among 1s x24 at 400 terms.
_PACKED_TERMS = 32


def _bits(xs: list[int]) -> int:
    """The bit length of the largest |x|."""
    return max(max(xs), -min(xs)).bit_length()


def _convolve(a: list[int], b: list[int]) -> list[int]:
    """c_k = sum_(i+j=k) a_i b_j for k < len(a) == len(b), by the cheaper route.

    Long narrow operands are packed (`_kronecker`); the others take the
    schoolbook, or `_square` when ``a is b``.
    """
    n = len(a)
    if n >= _PACKED_TERMS:
        widths = sum(map(int.bit_length, a))
        if a is b:
            bits, budget = _bits(a) << 1, 4 * widths
        else:
            bits = _bits(a) + _bits(b)
            budget = max(6, n >> 4) * (widths + sum(map(int.bit_length, b)))
        if bits * bits <= budget:
            return _kronecker(a, b, bits)
    if a is b:
        return _square(a)
    r = b[::-1]
    return [sum(map(mul, a[: k + 1], r[n - 1 - k :])) for k in range(n)]


def _square(a: list[int]) -> list[int]:
    """The square of short or wide operands as a half-convolution.

    Each cross product a_i a_(k-i), i < k - i, is computed once and doubled;
    long narrow operands are packed instead (`_convolve`).
    """
    n = len(a) - 1
    r = a[::-1]
    out = []
    for k in range(n + 1):
        h = k >> 1
        acc = sum(map(mul, a[: k - h], r[n - k : n - h])) << 1
        if not k & 1:
            acc += a[h] * a[h]
        out.append(acc)
    return out


def _kronecker(a: list[int], b: list[int], bits: int) -> list[int]:
    """The first len(a) coefficients of (sum a_i x^i)(sum b_j x^j) by one product.

    Kronecker substitution x = 2^w: each operand is packed into one int,
    a_i in byte slot i, and one big-integer product (a square when ``a is
    b``) replaces the n^2 small ones.  ``bits`` is bits(max|a|) +
    bits(max|b|), so with bits(n) more every |c_k| < 2^(w-1), which leaves
    a sign bit in each slot.  Packing writes a_i in two's complement, which
    borrows 2^w from the next slot when a_i < 0; the borrows are subtracted
    back.  Adding 2^(w-1) to each of the first n slots makes every digit
    c_k + 2^(w-1), in 0..2^w - 1, so the low n slots are read off the bytes.
    """
    n = len(a)
    size = (bits + n.bit_length() + 8) >> 3  # bytes: the bits, bits(n) and a sign bit
    w = size << 3
    zero, borrow = bytes(size), b"\1" + bytes(size - 1)

    def pack(xs: list[int]) -> int:
        digits = b"".join([x.to_bytes(size, "little", signed=True) for x in xs])
        borrows = b"".join([borrow if x < 0 else zero for x in xs])
        return int.from_bytes(digits, "little") - (int.from_bytes(borrows, "little") << w)

    p = pack(a)
    p = p * p if a is b else p * pack(b)
    p += int.from_bytes((bytes(size - 1) + b"\x80") * n, "little")
    low = (p & ((1 << w * n) - 1)).to_bytes(size * n, "little")
    half = 1 << (w - 1)
    return [int.from_bytes(low[i : i + size], "little") - half for i in range(0, size * n, size)]


def divide(a: PowerSeries, b: PowerSeries) -> PowerSeries:
    """Exact quotient a/b after shifting out b's t-valuation from both.

    Requires valuation(b) <= valuation(a); the result order is the shared
    order minus the shifted valuation.
    """
    vb = b.valuation()
    if vb is None:
        raise ZeroDivisionError("power series division by the zero series")
    va = a.valuation()
    if va is not None and va < vb:
        raise ValueError(f"valuation(a)={va} < valuation(b)={vb}: quotient is not a power series")
    order = min(a.order, b.order) - vb
    if order < 0:
        raise ValueError("truncation order too small to divide after valuation shift")
    # a/b == an/bn: both are scaled by the same common denominator
    nums, _ = over_lcm(a.coeffs[vb : vb + order + 1] + b.coeffs[vb : vb + order + 1])
    an, bn = nums[: order + 1], nums[order + 1 :]
    b0 = bn[0]
    # q_n = (a_n - sum_{i<n} q_i b_(n-i)) / b_0
    return PowerSeries(_recurrence(
        bn, Fraction(an[0], b0), lambda n, dot, den: Fraction(an[n] * den - dot, den * b0)
    ))


def inverse(b: PowerSeries) -> PowerSeries:
    """Multiplicative inverse of a series with nonzero constant term."""
    if b.coeffs[0] == 0:
        raise ValueError("cannot invert a series with zero constant term")
    return divide(PowerSeries.one(b.order), b)


def pow_int(a: PowerSeries, n: int) -> PowerSeries:
    """a**n for integer n (negative n inverts first).

    Binary powering that neither multiplies by one nor squares past the top
    bit: n = 1, 2, 3, 5 cost 0, 1, 2, 3 multiplications.
    """
    if n < 0:
        return pow_int(inverse(a), -n)
    if n == 0:
        return PowerSeries.one(a.order)
    out = None  # a^(the bits of n seen so far); a runs through the squares
    while True:
        if n & 1:
            out = a if out is None else out * a
        n >>= 1
        if not n:
            return out
        a = a * a


def exp_series(a: PowerSeries) -> PowerSeries:
    """exp(a) for a series with zero constant term."""
    if a.coeffs[0] != 0:
        raise ValueError("exp_series requires valuation >= 1 (zero constant term)")
    an, da = over_lcm(a.coeffs)
    # n*e_n = sum_{k=1}^{n} k*a_k*e_{n-k}  (from e' = a'e)
    ka = [k * c for k, c in enumerate(an)]
    return PowerSeries(_recurrence(ka, Fraction(1), lambda n, dot, den: Fraction(dot, n * da * den)))


def log_series(a: PowerSeries) -> PowerSeries:
    """log(a) for a series with constant term 1."""
    if a.coeffs[0] != 1:
        raise ValueError("log_series requires constant term 1")
    an, da = over_lcm(a.coeffs)
    # m_n = n*l_n are the coefficients of t*a'/a, divided as in `divide`:
    # m_n = n*a_n - sum_{k<n} m_k*a_(n-k)
    m = _recurrence(an, Fraction(0), lambda n, dot, den: Fraction(n * an[n] * den - dot, da * den))
    return PowerSeries((m[0], *(m[n] / n for n in range(1, len(m)))))


def pow_series(a: PowerSeries, c: RationalLike) -> PowerSeries:
    """a**c for rational c, via exp(c * log a); needs constant term 1."""
    return exp_series(log_series(a) * as_rational(c))


# ---------------------------------------------------------------------------
# Deformed exponential building blocks
# ---------------------------------------------------------------------------


def falling_products(c: int, a: int, order: int) -> list[int]:
    """The integers (c|a)_j = prod_{i<j}(c - i*a) for j = 0..order, none for order -1."""
    out = [1] * (order + 1)
    for i in range(order):
        out[i + 1] = out[i] * (c - i * a)
    return out


def _over_egf(nums: list[int], d: int) -> PowerSeries:
    """The series of coefficients nums[j] / (D^j j!), one Fraction each."""
    coeffs, den = [], 1
    for j, num in enumerate(nums, 1):
        coeffs.append(Fraction(num, den))
        den *= j * d
    return PowerSeries(tuple(coeffs))


def binom_deform(alpha: RationalLike, c: RationalLike, order: int) -> PowerSeries:
    """(1 + alpha*t)^(c/alpha), exactly exp(c*t) at alpha = 0.

    Coefficient of t^j is (c|alpha)_j / j!, that is (C|A)_j / (D^j j!)
    with (C, A) over D = `exact.over_lcm` of (c, alpha).
    """
    as_size(order, "order")
    (cn, a), d = over_lcm((as_rational(c), as_rational(alpha)))
    return _over_egf(falling_products(cn, a, order), d)


def deformed_base(alpha: RationalLike, beta: RationalLike, order: int) -> PowerSeries:
    """((1 + alpha*t)^(beta/alpha) - 1)/beta without ever dividing by beta.

    Coefficient of t^j (j >= 1) is prod_{i=1}^{j-1}(beta - i*alpha) / j!,
    that is D (B - A|A)_(j-1) / (D^j j!) with (A, B) over D, so beta = 0
    degenerates exactly to log(1 + alpha*t)/alpha and alpha = 0 to
    (exp(beta*t) - 1)/beta.
    """
    as_size(order, "order")
    (a, b), d = over_lcm((as_rational(alpha), as_rational(beta)))
    return _over_egf([0] + [d * p for p in falling_products(b - a, a, order - 1)], d)


# ---------------------------------------------------------------------------
# Generating functions of the polynomial families
# ---------------------------------------------------------------------------


def gf_w(params: HsuShiueParams, s: int, x: RationalLike, order: int) -> PowerSeries:
    """EGF of the order-s generalized geometric polynomials at argument x.

    [1/(1 - x*((1+alpha t)^(beta/alpha) - 1))]^s * (1+alpha t)^(r/alpha);
    n! * [t^n] is w_n^(s)(x; alpha, beta, r).
    """
    as_size(s, "s", 1)
    x = as_rational(x)
    big = binom_deform(params.alpha, params.beta, order)
    den = PowerSeries.one(order) - (big - 1) * x
    return pow_int(den, -s) * binom_deform(params.alpha, params.r, order)


def gf_degenerate_euler(s: int, alpha: RationalLike, x: RationalLike, order: int) -> PowerSeries:
    """EGF (2/((1+alpha t)^(1/alpha)+1))^s * (1+alpha t)^(x/alpha).

    n! * [t^n] is the order-s degenerate Euler polynomial at x; alpha = 0
    gives the classical (2/(e^t+1))^s e^{xt}.
    """
    as_size(s, "s")
    u = binom_deform(alpha, 1, order)
    half = (u + 1) * Fraction(1, 2)  # constant term 1
    return pow_int(half, -s) * binom_deform(alpha, x, order)


def gf_bernoulli2_degenerate(alpha: RationalLike, x: RationalLike, order: int) -> PowerSeries:
    """EGF of the degenerate Bernoulli polynomials of the second kind.

    [(1/alpha) log(1+alpha t)] / [(1+alpha t)^(1/alpha) - 1] * (1+alpha t)^(x/alpha);
    numerator and denominator both have valuation 1, which `divide` shifts
    out.  alpha = 0 collapses to the classical t e^{xt} / (e^t - 1).
    """
    num = deformed_base(alpha, 0, order + 1)  # log(1+alpha t)/alpha, exact at alpha=0 too
    den = binom_deform(alpha, 1, order + 1) - 1
    return divide(num, den) * binom_deform(alpha, x, order)


def gf_carlitz_beta(alpha: RationalLike, x: RationalLike, order: int) -> PowerSeries:
    """EGF t/((1+alpha t)^(1/alpha) - 1) * (1+alpha t)^(x/alpha).

    n! * [t^n] is the degenerate Bernoulli polynomial beta_n(alpha, x); the
    alpha = 0 path is the classical Bernoulli EGF.
    """
    num = PowerSeries.t(order + 1)
    den = binom_deform(alpha, 1, order + 1) - 1
    return divide(num, den) * binom_deform(alpha, x, order)
