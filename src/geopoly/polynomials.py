"""Dense univariate polynomials with exact rational coefficients.

A `PolyQ` is kept in canonical form, as FLINT keeps an ``fmpq_poly``:
integer numerators ``nums`` over one denominator ``den > 0``, with
``gcd(den, *nums) == 1`` and no trailing zero, so the coefficient of x**k
is nums[k]/den and the zero polynomial is ``((), 1)``.  The form is unique,
so equality and the hash of the two fields are value equality.  The field
constructor reduces to it with one gcd; `from_coeffs` takes rationals.
Evaluation and the integral run on the integers and build one Fraction at
the end.  `coeffs` gives the reduced Fractions to readers that want them;
EQ1 reads x^k f^(k)(x) off them as (j)_k f_j at x^j, with no ring operation.
The Mellin composition reads `nums` over `den` as they are.
"""

from __future__ import annotations

from fractions import Fraction
from math import gcd, lcm
from typing import Iterable

from .exact import RationalLike, as_rational, over_lcm
from .record import Frozen
from .series import PowerSeries


def _horner(nums: tuple[int, ...], p: int, q: int) -> int:
    """sum_k nums[k] p^k q^(d-k), d = len(nums) - 1: the value at p/q times q^d."""
    acc, q_pow = 0, 1
    for c in reversed(nums):
        acc = acc * p + c * q_pow
        q_pow *= q
    return acc


class PolyQ(Frozen):
    __slots__ = ("nums", "den")
    nums: tuple[int, ...]
    den: int

    def __init__(self, nums: Iterable[int], den: int = 1) -> None:
        nums = list(nums)
        if {type(den), *map(type, nums)} - {int}:
            raise TypeError(f"PolyQ takes int numerators over an int denominator, got {nums} / {den!r}")
        if not den:
            raise ZeroDivisionError("PolyQ denominator is zero")
        while nums and not nums[-1]:
            nums.pop()
        g = gcd(den, *nums) if den > 0 else -gcd(den, *nums)
        if g != 1:
            nums, den = [c // g for c in nums], den // g
        object.__setattr__(self, "nums", tuple(nums))
        object.__setattr__(self, "den", den)

    @staticmethod
    def from_coeffs(coeffs: Iterable[RationalLike]) -> "PolyQ":
        return PolyQ(*over_lcm([as_rational(c) for c in coeffs]))

    @property
    def coeffs(self) -> tuple[Fraction, ...]:
        """The coefficients of x**0 .. x**degree as reduced Fractions."""
        return tuple(Fraction(c, self.den) for c in self.nums)

    @property
    def degree(self) -> int:
        """Degree, with -1 for the zero polynomial."""
        return len(self.nums) - 1

    def __call__(self, x: RationalLike) -> Fraction:
        """Horner's rule on the integer numerators, one Fraction at the end."""
        x = as_rational(x)
        q = x.denominator
        return Fraction(_horner(self.nums, x.numerator, q), self.den * q ** max(self.degree, 0))

    def integral(self, a: RationalLike, b: RationalLike) -> Fraction:
        """Exact integral from a to b: the antiderivative on integers over
        den L, by Horner at b and at a, and one Fraction.

        c_k/(k+1) is (c_k/g_k)/d_k with g_k = gcd(c_k, k+1) and d_k =
        (k+1)/g_k, so L = lcm(d_k) is often far below lcm(1..d+1).
        """
        a, b = as_rational(a), as_rational(b)
        size = len(self.nums)
        gs = [gcd(c, k + 1) for k, c in enumerate(self.nums)]
        ds = [(k + 1) // g for k, g in enumerate(gs)]
        big_l = lcm(*ds)
        anti = (0, *(c // g * (big_l // d) for c, g, d in zip(self.nums, gs, ds)))
        p, q, s, t = a.numerator, a.denominator, b.numerator, b.denominator
        at_b, at_a = _horner(anti, s, t), _horner(anti, p, q)
        q_pow, t_pow = q**size, t**size
        return Fraction(at_b * q_pow - at_a * t_pow, self.den * big_l * q_pow * t_pow)

    def to_series(self, order: int) -> PowerSeries:
        return PowerSeries.from_coeffs(self.coeffs or [0], order)
