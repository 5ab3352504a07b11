"""Dense univariate polynomials with exact rational coefficients.

Coefficient index k holds the coefficient of x**k; trailing zeros are
normalized away and the zero polynomial is the empty tuple.
"""

from __future__ import annotations

from fractions import Fraction
from math import lcm
from typing import Iterable

from .exact import RationalLike, as_rational
from .record import Frozen
from .series import PowerSeries, compose


def _normalize(coeffs: Iterable[RationalLike]) -> tuple[Fraction, ...]:
    cs = [as_rational(c) for c in coeffs]
    while cs and cs[-1] == 0:
        cs.pop()
    return tuple(cs)


class PolyQ(Frozen):
    __slots__ = ("coeffs",)
    coeffs: tuple[Fraction, ...]

    def __init__(self, coeffs: tuple[Fraction, ...]) -> None:
        object.__setattr__(self, "coeffs", coeffs)

    @staticmethod
    def from_coeffs(coeffs: Iterable[RationalLike]) -> "PolyQ":
        return PolyQ(_normalize(coeffs))

    @staticmethod
    def zero() -> "PolyQ":
        return PolyQ(())

    @staticmethod
    def const(c: RationalLike) -> "PolyQ":
        return PolyQ.from_coeffs([c])

    @property
    def degree(self) -> int:
        """Degree, with -1 for the zero polynomial."""
        return len(self.coeffs) - 1

    def coeff(self, k: int) -> Fraction:
        return self.coeffs[k] if 0 <= k < len(self.coeffs) else Fraction(0)

    def __call__(self, x: RationalLike) -> Fraction:
        """Horner's rule on integer numerators over one denominator, one Fraction at the end."""
        x = as_rational(x)
        num, den = x.numerator, x.denominator
        common = lcm(*(c.denominator for c in self.coeffs))
        acc, den_pow = 0, 1  # after c_(d-j): common * den^j * (c_d x^j + ... + c_(d-j))
        for c in reversed(self.coeffs):
            acc = acc * num + c.numerator * (common // c.denominator) * den_pow
            den_pow *= den
        return Fraction(acc, common * den ** max(self.degree, 0))

    def __add__(self, other: "PolyQ") -> "PolyQ":
        n = max(len(self.coeffs), len(other.coeffs))
        return PolyQ.from_coeffs([self.coeff(k) + other.coeff(k) for k in range(n)])

    def __sub__(self, other: "PolyQ") -> "PolyQ":
        n = max(len(self.coeffs), len(other.coeffs))
        return PolyQ.from_coeffs([self.coeff(k) - other.coeff(k) for k in range(n)])

    def __neg__(self) -> "PolyQ":
        return PolyQ(tuple(-c for c in self.coeffs))

    def __mul__(self, other: "PolyQ | RationalLike") -> "PolyQ":
        if not isinstance(other, PolyQ):
            c = as_rational(other)
            return PolyQ.from_coeffs([c * a for a in self.coeffs])
        out = [Fraction(0)] * (len(self.coeffs) + len(other.coeffs))
        for i, a in enumerate(self.coeffs):
            for j, b in enumerate(other.coeffs):
                out[i + j] += a * b
        return PolyQ.from_coeffs(out)

    __rmul__ = __mul__

    def derivative(self, times: int = 1) -> "PolyQ":
        p = self
        for _ in range(times):
            p = PolyQ.from_coeffs([k * c for k, c in enumerate(p.coeffs)][1:] or [0])
        return p

    def integral(self, a: RationalLike, b: RationalLike) -> Fraction:
        """Exact integral from a to b: the antiderivative, evaluated at b and a."""
        anti = PolyQ((Fraction(0),) + tuple(c / (k + 1) for k, c in enumerate(self.coeffs)))
        return anti(b) - anti(a)

    def shift_x(self, power: int) -> "PolyQ":
        """Multiply by x**power."""
        if not self.coeffs:
            return self
        return PolyQ((Fraction(0),) * power + self.coeffs)

    def to_series(self, order: int) -> PowerSeries:
        return PowerSeries.from_coeffs(self.coeffs or [0], order)

    def at_series(self, inner: PowerSeries) -> PowerSeries:
        """Substitute a zero-constant-term series for x."""
        return compose(self.to_series(max(self.degree, 0)), inner)
