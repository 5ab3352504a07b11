"""The three-parameter family descriptor shared by every module."""

from __future__ import annotations

from fractions import Fraction

from .exact import RationalLike, as_rational, over_lcm
from .record import Frozen


class HsuShiueParams(Frozen):
    """Parameter triple (alpha, beta, r) of the generalized Stirling family.

    The all-zero triple is rejected: it does not define a family.
    """

    __slots__ = ("alpha", "beta", "r")
    alpha: Fraction
    beta: Fraction
    r: Fraction

    def __init__(self, alpha: RationalLike, beta: RationalLike, r: RationalLike):
        object.__setattr__(self, "alpha", as_rational(alpha))
        object.__setattr__(self, "beta", as_rational(beta))
        object.__setattr__(self, "r", as_rational(r))
        if self.alpha == 0 and self.beta == 0 and self.r == 0:
            raise ValueError("(alpha, beta, r) = (0, 0, 0) is not a valid parameter triple")

    def integer_form(self) -> tuple[int, int, int, int]:
        """(D, A, B, R): (alpha, beta, r) = (A, B, R)/D by `exact.over_lcm`,
        so every factor k B + R - j A of the integer forms is an integer."""
        (a, b, r), d = over_lcm((self.alpha, self.beta, self.r))
        return d, a, b, r

    def __repr__(self) -> str:  # compact, round-trippable
        return f"HsuShiueParams({self.alpha!s}, {self.beta!s}, {self.r!s})"
