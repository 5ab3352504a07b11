"""The three-parameter family descriptor shared by every module."""

from __future__ import annotations

from fractions import Fraction

from .exact import RationalLike, as_rational, over_lcm
from .record import Frozen


class HsuShiueParams(Frozen):
    """Parameter triple (alpha, beta, r) of the generalized Stirling family.

    The all-zero triple is rejected: it does not define a family.  The
    integer form (D, A, B, R) is computed once, at construction.  It is
    the cache key of the triple: two triples are equal exactly when their
    forms are, so equality compares the forms and ``hash(params)`` is the
    stored hash of the form, and a table read hashes and compares no
    Fraction.  Repr, copies and pickles read only the three fields.
    """

    __slots__ = ("alpha", "beta", "r", "_form", "_hash")
    alpha: Fraction
    beta: Fraction
    r: Fraction

    def __init__(self, alpha: RationalLike, beta: RationalLike, r: RationalLike):
        alpha, beta, r = as_rational(alpha), as_rational(beta), as_rational(r)
        (a, b, c), d = over_lcm((alpha, beta, r))
        if not (a or b or c):
            raise ValueError("(alpha, beta, r) = (0, 0, 0) is not a valid parameter triple")
        object.__setattr__(self, "alpha", alpha)
        object.__setattr__(self, "beta", beta)
        object.__setattr__(self, "r", r)
        object.__setattr__(self, "_form", (d, a, b, c))
        object.__setattr__(self, "_hash", hash((d, a, b, c)))

    def integer_form(self) -> tuple[int, int, int, int]:
        """(D, A, B, R): (alpha, beta, r) = (A, B, R)/D by `exact.over_lcm`,
        so every factor k B + R - j A of the integer forms is an integer."""
        return self._form

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self._form == other._form

    def __hash__(self) -> int:
        return self._hash

    def __repr__(self) -> str:  # compact, round-trippable
        return f"HsuShiueParams({self.alpha!s}, {self.beta!s}, {self.r!s})"
