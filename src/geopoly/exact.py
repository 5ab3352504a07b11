"""Exact rational arithmetic and the factorial-type primitives.

``Rational`` is :class:`fractions.Fraction`: values are always stored in
lowest terms with a positive denominator, arithmetic is exact, and division
by zero raises.  Everything else in the package is built on the three
product primitives below, which are computed by iterated exact products
(integer numerators over one denominator, one Fraction per call) so they
are total for arbitrary rational arguments (including non-positive ones
where gamma-ratio shortcuts would break down).  The rising and falling
factorials keep loops of their own, so that EQ36 compares two products.
"""

from __future__ import annotations

import re
from fractions import Fraction
from math import lcm
from typing import Sequence

Rational = Fraction

RationalLike = Fraction | int | str

# The exact textual form: an integer or p/q with a positive denominator.
_RATIONAL_RE = re.compile(r"^[+-]?\d+(/[1-9]\d*)?$")


def as_rational(x: RationalLike) -> Fraction:
    """Coerce a Fraction, an int or a "p/q" / integer string to a Fraction.

    Anything else is refused rather than rounded: floats, bools, Decimals
    and decimal or exponent strings raise TypeError or ValueError.
    """
    if isinstance(x, Fraction):
        return x
    if isinstance(x, int) and not isinstance(x, bool):
        return Fraction(x)
    if isinstance(x, str):
        text = x.strip()
        if _RATIONAL_RE.match(text):
            return Fraction(text)
        raise ValueError(f"not an exact rational (use p/q or an integer): {x!r}")
    raise TypeError(f"not an exact rational (use Fraction, int or 'p/q'): {x!r}")


def as_size(value: int, name: str = "n", least: int = 0, most: int | None = None) -> int:
    """``value`` if it is an int in ``least``..``most``: the one check of every size.

    Bools, floats and the rest raise TypeError; an int below ``least``, or
    above ``most`` when that is given, raises ValueError.
    """
    if not isinstance(value, int) or isinstance(value, bool):
        raise TypeError(f"{name} must be an integer, got {value!r}")
    if value < least:
        raise ValueError(f"{name} must be >= {least}, got {value}")
    if most is not None and value > most:
        raise ValueError(f"{name} must be <= {most}, got {value}")
    return value


def over_lcm(values: Sequence[Fraction]) -> tuple[list[int], int]:
    """``values`` as integer numerators over their least common denominator.

    ``(nums, den)`` with ``values[i] == Fraction(nums[i], den)``, and
    ``([], 1)`` for no values: the one place rationals are put on integers.
    """
    den = lcm(*(v.denominator for v in values))
    return [v.numerator * (den // v.denominator) for v in values], den


def gen_factorial(z: RationalLike, alpha: RationalLike, n: int) -> Fraction:
    """Generalized factorial (z|alpha)_n = z(z-alpha)...(z-(n-1)alpha).

    (z|alpha)_0 = 1 (empty product); (z|1)_n is the falling factorial and
    (z|0)_n = z**n.
    """
    as_size(n)
    z = as_rational(z)
    alpha = as_rational(alpha)
    # z = top/den and alpha = step/den over one denominator: an integer
    # product and one Fraction, not a reduced Fraction per factor
    (top, step), den = over_lcm((z, alpha))
    out = 1
    for j in range(n):
        out *= top - j * step
    return Fraction(out, den**n)


def rising_factorial(x: RationalLike, n: int) -> Fraction:
    """Rising factorial <x>_n = x(x+1)...(x+n-1), with <x>_0 = 1."""
    as_size(n)
    x = as_rational(x)
    # x + j = (p + jq)/q: an integer product over q^n
    p, q = x.numerator, x.denominator
    out = 1
    for j in range(n):
        out *= p + j * q
    return Fraction(out, q**n)


def falling_factorial(x: RationalLike, n: int) -> Fraction:
    """Falling factorial (x)_n = x(x-1)...(x-n+1), with (x)_0 = 1."""
    as_size(n)
    x = as_rational(x)
    p, q = x.numerator, x.denominator
    out = 1
    for j in range(n):
        out *= p - j * q
    return Fraction(out, q**n)
