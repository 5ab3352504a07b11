"""Formal action of the weighted derivative (beta * x^(1-alpha/beta) * D)^n.

A series here is its list of rational coefficients c_k, read as
sum_k c_k x^(k + r/beta): the prefactor x^(r/beta) is implied by the
params, so nothing here ever needs fractional powers of the series
variable.  One application multiplies x^((k*beta + r)/beta) by
(k*beta + r) and lowers its exponent by alpha/beta, so n applications
multiply c_k by the generalized factorial (k*beta + r | alpha)_n and leave
the prefactor x^((r - n*alpha)/beta).

One loop, `_factorial_weights`, computes c_k (k*beta + r | alpha)_n on
integers: the operator side of EQ1 and EQ15 and the termwise side of EQ5,
EQ21 and EQ38.  EQ4_OPERATOR, the operator on the binomial tail, is EQ5's
check, and EQ16_EXACT, the coefficientwise Dobinski expansion, is EQ15's.
Against the loop stand the derivative expansion sum_k S(n,k) beta^k x^k
f^(k)(x) (EQ1), the convolution e^(x/beta) S_n(x) (EQ15), or a closed
generating-function composition (EQ5, EQ21, EQ38).
x^k f^(k)(x) has (j)_k f_j at x^j, so on x^j EQ1 is the Hsu-Shiue
relation (j*beta + r | alpha)_n = sum_k S(n,k) beta^k (j)_k.  The
composition (1 - y)^(-m) w(y/(1 - y)), y = sign*x, is sum_k w_k y^k
(1 - y)^(-(m+k)), so its coefficients come from the binomial
theorem on integers, with no series product.
"""

from __future__ import annotations

from fractions import Fraction
from itertools import count
from math import comb, perm
from typing import Sequence

from .exact import as_size
from .families import geometric_poly, exp_poly
from .params import HsuShiueParams
from .polynomials import PolyQ
from .report import CheckReport
from .series import binom_deform
from .stirling import cached_table


def apply_operator(
    coeffs: Sequence[Fraction], params: HsuShiueParams, times: int
) -> list[Fraction]:
    """The coefficients of sum_k c_k x^(k + r/beta) after `times` applications.

    Coefficient k gains (k*beta + r | alpha)_times, by `_factorial_weights`;
    the weighted derivative itself needs beta != 0.
    """
    as_size(times, "times")
    if params.beta == 0:
        raise ValueError("beta must be nonzero for the weighted derivative")
    return _factorial_weights(coeffs, params, times)


def _factorial_weights(
    coeffs: Sequence[Fraction | int], params: HsuShiueParams, n: int
) -> list[Fraction]:
    """c_k (k*beta + r | alpha)_n for every coefficient c_k, at any beta.

    The factor is the integer product prod_{j<n}(kB + R - jA) over D^n, with
    (D, A, B, R) = `HsuShiueParams.integer_form`; one Fraction per
    coefficient.
    """
    d, a, b, r = params.integer_form()
    scale = d**n
    out = []
    for k, c in enumerate(coeffs):
        factor = 1
        for j in range(n):
            factor *= k * b + r - j * a
        out.append(Fraction(c.numerator * factor, c.denominator * scale))
    return out


def verify_eq1_poly(n: int, f: PolyQ, params: HsuShiueParams) -> CheckReport:
    """Operator route vs derivative expansion for a polynomial test function.

    LHS: n applications on the coefficients f_j of f.  RHS: the coefficients
    f_j sum_k S(n,k) beta^k (j)_k of the expansion, read off the cached
    table's row n.  Polynomials are dense in the identities actually used
    downstream, so exact agreement here (plus linearity) is the meaningful
    machine-checkable slice.
    """
    coeffs = f.coeffs or (Fraction(0),)
    rpt = CheckReport(id="EQ1", params={"n": n, "f": list(f.coeffs), "params": params})
    lhs = apply_operator(coeffs, params, n)
    row = cached_table(params, n).row(n)
    rhs = [
        c * sum(s * params.beta**k * perm(j, k) for k, s in enumerate(row))
        for j, c in enumerate(coeffs)
    ]
    return rpt.compare_each(zip(count(), lhs, rhs), "x^{}: operator {} != expansion {}")


def _binomials(m: int, order: int) -> list[int]:
    """C(m-1+k, k) for k = 0..order, each from the last by the ratio (m-1+k)/k.

    c_(k-1) * (m-1+k) = k * c_k, so the floor division is exact for every
    integer m, negative ones included: one product per coefficient.
    """
    out = [1]
    for k in range(1, order + 1):
        out.append(out[-1] * (m - 1 + k) // k)
    return out


def _composition(
    n: int, m: int, sign: int, params: HsuShiueParams, order: int
) -> list[Fraction]:
    """(1 - sign*x)^(-m) * w_n^(m)(sign*x/(1 - sign*x)) through x^order, the closed side.

    With y = sign*x, each term w_k y^k (1 - y)^(-k) times (1 - y)^(-m) is
    w_k y^k (1 - y)^(-(m+k)), so by the binomial theorem

        [x^N] = sign^N sum_{k <= N} w_k C(m+N-1, N-k),

    w_k the integer numerators of `geometric_poly` over its one denominator.
    C is the generalized binomial, C(t, j) = (-1)^j C(j-t-1, j) for t < 0,
    so m + k <= 0, where (1 - y)^(-(m+k)) is a polynomial, is the same sum.
    An integer double loop of O(n * order) terms and one Fraction per
    coefficient; it reads neither `_binomials` nor the factorials of the
    other sides.
    """
    w = geometric_poly(n, m, params)
    out = []
    for big_n in range(order + 1):
        top = m + big_n - 1
        acc = 0
        for k, c in enumerate(w.nums[: big_n + 1]):
            j = big_n - k
            acc += c * (comb(top, j) if top >= 0 else (-1) ** j * comb(j - top - 1, j))
        out.append(Fraction(sign**big_n * acc, w.den))
    return out


# which -> (report id, (m, sign) of the composition as a function of s)
_SERIES_IDS = {
    "eq5": ("EQ5", lambda s: (s + 1, 1)),
    "eq21": ("EQ21", lambda s: (1, 1)),
    "eq38_binomial": ("EQ38", lambda s: (-s, -1)),
}


def verify_series_identity(
    which: str, n: int, s: int, params: HsuShiueParams, order: int
) -> CheckReport:
    """Termwise factorial sums vs generating-function composition.

    Each id checks the one series transformation

        sum_k sign^k <m>_k/k! (r + k*beta|alpha)_n x^k
            == (1 - sign*x)^(-m) * w_n^(m)(sign*x/(1 - sign*x))

    with <m>_k/k! = C(m-1+k, k), at the (m, sign) of `which`:

        "eq5":            (s + 1, 1), sum_k C(s+k,k) (r+k*beta|alpha)_n x^k
        "eq21":           (1, 1), the s = 0 slice of EQ5
        "eq38_binomial":  (-s, -1), sum_k C(s,k) (r+k*beta|alpha)_n x^k,
                          since (-1)^k C(k-s-1, k) = C(s, k)

    EQ21 echoes ``s`` in its report but does not use it.
    """
    if which not in _SERIES_IDS:
        raise ValueError(f"unknown identity {which!r}; expected one of {tuple(_SERIES_IDS)}")
    as_size(order, "order", as_size(n))
    rid, m_sign = _SERIES_IDS[which]
    m, sign = m_sign(as_size(s, "s"))
    rpt = CheckReport(id=rid, params={"n": n, "s": s, "params": params, "order": order})
    tail = _binomials(m, order)
    if sign < 0:  # sign^k C(m-1+k, k)
        tail[1::2] = [-c for c in tail[1::2]]
    lhs = _factorial_weights(tail, params, n)
    rhs = _composition(n, m, sign, params, order)
    return rpt.compare_each(zip(count(), lhs, rhs), "[x^{}]: termwise {} != composition {}")


def verify_eq4_operator(n: int, s: int, params: HsuShiueParams, order: int) -> CheckReport:
    """Operator route for the binomial-tail test function sum_k C(s+k,k) x^k.

    n applications multiply C(s+k,k) by (k*beta + r|alpha)_n, which is
    EQ5's termwise side, so this is `verify_series_identity("eq5", ...)`.
    """
    return verify_series_identity("eq5", n, s, params, order)


def verify_eq15(n: int, params: HsuShiueParams, order: int) -> CheckReport:
    """Operator action on the scaled exponential vs its polynomial closed form.

    n applications on x^(r/beta) e^(x/beta) must reproduce, gradedwise, the
    convolution e^(x/beta) * S_n(x).  Coefficientwise this is the exact
    Dobinski-style expansion [x^k] e^(x/beta) S_n(x) = (k*beta + r|alpha)_n /
    (beta^k k!), so the EQ16_EXACT record runs this check too.
    """
    if params.beta == 0:
        raise ValueError("beta must be nonzero")
    rpt = CheckReport(id="EQ15", params={"n": n, "params": params, "order": order})
    exp_over_beta = binom_deform(0, 1 / params.beta, order)
    lhs = apply_operator(exp_over_beta.coeffs, params, n)
    rhs = exp_over_beta * exp_poly(n, params).to_series(order)
    return rpt.compare_each(
        zip(count(), lhs, rhs.coeffs), "[x^{}]: operator {} != convolution {}"
    )
