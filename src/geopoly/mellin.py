"""Formal action of the weighted derivative (beta * x^(1-alpha/beta) * D)^n.

On the graded monomial x^((k*beta + r)/beta) one application multiplies by
(k*beta + r - m*alpha) where m counts prior applications, so n applications
accumulate the generalized factorial (k*beta + r | alpha)_n and lower the
carried prefactor exponent from (r - m*alpha)/beta to (r - (m+n)*alpha)/beta.
A :class:`GradedSeries` tracks that prefactor structurally (params plus an
application counter); coefficients stay plain rationals, so nothing here
ever needs fractional powers of the series variable.

The verifiers expand both sides of the operator identities over this graded
basis: the operator route on the left, and on the right either the
derivative expansion sum_k S(n,k) beta^k x^k f^(k)(x) or a closed
generating-function composition.
"""

from __future__ import annotations

from fractions import Fraction
from itertools import count
from typing import NamedTuple

from .exact import as_size, binomial_general, gen_factorial
from .families import geometric_poly, exp_poly
from .params import HsuShiueParams
from .polynomials import PolyQ
from .report import CheckReport
from .series import PowerSeries, binom_deform, divide, inverse, pow_int
from .stirling import cached_table


class GradedSeries(NamedTuple):
    """Coefficients c_k of x^(k + (r - m*alpha)/beta) after m applications."""

    params: HsuShiueParams
    applications: int
    coeffs: tuple[Fraction, ...]

    @property
    def order(self) -> int:
        return len(self.coeffs) - 1

    def coeff(self, k: int) -> Fraction:
        return self.coeffs[k]


def embed_series(ps: PowerSeries, params: HsuShiueParams) -> GradedSeries:
    """x^(r/beta) * ps(x) as a fresh graded series."""
    if params.beta == 0:
        raise ValueError("beta must be nonzero for the graded embedding")
    return GradedSeries(params, 0, tuple(ps.coeffs))


def embed_poly(f: PolyQ, params: HsuShiueParams, order: int) -> GradedSeries:
    return embed_series(f.to_series(order), params)


def apply_operator(gs: GradedSeries, times: int) -> GradedSeries:
    """Apply the weighted derivative `times` more times.

    Coefficient k gains prod_{j<times}(k*beta + r - (m+j)*alpha), computed
    as the integer product prod_j(kB + R - (m+j)A) over D^times, with
    (D, A, B, R) = `HsuShiueParams.integer_form`; one Fraction per
    coefficient.  The loop is kept here, apart from `exact.gen_factorial`,
    which the termwise sides of EQ5 call.
    """
    as_size(times, "times")
    p = gs.params
    d, a, b, r = p.integer_form()
    m = gs.applications
    scale = d**times
    coeffs = []
    for k, c in enumerate(gs.coeffs):
        factor = 1
        for j in range(m, m + times):
            factor *= k * b + r - j * a
        coeffs.append(Fraction(c.numerator * factor, c.denominator * scale))
    return GradedSeries(gs.params, m + times, tuple(coeffs))


def verify_eq1_poly(n: int, f: PolyQ, params: HsuShiueParams) -> CheckReport:
    """Operator route vs derivative expansion for a polynomial test function.

    LHS: n applications on the embedding of f.  RHS: the graded embedding of
    sum_k S(n,k) beta^k x^k f^(k)(x) at application count n.  Polynomials are
    dense in the identities actually used downstream, so exact agreement here
    (plus linearity) is the meaningful machine-checkable slice.
    """
    order = max(f.degree, 0)
    rpt = CheckReport(id="EQ1", params={"n": n, "f": list(f.coeffs), "params": params})
    lhs = apply_operator(embed_poly(f, params, order), n)
    table = cached_table(params, n)
    rhs_poly = PolyQ.zero()
    for k in range(n + 1):
        term = f.derivative(k).shift_x(k) * (table.value(n, k) * params.beta**k)
        rhs_poly = rhs_poly + term
    rhs = rhs_poly.to_series(order).coeffs
    return rpt.compare_each(
        zip(count(), lhs.coeffs, rhs), "x^{}: operator {} != expansion {}"
    )


def _binomial_tail_series(s: int, order: int) -> PowerSeries:
    # sum_k C(s+k, k) t^k = (1-t)^(-s-1), built termwise
    return PowerSeries.from_coeffs(
        [binomial_general(s + k, k) for k in range(order + 1)]
    )


def _eq5_composition(n: int, s: int, params: HsuShiueParams, order: int) -> PowerSeries:
    """(1-x)^(-s-1) * w_n^(s+1)(x/(1-x)), the closed side of EQ4 and EQ5."""
    t = PowerSeries.t(order)
    one = PowerSeries.one(order)
    u = divide(t, one - t)  # x/(1-x), valuation 1
    w = geometric_poly(n, s + 1, params)
    return pow_int(inverse(one - t), s + 1) * w.at_series(u)


_SERIES_IDS = {"eq5": "EQ5", "eq21": "EQ21", "eq38_binomial": "EQ38"}


def verify_series_identity(
    which: str, n: int, s: int, params: HsuShiueParams, order: int
) -> CheckReport:
    """Termwise factorial sums vs generating-function composition.

    which = "eq5":  sum_k C(s+k,k) (r+k*beta|alpha)_n x^k
                    == (1-x)^(-s-1) * w_n^(s+1)(x/(1-x))
    which = "eq21": the s = 0 slice of the above
    which = "eq38_binomial":
                    sum_k C(s,k) (r+k*beta|alpha)_n x^k
                    == (1+x)^s * w_n^(-s)(-x/(1+x))
    """
    if which not in _SERIES_IDS:
        raise ValueError(f"unknown identity {which!r}; expected one of {tuple(_SERIES_IDS)}")
    as_size(order, "order", as_size(n))
    a, b, r = params.alpha, params.beta, params.r
    rpt = CheckReport(
        id=_SERIES_IDS[which],
        params={"n": n, "s": s, "params": params, "order": order},
    )
    if which in ("eq5", "eq21"):
        if which == "eq21":
            s = 0
        lhs = [
            binomial_general(s + k, k) * gen_factorial(r + k * b, a, n)
            for k in range(order + 1)
        ]
        rhs = _eq5_composition(n, s, params, order)
    else:  # eq38_binomial
        lhs = [
            binomial_general(s, k) * gen_factorial(r + k * b, a, n)
            for k in range(order + 1)
        ]
        t = PowerSeries.t(order)
        one = PowerSeries.one(order)
        v = divide(-t, one + t)  # -x/(1+x)
        w = geometric_poly(n, -s, params)
        rhs = pow_int(one + t, s) * w.at_series(v)
    return rpt.compare_each(
        zip(count(), lhs, rhs.coeffs), "[x^{}]: termwise {} != composition {}"
    )


def verify_eq4_operator(n: int, s: int, params: HsuShiueParams, order: int) -> CheckReport:
    """Operator route for the binomial-tail test function.

    Applies the operator n times to the embedding of sum_k C(s+k,k) x^k and
    compares with the composition form (1-x)^(-s-1) * w_n^(s+1)(x/(1-x)).
    Distinct from `verify_series_identity("eq5", ...)`, whose left side is
    assembled termwise from generalized factorials instead.
    """
    as_size(order, "order")
    rpt = CheckReport(
        id="EQ4_OPERATOR", params={"n": n, "s": s, "params": params, "order": order}
    )
    lhs = apply_operator(embed_series(_binomial_tail_series(s, order), params), n)
    rhs = _eq5_composition(n, s, params, order)
    return rpt.compare_each(
        zip(count(), lhs.coeffs, rhs.coeffs), "[x^{}]: operator {} != composition {}"
    )


def verify_eq15(n: int, params: HsuShiueParams, order: int) -> CheckReport:
    """Operator action on the scaled exponential vs its polynomial closed form.

    n applications on x^(r/beta) e^(x/beta) must reproduce, gradedwise, the
    convolution e^(x/beta) * S_n(x); coefficientwise this is the same content
    as the exact Dobinski-style expansion, routed through the operator.
    """
    if params.beta == 0:
        raise ValueError("beta must be nonzero")
    rpt = CheckReport(id="EQ15", params={"n": n, "params": params, "order": order})
    exp_over_beta = binom_deform(0, 1 / params.beta, order)
    lhs = apply_operator(embed_series(exp_over_beta, params), n)
    rhs = exp_over_beta * exp_poly(n, params).to_series(order)
    return rpt.compare_each(
        zip(count(), lhs.coeffs, rhs.coeffs), "[x^{}]: operator {} != convolution {}"
    )
