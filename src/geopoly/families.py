"""Polynomial families and the closed-form identities between them.

Explicit constructors for the generalized exponential polynomials
S_n(x) = sum_k S(n,k) x^k, the order-m generalized geometric polynomials

    w_n^(m)(x; alpha, beta, r) = sum_k S(n,k) <m>_k beta^k x^k

(with <m>_k the rising factorial, so negative orders come through the same
code path via <-s>_k = (-1)^k (s)_k), plus the classical and degenerate
Bernoulli/Euler families extracted from their generating functions.  The
classical order-s Euler polynomial value E_n^(s)(x) is
`degenerate_euler(n, s, 0, x)`.

Every Stirling-weighted closed side is written once, as one of two forms
of w_n^(m): its value at a point, read by `geometric_at` from one integer
table row, or a scalar times

    I_n^(m)(alpha, beta, r) = integral_{-1}^{0} w_n^(m)(x; alpha, beta, r) dx.

The integral turns x^k into (-1)^k/(k+1), and <s>_{k+1} = s <s+1>_k and
(m)_{k+1} = m (-1)^k <1-m>_k move a shifted weight onto the order, so

    EQ3_VS_GF8 (EQ19)             w_n^(s)(x; alpha, beta, r)
    EQ10 (EQ27)                   w_n^(s)(-1/2; alpha, 1, r)
    EQ14                          E_n(0) = w_n^(1)(-1/2; 0, 1, 0) and B_n = I_n^(1)(0, 1, 0)
    EQ34_THM2                     I_n^(1)(alpha, 1, r)
    EQ29                          (n+1) s I_n^(s+1)(alpha, 1, r)
    EQ31 (EQ32, EQ33)             I_n^(alpha+1)(alpha, 1, r)
    COR2                          r I_n^(r+1)(alpha, 1, r)
    EQ37_CORRECTED                (n+1) s I_n^(s+1)(0, beta, r) / beta^n
    COR4                          B_{n+1} + (n+1) r I_n^(r+1)(0, 1, r)
    COR5_CORRECTED                m I_n^(1-m)(0, beta, r)
    MINUS_ONE, FUBINI, BPA        w_n^(m)(-1) and w_n^(m)(1)

and the printed EQ37 and COR5 variants divide by one more beta.  An id
in parentheses is a registry record that runs the check of the id before
it: at s = 1, or at r = 0 or r = alpha.  A check names its own form; the
registry gives each report its record's id.  EQ7_GAMMA is the one
other closed side: `check_gamma_moments` writes w_n^(s)(x) as the gamma
moments of `exp_poly`, not through these forms.  The integrals go through
the polynomial `geometric_poly`, integer numerators over one
denominator, and `PolyQ.integral` runs on those integers.  Both forms,
and `geometric_rows`, which gives w_0..w_n at a point as integer pairs
for `spivey_step`, take their weights <m>_k c^k from the one `_weights`,
so the definition of w is written once.  Only the closed sides read
these; the oracles do not.

Every closed-form identity ships with an independent oracle: generating
function coefficient extraction, direct summation, or (in the tests)
exhaustive enumeration.  A CheckReport never compares a formula against
itself.  Where a printed closed form disagrees with its oracle, both forms
are implemented: the corrected one as the shipped result and the original
as a must-fail regression (`exponent="printed"` variants below).

The four value wrappers, `eval_minus_one`, `degenerate_euler`,
`degenerate_bernoulli2` and `howard_power_sum`, return a closed form that
they compare against its oracle on every call, raising ArithmeticError on
a mismatch.  Each shares one `_*_sides` function with its `check_*`
counterpart, so the closed form and the oracle are written once and the
check reports the same comparison as a CheckReport.  The registry calls
the checks, not the wrappers: the wrappers are the API for a value.
"""

from __future__ import annotations

from fractions import Fraction
from itertools import count
from math import comb, factorial, perm
from operator import mul

from .exact import RationalLike, as_rational, as_size, gen_factorial
from .memo import CACHE_CAP, Memo
from .params import HsuShiueParams
from .polynomials import PolyQ
from .report import PASS, CheckReport, fmt_rational
from .series import (
    binom_deform,
    gf_bernoulli2_degenerate,
    gf_carlitz_beta,
    gf_degenerate_euler,
    gf_w,
)
from .stirling import StirlingTable, cached_table


def _agreed(closed: Fraction, oracle: Fraction, what: str) -> Fraction:
    """The value-function rule: ``closed`` only once its oracle agrees."""
    if closed != oracle:
        raise ArithmeticError(
            f"{what}: closed form {fmt_rational(closed)} != oracle {fmt_rational(oracle)}"
        )
    return closed


# ---------------------------------------------------------------------------
# Polynomial constructors
# ---------------------------------------------------------------------------


def exp_poly(n: int, params: HsuShiueParams) -> PolyQ:
    """Generalized exponential polynomial S_n(x) = sum_k S(n,k) x^k."""
    table = cached_table(params, n)
    return PolyQ(table.rows[n], table.dens[n])


def _weights(m: Fraction, c: Fraction, n: int) -> tuple[list[int], int]:
    """The weights <m>_k c^k, k = 0..n, as integers over one denominator E^n.

    With E = den(m) den(c), weight k is the integer <m>_k c^k E^k times
    E^(n-k).  The one definition of w_n^(m): `geometric_poly` reads it at
    c = beta for the coefficients, `geometric_rows` at c = beta*x for the
    values.
    """
    m_num, m_den, c_num = m.numerator, m.denominator, c.numerator  # Fraction properties, read once
    out, num = [], 1
    for k in range(n + 1):
        out.append(num)
        num *= (m_num + k * m_den) * c_num
    step, scale = m_den * c.denominator, 1
    for k in range(n, -1, -1):
        out[k] *= scale  # scale = E^(n-k)
        scale *= step
    return out, step**n


def geometric_poly(n: int, order_m: RationalLike, params: HsuShiueParams) -> PolyQ:
    """Order-m generalized geometric polynomial w_n^(m).

    Coefficient k is the table's integer T(n,k) times the `_weights`
    integer for <m>_k beta^k, over dens[n] times the weights' one
    denominator; no Fraction.
    """
    table = cached_table(params, n)
    weights, den = _weights(as_rational(order_m), params.beta, n)
    return PolyQ(list(map(mul, table.rows[n], weights)), table.dens[n] * den)


def geometric_rows(
    n: int,
    order_m: RationalLike,
    x: RationalLike,
    params: HsuShiueParams,
    first: int = 0,
    table: StirlingTable | None = None,
) -> list[tuple[int, int]]:
    """w_k^(m)(x) for k = first..n, each as an integer numerator and denominator.

    w_k^(m)(x) = sum_i S(k,i) <m>_i (beta x)^i, so every row k is one
    integer dot product of the table row T(k, .) with the `_weights` vector
    at c = beta x, over dens[k] times the weights' one denominator E^n.  No
    Fraction is built; ``first = n`` reads the single row n, O(n) cells.
    ``table``, a table of ``params`` with n_max >= n that the caller has
    already read, replaces the `cached_table` read.
    """
    if table is None:
        table = cached_table(params, n)
    vec, den = _weights(as_rational(order_m), params.beta * as_rational(x), n)
    return [(sum(map(mul, table.rows[k], vec)), table.dens[k] * den) for k in range(first, n + 1)]


def geometric_at(
    n: int, order_m: RationalLike, x: RationalLike, params: HsuShiueParams
) -> Fraction:
    """w_n^(m)(x), from the single integer row n: one dot product, one Fraction."""
    return Fraction(*geometric_rows(n, order_m, x, params, first=n)[0])


def _integral(n: int, order_m: RationalLike, params: HsuShiueParams) -> Fraction:
    """I_n^(m) = integral_{-1}^{0} w_n^(m)(x) dx."""
    return geometric_poly(n, order_m, params).integral(-1, 0)


def _minus_one_sides(
    n: int, order_m: RationalLike, params: HsuShiueParams
) -> tuple[Fraction, Fraction]:
    """w_n^(m)(-1) and (r - beta*m | alpha)_n.

    They agree for every rational m: the Hsu-Shiue relation
    (t | alpha)_n = sum_k S(n,k) (t - r | beta)_k at t = r - beta*m, where
    (-beta*m | beta)_k = (-beta)^k <m>_k.
    """
    m = as_rational(order_m)
    return (
        geometric_at(n, m, -1, params),
        gen_factorial(params.r - params.beta * m, params.alpha, n),
    )


def eval_minus_one(n: int, order_m: RationalLike, params: HsuShiueParams) -> Fraction:
    """w_n^(m)(-1), which collapses to (r - beta*m | alpha)_n for every rational m."""
    return _agreed(*_minus_one_sides(n, order_m, params), f"w_{n}^({order_m})(-1)")


def check_minus_one(n: int, s: int, params: HsuShiueParams) -> CheckReport:
    """Polynomial evaluation at -1 vs the generalized-factorial collapse."""
    rpt = CheckReport(id="MINUS_ONE", params={"n": n, "s": s, "params": params})
    return rpt.compare(*_minus_one_sides(n, s, params), "w(-1) = {} != {}")


def check_gf_matches(n: int, s: int, x: RationalLike, params: HsuShiueParams) -> CheckReport:
    """n! [t^n] of the order-s EGF vs the explicit rising-factorial sum."""
    as_size(s, "s", 1)
    x = as_rational(x)
    rpt = CheckReport(id="EQ3_VS_GF8", params={"n": n, "s": s, "x": x, "params": params})
    formula = geometric_at(n, s, x, params)
    return rpt.compare(gf_w(params, s, x, n).egf_coeff(n), formula, "gf {} != formula {}")


def check_gamma_moments(n: int, s: int, x: RationalLike, params: HsuShiueParams) -> CheckReport:
    """n! [t^n] of the order-s EGF vs the gamma-moment form EQ7 of w_n^(s)(x).

    w_n^(s)(x) = integral_0^inf z^(s-1) e^-z S_n(beta x z) dz / (s-1)!, and
    the moment integral_0^inf z^(s-1+k) e^-z dz / (s-1)! is (s-1+k)!/(s-1)!,
    so the form is sum_k [x^k] S_n(x) (s-1+k)!/(s-1)! (beta x)^k, with S_n
    from `exp_poly`.
    """
    as_size(s, "s", 1)
    x = as_rational(x)
    rpt = CheckReport(id="EQ7_GAMMA", params={"n": n, "s": s, "x": x, "params": params})
    poly, bx = exp_poly(n, params), params.beta * x
    moments = sum((Fraction(c * perm(s - 1 + k, k), poly.den) * bx**k
                   for k, c in enumerate(poly.nums)), Fraction(0))
    return rpt.compare(gf_w(params, s, x, n).egf_coeff(n), moments, "gf {} != gamma moments {}")


def spivey_step(n: int, m: int, s: int, x: RationalLike, params: HsuShiueParams) -> Fraction:
    """w_{n+m}^(s)(x) assembled from lower-index values.

    Double sum over k <= n, j <= m of
    C(n,k) S(m,j) (j*beta - m*alpha | alpha)_{n-k} <s>_j beta^j x^j w_k^(s+j)(x).
    The <s>_j weight (paired with w^(s+j)) is the convention under which the
    recurrence is an identity; tests pin it against geometric_poly.

    The table of rows 0..max(n, m) is read once, and each order s+j hands
    it to `geometric_rows` for w_0..w_n at x, row k over D^k E^n, with
    (D, A, B, R) = `params.integer_form()` and E^n the denominator of the
    `_weights`, the same for every j because s+j has the denominator of s.
    The generalized factorial is a running integer product over D^(n-k),
    so every term of the k-sum is over D^n E^n, the denominator of row n,
    and every j-term over dens[m] E^m D^n E^n: the whole double sum runs on
    integers and builds one Fraction.
    """
    x, order = as_rational(x), as_rational(s)
    _, step_a, step_b, _ = params.integer_form()
    table = cached_table(params, max(as_size(n), as_size(m, "m")))
    weights, den = _weights(order, params.beta * x, m)
    total, rows_den = 0, 1
    for j, cell in enumerate(table.rows[m]):
        outer = cell * weights[j]  # S(m,j) <s>_j (beta x)^j over dens[m] E^m
        if not outer:
            continue
        falls, fall, top = [], 1, j * step_b - m * step_a
        for i in range(n + 1):
            falls.append(fall)
            fall *= top - i * step_a
        rows = geometric_rows(n, order + j, x, params, table=table)
        total += outer * sum(comb(n, k) * falls[n - k] * num for k, (num, _) in enumerate(rows))
        rows_den = rows[n][1]  # D^n E^n for every j
    return Fraction(total, table.dens[m] * den * rows_den)


def check_spivey(n: int, m: int, s: int, x: RationalLike, params: HsuShiueParams) -> CheckReport:
    rpt = CheckReport(id="SPIVEY", params={"n": n, "m": m, "s": s, "x": x, "params": params})
    lhs = spivey_step(n, m, s, x, params)
    return rpt.compare(lhs, geometric_poly(n + m, s, params)(x), "recurrence {} != direct {}")


# ---------------------------------------------------------------------------
# Classical Bernoulli / Euler via generating functions
# ---------------------------------------------------------------------------


@Memo(CACHE_CAP).prefix
def bernoulli_numbers(n_max: int) -> tuple[Fraction, ...]:
    """B_0..B_n_max, extracted from the t/(e^t - 1) series."""
    gf = gf_carlitz_beta(0, 0, n_max)
    return tuple(gf.egf_coeff(n) for n in range(n_max + 1))


def bernoulli_number(n: int) -> Fraction:
    return bernoulli_numbers(n)[n]


def bernoulli_poly(n: int) -> PolyQ:
    """Classical B_n(x), binomially expanded from gf-extracted numbers."""
    nums = bernoulli_numbers(n)
    return PolyQ.from_coeffs([comb(n, k) * nums[n - k] for k in range(n + 1)])


def check_eq14(n_max: int) -> CheckReport:
    """Bernoulli numbers and E_n(0) as signed weighted partition-number sums.

    B_n = sum_k (-1)^k k!/(k+1) {n k} = I_n^(1)(0, 1, 0) and
    E_n(0) = sum_k (-1)^k k!/2^k {n k} = w_n^(1)(-1/2; 0, 1, 0),
    both checked against gf-extracted classical values.
    """

    params = HsuShiueParams(0, 1, 0)
    # build each sequence once, at n_max, so that the reads per n below hit
    cached_table(params, n_max)
    bernoulli_numbers(n_max)
    _degenerate_euler_values(1, 0, 0, n_max)

    def cases():
        for n in range(n_max + 1):
            yield f"B_{n}", _integral(n, 1, params), bernoulli_number(n)
            euler = _degenerate_euler_values(1, 0, 0, n)[n]
            yield f"E_{n}(0)", geometric_at(n, 1, Fraction(-1, 2), params), euler

    rpt = CheckReport(id="EQ14", params={"n_max": n_max})
    return rpt.compare_each(cases(), "{}: sum {} != gf {}")


# ---------------------------------------------------------------------------
# Degenerate families: values and identity checks
# ---------------------------------------------------------------------------


@Memo(CACHE_CAP).prefix
def _degenerate_euler_values(
    s: int, alpha: Fraction, r: Fraction, n_max: int
) -> tuple[Fraction, ...]:
    gf = gf_degenerate_euler(s, alpha, r, n_max)
    return tuple(gf.egf_coeff(n) for n in range(n_max + 1))


def _degenerate_euler_sides(
    n: int, s: int, alpha: Fraction, r: Fraction
) -> tuple[Fraction, Fraction]:
    """w_n^(s)(-1/2; alpha,1,r) and n! [t^n] of its EGF, one series per prefix growth."""
    closed = geometric_at(n, s, Fraction(-1, 2), HsuShiueParams(alpha, 1, r))
    return closed, _degenerate_euler_values(s, alpha, r, n)[n]


def degenerate_euler(n: int, s: int, alpha: RationalLike, r: RationalLike) -> Fraction:
    """Order-s degenerate Euler polynomial value at r, checked against its EGF."""
    alpha, r = as_rational(alpha), as_rational(r)
    return _agreed(*_degenerate_euler_sides(n, s, alpha, r), f"degenerate Euler n={n}")


def check_degenerate_euler(n: int, s: int, alpha: RationalLike, r: RationalLike) -> CheckReport:
    """Weighted Stirling sum vs EGF coefficient for the order-s family."""
    alpha, r = as_rational(alpha), as_rational(r)
    rpt = CheckReport(id="EQ10", params={"n": n, "s": s, "alpha": alpha, "r": r})
    return rpt.compare(*_degenerate_euler_sides(n, s, alpha, r), "sum {} != gf {}")


def _degenerate_bernoulli2_sides(
    n: int, alpha: Fraction, r: Fraction
) -> tuple[Fraction, Fraction]:
    """I_n^(1)(alpha,1,r) and n! [t^n] of its EGF."""
    closed = _integral(n, 1, HsuShiueParams(alpha, 1, r))
    return closed, gf_bernoulli2_degenerate(alpha, r, n).egf_coeff(n)


def degenerate_bernoulli2(n: int, alpha: RationalLike, r: RationalLike) -> Fraction:
    """Second-kind degenerate Bernoulli value B_n(r|alpha), checked against its EGF."""
    alpha, r = as_rational(alpha), as_rational(r)
    return _agreed(*_degenerate_bernoulli2_sides(n, alpha, r), f"second-kind B_{n}(r|alpha)")


def check_theorem2(n: int, alpha: RationalLike, r: RationalLike) -> CheckReport:
    """B_n(r|alpha) = sum_k S(n,k;alpha,1,r) (-1)^k k!/(k+1) vs the EGF."""
    alpha, r = as_rational(alpha), as_rational(r)
    rpt = CheckReport(id="EQ34_THM2", params={"n": n, "alpha": alpha, "r": r})
    return rpt.compare(*_degenerate_bernoulli2_sides(n, alpha, r), "sum {} != gf {}")


def carlitz_beta(n: int, alpha: RationalLike, x: RationalLike) -> Fraction:
    """Degenerate Bernoulli polynomial beta_n(alpha, x) from its EGF."""
    return gf_carlitz_beta(alpha, x, n).egf_coeff(n)


def check_theorem3(n: int, s: RationalLike, alpha: RationalLike, r: RationalLike) -> CheckReport:
    """Difference of consecutive-shift Carlitz values vs weighted Stirling sum.

    beta_{n+1}(alpha, r) - beta_{n+1}(alpha, r-s)
        = (n+1) sum_k S(n,k;alpha,1,r) (-1)^k <s>_{k+1} / (k+1)
        = (n+1) s I_n^(s+1)(alpha, 1, r),
    with the left side from the EGF oracle.  The s=1 slice also collapses to
    (n+1)(r-1|alpha)_n, checked when it applies.  The report echoes s as given.
    """
    alpha, r = as_rational(alpha), as_rational(r)
    rpt = CheckReport(id="EQ29", params={"n": n, "s": s, "alpha": alpha, "r": r})
    s = as_rational(s)
    lhs = carlitz_beta(n + 1, alpha, r) - carlitz_beta(n + 1, alpha, r - s)
    rhs = (n + 1) * s * _integral(n, s + 1, HsuShiueParams(alpha, 1, r))
    if rpt.compare(lhs, rhs, "lhs {} != rhs {}").status == PASS and s == 1:
        reduced = (n + 1) * gen_factorial(r - 1, alpha, n)
        rpt.compare(reduced, lhs, "s=1 reduction {} != {}")
    return rpt


def check_corollary2(n: int, r: int, alpha: RationalLike) -> CheckReport:
    """Sums of generalized falling factorials vs the weighted Stirling sum.

    sum_{j=0}^{r-1} (j|alpha)_n on the direct-summation side, and
    sum_k S(n,k;alpha,1,r) (-1)^k <r>_{k+1}/(k+1) = r I_n^(r+1)(alpha, 1, r)
    on the closed side.
    """
    as_size(r, "r", 1)
    alpha = as_rational(alpha)
    rpt = CheckReport(id="COR2", params={"n": n, "r": r, "alpha": alpha})
    direct = sum(gen_factorial(j, alpha, n) for j in range(r))
    closed = r * _integral(n, r + 1, HsuShiueParams(alpha, 1, r))
    return rpt.compare(direct, closed, "direct {} != closed {}")


def check_corollary3(n: int, alpha: RationalLike, r: RationalLike) -> CheckReport:
    """beta_n(alpha, r-alpha) = sum_k S(n,k;alpha,1,r) (-1)^k <alpha+1>_k/(k+1),
    which is I_n^(alpha+1)(alpha, 1, r).

    The r = 0 and r = alpha corners (EQ32, EQ33) are the same formula; the
    left side comes from the EGF oracle.
    """
    alpha, r = as_rational(alpha), as_rational(r)
    rpt = CheckReport(id="EQ31", params={"n": n, "alpha": alpha, "r": r})
    lhs = carlitz_beta(n, alpha, r - alpha)
    rhs = _integral(n, alpha + 1, HsuShiueParams(alpha, 1, r))
    return rpt.compare(lhs, rhs, "lhs {} != rhs {}")


# ---------------------------------------------------------------------------
# Bernoulli values at rationals (Theorem 4 shape) and Howard power sums
# ---------------------------------------------------------------------------


# exponent -> the extra power of beta by which the printed EQ37 and COR5 divide
_BETA_SHIFT = {"corrected": 0, "printed": 1}


def _beta_shift(exponent: str) -> int:
    if exponent not in _BETA_SHIFT:
        raise ValueError(f"exponent must be 'corrected' or 'printed', got {exponent!r}")
    return _BETA_SHIFT[exponent]


def check_theorem4(
    n: int, s: RationalLike, beta: RationalLike, r: RationalLike, exponent: str = "corrected"
) -> CheckReport:
    """Bernoulli-polynomial differences at rational points vs r-Whitney sums.

    B_{n+1}(r/beta) - B_{n+1}(r/beta - s) against
    (n+1) sum_k W_{beta,r}(n,k) (-1)^k <s>_{k+1} / (beta^e (k+1)).
    The shipped exponent is e = n-k, which makes the sum
    (n+1) s I_n^(s+1)(0, beta, r) / beta^n; exponent="printed" selects the
    e = n+1-k variant, one more division by beta, kept as a must-fail
    regression (witness n=1, s=1, beta=2, r=1).  The report echoes s as given.
    """
    shift = _beta_shift(exponent)
    beta, r = as_rational(beta), as_rational(r)
    if beta == 0:
        raise ValueError("beta must be nonzero")
    rpt = CheckReport(id=f"EQ37_{exponent.upper()}", params={"n": n, "s": s, "beta": beta, "r": r})
    s = as_rational(s)
    bpoly = bernoulli_poly(n + 1)
    lhs = bpoly(r / beta) - bpoly(r / beta - s)
    rhs = (n + 1) * s * _integral(n, s + 1, HsuShiueParams(0, beta, r)) / beta ** (n + shift)
    return rpt.compare(lhs, rhs, "lhs {} != rhs {}")


def check_corollary4(n: int, r: int) -> CheckReport:
    """Bernoulli polynomials at nonnegative integers via r-separated partitions.

    B_{n+1}(r) = B_{n+1} + sum_k (-1)^k (n+1)/(k+1) {n+r k+r}_r <r>_{k+1}
               = B_{n+1} + (n+1) r I_n^(r+1)(0, 1, r).
    """
    as_size(r, "r")
    rpt = CheckReport(id="COR4", params={"n": n, "r": r})
    lhs = bernoulli_poly(n + 1)(r)
    rhs = bernoulli_number(n + 1) + (n + 1) * r * _integral(n, r + 1, HsuShiueParams(0, 1, r))
    return rpt.compare(lhs, rhs, "lhs {} != rhs {}")


def _howard_sides(
    n: int, m: int, beta: Fraction, r: Fraction, weight_shift: int = 0
) -> tuple[Fraction, Fraction]:
    """The r-Whitney closed form of sum_{j=0}^{m-1} (r + beta*j)^n, and that sum.

    Closed form sum_k beta^(k - weight_shift)/(k+1) W_{beta,r}(n,k) (m)_{k+1},
    which is m I_n^(1-m)(0, beta, r) / beta^weight_shift: weight_shift 0 is
    the shipped beta^k weight, 1 the printed beta^(k-1).
    """
    as_size(m, "m", 1)
    if beta == 0:
        raise ValueError("beta must be nonzero")
    closed = m * _integral(n, 1 - m, HsuShiueParams(0, beta, r)) / beta**weight_shift
    return closed, sum((r + beta * j) ** n for j in range(m))


def howard_power_sum(n: int, m: int, beta: RationalLike, r: RationalLike) -> Fraction:
    """sum_{j=0}^{m-1} (r + beta*j)^n via the r-Whitney closed form.

    Uses the beta^k weight (the variant that matches the oracle), checked
    against the direct sum.
    """
    beta, r = as_rational(beta), as_rational(r)
    return _agreed(*_howard_sides(n, m, beta, r), f"power sum n={n}, m={m}")


def check_corollary5(
    n: int, m: int, beta: RationalLike, r: RationalLike, exponent: str = "corrected"
) -> CheckReport:
    """Howard-style power sum vs its closed form; printed variant must fail.

    Shipped weight beta^k; exponent="printed" selects beta^(k-1), kept as a
    regression (witness n=1, m=1, beta=2, r=1: 1/2 vs 1).
    """
    shift = _beta_shift(exponent)
    beta, r = as_rational(beta), as_rational(r)
    rpt = CheckReport(id=f"COR5_{exponent.upper()}", params={"n": n, "m": m, "beta": beta, "r": r})
    closed, direct = _howard_sides(n, m, beta, r, shift)
    return rpt.compare(direct, closed, "direct {} != closed {}")


# ---------------------------------------------------------------------------
# Series-shaped exact identities
# ---------------------------------------------------------------------------


def check_dobinski(n: int, params: HsuShiueParams, order_x: int) -> CheckReport:
    """Coefficientwise form of the exponential-weighted expansion.

    [x^k] of e^{x/beta} * S_n(x) must equal (k*beta+r|alpha)_n/(beta^k k!)
    for every k <= order_x; this is exact, no truncation error involved.
    """
    if params.beta == 0:
        raise ValueError("beta must be nonzero")
    rpt = CheckReport(id="EQ16_EXACT", params={"n": n, "params": params, "order_x": order_x})
    exp_over_beta = binom_deform(0, 1 / params.beta, order_x)
    lhs = exp_over_beta * exp_poly(n, params).to_series(order_x)
    a, b, r = params.alpha, params.beta, params.r
    expected = (gen_factorial(k * b + r, a, n) / (b**k * factorial(k)) for k in range(order_x + 1))
    return rpt.compare_each(zip(count(), lhs.coeffs, expected), "[x^{}]: {} != {}")


def bpa_number(n: int, s: int, params: HsuShiueParams) -> Fraction:
    """Generalized barred-arrangement number: w_n^(s+1) evaluated at x=1."""
    return geometric_at(n, s + 1, 1, params)
