"""Verification report record shared by all identity checks.

A verdict is reached on one of three paths, each written once:
`CheckReport.compare` for one exact equality, `CheckReport.compare_each`
for the first mismatch in a scan of exact cases, and `analytic._verdict`
for a numeric |lhs - rhs| against the configured tolerance.
"""

from __future__ import annotations

from collections.abc import Iterable
from fractions import Fraction
from typing import Any

from .record import Record

PASS = "pass"
FAIL = "fail"
EXPECTED_FAIL_CONFIRMED = "expected_fail_confirmed"

EXACT = "exact"


def fmt_rational(x: Fraction) -> str:
    """Serialize exactly, never as a decimal."""
    x = Fraction(x)
    return str(x.numerator) if x.denominator == 1 else f"{x.numerator}/{x.denominator}"


def _jsonable(value: Any) -> Any:
    if isinstance(value, Fraction):
        return fmt_rational(value)
    if isinstance(value, (list, tuple)):
        return [_jsonable(v) for v in value]
    if isinstance(value, dict):
        return {k: _jsonable(v) for k, v in value.items()}
    if hasattr(value, "alpha") and hasattr(value, "beta") and hasattr(value, "r"):
        return {
            "alpha": fmt_rational(value.alpha),
            "beta": fmt_rational(value.beta),
            "r": fmt_rational(value.r),
        }
    return value


class CheckReport(Record):
    """Outcome of verifying one identity instance.

    Exact checks carry tolerance="exact" and a rational witness on failure;
    numeric checks carry the decimal threshold used and the observed |diff|.
    ``params`` and ``detail`` default to fresh empty dicts.
    """

    __slots__ = ("id", "params", "status", "witness", "tolerance", "detail")

    def __init__(
        self,
        id: str,
        params: dict | None = None,
        status: str = PASS,
        witness: str | None = None,
        tolerance: str = EXACT,
        detail: dict | None = None,
    ) -> None:
        self.id = id
        self.params = {} if params is None else params
        self.status = status
        self.witness = witness
        self.tolerance = tolerance
        self.detail = {} if detail is None else detail

    def ok(self) -> bool:
        return self.status in (PASS, EXPECTED_FAIL_CONFIRMED)

    def compare(self, lhs: Fraction, rhs: Fraction, witness: str) -> "CheckReport":
        """Fail with ``witness`` filled by both sides unless they are equal."""
        return self.compare_each(((lhs, rhs),), witness)

    def compare_each(self, cases: Iterable[tuple], witness: str) -> "CheckReport":
        """Fail at the first case ``(label..., lhs, rhs)`` whose sides differ.

        ``witness`` is filled by that case's labels and both sides.  Cases
        are consumed lazily, so none past the first mismatch is built.
        """
        for case in cases:
            if case[-2] != case[-1]:
                self.status = FAIL
                self.witness = witness.format(
                    *case[:-2], fmt_rational(case[-2]), fmt_rational(case[-1])
                )
                break
        return self

    def to_dict(self) -> dict:
        out = {
            "id": self.id,
            "params": _jsonable(self.params),
            "status": self.status,
            "witness": self.witness,
            "tolerance": self.tolerance,
        }
        if self.detail:
            out["detail"] = _jsonable(self.detail)
        return out
