"""The slotted records keep a dataclass's value semantics."""

import copy
import pickle
from fractions import Fraction as F

import pytest

from geopoly.analytic import EvalConfig
from geopoly.params import HsuShiueParams
from geopoly.polynomials import PolyQ
from geopoly.report import CheckReport
from geopoly.series import PowerSeries

FROZEN = [
    lambda: HsuShiueParams(F(1, 2), 3, -2),
    lambda: EvalConfig(128),
    lambda: PowerSeries((F(1), F(-1, 3))),
    lambda: PolyQ((14, 0, 5), 7),
]


@pytest.mark.parametrize("make", FROZEN, ids=lambda f: type(f()).__name__)
def test_frozen_records_are_values(make):
    a, b = make(), make()
    assert a == b and hash(a) == hash(b) and a is not b
    assert {a: 1}[b] == 1
    assert a != object() and a != tuple(getattr(a, f) for f in a.__slots__)
    for field in a.__slots__:
        with pytest.raises(AttributeError):
            setattr(a, field, None)
        with pytest.raises(AttributeError):
            delattr(a, field)
    with pytest.raises(AttributeError):
        a.extra = 1
    for twin in (copy.copy(a), copy.deepcopy(a), pickle.loads(pickle.dumps(a))):
        assert twin == a and type(twin) is type(a)


def test_record_reprs():
    assert repr(EvalConfig(128)) == "EvalConfig(precision_bits=128)"
    assert repr(PowerSeries((F(1),))) == "PowerSeries(coeffs=(Fraction(1, 1),))"
    assert repr(HsuShiueParams(F(1, 2), 3, -2)) == "HsuShiueParams(1/2, 3, -2)"


def test_check_report_is_a_mutable_unhashable_record():
    a, b = CheckReport(id="T"), CheckReport(id="T")
    assert a == b and a.params is not b.params and a.detail is not b.detail
    assert repr(a) == (
        "CheckReport(id='T', params={}, status='pass', witness=None, tolerance='exact', detail={})"
    )
    a.compare(F(1), F(2), "{} != {}")
    assert (a.status, a.witness) == ("fail", "1 != 2") and a != b
    with pytest.raises(TypeError):
        hash(a)
    assert pickle.loads(pickle.dumps(a)) == a
