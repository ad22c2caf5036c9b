"""The result types keep one contract: construction by keyword and by
position, a ``repr`` of the form ``Name(field=value!r, ...)``, equality and
hash by value, and no assignment to a field."""

import pytest

from slindef import (BoundCertificate, DefinitenessReport, DisconjugacyWitness,
                     EigenRecord, LemmaResult, RichardsonReport, ScanResult,
                     StateVector, TrailEntry)
from slindef.spectrum import _Rect

RECORD = dict(re_lambda=1.5, im_lambda=0.0, zeros_in_ab=2,
              weighted_norm=-0.25, residual=1e-12)
SCAN = dict(window=(-1.0, 1.0), tol=1e-9, records=(EigenRecord(**RECORD),),
            n_r_empirical=1, n_h_empirical=None, warnings=("edge band",))
TRAIL = dict(condition="q0 < -pi^2/4", value=-10.0, passed=True)

CASES = [
    (EigenRecord, RECORD),
    (ScanResult, SCAN),
    (_Rect, dict(re_lo=0.0, re_hi=1.0, im_lo=-1.0, im_hi=1.0)),
    (RichardsonReport, dict(lambda_plus=None, lambda_minus=2.0,
                            n_r_empirical=None, n_h_empirical=1,
                            scan=ScanResult(**SCAN),
                            tail_evidence={"lambda_min_checked": 1.5})),
    (StateVector, dict(x=0.5, y=1.0, yp=complex(0.0, 2.0))),
    (TrailEntry, TRAIL),
    (BoundCertificate, dict(kind="one_tp", direction="upper_on_lambda_plus",
                            bound=7.5, valid=True,
                            hypothesis_trail=(TrailEntry(**TRAIL),))),
    (LemmaResult, dict(mu=1.0, side="right", lhs=0.25, rhs=0.5, strict=True,
                       holds=True, witness="y = t")),
    (DisconjugacyWitness, dict(interval=(0.0, 1.0), mu=1.0, min_value=0.5,
                               method="comparison")),
    (DefinitenessReport, dict(kind="polar", is_orthogonal=False,
                              is_polar=True, lambda0=3.0,
                              witnesses={"lambda0": 3.0})),
]
IDS = [cls.__name__ for cls, _ in CASES]


@pytest.mark.parametrize("cls, fields", CASES, ids=IDS)
def test_construction_by_keyword_and_position(cls, fields):
    rec = cls(**fields)
    assert {name: getattr(rec, name) for name in fields} == fields
    assert cls(*fields.values()) == rec


@pytest.mark.parametrize("cls, fields", CASES, ids=IDS)
def test_repr_names_every_field(cls, fields):
    body = ", ".join(f"{name}={value!r}" for name, value in fields.items())
    assert repr(cls(**fields)) == f"{cls.__name__}({body})"


@pytest.mark.parametrize("cls, fields", CASES, ids=IDS)
def test_equality_and_hash_by_value(cls, fields):
    a, b = cls(**fields), cls(**dict(fields))
    assert a == b and a is not b
    first = next(iter(fields))
    assert a != cls(**{**fields, first: "other"})
    try:
        hash(tuple(fields.values()))
    except TypeError:
        # a dict field makes the record unhashable, as it makes the tuple
        with pytest.raises(TypeError):
            hash(a)
    else:
        assert hash(a) == hash(b)


def test_default_scan_warnings_are_empty():
    fields = {k: v for k, v in SCAN.items() if k != "warnings"}
    assert ScanResult(**fields).warnings == ()


@pytest.mark.parametrize("cls, fields", CASES, ids=IDS)
def test_fields_cannot_be_assigned(cls, fields):
    rec = cls(**fields)
    for name in fields:
        with pytest.raises(AttributeError):
            setattr(rec, name, None)
