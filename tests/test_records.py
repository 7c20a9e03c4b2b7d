"""The contract of the six immutable record types: construction,
validation, equality and hashing, repr, immutability, copy and pickle, and
pattern matching, the behaviour they had as frozen dataclasses."""

import copy
import math
import pickle

import pytest

import conedet
from conedet import (
    BarnesArgs,
    ConeGeometry,
    CurvedDiskGeometry,
    EvalResult,
    IdentityReport,
    PAIntegralBreakdown,
)
from conedet.special_functions import _fsum_result, _Record

# (type, field values, repr, (field, invalid value, ValueError message));
# the int values show that validated fields are stored as floats
RECORDS = [
    pytest.param(
        BarnesArgs,
        {"a": 0.5, "b": 1, "x": 2.0},
        "BarnesArgs(a=0.5, b=1.0, x=2.0)",
        ("x", 0.0, "x must be finite and in [1e-300, inf), got 0.0"),
        id="BarnesArgs",
    ),
    pytest.param(
        EvalResult,
        {"value": 1.5, "abs_err": 1e-14, "formula_tag": "flat-disk"},
        "EvalResult(value=1.5, abs_err=1e-14, formula_tag='flat-disk')",
        ("abs_err", -1.0, "abs_err must be a nonnegative float, got -1.0"),
        id="EvalResult",
    ),
    pytest.param(
        ConeGeometry,
        {"a": 0.5, "eta": 1.0},
        "ConeGeometry(a=0.5, eta=1.0)",
        ("eta", 701, "eta must be finite and in [1e-300, 700], got 701.0"),
        id="ConeGeometry",
    ),
    pytest.param(
        CurvedDiskGeometry,
        {"a": 2, "K": -0.5},
        "CurvedDiskGeometry(a=2.0, K=-0.5)",
        ("K", -1.0, "K must be finite and in (-1, inf), got -1.0"),
        id="CurvedDiskGeometry",
    ),
    pytest.param(
        IdentityReport,
        {"identity_name": "barnes-bridge", "lhs": 1.0, "rhs": 1.0 + 2.0**-52, "tolerance": 1e-12},
        "IdentityReport(identity_name='barnes-bridge', lhs=1.0, rhs=1.0000000000000002, tolerance=1e-12)",
        ("identity_name", "", "identity_name must be nonempty"),
        id="IdentityReport",
    ),
    pytest.param(
        PAIntegralBreakdown,
        {"area_term": 0.1, "boundary_curvature_terms": -0.2, "boundary_normal_terms": 0.3},
        "PAIntegralBreakdown(area_term=0.1, boundary_curvature_terms=-0.2, boundary_normal_terms=0.3)",
        None,
        id="PAIntegralBreakdown",
    ),
]


@pytest.mark.parametrize("cls, fields, text, invalid", RECORDS)
class TestRecordContract:
    def test_construction(self, cls, fields, text, invalid):
        by_keyword = cls(**fields)
        by_position = cls(*fields.values())
        assert by_keyword == by_position
        assert cls.__match_args__ == tuple(fields)
        assert [getattr(by_keyword, name) for name in fields] == list(fields.values())
        with pytest.raises(TypeError):
            cls(*fields.values(), 1.0)
        with pytest.raises(TypeError):
            cls(*list(fields.values())[:-1])

    def test_equality_and_hash(self, cls, fields, text, invalid):
        record = cls(**fields)
        values = tuple(getattr(record, name) for name in fields)
        assert record == cls(**fields) and not record != cls(**fields)
        assert hash(record) == hash(cls(**fields)) == hash(values)
        assert record != values
        first = next(iter(fields))
        other = cls(**{**fields, first: fields[first] * 2})
        assert record != other and other != record

    def test_repr(self, cls, fields, text, invalid):
        assert repr(cls(**fields)) == text

    def test_immutable(self, cls, fields, text, invalid):
        record = cls(**fields)
        name = next(iter(fields))
        with pytest.raises(AttributeError):
            setattr(record, name, getattr(record, name))
        with pytest.raises(AttributeError):
            record.not_a_field = 1.0
        with pytest.raises(AttributeError):
            delattr(record, name)
        assert repr(record) == text

    @pytest.mark.parametrize(
        "clone",
        [
            copy.copy,
            copy.deepcopy,
            lambda r: pickle.loads(pickle.dumps(r, protocol=0)),
            lambda r: pickle.loads(pickle.dumps(r, protocol=pickle.HIGHEST_PROTOCOL)),
        ],
        ids=["copy", "deepcopy", "pickle0", "pickle-highest"],
    )
    def test_copy_and_pickle(self, cls, fields, text, invalid, clone):
        record = cls(**fields)
        cloned = clone(record)
        assert type(cloned) is cls
        assert cloned == record and hash(cloned) == hash(record)
        assert repr(cloned) == text


def test_one_record_type_per_field_list():
    # every public record type is in RECORDS, and no two describe the same
    # thing: two types with one field list are one geometry written twice
    public = [
        obj for obj in map(conedet.__dict__.get, conedet.__all__) if isinstance(obj, type) and issubclass(obj, _Record)
    ]
    assert sorted(cls.__name__ for cls in public) == sorted(p.id for p in RECORDS)
    field_lists = [cls.__slots__ for cls in public]
    assert len(set(field_lists)) == len(field_lists), field_lists


@pytest.mark.parametrize("cls, fields, text, invalid", [p for p in RECORDS if p.values[3] is not None])
def test_validation_message(cls, fields, text, invalid):
    name, value, message = invalid
    with pytest.raises(ValueError) as info:
        cls(**{**fields, name: value})
    assert str(info.value) == message


def test_nan_result_equals_itself():
    # the Barnes cache hands back such a result when the sum overflows
    nan = EvalResult(math.nan, math.inf, "barnes-integral")
    assert nan == nan and nan == copy.copy(nan)
    assert hash(nan) == hash(copy.copy(nan))


def test_match_by_position_and_keyword():
    match ConeGeometry(0.5, 1.0):
        case ConeGeometry(a, eta=eta):
            assert (a, eta) == (0.5, 1.0)
        case _:
            pytest.fail("ConeGeometry did not match its own class pattern")


def test_computed_result_behaves_like_a_constructed_one():
    # _fsum_result sets the fields of the results the package computes
    # without going through EvalResult.__init__
    computed = _fsum_result((1.0, 0.5), "flat-disk", 0.0, ("r",), (1.0,))
    constructed = EvalResult(1.5, 2e-14 * 2.5, "flat-disk")
    assert computed.value == 1.5 and computed.abs_err == 2e-14 * 2.5
    assert computed == constructed and constructed == computed
    assert hash(computed) == hash(constructed) == hash((1.5, 2e-14 * 2.5, "flat-disk"))
    assert repr(computed) == repr(constructed) == "EvalResult(value=1.5, abs_err=5e-14, formula_tag='flat-disk')"
    for clone in (copy.copy, copy.deepcopy, lambda r: pickle.loads(pickle.dumps(r))):
        cloned = clone(computed)
        assert type(cloned) is EvalResult and cloned == constructed and hash(cloned) == hash(constructed)
    with pytest.raises(AttributeError):
        computed.value = 2.0
    match computed:
        case EvalResult(value, abs_err, formula_tag="flat-disk"):
            assert (value, abs_err) == (1.5, 2e-14 * 2.5)
        case _:
            pytest.fail("a computed EvalResult did not match its own class pattern")
