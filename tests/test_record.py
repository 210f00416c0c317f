"""The record classes: construction by position or keyword in field order,
defaults, immutability, validation, equality, hashing and repr."""

from decimal import Decimal

import pytest

from wittkit.analytic import ConstantResult, ConvergenceReport, EulerProductSpec
from wittkit.characters import RealDirichletCharacter
from wittkit.expansion import BiSeries, CyclotomicReport, Expansion1D, Expansion2D
from wittkit.series import RationalFunction, TruncatedSeries
from wittkit.suites import SuiteResult
from wittkit.witt import IdentityReport, ScanReport, WittTable

ARTIN_H = RationalFunction([1, -1, -1], [1, -1])
ONE_PLUS_Z = TruncatedSeries([1, 1], 3)
GRID = BiSeries(((1, 0), (0, -1)))

# every field of every record, in declaration order, with a valid value
FIELDS = {
    EulerProductSpec: dict(h=ARTIN_H, m=1, digits=8),
    ConstantResult: dict(value=Decimal("0.37"), digits=2, cutoff=9,
                         tail_estimate=Decimal("1E-5"), heuristic_tail=False,
                         working_digits=14, removed_primes=25),
    ConvergenceReport: dict(radius=0.618, radius_method="ratio", g_half=1.5,
                            radius_ok=True, g_half_ok=False, prime_sum_converges=None,
                            hypotheses_hold=False, note="n"),
    RealDirichletCharacter: dict(modulus=4, values=(0, 1, 0, -1)),
    Expansion1D: dict(order=3, exponents=(1, 0, -2)),
    BiSeries: dict(grid=((1, 0), (0, -1))),
    Expansion2D: dict(deg_z=1, deg_y=1, exponents=(((1, 1), 1),)),
    CyclotomicReport: dict(passed=False, first_mismatch=(2, 1), lhs=GRID, rhs=GRID),
    RationalFunction: dict(num=(1, -1, -1), den=(1, -1)),
    SuiteResult: dict(suite="s", checks=3, failures=["f"], runtime_s=0.5),
    WittTable: dict(f=ONE_PLUS_Z, rows=(ONE_PLUS_Z,)),
    IdentityReport: dict(ident="T3.2", params={"r": 2}, lhs=ONE_PLUS_Z, rhs=ONE_PLUS_Z,
                         passed=True, first_mismatch=3),
    ScanReport: dict(family="P6", params={"cmax": 6}, passed=False, checked=5,
                     violations=("c=2",), note="n"),
}
RECORDS = list(FIELDS)
FROZEN = [cls for cls in RECORDS if cls is not SuiteResult]
GENERATED_INIT = [cls for cls in RECORDS if cls is not RationalFunction]
HASHABLE = [cls for cls in FROZEN if cls not in (IdentityReport, ScanReport)]  # no dict field


def _ids(classes):
    return [cls.__name__ for cls in classes]


@pytest.mark.parametrize("cls", RECORDS, ids=_ids(RECORDS))
def test_positional_and_keyword_construction_agree(cls):
    fields = FIELDS[cls]
    by_position, by_keyword = cls(*fields.values()), cls(**fields)
    assert by_position == by_keyword
    assert {name: getattr(by_position, name) for name in fields} == fields


@pytest.mark.parametrize("cls", RECORDS, ids=_ids(RECORDS))
def test_repr_names_every_field_in_order(cls):
    fields = FIELDS[cls]
    inner = ", ".join(f"{name}={value!r}" for name, value in fields.items())
    assert repr(cls(**fields)) == f"{cls.__name__}({inner})"


@pytest.mark.parametrize("cls", GENERATED_INIT, ids=_ids(GENERATED_INIT))
def test_argument_errors_are_type_errors(cls):
    fields = list(FIELDS[cls].values())
    with pytest.raises(TypeError):
        cls(*fields, "one too many")
    with pytest.raises(TypeError):
        cls(*fields[:-1], **{list(FIELDS[cls])[-1]: fields[-1], "no_such_field": 1})
    with pytest.raises(TypeError):
        cls()


def test_defaults():
    spec = EulerProductSpec(ARTIN_H)
    assert (spec.m, spec.digits) == (0, 12)
    rep = IdentityReport("T3.2", {"r": 2}, ONE_PLUS_Z, ONE_PLUS_Z, True)
    assert rep.first_mismatch is None
    scan = ScanReport("P6", {"cmax": 6}, True, 4)
    assert scan.violations == ()
    assert scan.note == "finite-window check; certifies the claim on this window only"
    suite = SuiteResult("s")
    assert (suite.checks, suite.failures, suite.runtime_s) == (0, [], 0.0)


def test_suite_results_do_not_share_a_failure_list():
    a, b = SuiteResult("a"), SuiteResult("b")
    a.check(False, "boom")
    assert a.failures == ["boom"] and b.failures == [] and SuiteResult("c").failures == []
    a.runtime_s = 1.5  # a mutable record
    assert a.runtime_s == 1.5


@pytest.mark.parametrize("cls", FROZEN, ids=_ids(FROZEN))
def test_frozen_fields_refuse_assignment(cls):
    record = cls(**FIELDS[cls])
    name = next(iter(FIELDS[cls]))
    with pytest.raises(AttributeError):
        setattr(record, name, None)
    with pytest.raises(AttributeError):
        delattr(record, name)
    with pytest.raises(AttributeError):
        record.not_a_field = 1
    assert getattr(record, name) == FIELDS[cls][name]


def test_post_init_validation_still_runs():
    with pytest.raises(ValueError, match="not completely multiplicative"):
        RealDirichletCharacter(5, (0, 1, -1, 1, 1))
    with pytest.raises(ValueError, match="holds no comparison"):
        ScanReport("P6", {"cmax": 0}, True, 0)
    with pytest.raises(ValueError, match="digits must be >= 1"):
        EulerProductSpec(ARTIN_H, digits=0)
    with pytest.raises(ValueError, match="nonzero constant term"):
        RationalFunction([1], [0, 1])


def test_equal_characters_are_equal_dict_keys():
    chi = RealDirichletCharacter.from_kronecker(-4)
    same = RealDirichletCharacter(4, (0, 1, 0, -1))
    assert chi == same and chi is not same and hash(chi) == hash(same)
    table = {(2, chi): 1}
    table[(2, same)] += 1
    assert table == {(2, chi): 2}
    assert chi != RealDirichletCharacter(4, (0, 1, 0, 1))


def test_equality_needs_the_same_class():
    assert ConstantResult(**FIELDS[ConstantResult]) != tuple(FIELDS[ConstantResult].values())
    assert Expansion1D(3, (1, 0, -2)) != Expansion1D(3, (1, 0, 2))
    assert RationalFunction([1], [1, 1]) == RationalFunction((1,), (1, 1))


@pytest.mark.parametrize("cls", HASHABLE, ids=_ids(HASHABLE))
def test_frozen_records_hash_by_value(cls):
    assert hash(cls(**FIELDS[cls])) == hash(cls(*FIELDS[cls].values()))


def test_mutable_and_dict_holding_records_are_unhashable():
    with pytest.raises(TypeError):
        hash(SuiteResult("s"))
    with pytest.raises(TypeError):  # params is a dict
        hash(ScanReport(**FIELDS[ScanReport]))
