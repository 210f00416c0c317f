import random
import sys
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import longdiv_series
from wittkit import series, suites
from wittkit.analytic import hurwitz_zeta
from wittkit.characters import RealDirichletCharacter
from wittkit.errors import IntegralityError
from wittkit.expansion import BiSeries
from wittkit.series import RationalFunction, TruncatedSeries, _decimal, _long_int, coeff_str

small_ints = st.lists(st.integers(-9, 9), min_size=1, max_size=12)


def S(coeffs, order=None):
    return TruncatedSeries(coeffs, order)


def test_construction_and_parsing():
    s = S(["1", "-1/2", 3], 4)
    assert s.coeffs == (1, Fraction(-1, 2), 3, 0, 0)
    assert not s.is_integral()
    assert S([1, 2]).is_integral()
    # a fraction that reduces to an integer is normalized
    assert S([Fraction(4, 2)]).coeffs == (2,)
    assert S([Fraction(4, 2)]).is_integral()


@pytest.mark.parametrize("build, error", [
    (lambda: TruncatedSeries(["1_0", "\u0663"]), ValueError),
    (lambda: TruncatedSeries(["1", 0.5]), TypeError),
    (lambda: RationalFunction(["1_0"], ["\u0663"]), ValueError),
    (lambda: RationalFunction([1, -1.5], [1]), TypeError),
    (lambda: RationalFunction([1, Fraction(-3, 2)], [1]), TypeError),
    (lambda: hurwitz_zeta(2, "1_0/2\u0663", 5), ValueError),
    (lambda: hurwitz_zeta(2, 0.1, 5), TypeError),
    (lambda: RealDirichletCharacter.from_values(["0", "\u0661", "0", "-1"]), ValueError),
    (lambda: RealDirichletCharacter.from_values([0, 1, 0, -1.0]), TypeError),
    (lambda: BiSeries.from_rows([[1, 0.9], [2, 10]]), TypeError),
    (lambda: BiSeries.from_rows([[1, 0], [Fraction(3, 2), 10]]), TypeError),
    (lambda: BiSeries.from_rows([[1, 0], [2, "1_0"]]), ValueError),
    (lambda: BiSeries.from_rows([[1, "\u0663"]]), ValueError),
], ids=["series-text", "series-float", "ratfun-text", "ratfun-float", "ratfun-fraction",
        "hurwitz-text", "hurwitz-float", "character-text", "character-float",
        "grid-float", "grid-fraction", "grid-underscore", "grid-non-ascii"])
def test_constructors_take_only_exact_decimal_input(build, error):
    # int() and Fraction() would read underscores, non-ASCII digits and floats
    with pytest.raises(error):
        build()


def test_constructors_read_decimal_text():
    assert TruncatedSeries(["10", " -3/6 "]).coeffs == (10, Fraction(-1, 2))
    assert RationalFunction(["1", "-1"], [1, "+2"]) == RationalFunction([1, -1], [1, 2])
    assert hurwitz_zeta(2, "1/4", 8) == hurwitz_zeta(2, Fraction(1, 4), 8)
    assert BiSeries.from_rows([["1", " -2"], [3, "+4"]]).grid == ((1, -2), (3, 4))


@pytest.mark.parametrize("build", [
    lambda: BiSeries.from_rows([]),
    lambda: BiSeries.from_rows([[], []]),
    lambda: TruncatedSeries([1, 1], 3).truncate(-1),
], ids=["grid-no-rows", "grid-empty-rows", "series-negative-truncation"])
def test_empty_shapes_are_refused(build):
    # the CLI reports a ValueError as a usage error (exit 2)
    with pytest.raises(ValueError):
        build()
    assert RealDirichletCharacter.from_values(["0", "1", "0", "-1"]) \
        == RealDirichletCharacter.from_kronecker(-4)


def test_add_examples():
    one_plus = S([1, 1], 3)
    one_minus = S([1, -1], 3)
    assert (one_plus + one_minus) == S([2], 3)
    assert one_plus + TruncatedSeries.zero(3) == one_plus
    assert S([1, 0, 2], 2) + S([0, 3], 2) == S([1, 3, 2], 2)


def test_mul_examples():
    assert S([1, 1], 3) * S([1, -1], 3) == S([1, 0, -1], 3)
    f = S([2, 0, 5], 6)
    assert f * TruncatedSeries.one(6) == f
    assert S([1, 1], 3) * S([1, 1], 3) == S([1, 2, 1], 3)
    # either factor order (the sparser one drives the outer loop)
    a, b = S([0, 0, 3, 0, 0, 0, "1/2"], 8), S([1, 2, 3, 4, 5, 6, 7, 8, 9])
    assert a * b == b * a == S([0, 0, 3, 6, 9, 12, "31/2", 19, "45/2"], 8)


def test_pow():
    f = S([3, -1, 2], 5)
    assert f**0 == TruncatedSeries.one(5)
    assert f**1 is f
    assert S([1, 1], 4) ** 3 == S([1, 3, 3, 1], 4)
    # the zero series, and z^2 u with v k = 6 above and at the order
    assert S([0], 5) ** 3 == TruncatedSeries.zero(5)
    assert S([0, 0, 1, 4], 5) ** 3 == TruncatedSeries.zero(5)
    assert S([0, 0, 1, 4], 7) ** 3 == S([0] * 6 + [1, 12], 7)
    assert S(["1/2", 1], 3) ** 2 == S(["1/4", 1, 1], 3)
    with pytest.raises(ValueError):
        f ** (-1)
    # the exact division of an integral series guards against a wrong recurrence
    lying = TruncatedSeries._unsafe((2, Fraction(1, 3)), 1, True)
    with pytest.raises(IntegralityError, match="power 2: coefficient of z\\^1"):
        lying**2


def test_pow_makes_no_series_product(monkeypatch):
    products = []
    mul = TruncatedSeries.__mul__

    def counting_mul(a, b):
        products.append(1)
        return mul(a, b)

    monkeypatch.setattr(TruncatedSeries, "__mul__", counting_mul)
    f = S([1, 2, -1], 6)
    for k in (0, 1, 2, 3, 8, 12, 15):
        f**k
    assert products == []


def _counting_steps(monkeypatch):
    # one exact division per step of Miller's recurrence: divmod for an
    # integral series, _norm of the quotient for a Fraction series
    steps = []
    divmod_, norm = divmod, series._norm
    monkeypatch.setattr(series, "divmod", lambda a, b: steps.append(1) or divmod_(a, b),
                        raising=False)
    monkeypatch.setattr(series, "_norm", lambda x: steps.append(1) or norm(x))
    return steps


@pytest.mark.parametrize("coeffs", [
    [3, -1, 2, 0, 5],                          # integer
    [Fraction(1, 2), 1, Fraction(-2, 3), 4],   # Fraction
    [0, 0, 1, 4, 0, -1],                       # z^2 u: leading zeros
    [-2, -3, 0, -1, 7],                        # negative
])
@pytest.mark.parametrize("k", [2, 3, 5])
def test_a_stored_power_is_extended_not_raised_again(monkeypatch, coeffs, k):
    # raising f^k to order m and then to M continues the m + 1 stored
    # coefficients with M - m steps, and gives the list a fresh raise gives
    M = 24
    f = S(coeffs, M)
    integral = f.is_integral()
    v = next(j for j, c in enumerate(coeffs) if c)
    fresh = series._power_coeffs(f.coeffs, k, M, integral)
    steps = _counting_steps(monkeypatch)
    for m in (v * k, v * k + 3, 15):
        low = series._power_coeffs(f.coeffs, k, m, integral)
        assert low == fresh[:m + 1]
        del steps[:]
        assert series._power_coeffs(f.coeffs, k, M, integral, low) == fresh
        assert len(steps) == M - m
    # the memo stores each power at the highest order asked for and
    # serves a lower one from it; a higher one extends it
    del steps[:]
    assert f._power(k, 10) == fresh[:11]
    assert f._power(k, 4) == fresh[:11]
    assert f._power(k, M) == fresh
    assert len(steps) == M - v * k
    assert (f**k).coeffs == tuple(fresh)
    assert f._power(1, M) is f.coeffs


def test_one_identity_battery_seed_raises_no_coefficient_twice(monkeypatch):
    # the six checks of a seed share f's and g's power memos: the raises
    # of one (series, k) continue one another, so each coefficient of each
    # power is computed once
    raised = []
    power = series._power_coeffs

    def recording(a, k, order, integral, prefix=()):
        raised.append((a, k, len(prefix), order))
        return power(a, k, order, integral, prefix)

    monkeypatch.setattr(series, "_power_coeffs", recording)
    assert suites.identity_battery(1, seed0=1234567).passed
    stored = {}
    for a, k, start, order in raised:
        key = (id(a), k)  # every a is alive in `raised`, so ids are distinct
        assert start == stored.get(key, 0) and order >= start
        stored[key] = order + 1
    assert len(raised) > 20


def test_the_power_memo_is_no_part_of_the_value():
    f, g = S([1, 2, -1, 3], 9), S([1, 2, -1, 3], 9)
    before = (repr(f), hash(f))
    f**3, f._power(5, 4)
    assert f == g and g == f and hash(f) == hash(g) == before[1]
    assert repr(f) == repr(g) == before[0]
    assert f.truncate(f.order) is f and f.truncate(f.order) == g
    assert f.truncate(5) == g.truncate(5)
    assert f.to_json_dict() == g.to_json_dict()


fraction_coeffs = st.lists(st.fractions(-3, 3, max_denominator=5), min_size=1, max_size=12)


@settings(max_examples=100, deadline=None)
@given(small_ints | fraction_coeffs, st.integers(0, 3), st.integers(0, 12), st.integers(0, 40))
def test_pow_is_repeated_multiplication(coeffs, zeros, order, k):
    # zeros leading zeros put v k below, at and above the order
    f = S([0] * zeros + coeffs, order)
    expected = TruncatedSeries.one(order)
    for _ in range(k):
        expected = expected * f
    power = f**k
    assert power == expected
    assert power.to_json_dict() == expected.to_json_dict()
    assert power.is_integral() == expected.is_integral()


def test_inflate():
    assert S([1, 1], 4).inflate(2) == S([1, 0, 1], 4)
    f = S([5, 1, 2], 7)
    assert f.inflate(1) is f
    assert S([1, 1, 1], 8).inflate(3) == S([1, 0, 0, 1, 0, 0, 1], 8)
    with pytest.raises(ValueError):
        f.inflate(0)


def test_recip():
    assert S([1, -1], 4).recip() == S([1, 1, 1, 1, 1], 4)
    assert TruncatedSeries.one(3).recip() == TruncatedSeries.one(3)
    fib = S([1, -1, -1], 5).recip()
    assert fib == S([1, 1, 2, 3, 5, 8], 5)
    with pytest.raises(ValueError):
        S([0, 1], 3).recip()


def test_recip_is_inverse():
    f = S([2, 3, -1, 5], 9)
    assert f * f.recip() == TruncatedSeries.one(9)


def recip_by_convolution(f):
    """The reciprocal's coefficients by a_0 b_n = -sum_{i=1..n} a_i b_{n-i},
    a pass over every coefficient of f: O(order^2)."""
    inv0 = series._norm(Fraction(1, 1) / f.coeffs[0])
    out = [inv0]
    for n in range(1, f.order + 1):
        acc = sum(f.coeffs[i] * out[n - i] for i in range(1, n + 1))
        out.append(series._norm(-acc * inv0))
    return out


nonzero = st.integers(-9, 9).filter(bool)
recip_inputs = st.one_of(
    st.tuples(st.sampled_from([1, -1]), st.lists(st.integers(-9, 9), max_size=30)),
    st.tuples(nonzero.filter(lambda c: abs(c) > 1), st.lists(st.integers(-9, 9), max_size=30)),
    st.tuples(st.fractions(-3, 3, max_denominator=5).filter(bool),
              st.lists(st.fractions(-3, 3, max_denominator=5), max_size=30)),
)


@settings(max_examples=300, deadline=None)
@given(recip_inputs, st.integers(0, 30))
def test_recip_matches_the_convolution_recurrence(u0_rest, order):
    # Miller's recurrence at k = -1 gives the coefficients, and their
    # types, of the O(order^2) recurrence: unit and non-unit integer a_0,
    # and Fraction series
    u0, rest = u0_rest
    f = S([u0] + rest, order)
    inverse = f.recip()
    expected = recip_by_convolution(f)
    assert list(inverse.coeffs) == expected
    assert [type(c) for c in inverse.coeffs] == [type(c) for c in expected]
    assert inverse.is_integral() == all(type(c) is int for c in expected)
    assert f * inverse == TruncatedSeries.one(order)


def test_ratfun_expand_against_long_division():
    cases = [
        (( 1, -1, -1), (1, -1), 4),
        ((1,), (1, -2), 3),
        ((1, -2), (1, -2, 1), 3),
    ]
    for num, den, order in cases:
        got = RationalFunction(num, den).expand(order)
        assert list(got.coeffs) == longdiv_series(num, den, order)
    # frozen values computed with the long-division oracle
    assert RationalFunction([1, -1, -1], [1, -1]).expand(4).coeffs == (
        1, 0, -1, -1, -1)
    assert RationalFunction([1], [1, -2]).expand(3).coeffs == (1, 2, 4, 8)
    assert RationalFunction([1, -2], [1, -2, 1]).expand(3).coeffs == (
        1, 0, -1, -2)


def test_ratfun_rejects_pole_at_zero():
    with pytest.raises(ValueError):
        RationalFunction([1], [0, 1])


def test_truncation_mixing_takes_minimum():
    a = S([1, 2, 3, 4], 3)
    b = S([1, 1], 1)
    assert (a + b).order == 1
    assert (a * b).order == 1
    with pytest.raises(ValueError):
        b.truncate(5)


def test_divexact():
    assert S([2, 4, 6], 2).divexact(2) == S([1, 2, 3], 2)
    with pytest.raises(IntegralityError):
        S([2, 3], 1).divexact(2)
    assert S([Fraction(1, 2)], 0).divexact(2) == S([Fraction(1, 4)], 0)


def test_json_round_trip():
    s = S(["1", "-1/2", "7"], 5)
    assert TruncatedSeries.from_json_dict(s.to_json_dict()) == s


@settings(max_examples=60)
@given(small_ints, small_ints, small_ints)
def test_ring_axioms(xs, ys, zs):
    n = 32
    a, b, c = S(xs, n), S(ys, n), S(zs, n)
    assert a + b == b + a
    assert (a + b) + c == a + (b + c)
    assert a * b == b * a
    assert (a * b) * c == a * (b * c)
    assert a * (b + c) == a * b + a * c


@settings(max_examples=40)
@given(small_ints, st.integers(1, 4), st.integers(1, 4))
def test_inflate_composes(xs, d1, d2):
    a = S(xs, 24)
    assert a.inflate(d1).inflate(d2) == a.inflate(d1 * d2)


@settings(max_examples=40)
@given(
    st.lists(st.integers(-5, 5), min_size=1, max_size=5),
    st.lists(st.integers(-5, 5), min_size=1, max_size=5).filter(lambda d: d[0] != 0),
    st.integers(2, 16),
)
def test_expand_times_denominator_recovers_numerator(num, den, order):
    h = RationalFunction(num, den)
    lhs = h.expand(order) * S(list(den), order)
    assert lhs == S(list(num), order)


def test_coeff_str_past_the_int_str_limit():
    limit = sys.get_int_max_str_digits()
    big = 3**12000  # 5726 digits
    assert coeff_str(12) == "12" and coeff_str(Fraction(-3, 4)) == "-3/4"
    assert coeff_str(Fraction(6, 3)) == "2"
    with pytest.raises(ValueError):
        str(big)
    series = TruncatedSeries([-big, Fraction(1, big)], 1).to_json_dict()
    sys.set_int_max_str_digits(0)
    try:
        assert series["coeffs"] == [str(-big), f"1/{big}"]
    finally:
        sys.set_int_max_str_digits(limit)


@pytest.mark.parametrize("digits", [4301, 10**5])
def test_coeff_str_past_the_limit_is_the_text_str_gives(digits):
    # the divide-and-conquer conversion, taken past the limit, against str()
    # itself with the limit lifted: positive and negative values, and
    # powers of ten, whose trailing zeros must stay digits
    rng = random.Random(digits)
    values = [10**(digits - 1), 10**digits - 1, rng.randrange(10**(digits - 1), 10**digits)]
    texts = [coeff_str(x) for x in values], [coeff_str(-x) for x in values]
    limit = sys.get_int_max_str_digits()
    sys.set_int_max_str_digits(0)
    try:
        wanted = [str(x) for x in values]  # quadratic: each str() once
    finally:
        sys.set_int_max_str_digits(limit)
    assert texts == (wanted, ["-" + text for text in wanted])


@pytest.mark.parametrize("digits", [4301, 10**5])
def test_decimal_text_past_the_limit_is_the_int_int_gives(digits):
    # the divide-and-conquer reader, taken past the int-from-str limit,
    # against int() itself with the limit lifted: positive and negative
    # values, leading zeros, powers of ten and fractions
    rng = random.Random(digits)
    texts = ["1" + "0" * (digits - 1), "9" * digits, "0" * 7 + "3" * digits,
             str(rng.randrange(1, 10)) + "".join(rng.choices("0123456789", k=digits - 1))]
    with pytest.raises(ValueError):
        int(texts[0])
    got = [(_long_int(t), _long_int("-" + t), _long_int("+" + t), _decimal("-" + t, "c"))
           for t in texts]
    fraction = _decimal(f"-{texts[3]}/{texts[1]}", "c")
    limit = sys.get_int_max_str_digits()
    sys.set_int_max_str_digits(640)  # the lowest limit CPython allows
    try:
        lowest = [_long_int(t) for t in texts]
        sys.set_int_max_str_digits(0)
        wanted = [int(t) for t in texts]
    finally:
        sys.set_int_max_str_digits(limit)
    assert got == [(x, -x, x, -x) for x in wanted] and lowest == wanted
    assert fraction == Fraction(-wanted[3], wanted[1])
    assert _long_int("-12") == -12 and _decimal("+7/14", "c") == Fraction(1, 2)
