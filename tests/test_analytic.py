import json
import math
import time
from decimal import Context, Decimal, localcontext
from fractions import Fraction

import mpmath
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from conftest import B_CHI_MINUS_4, catalan_oracle
from wittkit import analytic, arith, suites
from wittkit.analytic import (
    EulerProductSpec,
    b_chi,
    b_chi_direct,
    check_convergence_hypotheses,
    euler_product,
    euler_product_direct,
    hurwitz_zeta,
    l_series,
    partial_zeta,
    zeta,
)
from wittkit.arith import divisors, nth_prime, primes_up_to
from wittkit.characters import RealDirichletCharacter
from wittkit.errors import BudgetExceededError, DivergenceError
from wittkit.expansion import _mul_factor, _rational_exponents, peel_1d
from wittkit.series import RationalFunction, TruncatedSeries
from wittkit.witt import witt_table

ARTIN_H = RationalFunction([1, -1, -1], [1, -1])
TWIN_H = RationalFunction([1, -2], [1, -2, 1])
QUAD_H = RationalFunction([1, 0, -1], [1])


def mp_ref(value: mpmath.mpf, digits: int) -> Decimal:
    return Decimal(mpmath.nstr(value, digits + 5, strip_zeros=False))


def test_zeta_against_mpmath():
    mpmath.mp.dps = 45
    for s in (2, 3, 4, 5, 7, 10, 20, 50):
        ref = mp_ref(mpmath.zeta(s), 30)
        assert abs(zeta(s, 30) - ref) < Decimal("1e-30"), s


def test_zeta_high_precision_against_mpmath():
    mpmath.mp.dps = 270
    for s in (2, 3, 37, 700):
        ref = mp_ref(mpmath.zeta(s), 250)
        assert abs(zeta(s, 250) - ref) < Decimal("1e-250"), s


def test_l_series_high_precision_against_mpmath():
    # L(3, chi_-4) = pi^3 / 32
    mpmath.mp.dps = 320
    chi4 = RealDirichletCharacter.from_kronecker(-4)
    ref = mp_ref(mpmath.pi**3 / 32, 300)
    assert abs(l_series(3, chi4, 300) - ref) < Decimal("1e-300")


def test_hurwitz_high_precision_against_mpmath():
    mpmath.mp.dps = 140
    ref = mp_ref(mpmath.zeta(4, mpmath.mpf(2) / 7), 120)
    assert abs(hurwitz_zeta(4, Fraction(2, 7), 120) - ref) < Decimal("1e-120")


def _em_cuts(monkeypatch):
    """The cut of every Euler-Maclaurin attempt: each attempt sums its terms
    k < cut in one power-row sum inside _dirichlet_sum."""
    cuts, depth = [], []
    dirichlet, power = analytic._dirichlet_sum, analytic._PowerRow.sum

    def in_dirichlet(*args):
        depth.append(None)
        try:
            return dirichlet(*args)
        finally:
            depth.pop()

    def counted(row, s, ks, width, chi=None):
        if depth:
            cuts.append(len(ks))
        return power(row, s, ks, width, chi)

    monkeypatch.setattr(analytic, "_dirichlet_sum", in_dirichlet)
    monkeypatch.setattr(analytic._PowerRow, "sum", counted)
    return cuts


def _fixed(value, prec):
    """The kernel's int at width _width(prec) as the Decimal it stands for."""
    return Decimal(value).scaleb(-analytic._width(prec), Context(prec=len(str(abs(value)))))


def test_em_cut_doubling_path(monkeypatch):
    # S(100, 1, 2) = zeta(100) - 1 at 60 digits: the first cut (2) leaves the
    # integral tail below target but the corrections diverge, so the cut has
    # to double (zeta(100) itself takes the direct rough sum, without EM)
    cuts = _em_cuts(monkeypatch)
    value = _fixed(analytic._dirichlet_sum(100, 1, 2, 60), 60)
    assert cuts == [2, 4] and cuts[1] == 2 * cuts[0]
    mpmath.mp.dps = 80
    assert abs(mpmath.mpf(str(value)) - (mpmath.zeta(100) - 1)) < mpmath.mpf(10) ** -60


def _reference_power_sum(s, terms, width):
    """Reference: sum sign k^-s over (k, sign) in terms as an int at `width`
    within 2 units, each term floor(10^W / k^s) computed afresh at
    W = width + len(str(T)), and the sum floored to `width`."""
    wide = width + len(str(len(terms)))
    return sum(sign * (10**wide // k**s) for k, sign in terms) // 10 ** (wide - width)


def _reference_coeff(j):
    """B_2j / (2j)! rounded once at the current Decimal precision."""
    b = arith.bernoulli(2 * j)
    return Decimal(b.numerator) / Decimal(b.denominator * math.factorial(2 * j))


def _reference_em_attempt(s, q, a, cut, prec, target):
    """Reference: Euler-Maclaurin at one cut as a separate attempt, in
    Decimal at the current precision, (value, ok) with ok False when the
    corrections turn (or 4 prec of them run out) before the remainder bound
    drops below target."""
    direct = _reference_power_sum(s, [(q * k + a, 1) for k in range(cut)], prec + 2)
    total = Decimal(direct).scaleb(-(prec + 2))
    base = q * cut + a
    base2 = base * base
    p = Decimal(base) ** -s
    total += p * base / (q * (s - 1))
    total += p / 2
    limit = target * Decimal("0.999999")
    x = p * (q * s) / base
    prev = None
    j = 1
    while True:
        term = _reference_coeff(j) * x
        size = abs(term)
        if size <= limit:
            return total, True
        if prev is not None and size >= prev:
            return total, False
        total += term
        prev = size
        x = x * (q * q * (s + 2 * j - 1) * (s + 2 * j)) / base2
        j += 1
        if j > 4 * prec:
            return total, False


def _reference_dirichlet_sum(s, q, a, prec):
    """Reference: (S(s, q, a) within 10^-prec, the cut of every attempt),
    from attempts at a cut lowered by a float tail rule, doubling the cut
    after each failed attempt."""
    target = Decimal(1).scaleb(-(prec + 1))
    cut = analytic._em_cut(prec)
    bound = (prec + 1 - math.log10(q * (s - 1))) / (s - 1)
    if bound < math.log10(q * cut + a):
        cut = max(1, min(cut, math.ceil((10.0**bound - a) / q)))
    cuts = []
    with localcontext() as ctx:
        ctx.prec = prec + 12
        while True:
            cuts.append(cut)
            value, ok = _reference_em_attempt(s, q, a, cut, prec, target)
            if ok:
                return value, cuts
            cut *= 2


@settings(max_examples=300, deadline=None)
@given(st.integers(2, 320), st.integers(1, 12), st.integers(1, 25), st.integers(2, 90))
@example(100, 1, 2, 60).via("the cut doubles from 2 to 4")
@example(40, 4, 1, 80).via("hurwitz_zeta(40, 1/4, 30): a lowered cut, 26")
@example(2, 1, 2, 60).via("the default cut")
def test_one_em_routine_matches_the_attempt_loop(s, q, a, prec):
    # the exact tail rule picks the float rule's cut, and the integer loop
    # turns where the Decimal attempts do, so both take the same cuts; the
    # values, within 10^-(prec+1) and 10^-prec of S, differ by less than the
    # two bounds together.  prec >= 2, as the two exact ties of the next
    # test split the rules at 1
    with pytest.MonkeyPatch.context() as patch:
        cuts = _em_cuts(patch)
        got = _fixed(analytic._dirichlet_sum(s, q, a, prec), prec)
    want, want_cuts = _reference_dirichlet_sum(s, q, a, prec)
    assert cuts == want_cuts
    assert abs(got - want) < Decimal(11).scaleb(-(prec + 1))


@pytest.mark.parametrize("a, cut", [(5, 3), (10, 2)])
def test_the_exact_tail_rule_takes_a_tie_the_float_rule_misses(a, cut):
    # q (s-1) (qK+a)^(s-1) = 10^(prec+1) exactly at s = 2, q = 5, prec = 1:
    # the integral tail equals target, so K is the cut, where the float rule
    # rounded up to K + 1; both values are within 10^-prec
    assert analytic._tail_end(2, 5, a, 1, analytic._em_cut(1)) == cut
    assert 5 * (5 * cut + a) == 10**2
    mpmath.mp.dps = 30
    exact = mpmath.zeta(2, mpmath.mpf(a) / 5) / 25
    for value in (_fixed(analytic._dirichlet_sum(2, 5, a, 1), 1),
                  _reference_dirichlet_sum(2, 5, a, 1)[0]):
        assert abs(mpmath.mpf(str(value)) - exact) < mpmath.mpf(10) ** -1


@settings(max_examples=100, deadline=None)
@given(st.integers(2, 300),
       st.integers(1, 12).flatmap(lambda q: st.tuples(st.just(q), st.integers(1, q + 1))),
       st.integers(1, 400))
@example(100, (1, 2), 60).via("a lowered cut, 2, that turns and doubles to 4")
@example(40, (4, 1), 80).via("a lowered cut, 26")
@example(300, (12, 13), 400).via("the widest case")
def test_dirichlet_sum_floor_count_against_mpmath(s, qa, prec):
    # the integer loop's stop test counts every floor, so the sum is within
    # 10^-(prec+1) of S(s, q, a) = q^-s zeta(s, a/q) on every path: the
    # default cut, a lowered one, and one that turns and doubles
    q, a = qa
    got = analytic._dirichlet_sum(s, q, a, prec)
    mpmath.mp.dps = prec + 30
    exact = mpmath.zeta(s, mpmath.mpf(a) / q) / mpmath.mpf(q) ** s
    assert abs(mpmath.mpf(got) / mpmath.mpf(10) ** analytic._width(prec) - exact) \
        < mpmath.mpf(10) ** -(prec + 1)


@pytest.mark.parametrize("d", [-3, -4, 5, 8, 12])
@pytest.mark.parametrize("m", [0, 2])
@pytest.mark.parametrize("s", [2, 3, 6])
def test_non_principal_l_values_sum_the_residues_in_one_loop(monkeypatch, d, m, s):
    # chi(a) S(s, q, a) over a = 2..q+1, where q + 1 stands for the residue
    # 1, at prec + len(str(q)) + 1 digits, then one floor to the kernel's
    # width; the value agrees with mpmath's Hurwitz sums within 10^-prec
    chi = RealDirichletCharacter.from_kronecker(d)
    q, prec = chi.modulus, 60
    sums = _counting(monkeypatch, "_dirichlet_sum")
    got = analytic._l_minus_1(s, chi, prec, m)
    residues = [a for a in range(2, q + 2) if chi(a)]
    assert [args[:4] for args in sums] == [(s, q, a, prec + len(str(q)) + 1) for a in residues]
    mpmath.mp.dps = prec + 20
    assert abs(mpmath.mpf(str(got)) - _l_m_reference(s, chi, m)) < mpmath.mpf(10) ** -prec


def test_a_huge_s_costs_no_more_than_the_clamp():
    # above s' = (10^prec).bit_length() + 2 the kernel computes at s', which
    # is within 10^-prec / 2 of any larger s: at s = 10^12 the values are 1
    # to every printed place, and just above s' they match mpmath
    start = time.perf_counter()
    one = Decimal("1.00000000000000")
    assert zeta(10**12, 10) == one
    assert partial_zeta(3, 10**12, 10) == one
    assert l_series(10**12, RealDirichletCharacter.from_kronecker(-4), 10) == one
    assert time.perf_counter() - start < 5
    clamp = (10**40).bit_length() + 2
    mpmath.mp.dps = 60
    for s in (clamp - 1, clamp, clamp + 1, clamp + 40):
        for d in (1, -3):
            chi = RealDirichletCharacter.from_kronecker(d)
            got = mpmath.mpf(str(analytic._l_minus_1(s, chi, 40)))
            assert abs(got - _l_m_reference(s, chi, 0)) < mpmath.mpf(10) ** -40, (s, d)


def test_log10_int_beyond_str_limit():
    assert analytic._log10_int(7) == math.log10(7)
    for n in (10**5000, -(10**5000)):
        assert abs(analytic._log10_int(n) - 5000) < 1e-9
    assert abs(analytic._log10_int(2**20000) - 20000 * math.log10(2)) < 1e-9


def test_zeta_large_s_close_to_one():
    val = zeta(50, 20)
    assert abs(val - 1) < 2 * Decimal(2) ** -50


def test_zeta_rejects_small_s():
    with pytest.raises(ValueError):
        zeta(1, 10)


def test_hurwitz_against_mpmath():
    mpmath.mp.dps = 45
    cases = [(2, Fraction(1)), (2, Fraction(1, 4)), (3, Fraction(2, 5)),
             (5, Fraction(1, 3)), (12, Fraction(3, 7))]
    for s, a in cases:
        ref = mp_ref(mpmath.zeta(s, mpmath.mpf(a.numerator) / a.denominator), 25)
        assert abs(hurwitz_zeta(s, a, 25) - ref) < Decimal("1e-25"), (s, a)


def test_hurwitz_edge_cases():
    assert abs(hurwitz_zeta(2, 1, 20) - zeta(2, 20)) < Decimal("1e-20")
    with pytest.raises(ValueError):
        hurwitz_zeta(2, Fraction(3, 2), 10)
    with pytest.raises(ValueError):
        hurwitz_zeta(2, 0, 10)


def test_hurwitz_zeta_magnitude_budget(monkeypatch):
    # s len(str(q)) up to DIGIT_BUDGET reaches the sum (stubbed, so nothing
    # heavy runs) at digits + GUARD_DIGITS + s len(str(q)); one more is refused
    precs = []
    monkeypatch.setattr(analytic, "_dirichlet_sum", lambda s, q, a, prec: precs.append(prec) or 0)
    for s, a in ((3, "1/3"), (2000, "1/3"), (1000, "1/10")):
        assert hurwitz_zeta(s, a, 2000) == 0
    assert precs == [2013, 4010, 4010]
    for s, a in ((2001, "1/3"), (1001, "1/10"), (2, Fraction(1, 10**1000))):
        with pytest.raises(BudgetExceededError, match="exceed the budget of 2000 digits$"):
            hurwitz_zeta(s, a, 10)
    # a denominator past the int-to-str limit is counted without str()
    with pytest.raises(BudgetExceededError, match=r"2 \* 5001 = 10002, exceed"):
        hurwitz_zeta(2, Fraction(1, 10**5000), 10)
    assert len(precs) == 3


def test_partial_zeta():
    mpmath.mp.dps = 40
    pi2_8 = mp_ref(mpmath.pi**2 / 8, 25)
    assert abs(partial_zeta(1, 2, 25) - pi2_8) < Decimal("1e-25")
    assert partial_zeta(0, 3, 20) == zeta(3, 20)
    expect = mp_ref((1 - mpmath.mpf(1) / 4) * (1 - mpmath.mpf(1) / 9) * mpmath.zeta(2), 20)
    assert abs(partial_zeta(2, 2, 20) - expect) < Decimal("1e-20")


def test_l_series_trivial_and_principal():
    triv = RealDirichletCharacter.trivial()
    assert l_series(3, triv, 20) == zeta(3, 20)
    # principal character mod 2 removes the p = 2 Euler factor
    chi2 = RealDirichletCharacter.from_values([0, 1])
    assert abs(l_series(4, chi2, 20) - partial_zeta(1, 4, 20)) < Decimal("1e-20")


def test_l_series_catalan():
    # alternating odd-square sum, accelerated, as the independent oracle
    chi4 = RealDirichletCharacter.from_kronecker(-4)
    got = l_series(2, chi4, 25)
    oracle = catalan_oracle(25)
    assert abs(got - oracle) < Decimal("1e-24")
    mpmath.mp.dps = 40
    assert abs(got - mp_ref(mpmath.catalan, 25)) < Decimal("1e-25")


def test_l_series_kronecker_five_against_mpmath():
    chi5 = RealDirichletCharacter.from_kronecker(5)
    mpmath.mp.dps = 40
    fifth = mpmath.mpf(1) / 5
    ref = 5**-3 * (mpmath.zeta(3, fifth) - mpmath.zeta(3, 2 * fifth)
                   - mpmath.zeta(3, 3 * fifth) + mpmath.zeta(3, 4 * fifth))
    assert abs(l_series(3, chi5, 15) - mp_ref(ref, 15)) < Decimal("1e-14")


def _l_m_reference(s, chi, m):
    """L(s, chi) prod_{p <= p_m} (1 - chi(p) p^-s) - 1 in mpmath, with L
    from Hurwitz sums over the residues mod q."""
    q = chi.modulus
    value = sum(chi(a) * mpmath.zeta(s, mpmath.mpf(a) / q) for a in range(1, q + 1)) / q**s
    for p in primes_up_to(nth_prime(m)) if m else ():
        value *= 1 - chi(p) * mpmath.mpf(p) ** -s
    return value - 1


def _first_direct_s(q, m, prec):
    """The least s whose L_m-value mod q the kernel sums directly at prec:
    the first s where K = floor(q max(12, prec) / delta) has K^(1-s) / (s-1)
    <= 10^-(prec+1), with delta = prod_{p <= p_m} (1 - 1/p) the share of
    p_m-rough k, so that about q max(12, prec) rough terms lie below K."""
    delta = math.prod(1 - 1 / p for p in (primes_up_to(nth_prime(m)) if m else ()))
    cap = math.floor(q * max(12, prec) / delta)
    return next(s for s in range(2, 1000) if (s - 1) * cap ** (s - 1) >= 10 ** (prec + 1))


@pytest.mark.parametrize("d", [1, -4, -3, 5])
@pytest.mark.parametrize("m", [0, 1, 3, 25])
@pytest.mark.parametrize("s", [2, 3, 7, "below-switch", "switch", 60, 150])
def test_l_minus_1_with_removed_factors_against_mpmath(monkeypatch, d, m, s):
    # below the switch Euler-Maclaurin, except at even s for the principal
    # chi (d = 1), where zeta(s) has a closed form; from the switch on, the
    # direct sum over the p_m-rough k, which calls neither
    chi = RealDirichletCharacter.from_kronecker(d)
    switch = _first_direct_s(chi.modulus, m, 40)
    s = {"below-switch": switch - 1, "switch": switch}.get(s, s)
    sums = _counting(monkeypatch, "_dirichlet_sum")
    closed = _counting(monkeypatch, "_even_zeta_minus_1")
    got = analytic._l_minus_1(s, chi, 40, m)
    closed_form = s < switch and d == 1 and s % 2 == 0
    assert (bool(sums), bool(closed)) == (s < switch and not closed_form, closed_form)
    mpmath.mp.dps = 60
    ref = _l_m_reference(s, chi, m)
    assert abs(mpmath.mpf(str(got)) - ref) < mpmath.mpf(10) ** -40


@pytest.mark.parametrize("d", [1, -3, 5])
@pytest.mark.parametrize("s", [2, 3])
@pytest.mark.parametrize("prec", [40, 300])
def test_l_minus_1_fixed_point_factors_match_the_exact_product(d, s, prec):
    # the removed Euler factors P as an exact Fraction, (P - 1) + P (L - 1);
    # the fixed-point P errs by under 1.52 10^-(prec+3), so they agree to
    # 10^-(prec+2), well inside the kernel's 10^-prec
    chi = RealDirichletCharacter.from_kronecker(d)
    total = analytic._l_minus_1(s, chi, prec)
    for m in (25, 100, 400):
        factors = Fraction(1)
        for p in primes_up_to(nth_prime(m)):
            factors *= 1 - Fraction(chi(p), p**s)
        with localcontext() as ctx:
            ctx.prec = prec + 12
            whole = Decimal(factors.numerator) / Decimal(factors.denominator)
            want = (whole - 1) + whole * total
        assert abs(analytic._l_minus_1(s, chi, prec, m) - want) < Decimal(10) ** -(prec + 2), m


@pytest.mark.parametrize("prec", [40, 300, 1000])
@pytest.mark.parametrize("s", [2, 4, 6, 10, 24, 50, 100, 150, 200, 260])
def test_even_zeta_closed_form_against_euler_maclaurin_and_mpmath(s, prec):
    # two independent routes to zeta(s) - 1: Bernoulli and Machin's pi, and
    # S(s, 1, 2) by Euler-Maclaurin, both ints at the kernel's width; the
    # closed form claims 9 s units there, far inside 10^-(prec+2)
    closed = analytic._even_zeta_minus_1(s, analytic._width(prec))
    assert abs(closed - analytic._dirichlet_sum(s, 1, 2, prec)) < 10 ** (analytic._width(prec) - prec)
    mpmath.mp.dps = prec + 30
    closed = _fixed(closed, prec)
    assert abs(mpmath.mpf(str(closed)) - (mpmath.zeta(s) - 1)) < mpmath.mpf(10) ** -(prec + 2)


def _principal(q):
    return RealDirichletCharacter.from_values([int(math.gcd(a, q) == 1) for a in range(q)])


@pytest.mark.parametrize("q", [4, 5, 12, 412])
@pytest.mark.parametrize("m", [0, 25])
@pytest.mark.parametrize("s", [2, 3, 4, 5])
def test_principal_l_values_through_zeta_match_the_residue_sums(monkeypatch, q, m, s):
    # L_m(s, psi) for psi principal mod q is zeta(s) times prod (1 - p^-s)
    # over the p <= p_m and the p | q; 412 = 4 103 puts 103 > p_25 = 97 into
    # that product.  The reference is the phi(q) residue sums S(s, q, a)
    # with the exact product over p <= p_m, and mpmath's Hurwitz sums
    psi = _principal(q)
    sums = _counting(monkeypatch, "_dirichlet_sum")
    got = analytic._l_minus_1(s, psi, 40, m)
    assert [args[1:3] for args in sums] == ([] if s % 2 == 0 else [(1, 2)])
    monkeypatch.undo()
    work = 40 + len(str(q)) + 1
    with localcontext() as ctx:
        ctx.prec = 60
        residues = sum(_fixed(analytic._dirichlet_sum(s, q, a, work), work)
                       for a in range(2, q + 2) if psi(a))
        factors = Fraction(1)
        for p in primes_up_to(nth_prime(m)) if m else ():
            factors *= 1 - Fraction(psi(p), p**s)
        whole = Decimal(factors.numerator) / Decimal(factors.denominator)
        assert abs(got - ((whole - 1) + whole * residues)) < Decimal(10) ** -40
    mpmath.mp.dps = 60
    assert abs(mpmath.mpf(str(got)) - _l_m_reference(s, psi, m)) < mpmath.mpf(10) ** -40


def test_machin_pi_against_mpmath_and_the_battery_literal(monkeypatch):
    # suites.PI_50 stays a literal, so the battery's zeta(2) check does not
    # rest on this series; a cold cache is widened, then read narrower
    monkeypatch.setattr(arith, "_pi", (0, 3))
    mpmath.mp.dps = 2050
    for width in (50, 2000, 7, 1999, 0):
        got = arith.pi_fixed(width)
        assert abs(got - mpmath.pi * mpmath.mpf(10) ** width) < 2, width
    assert abs(arith.pi_fixed(50) - int(str(suites.PI_50).replace(".", ""))) <= 2
    assert arith._pi[0] >= 2000


@settings(max_examples=150, deadline=None)
@given(st.lists(st.tuples(st.integers(2, 40), st.integers(1, 60), st.integers(1, 40)),
                min_size=1, max_size=8),
       st.sampled_from([0, 50]), st.sampled_from([None, -3, 5]))
@example([(3, 20, 10), (5, 30, 10), (4, 10, 30), (9, 60, 5)], 0, None).via(
    "advance, shrink and rebuild")
def test_a_power_row_holds_what_fresh_divisions_give(calls, start, d):
    # advancing by v //= k^(s' - s) is exact, so after any history the row
    # equals floor(10^W / k^s) at its width W, the sum is that row's sum
    # floored to the width asked for, and a fresh row (width 0) sums
    # exactly as the per-call divisions do
    chi = d and RealDirichletCharacter.from_kronecker(d)
    ks = range(3, 400, 7)
    row = analytic._PowerRow(start)
    for i, (s, n, width) in enumerate(calls):
        terms = [(k, chi(k) if chi else 1) for k in ks[:n]]
        got = row.sum(s, ks[:n], width, chi)
        assert row.width >= width + len(str(n))
        want = sum(c * (10**row.width // k**s) for k, c in terms)
        assert got == want // 10 ** (row.width - width)
        if i == 0 and start == 0:
            assert got == _reference_power_sum(s, terms, width)


def test_euler_product_quadratic_fixture():
    mpmath.mp.dps = 40
    spec = EulerProductSpec(QUAD_H, 1, 15)
    result = euler_product(spec)
    assert result.tail_estimate == 0.0 and not result.heuristic_tail
    assert abs(result.value - mp_ref(8 / mpmath.pi**2, 15)) < Decimal("1e-15")


def _cyclotomic_product(factors, degree):
    """Coefficients of prod (1 - z^n)^k over (n, k) in factors, k >= 0, via
    series multiplication at the product's degree."""
    out = TruncatedSeries.one(degree)
    for n, k in factors:
        out = out * TruncatedSeries([1] + [0] * (n - 1) + [-1], degree) ** k
    return list(out.coeffs)


@settings(max_examples=60, deadline=None)
@given(st.dictionaries(st.integers(1, 6), st.integers(-3, 3).filter(bool), max_size=4),
       st.integers(0, 30), st.integers(1, 3))
def test_exact_factorization_recognises_products(exps, where, bump):
    # h = prod (1 - z^n)^(-e_n): numerator from e_n < 0, denominator from e_n > 0
    items = sorted(exps.items())
    num_deg = sum(-n * e for n, e in items if e < 0)
    den_deg = sum(n * e for n, e in items if e > 0)
    num = _cyclotomic_product([(n, -e) for n, e in items if e < 0], num_deg)
    den = _cyclotomic_product([(n, e) for n, e in items if e > 0], den_deg)
    assert analytic._is_exact_factorization(RationalFunction(num, den), items) is True
    perturbed = list(num) + [0] * max(0, where + 1 - len(num))
    perturbed[where] += bump
    assert analytic._is_exact_factorization(RationalFunction(perturbed, den), items) is False


def test_exact_factorization_of_the_quadratic_fixture():
    # prod_{p > 2} (1 - p^-2) = 8/pi^2 terminates after one factor
    exps = peel_1d(QUAD_H.expand(64)).items()
    assert exps == [(2, -1)]
    assert analytic._is_exact_factorization(QUAD_H, exps) is True
    assert analytic._is_exact_factorization(RationalFunction([1, 0, -1], [1, 0, 1]), exps) is False
    assert analytic._is_exact_factorization(QUAD_H, [(1, 5000)]) is None


def test_euler_product_artin_digits():
    result = euler_product(EulerProductSpec(ARTIN_H, 0, 12))
    assert str(result.value).startswith("0.3739558136")


def test_euler_product_twin_prime():
    spec = EulerProductSpec(TWIN_H, 1, 12)
    via_zeta = euler_product(spec)
    direct = euler_product_direct(spec, 10**7)
    budget = Decimal(str(via_zeta.tail_estimate)) + Decimal(str(direct.tail_estimate))
    assert abs(via_zeta.value - direct.value) < budget + Decimal("1e-11")
    assert str(via_zeta.value).startswith("0.66016181")


def test_euler_product_divergence_detected():
    with pytest.raises(DivergenceError):
        euler_product(EulerProductSpec(TWIN_H, 0, 8))


def test_euler_product_spec_validation():
    with pytest.raises(ValueError):
        EulerProductSpec(RationalFunction([2], [1]), 0, 10)  # h(0) != 1
    with pytest.raises(ValueError):
        EulerProductSpec(RationalFunction([1, 1], [1]), 0, 10)  # linear term
    with pytest.raises(ValueError):
        EulerProductSpec(ARTIN_H, -1, 10)


def test_euler_product_direct_trivial():
    spec = EulerProductSpec(RationalFunction([1], [1]), 0, 10)
    result = euler_product_direct(spec, 10**4)
    assert result.value == 1
    assert euler_product(spec).value == 1


def test_euler_product_direct_quadratic():
    mpmath.mp.dps = 30
    spec = EulerProductSpec(QUAD_H, 1, 10)
    result = euler_product_direct(spec, 10**6)
    assert abs(result.value - mp_ref(8 / mpmath.pi**2, 12)) < Decimal("1e-5")
    assert result.tail_estimate < 1e-6


def test_euler_product_direct_artin_at_ten_million():
    result = euler_product_direct(EulerProductSpec(ARTIN_H, 0, 10), 10**7)
    assert str(result.value).startswith("0.37395581")
    assert abs(result.value - euler_product(EulerProductSpec(ARTIN_H, 0, 10)).value) \
        < Decimal(str(result.tail_estimate)) + Decimal("1e-9")


def test_precision_stability():
    for fn in (lambda d: zeta(7, d),
               lambda d: partial_zeta(2, 4, d),
               lambda d: hurwitz_zeta(3, Fraction(1, 4), d)):
        assert abs(fn(15) - fn(25)) < Decimal("1e-15")


def test_b_chi_trivial_is_one():
    rep = b_chi(RealDirichletCharacter.trivial(), 8)
    assert abs(rep.value - 1) < Decimal("1e-8")


def test_b_chi_cross_route():
    chi = RealDirichletCharacter.from_kronecker(-4)
    rep, direct = b_chi(chi, 8), b_chi_direct(chi, 8, 10**5)
    budget = float(rep.tail_estimate) + float(direct.tail_estimate) + 2e-8
    assert abs(float(rep.value - direct.value)) <= budget


@pytest.mark.parametrize("limit", [1, 0, -5])
def test_b_chi_refuses_a_cross_check_limit_below_two(limit):
    # the direct product's proven tail sums n^-2 over odd n > limit >= 2
    with pytest.raises(ValueError, match="prime_limit must be >= 2"):
        b_chi_direct(RealDirichletCharacter.from_kronecker(-4), 4, limit)


@pytest.mark.parametrize("m, limit, message", [
    (0, 1, "prime_limit must be >= 2, got 1"),
    (3, 5, "prime_limit 5 must exceed p_3 = 5, the last removed prime"),
])
def test_euler_product_direct_refuses_a_limit_without_primes(m, limit, message):
    with pytest.raises(ValueError, match=f"^{message}$"):
        euler_product_direct(EulerProductSpec(ARTIN_H, m, 6), limit)


FIB_RATFUN = RationalFunction([-1], [1, -1, -1])  # -1/(1 - z - z^2)


# h(x, z) = 1 - x z^2, whose twisted product over p not dividing q is 1/L(2, chi)
INVERSE_L2_H = {0: RationalFunction([1], [1]), 1: RationalFunction([1, 0, -1], [1]),
                -1: RationalFunction([1, 0, 1], [1])}


@pytest.mark.parametrize("h", [analytic._BCHI_H, INVERSE_L2_H], ids=["b_chi", "inverse-l2"])
def test_twisted_exponents_rebuild_h_at_plus_and_minus_one(h):
    # prod (1-z^n)^-(Ev+Od) = h(1, z) and prod (1-z^n)^-Ev (1+z^n)^-Od = h(-1, z),
    # with (1+z^n)^-Od = (1-z^n)^Od (1-z^2n)^-Od, exactly to order N
    N = 200
    chi = RealDirichletCharacter.from_kronecker(-4)
    terms = analytic._twisted_exponents(h, chi, N)
    assert {psi for _, psi in terms} <= {chi, chi.square()}
    plus = minus = [[1] + [0] * N]
    for n in range(1, N + 1):
        ev, od = terms.get((n, chi.square()), 0), terms.get((n, chi), 0)
        plus = _mul_factor(plus, n, 0, -ev - od)
        minus = _mul_factor(_mul_factor(minus, n, 0, od - ev), 2 * n, 0, -od)
    assert plus[0] == list(h[1].expand(N).coeffs)
    assert minus[0] == list(h[-1].expand(N).coeffs)


def test_twisted_exponents_of_one_minus_x_z_squared():
    chi = RealDirichletCharacter.from_kronecker(5)
    assert analytic._twisted_exponents(INVERSE_L2_H, chi, 100) == {(2, chi): -1}


def table_route_b_chi(chis, digits):
    """The earlier b_chi, kept as an oracle: a dense Witt table of
    -1/(1-z-z^2), grown until the terms |m(k,r)| 2^-(3r+k) on its last
    row and column are below 10^-(digits+5), then one L-value per
    (3r+k, parity of r) for every term above 10^-(digits+10)."""
    def size(m, k, r):
        return analytic._log10_int(m) - (3 * r + k) * math.log10(2)

    tol = -(digits + 5.0)
    kmax, rmax = 30 * digits + 10, 3 * digits + 10
    while True:
        table = witt_table(FIB_RATFUN.expand(kmax), rmax)
        k_edge = max((size(table.m(kmax, r), kmax, r) for r in range(1, rmax + 1)
                      if table.m(kmax, r)), default=-400.0)
        r_edge = max((size(table.m(k, rmax), k, rmax) for k in range(1, kmax + 1)
                      if table.m(k, rmax)), default=-400.0)
        if k_edge < tol and r_edge < tol:
            break
        kmax = int(kmax * 1.5) if k_edge >= tol else kmax
        rmax = rmax + 2 if r_edge >= tol else rmax
    live = [(k, r, table.m(k, r)) for r in range(1, rmax + 1) for k in range(1, kmax + 1)
            if table.m(k, r) and size(table.m(k, r), k, r) >= -(digits + 10)]
    prec = (digits + 6 + math.ceil(max(analytic._log10_int(m) for _, _, m in live))
            + analytic.GUARD_DIGITS)
    values = []
    for chi in chis:
        with localcontext() as ctx:
            ctx.prec = prec + 12
            ln_l = {}
            total = Decimal(0)
            for k, r, m in live:
                if (3 * r + k, r % 2) not in ln_l:
                    character = chi if r % 2 else chi.square()
                    ln_l[3 * r + k, r % 2] = analytic._ln1p(
                        analytic._l_minus_1(3 * r + k, character, prec))
                total -= m * ln_l[3 * r + k, r % 2]
            values.append(euler_product(EulerProductSpec(ARTIN_H, 0, digits + 8)).value
                          * l_series(2, chi, prec)
                          * l_series(3, chi, prec) / l_series(6, chi.square(), prec)
                          * total.exp())
    return values


def test_b_chi_matches_the_table_route():
    chis = [RealDirichletCharacter.from_kronecker(d) for d in (-4, 5)]
    for chi, oracle in zip(chis, table_route_b_chi(chis, 8)):
        assert abs(b_chi(chi, 8).value - oracle) < Decimal("1e-8")


@pytest.mark.parametrize("digits", [20, 30])
def test_b_chi_beyond_sixteen_digits(digits):
    value = b_chi(RealDirichletCharacter.from_kronecker(-4), digits).value
    assert abs(value - B_CHI_MINUS_4) < Decimal(10) ** -digits


def test_non_integral_h_is_refused_by_the_kernel_and_the_planner():
    h = RationalFunction([2, 0, -1], [2])  # 1 - z^2/2
    message = "h must have an integer-coefficient expansion"
    with pytest.raises(ValueError, match=message):
        _rational_exponents(h, 64)
    with pytest.raises(ValueError, match=message):
        analytic._twisted_product(dict.fromkeys((-1, 0, 1), h),
                                  RealDirichletCharacter.trivial(), 0, 10)
    # at order 2 the c_n are still integers; the Moebius step finds e_2 = -1/2
    with pytest.raises(ValueError, match=message):
        _rational_exponents(h, 2)


def test_convergence_report_fibonacci_tail():
    # the tail of the Fibonacci reciprocal keeps its poles: radius 1/phi
    tail = RationalFunction([0, -1, -1], [1, -1, -1])
    rep = check_convergence_hypotheses(tail)
    assert abs(rep.radius - (math.sqrt(5) - 1) / 2) < 1e-9
    assert rep.radius_ok
    assert rep.g_half > 1 and not rep.g_half_ok
    assert not rep.hypotheses_hold
    assert rep.prime_sum_converges is False


def test_convergence_report_simple_passes():
    rep = check_convergence_hypotheses(TruncatedSeries([0, 1], 20))
    assert math.isinf(rep.radius) and rep.g_half == 0.5 and rep.hypotheses_hold
    rep = check_convergence_hypotheses(TruncatedSeries([0, 0, 3], 20))
    assert rep.g_half == 0.75 and rep.hypotheses_hold
    assert rep.prime_sum_converges is True


def test_convergence_report_estimates_a_truncated_radius_from_coefficient_growth():
    # z/(1 - z - z^2) to order 30: the root ratio (F_23 / F_30)^(1/7) of the
    # trailing window is 1/phi to 1e-9
    rep = check_convergence_hypotheses(RationalFunction([0, 1], [1, -1, -1]).expand(30))
    assert rep.radius_method == "coefficient-growth (estimated from the truncated window)"
    assert abs(rep.radius - (math.sqrt(5) - 1) / 2) < 1e-9
    assert rep.radius_ok and not rep.g_half_ok and not rep.hypotheses_hold
    assert rep.prime_sum_converges is False


@pytest.mark.parametrize("den, radius", [([1, -2], 0.5), ([1, -3], 1 / 3), ([1, 0, -2], 0.5 ** 0.5)])
def test_truncated_geometric_radius_is_exact(den, radius):
    # the root ratio is exact on a geometric tail: z/(1 - 2z) has radius
    # exactly 1/2, which the hypothesis radius > 1/2 excludes; 1 - 2z^2
    # leaves every other coefficient zero
    rep = check_convergence_hypotheses(RationalFunction([0, 1], den).expand(30))
    assert rep.radius == pytest.approx(radius, rel=1e-12)
    assert rep.radius_ok is (radius > 0.5)


def test_truncated_radius_from_a_single_coefficient():
    # one nonzero coefficient past the half order: |a_j|^(-1/j)
    rep = check_convergence_hypotheses(TruncatedSeries([0] * 20 + [5], 29))
    assert rep.radius == 5 ** (-1 / 20) and rep.radius_ok


def test_convergence_report_of_the_zero_series():
    rep = check_convergence_hypotheses(TruncatedSeries([0], 10))
    assert math.isinf(rep.radius) and rep.g_half == 0 and rep.hypotheses_hold
    assert rep.prime_sum_converges is None


def test_convergence_requires_zero_constant_term():
    with pytest.raises(ValueError):
        check_convergence_hypotheses(TruncatedSeries([1, 1], 8))
    with pytest.raises(ValueError):
        check_convergence_hypotheses(RationalFunction([-1], [1, -1, -1]))


# -- the proven cutoff ----------------------------------------------------

def _divmod_poly(a, b):
    """(quotient, remainder) of two coefficient lists from the top degree
    down, exactly in Fractions; b[0] != 0."""
    a, quotient = list(a), []
    while len(a) >= len(b):
        c = a[0] / b[0]
        quotient.append(c)
        a = [x - c * y for x, y in zip(a, b + [0] * (len(a) - len(b)))][1:]
    while a and a[0] == 0:
        a.pop(0)
    return quotient, a


def _squarefree(poly):
    """P / gcd(P, P') for P with coefficients from the top degree down, in
    exact Fractions: the distinct roots of P, each of them simple."""
    p = [Fraction(c) for c in poly]
    g, r = p, [c * (len(p) - 1 - i) for i, c in enumerate(p[:-1])]
    while r:
        g, r = r, _divmod_poly(g, r)[1]
    return _divmod_poly(p, g)[0]


def _reciprocal_root_moduli(poly):
    # mpmath takes coefficients from the top degree down, so the ascending
    # list of poly, read that way, is its reversal, whose roots are the
    # reciprocal roots of poly.  polyroots may not converge on a repeated
    # root, so it runs on the squarefree part, which has the same roots
    if len(poly) == 1:
        return [mpmath.mpf(0)]
    mpmath.mp.dps = 50
    simple = _squarefree(poly)
    scale = math.lcm(*(c.denominator for c in simple))
    return [abs(r) for r in mpmath.polyroots([int(c * scale) for c in simple],
                                             maxsteps=2000, extraprec=300)]


@settings(max_examples=60, deadline=None)
@given(st.lists(st.integers(-12, 12), min_size=1, max_size=6)
       .filter(lambda p: p[0] != 0 and p[-1] != 0))
@example([4, 10, 10, 10, 10, 4]).via("a triple root at -1, where polyroots did not converge")
def test_root_bound_bounds_every_reciprocal_root(poly):
    rho = analytic._root_bound(poly)
    assert isinstance(rho, Fraction)
    top = max(_reciprocal_root_moduli(poly))
    assert mpmath.mpf(rho.numerator) / rho.denominator >= top * (1 - mpmath.mpf(10) ** -20)


@pytest.mark.parametrize("poly", [[1, -1, -1], [1, -1, -1, -1], [1, -2]],
                         ids=["artin-num", "g-minus-den", "1-2z"])
def test_root_bound_is_tight_where_cauchy_is_exact(poly):
    # Artin's numerator (the golden ratio), G-'s denominator (the
    # tribonacci constant) and 1 - 2z
    top = max(_reciprocal_root_moduli(poly))
    rho = analytic._root_bound(poly)
    assert top <= mpmath.mpf(rho.numerator) / rho.denominator <= top * (1 + mpmath.mpf(10) ** -9)


def _fraction_root_bound(poly):
    """_root_bound by bisection on Fractions, the oracle for its integer loop."""
    poly = list(poly)
    while len(poly) > 1 and poly[-1] == 0:
        poly.pop()
    d, best = len(poly) - 1, None
    for power in (1, 2, 4, 8, 16) if d else ():
        def at_or_above(x):  # sign of q^d C(p/q), p/q = x^power
            p, q, acc = x.numerator**power, x.denominator**power, abs(poly[0])
            for i in range(1, d + 1):
                acc = acc * p - abs(poly[i]) * q**i
            return acc >= 0

        lo, hi = Fraction(0), Fraction(1)
        while not at_or_above(hi):
            lo, hi = hi, 2 * hi
        for _ in range(50):
            mid = (lo + hi) / 2
            lo, hi = (lo, mid) if at_or_above(mid) else (mid, hi)
        best = hi if best is None else min(best, hi)
        poly = [sum((-1) ** j * poly[j] * poly[i - j] for j in range(max(0, i - d), min(i, d) + 1))
                for i in range(0, 2 * d + 1, 2)]
    return best or Fraction(0)


@settings(max_examples=200, deadline=None)
@given(st.lists(st.integers(-20, 20), min_size=1, max_size=6)
       | st.lists(st.integers(-10**40, 10**40), min_size=1, max_size=6))
@example([1, 0, 0, -2**200]).via("a bound above 2^51")
@example([1, 3, -2**120]).via("a bound above 2^51")
def test_root_bound_equals_the_fraction_bisection(poly):
    # the cutoffs, and so every Euler product, depend on rho exactly
    poly[0] = poly[0] or 1
    assert analytic._root_bound(poly) == _fraction_root_bound(poly)


def test_root_bound_of_a_double_root():
    # Cauchy's bound of (1 - z)^2 is 1 + sqrt(2); Graeffe's steps bring it near 1
    assert 1 <= analytic._root_bound([1, -2, 1]) < Fraction(6, 5)
    assert analytic._root_bound([5]) == 0 == analytic._root_bound([3, 0, 0])


def _bound_terms(deg, rho, base, upto):
    """w_n tau_n / (1 - tau_n) of _cutoff's bound for n = 2..upto, in mpmath."""
    mpmath.mp.dps = 40
    R = max(mpmath.mpf(rho.numerator) / rho.denominator, 1)
    out = {}
    for n in range(2, upto + 1):
        tau = mpmath.mpf(base) ** -n + mpmath.mpf(base) ** (1 - n) / (n - 1)
        w = mpmath.mpf(deg) / n * sum(R**d for d in divisors(n))
        out[n] = w * tau / (1 - tau)
    return out


@pytest.mark.parametrize("deg, rho, base, digits", [
    (3, Fraction(1618034, 1000000), 2, 10),    # Artin, m = 0
    (3, Fraction(2), 3, 20),                   # twin prime, m = 1
    (32, Fraction(1839287, 1000000), 3, 12),   # a heavier weight, same roots
    (18, Fraction(1839287, 1000000), 3, 12),   # b_chi for chi_-4: 3 (0 + 6)
    (2, Fraction(1), 3, 15),                   # roots on the unit circle
    (3, Fraction(1618034, 1000000), 17, 200),  # Artin, m = 6
], ids=["artin", "twin", "b_chi", "b_chi-twisted", "unit-circle", "artin-m6"])
def test_cutoff_bounds_the_exact_tail_sum(deg, rho, base, digits):
    # _cutoff's closed form against the sum it bounds, term by term
    N, tail = analytic._cutoff(deg, rho, base, digits)
    target = mpmath.mpf(10) ** -(digits + 4)
    terms = _bound_terms(deg, rho, base, N + 1500)
    after = sum(t for n, t in terms.items() if n > N)
    assert terms[N + 1500] < after * mpmath.mpf(10) ** -30  # the rest is negligible
    assert after <= mpmath.mpf(str(tail)) * (1 + 1e-9) and tail <= Decimal(10) ** -(digits + 4)
    # the cutoff is at most two orders above the least the exact sum allows
    assert after + terms[N] + terms[N - 1] + terms[N - 2] > target


def test_cutoff_refuses_divergence_and_impractical_orders():
    with pytest.raises(DivergenceError, match="increase m"):
        analytic._cutoff(3, Fraction(2), 2, 10)
    with pytest.raises(ValueError, match="impractical cutoff"):
        analytic._cutoff(3, Fraction(2), 3, 5000)


@pytest.mark.parametrize("digits", [310, 400])
def test_cutoff_tail_stays_positive_below_the_float_range(digits):
    _, tail = analytic._cutoff(*analytic._roots(ARTIN_H), 2, digits)
    assert 0 < tail <= Decimal(10) ** -(digits + 4)


def test_euler_product_tail_below_the_float_range():
    result = euler_product(EulerProductSpec(ARTIN_H, 6, 330))
    assert 0 < result.tail_estimate <= Decimal(10) ** -334
    text = result.to_json_dict()["tail_estimate"]
    assert abs(Decimal(text) / result.tail_estimate - 1) < Decimal("1e-3")


@pytest.mark.parametrize("x", [0.0, 3.2e-6, 9.99951e-5, 1.2345678e-100, 2.5e5, 5e-300])
def test_tail_text_is_the_float_text(x):
    assert analytic._sci(Decimal(x)) == f"{x:.3e}"


def _counting(monkeypatch, name):
    calls = []
    inner = getattr(analytic, name)

    def counted(*args):
        calls.append(args)
        return inner(*args)

    monkeypatch.setattr(analytic, name, counted)
    return calls


@pytest.mark.parametrize("run", [
    lambda: b_chi(RealDirichletCharacter.from_kronecker(5), 3000),
    lambda: euler_product(EulerProductSpec(TWIN_H, 1, 5000)),
], ids=["b_chi-kronecker5-D3000", "twin-m1-D5000"])
def test_oversized_requests_fail_before_any_value(monkeypatch, run):
    sums = _counting(monkeypatch, "_dirichlet_sum")
    exponents = _counting(monkeypatch, "_rational_exponents")
    with pytest.raises(ValueError, match="^requested precision needs an impractical cutoff$"):
        run()
    assert sums == [] and exponents == []


@pytest.mark.parametrize("digits", [8, 16])
def test_b_chi_trivial_is_exactly_one_without_l_values(monkeypatch, digits):
    calls = _counting(monkeypatch, "_l_minus_1")
    rep = b_chi(RealDirichletCharacter.trivial(), digits)
    assert rep.value == 1 and calls == []
    assert rep.to_json_dict()["heuristic_tail"] is False


def test_bchi_terms_vanish_for_the_trivial_character():
    # Ev(n) + Od(n) = E+(n) = 0 for every n, since h(1, z) = 1
    assert analytic._twisted_exponents(analytic._BCHI_H, RealDirichletCharacter.trivial(),
                                       200) == {}


@pytest.mark.parametrize("values, exact", [((0, 1, 0, 1), "0.5"), ((0, 1, 0, 0, 0, 1), "5/12")],
                         ids=["mod-4", "mod-6"])
def test_b_chi_of_a_principal_character_is_exact(monkeypatch, values, exact):
    # h(1, z) = 1 leaves only the exact factors h(0, 1/p) = 1 - 1/(p^2 - p), p | q
    calls = _counting(monkeypatch, "_l_minus_1")
    rep = b_chi(RealDirichletCharacter.from_values(values), 12)
    exact = Fraction(exact)
    assert rep.value == analytic._quantize(Decimal(exact.numerator) / Decimal(exact.denominator), 12)
    assert calls == [] and rep.tail_estimate == 0


def test_l_values_take_the_direct_sum_where_it_is_shorter(monkeypatch):
    # with Euler-Maclaurin for every exponent these made 714 and 487 attempts
    attempts = _em_cuts(monkeypatch)
    euler_product(EulerProductSpec(ARTIN_H, 0, 60))
    assert len(attempts) < 100
    attempts.clear()
    b_chi(RealDirichletCharacter.from_kronecker(-4), 12)
    assert len(attempts) < 150


def test_the_planner_removes_the_small_primes_before_any_l_value(monkeypatch):
    # with m' = 25 every L-value starts at k = 101, so few reach
    # Euler-Maclaurin and most are short rough sums; planning at the user's
    # m = 0 took 676 L-values for Artin at D = 60 and 862 for b_chi(chi_5, 12),
    # whose terms fell like (1.839/2)^n because chi_5(2) != 0
    calls = _counting(monkeypatch, "_l_minus_1")
    result = euler_product(EulerProductSpec(ARTIN_H, 0, 60))
    assert len(calls) < 60 and result.removed_primes == 25
    calls.clear()
    result = b_chi(RealDirichletCharacter.from_kronecker(5), 12)
    assert len(calls) < 40 and result.removed_primes == 25
    assert all(args[3] == 25 and args[4] is calls[0][4] for args in calls)  # one shared sieve


_PLANNED = {
    "artin": (dict.fromkeys((-1, 0, 1), ARTIN_H), RealDirichletCharacter.trivial(), 30),
    "b_chi-kronecker5": (analytic._BCHI_H, RealDirichletCharacter.from_kronecker(5), 30),
    # 101 | q lies just above p_25 = 97: h(0) alone covers it while m <= 25
    "b_chi-kronecker101": (analytic._BCHI_H, RealDirichletCharacter.from_kronecker(101), 12),
}


@pytest.mark.parametrize("case", list(_PLANNED))
@pytest.mark.parametrize("m", [0, 24, 25, 26, 30])
def test_the_planner_agrees_with_the_direct_product_around_m_prime(case, m):
    # the plan removes m' = max(m, 25) primes, the direct product the
    # user's m; m = 24, 25, 26 straddle m' = m
    h, chi, digits = _PLANNED[case]
    planned = analytic._twisted_product(h, chi, m, digits)
    direct = analytic._twisted_direct(h, chi, m, 10**5, digits)
    assert (planned.removed_primes, direct.removed_primes) == (max(m, 25), m)
    assert direct.tail_estimate.is_finite()
    assert abs(planned.value - direct.value) <= direct.tail_estimate


@pytest.mark.parametrize("run, digits", [
    (lambda digits: euler_product(EulerProductSpec(ARTIN_H, 0, digits)).value, 200),
    (lambda digits: euler_product(EulerProductSpec(TWIN_H, 1, digits)).value, 150),
    (lambda digits: b_chi(RealDirichletCharacter.from_kronecker(5), digits).value, 30),
    (lambda digits: b_chi(RealDirichletCharacter.from_kronecker(-3), digits).value, 30),
    (lambda digits: euler_product(EulerProductSpec(ARTIN_H, 6, digits)).value, 200),
    (lambda digits: b_chi(RealDirichletCharacter.from_kronecker(8), digits).value, 30),
    (lambda digits: b_chi(RealDirichletCharacter.from_kronecker(-7), digits).value, 30),
    (lambda digits: b_chi(RealDirichletCharacter.from_kronecker(13), digits).value, 30),
], ids=["artin-m0-D200", "twin-m1-D150", "b_chi-kronecker5-D30", "b_chi-kronecker-3-D30",
        "artin-m6-D200", "b_chi-kronecker8-D30", "b_chi-kronecker-7-D30",
        "b_chi-kronecker13-D30"])
def test_values_agree_with_ten_more_digits(run, digits):
    assert abs(run(digits) - run(digits + 10)) <= Decimal(10) ** -digits


@pytest.mark.parametrize("d", [-4, -3, 5, 8])
@pytest.mark.parametrize("limit", [2, 97, 5000])
def test_b_chi_direct_matches_the_fraction_formula(d, limit):
    chi = RealDirichletCharacter.from_kronecker(d)
    with localcontext() as ctx:
        ctx.prec = 20 + analytic.GUARD_DIGITS + 12
        value = Decimal(1)
        for p in primes_up_to(limit):
            f = 1 + Fraction((chi(p) - 1) * p, (p * p - chi(p)) * (p - 1))
            value *= Decimal(f.numerator) / Decimal(f.denominator)
        value = +value
    assert analytic._twisted_direct(analytic._BCHI_H, chi, 0, limit, 20).value \
        == analytic._quantize(value, 20)


@pytest.mark.parametrize("h, m", [(ARTIN_H, 0), (ARTIN_H, 6), (TWIN_H, 1), (QUAD_H, 1)],
                         ids=["artin-m0", "artin-m6", "twin-m1", "quad-m1"])
@pytest.mark.parametrize("limit", [None, 97, 5000], ids=["smallest", "97", "5000"])
def test_euler_product_direct_matches_the_literal_product(h, m, limit):
    limit = limit or (nth_prime(m) + 1 if m else 2)
    with localcontext() as ctx:
        ctx.prec = 12 + analytic.GUARD_DIGITS + 12
        value = Decimal(1)
        for p in primes_up_to(limit)[m:]:
            f = (sum(Fraction(c, p**i) for i, c in enumerate(h.num))
                 / sum(Fraction(c, p**i) for i, c in enumerate(h.den)))
            value *= Decimal(f.numerator) / Decimal(f.denominator)
        value = +value
    result = euler_product_direct(EulerProductSpec(h, m, 12), limit)
    assert str(result.value) == str(analytic._quantize(value, 12))


def test_euler_product_direct_names_a_prime_at_a_pole():
    # (1 - z^2) / (1 - 4 z^2) has a pole at z = 1/2
    spec = EulerProductSpec(RationalFunction([1, 0, -1], [1, 0, -4]), 0, 10)
    with pytest.raises(DivergenceError, match="pole at p = 2$"):
        euler_product_direct(spec, 10)


@pytest.mark.parametrize("h, m", [(ARTIN_H, 0), (ARTIN_H, 6), (TWIN_H, 1), (QUAD_H, 1)],
                         ids=["artin-m0", "artin-m6", "twin-m1", "quad-m1"])
@pytest.mark.parametrize("limit", [None, 97, 10**4], ids=["smallest", "97", "10000"])
def test_direct_tail_bounds_the_gap_to_the_infinite_product(h, m, limit):
    limit = limit or (nth_prime(m) + 1 if m else 2)
    value = euler_product(EulerProductSpec(h, m, 30)).value
    direct = euler_product_direct(EulerProductSpec(h, m, 30), limit)
    assert direct.heuristic_tail is False and direct.tail_estimate.is_finite()
    assert abs(value - direct.value) <= direct.tail_estimate


@pytest.mark.parametrize("d", [-4, -3, 5, 8, 12])
@pytest.mark.parametrize("limit", [2, 97, 10**4])
def test_b_chi_direct_tail_bounds_the_gap_to_the_infinite_product(d, limit):
    chi = RealDirichletCharacter.from_kronecker(d)
    rep, direct = b_chi(chi, 30), b_chi_direct(chi, 30, limit)
    assert rep.to_json_dict()["heuristic_tail"] is False
    assert direct.tail_estimate.is_finite()
    assert abs(rep.value - direct.value) <= direct.tail_estimate


def test_the_planners_direct_product_has_no_tail(monkeypatch):
    # two calls per product: the whole h over p_m < p <= p_m' (m' = 25 here),
    # where the L-values take over, and h(0) alone over the p | q above
    # p_m' up to the limit q, where every prime above q has chi(p) = +-1
    # and h = 1, so that second product has tail 0
    calls = []
    direct = analytic._twisted_direct

    def recorded(h, chi, m, limit, digits):
        calls.append((h, chi.modulus, m, limit, direct(h, chi, m, limit, digits)))
        return calls[-1][4]

    monkeypatch.setattr(analytic, "_twisted_direct", recorded)
    for d in (-4, 12, -20, 1):
        b_chi(RealDirichletCharacter.from_kronecker(d), 12)
    euler_product(EulerProductSpec(ARTIN_H, 6, 12))
    moduli, user_m = [4, 12, 20, 1, 1], [0, 0, 0, 0, 6]
    assert [(q, m, limit) for _, q, m, limit, _ in calls] == [
        call for q, m in zip(moduli, user_m) for call in ((q, m, 97), (q, 25, q))]
    assert [h[0] for h, *_ in calls] == [analytic._BCHI_H[0]] * 8 + [ARTIN_H] * 2
    assert all(h[1] == h[-1] == analytic._ONE and result.tail_estimate == 0
               for h, _, m, _, result in calls if m == 25)


def test_a_direct_tail_past_its_majorant_is_infinite():
    # |1 - 3t| has no positive lower bound on 0 < t <= 1/3, the primes above 2
    spec = EulerProductSpec(RationalFunction([1, -3, -1], [1, -3]), 0, 10)
    result = euler_product_direct(spec, 2)
    assert result.heuristic_tail is False and result.tail_estimate.is_infinite()
    assert json.loads(json.dumps(result.to_json_dict()))["tail_estimate"] == "inf"


def test_direct_tail_needs_h_minus_one_of_order_two():
    h = dict.fromkeys((-1, 0, 1), RationalFunction([1, 1], [1]))
    with pytest.raises(ValueError, match=r"must be O\(z\^2\)"):
        analytic._twisted_direct(h, RealDirichletCharacter.trivial(), 0, 10, 8)


def test_a_pole_at_a_prime_dividing_the_modulus_is_named():
    # h(0, z) = 1 / (1 - 4 z^2) has a pole at z = 1/2, and 2 | 4
    h = {-1: analytic._ONE, 0: RationalFunction([1], [1, 0, -4]), 1: analytic._ONE}
    with pytest.raises(DivergenceError, match="pole at p = 2$"):
        analytic._twisted_product(h, RealDirichletCharacter.from_kronecker(-4), 0, 8)


def test_b_chi_builds_chi_squared_once(monkeypatch):
    # every construction of a character reruns its O(q^2) multiplicativity check
    calls = []
    square = RealDirichletCharacter.square

    def counted(chi):
        calls.append(chi)
        return square(chi)

    monkeypatch.setattr(RealDirichletCharacter, "square", counted)
    for d in (-4, 5, 1):
        calls.clear()
        chi = RealDirichletCharacter.from_kronecker(d)
        b_chi(chi, 8)
        b_chi_direct(chi, 8, 97)
        assert len(calls) == 1, d


def test_b_chi_computes_each_l_value_once(monkeypatch):
    chi = RealDirichletCharacter.from_kronecker(-4)
    calls = _counting(monkeypatch, "_l_minus_1")
    cutoff = b_chi(chi, 30).cutoff
    keys = [(s, character) for s, character, *_ in calls]
    assert len(set(keys)) == len(keys) <= 2 * (cutoff + 1)


def _minus_one(n, allowed, limit=1000):
    """sum_{2 <= k <= limit} allowed(k) k^-n in mpmath: zeta_m(n) - 1 or
    L_m(n, psi) - 1, far past what the cutoffs below need (their first term
    is k = 101, the least 97-rough k)."""
    return sum(a * mpmath.mpf(k) ** -n for k in range(2, limit + 1) if (a := allowed(k)))


def _log_sum(terms):
    """|sum e ln(1 + t)| over (e, n, allowed) with t = _minus_one(n, allowed)."""
    mpmath.mp.dps = 50
    return abs(sum(e * mpmath.log1p(_minus_one(n, allowed)) for e, n, allowed in terms))


def _rough_indicator(m):
    """k -> 1 if k has no prime factor <= p_m, else 0, for k <= 1000."""
    rough = {k for k in range(2, 1001) if all(k % p for p in primes_up_to(nth_prime(m)))}
    return lambda k: int(k in rough)


@pytest.mark.parametrize("h, m, digits", [(ARTIN_H, 0, 10), (ARTIN_H, 0, 30), (TWIN_H, 1, 20)],
                         ids=["artin-m0-D10", "artin-m0-D30", "twin-m1-D20"])
def test_proven_tail_bounds_the_omitted_factors(h, m, digits):
    # the omitted L-values are those of the plan that ran: L_m'(n) with the
    # first m' = removed_primes primes taken out
    result = euler_product(EulerProductSpec(h, m, digits))
    assert result.heuristic_tail is False and result.tail_estimate > 0
    assert result.removed_primes == 25
    N = result.cutoff
    rough = _rough_indicator(result.removed_primes)

    omitted = [(e, n, rough) for n, e in _rational_exponents(h, N + 400).items() if n > N]
    assert _log_sum(omitted) <= mpmath.mpf(str(result.tail_estimate))


def test_proven_b_chi_tail_bounds_the_omitted_factors():
    chi = RealDirichletCharacter.from_kronecker(-4)
    rep = b_chi(chi, 12)
    planned = analytic._twisted_product(analytic._BCHI_H, chi, 0, 12)
    cutoff, tail = planned.cutoff, planned.tail_estimate
    assert rep.tail_estimate == tail and rep.cutoff == cutoff
    assert rep.removed_primes == planned.removed_primes == 25
    rough = _rough_indicator(rep.removed_primes)
    omitted = [(e, n, lambda k, psi=psi: psi(k) * rough(k)) for (n, psi), e in
               analytic._twisted_exponents(analytic._BCHI_H, chi, cutoff + 400).items()
               if n > cutoff]
    assert _log_sum(omitted) <= mpmath.mpf(str(tail))


def test_analytic_battery_computes_each_euler_product_once(monkeypatch):
    # Artin, twin prime and 8/pi^2 at D and D + 10: six products, each
    # reused by the first-digits, cross-check, closed-form and stability checks
    calls = []
    real = suites.euler_product
    monkeypatch.setattr(suites, "euler_product",
                        lambda spec: calls.append((spec.h, spec.m, spec.digits)) or real(spec))
    result = suites.analytic_battery(digits=12, prime_limit=10**5, bchi_digits=8)
    assert (result.checks, result.failures) == (20, [])
    assert len(calls) == 6
    assert set(calls) == {(h, m, d) for h, m in [(suites.ARTIN_H, 0), (suites.TWIN_H, 1),
                                                  (suites.QUAD_H, 1)] for d in (12, 22)}


@pytest.mark.parametrize("prime_limit", [10**4, 10**3, 100, 10])
def test_analytic_battery_passes_at_a_small_prime_limit(prime_limit):
    # the b_chi routes differ by 3.2e-06 (kronecker(-4)) and 1.2e-06
    # (kronecker(5)) at 10^4, inside their proven budgets of 3.4e-05 and
    # 1.4e-05: each difference is held to its budget alone
    result = suites.analytic_battery(digits=6, prime_limit=prime_limit, bchi_digits=6)
    assert (result.checks, result.failures) == (20, [])


def test_analytic_battery_refuses_digits_beyond_its_pi_places():
    # PI_50 holds 50 decimals: at 50 digits every check passes, while at 51
    # the three pi closed forms would read as false failures
    result = suites.analytic_battery(digits=50, prime_limit=100, bchi_digits=6)
    assert (result.checks, result.failures) == (20, [])
    for digits in (51, 55):
        with pytest.raises(ValueError, match=f"^digits must be <= 50, the places of PI_50, got {digits}$"):
            suites.analytic_battery(digits=digits, prime_limit=100, bchi_digits=6)
