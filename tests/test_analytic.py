import math
from decimal import Decimal
from fractions import Fraction

import mpmath
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import catalan_oracle
from wittkit import analytic
from wittkit.analytic import (
    EulerProductSpec,
    b_chi,
    check_convergence_hypotheses,
    euler_product,
    euler_product_direct,
    hurwitz_zeta,
    l_series,
    partial_zeta,
    zeta,
)
from wittkit.characters import RealDirichletCharacter
from wittkit.errors import DivergenceError
from wittkit.expansion import peel_1d
from wittkit.series import RationalFunction, TruncatedSeries

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


def test_em_cut_doubling_path(monkeypatch):
    # zeta(100) at 50 digits: the first cut leaves the integral tail below
    # target but the corrections diverge, so the cut has to double
    cuts = []
    attempt = analytic._em_attempt

    def counting(s, q, a, cut, prec, target):
        value, ok = attempt(s, q, a, cut, prec, target)
        cuts.append((cut, ok))
        return value, ok

    monkeypatch.setattr(analytic, "_em_attempt", counting)
    value = zeta(100, 50)
    assert len(cuts) >= 2 and not cuts[0][1] and cuts[-1][1]
    assert cuts[1][0] == 2 * cuts[0][0]
    mpmath.mp.dps = 70
    assert abs(value - mp_ref(mpmath.zeta(100), 50)) < Decimal("1e-50")


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
    rep = b_chi(chi, 8, cross_check_limit=10**5)
    budget = rep.tail_estimate + rep.direct_tail_estimate + 2e-8
    assert rep.difference <= budget


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


def test_convergence_requires_zero_constant_term():
    with pytest.raises(ValueError):
        check_convergence_hypotheses(TruncatedSeries([1, 1], 8))
    with pytest.raises(ValueError):
        check_convergence_hypotheses(RationalFunction([-1], [1, -1, -1]))
