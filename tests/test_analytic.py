import json
import math
from decimal import Decimal, localcontext
from fractions import Fraction

import mpmath
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import B_CHI_MINUS_4, catalan_oracle
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
from wittkit.arith import divisors, nth_prime, primes_up_to
from wittkit.characters import RealDirichletCharacter
from wittkit.errors import DivergenceError
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


def test_em_cut_doubling_path(monkeypatch):
    # S(100, 1, 2) = zeta(100) - 1 at 60 digits: the first cut (2) leaves the
    # integral tail below target but the corrections diverge, so the cut has
    # to double (zeta(100) itself takes the direct rough sum, without EM)
    cuts = []
    attempt = analytic._em_attempt

    def counting(s, q, a, cut, prec, target):
        value, ok = attempt(s, q, a, cut, prec, target)
        cuts.append((cut, ok))
        return value, ok

    monkeypatch.setattr(analytic, "_em_attempt", counting)
    value = analytic._dirichlet_sum(100, 1, 2, 60)
    assert len(cuts) >= 2 and not cuts[0][1] and cuts[-1][1]
    assert cuts[1][0] == 2 * cuts[0][0]
    mpmath.mp.dps = 80
    assert abs(mpmath.mpf(str(value)) - (mpmath.zeta(100) - 1)) < mpmath.mpf(10) ** -60


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


def _l_m_reference(s, chi, m):
    """L(s, chi) prod_{p <= p_m} (1 - chi(p) p^-s) - 1 in mpmath, with L
    from Hurwitz sums over the residues mod q."""
    q = chi.modulus
    value = sum(chi(a) * mpmath.zeta(s, mpmath.mpf(a) / q) for a in range(1, q + 1)) / q**s
    for p in primes_up_to(nth_prime(m)) if m else ():
        value *= 1 - chi(p) * mpmath.mpf(p) ** -s
    return value - 1


def _first_direct_s(q, prec):
    """The least s whose L-value mod q the kernel sums directly at prec: the
    first s where K = q max(12, 2 prec / 5) has K^(1-s) / (s-1) <= 10^-(prec+1)."""
    cap = q * max(12, 2 * prec // 5)
    return next(s for s in range(2, 1000) if (s - 1) * cap ** (s - 1) >= 10 ** (prec + 1))


@pytest.mark.parametrize("d", [1, -4, -3, 5])
@pytest.mark.parametrize("m", [0, 1, 3, 25])
@pytest.mark.parametrize("s", [2, 3, 7, "below-switch", "switch", 60, 150])
def test_l_minus_1_with_removed_factors_against_mpmath(monkeypatch, d, m, s):
    # s = 2, 3, 7 take Euler-Maclaurin; from the switch on, the direct sum
    # over the p_m-rough k, which calls no S(s, q, a)
    chi = RealDirichletCharacter.from_kronecker(d)
    switch = _first_direct_s(chi.modulus, 40)
    s = {"below-switch": switch - 1, "switch": switch}.get(s, s)
    sums = _counting(monkeypatch, "_dirichlet_sum")
    got = analytic._l_minus_1(s, chi, 40, m)
    assert bool(sums) == (s < switch)
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
    budget = float(rep.tail_estimate) + rep.direct_tail_estimate + 2e-8
    assert rep.difference <= budget


@pytest.mark.parametrize("limit", [1, 0, -5])
def test_b_chi_refuses_a_cross_check_limit_below_two(limit):
    # the direct product's proven tail sums n^-2 over odd n > limit >= 2
    with pytest.raises(ValueError, match="cross_check_limit must be >= 2"):
        b_chi(RealDirichletCharacter.from_kronecker(-4), 4, cross_check_limit=limit)


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


def test_convergence_requires_zero_constant_term():
    with pytest.raises(ValueError):
        check_convergence_hypotheses(TruncatedSeries([1, 1], 8))
    with pytest.raises(ValueError):
        check_convergence_hypotheses(RationalFunction([-1], [1, -1, -1]))


# -- the proven cutoff ----------------------------------------------------

def _reciprocal_root_moduli(poly):
    # mpmath takes coefficients from the top degree down, so the ascending
    # list of poly, read that way, is its reversal
    if len(poly) == 1:
        return [mpmath.mpf(0)]
    mpmath.mp.dps = 50
    return [abs(r) for r in mpmath.polyroots(poly, maxsteps=2000, extraprec=300)]


@settings(max_examples=60, deadline=None)
@given(st.lists(st.integers(-12, 12), min_size=1, max_size=6)
       .filter(lambda p: p[0] != 0 and p[-1] != 0))
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
    attempts = _counting(monkeypatch, "_em_attempt")
    euler_product(EulerProductSpec(ARTIN_H, 0, 60))
    assert len(attempts) < 100
    attempts.clear()
    b_chi(RealDirichletCharacter.from_kronecker(-4), 12)
    assert len(attempts) < 150


@pytest.mark.parametrize("run, digits", [
    (lambda digits: euler_product(EulerProductSpec(ARTIN_H, 0, digits)).value, 200),
    (lambda digits: euler_product(EulerProductSpec(TWIN_H, 1, digits)).value, 150),
    (lambda digits: b_chi(RealDirichletCharacter.from_kronecker(5), digits).value, 30),
    (lambda digits: b_chi(RealDirichletCharacter.from_kronecker(-3), digits).value, 30),
], ids=["artin-m0-D200", "twin-m1-D150", "b_chi-kronecker5-D30", "b_chi-kronecker-3-D30"])
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
    assert analytic._twisted_direct(analytic._BCHI_H, chi, 0, limit, 20)[0] \
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
    rep = b_chi(RealDirichletCharacter.from_kronecker(d), 30, cross_check_limit=limit)
    assert rep.to_json_dict()["heuristic_tail"] is False
    assert math.isfinite(rep.direct_tail_estimate)
    assert abs(rep.value - rep.direct_value) <= Decimal(rep.direct_tail_estimate)


def test_the_planners_direct_product_has_no_tail(monkeypatch):
    # its limit is q, and every prime above q has chi(p) = +-1, where h = 1
    calls = []
    direct = analytic._twisted_direct

    def recorded(h, chi, m, limit, digits):
        calls.append((chi.modulus, limit, direct(h, chi, m, limit, digits)))
        return calls[-1][2]

    monkeypatch.setattr(analytic, "_twisted_direct", recorded)
    for d in (-4, 12, -20, 1):
        b_chi(RealDirichletCharacter.from_kronecker(d), 12)
    euler_product(EulerProductSpec(ARTIN_H, 6, 12))
    assert len(calls) == 5
    assert all(q == limit and tail == 0 for q, limit, (_, tail, _) in calls)


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
        b_chi(RealDirichletCharacter.from_kronecker(d), 8, cross_check_limit=97)
        assert len(calls) == 1, d


def test_b_chi_computes_each_l_value_once(monkeypatch):
    chi = RealDirichletCharacter.from_kronecker(-4)
    calls = _counting(monkeypatch, "_l_minus_1")
    cutoff = b_chi(chi, 30).cutoff
    keys = [(s, character) for s, character, *_ in calls]
    assert len(set(keys)) == len(keys) <= 2 * (cutoff + 1)


def _minus_one(n, allowed, limit=60):
    """sum_{2 <= k <= limit} allowed(k) k^-n in mpmath: zeta_m(n) - 1 or
    L(n, psi) - 1, far past what the cutoffs below need."""
    return sum(allowed(k) * mpmath.mpf(k) ** -n for k in range(2, limit + 1))


def _log_sum(terms):
    """|sum e ln(1 + t)| over (e, n, allowed) with t = _minus_one(n, allowed)."""
    mpmath.mp.dps = 50
    return abs(sum(e * mpmath.log1p(_minus_one(n, allowed)) for e, n, allowed in terms))


@pytest.mark.parametrize("h, m, digits", [(ARTIN_H, 0, 10), (ARTIN_H, 0, 30), (TWIN_H, 1, 20)],
                         ids=["artin-m0-D10", "artin-m0-D30", "twin-m1-D20"])
def test_proven_tail_bounds_the_omitted_factors(h, m, digits):
    result = euler_product(EulerProductSpec(h, m, digits))
    assert result.heuristic_tail is False and result.tail_estimate > 0
    N = result.cutoff
    removed = primes_up_to(nth_prime(m)) if m else []

    def rough(k):
        return int(all(k % p for p in removed))

    omitted = [(e, n, rough) for n, e in _rational_exponents(h, N + 400).items() if n > N]
    assert _log_sum(omitted) <= mpmath.mpf(str(result.tail_estimate))


def test_proven_b_chi_tail_bounds_the_omitted_factors():
    chi = RealDirichletCharacter.from_kronecker(-4)
    rep = b_chi(chi, 12)
    _, cutoff, tail, _ = analytic._twisted_product(analytic._BCHI_H, chi, 0, 12)
    assert rep.tail_estimate == tail and rep.cutoff == cutoff
    omitted = [(e, n, psi) for (n, psi), e in
               analytic._twisted_exponents(analytic._BCHI_H, chi, cutoff + 400).items()
               if n > cutoff]
    assert _log_sum(omitted) <= mpmath.mpf(str(tail))
