import math
from fractions import Fraction

import pytest
from hypothesis import given
from hypothesis import strategies as st

from wittkit import analytic, arith
from wittkit.arith import (
    bernoulli,
    divisors,
    gcd_all,
    moebius,
    multinomial,
    nth_prime,
    primes_up_to,
)


def test_moebius_small_values():
    assert [moebius(n) for n in range(1, 13)] == [1, -1, -1, 0, -1, 1, -1, 0, 0, 1, -1, 0]


def test_moebius_rejects_zero():
    with pytest.raises(ValueError):
        moebius(0)


def test_moebius_divisor_sum_vanishes():
    # sum_{d|m} mu(d) is 1 at m=1 and 0 beyond
    for m in range(1, 10_001):
        total = sum(moebius(d) for d in divisors(m))
        assert total == (1 if m == 1 else 0), m


def test_divisors():
    assert divisors(1) == [1]
    assert divisors(12) == [1, 2, 3, 4, 6, 12]
    assert divisors(49) == [1, 7, 49]


def test_multinomial_examples():
    assert multinomial(4, [2, 2]) == 6
    assert multinomial(7, [7]) == 1
    # direct factorial evaluation
    assert multinomial(6, [1, 2, 3]) == math.factorial(6) // (
        math.factorial(1) * math.factorial(2) * math.factorial(3)
    )
    assert multinomial(6, [1, 2, 3]) == 60


def test_multinomial_rejects_bad_parts():
    with pytest.raises(ValueError):
        multinomial(5, [2, 2])
    with pytest.raises(ValueError):
        multinomial(1, [2, -1])


@given(st.lists(st.integers(0, 8), min_size=1, max_size=5))
def test_multinomial_symmetric(parts):
    n = sum(parts)
    assert multinomial(n, parts) == multinomial(n, sorted(parts))
    assert multinomial(n, parts) == multinomial(n, sorted(parts, reverse=True))


def test_primes_up_to():
    assert primes_up_to(10) == [2, 3, 5, 7]
    assert primes_up_to(1) == []
    assert primes_up_to(2) == [2]
    assert len(primes_up_to(10**6)) == 78498


def test_primes_up_to_matches_trial_division():
    for limit in range(501):
        assert primes_up_to(limit) == [
            n for n in range(2, limit + 1) if all(n % d for d in range(2, math.isqrt(n) + 1))
        ], limit


def test_nth_prime():
    assert nth_prime(1) == 2
    assert nth_prime(4) == 7
    assert nth_prime(25) == 97
    assert nth_prime(1000) == 7919
    with pytest.raises(ValueError):
        nth_prime(0)


def test_bernoulli_values():
    assert bernoulli(0) == 1
    assert bernoulli(1) == Fraction(-1, 2)
    assert bernoulli(2) == Fraction(1, 6)
    assert bernoulli(3) == 0
    assert bernoulli(4) == Fraction(-1, 30)
    assert bernoulli(12) == Fraction(-691, 2730)


def test_bernoulli_recurrence():
    for k in range(1, 61):
        total = sum(math.comb(k + 1, j) * bernoulli(j) for j in range(k + 1))
        assert total == 0, k


def _bernoulli_by_recurrence(k_max):
    """The O(k^2) recurrence sum_{j=0}^{k} C(k+1, j) B_j = 0, as an oracle."""
    out = [Fraction(1)]
    for m in range(1, k_max + 1):
        acc = sum(Fraction(math.comb(m + 1, j)) * out[j] for j in range(m))
        out.append(-acc / (m + 1))
    return out


def test_bernoulli_against_recurrence():
    oracle = _bernoulli_by_recurrence(200)
    assert [bernoulli(k) for k in range(201)] == oracle


def test_bernoulli_von_staudt_clausen():
    # B_2k + sum_{(p-1) | 2k} 1/p is an integer, so the denominator of
    # B_2k is the product of those primes
    for k in range(2, 601, 2):
        ps = [p for p in primes_up_to(k + 1) if k % (p - 1) == 0]
        b = bernoulli(k)
        assert b.denominator == math.prod(ps), k
        assert (b + sum(Fraction(1, p) for p in ps)).denominator == 1, k


def _cold_bernoulli_cache(monkeypatch):
    monkeypatch.setattr(arith, "_bern_even", [Fraction(1), Fraction(1, 6)])
    monkeypatch.setattr(arith, "_bern_column", [1])


def test_bernoulli_cache_fill_order(monkeypatch):
    ks = [2, 7, 1, 0, 88, 600, 3, 144, 598, 250]
    _cold_bernoulli_cache(monkeypatch)
    descending = {k: bernoulli(k) for k in sorted(ks, reverse=True)}
    _cold_bernoulli_cache(monkeypatch)
    ascending = {k: bernoulli(k) for k in sorted(ks)}
    _cold_bernoulli_cache(monkeypatch)
    mixed = {k: bernoulli(k) for k in ks}
    assert descending == ascending == mixed


def test_bernoulli_cache_grows_exactly_as_far_as_asked(monkeypatch):
    # B_2, B_4, ... asked one at a time leave B_0..B_200 and no more
    _cold_bernoulli_cache(monkeypatch)
    for k in range(2, 201, 2):
        bernoulli(k)
    assert len(arith._bern_even) == 101


def test_cold_zeta_builds_only_the_bernoulli_numbers_it_uses(monkeypatch):
    _cold_bernoulli_cache(monkeypatch)
    monkeypatch.setattr(analytic, "_em_coeffs", (0, ()))
    analytic.zeta(3, 300)
    assert len(arith._bern_even) - 1 == len(analytic._em_coeffs[1]) == 237


def test_gcd_all():
    assert gcd_all([4, 6, 0]) == 2
    assert gcd_all([]) == 0
    assert gcd_all([0, 0]) == 0
