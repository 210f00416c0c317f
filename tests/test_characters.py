import math

import pytest

from conftest import legendre_symbol
from wittkit.arith import primes_up_to
from wittkit.characters import RealDirichletCharacter, kronecker


def test_kronecker_matches_legendre_on_odd_primes():
    for p in primes_up_to(200):
        if p == 2:
            continue
        for a in range(-30, 60):
            assert kronecker(a, p) == legendre_symbol(a, p), (a, p)


def test_kronecker_at_two():
    # (a|2) is 0 for even a, +1 for a = +-1 (mod 8), -1 for a = +-3 (mod 8)
    for a in range(-20, 21):
        expected = 0 if a % 2 == 0 else (1 if a % 8 in (1, 7) else -1)
        assert kronecker(a, 2) == expected, a


def test_kronecker_edge_cases():
    assert kronecker(1, 0) == 1
    assert kronecker(-1, 0) == 1
    assert kronecker(5, 0) == 0
    assert kronecker(3, 1) == 1
    assert kronecker(-7, -1) == -1
    assert kronecker(7, -1) == 1


def test_kronecker_multiplicative_in_both_arguments():
    vals = range(-12, 13)
    for a in vals:
        for b in vals:
            for n in range(1, 13):
                assert kronecker(a * b, n) == kronecker(a, n) * kronecker(b, n)
    for a in vals:
        for m in range(1, 13):
            for n in range(1, 13):
                assert kronecker(a, m * n) == kronecker(a, m) * kronecker(a, n)


def test_character_from_kronecker_minus_four():
    chi = RealDirichletCharacter.from_kronecker(-4)
    assert chi.modulus == 4
    assert chi.values == (0, 1, 0, -1)
    assert [chi(n) for n in range(1, 9)] == [1, 0, -1, 0, 1, 0, -1, 0]


def test_character_from_kronecker_five():
    chi = RealDirichletCharacter.from_kronecker(5)
    assert chi.modulus == 5
    assert chi.values == (0, 1, -1, -1, 1)


def test_character_periodicity_requirement():
    with pytest.raises(ValueError):
        RealDirichletCharacter.from_kronecker(7)  # 7 = 3 (mod 4)
    with pytest.raises(ValueError):
        RealDirichletCharacter.from_kronecker(0)
    assert RealDirichletCharacter.from_kronecker(1).is_trivial


def test_character_validation():
    with pytest.raises(ValueError):
        RealDirichletCharacter.from_values([0, 1, 1, 1])  # chi(2) must vanish mod 4
    with pytest.raises(ValueError):
        RealDirichletCharacter.from_values([0, 1, 0, 1, 0])  # not multiplicative mod 5
    chi = RealDirichletCharacter.from_values([0, 1, 0, -1])
    assert chi == RealDirichletCharacter.from_kronecker(-4)


def test_character_square_and_power():
    chi = RealDirichletCharacter.from_kronecker(5)
    sq = chi.square()
    assert sq.values == (0, 1, 1, 1, 1)


def test_trivial_character():
    triv = RealDirichletCharacter.trivial()
    assert triv.modulus == 1
    assert all(triv(n) == 1 for n in range(-5, 6))


def test_character_complete_multiplicativity():
    for d in (-4, 5, -3, 8, 12):
        chi = RealDirichletCharacter.from_kronecker(d)
        q = chi.modulus
        for a in range(60):
            for b in range(60):
                assert chi(a * b) == chi(a) * chi(b)
            assert chi(a) == chi(a + q)
            assert (chi(a) == 0) == (math.gcd(a, q) > 1)
