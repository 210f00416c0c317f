import itertools
import math

import pytest

from conftest import legendre_symbol
from wittkit.arith import primes_up_to
from wittkit.characters import RealDirichletCharacter, _unit_generators, kronecker


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
    with pytest.raises(ValueError, match="values must have length equal to the modulus"):
        RealDirichletCharacter(4, (0, 1))
    chi = RealDirichletCharacter.from_values([0, 1, 0, -1])
    assert chi == RealDirichletCharacter.from_kronecker(-4)


def _multiplicative_on_all_pairs(values):
    q = len(values)
    return all(values[a * b % q] == values[a] * values[b] for a in range(q) for b in range(a, q))


def _accepted(values):
    try:
        RealDirichletCharacter.from_values(values)
    except ValueError:
        return False
    return True


def _unit_tables():
    """Every Kronecker table with |d| <= 300, each with the sign at its
    second and its last unit flipped, and every +-1 table with q <= 17 (the
    zero pattern and chi(1) = 1 always right, so only multiplicativity can
    fail).  Mod 17 the first generator, 2, spans half the units, and some
    tables pass the check on 2 alone without being characters."""
    for d in range(-300, 301):
        if d % 4 in (0, 1) and d not in (0, 1):
            values = RealDirichletCharacter.from_kronecker(d).values
            yield values
            units = [a for a in range(2, abs(d)) if values[a]]
            for a in units[:1] + units[-1:]:
                yield values[:a] + (-values[a],) + values[a + 1:]
    for q in range(2, 18):
        units = [a for a in range(2, q) if math.gcd(a, q) == 1]
        for signs in itertools.product((1, -1), repeat=len(units)):
            values = [1 if math.gcd(a, q) == 1 else 0 for a in range(q)]
            for a, sign in zip(units, signs):
                values[a] = sign
            yield tuple(values)


def test_multiplicativity_on_generators_agrees_with_all_pairs():
    tables = list(_unit_tables())
    verdicts = [(_accepted(v), _multiplicative_on_all_pairs(v)) for v in tables]
    assert all(new == old for new, old in verdicts)
    # both verdicts occur
    assert {True, False} <= {old for _, old in verdicts}


def test_unit_generators_generate_the_units():
    for q in list(range(1, 200)) + [4001]:
        gens = _unit_generators(q)
        units = {a % q for a in range(1, q + 1) if math.gcd(a, q) == 1}
        group = {1 % q}
        while True:
            grown = group | {h * g % q for h in group for g in gens}
            if grown == group:
                break
            group = grown
        assert group == units, q
        assert 2 ** len(gens) <= len(units), q


def test_character_square_and_power():
    chi = RealDirichletCharacter.from_kronecker(5)
    sq = chi.square()
    assert sq.values == (0, 1, 1, 1, 1)


def test_equal_characters_share_one_cached_hash():
    # the hash comes from (modulus, values) once, when the character is
    # made: equal characters from from_kronecker, the constructor and
    # square() hash equal and are one dict key, as the planner's exponents
    # keyed by (n, psi) need
    chi = RealDirichletCharacter.from_kronecker(-4)
    same = RealDirichletCharacter(4, (0, 1, 0, -1))
    assert chi == same and chi is not same
    assert hash(chi) == hash(same) == hash((4, (0, 1, 0, -1))) == vars(chi)["_hash"]
    principal = RealDirichletCharacter.from_values([0, 1, 0, 1])
    table = {(2, chi): 1, chi.square(): "principal"}
    table[2, same] += 1
    table[principal] += "!"
    assert table == {(2, same): 2, principal: "principal!"}
    big = RealDirichletCharacter.from_kronecker(-4003)
    assert hash(big) == hash(RealDirichletCharacter(4003, big.values))


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
