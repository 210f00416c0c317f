"""Kronecker symbol and real Dirichlet characters (values in {-1, 0, +1})."""

from __future__ import annotations

import math
from typing import List, Sequence, Tuple

from ._record import record
from .arith import primes_up_to
from .series import _exact_int

__all__ = ["kronecker", "RealDirichletCharacter"]


def kronecker(a: int, n: int) -> int:
    """Kronecker symbol (a|n), extending the Jacobi symbol to all integers."""
    if n == 0:
        return 1 if a in (1, -1) else 0
    result = 1
    if n < 0:
        n = -n
        if a < 0:
            result = -1
    if n % 2 == 0:
        if a % 2 == 0:
            return 0
        twos = 0
        while n % 2 == 0:
            n //= 2
            twos += 1
        if twos % 2 == 1 and a % 8 in (3, 5):
            result = -result
    # n is now odd and positive: Jacobi loop with reciprocity
    a %= n
    while a:
        while a % 2 == 0:
            a //= 2
            if n % 8 in (3, 5):
                result = -result
        a, n = n, a
        if a % 4 == 3 and n % 4 == 3:
            result = -result
        a %= n
    return result if n == 1 else 0


def _unit_generators(q: int) -> List[int]:
    """Primes that generate the units mod q, at most log2 phi(q) of them.

    The primes p < q not dividing q generate the units, since every unit
    below q factors into them.  Each p not yet in the subgroup H generated so
    far is kept, and H grows to H <p> by multiplying its newest coset by p
    until no new element appears."""
    generated, generators = {1 % q}, []
    for p in primes_up_to(q - 1):
        if q % p and p not in generated:
            generators.append(p)
            coset = generated
            while coset:
                coset = {h * p % q for h in coset} - generated
                generated |= coset
    return generators


@record
class RealDirichletCharacter:
    """Completely multiplicative period-q map Z -> {-1, 0, +1} with
    chi(a) == 0 exactly when gcd(a, q) > 1."""

    modulus: int
    values: Tuple[int, ...]

    def __post_init__(self):
        q = self.modulus
        vals = self.values
        if q < 1 or len(vals) != q:
            raise ValueError("values must have length equal to the modulus")
        if any(v not in (-1, 0, 1) for v in vals):
            raise ValueError("character values must be in {-1, 0, +1}")
        if vals[1 % q] != 1:
            raise ValueError("chi(1) must be 1")
        for a in range(q):
            if (vals[a] == 0) != (math.gcd(a, q) > 1):
                raise ValueError(f"chi({a}) must vanish iff gcd({a},{q}) > 1")
        # with the zero pattern above, chi(a g) = chi(a) chi(g) for every a
        # and every g of a generating set of the units makes chi completely
        # multiplicative: each unit is a product of generators
        for g in _unit_generators(q):
            for a in range(q):
                if vals[a * g % q] != vals[a] * vals[g]:
                    raise ValueError(
                        f"values are not completely multiplicative at ({a},{g})"
                    )

    def __call__(self, n: int) -> int:
        return self.values[n % self.modulus]

    @classmethod
    def trivial(cls) -> "RealDirichletCharacter":
        return cls(1, (1,))

    @classmethod
    def from_kronecker(cls, d: int) -> "RealDirichletCharacter":
        """The character a -> (d|a); requires d = 0 or 1 mod 4 (else the
        symbol is not periodic mod |d|)."""
        if d == 0:
            raise ValueError("discriminant must be nonzero")
        if d % 4 not in (0, 1):
            raise ValueError(f"(d|.) with d={d} is not a character mod |d|; "
                             "use a discriminant = 0 or 1 (mod 4)")
        if d == 1:
            return cls.trivial()
        q = abs(d)
        return cls(q, tuple(kronecker(d, a) for a in range(q)))

    @classmethod
    def from_values(cls, values: Sequence[int]) -> "RealDirichletCharacter":
        vals = tuple(_exact_int(v, "character value") for v in values)
        return cls(len(vals), vals)

    def square(self) -> "RealDirichletCharacter":
        """chi^2, the principal character mod q."""
        return RealDirichletCharacter(self.modulus, tuple(v * v for v in self.values))

    @property
    def is_trivial(self) -> bool:
        return self.modulus == 1
