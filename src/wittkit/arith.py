"""Exact integer/rational helpers: Moebius function, divisors, primes,
multinomial coefficients, Bernoulli numbers and pi in integer fixed point.

Everything here is exact (int / Fraction); inputs stay small enough that
trial division is the right tool.
"""

from __future__ import annotations

import math
import threading
from fractions import Fraction
from itertools import compress
from typing import List, Sequence, Tuple

from .errors import BudgetExceededError

__all__ = [
    "moebius",
    "divisors",
    "multinomial",
    "primes_up_to",
    "prime_factors",
    "nth_prime",
    "bernoulli",
    "pi_fixed",
]


def moebius(n: int) -> int:
    """Moebius function mu(n) by trial-division factorization (n >= 1)."""
    if n < 1:
        raise ValueError(f"moebius requires n >= 1, got {n}")
    if n == 1:
        return 1
    result = 1
    m = n
    p = 2
    while p * p <= m:
        if m % p == 0:
            m //= p
            if m % p == 0:
                return 0
            result = -result
        p += 1 if p == 2 else 2
    if m > 1:
        result = -result
    return result


# largest n whose divisors are found by trial division, about 10^7 steps
# (a few seconds); a larger n raises BudgetExceededError instead of hanging
TRIAL_DIVISION_LIMIT = 10**14


def divisors(n: int) -> List[int]:
    """All positive divisors of n >= 1, sorted ascending.  n above
    TRIAL_DIVISION_LIMIT raises BudgetExceededError."""
    if n < 1:
        raise ValueError(f"divisors requires n >= 1, got {n}")
    if n > TRIAL_DIVISION_LIMIT:
        raise BudgetExceededError(
            f"divisors of an integer of {n.bit_length()} bits: above the trial "
            f"division limit {TRIAL_DIVISION_LIMIT}"
        )
    small, large = [], []
    d = 1
    while d * d <= n:
        if n % d == 0:
            small.append(d)
            if d != n // d:
                large.append(n // d)
        d += 1
    return small + large[::-1]


def multinomial(n: int, parts: Sequence[int]) -> int:
    """(n; n_1,...,n_r) = n! / prod(n_i!), via iterated exact binomials.

    Requires sum(parts) == n and every part >= 0.
    """
    if any(p < 0 for p in parts):
        raise ValueError(f"multinomial parts must be non-negative, got {parts!r}")
    if sum(parts) != n:
        raise ValueError(f"multinomial parts {parts!r} do not sum to {n}")
    result = 1
    remaining = n
    for p in parts:
        result *= math.comb(remaining, p)
        remaining -= p
    return result


def primes_up_to(limit: int) -> List[int]:
    """Primes <= limit by a byte sieve."""
    if limit < 2:
        return []
    sieve = bytearray([1]) * (limit + 1)
    sieve[0] = sieve[1] = 0
    for i in range(2, math.isqrt(limit) + 1):
        if sieve[i]:
            sieve[i * i :: i] = bytearray(len(range(i * i, limit + 1, i)))
    return list(compress(range(limit + 1), sieve))


def prime_factors(n: int) -> List[int]:
    """The distinct primes dividing n >= 1, ascending, by trial division."""
    if n < 1:
        raise ValueError(f"prime_factors requires n >= 1, got {n}")
    found, p = [], 2
    while p * p <= n:
        if n % p == 0:
            found.append(p)
            while n % p == 0:
                n //= p
        p += 1 if p == 2 else 2
    return found + [n] if n > 1 else found


def nth_prime(m: int) -> int:
    """The mth prime, 1-indexed: nth_prime(1) == 2."""
    if m < 1:
        raise ValueError(f"nth_prime requires m >= 1, got {m}")
    if m < 6:
        return [2, 3, 5, 7, 11][m - 1]
    # p_m < m (ln m + ln ln m) for m >= 6 (Rosser), so one sieve suffices
    return primes_up_to(int(m * (math.log(m) + math.log(math.log(m)))) + 10)[m - 1]


# B_0, B_2, B_4, ...: the even-index Bernoulli numbers computed so far, and
# column j = len(_bern_even) - 1 of the tangent-number triangle, whose last
# entry is T_j
_bern_even: List[Fraction] = [Fraction(1), Fraction(1, 6)]
_bern_column: List[int] = [1]
_bern_lock = threading.Lock()


def bernoulli(k: int) -> Fraction:
    """Bernoulli number B_k (convention B_1 = -1/2), memoized.

    Even indices come from tangent numbers, tan x = sum_j T_j x^(2j-1)/(2j-1)!,
    as B_2j = (-1)^(j-1) 2j T_j / (4^j (4^j - 1)).  The cache grows one T_j at
    a time, exactly as far as asked: column j of Brent & Harvey's triangle
    ("Fast computation of Bernoulli, tangent and secant numbers", 2013,
    Algorithm TangentNumbers) becomes column j + 1 in place by c[0] *= j,
    then c[i] = (j - i) c[i] + (j - i + 2) c[i - 1] for i = 1..j-1 in
    ascending order, then appending 2 c[j - 1] = T_(j+1).
    """
    if k < 0:
        raise ValueError(f"bernoulli requires k >= 0, got {k}")
    if k == 1:
        return Fraction(-1, 2)
    if k % 2 == 1:
        return Fraction(0)
    with _bern_lock:
        c = _bern_column
        while len(_bern_even) <= k // 2:
            j = len(c)
            c[0] *= j
            for i in range(1, j):
                c[i] = (j - i) * c[i] + (j - i + 2) * c[i - 1]
            c.append(2 * c[-1])
            n = j + 1
            _bern_even.append(Fraction((-1) ** j * 2 * n * c[-1], 4**n * (4**n - 1)))
        return _bern_even[k // 2]


# (width, an integer within 2 of pi 10^width): pi at the widest width asked
# for so far, widened to at least twice its old width, so widths that differ
# per call rebuild it only a few times; replaced whole, so concurrent callers
# never see a half-built value
_pi: Tuple[int, int] = (0, 3)


def _arctan_inverse(x: int, one: int) -> int:
    """one arctan(1/x) for an integer x >= 2, within 2 (n + 1) of it, n the
    number of terms: sum_k (-1)^k floor(floor(one / x^(2k+1)) / (2k+1)),
    where each power is exact (floor(floor(a / b) / c) = floor(a / (b c)))
    and each term errs by under 2, and the series stops at the first zero
    power, whose alternating tail is below 1."""
    power = total = one // x
    square, k = x * x, 1
    while power:
        power //= square
        term = power // (2 * k + 1)
        total += -term if k % 2 else term
        k += 1
    return total


def pi_fixed(width: int) -> int:
    """An integer within 2 of pi 10^width (width >= 0), by Machin's formula
    pi = 16 arctan(1/5) - 4 arctan(1/239), cached at a width c >= width and
    g = len(str(c)) + 3 guard digits.  At w = c + g digits the two series
    have at most w / 1.39 + 1 and w / 4.7 + 1 nonzero terms, so the sum errs
    by under 16 * 2 (w / 1.39 + 2) + 4 * 2 (w / 4.7 + 2) < 25 w + 80 < 10^g;
    dropping the g guard digits, and then c - width more, by one floor each
    leaves the result within 2."""
    global _pi
    have, value = _pi
    if have < width:
        have = max(width, 2 * have)
        guard = len(str(have)) + 3
        one = 10 ** (have + guard)
        value = (16 * _arctan_inverse(5, one) - 4 * _arctan_inverse(239, one)) // 10**guard
        _pi = (have, value)
    return value // 10 ** (have - width)
