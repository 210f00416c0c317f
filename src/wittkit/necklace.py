"""Closed-form necklace counts.

A "content" (composition) is a sequence of non-negative letter
multiplicities (n_1, ..., n_r).  M(n_1,...,n_r) counts circular words of
length n = sum(n_i) and minimal period n in which letter i appears exactly
n_i times; necklace_poly(alpha, n) = M(alpha; n) counts aperiodic circular
words of length n over alpha letters.  All divisions in the Moebius sums
are performed over the integers with an exactness check, which turns the
integrality theorems into runtime assertions.
"""

from __future__ import annotations

import math
from typing import Callable, Sequence

from .arith import divisors, moebius, multinomial
from .errors import IntegralityError
from .series import coeff_str

__all__ = [
    "necklace_poly",
    "necklace_count",
    "v_count",
    "necklace_closed",
    "content_total",
    "content_gcd",
]


def content_total(parts: Sequence[int]) -> int:
    if any(p < 0 for p in parts):
        raise ValueError(f"content must be non-negative, got {tuple(parts)!r}")
    return sum(parts)


def content_gcd(parts: Sequence[int]) -> int:
    """gcd of the nonzero parts; the all-zero content is rejected."""
    g = math.gcd(*parts)
    if g == 0:
        raise ValueError("all-zero content has no gcd")
    return g


def _parts_str(parts: Sequence[int]) -> str:
    # repr(tuple(parts)), also for parts past the int-to-str digit limit
    return "(" + ", ".join(map(coeff_str, parts)) + ("," if len(parts) == 1 else "") + ")"


def _exact_div(num: int, den: int, what: Callable[[], str]) -> int:
    # `what` names the sum, and is called only to report a remainder: the
    # text of an int past the int-to-str digit limit is refused by str()
    q, rem = divmod(num, den)
    if rem:
        raise IntegralityError(f"{what()}: {coeff_str(num)} not divisible by {coeff_str(den)}")
    return q


def necklace_poly(alpha: int, n: int) -> int:
    """M(alpha; n) = (1/n) sum_{d|n} mu(n/d) alpha^d, exact."""
    if n < 1:
        raise ValueError(f"necklace_poly requires n >= 1, got {n}")
    acc = sum(moebius(n // d) * alpha**d for d in divisors(n))
    return _exact_div(acc, n, lambda: f"necklace_poly({coeff_str(alpha)}, {n})")


def _moebius_count(parts: Sequence[int], n: int, t: int, what: Callable[[], str]) -> int:
    """((-1)^t / n) sum_{d | gcd} mu(d) (-1)^(t/d) (n/d; n_1/d,...,n_r/d),
    exact; t = 0 gives M(n_1,...,n_r)."""
    acc = 0
    for d in divisors(content_gcd(parts)):
        term = moebius(d) * multinomial(n // d, [p // d for p in parts])
        acc += -term if (t // d) % 2 else term
    return _exact_div(-acc if t % 2 else acc, n, what)


def necklace_count(parts: Sequence[int]) -> int:
    """M(n_1,...,n_r) by Moebius inversion over d | gcd(parts)."""
    parts = tuple(parts)
    n = content_total(parts)
    if n < 1:
        raise ValueError("necklace_count requires a nonzero content")
    value = _moebius_count(parts, n, 0, lambda: f"necklace_count({_parts_str(parts)})")
    if value < 0:
        raise IntegralityError(
            f"necklace_count({_parts_str(parts)}) came out negative: {coeff_str(value)}")
    return value


def v_count(parts: Sequence[int], k: int) -> int:
    """Sign-twisted count V_k with alternating signs on the first k letters.

    V_k(n_1,...,n_r) = ((-1)^{t_k} / n) sum_{d | gcd} mu(d) (-1)^{t_k/d}
    (n/d; n_1/d,...,n_r/d), where t_k = n_1 + ... + n_k.
    """
    parts = tuple(parts)
    if not 1 <= k <= len(parts):
        raise ValueError(f"prefix length k={k} out of range 1..{len(parts)}")
    n = content_total(parts)
    if n < 1:
        raise ValueError("v_count requires a nonzero content")
    return _moebius_count(parts, n, sum(parts[:k]),
                          lambda: f"v_count({_parts_str(parts)}, k={k})")


def necklace_closed(m: int, first: int) -> int:
    """Closed forms for M(first, m) with first in {0, 1, 2}.

    M(0, m) is 1 iff m == 1 (m >= 1 required); M(1, m) = 1; and
    M(2, m) = m/2 for even m, (m+1)/2 for odd m.
    """
    if m < 0:
        raise ValueError(f"m must be >= 0, got {m}")
    if first == 0:
        if m < 1:
            raise ValueError("M(0, m) requires m >= 1")
        return 1 if m == 1 else 0
    if first == 1:
        return 1
    if first == 2:
        return m // 2 if m % 2 == 0 else (m + 1) // 2
    raise ValueError(f"closed form only available for first in 0..2, got {first}")
