"""High-precision evaluation of zeta values, real Dirichlet L-series and
Euler-product constants, on integer fixed point and stdlib Decimal.

Precision convention: a public operation taking `digits` = D returns a
Decimal within 10^-D of the true value (absolute), quantized to D+4
decimal places.  Internally everything runs at D plus GUARD_DIGITS extra
digits, and every truncation is bounded rigorously: the tail of an
infinite product by a bound on the reciprocal roots of h, which fixes
the cutoff before any zeta or L value is computed, and each L-value as
described below.  zeta, partial_zeta, l_series and hurwitz_zeta refuse D
above DIGIT_BUDGET with BudgetExceededError, and hurwitz_zeta(s, p/q) also
refuses s len(str(q)) above it: the digits its value's size q^s adds.

Euler products.  Every constant here is prod_{p > p_m} h(chi(p), 1/p) for
a real character chi mod q and an h(x, z) rational in z for each x in
{-1, 0, 1}: euler_product is chi = 1, b_chi is h(x, z) = 1 + (x-1) z^2 /
((1 - x z^2)(1 - z)).  One planner, _twisted_product, removes the first
m' = max(m, _EXACT_PRIMES) = max(m, 25) primes exactly (after H. Cohen,
"High precision computation of Hardy-Littlewood constants", 1998): it
multiplies h(chi(p), 1/p) for p_m < p <= p_m' and h(0, 1/p) for the p | q
above p_m' by the direct product below, and takes the rest as
prod_n L_m'(n, chi^2)^Ev(n) L_m'(n, chi)^Od(n), with Ev and Od from the
product expansions of h(1, z) and h(-1, z), cut at one proven order.  m'
is internal: the user's m keeps its meaning, and the refusals (a
divergent product, an impractical cutoff) are decided at the user's m
before anything is planned at m'.  The record's removed_primes is m'.

Direct products.  Every finite product of factors h(chi(p), 1/p) is one
prime-by-prime product, _twisted_direct, over p_m < p <= limit: the
planner's two (p <= p_m', and the p | q up to the limit q, tail 0),
euler_product_direct and b_chi_direct.  Each factor is one correctly
rounded division of the integers p^(w-1) num(1/p) and p^(w-1) den(1/p),
by Horner's rule with num and den padded to one length w, at
D + GUARD_DIGITS + 12 digits, skipping h(x) = 1.  Its tail, how far the
primes above the limit can move the value, is proven in its docstring
from |h(x, t) - 1| <= A t^2 and sum_{odd n > limit} n^-2 <= 1/(2 (limit - 1)).

Per-exponent precision.  The product is exp(sum e ln L_m(n, psi)) over
integer exponents e keyed by (n, psi).  Each L_m(n, psi) - 1 is
computed to its own p = D + 6 + ceil(log10 |e|) + GUARD_DIGITS digits,
so |e| times its error stays below 10^-(D+16) whatever the other
exponents are; the reported working precision is the largest p.

One kernel, _l_minus_1, returns L_m(s, chi) - 1 within 10^-prec, for chi
mod q and the Euler factors of the first m primes removed, by one of three
routes.  One exact tail rule, _tail_end, cuts the first and the last: the
least K >= 1 whose integral tail (qK+a)^(1-s) / (q(s-1)) is at most
10^-(prec+1), settled by integer comparisons.  With (q, a) = (1, 0) it
bounds sum_{k>K} k^-s.

- Direct rough sum, chosen by its number of terms: when that K for (1, 0)
  is at most q _em_cut(prec) / delta, delta = prod_{p <= p_m} (1 - 1/p)
  the share of p_m-rough k (coprime to every p <= p_m), so that about
  q _em_cut(prec) = q max(12, prec) terms lie below K, as many as the
  direct part Euler-Maclaurin would sum anyway: sum chi(k) k^-s over the
  p_m-rough k with p_(m+1) <= k <= K.  No Euler-Maclaurin and no product
  over the removed primes; large s needs only a handful of terms.  The
  rough k come from one _RoughNumbers sieve, which the planner builds once
  and shares across its L-values.
- Otherwise L_m(s, chi) - 1 = (P - 1) + P (L - 1), with P in fixed point
  (below).  A principal chi (values in {0, 1}) goes through zeta:
  L_m(s, chi) = zeta(s) P with P = prod (1 - p^-s) over the p <= p_m and
  the p | q, so one value zeta(s) - 1 replaces phi(q) residue sums.  For
  even s that value is in closed form, zeta(s) = |B_s| (2 pi)^s / (2 s!)
  (_even_zeta_minus_1), with B_s from the Bernoulli cache and pi from
  Machin's series in arith (J. M. Borwein, D. M. Bradley, R. E. Crandall,
  "Computational strategies for the Riemann zeta function", 2000).
- Euler-Maclaurin for the rest: zeta(s) - 1 = S(s, 1, 2) at odd s, and
  every non-principal chi, from S(s, q, a) = sum_{k>=0} (qk+a)^-s, without
  large intermediate magnitudes:

      L(s, chi mod q) - 1  = S(s, q, q+1) + sum_{a=2..q} chi(a) S(s, q, a)
      P = prod_{p<=p_m} (1 - chi(p) p^-s)

  Hurwitz zeta is zeta(s, p/q) = q^s S(s, q, p), also by Euler-Maclaurin.

Euler-Maclaurin sums, all in _dirichlet_sum, cut the direct summation at
the same rule's K for (q, a) when it is at most _em_cut(prec), else at
_em_cut(prec), and the cut doubles if the correction terms diverge first.

Fixed point.  The kernel runs on ints t standing for t 10^-W, at one
width W = prec + 12, and converts to Decimal once, exactly, where it
returns.  Every direct sum (the rough sum and the k < cut part of
Euler-Maclaurin) is one _PowerRow of floor(10^W / k^s).  Correction j is
one exact floor, floor(B_2j X_j / (2j)!), with B_2j read from the Bernoulli
cache and X_j the int for x_j = q^(2j-1) (s)_(2j-1) / base^(s+2j-1),
stepped by one rational factor per j; no table of coefficients is kept.
The closed form and the removed Euler factors P are floors too.  Each floor
errs by under 10^-W, and _dirichlet_sum counts its floors in its stop
test, so its remainder bound is a proof in integers.  A row is kept per
sequence of k (the rough k, and each progression qk + a) in the planner's
shared _RoughNumbers, at the width of its largest precision, and moves
from s to a larger s' in place by v //= k^(s' - s), which is exact: the
planner's L-values at n = 2, 3, ... share their divisions instead of
dividing 10^W by each k^n afresh.
"""

from __future__ import annotations

import math
from bisect import bisect_left, bisect_right
from collections import defaultdict
from decimal import MAX_EMAX, MAX_PREC, MIN_EMIN, Context, Decimal, localcontext
from fractions import Fraction
from itertools import compress, count
from typing import Dict, List, Optional, Sequence, Tuple, Union

from ._record import record
from .arith import bernoulli, nth_prime, pi_fixed, prime_factors, primes_up_to
from .characters import RealDirichletCharacter
from .errors import BudgetExceededError, DivergenceError, IntegralityError
# peel_1d is unused here but stays bound: perfbench's span tests rebind it
from .expansion import _mul_factor, _rational_exponents, peel_1d  # noqa: F401
from .series import RationalFunction, TruncatedSeries, _decimal

__all__ = [
    "GUARD_DIGITS",
    "zeta",
    "hurwitz_zeta",
    "partial_zeta",
    "l_series",
    "EulerProductSpec",
    "ConstantResult",
    "euler_product",
    "euler_product_direct",
    "b_chi",
    "b_chi_direct",
    "ConvergenceReport",
    "check_convergence_hypotheses",
]

GUARD_DIGITS = 10

# the Euler-product planner multiplies the factors of at least the first
# _EXACT_PRIMES primes (p <= 97) exactly and expands only the rest in
# L-values; times were flat for 25 to 100
_EXACT_PRIMES = 25

# largest `digits` that zeta, partial_zeta, l_series and hurwitz_zeta take,
# and largest s len(str(q)) that hurwitz_zeta(s, p/q) takes;
# at D = 2000 a cold zeta(3, D), by Euler-Maclaurin, took 0.28 s and zeta(2,
# D), in closed form, 0.005 s (in process, medians of 10; Python 3.11, 2 cores)
DIGIT_BUDGET = 2000

# converts the kernel's fixed-point ints to Decimal without rounding
_UNROUNDED = Context(prec=MAX_PREC, Emax=MAX_EMAX, Emin=MIN_EMIN)


# -- Euler-Maclaurin core ----------------------------------------------


def _width(prec: int) -> int:
    """The L-value kernel's one fixed-point width: a value within 10^-prec
    is an int t for t 10^-(prec+12), with 10^11 units to spare for floors."""
    return prec + 12


class _PowerRow:
    """floor(10^width / k^s) for the first k of one increasing sequence of
    k >= 1, kept between calls at one exponent s at a time.  A call at a
    larger s advances the row in place by v //= k^(s' - s), which is exact,
    as floor(floor(x / a) / b) = floor(x / (a b)): a row holds exactly what
    a fresh one would, whatever came before, at the cost of one division by
    a short k^(s' - s) per entry instead of a long k^s.  A smaller s, or a
    call needing a larger width, rebuilds it; a fresh row (width 0) does
    the work of one sum from scratch."""

    def __init__(self, width: int = 0):
        self.width, self.s, self.values = width, 0, []

    def sum(self, s: int, ks: Sequence[int], width: int,
            chi: Optional[RealDirichletCharacter] = None) -> int:
        """sum chi(k) k^-s over ks (chi(k) = 1 without chi), which extends
        the row's sequence, as an int at `width` within 2 units: the T terms
        err by under 10^-self.width each, self.width >= width + len(str(T)),
        and one floor to `width` follows."""
        need = width + len(str(len(ks)))
        if need > self.width or s < self.s:
            self.width, self.values = max(need, self.width), []
        elif s > self.s:
            self.values = [v // k ** (s - self.s) for v, k in zip(self.values, ks)]
        self.s, values = s, self.values
        if len(values) < len(ks):
            one = 10**self.width
            values += [one // k**s for k in ks[len(values):]]
        if chi is None:
            total = sum(values[:len(ks)])
        else:
            total = sum(chi(k) * v for k, v in zip(ks, values))
        return total // 10 ** (self.width - width)


def _em_cut(prec: int) -> int:
    """The default Euler-Maclaurin cut max(12, prec): the most direct terms
    of _dirichlet_sum and, times q, the most p_m-rough terms of _l_minus_1's
    rough sum.  A direct term in fixed point costs far less than a
    correction; of the cuts 2 prec / 5, 0.7 prec, prec, 1.5 prec and 2 prec
    over D in {12, 30, 100, 300, 1000} this was the best single rule (Artin
    at D = 1000: 15.1, 10.6, 9.4 and 9.5 s for the first four; Python 3.11,
    2 cores)."""
    return max(12, prec)


def _tail_end(s: int, q: int, a: int, prec: int, cap: int) -> Optional[int]:
    """The least K >= 1 whose integral tail (qK+a)^(1-s) / (q(s-1)) is at
    most 10^-(prec+1), that is q(s-1) (qK+a)^(s-1) >= 10^(prec+1), if
    K <= cap; else None.  With (q, a) = (1, 0) the tail bounds
    sum_{k>K} k^-s.  A float guess within a decade of q cap + a is settled
    by exact integer comparisons."""
    scale = q * (s - 1)
    guess = (prec + 1 - math.log10(scale)) / (s - 1)  # log10 of qK+a at the real root
    if guess > math.log10(q * cap + a) + 1:
        return None
    goal = 10 ** (prec + 1)
    end = max(1, math.ceil((10.0**guess - a) / q))
    while end > 1 and scale * (q * (end - 1) + a) ** (s - 1) >= goal:
        end -= 1
    while scale * (q * end + a) ** (s - 1) < goal:
        end += 1
    return end if end <= cap else None


def _dirichlet_sum(s: int, q: int, a: int, prec: int,
                   row: Optional[_PowerRow] = None) -> int:
    """S(s, q, a) = sum_{k>=0} (qk+a)^-s as an int at W = _width(prec)
    within 10^-(prec+1), by Euler-Maclaurin; `row` is the power row of the
    progression qk + a (a fresh one when the caller passes none).

    s >= 2; q >= 1; a >= 1.  The cut is _tail_end's K if that is at most
    _em_cut(prec), else _em_cut(prec) (large s needs only a few direct
    terms), and it doubles when the corrections diverge before reaching
    target (or 4 prec of them do not reach it).

    In units u = 10^-W, with base = q cut + a, the terms k < cut come from
    the row within 2 units, and the integral term base^(1-s) / (q(s-1)) and
    the half term base^-s / 2 are one floor each.  Correction j is c_j x_j
    with c_j = B_2j/(2j)!, |c_j| <= 1/12, x_j = q^(2j-1) (s)_(2j-1) /
    base^(s+2j-1).  X_1 = floor(x_1 / u) and X_(j+1) = floor(X_j n_j /
    base^2), n_j = q^2 (s+2j-1)(s+2j), so x_j / u lies in [X_j, X_j + e_j)
    with e_1 = 1 and e_(j+1) = floor(e_j n_j / base^2) + 2.  The term is
    one exact floor, T_j = floor(B_2j X_j / (2j)!), with B_2j from the
    Bernoulli cache and (2j)! a running product; it differs from c_j x_j / u
    by under 1 + |c_j| e_j <= f_j = 1 + e_j units.  The remainder after
    the corrections already added is at most the first omitted one in
    absolute value (all derivatives of x -> (qx+a)^-s keep a fixed sign),
    so under |T_j| + f_j units.  With `spent` the units of the
    floors so far (4, plus f_i for each correction added), the loop stops
    once |T_j| + f_j + spent <= 10^(W-prec-1): a proof in integers.
    """
    if s < 2:
        raise ValueError(f"series exponent must be >= 2, got {s}")
    if q < 1 or a < 1:
        raise ValueError("q and a must be >= 1")
    width = _width(prec)
    one, limit = 10**width, 10 ** (width - prec - 1)
    cut = _tail_end(s, q, a, prec, _em_cut(prec)) or _em_cut(prec)
    row = row or _PowerRow()
    while True:
        base = q * cut + a
        square, power = base * base, base ** (s - 1)
        total = row.sum(s, range(a, base, q), width)
        total += one // (q * (s - 1) * power) + one // (2 * power * base)
        x, err, spent, prev, factorial = one * q * s // (power * square), 1, 4, None, 2
        for j in range(1, 4 * prec + 1):
            b = bernoulli(2 * j)
            term = b.numerator * x // (b.denominator * factorial)
            size, units = abs(term), 1 + err
            if size + units + spent <= limit:
                # remainder after the terms already added is below target
                return total
            if prev is not None and size >= prev:
                break  # asymptotic series turned; need larger cut
            total, spent, prev = total + term, spent + units, size
            n = q * q * (s + 2 * j - 1) * (s + 2 * j)
            x, err = x * n // square, err * n // square + 2
            factorial *= (2 * j + 1) * (2 * j + 2)
        cut *= 2


def _even_zeta_minus_1(s: int, width: int) -> int:
    """zeta(s) - 1 for an even s >= 2 as an int at `width` within 9 s
    units, u = 10^-width, in closed form: zeta(s) = |B_s| (2 pi)^s / (2 s!)
    (Euler), with B_s from the Bernoulli cache and pi from arith.pi_fixed.

    2 pi_fixed(width) is within 4 of 2 pi 10^width, a relative error under
    u.  The power (2 pi)^s comes by left-to-right binary powering, each
    product floored to width digits; every factor is at least 1, so each
    floor has relative error under u, and a floor at a step with r
    squarings still to come is raised to the power 2^r.  With at most two
    floors for each of the L bits of s, the floors add under 2 (2^L - 1) u
    < 4 s u to the logarithm, as 2^(L-1) <= s, and the start under s u: the
    power is (2 pi)^s (1 + theta) with |theta| < 5.01 s u.  One exact
    multiplication by |B_s| / (2 s!) and one floor follow, so the value
    errs by under zeta(2) 5.01 s u + u < 9 s u."""
    one, base = 10**width, 2 * pi_fixed(width)
    power = one
    for bit in bin(s)[2:]:
        power = power * power // one
        if bit == "1":
            power = power * base // one
    b = abs(bernoulli(s))
    return power * b.numerator // (2 * math.factorial(s) * b.denominator) - one


_LOG10_2 = math.log10(2)


def _log10_int(n: int) -> float:
    """log10 |n| for arbitrary-size nonzero integers (no str())."""
    n = abs(n)
    shift = max(0, n.bit_length() - 64)
    return math.log10(n >> shift) + shift * _LOG10_2


def _digit_count(q: int) -> int:
    """len(str(q)) for q >= 1, also past the int-to-str digit limit: q in
    [2^(b-1), 2^b) has the digits of 2^(b-1) or one more."""
    digits = math.floor((q.bit_length() - 1) * _LOG10_2) + 1
    return digits + (q >= 10**digits)


def _quantize(value: Decimal, digits: int) -> Decimal:
    places = digits + 4
    with localcontext() as ctx:
        ctx.prec = max(28, value.adjusted() + places + 6)
        return value.quantize(Decimal(1).scaleb(-places))


def _check_digits(digits: int, budget: bool = False) -> None:
    """digits >= 1, and with `budget` at most DIGIT_BUDGET."""
    if digits < 1:
        raise ValueError(f"digits must be >= 1, got {digits}")
    if budget and digits > DIGIT_BUDGET:
        raise BudgetExceededError(f"digits {digits} exceed the budget of {DIGIT_BUDGET} digits")


def _l_value(name: str, s: int, chi: RealDirichletCharacter, digits: int,
             m: int = 0) -> Decimal:
    """L_m(s, chi) within 10^-digits; errors name the public function `name`."""
    if m < 0:
        raise ValueError(f"m must be >= 0, got {m}")
    if s < 2:
        raise ValueError(f"{name} requires s >= 2, got {s}")
    _check_digits(digits, budget=True)
    with localcontext() as ctx:
        ctx.prec = digits + GUARD_DIGITS + 14
        return _quantize(1 + _l_minus_1(s, chi, digits + GUARD_DIGITS, m), digits)


def zeta(s: int, digits: int) -> Decimal:
    """Riemann zeta at an integer s >= 2, within 10^-digits."""
    return _l_value("zeta", s, RealDirichletCharacter.trivial(), digits)


def hurwitz_zeta(s: int, a: Union[int, str, Fraction], digits: int) -> Decimal:
    """Hurwitz zeta(s, a) for rational a in (0, 1], within 10^-digits."""
    if s < 2:
        raise ValueError(f"hurwitz_zeta requires s >= 2, got {s}")
    _check_digits(digits, budget=True)
    if isinstance(a, float):
        raise TypeError(f"a must be exact, got the float {a!r}")
    a = Fraction(_decimal(a, "a") if isinstance(a, str) else a)
    if not 0 < a <= 1:
        raise ValueError(f"a must lie in (0, 1], got {a}")
    p, q = a.numerator, a.denominator
    # zeta(s, p/q) = q^s * S(s, q, p); allow for the magnitude q^s up front
    q_digits = _digit_count(q)
    magnitude = s * q_digits
    if magnitude > DIGIT_BUDGET:
        raise BudgetExceededError(f"s times the digits of a's denominator, {s} * {q_digits} "
                                  f"= {magnitude}, exceed the budget of {DIGIT_BUDGET} digits")
    prec = digits + GUARD_DIGITS + magnitude
    raw = _dirichlet_sum(s, q, p, prec)
    return _quantize(Decimal(raw * q**s).scaleb(-_width(prec), _UNROUNDED), digits)


def partial_zeta(m: int, s: int, digits: int) -> Decimal:
    """zeta(s) with the Euler factors of the first m primes removed."""
    return _l_value("partial_zeta", s, RealDirichletCharacter.trivial(), digits, m)


def l_series(s: int, chi: RealDirichletCharacter, digits: int) -> Decimal:
    """L(s, chi) for a real character, within 10^-digits."""
    return _l_value("l_series", s, chi, digits)


def _ln1p(t: Decimal) -> Decimal:
    """ln(1 + t) at the current context precision; |t| < 1.

    Uses the power series for small |t| (where adding 1 would cancel
    digits) and the built-in ln otherwise.
    """
    if t == 0:
        return Decimal(0)
    if abs(t) > Decimal("0.25"):
        return (1 + t).ln()
    with localcontext() as ctx:
        ctx.prec += 5
        tiny = Decimal(1).scaleb(-(ctx.prec + 2))
        power = t
        acc = t
        i = 2
        while abs(power) > tiny:
            power *= t
            acc += power / i if i % 2 else -power / i
            i += 1
    return +acc


class _RoughNumbers:
    """p_1, ..., p_m and the p_m-rough numbers (k >= 2 with no prime factor
    <= p_m) in increasing order, from p_(m+1) on, sieved in place as far as
    asked; each new segment at least doubles the sieved range.  It also
    holds the power rows of the L-values that share it, one for the rough k
    and one per Euler-Maclaurin progression qk + a, each begun at `width`
    digits.  The planner builds one, sets its width to that of its largest
    precision and shares it across its L-values."""

    def __init__(self, m: int):
        primes = primes_up_to(nth_prime(m + 1))
        self.primes = primes[:m]
        self.density = math.prod(1 - 1 / p for p in self.primes)  # the share of rough k
        self.ks, self.limit = [primes[m]], primes[m]  # rough k <= limit, all of them
        self.width, self.rows = 0, {}

    def upto(self, end: int) -> List[int]:
        """The rough k, sieved at least through `end`."""
        if end > self.limit:
            lo, hi = self.limit + 1, max(end, 2 * self.limit) + 1
            marks = bytearray([1]) * (hi - lo)
            for p in self.primes:
                start = -lo % p
                marks[start::p] = bytes(len(range(start, hi - lo, p)))
            self.ks += compress(range(lo, hi), marks)
            self.limit = hi - 1
        return self.ks

    def row(self, key: Optional[Tuple[int, int]]) -> _PowerRow:
        """The power row of the rough k (key None) or of qk + a (key (q, a))."""
        if key not in self.rows:
            self.rows[key] = _PowerRow(self.width)
        return self.rows[key]


def _l_minus_1(s: int, chi: RealDirichletCharacter, prec: int, m: int = 0,
               rough: Optional[_RoughNumbers] = None) -> Decimal:
    """L_m(s, chi) - 1 within 10^-prec, with the Euler factors of the first
    m primes removed; `rough` holds p_1, ..., p_m, the p_m-rough k and the
    power rows (built here when the caller passes none).  Every route runs
    on ints at W = _width(prec), u = 10^-W, converted once, exactly.

    Above s' = (10^prec).bit_length() + 2 it computes at s' instead: as
    0 <= k^-s' - k^-s <= k^-s', L_m(s) and L_m(s') differ by at most
    sum_{k>=2} k^-s' <= 2^(1-s') < 10^-prec / 2, and every route below errs
    by under 0.12 10^-prec.  So a huge s costs no more than s'.

    The route is chosen by the number of terms.  About delta K of the k in
    [p_(m+1), K] are p_m-rough, delta = prod_{p <= p_m} (1 - 1/p).  When that
    is at most q _em_cut(prec), that is when the tail bound
    K = _tail_end(s, 1, 0, prec, floor(q _em_cut(prec) / delta)) exists, the
    value is the power-row sum of chi(k) k^-s over those rough k: under
    10^-(prec+1) of tail plus 2 units.

    Otherwise it is (P - 1) + P (L - 1), with no n = 1 term in L - 1 to
    cancel.  For a principal chi (values in {0, 1}) L is zeta and P is
    prod (1 - p^-s) over the primes p <= p_m and the p | q: zeta(s) - 1 is
    _even_zeta_minus_1's closed form for even s, within 9 s units, and the
    one sum S(s, 1, 2) for odd s, within 10^-(prec+1).  Otherwise
    P = prod_{p <= p_m} (1 - chi(p) p^-s) and L - 1 = sum chi(a) S(s, q, a)
    over a = 2..q+1 (a = q+1 stands for a = 1), each within 10^-(w+1) at
    w = prec + len(str(q)) + 1, so under 10^-(prec+2) together, and one
    floor to W.  P = t u by t -= c floor(t / p^s) for each of its n factors
    1 - c p^-s from t = 10^W.  Each floor errs by under a unit and later
    factors scale that by at most 1 + p^-s, with prod (1 + p^-s) <=
    zeta(2)/zeta(4) < 1.52: P errs by under 1.52 n units.  With |L| <=
    zeta(2) < 1.65, |P| < 1.52 and 0 < P <= 1 for a principal chi, the value
    t - 10^W + floor(t (L - 1)) errs by under 1.65 1.52 n u + 10^-(prec+1) +
    9 s u + 4 u: under 0.12 10^-prec for any n and s below 10^9."""
    q, width = chi.modulus, _width(prec)
    s = min(s, (10**prec).bit_length() + 2)
    if rough is None:
        rough = _RoughNumbers(m)
    end = _tail_end(s, 1, 0, prec, math.floor(q * _em_cut(prec) / rough.density))
    if end is not None:
        ks = rough.upto(end)
        value = rough.row(None).sum(s, ks[:bisect_right(ks, end)], width, chi if q > 1 else None)
    else:
        principal = -1 not in chi.values
        if principal:
            factors = [(p, 1) for p in sorted({*rough.primes, *prime_factors(q)})]
        else:
            factors = [(p, chi(p)) for p in rough.primes]
        one = t = 10**width
        for p, c in factors:
            t -= c * (t // p**s)
        if principal and s % 2 == 0:
            total = _even_zeta_minus_1(s, width)
        elif principal:
            total = _dirichlet_sum(s, 1, 2, prec, rough.row((1, 2)))  # n = 2, 3, ...
        else:
            work = prec + len(str(q)) + 1
            total = sum(chi(a) * _dirichlet_sum(s, q, a, work, rough.row((q, a)))
                        for a in range(2, q + 2) if chi(a)) // 10 ** (work - prec)
        value = t - one + t * total // one
    return Decimal(value).scaleb(-width, _UNROUNDED)


# -- Euler products over exponent expansions ---------------------------

_ONE = RationalFunction([1], [1])


@record
class EulerProductSpec:
    """A constant prod_{p > p_m} h(1/p) with h unital and h = 1 + O(z^2)."""

    h: RationalFunction
    m: int = 0
    digits: int = 12

    def __post_init__(self):
        if self.m < 0:
            raise ValueError("m must be >= 0")
        if self.digits < 1:
            raise ValueError("digits must be >= 1")
        probe = self.h.expand(2)
        if probe.coeff(0) != 1:
            raise ValueError(f"h(0) must be 1, got {probe.coeff(0)}")
        if probe.coeff(1) != 0:
            raise ValueError("h must be 1 + O(z^2) (zero linear coefficient)")


@record
class ConstantResult:
    value: Decimal
    digits: int
    cutoff: int
    tail_estimate: Decimal
    heuristic_tail: bool
    working_digits: int
    removed_primes: int  # the first primes whose factors were multiplied exactly

    def to_json_dict(self) -> dict:
        return {
            "value": str(self.value),
            "digits": self.digits,
            "cutoff": self.cutoff,
            "tail_estimate": _sci(self.tail_estimate),
            "heuristic_tail": self.heuristic_tail,
            "working_digits": self.working_digits,
            "removed_primes": self.removed_primes,
        }


def _sci(x: Decimal) -> str:
    """x to four significant digits, as f"{x:.3e}" prints a float, also
    below the float range (where a float would print 0.000e+00)."""
    if x.is_infinite():
        return "inf"
    mantissa, exponent = f"{x:.3e}".split("e") if x else ("0.000", "0")
    return f"{mantissa}e{int(exponent):+03d}"


def _is_exact_factorization(h: RationalFunction, exps) -> Optional[bool]:
    """True iff h equals prod (1-z^n)^(-e_n) exactly as rational functions,
    i.e. h * prod (1-z^n)^(+e_n) == 1.  Returns None (undecided) when the
    product's degree would make the polynomial check impractical."""
    if sum(n * abs(e) for n, e in exps) > 4096:
        return None
    # pad both sides to the larger product degree, so nothing is truncated
    top = max(len(h.num) - 1 + sum(n * e for n, e in exps if e > 0),
              len(h.den) - 1 - sum(n * e for n, e in exps if e < 0))
    num = [list(h.num) + [0] * (top + 1 - len(h.num))]
    den = [list(h.den) + [0] * (top + 1 - len(h.den))]
    for n, e in exps:
        if e > 0:
            num = _mul_factor(num, n, 0, e)
        else:
            den = _mul_factor(den, n, 0, -e)
    return num == den


def _root_bound(poly: Sequence[int]) -> Fraction:
    """An exact rho >= |beta| for every reciprocal root beta of an integer
    polynomial a_0 + ... + a_d z^d, a_0 != 0: the least over k = 0..4 (a step
    can loosen it) of the Cauchy bound of the k-th Graeffe iterate raised to
    1/2^k, by integer bisection (upper end) on |a_0| y^d - ... - |a_d|, y = n/2^s."""
    poly = list(poly)
    while len(poly) > 1 and poly[-1] == 0:
        poly.pop()
    d, bounds = len(poly) - 1, []
    for power in (1, 2, 4, 8, 16) if d else ():
        def at_or_above(n: int, s: int) -> bool:  # 2^(s power d) C(y^power) >= 0, y = n/2^s
            p, acc = n**power, abs(poly[0])
            for i in range(1, d + 1):
                acc = acc * p - (abs(poly[i]) << s * power * i)
            return acc >= 0

        hi = next(1 << j for j in count() if at_or_above(1 << j, 0))  # doubling from 1
        s = max(0, 52 - hi.bit_length())  # [hi/2, hi] halves 50 times on multiples of 2^-s
        lo, hi = (hi // 2) << s, hi << s
        for _ in range(50):
            mid = (lo + hi) // 2
            lo, hi = (lo, mid) if at_or_above(mid, s) else (mid, hi)
        bounds.append(Fraction(hi, 1 << s))
        # Graeffe's step Q(z^2) = P(z) P(-z) squares the reciprocal roots
        poly = [sum((-1) ** j * poly[j] * poly[i - j] for j in range(max(0, i - d), min(i, d) + 1))
                for i in range(0, 2 * d + 1, 2)]
    return min(bounds, default=Fraction(0))


def _cutoff(deg: int, rho: Fraction, base: int, digits: int) -> Tuple[int, Decimal]:
    """(N, T(N)) for the least N with T(N) <= 10^-(digits+4), where T(N)
    bounds sum_{n>N} |e_n ln(1 + t_n)|: |e_n| <= (deg/n) sum_{d|n} R^d for
    deg reciprocal roots bounded by rho, R = max(rho, 1); |t_n| <= tau_n =
    b^-n + b^(1-n)/(n-1) for t_n = zeta_m(n) - 1 or L(n, psi) - 1 with no
    term below k = b = base; |ln(1 + t)| <= |t|/(1 - |t|).  By sum_{d|n} R^d
    <= R^n + (n/2) R^(n/2), with x = R/b, y = sqrt(R)/b, T(N) = deg (1 + b/N)
    (x^(N+1)/((N+1)(1-x)) + y^(N+1)/(2(1-y))) / (1 - tau_(N+1)).
    T(N) is a Decimal, 10^-(digits+4) exp(ln(T(N)) + (digits+4) ln 10), so
    it stays positive where a float would underflow.
    DivergenceError iff rho >= b; ValueError iff N > 16384."""
    if rho >= base:
        raise DivergenceError(f"the reciprocal roots of h may reach {float(rho):.3f} >= "
                              f"{base}; remove more Euler factors (increase m)")
    ln_r, ln_b, ln_target = math.log(max(rho, 1)), math.log(base), -(digits + 4) * math.log(10)

    def ln_tail(n: int) -> float:  # ln(T(n) / target), summed from logs
        pre = (math.log(max(deg, 1)) + math.log1p(base / n) - ln_target
               - math.log1p(-math.exp(-(n + 1) * ln_b + math.log1p(base / n))))
        parts = [pre + (n + 1) * ln_q - math.log(-c * math.expm1(ln_q))
                 for ln_q, c in ((ln_r - ln_b, n + 1), (ln_r / 2 - ln_b, 2))]
        return max(parts) + math.log(sum(math.exp(p - max(parts)) for p in parts))

    if ln_r > ln_b - 1e-9 or ln_tail(16384) > 0:
        raise ValueError("requested precision needs an impractical cutoff")
    n = bisect_left(range(16385), True, lo=1, key=lambda n: ln_tail(n) <= 0)
    return n, Decimal(math.exp(ln_tail(n))).scaleb(-(digits + 4))


def _roots(h: RationalFunction) -> Tuple[int, Fraction]:
    """(d, rho): h has at most d = len(num) + len(den) - 2 reciprocal roots,
    each at most rho in size."""
    return len(h.num) + len(h.den) - 2, max(map(_root_bound, (h.num, h.den)))


def _twisted_exponents(h: Dict[int, RationalFunction], chi: RealDirichletCharacter,
                       order: int) -> Dict[Tuple[int, RealDirichletCharacter], int]:
    """The nonzero exponents, keyed by (n, psi) with n <= order, of
    prod_{p not dividing q} h(chi(p), 1/p) = prod_n L(n, chi^2)^Ev(n)
    L(n, chi)^Od(n).  With E+- the exponents of h(+-1, z), Od(n) = (E+(n) -
    E-(n) + Od(n/2)) / 2 (Od(n/2) = 0 for odd n), checked to be exact, and
    Ev = E+ - Od: chi(p) = 1 gets prod (1 - z^n)^-(Ev + Od) = h(1, z), and
    chi(p) = -1 gets prod (1 - z^n)^-Ev (1 + z^n)^-Od = h(-1, z), as
    (1 + z^n) = (1 - z^2n) / (1 - z^n) makes its exponent at n
    Ev(n) - Od(n) + Od(n/2) = E-(n)."""
    plus = _rational_exponents(h[1], order).exponents
    minus = plus if h[-1] == h[1] else _rational_exponents(h[-1], order).exponents
    odd, chi0 = [0] * (order + 1), chi.square()
    terms = defaultdict(int)
    for n in range(1, order + 1):
        odd[n], rem = divmod(plus[n - 1] - minus[n - 1] + (0 if n % 2 else odd[n // 2]), 2)
        if rem:
            raise IntegralityError(f"the odd-part exponent at n={n} is not an integer")
        terms[n, chi0] += plus[n - 1] - odd[n]
        terms[n, chi] += odd[n]
    return {key: e for key, e in terms.items() if e}


def _base(chi: RealDirichletCharacter, primes: Sequence[int]) -> int:
    """The least k >= 2 with chi(k) != 0 and no prime factor in `primes`."""
    return next(k for k in count(2) if chi(k) and all(k % p for p in primes))


def _twisted_product(h: Dict[int, RationalFunction], chi: RealDirichletCharacter, m: int,
                     digits: int) -> ConstantResult:
    """prod_{p > p_m} h(chi(p), 1/p), quantized to `digits`, with its cutoff,
    proven tail, working digits and the m' below, for a real character chi
    mod q and h mapping x in {-1, 0, 1} to the rational function h(x, z).

    The plan removes the first m' = max(m, _EXACT_PRIMES) primes; m' is
    internal, and the refusals (_cutoff's DivergenceError and its
    impractical cutoff) are decided first at the user's m, so they do not
    depend on it.  Two calls of _twisted_direct give the exact factors: h
    itself over p_m < p <= p_m' (a p | q there has chi(p) = 0, so h(0)),
    and h(0) alone over the p | q above p_m', so that no p | q counts twice.
    The others are exp(sum e ln L_m'(n, psi)) over _twisted_exponents cut at
    one order N, which _cutoff proves with base b, the least k >= 2 with
    chi(k) != 0 coprime to every p <= p_m' (no L_m'(n, psi) - 1 here has a
    term below b); the L-values share one _RoughNumbers.  If h(1) == h(-1),
    as for a principal chi, where h(-1) never enters, Od = 0 and Ev = E+:
    the weight is that of h(1), and a product that terminates has tail 0.
    Otherwise, with d+- reciprocal roots of h(+-1, z), R = max(3/2, rho+,
    rho-) bounding them and s(n) = sum_{d|n} R^d, |E+-(n)| <= d+- s(n)/n;
    by induction over the halvings |Od(n)| <= (d+ + d-)(s(n) + 3 s(n/2))/(2n)
    <= 3 (d+ + d-) s(n)/(2n), as s(n/2) <= s(n) - R^n < 2 s(n)/3 for
    R >= 3/2; so the weight |Ev| + |Od| is at most (d+ + 3 (d+ + d-))
    s(n)/n.  Each L-value has its own precision (module docstring); the
    working digits are the largest."""
    if -1 not in chi.values:  # chi == chi^2, without building chi^2
        h = {**h, -1: h[1]}
    deg, rho = _roots(h[1])
    if h[1] != h[-1]:
        d, r = _roots(h[-1])
        deg, rho = deg + 3 * (deg + d), max(Fraction(3, 2), rho, r)
    plan = max(m, _EXACT_PRIMES)  # m'
    rough = _RoughNumbers(plan)
    _cutoff(deg, rho, _base(chi, rough.primes[:m]), digits)  # refusals at the user's m
    cutoff, tail = _cutoff(deg, rho, _base(chi, rough.primes), digits)
    terms = _twisted_exponents(h, chi, cutoff)
    exps = [(n, e) for (n, _), e in terms.items()]
    if h[1] == h[-1] and _is_exact_factorization(h[1], exps):
        cutoff, tail = exps[-1][0] if exps else 1, Decimal(0)
    precs = {key: digits + 6 + math.ceil(_log10_int(e)) + GUARD_DIGITS
             for key, e in terms.items()}
    prec = max(precs.values(), default=digits + 6 + GUARD_DIGITS)
    # the power rows' width: at least that of every sum (_l_minus_1 runs
    # Euler-Maclaurin at up to prec + len(str(q)) + 1), with a factor 10 to
    # spare in the number of terms, so that no row is rebuilt wider
    work = prec + len(str(chi.modulus)) + 1
    rough.width = _width(work) + 1 + len(str(chi.modulus * _em_cut(work)))
    small = _twisted_direct(h, chi, m, rough.primes[-1], prec).value  # p_m < p <= p_m'
    divisors = _twisted_direct({-1: _ONE, 0: h[0], 1: _ONE}, chi, plan, chi.modulus, prec).value
    with localcontext() as ctx:
        ctx.prec = prec + 12
        total = Decimal(0)
        for (n, psi), e in terms.items():
            total += e * _ln1p(_l_minus_1(n, psi, precs[n, psi], plan, rough))
        value = _quantize(total.exp() * small * divisors, digits)
    return ConstantResult(value, digits, cutoff, tail, False, prec, plan)


def euler_product(spec: EulerProductSpec) -> ConstantResult:
    """prod_{p > p_m} h(1/p) as prod_{n >= 2} zeta_m(n)^(e_n): the twisted
    product with the trivial character and h independent of x.

    The exponents come from the unique product expansion of h, up to the
    cutoff that a bound on the reciprocal roots of h proves (_cutoff); each
    contributes e_n * ln(1 + (zeta_m(n) - 1)) at its own working precision,
    wide enough to absorb the size of e_n.  The reported tail is that proven
    bound, or 0 for a product that terminates.
    """
    return _twisted_product(dict.fromkeys((-1, 0, 1), spec.h), RealDirichletCharacter.trivial(),
                            spec.m, spec.digits)


def _check_prime_limit(name: str, limit: int, m: int) -> None:
    """Check that the prime limit called `name` exceeds p_m (1 for m = 0),
    so that a direct product has a prime to multiply."""
    if m < 1:
        if limit < 2:
            raise ValueError(f"{name} must be >= 2, got {limit}")
        return
    last = nth_prime(m)
    if limit <= last:
        raise ValueError(f"{name} {limit} must exceed p_{m} = {last}, the last removed prime")


def _twisted_direct(h: Dict[int, RationalFunction], chi: RealDirichletCharacter, m: int,
                    limit: int, digits: int) -> ConstantResult:
    """prod h(chi(p), 1/p) over the primes p_m < p <= limit, for h as in
    _twisted_product, quantized to `digits` (module docstring, "Direct
    products"), with the limit as its cutoff, its tail and its working
    digits; DivergenceError names a prime at a pole.  The tail bounds how far
    the primes p > L = limit can move the value; it is computed in floats,
    like _cutoff's T(N).

    The omitted p > L have 1/p <= u = 1/(L + 1).  x runs over the nonzero
    values of chi, and over 0 too when q > L, since a prime factor of q may
    then exceed L; rows with h(x) = 1 add nothing, and with none left the
    tail is 0 (so L = q = 1 is fine).  Otherwise L >= 2 and L > p_m, as
    _check_prime_limit ensures.  For each row write num - den = z^2 r(z)
    (ValueError if its z^0 or z^1 coefficient is nonzero).  For 0 < t <= u,
    |h(x, t) - 1| <= A_x t^2 with A_x = sum |r_i| u^i / (|d_0| - sum_{i>=1}
    |d_i| u^i), d = den, when that denominator is positive.  With A = max
    A_x and A u^2 < 1, |ln h(chi(p), 1/p)| <= A p^-2 / (1 - A u^2).  The
    primes above L >= 2 are odd, and each odd n^-2 is at most half the
    integral of t^-2 over [n - 2, n], so sum_{odd n > L} n^-2 <= 1/(2(L - 1)).
    The omitted log-sum is at most T = A / (2 (L - 1) (1 - A u^2)), and the
    tail is |value| (e^T - 1); it is infinite when a majorant denominator
    is not positive or A u^2 >= 1."""
    rows, q, prec = {}, chi.modulus, digits + GUARD_DIGITS + 12
    for x in set(chi.values):
        num, den = h[x].num, h[x].den
        w = max(len(num), len(den))
        pairs = tuple(zip(num + (0,) * (w - len(num)), den + (0,) * (w - len(den))))
        rows[x] = None if all(c == d for c, d in pairs) else pairs  # None: h(x) = 1
    table = [rows[x] for x in chi.values]  # indexed by p mod q
    with localcontext() as ctx:
        ctx.prec = prec
        value = Decimal(1)
        for p in primes_up_to(limit)[m:]:
            pairs = table[p % q]
            if pairs is None:
                continue
            a = b = 0  # p^(w-1) num(1/p) and p^(w-1) den(1/p) by Horner's rule
            for c, d in pairs:
                a, b = a * p + c, b * p + d
            if not b:
                raise DivergenceError(f"h(chi(p), 1/p) has a pole at p = {p}")
            value *= Decimal(a) / Decimal(b)
        value = _quantize(+value, digits)
    bound, u = 0.0, 1 / (limit + 1)  # A, and 1/p <= u above the limit
    for x, pairs in rows.items():
        if pairs and (x or q > limit):
            diff = [c - d for c, d in pairs]
            if any(diff[:2]):
                raise ValueError("h(x, z) - 1 must be O(z^2)")
            low = abs(pairs[0][1]) - sum(abs(d) * u**i for i, (_, d) in enumerate(pairs) if i)
            top = sum(abs(r) * u**i for i, r in enumerate(diff[2:]))
            bound = max(bound, top / low if low > 0 else math.inf)
    if bound * u * u >= 1:
        tail = math.inf
    else:
        log_sum = bound / (2 * (limit - 1) * (1 - bound * u * u)) if bound else 0.0  # T
        tail = abs(float(value)) * math.expm1(log_sum)
    return ConstantResult(value, digits, limit, Decimal(tail), False, prec, m)


def euler_product_direct(spec: EulerProductSpec, prime_limit: int) -> ConstantResult:
    """Reference evaluation prod_{p_m < p <= prime_limit} h(1/p), used to
    validate euler_product, with _twisted_direct's proven bound on the
    primes above prime_limit as its tail (infinite where h's majorant
    fails at that limit) and the precision it multiplied at."""
    _check_prime_limit("prime_limit", prime_limit, spec.m)
    return _twisted_direct(dict.fromkeys((-1, 0, 1), spec.h), RealDirichletCharacter.trivial(),
                           spec.m, prime_limit, spec.digits)


# -- the order-constant family B_chi ------------------------------------

# h(x, z) = 1 + (x-1) z^2 / ((1 - x z^2)(1 - z)) at x = 0 (Artin's h), 1 and -1
_BCHI_H = {
    0: RationalFunction([1, -1, -1], [1, -1]),
    1: _ONE,
    -1: RationalFunction([1, -1, -1, -1], [1, -1, 1, -1]),
}


def b_chi(chi: RealDirichletCharacter, digits: int) -> ConstantResult:
    """The Euler product prod_p h(chi(p), 1/p) with h(x, z) = 1 + (x-1) z^2 /
    ((1 - x z^2)(1 - z)), that is prod_p (1 + (chi(p)-1) p / ((p^2 - chi(p))
    (p-1))), evaluated through Dirichlet L-series.

    One call to _twisted_product: the exact factors h(0, 1/p) = (p^2 - p - 1)
    / (p^2 - p) for the p | q, times prod_n L(n, chi^2)^Ev(n) L(n, chi)^Od(n)
    with the exponents of h(1, z) = 1 and h(-1, z) = (1 - z - z^2 - z^3) /
    (1 - z + z^2 - z^3), cut at one proven order, so each L-value is computed
    once (none for a principal chi, where the value is the exact rational).
    b_chi_direct is its cross-check.
    """
    _check_digits(digits)
    return _twisted_product(_BCHI_H, chi, 0, digits)


def b_chi_direct(chi: RealDirichletCharacter, digits: int, prime_limit: int) -> ConstantResult:
    """Reference evaluation of b_chi's defining product over the primes
    p <= prime_limit (at least 2), used to validate b_chi, with
    _twisted_direct's proven bound on the primes above prime_limit as its
    tail and the precision it multiplied at."""
    _check_digits(digits)
    _check_prime_limit("prime_limit", prime_limit, 0)
    return _twisted_direct(_BCHI_H, chi, 0, prime_limit, digits)


# -- convergence-hypothesis reporting -----------------------------------


@record
class ConvergenceReport:
    radius: float
    radius_method: str
    g_half: float
    radius_ok: bool
    g_half_ok: bool
    prime_sum_converges: Optional[bool]
    hypotheses_hold: bool
    note: str

    def to_json_dict(self) -> dict:
        return {
            "radius": self.radius,
            "radius_method": self.radius_method,
            "g_half": self.g_half,
            "radius_ok": self.radius_ok,
            "g_half_ok": self.g_half_ok,
            "prime_sum_converges": self.prime_sum_converges,
            "hypotheses_hold": self.hypotheses_hold,
            "note": self.note,
        }


def _float_or_inf(value) -> float:
    """value() as a float, or inf where it overflows the float range."""
    try:
        return value()
    except OverflowError:
        return math.inf


def check_convergence_hypotheses(
    f: Union[TruncatedSeries, RationalFunction],
) -> ConvergenceReport:
    """Report whether the double-product-to-L-series step applies to f.

    Checks the two quantitative hypotheses -- radius of convergence of
    g = sum |a_j| z^j above 1/2, and g(1/2) < 1 -- and states (without
    proof) whether sum_p g(1/p) converges, which for rational f holds
    exactly when the first nonzero coefficient index is >= 2.

    f must have zero constant term.
    """
    if isinstance(f, RationalFunction):
        probe = f.expand(64)
        if probe.coeff(0) != 0:
            raise ValueError("f must have zero constant term")
        rho = _root_bound(f.den)  # every pole 1/beta has |1/beta| >= 1/rho
        radius = math.inf if rho == 0 else float(1 / rho)
        method = "denominator root bound (a proven lower bound on the radius)"
        coeffs = probe.coeffs
        window_note = ""
        # g's terms past the expansion, bounded geometrically with ratio
        # 1/(2 radius) = rho/2 when the radius exceeds 1/2
        ratio = rho / 2 if 0 < rho < 2 else 0
    else:
        if f.coeff(0) != 0:
            raise ValueError("f must have zero constant term")
        coeffs = f.coeffs
        tail = [(j, abs(c)) for j, c in enumerate(coeffs) if c and j >= 1]
        if not tail:
            radius = math.inf
        else:
            j_last = tail[-1][0]
            if j_last <= f.order // 2:
                radius = math.inf  # looks polynomial on this window
            else:
                # root ratio (|a_i| / |a_j|)^(1/(j-i)) of the first and last
                # nonzero coefficients of the trailing window, exact for a
                # geometric tail; for a single one, against a_0 = 1, so
                # |a_j|^(-1/j).  In base-2 logs of the integers, so that no
                # coefficient has to fit a float and a ratio 2^k stays exact
                (i, a_i), (j, a_j) = tail[-8:][0], tail[-1]
                if i == j:
                    i, a_i = 0, 1
                logs = [math.log2(a.numerator) - math.log2(a.denominator) for a in (a_i, a_j)]
                radius = _float_or_inf(lambda: 2.0 ** ((logs[0] - logs[1]) / (j - i)))
        method = "coefficient-growth"
        window_note = " (estimated from the truncated window)"
        ratio = 0

    j0 = next((j for j, c in enumerate(coeffs) if j >= 1 and c), None)
    g = sum(abs(Fraction(c)) / 2**j for j, c in enumerate(coeffs))
    if ratio:
        g += abs(Fraction(coeffs[-1])) / 2 ** (len(coeffs) - 1) * ratio / (1 - ratio)
    g_half, g_ok = _float_or_inf(lambda: float(g)), g < 1  # decided on the exact g
    radius_ok = radius > 0.5
    prime_sum = None if j0 is None else (j0 >= 2)
    return ConvergenceReport(
        radius=radius,
        radius_method=method + window_note,
        g_half=g_half,
        radius_ok=radius_ok,
        g_half_ok=g_ok,
        prime_sum_converges=prime_sum,
        hypotheses_hold=radius_ok and g_ok,
        note="prime-sum convergence is stated from the leading exponent, "
        "not proved; g(1/2) includes a geometric tail bound for rational f",
    )
