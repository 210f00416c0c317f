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
exponents are; the reported working precision is the largest p.  Its
logarithm is taken in fixed point at the same width (_log1p), and the
sum of e ln is one int at the width of the largest p, converted once
before the one exp.

One kernel, _l_minus_1, returns L_m(s, chi) - 1 within 10^-prec, for chi
mod q and the Euler factors of the first m primes removed, by one of three
routes.  One exact tail rule, _tail_end, cuts the first: the least K >= 1
whose integral tail (qK+a)^(1-s) / (q(s-1)) is at most 10^-(prec+1),
settled by integer comparisons.  With (q, a) = (1, 0) it bounds
sum_{k>K} k^-s.

- Direct rough sum, chosen by its number of terms: when that K for (1, 0)
  is at most q _em_cut(prec) / delta, delta = prod_{p <= p_m} (1 - 1/p)
  the share of p_m-rough k (coprime to every p <= p_m), so that about
  q _em_cut(prec) = q max(12, prec) terms lie below K: sum chi(k) k^-s
  over the p_m-rough k with p_(m+1) <= k <= K.  No product over the
  removed primes; large s needs only a handful of terms.  The rough k come
  from one _RoughNumbers sieve, which the planner builds once and shares
  across its L-values.
- Otherwise through the primitive character chi* mod f, f | q, that
  induces chi (_primitive; H. Davenport, "Multiplicative Number Theory",
  ch. 5): L_m(s, chi) = L(s, chi*) P with P = prod (1 - chi*(p) p^-s) over
  the p <= p_m and the p | q, and L_m(s, chi) - 1 = (P - 1) + P (L - 1),
  with P in fixed point (below).  A principal chi has chi* = 1, so L is
  zeta; for even s that value is in closed form, zeta(s) = |B_s| (2 pi)^s /
  (2 s!) (_even_zeta_minus_1), with B_s from the Bernoulli cache and pi
  from Machin's series in arith (J. M. Borwein, D. M. Bradley, R. E.
  Crandall, "Computational strategies for the Riemann zeta function",
  2000).
- An alternating sum for every other L(s, chi*), zeta at odd s included:
  with A(s, r, a) = sum_{k>=0} (-1)^k (rk+a)^-s, r = f for odd f and f/2
  for even f,

      (1 - chi*(2) 2^(1-s)) L(s, chi*) = sum_{a=1..r} (-1)^(a-1) chi*(a) A(s, r, a)

  (_alternating_minus_1; f = 1 is eta(s) = A(s, 1, 1)).  Each A(s, r, a)
  is one row of Chebyshev weights (_ChebyshevWeights: P. Borwein, "An
  efficient algorithm for the Riemann zeta function", CMS Conf. Proc. 27,
  2000; H. Cohen, F. Rodriguez Villegas, D. Zagier, "Convergence
  acceleration of alternating series", Experiment. Math. 9, 2000), about
  1.31 prec terms for any s: the weights are the same for every s, so the
  planner builds them once.

Euler-Maclaurin is left to Hurwitz zeta: zeta(s, p/q) = q^s S(s, q, p),
S(s, q, a) = sum_{k>=0} (qk+a)^-s, in _dirichlet_sum, without large
intermediate magnitudes.  It cuts the direct summation at the tail rule's
K for (q, a) when that is at most _em_cut(prec), else at _em_cut(prec),
and the cut doubles if the correction terms diverge first.

Fixed point.  The kernel runs on ints t standing for t 10^-W, at one
width W = prec + 12, and returns its int: the L-value entry points
convert it to Decimal once, exactly, and the planner takes
ln(1 + t 10^-W) of it in fixed point as 2 atanh(t / (2 10^W + t)).  Every
sum of powers is read from one row class, _Row, of floor(c_k / x_k^s):
every direct sum (the rough sum and the k < cut part of Euler-Maclaurin)
from a power row, c_k = 10^W on the k, and every alternating sum from an
alternating row, c_k = C_k on the progression rk + a, C_k the Chebyshev
weights at a few more digits than W.  The caller sums the entries: chi(k)
times each, or with alternating signs.  Correction j is one exact
floor, floor(B_2j X_j / (2j)!), with B_2j read from the Bernoulli cache and
X_j the int for x_j = q^(2j-1) (s)_(2j-1) / base^(s+2j-1), stepped by one
rational factor per j; no table of coefficients is kept.  The closed form
and the removed Euler factors P are floors too.  Each floor errs by under
10^-W, and _dirichlet_sum counts its floors in its stop test, so its
remainder bound is a proof in integers; _alternating_minus_1 counts its
floors likewise.  The power row of the rough k and the alternating row of
each progression rk + a are kept in the planner's shared _RoughNumbers,
at the width of its largest precision, and move from s to a larger s' in
place by v //= x_k^(s' - s), which is exact: the planner's L-values at
n = 2, 3, ... share their divisions instead of dividing afresh for each n.
"""

from __future__ import annotations

import math
from bisect import bisect_left, bisect_right
from collections import defaultdict
from decimal import MAX_EMAX, MAX_PREC, MIN_EMIN, Context, Decimal, localcontext
from fractions import Fraction
from itertools import accumulate, compress, count, repeat
from typing import Dict, List, Optional, Sequence, Tuple, Union

from ._record import record
from .arith import bernoulli, divisors, nth_prime, pi_fixed, prime_factors, primes_up_to
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
# and largest s len(str(q)) that hurwitz_zeta(s, p/q) takes; at D = 2000 a
# cold zeta(3, D) and l_series(3, (-16|.), D), alternating sums (the latter
# of chi_-4), took 0.023 s each, zeta(2, D), in closed form, 0.005 s, and
# hurwitz_zeta(3, 1/3, D), by Euler-Maclaurin, 0.34 s (in process, medians
# of 10, each in a new process; Python 3.11, 2 cores)
DIGIT_BUDGET = 2000

# converts the kernel's fixed-point ints to Decimal without rounding
_UNROUNDED = Context(prec=MAX_PREC, Emax=MAX_EMAX, Emin=MIN_EMIN)


# -- the L-value kernel: width, rows, tail rule, routes ------------------


def _width(prec: int) -> int:
    """The L-value kernel's one fixed-point width: a value within 10^-prec
    is an int t for t 10^-(prec+12), with 10^11 units to spare for floors."""
    return prec + 12


class _Row:
    """floor(c_k / x_k^s) for start values c_k at fixed-point `width` and
    bases x_k >= 1, k = 0, 1, ..., as many as a call asks for, kept between
    calls at one exponent s at a time: c_k = starts[k], or 10^width for
    every k without starts.  A call at a larger s advances the row in place
    by v //= x_k^(s' - s), which is exact, as floor(floor(c / a) / b) =
    floor(c / (a b)): a row holds exactly what fresh divisions give,
    whatever came before, at the cost of one division by a short
    x_k^(s' - s) per entry instead of a long x_k^s.  A smaller s starts
    again from the c_k.  The power rows (_power_row) hold floor(10^W / k^s)
    on a sequence of k that grows from call to call, the alternating rows
    (_RoughNumbers.alternating) the Chebyshev weights over one progression
    qk + a; each caller sums the entries its own way."""

    def __init__(self, width: int, starts: Optional[Sequence[int]] = None):
        self.width, self.starts, self.s, self.values = width, starts, 0, []

    def at(self, s: int, bases: Sequence[int]) -> List[int]:
        """The entries floor(c_k / x_k^s) for the bases x_k in `bases`,
        which continue or cut short those of the row's earlier calls."""
        values = [] if s < self.s else self.values
        if s > self.s:
            values = [v // x ** (s - self.s) for v, x in zip(values, bases)]
        n = len(values)
        if n < len(bases):
            starts = repeat(10**self.width) if self.starts is None else self.starts[n:]
            values += [c // x**s for c, x in zip(starts, bases[n:])]
        self.s, self.values = s, values
        return values[:len(bases)]


def _power_row(row: Optional[_Row], width: int, terms: int) -> _Row:
    """A power row for a sum of `terms` terms k^-s at `width`: `row` if its
    width W is at least width + len(str(terms)), else a new one at that
    width.  Its T terms then err by under 10^-W each, so their sum floored
    to `width` is within 2 units."""
    need = width + len(str(terms))
    return row if row is not None and row.width >= need else _Row(need)


def _em_cut(prec: int) -> int:
    """The default Euler-Maclaurin cut max(12, prec): the most direct terms
    of _dirichlet_sum and, times q, the most p_m-rough terms of _l_minus_1's
    rough sum.  A direct term in fixed point costs far less than a
    correction; of the cuts 2 prec / 5, 0.7 prec, prec, 1.5 prec and 2 prec
    over D in {12, 30, 100, 300, 1000} this was the best single rule (Artin
    at D = 1000: 15.1, 10.6, 9.4 and 9.5 s for the first four; Python 3.11,
    2 cores)."""
    return max(12, prec)


def _settle(test, lo: int, guess: int) -> int:
    """The least n > lo with test(n), for a test that is monotone above lo
    (false, then true): galloping out from the guess, clamped above lo, by
    steps 1, 2, 4, ... until the test turns, then halving what is left.  A
    float guess is settled by exact tests in O(log d) of them, d its
    distance from the answer."""
    n, hi, step = max(guess, lo + 1), None, 1
    while lo < n and (hi is None or n < hi):
        if test(n):
            hi, n = n, n - step
        else:
            lo, n = n, n + step
        step *= 2
    while hi - lo > 1:
        mid = (lo + hi) // 2
        lo, hi = (lo, mid) if test(mid) else (mid, hi)
    return hi


def _tail_end(s: int, q: int, a: int, prec: int, cap: int) -> Optional[int]:
    """The least K >= 1 whose integral tail (qK+a)^(1-s) / (q(s-1)) is at
    most 10^-(prec+1), that is q(s-1) (qK+a)^(s-1) >= 10^(prec+1), if
    K <= cap; else None.  With (q, a) = (1, 0) the tail bounds
    sum_{k>K} k^-s.  A float guess more than a decade above q cap + a
    answers None at once; any other is settled by exact integer tests
    (_settle)."""
    scale = q * (s - 1)
    guess = (prec + 1 - math.log10(scale)) / (s - 1)  # log10 of qK+a at the real root
    if guess > math.log10(q * cap + a) + 1:
        return None
    goal = 10 ** (prec + 1)
    end = _settle(lambda k: scale * (q * k + a) ** (s - 1) >= goal, 0,
                  math.ceil((10.0**guess - a) / q))
    return end if end <= cap else None


def _dirichlet_sum(s: int, q: int, a: int, prec: int) -> int:
    """S(s, q, a) = sum_{k>=0} (qk+a)^-s as an int at W = _width(prec)
    within 10^-(prec+1), by Euler-Maclaurin, for hurwitz_zeta.

    s >= 2; q >= 1; a >= 1.  The cut is _tail_end's K if that is at most
    _em_cut(prec), else _em_cut(prec) (large s needs only a few direct
    terms), and it doubles when the corrections diverge before reaching
    target (or 4 prec of them do not reach it).

    In units u = 10^-W, with base = q cut + a, the terms k < cut come from
    one power row within 2 units, and the integral term base^(1-s) / (q(s-1)) and
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
    row = None
    while True:
        base = q * cut + a
        square, power = base * base, base ** (s - 1)
        ks = range(a, base, q)
        row = _power_row(row, width, len(ks))
        total = sum(row.at(s, ks)) // 10 ** (row.width - width)
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


def _chebyshev_at_3(n: int) -> int:
    """T_n(3) = ((3 + sqrt 8)^n + (3 - sqrt 8)^n) / 2, the x of (3 + 2 sqrt 2)^n
    = x + y sqrt 2, by binary powering in Z[sqrt 2]."""
    x, y = 1, 0
    for bit in bin(n)[2:]:
        x, y = x * x + 2 * y * y, 2 * x * y
        if bit == "1":
            x, y = 3 * x + 4 * y, 2 * x + 3 * y
    return x


class _ChebyshevWeights:
    """The weights of P. Borwein's and Cohen-Rodriguez Villegas-Zagier's
    acceleration of an alternating series, for every sum at a precision up
    to `prec`: C_k for k < n, within n^2 below x_k = (d_n - d_k) 10^width
    / d_n, at width = _width(prec) + 3 len(str(n)) + 1.

    T_n(1 + 2y) = sum_i t_i y^i with t_i = n C(n+i, 2i) 4^i / (n+i), so
    t_0 = 1, t_(i+1) = t_i A_i / B_i with A_i = 2 (n+i)(n-i) and B_i =
    (i+1)(2i+1), and d_k = t_0 + ... + t_k; d_n = T_n(3) (_chebyshev_at_3).
    n is the least with d_n >= 10^(prec+2): a float estimate settled by
    exact comparisons (_settle).

    With v_i = t_i 10^width / d_n, x_k is the sum of v_i over i > k.  A_i /
    B_i falls as i grows, so t_i rises up to the least p with A_p <= B_p and
    falls after it.  u_p = floor(v_p), u_(i+1) = floor(u_i A_i / B_i) for
    i >= p and u_i = floor(u_(i+1) B_i / A_i) for i < p: each step
    multiplies the shortfall by a ratio of at most 1 and adds under 1, so
    u_i lies in (v_i - |i - p| - 1, v_i], within n of v_i as 1 <= i, p <= n,
    and C_k, the sum of u_i over i > k, in (x_k - n^2, x_k].  Every u_i but
    u_p is one multiplication and one division by short integers."""

    def __init__(self, prec: int):
        goal = 10 ** (prec + 2)
        n = _settle(lambda n: _chebyshev_at_3(n) >= goal, 0,
                    math.ceil((prec + 2 + _LOG10_2) / math.log10(3 + math.sqrt(8))))
        self.prec, self.width = prec, _width(prec) + 3 * len(str(n)) + 1
        p = next(i for i in range(n + 1) if 2 * (n + i) * (n - i) <= (i + 1) * (2 * i + 1))
        u = [0] * (n + 1)
        peak = n * math.comb(n + p, 2 * p) * 4**p // (n + p)  # t_p
        u[p] = peak * 10**self.width // _chebyshev_at_3(n)
        for i in range(p, n):
            u[i + 1] = u[i] * (2 * (n + i) * (n - i)) // ((i + 1) * (2 * i + 1))
        for i in range(p - 1, 0, -1):
            u[i] = u[i + 1] * ((i + 1) * (2 * i + 1)) // (2 * (n + i) * (n - i))
        self.values = list(accumulate(reversed(u[1:])))[::-1]


def _primitive(chi: RealDirichletCharacter) -> RealDirichletCharacter:
    """The primitive character chi* mod f that induces chi mod q: f is the
    least divisor of q such that chi(a) depends only on a mod f for the a
    coprime to q, and chi*(a) is that value, 0 where gcd(a, f) > 1; chi
    itself when f = q."""
    for f in divisors(chi.modulus):
        values = {}
        if all(values.setdefault(a % f, v) == v for a, v in enumerate(chi.values) if v):
            break
    if f == chi.modulus:
        return chi
    return RealDirichletCharacter(f, tuple(values.get(a, 0) for a in range(f)))


def _alternating_minus_1(s: int, chi: RealDirichletCharacter, prec: int,
                         rough: _RoughNumbers) -> int:
    """L(s, chi) - 1 for a primitive chi mod f (_primitive) as an int at W
    = _width(prec), u = 10^-W, within 0.034 10^-prec + (0.2 h + 1) u, h
    the number of rows below, by one identity: with c = chi(2), r = f for
    odd f and r = f/2 for even f, and A(s, r, a) = sum_{k>=0} (-1)^k
    (rk + a)^-s,

        (1 - c 2^(1-s)) L(s, chi) = sum_{n>=1} (-1)^(n-1) chi(n) n^-s
                                  = N = sum_{a=1..r} (-1)^(a-1) chi(a) A(s, r, a),

    from one alternating row in `rough` for each a with chi(a) != 0, and
    then L - 1 = ((N - 1) 2^(s-1) + c) / (2^(s-1) - c).  The first equality
    holds as the even n sum to c 2^-s L (chi is completely
    multiplicative).  The second splits n = rk + a.  For odd f, (-1)^(n-1)
    = (-1)^k (-1)^(a-1) and chi(n) = chi(a); f = 1 is eta(s) = A(s, 1, 1) =
    (1 - 2^(1-s)) zeta(s).  For even f only odd n and odd a count, where
    (-1)^(n-1) = (-1)^(a-1) = 1 and c = 0, and chi(a + f/2) = -chi(a), so
    chi(rk + a) = (-1)^k chi(a).  Proof: 4 | f, since for f = 2 mod 4 the
    odd x = y mod f/2 are equal mod f, and chi would depend on a mod f/2
    alone.  So a (1 + f/2) = a + f/2 mod f for odd a, as (a - 1) f/2 = 0
    mod f, and 1 + f/2 is a unit (odd, and 1 mod every odd p | f).  Were
    chi(1 + f/2) = 1, the units x and x + f/2 = x (1 + f/2) would share a
    value, so chi(a) would depend on a mod f/2 alone, against f being
    least; hence chi(1 + f/2) = -1.

    Truncation (H. Cohen, F. Rodriguez Villegas, D. Zagier, "Convergence
    acceleration of alternating series", Experiment. Math. 9, 2000, Prop.
    1): (rk + a)^-s = int_0^1 x^k dmu(x) for a positive measure mu on [0, 1]
    of mass a^-s (x = e^(-rt) in the Gamma integral), so A(s, r, a) =
    int dmu / (1 + x).  With P_n(x) = T_n(1 - 2x), d_n = P_n(-1) and
    (d_n - P_n(x)) / (1 + x) = sum_{k<n} (d_n - d_k) (-x)^k (d_k the
    partial sums of _ChebyshevWeights), the n-term sum sum_{k<n} (-1)^k
    (d_n - d_k) / d_n (rk + a)^-s misses A by int P_n dmu / ((1 + x) d_n),
    and |P_n| <= 1 on [0, 1]: by at most a^-s / d_n <= a^-s 10^-(prec+2).
    Over the rows that is under zeta(2) 10^-(prec+2) < 1.65 10^-(prec+2).

    Floors: a weight C_k lies in (x - n^2, x] (_ChebyshevWeights), and a
    row entry floor(C_k / (rk + a)^s) in (y - n^2 - 1, y] for y = x / (rk +
    a)^s, so one row errs by under n (n^2 + 1) < (n + 1)^3 <= 10^(3 len(str(n)))
    units of its width W + 3 len(str(n)) + 1, under 0.1 u, and the h rows
    by under 0.1 h u.  The map from N to L - 1 multiplies errors by
    2^(s-1) / (2^(s-1) - c) <= 2 and ends in one floor: L - 1 errs by under
    2 (1.65 10^-(prec+2) + 0.1 h u) + u < 0.034 10^-prec + (0.2 h + 1) u,
    under 10^-(prec+1) for any h below 10^10."""
    f, c = chi.modulus, chi(2)
    r = f if f % 2 else f // 2
    total = 0
    for a in range(1, r + 1):
        if chi(a):
            values = rough.alternating(r, a, s, prec)
            total += (-1) ** (a - 1) * chi(a) * (sum(values[::2]) - sum(values[1::2]))
    width, power = rough.weights.width, 2 ** (s - 1)
    one, scale = 10**width, 10 ** (width - _width(prec))
    return ((total - one) * power + c * one) // ((power - c) * scale)


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
    prec = digits + GUARD_DIGITS
    value = Decimal(_l_minus_1(s, chi, prec, m)).scaleb(-_width(prec), _UNROUNDED)
    with localcontext() as ctx:
        ctx.prec = prec + 14
        return _quantize(1 + value, digits)


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


class _RoughNumbers:
    """p_1, ..., p_m and the p_m-rough numbers (k >= 2 with no prime factor
    <= p_m) in increasing order, from p_(m+1) on, sieved in place as far as
    asked; each new segment at least doubles the sieved range.  It also
    holds what the L-values that share it reuse: one power row for the
    rough k (`power`); per character, its primitive chi* and removed Euler
    factors; and the Chebyshev weights, built once at no less than `prec`,
    with one alternating row per progression rk + a.  The planner builds
    one, sets its power row and prec from its largest precision and shares
    it across its L-values."""

    def __init__(self, m: int):
        primes = primes_up_to(nth_prime(m + 1))
        self.primes = primes[:m]
        self.density = math.prod(1 - 1 / p for p in self.primes)  # the share of rough k
        self.ks, self.limit = [primes[m]], primes[m]  # rough k <= limit, all of them
        self.power, self.characters = None, {}
        self.prec, self.weights, self.rows = 0, None, {}

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

    def primitive(self, chi: RealDirichletCharacter) -> Tuple[RealDirichletCharacter,
                                                               List[Tuple[int, int]]]:
        """(chi*, [(p, chi*(p))]) for the primitive chi* of chi and the
        removed primes p, those <= p_m and those dividing q, in increasing
        order and with chi*(p) != 0; computed once per character."""
        if chi not in self.characters:
            star, removed = _primitive(chi), {*self.primes, *prime_factors(chi.modulus)}
            self.characters[chi] = star, [(p, star(p)) for p in sorted(removed) if star(p)]
        return self.characters[chi]

    def alternating(self, q: int, a: int, s: int, prec: int) -> List[int]:
        """floor(C_k / (qk + a)^s) for the Chebyshev weights C_k, k < n, that
        serve `prec`, from the alternating row of qk + a; new weights, at
        max(prec, self.prec), start every row afresh."""
        if self.weights is None or self.weights.prec < prec:
            self.weights, self.rows = _ChebyshevWeights(max(prec, self.prec)), {}
        weights = self.weights
        if (q, a) not in self.rows:
            self.rows[q, a] = _Row(weights.width, weights.values)
        return self.rows[q, a].at(s, range(a, q * len(weights.values) + a, q))


def _l_minus_1(s: int, chi: RealDirichletCharacter, prec: int, m: int = 0,
               rough: Optional[_RoughNumbers] = None) -> int:
    """L_m(s, chi) - 1 within 10^-prec, with the Euler factors of the first
    m primes removed, as an int at W = _width(prec), u = 10^-W: every route
    runs on ints, and the callers convert (_l_value) or take the logarithm
    (_twisted_product) there.  `rough` holds p_1, ..., p_m, the p_m-rough
    k, their power row, each character's chi* and removed factors, the
    Chebyshev weights and the alternating rows (built here when the caller
    passes none).

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

    Otherwise chi goes through its primitive chi* mod f (_primitive), which
    agrees with chi on the n coprime to q: L_m(s, chi) = P L with L =
    L(s, chi*) and P = prod (1 - chi*(p) p^-s) over the p <= p_m and the
    p | q, and the value is (P - 1) + P (L - 1), with no n = 1 term in L - 1
    to cancel.  L - 1 comes by one of two routes:
    - chi* = 1 (chi principal, L = zeta) at even s: _even_zeta_minus_1's
      closed form, within 9 s units.
    - Every other: _alternating_minus_1, one alternating row per residue on
      the one set of Chebyshev weights in `rough`, within 0.034 10^-prec +
      (0.2 h + 1) u for its h <= f rows; its docstring proves the identity
      and the truncation bound and counts the floors.
    P = t u by t -= c floor(t / p^s) for each of its n factors 1 - c p^-s,
    c = chi*(p) != 0, from t = 10^W.  Each floor errs by under a unit and
    later factors scale that by at most 1 + p^-s, with prod (1 + p^-s) <=
    zeta(2)/zeta(4) < 1.52: P errs by under 1.52 n units.  With |L| <=
    zeta(2) < 1.65, |P| < 1.52 and 0 < P <= 1 for chi* = 1, the value
    t - 10^W + floor(t (L - 1)) errs by under 1.65 1.52 n u + 1.52 (0.034
    10^-prec + (0.2 h + 1) u) + 9 s u + 2 u: under 0.07 10^-prec for n, h
    and s below 10^9."""
    q, width = chi.modulus, _width(prec)
    s = min(s, (10**prec).bit_length() + 2)
    if rough is None:
        rough = _RoughNumbers(m)
    end = _tail_end(s, 1, 0, prec, math.floor(q * _em_cut(prec) / rough.density))
    if end is not None:
        ks = rough.upto(end)
        ks = ks[:bisect_right(ks, end)]
        row = rough.power = _power_row(rough.power, width, len(ks))
        values = row.at(s, ks)
        total = sum(values) if q == 1 else sum(chi(k) * v for k, v in zip(ks, values))
        return total // 10 ** (row.width - width)
    star, factors = rough.primitive(chi)
    one = t = 10**width
    for p, c in factors:
        t -= c * (t // p**s)
    if star.modulus == 1 and s % 2 == 0:
        total = _even_zeta_minus_1(s, width)
    else:
        total = _alternating_minus_1(s, star, prec, rough)
    return t - one + t * total // one


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
    1/2^k, rounded up to a dyadic grid.

    On the iterate, with power = 2^k, the Cauchy bound is the positive root
    x of C(x) = |a_0| x^d - |a_1| x^(d-1) - ... - |a_d|, and y = x^(1/power)
    is rounded up to the least y' with C(y'^power) >= 0 (an integer test)
    on the multiples of 2^(e-51) in (2^(e-1), 2^e] (in (0, 2] for e = 1),
    e >= 1 the least with y <= 2^e, that is with C(2^(e power)) >= 0.  A
    float guess of log2 x places e and y': Newton's method on f(v) = log2
    sum_i 2^(l_i - i v), l_i = log2 |a_i / a_0| (math.log2 takes an int of
    any size, so no coefficient overflows), which is convex and falls
    through 0 at v = log2 x, so its steps from v = max l_i / i, where
    f >= 0, rise towards the root and stop where one would not rise.  From
    the guess _settle finds e, by the test at y = 2^e, and then y'."""
    poly = list(poly)
    while len(poly) > 1 and poly[-1] == 0:
        poly.pop()
    d, bounds = len(poly) - 1, []
    for power in (1, 2, 4, 8, 16) if d else ():
        def at(k: int, e: int) -> bool:  # C(y^power) >= 0 for y = k 2^(e-51)
            n, s = k << max(0, e - 51), max(0, 51 - e)  # y = n/2^s
            p, acc = n**power, abs(poly[0])
            for i in range(1, d + 1):
                acc = acc * p - (abs(poly[i]) << s * power * i)
            return acc >= 0  # 2^(s power d) C(y^power) >= 0

        top = math.log2(abs(poly[0]))
        logs = [(i, math.log2(abs(c)) - top) for i, c in enumerate(poly) if i and c]
        v = max(l / i for i, l in logs)
        while True:
            terms = [(i, 2.0 ** (l - i * v)) for i, l in logs]
            total = sum(w for _, w in terms)
            rise = math.log2(total) * total / sum(i * w for i, w in terms)
            if not v + rise > v:
                break
            v += rise
        guess = v / power  # log2 y
        e = _settle(lambda e: at(1 << 51, e), 0, math.ceil(guess))
        k = _settle(lambda k: at(k, e), 1 << 50 if e > 1 else 0,
                    math.ceil(2.0 ** (guess + 51 - e)))
        bounds.append(Fraction(k << max(0, e - 51), 1 << max(0, 51 - e)))
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


def _log1p(t: int, width: int) -> int:
    """ln(1 + t u) / u for an int t with |t u| <= 1/4, u = 10^-width, as an
    int within 5 N + 5 <= 3.05 width + 10 units, N the number of terms:
    2 atanh(z) = 2 sum_{k>=0} z^(2k+1) / (2k+1) with z = t u / (2 + t u),
    which gains twice the digits per term of the series of ln(1 + t u) (R.
    P. Brent, P. Zimmermann, "Modern Computer Arithmetic", 2010, 4.4).

    |z| <= 1/7.  Z = floor(z / u) errs by under a unit, so a = |Z| u <=
    0.15, and atanh' = 1 / (1 - z^2) <= 1.023 there: the atanh errs by
    under 1.023 units from Z.  With S = floor(Z^2 u) and P_0 = |Z|,
    P_(k+1) = floor(P_k S u), the P_k u lie at most e_k units below
    a^(2k+1), where e_0 = 0 and e_(k+1) <= e_k a^2 + a + 1 give e_k <=
    1.18; so each term floor(P_k / (2k+1)) lies under 2.2 units below its
    true value.  The sum stops at the first P_N = 0, where a^(2N+1) <=
    1.18 u and the rest of the series is under 1.18 u / (1 - a^2) < 1.21
    u.  So the atanh errs by under 2.2 N + 2.24 units and the value by
    under 5 N + 5, and P_(N-1) >= 1 gives a^(2N-1) >= u, N <= 0.61 width +
    1."""
    one = 10**width
    z = t * one // (2 * one + t)
    square, power = z * z // one, abs(z)
    total, k = 0, 1
    while power:
        total += power // k
        power, k = power * square // one, k + 2
    return 2 * total if z >= 0 else -2 * total


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
    s(n)/n.

    Each L-value has its own precision p (module docstring); the working
    digits are the largest, P.  Its ln(1 + t) is _log1p of the kernel's
    int at its width p + 12: |t| < 1/100 there, as every term is k^-n with
    k >= b >= 101, and as |e| <= 10^(p-D-16), |e| times the logarithm's
    3.05 (p + 12) + 10 units is under (3.05 p + 47) 10^-(D+28).  Each
    e ln is scaled exactly to the width P + 12, the sum is one int,
    converted to Decimal once, and one exp at P + 12 digits follows."""
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
    # the rows serve every L-value, so that none is rebuilt wider: the power
    # row is as wide as a rough sum at prec needs, with a factor 10 to spare
    # in its number of terms, and the Chebyshev weights serve prec
    rough.power = _power_row(None, _width(prec), 10 * chi.modulus * _em_cut(prec))
    rough.prec = prec
    small = _twisted_direct(h, chi, m, rough.primes[-1], prec).value  # p_m < p <= p_m'
    divisors = _twisted_direct({-1: _ONE, 0: h[0], 1: _ONE}, chi, plan, chi.modulus, prec).value
    total = 0  # sum e ln L_m'(n, psi) at _width(prec)
    for (n, psi), e in terms.items():
        own = precs[n, psi]
        ln = _log1p(_l_minus_1(n, psi, own, plan, rough), _width(own))
        total += e * ln * 10 ** (prec - own)
    log = Decimal(total).scaleb(-_width(prec), _UNROUNDED)
    with localcontext() as ctx:
        ctx.prec = prec + 12
        value = _quantize(log.exp() * small * divisors, digits)
    return ConstantResult(value, digits, cutoff, tail, False, prec, plan)


def euler_product(spec: EulerProductSpec) -> ConstantResult:
    """prod_{p > p_m} h(1/p) as prod_{n >= 2} zeta_m(n)^(e_n): the twisted
    product with the trivial character and h independent of x.

    The exponents come from the unique product expansion of h, up to the
    cutoff that a bound on the reciprocal roots of h proves (_cutoff); each
    contributes e_n * ln(1 + (zeta_m(n) - 1)) at its own working precision,
    wide enough to absorb the size of e_n, the logarithm taken in integer
    fixed point, and the sum is exponentiated once.  The reported tail is
    that proven bound, or 0 for a product that terminates.
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

    For rational f = num/den, g(1/2) is the sum over the expansion P to
    z^64 plus a proven bound on the rest.  The remainder R = num - den P
    has terms above z^64 only and R/den is f - P, so by majorants the rest
    is at most |R|(1/2) / (|d_0| - sum_{i>=1} |d_i| 2^-i) when that
    denominator is positive; otherwise g(1/2) is reported as inf, unproven.
    For a truncated series nothing past its order is known: g_half is the
    partial sum over the stored window, a lower bound of g(1/2), and the
    note says that g_half_ok and hypotheses_hold rest on the window.

    f must have zero constant term.
    """
    rest = Fraction(0)  # a bound on g's terms past the coefficients read
    if isinstance(f, RationalFunction):
        probe = f.expand(64)
        if probe.coeff(0) != 0:
            raise ValueError("f must have zero constant term")
        rho = _root_bound(f.den)  # every pole 1/beta has |1/beta| >= 1/rho
        radius = math.inf if rho == 0 else float(1 / rho)
        method = "denominator root bound (a proven lower bound on the radius)"
        coeffs = probe.coeffs
        window_note = ""
        g_note = ("for rational f, g(1/2) includes a proven bound on the terms past z^64, "
                  "and is inf where the denominator admits none")
        rem = list(f.num) + [0] * (len(f.den) + 64 - len(f.num))  # R = num - den P
        for i, d in enumerate(f.den):
            for j, a in enumerate(coeffs):
                rem[i + j] -= d * a
        low = abs(f.den[0]) - sum(Fraction(abs(d), 2**i) for i, d in enumerate(f.den) if i)
        rest = sum(Fraction(abs(r), 2**j) for j, r in enumerate(rem) if r) / low if low > 0 else None
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
        g_note = (f"g_half is the partial sum over the window to z^{f.order}, a lower bound "
                  "of g(1/2), so g_half_ok and hypotheses_hold rest on the window")

    j0 = next((j for j, c in enumerate(coeffs) if j >= 1 and c), None)
    if rest is None:
        g_half, g_ok = math.inf, False
    else:
        g = sum(abs(Fraction(c)) / 2**j for j, c in enumerate(coeffs)) + rest
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
        note="prime-sum convergence is stated from the leading exponent, not proved; " + g_note,
    )
