"""High-precision evaluation of zeta values, real Dirichlet L-series and
Euler-product constants, on stdlib Decimal arithmetic.

Precision convention: a public operation taking `digits` = D returns a
Decimal within 10^-D of the true value (absolute), quantized to D+4
decimal places.  Internally everything runs at D plus GUARD_DIGITS extra
digits, and every truncation is bounded rigorously: the tail of an
infinite product by a bound on the reciprocal roots of h, which fixes
the cutoff before any zeta or L value is computed, and each L-value as
described below.  zeta, partial_zeta, l_series and hurwitz_zeta refuse D
above DIGIT_BUDGET with BudgetExceededError.

Euler products.  Every constant here is prod_{p > p_m} h(chi(p), 1/p) for
a real character chi mod q and an h(x, z) rational in z for each x in
{-1, 0, 1}: euler_product is chi = 1, b_chi is h(x, z) = 1 + (x-1) z^2 /
((1 - x z^2)(1 - z)).  One planner, _twisted_product, takes the p | q as
prod h(0, 1/p) from the direct product below and the others as
prod_n L_m(n, chi^2)^Ev(n) L_m(n, chi)^Od(n), with Ev and Od from the
product expansions of h(1, z) and h(-1, z), cut at one proven order.

Direct products.  Every finite product of factors h(chi(p), 1/p) is one
prime-by-prime product, _twisted_direct, over p_m < p <= limit: the
planner's p | q (limit q, tail 0), euler_product_direct and b_chi's
cross-check.  Each factor is one correctly rounded division of the
integers p^(w-1) num(1/p) and p^(w-1) den(1/p), by Horner's rule with num
and den padded to one length w, at D + GUARD_DIGITS + 12 digits, skipping
h(x) = 1.  Its tail, how far the primes above the limit can move the
value, is proven in its docstring from |h(x, t) - 1| <= A t^2 and
sum_{odd n > limit} n^-2 <= 1/(2 (limit - 1)).

Per-exponent precision.  The product is exp(sum e ln L_m(n, psi)) over
integer exponents e keyed by (n, psi).  Each L_m(n, psi) - 1 is
computed to its own p = D + 6 + ceil(log10 |e|) + GUARD_DIGITS digits,
so |e| times its error stays below 10^-(D+16) whatever the other
exponents are; the reported working precision is the largest p.

One kernel, _l_minus_1, returns L_m(s, chi) - 1 within 10^-prec, for chi
mod q and the Euler factors of the first m primes removed, by one of two
routes.  Let K be the least integer with K^(1-s) / (s-1) <= 10^-(prec+1),
a bound on sum_{k>K} k^-s.

- Direct rough sum, when K <= q _em_cut(prec) = q max(12, floor(2 prec /
  5)), the direct part Euler-Maclaurin would sum anyway: sum chi(k) k^-s
  over the p_m-rough k (coprime to every p <= p_m) with p_(m+1) <= k <= K.  No
  Euler-Maclaurin and no product over the removed primes; large s needs
  only a handful of terms.
- Euler-Maclaurin otherwise, from S(s, q, a) = sum_{k>=0} (qk+a)^-s,
  without large intermediate magnitudes:

      L(s, chi mod q) - 1  = S(s, q, q+1) + sum_{a=2..q} chi(a) S(s, q, a)
      L_m(s, chi) - 1      = (P - 1) + P (L - 1), P = prod_{p<=p_m} (1 - chi(p) p^-s)

  with P in fixed point (below).  Hurwitz zeta is zeta(s, p/q) = q^s S(s, q, p).

Euler-Maclaurin sums cut the direct summation at min(_em_cut(prec), the
first cut >= 1 whose integral tail is below target), and the cut
doubles if the correction terms diverge first.
Corrections run in Decimal: x_j = q^(2j-1) (s)_(2j-1) / base^(s+2j-1) is
stepped by one rational factor per j and multiplied by B_2j/(2j)!, taken
from one cached table rounded to at least the working precision.  The
stop test compares the computed term with target (1 - 10^-6); that
margin exceeds the few roundings in each term by many orders of
magnitude, so the remainder bound is still a proof.

Fixed point.  _power_sum (the rough sum and the k < cut part of
Euler-Maclaurin) and the removed Euler factors P in _l_minus_1 run on ints
scaled by 10^W, each floor erring by under 10^-W, and convert exactly.
"""

from __future__ import annotations

import math
from bisect import bisect_left
from collections import defaultdict
from decimal import Decimal, getcontext, localcontext
from fractions import Fraction
from itertools import count
from typing import Dict, Optional, Sequence, Tuple, Union

from ._record import record
from .arith import bernoulli, nth_prime, primes_up_to
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
    "BChiResult",
    "b_chi",
    "ConvergenceReport",
    "check_convergence_hypotheses",
]

GUARD_DIGITS = 10

# largest `digits` that zeta, partial_zeta, l_series and hurwitz_zeta take;
# a cold zeta(2, D) took 15 s at D = 2000 and 106 s at D = 3000 (Python 3.11)
DIGIT_BUDGET = 2000


# -- Euler-Maclaurin core ----------------------------------------------


# (precision, (B_2/2!, B_4/4!, ...) each rounded once to that precision):
# one table at the widest working precision asked for so far, widened to
# at least twice its old precision, so precisions that differ per exponent
# rebuild it only a few times; replaced whole, so concurrent callers never
# see a half-built table
_em_coeffs: Tuple[int, Tuple[Decimal, ...]] = (0, ())


def _em_coeff(j: int, prec: int) -> Decimal:
    """B_2j / (2j)! rounded once to a precision of at least `prec` digits."""
    global _em_coeffs
    have, coeffs = _em_coeffs
    if have < prec:
        have, coeffs = max(prec, 2 * have), ()
    if len(coeffs) < j:
        with localcontext() as ctx:
            ctx.prec = have
            for i in range(2 * len(coeffs) + 2, 2 * j + 1, 2):
                b = bernoulli(i)
                coeffs += (Decimal(b.numerator) / Decimal(b.denominator * math.factorial(i)),)
        _em_coeffs = (have, coeffs)
    return coeffs[j - 1]


def _power_sum(s: int, terms: Sequence[Tuple[int, int]], prec: int) -> Decimal:
    """sum sign k^-s over (k, sign) in terms, sign = +-1 and k >= 1, within
    10^-(prec+2) in integer fixed point: each of the T terms is floor(10^W
    / k^s), W = prec + 2 + len(str(T)), and errs by less than 10^-W.  Every
    sum here is at most zeta(2) < 2 in size, so W + 1 digits hold it and
    the conversion to Decimal is exact."""
    width = prec + 2 + len(str(len(terms)))
    one = 10**width
    total = 0
    for k, sign in terms:
        t = one // k**s
        total += t if sign > 0 else -t
    with localcontext() as ctx:
        ctx.prec = width + 1
        return Decimal(total).scaleb(-width)


_STOP_MARGIN = Decimal("0.999999")  # 1 - 10^-6


def _em_cut(prec: int) -> int:
    """The default Euler-Maclaurin cut max(12, floor(2 prec / 5)): the
    direct terms of _dirichlet_sum and, times q, _l_minus_1's rough-sum cap."""
    return max(12, (2 * prec) // 5)


def _em_attempt(s: int, q: int, a: int, cut: int, prec: int,
                target: Decimal) -> Tuple[Decimal, bool]:
    """One Euler-Maclaurin evaluation of S(s, q, a) with summation cutoff
    `cut`.  Returns (value, ok); ok is False when the correction terms start
    growing before the remainder bound drops below target.

    The terms k < cut come from _power_sum, within 10^-(prec+2).
    Correction j is c_j x_j with c_j = B_2j/(2j)! and
    x_j = q^(2j-1) (s)_(2j-1) / base^(s+2j-1), base = q cut + a; x_1 is
    q s base^-(s+1) and each step multiplies by q^2 (s+2j-1)(s+2j) and
    divides by base^2.  The remainder after the corrections already added
    is at most the first omitted one in absolute value (all derivatives of
    x -> (qx+a)^-s keep a fixed sign), so we stop once the computed term
    is <= target (1 - 10^-6).  The computed term is the exact one times
    (1 + eps) with |eps| <= (2j+4) 10^-(prec+11): at most 2j+4 roundings
    at the caller's prec+12 digits or finer (two allowed for the power,
    two for x_1 and for each later step of x_j, one for c_j, rounded once
    to the table's precision of at least prec+12, and one for the
    product), and j <= 4 prec.  That is far below 10^-6, so the true term
    is below target too and the bound stays a proof.
    """
    total = _power_sum(s, [(q * k + a, 1) for k in range(cut)], prec)
    base = q * cut + a
    base2 = base * base
    p = Decimal(base) ** -s
    # integral term + half term
    total += p * base / (q * (s - 1))
    total += p / 2
    limit = target * _STOP_MARGIN
    ctx_prec = getcontext().prec
    x = p * (q * s) / base
    prev = None
    j = 1
    while True:
        term = _em_coeff(j, ctx_prec) * x
        size = abs(term)
        if size <= limit:
            # remainder after the terms already added is below target
            return total, True
        if prev is not None and size >= prev:
            return total, False  # asymptotic series turned; need larger cut
        total += term
        prev = size
        x = x * (q * q * (s + 2 * j - 1) * (s + 2 * j)) / base2
        j += 1
        if j > 4 * prec:  # pragma: no cover - safety stop
            return total, False


def _dirichlet_sum(s: int, q: int, a: int, prec: int) -> Decimal:
    """S(s, q, a) = sum_{k>=0} (qk+a)^-s with absolute error < 10^-prec.

    s >= 2; q >= 1; a >= 1.  Working precision carries 12 extra digits so
    per-operation rounding stays far below the truncation target.  The
    cut is the default _em_cut(prec), lowered to the first K >= 1
    whose integral tail (qK+a)^(1-s) / (q(s-1)) is already below target
    (large s needs only a few direct terms).  Floats only choose the cut;
    the remainder bound is checked in _em_attempt, and the cut doubles
    when the corrections diverge before reaching target.
    """
    if s < 2:
        raise ValueError(f"series exponent must be >= 2, got {s}")
    if q < 1 or a < 1:
        raise ValueError("q and a must be >= 1")
    target = Decimal(1).scaleb(-(prec + 1))
    cut = _em_cut(prec)
    # (qK+a)^(1-s) / (q(s-1)) < 10^-(prec+1)  <=>  log10(qK+a) > bound
    bound = (prec + 1 - math.log10(q * (s - 1))) / (s - 1)
    if bound < math.log10(q * cut + a):
        cut = max(1, min(cut, math.ceil((10.0**bound - a) / q)))
    with localcontext() as ctx:
        ctx.prec = prec + 12
        while True:
            value, ok = _em_attempt(s, q, a, cut, prec, target)
            if ok:
                return value
            cut *= 2


_LOG10_2 = math.log10(2)


def _log10_int(n: int) -> float:
    """log10 |n| for arbitrary-size nonzero integers (no str())."""
    n = abs(n)
    shift = max(0, n.bit_length() - 64)
    return math.log10(n >> shift) + shift * _LOG10_2


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
    lift = s * len(str(q))
    raw = _dirichlet_sum(s, q, p, digits + GUARD_DIGITS + lift)
    with localcontext() as ctx:
        ctx.prec = digits + GUARD_DIGITS + lift + 12
        return _quantize(raw * Decimal(q**s), digits)


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


def _rough_end(s: int, prec: int, cap: int) -> Optional[int]:
    """The least K >= 1 with K^(1-s) / (s-1) <= 10^-(prec+1), which bounds
    sum_{k>K} k^-s, if K <= cap; else None.  A float guess within a decade
    of cap is settled by exact integer comparisons."""
    guess = (prec + 1 - math.log10(s - 1)) / (s - 1)  # log10 of the real root
    if guess > math.log10(cap) + 1:
        return None
    goal = 10 ** (prec + 1)
    end = max(1, math.ceil(10.0**guess))
    while end > 1 and (s - 1) * (end - 1) ** (s - 1) >= goal:
        end -= 1
    while (s - 1) * end ** (s - 1) < goal:
        end += 1
    return end if end <= cap else None


def _l_minus_1(s: int, chi: RealDirichletCharacter, prec: int, m: int = 0) -> Decimal:
    """L_m(s, chi) - 1 within 10^-prec, with the Euler factors of the first
    m primes removed.

    When the tail bound K of _rough_end is at most q _em_cut(prec), the
    direct part of the default Euler-Maclaurin cut, the value is the
    fixed-point sum of chi(k) k^-s over the p_m-rough k in [p_(m+1), K]:
    under 10^-(prec+1) of tail plus 10^-(prec+2) of floors.

    Otherwise it is (P - 1) + P (L(s, chi) - 1), with no n = 1 term in L - 1
    to cancel, and P = t 10^-W by t -= chi(p) floor(t / p^s) per removed p
    from t = 10^W, W = prec + 3 + len(str(m)).  Each floor errs by under 10^-W
    and later factors scale that by at most 1 + p^-s, with prod (1 + p^-s) <=
    zeta(2)/zeta(4) < 1.52: P errs by under 1.52 m 10^-W < 1.52 10^-(prec+3),
    and t has W + 1 <= prec + 12 digits for m < 10^8, so converts exactly.
    Each S sum at w digits errs by under 2 10^-(w+1), times P < 1 + 10^-prec
    for q = 1 (one sum, w = prec) and times |P| < 1.52 for the phi(q) <
    10^len(str(q)) sums of q > 1 (w = prec + len(str(q)) + 1); with P's error
    times |L| <= zeta(2) < 1.65, the error stays below 10^-prec for any q."""
    q = chi.modulus
    primes = primes_up_to(nth_prime(m + 1))  # p_1, ..., p_(m+1)
    end = _rough_end(s, prec, q * _em_cut(prec))
    if end is not None:
        removed = math.prod(primes[:m])
        return _power_sum(s, [(k, chi(k)) for k in range(primes[m], end + 1)
                              if chi(k) and math.gcd(k, removed) == 1], prec)
    work = prec if q == 1 else prec + len(str(q)) + 1
    width = prec + 3 + len(str(m))
    t = 10**width
    for p in primes[:m]:
        t -= chi(p) * (t // p**s)
    with localcontext() as ctx:
        ctx.prec = prec + 12
        total = _dirichlet_sum(s, q, q + 1, work)  # n = 1+q, 1+2q, ...
        for a in range(2, q + 1):
            v = chi(a)
            if v:
                term = _dirichlet_sum(s, q, a, work)
                total += term if v == 1 else -term
        factors = Decimal(t).scaleb(-width)
        return (factors - 1) + factors * total


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

    def to_json_dict(self) -> dict:
        return {
            "value": str(self.value),
            "digits": self.digits,
            "cutoff": self.cutoff,
            "tail_estimate": _sci(self.tail_estimate),
            "heuristic_tail": self.heuristic_tail,
            "working_digits": self.working_digits,
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
    1/2^k, by exact bisection (upper end) on |a_0| x^d - ... - |a_d|."""
    poly = list(poly)
    while len(poly) > 1 and poly[-1] == 0:
        poly.pop()
    d, best = len(poly) - 1, None
    for power in (1, 2, 4, 8, 16) if d else ():
        def at_or_above(x: Fraction) -> bool:  # sign of q^d C(p/q), p/q = x^power
            p, q, acc = x.numerator**power, x.denominator**power, abs(poly[0])
            for i in range(1, d + 1):
                acc = acc * p - abs(poly[i]) * q**i
            return acc >= 0

        lo, hi = Fraction(0), Fraction(1)
        while not at_or_above(hi):
            lo, hi = hi, 2 * hi
        for _ in range(50):
            mid = (lo + hi) / 2
            lo, hi = (lo, mid) if at_or_above(mid) else (mid, hi)
        best = hi if best is None else min(best, hi)
        # Graeffe's step Q(z^2) = P(z) P(-z) squares the reciprocal roots
        poly = [sum((-1) ** j * poly[j] * poly[i - j] for j in range(max(0, i - d), min(i, d) + 1))
                for i in range(0, 2 * d + 1, 2)]
    return best or Fraction(0)


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


def _twisted_product(h: Dict[int, RationalFunction], chi: RealDirichletCharacter, m: int,
                     digits: int) -> Tuple[Decimal, int, Decimal, int]:
    """(value, cutoff, proven tail, working digits) of prod_{p > p_m}
    h(chi(p), 1/p), for a real character chi mod q and h mapping x in
    {-1, 0, 1} to the rational function h(x, z).

    The finitely many p | q give prod h(0, 1/p) from _twisted_direct, the
    others exp(sum e ln L_m(n, psi)) over _twisted_exponents cut at one
    order N, which _cutoff proves with base b, the least k >= 2 with
    chi(k) != 0 coprime to every p <= p_m (no L_m(n, psi) - 1 here has a term
    below b).  If h(1) == h(-1), as for a principal chi, where h(-1) never
    enters, Od = 0 and Ev = E+: the weight is that of h(1), and a product
    that terminates has tail 0.  Otherwise, with d+- reciprocal roots of
    h(+-1, z), R = max(3/2, rho+, rho-) bounding them and s(n) =
    sum_{d|n} R^d, |E+-(n)| <= d+- s(n)/n; by induction over the halvings
    |Od(n)| <= (d+ + d-)(s(n) + 3 s(n/2))/(2n) <= 3 (d+ + d-) s(n)/(2n), as
    s(n/2) <= s(n) - R^n < 2 s(n)/3 for R >= 3/2; so the weight |Ev| + |Od|
    is at most (d+ + 3 (d+ + d-)) s(n)/n.  Each L-value has its own
    precision (module docstring); the working digits are the largest."""
    if -1 not in chi.values:  # chi == chi^2, without building chi^2
        h = {**h, -1: h[1]}
    removed = math.prod(primes_up_to(nth_prime(m + 1))[:m])  # p_1 ... p_m
    base = next(k for k in count(2) if chi(k) and math.gcd(k, removed) == 1)
    deg, rho = _roots(h[1])
    if h[1] != h[-1]:
        d, r = _roots(h[-1])
        deg, rho = deg + 3 * (deg + d), max(Fraction(3, 2), rho, r)
    cutoff, tail = _cutoff(deg, rho, base, digits)
    terms = _twisted_exponents(h, chi, cutoff)
    exps = [(n, e) for (n, _), e in terms.items()]
    if h[1] == h[-1] and _is_exact_factorization(h[1], exps):
        cutoff, tail = exps[-1][0] if exps else 1, Decimal(0)
    precs = {key: digits + 6 + math.ceil(_log10_int(e)) + GUARD_DIGITS
             for key, e in terms.items()}
    prec = max(precs.values(), default=digits + 6 + GUARD_DIGITS)
    exact = _twisted_direct({-1: _ONE, 0: h[0], 1: _ONE}, chi, m, chi.modulus, prec)[0]
    with localcontext() as ctx:
        ctx.prec = prec + 12
        total = Decimal(0)
        for (n, psi), e in terms.items():
            total += e * _ln1p(_l_minus_1(n, psi, precs[n, psi], m))
        return total.exp() * exact, cutoff, tail, prec


def euler_product(spec: EulerProductSpec) -> ConstantResult:
    """prod_{p > p_m} h(1/p) as prod_{n >= 2} zeta_m(n)^(e_n): the twisted
    product with the trivial character and h independent of x.

    The exponents come from the unique product expansion of h, up to the
    cutoff that a bound on the reciprocal roots of h proves (_cutoff); each
    contributes e_n * ln(1 + (zeta_m(n) - 1)) at its own working precision,
    wide enough to absorb the size of e_n.  The reported tail is that proven
    bound, or 0 for a product that terminates.
    """
    h = dict.fromkeys((-1, 0, 1), spec.h)
    value, cutoff, tail, prec = _twisted_product(h, RealDirichletCharacter.trivial(),
                                                 spec.m, spec.digits)
    return ConstantResult(_quantize(value, spec.digits), spec.digits, cutoff, tail, False, prec)


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
                    limit: int, digits: int) -> Tuple[Decimal, float, int]:
    """(value, tail, working digits) of prod h(chi(p), 1/p) over the primes
    p_m < p <= limit, for h as in _twisted_product, the value quantized to
    `digits` (module docstring, "Direct products"); DivergenceError names a
    prime at a pole.  The tail bounds how far the primes p > L = limit can
    move the value; it is computed in floats, like _cutoff's T(N).

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
        return value, math.inf, prec
    log_sum = bound / (2 * (limit - 1) * (1 - bound * u * u)) if bound else 0.0  # T
    return value, abs(float(value)) * math.expm1(log_sum), prec


def euler_product_direct(spec: EulerProductSpec, prime_limit: int) -> ConstantResult:
    """Reference evaluation prod_{p_m < p <= prime_limit} h(1/p), used to
    validate euler_product, with _twisted_direct's proven bound on the
    primes above prime_limit as its tail (infinite where h's majorant
    fails at that limit) and the precision it multiplied at."""
    _check_prime_limit("prime_limit", prime_limit, spec.m)
    value, tail, prec = _twisted_direct(dict.fromkeys((-1, 0, 1), spec.h),
                                        RealDirichletCharacter.trivial(), spec.m, prime_limit,
                                        spec.digits)
    return ConstantResult(value, spec.digits, prime_limit, Decimal(tail), False, prec)


# -- the order-constant family B_chi ------------------------------------

# h(x, z) = 1 + (x-1) z^2 / ((1 - x z^2)(1 - z)) at x = 0 (Artin's h), 1 and -1
_BCHI_H = {
    0: RationalFunction([1, -1, -1], [1, -1]),
    1: _ONE,
    -1: RationalFunction([1, -1, -1, -1], [1, -1, 1, -1]),
}


@record
class BChiResult:
    value: Decimal
    digits: int
    tail_estimate: Decimal
    cutoff: int
    working_digits: int
    direct_value: Optional[Decimal] = None
    direct_tail_estimate: Optional[float] = None
    difference: Optional[float] = None

    def to_json_dict(self) -> dict:
        out = {
            "value": str(self.value),
            "digits": self.digits,
            "cutoff": self.cutoff,
            "tail_estimate": _sci(self.tail_estimate),
            "heuristic_tail": False,
            "working_digits": self.working_digits,
        }
        if self.direct_value is not None:
            out["direct_value"] = str(self.direct_value)
            out["direct_tail_estimate"] = f"{self.direct_tail_estimate:.3e}"
            out["difference"] = f"{self.difference:.3e}"
        return out


def b_chi(
    chi: RealDirichletCharacter,
    digits: int,
    cross_check_limit: Optional[int] = None,
) -> BChiResult:
    """The Euler product prod_p h(chi(p), 1/p) with h(x, z) = 1 + (x-1) z^2 /
    ((1 - x z^2)(1 - z)), that is prod_p (1 + (chi(p)-1) p / ((p^2 - chi(p))
    (p-1))), evaluated through Dirichlet L-series.

    One call to _twisted_product: the exact factors h(0, 1/p) = (p^2 - p - 1)
    / (p^2 - p) for the p | q, times prod_n L(n, chi^2)^Ev(n) L(n, chi)^Od(n)
    with the exponents of h(1, z) = 1 and h(-1, z) = (1 - z - z^2 - z^3) /
    (1 - z + z^2 - z^3), cut at one proven order, so each L-value is computed
    once (none for a principal chi, where the value is the exact rational).
    With cross_check_limit set (at least 2), the defining product over
    primes up to that limit is computed as well, with _twisted_direct's
    proven bound on the primes above it, and the difference reported.
    """
    _check_digits(digits)
    if cross_check_limit is not None:
        _check_prime_limit("cross_check_limit", cross_check_limit, 0)
    value, cutoff, tail, prec = _twisted_product(_BCHI_H, chi, 0, digits)
    value = _quantize(value, digits)
    direct = direct_tail = difference = None
    if cross_check_limit is not None:
        direct, direct_tail, _ = _twisted_direct(_BCHI_H, chi, 0, cross_check_limit, digits)
        difference = abs(float(value - direct))
    return BChiResult(value, digits, tail, cutoff, prec, direct, direct_tail, difference)


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
                # growth estimate |a_j|^(-1/j) over the trailing window
                est = [float(a) ** (-1.0 / j) for j, a in tail[-8:] if a > 0]
                radius = sum(est) / len(est)
        method = "coefficient-growth"
        window_note = " (estimated from the truncated window)"

    j0 = next((j for j, c in enumerate(coeffs) if j >= 1 and c), None)
    g_half = float(
        sum(abs(Fraction(c)) * Fraction(1, 2**j) for j, c in enumerate(coeffs))
    )
    if isinstance(f, RationalFunction) and 0.5 < radius < math.inf:
        # geometric bound on the truncated tail of g at 1/2
        q = 0.5 / radius
        if q < 1:
            g_half += abs(float(coeffs[-1])) * 0.5 ** (len(coeffs) - 1) * q / (1 - q)
    radius_ok = radius > 0.5
    g_ok = g_half < 1.0
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
