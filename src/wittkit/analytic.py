"""High-precision evaluation of zeta values, real Dirichlet L-series and
Euler-product constants, on stdlib Decimal arithmetic.

Precision convention: a public operation taking `digits` = D returns a
Decimal within 10^-D of the true value (absolute), quantized to D+4
decimal places.  Internally everything runs at D plus GUARD_DIGITS extra
digits, and the Euler-Maclaurin truncation remainder is bounded
rigorously (by the first omitted correction term, valid because all
derivatives of x -> (qx+a)^-s keep a fixed sign), and so are the tails
of infinite products: a bound on the reciprocal roots of h bounds every
exponent and fixes the cutoff before any zeta or L value is computed.

Euler-Maclaurin sums cut the direct summation at
K = min(max(12, 2 prec / 5), first K >= 1 whose integral tail is below
target), so large exponents need only a few direct terms; the cut
doubles if the correction terms diverge first.  Corrections run in
Decimal: x_j = q^(2j-1) (s)_(2j-1) / base^(s+2j-1) is stepped by one
rational factor per j and multiplied by B_2j/(2j)!, rounded once per
working precision and cached.  The stop test compares the computed term
with target (1 - 10^-6); that margin exceeds the few roundings in each
term by many orders of magnitude, so the remainder bound is still a
proof.

The core summation primitive is S(s, q, a) = sum_{k>=0} (qk+a)^-s, from
which zeta, Hurwitz zeta and L-series are assembled without large
intermediate magnitudes:

    zeta(s)          = S(s, 1, 1)
    zeta(s, a=p/q)   = q^s * S(s, q, p)
    L(s, chi mod q)  = sum_{a=1..q} chi(a) S(s, q, a)
"""

from __future__ import annotations

import math
from bisect import bisect_left
from collections import defaultdict
from dataclasses import dataclass
from decimal import Decimal, getcontext, localcontext
from fractions import Fraction
from typing import Callable, Dict, Hashable, List, Optional, Sequence, Tuple, Union

from .arith import bernoulli, nth_prime, primes_up_to
from .characters import RealDirichletCharacter
from .errors import DivergenceError, IntegralityError
# peel_1d is unused here but stays bound: perfbench's span tests rebind it
from .expansion import _mul_factor, _rational_exponents, peel_1d  # noqa: F401
from .necklace import necklace_poly
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


# -- Euler-Maclaurin core ----------------------------------------------


def _dec_frac(x: Fraction) -> Decimal:
    return Decimal(x.numerator) / Decimal(x.denominator)


# context precision -> (B_2/2!, B_4/4!, ...) as Decimals at that precision;
# grown by replacing the tuple, so concurrent callers never see a
# half-built entry
_em_coeffs: Dict[int, Tuple[Decimal, ...]] = {}


def _em_coeff(j: int, prec: int) -> Decimal:
    """B_2j / (2j)! rounded once to `prec` digits (current context)."""
    coeffs = _em_coeffs.get(prec, ())
    if len(coeffs) < j:
        more = []
        for i in range(2 * len(coeffs) + 2, 2 * j + 1, 2):
            b = bernoulli(i)
            more.append(Decimal(b.numerator)
                        / Decimal(b.denominator * math.factorial(i)))
        coeffs += tuple(more)
        _em_coeffs[prec] = coeffs
    return coeffs[j - 1]


_STOP_MARGIN = Decimal("0.999999")  # 1 - 10^-6


def _em_attempt(s: int, q: int, a: int, cut: int, prec: int,
                target: Decimal) -> Tuple[Decimal, bool]:
    """One Euler-Maclaurin evaluation of S(s, q, a) with summation cutoff
    `cut`.  Returns (value, ok); ok is False when the correction terms start
    growing before the remainder bound drops below target.

    Correction j is c_j x_j with c_j = B_2j/(2j)! and
    x_j = q^(2j-1) (s)_(2j-1) / base^(s+2j-1), base = q cut + a; x_1 is
    q s base^-(s+1) and each step multiplies by q^2 (s+2j-1)(s+2j) and
    divides by base^2.  The remainder after the corrections already added
    is at most the first omitted one in absolute value (all derivatives of
    x -> (qx+a)^-s keep a fixed sign), so we stop once the computed term
    is <= target (1 - 10^-6).  The computed term is the exact one times
    (1 + eps) with |eps| <= (2j+4) 10^-(prec+11): at most 2j+4 roundings
    at the caller's prec+12 digits (two allowed for the power, two for
    x_1 and for each later step of x_j, one each for c_j and the
    product), and j <= 4 prec.  That is far below 10^-6, so the true term
    is below target too and the bound stays a proof.
    """
    total = Decimal(0)
    for k in range(cut):
        total += Decimal(q * k + a) ** -s
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
    cut is the default max(12, 2 prec / 5), lowered to the first K >= 1
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
    cut = max(12, (2 * prec) // 5)
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


def _check_digits(digits: int) -> None:
    if digits < 1:
        raise ValueError(f"digits must be >= 1, got {digits}")


def zeta(s: int, digits: int) -> Decimal:
    """Riemann zeta at an integer s >= 2, within 10^-digits."""
    if s < 2:
        raise ValueError(f"zeta requires s >= 2, got {s}")
    _check_digits(digits)
    return _quantize(_dirichlet_sum(s, 1, 1, digits + GUARD_DIGITS), digits)


def hurwitz_zeta(s: int, a: Union[int, str, Fraction], digits: int) -> Decimal:
    """Hurwitz zeta(s, a) for rational a in (0, 1], within 10^-digits."""
    if s < 2:
        raise ValueError(f"hurwitz_zeta requires s >= 2, got {s}")
    _check_digits(digits)
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


def _euler_factor_product(m: int, s: int) -> Fraction:
    """prod_{p <= p_m} (1 - p^-s), exactly."""
    out = Fraction(1)
    if m > 0:
        for p in primes_up_to(nth_prime(m)):
            out *= 1 - Fraction(1, p**s)
    return out


def partial_zeta(m: int, s: int, digits: int) -> Decimal:
    """zeta(s) with the Euler factors of the first m primes removed."""
    if m < 0:
        raise ValueError(f"m must be >= 0, got {m}")
    if s < 2:
        raise ValueError(f"partial_zeta requires s >= 2, got {s}")
    _check_digits(digits)
    raw = _dirichlet_sum(s, 1, 1, digits + GUARD_DIGITS + 2)
    with localcontext() as ctx:
        ctx.prec = digits + GUARD_DIGITS + 12
        return _quantize(raw * _dec_frac(_euler_factor_product(m, s)), digits)


def l_series(s: int, chi: RealDirichletCharacter, digits: int) -> Decimal:
    """L(s, chi) for a real character, within 10^-digits."""
    if s < 2:
        raise ValueError(f"l_series requires s >= 2, got {s}")
    _check_digits(digits)
    with localcontext() as ctx:
        ctx.prec = digits + GUARD_DIGITS + 14
        return _quantize(1 + _l_minus_1(s, chi, digits + GUARD_DIGITS), digits)


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


def _l_minus_1(s: int, chi: RealDirichletCharacter, prec: int) -> Decimal:
    """L(s, chi) - 1 with absolute error < 10^-prec (no cancellation:
    the n=1 term is excluded symbolically)."""
    q = chi.modulus
    total = _dirichlet_sum(s, q, q + 1, prec + 2)  # n = 1+q, 1+2q, ...
    for a in range(2, q + 1):
        v = chi(a)
        if v:
            term = _dirichlet_sum(s, q, a, prec + 2)
            total += term if v == 1 else -term
    return total


# -- Euler products over exponent expansions ---------------------------


@dataclass(frozen=True)
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


@dataclass(frozen=True)
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


def _ratfun_cutoff(h: RationalFunction, base: int, digits: int) -> Tuple[int, Decimal]:
    """_cutoff for h, with at most len(num) + len(den) - 2 reciprocal roots."""
    return _cutoff(len(h.num) + len(h.den) - 2, max(map(_root_bound, (h.num, h.den))),
                   base, digits)


def _plan_cutoff(spec: EulerProductSpec):
    """(exponents, cutoff, proven tail) of h; 0 for a product that ends."""
    cutoff, tail = _ratfun_cutoff(spec.h, nth_prime(spec.m + 1), spec.digits)
    exps = _rational_exponents(spec.h, cutoff).items()
    if _is_exact_factorization(spec.h, exps):
        return exps, exps[-1][0] if exps else 1, Decimal(0)
    return exps, cutoff, tail


def _exp_log_sum(exponents: Dict[Hashable, int], minus_one: Callable[[Hashable, int], Decimal],
                 digits: int) -> Tuple[Decimal, int]:
    """(exp(sum_k e_k ln(1 + t_k)), prec) for t_k = minus_one(k, prec)
    within 10^-prec; prec absorbs the size of the largest exponent."""
    max_log_e = max((_log10_int(e) for e in exponents.values()), default=0.0)
    prec = digits + 6 + math.ceil(max_log_e) + GUARD_DIGITS
    with localcontext() as ctx:
        ctx.prec = prec + 12
        total = Decimal(0)
        for key, e in exponents.items():
            total += e * _ln1p(minus_one(key, prec))
        return total.exp(), prec


def euler_product(spec: EulerProductSpec) -> ConstantResult:
    """prod_{p > p_m} h(1/p) as prod_{n >= 2} zeta_m(n)^(e_n).

    The exponents come from the unique product expansion of h, up to the
    cutoff that a bound on the reciprocal roots of h proves (_cutoff); each
    contributes e_n * ln(1 + (zeta_m(n) - 1)) at a working precision wide
    enough to absorb the size of e_n.  The reported tail is that proven
    bound, or 0 for a product that terminates.
    """
    exps, cutoff, tail = _plan_cutoff(spec)

    def zeta_m_minus_1(n: int, prec: int) -> Decimal:
        factors = _euler_factor_product(spec.m, n)
        # zeta_m(n) - 1 = (P - 1) + P * (zeta(n) - 1), P exact
        return _dec_frac(factors - 1) + _dec_frac(factors) * _dirichlet_sum(n, 1, 2, prec)

    value, prec = _exp_log_sum(dict(exps), zeta_m_minus_1, spec.digits)
    return ConstantResult(
        value=_quantize(value, spec.digits),
        digits=spec.digits,
        cutoff=cutoff,
        tail_estimate=tail,
        heuristic_tail=False,
        working_digits=prec,
    )


def euler_product_direct(spec: EulerProductSpec, prime_limit: int) -> ConstantResult:
    """Reference evaluation prod_{p_m < p <= prime_limit} h(1/p) with a
    first-order prime-tail estimate; used to validate euler_product."""
    lower = nth_prime(spec.m) if spec.m >= 1 else 1
    if prime_limit <= lower:
        raise ValueError("prime_limit must exceed the last removed prime")
    num, den = list(spec.h.num), list(spec.h.den)
    deg = max(len(num), len(den)) - 1
    num += [0] * (deg + 1 - len(num))
    den += [0] * (deg + 1 - len(den))
    prec = spec.digits + GUARD_DIGITS
    with localcontext() as ctx:
        ctx.prec = prec + 12
        value = Decimal(1)
        for p in primes_up_to(prime_limit):
            if p <= lower:
                continue
            # h(1/p) = (sum num_i p^(deg-i)) / (sum den_i p^(deg-i))
            powers = [p ** (deg - i) for i in range(deg + 1)]
            a = sum(c * w for c, w in zip(num, powers))
            b = sum(c * w for c, w in zip(den, powers))
            value *= Decimal(a) / Decimal(b)
        value = +value
    # first-order tail from the series coefficients of log h ~ h - 1
    probe = spec.h.expand(8)
    tail = 0.0
    logl = math.log(prime_limit)
    for k in range(2, 9):
        ck = abs(float(probe.coeff(k)))
        if ck:
            tail += 1.5 * ck * prime_limit ** (1 - k) / ((k - 1) * logl)
    return ConstantResult(
        value=_quantize(value, spec.digits),
        digits=spec.digits,
        cutoff=prime_limit,
        tail_estimate=Decimal(tail),
        heuristic_tail=True,
        working_digits=prec,
    )


# -- the order-constant family B_chi ------------------------------------

_ARTIN_H = RationalFunction([1, -1, -1], [1, -1])
# 1/(1 - y f(z)) at y = +z^3 and y = -z^3, for f = -1/(1 - z - z^2)
_G_PLUS = RationalFunction([1, -1, -1], [1, -1, -1, 1])
_G_MINUS = RationalFunction([1, -1, -1], [1, -1, -1, -1])


@dataclass(frozen=True)
class BChiResult:
    value: Decimal
    digits: int
    tail_estimate: Decimal
    direct_value: Optional[Decimal] = None
    direct_tail_estimate: Optional[float] = None
    difference: Optional[float] = None

    def to_json_dict(self) -> dict:
        out = {
            "value": str(self.value),
            "digits": self.digits,
            "tail_estimate": _sci(self.tail_estimate),
            "heuristic_tail": False,
        }
        if self.direct_value is not None:
            out["direct_value"] = str(self.direct_value)
            out["direct_tail_estimate"] = f"{self.direct_tail_estimate:.3e}"
            out["difference"] = f"{self.difference:.3e}"
        return out


def _bchi_exponents(order: int) -> Tuple[List[int], List[int]]:
    """A(n), B(n) for n <= order: the sums of the Witt coefficients m(k, r)
    of -1/(1-z-z^2) over k, r >= 1 with k + 3r = n, even r in A, odd in B.
    Over all k >= 0 the sums give e+_n = A + B and e-_n = A - B + B(n/2)
    (even n), the exponents of _G_PLUS and _G_MINUS, by the cyclotomic
    identity and (1 + z^n)^(-m) = (1 - z^n)^m (1 - z^(2n))^(-m); the k = 0
    terms m(0, r) = M(-1; r) in {-1, 0, 1} at n = 3r are then removed.
    For R >= 3/2 bounding the roots of G+ and G- and s(n) = sum_{d|n} R^d,
    |e+-_n| <= 5 s(n)/n, so |B(n)| <= 15 s(n)/n over k >= 0 (induction: s(n/2)
    <= s(n) - R^n < 2 s(n)/3) and |A(n)|, |B(n)| <= 16 s(n)/n without k = 0."""
    plus = _rational_exponents(_G_PLUS, order).exponents
    minus = _rational_exponents(_G_MINUS, order).exponents
    A, B = [0] * (order + 1), [0] * (order + 1)
    for n in range(1, order + 1):
        half = 0 if n % 2 else B[n // 2]
        A[n], rem_a = divmod(plus[n - 1] + minus[n - 1] - half, 2)
        B[n], rem_b = divmod(plus[n - 1] - minus[n - 1] + half, 2)
        if rem_a or rem_b:
            raise IntegralityError(f"b_chi exponent sums at n={n} are not integers")
    for r in range(1, order // 3 + 1):
        (B if r % 2 else A)[3 * r] -= necklace_poly(-1, r)
    return A, B


def _bchi_cutoffs(chi: RealDirichletCharacter, digits: int) -> Tuple[int, int, Decimal]:
    """Orders of the Artin exponents (trivial character, base 2) and of A, B
    (chi^2 and chi, base the least k >= 2 with chi(k) != 0, weight 2 * 16),
    and the summed tails; for trivial chi all cancel, so share one order."""
    base = next(k for k in range(2, chi.modulus + 2) if chi(k))
    n_artin, tail_artin = _ratfun_cutoff(_ARTIN_H, 2, digits)
    rho = max(Fraction(3, 2), *map(_root_bound, (_G_PLUS.num, _G_PLUS.den, _G_MINUS.den)))
    n_ab, tail_ab = _cutoff(32, rho, base, digits)
    if chi.is_trivial:
        n_artin = n_ab = max(n_artin, n_ab)
    return n_artin, n_ab, tail_artin + tail_ab


def _bchi_terms(chi: RealDirichletCharacter, n_artin: int, n_ab: int) -> dict:
    """The nonzero exponents E of b_chi = prod L(n, psi)^E(n, psi): Artin's
    e_n at (n, 1), +1 at (2, chi) and (3, chi), -1 at (6, chi^2), -A(n) at
    (n, chi^2) and -B(n) at (n, chi)."""
    chi2 = chi.square()
    terms = defaultdict(int, {(2, chi): 1, (3, chi): 1, (6, chi2): -1})
    for n, e in _rational_exponents(_ARTIN_H, n_artin).items():
        terms[n, RealDirichletCharacter.trivial()] += e
    A, B = _bchi_exponents(n_ab)
    for n in range(1, n_ab + 1):
        terms[n, chi2] -= A[n]
        terms[n, chi] -= B[n]
    return {key: e for key, e in terms.items() if e}


def b_chi(
    chi: RealDirichletCharacter,
    digits: int,
    cross_check_limit: Optional[int] = None,
) -> BChiResult:
    """The Euler product prod_p (1 + (chi(p)-1) p / ((p^2 - chi(p)) (p-1)))
    evaluated through Dirichlet L-series.

    The L-series route is the Artin constant times L(2,chi) L(3,chi) /
    L(6,chi^2) prod_n L(n,chi^2)^-A(n) L(n,chi)^-B(n), as one map of
    exponents keyed by (n, character) cut at proven orders, so each L-value
    is computed once (none for the trivial character, where all cancel).
    With cross_check_limit set, the defining product over primes up to that
    limit is computed as well and the difference reported.
    """
    _check_digits(digits)
    n_artin, n_ab, tail = _bchi_cutoffs(chi, digits)
    terms = _bchi_terms(chi, n_artin, n_ab)
    value, _ = _exp_log_sum(terms, lambda key, prec: _l_minus_1(*key, prec), digits)
    result_value = _quantize(value, digits)
    if cross_check_limit is None:
        return BChiResult(result_value, digits, tail)
    direct, direct_tail = _b_chi_direct(chi, digits, cross_check_limit)
    return BChiResult(
        result_value,
        digits,
        tail,
        direct_value=direct,
        direct_tail_estimate=direct_tail,
        difference=abs(float(result_value - direct)),
    )


def _b_chi_direct(chi: RealDirichletCharacter, digits: int,
                  prime_limit: int) -> Tuple[Decimal, float]:
    with localcontext() as ctx:
        ctx.prec = digits + GUARD_DIGITS + 12
        value = Decimal(1)
        for p in primes_up_to(prime_limit):
            c = chi(p)
            if c == 1:
                continue
            f = 1 + Fraction((c - 1) * p, (p * p - c) * (p - 1))
            value *= _dec_frac(f)
        value = +value
    tail = 2.6 / (prime_limit * math.log(prime_limit))
    return _quantize(value, digits), tail


# -- convergence-hypothesis reporting -----------------------------------


@dataclass(frozen=True)
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
