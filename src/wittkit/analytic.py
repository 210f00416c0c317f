"""High-precision evaluation of zeta values, real Dirichlet L-series and
Euler-product constants, on stdlib Decimal arithmetic.

Precision convention: a public operation taking `digits` = D returns a
Decimal within 10^-D of the true value (absolute), quantized to D+4
decimal places.  Internally everything runs at D plus GUARD_DIGITS extra
digits, and the Euler-Maclaurin truncation remainder is bounded
rigorously (by the first omitted correction term, valid because all
derivatives of x -> (qx+a)^-s keep a fixed sign).  Infinite-product tail
estimates, by contrast, are geometric-fit heuristics and are flagged as
such in the returned records.

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
from dataclasses import dataclass
from decimal import Decimal, getcontext, localcontext
from fractions import Fraction
from functools import lru_cache
from typing import Dict, List, Optional, Tuple, Union

from .arith import bernoulli, nth_prime, primes_up_to
from .characters import RealDirichletCharacter
from .errors import DivergenceError, IntegralityError
# peel_1d is unused here but stays bound: perfbench's span tests rebind it
from .expansion import _mul_one_minus_pow, _rational_exponents, peel_1d  # noqa: F401
from .necklace import necklace_poly
from .series import RationalFunction, TruncatedSeries

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
    a = Fraction(a)
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
    q = chi.modulus
    prec = digits + GUARD_DIGITS + 2
    with localcontext() as ctx:
        ctx.prec = prec + 12
        total = Decimal(0)
        for a in range(1, q + 1):
            v = chi(a)
            if v:
                term = _dirichlet_sum(s, q, a, prec)
                total += term if v == 1 else -term
        return _quantize(total, digits)


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
    tail_estimate: float
    heuristic_tail: bool
    working_digits: int

    def to_json_dict(self) -> dict:
        return {
            "value": str(self.value),
            "digits": self.digits,
            "cutoff": self.cutoff,
            "tail_estimate": f"{self.tail_estimate:.3e}",
            "heuristic_tail": self.heuristic_tail,
            "working_digits": self.working_digits,
        }


def _is_exact_factorization(h: RationalFunction, exps) -> Optional[bool]:
    """True iff h equals prod (1-z^n)^(-e_n) exactly as rational functions,
    i.e. h * prod (1-z^n)^(+e_n) == 1.  Returns None (undecided) when the
    product's degree would make the polynomial check impractical."""
    if sum(n * abs(e) for n, e in exps) > 4096:
        return None
    # pad both sides to the larger product degree, so nothing is truncated
    top = max(len(h.num) - 1 + sum(n * e for n, e in exps if e > 0),
              len(h.den) - 1 - sum(n * e for n, e in exps if e < 0))
    num = list(h.num) + [0] * (top + 1 - len(h.num))
    den = list(h.den) + [0] * (top + 1 - len(h.den))
    for n, e in exps:
        if e > 0:
            num = _mul_one_minus_pow(num, n, e)
        else:
            den = _mul_one_minus_pow(den, n, -e)
    return num == den


def _fit_ratio(points: List[Tuple[int, float]]) -> float:
    """Least-squares slope of log10-magnitude versus index, as a ratio."""
    xs = [float(n) for n, _ in points]
    ys = [t for _, t in points]
    n = len(points)
    mean_x = sum(xs) / n
    mean_y = sum(ys) / n
    denom = sum((x - mean_x) ** 2 for x in xs)
    if denom == 0:
        return 1.0
    slope = sum((x - mean_x) * (y - mean_y) for x, y in zip(xs, ys)) / denom
    return 10.0**slope


def _plan_cutoff(spec: EulerProductSpec):
    """Extend h's exponents until the heuristic geometric tail estimate of
    |e_n| * (zeta_m(n) - 1) drops below the precision target; returns
    (exponents, cutoff, tail_estimate, exact_tail)."""
    digits = spec.digits
    log_p = math.log10(nth_prime(spec.m + 1))
    order = 64
    while True:
        exps = _rational_exponents(spec.h, order)
        nonzero = exps.items()
        if not nonzero:
            return exps, 1, 0.0, True
        n_last = nonzero[-1][0]
        if n_last <= order * 3 // 4:
            # the expansion appears to terminate; prove it exactly if cheap
            if _is_exact_factorization(spec.h, nonzero):
                return exps, n_last, 0.0, True
            # a long run of zero exponents with no proof: tail estimated 0
            return exps, n_last, 0.0, False
        # log10 of the heuristic term size |e_n| p^-n
        sizes = [(n, _log10_int(e) - n * log_p) for n, e in nonzero]
        window = sizes[-12:]
        ratio = _fit_ratio(window)
        if ratio < 0.99:
            spread = math.log10(ratio / (1.0 - ratio)) if ratio > 0 else -300.0
            for n, t in sizes:
                if t + spread < -(digits + 4):
                    return exps, n, 10.0 ** (t + spread), False
        elif order >= 512:
            raise DivergenceError(
                "exponent growth matches or outruns the prime base "
                f"(fitted ratio {ratio:.3f}); remove more Euler factors "
                "(increase m)"
            )
        if order >= 16384:
            raise ValueError("requested precision needs an impractical cutoff")
        order *= 2


def euler_product(spec: EulerProductSpec) -> ConstantResult:
    """prod_{p > p_m} h(1/p) as prod_{n >= 2} zeta_m(n)^(e_n).

    The exponents come from the unique product expansion of h; each factor
    contributes e_n * ln(1 + (zeta_m(n) - 1)) at a working precision wide
    enough to absorb the size of e_n.  The cutoff tail is a geometric-fit
    heuristic (flagged), everything else is budgeted rigorously.
    """
    exps, cutoff, tail, exact_tail = _plan_cutoff(spec)
    used = [(n, e) for n, e in exps.items() if n <= cutoff]
    max_log_e = max((_log10_int(e) for _, e in used), default=0.0)
    prec = spec.digits + 6 + math.ceil(max_log_e) + GUARD_DIGITS
    with localcontext() as ctx:
        ctx.prec = prec + 12
        total = Decimal(0)
        for n, e in used:
            t = _dirichlet_sum(n, 1, 2, prec)  # zeta(n) - 1
            factors = _euler_factor_product(spec.m, n)
            # zeta_m(n) - 1 = (P - 1) + P * (zeta(n) - 1), P exact
            t_m = _dec_frac(factors - 1) + _dec_frac(factors) * t
            total += e * _ln1p(t_m)
        value = total.exp()
    return ConstantResult(
        value=_quantize(value, spec.digits),
        digits=spec.digits,
        cutoff=cutoff,
        tail_estimate=tail,
        heuristic_tail=not exact_tail,
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
        tail_estimate=tail,
        heuristic_tail=True,
        working_digits=prec,
    )


# -- the order-constant family B_chi ------------------------------------

_ARTIN_H = RationalFunction([1, -1, -1], [1, -1])
# 1/(1 - y f(z)) at y = +z^3 and y = -z^3, for f = -1/(1 - z - z^2)
_G_PLUS = RationalFunction([1, -1, -1], [1, -1, -1, 1])
_G_MINUS = RationalFunction([1, -1, -1], [1, -1, -1, -1])


@lru_cache(maxsize=None)
def _artin_value(digits: int) -> Decimal:
    return euler_product(EulerProductSpec(_ARTIN_H, 0, digits)).value


@dataclass(frozen=True)
class BChiResult:
    value: Decimal
    digits: int
    tail_estimate: float
    direct_value: Optional[Decimal] = None
    direct_tail_estimate: Optional[float] = None
    difference: Optional[float] = None

    def to_json_dict(self) -> dict:
        out = {
            "value": str(self.value),
            "digits": self.digits,
            "tail_estimate": f"{self.tail_estimate:.3e}",
            "heuristic_tail": True,
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
    terms m(0, r) = M(-1; r) at n = 3r are then removed."""
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


def b_chi(
    chi: RealDirichletCharacter,
    digits: int,
    cross_check_limit: Optional[int] = None,
) -> BChiResult:
    """The Euler product prod_p (1 + (chi(p)-1) p / ((p^2 - chi(p)) (p-1)))
    evaluated through Dirichlet L-series.

    The L-series route multiplies the Artin constant by
    L(2,chi) L(3,chi) / L(6,chi^2) and prod_n L(n,chi^2)^-A(n) L(n,chi)^-B(n),
    with A and B from two one-variable rational functions (_bchi_exponents).
    With cross_check_limit set, the defining product over primes up to
    that limit is computed as well and the difference reported.
    """
    _check_digits(digits)
    # A term with |exponent| 2^-n below the skip threshold contributes less
    # than 10^-(digits+10) (at most ~10^-(digits+5) in total) and is
    # dropped; working precision only has to absorb the exponents that stay.
    skip = -(digits + 10.0)
    chi2 = chi.square()
    order = 64
    while True:
        A, B = _bchi_exponents(order)
        terms = [(n, e, character) for n in range(1, order + 1)
                 for e, character in ((A[n], chi2), (B[n], chi))
                 if e and _log10_int(e) - n * _LOG10_2 >= skip]
        if not terms or terms[-1][0] <= order - 12:
            break  # the last 12 n hold no term above the threshold
        if order >= 16384:
            raise ValueError("requested precision needs an impractical cutoff")
        order *= 2
    max_log_e = max((_log10_int(e) for _, e, _ in terms), default=0.0)
    prec = digits + 6 + math.ceil(max_log_e) + GUARD_DIGITS
    with localcontext() as ctx:
        ctx.prec = prec + 12
        total = Decimal(0)
        for n, e, character in terms:
            total -= e * _ln1p(_l_minus_1(n, character, prec))
        artin = _artin_value(digits + 8)
        l2 = l_series(2, chi, prec)
        l3 = l_series(3, chi, prec)
        l6 = l_series(6, chi2, prec)
        value = artin * l2 * l3 / l6 * total.exp()
        value = +value
    tail = 10.0 ** (-(digits + 3))
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


def _poly_roots_min_modulus(coeffs: List[int]) -> float:
    """Smallest |root| of an integer polynomial (Durand-Kerner)."""
    while coeffs and coeffs[-1] == 0:
        coeffs = coeffs[:-1]
    deg = len(coeffs) - 1
    if deg < 1:
        return math.inf
    lead = coeffs[-1]
    monic = [c / lead for c in coeffs]
    roots = [complex(0.4, 0.9) ** i for i in range(1, deg + 1)]

    def poly(x: complex) -> complex:
        acc = 0j
        for c in reversed(monic):
            acc = acc * x + c
        return acc

    for _ in range(200):
        new = []
        for i, r in enumerate(roots):
            denom = 1 + 0j
            for jj, other in enumerate(roots):
                if i != jj:
                    denom *= r - other
            new.append(r - poly(r) / denom if denom != 0 else r)
        shift = max(abs(a - b) for a, b in zip(new, roots))
        roots = new
        if shift < 1e-14:
            break
    return min(abs(r) for r in roots)


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
        radius = _poly_roots_min_modulus(list(f.den))
        method = "denominator-roots"
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
