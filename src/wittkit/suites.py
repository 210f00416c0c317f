"""Batch verification suites.

These drive the acceptance-grade batteries: oracle equivalence for the
word counts, the transform identity and positivity batteries over seeded
random series, monotonicity windows, expansion uniqueness, and the
analytic cross-checks.  The CLI's verify-all runs them with scaled-down
budgets; the test suite runs them at full size.
"""

from __future__ import annotations

import functools
import math
import random
import time
from decimal import Decimal, localcontext
from fractions import Fraction
from itertools import product as iproduct
from typing import List

from ._record import record
from .analytic import (
    EulerProductSpec,
    b_chi,
    b_chi_direct,
    euler_product,
    euler_product_direct,
    hurwitz_zeta,
    l_series,
    partial_zeta,
    zeta,
)
from .characters import RealDirichletCharacter
from .expansion import BiSeries, cyclotomic_check, peel_1d, peel_2d, reconstruct_1d
from .necklace import necklace_closed, necklace_count, necklace_poly
from .series import RationalFunction, TruncatedSeries
from .witt import monotonicity_scan, verify_identity, witt_transform
from .words import aperiodic_count, lyndon_words, lyndon_words_naive

PI_50 = Decimal("3.14159265358979323846264338327950288419716939937510")

# battery sizes fixed by the acceptance criteria (seeds stay arguments)
_CLOSED_FORM_LIMIT = 50
_IDENTITY_DEGREE, _IDENTITY_RMAX, _IDENTITY_VWMAX, _IDENTITY_ORDER = 6, 8, 4, 24
_POSITIVITY_RMAX, _POSITIVITY_ORDER, _SR_COUNT, _DOM_COUNT = 10, 30, 50, 50
_MONO_KMAX, _MONO_RMAX, _MONO_CMAX = 10, 12, 6
_CYCLOTOMIC_BIDEGREE, _RANDOM_BIDEGREE = (8, 8), (10, 10)
_UNIQUENESS_ORDER = 24


@record(frozen=False)
class SuiteResult:
    suite: str
    checks: int = 0
    failures: List[str] = []  # copied for each instance
    runtime_s: float = 0.0

    @property
    def passed(self) -> bool:
        return not self.failures

    def check(self, ok: bool, message: str) -> None:
        self.checks += 1
        if not ok:
            self.failures.append(message)

    def to_json_dict(self) -> dict:
        return {
            "suite": self.suite,
            "passed": self.passed,
            "checks": self.checks,
            "failures": self.failures[:20],
            "runtime_s": round(self.runtime_s, 2),
        }


def _timed(fn):
    def wrapper(*args, **kwargs) -> SuiteResult:
        start = time.monotonic()
        result = fn(*args, **kwargs)
        result.runtime_s = time.monotonic() - start
        return result

    return wrapper


def _compositions(max_total: int, max_parts: int):
    for r in range(1, max_parts + 1):
        for parts in iproduct(range(max_total + 1), repeat=r):
            if 1 <= sum(parts) <= max_total:
                yield parts


@_timed
def combinatorial_battery(max_total: int = 12, max_parts: int = 4) -> SuiteResult:
    """Oracle equivalence.

    Every composition with total <= max_total over <= max_parts letters is
    checked against the number of Lyndon words of its partition (the
    sorted nonzero parts; relabeling letters does not change the count),
    which the fixed-content enumerator counts once per partition without
    listing the words.  Every distinct partition is additionally checked
    against necklace_count, and the Lyndon listing of six small contents
    is compared with the brute-force filter over all r^n words.
    """
    res = SuiteResult("combinatorial")
    counts = {}
    for parts in _compositions(max_total, max_parts):
        key = tuple(sorted((p for p in parts if p), reverse=True))
        if key not in counts:
            counts[key] = aperiodic_count(key, budget=max_total)
        expected = counts[key]
        got = necklace_count(parts)
        res.check(got == expected,
                  f"necklace_count{parts} = {got} != enumerated {expected}")
    for parts in sorted(counts):
        res.check(
            counts[parts] == necklace_count(parts),
            f"aperiodic_count{parts} != necklace_count{parts}",
        )
    for parts in [(1, 1), (2, 2), (2, 3), (1, 2, 3), (3, 3), (2, 2, 2)]:
        res.check(
            lyndon_words(parts) == lyndon_words_naive(parts),
            f"lyndon_words{parts} disagrees with the brute-force filter",
        )
    return res


@_timed
def closed_form_battery() -> SuiteResult:
    """First-slot closed forms, the gcd-1 ratio recursion, and the
    prime-order congruence, all exact."""
    res = SuiteResult("closed-forms")
    for m in range(1, _CLOSED_FORM_LIMIT + 1):
        res.check(necklace_closed(m, 0) == necklace_count((0, m)), f"M(0,{m})")
        res.check(necklace_closed(m, 1) == necklace_count((1, m)), f"M(1,{m})")
        res.check(necklace_closed(m, 2) == necklace_count((2, m)), f"M(2,{m})")
    # gcd-1 ratio recursion: (m+1) M(c, m+1) == (n + m) M(c, m)
    for head in [(1,), (2,), (1, 1), (1, 2), (2, 3), (3, 4), (1, 1, 1), (2, 2, 3)]:
        if math.gcd(*head) != 1:
            continue
        n = sum(head)
        for m in range(0, 16):
            lhs = (m + 1) * necklace_count(head + (m + 1,))
            rhs = (n + m) * necklace_count(head + (m,))
            res.check(lhs == rhs, f"ratio recursion fails at {head}+({m},)")
    # prime-order congruence: M(alpha; p) == (alpha^p - alpha)/p
    for p in (2, 3, 5, 7, 11, 13):
        for alpha in range(1, 9):
            res.check(
                necklace_poly(alpha, p) == (alpha**p - alpha) // p,
                f"prime congruence fails at alpha={alpha}, p={p}",
            )
    return res


def _random_series(rng: random.Random, degree: int, order: int,
                   lo: int = -5, hi: int = 5, unital: bool = False) -> TruncatedSeries:
    coeffs = [rng.randint(lo, hi) for _ in range(degree + 1)]
    if unital:
        coeffs[0] = 1
    return TruncatedSeries(coeffs, order)


@_timed
def identity_battery(seeds: int = 200, seed0: int = 20240917) -> SuiteResult:
    """Transform identity battery over seeded random integer series."""
    res = SuiteResult("identities")
    rng = random.Random(seed0)
    for _ in range(seeds):
        f = _random_series(rng, _IDENTITY_DEGREE, _IDENTITY_ORDER)
        g = _random_series(rng, _IDENTITY_DEGREE, _IDENTITY_ORDER)
        r = rng.randint(1, _IDENTITY_RMAX)
        k = rng.randint(1, 2)
        checks = [
            verify_identity("T3.1", f, r=r, k=k),
            verify_identity("T3.2", f, r=r),
            verify_identity("T3.3", f, r=r),
            verify_identity("T3.4", f, g, r=r),
            verify_identity("T3.5", f, r=r, k=rng.randint(1, 3)),
        ]
        v, w = rng.randint(1, _IDENTITY_VWMAX), rng.randint(1, _IDENTITY_VWMAX)
        gg = math.gcd(v, w)
        r6 = min(r, _IDENTITY_ORDER // max(v // gg, w // gg))
        checks.append(verify_identity("T3.6", f, g, r=r6, v=v, w=w))
        for rep in checks:
            res.check(
                rep.passed,
                f"{rep.ident} {rep.params} first mismatch at z^{rep.first_mismatch}",
            )
    # necklace-polynomial specializations
    rng2 = random.Random(seed0 + 1)
    for _ in range(40):
        a, b, n = rng2.randint(1, 5), rng2.randint(1, 5), rng2.randint(1, 8)
        t11 = verify_identity("T1.1", alpha=a, beta=b, n=n)
        res.check(t11.passed, f"T1.1 {t11.params}")
        rep = verify_identity("T1.2", beta=b, r=rng2.randint(1, 3), n=rng2.randint(1, 4))
        res.check(rep.passed, f"T1.2 {rep.params}")
        res.check(
            t11.rhs.coeff(0) == necklace_poly(a * b, n),
            f"T1.1 disagrees with necklace_poly({a * b},{n})",
        )
    return res


def _palindrome(rng: random.Random, degree: int) -> TruncatedSeries:
    half = [rng.randint(-4, 4) for _ in range(degree // 2 + 1)]
    if half[0] == 0:
        half[0] = 1
    coeffs = half + half[-1 - (degree % 2 == 0)::-1]
    coeffs = coeffs[: degree + 1]
    return TruncatedSeries(coeffs, degree)


@_timed
def positivity_battery(seeds: int = 200, seed0: int = 777) -> SuiteResult:
    """Integrality, sign and dominance checks on seeded random series."""
    res = SuiteResult("positivity")
    rng = random.Random(seed0)
    for _ in range(seeds):
        f = _random_series(rng, 8, _POSITIVITY_ORDER)
        r = rng.randint(1, _POSITIVITY_RMAX)
        wt = witt_transform(f, r)  # raises IntegralityError on any defect
        res.check(wt.is_integral(), f"non-integral transform r={r}")
        fp = _random_series(rng, 6, _POSITIVITY_ORDER, lo=0, hi=5)
        wp = witt_transform(fp, rng.randint(1, 6))
        res.check(all(c >= 0 for c in wp.coeffs), "negative coefficient, f >= 0")
        fn = -fp
        rn = rng.randint(1, 6)
        wn = witt_transform(fn, rn)
        signed = (-wn if rn % 2 else wn).coeffs
        res.check(all(c >= 0 for c in signed), "sign-flip positivity fails")
    rng = random.Random(seed0 + 1)
    for _ in range(_SR_COUNT):
        deg = rng.randint(1, 4)
        f = _palindrome(rng, deg)
        r = rng.randint(1, 5)
        w = witt_transform(TruncatedSeries(list(f.coeffs), deg * r), r)
        res.check(
            tuple(w.coeffs) == tuple(reversed(w.coeffs)),
            f"self-reciprocality lost (deg={deg}, r={r})",
        )
    rng = random.Random(seed0 + 2)
    for _ in range(_DOM_COUNT):
        f = _random_series(rng, 6, _POSITIVITY_ORDER, lo=0, hi=4)
        h = _random_series(rng, 6, _POSITIVITY_ORDER, lo=0, hi=4)
        g = f + h
        r = rng.randint(1, 6)
        diff = witt_transform(g, r) - witt_transform(f, r)
        res.check(all(c >= 0 for c in diff.coeffs), f"dominance fails r={r}")
    return res


@_timed
def monotonicity_battery() -> SuiteResult:
    """Monotonicity windows for the standard fixtures plus the necklace
    polynomial in both arguments."""
    res = SuiteResult("monotonicity")
    fixtures = [
        TruncatedSeries([1, 1], _MONO_KMAX),
        TruncatedSeries([1, 1, 1], _MONO_KMAX),
        TruncatedSeries([1, 2, 3], _MONO_KMAX),
    ]
    for f in fixtures:
        for family in ("T5.1", "T5.2"):
            rep = monotonicity_scan(f, family, kmax=_MONO_KMAX, rmax=_MONO_RMAX)
            res.check(rep.passed, f"{family} fails for {f}: {rep.violations[:3]}")
    rep = monotonicity_scan(None, "P6", rmax=_MONO_RMAX, cmax=_MONO_CMAX)
    res.check(rep.passed, f"P6 fails: {rep.violations[:3]}")
    return res


@_timed
def expansion_identity_battery(seed0: int = 4242) -> SuiteResult:
    """Cyclotomic identity checks: three series at bidegree (8, 8), three
    fixed and ten seeded random series with f(0) = 0 at (10, 10)."""
    res = SuiteResult("expansion-identities")
    J, K = _CYCLOTOMIC_BIDEGREE
    cases = [(TruncatedSeries(c, J), J, K) for c in ([2], [1, 1], [1, 1, 1])]
    J, K = _RANDOM_BIDEGREE
    rng = random.Random(seed0)
    cases += [(TruncatedSeries(c, J), J, K) for c in ([0, 1], [0, 1, 1], [0, 1, 2, 3])]
    cases += [(TruncatedSeries([0] + [rng.randint(-3, 3) for _ in range(J)], J), J, K)
              for _ in range(10)]
    for f, J, K in cases:
        rep = cyclotomic_check(f, J, K)
        res.check(rep.passed, f"cyclotomic check fails for {f} at {rep.first_mismatch}")
    return res


@_timed
def expansion_uniqueness_battery(seeds: int = 100, seed0: int = 4242) -> SuiteResult:
    """Peel / reconstruct / re-peel fixed points and transpose symmetry
    of the 2-D peel: swapping z and y swaps (j, k) in every exponent."""
    res = SuiteResult("expansion-uniqueness")
    rng = random.Random(seed0 + 1)
    for _ in range(seeds):
        f = _random_series(rng, _UNIQUENESS_ORDER, _UNIQUENESS_ORDER, lo=-4, hi=4, unital=True)
        expn = peel_1d(f)
        back = reconstruct_1d(expn, _UNIQUENESS_ORDER)
        res.check(back == f, "reconstruct(peel(f)) != f")
        res.check(peel_1d(back) == expn, "re-peel is not a fixed point")
    rng = random.Random(seed0 + 2)
    for _ in range(20):
        rows = [[rng.randint(-3, 3) for _ in range(7)] for _ in range(7)]
        rows[0][0] = 1
        swapped = {(k, j): e for (j, k), e in peel_2d(BiSeries.from_rows(rows)).exponents}
        res.check(
            peel_2d(BiSeries.from_rows(list(zip(*rows)))).as_dict() == swapped,
            "transpose asymmetry in the 2-D peel",
        )
    return res


ARTIN_H = RationalFunction([1, -1, -1], [1, -1])
TWIN_H = RationalFunction([1, -2], [1, -2, 1])
QUAD_H = RationalFunction([1, 0, -1], [1])


@_timed
def analytic_battery(digits: int = 12, prime_limit: int = 10**6,
                     bchi_digits: int = 8) -> SuiteResult:
    """Zeta closed forms, product/direct cross-checks, precision stability,
    and the order-constant family through both routes; both cross-checks
    multiply the primes up to `prime_limit`.  The pi closed forms hold 50
    places, so `digits` is at most 50."""
    if digits > 50:
        raise ValueError(f"digits must be <= 50, the places of PI_50, got {digits}")
    res = SuiteResult("analytic")
    tol = Decimal(1).scaleb(-digits)
    with localcontext() as ctx:  # the closed forms, not rounded to 28 digits
        ctx.prec = 60
        pi_sq = PI_50 * PI_50
        pi_sq_6, pi_sq_8, eight_over_pi_sq = pi_sq / 6, pi_sq / 8, 8 / pi_sq

    res.check(abs(zeta(2, digits) - pi_sq_6) < tol, "zeta(2) vs pi^2/6")
    res.check(abs(partial_zeta(1, 2, digits) - pi_sq_8) < tol, "zeta_1(2) vs pi^2/8")
    res.check(abs(partial_zeta(0, 2, digits) - zeta(2, digits)) < tol,
              "zeta_0 != zeta")

    products = {"8/pi^2": (QUAD_H, 1), "artin": (ARTIN_H, 0), "twin": (TWIN_H, 1)}

    @functools.cache  # each (constant, digits) product is computed once
    def product(name: str, d: int):
        return euler_product(EulerProductSpec(*products[name], d))

    artin = product("artin", digits)
    res.check(str(artin.value).startswith("0.3739558136"),
              f"Artin constant first digits wrong: {artin.value}")

    for name, (h, m) in products.items():
        via_zeta = product(name, digits)
        direct = euler_product_direct(EulerProductSpec(h, m, digits), prime_limit)
        budget = via_zeta.tail_estimate + direct.tail_estimate + 2 * tol
        gap = abs(via_zeta.value - direct.value)
        res.check(gap <= budget, f"{name}: gap {gap} exceeds budget {budget}")
    res.check(
        abs(product("8/pi^2", digits).value - eight_over_pi_sq) < 2 * tol,
        "removed-factor product vs 8/pi^2",
    )

    # D vs D+10 stability on every analytic fixture
    chi4 = RealDirichletCharacter.from_kronecker(-4)
    for name, fn in [
        ("zeta(5)", lambda d: zeta(5, d)),
        ("zeta_2(3)", lambda d: partial_zeta(2, 3, d)),
        ("hurwitz(3,1/4)", lambda d: hurwitz_zeta(3, Fraction(1, 4), d)),
        ("L(2,chi_-4)", lambda d: l_series(2, chi4, d)),
        ("artin", lambda d: product("artin", d).value),
        ("twin", lambda d: product("twin", d).value),
        ("8/pi^2", lambda d: product("8/pi^2", d).value),
    ]:
        lo, hi = fn(digits), fn(digits + 10)
        res.check(abs(lo - hi) < tol, f"{name} unstable between D and D+10")

    # order-constant family: both routes must agree, trivial included
    btol = Decimal(1).scaleb(-bchi_digits)
    for d in (1, -4, 5):
        chi = RealDirichletCharacter.from_kronecker(d)
        rep, direct = b_chi(chi, bchi_digits), b_chi_direct(chi, bchi_digits, prime_limit)
        budget = float(rep.tail_estimate) + float(direct.tail_estimate) + 2 * float(btol)
        difference = abs(float(rep.value - direct.value))
        res.check(
            difference <= budget,
            f"b_chi(kronecker({d})) routes differ by {difference:.2e}",
        )
        if d == 1:
            res.check(direct.value == 1, "trivial local factors must all be 1")
            res.check(abs(rep.value - 1) < btol,
                      f"b_chi(trivial) = {rep.value} != 1")
    return res


SCOPES = ("combinatorial", "identities", "expansion", "analytic")


def verify_all(scope: str, budget: int = 0) -> List[SuiteResult]:
    """Run a scope's batteries; budget 0 gives a no-op summary, < 0 an error.

    Budgets scale the dominant size knob of each battery: max word total
    for combinatorial, random seeds for identities/expansion, digits for
    analytic.
    """
    if scope not in SCOPES:
        raise ValueError(f"unknown scope {scope!r}; known: {SCOPES}")
    if budget < 0:
        raise ValueError(f"budget must be >= 0, got {budget}")
    if budget == 0:
        return [SuiteResult(suite=f"{scope} (skipped: empty budget)")]
    if scope == "combinatorial":
        return [combinatorial_battery(max_total=min(budget, 14)),
                closed_form_battery()]
    if scope == "identities":
        return [
            identity_battery(seeds=budget),
            positivity_battery(seeds=budget),
            monotonicity_battery(),
        ]
    if scope == "expansion":
        return [expansion_identity_battery(),
                expansion_uniqueness_battery(seeds=budget)]
    return [
        analytic_battery(
            digits=max(6, min(budget, 30)),
            prime_limit=10**5,
            bchi_digits=max(6, min(budget, 10)),
        )
    ]
