"""Acceptance suite: one test per release criterion, each printing a
PASS/FAIL line.  Run with `pytest -s tests/test_acceptance.py` to see the
lines; every criterion is exact unless a tolerance is stated inline.
"""

from wittkit.analytic import EulerProductSpec, euler_product
from wittkit.suites import (
    ARTIN_H,
    analytic_battery,
    closed_form_battery,
    combinatorial_battery,
    expansion_identity_battery,
    expansion_uniqueness_battery,
    identity_battery,
    monotonicity_battery,
    positivity_battery,
)


def _report(num: int, desc: str, result) -> None:
    status = "PASS" if result.passed else "FAIL"
    print(f"criterion {num} [{status}] {desc} "
          f"({result.checks} checks, {result.runtime_s:.1f}s)")
    assert result.passed, f"criterion {num}: {result.failures[:10]}"


def test_criterion_1_oracle_equivalence():
    # every composition, total <= 12 over <= 4 letters; exact; < 60 s
    result = combinatorial_battery(max_total=12, max_parts=4)
    _report(1, "word-oracle equivalence (total <= 12, <= 4 letters)", result)
    assert result.runtime_s < 60.0, f"took {result.runtime_s:.1f}s, budget 60s"


def test_criterion_2_closed_forms():
    result = closed_form_battery(limit=50)
    _report(2, "first-slot closed forms and gcd-1 ratio recursion", result)


def test_criterion_3_identity_battery():
    # 200 seeded series, degree <= 6, coefficients in [-5, 5], r <= 8,
    # v, w <= 4, truncation 24; exact; < 2 min
    result = identity_battery(seeds=200, degree=6, rmax=8, vwmax=4, order=24)
    _report(3, "transform identity battery, parts 1-6", result)
    assert result.runtime_s < 120.0, f"took {result.runtime_s:.1f}s, budget 120s"


def test_criterion_4_integrality_and_positivity():
    # 200 seeds at r <= 10, N = 30; 50 self-reciprocal; 50 dominance pairs
    result = positivity_battery(seeds=200, rmax=10, order=30,
                                sr_count=50, dom_count=50)
    _report(4, "integrality / positivity / self-reciprocality / dominance",
            result)


def test_criterion_5_monotonicity_windows():
    result = monotonicity_battery(kmax=10, rmax=12, cmax=6)
    _report(5, "monotonicity windows (k <= 10, r <= 12, c <= 6)", result)


def test_criterion_6_cyclotomic_identities():
    result = expansion_identity_battery(bidegree=(8, 8), bridge=(10, 10))
    _report(6, "two-variable product identities and the peel/table bridge",
            result)


def test_criterion_7_expansion_uniqueness():
    result = expansion_uniqueness_battery(seeds=100, order=24)
    _report(7, "peel/reconstruct/re-peel fixed points; transpose "
               "symmetry of the 2-D peel", result)


def test_criterion_8_artin_constant():
    import time

    start = time.monotonic()
    result = euler_product(EulerProductSpec(ARTIN_H, 0, 12))
    elapsed = time.monotonic() - start
    ok = str(result.value).startswith("0.3739558136")
    print(f"criterion 8 [{'PASS' if ok else 'FAIL'}] Artin constant at D=12: "
          f"{result.value} ({elapsed:.1f}s)")
    assert ok, f"got {result.value}"
    assert elapsed < 30.0, f"took {elapsed:.1f}s, budget 30s"


def test_criterion_9_analytic_cross_checks():
    result = analytic_battery(digits=12, prime_limit=10**6,
                              bchi_digits=8, bchi_prime_limit=10**6)
    _report(9, "product/direct agreement, zeta closed form, D vs D+10 "
               "stability, both order-constant routes", result)
