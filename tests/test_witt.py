import math
import re
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from wittkit import witt
from wittkit.arith import divisors, moebius
from wittkit.errors import BudgetExceededError, PreconditionError
from wittkit.necklace import necklace_count, necklace_poly
from wittkit.series import TruncatedSeries
from wittkit.witt import (
    IDENTITY_IDS,
    TABLE_CELL_BUDGET,
    c_transform,
    moebius_invert_series,
    moebius_sum_series,
    monotonicity_scan,
    verify_identity,
    witt_table,
    witt_transform,
)
from wittkit.words import aperiodic_count

int_series = st.lists(st.integers(-5, 5), min_size=1, max_size=7)
rational_series = st.lists(
    st.integers(-4, 4) | st.fractions(-3, 3, max_denominator=4), min_size=1, max_size=6
)


def S(coeffs, order=None):
    return TruncatedSeries(coeffs, order)


def literal_c_transform(f, r):
    """Independent oracle: the defining sum sum_{d|r} mu(d) f(z^d)^(r/d),
    every inflated term raised to its power at f's full truncation."""
    acc = TruncatedSeries.zero(f.order)
    for d in divisors(r):
        acc = acc + f.inflate(d) ** (r // d) * moebius(d)
    return acc


def literal_witt_transform(f, r):
    acc = literal_c_transform(f, r)
    return acc.divexact(r) if f.is_integral() else acc * Fraction(1, r)


def literal_moebius_series(seq, signed):
    n = min(s.order for s in seq)
    out = []
    for r in range(1, len(seq) + 1):
        acc = TruncatedSeries.zero(n)
        for d in divisors(r):
            weight = moebius(d) if signed else 1
            acc = acc + seq[r // d - 1].truncate(n).inflate(d) * weight
        out.append(acc)
    return out


def literal_t34_rhs(f, g, r):
    """Product rule: sum over divisor pairs with lcm(i, j) = r of
    gcd(i, j) W_i(f)(z^(r/i)) W_j(g)(z^(r/j))."""
    acc = TruncatedSeries.zero(min(f.order, g.order))
    for i in divisors(r):
        for j in divisors(r):
            if math.lcm(i, j) == r:
                acc = acc + (witt_transform(f, i).inflate(r // i)
                             * witt_transform(g, j).inflate(r // j) * math.gcd(i, j))
    return acc


def literal_t35_rhs(f, r, k):
    """Power rule: sum over j | rk with lcm(j, k) = rk of (j/r) W_j(f)(z^(rk/j))."""
    acc = TruncatedSeries.zero(f.order)
    for j in divisors(r * k):
        if math.lcm(j, k) == r * k:
            acc = acc + witt_transform(f, j).inflate(r * k // j) * (j // r)
    return acc


def literal_require_order(ident, f, needed):
    if f.order < needed:
        raise ValueError(
            f"{ident}: truncation {f.order} too small, need at least {needed} "
            "to cover the highest transform degree"
        )


def literal_shift(f, k):
    coeffs = [0] * (f.order + 1)
    for j, c in enumerate(f.coeffs):
        if j + k <= f.order:
            coeffs[j + k] = c
    return TruncatedSeries(coeffs, f.order)


def literal_t31(f, r, k):
    """Shift rule: W_r(z^k f) = z^(k r) W_r(f)."""
    literal_require_order("T3.1", f, max(r, k * r))
    lhs = witt_transform(literal_shift(f, k), r)
    rhs = literal_shift(witt_transform(f, r), k * r)
    return lhs, rhs


def literal_t32(f, r):
    """Inversion rule: sum_{d|r} (r/d) W_(r/d)(f)(z^d) = f^r."""
    literal_require_order("T3.2", f, r)
    acc = TruncatedSeries.zero(f.order)
    for d in divisors(r):
        acc = acc + witt_transform(f, r // d).inflate(d) * (r // d)
    return acc, f**r


def literal_t33(f, r):
    """Sign rule: (-1)^r W_r(-f) = W_r(f) + [r = 2 mod 4] W_(r/2)(f)(z^2)."""
    literal_require_order("T3.3", f, r)
    lhs = witt_transform(-f, r)
    if r % 2 == 1:
        lhs = -lhs
    rhs = witt_transform(f, r)
    if r % 4 == 2:
        rhs = rhs + witt_transform(f, r // 2).inflate(2)
    return lhs, rhs


def constant_transform(c, n):
    return witt_transform(TruncatedSeries.constant(c, 0), n).coeff(0)


def literal_t11_rhs(alpha, beta, n):
    """Necklace product rule: sum over lcm(i, j) = n of gcd(i, j) M(alpha; i) M(beta; j)."""
    return sum(math.gcd(i, j) * constant_transform(alpha, i) * constant_transform(beta, j)
               for i in divisors(n) for j in divisors(n) if math.lcm(i, j) == n)


def literal_t12_rhs(beta, r, n):
    """Necklace power rule: sum over j | nr with lcm(j, r) = nr of (j/n) M(beta; j)."""
    return sum((j // n) * constant_transform(beta, j)
               for j in divisors(n * r) if math.lcm(j, r) == n * r)


def test_transform_of_constant_is_necklace_polynomial():
    for alpha in (-2, 0, 1, 2, 3):
        for r in range(1, 9):
            w = witt_transform(S([alpha], 5), r)
            assert w.coeff(0) == necklace_poly(alpha, r)
            assert all(c == 0 for c in w.coeffs[1:])


def test_transform_examples():
    f = S([1, 1], 8)
    assert witt_transform(f, 2) == S([0, 1], 8)
    g = S([4, -3, 2, 7], 12)
    assert witt_transform(g, 1) == g
    with pytest.raises(ValueError):
        witt_transform(f, 0)


def test_transform_keeps_fraction_inputs():
    f = S(["1/2", "1/3"], 6)
    w = witt_transform(f, 2)
    assert w.coeff(0) == Fraction(-1, 8)  # (1/4 - 1/2) / 2
    assert not w.is_integral()


def test_c_transform_is_r_times_witt():
    f = S([2, -1, 3], 10)
    for r in range(1, 8):
        assert c_transform(f, r) == witt_transform(f, r) * r


def test_table_of_one_plus_z_is_the_content_diagonal():
    f = S([1, 1], 14)
    table = witt_table(f, 14)
    for r in range(1, 15):
        for j in range(0, 15):
            expected = necklace_count([j, r - j]) if j <= r else 0
            assert table.m(j, r) == expected, (j, r)
    # word-level confirmation across the whole window
    for r in range(1, 15):
        for j in range(0, r + 1):
            assert table.m(j, r) == aperiodic_count([j, r - j])


def test_table_of_constant_has_single_column():
    table = witt_table(S([3], 6), 8)
    for r in range(1, 9):
        assert table.m(0, r) == necklace_poly(3, r)
        assert all(table.m(j, r) == 0 for j in range(1, 7))


def test_table_rows_equal_per_row_transforms():
    # the table's shared-power path must agree with independent transforms
    for coeffs in ([1, 1], [2, -3, 1, 0, 5], ["1/2", "1/3"]):
        f = S(coeffs, 12)
        table = witt_table(f, 9)
        for r in range(1, 10):
            assert table.rows[r - 1] == witt_transform(f, r), (coeffs, r)


@settings(max_examples=40, deadline=None)
@given(int_series | rational_series, st.integers(0, 10), st.integers(1, 12), st.data())
def test_kernel_matches_literal_formula(coeffs, order, rows, data):
    f = S(coeffs, order)
    degree = data.draw(st.integers(0, order), label="degree")
    table = witt_table(f, rows, degree)
    assert table.degree == degree and table.order == rows
    for r in range(1, rows + 1):
        want = literal_witt_transform(f, r)
        assert c_transform(f, r) == literal_c_transform(f, r)
        got = witt_transform(f, r)
        assert got == want and got.is_integral() == want.is_integral()
        assert table.rows[r - 1] == want.truncate(degree), (r, degree)


def test_moebius_series_against_literal_sums():
    # orders differ, so both sides truncate to the shortest member
    seq = [S([(3 * i + j) % 7 - 3 for j in range(i + 2)] + ["1/2"], 6 + (5 * i) % 9)
           for i in range(1, 13)]
    inv, tot = moebius_invert_series(seq), moebius_sum_series(seq)
    assert inv == literal_moebius_series(seq, signed=True)
    assert tot == literal_moebius_series(seq, signed=False)
    assert {s.order for s in inv} == {min(s.order for s in seq)}


def test_table_degree_truncation():
    f = S([1, 1, 1], 12)
    table = witt_table(f, 5, degree=4)
    assert table.degree == 4
    assert table.rows[2] == witt_transform(f, 3).truncate(4)
    with pytest.raises(ValueError):
        witt_table(f, 5, degree=20)


def test_table_over_the_cell_budget_is_refused_before_any_work():
    f = S([1, 1], 10)
    with pytest.raises(BudgetExceededError, match="budget of 100000 cells"):
        witt_table(f, 10**8)
    assert TABLE_CELL_BUDGET >= 900 * 70  # the largest table the docs name
    assert witt_table(f, TABLE_CELL_BUDGET // 11).order == TABLE_CELL_BUDGET // 11


def test_moebius_inversion_round_trip():
    seq = [S([(i * j) % 5 - 2 for j in range(6)], 16) for i in range(1, 13)]
    assert moebius_invert_series(moebius_sum_series(seq)) == seq
    assert moebius_sum_series(moebius_invert_series(seq)) == seq
    zero = [TruncatedSeries.zero(8) for _ in range(6)]
    assert moebius_invert_series(zero) == zero


def test_inversion_recovers_plain_powers():
    # sum over divisors of the scaled transforms gives back f^r
    import random

    rng = random.Random(7)
    for _ in range(5):
        f = S([rng.randint(-5, 5) for _ in range(7)], 30)
        b = [witt_transform(f, r) * r for r in range(1, 11)]
        a = moebius_sum_series(b)
        for r in range(1, 11):
            assert a[r - 1] == f**r, r


def test_identity_t31_example():
    f = S([1, 1], 8)
    rep = verify_identity("T3.1", f, r=2, k=1)
    assert rep.passed
    assert rep.lhs == S([0, 0, 0, 1], 8)


def test_identity_t33_example():
    f = S([1, 1], 8)
    rep = verify_identity("T3.3", f, r=2)
    assert rep.passed
    assert rep.lhs == S([1, 1, 1], 8)


def test_identity_t34_constants_give_product_rule():
    rep = verify_identity("T1.1", alpha=2, beta=2, n=6)
    assert rep.passed
    assert rep.lhs.coeff(0) == necklace_poly(4, 6)
    # the series identity specializes to the same numbers on constants
    two = TruncatedSeries.constant(2, 6)
    rep34 = verify_identity("T3.4", two, two, r=6)
    assert rep34.passed and rep34.lhs.coeff(0) == necklace_poly(4, 6)
    total = sum(
        math.gcd(i, j) * necklace_poly(2, i) * necklace_poly(2, j)
        for i in range(1, 7)
        for j in range(1, 7)
        if math.lcm(i, j) == 6
    )
    assert rep.lhs.coeff(0) == total


def test_identity_t12():
    for beta, r, n in [(2, 2, 2), (3, 2, 3), (2, 3, 2), (5, 1, 4)]:
        assert verify_identity("T1.2", beta=beta, r=r, n=n).passed


@settings(max_examples=30, deadline=None)
@given(int_series, int_series, st.integers(1, 6))
def test_identities_hold_for_random_series(xs, ys, r):
    f, g = S(xs, 18), S(ys, 18)
    assert verify_identity("T3.2", f, r=r).passed
    assert verify_identity("T3.3", f, r=r).passed
    assert verify_identity("T3.4", f, g, r=r).passed
    assert verify_identity("T3.5", f, r=r, k=3).passed
    assert verify_identity("T3.6", f, g, r=min(r, 4), v=2, w=3).passed


@settings(max_examples=40, deadline=None)
@given(int_series | rational_series, int_series | rational_series,
       st.integers(1, 6), st.integers(1, 3), st.integers(0, 4))
def test_product_and_power_rules_match_literal_sums(xs, ys, r, k, extra):
    f, g = S(xs, r * k + extra), S(ys, r * k + extra)
    rep = verify_identity("T3.4", f, g, r=r)
    assert rep.passed and rep.rhs == literal_t34_rhs(f, g, r)
    rep = verify_identity("T3.5", f, r=r, k=k)
    assert rep.passed and rep.rhs == literal_t35_rhs(f, r, k)


@settings(max_examples=40, deadline=None)
@given(st.integers(-5, 5), st.integers(-5, 5), st.integers(1, 4), st.integers(1, 10))
def test_necklace_rules_match_literal_sums(alpha, beta, r, n):
    rep = verify_identity("T1.1", alpha=alpha, beta=beta, n=n)
    assert rep.passed and rep.rhs == S([literal_t11_rhs(alpha, beta, n)], 0)
    rep = verify_identity("T1.2", beta=beta, r=r, n=n)
    assert rep.passed and rep.rhs == S([literal_t12_rhs(beta, r, n)], 0)


@settings(max_examples=30, deadline=None)
@given(int_series | rational_series, int_series | rational_series,
       st.integers(1, 4), st.integers(1, 4), st.integers(1, 3))
def test_mixed_power_rule_with_common_factors(xs, ys, v, w, r):
    # gcd(v, w) > 1 is the only case where the weight d/(v,w) differs from d
    gg = math.gcd(v, w)
    f, g = S(xs, r * max(v, w) // gg), S(ys, r * max(v, w) // gg)
    assert verify_identity("T3.6", f, g, r=r, v=v, w=w).passed
    assert verify_identity("T3.6", f, g, r=r, v=2 * v, w=2 * w).passed


def _sides_or_error(sides):
    try:
        return sides()
    except ValueError as exc:
        return str(exc)


@settings(max_examples=80, deadline=None)
@given(int_series | rational_series, st.integers(0, 14), st.integers(1, 6),
       st.integers(1, 3))
def test_shift_inversion_and_sign_rules_match_literal_sides(xs, order, r, k):
    # T3.1-T3.3 are the mixed-power kernel at fixed arguments; each side, and
    # each truncation error, must be the one the literal rule gives
    f = S(xs, order)
    for ident, literal, params in [("T3.1", literal_t31, {"r": r, "k": k}),
                                   ("T3.2", literal_t32, {"r": r}),
                                   ("T3.3", literal_t33, {"r": r})]:
        want = _sides_or_error(lambda: literal(f, **params))
        got = _sides_or_error(lambda: verify_identity(ident, f, **params))
        if isinstance(want, str):
            assert got == want, ident
            continue
        assert got.passed, ident
        assert (got.lhs, got.rhs) == want, ident
        assert [type(c) for c in got.lhs.coeffs + got.rhs.coeffs] == [
            type(c) for c in want[0].coeffs + want[1].coeffs], ident


def test_simplified_product_rule_for_normalized_transform():
    f, g = S([1, 2, -1], 12), S([2, 0, 3], 12)
    for r in (2, 4, 6):
        lhs = c_transform(f * g, r)
        rhs = TruncatedSeries.zero(12)
        for i in range(1, r + 1):
            for j in range(1, r + 1):
                if math.lcm(i, j) == r:
                    rhs = rhs + c_transform(f, i).inflate(r // i) * c_transform(
                        g, j
                    ).inflate(r // j)
        assert lhs == rhs, r


def test_verify_rejects_bad_input():
    f = S([1, 1], 4)
    with pytest.raises(ValueError):
        verify_identity("T9.9", f, r=1)
    with pytest.raises(ValueError):
        verify_identity("T3.4", f, r=2)  # missing g
    with pytest.raises(ValueError):
        verify_identity("T3.5", f, r=4, k=3)  # truncation 4 < r*k


F12, G12 = S([1, 2, -1], 12), S([2, 0, 3], 12)
ID_PARAMS = {
    "T1.1": {"alpha": 2, "beta": 3, "n": 4},
    "T1.2": {"beta": 2, "r": 3, "n": 2},
    "T3.1": {"f": F12, "r": 2, "k": 2},
    "T3.2": {"f": F12, "r": 3},
    "T3.3": {"f": F12, "r": 2},
    "T3.4": {"f": F12, "g": G12, "r": 4},
    "T3.5": {"f": F12, "r": 2, "k": 3},
    "T3.6": {"f": F12, "g": G12, "r": 2, "v": 2, "w": 4},
}


@pytest.mark.parametrize("ident", IDENTITY_IDS)
@pytest.mark.parametrize("bad", [0, -1])
def test_verify_refuses_orders_and_exponents_below_one(ident, bad):
    assert verify_identity(ident, **ID_PARAMS[ident]).passed
    sizes = [name for name in ID_PARAMS[ident] if name in ("r", "k", "v", "w", "n")]
    assert sizes
    for name in sizes:
        with pytest.raises(ValueError, match=f"{ident}: parameter {name} must be >= 1"):
            verify_identity(ident, **{**ID_PARAMS[ident], name: bad})


def test_scan_fixture_windows():
    for coeffs in ([1, 1], [1, 1, 1], [1, 2, 3]):
        f = S(coeffs, 10)
        assert monotonicity_scan(f, "T5.1", kmax=10, rmax=12).passed
        assert monotonicity_scan(f, "T5.2", kmax=10, rmax=12).passed
    assert monotonicity_scan(None, "P6", cmax=6, rmax=12).passed


def test_scan_first_row_values():
    # the k=2 row of 1+z is the two-letter count M(2, r-2)
    f = S([1, 1], 10)
    rows = [witt_transform(f, r) for r in range(1, 6)]
    assert [row.coeff(2) for row in rows[1:]] == [0, 1, 1, 2]
    assert [necklace_poly(2, r) for r in range(2, 7)] == [1, 2, 3, 6, 9]


def test_scan_parts_three_and_four_on_all_ones():
    geom = S([1] * 13, 12)
    for family in ("T5.3a", "T5.3b", "T5.3c", "T5.4a", "T5.4b", "T5.4c"):
        rep = monotonicity_scan(geom, family, kmax=8, rmax=10)
        assert rep.passed, (family, rep.violations[:3])


def test_scan_precondition_failures_are_named():
    with pytest.raises(PreconditionError, match="non-negative"):
        monotonicity_scan(S([1, -1], 8), "T5.1", kmax=6)
    with pytest.raises(PreconditionError, match="constant term"):
        monotonicity_scan(S([0, 1], 8), "T5.1", kmax=6)
    with pytest.raises(PreconditionError, match="integers"):
        monotonicity_scan(S(["1/2", "1"], 8), "T5.1", kmax=6)
    # a polynomial's zero tail breaks the non-decreasing hypothesis
    with pytest.raises(PreconditionError, match="non-decreasing"):
        monotonicity_scan(S([1, 1], 8), "T5.3a", kmax=6)
    with pytest.raises(ValueError):
        monotonicity_scan(S([1, 1], 8), "T5.9", kmax=6)


def test_scan_window_sizes_are_named_and_an_empty_window_builds_no_table(monkeypatch):
    tables = []
    monkeypatch.setattr(witt, "witt_table", lambda *args: tables.append(args))
    f = S([1, 1], 10)
    with pytest.raises(ValueError, match=r"^T5\.1: kmax must be >= 0, got -3$"):
        monotonicity_scan(f, "T5.1", kmax=-3, rmax=12)
    with pytest.raises(ValueError, match=r"^T5\.1: the window \{'kmax': 8, 'rmax': 0\} "
                                         r"holds no comparison$"):
        monotonicity_scan(f, "T5.1", kmax=8, rmax=0)
    with pytest.raises(ValueError, match=r"^P6: cmax must be >= 0, got -1$"):
        monotonicity_scan(None, "P6", cmax=-1, rmax=12)
    assert tables == []


@pytest.mark.parametrize("family,empty,smallest", [
    ("T5.1", [(1, 12), (8, 1)], (2, 2)),
    ("T5.2", [(2, 12), (8, 1)], (3, 2)),
    ("T5.3c", [(2, 12), (8, 2)], (3, 3)),
    ("T5.4c", [(2, 12), (8, 2)], (3, 3)),
])
def test_a_window_without_comparisons_builds_no_table(monkeypatch, family, empty, smallest):
    calls = []
    table = witt.witt_table
    monkeypatch.setattr(witt, "witt_table", lambda *args: calls.append(args) or table(*args))
    f = S([1] * 11, 10)
    for kmax, rmax in empty:
        params = {"kmax": kmax, "rmax": rmax}
        with pytest.raises(ValueError, match=re.escape(
                f"{family}: the window {params} holds no comparison")):
            monotonicity_scan(f, family, **params)
    assert calls == []
    kmax, rmax = smallest
    assert monotonicity_scan(f, family, kmax=kmax, rmax=rmax).checked == 1
    assert len(calls) == 1


def test_scan_constant_row_is_trivially_monotone():
    rep = monotonicity_scan(S([1], 8), "T5.1", kmax=8, rmax=10)
    assert rep.passed


# fixed faults, (r, j) -> added to m(j, r) as witt_table returns it and
# (c, r) -> added to M(c; r), so that every family meets a violation
_TABLE_FAULTS = {(2, 4): -3, (4, 2): 2, (5, 5): -20, (6, 3): -6, (7, 1): 1}
_NECKLACE_FAULTS = {(2, 5): -4, (3, 4): 40, (4, 2): -3}


@pytest.fixture
def faulty_scan_inputs(monkeypatch):
    real_table, real_poly = witt.witt_table, witt.necklace_poly
    calls = []

    def table(f, order, degree=None):
        t = real_table(f, order, degree)
        return witt.WittTable(f=t.f, rows=tuple(
            S([c + _TABLE_FAULTS.get((r, j), 0) for j, c in enumerate(row.coeffs)], row.order)
            for r, row in enumerate(t.rows, 1)))

    def poly(c, r):
        calls.append((c, r))
        return real_poly(c, r) + _NECKLACE_FAULTS.get((c, r), 0)

    monkeypatch.setattr(witt, "witt_table", table)
    monkeypatch.setattr(witt, "necklace_poly", poly)
    return calls


@pytest.mark.parametrize("family, checked, violations", [
    ("T5.1", 30, ["k=2: decreases at r=5", "k=3: decreases at r=6",
                  "k=4: decreases at r=2", "k=5: decreases at r=5"]),
    ("T5.2", 24, ["k=3: decreases at r=6", "k=4: decreases at r=2",
                  "k=5: decreases at r=6"]),
    ("T5.3a", 42, ["m(4,2) = -1 < 1"]),
    ("T5.3b", 42, ["r=2: decreases at k=4", "r=5: decreases at k=5"]),
    ("T5.3c", 20, ["r=5: not strict at k=5", "r=6: not strict at k=3"]),
    ("T5.4a", 42, ["m(4,2) = 0 < 1", "m(1,7) = 0 < 1"]),
    ("T5.4b", 42, ["r=2: decreases at k=4", "r=5: decreases at k=6",
                   "r=6: decreases at k=3"]),
    ("T5.4c", 20, ["r=5: not strict at k=6", "r=6: not strict at k=3"]),
    ("P6", 37, ["M(2;r) not strict at r=5", "M(3;r) not strict at r=5",
                "M(4;r) not strict at r=2", "M(c;2) not strict at c=4"]),
])
def test_scan_reports_every_violation_in_order(faulty_scan_inputs, family, checked,
                                               violations):
    rep = monotonicity_scan(S([1] * 9, 8), family, kmax=6, rmax=7, cmax=4)
    assert (rep.passed, rep.checked, list(rep.violations)) == (False, checked, violations)


def test_p6_computes_each_necklace_value_once(faulty_scan_inputs):
    assert monotonicity_scan(None, "P6", cmax=6, rmax=12).checked == 113
    assert len(faulty_scan_inputs) == 6 * 12
    assert len(set(faulty_scan_inputs)) == 6 * 12


def test_exploratory_search_for_necessity_of_nondecreasing_hypothesis():
    # A fixture, not a claim: scan a few series with decreasing coefficient
    # windows for failures of the k-direction monotone conclusion.  The
    # hypothesis checker must reject them; the raw windows are inspected
    # without asserting that a counterexample exists.
    found = []
    for coeffs in ([2, 1], [3, 1, 1], [2, 2, 1], [5, 1]):
        f = S(coeffs, 10)
        with pytest.raises(PreconditionError):
            monotonicity_scan(f, "T5.3b", kmax=8, rmax=8)
        for r in range(1, 9):
            row = witt_transform(f, r)
            for k in range(1, 9):
                if row.coeff(k) < row.coeff(k - 1):
                    found.append((tuple(coeffs), k, r))
                    break
    # record-only: the search ran over every fixture
    assert isinstance(found, list)
