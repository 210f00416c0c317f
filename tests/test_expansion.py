import pytest
from conftest import perturb_witt_table
from hypothesis import given, settings
from hypothesis import strategies as st

from wittkit.expansion import (
    BiSeries,
    _mul_factor,
    _rational_exponents,
    cyclotomic_check,
    peel_1d,
    peel_2d,
    reconstruct_1d,
    reconstruct_2d,
)
from wittkit.necklace import necklace_count, necklace_poly
from wittkit.series import RationalFunction, TruncatedSeries
from wittkit.witt import witt_table


def S(coeffs, order=None):
    return TruncatedSeries(coeffs, order)


def peel_by_multiplication(f):
    """Exponents by clearing one degree at a time: e_n is the z^n
    coefficient of the residual, which (1 - z^n)^(e_n) then removes."""
    coeffs = list(f.coeffs)
    exps = []
    for n in range(1, f.order + 1):
        e_n = coeffs[n]
        exps.append(e_n)
        if e_n:
            coeffs = _mul_factor([coeffs], n, 0, e_n)[0]
    assert all(c == 0 for c in coeffs[1:])
    return tuple(exps)


def peel_2d_by_multiplication(F):
    """Exponents by clearing one cell at a time, k-major: e(j, k) is minus
    the residual coefficient there, which (1 - z^j y^k)^(-e) removes."""
    rows = [list(row) for row in F.grid]
    exps = {}
    for k in range(F.deg_y + 1):
        for j in range(F.deg_z + 1):
            c = rows[k][j]
            if (j, k) != (0, 0) and c:
                exps[j, k] = -c
                rows = _mul_factor(rows, j, k, c)
    assert rows == [list(row) for row in BiSeries.one(F.deg_z, F.deg_y).grid]
    return exps


@settings(max_examples=150, deadline=None)
@given(st.lists(st.integers(-50, 50), max_size=40))
def test_peel_matches_multiplication_oracle(xs):
    f = S([1] + xs, len(xs))
    assert peel_1d(f).exponents == peel_by_multiplication(f)


def test_peel_closed_form_one_plus_minus_z_over_one_minus_two_z():
    # 1/(1-2z) has e_n = M(2, n); 1+z = (1-z^2)/(1-z) adds e_1 and removes
    # e_2, and 1-z removes e_1
    N = 300
    necklaces = [necklace_poly(2, n) for n in range(1, N + 1)]
    plus = peel_1d(RationalFunction([1, 1], [1, -2]).expand(N)).exponents
    minus = peel_1d(RationalFunction([1, -1], [1, -2]).expand(N)).exponents
    assert plus == tuple([necklaces[0] + 1, necklaces[1] - 1] + necklaces[2:])
    assert minus == tuple([necklaces[0] - 1] + necklaces[1:])


def test_peel_recovers_necklace_exponents():
    f = RationalFunction([1], [1, -2]).expand(10)  # 1/(1-2z)
    expn = peel_1d(f)
    assert [expn.e(n) for n in range(1, 11)] == [necklace_poly(2, n) for n in range(1, 11)]


def test_peel_trivial_cases():
    assert peel_1d(TruncatedSeries.one(6)).items() == []
    expn = peel_1d(S([1, -1], 6))
    assert expn.items() == [(1, -1)]


def test_peel_rejects_bad_input():
    with pytest.raises(ValueError):
        peel_1d(S([2, 1], 4))
    with pytest.raises(ValueError):
        peel_1d(S(["1", "1/2"], 4))


def test_reconstruct_examples():
    geom = reconstruct_1d(peel_1d(S([1, 1, 1, 1, 1], 4)), 4)
    assert geom == S([1, 1, 1, 1, 1], 4)
    # a single e_1 = 1 gives the geometric series, not 1 - z
    one_factor = peel_1d(S([1, 1, 1, 1], 3))
    assert one_factor.e(1) == 1 and one_factor.e(2) == 0
    from wittkit.expansion import Expansion1D

    assert reconstruct_1d(Expansion1D(3, (1, 0, 0)), 3) == S([1, 1, 1, 1], 3)
    assert reconstruct_1d(Expansion1D(3, (0, 0, 0)), 3) == TruncatedSeries.one(3)


def test_nonnegative_exponents_for_reciprocals():
    # 1/(1 - a1 z - ... - an z^n) with a_i >= 0 peels with e_k >= 0
    for coeffs in ([1, -1], [1, -1, -1], [1, -2, 0, -1], [1, 0, -3]):
        f = RationalFunction([1], coeffs).expand(16)
        assert all(e >= 0 for _, e in peel_1d(f).items()), coeffs


@settings(max_examples=60)
@given(st.lists(st.integers(-4, 4), min_size=1, max_size=16))
def test_peel_round_trip(xs):
    f = S([1] + xs, len(xs) + 1)
    expn = peel_1d(f)
    back = reconstruct_1d(expn, f.order)
    assert back == f
    assert peel_1d(back) == expn


unit = st.sampled_from([1, -1])
small_coeffs = st.lists(st.integers(-3, 3), max_size=3)


@settings(max_examples=80, deadline=None)
@given(unit, small_coeffs, small_coeffs, st.integers(0, 60))
def test_rational_exponents_match_peel_of_the_expansion(u, num, den, N):
    h = RationalFunction([u] + num, [u] + den)
    assert _rational_exponents(h, N) == peel_1d(h.expand(N))


@pytest.mark.parametrize("h", [
    RationalFunction([1, -1, -1], [1, -1]),          # Artin
    RationalFunction([1, -2], [1, -2, 1]),           # twin prime
    RationalFunction([1], [1, -2]),                  # 1/(1-2z)
    RationalFunction([1, -1, -1], [1, -1, -1, 1]),   # 1/(1 - y f), f = -1/(1-z-z^2), y = z^3
    RationalFunction([1, -1, -1], [1, -1, -1, -1]),  # the same at y = -z^3
    RationalFunction([1, -1, -1, -1], [1, -1, 1, -1]),  # h(-1, z) of b_chi
])
def test_rational_exponents_fixed_cases(h):
    assert _rational_exponents(h, 300) == peel_1d(h.expand(300))


def test_peel_2d_single_factor():
    F = BiSeries.from_rows([[1, 0], [0, -1]])  # 1 - zy
    expn = peel_2d(F)
    assert expn.as_dict() == {(1, 1): 1}


def test_peel_2d_matches_transform_table():
    f = S([1, 1], 8)
    expn = peel_2d(BiSeries.one_minus_y_times(f, 8, 8))
    table = witt_table(f, 8)
    for k in range(1, 9):
        for j in range(9):
            assert expn.e(j, k) == table.m(j, k), (j, k)
    # entries on the diagonal really are two-letter contents
    assert expn.e(2, 5) == necklace_count([2, 3])


def test_peel_2d_weight_order_independence():
    # a j-major peel of F is a k-major peel of its transpose, so the
    # order-free exponents of the transpose are those of F with (j, k) swapped
    rows = [[1, 2, -1, 0], [3, 0, 2, 5], [-2, 1, 1, -4]]
    expn = peel_2d(BiSeries.from_rows(rows)).as_dict()
    transposed = peel_2d(BiSeries.from_rows(list(zip(*rows)))).as_dict()
    assert transposed == {(k, j): e for (j, k), e in expn.items()}
    assert expn == peel_2d_by_multiplication(BiSeries.from_rows(rows))


unital_grids = st.integers(0, 6).flatmap(lambda J: st.integers(0, 6).flatmap(
    lambda K: st.lists(st.lists(st.integers(-4, 4), min_size=J + 1, max_size=J + 1),
                       min_size=K + 1, max_size=K + 1)))


@settings(max_examples=150, deadline=None)
@given(unital_grids)
def test_peel_2d_matches_residual_peel_and_round_trips(rows):
    rows[0][0] = 1
    F = BiSeries.from_rows(rows)
    expn = peel_2d(F)
    assert expn.as_dict() == peel_2d_by_multiplication(F)
    assert reconstruct_2d(expn, F.deg_z, F.deg_y) == F
    if F.deg_y == 0:
        row0 = peel_1d(S(rows[0])).items()
        assert expn.as_dict() == {(n, 0): -e for n, e in row0}


def test_peel_2d_bridge_at_forty():
    f = S([0, 1, 2, -1], 40)
    expn = peel_2d(BiSeries.one_minus_y_times(f, 40, 40))
    table = witt_table(f, 40)
    assert expn.as_dict() == {(j, k): table.m(j, k) for k in range(1, 41)
                              for j in range(41) if table.m(j, k)}


def test_peel_2d_round_trip():
    rows = [[1, -2, 3], [4, 0, -1], [2, 2, 2]]
    grid = BiSeries.from_rows(rows)
    expn = peel_2d(grid)
    assert reconstruct_2d(expn, 2, 2) == grid


def test_peel_2d_rejects_non_unital():
    with pytest.raises(ValueError):
        peel_2d(BiSeries.from_rows([[2, 0], [0, 1]]))


def test_cyclotomic_constant_case():
    rep = cyclotomic_check(TruncatedSeries.constant(2, 8), 0, 8)
    assert rep.passed
    # the row-0 check is the classical single-variable identity
    rep = cyclotomic_check(TruncatedSeries.constant(2, 8), 8, 8)
    assert rep.passed


def test_cyclotomic_zero_series():
    rep = cyclotomic_check(TruncatedSeries.zero(6), 6, 6)
    assert rep.passed


def test_cyclotomic_one_plus_z():
    assert cyclotomic_check(S([1, 1], 8), 8, 8).passed


def test_cyclotomic_rejects_insufficient_truncation():
    with pytest.raises(ValueError):
        cyclotomic_check(S([1, 1], 4), 8, 8)
    with pytest.raises(ValueError):
        cyclotomic_check(S(["1/2"], 8), 8, 8)


def test_cyclotomic_grids_are_the_peeled_exponents_and_the_table():
    f = S([0, 1, 2, -1], 6)
    rep = cyclotomic_check(f, 6, 5)
    table = witt_table(f, 5)
    assert rep.passed and rep.first_mismatch is None
    assert rep.rhs.grid[0] == (0,) * 7
    assert all(rep.rhs.coeff(j, k) == table.m(j, k) for k in range(1, 6) for j in range(7))
    assert rep.lhs == rep.rhs


@pytest.mark.parametrize("j, k", [(0, 1), (3, 1), (0, 4), (5, 2), (6, 6)])
def test_cyclotomic_reports_the_first_faulty_table_cell(monkeypatch, j, k):
    perturb_witt_table(monkeypatch, j, k)
    rep = cyclotomic_check(S([1, 1], 6), 6, 6)
    assert rep.passed is False and rep.first_mismatch == (j, k)
    assert rep.rhs.coeff(j, k) == rep.lhs.coeff(j, k) + 1


@pytest.mark.parametrize("deg_z, deg_y, message", [
    (-1, 3, "cyclotomic_check needs deg_z (J) >= 0, got -1"),
    (3, 0, "cyclotomic_check needs deg_y (K) >= 1, got 0"),
    (3, -2, "cyclotomic_check needs deg_y (K) >= 1, got -2"),
])
def test_cyclotomic_checks_its_sizes_first(deg_z, deg_y, message):
    # before the coefficient and truncation checks, so a fractional or
    # short series still gets the size error
    with pytest.raises(ValueError) as exc:
        cyclotomic_check(S(["1/2"], 1), deg_z, deg_y)
    assert str(exc.value) == message


def test_biseries_json_round_trip():
    grid = BiSeries.from_rows([[1, 2], [3, 4]])
    assert BiSeries.from_json_dict(grid.to_json_dict()) == grid
