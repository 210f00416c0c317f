"""Unique infinite-product expansions.

Every unital integer series factors uniquely as prod_n (1 - z^n)^(-e_n),
and every unital integer grid as prod (1 - z^j y^k)^(e(j,k)).  One kernel,
_exponents, recovers both from the logarithmic derivative: for the
total-degree operator theta (z^a y^b -> (a + b) z^a y^b) the coefficients
of theta F / F are sum_{m | gcd(a,b)} w(a/m, b/m) with w(j, k) = (j + k)
times the exponent at (j, k), so Moebius inversion gives the exponents.
peel_1d and peel_2d take that route; for rational h = num/den,
_rational_exponents takes it without expanding h, from the recurrence
(num den) z h'/h = z (num' den - num den') in O(N deg).  One factor kernel,
_mul_factor, multiplies the products back out (reconstruct_1d,
reconstruct_2d).  cyclotomic_check needs no product: by unique
factorization, 1/(1 - y f) = prod (1 - z^j y^k)^(-m(j,k)) holds exactly
when the peeled exponents of 1 - y f are the Witt table m(j, k), so it
compares the log-derivative kernel with the Moebius-sum table.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Sequence, Tuple

from ._record import record
from .arith import moebius
from .errors import IntegralityError
from .series import (RationalFunction, TruncatedSeries, _decimal, _exact_int, _json_array,
                     _json_field, _json_int, coeff_str)
from .witt import witt_table

__all__ = [
    "Expansion1D",
    "peel_1d",
    "reconstruct_1d",
    "BiSeries",
    "Expansion2D",
    "peel_2d",
    "reconstruct_2d",
    "CyclotomicReport",
    "cyclotomic_check",
]


def _mul_factor(rows: Sequence[Sequence[int]], j: int, k: int, e: int) -> List[List[int]]:
    """Multiply the grid rows[b][a] (the coefficient of z^a y^b) by
    (1 - z^j y^k)^e, truncated to its shape; a series is one row.

    The coefficients b_i of X^i in (1 - X)^e, any integer e, come from
    Miller's recurrence for the two-term series 1 - X (series._power_coeffs):
    i b_i = (i - 1 - e) b_(i-1), each division exact.  For e >= 0 they end
    after b_e."""
    if (j, k) == (0, 0):
        raise ValueError("factor exponent position (0,0) is not allowed")
    J, K = len(rows[0]) - 1, len(rows) - 1
    limit = min(J // j if j else K, K // k if k else J)
    out = [[0] * (J + 1) for _ in range(K + 1)]
    b = 1  # b_i
    for i in range(limit + 1):
        dj, dk = i * j, i * k
        for k0 in range(K + 1 - dk):
            row = rows[k0]
            orow = out[k0 + dk]
            for j0 in range(J + 1 - dj):
                c = row[j0]
                if c:
                    orow[j0 + dj] += b * c
        b = b * (i - e) // (i + 1)
        if b == 0:
            break
    return out


@record
class Expansion1D:
    """Exponents e_n of f = prod_{n=1}^{order} (1 - z^n)^(-e_n)."""

    order: int
    exponents: Tuple[int, ...]  # exponents[n-1] is e_n

    def e(self, n: int) -> int:
        if not 1 <= n <= self.order:
            raise IndexError(f"n={n} outside 1..{self.order}")
        return self.exponents[n - 1]

    def items(self):
        return [(n, e) for n, e in enumerate(self.exponents, start=1) if e]

    def to_json_dict(self) -> dict:
        return {"order": self.order,
                "e": {str(n): coeff_str(e) for n, e in self.items()}}


def _exponents(p: Sequence[Sequence[int]], r: Sequence[Sequence[int]],
               J: int, K: int) -> List[List[int]]:
    """Exponents E(a, b), a <= J, b <= K, of the unital F = prod
    (1 - z^a y^b)^(-E(a,b)) whose log-derivative c = theta F / F solves
    p c = r; grids are rows, rows[b][a] the coefficient of z^a y^b.  c(a, b)
    = (r(a, b) - sum_{(i,l) != (0,0)} p(i, l) c(a-i, b-l)) / p(0, 0), then
    (a + b) E(a, b) = sum_{m | gcd(a,b)} mu(m) c(a/m, b/m), gcd(a, 0) = a.
    Every division, by p(0, 0) and by a + b, is checked to be exact
    (IntegralityError)."""
    # p's support, row by row and by z-degree within a row, so that the
    # sums stop at the first term past (a, b)
    support = [(l, [(i, pi) for i, pi in enumerate(row) if pi and (i or l)])
               for l, row in enumerate(p[: K + 1])]
    support = [(l, terms) for l, terms in support if terms]
    p0 = p[0][0]
    c = [[0] * (J + 1) for _ in range(K + 1)]
    for b in range(K + 1):
        rb = r[b] if b < len(r) else ()
        for a in range(1 if b == 0 else 0, J + 1):
            acc = rb[a] if a < len(rb) else 0
            for l, terms in support:
                if l > b:
                    break
                cl = c[b - l]
                for i, pi in terms:
                    if i > a:
                        break
                    acc -= pi * cl[a - i]
            c[b][a], rem = divmod(acc, p0)
            if rem:
                raise IntegralityError(f"log-derivative coefficient at z^{a} y^{b} "
                                       "is not an integer")
    mu = [0] + [moebius(m) for m in range(1, max(J, K) + 1)]
    E = [[0] * (J + 1) for _ in range(K + 1)]
    # row-major order: (a, b) receives only from its divisors, which come first
    for b in range(K + 1):
        for a in range(1 if b == 0 else 0, J + 1):
            cab = c[b][a]
            if cab:
                for m in range(1, min(J // a if a else K, K // b if b else J) + 1):
                    if mu[m] == 1:
                        E[b * m][a * m] += cab
                    elif mu[m]:
                        E[b * m][a * m] -= cab
            E[b][a], rem = divmod(E[b][a], a + b)
            if rem:
                raise IntegralityError(f"exponent at z^{a} y^{b} is not an integer")
    return E


def peel_1d(f: TruncatedSeries) -> Expansion1D:
    """Unique product exponents of a unital integer series: z f' = c f with
    c_n = sum_{d|n} d e_d, solved by _exponents with p = f, r_n = n a_n.
    Exponents grow geometrically with n for generic rational inputs;
    arbitrary precision absorbs that."""
    if not f.is_integral():
        raise ValueError("peel_1d requires integer coefficients")
    if f.coeff(0) != 1:
        raise ValueError(f"peel_1d requires a unital series, got f(0) = {f.coeff(0)}")
    a = f.coeffs
    E = _exponents([a], [[n * an for n, an in enumerate(a)]], f.order, 0)
    return Expansion1D(f.order, tuple(E[0][1:]))


def _rational_exponents(h: RationalFunction, order: int) -> Expansion1D:
    """peel_1d(h.expand(order)) for a rational h with h(0) = 1, without the
    expansion: (num den) c = z (num' den - num den') is a recurrence of
    length deg(num den).  An inexact division means that h's expansion is
    not integral (ValueError)."""
    top = len(h.num) + len(h.den) - 2
    num = TruncatedSeries(list(h.num), top)
    den = TruncatedSeries(list(h.den), top)
    z_num1 = TruncatedSeries([i * a for i, a in enumerate(h.num)], top)
    z_den1 = TruncatedSeries([i * a for i, a in enumerate(h.den)], top)
    try:
        E = _exponents([(num * den).coeffs], [(z_num1 * den - num * z_den1).coeffs], order, 0)
    except IntegralityError:
        raise ValueError("h must have an integer-coefficient expansion") from None
    return Expansion1D(order, tuple(E[0][1:]))


def _check_degrees(name: str, deg_z: int, deg_y: int) -> None:
    if deg_z < 0:
        raise ValueError(f"{name} needs deg_z (J) >= 0, got {deg_z}")
    if deg_y < 0:
        raise ValueError(f"{name} needs deg_y (K) >= 0, got {deg_y}")


def reconstruct_1d(expansion: Expansion1D, order: int) -> TruncatedSeries:
    """prod_n (1 - z^n)^(-e_n) truncated at the given order."""
    rows = [[1] + [0] * order]
    for n, e_n in expansion.items():
        if n > order:
            break
        rows = _mul_factor(rows, n, 0, -e_n)
    return TruncatedSeries(rows[0], order)


# -- two-variable grids ------------------------------------------------


@record
class BiSeries:
    """Integer coefficient grid c(j, k) for 0 <= j <= J, 0 <= k <= K;
    grid[k][j] holds the coefficient of z^j y^k."""

    grid: Tuple[Tuple[int, ...], ...]

    @property
    def deg_z(self) -> int:
        return len(self.grid[0]) - 1

    @property
    def deg_y(self) -> int:
        return len(self.grid) - 1

    def coeff(self, j: int, k: int) -> int:
        return self.grid[k][j]

    @classmethod
    def from_rows(cls, rows: Sequence[Sequence[int]]) -> "BiSeries":
        """Integer entries or decimal-integer text; anything else raises."""
        if not rows or not rows[0]:
            raise ValueError("a grid needs at least one row and one column")
        width = len(rows[0])
        if any(len(r) != width for r in rows):
            raise ValueError("ragged grid")
        return cls(tuple(tuple(_exact_int(c, "grid entry") for c in r) for r in rows))

    @classmethod
    def one(cls, deg_z: int, deg_y: int) -> "BiSeries":
        _check_degrees("one", deg_z, deg_y)
        rows = [[0] * (deg_z + 1) for _ in range(deg_y + 1)]
        rows[0][0] = 1
        return cls.from_rows(rows)

    @classmethod
    def one_minus_y_times(cls, f: TruncatedSeries, deg_z: int, deg_y: int) -> "BiSeries":
        """The grid of 1 - y*f(z)."""
        _check_degrees("one_minus_y_times", deg_z, deg_y)
        if f.order < deg_z:
            raise ValueError(f"series order {f.order} below grid degree {deg_z}")
        if not f.is_integral():
            raise ValueError("integer coefficients required")
        rows = [[0] * (deg_z + 1) for _ in range(deg_y + 1)]
        rows[0][0] = 1
        if deg_y >= 1:
            for j in range(deg_z + 1):
                rows[1][j] = -f.coeff(j)
        return cls.from_rows(rows)

    def mul_factor(self, j: int, k: int, e: int) -> "BiSeries":
        """Multiply by (1 - z^j y^k)^e, truncated to the grid degrees."""
        return BiSeries.from_rows(_mul_factor(self.grid, j, k, e))

    def truncate(self, deg_z: int, deg_y: int) -> "BiSeries":
        _check_degrees("truncate", deg_z, deg_y)
        if deg_z > self.deg_z or deg_y > self.deg_y:
            raise ValueError("cannot extend a grid; higher coefficients unknown")
        return BiSeries.from_rows(
            [row[: deg_z + 1] for row in self.grid[: deg_y + 1]]
        )

    def to_json_dict(self) -> dict:
        return {
            "J": self.deg_z,
            "K": self.deg_y,
            "rows": [[coeff_str(c) for c in row] for row in self.grid],
        }

    @classmethod
    def from_json_dict(cls, obj: dict) -> "BiSeries":
        """Strict reader: `rows` is a non-empty array of equally long arrays
        of integers or decimal-integer strings, `J` and `K` are integers
        matching its shape; anything else raises ValueError."""
        rows = _json_array(obj, "rows")
        if not rows or not all(isinstance(row, list) and row for row in rows):
            raise ValueError("'rows' must be a non-empty array of non-empty arrays")
        bs = cls.from_rows([[_decimal(c, "grid entry", integer=True) for c in row]
                            for row in rows])
        J = _json_int(_json_field(obj, "J"), "J")
        K = _json_int(_json_field(obj, "K"), "K")
        if (bs.deg_z, bs.deg_y) != (J, K):
            raise ValueError("grid shape does not match declared J/K")
        return bs


@record
class Expansion2D:
    """Nonzero exponents e(j, k) of F = prod (1 - z^j y^k)^(e(j,k))."""

    deg_z: int
    deg_y: int
    exponents: Tuple[Tuple[Tuple[int, int], int], ...]  # ((j,k), e), e != 0

    def e(self, j: int, k: int) -> int:
        return dict(self.exponents).get((j, k), 0)

    def as_dict(self) -> Dict[Tuple[int, int], int]:
        return dict(self.exponents)

    def to_json_dict(self) -> dict:
        return {
            "J": self.deg_z,
            "K": self.deg_y,
            "e": {f"{j},{k}": coeff_str(e) for (j, k), e in self.exponents},
        }


def peel_2d(F: BiSeries) -> Expansion2D:
    """Unique product exponents of a unital integer grid: _exponents with
    p = F and r = theta F, theta F(a, b) = (a + b) F(a, b), negated for the
    (1 - z^j y^k)^(+e) convention."""
    if F.coeff(0, 0) != 1:
        raise ValueError("peel_2d requires a unital grid (c(0,0) = 1)")
    J, K = F.deg_z, F.deg_y
    theta = [[(a + b) * c for a, c in enumerate(row)] for b, row in enumerate(F.grid)]
    E = _exponents(F.grid, theta, J, K)
    return Expansion2D(J, K, tuple(((j, k), -E[k][j])
                                   for j in range(J + 1) for k in range(K + 1) if E[k][j]))


def reconstruct_2d(expansion: Expansion2D, deg_z: int, deg_y: int) -> BiSeries:
    """prod (1 - z^j y^k)^(e(j,k)) truncated to the given bidegree."""
    _check_degrees("reconstruct_2d", deg_z, deg_y)
    rows = BiSeries.one(deg_z, deg_y).grid
    for (j, k), e in expansion.exponents:
        if j <= deg_z and k <= deg_y:
            rows = _mul_factor(rows, j, k, e)
    return BiSeries.from_rows(rows)


@record
class CyclotomicReport:
    """The two exponent grids that cyclotomic_check compares: lhs peeled
    from 1 - y f, rhs the Witt table m(j, k) with row k = 0 zero."""

    passed: bool
    first_mismatch: Optional[Tuple[int, int]]
    lhs: BiSeries
    rhs: BiSeries

    def to_json_dict(self) -> dict:
        return {
            "passed": self.passed,
            "first_mismatch": list(self.first_mismatch) if self.first_mismatch else None,
        }


def cyclotomic_check(f: TruncatedSeries, deg_z: int, deg_y: int) -> CyclotomicReport:
    """Check 1/(1 - y f(z)) = prod (1 - z^j y^k)^(-m(j,k)) exactly for
    j <= deg_z, k <= deg_y, where m(j, k) is the Witt coefficient table of f.

    Product expansions are unique, so the identity holds exactly when the
    exponents peeled from 1 - y f (the log-derivative kernel) equal the
    table (the Moebius sum of powers of f), with row k = 0 all zero.  The
    product's coefficient at (a, b) depends only on exponents at cells
    (j, k) <= (a, b), so the first differing exponent in k-major order is
    also the first differing product coefficient: first_mismatch.
    """
    if deg_z < 0:
        raise ValueError(f"cyclotomic_check needs deg_z (J) >= 0, got {deg_z}")
    if deg_y < 1:
        raise ValueError(f"cyclotomic_check needs deg_y (K) >= 1, got {deg_y}")
    if not f.is_integral():
        raise ValueError("cyclotomic_check requires integer coefficients")
    if f.order < deg_z:
        raise ValueError(
            f"series truncation {f.order} is insufficient for z-degree {deg_z}"
        )
    table = witt_table(f.truncate(deg_z), deg_y)  # first: it checks the size budget
    peeled = peel_2d(BiSeries.one_minus_y_times(f, deg_z, deg_y)).as_dict()
    lhs = BiSeries.from_rows([[peeled.get((j, k), 0) for j in range(deg_z + 1)]
                              for k in range(deg_y + 1)])
    rhs = BiSeries.from_rows([[0] * (deg_z + 1)] + [row.coeffs for row in table.rows])
    mismatch = next(((j, k) for k, (lrow, rrow) in enumerate(zip(lhs.grid, rhs.grid))
                     for j in range(deg_z + 1) if lrow[j] != rrow[j]), None)
    return CyclotomicReport(mismatch is None, mismatch, lhs, rhs)
