"""Unique infinite-product expansions.

Every unital integer series factors uniquely as prod_n (1 - z^n)^(-e_n);
peel_1d recovers the exponents from the logarithmic derivative z f'/f,
whose coefficients are sum_{d|n} d e_d, by Moebius inversion, while
reconstruct_1d multiplies the factors back out, so comparing the two
checks one algorithm against another.  The two-variable analogue factors
1 + f(z, y) as prod (1 - z^j y^k)^(e(j,k)), peeled in increasing weight
((j1,k1) before (j2,k2) iff k1 < k2, or k1 == k2 and j1 < j2).  The
result does not depend on the weight order, which tests assert by
re-peeling j-major rather than trusting.
"""

from __future__ import annotations

import math
import re
from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Tuple

from .arith import moebius
from .series import TruncatedSeries, _json_array, _json_field, _json_int, coeff_str
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


def _binom_term(e: int, i: int) -> int:
    """Coefficient of X^i in (1 - X)^e for any integer e."""
    if i == 0:
        return 1
    if e >= 0:
        if i > e:
            return 0
        return -math.comb(e, i) if i % 2 else math.comb(e, i)
    return math.comb(-e + i - 1, i)


def _mul_one_minus_pow(coeffs: List[int], n: int, e: int) -> List[int]:
    """Multiply a dense coefficient list by (1 - z^n)^e, truncated."""
    if e == 0:
        return coeffs
    top = len(coeffs) - 1
    out = [0] * len(coeffs)
    for i in range(top // n + 1):
        b = _binom_term(e, i)
        if b == 0:
            continue
        shift = n * i
        for m in range(top - shift + 1):
            c = coeffs[m]
            if c:
                out[m + shift] += b * c
    return out


@dataclass(frozen=True)
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


def peel_1d(f: TruncatedSeries) -> Expansion1D:
    """Unique product exponents of a unital integer series.

    From f = prod (1 - z^n)^(-e_n) the logarithmic derivative is
    c = z f'/f = sum_n c_n z^n with c_n = sum_{d|n} d e_d.  The c_n follow
    from z f' = c f as c_n = n a_n - sum_{i=1}^{n-1} a_i c_(n-i) (only
    nonzero a_i contribute), and Moebius inversion gives
    n e_n = sum_{d|n} mu(n/d) c_d; every division by n is checked to be
    exact.  Exponents grow geometrically with n for generic rational
    inputs; arbitrary precision absorbs that.
    """
    if not f.is_integral():
        raise ValueError("peel_1d requires integer coefficients")
    if f.coeff(0) != 1:
        raise ValueError(f"peel_1d requires a unital series, got f(0) = {f.coeff(0)}")
    N = f.order
    a = f.coeffs
    support = [(i, a[i]) for i in range(1, N + 1) if a[i]]
    c = [0] * (N + 1)
    for n in range(1, N + 1):
        acc = n * a[n]
        for i, ai in support:
            if i >= n:
                break
            acc -= ai * c[n - i]
        c[n] = acc
    mu = [0] + [moebius(m) for m in range(1, N + 1)]
    ne = [0] * (N + 1)
    for d in range(1, N + 1):
        cd = c[d]
        if cd:
            for m in range(1, N // d + 1):
                if mu[m] == 1:
                    ne[d * m] += cd
                elif mu[m]:
                    ne[d * m] -= cd
    exps = []
    for n in range(1, N + 1):
        e_n, rem = divmod(ne[n], n)
        assert rem == 0, f"exponent {n} is not an integer"
        exps.append(e_n)
    return Expansion1D(N, tuple(exps))


def reconstruct_1d(expansion: Expansion1D, order: int) -> TruncatedSeries:
    """prod_n (1 - z^n)^(-e_n) truncated at the given order."""
    coeffs = [1] + [0] * order
    for n, e_n in expansion.items():
        if n > order:
            break
        coeffs = _mul_one_minus_pow(coeffs, n, -e_n)
    return TruncatedSeries(coeffs, order)


# -- two-variable grids ------------------------------------------------


def _grid_entry(value) -> int:
    if isinstance(value, str):
        if not re.fullmatch(r"[+-]?[0-9]+", value.strip()):
            raise ValueError(f"grid entry {value!r} is not a decimal integer")
        return int(value)
    return _json_int(value, "grid entry")


@dataclass(frozen=True)
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
        width = len(rows[0])
        if any(len(r) != width for r in rows):
            raise ValueError("ragged grid")
        return cls(tuple(tuple(int(c) for c in r) for r in rows))

    @classmethod
    def one(cls, deg_z: int, deg_y: int) -> "BiSeries":
        rows = [[0] * (deg_z + 1) for _ in range(deg_y + 1)]
        rows[0][0] = 1
        return cls.from_rows(rows)

    @classmethod
    def one_minus_y_times(cls, f: TruncatedSeries, deg_z: int, deg_y: int) -> "BiSeries":
        """The grid of 1 - y*f(z)."""
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

    @classmethod
    def geometric(cls, f: TruncatedSeries, deg_z: int, deg_y: int) -> "BiSeries":
        """The grid of 1 / (1 - y*f(z)): row k holds f(z)^k."""
        if f.order < deg_z:
            raise ValueError(f"series order {f.order} below grid degree {deg_z}")
        if not f.is_integral():
            raise ValueError("integer coefficients required")
        fz = f.truncate(deg_z)
        rows = []
        power = TruncatedSeries.one(deg_z)
        for _ in range(deg_y + 1):
            rows.append(list(power.coeffs))
            power = power * fz
        return cls.from_rows(rows)

    def mul_factor(self, j: int, k: int, e: int) -> "BiSeries":
        """Multiply by (1 - z^j y^k)^e, truncated to the grid degrees."""
        if (j, k) == (0, 0):
            raise ValueError("factor exponent position (0,0) is not allowed")
        if e == 0:
            return self
        J, K = self.deg_z, self.deg_y
        limit = min(J // j if j else K, K // k if k else J)
        out = [[0] * (J + 1) for _ in range(K + 1)]
        for i in range(limit + 1):
            b = _binom_term(e, i)
            if b == 0:
                continue
            dj, dk = i * j, i * k
            for k0 in range(K + 1 - dk):
                row = self.grid[k0]
                orow = out[k0 + dk]
                for j0 in range(J + 1 - dj):
                    c = row[j0]
                    if c:
                        orow[j0 + dj] += b * c
        return BiSeries.from_rows(out)

    def truncate(self, deg_z: int, deg_y: int) -> "BiSeries":
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
        bs = cls.from_rows([[_grid_entry(c) for c in row] for row in rows])
        J = _json_int(_json_field(obj, "J"), "J")
        K = _json_int(_json_field(obj, "K"), "K")
        if (bs.deg_z, bs.deg_y) != (J, K):
            raise ValueError("grid shape does not match declared J/K")
        return bs


@dataclass(frozen=True)
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


def _weight_cells(J: int, K: int, order: str) -> List[Tuple[int, int]]:
    cells = [(j, k) for k in range(K + 1) for j in range(J + 1) if (j, k) != (0, 0)]
    if order == "k-major":
        cells.sort(key=lambda jk: (jk[1], jk[0]))
    elif order == "j-major":
        cells.sort(key=lambda jk: (jk[0], jk[1]))
    else:
        raise ValueError(f"unknown weight order {order!r}")
    return cells


def peel_2d(F: BiSeries, order: str = "k-major") -> Expansion2D:
    """Unique product exponents of a unital integer grid.

    Peels in increasing weight; at each cell the exponent is the negated
    residual coefficient there, so the residual's lowest weight strictly
    increases.
    """
    if F.coeff(0, 0) != 1:
        raise ValueError("peel_2d requires a unital grid (c(0,0) = 1)")
    residual = F
    exps = {}
    for j, k in _weight_cells(F.deg_z, F.deg_y, order):
        c = residual.coeff(j, k)
        if c:
            exps[(j, k)] = -c
            residual = residual.mul_factor(j, k, c)
    assert residual == BiSeries.one(F.deg_z, F.deg_y), "2-D peel residual did not clear"
    return Expansion2D(F.deg_z, F.deg_y, tuple(sorted(exps.items())))


def reconstruct_2d(expansion: Expansion2D, deg_z: int, deg_y: int) -> BiSeries:
    """prod (1 - z^j y^k)^(e(j,k)) truncated to the given bidegree."""
    out = BiSeries.one(deg_z, deg_y)
    for (j, k), e in sorted(expansion.exponents, key=lambda item: (item[0][1], item[0][0])):
        if j <= deg_z and k <= deg_y:
            out = out.mul_factor(j, k, e)
    return out


@dataclass(frozen=True)
class CyclotomicReport:
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
    """Compare 1/(1 - y f(z)) with prod (1 - z^j y^k)^(-m(j,k)) exactly,
    where m(j,k) is the Witt coefficient table of f."""
    if not f.is_integral():
        raise ValueError("cyclotomic_check requires integer coefficients")
    if f.order < deg_z:
        raise ValueError(
            f"series truncation {f.order} is insufficient for z-degree {deg_z}"
        )
    lhs = BiSeries.geometric(f, deg_z, deg_y)
    table = witt_table(f.truncate(deg_z), deg_y)
    rhs = BiSeries.one(deg_z, deg_y)
    for k in range(1, deg_y + 1):
        for j in range(deg_z + 1):
            m = table.m(j, k)
            if m:
                rhs = rhs.mul_factor(j, k, -m)
    mismatch = None
    for k in range(deg_y + 1):
        for j in range(deg_z + 1):
            if lhs.coeff(j, k) != rhs.coeff(j, k):
                mismatch = (j, k)
                break
        if mismatch:
            break
    return CyclotomicReport(mismatch is None, mismatch, lhs, rhs)
