"""Shared independent oracles for the test suite.

Each oracle here deliberately uses a different algorithm from the code
under test: classical long division for series expansion and Euler's
criterion for quadratic residues.  Catalan's constant, which the L-value
kernel sums as an alternating series, is checked against mpmath.catalan.
perturb_witt_table injects one known fault, so that a check's failing path
can be tested.
"""

from decimal import Decimal
from fractions import Fraction
from typing import List, Sequence

import wittkit.expansion
from wittkit.series import TruncatedSeries
from wittkit.witt import WittTable


def longdiv_series(num: Sequence[int], den: Sequence[int], order: int) -> List[Fraction]:
    """Power-series long division: repeatedly cancel the lowest remaining
    term of the remainder with a multiple of the divisor."""
    rem = [Fraction(c) for c in num] + [Fraction(0)] * (order + 1)
    out = []
    for k in range(order + 1):
        c = rem[k] / den[0]
        out.append(c)
        for i, d in enumerate(den):
            if k + i <= order:
                rem[k + i] -= c * d
    return out


def legendre_symbol(a: int, p: int) -> int:
    """Euler's criterion for an odd prime p."""
    a %= p
    if a == 0:
        return 0
    r = pow(a, (p - 1) // 2, p)
    return -1 if r == p - 1 else r


# b_chi for chi_-4 to 32 digits from mpmath: the prime-zeta evaluation of
# perfbench/make_refs.py (b_chi_mpmath), which agrees with the same
# evaluation at 42 digits and shares no code with wittkit's L-series route
B_CHI_MINUS_4 = Decimal("0.3218253398312629869864361045102871")


def perturb_witt_table(monkeypatch, j: int, k: int, module=wittkit.expansion) -> None:
    """Make the Witt table that `module` (wittkit.expansion unless given)
    reads off by one at m(j, k)."""
    real = module.witt_table

    def faulty(f, order, degree=None):
        table = real(f, order, degree)
        rows = list(table.rows)
        row = rows[k - 1]
        rows[k - 1] = TruncatedSeries([c + (i == j) for i, c in enumerate(row.coeffs)],
                                      row.order)
        return WittTable(table.f, tuple(rows))

    monkeypatch.setattr(module, "witt_table", faulty)
