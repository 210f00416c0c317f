"""The Witt transform of a truncated power series and its identity suite.

The order-r transform of f is (1/r) sum_{d|r} mu(d) f(z^d)^{r/d}; its
z^j coefficient is written m(j, r).  For an integer-coefficient input the
transform is again integral, and the division by r is performed exactly so
that any violation raises instead of silently producing fractions.

One kernel, _divisor_sum, computes every Moebius-weighted sum of inflated
terms sum_{d|r} mu(d) X_{r/d}(z^d): c_transform and witt_transform take
X_e = f^e, witt_table takes the powers f, f^2, ..., f^R built once at the
table's degree, and the series inversions take X_e = A(e).  Each term is
asked for only up to z^(N//d), the part that survives inflation by d.

verify_identity evaluates both sides of the classical identities for the
transform (product rule, power rule, sign rule, Moebius inversion, and the
necklace-polynomial specializations) at a shared truncation and reports
the first differing coefficient, if any.  One kernel, _mixed_power_rule,
evaluates all eight: each is the mixed-power sum at particular arguments.
T3.4 (v = w = 1), T3.5 (g = 1, w = k) and T3.6 are the sum itself, T1.1
and T1.2 the product and power rules on constant series, T3.1 the product
rule with g = z^k, T3.2 the power rule at order 1 with its sides swapped,
and T3.3 the product rule with g = -1 with both sides times (-1)^r.  The
kernel skips a pair whose W_j(g) is zero and puts g first in its products,
so the sparse z^k and -1 cost little.  monotonicity_scan checks the
coefficient-monotonicity families on finite windows; it certifies the
claims on the scanned window only.  One rise test, _drops, makes every
comparison, over the lines of one table: for P6 the lines of M(c; r)
along r (c >= 2) and then along c, each strict; for T5.1 and T5.2 the
columns k >= 2 and k >= 3 along r; for T5.3b/T5.4b the rows along k from
k = 0; for T5.3c/T5.4c the rows r >= 3 along k from k = 2, strict.
T5.3a/T5.4a test m(k, r) >= 1 cell by cell.  T5.2 and T5.4* read the
table of -f with its odd rows negated, row r being (-1)^r W_r(-f).
"""

from __future__ import annotations

import math
from fractions import Fraction
from typing import Callable, Dict, List, Optional, Sequence, Tuple

from ._record import record
from .arith import divisors, moebius
from .errors import BudgetExceededError, IntegralityError, PreconditionError
from .necklace import necklace_poly
from .series import Coeff, TruncatedSeries, coeff_str

__all__ = [
    "witt_transform",
    "c_transform",
    "witt_table",
    "WittTable",
    "moebius_invert_series",
    "moebius_sum_series",
    "IdentityReport",
    "verify_identity",
    "IDENTITY_IDS",
    "ScanReport",
    "monotonicity_scan",
    "SCAN_FAMILIES",
]


def _divisor_sum(term: Callable[[int, int], Sequence[Coeff]], r: int, n: int,
                 signed: bool = True) -> TruncatedSeries:
    """sum_{d|r} mu(d) X_{r/d}(z^d) truncated at z^n; the Witt kernel.

    term(e, m) gives the coefficients of X_e at least up to z^m; inflating
    by d only reaches z^(n//d), so m = n // d and no more is read.  With
    signed=False the Moebius weights are dropped (the inverse summation).
    """
    acc: List[Coeff] = [0] * (n + 1)
    for d in divisors(r):
        mu = moebius(d) if signed else 1
        if mu == 0:
            continue
        m = n // d
        for j, c in enumerate(term(r // d, m)[: m + 1]):
            if c:
                acc[j * d] += c if mu == 1 else -c
    # sums of normalized coefficients: no validation, and ints need no _norm
    return TruncatedSeries._finish(acc, n, all(type(c) is int for c in acc))


def _divide_by_order(acc: TruncatedSeries, r: int, integral: bool) -> TruncatedSeries:
    # the 1/r of the Witt transform: exact for integral input, where a
    # remainder is a bug and raises, and a Fraction scale otherwise
    if integral:
        try:
            return acc.divexact(r)
        except IntegralityError as exc:
            raise IntegralityError(
                f"witt_transform(r={r}) of an integral series is not integral: {exc}"
            ) from exc
    return acc * Fraction(1, r)


def c_transform(f: TruncatedSeries, r: int) -> TruncatedSeries:
    """Normalized transform sum_{d|r} mu(d) f(z^d)^{r/d} (r times the
    Witt transform); always integral for integral f."""
    if r < 1:
        raise ValueError(f"transform order must be >= 1, got {r}")
    return _divisor_sum(lambda e, m: (f.truncate(m) ** e).coeffs, r, f.order)


def witt_transform(f: TruncatedSeries, r: int) -> TruncatedSeries:
    """Order-r Witt transform of f at f's truncation order.

    Integer-coefficient input must give an integer-coefficient result;
    a failed exact division raises IntegralityError (a bug, not bad input).
    """
    return _divide_by_order(c_transform(f, r), r, f.is_integral())


@record
class WittTable:
    """Coefficient table m(j, r) for 0 <= j <= degree, 1 <= r <= order."""

    f: TruncatedSeries
    rows: Tuple[TruncatedSeries, ...]

    @property
    def order(self) -> int:
        return len(self.rows)

    @property
    def degree(self) -> int:
        return self.rows[0].order

    def m(self, j: int, r: int) -> Coeff:
        if not 1 <= r <= self.order:
            raise IndexError(f"row r={r} outside 1..{self.order}")
        return self.rows[r - 1].coeff(j)

    def to_json_dict(self) -> dict:
        return {
            "degree": self.degree,
            "order": self.order,
            "m": [[coeff_str(c) for c in row.coeffs] for row in self.rows],
        }


# largest table, order x (degree + 1) cells, that witt_table builds; the
# largest documented table, (900, 70), has 63070
TABLE_CELL_BUDGET = 100_000


def witt_table(f: TruncatedSeries, order: int, degree: int | None = None) -> WittTable:
    """Rows 1..order of Witt transforms of f, truncated to `degree`.

    f is cut to `degree` first and its powers f, f^2, ..., f^order are
    built once at that degree; every row is the Witt kernel over those
    shared powers, so row r equals witt_transform(f, r).truncate(degree).
    A table of more than TABLE_CELL_BUDGET cells raises BudgetExceededError.
    """
    if order < 1:
        raise ValueError(f"table order must be >= 1, got {order}")
    if degree is None:
        degree = f.order
    if not 0 <= degree <= f.order:
        raise ValueError(
            f"requested degree {degree} is outside the input truncation 0..{f.order}"
        )
    cells = order * (degree + 1)
    if cells > TABLE_CELL_BUDGET:
        raise BudgetExceededError(
            f"a Witt table of {order} rows x {degree + 1} coefficients is {cells} "
            f"cells, over the budget of {TABLE_CELL_BUDGET} cells"
        )
    f = f.truncate(degree)
    powers = [f]
    for _ in range(order - 1):
        powers.append(powers[-1] * f)
    rows = tuple(
        _divide_by_order(
            _divisor_sum(lambda e, m: powers[e - 1].coeffs, r, degree),
            r, f.is_integral(),
        )
        for r in range(1, order + 1)
    )
    table = WittTable(f=f, rows=rows)
    _check_constant_row(table)
    return table


def _check_constant_row(table: WittTable) -> None:
    # m(0, r) must equal the necklace polynomial of the constant term.
    a0 = table.f.coeff(0)
    if not isinstance(a0, int):
        return
    for r in range(1, table.order + 1):
        expected = necklace_poly(a0, r)
        if table.m(0, r) != expected:
            raise IntegralityError(
                f"m(0,{r}) = {table.m(0, r)} != necklace_poly({a0},{r}) = {expected}"
            )


# -- Moebius inversion for sequences of series ------------------------


def moebius_invert_series(seq: Sequence[TruncatedSeries]) -> List[TruncatedSeries]:
    """B(r) = sum_{d|r} mu(d) A(r/d)(z^d) for r = 1..len(seq)."""
    n = min(s.order for s in seq)
    return [_divisor_sum(lambda e, m: seq[e - 1].coeffs, r, n)
            for r in range(1, len(seq) + 1)]


def moebius_sum_series(seq: Sequence[TruncatedSeries]) -> List[TruncatedSeries]:
    """A(r) = sum_{d|r} B(r/d)(z^d); inverse of moebius_invert_series."""
    n = min(s.order for s in seq)
    return [_divisor_sum(lambda e, m: seq[e - 1].coeffs, r, n, signed=False)
            for r in range(1, len(seq) + 1)]


# -- identity verification --------------------------------------------


@record
class IdentityReport:
    ident: str
    params: Dict[str, int]
    lhs: TruncatedSeries
    rhs: TruncatedSeries
    passed: bool
    first_mismatch: Optional[int] = None

    def to_json_dict(self) -> dict:
        return {
            "id": self.ident,
            "params": self.params,
            "passed": self.passed,
            "first_mismatch": self.first_mismatch,
            "lhs": self.lhs.to_json_dict(),
            "rhs": self.rhs.to_json_dict(),
        }


def _compare(ident: str, params: Dict[str, int], lhs: TruncatedSeries,
             rhs: TruncatedSeries) -> IdentityReport:
    n = min(lhs.order, rhs.order)
    lhs, rhs = lhs.truncate(n), rhs.truncate(n)
    mismatch = next((j for j in range(n + 1) if lhs.coeffs[j] != rhs.coeffs[j]), None)
    return IdentityReport(ident, params, lhs, rhs, mismatch is None, mismatch)


def _require_order(ident: str, f: TruncatedSeries, needed: int) -> None:
    if f.order < needed:
        raise ValueError(
            f"{ident}: truncation {f.order} too small, need at least {needed} "
            "to cover the highest transform degree"
        )


def _mixed_power_rule(ident: str, f: TruncatedSeries, g: Optional[TruncatedSeries],
                      r: int, v: int, w: int):
    """Both sides of W_r(f^w' g^v') = sum (d/(v,w)) W_i(f)(z^(r w'/i)) W_j(g)(z^(r v'/j)).

    w' = w/(v,w), v' = v/(v,w), d = gcd(v i, w j), and (i, j) runs over the
    pairs with i j (v,w) = d r; that condition forces i | r w' and j | r v',
    which is asserted rather than assumed.  g=None stands for g = 1, whose
    transforms are W_1(1) = 1 and W_j(1) = M(1; j) = 0 for j >= 2, so only
    j = 1 is visited.  The product rule is v = w = 1, the power rule is
    g = 1, v = 1, w = k, and constant series give the necklace rules.  At
    fixed arguments the same sum is the shift rule T3.1 (product rule with
    g = z^k, W_j(z^k) = 0 for j >= 2), the inversion rule T3.2 (power rule
    at order 1, W_1(f^r) = f^r) and the sign rule T3.3 (product rule with
    g = -1, W_j(-1) = M(-1; j) = -1, 1, 0, 0, ...).

    W_j(g) is computed before W_i(f), and a pair whose inflated W_j(g) is
    zero is skipped, so those rules transform f only where a term survives;
    g comes first in both products, so a sparse g drives the outer loop of
    TruncatedSeries.__mul__.  Products are exact, so the order changes no
    coefficient.
    """
    gg = math.gcd(v, w)
    w1, v1 = w // gg, v // gg
    lhs = witt_transform(f**w1 if g is None else (g**v1) * (f**w1), r)
    wf: Dict[int, TruncatedSeries] = {}
    wg: Dict[int, Optional[TruncatedSeries]] = {}
    rhs = TruncatedSeries.zero(lhs.order)
    for i in range(1, r * w1 + 1):
        for j in range(1, r * v1 + 1) if g is not None else (1,):
            d = math.gcd(v * i, w * j)
            if i * j * gg != d * r:
                continue
            if (r * w1) % i or (r * v1) % j:
                raise IntegralityError(
                    f"{ident}: set member (i,j)=({i},{j}) violates "
                    f"i | {r * w1}, j | {r * v1}"
                )
            if g is not None:
                if j not in wg:
                    wj = witt_transform(g, j).inflate(r * v1 // j)
                    wg[j] = wj if any(wj.coeffs) else None
                if wg[j] is None:
                    continue
            if i not in wf:
                wf[i] = witt_transform(f, i).inflate(r * w1 // i)
            term = wf[i] * (d // gg)
            rhs = rhs + (term if g is None else wg[j] * term)
    return lhs, rhs


def _series_rule(ident, f, g, r, v, w):
    # every inflated transform must be known up to z^(r * max(w', v'))
    needed = r * max(v, w) // math.gcd(v, w)
    _require_order(ident, f, needed)
    if g is not None:
        _require_order(ident, g, needed)
    return _mixed_power_rule(ident, f, g, r, v, w)


def _shift_rule(f, r, k):
    # the shifted transform z^(k r) W_r(f) must fit in f's truncation
    _require_order("T3.1", f, k * r)
    return _mixed_power_rule("T3.1", f, TruncatedSeries([0] * k + [1], f.order), r, 1, 1)


def _constant(c) -> TruncatedSeries:
    return TruncatedSeries.constant(c, 0)


# id -> (function giving both sides, its parameter names in order)
_IDENTITIES = {
    "T1.1": (lambda alpha, beta, n: _mixed_power_rule(
        "T1.1", _constant(alpha), _constant(beta), n, 1, 1), ("alpha", "beta", "n")),
    "T1.2": (lambda beta, r, n: _mixed_power_rule(
        "T1.2", _constant(beta), None, n, 1, r), ("beta", "r", "n")),
    "T3.1": (_shift_rule, ("f", "r", "k")),
    "T3.2": (lambda f, r: _series_rule("T3.2", f, None, 1, 1, r)[::-1], ("f", "r")),
    "T3.3": (lambda f, r: tuple(-side if r % 2 else side for side in _series_rule(
        "T3.3", f, TruncatedSeries.constant(-1, f.order), r, 1, 1)), ("f", "r")),
    "T3.4": (lambda f, g, r: _series_rule("T3.4", f, g, r, 1, 1), ("f", "g", "r")),
    "T3.5": (lambda f, r, k: _series_rule("T3.5", f, None, r, 1, k), ("f", "r", "k")),
    "T3.6": (lambda f, g, r, v, w: _series_rule("T3.6", f, g, r, v, w),
             ("f", "g", "r", "v", "w")),
}
IDENTITY_IDS = tuple(_IDENTITIES)
_SIZES = ("r", "k", "v", "w", "n")


def verify_identity(
    ident: str,
    f: Optional[TruncatedSeries] = None,
    g: Optional[TruncatedSeries] = None,
    *,
    r: Optional[int] = None,
    k: Optional[int] = None,
    v: Optional[int] = None,
    w: Optional[int] = None,
    alpha: Optional[int] = None,
    beta: Optional[int] = None,
    n: Optional[int] = None,
) -> IdentityReport:
    """Evaluate both sides of the named identity exactly and compare.

    Each id takes the parameters listed for it in the README; the orders
    and exponents r, k, v, w and n must be at least 1.
    """
    if ident not in _IDENTITIES:
        raise ValueError(f"unknown identity id {ident!r}; known: {IDENTITY_IDS}")
    sides, names = _IDENTITIES[ident]
    given = {"f": f, "g": g, "r": r, "k": k, "v": v, "w": w,
             "alpha": alpha, "beta": beta, "n": n}
    args = {name: given[name] for name in names}
    missing = [name for name, val in args.items() if val is None]
    if missing:
        raise ValueError(f"{ident} requires parameters: {', '.join(missing)}")
    for name in names:
        if name in _SIZES and args[name] < 1:
            raise ValueError(f"{ident}: parameter {name} must be >= 1, got {args[name]}")
    lhs, rhs = sides(**args)
    params = {name: val for name, val in args.items() if name not in ("f", "g")}
    return _compare(ident, params, lhs, rhs)


# -- monotonicity scans ------------------------------------------------

SCAN_FAMILIES = (
    "T5.1",
    "T5.2",
    "T5.3a",
    "T5.3b",
    "T5.3c",
    "T5.4a",
    "T5.4b",
    "T5.4c",
    "P6",
)


@record
class ScanReport:
    family: str
    params: Dict[str, int]
    passed: bool
    checked: int
    violations: Tuple[str, ...] = ()
    note: str = "finite-window check; certifies the claim on this window only"

    def __post_init__(self):
        if not self.checked:  # an empty window would pass without a check
            raise ValueError(f"{self.family}: the window {self.params} holds no comparison")

    def to_json_dict(self) -> dict:
        return {
            "family": self.family,
            "params": self.params,
            "passed": self.passed,
            "checked": self.checked,
            "violations": list(self.violations),
            "note": self.note,
        }


def _require_nonneg_integral(f: TruncatedSeries, family: str) -> None:
    if not f.is_integral():
        raise PreconditionError(f"{family}: coefficients must be integers")
    if any(c < 0 for c in f.coeffs):
        raise PreconditionError(f"{family}: coefficients must be non-negative")
    if f.coeff(0) <= 0:
        raise PreconditionError(f"{family}: constant term must be positive")


def _require_nondecreasing(f: TruncatedSeries, upto: int, family: str) -> None:
    upto = min(upto, f.order)
    for j in range(upto):
        if f.coeffs[j] > f.coeffs[j + 1]:
            raise PreconditionError(
                f"{family}: coefficient sequence must be non-decreasing on the "
                f"window (fails at a_{j} > a_{j + 1})"
            )


def _drops(line: Sequence[int], first: int, strict: bool) -> List[int]:
    """The indices first + i (i >= 1) where line[i] fails to rise from
    line[i - 1]: a drop, or with `strict` also a tie; the one comparison
    behind every monotonicity family."""
    return [first + i for i in range(1, len(line))
            if line[i] < line[i - 1] or strict and line[i] == line[i - 1]]


def monotonicity_scan(
    f: Optional[TruncatedSeries],
    family: str,
    *,
    kmax: int = 8,
    rmax: int = 12,
    cmax: int = 6,
) -> ScanReport:
    """Check one coefficient-monotonicity family on a finite window.

    Hypotheses of the selected family are checked, not assumed; a violated
    hypothesis raises PreconditionError naming it.  For T5.3*/T5.4* the
    non-decreasing hypothesis is checked on coefficients a_0..a_{kmax+1}
    (the window the conclusions depend on).

    Every family but the positivity ones is a set of lines, each passed to
    _drops, and `checked` counts the comparisons made:
      P6           M(c; r), each computed once: strict along r for each
                   c = 2..cmax, then strict along c for each r;
      T5.1, T5.2   column k along r, non-strict, from k = 2 (T5.1) or 3;
      T5.3b/T5.4b  row r along k from k = 0, non-strict;
      T5.3c/T5.4c  row r along k from k = 2, strict, for r >= 3;
      T5.3a/T5.4a  m(k, r) >= 1 for 1 <= k <= kmax, cell by cell.
    T5.1 and T5.3* read the table of f; T5.2 and T5.4* read the table of
    -f with its odd rows negated, so row r is (-1)^r W_r(-f).  A negative
    window size raises ValueError naming it, before anything is evaluated.
    """
    if family not in SCAN_FAMILIES:
        raise ValueError(f"unknown family {family!r}; known: {SCAN_FAMILIES}")
    params = {"cmax": cmax, "rmax": rmax} if family == "P6" else {"kmax": kmax, "rmax": rmax}
    for name, size in params.items():
        if size < 0:
            raise ValueError(f"{family}: {name} must be >= 0, got {size}")
    # each line: (message taking the line's key and the failing index,
    # key, values, index of the first value, strict)
    lines: List[Tuple[str, int, List[int], int, bool]]

    if family == "P6":
        grid = [[necklace_poly(c, r) for r in range(1, rmax + 1)]
                for c in range(1, cmax + 1)]
        # M(2;1) = 2 > M(2;2) = 1 and M(3;1) = M(3;2) = 3, so the lines
        # along r start at r = 2 for c = 2, 3 and at r = 1 otherwise
        starts = {c: 2 if c in (2, 3) else 1 for c in range(2, cmax + 1)}
        lines = [("M({};r) not strict at r={}", c, grid[c - 1][start - 1:], start, True)
                 for c, start in starts.items()]
        lines += [("M(c;{}) not strict at c={}", r, [row[r - 1] for row in grid], 1, True)
                  for r in range(1, rmax + 1)]
    else:
        if f is None:
            raise ValueError(f"family {family} requires a series")
        _require_nonneg_integral(f, family)
        if f.order < kmax:
            raise ValueError(f"series order {f.order} < kmax {kmax}")
        if family[:4] in ("T5.3", "T5.4"):
            _require_nondecreasing(f, kmax + 1, family)
        # the comparisons fill a (kmax - dk) x (rmax - dr) block of the table;
        # a window without one is refused by ScanReport before any table is built
        dk, dr = {"T5.1": (1, 1), "T5.2": (2, 1), "T5.3c": (2, 2), "T5.4c": (2, 2)}.get(
            family, (0, 0))
        if kmax <= dk or rmax <= dr:
            return ScanReport(family, params, True, 0)
        signed = family == "T5.2" or family[:4] == "T5.4"
        table = witt_table(-f if signed else f, rmax, kmax)
        rows = [[-x for x in row.coeffs] if signed and r % 2 else list(row.coeffs)
                for r, row in enumerate(table.rows, 1)]
        if family in ("T5.1", "T5.2"):
            lines = [("k={}: decreases at r={}", k, [row[k] for row in rows], 1, False)
                     for k in range(2 if family == "T5.1" else 3, kmax + 1)]
        elif family[-1] == "a":
            violations = [f"m({k},{r}) = {row[k]} < 1" for r, row in enumerate(rows, 1)
                          for k in range(1, kmax + 1) if row[k] < 1]
            return ScanReport(family, params, not violations, rmax * kmax, tuple(violations))
        elif family[-1] == "b":
            lines = [("r={}: decreases at k={}", r, row, 0, False)
                     for r, row in enumerate(rows, 1)]
        else:
            lines = [("r={}: not strict at k={}", r, row[2:], 2, True)
                     for r, row in enumerate(rows[2:], 3)]

    violations = [message.format(key, i) for message, key, line, first, strict in lines
                  for i in _drops(line, first, strict)]
    checked = sum(len(line) - 1 for _, _, line, _, _ in lines if line)
    return ScanReport(family, params, not violations, checked, tuple(violations))
