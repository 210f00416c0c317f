"""Dense truncated formal power series over exact rationals.

A TruncatedSeries of order N stores the coefficients of z^0 .. z^N and
nothing else; arithmetic never pretends to know more.  Binary operations
on series of different orders truncate to the smaller order, so a result's
order is always an honest claim about which coefficients are exact.

Coefficients are Python ints whenever possible and Fractions otherwise
(a Fraction with denominator 1 is normalized back to int), so integer
series stay on the fast int path.
"""

from __future__ import annotations

import operator
import re
from decimal import MAX_EMAX, MAX_PREC, MIN_EMIN, Decimal, Inexact, localcontext
from fractions import Fraction
from typing import Sequence, Tuple, Union

from ._record import record
from .errors import IntegralityError

__all__ = [
    "Coeff",
    "TruncatedSeries",
    "RationalFunction",
    "coeff_str",
]

Coeff = Union[int, Fraction]


def _norm(x: Coeff) -> Coeff:
    if isinstance(x, Fraction) and x.denominator == 1:
        return int(x)
    return x


def _decimal(value, what: str, integer: bool = False) -> Coeff:
    """An exact number read at the CLI/JSON boundary: a JSON integer, or text
    [+-]?[0-9]+ followed (unless `integer`) by an optional /q, q > 0.  int()
    and Fraction() would also take underscores and non-ASCII digits."""
    if not isinstance(value, str):
        return _json_int(value, what)
    match = re.fullmatch(r"([+-]?[0-9]+)(?:/(0*[1-9][0-9]*))?", value.strip())
    if match is None or (integer and match[2] is not None):
        kind = "integer" if integer else "integer or fraction p/q with q > 0"
        raise ValueError(f"{what} {value!r} is not a decimal {kind}")
    if match[2] is None:
        return _long_int(match[1])
    return _norm(Fraction(_long_int(match[1]), _long_int(match[2])))


def _long_int(text: str) -> int:
    """int(text) for a decimal text [+-]?[0-9]+ of any length, also past
    the interpreter's int-from-str digit limit (which int() refuses).

    Below the limit this is int() itself.  Past it the digits are split
    in halves, hi 10^h + lo, down to pieces int() takes, and put together
    again with 10^h built once per h: the inverse of _long_int_str, in
    the time of a few big products, where int(Decimal(text)) is quadratic.
    Also the parse_int of the CLI's JSON readers.
    """
    try:
        return int(text)
    except ValueError:
        pass
    tens = {}  # h -> 10^h, each built once

    def convert(digits: str) -> int:
        if len(digits) <= 640:  # the lowest int-from-str limit CPython allows
            return int(digits)
        h = len(digits) >> 1
        if h not in tens:
            tens[h] = 10**h
        return convert(digits[:-h]) * tens[h] + convert(digits[-h:])

    value = convert(text.lstrip("+-"))
    return -value if text[0] == "-" else value


def _exact_int(value, what: str) -> int:
    """A constructor's integer: text through _decimal, non-integers a TypeError."""
    return _decimal(value, what, integer=True) if isinstance(value, str) else operator.index(value)


def coeff_str(x: Coeff) -> str:
    """Decimal text of an int or Fraction, as str() gives it, also past
    the interpreter's int-to-str digit limit (which str() refuses)."""
    if isinstance(x, Fraction):
        if x.denominator == 1:
            return coeff_str(x.numerator)
        return f"{coeff_str(x.numerator)}/{coeff_str(x.denominator)}"
    try:
        return str(x)
    except ValueError:
        return _long_int_str(x)


def _long_int_str(x: int) -> str:
    """str(x) for an int of any size, in quasi-linear time.

    x = hi 2^h + lo is split down to pieces of at most 128 bits, and the
    pieces are put together again as Decimals, whose products of large
    operands are fast; str(Decimal(x)) converts digit by digit, in
    quadratic time.  The context holds every digit, and its Inexact trap
    turns any rounding into an error.  This is the method of CPython
    3.12's _pylong.int_to_decimal_string.
    """
    twos = {}  # h -> 2^h as a Decimal, each built once

    def two_to(h: int) -> Decimal:
        if h not in twos:
            twos[h] = (Decimal(2) ** h if h <= 128
                       else two_to(h >> 1) * two_to(h - (h >> 1)))
        return twos[h]

    def convert(y: int, bits: int) -> Decimal:  # 0 <= y < 2^bits
        if bits <= 128:
            return Decimal(y)
        h = bits >> 1
        return convert(y >> h, bits - h) * two_to(h) + convert(y & ((1 << h) - 1), h)

    with localcontext() as ctx:
        ctx.prec, ctx.Emax, ctx.Emin = MAX_PREC, MAX_EMAX, MIN_EMIN
        ctx.traps[Inexact] = True
        text = str(convert(abs(x), abs(x).bit_length()))
    return "-" + text if x < 0 else text


def _power_coeffs(a: Sequence[Coeff], k: int, order: int, integral: bool,
                  prefix: Sequence[Coeff] = ()) -> list:
    """The coefficients of a^k up to z^order, k >= 1, by J. C. P. Miller's
    recurrence (Knuth, TAOCP vol. 2, 4.7); a is read up to z^order only.

    With a = z^v u, u_0 != 0, and g = u^k, comparing coefficients in
    u g' = k u' g gives n u_0 g_n = sum_{i=1..n} ((k+1) i - n) u_i g_{n-i},
    one pass over the nonzero u_i per coefficient: O(order nnz(u)) work
    where binary powering takes O(order^2 log k).  The result is z^(v k) g.
    `prefix`, the first coefficients of a^k (from an earlier, lower
    order), is kept and the recurrence continues after it, so raising from
    order m to order M takes M - m steps.  For `integral` coefficients
    each division by n u_0 is exact, and a remainder raises
    IntegralityError (a bug, as in divexact); otherwise it divides as a
    Fraction and normalizes.
    """
    v = next((j for j in range(order + 1) if a[j]), None)
    if v is None or v * k > order:
        return [0] * (order + 1)
    top = order - v * k  # g is needed up to z^top
    u0 = a[v]
    terms = [(i, c) for i, c in enumerate(a[v + 1:v + top + 1], 1) if c]
    g = list(prefix[v * k:]) or [u0**k]
    for n in range(len(g), top + 1):
        acc = 0
        for i, c in terms:
            if i > n:
                break
            acc += ((k + 1) * i - n) * c * g[n - i]
        if integral:
            q, rem = divmod(acc, n * u0)
            if rem:
                raise IntegralityError(
                    f"power {k}: coefficient of z^{n + v * k} is not an integer"
                )
            g.append(q)
        else:
            g.append(_norm(Fraction(acc, n * u0)))
    return [0] * (v * k) + g


def _mul_coeffs(a: Sequence[Coeff], b: Sequence[Coeff], n: int) -> list:
    """The coefficients of a b up to z^n, unnormalized; a and b are read up
    to z^n only.  The outer loop skips zeros, so the sparser factor drives."""
    if a.count(0) < b.count(0):
        a, b = b, a
    out = [0] * (n + 1)
    for i in range(n + 1):
        ai = a[i]
        if ai == 0:
            continue
        for j in range(n + 1 - i):
            bj = b[j]
            if bj != 0:
                out[i + j] += ai * bj
    return out


def _json_field(obj: dict, key: str):
    if not isinstance(obj, dict):
        raise ValueError(f"expected a JSON object, got {type(obj).__name__}")
    if key not in obj:
        raise ValueError(f"JSON object lacks the field {key!r}")
    return obj[key]


def _json_array(obj: dict, key: str) -> list:
    value = _json_field(obj, key)
    if not isinstance(value, list):
        raise ValueError(f"{key!r} must be a JSON array, got {type(value).__name__}")
    return value


def _json_int(value, what: str) -> int:
    # bool is an int subclass and floats would be truncated: both are refused
    if type(value) is not int:
        raise ValueError(f"{what} must be an integer, got {value!r}")
    return value


class TruncatedSeries:
    """Immutable truncated power series; `order` is the last stored degree.

    Each series keeps the powers it has been raised to, {k: coefficients
    of self^k}, in the private slot `_powers`: made on the first raise,
    holding self^1 as `coeffs`, and dying with the series.  It is no part
    of the value: ==, hash, repr and truncate do not read it.
    """

    __slots__ = ("order", "coeffs", "_all_int", "_powers")

    def __init__(self, coeffs: Sequence[Coeff], order: int | None = None):
        if any(isinstance(c, float) for c in coeffs):
            raise TypeError("coefficients must be exact (int, Fraction, or string)")
        coeffs = [_decimal(c, "coefficient") if isinstance(c, str) else _norm(c) for c in coeffs]
        if order is None:
            order = len(coeffs) - 1
        if order < 0:
            raise ValueError("series order must be >= 0")
        if len(coeffs) < order + 1:
            coeffs = coeffs + [0] * (order + 1 - len(coeffs))
        coeffs = tuple(coeffs[: order + 1])
        object.__setattr__(self, "order", order)
        object.__setattr__(self, "coeffs", coeffs)
        object.__setattr__(self, "_all_int", all(type(c) is int for c in coeffs))

    @classmethod
    def _unsafe(cls, coeffs: Tuple[Coeff, ...], order: int,
                all_int: bool) -> "TruncatedSeries":
        # internal fast path: caller guarantees normalized coeffs of full length
        obj = object.__new__(cls)
        object.__setattr__(obj, "order", order)
        object.__setattr__(obj, "coeffs", coeffs)
        object.__setattr__(obj, "_all_int", all_int)
        return obj

    def __setattr__(self, name, value):  # pragma: no cover - immutability guard
        raise AttributeError("TruncatedSeries is immutable")

    # -- constructors ------------------------------------------------

    @classmethod
    def zero(cls, order: int) -> "TruncatedSeries":
        return cls([0], order)

    @classmethod
    def one(cls, order: int) -> "TruncatedSeries":
        return cls([1], order)

    @classmethod
    def constant(cls, c: Coeff, order: int) -> "TruncatedSeries":
        return cls([c], order)

    # -- basic queries -----------------------------------------------

    def coeff(self, j: int) -> Coeff:
        if not 0 <= j <= self.order:
            raise IndexError(f"coefficient {j} outside stored range 0..{self.order}")
        return self.coeffs[j]

    def is_integral(self) -> bool:
        return self._all_int

    def truncate(self, order: int) -> "TruncatedSeries":
        if order < 0:
            raise ValueError("series order must be >= 0")
        if order > self.order:
            raise ValueError(
                f"cannot extend truncation {self.order} to {order}: "
                "higher coefficients are unknown"
            )
        if order == self.order:
            return self
        coeffs = self.coeffs[: order + 1]
        all_int = self._all_int or all(type(c) is int for c in coeffs)
        return TruncatedSeries._unsafe(coeffs, order, all_int)

    def __eq__(self, other) -> bool:
        if not isinstance(other, TruncatedSeries):
            return NotImplemented
        return self.order == other.order and all(
            a == b for a, b in zip(self.coeffs, other.coeffs)
        )

    def __hash__(self):
        return hash((self.order, self.coeffs))

    def __repr__(self) -> str:
        terms = [f"{c}*z^{j}" for j, c in enumerate(self.coeffs) if c != 0]
        body = " + ".join(terms) if terms else "0"
        return f"<series {body} + O(z^{self.order + 1})>"

    # -- ring operations ---------------------------------------------

    def _common_order(self, other: "TruncatedSeries") -> int:
        return min(self.order, other.order)

    @staticmethod
    def _finish(out: list, order: int, fast: bool) -> "TruncatedSeries":
        if fast:
            return TruncatedSeries._unsafe(tuple(out), order, True)
        out = tuple(_norm(c) for c in out)
        return TruncatedSeries._unsafe(out, order, all(type(c) is int for c in out))

    def __add__(self, other):
        if isinstance(other, (int, Fraction)):
            other = TruncatedSeries.constant(other, self.order)
        if not isinstance(other, TruncatedSeries):
            return NotImplemented
        n = self._common_order(other)
        out = [a + b for a, b in zip(self.coeffs[: n + 1], other.coeffs[: n + 1])]
        return self._finish(out, n, self._all_int and other._all_int)

    __radd__ = __add__

    def __neg__(self):
        return TruncatedSeries._unsafe(
            tuple(-c for c in self.coeffs), self.order, self._all_int
        )

    def __sub__(self, other):
        if isinstance(other, (int, Fraction)):
            other = TruncatedSeries.constant(other, self.order)
        if not isinstance(other, TruncatedSeries):
            return NotImplemented
        return self + (-other)

    def __rsub__(self, other):
        return (-self) + other

    def __mul__(self, other):
        if isinstance(other, (int, Fraction)):
            out = [c * other for c in self.coeffs]
            return self._finish(out, self.order,
                                self._all_int and isinstance(other, int))
        if not isinstance(other, TruncatedSeries):
            return NotImplemented
        n = self._common_order(other)
        return self._finish(_mul_coeffs(self.coeffs, other.coeffs, n), n,
                            self._all_int and other._all_int)

    __rmul__ = __mul__

    def _power(self, k: int, m: int) -> Sequence[Coeff]:
        """The coefficients of self^k at least up to z^m (k >= 1, m <= order),
        from the series' power memo; the Witt kernel's term(k, m).

        Each power is stored at the highest order asked for so far and a
        lower order is served by it, as a prefix; a higher one continues
        Miller's recurrence (_power_coeffs) after the stored coefficients.
        The stored list itself is returned: callers read it, never change it.
        """
        memo = getattr(self, "_powers", None)
        if memo is None:
            memo = {1: self.coeffs}
            object.__setattr__(self, "_powers", memo)
        got = memo.get(k, ())
        if len(got) <= m:
            got = memo[k] = _power_coeffs(self.coeffs, k, m, self._all_int, got)
        return got

    def __pow__(self, k: int):
        """self^k at self's order, from the series' power memo (_power)."""
        if not isinstance(k, int):
            return NotImplemented
        if k < 0:
            raise ValueError("negative powers are not defined; use recip()")
        if k == 0:
            return TruncatedSeries.one(self.order)
        if k == 1:
            return self
        return self._finish(self._power(k, self.order), self.order, self._all_int)

    def inflate(self, d: int) -> "TruncatedSeries":
        """Substitute z -> z^d; truncation order is preserved."""
        if d < 1:
            raise ValueError(f"inflate requires d >= 1, got {d}")
        if d == 1:
            return self
        out = [0] * (self.order + 1)
        for j, c in enumerate(self.coeffs):
            if j * d > self.order:
                break
            out[j * d] = c
        return self._finish(out, self.order, self._all_int)

    def recip(self) -> "TruncatedSeries":
        """Multiplicative inverse at the same truncation (a(0) != 0)."""
        a0 = self.coeffs[0]
        if a0 == 0:
            raise ValueError("series with zero constant term has no reciprocal")
        inv0 = _norm(Fraction(1, 1) / a0)
        out: list[Coeff] = [inv0]
        for n in range(1, self.order + 1):
            acc = sum(self.coeffs[i] * out[n - i] for i in range(1, n + 1))
            out.append(_norm(-acc * inv0))
        return TruncatedSeries(out, self.order)

    def divexact(self, r: int) -> "TruncatedSeries":
        """Divide every coefficient by r; ints must divide exactly."""
        if r == 0:
            raise ZeroDivisionError("divexact by zero")
        out = []
        for j, c in enumerate(self.coeffs):
            if isinstance(c, int):
                q, rem = divmod(c, r)
                if rem:
                    raise IntegralityError(
                        f"coefficient of z^{j} ({c}) is not divisible by {r}"
                    )
                out.append(q)
            else:
                out.append(_norm(c / r))
        return self._finish(out, self.order, self._all_int)

    # -- serialization -----------------------------------------------

    def to_json_dict(self) -> dict:
        return {"order": self.order, "coeffs": [coeff_str(c) for c in self.coeffs]}

    @classmethod
    def from_json_dict(cls, obj: dict) -> "TruncatedSeries":
        """Strict reader: `coeffs` is an array of integers or exact rational
        strings, `order` an integer; anything else raises ValueError."""
        coeffs = [_decimal(c, "coefficient") for c in _json_array(obj, "coeffs")]
        return cls(coeffs, _json_int(_json_field(obj, "order"), "order"))


@record
class RationalFunction:
    """Quotient of integer polynomials, ascending coefficients, den[0] != 0."""

    num: Tuple[int, ...]
    den: Tuple[int, ...]

    def __init__(self, num: Sequence[int], den: Sequence[int]):
        num = tuple(_exact_int(c, "coefficient") for c in num)
        den = tuple(_exact_int(c, "coefficient") for c in den)
        if not den or den[0] == 0:
            raise ValueError("denominator must have a nonzero constant term")
        object.__setattr__(self, "num", num)
        object.__setattr__(self, "den", den)

    def expand(self, order: int) -> TruncatedSeries:
        """Taylor expansion at 0 to the given truncation order."""
        num = TruncatedSeries(list(self.num) or [0], order)
        den = TruncatedSeries(list(self.den), order)
        return num * den.recip()

    def to_json_dict(self) -> dict:
        return {"num": list(self.num), "den": list(self.den)}

    @classmethod
    def from_json_dict(cls, obj: dict) -> "RationalFunction":
        """Strict reader: `num` and `den` are arrays of integers."""
        num, den = (
            [_json_int(c, f"{key} coefficient") for c in _json_array(obj, key)]
            for key in ("num", "den")
        )
        return cls(num, den)

