"""One case list of printed values and the sha256 digest of each.

Every case is a call of a public function, written as plain data; its text
is the printed value, or "TypeName: message" for a call that refuses.  Two
groups share the list: ANALYTIC_CASES (zeta, L, Hurwitz, Euler products and
b_chi values) and VERIFY_CASES (the JSON of verify_identity reports for all
eight identities, and the coefficients of witt_transform, c_transform and
series powers, over a seeded list of integer, Fraction and f(0) = 0 series,
order-too-small refusals included).  value_digests.json, next to this file,
holds the digest of each case's text, and test_value_digests.py names every
case whose text no longer matches.  A change that is meant to move a
printed value re-pins the file and says why.

Run as a script, this recomputes every case, rewrites value_digests.json and
prints the cases whose digest changed, appeared or disappeared:

    PYTHONPATH=src python tests/value_digests.py
"""

from __future__ import annotations

import hashlib
import json
import random
from pathlib import Path
from typing import Dict, Optional

from wittkit import analytic
from wittkit.characters import RealDirichletCharacter
from wittkit.series import RationalFunction, TruncatedSeries
from wittkit.witt import c_transform, verify_identity, witt_transform

DIGESTS = Path(__file__).with_name("value_digests.json")

_H = {"artin": ([1, -1, -1], [1, -1]), "twin": ([1, -2], [1, -2, 1])}


def _chi(key) -> RealDirichletCharacter:
    """A Kronecker discriminant, or a tuple of character values."""
    if isinstance(key, tuple):
        return RealDirichletCharacter.from_values(key)
    return RealDirichletCharacter.from_kronecker(key)


def _euler_product(h: str, m: int, digits: int):
    spec = analytic.EulerProductSpec(RationalFunction(*_H[h]), m, digits)
    return analytic.euler_product(spec).value


def _series(spec) -> Optional[TruncatedSeries]:
    """(coefficients, order), each coefficient an int or "p/q" text; None stays None."""
    return None if spec is None else TruncatedSeries(list(spec[0]), spec[1])


def _json(value) -> str:
    return json.dumps(value.to_json_dict())


_CALLS = {
    "zeta": analytic.zeta,
    "partial_zeta": analytic.partial_zeta,
    "l_series": lambda s, chi, digits: analytic.l_series(s, _chi(chi), digits),
    "hurwitz_zeta": analytic.hurwitz_zeta,
    "euler_product": _euler_product,
    "b_chi": lambda chi, digits: analytic.b_chi(_chi(chi), digits).value,
    "verify": lambda ident, f, g, params: _json(
        verify_identity(ident, _series(f), _series(g), **dict(params))),
    "witt_transform": lambda f, r: _json(witt_transform(_series(f), r)),
    "c_transform": lambda f, r: _json(c_transform(_series(f), r)),
    "pow": lambda f, k: _json(_series(f) ** k),
}

# characters: nine Kronecker symbols, the principal character mod 6 and an
# imprimitive one mod 12 (chi_-4 with 3 | a set to 0)
_CHARS = (-3, -4, 5, -7, 8, -8, 12, 13, -20,
          (0, 1, 0, 0, 0, 1), (0, 1, 0, 0, 0, 1, 0, -1, 0, 0, 0, -1))

ANALYTIC_CASES = (
    [("zeta", s, digits) for s in (2, 3, 4, 5, 7, 10, 31, 200, 5000)
     for digits in (10, 50, 300)]
    + [("partial_zeta", m, s, digits) for m in (1, 3, 10, 30) for s in (2, 3, 5)
       for digits in (20, 100, 300)]
    + [("l_series", s, chi, digits) for chi in _CHARS for s in (2, 3, 6)
       for digits in (30, 150, 300)]
    + [("hurwitz_zeta", s, a, digits) for a in ("1/4", "1/3", "2/7", "1", "5/12", "1/100")
       for s in (2, 3, 7) for digits in (25, 150, 300)]
    + [("hurwitz_zeta", 200, "1/3", 50), ("hurwitz_zeta", 500, "2/7", 20)]
    + [("euler_product", h, m, digits) for h, m in (("artin", 0), ("artin", 1), ("artin", 6),
                                                    ("twin", 1), ("twin", 2))
       for digits in (12, 60, 300)]
    + [("b_chi", chi, digits) for chi in _CHARS[:6] + (1,) for digits in (12, 60)]
    + [("b_chi", chi, 300) for chi in (-3, -4, 5, 8)]
    # refusals: each text is the exception's type and message
    + [("zeta", 1, 10), ("zeta", 2, 0), ("zeta", 3, 2001), ("partial_zeta", -1, 2, 10),
       ("l_series", 2, -4, 2001), ("hurwitz_zeta", 1, "1/2", 10),
       ("hurwitz_zeta", 2, "3/2", 10), ("hurwitz_zeta", 2, "0", 10),
       ("hurwitz_zeta", 2, "1/3", 2001), ("euler_product", "twin", 0, 12),
       ("euler_product", "twin", 1, 5000), ("b_chi", 5, 3000), ("b_chi", -4, 0)]
)

SERIES_KINDS = ("int", "fraction", "valuation")


def _series_spec(rng: random.Random, kind: str):
    """Small random coefficients at order 4..16: integers, some of them p/q
    for "fraction", behind one to three zeros for "valuation"."""
    order = rng.randint(4, 16)
    coeffs = [rng.randint(-3, 3) for _ in range(rng.randint(1, order + 1))]
    if kind == "fraction":
        coeffs = [f"{c}/{rng.randint(2, 5)}" if rng.random() < 0.4 else c for c in coeffs]
    elif kind == "valuation":
        coeffs = [0] * rng.randint(1, 3) + coeffs
    return tuple(coeffs), order


def _verify_cases() -> list:
    rng = random.Random(20261020)
    cases = []
    for kind in SERIES_KINDS:
        for _ in range(40):
            f, g = _series_spec(rng, kind), _series_spec(rng, rng.choice(SERIES_KINDS))
            r, k = rng.randint(1, 5), rng.randint(1, 3)
            v, w = rng.randint(1, 4), rng.randint(1, 4)
            cases += [("verify", "T3.1", f, None, (("r", r), ("k", k))),
                      ("verify", "T3.2", f, None, (("r", r),)),
                      ("verify", "T3.3", f, None, (("r", r),)),
                      ("verify", "T3.4", f, g, (("r", r),)),
                      ("verify", "T3.5", f, None, (("r", r), ("k", k))),
                      ("verify", "T3.6", f, g, (("r", r), ("v", v), ("w", w))),
                      ("witt_transform", f, r), ("c_transform", f, r),
                      ("pow", f, rng.randint(0, 40))]
    for _ in range(12):
        alpha, beta = rng.randint(-3, 4), rng.randint(-3, 4)
        cases += [("verify", "T1.1", None, None, (("alpha", alpha), ("beta", beta),
                                                 ("n", rng.randint(1, 8)))),
                  ("verify", "T1.2", None, None, (("beta", beta), ("r", rng.randint(1, 3)),
                                                 ("n", rng.randint(1, 5))))]
    # sparse and constant g, whose transforms vanish for most j
    f = ((2, -1, "1/3", 0, 1), 12)
    for g in (((1,), 12), ((-1,), 12), ((0, 1), 12), ((0, 0, 0, 1), 12)):
        cases += [("verify", "T3.4", f, g, (("r", 4),)),
                  ("verify", "T3.6", f, g, (("r", 3), ("v", 2), ("w", 4)))]
    # powers: the zero series, f(0) = 0 with v k below and above the order, k up to 40
    for f in (((0,), 6), ((0, 0, 1, -2), 9), ((3, "1/2", 0, -1), 8), ((1, 1), 30)):
        cases += [("pow", f, k) for k in (0, 1, 2, 4, 5, 9, 40)]
    return cases


VERIFY_CASES = _verify_cases()
CASES = ANALYTIC_CASES + VERIFY_CASES


def case_id(case) -> str:
    name, *args = case
    return f"{name}({', '.join(map(repr, args))})"


def case_text(case) -> str:
    """The printed value of one case, or its refusal's type and message."""
    name, *args = case
    try:
        return str(_CALLS[name](*args))
    except Exception as error:  # a refusal is a result too
        return f"{type(error).__name__}: {error}"


def digests() -> Dict[str, str]:
    return {case_id(case): hashlib.sha256(case_text(case).encode()).hexdigest()
            for case in CASES}


def main() -> None:
    old = json.loads(DIGESTS.read_text()) if DIGESTS.exists() else {}
    new = digests()
    for key in sorted(old.keys() | new.keys()):
        if old.get(key) != new.get(key):
            state = "new" if key not in old else "gone" if key not in new else "changed"
            print(f"{state}: {key}")
    DIGESTS.write_text(json.dumps(new, indent=1) + "\n")
    print(f"{len(new)} cases written to {DIGESTS.name}")


if __name__ == "__main__":
    main()
