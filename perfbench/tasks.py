"""Run one task through wittkit's public API and reduce its result to the
mathematical payload that the parent checks.

Every call goes through an attribute of the `wittkit` package or of one of
its modules at call time, so wrappers installed by spans.install are used.
"""

from __future__ import annotations

import hashlib
import importlib
import io
from contextlib import redirect_stdout
from fractions import Fraction

import wittkit


def _ratfun(h: dict):
    return wittkit.RationalFunction(h["num"], h["den"])


def _chi(d: int):
    return wittkit.RealDirichletCharacter.from_kronecker(d)


def digest_rows(rows) -> str:
    """sha256 over the integer coefficients in hex (not limited by the
    4300-digit decimal conversion limit)."""
    h = hashlib.sha256()
    for row in rows:
        h.update(",".join(format(c, "x") for c in row).encode())
        h.update(b";")
    return h.hexdigest()


def run(task: dict):
    kind = task["kind"]
    if kind == "euler_product":
        spec = wittkit.EulerProductSpec(_ratfun(task["h"]), task["m"], task["digits"])
        return wittkit.euler_product(spec)
    if kind == "b_chi":
        return wittkit.b_chi(_chi(task["d"]), task["digits"])
    if kind == "zeta":
        return wittkit.zeta(task["s"], task["digits"])
    if kind == "l_series":
        return wittkit.l_series(task["s"], _chi(task["d"]), task["digits"])
    if kind == "hurwitz_zeta":
        return wittkit.hurwitz_zeta(task["s"], Fraction(task["a"]), task["digits"])
    if kind == "witt_table":
        return wittkit.witt_table(_ratfun(task["h"]).expand(task["N"]), task["R"])
    if kind == "peel_1d":
        return wittkit.peel_1d(_ratfun(task["h"]).expand(task["N"]))
    if kind == "cyclotomic_check":
        f = wittkit.TruncatedSeries(task["f"], task["J"])
        return wittkit.cyclotomic_check(f, task["J"], task["K"])
    if kind == "peel_2d":
        f = wittkit.TruncatedSeries(task["f"], task["J"])
        return wittkit.peel_2d(wittkit.BiSeries.one_minus_y_times(f, task["J"], task["K"]))
    if kind == "battery":
        suites = importlib.import_module("wittkit.suites")
        return getattr(suites, task["fn"])(**task["kwargs"])
    if kind == "cli":
        cli = importlib.import_module("wittkit.cli")
        out = io.StringIO()
        with redirect_stdout(out):
            code = cli.main(list(task["argv"]))
        return code, out.getvalue()
    raise ValueError(f"unknown task kind {kind!r}")


def payload(task: dict, result) -> dict:
    kind = task["kind"]
    if kind in ("euler_product", "b_chi"):
        return {"value": str(result.value)}
    if kind in ("zeta", "l_series", "hurwitz_zeta"):
        return {"value": str(result)}
    if kind == "witt_table":
        return {"order": result.order, "degree": result.degree,
                "digest": digest_rows(row.coeffs for row in result.rows)}
    if kind == "peel_1d":
        return {"order": result.order, "digest": digest_rows([result.exponents])}
    if kind == "cyclotomic_check":
        return {"passed": result.passed, "first_mismatch": result.first_mismatch,
                "digest": digest_rows(result.rhs.grid)}
    if kind == "peel_2d":
        return {"digest": digest_rows([(j, k, e) for (j, k), e in result.exponents])}
    if kind == "battery":
        return {"checks": result.checks, "failures": len(result.failures),
                "first": result.failures[:1]}
    if kind == "cli":
        import workloads

        return workloads.cli_payload(*result)
    raise ValueError(f"unknown task kind {kind!r}")
