"""Command-line interface.

One subcommand per operation family.  Each reads JSON-ish arguments and
returns one JSON object, which `main` prints to stdout; diagnostics go
to stderr, and big numbers are serialized as strings.  Exit codes: 1 when
the printed object says "passed": false (a check did not hold) or is
{"error": ...} (a mathematical failure or an exceeded budget), 2 for a
usage error (nothing on stdout), 0 otherwise.
"""

from __future__ import annotations

import argparse
import json
import sys
from typing import List, Optional

from . import suites
from .analytic import (
    EulerProductSpec,
    _check_prime_limit,
    b_chi,
    b_chi_direct,
    check_convergence_hypotheses,
    euler_product,
    euler_product_direct,
    hurwitz_zeta,
    l_series,
    partial_zeta,
    zeta,
)
from .characters import RealDirichletCharacter
from .errors import (
    BudgetExceededError,
    DivergenceError,
    IntegralityError,
    PreconditionError,
)
from .expansion import BiSeries, cyclotomic_check, peel_1d, peel_2d
from .necklace import necklace_count, necklace_poly, v_count
from .series import Coeff, RationalFunction, TruncatedSeries, _decimal, _long_int, coeff_str
from .witt import monotonicity_scan, verify_identity, witt_table, witt_transform
from .words import DEFAULT_BUDGET, aperiodic_count, lyndon_words


def _emit(obj: dict) -> None:
    json.dump(obj, sys.stdout, sort_keys=True)
    sys.stdout.write("\n")


def _series(arg: str) -> TruncatedSeries:
    return TruncatedSeries.from_json_dict(json.loads(arg, parse_int=_long_int))


def _ratfun(arg: str) -> RationalFunction:
    return RationalFunction.from_json_dict(json.loads(arg, parse_int=_long_int))


def _biseries(arg: str) -> BiSeries:
    return BiSeries.from_json_dict(json.loads(arg, parse_int=_long_int))


def _int(arg: str) -> int:
    return _decimal(arg, "integer", integer=True)


def _rational(arg: str) -> Coeff:
    return _decimal(arg, "rational")


def _content(arg: str) -> List[int]:
    return [_decimal(p, "list item", integer=True) for p in arg.split(",")]


def _character(args) -> RealDirichletCharacter:
    if args.kronecker is not None and args.table is not None:
        raise ValueError(f"{args.command} takes --kronecker or --table, not both")
    if args.kronecker is not None:
        return RealDirichletCharacter.from_kronecker(args.kronecker)
    if args.table:
        return RealDirichletCharacter.from_values(args.table)
    return RealDirichletCharacter.trivial()


def _build_parser() -> argparse.ArgumentParser:
    top = argparse.ArgumentParser(
        prog="wittkit",
        description="necklace counts, Witt transforms, product expansions, "
        "and Euler-product constants over exact arithmetic",
    )
    sub = top.add_subparsers(dest="command", required=True)

    p = sub.add_parser("necklace", help="necklace counts")
    p.add_argument("--alpha", type=_int)
    p.add_argument("--n", type=_int)
    p.add_argument("--content", type=_content)
    p.add_argument("--vk", type=_int, help="sign-twisted count with this prefix length")

    p = sub.add_parser("words", help="Lyndon words by content")
    p.add_argument("--content", type=_content, required=True)
    p.add_argument("--list", action="store_true")
    p.add_argument("--budget", type=_int, default=DEFAULT_BUDGET)

    p = sub.add_parser("witt", help="Witt transform of a series")
    p.add_argument("--f", type=_series, required=True)
    p.add_argument("--r", type=_int, required=True)

    p = sub.add_parser("witt-table", help="coefficient table m(j, r)")
    p.add_argument("--f", type=_series, required=True)
    p.add_argument("--R", type=_int, required=True)
    p.add_argument("--J", type=_int)

    p = sub.add_parser("verify", help="check one transform identity")
    p.add_argument("--id", required=True)
    p.add_argument("--f", type=_series)
    p.add_argument("--g", type=_series)
    for name in ("r", "k", "v", "w", "alpha", "beta", "n"):
        p.add_argument(f"--{name}", type=_int)

    p = sub.add_parser("scan", help="monotonicity window scan")
    p.add_argument("--family", required=True)
    p.add_argument("--f", type=_series)
    p.add_argument("--kmax", type=_int, default=8)
    p.add_argument("--rmax", type=_int, default=12)
    p.add_argument("--cmax", type=_int, default=6)

    p = sub.add_parser("expand", help="1-variable product exponents")
    p.add_argument("--f", type=_series, required=True)
    p.add_argument("--N", type=_int)

    p = sub.add_parser("expand2d", help="2-variable product exponents")
    p.add_argument("--F", type=_biseries, required=True)
    p.add_argument("--J", type=_int)
    p.add_argument("--K", type=_int)

    p = sub.add_parser("cyclotomic", help="two-variable product identity check")
    p.add_argument("--f", type=_series, required=True)
    p.add_argument("--J", type=_int, required=True)
    p.add_argument("--K", type=_int, required=True)

    p = sub.add_parser("zeta", help="Riemann/Hurwitz zeta")
    p.add_argument("--s", type=_int, required=True)
    p.add_argument("--a", type=_rational, help="rational in (0,1], e.g. 1/4")
    p.add_argument("--digits", type=_int, default=15)
    p.add_argument("--m", type=_int, help="partial zeta: remove first m Euler factors")

    p = sub.add_parser("lseries", help="real Dirichlet L-series")
    p.add_argument("--s", type=_int, required=True)
    p.add_argument("--kronecker", type=_int)
    p.add_argument("--table", type=_content, help="comma-separated values chi(0..q-1)")
    p.add_argument("--digits", type=_int, default=15)

    p = sub.add_parser("constant", help="Euler-product constant from a rational h")
    p.add_argument("--h", type=_ratfun, required=True)
    p.add_argument("--m", type=_int, default=0)
    p.add_argument("--digits", type=_int, default=12)
    p.add_argument("--direct-limit", type=_int,
                   help="also evaluate the defining product over p <= limit")

    p = sub.add_parser("bchi", help="order-constant family via L-series")
    p.add_argument("--kronecker", type=_int)
    p.add_argument("--table", type=_content)
    p.add_argument("--digits", type=_int, default=8)
    p.add_argument("--cross-check", action="store_true")
    p.add_argument("--prime-limit", type=_int,
                   help="primes of --cross-check's direct product (default 10^6)")

    p = sub.add_parser("convergence", help="report product-to-L-series hypotheses")
    p.add_argument("--f", type=_series)
    p.add_argument("--ratfun", type=_ratfun)

    p = sub.add_parser("verify-all", help="run a verification scope")
    p.add_argument("--scope", required=True, choices=suites.SCOPES)
    p.add_argument("--budget", type=_int, default=0)
    return top


def _run(args) -> dict:
    cmd = args.command
    if cmd == "necklace":
        if args.content is not None and (args.alpha is not None or args.n is not None):
            raise ValueError("necklace takes --content or --alpha with --n, not both")
        if args.vk is not None and args.content is None:
            raise ValueError("necklace --vk needs --content")
        if args.content:
            value = (necklace_count(args.content) if args.vk is None
                     else v_count(args.content, args.vk))
        elif args.alpha is not None and args.n is not None:
            value = necklace_poly(args.alpha, args.n)
        else:
            raise ValueError("necklace needs --content, or --alpha with --n")
        return {"value": coeff_str(value)}
    if cmd == "words":
        if args.list:
            ws = lyndon_words(args.content, budget=args.budget)
            return {"count": coeff_str(len(ws)),
                    "words": ["".join(map(str, w)) for w in ws]}
        return {"count": coeff_str(aperiodic_count(args.content, budget=args.budget))}
    if cmd == "witt":
        return {"value": witt_transform(args.f, args.r).to_json_dict()}
    if cmd == "witt-table":
        return witt_table(args.f, args.R, args.J).to_json_dict()
    if cmd == "verify":
        return verify_identity(
            args.id, args.f, args.g, r=args.r, k=args.k, v=args.v, w=args.w,
            alpha=args.alpha, beta=args.beta, n=args.n,
        ).to_json_dict()
    if cmd == "scan":
        return monotonicity_scan(args.f, args.family, kmax=args.kmax,
                                 rmax=args.rmax, cmax=args.cmax).to_json_dict()
    if cmd == "expand":
        f = args.f if args.N is None else args.f.truncate(args.N)
        return peel_1d(f).to_json_dict()
    if cmd == "expand2d":
        grid = args.F
        if args.J is not None or args.K is not None:
            grid = grid.truncate(grid.deg_z if args.J is None else args.J,
                                 grid.deg_y if args.K is None else args.K)
        return peel_2d(grid).to_json_dict()
    if cmd == "cyclotomic":
        return cyclotomic_check(args.f, args.J, args.K).to_json_dict()
    if cmd == "zeta":
        if args.m is not None and args.a is not None:
            raise ValueError("zeta takes --m or --a, not both")
        if args.m is not None:
            value = partial_zeta(args.m, args.s, args.digits)
        elif args.a is not None:
            value = hurwitz_zeta(args.s, args.a, args.digits)
        else:
            value = zeta(args.s, args.digits)
        return {"value": str(value), "digits": args.digits,
                "abs_error_bound": f"1e-{args.digits}"}
    if cmd == "lseries":
        chi = _character(args)
        return {"value": str(l_series(args.s, chi, args.digits)),
                "digits": args.digits, "modulus": chi.modulus,
                "abs_error_bound": f"1e-{args.digits}"}
    if cmd == "constant":
        spec = EulerProductSpec(args.h, args.m, args.digits)
        if args.direct_limit is not None:
            _check_prime_limit("--direct-limit", args.direct_limit, spec.m)
        out = euler_product(spec).to_json_dict()
        if args.direct_limit is not None:
            out["direct"] = euler_product_direct(spec, args.direct_limit).to_json_dict()
        return out
    if cmd == "bchi":
        if args.prime_limit is not None and not args.cross_check:
            raise ValueError("bchi --prime-limit needs --cross-check")
        limit = 10**6 if args.prime_limit is None else args.prime_limit
        _check_prime_limit("--prime-limit", limit, 0)
        chi = _character(args)
        result = b_chi(chi, args.digits)
        out = result.to_json_dict()
        if args.cross_check:
            direct = b_chi_direct(chi, args.digits, limit)
            text = direct.to_json_dict()
            out.update(direct_value=text["value"], direct_tail_estimate=text["tail_estimate"],
                       direct_removed_primes=text["removed_primes"],
                       difference=f"{abs(float(result.value - direct.value)):.3e}")
        return out
    if cmd == "convergence":
        if args.ratfun is not None and args.f is not None:
            raise ValueError("convergence takes --f or --ratfun, not both")
        target = args.ratfun if args.ratfun is not None else args.f
        if target is None:
            raise ValueError("convergence needs --f or --ratfun")
        return check_convergence_hypotheses(target).to_json_dict()
    results = suites.verify_all(args.scope, args.budget)  # verify-all
    return {"scope": args.scope,
            "passed": all(r.passed for r in results),
            "suites": [r.to_json_dict() for r in results]}


def main(argv: Optional[List[str]] = None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:  # argparse uses 2 for usage errors already
        return int(exc.code or 0)
    try:
        out = _run(args)
    except (IntegralityError, DivergenceError, PreconditionError,
            BudgetExceededError) as exc:
        kind = ("budget exceeded" if isinstance(exc, BudgetExceededError)
                else "mathematical failure")
        print(f"{kind}: {exc}", file=sys.stderr)
        _emit({"error": str(exc)})
        return 1
    except (ValueError, KeyError, json.JSONDecodeError) as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        return 2
    _emit(out)
    return 1 if out.get("passed") is False else 0


def entry() -> None:  # console-script hook
    raise SystemExit(main())


if __name__ == "__main__":
    raise SystemExit(main())
