"""Regenerate perfbench/refs.json, the references that the benchmark checks
payloads against.

    PYTHONPATH=src python3 perfbench/make_refs.py

Takes a few minutes.  Each reference is computed by wittkit and confirmed by
a second route, and the provenance is stored next to it:

* Euler-product constants (task precision D): wittkit at D+20 digits,
  confirmed against wittkit at D+30, and against an mpmath evaluation that
  shares no code with wittkit (prime zeta functions for the primes above
  1000, direct factors below).
* b_chi: wittkit stops at about 16 digits (its table safety limit), so the
  reference comes from the same kind of mpmath evaluation at D+20 and D+30
  digits, with prime sums twisted by the character taken from log L-values;
  it is confirmed against wittkit at 16 digits.
* Exact tables and exponents: sha256 digests of wittkit's output, each
  equal to the digest of a closed form or of a second wittkit route.
* Battery check counts: equal for two different seed0 values.
* CLI payloads: the output of `python -m wittkit.cli` with the record fields
  removed; the necklace probe's value comes from its Moebius sum.
"""

from __future__ import annotations

import json
import math
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import mpmath

BENCH = Path(__file__).resolve().parent
sys.path.insert(0, str(BENCH))

import tasks  # noqa: E402
import workloads  # noqa: E402
import wittkit  # noqa: E402

P0 = 1000


def _primes(limit):
    sieve = bytearray([1]) * (limit + 1)
    sieve[0:2] = b"\0\0"
    for i in range(2, math.isqrt(limit) + 1):
        if sieve[i]:
            sieve[i * i::i] = bytearray(len(range(i * i, limit + 1, i)))
    return [i for i in range(limit + 1) if sieve[i]]


def _mobius(n):
    out, p = 1, 2
    while p * p <= n:
        if n % p == 0:
            n //= p
            if n % p == 0:
                return 0
            out = -out
        p += 1
    return -out if n > 1 else out


def _log_coeffs(poly, n_max):
    """c_1..c_n_max with log(poly(x)) = sum c_n x^n, poly[0] == 1."""
    deriv = [i * poly[i] for i in range(1, len(poly))]
    s = []  # s = poly' / poly
    for n in range(n_max):
        acc = deriv[n] if n < len(deriv) else 0
        for i in range(1, min(n, len(poly) - 1) + 1):
            acc -= poly[i] * s[n - i]
        s.append(acc)
    return [Fraction(s[n - 1], n) for n in range(1, n_max + 1)]


def _log_h_coeffs(h, n_max):
    num = _log_coeffs(h["num"], n_max)
    den = _log_coeffs(h["den"], n_max)
    return [a - b for a, b in zip(num, den)]


def _h_at(h, p):
    x = mpmath.mpf(1) / p
    return (mpmath.polyval(h["num"][::-1], x) / mpmath.polyval(h["den"][::-1], x))


def _terms_needed(digits, growth):
    return int((digits + 10) / math.log10(P0 / growth)) + 2


def euler_mpmath(h, m, digits, growth=2.0):
    """prod over primes p > p_m of h(1/p), to `digits` digits, with mpmath."""
    n_max = _terms_needed(digits, growth)
    coeffs = _log_h_coeffs(h, n_max)
    small = _primes(P0)
    with mpmath.workdps(digits + 30):
        total = sum(mpmath.log(_h_at(h, p)) for p in small[m:])
        for n in range(2, n_max + 1):
            a = coeffs[n - 1]
            if a:
                tail = mpmath.primezeta(n) - sum(mpmath.mpf(p) ** -n for p in small)
                total += mpmath.mpf(a.numerator) / a.denominator * tail
        return mpmath.exp(total)


def _twisted_prime_zeta(n, chi, q, dps):
    """sum over primes of chi(p) p^-n, from log L(kn, chi^k)."""
    total = mpmath.mpf(0)
    k = 1
    ramified = [p for p in _primes(q) if q % p == 0]
    while k * n * math.log10(2) < dps + 5:
        mu = _mobius(k)
        if mu:
            if k % 2:
                log_l = mpmath.log(mpmath.dirichlet(k * n, chi))
            else:
                log_l = mpmath.log(mpmath.zeta(k * n)) + sum(
                    mpmath.log(1 - mpmath.mpf(p) ** -(k * n)) for p in ramified)
            total += mu * log_l / k
        k += 1
    return total


def b_chi_mpmath(d, digits):
    """prod_p (1 + (chi(p)-1) p / ((p^2 - chi(p)) (p-1))) with mpmath.

    The factor is 1 where chi(p) = 1, the Artin factor where chi(p) = 0 and
    h(1/p) with h = (1-x-x^2-x^3)/(1-x+x^2-x^3) where chi(p) = -1.
    """
    chi = workloads.CHARACTERS[d]
    q = len(chi)
    h = {"num": [1, -1, -1, -1], "den": [1, -1, 1, -1]}
    n_max = _terms_needed(digits, 2.0)
    coeffs = _log_h_coeffs(h, n_max)
    small = _primes(P0)
    dps = digits + 30
    with mpmath.workdps(dps):
        total = mpmath.mpf(0)
        for p in small:
            c = chi[p % q]
            if c != 1:
                total += mpmath.log(1 + mpmath.mpf((c - 1) * p) / ((p * p - c) * (p - 1)))
        for n in range(2, n_max + 1):
            a = coeffs[n - 1]
            if not a:
                continue
            plain = mpmath.primezeta(n) - sum(mpmath.mpf(p) ** -n for p in small)
            twisted = _twisted_prime_zeta(n, chi, q, dps) - sum(
                chi[p % q] * mpmath.mpf(p) ** -n for p in small)
            total += mpmath.mpf(a.numerator) / a.denominator * (plain - twisted) / 2
        return mpmath.exp(total)


def _agree(a: str, b: str, digits: int) -> bool:
    with mpmath.workdps(digits + 40):
        return abs(mpmath.mpf(a) - mpmath.mpf(b)) <= mpmath.mpf(10) ** -digits


def _mp_str(x, digits):
    with mpmath.workdps(digits + 10):
        return mpmath.nstr(x, digits + 2, strip_zeros=False)


def value_refs() -> dict:
    out = {}
    for name, h, m, digits in [
        ("artin_m0", workloads.ARTIN, 0, 60),
        ("twin_m1", workloads.TWIN, 1, 60),
        ("artin_m6", workloads.ARTIN, 6, 200),
    ]:
        ratfun = wittkit.RationalFunction(h["num"], h["den"])
        hi = wittkit.euler_product(wittkit.EulerProductSpec(ratfun, m, digits + 20))
        higher = wittkit.euler_product(wittkit.EulerProductSpec(ratfun, m, digits + 30))
        if not _agree(str(hi.value), str(higher.value), digits + 20):
            raise SystemExit(f"{name}: D+20 and D+30 disagree")
        independent = _mp_str(euler_mpmath(h, m, digits + 20), digits + 20)
        if not _agree(str(hi.value), independent, digits + 20):
            raise SystemExit(f"{name}: wittkit and mpmath disagree")
        out[name] = {
            "value": str(hi.value),
            "accurate_to": digits + 20,
            "provenance": f"wittkit euler_product at {digits + 20} digits; agrees "
                          f"with wittkit at {digits + 30} digits and with an mpmath "
                          f"prime-zeta evaluation to {digits + 20} digits",
        }
        print(name, "ok", flush=True)
    for d in (-4,):
        digits = 12
        ref = _mp_str(b_chi_mpmath(d, digits + 20), digits + 20)
        higher = _mp_str(b_chi_mpmath(d, digits + 30), digits + 30)
        if not _agree(ref, higher, digits + 20):
            raise SystemExit(f"b_chi({d}): mpmath D+20 and D+30 disagree")
        lib = wittkit.b_chi(wittkit.RealDirichletCharacter.from_kronecker(d), 16)
        if not _agree(ref, str(lib.value), 16):
            raise SystemExit(f"b_chi({d}): wittkit at 16 digits disagrees")
        out[f"b_chi_{d}"] = {
            "value": ref,
            "accurate_to": digits + 20,
            "provenance": f"mpmath prime-zeta evaluation at {digits + 20} digits; "
                          f"agrees with the same at {digits + 30} digits and with "
                          "wittkit b_chi at 16 digits (its practical limit)",
        }
        print(f"b_chi_{d}", "ok", flush=True)
    return out


def _witt_closed_form(j: int, r: int) -> int:
    """m(j, r) of f = z + z^2: (1/r) sum_{d | gcd(r, j-r)} mu(d) C(r/d, (j-r)/d)."""
    if j < r or j > 2 * r:
        return 0
    acc = sum(_mobius(d) * math.comb(r // d, (j - r) // d)
              for d in range(1, r + 1) if r % d == 0 and (j - r) % d == 0)
    assert acc % r == 0
    return acc // r


def exact_refs() -> dict:
    out = {}
    for task in [t for seed in range(200) for t in workloads.build("tables", seed)]:
        if task["ref"] in out:
            continue
        got = tasks.payload(task, tasks.run(task))
        kind = task["kind"]
        if kind == "witt_table":
            f = wittkit.RationalFunction(**task["h"]).expand(task["N"])
            rows = [wittkit.witt_transform(f, r).coeffs for r in range(1, task["R"] + 1)]
            second = tasks.digest_rows(rows)
        elif kind == "peel_1d":
            # z f'/f has coefficients c_n = 2^n - (-a)^n; n e_n = sum mu(n/d) c_d
            a = task["h"]["num"][1]
            exps = []
            for n in range(1, task["N"] + 1):
                s = sum(_mobius(n // d) * (2**d - (-a) ** d)
                        for d in range(1, n + 1) if n % d == 0)
                assert s % n == 0
                exps.append(s // n)
            second = tasks.digest_rows([exps])
        elif kind == "cyclotomic_check":
            # 1/(1 - y(1+z)) has coefficient C(k, j) at z^j y^k
            rows = [[math.comb(k, j) for j in range(task["J"] + 1)]
                    for k in range(task["K"] + 1)]
            second = tasks.digest_rows(rows)
            assert got["passed"] and got["first_mismatch"] is None
        else:
            cells = [(j, k, _witt_closed_form(j, k))
                     for j in range(task["J"] + 1) for k in range(1, task["K"] + 1)]
            second = tasks.digest_rows(sorted(c for c in cells if c[2]))
        if got["digest"] != second:
            raise SystemExit(f"{task['ref']}: the two routes disagree")
        out[task["ref"]] = got
        print(task["ref"], "ok", flush=True)
    return out


def battery_refs() -> dict:
    out = {}
    for first, second in zip(workloads.build("batteries", 1), workloads.build("batteries", 2)):
        a = tasks.payload(first, tasks.run(first))
        b = tasks.payload(second, tasks.run(second))
        if a["failures"] or b["failures"] or a["checks"] != b["checks"]:
            raise SystemExit(f"{first['fn']}: check counts depend on seed0 or fail")
        out[first["fn"]] = a["checks"]
    return out


def cli_refs(root: Path) -> dict:
    out = {}
    env = {"PYTHONPATH": str(root / "src"), "PATH": "/usr/bin:/bin"}
    for spec in workloads.CLI:
        if "value" in spec:
            continue
        if "known_defect" in spec:
            sys.set_int_max_str_digits(0)
            n = int(spec["argv"][-1])
            alpha = int(spec["argv"][-3])
            acc = sum(_mobius(n // d) * alpha**d for d in range(1, n + 1) if n % d == 0)
            out[spec["name"]] = {"value_sha256": workloads.digest(str(acc // n))}
            continue
        proc = subprocess.run([sys.executable, "-m", "wittkit.cli", *spec["argv"]],
                              cwd=root, env=env, capture_output=True, text=True)
        if proc.returncode != 0:
            raise SystemExit(f"cli {spec['name']} exited {proc.returncode}")
        out[spec["name"]] = workloads.cli_payload(0, proc.stdout)["out"]
    return out


def main() -> None:
    root = BENCH.parent
    refs = {
        "about": __doc__.strip().splitlines()[0],
        "values": value_refs(),
        "exact": exact_refs(),
        "battery_checks": battery_refs(),
        "cli": cli_refs(root),
    }
    (BENCH / "refs.json").write_text(json.dumps(refs, indent=1, sort_keys=True) + "\n")


if __name__ == "__main__":
    main()
