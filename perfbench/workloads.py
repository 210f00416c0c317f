"""The four workloads: their task lists, built from the seed, and the checks
on each task's mathematical payload.

This module never imports wittkit.  The benchmark's parent process uses it to
plan rounds and to check answers against references that were computed
independently of the code under test (see refs.json and make_refs.py), or
against mpmath.

A task is a JSON-able dict.  `kind` selects how it runs (see tasks.py for the
library kinds; `cli` tasks run `python -m wittkit.cli <argv>`), and the other
keys are its inputs.
"""

from __future__ import annotations

import hashlib
import json
import random
from decimal import Decimal, localcontext
from fractions import Fraction
from typing import List, Optional

# The module each task process imports before its task starts; setup_s is
# the time from spawning the interpreter until this import has finished.
ENTRY = {
    "constants": "wittkit",
    "tables": "wittkit",
    "batteries": "wittkit.suites",
    "cli": "wittkit.cli",
}

ARTIN = {"num": [1, -1, -1], "den": [1, -1]}
TWIN = {"num": [1, -2], "den": [1, -2, 1]}

# Kronecker symbol (d|n) for n = 0..|d|-1, written out so that the checks do
# not rely on wittkit.characters.
CHARACTERS = {-4: [0, 1, 0, -1], -3: [0, 1, -1], 5: [0, 1, -1, -1, 1]}


def constants(rng: random.Random) -> List[dict]:
    # The seed picks only l_series's character, where the three cost about
    # the same.  b_chi keeps d = -4: d = -3 is about 13% faster and d = 5
    # (four residue sums per L-value instead of two) 1.6x slower, so a seed
    # choice there would move wall_s by 4-20%.
    d_l = rng.choice([-4, -3, 5])
    return [
        {"name": "artin_m0_D60", "kind": "euler_product", "h": ARTIN, "m": 0,
         "digits": 60, "ref": "artin_m0"},
        {"name": "twin_m1_D60", "kind": "euler_product", "h": TWIN, "m": 1,
         "digits": 60, "ref": "twin_m1"},
        {"name": "artin_m6_D200", "kind": "euler_product", "h": ARTIN, "m": 6,
         "digits": 200, "ref": "artin_m6"},
        {"name": "b_chi_D12", "kind": "b_chi", "d": -4, "digits": 12,
         "ref": "b_chi_-4"},
        {"name": "zeta3_D300", "kind": "zeta", "s": 3, "digits": 300},
        {"name": "l_series_D150", "kind": "l_series", "s": 2, "d": d_l, "digits": 150},
        {"name": "hurwitz_D150", "kind": "hurwitz_zeta", "s": 3, "a": "1/4",
         "digits": 150},
    ]


def tables(rng: random.Random) -> List[dict]:
    # Only numerators vary, and only by signs: the denominators then fix
    # coefficient growth and bit sizes, so every seed does the same work.
    # (With |a| > 2 the numerator's root would set the exponent growth, 3^n
    # instead of 2^n, and peel_1d would take twice as long.)
    c = rng.choice([-1, 1])
    a = rng.choice([-1, 1])
    return [
        {"name": "witt_table_600x64", "kind": "witt_table",
         "h": {"num": [c], "den": [1, -1, -1]}, "N": 600, "R": 64,
         "ref": f"witt_table_600x64/num={c}"},
        {"name": "peel_1d_1500", "kind": "peel_1d",
         "h": {"num": [1, a], "den": [1, -2]}, "N": 1500,
         "ref": f"peel_1d_1500/a={a}"},
        {"name": "cyclotomic_60x60", "kind": "cyclotomic_check", "f": [1, 1],
         "J": 60, "K": 60, "ref": "cyclotomic_60x60"},
        {"name": "peel_2d_60x60", "kind": "peel_2d", "f": [0, 1, 1],
         "J": 60, "K": 60, "ref": "peel_2d_60x60"},
    ]


def batteries(rng: random.Random) -> List[dict]:
    def seed0() -> int:
        return rng.randrange(1, 2**31)

    runs = [
        ("identity_battery", {"seeds": 200, "seed0": seed0()}),
        ("positivity_battery", {"seeds": 200, "seed0": seed0()}),
        ("combinatorial_battery", {"max_total": 11, "max_parts": 4}),
        ("expansion_uniqueness_battery", {"seeds": 100, "seed0": seed0()}),
        ("monotonicity_battery", {}),
        ("expansion_identity_battery", {"seed0": seed0()}),
        ("closed_form_battery", {}),
    ]
    return [{"name": fn, "kind": "battery", "fn": fn, "kwargs": kwargs}
            for fn, kwargs in runs]


def _series(*coeffs: str, order: int) -> str:
    return json.dumps({"order": order, "coeffs": list(coeffs)})


# The README's CLI block, one invocation each, plus the known-defect probe.
# `value` marks an approximate result compared numerically to a reference;
# every other invocation is compared exactly to the reference payload.
CLI = [
    {"name": "necklace-alpha", "argv": ["necklace", "--alpha", "2", "--n", "6"]},
    {"name": "necklace-content", "argv": ["necklace", "--content", "2,3,1"]},
    {"name": "necklace-vk", "argv": ["necklace", "--content", "2,2", "--vk", "1"]},
    {"name": "words-list", "argv": ["words", "--content", "2,3", "--list"]},
    {"name": "witt", "argv": ["witt", "--f", _series("1", "1", "0", "0", "0", order=4),
                              "--r", "2"]},
    {"name": "witt-table", "argv": ["witt-table", "--f", _series("1", "1", order=10),
                                    "--R", "10", "--J", "10"]},
    {"name": "verify-T3.4", "argv": ["verify", "--id", "T3.4",
                                     "--f", _series("1", "2", "-1", order=12),
                                     "--g", _series("2", "0", "3", order=12),
                                     "--r", "6"]},
    {"name": "scan-T5.1", "argv": ["scan", "--family", "T5.1",
                                   "--f", _series("1", "1", order=10),
                                   "--kmax", "8", "--rmax", "12"]},
    {"name": "scan-P6", "argv": ["scan", "--family", "P6", "--cmax", "6", "--rmax", "12"]},
    {"name": "expand", "argv": ["expand", "--f", _series(*[str(2**i) for i in range(9)],
                                                         order=8)]},
    {"name": "expand2d", "argv": ["expand2d", "--F",
                                  json.dumps({"J": 1, "K": 1, "rows": [["1", "0"], ["0", "-1"]]}),
                                  "--J", "1", "--K", "1"]},
    {"name": "cyclotomic", "argv": ["cyclotomic", "--f", _series("1", "1", order=8),
                                    "--J", "8", "--K", "8"]},
    {"name": "zeta", "argv": ["zeta", "--s", "2", "--digits", "30"],
     "value": {"digits": 30, "mpmath": ["zeta", 2]}},
    {"name": "zeta-partial", "argv": ["zeta", "--s", "2", "--m", "1", "--digits", "15"],
     "value": {"digits": 15, "mpmath": ["partial_zeta", 2, 1]}},
    {"name": "zeta-hurwitz", "argv": ["zeta", "--s", "2", "--a", "1/4", "--digits", "15"],
     "value": {"digits": 15, "mpmath": ["hurwitz_zeta", 2, "1/4"]}},
    {"name": "lseries", "argv": ["lseries", "--s", "2", "--kronecker", "-4", "--digits", "15"],
     "value": {"digits": 15, "mpmath": ["l_series", 2, -4]}},
    {"name": "constant", "argv": ["constant", "--h", json.dumps(ARTIN), "--m", "0",
                                  "--digits", "12"],
     "value": {"digits": 12, "ref": "artin_m0"}},
    {"name": "bchi", "argv": ["bchi", "--kronecker", "-4", "--digits", "8", "--cross-check"],
     "value": {"digits": 8, "ref": "b_chi_-4"}},
    {"name": "verify-all", "argv": ["verify-all", "--scope", "identities", "--budget", "50"]},
    # Valid request whose answer has more than 4300 digits.  At the time the
    # benchmark was written the CLI exits 2 with a "usage error" (ROADMAP
    # item 5); its share of invocations is the cli workload's fail_ratio.
    {"name": "necklace-probe", "argv": ["necklace", "--alpha", "10", "--n", "5000"],
     "known_defect": "integers beyond CPython's 4300-digit str() limit"},
]


def cli(rng: random.Random) -> List[dict]:
    tasks = [dict(spec, kind="cli") for spec in CLI]
    rng.shuffle(tasks)
    return tasks


BUILDERS = {"constants": constants, "tables": tables, "batteries": batteries, "cli": cli}
WORKLOADS = tuple(BUILDERS)


def build(workload: str, seed: int) -> List[dict]:
    """The fixed task list of one round; the same seed gives the same list."""
    return BUILDERS[workload](random.Random(f"{workload}:{seed}"))


# -- payloads ------------------------------------------------------------

# Record fields that describe how a result was computed rather than the
# result; they may change with the planner or observability work.
NOT_PAYLOAD = {
    "cutoff", "tail_estimate", "heuristic_tail", "working_digits",
    "direct_value", "direct_tail_estimate", "difference", "runtime_s",
    "abs_error_bound", "note",
}


def _strip(obj):
    if isinstance(obj, dict):
        return {k: _strip(v) for k, v in obj.items() if k not in NOT_PAYLOAD}
    if isinstance(obj, list):
        return [_strip(v) for v in obj]
    return obj


def cli_payload(exit_code: int, stdout: str) -> dict:
    """Exit code and the mathematical part of a CLI invocation's JSON."""
    lines = stdout.strip().splitlines()
    try:
        out = _strip(json.loads(lines[-1])) if lines else None
    except ValueError:
        out = {"unparsed": stdout[-200:]}
    return {"exit": exit_code, "out": out}


def digest(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()


# -- checks ----------------------------------------------------------------


class Checker:
    """Checks payloads against refs.json and mpmath."""

    def __init__(self, refs: dict):
        self.refs = refs
        self._mp_cache: dict = {}

    def mpmath_value(self, what: list, digits: int) -> Decimal:
        """The exact value the task approximates, to digits + 25 significant
        digits."""
        key = (tuple(what), digits)
        if key not in self._mp_cache:
            import mpmath

            with mpmath.workdps(digits + 30):
                name, s = what[0], what[1]
                if name == "zeta":
                    v = mpmath.zeta(s)
                elif name == "partial_zeta":
                    v = mpmath.zeta(s)
                    for p in (2, 3, 5, 7, 11, 13)[: what[2]]:
                        v *= 1 - mpmath.mpf(p) ** -s
                elif name == "hurwitz_zeta":
                    a = Fraction(what[2])
                    v = mpmath.zeta(s, mpmath.mpf(a.numerator) / a.denominator)
                elif name == "l_series":
                    v = mpmath.dirichlet(s, CHARACTERS[what[2]])
                else:
                    raise ValueError(f"no mpmath reference for {name!r}")
                self._mp_cache[key] = Decimal(mpmath.nstr(v, digits + 25, strip_zeros=False))
        return self._mp_cache[key]

    def near(self, value: str, exact: Decimal, digits: int) -> Optional[str]:
        with localcontext() as ctx:
            ctx.prec = digits + 40
            gap = abs(Decimal(value) - exact)
            if gap <= Decimal(1).scaleb(-digits):
                return None
        return f"value {value[:30]}... is off by {gap:.3e} (allowed 1e-{digits})"

    def check(self, task: dict, payload: dict) -> Optional[str]:
        """None when the payload is right, otherwise what is wrong."""
        try:
            return self._check(task, payload)
        except (KeyError, TypeError, ValueError, ArithmeticError) as exc:
            return f"payload could not be checked: {exc!r}"

    def _check(self, task: dict, payload: dict) -> Optional[str]:
        kind = task["kind"]
        if kind in ("euler_product", "b_chi"):
            ref = self.refs["values"][task["ref"]]
            return self.near(payload["value"], Decimal(ref["value"]), task["digits"])
        if kind == "zeta":
            return self.near(payload["value"],
                             self.mpmath_value(["zeta", task["s"]], task["digits"]),
                             task["digits"])
        if kind == "l_series":
            return self.near(payload["value"],
                             self.mpmath_value(["l_series", task["s"], task["d"]],
                                               task["digits"]),
                             task["digits"])
        if kind == "hurwitz_zeta":
            return self.near(payload["value"],
                             self.mpmath_value(["hurwitz_zeta", task["s"], task["a"]],
                                               task["digits"]),
                             task["digits"])
        if kind in ("witt_table", "peel_1d", "cyclotomic_check", "peel_2d"):
            want = self.refs["exact"][task["ref"]]
            return None if payload == want else f"payload {payload} != reference {want}"
        if kind == "battery":
            want = self.refs["battery_checks"][task["fn"]]
            if payload["failures"]:
                return f"{payload['failures']} failed checks: {payload['first']}"
            if payload["checks"] != want:
                return f"{payload['checks']} checks made, expected {want}"
            return None
        if kind == "cli":
            return self._check_cli(task, payload)
        raise ValueError(f"unknown task kind {kind!r}")

    def _check_cli(self, task: dict, payload: dict) -> Optional[str]:
        if payload["exit"] != 0:
            return f"exit code {payload['exit']}"
        out = payload["out"]
        value = task.get("value")
        if value is None:
            want = self.refs["cli"][task["name"]]
            if "value_sha256" in want:
                got = {"value_sha256": digest(out["value"])}
            else:
                got = out
            return None if got == want else f"output {str(out)[:200]} != reference"
        if "ref" in value:
            exact = Decimal(self.refs["values"][value["ref"]]["value"])
        else:
            exact = self.mpmath_value(value["mpmath"], value["digits"])
        return self.near(out["value"], exact, value["digits"])
