import json
import math
import os
import re
import shlex
import subprocess
import sys
import time
from decimal import Decimal
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import B_CHI_MINUS_4, perturb_witt_table
from wittkit import analytic, series, witt
from wittkit.arith import divisors, moebius
from wittkit.cli import _content, _int, _ratfun, _rational, _series, main
from wittkit.errors import IntegralityError
from wittkit.series import RationalFunction, TruncatedSeries, coeff_str
from wittkit.witt import IDENTITY_IDS

SERIES_1PZ = '{"order":4,"coeffs":["1","1","0","0","0"]}'
ROOT = Path(__file__).resolve().parent.parent


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


def test_necklace_poly(capsys):
    code, out, _ = run(capsys, "necklace", "--alpha", "2", "--n", "6")
    assert code == 0
    assert json.loads(out) == {"value": "9"}


def test_necklace_content_and_vk(capsys):
    code, out, _ = run(capsys, "necklace", "--content", "2,3")
    assert code == 0 and json.loads(out) == {"value": "2"}
    code, out, _ = run(capsys, "necklace", "--content", "2,2", "--vk", "1")
    assert code == 0 and json.loads(out) == {"value": "2"}


def test_words(capsys):
    code, out, _ = run(capsys, "words", "--content", "2,3")
    assert code == 0 and json.loads(out)["count"] == "2"
    assert run(capsys, "words", "--content", "2,3", "--count")[0] == 2
    code, out, _ = run(capsys, "words", "--content", "1,2", "--list")
    assert json.loads(out)["words"] == ["122"]


def test_words_budget(capsys):
    code, out, err = run(capsys, "words", "--content", "20,20", "--list")
    assert code == 1
    assert "budget 14" in json.loads(out)["error"] and "budget" in err
    code, out, _ = run(capsys, "words", "--content", "1200,1", "--budget", "1201")
    assert code == 0 and json.loads(out) == {"count": "1"}


def test_witt(capsys):
    code, out, _ = run(capsys, "witt", "--f", SERIES_1PZ, "--r", "2")
    assert code == 0
    assert json.loads(out)["value"]["coeffs"] == ["0", "1", "0", "0", "0"]


def test_witt_table(capsys):
    code, out, _ = run(capsys, "witt-table", "--f", SERIES_1PZ, "--R", "3")
    data = json.loads(out)
    assert code == 0
    assert data["m"][0] == ["1", "1", "0", "0", "0"]
    assert data["m"][1] == ["0", "1", "0", "0", "0"]
    assert data["m"][2] == ["0", "1", "1", "0", "0"]


@pytest.mark.parametrize("argv", [
    ("witt-table", "--f", '{"order":10,"coeffs":[1,1]}', "--R", "100000000", "--J", "10"),
    ("scan", "--family", "T5.1", "--f", '{"order":10,"coeffs":[1,1]}', "--kmax", "8",
     "--rmax", "100000000"),
    ("cyclotomic", "--f", '{"order":10,"coeffs":[1,1]}', "--J", "10", "--K", "100000000"),
], ids=["witt-table", "scan", "cyclotomic"])
def test_witt_tables_over_the_cell_budget_fail_fast(capsys, argv):
    code, out, err = run(capsys, *argv)
    assert code == 1 and err.startswith("budget exceeded: ")
    assert "budget of 100000 cells" in json.loads(out)["error"]


L_VALUE_ARGV = [
    ("zeta", "--s", "2"),
    ("zeta", "--s", "2", "--m", "3"),
    ("zeta", "--s", "2", "--a", "1/4"),
    ("lseries", "--s", "2", "--kronecker", "-4"),
]
L_VALUE_IDS = ["zeta", "partial-zeta", "hurwitz-zeta", "lseries"]


@pytest.mark.parametrize("argv", L_VALUE_ARGV, ids=L_VALUE_IDS)
def test_l_values_over_the_digit_budget_fail_fast(capsys, argv):
    start = time.perf_counter()
    code, out, err = run(capsys, *argv, "--digits", "100000")
    assert time.perf_counter() - start < 1
    assert code == 1 and err.startswith("budget exceeded: ")
    assert "budget of 2000 digits" in json.loads(out)["error"]


@pytest.mark.parametrize("argv", L_VALUE_ARGV, ids=L_VALUE_IDS)
def test_l_values_at_the_digit_budget_reach_the_kernel(capsys, monkeypatch, argv):
    # the sums are stubbed out, so that nothing heavy runs at 2000 digits
    calls = []

    def stub(*args):
        calls.append(args)
        return Decimal(0)

    monkeypatch.setattr(analytic, "_l_minus_1", stub)
    monkeypatch.setattr(analytic, "_dirichlet_sum", stub)
    code, out, _ = run(capsys, *argv, "--digits", "2000")
    assert code == 0 and json.loads(out)["digits"] == 2000 and len(calls) == 1


@pytest.mark.parametrize("argv", L_VALUE_ARGV[:2] + L_VALUE_ARGV[3:],
                         ids=L_VALUE_IDS[:2] + L_VALUE_IDS[3:])
def test_l_values_at_a_huge_s_answer_at_once(capsys, argv):
    # the kernel computes above s' = (10^prec).bit_length() + 2 at s', so
    # s = 10^12 neither exhausts memory nor takes long; Hurwitz zeta, whose
    # value grows like q^s, is not clamped but refused (next test)
    start = time.perf_counter()
    code, out, _ = run(capsys, *argv[:2], "1000000000000", *argv[3:], "--digits", "10")
    assert time.perf_counter() - start < 5
    assert code == 0 and json.loads(out)["value"] == "1.00000000000000"


def test_hurwitz_zeta_beyond_its_magnitude_budget_fails_fast(capsys):
    # s len(str(q)) digits of q^s above the digit budget stop before any sum
    start = time.perf_counter()
    code, out, err = run(capsys, "zeta", "--s", "400000", "--a", "1/3", "--digits", "10")
    assert time.perf_counter() - start < 1
    assert code == 1 and err.startswith("budget exceeded: ")
    assert "400000 * 1 = 400000, exceed the budget of 2000 digits" in json.loads(out)["error"]


def _readme_commands():
    """The argv of each line of the sh block under "## CLI", "wittkit" included."""
    block = re.search(r"^## CLI$.*?^```sh$(.*?)^```$", (ROOT / "README.md").read_text(),
                      re.M | re.S)[1]
    commands = [shlex.split(line, comments=True)
                for line in block.replace("\\\n", " ").splitlines()]
    return [argv for argv in commands if argv]


def test_the_readme_cli_block_runs(capsys):
    # every line of the sh block under "## CLI" exits 0 and prints one object
    commands = _readme_commands()
    assert commands and all(argv[0] == "wittkit" for argv in commands)
    for argv in commands:
        code, out, _ = run(capsys, *argv[1:])
        assert code == 0, argv
        assert out.count("\n") == 1 and isinstance(json.loads(out), dict), argv


# A real process ends through cli.entry (os._exit after the atexit handlers
# and the flushes), which no in-process call of main exercises
_BIG_TABLE = ("witt-table", "--f", '{"order":300,"coeffs":["1","1","1"]}', "--R", "40")
_PROCESS_ARGVS = [tuple(argv[1:]) for argv in _readme_commands()] + [
    ("necklace",),  # usage error: exit 2, nothing on stdout
    ("constant", "--h", '{"num":[1,-2],"den":[1,-2,1]}', "--m", "0", "--digits", "8"),  # exit 1
    ("--help",),
    _BIG_TABLE,
]


def _process(*args):
    # stdout block-buffered, as without PYTHONUNBUFFERED, so that what entry
    # flushes is what reaches the pipe; COLUMNS fixes argparse's help width,
    # as in process below
    env = {key: value for key, value in os.environ.items() if key != "PYTHONUNBUFFERED"}
    env.update(PYTHONPATH=str(ROOT / "src"), COLUMNS="80")
    return subprocess.run([sys.executable, *args], env=env, capture_output=True, timeout=60)


def _masked(text: bytes) -> bytes:
    return re.sub(rb'"runtime_s": [^,}]*', b'"runtime_s": "*"', text)


@pytest.mark.parametrize("argv", _PROCESS_ARGVS, ids=[" ".join(a)[:40] for a in _PROCESS_ARGVS])
def test_a_cli_process_prints_what_main_returns(capsysbinary, monkeypatch, argv):
    proc = _process("-m", "wittkit.cli", *argv)
    monkeypatch.setenv("COLUMNS", "80")
    code = main(list(argv))
    out, err = capsysbinary.readouterr()
    assert (proc.returncode, proc.stderr) == (code, err)
    assert _masked(proc.stdout) == _masked(out)
    if argv == _BIG_TABLE:  # more than one 64 KiB pipe buffer
        assert len(out) == 71309


def test_a_cli_process_runs_its_atexit_handlers_and_flushes_them():
    # the handler's stdout line sits in the pipe's block buffer until the
    # flush after the handlers; its stderr line is written at once
    script = ("import atexit, sys\n"
              "atexit.register(lambda: print('handler ran') or print('handler ran', "
              "file=sys.stderr))\n"
              "from wittkit.cli import entry\n"
              "entry()\n")
    proc = _process("-c", script, "necklace", "--alpha", "2", "--n", "6")
    assert proc.returncode == 0
    assert proc.stdout == b'{"value": "9"}\nhandler ran\n'
    assert proc.stderr == b"handler ran\n"


def test_verify_pass_and_params(capsys):
    code, out, _ = run(capsys, "verify", "--id", "T3.4", "--f", SERIES_1PZ,
                       "--g", SERIES_1PZ, "--r", "2")
    assert code == 0
    assert json.loads(out)["passed"] is True


SERIES_F = '{"order":8,"coeffs":["1","2","-1"]}'
SERIES_G = '{"order":8,"coeffs":["2","0","3"]}'
VERIFY_ARGS = {
    "T1.1": ("--alpha", "2", "--beta", "3", "--n", "6"),
    "T1.2": ("--beta", "2", "--r", "3", "--n", "4"),
    "T3.1": ("--f", SERIES_F, "--r", "2", "--k", "3"),
    "T3.2": ("--f", SERIES_F, "--r", "6"),
    "T3.3": ("--f", SERIES_F, "--r", "6"),
    "T3.4": ("--f", SERIES_F, "--g", SERIES_G, "--r", "6"),
    "T3.5": ("--f", SERIES_F, "--r", "4", "--k", "2"),
    "T3.6": ("--f", SERIES_F, "--g", SERIES_G, "--r", "2", "--v", "2", "--w", "4"),
}


@pytest.mark.parametrize("ident", IDENTITY_IDS)
def test_verify_every_identity(capsys, ident):
    code, out, err = run(capsys, "verify", "--id", ident, *VERIFY_ARGS[ident])
    assert (code, err) == (0, "")
    assert json.loads(out)["passed"] is True


def test_verify_missing_params_is_usage_error(capsys):
    code, _, err = run(capsys, "verify", "--id", "T3.4", "--f", SERIES_1PZ)
    assert code == 2
    assert "requires" in err


def test_scan_pass_and_precondition_failure(capsys):
    code, out, _ = run(capsys, "scan", "--family", "T5.1", "--f", SERIES_1PZ,
                       "--kmax", "4", "--rmax", "8")
    assert code == 0 and json.loads(out)["passed"] is True
    code, out, err = run(
        capsys, "scan", "--family", "T5.1",
        "--f", '{"order":4,"coeffs":["0","1","0","0","0"]}', "--kmax", "4",
    )
    assert code == 1
    assert "constant term" in err


def test_expand(capsys):
    code, out, _ = run(capsys, "expand",
                       "--f", '{"order":4,"coeffs":["1","2","4","8","16"]}')
    data = json.loads(out)
    assert code == 0
    assert data["e"] == {"1": "2", "2": "1", "3": "2", "4": "3"}


def test_expand2d(capsys):
    grid = '{"J":1,"K":1,"rows":[["1","0"],["0","-1"]]}'
    code, out, _ = run(capsys, "expand2d", "--F", grid)
    assert code == 0
    assert json.loads(out)["e"] == {"1,1": "1"}


def test_cyclotomic(capsys):
    code, out, _ = run(capsys, "cyclotomic",
                       "--f", '{"order":8,"coeffs":["2"]}', "--J", "4", "--K", "6")
    assert code == 0 and json.loads(out)["passed"] is True


def test_cyclotomic_failure_exits_1_with_the_mismatch(capsys, monkeypatch):
    perturb_witt_table(monkeypatch, 2, 3)
    code, out, _ = run(capsys, "cyclotomic",
                       "--f", '{"order":8,"coeffs":["1","1"]}', "--J", "8", "--K", "8")
    assert code == 1
    assert json.loads(out) == {"passed": False, "first_mismatch": [2, 3]}


def test_verify_failure_exits_1_with_the_mismatch(capsys, monkeypatch):
    # W_2 made one too large at z^3, where the Witt kernel divides by the
    # order, moves the sum side of T3.2 at r = 2, f(z^2) + 2 W_2(f), and
    # leaves its other side f^2 = W_1(f^2) as it is
    real = witt._divide_by_order

    def faulty(acc, r, integral):
        w = real(acc, r, integral)
        return [c + (r == 2 and j == 3) for j, c in enumerate(w)]

    monkeypatch.setattr(witt, "_divide_by_order", faulty)
    code, out, err = run(capsys, "verify", "--id", "T3.2", "--f", SERIES_F, "--r", "2")
    assert (code, err) == (1, "")
    assert json.loads(out)["passed"] is False and json.loads(out)["first_mismatch"] == 3


def test_a_non_integral_moebius_sum_raises_from_every_entry(capsys, monkeypatch):
    # f^2 of f = 1 + 2z - z^2 made one too large at z^1: the Moebius sum of
    # W_2(f), f^2 - f(z^2), is then 5 at z^1, not divisible by 2.  The fault
    # sits in the kernel behind every series' power memo, which W_2(f) and
    # T3.2's f**2 both read
    real = series._power_coeffs

    def faulty(a, k, order, integral, prefix=()):
        out = real(a, k, order, integral, prefix)
        out[1] += k == 2 and not prefix  # a prefix holds the fault already
        return out

    monkeypatch.setattr(series, "_power_coeffs", faulty)
    message = ("witt_transform(r=2) of an integral series is not integral: "
               "coefficient of z^1 (5) is not divisible by 2")
    f = TruncatedSeries([1, 2, -1], 8)  # SERIES_F
    with pytest.raises(IntegralityError) as raised:
        witt.witt_transform(f, 2)
    assert str(raised.value) == message
    with pytest.raises(IntegralityError) as raised:
        witt.verify_identity("T3.2", f, r=2)
    assert str(raised.value) == message
    code, out, err = run(capsys, "verify", "--id", "T3.2", "--f", SERIES_F, "--r", "2")
    assert (code, err) == (1, f"mathematical failure: {message}\n")
    assert json.loads(out) == {"error": message}


def test_scan_failure_exits_1_with_the_drop(capsys, monkeypatch):
    # m(2, 3) of 1 + z raised from 1 to 2, above m(2, 4) = 1
    perturb_witt_table(monkeypatch, 2, 3, module=witt)
    code, out, err = run(capsys, "scan", "--family", "T5.1", "--f", SERIES_1PZ,
                         "--kmax", "4", "--rmax", "8")
    assert (code, err) == (1, "")
    data = json.loads(out)
    assert data["passed"] is False and data["violations"] == ["k=2: decreases at r=4"]


def test_verify_all_failure_exits_1_naming_the_failed_suite(capsys, monkeypatch):
    perturb_witt_table(monkeypatch, 2, 3)
    code, out, err = run(capsys, "verify-all", "--scope", "expansion", "--budget", "1")
    assert (code, err) == (1, "")
    data = json.loads(out)
    assert data["passed"] is False
    assert [(suite["suite"], suite["passed"]) for suite in data["suites"]] == [
        ("expansion-identities", False), ("expansion-uniqueness", True)]


@pytest.mark.parametrize("J, K, message", [
    ("-1", "2", "cyclotomic_check needs deg_z (J) >= 0, got -1"),
    ("2", "0", "cyclotomic_check needs deg_y (K) >= 1, got 0"),
], ids=["J", "K"])
def test_cyclotomic_sizes_are_usage_errors_naming_the_parameter(capsys, J, K, message):
    assert run(capsys, "cyclotomic", "--f", '{"order":3,"coeffs":[1,1]}', "--J", J,
               "--K", K) == (2, "", f"usage error: {message}\n")


@pytest.mark.parametrize("option, degree", [("--J", "deg_z (J)"), ("--K", "deg_y (K)")])
def test_expand2d_negative_degrees_are_usage_errors_naming_the_degree(capsys, option, degree):
    assert run(capsys, "expand2d", "--F", GRID_1_1, option, "-1") == (
        2, "", f"usage error: truncate needs {degree} >= 0, got -1\n")


def test_zeta_variants(capsys):
    code, out, _ = run(capsys, "zeta", "--s", "2", "--digits", "12")
    assert code == 0
    assert json.loads(out)["value"].startswith("1.644934066848")
    code, out, _ = run(capsys, "zeta", "--s", "2", "--m", "1", "--digits", "10")
    assert json.loads(out)["value"].startswith("1.2337005501")
    code, out, _ = run(capsys, "zeta", "--s", "2", "--a", "1/4", "--digits", "10")
    assert json.loads(out)["value"].startswith("17.19732915")


def test_lseries(capsys):
    code, out, _ = run(capsys, "lseries", "--s", "2", "--kronecker", "-4",
                       "--digits", "15")
    assert code == 0
    assert json.loads(out)["value"].startswith("0.915965594177219")


def test_constant_artin(capsys):
    code, out, _ = run(capsys, "constant", "--h", '{"num":[1,-1,-1],"den":[1,-1]}',
                       "--m", "0", "--digits", "10")
    assert code == 0
    data = json.loads(out)
    assert data["value"].startswith("0.3739558136")
    assert data["heuristic_tail"] is False


def test_constant_with_direct_cross_check(capsys):
    code, out, _ = run(capsys, "constant", "--h", '{"num":[1,0,-1],"den":[1]}',
                       "--m", "1", "--digits", "8", "--direct-limit", "20000")
    assert code == 0
    data = json.loads(out)
    gap = abs(float(data["value"]) - float(data["direct"]["value"]))
    assert gap < float(data["direct"]["tail_estimate"]) + 1e-8


def test_lseries_from_table(capsys):
    code, out, _ = run(capsys, "lseries", "--s", "2", "--table", "0,1,0,-1",
                       "--digits", "12")
    assert code == 0
    assert json.loads(out)["value"].startswith("0.915965594177")


def test_convergence_series_input(capsys):
    code, out, _ = run(capsys, "convergence",
                       "--f", '{"order":12,"coeffs":["0","1"]}')
    assert code == 0
    assert json.loads(out)["hypotheses_hold"] is True


def test_constant_divergence_exit_code(capsys):
    code, out, err = run(capsys, "constant", "--h", '{"num":[1,-2],"den":[1,-2,1]}',
                         "--m", "0", "--digits", "8")
    assert code == 1
    assert "increase m" in json.loads(out)["error"]


def test_impractical_cutoff_is_usage_error(capsys):
    message = "usage error: requested precision needs an impractical cutoff\n"
    code, out, err = run(capsys, "constant", "--h", '{"num":[1,-2],"den":[1,-2,1]}',
                         "--m", "1", "--digits", "5000")
    assert (code, out, err) == (2, "", message)
    code, out, err = run(capsys, "bchi", "--kronecker", "5", "--digits", "3000")
    assert (code, out, err) == (2, "", message)


def test_constant_non_integral_h_is_usage_error(capsys):
    code, out, err = run(capsys, "constant", "--h", '{"num":[2,0,-1],"den":[2]}')
    assert code == 2 and out == ""
    assert err == "usage error: h must have an integer-coefficient expansion\n"


def test_bchi_twenty_digits(capsys):
    from decimal import Decimal

    code, out, _ = run(capsys, "bchi", "--kronecker", "-4", "--digits", "20")
    assert code == 0
    assert abs(Decimal(json.loads(out)["value"]) - B_CHI_MINUS_4) < Decimal("1e-20")


def test_bchi_reports_its_cutoff_and_working_digits(capsys):
    code, out, _ = run(capsys, "bchi", "--kronecker", "-4", "--digits", "8", "--cross-check")
    data = json.loads(out)
    assert code == 0 and data["direct_value"] and data["heuristic_tail"] is False
    assert data["direct_tail_estimate"] == "3.218e-07"  # |value| (e^T - 1) at x = 10^6
    assert data["cutoff"] > 1 and data["working_digits"] > 8 + 10
    # the planner removed the first 25 primes exactly, the direct product none
    assert (data["removed_primes"], data["direct_removed_primes"]) == (25, 0)


def test_constant_reports_the_primes_removed_exactly(capsys):
    code, out, _ = run(capsys, "constant", "--h", ARTIN_H, "--m", "3", "--digits", "8",
                       "--direct-limit", "100")
    data = json.loads(out)
    assert code == 0 and (data["removed_primes"], data["direct"]["removed_primes"]) == (25, 3)
    code, out, _ = run(capsys, "constant", "--h", ARTIN_H, "--m", "30", "--digits", "8")
    assert code == 0 and json.loads(out)["removed_primes"] == 30


def test_bchi_trivial(capsys):
    from decimal import Decimal

    code, out, _ = run(capsys, "bchi", "--digits", "6")
    assert code == 0
    assert abs(Decimal(json.loads(out)["value"]) - 1) < Decimal("1e-6")


@pytest.mark.parametrize("coeffs", [
    ["0"] + [str(1000 ** (j - 1)) for j in range(1, 201)],  # z/(1 - 1000z): g(1/2) ~ 10^538
    ["0", str(10**400)],  # one coefficient beyond the float range
], ids=["geometric-1000", "one-coefficient-1e400"])
def test_convergence_beyond_the_float_range(capsys, coeffs):
    f = json.dumps({"order": len(coeffs) - 1, "coeffs": coeffs})
    code, out, err = run(capsys, "convergence", "--f", f)
    data = json.loads(out)
    assert (code, err) == (0, "")
    assert data["g_half_ok"] is False and data["g_half"] == math.inf
    assert data["radius_ok"] is False and not data["hypotheses_hold"]


def test_convergence(capsys):
    code, out, _ = run(capsys, "convergence", "--ratfun",
                       '{"num":[0,-1,-1],"den":[1,-1,-1]}')
    data = json.loads(out)
    assert code == 0
    assert data["radius_ok"] is True and data["g_half_ok"] is False


def test_verify_all_empty_budget(capsys):
    code, out, _ = run(capsys, "verify-all", "--scope", "combinatorial",
                       "--budget", "0")
    assert code == 0
    assert json.loads(out)["passed"] is True


@pytest.mark.parametrize("budget", range(1, 13))
def test_verify_all_combinatorial_budgets(capsys, budget):
    code, out, _ = run(capsys, "verify-all", "--scope", "combinatorial",
                       "--budget", str(budget))
    assert code == 0
    assert json.loads(out)["passed"] is True


def test_verify_all_small_budget(capsys):
    code, out, _ = run(capsys, "verify-all", "--scope", "expansion", "--budget", "5")
    assert code == 0
    assert json.loads(out)["passed"] is True


def test_verify_all_analytic_at_thirty_digits(capsys):
    # the pi^2 closed forms must be exact beyond the battery's 30 digits
    code, out, _ = run(capsys, "verify-all", "--scope", "analytic", "--budget", "30")
    assert code == 0
    assert json.loads(out)["passed"] is True


def test_unknown_subcommand_usage_error(capsys):
    assert run(capsys, "frobnicate")[0] == 2
    assert run(capsys, "witt", "--f", "not json", "--r", "2")[0] == 2


def test_determinism(capsys):
    a = run(capsys, "witt-table", "--f", SERIES_1PZ, "--R", "4")
    b = run(capsys, "witt-table", "--f", SERIES_1PZ, "--R", "4")
    assert a == b


def test_round_trip_series_json(capsys):
    code, out, _ = run(capsys, "witt", "--f", SERIES_1PZ, "--r", "2")
    payload = json.dumps(json.loads(out)["value"])
    code2, out2, _ = run(capsys, "witt", "--f", payload, "--r", "1")
    assert code2 == 0
    assert json.loads(out2)["value"] == json.loads(payload)

def test_necklace_beyond_str_digit_limit(capsys):
    # M(10; 5000) has 4997 digits, past CPython's default 4300-digit str() limit
    code, out, _ = run(capsys, "necklace", "--alpha", "10", "--n", "5000")
    assert code == 0
    value = json.loads(out)["value"]
    limit = sys.get_int_max_str_digits()
    sys.set_int_max_str_digits(0)
    try:
        total, rem = divmod(sum(moebius(5000 // d) * 10**d for d in divisors(5000)), 5000)
        assert rem == 0 and len(value) > limit
        assert value == str(total)
    finally:
        sys.set_int_max_str_digits(limit)


@pytest.mark.parametrize("digits", [4301, 10**5])
def test_inputs_beyond_str_digit_limit(capsys, digits):
    # integers past CPython's 4300-digit int() limit, as JSON strings, JSON
    # numbers, fractions and plain arguments, positive and negative
    a = "7" * digits
    b = "1" + "0" * (digits - 1) + "1"
    limit = sys.get_int_max_str_digits()
    sys.set_int_max_str_digits(0)
    try:
        A, B = int(a), int(b)
    finally:
        sys.set_int_max_str_digits(limit)
    assert math.gcd(A, B) == 1

    def value(*argv):
        code, out, err = run(capsys, *argv)
        assert (code, err) == (0, "")
        return json.loads(out)["value"]

    W2 = [coeff_str((A * A - A) // 2), a]  # W_2(z + A) = (A^2 - A)/2 + A z
    for f in ('{"order":1,"coeffs":["%s","1"]}' % a, '{"order":1,"coeffs":[%s,1]}' % a):
        assert value("witt", "--f", f, "--r", "2")["coeffs"] == W2
    f = '{"order":1,"coeffs":["-%s",1]}' % a  # W_2(z - A) = (A^2 + A)/2 - A z
    assert value("witt", "--f", f, "--r", "2")["coeffs"] == [coeff_str((A * A + A) // 2), "-" + a]
    f = '{"order":1,"coeffs":["-%s/%s","1"]}' % (a, b)
    assert value("witt", "--f", f, "--r", "1")["coeffs"] == [f"-{a}/{b}", "1"]
    assert value("necklace", "--content", f"1,{a}") == "1"
    # one part of that size would need its divisors: refused, not a hang
    code, out, err = run(capsys, "necklace", "--content", a)
    assert code == 1 and err.startswith("budget exceeded: divisors of an integer of ")
    assert value("necklace", "--alpha", "-" + a, "--n", "2") == coeff_str((A * A + A) // 2)


@pytest.mark.parametrize("argv", [
    ("witt", "--f", '{"order": 1, "coeffs": "12"}', "--r", "1"),
    ("witt", "--f", '{"order": 2.9, "coeffs": ["1", "1"]}', "--r", "1"),
    ("witt", "--f", '{"order": true, "coeffs": ["1", "1"]}', "--r", "1"),
    ("witt", "--f", '{"coeffs": ["1"]}', "--r", "1"),
    ("witt", "--f", '{"order": 1, "coeffs": ["1/0"]}', "--r", "1"),
    ("constant", "--h", '{"num": "12", "den": [1, 1.9]}'),
    ("constant", "--h", '{"num": [1], "den": [1, 1.9]}'),
    ("constant", "--h", '{"num": [1, true], "den": [1, -1]}'),
    ("constant", "--h", '[1, -1]'),
    ("expand2d", "--F", '{"J": 0, "K": 1, "rows": [[1.9], [1]]}'),
    ("expand2d", "--F", '{"J": 1}'),
    ("expand2d", "--F", '{"J": 0, "K": 1, "rows": [["1"], ["1/2"]]}'),
    ("expand2d", "--F", '{"J": 0, "K": 1, "rows": [[1], [true]]}'),
    ("expand2d", "--F", '{"J": 0, "K": 1, "rows": [1, 1]}'),
    ("expand2d", "--F", '{"J": 0, "K": 1, "rows": "11"}'),
    ("expand2d", "--F", '{"J": 0, "K": 0, "rows": []}'),
    ("expand2d", "--F", '{"J": 1, "K": 1, "rows": [[1, 0], [0]]}'),
    ("expand2d", "--F", '{"J": 0.0, "K": 0, "rows": [[1]]}'),
    ("expand2d", "--F", '{"J": 0, "K": false, "rows": [[1]]}'),
    ("expand2d", "--F", '{"J": 1, "K": 0, "rows": [[1]]}'),
    ("expand2d", "--F", '[[1]]'),
    ("witt", "--f", '{"order": 1, "coeffs": ["1_0", "1"]}', "--r", "1"),
    ("witt", "--f", '{"order": 1, "coeffs": ["1", "\u0663"]}', "--r", "1"),
    ("witt", "--f", '{"order": 1, "coeffs": ["1", "1_0/3"]}', "--r", "1"),
    ("witt", "--f", '{"order": 1, "coeffs": ["1", "1/\u0663"]}', "--r", "1"),
    ("expand2d", "--F", '{"J": 0, "K": 1, "rows": [["1"], ["\u0661"]]}'),
    ("necklace", "--content", "1,,2"),
    ("necklace", "--content", "\u0663,1"),
    ("necklace", "--content", "1_0,1"),
    ("necklace", "--content", "1,2,"),
    ("necklace", "--alpha", "2", "--n", "1_0"),
    ("zeta", "--s", "2", "--a", "1_0/2\u0663"),
    ("zeta", "--s", "2", "--a", "0"),
    ("zeta", "--s", "2", "--digits", "1.5"),
    ("lseries", "--s", "2", "--kronecker", "\u0665"),
    ("lseries", "--s", "2", "--table", "0,1,,-1"),
    ("bchi", "--kronecker", "-\u0664"),
    ("words", "--content", "2,3", "--budget", "\u0661\u0664"),
    ("lseries", "--s", "2", "--table", "0,2"),
    ("lseries", "--s", "2", "--table", "0,-1"),
])
def test_malformed_json_inputs_are_usage_errors(capsys, argv):
    assert run(capsys, *argv)[0] == 2


GRID_1_1 = '{"J":1,"K":1,"rows":[["1","0"],["0","-1"]]}'


@pytest.mark.parametrize("argv", [
    ("expand", "--f", '{"order":3,"coeffs":[1,1]}', "--N", "-1"),
    ("expand2d", "--F", GRID_1_1, "--J", "-1"),
    ("expand2d", "--F", GRID_1_1, "--K", "-1"),
    ("cyclotomic", "--f", '{"order":3,"coeffs":[1,1]}', "--J", "2", "--K", "-1"),
    ("cyclotomic", "--f", '{"order":3,"coeffs":[1,1]}', "--J", "-1", "--K", "2"),
    # empty check windows, which would otherwise report a pass with 0 checks
    ("verify-all", "--scope", "expansion", "--budget", "-1"),
    ("words", "--content", "2,3", "--budget", "-1"),
    ("words", "--content", "2,3", "--list", "--budget", "-1"),
    ("scan", "--family", "P6", "--cmax", "-1", "--rmax", "12"),
    ("scan", "--family", "P6", "--cmax", "6", "--rmax", "-3"),
    # orders and exponents below 1 are refused before anything is evaluated
    ("verify", "--id", "T3.6", "--f", SERIES_F, "--g", SERIES_G, "--r", "2",
     "--v", "0", "--w", "0"),
    ("verify", "--id", "T1.2", "--beta", "2", "--r", "-1", "--n", "2"),
    ("verify", "--id", "T3.1", "--f", SERIES_F, "--r", "2", "--k", "-1"),
    ("verify", "--id", "T3.1", "--f", SERIES_F, "--r", "2", "--k", "0"),
    ("bchi", "--kronecker", "-4", "--digits", "4", "--cross-check", "--prime-limit", "1"),
    # a limit that would otherwise be ignored or read as "no cross-check"
    ("constant", "--h", '{"num":[1,-1,-1],"den":[1,-1]}', "--direct-limit", "0"),
    ("bchi", "--kronecker", "-4", "--digits", "4", "--prime-limit", "1000"),
    ("scan", "--family", "T5.1", "--f", '{"order":10,"coeffs":["1","1"]}', "--kmax", "8",
     "--rmax", "0"),
    ("scan", "--family", "T5.1", "--f", '{"order":10,"coeffs":["1","1"]}', "--kmax", "-3"),
], ids=["expand-N", "expand2d-J", "expand2d-K", "cyclotomic-K", "cyclotomic-J",
        "verify-all-budget", "words-budget", "words-list-budget", "scan-P6-cmax",
        "scan-P6-rmax", "verify-T3.6-v-w", "verify-T1.2-r", "verify-T3.1-k-negative",
        "verify-T3.1-k-zero", "bchi-prime-limit", "constant-direct-limit-zero",
        "bchi-prime-limit-without-cross-check", "scan-T5.1-rmax-zero",
        "scan-T5.1-kmax-negative"])
def test_negative_sizes_are_usage_errors(capsys, argv):
    code, out, err = run(capsys, *argv)
    assert code == 2 and out == "" and err.startswith("usage error: ")


ARTIN_H = '{"num":[1,-1,-1],"den":[1,-1]}'


@pytest.mark.parametrize("argv, message", [
    (("constant", "--h", ARTIN_H, "--direct-limit", "0"), "--direct-limit must be >= 2, got 0"),
    (("constant", "--h", ARTIN_H, "--direct-limit", "1"), "--direct-limit must be >= 2, got 1"),
    (("constant", "--h", ARTIN_H, "--direct-limit", "-5"),
     "--direct-limit must be >= 2, got -5"),
    (("constant", "--h", ARTIN_H, "--m", "3", "--direct-limit", "5"),
     "--direct-limit 5 must exceed p_3 = 5, the last removed prime"),
    (("bchi", "--kronecker", "-4", "--digits", "4", "--cross-check", "--prime-limit", "1"),
     "--prime-limit must be >= 2, got 1"),
], ids=["direct-limit-0", "direct-limit-1", "direct-limit-negative",
        "direct-limit-at-removed-prime", "bchi-prime-limit-1"])
def test_prime_limits_are_usage_errors_naming_the_option(capsys, argv, message):
    assert run(capsys, *argv) == (2, "", f"usage error: {message}\n")


def test_direct_limit_just_past_the_removed_primes_is_accepted(capsys):
    code, out, _ = run(capsys, "constant", "--h", ARTIN_H, "--m", "3", "--digits", "6",
                       "--direct-limit", "7")
    assert code == 0 and json.loads(out)["direct"]["cutoff"] == 7


@pytest.mark.parametrize("argv, message", [
    (("necklace", "--alpha", "2"), "necklace needs --content, or --alpha with --n"),
    (("necklace", "--n", "6"), "necklace needs --content, or --alpha with --n"),
    (("convergence",), "convergence needs --f or --ratfun"),
    (("zeta", "--s", "2", "--m", "1", "--a", "1/4"), "zeta takes --m or --a, not both"),
    (("lseries", "--s", "2", "--kronecker", "-4", "--table", "0,1,0,-1"),
     "lseries takes --kronecker or --table, not both"),
    (("bchi", "--kronecker", "-4", "--table", "0,1,0,-1"),
     "bchi takes --kronecker or --table, not both"),
    (("convergence", "--f", '{"order":2,"coeffs":["0","1","0"]}', "--ratfun",
      '{"num":[0,1],"den":[1]}'), "convergence takes --f or --ratfun, not both"),
    (("necklace", "--content", "2,3", "--alpha", "2", "--n", "6"),
     "necklace takes --content or --alpha with --n, not both"),
    (("necklace", "--alpha", "2", "--n", "6", "--vk", "1"), "necklace --vk needs --content"),
], ids=["necklace-no-n", "necklace-no-alpha", "convergence-no-input", "zeta-m-and-a",
        "lseries-kronecker-and-table", "bchi-kronecker-and-table", "convergence-f-and-ratfun",
        "necklace-content-and-alpha", "necklace-vk-without-content"])
def test_missing_inputs_are_usage_errors(capsys, argv, message):
    assert run(capsys, *argv) == (2, "", f"usage error: {message}\n")


coeff_values = st.integers(-10**6, 10**6) | st.fractions(max_denominator=50)
coeff_docs = st.lists(
    st.one_of(st.integers(-10**6, 10**6), coeff_values.map(str)), max_size=10
)
not_array = st.one_of(st.text(max_size=4), st.integers(), st.floats(allow_nan=False),
                      st.none(), st.booleans(), st.dictionaries(st.text(max_size=2),
                                                               st.integers(), max_size=2))
not_int = st.one_of(st.floats(allow_nan=False), st.booleans(), st.text(max_size=4),
                    st.none(), st.lists(st.integers(), max_size=2))


@settings(max_examples=60, deadline=None)
@given(st.integers(0, 12), coeff_docs)
def test_series_documents_round_trip(order, coeffs):
    doc = {"order": order, "coeffs": coeffs}
    f = _series(json.dumps(doc))
    parsed = [Fraction(c) for c in coeffs] + [0] * (order + 1)
    assert f.order == order and list(f.coeffs) == parsed[: order + 1]
    assert _series(json.dumps(f.to_json_dict())) == f


@settings(max_examples=60, deadline=None)
@given(st.integers(0, 6), coeff_docs, st.sampled_from(["coeffs", "order", "element"]),
       st.data())
def test_malformed_series_documents_raise(order, coeffs, where, data):
    doc = {"order": order, "coeffs": coeffs}
    if where == "coeffs":
        doc["coeffs"] = data.draw(not_array)
    elif where == "order":
        doc["order"] = data.draw(not_int)
    else:
        bad = data.draw(not_int.filter(lambda x: not isinstance(x, str))
                        | st.sampled_from(["", "1/0", "x", "1.5", "1/2/3"]))
        doc["coeffs"] = coeffs + [bad]
    with pytest.raises(ValueError):
        _series(json.dumps(doc))


int_lists = st.lists(st.integers(-10**9, 10**9), max_size=6)


@settings(max_examples=60, deadline=None)
@given(int_lists, st.integers(-9, 9).filter(bool), int_lists)
def test_ratfun_documents_round_trip(num, den0, den_rest):
    doc = {"num": num, "den": [den0] + den_rest}
    h = _ratfun(json.dumps(doc))
    assert h == RationalFunction(num, [den0] + den_rest)
    assert json.loads(json.dumps(h.to_json_dict())) == doc
    assert _ratfun(json.dumps(h.to_json_dict())) == h


@settings(max_examples=60, deadline=None)
@given(int_lists, int_lists, st.sampled_from(["num", "den"]),
       st.booleans(), st.data())
def test_malformed_ratfun_documents_raise(num, den, key, whole, data):
    doc = {"num": num, "den": [1] + den}
    if whole:
        doc[key] = data.draw(not_array)
    else:
        doc[key] = doc[key] + [data.draw(not_int)]
    with pytest.raises(ValueError):
        _ratfun(json.dumps(doc))


ARABIC_DIGITS = str.maketrans("0123456789", "\u0660\u0661\u0662\u0663\u0664"
                              "\u0665\u0666\u0667\u0668\u0669")
not_decimal_int = st.one_of(
    st.sampled_from(["", " ", "x", "+", "--1", "0x10", "1e3", "1/2", "\u0663"]),
    st.integers(1000, 10**9).map(lambda n: f"{n:_}"),
    st.integers(0, 10**9).map(lambda n: str(n).translate(ARABIC_DIGITS)),
    st.integers(-10**9, 10**9).map(lambda n: f"{n}.0"),
)


@settings(max_examples=60, deadline=None)
@given(st.lists(st.integers(-10**9, 10**9), min_size=1, max_size=8), st.booleans())
def test_content_lists_round_trip(xs, spaced):
    assert _content((", " if spaced else ",").join(map(str, xs))) == xs


@settings(max_examples=60, deadline=None)
@given(st.lists(st.integers(0, 9), max_size=6), st.integers(0, 6), not_decimal_int)
def test_malformed_content_lists_are_usage_errors(xs, where, bad):
    items = [str(x) for x in xs]
    items.insert(where % (len(items) + 1), bad)
    arg = ",".join(items)
    with pytest.raises(ValueError):
        _content(arg)
    assert main(["necklace", "--content", arg]) == 2


@settings(max_examples=60, deadline=None)
@given(st.integers(-10**12, 10**12))
def test_kronecker_arguments_round_trip(d):
    assert _int(str(d)) == _int(f" {d} ") == d
    assert _int(f"+{abs(d)}") == abs(d)


@settings(max_examples=60, deadline=None)
@given(not_decimal_int)
def test_malformed_kronecker_is_usage_error(bad):
    with pytest.raises(ValueError):
        _int(bad)
    assert main(["lseries", "--s", "2", "--kronecker", bad]) == 2


@settings(max_examples=60, deadline=None)
@given(st.integers(-10**12, 10**12), st.integers(1, 10**12))
def test_fraction_arguments_round_trip(p, q):
    assert _rational(f"{p}/{q}") == Fraction(p, q)
    assert _rational(f" {p} ") == p


@settings(max_examples=60, deadline=None)
@given(st.integers(0, 10**6), st.integers(1, 10**6), st.sampled_from(
    ["{p}/0", "{p}_0/{q}", "{p}/{q}_0", "{p}/{q}/1", "{p}.5/{q}", "{p}/-{q}",
     "/{q}", "{p}/", "{p} / {q}", "{a}/{q}", "{p}/{a}"]))
def test_malformed_fractions_are_usage_errors(p, q, form):
    bad = form.format(p=p, q=q, a=str(p).translate(ARABIC_DIGITS))
    with pytest.raises(ValueError):
        _rational(bad)
    assert main(["zeta", "--s", "2", "--a", bad]) == 2
