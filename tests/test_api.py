"""The package's public surface: exports that resolve, no settings read
from the environment, and the import boundaries the design relies on."""

import ast
import importlib
import os
import re
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import pytest

import wittkit
from wittkit import analytic, series, suites, witt
from wittkit.analytic import hurwitz_zeta, partial_zeta, zeta
from wittkit.arith import bernoulli, divisors
from wittkit.characters import RealDirichletCharacter
from wittkit.errors import BudgetExceededError
from wittkit.expansion import BiSeries, peel_1d
from wittkit.necklace import necklace_closed, necklace_count, v_count
from wittkit.series import RationalFunction, TruncatedSeries
from wittkit.words import lyndon_words_naive

SRC = Path(wittkit.__file__).parent


def test_all_names_resolve_without_duplicates():
    assert len(wittkit.__all__) == len(set(wittkit.__all__))
    missing = [name for name in wittkit.__all__ if not hasattr(wittkit, name)]
    assert missing == []


def test_every_module_all_resolves():
    stale = []
    for path in sorted(SRC.glob("*.py")):
        if path.stem == "__init__":
            continue
        module = importlib.import_module(f"wittkit.{path.stem}")
        names = getattr(module, "__all__", [])
        assert len(names) == len(set(names)), path.name
        stale += [f"{path.stem}.{name}" for name in names if not hasattr(module, name)]
    assert stale == []


def test_no_module_reads_the_environment():
    readers = []
    for path in sorted(SRC.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text())):
            name = (getattr(node, "attr", None) or getattr(node, "id", None)
                    or getattr(node, "name", None))
            if name in ("environ", "getenv", "environb", "getenvb"):
                readers.append(f"{path.name}:{node.lineno}")
    assert readers == []


def test_no_module_imports_dataclasses():
    # the records come from wittkit._record; dataclasses would pull in
    # inspect and exec-compile every method at import time
    importers = []
    for path in sorted(SRC.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.Import):
                names = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom):
                names = [node.module or ""]
            else:
                continue
            if any(name.split(".")[0] == "dataclasses" for name in names):
                importers.append(f"{path.name}:{node.lineno}")
    assert importers == []


def _fresh(statement, expression):
    """The value of expression after statement, in a new interpreter on this src."""
    env = dict(os.environ, PYTHONPATH=str(SRC.parent))
    probe = f"import sys; {statement}print(repr({expression}))"
    out = subprocess.run([sys.executable, "-c", probe], env=env, capture_output=True, text=True,
                         check=True, timeout=60).stdout
    return ast.literal_eval(out)


def test_importing_the_cli_loads_neither_dataclasses_nor_inspect():
    # compared with a bare interpreter, so that modules a site hook loads
    # in every interpreter do not count against the package
    modules = "sorted(sys.modules)"
    added = set(_fresh("import wittkit.cli; ", modules)) - set(_fresh("", modules))
    assert "wittkit.cli" in added
    assert {"dataclasses", "inspect"} & added == set()


def test_the_cli_ends_its_process_in_one_place_and_starts_no_thread():
    # cli.entry ends a process with os._exit, which skips threading's join
    # of non-daemon threads, so importing the CLI must start none; main
    # returns its code to a program that embeds it
    exits = []
    for path in sorted(SRC.glob("*.py")):
        tree = ast.parse(path.read_text())
        # ast.walk reaches an outer function before its inner ones
        owner = {id(node): func.name for func in ast.walk(tree)
                 if isinstance(func, ast.FunctionDef) for node in ast.walk(func)}
        exits += [(path.name, owner.get(id(call), "<module>")) for call in ast.walk(tree)
                  if isinstance(call, ast.Call) and getattr(call.func, "attr", None) == "_exit"]
    assert exits == [("cli.py", "entry")]
    threads = "[t.name for t in threading.enumerate()]"
    assert _fresh("import threading, wittkit.cli; ", threads) == _fresh("import threading; ",
                                                                      threads)


_ONE_PLUS_Z = TruncatedSeries([1, 1], 4)


@pytest.mark.parametrize("call, error, message", [
    (lambda: witt.witt_table(_ONE_PLUS_Z, 0), ValueError, "table order must be >= 1, got 0"),
    (lambda: witt.monotonicity_scan(None, "T5.1"), ValueError, "family T5.1 requires a series"),
    (lambda: witt.monotonicity_scan(_ONE_PLUS_Z, "T5.1", kmax=8), ValueError,
     "series order 4 < kmax 8"),
    (lambda: BiSeries.one_minus_y_times(_ONE_PLUS_Z, 6, 2), ValueError,
     "series order 4 below grid degree 6"),
    (lambda: BiSeries.one_minus_y_times(TruncatedSeries([0, "1/2"], 6), 6, 2), ValueError,
     "integer coefficients required"),
    (lambda: BiSeries.one(2, 2).truncate(3, 2), ValueError,
     "cannot extend a grid; higher coefficients unknown"),
    (lambda: v_count([0, 0], 1), ValueError, "v_count requires a nonzero content"),
    (lambda: necklace_closed(-1, 1), ValueError, "m must be >= 0, got -1"),
    (lambda: necklace_count([2, -1]), ValueError, "content must be non-negative, got (2, -1)"),
    (lambda: lyndon_words_naive([0, 0]), ValueError,
     "lyndon_words_naive requires a nonzero content"),
    (lambda: divisors(0), ValueError, "divisors requires n >= 1, got 0"),
    (lambda: bernoulli(-1), ValueError, "bernoulli requires k >= 0, got -1"),
    (lambda: suites.verify_all("bogus", 1), ValueError,
     "unknown scope 'bogus'; known: ('combinatorial', 'identities', 'expansion', 'analytic')"),
    (lambda: peel_1d(_ONE_PLUS_Z).e(0), IndexError, "n=0 outside 1..4"),
    (lambda: witt.witt_table(_ONE_PLUS_Z, 2).m(0, 0), IndexError, "row r=0 outside 1..2"),
    (lambda: _ONE_PLUS_Z.coeff(9), IndexError, "coefficient 9 outside stored range 0..4"),
    (lambda: TruncatedSeries([1], -1), ValueError, "series order must be >= 0"),
    (lambda: _ONE_PLUS_Z.divexact(0), ZeroDivisionError, "divexact by zero"),
    (lambda: partial_zeta(-1, 2, 10), ValueError, "m must be >= 0, got -1"),
    (lambda: hurwitz_zeta(1, "1/2", 10), ValueError, "hurwitz_zeta requires s >= 2, got 1"),
    (lambda: zeta(2, 0), ValueError, "digits must be >= 1, got 0"),
    (lambda: hurwitz_zeta(400000, "1/3", 10), BudgetExceededError,
     "s times the digits of a's denominator, 400000 * 1 = 400000, "
     "exceed the budget of 2000 digits"),
], ids=["witt_table-order-0", "scan-without-series", "scan-short-series",
        "grid-beyond-series", "grid-of-fractions", "grid-extended", "v_count-zero-content",
        "necklace_closed-negative", "necklace_count-negative", "lyndon-zero-content",
        "divisors-0", "bernoulli-negative", "verify_all-unknown-scope", "expansion-e-0",
        "witt-table-m-row-0", "series-coeff-9", "series-negative-order", "divexact-0",
        "partial_zeta-negative-m", "hurwitz_zeta-s-1", "zeta-digits-0",
        "hurwitz_zeta-magnitude"])
def test_public_refusals_name_their_limit(call, error, message):
    with pytest.raises(error, match=f"^{re.escape(message)}$"):
        call()


def test_analytic_does_not_import_witt():
    # b_chi takes its exponents from one-variable rational functions; neither
    # the two-variable Witt table nor a necklace correction may come back
    # into the constants path
    imported = []
    for node in ast.walk(ast.parse((SRC / "analytic.py").read_text())):
        if isinstance(node, ast.ImportFrom):
            imported.append("." * node.level + (node.module or ""))
            imported += ["." * node.level + alias.name for alias in node.names]
        elif isinstance(node, ast.Import):
            imported += [alias.name for alias in node.names]
    assert not [name for name in imported if name.split(".")[-1] in ("witt", "necklace")]


def test_dirichlet_sums_come_from_hurwitz_zeta_alone():
    # zeta, partial_zeta, l_series, euler_product and b_chi all take their
    # values from _l_minus_1, which takes every character through its
    # primitive one and sums S(s, q, a) for none: Euler-Maclaurin serves
    # Hurwitz zeta alone, and a route of the kernel through it must not return
    callers = set()
    for node in ast.walk(ast.parse((SRC / "analytic.py").read_text())):
        if isinstance(node, ast.FunctionDef):
            callers |= {node.name for call in ast.walk(node) if isinstance(call, ast.Call)
                        and getattr(call.func, "id", None) == "_dirichlet_sum"}
    assert callers == {"hurwitz_zeta"}


def test_one_tail_rule_and_one_euler_maclaurin_routine():
    # _tail_end alone finds the least K whose integral tail is below target,
    # for the rough sum and for the Euler-Maclaurin cut, and _dirichlet_sum
    # alone adds the corrections: beside the even-zeta closed form it is the
    # only reader of Bernoulli numbers; no attempt layer or float cut comes back
    defined, callers = set(), {"_tail_end": set(), "bernoulli": set()}
    for node in ast.walk(ast.parse((SRC / "analytic.py").read_text())):
        if isinstance(node, ast.FunctionDef):
            defined.add(node.name)
            for call in ast.walk(node):
                name = getattr(call.func, "id", None) if isinstance(call, ast.Call) else None
                if name in callers:
                    callers[name].add(node.name)
    assert {"_em_attempt", "_rough_end"} & defined == set()
    assert callers == {"_tail_end": {"_l_minus_1", "_dirichlet_sum"},
                       "bernoulli": {"_dirichlet_sum", "_even_zeta_minus_1"}}


def test_one_settling_helper_settles_every_float_guess():
    # _settle(test, lo, guess) alone turns a float guess into the least n
    # above lo that passes an exact test: the tail rule's K, the Chebyshev
    # weights' n, and the root bound's binade and grid point.  None of them
    # steps by one from its guess any more
    tree = ast.parse((SRC / "analytic.py").read_text())
    tops = {node.name: node for node in tree.body
            if isinstance(node, (ast.FunctionDef, ast.ClassDef))}
    callers = {name for name, node in tops.items()
               if any(isinstance(call, ast.Call) and getattr(call.func, "id", None) == "_settle"
                      for call in ast.walk(node))}
    assert callers == {"_tail_end", "_ChebyshevWeights", "_root_bound"}
    assert [arg.arg for arg in tops["_settle"].args.args] == ["test", "lo", "guess"]
    for name in callers:
        steps = [ast.unparse(node) for node in ast.walk(tops[name])
                 if isinstance(node, ast.AugAssign) and isinstance(node.value, ast.Constant)
                 and node.value.value == 1]
        assert steps == [], name


def _calls_by_function(name, path="analytic.py"):
    """The functions of a module whose bodies call `name`."""
    return {node.name for node in ast.walk(ast.parse((SRC / path).read_text()))
            if isinstance(node, ast.FunctionDef)
            and any(isinstance(call, ast.Call) and getattr(call.func, "id", None) == name
                    for call in ast.walk(node))}


def _names_defined(tree):
    """The functions and classes of a module, and its top-level assignments."""
    for node in ast.walk(tree):
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            yield node.name
    for node in tree.body:
        targets = node.targets if isinstance(node, ast.Assign) else [getattr(node, "target", None)]
        yield from (target.id for target in targets if isinstance(target, ast.Name))


def test_analytic_keeps_no_module_level_coefficient_table():
    # Euler-Maclaurin reads B_2j from the Bernoulli cache in arith and keeps
    # (2j)! as a running product: analytic rebinds no module state, and its
    # module-level names are its constants alone
    tree = ast.parse((SRC / "analytic.py").read_text())
    assert not [node for node in ast.walk(tree) if isinstance(node, ast.Global)]
    defs = {node.name for node in ast.walk(tree)
            if isinstance(node, (ast.FunctionDef, ast.ClassDef))}
    assert set(_names_defined(tree)) - defs == {
        "__all__", "GUARD_DIGITS", "_EXACT_PRIMES", "DIGIT_BUDGET", "_UNROUNDED", "_LOG10_2",
        "_ONE", "_BCHI_H"}


def test_pi_is_computed_once_in_arith():
    # Machin's series in arith is the library's one pi, which only the
    # closed form for even zeta reads; suites.PI_50 stays a literal, so the
    # battery's "zeta(2) vs pi^2/6" check does not rest on that series
    named, borrowed = set(), []
    pattern = re.compile(r"(^|_)pi(_|\d|$)", re.IGNORECASE)
    for path in sorted(SRC.glob("*.py")):
        tree = ast.parse(path.read_text())
        named |= {(path.stem, name) for name in _names_defined(tree) if pattern.search(name)}
        borrowed += [ast.unparse(node) for node in ast.walk(tree)
                     if isinstance(node, ast.Attribute) and node.attr == "pi"
                     or isinstance(node, ast.alias) and node.name == "pi"]
    assert named == {("arith", "pi_fixed"), ("arith", "_pi"), ("suites", "PI_50")}
    assert borrowed == []
    literal = next(node.value for node in ast.parse((SRC / "suites.py").read_text()).body
                   if isinstance(node, ast.Assign) and node.targets[0].id == "PI_50")
    assert isinstance(literal.args[0], ast.Constant) and literal.func.id == "Decimal"
    assert _calls_by_function("pi_fixed") == {"_even_zeta_minus_1"}


def test_the_closed_form_and_the_power_row_serve_the_one_kernel():
    # the even-zeta closed form and the alternating sums are routes of
    # _l_minus_1; one row class, _Row, holds every sum's powers: every
    # direct sum (the rough sum and Euler-Maclaurin's terms below the cut)
    # reads a power row from _power_row, and every alternating sum reads
    # the alternating rows on the Chebyshev weights that _RoughNumbers
    # holds: no per-call division routine returns beside the rows, and
    # floor(x / k^s), a floor by a power of exponent s, is left only in the
    # row and in the removed factors
    tree = ast.parse((SRC / "analytic.py").read_text())
    defined = set(_names_defined(tree))
    assert "_power_sum" not in defined and {"_Row", "_power_row", "_even_zeta_minus_1"} <= defined
    assert {name for name in defined if name.endswith("Row")} == {"_Row"}
    assert _calls_by_function("_even_zeta_minus_1") == {"_l_minus_1"}
    assert _calls_by_function("_alternating_minus_1") == {"_l_minus_1"}
    assert _calls_by_function("_Row") == {"_power_row", "alternating"}
    assert _calls_by_function("_power_row") == {"_dirichlet_sum", "_l_minus_1",
                                                "_twisted_product"}
    assert _calls_by_function("_ChebyshevWeights") == {"alternating"}
    read = {node.name for node in ast.walk(tree) if isinstance(node, ast.FunctionDef)
            for call in ast.walk(node) if isinstance(call, ast.Call)
            and getattr(call.func, "attr", None) in ("at", "alternating")}
    assert read == {"_dirichlet_sum", "_l_minus_1", "alternating", "_alternating_minus_1"}
    floors = {node.name for node in ast.walk(tree) if isinstance(node, ast.FunctionDef)
              for op in ast.walk(node) if isinstance(op, ast.BinOp)
              and isinstance(op.op, ast.FloorDiv) and isinstance(op.right, ast.BinOp)
              and isinstance(op.right.op, ast.Pow)
              and "s" in {name.id for name in ast.walk(op.right.right)
                          if isinstance(name, ast.Name)}}
    assert floors == {"at", "_l_minus_1"}


def test_the_l_value_kernel_runs_in_one_number_format():
    # the rows, Euler-Maclaurin (Bernoulli numbers by their numerator
    # and denominator), the closed form, the kernel _l_minus_1 and the
    # planner's logarithm compute on ints alone; _l_value and hurwitz_zeta
    # convert their kernel's int to Decimal once each, and the planner its
    # sum of logarithms
    tree = ast.parse((SRC / "analytic.py").read_text())
    nodes = {node.name: node for node in ast.walk(tree)
             if isinstance(node, (ast.FunctionDef, ast.ClassDef))}
    for name in ("_Row", "_power_row", "_dirichlet_sum", "_even_zeta_minus_1",
                 "_ChebyshevWeights", "_alternating_minus_1", "_l_minus_1", "_log1p"):
        named = {node.id for node in ast.walk(nodes[name]) if isinstance(node, ast.Name)}
        assert {"Decimal", "localcontext", "Fraction", "float"} & named == set(), name
    for name in ("_l_value", "hurwitz_zeta", "_twisted_product"):
        made = [ast.unparse(call) for call in ast.walk(nodes[name]) if isinstance(call, ast.Call)
                and getattr(call.func, "id", None) == "Decimal"]
        named = {node.id for node in ast.walk(nodes[name]) if isinstance(node, ast.Name)}
        if name == "_twisted_product":  # Decimal(0): the tail of a product that terminates
            made = [text for text in made if text != "Decimal(0)"]
        # _l_value and _twisted_product open a context for _quantize and exp
        assert len(made) == 1 and (name != "hurwitz_zeta" or "localcontext" not in named), name
    assert "_ln1p" not in nodes


def test_the_cli_prints_only_in_main():
    # each subcommand's handler returns its object; main alone prints it or
    # the error object, so the exit rule is decided in one place
    printers = []
    for node in ast.walk(ast.parse((SRC / "cli.py").read_text())):
        if isinstance(node, ast.FunctionDef):
            printers += [(node.name, call.func.id) for call in ast.walk(node)
                         if isinstance(call, ast.Call)
                         and getattr(call.func, "id", None) in ("_emit", "print")]
    assert sorted(printers) == [("main", "_emit"), ("main", "_emit"), ("main", "print"),
                                ("main", "print")]


def test_l_value_kernel_keeps_its_euler_factors_in_fixed_point():
    # the removed Euler factors P are an integer product converted once, and
    # the kernel sieves nothing itself: the primes p_1, ..., p_m and the
    # rough k come in one _RoughNumbers, which the planner builds once and
    # shares across its L-values
    called = []
    for node in ast.walk(ast.parse((SRC / "analytic.py").read_text())):
        if isinstance(node, ast.FunctionDef) and node.name == "_l_minus_1":
            called = [getattr(call.func, "id", None) or getattr(call.func, "attr", None)
                      for call in ast.walk(node) if isinstance(call, ast.Call)]
    assert called and {"Fraction", "_dec_frac"} & set(called) == set()
    assert {"primes_up_to", "nth_prime", "gcd"} & set(called) == set()


def test_both_cross_checks_take_the_one_direct_product():
    # euler_product_direct, b_chi_direct and the planner's p | q
    # multiply h(chi(p), 1/p) prime by prime in _twisted_direct, which also
    # gives both cross-checks their tail; a second such loop must not return
    callers, defined, planner_loops = set(), set(), []
    for node in ast.walk(ast.parse((SRC / "analytic.py").read_text())):
        if isinstance(node, ast.FunctionDef):
            defined.add(node.name)
            callers |= {node.name for call in ast.walk(node) if isinstance(call, ast.Call)
                        and getattr(call.func, "id", None) == "_twisted_direct"}
            if node.name == "_twisted_product":
                planner_loops = [ast.unparse(loop.iter) for loop in ast.walk(node)
                                 if isinstance(loop, ast.For)]
    assert callers == {"euler_product_direct", "b_chi_direct", "_twisted_product"}
    assert {"_b_chi_direct", "_dec_frac"} & defined == set()
    assert planner_loops == ["terms.items()"]  # the L-values, and no loop over primes


def test_every_euler_product_returns_the_one_constant_record():
    # one record for every Euler product: no BChiResult class and no
    # cross_check_limit knob (b_chi_direct is b_chi's cross-check)
    functions = {}
    for path in sorted(SRC.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.ClassDef):
                assert node.name != "BChiResult", path.name
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                names = [a.arg for a in ast.walk(node.args) if isinstance(a, ast.arg)]
                assert "cross_check_limit" not in names, (path.name, node.name)
                if path.stem == "analytic":
                    functions[node.name] = node
    args = functions["b_chi"].args
    assert [a.arg for a in args.args] == ["chi", "digits"]
    assert not (args.vararg or args.kwonlyargs or args.kwarg)
    returns = {name: ast.unparse(functions[name].returns) for name in
               ("euler_product", "euler_product_direct", "b_chi", "b_chi_direct")}
    assert set(returns.values()) == {"ConstantResult"}


def test_cyclotomic_check_compares_exponents_and_rebuilds_no_product():
    # by unique factorization the identity is checked on exponents, the
    # Witt table against the peel of 1 - y f; multiplying the product back
    # out (8002 full-grid factor copies at (200, 40)) must not come back
    called = set()
    for node in ast.walk(ast.parse((SRC / "expansion.py").read_text())):
        if isinstance(node, ast.FunctionDef) and node.name == "cyclotomic_check":
            called = {getattr(call.func, "id", None) or getattr(call.func, "attr", None)
                      for call in ast.walk(node) if isinstance(call, ast.Call)}
    assert {"witt_table", "peel_2d"} <= called
    assert {"reconstruct_2d", "_mul_factor", "mul_factor"} & called == set()


def test_every_series_power_comes_from_millers_recurrence(monkeypatch):
    # recip is Miller's recurrence at k = -1, one call with no loop of its
    # own, and the factor kernel's binomials are the recurrence's two-term
    # case inline: neither the convolution loop nor math.comb comes back
    tree = ast.parse((SRC / "series.py").read_text())
    recip = next(node for node in ast.walk(tree)
                 if isinstance(node, ast.FunctionDef) and node.name == "recip")
    assert not [node for node in ast.walk(recip)
                if isinstance(node, (ast.For, ast.While, ast.comprehension))]
    calls = []
    power = series._power_coeffs
    monkeypatch.setattr(series, "_power_coeffs",
                        lambda a, k, *args: calls.append(k) or power(a, k, *args))
    f = TruncatedSeries([2, 3, -1, 5], 9)
    assert f * f.recip() == TruncatedSeries.one(9)
    assert RationalFunction([1, 3], [2, -1, 5]).expand(40).coeff(0) == Fraction(1, 2)
    assert calls == [-1, -1]
    tree = ast.parse((SRC / "expansion.py").read_text())
    named = {getattr(node, "id", None) or getattr(node, "attr", None) or getattr(node, "name", None)
             for node in ast.walk(tree)}
    assert {"math", "comb", "_binom_term"} & named == set()


def test_every_scan_family_takes_one_table_and_one_rise_test():
    # the nine families are lines of one table (or of one grid of M(c; r))
    # passed to _drops; the signed table of -f is built inline, not by a
    # helper that picks a second table
    defined, called = set(), []
    for node in ast.walk(ast.parse((SRC / "witt.py").read_text())):
        if isinstance(node, ast.FunctionDef):
            defined.add(node.name)
            if node.name == "monotonicity_scan":
                called = [getattr(call.func, "id", None) for call in ast.walk(node)
                          if isinstance(call, ast.Call)]
    assert "_signed_neg_table" not in defined
    assert called.count("witt_table") <= 1
    assert called.count("_drops") == 1


def test_all_eight_identities_take_the_one_mixed_power_kernel(monkeypatch):
    # T3.1-T3.3 are the product and power rules at fixed arguments; a
    # bespoke shift, inversion or sign routine must not come back
    defined = {node.name for node in ast.walk(ast.parse((SRC / "witt.py").read_text()))
               if isinstance(node, ast.FunctionDef)}
    assert {"_shift", "_verify_t31", "_verify_t32", "_verify_t33"} & defined == set()
    reached = []
    kernel = witt._mixed_power_rule
    monkeypatch.setattr(witt, "_mixed_power_rule",
                        lambda ident, *args: reached.append(ident) or kernel(ident, *args))
    f = TruncatedSeries([1, 2, -1], 12)
    given = {"f": f, "g": f + 1, "r": 2, "k": 2, "v": 2, "w": 3,
             "alpha": 2, "beta": 3, "n": 4}
    for ident, (_, names) in witt._IDENTITIES.items():
        assert witt.verify_identity(ident, **{name: given[name] for name in names}).passed
    assert reached == list(witt.IDENTITY_IDS)


def test_one_planner_builds_its_chebyshev_weights_once_and_no_row_twice(monkeypatch):
    # the planner's _RoughNumbers holds one set of weights, sized at its
    # widest precision (the record's working digits) before the first
    # alternating sum, and one alternating row (a _Row on the weights) per
    # progression, which only advances: no row is built twice, serves two
    # progressions or is started again from the weights
    builds, rows, reads = [], [], []

    class Weights(analytic._ChebyshevWeights):
        def __init__(self, prec):
            builds.append(prec)
            super().__init__(prec)

    class Row(analytic._Row):
        def __init__(self, width, starts=None):
            if starts is not None:
                rows.append(self)
            super().__init__(width, starts)

        def at(self, s, bases):
            if self.starts is not None:
                reads.append((self, (bases.step, bases.start), s, self.s))
            return super().at(s, bases)

    monkeypatch.setattr(analytic, "_ChebyshevWeights", Weights)
    monkeypatch.setattr(analytic, "_Row", Row)
    artin = RationalFunction([1, -1, -1], [1, -1])
    for run, progressions in (
            (lambda: analytic.b_chi(RealDirichletCharacter.from_kronecker(5), 60),
             {(1, 1), (5, 1), (5, 2), (5, 3), (5, 4)}),
            (lambda: analytic.b_chi(RealDirichletCharacter.from_kronecker(-4), 60),
             {(1, 1), (2, 1)}),
            (lambda: analytic.euler_product(analytic.EulerProductSpec(artin, 0, 200)),
             {(1, 1)})):
        builds.clear(), rows.clear(), reads.clear()
        result = run()
        served = {(id(row), progression) for row, progression, _, _ in reads}
        assert builds == [result.working_digits]
        assert len(rows) == len(served) == len(progressions)
        assert {p for _, p in served} == progressions
        assert reads and all(s >= before for _, _, s, before in reads)


def test_one_plan_reduces_each_character_once_and_rebuilds_no_power_row(monkeypatch):
    # the planner's _RoughNumbers keeps each character's primitive chi* and
    # removed factors, so one b_chi plan reduces chi and chi^2 once each,
    # however many of their L-values it computes; the power row of the
    # rough k (a _Row without start values) is built once, wide enough for
    # every rough sum, and only advances: no sum finds it too narrow
    # (_power_row returns the row it was given) or at a larger s
    reduced, rows, fits = [], [], []
    primitive, power_row = analytic._primitive, analytic._power_row
    monkeypatch.setattr(analytic, "_primitive", lambda chi: reduced.append(chi) or primitive(chi))

    def wide(row, width, terms):
        new = power_row(row, width, terms)
        if row is not None:
            fits.append(new is row)
        return new

    class Row(analytic._Row):
        def __init__(self, width, starts=None):
            if starts is None:
                rows.append(width)
            super().__init__(width, starts)

        def at(self, s, bases):
            if self.starts is None:
                fits.append(s >= self.s)
            return super().at(s, bases)

    monkeypatch.setattr(analytic, "_power_row", wide)
    monkeypatch.setattr(analytic, "_Row", Row)
    for chi in (RealDirichletCharacter.from_kronecker(-16),
                RealDirichletCharacter.from_values([0, 1, 0, 0, 0, -1]),
                RealDirichletCharacter.from_kronecker(5)):
        reduced.clear(), rows.clear(), fits.clear()
        analytic.b_chi(chi, 60)
        assert len(reduced) == 2 and set(reduced) == {chi, chi.square()}
        assert len(rows) == 1 and fits and all(fits)


def test_bernoulli_numbers_grow_one_tangent_number_at_a_time():
    # the tangent-number column is extended in place as far as asked; a
    # rebuild of every T_j from T_1 must not come back
    defined = {node.name for node in ast.walk(ast.parse((SRC / "arith.py").read_text()))
               if isinstance(node, ast.FunctionDef)}
    assert "bernoulli" in defined
    assert "_tangent_numbers" not in defined


def test_readme_library_tour_runs_as_written():
    # each statement runs in one namespace; a "# -> X" comment on its last
    # line is the repr of its value, where "..." stands for any elided rest
    readme = (SRC.parent.parent / "README.md").read_text()
    block = re.search(r"^## Library quick tour$.*?^```python$(.*?)^```$", readme, re.M | re.S)[1]
    lines, namespace, checked = block.splitlines(), {}, 0
    for node in ast.parse(block).body:
        shown = re.search(r"# -> (.*)$", lines[node.end_lineno - 1])
        if shown is None:
            exec(compile(ast.Module([node], []), "README.md", "exec"), namespace)
            continue
        got = repr(eval(compile(ast.Expression(node.value), "README.md", "eval"), namespace))
        want = ".*".join(map(re.escape, shown[1].split("...")))
        assert re.fullmatch(want, got), (ast.get_source_segment(block, node), got)
        checked += 1
    assert checked == 7


def test_readme_lists_match_the_code():
    readme = (SRC.parent.parent / "README.md").read_text()

    def listed(label):
        match = re.search(re.escape(label) + r": `([^`]*)`", readme)
        assert match, label
        return tuple(match[1].split())

    assert listed("Identity ids for `verify`") == witt.IDENTITY_IDS
    assert listed("Scan families") == witt.SCAN_FAMILIES
    assert listed("`verify-all` scopes") == suites.SCOPES
    options = {ident: tuple(opt.lstrip("-") for opt in opts.split()) for ident, opts
               in re.findall(r"^\| (T\d\.\d) \| `([^`]*)` \|$", readme, re.M)}
    assert options == {ident: names for ident, (_, names) in witt._IDENTITIES.items()}
