"""The package's public surface: exports that resolve, no settings read
from the environment, and the import boundaries the design relies on."""

import ast
import importlib
import os
import re
import subprocess
import sys
from pathlib import Path

import wittkit
from wittkit import suites, witt

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


def test_importing_the_cli_loads_neither_dataclasses_nor_inspect():
    # compared with a bare interpreter, so that modules a site hook loads
    # in every interpreter do not count against the package
    probe = "import sys; {}print(sorted(sys.modules))"
    env = dict(os.environ, PYTHONPATH=str(SRC.parent))

    def loaded(statement):
        out = subprocess.run([sys.executable, "-c", probe.format(statement)], env=env,
                             capture_output=True, text=True, check=True, timeout=60).stdout
        return set(ast.literal_eval(out))

    added = loaded("import wittkit.cli; ") - loaded("")
    assert "wittkit.cli" in added
    assert {"dataclasses", "inspect"} & added == set()


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


def test_dirichlet_sums_come_from_the_l_value_kernel_and_hurwitz_zeta():
    # zeta, partial_zeta, l_series, euler_product and b_chi all take their
    # sums from _l_minus_1; a separate route to S(s, q, a) must not return
    callers = set()
    for node in ast.walk(ast.parse((SRC / "analytic.py").read_text())):
        if isinstance(node, ast.FunctionDef):
            callers |= {node.name for call in ast.walk(node) if isinstance(call, ast.Call)
                        and getattr(call.func, "id", None) == "_dirichlet_sum"}
    assert callers == {"_l_minus_1", "hurwitz_zeta"}


def test_l_value_kernel_keeps_its_euler_factors_in_fixed_point():
    # the removed Euler factors P are an integer product converted once, and
    # the primes p_1, ..., p_(m+1) are sieved once for both routes
    called = []
    for node in ast.walk(ast.parse((SRC / "analytic.py").read_text())):
        if isinstance(node, ast.FunctionDef) and node.name == "_l_minus_1":
            called = [getattr(call.func, "id", None) or getattr(call.func, "attr", None)
                      for call in ast.walk(node) if isinstance(call, ast.Call)]
    assert called and {"Fraction", "_dec_frac"} & set(called) == set()
    assert called.count("primes_up_to") == 1


def test_both_cross_checks_take_the_one_direct_product():
    # euler_product_direct, b_chi's cross-check and the planner's p | q
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
    assert callers == {"euler_product_direct", "b_chi", "_twisted_product"}
    assert {"_b_chi_direct", "_dec_frac"} & defined == set()
    assert planner_loops == ["terms.items()"]  # the L-values, and no loop over primes


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


def test_bernoulli_numbers_grow_one_tangent_number_at_a_time():
    # the tangent-number column is extended in place as far as asked; a
    # rebuild of every T_j from T_1 must not come back
    defined = {node.name for node in ast.walk(ast.parse((SRC / "arith.py").read_text()))
               if isinstance(node, ast.FunctionDef)}
    assert "bernoulli" in defined
    assert "_tangent_numbers" not in defined


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
