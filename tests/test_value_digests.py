"""The printed analytic values, verify reports, transforms and series
powers, and the refusals, match their pinned digests.

The case list and the digest of each case's text live in value_digests.py
and value_digests.json; `python tests/value_digests.py` regenerates the
file and prints what changed, and with --check only prints it.
"""

import json

import pytest
from value_digests import (
    CASES,
    DIGESTS,
    EXPANSION_CASES,
    SCAN_CASES,
    SCRIPT_CASES,
    VERIFY_CASES,
    case_id,
    case_text,
    digests,
    main,
)
from wittkit.witt import IDENTITY_IDS, SCAN_FAMILIES


def test_every_case_is_pinned_once():
    # the script-only cases are pinned in the same file, not recomputed here
    ids = [case_id(case) for case in CASES + SCRIPT_CASES]
    assert len(set(ids)) == len(ids)
    assert sorted(ids) == sorted(json.loads(DIGESTS.read_text()))


def test_printed_values_match_their_digests():
    pinned = json.loads(DIGESTS.read_text())
    changed = [key for key, digest in digests().items() if pinned.get(key) != digest]
    assert changed == []


def test_verify_group_covers_every_identity_and_input_kind():
    assert {case[1] for case in VERIFY_CASES if case[0] == "verify"} == set(IDENTITY_IDS)
    assert {case[0] for case in VERIFY_CASES} == {"verify", "witt_transform", "c_transform", "pow"}
    series = [case[2] if case[0] == "verify" else case[1] for case in VERIFY_CASES]
    coeffs = [spec[0] for spec in series if spec is not None]
    assert any(isinstance(c, str) and "/" in c for cs in coeffs for c in cs)  # Fraction f
    assert any(cs[0] == 0 for cs in coeffs)  # f(0) = 0


def test_scan_group_covers_every_family_table_inversion_and_refusal():
    scans = [case for case in SCAN_CASES if case[0] == "scan"]
    assert {case[2] for case in scans} == set(SCAN_FAMILIES)
    texts = [case_text(case) for case in scans]
    reports = [json.loads(t) for t in texts if t.startswith("{")]
    assert {rep["family"] for rep in reports} == set(SCAN_FAMILIES)
    assert any(t.startswith("PreconditionError: T5.1: coefficients must be integers")
               for t in texts)
    assert any(t.startswith("ValueError:") and "holds no comparison" in t for t in texts)
    tables = [case[1] for case in SCAN_CASES if case[0] == "witt_table"]
    assert any(isinstance(c, str) for f in tables for c in f[0])  # Fraction f
    assert any(all(isinstance(c, int) for c in f[0]) for f in tables)
    assert len({case[2:] for case in SCAN_CASES if case[0] == "witt_table"}) == 2
    assert {case[0] for case in SCAN_CASES} == {
        "scan", "witt_table", "moebius_invert_series", "moebius_sum_series"}


def test_expansion_group_covers_every_kernel_and_input_kind():
    assert {case[0] for case in EXPANSION_CASES} == {
        "recip", "expand", "reconstruct_1d", "reconstruct_2d", "cyclotomic_check",
        "euler_product", "convergence"}
    u0 = [case[1][0][0] for case in EXPANSION_CASES if case[0] == "recip"]
    assert {1, -1} & set(u0) and {2, -3, 4, 6} & set(u0) and 0 in u0
    assert any(isinstance(c, str) for c in u0)  # Fraction series
    assert {case[3] for case in EXPANSION_CASES if case[0] == "expand"} == {2, 64, 600}
    kinds = [case[1][1] is None for case in EXPANSION_CASES if case[0] == "convergence"]
    assert True in kinds and False in kinds  # rational and truncated f


@pytest.mark.parametrize("argv", [["--bogus"], ["extra"], ["--help"]])
def test_the_script_refuses_other_arguments_and_writes_nothing(argv, capsys):
    before = DIGESTS.stat().st_mtime_ns
    with pytest.raises(SystemExit) as exit_:
        main(argv)
    assert exit_.value.code == (0 if argv == ["--help"] else 2)
    out, err = capsys.readouterr()
    assert "--check" in (out if argv == ["--help"] else err)  # the usage line
    assert DIGESTS.stat().st_mtime_ns == before
