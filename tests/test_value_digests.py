"""The printed analytic values, verify reports, transforms and series
powers, and the refusals, match their pinned digests.

The case list and the digest of each case's text live in value_digests.py
and value_digests.json; `python tests/value_digests.py` regenerates the
file and prints what changed.
"""

import json

from value_digests import CASES, DIGESTS, VERIFY_CASES, case_id, digests
from wittkit.witt import IDENTITY_IDS


def test_every_case_is_pinned_once():
    ids = [case_id(case) for case in CASES]
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
