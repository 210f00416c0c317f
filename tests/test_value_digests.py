"""The printed analytic values, and the refusals, match their pinned digests.

The case list and the digest of each case's text live in value_digests.py
and value_digests.json; `python tests/value_digests.py` regenerates the
file and prints what changed.
"""

import json

from value_digests import CASES, DIGESTS, case_id, digests


def test_every_case_is_pinned_once():
    ids = [case_id(case) for case in CASES]
    assert len(set(ids)) == len(ids)
    assert sorted(ids) == sorted(json.loads(DIGESTS.read_text()))


def test_printed_values_match_their_digests():
    pinned = json.loads(DIGESTS.read_text())
    changed = [key for key, digest in digests().items() if pinned.get(key) != digest]
    assert changed == []
