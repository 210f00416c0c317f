from itertools import product

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from wittkit.errors import BudgetExceededError
from wittkit.necklace import necklace_count
from wittkit.words import aperiodic_count, is_lyndon, lyndon_words, lyndon_words_naive


def _contents(max_total, max_letters):
    """Every content (n_1, ..., n_r) with r <= max_letters and 1 <= total <= max_total."""
    for r in range(1, max_letters + 1):
        for parts in product(range(max_total + 1), repeat=r):
            if 1 <= sum(parts) <= max_total:
                yield parts


def _brute_lyndon(max_total, max_letters):
    """Lyndon words by content, from is_lyndon over every word on 1..r."""
    found = {parts: [] for parts in _contents(max_total, max_letters)}
    for r in range(1, max_letters + 1):
        for n in range(1, max_total + 1):
            for w in product(range(1, r + 1), repeat=n):
                if is_lyndon(w):
                    found[tuple(w.count(i) for i in range(1, r + 1))].append(w)
    return found


def test_is_lyndon_examples():
    assert is_lyndon((1, 1, 2))
    assert not is_lyndon((2, 1))
    assert not is_lyndon((1, 2, 1, 2))
    assert is_lyndon((1,))
    assert not is_lyndon((1, 1))
    with pytest.raises(ValueError):
        is_lyndon(())


def test_lyndon_words_order_and_completeness():
    # lexicographic, and exactly the Lyndon words of each content
    for parts, brute in _brute_lyndon(7, 3).items():
        assert lyndon_words(parts) == sorted(brute), parts
    assert lyndon_words((2, 1)) == [(1, 1, 2)]
    assert lyndon_words((1, 2)) == [(1, 2, 2)]


def test_lyndon_words_examples():
    assert lyndon_words([1, 1]) == [(1, 2)]
    assert lyndon_words([2, 2]) == [(1, 1, 2, 2)]
    assert lyndon_words([1, 2]) == [(1, 2, 2)]
    assert lyndon_words([0, 2]) == []


def test_lyndon_extension():
    # appending the top letter to a Lyndon word stays Lyndon
    top = 3
    for parts in _contents(7, 3):
        if len(parts) < top:
            continue
        longer = set(lyndon_words(parts[:-1] + (parts[-1] + 1,)))
        for w in lyndon_words(parts):
            if w != (top,):
                assert is_lyndon(w + (top,)) and w + (top,) in longer, w


def test_naive_oracle_agrees():
    for parts in [(1, 1), (2, 2), (1, 2), (2, 3), (1, 1, 1), (2, 2, 2), (3, 2, 1)]:
        assert lyndon_words(parts) == lyndon_words_naive(parts)
    with pytest.raises(BudgetExceededError):
        lyndon_words_naive((8, 8), budget=10)


def test_aperiodic_count_examples():
    assert aperiodic_count([2, 3]) == 2
    assert aperiodic_count([1, 1, 1]) == 2
    for m in range(2, 7):
        assert aperiodic_count([m]) == 0
    assert aperiodic_count([1]) == 1


def test_aperiodic_budget():
    with pytest.raises(BudgetExceededError):
        aperiodic_count([8, 8])
    assert aperiodic_count([8, 8], budget=16) == necklace_count([8, 8])
    # the listing shares the enumerator and its budget
    with pytest.raises(BudgetExceededError, match="budget 14"):
        lyndon_words([20, 20])
    assert len(lyndon_words([8, 8], budget=16)) == necklace_count([8, 8])
    # a negative budget is a usage error, not an exceeded budget
    for enumerate_words in (aperiodic_count, lyndon_words):
        with pytest.raises(ValueError, match="budget must be >= 0"):
            enumerate_words([2, 3], budget=-1)


def test_long_words_do_not_recurse():
    # one letter against 1200 copies of another: a single Lyndon word
    assert aperiodic_count([1200, 1], budget=1201) == 1
    assert lyndon_words([1, 1200], budget=1201) == [(1,) + (2,) * 1200]
    assert aperiodic_count([0, 1200], budget=1200) == 0


def test_invalid_contents():
    for bad in ([], [0, 0], [-1, 3]):
        with pytest.raises(ValueError):
            aperiodic_count(bad)
        with pytest.raises(ValueError):
            lyndon_words(bad)


def test_aperiodic_count_matches_lyndon_listing():
    for parts in [(1, 1), (2, 2), (2, 3), (4, 3), (1, 2, 3), (2, 2, 2)]:
        assert aperiodic_count(parts) == len(lyndon_words(parts)), parts


@settings(max_examples=50, deadline=None)
@given(st.lists(st.integers(0, 3), min_size=1, max_size=3).filter(
    lambda c: 1 <= sum(c) <= 8))
def test_three_routes_agree(parts):
    count = necklace_count(parts)
    assert aperiodic_count(parts) == count
    assert len(lyndon_words_naive(parts)) == count
