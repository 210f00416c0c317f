"""Brute-force word oracle: Lyndon words and aperiodic circular words.

This module is deliberately independent of the closed-form counting in
wittkit.necklace; it enumerates actual words so the Moebius-inversion
formulas can be checked against ground truth.  Letters are the integers
1..r in natural order.

Two routes enumerate the Lyndon words of a fixed content.  The fast one
walks the prenecklace tree of Fredricksen, Kessler and Maiorana restricted
to the letters still available (J. Sawada, "A fast algorithm to generate
necklaces with fixed content", Theoret. Comput. Sci. 301 (2003));
`lyndon_words` lists its output and `aperiodic_count` counts it.  The slow
one, `lyndon_words_naive`, filters all r^n words by content and the
rotation test of `is_lyndon`, so the two share no code.
"""

from __future__ import annotations

from itertools import product
from typing import Iterator, List, Sequence, Tuple

from .errors import BudgetExceededError

__all__ = [
    "is_lyndon",
    "lyndon_words",
    "lyndon_words_naive",
    "aperiodic_count",
]

DEFAULT_BUDGET = 14

Word = Tuple[int, ...]


def is_lyndon(word: Sequence[int]) -> bool:
    """True iff the word is strictly smaller than all its proper rotations."""
    w = tuple(word)
    n = len(w)
    if n == 0:
        raise ValueError("the empty word is neither Lyndon nor not")
    doubled = w + w
    return all(doubled[s : s + n] > w for s in range(1, n))


def _content_of(word: Sequence[int], alphabet_size: int) -> Word:
    return tuple(word.count(i) for i in range(1, alphabet_size + 1))


def _fixed_content_lyndon(content: Sequence[int], budget: int) -> Iterator[List[int]]:
    """Lyndon words whose letter-i multiplicity is content[i-1], in
    lexicographic order, from the prenecklace tree restricted to content.

    Each word is yielded as the walk's working list a, whose a[1:] is the
    word; the same list is reused and changed by the walk, so a caller
    that keeps a word copies it (lyndon_words takes tuple(a[1:])), and
    a caller that only counts builds nothing.

    A prefix a[1..t] of a necklace has a period p (a[i] = a[i-p] for
    p < i <= t); the next letter must be at least a[t+1-p], keeps the
    period if equal and makes t+1 the period if larger.  A word of the
    full length is Lyndon iff its period is its length.  Position 1 holds
    the smallest letter present, and a branch is cut as soon as only
    copies of that letter remain (a longer word ending in its smallest
    letter is no necklace).  The walk keeps its own stack, so long words
    do not recurse.
    """
    content = tuple(content)
    if any(c < 0 for c in content):
        raise ValueError(f"content must be non-negative, got {content!r}")
    n = sum(content)
    if n < 1:
        raise ValueError("a Lyndon word needs a nonzero content")
    if budget < 0:
        raise ValueError(f"budget must be >= 0, got {budget}")
    if n > budget:
        raise BudgetExceededError(
            f"total {n} exceeds enumeration budget {budget}; "
            "raise the budget explicitly to proceed"
        )
    r = len(content)
    left = [0, *content]  # left[j]: copies of letter j not yet placed
    first = next(j for j in range(1, r + 1) if left[j])
    a = [0] * (n + 1)  # a[1..t] is the current prefix
    per = [1] * (n + 1)  # per[t]: period of a[1..t]; per[0] = 1 seeds position 1
    t, j = 1, first  # fill position t with the smallest usable letter >= j
    while True:
        while j <= r and not left[j]:
            j += 1
        if j > r:  # nothing fits at t: try the next letter at t - 1
            t -= 1
            if t <= 1:  # position 1 keeps the smallest letter
                return
            j = a[t]
            left[j] += 1
            j += 1
            continue
        p = per[t - 1]
        a[t] = j
        per[t] = p if j == a[t - p] else t
        if t == n:
            if per[t] == n:
                yield a
            j += 1
        elif left[first] == n - t + (j == first):
            j += 1  # only copies of the smallest letter would remain
        else:
            left[j] -= 1
            t += 1
            j = a[t - per[t - 1]]


def lyndon_words(content: Sequence[int], budget: int = DEFAULT_BUDGET) -> List[Word]:
    """Lyndon words whose letter-i multiplicity is content[i-1], in
    lexicographic order.  Totals above `budget` raise BudgetExceededError."""
    return [tuple(a[1:]) for a in _fixed_content_lyndon(content, budget)]


def lyndon_words_naive(content: Sequence[int], budget: int = 10) -> List[Word]:
    """Second, slower oracle: filter all r^n strings by content and the
    rotation-minimality test.  Guards the guard for totals <= budget."""
    content = tuple(content)
    n = sum(content)
    if n < 1:
        raise ValueError("lyndon_words_naive requires a nonzero content")
    if n > budget:
        raise BudgetExceededError(f"total {n} exceeds naive budget {budget}")
    r = len(content)
    return [w for w in product(range(1, r + 1), repeat=n)
            if _content_of(w, r) == content and is_lyndon(w)]


def aperiodic_count(content: Sequence[int], budget: int = DEFAULT_BUDGET) -> int:
    """Number of rotation classes of words with the given content whose
    minimal period equals the total length.

    Each aperiodic class holds exactly one Lyndon word (its least
    rotation), so this counts the fixed-content Lyndon words without
    listing them.  Totals above `budget` raise BudgetExceededError.
    """
    return sum(1 for _ in _fixed_content_lyndon(content, budget))
