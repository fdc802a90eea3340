"""Balance and repetition primitives, and the breadth-first optimality search.

A word is balanced when any two equal-length factors contain the same number
of occurrences of each symbol, up to one.  The exponent of a factor of
length n with period p is n/p; a word's maximal exponent ranges over all its
factors and their periods.  ``bfs_optimal`` grows all balanced words that
avoid exponents at or above a bound, level by level, and reports the longest
survivors; for five letters and bound 3/2 the search is finite and ends at
length 44 with exactly five words.

Exponents are exact rationals throughout; comparisons cross-multiply.
"""

from __future__ import annotations

from fractions import Fraction
from typing import Iterator, Optional, Sequence, Union

import numpy as np

from . import _kernels

__all__ = [
    "is_balanced",
    "max_exponent",
    "bfs_levels",
    "bfs_optimal",
]

WordLike = Union[str, Sequence[int], np.ndarray]


def _symbols(word: WordLike) -> np.ndarray:
    """The word's symbols as naturals in int8.

    A digit string reads digit by digit; other text maps its letters to
    0, 1, 2, .. in order of first appearance, so "alfalfa" works alongside
    "0120".
    """
    if isinstance(word, str):
        if word and all(c in "0123456789" for c in word):
            word = [int(c) for c in word]
        else:
            seen: dict[str, int] = {}
            word = [seen.setdefault(c, len(seen)) for c in word]
    symbols = np.asarray(word)
    if symbols.size and (symbols.min() < 0 or symbols.max() > np.iinfo(np.int8).max):
        raise ValueError("symbols must be naturals below 128")
    return symbols.astype(np.int8)


def is_balanced(word: WordLike) -> bool:
    """True iff equal-length factors never differ by 2 in any symbol count."""
    symbols = _symbols(word)
    if len(symbols) == 0:
        return True
    # a letter absent from the word is balanced in it, so the word's own
    # letters are the alphabet
    return bool(_kernels.balanced_scan(symbols, int(symbols.max()) + 1))


def max_exponent(word: WordLike) -> Fraction:
    """Largest n/p over factors of length n having period p."""
    symbols = _symbols(word)
    if len(symbols) == 0:
        raise ValueError("the empty word has no factors")
    n, p = _kernels.exponent_scan(symbols)
    return Fraction(int(n), int(p))


def bfs_levels(
    alphabet_size: int,
    bound: Union[Fraction, float, str],
    strict: bool = True,
    limit_depth: Optional[int] = None,
) -> Iterator[np.ndarray]:
    """Yield each level of surviving words as a sorted (count, depth) array.

    Level d holds every length-d word that is balanced, avoids factor
    exponents >= bound (> bound when strict is false), and is canonical
    under the symmetry reduction: it starts with 0 and introduces new
    symbols in increasing order.  The bound is taken exactly (a float as
    its binary value).  Raises ValueError for a bound not above 1, and at
    the first level whose test would overflow int64 with its terms.
    """
    if alphabet_size < 2:
        raise ValueError("alphabet_size must be at least 2")
    if limit_depth is not None and limit_depth < 1:
        raise ValueError("limit_depth must be at least 1")
    try:
        bound = Fraction(bound)
    except ZeroDivisionError:
        raise ValueError("bound has a zero denominator") from None
    if bound <= 1:
        raise ValueError("bound must exceed 1")
    num, den = bound.numerator, bound.denominator

    tables = _kernels.LevelTables.root(alphabet_size)
    depth = 1
    yield tables.words
    while limit_depth is None or depth < limit_depth:
        # extend_mask takes the exponent test's num * p // den in int64,
        # for every period p <= depth; num * depth is the largest product,
        # and the one term that must fit
        if depth * num >= 1 << 63:
            raise ValueError(f"the bound's terms are too large to search past depth {depth}")
        level = tables.words
        # candidates in (parent, symbol) order, which is sorted order
        opens = np.arange(alphabet_size) <= level.max(axis=1, keepdims=True) + 1
        parent, symbol = np.nonzero(opens)
        candidates = np.concatenate(
            [level[parent], symbol.astype(np.int8)[:, None]], axis=1)
        mask = _kernels.extend_mask(candidates, parent, tables, num, den, strict)
        if not mask.any():
            return
        tables = tables.children(candidates[mask], parent[mask])
        depth += 1
        yield tables.words


def bfs_optimal(
    alphabet_size: int,
    bound: Union[Fraction, float, str],
    strict: bool = True,
    limit_depth: Optional[int] = None,
) -> tuple[int, list[str]]:
    """Deepest level the search reaches, with its words in sorted order."""
    last = None
    for last in bfs_levels(alphabet_size, bound, strict, limit_depth):
        pass
    assert last is not None
    return last.shape[1], ["".join(str(int(s)) for s in row) for row in last]
