"""Balanced words, repetition exponents, and the breadth-first optimality search."""

import itertools
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import references as R
from pelldecide import _kernels, search, sequences
from pelldecide.search import FiniteWord, Repetition

FIVE_OPTIMAL = [
    "01203104120130410213014021031401203104120130",
    "01203240210320421023042012302401203240210320",
    "01230240120324021032042102304201230240120324",
    "01231421023124102132412013214201231421023124",
    "01231430132143103213410312341301231430132143",
]


# --- FiniteWord / Repetition ---------------------------------------------------


def test_finite_word_from_letters():
    w = FiniteWord.make("abacaba")
    assert w.alphabet_size == 3
    assert list(w.symbols) == [0, 1, 0, 2, 0, 1, 0]
    assert w.count(0, 0, 7) == 4
    assert w.count(1, 2, 6) == 1


def test_finite_word_from_digits_and_arrays():
    w = FiniteWord.make("0120")
    assert list(w.symbols) == [0, 1, 2, 0]
    v = FiniteWord.make(np.array([0, 4, 4], dtype=np.int8), alphabet_size=5)
    assert v.alphabet_size == 5
    assert v.count(4, 0, 3) == 2


def test_finite_word_counts_match_slices():
    rng = np.random.default_rng(0)
    w = FiniteWord.make(rng.integers(0, 4, size=60), alphabet_size=4)
    for _ in range(200):
        a, b = sorted(rng.integers(0, 61, size=2))
        s = int(rng.integers(0, 4))
        assert w.count(s, a, b) == int(np.sum(w.symbols[a:b] == s))


def test_repetition_validation():
    assert Repetition(start=0, length=4, period=2).exponent == Fraction(2)
    assert Repetition(start=23, length=6, period=4).exponent == Fraction(3, 2)
    with pytest.raises(ValueError):
        Repetition(start=0, length=4, period=0)
    with pytest.raises(ValueError):
        Repetition(start=0, length=2, period=3)


def test_empty_word_edges():
    assert search.is_balanced("")
    with pytest.raises(ValueError):
        search.max_exponent("")


# --- against the naive references -----------------------------------------------


def test_is_balanced_matches_reference():
    rng = np.random.default_rng(12)
    for _ in range(500):
        k = int(rng.integers(2, 6))
        n = int(rng.integers(1, 61))
        word = rng.integers(0, k, size=n)
        assert search.is_balanced(word) == R.ref_is_balanced(word, k)


def test_max_exponent_matches_reference():
    rng = np.random.default_rng(34)
    for _ in range(500):
        k = int(rng.integers(2, 6))
        n = int(rng.integers(1, 41))
        word = rng.integers(0, k, size=n)
        assert search.max_exponent(word) == R.ref_max_exponent(word)


def test_spot_values():
    assert search.max_exponent("000") == Fraction(3)
    assert search.max_exponent("01010") == Fraction(5, 2)
    assert search.max_exponent("0120310") == Fraction(4, 3)
    assert search.is_balanced("01010")
    assert not search.is_balanced("0011")


@given(st.text(alphabet="0123", min_size=1, max_size=25))
@settings(max_examples=150)
def test_square_has_exponent_at_least_two(w):
    assert search.max_exponent(w + w) >= 2


@given(st.text(alphabet="012", min_size=1, max_size=30))
@settings(max_examples=150)
def test_exponent_is_reversal_invariant(w):
    assert search.max_exponent(w) == search.max_exponent(w[::-1])


@given(st.text(alphabet="012", min_size=1, max_size=40))
@settings(max_examples=150)
def test_balance_is_relabeling_invariant(w):
    relabeled = w.translate(str.maketrans("012", "201"))
    assert search.is_balanced(w) == search.is_balanced(relabeled)


# --- the five-letter word ---------------------------------------------------------


def test_x5_prefix_is_balanced_with_exponent_three_halves():
    w = sequences.x5_prefix(10_000)
    assert search.is_balanced(w)
    assert search.max_exponent(w) == Fraction(3, 2)
    # the bound is first attained by the factor "032403" at index 10, period 4
    assert search.max_exponent(sequences.x5_prefix(15)) == Fraction(4, 3)
    assert search.max_exponent(sequences.x5_prefix(16)) == Fraction(3, 2)
    assert R.ref_max_exponent(sequences.x5_prefix(300)) == Fraction(3, 2)


# --- breadth-first search -----------------------------------------------------------


def normal_words_by_depth(k, depth):
    """Words whose letters first appear in increasing order, level by level."""
    level = [()]
    for _ in range(depth):
        nxt = []
        for w in level:
            top = max(w) if w else -1
            for s in range(min(top + 1, k - 1) + 1):
                nxt.append(w + (s,))
        level = nxt
        yield level


@pytest.mark.parametrize(
    "k,bound,strict,depth",
    [(5, Fraction(3, 2), True, 8), (2, Fraction(3), True, 12), (3, Fraction(2), False, 7)],
)
def test_bfs_levels_are_exactly_the_surviving_normal_words(k, bound, strict, depth):
    levels = list(search.bfs_levels(k, bound, strict=strict, limit_depth=depth))
    assert len(levels) == depth

    def ok(w):
        if not R.ref_is_balanced(w, k):
            return False
        e = R.ref_max_exponent(w)
        return e < bound if strict else e <= bound

    for level, candidates in zip(levels, normal_words_by_depth(k, depth)):
        got = [tuple(int(s) for s in row) for row in level]
        want = sorted(w for w in candidates if ok(w))
        assert got == want


def test_bfs_levels_are_sorted_and_prefix_closed():
    levels = list(search.bfs_levels(5, Fraction(3, 2), strict=True, limit_depth=12))
    previous = {()}
    for level in levels:
        rows = [tuple(int(s) for s in row) for row in level]
        assert rows == sorted(rows)
        assert all(w[:-1] in previous for w in rows)
        previous = set(rows)


def test_bfs_binary_cube_fixtures():
    depth, words = search.bfs_optimal(2, Fraction(3), strict=True)
    assert (depth, words) == (16, ["0010100101001001", "0110110101101011"])
    depth, words = search.bfs_optimal(2, Fraction(3), strict=False)
    assert depth == 28
    assert words == [
        "0101001001010010010100101001",
        "0110101101011011010110110101",
    ]


def test_bfs_five_letter_headline():
    depth, words = search.bfs_optimal(5, Fraction(3, 2), strict=True)
    assert depth == 44
    assert words == FIVE_OPTIMAL


def test_bfs_limit_depth_counts():
    levels = list(search.bfs_levels(5, Fraction(3, 2), strict=True, limit_depth=10))
    assert len(levels[-1]) == 132


def test_bfs_validates_arguments():
    with pytest.raises(ValueError):
        list(search.bfs_levels(1, Fraction(3, 2)))
    with pytest.raises(ValueError):
        list(search.bfs_levels(3, Fraction(1)))


# --- kernels ------------------------------------------------------------------------


def test_exponent_scan_matches_reference():
    rng = np.random.default_rng(78)
    for _ in range(120):
        w = rng.integers(0, 4, size=rng.integers(2, 50)).astype(np.int8)
        n, p = _kernels.exponent_scan(w)
        assert Fraction(int(n), int(p)) == R.ref_max_exponent(w)
