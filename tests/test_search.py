"""Balanced words, repetition exponents, and the breadth-first optimality search."""

import itertools
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import references as R
from pelldecide import _kernels, search, sequences
from pelldecide.search import FiniteWord

FIVE_OPTIMAL = [
    "01203104120130410213014021031401203104120130",
    "01203240210320421023042012302401203240210320",
    "01230240120324021032042102304201230240120324",
    "01231421023124102132412013214201231421023124",
    "01231430132143103213410312341301231430132143",
]


# --- FiniteWord -----------------------------------------------------------------


def test_finite_word_from_letters():
    w = FiniteWord.make("abacaba")
    assert w.alphabet_size == 3
    assert list(w.symbols) == [0, 1, 0, 2, 0, 1, 0]


def test_finite_word_from_digits_and_arrays():
    w = FiniteWord.make("0120")
    assert list(w.symbols) == [0, 1, 2, 0]
    v = FiniteWord.make(np.array([0, 4, 4], dtype=np.int8), alphabet_size=5)
    assert v.alphabet_size == 5


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
    with pytest.raises(ValueError, match="zero denominator"):
        list(search.bfs_levels(3, "3/0"))
    for depth in (0, -1):
        with pytest.raises(ValueError, match="limit_depth"):
            list(search.bfs_levels(3, Fraction(2), limit_depth=depth))
    assert [len(level) for level in search.bfs_levels(3, Fraction(2), limit_depth=1)] == [1]


@pytest.mark.parametrize("strict", [True, False])
@pytest.mark.parametrize(
    "k,bound",
    [(5, Fraction(3, 2)), (3, Fraction(2)), (4, Fraction(7, 4)), (2, Fraction(3)),
     (2, Fraction(5, 2))],
)
def test_bfs_levels_match_the_full_rescan(k, bound, strict):
    depth = 25
    got = list(search.bfs_levels(k, bound, strict=strict, limit_depth=depth))
    want = list(R.ref_bfs_levels(k, bound, strict, depth))
    assert len(got) == len(want)
    for a, b in zip(got, want):
        assert a.dtype == b.dtype and a.shape == b.shape
        assert a.tobytes() == b.tobytes()


# per-level row counts of the six-letter search for bound 4/3, taken from the
# full-rescan search
SIX_LETTER_COUNTS = [
    1, 1, 1, 1, 2, 4, 10, 24, 58, 107, 192, 268, 426, 545, 745, 914, 1069, 1130,
    1222, 1329, 1393, 1409, 1494, 1475, 1524, 1520, 1514, 1458, 1431, 1362, 1273,
    1138, 1146, 1148, 1105, 1103, 1124, 1122, 1117, 1101, 1097, 1079, 1082, 1067,
    1055, 1031, 1027, 1018, 997, 971, 944, 927, 926, 917, 923, 909, 899, 807, 753,
    728,
]


def test_bfs_six_letter_level_counts():
    levels = search.bfs_levels(6, Fraction(4, 3), limit_depth=60)
    assert [len(level) for level in levels] == SIX_LETTER_COUNTS


@pytest.mark.parametrize("word,k,bound,strict", [
    ("0" * 300, 2, Fraction(1000), True),  # runs and counts reach the length
    (sequences.x5_prefix(300), 5, Fraction(3, 2), False),
], ids=["unary", "x5"])
def test_tables_along_one_word_past_int8(word, k, bound, strict):
    # tables of words of length 127 and up are int16: check extend_mask
    # against the full rescan on either side of the switch
    word = FiniteWord.make(word, k).symbols
    assert _kernels._count_type(126) == np.int8 and _kernels._count_type(127) == np.int16
    tables = _kernels.LevelTables.root(k)
    for length in range(2, len(word) + 1):
        tables = tables.children(word[None, :length], np.zeros(1, dtype=np.intp))
        if length in (125, 126, 127, 128, 200, len(word)):
            candidates = np.array([np.append(word[:length], s) for s in range(k)], dtype=np.int8)
            got = _kernels.extend_mask(candidates, np.zeros(k, dtype=np.intp), tables,
                                       bound.numerator, bound.denominator, strict)
            want = R.ref_extend_mask(candidates, k, bound.numerator, bound.denominator, strict)
            assert np.array_equal(got, want)


# --- kernels ------------------------------------------------------------------------


def test_exponent_scan_matches_reference():
    rng = np.random.default_rng(78)
    for _ in range(120):
        w = rng.integers(0, 4, size=rng.integers(2, 50)).astype(np.int8)
        n, p = _kernels.exponent_scan(w)
        assert Fraction(int(n), int(p)) == R.ref_max_exponent(w)


def scan_words(rng):
    """Random words, and factors of x5 and x3 as they are and with one symbol
    changed, which are balanced or nearly so."""
    words = []
    for _ in range(150):
        k = int(rng.integers(2, 6))
        words.append((rng.integers(0, k, size=int(rng.integers(1, 70))).astype(np.int8), k))
    for source, k in ((sequences.x5_prefix(20_000), 5), (sequences.x3_prefix(20_000), 3)):
        for _ in range(100):
            n = int(rng.integers(2, 300))
            start = int(rng.integers(0, len(source) - n))
            words.append((source[start:start + n], k))
            w = source[start:start + n].copy()
            i = int(rng.integers(0, n))
            w[i] = (w[i] + int(rng.integers(1, k))) % k
            words.append((w, k))
    return words


def test_scans_match_the_full_scans():
    words = scan_words(np.random.default_rng(91))
    unbalanced = 0
    for w, k in words:
        ok = _kernels.balanced_scan(w, k)
        assert ok == R.ref_balanced_scan(w, k)
        unbalanced += not ok
        assert _kernels.exponent_scan(w) == R.ref_exponent_scan(w)
    assert 100 < unbalanced < len(words) - 100


def test_scans_match_on_long_factors():
    rng = np.random.default_rng(92)
    for source, k in ((sequences.x5_prefix(60_000), 5), (sequences.x3_prefix(60_000), 3)):
        start = int(rng.integers(0, 50_000))
        w = source[start:start + 10_000]
        assert _kernels.balanced_scan(w, k) and R.ref_balanced_scan(w, k)
        assert _kernels.exponent_scan(w) == R.ref_exponent_scan(w)
        w = w.copy()
        w[5_000] = (w[5_000] + 1) % k
        assert _kernels.balanced_scan(w, k) == R.ref_balanced_scan(w, k)
        assert _kernels.exponent_scan(w) == R.ref_exponent_scan(w)


def test_longest_run_counts_agreements():
    rng = np.random.default_rng(93)
    for _ in range(200):
        w = rng.integers(0, 2, size=int(rng.integers(1, 40))).astype(np.int8)
        for p in range(1, len(w) + 2):
            want = R.ref_longest_true_run(w[p:] == w[:-p]) if p < len(w) else 0
            assert _kernels._longest_run(w, p) == want
