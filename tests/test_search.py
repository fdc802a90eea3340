"""Balanced words, repetition exponents, and the breadth-first optimality search."""

import itertools
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import references as R
from pelldecide import _kernels, search, sequences

FIVE_OPTIMAL = [
    "01203104120130410213014021031401203104120130",
    "01203240210320421023042012302401203240210320",
    "01230240120324021032042102304201230240120324",
    "01231421023124102132412013214201231421023124",
    "01231430132143103213410312341301231430132143",
]


# --- words as given ---------------------------------------------------------------


def test_finite_word_from_letters():
    # letters map to 0, 1, 2, .. in order of first appearance
    assert search.max_exponent("abacaba") == Fraction(7, 4)
    assert search.is_balanced("abacaba")
    assert search.max_exponent("baa") == 2
    assert not search.is_balanced("abcc")


def test_finite_word_from_digits_and_arrays():
    for word in ("0102010", [0, 1, 0, 2, 0, 1, 0],
                 np.array([0, 1, 0, 2, 0, 1, 0], dtype=np.int64)):
        assert search.max_exponent(word) == Fraction(7, 4)
        assert search.is_balanced(word)
    assert search.max_exponent(np.array([0, 4, 4], dtype=np.int8)) == 2


def test_scans_leave_the_callers_array_as_it_is():
    w = np.array([0, 1, 0, 2], dtype=np.int8)
    assert search.max_exponent(w) == Fraction(3, 2)
    assert search.is_balanced(w)
    assert w.flags.writeable
    assert list(w) == [0, 1, 0, 2]


def test_symbols_must_be_naturals_that_fit_int8():
    # 0122 is unbalanced in symbol 2: the word's own letters are the alphabet
    assert not search.is_balanced("0122")
    for word in ([300, 1], np.array([0, 128]), [-1, 0], np.array([0, -2], dtype=np.int8)):
        with pytest.raises(ValueError, match="naturals below 128"):
            search.max_exponent(word)
        with pytest.raises(ValueError, match="naturals below 128"):
            search.is_balanced(word)
    assert search.max_exponent(np.array([127, 0, 127])) == Fraction(3, 2)


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


# terms the kernels' int64 products cannot hold: 1e400 overflowed the cast,
# and 2^62 + 1 over 2^62 wrapped and let the square "11" through; the
# largest term is depth * num, so 2^62 + 1 fits at depth 1 and not at depth 2
@pytest.mark.parametrize(
    "bound, depth", [("1e400", 1), ("4611686018427387905/4611686018427387904", 2)],
    ids=["1e400", "2^62"]
)
def test_bfs_rejects_bound_terms_past_int64(bound, depth):
    with pytest.raises(ValueError, match=f"too large to search past depth {depth}$"):
        list(search.bfs_levels(3, bound, limit_depth=8))


def test_bfs_searches_while_bound_terms_fit_int64():
    # 3 * (2^61 + 1) fits, 4 * (2^61 + 1) does not: the test at depth 4 would
    # overflow.  Three letters die at depth 3, before the guard, so take six
    bound = Fraction(2**61 + 1, 2**61)
    assert search.bfs_optimal(6, bound, limit_depth=4) == (4, ["0123"])
    with pytest.raises(ValueError, match="past depth 4$"):
        search.bfs_optimal(6, bound, limit_depth=5)


def test_bfs_takes_floats_exactly():
    # Fraction(4/3) has denominator 2^52, so its products fit to depth 1535
    exact = list(search.bfs_levels(6, Fraction(4, 3), limit_depth=12))
    as_float = list(search.bfs_levels(6, 4 / 3, limit_depth=12))
    assert all(np.array_equal(a, b) for a, b in zip(exact, as_float, strict=True))
    assert search.bfs_optimal(3, 1.1) == search.bfs_optimal(3, Fraction(11, 10)) == (3, ["012"])


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
    word = search._symbols(word)
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


def assert_same_tables(got, want):
    for name in ("words", "runs", "counts", "lo", "hi"):
        a, b = getattr(got, name), getattr(want, name)
        assert a.dtype == b.dtype and a.shape == b.shape, name
        assert a.tobytes() == b.tobytes(), name


def every_symbol(tables, k):
    """Each word of ``tables`` with each of the k symbols appended, and its row."""
    parent, symbol = np.nonzero(np.ones((len(tables.words), k), dtype=bool))
    words = np.concatenate([tables.words[parent], symbol.astype(np.int8)[:, None]], axis=1)
    return words, parent


@pytest.mark.parametrize("strict", [True, False])
@pytest.mark.parametrize(
    "k,bound",
    [(5, Fraction(3, 2)), (3, Fraction(2)), (4, Fraction(7, 4)), (2, Fraction(3)),
     (2, Fraction(5, 2)), (2, Fraction(2)), (4, Fraction(3, 2))],
)
def test_level_kernels_match_the_earlier_ones(k, bound, strict):
    """On every level of the search, the masks of every next symbol and the
    children's tables equal the earlier kernel's, byte for byte.  2/1, and
    3/2 at even p, put num p / den on an integer, where strict matters."""
    num, den = bound.numerator, bound.denominator
    tables = _kernels.LevelTables.root(k)
    for _ in range(24):
        words, parent = every_symbol(tables, k)
        mask = _kernels.extend_mask(words, parent, tables, num, den, strict)
        assert np.array_equal(mask, R.ref_table_mask(words, parent, tables, num, den, strict))
        # grow only the words bfs_levels keeps: those that introduce symbols in order
        mask &= words[:, -1] <= tables.words.max(axis=1)[parent] + 1
        if not mask.any():
            break
        got = tables.children(words[mask], parent[mask])
        assert_same_tables(got, R.ref_children(tables, words[mask], parent[mask]))
        tables = got


@pytest.mark.parametrize("word,k,bound,strict", [
    ("0" * 300, 2, Fraction(1000), True),
    (sequences.x5_prefix(300), 5, Fraction(3, 2), False),
], ids=["unary", "x5"])
def test_tables_past_int8_match_the_earlier_kernels(word, k, bound, strict):
    word = search._symbols(word)
    num, den = bound.numerator, bound.denominator
    tables = _kernels.LevelTables.root(k)
    zero = np.zeros(1, dtype=np.intp)
    for length in range(2, len(word) + 1):
        got = tables.children(word[None, :length], zero)
        assert_same_tables(got, R.ref_children(tables, word[None, :length], zero))
        tables = got
        words, parent = every_symbol(tables, k)
        assert np.array_equal(_kernels.extend_mask(words, parent, tables, num, den, strict),
                              R.ref_table_mask(words, parent, tables, num, den, strict))
    assert tables.counts.dtype == np.int16


@pytest.mark.parametrize("dtype", [np.int8, np.int16])
def test_max_over_lengths_is_the_max_over_axis_one(dtype):
    rng = np.random.default_rng(98)
    info = np.iinfo(dtype)
    for length in range(1, 71):
        d = rng.integers(info.min, info.max, size=(5, length, 3), endpoint=True, dtype=dtype)
        got = _kernels._max_over_lengths(d.copy())
        assert got.dtype == dtype and np.array_equal(got, d.max(axis=1))


# --- kernels ------------------------------------------------------------------------


def test_exponent_scan_matches_reference():
    rng = np.random.default_rng(78)
    for _ in range(120):
        w = rng.integers(0, 4, size=rng.integers(2, 50)).astype(np.int8)
        n, p = _kernels.exponent_scan(w)
        assert Fraction(int(n), int(p)) == R.ref_max_exponent(w)


X5_FACTORS = sequences.x5_prefix(20_000)
X3_FACTORS = sequences.x3_prefix(20_000)
C_FACTORS = sequences.sturmian_prefix(20_000)


def scan_words(rng, randoms=150, random_len=70, factors=100, factor_len=300):
    """Random words over 2-5 letters, shorter than ``random_len``, and factors
    of x5, x3 and c_alpha shorter than ``factor_len``, as they are and with
    one symbol changed, which are balanced or nearly so."""
    words = []
    for _ in range(randoms):
        k = int(rng.integers(2, 6))
        words.append((rng.integers(0, k, size=int(rng.integers(1, random_len))).astype(np.int8), k))
    for source, k in ((X5_FACTORS, 5), (X3_FACTORS, 3), (C_FACTORS, 2)):
        for _ in range(factors):
            n = int(rng.integers(2, factor_len))
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


@pytest.mark.parametrize("k,longest", [(2, 12), (3, 8)])
def test_balanced_scan_on_every_short_word(k, longest):
    for length in range(1, longest + 1):
        for word in itertools.product(range(k), repeat=length):
            w = np.array(word, dtype=np.int8)
            assert _kernels.balanced_scan(w, k) == R.ref_balanced_scan(w, k), word


@pytest.mark.parametrize("prefix", [sequences.x5_prefix, sequences.x3_prefix,
                                    sequences.sturmian_prefix],
                         ids=["x5", "x3", "c_alpha"])
def test_is_balanced_on_million_symbol_prefixes(prefix):
    w = prefix(1_000_000).copy()
    assert search.is_balanced(w)
    w[500_000] = (w[500_000] + 1) % (w.max() + 1)
    assert not search.is_balanced(w)


def test_runs_are_the_longest_common_extensions():
    """``_runs`` gives the backward plus the forward extension of each pair,
    by brute force: every pair of short binary words, and planted
    extensions of 2^k - 1, 2^k and 2^k + 1 symbols each way, stopped by a
    differing letter or by either end of the word."""
    rng = np.random.default_rng(93)
    for _ in range(60):
        w = rng.integers(0, 2, size=int(rng.integers(2, 70))).astype(np.int8)
        a, b = np.triu_indices(len(w), 1)
        want = [sum(R.ref_common_extensions(w, i, j)) for i, j in zip(a, b)]
        assert _kernels._runs(_kernels._block_names(w), a, b).tolist() == want
    lengths = [n for k in range(7) for n in ((1 << k) - 1, 1 << k, (1 << k) + 1)]
    for back, ahead in itertools.product(lengths, repeat=2):
        run = [int(x) for x in rng.integers(0, 2, size=back + ahead)]
        for at_start, at_end in itertools.product([False, True], repeat=2):
            # [2] run [3] 4 [5] run [6]: the letters around each copy differ
            w = ([] if at_start else [2]) + run + [3, 4, 5] + run + ([] if at_end else [6])
            a = back + (not at_start)
            b = a + len(run) + 3
            w = np.array(w, dtype=np.int8)
            assert R.ref_common_extensions(w, a, b) == (back, ahead)
            got = _kernels._runs(_kernels._block_names(w), np.array([a]), np.array([b]))
            assert got.tolist() == [back + ahead]


# --- the exponent scan from block names and the balance scan by desubstitution -----

@pytest.fixture(params=["default", "reference-names"])
def kernel_names(request, monkeypatch):
    """The kernels as they are, and with block names from brute force, one
    level for every 2^k <= L, so that the scan's candidates and runs are
    checked against names it did not build."""
    if request.param == "reference-names":
        monkeypatch.setattr(_kernels, "_block_names", R.ref_block_names)


def test_scans_match_the_earlier_kernels(kernel_names):
    words = scan_words(np.random.default_rng(94), randoms=300, random_len=81,
                       factors=25, factor_len=3001)
    for w, k in words:
        got = _kernels.exponent_scan(w)
        assert got == R.ref_exponent_scan_sampled(w) == R.ref_exponent_scan_by_period(w)
        assert _kernels.balanced_scan(w, k) == R.ref_balanced_scan_by_gap(w, k)


@pytest.mark.parametrize("prefix,seed", [(sequences.x5_prefix, 95), (sequences.x3_prefix, 96)],
                         ids=["x5", "x3"])
def test_exponent_scan_matches_the_earlier_kernels_on_the_workload_factors(prefix, seed):
    """The search workload's exponent jobs: the 10^4-symbol prefix, and
    10^4-symbol factors at seeded starts."""
    word = prefix(60_000)
    rng = np.random.default_rng(seed)
    for start in [0, *rng.integers(1, len(word) - 10_000, size=2)]:
        w = word[start:start + 10_000]
        got = _kernels.exponent_scan(w)
        assert got == R.ref_exponent_scan_sampled(w) == R.ref_exponent_scan_by_period(w)


def test_block_names_name_equal_blocks_alike():
    """Equal names iff equal blocks, dense ids, and levels up to the first
    whose blocks are all distinct, or to the longest blocks that fit."""
    rng = np.random.default_rng(97)
    words = [rng.integers(0, k, size=n).astype(np.int8)
             for k in (1, 2, 3) for n in (1, 2, 3, 7, 8, 9, 40, 64, 100)]
    words += [X5_FACTORS[:500], X3_FACTORS[:300], C_FACTORS[:257]]
    for w in words:
        names = _kernels._block_names(w)
        brute = R.ref_block_names(w)
        for got, want in zip(names, brute):
            assert got.dtype == np.int32
            assert np.array_equal(got[:, None] == got[None, :], want[:, None] == want[None, :])
            assert set(got.tolist()) == set(range(int(got.max()) + 1))
        top = len(names) - 1
        assert len(brute) == top + 1 or len(set(names[top].tolist())) == len(names[top])
        assert all(len(set(n.tolist())) < len(n) for n in names[:-1])


def planted_run(prefix, p, run, pad):
    """``prefix``, ``pad`` fresh letters, then p + run letters of period p
    made of p fresh letters: the only agreements past the prefix are the run
    of ``run`` at period p, starting at ``len(prefix) + pad``."""
    fresh = iter(range(max(prefix) + 1, 128))
    padding = [next(fresh) for _ in range(pad)]
    block = [next(fresh) for _ in range(p)]
    return np.array(prefix + padding + (block * 3)[:p + run], dtype=np.int8)


@pytest.mark.parametrize("prefix,bound", [([0, 0], (2, 1)), ([0, 1, 0], (3, 2)),
                                          ([0, 1, 2, 0], (4, 3))])
def test_runs_of_exactly_r_minus_one_and_r_agreements(prefix, bound):
    """At a period p past the prefix's chunks, a run wins iff it has at least
    r = (bn - bp) p // bp + 1 agreements.  The scan looks for runs of r(lo)
    or more, lo <= p the chunk's first period, by the aligned blocks of
    length 2^k, 2^(k+1) - 1 <= r(lo) <= r; every alignment of the run's start
    against that grid is tried."""
    bn, bp = bound
    assert _kernels.exponent_scan(np.array(prefix, dtype=np.int8)) == bound
    for p in range(4, 61):
        r = (bn - bp) * p // bp + 1
        grid = 1 << max(0, (r + 1).bit_length() - 2)
        for pad in range(grid):
            short = planted_run(prefix, p, r - 1, pad)
            assert _kernels.exponent_scan(short) == bound == R.ref_exponent_scan_by_period(short)
            win = planted_run(prefix, p, r, pad)
            assert _kernels.exponent_scan(win) == (p + r, p) == R.ref_exponent_scan_by_period(win)


def test_ties_keep_the_least_period():
    # squares at periods 5 and 11 (exponent 2 each), and 3/2 at periods 2 and 4
    fresh = iter(range(10, 128))
    first, second = [next(fresh) for _ in range(5)], [next(fresh) for _ in range(11)]
    w = np.array(first * 2 + [1] + second * 2 + [2], dtype=np.int8)
    assert _kernels.exponent_scan(w) == (10, 5) == R.ref_exponent_scan_by_period(w)
    w = np.array([0, 1, 0, 5, 6, 7, 8, 5, 6, 9], dtype=np.int8)
    assert _kernels.exponent_scan(w) == (3, 2) == R.ref_exponent_scan_by_period(w)
    w = np.array([5, 6, 7, 8, 5, 6, 0, 1, 0], dtype=np.int8)
    assert _kernels.exponent_scan(w) == (3, 2) == R.ref_exponent_scan_by_period(w)


def test_exponent_scan_skips_most_periods(monkeypatch):
    w = X5_FACTORS[4_000:14_000]
    periods = []
    runs = _kernels._runs
    monkeypatch.setattr(_kernels, "_runs",
                        lambda names, a, b: periods.append(b - a) or runs(names, a, b))
    assert _kernels.exponent_scan(w) == (6, 4)
    # the scan stops at p = 6,667 (L / p <= 3/2), and takes the run at
    # 17,728 candidate pairs, of the 4.4e7 pairs (j, j + p) below that
    periods = np.concatenate(periods)
    assert len(periods) < 2 * len(w) and periods.max() < 6_667


@st.composite
def scan_cases(draw):
    """Words over 2-6 letters, or factors of x5, x3 and c_alpha, some with
    one symbol changed."""
    if draw(st.booleans()):
        k = draw(st.integers(2, 6))
        w = np.array(draw(st.lists(st.integers(0, k - 1), min_size=1, max_size=80)),
                     dtype=np.int8)
        return w, k
    source, k = draw(st.sampled_from([(X5_FACTORS, 5), (X3_FACTORS, 3), (C_FACTORS, 2)]))
    n = draw(st.integers(1, 300))
    start = draw(st.integers(0, len(source) - n))
    w = source[start:start + n].copy()
    if draw(st.booleans()):
        i = draw(st.integers(0, n - 1))
        w[i] = (w[i] + draw(st.integers(1, k - 1))) % k
    return w, k


@given(scan_cases())
@settings(max_examples=200)
def test_scans_match_the_full_scans_on_drawn_words(case):
    w, k = case
    assert _kernels.exponent_scan(w) == R.ref_exponent_scan(w)
    assert _kernels.balanced_scan(w, k) == R.ref_balanced_scan(w, k)
