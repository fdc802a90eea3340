"""Hot inner loops for word combinatorics, vectorized with numpy.

``extend_mask`` tests a whole batch of candidate words at once (one row
each), from tables the breadth-first search carries for their parents.
``exponent_scan`` and ``balanced_scan`` scan a single word: the former
from names of the word's blocks of length 2^k, taking runs only through
pairs of equal aligned blocks; the latter in linear time by reducing each
symbol's indicator word (desubstitution).  The module stays separate from
``search`` so that each kernel call can be timed on its own.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

__all__ = [
    "NUMBA_ENABLED",
    "LevelTables",
    "extend_mask",
    "exponent_scan",
    "balanced_scan",
]

# Always False: the kernels are numpy only.  perfbench/worker.py still reads
# this name and records it with every run.
NUMBA_ENABLED = False


@dataclass(frozen=True)
class LevelTables:
    """A level of words of length L, with what a new last symbol is tested against.

    - ``words``: (n, L) int8, one word per row;
    - ``runs[:, p-1]``: the trailing run of ``w[i] == w[i-p]``, for p = 1..L;
    - ``counts[:, j, a]``: the count of symbol a in the last j symbols, j = 0..L;
    - ``lo[:, ell-1, a]`` and ``hi[:, ell-1, a]``: the least and greatest count
      of a over the windows of length ell, for ell = 1..L.

    All but ``words`` are in ``_count_type(L)`` and in C order, so a word's
    counts over every window length are one contiguous block, which
    ``extend_mask`` reduces in halves.
    """

    words: np.ndarray
    runs: np.ndarray
    counts: np.ndarray
    lo: np.ndarray
    hi: np.ndarray

    @staticmethod
    def root(k: int) -> "LevelTables":
        """The one-word level "0" over k symbols."""
        counts = np.zeros((1, 2, k), dtype=_count_type(1))
        counts[0, 1, 0] = 1
        return LevelTables(np.zeros((1, 1), dtype=np.int8), np.zeros((1, 1), counts.dtype),
                           counts, counts[:, 1:].copy(), counts[:, 1:].copy())

    def children(self, words: np.ndarray, parent: np.ndarray) -> "LevelTables":
        """Tables for ``words``, each row ``self.words[parent]`` plus one symbol.

        The parents' suffix counts go into one preallocated table after its
        zero row, and the new symbol into them by one indexed increment.
        """
        n, length, k = len(words), self.words.shape[1], self.counts.shape[2]
        dtype = _count_type(length + 1)
        s = words[:, -1]
        agree = self.words[parent, ::-1] == s[:, None]
        runs = np.zeros((n, length + 1), dtype=dtype)
        runs[:, :length] = np.where(agree, self.runs[parent] + 1, 0)
        # windows ending at the new symbol: the parent's suffixes plus s
        counts = np.zeros((n, length + 2, k), dtype=dtype)
        counts[:, 1:] = self.counts[parent]
        counts[np.arange(n), 1:, s] += 1
        lo = counts[:, 1:].copy()
        hi = counts[:, 1:].copy()
        np.minimum(lo[:, :length], self.lo[parent], out=lo[:, :length])
        np.maximum(hi[:, :length], self.hi[parent], out=hi[:, :length])
        return LevelTables(words, runs, counts, lo, hi)


def _count_type(length: int) -> np.dtype:
    """Least signed integer type for the tables of words of this length.

    It holds every count up to length + 1 and the difference of any two
    counts of the level, so ``extend_mask`` subtracts in that type.
    """
    return np.min_scalar_type(-(length + 2))


def extend_mask(words: np.ndarray, parent: np.ndarray, tables: LevelTables,
                num: int, den: int, strict: bool) -> np.ndarray:
    """Mask of rows that stay balanced and below the exponent bound.

    Row i is ``tables.words[parent[i]]`` with one symbol appended, and every
    word of ``tables`` already passed.  So only what ends at the new symbol
    is tested, once per parent and next symbol.  A row fails if some suffix
    is a repetition of exponent >= num/den (> when not strict), or some
    pair of equal-length windows differs by 2 in a symbol count.

    Both tests compare in the tables' own type.  The balance test comes down
    to two maxima over the window lengths, a parent and symbol, which
    ``_max_over_lengths`` takes in contiguous passes.
    """
    w = tables.words
    n, length = w.shape
    k = tables.counts.shape[2]
    # appending s = w[L-p] extends the trailing run at period p by one, to
    # the exponent (run + 1 + p) / p, which fails once the run reaches
    # least[p-1]; no run reaches L + 1
    p = np.arange(1, length + 1)
    least = (-(-num * p // den) - 1 - p) if strict else (num * p // den - p)
    rep = tables.runs >= np.minimum(least, length + 1).astype(tables.runs.dtype)
    bad = np.zeros((n, k), dtype=bool)
    # in flat indices: rep's (row, p - 1) is at, and the symbol p back,
    # w[row, length - p], is at at + length - 1 - 2 (p - 1)
    at = np.flatnonzero(rep)
    rows = at // length
    bad.ravel()[rows * k + w.ravel()[at + length - 1 - 2 * (at - rows * length)]] = True
    # the new window of length ell holds c = the count in the last ell - 1
    # symbols, plus one for a == s; it must stay within [hi - 1, lo + 1] at
    # every ell: c - lo <= 1 and hi - c <= 1 for a != s (keep), and c - lo
    # <= 0 and hi - c <= 2 for a == s (keep_plus)
    c = tables.counts[:, :length]
    above = _max_over_lengths(c - tables.lo)
    below = _max_over_lengths(tables.hi - c)
    keep = (above <= 1) & (below <= 1)
    keep_plus = (above <= 0) & (below <= 2)
    others_fail = (~keep).sum(axis=1, keepdims=True) - ~keep
    bad |= ~keep_plus | (others_fail > 0)
    return ~bad[parent, words[:, -1]]


def _max_over_lengths(d: np.ndarray) -> np.ndarray:
    """``d.max(axis=1)`` of an (n, L, k) array, which it overwrites.

    Each step folds the last half of the window lengths onto the first, so
    numpy's inner loop runs over a contiguous block of (L / 2) k elements a
    row, where ``max(axis=1)`` and ``all(axis=1)`` run one of k.  The result
    is a copy, so that d is freed when the caller drops it.
    """
    length = d.shape[1]
    while length > 1:
        half = length // 2
        np.maximum(d[:, :half], d[:, length - half:length], out=d[:, :half])
        length -= half
    return d[:, 0].copy()


def _block_names(w: np.ndarray) -> list[np.ndarray]:
    """Names of w's blocks of length 2^k, by doubling (Karp, Miller and Rosenberg).

    ``names[k][i] == names[k][j]`` iff ``w[i:i + 2**k] == w[j:j + 2**k]``, in
    dense int32 ids, one sort per level.  The top level K is the first whose
    blocks are all distinct, or else the last that fits in w, so no two
    positions agree on 2^(K+1) symbols.
    """
    ids = np.unique(w, return_inverse=True)[1].astype(np.int32)
    names = [ids]
    size = 1
    while len(ids) > size and ids.max() + 1 < len(ids):
        pair = ids[:-size].astype(np.int64) * (int(ids.max()) + 1) + ids[size:]
        ids = np.unique(pair, return_inverse=True)[1].astype(np.int32)
        names.append(ids)
        size *= 2
    return names


def _runs(names: list[np.ndarray], a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """For each pair a < b, the longest run of ``w[j] == w[j + b - a]`` through j = a.

    The run is [a - back, a + ahead): the pair's longest common extensions
    backward and forward, by one binary lifting over the block names from
    below the least level where no pair agrees on the block after or before a.
    """
    ends = np.concatenate([a, a])  # a + ahead, then a - back, so far
    period = np.concatenate([b - a, b - a])
    back = np.arange(len(ends)) >= len(a)

    def agree(k: int, at) -> np.ndarray:
        level = names[k]
        start = ends[at] - back[at] * (1 << k)
        stop = start + period[at]
        same = level.take(start, mode="clip") == level.take(stop, mode="clip")
        return same & (start >= 0) & (stop < len(level))

    top, at = 0, np.arange(len(ends))
    while top < len(names) and (at := at[agree(top, at)]).size:
        top += 1
    for k in range(top - 1, -1, -1):
        ends += np.where(back, -1 << k, 1 << k) * agree(k, slice(None))
    return ends[:len(a)] - ends[len(a):]


def exponent_scan(w: np.ndarray) -> tuple[int, int]:
    """(n, p) maximizing n/p over factors of length n with period p; ties keep the least p.

    Periods go in chunks [lo, hi) of doubling size, each bounded by the best
    (bn, bp) before it.  A run of R agreements ``w[j] == w[j + p]`` beats it
    only if R >= r = (bn - bp) p // bp + 1 >= r(lo).  Such a run covers a
    block [a, a + 2^k), a a multiple of 2^k and 2^(k+1) - 1 <= r(lo), equal
    to the block at a + p.  The runs through these candidate pairs give each
    period's longest run where it is r(lo) or more, and those periods update
    the best in increasing p; no other period can beat or tie it.  No p with
    L/p <= bn/bp can win, since no factor is longer than L.
    """
    length = len(w)
    names = _block_names(w)
    best_n, best_p, lo = 1, 1, 1
    while (hi := min(2 * lo, -(-length * best_p // best_n))) > lo:
        need = (best_n - best_p) * lo // best_p + 1
        k = min((need + 1).bit_length() - 2, len(names) - 1)
        # level k's positions in (name, position) order, as name * L + position
        keys = np.sort(names[k].astype(np.int64) * length + np.arange(len(names[k])))
        at = keys % length
        starts = keys[(at % (1 << k) == 0) & (at < len(names[k]) - lo)]
        a = starts % length
        first = np.searchsorted(keys, starts + lo)
        counts = np.searchsorted(keys, np.minimum(starts + hi, starts - a + length)) - first
        b = at[np.arange(counts.sum()) + np.repeat(first - np.cumsum(counts) + counts, counts)]
        a = np.repeat(a, counts)
        longest = np.full(hi - lo, -1)
        np.maximum.at(longest, b - a - lo, _runs(names, a, b))
        for p in (np.flatnonzero(longest >= need) + lo).tolist():
            if (n := int(longest[p - lo]) + p) * best_p > best_n * p:
                best_n, best_p = n, p
        lo = hi
    return best_n, best_p


def balanced_scan(w: np.ndarray, k: int) -> bool:
    """True iff no symbol's counts differ by 2 between equal-length windows.

    That holds iff the binary word ``w == a`` is balanced for each symbol a,
    and ``_balanced_binary`` decides that in time linear in L.
    """
    return all(_balanced_binary(w == a) for a in range(k))


def _balanced_binary(u: np.ndarray) -> bool:
    """True iff the bool word u is balanced, by desubstitution.

    If u has both 00 and 11 it is unbalanced, and if it has neither it
    alternates.  Otherwise let x be the letter never doubled, at m positions
    (if m <= 1, u is balanced), z_0..z_m the runs of the other letter
    before, between and after them, and d the least interior run
    z_1..z_{m-1}.  A binary word is balanced iff it is balanced in x, and
    that is the gap criterion of ``ref_balanced_scan_by_gap`` in
    ``tests/references.py``: u is unbalanced iff maxQ_j - minP_j >= 2 for
    some j in 1..m-1.  At j = 1 that reads "some run, boundary runs
    included, exceeds d + 1".
    Otherwise the interior word v = z_1 - d, .., z_{m-1} - d is over {0, 1}
    and, for 1 <= j <= m - 1,

    - minP_j = j (d + 1) + the fewest 1s in a j-window of v;
    - maxQ_j = j (d + 1) + the most 1s in a j-window of (z_0 - d, v, z_m - d).

    A boundary value <= 0 never sets that maximum: its window moved one
    step inward holds at least as many 1s.  A boundary 1 never lowers the
    minimum: its window holds 1 plus the 1s of j - 1 interior entries, at
    least the 1s of j interior entries.  So with u' = v, plus a 1 at each
    end whose boundary run is d + 1, maxQ_j - minP_j is the spread of the
    j-windows of u'.  The windows of u' longer than v are u' itself, or
    1v and v1, which hold as many 1s.  So u is balanced iff u' is.  u' is
    shorter than u, since u has m symbols x more, and it has at most
    m + 1 <= (L + 3) / 2 symbols: O(log L) rounds of linear numpy work.
    """
    while len(u) > 2:
        twice = u[1:][u[1:] == u[:-1]]  # the letter of each 00 or 11
        if not twice.size:
            return True
        if twice.min() != twice.max():
            return False
        at = np.flatnonzero(u != twice[0])
        if len(at) <= 1:
            return True
        runs = np.diff(at, prepend=-1, append=len(u)) - 1
        d = runs[1:-1].min()
        if runs.max() > d + 1:
            return False
        longer = runs > d  # u' keeps a boundary run only if it is d + 1
        u = longer[int(not longer[0]):len(longer) - int(not longer[-1])]
    return True
