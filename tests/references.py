"""Independent slow oracles that the test suite checks the package against.

Everything here is deliberately naive: integer arithmetic straight from the
definitions, explicit window scans, regular expressions over digit strings.
The goal is that a bug in the package and a bug here would have to coincide
to slip through.  The only nontrivial package import is pell.encode_batch,
which the representation tests pin down exhaustively on its own; the
earlier parser reuses logic's tokenizer and node types, and the earlier
search kernel ``_kernels.LevelTables`` and ``_count_type``, and the earlier
subset expansion ``automata._Subsets`` and ``_prune``, and the earlier
quantifier branch (``ref_compile_quantifier``) logic's ``_negate`` and
``_project_var``, nothing more.  The
``ref_`` versions of package functions that were since rewritten for speed
are the earlier code, kept so that the rewrites are checked against it.
"""

from __future__ import annotations

import itertools
import math
import re
from fractions import Fraction

import numpy as np

from pelldecide import _kernels, automata, pell
from pelldecide import logic as L
from pelldecide.automata import Dfa, Dfao, TrackAlphabet

# ---------------------------------------------------------------------------
# Pell numbers and representations, from scratch


def ref_pell_list(count: int) -> list[int]:
    """[P_0, P_1, ..., P_{count-1}] by the recurrence."""
    vals = [0, 1]
    while len(vals) < count:
        vals.append(2 * vals[-1] + vals[-2])
    return vals[:count]


def exponent_of_m(m: int) -> Fraction:
    """Exponent of the maximal power with period P_m + P_{m-1} in the
    three-letter word: (P_{m+1} + P_m + P_{m-1} - 2) / (P_m + P_{m-1})."""
    ps = ref_pell_list(m + 2)
    return Fraction(ps[m + 1] + ps[m] + ps[m - 1] - 2, ps[m] + ps[m - 1])


def ref_decode(digits: str) -> int:
    """Sum d_i * P_{i+1} with digit d_0 written rightmost."""
    ps = ref_pell_list(len(digits) + 2)
    return sum(int(ch) * ps[len(digits) - k] for k, ch in enumerate(digits))


def ref_is_canonical(s: str) -> bool:
    """True iff ``s`` is the canonical representation of some natural: digits
    in {0, 1, 2}, no leading zero, no trailing 2, and a 0 after every 2."""
    if s == "":
        return True
    if any(c not in "012" for c in s):
        return False
    if s[0] == "0":
        return False
    if s[-1] == "2":
        return False
    return all(s[j + 1] == "0" for j in range(len(s) - 1) if s[j] == "2")


def ref_floor_alpha(m: int) -> int:
    """floor(m * a) for a = sqrt(2) - 1, via exact isqrt."""
    return math.isqrt(2 * m * m) - m


def ref_sturmian(n: int) -> int:
    """floor((n+1)a) - floor(na) for a = sqrt(2) - 1."""
    return ref_floor_alpha(n + 1) - ref_floor_alpha(n)


def _floor_sqrt(v: np.ndarray) -> np.ndarray:
    # exact integer floor-sqrt; the float estimate is then corrected both ways
    k = np.sqrt(v.astype(np.float64)).astype(np.int64)
    k = np.where((k + 1) ** 2 <= v, k + 1, k)
    return np.where(k**2 > v, k - 1, k)


def ref_sturmian_prefix(n: int) -> np.ndarray:
    """Values c(1), ..., c(n) of the Sturmian word with slope sqrt(2) - 1."""
    m = np.arange(1, n + 2, dtype=np.int64)
    floors = _floor_sqrt(2 * m * m) - m
    return (floors[1:] - floors[:-1]).astype(np.int8)


def _replace(c_vals: np.ndarray, block0: tuple[int, ...], block1: tuple[int, ...]) -> np.ndarray:
    out = np.empty(len(c_vals), dtype=np.int8)
    j0 = j1 = 0
    for i, c in enumerate(c_vals):
        if c == 0:
            out[i] = block0[j0 % len(block0)]
            j0 += 1
        else:
            out[i] = block1[j1 % len(block1)]
            j1 += 1
    return out


def ref_x5_prefix(n: int) -> np.ndarray:
    """x5(0), ..., x5(n-1): 0s of c become 0,1,0,2 in turn, 1s become 3,4."""
    return _replace(ref_sturmian_prefix(n), (0, 1, 0, 2), (3, 4))


def ref_x3_prefix(n: int) -> np.ndarray:
    """x3(0), ..., x3(n-1): 0s of c become 0,1 in turn, 1s become 2."""
    return _replace(ref_sturmian_prefix(n), (0, 1), (2,))


def ref_pows(p: int) -> bool:
    """Digit string is 11 followed by three or more zeros: p = P_m + P_{m-1}, m >= 5."""
    return re.fullmatch("110000*", pell.encode(p)) is not None


# ---------------------------------------------------------------------------
# word combinatorics, by window scan


def ref_is_balanced(word, alphabet_size: int | None = None) -> bool:
    """For every window length and symbol, counts across windows differ <= 1."""
    w = list(int(s) for s in word)
    n = len(w)
    k = (max(w) + 1) if alphabet_size is None and w else (alphabet_size or 1)
    for length in range(1, n):
        counts = [0] * k
        for s in w[:length]:
            counts[s] += 1
        lo = counts.copy()
        hi = counts.copy()
        for start in range(1, n - length + 1):
            counts[w[start - 1]] -= 1
            counts[w[start + length - 1]] += 1
            for s in (w[start - 1], w[start + length - 1]):
                lo[s] = min(lo[s], counts[s])
                hi[s] = max(hi[s], counts[s])
        if any(h - l > 1 for l, h in zip(lo, hi)):
            return False
    return True


def ref_max_exponent(word) -> Fraction:
    """Max |u|/p over factors u of the word and periods p of u.

    A factor with period p starting at i extends while w[i+j] == w[i+j+p];
    a run of r agreements gives a factor of length r + p, so scanning runs
    for every period covers every (factor, period) pair.
    """
    w = list(int(s) for s in word)
    n = len(w)
    if n == 0:
        raise ValueError("empty word")
    best = Fraction(1)
    for p in range(1, n):
        run = 0
        for i in range(n - p - 1, -1, -1):
            run = run + 1 if w[i] == w[i + p] else 0
            if (run + p) * best.denominator > best.numerator * p:
                best = Fraction(run + p, p)
    return best


def ref_extend_mask(words: np.ndarray, k: int, num: int, den: int,
                    strict: bool) -> np.ndarray:
    """Full rescan of every candidate row: all suffix runs, all windows."""
    n_rows, length = words.shape
    bad = np.zeros(n_rows, dtype=bool)
    for p in range(1, length):
        eq = words[:, p:] == words[:, :-p]
        # trailing run of agreements = repetition ending at the last symbol
        run = np.cumprod(eq[:, ::-1], axis=1).sum(axis=1)
        n = run + p
        hit = (n * den >= num * p) if strict else (n * den > num * p)
        bad |= hit & (run > 0)
    for a in range(k):
        counts = np.zeros((n_rows, length + 1), dtype=np.int32)
        np.cumsum(words == a, axis=1, out=counts[:, 1:])
        for ell in range(1, length):
            windows = counts[:, ell:] - counts[:, :-ell]
            bad |= (windows.max(axis=1) - windows.min(axis=1)) >= 2
    return ~bad


def ref_next_level(level: np.ndarray, k: int, bound: Fraction, strict: bool) -> np.ndarray:
    """Append every symbol a word may introduce, rescan, then lexsort the rows."""
    highest = level.max(axis=1)
    batches = []
    for s in range(k):
        rows = level[highest + 1 >= s]
        if rows.size:
            tail = np.full((len(rows), 1), s, dtype=np.int8)
            batches.append(np.concatenate([rows, tail], axis=1))
    candidates = np.vstack(batches)
    level = candidates[ref_extend_mask(candidates, k, bound.numerator, bound.denominator,
                                       strict)]
    return level[np.lexsort(level.T[::-1])]


def ref_bfs_levels(k: int, bound: Fraction, strict: bool, limit_depth: int):
    """Every level of the search, one full rescan each."""
    level = np.zeros((1, 1), dtype=np.int8)
    depth = 1
    yield level
    while depth < limit_depth:
        level = ref_next_level(level, k, bound, strict)
        if not level.size:
            return
        depth += 1
        yield level


def ref_children(tables, words: np.ndarray, parent: np.ndarray):
    """The earlier ``_kernels.LevelTables.children``: gathered suffix counts
    plus an ``np.eye`` row of the new symbol, joined to a zero row by
    ``concatenate``."""
    length = tables.words.shape[1]
    dtype = _kernels._count_type(length + 1)
    s = words[:, -1]
    agree = tables.words[parent, ::-1] == s[:, None]
    runs = np.zeros((len(words), length + 1), dtype=dtype)
    runs[:, :length] = np.where(agree, tables.runs[parent] + 1, 0)
    suffix = tables.counts[parent].astype(dtype, copy=False)
    suffix += np.eye(tables.counts.shape[2], dtype=dtype)[s][:, None, :]
    counts = np.concatenate([np.zeros_like(suffix[:, :1]), suffix], axis=1)
    lo = suffix.copy()
    hi = suffix
    np.minimum(lo[:, :length], tables.lo[parent], out=lo[:, :length])
    np.maximum(hi[:, :length], tables.hi[parent], out=hi[:, :length])
    return _kernels.LevelTables(words, runs, counts, lo, hi)


def ref_table_mask(words: np.ndarray, parent: np.ndarray, tables, num: int, den: int,
                   strict: bool) -> np.ndarray:
    """The earlier ``_kernels.extend_mask``: the repetition test as the int64
    product (run + 1 + p) den against num p, and the balance test as
    ``.all(axis=1)`` over the window lengths."""
    w = tables.words
    n, length = w.shape
    k = tables.counts.shape[2]
    p = np.arange(1, length + 1)
    factor = (tables.runs + 1 + p) * den
    rep = (factor >= num * p) if strict else (factor > num * p)
    bad = np.zeros((n, k), dtype=bool)
    rows, cols = np.nonzero(rep)
    bad[rows, w[rows, length - 1 - cols]] = True
    c = tables.counts[:, :length]
    keep = ((c >= tables.hi - 1) & (c <= tables.lo + 1)).all(axis=1)
    keep_plus = ((c >= tables.hi - 2) & (c <= tables.lo)).all(axis=1)
    others_fail = (~keep).sum(axis=1, keepdims=True) - ~keep
    bad |= ~keep_plus | (others_fail > 0)
    return ~bad[parent, words[:, -1]]


def ref_longest_true_run(eq: np.ndarray) -> int:
    """Length of the longest run of True in a boolean vector."""
    if not eq.size:
        return 0
    edges = np.diff(np.concatenate([[False], eq, [False]]).astype(np.int8))
    starts = np.flatnonzero(edges == 1)
    if not starts.size:
        return 0
    return int((np.flatnonzero(edges == -1) - starts).max())


def ref_exponent_scan(w: np.ndarray) -> tuple[int, int]:
    """(n, p) over every period, the least p on ties."""
    length = len(w)
    best_n, best_p = 1, 1
    for p in range(1, length):
        # longest run of agreements anywhere, not just at the end
        n = ref_longest_true_run(w[p:] == w[:-p]) + p
        if n * best_p > best_n * p:
            best_n, best_p = n, p
    return best_n, best_p


def ref_balanced_scan(w: np.ndarray, k: int) -> bool:
    """Every window length and symbol, by prefix-count differences."""
    length = len(w)
    for a in range(k):
        counts = np.concatenate([[0], np.cumsum(w == a)])
        for ell in range(1, length):
            windows = counts[ell:] - counts[:-ell]
            if windows.max() - windows.min() >= 2:
                return False
    return True


def ref_exponent_scan_by_period(w: np.ndarray) -> tuple[int, int]:
    """(n, p) from one exact run count per period, least p on ties, stopping
    at the first p with L / p <= n_best / p_best."""
    length = len(w)
    best_n, best_p = 1, 1
    for p in range(1, length):
        if length * best_p <= best_n * p:
            break
        n = ref_longest_true_run(w[p:] == w[:-p]) + p
        if n * best_p > best_n * p:
            best_n, best_p = n, p
    return best_n, best_p


def ref_balanced_scan_by_gap(w: np.ndarray, k: int) -> bool:
    """The occurrence-gap test maxQ_j - minP_j >= 2, one j at a time.

    Let P be the positions of symbol a (m of them) and Q = [-1, *P, L].  For
    j >= 1, the shortest window with j + 1 occurrences has length
    minP_j + 1, where minP_j = min(P[j:] - P[:-j]); the longest window with
    at most j - 1 occurrences has length maxQ_j - 1, where
    maxQ_j = max(Q[j:] - Q[:-j]).  The word is unbalanced in a iff
    maxQ_j - minP_j >= 2 for some j in 1..m-1:

    - (=>) windows of one length ell with counts >= c + 2 and <= c give,
      for j = c + 1, minP_j <= ell - 1 and maxQ_j >= ell + 1;
    - (<=) a window of length ell = minP_j + 1 holds j + 1 occurrences, and
      one of the same length fits strictly inside the widest Q gap, so it
      holds at most j - 1.

    ``_kernels.balanced_scan`` reduces each symbol's word by this criterion.
    """
    length = len(w)
    for a in range(k):
        pos = np.flatnonzero(w == a)
        gaps = np.concatenate([[-1], pos, [length]])
        for j in range(1, len(pos)):
            if (gaps[j:] - gaps[:-j]).max() - (pos[j:] - pos[:-j]).min() >= 2:
                return False
    return True


def ref_exponent_scan_sampled(w: np.ndarray) -> tuple[int, int]:
    """(n, p) by the earlier sampled filter: in each chunk of periods, only
    periods whose samples of ``w[j] == w[j + p]`` hold a long enough streak
    get an exact run count, in increasing p.

    Periods go in chunks of doubling size, each bounded by the best (bn, bp)
    before it.  A run of R agreements at period p beats it only if
    R >= r = (bn - bp) p // bp + 1, and any r consecutive j hold r // s
    multiples of s = max(1, r // 4).  At most ``samples`` samples (and at
    least one period) go in a chunk.
    """
    samples = 1 << 18

    def longest_run(p: int) -> int:
        # the gaps between disagreements, with disagreements at -1 and L - p
        differ = np.ones(len(w) - p + 2, dtype=bool)
        np.not_equal(w[p:], w[:-p], out=differ[1:-1])
        at = np.flatnonzero(differ)
        return int((at[1:] - at[:-1]).max()) - 1

    length = len(w)
    best_n, best_p = 1, 1
    lo = 1
    while (hi := min(2 * lo, -(-length * best_p // best_n))) > lo:
        periods = np.arange(lo, hi)
        need = (best_n - best_p) * periods // best_p + 1
        step = np.maximum(need // 4, 1)
        counts = (length - 1 - periods) // step + 1
        hi = lo + max(1, int(np.searchsorted(np.cumsum(counts), samples, side="right")))
        periods, step, streak, counts = (
            x[:hi - lo].astype(np.int32) for x in (periods, step, need // step, counts))
        group = np.repeat(np.arange(hi - lo, dtype=np.int32), counts)
        stop = np.cumsum(counts, dtype=np.int32)[group]
        t = np.arange(len(group), dtype=np.int32)
        j = (t - stop + counts[group]) * step[group]
        agree = np.insert(np.cumsum(w[j] == w[j + periods[group]], dtype=np.int32), 0, 0)
        # a streak cut short by the end of its period's samples falls short
        end = np.minimum(t + streak[group], stop)
        for p in periods[np.unique(group[agree[end] - agree[t] == streak[group]])].tolist():
            if length * best_p <= best_n * p:
                return best_n, best_p
            n = longest_run(p) + p
            if n * best_p > best_n * p:
                best_n, best_p = n, p
        lo = hi
    return best_n, best_p


def ref_block_names(w: np.ndarray) -> list[np.ndarray]:
    """names[k][i] for every level with 2^k <= L: the index of the block
    ``w[i:i + 2**k]`` among the level's distinct blocks, by first occurrence."""
    names = []
    size = 1
    while size <= len(w):
        seen: dict[bytes, int] = {}
        names.append(np.array([seen.setdefault(w[i:i + size].tobytes(), len(seen))
                               for i in range(len(w) - size + 1)], dtype=np.int32))
        size *= 2
    return names


def ref_common_extensions(w: np.ndarray, a: int, b: int) -> tuple[int, int]:
    """(backward, forward): how far ``w[j] == w[j + b - a]`` holds from j = a
    leftward (not counting a) and rightward (counting a), one symbol at a time."""
    forward = 0
    while b + forward < len(w) and w[a + forward] == w[b + forward]:
        forward += 1
    backward = 0
    while a - backward - 1 >= 0 and w[a - backward - 1] == w[b - backward - 1]:
        backward += 1
    return backward, forward


def agreement_runs(w: np.ndarray, p: int) -> np.ndarray:
    """runs[i] = number of consecutive positions t >= i with w[t] == w[t+p].

    Runs reaching the end of the prefix are truncated there; callers must
    keep i small enough that truncation cannot flip their comparison.
    """
    if p <= 0 or p >= len(w):
        return np.zeros(0, dtype=np.int64)
    eq = w[p:] == w[:-p]
    n = eq.size
    false_pos = np.flatnonzero(~eq)
    nxt = np.full(n, n, dtype=np.int64)
    if false_pos.size:
        idx = np.searchsorted(false_pos, np.arange(n), side="left")
        inside = idx < false_pos.size
        nxt[inside] = false_pos[idx[inside]]
    return nxt - np.arange(n)


# ---------------------------------------------------------------------------
# brute-force truth grids for the compiled relations
#
# Each function returns a boolean array over the box 0..box of assignments,
# axes ordered like the sorted track names of the corresponding relation.


def grid_successor(box: int) -> np.ndarray:
    x, y = np.indices((box + 1, box + 1))
    return y == x + 1


def grid_addition(box: int) -> np.ndarray:
    x, y, z = np.indices((box + 1,) * 3)
    return x + y == z


def grid_fac_cex5(w5: np.ndarray, box: int) -> np.ndarray:
    """(i, p): some n has 2n = 3p and w5[i..i+n) has period p."""
    out = np.zeros((box + 1, box + 1), dtype=bool)
    i = np.arange(box + 1)
    for p in range(2, box + 1, 2):
        n = 3 * p // 2
        runs = agreement_runs(w5, p)
        out[:, p] = runs[i] >= n - p
    return out


def grid_almost_periods(w5: np.ndarray, box: int) -> np.ndarray:
    """(n, p): p > 10, 2n + 4 >= 3p, and the word has an n-run of period p.

    The existential position is searched over the given prefix only; the
    prefix must be long enough to contain a witness for every pair in the
    box, which the grid comparison itself confirms.
    """
    n, p = np.indices((box + 1, box + 1))
    out = (p > 10) & (2 * n + 4 >= 3 * p)
    best = np.zeros(box + 1, dtype=np.int64)
    for q in range(1, box + 1):
        runs = agreement_runs(w5, q)
        if runs.size:
            best[q] = runs.max()
    return out & (n - p <= best[p])


def grid_high_periods(w3: np.ndarray, box: int) -> np.ndarray:
    """(p,): some position starts floor(8p/5) + 1 agreements at distance p."""
    out = np.zeros(box + 1, dtype=bool)
    for p in range(1, box + 1):
        runs = agreement_runs(w3, p)
        if runs.size:
            out[p] = runs.max() >= 8 * p // 5 + 1
    return out


def _exact_run_lengths(w3: np.ndarray, p: int) -> np.ndarray:
    """Sorted distinct n with w3[i..i+n) of period p and w3[i+n] != w3[i+n+p]."""
    runs = agreement_runs(w3, p)
    if not runs.size:
        return np.zeros(0, dtype=np.int64)
    # a run value is exact only when the disagreement position is in range
    i = np.arange(runs.size)
    exact = runs[i + runs < runs.size]
    return np.unique(exact)


def grid_maximal_reps(w3: np.ndarray, box: int) -> np.ndarray:
    """(n, p): some factor of length n + p with period p, maximal at n."""
    out = np.zeros((box + 1, box + 1), dtype=bool)
    for p in range(1, box + 1):
        lengths = _exact_run_lengths(w3, p)
        hit = lengths[lengths <= box]
        out[hit, p] = True
    return out


def grid_highest_powers(w3: np.ndarray, box: int) -> np.ndarray:
    """(n, p): p is a double-Pell period and n the largest maximal run."""
    out = np.zeros((box + 1, box + 1), dtype=bool)
    for p in range(1, box + 1):
        if not ref_pows(p):
            continue
        lengths = _exact_run_lengths(w3, p)
        if lengths.size:
            n = int(lengths.max())
            if n <= box:
                out[n, p] = True
    return out


_CMP = {
    "=": np.equal, "!=": np.not_equal, "<": np.less,
    "<=": np.less_equal, ">": np.greater, ">=": np.greater_equal,
}


def ref_holds(p, values: dict, words: dict, calls: dict, box: int) -> np.ndarray:
    """Truth of a parsed predicate at each assignment, by integer arithmetic.

    ``values`` maps each free variable to an array of naturals (one entry per
    assignment), ``words`` each sequence name to its values from index 0, and
    ``calls`` each callable name to a function of integer arrays.  A
    quantifier ranges over 0..box, so this is the predicate's truth only when
    every quantified variable is bounded by ``box`` in the predicate itself.
    """
    kind = type(p).__name__

    def term(t):
        name = type(t).__name__
        if name == "TVar":
            return values[t.name]
        if name == "TConst":
            return t.value
        if name == "TAdd":
            return term(t.left) + term(t.right)
        return t.factor * term(t.term)

    if kind == "PCmp":
        return _CMP[p.op](term(p.left), term(p.right))
    if kind == "PSeqConst":
        return words[p.name][term(p.index)] == p.value
    if kind == "PSeqPair":
        return words[p.left_name][term(p.left_index)] == words[p.right_name][term(p.right_index)]
    if kind == "PCall":
        return calls[p.name](*(term(a) for a in p.args))
    # a call or comparison of constants gives a Python bool, on which ~ is -1 or -2
    if kind == "PNot":
        return np.logical_not(ref_holds(p.body, values, words, calls, box))
    if kind == "PBin":
        a = ref_holds(p.left, values, words, calls, box)
        b = ref_holds(p.right, values, words, calls, box)
        return {"&": a & b, "|": a | b, "=>": np.logical_not(a) | b, "<=>": a == b}[p.op]
    shape = np.broadcast(*values.values()).shape if values else ()
    out = np.full(shape, p.kind == "A")
    name, rest = p.names[0], p.names[1:]
    body = type(p)(p.kind, rest, p.body) if rest else p.body
    for v in range(box + 1):
        got = ref_holds(body, {**values, name: np.full(shape, v)}, words, calls, box)
        out = out & got if p.kind == "A" else out | got
    return out


# ---------------------------------------------------------------------------
# the earlier predicate parser: one method per precedence level, and the
# bindings checked by a second walk over the finished tree; it shares the
# package's tokenizer and node types, so equal ASTs compare equal


class _RefParser:
    def __init__(self, text: str):
        self.tokens = L._tokenize(text)
        self.pos = 0

    def peek(self):
        return self.tokens[self.pos]

    def next(self):
        tok = self.tokens[self.pos]
        self.pos += 1
        return tok

    def at_op(self, *ops: str) -> bool:
        kind, value, _, _ = self.peek()
        return kind == "op" and value in ops

    def expect_op(self, op: str) -> None:
        kind, value, line, col = self.peek()
        if kind != "op" or value != op:
            raise L.PredicateSyntaxError(f"found {value or kind!r}", line, col, (repr(op),))
        self.pos += 1

    def expect_name(self) -> str:
        kind, value, line, col = self.peek()
        if kind != "name":
            raise L.PredicateSyntaxError(f"found {value or kind!r}", line, col, ("variable name",))
        self.pos += 1
        return value

    def parse(self):
        if self.at_op("?"):
            self.next()
            kind, value, line, col = self.next()
            if kind != "name" or value != "msd_pell":
                raise L.PredicateSyntaxError(
                    f"unsupported numeration {value!r}", line, col, ("msd_pell",)
                )
        p = self.parse_iff()
        kind, value, line, col = self.peek()
        if kind != "end":
            raise L.PredicateSyntaxError(f"trailing input {value!r}", line, col, ("end of input",))
        return p

    def parse_iff(self):
        p = self.parse_implies()
        while self.at_op("<=>"):
            self.next()
            p = L.PBin("<=>", p, self.parse_implies())
        return p

    def parse_implies(self):
        p = self.parse_or()
        if self.at_op("=>"):
            self.next()
            return L.PBin("=>", p, self.parse_implies())
        return p

    def parse_or(self):
        p = self.parse_and()
        while self.at_op("|"):
            self.next()
            p = L.PBin("|", p, self.parse_and())
        return p

    def parse_and(self):
        p = self.parse_unary()
        while self.at_op("&"):
            self.next()
            p = L.PBin("&", p, self.parse_unary())
        return p

    def parse_unary(self):
        kind, value, line, col = self.peek()
        if kind == "op" and value == "~":
            self.next()
            return L.PNot(self.parse_unary())
        if kind == "quant":
            self.next()
            names = []
            if self.peek()[0] == "name":
                names.append(self.expect_name())
                while self.at_op(","):
                    self.next()
                    names.append(self.expect_name())
            if not names:
                raise L.PredicateSyntaxError(
                    "quantifier without variables", line, col, ("variable name",)
                )
            return L.PQuant(value, tuple(names), self.parse_iff())
        return self.parse_atom()

    def parse_atom(self):
        kind, value, line, col = self.peek()
        if kind == "op" and value == "(":
            self.next()
            p = self.parse_iff()
            self.expect_op(")")
            return p
        if kind == "call":
            self.next()
            self.expect_op("(")
            args = [self.parse_term()]
            while self.at_op(","):
                self.next()
                args.append(self.parse_term())
            self.expect_op(")")
            return L.PCall(value[1:], tuple(args))
        if kind == "name" and self.tokens[self.pos + 1][:2] == ("op", "["):
            return self.parse_sequence_atom()
        return self.parse_comparison()

    def parse_sequence_atom(self):
        name = self.expect_name()
        self.expect_op("[")
        index = self.parse_term()
        self.expect_op("]")
        kind, value, line, col = self.peek()
        if kind != "op" or value not in ("=", "!="):
            raise L.PredicateSyntaxError(f"found {value or kind!r}", line, col, ("'='", "'!='"))
        self.next()
        negated = value == "!="
        kind, value, line, col = self.peek()
        if kind == "op" and value == "@":
            self.next()
            kind, value, line, col = self.peek()
            if kind != "number":
                raise L.PredicateSyntaxError(
                    f"found {value or kind!r}", line, col, ("output digit",)
                )
            self.next()
            atom = L.PSeqConst(name, index, int(value))
        else:
            other = self.expect_name()
            self.expect_op("[")
            other_index = self.parse_term()
            self.expect_op("]")
            atom = L.PSeqPair(name, index, other, other_index)
        return L.PNot(atom) if negated else atom

    def parse_comparison(self):
        left = self.parse_term()
        kind, value, line, col = self.peek()
        if kind != "op" or value not in ("=", "!=", "<", "<=", ">", ">="):
            raise L.PredicateSyntaxError(
                f"found {value or kind!r}", line, col, ("comparison operator",)
            )
        self.next()
        return L.PCmp(value, left, self.parse_term())

    def parse_term(self):
        t = self.parse_factor()
        while self.at_op("+"):
            self.next()
            t = L.TAdd(t, self.parse_factor())
        return t

    def parse_factor(self):
        kind, value, line, col = self.peek()
        if kind == "number":
            self.next()
            if self.at_op("*"):
                self.next()
                return L.TMul(int(value), self.parse_factor())
            return L.TConst(int(value))
        if kind == "name":
            self.next()
            return L.TVar(value)
        raise L.PredicateSyntaxError(
            f"found {value or kind!r}", line, col, ("number", "variable name")
        )


def _ref_check_bindings(p, bound: frozenset) -> None:
    if isinstance(p, L.PQuant):
        clash = bound.intersection(p.names)
        if clash:
            raise L.PredicateSyntaxError(f"variable {sorted(clash)[0]!r} is bound twice", 1, 1)
        if len(set(p.names)) != len(p.names):
            raise L.PredicateSyntaxError("quantifier repeats a variable", 1, 1)
        _ref_check_bindings(p.body, bound | set(p.names))
    elif isinstance(p, L.PNot):
        _ref_check_bindings(p.body, bound)
    elif isinstance(p, L.PBin):
        _ref_check_bindings(p.left, bound)
        _ref_check_bindings(p.right, bound)


def ref_parse(text: str):
    """The AST of ``text``, or PredicateSyntaxError; binding errors are
    placed at line 1, column 1, as the earlier parser placed them."""
    ast = _RefParser(text).parse()
    _ref_check_bindings(ast, frozenset())
    return ast


# ---------------------------------------------------------------------------
# earlier implementations that faster package code must reproduce exactly


def ref_encode_batch(values, length=None) -> np.ndarray:
    """Row-major digit extraction, one int64 division per position."""
    values = np.asarray(values, dtype=np.int64)
    top = int(values.max()) if values.size else 0
    need = 0
    while pell.pell_number(need + 1) <= top:
        need += 1
    length = need if length is None else length
    digits = np.zeros((len(values), length), dtype=np.int8)
    rem = values.copy()
    for pos in range(length):
        w = pell.pell_number(length - pos)
        d = rem // w
        digits[:, pos] = d
        rem -= d * w
    return digits


def ref_run_batch(a, words: np.ndarray) -> np.ndarray:
    """Final states by a 2-D index into the table, one position at a time."""
    states = np.full(len(words), a.initial, dtype=np.int32)
    for pos in range(words.shape[1]):
        states = a.delta[states, words[:, pos]]
    return states


def ref_refine_partition(delta: np.ndarray, classes: np.ndarray) -> np.ndarray:
    """Round-robin refinement: one symbol a step, until m steps split nothing."""
    n, m = delta.shape
    n_classes = int(classes.max()) + 1 if n else 0
    stable_run = 0
    s = 0
    while stable_run < m:
        pair = classes.astype(np.int64) * n_classes + classes[delta[:, s]]
        _, new = np.unique(pair, return_inverse=True)
        new_count = int(new.max()) + 1 if n else 0
        if new_count == n_classes:
            stable_run += 1
        else:
            classes = new.astype(np.int64)
            n_classes = new_count
            stable_run = 0
        s = (s + 1) % m
    return classes


def ref_minimize(a):
    """Minimal Dfa or Dfao, renumbered by a Python breadth-first walk."""
    labels = a.accepting if isinstance(a, Dfa) else a.outputs
    reach = sorted(_reach(a))
    remap = -np.ones(a.n_states, dtype=np.int64)
    remap[reach] = np.arange(len(reach))
    delta = remap[a.delta[reach]]
    labels = labels[reach]
    _, classes = np.unique(labels, return_inverse=True)
    classes = ref_refine_partition(delta, classes.astype(np.int64))
    n_classes = int(classes.max()) + 1
    reps = np.zeros(n_classes, dtype=np.int64)
    reps[classes] = np.arange(len(classes))
    qdelta = classes[delta[reps]]
    order = -np.ones(n_classes, dtype=np.int64)
    order[classes[remap[a.initial]]] = 0
    count = 1
    queue = [int(classes[remap[a.initial]])]
    while queue:
        nxt = []
        for q in queue:
            for t in qdelta[q]:
                if order[t] < 0:
                    order[t] = count
                    count += 1
                    nxt.append(int(t))
        queue = nxt
    inv = np.argsort(order)
    return type(a)(a.alphabet, order[qdelta[inv]], labels[reps][inv], 0)


_REF_OPS = {
    "and": lambda p, q: p if q else 0,  # the left label where the right is nonzero
    "or": lambda p, q: bool(p) or bool(q),
    "xor": lambda p, q: bool(p) != bool(q),
    "implies": lambda p, q: not p or bool(q),
    "iff": lambda p, q: p == q,  # two Dfaos: equal outputs
    "andnot": lambda p, q: bool(p) and not q,
}


def ref_product(a, b, op: str) -> Dfa | Dfao:
    """Boolean combination by a Python breadth-first walk over the reachable
    state pairs, numbered as found, then ref_minimize.  The ``"and"`` of a
    Dfao keeps its outputs, so it is a Dfao; every other result is a Dfa."""
    combine = _REF_OPS[op]
    pairs = [(a.initial, b.initial)]
    index = {pairs[0]: 0}
    rows = []
    for p, q in pairs:  # grows as new pairs are found
        row = []
        for s in range(a.alphabet.size):
            t = (int(a.delta[p, s]), int(b.delta[q, s]))
            if t not in index:
                index[t] = len(pairs)
                pairs.append(t)
            row.append(index[t])
        rows.append(row)
    labels = [combine(a.labels[p].item(), b.labels[q].item()) for p, q in pairs]
    kind = Dfao if op == "and" and isinstance(a, Dfao) else Dfa
    return ref_minimize(kind(a.alphabet, np.array(rows), np.array(labels), 0))


def ref_compile_quantifier(compiler, q):
    """The earlier quantifier branch of ``logic._Compiler``, a drop-in for
    its ``quantifier`` method, which gets the quantifier as ``_positions``
    left it: the whole body compiled over every track of the body, then
    each bound name projected in turn; Ax φ as ~Ex ~φ."""
    flip = L._negate if q.kind == "A" else (lambda r: r)
    r = flip(compiler.compile(q.body))
    for name in q.names:
        if name in r.tracks:
            r = L._project_var(r, name)
    return flip(r)


def ref_expand(subsets, a: int, b: int, live: tuple, bits: int, m: int, memo) -> np.ndarray:
    """The earlier ``automata._expand``, which prunes every candidate's run
    on its own: the memo's dominators only, never its runs.  A drop-in for
    the package's, so a construction through it builds the same subsets."""
    dominators = None if memo is None else memo.dominators
    flat, row_start, row_len = live
    out = np.full((b - a) * m, -1, dtype=np.int32)
    members, sizes = subsets.members(a, b)
    lens = row_len[members]
    ends = lens.cumsum(dtype=lens.dtype)
    if not ends[-1]:
        return out.reshape(b - a, m)
    at = np.arange(ends[-1], dtype=lens.dtype)
    keys = flat[at + (row_start[members] - (ends - lens)).repeat(lens)].astype(np.int64)
    keys += (np.arange(b - a, dtype=np.int64) * m << bits).repeat(sizes).repeat(lens)
    keys = automata._prune(np.unique(keys), bits, dominators)
    cand = keys >> bits
    tg = (keys & ((1 << bits) - 1)).astype(np.int32)
    bounds = np.flatnonzero(np.diff(cand, prepend=-1, append=-1))
    starts = bounds[:-1]
    lengths = bounds[1:] - starts
    ids = np.empty(len(starts), dtype=np.int32)
    for i, (s, n) in enumerate(zip(starts.tolist(), lengths.tolist())):
        run = tg[s : s + n].tobytes()
        if run not in subsets.ids:
            subsets.ids[run] = len(subsets.sets)
            subsets.sets.append(run)
        ids[i] = subsets.ids[run]
    out[cand[starts]] = ids
    return out.reshape(b - a, m)


def ref_dominators(delta3: np.ndarray, accepting: np.ndarray, sink: np.ndarray):
    """The earlier ``automata._dominators``, which takes the fork pairs of
    every choice pair, and the successors of every pair under a choice, in
    one (pairs, symbols) array each.  Reads ``automata.MAX_PAIRS`` when it
    runs, as the package's does."""
    n, m, w = delta3.shape
    if n * n > automata.MAX_PAIRS:
        return None
    right = np.ascontiguousarray(np.moveaxis(delta3, 2, 0))
    left = right * np.int32(n)

    def successors(pairs, c):
        x, y = np.divmod(pairs, n)
        return left[c][x] + right[c][y]

    c, d = np.triu_indices(w, 1)
    x, y = delta3[:, :, c].ravel(), delta3[:, :, d].ravel()
    keep = (x != y) & ~sink[x] & ~sink[y]
    x, y = x[keep], y[keep]
    frontier = np.unique(np.concatenate([x * n + y, y * n + x]))
    if not len(frontier):
        return None
    table = np.zeros((n, n), dtype=np.int8)
    table[sink] = table[:, sink] = 1
    np.fill_diagonal(table, 1)
    cells = table.reshape(-1)
    cells[frontier] = 1
    pairs = []
    found = len(frontier)
    while len(frontier):
        if found * m > automata.MAX_PAIRS:
            return None
        pairs.append(frontier)
        fresh = (successors(frontier, c) for c in range(w))
        fresh = np.concatenate([code[cells.take(code) == 0] for code in fresh])
        frontier = np.unique(fresh)
        cells[frontier] = 1
        found += len(frontier)
    pairs = np.concatenate(pairs)

    x, y = np.divmod(pairs, n)
    table[:, sink] = 0
    table[sink] = 1
    kept = accepting[y] | ~accepting[x]
    cells[pairs[~kept]] = 0
    pairs = pairs[kept]
    while True:
        before = len(pairs)
        for c in range(w):
            holds = cells.take(successors(pairs, c)).all(axis=1)
            cells[pairs[~holds]] = 0
            pairs = pairs[holds]
        if len(pairs) == before:
            break
    x, y = np.divmod(pairs, n)
    strict = (table[y, x] == 0) | (y < x)
    if not strict.any():
        return None
    x, y = np.divmod(np.sort(pairs[strict]), n)
    count = np.bincount(x, minlength=n).astype(np.int32)
    return count, count.cumsum(dtype=np.int32) - count, y


def ref_cylindrify(a, position: int):
    """Insert one free track at ``position``."""
    k = a.alphabet.n_tracks
    n = a.n_states
    shaped = a.delta.reshape((n,) + (3,) * k)
    expanded = np.broadcast_to(np.expand_dims(shaped, axis=1 + position), (n,) + (3,) * (k + 1))
    return type(a)(TrackAlphabet(k + 1), expanded.reshape(n, 3 ** (k + 1)), a.labels, a.initial)


def ref_permute_tracks(a, perm):
    """Reorder tracks; ``perm[i]`` is the old track shown at new position i."""
    k = a.alphabet.n_tracks
    n = a.n_states
    shaped = a.delta.reshape((n,) + (3,) * k).transpose((0,) + tuple(1 + p for p in perm))
    return type(a)(a.alphabet, shaped.reshape(n, 3**k), a.labels, a.initial)


def ref_place_tracks(a, positions, total: int):
    """Track i of ``a`` at ``positions[i]`` among ``total``: permute, then
    insert the free tracks one at a time, lowest position first."""
    perm = sorted(range(len(positions)), key=lambda i: positions[i])
    out = ref_permute_tracks(a, perm)
    for p in range(total):
        if p not in positions:
            out = ref_cylindrify(out, p)
    return out


def ref_pair_equal(a: Dfao, b: Dfao) -> Dfa:
    """a's value at track 0 equals b's value at track 1: the union over the
    shared outputs c of (a = c on track 0 and b = c on track 1), starting
    from the empty relation."""
    valid1, valid2 = pell.valid_tracks(1), pell.valid_tracks(2)

    def at(m: Dfao, c: int) -> Dfa:
        return automata.product(Dfa(m.alphabet, m.delta, m.outputs == c, m.initial), valid1)

    out = automata.product(automata.complement(valid2), valid2)
    for c in sorted(set(a.outputs.tolist()) & set(b.outputs.tolist())):
        both = automata.product(ref_cylindrify(at(a, c), 1), ref_cylindrify(at(b, c), 0))
        out = automata.product(out, both, "or")
    return out


def ref_zero_orbit(delta: np.ndarray, initial: int, zero_symbol: int = 0) -> np.ndarray:
    """States met reading zero symbols from ``initial``, sorted, walked one
    state at a time until the orbit closes."""
    states = [initial]
    seen = {initial}
    q = initial
    while True:
        q = int(delta[q, zero_symbol])
        if q in seen:
            return np.array(sorted(seen), dtype=np.int64)
        seen.add(q)
        states.append(q)


def ref_project_closure(delta3: np.ndarray, initial: int) -> np.ndarray:
    """The initial set of project: the closure of ``initial`` under symbol 0
    with every choice of the erased digit, by a set-based breadth-first walk."""
    frontier = {initial}
    closure = {initial}
    while frontier:
        nxt = set()
        for q in frontier:
            for t in delta3[q, 0]:
                if int(t) not in closure:
                    closure.add(int(t))
                    nxt.add(int(t))
        frontier = nxt
    return np.array(sorted(closure), dtype=np.int64)


def ref_distance_to_accepting(a: Dfa) -> np.ndarray:
    """Fewest symbols from each state to acceptance, n + 1 where there is no
    way; one np.isin against the last frontier per distance."""
    n = a.n_states
    dist = np.full(n, n + 1, dtype=np.int64)
    dist[a.accepting] = 0
    frontier = np.flatnonzero(a.accepting)
    d = 0
    while len(frontier):
        d += 1
        hits = np.isin(a.delta, frontier).any(axis=1)
        newly = np.flatnonzero(hits & (dist > d))
        dist[newly] = d
        frontier = newly
    return dist


def _reach(a) -> set[int]:
    seen = {a.initial}
    stack = [a.initial]
    while stack:
        for t in a.delta[stack.pop()]:
            if int(t) not in seen:
                seen.add(int(t))
                stack.append(int(t))
    return seen


def ref_is_infinite(a: Dfa) -> bool:
    """Kahn peeling of the useful states; leftover states lie on cycles."""
    co = set(np.flatnonzero(a.accepting).tolist())
    changed = True
    while changed:
        changed = False
        for s in range(a.n_states):
            if s not in co and any(int(t) in co for t in a.delta[s]):
                co.add(s)
                changed = True
    useful = sorted(_reach(a) & co)
    pos = {s: i for i, s in enumerate(useful)}
    indeg = [0] * len(useful)
    succ: list[list[int]] = [[] for _ in useful]
    for i, s in enumerate(useful):
        for t in set(int(t) for t in a.delta[s]):
            if t in pos:
                succ[i].append(pos[t])
                indeg[pos[t]] += 1
    stack = [i for i in range(len(useful)) if indeg[i] == 0]
    removed = 0
    while stack:
        i = stack.pop()
        removed += 1
        for j in succ[i]:
            indeg[j] -= 1
            if indeg[j] == 0:
                stack.append(j)
    return removed < len(useful)


# ---------------------------------------------------------------------------
# L* with one membership query per word


class _RefObservationTable:
    """The observation table before batching: each new cell asks ``membership``
    for its one word, and every row is rebuilt from the cell cache."""

    def __init__(self, membership, n_symbols: int):
        self._member = membership
        self.n_symbols = n_symbols
        self.prefixes: list[tuple] = [()]
        self.suffixes: list[tuple] = [()]
        self._cache: dict[tuple, object] = {}

    def cell(self, prefix: tuple, suffix: tuple):
        word = prefix + suffix
        if word not in self._cache:
            self._cache[word] = self._member(word)
        return self._cache[word]

    def row(self, prefix: tuple) -> tuple:
        return tuple(self.cell(prefix, s) for s in self.suffixes)

    def add_prefix(self, prefix: tuple) -> None:
        self.prefixes.append(prefix)

    def add_suffix(self, suffix: tuple) -> None:
        if suffix not in self.suffixes:
            self.suffixes.append(suffix)

    def closed(self):
        rows = {self.row(p) for p in self.prefixes}
        for p in self.prefixes:
            for a in range(self.n_symbols):
                if self.row(p + (a,)) not in rows:
                    return False, p + (a,)
        return True, None

    def hypothesis(self):
        ids: dict[tuple, int] = {}
        values: list = []
        for p in self.prefixes:
            r = self.row(p)
            if r not in ids:
                ids[r] = len(values)
                values.append(self.cell(p, ()))
        delta = np.zeros((len(values), self.n_symbols), dtype=np.int32)
        for p in self.prefixes:
            q = ids[self.row(p)]
            for a in range(self.n_symbols):
                delta[q, a] = ids[self.row(p + (a,))]
        return delta, values, ids[self.row(())]


def ref_restricted(machine, domain):
    """``machine`` with the zero label off ``domain``: the table of every pair
    of a machine state and a domain state, built cell by cell."""
    n, m = domain.n_states, domain.alphabet.size
    delta = np.zeros((machine.n_states * n, m), dtype=np.int32)
    labels = []
    for h in range(machine.n_states):
        for d in range(n):
            for a in range(m):
                delta[h * n + d, a] = machine.delta[h, a] * n + domain.delta[d, a]
            labels.append(machine.labels[h] if domain.accepting[d] else 0)
    initial = machine.initial * n + domain.initial
    return type(machine)(machine.alphabet, delta, np.array(labels), initial)


def ref_lstar(membership, domain, equivalence, kind):
    """L* over a per-word ``membership`` oracle; ``kind`` is Dfa or Dfao.
    Each hypothesis is restricted to ``domain`` before the equivalence query.

    Returns the learned machine and the rounds, each the table's hypothesis
    (delta, values, initial) and the equivalence query's answer.
    """
    n_symbols = domain.alphabet.size
    table = _RefObservationTable(membership, n_symbols)
    rounds = []
    while True:
        ok, ext = table.closed()
        while not ok:
            table.add_prefix(ext)
            ok, ext = table.closed()
        delta, values, initial = table.hypothesis()
        raw = kind(domain.alphabet, delta, np.asarray(values), initial)
        hyp = automata.minimize(ref_restricted(raw, domain))
        ce = equivalence(hyp)
        rounds.append(((delta, values, initial), ce))
        if ce is None:
            return hyp, rounds
        for i in range(len(ce)):
            table.add_suffix(tuple(ce[i:]))


# ---------------------------------------------------------------------------
# the equivalence sweep's words, and its oracles before the domain walk


def ref_domain_words(hypothesis, domain, n_symbols: int, max_len: int):
    """Per length up to max_len, the words ``domain`` accepts, in radix
    order, and their hypothesis states: every word run from the initial
    states."""
    out = []
    for length in range(max_len + 1):
        words = itertools.product(range(n_symbols), repeat=length)
        words = np.array(list(words), dtype=np.int8).reshape(n_symbols**length, length)
        words = words[domain.accepting[ref_run_batch(domain, words)]]
        states = ref_run_batch(hypothesis, words)
        out.append((words, states.astype(np.min_scalar_type(hypothesis.n_states - 1))))
    return out


def ref_valid_digits(digits: np.ndarray) -> np.ndarray:
    """Mask of the rows of a digit array, digits in {0, 1, 2} and msd first,
    that are 0*-padded canonical representations; a row of length 0 is."""
    if digits.shape[1] == 0:
        return np.ones(len(digits), dtype=bool)
    ok = (digits[:, :-1] != 2) | (digits[:, 1:] == 0)
    return ok.all(axis=1) & (digits[:, -1] <= 1)


def ref_adder_oracle_batch(words: np.ndarray) -> np.ndarray:
    """The addition relation's oracle, decoding every row; symbols in 0..26."""
    words = np.asarray(words)
    q = words // 3
    dx = q // 3
    dy, dz = q - 3 * dx, words - 3 * q
    ok = ref_valid_digits(dx) & ref_valid_digits(dy) & ref_valid_digits(dz)
    return ok & (pell.decode_batch(dx + dy - dz) == 0)


def ref_word_oracle(word: np.ndarray):
    """learn_word_dfao's target over ``word``, decoding every row; digits in
    0..2 and ``word`` long enough for every value they spell."""

    def batch(words: np.ndarray) -> np.ndarray:
        valid = ref_valid_digits(words)
        values = pell.decode_batch(words)
        return np.where(valid, word[values], 0)

    return batch


# ---------------------------------------------------------------------------
# single-point automaton mutants


def flip_accepting(a: Dfa, state: int) -> Dfa:
    acc = a.accepting.copy()
    acc[state] = ~acc[state]
    return Dfa(a.alphabet, a.delta.copy(), acc, a.initial)


def reroute(a: Dfa | Dfao, state: int, symbol: int, target: int) -> Dfa | Dfao:
    delta = a.delta.copy()
    delta[state, symbol] = target
    return type(a)(a.alphabet, delta, a.labels.copy(), a.initial)


def flip_output(m: Dfao, state: int) -> Dfao:
    outputs = m.outputs.copy()
    outputs[state] = (outputs[state] + 1) % (int(m.outputs.max()) + 1)
    return Dfao(m.alphabet, m.delta.copy(), outputs, m.initial)


def mutated_at_word(m: Dfao, word: str) -> Dfao:
    return flip_output(m, automata.run(m, word))


def same_automaton(a, b) -> bool:
    """Structural equality: identical tables, not just identical language."""
    if type(a) is not type(b) or a.alphabet.n_tracks != b.alphabet.n_tracks:
        return False
    if a.initial != b.initial or not np.array_equal(a.delta, b.delta):
        return False
    mine = a.accepting if isinstance(a, Dfa) else a.outputs
    theirs = b.accepting if isinstance(b, Dfa) else b.outputs
    return np.array_equal(mine, theirs)
