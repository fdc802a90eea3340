"""Multi-track deterministic finite automata over digit tuples.

Words are read most-significant digit first.  A symbol of a k-track automaton
is a tuple of k digits from {0, 1, 2}; the symbol index packs the tuple in
row-major order (track 0 varies slowest), as ``TrackAlphabet.pack`` and
``unpack`` do for whole digit arrays.  All automata are complete: every
state has a transition on every symbol, with rejection routed through ordinary
dead states instead of missing entries.  That keeps complementation a pure
accepting-set flip.

State 0 is the initial state of every automaton produced by ``minimize``
and by the operations that end in its quotient step (``product``,
``project`` and the subset construction ``_determinize``).  The quotient
also renumbers states in breadth-first order over symbol-sorted edges, so
two minimized automata accept the same language iff their tables are
identical arrays.

Relations ignore leading-zero padding.  The subset constructions that
must add padding start from a zero closure instead of taking a second pass:
``project`` from every state that symbols zero on the remaining tracks lead
to, and ``logic.reg`` from every state that leading 0s lead its pattern's
start to.
"""

from __future__ import annotations

import os
from dataclasses import dataclass
from functools import cache
from pathlib import Path
from typing import Callable, Sequence

import numpy as np

DIGITS = 3

MAX_TRACKS = 11
"""Most tracks an alphabet may have: 3^11 = 177,147 symbols, so one row of
a transition table takes 692 KiB."""

MAX_PAIRS = 1 << 24
"""Most entries of a table indexed by pairs of states: (pair, symbol) rows
of a product, or the cells and the (pair, symbol) successors of a subset
construction's inclusion relation.  It bounds the (state, symbol) entries
of a cylindrified table too, since a product of it reaches at least as many
pairs as it has states."""

__all__ = [
    "TrackAlphabet",
    "Dfa",
    "Dfao",
    "product",
    "complement",
    "project",
    "minimize",
    "is_empty",
    "is_infinite",
    "live_state_count",
    "accepts",
    "equivalent",
    "enumerate_words",
    "dfao_eval",
    "cylindrify",
    "save_text",
    "load_text",
    "to_dot",
]


class TrackBudgetError(ValueError):
    """An alphabet would have more than MAX_TRACKS tracks."""


class PairBudgetError(ValueError):
    """A product's table, or a table cylindrified for one, would have more
    than MAX_PAIRS entries."""


@dataclass(frozen=True)
class TrackAlphabet:
    """Alphabet of digit tuples for a fixed number of tracks, at most
    MAX_TRACKS: an operation makes a table's alphabet before the table, so
    a table past the budget raises TrackBudgetError unallocated."""

    n_tracks: int

    def __post_init__(self) -> None:
        if self.n_tracks < 0:
            raise ValueError("track count must be >= 0")
        if self.n_tracks > MAX_TRACKS:
            raise TrackBudgetError(
                f"{self.n_tracks} tracks ({DIGITS}^{self.n_tracks} symbols) pass the "
                f"budget of {MAX_TRACKS}; the formula is too large"
            )

    @property
    def size(self) -> int:
        return DIGITS**self.n_tracks

    def pack(self, tracks) -> np.ndarray:
        """Symbols of equally shaped digit arrays, one per track, track 0
        first (or one array whose first axis runs over the tracks): the sum
        of d_t * 3^(n_tracks - 1 - t), in a type that holds every symbol."""
        tracks = np.asarray(tracks)
        if len(tracks) != self.n_tracks:
            raise ValueError(f"expected {self.n_tracks} tracks, got {len(tracks)}")
        # with no track, np.asarray(()) is float
        dtype = np.min_scalar_type(-self.size)
        if len(tracks):
            dtype = np.promote_types(tracks.dtype, dtype)
        symbols = np.zeros(tracks.shape[1:], dtype=dtype)
        for d in tracks:
            symbols *= DIGITS
            symbols += d
        return symbols

    def unpack(self, symbols) -> tuple:
        """The digits of an integer array of symbols (or of one int), track
        0 first, each in the symbols' shape and type: the inverse of
        ``pack``.  All but track 0 cost one floor division by 3, which numpy
        does far faster than % on small integers."""
        digits = []
        for _ in range(self.n_tracks - 1):
            q = symbols // DIGITS
            digits.append(symbols - DIGITS * q)
            symbols = q
        if self.n_tracks:
            digits.append(symbols)
        return tuple(reversed(digits))

    def index(self, digits: Sequence[int]) -> int:
        """``pack`` of one digit tuple, in plain ints."""
        if len(digits) != self.n_tracks:
            raise ValueError(f"expected {self.n_tracks} digits, got {len(digits)}")
        idx = 0
        for d in digits:
            if not 0 <= d < DIGITS:
                raise ValueError(f"digit out of range: {d}")
            idx = idx * DIGITS + d
        return idx


def _freeze(arr: np.ndarray) -> np.ndarray:
    arr = np.ascontiguousarray(arr)
    arr.flags.writeable = False
    return arr


def _owned(arr: np.ndarray, dtype: type) -> np.ndarray:
    """``arr`` itself if it is a frozen ``dtype`` array that owns its data,
    else a frozen copy: nobody else can write to what a machine keeps."""
    if (arr.dtype == dtype and arr.flags.owndata and arr.flags.c_contiguous
            and not arr.flags.writeable):
        return arr
    return _freeze(np.array(arr, dtype=dtype))


def _check_table(delta: np.ndarray, n_states: int, size: int) -> None:
    if delta.shape != (n_states, size):
        raise ValueError(f"transition table shape {delta.shape} != {(n_states, size)}")
    if n_states and (delta.min() < 0 or delta.max() >= n_states):
        raise ValueError("transition target out of range")


class _Machine:
    """What Dfa and Dfao share: a complete, frozen transition table, an
    initial state, and one label per state in the field named by ``_label``."""

    _label: str
    _label_type: type

    def __post_init__(self) -> None:
        object.__setattr__(self, "delta", _owned(self.delta, np.int32))
        object.__setattr__(self, self._label, _owned(self.labels, self._label_type))
        _check_table(self.delta, self.n_states, self.alphabet.size)
        if not 0 <= self.initial < self.n_states:
            raise ValueError("initial state out of range")

    @property
    def labels(self) -> np.ndarray:
        """What tells states apart: the accepting flags or the outputs."""
        return getattr(self, self._label)

    @property
    def n_states(self) -> int:
        return len(self.labels)

    def __eq__(self, other: object) -> bool:
        if type(other) is not type(self):
            return NotImplemented
        return (
            self.alphabet == other.alphabet
            and self.initial == other.initial
            and np.array_equal(self.delta, other.delta)
            and np.array_equal(self.labels, other.labels)
        )

    def __hash__(self) -> int:
        return hash((self.alphabet, self.initial, self.delta.tobytes(), self.labels.tobytes()))


@dataclass(frozen=True, eq=False)
class Dfa(_Machine):
    """Complete DFA; ``accepting`` is a boolean flag per state."""

    alphabet: TrackAlphabet
    delta: np.ndarray
    accepting: np.ndarray
    initial: int = 0
    _label = "accepting"
    _label_type = bool


@dataclass(frozen=True, eq=False)
class Dfao(_Machine):
    """Complete DFA with an integer output attached to every state."""

    alphabet: TrackAlphabet
    delta: np.ndarray
    outputs: np.ndarray
    initial: int = 0
    _label = "outputs"
    _label_type = np.int32


# ---------------------------------------------------------------------------
# word handling


def coerce_word(a: Dfa | Dfao, word) -> np.ndarray:
    """Normalize a word to an array of symbol indices of ``a``'s alphabet.

    Accepts a digit string (1-track only), an iterable of digit tuples, or an
    iterable of symbol indices; a symbol outside the alphabet is a
    ValueError.
    """
    if isinstance(word, str) and a.alphabet.n_tracks != 1:
        raise ValueError("digit strings only describe 1-track words")
    items = list(word)
    if items and isinstance(items[0], (tuple, list, np.ndarray)):
        items = [a.alphabet.index(tuple(map(int, t))) for t in items]
    symbols = np.array([int(s) for s in items], dtype=np.int64)
    outside = (symbols < 0) | (symbols >= a.alphabet.size)
    if outside.any():
        raise ValueError(
            f"symbol {symbols[outside][0]} is outside the alphabet of {a.alphabet.size} symbols"
        )
    return symbols


def run(a: Dfa | Dfao, word) -> int:
    """Final state after reading the word from the initial state."""
    return int(run_batch(a, coerce_word(a, word)[None, :])[0])


def accepts(a: Dfa, word) -> bool:
    return bool(a.accepting[run(a, word)])


def dfao_eval(m: Dfao, n) -> int:
    """Output for ``n``: an integer (encoded in the Pell base first) or a word."""
    if isinstance(n, (int, np.integer)):
        from . import pell

        word: object = pell.encode(int(n))
    else:
        word = n
    return int(m.outputs[run(m, word)])


def run_batch(a: Dfa | Dfao, words: np.ndarray) -> np.ndarray:
    """Final states for a (n_words, length) array of symbol indices.

    Every symbol must lie in 0..m-1: the table is read through one flat,
    row-major index ``state * m + symbol`` a position, which does not check.
    """
    flat = a.delta.ravel()
    m = a.delta.shape[1]
    states = np.full(len(words), a.initial, dtype=np.int32)
    for pos in range(words.shape[1]):
        states = flat[states * m + words[:, pos]]
    return states


# ---------------------------------------------------------------------------
# reachability


def _sorted_unique(values: np.ndarray) -> np.ndarray:
    """Sorted distinct entries of an integer array.

    Same result as ``np.unique``, which in numpy 2.4 takes a hash path on
    plain integer arrays that is many times slower than one sort.
    """
    values = np.sort(values, axis=None)
    keep = np.ones(len(values), dtype=bool)
    np.not_equal(values[1:], values[:-1], out=keep[1:])
    return values[keep]


def _bfs_order(delta: np.ndarray, initial: int) -> np.ndarray:
    """Breadth-first number of every state from ``initial``, edges taken in
    symbol order; -1 for states it does not reach.  The one forward walk:
    ``>= 0`` is the reachable mask."""
    order = np.full(len(delta), -1, dtype=np.int32)
    order[initial] = 0
    count = 1
    frontier = np.array([initial])
    first = np.empty(len(delta), dtype=np.intp)
    while len(frontier):
        targets = delta[frontier].ravel()
        targets = targets[order[targets] < 0]
        # scattered in reverse, the last write to each target is its first
        # occurrence in reading order
        at = np.arange(len(targets))
        first[targets[::-1]] = at[::-1]
        frontier = targets[first[targets] == at]
        order[frontier] = np.arange(count, count + len(frontier))
        count += len(frontier)
    return order


def _explore(start, step: Callable, n_symbols: int) -> tuple[np.ndarray, list]:
    """Breadth-first walk of the hashable states that ``step(state, symbol)``
    reaches from ``start``, symbols in order: the transition table, ``start``
    state 0, and the states in their table order.  The one walk that the carry
    constructions (``learner.direct_adder`` and the words of ``sequences``)
    build their tables with."""
    ids = {start: 0}
    states = [start]
    rows = []
    for state in states:  # grows while it is read
        row = []
        for symbol in range(n_symbols):
            target = step(state, symbol)
            if target not in ids:
                ids[target] = len(states)
                states.append(target)
            row.append(ids[target])
        rows.append(row)
    return np.array(rows, dtype=np.int32), states


def _distance_to(delta: np.ndarray, targets: np.ndarray) -> np.ndarray:
    """Length of a shortest word leading each state into the boolean mask
    ``targets``; len(delta) + 1 for the states that no word leads there."""
    dist = np.where(targets, 0, len(delta) + 1)
    reached = targets.copy()
    d = 0
    while True:
        d += 1
        newly = reached[delta].any(axis=1) & ~reached
        if not newly.any():
            return dist
        dist[newly] = d
        reached |= newly


def _useful(a: Dfa) -> np.ndarray:
    """Mask of the states that are reachable and can still reach acceptance."""
    reach = _bfs_order(a.delta, a.initial) >= 0
    return reach & (_distance_to(a.delta, a.accepting) <= a.n_states)


def is_empty(a: Dfa) -> bool:
    return not a.accepting[_bfs_order(a.delta, a.initial) >= 0].any()


def live_state_count(a: Dfa) -> int:
    """Number of states that are reachable and can still reach acceptance.

    Transition tables here are total, so a minimized automaton of a non-dense
    language carries one explicit sink on top of its live states; this is the
    count with that sink (and nothing else, after minimize) excluded.
    """
    return int(_useful(a).sum())


def is_infinite(a: Dfa) -> bool:
    """True iff the accepted language is infinite.

    Holds exactly when some useful state (reachable and co-accepting) lies on
    a cycle of useful states.
    """
    alive = _useful(a)
    # Peel off states with no successor left; what survives contains a cycle.
    while alive.any():
        keep = alive & alive[a.delta].any(axis=1)
        if np.array_equal(keep, alive):
            return True
        alive = keep
    return False


# ---------------------------------------------------------------------------
# minimization


@cache
def _row_keys(m: int) -> np.ndarray:
    """Odd int64 keys that hash a state's row: m successor classes, then its class."""
    return _freeze(_zobrist_keys(m + 1).view(np.int64) | 1)


def _exact_classes(classes: np.ndarray, succ: np.ndarray) -> np.ndarray:
    """One refinement round without hashing: group the distinct rows."""
    rows = np.column_stack([classes, succ])
    _, new = np.unique(rows, axis=0, return_inverse=True)
    return new.reshape(-1).astype(np.int32)


def _refine_partition(delta: np.ndarray, labels: np.ndarray) -> np.ndarray:
    """Coarsest refinement of the partition ``labels`` stable under every
    symbol.

    Moore's rounds: each round splits the classes by the classes of all
    successors at once, and the rounds end at the first one that adds no
    class.  A state's row (successor classes, class) hashes to one int64,
    and one sort of the hashes groups the states.  The partition they end
    on is then checked once: every row must equal the row of its group's
    representative, and every class must keep to one label.  A hash
    collision only merges states that exact rounds would split, so a
    partition that passes is the coarsest stable one; one that fails costs
    exact rounds from the labels, never a wrong merge.
    """
    n, m = delta.shape
    keys = _row_keys(m)
    labels = labels.astype(np.int32)
    n_labels = int(labels.max()) + 1 if n else 0
    classes, n_classes, exact = labels, n_labels, False
    while n:
        succ = classes[delta]
        if exact:
            new = _exact_classes(classes, succ)
        else:
            hashes = np.einsum("ij,j->i", succ, keys[:m]) + classes * keys[m]
            order = np.argsort(hashes)
            ranked = hashes[order]
            first = np.ones(n, dtype=bool)
            np.not_equal(ranked[1:], ranked[:-1], out=first[1:])
            new = np.empty(n, dtype=np.int32)
            new[order] = np.cumsum(first) - 1
        new_count = int(new.max()) + 1
        if new_count > n_classes:
            classes, n_classes = new, new_count
            continue
        if exact:
            break
        rep = order[first][new]
        if (np.array_equal(succ[rep], succ) and np.array_equal(classes[rep], classes)
                and np.array_equal(labels[rep], labels)):
            break
        # a collision merged two rows: settle the partition exactly
        classes, n_classes, exact = labels, n_labels, True
    return classes


def minimize(a: Dfa | Dfao) -> Dfa | Dfao:
    """Minimal automaton with canonical breadth-first state numbering.

    Takes a Dfa or a Dfao and returns the same type: ``_quotient`` of its
    table, which drops the states that the initial state does not reach.
    """
    return _quotient(type(a), a.alphabet, a.delta, a.labels, a.initial)


def _quotient(kind: type, alphabet: TrackAlphabet, delta: np.ndarray, labels: np.ndarray,
              initial: int) -> Dfa | Dfao:
    """Minimal ``kind`` (Dfa or Dfao) of a raw table, canonically numbered.

    States start out apart by their accepting flag or their output; the
    refinement and the renumbering are shared.  The renumbering is the one
    forward walk: the classes it does not reach are dropped.  ``product``
    and ``_determinize`` build all-reachable tables and call this directly.
    """
    # a flag is a class number as it stands; outputs are ranked
    classes = labels if labels.dtype == bool else np.unique(labels, return_inverse=True)[1]
    classes = _refine_partition(delta, classes)
    n_classes = int(classes.max()) + 1

    # quotient table via one representative per class
    reps = np.zeros(n_classes, dtype=np.int64)
    reps[classes] = np.arange(len(classes))  # any representative works
    qdelta = classes[delta[reps]]
    qlabels = labels[reps]

    # canonical renumbering; the classes it does not reach (-1) sort first
    # and are dropped
    order = _bfs_order(qdelta, int(classes[initial]))
    inv = np.argsort(order)[np.count_nonzero(order < 0):]
    return kind(alphabet, _freeze(order[qdelta[inv]]), _freeze(qlabels[inv]), 0)


# ---------------------------------------------------------------------------
# boolean algebra

_OPS: dict[str, Callable[[np.ndarray, np.ndarray], np.ndarray]] = {
    "and": lambda p, q: p * (q != 0),
    "or": np.logical_or,
    "xor": np.logical_xor,
    "implies": lambda p, q: np.logical_or(np.logical_not(p), q),
    "iff": lambda p, q: p == q,
    "andnot": lambda p, q: np.logical_and(p, np.logical_not(q)),
}


def product(a: Dfa | Dfao, b: Dfa | Dfao, op: str = "and") -> Dfa | Dfao:
    """Boolean combination of two automata over the same alphabet.

    The op combines the states' labels: a nonzero output counts as true,
    except that for two Dfaos ``"iff"`` accepts where the outputs are equal,
    and ``"and"`` keeps ``a``'s label where ``b``'s is nonzero.  Boolean
    labels give a Dfa and outputs a Dfao, so ``"and"`` of a Dfao is a Dfao.
    Only the pairs reachable from the initial pair are built, walked
    level by level.  The walk numbers the pairs as it finds them, the
    initial pair first, in a table over all ``na * nb`` pair codes that
    holds each found pair's row + 1 (0 for one not found yet): it is
    allocated zeroed, so its pages that no pair touches cost nothing, and
    the rows' successors come from one gather of it.  The table goes
    straight to ``_quotient``, whose canonical numbering makes the result
    independent of the walk's order.
    """
    if a.alphabet != b.alphabet:
        raise ValueError("product requires matching alphabets")
    try:
        combine = _OPS[op]
    except KeyError:
        raise ValueError(f"unknown boolean op: {op!r}") from None

    # pair codes a * nb + b in int64: past 2^31 pairs int32 would wrap
    nb, m = b.n_states, a.alphabet.size
    da = a.delta.astype(np.int64) * nb
    db = b.delta
    frontier = np.array([a.initial * nb + b.initial], dtype=np.int64)
    # row + 1 of each pair found; rows fit int32 within MAX_PAIRS
    row = np.zeros(a.n_states * nb, dtype=np.int32)
    row[frontier] = 1
    found = [frontier]
    reached = 1
    while len(frontier):
        # every pair found so far gets a row of the table
        if reached * m > MAX_PAIRS:
            raise PairBudgetError(
                f"product passed {MAX_PAIRS} (pair, symbol) entries with {reached} pairs "
                f"of {m} symbols; the formula is too large"
            )
        succ = (da[frontier // nb] + db[frontier % nb]).ravel()
        frontier = _sorted_unique(succ[row[succ] == 0])
        row[frontier] = np.arange(reached + 1, reached + 1 + len(frontier), dtype=np.int32)
        found.append(frontier)
        reached += len(frontier)
    qa, qb = np.divmod(np.concatenate(found), nb)
    delta = row[da[qa] + db[qb]] - 1
    labels = combine(a.labels[qa], b.labels[qb])
    kind = Dfa if labels.dtype == bool else Dfao
    return _quotient(kind, a.alphabet, delta, labels, 0)


def complement(a: Dfa) -> Dfa:
    """Accepting-set flip; sound because tables are complete."""
    return Dfa(a.alphabet, a.delta, _freeze(~a.accepting), a.initial)


def equivalent(a: Dfa, b: Dfa) -> bool:
    """Language equality via emptiness of the symmetric difference."""
    return is_empty(product(a, b, "xor"))


# ---------------------------------------------------------------------------
# determinization, projection, cylindrification


MAX_SUBSETS = 1_000_000
"""Most subsets one subset construction may build before it gives up."""

_BATCH_KEYS = 1 << 17
"""Most live (subset, symbol, target) keys a subset construction sorts in
one batch, and about the most pair codes its inclusion relation holds at
once: the bound on the construction's working memory.  On the x5 factor
tail's largest projection the traced peak is 9.5 MB, against 11.2 MB at
1 << 18 and 16.0 MB at 1 << 20 with the relation in whole arrays, and the
projection takes as long."""
_INT32_MAX = np.iinfo(np.int32).max
_GOLDEN = np.uint64(0x9E3779B97F4A7C15)


class SubsetBudgetError(ValueError):
    """A subset construction outgrew MAX_SUBSETS."""


def _zobrist_keys(n: int) -> np.ndarray:
    """A pseudo-random 64-bit key per NFA state (SplitMix64 of its index)."""
    z = np.arange(1, n + 1, dtype=np.uint64) * _GOLDEN
    z = (z ^ (z >> np.uint64(30))) * np.uint64(0xBF58476D1CE4E5B9)
    z = (z ^ (z >> np.uint64(27))) * np.uint64(0x94D049BB133111EB)
    return z ^ (z >> np.uint64(31))


class _Subsets:
    """Sets of NFA states found so far, each as the bytes of its sorted
    int32 members: ``ids`` maps those bytes to the set's id, and ``sets``
    holds them in id order.  Equal bytes are equal sets, so a lookup is
    exact."""

    def __init__(self):
        self.ids = {}
        self.sets = []

    @property
    def count(self) -> int:
        return len(self.sets)

    def members(self, lo: int, hi: int) -> tuple:
        """The members of sets lo..hi-1, back to back, and each set's size."""
        chunk = self.sets[lo:hi]
        sizes = np.fromiter(map(len, chunk), dtype=np.int64, count=len(chunk)) >> 2
        return np.frombuffer(b"".join(chunk), dtype=np.int32), sizes

    def intern_runs(self, tg: np.ndarray, starts: np.ndarray) -> np.ndarray:
        """Id of each run of ``tg`` (int32, sorted and distinct members),
        the runs back to back from ``starts``; the runs not stored yet are
        stored."""
        data = tg.tobytes()
        bounds = (starts * 4).tolist()
        bounds.append(len(data))
        ids, sets = self.ids, self.sets
        out = []
        for lo, hi in zip(bounds, bounds[1:]):
            run = data[lo:hi]
            sid = ids.get(run)
            if sid is None:
                sid = ids[run] = len(sets)
                sets.append(run)
            out.append(sid)
        return np.array(out, dtype=np.int32)


class _Memo:
    """The unpruned successor runs seen so far, each with the id of its
    pruned set among the subsets in ``pruned``, under ``dominators``.  Only
    a cache: ``_determinize`` starts a new one past MAX_SUBSETS runs, and it
    never decides whether two runs are the same set.

    The runs are stored as sorted member runs, back to back from
    ``offsets``, and their hashes in a sorted index with one stored run per
    hash, so a batch's runs are looked up together.  A run hashes to the
    XOR of its members' Zobrist keys, mixed with its size.  A hash only
    guesses the stored run; the guess is confirmed member by member, and a
    run that fails is a miss, which ``_expand`` prunes and looks up among
    the subsets on its own.
    """

    def __init__(self, zobrist: np.ndarray, dominators: tuple):
        self.zobrist = zobrist
        self.dominators = dominators
        self.hashes = np.empty(0, dtype=np.uint64)
        self.ids = np.empty(0, dtype=np.int32)
        self.members = np.empty(0, dtype=np.int32)
        self.offsets = np.zeros(1, dtype=np.int64)
        self.pruned = np.empty(0, dtype=np.int32)

    @property
    def count(self) -> int:
        return len(self.offsets) - 1

    def intern_runs(self, tg: np.ndarray, starts: np.ndarray, lengths: np.ndarray) -> tuple:
        """Memo id of each run ``tg[start : start + length]``, sorted and
        distinct, or -1 for a miss; and the mask of the runs stored now.
        Each hash not in the index yet stores one run with it, numbered in
        batch order."""
        hashes = np.bitwise_xor.reduceat(self.zobrist[tg], starts)
        hashes ^= lengths.astype(np.uint64) * _GOLDEN
        # one guess per distinct hash: the stored run with that hash, else
        # one run with it, stored now
        order = np.argsort(hashes)
        first = np.ones(len(order), dtype=bool)
        np.not_equal(hashes[order[1:]], hashes[order[:-1]], out=first[1:])
        reps = order[first]
        pos = np.searchsorted(self.hashes, hashes[reps])
        known = pos < self.count
        known[known] = self.hashes[pos[known]] == hashes[reps[known]]
        guess = np.empty(len(reps), dtype=np.int32)
        guess[known] = self.ids[pos[known]]
        new = reps[~known]
        stored = np.zeros(len(starts), dtype=bool)
        stored[new] = True
        if len(new):
            guess[~known] = self.count + (np.cumsum(stored) - 1)[new]
            self.members = np.concatenate([self.members, tg.compress(stored.repeat(lengths))])
            self.offsets = np.concatenate([self.offsets,
                                           self.offsets[-1] + lengths[stored].cumsum()])
            # both parts are sorted, so a stable sort merges them in linear time
            merged = np.concatenate([self.hashes, hashes[new]])
            at = np.argsort(merged, kind="stable")
            self.hashes = merged[at]
            self.ids = np.concatenate([self.ids, guess[~known]])[at]
        ids = np.empty(len(starts), dtype=np.int32)
        ids[order] = guess[np.cumsum(first) - 1]

        # confirm every guess member by member
        off = self.offsets
        same = lengths == off[ids + 1] - off[ids]
        partner = self.members.take(np.arange(len(tg)) + (off[ids] - starts).repeat(lengths),
                                    mode="clip")
        same &= ~np.logical_or.reduceat(tg != partner, starts)
        ids[~same] = -1
        return ids, stored


def _live_rows(delta3: np.ndarray, accepting: np.ndarray, bits: int) -> tuple:
    """Sinks of an NFA, and each state's sorted, distinct ``symbol << bits |
    target`` keys over the targets that are not sinks.

    A sink rejects and every choice on every symbol loops back to it, as the
    sink of every minimized DFA does.  Dropping sinks from a subset leaves its
    language as it is.  The key rows come back to back: returns the sink
    mask and (keys, start of each row, length of each row).
    """
    n, m, w = delta3.shape
    targets = delta3.reshape(n, m * w)
    sink = (targets == np.arange(n)[:, None]).all(axis=1) & np.logical_not(accepting)
    keyed = targets.astype(np.int32 if m << bits <= _INT32_MAX else np.int64)
    keyed += (np.arange(m, dtype=keyed.dtype) << bits).repeat(w)
    keyed.sort(axis=1)
    keep = ~sink[keyed & ((1 << bits) - 1)]
    keep[:, 1:] &= keyed[:, 1:] != keyed[:, :-1]
    # key positions in int32, which makes _expand's gather faster, unless a
    # batch (at most _BATCH_KEYS keys and one subset's) could outgrow it
    fits = keep.size + _BATCH_KEYS <= _INT32_MAX
    lengths = keep.sum(axis=1, dtype=np.int32 if fits else np.int64)
    return sink, (keyed[keep], lengths.cumsum(dtype=lengths.dtype) - lengths, lengths)


def _dominators(delta3: np.ndarray, accepting: np.ndarray, sink: np.ndarray):
    """Who may drop whom from a subset: (count, start, dom), where state x's
    language is included in that of each of dom[start[x] : start[x] +
    count[x]]; None if no state has one or the tables would pass MAX_PAIRS.

    The candidate pairs are the fork pairs, the distinct live targets that
    one (state, symbol) reaches under two choices, closed under successors
    on the same (symbol, choice); the set is symmetric.  The relation is
    the greatest fixpoint on them, on a dense n x n table: (x, y) stays
    while x accepts only if y does and each successor pair stays, is equal,
    or has a sink on the left (a sink on the right counts as not included).
    Every kept pair is an inclusion.  Among equal languages only the least
    index dominates, which leaves no cycle, as the kept pairs are closed
    under chains within the candidates.

    Beside the table and the candidate pairs, the work holds about
    ``_BATCH_KEYS`` pair codes at most at once: the fork pairs are found a
    chunk of states and one choice pair at a time, and the closure and each
    fixpoint round take the successors of a chunk of pairs under one
    choice at a time.
    """
    n, m, w = delta3.shape
    if n * n > MAX_PAIRS:
        return None
    # one (n, m) table per choice; n * n fits int32 within MAX_PAIRS
    targets = np.ascontiguousarray(np.moveaxis(delta3, 2, 0), dtype=np.int32)
    step = max(_BATCH_KEYS // m, 1)  # states or pairs a chunk, m codes each

    def successors(pairs, c):
        """Chunks of the pairs, each with its successor pair codes under
        choice c, one row a pair."""
        for lo in range(0, len(pairs), step):
            chunk = pairs[lo : lo + step]
            x, y = np.divmod(chunk, n)
            codes = targets[c][x]
            codes *= n
            codes += targets[c][y]
            yield chunk, codes

    # 1 marks the pairs found so far and those never asked: equal or a sink
    table = np.zeros((n, n), dtype=np.int8)
    table[sink] = table[:, sink] = 1
    np.fill_diagonal(table, 1)
    cells = table.reshape(-1)

    def fresh(codes):
        """The distinct codes not marked yet, now marked."""
        codes = _sorted_unique(codes[cells.take(codes) == 0])
        cells[codes] = 1
        return codes

    # every (state, symbol)'s choices against each other, both ways round
    frontier = [np.empty(0, dtype=np.int32)]
    for lo in range(0, n, step):
        rows = delta3[lo : lo + step]
        for c, d in zip(*np.triu_indices(w, 1)):
            x, y = rows[:, :, c].ravel(), rows[:, :, d].ravel()
            keep = (x != y) & ~sink[x] & ~sink[y]
            x, y = x[keep], y[keep]
            frontier += [fresh(x * n + y), fresh(y * n + x)]
    frontier = np.concatenate(frontier)
    if not len(frontier):
        return None
    pairs = []
    found = len(frontier)
    while len(frontier):
        if found * m > MAX_PAIRS:
            return None
        pairs.append(frontier)
        frontier = np.concatenate([fresh(codes) for c in range(w)
                                   for _, codes in successors(frontier, c)])
        found += len(frontier)
    pairs = np.concatenate(pairs)

    # now 1 marks the pairs in the relation
    x, y = np.divmod(pairs, n)
    table[:, sink] = 0
    table[sink] = 1
    kept = accepting[y] | ~accepting[x]
    cells[pairs[~kept]] = 0
    pairs = pairs[kept]
    # a pair that fails one choice goes at once, so the rounds shrink
    while True:
        before = len(pairs)
        for c in range(w):
            held = [pairs[:0]]
            for chunk, codes in successors(pairs, c):
                holds = cells.take(codes).all(axis=1)
                cells[chunk[~holds]] = 0
                held.append(chunk[holds])
            pairs = np.concatenate(held)
        if len(pairs) == before:
            break
    x, y = np.divmod(pairs, n)
    strict = (table[y, x] == 0) | (y < x)
    if not strict.any():
        return None
    x, y = np.divmod(np.sort(pairs[strict]), n)
    count = np.bincount(x, minlength=n).astype(np.int32)
    return count, count.cumsum(dtype=np.int32) - count, y


def _prune(keys: np.ndarray, bits: int, dominators: tuple | None) -> np.ndarray:
    """Sorted distinct ``candidate << bits | target`` keys without those
    whose target another target of the same candidate dominates."""
    if dominators is None:
        return keys
    count, start, dom = dominators
    at = np.flatnonzero(count[keys & ((1 << bits) - 1)])
    if not len(at):
        return keys
    tg = keys[at] & ((1 << bits) - 1)
    lens = count[tg]
    ends = lens.cumsum()
    # each key with a dominator asks for (its candidate, that dominator)
    wanted = dom[np.arange(ends[-1]) + (start[tg] - (ends - lens)).repeat(lens)]
    wanted = wanted + (keys[at] - tg).repeat(lens)
    found = keys.take(np.searchsorted(keys, wanted), mode="clip") == wanted
    drop = np.zeros(len(keys), dtype=bool)
    drop[at.repeat(lens)[found]] = True
    return keys[~drop]


def _runs(keys: np.ndarray, bits: int) -> tuple:
    """Sorted, distinct ``candidate << bits | target`` keys as one run of
    targets a candidate: (each run's candidate, targets, starts, lengths)."""
    cand = keys >> bits
    tg = (keys & ((1 << bits) - 1)).astype(np.int32, copy=False)
    bounds = np.empty(len(cand) + 1, dtype=bool)
    bounds[0] = bounds[-1] = True
    np.not_equal(cand[1:], cand[:-1], out=bounds[1:-1])
    bounds = bounds.nonzero()[0]
    starts = bounds[:-1]
    return cand[starts], tg, starts, bounds[1:] - starts


def _expand(subsets: _Subsets, a: int, b: int, live: tuple, bits: int, m: int,
            memo: _Memo | None) -> np.ndarray:
    """Transition rows of subsets a..b-1; successors not seen yet are stored,
    and a symbol that leads to no live state gets -1.  With a ``memo``, a
    successor drops each member that its dominators let another drop: each
    unpruned run is looked up in the memo, and only the runs it stores now
    and its misses are pruned, in one call, and looked up among the
    subsets."""
    flat, row_start, row_len = live
    out = np.full((b - a) * m, -1, dtype=np.int32)
    members, sizes = subsets.members(a, b)
    lens = row_len[members]
    ends = lens.cumsum(dtype=lens.dtype)
    if not ends[-1]:  # every symbol leads every subset to the dead row
        return out.reshape(b - a, m)
    # each member's live keys, back to back: key = candidate << bits | target,
    # where candidate = subset * m + symbol; the gather index is built in place
    at = (row_start[members] - (ends - lens)).repeat(lens)
    at += np.arange(ends[-1], dtype=lens.dtype)
    keys = flat[at]
    del at
    if (b - a) * m << bits > _INT32_MAX:
        keys = keys.astype(np.int64)
    subset_base = np.arange(b - a, dtype=keys.dtype) * m << bits
    keys += subset_base.repeat(sizes).repeat(lens)
    keys.sort()
    keep = np.empty(len(keys), dtype=bool)
    keep[0] = True
    np.not_equal(keys[1:], keys[:-1], out=keep[1:])
    keys = keys.compress(keep)
    # one run of keys per candidate with a live target; the others own none
    cand, tg, starts, lengths = _runs(keys, bits)
    if memo is None:
        out[cand] = subsets.intern_runs(tg, starts)
        return out.reshape(b - a, m)
    seen, stored = memo.intern_runs(tg, starts, lengths)
    # prune the runs just stored and every miss together; no run prunes to
    # nothing, so the pruned runs come in the same order
    miss = seen < 0
    chosen = stored | miss
    pruned = _prune(keys.compress(chosen.repeat(lengths)), bits, memo.dominators)
    _, tg, starts, _ = _runs(pruned, bits)
    found = subsets.intern_runs(tg, starts)
    memo.pruned = np.concatenate([memo.pruned, found[stored[chosen]]])
    ids = memo.pruned[seen]
    ids[miss] = found[miss[chosen]]
    out[cand] = ids
    return out.reshape(b - a, m)


def _batches(subsets: _Subsets, lo: int, hi: int, row_len: np.ndarray,
             widest: int) -> list[tuple[int, int]]:
    """Split subsets lo..hi-1 into runs of about _BATCH_KEYS live keys at
    most; ``widest`` bounds the keys of one member."""
    members, sizes = subsets.members(lo, hi)
    if len(members) * widest <= _BATCH_KEYS:
        return [(lo, hi)]
    keys = row_len[members].cumsum()
    batch = keys[sizes.cumsum() - 1] // _BATCH_KEYS
    cuts = lo + np.flatnonzero(np.diff(batch, prepend=-1, append=batch[-1] + 1))
    return list(zip(cuts[:-1].tolist(), cuts[1:].tolist()))


def _determinize(delta3: np.ndarray, initial_set: np.ndarray, accepting: np.ndarray,
                 alphabet: TrackAlphabet) -> Dfa:
    """Minimized subset construction for an NFA given as (state, symbol,
    choice) targets, started from a set of states.

    Subsets hold only live states: sinks (see ``_live_rows``) are dropped,
    and a symbol that leads a subset to no live state goes to one rejecting
    dead row, never stored as a subset and appended last only when some
    symbol leads there (or no subset is left).  The table is built by a
    breadth-first walk from the initial subset, so every state is reachable
    and it goes straight to ``_quotient``, with no trim.  Each
    breadth-first level is expanded in batches of at most about
    ``_BATCH_KEYS`` live (subset, symbol, target) keys, gathered from the
    members' precomputed key rows.  One sort of a batch's keys yields every
    successor as a sorted run of members, and the run's member bytes look
    it up among the subsets stored (``_Subsets``), exactly, with no hash.
    Raises SubsetBudgetError when a level starts past MAX_SUBSETS subsets;
    the dead row is not a subset and does not count.

    Subsets are pruned by language inclusion once the construction is
    large: at the first level that needs more than one batch, the relation
    of ``_dominators`` is built, and if it relates any states the walk
    starts again from the initial subset.  From then on the initial subset
    and every successor drop each member whose language another member's
    includes, keeping the least index among equal languages.  Every subset
    keeps its language, so the quotient is the same canonical automaton.
    Constructions that fit one batch a level never ask for the relation,
    and one whose n x n table would pass MAX_PAIRS gets None at once and
    runs unpruned, as x3's 6,179-state construction in ``theorems`` does.

    A pruned walk meets the same unpruned successor runs again and again,
    so a ``_Memo`` maps each run it has stored to its pruned subset for the
    rest of the walk, and only the runs it stores now are pruned.  It looks
    up a batch's runs together, through a hashed index with one run a hash,
    as it meets many more runs than there are subsets.  A run whose hash
    another stored run holds is a miss: it is pruned again and looked up
    among the subsets, which alone decide whether two runs are the same
    set.  The memo is a cache: past MAX_SUBSETS runs it starts again empty.
    """
    n, m, w = delta3.shape
    bits = max(n - 1, 1).bit_length()
    sink, live = _live_rows(delta3, accepting, bits)
    row_len = live[2]
    widest = int(row_len.max())

    init = _sorted_unique(initial_set).astype(np.int32)
    init = init[~sink[init]]

    def start(dominators):
        subsets = _Subsets()
        memo = None if dominators is None else _Memo(_zobrist_keys(n), dominators)
        first = _prune(init, bits, dominators)
        if len(first):
            subsets.intern_runs(first, np.zeros(1, dtype=np.int64))
        return subsets, memo, [], 0

    built = False
    subsets, memo, rows, done = start(None)
    while done < subsets.count:
        level_end = subsets.count
        if level_end > MAX_SUBSETS:
            raise SubsetBudgetError(
                f"subset construction passed {MAX_SUBSETS} subsets; the formula is too large"
            )
        runs = _batches(subsets, done, level_end, row_len, widest)
        if len(runs) > 1 and not built:
            # the first level past one batch: walk again, pruned, if the
            # relation drops anything
            built = True
            dominators = _dominators(delta3, accepting, sink)
            if dominators is not None:
                subsets, memo, rows, done = start(dominators)
                continue
        for a, b in runs:
            rows.append(_expand(subsets, a, b, live, bits, m, memo))
            if memo is not None and memo.count > MAX_SUBSETS:
                memo = _Memo(memo.zobrist, memo.dominators)
        done = level_end
    # the dead row, last; it stays only if some symbol leads there or the
    # empty initial set leaves it the only state, so every state is reachable
    rows.append(np.full((1, m), -1, dtype=np.int32))
    delta = np.concatenate(rows)
    dead = delta < 0
    n_states = len(delta) if dead[:-1].any() or len(delta) == 1 else len(delta) - 1
    delta[dead] = len(delta) - 1
    members, sizes = subsets.members(0, subsets.count)
    accepting = np.append(np.logical_or.reduceat(accepting[members], sizes.cumsum() - sizes),
                          False)
    # free the construction's tables before the quotient builds its own
    del rows, subsets, memo, dead
    return _quotient(Dfa, alphabet, delta[:n_states], accepting[:n_states], 0)


def project(a: Dfa, track: int) -> Dfa:
    """Existential projection of one track.

    The erased track may carry a representation longer than the remaining
    tracks, so before determinizing, the initial set is closed under symbols
    that are zero on every remaining track with any digit on the erased one,
    which is exactly leading-zero padding of the survivors.
    """
    k = a.alphabet.n_tracks
    if not 0 <= track < k:
        raise ValueError(f"track {track} out of range for {k} tracks")
    n = a.n_states
    shaped = a.delta.reshape((n,) + (DIGITS,) * k)
    delta3 = np.moveaxis(shaped, 1 + track, k).reshape(n, DIGITS ** (k - 1), DIGITS)
    delta3 = np.ascontiguousarray(delta3)

    # zero closure at the NFA level: remaining digits 0, erased digit free
    init = np.flatnonzero(_bfs_order(delta3[:, 0, :], a.initial) >= 0)
    return _determinize(delta3, init, a.accepting, TrackAlphabet(k - 1))


def cylindrify(a: Dfa | Dfao, positions: Sequence[int], total: int) -> Dfa | Dfao:
    """Place the tracks among ``total``: track i of ``a`` becomes track
    ``positions[i]``, and the other tracks are free."""
    k = a.alphabet.n_tracks
    distinct = set(positions)
    if len(positions) != k or len(distinct) != k or not distinct <= set(range(total)):
        raise ValueError(f"cannot place {k} tracks at {tuple(positions)} among {total}")
    alphabet = TrackAlphabet(total)  # the track budget, before the table
    n = a.n_states
    if n * alphabet.size > MAX_PAIRS:
        raise PairBudgetError(
            f"cylindrify passed {MAX_PAIRS} (state, symbol) entries with {n} states "
            f"of {alphabet.size} symbols; the formula is too large"
        )
    # the old tracks in the order of their new positions, then the free ones
    shaped = a.delta.reshape((n,) + (DIGITS,) * k)
    shaped = shaped.transpose((0,) + tuple(1 + int(i) for i in np.argsort(positions)))
    free = tuple(1 + p for p in range(total) if p not in distinct)
    delta = np.empty((n, alphabet.size), dtype=np.int32)
    delta.reshape((n,) + (DIGITS,) * total)[...] = np.expand_dims(shaped, free)
    return type(a)(alphabet, _freeze(delta), a.labels, a.initial)


# ---------------------------------------------------------------------------
# enumeration


_WALK_CHUNK = 2_000_000  # most words one piece of _radix_walk holds


def _grown(digits, states, keep, delta, symbols, step):
    """The prefixes given as ``digits`` (one row per position, one column per
    prefix) and ``states``, each followed by every symbol that ``keep``
    allows in its state, in radix order and in the same form: in blocks
    grown from ``step`` prefixes at a time."""
    for lo in range(0, len(states), step):
        block = states[lo : lo + step]
        mask = keep[block]
        counts = mask.sum(axis=1)
        grown = np.empty((len(digits) + 1, counts.sum()), dtype=digits.dtype)
        grown[:-1] = np.repeat(digits[:, lo : lo + step], counts, axis=1)
        grown[-1] = np.broadcast_to(symbols, mask.shape)[mask]
        yield grown, delta[block][mask]


def _radix_walk(delta: np.ndarray, initial: int, accepting: np.ndarray, max_len: int):
    """Every word of length <= max_len that leads the table ``delta`` from
    ``initial`` into the mask ``accepting``, with the state it ends in, in
    radix order.

    Yields (words, states) pieces of at most ``_WALK_CHUNK`` words, one
    length after another.  Per length, the walk keeps only the prefixes from
    which acceptance is still in reach by length max_len: those of length L
    are the kept ones of length L-1, each followed by every symbol that keeps
    it, so their states are one gather from the length below.  A length is
    grown from at most ``_WALK_CHUNK // m`` prefixes at a time (m symbols),
    and only the lengths below max_len are kept whole.  A piece's ``words``
    is a read-only array of the smallest signed type; it is column-major, so
    that per-position slices are contiguous.  ``states`` has the table's type.
    """
    m = delta.shape[1]
    ahead = _distance_to(delta, accepting)
    # no word leads these states to acceptance, at any max_len
    ahead[ahead > len(delta)] = max_len + 1
    symbols = np.arange(m, dtype=np.min_scalar_type(-m))
    step = max(1, _WALK_CHUNK // m)  # prefixes grown at once
    # a length's prefixes in blocks, each with one row per position and one
    # column per prefix (the transpose of the words) and their states
    blocks = [(np.zeros((0, 1), dtype=symbols.dtype), np.array([initial], dtype=delta.dtype))]
    for length in range(max_len + 1):
        kept = []
        for digits, states in blocks:
            rows = np.flatnonzero(accepting[states])
            for lo in range(0, len(rows), _WALK_CHUNK):
                piece = rows[lo : lo + _WALK_CHUNK]
                words = np.take(digits, piece, axis=1).T
                words.flags.writeable = False
                yield words, states[piece]
            if length < max_len:
                kept.append((digits, states))
        if not kept:  # the last length, or no prefix left
            return
        digits = np.concatenate([d for d, _ in kept], axis=1)
        states = np.concatenate([s for _, s in kept])
        keep = ahead[delta] <= max_len - length - 1
        blocks = _grown(digits, states, keep, delta, symbols, step)


def enumerate_words(a: Dfa, max_len: int) -> list[tuple[int, ...]]:
    """Accepted words of length <= max_len as symbol-index tuples, radix order."""
    pieces = _radix_walk(a.delta, a.initial, a.accepting, max_len)
    return [tuple(w) for words, _ in pieces for w in words.tolist()]


# ---------------------------------------------------------------------------
# serialization

HEADER = "msd_pell"


def write_text_atomic(path, text: str) -> None:
    """Write ``text`` to a temporary file beside ``path``, then rename it over
    ``path``, so a failed write leaves the old file as it was."""
    path = Path(path)
    tmp = path.with_name(f".{path.name}.{os.urandom(4).hex()}.tmp")
    try:
        with open(tmp, "x", encoding="utf-8") as fh:  # default file mode, unlike mkstemp
            fh.write(text)
        os.replace(tmp, path)
    except OSError as e:
        if e.filename is None:
            raise
        raise OSError(e.errno, e.strerror, str(path)) from e  # the file asked for
    finally:
        if tmp.exists():  # open made it, and os.replace did not move it
            tmp.unlink()


def save_text(a: Dfa | Dfao, path) -> None:
    write_text_atomic(path, to_text(a))


def _spellings(alphabet: TrackAlphabet) -> list[str]:
    """Each symbol of ``alphabet`` as text spells it: its digits, comma-joined, in brackets."""
    digits = np.reshape(alphabet.unpack(np.arange(alphabet.size)), (-1, alphabet.size))
    return [f"[{','.join(map(str, d))}]" for d in digits.T.tolist()]


def to_text(a: Dfa | Dfao) -> str:
    """Text form: numeration-system header, then per-state transition blocks.

    State 0 is initial.  Automata whose initial state is not 0 are renumbered
    by swapping, so every file round-trips.
    """
    a = _initial_first(a)
    arrows = [f"{s} -> " for s in _spellings(a.alphabet)]
    lines = [HEADER]
    for q, (label, row) in enumerate(zip(a.labels.tolist(), a.delta.tolist())):
        if isinstance(a, Dfao):
            lines.append(f"state {q} output {label}")
        else:
            lines.append(f"state {q} accepting" if label else f"state {q}")
        lines += [arrow + str(t) for arrow, t in zip(arrows, row)]
    return "\n".join(lines) + "\n"


def _initial_first(a):
    if a.initial == 0:
        return a
    perm = np.arange(a.n_states)
    perm[[0, a.initial]] = perm[[a.initial, 0]]  # a swap, its own inverse
    return type(a)(a.alphabet, perm[a.delta[perm]], a.labels[perm], 0)


def load_text(path) -> Dfa | Dfao:
    return from_text(Path(path).read_text(encoding="utf-8"))


def _int32(text: str, line: str) -> int:
    """``text`` as ``to_text`` spells an int32, else a ValueError naming ``line``."""
    try:
        if str(value := int(text)) == text and -_INT32_MAX - 1 <= value <= _INT32_MAX:
            return value
    except ValueError:
        pass
    raise ValueError(f"expected a 32-bit integer, got {text.strip()!r} in line {line!r}")


def _state_line(line: str, q: int) -> tuple[bool, int]:
    """Whether the line heading state ``q`` gives an output, and its label."""
    match line.split(" "):
        case ["state", sid, *_] if sid != str(q):
            raise ValueError(f"expected state {q}, got line {line!r}")
        case ["state", _]:
            return False, 0
        case ["state", _, "accepting"]:
            return False, 1
        case ["state", _, "output", *value] if len(value) < 2:
            return True, _int32("".join(value), line)
    raise ValueError(f"malformed line: {line!r}")


def from_text(text: str) -> Dfa | Dfao:
    """The machine whose ``to_text`` is ``text``, blank and ``#`` lines aside.
    Every line is checked before any table is built, so a malformed file is
    one ValueError naming its line or state, whatever size it claims."""
    lines = [ln.strip() for ln in text.splitlines()]
    lines = [ln for ln in lines if ln and not ln.startswith("#")]
    if lines[:1] != [HEADER]:
        raise ValueError(f"expected header {HEADER!r}, got {(lines or [''])[0]!r}")
    heads: list[tuple[bool, int]] = []  # whether each state gives an output, and its label
    rows: list[list[str]] = []  # each state's symbols, in file order
    targets: list[tuple[int, str]] = []  # each transition's target, with its line
    for ln in lines[1:]:
        if ln.startswith("state "):
            heads.append(_state_line(ln, len(rows)))
            if heads[-1][0] != heads[0][0]:
                raise ValueError(f"state {len(rows)} mixes output and plain states")
            rows.append([])
        else:
            symbol, arrow, target = ln.partition(" -> ")
            if not rows or not arrow:
                raise ValueError(f"malformed line: {ln!r}")
            rows[-1].append(symbol)
            targets.append((_int32(target, ln), ln))
    if not rows:
        raise ValueError("expected state 0 after the header, got no state line")
    for target, ln in targets:
        if not 0 <= target < len(rows):
            raise ValueError(f"expected a state in 0..{len(rows) - 1}, got {target} in line {ln!r}")
    first = next((row[0] for row in rows if row), "[]")
    n_tracks = first.count(",") + (first != "[]")
    for q, row in enumerate(rows):
        if len(row) != DIGITS**n_tracks:
            raise ValueError(f"state {q} is not complete over {n_tracks} tracks")
    alphabet = TrackAlphabet(n_tracks)
    # every state is complete, so there are no more spellings than lines
    column = {s: i for i, s in enumerate(_spellings(alphabet))}
    for q, row in enumerate(rows):
        if set(row) != column.keys():
            raise ValueError(f"state {q} does not give each {n_tracks}-track symbol once")
    cells = [column[s] for row in rows for s in row]
    delta = np.empty((len(rows), alphabet.size), dtype=np.int32)
    delta[np.repeat(np.arange(len(rows)), alphabet.size), cells] = [t for t, _ in targets]
    machine = Dfao if heads[0][0] else Dfa
    return machine(alphabet, delta, np.array([label for _, label in heads]), 0)


def to_dot(a: Dfa | Dfao, name: str = "automaton") -> str:
    """Graphviz rendering with transitions grouped per (source, target)."""
    is_dfao = isinstance(a, Dfao)
    lines = [f"digraph {name} {{", "  rankdir=LR;", '  hidden [shape=none label=""];']
    for q, label in enumerate(a.labels.tolist()):
        shape = "doublecircle" if label and not is_dfao else "circle"
        text = f"{q}/{label}" if is_dfao else str(q)
        lines.append(f'  q{q} [shape={shape} label="{text}"];')
    lines.append(f"  hidden -> q{a.initial};")
    spelled = _spellings(a.alphabet)
    groups: dict[tuple[int, int], list[str]] = {}
    for q, row in enumerate(a.delta.tolist()):
        for symbol, t in zip(spelled, row):
            groups.setdefault((q, t), []).append(symbol)
    for (q, t), syms in sorted(groups.items()):
        label = " ".join(syms)
        lines.append(f'  q{q} -> q{t} [label="{label}"];')
    lines.append("}")
    return "\n".join(lines) + "\n"
