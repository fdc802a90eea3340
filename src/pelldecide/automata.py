"""Multi-track deterministic finite automata over digit tuples.

Words are read most-significant digit first.  A symbol of a k-track automaton
is a tuple of k digits from {0, 1, 2}; the symbol index packs the tuple in
row-major order (track 0 varies slowest).  All automata are complete: every
state has a transition on every symbol, with rejection routed through ordinary
dead states instead of missing entries.  That keeps complementation a pure
accepting-set flip.

State 0 is the initial state of every automaton produced by ``minimize``,
which also renumbers states in breadth-first order over symbol-sorted edges,
so two minimized automata accept the same language iff their tables are
identical arrays.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Callable, Iterable, Sequence

import numpy as np

DIGITS = 3

__all__ = [
    "TrackAlphabet",
    "Dfa",
    "Dfao",
    "product",
    "complement",
    "project",
    "zero_saturate",
    "zero_pad_closure",
    "minimize",
    "is_empty",
    "is_infinite",
    "live_state_count",
    "accepts",
    "equivalent",
    "enumerate_words",
    "enumerate_accepted",
    "dfao_eval",
    "cylindrify",
    "permute_tracks",
    "format_word",
    "parse_word",
    "save_text",
    "load_text",
    "to_dot",
]


@dataclass(frozen=True)
class TrackAlphabet:
    """Alphabet of digit tuples for a fixed number of tracks."""

    n_tracks: int

    def __post_init__(self) -> None:
        if self.n_tracks < 0:
            raise ValueError("track count must be >= 0")

    @property
    def size(self) -> int:
        return DIGITS**self.n_tracks

    def index(self, digits: Sequence[int]) -> int:
        if len(digits) != self.n_tracks:
            raise ValueError(f"expected {self.n_tracks} digits, got {len(digits)}")
        idx = 0
        for d in digits:
            if not 0 <= d < DIGITS:
                raise ValueError(f"digit out of range: {d}")
            idx = idx * DIGITS + d
        return idx

    def digits(self, index: int) -> tuple[int, ...]:
        if not 0 <= index < self.size:
            raise ValueError(f"symbol index out of range: {index}")
        out = []
        for _ in range(self.n_tracks):
            out.append(index % DIGITS)
            index //= DIGITS
        return tuple(reversed(out))

    def symbols(self) -> Iterable[tuple[int, ...]]:
        for i in range(self.size):
            yield self.digits(i)


def _freeze(arr: np.ndarray) -> np.ndarray:
    arr = np.ascontiguousarray(arr)
    arr.flags.writeable = False
    return arr


def _check_table(delta: np.ndarray, n_states: int, size: int) -> None:
    if delta.shape != (n_states, size):
        raise ValueError(f"transition table shape {delta.shape} != {(n_states, size)}")
    if n_states and (delta.min() < 0 or delta.max() >= n_states):
        raise ValueError("transition target out of range")


@dataclass(frozen=True, eq=False)
class Dfa:
    """Complete DFA; ``accepting`` is a boolean flag per state."""

    alphabet: TrackAlphabet
    delta: np.ndarray
    accepting: np.ndarray
    initial: int = 0

    def __post_init__(self) -> None:
        object.__setattr__(self, "delta", _freeze(self.delta.astype(np.int32)))
        object.__setattr__(self, "accepting", _freeze(self.accepting.astype(bool)))
        _check_table(self.delta, self.n_states, self.alphabet.size)
        if not 0 <= self.initial < self.n_states:
            raise ValueError("initial state out of range")

    @property
    def n_states(self) -> int:
        return len(self.accepting)

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Dfa):
            return NotImplemented
        return (
            self.alphabet == other.alphabet
            and self.initial == other.initial
            and np.array_equal(self.delta, other.delta)
            and np.array_equal(self.accepting, other.accepting)
        )

    def __hash__(self) -> int:
        return hash((self.alphabet, self.initial, self.delta.tobytes(), self.accepting.tobytes()))


@dataclass(frozen=True, eq=False)
class Dfao:
    """Complete DFA with an integer output attached to every state."""

    alphabet: TrackAlphabet
    delta: np.ndarray
    outputs: np.ndarray
    initial: int = 0

    def __post_init__(self) -> None:
        object.__setattr__(self, "delta", _freeze(self.delta.astype(np.int32)))
        object.__setattr__(self, "outputs", _freeze(self.outputs.astype(np.int32)))
        _check_table(self.delta, self.n_states, self.alphabet.size)
        if not 0 <= self.initial < self.n_states:
            raise ValueError("initial state out of range")

    @property
    def n_states(self) -> int:
        return len(self.outputs)

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Dfao):
            return NotImplemented
        return (
            self.alphabet == other.alphabet
            and self.initial == other.initial
            and np.array_equal(self.delta, other.delta)
            and np.array_equal(self.outputs, other.outputs)
        )

    def __hash__(self) -> int:
        return hash((self.alphabet, self.initial, self.delta.tobytes(), self.outputs.tobytes()))

    def output_alphabet(self) -> tuple[int, ...]:
        return tuple(sorted(set(int(o) for o in self.outputs)))


# ---------------------------------------------------------------------------
# word handling


def coerce_word(a: Dfa | Dfao, word) -> np.ndarray:
    """Normalize a word to an array of symbol indices.

    Accepts a digit string (1-track only), an iterable of digit tuples, or an
    iterable of symbol indices.
    """
    k = a.alphabet.n_tracks
    if isinstance(word, str):
        if k != 1:
            raise ValueError("digit strings only describe 1-track words")
        return np.array([int(c) for c in word], dtype=np.int64)
    items = list(word)
    if not items:
        return np.zeros(0, dtype=np.int64)
    if isinstance(items[0], (tuple, list, np.ndarray)):
        return np.array([a.alphabet.index(tuple(map(int, t))) for t in items], dtype=np.int64)
    return np.array([int(s) for s in items], dtype=np.int64)


def format_word(alphabet: TrackAlphabet, word: Sequence[int]) -> str:
    """Render symbol indices as digits ("201") or tuples ("[1,0,2][0,1,0]")."""
    if alphabet.n_tracks == 1:
        return "".join(str(s) for s in word)
    return "".join("[" + ",".join(map(str, alphabet.digits(int(s)))) + "]" for s in word)


def parse_word(alphabet: TrackAlphabet, text: str) -> tuple[int, ...]:
    """Inverse of format_word."""
    text = text.strip()
    if alphabet.n_tracks == 1:
        return tuple(int(c) for c in text)
    if not text:
        return ()
    if not (text.startswith("[") and text.endswith("]")):
        raise ValueError(f"malformed multi-track word: {text!r}")
    out = []
    for chunk in text[1:-1].split("]["):
        digits = tuple(int(p) for p in chunk.split(","))
        out.append(alphabet.index(digits))
    return tuple(out)


def run(a: Dfa | Dfao, word) -> int:
    """Final state after reading the word from the initial state."""
    state = a.initial
    delta = a.delta
    for s in coerce_word(a, word):
        state = int(delta[state, s])
    return state


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
    """Final states for a (n_words, length) array of symbol indices."""
    states = np.full(len(words), a.initial, dtype=np.int32)
    for pos in range(words.shape[1]):
        states = a.delta[states, words[:, pos]]
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


def _reachable(delta: np.ndarray, initial: int) -> np.ndarray:
    """Sorted array of states reachable from the initial state."""
    n = len(delta)
    seen = np.zeros(n, dtype=bool)
    seen[initial] = True
    frontier = np.array([initial], dtype=np.int64)
    while len(frontier):
        nxt = _sorted_unique(delta[frontier])
        nxt = nxt[~seen[nxt]]
        seen[nxt] = True
        frontier = nxt
    return np.flatnonzero(seen)


def _coreachable(delta: np.ndarray, targets: np.ndarray) -> np.ndarray:
    """Boolean mask of states from which some target state is reachable."""
    n, m = delta.shape
    mask = np.zeros(n, dtype=bool)
    mask[targets] = True
    while True:
        hits = mask[delta].any(axis=1) | mask
        if np.array_equal(hits, mask):
            return mask
        mask = hits


def is_empty(a: Dfa) -> bool:
    return not a.accepting[_reachable(a.delta, a.initial)].any()


def live_state_count(a: Dfa) -> int:
    """Number of states that are reachable and can still reach acceptance.

    Transition tables here are total, so a minimized automaton of a non-dense
    language carries one explicit sink on top of its live states; this is the
    count with that sink (and nothing else, after minimize) excluded.
    """
    reach = np.zeros(a.n_states, dtype=bool)
    reach[_reachable(a.delta, a.initial)] = True
    live = reach & _coreachable(a.delta, np.flatnonzero(a.accepting))
    return int(live.sum())


def is_infinite(a: Dfa) -> bool:
    """True iff the accepted language is infinite.

    Holds exactly when some useful state (reachable and co-accepting) lies on
    a cycle of useful states.
    """
    reach = np.zeros(a.n_states, dtype=bool)
    reach[_reachable(a.delta, a.initial)] = True
    useful = reach & _coreachable(a.delta, np.flatnonzero(a.accepting))
    idx = np.flatnonzero(useful)
    if not len(idx):
        return False
    # Kahn peeling on the useful subgraph; leftover nodes form cycles.
    pos = {int(s): i for i, s in enumerate(idx)}
    indeg = np.zeros(len(idx), dtype=np.int64)
    succ: list[list[int]] = [[] for _ in idx]
    for i, s in enumerate(idx):
        for t in np.unique(a.delta[s]):
            if useful[t]:
                succ[i].append(pos[int(t)])
                indeg[pos[int(t)]] += 1
    stack = [i for i in range(len(idx)) if indeg[i] == 0]
    removed = 0
    while stack:
        i = stack.pop()
        removed += 1
        for j in succ[i]:
            indeg[j] -= 1
            if indeg[j] == 0:
                stack.append(j)
    return removed < len(idx)


# ---------------------------------------------------------------------------
# minimization


def _refine_partition(delta: np.ndarray, classes: np.ndarray) -> np.ndarray:
    """Coarsest refinement of ``classes`` stable under every symbol."""
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


def minimize(a: Dfa | Dfao) -> Dfa | Dfao:
    """Minimal automaton with canonical breadth-first state numbering.

    Takes a Dfa or a Dfao and returns the same type.  States start out apart
    by their accepting flag or their output; the refinement and the
    renumbering are shared.
    """
    labels = a.accepting if isinstance(a, Dfa) else a.outputs
    reach = _reachable(a.delta, a.initial)
    remap = -np.ones(a.n_states, dtype=np.int64)
    remap[reach] = np.arange(len(reach))
    delta = remap[a.delta[reach]]
    labels = labels[reach]
    initial = int(remap[a.initial])

    _, classes = np.unique(labels, return_inverse=True)
    classes = _refine_partition(delta, classes.astype(np.int64))
    n_classes = int(classes.max()) + 1

    # quotient table via one representative per class
    reps = np.zeros(n_classes, dtype=np.int64)
    reps[classes] = np.arange(len(classes))  # any representative works
    qdelta = classes[delta[reps]]
    qlabels = labels[reps]
    qinit = int(classes[initial])

    # canonical renumbering: BFS from the initial class in symbol order
    order = -np.ones(n_classes, dtype=np.int64)
    order[qinit] = 0
    count = 1
    queue = [qinit]
    while queue:
        nxt = []
        for q in queue:
            for t in qdelta[q]:
                if order[t] < 0:
                    order[t] = count
                    count += 1
                    nxt.append(int(t))
        queue = nxt
    # all classes are reachable here because unreachable states were dropped
    inv = np.argsort(order)
    return type(a)(a.alphabet, order[qdelta[inv]], qlabels[inv], 0)


# ---------------------------------------------------------------------------
# boolean algebra

_OPS: dict[str, Callable[[np.ndarray, np.ndarray], np.ndarray]] = {
    "and": np.logical_and,
    "or": np.logical_or,
    "xor": np.logical_xor,
    "implies": lambda p, q: np.logical_or(~p, q),
    "iff": lambda p, q: p == q,
    "andnot": lambda p, q: np.logical_and(p, ~q),
}


def product(a: Dfa, b: Dfa, op: str = "and") -> Dfa:
    """Boolean combination of two automata over the same alphabet."""
    if a.alphabet != b.alphabet:
        raise ValueError("product requires matching alphabets")
    try:
        combine = _OPS[op]
    except KeyError:
        raise ValueError(f"unknown boolean op: {op!r}") from None

    nb = b.n_states
    start = np.int64(a.initial) * nb + b.initial
    codes = np.array([start], dtype=np.int64)
    frontier = codes
    da = a.delta.astype(np.int64)
    db = b.delta.astype(np.int64)
    while len(frontier):
        qa, qb = frontier // nb, frontier % nb
        succ = _sorted_unique(da[qa] * nb + db[qb])
        frontier = np.setdiff1d(succ, codes, assume_unique=True)
        codes = np.sort(np.concatenate([codes, frontier]))
    qa, qb = codes // nb, codes % nb
    delta = np.searchsorted(codes, da[qa] * nb + db[qb])
    accepting = combine(a.accepting[qa], b.accepting[qb])
    return minimize(
        Dfa(
            alphabet=a.alphabet,
            delta=delta,
            accepting=accepting,
            initial=int(np.searchsorted(codes, start)),
        )
    )


def complement(a: Dfa) -> Dfa:
    """Accepting-set flip; sound because tables are complete."""
    return Dfa(a.alphabet, a.delta.copy(), ~a.accepting, a.initial)


def equivalent(a: Dfa, b: Dfa) -> bool:
    """Language equality via emptiness of the symmetric difference."""
    return is_empty(product(a, b, "xor"))


# ---------------------------------------------------------------------------
# determinization, projection, saturation


MAX_SUBSETS = 1_000_000
"""Most subsets one subset construction may build before it gives up."""

_BATCH_KEYS = 1 << 22  # (subset, symbol, target) keys sorted in one batch
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
    """Subsets found so far: sorted member runs, back to back, and their
    hashes in a sorted index.

    A subset hashes to the XOR of its members' Zobrist keys, mixed with its
    size.  Hashes only narrow the search: identity is always decided by
    comparing members.
    """

    def __init__(self, zobrist: np.ndarray, nfa_accepting: np.ndarray):
        self.zobrist = zobrist
        self.nfa_accepting = nfa_accepting
        self.members = np.empty(1 << 12, dtype=np.int32)
        self.offsets = np.zeros(1 << 10, dtype=np.int64)
        self.count = 0
        self.hashes = np.empty(0, dtype=np.uint64)
        self.ids = np.empty(0, dtype=np.int64)
        self.accepting: list[np.ndarray] = []

    def digest(self, members: np.ndarray, starts: np.ndarray, lengths: np.ndarray) -> np.ndarray:
        mixed = np.bitwise_xor.reduceat(self.zobrist[members], starts)
        return mixed ^ lengths.astype(np.uint64) * _GOLDEN

    def add(self, members: np.ndarray, lengths: np.ndarray, hashes: np.ndarray) -> int:
        """Store new subsets whose members come back to back; returns the
        first new id."""
        used = int(self.offsets[self.count])
        need = used + len(members)
        if need > len(self.members):
            self.members = np.resize(self.members, max(need, 2 * len(self.members)))
        self.members[used:need] = members
        first, self.count = self.count, self.count + len(lengths)
        if self.count >= len(self.offsets):
            self.offsets = np.resize(self.offsets, max(self.count + 1, 2 * len(self.offsets)))
        ends = np.cumsum(lengths)
        self.offsets[first + 1 : self.count + 1] = used + ends
        self.accepting.append(np.logical_or.reduceat(self.nfa_accepting[members], ends - lengths))
        # merge the new hashes into the sorted index
        order = np.argsort(hashes)
        at = np.searchsorted(self.hashes, hashes[order]) + np.arange(len(order))
        old = np.ones(self.count, dtype=bool)
        old[at] = False
        merged_hashes = np.empty(self.count, dtype=np.uint64)
        merged_hashes[at], merged_hashes[old] = hashes[order], self.hashes
        merged_ids = np.empty(self.count, dtype=np.int64)
        merged_ids[at], merged_ids[old] = first + order, self.ids
        self.hashes, self.ids = merged_hashes, merged_ids
        return first

    def find(self, hashes: np.ndarray) -> np.ndarray:
        """Id of the first stored subset with each hash, or -1."""
        pos = np.minimum(np.searchsorted(self.hashes, hashes), len(self.hashes) - 1)
        return np.where(self.hashes[pos] == hashes, self.ids[pos], -1)

    def intern(self, members: np.ndarray, h: np.uint64) -> int:
        """Id of the subset with exactly these members, stored if new."""
        lo, hi = np.searchsorted(self.hashes, h, "left"), np.searchsorted(self.hashes, h, "right")
        for sid in self.ids[lo:hi]:
            if np.array_equal(self.members[self.offsets[sid] : self.offsets[sid + 1]], members):
                return int(sid)
        return self.add(members, np.array([len(members)]), np.array([h]))


def _expand(subsets: _Subsets, a: int, b: int, keyed: np.ndarray, bits: int, m: int) -> np.ndarray:
    """Transition rows of subsets a..b-1; successors not seen yet are stored."""
    off = subsets.offsets
    keys = keyed[subsets.members[off[a] : off[b]]]
    if (b - a) * m << bits > _INT32_MAX:
        keys = keys.astype(np.int64)
    # key = candidate << bits | target, where candidate = subset * m + symbol
    subset_base = np.arange(b - a, dtype=keys.dtype) * m << bits
    keys += np.repeat(subset_base, off[a + 1 : b + 1] - off[a:b])[:, None]
    keys = keys.ravel()
    keys.sort()
    keep = np.empty(len(keys), dtype=bool)
    keep[0] = True
    np.not_equal(keys[1:], keys[:-1], out=keep[1:])
    keys = np.compress(keep, keys)
    cand = keys >> bits
    tg = (keys & ((1 << bits) - 1)).astype(np.int32, copy=False)
    # every subset is non-empty, so every candidate owns at least one key
    lengths = np.bincount(cand, minlength=(b - a) * m)
    starts = np.cumsum(lengths) - lengths
    hashes = subsets.digest(tg, starts, lengths)

    # one guess per distinct hash: the stored subset with that hash, else
    # the first candidate with it, stored now
    order = np.argsort(hashes)
    first = np.ones(len(order), dtype=bool)
    np.not_equal(hashes[order[1:]], hashes[order[:-1]], out=first[1:])
    reps = order[first]
    guess = subsets.find(hashes[reps])
    unseen = guess < 0
    if unseen.any():
        is_new = np.zeros(len(starts), dtype=bool)
        is_new[reps[unseen]] = True
        first_id = subsets.add(np.compress(is_new[cand], tg), lengths[is_new], hashes[is_new])
        guess[unseen] = first_id + (np.cumsum(is_new) - 1)[reps[unseen]]
    ids = np.empty(len(starts), dtype=np.int64)
    ids[order] = guess[np.cumsum(first) - 1]

    # confirm every guess member by member; settle the rest one by one
    off = subsets.offsets
    same = lengths == off[ids + 1] - off[ids]
    partner = subsets.members.take(np.arange(len(tg)) + (off[ids] - starts)[cand], mode="clip")
    same &= ~np.logical_or.reduceat(tg != partner, starts)
    for i in np.flatnonzero(~same):
        ids[i] = subsets.intern(tg[starts[i] : starts[i] + lengths[i]], hashes[i])
    return ids.reshape(b - a, m)


def _batches(offsets: np.ndarray, lo: int, hi: int, keys_per_member: int) -> list[tuple[int, int]]:
    """Split subsets lo..hi-1 into runs of about _BATCH_KEYS keys at most."""
    if (offsets[hi] - offsets[lo]) * keys_per_member <= _BATCH_KEYS:
        return [(lo, hi)]
    batch = (offsets[lo + 1 : hi + 1] - offsets[lo]) * keys_per_member // _BATCH_KEYS
    cuts = lo + np.flatnonzero(np.diff(batch, prepend=-1, append=batch[-1] + 1))
    return list(zip(cuts[:-1].tolist(), cuts[1:].tolist()))


def _determinize(delta3: np.ndarray, initial_set: np.ndarray, accepting: np.ndarray,
                 alphabet: TrackAlphabet) -> Dfa:
    """Minimized subset construction for an NFA given as (state, symbol,
    choice) targets, started from a non-empty set of states.

    Each breadth-first level is expanded in batches of at most about
    ``_BATCH_KEYS`` (subset, symbol, target) keys.  One sort of a batch's
    keys yields every successor as a sorted run of members; hashes find the
    runs already stored, and a comparison of members confirms each match.
    Raises SubsetBudgetError when a level starts past MAX_SUBSETS subsets.
    """
    n, m, w = delta3.shape
    bits = max(n - 1, 1).bit_length()
    keyed = delta3.reshape(n, m * w).astype(np.int32 if m << bits <= _INT32_MAX else np.int64)
    keyed += np.repeat(np.arange(m) << bits, w)

    subsets = _Subsets(_zobrist_keys(n), accepting)
    init = np.unique(initial_set).astype(np.int32)
    size = np.array([len(init)])
    subsets.add(init, size, subsets.digest(init, np.zeros(1, dtype=np.int64), size))
    rows = []
    done = 0
    while done < subsets.count:
        level_end = subsets.count
        if level_end > MAX_SUBSETS:
            raise SubsetBudgetError(
                f"subset construction passed {MAX_SUBSETS} subsets; the formula is too large"
            )
        for a, b in _batches(subsets.offsets, done, level_end, m * w):
            rows.append(_expand(subsets, a, b, keyed, bits, m))
        done = level_end
    delta = np.concatenate(rows)
    return minimize(Dfa(alphabet, delta, np.concatenate(subsets.accepting), 0))


def _zero_orbit(delta: np.ndarray, initial: int, zero_symbol: int = 0) -> np.ndarray:
    states = [initial]
    seen = {initial}
    q = initial
    while True:
        q = int(delta[q, zero_symbol])
        if q in seen:
            return np.array(sorted(seen), dtype=np.int64)
        seen.add(q)
        states.append(q)


def zero_saturate(a: Dfa) -> Dfa:
    """Close the language under removal of leading all-zero symbols.

    The result accepts w iff ``a`` accepts 0^k w for some k >= 0, where 0 is
    the symbol with every track digit zero.
    """
    init = _zero_orbit(a.delta, a.initial)
    delta3 = a.delta[:, :, None]
    return _determinize(delta3, init, a.accepting, a.alphabet)


def zero_pad_closure(a: Dfa) -> Dfa:
    """Close the language under addition of leading all-zero symbols.

    The result accepts 0^k w for every accepted w and k >= 0; together with
    zero_saturate this turns an automaton over exact strings into one that is
    indifferent to leading-zero padding.
    """
    n = a.n_states
    m = a.alphabet.size
    delta3 = np.empty((n + 1, m, 2), dtype=np.int32)
    delta3[:n, :, 0] = a.delta
    delta3[:n, :, 1] = a.delta
    # fresh initial: consume one padding zero and stay, or start the word
    delta3[n, :, 0] = a.delta[a.initial]
    delta3[n, :, 1] = a.delta[a.initial]
    delta3[n, 0, 0] = n
    accepting = np.concatenate([a.accepting, a.accepting[a.initial : a.initial + 1]])
    init = np.array([n], dtype=np.int64)
    return _determinize(delta3, init, accepting, a.alphabet)


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
    frontier = {a.initial}
    closure = {a.initial}
    while frontier:
        nxt = set()
        for q in frontier:
            for t in delta3[q, 0]:
                if int(t) not in closure:
                    closure.add(int(t))
                    nxt.add(int(t))
        frontier = nxt
    init = np.array(sorted(closure), dtype=np.int64)
    return _determinize(delta3, init, a.accepting, TrackAlphabet(k - 1))


def cylindrify(a: Dfa, position: int) -> Dfa:
    """Insert an unconstrained track at the given position."""
    k = a.alphabet.n_tracks
    if not 0 <= position <= k:
        raise ValueError("track insertion position out of range")
    n = a.n_states
    shaped = a.delta.reshape((n,) + (DIGITS,) * k)
    expanded = np.broadcast_to(
        np.expand_dims(shaped, axis=1 + position),
        (n,) + (DIGITS,) * (k + 1),
    )
    return Dfa(
        alphabet=TrackAlphabet(k + 1),
        delta=expanded.reshape(n, DIGITS ** (k + 1)),
        accepting=a.accepting.copy(),
        initial=a.initial,
    )


def permute_tracks(a: Dfa, perm: Sequence[int]) -> Dfa:
    """Reorder tracks; ``perm[i]`` is the old track shown at new position i."""
    k = a.alphabet.n_tracks
    if sorted(perm) != list(range(k)):
        raise ValueError(f"not a permutation of {k} tracks: {perm}")
    n = a.n_states
    shaped = a.delta.reshape((n,) + (DIGITS,) * k)
    shaped = shaped.transpose((0,) + tuple(1 + p for p in perm))
    return Dfa(
        alphabet=a.alphabet,
        delta=shaped.reshape(n, DIGITS**k),
        accepting=a.accepting.copy(),
        initial=a.initial,
    )


# ---------------------------------------------------------------------------
# enumeration


def enumerate_words(a: Dfa, max_len: int) -> list[tuple[int, ...]]:
    """Accepted words of length <= max_len as symbol-index tuples, radix order."""
    dist = _distance_to_accepting(a)
    out: list[tuple[int, ...]] = []
    m = a.alphabet.size

    def walk(state: int, word: tuple[int, ...]) -> None:
        if a.accepting[state]:
            out.append(word)
        if len(word) == max_len:
            return
        for s in range(m):
            t = int(a.delta[state, s])
            if dist[t] <= max_len - len(word) - 1:
                walk(t, word + (s,))

    if dist[a.initial] <= max_len:
        walk(a.initial, ())
    out.sort(key=lambda w: (len(w), w))
    return out


def _distance_to_accepting(a: Dfa) -> np.ndarray:
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


def enumerate_accepted(a: Dfa, max_len: int) -> list[str]:
    """Accepted words of length <= max_len, formatted, in radix order."""
    return [format_word(a.alphabet, w) for w in enumerate_words(a, max_len)]


# ---------------------------------------------------------------------------
# serialization

HEADER = "msd_pell"


def save_text(a: Dfa | Dfao, path) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(to_text(a))


def to_text(a: Dfa | Dfao) -> str:
    """Text form: numeration-system header, then per-state transition blocks.

    State 0 is initial.  Automata whose initial state is not 0 are renumbered
    by swapping, so every file round-trips.
    """
    a = _initial_first(a)
    lines = [HEADER]
    alphabet = a.alphabet
    is_dfao = isinstance(a, Dfao)
    for q in range(a.n_states):
        head = f"state {q}"
        if is_dfao:
            head += f" output {int(a.outputs[q])}"
        elif a.accepting[q]:
            head += " accepting"
        lines.append(head)
        for s in range(alphabet.size):
            tup = ",".join(map(str, alphabet.digits(s)))
            lines.append(f"[{tup}] -> {int(a.delta[q, s])}")
    return "\n".join(lines) + "\n"


def _initial_first(a):
    if a.initial == 0:
        return a
    perm = np.arange(a.n_states)
    perm[[0, a.initial]] = perm[[a.initial, 0]]
    inv = np.argsort(perm)
    delta = inv[a.delta[perm]]
    if isinstance(a, Dfao):
        return Dfao(a.alphabet, delta, a.outputs[perm], 0)
    return Dfa(a.alphabet, delta, a.accepting[perm], 0)


def load_text(path) -> Dfa | Dfao:
    with open(path, "r", encoding="utf-8") as fh:
        return from_text(fh.read())


def from_text(text: str) -> Dfa | Dfao:
    lines = [ln.strip() for ln in text.splitlines()]
    lines = [ln for ln in lines if ln and not ln.startswith("#")]
    if not lines or lines[0] != HEADER:
        raise ValueError(f"expected header {HEADER!r}")
    states: list[dict] = []
    current: dict | None = None
    n_tracks: int | None = None
    for ln in lines[1:]:
        if ln.startswith("state "):
            parts = ln.split()
            sid = int(parts[1])
            if sid != len(states):
                raise ValueError("state blocks must appear in order")
            current = {"accepting": False, "output": None, "trans": {}}
            rest = parts[2:]
            while rest:
                if rest[0] == "accepting":
                    current["accepting"] = True
                    rest = rest[1:]
                elif rest[0] == "output":
                    current["output"] = int(rest[1])
                    rest = rest[2:]
                else:
                    raise ValueError(f"bad state attribute: {rest[0]!r}")
            states.append(current)
        else:
            if current is None or "->" not in ln:
                raise ValueError(f"malformed line: {ln!r}")
            sym_text, target = ln.split("->")
            sym_text = sym_text.strip()
            if not (sym_text.startswith("[") and sym_text.endswith("]")):
                raise ValueError(f"malformed symbol: {sym_text!r}")
            inner = sym_text[1:-1].strip()
            digits = tuple(int(p) for p in inner.split(",")) if inner else ()
            if n_tracks is None:
                n_tracks = len(digits)
            elif n_tracks != len(digits):
                raise ValueError("inconsistent track counts")
            current["trans"][digits] = int(target)
    if n_tracks is None:
        n_tracks = 0
    alphabet = TrackAlphabet(n_tracks)
    n = len(states)
    delta = np.zeros((n, alphabet.size), dtype=np.int32)
    for q, st in enumerate(states):
        if len(st["trans"]) != alphabet.size:
            raise ValueError(f"state {q} is not complete")
        for digits, target in st["trans"].items():
            delta[q, alphabet.index(digits)] = target
    outputs = [st["output"] for st in states]
    if any(o is not None for o in outputs):
        if any(o is None for o in outputs):
            raise ValueError("mixed output and plain states")
        return Dfao(alphabet, delta, np.array(outputs, dtype=np.int32), 0)
    accepting = np.array([st["accepting"] for st in states], dtype=bool)
    return Dfa(alphabet, delta, accepting, 0)


def to_dot(a: Dfa | Dfao, name: str = "automaton") -> str:
    """Graphviz rendering with transitions grouped per (source, target)."""
    is_dfao = isinstance(a, Dfao)
    lines = [f"digraph {name} {{", "  rankdir=LR;", '  hidden [shape=none label=""];']
    for q in range(a.n_states):
        if is_dfao:
            label = f"{q}/{int(a.outputs[q])}"
            shape = "circle"
        else:
            label = str(q)
            shape = "doublecircle" if a.accepting[q] else "circle"
        lines.append(f'  q{q} [shape={shape} label="{label}"];')
    lines.append(f"  hidden -> q{a.initial};")
    groups: dict[tuple[int, int], list[str]] = {}
    for q in range(a.n_states):
        for s in range(a.alphabet.size):
            t = int(a.delta[q, s])
            sym = ",".join(map(str, a.alphabet.digits(s)))
            groups.setdefault((q, t), []).append(f"[{sym}]")
    for (q, t), syms in sorted(groups.items()):
        label = " ".join(syms)
        lines.append(f'  q{q} -> q{t} [label="{label}"];')
    lines.append("}")
    return "\n".join(lines) + "\n"
