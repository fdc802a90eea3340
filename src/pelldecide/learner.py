"""Active learning of automata from membership and equivalence queries.

The main client is the 3-track Pell addition relation: a word over digit
triples [dx,dy,dz] is in the language iff every track is a (possibly
zero-padded) canonical representation and the first two decode to values
summing to the third.  Angluin's L* recovers its minimal DFA from the decode
oracle alone; an independent construction by carry analysis cross-checks it,
and the decisive correctness argument is the inductive proof run by the
theorems module, not the bounded testing here.
"""

from __future__ import annotations

from typing import Callable, Hashable, Optional

import numpy as np

from . import automata, pell
from .automata import Dfa, Dfao, TrackAlphabet

__all__ = [
    "ObservationTable",
    "lstar",
    "lstar_moore",
    "bounded_equiv",
    "adder_oracle",
    "adder_oracle_batch",
    "learn_adder",
    "direct_adder",
]

Word = tuple[int, ...]


class ObservationTable:
    """Prefix/suffix observation table over symbol indices.

    ``prefixes`` stays prefix-closed, ``suffixes`` always contains the empty
    word, and every queried value is cached, so refills after extensions only
    touch new cells.
    """

    def __init__(self, membership: Callable[[Word], Hashable], n_symbols: int):
        self._member = membership
        self.n_symbols = n_symbols
        self.prefixes: list[Word] = [()]
        self.suffixes: list[Word] = [()]
        self._cache: dict[Word, Hashable] = {}

    def cell(self, prefix: Word, suffix: Word) -> Hashable:
        word = prefix + suffix
        if word not in self._cache:
            self._cache[word] = self._member(word)
        return self._cache[word]

    def row(self, prefix: Word) -> tuple:
        return tuple(self.cell(prefix, s) for s in self.suffixes)

    def add_prefix(self, prefix: Word) -> None:
        for cut in range(len(prefix) + 1):
            p = prefix[:cut]
            if p not in self.prefixes:
                self.prefixes.append(p)

    def add_suffix(self, suffix: Word) -> None:
        if suffix not in self.suffixes:
            self.suffixes.append(suffix)

    def closed(self) -> tuple[bool, Optional[Word]]:
        """Second item: a one-letter extension whose row is missing."""
        rows = {self.row(p) for p in self.prefixes}
        for p in self.prefixes:
            for a in range(self.n_symbols):
                if self.row(p + (a,)) not in rows:
                    return False, p + (a,)
        return True, None

    def consistent(self) -> tuple[bool, Optional[Word]]:
        """Second item: a distinguishing suffix to add."""
        by_row: dict[tuple, Word] = {}
        for p in self.prefixes:
            r = self.row(p)
            if r not in by_row:
                by_row[r] = p
                continue
            q = by_row[r]
            for a in range(self.n_symbols):
                ra, rb = self.row(q + (a,)), self.row(p + (a,))
                if ra != rb:
                    at = next(i for i in range(len(ra)) if ra[i] != rb[i])
                    return False, (a,) + self.suffixes[at]
        return True, None

    def hypothesis(self) -> tuple[np.ndarray, list, int]:
        """Transition table, per-state values, initial state index."""
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


def _lstar_engine(membership, n_symbols, equivalence, build, max_rounds=10_000):
    table = ObservationTable(membership, n_symbols)
    for _ in range(max_rounds):
        while True:
            ok, ext = table.closed()
            if not ok:
                table.add_prefix(ext)
                continue
            ok, suf = table.consistent()
            if not ok:
                table.add_suffix(suf)
                continue
            break
        hyp = build(*table.hypothesis())
        ce = equivalence(hyp)
        if ce is None:
            return hyp
        # Angluin-style counterexample processing: absorb every prefix.
        table.add_prefix(tuple(ce))
    raise RuntimeError("learning did not converge")


def lstar(
    membership: Callable[[Word], bool],
    n_symbols: int,
    equivalence: Callable[[Dfa], Optional[Word]],
) -> Dfa:
    """Learn the minimal DFA of a boolean membership oracle."""

    def build(delta, values, initial):
        acc = np.array([bool(v) for v in values])
        return automata.minimize(Dfa(_alphabet(n_symbols), delta, acc, initial))

    return _lstar_engine(membership, n_symbols, equivalence, build)


def lstar_moore(
    outputs: Callable[[Word], int],
    n_symbols: int,
    equivalence: Callable[[Dfao], Optional[Word]],
) -> Dfao:
    """Learn the minimal Moore machine of an integer-valued word function."""

    def build(delta, values, initial):
        outputs = np.array(values, dtype=np.int32)
        return automata.minimize(Dfao(_alphabet(n_symbols), delta, outputs, initial))

    return _lstar_engine(outputs, n_symbols, equivalence, build)


def _alphabet(n_symbols: int) -> TrackAlphabet:
    k = 0
    while 3**k < n_symbols:
        k += 1
    if 3**k != n_symbols:
        raise ValueError(f"symbol count {n_symbols} is not a power of 3")
    return TrackAlphabet(k)


# ---------------------------------------------------------------------------
# bounded equivalence testing


def _all_words(n_symbols: int, length: int, start: int = 0, stop: int | None = None) -> np.ndarray:
    """Words of one length in radix order, optionally a [start, stop) slice."""
    if stop is None:
        stop = n_symbols**length
    ids = np.arange(start, stop, dtype=np.int64)
    out = np.zeros((len(ids), length), dtype=np.int64)
    for pos in range(length - 1, -1, -1):
        out[:, pos] = ids % n_symbols
        ids //= n_symbols
    return out


_EXHAUSTIVE_CHUNK = 2_000_000


def bounded_equiv(
    hypothesis: Dfa | Dfao,
    membership: Callable[[Word], Hashable],
    n_symbols: int,
    max_len: int = 6,
    exhaustive_len: int | None = None,
    samples: int = 100_000,
    seed: int = 0,
    batch_membership: Callable[[np.ndarray], np.ndarray] | None = None,
) -> Optional[Word]:
    """Search for a word where hypothesis and oracle disagree.

    Exhaustive in radix order through ``exhaustive_len`` (default: all of
    ``max_len`` when that stays below ~400M words, else length 6), then seeded
    random sampling stratified over the remaining lengths up to ``max_len``.
    Returns the radix-least mismatch found, or None.  A None answer is
    evidence, not proof; final soundness comes from the inductive verification
    downstream.
    """
    if exhaustive_len is None:
        exhaustive_len = max_len if n_symbols**max_len <= 27**6 else 6
    if batch_membership is None:
        def batch_membership(words: np.ndarray) -> np.ndarray:  # noqa: F811
            return np.array([membership(tuple(map(int, w))) for w in words])

    is_dfao = isinstance(hypothesis, Dfao)

    def hyp_values(words: np.ndarray) -> np.ndarray:
        states = automata.run_batch(hypothesis, words)
        return hypothesis.outputs[states] if is_dfao else hypothesis.accepting[states]

    for length in range(0, min(exhaustive_len, max_len) + 1):
        total = n_symbols**length
        for lo in range(0, total, _EXHAUSTIVE_CHUNK):
            words = _all_words(n_symbols, length, lo, min(lo + _EXHAUSTIVE_CHUNK, total))
            bad = np.flatnonzero(hyp_values(words) != batch_membership(words))
            if len(bad):
                return tuple(map(int, words[bad[0]]))

    rng = np.random.default_rng(seed)
    lengths = list(range(exhaustive_len + 1, max_len + 1))
    found: list[Word] = []
    if lengths:
        per_length = -(-samples // len(lengths))
        for length in lengths:
            words = rng.integers(0, n_symbols, size=(per_length, length), dtype=np.int64)
            bad = np.flatnonzero(hyp_values(words) != batch_membership(words))
            found.extend(tuple(map(int, words[i])) for i in bad)
    if found:
        return min(found, key=lambda w: (len(w), w))
    return None


# ---------------------------------------------------------------------------
# the Pell addition relation

_ADDER_ALPHABET = TrackAlphabet(3)


def _split_tracks(words: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    return words // 9, (words // 3) % 3, words % 3


def adder_oracle(word: Word) -> bool:
    """Membership oracle: padded canonical tracks with x + y = z."""
    arr = np.asarray(word, dtype=np.int64).reshape(1, -1)
    return bool(adder_oracle_batch(arr)[0])


def adder_oracle_batch(words: np.ndarray) -> np.ndarray:
    words = np.asarray(words, dtype=np.int64)
    if words.ndim != 2:
        raise ValueError("expected a (n_words, length) array")
    dx, dy, dz = _split_tracks(words)
    ok = (
        pell.valid_digits_batch(dx)
        & pell.valid_digits_batch(dy)
        & pell.valid_digits_batch(dz)
    )
    sums = pell.decode_batch(dx) + pell.decode_batch(dy) - pell.decode_batch(dz)
    return ok & (sums == 0)


def learn_adder(max_len: int = 6, seed: int = 0) -> Dfa:
    """L*-learned minimal DFA of the addition relation."""

    def equivalence(hyp: Dfa) -> Optional[Word]:
        return bounded_equiv(
            hyp,
            adder_oracle,
            27,
            max_len=max_len,
            seed=seed,
            batch_membership=adder_oracle_batch,
        )

    return lstar(adder_oracle, 27, equivalence)


def direct_adder(cap: int = 64) -> Dfa:
    """Addition relation built by carry analysis instead of learning.

    Reading digit triples most significant first, the running discrepancy
    x_so_far + y_so_far - z_so_far always equals c1*P(k+1) + c0*P(k) where k
    symbols remain, and reading a triple with digit sum difference d maps
    (c1, c0) to (2*c1 + c0 + d, c1).  The word sums correctly iff c1 ends at
    0 (the trailing weight P_0 is 0, so c0 is free).  Coefficients beyond
    ``cap`` cannot return to zero and collapse into a dead state; the cap is
    validated by the equivalence test against the learned automaton.
    """
    start = (0, 0)
    ids: dict[tuple[int, int] | None, int] = {start: 0}
    pending = [start]
    rows: list[list[int]] = []
    dead = None  # key for the overflow/dead sink

    def intern(key) -> int:
        if key not in ids:
            ids[key] = len(ids)
            pending.append(key)
        return ids[key]

    while pending:
        state = pending.pop(0)
        row = []
        for sym in range(27):
            if state is dead:
                row.append(ids[dead])
                continue
            c1, c0 = state
            dx, dy, dz = sym // 9, (sym // 3) % 3, sym % 3
            n1, n0 = 2 * c1 + c0 + dx + dy - dz, c1
            key = (n1, n0) if max(abs(n1), abs(n0)) <= cap else dead
            row.append(intern(key))
        rows.append(row)

    delta = np.array(rows, dtype=np.int32)
    accepting = np.array([k is not dead and k[0] == 0 for k in ids], dtype=bool)
    residual = Dfa(_ADDER_ALPHABET, delta, accepting, 0)

    track_ok = pell.canonical_recognizer()
    lifted = [
        automata.cylindrify(automata.cylindrify(track_ok, 1), 2),  # track 0
        automata.cylindrify(automata.cylindrify(track_ok, 0), 2),  # track 1
        automata.cylindrify(automata.cylindrify(track_ok, 0), 0),  # track 2
    ]
    out = automata.minimize(residual)
    for lift in lifted:
        out = automata.product(out, lift, "and")
    return out


# ---------------------------------------------------------------------------
# cached reference adder


_ADDER: Dfa | None = None


def adder() -> Dfa:
    """The reference adder used by the logic and theorem layers.

    Built by carry analysis (structurally equal to the L* result, which the
    test suite asserts) and memoized per process.
    """
    global _ADDER
    if _ADDER is None:
        _ADDER = direct_adder()
    return _ADDER
