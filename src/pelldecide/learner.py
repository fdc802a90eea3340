"""Active learning of automata from membership and equivalence queries.

The main client is the 3-track Pell addition relation: a word over digit
triples [dx,dy,dz] is in the language iff every track is a (possibly
zero-padded) canonical representation and the first two decode to values
summing to the third.  Angluin's L* recovers its minimal DFA from the decode
oracle together with the domain automaton ``pell.valid_tracks(3)``, which
supplies the padded-canonical condition: ``automata.product(hypothesis,
domain)`` puts each hypothesis on it.  As Maler and Pnueli do, L* adds
every suffix of a counterexample to the table as a column, so the table's
prefix rows are pairwise distinct and each is one state of the hypothesis;
no consistency check is needed.  An independent construction by
carry analysis cross-checks it, and the decisive correctness argument is the
inductive proof run by the theorems module, not the bounded testing here.
The logic binds the carry-built adder, and ``sequences`` builds the words x5
and x3 by the same carry walk; L* learns those words too
(``sequences.learn_word_dfao``), only as their cross-check.
"""

from __future__ import annotations

from functools import cache
from typing import Callable, Hashable, Optional

import numpy as np

from . import automata, pell
from .automata import Dfa, Dfao, TrackAlphabet

__all__ = [
    "ObservationTable",
    "lstar",
    "lstar_moore",
    "bounded_equiv",
    "adder_oracle_batch",
    "learn_adder",
    "direct_adder",
]

Word = tuple[int, ...]


class ObservationTable:
    """Prefix/suffix observation table over symbol indices.

    The rows of ``prefixes`` are pairwise distinct: a prefix enters only when
    ``closed`` finds a one-letter extension with a new row, and a new column
    never makes two rows equal.  ``suffixes`` always contains the empty word.
    ``domain`` is the automaton of the words the target may label nonzero:
    the oracle is asked only words it accepts, and every other cell gets the
    zero label (0 or False).  L* restricts each hypothesis to the domain, so
    it too is zero off it, at every length.  ``oracle`` takes an (n_words,
    length) array of symbol indices, int8 for up to 128 symbols, and returns
    one value per row.  Before the table is read, every missing cell of the
    prefixes and their one-letter extensions is filled, one domain run and at
    most one oracle call per word length, and each row is kept and grown by
    the new columns only, so no word is asked twice.
    """

    def __init__(self, oracle: Callable[[np.ndarray], np.ndarray], domain: Dfa):
        self._oracle = oracle
        self.domain = domain
        self.n_symbols = domain.alphabet.size
        self._symbol_type = np.min_scalar_type(-self.n_symbols)
        self.prefixes: list[Word] = []
        self.suffixes: list[Word] = [()]
        self._values: dict[Word, Hashable] = {}
        self._rows: dict[Word, tuple] = {}
        self.add_prefix(())

    def add_prefix(self, prefix: Word) -> None:
        self.prefixes.append(prefix)
        for q in [prefix] + [prefix + (a,) for a in range(self.n_symbols)]:
            self._rows.setdefault(q, ())

    def add_suffix(self, suffix: Word) -> None:
        if suffix not in self.suffixes:
            self.suffixes.append(suffix)

    def _fill(self) -> None:
        width = len(self.suffixes)
        stale = [(p, row) for p, row in self._rows.items() if len(row) < width]
        by_length: dict[int, dict[Word, None]] = {}
        for p, row in stale:
            for s in self.suffixes[len(row):]:
                word = p + s
                if word not in self._values:
                    by_length.setdefault(len(word), {})[word] = None
        for length, words in sorted(by_length.items()):
            batch = np.array(list(words), dtype=self._symbol_type).reshape(len(words), length)
            inside = self.domain.accepting[automata.run_batch(self.domain, batch)]
            self._values.update(dict.fromkeys(words, 0))
            if inside.any():
                asked = [w for w, ok in zip(words, inside.tolist()) if ok]
                self._values.update(zip(asked, _ask(self._oracle, batch[inside]).tolist()))
        for p, row in stale:
            self._rows[p] = row + tuple(self._values[p + s] for s in self.suffixes[len(row):])

    def row(self, prefix: Word) -> tuple:
        """The values of ``prefix`` followed by each suffix; ``prefix`` is a
        prefix or one letter longer than one."""
        self._fill()
        return self._rows[prefix]

    def closed(self) -> tuple[bool, Optional[Word]]:
        """Second item: a one-letter extension whose row is missing."""
        self._fill()
        rows = {self._rows[p] for p in self.prefixes}
        for p in self.prefixes:
            for a in range(self.n_symbols):
                if self._rows[p + (a,)] not in rows:
                    return False, p + (a,)
        return True, None

    def hypothesis(self) -> tuple[np.ndarray, list, int]:
        """Transition table, per-state values, initial state index: state i
        is ``prefixes[i]``, so the initial state is 0."""
        self._fill()
        ids = {self._rows[p]: i for i, p in enumerate(self.prefixes)}
        delta = np.array(
            [[ids[self._rows[p + (a,)]] for a in range(self.n_symbols)] for p in self.prefixes],
            dtype=np.int32,
        )
        return delta, [self._rows[p][0] for p in self.prefixes], 0


def _ask(oracle: Callable[[np.ndarray], np.ndarray], words: np.ndarray) -> np.ndarray:
    """The oracle's answers to ``words``, checked to be one value per row."""
    answers = np.asarray(oracle(words))
    if answers.shape != (len(words),):
        raise ValueError(
            f"expected one oracle answer per word, shape ({len(words)},); "
            f"got shape {answers.shape}"
        )
    return answers


def _lstar_engine(oracle, domain, equivalence, kind):
    table = ObservationTable(oracle, domain)
    while True:
        ok, ext = table.closed()
        if not ok:
            table.add_prefix(ext)
            continue
        delta, values, initial = table.hypothesis()
        # zero off the domain at every length, as the table is
        hyp = automata.product(kind(domain.alphabet, delta, np.asarray(values), initial), domain)
        ce = equivalence(hyp)
        if ce is None:
            return hyp
        # Maler-Pnueli counterexample processing: every suffix becomes a
        # column, so the prefixes' rows stay pairwise distinct
        ce = tuple(ce)
        for i in range(len(ce)):
            table.add_suffix(ce[i:])
        # a word the hypothesis already gets right may leave the table as it
        # was, and L* would ask the same equivalence query forever
        if table.row(())[table.suffixes.index(ce)] == hyp.labels[automata.run(hyp, ce)]:
            raise ValueError(f"{ce} is not a counterexample: the hypothesis agrees there")


def lstar(
    oracle: Callable[[np.ndarray], np.ndarray],
    domain: Dfa,
    equivalence: Callable[[Dfa], Optional[Word]],
) -> Dfa:
    """Learn the minimal DFA of a boolean batch membership oracle that is
    False off ``domain``; the oracle is asked only words of the domain."""
    return _lstar_engine(oracle, domain, equivalence, Dfa)


def lstar_moore(
    oracle: Callable[[np.ndarray], np.ndarray],
    domain: Dfa,
    equivalence: Callable[[Dfao], Optional[Word]],
) -> Dfao:
    """Learn the minimal Moore machine of an integer-valued batch oracle
    that is 0 off ``domain``; the oracle is asked only words of the domain."""
    return _lstar_engine(oracle, domain, equivalence, Dfao)


# ---------------------------------------------------------------------------
# bounded equivalence testing


_MAX_LEVEL = 27**6  # words of the longest level bounded_equiv sweeps


def _pairs(hypothesis: Dfa | Dfao, domain: Dfa) -> tuple[np.ndarray, int]:
    """The table ``bounded_equiv`` sweeps: the product of ``hypothesis`` and
    ``domain``, whose state h * n + d pairs hypothesis state h with domain
    state d (n the domain's state count), in the smallest unsigned type, and
    its initial state."""
    n = domain.n_states
    delta = hypothesis.delta[:, None, :] * n + domain.delta
    delta = delta.reshape(len(delta) * n, -1).astype(np.min_scalar_type(len(delta) * n - 1))
    return delta, hypothesis.initial * n + domain.initial


def bounded_equiv(
    hypothesis: Dfa | Dfao,
    oracle: Callable[[np.ndarray], np.ndarray],
    max_len: int = 6,
    *,
    domain: Dfa,
) -> Optional[Word]:
    """The radix-least word of length <= max_len where hypothesis and oracle
    disagree, or None.

    ``domain`` accepts the words the oracle is asked on; off it, the target
    is zero (0 or False), as in the table L* fills, and so must the
    hypothesis be, as every hypothesis of L* is.  Every word of the domain
    is swept: ``oracle`` receives them as (n_words, length) arrays of symbol
    indices, int8 for up to 128 symbols, and returns one value per row.
    Each array is read-only.  The sweep walks the product of hypothesis and
    domain.  A None answer is evidence, not proof; final soundness comes
    from the inductive verification downstream.  Raises ValueError, before
    any oracle call, for a negative ``max_len``, a hypothesis and domain
    over different alphabets, a longest level of more than 27^6 words or a
    hypothesis that is nonzero on some word off the domain, and for an
    answer that is not one value per row.
    """
    if max_len < 0:
        raise ValueError("max_len must be >= 0")
    if hypothesis.alphabet != domain.alphabet:
        raise ValueError(
            f"the hypothesis reads {hypothesis.alphabet.n_tracks} tracks, "
            f"the domain {domain.alphabet.n_tracks}"
        )
    m = domain.alphabet.size
    if m**max_len > _MAX_LEVEL:
        raise ValueError(
            f"a sweep to length {max_len} over {m} symbols has more than "
            f"27^6 words in its last level"
        )
    delta, initial = _pairs(hypothesis, domain)
    # pair h * n + d: inside the domain as d is, labelled as h is
    inside = np.tile(domain.accepting, hypothesis.n_states)
    labels = np.repeat(hypothesis.labels, domain.n_states)
    if ((labels != 0) & ~inside)[automata._bfs_order(delta, initial) >= 0].any():
        raise ValueError("the hypothesis is nonzero on a word off the domain")
    for words, states in automata._radix_walk(delta, initial, inside, max_len):
        mismatch = labels[states] != _ask(oracle, words)
        if mismatch.any():
            return tuple(map(int, words[mismatch.argmax()]))
    return None


# ---------------------------------------------------------------------------
# the Pell addition relation

_ADDER_ALPHABET = TrackAlphabet(3)


def adder_oracle_batch(words: np.ndarray) -> np.ndarray:
    """Membership oracle of the addition relation on each row of an
    (n_words, length) signed integer array of ``pell.valid_tracks(3)``
    words: x + y = z.  Off that domain the relation is empty, and the
    learner asks no such word, so the answer there means nothing."""
    words = np.asarray(words)
    if words.ndim != 2:
        raise ValueError("expected a (n_words, length) array")
    dx, dy, dz = _ADDER_ALPHABET.unpack(words)
    # decoding is linear in the digits, so one decode gives x + y - z
    return pell.decode_batch(dx + dy - dz) == 0


def learn_adder(max_len: int = 6) -> Dfa:
    """L*-learned minimal DFA of the addition relation."""

    domain = pell.valid_tracks(3)

    def equivalence(hyp: Dfa) -> Optional[Word]:
        return bounded_equiv(hyp, adder_oracle_batch, max_len, domain=domain)

    return lstar(adder_oracle_batch, domain, equivalence)


_CAP = 64  # largest carry coefficient direct_adder tracks


def direct_adder() -> Dfa:
    """Addition relation built by carry analysis instead of learning.

    Reading digit triples most significant first, the running discrepancy
    x_so_far + y_so_far - z_so_far always equals c1*P(k+1) + c0*P(k) where k
    symbols remain, and reading a triple with digit sum difference d maps
    (c1, c0) to (2*c1 + c0 + d, c1).  The word sums correctly iff c1 ends at
    0 (the trailing weight P_0 is 0, so c0 is free).  Coefficients beyond
    ``_CAP`` cannot return to zero and collapse into a dead state; the cap is
    validated by the equivalence test against the learned automaton.
    """
    dead = None  # the overflow sink
    # x + y - z digit difference of each symbol
    dx, dy, dz = _ADDER_ALPHABET.unpack(np.arange(_ADDER_ALPHABET.size))
    differences = (dx + dy - dz).tolist()

    def step(state, symbol):
        if state is dead:
            return dead
        c1, c0 = state
        n1, n0 = 2 * c1 + c0 + differences[symbol], c1
        return (n1, n0) if max(abs(n1), abs(n0)) <= _CAP else dead

    delta, states = automata._explore((0, 0), step, _ADDER_ALPHABET.size)
    accepting = np.array([k is not dead and k[0] == 0 for k in states], dtype=bool)
    residual = automata.minimize(Dfa(_ADDER_ALPHABET, delta, accepting, 0))
    return pell.restrict(residual)


def adder() -> Dfa:
    """The reference adder used by the logic and theorem layers.

    Built by carry analysis (structurally equal to the L* result, which the
    test suite asserts) and memoized per process.
    """
    return _adder()


@cache
def _adder() -> Dfa:
    return direct_adder()
