"""The Sturmian word c_alpha for alpha = sqrt(2)-1 and the balanced words
x5 and x3 derived from it, as exact integer prefixes and as Pell-base DFAOs.

c_alpha[n] = floor((n+1)*alpha) - floor(n*alpha), indexed from 1.  x5 (indexed
from 0) replaces the 0s of c_alpha by successive symbols of (0102)^w and the
1s by successive symbols of (34)^w; x3 uses (01)^w and 2^w.  All arithmetic is
integer-exact: floor(m*alpha) = isqrt(2*m*m) - m.  The vectorized prefix takes
a float square root only as a first guess, which integer comparisons correct.

The DFAOs of x5 and x3 are built by carry analysis, as ``learner.direct_adder``
builds the adder (``_word_dfao``), and c_alpha's from its trailing-zero rule;
``pell.restrict`` makes each output 0 off the padded canonical strings.  L*
learns x5 and x3 from their prefixes too (``learn_word_dfao``), only as a
cross-check.
"""

from __future__ import annotations

import math
from functools import cache

import numpy as np

from . import automata, learner, pell
from .automata import Dfao, TrackAlphabet

__all__ = [
    "sturmian_prefix",
    "c_alpha_dfao",
    "x5_prefix",
    "x3_prefix",
    "x5_dfao",
    "x3_dfao",
    "learn_word_dfao",
    "BUILTIN",
]

X5_BLOCKS = ((0, 1, 0, 2), (3, 4))
X3_BLOCKS = ((0, 1), (2,))


def _floor_alpha_batch(m: np.ndarray) -> np.ndarray:
    """floor(m * alpha) of an int64 array m with 2m^2 in int64.

    A float square root of 2m^2 is off by at most one, so it is corrected
    once each way with exact integer comparisons.
    """
    square = 2 * m * m
    root = np.sqrt(square.astype(np.float64)).astype(np.int64)
    root -= root * root > square
    root += (root + 1) * (root + 1) <= square
    return root - m


def sturmian_prefix(n: int) -> np.ndarray:
    """c_alpha[1..n] as an int8 array of length n."""
    if 2 * (n + 1) ** 2 > np.iinfo(np.int64).max:
        raise ValueError(f"prefix length {n} overflows int64")
    return np.diff(_floor_alpha_batch(np.arange(1, n + 2, dtype=np.int64))).astype(np.int8)


def _replace(c_prefix: np.ndarray, blocks) -> np.ndarray:
    """Apply the constant-gap replacement along a c_alpha prefix.

    Position i of the result (the word indexed from 0) looks at c_alpha[i+1];
    the k-th zero of c_alpha becomes zeros_block[(k-1) mod len], the k-th one
    becomes ones_block[(k-1) mod len].
    """
    zeros_block, ones_block = (np.asarray(b, dtype=np.int8) for b in blocks)
    c = np.asarray(c_prefix, dtype=np.int64)
    ones_seen = np.cumsum(c)
    zeros_seen = np.arange(1, len(c) + 1) - ones_seen
    from_zero = zeros_block[(zeros_seen - 1) % len(zeros_block)]
    from_one = ones_block[(ones_seen - 1) % len(ones_block)]
    return np.where(c == 0, from_zero, from_one).astype(np.int8)


def x5_prefix(n: int) -> np.ndarray:
    """x5[0..n-1]."""
    return _replace(sturmian_prefix(n), X5_BLOCKS)


def x3_prefix(n: int) -> np.ndarray:
    """x3[0..n-1]."""
    return _replace(sturmian_prefix(n), X3_BLOCKS)


# ---------------------------------------------------------------------------
# DFAOs


def c_alpha_dfao() -> Dfao:
    """Pell-base automaton for c_alpha, built from the trailing-zero rule.

    c_alpha[N] = 1 iff the canonical representation of N ends with an odd
    number of 0 digits, so the core tracks the parity of the current
    trailing-zero run.  Its states: 0 = only padding zeros so far, 1 = even
    run after a digit (also entered on 1 and 2), 2 = odd run.
    ``pell.restrict`` puts it on the domain, which makes the output 0 off
    the padded canonical strings.

    Returns one shared instance.
    """
    return _c_alpha()


@cache
def _c_alpha() -> Dfao:
    delta = np.array([[0, 1, 1], [2, 1, 1], [1, 1, 1]], dtype=np.int32)
    return pell.restrict(Dfao(TrackAlphabet(1), delta, np.array([0, 0, 1]), 0))


@cache
def _word_table(blocks, size: int) -> np.ndarray:
    """Table word[0..size-1] for a replacement word."""
    return _replace(sturmian_prefix(size), blocks)


_WORD_MAX_LEN = 14  # digit strings learn_word_dfao's equivalence sweep reaches


def learn_word_dfao(blocks) -> Dfao:
    """Learn the Pell-base DFAO of a replacement word from its oracle: the
    L* cross-check of the carry-built ``x5_dfao`` and ``x3_dfao``.

    The target function is total: a digit string that is a padded canonical
    representation of N maps to word[N], anything else to 0.  The learner
    asks the oracle only the padded canonical strings, the words of
    ``pell.valid_tracks(1)``, and gives the rest 0.  Every hypothesis is 0
    off that domain at every length, and each equivalence query asks every
    padded canonical string up to ``_WORD_MAX_LEN`` digits.
    """
    batch = _word_oracle(blocks)
    domain = pell.valid_tracks(1)

    def equivalence(hyp: Dfao):
        return learner.bounded_equiv(hyp, batch, _WORD_MAX_LEN, domain=domain)

    return learner.lstar_moore(batch, domain, equivalence)


def _word_oracle(blocks):
    """Batch oracle of learn_word_dfao's target on the padded canonical digit
    strings of length up to ``_WORD_MAX_LEN``: word[N] for the string of N.
    Off that domain the target is 0, and the learner asks no such string."""
    table = _word_table(blocks, pell.pell_number(_WORD_MAX_LEN + 2))

    def batch(words: np.ndarray) -> np.ndarray:
        return table[pell.decode_batch(words)]

    return batch


def x5_dfao() -> Dfao:
    """Pell-base automaton computing x5[N] from the representation of N."""
    return _word_dfao(X5_BLOCKS)


def x3_dfao() -> Dfao:
    """Pell-base automaton computing x3[N] from the representation of N."""
    return _word_dfao(X3_BLOCKS)


@cache
def _word_dfao(blocks) -> Dfao:
    """The minimal Pell-base DFAO of a replacement word, by carry analysis.

    For n with digits d_{k-1} ... d_0, let v = sum d_i P_{i+1} (n itself) and
    w = sum d_i P_i (the digits without d_0).  c_alpha[n+1] is d_0, and
    c_alpha[1..n] holds w 1s, so word[n] is ones_block[w mod len] after a
    last digit 1 and zeros_block[(v - w) mod len] after a 0.  Reading a digit
    d maps (v, w) to (2v + w + d, v), ``learner.direct_adder``'s shift, so
    the state keeps both mod the lcm of the block lengths, with the last
    digit; ``pell.restrict`` makes the output 0 off the domain.
    """
    zeros_block, ones_block = blocks
    modulus = math.lcm(len(zeros_block), len(ones_block))

    def step(state, d):
        v, w, _ = state
        return (2 * v + w + d) % modulus, v, d

    def output(state) -> int:
        v, w, last = state
        if last == 1:
            return ones_block[w % len(ones_block)]
        return zeros_block[(v - w) % len(zeros_block)]

    delta, states = automata._explore((0, 0, 0), step, automata.DIGITS)
    outputs = np.array([output(s) for s in states], dtype=np.int32)
    return pell.restrict(Dfao(TrackAlphabet(1), delta, outputs, 0))


# The built-in words by the names a script or a session may give them; C and
# X are the symbols of the paper's sentences.
BUILTIN = {
    "C": c_alpha_dfao,
    "X": x5_dfao,
    "c_alpha": c_alpha_dfao,
    "x5": x5_dfao,
    "x3": x3_dfao,
}
