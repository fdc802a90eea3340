"""The Sturmian word c_alpha for alpha = sqrt(2)-1 and the balanced words
x5 and x3 derived from it, as exact integer oracles and as Pell-base DFAOs.

c_alpha[n] = floor((n+1)*alpha) - floor(n*alpha), indexed from 1.  x5 (indexed
from 0) replaces the 0s of c_alpha by successive symbols of (0102)^w and the
1s by successive symbols of (34)^w; x3 uses (01)^w and 2^w.  All arithmetic is
integer-exact: floor(m*alpha) = isqrt(2*m*m) - m, so no floating point comes
near the decision procedures.
"""

from __future__ import annotations

from math import isqrt
from typing import Callable, Optional

import numpy as np

from . import learner, pell
from .automata import Dfao, TrackAlphabet

__all__ = [
    "sturmian",
    "sturmian_prefix",
    "floor_alpha",
    "c_alpha_dfao",
    "x5_oracle",
    "x3_oracle",
    "x5_prefix",
    "x3_prefix",
    "x5_dfao",
    "x3_dfao",
    "learn_word_dfao",
    "VerificationError",
    "VERIFICATION_PREDICATES",
    "verify_x5",
]

X5_BLOCKS = ((0, 1, 0, 2), (3, 4))
X3_BLOCKS = ((0, 1), (2,))


def floor_alpha(m: int) -> int:
    """floor(m * (sqrt(2)-1)) via exact integer square root."""
    if m < 0:
        raise ValueError("m must be a natural number")
    return isqrt(2 * m * m) - m


def sturmian(n: int) -> int:
    """c_alpha[n] for n >= 1."""
    if n < 1:
        raise ValueError("c_alpha is indexed from 1")
    return floor_alpha(n + 1) - floor_alpha(n)


def sturmian_prefix(n: int) -> np.ndarray:
    """c_alpha[1..n] as an int8 array of length n."""
    floors = np.fromiter((floor_alpha(m) for m in range(1, n + 2)), dtype=np.int64, count=n + 1)
    return (floors[1:] - floors[:-1]).astype(np.int8)


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


def _replacement_oracle(i: int, blocks) -> int:
    if i < 0:
        raise ValueError("the word is indexed from 0")
    zeros_block, ones_block = blocks
    c = sturmian(i + 1)
    if c == 0:
        zeros_seen = (i + 1) - floor_alpha(i + 2)
        return zeros_block[(zeros_seen - 1) % len(zeros_block)]
    ones_seen = floor_alpha(i + 2)
    return ones_block[(ones_seen - 1) % len(ones_block)]


def x5_oracle(i: int) -> int:
    """x5[i] from exact arithmetic alone."""
    return _replacement_oracle(i, X5_BLOCKS)


def x3_oracle(i: int) -> int:
    """x3[i] from exact arithmetic alone."""
    return _replacement_oracle(i, X3_BLOCKS)


# ---------------------------------------------------------------------------
# DFAOs


_C_ALPHA: Optional[Dfao] = None


def c_alpha_dfao() -> Dfao:
    """Pell-base automaton for c_alpha, built from the trailing-zero rule.

    c_alpha[N] = 1 iff the canonical representation of N ends with an odd
    number of 0 digits, so the machine tracks the parity of the current
    trailing-zero run.  States: 0 = only padding zeros so far, 1 = even run
    after a digit (also entered on 1), 2 = odd run, 3 = just read a 2 (must
    see a 0 next; a word may not stop here), 4 = invalid input.  Outputs on
    states 3 and 4 are defined (0) but only invalid strings halt there.

    Returns one shared instance; downstream caches key automata by identity.
    """
    global _C_ALPHA
    if _C_ALPHA is None:
        delta = np.array(
            [
                [0, 1, 3],
                [2, 1, 3],
                [1, 1, 3],
                [2, 4, 4],
                [4, 4, 4],
            ],
            dtype=np.int32,
        )
        outputs = np.array([0, 0, 1, 0, 0], dtype=np.int32)
        _C_ALPHA = Dfao(TrackAlphabet(1), delta, outputs, 0)
    return _C_ALPHA


_TABLE_CACHE: dict[tuple, np.ndarray] = {}


def _word_table(blocks, size: int) -> np.ndarray:
    """Cached table word[0..size-1] for a replacement word."""
    cached = _TABLE_CACHE.get(blocks)
    if cached is None or len(cached) < size:
        cached = _replace(sturmian_prefix(max(size, 4096)), blocks)
        _TABLE_CACHE[blocks] = cached
    return cached


def learn_word_dfao(blocks, max_len: int = 14) -> Dfao:
    """Learn the Pell-base DFAO of a replacement word from its oracle.

    The target function is total: a digit string that is a padded canonical
    representation of N maps to word[N], anything else to 0.  Equivalence is
    an exhaustive sweep over all digit strings up to ``max_len``.
    """
    limit = pell.pell_number(max_len + 2)
    table = _word_table(blocks, limit)

    def batch(words: np.ndarray) -> np.ndarray:
        words = np.asarray(words, dtype=np.int64)
        valid = pell.valid_digits_batch(words)
        values = pell.decode_batch(words)
        return np.where(valid, table[values], 0)

    def outputs(word) -> int:
        if not word:
            return int(table[0])
        return int(batch(np.asarray(word, dtype=np.int64).reshape(1, -1))[0])

    def equivalence(hyp: Dfao):
        return learner.bounded_equiv(
            hyp, outputs, 3, max_len=max_len, batch_membership=batch
        )

    return learner.lstar_moore(outputs, 3, equivalence)


_DFAO_CACHE: dict[str, Dfao] = {}


def _cached_dfao(name: str, build: Callable[[], Dfao]) -> Dfao:
    if name not in _DFAO_CACHE:
        _DFAO_CACHE[name] = build()
    return _DFAO_CACHE[name]


def x5_dfao() -> Dfao:
    """Pell-base automaton computing x5[N] from the representation of N."""
    return _cached_dfao("x5", lambda: learn_word_dfao(X5_BLOCKS))


def x3_dfao() -> Dfao:
    """Pell-base automaton computing x3[N] from the representation of N."""
    return _cached_dfao("x3", lambda: learn_word_dfao(X3_BLOCKS))


# ---------------------------------------------------------------------------
# verification of the x5 automaton against the defining replacement


class VerificationError(Exception):
    """A verification predicate evaluated to false."""

    def __init__(self, predicate: str):
        super().__init__(f"verification predicate {predicate!r} is false")
        self.predicate = predicate


# The five defining properties of the replacement, as decidable sentences
# over the sequence symbols C (c_alpha) and X (x5).  Order matters: the
# first failure is reported.
VERIFICATION_PREDICATES: dict[str, str] = {
    "first_0_to_0": '?msd_pell C[1] = @0 & X[0] = @0',
    "second_0_to_1": '?msd_pell C[3] = @0 & X[2] = @1',
    "possible_triplets_for_0s": """?msd_pell Ap,q,r
        ((p < q) & (q < r) &
         (C[p + 1] = @0) &
         (C[q + 1] = @0) &
         (C[r + 1] = @0) &
         (Ai ((i > p) & (i < r) & (i != q)) =>
             (C[i + 1] = @1))) =>
        (((X[p] = @0) & (X[q] = @1) & (X[r] = @0)) |
         ((X[p] = @1) & (X[q] = @0) & (X[r] = @2)) |
         ((X[p] = @0) & (X[q] = @2) & (X[r] = @0)) |
         ((X[p] = @2) & (X[q] = @0) & (X[r] = @1)))""",
    "first_1_to_3": '?msd_pell C[2] = @1 & X[1] = @3',
    "alternate_3_4_for_1s": """?msd_pell Ap,q
        ((p < q) &
         (C[p + 1] = @1) &
         (C[q + 1] = @1) &
         (Ai ((i > p) & (i < q)) => (C[i + 1] = @0))) =>
        (((X[p] = @3) & (X[q] = @4)) |
         ((X[p] = @4) & (X[q] = @3)))""",
}


def verify_x5(c: Optional[Dfao] = None, x: Optional[Dfao] = None) -> bool:
    """Check that the x5 automaton realizes the defining replacement.

    Evaluates the five closed predicates relating C and X; returns True when
    all hold, raises VerificationError naming the first that fails.  Passing
    replacement automata here exists so tests can check that mutants are
    caught.
    """
    from . import logic

    env = (
        logic.Environment()
        .with_sequence("C", c if c is not None else c_alpha_dfao())
        .with_sequence("X", x if x is not None else x5_dfao())
    )
    for name, text in VERIFICATION_PREDICATES.items():
        if not logic.eval_closed(text, env):
            raise VerificationError(name)
    return True
