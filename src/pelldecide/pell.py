"""Pell-base positional numeration.

Pell numbers: P_0 = 0, P_1 = 1, P_n = 2 P_{n-1} + P_{n-2}, so 0, 1, 2, 5, 12,
29, 70, 169, ...  A digit string d_{k-1} ... d_0 (most significant first)
denotes sum_i d_i * P_{i+1}.  Every natural number has exactly one canonical
representation: digits in {0, 1, 2}, no leading zero, least significant digit
at most 1, and every 2 immediately followed by a 0 on its less significant
side.  Greedy digit extraction produces the canonical form directly, because
n < P_{i+2} forces n - 2 P_{i+1} < P_i.
"""

from __future__ import annotations

from functools import cache

import numpy as np

from . import automata
from .automata import Dfa, Dfao, TrackAlphabet, minimize

__all__ = [
    "pell_number",
    "encode",
    "decode",
    "canonical_recognizer",
    "valid_tracks",
    "restrict",
    "encode_batch",
    "decode_batch",
]

_PELL = [0, 1, 2]


def pell_number(i: int) -> int:
    """P_i, extending the cached table on demand."""
    if i < 0:
        raise ValueError("Pell index must be >= 0")
    while len(_PELL) <= i:
        _PELL.append(2 * _PELL[-1] + _PELL[-2])
    return _PELL[i]


def encode(n: int) -> str:
    """Canonical digit string of ``n``; the empty string stands for zero."""
    if n < 0:
        raise ValueError("only naturals have Pell representations")
    if n == 0:
        return ""
    length = 1
    while pell_number(length + 1) <= n:
        length += 1
    digits = []
    rem = n
    for i in range(length, 0, -1):
        d = rem // pell_number(i)
        digits.append(str(d))
        rem -= d * pell_number(i)
    return "".join(digits)


def decode(s: str) -> int:
    """Value of any digit string over {0,1,2}, canonical or not."""
    if s.strip("012"):
        raise ValueError(f"not a string of Pell digits 0, 1 and 2: {s!r}")
    return sum(int(c) * pell_number(len(s) - j) for j, c in enumerate(s))


def canonical_recognizer() -> Dfa:
    """1-track automaton accepting 0* w for every canonical w.

    Equivalently: no 2 is followed by a nonzero digit and the string does not
    end in 2.  Leading zeros are deliberately allowed so the language is
    closed under the padding used by multi-track automata.
    """
    # states: 0 ok (accepting), 1 just-read-2, 2 dead
    delta = np.array(
        [
            [0, 0, 1],
            [0, 2, 2],
            [2, 2, 2],
        ],
        dtype=np.int32,
    )
    accepting = np.array([True, False, False])
    return minimize(Dfa(TrackAlphabet(1), delta, accepting, 0))


def valid_tracks(k: int) -> Dfa:
    """k-track automaton accepting the words whose every track is a padded
    canonical representation; built once per k."""
    return _valid_tracks(k)


@cache
def _valid_tracks(k: int) -> Dfa:
    if k == 0:
        return Dfa(TrackAlphabet(0), np.zeros((1, 1), dtype=np.int32), np.array([True]), 0)
    # valid_tracks(k - 1) on the first k - 1 tracks, and the recognizer on the last
    first = automata.cylindrify(_valid_tracks(k - 1), range(k - 1), k)
    last = automata.cylindrify(canonical_recognizer(), (k - 1,), k)
    return automata.product(first, last, "and")


def restrict(a: Dfa | Dfao) -> Dfa | Dfao:
    """``a`` on the domain: a Dfa accepts, and a Dfao outputs nonzero, only
    on words whose every track is a padded canonical representation."""
    return automata.product(a, valid_tracks(a.alphabet.n_tracks), "and")


# ---------------------------------------------------------------------------
# vectorized helpers


def _pell_array(upto: int) -> np.ndarray:
    pell_number(upto)
    return np.array(_PELL[: upto + 1], dtype=np.int64)


def encode_batch(values: np.ndarray, length: int | None = None) -> np.ndarray:
    """Canonical digits for an int64 array, msd first, left-padded with zeros.

    Returns an (n, length) int8 array in column-major order, so each digit
    position is contiguous; length defaults to the longest value's
    representation.  Values must be below P_50 = 4866752642924153522;
    larger ones raise ValueError.
    """
    values = np.asarray(values, dtype=np.int64)
    if values.size and values.min() < 0:
        raise ValueError("only naturals have Pell representations")
    top = int(values.max()) if values.size else 0
    if top >= pell_number(50):
        raise ValueError(f"values must be below P_50 = {pell_number(50)}, got {top}")
    need = 0
    while pell_number(need + 1) <= top:
        need += 1
    if length is None:
        length = max(need, 0)
    elif length < need:
        raise ValueError(f"length {length} too small; need {need}")
    # int32 division takes half the time of int64 division; a weight above
    # top gives the digit 0 either way, so weights are capped to fit
    dtype = np.int32 if top < np.iinfo(np.int32).max else np.int64
    weights = np.array([min(pell_number(i), top + 1) for i in range(length + 1)], dtype=dtype)
    digits = np.empty((length, len(values)), dtype=np.int8)
    rem = values.astype(dtype)
    for pos in range(length):
        w = weights[length - pos]
        d = rem // w
        digits[pos] = d
        rem -= d * w
    return digits.T


def decode_batch(digits: np.ndarray) -> np.ndarray:
    """Values of an (n, length) digit array, msd first, as int64.

    Any integer dtype is taken as it comes: einsum casts in small buffers, so
    no int64 copy of the whole array is made.
    """
    digits = np.asarray(digits)
    length = digits.shape[1]
    weights = _pell_array(length + 1)[length:0:-1]  # P_length .. P_1
    return np.einsum("ij,j->i", digits, weights)

