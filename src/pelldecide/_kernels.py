"""Hot inner loops for word combinatorics, vectorized with numpy.

``extend_mask`` tests a whole batch of candidate words at once (one row
each); ``exponent_scan`` and ``balanced_scan`` scan a single word.  The
module stays separate from ``search`` so that each kernel call can be timed
on its own.
"""

from __future__ import annotations

import numpy as np

__all__ = [
    "NUMBA_ENABLED",
    "extend_mask",
    "exponent_scan",
    "balanced_scan",
]

# Always False: the kernels are numpy only.  perfbench/worker.py still reads
# this name and records it with every run.
NUMBA_ENABLED = False


def extend_mask(words: np.ndarray, k: int, num: int, den: int,
                strict: bool) -> np.ndarray:
    """Mask of rows that stay balanced and below the exponent bound.

    Each row is a candidate word whose last symbol was just appended; the
    caller guarantees the row minus its last symbol already passed.  A row
    fails if some suffix is a repetition of exponent >= num/den (> when not
    strict), or some pair of equal-length windows differs by 2 in a symbol
    count.
    """
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


def _longest_true_run(eq: np.ndarray) -> int:
    """Length of the longest run of True in a boolean vector."""
    if not eq.size:
        return 0
    edges = np.diff(np.concatenate([[False], eq, [False]]).astype(np.int8))
    starts = np.flatnonzero(edges == 1)
    if not starts.size:
        return 0
    return int((np.flatnonzero(edges == -1) - starts).max())


def exponent_scan(w: np.ndarray) -> tuple[int, int]:
    """(n, p) maximizing n/p over factors of length n with period p."""
    length = len(w)
    best_n, best_p = 1, 1
    for p in range(1, length):
        # longest run of agreements anywhere, not just at the end
        n = _longest_true_run(w[p:] == w[:-p]) + p
        if n * best_p > best_n * p:
            best_n, best_p = n, p
    return best_n, best_p


def balanced_scan(w: np.ndarray, k: int) -> bool:
    length = len(w)
    for a in range(k):
        counts = np.concatenate([[0], np.cumsum(w == a)])
        for ell in range(1, length):
            windows = counts[ell:] - counts[:-ell]
            if windows.max() - windows.min() >= 2:
                return False
    return True
