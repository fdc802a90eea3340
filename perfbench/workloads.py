"""Seeded inputs, timed jobs and reference checks for each workload.

``build(name, seed, seconds)`` sets up a workload and returns the jobs of one
run.  It is the run's set-up: nothing from ``pelldecide`` is imported at
module level, so the caller can time the import too.  Each job has a ``run``
(timed; it calls the package with generated inputs only) and a ``check``
(untimed; it compares the result with a reference that does not come from
the predicate compiler: integer arithmetic on prefixes of the words, Python's
``re``, the direct carry construction of the adder, brute-force balance and
exponent scans written here).

The amount of work depends on ``seed`` and ``seconds`` only, never on the
clock, so call counts repeat exactly for a given seed and length.  The
``*_S`` costs below were measured on a 2-core x86-64 box with Python 3.11 and
numpy 2.4 and only size a run to about ``seconds``.
"""

from __future__ import annotations

import functools
import random
import re
from dataclasses import dataclass
from fractions import Fraction
from typing import Any, Callable

import numpy as np

WORKLOADS = ("prove-x5", "relations", "learn", "search")

# How strongly each workload's jobs follow the host's slow spells, as a power
# of the probe's slowdown (hostclock.py).  Compiling is pure-Python set and
# dict work like the probe's, and follows them fully.  L* and the search
# kernels spend much of their time in numpy over large arrays and are slowed
# less.  Set-up is L* and imports.  Fitted on runs of the seeded workloads
# on a shared 2-core Xeon: these values gave the least run-to-run spread of
# scaled time among 0.5, 0.75, 0.9 and 1.0, for jobs and set-up alike.
HOST_SENSITIVITY = {"prove-x5": 1.0, "relations": 1.0, "learn": 0.75, "search": 0.75}
SETUP_SENSITIVITY = 0.75


@dataclass(frozen=True)
class Job:
    """One timed call into the package and the untimed check of its result."""

    name: str
    run: Callable[[], Any]
    check: Callable[[Any], bool]


def build(name: str, seed: int, seconds: float) -> list[Job]:
    """Set up workload ``name`` and return the jobs of one run."""
    if name not in _BUILDERS:
        raise ValueError(f"unknown workload {name!r}; choose from {', '.join(WORKLOADS)}")
    rng = random.Random(f"{name}:{seed}")
    return _BUILDERS[name](rng, seconds)


def _rounds(seconds: float, round_cost_s: float) -> int:
    return max(1, round(seconds / round_cost_s))


# ---------------------------------------------------------------------------
# references that do not use the compiler

REFERENCE_LENGTH = 100_000


@functools.cache
def reference_word(name: str) -> np.ndarray:
    """The word a sequence name stands for, from exact integer arithmetic.

    "C" is c_alpha[1..] (formulas over C add 1 to every index, because
    c_alpha is indexed from 1), "X" is x5 and "Y" is x3, both from index 0.
    """
    from pelldecide import sequences

    make = {"C": sequences.sturmian_prefix, "X": sequences.x5_prefix,
            "Y": sequences.x3_prefix}[name]
    return make(REFERENCE_LENGTH)


def pell_digits(n: int) -> str:
    """Canonical Pell representation by the greedy rule ('' for zero)."""
    weights = [1, 2]
    while weights[-1] <= n:
        weights.append(2 * weights[-1] + weights[-2])
    digits = []
    for w in reversed(weights[:-1]):
        d, n = divmod(n, w)
        digits.append(str(d))
    return "".join(digits).lstrip("0")


def agree_runs(word: np.ndarray, starts: np.ndarray, period: int, cap: int) -> np.ndarray:
    """For each start i, how many j < cap in a row have word[i+j] == word[i+j+period]."""
    broken = word[starts[:, None] + np.arange(cap)] != word[starts[:, None] + np.arange(cap) + period]
    return np.where(broken.any(axis=1), broken.argmax(axis=1), cap)


def longest_agree_run(word: np.ndarray, period: int) -> int:
    """Longest run of positions i with word[i] == word[i + period]."""
    eq = np.concatenate([[False], word[period:] == word[:-period], [False]])
    edges = np.flatnonzero(np.diff(eq.astype(np.int8)))
    return int((edges[1::2] - edges[::2]).max()) if len(edges) else 0


def balanced(w: np.ndarray, k: int) -> bool:
    """Equal-length windows never differ by 2 in any letter count."""
    counts = np.zeros((k, len(w) + 1), dtype=np.int64)
    for a in range(k):
        counts[a, 1:] = np.cumsum(w == a)
    for ell in range(1, len(w)):
        windows = counts[:, ell:] - counts[:, :-ell]
        if (windows.max(axis=1) - windows.min(axis=1)).max() >= 2:
            return False
    return True


def max_exponent(w: np.ndarray) -> Fraction:
    """Largest length/period over the factors of w."""
    best = Fraction(1)
    for p in range(1, len(w)):
        if len(w) <= best * p:
            break  # no factor with this period or a longer one does better
        best = max(best, Fraction(longest_agree_run(w, p) + p, p))
    return best


def canonical(word: str) -> bool:
    """Starts with 0 and introduces new letters in increasing order."""
    seen = -1
    for c in map(int, word):
        if c > seen + 1:
            return False
        seen = max(seen, c)
    return word.startswith("0")


def grid(*sizes: int) -> np.ndarray:
    """All assignments with column c in range(sizes[c]), one per row."""
    axes = np.meshgrid(*(np.arange(s) for s in sizes), indexing="ij")
    return np.stack([a.ravel() for a in axes], axis=1).astype(np.int64)


# ---------------------------------------------------------------------------
# checks, one factory per kind of result


def verdict_check(exponent: Fraction, op: str) -> Callable[[bool], bool]:
    """prove-x5: some factor of x5 has length/period OP exponent.

    The critical exponent 3/2 is anchored on the word itself: the largest
    exponent in the 10^4-symbol prefix, from the brute-force scan.
    """
    def check(verdict: bool) -> bool:
        e = _critical_exponent()
        return e == Fraction(3, 2) and verdict == (exponent < e if op == ">" else exponent <= e)
    return check


@functools.cache
def _critical_exponent() -> Fraction:
    return max_exponent(reference_word("X")[:10_000])


def relation_check(rows: np.ndarray, expected: Callable[[], np.ndarray]) -> Callable[[Any], bool]:
    """relations: the compiled relation accepts exactly the expected rows."""
    def check(rel) -> bool:
        from pelldecide import logic

        return bool(np.array_equal(logic.relation_accepts_batch(rel, rows), expected()))
    return check


def word_check(name: str, length: int) -> Callable[[Any], bool]:
    """learn: the DFAO's outputs on 0..length-1 equal the word."""
    def check(machine) -> bool:
        from pelldecide import automata, pell

        digits = pell.encode_batch(np.arange(length, dtype=np.int64)).astype(np.int64)
        states = automata.run_batch(machine, digits)
        return bool(np.array_equal(machine.outputs[states], reference_word(name)[:length]))
    return check


def adder_check(machine) -> bool:
    """learn: the adder equals the carry construction and has 16 live states."""
    from pelldecide import automata, learner

    return (automata.minimize(machine) == automata.minimize(learner.direct_adder())
            and automata.live_state_count(machine) == 16)


def level_check(depth: int, k: int, bound: Fraction, sample: int, seed: int) -> Callable[[Any], bool]:
    """search: a seeded sample of the last BFS level is valid at ``depth``."""
    def check(level) -> bool:
        if level is None or level.ndim != 2 or level.shape[1] != depth or not len(level):
            return False
        pick = np.random.default_rng(seed).choice(len(level), min(sample, len(level)), replace=False)
        return all(balanced(row, k) and max_exponent(row) < bound
                   and canonical("".join(map(str, row))) for row in level[pick])
    return check


def optimal_check(result) -> bool:
    """search: the 5-letter search for bound 3/2 ends at 44 with five words."""
    depth, found = result
    return depth == 44 and len(set(found)) == 5 and all(
        len(w) == 44 and canonical(w) and balanced(np.array(list(map(int, w))), 5)
        and max_exponent(np.array(list(map(int, w)))) < Fraction(3, 2)
        for w in found)


def exponent_check(word: np.ndarray) -> Callable[[Fraction], bool]:
    """search: the exponent equals the brute-force scan's."""
    return lambda e: e == max_exponent(word)


# ---------------------------------------------------------------------------
# prove-x5: the paper's critical-exponent sentence over x5

PROVE_JOB_S = 22.0
# (a, b, OP): is there a factor of x5 whose exponent is OP a/b?  The sharp
# pair at the critical exponent, one FALSE and one TRUE.  The two cost the
# same; other fractions (4/3, 7/5, 8/5, 5/3, 9/5) cost up to 30% more or
# less, and a run would swing with the seed.  At --seconds 6 a run compiles
# one of them: compiling both in one process takes about 70 s a run on a
# loaded 2-core box, too long for the time budget in README.md.
PROVE_SENTENCES = [(3, 2, ">"), (3, 2, ">=")]
_TAIL = "(Aj (j + p < n) => X[i + j] = X[i + j + p])"


def _prove_x5(rng: random.Random, seconds: float) -> list[Job]:
    from pelldecide import learner, logic, sequences

    env = logic.Environment(adder=learner.adder()).with_sequence("X", sequences.x5_dfao())
    jobs = []
    for k in range(_rounds(seconds, PROVE_JOB_S)):
        a, b, op = rng.choice(PROVE_SENTENCES)
        text = f"?msd_pell Ei,p,n (p >= 1) & ({b}*n {op} {a}*p) & {_TAIL}"
        jobs.append(Job(f"prove-{k}: {text}", lambda t=text: logic.eval_closed(t, env),
                        verdict_check(Fraction(a, b), op)))
    return jobs


# ---------------------------------------------------------------------------
# relations: interactive open formulas, checked on a grid by brute force

RELATIONS_ROUND_S = 2.0
PATTERNS = ["0*110000*", "0*1(0|1)*", "0*(10)*", "0*1(00)*", "0*(1|2)0*",
            "0*10*10*", "(00)*1(0|1)*"]
# A template's cost depends on its constants: 0.2-3.5 s for the periodicity
# templates, a factor of 3 for the light ones.  So the constants are taken
# in turn from these lists, by round, and the seed draws only the letters
# and the patterns.  The formulas then depend on --seconds alone (up to
# letters and patterns), and a run's time does not swing with the seed.
# The lists hold six distinct entries, so no formula repeats in a run of up
# to six rounds.
PERIOD_SLACK = [0, 1, 2, 3, 4, 5]  # Aj (j + c < n) => ...
HIGH_POWERS = [(2, 1), (3, 2), (3, 1), (5, 2), (4, 1), (5, 3)]
FIXED_PERIODS = [4, 13, 22, 10, 28, 7]
LIN2 = [(1, 17, 2), (3, 20, 1), (2, 13, 3), (4, 25, 1), (1, 14, 4), (3, 19, 2)]  # a*x + b = c*y
LIN3 = [(1, 15), (2, 21), (3, 12), (2, 26), (3, 18), (1, 23)]  # x + a*y = z + b
SHIFTS = [13, 21, 17, 26, 15, 24]  # S[i + k] = S[i]
WINDOWS = [5, 8, 6, 11, 7, 9]  # Ej (j < L) & S[i + j] = @a
LETTERS = {"C": 2, "X": 5, "Y": 3}


def _at(s: str, index: str, offset: int = 0) -> str:
    """Sequence atom s[index + offset], shifted by one for c_alpha."""
    offset += s == "C"
    return f"{s}[{index} + {offset}]" if offset else f"{s}[{index}]"


# Each template takes the rng and the round number, and returns the formula,
# the grid of assignments (columns in sorted variable order) and a function
# computing the expected verdicts, called only when checking.

def _lin2(rng, r):
    a, b, c = LIN2[r % len(LIN2)]
    g = grid(60, 60)
    return f"{a}*x + {b} = {c}*y", g, lambda: a * g[:, 0] + b == c * g[:, 1]


def _lin3(rng, r):
    a, b = LIN3[r % len(LIN3)]
    g = grid(20, 20, 20)
    return f"x + {a}*y = z + {b}", g, lambda: g[:, 0] + a * g[:, 1] == g[:, 2] + b


def _shifted(s):
    def make(rng, r):
        k = SHIFTS[r % len(SHIFTS)]
        g = grid(300)

        def expected():
            w = reference_word(s)
            return w[g[:, 0] + k] == w[g[:, 0]]

        return f"{_at(s, 'i', k)} = {_at(s, 'i')}", g, expected
    return make


def _window(s):
    def make(rng, r):
        length, letter = WINDOWS[r % len(WINDOWS)], rng.randrange(LETTERS[s])
        g = grid(300)
        text = f"Ej (j < {length}) & {_at(s, 'i + j')} = @{letter}"
        return text, g, lambda: (reference_word(s)[g[:, :1] + np.arange(length)] == letter).any(axis=1)
    return make


def _periodic(s):
    # (i, n, p): the factor of length n - c at i has period p
    def make(rng, r):
        c = PERIOD_SLACK[r % len(PERIOD_SLACK)]
        g = grid(20, 20, 20)

        def expected():
            runs = np.zeros(len(g), dtype=np.int64)
            for q in range(20):
                sel = g[:, 2] == q
                runs[sel] = agree_runs(reference_word(s), g[sel, 0], q, 20)
            return g[:, 1] <= runs + c

        bound = f"j + {c} < n" if c else "j < n"
        return f"Aj ({bound}) => {_at(s, 'i + j')} = {_at(s, 'i + j + p')}", g, expected
    return make


def _fixed_period(rng, r):
    p = FIXED_PERIODS[r % len(FIXED_PERIODS)]
    g = grid(60, 60)
    text = f"Aj (j < n) => X[i + j] = X[i + j + {p}]"
    return text, g, lambda: g[:, 1] <= agree_runs(reference_word("X"), np.arange(60), p, 60)[g[:, 0]]


def _high_powers(rng, r):
    a, b = HIGH_POWERS[r % len(HIGH_POWERS)]
    g = grid(80)

    def expected():
        best = [0] + [longest_agree_run(reference_word("Y"), q) for q in range(1, 80)]
        return np.array([q >= 1 and best[q] >= a * q // b + 1 for q in range(80)])

    return f"Ei (p >= 1) & (Aj ({b}*j <= {a}*p) => Y[i + j] = Y[i + j + p])", g, expected


TEMPLATES = {
    "lin2": _lin2, "lin3": _lin3,
    **{f"shift-{s}": _shifted(s) for s in "CXY"},
    **{f"window-{s}": _window(s) for s in "CXY"},
    "period-C": _periodic("C"), "period-Y": _periodic("Y"),
    "period-X-fixed": _fixed_period, "x3-high": _high_powers,
}


def pattern_expected(pat: str, g: np.ndarray) -> Callable[[], np.ndarray]:
    # the pattern may match any zero-padded spelling
    return lambda: np.array([
        any(re.fullmatch(pat, "0" * k + pell_digits(int(w))) for k in range(7)) for w in g[:, 0]
    ])


def _relations(rng: random.Random, seconds: float) -> list[Job]:
    from pelldecide import learner, logic, sequences

    env = (
        logic.Environment(adder=learner.adder())
        .with_sequence("C", sequences.c_alpha_dfao())
        .with_sequence("X", sequences.x5_dfao())
        .with_sequence("Y", sequences.x3_dfao())
    )

    def compile_job(text: str) -> Callable[[], Any]:
        return lambda: logic.compile(text, env)

    def reg_job(pat: str) -> Callable[[], Any]:
        return lambda: logic.compile("?msd_pell $pat(w)", logic.reg(env, "pat", pat))

    patterns = rng.sample(PATTERNS, len(PATTERNS))  # in turn, so none repeats in 7 rounds
    jobs = []
    for r in range(_rounds(seconds, RELATIONS_ROUND_S)):
        for tname, make in TEMPLATES.items():
            text, g, expected = make(rng, r)
            text = "?msd_pell " + text
            jobs.append(Job(f"{tname}-{r}: {text}", compile_job(text), relation_check(g, expected)))
        pat = patterns[r % len(patterns)]
        g = grid(500)
        jobs.append(Job(f"reg-{r}: {pat}", reg_job(pat), relation_check(g, pattern_expected(pat, g))))
    return jobs


# ---------------------------------------------------------------------------
# learn: L* against arithmetic oracles, caches bypassed

LEARN_ROUND_S = 22.0
ADDER_MAX_LEN = 5
WORD_CHECK = 100_000


def _learn(rng: random.Random, seconds: float) -> list[Job]:
    from pelldecide import learner, sequences

    kinds = [
        ("word-x5", lambda: sequences.learn_word_dfao(sequences.X5_BLOCKS), word_check("X", WORD_CHECK)),
        ("word-x3", lambda: sequences.learn_word_dfao(sequences.X3_BLOCKS), word_check("Y", WORD_CHECK)),
        ("adder", lambda: learner.learn_adder(max_len=ADDER_MAX_LEN), adder_check),
    ]
    # nothing here is drawn from the seed: the oracles are fixed, and the
    # order is too, because the first job also pays for warming the process
    return [Job(f"{name}-{r}", run, check)
            for r in range(_rounds(seconds, LEARN_ROUND_S)) for name, run, check in kinds]


# ---------------------------------------------------------------------------
# search: the balanced-word BFS and the word-combinatorics scans

SEARCH_ROUND_S = 12.5
BFS6_DEPTH = 40
BFS6_SAMPLE = 64
SCAN_LENGTH = 10_000
SCAN_WINDOWS = 3  # the prefix and factors at seeded positions, per word


def _search(rng: random.Random, seconds: float) -> list[Job]:
    from pelldecide import search

    full = {"x5": reference_word("X"), "x3": reference_word("Y")}

    def bfs6():
        last = None
        for last in search.bfs_levels(6, Fraction(4, 3), limit_depth=BFS6_DEPTH):
            pass
        return last

    jobs = []
    for r in range(_rounds(seconds, SEARCH_ROUND_S)):
        round_jobs = [
            Job(f"bfs6-{r}", bfs6,
                level_check(BFS6_DEPTH, 6, Fraction(4, 3), BFS6_SAMPLE, rng.getrandbits(32))),
            Job(f"bfs5-{r}", lambda: search.bfs_optimal(5, Fraction(3, 2)), optimal_check),
        ]
        for s, word in full.items():
            starts = [0] + [rng.randrange(1, len(word) - SCAN_LENGTH) for _ in range(SCAN_WINDOWS - 1)]
            for start in starts:
                w = np.array(word[start:start + SCAN_LENGTH])
                round_jobs.append(Job(f"maxexp-{s}@{start}-{r}", lambda w=w: search.max_exponent(w),
                                      exponent_check(w)))
                # every factor of x5 and x3 is balanced: both words are c_alpha
                # with its 0s and 1s replaced by constant-gap blocks
                round_jobs.append(Job(f"balanced-{s}@{start}-{r}", lambda w=w: search.is_balanced(w),
                                      lambda ok: ok is True))
        rng.shuffle(round_jobs)
        jobs.extend(round_jobs)
    return jobs


_BUILDERS = {
    "prove-x5": _prove_x5,
    "relations": _relations,
    "learn": _learn,
    "search": _search,
}
