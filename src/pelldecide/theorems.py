"""Scripted proof computations, each returning a machine-checkable report.

Every function here evaluates a fixed set of closed predicates (or compiles
relations and inspects them) and records expected versus obtained verdicts.
A report passes iff every pair matches.  The scripts are deterministic: no
sampling, no floating point in any verdict, and the addition relation comes
from the carry construction that the test suite proves equal to the learned
automaton.

The headline results:

* ``verify_adder``   -- the addition automaton is correct, by induction on
  the successor relation.
* ``prove_e_x5``     -- the five-letter balanced word has critical exponent
  exactly 3/2.
* ``corollary_cex5`` -- the exponent is attained, only with period 4.
* ``almost_powers``  -- infinitely many factors come within 2/p of exponent
  3/2.
* ``x3_analysis``    -- the three-letter word's high powers have periods
  P_m + P_{m-1} and exponents increasing to 2 + sqrt(2)/2.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from fractions import Fraction
from typing import Callable, Optional

import numpy as np

from . import _kernels, automata, learner, logic, pell, sequences
from .automata import Dfa, Dfao

__all__ = [
    "Check",
    "TheoremReport",
    "ConvergentPair",
    "convergent",
    "exponent_of_m",
    "verify_adder",
    "prove_e_x5",
    "corollary_cex5",
    "almost_powers",
    "x3_analysis",
    "THEOREMS",
    "run_all",
]


@dataclass(frozen=True)
class Check:
    """One named verdict: what we expected and what the machinery produced."""

    name: str
    expected: object
    obtained: object

    @property
    def ok(self) -> bool:
        return self.expected == self.obtained


@dataclass
class TheoremReport:
    theorem: str
    checks: list[Check] = field(default_factory=list)
    automata: dict[str, Dfa] = field(default_factory=dict)
    duration: float = 0.0

    @property
    def passed(self) -> bool:
        return all(c.ok for c in self.checks)

    def add(self, name: str, expected, obtained) -> None:
        self.checks.append(Check(name, expected, obtained))

    def summary(self) -> str:
        lines = [f"{self.theorem}: {'PASS' if self.passed else 'FAIL'} "
                 f"({self.duration:.1f}s)"]
        for c in self.checks:
            mark = "ok " if c.ok else "XX "
            lines.append(f"  {mark}{c.name}: expected {c.expected!r}, got {c.obtained!r}")
        return "\n".join(lines)


@dataclass(frozen=True)
class ConvergentPair:
    """Consecutive Pell numbers P_k/P_{k+1}, the convergents of sqrt(2)-1."""

    k: int
    numerator: int
    denominator: int


def convergent(k: int) -> ConvergentPair:
    return ConvergentPair(k, pell.pell_number(k), pell.pell_number(k + 1))


def exponent_of_m(m: int) -> Fraction:
    """Exponent of the maximal power with period P_m + P_{m-1} in the
    three-letter word: (P_{m+1} + P_m + P_{m-1} - 2) / (P_m + P_{m-1})."""
    num = pell.pell_number(m + 1) + pell.pell_number(m) + pell.pell_number(m - 1) - 2
    den = pell.pell_number(m) + pell.pell_number(m - 1)
    return Fraction(num, den)


def _x5_env(x: Optional[Dfao] = None, adder: Optional[Dfa] = None) -> logic.Environment:
    env = logic.Environment(adder=adder)
    return env.with_sequence("X", x if x is not None else sequences.x5_dfao())


# ---------------------------------------------------------------------------
# adder correctness


def verify_adder(adder: Optional[Dfa] = None) -> TheoremReport:
    """Inductive proof that the addition relation is correct.

    With the successor relation defined order-theoretically (no arithmetic),
    x + 0 = z iff x = z covers the base case, and invariance under taking
    successors of the second summand and the sum covers the step.  Together
    they pin the relation to true addition on all of N^2.
    """
    t0 = time.perf_counter()
    report = TheoremReport("verify_adder")
    env = logic.Environment(adder=adder)
    env = logic.define(
        env, "pell_successor", "?msd_pell x < y & (Az (z <= x) | (z >= y))"
    )
    report.automata["pell_successor"] = env.stored("pell_successor").dfa
    report.automata["adder"] = env.adder()

    report.add(
        "base_proof",
        True,
        logic.eval_closed("?msd_pell Ax,z ((x + 0 = z) <=> (x = z))", env),
    )
    report.add(
        "inductive_proof",
        True,
        logic.eval_closed(
            "?msd_pell Ax,y,z,u,v ($pell_successor(y, u) & $pell_successor(z, v))"
            " => ((x + y = z) <=> (x + u = v))",
            env,
        ),
    )
    report.duration = time.perf_counter() - t0
    return report


# ---------------------------------------------------------------------------
# critical exponent of the five-letter word

_FAC_TAIL = "(Aj (j + p < n) => X[i + j] = X[i + j + p])"


def prove_e_x5(x: Optional[Dfao] = None, adder: Optional[Dfa] = None) -> TheoremReport:
    """The critical exponent of the five-letter balanced word is exactly 3/2.

    Factors of exponent below or at 3/2 exist; factors of exponent above 3/2
    do not.  A coarser variant (exponent above 2) is also checked false, as
    it must be once the 3/2 ceiling holds.
    """
    t0 = time.perf_counter()
    report = TheoremReport("prove_e_x5")
    env = _x5_env(x, adder)
    cases = [
        ("fac_low_exponent", "(2*n <= 3*p)", True),
        ("fac_ex_exponent", "(2*n = 3*p)", True),
        ("fac_high_exponent", "(2*n > 3*p)", False),
        ("fac_high_exponent (exponent 2 variant)", "(n > 2*p)", False),
    ]
    for name, bound, expected in cases:
        text = f"?msd_pell Ei,p,n (p >= 1) & {bound} & {_FAC_TAIL}"
        report.add(name, expected, logic.eval_closed(text, env))
    report.duration = time.perf_counter() - t0
    return report


def corollary_cex5(
    x: Optional[Dfao] = None, adder: Optional[Dfa] = None
) -> tuple[Dfa, TheoremReport]:
    """Exponent 3/2 is attained, and only with period 4.

    Returns the compiled (i, p) relation: i is a starting position of a
    factor of length exactly 3p/2 with period p, together with the report.
    """
    t0 = time.perf_counter()
    report = TheoremReport("corollary_cex5")
    env = _x5_env(x, adder)
    env = logic.define(
        env,
        "fac_cex5",
        f"?msd_pell En (p >= 1) & (2*n = 3*p) & {_FAC_TAIL}",
    )
    rel = logic.compile("$fac_cex5(i, p)", env)
    report.automata["fac_cex5"] = rel.dfa

    report.add(
        "every occurrence has period 4",
        True,
        logic.eval_closed("?msd_pell Ai,p $fac_cex5(i, p) => p = 4", env),
    )
    report.add(
        "(i, p) = (23, 4) accepted",
        True,
        logic.relation_accepts(rel, {"i": 23, "p": 4}),
    )
    report.add(
        "(i, p) = (23, 5) rejected",
        False,
        logic.relation_accepts(rel, {"i": 23, "p": 5}),
    )
    mx = x if x is not None else sequences.x5_dfao()
    factor = "".join(str(automata.dfao_eval(mx, i)) for i in range(23, 29))
    report.add("factor at 23 of length 6", "403240", factor)
    report.duration = time.perf_counter() - t0
    return rel.dfa, report


def almost_powers(
    x: Optional[Dfao] = None, adder: Optional[Dfa] = None
) -> tuple[Dfa, TheoremReport]:
    """Infinitely many factors approach exponent 3/2 from below.

    Compiles the (n, p) relation: some factor of length n has period p, with
    p > 10 and 2n + 4 >= 3p.  The accepted pairs turn out to satisfy
    n = (3p - 4)/2 exactly, so the exponents n/p = 3/2 - 2/p climb toward
    3/2 without reaching it.  Each enumerated pair is confirmed against a
    brute-force scan of the word itself.
    """
    t0 = time.perf_counter()
    report = TheoremReport("almost_powers")
    env = _x5_env(x, adder)
    rel = logic.compile(
        f"?msd_pell Ei (p > 10) & (2*n + 4 >= 3*p) & {_FAC_TAIL}", env
    )
    report.automata["almost_ce_period"] = rel.dfa

    report.add("accepted pairs form an infinite language", True,
               automata.is_infinite(rel.dfa))

    pairs = sorted(
        {
            (
                pell.decode("".join(str(s // 3) for s in w)),
                pell.decode("".join(str(s % 3) for s in w)),
            )
            for w in automata.enumerate_words(rel.dfa, 12)
        }
    )
    small = [(n, p) for n, p in pairs if p <= 10_000]
    report.add("pairs with p <= 10000",
               [(19, 14), (49, 34), (121, 82), (295, 198), (715, 478),
                (1729, 1154), (4177, 2786), (10087, 6726)],
               small)
    report.add("each pair satisfies n = (3p - 4)/2 exactly", True,
               all(2 * n + 4 == 3 * p for n, p in small))

    # confirm each pair on the word itself: the longest factor with period p
    # inside the 50000-symbol prefix has length exactly n (run length n - p)
    prefix = (
        sequences.x5_prefix(50_000)
        if x is None
        else np.array([automata.dfao_eval(x, i) for i in range(50_000)], dtype=np.int8)
    )
    brute = [(_kernels._longest_true_run(prefix[p:] == prefix[:-p]) + p, p)
             for _, p in small]
    report.add("brute-force maximal repetitions on the 50000-symbol prefix",
               small, brute)

    # exponent trend: the gap to 3/2 is exactly 2/p, hence below 1e-3 for
    # every accepted p >= 2000 (the first such p is 2786)
    report.add("exponent gap equals 2/p exactly", True,
               all(Fraction(3, 2) - Fraction(n, p) == Fraction(2, p)
                   for n, p in small))
    late = [(n, p) for n, p in small if p >= 2000]
    report.add("gap below 1e-3 for accepted p >= 2000", True,
               bool(late) and all(Fraction(3, 2) - Fraction(n, p) < Fraction(1, 1000)
                                  for n, p in late))
    report.duration = time.perf_counter() - t0
    return rel.dfa, report


# ---------------------------------------------------------------------------
# the three-letter word


def x3_analysis(
    x: Optional[Dfao] = None, adder: Optional[Dfa] = None
) -> TheoremReport:
    """High powers in the three-letter word.

    The periods admitting exponent >= 8/5 repetitions are exactly the numbers
    with representation 110000* (the sums P_m + P_{m-1}); for each such
    period the maximal repetition has run length P_{m+1} - 2, giving
    exponents (P_{m+1} + P_m + P_{m-1} - 2)/(P_m + P_{m-1}) that increase
    strictly toward 2 + sqrt(2)/2.
    """
    t0 = time.perf_counter()
    report = TheoremReport("x3_analysis")
    env = logic.Environment(adder=adder)
    env = env.with_sequence("X", x if x is not None else sequences.x3_dfao())

    high = logic.compile(
        "?msd_pell Ei (p >= 1) & (Aj (5*j <= 8*p) => X[i + j] = X[i + j + p])", env
    )
    report.automata["periods_of_high_powers"] = high.dfa

    env = logic.reg(env, "pows", "0*110000*")
    pows = logic.compile("$pows(p)", env)
    report.automata["pows"] = pows.dfa
    report.add("periods of high powers are exactly 0*110000*", True,
               automata.equivalent(high.dfa, pows.dfa))

    env = logic.define(
        env,
        "maximal_reps",
        "?msd_pell Ei (Aj (j < n) => X[i + j] = X[i + j + p])"
        " & (X[i + n] != X[i + n + p])",
    )
    env = logic.define(
        env,
        "highest_powers",
        "?msd_pell (p >= 1) & $pows(p) & $maximal_reps(n, p)"
        " & (Am $maximal_reps(m, p) => m <= n)",
    )
    report.automata["maximal_reps"] = env.stored("maximal_reps").dfa
    report.automata["highest_powers"] = env.stored("highest_powers").dfa

    prefix = (
        sequences.x3_prefix(6000)
        if x is None
        else np.array([automata.dfao_eval(x, i) for i in range(6000)], dtype=np.int8)
    )
    for m in (5, 6, 7, 8):
        p = pell.pell_number(m) + pell.pell_number(m - 1)
        n = pell.pell_number(m + 1) - 2
        report.add(
            f"highest power for period {p} has run length {n}",
            True,
            logic.eval_closed(f"?msd_pell An $highest_powers(n, {p}) <=> n = {n}", env),
        )
        report.add(f"brute-force maximal run for period {p}", n,
                   _kernels._longest_true_run(prefix[p:] == prefix[:-p]))

    values = [exponent_of_m(m) for m in range(5, 61)]
    report.add("exponent sequence starts at 109/41", Fraction(109, 41), values[0])
    report.add("exponents strictly increase for m = 5..60", True,
               all(a < b for a, b in zip(values, values[1:])))
    # e < 2 + sqrt(2)/2 cleared of radicals: (2 num - 4 den)^2 < 2 den^2,
    # valid since every e here exceeds 2
    report.add("exponents stay below 2 + sqrt(2)/2 (exact integers)", True,
               all(e > 2 and (2 * e.numerator - 4 * e.denominator) ** 2
                   < 2 * e.denominator ** 2 for e in values))
    report.duration = time.perf_counter() - t0
    return report


# ---------------------------------------------------------------------------
# suite


def _strip(result) -> TheoremReport:
    return result[1] if isinstance(result, tuple) else result


THEOREMS: dict[str, Callable[[], object]] = {
    "verify_adder": verify_adder,
    "prove_e_x5": prove_e_x5,
    "corollary_cex5": corollary_cex5,
    "almost_powers": almost_powers,
    "x3_analysis": x3_analysis,
}


def run_all() -> dict[str, TheoremReport]:
    """Run every theorem script; keys in a stable order."""
    return {name: _strip(fn()) for name, fn in THEOREMS.items()}
