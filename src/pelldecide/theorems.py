"""Scripted proof computations, each returning a machine-checkable report.

Every function here evaluates a fixed set of closed predicates (or compiles
relations and inspects them) and records expected versus obtained verdicts.
A report passes iff every pair matches.  The scripts are deterministic: no
sampling, no floating point in any verdict, and the addition relation comes
from the carry construction that the test suite proves equal to the learned
automaton.

The sentences themselves live in one place, the bundled command script
``data/paper.walnutish`` that ``pelldecide run`` walks through: each
``def``/``eval``/``reg`` is looked up there by name, and each closed check
expects the verdict of its ``=> TRUE``/``=> FALSE`` trailer.  To change a
sentence, edit the script.  This module adds only what a script cannot say:
brute-force scans of the words, the enumeration of an automaton, and exact
``Fraction`` arithmetic.  The script is read on first use, not on import.

The headline results:

* ``verify_adder``   -- the addition automaton is correct, by induction on
  the successor relation and uniqueness of the sum.
* ``verify_x5``      -- the x5 automaton computes the word that the defining
  replacement describes.
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
from functools import cache
from importlib import resources
from typing import Callable, Optional

import numpy as np

from . import _kernels, automata, logic, pell, sequences
from .automata import Dfa, Dfao

__all__ = [
    "Check",
    "TheoremReport",
    "exponent_of_m",
    "verify_adder",
    "VERIFICATION_PREDICATES",
    "verify_x5",
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


def exponent_of_m(m: int) -> Fraction:
    """Exponent of the maximal power with period P_m + P_{m-1} in the
    three-letter word: (P_{m+1} + P_m + P_{m-1} - 2) / (P_m + P_{m-1})."""
    num = pell.pell_number(m + 1) + pell.pell_number(m) + pell.pell_number(m - 1) - 2
    den = pell.pell_number(m) + pell.pell_number(m - 1)
    return Fraction(num, den)


# ---------------------------------------------------------------------------
# the sentences, read from the bundled script


@cache
def _script() -> dict[str, tuple[str, Optional[bool]]]:
    """Each def, eval and reg of the bundled script by name: its predicate
    (a reg's pattern) and the verdict its trailer expects, None if it has none."""
    text = (resources.files(__package__) / "data" / "paper.walnutish").read_text()
    sentences = {}
    for command, name, *rest in logic.script_commands(text):
        if command in ("def", "eval", "reg"):
            expected = rest[-1] == "TRUE" if "--expect" in rest else None
            sentences[name] = (rest[-1] if command == "reg" else rest[0], expected)
    return sentences


def _sentence(name: str) -> str:
    """The predicate of the script's def or eval ``name``, or a reg's pattern."""
    return _script()[name][0]


def _define(env: logic.Environment, name: str) -> logic.Environment:
    """Store the script's open sentence ``name`` as the callable $name."""
    return logic.define(env, name, _sentence(name))


def _check(report: TheoremReport, env: logic.Environment, name: str,
           label: Optional[str] = None) -> None:
    """Evaluate the script's closed sentence ``name`` as one check (labelled
    ``label``, else ``name``) that expects the verdict of its trailer."""
    text = _sentence(name)
    report.add(label or name, _script()[name][1], logic.eval_closed(text, env))


@cache
def _x5_env() -> logic.Environment:
    """X bound to x5, and $fac(i, n, p): the factor of length n at i has
    period p.  The x5 sentences share this tail, so it is compiled once."""
    return _define(logic.Environment().with_sequence("X", sequences.x5_dfao()), "fac")


# ---------------------------------------------------------------------------
# adder correctness


def verify_adder(adder: Optional[Dfa] = None) -> TheoremReport:
    """Inductive proof that the addition relation is correct.

    With the successor relation defined order-theoretically (no arithmetic),
    x + 0 = z iff x = z covers the base case, and invariance under taking
    successors of the second summand and the sum covers the step, so every
    (x, y, x + y) is accepted.  Uniqueness of the sum then leaves no other
    triple.  Together they pin the relation to true addition on all of N^2.
    """
    t0 = time.perf_counter()
    report = TheoremReport("verify_adder")
    env = _define(logic.Environment(adder=adder), "pell_successor")
    report.automata["pell_successor"] = env.stored("pell_successor").dfa
    report.automata["adder"] = env.adder()
    for name in ("base_proof", "inductive_proof", "uniqueness_proof"):
        _check(report, env, name)
    report.duration = time.perf_counter() - t0
    return report


# ---------------------------------------------------------------------------
# construction of the five-letter word

# The five defining properties of the replacement, as decidable sentences
# over the sequence symbols C (c_alpha) and X (x5), named as in the script.
_X5_PREDICATES = (
    "first_0_to_0",
    "second_0_to_1",
    "possible_triplets_for_0s",
    "first_1_to_3",
    "alternate_3_4_for_1s",
)


def __getattr__(name: str):
    # VERIFICATION_PREDICATES (name -> text) is built on first use, so that
    # importing this module reads no file
    if name == "VERIFICATION_PREDICATES":
        return {key: _sentence(key) for key in _X5_PREDICATES}
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


def verify_x5(c: Optional[Dfao] = None, x: Optional[Dfao] = None) -> TheoremReport:
    """The x5 automaton realizes the defining replacement of c_alpha.

    One check per predicate of ``VERIFICATION_PREDICATES``, each expected
    TRUE.  Passing replacement automata exists so tests can check that
    mutants are caught.
    """
    t0 = time.perf_counter()
    report = TheoremReport("verify_x5")
    env = (
        logic.Environment()
        .with_sequence("C", c if c is not None else sequences.c_alpha_dfao())
        .with_sequence("X", x if x is not None else sequences.x5_dfao())
    )
    for name in _X5_PREDICATES:
        _check(report, env, name)
    report.duration = time.perf_counter() - t0
    return report


# ---------------------------------------------------------------------------
# critical exponent of the five-letter word


def prove_e_x5() -> TheoremReport:
    """The critical exponent of the five-letter balanced word is exactly 3/2.

    Factors of exponent below or at 3/2 exist; factors of exponent above 3/2
    do not.  A coarser variant (exponent above 2) is also checked false, as
    it must be once the 3/2 ceiling holds.
    """
    t0 = time.perf_counter()
    report = TheoremReport("prove_e_x5")
    env = _x5_env()
    for name in ("fac_low_exponent", "fac_ex_exponent", "fac_high_exponent"):
        _check(report, env, name)
    _check(report, env, "fac_high_exponent_2", "fac_high_exponent (exponent 2 variant)")
    report.duration = time.perf_counter() - t0
    return report


def corollary_cex5() -> TheoremReport:
    """Exponent 3/2 is attained, and only with period 4.

    The report keeps the compiled (i, p) relation as ``fac_cex5``: i is a
    starting position of a factor of length exactly 3p/2 with period p.
    """
    t0 = time.perf_counter()
    report = TheoremReport("corollary_cex5")
    env = _define(_x5_env(), "fac_cex5")
    rel = logic.compile("$fac_cex5(i, p)", env)
    report.automata["fac_cex5"] = rel.dfa

    _check(report, env, "cex5_period_4", "every occurrence has period 4")
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
    factor = "".join(str(automata.dfao_eval(sequences.x5_dfao(), i)) for i in range(23, 29))
    report.add("factor at 23 of length 6", "403240", factor)
    report.duration = time.perf_counter() - t0
    return report


def almost_powers() -> TheoremReport:
    """Infinitely many factors approach exponent 3/2 from below.

    Compiles the (n, p) relation, kept in the report as ``almost_ce_period``:
    some factor of length n has period p, with p > 10 and 2n + 4 >= 3p.  The
    accepted pairs turn out to satisfy n = (3p - 4)/2 exactly, so the
    exponents n/p = 3/2 - 2/p climb toward 3/2 without reaching it.  Each
    enumerated pair is confirmed against a brute-force scan of the word
    itself.
    """
    t0 = time.perf_counter()
    report = TheoremReport("almost_powers")
    rel = logic.compile(_sentence("almost_ce_period"), _x5_env())
    report.automata["almost_ce_period"] = rel.dfa

    report.add("accepted pairs form an infinite language", True,
               automata.is_infinite(rel.dfa))

    pairs = sorted(
        {
            tuple(pell.decode("".join(map(str, track.tolist())))
                  for track in rel.dfa.alphabet.unpack(np.array(w, dtype=np.int64)))
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
    prefix = sequences.x5_prefix(50_000)
    brute = [(_kernels._longest_run(prefix, p) + p, p)
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
    return report


# ---------------------------------------------------------------------------
# the three-letter word


def x3_analysis() -> TheoremReport:
    """High powers in the three-letter word.

    The periods admitting exponent >= 8/5 repetitions are exactly the numbers
    with representation 110000* (the sums P_m + P_{m-1}); for each such
    period the maximal repetition has run length P_{m+1} - 2, giving
    exponents (P_{m+1} + P_m + P_{m-1} - 2)/(P_m + P_{m-1}) that increase
    strictly toward 2 + sqrt(2)/2.
    """
    t0 = time.perf_counter()
    report = TheoremReport("x3_analysis")
    env = logic.Environment().with_sequence("X", sequences.x3_dfao())
    env = _define(env, "periods_of_high_powers")
    env = logic.reg(env, "pows", _sentence("pows"))
    report.automata["periods_of_high_powers"] = env.stored("periods_of_high_powers").dfa
    report.automata["pows"] = env.stored("pows").dfa
    _check(report, env, "php_matches_pows", "periods of high powers are exactly 0*110000*")

    env = _define(_define(env, "maximal_reps"), "highest_powers")
    report.automata["maximal_reps"] = env.stored("maximal_reps").dfa
    report.automata["highest_powers"] = env.stored("highest_powers").dfa

    prefix = sequences.x3_prefix(6000)
    for m in (5, 6, 7, 8):
        p = pell.pell_number(m) + pell.pell_number(m - 1)
        n = pell.pell_number(m + 1) - 2
        _check(report, env, f"highest_power_{p}",
               f"highest power for period {p} has run length {n}")
        report.add(f"brute-force maximal run for period {p}", n,
                   _kernels._longest_run(prefix, p))

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


THEOREMS: dict[str, Callable[[], TheoremReport]] = {
    "verify_adder": verify_adder,
    "verify_x5": verify_x5,
    "prove_e_x5": prove_e_x5,
    "corollary_cex5": corollary_cex5,
    "almost_powers": almost_powers,
    "x3_analysis": x3_analysis,
}


def run_all() -> dict[str, TheoremReport]:
    """Run every theorem script; keys in a stable order."""
    return {name: fn() for name, fn in THEOREMS.items()}
