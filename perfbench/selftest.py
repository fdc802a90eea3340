"""Self-test of the benchmark's checker: wrong results must count as failures.

    python3 perfbench/selftest.py

Feeds the workloads' reference checks deliberately wrong results (a wrong
verdict, a wrong relation, a wrong automaton, a wrong search answer, a job
that raises) next to right ones, through the same job loop and failure count
the workers use.  Takes a few seconds; exits 0 when every wrong result is
counted as a failure and no right one is.
"""

from __future__ import annotations

import contextlib
import io
import sys
from fractions import Fraction
from pathlib import Path

import numpy as np

HERE = Path(__file__).resolve().parent
sys.path[:0] = [str(HERE.parent / "src"), str(HERE)]

from pelldecide import learner, logic, search, sequences  # noqa: E402

import workloads as w  # noqa: E402
from worker import count_failures, run_jobs  # noqa: E402


def _broken_adder():
    a = learner.direct_adder()
    accepting = a.accepting.copy()
    accepting[a.initial] = not accepting[a.initial]
    return type(a)(a.alphabet, a.delta, accepting, a.initial)


def cases() -> list[tuple[w.Job, bool]]:
    """(job, whether its check must reject it)."""
    lin = w.grid(30, 30)
    five = search.bfs_optimal(5, Fraction(3, 2))
    level = np.array([[0, 1, 0, 2], [0, 0, 1, 1]], dtype=np.int8)  # 2nd row unbalanced
    x5 = w.reference_word("X")[:2000]
    Job = w.Job
    return [
        # prove-x5: 7/5 < 3/2, so "a factor of exponent > 7/5 exists" is TRUE
        (Job("verdict right", lambda: True, w.verdict_check(Fraction(7, 5), ">")), False),
        (Job("verdict wrong", lambda: False, w.verdict_check(Fraction(7, 5), ">")), True),
        (Job("verdict wrong at 3/2", lambda: True, w.verdict_check(Fraction(3, 2), ">")), True),
        # relations
        (Job("relation right", lambda: logic.compile("?msd_pell x + 2 = y"),
             w.relation_check(lin, lambda: lin[:, 0] + 2 == lin[:, 1])), False),
        (Job("relation wrong", lambda: logic.compile("?msd_pell x + 1 = y"),
             w.relation_check(lin, lambda: lin[:, 0] + 2 == lin[:, 1])), True),
        (Job("pattern wrong", lambda: logic.compile("?msd_pell $pat(w)",
                                                    logic.reg(logic.Environment(), "pat", "0*1(0|1)*")),
             w.relation_check(w.grid(200), w.pattern_expected("0*(10)*", w.grid(200)))), True),
        # learn
        (Job("adder right", learner.direct_adder, w.adder_check), False),
        (Job("adder wrong", _broken_adder, w.adder_check), True),
        (Job("word wrong", sequences.c_alpha_dfao, w.word_check("X", 1000)), True),
        # search
        (Job("optimal right", lambda: five, w.optimal_check), False),
        (Job("optimal wrong depth", lambda: (43, five[1]), w.optimal_check), True),
        (Job("level wrong", lambda: level, w.level_check(4, 3, Fraction(2), 2, 0)), True),
        (Job("exponent right", lambda: Fraction(3, 2), w.exponent_check(x5)), False),
        (Job("exponent wrong", lambda: Fraction(5, 3), w.exponent_check(x5)), True),
        # a job that raises fails whatever its check says
        (Job("raises", lambda: logic.compile("?msd_pell x +"), lambda out: True), True),
    ]


def main() -> int:
    table = cases()
    jobs = [job for job, _ in table]
    _, outputs, errors = run_jobs(jobs)
    bad = []
    for (job, must_fail), out, err in zip(table, outputs, errors):
        with contextlib.redirect_stderr(io.StringIO()):  # the expected FAILED lines
            failed = count_failures([job], [out], [err]) == 1
        if failed != must_fail:
            bad.append(f"{job.name}: counted as {'failed' if failed else 'passed'}")
    for line in bad:
        print(f"SELFTEST FAILED {line}", file=sys.stderr)
    print(f"selftest: {len(table)} checker cases, {len(bad)} wrong")
    return 1 if bad else 0


if __name__ == "__main__":
    sys.exit(main())
