"""Session fixtures shared across the suite.

The expensive artifacts are built once: the learner run for the addition
automaton, the six theorem reports, and the relation-soundness grids that
compare compiled predicates against brute-force truth tables.  The final
summary block prints one line per acceptance criterion.  Every hypothesis
test runs under one profile: the same examples on every run, and no
per-example deadline, so a slow spell on a shared machine fails nothing.
"""

from __future__ import annotations

from contextlib import contextmanager

import numpy as np
import pytest
from hypothesis import settings

settings.register_profile("tier1", deadline=None, derandomize=True)
settings.load_profile("tier1")

_ACCEPTANCE: dict[int, tuple[str, bool]] = {}


def record_criterion(number: int, label: str, passed: bool) -> None:
    _ACCEPTANCE[number] = (label, passed)


@contextmanager
def criterion(number: int, label: str):
    """Record PASS/FAIL for an acceptance criterion, then re-raise."""
    try:
        yield
    except BaseException:
        record_criterion(number, label, False)
        raise
    else:
        record_criterion(number, label, True)


def pytest_terminal_summary(terminalreporter, exitstatus, config):
    if not _ACCEPTANCE:
        return
    terminalreporter.section("acceptance criteria")
    for number in sorted(_ACCEPTANCE):
        label, passed = _ACCEPTANCE[number]
        verdict = "PASS" if passed else "FAIL"
        terminalreporter.write_line(f"{verdict} criterion {number:2d}: {label}")


@pytest.fixture(scope="session")
def learned_adder():
    from pelldecide import learner

    return learner.learn_adder()


@pytest.fixture(scope="session")
def theorem_reports():
    from pelldecide import theorems

    return theorems.run_all()


@pytest.fixture
def memo_misses(monkeypatch):
    """From now on, the number of misses in each batch that a pruned
    walk's memo looks up: runs whose hash another stored run holds."""
    from pelldecide import automata

    misses = []
    intern = automata._Memo.intern_runs

    def counting(memo, *args):
        seen, stored = intern(memo, *args)
        misses.append(int((seen < 0).sum()))
        return seen, stored

    monkeypatch.setattr(automata._Memo, "intern_runs", counting)
    return misses


@pytest.fixture(scope="session")
def soundness_grids():
    """name -> (automaton grid, brute-force grid) over assignments 0..300.

    Axes follow the sorted track order of each compiled relation.  The brute
    side never touches the automaton layer: sequence values come from the
    floor-function definition, repetitions from window scans.
    """
    from pelldecide import logic, sequences

    import references as R

    box = 300
    w5 = R.ref_x5_prefix(20_000).astype(np.int64)
    w3 = R.ref_x3_prefix(6_000).astype(np.int64)

    env5 = logic.Environment().with_sequence("X", sequences.x5_dfao())
    env3 = logic.Environment().with_sequence("X", sequences.x3_dfao())
    env3 = logic.define(
        env3,
        "maximal_reps",
        "?msd_pell Ei (Aj (j < n) => X[i + j] = X[i + j + p])"
        " & (X[i + n] != X[i + n + p])",
    )
    env3 = logic.reg(env3, "pows", "0*110000*")
    env3 = logic.define(
        env3,
        "highest_powers",
        "?msd_pell (p >= 1) & $pows(p) & $maximal_reps(n, p)"
        " & (Am $maximal_reps(m, p) => m <= n)",
    )

    tail = "(Aj (j + p < n) => X[i + j] = X[i + j + p])"
    relations = {
        "successor": (
            logic.compile("?msd_pell x < y & (Az (z <= x) | (z >= y))", env5),
            R.grid_successor(box),
        ),
        "addition": (
            logic.compile("?msd_pell x + y = z", env5),
            R.grid_addition(box),
        ),
        "fac_cex5": (
            logic.compile(f"?msd_pell En (p >= 1) & (2*n = 3*p) & {tail}", env5),
            R.grid_fac_cex5(w5, box),
        ),
        "almost_ce_period": (
            logic.compile(f"?msd_pell Ei (p > 10) & (2*n + 4 >= 3*p) & {tail}", env5),
            R.grid_almost_periods(w5, box),
        ),
        "periods_of_high_powers": (
            logic.compile(
                "?msd_pell Ei (p >= 1) & (Aj (5*j <= 8*p) => X[i + j] = X[i + j + p])",
                env3,
            ),
            R.grid_high_periods(w3, box),
        ),
        "maximal_reps": (
            logic.compile("$maximal_reps(n, p)", env3),
            R.grid_maximal_reps(w3, box),
        ),
        "highest_powers": (
            logic.compile("$highest_powers(n, p)", env3),
            R.grid_highest_powers(w3, box),
        ),
    }

    out = {}
    for name, (rel, brute) in relations.items():
        k = len(rel.tracks)
        rows = np.indices((box + 1,) * k).reshape(k, -1).T
        acc = np.empty(len(rows), dtype=bool)
        step = 2_000_000
        for lo in range(0, len(rows), step):
            acc[lo : lo + step] = logic.relation_accepts_batch(rel, rows[lo : lo + step])
        out[name] = (acc.reshape((box + 1,) * k), brute)
    return out
