"""The paper's proof: the sections of the bundled script, each run to a
machine-checkable report.

The bundled command script ``data/paper.walnutish``, which ``pelldecide run``
walks through, is the proof.  A ``theorem NAME`` line opens each of its
sections (``THEOREMS``): verify_adder, verify_x5, prove_e_x5, corollary_cex5,
almost_powers and x3_analysis.  In a section, each closed ``eval NAME "..."
=> TRUE|FALSE`` is one check of the report, named by the eval; each ``def``,
named open ``eval`` and ``reg`` binds a relation that the report keeps under
the same name; and ``seq SRC --dump F.txt`` binds F to the built-in sequence
SRC (it writes no file).  Any other command is a ``ValueError``, so no line
of the script goes unrun.

One environment runs through the sections in order, as in ``run``; ``prove
NAME`` runs the bindings (not the checks) of the sections before NAME first.
Built-in words are bound on first use, unless the caller's environment binds
them, which is how a proof runs over a mutant.  The script is read on first
use, not on import.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from functools import cache
from importlib import resources
from pathlib import Path
from typing import Optional

from . import logic, sequences
from .automata import Dfa

__all__ = ["Check", "TheoremReport", "VERIFICATION_PREDICATES", "THEOREMS", "prove", "run_all"]


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
        head = f"{self.theorem}: {'PASS' if self.passed else 'FAIL'} ({self.duration:.1f}s)"
        return "\n".join([head] + [
            f"  {'ok' if c.ok else 'XX'} {c.name}: expected {c.expected!r}, got {c.obtained!r}"
            for c in self.checks])


@cache
def _sections() -> dict[str, list[list[str]]]:
    """The bundled script's commands, by section, in order."""
    text = (resources.files(__package__) / "data" / "paper.walnutish").read_text()
    sections: dict[str, list[list[str]]] = {}
    for tokens in logic.script_commands(text):
        if tokens[0] == "theorem" and len(tokens) == 2:
            sections[tokens[1]] = []
        elif not sections or tokens[0] == "theorem":
            raise ValueError(f"not a command of a theorem section: {' '.join(tokens)}")
        else:
            list(sections.values())[-1].append(tokens)
    return sections


def __getattr__(name: str):
    # built on first use, so that importing this module reads no file;
    # VERIFICATION_PREDICATES maps the names of verify_x5's sentences to them
    if name == "THEOREMS":
        return tuple(_sections())
    if name == "VERIFICATION_PREDICATES":
        return {tokens[1]: tokens[2] for tokens in _sections()["verify_x5"]}
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


def _step(env: logic.Environment, tokens: list[str],
          report: Optional[TheoremReport]) -> logic.Environment:
    """Run one command of a section and return the environment after it.  A
    closed check goes into ``report``, and is skipped when there is none."""
    match tokens:
        case ["seq", source, "--dump", path] if source in sequences.BUILTIN:
            return env.with_sequence(Path(path).stem, sequences.BUILTIN[source]())
        case ["eval", name, text, "--expect", "TRUE" | "FALSE" as verdict]:
            if report is not None:
                obtained = logic.eval_closed(text, sequences.with_builtins(env, text))
                report.add(name, verdict == "TRUE", obtained)
            return env
        case ["reg", name, "msd_pell", pattern]:
            env = logic.reg(env, name, pattern)
        case ["def" | "eval", name, text]:
            env = sequences.with_builtins(env, text)
            rel = logic.compile(text, env)
            if not rel.tracks:
                raise ValueError(f"{name} is closed, so it needs a => TRUE/FALSE trailer")
            env = env.with_callable(name, rel.dfa, rel.tracks)
        case _:
            raise ValueError(f"a theorem section cannot run: {' '.join(tokens)}")
    if report is not None:
        report.automata[name] = env.stored(name).dfa
    return env


def _run(names: tuple[str, ...], env: Optional[logic.Environment]) -> dict[str, TheoremReport]:
    """Run the sections through the last of ``names``; report on those only."""
    env = env if env is not None else logic.Environment()
    reports = {}
    for name, commands in _sections().items():
        t0 = time.perf_counter()
        report = TheoremReport(name) if name in names else None
        for tokens in commands:
            env = _step(env, tokens, report)
        if report is not None:
            report.duration = time.perf_counter() - t0
            reports[name] = report
        if name == names[-1]:
            break
    return reports


def prove(name: str, env: Optional[logic.Environment] = None) -> TheoremReport:
    """Run the script through section ``name`` and return its report; ``env``
    binds what the script leaves to its caller (a mutant adder, C or X)."""
    if name not in _sections():
        raise ValueError(f"unknown theorem {name!r}")
    return _run((name,), env)[name]


def run_all(env: Optional[logic.Environment] = None) -> dict[str, TheoremReport]:
    """Every section's report, from one environment, in the script's order."""
    return _run(tuple(_sections()), env)
