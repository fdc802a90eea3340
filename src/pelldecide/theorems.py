"""The script language's one reader and one interpreter, and the paper's
proof: the sections of the bundled script, each run to a machine-checkable
report.

``script_commands`` reads a script's lines as written (``script_line`` spells
tokens back as such a line), and ``step`` runs one
(``theorem NAME``, ``def``, ``eval``, ``reg`` and ``seq SRC --dump F.txt``) in
an environment.  The section runner here and ``pelldecide run`` read with
the one and run with the other, as the CLI's single commands run theirs, so a
line means the same in each.  The bundled script ``data/paper.walnutish`` is
the proof.  A ``theorem NAME`` line opens each of its sections
(``THEOREMS``): verify_adder, verify_x5, prove_e_x5, corollary_cex5,
almost_powers and x3_analysis.  In a section, each eval is named; a closed
one carries a ``=> TRUE|FALSE`` trailer and is one check of the report, and
each relation that a line binds is kept in the report under its name.  The
runner writes no file.

One environment runs through the sections in order, as in ``run``; ``prove
NAME`` runs the bindings (not the checks) of the sections before NAME first.
A word the caller's environment binds shadows the built-in of that name,
which is how a proof runs over a mutant.  The script is read on first use,
not on import.
"""

from __future__ import annotations

import shlex
import time
from dataclasses import dataclass, field
from functools import cache
from importlib import resources
from pathlib import Path
from typing import Iterator, Optional, Sequence

from . import logic
from .automata import Dfa, Dfao

__all__ = [
    "Check", "TheoremReport", "Outcome", "script_commands", "script_line", "step",
    "VERIFICATION_PREDICATES", "THEOREMS", "prove", "run_all",
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
        head = f"{self.theorem}: {'PASS' if self.passed else 'FAIL'} ({self.duration:.1f}s)"
        return "\n".join([head] + [
            f"  {'ok' if c.ok else 'XX'} {c.name}: expected {c.expected!r}, got {c.obtained!r}"
            for c in self.checks])


@dataclass(frozen=True)
class Outcome:
    """What one line produced: the ``relation`` a ``def``, ``reg`` or
    ``eval`` compiled, bound as ``name`` unless it has a ``verdict`` (a
    closed eval, whose ``name`` is a label and ``expect`` its trailer); the
    ``sequence`` a ``seq`` bound as ``name``; or a ``theorem`` line's name."""

    name: Optional[str] = None
    relation: Optional[logic.Relation] = None
    verdict: Optional[bool] = None
    expect: Optional[bool] = None
    sequence: Optional[Dfao] = None


def script_commands(text: str) -> Iterator[list[str]]:
    """Each command's tokens, one logical line at a time: ``#`` comments
    stripped, double-quoted text joined across line breaks, and the line
    split as written (``shlex.split``)."""
    pending, quoted = "", False
    for raw in text.splitlines():
        line, quoted = _strip_comment(raw, quoted)
        pending = f"{pending} {line.strip()}" if pending else line.strip()
        if not quoted:
            if pending:
                yield shlex.split(pending)
            pending = ""
    if pending:
        yield shlex.split(pending)


def script_line(tokens: Sequence[str]) -> str:
    """``tokens`` as one line that ``shlex.split`` reads back as them.  A
    word with a space, a quote or a ``#`` goes in double quotes, as scripts
    write predicates, so ``script_commands`` reads the line back too; one
    with a double quote or a backslash takes ``shlex.quote``'s quoting, and
    every other word stays bare."""
    def spelled(word: str) -> str:
        if word and not any(c.isspace() or c in "\"'\\#" for c in word):
            return word
        return shlex.quote(word) if '"' in word or "\\" in word else f'"{word}"'
    return " ".join(map(spelled, tokens))


def _strip_comment(line: str, quoted: bool) -> tuple[str, bool]:
    """The line up to a ``#`` outside double quotes, and whether it ends
    inside them; ``quoted`` says whether it starts inside them."""
    for i, c in enumerate(line):
        if c == '"':
            quoted = not quoted
        elif c == "#" and not quoted:
            return line[:i], quoted
    return line, quoted


@cache
def _sections() -> dict[str, list[list[str]]]:
    """The bundled script's commands, by section, in order."""
    text = (resources.files(__package__) / "data" / "paper.walnutish").read_text()
    sections: dict[str, list[list[str]]] = {}
    for tokens in script_commands(text):
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


def step(env: logic.Environment, tokens: Sequence[str]) -> tuple[logic.Environment, Outcome]:
    """Run one line of the script language in ``env``; return the environment
    after it and what it produced.  The lines are ``theorem NAME``, ``def NAME
    "p"``, ``eval [NAME] "p" [=> TRUE|FALSE]``, ``reg NAME [msd_pell]
    PATTERN`` and ``seq SRC --dump F.txt``, which binds F to SRC (``env``'s
    sequence, else the built-in) and writes no file.  Any other line is a
    ValueError."""
    match list(tokens):
        case ["theorem", name]:
            return env, Outcome(name)
        case ["def", name, text]:
            env.unbound(name)  # before the predicate compiles
            env = logic.define(env, name, text)
            return env, Outcome(name, env.stored(name))
        case ["reg", name, pattern] | ["reg", name, "msd_pell", pattern]:
            env.unbound(name)  # before the pattern's automaton is built
            env = logic.reg(env, name, pattern)
            return env, Outcome(name, env.stored(name))
        case ["reg", _, numeration, _]:
            raise ValueError(f"unsupported numeration {numeration!r}")
        case ["seq", source, "--dump", path]:
            m, name = env.sequence(source), Path(path).stem
            return env.with_sequence(name, m), Outcome(name, sequence=m)
        # the label is at most one name, and no option
        case ["eval", *label, text, "=>", "TRUE" | "FALSE"] | ["eval", *label, text] if (
                len(label) < 2 and not any(a.startswith("-") for a in label)):
            expect = tokens[-1] == "TRUE" if tokens[-2] == "=>" else None
            name = logic._check_name(label[0]) if label else None
            predicate = logic.parse(text)
            if logic.free_variables(predicate):  # refused before it compiles
                if expect is not None:
                    raise ValueError("=> expectations apply only to closed predicates")
                if name is not None:
                    env.unbound(name)  # an open eval binds its label
            rel = logic.compile(predicate, env)
            if rel.tracks and name is not None:
                env = env.with_callable(name, rel.dfa, rel.tracks)
            return env, Outcome(name, rel, None if rel.tracks else rel.is_true, expect)
    raise ValueError(f"not a line of the script language: {' '.join(tokens)}")


def _run_section(env: logic.Environment, commands: list[list[str]],
                 report: Optional[TheoremReport]) -> logic.Environment:
    """Run a section's commands and return the environment after them.  Each
    eval is named, and a closed one is a check, so it carries a trailer; the
    checks go into ``report``, and are skipped when there is none."""
    for tokens in commands:
        if report is None and tokens[-2:] in (["=>", "TRUE"], ["=>", "FALSE"]):
            continue
        env, out = step(env, tokens)
        if out.relation is not None and out.name is None:
            raise ValueError(f"a theorem section names each eval: {' '.join(tokens)}")
        if out.verdict is not None and out.expect is None:
            raise ValueError(f"{out.name} is closed, so it needs a => TRUE/FALSE trailer")
        if report is not None and out.verdict is not None:
            report.add(out.name, out.expect, out.verdict)
        elif report is not None and out.relation is not None:
            report.automata[out.name] = out.relation.dfa
    return env


def _run(names: tuple[str, ...], env: Optional[logic.Environment]) -> dict[str, TheoremReport]:
    """Run the sections through the last of ``names``; report on those only."""
    env = env if env is not None else logic.Environment()
    reports = {}
    for name, commands in _sections().items():
        t0 = time.perf_counter()
        report = TheoremReport(name) if name in names else None
        env = _run_section(env, commands, report)
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
