"""Command-line front end: predicate evaluation, definitions, proofs, search.

Commands mirror the library: ``eval``/``def``/``reg`` compile predicates in a
session environment, ``prove`` runs the theorems, ``seq`` prints or dumps the
built-in sequences, ``search`` runs the balanced-word optimality search, and
``run`` executes a script of these commands (one per line, ``#`` comments,
double-quoted predicates, and an optional trailing ``=> TRUE``/``=> FALSE``
expectation on eval lines).  Scripts are read by ``logic.script_commands``.
The bundled walkthrough ``data/paper.walnutish`` is the paper's proof: its
``theorem NAME`` lines open the sections that ``prove NAME`` runs
(``theorems``), and ``run`` prints such a line as a heading and does nothing
else.  So that script is the text to edit when a sentence changes.

A session directory (``--session``) persists definitions and sequence dumps
between invocations; within one ``run``, later commands see everything
earlier commands created.  Exit codes: 0 on success (an eval printing FALSE
is still a success), 1 when a proof or expectation fails, 2 on usage or
syntax errors, unreadable or malformed files, subset constructions that
outgrow ``automata.MAX_SUBSETS``, products and the tables cylindrified for
them that outgrow ``automata.MAX_PAIRS``, and formulas whose relations would
have more than ``automata.MAX_TRACKS`` tracks; each error is one ``error:``
line.
"""

from __future__ import annotations

import argparse
import json
import sys
from contextlib import contextmanager
from pathlib import Path
from typing import Optional

from . import automata, learner, logic, pell, search, sequences, theorems


@contextmanager
def _session_file(path: Path):
    """Report a malformed session file as a ValueError that names it."""
    try:
        yield
    except (ValueError, KeyError, TypeError) as e:
        raise ValueError(f"{path}: {e}") from e


class Session:
    """Environment plus optional persistence directory."""

    def __init__(self, directory: Optional[str] = None):
        self.directory = Path(directory) if directory else None
        self.env = logic.Environment()
        if self.directory is not None and self.directory.exists():
            self._load()

    def _load(self) -> None:
        for path in sorted(self.directory.glob("sequences/*.txt")):
            with _session_file(path):
                self.env = self.env.with_sequence(path.stem, automata.load_text(path))
        for path in sorted(self.directory.glob("definitions/*.json")):
            with _session_file(path):
                data = json.loads(path.read_text())
                dfa = automata.from_text(data["automaton"])
                self.env = self.env.with_callable(path.stem, dfa, tuple(data["params"]))

    def ensure_sequences(self, text: str) -> None:
        """Materialize built-in sequences the predicate indexes into."""
        self.env = sequences.with_builtins(self.env, text)

    def resolve(self, path: str) -> Path:
        p = Path(path)
        if self.directory is not None and not p.is_absolute():
            return self.directory / p
        return p

    def save_definition(self, name: str, dfa, params) -> None:
        if self.directory is None:
            return
        def_dir = self.directory / "definitions"
        def_dir.mkdir(parents=True, exist_ok=True)
        automata.write_text_atomic(
            def_dir / f"{name}.json",
            json.dumps({"params": list(params), "automaton": automata.to_text(dfa)}),
        )

    def bind(self, name: str, env: logic.Environment) -> None:
        """Adopt ``env``, which binds the relation ``name`` anew: save the
        relation in the session directory and print its line."""
        self.env = env
        rel = env.stored(name)
        self.save_definition(name, rel.dfa, rel.tracks)
        _print_relation(name, rel)

    def register_sequence(self, name: str, m) -> None:
        self.env = self.env.with_sequence(name, m)
        # persist the binding so a reloaded session sees the same sequences
        if self.directory is not None:
            seq_dir = self.directory / "sequences"
            seq_dir.mkdir(parents=True, exist_ok=True)
            automata.save_text(m, seq_dir / f"{name}.txt")


def _print_relation(label: str, rel: logic.Relation) -> None:
    print(f"{label}: automaton over ({', '.join(rel.tracks)}), {rel.dfa.n_states} states")


def _write_automaton(a, fmt: str, out: Optional[str], session: Session) -> None:
    text = automata.to_dot(a) if fmt == "dot" else automata.to_text(a)
    if out:
        automata.write_text_atomic(session.resolve(out), text)
    else:
        print(text, end="")


def _sequence_by_name(session: Session, name: str):
    if name in session.env.sequence_names():
        return session.env.sequence(name)
    if name in sequences.BUILTIN:
        return sequences.BUILTIN[name]()
    raise logic.CompileError(f"unknown sequence {name!r}")


# ---------------------------------------------------------------------------
# command handlers (each returns an exit code)


def cmd_convert(session: Session, ns) -> int:
    if ns.decode:
        print(pell.decode(ns.value))
    else:
        print(pell.encode(int(ns.value)) or "0")
    return 0


def cmd_eval(session: Session, ns) -> int:
    session.ensure_sequences(ns.predicate)
    rel = logic.compile(ns.predicate, session.env)
    if not rel.tracks:
        verdict = "TRUE" if rel.is_true else "FALSE"
        prefix = f"{ns.name} = " if ns.name else ""
        print(f"{prefix}{verdict}")
        if ns.out:
            _write_automaton(rel.dfa, ns.format, ns.out, session)
        if ns.expect and verdict != ns.expect:
            print(f"error: expected {ns.expect}, got {verdict}", file=sys.stderr)
            return 1
        return 0
    if ns.expect:
        raise ValueError("=> expectations apply only to closed predicates")
    if ns.name:
        session.bind(ns.name, session.env.with_callable(ns.name, rel.dfa, rel.tracks))
    else:
        _print_relation("result", rel)
    if ns.out:
        _write_automaton(rel.dfa, ns.format, ns.out, session)
    return 0


def cmd_def(session: Session, ns) -> int:
    session.ensure_sequences(ns.predicate)
    session.bind(ns.name, logic.define(session.env, ns.name, ns.predicate))
    return 0


def cmd_reg(session: Session, ns) -> int:
    if len(ns.rest) == 1:
        pattern = ns.rest[0]
    elif len(ns.rest) == 2:
        numeration, pattern = ns.rest
        if numeration != "msd_pell":
            raise ValueError(f"unsupported numeration {numeration!r}")
    else:
        raise ValueError("reg takes a name, an optional numeration, and a pattern")
    session.bind(ns.name, logic.reg(session.env, ns.name, pattern))
    return 0


def cmd_dump(session: Session, ns) -> int:
    try:
        target = session.env.stored(ns.name).dfa
    except logic.CompileError:
        target = _sequence_by_name(session, ns.name)
    _write_automaton(target, ns.format, ns.out, session)
    return 0


def cmd_seq(session: Session, ns) -> int:
    m = _sequence_by_name(session, ns.name)
    if ns.dump:
        path = session.resolve(ns.dump)
        # bind first: a name the session refuses leaves no dump behind
        session.register_sequence(path.stem, m)
        automata.save_text(m, path)
        print(f"wrote {path}")
        return 0
    lo = ns.start if ns.start is not None else 0
    hi = ns.stop if ns.stop is not None else lo + 28
    print("".join(str(automata.dfao_eval(m, i)) for i in range(lo, hi + 1)))
    return 0


def cmd_learn_adder(session: Session, ns) -> int:
    learned = learner.learn_adder(max_len=ns.max_len)
    live = automata.live_state_count(learned)
    print(f"learned adder: {learned.n_states} states ({live} live) "
          f"over {learned.alphabet.size} symbols")
    same = automata.equivalent(learned, learner.adder())
    print(f"agrees with the direct construction: {same}")
    if ns.out:
        _write_automaton(learned, ns.format, ns.out, session)
    return 0 if same else 1


def cmd_prove(session: Session, ns) -> int:
    if ns.theorem == "all":
        reports = theorems.run_all()
    elif ns.theorem in theorems.THEOREMS:
        reports = {ns.theorem: theorems.prove(ns.theorem)}
    else:
        known = ", ".join(theorems.THEOREMS)
        raise ValueError(f"unknown theorem {ns.theorem!r} (known: {known}, all)")
    failed = False
    for name, report in reports.items():
        print(report.summary())
        failed = failed or not report.passed
        if ns.emit_automata:
            out = Path(ns.emit_automata)
            out.mkdir(parents=True, exist_ok=True)
            for key, a in report.automata.items():
                automata.save_text(a, out / f"{name}.{key}.txt")
    return 1 if failed else 0


def cmd_search(session: Session, ns) -> int:
    depth, words = search.bfs_optimal(
        ns.alphabet, ns.bound, strict=ns.strict, limit_depth=ns.limit_depth
    )
    print(f"max length {depth} with {len(words)} words:")
    for w in words:
        print(f"  {w}")
    return 0


def cmd_run(session: Session, ns) -> int:
    parser = _build_parser(_ScriptParser)
    worst = 0
    for tokens in logic.script_commands(Path(ns.script).read_text()):
        if not tokens:
            continue
        print(f"> {' '.join(tokens)}")
        if tokens[0] == "theorem":
            # a section heading, which only prove reads
            if len(tokens) != 2:
                raise ValueError("a theorem line names one section")
            continue
        code = _dispatch(session, parser.parse_args(tokens))
        if code == 2:
            return 2
        worst = max(worst, code)
    return worst


# ---------------------------------------------------------------------------
# parser


def _add_session(p: argparse.ArgumentParser) -> None:
    p.add_argument("--session", help="directory persisting definitions and dumps")


def _add_format(p: argparse.ArgumentParser) -> None:
    p.add_argument("--format", choices=("txt", "dot"), default="txt")
    p.add_argument("--out", help="write the automaton to this file")


class _ScriptParser(argparse.ArgumentParser):
    """The parser of ``run``'s lines: a line it refuses is a ValueError, so
    ``run`` reports it as one ``error:`` line, not as argparse's usage text."""

    def error(self, message):
        raise ValueError(f"{self.prog}: {message}")

    def exit(self, status=0, message=None):
        raise ValueError(f"{self.prog}: a script line cannot ask for help")


def _build_parser(parser_class=argparse.ArgumentParser) -> argparse.ArgumentParser:
    parser = parser_class(
        prog="pelldecide",
        description="decide first-order predicates over Pell representations",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("convert", help="decimal to Pell digits (or back)")
    p.add_argument("value")
    p.add_argument("--decode", action="store_true",
                   help="treat the value as Pell digits and print the decimal")

    p = sub.add_parser("eval", help="evaluate or compile a predicate")
    p.add_argument("name", nargs="?", default=None,
                   help="store a free-variable result under this name")
    p.add_argument("predicate")
    p.add_argument("--expect", choices=("TRUE", "FALSE"))
    _add_format(p)
    _add_session(p)

    p = sub.add_parser("def", help="define a named predicate")
    p.add_argument("name")
    p.add_argument("predicate")
    _add_session(p)

    p = sub.add_parser("reg", help="define a digit-pattern automaton")
    p.add_argument("name")
    p.add_argument("rest", nargs="+",
                   metavar="[numeration] pattern",
                   help="optional numeration (msd_pell) and the pattern")
    _add_session(p)

    p = sub.add_parser("dump", help="write a stored automaton")
    p.add_argument("name")
    _add_format(p)
    _add_session(p)

    p = sub.add_parser("seq", help="print or dump a sequence")
    p.add_argument("name")
    p.add_argument("--from", dest="start", type=int)
    p.add_argument("--to", dest="stop", type=int)
    p.add_argument("--dump", help="write the sequence automaton to this file")
    _add_session(p)

    p = sub.add_parser("learn-adder", help="learn the addition automaton")
    p.add_argument("--max-len", type=int, default=6,
                   help="ask every padded canonical word of up to this many digit "
                        "triples (at most 6); every hypothesis is false on the other words")
    _add_format(p)
    _add_session(p)

    p = sub.add_parser("prove", help="run theorem scripts")
    p.add_argument("theorem")
    p.add_argument("--emit-automata", help="directory for intermediate automata")
    _add_session(p)

    p = sub.add_parser("search", help="balanced-word optimality search")
    p.add_argument("--alphabet", type=int, default=5)
    p.add_argument("--bound", default="3/2")
    p.add_argument("--strict", action=argparse.BooleanOptionalAction, default=True)
    p.add_argument("--limit-depth", type=int, default=None)
    _add_session(p)

    p = sub.add_parser("run", help="execute a command script")
    p.add_argument("script")
    _add_session(p)

    return parser


_HANDLERS = {
    "convert": cmd_convert,
    "eval": cmd_eval,
    "def": cmd_def,
    "reg": cmd_reg,
    "dump": cmd_dump,
    "seq": cmd_seq,
    "learn-adder": cmd_learn_adder,
    "prove": cmd_prove,
    "search": cmd_search,
    "run": cmd_run,
}


# syntax and compile errors, the subset, pair and track budgets, bad files and
# unreadable paths, and the handlers' own usage errors
_USER_ERRORS = (ValueError, OSError)


def _dispatch(session: Session, ns) -> int:
    try:
        return _HANDLERS[ns.command](session, ns)
    except _USER_ERRORS as e:
        print(f"error: {e}", file=sys.stderr)
        return 2


def main(argv=None) -> int:
    parser = _build_parser()
    ns = parser.parse_args(argv)
    try:
        session = Session(getattr(ns, "session", None))
    except _USER_ERRORS as e:
        print(f"error: {e}", file=sys.stderr)
        return 2
    return _dispatch(session, ns)


if __name__ == "__main__":
    sys.exit(main())
