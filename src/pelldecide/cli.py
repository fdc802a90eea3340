"""Command-line front end: predicate evaluation, definitions, proofs, search.

``eval``, ``def``, ``reg`` and ``seq --dump`` each hand their line to
``theorems.step``, the one interpreter of the script language, as ``run``
does for each line of a script (read by ``theorems.script_commands``: one
command per line, ``#`` comments, double-quoted predicates, an optional
``=> TRUE``/``=> FALSE`` trailer on an eval, and ``theorem NAME`` headings)
and as ``prove`` does for the sections of the bundled walkthrough
``data/paper.walnutish``, which is the paper's proof.  ``eval --expect X``
is the command line's spelling of the trailer ``=> X``.  A script line
outside that language (another command, ``seq`` without ``--dump``, or an
option such as ``--out`` or ``--expect``) is an error.  ``seq`` also prints
windows, ``dump`` writes a stored automaton, and ``search`` runs the
balanced-word optimality search.

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

from . import automata, pell, search


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
        from . import logic

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

    def resolve(self, path: str) -> Path:
        """``path`` in the session directory, made if need be, unless absolute."""
        p = Path(path)
        if self.directory is not None and not p.is_absolute():
            self.directory.mkdir(parents=True, exist_ok=True)
            return self.directory / p
        return p

    def save(self, path: str, text: str) -> None:
        """Keep ``text`` at ``path`` in the session directory, if there is one."""
        if self.directory is not None:
            (self.directory / path).parent.mkdir(parents=True, exist_ok=True)
            automata.write_text_atomic(self.directory / path, text)


def _write_automaton(a, fmt: str, out: Optional[str], session: Session) -> None:
    text = automata.to_dot(a) if fmt == "dot" else automata.to_text(a)
    if out:
        automata.write_text_atomic(session.resolve(out), text)
    else:
        print(text, end="")


def _execute(session: Session, tokens: list[str], dest: Optional[str] = None,
             fmt: str = "txt") -> int:
    """Run one line of the script language in the session, write its files
    (an eval's relation to ``dest``) before keeping what it bound, so a failed
    write leaves the session as it was, and print what it produced; exit code
    1 when a closed eval's verdict is not its trailer."""
    from . import theorems

    env, out = theorems.step(session.env, tokens)
    code = 0
    if dest:
        _write_automaton(out.relation.dfa, fmt, dest, session)
    if out.sequence is not None:
        # a seq line's last token is the dump's file
        path = session.resolve(tokens[-1])
        text = automata.to_text(out.sequence)
        automata.write_text_atomic(path, text)
        session.save(f"sequences/{out.name}.txt", text)
        print(f"wrote {path}")
    elif out.verdict is not None:
        verdict = "TRUE" if out.verdict else "FALSE"
        print(f"{out.name} = {verdict}" if out.name else verdict)
        if out.expect is not None and out.expect != out.verdict:
            print(f"error: expected {'TRUE' if out.expect else 'FALSE'}, got {verdict}",
                  file=sys.stderr)
            code = 1
    elif out.relation is not None:
        rel = out.relation
        if out.name is not None:
            data = {"params": list(rel.tracks), "automaton": automata.to_text(rel.dfa)}
            session.save(f"definitions/{out.name}.json", json.dumps(data))
        print(f"{out.name or 'result'}: automaton over ({', '.join(rel.tracks)}), "
              f"{rel.dfa.n_states} states")
    session.env = env
    return code


# ---------------------------------------------------------------------------
# command handlers (each returns an exit code)


def cmd_convert(session: Session, ns) -> int:
    if ns.decode:
        print(pell.decode(ns.value))
    elif ns.value.isascii() and ns.value.isdigit():
        print(pell.encode(int(ns.value)) or "0")
    else:
        raise ValueError(f"not a decimal number: {ns.value!r}")
    return 0


def cmd_eval(session: Session, ns) -> int:
    label = [ns.name] if ns.name else []
    trailer = ["=>", ns.expect] if ns.expect else []
    return _execute(session, ["eval", *label, ns.predicate, *trailer], ns.out, ns.format)


def cmd_def(session: Session, ns) -> int:
    return _execute(session, ["def", ns.name, ns.predicate])


def cmd_reg(session: Session, ns) -> int:
    return _execute(session, ["reg", ns.name, *ns.rest])


def cmd_dump(session: Session, ns) -> int:
    from .logic import CompileError

    try:
        target = session.env.stored(ns.name).dfa
    except CompileError:
        try:
            target = session.env.sequence(ns.name)
        except CompileError:
            raise CompileError(f"no definition or sequence named {ns.name!r}") from None
    _write_automaton(target, ns.format, ns.out, session)
    return 0


def cmd_seq(session: Session, ns) -> int:
    if ns.dump:
        return _execute(session, ["seq", ns.name, "--dump", ns.dump])
    m = session.env.sequence(ns.name)
    lo = ns.start if ns.start is not None else 0
    hi = ns.stop if ns.stop is not None else lo + 28
    print("".join(str(automata.dfao_eval(m, i)) for i in range(lo, hi + 1)))
    return 0


def cmd_learn_adder(session: Session, ns) -> int:
    from . import learner

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
    from . import theorems

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
    from . import theorems

    worst = 0
    for tokens in theorems.script_commands(Path(ns.script).read_text()):
        print(f"> {theorems.script_line(tokens)}")
        worst = max(worst, _execute(session, tokens))
    return worst


# ---------------------------------------------------------------------------
# parser


def _add_session(p: argparse.ArgumentParser) -> None:
    p.add_argument("--session", help="directory persisting definitions and dumps")


def _add_format(p: argparse.ArgumentParser) -> None:
    p.add_argument("--format", choices=("txt", "dot"), default="txt")
    p.add_argument("--out", help="write the automaton to this file")


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
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

    p = sub.add_parser("search", help="balanced-word optimality search")
    p.add_argument("--alphabet", type=int, default=5)
    p.add_argument("--bound", default="3/2")
    p.add_argument("--strict", action=argparse.BooleanOptionalAction, default=True)
    p.add_argument("--limit-depth", type=int, default=None)

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


def main(argv=None) -> int:
    ns = _build_parser().parse_args(argv)
    try:
        # only the commands that take --session build one, and with it import
        # the compiler
        session = Session(ns.session) if hasattr(ns, "session") else None
        return _HANDLERS[ns.command](session, ns)
    except _USER_ERRORS as e:
        print(f"error: {e}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
