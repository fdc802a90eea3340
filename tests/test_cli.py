"""End-to-end exercises of the command-line front end."""

import ast
import io
import json
import re
import shlex
import shutil
import subprocess
import sys
import tempfile
import tracemalloc
from contextlib import redirect_stderr, redirect_stdout
from importlib import resources
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import references as R
import strategies
from pelldecide import automata, cli, logic, pell, sequences, theorems
from pelldecide.automata import Dfa, Dfao, TrackAlphabet


def run_cli(capsys, *argv):
    code = cli.main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


# --- convert ---------------------------------------------------------------------


def test_convert_both_directions(capsys):
    assert run_cli(capsys, "convert", "157") == (0, "201100\n", "")
    assert run_cli(capsys, "convert", "201100", "--decode") == (0, "157\n", "")
    assert run_cli(capsys, "convert", "0") == (0, "0\n", "")
    assert run_cli(capsys, "convert", "122100", "--decode") == (0, "157\n", "")


def test_convert_rejects_bad_digits(capsys):
    # only ASCII decimal digits encode, and only 0, 1 and 2 decode; each
    # refusal is one error line that names the whole value
    for argv, value in [
        (["9", "--decode"], "9"),
        (["--decode", "١٢"], "١٢"),
        (["--decode", "--", "-12"], "-12"),
        (["٣"], "٣"),
        ([" 7"], " 7"),
        (["1_0"], "1_0"),
        (["--", "-3"], "-3"),
    ]:
        code, out, err = run_cli(capsys, "convert", *argv)
        assert (code, out) == (2, ""), argv
        assert len(err.splitlines()) == 1 and err.startswith("error:"), argv
        assert err.rstrip().endswith(repr(value)), argv


# --- eval ------------------------------------------------------------------------


def test_eval_closed_predicates(capsys):
    assert run_cli(capsys, "eval", "1 + 1 = 2") == (0, "TRUE\n", "")
    assert run_cli(capsys, "eval", "1 = 2") == (0, "FALSE\n", "")
    code, out, _ = run_cli(capsys, "eval", "obvious", "Ax x + 0 = x")
    assert (code, out) == (0, "obvious = TRUE\n")


def test_eval_expectations(capsys):
    assert run_cli(capsys, "eval", "2 <= 5", "--expect", "TRUE")[0] == 0
    code, out, err = run_cli(capsys, "eval", "1 = 2", "--expect", "TRUE")
    assert code == 1
    assert out == "FALSE\n"
    assert "expected TRUE, got FALSE" in err
    # expectations only make sense once every variable is quantified
    code, _, err = run_cli(capsys, "eval", "x = 1", "--expect", "TRUE")
    assert code == 2 and "closed" in err


@pytest.mark.parametrize("fmt", ["txt", "dot"])
def test_eval_closed_predicate_writes_its_automaton(capsys, tmp_path, fmt):
    out_file = tmp_path / "closed.out"
    code, out, err = run_cli(
        capsys, "eval", "?msd_pell Ex x = 1", "--out", str(out_file), "--format", fmt
    )
    assert (code, out, err) == (0, "TRUE\n", "")
    if fmt == "dot":
        assert out_file.read_text().startswith("digraph")
        return
    closed = automata.load_text(out_file)
    assert closed.alphabet.n_tracks == 0
    assert closed.accepting[closed.initial]


def test_eval_syntax_error_exits_2(capsys):
    code, _, err = run_cli(capsys, "eval", "x + = 1")
    assert code == 2
    assert err.startswith("error:") and "column" in err


@pytest.mark.parametrize(
    "predicate", ["(" * 3000 + "x = 0" + ")" * 3000, "~" * 3000 + "x = 0"],
    ids=["parentheses", "negations"],
)
def test_eval_of_a_deeply_nested_predicate_exits_2(capsys, predicate):
    code, out, err = run_cli(capsys, "eval", predicate)
    assert (code, out) == (2, "")
    # the parser stops at the token it had reached when the stack ran out
    assert re.fullmatch(r"error: the predicate nests too deeply at line 1, column \d+\n", err)


def test_eval_of_250_nested_parentheses_exits_0(capsys):
    # the parser spends three frames a level, so this depth parses even
    # under pytest's own stack
    assert run_cli(capsys, "eval", "(" * 250 + "0 = 0" + ")" * 250) == (0, "TRUE\n", "")


@given(strategies.predicate_texts(), st.sampled_from([None, "TRUE", "FALSE"]))
@settings(max_examples=150)
def test_eval_exits_by_the_documented_codes(text, expect):
    argv = ["eval", text] + (["--expect", expect] if expect else [])
    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        code = cli.main(argv)
    lines = err.getvalue().splitlines()
    assert code in (0, 1, 2), text
    if code == 0:
        assert lines == [], text
    elif code == 1:
        assert expect is not None, text
        assert len(lines) == 1 and lines[0].startswith("error: expected"), text
    else:
        assert len(lines) == 1 and lines[0].startswith("error:"), text


def _main_quietly(argv):
    """Exit code and stderr lines of one in-process CLI call."""
    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        code = cli.main(argv)
    return code, err.getvalue().splitlines()


def _assert_documented_exit(code, lines, checks, case):
    """Exit 0 writes nothing to stderr.  Exit 1 comes only where ``checks``
    (a script or --expect) and then writes only failed expectations.  Exit 2
    writes one line besides those, and that line starts with error:."""
    failed = [line for line in lines if line.startswith("error: expected")]
    others = [line for line in lines if not line.startswith("error: expected")]
    assert code in (0, 1, 2), case
    assert checks or not failed, case
    if code == 0:
        assert lines == [], case
    elif code == 1:
        assert checks and failed and not others, case
    else:
        assert len(others) == 1 and others[0].startswith("error:"), case


@given(st.sampled_from(["f", "g_2", "Ab", "1x", "E"]), strategies.predicate_texts())
@settings(max_examples=100)
def test_def_exits_by_the_documented_codes(name, text):
    code, lines = _main_quietly(["def", name, text])
    _assert_documented_exit(code, lines, False, (name, text))


@given(st.sampled_from([[], ["msd_pell"], ["msd_fib"], ["msd_pell", "1"]]), strategies.patterns())
@settings(max_examples=150)
def test_reg_exits_by_the_documented_codes(numeration, pattern):
    code, lines = _main_quietly(["reg", "r", *numeration, pattern])
    _assert_documented_exit(code, lines, False, (numeration, pattern))


# lines outside the script language: malformed lines, the commands that only
# the command line runs, and options inside a line
REFUSED_LINES = [
    "eval",
    'def f "x = 1" => TRUE',
    'frob f "x = 1"',
    "eval --help",
    "theorem",
    "theorem a b",
    "search --alphabet 3",
    "convert 7",
    "prove verify_adder",
    "learn-adder",
    "dump x5",
    "run other.walnutish",
    "seq x5",
    'eval h "x = 1" --session elsewhere',
    'eval "1 = 1" --out f.txt',
    'eval --format dot "1 = 1"',
    "seq x5 --dump F.txt --session elsewhere",
    'eval "1 = 1" --expect TRUE',
]


@st.composite
def script_lines(draw):
    """One eval (perhaps with an expectation), def, reg or theorem line, or
    a line that no command parses."""
    kind = draw(st.sampled_from(["eval", "def", "reg", "theorem", "refused"]))
    if kind == "theorem":
        return "theorem drawn"
    if kind == "refused":
        return draw(st.sampled_from(REFUSED_LINES))
    if kind == "eval":
        expect = draw(st.sampled_from(["", " => TRUE", " => FALSE"]))
        return f'eval "{draw(strategies.predicate_texts())}"{expect}'
    name = draw(st.sampled_from(["f", "r"]))
    if kind == "def":
        return f'def {name} "{draw(strategies.predicate_texts())}"'
    return f'reg {name} "{draw(strategies.patterns())}"'


@given(st.lists(script_lines(), min_size=1, max_size=4))
@settings(max_examples=60)
def test_run_exits_by_the_documented_codes(lines):
    with tempfile.TemporaryDirectory() as tmp:
        script = Path(tmp) / "drawn.walnutish"
        script.write_text("\n".join(lines) + "\n")
        code, err = _main_quietly(["run", str(script)])
    _assert_documented_exit(code, err, True, lines)


@pytest.mark.parametrize("line", REFUSED_LINES)
def test_run_refuses_a_line_with_one_error_line(capsys, tmp_path, line):
    script = tmp_path / "refused.walnutish"
    script.write_text(f'eval first "1 = 1"\n{line}\neval never "1 = 1"\n')
    code, out, err = run_cli(capsys, "run", str(script))
    assert code == 2
    assert len(err.splitlines()) == 1 and err.startswith("error:")
    assert "first = TRUE" in out and "never" not in out
    assert "usage:" not in err


def _session_relations(directory):
    """name -> automaton text of each definition a session directory keeps."""
    return {path.stem: json.loads(path.read_text())["automaton"]
            for path in sorted(directory.glob("definitions/*.json"))}


@pytest.mark.parametrize(
    "line, argv",
    [('reg r "0*1"', ["reg", "r", "0*1"]),
     ('def f "1 = 1"', ["def", "f", "1 = 1"]),
     ('eval g "x = 1" => TRUE', ["eval", "g", "x = 1", "--expect", "TRUE"])],
    ids=["reg", "def", "eval"],
)
def test_a_line_means_the_same_in_every_front_end(capsys, tmp_path, line, argv):
    # a theorem section, run and the single command each bind the same
    # relation under the same name, or print the same error line
    report = theorems.TheoremReport("toy")
    try:
        theorems._run_section(logic.Environment(), list(theorems.script_commands(line)), report)
        section = {name: automata.to_text(dfa) for name, dfa in report.automata.items()}
    except ValueError as e:
        section = f"error: {e}\n"
    script = tmp_path / "one.walnutish"
    script.write_text(line + "\n")
    code, _, err = run_cli(capsys, "run", str(script), "--session", str(tmp_path / "run"))
    ran = err if code else _session_relations(tmp_path / "run")
    code, _, err = run_cli(capsys, *argv, "--session", str(tmp_path / "single"))
    single = err if code else _session_relations(tmp_path / "single")
    assert section == ran == single
    if argv[0] == "eval":
        assert section == "error: => expectations apply only to closed predicates\n"
    else:
        assert list(section) == [argv[1]]


def test_run_prints_a_theorem_line_as_a_heading(capsys, tmp_path):
    script = tmp_path / "sections.walnutish"
    script.write_text('theorem one\neval fine "1 = 1" => TRUE\n')
    code, out, err = run_cli(capsys, "run", str(script))
    assert (code, err) == (0, "")
    assert out.splitlines() == ["> theorem one", '> eval fine "1 = 1" => TRUE', "fine = TRUE"]


def test_an_echoed_line_reads_back_as_its_tokens():
    # every line of the bundled walkthrough, and words that need each kind
    # of quoting: the reader gets the same tokens back from the echo
    text = (resources.files("pelldecide") / "data" / "paper.walnutish").read_text()
    commands = list(theorems.script_commands(text))
    assert len(commands) == 44
    odd = [["eval", "x#y", "it's", "", "a\\b", "=>", "TRUE"], ['say', 'a "quoted" word']]
    for tokens in commands + odd:
        line = theorems.script_line(tokens)
        assert shlex.split(line) == tokens, line
        if not any('"' in t for t in tokens):
            assert list(theorems.script_commands(line)) == [tokens], line
    assert theorems.script_line(["eval", "fine", "1 = 1", "=>", "TRUE"]) == 'eval fine "1 = 1" => TRUE'


def _refuse_to_compile(*args, **kwargs):
    raise AssertionError("compiled a predicate under a name that cannot be bound")


BAD_NAMES = [("1x", "invalid name '1x'"),
             ("Ab", "name 'Ab' would collide with the quantifier letters A/E")]


@pytest.mark.parametrize("name, message", BAD_NAMES, ids=["1x", "Ab"])
@pytest.mark.parametrize("command", ["def", "eval"])
def test_a_bad_name_is_refused_before_its_predicate_compiles(
        capsys, tmp_path, monkeypatch, command, name, message):
    # a def's name and a closed eval's label alike, on the command line and
    # as a line of run; the periodicity predicate takes most of a second
    monkeypatch.setattr(logic, "compile", _refuse_to_compile)
    predicate = "1 = 1" if command == "eval" else "?msd_pell Aj (j + p < n) => X[i + j] = X[i + j + p]"
    code, out, err = run_cli(capsys, command, name, predicate)
    assert (code, out, err) == (2, "", f"error: {message}\n")
    script = tmp_path / "named.walnutish"
    script.write_text(f'{command} {name} "{predicate}"\n')
    code, out, err = run_cli(capsys, "run", str(script))
    assert (code, err) == (2, f"error: {message}\n")


def _refuse_to_determinize(*args, **kwargs):
    raise AssertionError("built an automaton under a name that is already bound")


@pytest.mark.parametrize("line", ['def f "x = 2"', 'eval f "y < 3"', 'reg f "0*1"'],
                         ids=["def", "eval", "reg"])
def test_a_bound_name_is_refused_before_anything_is_built(capsys, tmp_path, monkeypatch, line):
    # on the command line and as a line of run, both over a session that binds f
    sess = str(tmp_path)
    assert run_cli(capsys, "def", "f", "x = 1", "--session", sess)[0] == 0
    monkeypatch.setattr(logic, "compile", _refuse_to_compile)
    monkeypatch.setattr(automata, "_determinize", _refuse_to_determinize)
    message = "error: name 'f' is already defined\n"
    code, out, err = run_cli(capsys, *shlex.split(line), "--session", sess)
    assert (code, out, err) == (2, "", message)
    script = tmp_path / "again.walnutish"
    script.write_text(line + "\n")
    code, out, err = run_cli(capsys, "run", str(script), "--session", sess)
    assert (code, err) == (2, message)


def test_an_open_eval_with_an_expectation_is_refused_before_it_compiles(
        capsys, tmp_path, monkeypatch):
    monkeypatch.setattr(logic, "compile", _refuse_to_compile)
    message = "error: => expectations apply only to closed predicates\n"
    predicate = "?msd_pell Aj (j + p < n) => X[i + j] = X[i + j + p]"
    code, out, err = run_cli(capsys, "eval", predicate, "--expect", "TRUE")
    assert (code, out, err) == (2, "", message)
    script = tmp_path / "open.walnutish"
    script.write_text(f'eval "{predicate}" => TRUE\n')
    code, out, err = run_cli(capsys, "run", str(script))
    assert (code, err) == (2, message)


def test_a_closed_eval_labels_a_bound_name(capsys, tmp_path):
    # the label binds nothing, so it may repeat a bound name
    sess = str(tmp_path)
    assert run_cli(capsys, "def", "f", "x = 1", "--session", sess)[0] == 0
    code, out, err = run_cli(capsys, "eval", "f", "1 = 1", "--session", sess)
    assert (code, out, err) == (0, "f = TRUE\n", "")


NAMES = st.text("abcxyz_05", max_size=8)


@st.composite
def command_argvs(draw):
    """argv that the top-level parser accepts for prove, seq, dump, convert
    or search; a search stops by depth 8 over at most 4 letters."""
    kind = draw(st.sampled_from(["prove", "seq", "dump", "convert", "search"]))
    if kind == "prove":
        return ["prove", draw(st.one_of(st.just("verify_adder"), NAMES.filter(lambda s: s != "all")))]
    sequence = draw(st.one_of(st.sampled_from(["C", "X", "c_alpha", "x5", "x3"]), NAMES))
    if kind == "seq":
        bounds = draw(st.lists(st.sampled_from(["--from", "--to"]), unique=True))
        return ["seq", sequence, *(f"{flag}={draw(st.integers(-3, 40))}" for flag in bounds)]
    if kind == "dump":
        return ["dump", sequence, f"--format={draw(st.sampled_from(['txt', 'dot']))}"]
    if kind == "convert":
        decode = ["--decode"] if draw(st.booleans()) else []
        # after --, a value that starts with - is not read as an option
        return ["convert", *decode, "--", draw(st.text("0123456789- ab", max_size=12))]
    bound = draw(st.sampled_from(["3/2", "4/3", "2", "1", "0", "1/0", "-3/2", "7/5", "1.5", "x", ""]))
    return [
        "search",
        f"--alphabet={draw(st.integers(-1, 4))}",
        f"--limit-depth={draw(st.integers(-1, 8))}",
        f"--bound={bound}",
        draw(st.sampled_from(["--strict", "--no-strict"])),
    ]


@given(command_argvs())
@settings(max_examples=60, deadline=None)
def test_other_commands_exit_by_the_documented_codes(argv):
    code, lines = _main_quietly(argv)
    _assert_documented_exit(code, lines, argv[0] == "prove", argv)


def test_eval_named_relation_persists(capsys, tmp_path):
    sess = str(tmp_path)
    code, out, _ = run_cli(
        capsys, "eval", "dbl", "y = 2*x", "--session", sess, "--out", "dbl.txt"
    )
    assert code == 0
    assert re.match(r"dbl: automaton over \(x, y\), \d+ states\n", out)
    reloaded = automata.from_text((tmp_path / "dbl.txt").read_text())
    assert reloaded.alphabet.n_tracks == 2
    # a fresh invocation reloads the definition from the session directory
    code, out, _ = run_cli(capsys, "eval", "Ax Ey $dbl(x, y)", "--session", sess)
    assert (code, out) == (0, "TRUE\n")


# --- def / reg / dump --------------------------------------------------------------


def test_def_then_dump(capsys, tmp_path):
    sess = str(tmp_path)
    code, out, _ = run_cli(capsys, "def", "trip", "z = 3*x", "--session", sess)
    assert code == 0 and out.startswith("trip: automaton over (x, z), ")
    code, out, _ = run_cli(capsys, "dump", "trip", "--session", sess)
    assert code == 0
    assert automata.from_text(out).alphabet.n_tracks == 2
    code, out, _ = run_cli(capsys, "dump", "trip", "--format", "dot", "--session", sess)
    assert code == 0 and out.startswith("digraph")


def test_dump_builtin_sequence(capsys):
    code, out, _ = run_cli(capsys, "dump", "x5")
    assert code == 0
    m = automata.from_text(out)
    assert automata.dfao_eval(m, 25) == 3


def test_dump_unknown_name(capsys):
    code, _, err = run_cli(capsys, "dump", "nonesuch")
    assert code == 2 and "no definition or sequence named 'nonesuch'" in err


def test_reg_forms(capsys, tmp_path):
    sess = str(tmp_path)
    code, out, _ = run_cli(capsys, "reg", "pows", "msd_pell", "0*110000*", "--session", sess)
    assert code == 0 and out.startswith("pows: automaton over (")
    code, out, _ = run_cli(capsys, "eval", "Ep $pows(p) & (p = 41)", "--session", sess)
    assert (code, out) == (0, "TRUE\n")
    # numeration argument is optional but checked
    assert run_cli(capsys, "reg", "ones", "1*")[0] == 0
    code, _, err = run_cli(capsys, "reg", "bad", "msd_fib", "0*")
    assert code == 2 and "msd_fib" in err
    code, _, err = run_cli(capsys, "reg", "bad", "a", "b", "c")
    assert code == 2
    code, _, err = run_cli(capsys, "reg", "bad", "(01")
    assert code == 2 and err.startswith("error:")


def test_reg_of_a_deeply_nested_pattern_exits_2(capsys):
    code, out, err = run_cli(capsys, "reg", "r", "(" * 3000 + "1" + ")" * 3000)
    assert (code, out) == (2, "")
    assert re.fullmatch(r"error: the pattern nests too deeply at line 1, column \d+\n", err)


# --- seq ---------------------------------------------------------------------------


def test_seq_prints_windows(capsys):
    want = "".join(str(s) for s in sequences.x5_prefix(29))
    assert run_cli(capsys, "seq", "x5", "--from", "0", "--to", "28") == (0, want + "\n", "")
    # the default window is the same 29 symbols
    assert run_cli(capsys, "seq", "x5")[1] == want + "\n"
    code, out, _ = run_cli(capsys, "seq", "c_alpha", "--from", "1", "--to", "20")
    assert code == 0
    assert out.strip() == "".join(str(s) for s in R.ref_sturmian_prefix(20))


def test_seq_unknown_name(capsys):
    code, _, err = run_cli(capsys, "seq", "mystery")
    assert code == 2 and "mystery" in err


def test_seq_dump_under_an_invalid_name_writes_nothing(capsys, tmp_path):
    code, out, err = run_cli(
        capsys, "seq", "x5", "--dump", "bad-name.txt", "--session", str(tmp_path)
    )
    assert (code, out) == (2, "")
    assert err == "error: invalid name 'bad-name'\n"
    assert not (tmp_path / "bad-name.txt").exists()


def test_seq_dump_registers_sequence(capsys, tmp_path):
    sess = str(tmp_path)
    code, out, _ = run_cli(capsys, "seq", "x3", "--dump", "W.txt", "--session", sess)
    assert code == 0 and out.startswith("wrote ")
    assert (tmp_path / "W.txt").exists()
    # the dumped name is usable as a sequence in later invocations
    want = "".join(str(s) for s in sequences.x3_prefix(10))
    code, out, _ = run_cli(capsys, "seq", "W", "--from", "0", "--to", "9", "--session", sess)
    assert (code, out) == (0, want + "\n")


# --- search ---------------------------------------------------------------------------


def test_search_cli(capsys):
    code, out, _ = run_cli(capsys, "search", "--alphabet", "2", "--bound", "3")
    assert code == 0
    lines = out.splitlines()
    assert lines[0] == "max length 16 with 2 words:"
    assert lines[1:] == ["  0010100101001001", "  0110110101101011"]
    code, out, _ = run_cli(capsys, "search", "--alphabet", "2", "--bound", "3", "--no-strict")
    assert code == 0 and out.splitlines()[0] == "max length 28 with 2 words:"


@pytest.mark.parametrize(
    "flags, strict", [((), True), (("--strict",), True), (("--no-strict",), False)],
    ids=["default", "strict", "no-strict"],
)
def test_search_strict_flags(flags, strict):
    assert cli._build_parser().parse_args(["search", *flags]).strict is strict


@pytest.mark.parametrize(
    "argv", [["prove", "verify_adder"], ["search", "--alphabet", "2"]], ids=["prove", "search"]
)
def test_prove_and_search_take_no_session(capsys, tmp_path, argv):
    # neither reads a session, so neither loads or checks one
    with pytest.raises(SystemExit) as exit_info:
        cli.main([*argv, "--session", str(tmp_path)])
    assert exit_info.value.code == 2
    assert "--session" in capsys.readouterr().err


def test_search_zero_denominator_bound_exits_2(capsys):
    code, out, err = run_cli(capsys, "search", "--alphabet", "3", "--bound", "3/0")
    assert code == 2 and out == ""
    assert err.splitlines() == ["error: bound has a zero denominator"]


@pytest.mark.parametrize(
    "bound, depth", [("1e400", 1), ("4611686018427387905/4611686018427387904", 2)],
    ids=["1e400", "2^62"]
)
def test_search_bound_terms_past_int64_exit_2(capsys, bound, depth):
    code, out, err = run_cli(
        capsys, "search", "--alphabet", "3", "--bound", bound, "--limit-depth", "8"
    )
    assert code == 2 and out == ""
    assert err.splitlines() == [
        f"error: the bound's terms are too large to search past depth {depth}"]


@pytest.mark.parametrize("depth", ["0", "-3"])
def test_search_limit_depth_below_one_exits_2(capsys, depth):
    code, out, err = run_cli(capsys, "search", "--alphabet", "3", "--limit-depth", depth)
    assert code == 2 and out == ""
    assert err.splitlines() == ["error: limit_depth must be at least 1"]


# --- prove -------------------------------------------------------------------------------


def test_verify_adder_cli(capsys):
    code, out, _ = run_cli(capsys, "prove", "verify_adder")
    assert code == 0
    assert re.match(r"verify_adder: PASS \(\d+\.\ds\)", out)
    assert "ok base_proof" in out.replace("  ", " ")


def test_prove_a_later_section_alone(capsys):
    # corollary_cex5 calls $fac, which the section before it binds
    code, out, _ = run_cli(capsys, "prove", "corollary_cex5")
    assert code == 0
    lines = out.splitlines()
    assert re.match(r"corollary_cex5: PASS \(\d+\.\ds\)", lines[0])
    assert all(line.startswith("  ok ") for line in lines[1:])
    assert [line.split(":")[0].split()[-1] for line in lines[1:]] == [
        "cex5_period_4", "cex5_at_23_period_4", "cex5_at_23_period_5", "factor_at_23"
    ]


def test_prove_unknown_theorem(capsys):
    code, _, err = run_cli(capsys, "prove", "flat_earth")
    assert code == 2 and "known:" in err


def test_prove_emits_automata(capsys, tmp_path):
    out_dir = tmp_path / "emitted"
    code, out, _ = run_cli(
        capsys, "prove", "verify_adder", "--emit-automata", str(out_dir)
    )
    assert code == 0 and "PASS" in out
    files = sorted(out_dir.glob("verify_adder.*.txt"))
    assert files
    for f in files:
        automata.from_text(f.read_text())


# --- learn-adder ----------------------------------------------------------------------


def test_learn_adder_cli_converges(capsys):
    code, out, _ = run_cli(capsys, "learn-adder", "--max-len", "5")
    assert code == 0
    assert "learned adder: 17 states (16 live) over 27 symbols" in out
    assert "agrees with the direct construction: True" in out


def test_learn_adder_cli_reports_nonconvergence(capsys):
    # with too small an equivalence budget the learner stops early and says so
    code, out, _ = run_cli(capsys, "learn-adder", "--max-len", "3")
    assert code == 1
    assert "agrees with the direct construction: False" in out


def test_learn_adder_cli_rejects_negative_max_len(capsys):
    code, out, err = run_cli(capsys, "learn-adder", "--max-len", "-1")
    assert code == 2
    assert err.startswith("error:") and len(err.splitlines()) == 1
    assert "learned adder" not in out


def test_learn_adder_cli_refuses_sweeps_past_length_6(capsys):
    code, out, err = run_cli(capsys, "learn-adder", "--max-len", "7")
    assert code == 2
    assert err.startswith("error:") and len(err.splitlines()) == 1
    assert "learned adder" not in out


# --- run -------------------------------------------------------------------------------


def test_run_script(capsys, tmp_path):
    script = tmp_path / "demo.ws"
    script.write_text(
        '# a short demonstration\n'
        'def dbl "y = 2*x"\n'
        'eval doubles_exist "Ax Ey\n'
        '    $dbl(x, y)" => TRUE\n'
        'eval closing "1 + 1 = 2" => TRUE\n'
    )
    code, out, _ = run_cli(capsys, "run", str(script), "--session", str(tmp_path))
    assert code == 0
    assert "doubles_exist = TRUE" in out
    assert sum(line.startswith("> ") for line in out.splitlines()) == 3


def test_run_has_no_emit_automata_option(capsys, tmp_path):
    # only prove writes automata; run once took the option and ignored it
    script = tmp_path / "demo.ws"
    script.write_text('eval closing "1 + 1 = 2" => TRUE\n')
    with pytest.raises(SystemExit) as exit_info:
        cli.main(["run", str(script), "--emit-automata", str(tmp_path / "out")])
    assert exit_info.value.code == 2
    assert "--emit-automata" in capsys.readouterr().err
    assert not (tmp_path / "out").exists()


COMMENTED = [
    'eval p "?msd_pell 1 = 1\n  & 1 = 1" => TRUE  # note\n',
    'eval p "?msd_pell 1 = 1\n  & 1 = 1" => TRUE  # one " mark\n',
]


@pytest.mark.parametrize("text", COMMENTED, ids=["plain", "quote"])
def test_a_comment_may_follow_a_multi_line_predicate(capsys, tmp_path, text):
    assert list(theorems.script_commands(text)) == [
        ["eval", "p", "?msd_pell 1 = 1 & 1 = 1", "=>", "TRUE"]]
    script = tmp_path / "commented.walnutish"
    script.write_text(text + 'eval q "2 = 2" => TRUE  # and "one" more\n')
    code, out, err = run_cli(capsys, "run", str(script))
    assert (code, err) == (0, "")
    assert out.splitlines()[1::2] == ["p = TRUE", "q = TRUE"]


def test_run_script_expectation_failure_continues(capsys, tmp_path):
    script = tmp_path / "bad.ws"
    script.write_text('eval wrong "1 = 2" => TRUE\neval fine "1 = 1" => TRUE\n')
    code, out, err = run_cli(capsys, "run", str(script))
    assert code == 1
    assert "expected TRUE, got FALSE" in err
    assert "fine = TRUE" in out


def test_run_script_syntax_error_stops(capsys, tmp_path):
    script = tmp_path / "broken.ws"
    script.write_text('eval oops "x + = 1"\neval never "1 = 1"\n')
    code, out, err = run_cli(capsys, "run", str(script))
    assert code == 2
    assert err.startswith("error:")
    assert "never" not in out


def test_run_missing_script(capsys, tmp_path):
    code, out, err = run_cli(capsys, "run", str(tmp_path / "missing.ws"))
    assert code == 2 and out == ""
    assert err.startswith("error:") and "missing.ws" in err
    assert len(err.splitlines()) == 1


def test_corrupt_session_definition(capsys, tmp_path):
    run_cli(capsys, "def", "dbl", "y = 2*x", "--session", str(tmp_path))
    bad = tmp_path / "definitions" / "bad.json"
    bad.write_text('{"params": ["x"], "automaton": "state 0 accepting\\n"}')
    code, out, err = run_cli(capsys, "eval", "1 = 1", "--session", str(tmp_path))
    assert code == 2 and out == ""
    assert err.startswith("error:") and "bad.json" in err and "msd_pell" in err
    assert len(err.splitlines()) == 1
    bad.write_text('{"params": ["x"]}')
    code, _, err = run_cli(capsys, "eval", "1 = 1", "--session", str(tmp_path))
    assert code == 2 and err.startswith("error:") and "bad.json" in err
    bad.unlink()
    # a number that is missing or past int32 in a sequence file
    (tmp_path / "sequences").mkdir()
    seq = tmp_path / "sequences" / "S.txt"
    for label, (head, target) in {
        "no output": ("state 0 output", "0"),
        "output past int32": ("state 0 output 2147483648", "0"),
        "target past int32": ("state 0 output 0", "2147483648"),
    }.items():
        seq.write_text(f"msd_pell\n{head}\n[0] -> {target}\n[1] -> 0\n[2] -> 0\n")
        code, out, err = run_cli(capsys, "eval", "1 = 1", "--session", str(tmp_path))
        assert code == 2 and out == "", label
        assert err.startswith("error:") and "S.txt" in err and "in line" in err, label
        assert len(err.splitlines()) == 1, label


def test_a_session_file_is_checked_before_its_table_is_built(capsys, tmp_path):
    # 100,000 states and one 11-track symbol claim a table of 100,000 x 3^11
    # entries (66 GiB); the reader refuses the file from its lines alone
    (tmp_path / "sequences").mkdir()
    heads = [f"state {q} output 0" for q in range(100_000)]
    lines = ["msd_pell", heads[0], "[" + ",".join("0" * 11) + "] -> 0", *heads[1:]]
    (tmp_path / "sequences" / "S.txt").write_text("\n".join(lines) + "\n")
    code, out, err = run_cli(capsys, "eval", "1 = 1", "--session", str(tmp_path))
    assert code == 2 and out == ""
    assert err.startswith("error:") and "S.txt" in err and "state 0" in err
    assert len(err.splitlines()) == 1


def session_files(directory):
    return {p.relative_to(directory): p.is_file() and p.read_bytes()
            for p in directory.rglob("*")}


def test_a_failed_write_leaves_the_session_as_it_was(capsys, tmp_path):
    session = tmp_path / "s"
    assert run_cli(capsys, "def", "d", "x = 1", "--session", str(session))[0] == 0
    before = session_files(session)
    lines = {  # a line whose own file cannot be written, and the same line with a good path
        "seq": (["seq", "x3", "--dump", "nodir/y.txt"], ["seq", "x3", "--dump", "y.txt"]),
        "eval": (["eval", "e", "?msd_pell x < y", "--out", str(tmp_path / "nodir" / "e.txt")],
                 ["eval", "e", "?msd_pell x < y", "--out", str(tmp_path / "e.txt")]),
    }
    for label, (bad, good) in lines.items():
        code, out, err = run_cli(capsys, *bad, "--session", str(session))
        assert code == 2 and out == "", label
        given = str(session / bad[-1]) if label == "seq" else bad[-1]
        assert err.startswith("error:") and repr(given) in err and ".tmp" not in err, label
        assert len(err.splitlines()) == 1, label
        assert session_files(session) == before, label
    for label, (bad, good) in lines.items():
        assert run_cli(capsys, *good, "--session", str(session))[0] == 0, label
    assert (session / "sequences" / "y.txt").is_file() and (session / "y.txt").is_file()
    assert (session / "definitions" / "e.json").is_file() and (tmp_path / "e.txt").is_file()


def test_a_new_session_directory_takes_the_first_files(capsys, tmp_path):
    # a line's own file is written before the session keeps its binding, so
    # the session directory is made for it
    for argv, written in [
        (["seq", "x3", "--dump", "y.txt"], ["y.txt", "sequences/y.txt"]),
        (["eval", "e", "?msd_pell x < y", "--out", "e.txt"], ["e.txt", "definitions/e.json"]),
        (["dump", "x5", "--out", "x5.txt"], ["x5.txt"]),
    ]:
        session = tmp_path / argv[0]
        assert run_cli(capsys, *argv, "--session", str(session))[0] == 0, argv
        assert all((session / name).is_file() for name in written), argv


def test_tampered_session_definition(capsys, tmp_path):
    run_cli(capsys, "def", "dbl", "y = 2*x", "--session", str(tmp_path))
    path = tmp_path / "definitions" / "dbl.json"
    good = automata.from_text(json.loads(path.read_text())["automaton"])
    delta = np.full((3, 3), 2, dtype=np.int32)
    delta[0, 1] = 1
    only_unpadded_one = Dfa(TrackAlphabet(1), delta, np.array([False, True, False]), 0)
    tampered = {
        "junk tracks": (automata.complement(good), ["x", "y"], "canonical representation"),
        "padding": (only_unpadded_one, ["w"], "leading zeros"),
        "arity": (good, ["x"], "1-track automaton"),
    }
    for label, (dfa, params, message) in tampered.items():
        path.write_text(json.dumps({"params": params, "automaton": automata.to_text(dfa)}))
        code, out, err = run_cli(capsys, "eval", "1 = 1", "--session", str(tmp_path))
        assert code == 2 and out == "", label
        assert err.startswith("error:") and "dbl.json" in err and message in err, label
        assert len(err.splitlines()) == 1, label


def test_tampered_session_sequence(capsys, tmp_path):
    run_cli(capsys, "seq", "c_alpha", "--dump", "C.txt", "--session", str(tmp_path))
    path = tmp_path / "sequences" / "C.txt"
    good = automata.load_text(path)
    # a leading zero now leads to a state with another output
    other = next(q for q in range(good.n_states) if good.outputs[q] != good.outputs[good.initial])
    delta = good.delta.copy()
    delta[good.initial, 0] = other
    tampered = {
        "padding": (Dfao(good.alphabet, delta, good.outputs, good.initial), "leading zeros"),
        "no outputs": (pell.canonical_recognizer(), "with outputs"),
    }
    for label, (m, message) in tampered.items():
        path.write_text(automata.to_text(m))
        code, out, err = run_cli(capsys, "eval", "C[1] = @0", "--session", str(tmp_path))
        assert code == 2 and out == "", label
        assert err.startswith("error:") and "C.txt" in err and message in err, label
        assert len(err.splitlines()) == 1, label
    path.write_text(automata.to_text(good))
    assert run_cli(capsys, "eval", "C[1] = @0", "--session", str(tmp_path))[:2] == (0, "TRUE\n")


def test_subset_budget_exits_2(capsys, monkeypatch):
    monkeypatch.setattr(automata, "MAX_SUBSETS", 2)
    code, out, err = run_cli(capsys, "eval", "Ex Ez x + z = y")
    assert code == 2 and out == ""
    assert err.startswith("error:") and "2 subsets" in err
    assert len(err.splitlines()) == 1


def test_track_budget_exits_2(capsys):
    # 40 free variables are 3^40 symbols; the compiler refuses the formula
    # before it builds any table, where numpy once ran out of memory
    formula = " & ".join(f"x{k} = {k}" for k in range(40))
    cli.main(["eval", "x0 = 0"])  # the adder and the comparisons, built outside the trace
    capsys.readouterr()
    tracemalloc.start()
    try:
        code, out, err = run_cli(capsys, "eval", formula)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert code == 2 and out == ""
    assert err.startswith("error:") and "40 tracks" in err
    assert len(err.splitlines()) == 1
    assert peak < 1 << 20
    with pytest.raises(automata.TrackBudgetError):
        automata.cylindrify(pell.valid_tracks(1), [0], automata.MAX_TRACKS + 1)


def test_pair_budget_exits_2(capsys, monkeypatch):
    # a product counts its reachable pairs level by level and stops before
    # its tables pass the budget; a 10-variable sum once reached 4.4 GB
    cli.main(["eval", "x0 = 0"])  # the adder and the comparisons, built outside the trace
    capsys.readouterr()
    monkeypatch.setattr(automata, "MAX_PAIRS", 1 << 12)
    tracemalloc.start()
    try:
        code, out, err = run_cli(capsys, "eval", "x + y = z & y + z = w")
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert code == 2 and out == ""
    assert err.startswith("error:") and f"{1 << 12} (pair, symbol) entries" in err
    assert len(err.splitlines()) == 1
    assert peak < 1 << 20
    assert issubclass(automata.PairBudgetError, ValueError)


def test_cylindrify_budget_exits_2(capsys, monkeypatch):
    # a 10-variable sum once cylindrified an 803-state table over 3^11
    # symbols (569 MB) before a product refused it, at a 1.7 GB peak
    cli.main(["eval", "x0 = 0"])  # the adder and the comparisons, built outside the trace
    capsys.readouterr()
    terms = " + ".join(f"x{i}" for i in range(10))
    tracemalloc.start()
    try:
        code, out, err = run_cli(capsys, "eval", f"?msd_pell {terms} = 5")
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert code == 2 and out == ""
    assert err.startswith("error: cylindrify passed") and "177147 symbols" in err
    assert len(err.splitlines()) == 1
    assert peak < 16 * automata.MAX_PAIRS  # two int64 tables at the budget
    # the check counts states times symbols of the new table, inclusive
    rec = pell.canonical_recognizer()
    monkeypatch.setattr(automata, "MAX_PAIRS", rec.n_states * 27)
    assert automata.cylindrify(rec, [1], 3).n_states == rec.n_states
    monkeypatch.setattr(automata, "MAX_PAIRS", rec.n_states * 27 - 1)
    with pytest.raises(automata.PairBudgetError, match=f"{rec.n_states} states of 27 symbols"):
        automata.cylindrify(rec, [1], 3)


def test_a_budget_error_names_its_innermost_quantifier(capsys, monkeypatch):
    # the quantifier as written, not the E%j0 and the moved Aj that the
    # position rewrite makes of it, and not the Ep,n around it
    tail = "Aj (j + p < n) => X[i + j] = X[i + j + p]"
    cli.main(["eval", f"?msd_pell {tail}"])  # X and the atoms, built within the budget
    capsys.readouterr()
    monkeypatch.setattr(automata, "MAX_PAIRS", 10_000)
    code, out, err = run_cli(capsys, "eval", f"?msd_pell Ep,n {tail}")
    assert code == 2 and out == ""
    assert err.startswith("error: product passed 10000 (pair, symbol) entries")
    assert err.endswith("; the formula is too large (in Aj over i, n, p)\n")
    assert len(err.splitlines()) == 1
    monkeypatch.setattr(automata, "MAX_PAIRS", 1 << 24)
    monkeypatch.setattr(automata, "MAX_SUBSETS", 100)
    code, out, err = run_cli(capsys, "eval", f"?msd_pell Ai,n,p {tail}")
    assert code == 2 and len(err.splitlines()) == 1
    assert err == ("error: subset construction passed 100 subsets; the formula is too large"
                   " (in Aj over i, n, p)\n")
    monkeypatch.setattr(automata, "MAX_PAIRS", 100)
    with pytest.raises(automata.PairBudgetError, match=r"large \(in Ex,y over no free variables\)$"):
        logic.compile("?msd_pell Ex,y x + 2*y = 7")


class HalfWriter:
    """A new file that takes the first half of a text, then fails."""

    def __init__(self, path, mode="r", **kw):
        self.fh = open(path, mode, **kw)

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        self.fh.close()

    def write(self, text):
        self.fh.write(text[: len(text) // 2])
        raise OSError("disk full")


def test_failed_writes_keep_the_previous_file(capsys, tmp_path, monkeypatch):
    session = cli.Session(str(tmp_path))
    session.save("definitions/d.json", automata.to_text(pell.canonical_recognizer()))
    session.save("sequences/s.txt", automata.to_text(sequences.c_alpha_dfao()))
    out = tmp_path / "x3.txt"
    assert run_cli(capsys, "dump", "x3", "--out", str(out))[0] == 0
    files = sorted(p for p in tmp_path.rglob("*") if p.is_file())
    before = [p.read_bytes() for p in files]

    monkeypatch.setattr(automata, "open", HalfWriter, raising=False)
    with pytest.raises(OSError, match="disk full"):
        session.save("definitions/d.json", automata.to_text(sequences.x5_dfao()))
    with pytest.raises(OSError, match="disk full"):
        session.save("sequences/s.txt", automata.to_text(sequences.x5_dfao()))
    code, _, err = run_cli(capsys, "dump", "x5", "--out", str(out))
    assert code == 2 and "disk full" in err
    monkeypatch.undo()

    def broken_to_text(a):
        raise RuntimeError("no text")

    monkeypatch.setattr(automata, "to_text", broken_to_text)
    with pytest.raises(RuntimeError):
        automata.save_text(sequences.x5_dfao(), out)
    monkeypatch.undo()

    assert sorted(p for p in tmp_path.rglob("*") if p.is_file()) == files
    assert [p.read_bytes() for p in files] == before


def test_run_bundled_walkthrough(capsys, tmp_path, theorem_reports):
    script = resources.files("pelldecide") / "data" / "paper.walnutish"
    code, out, err = run_cli(capsys, "run", str(script), "--session", str(tmp_path))
    assert code == 0, err
    assert "inductive_proof = TRUE" in out
    assert "uniqueness_proof = TRUE" in out
    assert "fac_high_exponent = FALSE" in out
    assert "fac_high_exponent_2 = FALSE" in out
    assert "php_matches_pows = TRUE" in out
    assert "highest_power_577 = TRUE" in out
    # the two front ends agree: each verdict run prints for a closed eval
    # with a trailer is the check of the same name in the theorems' reports,
    # and run passes the section headings in the same order
    printed = dict(re.findall(r"^(\w+) = (TRUE|FALSE)$", out, flags=re.M))
    checks = {c.name: c.obtained for r in theorem_reports.values() for c in r.checks}
    assert len(checks) == 26
    assert printed == {name: "TRUE" if verdict else "FALSE" for name, verdict in checks.items()}
    assert re.findall(r"^> theorem (\w+)$", out, flags=re.M) == list(theorem_reports)
    # each line is echoed as the reader reads it back
    echoed = [line[2:] for line in out.splitlines() if line.startswith("> ")]
    assert echoed == [theorems.script_line(t) for t in theorems.script_commands(script.read_text())]


# --- the README's examples ----------------------------------------------------------------


def readme_commands():
    """(argv, shown lines, comment) for each ``pelldecide`` line of the two
    text blocks of README's "The command line", in order: the lines under a
    command, up to the next one, are its output."""
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    section = readme.split("\n## The command line\n")[1].split("\n## ")[0]
    blocks = re.findall(r"^```text\n(.*?)^```", section, flags=re.M | re.S)
    assert len(blocks) == 2
    commands = []
    for line in "".join(blocks).splitlines():
        if line.startswith("pelldecide "):
            command, _, comment = line.partition(" #")
            commands.append((shlex.split(command)[1:], [], comment.strip()))
        else:
            commands[-1][1].append(line)
    return commands


def readme_block(section: str, language: str) -> str:
    """The one ``language`` block of README's section ``section``."""
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    text = readme.split(f"\n## {section}\n")[1].split("\n## ")[0]
    blocks = re.findall(rf"^```{language}\n(.*?)^```", text, flags=re.M | re.S)
    assert len(blocks) == 1
    return blocks[0]


def test_the_readme_examples_print_what_they_show(capsys, tmp_path, monkeypatch):
    # in a fresh directory and in order, since the session lines build on
    # each other; a comment TRUE or FALSE is the output, and "exits N" the code
    monkeypatch.chdir(tmp_path)
    commands = readme_commands()
    assert len(commands) == 9
    for argv, shown, comment in commands:
        code, out, err = run_cli(capsys, *argv)
        exits = re.search(r"exits (\d)", comment)
        assert code == (int(exits[1]) if exits else 0), argv
        assert (err == "") == (code == 0), argv
        verdict = re.match(r"(?:prints )?(TRUE|FALSE)\b", comment)
        if verdict:
            assert out == f"{verdict[1]}\n", argv
        if shown:
            assert out.splitlines() == shown, argv

    # the convert block: each "$ pelldecide" line prints the lines under it
    shell = readme_block("Pell numeration in one paragraph", "text")
    runs = [line.split("\n") for line in shell.split("$ pelldecide ")[1:]]
    assert len(runs) == 2
    for command, *shown in runs:
        assert run_cli(capsys, *shlex.split(command)) == (0, "".join(f"{s}\n" for s in shown if s), "")

    # the library block, line by line: a comment that reads as a Python
    # value (up to a ";" or a closing aside in parentheses) is the line's value
    namespace = {}
    checked = 0
    for line in readme_block("The library", "python").splitlines():
        code, _, comment = line.partition(" #")
        statement = ast.parse(code).body
        if not statement:
            continue
        if not isinstance(statement[0], ast.Expr):
            exec(code, namespace)
            continue
        value = eval(code, namespace)
        shown = re.sub(r" \(.*\)$", "", comment.strip().split(";")[0])
        if shown == "(44, [five words])":
            assert (value[0], len(value[1])) == (44, 5)
        else:
            try:
                shown = eval(shown, namespace)
            except SyntaxError:
                continue
            assert value == shown, code
        checked += 1
    assert checked == 8


# --- process-level wiring -----------------------------------------------------------------


def test_search_does_not_import_the_compiler():
    # a command imports only what it runs: search needs no logic, learner or
    # theorems, and importing logic alone costs about 0.05 s
    probe = (
        "import sys\n"
        "from pelldecide import cli\n"
        "code = cli.main(['search', '--alphabet', '5'])\n"
        "loaded = [m for m in ('logic', 'learner', 'theorems') if f'pelldecide.{m}' in sys.modules]\n"
        "print(code, loaded)\n"
    )
    proc = subprocess.run([sys.executable, "-c", probe], capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.splitlines()[0] == "max length 44 with 5 words:"
    assert proc.stdout.splitlines()[-1] == "0 []"


def test_console_script_entry_point():
    # Run the `pelldecide` script that pyproject.toml declares the way pip's
    # generated launcher does, so no installed package is needed.
    tomllib = pytest.importorskip("tomllib")
    pyproject = Path(__file__).resolve().parents[1] / "pyproject.toml"
    scripts = tomllib.loads(pyproject.read_text())["project"]["scripts"]
    assert "pelldecide" in scripts, "pyproject.toml declares no pelldecide script"
    module, _, attr = scripts["pelldecide"].partition(":")
    launcher = (
        "import sys\n"
        "sys.argv[0] = 'pelldecide'\n"
        f"from {module} import {attr}\n"
        f"sys.exit({attr}())\n"
    )
    proc = subprocess.run(
        [sys.executable, "-c", launcher, "convert", "157"],
        capture_output=True,
        text=True,
    )
    assert proc.returncode == 0 and proc.stdout == "201100\n"


@pytest.mark.skipif(
    shutil.which("pelldecide") is None,
    reason="pelldecide console script not on PATH (package not installed)",
)
def test_installed_console_script():
    exe = shutil.which("pelldecide")
    assert exe, "console script not installed"
    proc = subprocess.run([exe, "convert", "157"], capture_output=True, text=True)
    assert proc.returncode == 0 and proc.stdout == "201100\n"
