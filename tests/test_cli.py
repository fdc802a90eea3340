"""End-to-end exercises of the command-line front end."""

import re
import shutil
import subprocess
import sys
from importlib import resources
from pathlib import Path

import pytest

import references as R
from pelldecide import automata, cli, sequences


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
    code, out, err = run_cli(capsys, "convert", "9", "--decode")
    assert code == 2 and out == "" and err.startswith("error:")


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


def test_eval_syntax_error_exits_2(capsys):
    code, _, err = run_cli(capsys, "eval", "x + = 1")
    assert code == 2
    assert err.startswith("error:") and "column" in err


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
    assert code == 2 and "nonesuch" in err


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


# --- prove / verify-adder ----------------------------------------------------------------


def test_verify_adder_cli(capsys):
    code, out, _ = run_cli(capsys, "verify-adder")
    assert code == 0
    assert re.match(r"verify_adder: PASS \(\d+\.\ds\)", out)
    assert "ok base_proof" in out.replace("  ", " ")


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
    code, out, _ = run_cli(capsys, "learn-adder", "--max-len", "5", "--seed", "0")
    assert code == 0
    assert "learned adder: 17 states (16 live) over 27 symbols" in out
    assert "agrees with the direct construction: True" in out


def test_learn_adder_cli_reports_nonconvergence(capsys):
    # with too small an equivalence budget the learner stops early and says so
    code, out, _ = run_cli(capsys, "learn-adder", "--max-len", "3", "--seed", "1")
    assert code == 1
    assert "agrees with the direct construction: False" in out


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
    assert out.count("> ") == 3


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


def test_subset_budget_exits_2(capsys, monkeypatch):
    monkeypatch.setattr(automata, "MAX_SUBSETS", 2)
    code, out, err = run_cli(capsys, "eval", "Ex Ez x + z = y")
    assert code == 2 and out == ""
    assert err.startswith("error:") and "2 subsets" in err
    assert len(err.splitlines()) == 1


def test_run_bundled_walkthrough(capsys, tmp_path):
    script = resources.files("pelldecide") / "data" / "paper.walnutish"
    code, out, err = run_cli(capsys, "run", str(script), "--session", str(tmp_path))
    assert code == 0, err
    assert "inductive_proof = TRUE" in out
    assert "fac_high_exponent = FALSE" in out
    assert "php_matches_pows = TRUE" in out
    assert "highest_power_577 = TRUE" in out


# --- process-level wiring -----------------------------------------------------------------


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
