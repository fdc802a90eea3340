"""The six scripted proofs, their reports, and their sensitivity to mutants."""

import hashlib
import subprocess
import sys
from fractions import Fraction
from importlib import resources

import numpy as np
import pytest

import references as R
from pelldecide import automata, learner, logic, pell, sequences, theorems


def by_name(report, fragment):
    hits = [c for c in report.checks if fragment in c.name]
    assert hits, f"no check matching {fragment!r} in {report.theorem}"
    return hits[0]


def test_all_theorems_pass(theorem_reports):
    assert set(theorem_reports) == {
        "verify_adder",
        "verify_x5",
        "prove_e_x5",
        "corollary_cex5",
        "almost_powers",
        "x3_analysis",
    }
    for name, report in theorem_reports.items():
        assert report.passed, report.summary()
        assert report.duration > 0
        assert "PASS" in report.summary()


def sha256(text):
    return hashlib.sha256(text.encode()).hexdigest()


# sha256 of each report's (name, expected, obtained) list and of each report
# automaton's to_text, taken while every x5 sentence spelled out the factor
# tail inline and theorems.py held its own copy of every sentence: calling
# the tail as $fac and reading the sentences from the script must not change
# a byte.  verify_adder's checks digest was retaken when it gained
# uniqueness_proof.
PINNED = {
    "verify_adder": (
        "cdce8abc77c6a49329d2f3cb05545cbdeb2b3ec35c66fa9a06cf41684317721d",
        {
            "pell_successor": "02ea3f228d50634d94cce61262806f3dbcb8738226ba39e7f20f0c7534758d0d",
            "adder": "cf07748bf10449a7df07129187350daba68d4689acee1e3e81b933f1b8c89ec6",
        },
    ),
    "prove_e_x5": (
        "2b4051afbd0689f7315e17778fcf2fde0234ad2e878cfa84410afa65a9582dda",
        {},
    ),
    "corollary_cex5": (
        "010020f095a07a3707b4fc095665a57812d54ece4211148ecdf94d486c764e3d",
        {"fac_cex5": "13c7358d67deddbd86e47adeb92cca1bbb49fd7bcd772ade811d739bf2d849bf"},
    ),
    "almost_powers": (
        "1dc1f74df8db787768e79f597804c99ade4d7bc26c88ad651016c408732bd5f6",
        {"almost_ce_period": "0ccbb761a921537b6ad3d8dc0cd40c082366d8cb89b8a5e9598a330eb42b1953"},
    ),
    "x3_analysis": (
        "e828a399a06c93d24bd5caf8e580dcb069802048887b187ca6f03b2966dccae1",
        {
            "periods_of_high_powers":
                "dd6e991d516a18048221295d783acf08f038b96abdb4f2ed048ffaaa53b653d7",
            "pows": "dd6e991d516a18048221295d783acf08f038b96abdb4f2ed048ffaaa53b653d7",
            "maximal_reps": "9c67d2c2ecf181934d2f47771e90f6c76a520bb93135afa88a473579b978a0a5",
            "highest_powers": "6877619843d51978d5f6f19fde0b79446b06f3365f585896902b8dbf7844fbec",
        },
    ),
}


def test_reports_match_pinned_digests(theorem_reports):
    for name, (checks, machines) in PINNED.items():
        report = theorem_reports[name]
        listed = [(c.name, c.expected, c.obtained) for c in report.checks]
        assert sha256(repr(listed)) == checks, name
        texts = {key: automata.to_text(a) for key, a in report.automata.items()}
        assert {key: sha256(text) for key, text in texts.items()} == machines, name


def test_run_all_compiles_the_shared_tail_once(monkeypatch):
    tail = logic.parse("Aj (j + p < n) => X[i + j] = X[i + j + p]")
    compile_node = logic._Compiler.compile
    seen = []

    def counting(self, p):
        seen.append(p == tail)
        return compile_node(self, p)

    monkeypatch.setattr(logic._Compiler, "compile", counting)
    theorems._x5_env.cache_clear()
    assert all(report.passed for report in theorems.run_all().values())
    assert sum(seen) == 1


def script_trailers():
    """name -> trailer ("TRUE", "FALSE", or None) of each def/eval/reg of the
    bundled script, read here apart from theorems' own reading."""
    text = (resources.files("pelldecide") / "data" / "paper.walnutish").read_text()
    return {
        name: rest[-1] if "--expect" in rest else None
        for command, name, *rest in logic.script_commands(text)
        if command in ("def", "eval", "reg")
    }


def test_theorems_read_every_sentence_of_the_script(monkeypatch):
    read = []
    sentence = theorems._sentence

    def recording(name):
        read.append(name)
        return sentence(name)

    monkeypatch.setattr(theorems, "_sentence", recording)
    theorems._x5_env.cache_clear()
    assert all(report.passed for report in theorems.run_all().values())
    assert set(read) == set(script_trailers())


# check label -> script name, where the two differ
LABELS = {
    "fac_high_exponent (exponent 2 variant)": "fac_high_exponent_2",
    "every occurrence has period 4": "cex5_period_4",
    "periods of high powers are exactly 0*110000*": "php_matches_pows",
    **{
        f"highest power for period {p} has run length {n}": f"highest_power_{p}"
        for p, n in ((41, 68), (99, 167), (239, 406), (577, 983))
    },
}


def test_closed_checks_expect_their_script_trailers(theorem_reports):
    trailers = {name: t for name, t in script_trailers().items() if t is not None}
    checked = {}
    for report in theorem_reports.values():
        for c in report.checks:
            name = LABELS.get(c.name, c.name)
            if name in trailers:
                checked[name] = c.expected
    assert checked == {name: trailer == "TRUE" for name, trailer in trailers.items()}


def test_importing_theorems_reads_no_file():
    code = (
        "import pelldecide.cli, pelldecide.theorems as t\n"
        "assert t._script.cache_info().misses == 0\n"
        "assert 'first_0_to_0' in t.VERIFICATION_PREDICATES\n"
        "assert t._script.cache_info().misses == 1\n"
    )
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr


def test_exponent_verdicts(theorem_reports):
    report = theorem_reports["prove_e_x5"]
    assert by_name(report, "fac_low_exponent").obtained is True
    assert by_name(report, "fac_ex_exponent").obtained is True
    assert by_name(report, "fac_high_exponent").obtained is False
    assert by_name(report, "exponent 2 variant").obtained is False


def test_corollary_details(theorem_reports):
    report = theorem_reports["corollary_cex5"]
    assert by_name(report, "period 4").obtained is True
    assert by_name(report, "(23, 4)").obtained is True
    assert by_name(report, "(23, 5)").obtained is False
    assert by_name(report, "factor at 23").obtained == "403240"
    rel = report.automata["fac_cex5"]
    assert rel.alphabet.n_tracks == 2
    assert rel.n_states == 8


def test_almost_powers_details(theorem_reports):
    report = theorem_reports["almost_powers"]
    pairs = by_name(report, "pairs with p <= 10000").obtained
    assert pairs == [
        (19, 14), (49, 34), (121, 82), (295, 198),
        (715, 478), (1729, 1154), (4177, 2786), (10087, 6726),
    ]
    assert all(2 * n + 4 == 3 * p for n, p in pairs)
    assert automata.is_infinite(report.automata["almost_ce_period"])
    # gap to 3/2 is exactly 2/p, so it dips below 1e-3 within the listed pairs
    gaps = [Fraction(3, 2) - Fraction(n, p) for n, p in pairs]
    assert gaps == [Fraction(2, p) for _, p in pairs]
    assert gaps[-1] < Fraction(1, 1000) < gaps[0]


def test_x3_analysis_details(theorem_reports):
    report = theorem_reports["x3_analysis"]
    assert by_name(report, "0*110000*").obtained is True
    for m in (5, 6, 7, 8):
        p = pell.pell_number(m) + pell.pell_number(m - 1)
        check = by_name(report, f"highest power for period {p}")
        assert check.obtained is True
    assert by_name(report, "109/41").obtained == Fraction(109, 41)
    high = report.automata["periods_of_high_powers"]
    pows = report.automata["pows"]
    assert automata.equivalent(high, pows)


def test_exponent_of_m_values():
    assert theorems.exponent_of_m(5) == Fraction(109, 41)
    assert theorems.exponent_of_m(6) == Fraction(266, 99)
    values = [theorems.exponent_of_m(m) for m in range(5, 61)]
    assert all(a < b for a, b in zip(values, values[1:]))
    # e < 2 + sqrt(2)/2, squared out with integers
    for e in values:
        assert e > 2
        assert (2 * e.numerator - 4 * e.denominator) ** 2 < 2 * e.denominator**2


def test_report_plumbing():
    report = theorems.TheoremReport("toy")
    report.add("fine", 1, 1)
    assert report.passed
    report.add("broken", 1, 2)
    assert not report.passed
    assert "XX broken" in report.summary()
    assert "FAIL" in report.summary()


# --- mutation sensitivity -------------------------------------------------------


def test_verify_adder_catches_accepting_flip():
    mutant = R.flip_accepting(learner.direct_adder(), learner.direct_adder().initial)
    report = theorems.verify_adder(adder=mutant)
    assert not report.passed


def test_verify_adder_catches_transition_reroute():
    adder = learner.direct_adder()
    # send (0, 0, 1) out of the initial state back to the accepting start
    mutant = R.reroute(adder, adder.initial, 1, adder.initial)
    report = theorems.verify_adder(adder=mutant)
    assert not report.passed


def test_healthy_adder_passes_standalone():
    assert theorems.verify_adder().passed
