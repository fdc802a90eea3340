"""The six sections of the bundled script, their reports, and their sensitivity to mutants."""

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
# automaton's to_text.  The automata digests were taken while every x5
# sentence spelled out the factor tail inline and theorems.py held its own
# copy of every sentence, and they survived the move to the script's
# sections unchanged; fac, pell and top came in with the sections.  The
# checks digests of prove_e_x5, corollary_cex5, almost_powers and
# x3_analysis were retaken when each check took the name of its eval and the
# Python-side checks became sentences or moved to the tests below.
PINNED = {
    "verify_adder": (
        "cdce8abc77c6a49329d2f3cb05545cbdeb2b3ec35c66fa9a06cf41684317721d",
        {
            "pell_successor": "02ea3f228d50634d94cce61262806f3dbcb8738226ba39e7f20f0c7534758d0d",
            "adder": "cf07748bf10449a7df07129187350daba68d4689acee1e3e81b933f1b8c89ec6",
        },
    ),
    "prove_e_x5": (
        "a8359c961c99632ab49c66c8b13b94bdb7e6d90e666157983d48c9e628cd4ef1",
        # the tail that CI's installed eval step pins too
        {"fac": "aea49debb414f3e1e2e46675f44f0989eac3d2b89b4bc62fe4ce24db46963ded"},
    ),
    "corollary_cex5": (
        "fc3ac0dcfe220d2ea0103cef9879b43c118e5246c087eee207107e92b2bd5ed2",
        {"fac_cex5": "13c7358d67deddbd86e47adeb92cca1bbb49fd7bcd772ade811d739bf2d849bf"},
    ),
    "almost_powers": (
        "3b8d06b02fde0b220bbd8a2197a1b0a5c18f4ebb9fe3e6c11aa25a8c08005f7e",
        {"almost_ce_period": "0ccbb761a921537b6ad3d8dc0cd40c082366d8cb89b8a5e9598a330eb42b1953"},
    ),
    "x3_analysis": (
        "9388b39af188680f8568607fc0e802963cb2a29f07a2e8070cb1bb9b1ffe379d",
        {
            "periods_of_high_powers":
                "dd6e991d516a18048221295d783acf08f038b96abdb4f2ed048ffaaa53b653d7",
            "pows": "dd6e991d516a18048221295d783acf08f038b96abdb4f2ed048ffaaa53b653d7",
            "maximal_reps": "9c67d2c2ecf181934d2f47771e90f6c76a520bb93135afa88a473579b978a0a5",
            "highest_powers": "6877619843d51978d5f6f19fde0b79446b06f3365f585896902b8dbf7844fbec",
            "pell": "16626a96fef073c0357a544d95bb0ca08b2438c41921e07202e142c6b6c43ef2",
            "top": "4a1c9d9f760eafa83aef3204e51ff7c517d389b2cf2571a3525bea6550125806",
        },
    ),
}


def assert_pinned(reports):
    for name, (checks, machines) in PINNED.items():
        report = reports[name]
        listed = [(c.name, c.expected, c.obtained) for c in report.checks]
        assert sha256(repr(listed)) == checks, name
        texts = {key: automata.to_text(a) for key, a in report.automata.items()}
        assert {key: sha256(text) for key, text in texts.items()} == machines, name


def test_reports_match_pinned_digests(theorem_reports):
    assert_pinned(theorem_reports)


def test_reports_match_pinned_digests_under_hash_collisions(monkeypatch, memo_misses):
    # with every Zobrist key equal, all runs of one size hash alike, so a
    # pruned walk's memo stores one run a size and almost every other run
    # misses (about 102,000 of 102,500); the misses are looked up among the
    # subsets by their member bytes
    monkeypatch.setattr(automata, "_zobrist_keys", lambda n: np.full(n, 77, dtype=np.uint64))
    reports = theorems.run_all()
    assert all(report.passed for report in reports.values())
    assert_pinned(reports)
    assert sum(memo_misses) > 1000


def test_reports_match_pinned_digests_through_the_references(monkeypatch):
    # every optimized step of the compiler swapped for its reference: early
    # quantification, the subset construction's expansion and inclusion
    # relation, product and minimize (pell imports minimize by name).  The
    # atom builders start empty, so their products and minimizations run
    # through the references too.  _determinize ends in _quotient, not
    # minimize, so each projection's own quotient is not swapped
    for builder in (logic._comparison, logic._const_dfa, logic._slice,
                    logic._pair_equal, pell._valid_tracks):
        builder.cache_clear()
    monkeypatch.setattr(logic._Compiler, "quantifier", R.ref_compile_quantifier)
    monkeypatch.setattr(automata, "_expand", R.ref_expand)
    monkeypatch.setattr(automata, "_dominators", R.ref_dominators)
    monkeypatch.setattr(automata, "product", R.ref_product)
    monkeypatch.setattr(automata, "minimize", R.ref_minimize)
    monkeypatch.setattr(pell, "minimize", R.ref_minimize)
    reports = theorems.run_all()
    assert all(report.passed for report in reports.values())
    assert_pinned(reports)


def test_run_all_compiles_the_shared_tail_once(monkeypatch):
    tail = logic.parse("Aj (j + p < n) => X[i + j] = X[i + j + p]")
    compile_node = logic._Compiler.compile
    seen = []

    def counting(self, p):
        seen.append(p == tail)
        return compile_node(self, p)

    monkeypatch.setattr(logic._Compiler, "compile", counting)
    assert all(report.passed for report in theorems.run_all().values())
    assert sum(seen) == 1


def script_sections():
    """section -> [(name, trailer)] for each def, eval and reg of the
    bundled script, read here apart from theorems' own reading; the trailer
    is "TRUE", "FALSE" or None.  A command before the first theorem line
    lands under None."""
    text = (resources.files("pelldecide") / "data" / "paper.walnutish").read_text()
    sections, section = {}, None
    for command, *args in theorems.script_commands(text):
        if command == "theorem":
            section = args[0]
        elif command in ("def", "eval", "reg"):
            trailer = args[-1] if "=>" in args else None
            sections.setdefault(section, []).append((args[0], trailer))
    return sections


def test_theorems_read_every_sentence_of_the_script(theorem_reports):
    """Every def, eval and reg lies in a section, and lands in that
    section's report: as a check if it carries a trailer, else as a machine."""
    sections = script_sections()
    assert list(sections) == list(theorem_reports) == list(theorems.THEOREMS)
    for name, report in theorem_reports.items():
        landed = [c.name for c in report.checks] + list(report.automata)
        assert sorted(landed) == sorted(n for n, _ in sections[name]), name
        assert list(report.automata) == [n for n, t in sections[name] if t is None], name


def test_closed_checks_expect_their_script_trailers(theorem_reports):
    sections = script_sections()
    for name, report in theorem_reports.items():
        expected = {n: trailer == "TRUE" for n, trailer in sections[name] if trailer}
        assert {c.name: c.expected for c in report.checks} == expected, name
        assert len(report.checks) == len(expected), name


def test_importing_theorems_reads_no_file():
    code = (
        "import pelldecide.cli, pelldecide.theorems as t\n"
        "assert t._sections.cache_info().misses == 0\n"
        "assert 'first_0_to_0' in t.VERIFICATION_PREDICATES\n"
        "assert t._sections.cache_info().misses == 1\n"
    )
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr


def test_a_section_refuses_a_command_it_would_skip():
    env = logic.Environment()
    for tokens in (["eval", "closed", "1 = 1"], ["eval", "1 = 1"], ["dump", "x5"],
                   ["seq", "nowhere", "--dump", "Y.txt"], ["eval", "e", "1 = 1", "--expect", "YES"],
                   ["eval", "e", "1 = 1", "=>", "YES"]):
        with pytest.raises(ValueError):
            theorems._run_section(env, [tokens], theorems.TheoremReport("toy"))


def test_a_section_without_a_report_skips_only_well_formed_checks():
    # an earlier section's checks are skipped unread, so the skip matches
    # the trailer's whole shape, and a malformed one is refused either way
    env = logic.Environment()
    assert theorems._run_section(env, [["eval", "x", "1 = 1", "=>", "TRUE"]], None) is env
    for tokens in (["eval", "x", "1 = 1", "=>", "MAYBE"], ["eval", "x", "1 = 1", "=>"],
                   ["eval", "x", "=>", "TRUE", "1 = 1"]):
        with pytest.raises(ValueError, match="not a line of the script language"):
            theorems._run_section(logic.Environment(), [tokens], None)


def test_exponent_verdicts(theorem_reports):
    report = theorem_reports["prove_e_x5"]
    assert by_name(report, "fac_low_exponent").obtained is True
    assert by_name(report, "fac_ex_exponent").obtained is True
    assert by_name(report, "fac_high_exponent").obtained is False
    assert by_name(report, "fac_high_exponent_2").obtained is False


def test_corollary_details(theorem_reports):
    report = theorem_reports["corollary_cex5"]
    assert by_name(report, "cex5_period_4").obtained is True
    assert by_name(report, "cex5_at_23_period_4").obtained is True
    assert by_name(report, "cex5_at_23_period_5").obtained is False
    assert by_name(report, "factor_at_23").obtained is True
    assert "".join(map(str, R.ref_x5_prefix(29)[23:29])) == "403240"
    rel = report.automata["fac_cex5"]
    assert rel.alphabet.n_tracks == 2
    assert rel.n_states == 8


EIGHT_PAIRS = [
    (19, 14), (49, 34), (121, 82), (295, 198),
    (715, 478), (1729, 1154), (4177, 2786), (10087, 6726),
]


def test_almost_powers_details(theorem_reports):
    report = theorem_reports["almost_powers"]
    for name in ("almost_infinitely_many", "almost_gap_2_over_p", "almost_pairs_below_10000"):
        assert by_name(report, name).obtained is True
    # the accepted (n, p) pairs, read off the automaton by enumeration
    rel = report.automata["almost_ce_period"]
    pairs = sorted(
        {
            tuple(pell.decode("".join(map(str, track.tolist())))
                  for track in rel.alphabet.unpack(np.array(w, dtype=np.int64)))
            for w in automata.enumerate_words(rel, 12)
        }
    )
    small = [(n, p) for n, p in pairs if p <= 10_000]
    assert small == EIGHT_PAIRS
    assert all(2 * n + 4 == 3 * p for n, p in pairs)
    assert automata.is_infinite(rel)
    # gap to 3/2 is exactly 2/p, so it dips below 1e-3 within the listed
    # pairs, for every p >= 2000 (the first such p is 2786)
    gaps = [Fraction(3, 2) - Fraction(n, p) for n, p in small]
    assert gaps == [Fraction(2, p) for _, p in small]
    assert gaps[-1] < Fraction(1, 1000) < gaps[0]
    assert all(gap < Fraction(1, 1000) for gap, (_, p) in zip(gaps, small) if p >= 2000)


@pytest.mark.parametrize("n, p", EIGHT_PAIRS)
def test_almost_powers_pairs_are_maximal_on_the_word(n, p):
    # the longest factor with period p in the 50000-symbol prefix of x5 has
    # length exactly n (a run of n - p agreements at distance p)
    prefix = R.ref_x5_prefix(50_000)
    assert int(R.agreement_runs(prefix, p).max()) + p == n


def test_x3_analysis_details(theorem_reports):
    report = theorem_reports["x3_analysis"]
    for name in ("php_matches_pows", "highest_power_run_lengths",
                 "highest_power_for_every_period"):
        assert by_name(report, name).obtained is True
    for m in (5, 6, 7, 8):
        p = pell.pell_number(m) + pell.pell_number(m - 1)
        assert by_name(report, f"highest_power_{p}").obtained is True
    high = report.automata["periods_of_high_powers"]
    pows = report.automata["pows"]
    assert automata.equivalent(high, pows)


def test_exponent_of_m_values():
    assert R.exponent_of_m(5) == Fraction(109, 41)
    assert R.exponent_of_m(6) == Fraction(266, 99)
    values = [R.exponent_of_m(m) for m in range(5, 61)]
    assert all(a < b for a, b in zip(values, values[1:]))
    # e < 2 + sqrt(2)/2, squared out with integers
    for e in values:
        assert e > 2
        assert (2 * e.numerator - 4 * e.denominator) ** 2 < 2 * e.denominator**2


def script_sentence(name):
    """The predicate of the bundled script's eval ``name``."""
    text = (resources.files("pelldecide") / "data" / "paper.walnutish").read_text()
    return next(args[1] for command, *args in theorems.script_commands(text)
                if command == "eval" and args[0] == name)


def bound_env(reports, section, names):
    """An environment binding X as ``section`` reads it and the relations
    ``names`` as that section's report keeps them."""
    x = sequences.x3_dfao() if section == "x3_analysis" else sequences.x5_dfao()
    env = logic.Environment().with_sequence("X", x)
    for name in names:
        dfa = reports[section].automata[name]
        env = env.with_callable(name, dfa, tuple("abcdefgh"[: dfa.alphabet.n_tracks]))
    return env


# each new sentence, changed as shown, must come out FALSE: it can fail
VARIANTS = [
    ("factor_at_23", "X[28] = @0", "X[28] = @1", "corollary_cex5", ()),
    ("almost_gap_2_over_p", "2*n + 4", "2*n + 5", "almost_powers", ("almost_ce_period",)),
    ("almost_pairs_below_10000", " | (n = 10087 & p = 6726)", "", "almost_powers",
     ("almost_ce_period",)),
    ("highest_power_run_lengths", "n + 2", "n + 3", "x3_analysis",
     ("highest_powers", "top")),
]


@pytest.mark.parametrize("name, old, new, section, names", VARIANTS, ids=[v[0] for v in VARIANTS])
def test_new_sentences_fail_when_changed(theorem_reports, name, old, new, section, names):
    text = script_sentence(name)
    assert text.count(old) == 1
    env = bound_env(theorem_reports, section, names)
    assert logic.eval_closed(text, env) is True
    assert logic.eval_closed(text.replace(old, new), env) is False


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
    report = theorems.prove("verify_adder", logic.Environment(adder=mutant))
    assert not report.passed


def test_verify_adder_catches_transition_reroute():
    adder = learner.direct_adder()
    # send (0, 0, 1) out of the initial state back to the accepting start
    mutant = R.reroute(adder, adder.initial, 1, adder.initial)
    report = theorems.prove("verify_adder", logic.Environment(adder=mutant))
    assert not report.passed


def test_healthy_adder_passes_standalone():
    assert theorems.prove("verify_adder").passed
