"""Top-level acceptance gate.

One test per headline claim, in order, each recording a PASS/FAIL line that
``conftest`` prints after the run.  Everything here re-checks results against
independent oracles; the unit files own the fine-grained edge cases.
"""

import math
from fractions import Fraction

import numpy as np

import references as R
from conftest import criterion
from pelldecide import automata, learner, logic, pell, search, sequences, theorems
from test_learner import check_adder_against_arithmetic

C_ALPHA_1_TO_29 = "01010010100101010010100101010"
X5_0_TO_28 = "03140230410324031042301403240"

FIVE_OPTIMAL = [
    "01203104120130410213014021031401203104120130",
    "01203240210320421023042012302401203240210320",
    "01230240120324021032042102304201230240120324",
    "01231421023124102132412013214201231421023124",
    "01231430132143103213410312341301231430132143",
]


def by_name(report, name):
    for check in report.checks:
        if check.name == name:
            return check
    raise KeyError(name)


def test_01_adder(learned_adder, theorem_reports):
    with criterion(1, "learned adder: 16 live states over 27 symbols, "
                      "arithmetic oracle to 2000, inductive proof"):
        minimized = automata.minimize(learned_adder)
        assert minimized.alphabet.size == 27
        assert automata.live_state_count(minimized) == 16
        assert R.same_automaton(minimized, automata.minimize(learner.direct_adder()))
        check_adder_against_arithmetic(
            learned_adder, 2000, wrong_per_pair=20, seed=11, block=100
        )
        report = theorem_reports["verify_adder"]
        assert report.passed
        assert by_name(report, "base_proof").ok
        assert by_name(report, "inductive_proof").ok


def test_02_representations():
    with criterion(2, "Pell digits: worked examples, round trip below 1e6, "
                      "uniqueness through length 12"):
        assert pell.encode(157) == "201100"
        assert pell.decode("122100") == 157
        values = np.arange(1_000_000, dtype=np.int64)
        digits = pell.encode_batch(values)
        assert R.ref_valid_digits(digits).all()
        assert np.array_equal(pell.decode_batch(digits), values)
        # every valid digit string of length <= 12 names a distinct integer,
        # and together they name exactly 0 .. P_13 - 1
        decoded = [0]
        for length in range(1, 13):
            rows = (
                np.arange(3**length)[:, None] // 3 ** np.arange(length - 1, -1, -1)
            ) % 3
            rows = rows.astype(np.int8)
            good = R.ref_valid_digits(rows) & (rows[:, 0] > 0)
            decoded.append(pell.decode_batch(rows[good]))
        decoded = np.sort(np.concatenate([np.atleast_1d(d) for d in decoded]))
        assert np.array_equal(decoded, np.arange(R.ref_pell_list(14)[13]))


def test_03_sequences():
    with criterion(3, "sequence automata match brute force to 1e5"):
        c = sequences.c_alpha_dfao()
        x = sequences.x5_dfao()
        assert "".join(
            str(automata.dfao_eval(c, n)) for n in range(1, 30)
        ) == C_ALPHA_1_TO_29
        assert "".join(
            str(automata.dfao_eval(x, n)) for n in range(0, 29)
        ) == X5_0_TO_28
        assert automata.dfao_eval(x, 25) == 3
        ns = np.arange(1, 100_001)
        got_c = c.outputs[automata.run_batch(c, pell.encode_batch(ns))]
        assert np.array_equal(got_c, R.ref_sturmian_prefix(100_000))
        ms = np.arange(100_000)
        got_x = x.outputs[automata.run_batch(x, pell.encode_batch(ms))]
        assert np.array_equal(got_x, R.ref_x5_prefix(100_000))


def test_04_construction_verification():
    with criterion(4, "all five defining predicates of the five-letter word "
                      "evaluate TRUE"):
        env = logic.Environment().with_sequence(
            "C", sequences.c_alpha_dfao()
        ).with_sequence("X", sequences.x5_dfao())
        names = [
            "first_0_to_0",
            "second_0_to_1",
            "possible_triplets_for_0s",
            "first_1_to_3",
            "alternate_3_4_for_1s",
        ]
        assert sorted(theorems.VERIFICATION_PREDICATES) == sorted(names)
        for name in names:
            rel = logic.compile(theorems.VERIFICATION_PREDICATES[name], env)
            assert rel.tracks == ()
            assert rel.is_true, name
        report = theorems.prove("verify_x5")
        assert report.passed
        assert sorted(c.name for c in report.checks) == sorted(names)


def test_05_critical_exponent(theorem_reports):
    with criterion(5, "critical exponent of the five-letter word is exactly 3/2"):
        report = theorem_reports["prove_e_x5"]
        assert report.passed
        low = by_name(report, "fac_low_exponent")
        exact = by_name(report, "fac_ex_exponent")
        high = by_name(report, "fac_high_exponent")
        assert low.ok and low.obtained is True
        assert exact.ok and exact.obtained is True
        assert high.ok and high.obtained is False


def test_06_corollary_period_four(theorem_reports):
    with criterion(6, "every exponent-3/2 occurrence has period 4; "
                      "the factor at 23 is 403240"):
        report = theorem_reports["corollary_cex5"]
        assert report.passed
        assert by_name(report, "cex5_period_4").ok
        assert by_name(report, "cex5_at_23_period_4").ok
        # the sentence X[23] = @4 & X[24] = @0 & ... & X[28] = @0
        factor = by_name(report, "factor_at_23")
        assert factor.ok and factor.obtained is True
        assert "".join(str(s) for s in sequences.x5_prefix(29)[23:29]) == "403240"


def test_07_search_optimality():
    with criterion(7, "breadth-first search stops at length 44 with exactly "
                      "the five optimal words"):
        depth, words = search.bfs_optimal(5, Fraction(3, 2), strict=True)
        assert depth == 44
        assert words == sorted(words)
        assert words == FIVE_OPTIMAL
        for w in FIVE_OPTIMAL:
            assert R.ref_is_balanced(np.array([int(s) for s in w]), 5)
            assert R.ref_max_exponent([int(s) for s in w]) < Fraction(3, 2)


def test_08_three_letter_analysis(theorem_reports):
    with criterion(8, "three-letter word: high-power periods are 0*110000*, "
                      "run lengths check out, exponents increase below 2 + sqrt(2)/2"):
        report = theorem_reports["x3_analysis"]
        assert report.passed
        assert by_name(report, "php_matches_pows").ok
        # n = P_{m+1} - 2 for every period P_m + P_{m-1}, and every such
        # period has a highest power
        assert by_name(report, "highest_power_run_lengths").ok
        assert by_name(report, "highest_power_for_every_period").ok
        pells = R.ref_pell_list(12)
        w3 = sequences.x3_prefix(6000)
        for m in range(5, 9):
            p = pells[m] + pells[m - 1]
            n = pells[m + 1] - 2
            assert by_name(report, f"highest_power_{p}").ok
            # independent scan of the actual prefix
            assert int(R._exact_run_lengths(w3, p).max()) == n
        exponents = [R.exponent_of_m(m) for m in range(5, 61)]
        assert exponents[0] == Fraction(109, 41)
        assert all(a < b for a, b in zip(exponents, exponents[1:]))
        for e in exponents:
            gap = e - 2
            assert gap > 0 and 2 * gap.numerator**2 < gap.denominator**2


def test_09_logic_soundness(soundness_grids):
    with criterion(9, "compiled relations equal integer brute force on 0..300; "
                      "duality, doubling, and definition transparency hold"):
        for name, (got, want) in soundness_grids.items():
            assert np.array_equal(got, want), name
        env = logic.Environment()
        pairs = [
            ("Ax Ey y = x + x", "~(Ex ~(Ey y = x + x))"),
            ("Aj (j <= p) => (j + j <= p + 3)",
             "~(Ej ~((j <= p) => (j + j <= p + 3)))"),
        ]
        for forall_text, dual_text in pairs:
            forall = logic.compile(forall_text, env)
            dual = logic.compile(dual_text, env)
            assert forall.tracks == dual.tracks
            assert R.same_automaton(forall.dfa, dual.dfa)
        bounded = logic.compile(pairs[1][0], env)
        accepted = [p for p in range(50) if logic.relation_accepts(bounded, {"p": p})]
        assert accepted == [0, 1, 2, 3]
        doubled = logic.compile("An,m (2*n = m) <=> (n + n = m)", env)
        assert doubled.is_true
        tripled = logic.compile("An,m (3*n = m) <=> (n + n + n = m)", env)
        assert tripled.is_true
        with_def = logic.define(env, "dbl", "?msd_pell y = 2*x")
        via_call = logic.compile("$dbl(a, b)", with_def)
        inline = logic.compile("b = 2*a", env)
        assert R.same_automaton(via_call.dfa, inline.dfa)


def test_10_mutation_sensitivity():
    with criterion(10, "four single-point mutations and a second sum each make a proof fail"):
        healthy = learner.direct_adder()

        def verify_adder(adder):
            return theorems.prove("verify_adder", logic.Environment(adder=adder))

        def verify_x5(name, word):
            return theorems.prove("verify_x5", logic.Environment().with_sequence(name, word))

        flipped = R.flip_accepting(healthy, healthy.initial)
        assert not verify_adder(flipped).passed
        rerouted = R.reroute(healthy, healthy.initial, 1, healthy.initial)
        assert not verify_adder(rerouted).passed
        # also accepts 0 + y = z for every z < y, such as 0 + 5 = 2: no step
        # from y = 0 reaches those triples, so only uniqueness fails
        second_sum = automata.minimize(automata.product(
            healthy, logic.compile("?msd_pell x = 0 & z < y").dfa, "or"))
        report = verify_adder(second_sum)
        assert [c.name for c in report.checks if not c.ok] == ["uniqueness_proof"]
        assert verify_adder(healthy).passed

        # each failing check names a defining predicate of the x5 word
        x_bad = R.mutated_at_word(sequences.x5_dfao(), "2001")
        report = verify_x5("X", x_bad)
        assert not report.passed
        assert [c.name for c in report.checks if not c.ok] == ["alternate_3_4_for_1s"]
        c_bad = R.mutated_at_word(sequences.c_alpha_dfao(), "1")
        report = verify_x5("C", c_bad)
        assert not report.passed
        assert [c.name for c in report.checks if not c.ok][0] == "first_0_to_0"
        assert theorems.prove("verify_x5").passed
