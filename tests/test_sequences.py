"""The Sturmian word and its five- and three-letter balanced images."""

import hashlib
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import assume, given, reject, settings
from hypothesis import strategies as st

import pelldecide
import references as R
from pelldecide import automata, learner, logic, pell, sequences, theorems
from pelldecide.automata import Dfa, Dfao, TrackAlphabet

STURMIAN_29 = "01010010100101010010100101010"
X5_29 = "03140230410324031042301403240"


def test_known_prefixes():
    assert "".join(map(str, sequences.sturmian_prefix(29))) == STURMIAN_29
    assert "".join(map(str, sequences.x5_prefix(29))) == X5_29
    assert "".join(map(str, sequences.x3_prefix(12))) == "021201202102"
    assert sequences.X5_BLOCKS == ((0, 1, 0, 2), (3, 4))
    assert sequences.X3_BLOCKS == ((0, 1), (2,))


def test_prefixes_match_references_to_1e5():
    assert np.array_equal(sequences.sturmian_prefix(10**5), R.ref_sturmian_prefix(10**5))
    assert np.array_equal(sequences.x5_prefix(10**5), R.ref_x5_prefix(10**5))
    assert np.array_equal(sequences.x3_prefix(10**5), R.ref_x3_prefix(10**5))


@pytest.mark.parametrize("n", [0, 1, 4096, 1_200_000])
def test_sturmian_prefix_matches_floor_alpha_loop(n):
    floors = np.array([R.ref_floor_alpha(m) for m in range(1, n + 2)], dtype=np.int64)
    got = sequences.sturmian_prefix(n)
    assert got.dtype == np.int8
    assert np.array_equal(got, np.diff(floors))


def test_floor_alpha_batch_is_exact_where_floats_round():
    # m * sqrt(2) is closest to an integer at the Pell numbers, where the
    # float square root of 2m^2 can land on the wrong side
    rng = np.random.default_rng(11)
    top = 2**31 - 1
    pells = [pell.pell_number(k) for k in range(2, 26)]
    m = np.concatenate([
        [p + d for p in pells for d in (-1, 0, 1)],
        np.arange(top - 2000, top + 1),
        rng.integers(2**26, top, size=20_000),
    ]).astype(np.int64)
    expected = [R.ref_floor_alpha(int(v)) for v in m]
    assert np.array_equal(sequences._floor_alpha_batch(m), expected)
    uncorrected = np.sqrt((2 * m * m).astype(np.float64)).astype(np.int64) - m
    assert not np.array_equal(uncorrected, expected)


def test_sturmian_prefix_rejects_int64_overflow():
    with pytest.raises(ValueError):
        sequences.sturmian_prefix(2**31 - 1)


def sweep(dfao, values):
    digits = pell.encode_batch(values)
    return dfao.outputs[automata.run_batch(dfao, digits)]


def test_automata_match_words_to_1e5():
    n = np.arange(1, 10**5 + 1, dtype=np.int64)
    assert np.array_equal(sweep(sequences.c_alpha_dfao(), n), R.ref_sturmian_prefix(10**5))
    i = np.arange(10**5, dtype=np.int64)
    assert np.array_equal(sweep(sequences.x5_dfao(), i), R.ref_x5_prefix(10**5))
    assert np.array_equal(sweep(sequences.x3_dfao(), i), R.ref_x3_prefix(10**5))


def test_trailing_zero_parity():
    # c(n) = 1 exactly when the digit string of n ends in an odd number of 0s
    n = np.arange(1, 10**5 + 1, dtype=np.int64)
    digits = pell.encode_batch(n)
    length = digits.shape[1]
    last_nonzero = np.where(digits != 0, np.arange(length), -1).max(axis=1)
    trailing = length - 1 - last_nonzero
    assert np.array_equal((trailing % 2 == 1), R.ref_sturmian_prefix(10**5) == 1)


def test_letter_gaps_in_substreams():
    # restricted to its {0,1,2} positions, x5 repeats 0 every 2 and 1, 2 every 4;
    # restricted to {3,4}, the letters alternate
    w = sequences.x5_prefix(10**4)
    low = w[w <= 2]
    for letter, gap in ((0, 2), (1, 4), (2, 4)):
        positions = np.flatnonzero(low == letter)
        assert (np.diff(positions) == gap).all()
    high = w[w >= 3]
    assert (np.diff(np.flatnonzero(high == 3)) == 2).all()
    assert high[0] == 3


def test_high_letters_align_with_sturmian_ones():
    w = sequences.x5_prefix(10**4)
    c = sequences.sturmian_prefix(10**4)
    assert np.array_equal(w >= 3, c == 1)


def test_verification_predicates_all_hold():
    assert len(theorems.VERIFICATION_PREDICATES) == 5
    report = theorems.prove("verify_x5")
    assert report.passed
    assert [(c.name, c.expected, c.obtained) for c in report.checks] == [
        (name, True, True) for name in theorems.VERIFICATION_PREDICATES
    ]
    env = (
        logic.Environment()
        .with_sequence("C", sequences.c_alpha_dfao())
        .with_sequence("X", sequences.x5_dfao())
    )
    for name, text in theorems.VERIFICATION_PREDICATES.items():
        assert logic.eval_closed(text, env), name


def failing(report):
    return [c.name for c in report.checks if not c.ok]


def verify_x5(name, word):
    """verify_x5's report with the word ``name`` (C or X) bound to ``word``."""
    return theorems.prove("verify_x5", logic.Environment().with_sequence(name, word))


def test_verify_x5_catches_mutants():
    good_c = sequences.c_alpha_dfao()
    good_x = sequences.x5_dfao()
    assert failing(verify_x5("X", R.mutated_at_word(good_x, "2001"))) == [
        "alternate_3_4_for_1s"
    ]
    # the C mutation flips a 0 state so both letters stay in the alphabet
    assert failing(verify_x5("C", R.mutated_at_word(good_c, "1"))) == [
        "first_0_to_0", "second_0_to_1", "alternate_3_4_for_1s"
    ]
    # the originals were not disturbed
    assert theorems.prove("verify_x5").passed


def test_dfaos_are_shared_instances():
    assert sequences.x5_dfao() is sequences.x5_dfao()
    assert sequences.c_alpha_dfao() is sequences.c_alpha_dfao()
    assert sequences.x3_dfao() is sequences.x3_dfao()


def test_no_disk_cache_is_read(tmp_path):
    # PELLDECIDE_CACHE_DIR once named a directory whose automata were loaded
    # unchecked; complete but wrong ones there must change nothing.
    automata.save_text(automata.complement(learner.direct_adder()), tmp_path / "adder.txt")
    constant = Dfao(TrackAlphabet(1), np.zeros((1, 3), dtype=np.int32), np.zeros(1))
    automata.save_text(constant, tmp_path / "x5.txt")
    probe = (
        "import numpy as np\n"
        "from pelldecide import automata, learner, sequences\n"
        "want = automata.minimize(learner.direct_adder())\n"
        "assert automata.to_text(learner.adder()) == automata.to_text(want)\n"
        "x = sequences.x5_dfao()\n"
        "got = [automata.dfao_eval(x, i) for i in range(2000)]\n"
        "assert np.array_equal(got, sequences.x5_prefix(2000))\n"
    )
    src = str(Path(pelldecide.__file__).resolve().parents[1])
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    env = dict(os.environ, PELLDECIDE_CACHE_DIR=str(tmp_path), PYTHONPATH=path)
    proc = subprocess.run([sys.executable, "-c", probe], capture_output=True, text=True, env=env)
    assert proc.returncode == 0, proc.stderr


def test_learn_word_dfao_is_deterministic():
    # L* learns the same machine that carry analysis builds, for both words
    for blocks, built in ((sequences.X5_BLOCKS, sequences.x5_dfao),
                          (sequences.X3_BLOCKS, sequences.x3_dfao)):
        assert automata.to_text(sequences.learn_word_dfao(blocks)) == automata.to_text(built())


@pytest.mark.parametrize(
    "blocks, prefix",
    [(sequences.X5_BLOCKS, R.ref_x5_prefix), (sequences.X3_BLOCKS, R.ref_x3_prefix)],
    ids=["x5", "x3"],
)
def test_word_oracle_matches_decode_every_row_reference(blocks, prefix):
    """Every digit string up to length 10 and drawn ones up to 14, with zero
    rows and length 0, in int8 and int64."""
    oracle = sequences._word_oracle(blocks)
    reference = R.ref_word_oracle(prefix(pell.pell_number(sequences._WORD_MAX_LEN + 2)))
    rng = np.random.default_rng(len(blocks[0]))
    words = [np.indices((3,) * k).reshape(k, 3**k).T for k in range(11)]
    for length in range(sequences._WORD_MAX_LEN + 1):
        for count in (0, 1, 1000):
            words.append(rng.integers(0, 3, size=(count, length)))
    domain = pell.valid_tracks(1)
    for rows in words:
        for batch in (np.asfortranarray(rows, dtype=np.int8), np.ascontiguousarray(rows)):
            got = oracle(batch)
            assert got.dtype == np.int8
            # the learner asks the oracle only words of the domain
            inside = domain.accepting[automata.run_batch(domain, batch)]
            assert np.array_equal(got[inside], reference(batch)[inside])


WORD_DIGESTS = {  # sha256 of to_text, as test_canonical_outputs_are_byte_identical pins them
    "x5": "af67afc4a115ba3c6439d9a1ee5ae52d26bff2b6b3abb9280d22facd632a5fe6",
    "x3": "2550864df7788f549425a3fb4b27997b8c18de8500a3b30899faf4d4602ddcf4",
}


def test_words_are_built_without_learning(monkeypatch):
    def refuse(*args, **kwargs):
        raise AssertionError("x5 and x3 are built by carry analysis, not learned")

    monkeypatch.setattr(learner, "lstar_moore", refuse)
    monkeypatch.setattr(learner, "bounded_equiv", refuse)
    sequences._word_dfao.cache_clear()
    for name, build in (("x5", sequences.x5_dfao), ("x3", sequences.x3_dfao)):
        text = automata.to_text(build())
        assert hashlib.sha256(text.encode()).hexdigest() == WORD_DIGESTS[name], name


def test_digit_facts_behind_the_carry_construction():
    """For every n < 10^6: c_alpha[n+1] is the last digit of n's canonical
    representation, and c_alpha[1..n] holds as many 1s as the value of that
    representation without its last digit."""
    n = 10**6
    c = sequences.sturmian_prefix(n)
    digits = pell.encode_batch(np.arange(n, dtype=np.int64))
    assert np.array_equal(digits[:, -1], c)
    ones_before = np.concatenate([[0], np.cumsum(c, dtype=np.int64)[:-1]])
    assert np.array_equal(pell.decode_batch(digits[:, :-1]), ones_before)


def test_words_are_zero_off_the_domain():
    domain = pell.valid_tracks(1)
    for word in (sequences.x5_dfao(), sequences.x3_dfao()):
        nonzero = Dfa(word.alphabet, word.delta, word.outputs != 0, word.initial)
        assert automata.is_empty(automata.product(nonzero, automata.complement(domain)))


# x3 is pinned by sentences here only: no section of the bundled script states them
X3_SENTENCES = {
    "first_0_to_0": "?msd_pell C[1] = @0 & X[0] = @0",
    "alternate_0_1_for_0s": """?msd_pell Ap,q
        ((p < q) & (C[p + 1] = @0) & (C[q + 1] = @0) &
         (Ai ((i > p) & (i < q)) => (C[i + 1] = @1))) =>
        (((X[p] = @0) & (X[q] = @1)) | ((X[p] = @1) & (X[q] = @0)))""",
    "2_exactly_at_1s": "?msd_pell Ap (C[p + 1] = @1) <=> (X[p] = @2)",
}


def x3_verdicts(env: logic.Environment) -> dict[str, bool]:
    return {name: logic.eval_closed(text, env) for name, text in X3_SENTENCES.items()}


def with_c_alpha() -> logic.Environment:
    return logic.Environment().with_sequence("C", sequences.c_alpha_dfao())


def test_x3_sentences_hold():
    env = with_c_alpha().with_sequence("X", sequences.x3_dfao())
    assert x3_verdicts(env) == dict.fromkeys(X3_SENTENCES, True)


@settings(max_examples=30)
@given(st.data())
def test_x3_sentences_catch_transition_mutants(data):
    """A machine that redirects one transition of x3 and differs from x3 on
    0..2999 makes at least one sentence FALSE.  A mutant that the binding
    refuses (its output depends on leading zeros) never reaches them."""
    x3 = sequences.x3_dfao()
    state = data.draw(st.integers(0, x3.n_states - 1))
    symbol = data.draw(st.integers(0, x3.alphabet.size - 1))
    target = data.draw(st.integers(0, x3.n_states - 1))
    assume(target != x3.delta[state, symbol])
    mutant = R.reroute(x3, state, symbol, target)
    words = pell.encode_batch(np.arange(3000))
    assume(not np.array_equal(mutant.outputs[automata.run_batch(mutant, words)],
                              sequences.x3_prefix(3000)))
    try:
        env = with_c_alpha().with_sequence("X", mutant)
    except logic.CompileError:
        reject()
    assert not all(x3_verdicts(env).values())
