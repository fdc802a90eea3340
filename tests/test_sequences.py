"""The Sturmian word and its five- and three-letter balanced images."""

import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import pelldecide
import references as R
from pelldecide import automata, learner, logic, pell, sequences
from pelldecide.automata import Dfao, TrackAlphabet

STURMIAN_29 = "01010010100101010010100101010"
X5_29 = "03140230410324031042301403240"


def test_known_prefixes():
    assert "".join(map(str, sequences.sturmian_prefix(29))) == STURMIAN_29
    assert "".join(map(str, sequences.x5_prefix(29))) == X5_29
    assert "".join(map(str, sequences.x3_prefix(12))) == "021201202102"
    assert sequences.X5_BLOCKS == ((0, 1, 0, 2), (3, 4))
    assert sequences.X3_BLOCKS == ((0, 1), (2,))


def test_scalar_oracles():
    assert sequences.x5_oracle(25) == 3
    assert sequences.x5_oracle(5) == 2
    for i in range(60):
        assert sequences.x5_oracle(i) == R.ref_x5_prefix(60)[i]
        assert sequences.x3_oracle(i) == R.ref_x3_prefix(60)[i]
    for n in range(1, 60):
        assert sequences.sturmian(n) == R.ref_sturmian(n)


def test_prefixes_match_references_to_1e5():
    assert np.array_equal(sequences.sturmian_prefix(10**5), R.ref_sturmian_prefix(10**5))
    assert np.array_equal(sequences.x5_prefix(10**5), R.ref_x5_prefix(10**5))
    assert np.array_equal(sequences.x3_prefix(10**5), R.ref_x3_prefix(10**5))


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
    assert len(sequences.VERIFICATION_PREDICATES) == 5
    assert sequences.verify_x5() is True
    env = (
        logic.Environment()
        .with_sequence("C", sequences.c_alpha_dfao())
        .with_sequence("X", sequences.x5_dfao())
    )
    for name, text in sequences.VERIFICATION_PREDICATES.items():
        assert logic.eval_closed(text, env), name


def test_verify_x5_catches_mutants():
    good_c = sequences.c_alpha_dfao()
    good_x = sequences.x5_dfao()
    with pytest.raises(sequences.VerificationError):
        sequences.verify_x5(x=R.mutated_at_word(good_x, "2001"))
    # the C mutation flips a 0 state so both letters stay in the alphabet
    with pytest.raises(sequences.VerificationError):
        sequences.verify_x5(c=R.mutated_at_word(good_c, "1"))
    # the originals were not disturbed
    assert sequences.verify_x5() is True


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
    m = sequences.learn_word_dfao(sequences.X3_BLOCKS)
    assert R.same_automaton(m, sequences.x3_dfao())
