"""Pell numbers, digit strings, and the canonical-form recognizer."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import references as R
from pelldecide import automata, pell
from pelldecide.automata import Dfao, TrackAlphabet

PELL = R.ref_pell_list(40)


def test_pell_numbers_match_recurrence():
    for i, v in enumerate(PELL):
        assert pell.pell_number(i) == v


def test_known_digit_strings():
    assert pell.encode(0) == ""
    assert pell.encode(1) == "1"
    assert pell.encode(2) == "10"
    assert pell.encode(3) == "11"
    assert pell.encode(4) == "20"
    assert pell.encode(5) == "100"
    assert pell.encode(157) == "201100"
    assert pell.decode("201100") == 157
    # a non-canonical spelling of the same value decodes too
    assert pell.decode("122100") == 157
    assert pell.decode("") == 0


def test_decode_matches_schoolbook_sum():
    rng = np.random.default_rng(2)
    for _ in range(300):
        digits = "".join(str(d) for d in rng.integers(0, 3, size=rng.integers(0, 15)))
        assert pell.decode(digits) == R.ref_decode(digits)


def test_round_trip_below_one_million():
    n = np.arange(1_000_000, dtype=np.int64)
    digits = pell.encode_batch(n)
    assert R.ref_valid_digits(digits).all()
    assert np.array_equal(pell.decode_batch(digits), n)
    for v in (0, 1, 5, 168, 33_460, 999_999):
        assert pell.decode(pell.encode(v)) == v


def test_every_value_has_exactly_one_padded_form_per_length():
    # length-L strings satisfying the digit conditions biject onto [0, P_{L+1})
    for length in range(0, 13):
        total = 3**length
        if length == 0:
            assert pell.decode("") == 0
            continue
        powers = 3 ** np.arange(length - 1, -1, -1, dtype=np.int64)
        rows = (np.arange(total, dtype=np.int64)[:, None] // powers) % 3
        mask = R.ref_valid_digits(rows)
        values = pell.decode_batch(rows[mask])
        assert np.array_equal(np.sort(values), np.arange(PELL[length + 1]))


def test_is_canonical_is_the_strict_form():
    for n in range(2000):
        assert R.ref_is_canonical(pell.encode(n))
    # leading zeros, a trailing 2, or 2 not followed by 0 all disqualify
    for bad in ("0", "02", "2", "12", "210", "21", "011"):
        assert not R.ref_is_canonical(bad)
    for good in ("", "1", "10", "20", "201", "110000"):
        assert R.ref_is_canonical(good)


def test_canonical_recognizer_accepts_padded_forms():
    rec = pell.canonical_recognizer()
    for n in range(400):
        s = pell.encode(n)
        assert automata.accepts(rec, s)
        assert automata.accepts(rec, "00" + s)
    for bad in ("2", "12", "210", "021", "012"):
        assert not automata.accepts(rec, bad)


def test_canonical_recognizer_equals_digit_conditions():
    # exhaustively on every word of length <= 7, against the string rule
    rec = pell.canonical_recognizer()
    for length in range(0, 8):
        if length == 0:
            assert automata.accepts(rec, "")
            continue
        powers = 3 ** np.arange(length - 1, -1, -1, dtype=np.int64)
        rows = (np.arange(3**length, dtype=np.int64)[:, None] // powers) % 3
        states = automata.run_batch(rec, rows)
        want = [R.ref_is_canonical("".join(map(str, r)).lstrip("0")) for r in rows.tolist()]
        assert rec.accepting[states].tolist() == want


def test_restrict_puts_a_dfao_on_the_domain():
    # outputs as the machine's on the words of valid_tracks(k), 0 elsewhere
    rng = np.random.default_rng(83)
    nonzero_off_domain = 0
    for n_tracks in (1, 2):
        m = 3**n_tracks
        domain = pell.valid_tracks(n_tracks)
        for _ in range(6):
            n = int(rng.integers(1, 8))
            delta = rng.integers(0, n, size=(n, m))
            machine = Dfao(TrackAlphabet(n_tracks), delta, rng.integers(0, 4, size=n))
            got = pell.restrict(machine)
            assert isinstance(got, Dfao) and automata.minimize(got) == got
            for length in range(7):
                # every word of the length, one per row, in radix order
                words = np.indices((m,) * length, dtype=np.int8).reshape(length, m**length).T
                inside = domain.accepting[automata.run_batch(domain, words)]
                outputs = machine.outputs[automata.run_batch(machine, words)]
                want = np.where(inside, outputs, 0)
                assert np.array_equal(got.outputs[automata.run_batch(got, words)], want)
                nonzero_off_domain += np.count_nonzero(outputs[~inside])
    assert nonzero_off_domain  # restrict had outputs to put to 0


@given(st.integers(0, 10**12))
def test_round_trip_property(n):
    s = pell.encode(n)
    assert pell.decode(s) == n
    assert R.ref_is_canonical(s)


@given(st.integers(0, 10**6), st.integers(0, 10**6))
def test_equal_length_padding_sorts_numerically(x, y):
    length = len(pell.encode(max(x, y)))
    sx = pell.encode(x).zfill(length)
    sy = pell.encode(y).zfill(length)
    assert (sx < sy) == (x < y)
    assert (sx == sy) == (x == y)


@given(st.lists(st.integers(0, 2), max_size=18))
@settings(max_examples=200)
def test_decode_property(digits):
    s = "".join(map(str, digits))
    assert pell.decode(s) == R.ref_decode(s)


def test_encode_batch_padding():
    values = np.array([0, 1, 4, 157])
    digits = pell.encode_batch(values, length=8)
    assert digits.shape == (4, 8)
    assert np.array_equal(pell.decode_batch(digits), values)
    assert "".join(map(str, digits[3])).lstrip("0") == "201100"


def test_encode_batch_limit_is_p50():
    p50 = pell.pell_number(50)
    assert p50 == 4866752642924153522
    digits = pell.encode_batch([p50 - 1])
    assert digits.shape == (1, 49)
    assert "".join(map(str, digits[0])) == pell.encode(p50 - 1)
    assert pell.decode_batch(digits)[0] == p50 - 1
    # padding past P_50's position still works for values below the limit
    padded = pell.encode_batch([p50 - 1, 5], length=60)
    assert np.array_equal(padded[:, 11:], pell.encode_batch([p50 - 1, 5]))
    assert not padded[:, :11].any()
    for top in (p50, 2**63 - 1):
        with pytest.raises(ValueError, match="below P_50 = 4866752642924153522"):
            pell.encode_batch([0, top])


def test_encode_batch_matches_row_major_reference():
    # int32 and int64 remainders, and lengths past every value's digits
    rng = np.random.default_rng(5)
    table = rng.integers(0, 10**6, size=(500, 3))
    table[:, 2] *= 10**9  # past the int32 range
    table[:40] = 0  # some rows encode to the empty word
    table[40, 1] = 2**31 - 1
    for order in "CF":
        cols = np.asarray(table, order=order)
        for i in range(3):
            values = cols[:, i]  # a strided view for C order
            for length in (None, 40, 45):
                got = pell.encode_batch(values, length)
                assert got.dtype == np.int8 and got.flags.f_contiguous
                assert np.array_equal(got, R.ref_encode_batch(values, length))
    for values, length in [(np.zeros(7, dtype=np.int64), None), (np.zeros(7, dtype=np.int64), 0),
                           (np.zeros(0, dtype=np.int64), None), (np.zeros(0, dtype=np.int64), 4)]:
        got = pell.encode_batch(values, length)
        want = R.ref_encode_batch(values, length)
        assert got.shape == want.shape and np.array_equal(got, want)


def test_batch_codec_takes_int8_as_it_comes():
    rng = np.random.default_rng(7)
    for length in range(0, 15):
        for count in (0, 1, 300):
            rows = rng.integers(0, 3, size=(count, length))
            for order in "CF":
                small = np.asarray(rows, dtype=np.int8, order=order)
                values = pell.decode_batch(small)
                assert values.dtype == np.int64
                assert np.array_equal(values, pell.decode_batch(rows))
                expect = [R.ref_decode("".join(map(str, r))) for r in rows]
                assert np.array_equal(values, np.array(expect, dtype=np.int64))
