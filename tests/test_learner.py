"""Active learning of automata, and the addition relation it produces."""

import itertools

import numpy as np
import pytest

import references as R
from pelldecide import automata, learner, pell, sequences
from pelldecide.automata import Dfa, Dfao, TrackAlphabet


def exact_equivalence(target):
    """Counterexample oracle that searches lengths in increasing order."""

    def check(hypothesis):
        diff = automata.product(hypothesis, target, "xor")
        if automata.is_empty(diff):
            return None
        for length in itertools.count():
            for w in itertools.product(range(3), repeat=length):
                if automata.accepts(diff, w):
                    return w

    return check


def values_of(machine):
    return machine.outputs if isinstance(machine, Dfao) else machine.accepting


TRACKS = {1: 0, 3: 1, 9: 2, 27: 3}


def all_words(n_symbols):
    """The one-state domain that accepts every word."""
    delta = np.zeros((1, n_symbols), dtype=np.int32)
    return Dfa(TrackAlphabet(TRACKS[n_symbols]), delta, np.array([True]))


def every_word(n_symbols, length):
    """All words of a length in radix order, one per row."""
    words = itertools.product(range(n_symbols), repeat=length)
    return np.array(list(words), dtype=np.int64).reshape(n_symbols**length, length)


def oracle_of(machine, changed=()):
    """Batch oracle: the machine's values, changed on the words in ``changed``.

    The first query of a length runs every word of that length once; later
    queries look their words up by radix rank, so a one-word query costs no
    run of the machine.
    """
    n_symbols = machine.alphabet.size
    tables = {}

    def table(length):
        if length not in tables:
            # one row per word of the length: keep the tables small
            assert n_symbols**length <= 3**13, (n_symbols, length)
            weights = n_symbols ** np.arange(length - 1, -1, -1)
            got = values_of(machine)[automata.run_batch(machine, every_word(n_symbols, length))]
            flips = sorted({int(np.dot(w, weights)) for w in changed if len(w) == length})
            if got.dtype == bool:
                got[flips] ^= True
            else:
                got[flips] += 1
            tables[length] = weights, got
        return tables[length]

    def batch(words):
        weights, values = table(words.shape[1])
        return values[words @ weights]

    return batch


def learn_exactly(target):
    return lambda: learner.lstar(oracle_of(target), all_words(3), exact_equivalence(target))


def ends_in_two():
    delta = np.array([[0, 0, 1], [0, 0, 1]], dtype=np.int32)
    return Dfa(TrackAlphabet(1), delta, np.array([False, True]))


def even_ones():
    delta = np.array([[0, 1, 0], [1, 0, 1]], dtype=np.int32)
    return Dfa(TrackAlphabet(1), delta, np.array([True, False]))


def digit_sum():
    delta = np.array([[(s + d) % 3 for d in range(3)] for s in range(3)], dtype=np.int32)
    return Dfao(TrackAlphabet(1), delta, np.arange(3))


@pytest.mark.parametrize(
    "target", [ends_in_two(), even_ones(), pell.canonical_recognizer()],
    ids=["ends-in-2", "even-1s", "canonical"],
)
def test_lstar_recovers_small_languages(target):
    learned = learn_exactly(target)()
    assert R.same_automaton(automata.minimize(learned), automata.minimize(target))


def learn_digit_sum():
    target = digit_sum()

    def equivalence(h):
        return learner.bounded_equiv(h, oracle_of(target), max_len=8, domain=all_words(3))

    return learner.lstar_moore(oracle_of(target), all_words(3), equivalence)


def test_lstar_moore_recovers_digit_sum():
    learned = learn_digit_sum()
    for n in range(300):
        assert automata.dfao_eval(learned, n) == automata.dfao_eval(digit_sum(), n)


@pytest.mark.parametrize(
    "target, learn", [(ends_in_two(), learner.lstar), (digit_sum(), learner.lstar_moore)],
    ids=["dfa", "dfao"],
)
def test_lstar_rejects_a_word_the_hypothesis_gets_right(target, learn):
    asked = []

    def equivalence(h):
        asked.append(h)
        return ()  # every hypothesis agrees with the table on its empty prefix

    with pytest.raises(ValueError, match="not a counterexample"):
        learn(oracle_of(target), all_words(3), equivalence)
    assert len(asked) == 1


def learned_with_rounds(monkeypatch, learn):
    """Run ``learn``, which calls lstar or lstar_moore once, and the per-word
    reference engine on the same oracles.  Each side gives the learned machine
    and its rounds: the table's hypothesis and the counterexample."""
    hypotheses, counterexamples, reference = [], [], []
    hypothesis = learner.ObservationTable.hypothesis

    def recorded_hypothesis(table):
        hypotheses.append(hypothesis(table))
        return hypotheses[-1]

    def spy(engine, kind):
        def run(oracle, domain, equivalence):
            def recorded_equivalence(h):
                counterexamples.append(equivalence(h))
                return counterexamples[-1]

            def per_word(word):
                # the target is zero off the domain
                if not automata.accepts(domain, word):
                    return 0
                return oracle(np.array(word, dtype=np.int8).reshape(1, len(word)))[0].item()

            reference.append(R.ref_lstar(per_word, domain, equivalence, kind))
            return engine(oracle, domain, recorded_equivalence)

        return run

    monkeypatch.setattr(learner.ObservationTable, "hypothesis", recorded_hypothesis)
    monkeypatch.setattr(learner, "lstar", spy(learner.lstar, Dfa))
    monkeypatch.setattr(learner, "lstar_moore", spy(learner.lstar_moore, Dfao))
    learned = learn()
    [ref] = reference
    return (learned, list(zip(hypotheses, counterexamples))), ref


@pytest.mark.parametrize(
    "learn",
    [
        learn_exactly(ends_in_two()),
        learn_exactly(even_ones()),
        learn_exactly(pell.canonical_recognizer()),
        learn_digit_sum,
        lambda: sequences.learn_word_dfao(sequences.X3_BLOCKS),
        lambda: learner.learn_adder(max_len=3),
    ],
    ids=["ends-in-2", "even-1s", "canonical", "digit-sum", "x3", "adder-3"],
)
def test_batched_table_matches_per_word_reference(monkeypatch, learn):
    (learned, rounds), (ref_learned, ref_rounds) = learned_with_rounds(monkeypatch, learn)
    assert len(rounds) == len(ref_rounds)
    for ((delta, values, initial), ce), ((ref_delta, ref_values, ref_initial), ref_ce) in zip(
        rounds, ref_rounds
    ):
        assert np.array_equal(delta, ref_delta)
        assert values == ref_values and initial == ref_initial
        assert ce == ref_ce
    assert automata.to_text(learned) == automata.to_text(ref_learned)


def test_bounded_equiv_reports_smallest_mismatch():
    target = automata.minimize(pell.canonical_recognizer())
    mutant = R.flip_accepting(target, 1)
    ce = learner.bounded_equiv(mutant, oracle_of(target), domain=all_words(3))
    assert ce is not None
    assert automata.accepts(mutant, ce) != automata.accepts(target, ce)
    # radix order: no shorter or lexicographically earlier mismatch exists
    for length in range(len(ce) + 1):
        for w in itertools.product(range(3), repeat=length):
            if length == len(ce) and tuple(w) >= tuple(ce):
                break
            assert automata.accepts(mutant, w) == automata.accepts(target, w)


def test_bounded_equiv_passes_identical_languages():
    target = automata.minimize(pell.canonical_recognizer())
    same = automata.complement(automata.complement(target))
    assert learner.bounded_equiv(same, oracle_of(target), domain=all_words(3)) is None


def test_bounded_equiv_rejects_negative_lengths():
    target = automata.minimize(even_ones())
    with pytest.raises(ValueError):
        learner.bounded_equiv(target, oracle_of(target), max_len=-1, domain=all_words(3))


class FirstCall(Exception):
    """Raised by ``counting`` on its first call."""


def counting(calls):
    """Batch oracle that records each call and stops the sweep at the first."""

    def batch(words):
        calls.append(words.shape)
        raise FirstCall

    return batch


@pytest.mark.parametrize(
    "n_symbols, max_len", [(27, 7), (3, 19)], ids=["27-symbols-7", "3-symbols-19"]
)
def test_bounded_equiv_refuses_sweeps_past_27_to_the_6(n_symbols, max_len):
    hyp = random_machine(np.random.default_rng(n_symbols), n_symbols, moore=False)
    calls, domain = [], all_words(n_symbols)
    with pytest.raises(ValueError, match="27\\^6"):
        learner.bounded_equiv(hyp, counting(calls), max_len, domain=domain)
    assert calls == []
    # one length less is within the limit: the sweep starts with the empty word
    with pytest.raises(FirstCall):
        learner.bounded_equiv(hyp, counting(calls), max_len - 1, domain=domain)
    assert calls == [(1, 0)]


# --- the domain sweep against a run of every word ------------------------------


def reference_sweep(hypothesis, oracle, n_symbols, max_len):
    """Radix-least mismatch, running every word from the initial state."""
    for length in range(max_len + 1):
        words = every_word(n_symbols, length)
        states = automata.run_batch(hypothesis, words)
        bad = np.flatnonzero(values_of(hypothesis)[states] != oracle(words))
        if len(bad):
            return tuple(map(int, words[bad[0]]))
    return None


def random_machine(rng, n_symbols, moore):
    n = int(rng.integers(1, 7))
    alphabet = TrackAlphabet(TRACKS[n_symbols])
    delta = rng.integers(0, n, size=(n, n_symbols)).astype(np.int32)
    initial = int(rng.integers(0, n))
    if moore:
        return Dfao(alphabet, delta, rng.integers(0, 3, size=n).astype(np.int32), initial)
    return Dfa(alphabet, delta, rng.random(n) < 0.5, initial)


def check_piece(words, domain, chunk):
    """A piece the oracle is handed: at most ``chunk`` read-only, column-major
    int8 rows, every one of them a word of ``domain``."""
    assert words.dtype == np.int8 and len(words) <= chunk
    assert words.flags.f_contiguous and not words.flags.writeable
    with pytest.raises(ValueError):
        words[...] = 0
    assert domain.accepting[automata.run_batch(domain, words)].all()


def swept(hypothesis, batch, n_symbols, max_len, chunk, domain=None):
    """bounded_equiv's answer, checking the pieces the oracle is handed, and
    a copy of each piece."""
    domain = all_words(n_symbols) if domain is None else domain
    pieces = []

    def checked(words):
        check_piece(words, domain, chunk)
        pieces.append(words.copy())
        return batch(words)

    ce = learner.bounded_equiv(hypothesis, checked, max_len, domain=domain)
    return ce, pieces


def by_length(pieces, max_len):
    """The rows of the pieces of each length up to max_len, in order."""
    return [
        np.concatenate([p for p in pieces if p.shape[1] == length] or [np.zeros((0, length))])
        for length in range(max_len + 1)
    ]


def domain_words(domain, n_symbols, length):
    words = every_word(n_symbols, length)
    return words[domain.accepting[automata.run_batch(domain, words)]]


MAX_LEN = {1: 8, 3: 6, 9: 4, 27: 3}


@pytest.mark.parametrize("chunk", [automata._WALK_CHUNK, 5], ids=["chunk-default", "chunk-5"])
@pytest.mark.parametrize("moore", [False, True], ids=["dfa", "dfao"])
@pytest.mark.parametrize("n_symbols", [1, 3, 9, 27])
def test_sweep_matches_reference(monkeypatch, n_symbols, moore, chunk):
    monkeypatch.setattr(automata, "_WALK_CHUNK", chunk)
    rng = np.random.default_rng(1000 * n_symbols + 10 * moore + (chunk == 5))
    max_len = MAX_LEN[n_symbols]
    for _ in range(8):
        hyp = random_machine(rng, n_symbols, moore)
        lengths = rng.integers(0, max_len + 1, size=int(rng.integers(1, 4)))
        changed = [tuple(int(s) for s in rng.integers(0, n_symbols, size=k)) for k in lengths]
        targets = [
            oracle_of(random_machine(rng, n_symbols, moore)),
            oracle_of(hyp),
            oracle_of(hyp, changed),
        ]
        for batch in targets:
            ce, _ = swept(hyp, batch, n_symbols, max_len, chunk)
            assert ce == reference_sweep(hyp, batch, n_symbols, max_len)
        # the hypothesis agrees with itself, so every piece was handed out,
        # each of at most chunk rows (checked in swept): those of a length
        # are every word of that length, in radix order
        ce, pieces = swept(hyp, targets[1], n_symbols, max_len, chunk)
        assert ce is None
        for length, words in enumerate(by_length(pieces, max_len)):
            assert np.array_equal(words, every_word(n_symbols, length))


def on_domain(batch, domain):
    """``batch`` on the words of ``domain``, and the zero label off it."""

    def answer(words):
        inside = domain.accepting[automata.run_batch(domain, words)]
        return np.where(inside, batch(words), 0).astype(batch(words[:0]).dtype)

    return answer


@pytest.mark.parametrize("chunk", [automata._WALK_CHUNK, 5], ids=["chunk-default", "chunk-5"])
@pytest.mark.parametrize("moore", [False, True], ids=["dfa", "dfao"])
@pytest.mark.parametrize("n_symbols", [3, 9, 27])
def test_domain_sweep_matches_reference(monkeypatch, n_symbols, moore, chunk):
    """Over the padded canonical words, a hypothesis that is zero off the
    domain is asked only on the domain, and the answer is still that of a
    run of every word."""
    monkeypatch.setattr(automata, "_WALK_CHUNK", chunk)
    rng = np.random.default_rng(2000 * n_symbols + 10 * moore + (chunk == 5))
    max_len = MAX_LEN[n_symbols]
    domain = pell.valid_tracks(TRACKS[n_symbols])
    inside = [domain_words(domain, n_symbols, length) for length in range(max_len + 1)]
    found = set()
    for _ in range(16):
        h = R.ref_restricted(random_machine(rng, n_symbols, moore), domain)
        lengths = rng.integers(0, max_len + 1, size=int(rng.integers(1, 5)))
        changed = [tuple(int(s) for s in rng.integers(0, n_symbols, size=k)) for k in lengths]
        changed += [
            tuple(int(s) for s in inside[k][rng.integers(0, len(inside[k]))])
            for k in lengths if len(inside[k])
        ]
        targets = [
            on_domain(oracle_of(random_machine(rng, n_symbols, moore)), domain),
            on_domain(oracle_of(h), domain),
            on_domain(oracle_of(h, changed), domain),
        ]
        for batch in targets:
            ce, pieces = swept(h, batch, n_symbols, max_len, chunk, domain)
            assert ce == reference_sweep(h, batch, n_symbols, max_len)
            found.add(None if ce is None else automata.accepts(domain, ce))
            if ce is None:
                # every word of the domain was handed out, in radix order
                for length, words in enumerate(by_length(pieces, max_len)):
                    assert np.array_equal(words, inside[length])
    # counterexamples came up, all on the domain, and None did too
    assert found == {None, True}


def finite_language(words):
    """The 1-track DFA accepting exactly ``words``: a trie and a dead state."""
    trie = {(): 0}
    for w in words:
        for cut in range(1, len(w) + 1):
            trie.setdefault(w[:cut], len(trie))
    dead = len(trie)
    delta = np.full((dead + 1, 3), dead, dtype=np.int32)
    for prefix, state in trie.items():
        if prefix:
            delta[trie[prefix[:-1]], prefix[-1]] = state
    accepting = np.zeros(dead + 1, dtype=bool)
    accepting[[trie[w] for w in words]] = True
    return Dfa(TrackAlphabet(1), delta, accepting)


def test_bounded_equiv_rejects_a_hypothesis_nonzero_off_the_domain():
    """A hypothesis that accepts 21, which no track may spell, is refused
    before the oracle is asked anything."""
    calls = []
    with pytest.raises(ValueError, match="nonzero on a word off the domain"):
        learner.bounded_equiv(finite_language([(2, 1)]), counting(calls), 6,
                              domain=pell.valid_tracks(1))
    assert calls == []


def test_bounded_equiv_rejects_a_domain_over_other_symbols():
    hyp = random_machine(np.random.default_rng(9), 9, moore=False)
    calls = []
    with pytest.raises(ValueError, match="the hypothesis reads 2 tracks, the domain 1"):
        learner.bounded_equiv(hyp, counting(calls), 4, domain=pell.valid_tracks(1))
    assert calls == []


@pytest.mark.parametrize(
    "chunk", [1, 2, 4, 5, 9, automata._WALK_CHUNK],
    ids=["chunk-1", "chunk-2", "chunk-4", "chunk-5", "chunk-9", "chunk-default"],
)
@pytest.mark.parametrize("n_symbols", [1, 3, 9, 27])
def test_radix_pieces_match_reference(monkeypatch, n_symbols, chunk):
    """The radix walk over the product of a hypothesis and a domain, the
    table bounded_equiv walks, hands out the words of the domain and their
    product states, as a run of every word finds them, in read-only int8
    column-major pieces of at most chunk words."""
    monkeypatch.setattr(automata, "_WALK_CHUNK", chunk)
    rng = np.random.default_rng(10 * n_symbols + chunk % 7)
    max_len = MAX_LEN[n_symbols]
    domains = [all_words(n_symbols), pell.valid_tracks(TRACKS[n_symbols])]
    domains += [random_machine(rng, n_symbols, moore=False) for _ in range(2)]
    for moore in (False, True):
        hyp = random_machine(rng, n_symbols, moore)
        for domain in domains:
            delta, initial = learner._pairs(hyp, domain)
            inside = np.tile(domain.accepting, hyp.n_states)
            pieces = list(automata._radix_walk(delta, initial, inside, max_len))
            for words, states in pieces:
                check_piece(words, domain, chunk)
                assert len(states) == len(words) and states.dtype == delta.dtype
            ref = R.ref_domain_words(hyp, domain, n_symbols, max_len)
            for length, (ref_words, ref_states) in enumerate(ref):
                at = [(w, st) for w, st in pieces if w.shape[1] == length]
                words = np.concatenate([w for w, _ in at] or [np.zeros((0, length))])
                assert np.array_equal(words, ref_words)
                states = np.concatenate([st for _, st in at] or [np.zeros(0, delta.dtype)])
                # pair h * n + d: hypothesis state h, domain state d
                hyp_states, domain_states = np.divmod(states, domain.n_states)
                assert np.array_equal(hyp_states, ref_states)
                assert np.array_equal(domain_states, R.ref_run_batch(domain, ref_words))


def answering(shape_of):
    """Batch oracle whose answer to n words has shape ``shape_of(n)``."""
    return lambda words: np.zeros(shape_of(len(words)), dtype=bool)


BAD_SHAPES = pytest.mark.parametrize(
    "shape_of", [lambda n: (n, 1), lambda n: (n - 1,), lambda n: (n + 1,), lambda n: ()],
    ids=["column", "short", "long", "scalar"],
)


@BAD_SHAPES
def test_bounded_equiv_rejects_answers_not_one_per_row(shape_of):
    hyp = automata.minimize(even_ones())
    with pytest.raises(ValueError, match=r"one oracle answer per word, shape \(1,\)"):
        learner.bounded_equiv(hyp, answering(shape_of), max_len=2, domain=all_words(3))


@BAD_SHAPES
def test_table_rejects_answers_not_one_per_row(shape_of):
    table = learner.ObservationTable(answering(shape_of), all_words(3))
    with pytest.raises(ValueError, match=r"one oracle answer per word, shape \(1,\)"):
        table.closed()


@pytest.mark.parametrize("n_symbols", [3, 27])
def test_sweep_finds_mismatch_in_last_piece_of_a_level(monkeypatch, n_symbols):
    monkeypatch.setattr(automata, "_WALK_CHUNK", 4)
    rng = np.random.default_rng(n_symbols)
    max_len = MAX_LEN[n_symbols]
    for moore in (False, True):
        hyp = random_machine(rng, n_symbols, moore)
        for length in range(1, max_len + 1):
            last_piece_start = (n_symbols**length - 1) // 4 * 4
            for index in range(last_piece_start, n_symbols**length):
                word = np.unravel_index(index, (n_symbols,) * length)
                word = tuple(int(s) for s in word)
                batch = oracle_of(hyp, [word])
                ce, _ = swept(hyp, batch, n_symbols, max_len, 4)
                assert ce == word == reference_sweep(hyp, batch, n_symbols, max_len)


# --- the addition relation ----------------------------------------------------


def test_direct_adder_shape():
    adder = learner.direct_adder()
    assert adder.alphabet.n_tracks == 3
    assert adder.alphabet.size == 27
    assert adder.n_states == 17
    assert automata.live_state_count(adder) == 16


def adder_words(xs, ys, zs, length):
    dx = pell.encode_batch(xs, length=length)
    dy = pell.encode_batch(ys, length=length)
    dz = pell.encode_batch(zs, length=length)
    return dx * 9 + dy * 3 + dz


def check_adder_against_arithmetic(adder, limit, wrong_per_pair=20, seed=0, block=100):
    """All x, y <= limit: x + y = z accepted, random z != x + y rejected."""
    rng = np.random.default_rng(seed)
    length = len(pell.encode(2 * limit + 1))
    values = np.arange(limit + 1, dtype=np.int64)
    for lo in range(0, limit + 1, block):
        xs = np.repeat(values[lo : lo + block], limit + 1)
        ys = np.tile(values, len(xs) // (limit + 1))
        zs = xs + ys
        words = adder_words(xs, ys, zs, length)
        assert adder.accepting[automata.run_batch(adder, words)].all()

        wrong = rng.integers(0, 2 * limit + 1, size=(len(xs), wrong_per_pair))
        wrong += wrong == zs[:, None]  # bump collisions off the true sum
        flat_x = np.repeat(xs, wrong_per_pair)
        flat_y = np.repeat(ys, wrong_per_pair)
        words = adder_words(flat_x, flat_y, wrong.ravel(), length)
        assert not adder.accepting[automata.run_batch(adder, words)].any()


def test_direct_adder_agrees_with_arithmetic_small():
    check_adder_against_arithmetic(learner.direct_adder(), 400, wrong_per_pair=4)


def test_adder_oracle_matches_decode():
    rng = np.random.default_rng(3)
    for _ in range(200):
        length = int(rng.integers(0, 7))
        word = tuple(int(s) for s in rng.integers(0, 27, size=length))
        digits = np.array(word, dtype=np.int64).reshape(1, -1)
        x = pell.decode("".join(str(s // 9) for s in word))
        y = pell.decode("".join(str((s // 3) % 3) for s in word))
        z = pell.decode("".join(str(s % 3) for s in word))
        valid = (
            R.ref_valid_digits(digits // 9).item()
            and R.ref_valid_digits((digits // 3) % 3).item()
            and R.ref_valid_digits(digits % 3).item()
        )
        # the learner asks the oracle only words of the domain
        if valid:
            assert learner.adder_oracle_batch(digits).tolist() == [x + y == z]
    # a row's value does not depend on the rows asked with it
    batch = rng.integers(0, 27, size=(500, 5))
    got = learner.adder_oracle_batch(batch)
    for row, g in zip(batch, got):
        assert learner.adder_oracle_batch(row.reshape(1, -1))[0] == g


def batches_to_compare(rng, n_symbols, max_len):
    """Every word up to max_len in radix order, in int8 and int64, and random
    batches of both types with zero rows and of length 0."""
    for length in range(max_len + 1):
        words = np.indices((n_symbols,) * length).reshape(length, n_symbols**length).T
        yield np.asfortranarray(words, dtype=np.int8)
        yield np.ascontiguousarray(words, dtype=np.int64)
    for length in range(max_len + 4):
        for count in (0, 1, 1000):
            words = rng.integers(0, n_symbols, size=(count, length))
            yield words
            yield np.asfortranarray(words.astype(np.int8))


def test_adder_oracle_matches_decode_every_row_reference():
    rng = np.random.default_rng(27)
    domain = pell.valid_tracks(3)
    for words in batches_to_compare(rng, 27, 4):
        got = learner.adder_oracle_batch(words)
        assert got.dtype == bool
        # the learner asks the oracle only words of the domain
        inside = domain.accepting[automata.run_batch(domain, words)]
        assert np.array_equal(got[inside], R.ref_adder_oracle_batch(words)[inside])


def test_table_asks_each_word_once(monkeypatch):
    """learn_adder's table asks the oracle once per word length per fill."""
    oracle, sweep = learner.adder_oracle_batch, learner.bounded_equiv
    asked = []

    def recorder(words):
        asked.append(words)
        return oracle(words)

    monkeypatch.setattr(learner, "adder_oracle_batch", recorder)
    # the equivalence sweeps ask every short word again, so they get the oracle
    monkeypatch.setattr(
        learner,
        "bounded_equiv",
        lambda hyp, _, max_len, domain: sweep(hyp, oracle, max_len, domain=domain),
    )
    learner.learn_adder(max_len=4)
    assert all(words.ndim == 2 and words.dtype == np.int8 for words in asked)
    words = [tuple(w) for batch in asked for w in batch.tolist()]
    assert len(words) == len(set(words))
    assert len(asked) <= 200


def recording(oracle, asked):
    """``oracle``, keeping a copy of every batch it is asked."""

    def answer(words):
        asked.append(np.array(words))
        return oracle(words)

    return answer


def test_oracles_are_asked_only_domain_words(monkeypatch):
    """Every row that the table fills and the equivalence sweeps send to an
    oracle is a word of ``pell.valid_tracks(k)``."""
    asked = {3: [], 1: []}
    adder_oracle, word_oracle = learner.adder_oracle_batch, sequences._word_oracle
    monkeypatch.setattr(learner, "adder_oracle_batch", recording(adder_oracle, asked[3]))
    monkeypatch.setattr(
        sequences, "_word_oracle", lambda blocks: recording(word_oracle(blocks), asked[1])
    )
    learner.learn_adder(max_len=4)
    sequences.learn_word_dfao(sequences.X3_BLOCKS)
    for k, batches in asked.items():
        domain = pell.valid_tracks(k)
        assert batches
        for words in batches:
            assert domain.accepting[automata.run_batch(domain, words)].all()


def test_every_hypothesis_is_empty_off_the_domain(monkeypatch):
    """Each hypothesis L* hands its equivalence query, the learned machine
    last, is zero on every word off its domain, at every length."""
    handed, sweep = [], learner.bounded_equiv

    def recorded(hyp, oracle, max_len, *, domain):
        handed.append((hyp, domain))
        return sweep(hyp, oracle, max_len, domain=domain)

    monkeypatch.setattr(learner, "bounded_equiv", recorded)
    learner.learn_adder(max_len=4)
    sequences.learn_word_dfao(sequences.X5_BLOCKS)
    sequences.learn_word_dfao(sequences.X3_BLOCKS)
    assert {domain.alphabet.n_tracks for _, domain in handed} == {1, 3}
    for hyp, domain in handed:
        nonzero = Dfa(hyp.alphabet, hyp.delta, hyp.labels != 0, hyp.initial)
        assert automata.is_empty(automata.product(nonzero, automata.complement(domain)))


def test_every_table_prefix_is_one_hypothesis_state(monkeypatch):
    """A counterexample enters the table as suffix columns, so at every
    hypothesis the prefixes' rows are pairwise distinct and each prefix is
    one state of the hypothesis."""
    seen, hypothesis = [], learner.ObservationTable.hypothesis

    def recorded(table):
        delta, values, initial = hypothesis(table)
        rows = {table.row(p) for p in table.prefixes}
        seen.append((table.n_symbols, len(table.prefixes), len(rows), len(delta), len(values)))
        return delta, values, initial

    monkeypatch.setattr(learner.ObservationTable, "hypothesis", recorded)
    learner.learn_adder(max_len=4)
    sequences.learn_word_dfao(sequences.X5_BLOCKS)
    sequences.learn_word_dfao(sequences.X3_BLOCKS)
    assert {n_symbols for n_symbols, *_ in seen} == {3, 27}
    for _, n_prefixes, n_rows, n_states, n_values in seen:
        assert n_prefixes == n_rows == n_states == n_values


def test_learned_adder_equals_direct(learned_adder):
    direct = learner.direct_adder()
    assert R.same_automaton(
        automata.minimize(learned_adder), automata.minimize(direct)
    )
    assert learned_adder.n_states == 17
    assert automata.live_state_count(learned_adder) == 16


def test_adder_accessor_is_shared():
    assert learner.adder() is learner.adder()
    assert automata.equivalent(learner.adder(), learner.direct_adder())
