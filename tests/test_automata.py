"""Automaton algebra checked against naive set-theoretic constructions."""

import itertools
from collections import deque

import numpy as np
import pytest

import references as R
from pelldecide import automata, pell, sequences
from pelldecide.automata import Dfa, Dfao, TrackAlphabet


def random_dfa(rng, n_states=None, n_tracks=1):
    n = int(n_states if n_states is not None else rng.integers(2, 10))
    size = 3**n_tracks
    delta = rng.integers(0, n, size=(n, size)).astype(np.int32)
    accepting = rng.random(n) < 0.4
    if not accepting.any():
        accepting[rng.integers(0, n)] = True
    return Dfa(TrackAlphabet(n_tracks), delta, accepting, 0)


def random_dfao(rng):
    """Moore machine with outputs in 0..2, a twin of the initial state that
    some edges use in its place, and one unreachable state."""
    n = int(rng.integers(2, 9))
    delta = rng.integers(0, n, size=(n, 3))
    outputs = rng.integers(0, 3, size=n)
    twin, unreachable = n, n + 1
    delta[(delta == 0) & (rng.random((n, 3)) < 0.5)] = twin
    delta = np.vstack([delta, delta[0], rng.integers(0, n + 2, size=3)])
    outputs = np.append(outputs, [outputs[0], rng.integers(0, 3)])
    return Dfao(TrackAlphabet(1), delta, outputs, 0)


def permuted(a, rng):
    """The same machine with its states renumbered at random."""
    perm = rng.permutation(a.n_states)
    inv = np.argsort(perm)
    return Dfao(a.alphabet, perm[a.delta[inv]], a.outputs[inv], int(perm[a.initial]))


def all_words(n_symbols, length):
    return itertools.product(range(n_symbols), repeat=length)


def words_up_to(n_symbols, max_len):
    for length in range(max_len + 1):
        yield from all_words(n_symbols, length)


def exact_word_dfa(word):
    """Accepts exactly the given 1-track digit string."""
    symbols = [int(c) for c in word]
    n = len(symbols) + 2
    delta = np.full((n, 3), n - 1, dtype=np.int32)
    for i, s in enumerate(symbols):
        delta[i, s] = i + 1
    accepting = np.zeros(n, dtype=bool)
    accepting[len(symbols)] = True
    return Dfa(TrackAlphabet(1), delta, accepting, 0)


# --- naive counterparts ----------------------------------------------------


def naive_reachable(a):
    seen = {a.initial}
    stack = [a.initial]
    while stack:
        s = stack.pop()
        for c in range(a.alphabet.size):
            t = int(a.delta[s, c])
            if t not in seen:
                seen.add(t)
                stack.append(t)
    return seen


def labels(a):
    """What tells states apart from the start: acceptance, or the output."""
    return a.accepting if isinstance(a, Dfa) else a.outputs


def naive_minimal_count(a):
    """States of the minimal complete automaton, by pair marking."""
    states = sorted(naive_reachable(a))
    idx = {s: i for i, s in enumerate(states)}
    m = len(states)
    distinct = [[labels(a)[p] != labels(a)[q] for q in states] for p in states]
    changed = True
    while changed:
        changed = False
        for i in range(m):
            for j in range(i + 1, m):
                if distinct[i][j]:
                    continue
                for c in range(a.alphabet.size):
                    ti = idx[int(a.delta[states[i], c])]
                    tj = idx[int(a.delta[states[j], c])]
                    if ti != tj and distinct[min(ti, tj)][max(ti, tj)]:
                        distinct[i][j] = True
                        changed = True
                        break
    count = 0
    for i in range(m):
        if not any(not distinct[j][i] for j in range(i)):
            count += 1
    return count


def naive_equivalent(a, b):
    seen = {(a.initial, b.initial)}
    dq = deque(seen)
    while dq:
        p, q = dq.popleft()
        if labels(a)[p] != labels(b)[q]:
            return False
        for c in range(a.alphabet.size):
            t = (int(a.delta[p, c]), int(b.delta[q, c]))
            if t not in seen:
                seen.add(t)
                dq.append(t)
    return True


def naive_live_count(a):
    reach = naive_reachable(a)
    co = set(np.flatnonzero(a.accepting))
    changed = True
    while changed:
        changed = False
        for s in range(a.n_states):
            if s in co:
                continue
            if any(int(a.delta[s, c]) in co for c in range(a.alphabet.size)):
                co.add(s)
                changed = True
    return len(reach & co)


# --- minimize / equivalence ------------------------------------------------


def test_minimize_matches_pair_marking():
    rng = np.random.default_rng(7)
    for a in [random_dfa(rng) for _ in range(100)] + [random_dfao(rng) for _ in range(100)]:
        m = automata.minimize(a)
        assert type(m) is type(a)
        assert m.n_states == naive_minimal_count(a)
        assert naive_equivalent(a, m)


def test_minimize_is_canonical():
    # byte-identical tables whenever the languages coincide
    rng = np.random.default_rng(11)
    for _ in range(40):
        a = random_dfa(rng)
        b = automata.complement(automata.complement(a))
        c = automata.product(a, a, "or")
        ma, mb, mc = map(automata.minimize, (a, b, c))
        assert R.same_automaton(ma, mb)
        assert R.same_automaton(ma, mc)
        assert R.same_automaton(ma, automata.minimize(ma))
    for _ in range(40):
        a = random_dfao(rng)
        ma, mb = automata.minimize(a), automata.minimize(permuted(a, rng))
        assert ma.n_states < a.n_states  # the twin merged, the unreachable state gone
        assert R.same_automaton(ma, mb)
        assert R.same_automaton(ma, automata.minimize(ma))


def test_equivalent_matches_naive():
    rng = np.random.default_rng(13)
    agree = disagree = 0
    for _ in range(120):
        a = random_dfa(rng, n_states=4)
        b = random_dfa(rng, n_states=4)
        want = naive_equivalent(a, b)
        assert automata.equivalent(a, b) == want
        agree += want
        disagree += not want
        assert automata.equivalent(a, automata.minimize(a))
    assert disagree > 0  # the sample actually exercised both outcomes


# --- boolean products -------------------------------------------------------


def test_product_implements_boolean_ops():
    rng = np.random.default_rng(17)
    ops = {
        "and": lambda p, q: p and q,
        "or": lambda p, q: p or q,
        "xor": lambda p, q: p != q,
        "implies": lambda p, q: (not p) or q,
        "iff": lambda p, q: p == q,
        "andnot": lambda p, q: p and not q,
    }
    for _ in range(12):
        a = random_dfa(rng, n_states=5)
        b = random_dfa(rng, n_states=5)
        prods = {op: automata.product(a, b, op) for op in ops}
        for w in words_up_to(3, 5):
            pa, pb = automata.accepts(a, w), automata.accepts(b, w)
            for op, fn in ops.items():
                assert automata.accepts(prods[op], w) == fn(pa, pb)


def test_complement():
    rng = np.random.default_rng(19)
    a = random_dfa(rng)
    c = automata.complement(a)
    for w in words_up_to(3, 5):
        assert automata.accepts(c, w) != automata.accepts(a, w)


# --- emptiness, finiteness, liveness ----------------------------------------


def test_is_empty():
    never = Dfa(TrackAlphabet(1), np.zeros((1, 3), dtype=np.int32), np.array([False]))
    always = Dfa(TrackAlphabet(1), np.zeros((1, 3), dtype=np.int32), np.array([True]))
    assert automata.is_empty(never)
    assert not automata.is_empty(always)
    assert automata.is_empty(automata.product(always, never, "and"))


def test_is_infinite():
    assert automata.is_infinite(pell.canonical_recognizer())
    assert not automata.is_infinite(exact_word_dfa("12"))
    # finite union of words stays finite
    u = automata.product(exact_word_dfa("12"), exact_word_dfa("201"), "or")
    assert not automata.is_infinite(u)


def test_is_infinite_matches_pumping_window():
    # infinite iff some accepted word has length in [n, 2n) for the minimal n
    rng = np.random.default_rng(23)
    for _ in range(30):
        a = automata.minimize(random_dfa(rng, n_states=4))
        n = a.n_states
        found = False
        for length in range(n, 2 * n):
            powers = 3 ** np.arange(length - 1, -1, -1, dtype=np.int64)
            rows = (np.arange(3**length, dtype=np.int64)[:, None] // powers) % 3
            if a.accepting[automata.run_batch(a, rows)].any():
                found = True
                break
        assert automata.is_infinite(a) == found


def test_live_state_count_matches_naive():
    rng = np.random.default_rng(29)
    for _ in range(50):
        a = random_dfa(rng)
        assert automata.live_state_count(a) == naive_live_count(a)
    assert automata.live_state_count(pell.canonical_recognizer()) == 2


# --- track operations --------------------------------------------------------


def test_projection_is_existential():
    # the erased track may run longer; the kept word is then zero-padded
    rng = np.random.default_rng(31)
    for _ in range(6):
        a = random_dfa(rng, n_states=4, n_tracks=2)
        for track in (0, 1):
            proj = automata.project(a, track)
            assert proj.alphabet.n_tracks == 1
            for length in range(3):
                for w in all_words(3, length):
                    want = False
                    for extra in range(a.n_states + 1):
                        padded = (0,) * extra + tuple(w)
                        for u in all_words(3, extra + length):
                            pair = (
                                [3 * x + y for x, y in zip(u, padded)]
                                if track == 0
                                else [3 * x + y for x, y in zip(padded, u)]
                            )
                            if automata.accepts(a, pair):
                                want = True
                                break
                        if want:
                            break
                    assert automata.accepts(proj, w) == want


def test_projection_of_the_addition_relation():
    from pelldecide import learner

    adder = learner.adder()  # tracks (x, y, z)
    no_z = automata.project(adder, 2)
    no_x = automata.project(adder, 0)
    values = np.arange(301)
    xs, ys = map(np.ravel, np.meshgrid(values, values))
    digits_x = pell.encode_batch(xs, length=8)
    digits_y = pell.encode_batch(ys, length=8)
    pairs = digits_x * 3 + digits_y
    # a sum always exists, even when its digits outrun both summands
    assert no_z.accepting[automata.run_batch(no_z, pairs)].all()
    # some first summand exists iff y <= z
    got = no_x.accepting[automata.run_batch(no_x, pairs)]
    assert np.array_equal(got, xs <= ys)


def test_cylindrify_inserts_a_free_track():
    rng = np.random.default_rng(37)
    for _ in range(8):
        a = random_dfa(rng, n_states=5)
        c0 = automata.cylindrify(a, 0)  # original word on track 1
        c1 = automata.cylindrify(a, 1)  # original word on track 0
        assert c0.alphabet.n_tracks == c1.alphabet.n_tracks == 2
        for length in range(4):
            for u in all_words(3, length):
                for w in all_words(3, length):
                    pair = [3 * x + y for x, y in zip(u, w)]
                    assert automata.accepts(c0, pair) == automata.accepts(a, w)
                    assert automata.accepts(c1, pair) == automata.accepts(a, u)


def test_permute_tracks():
    rng = np.random.default_rng(41)
    a = random_dfa(rng, n_states=6, n_tracks=2)
    swapped = automata.permute_tracks(a, (1, 0))
    for length in range(4):
        for u in all_words(3, length):
            for w in all_words(3, length):
                fwd = [3 * x + y for x, y in zip(u, w)]
                rev = [3 * y + x for x, y in zip(u, w)]
                assert automata.accepts(swapped, rev) == automata.accepts(a, fwd)


def test_zero_saturate_strips_expected_leading_zeros():
    rng = np.random.default_rng(43)
    candidates = [exact_word_dfa("0012"), exact_word_dfa("12")] + [
        random_dfa(rng, n_states=4) for _ in range(10)
    ]
    for a in candidates:
        sat = automata.zero_saturate(a)
        for w in words_up_to(3, 5):
            want = any(
                automata.accepts(a, (0,) * k + tuple(w)) for k in range(a.n_states + 1)
            )
            assert automata.accepts(sat, w) == want


def test_zero_pad_closure_adds_leading_zeros():
    rng = np.random.default_rng(47)
    candidates = [exact_word_dfa("12")] + [random_dfa(rng, n_states=4) for _ in range(10)]
    for a in candidates:
        pad = automata.zero_pad_closure(a)
        for w in words_up_to(3, 5):
            want = any(
                all(s == 0 for s in w[:k]) and automata.accepts(a, w[k:])
                for k in range(len(w) + 1)
            )
            assert automata.accepts(pad, w) == want


# --- subset construction ------------------------------------------------------


def frozenset_determinize(delta3, initial, accepting, alphabet):
    """Textbook subset construction, one frozenset per DFA state."""
    start = frozenset(int(q) for q in initial)
    ids = {start: 0}
    order = [start]
    rows = []
    for current in order:  # grows while it is walked
        row = []
        for s in range(delta3.shape[1]):
            target = frozenset(int(t) for q in current for t in delta3[q, s])
            if target not in ids:
                ids[target] = len(order)
                order.append(target)
            row.append(ids[target])
        rows.append(row)
    acc = np.array([any(accepting[q] for q in subset) for subset in order])
    return automata.minimize(Dfa(alphabet, np.array(rows), acc, 0))


def random_nfa(rng, n_tracks, width):
    n = int(rng.integers(1, 13))
    delta3 = rng.integers(0, n, size=(n, 3**n_tracks, width))
    accepting = rng.random(n) < 0.3
    initial = rng.choice(n, size=int(rng.integers(1, 3)), replace=True)
    return delta3, initial, accepting


@pytest.mark.parametrize("batch_keys", [1 << 22, 40])
@pytest.mark.parametrize("width", [1, 2, 3])
@pytest.mark.parametrize("n_tracks", [0, 1, 2, 3])
def test_determinize_matches_frozenset_construction(monkeypatch, n_tracks, width, batch_keys):
    # 1, 3, 9 and 27 symbols; small batches split every level into many
    monkeypatch.setattr(automata, "_BATCH_KEYS", batch_keys)
    rng = np.random.default_rng(1000 * n_tracks + 10 * width)
    alphabet = TrackAlphabet(n_tracks)
    for _ in range(12):
        delta3, initial, accepting = random_nfa(rng, n_tracks, width)
        got = automata._determinize(delta3, initial, accepting, alphabet)
        assert got == frozenset_determinize(delta3, initial, accepting, alphabet)


def test_determinize_survives_hash_collisions(monkeypatch):
    from pelldecide import learner

    # equal keys give every subset of one size the same hash
    rng = np.random.default_rng(59)
    cases = [random_nfa(rng, 1, 2) for _ in range(20)]
    adder = learner.direct_adder()
    want = [automata._determinize(d, i, a, TrackAlphabet(1)) for d, i, a in cases]
    want_proj = [automata.project(adder, t) for t in range(3)]
    monkeypatch.setattr(automata, "_zobrist_keys", lambda n: np.full(n, 77, dtype=np.uint64))
    for (delta3, initial, accepting), expected in zip(cases, want):
        got = automata._determinize(delta3, initial, accepting, TrackAlphabet(1))
        assert got == expected
        assert got == frozenset_determinize(delta3, initial, accepting, TrackAlphabet(1))
    assert [automata.project(adder, t) for t in range(3)] == want_proj


def test_subset_budget(monkeypatch):
    from pelldecide import learner

    adder = learner.direct_adder()
    assert automata.project(adder, 0).n_states == 7  # so at least 7 subsets
    monkeypatch.setattr(automata, "MAX_SUBSETS", 6)
    with pytest.raises(automata.SubsetBudgetError, match="6 subsets"):
        automata.project(adder, 0)
    assert issubclass(automata.SubsetBudgetError, ValueError)


# --- running and enumeration --------------------------------------------------


def test_run_batch_matches_run():
    rng = np.random.default_rng(53)
    a = random_dfa(rng, n_states=7)
    words = rng.integers(0, 3, size=(200, 6))
    states = automata.run_batch(a, words)
    for row, s in zip(words, states):
        assert automata.run(a, row) == s


def test_dfao_eval_digit_sum():
    # Moore machine computing digit sum mod 3
    delta = np.array([[(s + d) % 3 for d in range(3)] for s in range(3)], dtype=np.int32)
    m = Dfao(TrackAlphabet(1), delta, np.arange(3))
    for n in range(500):
        assert automata.dfao_eval(m, n) == sum(int(c) for c in pell.encode(n)) % 3


def test_enumeration_orders_and_agrees():
    rec = pell.canonical_recognizer()
    words = automata.enumerate_words(rec, 3)
    brute = [w for w in words_up_to(3, 3) if automata.accepts(rec, w)]
    assert words == brute
    assert automata.enumerate_accepted(rec, 2) == ["", "0", "1", "00", "01", "10", "11", "20"]


def test_word_parsing_round_trip():
    alpha = TrackAlphabet(2)
    assert alpha.size == 9
    for word in all_words(9, 3):
        text = automata.format_word(alpha, word)
        assert automata.parse_word(alpha, text) == word
    single = TrackAlphabet(1)
    assert automata.parse_word(single, "102") == (1, 0, 2)
    assert automata.format_word(single, (1, 0, 2)) == "102"


# --- serialization -------------------------------------------------------------


def test_text_round_trip_dfa(tmp_path):
    rng = np.random.default_rng(59)
    for a in (pell.canonical_recognizer(), random_dfa(rng), random_dfa(rng, n_tracks=2)):
        b = automata.from_text(automata.to_text(a))
        assert isinstance(b, Dfa)
        assert R.same_automaton(a, b)
    path = tmp_path / "rec.txt"
    automata.save_text(pell.canonical_recognizer(), path)
    assert R.same_automaton(automata.load_text(path), pell.canonical_recognizer())


def test_text_round_trip_dfao(tmp_path):
    m = sequences.x5_dfao()
    b = automata.from_text(automata.to_text(m))
    assert isinstance(b, Dfao)
    assert R.same_automaton(m, b)
    path = tmp_path / "x5.txt"
    automata.save_text(m, path)
    assert R.same_automaton(automata.load_text(path), m)


def test_to_dot_smoke():
    text = automata.to_dot(pell.canonical_recognizer(), name="rec")
    assert "digraph" in text and "rec" in text
