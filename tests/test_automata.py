"""Automaton algebra checked against naive set-theoretic constructions."""

import hashlib
import itertools
from collections import deque

import numpy as np
import pytest

import references as R
from pelldecide import automata, learner, pell, sequences
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


def word_array(n_symbols, length):
    """Every word of a length, one per row, in radix order."""
    words = np.array(list(all_words(n_symbols, length)), dtype=np.int64)
    return words.reshape(n_symbols**length, length)


def labels_on(a, words):
    """The label of each row of ``words``: one run_batch call."""
    return a.labels[automata.run_batch(a, words)]


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


# --- the track codec ------------------------------------------------------


@pytest.mark.parametrize("n_tracks", range(6))
def test_pack_and_unpack_agree_with_index_and_digits(n_tracks):
    alphabet = TrackAlphabet(n_tracks)
    size = alphabet.size
    tracks = np.reshape(alphabet.unpack(np.arange(size)), (n_tracks, size))
    # symbols count in radix order, track 0 slowest
    radix_order = itertools.product(range(3), repeat=n_tracks)
    assert list(map(tuple, tracks.T.tolist())) == list(radix_order)
    assert alphabet.pack(tracks).tolist() == list(range(size))
    # int8 (n, L) digit arrays in either memory order; five tracks have 243
    # symbols, more than int8 holds
    digits = np.random.default_rng(n_tracks).integers(0, 3, size=(n_tracks, 40, 7), dtype=np.int8)
    for order in "CF":
        given = [np.asarray(d, order=order) for d in digits] if n_tracks else digits
        packed = alphabet.pack(given)
        assert packed.shape == (40, 7) and packed.dtype == np.min_scalar_type(-size)
        assert packed.tolist() == [
            [alphabet.index(digits[:, i, j].tolist()) for j in range(7)] for i in range(40)
        ]
        back = alphabet.unpack(np.asarray(packed, order=order))
        assert len(back) == n_tracks
        for d, b in zip(digits, back):
            assert b.dtype == packed.dtype and b.flags[f"{order}_CONTIGUOUS"]
            assert np.array_equal(b, d)


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


def twinned_machine(rng, n_tracks, dfao):
    """Random machine with twin states, unreachable states and few distinct
    targets per row, so that minimize has classes to merge."""
    m = 3**n_tracks
    n = int(rng.integers(1, 16))
    width = int(rng.choice([1, 2, 3, m]))  # distinct targets per row, at most
    delta = rng.integers(0, n, size=(n, width))[:, np.arange(m) % width]
    labels = rng.integers(0, 3 if dfao else 2, size=n)
    twins = rng.integers(0, n, size=int(rng.integers(0, n + 1)))
    lost = int(rng.integers(0, 3))
    delta = np.vstack([delta, delta[twins], rng.integers(0, n, size=(lost, m))])
    labels = np.concatenate([labels, labels[twins], rng.integers(0, 2, size=lost)])
    for i, t in enumerate(twins):  # some edges into a state go to its twin
        delta[(delta == t) & (rng.random(delta.shape) < 0.5)] = n + i
    cls = Dfao if dfao else Dfa
    return cls(TrackAlphabet(n_tracks), delta, labels, 0)


def cycle_machine(n, n_tracks, dfao):
    """An n-cycle on every symbol, label 1 at state 0 only, doubled: the
    minimal machine has n states and takes n rounds to split."""
    m = 3**n_tracks
    delta = np.repeat(((np.arange(2 * n) + 1) % (2 * n))[:, None], m, axis=1)
    labels = (np.arange(2 * n) % n == 0).astype(np.int32)
    cls = Dfao if dfao else Dfa
    return cls(TrackAlphabet(n_tracks), delta, labels, 0)


def minimize_cases():
    rng = np.random.default_rng(61)
    cases = []
    for n_tracks in (0, 1, 3, 4, 5):  # 1, 3, 27, 81 and 243 symbols
        for dfao in (False, True):
            cases += [twinned_machine(rng, n_tracks, dfao) for _ in range(25)]
            cases += [cycle_machine(n, n_tracks, dfao) for n in (1, 2, 7)]
            cls = Dfao if dfao else Dfa
            one = np.zeros((1, 3**n_tracks), dtype=np.int32)
            cases += [cls(TrackAlphabet(n_tracks), one, np.array([v])) for v in (0, 1)]
    cases += [random_dfa(rng, n_tracks=2) for _ in range(25)]
    return cases


def test_minimize_matches_round_robin_reference():
    cases = minimize_cases()
    assert any(automata.minimize(a).n_states == 1 for a in cases)
    assert any((automata._bfs_order(a.delta, a.initial) < 0).any() for a in cases)
    for a in cases:
        got = automata.minimize(a)
        assert automata.to_text(got) == automata.to_text(R.ref_minimize(a))
        assert got.n_states == naive_minimal_count(a)


def test_minimize_survives_row_hash_collisions(monkeypatch):
    # all-equal keys give every row the same hash, so every round whose rows
    # are not all equal is settled by _exact_classes
    cases = minimize_cases()
    want = [automata.to_text(automata.minimize(a)) for a in cases]
    exact_rounds = []
    exact, row_keys = automata._exact_classes, automata._row_keys

    def counted(classes, succ):
        exact_rounds.append(len(classes))
        return exact(classes, succ)

    monkeypatch.setattr(automata, "_row_keys", lambda m: np.zeros(m + 1, dtype=np.int64))
    monkeypatch.setattr(automata, "_exact_classes", counted)
    for a, text in zip(cases, want):
        before = len(exact_rounds)
        got = automata.minimize(a)
        assert automata.to_text(got) == text
        if got.n_states > 1:
            assert len(exact_rounds) > before
    assert len(exact_rounds) > len(cases)

    # keys blind to a state's own class: accepting 1 and rejecting 2 share
    # their successors, so the hashed rounds settle on a stable partition
    # that merges them, and only the check of the labels refuses it
    monkeypatch.setattr(automata, "_row_keys", lambda m: np.append(row_keys(m)[:m], 0))
    delta = np.array([[1, 2, 3], [3, 4, 4], [3, 4, 4], [3, 3, 3], [4, 4, 4]])
    merged = Dfa(TrackAlphabet(1), delta, np.array([0, 1, 0, 0, 1], dtype=bool), 0)
    before = len(exact_rounds)
    got = automata.minimize(merged)
    assert got.n_states == 5 and len(exact_rounds) > before
    assert automata.to_text(got) == automata.to_text(R.ref_minimize(merged))


def test_canonical_outputs_are_byte_identical():
    # sha256 of to_text: canonical minimize gives the same bytes for as long
    # as these languages stay the same, whatever the code path that builds them
    from pelldecide import learner

    pinned = {
        "c_alpha": (sequences.c_alpha_dfao,
                    "ca9dd95917dedac1e509e402b52e81974bd614e7bd9df0042020f8fbbf13b475"),
        "x5": (sequences.x5_dfao,
               "af67afc4a115ba3c6439d9a1ee5ae52d26bff2b6b3abb9280d22facd632a5fe6"),
        "x3": (sequences.x3_dfao,
               "2550864df7788f549425a3fb4b27997b8c18de8500a3b30899faf4d4602ddcf4"),
        "direct_adder": (learner.direct_adder,
                         "cf07748bf10449a7df07129187350daba68d4689acee1e3e81b933f1b8c89ec6"),
    }
    for name, (build, digest) in pinned.items():
        text = automata.to_text(build())
        assert hashlib.sha256(text.encode()).hexdigest() == digest, name


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
        "and": lambda p, q: p & q,
        "or": lambda p, q: p | q,
        "xor": lambda p, q: p != q,
        "implies": lambda p, q: ~p | q,
        "iff": lambda p, q: p == q,
        "andnot": lambda p, q: p & ~q,
    }
    for _ in range(12):
        a = random_dfa(rng, n_states=5)
        b = random_dfa(rng, n_states=5)
        prods = {op: automata.product(a, b, op) for op in ops}
        for length in range(6):
            words = word_array(3, length)
            pa, pb = labels_on(a, words), labels_on(b, words)
            for op, fn in ops.items():
                assert np.array_equal(labels_on(prods[op], words), fn(pa, pb)), op


def product_cases():
    """Operand pairs of one kind over 0-4 tracks: random machines with twin
    and unreachable states, a machine with itself (only the diagonal pairs
    are reachable), and one-state machines."""
    rng = np.random.default_rng(67)
    cases = []
    for n_tracks in range(5):
        for dfao in (False, True):
            machines = [twinned_machine(rng, n_tracks, dfao) for _ in range(6)]
            cls = Dfao if dfao else Dfa
            one = np.zeros((1, 3**n_tracks), dtype=np.int32)
            singles = [cls(TrackAlphabet(n_tracks), one, np.array([v])) for v in (0, 1)]
            cases += list(zip(machines[::2], machines[1::2]))
            cases += [(machines[0], machines[0]), (singles[0], singles[1])]
            cases += [(singles[1], machines[1]), (machines[2], singles[0])]
    return cases


def test_product_matches_pair_walk_reference():
    cases = product_cases()
    assert any(a is b and automata.minimize(a).n_states > 1 for a, b in cases)
    for a, b in cases:
        for op in automata._OPS:
            got = automata.product(a, b, op)
            assert automata.to_text(got) == automata.to_text(R.ref_product(a, b, op)), op


def test_product_pair_codes_are_int64(monkeypatch):
    # a.delta is int32, and a * nb + b in int32 wraps past 2^31 pairs
    seen = []
    sorted_unique = automata._sorted_unique

    def recording(values):
        seen.append(values.dtype)
        return sorted_unique(values)

    monkeypatch.setattr(automata, "_sorted_unique", recording)
    a = random_dfa(np.random.default_rng(71), n_states=6)
    automata.product(a, automata.complement(a), "or")
    assert seen and all(dtype == np.int64 for dtype in seen)


def test_complement():
    rng = np.random.default_rng(19)
    a = random_dfa(rng)
    c = automata.complement(a)
    for length in range(6):
        words = word_array(3, length)
        assert np.array_equal(labels_on(c, words), ~labels_on(a, words))
    assert c.delta is a.delta  # a frozen table is shared, not copied


def test_machines_copy_what_the_caller_can_write():
    delta = np.array([[0, 1, 1], [1, 1, 1]], dtype=np.int32)
    accepting = np.array([True, False])
    a = Dfa(TrackAlphabet(1), delta, accepting)
    delta[0, 0], accepting[0] = 1, False
    assert a.delta[0, 0] == 0 and a.accepting[0]
    assert delta.flags.writeable and accepting.flags.writeable
    assert not (a.delta.flags.writeable or a.accepting.flags.writeable)
    # a read-only view of a writeable array is copied too
    view = delta.view()
    view.flags.writeable = False
    assert not np.shares_memory(Dfa(TrackAlphabet(1), view, accepting).delta, delta)


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


def test_is_infinite_matches_kahn_reference():
    rng = np.random.default_rng(31)
    seen = set()
    for _ in range(300):
        n_tracks = int(rng.integers(0, 3))
        m = 3**n_tracks
        n = int(rng.integers(1, 14))
        if rng.random() < 0.5:
            # mostly forward edges into a sink, so many languages are finite
            delta = np.minimum(np.arange(n)[:, None] + rng.integers(1, 4, size=(n, m)), n - 1)
            back = rng.random((n, m)) < 0.03
            delta[back] = rng.integers(0, n, size=int(back.sum()))
        else:
            delta = rng.integers(0, n, size=(n, m))
        accepting = rng.random(n) < 0.3
        a = Dfa(TrackAlphabet(n_tracks), delta, accepting, 0)
        want = R.ref_is_infinite(a)
        assert automata.is_infinite(a) == want
        seen.add(want)
    assert seen == {False, True}


def test_live_state_count_matches_naive():
    rng = np.random.default_rng(29)
    for _ in range(50):
        a = random_dfa(rng)
        assert automata.live_state_count(a) == naive_live_count(a)
    assert automata.live_state_count(pell.canonical_recognizer()) == 2


def test_walks_match_the_earlier_walks():
    # _bfs_order and _distance_to against the single-purpose walks kept in
    # references: the zero orbit, project's initial closure, and distances
    # to acceptance
    rng = np.random.default_rng(67)
    for _ in range(400):
        k = int(rng.integers(1, 4))
        n = int(rng.integers(1, 12))
        accepting = rng.random(n) < rng.choice([0.0, 0.2, 0.5])
        a = Dfa(TrackAlphabet(k), rng.integers(0, n, size=(n, 3**k)), accepting,
                int(rng.integers(0, n)))
        got = np.flatnonzero(automata._bfs_order(a.delta[:, :1], a.initial) >= 0)
        assert np.array_equal(got, R.ref_zero_orbit(a.delta, a.initial))
        shaped = a.delta.reshape((n,) + (3,) * k)
        for track in range(k):
            delta3 = np.moveaxis(shaped, 1 + track, k).reshape(n, 3 ** (k - 1), 3)
            got = np.flatnonzero(automata._bfs_order(delta3[:, 0, :], a.initial) >= 0)
            assert np.array_equal(got, R.ref_project_closure(delta3, a.initial))
        got = automata._distance_to(a.delta, a.accepting)
        assert np.array_equal(got, R.ref_distance_to_accepting(a))


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
        c0 = automata.cylindrify(a, (1,), 2)  # original word on track 1
        c1 = automata.cylindrify(a, (0,), 2)  # original word on track 0
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
    swapped = automata.cylindrify(a, (1, 0), 2)
    for length in range(4):
        for u in all_words(3, length):
            for w in all_words(3, length):
                fwd = [3 * x + y for x, y in zip(u, w)]
                rev = [3 * y + x for x, y in zip(u, w)]
                assert automata.accepts(swapped, rev) == automata.accepts(a, fwd)


def test_cylindrify_matches_permute_then_insert():
    rng = np.random.default_rng(47)
    for k in range(4):
        a = random_dfa(rng, n_states=4, n_tracks=k)
        m = Dfao(a.alphabet, a.delta, rng.integers(0, 3, size=a.n_states), 0)
        for total in range(k, 6):
            for positions in itertools.permutations(range(total), k):
                for machine in (a, m):
                    got = automata.cylindrify(machine, positions, total)
                    assert got == R.ref_place_tracks(machine, positions, total), (positions, total)


def test_cylindrify_rejects_bad_placements():
    a = random_dfa(np.random.default_rng(53), n_states=3, n_tracks=2)
    for positions, total in [((0,), 2), ((0, 0), 2), ((0, 2), 2), ((-1, 0), 2), ((0, 1, 2), 3)]:
        with pytest.raises(ValueError):
            automata.cylindrify(a, positions, total)


def test_product_of_dfaos_compares_outputs():
    rng = np.random.default_rng(59)
    for _ in range(6):
        a, b = random_dfao(rng), random_dfao(rng)
        same = automata.product(a, b, "iff")
        for length in range(5):
            words = word_array(3, length)
            want = labels_on(a, words) == labels_on(b, words)
            assert np.array_equal(labels_on(same, words), want)


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


def sinks_of(delta3, accepting):
    """Rejecting states whose every choice loops back to themselves."""
    n = len(delta3)
    return (delta3.reshape(n, -1) == np.arange(n)[:, None]).all(axis=1) & ~accepting


def edge_nfas(rng, n_tracks, width):
    """NFAs on each branch of the live-key construction, as (delta3,
    initial, accepting)."""
    m = 3**n_tracks
    delta3, initial, accepting = random_nfa(rng, n_tracks, width)
    n = len(delta3)
    # two sinks, n and n + 1, after the random states
    sinks = np.arange(n, n + 2)
    with_sinks = np.concatenate([delta3, np.broadcast_to(sinks[:, None, None], (2, m, width))])
    acc = np.concatenate([accepting, [False, False]])
    # an initial set of dead states only: the empty language
    yield with_sinks, np.array([n + 1, n, n + 1]), acc
    # a (state, symbol) whose every choice is a sink, and a state whose
    # every choice on every symbol is; the initial set holds a sink too
    dead_ends = with_sinks.copy()
    dead_ends[rng.integers(0, n), rng.integers(0, m)] = rng.choice(sinks, size=width)
    dead_ends[rng.integers(0, n)] = rng.choice(sinks, size=(m, width))
    yield dead_ends, np.append(initial, n), acc
    # repeated choices, each list padded with its first target as
    # logic._regex_dfa pads them; n is the sink
    padded = np.full((n + 1, m, width), n)
    for q in range(n):
        for s in range(m):
            ts = sorted(set(rng.integers(0, n + 1, size=int(rng.integers(1, width + 1))).tolist()))
            padded[q, s] = ts + ts[:1] * (width - len(ts))
    yield padded, initial, np.append(accepting, False)
    # no sink: every rejecting state has a choice that leaves it, and state
    # n loops on every choice but accepts
    no_sink = np.concatenate([delta3, np.full((1, m, width), n)])
    no_sink[:n, 0, 0] = (np.arange(n) + 1) % n
    no_sink[rng.integers(0, n), rng.integers(0, m), 0] = n
    acc = np.append(accepting, True)
    acc[0] |= n == 1
    yield no_sink, initial, acc
    # the pruning's relation below: a fork (state, symbol) reaches a pair
    # of new states under its first two choices, and the initial set holds
    # both; here the second of the pair is a copy of a random state, so the
    # two have one language and only the index keeps one
    acc = np.append(accepting, [False, False])
    q, s, t = rng.integers(0, n), rng.integers(0, m), rng.integers(0, n)
    twins = np.concatenate([with_sinks, with_sinks[t : t + 1]])
    twins[twins == t] = rng.choice([t, n + 2], size=int((twins == t).sum()))
    twins[q, s, :2] = [t, n + 2][:width]
    yield twins, np.append(initial, [t, n + 2]), np.append(acc, acc[t])
    # a rejecting state 0 whose every choice is a sink, but not itself a
    # sink: its language is empty, and it comes first
    empty = np.concatenate([np.full((1, m, width), n + 1), with_sinks + 1])
    empty[1 + q, s, 0] = 0
    empty[1 + rng.integers(0, n, size=4), rng.integers(0, m, size=4), 0] = 0
    yield empty, np.append(initial + 1, 0), np.append(False, acc)
    # the new state accepts the empty word and reads like a random one
    # otherwise, so their languages strictly nest; on another symbol the
    # fork state reaches only the smaller
    nested = np.concatenate([with_sinks, with_sinks[t : t + 1]])
    nested[q, (s + 1) % m] = t
    nested[q, s, :2] = [t, n + 2][:width]
    acc = acc.copy()
    acc[t] = False
    yield nested, np.append(initial, q), np.append(acc, True)


@pytest.mark.parametrize("batch_keys", [1 << 22, 40])
@pytest.mark.parametrize("width", [1, 2, 3])
@pytest.mark.parametrize("n_tracks", [0, 1, 2, 3])
def test_determinize_matches_frozenset_construction(monkeypatch, n_tracks, width, batch_keys):
    # 1, 3, 9 and 27 symbols; small batches split every level into many
    monkeypatch.setattr(automata, "_BATCH_KEYS", batch_keys)
    rng = np.random.default_rng(1000 * n_tracks + 10 * width)
    alphabet = TrackAlphabet(n_tracks)
    cases = [random_nfa(rng, n_tracks, width) for _ in range(12)]
    edges = list(edge_nfas(rng, n_tracks, width))
    assert [sinks_of(d, a).any() for d, _, a in edges] == [True, True, True, False, True, True, True]
    for delta3, initial, accepting in cases + edges:
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

    # subsets are looked up by their member bytes, so only a pruned walk's
    # memo hashes: small batches build the relation, and the memo must
    # settle the runs whose hashes collide member by member
    monkeypatch.setattr(automata, "_BATCH_KEYS", 40)
    settled, pruned = [], []
    intern = automata._Memo.intern
    monkeypatch.setattr(automata._Memo, "intern", lambda *args: settled.append(1) or intern(*args))
    prune = automata._prune
    monkeypatch.setattr(automata, "_prune", lambda keys, bits, dominators: pruned.append(
        dominators is not None) or prune(keys, bits, dominators))
    for n_tracks, width in [(1, 2), (1, 3), (2, 3)]:
        alphabet = TrackAlphabet(n_tracks)
        nfas = [random_nfa(rng, n_tracks, width) for _ in range(8)]
        for delta3, initial, accepting in nfas + list(edge_nfas(rng, n_tracks, width)):
            got = automata._determinize(delta3, initial, accepting, alphabet)
            assert got == frozenset_determinize(delta3, initial, accepting, alphabet)
    assert any(pruned) and settled


def raw_rows(monkeypatch) -> list[int]:
    """From now on, the row count of every raw table that goes to the
    quotient: in a subset construction, its subsets and the dead row."""
    rows = []
    quotient = automata._quotient
    monkeypatch.setattr(automata, "_quotient", lambda *args: rows.append(len(args[2])) or quotient(*args))
    return rows


@pytest.mark.parametrize("collide", [False, True])
def test_memoized_pruning_builds_the_subsets_of_per_candidate_pruning(monkeypatch, collide):
    # small batches build the relation, and the memo prunes each distinct
    # run once; the reference prunes every candidate's run on its own.  Both
    # must store the same subsets, so the raw tables have as many rows
    monkeypatch.setattr(automata, "_BATCH_KEYS", 40)
    if collide:  # every set of one size hashes alike
        monkeypatch.setattr(automata, "_zobrist_keys", lambda n: np.full(n, 77, dtype=np.uint64))
    assert np.array_equal(automata._Memo(automata._zobrist_keys(3), None).find(
        np.arange(2, dtype=np.uint64)), [-1, -1])
    rng = np.random.default_rng(89)
    cases = []
    for n_tracks, width in [(1, 2), (1, 3), (2, 2), (2, 3)]:
        nfas = [random_nfa(rng, n_tracks, width) for _ in range(8)]
        cases += [(*nfa, TrackAlphabet(n_tracks)) for nfa in nfas + list(edge_nfas(rng, n_tracks, width))]
    rows = raw_rows(monkeypatch)
    pruned = []
    prune = automata._prune
    monkeypatch.setattr(automata, "_prune", lambda keys, *rest: pruned.append(len(keys)) or prune(keys, *rest))
    expand = automata._expand

    def build(expander):
        monkeypatch.setattr(automata, "_expand", expander)
        rows.clear()
        pruned.clear()
        machines = [automata._determinize(*case) for case in cases]
        return machines, list(rows), sum(pruned)

    want, want_rows, want_keys = build(R.ref_expand)
    got, got_rows, got_keys = build(expand)
    assert got == want
    assert got_rows == want_rows
    # the relation was built and pruned some walks, and the memo saved work
    assert 0 < got_keys < want_keys


def sinky_dfa(rng, n_tracks):
    """Random DFA of at most 12 states whose last state is a sink that about
    half the edges enter, with a copy of one state among the others."""
    n = int(rng.integers(2, 12))
    delta = rng.integers(0, n, size=(n, 3**n_tracks))
    delta[rng.random(delta.shape) < 0.5] = n - 1
    delta[n - 1] = n - 1
    accepting = rng.random(n) < 0.3
    accepting[n - 1] = False
    twin = int(rng.integers(0, n))
    delta = np.vstack([delta, delta[twin]])
    delta[(delta == twin) & (rng.random(delta.shape) < 0.5)] = n
    return Dfa(TrackAlphabet(n_tracks), delta, np.append(accepting, accepting[twin]), 0)


def test_dominators_are_inclusions():
    # the DFA's last track is the choice; a reported pair (x, y) must be an
    # inclusion of the DFA languages from x and from y, which bound the NFA's
    rng = np.random.default_rng(67)
    reported = 0
    for _ in range(300):
        a = sinky_dfa(rng, int(rng.integers(1, 3)))
        n = a.n_states
        delta3 = a.delta.reshape(n, -1, 3)
        found = automata._dominators(delta3, a.accepting, sinks_of(delta3, a.accepting))
        if found is None:
            continue
        count, start, dom = found
        pairs = set(zip(np.repeat(np.arange(n), count).tolist(), dom.tolist()))
        for x, y in pairs:
            assert (y, x) not in pairs
            from_x, from_y = (Dfa(a.alphabet, a.delta, a.accepting, q) for q in (x, y))
            assert automata.is_empty(automata.product(from_x, from_y, "andnot"))
        assert all(dom[start[x] : start[x] + count[x]].tolist() == sorted(
            y for p, y in pairs if p == x) for x in range(n))
        reported += len(pairs)
    assert reported > 300


def test_relation_past_the_pair_budget_leaves_the_construction_unpruned(monkeypatch):
    monkeypatch.setattr(automata, "_BATCH_KEYS", 40)
    alphabet = TrackAlphabet(2)
    delta3, initial, accepting = list(edge_nfas(np.random.default_rng(71), 2, 2))[4]  # twins
    sink = sinks_of(delta3, accepting)
    want = frozenset_determinize(delta3, initial, accepting, alphabet)
    assert automata._dominators(delta3, accepting, sink) is not None
    monkeypatch.setattr(automata, "MAX_PAIRS", len(delta3) ** 2 - 1)
    assert automata._dominators(delta3, accepting, sink) is None
    assert automata._determinize(delta3, initial, accepting, alphabet) == want


def test_subset_budget(monkeypatch):
    from pelldecide import learner

    adder = learner.direct_adder()
    assert automata.project(adder, 0).n_states == 7  # so at least 7 subsets
    monkeypatch.setattr(automata, "MAX_SUBSETS", 6)
    with pytest.raises(automata.SubsetBudgetError, match="6 subsets"):
        automata.project(adder, 0)
    assert issubclass(automata.SubsetBudgetError, ValueError)


def test_a_memo_past_the_subset_budget_starts_again(monkeypatch):
    # the x5 factor tail's largest projection has a raw table of 6,805 rows
    # (6,804 subsets and the dead row) and meets 26,476 distinct unpruned
    # runs; a budget between the two only clears the memo, which then holds
    # no more runs than the budget and one batch's
    from pelldecide import logic

    inputs = []
    project = automata.project
    monkeypatch.setattr(automata, "project", lambda a, t: inputs.append((a, t)) or project(a, t))
    logic.compile(logic.parse("?msd_pell Aj (j + p < n) => X[i + j] = X[i + j + p]"),
                  logic.Environment())
    monkeypatch.setattr(automata, "project", project)
    a, track = max(inputs, key=lambda i: i[0].n_states)
    memos = []

    class Memo(automata._Memo):
        def __init__(self, *args):
            super().__init__(*args)
            memos.append(self)

    monkeypatch.setattr(automata, "_Memo", Memo)
    rows = raw_rows(monkeypatch)
    want = automata.project(a, track)
    assert rows == [6805] and [memo.count for memo in memos] == [26476]
    budget = 10_000
    monkeypatch.setattr(automata, "MAX_SUBSETS", budget)
    memos.clear()
    assert automata.to_text(automata.project(a, track)) == automata.to_text(want)
    assert rows == [6805] * 2
    assert len(memos) >= 3 and max(memo.count for memo in memos) < 2 * budget


# --- running and enumeration --------------------------------------------------


def test_run_batch_matches_run():
    rng = np.random.default_rng(53)
    a = random_dfa(rng, n_states=7)
    words = rng.integers(0, 3, size=(200, 6))
    states = automata.run_batch(a, words)
    for row, s in zip(words, states):
        state = a.initial  # one symbol at a time
        for symbol in row:
            state = a.delta[state, symbol]
        assert automata.run(a, row) == s == state


def test_words_outside_the_alphabet_are_a_value_error():
    rec, x5 = pell.canonical_recognizer(), sequences.x5_dfao()
    for word in ([-1], [3], "13", [0, 1, 2, 1 << 40]):
        with pytest.raises(ValueError, match="outside"):
            automata.accepts(rec, word)
    with pytest.raises(ValueError, match="symbol -1 is outside the alphabet of 3 symbols"):
        automata.dfao_eval(x5, [1, -1])
    adder = learner.direct_adder()
    with pytest.raises(ValueError, match="symbol 27 is outside"):
        automata.run(adder, [0, 27])
    assert automata.run(adder, [(0, 0, 0), (2, 0, 2)]) == automata.run(adder, [0, 20])
    assert automata.accepts(rec, "201100") and automata.accepts(rec, [])


def test_run_batch_matches_the_2d_index():
    from pelldecide import learner

    rng = np.random.default_rng(54)
    machines = [random_dfa(rng, n_tracks=t) for t in (1, 2, 3) for _ in range(4)]
    machines += [random_dfao(rng) for _ in range(6)]
    machines += [learner.direct_adder(), sequences.x5_dfao()]
    for a in machines:
        m = a.delta.shape[1]
        for length in (0, 1, 7):
            words = rng.integers(0, m, size=(300, length)).astype(np.int8)
            got = automata.run_batch(a, words)
            assert got.dtype == np.int32
            assert np.array_equal(got, R.ref_run_batch(a, words))


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


def test_enumeration_skips_states_that_cannot_accept(monkeypatch):
    # 4 states: "12" leads to acceptance, every other edge to a dead state
    a = exact_word_dfa("12")
    kept, grown = [], automata._grown

    def spy(digits, *rest):
        kept.extend(map(tuple, digits.T.tolist()))  # one column per prefix
        return grown(digits, *rest)

    monkeypatch.setattr(automata, "_grown", spy)
    assert automata.enumerate_words(a, 12) == [(1, 2)]
    # the prefixes the walk keeps and grows, length after length
    assert kept == [(), (1,), (1, 2)]


def test_enumeration_matches_brute_force_past_the_state_count():
    rng = np.random.default_rng(61)
    for _ in range(60):
        a = random_dfa(rng, n_states=int(rng.integers(2, 5)))
        for max_len in (0, 3, a.n_states + 2, 7):
            # every word of a length runs through one batch, in radix order
            brute = []
            for length in range(max_len + 1):
                words = word_array(3, length)
                accepted = words[labels_on(a, words)]
                brute += [tuple(w) for w in accepted.tolist()]
            assert automata.enumerate_words(a, max_len) == brute


# --- serialization -------------------------------------------------------------


INT32 = np.iinfo(np.int32)


def arithmetic_table(n, n_tracks):
    return (np.arange(n * 3**n_tracks).reshape(n, -1) * 7 + 3) % n


# the edges of the text form: no track and three tracks, an initial state
# other than 0, and outputs at both ends of int32
EDGE_MACHINES = [
    Dfa(TrackAlphabet(0), arithmetic_table(3, 0), np.array([False, True, False]), 2),
    Dfa(TrackAlphabet(3), arithmetic_table(4, 3), np.array([True, False, False, True]), 1),
    Dfao(TrackAlphabet(0), arithmetic_table(2, 0), np.array([INT32.min, INT32.max]), 1),
    Dfao(TrackAlphabet(3), arithmetic_table(5, 3), np.array([INT32.max, 0, -7, INT32.min, 3]), 3),
]


def assert_text_round_trip(a):
    """from_text(to_text(a)) is ``a`` with states 0 and ``a.initial`` swapped."""
    b = automata.from_text(automata.to_text(a))
    swap = np.arange(a.n_states)
    swap[[0, a.initial]] = [a.initial, 0]
    assert type(b) is type(a) and b.alphabet == a.alphabet and b.initial == 0
    assert np.array_equal(b.delta[swap], swap[a.delta])
    assert np.array_equal(b.labels[swap], a.labels)


def test_text_round_trip_dfa(tmp_path):
    rng = np.random.default_rng(59)
    cases = [pell.canonical_recognizer(), random_dfa(rng), random_dfa(rng, n_tracks=2),
             random_dfa(rng, n_tracks=0), random_dfa(rng, n_tracks=3)]
    cases.append(Dfa(cases[1].alphabet, cases[1].delta, cases[1].accepting, cases[1].n_states - 1))
    for a in cases + [e for e in EDGE_MACHINES if isinstance(e, Dfa)]:
        assert_text_round_trip(a)
    path = tmp_path / "rec.txt"
    automata.save_text(pell.canonical_recognizer(), path)
    assert R.same_automaton(automata.load_text(path), pell.canonical_recognizer())


def test_text_round_trip_dfao(tmp_path):
    m = sequences.x5_dfao()
    rng = np.random.default_rng(60)
    cases = [m, sequences.x3_dfao(), random_dfao(rng), permuted(random_dfao(rng), rng)]
    for a in cases + [e for e in EDGE_MACHINES if isinstance(e, Dfao)]:
        assert_text_round_trip(a)
    path = tmp_path / "x5.txt"
    automata.save_text(m, path)
    assert R.same_automaton(automata.load_text(path), m)


def test_to_dot_smoke():
    text = automata.to_dot(pell.canonical_recognizer(), name="rec")
    assert "digraph" in text and "rec" in text


def test_to_dot_is_pinned():
    # sha256 of to_dot, taken before its symbols were spelled from one table
    machines = [(pell.canonical_recognizer(), "rec"), (sequences.x5_dfao(), "automaton"),
                (pell.valid_tracks(2), "automaton")] + [(m, "automaton") for m in EDGE_MACHINES]
    digests = [hashlib.sha256(automata.to_dot(m, name=name).encode()).hexdigest()
               for m, name in machines]
    assert digests == [
        "d8755c1804340aa261f149942f3f3c5348a34fe14ae4977555649aa7b59f0dbf",
        "22556abafde63d796fe6b426ed240249e0f4a9f4d6d4c48dd6e2cbd42a7b4f39",
        "61fd02f0ef27f2caeb432c746f8d61becc864699338e574cfe63873f10547de8",
        "9514c4a0c2376437dcba60acb0d8e8b36c1a61af1bd22bdc682da472b3dfdeba",
        "6df1388f5cb01400b7935454461384466a830aea9a48f0ac9810c7497d082413",
        "7b87bf75cbcfc3f0ef9640a9f366fea508e45babfb9e04ba214f3f232fc7cf63",
        "2dbdb65dc40a5b354e68b83e219dc4a06864bca058caa499aba4fc1b312f0990",
    ]


GOOD_TEXT = ("msd_pell\nstate 0 accepting\n[0] -> 0\n[1] -> 1\n[2] -> 1\n"
             "state 1\n[0] -> 1\n[1] -> 1\n[2] -> 1\n")
TWO_TRACKS = automata.to_text(pell.valid_tracks(2))


def edited(old, new, text=GOOD_TEXT):
    return text.replace(old, new, 1)


# a line that to_text never writes, and what the refusal names
REFUSED_TEXTS = {
    "symbol with a space": (edited("[0,1] ->", "[0, 1] ->", TWO_TRACKS), "state 0"),
    "two attributes": (edited("state 0 accepting", "state 0 accepting output 1"),
                       "'state 0 accepting output 1'"),
    "output with no value": (edited("state 0 accepting", "state 0 output"), "'state 0 output'"),
    "unknown attribute": (edited("state 0 accepting", "state 0 final"), "'state 0 final'"),
    "transition before a state": (edited("msd_pell\n", "msd_pell\n[0] -> 0\n"), "'[0] -> 0'"),
    "states out of order": (edited("state 1", "state 2"), "'state 2'"),
    "missing symbol": (edited("[2] -> 1\nstate 1", "state 1"), "state 0"),
    "symbol of another track count": (
        edited("state 1\n[0] -> 1\n[1] -> 1\n[2] -> 1",
               "state 1\n[0,0] -> 1\n[1,0] -> 1\n[2,0] -> 1"),
        "state 1",
    ),
    "output and plain states": (edited("state 0 accepting", "state 0 output 4"), "state 1"),
    "number past int32": (edited("[1] -> 1", "[1] -> 2147483648"), "'[1] -> 2147483648'"),
    "missing header": (edited("msd_pell\n", ""), "'state 0 accepting'"),
    "target past the last state": (edited("[1] -> 1", "[1] -> 2"), "'[1] -> 2'"),
    "negative target": (edited("[2] -> 1\nstate 1", "[2] -> -1\nstate 1"), "'[2] -> -1'"),
    "no state": ("msd_pell\n# no states\n", "state 0"),
}


def test_from_text_reads_the_good_text():
    a = automata.from_text(GOOD_TEXT)
    assert automata.to_text(a) == GOOD_TEXT
    assert R.same_automaton(automata.from_text(TWO_TRACKS), pell.valid_tracks(2))


@pytest.mark.parametrize("text,named", REFUSED_TEXTS.values(), ids=REFUSED_TEXTS.keys())
def test_from_text_refuses_lines_to_text_never_writes(text, named):
    with pytest.raises(ValueError) as refused:
        automata.from_text(text)
    assert type(refused.value) is ValueError and named in str(refused.value)
