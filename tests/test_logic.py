"""Predicate parsing and compilation to track automata."""

import hashlib
import itertools
import json
import os
import re
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

import references as R
import strategies
from pelldecide import automata, learner, logic, pell, sequences, theorems
from pelldecide.automata import Dfa, Dfao, TrackAlphabet
from pelldecide.logic import (
    CompileError,
    PBin,
    PCmp,
    PQuant,
    PSeqPair,
    PredicateSyntaxError,
    TAdd,
    TConst,
    TMul,
    TVar,
)

CORPUS = [
    "?msd_pell x < y & (Az (z <= x) | (z >= y))",
    "?msd_pell Ax,z ((x + 0 = z) <=> (x = z))",
    "?msd_pell Ei,p,n (p >= 1) & (2*n = 3*p) & (Aj (j + p < n) => X[i + j] = X[i + j + p])",
    "?msd_pell Ei (p > 10) & (2*n + 4 >= 3*p) & (Aj (j + p < n) => X[i + j] = X[i + j + p])",
    "?msd_pell Ei (p >= 1) & (Aj (5*j <= 8*p) => X[i + j] = X[i + j + p])",
    "?msd_pell Ei (Aj (j < n) => X[i + j] = X[i + j + p]) & (X[i + n] != X[i + n + p])",
    "~(Ex x = 1) | (X[0] = X[1] <=> 2*q = q + q)",
    *theorems.VERIFICATION_PREDICATES.values(),
]


def x5_env():
    return logic.Environment().with_sequence("X", sequences.x5_dfao())


def grid(rel, box, chunk=2_000_000):
    k = len(rel.tracks)
    rows = np.indices((box + 1,) * k).reshape(k, -1).T
    out = np.empty(len(rows), dtype=bool)
    for lo in range(0, len(rows), chunk):
        out[lo : lo + chunk] = logic.relation_accepts_batch(rel, rows[lo : lo + chunk])
    return out.reshape((box + 1,) * k)


# --- parsing -----------------------------------------------------------------


def test_precedence_shapes():
    ast = logic.parse("x = 0 | x = 1 & x = 2")
    assert isinstance(ast, PBin) and ast.op == "|"
    assert isinstance(ast.right, PBin) and ast.right.op == "&"

    ast = logic.parse("x = 0 => x = 1 => x = 2")  # right associative
    assert ast.op == "=>" and isinstance(ast.right, PBin) and ast.right.op == "=>"

    ast = logic.parse("x = 0 <=> x = 1 => x = 2")  # iff binds loosest
    assert ast.op == "<=>" and ast.right.op == "=>"

    ast = logic.parse("~ x = 0 & x = 1")  # negation binds tighter than &
    assert ast.op == "&" and isinstance(ast.left, logic.PNot)


def test_quantifier_takes_maximal_scope():
    ast = logic.parse("Ex x = 1 & x = 2")
    assert isinstance(ast, PQuant) and ast.kind == "E" and ast.names == ("x",)
    assert isinstance(ast.body, PBin) and ast.body.op == "&"
    assert logic.eval_closed("?msd_pell Ex x = 1 & x = 2") is False
    assert logic.eval_closed("?msd_pell (Ex x = 1) & (Ex x = 2)") is True


def test_quantifier_letter_lexing():
    # an identifier starting with A or E always begins a quantifier
    assert logic.eval_closed("?msd_pell Enormous normous = 0") is True
    assert logic.eval_closed("?msd_pell Apple pple = pple") is True
    ast = logic.parse("Ax, y, z x + y <= z")
    assert isinstance(ast, PQuant) and ast.names == ("x", "y", "z")


def test_term_ast():
    ast = logic.parse("2*n + m = k")
    assert ast == PCmp("=", TAdd(TMul(2, TVar("n")), TVar("m")), TVar("k"))
    assert logic.parse("x + y + z = w").left == TAdd(TAdd(TVar("x"), TVar("y")), TVar("z"))
    assert logic.parse("0 = 0").left == TConst(0)


def test_syntax_errors_carry_positions():
    cases = [
        "?msd_pell x < ",
        "(x < y",
        "x = y = z",
        "x - y = z",
        "x * y = z",
        "2*(x + y) = z",
        "?msd_fib x = y",
        "x <",
        "= y",
        "Ex",
    ]
    for text in cases:
        with pytest.raises(PredicateSyntaxError) as err:
            logic.parse(text)
        assert re.search(r"line \d+, column \d+", str(err.value))


@pytest.mark.parametrize(
    "text", ["(" * 3000 + "x = 0" + ")" * 3000, "~" * 3000 + "x = 0"],
    ids=["parentheses", "negations"],
)
def test_parse_of_a_deeply_nested_predicate_is_a_syntax_error(text):
    with pytest.raises(PredicateSyntaxError, match="the predicate nests too deeply") as info:
        logic.parse(text)
    # the position is the token the parser had reached, inside the nesting
    assert info.value.line == 1 and 1 < info.value.column < 3000


def test_rebinding_a_variable_is_rejected():
    # the error points at the name at fault
    cases = [("Ex (Ex x = x)", 6), ("Ax Ex x < x", 5), ("Ex, x x = x", 5),
             ("Ax (Ey (Ex x = y))", 10), ("Ax,y Ey x < y", 7)]
    for text, column in cases:
        with pytest.raises(PredicateSyntaxError) as err:
            logic.parse(text)
        assert (err.value.line, err.value.column) == (1, column), text
    # sibling binders may reuse a name; only nesting is banned
    assert logic.eval_closed("?msd_pell (Ex x = 1) & (Ex x = 2)") is True


def _parsed(parse, text):
    try:
        return parse(text)
    except PredicateSyntaxError:
        return "rejected"


@given(strategies.predicate_texts())
@example("x = 0 <=> x = 1 => x = 2 | x = 3 & ~x = 4 => x = 5 <=> x = 6")
@example("Ex x = 0 & (Ey y = x) | (Ey y = 1) => Ez,x z = x")
@example("Ex (Ex x = x) & 1 = ")
@settings(max_examples=400)
def test_parse_matches_the_earlier_parser(text):
    # precedence climbing against the earlier one-method-a-level parser with
    # its separate binding walk: the same tree, or both reject the text
    assert _parsed(logic.parse, text) == _parsed(R.ref_parse, text), text


def test_free_variables():
    open_body = "En (p >= 1) & (2*n = 3*p) & (Aj (j + p < n) => X[i + j] = X[i + j + p])"
    assert logic.free_variables(logic.parse(open_body)) == {"i", "p"}
    assert logic.free_variables(logic.parse(CORPUS[2])) == set()
    assert logic.free_variables(logic.parse("Ax x = x")) == set()


# --- comparisons and terms -----------------------------------------------------


def test_comparison_operators():
    box = 60
    x, y = np.indices((box + 1, box + 1))
    want = {
        "=": x == y, "!=": x != y,
        "<": x < y, "<=": x <= y,
        ">": x > y, ">=": x >= y,
    }
    for op, expect in want.items():
        rel = logic.compile(f"?msd_pell x {op} y")
        assert rel.tracks == ("x", "y")
        assert np.array_equal(grid(rel, box), expect), op


def test_diagonal_to_1000():
    rel = logic.compile("?msd_pell x = y")
    box = 1000
    x, y = np.indices((box + 1, box + 1))
    assert np.array_equal(grid(rel, box), x == y)


def test_constant_multiplication():
    box = 200
    x, y = np.indices((box + 1, box + 1))
    assert np.array_equal(grid(logic.compile("?msd_pell 3*x = y"), box), 3 * x == y)
    assert np.array_equal(grid(logic.compile("?msd_pell 7*x = y"), box), 7 * x == y)
    # a zero coefficient leaves its variable a track that nothing constrains
    rel = logic.compile("?msd_pell 0*x = y")
    assert rel.tracks == ("x", "y")
    assert np.array_equal(grid(rel, 39), np.broadcast_to(np.arange(40) == 0, (40, 40)))
    assert logic.eval_closed("?msd_pell Ax,y (0*x = y) <=> (y = 0)") is True


def test_three_way_sum():
    box = 40
    rel = logic.compile("?msd_pell x + y + z = w")
    assert rel.tracks == ("w", "x", "y", "z")
    w, x, y, z = np.indices((box + 1,) * 4)
    assert np.array_equal(grid(rel, box), x + y + z == w)


def test_constants_in_terms():
    assert logic.eval_closed("?msd_pell 5 = 5") is True
    assert logic.eval_closed("?msd_pell 2 * 3 = 6") is True
    assert logic.eval_closed("?msd_pell 29 + 12 = 41") is True
    assert logic.eval_closed("?msd_pell Ex x + 1 = 0") is False


def test_doubling_identities():
    assert logic.eval_closed("?msd_pell An 2*n = n + n") is True
    assert logic.eval_closed("?msd_pell Ap 8*p = p+p+p+p+p+p+p+p") is True
    assert logic.eval_closed("?msd_pell An 3*n = n + n") is False
    # the free-variable form is the full diagonal, i.e. always true
    rel = logic.compile("?msd_pell 2*n = n + n")
    assert grid(rel, 300).all()


# --- sequence atoms --------------------------------------------------------------


def test_sequence_constant_atoms():
    box = 300
    w5 = R.ref_x5_prefix(box + 1)
    for letter in range(5):
        rel = logic.compile(f"X[i] = @{letter}", x5_env())
        assert np.array_equal(grid(rel, box), w5 == letter), letter


def test_sequence_pair_atoms():
    box = 150
    w5 = R.ref_x5_prefix(2 * box + 2).astype(np.int64)
    i, j = np.indices((box + 1, box + 1))
    env = x5_env()
    assert np.array_equal(grid(logic.compile("X[i] = X[j]", env), box), w5[i] == w5[j])
    assert np.array_equal(grid(logic.compile("X[i] != X[j]", env), box), w5[i] != w5[j])
    # shifted indices
    rel = logic.compile("X[i + 1] = X[i]", env)
    flat = np.arange(box + 1)
    assert np.array_equal(grid(rel, box), w5[flat + 1] == w5[flat])


def test_pair_equal_matches_the_union_over_shared_outputs():
    machines = [sequences.c_alpha_dfao(), sequences.x5_dfao(), sequences.x3_dfao()]
    for a in machines:
        for b in machines:
            assert logic._pair_equal(a, b) == R.ref_pair_equal(a, b)
    # no output in common: the empty relation
    zeros, ones = (
        Dfao(TrackAlphabet(1), np.zeros((1, 3), dtype=np.int32), np.array([v])) for v in (0, 1)
    )
    empty = logic._pair_equal(zeros, ones)
    assert empty == R.ref_pair_equal(zeros, ones)
    assert automata.is_empty(empty)


def test_sturmian_atom_alphabet():
    env = logic.Environment().with_sequence("C", sequences.c_alpha_dfao())
    box = 300
    c = np.concatenate(([0], R.ref_sturmian_prefix(box)))  # c(0) = 0
    rel = logic.compile("C[n] = @1", env)
    assert np.array_equal(grid(rel, box), c == 1)
    with pytest.raises(CompileError):
        logic.compile("C[n] = @5", env)


def test_unknown_sequence_and_bad_letter():
    with pytest.raises(CompileError):
        logic.compile("Y[0] = @0", x5_env())
    with pytest.raises(CompileError):
        logic.compile("X[0] = @7", x5_env())


# --- definitions and calls ---------------------------------------------------------


def test_call_binds_positionally_by_sorted_params():
    env = logic.define(logic.Environment(), "between", "?msd_pell a <= b & b <= c")
    rel = logic.compile("$between(1, x, 3)", env)
    got = [v for v in range(10) if logic.relation_accepts(rel, {"x": v})]
    assert got == [1, 2, 3]


def test_definitions_are_transparent():
    env = logic.define(logic.Environment(), "dbl", "?msd_pell y = 2*x")
    called = logic.compile("$dbl(a, b)", env)
    inline = logic.compile("?msd_pell b = 2*a")
    assert called.tracks == inline.tracks == ("a", "b")
    assert R.same_automaton(called.dfa, inline.dfa)


def test_call_arity_and_unknown_name():
    env = logic.define(logic.Environment(), "dbl", "?msd_pell y = 2*x")
    with pytest.raises(CompileError):
        logic.compile("$dbl(1, 2, 3)", env)
    with pytest.raises(CompileError):
        logic.compile("$nope(1)", env)


def test_names_colliding_with_quantifier_letters_are_rejected():
    env = logic.Environment()
    with pytest.raises(CompileError):
        logic.define(env, "Anything", "?msd_pell x = x")
    with pytest.raises(CompileError):
        env.with_sequence("Edge", sequences.x5_dfao())
    with pytest.raises(CompileError):
        logic.reg(env, "Empty", "0*")


def test_sequences_must_ignore_leading_zeros():
    # the parity of the representation's length: a leading zero flips it, so
    # X[1] = @1 on "1" while the padded spellings the compiler reads say 0
    parity = Dfao(TrackAlphabet(1), np.array([[1, 1, 1], [0, 0, 0]]), np.array([0, 1]), 0)
    assert automata.dfao_eval(parity, [1]) == 1
    with pytest.raises(CompileError, match="leading zeros"):
        logic.Environment().with_sequence("X", parity)
    with pytest.raises(CompileError, match="with outputs"):
        logic.Environment().with_sequence("X", pell.canonical_recognizer())


def test_no_route_binds_a_sequence_past_the_check():
    # the constructor takes only the adder, so with_sequence is the one way
    # to bind a sequence, and it refuses the length-parity machine
    parity = Dfao(TrackAlphabet(1), np.array([[1, 1, 1], [0, 0, 0]]), np.array([0, 1]), 0)
    with pytest.raises(TypeError):
        logic.Environment(sequences={"X": parity})
    with pytest.raises(TypeError):
        logic.Environment({"X": parity})
    with pytest.raises(CompileError, match="leading zeros"):
        logic.Environment(adder=learner.adder()).with_sequence("X", parity)


def test_an_unbound_word_name_resolves_to_the_built_in():
    bare = logic.compile("?msd_pell X[i] = @3", logic.Environment())
    assert bare == logic.compile("?msd_pell X[i] = @3", x5_env())
    with pytest.raises(CompileError, match="unknown sequence 'Z'"):
        logic.compile("?msd_pell Z[i] = @0", logic.Environment())


def test_a_bound_word_shadows_the_built_in():
    env = logic.Environment().with_sequence("X", sequences.x3_dfao())
    assert env.sequence("X") == sequences.x3_dfao()
    # X is x3 here, and x5, bound nowhere, is still the built-in
    assert logic.eval_closed("?msd_pell X[1] = @2 & x5[1] = @3", env) is True
    assert logic.eval_closed("?msd_pell X[1] = @2", logic.Environment()) is False


def test_every_built_in_word_is_a_bindable_sequence():
    # what with_sequence checks of a bound word holds of each built-in one
    for name, build in sequences.BUILTIN.items():
        m = build()
        assert isinstance(m, Dfao) and m.alphabet.n_tracks == 1, name
        assert logic._pads_freely(m), name


def _zeros_then_21():
    """1-track DFA of 0*21: a 2 followed by a 1, which no canonical
    representation holds, however many zeros pad it."""
    delta = np.full((4, 3), 3, dtype=np.int32)
    delta[0, 0], delta[0, 2], delta[1, 1] = 0, 1, 2
    return Dfa(TrackAlphabet(1), delta, np.array([False, False, True, False]), 0)


def test_callables_must_hold_valid_tracks_and_ignore_leading_zeros():
    env = logic.Environment()
    with pytest.raises(CompileError, match="not a canonical representation"):
        env.with_callable("bad", _zeros_then_21(), ("x",))
    # the length-parity language: a leading zero flips whether 1 is accepted
    parity = Dfa(TrackAlphabet(1), np.array([[1, 1, 1], [0, 0, 0]]), np.array([False, True]), 0)
    padded = automata.product(parity, pell.valid_tracks(1), "and")
    with pytest.raises(CompileError, match="depends on leading zeros"):
        env.with_callable("bad", padded, ("x",))
    dbl = logic.compile("?msd_pell y = 2*x")
    with pytest.raises(CompileError, match="3 parameters must be a 3-track automaton"):
        env.with_callable("bad", dbl.dfa, ("x", "y", "z"))
    with pytest.raises(CompileError, match="1 parameters must be a 1-track automaton"):
        env.with_callable("bad", sequences.x5_dfao(), ("x",))
    bound = env.with_callable("dbl", dbl.dfa, dbl.tracks)
    assert logic.eval_closed("Ex $dbl(x, 6)", bound)
    # the name is checked first, before any of the automaton's checks
    with pytest.raises(CompileError, match="invalid name '1x'"):
        env.with_callable("1x", _zeros_then_21(), ("x",))


def test_define_binds_through_the_check():
    # an adder that accepts every triple of digits leaks junk tracks into
    # x + y = z, and define refuses to store the result
    junk = Dfa(TrackAlphabet(3), np.zeros((1, 27), dtype=np.int32), np.array([True]), 0)
    env = logic.Environment(adder=junk)
    assert not automata.is_empty(
        automata.product(logic.compile("x + y = z", env).dfa, pell.valid_tracks(3), "andnot")
    )
    with pytest.raises(CompileError, match="not a canonical representation"):
        logic.define(env, "sum", "x + y = z")


def test_environment_is_persistent_style():
    base = logic.Environment()
    one = logic.define(base, "one", "?msd_pell x = 1")
    with pytest.raises(CompileError):
        logic.compile("$one(y)", base)  # the original env is untouched
    assert logic.relation_accepts(logic.compile("$one(y)", one), {"y": 1})


# --- digit patterns -----------------------------------------------------------------


@pytest.mark.parametrize(
    "pattern",
    [
        "0*110000*", "0*", "1(0|1)*", "(10)*", "20*", "012", "2|1",
        "", "|", "(1?)*", "((01)+|2*)*0?", "2(0(1|2)*)?",
    ],
)
def test_reg_matches_padded_spellings(pattern):
    env = logic.reg(logic.Environment(), "t", pattern)
    rel = logic.compile("$t(v)", env)
    limit = 500
    pad = len(pattern) + 2
    got = [v for v in range(limit) if logic.relation_accepts(rel, {"v": v})]
    want = [
        v
        for v in range(limit)
        if any(re.fullmatch(pattern, "0" * k + pell.encode(v)) for k in range(pad))
    ]
    assert got == want


@pytest.mark.parametrize(
    "pattern",
    [
        "0*110000*", "0*", "1(0|1)*", "(10)*", "20*", "012", "2|1",
        "", "()", "|", "1|", "(1?)*", "((01)+|2*)*0?", "2(0(1|2)*)?",
        "(0|1)*2+", "1+0?1*", "(2?1?)+0",
    ],
)
def test_pattern_automaton_matches_re(pattern):
    # the automaton reads the pattern up to leading zeros: a word is in when
    # the pattern matches it with its leading zeros traded for some others
    dfa = logic._regex_dfa(pattern)
    for length in range(7):
        for word in itertools.product("012", repeat=length):
            text = "".join(word)
            got = automata.accepts(dfa, [int(c) for c in text])
            assert got == _matches_padded(pattern, text), text


def _matches_padded(pattern: str, text: str) -> bool:
    """Some 0^j followed by ``text`` without its leading zeros fullmatches;
    j < len(pattern) + 2 suffices, as the pattern has fewer positions."""
    rest = text.lstrip("0")
    return any(re.fullmatch(pattern, "0" * j + rest) for j in range(len(pattern) + 2))


@given(strategies.patterns())
@settings(max_examples=150, deadline=None)
def test_reg_is_the_pattern_up_to_leading_zeros_on_the_domain(pattern):
    # adjacent quantifiers nest in a pattern, but are lazy, possessive or an
    # error in re
    assume(not re.search(r"[*+?]{2}", pattern))
    try:
        env = logic.reg(logic.Environment(), "t", pattern)
    except PredicateSyntaxError:
        return
    dfa = env.stored("t").dfa
    for length in range(7):
        for word in itertools.product("012", repeat=length):
            text = "".join(word)
            want = R.ref_is_canonical(text.lstrip("0")) and _matches_padded(pattern, text)
            assert automata.accepts(dfa, [int(c) for c in text]) == want, text


def test_reg_runs_one_subset_construction(monkeypatch):
    calls = []
    determinize = automata._determinize

    def counted(*args):
        calls.append(args)
        return determinize(*args)

    monkeypatch.setattr(automata, "_determinize", counted)
    for k, pattern in enumerate(["0*110000*", "0*10*", "", "(1|20)+", "2(0(1|2)*)?"]):
        logic.reg(logic.Environment(), "t", pattern)
        assert len(calls) == k + 1, pattern


def test_reg_specifics():
    env = logic.reg(logic.Environment(), "zero", "0*")
    rel = logic.compile("$zero(v)", env)
    assert [v for v in range(50) if logic.relation_accepts(rel, {"v": v})] == [0]

    env = logic.reg(logic.Environment(), "pows", "0*110000*")
    rel = logic.compile("$pows(v)", env)
    assert [v for v in range(600) if logic.relation_accepts(rel, {"v": v})] == [41, 99, 239, 577]
    assert pell.encode(99) == "110000"


def test_reg_rejects_malformed_patterns_and_redefinition():
    for pattern in ["**", "(0", "0)", "3", "a*"]:
        with pytest.raises(PredicateSyntaxError):
            logic.reg(logic.Environment(), "t", pattern)
    env = logic.reg(logic.Environment(), "t", "0*")
    with pytest.raises(CompileError):
        logic.reg(env, "t", "1")


# --- quantifiers ----------------------------------------------------------------------


def test_quantifier_duality_is_structural():
    samples = [
        ("?msd_pell Ax x + x = y", "?msd_pell ~(Ex ~(x + x = y))"),
        ("?msd_pell Ay y >= x", "?msd_pell ~(Ey ~(y >= x))"),
        ("?msd_pell Au,v (u + v = w) => v <= w", "?msd_pell ~(Eu,v ~((u + v = w) => v <= w))"),
        ("?msd_pell Am En n > m + k", "?msd_pell ~(Em ~(En n > m + k))"),
        ("Ai (i < 5) => X[i] = X[i + 4]", "~(Ei ~((i < 5) => X[i] = X[i + 4]))"),
    ]
    for forall_text, neg_exists_text in samples:
        env = x5_env()
        a = logic.compile(forall_text, env)
        b = logic.compile(neg_exists_text, env)
        assert a.tracks == b.tracks
        assert R.same_automaton(a.dfa, b.dfa), forall_text


def test_quantifying_an_absent_variable():
    assert logic.eval_closed("?msd_pell Ax Eq x = x") is True
    rel = logic.compile("Eq x = x")
    assert rel.tracks == ("x",)
    assert grid(rel, 50).all()


def test_a_variable_only_under_zero_times_keeps_its_track():
    assert logic.compile("?msd_pell 0*x = 0").tracks == ("x",)
    rel = logic.compile("x + 0*y = x")
    assert rel.tracks == ("x", "y")
    assert grid(rel, 20).all()
    with pytest.raises(CompileError, match="free variables x"):
        logic.eval_closed("0*x = 0")
    env = logic.define(logic.Environment(), "f", "?msd_pell 0*x = 0")
    assert logic.eval_closed("Ax $f(x)", env) is True
    assert logic.eval_closed("Ex 0*x = 1") is False
    assert logic.eval_closed("Ax 0*x = 0") is True


def test_eval_closed_rejects_free_variables():
    with pytest.raises(CompileError):
        logic.eval_closed("?msd_pell x = x")
    # the relation itself refuses a truth value, with eval_closed's message
    with pytest.raises(CompileError, match="^predicate has free variables x; expected none$"):
        logic.compile("?msd_pell x = x").is_true


# --- compiled relation plumbing ----------------------------------------------------


def test_tracks_are_sorted():
    assert logic.compile("?msd_pell z < a").tracks == ("a", "z")
    assert logic.compile("?msd_pell x + y = z").tracks == ("x", "y", "z")


@pytest.mark.parametrize("swapped, ordered", [
    ("?msd_pell y > x", "?msd_pell x < y"),
    ("X[j] = X[i]", "X[i] = X[j]"),
    ("$lt(y, x)", "x > y"),
], ids=["comparison", "sequence-pair", "call"])
def test_swapped_arguments_compile_to_one_machine(swapped, ordered):
    # an atom's tracks follow its arguments, and compile puts them in name
    # order and minimizes, so one relation gives one machine however its
    # arguments are written
    env = logic.define(logic.Environment(), "lt", "x < y")
    a, b = logic.compile(swapped, env), logic.compile(ordered, env)
    assert a.tracks == b.tracks
    assert automata.to_text(a.dfa) == automata.to_text(b.dfa)


def test_relation_accepts_requires_every_track():
    rel = logic.compile("?msd_pell x + y = z")
    assert logic.relation_accepts(rel, {"x": 29, "y": 12, "z": 41})
    assert not logic.relation_accepts(rel, {"x": 29, "y": 12, "z": 40})
    with pytest.raises(KeyError):
        logic.relation_accepts(rel, {"x": 1, "y": 2})


def test_relation_accepts_batch_matches_scalar():
    rel = logic.compile("?msd_pell x + y = z")
    rng = np.random.default_rng(1)
    rows = rng.integers(0, 3000, size=(500, 3))
    rows[::5, 2] = rows[::5, 0] + rows[::5, 1]  # sprinkle true triples
    got = logic.relation_accepts_batch(rel, rows)
    for row, g in zip(rows, got):
        assert logic.relation_accepts(rel, dict(zip(rel.tracks, map(int, row)))) == bool(g)
    assert np.array_equal(got, rows[:, 0] + rows[:, 1] == rows[:, 2])


def test_relation_accepts_batch_pads_every_track_to_one_length():
    rel = logic.compile("?msd_pell x + y = z")
    # representations of lengths 0, 1 and 8 on one row, in every order
    rows = np.array([[0, 1, 1], [1, 0, 1], [0, 5000, 5000], [5000, 0, 5000], [2, 5000, 5002],
                     [5000, 2, 5002], [5000, 2, 5003], [0, 0, 7], [7, 0, 0], [0, 0, 0]])
    want = rows[:, 0] + rows[:, 1] == rows[:, 2]
    assert logic.relation_accepts_batch(rel, rows).tolist() == want.tolist()
    # every value 0: words of length 0
    assert logic.relation_accepts_batch(rel, np.zeros((3, 3), dtype=np.int64)).all()
    assert logic.relation_accepts_batch(rel, np.zeros((0, 3), dtype=np.int64)).shape == (0,)


@pytest.mark.parametrize("text, truth", [("Ex x = 1", True), ("Ax x = 1", False)])
def test_relation_accepts_batch_without_tracks(text, truth):
    closed = logic.compile("?msd_pell " + text)
    assert closed.tracks == ()
    got = logic.relation_accepts_batch(closed, np.zeros((4, 0), dtype=np.int64))
    assert got.tolist() == [truth] * 4
    assert logic.relation_accepts(closed, {}) is truth
    with pytest.raises(ValueError, match=r"expected shape \(n, 0\)"):
        logic.relation_accepts_batch(closed, np.zeros((4, 1), dtype=np.int64))


def test_default_environment_uses_the_shared_adder():
    rel = logic.compile("?msd_pell x + y = z")
    assert automata.equivalent(rel.dfa, learner.adder())


# --- relation soundness against brute force -------------------------------------------


def test_compiled_relations_match_brute_force(soundness_grids):
    for name, (auto, brute) in soundness_grids.items():
        assert auto.shape == brute.shape, name
        assert np.array_equal(auto, brute), name


# --- quantifying over positions --------------------------------------------------------

TAIL = "Aj (j + p < n) => X[i + j] = X[i + j + p]"


def _named_end(side, bound, atom):
    """``E%j0 (%j0 = side + i) & (Aj (j >= i) => ((bound) => atom))``, built
    directly: a compiler name like %j0 does not parse."""
    i, j, end = TVar("i"), TVar("j"), TVar("%j0")
    moved = PBin("=>", PCmp(">=", j, i), PBin("=>", bound(end), atom))
    named = PCmp("=", end, TAdd(side, i))
    return PQuant("E", ("%j0",), PBin("&", named, PQuant("A", ("j",), moved)))


def test_offsets_become_positions():
    j, n, p, q = TVar("j"), TVar("n"), TVar("p"), TVar("q")
    period = PSeqPair("X", j, "X", TAdd(j, p))
    named = {
        # i crosses to n, which occurs nowhere else: n + i is named outside j's quantifier
        TAIL: _named_end(n, lambda end: PCmp("<", TAdd(j, p), end), period),
        "Aj (j + p < n + q) => X[i + j] = X[i + j + p]":
            _named_end(TAdd(n, q), lambda end: PCmp("<", TAdd(j, p), end), period),
        "Aj (j < 2*n) => X[i + j] = X[i + j + p]":
            _named_end(TMul(2, n), lambda end: PCmp("<", j, end), period),
    }
    moved = {
        # i cancels where it meets j; the bound on j is then n itself
        "Ej (i + j < n) & X[i + j + 1] != X[i + j]": "Ej (j >= i) & ((j < n) & X[j + 1] != X[j])",
        # one name at a time: j moves, n does not (i + j + n is not t + n + u);
        # n stays in an index, so n + i is not named
        "En,j (j < n) & X[i + j] = X[i + j + n]":
            "En Ej (j >= i) & ((j < n + i) & X[j] = X[j + n])",
        # a constant side is not named: that would add a track
        "Aj (j + 1 < 7) => X[i + j] = X[i + j + 1]":
            "Aj (j >= i) => ((j + 1 < 7 + i) => X[j] = X[j + 1])",
        # n is bound inside j's quantifier: its side cannot move out
        "Aj,n (j < n) => X[i + j] = X[i + j + 1]":
            "Aj (j >= i) => (An (j < n + i) => X[j] = X[j + 1])",
    }
    for text, expected in named.items():
        assert logic._positions(logic.parse(text)) == expected, text
    for text, expected in moved.items():
        assert logic._positions(logic.parse(text)) == logic.parse(expected), text


@pytest.mark.parametrize(
    "text",
    [
        "Ej (j < 5) & X[i + j] = @2",  # the windows: one index term
        "Ej (j < 8) & C[i + j + 1] = @1",
        "Aj (5*j <= 8*p) => X[i + j] = X[i + j + p]",  # coefficient 5
        "Aj (j + 1 < n) => X[j + i] = X[j + i + p]",  # j before its anchor
        "Aj (j < n) => X[i + j] = X[p + j]",  # two anchors
        "Aj (j < n) => ($ok(j) & X[i + j] = X[i + j + 1])",  # j in a call
        f"Ei,p,n (p >= 1) & (2*n > 3*p) & ({TAIL})",  # i, p, n index with j
    ],
    ids=["window-X", "window-C", "coefficient-5", "j-first", "two-anchors", "call", "outer"],
)
def test_other_quantifiers_stay_as_written(text):
    q = logic.parse(text)
    assert logic._positions(q) == q


def test_tail_projects_positions_not_offsets(monkeypatch):
    # projecting the offset determinized 156,877 subsets; the position with
    # n + i in the body, 49,954; the position with n + i named outside j's
    # quantifier, 26,972, and 6,805 once each subset drops the members whose
    # language another member's includes.  Every product and subset
    # construction hands its table to _quotient
    sizes = []
    quotient = automata._quotient

    def recording(kind, alphabet, delta, labels, initial):
        sizes.append(len(delta))
        return quotient(kind, alphabet, delta, labels, initial)

    env = x5_env()
    monkeypatch.setattr(automata, "_quotient", recording)
    rel = logic.compile(TAIL, env)
    assert rel.tracks == ("i", "n", "p") and rel.dfa.n_states == 309
    assert max(sizes) < 10_000


_ORDER_SCRIPT = """
import json, sys
from pelldecide import logic
order = []
project = logic._project_var
def recording(r, name):
    order.append(name)
    return project(r, name)
logic._project_var = recording
logic.compile(sys.argv[1])
print(json.dumps(order))
"""


def test_temps_are_projected_in_the_same_order_under_any_hash_seed():
    src = str(Path(logic.__file__).resolve().parents[1])
    orders = []
    for seed in ("0", "1"):
        env = {**os.environ, "PYTHONHASHSEED": seed, "PYTHONPATH": src}
        done = subprocess.run(
            [sys.executable, "-c", _ORDER_SCRIPT, "?msd_pell x + 2*y + 3 = z + 5"],
            env=env, capture_output=True, text=True, check=True,
        )
        orders.append(json.loads(done.stdout))
    assert orders[0] == orders[1]
    assert sorted(orders[0], key=lambda t: int(t[1:])) == [f"%{k}" for k in range(7)]


NEAR_MISSES = ("coefficient 2", "offset in a call", "two anchors", "anchor bound inside",
               "one index term")
# bounds on j, each with the sides that i crosses to and that are named
# outside j's quantifier: none where i cancels, and none that is constant
BOUNDS = {"j + {s} < n": ("n",), "1*j + {s} <= n": ("n",), "i + j < n + {s}": (),
          "j + {s} < i + n": ("i + n",), "j + p < n + q": ("n + q",), "j < 2*n": ("2*n",),
          "j + {s} < 7": (), "q <= j & j + {s} < n": ("q", "n")}
# what else keeps a side with n from being named: n in an index, in a call,
# or bound inside j's quantifier
SPOILERS = ("index", "call", "bound inside")


@st.composite
def offset_formulas(draw):
    """(shape, named, text): a quantifier over an offset j, bounded by a free
    variable; named counts the sides the anchor crosses to that are named
    outside j's quantifier."""
    shape = "eligible" if draw(st.booleans()) else draw(st.sampled_from(NEAR_MISSES))
    s, kind = draw(st.sampled_from("CY")), draw(st.sampled_from("AE"))
    slack = draw(st.integers(0, 2))
    bound, sides = draw(st.sampled_from(sorted(BOUNDS.items())))
    bound = bound.format(s=slack)
    spoiler = None if draw(st.booleans()) else draw(st.sampled_from(SPOILERS))
    if shape == "coefficient 2":
        bound = f"2*j + {slack} < n"
    if shape == "anchor bound inside":
        bound = f"j + {slack} < n"  # i is bound only inside
    if spoiler == "bound inside":
        bound = f"En (n < 9) & ({bound})"
    shift = "n" if spoiler == "index" else draw(st.sampled_from(["1", "2", "p", "p + 1"]))
    first, second = "i + j", ("p" if shape == "two anchors" else "i") + f" + j + {shift}"
    eq = draw(st.sampled_from(["=", "!="]))
    atom = f"{s}[{first}] {eq} {s}[{second}]"
    if shape == "one index term":
        atom = f"{s}[{first}] {eq} @{draw(st.integers(0, 1))}"
    if shape == "offset in a call":
        atom = f"($small(j) | {atom})"
    elif spoiler == "call":
        atom = f"($small(n) | {atom})"
    if shape == "anchor bound inside":
        atom = f"(Ei (i <= p) & {atom})"
    named = sum(spoiler is None or "n" not in v for v in sides) if shape == "eligible" else 0
    return shape, named, f"{kind}j ({bound}) {'=>' if kind == 'A' else '&'} {atom}"


def _offset_env():
    env = (
        logic.Environment()
        .with_sequence("C", sequences.c_alpha_dfao())
        .with_sequence("Y", sequences.x3_dfao())
    )
    return logic.define(env, "small", "?msd_pell x < 7")


def _digest(rel):
    return rel.tracks, hashlib.sha256(automata.to_text(rel.dfa).encode()).hexdigest()


@given(offset_formulas())
@example(("eligible", 1, "Aj (j + p < n + q) => Y[i + j] = Y[i + j + p]"))
@example(("eligible", 1, "Ej (j < 2*n) & C[i + j] != C[i + j + 1]"))
@example(("eligible", 2, "Aj (q <= j & j + 1 < n) => Y[i + j] = Y[i + j + p]"))
@settings(max_examples=30)
def test_positions_compile_to_the_same_relation(drawn):
    shape, named, text = drawn
    ast, env = logic.parse(text), _offset_env()
    moved = logic._positions(ast)
    assert (moved != ast) == (shape == "eligible"), text
    quants = [q for q in logic._nodes(moved) if isinstance(q, PQuant)]
    assert sum(n.startswith("%") for q in quants for n in q.names) == named, text
    # the quantifier that binds j never gains a track
    j_body = next(q for q in quants if "j" in q.names).body
    assert len(logic.free_variables(j_body)) <= len(logic.free_variables(ast.body)), text
    rel = logic.compile(ast, env)
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(logic, "_positions", lambda q: q)
        assert _digest(logic.compile(ast, env)) == _digest(rel), text

    # and the relation is the predicate's truth on the grid 0..box; j stays
    # below i + n, n + q or 2*n, and every other bound is at most box + 2
    box = 40 if len(rel.tracks) <= 3 else 12
    reach = 2 * box if re.search(r"< (i \+ n|n \+ q|2\*n)", text) else box + 2
    length = 2 * reach + box + 3
    words = {"C": np.concatenate(([0], R.ref_sturmian_prefix(length - 1))),
             "Y": R.ref_x3_prefix(length)}
    axes = np.indices((box + 1,) * len(rel.tracks)).reshape(len(rel.tracks), -1)
    values = dict(zip(rel.tracks, axes))
    truth = R.ref_holds(ast, values, words, {"small": lambda x: x < 7}, reach)
    got = logic.relation_accepts_batch(rel, axes.T)
    assert np.array_equal(got, np.broadcast_to(truth, got.shape)), text


def _bounded_env():
    env = (
        logic.Environment()
        .with_sequence("C", sequences.c_alpha_dfao())
        .with_sequence("X", sequences.x5_dfao())
    )
    return logic.define(env, "f", "?msd_pell x + 1 < 2*y")


# C is indexed from 1, so its entry 0 is the formula's value there, 0; an
# index drawn by bounded_predicates is at most 36
BOUNDED_WORDS = {"C": np.concatenate(([0], R.ref_sturmian_prefix(40))), "X": R.ref_x5_prefix(41)}


@given(strategies.bounded_predicates())
@example("0*x <= y")
@example("(Ex (x <= 4) & (0*y = x)) | (z < 3)")
@example("(C[3*x] = @1) | ($f(y + 2, x))")
@example("(Ex (x <= 4) & (X[y + x] = X[3*z])) & (X[12] = @3)")
@example("~($f(0, 0*0))")
@settings(max_examples=150)
def test_compiled_relations_match_integer_arithmetic(text):
    # every quantifier is bounded by QUANTIFIER_BOUND, so searching 0..that
    # bound is the predicate's truth on the grid of free values 0..12
    ast = logic.parse(text)
    rel = logic.compile(ast, _bounded_env())
    assert rel.tracks == tuple(sorted(logic.free_variables(ast))), text
    rows = np.array(list(itertools.product(range(13), repeat=len(rel.tracks))), dtype=np.int64)
    calls = {"f": lambda x, y: x + 1 < 2 * y}
    truth = R.ref_holds(ast, dict(zip(rel.tracks, rows.T)), BOUNDED_WORDS, calls,
                        strategies.QUANTIFIER_BOUND)
    got = logic.relation_accepts_batch(rel, rows)
    assert np.array_equal(got, np.broadcast_to(truth, got.shape)), text


# --- early quantification --------------------------------------------------------------


def _drawn_env():
    env = logic.Environment().with_sequence("C", sequences.c_alpha_dfao())
    return logic.define(env, "f", "?msd_pell x + 1 < 2*x")


def test_conjuncts_push_the_negation_of_a_universal_body():
    split = logic._conjuncts(logic.parse("(x = 0 & y = 1) => (z = 2 | x < y)"), True)
    assert split == [logic.parse(t) for t in ("x = 0", "y = 1", "~z = 2", "~x < y")]
    split = logic._conjuncts(logic.parse("~(x = 0 => ~y = 1) & (z = 2 <=> x = y)"))
    assert split == [logic.parse(t) for t in ("x = 0", "y = 1", "z = 2 <=> x = y")]


def _compiled(ast, env):
    """The relation's tracks and text, or the message of its CompileError."""
    try:
        rel = logic.compile(ast, env)
    except CompileError as e:
        return str(e)
    return rel.tracks, automata.to_text(rel.dfa)


@given(strategies.predicates())
@example("Ex,y (x + y = z) & ~(Ey y < x) & C[x] = @1")
@example("Ax (x < y) => (C[x + 1] = @1 | $f(x) | ~(Ez z = x + y))")
@example("Ay ~(y = 2*x & (Ex,z x + z = y))")
@example("Ex x = 0 & (Ey y = 1)")
@settings(max_examples=100)
def test_early_quantification_compiles_the_same_relation(text):
    # each quantifier eliminates its names from its body's conjuncts; the
    # earlier branch compiled the whole body and then projected
    try:
        ast = logic.parse(text)
    except PredicateSyntaxError:
        assume(False)
    env = _drawn_env()
    got = _compiled(ast, env)
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(logic._Compiler, "quantifier", R.ref_compile_quantifier)
        assert got == _compiled(ast, env), text


def _script_relations(compile_text) -> list:
    """(text, tracks, to_text) of every quantified predicate that the
    bundled script compiles, in order, each compiled by ``compile_text``."""
    seen = []

    def recording(p, env=None):
        rel = compile_text(p, env)
        ast = logic.parse(p) if isinstance(p, str) else p
        if any(isinstance(q, PQuant) for q in logic._nodes(ast)):
            seen.append((str(p), rel.tracks, automata.to_text(rel.dfa)))
        return rel

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(logic, "compile", recording)
        assert all(report.passed for report in theorems.run_all().values())
    return seen


def test_script_sentences_compile_the_same_relation_without_early_quantification(monkeypatch):
    got = _script_relations(logic.compile)
    monkeypatch.setattr(logic._Compiler, "quantifier", R.ref_compile_quantifier)
    want = _script_relations(logic.compile)
    assert len(got) >= 25
    for mine, earlier in zip(got, want, strict=True):
        assert mine == earlier, mine[0]


def _count_of_ones():
    """cnt(k, n): k = floor((n + 1)α) is the number of 1s in C[1..n].  The
    state is (c1, c0, the previous digit of n): the digits of k trail those
    of n by one place, and c1, c0 carry the difference of the two values in
    units of the last two Pell numbers; a difference past 64 is dead."""
    alphabet = TrackAlphabet(2)

    def step(state, symbol):
        if state is None:
            return None
        c1, c0, prev = state
        d_k, d_n = (int(t) for t in alphabet.unpack(symbol))
        c1, c0 = 2 * c1 + c0 + prev - d_k, c1
        return (c1, c0, d_n) if abs(c1) <= 64 else None

    delta, states = automata._explore((0, 0, 0), step, alphabet.size)
    accepting = np.array([s is not None and s[0] == 0 for s in states])
    return pell.restrict(Dfa(alphabet, delta, accepting, 0))


def test_a_direct_balance_sentence_compiles_within_the_budgets():
    # letter 3 of x5: the count of 3s in X[0..n) is ceil(k/2), k the count of
    # 1s in C[1..n].  Without early quantification both sentences below raise
    # PairBudgetError: the body of the seven names was one 7-track relation
    cnt = _count_of_ones()
    assert cnt.n_states == 7
    n = np.arange(3000)
    k = np.array([R.ref_floor_alpha(v + 1) for v in n])
    rel = logic.Relation(cnt, ("k", "n"))
    assert logic.relation_accepts_batch(rel, np.column_stack([k, n])).all()
    assert not logic.relation_accepts_batch(rel, np.column_stack([k + 1, n])).any()

    env = x5_env().with_callable("cnt", cnt, ("k", "n"))
    env = logic.define(env, "cthree", "?msd_pell Ek $cnt(k, n) & ((2*s = k) | (2*s = k + 1))")
    assert logic.eval_closed("?msd_pell $cthree(0, 0)", env)
    assert logic.eval_closed("?msd_pell An,s $cthree(n, s) => ((X[n] = @3 => $cthree(n + 1, s + 1))"
                             " & (X[n] != @3 => $cthree(n + 1, s)))", env)
    balance = ("?msd_pell An,i,j,s,t,u,v ($cthree(i, s) & $cthree(i + n, t) & $cthree(j, u)"
               " & $cthree(j + n, v)) => (t + u <= v + s{})")
    assert logic.eval_closed(balance.format(" + 1"), env)
    assert not logic.eval_closed(balance.format(""), env)
