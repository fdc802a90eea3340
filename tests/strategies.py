"""Hypothesis strategies for predicate text, valid or not.

``predicates`` writes text that the grammar accepts, save that a quantifier
may rebind a name that an enclosing one binds; ``bounded_predicates`` writes
text that a search of a small box decides, over the words C and X and the
two-place definition f; ``mutants`` breaks such a text
by one edit of one token; ``token_soup`` strings grammar tokens together at
random; ``patterns`` writes digit patterns, well formed or not.  Every draw
is small: the variables x, y and z, constants up to 12, and at most four
levels of nesting.
"""

from __future__ import annotations

from hypothesis import strategies as st

VARS = ("x", "y", "z")
CONNECTIVES = ("&", "|", "=>", "<=>")
RELATIONS = ("=", "!=", "<", "<=", ">", ">=")
VOCABULARY = (
    *VARS, *CONNECTIVES, *RELATIONS, "~", "(", ")", "A", "E", "Ax", "Ey", ",",
    "+", "*", "0", "2", "12", "C", "[", "]", "@", "1", "$f", "?", "msd_pell",
)


@st.composite
def terms(draw, depth: int = 2, max_factor: int = 12) -> str:
    if depth == 0 or draw(st.booleans()):
        return draw(st.one_of(st.sampled_from(VARS), st.integers(0, 12).map(str)))
    if draw(st.booleans()):
        left, right = draw(terms(depth - 1, max_factor)), draw(terms(depth - 1, max_factor))
        return f"{left} + {right}"
    return f"{draw(st.integers(0, max_factor))}*{draw(terms(depth - 1, max_factor))}"


@st.composite
def predicates(draw, depth: int = 4) -> str:
    """A predicate nested at most ``depth`` levels, connectives of every
    precedence mixed, parenthesized or not."""
    shape = draw(st.integers(0, 5 if depth else 1))
    if shape == 0:
        return f"{draw(terms())} {draw(st.sampled_from(RELATIONS))} {draw(terms())}"
    if shape == 1:
        index = draw(terms(1))
        return draw(st.sampled_from([
            f"C[{index}] = @{draw(st.integers(0, 2))}",
            f"C[{index}] != C[{draw(terms(1))}]",
            f"$f({index})",
        ]))
    if shape == 2:
        return f"~{draw(predicates(depth - 1))}"
    if shape == 3:
        return f"({draw(predicates(depth - 1))})"
    if shape == 4:
        names = draw(st.lists(st.sampled_from(VARS), min_size=1, max_size=2, unique=True))
        return f"{draw(st.sampled_from('AE'))}{','.join(names)} {draw(predicates(depth - 1))}"
    left, right = draw(predicates(depth - 1)), draw(predicates(depth - 1))
    return f"{left} {draw(st.sampled_from(CONNECTIVES))} {right}"


QUANTIFIER_BOUND = 4


@st.composite
def bounded_atoms(draw) -> str:
    """A comparison of two terms, ``C[t] = @d``, ``X[t] = @d``, ``X[t] =
    X[u]`` or ``$f(t, u)``; an index or argument is at most 36 when every
    variable is at most 12."""
    kind = draw(st.sampled_from(["cmp", "cmp", "C", "X", "XX", "f"]))
    if kind == "cmp":
        left, right = draw(terms(max_factor=3)), draw(terms(max_factor=3))
        return f"{left} {draw(st.sampled_from(RELATIONS))} {right}"
    t, u = draw(terms(1, max_factor=3)), draw(terms(1, max_factor=3))
    if kind == "C":
        return f"C[{t}] = @{draw(st.integers(0, 1))}"
    if kind == "X":
        return f"X[{t}] = @{draw(st.integers(0, 4))}"
    return f"X[{t}] = X[{u}]" if kind == "XX" else f"$f({t}, {u})"


@st.composite
def bounded_predicates(draw, depth: int = 3, bound: tuple[str, ...] = ()) -> str:
    """A predicate whose every quantified variable is at most
    QUANTIFIER_BOUND, as ``Ex (x <= 4) & ...`` or ``Ax (x <= 4) => ...``, so a
    search of 0..QUANTIFIER_BOUND decides it; products take the constants
    0 to 3, and every compound part is parenthesized."""
    shape = draw(st.integers(0, 3 if depth else 0))
    if shape == 0:
        return draw(bounded_atoms())
    if shape == 1:
        return f"~({draw(bounded_predicates(depth - 1, bound))})"
    unbound = [v for v in VARS if v not in bound]
    if shape == 2 and unbound:
        name, kind = draw(st.sampled_from(unbound)), draw(st.sampled_from("AE"))
        body = draw(bounded_predicates(depth - 1, bound + (name,)))
        guard = f"({name} <= {QUANTIFIER_BOUND}) {'=>' if kind == 'A' else '&'}"
        return f"({kind}{name} {guard} ({body}))"
    left = draw(bounded_predicates(depth - 1, bound))
    right = draw(bounded_predicates(depth - 1, bound))
    return f"({left}) {draw(st.sampled_from(CONNECTIVES))} ({right})"


@st.composite
def mutants(draw) -> str:
    """A predicate with one space-separated chunk dropped, doubled or
    replaced by a grammar token."""
    chunks = draw(predicates()).split(" ")
    at = draw(st.integers(0, len(chunks) - 1))
    edit = draw(st.sampled_from(["drop", "double", "replace"]))
    if edit == "drop":
        del chunks[at]
    elif edit == "double":
        chunks.insert(at, chunks[at])
    else:
        chunks[at] = draw(st.sampled_from(VOCABULARY))
    return " ".join(chunks)


def token_soup() -> st.SearchStrategy[str]:
    return st.lists(st.sampled_from(VOCABULARY), max_size=12).map(" ".join)


def predicate_texts() -> st.SearchStrategy[str]:
    """Valid predicates, near misses and token soup, headed or not."""
    return st.tuples(
        st.sampled_from(["", "?msd_pell "]),
        st.one_of(predicates(), mutants(), token_soup()),
    ).map("".join)


def patterns() -> st.SearchStrategy[str]:
    """Digit patterns of up to 8 characters, well formed or not."""
    return st.text(alphabet="012()|*+?", max_size=8)
