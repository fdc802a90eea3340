"""First-order predicate language over naturals in Pell representation.

Predicates are parsed from Walnut-style text ("?msd_pell Ax,z ((x + 0 = z)
<=> (x = z))") and compiled to multi-track automata whose tracks carry the
free variables in sorted name order.  Terms know addition (through the
addition relation) and multiplication by constants (binary doubling with
fresh existential variables); atoms are comparisons, sequence-output tests
like X[i] = @3, and calls $name(...) into stored definitions or named
regular-expression automata.

Every compiled automaton satisfies two invariants that the operations
preserve: each track is a leading-zero-padded canonical representation, and
membership is indifferent to how much padding a word carries.  Negation and
the implication/iff products therefore re-intersect with the per-track
validity automaton (``pell.restrict``).  A quantifier compiles its body's
conjuncts apart and projects each bound name as soon as the conjuncts that
mention it are joined (early quantification, as ``_eliminate`` does for the
temporaries of an atom); Ax φ is ~Ex ~φ, so a universal quantifier splits
its negated body, and negates once more at the end.  This module knows only
the predicate language: ``theorems`` reads and runs the command scripts.
"""

from __future__ import annotations

import copy
import re
from dataclasses import dataclass
from functools import cache, reduce
from typing import Mapping, Optional, Union

import numpy as np

from . import automata, learner, pell, sequences
from .automata import Dfa, Dfao, TrackAlphabet

__all__ = [
    "PredicateSyntaxError",
    "CompileError",
    "parse",
    "free_variables",
    "Relation",
    "Environment",
    "compile",
    "eval_closed",
    "define",
    "reg",
    "relation_accepts",
    "relation_accepts_batch",
]


class PredicateSyntaxError(ValueError):
    """Parse failure with position and the token kinds that would have fit."""

    def __init__(self, message: str, line: int, column: int, expected: tuple[str, ...] = ()):
        tail = f" (expected {', '.join(expected)})" if expected else ""
        super().__init__(f"{message} at line {line}, column {column}{tail}")
        self.line = line
        self.column = column
        self.expected = expected


class CompileError(ValueError):
    """Name resolution or arity failure during compilation."""


# ---------------------------------------------------------------------------
# abstract syntax


@dataclass(frozen=True)
class TVar:
    name: str


@dataclass(frozen=True)
class TConst:
    value: int


@dataclass(frozen=True)
class TAdd:
    left: "Term"
    right: "Term"


@dataclass(frozen=True)
class TMul:
    factor: int
    term: "Term"


Term = Union[TVar, TConst, TAdd, TMul]


@dataclass(frozen=True)
class PCmp:
    op: str  # = != < <= > >=
    left: Term
    right: Term


@dataclass(frozen=True)
class PSeqConst:
    name: str
    index: Term
    value: int


@dataclass(frozen=True)
class PSeqPair:
    left_name: str
    left_index: Term
    right_name: str
    right_index: Term


@dataclass(frozen=True)
class PCall:
    name: str
    args: tuple[Term, ...]


@dataclass(frozen=True)
class PNot:
    body: "Predicate"


@dataclass(frozen=True)
class PBin:
    op: str  # & | => <=>
    left: "Predicate"
    right: "Predicate"


@dataclass(frozen=True)
class PQuant:
    kind: str  # A or E
    names: tuple[str, ...]
    body: "Predicate"


Predicate = Union[PCmp, PSeqConst, PSeqPair, PCall, PNot, PBin, PQuant]


def _term_vars(t: Term) -> set[str]:
    if isinstance(t, TVar):
        return {t.name}
    if isinstance(t, TConst):
        return set()
    if isinstance(t, TAdd):
        return _term_vars(t.left) | _term_vars(t.right)
    return _term_vars(t.term)


def free_variables(p: Predicate) -> set[str]:
    if isinstance(p, PCmp):
        return _term_vars(p.left) | _term_vars(p.right)
    if isinstance(p, PSeqConst):
        return _term_vars(p.index)
    if isinstance(p, PSeqPair):
        return _term_vars(p.left_index) | _term_vars(p.right_index)
    if isinstance(p, PCall):
        return set().union(*(_term_vars(a) for a in p.args)) if p.args else set()
    if isinstance(p, PNot):
        return free_variables(p.body)
    if isinstance(p, PBin):
        return free_variables(p.left) | free_variables(p.right)
    return free_variables(p.body) - set(p.names)


# ---------------------------------------------------------------------------
# tokenizer and parser

_TOKEN_RE = re.compile(
    r"""(?P<ws>\s+)
      | (?P<call>\$[A-Za-z_]\w*)
      | (?P<number>\d+)
      | (?P<name>[A-Za-z_]\w*)
      | (?P<op><=>|=>|<=|>=|!=|[=<>~&|()\[\],+*@?])
    """,
    re.VERBOSE,
)

_Token = tuple[str, str, int, int]  # kind, text, line, column


def _tokenize(text: str) -> list[_Token]:
    tokens: list[_Token] = []
    line, line_start = 1, 0
    pos = 0
    while pos < len(text):
        m = _TOKEN_RE.match(text, pos)
        if m is None:
            col = pos - line_start + 1
            raise PredicateSyntaxError(f"unexpected character {text[pos]!r}", line, col)
        kind = m.lastgroup
        value = m.group()
        col = pos - line_start + 1
        if kind == "ws":
            nl = value.count("\n")
            if nl:
                line += nl
                line_start = pos + value.rindex("\n") + 1
        elif kind == "name" and value[0] in "AE":
            # a leading A/E is a quantifier; the rest is its first variable
            tokens.append(("quant", value[0], line, col))
            if len(value) > 1:
                tokens.append(("name", value[1:], line, col + 1))
        else:
            tokens.append((kind, value, line, col))
        pos = m.end()
    tokens.append(("end", "", line, len(text) - line_start + 1))
    return tokens


# binding power of each connective; "=>" groups to the right, the others to
# the left
_PRECEDENCE = {"<=>": 1, "=>": 2, "|": 3, "&": 4}


class _Parser:
    def __init__(self, text: str):
        self.tokens = _tokenize(text)
        self.pos = 0
        self.bound: frozenset[str] = frozenset()  # names the enclosing quantifiers bind

    def peek(self) -> _Token:
        return self.tokens[self.pos]

    def next(self) -> _Token:
        tok = self.tokens[self.pos]
        self.pos += 1
        return tok

    def at_op(self, *ops: str) -> bool:
        kind, value, _, _ = self.peek()
        return kind == "op" and value in ops

    def expect_op(self, op: str) -> None:
        kind, value, line, col = self.peek()
        if kind != "op" or value != op:
            raise PredicateSyntaxError(f"found {value or kind!r}", line, col, (repr(op),))
        self.pos += 1

    def expect_name(self) -> str:
        kind, value, line, col = self.peek()
        if kind != "name":
            raise PredicateSyntaxError(f"found {value or kind!r}", line, col, ("variable name",))
        self.pos += 1
        return value

    def parse(self) -> Predicate:
        if self.at_op("?"):
            self.next()
            kind, value, line, col = self.next()
            if kind != "name" or value != "msd_pell":
                raise PredicateSyntaxError(
                    f"unsupported numeration {value!r}", line, col, ("msd_pell",)
                )
        p = self.parse_binary()
        kind, value, line, col = self.peek()
        if kind != "end":
            raise PredicateSyntaxError(f"trailing input {value!r}", line, col, ("end of input",))
        return p

    def parse_binary(self, floor: int = 1) -> Predicate:
        """Precedence climbing: a chain of connectives that bind at least
        as tightly as ``floor``."""
        p = self.parse_unary()
        while True:
            value = self.peek()[1]  # only an op token spells a connective
            power = _PRECEDENCE.get(value, 0)
            if power < floor:
                return p
            self.next()
            p = PBin(value, p, self.parse_binary(power if value == "=>" else power + 1))

    def parse_unary(self) -> Predicate:
        kind, value, line, col = self.peek()
        if kind == "op" and value == "~":
            self.next()
            return PNot(self.parse_unary())
        if kind == "quant":
            self.next()
            return self.parse_quantifier(value, line, col)
        return self.parse_atom()

    def parse_quantifier(self, kind: str, line: int, col: int) -> Predicate:
        """The names and body after ``A`` or ``E``.  A name that an enclosing
        quantifier binds, or that this one repeats, is an error at the name."""
        if self.peek()[0] != "name":
            raise PredicateSyntaxError(
                "quantifier without variables", line, col, ("variable name",)
            )
        outer = self.bound
        names: list[str] = []
        while True:
            _, _, at_line, at_col = self.peek()
            name = self.expect_name()
            if name in outer:
                raise PredicateSyntaxError(f"variable {name!r} is bound twice", at_line, at_col)
            if name in names:
                raise PredicateSyntaxError("quantifier repeats a variable", at_line, at_col)
            names.append(name)
            if not self.at_op(","):
                break
            self.next()
        # a quantifier swallows everything to its right
        self.bound = outer.union(names)
        body = self.parse_binary()
        self.bound = outer
        return PQuant(kind, tuple(names), body)

    def parse_atom(self) -> Predicate:
        kind, value, line, col = self.peek()
        if kind == "op" and value == "(":
            self.next()
            p = self.parse_binary()
            self.expect_op(")")
            return p
        if kind == "call":
            self.next()
            name = value[1:]
            self.expect_op("(")
            args = [self.parse_term()]
            while self.at_op(","):
                self.next()
                args.append(self.parse_term())
            self.expect_op(")")
            return PCall(name, tuple(args))
        if kind == "name" and self.tokens[self.pos + 1][:2] == ("op", "["):
            return self.parse_sequence_atom()
        return self.parse_comparison()

    def parse_sequence_atom(self) -> Predicate:
        name = self.expect_name()
        self.expect_op("[")
        index = self.parse_term()
        self.expect_op("]")
        kind, value, line, col = self.peek()
        if kind != "op" or value not in ("=", "!="):
            raise PredicateSyntaxError(f"found {value or kind!r}", line, col, ("'='", "'!='"))
        self.next()
        negated = value == "!="
        kind, value, line, col = self.peek()
        if kind == "op" and value == "@":
            self.next()
            kind, value, line, col = self.peek()
            if kind != "number":
                raise PredicateSyntaxError(f"found {value or kind!r}", line, col, ("output digit",))
            self.next()
            atom: Predicate = PSeqConst(name, index, int(value))
        else:
            other = self.expect_name()
            self.expect_op("[")
            other_index = self.parse_term()
            self.expect_op("]")
            atom = PSeqPair(name, index, other, other_index)
        return PNot(atom) if negated else atom

    def parse_comparison(self) -> Predicate:
        left = self.parse_term()
        kind, value, line, col = self.peek()
        if kind != "op" or value not in ("=", "!=", "<", "<=", ">", ">="):
            raise PredicateSyntaxError(
                f"found {value or kind!r}", line, col, ("comparison operator",)
            )
        self.next()
        right = self.parse_term()
        return PCmp(value, left, right)

    def parse_term(self) -> Term:
        t = self.parse_factor()
        while self.at_op("+"):
            self.next()
            t = TAdd(t, self.parse_factor())
        return t

    def parse_factor(self) -> Term:
        kind, value, line, col = self.peek()
        if kind == "number":
            self.next()
            if self.at_op("*"):
                self.next()
                return TMul(int(value), self.parse_factor())
            return TConst(int(value))
        if kind == "name":
            self.next()
            return TVar(value)
        raise PredicateSyntaxError(
            f"found {value or kind!r}", line, col, ("number", "variable name")
        )


def parse(text: str) -> Predicate:
    """Parse predicate text (optionally headed by "?msd_pell") to an AST;
    nesting past Python's recursion limit is a PredicateSyntaxError."""
    parser = _Parser(text)
    try:
        return parser.parse()
    except RecursionError:
        _, _, line, col = parser.peek()
        raise PredicateSyntaxError("the predicate nests too deeply", line, col) from None


# ---------------------------------------------------------------------------
# compiled relations


@dataclass(frozen=True)
class Relation:
    """An automaton together with the variable name carried by each track.
    An atom's tracks follow its arguments and ``_combine`` orders a
    product's by name; ``compile`` orders the rest before it returns."""

    dfa: Dfa
    tracks: tuple[str, ...]

    @property
    def is_true(self) -> bool:
        if self.tracks:
            raise CompileError(
                f"predicate has free variables {', '.join(self.tracks)}; expected none"
            )
        return bool(self.dfa.accepting[self.dfa.initial])


# The builders below are memoized per process.  Automata hash and compare
# by content, so an equal sequence machine finds the entry of an earlier one.


@cache
def _comparison(op: str) -> Dfa:
    """2-track relation for one comparison; numeric order is lexicographic
    order of equal-length padded canonical representations."""
    alphabet = TrackAlphabet(2)
    a, b = alphabet.unpack(np.arange(alphabet.size))
    delta = np.empty((3, alphabet.size), dtype=np.int32)
    delta[0] = np.where(a == b, 0, np.where(a < b, 1, 2))
    delta[1, :] = 1
    delta[2, :] = 2
    accept_sets = {
        "=": (0,),
        "!=": (1, 2),
        "<": (1,),
        "<=": (0, 1),
        ">": (2,),
        ">=": (0, 2),
    }
    accepting = np.zeros(3, dtype=bool)
    accepting[list(accept_sets[op])] = True
    core = Dfa(alphabet, delta, accepting, 0)
    return pell.restrict(core)


@cache
def _const_dfa(value: int) -> Dfa:
    """1-track automaton accepting exactly the padded representations of one
    natural number."""
    digits = [int(d) for d in pell.encode(value)]
    n = len(digits) + 2  # match states, plus the padding start, plus dead
    dead = n - 1
    delta = np.full((n, 3), dead, dtype=np.int32)
    delta[0, 0] = 0
    for i, d in enumerate(digits):
        delta[i, d] = i + 1
    accepting = np.zeros(n, dtype=bool)
    accepting[len(digits)] = True
    return automata.minimize(Dfa(TrackAlphabet(1), delta, accepting, 0))


@cache
def _slice(m: Dfao, value: int) -> Dfa:
    """1-track relation: the sequence value at the track's number equals
    ``value``."""
    core = Dfa(m.alphabet, m.delta, np.asarray(m.outputs) == value, m.initial)
    return pell.restrict(core)


@cache
def _pair_equal(a: Dfao, b: Dfao) -> Dfa:
    """2-track relation: a's value at track 0 equals b's value at track 1."""
    at0, at1 = automata.cylindrify(a, (0,), 2), automata.cylindrify(b, (1,), 2)
    return pell.restrict(automata.product(at0, at1, "iff"))


_OP_NAMES = {"&": "and", "|": "or", "=>": "implies", "<=>": "iff"}


def _spread(r: Relation, names: tuple[str, ...]) -> Dfa:
    """Place a relation's tracks among a sorted superset of its names."""
    return automata.cylindrify(r.dfa, [names.index(n) for n in r.tracks], len(names))


def _combine(a: Relation, b: Relation, op: str = "&") -> Relation:
    """Boolean combination over the union of the two track sets, in name
    order: the product renumbers its states canonically anyway."""
    names = tuple(sorted(set(a.tracks) | set(b.tracks)))
    prod = automata.product(_spread(a, names), _spread(b, names), _OP_NAMES[op])
    if op != "&":
        # or/implies/iff can accept junk on tracks the operands did not both
        # constrain (and implies/iff accept whatever both reject), so restrict
        # back to valid representations.
        prod = pell.restrict(prod)
    return Relation(prod, names)


def _negate(r: Relation) -> Relation:
    return Relation(pell.restrict(automata.complement(r.dfa)), r.tracks)


def _project_var(r: Relation, name: str) -> Relation:
    idx = r.tracks.index(name)
    rest = r.tracks[:idx] + r.tracks[idx + 1 :]
    return Relation(automata.project(r.dfa, idx), rest)


def _eliminate(constraints: list[Relation], temps: list[str]) -> Relation:
    """Conjoin constraints, projecting each temp variable as early as its
    last use allows, which keeps intermediate track counts low.  Among temps
    of equal bucket width the earliest made goes first."""
    work = list(constraints)
    remaining = list(temps)
    while remaining:
        best_name, best_width = None, None
        for t in remaining:
            bucket_tracks = set().union(*(set(r.tracks) for r in work if t in r.tracks))
            if best_width is None or len(bucket_tracks) < best_width:
                best_name, best_width = t, len(bucket_tracks)
        bucket = [r for r in work if best_name in r.tracks]
        rest = [r for r in work if best_name not in r.tracks]
        joined = reduce(_combine, bucket)
        work = rest + [_project_var(joined, best_name)]
        remaining.remove(best_name)
    return reduce(_combine, work)


def _conjuncts(p: Predicate, negated: bool = False) -> list[Predicate]:
    """Predicates whose conjunction is p, or ~p when ``negated``: the
    negation is pushed through ~, | and =>, and & chains are split."""
    if isinstance(p, PNot):
        return _conjuncts(p.body, not negated)
    if isinstance(p, PBin) and p.op == ("&", "|")[negated]:
        return _conjuncts(p.left, negated) + _conjuncts(p.right, negated)
    if isinstance(p, PBin) and p.op == "=>" and negated:
        return _conjuncts(p.left) + _conjuncts(p.right, True)
    return [PNot(p)] if negated else [p]


# ---------------------------------------------------------------------------
# environment


def _check_name(name: str) -> str:
    if not re.fullmatch(r"[A-Za-z_]\w*", name):
        raise CompileError(f"invalid name {name!r}")
    if name[0] in "AE":
        raise CompileError(
            f"name {name!r} would collide with the quantifier letters A/E"
        )
    return name


def _pads_freely(m: Dfa | Dfao) -> bool:
    """A leading zero changes no word's label: the minimal machine's initial
    state loops on the all-zero symbol."""
    canon = automata.minimize(m)
    return bool(canon.delta[canon.initial, 0] == canon.initial)


class Environment:
    """Immutable snapshot of named sequences, definitions and patterns.

    Definitions and regular-expression automata share one callable namespace
    (both are invoked as $name(...)); sequences live in their own namespace.
    ``sequence`` is the one place a word name resolves: to the machine bound
    to it, else to the built-in word of that name (``sequences.BUILTIN``), so
    a bound C or X shadows the paper's.  ``adder`` overrides the addition
    relation, which exists so tests can
    inject broken adders and watch proofs fail.  ``with_sequence`` and
    ``with_callable`` are the only ways to bind a name, and each checks what
    it binds against what the compiled relations assume.
    """

    def __init__(self, *, adder: Optional[Dfa] = None):
        self._sequences: dict[str, Dfao] = {}
        self._callables: dict[str, Relation] = {}
        self._adder = adder

    def with_sequence(self, name: str, m: Dfao) -> "Environment":
        """Bind a sequence: a one-track machine with outputs whose output
        ignores leading zeros, as the compiled relations assume."""
        if not isinstance(m, Dfao) or m.alphabet.n_tracks != 1:
            raise CompileError(f"sequence {name!r} must be a one-track automaton with outputs")
        if not _pads_freely(m):
            raise CompileError(f"the output of sequence {name!r} depends on leading zeros")
        env = copy.copy(self)
        env._sequences = {**self._sequences, _check_name(name): m}
        return env

    def with_callable(self, name: str, dfa: Dfa, params: tuple[str, ...]) -> "Environment":
        """Bind a relation called as $name(...): an automaton with one track
        per parameter that accepts only padded canonical tracks and ignores
        leading zeros, as every relation the compiler builds does."""
        self.unbound(name)
        k = len(params)
        if not isinstance(dfa, Dfa) or dfa.alphabet.n_tracks != k:
            raise CompileError(f"a definition with {k} parameters must be a {k}-track automaton")
        if not automata.is_empty(automata.product(dfa, pell.valid_tracks(k), "andnot")):
            raise CompileError(
                "the definition accepts a track that is not a canonical representation"
            )
        if not _pads_freely(dfa):
            raise CompileError("the definition depends on leading zeros")
        env = copy.copy(self)
        env._callables = {**self._callables, name: Relation(dfa, tuple(params))}
        return env

    def unbound(self, name: str) -> str:
        """``name``, if a relation may be bound to it: a valid name that no
        callable has yet.  Front ends check it before they compile."""
        if _check_name(name) in self._callables:
            raise CompileError(f"name {name!r} is already defined")
        return name

    def sequence(self, name: str) -> Dfao:
        if name in self._sequences:
            return self._sequences[name]
        if name in sequences.BUILTIN:
            return sequences.BUILTIN[name]()
        raise CompileError(f"unknown sequence {name!r}")

    def stored(self, name: str) -> Relation:
        if name not in self._callables:
            raise CompileError(f"unknown definition {name!r}")
        return self._callables[name]

    def adder(self) -> Dfa:
        return self._adder if self._adder is not None else learner.adder()


# ---------------------------------------------------------------------------
# change of variables: quantify over positions, not offsets
#
# In Aj (j + p < n) => X[i + j] = X[i + j + p] the offset j sits next to the
# start i in every index.  Projecting j out of the relation over (i, j, n, p)
# is the costliest step of the paper's sentences; over the position k = i + j
# the same relation, Ak (k >= i) => ((k + p < n + i) => X[k] = X[k + p]),
# projects through far fewer subsets.  Fewer still once the sum n + i is
# named outside k's quantifier, Ee (e = n + i) & (Ak (k >= i) => ((k + p < e)
# => X[k] = X[k + p])): the body that loses k then carries no sum.


def _nodes(p: Predicate):
    """Every node of a predicate, parents before children."""
    yield p
    if isinstance(p, (PNot, PQuant)):
        yield from _nodes(p.body)
    elif isinstance(p, PBin):
        yield from _nodes(p.left)
        yield from _nodes(p.right)


def _indices(p: Predicate) -> tuple[Term, ...]:
    if isinstance(p, PSeqConst):
        return (p.index,)
    if isinstance(p, PSeqPair):
        return (p.left_index, p.right_index)
    return ()


def _summands(t: Term) -> list[Term]:
    """The summands of a term: TAdd trees flattened, 1*x read as x."""
    if isinstance(t, TAdd):
        return _summands(t.left) + _summands(t.right)
    if isinstance(t, TMul) and t.factor == 1:
        return _summands(t.term)
    return [t]


def _once(summands: list[Term], name: str) -> bool:
    """The variable is exactly one of the summands and in no other."""
    j = TVar(name)
    return summands.count(j) == 1 and all(s == j or name not in _term_vars(s) for s in summands)


def _anchor(name: str, body: Predicate) -> Optional[str]:
    """The variable t for which ``name`` may be rebound as the position
    t + name in ``body``, or None.

    Every index term mentioning the name must read t + name + u for one
    variable t (u any further summands), and there must be two such terms;
    the name must have coefficient 1 in every comparison and appear in no
    call; t (and the name) must be bound nowhere inside the body.
    """
    anchors = []
    bound: set[str] = set()
    for q in _nodes(body):
        if isinstance(q, PQuant):
            bound.update(q.names)
        elif isinstance(q, PCall):
            if any(name in _term_vars(a) for a in q.args):
                return None
        elif isinstance(q, PCmp):
            if name in _term_vars(q.left) | _term_vars(q.right):
                if not _once(_summands(q.left) + _summands(q.right), name):
                    return None
        for index in _indices(q):
            if name in _term_vars(index):
                s = _summands(index)
                shaped = len(s) >= 2 and isinstance(s[0], TVar) and s[1] == TVar(name)
                if not (shaped and _once(s, name)):
                    return None
                anchors.append(s[0].name)
    if len(anchors) < 2 or len(set(anchors)) != 1 or bound & {name, anchors[0]}:
        return None
    return anchors[0]


def _crossed(body: Predicate, name: str, anchor: str) -> list[Term]:
    """The comparison sides, each once, that ``_rebind`` moves the anchor to."""
    sides: list[Term] = []
    for p in _nodes(body):
        if isinstance(p, PCmp):
            near, far = (p.left, p.right) if name in _term_vars(p.left) else (p.right, p.left)
            crosses = name in _term_vars(near) and TVar(anchor) not in _summands(near)
            if crosses and far not in sides:
                sides.append(far)
    return sides


def _rebind(p: Predicate, name: str, anchor: str, ends: Mapping[Term, str]) -> Predicate:
    """Substitute name - anchor for name: the anchor leaves every index
    t + name + u, and crosses every comparison that mentions the name.  A
    side v it crosses to becomes the variable ends[v] if there is one, else
    v + t."""
    t = TVar(anchor)
    if isinstance(p, PCmp):
        sides = [p.left, p.right]
        for k in (0, 1):
            if name in _term_vars(sides[k]):
                own = _summands(sides[k])
                if t in own:
                    own.remove(t)
                    sides[k] = reduce(TAdd, own)
                else:
                    v = sides[1 - k]
                    sides[1 - k] = TVar(ends[v]) if v in ends else TAdd(v, t)
                return PCmp(p.op, *sides)
        return p

    def shift(index: Term) -> Term:
        return reduce(TAdd, _summands(index)[1:]) if name in _term_vars(index) else index

    if isinstance(p, PSeqConst):
        return PSeqConst(p.name, shift(p.index), p.value)
    if isinstance(p, PSeqPair):
        return PSeqPair(p.left_name, shift(p.left_index), p.right_name, shift(p.right_index))
    if isinstance(p, PNot):
        return PNot(_rebind(p.body, name, anchor, ends))
    if isinstance(p, PBin):
        return PBin(p.op, _rebind(p.left, name, anchor, ends), _rebind(p.right, name, anchor, ends))
    if isinstance(p, PQuant):
        return PQuant(p.kind, p.names, _rebind(p.body, name, anchor, ends))
    return p


def _positions(q: PQuant) -> PQuant:
    """Rebind each offset the quantifier binds as a position, where that fits.

    ``Qx,y φ`` is ``Qx Qy φ``; each name, innermost first, becomes
    ``Qj (j >= t) op φ'`` (op ``=>`` for A, ``&`` for E) when ``_anchor``
    finds its t.  Names that do not move stay together, in their order.

    A side v that t crosses to is named outside the moved quantifier, as
    ``E%j0 (%j0 = v + t) & Qj ...``, when that takes every variable of v
    but t out of φ': v has such a variable, none is bound inside φ, and
    each occurs in φ' only within sides equal to v.  So the moved body
    never gains a track.  Otherwise the side reads v + t.
    """
    body, held = q.body, ()
    for name in reversed(q.names):
        inner = PQuant(q.kind, held, body) if held else body
        anchor = _anchor(name, inner)
        if anchor is None:
            held = (name,) + held
            continue
        bound = {n for p in _nodes(inner) if isinstance(p, PQuant) for n in p.names}
        ends: dict[Term, str] = {}
        for v in _crossed(inner, name, anchor):
            own = _term_vars(v) - {anchor}
            # what stays free once v is named ("%" is a stand-in)
            left = free_variables(_rebind(inner, name, anchor, {v: "%"}))
            if own and not own & (bound | left):
                ends[v] = f"%{name}{len(ends)}"
        guard = PCmp(">=", TVar(name), TVar(anchor))
        moved = PBin("=>" if q.kind == "A" else "&", guard, _rebind(inner, name, anchor, ends))
        body, held = PQuant(q.kind, (name,), moved), ()
        if ends:
            named = [PCmp("=", TVar(e), TAdd(v, TVar(anchor))) for v, e in ends.items()]
            conj = reduce(lambda a, b: PBin("&", a, b), named + [body])
            body = PQuant("E", tuple(ends.values()), conj)
    return PQuant(q.kind, held, body) if held else body


# ---------------------------------------------------------------------------
# compiler


class _Context:
    """Constraint accumulator for one atom."""

    def __init__(self, compiler: "_Compiler"):
        self.compiler = compiler
        self.constraints: list[Relation] = []
        self.temps: list[str] = []

    def fresh(self) -> str:
        name = f"%{self.compiler.counter}"
        self.compiler.counter += 1
        self.temps.append(name)
        return name

    def add(self, dfa: Dfa, names: tuple[str, ...]) -> None:
        """Add a constraint, freshening duplicate variables through equality."""
        seen: set[str] = set()
        final: list[str] = []
        for n in names:
            if n in seen:
                u = self.fresh()
                self.constraints.append(Relation(_comparison("="), (n, u)))
                final.append(u)
            else:
                seen.add(n)
                final.append(n)
        self.constraints.append(Relation(dfa, tuple(final)))

    def term(self, t: Term) -> str:
        """Flatten a term to a variable, emitting defining constraints."""
        if isinstance(t, TVar):
            return t.name
        if isinstance(t, TConst):
            v = self.fresh()
            self.add(_const_dfa(t.value), (v,))
            return v
        if isinstance(t, TAdd):
            a = self.term(t.left)
            b = self.term(t.right)
            s = self.fresh()
            self.add(self.compiler.adder, (a, b, s))
            return s
        if t.factor == 0:
            # 0*t is 0, but the variables of t keep their tracks
            for name in sorted(_term_vars(t.term)):
                self.add(pell.valid_tracks(1), (name,))
            v = self.fresh()
            self.add(_const_dfa(0), (v,))
            return v
        return self._times(t.factor, self.term(t.term))

    def _times(self, k: int, v: str) -> str:
        if k == 1:
            return v
        if k % 2 == 0:
            half = self._times(k // 2, v)
            out = self.fresh()
            self.add(self.compiler.adder, (half, half, out))
            return out
        rest = self._times(k - 1, v)
        out = self.fresh()
        self.add(self.compiler.adder, (rest, v, out))
        return out

    def finish(self) -> Relation:
        return _eliminate(self.constraints, self.temps)


class _Compiler:
    def __init__(self, env: Environment):
        self.env = env
        self.adder = env.adder()
        self.counter = 0

    def atom(self, p: Predicate) -> tuple[Dfa, tuple[Term, ...]]:
        """An atom's automaton and the terms on its tracks."""
        if isinstance(p, PCmp):
            return _comparison(p.op), (p.left, p.right)
        if isinstance(p, PSeqConst):
            m = self.env.sequence(p.name)
            if p.value not in set(map(int, m.outputs)):
                raise CompileError(
                    f"output @{p.value} is not in the alphabet of sequence {p.name!r}"
                )
            return _slice(m, p.value), (p.index,)
        if isinstance(p, PSeqPair):
            pair = _pair_equal(self.env.sequence(p.left_name), self.env.sequence(p.right_name))
            return pair, (p.left_index, p.right_index)
        stored = self.env.stored(p.name)
        if len(p.args) != len(stored.tracks):
            raise CompileError(
                f"${p.name} takes {len(stored.tracks)} arguments, got {len(p.args)}"
            )
        return stored.dfa, p.args

    def compile(self, p: Predicate) -> Relation:
        # the relation's tracks are the free variables: past the track
        # budget, fail before any part of it builds a table
        TrackAlphabet(len(free_variables(p)))
        if isinstance(p, (PCmp, PSeqConst, PSeqPair, PCall)):
            dfa, terms = self.atom(p)
            ctx = _Context(self)
            ctx.add(dfa, tuple(ctx.term(t) for t in terms))
            return ctx.finish()
        if isinstance(p, PNot):
            return _negate(self.compile(p.body))
        if isinstance(p, PBin):
            return _combine(self.compile(p.left), self.compile(p.right), p.op)
        if isinstance(p, PQuant):
            try:
                return self.quantifier(_positions(p))
            except (automata.PairBudgetError, automata.SubsetBudgetError) as e:
                # the innermost quantifier as written names the error: one
                # that binds or sees a compiler name ("%") came from _positions
                free = sorted(free_variables(p))
                if not hasattr(e, "quantifier") and not any("%" in n for n in p.names + tuple(free)):
                    over = ", ".join(free) or "no free variables"
                    e.quantifier = f"{p.kind}{','.join(p.names)} over {over}"
                    e.args = (f"{e.args[0]} (in {e.quantifier})",)
                raise
        raise CompileError(f"cannot compile {type(p).__name__}")

    def quantifier(self, q: PQuant) -> Relation:
        """Ex φ eliminates x from the conjuncts of φ bucket by bucket, and
        Ax φ is ~Ex ~φ."""
        parts = [self.compile(c) for c in _conjuncts(q.body, q.kind == "A")]
        occur = set().union(*(r.tracks for r in parts))
        r = _eliminate(parts, [n for n in q.names if n in occur])
        return _negate(r) if q.kind == "A" else r


def compile(p: Union[str, Predicate], env: Optional[Environment] = None) -> Relation:
    """Compile a predicate to its minimal automaton, in canonical numbering,
    over its free variables in name order: tracks that no product ordered
    are ordered here.  The one exception is a bare $name(...) with its
    arguments in order, which gives the automaton as it was bound.  An AST
    nested past Python's recursion limit raises CompileError."""
    if isinstance(p, str):
        p = parse(p)
    try:
        r = _Compiler(env if env is not None else Environment()).compile(p)
    except RecursionError:
        raise CompileError("the predicate nests too deeply") from None
    names = tuple(sorted(r.tracks))
    return r if r.tracks == names else Relation(automata.minimize(_spread(r, names)), names)


def eval_closed(p: Union[str, Predicate], env: Optional[Environment] = None) -> bool:
    """Truth value of a predicate with no free variables."""
    return compile(p, env).is_true


def define(env: Environment, name: str, p: Union[str, Predicate]) -> Environment:
    """Compile a predicate and store it as a callable $name(...)."""
    r = compile(p, env)
    return env.with_callable(name, r.dfa, r.tracks)


# ---------------------------------------------------------------------------
# digit regular expressions


def _regex_dfa(pattern: str) -> Dfa:
    """Position automaton (Glushkov; McNaughton and Yamada) of a digit
    pattern, read up to leading zeros and determinized: it accepts 0^i w
    whenever the pattern matches 0^j w for some j.

    State 0 starts, and state i has just read the pattern's i-th digit, so
    there are no empty moves.  Each subpattern yields whether it matches the
    empty string and its first and last positions; concatenation and
    ``*``/``+`` add follow edges from last positions to first ones.  No
    state enters state 0, so a loop there on 0 reads only leading zeros,
    and the one subset construction starts from every state that 0s lead
    state 0 to, as ``automata.project`` starts from its own zero closure.
    """
    digit = [0]  # the digit each position reads; state 0 reads padding zeros
    follow: list[set[int]] = [set()]
    pos = 0

    def error(msg: str):
        return PredicateSyntaxError(msg, 1, pos + 1)

    def parse_alt() -> tuple[bool, set[int], set[int]]:
        nonlocal pos
        empty, first, last = parse_cat()
        while pos < len(pattern) and pattern[pos] == "|":
            pos += 1
            e2, f2, l2 = parse_cat()
            empty, first, last = empty or e2, first | f2, last | l2
        return empty, first, last

    def parse_cat() -> tuple[bool, set[int], set[int]]:
        empty, first, last = True, set(), set()
        while pos < len(pattern) and pattern[pos] not in ")|":
            e2, f2, l2 = parse_rep()
            for i in last:
                follow[i] |= f2
            first = first | f2 if empty else first
            last = last | l2 if e2 else l2
            empty = empty and e2
        return empty, first, last

    def parse_rep() -> tuple[bool, set[int], set[int]]:
        nonlocal pos
        empty, first, last = parse_prim()
        while pos < len(pattern) and pattern[pos] in "*+?":
            op = pattern[pos]
            pos += 1
            if op in "*+":
                for i in last:
                    follow[i] |= first
            if op in "*?":
                empty = True
        return empty, first, last

    def parse_prim() -> tuple[bool, set[int], set[int]]:
        nonlocal pos
        if pos >= len(pattern):
            raise error("pattern ended unexpectedly")
        ch = pattern[pos]
        if ch == "(":
            pos += 1
            parsed = parse_alt()
            if pos >= len(pattern) or pattern[pos] != ")":
                raise error("unbalanced parenthesis")
            pos += 1
            return parsed
        if ch in "012":
            pos += 1
            digit.append(int(ch))
            follow.append(set())
            return False, {len(digit) - 1}, {len(digit) - 1}
        raise error(f"unexpected pattern character {ch!r}")

    try:
        empty, first, last = parse_alt()
    except RecursionError:
        raise error("the pattern nests too deeply") from None
    if pos != len(pattern):
        raise error(f"unexpected pattern character {pattern[pos]!r}")
    follow[0] = first | {0}  # the loop on 0
    n = len(digit)
    # a missing digit leads to the sink state n
    targets = [
        [sorted(t for t in follow[q] if digit[t] == d) or [n] for d in range(3)]
        for q in range(n)
    ] + [[[n]] * 3]
    width = max(len(ts) for row in targets for ts in row)
    delta3 = np.array([[ts + ts[:1] * (width - len(ts)) for ts in row] for row in targets])
    accepting = np.isin(np.arange(n + 1), list(last))
    accepting[0] = empty
    init = np.flatnonzero(automata._bfs_order(delta3[:, 0, :], 0) >= 0)
    return automata._determinize(delta3, init, accepting, TrackAlphabet(1))


def reg(env: Environment, name: str, pattern: str) -> Environment:
    """Store a digit regular expression as a 1-argument callable.

    The pattern matches literal digit strings; the stored relation accepts a
    number when some zero-padded spelling of its canonical representation
    matches, so the pattern is read up to leading zeros.  Its automaton
    (``_regex_dfa``, one subset construction) is restricted to the domain.
    """
    return env.with_callable(name, pell.restrict(_regex_dfa(pattern)), ("w",))


# ---------------------------------------------------------------------------
# evaluating relations on concrete numbers


def relation_accepts(r: Relation, values: Mapping[str, int]) -> bool:
    """Membership of one assignment (values keyed by track name)."""
    row = np.array([[values[name] for name in r.tracks]], dtype=np.int64)
    return bool(relation_accepts_batch(r, row)[0])


def relation_accepts_batch(r: Relation, rows: np.ndarray) -> np.ndarray:
    """Vectorized membership for an (n, len(tracks)) array of naturals."""
    rows = np.asarray(rows, dtype=np.int64)
    if rows.ndim != 2 or rows.shape[1] != len(r.tracks):
        raise ValueError(f"expected shape (n, {len(r.tracks)})")
    # one encoding of every value, track after track, pads all to one length
    digits = pell.encode_batch(rows.T.ravel())
    words = r.dfa.alphabet.pack(digits.reshape(len(r.tracks), len(rows), digits.shape[1]))
    states = automata.run_batch(r.dfa, words)
    return np.asarray(r.dfa.accepting)[states]
