"""Cylindric term language: AST, parser, printer and index analysis.

Terms are built from variables x0..x{m-1}, the Boolean constants 0 and 1,
diagonal constants d<i><j>, complement, meet, join and the cylindrification
prefixes c<i>.  Concrete syntax (binding tightest first): `-` and `c<i>`,
then `.`, then `+`.  Meet and join parse right-associatively, so rendering
parenthesises only where structure would otherwise be lost and
``parse_term(render_term(t)) == t`` holds for every term.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from itertools import product
from typing import Iterator, Sequence as Seq


@dataclass(frozen=True)
class Term:
    pass


@dataclass(frozen=True)
class Var(Term):
    k: int

    def __str__(self):
        return f"x{self.k}"


@dataclass(frozen=True)
class Zero(Term):
    def __str__(self):
        return "0"


@dataclass(frozen=True)
class One(Term):
    def __str__(self):
        return "1"


@dataclass(frozen=True)
class Diag(Term):
    i: int
    j: int

    def __str__(self):
        if self.i < 10 and self.j < 10:
            return f"d{self.i}{self.j}"
        return f"d{self.i},{self.j}"


@dataclass(frozen=True)
class Not(Term):
    t: Term


@dataclass(frozen=True)
class And(Term):
    t1: Term
    t2: Term


@dataclass(frozen=True)
class Or(Term):
    t1: Term
    t2: Term


@dataclass(frozen=True)
class Cyl(Term):
    i: int
    t: Term


ZERO = Zero()
ONE = One()


class TermSyntaxError(ValueError):
    """Raised on malformed term text; carries the offending position."""

    def __init__(self, message: str, position: int):
        super().__init__(f"{message} (at position {position})")
        self.position = position


_TOKEN_RE = re.compile(
    r"""
    (?P<ws>\s+)
  | (?P<var>x(?P<var_k>\d+))
  | (?P<cyl>c(?P<cyl_i>\d+))
  | (?P<diag>d(?:(?P<di>\d+),(?P<dj>\d+)|(?P<di1>\d)(?P<dj1>\d)))
  | (?P<zero>0)
  | (?P<one>1)
  | (?P<minus>-)
  | (?P<dot>\.)
  | (?P<plus>\+)
  | (?P<lpar>\()
  | (?P<rpar>\))
    """,
    re.VERBOSE,
)


def _tokenize(text: str) -> list[tuple[str, object, int]]:
    tokens = []
    pos = 0
    while pos < len(text):
        m = _TOKEN_RE.match(text, pos)
        if m is None:
            raise TermSyntaxError(f"unexpected character {text[pos]!r}", pos)
        # The outer named group closes last, so lastgroup is never a digit group.
        kind = m.lastgroup
        if kind == "var":
            value = int(m["var_k"])
        elif kind == "cyl":
            value = int(m["cyl_i"])
        elif kind == "diag":
            value = (int(m["di"] or m["di1"]), int(m["dj"] or m["dj1"]))
        else:
            value = None
        if kind != "ws":
            tokens.append((kind, value, pos))
        pos = m.end()
    return tokens


# Deepest nesting the parser accepts.  Every '(', '-', 'c<i>' and every
# '.' or '+' that nests the rest of a chain counts one level.  Below it the
# recursive parser, printer, index analysis and evaluator stay well inside
# Python's recursion limit; the library's deepest term, guarded_twin_term(),
# nests 13 levels.
MAX_DEPTH = 100


class _Parser:
    def __init__(self, tokens: list[tuple[str, object, int]], text_len: int, m: int | None):
        self.tokens = tokens
        self.pos = 0
        self.text_len = text_len
        self.m = m

    def peek(self) -> str:
        return self.tokens[self.pos][0] if self.pos < len(self.tokens) else "eof"

    def next(self) -> tuple[str, object, int]:
        if self.pos >= len(self.tokens):
            raise TermSyntaxError("unexpected end of term", self.text_len)
        tok = self.tokens[self.pos]
        self.pos += 1
        return tok

    def deeper(self, depth: int, pos: int) -> int:
        if depth >= MAX_DEPTH:
            raise TermSyntaxError(f"term nests deeper than {MAX_DEPTH} levels", pos)
        return depth + 1

    def parse_or(self, depth: int = 0) -> Term:
        left = self.parse_and(depth)
        if self.peek() == "plus":
            _, _, pos = self.next()
            return Or(left, self.parse_or(self.deeper(depth, pos)))
        return left

    def parse_and(self, depth: int) -> Term:
        left = self.parse_unary(depth)
        if self.peek() == "dot":
            _, _, pos = self.next()
            return And(left, self.parse_and(self.deeper(depth, pos)))
        return left

    def parse_unary(self, depth: int) -> Term:
        kind = self.peek()
        if kind == "minus":
            _, _, pos = self.next()
            return Not(self.parse_unary(self.deeper(depth, pos)))
        if kind == "cyl":
            _, i, pos = self.next()
            return Cyl(i, self.parse_unary(self.deeper(depth, pos)))
        return self.parse_atom(depth)

    def parse_atom(self, depth: int) -> Term:
        kind, value, pos = self.next()
        if kind == "var":
            if self.m is not None and value >= self.m:
                raise TermSyntaxError(
                    f"variable x{value} out of range for {self.m} generators", pos
                )
            return Var(value)
        if kind == "zero":
            return ZERO
        if kind == "one":
            return ONE
        if kind == "diag":
            return Diag(*value)
        if kind == "lpar":
            inner = self.parse_or(self.deeper(depth, pos))
            close, _, cpos = self.next() if self.pos < len(self.tokens) else ("eof", None, self.text_len)
            if close != "rpar":
                raise TermSyntaxError("expected ')'", cpos)
            return inner
        raise TermSyntaxError(f"unexpected token {kind!r}", pos)


def parse_term(text: str, m: int | None = None) -> Term:
    """Parse term text; variable indices must stay below `m` when given."""
    tokens = _tokenize(text)
    parser = _Parser(tokens, len(text), m)
    term = parser.parse_or()
    if parser.pos < len(tokens):
        raise TermSyntaxError("trailing input after term", tokens[parser.pos][2])
    return term


# Precedence levels used by the renderer: join < meet < unary < atoms.
def _level(t: Term) -> int:
    if isinstance(t, Or):
        return 0
    if isinstance(t, And):
        return 1
    if isinstance(t, (Not, Cyl)):
        return 2
    return 3


def _render(t: Term, min_level: int) -> str:
    if isinstance(t, Or):
        raw = f"{_render(t.t1, 1)} + {_render(t.t2, 0)}"
    elif isinstance(t, And):
        raw = f"{_render(t.t1, 2)} . {_render(t.t2, 1)}"
    elif isinstance(t, Not):
        raw = f"-{_render(t.t, 2)}"
    elif isinstance(t, Cyl):
        sep = " " if _level(t.t) >= 2 else ""
        raw = f"c{t.i}{sep}{_render(t.t, 2)}"
    else:
        raw = str(t)
    if _level(t) < min_level:
        return f"({raw})"
    return raw


def render_term(t: Term) -> str:
    """Render `t` so that parsing the result reproduces `t` exactly."""
    return _render(t, 0)


def index_set(t: Term) -> frozenset[int]:
    """All coordinate indices occurring in cylindrifications and diagonals."""
    if isinstance(t, Diag):
        return frozenset((t.i, t.j))
    if isinstance(t, Cyl):
        return frozenset((t.i,)) | index_set(t.t)
    if isinstance(t, Not):
        return index_set(t.t)
    if isinstance(t, (And, Or)):
        return index_set(t.t1) | index_set(t.t2)
    return frozenset()


def variables(t: Term) -> frozenset[int]:
    if isinstance(t, Var):
        return frozenset((t.k,))
    if isinstance(t, (Not, Cyl)):
        return variables(t.t)
    if isinstance(t, (And, Or)):
        return variables(t.t1) | variables(t.t2)
    return frozenset()


def subterms(t: Term) -> Iterator[Term]:
    """Yield every subterm of `t`, including `t` itself (preorder)."""
    yield t
    if isinstance(t, (Not, Cyl)):
        yield from subterms(t.t)
    elif isinstance(t, (And, Or)):
        yield from subterms(t.t1)
        yield from subterms(t.t2)


# --- named constructions -----------------------------------------------

# A choice function assigns +1 or -1 to each of the m generators.
ChoiceFunction = tuple[int, ...]


def all_choice_functions(m: int) -> list[ChoiceFunction]:
    return [q for q in product((1, -1), repeat=m)]


def _check_choice(m: int, q: Seq[int]) -> ChoiceFunction:
    q = tuple(q)
    if len(q) != m or any(s not in (1, -1) for s in q):
        raise ValueError(f"choice function must map all of 0..{m - 1} to +1/-1, got {q}")
    return q


def signed_var(k: int, sign: int) -> Term:
    return Var(k) if sign == 1 else Not(Var(k))


def conj(factors: Seq[Term]) -> Term:
    """Right-nested meet of `factors`; empty product is 1."""
    if not factors:
        return ONE
    out = factors[-1]
    for f in reversed(factors[:-1]):
        out = And(f, out)
    return out


def escape_term(i: int, j: int) -> Term:
    """c_i(-d_ij): sequences that can leave the i,j diagonal by moving coordinate i."""
    return Cyl(i, Not(Diag(i, j)))


def atom_term(m: int, q: Seq[int]) -> Term:
    """Signed generator product x0^q . ... . x{m-1}^q . -c0 -d01.

    For infinite alpha, the paper shows that these 2^m terms give all the
    atoms of the m-generated free D_alpha and G_alpha algebras.  What cylset
    shows is narrower: `separation_suite` checks that they are nonzero and
    pairwise separated, and `zero_dim_check` searches bounded D units for a
    point where the guard -c0 -d01 and a guard -c_i -d_ij over two other
    indices disagree below them.  Minimality is not checked, and over a
    two-index window it fails: there -c0 -d01 does not force -c1 -d01, so
    c1 -d01 splits x0 . -c0 -d01 between D units over window {0, 1}.
    """
    if m < 1:
        raise ValueError("atom terms need at least one generator (m >= 1)")
    q = _check_choice(m, q)
    literals = [signed_var(k, q[k]) for k in range(m)]
    return conj(literals + [Not(escape_term(0, 1))])


def splitter_term(i: int, j: int, sign: int, pivot: int = 0) -> Term:
    """c_pivot(-d01 . c_i(x0 . +/-d_ij)): the wedge that splits below c0 -d01.

    `sign` +1 keeps d_ij, -1 complements it; `pivot` in {0, 1} picks which of
    the first two coordinates carries the outer cylindrification.
    """
    if i == j:
        raise ValueError("splitter indices must differ")
    if i in (0, 1) or j in (0, 1):
        raise ValueError("splitter indices must avoid coordinates 0 and 1")
    if pivot not in (0, 1):
        raise ValueError("pivot must be 0 or 1")
    if sign not in (1, -1):
        raise ValueError("sign must be +1 or -1")
    dij: Term = Diag(i, j) if sign == 1 else Not(Diag(i, j))
    return Cyl(pivot, And(Not(Diag(0, 1)), Cyl(i, And(Var(0), dij))))


def xor_term(a: Term, b: Term) -> Term:
    """Symmetric difference a . -b + -a . b."""
    return Or(And(a, Not(b)), And(Not(a), b))


def cyl01(t: Term) -> Term:
    """Cylindrify over both of the first two coordinates: c0 c1 t."""
    return Cyl(0, Cyl(1, t))


def twin_term() -> Term:
    """c0 x0 . c1 x0 . -x0: the cylinder twin of the first generator."""
    return conj([Cyl(0, Var(0)), Cyl(1, Var(0)), Not(Var(0))])


def twin_guard_term() -> Term:
    """Four-part guard forcing x0 and its twin to share all 0/1-cylinders.

    Conjunct by conjunct: the 0-cylinders of x0 and of the twin agree, the
    1-cylinders agree, and both diagonal-bound products stay below d01 -- each
    stated as the complement of the doubly-cylindrified failure region.
    """
    x = Var(0)
    y = twin_term()
    d01 = Diag(0, 1)
    parts = [
        Not(cyl01(xor_term(Cyl(0, x), Cyl(0, y)))),
        Not(cyl01(xor_term(Cyl(1, x), Cyl(1, y)))),
        Not(cyl01(conj([Cyl(1, And(d01, Cyl(0, x))), Cyl(0, x), Not(d01)]))),
        Not(cyl01(conj([Cyl(0, And(d01, Cyl(1, x))), Cyl(1, x), Not(d01)]))),
    ]
    return conj(parts)


def guarded_term() -> Term:
    """x0 restricted by the twin guard; nonzero yet off every d_ij with i,j >= 2
    in the mapped witness algebra."""
    return And(Var(0), twin_guard_term())


def guarded_twin_term() -> Term:
    """The twin restricted by the same guard; pairs with guarded_term()."""
    return And(twin_term(), twin_guard_term())
