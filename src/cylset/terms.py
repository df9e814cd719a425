"""Cylindric term language: AST, parser, printer and index analysis.

Terms are built from variables x0..x{m-1}, the Boolean constants 0 and 1,
diagonal constants d<i><j>, complement, meet, join and the cylindrification
prefixes c<i>.  Concrete syntax (binding tightest first): `-` and `c<i>`,
then `.`, then `+`.  Meet and join parse right-associatively, so rendering
parenthesises only where structure would otherwise be lost and
``parse_term(render_term(t)) == t`` holds for every term.  The parser cuts
a text into tokens with two regular-expression scans and keeps the last
PARSE_CACHE_SIZE texts it parsed with their terms, so a repeated text is
parsed once.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from functools import lru_cache
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


# One token, after any whitespace: a variable, a cylindrification, a
# diagonal, or one of the characters 0 1 - . + ( ).  The first character of
# a token tells its kind.
_TOKEN = r"x\d+|c\d+|d(?:\d+,\d+|\d\d)|[01\-.+()]"
_TOKEN_RE = re.compile(rf"\s*({_TOKEN})")
# Tokens and whitespace from the start of a text: where this stops, no token
# starts, as when the text is cut into tokens left to right.
_TOKENS_RE = re.compile(rf"(?:\s+|{_TOKEN})*")
# The tokens that cannot start a term -> their names in error messages.
_KINDS = {".": "dot", "+": "plus", ")": "rpar"}


def _tokenize(text: str) -> list[str]:
    """The tokens of text, as strings, then "" to mark the end; both scans
    run at C level."""
    end = _TOKENS_RE.match(text).end()
    if end < len(text):
        raise TermSyntaxError(f"unexpected character {text[end]!r}", end)
    tokens = _TOKEN_RE.findall(text)
    tokens.append("")
    return tokens


# Deepest nesting the parser accepts.  Every '(', '-', 'c<i>' and every
# '.' or '+' that nests the rest of a chain counts one level.  Below it the
# recursive parser, printer and evaluator stay well inside Python's
# recursion limit; the library's deepest term, guarded_twin_term(), nests 13
# levels.
MAX_DEPTH = 100


class _Parser:
    def __init__(self, text: str, m: int | None):
        self.text = text
        self.tokens = _tokenize(text)
        self.pos = 0
        self.m = m

    def where(self, k: int) -> int:
        """The position in the text of token k, or the text's length at the
        end; worked out only for an error message."""
        starts = [t.start(1) for t in _TOKEN_RE.finditer(self.text)]
        return starts[k] if k < len(starts) else len(self.text)

    def deeper(self, depth: int) -> int:
        """One level below `depth`, for the token just read."""
        if depth >= MAX_DEPTH:
            raise TermSyntaxError(f"term nests deeper than {MAX_DEPTH} levels", self.where(self.pos - 1))
        return depth + 1

    def parse_or(self, depth: int = 0) -> Term:
        left = self.parse_and(depth)
        if self.tokens[self.pos] == "+":
            self.pos += 1
            return Or(left, self.parse_or(self.deeper(depth)))
        return left

    def parse_and(self, depth: int) -> Term:
        left = self.parse_unary(depth)
        if self.tokens[self.pos] == ".":
            self.pos += 1
            return And(left, self.parse_and(self.deeper(depth)))
        return left

    def parse_unary(self, depth: int) -> Term:
        """A prefixed term or an atom; the first character of a token tells
        its kind."""
        token = self.tokens[self.pos]
        if not token:
            raise TermSyntaxError("unexpected end of term", len(self.text))
        self.pos += 1
        lead = token[0]
        if lead == "x":
            k = int(token[1:])
            if self.m is not None and k >= self.m:
                raise TermSyntaxError(f"variable x{k} out of range for {self.m} generators", self.where(self.pos - 1))
            return Var(k)
        if lead == "-":
            return Not(self.parse_unary(self.deeper(depth)))
        if lead == "c":
            return Cyl(int(token[1:]), self.parse_unary(self.deeper(depth)))
        if lead == "d":
            i, comma, j = token[1:].partition(",")
            return Diag(int(i), int(j)) if comma else Diag(int(token[1]), int(token[2]))
        if lead == "0":
            return ZERO
        if lead == "1":
            return ONE
        if lead == "(":
            inner = self.parse_or(self.deeper(depth))
            if self.tokens[self.pos] != ")":
                raise TermSyntaxError("expected ')'", self.where(self.pos))
            self.pos += 1
            return inner
        raise TermSyntaxError(f"unexpected token {_KINDS[lead]!r}", self.where(self.pos - 1))


# How many distinct (text, m) arguments `parse_term` remembers.  Terms are
# frozen, so callers can share a parsed term; a small bound keeps the memory
# it holds small, and a failed parse is not remembered.
PARSE_CACHE_SIZE = 256


@lru_cache(maxsize=PARSE_CACHE_SIZE)
def parse_term(text: str, m: int | None = None) -> Term:
    """Parse term text; variable indices must stay below `m` when given.
    The last PARSE_CACHE_SIZE distinct arguments and their terms are kept,
    so a repeated text is parsed once."""
    parser = _Parser(text, m)
    term = parser.parse_or()
    if parser.tokens[parser.pos]:
        raise TermSyntaxError("trailing input after term", parser.where(parser.pos))
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
    """t rendered, in parentheses when its level (`_level`) is below
    `min_level`."""
    if isinstance(t, Or):
        raw, level = f"{_render(t.t1, 1)} + {_render(t.t2, 0)}", 0
    elif isinstance(t, And):
        raw, level = f"{_render(t.t1, 2)} . {_render(t.t2, 1)}", 1
    elif isinstance(t, Not):
        raw, level = f"-{_render(t.t, 2)}", 2
    elif isinstance(t, Cyl):
        sep = " " if _level(t.t) >= 2 else ""
        raw, level = f"c{t.i}{sep}{_render(t.t, 2)}", 2
    else:
        raw, level = str(t), 3
    return f"({raw})" if level < min_level else raw


def render_term(t: Term) -> str:
    """Render `t` so that parsing the result reproduces `t` exactly."""
    return _render(t, 0)


def subterms(t: Term) -> Iterator[Term]:
    """Yield every subterm of `t`, including `t` itself (preorder).

    The walk keeps its own stack in place of recursion; `index_set` and
    `variables` read it."""
    stack = [t]
    while stack:
        t = stack.pop()
        yield t
        if isinstance(t, (Not, Cyl)):
            stack.append(t.t)
        elif isinstance(t, (And, Or)):
            stack += (t.t2, t.t1)


def index_set(t: Term) -> frozenset[int]:
    """All coordinate indices occurring in cylindrifications and diagonals."""
    out: set[int] = set()
    for s in subterms(t):
        if isinstance(s, Diag):
            out.update((s.i, s.j))
        elif isinstance(s, Cyl):
            out.add(s.i)
    return frozenset(out)


def variables(t: Term) -> frozenset[int]:
    """The indices k of the variables x<k> occurring in `t`."""
    return frozenset(s.k for s in subterms(t) if isinstance(s, Var))


# --- named constructions -----------------------------------------------

# A choice function assigns +1 or -1 to each of the m generators.
ChoiceFunction = tuple[int, ...]


def all_choice_functions(m: int) -> list[ChoiceFunction]:
    return [q for q in product((1, -1), repeat=m)]


def check_choice(m: int, q: Seq[int]) -> ChoiceFunction:
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
    pairwise separated, and `zero_dim_check` compares the guard -c0 -d01
    with a guard -c_i -d_ij over two other indices once on each bounded D
    unit; that one comparison decides, for every m and q, whether any
    evaluation separates the two guarded products.
    Minimality is not checked, and over a two-index window it fails: there
    -c0 -d01 does not force -c1 -d01, so c1 -d01 splits x0 . -c0 -d01
    between D units over window {0, 1}.
    """
    if m < 1:
        raise ValueError("atom terms need at least one generator (m >= 1)")
    q = check_choice(m, q)
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
