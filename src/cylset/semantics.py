"""Evaluation of cylindric terms in finite full set algebras.

One class, `FiniteAlgebra`, serves both carrier shapes: the power set of a
unit's sequences (`UnitAlgebra`), and the mapped algebra whose carrier is the
full square over a finite window with the identity sequence listed twice,
once under the label p' (`MappedUnitAlgebra`).  Subsets are Python-int bitmasks
over a fixed carrier order, and `evaluate_masks`, `cyl_mask`, `diag_mask`
and the checkers take and return masks, and so does an evaluation, from
its JSON codec on.  Only `evaluate`'s result and `FiniteAlgebra.mask`/
`subset`, which map labels to masks and back, are sets of labels.  The
postulate and equation checkers share one law table.  One rule, `_cover`,
picks the checker's instances, its subsets and pairs of subsets.  It visits
all of them when there are at most a cap of them, else seeded samples, at
most MAX_UNITS, and the report says `exhaustive` only in the first case.  A
sampled slot is the first `getrandbits(n.bit_length())` value below n of a
generator seeded with the check's tag: the rejection loop of
`randrange(n)`, so the samples are those of one `randrange(n)` per slot,
drawn at C level.  The checker packs its covered instances side by side
(bitslicing) into the masks of a lane view, `FiniteAlgebra.lanes(count)`,
an algebra whose lane l holds instance l, a chunk of at most `_LANE_BITS`
bits a mask at a time, and evaluates each law once per chunk over all of
them; the cylinders of a chunk's element masks are computed once and
shared by the laws that read them.  A cylinder folds the classes along
its index shape by shape, with shifts of the whole mask: in log steps when
a shape has four or more evenly spaced points, offset by offset otherwise.
`evaluate_masks` dispatches on the exact type of each term node
inside the one function, so a node costs one Python call.
Every check is a refuter over finite models, never a prover.
"""

from __future__ import annotations

import copy
import random
import re
from collections.abc import Iterable, Iterator, Mapping
from dataclasses import dataclass, field
from functools import lru_cache
from itertools import islice, product, repeat
from operator import itemgetter

from .terms import And, Cyl, Diag, Not, One, Or, Term, Var, Zero
from .units import MAX_UNITS, Sequence, Unit, bit_positions, unit_to_dict

# Variable index -> mask over the unit's members: bit k stands for
# `v.sequences[k]`.
Evaluation = dict[int, int]

# The law checker visits every instance when there are at most this many,
# and seeded samples otherwise.
COVER_CAP = 4096

# The most bits one lane mask may hold, so that memory stays bounded whatever
# the number of instances.  A 32 KiB mask stays in the caches and in the
# allocator's heap; at 2^22 bits each operation faulted in fresh pages.
_LANE_BITS = 1 << 18


class FiniteAlgebra:
    """Power-set algebra over a finite carrier, subsets as int bitmasks, or
    a lane view of one that holds `count` subsets side by side.

    Bit k stands for `labels[k]`.  `coords[k]` is the value tuple over the
    window `indices` from which bit k's cylinders and diagonals are computed,
    so labels with one tuple share them.  In `lanes(count)`, lane l is
    bits l*stride to l*stride+n-1, for n points and `stride` =
    8*(n//8 + 1), so every lane has a clear bit above its points.  The
    algebra is the one-lane view.  Boolean operations act on every lane at
    once, `top`, `cyl_mask` and `diag_mask` lane by lane, and `mask` and
    `subset` on one lane.  Each call of `lanes` makes a new view, which the
    algebra does not keep; plans and diagonals are built on first use, from
    cylinder classes and one-lane diagonals that the algebra builds once and
    shares with its views.

    `cyl_mask` takes one plan per index, whatever the carrier and the lane
    count.  An alias, a point whose value tuple repeats an earlier point's
    (p' of `MappedUnitAlgebra`), joins that point's line before the
    cylinder and copies its bit after.  The classes of the other points
    along i are grouped by shape, the offsets of their points from the
    least, and each shape folds with a few shifts of the whole mask
    (`_fold`): an arithmetic shape of k >= 4 points, as every class of a
    grid of base 4 or more and of the window-4 mapped algebra has, in
    ceil(log2 k) doubling shifts each way, and any other shape offset by
    offset.
    """

    def __init__(self, labels: Iterable, indices: Iterable[int], coords: Iterable[tuple]):
        self.labels = tuple(labels)
        self.indices = tuple(indices)
        self.count = 1
        self.stride = 8 * (len(self.labels) // 8 + 1)
        self.top = (1 << len(self.labels)) - 1
        self._coords = tuple(coords)
        self._bit = dict(zip(self.labels, range(len(self.labels))))
        n = len(self._coords)
        # Value tuple -> its first point; the later points with that tuple,
        # if any, are aliases of it.
        self._first = dict(zip(reversed(self._coords), range(n - 1, -1, -1)))
        self._aliases = [] if len(self._first) == n else [
            (k, self._first[c]) for k, c in enumerate(self._coords) if self._first[c] != k]
        # Shared with every view: the cylinder classes and one-lane diagonals.
        self._classes: dict[int, tuple] = {}
        self._lines: dict[tuple[int, int], int] = {}
        self._plans: dict[int, tuple] = {}
        self._diags: dict[tuple[int, int], int] = {}

    def lanes(self, count: int) -> FiniteAlgebra:
        """A new view with `count` lanes; it shares the cylinder classes and
        one-lane diagonals and caches its own plans and diagonals, and the
        algebra keeps no reference to it."""
        view = copy.copy(self)
        view.count, view._plans, view._diags = count, {}, {}
        view.top = view.each((1 << len(self.labels)) - 1)
        return view

    def each(self, m: int) -> int:
        """The mask that holds the one-lane mask m in every lane."""
        if self.count == 1:
            return m
        return int.from_bytes(m.to_bytes(self.stride // 8, "little") * self.count, "little")

    def pack(self, masks: Iterable[int]) -> int:
        """The mask whose lane l holds the l-th of `count` one-lane masks,
        each written as its `stride` bits by one C-level `int.to_bytes`."""
        w = self.stride // 8
        return int.from_bytes(b"".join(map(int.to_bytes, masks, repeat(w), repeat("little"))), "little")

    def lane(self, x: int, k: int) -> int:
        """The one-lane mask that lane k of x holds."""
        return x >> k * self.stride & (1 << len(self.labels)) - 1

    def failing(self, x: int) -> list[int]:
        """The lanes of x that are not empty, in order.  Adding `top` carries
        into a lane's clear bit n exactly when the lane is not empty."""
        if not x:
            return []
        w = self.stride // 8
        carries = ((x + self.top) & ~self.top).to_bytes(w * self.count, "little")
        return [k for k, byte in enumerate(carries[len(self.labels) // 8::w]) if byte]

    def _position(self, i: int) -> int:
        try:
            return self.indices.index(i)
        except ValueError:
            raise ValueError(f"off-window index {i}: the window is {self.indices}") from None

    def _cyl_plan(self, i: int) -> tuple:
        """What `cyl_mask` reads for index i, in every lane: each alias's
        mask, its first point's mask and their distance, and each class
        shape's fold plan (`_fold_plan`) and least points.  The one-lane
        plan is found once per algebra and shared with its views, which
        spread its masks over their lanes."""
        table = self._classes.get(i)
        if table is None:
            p = self._position(i)
            # The classes of the points that are not aliases, by their
            # values off index i.
            by_key: dict[tuple, int] = {}
            for c, k in self._first.items():
                key = c[:p] + c[p + 1:]
                by_key[key] = by_key.get(key, 0) | 1 << k
            # Shape, a class mask moved down to bit 0 from its least point ->
            # the least points of the classes of that shape.
            shapes: dict[int, int] = {}
            for block in by_key.values():
                low = block & -block
                shape = block // low
                shapes[shape] = shapes.get(shape, 0) | low
            table = self._classes[i] = (
                [(1 << k, 1 << f, k - f) for k, f in self._aliases],
                [(_fold_plan(bit_positions(shape)[1:]), least) for shape, least in shapes.items()],
            )
        if self.count == 1:
            return table
        aliases, folds = table
        return ([(self.each(alias), self.each(first), d) for alias, first, d in aliases],
                [(plan, self.each(least)) for plan, least in folds])

    def cyl_mask(self, i: int, x: int) -> int:
        aliases, folds = self._plans.get(i) or self._plans.setdefault(i, self._cyl_plan(i))
        for alias, _, d in aliases:
            if f := x & alias:
                x |= f >> d
        out = 0
        for plan, least in folds:
            out |= _fold(plan, least, x)
        for _, first, d in aliases:
            if f := out & first:
                out |= f << d
        return out

    def diag_mask(self, i: int, j: int) -> int:
        """d_ij in every lane, cached once for d_ij and d_ji alike.  The
        one-lane diagonal is built once per algebra and shared with its
        views, so a view only spreads it over its lanes."""
        key = (i, j) if i <= j else (j, i)
        d = self._diags.get(key)
        if d is None:
            line = self._lines.get(key)
            if line is None:
                # d_ii is the top, but only over the window.
                p, q = self._position(i), self._position(j)
                line = self._lines[key] = (1 << len(self.labels)) - 1 if i == j else sum(
                    1 << k for k, c in enumerate(self._coords) if c[p] == c[q])
            d = self._diags[key] = self.each(line)
        return d

    def mask(self, x: Iterable) -> int:
        m = 0
        try:
            for e in x:
                m |= 1 << self._bit[e]
        except KeyError:
            raise ValueError(f"{e} is not in the carrier; a set must be a subset of it") from None
        return m

    def subset(self, m: int) -> frozenset:
        labels = self.labels
        return frozenset(labels[k] for k in bit_positions(m))

    def render(self, m: int) -> list[str]:
        """The labels in m as sorted strings, as reports show a subset."""
        return sorted(str(self.labels[k]) for k in bit_positions(m))


def _fold_plan(offsets: tuple[int, ...]) -> tuple[bool, tuple[int, ...]]:
    """How `_fold` folds a class shape whose points lie `offsets` above its
    least point: `(True, steps)` when its k >= 4 points form an arithmetic
    progression 0, s, ..., (k-1)s, with the doubling steps s, 2s, 4s, ...
    whose last is cut to the remainder, so that they sum to (k-1)s in
    ceil(log2 k) steps; else `(False, offsets)`.  A shape of at most three
    points takes as many shifts either way."""
    k = len(offsets) + 1
    if k < 4 or offsets != tuple(range(offsets[0], k * offsets[0], offsets[0])):
        return False, offsets
    steps, covered = [], 1
    while covered < k:
        t = min(covered, k - covered)
        steps.append(t * offsets[0])
        covered += t
    return True, tuple(steps)


def _fold(plan: tuple[bool, tuple[int, ...]], least: int, x: int) -> int:
    """The cylinder of x over the classes whose least points are the bits of
    `least` and whose shape `plan` describes (`_fold_plan`): OR each class
    onto its least point with right shifts, keep those points and spread
    them back with left shifts.  A plan of doubling steps folds in log
    steps, `out |= out >> t` and then `out |= out << t` for each step t;
    any other shape folds offset by offset, `x >> t` and `line << t` for
    each offset t.  Both OR the shifts of x by every offset of the shape
    onto a least point, so they give the same mask.  Only class points
    reach a least point, so bits of other points are ignored.  On a lane
    view a right shift carries bits of a lane into the lane below, but above
    its least points, as the stride exceeds the point count, and a left
    shift of a least point by at most the greatest offset of its class
    stays inside its lane."""
    doubling, shifts = plan
    out = x
    if doubling:
        for t in shifts:
            out |= out >> t
        out &= least
        for t in shifts:
            out |= out << t
        return out
    for t in shifts:
        out |= x >> t
    out = line = out & least
    for t in shifts:
        out |= line << t
    return out


@lru_cache(maxsize=8)
def UnitAlgebra(v: Unit) -> FiniteAlgebra:
    """The power-set algebra over a unit; bit k is `v.sequences[k]`.

    Equal units share one algebra, and with it the cylinder classes, plans
    and diagonal masks it builds on first use, from a cache of the last eight
    distinct units.  Callers must not mutate it."""
    return FiniteAlgebra(v.sequences, v.window, [f.values for f in v])


# The label of the mapped algebra's extra point; no grid label is a string.
P_PRIME = "p'"


@lru_cache(maxsize=None)
def MappedUnitAlgebra(n: int) -> FiniteAlgebra:
    """Full square over window {0..n-1} with the identity sequence listed
    twice, once under the label P_PRIME, for 2 <= n <= 4.

    The carrier is the n^n grid of value tuples in lexicographic order with
    p' last; `identity` is set on the returned algebra.  p' has the identity
    as its coordinates, so it shares the identity's cylinders and, as the
    identity does, lies on every d_ii and on no d_ij with i != j.  The result
    satisfies the cylindric postulates while containing a nonzero element
    disjoint from every diagonal over indices >= 2.  Each n has one shared
    algebra, built on first use; callers must not mutate it.
    """
    if not 2 <= n <= 4:
        raise ValueError(f"mapped algebra supports 2 <= n <= 4, got {n}")
    grid = tuple(product(range(n), repeat=n))
    identity = tuple(range(n))
    alg = FiniteAlgebra(grid + (P_PRIME,), identity, grid + (identity,))
    alg.identity = identity
    return alg


def evaluate_masks(alg: FiniteAlgebra, t: Term, masks: Mapping[int, int]) -> int:
    """Mask of t's interpretation when variable k denotes `masks[k]`.  Raises
    ValueError naming the first off-window index or unassigned variable the
    walk meets, and TypeError on anything that is not a term node.  On a
    lane view each lane holds the term under that lane's masks.  Each node
    is one call: the exact node type picks the branch, the most frequent
    types first."""
    kind = type(t)
    if kind is Var:
        try:
            return masks[t.k]
        except KeyError:
            raise ValueError(f"unassigned variable x{t.k}") from None
    if kind is And:
        return evaluate_masks(alg, t.t1, masks) & evaluate_masks(alg, t.t2, masks)
    if kind is Not:
        return alg.top ^ evaluate_masks(alg, t.t, masks)
    if kind is Cyl:
        return alg.cyl_mask(t.i, evaluate_masks(alg, t.t, masks))
    if kind is Diag:
        return alg.diag_mask(t.i, t.j)
    if kind is Or:
        return evaluate_masks(alg, t.t1, masks) | evaluate_masks(alg, t.t2, masks)
    if kind is Zero:
        return 0
    if kind is One:
        return alg.top
    raise TypeError(f"not a term: {t!r}")


def _value(alg: FiniteAlgebra, t: Term, iota: Evaluation) -> int:
    """`evaluate_masks` under iota, whose masks must lie inside the carrier."""
    for k, m in iota.items():
        if m >> len(alg.labels):
            raise ValueError(f"x{k} has a bit outside the unit's {len(alg.labels)} positions")
    return evaluate_masks(alg, t, iota)


def evaluate(t: Term, v: Unit, iota: Evaluation) -> frozenset[Sequence]:
    """Interpretation of `t` in the power-set algebra over `v` under `iota`,
    as the set of members it holds."""
    alg = UnitAlgebra(v)
    return alg.subset(_value(alg, t, iota))


def satisfies(v: Unit, f: Sequence, iota: Evaluation, t: Term) -> bool:
    """True iff f belongs to the interpretation of t in P(v) under iota."""
    alg = UnitAlgebra(v)
    k = alg._bit.get(f) if isinstance(f, Sequence) else None
    if k is None:
        raise ValueError("focus sequence does not belong to the unit")
    return bool(_value(alg, t, iota) >> k & 1)


# --- evaluation helpers --------------------------------------------------

def _cover(n: int, arity: int, cap: int, samples: int, tag: str) -> tuple[Iterator[tuple[int, ...]], bool]:
    """The `arity`-tuples of range(n) a check visits, and whether they are
    all of them: every tuple when there are at most `cap`, else `samples`
    tuples drawn from `random.Random(tag)`, slot by slot.

    A slot is the first of the generator's `getrandbits(n.bit_length())`
    values that is below n, and the tuples group the slots in order.  That
    is the rejection loop `randrange(n)` runs for n > 0, so the tuples are
    exactly those of one `randrange(n)` per slot; the draws, the rejections
    and the grouping run at C level (`filter`, `map`, `zip`), lazily, with
    no Python frame per draw.  Arity 0 gives `samples` empty tuples."""
    if n ** arity <= cap:
        return product(range(n), repeat=arity), True
    if not arity:
        return repeat((), samples), False
    draws = filter(n.__gt__, map(random.Random(tag).getrandbits, repeat(n.bit_length())))
    return islice(zip(*[draws] * arity), samples), False


# One spelling per variable, so no two names can assign the same one.
_VAR_NAME = re.compile(r"x(0|[1-9][0-9]*)")


def evaluation_from_dict(v: Unit, data: Mapping[str, list[int]]) -> Evaluation:
    """Decode {"x0": [positions]} with positions into the sorted sequence
    list, each list as the mask of its positions.  Each list is checked at
    once: the set of its item types, then its least and greatest position."""
    if not isinstance(data, Mapping):
        raise ValueError("expected an object mapping x0, x1, ... to position lists")
    iota: Evaluation = {}
    for name, positions in data.items():
        if not isinstance(name, str) or not _VAR_NAME.fullmatch(name):
            raise ValueError(f"bad variable name {name!r}; expected x0, x1, ... without leading zeros")
        if not isinstance(positions, list):
            raise ValueError(f"{name} must be a list of positions")
        if positions and not (
            set(map(type, positions)) == {int} and 0 <= min(positions) and max(positions) < len(v)
        ):
            raise ValueError(f"{name} lists a position outside 0..{len(v) - 1}")
        iota[int(name[1:])] = sum(1 << p for p in set(positions))
    return iota


def evaluation_to_dict(iota: Evaluation) -> dict[str, list[int]]:
    return {f"x{k}": list(bit_positions(m)) for k, m in sorted(iota.items())}


@dataclass
class Witness:
    """A pointed model: a unit, a focus sequence in it and an evaluation,
    whose mask for each variable has bit k set when `unit.sequences[k]`
    belongs to that variable's value."""

    unit: Unit
    focus: Sequence
    evaluation: Evaluation

    def __iter__(self) -> Iterator:
        """Unpack as `v, f, iota`, the order `satisfies` takes them in."""
        return iter((self.unit, self.focus, self.evaluation))


def witness_to_dict(w: Witness) -> dict:
    return {
        "unit": unit_to_dict(w.unit),
        "focus": list(w.focus.values),
        "evaluation": evaluation_to_dict(w.evaluation),
    }


# --- check reports -------------------------------------------------------

@dataclass
class CheckFailure:
    law: str
    witness: dict


@dataclass
class CheckReport:
    checked: int = 0
    failures: list[CheckFailure] = field(default_factory=list)
    exhaustive: bool = True
    notes: str = ""

    @property
    def ok(self) -> bool:
        return not self.failures

    def count(self, n: int = 1) -> None:
        self.checked += n

    def fail(self, law: str, **witness) -> None:
        self.failures.append(CheckFailure(law, witness))

    def merge(self, other: "CheckReport") -> "CheckReport":
        """Add other's counts and failures; its notes are appended unless
        that exact note already stands between separators in ours."""
        self.checked += other.checked
        self.failures.extend(other.failures)
        self.exhaustive = self.exhaustive and other.exhaustive
        if other.notes and f"; {other.notes}; " not in f"; {self.notes}; ":
            self.notes = f"{self.notes}; {other.notes}" if self.notes else other.notes
        return self


# --- postulate and equation laws -----------------------------------------

def _chunks(
    alg: FiniteAlgebra, instances: list[tuple[int, ...]], names: Iterable, views: dict[int, FiniteAlgebra]
) -> Iterator[tuple[int, FiniteAlgebra, dict]]:
    """`instances`, tuples of masks, a chunk of lanes at a time, each lane
    mask within `_LANE_BITS`: per chunk, the index of its first instance,
    its lane view and the lane mask of each tuple slot, keyed by `names`.
    The views are kept in the caller's `views` by lane count, so the full
    chunks share one view, a last, partial chunk has its own, and calls
    that share `views` share them too."""
    per = max(1, _LANE_BITS // alg.stride)
    for low in range(0, len(instances), per):
        part = instances[low:low + per]
        lanes = views.get(len(part)) or views.setdefault(len(part), alg.lanes(len(part)))
        yield low, lanes, {v: lanes.pack(map(itemgetter(k), part)) for k, v in enumerate(names)}


# One row per law: (postulate name, equation name, element variables, index
# variables, violation mask).  The mask is zero iff the law holds; evaluated
# on lane masks, its nonzero lanes name the failing instances.  A row takes
# the lane view, the chunk's shared cylinders `c`, where c[i, "x"] is c_i of
# element x, computed once per chunk for every window index and read by
# every law that needs it, and then its index and element bindings.  Index
# rules: "i" binds i, "i<j" and "i!=j" pairs under that constraint, "ijk"
# triples with k distinct from i and j.  A law that is both a cylindric
# postulate and one of the seven unit equations is coded once and carries
# both names.
_LAWS = (
    ("CA0", None, "xy", "", lambda a, c, x, y: (
        ((x | y) ^ (y | x)) | (x & (a.top ^ x)) | ((a.top ^ (x & y)) ^ ((a.top ^ x) | (a.top ^ y)))
    )),
    ("CA1", "Eq1", "", "i", lambda a, c, i: a.cyl_mask(i, 0)),
    ("CA2", "Eq2", "x", "i", lambda a, c, i, x: (x & c[i, "x"]) ^ x),
    ("CA3", "Eq3", "xy", "i", lambda a, c, i, x, y: a.cyl_mask(i, x & c[i, "y"]) ^ (c[i, "x"] & c[i, "y"])),
    ("CA4", None, "x", "i<j", lambda a, c, i, j, x: a.cyl_mask(i, c[j, "x"]) ^ a.cyl_mask(j, c[i, "x"])),
    ("CA5", "Eq6", "", "i", lambda a, c, i: a.diag_mask(i, i) ^ a.top),
    ("CA6", None, "", "ijk", lambda a, c, i, j, k: (
        a.diag_mask(i, j) ^ a.cyl_mask(k, a.diag_mask(i, k) & a.diag_mask(k, j))
    )),
    ("CA7", None, "x", "i!=j", lambda a, c, i, j, x: (
        a.cyl_mask(i, a.diag_mask(i, j) & x) & a.cyl_mask(i, a.diag_mask(i, j) & (a.top ^ x))
    )),
    (None, "Eq4", "xy", "i", lambda a, c, i, x, y: a.cyl_mask(i, x | y) ^ (c[i, "x"] | c[i, "y"])),
    (None, "Eq5", "x", "i", lambda a, c, i, x: a.cyl_mask(i, (out := a.top ^ c[i, "x"])) ^ out),
    (None, "Eq7", "x", "i!=j", lambda a, c, i, j, x: (
        (a.cyl_mask(i, (xd := x & a.diag_mask(i, j))) & a.diag_mask(i, j)) ^ xd
    )),
)
_CA_LAWS = [(ca, elements, rule, law) for ca, _, elements, rule, law in _LAWS if ca]
_EQ_LAWS = sorted(((eq, elements, rule, law) for _, eq, elements, rule, law in _LAWS if eq), key=lambda row: row[0])


def _index_count(rule: str, w: int) -> int:
    """How many bindings `_index_bindings` gives over w window indices."""
    return {"": 1, "i": w, "i<j": w * (w - 1) // 2, "i!=j": w * (w - 1), "ijk": w * (w - 1) ** 2}[rule]


def _index_bindings(rule: str, idx: tuple[int, ...]) -> list[dict]:
    """The bindings of a rule's index variables, in nested-loop order."""
    if rule == "i":
        return [{"i": i} for i in idx]
    if rule == "i<j":
        return [{"i": i, "j": j} for i in idx for j in idx if i < j]
    if rule == "i!=j":
        return [{"i": i, "j": j} for i in idx for j in idx if i != j]
    if rule == "ijk":
        return [{"i": i, "j": j, "k": k} for i in idx for j in idx for k in idx if k != i and k != j]
    return [{}]


def _check_laws(alg: FiniteAlgebra, laws: list, samples: int, seed: int, what: str) -> CheckReport:
    """Check `laws` over the window and the subsets and pairs of subsets
    that `_cover` picks; `what` names the laws in the report's note.

    Each law is checked once per index binding and chunk (`_chunks`) on
    lane masks that hold the chunk's covered subsets, or pairs, at once; a
    law without element variables has one instance, the empty tuple.  The
    cylinders c_i of the chunk's element masks, for every window index, are
    computed once per chunk and shared by the laws that read them.  A
    law's failures are listed as an instance loop would list them, subset
    or pair first, then index binding.  Raises ValueError first if
    `samples` is over MAX_UNITS or a law binds more than MAX_UNITS index
    tuples."""
    if samples > MAX_UNITS:
        raise ValueError(f"samples must be at most {MAX_UNITS}, got {samples}")
    w = len(alg.indices)
    for name, _, rule, _ in laws:
        if (count := _index_count(rule, w)) > MAX_UNITS:
            raise ValueError(f"{name} binds {count} index tuples over {w} window indices, over the cap of {MAX_UNITS}")
    singles, every_single = _cover(alg.top + 1, 1, COVER_CAP, samples, f"subsets:{seed}")
    pairs, every_pair = _cover(alg.top + 1, 2, COVER_CAP, samples, f"pairs:{seed}")
    report = CheckReport(exhaustive=every_single and every_pair)
    if not every_single:
        report.notes = f"{what} spot-checked on {samples} seeded subsets"
    elif not every_pair:
        report.notes = f"{what} checked on every subset and {samples} seeded pairs"
    # The index-only laws run as a family of one empty instance.
    families = {"": [()], "x": list(singles), "xy": list(pairs)}
    bindings = {name: _index_bindings(rule, alg.indices) for name, _, rule, _ in laws}
    # Law name -> its failing (instance, binding) pairs, in that order.
    failed: dict[str, list[tuple[int, int]]] = {name: [] for name, *_ in laws}
    # Sampled subsets and pairs come in chunks of one size, so their
    # families share the views and the plans and diagonals built on them.
    views: dict[int, FiniteAlgebra] = {}
    for elements, instances in families.items():
        for low, lanes, masks in _chunks(alg, instances, elements, views):
            cyls = {(i, v): lanes.cyl_mask(i, m) for v, m in masks.items() for i in alg.indices}
            for name, law_elements, _, law in laws:
                if law_elements != elements:
                    continue
                failed[name] += sorted(
                    (low + lane, b)
                    for b, binding in enumerate(bindings[name])
                    for lane in lanes.failing(law(lanes, cyls, **binding, **masks))
                )
    # A subset that fails many laws and bindings is rendered once; each
    # failure still gets lists of its own.
    render = lru_cache(maxsize=None)(alg.render)
    for name, elements, _, law in laws:
        instances = families[elements]
        report.count(len(instances) * len(bindings[name]))
        for instance, b in failed[name]:
            subsets = {v: list(render(m)) for v, m in zip(elements, instances[instance])}
            report.fail(name, **bindings[name][b], **subsets)
    return report


def check_ca_axioms(alg: FiniteAlgebra, samples: int = 64, seed: int = 0) -> CheckReport:
    """Check the cylindric postulates over the window and subsets of the
    carrier: every subset and pair when there are at most COVER_CAP, else
    `samples` seeded ones, at most MAX_UNITS.  Each postulate is evaluated
    once per index binding over all covered subsets, or pairs, at once."""
    return _check_laws(alg, _CA_LAWS, samples, seed, "postulates")


def check_eq_laws(v: Unit, samples: int = 64, seed: int = 0) -> CheckReport:
    """Check the seven unit-algebra equations over the window and subsets of the unit."""
    return _check_laws(UnitAlgebra(v), _EQ_LAWS, samples, seed, "equations")


# --- search bounds -------------------------------------------------------

@dataclass(frozen=True)
class SearchBounds:
    """The units `zero_dim_check` compares its guards on: those over window
    {0..window_size-1} and base {0..base_size-1} with at most `max_seqs`
    sequences.  `max_eval_subsets` is kept for existing callers and unused:
    one comparison of the variable-free guards decides each unit."""

    window_size: int
    base_size: int
    max_seqs: int
    max_eval_subsets: int = COVER_CAP
