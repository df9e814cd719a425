"""Evaluation of cylindric terms in finite full set algebras.

One class, `FiniteAlgebra`, serves both carrier shapes: the power set of a
unit's sequences (`UnitAlgebra`), and the mapped algebra whose carrier is the
full square over a finite window plus one extra point relabelled onto the
identity sequence (`MappedUnitAlgebra`).  Subsets are Python-int bitmasks
over a fixed carrier order, and `evaluate_masks`, `cyl_mask`, `diag_mask`
and the checkers take and return masks.  Frozensets of sequences appear
only where units and evaluations enter or leave: `evaluate`, `satisfies`,
the evaluation JSON codec, and `FiniteAlgebra.mask`/`subset`.  The
postulate and equation checkers share one law table.  One rule, `_cover`,
picks the instances of every check: the laws' subsets and pairs of subsets,
and the evaluations of `bounded_validity`.  A check visits all instances
when there are at most a cap of them, else seeded samples, at most
MAX_UNITS, and reports `exhaustive` only in the first case.  Both the law
checker and the validity search pack their covered instances side by side
into lane masks (bitslicing), a chunk of at most `_LANE_BITS` bits at a
time, and evaluate each law or term once per chunk over all of them, with
`evaluate_masks` on the chunk's lane view.  Every check is a refuter over
finite models, never a prover.
"""

from __future__ import annotations

import random
import re
from dataclasses import dataclass, field
from functools import cached_property, lru_cache
from itertools import product
from typing import Iterable, Iterator, Mapping

from .terms import And, Cyl, Diag, Not, One, Or, Term, Var, Zero, index_set, variables
from .units import MAX_UNITS, ClassTag, Sequence, Unit, bit_positions, enumerate_units, unit_to_dict

# Variable index -> subset of the carrier.
Evaluation = dict[int, frozenset]

# The law checkers visit every instance when there are at most this many,
# and seeded samples otherwise; SearchBounds caps evaluations here by default.
COVER_CAP = 4096

# The most bits one lane mask may hold.  The lane checks pack their instances
# a chunk at a time, at least 8 lanes a chunk, so that memory stays bounded
# whatever the number of instances.
_LANE_BITS = 1 << 22


class FiniteAlgebra:
    """Power-set algebra over a finite carrier, subsets as int bitmasks.

    Bit k stands for `labels[k]`.  `coords[k]` is the value tuple over the
    window `indices` from which bit k's cylinders and diagonals are computed;
    the bits in `pinned` belong to no d_ij with i != j.  Cylinder blocks,
    fold plans and diagonal masks are built on first use.

    When the unpinned bits are the grid {0..b-1}^window in lexicographic
    order and the pinned bits follow them, each relabelled onto a grid cell
    (every `full_square(window, range(b))` unit and `MappedUnitAlgebra(n)`),
    `cyl_mask` folds cylinders with 2(b-1) shifts of the whole mask
    (`_fold`) instead of one step per cylinder block; lane views fold their
    lane masks with the same routine.  Any other carrier takes the block
    loop.
    """

    def __init__(self, labels: Iterable, indices: Iterable[int], coords: Iterable[tuple], pinned: int = 0):
        self.labels = tuple(labels)
        self.indices = tuple(indices)
        self.top = (1 << len(self.labels)) - 1
        self._coords = tuple(coords)
        self._pinned = pinned
        self._bit = {e: k for k, e in enumerate(self.labels)}
        self._blocks: dict[int, list[int]] = {}
        self._plans: dict[int, tuple] = {}
        self._diags: dict[tuple[int, int], int] = {}

    def _position(self, i: int) -> int:
        try:
            return self.indices.index(i)
        except ValueError:
            raise ValueError(f"off-window index {i}: the window is {self.indices}") from None

    def _cyl_blocks(self, i: int) -> list[int]:
        """Per bit, the mask of the bits that agree with it off coordinate i."""
        blocks = self._blocks.get(i)
        if blocks is None:
            p = self._position(i)
            keys = [c[:p] + c[p + 1:] for c in self._coords]
            classes: dict[tuple, int] = {}
            for k, key in enumerate(keys):
                classes[key] = classes.get(key, 0) | 1 << k
            blocks = self._blocks[i] = [classes[key] for key in keys]
        return blocks

    @cached_property
    def _grid(self) -> tuple[int, int, tuple[tuple[int, int], ...]] | None:
        """(b, cell count, (pinned bit, its cell) pairs) for a grid carrier,
        else None.  A carrier that is not a grid almost always fails one of
        the first constant-time tests, before the cells are compared."""
        d = len(self.indices)
        cells = len(self._coords) - self._pinned.bit_count()
        if not d or not cells or self._pinned != self.top ^ ((1 << cells) - 1):
            return None
        b = self._coords[cells - 1][-1] + 1
        if b ** d != cells or self._coords[:cells] != tuple(product(range(b), repeat=d)):
            return None
        pins = []
        for k in range(cells, len(self._coords)):
            c = self._coords[k]
            if len(c) != d or not all(0 <= v < b for v in c):
                return None
            pins.append((k, sum(v * b ** (d - 1 - p) for p, v in enumerate(c))))
        return b, cells, tuple(pins)

    def _fold_plan(self, i: int, w: int) -> tuple:
        """The `_fold` plan of index i on a grid carrier whose points are
        w-bit fields: the shifts that step along i, the fields of the cells
        whose i-coordinate is 0, each (pinned field, its cell's field) offset
        pair, and one field of ones."""
        b, cells, pins = self._grid
        s = b ** (len(self.indices) - 1 - self._position(i))
        # The i-coordinate is 0 on the first s cells of every run of s*b.
        zero = _widen(((1 << cells) - 1) // ((1 << s * b) - 1) * ((1 << s) - 1), cells, w)
        return tuple(t * s * w for t in range(1, b)), zero, tuple((k * w, c * w) for k, c in pins), (1 << w) - 1

    def cyl_mask(self, i: int, x: int) -> int:
        if self._grid is not None:
            return _fold(self._plans.get(i) or self._plans.setdefault(i, self._fold_plan(i, 1)), x)
        blocks = self._cyl_blocks(i)
        out = 0
        while x:
            block = blocks[(x & -x).bit_length() - 1]
            out |= block
            x &= ~block
        return out

    def diag_mask(self, i: int, j: int) -> int:
        """d_ij, cached once for d_ij and d_ji alike."""
        key = (i, j) if i <= j else (j, i)
        d = self._diags.get(key)
        if d is None:
            # d_ii is the top, but only over the window.
            p, q = self._position(i), self._position(j)
            d = self.top if i == j else sum(1 << k for k, c in enumerate(self._coords) if c[p] == c[q]) & ~self._pinned
            self._diags[key] = d
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


def _widen(m: int, n: int, w: int) -> int:
    """The mask whose point p is a w-bit field of ones where bit p of the
    n-point mask m is set, else of zeros; w is 1 or a multiple of 8."""
    if w == 1:
        return m
    ones, zeros = b"\xff" * (w // 8), bytes(w // 8)
    return int.from_bytes(b"".join([ones if c == "1" else zeros for c in reversed(bin(m | 1 << n)[3:])]), "little")


def _fold(plan: tuple, x: int) -> int:
    """The cylinder of x along one index of a grid carrier, by the index's
    `FiniteAlgebra._fold_plan`: OR every line onto its cell with coordinate
    0, keep those cells and spread them back along the line, with pinned
    fields read from and written to their cells."""
    shifts, zero, pins, field = plan
    for k, c in pins:
        if f := x >> k & field:
            x = (x ^ f << k) | f << c
    out = x
    for t in shifts:
        out |= x >> t
    out = line = out & zero
    for t in shifts:
        out |= line << t
    for k, c in pins:
        if f := out >> c & field:
            out |= f << k
    return out


@lru_cache(maxsize=8)
def UnitAlgebra(v: Unit) -> FiniteAlgebra:
    """The power-set algebra over a unit; bit k is `v.sequences[k]`.

    Equal units share one algebra, and with it the cylinder blocks and
    diagonal masks it builds on first use, from a cache of the last eight
    distinct units.  Callers must not mutate it."""
    return FiniteAlgebra(v.sequences, v.window, (f.values for f in v))


class _ExtraPoint:
    __slots__ = ()

    def __repr__(self):
        return "p'"


P_PRIME = _ExtraPoint()


def MappedUnitAlgebra(n: int) -> FiniteAlgebra:
    """Full square over window {0..n-1} plus an extra point sharing the
    identity sequence's cylinders, for 2 <= n <= 4.

    The carrier is the n^n grid of value tuples in lexicographic order with
    p' last; `identity` is set on the returned algebra.  The extra point p'
    is relabelled onto the identity sequence when cylinders are computed,
    yet it belongs to no diagonal d_ij with i != j.  The result
    satisfies the cylindric postulates while containing a nonzero element
    disjoint from every diagonal over indices >= 2.
    """
    if not 2 <= n <= 4:
        raise ValueError(f"mapped algebra supports 2 <= n <= 4, got {n}")
    grid = tuple(product(range(n), repeat=n))
    identity = tuple(range(n))
    alg = FiniteAlgebra(grid + (P_PRIME,), identity, grid + (identity,), pinned=1 << len(grid))
    alg.identity = identity
    return alg


def _var(alg: FiniteAlgebra, t: Var, masks: Mapping[int, int]) -> int:
    try:
        return masks[t.k]
    except KeyError:
        raise ValueError(f"unassigned variable x{t.k}") from None


# Node type -> the step that evaluates a node of that type.
_STEPS = {
    Var: _var,
    Zero: lambda alg, t, masks: 0,
    One: lambda alg, t, masks: alg.top,
    Diag: lambda alg, t, masks: alg.diag_mask(t.i, t.j),
    Not: lambda alg, t, masks: alg.top ^ evaluate_masks(alg, t.t, masks),
    And: lambda alg, t, masks: evaluate_masks(alg, t.t1, masks) & evaluate_masks(alg, t.t2, masks),
    Or: lambda alg, t, masks: evaluate_masks(alg, t.t1, masks) | evaluate_masks(alg, t.t2, masks),
    Cyl: lambda alg, t, masks: alg.cyl_mask(t.i, evaluate_masks(alg, t.t, masks)),
}


def evaluate_masks(alg: FiniteAlgebra | _Lanes, t: Term, masks: Mapping[int, int]) -> int:
    """Mask of t's interpretation when variable k denotes `masks[k]`.  Raises
    ValueError naming the first off-window index or unassigned variable the
    walk meets, and TypeError on anything that is not a term node.  `alg`
    may be an algebra or a lane view of one: the walk reads only `top`,
    `cyl_mask` and `diag_mask`."""
    step = _STEPS.get(type(t))
    if step is None:
        raise TypeError(f"not a term: {t!r}")
    return step(alg, t, masks)


def _value(alg: FiniteAlgebra, t: Term, iota: Mapping[int, frozenset]) -> int:
    """`evaluate_masks` under iota with its subsets turned into masks."""
    return evaluate_masks(alg, t, {k: alg.mask(val) for k, val in iota.items()})


def evaluate(t: Term, v: Unit, iota: Mapping[int, frozenset]) -> frozenset[Sequence]:
    """Interpretation of `t` in the power-set algebra over `v` under `iota`."""
    alg = UnitAlgebra(v)
    return alg.subset(_value(alg, t, iota))


def satisfies(v: Unit, f: Sequence, iota: Mapping[int, frozenset], t: Term) -> bool:
    """True iff f belongs to the interpretation of t in P(v) under iota."""
    if f not in v:
        raise ValueError("focus sequence does not belong to the unit")
    alg = UnitAlgebra(v)
    return bool(_value(alg, t, iota) & alg.mask((f,)))


# --- evaluation helpers --------------------------------------------------

def _cover(n: int, arity: int, cap: int, samples: int, tag: str) -> tuple[Iterator[tuple[int, ...]], bool]:
    """The `arity`-tuples of range(n) a check visits, and whether they are
    all of them: every tuple when there are at most `cap`, else `samples`
    tuples drawn from `random.Random(tag)`, one `randrange(n)` per slot."""
    if n ** arity <= cap:
        return product(range(n), repeat=arity), True
    rng = random.Random(tag)
    return (tuple(rng.randrange(n) for _ in range(arity)) for _ in range(samples)), False


def evaluation_from_dict(v: Unit, data: Mapping[str, list[int]]) -> Evaluation:
    """Decode {"x0": [positions]} with positions into the sorted sequence list."""
    if not isinstance(data, Mapping):
        raise ValueError("expected an object mapping x0, x1, ... to position lists")
    iota: Evaluation = {}
    for name, positions in data.items():
        # One spelling per variable, so no two names can assign the same one.
        if not isinstance(name, str) or not re.fullmatch(r"x(0|[1-9][0-9]*)", name):
            raise ValueError(f"bad variable name {name!r}; expected x0, x1, ... without leading zeros")
        if not isinstance(positions, list):
            raise ValueError(f"{name} must be a list of positions")
        if not all(type(p) is int and 0 <= p < len(v) for p in positions):
            raise ValueError(f"{name} lists a position outside 0..{len(v) - 1}")
        iota[int(name[1:])] = frozenset(v.sequences[p] for p in positions)
    return iota


def evaluation_to_dict(v: Unit, iota: Mapping[int, frozenset]) -> dict[str, list[int]]:
    alg = UnitAlgebra(v)
    return {f"x{k}": list(bit_positions(alg.mask(val))) for k, val in sorted(iota.items())}


@dataclass
class Witness:
    """A pointed model: a unit, a focus sequence in it and an evaluation."""

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
        "evaluation": evaluation_to_dict(w.unit, w.evaluation),
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

class _Lanes:
    """`count` instances of a law or term side by side over one algebra's
    carrier: a view with the `top`, `cyl_mask` and `diag_mask` that the law
    table and `evaluate_masks` read.

    A lane mask packs one subset per instance, point-major: bits p*K to
    p*K+K-1, point p's field, hold p's membership in each of the K
    instances, where K is `count` rounded up to whole bytes.  Boolean
    operations on lane masks act on every instance at once.  On a grid
    carrier `cyl_mask` is the algebra's fold (`_fold`) with every shift and
    mask widened from one bit a point to K bits; on any other carrier it ORs
    the fields of the points of each cylinder class and writes the result
    back to each of them.  `diag_mask` widens every diagonal point to K
    ones.  The lanes past `count` repeat lane 0, so they hold no verdict of
    their own, and `failing` leaves them out.
    """

    def __init__(self, alg: FiniteAlgebra, count: int):
        self.alg = alg
        self.count = count
        self.width = max(1, (count + 7) // 8)  # bytes per field
        self.size = len(alg.labels) * self.width
        self.top = (1 << 8 * self.size) - 1
        self._classes: dict[int, list[list[int]]] = {}
        self._plans: dict[int, tuple] = {}
        self._diags: dict[tuple[int, int], int] = {}

    def pack(self, masks: list[int]) -> int:
        """The lane mask whose instance l is `masks[l]`, for `count` masks."""
        n = len(self.alg.labels)
        masks = masks + masks[:1] * (8 * self.width - len(masks))
        # Row l is masks[l], highest point first.  Over the rows joined in
        # reverse, every n-th digit from digit c makes the field of point
        # n-1-c, highest lane first.
        rows = "".join([bin(m | 1 << n)[3:] for m in reversed(masks)])
        return int("".join([rows[c::n] for c in range(n)]) or "0", 2)

    def _fields(self, x: int) -> list[int]:
        w = self.width
        data = x.to_bytes(self.size, "little")
        return [int.from_bytes(data[s:s + w], "little") for s in range(0, self.size, w)]

    def diag_mask(self, i: int, j: int) -> int:
        key = (i, j) if i <= j else (j, i)
        d = self._diags.get(key)
        if d is None:
            d = self._diags[key] = _widen(self.alg.diag_mask(i, j), len(self.alg.labels), 8 * self.width)
        return d

    def cyl_mask(self, i: int, x: int) -> int:
        if self.alg._grid is not None:
            plan = self._plans.get(i) or self._plans.setdefault(i, self.alg._fold_plan(i, 8 * self.width))
            return _fold(plan, x)
        return self._class_cyl(i, x)

    def _class_cyl(self, i: int, x: int) -> int:
        """`cyl_mask` point by point: OR the fields of each cylinder class
        and write the result back to each of its points."""
        classes = self._classes.get(i)
        if classes is None:
            by_block: dict[int, list[int]] = {}
            for p, block in enumerate(self.alg._cyl_blocks(i)):
                by_block.setdefault(block, []).append(p)
            classes = self._classes[i] = list(by_block.values())
        fields = self._fields(x)
        out = [b""] * len(fields)
        for points in classes:
            acc = 0
            for p in points:
                acc |= fields[p]
            field = acc.to_bytes(self.width, "little")
            for p in points:
                out[p] = field
        return int.from_bytes(b"".join(out), "little")

    def failing(self, x: int) -> list[int]:
        """The instances whose subset in x is not empty."""
        if not x:
            return []
        acc = 0
        for field in self._fields(x):
            acc |= field
        return [lane for lane in bit_positions(acc) if lane < self.count]


def _chunks(
    alg: FiniteAlgebra, instances: list[tuple[int, ...]], names: Iterable
) -> Iterator[tuple[int, _Lanes, dict]]:
    """`instances`, tuples of masks, a chunk of lanes at a time, each lane
    mask within `_LANE_BITS`: per chunk, the index of its first instance,
    its lane view and the lane mask of each tuple slot, keyed by `names`."""
    per = max(1, _LANE_BITS // (8 * max(1, len(alg.labels)))) * 8
    for low in range(0, len(instances), per):
        part = instances[low:low + per]
        lanes = _Lanes(alg, len(part))
        yield low, lanes, {v: lanes.pack([t[k] for t in part]) for k, v in enumerate(names)}


# One row per law: (postulate name, equation name, element variables, index
# variables, violation mask).  The mask is zero iff the law holds; evaluated
# on lane masks, its nonzero fields name the failing instances.  Index rules:
# "i" binds i, "i<j" and "i!=j" pairs under that constraint, "ijk" triples
# with k distinct from i and j.  A law that is both a cylindric postulate and
# one of the seven unit equations is coded once and carries both names.
_LAWS = (
    ("CA0", None, "xy", "", lambda a, x, y: (
        ((x | y) ^ (y | x)) | (x & (a.top ^ x)) | ((a.top ^ (x & y)) ^ ((a.top ^ x) | (a.top ^ y)))
    )),
    ("CA1", "Eq1", "", "i", lambda a, i: a.cyl_mask(i, 0)),
    ("CA2", "Eq2", "x", "i", lambda a, i, x: (x & a.cyl_mask(i, x)) ^ x),
    ("CA3", "Eq3", "xy", "i", lambda a, i, x, y: (
        a.cyl_mask(i, x & (cy := a.cyl_mask(i, y))) ^ (a.cyl_mask(i, x) & cy)
    )),
    ("CA4", None, "x", "i<j", lambda a, i, j, x: a.cyl_mask(i, a.cyl_mask(j, x)) ^ a.cyl_mask(j, a.cyl_mask(i, x))),
    ("CA5", "Eq6", "", "i", lambda a, i: a.diag_mask(i, i) ^ a.top),
    ("CA6", None, "", "ijk", lambda a, i, j, k: (
        a.diag_mask(i, j) ^ a.cyl_mask(k, a.diag_mask(i, k) & a.diag_mask(k, j))
    )),
    ("CA7", None, "x", "i!=j", lambda a, i, j, x: (
        a.cyl_mask(i, a.diag_mask(i, j) & x) & a.cyl_mask(i, a.diag_mask(i, j) & (a.top ^ x))
    )),
    (None, "Eq4", "xy", "i", lambda a, i, x, y: a.cyl_mask(i, x | y) ^ (a.cyl_mask(i, x) | a.cyl_mask(i, y))),
    (None, "Eq5", "x", "i", lambda a, i, x: a.cyl_mask(i, (out := a.top ^ a.cyl_mask(i, x))) ^ out),
    (None, "Eq7", "x", "i!=j", lambda a, i, j, x: (
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
    law without element variables has one instance, the empty tuple.  Its
    failures are listed as an instance loop would list them, subset or pair
    first, then index binding.  Raises ValueError first if `samples` is
    over MAX_UNITS or a law binds more than MAX_UNITS index tuples."""
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
    for elements, instances in families.items():
        for low, lanes, masks in _chunks(alg, instances, elements):
            for name, law_elements, _, law in laws:
                if law_elements != elements:
                    continue
                failed[name] += sorted(
                    (low + lane, b)
                    for b, binding in enumerate(bindings[name])
                    for lane in lanes.failing(law(lanes, **binding, **masks))
                )
            # Free this chunk's view and the masks it caches before the next is packed.
            del lanes, masks
    for name, elements, _, law in laws:
        instances = families[elements]
        report.count(len(instances) * len(bindings[name]))
        for instance, b in failed[name]:
            report.fail(name, **bindings[name][b], **{
                v: sorted(str(e) for e in alg.subset(m)) for v, m in zip(elements, instances[instance])
            })
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


# --- bounded validity search ---------------------------------------------

@dataclass(frozen=True)
class SearchBounds:
    window_size: int
    base_size: int
    max_seqs: int
    max_eval_subsets: int = COVER_CAP


@dataclass
class ValidityResult:
    counterexample: Witness | None
    exhaustive: bool
    units_checked: int
    evaluations_checked: int
    # How many of the units checked hold a sequence that is not constant.
    nonconstant_units: int

    @property
    def found(self) -> bool:
        return self.counterexample is not None


def bounded_validity(
    lhs: Term,
    rhs: Term,
    tag: ClassTag,
    bounds: SearchBounds,
    m: int | None = None,
    seed: int = 0,
) -> ValidityResult:
    """Search tagged units within bounds for a point separating lhs from rhs.

    Returns the least counterexample in enumeration order, or reports the
    search space exhausted.  Each unit checks every m-tuple of its subsets
    when there are at most `max_eval_subsets` of them, else that many seeded
    tuples; `exhaustive` says whether every unit had all of its tuples
    checked.  Exhaustion within bounds is not a validity proof.

    Each side is evaluated once per chunk of a unit's tuples (`_chunks`),
    on lane masks that hold the whole chunk; the first chunk with a
    separating tuple stops the search, and that tuple, the least, is
    evaluated once more on the unit itself to name the least separating
    point.  `evaluations_checked` counts the tuples up to and including it.
    Raises ValueError if `max_eval_subsets` is over MAX_UNITS.
    """
    if bounds.max_eval_subsets > MAX_UNITS:
        raise ValueError(f"max_eval_subsets must be at most {MAX_UNITS}, got {bounds.max_eval_subsets}")
    if lhs == rhs:
        return ValidityResult(None, True, 0, 0, 0)
    window = tuple(range(bounds.window_size))
    outside = (index_set(lhs) | index_set(rhs)) - set(window)
    if outside:
        raise ValueError(f"terms mention indices {sorted(outside)} beyond the window bound")
    used = variables(lhs) | variables(rhs)
    if m is None:
        m = 1 + max(used, default=-1)
    unassigned = used - set(range(m))
    if unassigned:
        raise ValueError(f"unassigned variables {sorted(unassigned)}")

    units = list(enumerate_units(window, bounds.base_size, bounds.max_seqs, tag))
    cap = bounds.max_eval_subsets
    n_evals = 0
    exhaustive = True
    for idx, v in enumerate(units):
        alg = UnitAlgebra(v)
        evals, full = _cover(1 << len(v), m, cap, cap, f"validity:{seed}:{idx}")
        evals = list(evals)
        exhaustive = exhaustive and full
        for low, lanes, masks in _chunks(alg, evals, range(m)):
            failing = lanes.failing(evaluate_masks(lanes, lhs, masks) ^ evaluate_masks(lanes, rhs, masks))
            if failing:
                first = low + failing[0]
                masks = dict(enumerate(evals[first]))
                diff = evaluate_masks(alg, lhs, masks) ^ evaluate_masks(alg, rhs, masks)
                focus = v.sequences[(diff & -diff).bit_length() - 1]
                ce = Witness(v, focus, {k: alg.subset(mask) for k, mask in masks.items()})
                return ValidityResult(ce, exhaustive, idx + 1, n_evals + first + 1, _nonconstant(units[:idx + 1]))
        n_evals += len(evals)
    return ValidityResult(None, exhaustive, len(units), n_evals, _nonconstant(units))


def _nonconstant(units: list[Unit]) -> int:
    return sum(any(len(f.range_values()) > 1 for f in v) for v in units)
