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
MAX_UNITS, and reports `exhaustive` only in the first case.  The law
checker packs all covered subsets, or pairs, side by side into lane masks
(bitslicing) and evaluates each law once per index binding over all of
them.  Every check is a refuter over finite models, never a prover.
"""

from __future__ import annotations

import random
import re
from dataclasses import dataclass, field
from functools import cached_property, lru_cache
from itertools import product
from typing import Callable, Iterable, Iterator, Mapping

from .terms import And, Cyl, Diag, Not, One, Or, Term, Var, Zero, index_set, variables
from .units import MAX_UNITS, ClassTag, Sequence, Unit, bit_positions, enumerate_units, unit_to_dict

# Variable index -> subset of the carrier.
Evaluation = dict[int, frozenset]

# A term specialized to one algebra: variable masks (x0, x1, ...) -> mask.
_MaskFn = Callable[[tuple[int, ...]], int]

# The law checkers visit every instance when there are at most this many,
# and seeded samples otherwise; SearchBounds caps evaluations here by default.
COVER_CAP = 4096


class FiniteAlgebra:
    """Power-set algebra over a finite carrier, subsets as int bitmasks.

    Bit k stands for `labels[k]`.  `coords[k]` is the value tuple over the
    window `indices` from which bit k's cylinders and diagonals are computed;
    the bits in `pinned` belong to no d_ij with i != j.  Cylinder blocks and
    diagonal masks are built on first use.

    When the unpinned bits are the grid {0..b-1}^window in lexicographic
    order and the pinned bits follow them, each relabelled onto a grid cell
    (every `full_square(window, range(b))` unit and `MappedUnitAlgebra(n)`),
    `cyl_mask` computes cylinders with O(b) shifts of the whole mask instead
    of one step per cylinder block.  Any other carrier takes the block loop.
    """

    def __init__(self, labels: Iterable, indices: Iterable[int], coords: Iterable[tuple], pinned: int = 0):
        self.labels = tuple(labels)
        self.indices = tuple(indices)
        self.top = (1 << len(self.labels)) - 1
        self._coords = tuple(coords)
        self._pinned = pinned
        self._bit = {e: k for k, e in enumerate(self.labels)}
        self._blocks: dict[int, list[int]] = {}
        self._shifts: dict[int, tuple] = {}
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
        """(b, cell mask, (pinned bit, its cell) pairs) for a grid carrier,
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
        return b, (1 << cells) - 1, tuple(pins)

    def _shift_plan(self, i: int, b: int, cells: int) -> tuple[tuple[int, ...], int, int]:
        """For index i: the fold shifts, the mask of cells whose i-coordinate
        is 0, and the multiplier that spreads those cells along i."""
        s = b ** (len(self.indices) - 1 - self._position(i))
        # The i-coordinate is 0 on the first s cells of every run of s*b.
        zero = cells // ((1 << s * b) - 1) * ((1 << s) - 1)
        line = sum(1 << t * s for t in range(b))
        plan = self._shifts[i] = (tuple(t * s for t in range(1, b)), zero, line)
        return plan

    def cyl_mask(self, i: int, x: int) -> int:
        grid = self._grid
        if grid is not None:
            b, cells, pins = grid
            shifts, zero, line = self._shifts.get(i) or self._shift_plan(i, b, cells)
            g = x & cells
            for k, c in pins:
                if x >> k & 1:
                    g |= 1 << c
            folded = g
            for t in shifts:
                folded |= g >> t
            out = (folded & zero) * line
            for k, c in pins:
                if out >> c & 1:
                    out |= 1 << k
            return out
        blocks = self._cyl_blocks(i)
        out = 0
        while x:
            block = blocks[(x & -x).bit_length() - 1]
            out |= block
            x &= ~block
        return out

    def diag_mask(self, i: int, j: int) -> int:
        if i == j:
            return self.top
        d = self._diags.get((i, j))
        if d is None:
            p, q = self._position(i), self._position(j)
            d = sum(1 << k for k, c in enumerate(self._coords) if c[p] == c[q]) & ~self._pinned
            self._diags[(i, j)] = d
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


def _diag(alg: FiniteAlgebra, t: Diag, masks: Mapping[int, int]) -> int:
    if t.i == t.j:
        # diag_mask gives the top for d_ii whatever i is, so check i here.
        alg._position(t.i)
    return alg.diag_mask(t.i, t.j)


# Node type -> the step that evaluates a node of that type.
_STEPS = {
    Var: _var,
    Zero: lambda alg, t, masks: 0,
    One: lambda alg, t, masks: alg.top,
    Diag: _diag,
    Not: lambda alg, t, masks: alg.top ^ evaluate_masks(alg, t.t, masks),
    And: lambda alg, t, masks: evaluate_masks(alg, t.t1, masks) & evaluate_masks(alg, t.t2, masks),
    Or: lambda alg, t, masks: evaluate_masks(alg, t.t1, masks) | evaluate_masks(alg, t.t2, masks),
    Cyl: lambda alg, t, masks: alg.cyl_mask(t.i, evaluate_masks(alg, t.t, masks)),
}


def evaluate_masks(alg: FiniteAlgebra, t: Term, masks: Mapping[int, int]) -> int:
    """Mask of t's interpretation when variable k denotes `masks[k]`.  Raises
    ValueError naming the first off-window index or unassigned variable the
    walk meets, and TypeError on anything that is not a term node."""
    step = _STEPS.get(type(t))
    if step is None:
        raise TypeError(f"not a term: {t!r}")
    return step(alg, t, masks)


def _specialize(alg: FiniteAlgebra, t: Term) -> _MaskFn:
    """`evaluate_masks(alg, t, masks)` as a function of `masks` alone.

    One bottom-up walk marks each subterm closed (variable-free) or not.
    Each maximal closed subterm is evaluated once, through `evaluate_masks`,
    and enters as a constant; only the spine above the variables becomes
    closures, so a call walks no closed subterm again."""
    top, cyl = alg.top, alg.cyl_mask

    def constant(t: Term) -> _MaskFn:
        c = evaluate_masks(alg, t, {})
        return lambda masks: c

    def walk(t: Term) -> _MaskFn | None:
        """The closure for t, or None when t is closed."""
        kind = type(t)
        if kind is Var:
            k = t.k
            return lambda masks: masks[k]
        if kind is Not or kind is Cyl:
            f = walk(t.t)
            if f is None:
                return None
            if kind is Not:
                return lambda masks: top ^ f(masks)
            i = t.i
            return lambda masks: cyl(i, f(masks))
        if kind is And or kind is Or:
            f1, f2 = walk(t.t1), walk(t.t2)
            if f1 is None and f2 is None:
                return None
            f1, f2 = f1 or constant(t.t1), f2 or constant(t.t2)
            if kind is And:
                return lambda masks: f1(masks) & f2(masks)
            return lambda masks: f1(masks) | f2(masks)
        # Zero, One, Diag, and anything evaluate_masks will refuse.
        return None

    return walk(t) or constant(t)


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
    """`count` instances of a law side by side over one algebra's carrier.

    A lane mask packs one subset per instance, point-major: bits p*K to
    p*K+K-1, point p's field, hold p's membership in each of the K
    instances, where K is `count` rounded up to whole bytes.  Boolean
    operations on lane masks act on every instance at once; `cyl_mask` ORs
    the fields of the points of each cylinder class and writes the result
    back to each of them, and `diag_mask` widens every diagonal point to K
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
        self._diags: dict[tuple[int, int], int] = {}

    def pack(self, masks: list[int]) -> int:
        """The lane mask whose instance l is `masks[l]`, for `count` masks."""
        n, lanes = len(self.alg.labels), 8 * self.width
        masks = masks + masks[:1] * (lanes - len(masks))
        # Points are packed a slice at a time, so that the digit strings
        # stay near a million characters; a small carrier takes one slice.
        step = max(1, (1 << 20) // lanes)
        out = 0
        for low in range(0, n, step):
            span = min(step, n - low)
            keep, lead = (1 << span) - 1, 1 << span
            # Row l is masks[l] on points low to low+span-1, highest first.
            # Over the rows joined in reverse, every span-th digit from
            # digit c makes the field of point low+span-1-c, highest lane
            # first.
            rows = "".join([bin(m >> low & keep | lead)[3:] for m in reversed(masks)])
            out |= int("".join([rows[c::span] for c in range(span)]) or "0", 2) << low * lanes
        return out

    def _fields(self, x: int) -> list[int]:
        w = self.width
        data = x.to_bytes(self.size, "little")
        return [int.from_bytes(data[s:s + w], "little") for s in range(0, self.size, w)]

    def diag_mask(self, i: int, j: int) -> int:
        d = self._diags.get((i, j))
        if d is None:
            ones, zeros = b"\xff" * self.width, bytes(self.width)
            scalar = self.alg.diag_mask(i, j)
            fields = b"".join(ones if scalar >> p & 1 else zeros for p in range(len(self.alg.labels)))
            d = self._diags[(i, j)] = int.from_bytes(fields, "little")
        return d

    def cyl_mask(self, i: int, x: int) -> int:
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

    A law without element variables is checked once per index binding on
    the algebra itself.  A law over x, or over x and y, is checked once per
    index binding on lane masks (`_Lanes`) that hold every covered subset,
    or pair, at once; its failures are listed as an instance loop would
    list them, subset or pair first, then index binding.  Raises ValueError
    first if `samples` is over MAX_UNITS or a law binds more than MAX_UNITS
    index tuples."""
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
    # Element variables -> (covered instances, their lane view, the lane
    # mask of each variable).
    families = {}
    for elements, instances in (("x", list(singles)), ("xy", list(pairs))):
        lanes = _Lanes(alg, len(instances))
        masks = {v: lanes.pack([t[k] for t in instances]) for k, v in enumerate(elements)}
        families[elements] = instances, lanes, masks
    for name, elements, rule, law in laws:
        bindings = _index_bindings(rule, alg.indices)
        if not elements:
            report.count(len(bindings))
            for binding in bindings:
                if law(alg, **binding):
                    report.fail(name, **binding)
            continue
        instances, lanes, masks = families[elements]
        report.count(len(instances) * len(bindings))
        failed = sorted(
            (lane, b) for b, binding in enumerate(bindings) for lane in lanes.failing(law(lanes, **binding, **masks))
        )
        for lane, b in failed:
            report.fail(name, **bindings[b], **{
                v: sorted(str(e) for e in alg.subset(m)) for v, m in zip(elements, instances[lane])
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
    """
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
    n_evals = 0
    exhaustive = True
    for idx, v in enumerate(units):
        alg = UnitAlgebra(v)
        left, right = _specialize(alg, lhs), _specialize(alg, rhs)
        cap = bounds.max_eval_subsets
        evals, full = _cover(1 << len(v), m, cap, cap, f"validity:{seed}:{idx}")
        exhaustive = exhaustive and full
        for masks in evals:
            n_evals += 1
            diff = left(masks) ^ right(masks)
            if diff:
                focus = v.sequences[(diff & -diff).bit_length() - 1]
                iota = {k: alg.subset(mask) for k, mask in enumerate(masks)}
                ce = Witness(v, focus, iota)
                return ValidityResult(ce, exhaustive, idx + 1, n_evals, _nonconstant(units[:idx + 1]))
    return ValidityResult(None, exhaustive, len(units), n_evals, _nonconstant(units))


def _nonconstant(units: list[Unit]) -> int:
    return sum(any(len(f.range_values()) > 1 for f in v) for v in units)
