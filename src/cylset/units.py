"""Finite-window sequence-set units.

A unit is a finite set of sequences sharing one window of coordinate
indices.  Off-window coordinates are treated as carrying one unspecified
constant shared by every sequence of the unit, so cylindrification along an
off-window index is the identity and terms may only mention window indices.
Fresh coordinates are materialised explicitly with `extend_window`.
"""

from __future__ import annotations

import enum
import json
import math
from bisect import bisect_left
from dataclasses import dataclass
from itertools import combinations, product
from operator import attrgetter
from typing import Iterable, Iterator


def _check_window(window: tuple[int, ...]) -> None:
    if any(window[k] >= window[k + 1] for k in range(len(window) - 1)):
        raise ValueError(f"window must be strictly increasing, got {window}")
    if window and window[0] < 0:
        raise ValueError("indices and base elements are natural numbers")


def _check_values(window: tuple[int, ...], values: tuple[int, ...]) -> None:
    if len(window) != len(values):
        raise ValueError("one value per window index required")
    if any(v < 0 for v in values):
        raise ValueError("indices and base elements are natural numbers")


@dataclass(frozen=True, order=True)
class Sequence:
    """A finite-window assignment of base elements to coordinate indices.

    The hash is computed once, when the sequence is built; equality and
    order compare (window, values) as usual.
    """

    window: tuple[int, ...]
    values: tuple[int, ...]

    def __post_init__(self):
        _check_window(self.window)
        _check_values(self.window, self.values)
        object.__setattr__(self, "_hash", hash((self.window, self.values)))

    def __hash__(self) -> int:
        return self._hash

    def __getitem__(self, i: int) -> int:
        try:
            return self.values[self.window.index(i)]
        except ValueError:
            raise KeyError(f"index {i} outside window {self.window}") from None

    @classmethod
    def _trusted(cls, window: tuple[int, ...], values: tuple[int, ...]) -> "Sequence":
        """Build without `__post_init__`; the caller has checked every new part."""
        f = object.__new__(cls)
        object.__setattr__(f, "window", window)
        object.__setattr__(f, "values", values)
        object.__setattr__(f, "_hash", hash((window, values)))
        return f

    def update(self, i: int, u: int) -> "Sequence":
        """The sequence agreeing with this one except that index i maps to u."""
        pos = self.window.index(i) if i in self.window else -1
        if pos < 0:
            raise ValueError(f"cannot update off-window index {i}")
        if u < 0:
            raise ValueError("indices and base elements are natural numbers")
        return Sequence._trusted(self.window, self.values[:pos] + (u,) + self.values[pos + 1:])

    def extended(self, new: Iterable[tuple[int, int]]) -> "Sequence":
        """This sequence with each (index, value) pair of `new` added."""
        pairs = dict(zip(self.window, self.values))
        for i, v in new:
            if i in pairs:
                raise ValueError(f"new index {i} collides with window {self.window} or repeats")
            if i < 0 or v < 0:
                raise ValueError("indices and base elements are natural numbers")
            pairs[i] = v
        window = tuple(sorted(pairs))
        return Sequence._trusted(window, tuple(pairs[i] for i in window))

    def dropped(self, i: int) -> tuple[int, ...]:
        """Values with coordinate i removed; the key for the eqv_i classes."""
        pos = self.window.index(i)
        return self.values[:pos] + self.values[pos + 1:]

    def range_values(self) -> frozenset[int]:
        return frozenset(self.values)

    def __str__(self):
        return "(" + ",".join(str(v) for v in self.values) + ")"


def seq(window: Iterable[int], values: Iterable[int]) -> Sequence:
    return Sequence(tuple(window), tuple(values))


def eqv_i(f: Sequence, g: Sequence, i: int) -> bool:
    """True iff f and g agree at every index other than i."""
    if f.window != g.window:
        raise ValueError("sequences live in different windows")
    if i not in f.window:
        raise ValueError(f"index {i} outside window {f.window}")
    return f.dropped(i) == g.dropped(i)


def eqv_gamma(f: Sequence, g: Sequence, gamma: Iterable[int]) -> bool:
    """True iff f and g agree on every window index outside gamma."""
    if f.window != g.window:
        raise ValueError("sequences live in different windows")
    gamma = set(gamma)
    return all(
        fv == gv
        for i, fv, gv in zip(f.window, f.values, g.values)
        if i not in gamma
    )


class ClassTag(enum.Enum):
    CRS = "Crs"
    D = "D"
    G = "G"
    GS = "Gs"


@dataclass(frozen=True)
class Unit:
    """A finite set of sequences over one shared window.

    As for `Sequence`, the hash is computed once, after the members are in
    order; equality compares (window, sequences) as usual."""

    window: tuple[int, ...]
    sequences: tuple[Sequence, ...]

    def __post_init__(self):
        for f in self.sequences:
            if f.window != self.window:
                raise ValueError(f"sequence {f} does not match window {self.window}")
        # Every member has the unit's window, so values alone give the order.
        values = [f.values for f in self.sequences]
        if any(values[k] >= values[k + 1] for k in range(len(values) - 1)):
            object.__setattr__(self, "sequences", tuple(sorted(set(self.sequences))))
        object.__setattr__(self, "_hash", hash((self.window, self.sequences)))

    def __hash__(self) -> int:
        return self._hash

    def __iter__(self) -> Iterator[Sequence]:
        return iter(self.sequences)

    def __len__(self) -> int:
        return len(self.sequences)

    def __contains__(self, f: object) -> bool:
        if not isinstance(f, Sequence):
            return False
        k = bisect_left(self.sequences, f)
        return k < len(self.sequences) and self.sequences[k] == f

    def as_set(self) -> frozenset[Sequence]:
        return frozenset(self.sequences)


_values = attrgetter("values")


def unit(window: Iterable[int], seqs: Iterable[Iterable[int]]) -> Unit:
    """The unit of the given value tuples over a strictly increasing window."""
    w = tuple(window)
    _check_window(w)
    members = set()
    for v in seqs:
        values = tuple(v)
        _check_values(w, values)
        members.add(Sequence._trusted(w, values))
    return Unit(w, tuple(sorted(members, key=_values)))


def full_square(window: Iterable[int], base: Iterable[int]) -> Unit:
    """All functions from the window into the base."""
    w = tuple(sorted(window))
    b = sorted(set(base))
    return Unit(w, tuple(sorted(Sequence(w, vals) for vals in product(b, repeat=len(w)))))


def base(v: Unit) -> frozenset[int]:
    """Union of the ranges of all member sequences."""
    out: set[int] = set()
    for f in v:
        out |= f.range_values()
    return frozenset(out)


def _diag_closed(v: Unit) -> bool:
    members = v.as_set()
    for f in v:
        for i in v.window:
            for j in v.window:
                if f.update(i, f[j]) not in members:
                    return False
    return True


def classify(v: Unit) -> frozenset[ClassTag]:
    """Class membership flags for the unit.

    Every unit is Crs.  D requires closure under f(i/f(j)) for window
    indices.  G requires the full square over each member's range, so the
    unit is a union of possibly overlapping Cartesian squares.  Gs requires
    the unit to be the union of the full squares over its range blocks, the
    classes of base elements linked through shared members.  A G unit is Gs
    iff the full square over N(u), the union of the ranges of the members
    holding u, lies in the unit for every base element u: with two or more
    window indices the square over N(w) for w in N(u) holds a member with
    values u and x for each x in N(w), so N(u) is u's block; with at most
    one index every block is a singleton.
    """
    tags = {ClassTag.CRS}
    if _diag_closed(v):
        tags.add(ClassTag.D)
    members = v.as_set()
    if all(g in members for f in v for g in full_square(v.window, f.range_values())):
        tags.add(ClassTag.G)
        near: dict[int, set[int]] = {}
        for f in v:
            for u in f.values:
                near.setdefault(u, set()).update(f.values)
        if all(
            len(n) ** len(v.window) <= len(v)
            and all(s in members for s in full_square(v.window, n))
            for n in near.values()
        ):
            tags.add(ClassTag.GS)
    return frozenset(tags)


def diagonalization_closure(v: Unit) -> Unit:
    """Smallest superset closed under f(i/f(j)) for window indices."""
    members = set(v.sequences)
    work = list(v.sequences)
    while work:
        f = work.pop()
        for i in v.window:
            for j in v.window:
                g = f.update(i, f[j])
                if g not in members:
                    members.add(g)
                    work.append(g)
    return Unit(v.window, tuple(sorted(members)))


def extend_window(v: Unit, new: Iterable[tuple[int, int]]) -> Unit:
    """Give every sequence the stated constant value at each new index."""
    new = list(new)
    if not new:
        return v
    fresh = [i for i, _ in new]
    if len(set(fresh)) != len(fresh) or any(i in v.window for i in fresh):
        raise ValueError(f"new indices {fresh} collide with window {v.window}")
    window = tuple(sorted(v.window + tuple(fresh)))
    return Unit(window, tuple(sorted(f.extended(new) for f in v)))


def add_sequence(v: Unit, f: Sequence) -> Unit:
    if f.window != v.window:
        raise ValueError("sequence window does not match unit window")
    if f in v:
        return v
    return Unit(v.window, tuple(sorted(v.sequences + (f,))))


def fresh_naturals(used: Iterable[int], n: int) -> list[int]:
    """The n smallest naturals not in `used`."""
    used = set(used)
    out: list[int] = []
    candidate = 0
    while len(out) < n:
        if candidate not in used:
            out.append(candidate)
        candidate += 1
    return out


def fresh_base(v: Unit, n: int) -> list[int]:
    """The n smallest base elements not used anywhere in the unit."""
    return fresh_naturals(base(v), n)


def fresh_indices(v: Unit, gamma: Iterable[int], n: int) -> list[int]:
    """The n smallest indices outside both the window and gamma."""
    return fresh_naturals(set(v.window) | set(gamma), n)


# Enumeration refuses to build more units than this: the subsets of a
# 16-sequence square, the largest space any suite or test searches.
MAX_UNITS = 1 << 16


def _closed_masks(closures: list[int], max_bits: int) -> set[int]:
    """Every union of closure masks with at most max_bits bits.

    A union over more than max_bits bits is pruned: each union on the way
    to a closed set is a subset of it, so no target is lost.
    """
    gens = sorted(set(closures))
    seen = {0} if max_bits >= 0 else set()
    work = list(seen)
    while work:
        s = work.pop()
        for c in gens:
            t = s | c
            if t not in seen and t.bit_count() <= max_bits:
                seen.add(t)
                if len(seen) > MAX_UNITS:
                    raise ValueError(f"more than {MAX_UNITS} units: over the enumeration cap")
                work.append(t)
    return seen


def bit_positions(mask: int) -> tuple[int, ...]:
    return tuple(k for k in range(mask.bit_length()) if mask >> k & 1)


def enumerate_units(
    window: Iterable[int], base_size: int, max_seqs: int, tag: ClassTag = ClassTag.CRS
) -> Iterator[Unit]:
    """All units over base {0..base_size-1} with at most max_seqs sequences
    carrying the tag, by size then in `combinations` order of the square.

    Units are generated per class, not filtered.  Crs units are the
    combinations themselves.  D and G are closures generated point by point
    (`diagonalization_closure`, and the full square over a sequence's
    range), so their units are exactly the unions of one closure mask per
    sequence of `full_square(window, range(base_size))`.  Gs units are the
    G units that `classify` tags Gs.  Raises ValueError when the square or
    the units would number more than MAX_UNITS; for Crs the count is known
    before anything is built.
    """
    if base_size < 1:
        raise ValueError("base_size must be at least 1")
    if max_seqs < 0:
        raise ValueError(f"max_seqs must be at least 0, got {max_seqs}")
    w = tuple(sorted(window))
    n = 1
    for _ in w:
        # Multiplied up, so a huge window or base is refused at the first
        # power past the cap instead of after the whole power is computed.
        n *= base_size
        if n > MAX_UNITS:
            raise ValueError(
                f"the square over {len(w)} indices and base {base_size} has at least {n} sequences, "
                f"over the enumeration cap of {MAX_UNITS}"
            )
    limit = min(max_seqs, n)
    if tag is ClassTag.CRS:
        count = 0
        for k in range(limit + 1):
            count += math.comb(n, k)
            if count > MAX_UNITS:
                raise ValueError(
                    f"{count} units with at most {k} of the {n} sequences "
                    f"already exceed the enumeration cap of {MAX_UNITS}"
                )
        square = full_square(w, range(base_size))
        for size in range(limit + 1):
            for combo in combinations(square.sequences, size):
                yield Unit(w, combo)
        return

    seqs = full_square(w, range(base_size)).sequences
    bit = {f: k for k, f in enumerate(seqs)}

    def mask(v: Unit) -> int:
        return sum(1 << bit[g] for g in v)

    if tag is ClassTag.D:
        closures = [mask(diagonalization_closure(Unit(w, (f,)))) for f in seqs]
    else:
        closures = [mask(full_square(w, f.range_values())) for f in seqs]
    closed = sorted((m.bit_count(), bit_positions(m)) for m in _closed_masks(closures, limit))
    for _, positions in closed:
        u = Unit(w, tuple(seqs[k] for k in positions))
        if tag is not ClassTag.GS or ClassTag.GS in classify(u):
            yield u


def set_partitions(items: list[int]) -> Iterator[list[list[int]]]:
    """All partitions of `items` into nonempty blocks, deterministic order."""
    if not items:
        yield []
        return
    first, rest = items[0], items[1:]
    for part in set_partitions(rest):
        yield [[first]] + part
        for k in range(len(part)):
            yield part[:k] + [[first] + part[k]] + part[k + 1:]


def disjoint_squares_unit(window: Iterable[int], blocks: Iterable[Iterable[int]]) -> Unit:
    """Union of the full squares over pairwise disjoint base blocks."""
    blocks = [sorted(set(b)) for b in blocks]
    seen: set[int] = set()
    for b in blocks:
        if seen & set(b):
            raise ValueError("blocks must be pairwise disjoint")
        seen |= set(b)
    w = tuple(sorted(window))
    members: set[Sequence] = set()
    for b in blocks:
        members |= set(full_square(w, b).sequences)
    return Unit(w, tuple(sorted(members)))


# --- JSON unit files ----------------------------------------------------

def unit_to_dict(v: Unit) -> dict:
    return {"window": list(v.window), "sequences": [list(f.values) for f in v]}


def _is_int_list(data: object) -> bool:
    return isinstance(data, list) and all(type(x) is int for x in data)


def int_list(data: object, length: int | None = None) -> tuple[int, ...]:
    """A JSON list of integers, of `length` items if given, as a tuple."""
    if not _is_int_list(data) or length not in (None, len(data)):
        raise ValueError(f"expected a list of {length} integers" if length else "expected a list of integers")
    return tuple(data)


def unit_from_dict(data: dict) -> Unit:
    """Decode unit JSON; a missing or mistyped field, or a window that is not
    strictly increasing, raises ValueError naming the field."""
    try:
        window = data["window"]
        seqs = data["sequences"]
    except (KeyError, TypeError):
        raise ValueError("unit JSON needs 'window' and 'sequences' fields") from None
    if not _is_int_list(window):
        raise ValueError("unit field 'window': expected a list of integers")
    try:
        _check_window(tuple(window))
    except ValueError as err:
        raise ValueError(f"unit field 'window': {err}") from None
    if not isinstance(seqs, list) or not all(map(_is_int_list, seqs)):
        raise ValueError("unit field 'sequences': expected a list of integer lists")
    return unit(window, seqs)


def load_unit(path: str) -> Unit:
    with open(path) as fh:
        return unit_from_dict(json.load(fh))


def save_unit(v: Unit, path: str) -> None:
    with open(path, "w") as fh:
        json.dump(unit_to_dict(v), fh)
        fh.write("\n")
