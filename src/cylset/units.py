"""Finite-window sequence-set units.

A unit is a finite set of sequences sharing one window of coordinate
indices.  Off-window coordinates are treated as carrying one unspecified
constant shared by every sequence of the unit, so cylindrification along an
off-window index is the identity and terms may only mention window indices.
Fresh coordinates are materialised explicitly with `extend_window`.

`Sequence(...)` and `Unit(...)` check what they are given.  The builders
that have already checked their parts (`unit`, `unit_from_dict`,
`full_square`, `extend_window`, `add_sequence`, `closure`,
`enumerate_units`, `disjoint_squares_unit`) make each member and the unit
once through the trusted constructors `Sequence._trusted` and
`Unit._trusted`, which skip those checks; `unit` and `unit_from_dict` check
a whole input at once, with C-level passes over its rows and values.
"""

from __future__ import annotations

import enum
import json
import math
from bisect import bisect_left
from dataclasses import dataclass
from itertools import chain, combinations, compress, product, repeat
from operator import attrgetter, itemgetter, lt
from typing import Iterable, Iterator


def _check_window(window: tuple[int, ...]) -> None:
    if not all(map(lt, window, window[1:])):
        raise ValueError(f"window must be strictly increasing, got {window}")
    if window and window[0] < 0:
        raise ValueError("indices and base elements are natural numbers")


def _check_values(window: tuple[int, ...], values: tuple[int, ...]) -> None:
    if len(window) != len(values):
        raise ValueError("one value per window index required")
    if min(values, default=0) < 0:
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
        f.__dict__.update(window=window, values=values, _hash=hash((window, values)))
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

    def range_values(self) -> frozenset[int]:
        return frozenset(self.values)

    def __str__(self):
        return "(" + ",".join(str(v) for v in self.values) + ")"


def seq(window: Iterable[int], values: Iterable[int]) -> Sequence:
    return Sequence(tuple(window), tuple(values))


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


_window = attrgetter("window")
_values = attrgetter("values")


class ClassTag(enum.Enum):
    CRS = "Crs"
    D = "D"
    G = "G"
    GS = "Gs"


@dataclass(frozen=True)
class Unit:
    """A finite set of sequences over one shared window.

    As for `Sequence`, the hash is computed once, after the members are in
    order.  Equality compares (window, sequences); as every member has the
    unit's window, it compares the hashes, the windows and the members'
    value tuples, at C level."""

    window: tuple[int, ...]
    sequences: tuple[Sequence, ...]

    def __post_init__(self):
        if set(map(_window, self.sequences)) - {self.window}:
            f = next(f for f in self.sequences if f.window != self.window)
            raise ValueError(f"sequence {f} does not match window {self.window}")
        # Every member has the unit's window, so values alone give the order.
        values = list(map(_values, self.sequences))
        if not all(map(lt, values, values[1:])):
            object.__setattr__(self, "sequences", tuple(sorted(set(self.sequences), key=_values)))
        object.__setattr__(self, "_hash", hash((self.window, self.sequences)))

    @classmethod
    def _trusted(cls, window: tuple[int, ...], sequences: tuple[Sequence, ...]) -> "Unit":
        """Build without `__post_init__`; the caller has given members over
        `window`, in order and without repeats."""
        v = object.__new__(cls)
        v.__dict__.update(window=window, sequences=sequences, _hash=hash((window, sequences)))
        return v

    def __hash__(self) -> int:
        return self._hash

    def __eq__(self, other: object) -> bool:
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self is other or (
            self._hash == other._hash
            and self.window == other.window
            and list(map(_values, self.sequences)) == list(map(_values, other.sequences))
        )

    def __iter__(self) -> Iterator[Sequence]:
        return iter(self.sequences)

    def __len__(self) -> int:
        return len(self.sequences)

    def as_set(self) -> frozenset[Sequence]:
        return frozenset(self.sequences)


def unit(window: Iterable[int], seqs: Iterable[Iterable[int]]) -> Unit:
    """The unit of the given value tuples over a strictly increasing window.

    The rows are checked together, their lengths and their least value; only
    when that fails are they checked one by one, so the first bad row in
    input order names the error."""
    w = tuple(window)
    _check_window(w)
    rows = list(map(tuple, seqs))
    if set(map(len, rows)) - {len(w)} or min(chain.from_iterable(rows), default=0) < 0:
        for values in rows:
            _check_values(w, values)
    return Unit._trusted(w, tuple(Sequence._trusted(w, values) for values in sorted(set(rows))))


def full_square(window: Iterable[int], base: Iterable[int]) -> Unit:
    """All functions from the window into the base."""
    w = sorted(window)
    return unit(w, product(sorted(set(base)), repeat=len(w)))


def base(v: Unit) -> frozenset[int]:
    """Union of the ranges of all member sequences."""
    out: set[int] = set()
    for f in v:
        out |= f.range_values()
    return frozenset(out)


def _spans(ranges: set[frozenset[int]], tag: ClassTag) -> set[frozenset[int]]:
    """The ranges whose forced sequences (`_forced`) a `tag` unit with these
    member ranges holds: none for Crs, the ranges for D and G, and for Gs the
    range blocks, the classes of base elements linked through shared members."""
    if tag is not ClassTag.GS:
        return set() if tag is ClassTag.CRS else ranges
    blocks: set[frozenset[int]] = set()
    for r in ranges:
        linked = {b for b in blocks if b & r}
        blocks = (blocks - linked) | {r.union(*linked)}
    return blocks


def _product_past(factors: Iterable[int], cap: int) -> int:
    """The product of `factors`, multiplied up only until it passes `cap`: the
    exact product when it is at most `cap`, else a partial one above it."""
    out = 1
    for f in factors:
        out *= f
        if out > cap:
            break
    return out


def _forced(tag: ClassTag, n: int, span: frozenset[int], cap: int) -> tuple[int, Iterator[tuple[int, ...]]]:
    """How many value tuples over n indices a member with range `span` forces
    into a D, G or Gs unit, in closed form, and those tuples: for G and Gs the
    full square over `span`, for D its non-injective tuples.  Diagonalizing f
    through a repeated value reaches every non-injective tuple over its range
    and never an injective one, so the D closure of f is f plus these.  A D
    span is a range, so injective tuples exist only when it has n elements.

    The count is exact when it is at most `cap`, and otherwise only some
    number above `cap`: no power or factorial is worked out further than
    that comparison needs."""
    square = product(sorted(span), repeat=n)
    if tag is not ClassTag.D:
        return _product_past(repeat(len(span), n), cap), square
    tuples = (t for t in square if len(set(t)) < n)
    injective = 0
    if len(span) == n:
        injective = _product_past(range(1, n + 1), cap)
        # n^n >= 2 n! for n >= 2, so the n^n - n! non-injective tuples
        # number at least n!, which is then already past the cap.
        if n >= 2 and injective > cap:
            return injective, tuples
    return _product_past(repeat(len(span), n), cap + injective) - injective, tuples


def classify(v: Unit) -> frozenset[ClassTag]:
    """Class membership flags: every unit is Crs, and D, G and Gs each hold
    what the rule of `_forced` forces over every span (`_spans`).

    So a D unit is closed under f(i/f(j)) for window indices, a G unit is a
    union of possibly overlapping Cartesian squares, and the squares over
    the range blocks make up a Gs unit.  Each class forces a superset of
    what the one before it forces, so the first that fails ends the checks,
    and a span that forces more sequences than the unit has fails before
    any is built.
    """
    members = {f.values for f in v}
    ranges = {frozenset(values) for values in members}
    tags = {ClassTag.CRS}
    for tag in (ClassTag.D, ClassTag.G, ClassTag.GS):
        for span in _spans(ranges, tag):
            count, forced = _forced(tag, len(v.window), span, len(v))
            if count > len(v) or not all(t in members for t in forced):
                return frozenset(tags)
        tags.add(tag)
    return frozenset(tags)


def closure(v: Unit, tag: ClassTag) -> Unit:
    """The smallest `tag` unit holding v: v plus what `_forced` forces over
    each span.  Raises ValueError, before anything is built, when the counts
    add up past MAX_UNITS."""
    forced = [_forced(tag, len(v.window), span, MAX_UNITS) for span in _spans({f.range_values() for f in v}, tag)]
    if sum(count for count, _ in forced) > MAX_UNITS:
        raise ValueError(f"the {tag.value} closure forces more than {MAX_UNITS} sequences: over the enumeration cap")
    members = set(v.sequences)
    for _, tuples in forced:
        members.update(Sequence._trusted(v.window, t) for t in tuples)
    return Unit._trusted(v.window, tuple(sorted(members, key=_values)))


def extend_window(v: Unit, new: Iterable[tuple[int, int]]) -> Unit:
    """Give every sequence the stated constant value at each new index.

    The merged window, and the slot each of its indices reads from a
    member's values followed by the constants, are worked out once; each
    member is then one pick.  Every member gets the same constants at the
    same indices, so the members stay in order."""
    new = list(new)
    if not new:
        return v
    fresh = [i for i, _ in new]
    if len(set(fresh)) != len(fresh) or any(i in v.window for i in fresh):
        raise ValueError(f"new indices {fresh} collide with window {v.window}")
    # Checked as `Sequence.extended` checks each member: a unit without
    # members takes any index and value.
    if v.sequences and any(i < 0 or c < 0 for i, c in new):
        raise ValueError("indices and base elements are natural numbers")
    slot = {i: k for k, i in enumerate(v.window + tuple(fresh))}
    window = tuple(sorted(slot))
    constants = tuple(c for _, c in new)
    # One index in all is one new index over an empty window: no pick needed.
    pick = itemgetter(*(slot[i] for i in window)) if len(window) > 1 else tuple
    return Unit._trusted(window, tuple(Sequence._trusted(window, pick(f.values + constants)) for f in v))


def add_sequence(v: Unit, f: Sequence) -> Unit:
    if f.window != v.window:
        raise ValueError("sequence window does not match unit window")
    seqs = v.sequences
    k = bisect_left(seqs, f)
    if k < len(seqs) and seqs[k] == f:
        return v
    return Unit._trusted(v.window, seqs[:k] + (f,) + seqs[k:])


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
    """Every union of closure masks with at most max_bits bits, in one pass
    that ORs each distinct closure into every union kept so far.  A union
    over max_bits bits is dropped: every union that holds it is over too."""
    unions = {0}
    for c in set(closures):
        unions |= {t for s in unions if (t := s | c).bit_count() <= max_bits}
        if len(unions) > MAX_UNITS:
            raise ValueError(f"more than {MAX_UNITS} units: over the enumeration cap")
    return unions


# Binary digit characters -> bytes that are false for 0 and true for 1.
_DIGIT_BITS = bytes.maketrans(b"01", b"\0\1")


def bit_positions(mask: int) -> tuple[int, ...]:
    """The positions of the set bits of a nonnegative mask, lowest first:
    its binary digits, lowest first, select their positions in one linear
    pass at C level."""
    digits = bin(mask)[:1:-1].encode().translate(_DIGIT_BITS)
    return tuple(compress(range(len(digits)), digits))


def enumerate_units(
    window: Iterable[int], base_size: int, max_seqs: int, tag: ClassTag = ClassTag.CRS
) -> Iterator[Unit]:
    """All units over base {0..base_size-1} with at most max_seqs sequences
    carrying the tag, by size then in `combinations` order of the square.

    Units are generated per class, not filtered.  Crs units are the
    combinations themselves.  A D or G unit holds what each member's range
    forces, so each is the union of its members' closures, taken as masks
    over `full_square(window, range(base_size))`: the mask of what a range
    forces (`_forced`), one per range, OR the member's own bit.  Gs units
    are the G units that `classify` tags Gs.  Raises ValueError when
    the square or the units would number more than MAX_UNITS; for Crs the
    count is known before anything is built.
    """
    if base_size < 1:
        raise ValueError("base_size must be at least 1")
    if max_seqs < 0:
        raise ValueError(f"max_seqs must be at least 0, got {max_seqs}")
    w = tuple(sorted(window))
    # A huge window or base is refused at the first power past the cap,
    # before the whole power is computed.
    n = _product_past(repeat(base_size, len(w)), MAX_UNITS)
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
        seqs = full_square(w, range(base_size)).sequences
        for size in range(limit + 1):
            for combo in combinations(seqs, size):
                yield Unit._trusted(w, combo)
        return

    seqs = full_square(w, range(base_size)).sequences
    pos = {f.values: k for k, f in enumerate(seqs)}
    ranges = [frozenset(f.values) for f in seqs]
    # A closure lies inside every unit that holds its member, so a range
    # whose members' closures outgrow `limit` (the closed-form count, plus
    # the member itself when it is injective under D) gets no mask, and its
    # forced tuples are never built.
    masks: dict[frozenset[int], int] = {}
    for r in set(ranges):
        count, tuples = _forced(tag, len(w), r, limit)
        if count + (tag is ClassTag.D and len(r) == len(w)) <= limit:
            masks[r] = sum(1 << pos[t] for t in tuples)
    closures = [masks[r] | 1 << k for k, r in enumerate(ranges) if r in masks]
    for _, positions in sorted((m.bit_count(), bit_positions(m)) for m in _closed_masks(closures, limit)):
        u = Unit._trusted(w, tuple(seqs[k] for k in positions))
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
    w = sorted(window)
    return unit(w, chain.from_iterable(product(b, repeat=len(w)) for b in blocks))


# --- JSON unit files ----------------------------------------------------

def unit_to_dict(v: Unit) -> dict:
    return {"window": list(v.window), "sequences": [list(f.values) for f in v]}


def _is_int_list(data: object) -> bool:
    return isinstance(data, list) and set(map(type, data)) <= {int}


def int_list(data: object, length: int | None = None) -> tuple[int, ...]:
    """A JSON list of integers, of `length` items if given, as a tuple."""
    if not _is_int_list(data) or length not in (None, len(data)):
        raise ValueError(f"expected a list of {length} integers" if length else "expected a list of integers")
    return tuple(data)


def unit_fields(data: dict) -> tuple[list[int], list[list[int]]]:
    """The window and sequences of unit JSON, with their types checked: a
    missing or mistyped field, or a window that is not strictly increasing,
    raises ValueError naming the field.  The rows are checked together, by
    the set of their types and the set of their values' types; `bool` is
    not `int` here."""
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
    if not (
        isinstance(seqs, list)
        and all(issubclass(t, list) for t in set(map(type, seqs)))
        and set(map(type, chain.from_iterable(seqs))) <= {int}
    ):
        raise ValueError("unit field 'sequences': expected a list of integer lists")
    return window, seqs


def unit_from_dict(data: dict) -> Unit:
    """Decode unit JSON: `unit_fields`, then `unit`, which raises ValueError
    on a row of the wrong length or with a negative value."""
    return unit(*unit_fields(data))


def load_unit(path: str) -> Unit:
    with open(path) as fh:
        return unit_from_dict(json.load(fh))


def save_unit(v: Unit, path: str) -> None:
    with open(path, "w") as fh:
        json.dump(unit_to_dict(v), fh)
        fh.write("\n")
