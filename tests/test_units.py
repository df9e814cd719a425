import json
import math
import time
from itertools import combinations, permutations, product

import pytest
from hypothesis import given, strategies as st

from cylset.semantics import UnitAlgebra, evaluate
from cylset.terms import parse_term
from cylset.units import (
    ClassTag,
    _forced,
    Sequence,
    Unit,
    add_sequence,
    base,
    bit_positions,
    classify,
    closure,
    disjoint_squares_unit,
    enumerate_units,
    eqv_gamma,
    extend_window,
    fresh_base,
    fresh_indices,
    full_square,
    seq,
    set_partitions,
    unit,
    unit_from_dict,
    unit_to_dict,
)

SQ22 = full_square((0, 1), (0, 1))


class TestSequence:
    def test_update(self):
        f = seq((0, 1), (0, 1))
        assert f.update(0, 1) == seq((0, 1), (1, 1))

    def test_update_noop(self):
        f = seq((0, 1), (0, 1))
        assert f.update(1, 1) == f

    def test_update_off_window(self):
        with pytest.raises(ValueError):
            seq((0, 1), (0, 1)).update(5, 0)

    def test_eqv_gamma(self):
        f, g = seq((0, 1), (0, 1)), seq((0, 1), (1, 1))
        assert eqv_gamma(f, g, {0})
        assert not eqv_gamma(f, seq((0, 1), (1, 0)), {0})
        assert eqv_gamma(f, seq((0, 1), (1, 0)), {0, 1})
        # One index, as the escape search of split_atom_diag asks.
        assert eqv_gamma(f, g, (0,))
        assert not eqv_gamma(f, seq((0, 1), (0, 0)), (0,))
        assert eqv_gamma(f, f, (0,)) and eqv_gamma(f, f, (1,))
        with pytest.raises(ValueError, match="different windows"):
            eqv_gamma(seq((0, 1), (0, 1)), seq((0, 2), (0, 1)), (0,))

    def test_update_rejects_negative_value(self):
        with pytest.raises(ValueError, match="natural numbers"):
            seq((0, 1), (0, 1)).update(0, -1)

    def test_extended(self):
        f = seq((1, 3), (4, 5)).extended([(2, 7), (0, 6)])
        assert f == seq((0, 1, 2, 3), (6, 4, 7, 5))
        assert f.window == (0, 1, 2, 3) and f.values == (6, 4, 7, 5)

    @pytest.mark.parametrize("new", [[(1, 0)], [(2, 0), (2, 1)]])
    def test_extended_rejects_colliding_indices(self, new):
        with pytest.raises(ValueError, match="collide"):
            seq((0, 1), (0, 1)).extended(new)

    @pytest.mark.parametrize("new", [[(-1, 0)], [(2, -1)]])
    def test_extended_rejects_negatives(self, new):
        with pytest.raises(ValueError, match="natural numbers"):
            seq((0, 1), (0, 1)).extended(new)

    @given(st.permutations([0, 1, 2]))
    def test_window_must_be_sorted(self, perm):
        if perm == [0, 1, 2]:
            seq(perm, (0, 0, 0))
        else:
            with pytest.raises(ValueError):
                seq(perm, (0, 0, 0))


class TestBaseAndClassify:
    def test_base_examples(self):
        assert base(unit((0, 1), [(0, 1)])) == {0, 1}
        assert base(unit((0, 1), [])) == frozenset()
        assert base(unit((0, 1), [(0, 0), (2, 2)])) == {0, 2}

    def test_two_disjoint_points(self):
        v = unit((0, 1), [(0, 0), (1, 1)])
        assert classify(v) == {ClassTag.CRS, ClassTag.D, ClassTag.G, ClassTag.GS}

    def test_non_diagonalizable_singleton(self):
        assert classify(unit((0, 1), [(0, 1)])) == {ClassTag.CRS}

    def test_full_square(self):
        assert classify(SQ22) == {ClassTag.CRS, ClassTag.D, ClassTag.G, ClassTag.GS}

    def test_empty_unit(self):
        assert classify(unit((0, 1), [])) == {
            ClassTag.CRS,
            ClassTag.D,
            ClassTag.G,
            ClassTag.GS,
        }

    def test_overlapping_squares_are_g_not_gs(self):
        v = unit((0, 1), [(a, b) for block in ((0, 1), (1, 2)) for a in block for b in block])
        assert len(v) == 7
        assert classify(v) == {ClassTag.CRS, ClassTag.D, ClassTag.G}

    def test_constant_singletons_are_everything(self):
        for c in (0, 1):
            v = unit((0, 1, 2), [(c, c, c)])
            assert classify(v) >= {ClassTag.D, ClassTag.G, ClassTag.GS}

    def test_class_chain_over_small_units(self):
        # Gs implies G implies D implies Crs on every unit with base <= 2
        # and window of size <= 3.
        for window in [(0,), (0, 1), (0, 1, 2)]:
            square_size = 2 ** len(window)
            for v in enumerate_units(window, 2, square_size):
                tags = classify(v)
                if ClassTag.GS in tags:
                    assert ClassTag.G in tags
                if ClassTag.G in tags:
                    assert ClassTag.D in tags
                assert ClassTag.CRS in tags


SQUARE_BITS = st.integers(min_value=0, max_value=(1 << 9) - 1)
SQ33 = full_square((0, 1), range(3))


def _subunit(square: Unit, mask: int) -> Unit:
    return Unit(square.window, tuple(f for k, f in enumerate(square) if mask >> k & 1))


@given(SQUARE_BITS)
def test_d_tag_iff_closed(mask):
    u = _subunit(SQ33, mask)
    assert (ClassTag.D in classify(u)) == (closure(u, ClassTag.D) == u)


@given(SQUARE_BITS)
def test_every_tag_iff_closed(mask):
    u = _subunit(SQ33, mask)
    tags = classify(u)
    for tag in ClassTag:
        assert (tag in tags) == (closure(u, tag) == u), tag


@given(SQUARE_BITS)
def test_membership_matches_set(mask):
    u = _subunit(SQ33, mask)
    members = frozenset(u.sequences)
    for f in SQ33:
        assert (f in u) == (f in members)
    assert seq((0, 1, 2), (0, 0, 0)) not in u
    assert (0, 0) not in u


def _diag_worklist(values: tuple[int, ...]) -> set[tuple[int, ...]]:
    """The closure of one value tuple under f(i/f(j)), found step by step:
    the reference for the closed form that `closure` uses for D."""
    seen = {values}
    work = [values]
    while work:
        f = work.pop()
        for i in range(len(f)):
            for j in range(len(f)):
                g = f[:i] + (f[j],) + f[i + 1:]
                if g not in seen:
                    seen.add(g)
                    work.append(g)
    return seen


class TestClosure:
    def test_closure_of_off_diagonal_point(self):
        v = closure(unit((0, 1), [(0, 1)]), ClassTag.D)
        assert v == unit((0, 1), [(0, 1), (0, 0), (1, 1)])

    def test_closure_of_square_is_identity(self):
        for tag in ClassTag:
            assert closure(SQ22, tag) == SQ22

    def test_closure_of_empty(self):
        v = unit((0, 1), [])
        for tag in ClassTag:
            assert closure(v, tag) == v

    def test_idempotent_monotone_and_d_tagged(self):
        for v in enumerate_units((0, 1), 2, 4):
            for tag in ClassTag:
                closed = closure(v, tag)
                assert closure(closed, tag) == closed
                assert set(v) <= set(closed)
                assert tag in classify(closed)

    @pytest.mark.parametrize("n", range(5))
    def test_d_closure_matches_the_worklist(self, n):
        # Every sequence over n <= 4 indices and base <= 4.
        for f in full_square(range(n), range(4)):
            got = closure(Unit(f.window, (f,)), ClassTag.D)
            assert {g.values for g in got} == _diag_worklist(f.values), f

    def test_d_closure_sizes_of_injective_sequences(self):
        # n^n - n! non-injective sequences plus the injective one.
        sizes = [len(closure(unit(range(n), [tuple(range(n))]), ClassTag.D)) for n in (2, 3, 4)]
        assert sizes == [3, 22, 233]

    def test_g_closure_fills_ranges_and_gs_closure_fills_blocks(self):
        v = unit((0, 1), [(0, 1), (1, 2), (3, 3)])
        assert closure(v, ClassTag.G) == unit((0, 1), [(a, b) for r in ((0, 1), (1, 2)) for a in r for b in r] + [(3, 3)])
        assert closure(v, ClassTag.GS) == disjoint_squares_unit((0, 1), [[0, 1, 2], [3]])

    @pytest.mark.parametrize("tag", [ClassTag.D, ClassTag.G, ClassTag.GS])
    def test_refused_past_the_cap_before_building(self, tag):
        # The square over 10 indices and a 10-element range has 10^10 sequences.
        with pytest.raises(ValueError, match="over the enumeration cap"):
            closure(unit(range(10), [tuple(range(10))]), tag)


def test_huge_injective_unit_is_decided_without_the_whole_power():
    """Over 100,000 indices, |R|^n and n! run to hundreds of thousands of
    digits; the verdicts need them only up to the unit's size or the cap."""
    v = unit(range(100_000), [tuple(range(100_000))])
    assert classify(v) == {ClassTag.CRS}
    for tag in (ClassTag.D, ClassTag.G, ClassTag.GS):
        with pytest.raises(ValueError, match=f"the {tag.value} closure forces more than 65536 sequences"):
            closure(v, tag)


@pytest.mark.parametrize("tag", [ClassTag.D, ClassTag.G])
@pytest.mark.parametrize("n", range(6))
def test_forced_count_is_exact_up_to_the_cap(tag, n):
    for r in range(n + 2):
        exact = r ** n - (math.factorial(n) if tag is ClassTag.D and r == n else 0)
        for cap in range(exact + 2):
            count, _ = _forced(tag, n, frozenset(range(r)), cap)
            assert count == exact if exact <= cap else count > cap, (r, cap)


def test_d_units_that_are_not_g_split_an_injective_range():
    """Each D unit over window 3, base 3 that is not G holds an injective
    sequence and misses another injective sequence over the same range."""
    not_g = 0
    for v in enumerate_units((0, 1, 2), 3, 27, ClassTag.D):
        if ClassTag.G in classify(v):
            continue
        not_g += 1
        members = {f.values for f in v}
        assert any(
            len(set(f.values)) == 3 and any(p not in members for p in permutations(f.values)) for f in v
        ), unit_to_dict(v)
    assert not_g == 62


class TestWindowSurgery:
    def test_extend_window(self):
        v = extend_window(unit((0, 1), [(0, 1)]), [(2, 0)])
        assert v == unit((0, 1, 2), [(0, 1, 0)])

    def test_extend_window_empty(self):
        v = unit((0, 1), [(0, 1)])
        assert extend_window(v, []) == v

    def test_extend_window_collision(self):
        with pytest.raises(ValueError):
            extend_window(unit((0, 1), [(0, 1)]), [(1, 0)])

    def test_constant_extension_preserves_satisfaction(self):
        terms = [parse_term(s) for s in ("x0 . -c0 -d01", "c0 x0 + d01", "c1 -x0")]
        pairs = [(2, 0), (3, 1)]
        for v in enumerate_units((0, 1), 2, 4):
            if not len(v):
                continue
            iota = {0: 1}
            ext = extend_window(v, pairs)
            carried = {0: UnitAlgebra(ext).mask({v.sequences[0].extended(pairs)})}
            for t in terms:
                got = {f.values[:2] for f in evaluate(t, ext, carried)}
                want = {f.values for f in evaluate(t, v, iota)}
                assert got == want

    def test_add_sequence_idempotent(self):
        v = unit((0, 1), [(0, 1)])
        f = seq((0, 1), (0, 1))
        assert add_sequence(v, f) == v
        g = seq((0, 1), (1, 1))
        assert add_sequence(v, g) == unit((0, 1), [(0, 1), (1, 1)])

    def test_fresh_base(self):
        assert fresh_base(unit((0, 1), [(0, 1)]), 2) == [2, 3]

    def test_fresh_indices(self):
        assert fresh_indices(unit((0, 1), [(0, 1)]), {0, 1}, 2) == [2, 3]
        assert fresh_indices(unit((0, 1), [(0, 1)]), {2}, 2) == [3, 4]


class TestEnumeration:
    def test_tiny_enumeration(self):
        got = list(enumerate_units((0, 1), 1, 1))
        assert got == [unit((0, 1), []), unit((0, 1), [(0, 0)])]

    def test_gs_enumeration(self):
        got = list(enumerate_units((0, 1), 2, 16, ClassTag.GS))
        assert SQ22 in got
        assert unit((0, 1), [(0, 0), (1, 1)]) in got
        assert unit((0, 1), [(0, 1)]) not in got

    def test_crs_count(self):
        assert sum(1 for _ in enumerate_units((0, 1), 2, 16)) == 16

    def test_no_duplicates_and_deterministic(self):
        a = list(enumerate_units((0, 1), 2, 16, ClassTag.D))
        b = list(enumerate_units((0, 1), 2, 16, ClassTag.D))
        assert a == b
        assert len(a) == len(set(a))

    @pytest.mark.parametrize("tag", [ClassTag.D, ClassTag.G, ClassTag.GS])
    def test_wide_square_skips_closures_over_the_size_cap(self, tag):
        """The window-16 square has 65,536 sequences, and the closure of
        each non-constant one holds more than 3; those closures are counted
        in closed form and never built, so only the constants remain."""
        start = time.perf_counter()
        got = list(enumerate_units(range(16), 2, 3, tag))
        assert time.perf_counter() - start < 20.0
        zeros, ones = (0,) * 16, (1,) * 16
        assert got == [unit(range(16), rows) for rows in ([], [zeros], [ones], [zeros, ones])]

    def test_singletons_require_diagonal_closure(self):
        for v in enumerate_units((0, 1), 2, 1, ClassTag.D):
            if len(v) == 1:
                f = v.sequences[0]
                assert f[0] == f[1]
                assert classify(v) >= {ClassTag.D, ClassTag.G, ClassTag.GS}


def _filtered_units(window, base_size, max_seqs, tag):
    """Every combination of the square that `classify` tags: the reference
    the per-class generators must reproduce, order included."""
    square = full_square(window, range(base_size))
    return [
        Unit(square.window, combo)
        for size in range(min(max_seqs, len(square)) + 1)
        for combo in combinations(square.sequences, size)
        if tag in classify(Unit(square.window, combo))
    ]


ORACLE_CASES = [
    (window, base_size, max_seqs)
    for window in [(0,), (0, 1), (0, 1, 2)]
    for base_size in (1, 2, 3)
    if base_size ** len(window) <= 16
    for max_seqs in sorted({0, 1, 2, base_size ** len(window)})
]


@pytest.mark.parametrize("window,base_size,max_seqs", ORACLE_CASES)
def test_generators_match_classify_filter(window, base_size, max_seqs):
    for tag in ClassTag:
        want = _filtered_units(window, base_size, max_seqs, tag)
        assert list(enumerate_units(window, base_size, max_seqs, tag)) == want, tag


@pytest.mark.parametrize(
    "window_size,base_size,counts",
    [(2, 3, (80, 18, 15)), (3, 2, (5, 5, 5)), (3, 3, (81, 19, 15)), (4, 2, (5, 5, 5)), (4, 3, (19, 19, 15))],
)
def test_unit_counts_over_the_whole_square(window_size, base_size, counts):
    """The D, G and Gs unit counts over the whole square (max_seqs =
    base^window), past the 16 sequences the `classify` filter above can
    search, and each unit carries its tag."""
    for tag, want in zip((ClassTag.D, ClassTag.G, ClassTag.GS), counts):
        got = list(enumerate_units(range(window_size), base_size, base_size ** window_size, tag))
        assert len(got) == want, tag
        assert all(tag in classify(v) for v in got), tag


def _gs_by_blocks(v: Unit) -> bool:
    """Gs by definition: the unit is the union of the full squares over its
    range blocks, the classes of base elements linked by sharing a member."""
    blocks: list[set[int]] = []
    for f in v:
        block = set(f.values)
        for b in [b for b in blocks if b & block]:
            blocks.remove(b)
            block |= b
        blocks.append(block)
    return set(v) == {g for b in blocks for g in full_square(v.window, b)}


@pytest.mark.parametrize(
    "window,base_size",
    [(w, b) for w in [(), (0,), (0, 1)] for b in (1, 2, 3, 4)]
    + [((0, 1, 2), 2), ((0, 1, 2), 3), ((0, 1, 2, 3), 2)],
)
def test_gs_test_matches_block_definition(window, base_size):
    seen = set()
    for v in enumerate_units(window, base_size, base_size ** len(window), ClassTag.G):
        gs = _gs_by_blocks(v)
        assert (ClassTag.GS in classify(v)) == gs, unit_to_dict(v)
        seen.add(gs)
    if len(window) == 2 and base_size >= 3:
        assert seen == {True, False}


class TestPartitions:
    def test_counts(self):
        assert len(list(set_partitions([0]))) == 1
        assert len(list(set_partitions([0, 1]))) == 2
        assert len(list(set_partitions([0, 1, 2]))) == 5

    def test_disjoint_squares(self):
        v = disjoint_squares_unit((0, 1), [[0, 1], [2]])
        assert len(v) == 5
        assert classify(v) >= {ClassTag.G, ClassTag.GS}
        with pytest.raises(ValueError):
            disjoint_squares_unit((0, 1), [[0, 1], [1, 2]])
        # The window is checked even when there are no blocks.
        with pytest.raises(ValueError, match="strictly increasing"):
            disjoint_squares_unit((0, 0), [])


class TestJson:
    def test_round_trip(self):
        v = unit((0, 1), [(0, 1), (1, 1)])
        data = unit_to_dict(v)
        assert data == {"window": [0, 1], "sequences": [[0, 1], [1, 1]]}
        assert unit_from_dict(json.loads(json.dumps(data))) == v

    def test_malformed(self):
        with pytest.raises(ValueError):
            unit_from_dict({"sequences": [[0, 1]]})


class TestUnitValidation:
    def test_window_mismatch(self):
        with pytest.raises(ValueError):
            Unit((0, 1), (seq((0, 2), (0, 1)),))

    def test_duplicates_collapse(self):
        v = unit((0, 1), [(0, 1), (0, 1)])
        assert len(v) == 1


@pytest.mark.parametrize("window,base_elems", [
    ((), (0, 1)), ((0, 1), ()), ((), ()), ((2, 0, 1), (1, 0, 1)), (range(16), range(2)),
], ids=["empty-window", "empty-base", "both-empty", "unsorted-repeats", "window-16-base-2"])
def test_full_square_matches_checked_sequences(window, base_elems):
    """`full_square` gives the members and order of the sorted, checked
    `Sequence`-by-`Sequence` square."""
    w = tuple(sorted(window))
    members = sorted(Sequence(w, vals) for vals in product(sorted(set(base_elems)), repeat=len(w)))
    v = full_square(window, base_elems)
    assert v.window == w and v.sequences == tuple(members)


@pytest.mark.parametrize("window,base_elems,message", [
    ((1, 1), (0,), r"window must be strictly increasing, got \(1, 1\)"),
    ((0, 1), (-1, 0), "natural numbers"),
    ((-1, 0), (0,), "natural numbers"),
])
def test_full_square_refuses_bad_input(window, base_elems, message):
    with pytest.raises(ValueError, match=message):
        full_square(window, base_elems)


def test_unsorted_window_is_refused_naming_the_field():
    # Sorting the window would move each value onto another index.
    with pytest.raises(ValueError, match="unit field 'window': window must be strictly increasing"):
        unit_from_dict({"window": [1, 0], "sequences": [[5, 7]]})
    with pytest.raises(ValueError, match="strictly increasing"):
        unit((1, 0), [(5, 7)])


@st.composite
def _window_and_values(draw):
    window = tuple(sorted(draw(st.sets(st.integers(0, 6), min_size=1, max_size=4))))
    values = tuple(draw(st.lists(st.integers(0, 2), min_size=len(window), max_size=len(window))))
    return window, values, draw(st.integers(0, len(window) - 1))


@given(_window_and_values())
def test_equal_sequences_hash_equal_however_built(data):
    window, values, k = data
    i = window[k]
    other = values[:k] + ((values[k] + 1) % 3,) + values[k + 1:]
    built = [
        seq(window, values),
        next(f for f in full_square(window, range(3)) if f.values == values),
        unit_from_dict({"window": list(window), "sequences": [list(values)]}).sequences[0],
        seq(window, other).update(i, values[k]),
        seq(window[:k] + window[k + 1:], values[:k] + values[k + 1:]).extended([(i, values[k])]),
    ]
    for f in built:
        assert f == built[0] and hash(f) == hash(built[0])
    assert len(set(built)) == 1


@given(st.lists(st.tuples(st.integers(0, 2), st.integers(0, 2)), max_size=9))
def test_unit_hash_is_stored_and_matches_the_field_hash(pairs):
    """Equal units hash equal however their members were given, with the
    value the generated dataclass hash gave, and hashing reads no member."""
    v = unit((0, 1), pairs)
    same = Unit((0, 1), tuple(reversed(v.sequences)))
    assert v == same and hash(v) == hash(same) == hash((v.window, v.sequences))
    calls = []
    original = Sequence.__hash__
    Sequence.__hash__ = lambda f: calls.append(f) or original(f)
    try:
        hash(v)
    finally:
        Sequence.__hash__ = original
    assert calls == []


def _bit_positions_by_shifts(mask: int) -> tuple[int, ...]:
    """The reference definition of `bit_positions`: one whole-mask shift
    per position, quadratic in the width."""
    return tuple(k for k in range(mask.bit_length()) if mask >> k & 1)


@given(st.integers(min_value=0, max_value=2048).flatmap(
    lambda width: st.integers(min_value=0, max_value=(1 << width) - 1)))
def test_bit_positions_match_the_shift_definition(mask):
    assert bit_positions(mask) == _bit_positions_by_shifts(mask)


@pytest.mark.parametrize("mask", [0, 1, 2, 1 << 2047, (1 << 2048) - 1, 0x5555 << 1000])
def test_bit_positions_edges(mask):
    assert bit_positions(mask) == _bit_positions_by_shifts(mask)


@given(st.lists(st.tuples(st.integers(0, 2), st.integers(0, 2)), max_size=6),
       st.lists(st.tuples(st.integers(0, 2), st.integers(0, 2)), max_size=6))
def test_unit_equality_is_window_and_member_equality(first, second):
    """Units built apart are equal exactly when their windows and members
    are, with no call to a member's `__eq__`."""
    v, w = unit((0, 1), first), unit((0, 1), second)
    calls = []
    original = Sequence.__eq__
    Sequence.__eq__ = lambda f, g: calls.append(f) or original(f, g)
    try:
        equal = v == w
    finally:
        Sequence.__eq__ = original
    assert calls == []
    assert equal == (set(first) == set(second)) == (set(v) == set(w))
    assert unit((0, 1), []) != unit((0,), []) and v != v.sequences
