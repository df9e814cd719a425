"""The bitmask carrier order and the mask operations of `FiniteAlgebra`."""

import gc
import random
import weakref
from itertools import product

import pytest
from hypothesis import given, settings, strategies as st

from cylset import semantics
from cylset.semantics import P_PRIME, FiniteAlgebra, MappedUnitAlgebra, UnitAlgebra
from cylset.units import Unit, full_square, unit, unit_from_dict, unit_to_dict

CA4_UNIT = unit((0, 1), [(0, 0), (1, 0), (1, 1)])


def test_unit_bits_are_json_positions():
    v = unit_from_dict({"window": [0, 1, 2], "sequences": [[1, 0, 1], [0, 0, 0], [0, 1, 1]]})
    alg = UnitAlgebra(v)
    assert alg.labels == v.sequences
    for p, f in enumerate(v.sequences):
        assert alg.mask({f}) == 1 << p
        assert unit_to_dict(v)["sequences"][p] == list(f.values)


def test_mapped_carrier_is_sorted_grid_then_extra_point():
    alg = MappedUnitAlgebra(3)
    assert alg.labels == tuple(sorted(product(range(3), repeat=3))) + (P_PRIME,)
    assert len(alg.labels) == 3 ** 3 + 1
    assert alg.labels[alg.mask({alg.identity}).bit_length() - 1] == (0, 1, 2)


@given(st.integers(min_value=0, max_value=(1 << 8) - 1))
def test_mask_round_trip(m):
    alg = UnitAlgebra(full_square((0, 1, 2), (0, 1)))
    assert alg.mask(alg.subset(m)) == m


def test_mask_ops_match_set_ops():
    for v in (CA4_UNIT, full_square((0, 1), (0, 1, 2))):
        alg = UnitAlgebra(v)
        for m in range(alg.top + 1):
            x = alg.subset(m)
            for i in v.window:
                assert alg.subset(alg.cyl_mask(i, m)) == frozenset(
                    g for g in v for f in x if f.dropped(i) == g.dropped(i)
                )
        assert alg.subset(alg.diag_mask(0, 1)) == frozenset(f for f in v if f[0] == f[1])
        assert alg.diag_mask(1, 1) == alg.top == (1 << len(v)) - 1


# `cyl_mask` on grid carriers against a loop over cylinder blocks built from
# the coordinates by definition.
GRID_ALGEBRAS = {f"mapped-{n}": MappedUnitAlgebra(n) for n in (2, 3, 4)}
GRID_ALGEBRAS.update(
    (f"square-w{w}-b{b}", UnitAlgebra(full_square(range(w), range(b))))
    for w in (1, 2, 3, 4)
    for b in (1, 2, 3)
)


def alias_bits(alg):
    """The points whose value tuple repeats an earlier point's, as p' of the
    mapped algebra repeats the identity's."""
    first = {}
    return sum(1 << k for k, c in enumerate(alg._coords) if first.setdefault(c, k) != k)


def block_cyl(alg, i, x):
    """c_i x on one lane: the union of the blocks, the points that agree off
    coordinate i, of the points of x."""
    p = alg.indices.index(i)
    keys = [c[:p] + c[p + 1:] for c in alg._coords]
    met = {keys[k] for k in range(len(keys)) if x >> k & 1}
    return sum(1 << k for k, key in enumerate(keys) if key in met)


@pytest.mark.parametrize("name", sorted(GRID_ALGEBRAS))
@given(data=st.data())
def test_grid_path_matches_block_loop(name, data):
    alg = GRID_ALGEBRAS[name]
    x = data.draw(st.integers(min_value=0, max_value=alg.top))
    alias = alias_bits(alg)
    for m in {x, x | alias, x & ~alias}:
        for i in alg.indices:
            assert alg.cyl_mask(i, m) == block_cyl(alg, i, m)


@pytest.mark.parametrize("name", sorted(GRID_ALGEBRAS))
@settings(deadline=None)
@given(data=st.data())
def test_lane_fold_matches_per_point_loop(name, data):
    """A lane view's cylinders on a grid, every lane at once, against the
    per-point block loop lane by lane, with the alias bits as drawn, set
    and cleared.
    CA2-CA4 and CA7 also hold under an identity cylinder, so the law checks
    alone would not catch a wrong fold."""
    alg = GRID_ALGEBRAS[name]
    lanes = alg.lanes(data.draw(st.sampled_from((1, 8, 9, 13, 64))))
    drawn = data.draw(st.lists(st.integers(0, alg.top), min_size=lanes.count, max_size=lanes.count))
    alias = alias_bits(alg)
    for masks in {tuple(drawn), tuple(m | alias for m in drawn), tuple(m & ~alias for m in drawn)}:
        x = lanes.pack(list(masks))
        for i in alg.indices:
            got = lanes.cyl_mask(i, x)
            assert [lanes.lane(got, k) for k in range(lanes.count)] == [block_cyl(alg, i, m) for m in masks]


def test_mapped_extra_point_joins_the_identity_line():
    alg = MappedUnitAlgebra(3)
    p_prime = alg.mask({P_PRIME})
    for i in alg.indices:
        line = alg.cyl_mask(i, alg.mask({alg.identity}))
        assert line & p_prime and alg.cyl_mask(i, p_prime) == line


@pytest.mark.parametrize("count", [1, 9], ids=["algebra", "lanes-9"])
@pytest.mark.parametrize("n", [2, 3, 4])
def test_extra_point_is_the_identity_under_another_label(n, count):
    """p' has the identity's coordinates, so, in every lane, both lie on each
    d_ii and on no d_ij with i != j, and both have the same cylinders.  Each
    n has one mapped algebra."""
    assert MappedUnitAlgebra(n) is MappedUnitAlgebra(n)
    alg = MappedUnitAlgebra(n)
    view = alg.lanes(count)
    p_prime, identity = view.each(alg.mask({P_PRIME})), view.each(alg.mask({alg.identity}))
    for i in alg.indices:
        for j in alg.indices:
            on = view.diag_mask(i, j)
            expected = (p_prime | identity) if i == j else 0
            assert on & (p_prime | identity) == expected
        assert view.cyl_mask(i, p_prime) == view.cyl_mask(i, identity)


SQ33 = full_square((0, 1), range(3))
NON_GRID_UNITS = {
    "square-minus-one": Unit(SQ33.window, SQ33.sequences[:4] + SQ33.sequences[5:]),
    # Four sequences ending in (1, 1): the cell count of a 2x2 grid.
    "grid-sized": unit((0, 1), [(0, 0), (0, 1), (0, 2), (1, 1)]),
    "square-over-1-2": full_square((0, 1), (1, 2)),
}


@pytest.mark.parametrize("name", sorted(NON_GRID_UNITS))
def test_non_grid_unit_takes_block_path(name):
    v = NON_GRID_UNITS[name]
    alg = UnitAlgebra(v)
    for m in range(0, alg.top + 1, 7):
        x = alg.subset(m)
        for i in v.window:
            assert alg.subset(alg.cyl_mask(i, m)) == frozenset(
                g for g in v for f in x if f.dropped(i) == g.dropped(i)
            )


GRID_2X2 = tuple(product(range(2), repeat=2))
# A grid carrier with an extra point p at the coordinates of (0, 1), listed
# first, so that the grid point (0, 1) is the alias.
PINNED_FIRST = FiniteAlgebra(("p",) + GRID_2X2, (0, 1), ((0, 1),) + GRID_2X2)


def test_pinned_bit_not_last_takes_block_path():
    alg = PINNED_FIRST
    # p shares the cylinders of (0, 1): c0{p} = {p, (0, 1), (1, 1)}.
    assert alg.subset(alg.cyl_mask(0, alg.mask({"p"}))) == {"p", (0, 1), (1, 1)}
    assert alg.subset(alg.cyl_mask(1, alg.mask({(0, 0)}))) == {"p", (0, 0), (0, 1)}


@st.composite
def carriers(draw) -> FiniteAlgebra:
    """A carrier of at most 90 value tuples over a window of 1 to 3 indices
    and a base of 1 to 4, with repeats anywhere: half of them a grid in
    order with a few cells dropped and repeated, where many classes share a
    shape, the others tuples in any order."""
    d, base = draw(st.integers(1, 3)), draw(st.integers(1, 4))
    grid = list(product(range(base), repeat=d))
    if draw(st.booleans()):
        dropped = draw(st.sets(st.sampled_from(grid), max_size=3))
        coords = [c for c in grid if c not in dropped]
        for c in draw(st.lists(st.sampled_from(grid), max_size=min(6, 90 - len(coords)))):
            coords.insert(draw(st.integers(0, len(coords))), c)
    else:
        coords = draw(st.lists(st.sampled_from(grid), max_size=90))
    return FiniteAlgebra(range(len(coords)), range(d), coords)


@settings(deadline=None, max_examples=500)
@given(alg=carriers(), data=st.data())
def test_cylinders_on_arbitrary_carriers(alg, data):
    """Cylinders on carriers of any value tuples, so that an alias need not
    be last, one point may have several and a shape may be shared by one
    class or by many, against the definition on every lane, with no bit
    above `top`."""
    count = data.draw(st.sampled_from((1, 2, 9, 64)))
    lanes = alg.lanes(count)
    masks = data.draw(st.lists(st.integers(0, alg.top), min_size=count, max_size=count))
    x = lanes.pack(masks)
    for i in alg.indices:
        got = lanes.cyl_mask(i, x)
        assert got & ~lanes.top == 0
        assert [lanes.lane(got, k) for k in range(count)] == [block_cyl(alg, i, m) for m in masks]


def test_unit_algebra_cache_is_bounded():
    maxsize = UnitAlgebra.cache_info().maxsize
    assert maxsize is not None
    for n in range(maxsize + 3):
        UnitAlgebra(unit((0, 1), [(n, n)]))
    assert UnitAlgebra.cache_info().currsize <= maxsize


def test_equal_units_share_one_algebra():
    v = unit_from_dict({"window": [0, 1], "sequences": [[0, 1], [1, 1]]})
    assert UnitAlgebra(v) is UnitAlgebra(unit((0, 1), [(1, 1), (0, 1)]))


@pytest.mark.parametrize("v", [CA4_UNIT, full_square((0, 1, 2), (0, 1)), unit((0, 1, 2), [(0, 1, 2), (2, 1, 0), (1, 1, 0)])])
def test_reused_unit_algebra_matches_a_fresh_one(v):
    UnitAlgebra(v).cyl_mask(v.window[0], 1)  # fill the cached algebra's blocks
    reused = UnitAlgebra(v)
    fresh = FiniteAlgebra(v.sequences, v.window, (f.values for f in v))
    assert reused.labels == fresh.labels and reused.top == fresh.top
    for i in v.window:
        for j in v.window:
            assert reused.diag_mask(i, j) == fresh.diag_mask(i, j)
        for m in range(fresh.top + 1):
            assert reused.cyl_mask(i, m) == fresh.cyl_mask(i, m)


SQ5 = full_square(range(5), range(2))
# The base-2 square over window 5 without its first sequence: 31 points, whose
# cylinder classes along each index are 15 pairs of one shape and one point.
SQUARE5_MINUS_FIRST = UnitAlgebra(Unit(SQ5.window, SQ5.sequences[1:]))


VIEW_ALGEBRAS = dict(
    GRID_ALGEBRAS,
    **{name: UnitAlgebra(v) for name, v in NON_GRID_UNITS.items()},
    **{"pinned-first": PINNED_FIRST, "square5-minus-first": SQUARE5_MINUS_FIRST},
)


@pytest.mark.parametrize("name", sorted(VIEW_ALGEBRAS))
@settings(deadline=None, max_examples=40)
@given(data=st.data())
def test_lane_view_matches_the_definition(name, data):
    """On a view of K lanes, each lane of a cylinder is the cylinder of that
    lane by definition, no bit outside `top` is set, `failing` lists exactly
    the lanes that are not empty, and each lane of a diagonal is the
    algebra's diagonal.  Each drawn lane is also checked between neighbour
    lanes that are `top`, so that a carry into or out of a lane shows."""
    alg = VIEW_ALGEBRAS[name]
    count = data.draw(st.sampled_from((1, 2, 7, 8, 9, 13, 64)))
    lanes = alg.lanes(count)
    drawn = data.draw(st.lists(st.integers(0, alg.top), min_size=count, max_size=count))
    pick = data.draw(st.integers(0, count - 1))
    between_tops = [alg.top] * pick + drawn[pick:pick + 1] + [alg.top] * (count - pick - 1)
    stride = 8 * (len(alg.labels) // 8 + 1)
    for masks in (drawn, between_tops):
        x = lanes.pack(masks)
        assert x == sum(m << k * stride for k, m in enumerate(masks))
        assert [lanes.lane(x, k) for k in range(count)] == masks
        assert lanes.failing(x) == [k for k, m in enumerate(masks) if m]
        for i in alg.indices:
            got = lanes.cyl_mask(i, x)
            assert got & ~lanes.top == 0
            assert [lanes.lane(got, k) for k in range(count)] == [block_cyl(alg, i, m) for m in masks]
            assert lanes.failing(got) == [k for k, m in enumerate(masks) if m]
    for i in alg.indices:
        for j in alg.indices:
            d = lanes.diag_mask(i, j)
            assert d & ~lanes.top == 0
            assert [lanes.lane(d, k) for k in range(count)] == [alg.diag_mask(i, j)] * count


def class_shapes(alg, i):
    """The distinct shapes of the classes along i of the points that are
    not aliases, each class moved down to bit 0 from its least point."""
    p = alg.indices.index(i)
    first, blocks = {}, {}
    for k, c in enumerate(alg._coords):
        if first.setdefault(c, k) == k:
            key = c[:p] + c[p + 1:]
            blocks[key] = blocks.get(key, 0) | 1 << k
    return {block >> (block & -block).bit_length() - 1 for block in blocks.values()}


@pytest.mark.parametrize("count", [9, 4096])
@pytest.mark.parametrize("name", sorted(VIEW_ALGEBRAS))
def test_each_class_shape_folds_once(name, count, monkeypatch):
    """A lane cylinder makes one whole-mask fold per distinct class shape,
    whether one class has the shape or many, on every carrier and lane
    count."""
    alg = VIEW_ALGEBRAS[name]
    folds = []

    def fold(offsets, least, x, fold=semantics._fold):
        folds.append(offsets)
        return fold(offsets, least, x)

    monkeypatch.setattr(semantics, "_fold", fold)
    lanes = alg.lanes(count)
    masks = [(m * 0x9E3779B1) & alg.top for m in range(count)]
    x = lanes.pack(masks)
    for i in alg.indices:
        folds.clear()
        got = lanes.cyl_mask(i, x)
        assert len(folds) == len(class_shapes(alg, i))
        for k in (0, 1, count - 1):
            assert lanes.lane(got, k) == block_cyl(alg, i, masks[k])


def offset_fold(offsets, least, x):
    """A fold by its definition, on one lane: OR the shifts of x by every
    offset of the shape onto the least points, keep those points and spread
    them back by the same offsets."""
    line = x
    for t in offsets:
        line |= x >> t
    line &= least
    out = line
    for t in offsets:
        out |= line << t
    return out


@st.composite
def fold_shapes(draw):
    """The offsets above its least point of a class shape: an arithmetic
    one of 1 to 9 points with a random step, or any set of offsets."""
    if draw(st.booleans()):
        k, s = draw(st.integers(1, 9)), draw(st.integers(1, 12))
        return tuple(range(s, k * s, s))
    return tuple(sorted(draw(st.sets(st.integers(1, 40), max_size=8))))


@settings(deadline=None, max_examples=300)
@given(offsets=fold_shapes(), data=st.data())
def test_fold_plans_match_the_offset_definition(offsets, data):
    """`_fold` under the plan `_fold_plan` makes, the log-step form for an
    arithmetic shape of four or more points and the per-offset form for any
    other, gives in every lane the per-offset OR of the definition, and sets
    no bit above `top`."""
    plan = semantics._fold_plan(offsets)
    step = offsets[0] if offsets else 1
    arithmetic = offsets == tuple(range(step, len(offsets) * step + 1, step))
    assert plan[0] == (arithmetic and len(offsets) >= 3) and (plan[0] or plan[1] == offsets)
    span = (offsets[-1] if offsets else 0) + 1
    n = data.draw(st.integers(span, span + 20))
    # Least points whose classes fit inside the lane's n points.
    least = sum(1 << p for p in data.draw(st.sets(st.integers(0, n - span))))
    alg = FiniteAlgebra(range(n), (0,), [(p,) for p in range(n)])
    lanes = alg.lanes(data.draw(st.sampled_from((1, 2, 9, 64))))
    masks = data.draw(st.lists(st.integers(0, alg.top), min_size=lanes.count, max_size=lanes.count))
    got = semantics._fold(plan, lanes.each(least), lanes.pack(masks))
    assert got & ~lanes.top == 0
    assert [lanes.lane(got, k) for k in range(lanes.count)] == [offset_fold(offsets, least, m) for m in masks]


@pytest.mark.parametrize("step", [1, 3, 16, 64])
@pytest.mark.parametrize("k", range(1, 10))
def test_arithmetic_shapes_fold_in_log_steps(k, step):
    """A k-point arithmetic shape is planned with ceil(log2 k) shifts each
    way: doubling steps that add up to its greatest offset when k >= 4, and
    its offsets, as many, when k <= 3."""
    offsets = tuple(range(step, k * step, step))
    doubling, steps = semantics._fold_plan(offsets)
    assert len(steps) == (k - 1).bit_length()
    if k >= 4:
        assert doubling and sum(steps) == (k - 1) * step
    else:
        assert (doubling, steps) == (False, offsets)


def test_grid_classes_fold_in_log_steps():
    """Every class of a grid, and of the mapped algebra, is an arithmetic
    shape, so from four points on it folds in log steps: the window-4 mapped
    algebra with 2 shifts each way (4, not the 6 of the per-offset fold),
    and the window-3 base-5 square with 3 each way (6, not 8)."""
    for alg, shifts in ((MappedUnitAlgebra(4), 2), (UnitAlgebra(full_square(range(3), range(5))), 3)):
        for i in alg.indices:
            _, folds = alg._cyl_plan(i)
            assert [(doubling, len(steps)) for (doubling, steps), _ in folds] == [(True, shifts)]


def test_checks_leave_the_algebra_holding_no_view(monkeypatch):
    """Each check builds its lane views and drops them: once a loop of
    checks at many sample counts is done, no view it used is alive."""
    refs = []

    def chunks(alg, instances, names, views, chunks=semantics._chunks):
        for low, lanes, masks in chunks(alg, instances, names, views):
            refs.append(weakref.ref(lanes))
            yield low, lanes, masks

    monkeypatch.setattr(semantics, "_chunks", chunks)
    alg = MappedUnitAlgebra(4)
    for samples in range(1, 41):
        assert semantics.check_ca_axioms(alg, samples=samples).ok
    gc.collect()
    assert len(refs) >= 80 and not any(ref() for ref in refs)


@pytest.mark.parametrize("name", sorted(n for n, alg in VIEW_ALGEBRAS.items() if len(alg.indices) >= 2))
def test_views_share_the_one_lane_diagonals(name):
    """Each one-lane diagonal is built once per algebra: a view reads the
    algebra's and only spreads it over its lanes."""
    base = VIEW_ALGEBRAS[name]
    alg = FiniteAlgebra(base.labels, base.indices, base._coords)
    i, j = alg.indices[:2]
    one = alg.diag_mask(i, j)
    view = alg.lanes(5)
    assert view._lines is alg._lines and list(alg._lines) == [(i, j)]
    # A view that built a diagonal from the coordinates would fail here.
    view._coords = None
    assert view.diag_mask(j, i) == view.each(one)
    assert [view.lane(view.diag_mask(i, j), k) for k in range(5)] == [one] * 5


def test_each_on_one_lane_is_the_mask_itself():
    alg = UnitAlgebra(CA4_UNIT)
    assert alg.count == 1 and alg.each(0b101) == 0b101
    assert alg.lanes(3).each(0b101) == 0b101 | 0b101 << 8 | 0b101 << 16


# Carriers on both sides of the one-byte lane stride: 3 and 7 points take
# one byte a lane, 8 points two bytes and the 257-point mapped carrier 33.
CUBE = full_square((0, 1, 2), (0, 1))
PACK_ALGEBRAS = {
    "points-3": UnitAlgebra(CA4_UNIT),
    "points-7": UnitAlgebra(Unit(CUBE.window, CUBE.sequences[1:])),
    "points-8": UnitAlgebra(CUBE),
    "mapped-4": MappedUnitAlgebra(4),
}


def per_instance_pack(alg, masks):
    """The packing as one Python-level `to_bytes` per mask: the reference
    for `pack`, which runs the same conversion through C-level `map`."""
    w = alg.stride // 8
    return int.from_bytes(b"".join([m.to_bytes(w, "little") for m in masks]), "little")


def sample_masks(alg, count, seed):
    rng = random.Random(seed)
    return [rng.getrandbits(len(alg.labels)) for _ in range(count)]


def test_pack_strides():
    assert [PACK_ALGEBRAS[name].stride for name in sorted(PACK_ALGEBRAS)] == [264, 8, 8, 16]


@pytest.mark.parametrize("feed", [list, iter], ids=["list", "iterator"])
@pytest.mark.parametrize("count", [1, 2, 9])
@pytest.mark.parametrize("name", sorted(PACK_ALGEBRAS))
def test_pack_puts_each_mask_in_its_lane(name, count, feed):
    alg = PACK_ALGEBRAS[name]
    lanes = alg.lanes(count)
    masks = sample_masks(alg, count, name)
    # The full and the empty mask fill and clear a whole lane.
    masks[0] = alg.top
    if count > 1:
        masks[-1] = 0
    x = lanes.pack(feed(masks))
    assert x == per_instance_pack(alg, masks) == sum(m << k * alg.stride for k, m in enumerate(masks))
    assert [lanes.lane(x, k) for k in range(count)] == masks


@pytest.mark.parametrize("size", [1, 4, 8, 9, 11])
@pytest.mark.parametrize("name", sorted(PACK_ALGEBRAS))
def test_chunks_match_the_per_instance_packing(name, size, monkeypatch):
    """Four lanes a chunk: 8 instances fill two chunks, 9 and 11 leave a
    partial last chunk with a view of its own.  Each slot's lane mask is
    the per-instance packing of that slot over the chunk."""
    alg = PACK_ALGEBRAS[name]
    monkeypatch.setattr(semantics, "_LANE_BITS", 4 * alg.stride)
    instances = list(zip(*[iter(sample_masks(alg, 3 * size, size))] * 3))
    views = {}
    chunks = list(semantics._chunks(alg, instances, range(3), views))
    assert [low for low, _, _ in chunks] == list(range(0, size, 4))
    for low, lanes, masks in chunks:
        part = instances[low:low + 4]
        assert lanes.count == len(part) and views[len(part)] is lanes
        assert masks == {k: per_instance_pack(alg, [t[k] for t in part]) for k in range(3)}
        assert [[lanes.lane(masks[k], lane) for k in range(3)] for lane in range(len(part))] == list(map(list, part))


def test_chunks_at_the_lane_cap():
    """The mapped witness's 1,000 sampled subsets on its 257-point carrier:
    992 lanes fit in `_LANE_BITS`, so a full chunk and a partial one of 8."""
    alg = MappedUnitAlgebra(4)
    instances = [(m,) for m in sample_masks(alg, 1000, 4)]
    chunks = list(semantics._chunks(alg, instances, "x", {}))
    assert [(low, lanes.count) for low, lanes, _ in chunks] == [(0, 992), (992, 8)]
    for low, lanes, masks in chunks:
        assert masks == {"x": per_instance_pack(alg, [m for m, in instances[low:low + lanes.count]])}
