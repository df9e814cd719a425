"""The bitmask carrier order and the mask operations of `FiniteAlgebra`."""

from itertools import product

import pytest
from hypothesis import given, settings, strategies as st

from cylset.semantics import P_PRIME, FiniteAlgebra, MappedUnitAlgebra, UnitAlgebra, _Lanes
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


# The shift path of `cyl_mask` against the per-block loop over `_cyl_blocks`.
GRID_ALGEBRAS = {f"mapped-{n}": MappedUnitAlgebra(n) for n in (2, 3, 4)}
GRID_ALGEBRAS.update(
    (f"square-w{w}-b{b}", UnitAlgebra(full_square(range(w), range(b))))
    for w in (1, 2, 3, 4)
    for b in (1, 2, 3)
)


def block_cyl(alg, i, x):
    blocks = alg._cyl_blocks(i)
    out = 0
    for k in range(x.bit_length()):
        if x >> k & 1:
            out |= blocks[k]
    return out


@pytest.mark.parametrize("name", sorted(GRID_ALGEBRAS))
@given(data=st.data())
def test_grid_path_matches_block_loop(name, data):
    alg = GRID_ALGEBRAS[name]
    assert alg._grid is not None
    x = data.draw(st.integers(min_value=0, max_value=alg.top))
    pinned = alg._pinned
    for m in {x, x | pinned, x & ~pinned}:
        for i in alg.indices:
            assert alg.cyl_mask(i, m) == block_cyl(alg, i, m)


@pytest.mark.parametrize("name", sorted(GRID_ALGEBRAS))
@settings(deadline=None)
@given(data=st.data())
def test_lane_fold_matches_per_point_loop(name, data):
    """The fold with every shift and mask widened to the lane field, against
    the per-point lane loop, with the pinned fields as drawn, set and
    cleared.  CA2-CA4 and CA7 also hold under an identity cylinder, so the
    law checks alone would not catch a wrong fold."""
    alg = GRID_ALGEBRAS[name]
    lanes = _Lanes(alg, data.draw(st.sampled_from((1, 8, 9, 13, 64))))
    x = lanes.pack(data.draw(st.lists(st.integers(0, alg.top), min_size=lanes.count, max_size=lanes.count)))
    pinned = lanes.pack([alg._pinned] * lanes.count)
    for m in {x, x | pinned, x & ~pinned}:
        for i in alg.indices:
            assert lanes.cyl_mask(i, m) == lanes._class_cyl(i, m)


def test_mapped_extra_point_joins_the_identity_line():
    alg = MappedUnitAlgebra(3)
    p_prime = alg.mask({P_PRIME})
    for i in alg.indices:
        line = alg.cyl_mask(i, alg.mask({alg.identity}))
        assert line & p_prime and alg.cyl_mask(i, p_prime) == line


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
    assert alg._grid is None
    for m in range(0, alg.top + 1, 7):
        x = alg.subset(m)
        for i in v.window:
            assert alg.subset(alg.cyl_mask(i, m)) == frozenset(
                g for g in v for f in x if f.dropped(i) == g.dropped(i)
            )


GRID_2X2 = tuple(product(range(2), repeat=2))
# A grid carrier with its pinned point, relabelled onto (0, 1), listed first.
PINNED_FIRST = FiniteAlgebra(("p",) + GRID_2X2, (0, 1), ((0, 1),) + GRID_2X2, pinned=1)


def test_pinned_bit_not_last_takes_block_path():
    alg = PINNED_FIRST
    assert alg._grid is None
    # p shares the cylinders of (0, 1): c0{p} = {p, (0, 1), (1, 1)}.
    assert alg.subset(alg.cyl_mask(0, alg.mask({"p"}))) == {"p", (0, 1), (1, 1)}
    assert alg.subset(alg.cyl_mask(1, alg.mask({(0, 0)}))) == {"p", (0, 0), (0, 1)}


@pytest.mark.parametrize("name", sorted(NON_GRID_UNITS) + ["pinned-first"])
def test_non_grid_lanes_take_per_point_loop(name, monkeypatch):
    alg = PINNED_FIRST if name == "pinned-first" else UnitAlgebra(NON_GRID_UNITS[name])
    calls = []

    def counted(self, i, x, class_cyl=_Lanes._class_cyl):
        calls.append(i)
        return class_cyl(self, i, x)

    monkeypatch.setattr(_Lanes, "_class_cyl", counted)
    lanes = _Lanes(alg, 9)
    x = lanes.pack([m % (alg.top + 1) for m in range(0, 27, 3)])
    for i in alg.indices:
        lanes.cyl_mask(i, x)
    assert calls == list(alg.indices)


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
