"""The bitmask carrier order and the mask operations behind the set API."""

from hypothesis import given, strategies as st

from cylset.semantics import P_PRIME, MappedUnitAlgebra, UnitAlgebra, all_subsets
from cylset.units import full_square, unit, unit_from_dict, unit_to_dict

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
    assert alg.labels == tuple(sorted(alg.grid)) + (P_PRIME,)
    assert len(alg.labels) == 3 ** 3 + 1
    assert alg.labels[alg.mask({alg.identity}).bit_length() - 1] == (0, 1, 2)


@given(st.integers(min_value=0, max_value=(1 << 8) - 1))
def test_mask_round_trip(m):
    alg = UnitAlgebra(full_square((0, 1, 2), (0, 1)))
    assert alg.mask(alg.subset(m)) == m


def test_mask_ops_match_set_ops():
    for v in (CA4_UNIT, full_square((0, 1), (0, 1, 2))):
        alg = UnitAlgebra(v)
        for x in all_subsets(alg):
            for i in v.window:
                assert alg.subset(alg.cyl_mask(i, alg.mask(x))) == alg.cyl(i, x)
                assert alg.cyl(i, x) == frozenset(
                    g for g in v for f in x if f.dropped(i) == g.dropped(i)
                )
        assert alg.diag(0, 1) == frozenset(f for f in v if f[0] == f[1])
        assert alg.diag_mask(1, 1) == alg.top == (1 << len(v)) - 1
