import random
from collections import Counter

import pytest
from hypothesis import example, given, settings, strategies as st

from cylset.semantics import (
    CheckReport,
    FiniteAlgebra,
    MappedUnitAlgebra,
    P_PRIME,
    UnitAlgebra,
    _cover,
    check_ca_axioms,
    check_eq_laws,
    evaluate,
    evaluate_masks,
    evaluation_from_dict,
    evaluation_to_dict,
    satisfies,
)
from cylset.terms import (
    And,
    Cyl,
    Diag,
    Not,
    ONE,
    Or,
    Term,
    Var,
    ZERO,
    atom_term,
    parse_term,
    twin_term,
)
from cylset.units import ClassTag, classify, enumerate_units, full_square, seq, unit

SQ22 = full_square((0, 1), (0, 1))
SQ = UnitAlgebra(SQ22)
F00 = seq((0, 1), (0, 0))
F01 = seq((0, 1), (0, 1))
F10 = seq((0, 1), (1, 0))
F11 = seq((0, 1), (1, 1))

# The commutation counterexample: c0 c1 {00} != c1 c0 {00} here.
CA4_UNIT = unit((0, 1), [(0, 0), (1, 0), (1, 1)])


def subsets_of(v):
    return st.frozensets(st.sampled_from(sorted(v.sequences)) if len(v) else st.nothing())


class TestDiagonal:
    def test_square(self):
        assert SQ.subset(SQ.diag_mask(0, 1)) == {F00, F11}

    def test_equal_indices_give_unit(self):
        assert SQ.subset(SQ.diag_mask(0, 0)) == SQ22.as_set()
        assert SQ.subset(SQ.diag_mask(1, 1)) == SQ22.as_set()
        assert MappedUnitAlgebra(2).diag_mask(1, 1) == MappedUnitAlgebra(2).top

    def test_empty_diagonal(self):
        assert UnitAlgebra(unit((0, 1), [(0, 1)])).diag_mask(0, 1) == 0

    def test_distinct_off_window_rejected(self):
        with pytest.raises(ValueError):
            SQ.diag_mask(0, 5)

    def test_equal_off_window_rejected(self):
        with pytest.raises(ValueError, match=r"off-window index 7: the window is \(0, 1\)"):
            SQ.diag_mask(7, 7)

    @pytest.mark.parametrize("view", [
        # A fresh algebra, not one that the cache shares with other tests.
        lambda: UnitAlgebra.__wrapped__(full_square((0, 1, 2), (0, 1, 2))),
        lambda: MappedUnitAlgebra.__wrapped__(3),
        lambda: MappedUnitAlgebra.__wrapped__(3).lanes(20),
    ], ids=["unit", "mapped", "lanes"])
    def test_reversed_pair_reads_the_same_cached_diagonal(self, view):
        """d_ij = d_ji, so both orders share one cache entry and one int."""
        a = view()
        for i, j in ((0, 1), (2, 0), (1, 2)):
            assert a.diag_mask(j, i) is a.diag_mask(i, j)
        assert len(a._diags) == 3


class TestCylindrify:
    def test_square_example(self):
        assert SQ.subset(SQ.cyl_mask(0, SQ.mask({F00}))) == {F00, F10}

    def test_empty_set(self):
        assert SQ.cyl_mask(0, 0) == 0

    def test_whole_unit_fixed(self):
        assert SQ.subset(SQ.cyl_mask(1, SQ.mask(SQ22.as_set()))) == SQ22.as_set()

    def test_off_window_index_rejected(self):
        with pytest.raises(ValueError):
            SQ.cyl_mask(5, SQ.mask({F00}))

    def test_non_subset_rejected(self):
        # A set enters the algebra through `mask`, which refuses foreign members.
        with pytest.raises(ValueError, match="not in the carrier"):
            UnitAlgebra(unit((0, 1), [(0, 0)])).mask({F11})


class TestEvaluate:
    def test_cylinder_of_variable(self):
        iota = {0: frozenset({F00})}
        assert evaluate(parse_term("c0 x0"), SQ22, iota) == {F00, F10}

    def test_escape_region_is_everything_on_square(self):
        assert evaluate(parse_term("c0 -d01"), SQ22, {}) == SQ22.as_set()

    def test_contradiction_is_empty(self):
        iota = {0: frozenset({F00})}
        assert evaluate(parse_term("x0 . -x0"), SQ22, iota) == frozenset()

    def test_off_window_rejected(self):
        with pytest.raises(ValueError, match="off-window"):
            evaluate(parse_term("c5 x0"), SQ22, {0: frozenset()})

    def test_unassigned_variable_rejected(self):
        with pytest.raises(ValueError, match="unassigned"):
            evaluate(parse_term("x1"), SQ22, {0: frozenset()})

    def test_off_window_equal_diagonal_rejected(self):
        # d77 denotes the top over any window, so only the walk can catch it.
        with pytest.raises(ValueError, match="off-window"):
            evaluate(parse_term("d77"), SQ22, {})
        with pytest.raises(ValueError, match="off-window"):
            satisfies(SQ22, F00, {}, parse_term("d77"))
        with pytest.raises(ValueError, match="off-window"):
            evaluate_masks(MappedUnitAlgebra(2), parse_term("d77"), {})
        with pytest.raises(ValueError, match=r"off-window index 7: the window is \(0, 1\)"):
            evaluate_masks(MappedUnitAlgebra(2).lanes(3), parse_term("d77"), {})

    @pytest.mark.parametrize(
        "text,message",
        [
            ("x0 . c5 x0 . c7 x0", "off-window index 5:"),
            ("d06 + d55", "off-window index 6:"),
            ("x2 + x1", "unassigned variable x2$"),
            ("x3 . d66", "unassigned variable x3$"),
            ("d66 . x3", "off-window index 6:"),
        ],
    )
    def test_error_names_first_offender(self, text, message):
        with pytest.raises(ValueError, match=message):
            evaluate(parse_term(text), SQ22, {0: frozenset()})

    def test_foreign_sequences_rejected(self):
        with pytest.raises(ValueError, match="subset"):
            evaluate(parse_term("x0"), unit((0, 1), [(0, 0)]), {0: frozenset({F11})})

    @given(x=subsets_of(SQ22), y=subsets_of(SQ22))
    def test_boolean_structure(self, x, y):
        iota = {0: x, 1: y}
        assert evaluate(parse_term("-x0"), SQ22, iota) == SQ22.as_set() - x
        assert evaluate(parse_term("x0 . x1"), SQ22, iota) == x & y
        assert evaluate(parse_term("x0 + x1"), SQ22, iota) == x | y

    @given(x=subsets_of(SQ22), y=subsets_of(SQ22))
    def test_monotone_in_evaluation(self, x, y):
        t = parse_term("c0(x0 . d01) + c1 x0")
        small = evaluate(t, SQ22, {0: x & y})
        large = evaluate(t, SQ22, {0: x | y})
        assert small <= large

    def test_self_xor_is_empty_in_every_unit(self):
        from cylset.terms import Var, xor_term

        t = xor_term(Var(0), Var(0))
        for v in enumerate_units((0, 1), 2, 4):
            for k in range(1 << len(v)):
                x = frozenset(s for b, s in enumerate(v.sequences) if k >> b & 1)
                assert evaluate(t, v, {0: x}) == frozenset()


class TestSatisfies:
    def test_diagonal_point(self):
        assert satisfies(SQ22, F00, {0: frozenset({F00})}, parse_term("d01"))

    def test_singleton_atom_witness(self):
        v = unit((0, 1), [(0, 0)])
        w = F00
        assert satisfies(v, w, {0: frozenset({w})}, atom_term(1, (1,)))

    def test_zero_never_holds(self):
        assert not satisfies(SQ22, F00, {}, parse_term("0"))

    def test_focus_must_belong(self):
        with pytest.raises(ValueError):
            satisfies(unit((0, 1), [(0, 0)]), F11, {}, parse_term("1"))


class TestMappedAlgebra:
    def test_cylinder_of_identity_point(self):
        alg = MappedUnitAlgebra(2)
        a = alg.mask({alg.identity})
        got = evaluate_masks(alg, parse_term("c0 x0"), {0: a})
        assert alg.subset(got) == frozenset({(0, 1), (1, 1), P_PRIME})

    def test_extra_point_same_cylinders(self):
        alg = MappedUnitAlgebra(2)
        a = alg.mask({alg.identity})
        b = alg.mask({P_PRIME})
        for i in (0, 1):
            t = parse_term(f"c{i} x0")
            assert evaluate_masks(alg, t, {0: a}) == evaluate_masks(alg, t, {0: b})

    def test_twin_value_is_extra_point(self):
        alg = MappedUnitAlgebra(2)
        got = evaluate_masks(alg, twin_term(), {0: alg.mask({alg.identity})})
        assert alg.subset(got) == frozenset({P_PRIME})

    def test_extra_point_avoids_diagonals(self):
        alg = MappedUnitAlgebra(3)
        p_prime = alg.mask({P_PRIME})
        for i in range(3):
            for j in range(3):
                if i != j:
                    assert not alg.diag_mask(i, j) & p_prime
            assert alg.diag_mask(i, i) & p_prime

    def test_index_bound(self):
        alg = MappedUnitAlgebra(2)
        with pytest.raises(ValueError):
            evaluate_masks(alg, parse_term("c2 x0"), {0: 0})

    @pytest.mark.parametrize("n", [2, 3])
    def test_agrees_with_square_cylindrification(self, n):
        # On subsets of the grid, the mapped cylinder restricted to the grid
        # is the square's cylinder, and the extra point joins exactly when
        # the identity sequence does.
        alg = MappedUnitAlgebra(n)
        square = UnitAlgebra(full_square(tuple(range(n)), range(n)))
        to_seq = {q: seq(tuple(range(n)), q) for q in alg.labels if q is not P_PRIME}
        p_prime = alg.mask({P_PRIME})
        rng = random.Random(7)
        for x in (rng.getrandbits(len(alg.labels)) for _ in range(40)):
            grid_x = x & ~p_prime
            square_x = square.mask(to_seq[q] for q in alg.subset(grid_x))
            for i in range(n):
                mapped = alg.subset(alg.cyl_mask(i, grid_x))
                plain = square.subset(square.cyl_mask(i, square_x))
                assert frozenset(to_seq[q] for q in mapped if q is not P_PRIME) == plain
                assert (P_PRIME in mapped) == (to_seq[alg.identity] in plain)


class TestAxiomChecker:
    def test_full_square_satisfies_all(self):
        alg = UnitAlgebra(SQ22)
        report = check_ca_axioms(alg)
        assert report.ok
        assert report.checked > 0

    def test_commutation_fails_on_crs_unit(self):
        alg = UnitAlgebra(CA4_UNIT)
        report = check_ca_axioms(alg)
        laws = {f.law for f in report.failures}
        assert laws == {"CA4"}
        f00 = seq((0, 1), (0, 0))
        witnessed = [f for f in report.failures if f.witness.get("x") == [str(f00)]]
        assert witnessed
        # The documented witness sets for X = {(0,0)}.
        x = alg.mask({f00})
        assert alg.subset(alg.cyl_mask(0, alg.cyl_mask(1, x))) == {f00, seq((0, 1), (1, 0))}
        assert alg.subset(alg.cyl_mask(1, alg.cyl_mask(0, x))) == CA4_UNIT.as_set()

    def test_mapped_algebra_satisfies_all(self):
        alg = MappedUnitAlgebra(2)
        report = check_ca_axioms(alg, samples=200, seed=3)
        assert report.ok

    def test_gs_units_satisfy_all_exhaustively(self):
        for v in enumerate_units((0, 1), 2, 16, ClassTag.GS):
            alg = UnitAlgebra(v)
            assert check_ca_axioms(alg).ok

    def test_three_index_gs_unit_with_composition_axiom(self):
        v = full_square((0, 1, 2), (0, 1))
        alg = UnitAlgebra(v)
        report = check_ca_axioms(alg, samples=40, seed=5)
        assert report.ok


class TestEquationLaws:
    def test_hold_on_all_small_units(self):
        for v in enumerate_units((0, 1), 2, 16):
            report = check_eq_laws(v)
            assert report.ok and report.exhaustive

    def test_hold_on_diag_closed_three_window_units(self):
        for v in enumerate_units((0, 1, 2), 2, 8, ClassTag.D):
            assert check_eq_laws(v).ok

    def test_subset_bound_under_cylinder(self):
        for x in range(SQ.top + 1):
            assert SQ.subset(x) <= SQ.subset(SQ.cyl_mask(0, x))

    def test_complement_of_cylinder_fixed(self):
        for x in range(SQ.top + 1):
            out = SQ.top ^ SQ.cyl_mask(0, x)
            assert SQ.cyl_mask(0, out) == out


# The window-3 unit of the six sequences 000 to 101.
SIX = unit((0, 1, 2), [(0, 0, 0), (0, 0, 1), (0, 1, 0), (0, 1, 1), (1, 0, 0), (1, 0, 1)])


class TestCoverage:
    """One rule picks the instances of every check: all of them up to the
    cap, else seeded samples, and `exhaustive` only in the first case."""

    def test_every_tuple_up_to_the_cap(self):
        tuples, full = _cover(4, 2, 16, 3, "t")
        assert full and list(tuples) == [(x, y) for x in range(4) for y in range(4)]
        tuples, full = _cover(5, 0, 1, 3, "t")
        assert full and list(tuples) == [()]

    @staticmethod
    def randrange_cover(n, arity, samples, tag):
        """The definition of the sampled tuples: one `randrange(n)` per slot
        of `random.Random(tag)`, slot by slot and tuple by tuple."""
        rng = random.Random(tag)
        return [tuple(rng.randrange(n) for _ in range(arity)) for _ in range(samples)]

    def test_seeded_samples_past_the_cap(self):
        tuples, full = _cover(5, 2, 24, 3, "t")
        assert not full
        assert list(tuples) == self.randrange_cover(5, 2, 3, "t")

    @pytest.mark.parametrize("samples", [0, 1, 500])
    @pytest.mark.parametrize("arity", [0, 1, 2, 3])
    @pytest.mark.parametrize(
        "n",
        [1, 3, 5, 6, (1 << 16) - 1, 1 << 16, (1 << 16) + 1, 1 << 257, 3 ** 50],
        ids=["1", "3", "5", "6", "2^16-1", "2^16", "2^16+1", "2^257", "3^50"],
    )
    def test_samples_are_one_randrange_per_slot(self, n, arity, samples):
        """The C-level rejection stream gives the tuples `randrange` gives,
        for one value, non-powers of two, powers of two and either side of
        one, and values wider than a machine word."""
        for tag in ("t", "subsets:0", "validity:3:17"):
            tuples, full = _cover(n, arity, n ** arity - 1, samples, tag)
            assert not full
            assert list(tuples) == self.randrange_cover(n, arity, samples, tag)

    def test_eq_laws_check_every_pair_on_six_sequences(self):
        # Eq3 and Eq4 range over all 64^2 pairs, for each of the 3 indices.
        report = check_eq_laws(SIX)
        assert (report.checked, report.exhaustive, report.ok) == (25350, True, True)
        assert report.notes == ""

    def test_eq_laws_sample_pairs_past_the_cap(self):
        v = unit((0, 1, 2), [f.values for f in SIX] + [(1, 1, 0)])
        report = check_eq_laws(v, samples=10, seed=1)
        assert report.ok and not report.exhaustive
        # Every one of 128 subsets for Eq2, Eq5 and Eq7, ten pairs for Eq3 and Eq4.
        assert report.checked == 3 + 128 * 3 + 10 * 3 + 10 * 3 + 128 * 3 + 3 + 128 * 6
        assert report.notes == "equations checked on every subset and 10 seeded pairs"

    def test_postulates_sample_subsets_past_the_cap(self):
        alg = MappedUnitAlgebra(3)
        report = check_ca_axioms(alg, samples=5, seed=2)
        assert report.ok and not report.exhaustive
        assert report.notes == "postulates spot-checked on 5 seeded subsets"
        assert check_ca_axioms(MappedUnitAlgebra(2), samples=5).exhaustive

# The law checker as one loop over instances, each checked on the algebra
# itself: the reference for the lane pass of `_check_laws`.
REFERENCE_CA = [
    ("CA0", "xy", lambda a, x, y: (
        x | y == y | x and x & (a.top ^ x) == 0 and a.top ^ (x & y) == (a.top ^ x) | (a.top ^ y)
    )),
    ("CA1", "i", lambda a, i: a.cyl_mask(i, 0) == 0),
    ("CA2", "xi", lambda a, i, x: x & a.cyl_mask(i, x) == x),
    ("CA3", "xyi", lambda a, i, x, y: a.cyl_mask(i, x & a.cyl_mask(i, y)) == a.cyl_mask(i, x) & a.cyl_mask(i, y)),
    ("CA4", "x,i<j", lambda a, i, j, x: a.cyl_mask(i, a.cyl_mask(j, x)) == a.cyl_mask(j, a.cyl_mask(i, x))),
    ("CA5", "i", lambda a, i: a.diag_mask(i, i) == a.top),
    ("CA6", "ijk", lambda a, i, j, k: a.diag_mask(i, j) == a.cyl_mask(k, a.diag_mask(i, k) & a.diag_mask(k, j))),
    ("CA7", "x,i!=j", lambda a, i, j, x: (
        a.cyl_mask(i, a.diag_mask(i, j) & x) & a.cyl_mask(i, a.diag_mask(i, j) & (a.top ^ x)) == 0
    )),
]
REFERENCE_EQ = [
    ("Eq1", "i", REFERENCE_CA[1][2]),
    ("Eq2", "xi", REFERENCE_CA[2][2]),
    ("Eq3", "xyi", REFERENCE_CA[3][2]),
    ("Eq4", "xyi", lambda a, i, x, y: a.cyl_mask(i, x | y) == a.cyl_mask(i, x) | a.cyl_mask(i, y)),
    ("Eq5", "xi", lambda a, i, x: a.cyl_mask(i, (out := a.top ^ a.cyl_mask(i, x))) == out),
    ("Eq6", "i", REFERENCE_CA[5][2]),
    ("Eq7", "x,i!=j", lambda a, i, j, x: a.cyl_mask(i, (xd := x & a.diag_mask(i, j))) & a.diag_mask(i, j) == xd),
]


def reference_check(alg, laws, samples, seed, what):
    singles, every_single = _cover(alg.top + 1, 1, 4096, samples, f"subsets:{seed}")
    pairs, every_pair = _cover(alg.top + 1, 2, 4096, samples, f"pairs:{seed}")
    singles, pairs, idx = [x for x, in singles], list(pairs), alg.indices
    report = CheckReport(exhaustive=every_single and every_pair)
    if not every_single:
        report.notes = f"{what} spot-checked on {samples} seeded subsets"
    elif not every_pair:
        report.notes = f"{what} checked on every subset and {samples} seeded pairs"
    instances = {
        "i": [{"i": i} for i in idx],
        "ijk": [{"i": i, "j": j, "k": k} for i in idx for j in idx for k in idx if k != i and k != j],
        "xi": [{"i": i, "x": x} for x in singles for i in idx],
        "x,i<j": [{"i": i, "j": j, "x": x} for x in singles for i in idx for j in idx if i < j],
        "x,i!=j": [{"i": i, "j": j, "x": x} for x in singles for i in idx for j in idx if i != j],
        "xy": [{"x": x, "y": y} for x, y in pairs],
        "xyi": [{"i": i, "x": x, "y": y} for x, y in pairs for i in idx],
    }
    for name, shape, law in laws:
        for binding in instances[shape]:
            report.count()
            if not law(alg, **binding):
                report.fail(name, **{
                    var: sorted(str(e) for e in alg.subset(val)) if var in ("x", "y") else val
                    for var, val in binding.items()
                })
    return report


def _as_tuple(report):
    failures = [(f.law, list(f.witness.items())) for f in report.failures]
    return report.checked, report.exhaustive, report.notes, failures


SQUARE_3 = full_square((0, 1, 2), (0, 1, 2)).sequences
CA6_UNIT = unit((0, 1, 2), [(0, 0, 1)])


class TestLanePass:
    """The lane pass reports what the reference loop reports: the count,
    coverage, note and every failure, in order."""

    @settings(max_examples=40, deadline=None)
    @given(
        window=st.integers(0, 3),
        picks=st.lists(st.integers(0, 26), max_size=10),
        samples=st.integers(0, 40),
        seed=st.integers(0, 3),
    )
    @example(window=2, picks=[0, 3, 4], samples=64, seed=0)  # CA4_UNIT
    @example(window=3, picks=[1], samples=64, seed=0)  # CA6_UNIT
    @example(window=2, picks=[], samples=64, seed=0)  # the empty unit
    @example(window=0, picks=[0], samples=64, seed=0)  # the empty window's one sequence
    @example(window=3, picks=list(range(13)), samples=21, seed=1)  # subsets and pairs sampled
    def test_units_match_the_reference(self, window, picks, samples, seed):
        v = unit(range(window), {SQUARE_3[p].values[:window] for p in picks})
        alg = UnitAlgebra(v)
        for checker, laws, what in ((check_ca_axioms, REFERENCE_CA, "postulates"), (None, REFERENCE_EQ, "equations")):
            got = checker(alg, samples, seed) if checker else check_eq_laws(v, samples, seed)
            assert _as_tuple(got) == _as_tuple(reference_check(alg, laws, samples, seed, what))

    def test_examples_fail_where_expected(self):
        assert {f.law for f in check_ca_axioms(UnitAlgebra(CA4_UNIT)).failures} == {"CA4"}
        assert {f.law for f in check_ca_axioms(UnitAlgebra(CA6_UNIT)).failures} == {"CA6"}

    def test_failures_of_one_instance_hold_their_own_lists(self):
        """The window-3 base-2 square without its first sequence fails CA4
        twice on {(0,0,1)}; changing one failure's witness leaves the other's
        as it was."""
        v = unit((0, 1, 2), [f.values for f in full_square((0, 1, 2), (0, 1)).sequences[1:]])
        failures = [f for f in check_ca_axioms(UnitAlgebra(v)).failures if f.witness.get("x") == ["(0,0,1)"]]
        assert len(failures) == 2
        failures[0].witness["x"].append("changed")
        assert failures[1].witness["x"] == ["(0,0,1)"]

    @settings(max_examples=12, deadline=None)
    @given(n=st.integers(2, 4), samples=st.integers(0, 40), seed=st.integers(0, 3))
    @example(n=4, samples=993, seed=2)  # a full 992-lane chunk and a one-lane partial chunk
    def test_mapped_algebras_match_the_reference(self, n, samples, seed):
        alg = MappedUnitAlgebra(n)
        got = check_ca_axioms(alg, samples, seed)
        assert _as_tuple(got) == _as_tuple(reference_check(alg, REFERENCE_CA, samples, seed, "postulates"))

    def test_index_only_laws_run_on_lane_views(self, monkeypatch):
        """CA1, CA5 and CA6 read no element, yet they too are evaluated on a
        lane view of one instance, never on the algebra itself."""
        alg = UnitAlgebra(CA6_UNIT)

        def cyl_mask(self, i, x, cyl_mask=FiniteAlgebra.cyl_mask):
            if self is alg:
                raise AssertionError("a law was evaluated on the algebra")
            return cyl_mask(self, i, x)

        monkeypatch.setattr(FiniteAlgebra, "cyl_mask", cyl_mask)
        report = check_ca_axioms(alg)
        assert {f.law for f in report.failures} == {"CA6"}

    def test_chunk_cylinders_are_shared_by_the_laws(self, monkeypatch):
        """On the 992-lane view of the `mapped-witness` check, its chunk of
        subsets and its chunk of pairs take 52 lane cylinders: c_i x and c_i y
        once per index (12), shared by CA2, CA3 and CA4; CA3's c_i(x . c_i y)
        (4); CA4's outer cylinders (12); and CA7's (24)."""
        calls = Counter()

        def cyl_mask(self, i, x, cyl_mask=FiniteAlgebra.cyl_mask):
            calls[self.count] += 1
            return cyl_mask(self, i, x)

        monkeypatch.setattr(FiniteAlgebra, "cyl_mask", cyl_mask)
        assert check_ca_axioms(MappedUnitAlgebra(4), 1000, seed=1).ok
        assert calls[992] == 52

    def test_mapped_witness_postulates_hold_on_sampled_lanes(self):
        """The mapped algebra of window 4 satisfies every postulate on the
        1,000 seeded subsets and pairs of the `mapped-witness` workload."""
        report = check_ca_axioms(MappedUnitAlgebra(4), 1000, seed=1)
        assert report.ok and report.checked == 27044


class TestZeroDimensionalFixpoints:
    def test_atom_terms_fixed_under_every_cylinder_on_d_units(self):
        for v in enumerate_units((0, 1, 2), 2, 8, ClassTag.D):
            seqs = v.sequences
            for mask0 in range(1 << len(v)):
                x0 = frozenset(s for k, s in enumerate(seqs) if mask0 >> k & 1)
                for q in ((1,), (-1,)):
                    t = atom_term(1, q)
                    val = evaluate(t, v, {0: x0})
                    for i in v.window:
                        assert evaluate(Cyl(i, t), v, {0: x0}) == val


def term_trees(leaves, max_leaves: int):
    """Terms over window {0, 1} built from the given leaves."""
    return st.recursive(leaves, lambda children: st.one_of(
        st.builds(Not, children),
        st.builds(And, children, children),
        st.builds(Or, children, children),
        st.builds(Cyl, st.integers(0, 1), children),
    ), max_leaves=max_leaves)


CLOSED_TERMS = term_trees(
    st.one_of(st.just(ZERO), st.just(ONE), st.builds(Diag, st.integers(0, 1), st.integers(0, 1))), 8
)
OPEN_TERMS = term_trees(st.one_of(st.builds(Var, st.integers(0, 1)), CLOSED_TERMS), 12)


# A grid unit, a unit that is not a grid, and the mapped algebra, all over {0, 1}.
LANE_ALGEBRAS = {
    "grid": UnitAlgebra(full_square((0, 1), (0, 1, 2))),
    "non-grid": UnitAlgebra(CA4_UNIT),
    "mapped": MappedUnitAlgebra(2),
}
MASK_PAIRS = st.tuples(st.integers(0, 2**9), st.integers(0, 2**9))


@pytest.mark.parametrize("name", sorted(LANE_ALGEBRAS))
@given(t=st.one_of(CLOSED_TERMS, OPEN_TERMS), raw=st.lists(MASK_PAIRS, min_size=1, max_size=20))
@example(t=ZERO, raw=[(1, 2)])
@example(t=ONE, raw=[(0, 0)])
@example(t=Diag(1, 1), raw=[(3, 0), (0, 3)])
@example(t=parse_term("-c0 -d01 . c1 d01"), raw=[(5, 1)] * 8)
@example(t=parse_term("x1 . -c0 -d01 + c0 (d01 . -x0)"), raw=[(6, 9)] + [(k, 3 * k) for k in range(12)])
def test_lane_view_agrees_with_evaluate_masks(name, t, raw):
    """Evaluated on a lane view of K instances, a term holds in lane l what
    it evaluates to on the algebra under instance l."""
    alg = LANE_ALGEBRAS[name]
    instances = [tuple(x & alg.top for x in pair) for pair in raw]
    lanes = alg.lanes(len(instances))
    got = evaluate_masks(lanes, t, {k: lanes.pack([inst[k] for inst in instances]) for k in range(2)})
    assert got & ~lanes.top == 0
    assert [lanes.lane(got, lane) for lane in range(len(instances))] == [
        evaluate_masks(alg, t, dict(enumerate(inst))) for inst in instances
    ]


class TestEvaluationJson:
    def test_round_trip(self):
        data = {"x0": [0], "x1": []}
        iota = evaluation_from_dict(SQ22, data)
        assert iota == {0: frozenset({F00}), 1: frozenset()}
        assert evaluation_to_dict(SQ22, iota) == data

    def test_bad_position(self):
        with pytest.raises(ValueError):
            evaluation_from_dict(SQ22, {"x0": [9]})

    def test_bad_name(self):
        with pytest.raises(ValueError):
            evaluation_from_dict(SQ22, {"y0": [0]})


class TestCheckReport:
    def test_merge(self):
        a = CheckReport(checked=2)
        b = CheckReport(checked=3, exhaustive=False, notes="sampled")
        a.fail("law-a", k=1)
        a.merge(b)
        assert a.checked == 5
        assert not a.exhaustive
        assert not a.ok
        assert a.notes == "sampled"

    def test_merge_keeps_each_note_once(self):
        a = CheckReport(notes="base 2; not a proof")
        for notes in ("base 2; not a proof", "sampled", "base 2; not a proof", "base 2", "sampled"):
            a.merge(CheckReport(notes=notes))
        assert a.notes == "base 2; not a proof; sampled"
        b = CheckReport()
        b.merge(CheckReport(notes="not"))
        b.merge(CheckReport(notes="not a proof"))
        assert b.notes == "not; not a proof"


@pytest.mark.parametrize("node", [Term(), "x0", None, 3])
def test_evaluate_masks_rejects_what_is_not_a_term_node(node):
    with pytest.raises(TypeError, match="not a term"):
        evaluate_masks(SQ, node, {0: 1})


def test_atom_term_splits_over_a_two_index_window():
    """Over window {0, 1}, -c0 -d01 does not force -c1 -d01: c1 -d01 splits
    x0 . -c0 -d01 between two D units, so the atom terms are not minimal there."""
    inside = parse_term("x0 . -c0 -d01 . c1 -d01")
    outside = parse_term("x0 . -c0 -d01 . -c1 -d01")
    halves = []
    for v in (unit((0, 1), [(0, 0), (0, 1), (1, 1)]), unit((0, 1), [(0, 0)])):
        assert ClassTag.D in classify(v)
        iota = {0: frozenset({F00})}
        halves.append((evaluate(inside, v, iota), evaluate(outside, v, iota)))
    assert halves == [({F00}, set()), (set(), {F00})]
