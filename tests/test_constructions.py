import json
from dataclasses import replace

import pytest

from cylset import constructions
from cylset.constructions import (
    _cylinder_table,
    _gs2_units,
    _twin_pairs,
    certificate_from_dict,
    certificate_to_dict,
    check_split_invariance,
    crs_split_corpus,
    diag_split_corpus,
    mapped_witness,
    refute_twins_in_gs2,
    replicate,
    run_split_corpus,
    separation_suite,
    singleton_witness,
    split_any_crs,
    split_atom_diag,
    twin_system_holds,
    verify_certificate,
    zero_dim_check,
)
from cylset.semantics import (
    MappedUnitAlgebra,
    SearchBounds,
    UnitAlgebra,
    evaluate,
    evaluate_masks,
    evaluation_from_dict,
    satisfies,
)
from cylset.terms import (
    And,
    Var,
    all_choice_functions,
    atom_term,
    escape_term,
    guarded_term,
    guarded_twin_term,
    index_set,
    parse_term,
    render_term,
    subterms,
)
from cylset.units import (
    ClassTag,
    closure,
    enumerate_units,
    eqv_gamma,
    eqv_i,
    full_square,
    seq,
    unit,
    unit_from_dict,
    unit_to_dict,
)

BOUNDS = SearchBounds(window_size=4, base_size=2, max_seqs=4, max_eval_subsets=16)
SQ22 = full_square((0, 1), (0, 1))


class TestSingletonWitness:
    def test_positive_choice(self):
        v, w, nu = singleton_witness(1, (1,))
        assert v == unit((0, 1), [(0, 0)]) and w == seq((0, 1), (0, 0))
        assert nu == {0: frozenset({w})}
        assert satisfies(v, w, nu, atom_term(1, (1,)))

    def test_negative_choice(self):
        v, w, nu = singleton_witness(1, (-1,))
        assert nu == {0: frozenset()}
        assert satisfies(v, w, nu, parse_term("-x0 . -c0 -d01"))

    def test_rejects_zero_generators(self):
        with pytest.raises(ValueError):
            singleton_witness(0, ())

    @pytest.mark.parametrize("m", [1, 2])
    def test_witness_separates_other_choices(self, m):
        for q in all_choice_functions(m):
            v, w, nu = singleton_witness(m, q)
            for other in all_choice_functions(m):
                holds = satisfies(v, w, nu, atom_term(m, other))
                assert holds == (other == q)


class TestSeparationSuite:
    @pytest.mark.parametrize("m,expected", [(1, 4), (2, 16), (3, 64)])
    def test_counts(self, m, expected):
        report = separation_suite(m)
        assert report.ok
        assert report.checked == expected

    def test_bounds(self):
        with pytest.raises(ValueError):
            separation_suite(0)
        with pytest.raises(ValueError):
            separation_suite(4)


class TestZeroDimCheck:
    def test_diag_closed_units_exhausted(self):
        report = zero_dim_check(1, (1,), 2, 3, BOUNDS, ClassTag.D)
        assert report.ok and report.exhaustive

    def test_crs_units_separate_guards(self):
        report = zero_dim_check(1, (1,), 2, 3, BOUNDS, ClassTag.CRS)
        assert not report.ok
        witness = report.failures[0].witness
        assert witness["lhs"] == "x0 . -c0 -d01"
        # The failure alone re-checks: its point separates the two sides.
        v = unit_from_dict(witness["unit"])
        focus = seq(v.window, witness["focus"])
        iota = evaluation_from_dict(v, witness["evaluation"])
        lhs, rhs = parse_term(witness["lhs"]), parse_term(witness["rhs"])
        assert satisfies(v, focus, iota, lhs) != satisfies(v, focus, iota, rhs)

    def test_same_guard_is_trivial(self):
        report = zero_dim_check(1, (1,), 0, 1, BOUNDS, ClassTag.CRS)
        assert report.ok and report.checked == 0

    def test_equal_indices_rejected(self):
        with pytest.raises(ValueError):
            zero_dim_check(1, (1,), 2, 2, BOUNDS)


class TestSplitAtomDiag:
    def test_full_square_instance(self):
        f = seq((0, 1), (0, 1))
        cert = split_atom_diag(SQ22, f, {0: SQ22.as_set()}, Var(0))
        assert cert.fresh == (2, 3)
        assert cert.branch == "pair-equal"
        assert cert.pivot == 0
        assert render_term(cert.splitter) == "c0(-d01 . c2(x0 . -d23))"
        assert verify_certificate(cert)
        # The fresh columns carry the branching sequence's value at index 1.
        g = cert.source.focus
        assert g[2] == g[3] == g[1]

    def test_closure_unit_instance(self):
        v = closure(unit((0, 1), [(0, 1)]), ClassTag.D)
        cert = split_atom_diag(v, seq((0, 1), (0, 1)), {0: v.as_set()}, Var(0))
        assert verify_certificate(cert)

    def test_precondition_rejected(self):
        v = unit((0, 1), [(0, 0)])
        with pytest.raises(ValueError, match="must satisfy"):
            split_atom_diag(v, seq((0, 1), (0, 0)), {0: v.as_set()}, Var(0))

    def test_pair_distinct_branch(self):
        v = unit((0, 1, 2, 3), [(0, 1, 0, 1)])
        f = seq((0, 1, 2, 3), (0, 1, 0, 1))
        cert = split_atom_diag(v, f, {0: v.as_set()}, Var(0))
        assert cert.branch == "pair-distinct"
        assert render_term(cert.splitter) == "c0(-d01 . c2(x0 . d23))"
        assert verify_certificate(cert)

    def test_forced_pivot_one(self):
        # Focus admits escapes from the diagonal through both coordinates.
        v = unit((0, 1), [(0, 0), (1, 0), (0, 1)])
        f = seq((0, 1), (0, 0))
        iota = {0: v.as_set()}
        cert = split_atom_diag(v, f, iota, Var(0), pivot=1)
        assert cert.pivot == 1
        assert render_term(cert.splitter).startswith("c1(")
        assert verify_certificate(cert)

    def test_forced_pivot_one_unavailable(self):
        # Only a c0-escape exists here, so pivot 1 must fail.
        v = unit((0, 1), [(0, 0), (1, 0)])
        f = seq((0, 1), (0, 0))
        with pytest.raises(ValueError, match="c1-escape"):
            split_atom_diag(v, f, {0: v.as_set()}, Var(0), pivot=1)

    def test_side_condition_rescue(self):
        # The only escape g has g(0) = g(2) = g(3), so the copied value must
        # come from coordinate 1 while the splitter keeps pivot 0.
        v = unit((0, 1, 2, 3), [(1, 1, 2, 2), (2, 1, 2, 2)])
        f = seq((0, 1, 2, 3), (1, 1, 2, 2))
        cert = split_atom_diag(v, f, {0: v.as_set()}, Var(0))
        assert cert.branch == "pair-equal"
        assert cert.pivot == 0
        assert verify_certificate(cert)
        # The halves' unit is the source unit with the new point adjoined.
        added = set(cert.negative.unit) - set(cert.source.unit)
        assert added == {seq((0, 1, 2, 3), (2, 1, 1, 2))}

    def test_variable_free_target(self):
        f = seq((0, 1), (0, 1))
        cert = split_atom_diag(SQ22, f, {}, parse_term("1"))
        assert verify_certificate(cert)
        # The adjoined-point evaluation must still feed x0 for the splitter.
        assert 0 in cert.positive.evaluation

    def test_every_focus_splits_on_both_pivots(self):
        """Every focus of x0 . c0 -d01, x0 the whole unit, over window {0,1},
        base 3, and window {0,1,2,3}, base 2, <= 3 sequences each, splits on
        each pivot that has an escape, and both branches fire on both
        pivots: each certificate verifies and replays."""
        target = And(Var(0), escape_term(0, 1))
        seen = set()
        for window, b in (((0, 1), 3), ((0, 1, 2, 3), 2)):
            for v in enumerate_units(window, b, 3):
                iota = {0: v.as_set()}
                for f in evaluate(target, v, iota):
                    for p in (0, 1):
                        if not any(eqv_i(h, f, p) and h[0] != h[1] for h in v):
                            with pytest.raises(ValueError, match=f"c{p}-escape"):
                                split_atom_diag(v, f, iota, Var(0), pivot=p)
                            continue
                        cert = split_atom_diag(v, f, iota, Var(0), pivot=p)
                        assert cert.pivot == p and verify_certificate(cert)
                        assert check_split_invariance(cert).ok
                        seen.add((p, cert.branch))
        assert seen == {(p, b) for p in (0, 1) for b in ("pair-equal", "pair-distinct")}

    def test_failed_verification_is_raised(self, monkeypatch):
        monkeypatch.setattr(constructions, "verify_certificate", lambda cert: False)
        with pytest.raises(RuntimeError, match="this is a bug"):
            split_atom_diag(SQ22, seq((0, 1), (0, 1)), {0: SQ22.as_set()}, Var(0))

    def test_pivot_outside_zero_one_rejected(self):
        with pytest.raises(ValueError, match="pivot must be 0 or 1, got 2"):
            split_atom_diag(SQ22, seq((0, 1), (0, 1)), {0: SQ22.as_set()}, Var(0), pivot=2)


class TestSplitAnyCrs:
    def test_single_sequence_unit(self):
        v = unit((0, 1), [(0, 1)])
        f = seq((0, 1), (0, 1))
        cert = split_any_crs(v, f, {0: frozenset({f})}, Var(0))
        assert cert.fresh == (2, 3)
        assert render_term(cert.splitter) == "d23"
        assert verify_certificate(cert)
        assert cert.negative.unit != cert.positive.unit
        # Replay reads only the halves, so no builder context is kept.
        assert cert.source is None

    def test_atom_term_is_split_over_arbitrary_units(self):
        t = atom_term(1, (1,))
        v, w, nu = singleton_witness(1, (1,))
        cert = split_any_crs(v, w, nu, t)
        assert verify_certificate(cert)

    def test_zero_target_rejected(self):
        v = unit((0, 1), [(0, 0)])
        with pytest.raises(ValueError, match="must satisfy"):
            split_any_crs(v, seq((0, 1), (0, 0)), {}, parse_term("0"))

    def test_relabelled_base_is_fresh(self):
        v = unit((0, 1), [(0, 1), (1, 1)])
        f = seq((0, 1), (0, 1))
        cert = split_any_crs(v, f, {0: v.as_set()}, Var(0))
        i, j = cert.fresh
        star_focus = cert.negative.focus
        assert {star_focus[i], star_focus[j]}.isdisjoint({0, 1})
        assert star_focus[i] != star_focus[j]

    def test_empty_window_unit(self):
        v = unit((), [()])
        f = seq((), ())
        cert = split_any_crs(v, f, {}, parse_term("1"))
        assert cert.fresh == (0, 1)
        assert verify_certificate(cert)


class TestCertificates:
    def test_json_round_trip_still_verifies(self):
        f = seq((0, 1), (0, 1))
        cert = split_atom_diag(SQ22, f, {0: SQ22.as_set()}, Var(0))
        data = json.loads(json.dumps(certificate_to_dict(cert)))
        loaded = certificate_from_dict(data)
        assert verify_certificate(loaded)

    def test_decoded_diag_certificate_cannot_replay(self):
        # Certificate JSON does not carry the `source` witness.
        cert = split_atom_diag(SQ22, seq((0, 1), (0, 1)), {0: SQ22.as_set()}, Var(0))
        loaded = certificate_from_dict(json.loads(json.dumps(certificate_to_dict(cert))))
        assert check_split_invariance(cert).ok
        with pytest.raises(ValueError, match="needs the builder context"):
            check_split_invariance(loaded)

    def test_decoded_relabelled_certificate_replays(self):
        f = seq((0, 1), (0, 1))
        cert = split_any_crs(unit((0, 1), [(0, 1), (1, 1)]), f, {0: frozenset({f})}, Var(0))
        loaded = certificate_from_dict(json.loads(json.dumps(certificate_to_dict(cert))))
        assert check_split_invariance(loaded) == check_split_invariance(cert)

    def test_tampered_certificate_rejected(self):
        f = seq((0, 1), (0, 1))
        cert = split_atom_diag(SQ22, f, {0: SQ22.as_set()}, Var(0))
        data = certificate_to_dict(cert)
        data["negative"]["evaluation"]["x0"] = []
        data["positive"]["evaluation"]["x0"] = []
        assert not verify_certificate(certificate_from_dict(data))


class TestCorpora:
    def test_diag_corpus_covers_both_branches(self):
        instances = diag_split_corpus()
        assert len(instances) >= 50
        certs, report = run_split_corpus(instances, split_atom_diag)
        assert report.ok
        branches = {c.branch for c in certs}
        assert {"pair-equal", "pair-distinct"} <= branches

    def test_crs_corpus_includes_all_small_atom_terms(self):
        instances = crs_split_corpus()
        assert len(instances) >= 50
        present = {render_term(term) for _, term in instances}
        for m in (1, 2):
            for q in all_choice_functions(m):
                assert render_term(atom_term(m, q)) in present

    def test_invariance_passes_on_sample(self):
        instances = diag_split_corpus()[:10]
        certs, _ = run_split_corpus(instances, split_atom_diag)
        for cert in certs:
            report = check_split_invariance(cert)
            assert report.ok and report.checked > 0


def reference_replay(cert):
    """`check_split_invariance` written out with one `satisfies` call per
    (sequence, subterm): (checked, failures as (law, witness) pairs)."""
    gamma = index_set(cert.original)
    sigmas = list(dict.fromkeys(subterms(cert.original)))
    out = []
    if cert.branch == "fresh-base":
        pos, neg = cert.positive, cert.negative
        i, j = cert.fresh
        for h in pos.unit:
            if eqv_gamma(h, pos.focus, gamma):
                h_star = h.update(i, neg.focus[i]).update(j, neg.focus[j])
                out += [
                    (sigma, h, satisfies(pos.unit, h, pos.evaluation, sigma)
                     == satisfies(neg.unit, h_star, neg.evaluation, sigma))
                    for sigma in sigmas
                ]
        law = "relabel-invariance"
    else:
        v2 = cert.negative.unit
        src = cert.source
        for h in src.unit:
            if eqv_gamma(h, src.focus, gamma):
                for sigma in sigmas:
                    ref = satisfies(src.unit, h, src.evaluation, sigma)
                    out.append((sigma, h, satisfies(v2, h, cert.negative.evaluation, sigma) == ref
                                and satisfies(v2, h, cert.positive.evaluation, sigma) == ref))
        law = "restrict-adjoin-invariance"
    return len(out), [(law, {"term": render_term(s), "h": str(h)}) for s, h, ok in out if not ok]


@pytest.mark.parametrize("corpus,splitter", [
    (diag_split_corpus, split_atom_diag),
    (crs_split_corpus, split_any_crs),
], ids=["diag", "crs"])
def test_replay_matches_per_sequence_reference(corpus, splitter):
    """Replay evaluates each subterm once per (unit, evaluation) pair; its
    counts and failures are those of one `satisfies` call per pair of
    sequence and subterm, on the corpus and on copies whose negative half
    lost its evaluation."""
    certs, _ = run_split_corpus(corpus()[::3], splitter)
    tampered = [
        replace(c, negative=replace(c.negative, evaluation={k: frozenset() for k in c.negative.evaluation}))
        for c in certs
    ]
    failing = 0
    for cert in certs + tampered:
        report = check_split_invariance(cert)
        checked, failures = reference_replay(cert)
        assert report.checked == checked
        assert [(f.law, f.witness) for f in report.failures] == failures
        failing += bool(failures)
    assert failing > 0


class TestMappedWitness:
    def test_small_window(self):
        alg, report = mapped_witness(2, ca_samples=100)
        assert report.ok
        assert len(alg.labels) == 5
        # 2^5 subsets and their 2^10 pairs are all under the cap.
        assert report.exhaustive and report.notes == "carrier size 5"

    def test_full_window_note(self):
        _, report = mapped_witness(4, ca_samples=30, seed=1)
        assert not report.exhaustive
        assert report.notes == "carrier size 257; postulates spot-checked on 30 seeded subsets"

    def test_full_window(self):
        alg, report = mapped_witness(4, ca_samples=100)
        assert report.ok
        assert len(alg.labels) == 257
        a = alg.mask({alg.identity})
        assert evaluate_masks(alg, guarded_term(), {0: a}) == a

    def test_window_bounds(self):
        with pytest.raises(ValueError):
            mapped_witness(1)
        with pytest.raises(ValueError):
            mapped_witness(5)


class TestTwinSystem:
    def test_holds_in_witness_algebra(self):
        alg = MappedUnitAlgebra(4)
        iota = {0: alg.mask({alg.identity})}
        x = evaluate_masks(alg, guarded_term(), iota)
        y = evaluate_masks(alg, guarded_twin_term(), iota)
        report = twin_system_holds(alg, x, y)
        assert report.holds
        assert report.disjoint and report.nonzero
        assert all(report.cylinders_equal) and all(report.diagonal_bounds)

    def test_zero_first_component_fails(self):
        alg = UnitAlgebra(SQ22)
        report = twin_system_holds(alg, 0, alg.top)
        assert not report.nonzero and not report.holds

    def test_swapped_pair_in_square_fails(self):
        alg = UnitAlgebra(SQ22)
        x = alg.mask({seq((0, 1), (0, 1))})
        y = alg.mask({seq((0, 1), (1, 0))})
        report = twin_system_holds(alg, x, y)
        assert not all(report.cylinders_equal)
        assert not report.holds


# Every unit the refutation covers up to base 3, plus two algebras where
# twins exist: the 3x3 square without its diagonal and the small mapped algebra.
def _gs2_name(v):
    return "gs2-" + "-".join("".join(map(str, h.values)) for h in v)


TWIN_ALGEBRAS = {
    **{_gs2_name(v): UnitAlgebra(v) for v in _gs2_units(3)},
    "square3-minus-diagonal": UnitAlgebra(unit((0, 1), [(0, 1), (0, 2), (1, 0), (1, 2), (2, 0), (2, 1)])),
    "mapped-2": MappedUnitAlgebra(2),
}


@pytest.fixture(scope="module")
def brute_twins():
    """Reference: (pairs covered, nonzero x passing both diagonal bounds,
    holding pairs) from the twin system tested on every subset pair,
    computed once per algebra."""
    seen: dict[int, tuple[int, int, list[tuple[int, int]]]] = {}

    def run(alg):
        if id(alg) not in seen:
            masks = range(alg.top + 1)
            seen[id(alg)] = (
                len(masks) ** 2,
                sum(all(twin_system_holds(alg, x, 0).diagonal_bounds) for x in masks[1:]),
                [(x, y) for x in masks for y in masks if twin_system_holds(alg, x, y).holds],
            )
        return seen[id(alg)]

    return run


class TestRefuteTwins:
    def test_base_one(self):
        report = refute_twins_in_gs2(1)
        assert report.ok
        assert report.checked == 4

    def test_base_two(self):
        report = refute_twins_in_gs2(2)
        assert report.ok
        assert report.checked == 4 + 256 + 16
        assert "; 8 nonzero x pass" in report.notes

    @pytest.mark.parametrize("name", sorted(TWIN_ALGEBRAS))
    def test_cylinder_table_matches_cyl_mask(self, name):
        alg = TWIN_ALGEBRAS[name]
        for i in (0, 1):
            assert _cylinder_table(alg, i) == [alg.cyl_mask(i, m) for m in range(alg.top + 1)]

    @pytest.mark.parametrize("name", sorted(TWIN_ALGEBRAS))
    def test_pairs_match_brute_force(self, name, brute_twins):
        alg = TWIN_ALGEBRAS[name]
        assert _twin_pairs(alg) == brute_twins(alg)[1:]

    @pytest.mark.parametrize(
        "name,pairs", [("square3-minus-diagonal", [(25, 38), (38, 25)]), ("mapped-2", [(2, 16), (16, 2)])]
    )
    def test_holding_pairs_where_twins_exist(self, name, pairs, brute_twins):
        assert brute_twins(TWIN_ALGEBRAS[name])[2] == pairs

    @pytest.mark.parametrize("max_base", [1, 2, 3])
    def test_report_matches_brute_force(self, max_base, brute_twins):
        checked, bounded, failures = 0, 0, []
        for v in _gs2_units(max_base):
            alg = TWIN_ALGEBRAS[_gs2_name(v)]
            total, unit_bounded, pairs = brute_twins(alg)
            checked += total
            bounded += unit_bounded
            failures += [
                (unit_to_dict(v), sorted(map(str, alg.subset(x))), sorted(map(str, alg.subset(y))))
                for x, y in pairs
            ]
        report = refute_twins_in_gs2(max_base)
        assert report.checked == checked
        assert report.notes.endswith(f"; {bounded} nonzero x pass both diagonal bounds")
        assert [(f.witness["unit"], f.witness["x"], f.witness["y"]) for f in report.failures] == failures


def test_unused_workers_argument_matches_benchmark_calls():
    """The calls `perfbench/workloads.py` makes still run, and `workers` changes nothing."""
    bounds = SearchBounds(window_size=4, base_size=2, max_seqs=16, max_eval_subsets=4096)
    search = zero_dim_check(2, (1, -1), 2, 3, bounds, ClassTag.D, seed=1, workers=1)
    assert search.ok and search.checked > 0
    assert search == zero_dim_check(2, (1, -1), 2, 3, bounds, ClassTag.D, seed=1)
    twins = refute_twins_in_gs2(max_base=3, workers=1)
    assert twins.ok and twins.checked > 0
    assert twins == refute_twins_in_gs2(3)


class TestReplicate:
    def test_single_suite(self):
        results = replicate("atom-census")
        assert len(results) == 1
        name, report = results[0]
        assert name == "atom-census" and report.ok

    def test_unknown_suite(self):
        with pytest.raises(ValueError):
            replicate("nope")

    def test_all_lists_every_suite(self):
        from cylset.constructions import REPLICATION_SUITES

        assert set(REPLICATION_SUITES) == {
            "atom-census",
            "zero-dim",
            "split-diag",
            "split-crs",
            "mapped-witness",
            "twin-system",
            "equations",
        }
