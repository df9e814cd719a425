import json
import re
from dataclasses import replace
from itertools import chain, product

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
    FiniteAlgebra,
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
    Not,
    Var,
    all_choice_functions,
    atom_term,
    conj,
    escape_term,
    guarded_term,
    guarded_twin_term,
    index_set,
    parse_term,
    render_term,
    signed_var,
    subterms,
)
from cylset.units import (
    ClassTag,
    classify,
    closure,
    enumerate_units,
    eqv_gamma,
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
        # The search stops at the third unit, the first that separates them.
        assert report.checked == 3
        assert "3 searched, 1 with a non-constant sequence, 1 not G" in report.notes
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

    @pytest.mark.parametrize("i,j,window_size,outside", [(2, 5, 4, "[5]"), (2, 3, 1, "[1, 2, 3]")])
    def test_window_bound_enforced(self, i, j, window_size, outside):
        with pytest.raises(ValueError, match=re.escape(f"terms mention indices {outside} beyond the window bound")):
            zero_dim_check(1, (1,), i, j, SearchBounds(window_size, 2, 4, 16), ClassTag.CRS)

    @pytest.mark.parametrize("bounds,tag", [(BOUNDS, ClassTag.D), (BOUNDS, ClassTag.CRS), (SearchBounds(4, 3, 81), ClassTag.D)])
    def test_every_signed_search_reports_as_the_guards_do(self, bounds, tag):
        """For every m and q the report is the m = 0 report: the same units
        searched, and the same failing unit and focus, with an all-or-none
        evaluation that separates the products there."""
        guards = zero_dim_check(0, (), 2, 3, bounds, tag)
        for m in (0, 1, 2):
            for q in all_choice_functions(m):
                report = zero_dim_check(m, q, 2, 3, bounds, tag)
                assert (report.checked, report.exhaustive, report.notes) == (guards.checked, True, guards.notes)
                assert len(report.failures) == len(guards.failures)
                if not report.failures:
                    continue
                witness, expected = report.failures[0].witness, guards.failures[0].witness
                assert (witness["unit"], witness["focus"]) == (expected["unit"], expected["focus"])
                v = unit_from_dict(witness["unit"])
                everything = list(range(len(v)))
                assert witness["evaluation"] == {f"x{k}": everything if s == 1 else [] for k, s in enumerate(q)}
                focus = seq(v.window, witness["focus"])
                iota = evaluation_from_dict(v, witness["evaluation"])
                lhs, rhs = parse_term(witness["lhs"]), parse_term(witness["rhs"])
                assert satisfies(v, focus, iota, lhs) != satisfies(v, focus, iota, rhs)

    def test_guards_alone_clean_and_exhaustive_on_d_units(self):
        report = zero_dim_check(0, (), 2, 3, SearchBounds(4, 3, 81), ClassTag.D)
        assert report.ok and report.exhaustive
        # One empty evaluation for each of the 19 units.
        assert report.checked == 19
        assert "19 searched, 11 with a non-constant sequence, 0 not G" in report.notes

    def test_guards_alone_separate_on_crs_units(self):
        report = zero_dim_check(0, (), 2, 3, SearchBounds(4, 2, 4), ClassTag.CRS)
        assert not report.ok and report.exhaustive
        witness = report.failures[0].witness
        assert (witness["lhs"], witness["rhs"], witness["evaluation"]) == ("-c0 -d01", "-c2 -d23", {})
        v = unit_from_dict(witness["unit"])
        focus = seq(v.window, witness["focus"])
        lhs, rhs = parse_term(witness["lhs"]), parse_term(witness["rhs"])
        assert satisfies(v, focus, {}, lhs) != satisfies(v, focus, {}, rhs)

    @pytest.mark.parametrize("m,q", [(0, (1,)), (1, ()), (2, (1,)), (1, (0,))])
    def test_choice_function_must_fit_m(self, m, q):
        with pytest.raises(ValueError, match="choice function"):
            zero_dim_check(m, q, 2, 3, BOUNDS)

    def test_guard_comparison_decides_every_signed_search(self):
        """On every D unit over window 4, base 3 and every Crs unit over
        window 4, base 2, each with at most 3 sequences, and for m in {1, 2}
        and every q, some evaluation separates the two guarded products
        exactly when the variable-free guards differ: 4,230 (unit, q) pairs,
        3,264 of them with differing guards."""
        g01, g23 = Not(escape_term(0, 1)), Not(escape_term(2, 3))
        units = chain(enumerate_units(range(4), 3, 3, ClassTag.D), enumerate_units(range(4), 2, 3, ClassTag.CRS))
        pairs = differing = 0
        for v in units:
            alg = UnitAlgebra(v)
            guards_differ = evaluate_masks(alg, g01, {}) != evaluate_masks(alg, g23, {})
            for m in (1, 2):
                evals = list(product(range(1 << len(v)), repeat=m))
                lanes = alg.lanes(len(evals))
                masks = {k: lanes.pack(e[k] for e in evals) for k in range(m)}
                for q in all_choice_functions(m):
                    literals = [signed_var(k, s) for k, s in enumerate(q)]
                    lhs, rhs = conj(literals + [g01]), conj(literals + [g23])
                    assert lhs == atom_term(m, q)
                    separated = evaluate_masks(lanes, lhs, masks) != evaluate_masks(lanes, rhs, masks)
                    assert separated == guards_differ, (v, q)
                    pairs += 1
                    differing += guards_differ
        assert (pairs, differing) == (4230, 3264)


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
                        if not any(h[0] != h[1] and all(h[k] == f[k] for k in v.window if k != p) for h in v):
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

    def test_halves_leave_the_class_and_closing_them_breaks_the_certificate(self):
        """The adjoin-a-point split of a D, G and Gs unit verifies, but its
        halves are Crs units only.  Closing them under G or D, with the
        evaluation left as it is, adds members on the focus's 0-line that
        carry no variable, so neither half satisfies the target any more."""
        window = (0, 1, 2)
        v = unit(window, [*product(range(2), repeat=3), (2, 2, 2)])
        assert len(v) == 9 and classify(v) == set(ClassTag)
        x0 = frozenset(seq(window, t) for t in ((0, 0, 0), (0, 1, 0), (0, 1, 1), (1, 1, 1)))
        cert = split_atom_diag(v, seq(window, (0, 1, 1)), {0: x0}, parse_term("-c0 -x0"))
        assert (cert.branch, cert.fresh) == ("pair-equal", (2, 3))
        assert verify_certificate(cert)
        assert classify(cert.negative.unit) == classify(cert.positive.unit) == {ClassTag.CRS}
        assert cert.negative.focus == seq((0, 1, 2, 3), (0, 1, 1, 1))
        added = seq((0, 1, 2, 3), (2, 1, 1, 1))
        assert added not in cert.negative.unit
        for tag in (ClassTag.G, ClassTag.D):
            closed = [replace(w, unit=closure(w.unit, tag)) for w in (cert.negative, cert.positive)]
            assert [len(w.unit) for w in closed] == [31, 31]
            assert all(added in w.unit for w in closed)
            assert [w.evaluation for w in closed] == [cert.negative.evaluation, cert.positive.evaluation]
            assert not any(satisfies(*w, cert.original) for w in closed)
            assert not verify_certificate(replace(cert, negative=closed[0], positive=closed[1]))


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

    @pytest.mark.parametrize("pivot", [0, 1])
    def test_json_round_trip_keeps_the_pivot(self, pivot):
        f = seq((0, 1), (0, 1))
        cert = split_atom_diag(SQ22, f, {0: SQ22.as_set()}, Var(0), pivot=pivot)
        loaded = certificate_from_dict(json.loads(json.dumps(certificate_to_dict(cert))))
        assert (loaded.splitter, loaded.fresh, loaded.branch, loaded.pivot) == (
            cert.splitter, cert.fresh, cert.branch, pivot
        )

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

    @pytest.mark.parametrize("v", _gs2_units(3), ids=_gs2_name)
    def test_cylinder_table_is_the_per_point_definition(self, v):
        """Each one-point mask's cylinder from `cyl_mask`, any other mask's
        the OR of its points' cylinders; `cyl_mask` runs once per class."""
        # An algebra of its own, not the cached one, so that its `cyl_mask`
        # can count calls.
        alg = FiniteAlgebra(v.sequences, v.window, [f.values for f in v])
        calls = []
        alg.cyl_mask = lambda i, x: calls.append(x) or FiniteAlgebra.cyl_mask(alg, i, x)
        for i in (0, 1):
            per_point = [FiniteAlgebra.cyl_mask(alg, i, 1 << k) for k in range(len(v))]
            definition = [0] * (alg.top + 1)
            for m in range(1, alg.top + 1):
                definition[m] = definition[m & m - 1] | per_point[(m & -m).bit_length() - 1]
            calls.clear()
            assert _cylinder_table(alg, i) == definition
            assert len(calls) == len(set(per_point))

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
    """The calls `perfbench/workloads.py` makes still run, and `workers` and `seed` change nothing."""
    bounds = SearchBounds(window_size=4, base_size=2, max_seqs=16, max_eval_subsets=4096)
    search = zero_dim_check(2, (1, -1), 2, 3, bounds, ClassTag.D, seed=1, workers=1)
    # One guard comparison on each of the 5 D units; the seed is unused too.
    assert search.ok and search.exhaustive and search.checked == 5
    assert search == zero_dim_check(2, (1, -1), 2, 3, bounds, ClassTag.D, seed=2)
    twins = refute_twins_in_gs2(max_base=3, workers=1)
    assert twins.ok and twins.checked > 0
    assert twins == refute_twins_in_gs2(3)


class TestReplicate:
    def test_single_suite(self):
        results = replicate("separation")
        assert len(results) == 1
        name, report = results[0]
        assert name == "separation" and report.ok

    def test_unknown_suite(self):
        with pytest.raises(ValueError):
            replicate("nope")

    def test_all_lists_every_suite(self):
        from cylset.constructions import REPLICATION_SUITES

        assert set(REPLICATION_SUITES) == {
            "separation",
            "zero-dim",
            "split-diag",
            "split-crs",
            "mapped-witness",
            "twin-system",
            "equations",
        }
