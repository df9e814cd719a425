"""Acceptance suite: one check per criterion, each printing a pass/fail line.

Run with `pytest tests/test_acceptance.py -v -s` to see the per-criterion
lines as they complete.
"""

import time

import pytest

from cylset.constructions import (
    check_split_invariance,
    crs_split_corpus,
    diag_split_corpus,
    mapped_witness,
    refute_twins_in_gs2,
    run_split_corpus,
    separation_suite,
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
    check_ca_axioms,
    check_eq_laws,
    evaluate_masks,
)
from cylset.terms import all_choice_functions, atom_term, guarded_term, guarded_twin_term
from cylset.units import ClassTag, enumerate_units, unit

BOUNDS = SearchBounds(window_size=4, base_size=2, max_seqs=4, max_eval_subsets=16)


def report(name: str, ok: bool, detail: str) -> None:
    print(f"{'PASS' if ok else 'FAIL'} {name}: {detail}")
    assert ok, f"{name}: {detail}"


@pytest.fixture(scope="module")
def diag_certs():
    instances = diag_split_corpus()
    certs, rep = run_split_corpus(instances, split_atom_diag)
    return instances, certs, rep


@pytest.fixture(scope="module")
def crs_certs():
    instances = crs_split_corpus()
    certs, rep = run_split_corpus(instances, split_any_crs)
    return instances, certs, rep


def test_criterion_1_atom_census():
    start = time.perf_counter()
    total_seps = 0
    ok = True
    for m in (1, 2, 3):
        rep = separation_suite(m)
        ok = ok and rep.ok
        total_seps += 2 ** m * (2 ** m - 1)
    elapsed = time.perf_counter() - start
    ok = ok and elapsed < 5.0
    report(
        "atom census",
        ok,
        f"2^m atoms for m=1..3, {total_seps} ordered separations, {elapsed:.2f}s (< 5s)",
    )


def test_criterion_2_zero_dimensionality():
    start = time.perf_counter()
    clean = True
    runs = 0
    for m in (1, 2):
        for q in all_choice_functions(m):
            rep = zero_dim_check(m, q, 2, 3, BOUNDS, ClassTag.D)
            clean = clean and rep.ok and rep.exhaustive
            runs += 1
    crs_rep = zero_dim_check(1, (1,), 2, 3, BOUNDS, ClassTag.CRS)
    found_crs_counterexample = not crs_rep.ok
    elapsed = time.perf_counter() - start
    ok = clean and found_crs_counterexample and elapsed < 60.0
    report(
        "zero-dimensionality",
        ok,
        f"{runs} diag-closed runs exhausted clean, arbitrary-unit run separated the guards, "
        f"{elapsed:.2f}s (< 60s)",
    )


def test_criterion_3_atom_splitting(diag_certs):
    instances, certs, rep = diag_certs
    reverified = sum(1 for c in certs if verify_certificate(c))
    branches = {c.branch for c in certs}
    ok = (
        len(instances) >= 50
        and rep.ok
        and len(certs) == len(instances)
        and reverified == len(certs)
        and {"pair-equal", "pair-distinct"} <= branches
    )
    report(
        "atom splitting",
        ok,
        f"{len(instances)} instances, {reverified} certificates re-verified, "
        f"branches {sorted(branches)}",
    )


def test_criterion_4_crs_atomlessness(crs_certs):
    instances, certs, rep = crs_certs
    atom_terms = {atom_term(m, q) for m in (1, 2) for q in all_choice_functions(m)}
    covered = atom_terms <= {inst.term for inst in instances}
    reverified = sum(1 for c in certs if verify_certificate(c))
    two_model = all(c.negative.unit != c.positive.unit for c in certs)
    ok = (
        len(instances) >= 50
        and covered
        and rep.ok
        and reverified == len(certs) == len(instances)
        and two_model
    )
    report(
        "arbitrary-unit atomlessness",
        ok,
        f"{len(instances)} terms incl. all m<=2 atom terms, "
        f"{reverified} two-model certificates verified",
    )


def test_criterion_5_mapped_witness():
    start = time.perf_counter()
    alg, rep = mapped_witness(4, ca_samples=1000, seed=0)
    elapsed = time.perf_counter() - start
    ok = rep.ok and len(alg.labels) == 257 and elapsed < 30.0
    report(
        "mapped witness",
        ok,
        f"carrier 257, twin/cylinder/diagonal/guard checks and CA spot-check on "
        f"1000 seeded subsets clean, {elapsed:.2f}s (< 30s)",
    )


def test_criterion_6_twin_system():
    start = time.perf_counter()
    alg = MappedUnitAlgebra(4)
    iota = {0: alg.mask({alg.identity})}
    x = evaluate_masks(alg, guarded_term(), iota)
    y = evaluate_masks(alg, guarded_twin_term(), iota)
    holds_in_witness = twin_system_holds(alg, x, y).holds
    refutation = refute_twins_in_gs2(3)
    elapsed = time.perf_counter() - start
    ok = holds_in_witness and refutation.ok and elapsed < 300.0
    report(
        "twin system",
        ok,
        f"holds on the witness pair, fails for all {refutation.checked} pairs over "
        f"disjoint-square units with base <= 3, {elapsed:.2f}s (< 5min)",
    )


def test_criterion_7_equation_laws():
    start = time.perf_counter()
    units_checked = 0
    clean = True
    for v in enumerate_units((0, 1), 2, 16):
        rep = check_eq_laws(v)
        clean = clean and rep.ok and rep.exhaustive
        units_checked += 1
    ca4_unit = unit((0, 1), [(0, 0), (1, 0), (1, 1)])
    alg = UnitAlgebra(ca4_unit)
    ca_rep = check_ca_axioms(alg)
    ca4_fails = any(f.law == "CA4" for f in ca_rep.failures)
    only_ca4 = all(f.law == "CA4" for f in ca_rep.failures)
    elapsed = time.perf_counter() - start
    ok = clean and units_checked == 16 and ca4_fails and only_ca4 and elapsed < 10.0
    report(
        "equation laws",
        ok,
        f"seven laws exhaustive on all {units_checked} units, commutation fails on the "
        f"documented unit, {elapsed:.2f}s (< 10s)",
    )


def test_criterion_8_invariance(diag_certs, crs_certs):
    _, dcerts, _ = diag_certs
    _, ccerts, _ = crs_certs
    checks = 0
    ok = True
    for cert in dcerts + ccerts:
        rep = check_split_invariance(cert)
        ok = ok and rep.ok and rep.checked > 0
        checks += rep.checked
    report(
        "invariance",
        ok,
        f"{checks} biconditional satisfaction checks over the subterm closures of "
        f"{len(dcerts) + len(ccerts)} certificates",
    )
