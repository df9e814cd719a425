"""Witness and splitting constructions, each returning a checkable certificate.

Every split produced here is verified by independent re-evaluation before it
is returned: the verifier only calls the term evaluator on the certificate's
embedded units and evaluations, so a certificate stands on its own.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Iterable

from .terms import (
    And,
    Cyl,
    Diag,
    Not,
    Or,
    Term,
    Var,
    all_choice_functions,
    atom_term,
    check_choice,
    conj,
    escape_term,
    guarded_term,
    guarded_twin_term,
    index_set,
    parse_term,
    render_term,
    signed_var,
    splitter_term,
    subterms,
    twin_guard_term,
    twin_term,
)
from .units import (
    ClassTag,
    Sequence,
    Unit,
    add_sequence,
    base,
    bit_positions,
    classify,
    disjoint_squares_unit,
    enumerate_units,
    eqv_gamma,
    extend_window,
    fresh_base,
    fresh_indices,
    fresh_naturals,
    set_partitions,
    unit_to_dict,
)
from .semantics import (
    CheckReport,
    Evaluation,
    FiniteAlgebra,
    MappedUnitAlgebra,
    P_PRIME,
    SearchBounds,
    UnitAlgebra,
    Witness,
    check_ca_axioms,
    check_eq_laws,
    evaluate,
    evaluate_masks,
    evaluation_from_dict,
    satisfies,
    witness_to_dict,
)
from .units import int_list, seq, unit, unit_fields


# --- split certificates ---------------------------------------------------

@dataclass
class SplitCertificate:
    """Two witnessed halves showing `original` is not an atom.

    The negative half satisfies original . -splitter, the positive half
    original . splitter.  The halves may live in different units; refuting
    atomhood only needs each half nonzero somewhere in the class.  An
    adjoin-a-point split also keeps its `source`: the extended unit, the
    branching sequence and the carried-over evaluation, which invariance
    replay compares both halves against.  Certificate JSON omits it.
    """

    original: Term
    splitter: Term
    fresh: tuple[int, int]
    branch: str
    pivot: int
    negative: Witness
    positive: Witness
    source: Witness | None = None


def verify_certificate(cert: SplitCertificate) -> bool:
    """Re-check both halves by evaluation alone."""
    neg = And(cert.original, Not(cert.splitter))
    pos = And(cert.original, cert.splitter)
    try:
        return satisfies(*cert.negative, neg) and satisfies(*cert.positive, pos)
    except ValueError:
        return False


def certificate_to_dict(cert: SplitCertificate) -> dict:
    return {
        "original": render_term(cert.original),
        "splitter": render_term(cert.splitter),
        "fresh": list(cert.fresh),
        "branch": cert.branch,
        "pivot": cert.pivot,
        "negative": witness_to_dict(cert.negative),
        "positive": witness_to_dict(cert.positive),
    }


def _branch_splitter(fresh: tuple[int, int], branch: str, pivot: int) -> Term | None:
    """The splitter that the construction of `branch` makes from `fresh` and `pivot`, or None."""
    i, j = fresh
    try:
        if branch == "fresh-base":
            return Diag(i, j) if pivot == 0 else None
        return splitter_term(i, j, {"pair-equal": -1, "pair-distinct": 1}[branch], pivot)
    except (KeyError, ValueError):
        return None


def certificate_from_dict(data: dict) -> SplitCertificate:
    """Decode certificate JSON; a missing, malformed or inconsistent field raises ValueError naming it."""

    def get(d: dict, name: str, decode: Callable = lambda x: x, where: str = ""):
        try:
            value = d[name]
        except (KeyError, TypeError):
            raise ValueError(f"certificate JSON lacks the field {where}{name}") from None
        try:
            return decode(value)
        except ValueError as err:
            raise ValueError(f"certificate field {where}{name}: {err}") from None

    def term(text: object) -> Term:
        if not isinstance(text, str):
            raise ValueError("expected a term string")
        return parse_term(text)

    # The checked fields of the first unit decoded, and that unit.
    decoded: list[tuple[tuple, Unit]] = []

    def unit_of(j: object) -> Unit:
        """Decode unit JSON, reusing the first half's unit when the fields
        are the same: both halves of a diagonal split share one unit.  The
        fields are compared after their types are checked, so `true` or
        `1.0` in place of `1` is still refused."""
        fields = unit_fields(j)
        if decoded and decoded[0][0] == fields:
            return decoded[0][1]
        u = unit(*fields)
        decoded.append((fields, u))
        return u

    def half(side: str) -> Witness:
        d = get(data, side)
        u = get(d, "unit", unit_of, f"{side}.")
        focus = get(d, "focus", lambda f: seq(u.window, int_list(f)), f"{side}.")
        return Witness(u, focus, get(d, "evaluation", lambda e: evaluation_from_dict(u, e), f"{side}."))

    cert = SplitCertificate(
        original=get(data, "original", term),
        splitter=get(data, "splitter", term),
        fresh=get(data, "fresh", lambda f: int_list(f, 2)),
        branch=get(data, "branch"),
        pivot=get(data, "pivot"),
        negative=half("negative"),
        positive=half("positive"),
    )
    if not isinstance(cert.branch, str):
        raise ValueError("certificate field branch: expected a string")
    if type(cert.pivot) is not int:
        raise ValueError("certificate field pivot: expected an integer")
    if _branch_splitter(cert.fresh, cert.branch, cert.pivot) != cert.splitter:
        raise ValueError("certificate fields fresh, branch and pivot do not rebuild its splitter: "
                         f"{list(cert.fresh)}, {cert.branch!r}, {cert.pivot}")
    return cert


# --- singleton witnesses and atom separation ------------------------------

def singleton_witness(m: int, q: Iterable[int]) -> Witness:
    """One-sequence unit whose constant sequence satisfies atom_term(m, q)."""
    if m < 1:
        raise ValueError("witness needs at least one generator (m >= 1)")
    q = tuple(q)
    w = seq((0, 1), (0, 0))
    v = Unit((0, 1), (w,))
    nu: Evaluation = {
        k: (frozenset((w,)) if q[k] == 1 else frozenset()) for k in range(m)
    }
    return Witness(v, w, nu)


def separation_suite(m: int) -> CheckReport:
    """Certify 2^m pairwise separated nonzero atom terms via their witnesses."""
    if not 1 <= m <= 3:
        raise ValueError("separation suite supports 1 <= m <= 3")
    report = CheckReport()
    choices = all_choice_functions(m)
    witnesses = {q: singleton_witness(m, q) for q in choices}
    for q in choices:
        v, w, nu = witnesses[q]
        report.count()
        if not satisfies(v, w, nu, atom_term(m, q)):
            report.fail("witness-satisfies-own-atom", q=list(q))
    for q in choices:
        v, w, nu = witnesses[q]
        for other in choices:
            if other == q:
                continue
            report.count()
            if satisfies(v, w, nu, atom_term(m, other)):
                report.fail("witness-separates-atoms", q=list(q), other=list(other))
    return report


# --- zero-dimensionality within bounds -------------------------------------

def zero_dim_check(
    m: int,
    q: Iterable[int],
    i: int,
    j: int,
    bounds: SearchBounds,
    tag: ClassTag = ClassTag.D,
    seed: int = 0,
    workers: int = 1,
) -> CheckReport:
    """Search the tagged units within bounds for one where the (0,1)- and
    (i,j)-guarded signed generator products differ; for m >= 1 the (0,1)
    side is `atom_term(m, q)`, and m = 0 with q = () compares the guards
    alone.

    The guards are variable-free, so each unit is decided by evaluating
    them once: where they differ, the evaluation that gives x_k all of the
    unit when q_k = +1, and none of it otherwise, separates the products at
    the least differing point, and where they agree nothing can.  The
    search stops at the first such unit; `checked` counts the units
    evaluated, and every unit is decided exactly.  `seed` and `workers` are
    accepted for existing callers and unused."""
    if i == j:
        raise ValueError("guard indices must differ")
    q = check_choice(m, q)
    g01, gij = Not(escape_term(0, 1)), Not(escape_term(i, j))
    checked = nonconstant = non_g = 0
    counterexample = None
    if gij != g01:
        window = range(bounds.window_size)
        outside = {0, 1, i, j} - set(window)
        if outside:
            raise ValueError(f"terms mention indices {sorted(outside)} beyond the window bound")
        for v in enumerate_units(window, bounds.base_size, bounds.max_seqs, tag):
            checked += 1
            nonconstant += any(len(f.range_values()) > 1 for f in v)
            non_g += ClassTag.G not in classify(v)
            alg = UnitAlgebra(v)
            diff = evaluate_masks(alg, g01, {}) ^ evaluate_masks(alg, gij, {})
            if diff:
                every = v.as_set()
                iota = {k: every if s == 1 else frozenset() for k, s in enumerate(q)}
                counterexample = Witness(v, v.sequences[(diff & -diff).bit_length() - 1], iota)
                break
    report = CheckReport(
        checked=checked,
        notes=f"{tag.value}-tagged units, window {bounds.window_size}, "
        f"base {bounds.base_size}, <= {bounds.max_seqs} sequences: "
        f"{checked} searched, {nonconstant} with a non-constant sequence, {non_g} not G; "
        "exhaustion within bounds is not a validity proof",
    )
    if counterexample is not None:
        literals = [signed_var(k, s) for k, s in enumerate(q)]
        report.fail(
            "guard-swap-separation",
            **witness_to_dict(counterexample),
            lhs=render_term(conj(literals + [g01])),
            rhs=render_term(conj(literals + [gij])),
        )
    return report


# --- atom splitting over diagonal-closed classes ----------------------------

def _extended(
    v: Unit, iota: Evaluation, ext: list[tuple[int, int]]
) -> tuple[Unit, dict[Sequence, Sequence], Evaluation]:
    """The unit with the constant columns of ext added, each member's image in
    it, and the evaluation carried over; each member is extended once.

    Every member gets the same constants at the same new indices, so the
    order of the members is kept and the i-th member of v maps to the i-th
    of the result.  The evaluation must be over members of v.
    """
    v1 = extend_window(v, ext)
    moved = dict(zip(v.sequences, v1.sequences))
    return v1, moved, {k: frozenset(moved[h] for h in val) for k, val in iota.items()}


def split_atom_diag(
    v: Unit, f: Sequence, iota: Evaluation, tau: Term, pivot: int = 0
) -> SplitCertificate:
    """Split tau . c0 -d01 into two nonzero halves by adjoining one point.

    Picks the two smallest indices i, j outside Gamma = ind(tau) | {0,1};
    missing ones are materialised as constant columns so the branching
    sequence lands on the diagonal there (the pair-equal branch), while
    pre-existing columns may branch either way.  The branching sequence g
    is the least escape of the focus along the pivot: the least member of
    v with g ==_pivot f and g0 != g1.  The focus satisfies c0 -d01, so pivot
    0, the default, always has one.

    Any escape serves.  The fresh i, j lie outside Gamma, so every point
    that agrees with f off Gamma lies inside the branch region (d_ij or
    -d_ij), and the new point lies outside it.  Restricting the evaluation
    to that region and adjoining the new point therefore leave every
    subterm of the target unchanged at those points; this is the
    restrict-adjoin invariance that `check_split_invariance` replays.
    Raises RuntimeError if the certificate fails verification, a bug.
    """
    if pivot not in (0, 1):
        raise ValueError(f"pivot must be 0 or 1, got {pivot}")
    target = And(tau, escape_term(0, 1))
    if not satisfies(v, f, iota, target):
        raise ValueError("focus must satisfy tau . c0 -d01 in the unit")
    g = next((h for h in v if h[0] != h[1] and eqv_gamma(h, f, (pivot,))), None)
    if g is None:
        raise ValueError(f"no splitting certificate: focus admits no c{pivot}-escape from d01")
    i, j = fresh_naturals(index_set(tau) | {0, 1}, 2)
    ext = [(k, g[1 - pivot]) for k in (i, j) if k not in v.window]
    v1, moved, iota1 = _extended(v, iota, ext)
    f1, g1 = moved[f], moved[g]
    domain = sorted(set(iota1) | {0})

    if g1[i] == g1[j]:
        branch = "pair-equal"
        inside = frozenset(h for h in v1 if h[i] == h[j])
        # g1[0] != g1[1], so one of them escapes g1[j]; prefer the pivot side.
        side = pivot if g1[pivot] != g1[j] else 1 - pivot
        new_point = g1.update(i, g1[side])
    else:
        branch = "pair-distinct"
        inside = frozenset(h for h in v1 if h[i] != h[j])
        new_point = g1.update(i, g1[j])

    v2 = add_sequence(v1, new_point)
    empty: frozenset = frozenset()
    eval1: Evaluation = {k: iota1.get(k, empty) & inside for k in domain}
    eval2: Evaluation = {k: eval1[k] | {new_point} for k in domain}
    cert = SplitCertificate(
        original=target,
        splitter=_branch_splitter((i, j), branch, pivot),
        fresh=(i, j),
        branch=branch,
        pivot=pivot,
        negative=Witness(v2, f1, eval1),
        positive=Witness(v2, f1, eval2),
        source=Witness(v1, g1, iota1),
    )
    if not verify_certificate(cert):
        raise RuntimeError("adjoin-a-point split failed verification; this is a bug")
    return cert


# --- splitting arbitrary nonzero terms over arbitrary units -----------------

def split_any_crs(v: Unit, f: Sequence, iota: Evaluation, tau: Term) -> SplitCertificate:
    """Split any witnessed nonzero term using two models and a fresh diagonal.

    Two fresh coordinates are appended as one constant column, putting the
    focus on the new diagonal; a relabelled copy of its neighbourhood moves
    two brand-new base elements into those coordinates, leaving the diagonal
    while satisfaction of the term is preserved.
    """
    if not satisfies(v, f, iota, tau):
        raise ValueError("focus must satisfy the term in the unit")
    gamma = index_set(tau)
    i, j = fresh_indices(v, gamma, 2)
    const = min(base(v), default=0)
    v1, moved, iota1 = _extended(v, iota, [(i, const), (j, const)])
    f1 = moved[f]

    a, b = fresh_base(v1, 2)
    # Each neighbour of f1 and its starred copy.
    star = {h: h.update(i, a).update(j, b) for h in v1 if eqv_gamma(h, f1, gamma)}
    v_star = Unit(v1.window, tuple(star.values()))
    f_star = star[f1]
    iota_star: Evaluation = {
        k: frozenset(star[h] for h in val if h in star) for k, val in iota1.items()
    }
    cert = SplitCertificate(
        original=tau,
        splitter=_branch_splitter((i, j), "fresh-base", 0),
        fresh=(i, j),
        branch="fresh-base",
        pivot=0,
        negative=Witness(v_star, f_star, iota_star),
        positive=Witness(v1, f1, iota1),
    )
    if not verify_certificate(cert):
        raise RuntimeError("relabelled split failed verification; this is a bug")
    return cert


# --- invariance checks over a certificate's subterm closure -----------------

def check_split_invariance(cert: SplitCertificate) -> CheckReport:
    """Biconditional satisfaction checks replaying the certificate's build.

    Each check compares a reference witness with halves of the certificate
    on every sequence h of the reference unit that agrees with its focus on
    the original's indices: each subterm must hold at h in the reference
    exactly when it holds at h's image in each compared half.  For the
    adjoin-a-point splits the reference is the `source`, and both halves
    are compared at h itself: restricting the evaluation to the branch
    region and adding the new point leave satisfaction unchanged.  For the
    relabelled split the reference is the positive half, and the negative
    half is compared at h's starred copy.  Each distinct subterm is
    evaluated once per witness; each sequence then reads its bit.
    """
    if cert.branch == "fresh-base":
        i, j = cert.fresh
        a, b = cert.negative.focus[i], cert.negative.focus[j]
        law, reference = "relabel-invariance", cert.positive
        compared = [(cert.negative, lambda h: h.update(i, a).update(j, b))]
    elif cert.source is None:
        raise ValueError(
            f"replaying a {cert.branch!r} split needs the builder context (source unit, "
            "evaluation and branching sequence), which certificate JSON does not carry"
        )
    else:
        law, reference = "restrict-adjoin-invariance", cert.source
        compared = [(cert.negative, lambda h: h), (cert.positive, lambda h: h)]
    gamma = index_set(cert.original)
    sigmas = list(dict.fromkeys(subterms(cert.original)))

    def satisfaction(w: Witness) -> Callable[[Sequence, Term], bool]:
        """`satisfies(w.unit, h, w.evaluation, sigma)` for h in w.unit and sigma in sigmas."""
        alg = UnitAlgebra(w.unit)
        masks = {k: alg.mask(val) for k, val in w.evaluation.items()}
        values = {sigma: evaluate_masks(alg, sigma, masks) for sigma in sigmas}
        return lambda h, sigma: bool(values[sigma] & alg.mask((h,)))

    sat = satisfaction(reference)
    halves = [(satisfaction(w), image) for w, image in compared]
    report = CheckReport()
    for h in reference.unit:
        if not eqv_gamma(h, reference.focus, gamma):
            continue
        images = [(sat_w, image(h)) for sat_w, image in halves]
        for sigma in sigmas:
            report.count()
            ref = sat(h, sigma)
            if any(sat_w(h_w, sigma) != ref for sat_w, h_w in images):
                report.fail(law, term=render_term(sigma), h=str(h))
    return report


# --- split corpora ----------------------------------------------------------

# Each split corpus must hold at least this many instances.
MIN_CORPUS_SIZE = 50


def diag_split_corpus() -> list[tuple[Witness, Term]]:
    """Deterministic (witness, term) instances satisfying tau . c0 -d01,
    engineered to hit both split branches."""
    instances: list[tuple[Witness, Term]] = []
    guard = escape_term(0, 1)

    # Window {0,1}: fresh columns get appended, forcing the pair-equal branch.
    two_window = [u for u in enumerate_units((0, 1), 2, 4) if len(u)]
    for v in two_window:
        iota = {0: v.as_set()}
        sat = evaluate(And(Var(0), guard), v, iota)
        if sat:
            instances.append((Witness(v, min(sat), iota), Var(0)))
    # Variable-free and join-shaped targets on a few of the same units.
    for v in two_window:
        iota = {0: frozenset()}
        sat = evaluate(guard, v, iota)
        if sat:
            instances.append((Witness(v, min(sat), iota), Or(Var(0), Not(Var(0)))))
        if len(instances) >= MIN_CORPUS_SIZE // 2 + 8:
            break

    # Window {0,1,2,3}: columns 2,3 pre-exist, so both branches can fire.
    for v in enumerate_units((0, 1, 2, 3), 2, 2):
        if len(instances) >= MIN_CORPUS_SIZE + 12:
            break
        if not len(v):
            continue
        iota = {0: v.as_set()}
        sat = evaluate(And(Var(0), guard), v, iota)
        if sat:
            instances.append((Witness(v, min(sat), iota), Var(0)))
    if len(instances) < MIN_CORPUS_SIZE:
        raise RuntimeError(f"corpus too small: {len(instances)} < {MIN_CORPUS_SIZE}")
    return instances


def crs_split_corpus() -> list[tuple[Witness, Term]]:
    """Witnessed nonzero terms, including every atom term for m <= 2."""
    instances: list[tuple[Witness, Term]] = []
    for m in (1, 2):
        for q in all_choice_functions(m):
            instances.append((singleton_witness(m, q), atom_term(m, q)))
    for v in enumerate_units((0, 1), 2, 4):
        if not len(v):
            continue
        full = v.as_set()
        first = frozenset((v.sequences[0],))
        candidates: list[tuple[Term, Evaluation]] = [
            (Var(0), {0: full}),
            (Not(Var(0)), {0: frozenset()}),
            (Cyl(0, Var(0)), {0: first}),
            (And(Var(0), Diag(0, 1)), {0: full}),
            (Or(Var(0), Not(Var(0))), {0: first}),
        ]
        for term, iota in candidates:
            sat = evaluate(term, v, iota)
            if sat:
                instances.append((Witness(v, min(sat), iota), term))
    if len(instances) < MIN_CORPUS_SIZE:
        raise RuntimeError(f"corpus too small: {len(instances)} < {MIN_CORPUS_SIZE}")
    return instances


def run_split_corpus(
    instances: list[tuple[Witness, Term]],
    splitter: Callable[[Unit, Sequence, Evaluation, Term], SplitCertificate],
) -> tuple[list[SplitCertificate], CheckReport]:
    """Apply a split construction across a corpus, verifying every certificate."""
    certs: list[SplitCertificate] = []
    report = CheckReport()
    for w, term in instances:
        report.count()
        try:
            cert = splitter(*w, term)
        except (ValueError, RuntimeError) as err:
            report.fail("split-construction-failed", term=render_term(term), error=str(err))
            continue
        if not verify_certificate(cert):
            report.fail("certificate-rejected", term=render_term(term))
        certs.append(cert)
    return certs, report


# --- the mapped witness algebra ---------------------------------------------

def mapped_witness(n: int, ca_samples: int = 200, seed: int = 0) -> tuple[FiniteAlgebra, CheckReport]:
    """Build the mapped algebra and verify the guarded-generator facts.

    Sets a to the singleton of the identity sequence, checks the twin's
    value, cylinder agreement, both diagonal bounds, fullness of the guard,
    the guarded value, its disjointness from every d_ij with 2 <= i < j, and
    the cylindric postulates: on every subset and pair of subsets for n = 2,
    and on ca_samples >= 1 seeded subsets and as many pairs for larger n.
    """
    if ca_samples < 1:
        raise ValueError(f"ca_samples must be at least 1, got {ca_samples}")
    alg = MappedUnitAlgebra(n)
    report = CheckReport(notes=f"carrier size {len(alg.labels)}")
    a = alg.mask((alg.identity,))
    iota = {0: a}

    report.count()
    twin_val = evaluate_masks(alg, twin_term(), iota)
    if twin_val != alg.mask((P_PRIME,)):
        report.fail("twin-value", expected="{p'}", got=alg.render(twin_val))
    twins = twin_system_holds(alg, a, twin_val)
    for i, equal in enumerate(twins.cylinders_equal):
        report.count()
        if not equal:
            report.fail("cylinder-agreement", i=i)
    for (i, k), bounded in zip(((0, 1), (1, 0)), twins.diagonal_bounds):
        report.count()
        if not bounded:
            report.fail("diagonal-bound", i=i, k=k)
    report.count()
    chi_val = evaluate_masks(alg, twin_guard_term(), iota)
    if chi_val != alg.top:
        report.fail("guard-not-full", missing=(alg.top ^ chi_val).bit_count())
    report.count()
    tau_val = evaluate_masks(alg, guarded_term(), iota)
    if tau_val != a:
        report.fail("guarded-value", expected=alg.render(a), got=alg.render(tau_val))
    for i in range(2, n):
        for j in range(i + 1, n):
            report.count()
            if tau_val & alg.diag_mask(i, j):
                report.fail("diagonal-not-avoided", i=i, j=j)
    report.count()
    if evaluate_masks(alg, guarded_twin_term(), iota) != twin_val & chi_val:
        report.fail("guarded-twin-mismatch")
    report.merge(check_ca_axioms(alg, ca_samples, seed))
    return alg, report


# --- the twin equation system and its exhaustive refutation -----------------

@dataclass
class TwinReport:
    """Per-equation breakdown of the twin system for a pair (x, y)."""

    disjoint: bool
    nonzero: bool
    cylinders_equal: tuple[bool, bool]
    diagonal_bounds: tuple[bool, bool]

    @property
    def holds(self) -> bool:
        return (
            self.disjoint
            and self.nonzero
            and all(self.cylinders_equal)
            and all(self.diagonal_bounds)
        )


def twin_system_holds(alg: FiniteAlgebra, x: int, y: int) -> TwinReport:
    """Check on masks: x.y = 0, x != 0, c_i x = c_i y for i in {0,1}, and
    both diagonal bounds c_i(d01 . c_k x) . c_k x <= d01 for {i,k} = {0,1},
    the one for i = 0 first."""
    d01 = alg.diag_mask(0, 1)
    c0x = alg.cyl_mask(0, x)
    c1x = alg.cyl_mask(1, x)
    return TwinReport(
        disjoint=not x & y,
        nonzero=bool(x),
        cylinders_equal=(c0x == alg.cyl_mask(0, y), c1x == alg.cyl_mask(1, y)),
        diagonal_bounds=(
            alg.cyl_mask(0, d01 & c1x) & c1x & ~d01 == 0,
            alg.cyl_mask(1, d01 & c0x) & c0x & ~d01 == 0,
        ),
    )


def _gs2_units(max_base: int) -> list[Unit]:
    units: list[Unit] = []
    for b in range(1, max_base + 1):
        for blocks in set_partitions(list(range(b))):
            units.append(disjoint_squares_unit((0, 1), blocks))
    return units


def _cylinder_table(alg: FiniteAlgebra, i: int) -> list[int]:
    """c_i m for every mask m of the algebra, indexed by m.  The cylinder of
    a point is its class along i, the same for every point of the class, so
    `cyl_mask` is called once per class and its mask written to each of its
    points.  Cylindrification is additive, so the masks below 2^(k+1) are
    those below 2^k, then each of them OR the cylinder of point k."""
    points = [0] * len(alg.labels)
    for k in range(len(points)):
        if not points[k]:
            c = alg.cyl_mask(i, 1 << k)
            for p in bit_positions(c):
                points[p] = c
    table = [0]
    for c in points:
        table += [c | t for t in table]
    return table


def _twin_pairs(alg: FiniteAlgebra) -> tuple[int, list[tuple[int, int]]]:
    """The number of nonzero x passing both diagonal bounds, and every mask
    pair (x, y) satisfying the twin system, in ascending order.

    The diagonal bounds read only c0 x and c1 x, and every y in the system
    lies below y* = -x . c0 x . c1 x.  Cylindrification is monotone, so x has
    a twin iff x != 0, both bounds hold and c_i y* = c_i x for i in {0,1};
    only then are the submasks of y* walked for the twins themselves.  The
    cylinders are read from one table per index, built once per algebra.
    """
    d01 = alg.diag_mask(0, 1)
    c0, c1 = _cylinder_table(alg, 0), _cylinder_table(alg, 1)
    bounded = 0
    pairs: list[tuple[int, int]] = []
    for x in range(1, alg.top + 1):
        c0x, c1x = c0[x], c1[x]
        if c0[d01 & c1x] & c1x & ~d01 or c1[d01 & c0x] & c0x & ~d01:
            continue
        bounded += 1
        top = c0x & c1x & ~x
        if c0[top] != c0x or c1[top] != c1x:
            continue
        twins, y = [], top
        while y:
            if c0[y] == c0x and c1[y] == c1x:
                twins.append(y)
            y = (y - 1) & top
        pairs.extend((x, y) for y in reversed(twins))
    return bounded, pairs


# The search visits every subset of a unit as x.  The largest square, base 4
# over window {0,1}, has 16 sequences and so 2^16 values of x; at base 5 the
# 25-sequence square would give 2^25, too many for a per-x loop in Python.
TWIN_MAX_BASE = 4


def _check_twin_base(max_base: int) -> None:
    if not 1 <= max_base <= TWIN_MAX_BASE:
        raise ValueError(f"twin refutation supports max_base in 1..{TWIN_MAX_BASE}, got {max_base}")


def refute_twins_in_gs2(max_base: int, workers: int = 1) -> CheckReport:
    """Exhaustively confirm the twin system fails for every subset pair of
    every disjoint-square unit over window {0,1} with base <= max_base.

    `checked` counts the pairs covered, 4^|v| per unit, and the notes how
    many nonzero x pass both diagonal bounds.  The search runs in
    one process; `workers` is accepted for existing callers and unused.
    Raises ValueError for max_base outside 1..TWIN_MAX_BASE."""
    _check_twin_base(max_base)
    report = CheckReport()
    bounded = 0
    for v in _gs2_units(max_base):
        alg = UnitAlgebra(v)
        report.count(1 << 2 * len(v))
        unit_bounded, pairs = _twin_pairs(alg)
        bounded += unit_bounded
        for xm, ym in pairs:
            report.fail(
                "twin-system-held-in-gs2",
                unit=unit_to_dict(v),
                x=alg.render(xm),
                y=alg.render(ym),
            )
    report.notes = (
        f"disjoint-square units with base <= {max_base}; "
        f"{bounded} nonzero x pass both diagonal bounds"
    )
    return report


# --- replication suites -------------------------------------------------

def suite_separation() -> CheckReport:
    report = CheckReport()
    for m in (1, 2, 3):
        report.merge(separation_suite(m))
    return report


def suite_zero_dim() -> CheckReport:
    # Base 2 is degenerate for D: the closure of a non-constant sequence is
    # the whole square.  Base 3 with all 81 sequences of the window-4 square
    # reaches the D units that hold non-constant sequences.
    report = zero_dim_check(0, (), 2, 3, SearchBounds(4, 3, 81), ClassTag.D)
    # Arbitrary units must separate the guards; base 3 Crs is over MAX_UNITS.
    crs = zero_dim_check(0, (), 2, 3, SearchBounds(4, 2, 4), ClassTag.CRS)
    report.count(crs.checked)
    if crs.ok:
        report.fail("expected-crs-counterexample-missing")
    return report


def suite_split_diag() -> CheckReport:
    instances = diag_split_corpus()
    certs, report = run_split_corpus(instances, split_atom_diag)
    branches = {c.branch for c in certs}
    if not {"pair-equal", "pair-distinct"} <= branches:
        report.fail("branch-coverage", seen=sorted(branches))
    for cert in certs:
        report.merge(check_split_invariance(cert))
    return report


def suite_split_crs() -> CheckReport:
    instances = crs_split_corpus()
    certs, report = run_split_corpus(instances, split_any_crs)
    for cert in certs:
        report.merge(check_split_invariance(cert))
    return report


def suite_mapped_witness(ca_samples: int = 1000, seed: int = 0) -> CheckReport:
    _, report = mapped_witness(4, ca_samples, seed)
    return report


def suite_twin_system(max_base: int = TWIN_MAX_BASE) -> CheckReport:
    alg = MappedUnitAlgebra(4)
    iota = {0: alg.mask((alg.identity,))}
    tau_val = evaluate_masks(alg, guarded_term(), iota)
    eta_val = evaluate_masks(alg, guarded_twin_term(), iota)
    report = CheckReport()
    report.count()
    if not twin_system_holds(alg, tau_val, eta_val).holds:
        report.fail("twin-system-rejected-in-witness")
    report.merge(refute_twins_in_gs2(max_base))
    return report


def suite_equations() -> CheckReport:
    report = CheckReport()
    for v in enumerate_units((0, 1), 2, 16):
        report.merge(check_eq_laws(v))
    # The commutation postulate must fail on the documented three-sequence unit.
    alg = UnitAlgebra(unit((0, 1), [(0, 0), (1, 0), (1, 1)]))
    ca = check_ca_axioms(alg)
    report.count(ca.checked)
    if not any(f.law == "CA4" for f in ca.failures):
        report.fail("expected-ca4-counterexample-missing")
    return report


REPLICATION_SUITES: dict[str, Callable[..., CheckReport]] = {
    "separation": lambda **kw: suite_separation(),
    "zero-dim": lambda **kw: suite_zero_dim(),
    "split-diag": lambda **kw: suite_split_diag(),
    "split-crs": lambda **kw: suite_split_crs(),
    "mapped-witness": lambda **kw: suite_mapped_witness(seed=kw.get("seed", 0)),
    "twin-system": lambda **kw: suite_twin_system(max_base=kw.get("max_base", TWIN_MAX_BASE)),
    "equations": lambda **kw: suite_equations(),
}


def replicate(suite: str = "all", **kw) -> list[tuple[str, CheckReport]]:
    """Run one named replication suite, or all of them in order."""
    if suite == "all":
        names = list(REPLICATION_SUITES)
    elif suite in REPLICATION_SUITES:
        names = [suite]
    else:
        raise ValueError(f"unknown suite {suite!r}; pick from {sorted(REPLICATION_SUITES)} or 'all'")
    if "twin-system" in names:
        _check_twin_base(kw.get("max_base", TWIN_MAX_BASE))
    return [(name, REPLICATION_SUITES[name](**kw)) for name in names]
