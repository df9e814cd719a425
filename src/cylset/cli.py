"""Command-line front end.

Exit codes: 0 on success or when no counterexample exists within bounds,
1 when a counterexample was found or a check failed, 2 on usage errors.
Commands, `_load_unit` and `_parse_assignments` signal a usage error by
raising `ValueError` with its message; `main` alone maps it to exit 2 and
prints `cylset: <message>` (argparse exits 2 on its own errors). `main` also
writes each command's stdout, so a reader that closes it early leaves the
exit status as it was. Reports print as JSON when --json is passed,
human-readable otherwise.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import os
import re
import sys

from . import constructions, semantics, terms, units
from .semantics import CheckReport


def _print_report(report: CheckReport, as_json: bool, label: str = "") -> int:
    if as_json:
        summary = {
            "checked": report.checked,
            "failures": len(report.failures),
            "exhaustive": report.exhaustive,
        }
        if label:
            summary["suite"] = label
        if report.notes:
            summary["notes"] = report.notes
        print(json.dumps(summary, sort_keys=True))
        for f in report.failures:
            print(json.dumps({"law": f.law, **f.witness}, sort_keys=True, default=str))
    else:
        status = "PASS" if report.ok else "FAIL"
        mode = "exhaustive" if report.exhaustive else "sampled"
        head = f"{label}: " if label else ""
        notes = f" {report.notes}" if report.notes else ""
        print(f"{head}{status} checked={report.checked} failures={len(report.failures)} ({mode}){notes}")
        for f in report.failures:
            print(f"  FAIL {f.law} {f.witness}")
    return 0 if report.ok else 1


def _load_unit(path: str) -> units.Unit:
    try:
        return units.load_unit(path)
    except (OSError, ValueError, RecursionError) as err:
        raise ValueError(f"malformed unit file {path}: {err}") from None


def _parse_assignments(v: units.Unit, assigns: list[str]) -> semantics.Evaluation:
    data: dict[str, list[int]] = {}
    for item in assigns or []:
        m = re.fullmatch(r"(x\d+)=\[([\d,\s]*)\]", item.strip())
        if not m:
            raise ValueError(f"bad --assign {item!r}; expected e.g. x0=[0,2]")
        if m.group(1) in data:
            raise ValueError(f"--assign gives {m.group(1)} more than once")
        positions = [int(p) for p in m.group(2).replace(",", " ").split()]
        data[m.group(1)] = positions
    return semantics.evaluation_from_dict(v, data)


def _cmd_parse(args) -> int:
    t = terms.parse_term(args.term, args.vars)
    out = {
        "term": terms.render_term(t),
        "index_set": sorted(terms.index_set(t)),
        "variables": sorted(terms.variables(t)),
    }
    if args.json:
        print(json.dumps(out, sort_keys=True))
    else:
        print(out["term"])
        print(f"indices: {out['index_set']}  variables: {out['variables']}")
    return 0


def _cmd_eval(args) -> int:
    v = _load_unit(args.unit)
    t = terms.parse_term(args.term)
    value = semantics.evaluate(t, v, _parse_assignments(v, args.assign))
    positions = units.bit_positions(semantics.UnitAlgebra(v).mask(value))
    if args.json:
        print(json.dumps({
            "positions": positions,
            "sequences": [list(v.sequences[p].values) for p in positions],
        }))
    else:
        shown = " ".join(str(v.sequences[p]) for p in positions) or "(empty)"
        print(f"{len(positions)} of {len(v)} sequences: {shown}")
    return 0


def _cmd_classify(args) -> int:
    v = _load_unit(args.unit)
    tags = units.classify(v)
    names = [t.value for t in units.ClassTag if t in tags]
    print(json.dumps(names) if args.json else ", ".join(names))
    return 0


_CLASS_TAGS = {t.value.lower(): t for t in units.ClassTag}


def _check_class(args, check) -> CheckReport:
    """Merge `check(v)` over every unit of the --class enumeration, built in
    full before any is checked; each failure's witness names its unit."""
    window = tuple(range(args.window))
    enumerated = list(units.enumerate_units(window, args.max_base, args.max_seqs, _CLASS_TAGS[args.cls]))
    report = CheckReport()
    for v in enumerated:
        one = check(v)
        for f in one.failures:
            f.witness.setdefault("unit", units.unit_to_dict(v))
        report.merge(one)
    return report


def _one_source(args, command: str, **flags: str) -> None:
    """Refuse a check command given more than one of its source flags (dest
    -> flag), of which it would read only one."""
    given = [flag for dest, flag in flags.items() if getattr(args, dest) is not None]
    if len(given) > 1:
        raise ValueError(f"{command} takes only one of {', '.join(flags.values())}; got {', '.join(given)}")


def _cmd_check_axioms(args) -> int:
    def check(alg) -> CheckReport:
        return semantics.check_ca_axioms(alg, samples=args.samples, seed=args.seed)

    _one_source(args, "check-axioms", unit="--unit", mapped="--mapped", cls="--class")
    if args.mapped is not None:
        report = check(semantics.MappedUnitAlgebra(args.mapped))
    elif args.unit:
        report = check(semantics.UnitAlgebra(_load_unit(args.unit)))
    elif args.cls:
        report = _check_class(args, lambda v: check(semantics.UnitAlgebra(v)))
    else:
        raise ValueError("check-axioms needs --unit FILE, --mapped N, or --class TAG")
    return _print_report(report, args.json)


def _cmd_check_eqs(args) -> int:
    _one_source(args, "check-eqs", unit="--unit", cls="--class")
    if args.unit:
        report = semantics.check_eq_laws(_load_unit(args.unit), samples=args.samples, seed=args.seed)
    elif args.cls:
        report = _check_class(args, lambda v: semantics.check_eq_laws(v, samples=args.samples, seed=args.seed))
    else:
        raise ValueError("check-eqs needs --unit FILE or --class TAG")
    return _print_report(report, args.json)


def _cmd_split(args) -> int:
    if args.pivot is not None and args.mode != "diag":
        raise ValueError("--pivot applies only to --mode diag")
    v = _load_unit(args.unit)
    tau = terms.parse_term(args.term)
    iota = _parse_assignments(v, args.assign)
    if args.focus is not None and not 0 <= args.focus < len(v):
        raise ValueError(f"--focus {args.focus} is outside the unit's positions 0..{len(v) - 1}")
    # An off-window index or unassigned variable in the target is a usage
    # error, so the probe is evaluated before a failed construction can exit 1.
    probe = terms.And(tau, terms.escape_term(0, 1)) if args.mode == "diag" else tau
    sat = semantics.evaluate(probe, v, iota)
    if args.focus is None and not sat:
        print("cylset: no sequence satisfies the split target in this unit", file=sys.stderr)
        return 1
    focus = min(sat) if args.focus is None else v.sequences[args.focus]
    try:
        if args.mode == "diag":
            cert = constructions.split_atom_diag(v, focus, iota, tau, pivot=args.pivot or 0)
        else:
            cert = constructions.split_any_crs(v, focus, iota, tau)
    except (ValueError, RuntimeError) as err:
        print(f"cylset: {err}", file=sys.stderr)
        return 1
    verified = constructions.verify_certificate(cert)
    if args.json:
        out = constructions.certificate_to_dict(cert)
        out["verified"] = verified
        print(json.dumps(out, sort_keys=True))
    else:
        print(f"splitter: {terms.render_term(cert.splitter)}")
        print(f"branch: {cert.branch}  fresh indices: {cert.fresh}  pivot: {cert.pivot}")
        print(f"verified: {verified}")
    return 0 if verified else 1


def _cmd_verify(args) -> int:
    try:
        with open(args.cert) as fh:
            cert = constructions.certificate_from_dict(json.load(fh))
    except (OSError, ValueError, RecursionError) as err:
        raise ValueError(f"cannot read certificate {args.cert}: {err}") from None
    verified = constructions.verify_certificate(cert)
    if args.json:
        print(json.dumps({"original": terms.render_term(cert.original), "verified": verified}, sort_keys=True))
    else:
        print(f"original: {terms.render_term(cert.original)}")
        print(f"verified: {verified}")
    return 0 if verified else 1


def _cmd_witness(args) -> int:
    _, report = constructions.mapped_witness(args.n, args.samples, args.seed)
    return _print_report(report, args.json)


def _cmd_refute_twins(args) -> int:
    report = constructions.refute_twins_in_gs2(args.max_base)
    return _print_report(report, args.json)


def _cmd_replicate(args) -> int:
    results = constructions.replicate(args.suite, max_base=args.max_base, seed=args.seed)
    worst = 0
    for name, report in results:
        worst = max(worst, _print_report(report, args.json, label=name))
    return worst


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="cylset",
        description="Evaluate cylindric terms over finite sequence-set units, "
        "classify units, and run the splitting and witness constructions.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def floors(p, *rows):
        """Record, per command, count flags as (dest, flag, least value); a
        flag left at None is not checked."""
        p.set_defaults(floors=p.get_default("floors") + rows)

    def common(p, unit=False, term=False, assign=False, sampled=False):
        p.set_defaults(floors=())
        p.add_argument("--json", action="store_true", help="machine-readable output")
        if unit:
            p.add_argument("--unit", required=True, help="unit JSON file")
        if term:
            p.add_argument("--term", required=True, help="term text, e.g. 'x0 . -c0 -d01'")
        if assign:
            p.add_argument(
                "--assign", action="append", default=[], metavar="xk=[positions]",
                help="variable assignment by sequence positions; repeatable",
            )
        if sampled:
            p.add_argument("--samples", type=int, default=200)
            p.add_argument("--seed", type=int, default=0)
            floors(p, ("samples", "--samples", 1))

    p = sub.add_parser("parse", help="parse a term and echo its normal rendering")
    common(p, term=True)
    p.add_argument("--vars", type=int, default=None, help="generator count bound for variables")
    floors(p, ("vars", "--vars", 0))
    p.set_defaults(func=_cmd_parse)

    p = sub.add_parser("eval", help="evaluate a term in the algebra over a unit")
    common(p, unit=True, term=True, assign=True)
    p.set_defaults(func=_cmd_eval)

    p = sub.add_parser("classify", help="report the unit's class tags")
    common(p, unit=True)
    p.set_defaults(func=_cmd_classify)

    def enumeration_flags(p):
        p.add_argument("--class", dest="cls", choices=sorted(_CLASS_TAGS), default=None,
                       help="check every enumerated unit carrying this class tag")
        p.add_argument("--window", type=int, default=2, help="window size for --class enumeration")
        p.add_argument("--max-base", type=int, default=2, help="base size for --class enumeration")
        p.add_argument("--max-seqs", type=int, default=16, help="unit size cap for --class enumeration")
        floors(p, ("window", "--window", 1), ("max_base", "--max-base", 1), ("max_seqs", "--max-seqs", 0))

    p = sub.add_parser("check-axioms", help="check the cylindric postulates on subsets of the carrier")
    common(p, sampled=True)
    p.add_argument("--unit", help="unit JSON file")
    p.add_argument("--mapped", type=int, default=None, metavar="N", help="use the mapped algebra of window size N")
    enumeration_flags(p)
    p.set_defaults(func=_cmd_check_axioms)

    p = sub.add_parser("check-eqs", help="check the seven unit-algebra equations")
    common(p, sampled=True)
    p.add_argument("--unit", help="unit JSON file")
    enumeration_flags(p)
    p.set_defaults(func=_cmd_check_eqs)

    p = sub.add_parser("split", help="produce a two-half splitting certificate")
    common(p, unit=True, term=True, assign=True)
    p.add_argument("--mode", choices=("diag", "crs"), default="diag")
    p.add_argument("--focus", type=int, default=None, help="focus sequence position (default: least satisfying)")
    p.add_argument("--pivot", type=int, choices=(0, 1), default=None,
                   help="the outer cylindrification pivot, 0 by default (diag mode only)")
    p.set_defaults(func=_cmd_split)

    p = sub.add_parser("verify", help="re-check a certificate from the JSON that split --json prints")
    common(p)
    p.add_argument("--cert", required=True, help="certificate JSON file; its 'verified' key is ignored")
    p.set_defaults(func=_cmd_verify)

    p = sub.add_parser("witness", help="build the mapped witness algebra and verify its facts")
    common(p, sampled=True)
    p.add_argument("--n", type=int, default=4, help="window size (2..4)")
    p.set_defaults(func=_cmd_witness)

    p = sub.add_parser("refute-twins", help="exhaustively refute the twin system over small disjoint-square units")
    common(p)
    p.add_argument("--max-base", type=int, default=constructions.TWIN_MAX_BASE)
    p.set_defaults(func=_cmd_refute_twins)

    p = sub.add_parser("replicate", help="run the replication suites")
    common(p)
    p.add_argument("--suite", default="all", help="suite name or 'all'")
    p.add_argument("--max-base", type=int, default=constructions.TWIN_MAX_BASE)
    p.add_argument("--seed", type=int, default=0, help="seed of the mapped-witness suite's sampled subsets")
    p.set_defaults(func=_cmd_replicate)

    return parser


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    out = io.StringIO()
    try:
        for dest, flag, floor in args.floors:
            value = getattr(args, dest)
            if value is not None and value < floor:
                raise ValueError(f"{flag} must be at least {floor}, got {value}")
        with contextlib.redirect_stdout(out):
            code = args.func(args)
    except ValueError as err:
        print(f"cylset: {err}", file=sys.stderr)
        return 2
    try:
        sys.stdout.write(out.getvalue())
        sys.stdout.flush()
    except BrokenPipeError:
        # The reader closed stdout early: send what is left, and the flush
        # at interpreter exit, to the null device.
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
    return code


if __name__ == "__main__":
    sys.exit(main())
