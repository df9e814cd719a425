"""One repetition of one workload, run in a fresh process by run.py.

    python3 perfbench/workloads.py --workload NAME --seed N [--trace] [--setup-only]

Builds the workload's inputs from the seed, makes the library calls the
matching `cylset` subcommand makes (always with workers=1), gates on the
verdicts, and prints one JSON record on stdout.  `first_call` is the
perf_counter reading (CLOCK_MONOTONIC, shared between processes) taken just
before the first timed call, so the parent can measure set-up from the
moment it started this process.  With --setup-only the record is printed at
that point and nothing is timed.
"""

from __future__ import annotations

import argparse
import json
import random
import resource
import sys
from pathlib import Path
from time import perf_counter

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

from cylset import constructions, semantics, terms, units  # noqa: E402

import tracing  # noqa: E402

# --- inputs -----------------------------------------------------------------

CERT_INSTANCES = 3000
CERT_WINDOWS = ((0, 1), (0, 1, 2), (0, 1, 2, 3))
CERT_MAX_BASE = 3
CERT_MAX_SEQS = 12
CERT_TERM_DEPTH = 4


def _term_text(rng: random.Random, window: tuple[int, ...], depth: int) -> str:
    """Random term text over x0, x1 using only the window's indices."""
    if depth == 0 or rng.random() < 0.2:
        pick = rng.randrange(5)
        if pick < 3:
            return f"x{pick % 2}"
        if pick == 3:
            i, j = rng.sample(window, 2)
            return f"d{i}{j}"
        return rng.choice(("0", "1"))
    op = rng.randrange(4)
    if op == 0:
        return "-" + _term_text(rng, window, depth - 1)
    if op == 1:
        return f"c{rng.choice(window)} " + _term_text(rng, window, depth - 1)
    a = _term_text(rng, window, depth - 1)
    b = _term_text(rng, window, depth - 1)
    return f"({a} {'.+'[op - 2]} {b})"


def certificate_instances(seed: int) -> list[dict]:
    """JSON-shaped split inputs: a unit, the text of a term and an evaluation."""
    rng = random.Random(f"perfbench-certificates:{seed}")
    out = []
    for n in range(CERT_INSTANCES):
        # Windows and bases are stratified, not drawn, so that the amount of
        # work varies little from seed to seed.  Base 1 would allow only the
        # one-sequence unit.
        window = CERT_WINDOWS[n % len(CERT_WINDOWS)]
        base = 2 + n // len(CERT_WINDOWS) % (CERT_MAX_BASE - 1)
        n_square = base ** len(window)
        size = rng.randint(1, min(CERT_MAX_SEQS, n_square))
        codes = rng.sample(range(n_square), size)
        seqs = sorted(
            [code // base ** i % base for i in range(len(window))] for code in codes
        )
        evaluation = {
            f"x{k}": sorted(p for p in range(size) if rng.random() < 0.5) for k in (0, 1)
        }
        out.append({
            "unit": {"window": list(window), "sequences": seqs},
            "term": _term_text(rng, window, CERT_TERM_DEPTH),
            "evaluation": evaluation,
        })
    return out


# --- workloads --------------------------------------------------------------
# Each prepare(seed) returns a job; job() runs the timed calls and returns
# (attempted, errors, extra) where errors lists the wrong or raised verdicts.

def _report_verdict(report, what: str) -> tuple[int, list[str], dict]:
    errors = [] if report.ok else [f"{what}: {[f.law for f in report.failures][:5]}"]
    return 1, errors, {"report_checked": report.checked}


def prepare_twin_refute(seed: int):
    # Exhaustive over every subset pair of every unit: the seed is not used.
    def job():
        report = constructions.refute_twins_in_gs2(max_base=3, workers=1)
        return _report_verdict(report, "a twin pair held")

    return job, {"carrier_max": 9, "source": "computed: disjoint squares over {0,1}, base <= 3"}


def prepare_mapped_witness(seed: int):
    def job():
        _, report = constructions.mapped_witness(4, ca_samples=1000, seed=seed)
        return _report_verdict(report, "mapped witness failed")

    return job, {"carrier_max": 4 ** 4 + 1, "source": "computed: 4^4 grid plus p'"}


def prepare_class_search(seed: int):
    bounds = semantics.SearchBounds(
        window_size=4, base_size=2, max_seqs=16, max_eval_subsets=4096
    )

    def job():
        report = constructions.zero_dim_check(
            2, (1, -1), 2, 3, bounds, units.ClassTag.D, seed=seed, workers=1
        )
        return _report_verdict(report, "counterexample found")

    return job, {"carrier_max": 16, "source": "computed: units over window 4, base 2, <= 16 sequences"}


def prepare_certificates(seed: int):
    instances = certificate_instances(seed)
    split_ms: list[float] = []
    verify_ms: list[float] = []

    def build(inst: dict) -> list[tuple[object, str]]:
        """Build path: parse, evaluate, split, serialise; (expected original, JSON)."""
        v = units.unit_from_dict(inst["unit"])
        iota = semantics.evaluation_from_dict(v, inst["evaluation"])
        tau = terms.parse_term(inst["term"])
        target = terms.parse_term(f"({inst['term']}) . c0 -d01")
        certs = []
        sat = semantics.evaluate(target, v, iota)
        if sat:
            certs.append((target, constructions.split_atom_diag(v, min(sat), iota, tau)))
        sat = semantics.evaluate(tau, v, iota)
        if sat:
            certs.append((tau, constructions.split_any_crs(v, min(sat), iota, tau)))
        return [
            (expected, json.dumps(constructions.certificate_to_dict(cert)))
            for expected, cert in certs
        ]

    def job():
        attempted = 0
        verified = 0
        errors: list[str] = []
        for inst in instances:
            t0 = perf_counter()
            try:
                built = build(inst)
            except (ValueError, RuntimeError) as err:
                attempted += 1
                errors.append(f"build {inst['term']!r}: {err}")
                continue
            split_ms.append((perf_counter() - t0) * 1e3)
            for expected, text in built:
                attempted += 1
                t0 = perf_counter()
                cert = constructions.certificate_from_dict(json.loads(text))
                ok = constructions.verify_certificate(cert)
                verify_ms.append((perf_counter() - t0) * 1e3)
                verified += ok
                if not ok:
                    errors.append(f"certificate for {inst['term']!r} does not re-verify")
                elif cert.original != expected:
                    errors.append(f"certificate for {inst['term']!r} proves another term")
        extra = {
            "split_ms": split_ms,
            "verify_ms": verify_ms,
            "certificates_verified": verified,
            "splits_attempted": attempted,
        }
        return attempted, errors, extra

    largest = max(len(inst["unit"]["sequences"]) for inst in instances)
    return job, {"carrier_max": largest, "source": "computed: largest generated input unit"}


WORKLOADS = {
    "twin-refute": prepare_twin_refute,
    "mapped-witness": prepare_mapped_witness,
    "class-search": prepare_class_search,
    "certificates": prepare_certificates,
}


def main(argv: list[str] | None = None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--trace", action="store_true")
    ap.add_argument("--setup-only", action="store_true")
    args = ap.parse_args(argv)

    job, working_set = WORKLOADS[args.workload](args.seed)
    tracer = None
    if args.trace:
        tracer = tracing.Tracer()
        tracer.install()
    record: dict = {"working_set": working_set}
    first_call = perf_counter()
    record["first_call"] = first_call
    if not args.setup_only:
        attempted, errors, extra = job()
        record["wall_s"] = perf_counter() - first_call
        record.update(attempted=attempted, failed=len(errors), errors=errors[:10], **extra)
        if tracer is not None:
            tracer.uninstall()
            record["trace"] = tracer.to_dict()
            record["spans"] = tracer.spans
    record["peak_rss_kib"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    print(json.dumps(record))
    return 0


if __name__ == "__main__":
    sys.exit(main())
