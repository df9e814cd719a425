"""The cylset benchmark: one workload, measured for a fixed time.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a source checkout; the program is imported from
src/cylset, nothing is installed.  Each repetition of the workload runs in a
fresh process (perfbench/workloads.py), so set-up time and peak memory are
measured per process and no cache survives from one repetition to the next.
Repetitions start until --seconds have passed; there is always at least one.

--trace 0 reports the end-to-end metrics: setup_s (median over a fixed
number of set-up-only processes), wall_s and peak_rss_mib (medians over
repetitions).  --trace 1 alternates untraced and
traced repetitions and reports the per-layer metrics of the traced ones,
the tracing overhead and the share of traced wall_s no layer covers.

Human-readable lines, the run context and the certificates workload's
latency percentiles go to stdout before the last line, which is the JSON
result.  The full record, with per-repetition samples and the traced run's
spans, is written to perfbench/out/.  Exit code 0 when every verdict is
right, 1 when one is wrong, 2 when the program cannot be found or a
repetition crashes.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
from pathlib import Path
from time import perf_counter

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = HERE / "out"
WORKLOADS = ("twin-refute", "mapped-witness", "class-search", "certificates")
SETUP_PROBES = 7
CHILD_TIMEOUT_S = 150

sys.path.insert(0, str(HERE))
from tracing import LAYERS  # noqa: E402


class RepetitionFailed(RuntimeError):
    pass


def spawn(workload: str, seed: int, *flags: str) -> dict:
    """Run one repetition in a fresh process and return its record."""
    cmd = [sys.executable, str(HERE / "workloads.py"), "--workload", workload, "--seed", str(seed), *flags]
    env = dict(os.environ, PYTHONHASHSEED="0")
    started = perf_counter()
    try:
        proc = subprocess.run(cmd, capture_output=True, text=True, env=env, timeout=CHILD_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        raise RepetitionFailed(f"{workload} repetition exceeded {CHILD_TIMEOUT_S} s") from None
    if proc.returncode != 0 or not proc.stdout.strip():
        raise RepetitionFailed(f"{workload} repetition exited {proc.returncode}:\n{proc.stderr[-3000:]}")
    record = json.loads(proc.stdout.strip().splitlines()[-1])
    record["setup_s"] = record["first_call"] - started
    return record


def run_context() -> dict:
    cpu = "unknown"
    try:
        with open("/proc/cpuinfo") as fh:
            cpu = next((ln.split(":", 1)[1].strip() for ln in fh if ln.startswith("model name")), cpu)
    except OSError:
        pass
    caches = {}
    for index in sorted(Path("/sys/devices/system/cpu/cpu0/cache").glob("index*")):
        try:
            level, kind, size = ((index / f).read_text().strip() for f in ("level", "type", "size"))
        except OSError:
            continue
        caches[f"L{level}" + ("" if kind == "Unified" else kind[0].lower())] = size
    return {
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "cpu_model": cpu,
        "python": platform.python_version(),
        "loadavg_at_start": os.getloadavg(),
        "caches": caches,
    }


def percentile(values: list[float], p: int) -> float:
    return statistics.quantiles(values, n=100)[p - 1] if len(values) > 1 else values[0]


def measure(workload: str, seed: int, seconds: float) -> tuple[dict, dict, list[str]]:
    # Set-up is timed on back-to-back set-up-only processes, a fixed number of
    # them, so that every sample starts from the same state.
    setups = [spawn(workload, seed, "--setup-only")["setup_s"] for _ in range(SETUP_PROBES)]
    reps: list[dict] = []
    start = perf_counter()
    while not reps or perf_counter() - start < seconds:
        reps.append(spawn(workload, seed))
    walls = [r["wall_s"] for r in reps]
    rss = [r["peak_rss_kib"] / 1024 for r in reps]
    metrics = {
        "setup_s": {"value": statistics.median(setups), "unit": "s"},
        "wall_s": {"value": statistics.median(walls), "unit": "s"},
        "peak_rss_mib": {"value": statistics.median(rss), "unit": "MiB"},
    }
    lines = [
        f"  setup_s       {metrics['setup_s']['value']:.4f} s    median of {len(setups)} set-up-only processes",
        f"  wall_s        {metrics['wall_s']['value']:.4f} s    median of {len(reps)} repetitions",
        f"  peak_rss_mib  {metrics['peak_rss_mib']['value']:.2f} MiB   median of {len(reps)} repetitions",
    ]
    for name in ("split_ms", "verify_ms"):
        samples = [x for r in reps for x in r.get(name, ())]
        if samples:
            label = name[:-3]
            lines.append(
                f"  {label}_p50_ms  {percentile(samples, 50):.4f} ms   "
                f"{label}_p99_ms  {percentile(samples, 99):.4f} ms   ({len(samples)} samples)"
            )
    return metrics, {"setup_s": setups, "repetitions": reps}, lines


def _share(part: float, whole: float) -> float:
    return 100.0 * part / whole if whole else 0.0


def measure_traced(workload: str, seed: int, seconds: float) -> tuple[dict, dict, list[str]]:
    plain: list[dict] = []
    traced: list[dict] = []
    start = perf_counter()
    while not traced or perf_counter() - start < seconds:
        plain.append(spawn(workload, seed))
        traced.append(spawn(workload, seed, "--trace"))
    for r in traced[:-1]:
        del r["spans"]  # the record keeps the spans of the last traced repetition only
    n = len(traced)
    wall = statistics.median(r["wall_s"] for r in traced)
    overhead = wall - statistics.median(r["wall_s"] for r in plain)

    def layer_mean(name: str, field: str) -> float:
        return sum(r["trace"]["layers"][name][field] for r in traced) / n

    # Counts repeat exactly for one seed; the median guards against a stray run.
    def layer_count(name: str, field: str) -> int:
        return statistics.median_low(r["trace"]["layers"][name][field] for r in traced)

    def rep_count(key: str) -> int:
        return statistics.median_low(r.get(key, 0) for r in traced)

    metrics: dict = {}
    lines = []
    for layer in LAYERS:
        calls = layer_count(layer, "calls")
        busy = layer_mean(layer, "busy_s")
        self_s = layer_mean(layer, "self_s")
        metrics[f"{layer}.calls"] = {"value": calls, "unit": "count"}
        metrics[f"{layer}.busy_pct"] = {"value": _share(busy, wall), "unit": "%"}
        metrics[f"{layer}.self_pct"] = {"value": _share(self_s, wall), "unit": "%"}
        if calls:
            lines.append(
                f"  {layer:36s} {calls:>10d} calls  busy {busy:8.3f} s ({_share(busy, wall):5.1f}%)"
                f"  self {self_s:8.3f} s ({_share(self_s, wall):5.1f}%)"
            )
    absent = sorted({a for r in traced for a in r["trace"]["absent"]})
    if absent:
        lines.append(f"  absent from this revision of the program: {', '.join(absent)}")

    kept = layer_count("units.enumerate_units", "yielded")
    classified = layer_count("units.classify", "calls")
    splits = rep_count("splits_attempted")
    verified = rep_count("certificates_verified")
    unattributed = wall - statistics.median(r["trace"]["covered_s"] for r in traced)
    metrics.update({
        "semantics.evaluations_checked": {
            "value": layer_count("semantics.bounded_validity", "counted"), "unit": "count"
        },
        "units.kept": {"value": kept, "unit": "count"},
        "units.kept_ratio": {"value": kept / classified if classified else 0.0, "unit": "ratio"},
        "constructions.split_yield": {"value": verified / splits if splits else 0.0, "unit": "ratio"},
        "constructions.report_checked": {"value": rep_count("report_checked"), "unit": "count"},
        "trace.wall_s": {"value": wall, "unit": "s"},
        "trace.overhead_s": {"value": overhead, "unit": "s"},
        "trace.overhead_pct": {"value": _share(overhead, wall - overhead), "unit": "%"},
        "trace.unattributed_pct": {"value": _share(unattributed, wall), "unit": "%"},
    })
    lines.append(
        f"  traced wall_s {wall:.3f} s over {n} traced repetitions; overhead {overhead:+.3f} s "
        f"({metrics['trace.overhead_pct']['value']:+.1f}% of untraced); "
        f"no layer covers {metrics['trace.unattributed_pct']['value']:.1f}%"
    )
    if classified:
        lines.append(f"  units kept {kept} of {classified} classified")
    if splits:
        lines.append(f"  certificates verified {verified} of {splits} splits attempted")
    return metrics, {"repetitions": plain + traced}, lines


def main(argv: list[str] | None = None) -> int:
    ap = argparse.ArgumentParser(description="Run one cylset benchmark workload.")
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    if not (ROOT / "src" / "cylset" / "__init__.py").is_file():
        print(f"perfbench: no program at {ROOT / 'src' / 'cylset'}; run from a cylset checkout",
              file=sys.stderr)
        return 2
    context = run_context()
    began = perf_counter()
    try:
        if args.trace:
            metrics, samples, lines = measure_traced(args.workload, args.seed, args.seconds)
        else:
            metrics, samples, lines = measure(args.workload, args.seed, args.seconds)
    except RepetitionFailed as err:
        print(f"perfbench: {err}", file=sys.stderr)
        return 2
    reps = samples["repetitions"]
    context["working_set"] = reps[0]["working_set"]
    attempted = sum(r["attempted"] for r in reps)
    failed = sum(r["failed"] for r in reps)
    errors = [e for r in reps for e in r["errors"]][:10]
    result = {"correct": failed == 0, "attempted": attempted, "failed": failed, "metrics": metrics}

    OUT.mkdir(exist_ok=True)
    record_path = OUT / f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    with open(record_path, "w") as fh:
        json.dump({"args": vars(args), "context": context, "result": result, **samples}, fh)

    print(f"context {json.dumps(context)}")
    print(f"workload {args.workload}, seed {args.seed}, trace {args.trace}: "
          f"{len(reps)} repetitions in {perf_counter() - began:.1f} s")
    for line in lines:
        print(line)
    print(f"  failed_ratio  {failed}/{attempted} verdicts = {failed / attempted:.4g}")
    for err in errors:
        print(f"  wrong verdict: {err}")
    print(f"  record: {record_path.relative_to(ROOT)}")
    print(json.dumps(result))
    return 0 if failed == 0 else 1


if __name__ == "__main__":
    sys.exit(main())
