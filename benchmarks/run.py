#!/usr/bin/env python3
"""zgcentral benchmark: one workload per call, every output checked.

    python3 benchmarks/run.py --workload order1000 --seed 1 --seconds 10 --trace 0

Run from the root of a source checkout.  The workload runs in a fresh
child process (closed loop, one client: one process, one thread, one
group at a time) with `src` on PYTHONPATH and BLAS pinned to one thread.
The last line of standard output is one JSON object with `correct`,
`attempted`, `failed` and `metrics`:

- `--trace 0`: the end-to-end metrics (medians over passes; set-up is
  the import time plus the median of several input builds).  Times are
  in reference-speed seconds: wall time corrected for the shared host's
  speed, which is sampled all through the run (see speedclock.py); the
  wall times are printed above the result line;
- `--trace 1`: the per-layer metrics of one traced pass (calls, total and
  self time per wrapped library function), the work ratios, the stage
  times `units_s` and `witness_s`, `failed_frac`, and the tracing
  overhead against an untraced pass in the same process.  Spans are
  written to `.bench_out/`.

`correct` is false when a check fails that is not one of the defects
recorded in `expected.json` under `known_defects`; those still count in
`failed`.
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

HERE = Path(__file__).resolve().parent
WORKER = HERE / "worker.py"
WORKLOADS = ("order1000", "catalog-sweep", "central-units")
HELD_OUT_SEED = 424242
CHILD_TIMEOUT_S = 170
# Extra fresh processes that only import the package: set-up samples.
IMPORT_PROBES = 4

END_TO_END = {
    "setup_s": "s",
    "solve_s": "s",
    "pairs_s": "s",
    "rank_s": "s",
    "peak_rss_mb": "MB",
}
STAGE_METRICS = ("units_s", "witness_s")
# Per-layer metrics besides the tracer's layer metrics and ratios; the
# stage times come from the untraced pass of the traced run.
EXTRA_LAYER_METRICS = {
    "units_s": "s",
    "witness_s": "s",
    "failed_frac": "ratio",
    "trace.overhead_s": "s",
    "trace.overhead_est_s": "s",
}
PINNED_THREADS = (
    "OPENBLAS_NUM_THREADS",
    "OMP_NUM_THREADS",
    "MKL_NUM_THREADS",
    "NUMEXPR_NUM_THREADS",
    "VECLIB_MAXIMUM_THREADS",
)


def fail(msg):
    print(f"benchmark error: {msg}", file=sys.stderr)
    raise SystemExit(2)


def child_env(src):
    env = dict(os.environ)
    env["PYTHONPATH"] = str(src)
    env["PYTHONHASHSEED"] = "0"
    for var in PINNED_THREADS:
        env[var] = "1"
    return env


def run_child(root, argv):
    """Run worker.py with `argv`; return the JSON of its last output line."""
    try:
        proc = subprocess.run(
            [sys.executable, str(WORKER), *argv], cwd=root,
            env=child_env(root / "src"), capture_output=True, text=True,
            timeout=CHILD_TIMEOUT_S,
        )
    except subprocess.TimeoutExpired:
        fail(f"workload process exceeded {CHILD_TIMEOUT_S} s")
    if proc.returncode != 0:
        sys.stderr.write(proc.stderr)
        fail(f"workload process exited with code {proc.returncode}")
    lines = proc.stdout.strip().splitlines()
    if not lines:
        fail("workload process printed no result")
    return json.loads(lines[-1])


def run_workload(root, args):
    argv = [
        "--workload", args.workload,
        "--seed", str(args.seed),
        "--seconds", str(args.seconds),
        "--trace", str(args.trace),
    ]
    if args.trace:
        out_dir = root / ".bench_out"
        out_dir.mkdir(exist_ok=True)
        argv += ["--spans", str(out_dir / f"spans-{args.workload}-seed{args.seed}.jsonl")]
        return run_child(root, argv)
    imports = [run_child(root, ["--import-only"])["import_s"] for _ in range(IMPORT_PROBES)]
    raw = run_child(root, argv)
    raw["import_samples"] = imports + [raw["import_s"]]
    return raw


def provenance(root, args, raw):
    try:
        commit = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=root, capture_output=True,
            text=True, timeout=10,
        ).stdout.strip() or "unknown"
    except (OSError, subprocess.TimeoutExpired):
        commit = "unknown"
    cpu = platform.processor() or "unknown"
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            cpu = next(
                (ln.split(":", 1)[1].strip() for ln in fh if ln.startswith("model name")),
                cpu,
            )
    except OSError:
        pass
    return {
        "workload": args.workload,
        "seed": args.seed,
        "held_out_seed": HELD_OUT_SEED,
        "commit": commit,
        "python": platform.python_version(),
        "numpy": raw["numpy"],
        "nproc": os.cpu_count(),
        "cpu": cpu,
        "blas_threads": raw["blas_threads"],
        "zgcentral": raw["zgcentral_file"],
    }


def stage_s(record, name):
    """A pass's time in one stage: over all items, the median of each
    item's timings when the stage was repeated."""
    extra = record["resamples"].get(name, {})
    return sum(
        statistics.median([t, *extra.get(item, [])])
        for item, t in record["stages"].get(name, {}).items()
    )


def end_to_end_metrics(raw):
    passes = raw["passes"]

    def stage(name):
        return statistics.median(stage_s(p, name) for p in passes)

    return {
        "setup_s": statistics.median(raw["import_samples"]) + statistics.median(raw["builds"]),
        "solve_s": statistics.median(p["solve_s"] for p in passes),
        "pairs_s": stage("pairs_s"),
        "rank_s": stage("rank_s"),
        "peak_rss_mb": raw["peak_rss_mb"],
    }


def per_layer_metrics(raw, failed_frac):
    out = {name: (value, "s" if name.endswith("_s") else "count")
           for name, value in raw["layers"].items()}
    for name, (value, _, _) in raw["ratios"].items():
        out[name] = (value, "ratio")
    plain = raw["passes"][0]
    values = {name: stage_s(plain, name) for name in STAGE_METRICS}
    values["failed_frac"] = failed_frac
    values["trace.overhead_s"] = raw["traced"]["solve_s"] - plain["solve_s"]
    values["trace.overhead_est_s"] = raw["overhead_est_s"]
    for name, unit in EXTRA_LAYER_METRICS.items():
        out[name] = (values[name], unit)
    return out


def report(args, raw, prov, known):
    checks = raw["checks"]
    failed = sorted(label for label, ok in checks.items() if not ok)
    unexpected = [label for label in failed if label not in known]
    attempted = len(checks)
    failed_frac = len(failed) / attempted if attempted else 1.0

    print("provenance " + json.dumps(prov))
    print("pass solve_s: " + " ".join(f"{p['solve_s']:.3f}" for p in raw["passes"]))
    print("pass wall s (less the speed sampling): "
          + " ".join(f"{p['work_s']:.3f}" for p in raw["passes"]))
    if not args.trace:
        print("set-up builds: " + " ".join(f"{b:.3f}" for b in raw["builds"]))
        print("imports: " + " ".join(f"{t:.3f}" for t in raw["import_samples"]))
    for label in failed:
        observed, expected = raw["details"][label]
        tag = "known defect" if label in known else "UNEXPECTED"
        print(f"check failed ({tag}): {label}: got {observed}, expected {expected}")
    print(f"checks {attempted}, failed {len(failed)}, failed_frac {failed_frac:.6f}, "
          f"unexpected {len(unexpected)}")

    if args.trace:
        metrics = per_layer_metrics(raw, failed_frac)
        for name, (value, num, base) in raw["ratios"].items():
            print(f"ratio {name} = {value:.6f} ({num} / {base})")
        print(f"traced pass {raw['traced']['solve_s']:.3f} s, untraced "
              f"{raw['passes'][0]['solve_s']:.3f} s (difference: trace.overhead_s); "
              f"wrapper cost times calls: {raw['overhead_est_s']:.3f} s "
              f"(trace.overhead_est_s); spans {raw['spans']} written to {raw['spans_path']}")
        if raw["missing"]:
            print("not found in the library (reported as 0): " + ", ".join(raw["missing"]))
    else:
        metrics = {name: (value, END_TO_END[name])
                   for name, value in end_to_end_metrics(raw).items()}
        stages = ", ".join(
            f"{k} {statistics.median(stage_s(p, k) for p in raw['passes']):.4f}"
            for k in STAGE_METRICS
        )
        print(f"median stages outside the end-to-end set: {stages}; "
              f"z refusals {raw['passes'][0]['notes'].get('z_refused', 0)}")
    for name, (value, unit) in metrics.items():
        print(f"{name} {value} {unit}")
    print(json.dumps({
        "correct": not unexpected,
        "attempted": attempted,
        "failed": len(failed),
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()},
    }))


def main():
    ap = argparse.ArgumentParser(description=__doc__,
                                 formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()

    root = Path.cwd()
    if not (root / "src" / "zgcentral" / "__init__.py").is_file():
        fail(f"no zgcentral sources under {root / 'src'}; run from a source checkout")
    raw = run_workload(root, args)
    src = (root / "src").resolve()
    if not Path(raw["zgcentral_file"]).resolve().is_relative_to(src):
        fail(f"zgcentral was imported from {raw['zgcentral_file']}, not from {src}")
    with open(HERE / "expected.json", encoding="utf-8") as fh:
        known = json.load(fh)["known_defects"]
    report(args, raw, provenance(root, args, raw), known)


if __name__ == "__main__":
    main()
