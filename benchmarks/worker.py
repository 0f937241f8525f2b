"""One workload in one fresh process; prints its raw measurements as JSON.

Started by run.py with `src` on PYTHONPATH.  Untraced (--trace 0): the
inputs are built afresh before every pass (each build is one set-up
sample), the library's caches are cleared, and passes repeat until
--seconds of wall time have gone by.  Times are in reference-speed
seconds (speedclock.py: the host's speed is sampled all through the
process, the import included).  The repeats of the rank stage a pass
makes (see workloads.RANK_SAMPLES) are left out of its time.  Traced
(--trace 1): wall time, one untraced pass, then one pass (and its build)
under the tracer.
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import resource
import sys
from pathlib import Path
from time import perf_counter

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

from speedclock import CLOCK  # noqa: E402

CLOCK.start()
_T0 = CLOCK.now()

import workloads  # noqa: E402  (imports zgcentral; timed as set-up)
import numpy  # noqa: E402  (already loaded by zgcentral)

IMPORT_S = CLOCK.since(_T0)[0]

# Set-up samples per run: at least MIN_BUILDS, more while they add up to
# less than BUILD_SECONDS (cheap set-ups get more samples), at most MAX_BUILDS.
MIN_BUILDS = 3
MAX_BUILDS = 20
BUILD_SECONDS = 1.0


def clear_caches():
    """Empty every functools cache in the package, as in a new process."""
    for name, module in list(sys.modules.items()):
        if module is None or not (name == "zgcentral" or name.startswith("zgcentral.")):
            continue
        for value in vars(module).values():
            clear = getattr(value, "cache_clear", None)
            if callable(clear):
                clear()


def timed_build(build, seed):
    start = CLOCK.now()
    state = build(seed)
    return state, CLOCK.since(start)[0]


def timed_pass(run, state, ctx):
    """Time of one pass, less the stage repeats it made, and its work
    time (wall time less the clock's sampling)."""
    clear_caches()
    gc.collect()
    start = CLOCK.now()
    run(state, ctx)
    solve_s, work_s = CLOCK.since(start)
    return solve_s - ctx.excluded_s, work_s - ctx.excluded_work_s


def pass_record(timing, ctx):
    solve_s, work_s = timing
    return {
        "solve_s": solve_s,
        "work_s": work_s,
        "stages": {stage: dict(by_item) for stage, by_item in ctx.stages.items()},
        "resamples": {stage: dict(by_item) for stage, by_item in ctx.resamples.items()},
        "notes": dict(ctx.notes),
    }


def merge_checks(contexts):
    """A check passes only if it passed in every pass."""
    checks, details = {}, {}
    for ctx in contexts:
        for label, ok in ctx.checks.items():
            checks[label] = checks.get(label, True) and ok
        details.update(ctx.details)
    return checks, details


def measure(build, run, seed, seconds, expected):
    builds, passes, contexts = [], [], []
    start = perf_counter()
    while not passes or perf_counter() - start < seconds:
        state, build_s = timed_build(build, seed)
        builds.append(build_s)
        ctx = workloads.Context(expected)
        passes.append(pass_record(timed_pass(run, state, ctx), ctx))
        contexts.append(ctx)
        del state
    while len(builds) < MIN_BUILDS or (
        sum(builds) < BUILD_SECONDS and len(builds) < MAX_BUILDS
    ):
        builds.append(timed_build(build, seed)[1])
    checks, details = merge_checks(contexts)
    return {"builds": builds, "passes": passes, "checks": checks, "details": details}


def measure_traced(build, run, seed, expected, spans_path):
    from tracer import TARGETS, Tracer, call_costs

    CLOCK.stop()  # traced runs report wall time
    tracer = Tracer()
    tracer.install()
    state, _ = timed_build(build, seed)
    plain = workloads.Context(expected)
    plain_t = timed_pass(run, state, plain)
    del state

    traced = workloads.Context(expected, tracer=tracer)
    tracer.enabled = True
    tracer.item = "setup"
    state, _ = timed_build(build, seed)
    tracer.item = None
    traced_t = timed_pass(run, state, traced)
    tracer.enabled = False

    notes = dict(traced.notes)
    checks, details = merge_checks([plain, traced])
    tracer.write_spans(spans_path)
    per_span, per_count = call_costs()
    counted = sum(
        tracer.calls[f"{mod}.{qual}"] for mod, qual, kind, _ in TARGETS if kind == "counter"
    )
    return {
        "passes": [pass_record(plain_t, plain)],
        "traced": pass_record(traced_t, traced),
        "layers": tracer.layer_metrics(),
        "ratios": tracer.ratios(notes),
        "missing": tracer.missing,
        "spans": len(tracer.spans),
        "overhead_est_s": len(tracer.spans) * per_span + counted * per_count,
        "spans_path": str(spans_path),
        "checks": checks,
        "details": details,
    }


def main():
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--import-only", action="store_true",
                    help="print only the import time (a set-up sample)")
    ap.add_argument("--workload", choices=sorted(workloads.WORKLOADS))
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float, default=1.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--spans", help="where a traced run writes its spans")
    args = ap.parse_args()
    if args.import_only:
        CLOCK.stop()
        print(json.dumps({"import_s": IMPORT_S}))
        return

    build, run = workloads.WORKLOADS[args.workload]
    expected = workloads.load_expected()
    try:
        if args.trace:
            out = measure_traced(build, run, args.seed, expected, Path(args.spans))
        else:
            out = measure(build, run, args.seed, args.seconds, expected)
    finally:
        CLOCK.stop()
    out["import_s"] = IMPORT_S
    out["numpy"] = numpy.__version__
    out["zgcentral_file"] = workloads.zgcentral.__file__
    out["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    out["blas_threads"] = os.environ.get("OPENBLAS_NUM_THREADS")
    print(json.dumps(out))


if __name__ == "__main__":
    main()
