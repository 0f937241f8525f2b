"""Tests of the benchmark itself (run with `python -m pytest benchmarks`).

They use small groups so that they finish in seconds; the full workloads
run only through run.py.
"""

import copy
import json
import subprocess
import sys
import time
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))
sys.path.insert(0, str(Path(__file__).resolve().parent))

import run  # noqa: E402
import speedclock  # noqa: E402
import tracer  # noqa: E402
import workloads  # noqa: E402
from zgcentral import get_group  # noqa: E402


def failed(ctx):
    return sorted(label for label, ok in ctx.checks.items() if not ok)


def small_sweep(expected, names=("C2", "S3", "Q8")):
    ctx = workloads.Context(expected)
    workloads.run_catalog_sweep({"groups": [(n, get_group(n)) for n in names]}, ctx)
    return ctx


def test_catalog_checks_pass_on_pinned_values():
    ctx = small_sweep(workloads.load_expected())
    assert ctx.checks and not failed(ctx)
    timings = [ctx.stages["rank_s"]["S3"], *ctx.resamples["rank_s"]["S3"]]
    assert workloads.RANK_SAMPLES <= len(timings) <= workloads.RANK_MAX_SAMPLES
    assert len(timings) == workloads.RANK_MAX_SAMPLES or sum(timings) >= workloads.RANK_MIN_S
    assert ctx.excluded_s == pytest.approx(
        sum(sum(ts) for ts in ctx.resamples["rank_s"].values())
    )


def test_perturbed_expected_rank_is_counted_as_failure():
    expected = copy.deepcopy(workloads.load_expected())
    expected["catalog_rank"]["S3"] += 1
    ctx = small_sweep(expected)
    assert failed(ctx) == ["S3 rank"]
    assert ctx.details["S3 rank"] == ("0", "1")


def test_perturbed_expected_oracle_is_counted_as_failure():
    expected = copy.deepcopy(workloads.load_expected())
    expected["central_units"]["oracle"]["Q16"] = 2
    ctx = workloads.Context(expected)
    workloads.run_central_units({"groups": [("Q16", get_group("Q16"))], "seed": 1}, ctx)
    assert failed(ctx) == ["Q16 oracle"]
    assert ctx.stages["units_s"]["Q16"] > 0 and ctx.stages["witness_s"]["Q16"] > 0


def test_repeated_labels_are_counted_separately():
    ctx = workloads.Context({})
    ctx.check("x", True)
    ctx.check("x", False)
    assert ctx.checks == {"x": True, "x #2": False}


def test_speed_clock_scales_work_time_by_sampled_speed():
    clock = speedclock.SpeedClock()
    clock.start()
    try:
        mark = clock.now()
        end = time.perf_counter() + 0.8
        while time.perf_counter() < end:
            pass
        ref_s, work_s = clock.since(mark)
        n = clock.samples - mark.samples
        speed = (clock.speed_sum - mark.speed_sum) / n
    finally:
        clock.stop()
    assert n >= speedclock.MIN_SAMPLES
    assert clock.handler_s > 0 and 0 < work_s < 0.8
    assert ref_s == pytest.approx(work_s * speed)
    mark = clock.now()  # stopped: wall time
    ref_s, work_s = clock.since(mark)
    assert ref_s == work_s


def test_benchmark_json_names_every_reported_metric():
    with open(ROOT / "BENCHMARK.json", encoding="utf-8") as fh:
        bench = json.load(fh)
    assert [w["name"] for w in bench["workloads"]] == list(run.WORKLOADS)
    assert [m["name"] for m in bench["end_to_end"]] == list(run.END_TO_END)
    per_layer = tracer.metric_names() + list(tracer.RATIOS) + list(run.EXTRA_LAYER_METRICS)
    assert [m["name"] for m in bench["per_layer"]] == per_layer


def test_tracer_wraps_imported_bindings_and_splits_self_time():
    from zgcentral import groups, rank, units

    t = tracer.Tracer()
    t.install()
    assert not t.missing
    assert rank.conjugacy_partition is groups.conjugacy_partition
    assert units.conjugacy_partition is groups.conjugacy_partition
    assert groups.conjugacy_partition.__wrapped__ is not None

    ctx = workloads.Context(workloads.load_expected(), tracer=t)
    state = {"groups": [("S4", get_group("S4"))]}
    t.enabled = True
    workloads.run_catalog_sweep(state, ctx)
    t.enabled = False
    assert not failed(ctx)
    layers = t.layer_metrics()
    for name in ("groups.all_subgroups", "shoda.pci", "rank.rank_oracle"):
        assert layers[f"{name}.calls"] > 0
        assert 0 < layers[f"{name}.self_s"] <= layers[f"{name}.total_s"] + 1e-9
    assert {s[5] for s in t.spans} == {"S4"}
    ratios = t.ratios(ctx.notes)
    assert 0 < ratios["shoda.pci.kept_ratio"][0] <= 1
    assert ratios["groups.conjugacy_partition.per_group_kind"][2] == 3


def test_run_refuses_a_directory_without_sources(tmp_path):
    proc = subprocess.run(
        [sys.executable, str(ROOT / "benchmarks" / "run.py"), "--workload", "order1000",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode != 0
    assert proc.stdout == ""
