"""The benchmark's workloads: inputs made from a seed, timed passes, checks.

Each workload has a `build(seed)` that makes its inputs (the set-up: group
construction and input files) and a `run(state, ctx)` that does one pass
of the timed work.  Library calls go through module attributes
(`shoda.complete_irredundant_set`, ...) so that the tracer's wrappers see
them.  Every output is checked against `expected.json`; a wrong value is
recorded as a failed check and the pass goes on.
"""

from __future__ import annotations

import json
import random
from collections import Counter, defaultdict
from contextlib import contextmanager
from pathlib import Path

import zgcentral
from speedclock import CLOCK
from zgcentral import cli, errors, groups, rank, shoda, units

EXPECTED_PATH = Path(__file__).with_name("expected.json")


def load_expected():
    with open(EXPECTED_PATH, encoding="utf-8") as fh:
        return json.load(fh)


class Context:
    """Stage timers, checks and notes of one pass.

    `stages[stage][item]` is the time spent in a stage while working on an
    item (a group) and `resamples[stage][item]` lists repeated timings of
    that stage; `excluded_s` is the time of the repeats, which is not part
    of the pass.  Times are in reference-speed seconds (speedclock);
    `excluded_work_s` is `excluded_s` in work seconds."""

    def __init__(self, expected, tracer=None):
        self.expected = expected
        self.tracer = tracer
        self.stages = defaultdict(Counter)
        self.resamples = defaultdict(lambda: defaultdict(list))
        self.excluded_s = 0.0
        self.excluded_work_s = 0.0
        self.current = None
        self.checks = {}  # label -> passed
        self.details = {}  # label -> (observed, expected) of failed checks
        self.notes = Counter()

    @contextmanager
    def stage(self, name):
        start = CLOCK.now()
        try:
            yield
        finally:
            self.stages[name][self.current] += CLOCK.since(start)[0]

    @contextmanager
    def item(self, name):
        """Attribute stage times and spans to one workload item (a group)."""
        tracer = self.tracer
        if tracer is not None:
            tracer.item = name
        self.current = name
        try:
            yield
        finally:
            self.current = None
            if tracer is not None:
                tracer.item = None

    @contextmanager
    def resample(self, name):
        """Time one more run of a stage's work; untraced, and left out of
        the pass time."""
        tracer = self.tracer
        enabled = tracer is not None and tracer.enabled
        if enabled:
            tracer.enabled = False
        start = CLOCK.now()
        try:
            yield
        finally:
            dt, work = CLOCK.since(start)
            self.resamples[name][self.current].append(dt)
            self.excluded_s += dt
            self.excluded_work_s += work
            if enabled:
                tracer.enabled = True

    def check(self, label, observed, expected=True):
        """Record whether `observed == expected`; a repeated label gets a
        numeric suffix so that every check is counted."""
        base, k = label, 1
        while label in self.checks:
            k += 1
            label = f"{base} #{k}"
        ok = observed == expected
        self.checks[label] = ok
        if not ok:
            self.details[label] = (repr(observed), repr(expected))
        return ok


# The rank stage is short next to the pairs stage, so it is timed at least
# RANK_SAMPLES times per item, and again while its timings add up to less
# than RANK_MIN_S (at most RANK_MAX_SAMPLES times), and the median kept
# (the repeats reuse the pair set).  A few-millisecond stage gets many
# timings, a stage of a second three.
RANK_SAMPLES = 3
RANK_MIN_S = 0.05
RANK_MAX_SAMPLES = 30


def _pair_tag(pair):
    return f"H{pair.H.order}/K{pair.K.order}"


def _error(exc):
    """A library exception as a failed check's observed value; the pass
    goes on with the next item."""
    return f"{type(exc).__name__}: {exc}"


def _pairs_and_rank(G, name, ctx, candidates=None, center_degree=True):
    """Complete pair set, rank with oracle and (optionally) the center
    degree of every pair.

    Returns (pairs, report), or None after recording a failure when the
    library raises."""
    try:
        with ctx.stage("pairs_s"):
            pairs, complete = shoda.complete_irredundant_set(G, candidates=candidates)
        ctx.notes["pairs_kept"] += len(pairs)
        ctx.check(f"{name} complete", complete)

        def rank_stage():
            report = rank.rank_total(G, pairs, complete=complete)
            degrees = [
                (p, rank.verify_center_degree(G, p)) for p in pairs if center_degree
            ]
            return report, degrees

        with ctx.stage("rank_s"):
            report, degrees = rank_stage()
        timings = ctx.resamples["rank_s"][ctx.current]
        first = ctx.stages["rank_s"][ctx.current]
        while len(timings) + 1 < RANK_SAMPLES or (
            len(timings) + 1 < RANK_MAX_SAMPLES and first + sum(timings) < RANK_MIN_S
        ):
            with ctx.resample("rank_s"):
                rank_stage()
    except Exception as exc:
        ctx.check(f"{name} analysis", _error(exc), "no error")
        return None
    ctx.check(f"{name} rank agrees with oracle", report.total, report.oracle_total)
    for p, ok in degrees:
        ctx.check(f"{name} center degree {_pair_tag(p)}", ok)
    return pairs, report


# -- order1000 ------------------------------------------------------------------


def build_order1000(seed):
    G = cli.resolve_group("catalog:paper-1000-86")
    path = Path(zgcentral.__file__).with_name("data") / "paper9.json"
    with open(path, encoding="utf-8") as fh:
        doc = json.load(fh)
    random.Random(seed).shuffle(doc["pairs"])
    return {"G": G, "doc": doc}


def run_order1000(state, ctx):
    G, doc = state["G"], state["doc"]
    exp = ctx.expected["order1000"]
    name = "paper-1000-86"
    with ctx.item(name):
        try:
            with ctx.stage("pairs_s"):
                candidates = cli.parse_pairs_file(G, doc)
        except Exception as exc:
            ctx.check(f"{name} parse", _error(exc), "no error")
            return
        result = _pairs_and_rank(G, name, ctx, candidates=candidates)
    if result is None:
        return
    pairs, report = result
    statuses = Counter(p.status for p in pairs)
    ctx.check(f"{name} pair count", len(pairs), exp["pairs"])
    ctx.check(f"{name} statuses", dict(sorted(statuses.items())), exp["statuses"])
    ctx.check(f"{name} indices", sorted(p.index for p in pairs), exp["indices"])
    ctx.check(
        f"{name} chain profiles",
        sorted(list(p.chain.indices) for p in pairs if p.chain is not None),
        exp["chain_profiles"],
    )
    ctx.check(f"{name} k values", sorted(t.k for t in report.terms), exp["k_values"])
    ctx.check(f"{name} rank", report.total, exp["rank"])
    ctx.check(f"{name} oracle", report.oracle_total, exp["rank"])


# -- catalog-sweep ----------------------------------------------------------------


# Every catalog group of order 2-24 (all four families: cyclic, dihedral,
# Q/S/A, elementary abelian), then E25 and the costly tail D20-D25 and
# C48-C60.  Orders 25-47 are left out so that a pass fits the run length.
SWEEP = (
    tuple(f"C{n}" for n in range(2, 25))
    + tuple(f"D{n}" for n in range(3, 13))
    + ("Q8", "Q16", "S3", "S4", "A4", "E4", "E8", "E9", "E25")
    + tuple(f"D{n}" for n in range(20, 26))
    + tuple(f"C{n}" for n in range(48, 61))
)


def build_catalog_sweep(seed):
    entries = {e.name: e for e in zgcentral.catalog()}
    built = [(name, entries[name].constructor()) for name in SWEEP]
    random.Random(seed).shuffle(built)
    return {"groups": built}


def run_catalog_sweep(state, ctx):
    ranks = ctx.expected["catalog_rank"]
    for name, G in state["groups"]:
        with ctx.item(name):
            result = _pairs_and_rank(G, name, ctx)
        if result is not None:
            ctx.check(f"{name} rank", result[1].total, ranks[name])


# -- central-units ------------------------------------------------------------------

C_GROUPS = ("C20", "C21", "C24", "C30", "C36", "E25", "Q16")
Z_GROUPS = ("D5", "D7", "D11")


def build_central_units(seed):
    return {
        "groups": [(name, zgcentral.get_group(name)) for name in C_GROUPS + Z_GROUPS],
        "seed": seed,
    }


def _check_unit(ctx, label, G, cu):
    """Integral, augmentation +-1 and central: checked here, independently
    of the construction's own `is_central_unit`."""
    v = cu.value
    ok = (
        v.is_integral()
        and abs(v.augmentation()) == 1
        and all(v.conj(g) == v for g in G.generators)
    )
    ctx.check(label, ok)


def _c_units(G, name, ctx, rng):
    """Bass units on every cyclic subgroup, pushed up a subnormal series
    with random transversals."""
    built, seen = [], set()
    for g in range(G.order):
        H = groups.subgroup_closure(G, [g])
        if H.members in seen:
            continue
        seen.add(H.members)
        series = groups.subnormal_series(H)
        steps = series.steps
        for spec in units.bass_specs_for(G, g):
            tv = [
                units.random_right_transversal(steps[i], steps[i + 1], rng)
                for i in range(len(steps) - 1)
            ]
            label = f"{name} c-unit g{g} k{spec.k}"
            try:
                cu = units.c_central_unit(units.bass_unit(G, spec), series, transversals=tv)
            except Exception as exc:
                ctx.check(label, _error(exc), "no error")
                continue
            _check_unit(ctx, label, G, cu)
            built.append(cu)
    return built


def _z_units(G, name, pairs, ctx):
    """z-construction on the Bass units of each chained pair's first
    generator; a failed precondition is a refusal, not a failure."""
    for p in pairs:
        if p.chain is None:
            continue
        g = p.H.gens[0] if p.H.gens else 0
        for spec in units.bass_specs_for(G, g):
            label = f"{name} z-unit {_pair_tag(p)} k{spec.k}"
            try:
                cu = units.z_central_unit(units.bass_unit(G, spec), p)
            except errors.PreconditionFailed:
                ctx.notes["z_refused"] += 1
                continue
            except Exception as exc:
                ctx.check(label, _error(exc), "no error")
                continue
            _check_unit(ctx, label, G, cu)


def run_central_units(state, ctx):
    exp = ctx.expected["central_units"]
    rng = random.Random(state["seed"])
    for name, G in state["groups"]:
        with ctx.item(name):
            result = _pairs_and_rank(G, name, ctx, center_degree=False)
            if result is None:
                continue
            pairs, report = result
            ctx.check(f"{name} oracle", report.oracle_total, exp["oracle"][name])
            if name in Z_GROUPS:
                with ctx.stage("units_s"):
                    _z_units(G, name, pairs, ctx)
                continue
            with ctx.stage("units_s"):
                built = _c_units(G, name, ctx, rng)
            ctx.check(f"{name} unit count", len(built), exp["unit_count"][name])
            try:
                with ctx.stage("witness_s"):
                    witness = units.log_rank_witness(G, built, pairs)
            except Exception as exc:
                witness = _error(exc)
            ctx.check(f"{name} witness", witness, report.oracle_total)


WORKLOADS = {
    "order1000": (build_order1000, run_order1000),
    "catalog-sweep": (build_catalog_sweep, run_catalog_sweep),
    "central-units": (build_central_units, run_central_units),
}
