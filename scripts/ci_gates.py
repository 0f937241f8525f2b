#!/usr/bin/env python3
"""CI's gates on the large groups, one named function each.

Each gate builds its groups from `tests/corpus.py`, prints what it
measured, and passes when it returns True.  The workflow runs each gate
as one step under the step's `timeout`, so each bound includes the
group's build.  `tests/test_ci_gates.py` checks that every gate is run
by some step and that every step names a gate.

    python scripts/ci_gates.py NAME    # run one gate, exit 1 when it fails
"""

import argparse
import json
import subprocess
import sys
import tempfile
import tracemalloc
from pathlib import Path

import numpy as np

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "tests"))

import corpus  # noqa: E402
import oracles  # noqa: E402

from zgcentral import rank, shoda  # noqa: E402
from zgcentral.catalog import cyclic, get_group  # noqa: E402
from zgcentral.cyclotomic import reduction_matrix  # noqa: E402
from zgcentral.groupalgebra import center_component_dim  # noqa: E402
from zgcentral.groups import (  # noqa: E402
    all_subgroups,
    check_cyclic_subnormal_hypothesis,
    conjugacy_partition,
    galois_classes,
    galois_orbit_counts,
    right_transversal,
)
from zgcentral.units import bass_central_units, gen_bass_unit, log_rank_witness  # noqa: E402

XC2 = "paper-1000-86 x C2"
MB = 1 << 20

GATES = {}


def gate(fn):
    GATES[fn.__name__] = fn
    return fn


def _both():
    """D1024, then paper-1000-86 x C2, each built as it is reached."""
    return (corpus.build(name) for name in ("D1024", XC2))


@gate
def cyclic_subnormal_c2048():
    """Every cyclic subgroup of C2048 (pc) is subnormal."""
    got = check_cyclic_subnormal_hypothesis(corpus.build("C2048"))
    print(got)
    return got == (True, None)


@gate
def cyclic_subnormal_d1024():
    """Every cyclic subgroup of D1024 is subnormal."""
    got = check_cyclic_subnormal_hypothesis(corpus.build("D1024"))
    print(got)
    return got == (True, None)


def _traced_peak(run):
    """(run(), the bytes it held at most beyond those held before)."""
    before = tracemalloc.get_traced_memory()[0]
    tracemalloc.reset_peak()
    out = run()
    return out, tracemalloc.get_traced_memory()[1] - before


@gate
def build_peaks():
    """C2048 (pc), paper-1000-86 x C2 and catalog.cyclic(2048) each build
    within 1.5 x their table + 1 MiB under tracemalloc, cyclic(2048)'s
    table is (i + j) % n, C2048's Galois class matrix costs at most
    itself + 1 MiB, and the class rows of C2048's n = 2048 pair, with
    reduction_matrix(2048) built first, at most themselves + 2 MiB."""
    builds = {
        "C2048 (pc)": corpus.BUILDERS["C2048"],
        XC2: corpus.BUILDERS[XC2],
        "cyclic(2048)": lambda: cyclic(2048),
    }
    tracemalloc.start()
    bad, built = [], {}
    for name, build in builds.items():
        G, used = _traced_peak(build)
        built[name] = G
        print(name, "table", G.table.nbytes, "peak", used)
        bad += [name] if used > 1.5 * G.table.nbytes + MB else []
    i = np.arange(2048)
    bad += [] if np.array_equal(built["cyclic(2048)"].table, (i[:, None] + i) % 2048) else ["cyclic(2048) table"]
    C = built["C2048 (pc)"]
    _, used = _traced_peak(lambda: galois_orbit_counts(C))
    print("C2048 (pc) galois_orbit_counts", "matrix", galois_classes(C).nbytes, "peak", used)
    bad += [] if used <= galois_classes(C).nbytes + MB else ["galois_classes"]
    lam = shoda.shoda_character(C.whole(), C.trivial())
    reduction_matrix(lam.order)
    rows, used = _traced_peak(lambda: lam.class_rows)
    print("C2048 (pc) n =", lam.order, "class_rows", rows.nbytes, "peak", used)
    bad += [] if used <= rows.nbytes + 2 * MB else ["class_rows"]
    print(bad)
    return not bad


@gate
def d1024_rank():
    """D1024 (exponent 1024, 2058 subgroups) ranks 502 = oracle."""
    G = corpus.build("D1024")
    pairs, complete = shoda.complete_irredundant_set(G)
    report = rank.rank_total(G, pairs, complete)
    print(report.total, report.oracle_total)
    return report.total == report.oracle_total == 502


@gate
def oracle_counts():
    """rank_oracle, which counts Galois orbits on the ordinary classes, is
    502 on D1024 and 2 on paper-1000-86 x C2, the real minus rational
    classes that the power oracle merges."""
    got = [(rank.rank_oracle(G), *oracles.merged_class_counts(G)) for G in _both()]
    print(got)
    return [g[0] for g in got] == [502, 2] and all(o == real - rational for o, real, rational in got)


@gate
def center_degrees():
    """Center degrees of D1024 (13 pairs, 515 classes) and of
    paper-1000-86 x C2 (18 pairs, 26 classes) equal the rank formula's and
    sum to the class count."""
    runs = [(G, *shoda.complete_irredundant_set(G)) for G in _both()]
    got = [(len(pairs), conjugacy_partition(G).reps.size) for G, pairs, _ in runs]
    bad = [
        G.order
        for G, pairs, complete in runs
        if not complete
        or [center_component_dim(p.pci) for p in pairs] != [rank._center_degree(p) for p in pairs]
        or sum(map(rank._center_degree, pairs)) != conjugacy_partition(G).reps.size
    ]
    print(got, bad)
    return got == [(13, 515), (18, 26)] and not bad


@gate
def conjugate_gram_calls():
    """Every conjugate_gram call made while classifying D1024 (13 chain
    levels) and paper-1000-86 x C2 (60 more) gives the Gram vector and
    conjugate sum of the oracle that gathers whole conjugates."""
    kernel, calls = shoda.conjugate_gram, []

    def recorded(a, ts):
        gram, total = kernel(a, ts)
        calls.append((a, ts, gram, total))
        return gram, total

    shoda.conjugate_gram = recorded
    counts = [len(shoda.complete_irredundant_set(G)[0]) and len(calls) for G in _both()]
    bad = [
        (a.group.order, len(ts))
        for a, ts, gram, total in calls
        if [gram.tolist(), total().tolist()] != [x.tolist() for x in oracles.conjugate_gram(a, ts)]
    ]
    print(counts, bad)
    return counts == [13, 73] and not bad


@gate
def right_transversals():
    """Every subgroup's least right transversal in D1024 (2058 subgroups)
    and in paper-1000-86 x C2 (1857) equals the loop oracle's."""
    lattices = [(G, all_subgroups(G)) for G in _both()]
    counts = [len(subs) for _, subs in lattices]
    bad = [
        (G.order, H.order)
        for G, subs in lattices
        for H in subs
        if right_transversal(H) != oracles.right_transversal(H, G.whole())
    ]
    print(counts, bad)
    return counts == [2058, 1857] and not bad


@gate
def characters():
    """Every character shoda_pair_candidates returns for D1024 (17),
    paper-1000-86 x C2 (32) and C2048 (pc) (12) holds the coset log of the
    per-step walk oracle, byte for byte."""
    found = [shoda.shoda_pair_candidates(corpus.build(name)) for name in ("D1024", XC2, "C2048")]
    counts = [len(lams) for lams in found]
    bad = [
        (lam.H.order, lam.K.order)
        for lams in found
        for lam in lams
        if lam.coset_log.tobytes() != oracles.walked_coset_log(lam.H, lam.K).tobytes()
    ]
    print(counts, bad)
    return counts == [17, 32, 12] and not bad


@gate
def subgroup_lattice():
    """Every subgroup of D1024 (2058) and of paper-1000-86 x C2 (1857) is
    the cyclic-extension oracle's, in order, members and generators, and
    its sorted_members array is increasing and read-only."""
    lattices = [(all_subgroups(G), oracles.cyclic_extension_lattice(G)) for G in _both()]
    counts = [(len(got), len(want)) for got, want in lattices]
    bad = [
        S.order
        for got, want in lattices
        for S, T in zip(got, want)
        if S.sorted_members.tolist() != sorted(T.members)
        or S.gens != T.gens
        or S.sorted_members.flags.writeable
        or (np.diff(S.sorted_members) <= 0).any()
    ]
    print(counts, bad)
    return counts == [(2058, 2058), (1857, 1857)] and not bad


def _theorem_1_units(n, want):
    """Theorem 1's units on C_n: their count, witness, rank total and
    oracle all equal `want`."""
    G = cyclic(n)
    pairs, complete = shoda.complete_irredundant_set(G)
    units = [u for _, u in bass_central_units(G)]
    witness = log_rank_witness(G, units, pairs)
    report = rank.rank_total(G, pairs, complete)
    print(len(units), witness, report.total, report.oracle_total)
    return len(units) == witness == report.total == report.oracle_total == want


@gate
def c128_units():
    """C128 (one distinct conjugate per level): 57 units."""
    return _theorem_1_units(128, 57)


@gate
def c256_units():
    """C256 (Bass rows of order 256 with 400-bit coefficients): 120 units."""
    return _theorem_1_units(256, 120)


def _zgcentral(*args):
    """The installed console script's JSON report."""
    done = subprocess.run(["zgcentral", *map(str, args)], capture_output=True, text=True)
    if done.returncode:
        raise SystemExit(f"zgcentral {' '.join(map(str, args))} exited {done.returncode}: {done.stderr}")
    return json.loads(done.stdout)


@gate
def searched_pairs_round_trip():
    """paper-1000-86 x C2's searched pairs, written as a pairs file of
    element indices (H, K and every chain step), classify as the search
    found them through the installed console script."""
    pairs = shoda.complete_irredundant_set(corpus.build(XC2))[0]
    doc = {"pairs": [{"H": p.H.gens, "K": p.K.gens, "chain": [s.gens for s in p.chain.steps]} for p in pairs]}
    with tempfile.TemporaryDirectory() as tmp:
        group, supplied = Path(tmp, "group.json"), Path(tmp, "pairs.json")
        group.write_text(json.dumps(corpus.spec(XC2)))
        supplied.write_text(json.dumps(doc))
        found = _zgcentral("pairs", "--group", group)
        given = _zgcentral("pairs", "--group", group, "--pairs-file", supplied)
    print(len(found["pairs"]), "pairs")
    return found["complete"] and found["pairs"] == given["pairs"] and given["complete"]


@gate
def xc2_z_units():
    """z-units on paper-1000-86 x C2's four generalized_strong pairs are
    400 built and 1056 refused, as the nested-product oracle has them."""
    from test_units import check_z_units_against_nested_products

    G = corpus.build(XC2)
    pairs = [p for p in shoda.complete_irredundant_set(G)[0] if p.status == "generalized_strong"]
    got = (len(pairs), *check_z_units_against_nested_products(G, pairs))
    print(got)
    return got == (4, 400, 1056)


@gate
def c38_gen_bass():
    """The generalized Bass unit on C38 for (k, m) = (3, 18), |M| = 2:
    n_b = 9709, value and inverse integral."""
    G = get_group("C38")
    M = next(M for M in all_subgroups(G) if M.order == 2)
    u = gen_bass_unit(G, 1, M, 3, 18)
    print(u.inputs["n_b"])
    return u.inputs["n_b"] == 9709 and u.value.is_integral() and u.inverse.is_integral()


def main():
    ap = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("name", choices=GATES, help="the gate to run")
    return 0 if GATES[ap.parse_args().name]() else 1


if __name__ == "__main__":
    sys.exit(main())
