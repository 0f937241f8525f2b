#!/usr/bin/env python3
"""Cross-check the rank formula against the class-counting oracle.

Runs the full pipeline (pair search, classification, rank formula) over
every catalog group up to a given order and reports any disagreement.
Every pair also goes through the center-degree check, which compares
the square of its central idempotent with it at one element of each
conjugacy class, so each idempotent is checked to be one.  The number of
pairs must equal the number of rational conjugacy classes, the number of
Wedderburn components of QG: one per orbit of the units mod the exponent
on the ordinary classes, the rational count of
`groups.galois_orbit_counts`, which `rank.rank_oracle` reads too.  The
centers of those components tile Z(QG): their dimensions must add up to
the number of ordinary classes.
The idempotent that a pair's strong inductive chain carries to its top
must be the pair's primitive central idempotent, as the test suite's
Galois-orbit-sum oracle (`tests/oracles.py`) computes it.
"""

import argparse
import sys
import time
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "tests"))

from oracles import galois_pci
from zgcentral.catalog import catalog
from zgcentral.groupalgebra import center_component_dim
from zgcentral.groups import conjugacy_partition, galois_orbit_counts
from zgcentral.rank import rank_total, verify_center_degree
from zgcentral.shoda import complete_irredundant_set


def main():
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--max-order", type=int, default=100)
    args = ap.parse_args()

    failures = 0
    start = time.monotonic()
    for entry in catalog():
        G = entry.constructor()
        if G.order > args.max_order:
            continue
        t0 = time.monotonic()
        pairs, complete = complete_irredundant_set(G)
        if not complete:
            print(f"{entry.name:>14}  INCOMPLETE pair set")
            failures += 1
            continue
        report = rank_total(G, pairs, complete=True)
        bad_degree = sum(not verify_center_degree(G, p) for p in pairs)
        bad_top = sum(p.chain.top != galois_pci(p.lam) for p in pairs)
        components = galois_orbit_counts(G)[1]
        classes = conjugacy_partition(G).reps.size
        mark = "ok"
        if not report.agree:
            mark = "MISMATCH"
        elif len(pairs) != components:
            mark = f"{components} RATIONAL CLASSES"
        elif bad_degree:
            mark = f"CENTER DEGREE FAILED on {bad_degree} pair(s)"
        elif bad_top:
            mark = f"CHAIN TOP IS NOT THE PCI on {bad_top} pair(s)"
        # after the degree check, so that every idempotent is a central one
        elif (center_dim := sum(center_component_dim(p.pci) for p in pairs)) != classes:
            mark = f"CENTERS SPAN {center_dim} OF {classes} CLASSES"
        if mark != "ok":
            failures += 1
        print(
            f"{entry.name:>14}  order {G.order:>4}  pairs {len(pairs):>3}  "
            f"rank {report.total:>3}  oracle {report.oracle_total:>3}  "
            f"{mark}  ({time.monotonic() - t0:.2f}s)"
        )
    print(f"done in {time.monotonic() - start:.1f}s, {failures} failure(s)")
    raise SystemExit(1 if failures else 0)


if __name__ == "__main__":
    main()
