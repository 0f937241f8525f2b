#!/usr/bin/env python3
"""Full central-unit rank analysis of the order-1000 showcase group.

Loads the bundled candidate pair list, classifies each pair (strong /
generalized strong), prints the per-pair rank contributions, and checks
the total against the conjugacy-class-counting oracle.  Exits with
status 1 when the set is incomplete, the total disagrees with the oracle,
or a center-degree check fails.
"""

import json
import sys
import time
from importlib import resources

from zgcentral.catalog import get_group
from zgcentral.cli import parse_pairs_file
from zgcentral.rank import rank_total, verify_center_degree
from zgcentral.shoda import complete_irredundant_set


def main():
    start = time.monotonic()
    G = get_group("paper-1000-86")
    with resources.files("zgcentral.data").joinpath("paper9.json").open() as fh:
        candidates = parse_pairs_file(G, json.load(fh))
    pairs, complete = complete_irredundant_set(G, candidates=candidates)
    print(f"group order {G.order}, {len(pairs)} pairs, complete={complete}")
    report = rank_total(G, pairs, complete=complete)
    header = f"{'|H|':>5} {'|K|':>5} {'[H:K]':>6} {'status':>20} {'indices':>10} {'k':>2} {'term':>5}"
    print(header)
    degrees_ok = True
    for t in report.terms:
        ok = verify_center_degree(G, t.pair)
        degrees_ok = degrees_ok and ok
        print(
            f"{t.pair.H.order:>5} {t.pair.K.order:>5} {t.pair.index:>6} "
            f"{t.pair.status:>20} {'x'.join(map(str, t.pair.chain.indices)):>10} "
            f"{t.k:>2} {t.term:>5}  center-degree {'ok' if ok else 'FAIL'}"
        )
    print(f"total rank {report.total}, oracle {report.oracle_total}, agree={report.agree}")
    print(f"elapsed {time.monotonic() - start:.1f}s")
    return 0 if complete and report.agree and degrees_ok else 1


if __name__ == "__main__":
    sys.exit(main())
