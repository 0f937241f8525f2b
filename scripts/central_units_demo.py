#!/usr/bin/env python3
"""Build central units from Bass units and measure their log-rank.

For each subnormal cyclic subgroup of the chosen group, Bass units, each
carrying its closed-form inverse, are pushed to central units of the
whole integral group ring via the transversal product over a subnormal
series (`zgcentral.units.bass_central_units`).
The rank of the subgroup they generate is estimated numerically
(log-absolute-value embedding + SVD) and compared with the
class-counting oracle; the exit status is 1 when the two disagree.
"""

import argparse
import sys

from zgcentral.catalog import get_group
from zgcentral.groups import check_cyclic_subnormal_hypothesis
from zgcentral.rank import rank_oracle
from zgcentral.shoda import complete_irredundant_set
from zgcentral.units import bass_central_units, log_rank_witness


def main():
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--group", default="C12", help="catalog name, e.g. C12, Q8, D4")
    args = ap.parse_args()

    G = get_group(args.group)
    print(f"{args.group}: order {G.order}")
    holds, witness = check_cyclic_subnormal_hypothesis(G)
    print(f"cyclic subgroups subnormal: {holds}" + ("" if holds else f" (witness {witness})"))

    pairs, complete = complete_irredundant_set(G)
    assert complete

    units = [cu for _, cu in bass_central_units(G)]
    print(f"constructed {len(units)} central units")

    witness = log_rank_witness(G, units, pairs)
    oracle = rank_oracle(G)
    print(f"log-rank witness {witness}, oracle {oracle}, agree={witness == oracle}")
    return 0 if witness == oracle else 1


if __name__ == "__main__":
    sys.exit(main())
