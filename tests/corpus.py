#!/usr/bin/env python3
"""The large groups that CI checks, each defined once.

`build(name)` makes the group.  A pc group is also given as group-input
JSON (`spec(name)`), the file the console-script steps pass to
`zgcentral --group`; `tests/test_ci_gates.py` checks that each spec
builds through `cli.load_group_spec` to its builder's table, byte for
byte, and validates against docs/schemas/group-input.schema.json.

    python tests/corpus.py NAME    # print NAME's group-input JSON
"""

import json
import sys

from zgcentral.catalog import PAPER_1000_86_PC, dihedral, elementary_abelian
from zgcentral.groups import group_from_pc_presentation

_ORDERS, _POWERS, _COMMUTATORS = PAPER_1000_86_PC

# name -> (relative orders, powers, commutators), as group_from_pc_presentation takes them
PRESENTATIONS = {
    # x7 of order 2, central
    "paper-1000-86 x C2": ([*_ORDERS, 2], _POWERS, _COMMUTATORS),
    # eleven order-2 generators, x_i^2 = x_(i+1)
    "C2048": ([2] * 11, {i: [(i + 1, 1)] for i in range(1, 11)}, {}),
    "E64": ([2] * 6, {}, {}),
}

BUILDERS = {
    "paper-1000-86 x C2": lambda: group_from_pc_presentation(*PRESENTATIONS["paper-1000-86 x C2"]),
    # from permutations, order 2048
    "D1024": lambda: dihedral(1024),
    "C2048": lambda: group_from_pc_presentation(*PRESENTATIONS["C2048"]),
    "E64": lambda: elementary_abelian(2, 6),
}


def build(name):
    return BUILDERS[name]()


def spec(name):
    """NAME's group-input JSON object: powers keyed "i", commutators "j,i"."""
    orders, powers, commutators = PRESENTATIONS[name]
    doc = {"type": "pc", "orders": list(orders)}
    if powers:
        doc["powers"] = {str(i): [list(t) for t in word] for i, word in powers.items()}
    if commutators:
        doc["commutators"] = {
            f"{j},{i}": [list(t) for t in word] for (j, i), word in commutators.items()
        }
    return doc


if __name__ == "__main__":
    if len(sys.argv) != 2 or sys.argv[1] not in PRESENTATIONS:
        sys.exit(f"usage: {sys.argv[0]} {{{','.join(PRESENTATIONS)}}}")
    print(json.dumps(spec(sys.argv[1])))
