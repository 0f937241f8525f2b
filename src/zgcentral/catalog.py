"""Built-in group catalog.

Names resolve to validated FiniteGroups: cyclic, dihedral, quaternion,
symmetric/alternating samples, elementary abelian groups, and the
order-1000 group "paper-1000-86" (extraspecial 5^3 extended by C8).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .groups import (
    group_from_cayley,
    group_from_pc_presentation,
    group_from_permutations,
    perm_from_cycles,
)


def cyclic(n):
    """C_n, element i being g^i: its table (i + j) mod n is built as one
    int32 array, reduced in place."""
    element = np.arange(n, dtype=np.int32)
    table = np.add.outer(element, element)
    table %= n
    labels = ["e"] + [f"g^{i}" if i > 1 else "g" for i in range(1, n)]
    return group_from_cayley(table, labels=labels)


def dihedral(n):
    """Dihedral group of order 2n (symmetries of the n-gon), n >= 3."""
    rot = perm_from_cycles(n, [list(range(1, n + 1))])
    refl = perm_from_cycles(n, [[i + 1, n - i] for i in range(n // 2) if i + 1 < n - i])
    return group_from_permutations(n, [rot, refl])


def quaternion8():
    return group_from_pc_presentation(
        [2, 2, 2],
        powers={1: [(3, 1)], 2: [(3, 1)]},
        commutators={(2, 1): [(3, 1)]},
    )


def quaternion16():
    # pc generators: x1 = b, x2 = a, x3 = a^2, x4 = a^4 with a^8=1, b^2=a^4,
    # a^b = a^-1
    return group_from_pc_presentation(
        [2, 2, 2, 2],
        powers={1: [(4, 1)], 2: [(3, 1)], 3: [(4, 1)]},
        commutators={(2, 1): [(3, 1), (4, 1)], (3, 1): [(4, 1)]},
    )


def symmetric(n):
    gens = [perm_from_cycles(n, [[1, 2]]), perm_from_cycles(n, [list(range(1, n + 1))])]
    return group_from_permutations(n, gens)


def alternating4():
    gens = [perm_from_cycles(4, [[1, 2], [3, 4]]), perm_from_cycles(4, [[1, 2, 3]])]
    return group_from_permutations(4, gens)


def elementary_abelian(p, k):
    """(Z/p)^k, the pc group of k generators of relative order p."""
    return group_from_pc_presentation([p] * k)


# paper_1000_86's relative orders, powers and commutators
PAPER_1000_86_PC = (
    (2, 2, 2, 5, 5, 5),
    {1: [(2, 1)], 2: [(3, 1)]},
    {
        (4, 1): [(4, 3), (5, 3), (6, 2)],
        (5, 1): [(4, 2), (6, 4)],
        (6, 1): [(6, 2)],
        (4, 2): [(4, 1), (6, 2)],
        (5, 2): [(5, 1), (6, 2)],
        (6, 2): [(6, 3)],
        (4, 3): [(4, 3), (6, 2)],
        (5, 3): [(5, 3), (6, 2)],
        (5, 4): [(6, 1)],
    },
)


def paper_1000_86():
    """The order-1000 group: extraspecial 5^(1+2) of exponent 5 extended
    by a cyclic group of order 8 acting with full order.

    Generators x1..x6 with x1^2 = x2, x2^2 = x3, x3^2 = 1, and x4, x5, x6
    of order 5 with [x5, x4] = x6 central in the 5-part.  The commutators
    of x4 and x5 with x1 in PAPER_1000_86_PC are the unique normal words
    (given the x2-commutators and the mod-center data of the x1-action)
    for which conjugation by x2 is exactly the square of conjugation by
    x1 and the x1-action has order 8.
    """
    return group_from_pc_presentation(*PAPER_1000_86_PC)


@dataclass(frozen=True)
class CatalogEntry:
    name: str
    constructor: object


def catalog():
    entries = []
    for n in range(1, 61):
        entries.append(CatalogEntry(f"C{n}", lambda n=n: cyclic(n)))
    for n in range(3, 26):
        entries.append(CatalogEntry(f"D{n}", lambda n=n: dihedral(n)))
    entries.append(CatalogEntry("Q8", quaternion8))
    entries.append(CatalogEntry("Q16", quaternion16))
    entries.append(CatalogEntry("S3", lambda: symmetric(3)))
    entries.append(CatalogEntry("S4", lambda: symmetric(4)))
    entries.append(CatalogEntry("A4", alternating4))
    for p, k in [(2, 2), (2, 3), (3, 2), (5, 2)]:
        entries.append(
            CatalogEntry(f"E{p**k}", lambda p=p, k=k: elementary_abelian(p, k))
        )
    entries.append(CatalogEntry("paper-1000-86", paper_1000_86))
    return entries


def get_group(name):
    for entry in catalog():
        if entry.name == name:
            return entry.constructor()
    raise KeyError(f"unknown catalog group {name!r}")
