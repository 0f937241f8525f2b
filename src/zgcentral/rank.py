"""Rank of the group of central units of ZG.

Per classified pair the center of the associated simple component is a
field of degree phi([H:K]) / prod [C_i:H_i]; its unit group contributes
that degree divided by k (1 if the field is totally real, else 2) minus
one to the rank.  k is read off the pair's induced-character class rows
(`LinearCharacter.class_rows`): it is 1 exactly when complex conjugation
sigma_-1 fixes them, that is, when the t = -1 row of
`groups.galois_classes` does.  The independent oracle counts real minus
rational conjugacy classes, the orbits of {1, -1} and of all units mod
the exponent on the ordinary classes, which `galois_classes` also gives.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .cyclotomic import euler_phi
from .errors import DivisibilityViolation, IncompleteSet, NotCentral, NotIdempotent
from .groupalgebra import center_component_dim
from .groups import conjugacy_partition, galois_classes
from .shoda import is_complete


@dataclass
class RankTerm:
    pair: object
    index_HK: int
    chain_indices: list
    k: int
    term: int


@dataclass
class RankReport:
    terms: list
    total: int
    oracle_total: int

    @property
    def agree(self):
        return self.total == self.oracle_total


def k_of_pair(G, pair):
    """1 if the induced character chi is real-valued (totally real center),
    else 2; decided exactly.

    chi(g^-1) = sigma_-1(chi(g)), so chi is real exactly when the last
    row of `galois_classes` (t = -1) fixes its class rows.
    """
    rows = pair.lam.class_rows
    return 1 if np.array_equal(rows[galois_classes(G)[-1]], rows) else 2


def rank_term(G, pair):
    """The pair's contribution phi([H:K]) / (k * prod indices) - 1."""
    if pair.chain is None:
        raise DivisibilityViolation("pair has no verified chain")
    k = k_of_pair(G, pair)
    denom = k
    for idx in pair.chain.indices:
        denom *= idx
    phi = euler_phi(pair.index)
    if phi % denom != 0:
        raise DivisibilityViolation(
            f"phi({pair.index}) = {phi} not divisible by {denom}"
        )
    return RankTerm(
        pair=pair,
        index_HK=pair.index,
        chain_indices=list(pair.chain.indices),
        k=k,
        term=phi // denom - 1,
    )


def rank_total(G, pairs, complete=None):
    """Sum of rank terms over a complete irredundant set, with oracle."""
    if complete is None:
        complete = is_complete(G, pairs)
    if not complete:
        raise IncompleteSet("pair set does not cover the group algebra")
    terms = [rank_term(G, p) for p in pairs]
    return RankReport(
        terms=terms,
        total=sum(t.term for t in terms),
        oracle_total=rank_oracle(G),
    )


def rank_oracle(G):
    """Number of real conjugacy classes minus number of rational ones."""
    real = conjugacy_partition(G, "real")
    rational = conjugacy_partition(G, "rational")
    return real.reps.size - rational.reps.size


def verify_center_degree(G, pair):
    """Exact check that dim_Q of the component's center matches
    phi([H:K]) / prod [C_i:H_i].  False also when the pair's idempotent
    is not a central idempotent.

    The center of QGe is isomorphic to Q(chi), chi the pair's induced
    character, of degree the number of Galois conjugates of chi.  That
    dimension is read off with no elimination, as the trace of the
    projection z -> z e of Z(QG) onto the center (`center_component_dim`)."""
    if pair.chain is None:
        return False
    denom = 1
    for idx in pair.chain.indices:
        denom *= idx
    phi = euler_phi(pair.index)
    if phi % denom != 0:
        return False
    try:
        return center_component_dim(pair.pci) == phi // denom
    except (NotCentral, NotIdempotent):
        return False
