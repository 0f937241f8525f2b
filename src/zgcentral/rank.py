"""Rank of the group of central units of ZG.

Per classified pair the center of the associated simple component is a
field of degree phi([H:K]) / prod [C_i:H_i]; its unit group contributes
that degree divided by k (1 if the field is totally real, else 2) minus
one to the rank.  k is read off the pair's induced-character class rows
(`LinearCharacter.class_rows`): it is 1 exactly when complex conjugation
sigma_-1 fixes them, that is, when the row of each class equals the row
of its inverses' class (the partition's `inverse`).  The independent
oracle counts real minus rational conjugacy classes, the orbits of
{1, -1} and of all units mod the exponent on the ordinary classes
(`groups.galois_classes`), each orbit at its least class id.
"""

from __future__ import annotations

import math
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

    chi(g^-1) = sigma_-1(chi(g)), so chi is real exactly when its class
    rows, gathered at the classes of the representatives' inverses (the
    partition's `inverse`, built once per group), are unchanged.
    """
    rows = pair.lam.class_rows
    return 1 if (rows[conjugacy_partition(G).inverse] == rows).all() else 2


def _center_degree(pair, k=1):
    """phi([H:K]) / (k * prod [C_i:H_i]) over the pair's chain, or None
    when that is not an integer."""
    phi, denom = euler_phi(pair.index), k * math.prod(pair.chain.indices)
    return phi // denom if phi % denom == 0 else None


def rank_term(G, pair):
    """The pair's contribution phi([H:K]) / (k * prod indices) - 1."""
    k = k_of_pair(G, pair)
    degree = _center_degree(pair, k)
    if degree is None:
        raise DivisibilityViolation(
            f"phi({pair.index}) = {euler_phi(pair.index)} not divisible by "
            f"{k * math.prod(pair.chain.indices)}"
        )
    return RankTerm(pair=pair, k=k, term=degree - 1)


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
    """Number of real conjugacy classes minus number of rational ones.

    These are the orbits on the ordinary classes of {1, -1} and of all
    units mod the exponent, rows 0 and -1 and all rows of
    `galois_classes`.  Each orbit is counted at its least class id c:
    c <= P[-1][c] for a real one, c = min_i P[i][c] for a rational one.
    Memoized per group."""
    out = G._conjugacy.get("oracle")
    if out is None:
        P = galois_classes(G)
        ids = np.arange(P.shape[1])
        real = np.count_nonzero(ids <= P[-1])
        rational = np.count_nonzero(ids == P.min(axis=0))
        out = G._conjugacy["oracle"] = int(real - rational)
    return out


def verify_center_degree(G, pair):
    """Exact check that dim_Q of the component's center matches
    phi([H:K]) / prod [C_i:H_i].  False also when the pair's idempotent
    is not a central idempotent.

    The center of QGe is isomorphic to Q(chi), chi the pair's induced
    character, of degree the number of Galois conjugates of chi.  That
    dimension is read off with no elimination, as the trace of the
    projection z -> z e of Z(QG) onto the center (`center_component_dim`)."""
    degree = _center_degree(pair)
    if degree is None:
        return False
    try:
        return center_component_dim(pair.pci) == degree
    except (NotCentral, NotIdempotent):
        return False
