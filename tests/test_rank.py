"""Rank formula, oracle, k-decision, center-degree identity."""

from dataclasses import replace

import corpus
import oracles
import pytest
from oracles import CORPUS, paper9_pairs, qg_scale

from zgcentral.catalog import (
    catalog,
    cyclic,
    get_group,
    quaternion8,
    symmetric,
)
from zgcentral.cyclotomic import euler_phi
from zgcentral.errors import DivisibilityViolation, IncompleteSet
from zgcentral.groupalgebra import hat
from zgcentral.groups import galois_orbit_counts, subgroup_closure
from zgcentral.rank import (
    k_of_pair,
    rank_oracle,
    rank_term,
    rank_total,
    verify_center_degree,
)
from zgcentral import shoda
from zgcentral.shoda import complete_irredundant_set


def pairs_of(G):
    pairs, complete = complete_irredundant_set(G)
    assert complete
    return pairs


# -- oracle --------------------------------------------------------------------


def test_oracle_values():
    assert rank_oracle(cyclic(5)) == 3 - 2
    assert rank_oracle(quaternion8()) == 0
    assert rank_oracle(cyclic(1)) == 0
    assert rank_oracle(symmetric(3)) == 0


# -- k decision ----------------------------------------------------------------


def test_k_trivial_pair(s3):
    p = next(p for p in pairs_of(s3) if p.H.order == p.K.order == 6)
    assert k_of_pair(s3, p) == 1


def test_k_c5(c5):
    p = next(p for p in pairs_of(c5) if p.index == 5)
    assert k_of_pair(c5, p) == 2  # the faithful character is not real


def test_k_odd_order_rule():
    # odd-order groups: every nontrivial pair has k = 2
    for n in (3, 5, 7, 9, 15):
        G = cyclic(n)
        for p in pairs_of(G):
            expected = 1 if p.index == 1 else 2
            assert k_of_pair(G, p) == expected


def classified(G, H, K):
    """The pair (H, K), classified alone."""
    (pair,), _ = complete_irredundant_set(G, [(H, K)])
    return pair


@pytest.mark.parametrize("name", CORPUS + ("C1", "C2"))
def test_k_matches_is_real_oracle(name):
    G = get_group(name)
    for H, K in oracles.shoda_pair_candidates(G):
        assert k_of_pair(G, classified(G, H, K)) == oracles.k_of_pair(G, H, K)


def test_k_matches_oracle_on_paper_pairs(paper1000):
    ks = []
    for H, K in paper9_pairs(paper1000):
        k = k_of_pair(paper1000, classified(paper1000, H, K))
        assert k == oracles.k_of_pair(paper1000, H, K)
        ks.append(k)
    assert ks == [1, 1, 2, 2, 1, 1, 1, 1, 1]


# -- terms and totals ----------------------------------------------------------


def test_rank_term_c5(c5):
    p = next(p for p in pairs_of(c5) if p.index == 5)
    t = rank_term(c5, p)
    assert (t.k, t.pair.chain.indices, t.term) == (2, [1], 1)


def test_rank_total_c5(c5):
    rep = rank_total(c5, pairs_of(c5))
    assert sorted(t.term for t in rep.terms) == [0, 1]
    assert rep.total == 1 and rep.agree


def test_rank_total_s3(s3):
    rep = rank_total(s3, pairs_of(s3))
    assert rep.total == 0 and rep.agree


def test_rank_total_requires_completeness(s3):
    with pytest.raises(IncompleteSet):
        rank_total(s3, pairs_of(s3)[:1])


def test_term_nonnegative_across_corpus():
    for name in ("C8", "C12", "D4", "D6", "Q8", "A4", "S4"):
        G = get_group(name)
        for t in rank_total(G, pairs_of(G)).terms:
            assert t.term >= 0


# -- center-degree identity ----------------------------------------------------


def test_center_degree_examples(s3, c4):
    for G in (s3, c4):
        for p in pairs_of(G):
            assert verify_center_degree(G, p)


def test_center_degree_values(s3, c4):
    p = next(p for p in pairs_of(s3) if p.H.order == 3)
    assert euler_phi(p.index) // p.chain.indices[0] == 1
    p = next(p for p in pairs_of(c4) if p.index == 4)
    assert euler_phi(p.index) == 2


def test_center_degree_is_false_for_a_bad_idempotent(s3):
    """A kept pair whose idempotent is doubled (central, not idempotent) or
    replaced by hat of a reflection subgroup (idempotent, not central)
    fails the check instead of raising."""
    refl = s3.element_orders.index(2)
    not_central = hat(subgroup_closure(s3, [refl]))
    for p in pairs_of(s3):
        for bad in (qg_scale(p.pci, 2), not_central):
            assert not verify_center_degree(s3, replace(p, chain=replace(p.chain, top=bad)))


def test_rank_term_refuses_indices_that_do_not_divide_phi(a4):
    """A4's pair (V4, C2) has phi([H:K]) = phi(2) = 1 and chain index 1.
    With the centralizer A4 put in place of V4, the chain's index is 3,
    which does not divide 1: rank_term raises the typed error, naming phi
    and the product, and rank_total passes it on."""
    p = next(p for p in pairs_of(a4) if p.H.order == 4)
    assert p.chain.indices == [1] and rank_term(a4, p).term == 0
    bad = replace(p, chain=replace(p.chain, centralizers=[a4.whole()]))
    assert bad.chain.indices == [3] and k_of_pair(a4, bad) == 1
    message = r"^phi\(2\) = 1 not divisible by 3$"
    with pytest.raises(DivisibilityViolation, match=message):
        rank_term(a4, bad)
    with pytest.raises(DivisibilityViolation, match=message):
        rank_total(a4, [bad], complete=True)


def test_chainless_candidate_is_dropped_and_rank_refuses(s3, monkeypatch):
    """A candidate with no strong inductive chain is not kept: with the
    search finding none for (A3, 1), S3's set lacks that component and
    the rank is refused, not summed without it."""
    search = shoda.find_strong_inductive_chain

    def no_chain_at_a3(lam, subgroups=None, whole=None):
        return None if lam.H.order == 3 else search(lam, subgroups, whole)

    monkeypatch.setattr(shoda, "find_strong_inductive_chain", no_chain_at_a3)
    pairs, complete = complete_irredundant_set(s3)
    assert sorted((p.H.order, p.K.order) for p in pairs) == [(6, 3), (6, 6)]
    assert not complete
    with pytest.raises(IncompleteSet):
        rank_total(s3, pairs)


# -- cross-validation ----------------------------------------------------------


def test_oracle_equals_formula_on_mixed_corpus():
    for name in ("C6", "C10", "D5", "Q16", "E9", "A4"):
        G = get_group(name)
        rep = rank_total(G, pairs_of(G))
        assert rep.agree, name


def test_oracle_is_class_count_difference():
    """rank_oracle counts Galois orbits on the ordinary classes; the
    oracle merges the classes themselves.  `galois_orbit_counts` gives
    both counts."""
    for G in (*(get_group(e.name) for e in catalog()), corpus.build("E64")):
        real, rational = oracles.merged_class_counts(G)
        assert rank_oracle(G) == real - rational
        assert galois_orbit_counts(G) == (real, rational)
