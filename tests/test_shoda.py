"""Shoda-pair detection, idempotents, chains, complete sets."""

from fractions import Fraction
from math import gcd

import numpy as np
import oracles
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from oracles import CORPUS, Cyclotomic, cyc, e_sum_conjugates, paper9_pairs

from zgcentral.catalog import catalog, cyclic, get_group, symmetric
from zgcentral import shoda
from zgcentral.cyclotomic import euler_phi, ramanujan_row, reduction_matrix
from zgcentral.errors import NotShodaPair, SearchBoundExceeded
from zgcentral.groupalgebra import (
    QGElement,
    epsilon,
    hat,
    is_central,
    is_idempotent,
    mul,
)
from zgcentral.groups import (
    Subgroup,
    all_subgroups,
    conjugacy_partition,
    cyclic_coset_log,
    galois_classes,
    is_normal,
    subgroup_closure,
)
from zgcentral.shoda import (
    complete_irredundant_set,
    find_strong_inductive_chain,
    induced_counts,
    is_shoda_pair,
    linear_character,
    pci,
    shoda_pair_candidates,
    verify_chain,
)


def triv(G):
    return Subgroup(G, {0})


# -- conditions ----------------------------------------------------------------


def test_abelian_pairs_are_shoda(c4):
    g2 = next(g for g in range(4) if c4.element_orders[g] == 2)
    assert is_shoda_pair(c4, c4.whole(), triv(c4))
    assert is_shoda_pair(c4, c4.whole(), Subgroup(c4, {0, g2}))


def test_abelian_proper_h_fails(c4):
    g2 = next(g for g in range(4) if c4.element_orders[g] == 2)
    # in an abelian group condition (ii) forces H = G
    assert not is_shoda_pair(c4, Subgroup(c4, {0, g2}), triv(c4))


def test_a3_pair(s3):
    A3 = subgroup_closure(s3, [s3.element_orders.index(3)])
    assert is_shoda_pair(s3, A3, triv(s3))
    assert verify_chain(s3, A3, triv(s3), [A3, s3.whole()]) is not None


def test_reflection_pair_fails(s3):
    refl = next(g for g in range(6) if s3.element_orders[g] == 2)
    assert not is_shoda_pair(s3, subgroup_closure(s3, [refl]), triv(s3))


def test_noncyclic_quotient_fails(q8):
    center = next(g for g in range(8) if q8.element_orders[g] == 2)
    # Q8 / center is the Klein group
    assert not is_shoda_pair(q8, q8.whole(), Subgroup(q8, {0, center}))


def test_shoda_gather_matches_loop_oracle_on_catalog():
    # every K <= H of every catalog group of order <= 32
    for entry in catalog():
        G = entry.constructor()
        if G.order > 32:
            continue
        subgroups = all_subgroups(G)
        for H in subgroups:
            for K in subgroups:
                if K.members <= H.members:
                    assert is_shoda_pair(G, H, K) == oracles.is_shoda_pair(
                        G, H, K
                    ), (entry.name, H.order, K.order)


def test_strong_in_abelian(c4):
    H = c4.whole()
    assert is_shoda_pair(c4, H, triv(c4))
    assert verify_chain(c4, H, triv(c4), [H, c4.whole()]) is not None


# -- characters ----------------------------------------------------------------


def induced_value(lam, G, g):
    """The induced character at g, as the field sum of its count row."""
    row = induced_counts(lam, G, [g])[0].tolist()
    return Cyclotomic.from_powers(lam.order, dict(enumerate(row)))


def test_linear_character_multiplicative(s3):
    A3 = subgroup_closure(s3, [s3.element_orders.index(3)])
    lam = linear_character(A3, triv(s3))
    log = lam.coset_log
    for a in A3.members:
        for b in A3.members:
            assert cyc(3, int(log[s3.mul(a, b)])) == cyc(3, int(log[a])) * cyc(
                3, int(log[b])
            )
    assert log[0] == 0


def test_trivial_character_induction(s3):
    lam = linear_character(s3.whole(), s3.whole())
    assert induced_counts(lam, s3, range(6)).tolist() == [[1]] * 6


def test_induced_value_on_three_cycle(s3):
    A3 = subgroup_closure(s3, [s3.element_orders.index(3)])
    lam = linear_character(A3, triv(s3))
    rot = next(g for g in A3.members if g != 0)
    assert induced_counts(lam, s3, [rot]).tolist() == [[0, 1, 1]]
    assert induced_value(lam, s3, rot) == cyc(3, 1) + cyc(3, 2)


def test_induced_value_off_conjugates(s3):
    A3 = subgroup_closure(s3, [s3.element_orders.index(3)])
    lam = linear_character(A3, triv(s3))
    refl = next(g for g in range(6) if s3.element_orders[g] == 2)
    assert not induced_counts(lam, s3, [refl]).any()


# -- cosets of K in H against the quotient-group oracles -------------------------

COSET_GROUPS = ("S4", "D12", "Q16", "A4", "E8", "E25", "C60")


def normal_pairs(G):
    subs = all_subgroups(G)
    return [(H, K) for H in subs for K in subs if K <= H and is_normal(K, H)]


COSET_PAIRS = {name: normal_pairs(get_group(name)) for name in COSET_GROUPS}


def check_against_oracles(G, H, K, t=1, shoda=True):
    """The coset kernel and its three callers agree with the quotient
    oracles on (H, K); returns whether H/K is cyclic."""
    log = cyclic_coset_log(H, K)
    expected = oracles.coset_log(H, K)
    assert (log is None) == (expected is None)
    if log is not None:
        assert log.dtype.kind == "i"
        assert {h: int(log[h]) for h in H.members} == expected
        assert all(log[g] == -1 for g in range(G.order) if g not in H.members)
        lam = linear_character(H, K, t)
        c = H.order // K.order
        assert lam.order == c
        scaled = oracles.coset_log(H, K, t)
        assert {h: int(lam.coset_log[h]) for h in H.members} == scaled
        assert all(
            lam.coset_log[g] == -1 for g in range(G.order) if g not in H.members
        )
    if log is None:
        with pytest.raises(NotShodaPair):
            epsilon(H, K)
    else:
        assert epsilon(H, K) == oracles.epsilon(H, K)
    if shoda:
        assert is_shoda_pair(G, H, K) == oracles.is_shoda_pair(G, H, K)
    return log is not None


@pytest.mark.parametrize("name", COSET_GROUPS)
def test_coset_kernel_matches_oracles_on_every_normal_pair(name):
    G = get_group(name)
    cyclic_flags = [check_against_oracles(G, H, K) for H, K in COSET_PAIRS[name]]
    if name in ("S4", "Q16", "E8", "E25"):
        assert not all(cyclic_flags)  # non-cyclic H/K is covered


def test_coset_kernel_matches_oracles_on_paper_pairs(paper1000):
    for H, K in paper9_pairs(paper1000):
        assert check_against_oracles(paper1000, H, K)
        assert is_shoda_pair(paper1000, H, K)


@pytest.mark.parametrize("name", ["Q8", "E4"])
def test_epsilon_rejects_non_cyclic_quotient(name):
    G = get_group(name)
    with pytest.raises(NotShodaPair):
        epsilon(G.whole(), triv(G))


@settings(max_examples=80, deadline=None)
@given(st.sampled_from(COSET_GROUPS), st.data())
def test_linear_character_matches_oracle_for_every_root(name, data):
    G = get_group(name)
    H, K = data.draw(st.sampled_from(COSET_PAIRS[name]))
    c = H.order // K.order
    t = data.draw(st.sampled_from([t for t in range(1, c + 1) if gcd(t, c) == 1]))
    check_against_oracles(G, H, K, t=t, shoda=False)


# -- primitive central idempotents ---------------------------------------------


def test_pci_trivial_pair(s3):
    assert pci(s3, s3.whole(), s3.whole()) == hat(s3.whole())


def test_pci_a3(s3):
    A3 = subgroup_closure(s3, [s3.element_orders.index(3)])
    assert pci(s3, A3, triv(s3)) == QGElement.one(s3) - hat(A3)


def test_pci_sign_character(s3):
    A3 = subgroup_closure(s3, [s3.element_orders.index(3)])
    assert pci(s3, s3.whole(), A3) == hat(A3) - hat(s3.whole())


def test_pci_choice_invariance(c5):
    # two different primitive-root choices for the character generator
    e1 = pci(c5, c5.whole(), triv(c5), lam=linear_character(c5.whole(), triv(c5), t=1))
    e2 = pci(c5, c5.whole(), triv(c5), lam=linear_character(c5.whole(), triv(c5), t=2))
    assert e1 == e2


@pytest.mark.parametrize("name", CORPUS + ("C1", "C2"))
def test_pci_matches_galois_sum_oracle(name):
    G = get_group(name)
    pairs = shoda_pair_candidates(G)
    assert pairs
    for H, K in pairs:
        assert pci(G, H, K) == oracles.pci(G, H, K), (H.order, K.order)


def test_pci_matches_oracle_on_paper_pairs(paper1000):
    for H, K in paper9_pairs(paper1000):
        assert pci(paper1000, H, K) == oracles.pci(paper1000, H, K)


def test_pci_needs_no_squaring(s4, paper1000, monkeypatch):
    """The normalizer |S| comes from the class power map, not from a QG
    product: with `mul` unavailable to shoda, pci still matches."""

    def no_mul(a, b):
        raise AssertionError("pci multiplied in QG")

    monkeypatch.setattr(shoda, "mul", no_mul)
    cases = [(s4, H, K) for H, K in shoda_pair_candidates(s4)]
    cases += [(paper1000, H, K) for H, K in paper9_pairs(paper1000)]
    for G, H, K in cases:
        assert pci(G, H, K) == oracles.pci(G, H, K), (G.order, H.order, K.order)


def test_induced_value_matches_sum_over_group(s4):
    """The count rows against the oracle's sum over G with its own
    character, which is the one `linear_character` picks."""
    for H, K in shoda_pair_candidates(s4):
        lam = linear_character(H, K)
        exponents = oracles.character_exponents(s4, H, K)
        for g in range(s4.order):
            expected = oracles.induced_value(s4, H, exponents, lam.order, g)
            assert induced_value(lam, s4, g) == expected


def dense_rows_and_pci(G, H, K):
    """(class rows, pci) the dense way: the whole count matrix times
    `reduction_matrix`, and a full comparison of the class rows under
    every row of `galois_classes`."""
    lam = linear_character(H, K)
    n = lam.order
    part = conjugacy_partition(G)
    rows = induced_counts(lam, G, part.reps) @ reduction_matrix(n)
    P = galois_classes(G)
    fixed = sum(np.array_equal(rows[p], rows) for p in P)
    trace = rows @ ramanujan_row(n)[: rows.shape[1]]
    den = H.order * euler_phi(n) * fixed // len(P)
    return rows, QGElement.from_vec(G, trace[part.class_of][G.inv], den=den)


def assert_sparse_rows_and_pci_match_dense(G, pairs):
    for H, K in pairs:
        rows, expected = dense_rows_and_pci(G, H, K)
        lam = linear_character(H, K)
        assert np.array_equal(lam.class_rows, rows), (H.order, K.order)
        e = pci(G, H, K, lam=lam, check=False)
        assert e.den == expected.den, (H.order, K.order)
        assert np.array_equal(e.vec, expected.vec), (H.order, K.order)


def test_class_rows_and_pci_match_dense_on_small_catalog():
    count = 0
    for _, G in oracles.small_catalog():
        pairs = shoda_pair_candidates(G)
        assert_sparse_rows_and_pci_match_dense(G, pairs)
        count += len(pairs)
    assert count == 461


def test_class_rows_and_pci_match_dense_on_c1021():
    # 1021 classes and phi(n) = 1020 on the faithful pair
    G = cyclic(1021)
    pairs = shoda_pair_candidates(G)
    assert sorted((H.order, K.order) for H, K in pairs) == [(1021, 1), (1021, 1021)]
    assert_sparse_rows_and_pci_match_dense(G, pairs)


def test_pci_rejects_non_shoda(s3):
    refl = next(g for g in range(6) if s3.element_orders[g] == 2)
    with pytest.raises(NotShodaPair):
        pci(s3, subgroup_closure(s3, [refl]), triv(s3))


def test_pci_idempotent_central_for_strong_pair(s3):
    A3 = subgroup_closure(s3, [s3.element_orders.index(3)])
    e = pci(s3, A3, triv(s3))
    assert is_idempotent(e) and is_central(e)
    assert e == e_sum_conjugates(s3.whole(), A3, triv(s3))


# -- chains --------------------------------------------------------------------


def test_strong_pair_one_step_chain(s3):
    A3 = subgroup_closure(s3, [s3.element_orders.index(3)])
    chain = find_strong_inductive_chain(s3, A3, triv(s3))
    assert chain is not None and chain.length == 1
    assert chain.indices == [2]  # the centralizer of the idempotent is S3


def test_chain_search_rejects_non_shoda(s3):
    refl = next(g for g in range(6) if s3.element_orders[g] == 2)
    with pytest.raises(NotShodaPair):
        find_strong_inductive_chain(s3, subgroup_closure(s3, [refl]), triv(s3))


def test_verify_chain_with_repeats(c4):
    H = c4.whole()
    chain = verify_chain(c4, H, triv(c4), [H, H, H])
    assert chain is not None
    assert chain.indices == [1, 1]


def test_verify_chain_rejects_wrong_base(s3):
    A3 = subgroup_closure(s3, [s3.element_orders.index(3)])
    assert verify_chain(s3, A3, triv(s3), [s3.whole(), s3.whole()]) is None


# -- complete sets -------------------------------------------------------------


def test_complete_set_s3(s3):
    pairs, complete = complete_irredundant_set(s3)
    assert complete and len(pairs) == 3
    assert sorted((p.H.order, p.K.order) for p in pairs) == [(3, 1), (6, 3), (6, 6)]
    assert all(p.status == "strong" for p in pairs)


def test_complete_set_c4(c4):
    pairs, complete = complete_irredundant_set(c4)
    assert complete and len(pairs) == 3


def test_distinct_pcis_orthogonal(s4):
    pairs, complete = complete_irredundant_set(s4)
    assert complete
    for i, p in enumerate(pairs):
        for q in pairs[i + 1 :]:
            assert mul(p.pci, q.pci).is_zero()


def test_supplied_bad_pair_rejected(s3):
    refl = next(g for g in range(6) if s3.element_orders[g] == 2)
    with pytest.raises(NotShodaPair):
        complete_irredundant_set(
            s3, candidates=[(subgroup_closure(s3, [refl]), triv(s3))]
        )


def test_exhausted_chain_budget_is_an_error(paper1000, monkeypatch):
    # the generalized pair |H| = 50, |K| = 5 of paper9.json, without its
    # chain: one visit is not enough to find one, and that must not read
    # as "no chain exists" (status "shoda")
    H, K = next(
        (H, K) for H, K in paper9_pairs(paper1000) if (H.order, K.order) == (50, 5)
    )
    monkeypatch.setattr(shoda, "CHAIN_VISIT_BUDGET", 1)
    with pytest.raises(SearchBoundExceeded, match=r"\|H\|=50, \|K\|=5.*1 visits"):
        complete_irredundant_set(paper1000, candidates=[(H, K)])
