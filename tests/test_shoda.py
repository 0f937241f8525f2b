"""Shoda-pair detection, idempotents, chains, complete sets."""

import json
import sys
from importlib import resources

import numpy as np
import oracles
import pytest
from hypothesis import example, given, settings
from oracles import (
    CORPUS,
    Cyclotomic,
    cyc,
    e_sum_conjugates,
    induced_counts,
    paper9_pairs,
    qg_mul,
    qg_sub,
)
from test_groups import MB, pc_presentations, traced_peak

from zgcentral.catalog import catalog, cyclic, get_group
from zgcentral import groupalgebra, groups, shoda
from zgcentral.cli import parse_pairs_file
from zgcentral.cyclotomic import euler_phi, ramanujan_row, reduction_matrix
from zgcentral.errors import (
    CapExceeded,
    InconsistentPresentation,
    NotShodaPair,
    NotStrongInductiveChain,
)
from zgcentral.groupalgebra import QGElement, epsilon, hat, is_central
from zgcentral.groups import (
    Subgroup,
    all_subgroups,
    check_cyclic_subnormal_hypothesis,
    conjugacy_partition,
    cyclic_coset_log,
    galois_classes,
    group_from_pc_presentation,
    is_normal,
    subgroup_closure,
)
from zgcentral.rank import rank_total
from zgcentral.shoda import (
    complete_irredundant_set,
    find_strong_inductive_chain,
    is_complete,
    shoda_character,
    shoda_pair_candidates,
    verify_chain,
)


def triv(G):
    return Subgroup(G, {0})


def passes_shoda_test(H, K):
    """Whether the Shoda test builds the pair's character."""
    try:
        shoda_character(H, K)
    except NotShodaPair:
        return False
    return True


# -- conditions ----------------------------------------------------------------


def test_abelian_pairs_are_shoda(c4):
    g2 = next(g for g in range(4) if c4.element_orders[g] == 2)
    assert passes_shoda_test(c4.whole(), triv(c4))
    assert passes_shoda_test(c4.whole(), Subgroup(c4, {0, g2}))


def test_abelian_proper_h_fails(c4):
    g2 = next(g for g in range(4) if c4.element_orders[g] == 2)
    # in an abelian group condition (ii) forces H = G
    assert not passes_shoda_test(Subgroup(c4, {0, g2}), triv(c4))


def test_a3_pair(s3):
    A3 = subgroup_closure(s3, [s3.element_orders.index(3)])
    assert passes_shoda_test(A3, triv(s3))
    assert verify_chain(shoda_character(A3, triv(s3)), [A3, s3.whole()]) is not None


def test_reflection_pair_fails(s3):
    refl = next(g for g in range(6) if s3.element_orders[g] == 2)
    assert not passes_shoda_test(subgroup_closure(s3, [refl]), triv(s3))


def test_noncyclic_quotient_fails(q8):
    center = next(g for g in range(8) if q8.element_orders[g] == 2)
    # Q8 / center is the Klein group
    assert not passes_shoda_test(q8.whole(), Subgroup(q8, {0, center}))


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
                    assert passes_shoda_test(H, K) == oracles.is_shoda_pair(
                        G, H, K
                    ), (entry.name, H.order, K.order)


def test_strong_in_abelian(c4):
    H = c4.whole()
    assert passes_shoda_test(H, triv(c4))
    assert verify_chain(shoda_character(H, triv(c4)), [H, c4.whole()]) is not None


# -- characters ----------------------------------------------------------------


def induced_value(lam, G, g):
    """The induced character at g, as the field sum of its count row."""
    row = induced_counts(lam, G, [g])[0].tolist()
    return Cyclotomic.from_powers(lam.order, dict(enumerate(row)))


def test_linear_character_multiplicative(s3):
    A3 = subgroup_closure(s3, [s3.element_orders.index(3)])
    lam = shoda_character(A3, triv(s3))
    log = lam.coset_log
    for a in A3.members:
        for b in A3.members:
            assert cyc(3, int(log[s3.mul(a, b)])) == cyc(3, int(log[a])) * cyc(
                3, int(log[b])
            )
    assert log[0] == 0


def test_trivial_character_induction(s3):
    lam = shoda_character(s3.whole(), s3.whole())
    assert induced_counts(lam, s3, range(6)).tolist() == [[1]] * 6


def test_induced_value_on_three_cycle(s3):
    A3 = subgroup_closure(s3, [s3.element_orders.index(3)])
    lam = shoda_character(A3, triv(s3))
    rot = next(g for g in A3.members if g != 0)
    assert induced_counts(lam, s3, [rot]).tolist() == [[0, 1, 1]]
    assert induced_value(lam, s3, rot) == cyc(3, 1) + cyc(3, 2)


def test_induced_value_off_conjugates(s3):
    A3 = subgroup_closure(s3, [s3.element_orders.index(3)])
    lam = shoda_character(A3, triv(s3))
    refl = next(g for g in range(6) if s3.element_orders[g] == 2)
    assert not induced_counts(lam, s3, [refl]).any()


# -- cosets of K in H against the quotient-group oracles -------------------------

COSET_GROUPS = ("S4", "D12", "Q16", "A4", "E8", "E25", "C60")


def normal_pairs(G):
    subs = all_subgroups(G)
    return [(H, K) for H in subs for K in subs if K <= H and is_normal(K, H)]


COSET_PAIRS = {name: normal_pairs(get_group(name)) for name in COSET_GROUPS}


def check_against_oracles(G, H, K):
    """The coset kernel and its callers agree with the quotient oracles on
    (H, K); returns whether H/K is cyclic.  A Shoda pair's character holds
    the kernel's coset log, the transversal the loop oracle finds and
    epsilon(H, K) at that log; any other pair is refused."""
    log = cyclic_coset_log(H, K)
    expected = oracles.coset_log(H, K)
    assert (log is None) == (expected is None)
    walked = oracles.walked_coset_log(H, K)
    assert (walked is None) == (log is None)
    assert log is None or log.tobytes() == walked.tobytes()
    if log is not None:
        assert log.dtype.kind == "i"
        assert {h: int(log[h]) for h in H.members} == expected
        assert all(log[g] == -1 for g in range(G.order) if g not in H.members)
    if log is not None:
        assert epsilon(H, K, log) == oracles.epsilon(H, K)
    if oracles.is_shoda_pair(G, H, K):
        lam = shoda_character(H, K)
        assert lam.order == H.order // K.order
        assert np.array_equal(lam.coset_log, log)
        assert lam.transversal.tolist() == oracles.right_transversal(H, G.whole())
        assert lam.epsilon == epsilon(H, K, log)
    else:
        with pytest.raises(NotShodaPair):
            shoda_character(H, K)
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
        assert oracles.is_shoda_pair(paper1000, H, K)


@pytest.mark.parametrize("name", ["Q8", "E4"])
def test_non_cyclic_quotient_has_no_coset_log_or_character(name):
    G = get_group(name)
    assert cyclic_coset_log(G.whole(), triv(G)) is None
    with pytest.raises(NotShodaPair):
        shoda_character(G.whole(), triv(G))


def check_characters_against_the_walk(G):
    """Every character `shoda_pair_candidates` returns, most of them read
    off a walked log below K, holds the per-step walk's coset log and the
    loop oracle's transversal byte for byte, and the quotient oracle's
    log; over the H it returns, the (H, K) list is the one the
    enumeration that remembers nothing gives.  Returns the pair count."""
    lams = shoda_pair_candidates(G)
    for lam in lams:
        walked = oracles.walked_coset_log(lam.H, lam.K)
        assert lam.coset_log.dtype == walked.dtype
        assert lam.coset_log.tobytes() == walked.tobytes()
        reps = np.array(oracles.right_transversal(lam.H, G.whole()), dtype=np.intp)
        assert lam.transversal.tobytes() == reps.tobytes()
        log = {h: int(lam.coset_log[h]) for h in lam.H.members}
        assert log == oracles.coset_log(lam.H, lam.K)
    hs = {lam.H.members for lam in lams}
    want = [(H.members, K.members) for H, K in oracles.shoda_pair_candidates(G) if H.members in hs]
    assert [(lam.H.members, lam.K.members) for lam in lams] == want
    return len(lams)


def test_characters_match_the_walk_on_the_small_catalog():
    assert all(check_characters_against_the_walk(G) for _, G in oracles.small_catalog(60))


# the example is C12 with x1^3 = x2: the K of index 4 reads its log off
# the walked log of K' = 1 divided by log'(r) = 3, where every K of the
# small catalog's groups finds log'(r) = 1
@settings(max_examples=150, deadline=None)
@example(([3, 4], {1: [(2, -1), (2, 2)]}, {}))
@given(pc_presentations())
def test_characters_match_the_walk_on_pc_groups(presentation):
    """The same on the consistent random pc presentations, about one draw
    in five."""
    try:
        G = group_from_pc_presentation(*presentation)
        count = check_characters_against_the_walk(G)
    except (InconsistentPresentation, CapExceeded):
        return
    assert count


# -- primitive central idempotents ---------------------------------------------


def pair_pci(H, K):
    """The pair's idempotent: the top of its strong inductive chain."""
    return find_strong_inductive_chain(shoda_character(H, K)).top


def test_pci_trivial_pair(s3):
    assert pair_pci(s3.whole(), s3.whole()) == hat(s3.whole())


def test_pci_a3(s3):
    A3 = subgroup_closure(s3, [s3.element_orders.index(3)])
    assert pair_pci(A3, triv(s3)) == qg_sub(QGElement.one(s3), hat(A3))


def test_pci_sign_character(s3):
    A3 = subgroup_closure(s3, [s3.element_orders.index(3)])
    assert pair_pci(s3.whole(), A3) == qg_sub(hat(A3), hat(s3.whole()))


@pytest.mark.parametrize("name", CORPUS + ("C1", "C2"))
def test_pci_matches_galois_sum_oracle(name):
    G = get_group(name)
    pairs = oracles.shoda_pair_candidates(G)
    assert pairs
    for H, K in pairs:
        want = oracles.pci(G, H, K)
        assert pair_pci(H, K) == want, (H.order, K.order)
        assert oracles.galois_pci(shoda_character(H, K)) == want, (H.order, K.order)


def test_pci_matches_oracle_on_paper_pairs(paper1000):
    for H, K in paper9_pairs(paper1000):
        want = oracles.pci(paper1000, H, K)
        assert pair_pci(H, K) == oracles.galois_pci(shoda_character(H, K)) == want


def test_pci_needs_no_squaring(s4, paper1000, monkeypatch):
    """Classification takes no QG product: with the convolution kernel
    that every QG product takes unavailable, S4 enumerated and
    paper9.json's pairs classify, and each idempotent matches the oracle
    that normalizes by one squaring."""

    def no_convolve(G, A, B, cols=None):
        raise AssertionError("classification multiplied in QG")

    candidates = _paper9_candidates(paper1000)
    monkeypatch.setattr(groupalgebra, "_convolve", no_convolve)
    got = [
        (s4, complete_irredundant_set(s4)),
        (paper1000, complete_irredundant_set(paper1000, candidates)),
    ]
    monkeypatch.undo()  # the oracle multiplies
    for G, (pairs, complete) in got:
        assert complete
        for p in pairs:
            assert p.pci == oracles.pci(G, p.H, p.K), (G.order, p.H.order, p.K.order)


def test_induced_value_matches_sum_over_group(s4):
    """The count rows against the oracle's sum over G with its own
    character, which is the one `shoda_character` picks."""
    for H, K in oracles.shoda_pair_candidates(s4):
        lam = shoda_character(H, K)
        exponents = oracles.character_exponents(s4, H, K)
        for g in range(s4.order):
            expected = oracles.induced_value(s4, H, exponents, lam.order, g)
            assert induced_value(lam, s4, g) == expected


def dense_rows_and_pci(G, H, K):
    """(class rows, pci) the dense way: the whole count matrix times
    `reduction_matrix`, and a full comparison of the class rows under
    every row of `galois_classes`."""
    lam = shoda_character(H, K)
    n = lam.order
    part = conjugacy_partition(G)
    rows = induced_counts(lam, G, part.reps) @ reduction_matrix(n)
    P = galois_classes(G)
    fixed = sum(np.array_equal(rows[p], rows) for p in P)
    trace = rows @ ramanujan_row(n)[: rows.shape[1]]
    den = H.order * euler_phi(n) * fixed // len(P)
    return rows, QGElement.from_vec(G, trace[part.class_of][G.inv], den=den)


def assert_rows_and_pci_match_dense(G, pairs):
    for H, K in pairs:
        rows, expected = dense_rows_and_pci(G, H, K)
        lam = shoda_character(H, K)
        assert np.array_equal(lam.class_rows, rows), (H.order, K.order)
        e = oracles.galois_pci(lam)
        assert e.den == expected.den, (H.order, K.order)
        assert np.array_equal(e.vec, expected.vec), (H.order, K.order)


def test_class_rows_and_pci_match_dense_on_small_catalog():
    count = 0
    for _, G in oracles.small_catalog():
        pairs = oracles.shoda_pair_candidates(G)
        assert_rows_and_pci_match_dense(G, pairs)
        count += len(pairs)
    assert count == 461


def test_class_rows_and_pci_match_dense_on_c1021():
    # 1021 classes and phi(n) = 1020 on the faithful pair
    G = cyclic(1021)
    pairs = oracles.shoda_pair_candidates(G)
    assert sorted((H.order, K.order) for H, K in pairs) == [(1021, 1), (1021, 1021)]
    assert_rows_and_pci_match_dense(G, pairs)


def test_class_rows_peak_at_the_rows():
    """The n = 512 pair of C512 from nine order-2 pc generators, x_i^2 =
    x_(i+1), reads its class rows holding at most the rows + 2 MiB under
    tracemalloc, reduction_matrix(512) and G's classes built first."""
    G = group_from_pc_presentation([2] * 9, {i: [(i + 1, 1)] for i in range(1, 9)})
    lam = shoda_character(G.whole(), G.trivial())
    assert lam.order == 512
    reduction_matrix(lam.order)
    conjugacy_partition(G)
    rows, peak = traced_peak(lambda: lam.class_rows)
    assert peak <= rows.nbytes + 2 * MB


def test_pci_rejects_non_shoda(s3):
    # the chain takes the character, which the Shoda test refuses to build
    refl = next(g for g in range(6) if s3.element_orders[g] == 2)
    with pytest.raises(NotShodaPair):
        pair_pci(subgroup_closure(s3, [refl]), triv(s3))


def test_shoda_character_names_the_failing_pair(s3, q8):
    refl = next(g for g in range(6) if s3.element_orders[g] == 2)
    with pytest.raises(NotShodaPair, match=r"^pair \(\|H\|=2, \|K\|=1\) fails the Shoda conditions$"):
        shoda_character(subgroup_closure(s3, [refl]), triv(s3))
    # Q8 / center is the Klein group: H/K is not cyclic
    center = next(g for g in range(8) if q8.element_orders[g] == 2)
    with pytest.raises(NotShodaPair, match=r"\(\|H\|=8, \|K\|=2\)"):
        shoda_character(q8.whole(), Subgroup(q8, {0, center}))


def test_pci_idempotent_central_for_strong_pair(s3):
    A3 = subgroup_closure(s3, [s3.element_orders.index(3)])
    e = pair_pci(A3, triv(s3))
    assert oracles.is_idempotent(e) and is_central(e)
    assert e == e_sum_conjugates(s3.whole(), A3, triv(s3))


# -- chains --------------------------------------------------------------------


def test_strong_pair_one_step_chain(s3):
    A3 = subgroup_closure(s3, [s3.element_orders.index(3)])
    chain = find_strong_inductive_chain(shoda_character(A3, triv(s3)))
    assert chain is not None and chain.length == 1
    assert chain.indices == [2]  # the centralizer of the idempotent is S3


def test_chain_search_rejects_non_shoda(s3):
    # the search takes the character, which the Shoda test refuses to build
    refl = next(g for g in range(6) if s3.element_orders[g] == 2)
    with pytest.raises(NotShodaPair):
        find_strong_inductive_chain(shoda_character(subgroup_closure(s3, [refl]), triv(s3)))


def test_verify_chain_with_repeats(c4):
    H = c4.whole()
    chain = verify_chain(shoda_character(H, triv(c4)), [H, H, H])
    assert chain is not None
    assert chain.indices == [1, 1]


def test_verify_chain_rejects_wrong_base(s3):
    A3 = subgroup_closure(s3, [s3.element_orders.index(3)])
    assert verify_chain(shoda_character(A3, triv(s3)), [s3.whole(), s3.whole()]) is None


def test_verify_chain_rejects_step_outside_the_next(s3):
    A3 = subgroup_closure(s3, [s3.element_orders.index(3)])
    refl = next(g for g in range(6) if s3.element_orders[g] == 2)
    R = subgroup_closure(s3, [refl])
    assert verify_chain(shoda_character(A3, triv(s3)), [A3, R, s3.whole()]) is None


@pytest.mark.parametrize("name", CORPUS + ("paper-1000-86",))
def test_level_check_matches_orbit_oracle(name):
    """_climb, reading the conjugates of e_i off one right transversal of
    Hi, equals the orbit-search oracle for each Shoda pair (each candidate
    of the CORPUS groups, paper9.json's nine pairs) on every Hi <= Hnext of
    the lattice, above H for paper-1000-86, with e_i the sum of epsilon's
    Hi-orbit: the same centralizer (the per-element filter's) with its
    index over Hi, the right transversal of Hi in Hnext, and the same new
    top, or both None.  Hi = Hnext is the closed-form level of index 1
    and transversal [0]."""
    G = get_group(name)
    subs = all_subgroups(G)
    pairs = paper9_pairs(G) if G.order > 100 else oracles.shoda_pair_candidates(G)
    outcomes = set()
    for H, K in pairs:
        lows = [S for S in subs if H <= S] if G.order > 100 else subs
        for Hi in lows:
            ei = e_sum_conjugates(Hi, H, K)
            root = shoda.StrongInductiveChain([Hi], top=ei)
            for Hnext in subs:
                if not Hi <= Hnext:
                    continue
                got = shoda._climb(root, Hnext)
                want = oracles.level_check(Hi, Hnext, ei)
                assert (got is None) == (want is None)
                outcomes.add(got is None)
                if got is not None:
                    cen, top = want
                    assert got.centralizers == [cen]
                    assert got.transversals == [oracles.right_transversal(Hi, Hnext)]
                    assert got.indices == [cen.order // Hi.order]
                    assert got.top == top
    # every level of an abelian group passes
    abelian = np.array_equal(G.table, G.table.T)
    assert outcomes == ({False} if abelian else {True, False})


def _paper9_candidates(G):
    """paper9.json's (H, K, chain steps) in the order-1000 group G."""
    with resources.files("zgcentral.data").joinpath("paper9.json").open() as fh:
        return parse_pairs_file(G, json.load(fh))


def _chained_pairs():
    """(group name, classified pairs) for every catalog group of order at
    most 60, paper-1000-86 without a pair file, and paper9.json."""
    for entry in catalog():
        G = entry.constructor()
        if G.order <= 60 or entry.name == "paper-1000-86":
            yield entry.name, complete_irredundant_set(G)[0]
    G = get_group("paper-1000-86")
    yield "paper9.json", complete_irredundant_set(G, _paper9_candidates(G))[0]


def test_chain_top_is_the_pci():
    """The carried e_n of every chain is its pair's idempotent, the
    Galois-orbit sum of the oracle."""
    chained = 0
    for name, pairs in _chained_pairs():
        for p in pairs:
            assert p.chain.top == oracles.galois_pci(p.lam), (name, p.H.order, p.K.order)
            chained += 1
    assert chained == 443


@pytest.mark.parametrize("name", ["D7", "S4", "D12", "Q16", "A4", "paper-1000-86"])
def test_chain_carries_the_transversal_of_each_step_in_the_next(name):
    """Each level keeps the right transversal of H_i in H_(i+1) that its
    check read ([0] for a repeated step), and its index is [C_i:H_i], at
    every level of every chain."""
    G = get_group(name)
    candidates = _paper9_candidates(G) if G.order > 100 else None
    levels = 0
    for p in complete_irredundant_set(G, candidates)[0]:
        chain = p.chain
        assert len(chain.transversals) == len(chain.centralizers) == chain.length
        levels += chain.length
        for Hi, nxt, reps in zip(chain.steps, chain.steps[1:], chain.transversals):
            assert reps == oracles.right_transversal(Hi, nxt)
        assert chain.indices == [
            cen.order // Hi.order for Hi, cen in zip(chain.steps, chain.centralizers)
        ]
    assert levels


def test_paper_1000_86_times_c2(paper1000_c2):
    """The order-2000 group paper-1000-86 x C2: 18 pairs, 4 of them
    generalized_strong with indices [2, 1, 2], every level keeping the
    transversal of H_i in H_(i+1); rank 2 as the oracle says, and <g> is
    not subnormal at g = 252."""
    G = paper1000_c2
    pairs, complete = complete_irredundant_set(G)
    assert complete and len(pairs) == 18
    gen = [p for p in pairs if p.status == "generalized_strong"]
    assert len(gen) == 4 and [p.status for p in pairs].count("strong") == 14
    assert all(p.chain.indices == [2, 1, 2] for p in gen)
    for p in pairs:
        steps = p.chain.steps
        assert p.chain.transversals == [
            oracles.right_transversal(Hi, nxt) for Hi, nxt in zip(steps, steps[1:])
        ]
    report = rank_total(G, pairs, complete)
    assert report.total == report.oracle_total == 2
    assert check_cyclic_subnormal_hypothesis(G) == (False, 252)


def _self_adjoint(e):
    """e* = e, with g* = g^-1: the coefficient at g equals that at g^-1."""
    return np.array_equal(e.vec[e.group.inv], e.vec)


def test_chain_idempotents_are_self_adjoint():
    """_climb's trace form needs every e_i self-adjoint: epsilon(H, K) of
    every Shoda pair, and each level's e_i of every chain, rebuilt one
    level at a time."""
    levels = 0
    for name, pairs in _chained_pairs():
        G = pairs[0].H.parent
        if name != "paper9.json":
            assert all(_self_adjoint(lam.epsilon) for lam in shoda_pair_candidates(G))
        for p in pairs:
            chain = shoda._root(p.lam)
            assert _self_adjoint(chain.top), (name, p.H.order, p.K.order)
            for nxt in p.chain.steps[1:]:
                chain = shoda._climb(chain, nxt)
                assert _self_adjoint(chain.top), (name, p.H.order, p.K.order)
                levels += 1
    assert levels == 451


@pytest.mark.parametrize("pair_file", [True, False])
def test_chains_make_no_qg_product(paper1000, monkeypatch, pair_file):
    """Each level reads <e_i, e_i^t> at supp(e_i)^t by one take and one
    matrix-vector product, and a level that passes adds up the conjugates
    by one scatter-add: paper-1000-86's pairs, with paper9.json and
    without a pair file, make no convolution at all."""
    candidates = _paper9_candidates(paper1000) if pair_file else None
    calls = []
    convolve = groupalgebra._convolve

    def counted(G, A, B, cols=None):
        calls.append(1)
        return convolve(G, A, B, cols)

    monkeypatch.setattr(groupalgebra, "_convolve", counted)
    pairs, complete = complete_irredundant_set(paper1000, candidates)
    assert complete and len(pairs) == 9
    assert sum(p.chain.length for p in pairs) > 9
    assert calls == []


@pytest.mark.parametrize("pair_file", [True, False])
def test_chain_levels_match_the_full_row_oracle(paper1000, monkeypatch, pair_file):
    """Every level of paper-1000-86's chains, with paper9.json and without
    a pair file (the search's failing levels too), gets the Gram vector
    and conjugate sum of the oracle that gathers whole conjugates; each
    reads |T| |supp e_i| <= [H_(i+1):H_i] |H_i| <= |G| positions, where
    the oracle reads |T| |G|."""
    candidates = _paper9_candidates(paper1000) if pair_file else None
    kernel = shoda.conjugate_gram
    levels = []

    def checked(a, ts):
        gram, conjugate_sum = kernel(a, ts)
        want_gram, want_total = oracles.conjugate_gram(a, ts)
        assert gram.tolist() == want_gram.tolist()
        assert conjugate_sum().tolist() == want_total.tolist()
        levels.append(len(ts) * np.count_nonzero(a.vec))
        return gram, conjugate_sum

    monkeypatch.setattr(shoda, "conjugate_gram", checked)
    pairs, complete = complete_irredundant_set(paper1000, candidates)
    assert complete and len(pairs) == 9
    assert len(levels) == (9 if pair_file else 30)
    assert max(levels) <= paper1000.order


def test_chain_search_gathers_no_whole_conjugate(paper1000, monkeypatch):
    """The chain search on paper-1000-86 never gathers a whole conjugate:
    neither `groupalgebra` nor `shoda` calls `conjugate` with h = None,
    which would conjugate all of G."""

    def no_whole(G, h, g):
        if h is None:
            raise AssertionError("a chain level gathered whole conjugates")
        return groups.conjugate(G, h, g)

    for module in (groupalgebra, shoda):
        monkeypatch.setattr(module, "conjugate", no_whole)
    pairs, complete = complete_irredundant_set(paper1000)
    assert complete and [p.status for p in pairs].count("generalized_strong") == 2


def test_one_whole_group_per_call(paper1000, monkeypatch):
    """complete_irredundant_set builds G as a Subgroup once, shared by
    every chain search; find_strong_inductive_chain alone builds its own."""
    wholes = []
    whole = type(paper1000).whole

    def counted(G):
        wholes.append(G)
        return whole(G)

    monkeypatch.setattr(type(paper1000), "whole", counted)
    pairs, _ = complete_irredundant_set(paper1000)
    assert len(wholes) == 1 and len(pairs) == 9
    chain = find_strong_inductive_chain(pairs[0].lam)
    assert len(wholes) == 2 and chain.top == pairs[0].pci


@pytest.mark.parametrize("name", ["D12", "S4", "paper-1000-86"])
def test_chain_levels_agree_in_python_ints(name, monkeypatch):
    """With groupalgebra's int64 bound at 1, every vector, and every
    level's gather and Gram vector, is in Python ints, and every chain
    comes out the same."""
    G = get_group(name)
    candidates = _paper9_candidates(G) if G.order > 100 else None

    def chains():
        pairs = complete_irredundant_set(G, candidates)[0]
        return [
            (c.steps, c.top, c.centralizers, c.transversals, c.indices)
            for c in (p.chain for p in pairs)
        ]

    want = chains()
    monkeypatch.setattr(groupalgebra, "_INT64_BOUND", 1)
    assert chains() == want


def test_chain_top_differs_from_the_orbit_sum_of_epsilon(paper1000):
    """On paper9.json's (50, 10) pair, chain [50, 50, 250, 1000], the sum
    of epsilon's G-orbit is no idempotent; the recursion's top is the pci."""
    H, K, steps = next(
        c for c in _paper9_candidates(paper1000) if (c[0].order, c[1].order) == (50, 10)
    )
    lam = shoda_character(H, K)
    chain = verify_chain(lam, steps)
    assert [S.order for S in chain.steps] == [50, 50, 250, 1000]
    assert chain.indices == [1, 1, 4]
    assert not oracles.is_idempotent(e_sum_conjugates(paper1000.whole(), H, K))
    assert chain.top == oracles.galois_pci(lam)


def _searched_pairs(G):
    """paper9.json's two pairs that are not strong, then every 15th of
    paper-1000-86's Shoda candidates whose one-step check fails."""
    searched = [
        (H, K)
        for H, K in oracles.shoda_pair_candidates(G)
        if verify_chain(shoda_character(H, K), [H, G.whole()]) is None
    ]
    supplied = [
        (H, K)
        for H, K in paper9_pairs(G)
        if verify_chain(shoda_character(H, K), [H, G.whole()]) is None
    ]
    assert len(supplied) == 2 and len(searched) == 60
    return supplied + searched[::15]


def test_chain_search_matches_closure_walk(paper1000):
    G = paper1000
    for H, K in _searched_pairs(G):
        got = find_strong_inductive_chain(shoda_character(H, K))
        want = oracles.find_strong_inductive_chain(G, H, K)
        assert got is not None and want is not None
        assert [S.order for S in got.steps] == [S.order for S in want.steps]
        assert got.indices == want.indices == [2, 1, 2]
        assert got.length == want.length > 1  # neither is strong


def test_chain_search_makes_no_closure(paper1000, monkeypatch):
    H, K = next(
        (H, K) for H, K in paper9_pairs(paper1000) if (H.order, K.order) == (50, 5)
    )
    calls = []

    def counting(G, gens):
        calls.append(gens)
        return subgroup_closure(G, gens)

    for name, module in list(sys.modules.items()):
        if name.startswith("zgcentral") and hasattr(module, "subgroup_closure"):
            monkeypatch.setattr(module, "subgroup_closure", counting)
    chain = find_strong_inductive_chain(shoda_character(H, K))
    assert chain.indices == [2, 1, 2]
    assert calls == []


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
            assert qg_mul(p.pci, q.pci).is_zero()


def test_supplied_bad_pair_rejected(s3):
    refl = next(g for g in range(6) if s3.element_orders[g] == 2)
    with pytest.raises(NotShodaPair):
        complete_irredundant_set(
            s3, candidates=[(subgroup_closure(s3, [refl]), triv(s3))]
        )


def test_chain_search_beyond_the_lattice_cap_is_an_error(paper1000, monkeypatch):
    # the generalized pair |H| = 50, |K| = 5 of paper9.json, without its
    # chain: the search needs the lattice, and a lattice past the cap must
    # not read as "no chain exists" (the pair dropped)
    H, K = next(
        (H, K) for H, K in paper9_pairs(paper1000) if (H.order, K.order) == (50, 5)
    )
    monkeypatch.setattr(groups, "LATTICE_CAP", 10)
    with pytest.raises(CapExceeded, match="chain for every pair.*--pairs-file"):
        complete_irredundant_set(paper1000, candidates=[(H, K)])


def test_supplied_chain_that_fails_is_refused(paper1000, monkeypatch):
    """A supplied chain is verified or refused, never searched around:
    paper9.json's (50, 10) pair with its chain cut to its two ends fails
    its one level and raises NotStrongInductiveChain naming |H| and |K|,
    also past the lattice cap, where a search would raise CapExceeded.
    Supplied without a chain, the pair is searched and kept."""
    H, K, steps = next(
        c for c in _paper9_candidates(paper1000) if (c[0].order, c[1].order) == (50, 10)
    )
    cut = [steps[0], steps[-1]]
    searched = []
    search = shoda.find_strong_inductive_chain

    def counted_search(lam, subgroups=None, whole=None):
        searched.append(lam)
        return search(lam, subgroups, whole)

    monkeypatch.setattr(shoda, "find_strong_inductive_chain", counted_search)
    full_cap = groups.LATTICE_CAP
    for cap in (full_cap, 10):
        monkeypatch.setattr(groups, "LATTICE_CAP", cap)
        with pytest.raises(NotStrongInductiveChain) as err:
            complete_irredundant_set(paper1000, candidates=[(H, K, cut)])
        assert str(err.value) == "pair (|H|=50, |K|=10) fails its supplied chain"
    assert searched == []
    monkeypatch.setattr(groups, "LATTICE_CAP", full_cap)
    (pair,), _ = complete_irredundant_set(paper1000, candidates=[(H, K)])
    assert len(searched) == 1
    assert pair.status == "generalized_strong" and pair.chain.indices == [2, 1, 2]


@pytest.mark.parametrize("pair_file", [False, True])
def test_one_lattice_per_complete_set(paper1000, monkeypatch, pair_file):
    """Without a pair file, paper-1000-86's enumeration and the six chain
    searches that go past the one-step chain (the 2 generalized_strong
    pairs, and 4 candidates that only repeat a kept idempotent) share one
    lattice; paper9.json supplies the chains that are not one step, so no
    lattice is built."""
    candidates = _paper9_candidates(paper1000) if pair_file else None
    builds, searched = [], []
    lattice, search = shoda.all_subgroups, shoda.find_strong_inductive_chain

    def counted_lattice(G):
        builds.append(G)
        return lattice(G)

    def counted_search(lam, subgroups=None, whole=None):
        chain = search(lam, subgroups, whole)
        searched.append(chain.length > 1)
        return chain

    monkeypatch.setattr(shoda, "all_subgroups", counted_lattice)
    monkeypatch.setattr(shoda, "find_strong_inductive_chain", counted_search)
    pairs, complete = complete_irredundant_set(paper1000, candidates)
    assert complete and len(pairs) == 9
    assert [p.status for p in pairs].count("generalized_strong") == 2
    assert builds == ([] if pair_file else [paper1000])
    assert sum(searched) == (0 if pair_file else 6)


# -- the enumerator against every Shoda pair -------------------------------------


def _rows(pairs):
    return [
        (
            p.H.members,
            p.K.members,
            p.status,
            p.pci,
            p.chain.indices,
            [S.members for S in p.chain.steps],
        )
        for p in pairs
    ]


ENUMERATED = [name for name, _ in oracles.small_catalog()] + ["paper-1000-86"]


@pytest.mark.parametrize("name", ENUMERATED)
def test_complete_set_matches_every_shoda_pair(name):
    """Taking H above Z(G), one per conjugacy class, keeps the same first
    pair per idempotent as classifying every Shoda pair in lattice order."""
    G = get_group(name)
    got, complete = complete_irredundant_set(G)
    want, want_complete = complete_irredundant_set(G, oracles.shoda_pair_candidates(G))
    assert complete == want_complete
    assert _rows(got) == _rows(want)


@pytest.mark.parametrize("name", ENUMERATED)
def test_candidates_cover_every_shoda_pair_up_to_conjugacy(name):
    """Every Shoda pair has H >= Z(G) and H conjugate to a returned H; the
    returned H lie above Z(G) and no two are conjugate."""
    G = get_group(name)
    t = G.table
    center = frozenset(np.flatnonzero((t == t.T).all(axis=1)).tolist())
    everyone = np.arange(G.order)[:, None]

    def conjugates(H):
        hs = H.sorted_members
        return {frozenset(row.tolist()) for row in t[t[G.inv[everyone], hs], everyone]}

    reps = {lam.H for lam in shoda_pair_candidates(G)}
    returned = {H.members for H in reps}
    assert all(center <= H for H in returned)
    assert all(len(conjugates(H) & returned) == 1 for H in reps)
    for H, _ in oracles.shoda_pair_candidates(G):
        assert center <= H.members
        assert conjugates(H) & returned


def _counting_coset_logs(monkeypatch):
    """{"walks", "tests", "stray"}: call counts of `cyclic_coset_log`, in
    every module that binds it, and of the Shoda test, and the walks made
    outside a Shoda test."""
    counts = {"walks": 0, "tests": 0, "stray": 0}
    inside = []
    log, test = groups.cyclic_coset_log, shoda._shoda_character

    def counted_log(H, K):
        counts["walks"] += 1
        counts["stray"] += not inside
        return log(H, K)

    def counted_test(H, K, table):
        counts["tests"] += 1
        inside.append(True)
        try:
            return test(H, K, table)
        finally:
            inside.pop()

    for name, module in list(sys.modules.items()):
        if name.startswith("zgcentral") and hasattr(module, "cyclic_coset_log"):
            monkeypatch.setattr(module, "cyclic_coset_log", counted_log)
    monkeypatch.setattr(shoda, "_shoda_character", counted_test)
    return counts


def test_classified_pairs_walk_no_coset_beyond_the_shoda_test(paper1000, monkeypatch):
    """The Shoda test's coset log serves the character, epsilon and the
    chain: D24 enumerated and paper9.json's pairs make no walk outside
    the test, and the test walks at most once per pair it tests.
    paper9.json lists each H's K largest first, so none of its K holds an
    earlier one and each is walked."""
    d24 = get_group("D24")
    candidates = _paper9_candidates(paper1000)
    counts = _counting_coset_logs(monkeypatch)
    pairs, complete = complete_irredundant_set(d24)
    assert complete and pairs
    assert 0 < counts["walks"] <= counts["tests"] and counts["stray"] == 0
    counts.update(walks=0, tests=0)
    pairs, complete = complete_irredundant_set(paper1000, candidates)
    assert complete and len(pairs) == 9
    assert counts == {"walks": 9, "tests": 9, "stray": 0}


def _members(subgroups):
    return [S.members for S in subgroups]


def test_supplied_pairs_classify_as_enumerated():
    """Every enumerated pair of every catalog group of order at most 60 and
    of paper-1000-86, fed back as a supplied candidate (H, K, chain steps),
    comes back in the same order with the same status, idempotent, chain
    steps, centralizers, transversals and indices."""
    corpus = oracles.small_catalog() + [("paper-1000-86", get_group("paper-1000-86"))]
    for name, G in corpus:
        found = complete_irredundant_set(G)[0]
        again, complete = complete_irredundant_set(G, [(p.H, p.K, p.chain.steps) for p in found])
        assert complete and len(again) == len(found), name
        for p, q in zip(found, again):
            assert (q.H, q.K, q.status, q.pci) == (p.H, p.K, p.status, p.pci), name
            assert _members(q.chain.steps) == _members(p.chain.steps), name
            assert _members(q.chain.centralizers) == _members(p.chain.centralizers), name
            assert q.chain.transversals == p.chain.transversals, name
            assert q.chain.indices == p.chain.indices, name


def test_supplied_pairs_share_each_h_and_its_transversal(paper1000, monkeypatch):
    """paper9.json's nine pairs name three distinct H: three coset tables,
    and no level from a pair's H to G computes the transversal that the
    Shoda test already holds."""
    candidates = _paper9_candidates(paper1000)
    tables, levels = [], []
    coset_conjugates, transversal = shoda._coset_conjugates, shoda.right_transversal

    def counted_tables(H):
        tables.append(H)
        return coset_conjugates(H)

    def counted_transversal(H, within=None):
        levels.append((H.members, within))
        return transversal(H, within)

    monkeypatch.setattr(shoda, "_coset_conjugates", counted_tables)
    monkeypatch.setattr(shoda, "right_transversal", counted_transversal)
    pairs, complete = complete_irredundant_set(paper1000, candidates)
    assert complete and len(pairs) == 9
    hs = {H.members for H, _, _ in candidates}
    assert len(tables) == len(hs) == 3
    # the three tables' transversals, and the two chains' levels 50 -> 250 -> 1000
    assert len(levels) == 7
    whole = paper1000.order
    assert not [H for H, within in levels if H in hs and within and within.order == whole]


# the benchmark's catalog-sweep groups: orders 2-24, E25, D20-D25, C48-C60
SWEEP = (
    tuple(f"C{n}" for n in range(2, 25))
    + tuple(f"D{n}" for n in range(3, 13))
    + ("Q8", "Q16", "S3", "S4", "A4", "E4", "E8", "E9", "E25")
    + tuple(f"D{n}" for n in range(20, 26))
    + tuple(f"C{n}" for n in range(48, 61))
)


def test_k_filter_drops_no_shoda_pair(monkeypatch):
    """Only the K that hold the commutators of H's generators, with [H:K]
    dividing exp(H), take the Shoda test: 596 tests over the 61 sweep
    groups, where every K <= H made 1251.  The tests walk 297 coset logs;
    every other K reads its log off a walked one below it or holds a K
    that failed.  Each returned H keeps every Shoda pair (H, K) of the
    unfiltered enumeration, which remembers nothing."""
    groups_ = [get_group(name) for name in SWEEP]
    counts = _counting_coset_logs(monkeypatch)
    found = [shoda_pair_candidates(G) for G in groups_]
    assert counts["tests"] == 596
    assert counts["walks"] == 297
    monkeypatch.undo()
    for G, lams in zip(groups_, found):
        reps = {lam.H.members for lam in lams}
        want = [
            (H.members, K.members)
            for H, K in oracles.shoda_pair_candidates(G)
            if H.members in reps
        ]
        assert [(lam.H.members, lam.K.members) for lam in lams] == want


def test_is_complete_agrees_with_the_fold():
    """One combination of the numerators over the lcm of the denominators
    decides completeness as the `qg_add` fold does: on every catalog
    group's pair set, on each of those sets with one pair dropped, and on
    the empty set."""
    for entry in catalog():
        G = entry.constructor()
        pairs, complete = complete_irredundant_set(G)
        assert complete == is_complete(G, pairs) == oracles.is_complete(G, pairs)
        for i in range(len(pairs)):
            fewer = pairs[:i] + pairs[i + 1 :]
            assert is_complete(G, fewer) == oracles.is_complete(G, fewer)
        assert is_complete(G, []) is oracles.is_complete(G, []) is False
