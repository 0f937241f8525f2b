"""Group core: constructors, subgroup machinery, conjugacy, subnormality."""

import gc
import importlib
import itertools
import math
import time
import weakref
from functools import cache

import numpy as np
import oracles
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from zgcentral import groups, shoda
from zgcentral.cli import parse_pairs_file, parse_word
from zgcentral.catalog import (
    catalog,
    cyclic,
    dihedral,
    elementary_abelian,
    get_group,
    paper_1000_86,
    symmetric,
)
from zgcentral.errors import (
    CapExceeded,
    InconsistentPresentation,
    NotAGroup,
    NotNormal,
    NotSolvable,
    NotSubgroup,
    NotSubnormal,
)
from zgcentral.groupalgebra import QGElement
from zgcentral.groups import (
    FiniteGroup,
    Subgroup,
    all_subgroups,
    check_cyclic_subnormal_hypothesis,
    conjugacy_partition,
    cyclic_coset_log,
    cyclic_subgroups,
    galois_classes,
    galois_orbit_counts,
    group_from_cayley,
    group_from_pc_presentation,
    group_from_permutations,
    is_normal,
    is_subnormal,
    normal_closure,
    perm_from_cycles,
    right_transversal,
    subgroup_closure,
    subnormal_series,
)
from zgcentral.rank import rank_oracle
from zgcentral.shoda import complete_irredundant_set


def brute_force_subgroups(G, max_gens=3):
    """Independent oracle: closures of all generator subsets up to size 3."""
    found = set()
    for r in range(max_gens + 1):
        for combo in itertools.combinations(range(G.order), r):
            found.add(subgroup_closure(G, list(combo)).members)
    return found


def cyclic_2048():
    """C2048 from eleven order-2 pc generators, x_i^2 = x_(i+1)."""
    return group_from_pc_presentation([2] * 11, powers={i: [(i + 1, 1)] for i in range(1, 11)})


# -- constructors --------------------------------------------------------------


def test_trivial_cayley():
    G = group_from_cayley([[0]])
    assert G.order == 1
    assert G.element_orders == [1]
    assert G.generators == [0]


def test_c2_cayley():
    G = group_from_cayley([[0, 1], [1, 0]])
    assert G.order == 2
    assert G.element_orders == [1, 2]


@pytest.mark.parametrize("labels", [["e"], ["e", "a", "b"], []])
def test_label_count_must_match_the_order(labels):
    with pytest.raises(NotAGroup, match=f"^{len(labels)} labels for a table of order 2$"):
        group_from_cayley([[0, 1], [1, 0]], labels=labels)
    G = group_from_cayley([[0, 1], [1, 0]], labels=["e", "a"])
    assert repr(QGElement.element(G, 1)) == "QG(1*[a])"


def test_corrupt_table_rejected(s3):
    table = [[int(s3.table[i, j]) for j in range(6)] for i in range(6)]
    # swapping two entries of one row keeps the row a permutation but
    # breaks the group axioms; the validator must reject with a reason
    table[3][4], table[3][5] = table[3][5], table[3][4]
    with pytest.raises(NotAGroup) as err:
        group_from_cayley(table)
    assert err.value.reason


def test_nonassociative_loop_rejected():
    # a Latin square with identity 0 (a loop) whose product is not
    # associative; only Light's test over the generators can reject it
    table = [
        [0, 1, 2, 3, 4],
        [1, 0, 3, 4, 2],
        [2, 4, 0, 1, 3],
        [3, 2, 4, 0, 1],
        [4, 3, 1, 2, 0],
    ]
    with pytest.raises(NotAGroup) as err:
        group_from_cayley(table)
    assert err.value.reason == "associativity failure"
    a, g, b = err.value.witness
    t = table
    assert t[t[a][g]][b] != t[a][t[g][b]]


def test_construction_computes_generators_once(s3, monkeypatch):
    greedy = groups._subgroup_generators
    calls = []

    def counted(G, members):
        calls.append(G)
        return greedy(G, members)

    monkeypatch.setattr(groups, "_subgroup_generators", counted)
    G = group_from_cayley(s3.table)
    assert len(calls) == 1
    assert G.whole().gens == G.generators == greedy(G, range(G.order))
    assert len(calls) == 1


def test_generators_take_the_largest_order_first():
    """Each generator is the element of largest order outside the closure
    of those before it, the smallest index on ties.  No catalog group
    gets more generators than by smallest index first (134 -> 129 over
    the catalog), and a pc group keeps only the pc generators that a
    larger order does not cover: C2048 from eleven order-2 pc generators
    gets one."""
    counts = {}
    for entry in catalog():
        G = entry.constructor()
        closed = {0}
        for g in G.generators if G.order > 1 else []:  # the trivial group: [0]
            outside = [x for x in range(G.order) if x not in closed]
            top = max(G.element_orders[x] for x in outside)
            assert g == next(x for x in outside if G.element_orders[x] == top)
            closed = oracles.closure_members(G, closed | {g})
        assert len(closed) == G.order
        smallest_first, closed = 0, {0}
        while len(closed) < G.order:
            closed = oracles.closure_members(G, closed | {min(set(range(G.order)) - closed)})
            smallest_first += 1
        assert len(G.generators) <= max(smallest_first, 1)
        counts[entry.name] = len(G.generators)
    assert [counts[n] for n in ("Q8", "Q16", "paper-1000-86")] == [2, 2, 4]
    assert sum(counts.values()) == 129
    C = cyclic_2048()
    assert [C.element_orders[g] for g in C.generators] == [groups.MAX_ORDER]


def test_perm_s3():
    gens = [perm_from_cycles(3, [[1, 2]]), perm_from_cycles(3, [[1, 2, 3]])]
    G = group_from_permutations(3, gens)
    assert G.order == 6
    assert sorted(G.element_orders) == [1, 2, 2, 2, 3, 3]


def test_perm_c4():
    G = group_from_permutations(4, [perm_from_cycles(4, [[1, 2, 3, 4]])])
    assert G.order == 4
    assert max(G.element_orders) == 4


def test_perm_empty_generators():
    G = group_from_permutations(3, [])
    assert G.order == 1


def test_pc_c2():
    G = group_from_pc_presentation([2])
    assert G.order == 2


def test_pc_c4():
    G = group_from_pc_presentation([2, 2], powers={1: [(2, 1)]})
    assert G.order == 4
    assert np.array_equal(G.table, G.table.T)  # abelian
    assert max(G.element_orders) == 4  # cyclic of order 4


def test_pc_power_word_must_lie_above_its_generator():
    # x2^2 = x1 is no pc relation: the power of x2 may only use x3, x4, ...
    with pytest.raises(InconsistentPresentation, match=r"word for x2\^2 uses x1"):
        group_from_pc_presentation([2, 2], powers={2: [(1, 1)]})


def test_pc_commutator_word_must_lie_above_the_lower_generator():
    with pytest.raises(InconsistentPresentation, match=r"word for \[x3, x2\] uses x2"):
        group_from_pc_presentation([2, 2, 2], commutators={(3, 2): [(2, 1)]})


def test_perm_closure_stops_at_max_order():
    # A7 has order 2520 > MAX_ORDER; the closure gives up before any table
    gens = [perm_from_cycles(7, [[1, 2, 3]]), perm_from_cycles(7, [list(range(1, 8))])]
    start = time.perf_counter()
    with pytest.raises(CapExceeded):
        group_from_permutations(7, gens)
    assert time.perf_counter() - start < 1.0


def test_pc_order_1000():
    G = paper_1000_86()
    assert G.order == 1000
    assert sorted(set(G.element_orders)) == [1, 2, 4, 5, 8, 10]
    assert G.element_orders.count(8) == 500


@pytest.mark.parametrize("p, k", [(2, 2), (2, 3), (3, 2), (5, 2), (2, 6)])
def test_elementary_abelian_adds_digits_mod_p(p, k):
    """Element i of (Z/p)^k has the base-p digits of i; the product adds
    them digit by digit mod p."""
    n = p**k
    digits = np.array([[i // p**j % p for j in range(k)] for i in range(n)])
    weights = p ** np.arange(k)
    want = ((digits[:, None, :] + digits[None, :, :]) % p) @ weights
    assert np.array_equal(elementary_abelian(p, k).table, want)


def test_pc_relative_order_one_rejected():
    # x1 = 1 would force x2 = [x2, x1] = 1: the order-2 group is not it
    with pytest.raises(InconsistentPresentation, match="relative orders must be >= 2"):
        group_from_pc_presentation([1, 2], commutators={(2, 1): [(2, 1)]})


@pytest.mark.parametrize(
    "orders, powers, commutators, reason",
    [
        ([2, 2], {}, {(2, 1): [(2, 1)]}, "x1: conjugation by x1 is not a bijection"),
        (
            [2, 3, 2],
            {},
            {(3, 1): [(2, 1)]},
            "x1: conjugation by x1 does not respect multiplication by x3",
        ),
        ([2, 3], {1: [(2, 1)]}, {(2, 1): [(2, 1)]}, r"x1: conjugation by x1 moves x1\^2"),
        (
            [2, 5],
            {},
            {(2, 1): [(2, 1)]},
            r"x1: conjugation by x1 to the power 2 is not conjugation by x1\^2",
        ),
    ],
)
def test_pc_inconsistent_presentation(orders, powers, commutators, reason):
    # one presentation per Hoelder condition; collection fails on each too
    with pytest.raises(InconsistentPresentation, match=reason):
        group_from_pc_presentation(orders, powers=powers, commutators=commutators)
    with pytest.raises(InconsistentPresentation):
        oracles.group_from_pc_presentation(orders, powers=powers, commutators=commutators)


@st.composite
def pc_presentations(draw):
    """Relative orders 2..6 of 1-4 generators, with random power and
    commutator words; negative exponents only on generators whose power
    relation is trivial."""
    orders = draw(st.lists(st.integers(2, 6), min_size=1, max_size=4))
    ngen = len(orders)

    def word(floor, powers):
        gens = st.integers(floor + 1, ngen)
        pairs = gens.flatmap(
            lambda g: st.tuples(
                st.just(g),
                st.integers(0 if g in powers else 1 - orders[g - 1], orders[g - 1]),
            )
        )
        return draw(st.lists(pairs, max_size=3)) if floor < ngen else []

    powers = {}
    for i in range(ngen, 0, -1):
        w = word(i, powers)
        if w:
            powers[i] = w
    commutators = {}
    for j in range(2, ngen + 1):
        for i in range(1, j):
            w = word(i, powers)
            if w:
                commutators[(j, i)] = w
    return orders, powers, commutators


@settings(max_examples=60, deadline=None)
@given(pc_presentations())
def test_pc_presentation_matches_collection_oracle(presentation):
    orders, powers, commutators = presentation
    try:
        got = group_from_pc_presentation(orders, powers, commutators)
    except InconsistentPresentation:
        got = None
    try:
        want = oracles.group_from_pc_presentation(orders, powers, commutators)
    except InconsistentPresentation:
        want = None
    assert (got is None) == (want is None)
    if got is not None:
        assert np.array_equal(got.table, want.table)
        assert got.labels == want.labels
        assert got.pc_generators == want.pc_generators


# the catalog groups built from a pc presentation or from permutations
BUILT = ["Q8", "Q16", "paper-1000-86", "S3", "S4", "A4", "E4", "E8", "E9", "E25"]
BUILT += [f"D{n}" for n in range(3, 26)]


@pytest.mark.parametrize("name", BUILT)
def test_catalog_tables_match_constructor_oracles(name, monkeypatch):
    G = get_group(name)
    catalog_module = importlib.import_module("zgcentral.catalog")
    monkeypatch.setattr(
        catalog_module, "group_from_pc_presentation", oracles.group_from_pc_presentation
    )
    monkeypatch.setattr(
        catalog_module, "group_from_permutations", oracles.group_from_permutations
    )
    want = get_group(name)
    assert np.array_equal(G.table, want.table)
    assert G.labels == want.labels
    assert getattr(G, "pc_generators", None) == getattr(want, "pc_generators", None)


def test_bad_table_reasons():
    with pytest.raises(NotAGroup, match="^row 1 is not a permutation$"):
        group_from_cayley([[0, 1, 2], [1, 1, 0], [2, 0, 1]])
    with pytest.raises(NotAGroup, match="^column 1 is not a permutation$"):
        group_from_cayley([[0, 1, 2], [1, 2, 0], [2, 1, 0]])
    # a Latin square with identity 0 in which 2 * 3 = 0 but 3 * 2 = 1
    loop = [
        [0, 1, 2, 3, 4],
        [1, 0, 3, 4, 2],
        [2, 3, 4, 0, 1],
        [3, 4, 1, 2, 0],
        [4, 2, 0, 1, 3],
    ]
    with pytest.raises(NotAGroup, match="^element 2 has no two-sided inverse$"):
        group_from_cayley(loop)


CORRUPTED = {name: get_group(name) for name in ("S4", "D25", "paper-1000-86")}


@settings(max_examples=30, deadline=None)
@given(st.sampled_from(sorted(CORRUPTED)), st.data())
def test_corrupted_table_reason_matches_loop_oracle(name, data):
    # paper-1000-86's table spans several validation blocks
    G = CORRUPTED[name]
    n = G.order
    table = G.table.tolist()
    i = data.draw(st.integers(1, n - 1))
    j = data.draw(st.integers(1, n - 1))
    v = data.draw(st.integers(0, n - 2))
    table[i][j] = v + (v >= table[i][j])
    if data.draw(st.booleans()):
        table = [list(col) for col in zip(*table)]
    with pytest.raises(NotAGroup) as err:
        group_from_cayley(table)
    assert err.value.reason == oracles.table_reason(table)


@pytest.mark.parametrize(
    "build",
    [pytest.param(e.constructor, id=e.name) for e in catalog()]
    + [pytest.param(cyclic_2048, id="C2048"), pytest.param(lambda: dihedral(1024), id="D1024")],
)
def test_inverses_and_element_orders_match_walk_oracle(build):
    """Element orders from prime power maps equal the walk's, on the
    catalog and on C2048 (pc) and D1024 at the largest order."""
    G = build()
    assert G.inv.tolist() == oracles.inverses(G)
    assert G.element_orders == oracles.element_orders(G)
    assert all(type(k) is int for k in G.element_orders)


def test_groups_at_max_order_build_quickly():
    n = groups.MAX_ORDER // 2
    start = time.perf_counter()
    D = dihedral(n)
    assert time.perf_counter() - start < 60.0
    assert D.order == groups.MAX_ORDER and max(D.element_orders) == n
    start = time.perf_counter()
    C = cyclic_2048()
    assert time.perf_counter() - start < 60.0
    assert C.order == groups.MAX_ORDER and max(C.element_orders) == groups.MAX_ORDER


# -- subgroup machinery --------------------------------------------------------


def test_all_subgroups_c4(c4):
    subs = all_subgroups(c4)
    assert sorted(S.order for S in subs) == [1, 2, 4]
    assert {S.members for S in subs} == brute_force_subgroups(c4)


def test_all_subgroups_s3(s3):
    subs = all_subgroups(s3)
    assert sorted(S.order for S in subs) == [1, 2, 2, 2, 3, 6]
    assert {S.members for S in subs} == brute_force_subgroups(s3)


def test_all_subgroups_matches_brute_force(d4, a4, q8):
    for G in (d4, a4, q8):
        assert {S.members for S in all_subgroups(G)} == brute_force_subgroups(G)


def test_all_subgroups_trivial():
    G = group_from_cayley([[0]])
    assert len(all_subgroups(G)) == 1


# every catalog group but paper-1000-86 has order at most 60
@pytest.mark.parametrize(
    "entry", [e for e in catalog() if e.name != "paper-1000-86"], ids=lambda e: e.name
)
def test_all_subgroups_matches_closure_oracle(entry):
    G = entry.constructor()
    assert G.order <= 60
    subs = all_subgroups(G)
    assert [S.sorted_members.tolist() for S in subs] == [
        S.sorted_members.tolist() for S in oracles.all_subgroups(G)
    ]
    for S in subs:
        assert subgroup_closure(G, S.gens).members == S.members


def test_all_subgroups_rejects_non_solvable():
    with pytest.raises(NotSolvable, match="Taketa"):
        all_subgroups(symmetric(5))


def test_all_subgroups_lattice_cap():
    # E128 has 29 212 subgroups, more than LATTICE_CAP
    G = elementary_abelian(2, 7)
    start = time.perf_counter()
    with pytest.raises(CapExceeded, match="--pairs-file"):
        all_subgroups(G)
    assert time.perf_counter() - start < 5.0


def test_all_subgroups_order_1000(paper1000):
    subs = all_subgroups(paper1000)
    assert len(subs) == 632
    assert subs[-1].order == 1000


def lattice_or_error(lattice, G):
    """(sorted_members, gens) of each subgroup in `lattice(G)`'s order, or
    the type of the error it raises."""
    try:
        return [(S.sorted_members.tolist(), S.gens) for S in lattice(G)]
    except (CapExceeded, NotSolvable) as exc:
        return type(exc)


def test_all_subgroups_matches_power_walk_oracle(paper1000_c2):
    """Power maps give the lattice the power walk gave: the same members
    and generators, in the same order, on the catalog, paper-1000-86 x C2,
    E64, C2048 and D1024."""
    corpus = [entry.constructor() for entry in catalog()]
    corpus += [paper1000_c2, elementary_abelian(2, 6), cyclic_2048(), dihedral(1024)]
    for G in corpus:
        want = lattice_or_error(oracles.cyclic_extension_lattice, G)
        assert lattice_or_error(all_subgroups, G) == want
        assert isinstance(want, list)


@settings(max_examples=100, deadline=None)
@given(st.data())
def test_coset_walk_matches_the_sequential_loop(data):
    """h, h g, h g^2, ... by doubling, cut at n, is the list the loop
    that appends one product by g at a time builds, in order."""
    G = get_group(data.draw(st.sampled_from(["S4", "D12", "Q16", "C24", "paper-1000-86"])))
    S = subgroup_closure(G, data.draw(st.lists(st.integers(0, G.order - 1), max_size=2)))
    g = data.draw(st.integers(0, G.order - 1))
    h = S.sorted_members if data.draw(st.booleans()) else np.zeros(1, dtype=np.intp)
    n = data.draw(st.integers(h.size, G.element_orders[g] * h.size))
    walk = [int(x) for x in h]
    while len(walk) < n:
        walk += [int(G.table[x, g]) for x in walk[-h.size :]]
    assert groups._coset_walk(G, h, g, n).tolist() == walk[:n]


# half the draws keep only the power relations, which makes them
# consistent and abelian; C6^4 has more than LATTICE_CAP subgroups
@settings(max_examples=100, deadline=None)
@example(([6, 6, 6, 6], {}, {}))
@given(
    st.tuples(pc_presentations(), st.booleans()).map(
        lambda drawn: (*drawn[0][:2], drawn[0][2] if drawn[1] else {})
    )
)
def test_all_subgroups_matches_power_walk_oracle_on_pc_groups(presentation):
    """The same on random pc groups, which are solvable; both sides raise
    CapExceeded on the same ones."""
    try:
        G = group_from_pc_presentation(*presentation)
    except InconsistentPresentation:
        return
    want = lattice_or_error(oracles.cyclic_extension_lattice, G)
    assert lattice_or_error(all_subgroups, G) == want
    assert want is not NotSolvable


@pytest.mark.parametrize("name, primes", [("D24", [2, 3]), ("C60", [2, 3, 5]), ("C1", [])])
def test_all_subgroups_computes_one_power_map_per_prime(name, primes, monkeypatch):
    """One power map per prime dividing |G| per call, not one per subgroup."""
    G = get_group(name)
    exponents = []

    def counted(t, a, k):
        exponents.append(k)
        return power(t, a, k)

    power = groups._array_power
    monkeypatch.setattr(groups, "_array_power", counted)
    assert len(all_subgroups(G)) > len(primes)
    assert exponents == primes


def test_derived_subgroup_s3(s3):
    A3 = subgroup_closure(s3, [s3.element_orders.index(3)])
    comms = {oracles.commutator(s3, a, b) for a in range(6) for b in range(6)}
    assert subgroup_closure(s3, comms) == A3
    assert A3.order == 3
    assert is_normal(A3, s3.whole())
    assert normal_closure(A3, s3.whole()) == A3


def test_quotient_s3(s3):
    A3 = subgroup_closure(s3, [s3.element_orders.index(3)])
    log = cyclic_coset_log(s3.whole(), A3).tolist()
    assert sorted(log) == [0, 0, 0, 1, 1, 1]
    assert all(log[k] == 0 for k in A3.members)
    Q, proj = oracles.quotient(s3.whole(), A3)
    assert Q.order == 2
    for a in range(s3.order):
        for b in range(s3.order):
            assert log[s3.mul(a, b)] == (log[a] + log[b]) % 2
            assert proj[s3.mul(a, b)] == Q.mul(proj[a], proj[b])


def test_quotient_requires_normal(s3):
    refl = next(g for g in range(6) if s3.element_orders[g] == 2)
    H = subgroup_closure(s3, [refl])
    with pytest.raises(NotNormal):
        cyclic_coset_log(s3.whole(), H)
    with pytest.raises(NotNormal):
        oracles.quotient(s3.whole(), H)
    A3 = subgroup_closure(s3, [s3.element_orders.index(3)])
    with pytest.raises(NotSubgroup):
        cyclic_coset_log(A3, H)


def test_minimal_normal_overgroups_trivial_case(c4):
    H = c4.whole()
    assert oracles.minimal_normal_overgroups(H, H) == []


def test_minimal_normal_overgroups_c4(c4):
    g2 = next(g for g in range(4) if c4.element_orders[g] == 2)
    out = oracles.minimal_normal_overgroups(c4.whole(), Subgroup(c4, {0}))
    assert len(out) == 1 and out[0].members == {0, g2}


def test_minimal_normal_overgroups_a3(s3):
    A3 = subgroup_closure(s3, [s3.element_orders.index(3)])
    out = oracles.minimal_normal_overgroups(A3, Subgroup(s3, {0}))
    assert len(out) == 1 and out[0].members == A3.members


# -- conjugacy -----------------------------------------------------------------


def test_partition_counts_c5(c5):
    assert len(conjugacy_partition(c5).classes) == 5
    assert oracles.merged_class_counts(c5) == (3, 2)
    assert rank_oracle(c5) == 3 - 2


def test_partition_counts_q8(q8):
    assert len(conjugacy_partition(q8).classes) == 5
    assert oracles.merged_class_counts(q8) == (5, 5)
    assert rank_oracle(q8) == 0


def test_partition_trivial():
    G = group_from_cayley([[0]])
    part = conjugacy_partition(G)
    assert len(part.classes) == 1
    assert part.inverse.tolist() == part.trace_index.tolist() == [0]
    assert rank_oracle(G) == 0


@pytest.mark.parametrize("name", ["C12", "D4", "S4"])
def test_partition_invariants(name):
    """The classes tile G, `inverse` is an involution taking each class
    to the class of its members' inverses, and the oracle's counts keep
    rational <= real <= ordinary."""
    G = get_group(name)
    part = conjugacy_partition(G)
    classes = part.classes
    assert sum(len(c) for c in classes) == G.order
    for c, cl in enumerate(classes):
        assert {int(G.inv[g]) for g in cl} == classes[part.inverse[c]]
    assert part.inverse[part.inverse].tolist() == list(range(len(classes)))
    real, rational = oracles.merged_class_counts(G)
    assert rational <= real <= len(classes)
    assert rank_oracle(G) == real - rational


@pytest.mark.parametrize("name", ["C12", "D4", "S4", "Q16", "C60", "D25"])
def test_partition_merges_match_power_oracle(name):
    """The classes merged under g -> g^-1 and under g -> g^t, t prime to
    |g|, walked by G.power, are as many as `oracles.merged_class_counts`
    counts, and rank_oracle is the difference."""
    G = get_group(name)
    ordinary = conjugacy_partition(G)

    def merged(exponents_of):
        return {
            frozenset().union(
                *(ordinary.classes[ordinary.class_of[G.power(g, m)]] for m in exponents_of(g))
            )
            for g in range(G.order)
        }

    def real(g):
        return (1, G.element_orders[g] - 1)

    def rational(g):
        d = G.element_orders[g]
        return [m for m in range(1, d + 1) if math.gcd(m, d) == 1]

    counts = len(merged(real)), len(merged(rational))
    assert oracles.merged_class_counts(G) == counts
    assert rank_oracle(G) == counts[0] - counts[1]


def test_partition_memoized_and_immutable():
    G = cyclic(10)
    part = conjugacy_partition(G)
    assert conjugacy_partition(G) is part
    for arr in (part.class_of, part.reps, part.least, part.inverse, part.trace_index):
        assert isinstance(arr, np.ndarray) and not arr.flags.writeable
        with pytest.raises(ValueError):
            arr[0] = 1
    with pytest.raises(AttributeError):
        part.classes = ()
    with pytest.raises(AttributeError):
        part.inverse = None
    assert galois_classes(G) is galois_classes(G)
    assert not galois_classes(G).flags.writeable
    counts = galois_orbit_counts(G)
    assert galois_orbit_counts(G) is counts
    assert rank_oracle(G) == counts[0] - counts[1] == 2


def test_group_and_its_class_record_form_no_cycle(paper1000):
    """The partition holds arrays only: a group whose record, Galois
    matrix and orbit counts are built is freed by reference counting
    alone, with its 4 MB table, as soon as the last reference goes; no
    memoized value holds a FiniteGroup."""
    G = group_from_cayley(paper1000.table)
    rank_oracle(G)
    for value in (conjugacy_partition(G), galois_classes(G), galois_orbit_counts(G)):
        assert not any(isinstance(x, FiniteGroup) for x in gc.get_referents(value))
    gc.disable()
    try:
        ref = weakref.ref(G)
        del G
        assert ref() is None
    finally:
        gc.enable()


@pytest.mark.parametrize("name", [e.name for e in catalog()])
def test_partitions_and_galois_classes_match_power_oracle(name):
    """Every catalog group (orders up to 60, and paper-1000-86): the
    ordinary classes equal the breadth-first oracle's, with each
    representative's inverse class and each element's trace index
    g^-1 least[g]; row i of galois_classes holds the oracle class of
    rep^t for the i-th unit t mod the exponent, walked by G.power; and
    rank_oracle is the oracle's real minus rational class count."""
    G = get_group(name)
    classes, class_of = oracles.conjugacy_classes(G)
    e = math.lcm(*G.element_orders)
    units = [t for t in range(1, e + 1) if math.gcd(t, e) == 1]
    part = conjugacy_partition(G)
    assert set(part.classes) == set(classes)
    reps = [min(c) for c in classes]
    assert part.reps.tolist() == reps
    assert part.class_of.tolist() == class_of
    assert part.least.tolist() == [reps[c] for c in class_of]
    assert part.inverse.tolist() == [class_of[G.inv[r]] for r in reps]
    assert part.trace_index.tolist() == [
        G.mul(int(G.inv[g]), reps[c]) for g, c in enumerate(class_of)
    ]
    assert galois_classes(G).tolist() == [
        [class_of[G.power(r, t)] for r in reps] for t in units
    ]
    real, rational = oracles.merged_class_counts(G)
    assert rank_oracle(G) == real - rational


@pytest.mark.parametrize("name", ["S4", "A4", "D12", "Q16", "D8", "E8", "C24", "paper-1000-86"])
def test_normal_closure_matches_loop_oracle(name):
    """normal_closure(S, T), closing the conjugates of S's generators by
    all of T at once, equals the loop oracle for every pair S <= T of
    subgroups of G; for paper-1000-86 only T = G."""
    G = get_group(name)
    subs = all_subgroups(G)
    tops = [G.whole()] if G.order > 100 else subs
    checked = 0
    for T in tops:
        for S in subs:
            if S <= T:
                assert normal_closure(S, T) == oracles.normal_closure(S, T)
                checked += 1
    assert checked >= len(subs)


def test_is_normal_matches_generator_loop_oracle():
    """is_normal(K, H), one gather of K's generators conjugated by H's,
    equals the loop over pairs of generators for every K <= H of every
    lattice in the small catalog, also when K has the default generators
    (its non-identity members).  On paper-1000-86's and D1024's lattices
    it does for every member against G, and for a seeded sample of pairs
    K <= H, each also with H and K rebuilt with the default generators."""
    checked = 0
    for _, G in oracles.small_catalog():
        subs = all_subgroups(G)
        for H in subs:
            for K in subs:
                if K <= H:
                    want = oracles.is_normal(K, H)
                    assert is_normal(K, H) == want
                    assert is_normal(Subgroup(G, K.members), H) == want
                    checked += 1
    assert checked > 3500
    rng = np.random.default_rng(7)
    for name, normal in [("paper-1000-86", 6), ("D1024", 14)]:
        G = extension_group(name)
        subs = all_subgroups(G)
        whole = G.whole()
        got = [is_normal(K, whole) for K in subs]
        assert got == [oracles.is_normal(K, whole) for K in subs]
        assert sum(got) == normal
        outcomes = []
        while len(outcomes) < 200:
            H, K = (subs[i] for i in rng.integers(len(subs), size=2))
            if K <= H:
                want = oracles.is_normal(K, H)
                assert is_normal(K, H) == want
                assert is_normal(Subgroup(G, K.members), Subgroup(G, H.members)) == want
                outcomes.append(want)
        assert any(outcomes) and not all(outcomes)


def check_right_transversals(pairs, monkeypatch):
    """right_transversal(H, N) equals the loop oracle for each (H, N), and
    right_transversal(H), within all of G, equals it with N = G and the
    reps `shoda._coset_conjugates(H)` reads.  The least-element gather
    (`coset_least`) runs exactly when |H| <= [N:H], so that at most
    |N|^1.5 table entries are read; returns the branches taken, True for
    the gather."""
    gathers = []
    least = groups.coset_least

    def counted(H, xs=None):
        gathers.append(H)
        return least(H, xs)

    monkeypatch.setattr(groups, "coset_least", counted)
    branches = set()
    for H, N in pairs:
        gathers.clear()
        assert right_transversal(H, N) == oracles.right_transversal(H, N)
        branch = H.order**2 <= N.order
        assert len(gathers) == branch, (H.order, N.order)
        branches.add(branch)
    for H in {H.members: H for H, _ in pairs}.values():
        want = oracles.right_transversal(H, H.parent.whole())
        assert right_transversal(H) == want
        assert shoda._coset_conjugates(H)[1].tolist() == want
    return branches


def test_right_transversal_matches_the_loop_oracle(monkeypatch):
    """The least member of each right coset, in increasing order, equals
    the loop over every member of N for every H <= N of every lattice in
    the small catalog (N = G among them) and for 200 seeded pairs H <= N
    each of paper-1000-86's and D1024's lattices; each corpus takes both
    branches, the least-element gather and the per-coset marking."""
    pairs = [
        (H, N)
        for _, G in oracles.small_catalog()
        for subs in [all_subgroups(G)]
        for N in subs
        for H in subs
        if H <= N
    ]
    assert len(pairs) > 3500
    assert any(N.order < N.parent.order for _, N in pairs)
    assert any(H.order**2 == N.order for H, N in pairs)  # the branches' boundary
    assert check_right_transversals(pairs, monkeypatch) == {True, False}
    rng = np.random.default_rng(7)
    for name in ("paper-1000-86", "D1024"):
        subs = all_subgroups(extension_group(name))
        pairs = []
        while len(pairs) < 200:
            H, N = (subs[i] for i in rng.integers(len(subs), size=2))
            if H <= N:
                pairs.append((H, N))
        assert check_right_transversals(pairs, monkeypatch) == {True, False}, name


def test_subgroups_carry_generators(paper1000_c2):
    """Every Subgroup the library builds carries generators that generate
    it, which is all that is_normal and is_central read: G and 1, every
    lattice member and every centralizer of a kept chain, on the small
    catalog, paper-1000-86, paper-1000-86 x C2 and D1024; normal closures,
    subnormal series steps and cyclic subgroups there; closures of random
    seeds; and the subgroups a pairs file names, closed from its words."""
    # the default is the non-identity members; closures keep their seed
    G = get_group("D4")
    assert Subgroup(G, range(8)).gens == list(range(1, 8))
    assert Subgroup(G, {0}).gens == []
    assert subgroup_closure(G, [0, 3]).gens == [3]
    # repeats are dropped, the first occurrence keeping its place
    S4 = get_group("S4")
    assert subgroup_closure(S4, [3, 3, 0, 3]).gens == [3]
    assert subgroup_closure(S4, [5, 3, 5, 0, 3, 1]).gens == [5, 3, 1]

    def not_generated(built):
        return [S for S in built if subgroup_closure(S.parent, S.gens).members != S.members]

    rng = np.random.default_rng(7)
    corpus = [G for _, G in oracles.small_catalog()]
    corpus += [extension_group("paper-1000-86"), paper1000_c2, extension_group("D1024")]
    counts = []
    for G in corpus:
        subs = all_subgroups(G)
        cens = [c for p in complete_irredundant_set(G)[0] for c in p.chain.centralizers]
        built = [G.whole(), G.trivial(), *subs, *cens]
        built += [normal_closure(S, G.whole()) for S in subs[:: max(1, len(subs) // 40)]]
        for _, H in itertools.islice(cyclic_subgroups(G), 40):
            built += subnormal_series(H).steps if is_subnormal(H) else [H]
        seeds = [rng.integers(G.order, size=rng.integers(1, 4)).tolist() for _ in range(10)]
        built += [subgroup_closure(G, seed) for seed in seeds]
        assert not_generated(built) == [], G.order
        counts.append((len(subs), len(cens)))
    assert counts[-3:] == [(632, 13), (1857, 26), (2058, 13)]
    words = ["x1", "x4", "x5", "x6", "x3*x4^2*x6", "x3*x4^2*x6^3", "x4^-1*x5"]
    G = extension_group("paper-1000-86")
    named = [subgroup_closure(G, [parse_word(G, a), parse_word(G, b)]) for a in words for b in words]
    assert not_generated(named) == []


# -- subnormality --------------------------------------------------------------


def test_subnormal_in_abelian(c4):
    g2 = next(g for g in range(4) if c4.element_orders[g] == 2)
    ser = subnormal_series(subgroup_closure(c4, [g2]))
    assert len(ser.steps) == 2


def test_reflection_not_subnormal(s3):
    refl = next(g for g in range(6) if s3.element_orders[g] == 2)
    with pytest.raises(NotSubnormal):
        subnormal_series(subgroup_closure(s3, [refl]))


def test_center_of_q8_subnormal(q8):
    center = [g for g in range(8) if all(q8.mul(g, h) == q8.mul(h, g) for h in range(8))]
    assert is_subnormal(subgroup_closure(q8, center))


def test_series_steps_each_normal(d4):
    g = next(x for x in range(8) if d4.element_orders[x] == 2)
    ser = subnormal_series(subgroup_closure(d4, [g]))
    for a, b in zip(ser.steps, ser.steps[1:]):
        assert is_normal(a, b)


@pytest.mark.parametrize("name", ["C24", "Q16", "D4"])
def test_series_starts_at_the_callers_subgroup(name):
    # steps[0] keeps H's generators, so nothing recomputes them
    G = get_group(name)
    for g in range(G.order):
        H = subgroup_closure(G, [g])
        assert subnormal_series(H).steps[0] is H


def test_cyclic_subnormal_hypothesis():
    ok, witness = check_cyclic_subnormal_hypothesis(symmetric(3))
    assert ok and witness is None  # vacuous: all orders divide 6
    ok, _ = check_cyclic_subnormal_hypothesis(dihedral(5))
    assert ok  # order-5 rotations generate a normal subgroup
    ok, witness = check_cyclic_subnormal_hypothesis(symmetric(5))
    assert not ok and symmetric(5).element_orders[witness] in (5, 6)


# -- property tests ------------------------------------------------------------


@settings(max_examples=60, deadline=None)
@given(st.data())
def test_associativity_random_triples(data):
    G = symmetric(4)
    a = data.draw(st.integers(0, G.order - 1))
    b = data.draw(st.integers(0, G.order - 1))
    c = data.draw(st.integers(0, G.order - 1))
    assert G.mul(G.mul(a, b), c) == G.mul(a, G.mul(b, c))


@settings(max_examples=30, deadline=None)
@given(st.integers(2, 20), st.data())
def test_cyclic_quotients(n, data):
    G = cyclic(n)
    g = data.draw(st.integers(0, n - 1))
    H = subgroup_closure(G, [g])
    log = cyclic_coset_log(G.whole(), H)
    assert (int(log.max()) + 1) * H.order == n
    assert all(log[h] == 0 for h in H.members)
    Q, _ = oracles.quotient(G.whole(), H)
    assert Q.order * H.order == n


# -- closure kernel against the pairwise brute force ---------------------------


def pairwise_closure(G, seed):
    """Reference closure: multiply every new member by every member, on
    both sides, until nothing new appears."""
    t = G.table.tolist()
    members = set(seed)
    frontier = list(seed)
    while frontier:
        x = frontier.pop()
        for y in tuple(members):
            for z in (t[x][y], t[y][x]):
                if z not in members:
                    members.add(z)
                    frontier.append(z)
    return members


CLOSURE_GROUPS = {name: get_group(name) for name in ("C12", "D9", "Q16", "S4", "E25")}


@settings(max_examples=60, deadline=None)
@given(st.sampled_from(sorted(CLOSURE_GROUPS)), st.data())
def test_closure_matches_pairwise_brute_force(name, data):
    G = CLOSURE_GROUPS[name]
    seed = data.draw(st.sets(st.integers(0, G.order - 1), max_size=4))
    seed.add(0)
    members, _ = G._closure_members(sorted(seed))
    assert members == pairwise_closure(G, seed)
    assert all(type(m) is int for m in members)


@settings(max_examples=8, deadline=None)
@given(st.sets(st.integers(0, 999), min_size=1, max_size=2))
def test_closure_matches_pairwise_brute_force_order_1000(paper1000, seed):
    seed.add(0)
    members, _ = paper1000._closure_members(sorted(seed))
    assert members == pairwise_closure(paper1000, seed)


# -- cyclic-extension closure against the breadth-first oracle -------------------


@cache
def extension_group(name):
    """A catalog group, or D1024 (order 2048) built from permutations."""
    return dihedral(1024) if name == "D1024" else get_group(name)


EXTENSION_GROUPS = [name for name, _ in oracles.small_catalog()] + ["paper-1000-86", "D1024"]


def check_closure(G, seed):
    """The kernel's members equal the oracle's, as Python ints, and the
    generators it kept come from the seed, at most log2 of the order of
    them, and close to the same members."""
    members, kept = G._closure_members(seed)
    assert members == oracles.closure_members(G, seed)
    assert all(type(m) is int for m in members)
    assert set(kept) <= set(np.asarray(seed).tolist())
    assert 2 ** len(kept) <= len(members)
    assert G._closure_members(kept)[0] == members
    return members


@settings(max_examples=150, deadline=None)
@given(st.sampled_from(EXTENSION_GROUPS), st.data())
def test_closure_matches_breadth_first_oracle(name, data):
    """Random seeds of 1-6 elements, and every conjugate of a random
    subgroup's generators, the seed a normal closure makes."""
    G = extension_group(name)
    elements = st.integers(0, G.order - 1)
    seed = data.draw(st.lists(elements, min_size=1, max_size=6))
    members = check_closure(G, seed)
    if G.order <= 60:
        assert members == pairwise_closure(G, {0, *seed})
    S = subgroup_closure(G, data.draw(st.lists(elements, min_size=1, max_size=3)))
    t = G.table
    w = np.arange(G.order)[:, None]
    check_closure(G, t[t[G.inv[w], np.array(S.gens, dtype=np.intp)], w].ravel())


@pytest.mark.parametrize("name", ["S4", "A4", "D12", "Q16"])
def test_closure_searches_where_g_does_not_normalize(name):
    """Every seed (a, b) whose later element b lies outside <a> and does
    not normalize it (the breadth-first search from <a>) closes to the
    oracle's members, keeping both."""
    G = get_group(name)
    first = sorted(range(1, G.order), key=lambda g: (-G.element_orders[g], g))
    checked = 0
    for i, a in enumerate(first):
        H = oracles.closure_members(G, {a})
        for b in first[i + 1 :]:
            if b in H or oracles.conjugate(G, a, b) in H:
                continue
            members, kept = G._closure_members([b, a])
            assert members == oracles.closure_members(G, {a, b})
            assert kept == [a, b]
            checked += 1
    assert checked > 0


@pytest.mark.parametrize("name", ["C12", "S4", "Q16"])
def test_power_by_squaring_matches_the_walk(name):
    """`binary_power` through the table, on one element and on an index
    array, equals the walk of one product per factor; it takes n >= 1."""
    G = get_group(name)
    for a in range(G.order):
        for k in range(-2 * G.order, 2 * G.order + 1):
            assert G.power(a, k) == oracles.power(G, a, k)
    for k in range(2 * G.order + 1):
        want = [oracles.power(G, a, k) for a in range(G.order)]
        assert groups._array_power(G.table, np.arange(G.order), k).tolist() == want
        if k:
            got = groups.binary_power(np.arange(G.order), k, lambda x, y: G.table[x, y])
            assert got.tolist() == want
    with pytest.raises(ValueError):
        groups.binary_power(1, 0, G.mul)


@pytest.mark.parametrize("name", [name for name, _ in oracles.small_catalog()] + ["paper-1000-86"])
def test_conjugate_matches_oracle(name):
    """h^g = g^-1 h g for every h and g at once, for one g over all of G
    (h = None), and for an array of g over all of G, equals the product
    walk; on paper-1000-86, for 40 sampled g."""
    G = get_group(name)
    everything = np.arange(G.order)
    gs = everything if G.order <= 60 else everything[:: G.order // 40]
    want = [[oracles.conjugate(G, h, g) for h in range(G.order)] for g in gs.tolist()]
    assert groups.conjugate(G, everything, gs[:, None]).tolist() == want
    assert groups.conjugate(G, None, gs).tolist() == want
    for g, row in zip(gs.tolist(), want):
        assert groups.conjugate(G, None, g).tolist() == row
        assert int(groups.conjugate(G, 1 % G.order, g)) == row[1 % G.order]


@pytest.mark.parametrize("name", [n for n in EXTENSION_GROUPS if n != "D1024"])
def test_cyclic_subgroups_yield_each_once(name):
    """One (g, <g>) per member set of {<g> : g in G}, g the least
    generator, in increasing g."""
    G = extension_group(name)
    closures = [frozenset(oracles.closure_members(G, {g})) for g in range(G.order)]
    least = {}
    for g, members in enumerate(closures):
        least.setdefault(members, g)
    got = list(cyclic_subgroups(G))
    assert [g for g, _ in got] == sorted(least.values())
    assert [H.members for _, H in got] == [closures[g] for g, _ in got]


@pytest.mark.parametrize(
    "build", [cyclic_2048, lambda: extension_group("D1024")], ids=["C2048", "D1024"]
)
def test_cyclic_subnormal_hypothesis_at_order_2048(build):
    """Every cyclic subgroup of C2048 and of D1024 is subnormal; each
    <g> is closed by doubling, log2 |g| gathers."""
    assert check_cyclic_subnormal_hypothesis(build()) == (True, None)


# -- a subgroup's sorted member array --------------------------------------------


def check_sorted_members(S):
    """S.sorted_members holds S's members in increasing order as a
    read-only intp array that owns its data, the same object on every
    read; writing to it raises ValueError."""
    arr = S.sorted_members
    assert arr is S.sorted_members
    assert arr.dtype == np.intp and arr.ndim == 1 and arr.base is None
    assert arr.tolist() == sorted(S.members)
    assert not arr.flags.writeable
    with pytest.raises(ValueError):
        arr[0] = 0


@cache
def sorted_members_corpus(name):
    """(lattice, centralizers, closures) of a catalog group: `all_subgroups`,
    the centralizers of every chain level `_climb` passed while
    classifying G, and `parse_pairs_file`'s closures of a pairs file that
    names each subgroup by its generators, with G as a one-step chain."""
    G = dict(oracles.small_catalog())[name]
    lattice = all_subgroups(G)
    pairs, _ = complete_irredundant_set(G)
    centralizers = [c for p in pairs for c in p.chain.centralizers]
    doc = {"pairs": [{"H": S.gens, "K": [], "chain": [S.gens, G.generators]} for S in lattice]}
    closures = [S for H, K, chain in parse_pairs_file(G, doc) for S in (H, K, *chain)]
    return lattice, centralizers, closures


@settings(max_examples=80, deadline=None)
@given(st.sampled_from([name for name, _ in oracles.small_catalog()]), st.data())
def test_sorted_members_on_every_construction_path(name, data):
    """Every way a Subgroup is built, on the catalog up to order 60, gives
    the same read-only sorted intp array: from a set, a list and a range;
    `whole`, `trivial`, `subgroup_closure` and `normal_closure`; and the
    subgroups of `all_subgroups`, of `_climb`'s centralizers and of
    `parse_pairs_file`'s closures, drawn here and all of them in
    `test_sorted_members_of_every_lattice_and_chain`."""
    G = dict(oracles.small_catalog())[name]
    lattice, centralizers, closures = sorted_members_corpus(name)
    S = data.draw(st.sampled_from(lattice), label="S")
    members = sorted(S.members)
    built = [
        Subgroup(G, set(members)),
        Subgroup(G, members[::-1]),
        Subgroup(G, range(G.order)),
        G.whole(),
        G.trivial(),
        subgroup_closure(G, S.gens),
        normal_closure(S, G.whole()),
        S,
    ]
    if centralizers:
        built.append(data.draw(st.sampled_from(centralizers), label="centralizer"))
    built.append(data.draw(st.sampled_from(closures), label="closure"))
    for T in built:
        check_sorted_members(T)
    assert built[0].sorted_members.tolist() == built[1].sorted_members.tolist() == members


def test_sorted_members_of_every_lattice_and_chain():
    """The same on every subgroup of the catalog up to order 60 that the
    lattice, the chain levels and a pairs file build."""
    for name, _ in oracles.small_catalog():
        for found in sorted_members_corpus(name):
            for S in found:
                check_sorted_members(S)
