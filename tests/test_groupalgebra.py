"""Group-algebra arithmetic: idempotents, products, powers, center."""

from fractions import Fraction
from math import gcd

import numpy as np
import oracles
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from oracles import e_sum_conjugates

from zgcentral import groupalgebra
from zgcentral.catalog import cyclic, get_group, symmetric
from zgcentral.errors import GroupMismatch, NotIdempotent, NotNormal, NotSubgroup
from zgcentral.groupalgebra import (
    _INT64_BOUND,
    QGElement,
    center_component_dim,
    centralizer_of,
    conjugate_orbit,
    epsilon,
    hat,
    is_central,
    is_idempotent,
    mul,
)
from zgcentral.groups import (
    Subgroup,
    conjugacy_partition,
    subgroup_closure,
)
from zgcentral.rank import verify_center_degree
from zgcentral.shoda import complete_irredundant_set, pci, shoda_pair_candidates


def elem(G, g):
    return QGElement.element(G, g)


# -- hat and epsilon -----------------------------------------------------------


def test_hat_trivial(s3):
    assert hat(Subgroup(s3, {0})) == QGElement.one(s3)


def test_hat_c2():
    from zgcentral.catalog import cyclic

    C2 = cyclic(2)
    h = hat(C2.whole())
    assert [h.coeff(g) for g in range(2)] == [Fraction(1, 2), Fraction(1, 2)]
    assert is_idempotent(h)


def test_hat_absorption(s3):
    A3 = subgroup_closure(s3, [s3.element_orders.index(3)])
    h = hat(A3)
    for g in A3.members:
        assert mul(elem(s3, g), h) == h


def test_epsilon_h_equals_k(c4):
    H = c4.whole()
    assert epsilon(H, H) == hat(H)


def test_epsilon_c4():
    C4 = cyclic(4)
    g = next(x for x in range(4) if C4.element_orders[x] == 4)
    g2 = C4.mul(g, g)
    eps = epsilon(C4.whole(), Subgroup(C4, {0}))
    expected = QGElement.one(C4) - hat(Subgroup(C4, {0, g2}))
    assert eps == expected
    assert is_idempotent(eps)


def test_epsilon_a3_in_s3(s3):
    A3 = subgroup_closure(s3, [s3.element_orders.index(3)])
    eps = epsilon(A3, Subgroup(s3, {0}))
    assert eps == QGElement.one(s3) - hat(A3)


def test_epsilon_requires_normal(s3):
    refl = next(g for g in range(6) if s3.element_orders[g] == 2)
    with pytest.raises(NotNormal):
        epsilon(s3.whole(), subgroup_closure(s3, [refl]))
    A3 = subgroup_closure(s3, [s3.element_orders.index(3)])
    with pytest.raises(NotSubgroup):
        epsilon(A3, subgroup_closure(s3, [refl]))


def test_e_sum_conjugates_s3(s3):
    A3 = subgroup_closure(s3, [s3.element_orders.index(3)])
    e = e_sum_conjugates(s3.whole(), A3, Subgroup(s3, {0}))
    assert e == QGElement.one(s3) - hat(A3)  # epsilon already G-invariant


def test_e_sum_conjugates_abelian(c4):
    K = Subgroup(c4, {0})
    assert e_sum_conjugates(c4.whole(), c4.whole(), K) == epsilon(c4.whole(), K)


def test_orthogonality_c4():
    C4 = cyclic(4)
    eps = epsilon(C4.whole(), Subgroup(C4, {0}))
    assert mul(eps, hat(C4.whole())).is_zero()


# -- ring operations -----------------------------------------------------------


def test_conj_by_identity(s3):
    a = elem(s3, 1) + elem(s3, 3).scale(2)
    assert a.conj(0) == a


def test_conj_composition(s3):
    a = elem(s3, 1) - elem(s3, 4)
    for g in range(6):
        for h in range(6):
            assert a.conj(g).conj(h) == a.conj(s3.mul(g, h))


def test_group_mismatch(s3, c4):
    with pytest.raises(GroupMismatch):
        mul(QGElement.one(s3), QGElement.one(c4))


sparse = st.dictionaries(
    st.integers(0, 5), st.fractions(max_denominator=3), max_size=4
)


@settings(max_examples=50, deadline=None)
@given(sparse, sparse, sparse)
def test_ring_axioms(ca, cb, cc):
    G = symmetric(3)
    a, b, c = (QGElement(G, d) for d in (ca, cb, cc))
    assert mul(mul(a, b), c) == mul(a, mul(b, c))
    assert mul(a + b, c) == mul(a, c) + mul(b, c)


@settings(max_examples=30, deadline=None)
@given(sparse, st.integers(0, 5))
def test_conj_is_ring_automorphism(ca, g):
    G = symmetric(3)
    a = QGElement(G, ca)
    assert mul(a.conj(g), a.conj(g)) == mul(a, a).conj(g)


# -- powers --------------------------------------------------------------------


def test_powers_are_nonnegative(s3):
    # QG solves for no inverse: a unit's inverse is carried by Unit
    a = elem(s3, 1)
    assert a**0 == QGElement.one(s3)
    assert a**1 == a
    with pytest.raises(ValueError, match="Unit.inverse"):
        a**-1


# -- centralizers and center ---------------------------------------------------


def test_centralizer_of_one(s3):
    assert centralizer_of(QGElement.one(s3), s3.whole()).members == set(range(6))


def test_centralizer_of_central_idempotent(s3):
    A3 = subgroup_closure(s3, [s3.element_orders.index(3)])
    eps = epsilon(A3, Subgroup(s3, {0}))
    assert centralizer_of(eps, s3.whole()).order == 6
    assert is_central(eps)


def test_conjugate_orbit_size(s3):
    refl = next(g for g in range(6) if s3.element_orders[g] == 2)
    orbit = conjugate_orbit(elem(s3, refl), s3.whole())
    assert len(orbit) == 3  # the three reflections


def test_center_of_qg_has_class_count_dimension(s3, s4, paper1000):
    # e = 1 projects Z(QG) onto itself, spanned by the class sums
    for G in (s3, s4, paper1000):
        classes = conjugacy_partition(G).classes
        assert center_component_dim(QGElement.one(G)) == len(classes)


def test_center_component_dims():
    S3 = symmetric(3)
    C4 = cyclic(4)
    assert center_component_dim(hat(S3.whole())) == 1
    A3 = subgroup_closure(S3, [S3.element_orders.index(3)])
    assert center_component_dim(QGElement.one(S3) - hat(A3)) == 1
    eps = epsilon(C4.whole(), Subgroup(C4, {0}))
    assert center_component_dim(eps) == 2  # the component is an imaginary quadratic field


def test_center_dims_and_component_counts():
    # the component centers tile Z(QG): dimensions sum to the ordinary
    # class count, and there is one component per rational class
    for G in (symmetric(3), cyclic(4), cyclic(6)):
        pairs, complete = complete_irredundant_set(G)
        assert complete
        total = sum(center_component_dim(p.pci) for p in pairs)
        assert total == len(conjugacy_partition(G, "ordinary").classes)
        assert len(pairs) == len(conjugacy_partition(G, "rational").classes)


# -- the center degree as a trace against the elimination oracle ---------------


def fraction_rank(rows):
    """Reference rank: Gauss-Jordan elimination over Fractions."""
    m = [[Fraction(v) for v in row] for row in rows]
    rank = 0
    ncols = len(m[0]) if m else 0
    for col in range(ncols):
        piv = next((i for i in range(rank, len(m)) if m[i][col]), None)
        if piv is None:
            continue
        m[rank], m[piv] = m[piv], m[rank]
        for i in range(rank + 1, len(m)):
            f = m[i][col] / m[rank][col]
            m[i] = [a - f * b for a, b in zip(m[i], m[rank])]
        rank += 1
    return rank


@settings(max_examples=300, deadline=None)
@given(
    st.integers(1, 6).flatmap(
        lambda ncols: st.lists(
            st.lists(st.integers(-3, 3), min_size=ncols, max_size=ncols),
            max_size=6,
        )
    )
)
def test_integer_rank_matches_fraction_elimination(rows):
    assert oracles.integer_rank(rows) == fraction_rank(rows)


def test_integer_rank_scales_rows_with_zero_in_the_pivot_column():
    # after the pivot 2 the row [0, 0, 1] must become [0, 0, 2]; left
    # unscaled, the next step divides it by 2 down to 0
    assert oracles.integer_rank([[0, 1, 0], [0, 0, 1], [2, 0, 0]]) == 3


def test_center_degree_c50_full_pair():
    G = get_group("C50")
    pairs, complete = complete_irredundant_set(G)
    assert complete
    p = next(p for p in pairs if p.H.order == 50 and p.K.order == 1)
    assert verify_center_degree(G, p)
    assert center_component_dim(p.pci) == oracles.center_component_dim(p.pci) == 20


def test_center_dim_matches_elimination_oracle_on_small_catalog():
    kept = 0
    for name, G in oracles.small_catalog():
        pairs, complete = complete_irredundant_set(G)
        assert complete, name
        for p in pairs:
            assert center_component_dim(p.pci) == oracles.center_component_dim(p.pci), (
                name,
                p.H.order,
                p.K.order,
            )
        kept += len(pairs)
    assert kept == 425


def test_center_dim_matches_elimination_oracle_on_paper_pairs(paper1000):
    pairs, complete = complete_irredundant_set(
        paper1000, candidates=oracles.paper9_pairs(paper1000)
    )
    assert complete and len(pairs) == 9
    for p in pairs:
        assert center_component_dim(p.pci) == oracles.center_component_dim(p.pci)


def test_center_dim_makes_one_qg_product(s4, monkeypatch):
    """The idempotency check is the only QG product: the trace is a gather."""
    calls = []

    def counted(a, b):
        calls.append(1)
        return mul(a, b)

    monkeypatch.setattr(groupalgebra, "mul", counted)
    for H, K in shoda_pair_candidates(s4):
        e = pci(s4, H, K)
        calls.clear()
        center_component_dim(e)
        assert len(calls) == 1


def test_center_dim_rejects_a_non_integral_trace(s3, monkeypatch):
    # 1/2 is central; with the squaring check bypassed, its trace 3/2 on
    # Z(QS3) is a typed error, never a count
    monkeypatch.setattr(groupalgebra, "is_idempotent", lambda a: True)
    with pytest.raises(NotIdempotent):
        center_component_dim(QGElement.one(s3).scale(Fraction(1, 2)))


# -- centralizer kernel against the per-element filter -------------------------


def filter_centralizer(a, within):
    """Reference centralizer: conjugate `a` by each element and compare."""
    return {g for g in within.members if a.conj(g) == a}


@pytest.mark.parametrize("name", ["S4", "D12", "Q16"])
def test_centralizer_matches_filter_on_shoda_pairs(name):
    G = get_group(name)
    for H, K in shoda_pair_candidates(G):
        for a in (epsilon(H, K), e_sum_conjugates(G.whole(), H, K)):
            for within in (G.whole(), H):
                assert centralizer_of(a, within).members == filter_centralizer(a, within)


CENTRALIZER_GROUPS = {name: get_group(name) for name in ("S4", "D12", "Q16", "C12")}


@settings(max_examples=60, deadline=None)
@given(st.sampled_from(sorted(CENTRALIZER_GROUPS)), st.data())
def test_centralizer_matches_filter_on_sparse_elements(name, data):
    G = CENTRALIZER_GROUPS[name]
    coeffs = data.draw(
        st.dictionaries(
            st.integers(0, G.order - 1),
            st.fractions(min_value=-2, max_value=2, max_denominator=3),
            max_size=6,
        )
    )
    a = QGElement(G, coeffs)
    # a class sum is central: adding it keeps the centralizer but changes
    # the coefficients that the kernel compares
    cl = data.draw(st.sampled_from(conjugacy_partition(G).classes))
    for b in (a, a + QGElement(G, {g: 1 for g in cl})):
        assert centralizer_of(b, G.whole()).members == filter_centralizer(b, G.whole())


# -- the (den, vec) kernels against the Fraction-dict oracles -------------------

CORPUS_GROUPS = {name: get_group(name) for name in ("S3", "D4", "Q8", "C12", "S4")}
BIG = _INT64_BOUND

# small fractions, plus integers at the int64 bound of the representation
coefficients = st.one_of(
    st.fractions(min_value=-3, max_value=3, max_denominator=4),
    st.sampled_from([BIG - 1, -(BIG - 1), BIG, -BIG, 2**63, Fraction(BIG, 3)]),
)


def draw_element(data, G):
    """A sparse (at most 6 terms) or a dense element of QG."""
    if data.draw(st.booleans(), label="dense"):
        values = data.draw(st.lists(coefficients, min_size=G.order, max_size=G.order))
        return QGElement(G, dict(enumerate(values)))
    terms = st.dictionaries(st.integers(0, G.order - 1), coefficients, max_size=6)
    return QGElement(G, data.draw(terms))


def assert_canonical(a):
    """den > 0, gcd(den, vec) = 1, and int64 exactly when every entry fits."""
    ints = a.vec.tolist()
    assert a.den > 0 and gcd(a.den, *ints) == 1
    fits = max(map(abs, ints)) < BIG
    assert a.vec.dtype == (np.int64 if fits else object)
    assert all(type(v) is int for v in ints)


@settings(max_examples=60, deadline=None)
@given(st.sampled_from(sorted(CORPUS_GROUPS)), st.data())
def test_linear_ops_match_oracle(name, data):
    G = CORPUS_GROUPS[name]
    a, b = draw_element(data, G), draw_element(data, G)
    da, db = oracles.as_dict(a), oracles.as_dict(b)
    minus_b = {g: -q for g, q in db.items()}
    q = data.draw(coefficients)
    for got, want in (
        (a + b, oracles.add(da, db)),
        (a - b, oracles.add(da, minus_b)),
        (a.scale(q), {g: q * c for g, c in da.items() if q * c}),
    ):
        assert_canonical(got)
        assert oracles.as_dict(got) == want


@settings(max_examples=60, deadline=None)
@given(st.sampled_from(sorted(CORPUS_GROUPS)), st.data())
def test_mul_and_conj_match_oracle(name, data):
    G = CORPUS_GROUPS[name]
    a, b = draw_element(data, G), draw_element(data, G)
    da, db = oracles.as_dict(a), oracles.as_dict(b)
    ab = mul(a, b)
    assert_canonical(ab)
    assert oracles.as_dict(ab) == oracles.mul(G, da, db)
    g = data.draw(st.integers(0, G.order - 1))
    assert oracles.as_dict(a.conj(g)) == oracles.conj(G, da, g)


@settings(max_examples=60, deadline=None)
@given(st.sampled_from(sorted(CORPUS_GROUPS)), st.data())
def test_equal_values_compare_and_hash_equal(name, data):
    G = CORPUS_GROUPS[name]
    a, b = draw_element(data, G), draw_element(data, G)
    assert (a == b) == (oracles.as_dict(a) == oracles.as_dict(b))
    # the same value reached by different routes
    routes = [
        QGElement(G, oracles.as_dict(a)),
        (a + b) - b,
        a.scale(2**70).scale(Fraction(1, 2**70)),
        mul(a, QGElement.one(G)),
        mul(QGElement.element(G, 0).scale(3), a).scale(Fraction(1, 3)),
    ]
    for r in routes:
        assert_canonical(r)
        assert r == a and hash(r) == hash(a)


@settings(max_examples=60, deadline=None)
@given(st.sampled_from(sorted(CORPUS_GROUPS)), st.data())
def test_centralizer_matches_oracle_conj(name, data):
    G = CORPUS_GROUPS[name]
    a = draw_element(data, G)
    da = oracles.as_dict(a)
    want = {g for g in range(G.order) if oracles.conj(G, da, g) == da}
    assert centralizer_of(a, G.whole()).members == want
    assert is_central(a) == (len(want) == G.order)


def test_int64_bound_edge():
    G = cyclic(3)
    g, g2 = 1, G.mul(1, 1)
    # entries of size BIG - 1 stay int64; one more and they leave it
    a = QGElement(G, {0: BIG - 1, g: -(BIG - 1)})
    assert a.vec.dtype == np.int64
    assert QGElement(G, {0: BIG}).vec.dtype == object
    assert (a + QGElement.one(G)).vec.dtype == object
    # a product that overflows int64 takes the Python-int path exactly
    sq = mul(a, a)
    assert sq.vec.dtype == object
    m = (BIG - 1) ** 2
    assert [sq.coeff(x) for x in (0, g, g2)] == [m, -2 * m, m]
    # dividing back out returns to int64, equal and hashing equal
    back = sq.scale(Fraction(1, m))
    b = QGElement(G, {0: 1, g: -2, g2: 1})
    assert back.vec.dtype == np.int64
    assert back == b and hash(back) == hash(b)
