"""Group-algebra arithmetic: idempotents, products, powers, center."""

from fractions import Fraction
from functools import cache
from math import gcd

import numpy as np
import oracles
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from oracles import e_sum_conjugates

from zgcentral import groupalgebra
from zgcentral.catalog import cyclic, get_group, paper_1000_86, symmetric
from zgcentral.errors import GroupMismatch, NotCentral, NotIdempotent
from zgcentral.groupalgebra import (
    _INT64_BOUND,
    QGElement,
    center_component_dim,
    epsilon,
    hat,
    is_central,
    mul,
)
from zgcentral.groups import (
    Subgroup,
    all_subgroups,
    conjugacy_partition,
    cyclic_coset_log,
    right_transversal,
    subgroup_closure,
)
from zgcentral.rank import rank_oracle, verify_center_degree
from zgcentral.shoda import complete_irredundant_set, shoda_character


def elem(G, g):
    return QGElement.element(G, g)


def eps(H, K):
    """epsilon(H, K) at the coset log of a normal K with H/K cyclic."""
    return epsilon(H, K, cyclic_coset_log(H, K))


# -- hat and epsilon -----------------------------------------------------------


def test_hat_trivial(s3):
    assert hat(Subgroup(s3, {0})) == QGElement.one(s3)


def test_hat_c2():
    from zgcentral.catalog import cyclic

    C2 = cyclic(2)
    h = hat(C2.whole())
    assert [h.coeff(g) for g in range(2)] == [Fraction(1, 2), Fraction(1, 2)]
    assert oracles.is_idempotent(h)


def test_hat_absorption(s3):
    A3 = subgroup_closure(s3, [s3.element_orders.index(3)])
    h = hat(A3)
    for g in A3.members:
        assert mul(elem(s3, g), h) == h


def test_epsilon_h_equals_k(c4):
    H = c4.whole()
    assert eps(H, H) == hat(H)


def test_epsilon_c4():
    C4 = cyclic(4)
    g = next(x for x in range(4) if C4.element_orders[x] == 4)
    g2 = C4.mul(g, g)
    e = eps(C4.whole(), Subgroup(C4, {0}))
    expected = QGElement.one(C4) - hat(Subgroup(C4, {0, g2}))
    assert e == expected
    assert oracles.is_idempotent(e)


def test_epsilon_a3_in_s3(s3):
    A3 = subgroup_closure(s3, [s3.element_orders.index(3)])
    assert eps(A3, Subgroup(s3, {0})) == QGElement.one(s3) - hat(A3)


def test_e_sum_conjugates_s3(s3):
    A3 = subgroup_closure(s3, [s3.element_orders.index(3)])
    e = e_sum_conjugates(s3.whole(), A3, Subgroup(s3, {0}))
    assert e == QGElement.one(s3) - hat(A3)  # epsilon already G-invariant


def test_e_sum_conjugates_abelian(c4):
    K = Subgroup(c4, {0})
    assert e_sum_conjugates(c4.whole(), c4.whole(), K) == eps(c4.whole(), K)


def test_orthogonality_c4():
    C4 = cyclic(4)
    e = eps(C4.whole(), Subgroup(C4, {0}))
    assert mul(e, hat(C4.whole())).is_zero()


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


# -- center --------------------------------------------------------------------


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
    assert center_component_dim(eps(C4.whole(), Subgroup(C4, {0}))) == 2  # the component is an imaginary quadratic field


def test_center_dims_and_component_counts():
    # the component centers tile Z(QG): dimensions sum to the ordinary
    # class count, and there is one component per rational class, as the
    # power oracle merges them
    for G in (symmetric(3), cyclic(4), cyclic(6)):
        pairs, complete = complete_irredundant_set(G)
        assert complete
        total = sum(center_component_dim(p.pci) for p in pairs)
        assert total == len(conjugacy_partition(G).classes)
        real, rational = oracles.merged_class_counts(G)
        assert len(pairs) == rational
        assert rank_oracle(G) == real - rational


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


def test_center_dim_matches_elimination_oracle_on_paper_pairs():
    """On a fresh paper-1000-86, the nine pairs' center degrees equal the
    elimination oracle's with the conjugacy partition cold and then
    memoized; its trace index and `least` are read-only, and 2e, central
    but not idempotent, is still refused once the memo is filled."""
    G = paper_1000_86()
    pairs, complete = complete_irredundant_set(G, candidates=oracles.paper9_pairs(G))
    assert complete and len(pairs) == 9
    want = [oracles.center_component_dim(p.pci) for p in pairs]
    for p, dim in zip(pairs, want):
        G._conjugacy.pop("partition", None)
        assert center_component_dim(p.pci) == dim
    assert [center_component_dim(p.pci) for p in pairs] == want
    part = conjugacy_partition(G)
    assert G._conjugacy["partition"] is part
    index, least = part.trace_index, part.least
    assert index.tolist() == [G.mul(int(G.inv[g]), r) for g, r in enumerate(least.tolist())]
    for arr in (index, least):
        with pytest.raises(ValueError, match="read-only"):
            arr[0] = 1
    for p in pairs:
        assert is_central(p.pci.scale(2))
        with pytest.raises(NotIdempotent, match="not idempotent"):
            center_component_dim(p.pci.scale(2))


def test_center_dim_makes_no_qg_product(s4, monkeypatch):
    """e^2 = e is checked by one convolution at the class representatives,
    never by a full QG product; the trace is a gather."""
    products, widths = [], []
    convolve = groupalgebra._convolve

    def counted_mul(a, b):
        products.append(1)
        return mul(a, b)

    def counted_convolve(G, A, B, cols=None):
        out = convolve(G, A, B, cols)
        widths.append(out.size)
        return out

    monkeypatch.setattr(groupalgebra, "mul", counted_mul)
    monkeypatch.setattr(groupalgebra, "_convolve", counted_convolve)
    classes = len(conjugacy_partition(s4).classes)
    for H, K in oracles.shoda_pair_candidates(s4):
        e = oracles.galois_pci(shoda_character(H, K))
        products.clear()
        widths.clear()
        center_component_dim(e)
        assert products == [] and widths == [classes]


def test_center_dim_rejects_a_non_integral_trace(s3, monkeypatch):
    # 1/2 is central; with the squaring check bypassed (the convolution
    # reports e^2 = e at every class representative: e's numerators times
    # its denominator 2), its trace 3/2 on Z(QS3) is a typed error, never
    # a count
    def squares_to_itself(G, A, B, cols=None):
        return (A if cols is None else A[cols]) * 2

    monkeypatch.setattr(groupalgebra, "_convolve", squares_to_itself)
    with pytest.raises(NotIdempotent, match="non-integral trace"):
        center_component_dim(QGElement.one(s3).scale(Fraction(1, 2)))


def test_center_dim_raises_typed_errors(s3):
    refl = s3.element_orders.index(2)
    with pytest.raises(NotCentral):
        center_component_dim(hat(subgroup_closure(s3, [refl])))
    for p in complete_irredundant_set(s3)[0]:
        with pytest.raises(NotIdempotent, match="not idempotent"):
            center_component_dim(p.pci.scale(2))


# -- the class-representative squaring check against the full product ----------

SQUARE_GROUPS = ("S3", "D4", "Q8", "C12", "S4", "paper-1000-86")


@cache
def _classes_and_pcis(name):
    G = get_group(name)
    candidates = oracles.paper9_pairs(G) if G.order > 100 else None
    pairs, complete = complete_irredundant_set(G, candidates=candidates)
    assert complete
    return G, conjugacy_partition(G), [p.pci for p in pairs]


def draw_central(data, name):
    """A class function, or a combination of the group's pcis: a subset
    sum (an idempotent), with a multiple (2e, e/2, ...) or a class
    function added; coefficients reach and pass the int64 bound."""
    G, part, pcis = _classes_and_pcis(name)
    n = part.reps.size
    kind = data.draw(st.sampled_from(["class function", "pci sum"]), label="kind")
    if kind == "class function":
        values = data.draw(st.lists(coefficients, min_size=n, max_size=n))
        return QGElement(G, {g: values[c] for g, c in enumerate(part.class_of.tolist())})
    chosen = data.draw(st.lists(st.sampled_from(range(len(pcis))), unique=True))
    e = sum((pcis[i] for i in chosen), QGElement.zero(G))
    scales = [1, 1, 2, Fraction(1, 2), -1, BIG, Fraction(1, BIG)]
    e = e.scale(data.draw(st.sampled_from(scales), label="scale"))
    if data.draw(st.booleans(), label="perturb"):
        c = data.draw(coefficients)
        cl = part.classes[data.draw(st.integers(0, n - 1))]
        e = e + QGElement(G, dict.fromkeys(cl, c))
    return e


@settings(max_examples=80, deadline=None)
@given(st.sampled_from(SQUARE_GROUPS), st.data())
def test_class_rep_square_check_matches_full_product(name, data):
    """On central elements, center_component_dim raises NotIdempotent
    exactly when the full product e * e differs from e."""
    e = draw_central(data, name)
    want = oracles.is_idempotent(e)
    try:
        center_component_dim(e)
        got = True
    except NotIdempotent as err:
        assert "non-integral" not in str(err)
        got = False
    assert got == want


def test_class_rep_square_check_takes_the_object_path():
    # den * max|vec| past the int64 bound, by a large numerator or a large
    # denominator: the comparison runs in Python ints and never wraps
    _, _, pcis = _classes_and_pcis("S4")
    for e in pcis:
        for scale in (BIG + 1, Fraction(1, BIG + 1)):
            x = e.scale(scale)
            assert groupalgebra._maxabs(x.vec) * x.den >= BIG
            assert not oracles.is_idempotent(x)
            with pytest.raises(NotIdempotent, match="not idempotent"):
                center_component_dim(x)


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
def test_every_route_keeps_int64_exactly_below_the_bound(name, data):
    """`QGElement.__hash__` hashes int64 numerators by their bytes and
    object ones as a tuple, which is sound because equal elements share a
    dtype: every route leaves vec int64 exactly when max|vec| is below
    _INT64_BOUND (`__init__`, `from_vec` on int64, list and object input,
    `_element`, `conj`, negation, `mul`), and the same value reached by
    different routes hashes equal."""
    G = CORPUS_GROUPS[name]
    a, b = draw_element(data, G), draw_element(data, G)
    g = data.draw(st.integers(0, G.order - 1))
    ints = a.vec.tolist()
    same = [
        QGElement.from_vec(G, ints, den=a.den),
        QGElement.from_vec(G, np.array(ints, dtype=object), den=a.den),
        groupalgebra._element(G, a.den, a.vec.astype(object)),
        groupalgebra._element(G, 3 * a.den, a.vec.astype(object) * 3),
        a.conj(g).conj(G.inv[g]),
        -(-a),
        mul(a, QGElement.one(G)),
    ]
    if a.vec.dtype == np.int64:
        same += [QGElement.from_vec(G, a.vec, den=a.den), groupalgebra._element(G, a.den, a.vec)]
    for x in [a, b, a.conj(g), -a, mul(a, b), *same]:
        assert_canonical(x)
    for x in same:
        assert x == a and hash(x) == hash(a)
    # an object array of small values comes back int64
    small = QGElement.from_vec(G, np.arange(G.order).astype(object), den=2)
    assert small.vec.dtype == np.int64
    assert small == QGElement.from_vec(G, np.arange(G.order), den=2)
    assert hash(small) == hash(QGElement.from_vec(G, np.arange(G.order), den=2))


@settings(max_examples=60, deadline=None)
@given(st.sampled_from(sorted(CORPUS_GROUPS)), st.data())
def test_is_central_matches_oracle_conj(name, data):
    """is_central(a), one class-constant test, against conjugation by every
    member; half the draws are summed over their G-conjugates, so both
    outcomes are drawn."""
    G = CORPUS_GROUPS[name]
    a = draw_element(data, G)
    if data.draw(st.booleans(), label="G-invariant"):
        a = sum((a.conj(g) for g in range(G.order)), QGElement.zero(G))
    da = oracles.as_dict(a)
    assert is_central(a) == all(oracles.conj(G, da, g) == da for g in range(G.order))


@settings(max_examples=60, deadline=None)
@given(st.sampled_from(sorted(CORPUS_GROUPS)), st.data())
def test_is_central_in_a_subgroup_matches_oracle_conj(name, data):
    """is_central(a, S) reads S's generators only; the trivial subgroup,
    with none, fixes everything.  Half the draws are summed over their
    S-conjugates, so both outcomes are drawn."""
    G = CORPUS_GROUPS[name]
    S = data.draw(st.sampled_from(all_subgroups(G)), label="S")
    a = draw_element(data, G)
    if data.draw(st.booleans(), label="S-invariant"):
        a = sum((a.conj(s) for s in S.members), QGElement.zero(G))
    da = oracles.as_dict(a)
    assert is_central(a, S) == all(oracles.conj(G, da, s) == da for s in S.members)


def check_convolve(G, A, B, factors, cols):
    """_convolve(G, A, B, cols) gives `oracles.convolve` of each pair of
    factors, in int64 exactly when the bound allows; returns the gather
    order the lengths pick, True for rows g^-1 over supp(a)."""
    got = groupalgebra._convolve(G, A, B, cols)
    want = [oracles.convolve(x, y, cols).tolist() for x, y in factors]
    assert got.tolist() == (want if A.ndim == 2 else want[0])
    support = np.flatnonzero(np.atleast_2d(A).any(axis=0))
    terms = min(support.size, int(np.count_nonzero(B)))
    bound = groupalgebra._maxabs(A) * groupalgebra._maxabs(B) * terms
    assert got.dtype == (np.int64 if bound < BIG else object)
    return support.size <= (G.order if cols is None else len(cols))


@settings(max_examples=100, deadline=None)
@given(st.sampled_from([name for name, _ in oracles.small_catalog(60)]), st.data())
def test_convolve_matches_the_broadcast_kernel(name, data):
    """The two-take kernel gives the broadcast-and-sum kernel's numerators
    (`oracles.convolve`) row by row: one row times one row, a 2 x |G|
    block times a block, and a block times one row, at all of G, at the
    class representatives, at a subgroup's members, and at columns drawn
    in random order longer than supp(a) and, when supp(a) has two or more
    elements, shorter, so that both gather orders run (a draw of all |G|
    columns takes them in order); with the table read in the
    default blocks and two or three rows at a time, so that each order
    runs in several blocks; on int64 and Python-int rows, in int64
    exactly when the bound allows; and a square, one array as both
    factors, which scans it once."""
    G = dict(oracles.small_catalog(60))[name]
    a, b, c, d = (draw_element(data, G) for _ in range(4))
    S = data.draw(st.sampled_from(all_subgroups(G)), label="S")
    rows = data.draw(st.integers(2, 3), label="table rows per block")
    block = np.stack((a.vec, c.vec))
    cases = (
        (a.vec, b.vec, [(a, b)]),
        (block, np.stack((b.vec, d.vec)), [(a, b), (c, d)]),
        (block, b.vec, [(a, b), (c, b)]),
        (a.vec, a.vec, [(a, a)]),
        (block, block, [(a, a), (c, c)]),
    )
    members = S.sorted_members
    for A, B, factors in cases:
        size = np.count_nonzero(np.atleast_2d(A).any(axis=0))
        order = data.draw(st.permutations(range(G.order)), label="column order")
        lengths = [data.draw(st.integers(max(size, 1), G.order), label="long")]
        if size >= 2:
            lengths.append(data.draw(st.integers(1, size - 1), label="short"))
        # columns of length |G| are all of G in order, as _convolve needs
        drawn = [np.array(order[:k] if k < G.order else range(k), dtype=np.intp) for k in lengths]
        for step in (groupalgebra._GATHER_BLOCK, rows * G.order):
            with pytest.MonkeyPatch.context() as mp:
                mp.setattr(groupalgebra, "_GATHER_BLOCK", step)
                picked = {
                    check_convolve(G, A, B, factors, cols)
                    for cols in (None, conjugacy_partition(G).reps, members, *drawn)
                }
            # rows g^-1 over supp(a) whenever it is no longer than the columns
            assert picked == ({True, False} if size >= 2 else {True})


def test_convolve_on_paper_1000_86_at_class_representatives(paper1000, monkeypatch):
    """At paper-1000-86's 13 class representatives, with the table read
    three rows at a time: the pair idempotents, whose supports are longer,
    take rows at the representatives; sparse elements take rows g^-1 over
    their support; one row and 2 x |G| stacks of both."""
    monkeypatch.setattr(groupalgebra, "_GATHER_BLOCK", 3 * paper1000.order)
    reps = conjugacy_partition(paper1000).reps
    assert reps.size == 13
    candidates = oracles.paper9_pairs(paper1000)
    pairs, _ = complete_irredundant_set(paper1000, candidates=candidates)
    e, f = pairs[-1].pci, pairs[3].pci
    sparse = [
        QGElement(paper1000, {g: k - 3 for k, g in enumerate(range(7, 1000, 111))}),
        QGElement(paper1000, {1: 2, 500: -1, 999: BIG - 1}),
    ]
    picked = set()
    for x, y in ((e, f), (f, e), (e, sparse[1]), *[(s, e) for s in sparse]):
        picked.add(check_convolve(paper1000, x.vec, y.vec, [(x, y)], reps))
    for (x, y), (z, w) in (((e, f), (f, e)), ((sparse[0], e), (sparse[1], f))):
        A = np.stack((x.vec, z.vec))
        picked.add(check_convolve(paper1000, A, np.stack((y.vec, w.vec)), [(x, y), (z, w)], reps))
        picked.add(check_convolve(paper1000, A, f.vec, [(x, f), (z, f)], reps))
    assert picked == {True, False}


def check_conjugate_gram(a, ts):
    """conjugate_gram(a, ts) gives the full-row oracle's Gram vector and
    conjugate sum (`oracles.conjugate_gram`), in int64 exactly when its
    bound max|a| max(max|a| |supp a|, |ts|) allows."""
    gram, conjugate_sum = groupalgebra.conjugate_gram(a, ts)
    total = conjugate_sum()
    want_gram, want_total = oracles.conjugate_gram(a, ts)
    assert gram.tolist() == want_gram.tolist()
    assert total.tolist() == want_total.tolist()
    top = groupalgebra._maxabs(a.vec)
    bound = top * max(top * int(np.count_nonzero(a.vec)), len(ts))
    assert gram.dtype == total.dtype == (np.int64 if bound < BIG else object)


@settings(max_examples=100, deadline=None)
@given(st.sampled_from([name for name, _ in oracles.small_catalog(60)]), st.data())
def test_conjugate_gram_matches_the_full_row_oracle(name, data):
    """The kernel that reads a^t at supp(a)^t alone gives the full-row
    oracle's Gram vector and conjugate sum on every catalog group of order
    at most 60: for a drawn element (sparse or dense, numerators up to and
    past the int64 bound), a = 0, a one-term a, and a drawn element of QS
    for a drawn subgroup S, as it is and scaled past the bound; over a
    drawn list of t that holds t = 1 twice, over no t, and over the right
    transversal of S in G that a chain level reads."""
    G = dict(oracles.small_catalog(60))[name]
    S = data.draw(st.sampled_from(all_subgroups(G)), label="S")
    drawn = draw_element(data, G)
    in_s = QGElement(G, {h: drawn.coeff(h) for h in S.members})
    one_term = QGElement(G, {data.draw(st.integers(0, G.order - 1)): data.draw(coefficients)})
    ts = data.draw(st.lists(st.integers(0, G.order - 1), max_size=2 * G.order), label="ts")
    for a in (drawn, QGElement.zero(G), one_term, in_s, in_s.scale(BIG)):
        for t in ([0, *ts, 0], [], right_transversal(S)):
            check_conjugate_gram(a, t)


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


def test_from_vec_matches_the_fraction_constructor():
    # int64 arrays, their entries up to the int64 limits, and a Python list
    G = cyclic(4)
    cases = [
        ([0, 3, -6, 9], 6),
        ([BIG - 1, -(BIG - 1), 0, 2], 1),
        ([BIG, 0, 0, 2], 3),
        ([2**63 - 1, -(2**63), 0, 1], 1),
    ]
    for values, den in cases:
        want = QGElement(G, {g: Fraction(v, den) for g, v in enumerate(values)})
        for vec in (np.array(values, dtype=np.int64), values):
            got = QGElement.from_vec(G, vec, den=den)
            assert_canonical(got)
            assert got == want
    assert QGElement.from_vec(G, np.arange(4, dtype=np.int32)).vec.dtype == np.int64
