"""Bass units, generalized Bass units, z-/c-constructions, rank witness."""

import functools
import json
import random
import sys
import time
from fractions import Fraction
from importlib import resources

import numpy as np
import oracles
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from zgcentral import groupalgebra, groups, units
from zgcentral.catalog import catalog, cyclic, dihedral, get_group, quaternion8
from zgcentral.cli import parse_pairs_file
from zgcentral.errors import (
    BadCongruence,
    InternalBoundExceeded,
    NotNormal,
    NotSubnormal,
    PreconditionFailed,
    ZgError,
)
from zgcentral.groupalgebra import QGElement, hat, is_central, mul
from zgcentral.groups import (
    Subgroup,
    all_subgroups,
    cyclic_subgroups,
    is_normal,
    right_transversal,
    subgroup_closure,
    subnormal_series,
)
from zgcentral.rank import rank_oracle
from zgcentral.shoda import complete_irredundant_set
from zgcentral.units import (
    BassSpec,
    Unit,
    bass_central_units,
    bass_specs_for,
    bass_unit,
    c_central_unit,
    central_character_value,
    gen_bass_unit,
    log_rank_witness,
    random_right_transversal,
    z_central_unit,
)
from zgcentral.units import (
    _bass_coeffs,
    _conjugate_product,
    _cyclic_convolve,
    _cyclic_power,
    _verified_unit,
)


def assert_central_unit(cu):
    """The carried inverse holds: value and inverse integral, value central
    in ZG, value * inverse = 1."""
    assert cu.value.is_integral() and cu.inverse.is_integral()
    assert is_central(cu.value)
    assert mul(cu.value, cu.inverse) == QGElement.one(cu.value.group)


def assert_inverse_matches_oracle(cu):
    """The carried inverse is the one the Fraction oracle solves for."""
    G = cu.value.group
    assert oracles.as_dict(cu.inverse) == oracles.inverse(G, oracles.as_dict(cu.value))


def cyclic_poly_oracle(n, k, m):
    """Independent expansion of the Bass element in Z[x]/(x^n - 1)."""
    geo = [0] * n
    for i in range(k):
        geo[i % n] += 1
    acc = [0] * n
    acc[0] = 1
    for _ in range(m):
        nxt = [0] * n
        for i, a in enumerate(acc):
            if a:
                for j, b in enumerate(geo):
                    if b:
                        nxt[(i + j) % n] += a * b
        acc = nxt
    corr = (1 - k**m) // n
    return [a + corr for a in acc]


# -- the product kernel of Z[x]/(x^d - 1) ---------------------------------------


def kernel_rows(d, bound):
    """Rows of length d: any entries in [-bound, bound], all zero, or one
    nonzero entry."""
    single = st.tuples(st.integers(0, d - 1), st.integers(-bound, bound))
    return st.one_of(
        st.lists(st.integers(-bound, bound), min_size=d, max_size=d),
        st.just([0] * d),
        single.map(lambda iv: [iv[1] if i == iv[0] else 0 for i in range(d)]),
    )


@settings(max_examples=150, deadline=None)
@given(st.data())
def test_cyclic_convolve_matches_schoolbook(data):
    """One kernel for both dtypes: int64 rows stay int64 (`np.convolve`),
    signed rows of Python ints up to 600-bit coefficients stay exact (one
    packed big-integer product), and both equal the schoolbook product,
    for d from 1 to 64, rows that are all zero or have one nonzero entry
    included; powers equal repeated schoolbook products.
    `binary_power`'s other products agree with their naive walks too:
    int64 rows mod a q < 2^31, the p-adic log's product, and QG
    elements."""
    d = data.draw(st.integers(1, 64), label="d")
    exact = data.draw(st.booleans(), label="object rows")
    dtype, bound = (object, 2**600) if exact else (np.int64, 2**20)
    a, b = data.draw(kernel_rows(d, bound), label="a"), data.draw(kernel_rows(d, bound), label="b")
    got = _cyclic_convolve(np.array(a, dtype=dtype), np.array(b, dtype=dtype), d)
    assert got.dtype == dtype
    assert got.tolist() == oracles.cyclic_convolve(a, b, d)
    n = data.draw(st.integers(1, 5), label="n")
    want = a
    for _ in range(n - 1):
        want = oracles.cyclic_convolve(want, a, d)
    assert _cyclic_power(np.array(a, dtype=object), n, d).tolist() == want
    q = data.draw(st.integers(2, 2**31 - 1), label="q")
    x = np.array([v % q for v in a], dtype=np.int64)
    got = groups.binary_power(x, n, lambda u, v: u * v % q)
    assert got.tolist() == [pow(v, n, q) for v in x.tolist()]
    G = get_group(data.draw(st.sampled_from(["C6", "S3", "Q8"]), label="G"))
    vec = st.lists(st.integers(-9, 9), min_size=G.order, max_size=G.order)
    el = QGElement.from_vec(G, data.draw(vec, label="element"))
    want = QGElement.one(G)
    for _ in range(n):
        want = mul(want, el)
    assert groups.binary_power(el, n, mul) == el**n == want


# -- Bass units ----------------------------------------------------------------


@settings(max_examples=60, deadline=None)
@given(st.data())
def test_bass_coeffs_agree_on_int64_and_object_rows(data):
    """While k^m < 2^62 the Bass row is powered in int64; the same row
    powered in Python ints, by the packed product, has the same values,
    and both equal the schoolbook expansion."""
    d = data.draw(st.integers(1, 64), label="d")
    k = data.draw(st.integers(1, max(1, d - 1)), label="k")
    m = data.draw(st.integers(1, max(1, 61 // max(1, k.bit_length()))), label="m")
    fast = _bass_coeffs.__wrapped__(d, k, m)
    assert fast.dtype == np.int64
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(units, "_dtype", lambda bound: object)
        exact = _bass_coeffs.__wrapped__(d, k, m)
    assert exact.dtype == object
    assert fast.tolist() == exact.tolist() == cyclic_poly_oracle(d, k, m)



def test_bass_k1_is_identity(c5):
    u = bass_unit(c5, BassSpec(g=1, k=1, m=3))
    assert u.value == u.inverse == QGElement.one(c5)


def test_bass_on_identity_element(c5):
    assert bass_unit(c5, BassSpec(g=0, k=1, m=1)).value == QGElement.one(c5)


def test_bass_c5_coefficients(c5):
    g = 1
    u = bass_unit(c5, BassSpec(g=g, k=2, m=4)).value
    oracle = cyclic_poly_oracle(5, 2, 4)
    assert oracle == [-2, 1, 3, 1, -2]
    got = [u.coeff(c5.power(g, i)) for i in range(5)]
    assert got == oracle


def test_bass_bad_congruence(c5):
    with pytest.raises(BadCongruence):
        bass_unit(c5, BassSpec(g=1, k=2, m=3))
    with pytest.raises(BadCongruence):
        bass_unit(c5, BassSpec(g=1, k=7, m=4))


def test_bass_sweep_small_groups():
    for name in ("C5", "C7", "C12", "S3", "D4"):
        G = get_group(name)
        for g in range(G.order):
            for spec in bass_specs_for(G, g):
                u = bass_unit(G, spec)
                assert u.value.augmentation() == 1
                assert u.inverse.is_integral()
                assert mul(u.value, u.inverse) == QGElement.one(G)
                assert u.inputs == {"spec": spec}


def test_bass_matches_cyclic_oracle():
    for n, k in ((7, 3), (8, 3), (12, 5)):
        G = cyclic(n)
        spec = next(s for s in bass_specs_for(G, 1) if s.k == k)
        u = bass_unit(G, spec).value
        oracle = cyclic_poly_oracle(n, spec.k, spec.m)
        assert [u.coeff(G.power(1, i)) for i in range(n)] == oracle


def s3_central_in_a3(s3):
    """(a, b, reps, A3): a = 2 + r and b = 1 - r for r of order 3, central
    in Z[A3], reps every member of S3, over which each of the two distinct
    conjugates of a recurs 3 times, and A3, which holds every conjugate."""
    rot = next(g for g in range(6) if s3.element_orders[g] == 3)
    a = QGElement(s3, {0: 2, rot: 1})
    b = QGElement(s3, {0: 1, rot: -1})
    return a, b, list(range(6)), subgroup_closure(s3, [rot])


def conjugate_product(a, b, reps, ring, power=1):
    """`_conjugate_product` on the block of a over b, read back as the two
    elements."""
    block = _conjugate_product(np.stack((a.vec, b.vec)), reps, ring, power)
    return tuple(QGElement.from_vec(a.group, row) for row in block)


def test_ordered_product_empty_and_single(s3):
    """Over the identity alone the conjugate product is the element itself,
    or its power; over all of S3 it is the ordered product."""
    a, b, reps, A3 = s3_central_in_a3(s3)
    assert conjugate_product(a, b, [0], A3) == (a, b)
    assert conjugate_product(a, b, [0], A3, 3) == (a**3, b**3)
    assert conjugate_product(a, b, reps, A3) == oracles.ordered_conjugate_product(a, b, reps)


def count_calls(monkeypatch, module, name):
    """A list that grows by one per call of module.name."""
    calls = []
    kernel = getattr(module, name)

    def counted(*args):
        calls.append(1)
        return kernel(*args)

    monkeypatch.setattr(module, name, counted)
    return calls


def count_products(monkeypatch):
    """A list that grows by one per QG product taken through `mul`."""
    calls = []

    def counted(a, b):
        calls.append(1)
        return mul(a, b)

    monkeypatch.setattr(groupalgebra, "mul", counted)
    return calls


def power_products(k):
    """The products u**k takes: one squaring per bit of k above the lowest
    and one product per further set bit."""
    return max(0, k.bit_length() - 1) + max(0, k.bit_count() - 1)


def test_products_and_powers_spend_no_product_on_one(s3, monkeypatch):
    """k distinct conjugates, each recurring m times, take k - 1 products
    and the power m, each one `_convolve` call for value and inverse at
    once, and no QG product; u**k spends no product on one."""
    a, b, reps, A3 = s3_central_in_a3(s3)
    want = oracles.ordered_conjugate_product(a, b, reps)
    products = count_calls(monkeypatch, units, "_convolve")
    calls = count_products(monkeypatch)
    for power in range(1, 6):
        powered = tuple(v**power for v in want)
        products.clear()
        calls.clear()
        assert conjugate_product(a, b, reps, A3, power) == powered
        assert (len(products), len(calls)) == (2 - 1 + power_products(3 * power), 0)
    v = QGElement(s3, {1: Fraction(2), 3: Fraction(-1)})
    power = QGElement.one(s3)
    for k in range(12):
        calls.clear()
        assert v**k == power
        assert len(calls) == power_products(k)
        power = mul(power, v)


def test_c_unit_multiplies_each_distinct_conjugate_once(monkeypatch):
    """On C36 with <g> of order 2, the 18 conjugates over the transversal
    are one element: the c-unit takes u**18 for value and inverse at once,
    power_products(18) = 5 `_convolve` calls, and one call each for the
    input and output checks, 7 in all and no QG product, where the
    ordered product took 17 products per side."""
    G = cyclic(36)
    g = next(x for x in range(G.order) if G.element_orders[x] == 2)
    series = subnormal_series(subgroup_closure(G, [g]))
    assert [S.order for S in series.steps] == [2, 36]
    u = bass_unit(G, bass_specs_for(G, g)[0])
    products = count_calls(monkeypatch, units, "_convolve")
    calls = count_products(monkeypatch)
    cu = c_central_unit(u, series)
    assert (len(products), len(calls)) == (power_products(18) + 2, 0) == (7, 0)
    assert (cu.value, cu.inverse) == oracles.c_central_unit(u, series)


def d5_rotation_unit(d5):
    """(u, <r>): the Bass unit u_(2,4)(r) for r of order 5, central in
    Z<r> only."""
    rot = next(g for g in range(10) if d5.element_orders[g] == 5)
    return bass_unit(d5, BassSpec(g=rot, k=2, m=4)), subgroup_closure(d5, [rot])


def test_verified_unit_checks_support_and_inverse_in_zs(d5, c5):
    """The unit check reads only S's members for the product, so it must
    refuse a value or inverse supported outside S, and an inverse wrong at
    any one member of S: for S = <r> proper in D5, and for S = C5 = G,
    where nothing lies outside."""
    u, R = d5_rotation_unit(d5)
    assert _verified_unit(u, R, PreconditionFailed) is u
    refl = next(g for g in range(10) if g not in R.members)
    out = QGElement.element(d5, refl)
    for bad, label in (
        (Unit(u.value + out, u.inverse, "off S"), "u is not supported"),
        (Unit(u.value, u.inverse + out, "off S"), "u inverse is not supported"),
    ):
        with pytest.raises(PreconditionFailed, match=label):
            _verified_unit(bad, R, PreconditionFailed)
    whole = bass_unit(c5, BassSpec(g=1, k=2, m=4))
    for v, S in ((u, R), (whole, c5.whole())):
        assert _verified_unit(v, S, ZgError) is v
        for h in sorted(S.members):
            bad = Unit(v.value, v.inverse + QGElement.element(S.parent, h), "wrong at h")
            with pytest.raises(ZgError, match="inverse is not 1"):
                _verified_unit(bad, S, ZgError)


def test_c_output_wrong_inside_the_last_ring_is_an_error(d5, monkeypatch):
    """The c-unit's output lies in Z S_(top-1) and is multiplied by its
    inverse only there: a product whose inverse is off by one at any
    member of S_(top-1) = <r> is an error."""
    u, R = d5_rotation_unit(d5)
    series = subnormal_series(R)
    assert series.steps[-2].members == R.members
    real = units._conjugate_product
    for h in sorted(R.members):

        def wrong(block, reps, ring, power=1, h=h):
            out = real(block, reps, ring, power).astype(object)
            out[1, h] += 1
            return out

        monkeypatch.setattr(units, "_conjugate_product", wrong)
        with pytest.raises(ZgError, match="inverse is not 1") as info:
            c_central_unit(u, series)
        assert not isinstance(info.value, PreconditionFailed)


def test_c_supplied_transversals_are_checked(d4):
    """A supplied list must hold [S_(i+1):S_i] members of S_(i+1) in
    distinct right cosets of S_i: a repeated coset is refused, a random
    transversal is accepted and gives the default's unit."""
    rot = next(g for g in range(8) if d4.element_orders[g] == 4)
    H = subgroup_closure(d4, [rot])
    series = subnormal_series(H)
    assert [S.order for S in series.steps] == [4, 8]
    u = bass_unit(d4, BassSpec(g=rot, k=3, m=2))
    refl = next(g for g in range(8) if g not in H.members)
    for bad in ([[0, 0]], [[0]], [[0, refl, refl]], [[0, rot]], [[0, refl], [0]], []):
        with pytest.raises(PreconditionFailed):
            c_central_unit(u, series, transversals=bad)
    want = c_central_unit(u, series)
    rng = random.Random(7)
    for _ in range(5):
        tv = [random_right_transversal(H, d4.whole(), rng)]
        got = c_central_unit(u, series, transversals=tv)
        assert (got.value, got.inverse) == (want.value, want.inverse)


# -- generalized Bass units ----------------------------------------------------


def test_gen_bass_trivial_m(c5):
    M = Subgroup(c5, {0})
    gb = gen_bass_unit(c5, 1, M, 2, 4)
    assert gb.inputs["n_b"] == 1
    assert gb.value == bass_unit(c5, BassSpec(g=1, k=2, m=4)).value


def test_gen_bass_m_whole_group(c5):
    gb = gen_bass_unit(c5, 1, c5.whole(), 2, 4)
    assert gb.value.is_integral() and gb.inverse.is_integral()
    assert mul(gb.value, gb.inverse) == QGElement.one(c5)


def test_gen_bass_on_d5(d5):
    rot = next(g for g in range(10) if d5.element_orders[g] == 5)
    M = subgroup_closure(d5, [rot])
    gb = gen_bass_unit(d5, rot, M, 2, 4)
    assert gb.value.is_integral() and gb.inverse.is_integral()
    assert mul(gb.value, gb.inverse) == QGElement.one(d5)
    assert_inverse_matches_oracle(gb)


def test_gen_bass_cap_is_a_typed_error(monkeypatch):
    # C22's n_b of 341 for (g, k, m) = (1, 3, 5): one power short of it
    G = get_group("C22")
    M = next(M for M in all_subgroups(G) if M.order == 2)
    monkeypatch.setattr(units, "GEN_BASS_CAP", 340)
    with pytest.raises(InternalBoundExceeded, match="340"):
        gen_bass_unit(G, 1, M, 3, 5)
    monkeypatch.setattr(units, "GEN_BASS_CAP", 341)
    assert gen_bass_unit(G, 1, M, 3, 5).inputs["n_b"] == 341


def test_gen_bass_requires_normal_m(s3):
    refl = next(g for g in range(6) if s3.element_orders[g] == 2)
    with pytest.raises(NotNormal):
        gen_bass_unit(s3, refl, subgroup_closure(s3, [refl]), 1, 1)


def test_gen_bass_matches_powers_on_catalog():
    # every catalog group of order <= 40, the powers walked up to n = 40;
    # C38's n_b of 9709 puts the QG-power oracle out of reach, and
    # test_gen_bass_c38_within_a_minute checks its unit on its own
    cases, beyond = 0, 0
    for entry in catalog():
        G = entry.constructor()
        if G.order > 40 or entry.name == "C38":
            continue
        normal = [M for M in all_subgroups(G)[1:] if is_normal(M, G.whole())]
        for g in range(G.order):
            if G.element_orders[g] <= 2:
                continue
            for spec in bass_specs_for(G, g)[:2]:
                for M in normal:
                    gb = gen_bass_unit(G, g, M, spec.k, spec.m)
                    assert gb.value.is_integral() and gb.inverse.is_integral()
                    want = oracles.gen_bass_unit(G, g, M, spec.k, spec.m, cap=40)
                    cases += 1
                    if want is None:
                        assert gb.inputs["n_b"] > 40
                        beyond += 1
                        continue
                    n_b, value, inverse = want
                    assert gb.inputs == {"spec": spec, "M": M, "n_b": n_b}
                    assert (gb.value, gb.inverse) == (value, inverse)
    assert (cases, beyond) == (7492, 154)


def test_gen_bass_c38_within_a_minute():
    """C38's unit for (k, m) = (3, 18) and |M| = 2: n_b = 9709 and
    coefficients of 267 712 bits, built in Z[x]/(x^19 - 1) within 60 s,
    and integral.  Its exact power takes 21 packed big-integer products
    per side (`_packed_product`, one Karatsuba product of two packed
    rows each), about 9 s on a 2-vCPU Xeon where one `np.convolve` per
    product, 19^2 big-integer products each, took 14 s.
    value * inverse = 1 is checked on the two factors of
    QG = QG(1 - hat(M)) x Q[G/M]: both are 1 - hat(M) on the first, one
    product by hat(M) each, and their images in Z[G/M] = Z[x]/(x^19 - 1)
    multiply to 1 by one exact schoolbook product, 19^2 big-integer
    products where the product in QG makes 38^2."""
    G = get_group("C38")
    M = next(M for M in all_subgroups(G) if M.order == 2)
    start = time.perf_counter()
    gb = gen_bass_unit(G, 1, M, 3, 18)
    elapsed = time.perf_counter() - start
    assert gb.inputs["n_b"] == 9709
    assert elapsed < 60, f"{elapsed:.1f} s"
    assert gb.value.is_integral() and gb.inverse.is_integral()
    hm = hat(M)
    images = []
    for v in (gb.value, gb.inverse):
        assert v - mul(hm, v) == QGElement.one(G) - hm
        row = [0] * 19
        for i in range(G.order):
            row[i % 19] += int(v.vec[G.power(1, i)])
        images.append(row)
    assert oracles.cyclic_convolve(*images, 19) == [1] + [0] * 18


def test_gen_bass_paper_1000(paper1000):
    G = paper1000
    M = Subgroup(G, [x for x in range(G.order) if 125 % G.element_orders[x] == 0])
    g = next(x for x in range(G.order) if G.element_orders[x] == 8)
    assert M.order == 125
    gb = gen_bass_unit(G, g, M, 3, 2)
    assert gb.inputs["n_b"] == 300
    assert gb.value.is_integral() and gb.inverse.is_integral()
    assert is_central(gb.value)
    # this one unit already reaches the rank of the central units
    pairs, _ = complete_irredundant_set(G)
    assert log_rank_witness(G, [gb], pairs) == rank_oracle(G) == 1
    # a generalized Bass unit that is not central is refused by name, not
    # counted: M of order 5 and g outside it
    M5 = Subgroup(G, range(5))
    assert subgroup_closure(G, [1]).members == M5.members and is_normal(M5, G.whole())
    bad = gen_bass_unit(G, 5, M5, 2, 4)
    assert bad.inputs["n_b"] == 5 and not is_central(bad.value)
    with pytest.raises(PreconditionFailed, match=r"unit 1 \(generalized Bass\) is not central"):
        log_rank_witness(G, [gb, bad], pairs)


# -- c-construction ------------------------------------------------------------


def test_c_identity_series(c5):
    ser = subnormal_series(c5.whole())
    u = bass_unit(c5, BassSpec(g=1, k=2, m=4))
    cu = c_central_unit(u, ser)
    assert (cu.value, cu.inverse) == (u.value, u.inverse)


def test_c_one_step_power(d5):
    # u already central in ZG and supported in a normal subgroup: the
    # transversal product is u^[G:H]
    rot = next(g for g in range(10) if d5.element_orders[g] == 5)
    H = subgroup_closure(d5, [rot])
    one = QGElement.one(d5)  # central everywhere, trivially
    ser = subnormal_series(H)
    assert c_central_unit(Unit(one, one, "one"), ser).value == one


def test_c_on_d5(d5):
    rot = next(g for g in range(10) if d5.element_orders[g] == 5)
    H = subgroup_closure(d5, [rot])
    u = bass_unit(d5, BassSpec(g=rot, k=2, m=4))
    cu = c_central_unit(u, subnormal_series(H))
    assert_central_unit(cu)
    assert_inverse_matches_oracle(cu)


def test_c_transversal_invariance(d5):
    rot = next(g for g in range(10) if d5.element_orders[g] == 5)
    H = subgroup_closure(d5, [rot])
    ser = subnormal_series(H)
    u = bass_unit(d5, BassSpec(g=rot, k=2, m=4))
    reference = c_central_unit(u, ser).value
    rng = random.Random(20260823)
    for _ in range(10):
        tv = [
            random_right_transversal(ser.steps[i], ser.steps[i + 1], rng)
            for i in range(len(ser.steps) - 1)
        ]
        assert c_central_unit(u, ser, transversals=tv).value == reference


def test_c_precondition_failures(s3):
    rot = next(g for g in range(6) if s3.element_orders[g] == 3)
    A3 = subgroup_closure(s3, [rot])
    ser = subnormal_series(A3)
    u = bass_unit(s3, BassSpec(g=rot, k=1, m=1))
    refl = QGElement.element(s3, next(g for g in range(6) if s3.element_orders[g] == 2))
    r = QGElement.element(s3, rot)
    bad = [
        Unit(refl, refl, "not supported inside the base subgroup"),
        Unit(u.value, refl, "inverse supported outside the base subgroup"),
        Unit(u.value, u.value.scale(Fraction(1, 2)), "non-integral inverse"),
        Unit(r.scale(Fraction(1, 2)), r.scale(2), "non-integral value"),
        Unit(r + u.value, u.value, "wrong inverse"),
        Unit(r, r, "wrong inverse of a unit"),
    ]
    for cu in bad:
        with pytest.raises(PreconditionFailed):
            c_central_unit(cu, ser)
    # not central in the base subring: a reflection in S3 itself
    ser_s3 = subnormal_series(s3.whole())
    with pytest.raises(PreconditionFailed):
        c_central_unit(Unit(refl, refl, "reflection"), ser_s3)


def test_construction_counts_and_n_b():
    # the full sweep's 36 units cut to the 10 with 1 < k < |g|/2, the rank
    C36 = get_group("C36")
    assert len(oracles.bass_central_units(C36)) == 36
    assert len(bass_central_units(C36)) == 10 == rank_oracle(C36)
    for name, count in (("D5", 37), ("D7", 65)):
        G = get_group(name)
        pairs, _ = complete_irredundant_set(G)
        assert len(z_units(G, pairs)) == count
    G = get_group("C22")
    M = next(M for M in all_subgroups(G) if M.order == 2)
    assert gen_bass_unit(G, 1, M, 3, 5).inputs["n_b"] == 341


def test_no_generator_search_after_construction(paper1000, monkeypatch):
    # every subgroup carries generators from construction, so classifying
    # paper-1000-86 from paper9.json and building D7's z-units search none
    D7 = get_group("D7")
    with resources.files("zgcentral.data").joinpath("paper9.json").open() as fh:
        doc = json.load(fh)
    calls = []
    greedy = groups._subgroup_generators

    def counted(G, members):
        calls.append(G.order)
        return greedy(G, members)

    monkeypatch.setattr(groups, "_subgroup_generators", counted)
    pairs, complete = complete_irredundant_set(
        paper1000, candidates=parse_pairs_file(paper1000, doc)
    )
    assert complete and len(pairs) == 9
    d7_pairs, _ = complete_irredundant_set(D7)
    assert len(z_units(D7, d7_pairs)) == 65
    assert calls == []


# -- z-construction ------------------------------------------------------------


def test_z_trivial_chain(c5):
    pairs, _ = complete_irredundant_set(c5)
    p = next(p for p in pairs if p.index == 5)
    u = bass_unit(c5, BassSpec(g=1, k=2, m=4))
    zu = z_central_unit(u, p)
    assert_central_unit(zu)


def test_z_on_abelian_is_power(c5):
    # C_0 = G for abelian G; the construction is a product of |G| copies
    pairs, _ = complete_irredundant_set(c5)
    p = next(p for p in pairs if p.index == 5)
    u = bass_unit(c5, BassSpec(g=1, k=2, m=4))
    zu = z_central_unit(u, p)
    assert (zu.value, zu.inverse) == (u.value**5, u.inverse**5)


def test_z_on_dihedral_pair(d5):
    rot = next(g for g in range(10) if d5.element_orders[g] == 5)
    H = subgroup_closure(d5, [rot])
    pairs, _ = complete_irredundant_set(d5)
    p = next(p for p in pairs if p.H.members == H.members)
    u = bass_unit(d5, BassSpec(g=rot, k=2, m=4))
    zu = z_central_unit(u, p)
    assert_central_unit(zu)
    assert_inverse_matches_oracle(zu)


def test_z_units_walk_no_coset(d5, monkeypatch):
    """z_central_unit reads epsilon(H, K) off the pair's character, so
    building D5's z-units walks no coset of K in H again."""
    pairs, complete = complete_irredundant_set(d5)
    assert complete
    log, calls = groups.cyclic_coset_log, []

    def counted(H, K):
        calls.append((H.order, K.order))
        return log(H, K)

    for name, module in list(sys.modules.items()):
        if name.startswith("zgcentral") and hasattr(module, "cyclic_coset_log"):
            monkeypatch.setattr(module, "cyclic_coset_log", counted)
    assert z_units(d5, pairs)
    assert calls == []


def test_z_units_make_no_transversal(monkeypatch):
    """Each level's right transversal of H_i in H_(i+1), the one its check
    read, rides on the chain: D7's 65 z-units compute none."""
    D7 = get_group("D7")
    pairs, complete = complete_irredundant_set(D7)
    assert complete

    def refused(H, within):
        raise AssertionError("right_transversal called")

    monkeypatch.setattr(units, "right_transversal", refused)
    assert len(z_units(D7, pairs)) == 65


def check_z_units_against_nested_products(G, pairs):
    """(built, refused) of the z-construction on the Bass units of every
    element of H, for each pair, each unit's value and inverse equal to
    the nested products' (`oracles.z_central_unit`) and each refusal one
    that the oracle makes too."""
    built = refused = 0
    for p in pairs:
        for h in sorted(p.H.members):
            for spec in bass_specs_for(G, h):
                u = bass_unit(G, spec)
                want = oracles.z_central_unit(u, p)
                try:
                    got = z_central_unit(u, p)
                except PreconditionFailed:
                    assert want is None, spec
                    refused += 1
                    continue
                assert (got.value, got.inverse) == want, spec
                built += 1
    return built, refused


def test_z_units_match_the_nested_product_oracle():
    """One product of the distinct conjugates per level, raised to their
    multiplicity times |H_i|, gives the units of the two nested ordered
    products over the centralizer's transversals: the same values and
    inverses, and the same refusals, for every pair of every catalog group
    of order at most 24."""
    built = refused = 0
    for _, G in oracles.small_catalog(24):
        b, r = check_z_units_against_nested_products(G, complete_irredundant_set(G)[0])
        built, refused = built + b, refused + r
    assert (built, refused) == (3660, 6416)


def test_z_units_match_the_nested_product_oracle_on_paper_1000_86(paper1000):
    """The same on paper-1000-86's generalized_strong pairs, whose chains
    climb by levels of index [2, 1, 2]."""
    pairs = [p for p in complete_irredundant_set(paper1000)[0] if p.status == "generalized_strong"]
    assert len(pairs) == 2
    assert check_z_units_against_nested_products(paper1000, pairs) == (100, 264)


def test_c_units_match_the_ordered_product_oracle():
    """Theorem 1's c-units, over the least transversals and over random
    ones, have the values and inverses of the ordered products of every
    conjugate (`oracles.c_central_unit`), on every catalog group of order
    at most 60 (paper-1000-86 is the one catalog group above)."""
    rng = random.Random(20261019)
    specs = 0
    for name, G in oracles.small_catalog(60):
        for g, H in cyclic_subgroups(G):
            try:
                series = subnormal_series(H)
            except NotSubnormal:
                continue
            steps = series.steps
            for spec in bass_specs_for(G, g):
                u = bass_unit(G, spec)
                tv = [
                    random_right_transversal(steps[i], steps[i + 1], rng)
                    for i in range(len(steps) - 1)
                ]
                for reps in (None, tv):
                    got = c_central_unit(u, series, transversals=reps)
                    want = oracles.c_central_unit(u, series, reps)
                    assert (got.value, got.inverse) == want, (name, spec)
                specs += 1
    assert specs == 2261


@pytest.mark.parametrize("construction", ["c", "z"])
def test_failed_output_is_an_error_not_a_refusal(d5, monkeypatch, construction):
    """An output that fails the unit check raises ZgError, never the
    PreconditionFailed that marks a refused input."""
    rot = next(g for g in range(10) if d5.element_orders[g] == 5)
    H = subgroup_closure(d5, [rot])
    u = bass_unit(d5, BassSpec(g=rot, k=2, m=4))
    # every product keeps its value and loses its inverse
    monkeypatch.setattr(
        units, "_conjugate_product", lambda block, reps, ring, power=1: block[[0, 0]]
    )
    with pytest.raises(ZgError) as info:
        if construction == "c":
            c_central_unit(u, subnormal_series(H))
        else:
            pairs, _ = complete_irredundant_set(d5)
            z_central_unit(u, next(p for p in pairs if p.H.members == H.members))
    assert not isinstance(info.value, PreconditionFailed)


def test_z_precondition_split_failure(c4, d5):
    pairs, _ = complete_irredundant_set(c4)
    p = next(p for p in pairs if p.index == 4)
    # g is a unit of ZC4, but g (1 - eps) = (g + g^3)/2 is not an integer
    # multiple of 1 - eps = (1 + g^2)/2
    g = next(x for x in range(4) if c4.element_orders[x] == 4)
    u = Unit(QGElement.element(c4, g), QGElement.element(c4, int(c4.inv[g])), "g")
    with pytest.raises(PreconditionFailed, match="split"):
        z_central_unit(u, p)
    # a wrong carried inverse is refused before the split is looked at
    rot = next(x for x in range(10) if d5.element_orders[x] == 5)
    H = subgroup_closure(d5, [rot])
    pairs, _ = complete_irredundant_set(d5)
    p = next(p for p in pairs if p.H.members == H.members and p.index == 5)
    v = bass_unit(d5, BassSpec(g=rot, k=2, m=4))
    r_inv = QGElement.element(d5, int(d5.inv[rot]))
    with pytest.raises(PreconditionFailed, match="inverse is not 1"):
        z_central_unit(Unit(v.value, r_inv, "wrong inverse"), p)


# -- rank witness -------------------------------------------------------------


def test_witness_identity_only(c5):
    pairs, _ = complete_irredundant_set(c5)
    one = QGElement.one(c5)
    units = [Unit(value=one, inverse=one, provenance="product")]
    assert log_rank_witness(c5, units, pairs) == 0


def test_witness_c5(c5):
    pairs, _ = complete_irredundant_set(c5)
    units = [cu for _, cu in bass_central_units(c5)]
    assert log_rank_witness(c5, units, pairs) == 1
    # Units from every generator of C5 are dependent and must not raise the rank.
    every_generator = [
        c_central_unit(bass_unit(c5, spec), subnormal_series(subgroup_closure(c5, [g])))
        for g in range(1, c5.order)
        for spec in bass_specs_for(c5, g)
    ]
    assert log_rank_witness(c5, units + every_generator, pairs) == 1


def test_witness_q8_is_zero(q8):
    pairs, _ = complete_irredundant_set(q8)
    units = [cu for _, cu in bass_central_units(q8)]
    assert log_rank_witness(q8, units, pairs) == 0


@pytest.mark.parametrize("name, order", [("D5", 5), ("Q16", 8)])
def test_witness_refuses_units_that_are_not_central(name, order):
    """The Bass units of an element g of order 5 in D5 (the witness read 2
    against rank 1) and of order 8 in Q16 (a misleading NotInvertible) are
    central in Z<g> only; the witness names the first of them."""
    G = get_group(name)
    pairs, _ = complete_irredundant_set(G)
    g = G.element_orders.index(order)
    bass = [bass_unit(G, spec) for spec in bass_specs_for(G, g)]
    central = [cu for _, cu in bass_central_units(G)]
    first = next(i for i, u in enumerate(bass) if not is_central(u.value))
    named = f"unit {len(central) + first} \\(Bass\\) is not central"
    with pytest.raises(PreconditionFailed, match=named):
        log_rank_witness(G, central + bass, pairs)


# -- central character values against the field oracle -------------------------


def random_c_units(G, rng):
    """`bass_central_units` with random transversals, on groups whose
    cyclic subgroups are all subnormal."""
    units = []
    for g, H in cyclic_subgroups(G):
        series = subnormal_series(H)
        steps = series.steps
        for spec in bass_specs_for(G, g):
            tv = [
                random_right_transversal(steps[i], steps[i + 1], rng)
                for i in range(len(steps) - 1)
            ]
            units.append(c_central_unit(bass_unit(G, spec), series, transversals=tv))
    return units


def z_units(G, pairs):
    """The z-construction on the Bass units of every element of H, for each
    pair; units that fail its preconditions are skipped."""
    units = []
    for p in pairs:
        for h in sorted(p.H.members):
            for spec in bass_specs_for(G, h):
                try:
                    units.append(z_central_unit(bass_unit(G, spec), p))
                except PreconditionFailed:
                    pass
    return units


def check_omega_against_oracle(G, pairs, units):
    """Each unit and its inverse, and each pair's idempotent (the units
    all have denominator 1), on every pair."""
    elements = [v for cu in units for v in (cu.value, cu.inverse)]
    elements += [q.pci for q in pairs]
    def exact(p, v):
        n, row, den = central_character_value(G, p, v)
        return n, tuple(Fraction(x, den) for x in row)

    for p in pairs:
        for v in elements:
            want = oracles.central_character_value(G, p.H, p.K, v)
            assert exact(p, v) == (want.n, want.c)
        for q in pairs:
            n, got = exact(p, q.pci)
            assert got == (int(p is q),) + (0,) * (len(got) - 1)


@pytest.mark.parametrize("name", ["C24", "C30", "C36", "Q16", "E25"])
def test_omega_matches_field_oracle_on_c_units(name):
    G = get_group(name)
    pairs, _ = complete_irredundant_set(G)
    check_omega_against_oracle(G, pairs, [cu for _, cu in bass_central_units(G)])


@pytest.mark.parametrize("name, count", [("D5", 37), ("D7", 65)])
def test_omega_matches_field_oracle_on_z_units(name, count):
    G = get_group(name)
    pairs, _ = complete_irredundant_set(G)
    units = z_units(G, pairs)
    assert len(units) == count
    check_omega_against_oracle(G, pairs, units)


def test_witness_d7_z_units():
    G = get_group("D7")
    pairs, _ = complete_irredundant_set(G)
    assert log_rank_witness(G, z_units(G, pairs), pairs) == rank_oracle(G)


# -- the rank witness against its one-entry-at-a-time oracles ------------------

# the c-unit groups of the central-units benchmark, whose units are small
# enough for the float oracle
WITNESS_C_GROUPS = ("C20", "C21", "C24", "C30", "C36", "E25", "Q16")


@pytest.mark.parametrize("seed", [1, 2, 3])
def test_witness_matches_oracle_on_random_transversals(seed):
    rng = random.Random(seed)
    for name in WITNESS_C_GROUPS:
        G = get_group(name)
        pairs, _ = complete_irredundant_set(G)
        units = random_c_units(G, rng)
        got = log_rank_witness(G, units, pairs)
        assert got == oracles.log_rank_witness(G, units, pairs) == rank_oracle(G), name
        assert got == oracles.padic_rank(G, units, pairs), name


@pytest.mark.parametrize("name, rank", [("D5", 1), ("D7", 2), ("D11", 4)])
def test_witness_matches_oracle_on_z_units(name, rank):
    """The z-units reach the rank; D7's and D11's have coefficients of up
    to 97 bits, where the float oracle reads 6 and 10."""
    G = get_group(name)
    pairs, _ = complete_irredundant_set(G)
    units = z_units(G, pairs)
    assert log_rank_witness(G, units, pairs) == oracles.padic_rank(G, units, pairs) == rank
    assert rank == rank_oracle(G)


def test_witness_reaches_the_rank_with_bass_central_units():
    """Theorem 1's units, one per rank, on every catalog group but
    paper-1000-86 (whose cyclic subgroups are not all subnormal); on C72,
    whose logs need more than one p-adic digit (one digit reads 20 against
    25); and on C105 and C120, whose units have coefficients of up to 122
    bits.  Up to order 60 the full sweep's witness is the same: the units
    the cut drops add no rank."""
    named = [(e.name, e.constructor()) for e in catalog() if e.name != "paper-1000-86"]
    named += [(f"C{n}", cyclic(n)) for n in (72, 105, 120)]
    for name, G in named:
        pairs, _ = complete_irredundant_set(G)
        units = [cu for _, cu in bass_central_units(G)]
        assert len(units) == log_rank_witness(G, units, pairs) == rank_oracle(G), name
        if G.order <= 60:
            full = [cu for _, cu in oracles.bass_central_units(G)]
            assert log_rank_witness(G, full, pairs) == len(units), name


@functools.cache
def _theorem_1_units(name):
    G = get_group(name)
    return G, complete_irredundant_set(G)[0], [cu for _, cu in bass_central_units(G)]


@settings(max_examples=30, deadline=None)
@given(
    name=st.sampled_from(["C7", "C9", "C12", "C15", "C21", "Q16", "D5", "D12", "E25"]),
    data=st.data(),
)
def test_witness_is_the_rank_of_the_generated_group(name, data):
    """The witness of a few listed units never exceeds the rank, and adding
    1, u^2 or u*v of listed units u, v leaves it unchanged."""
    G, pairs, units = _theorem_1_units(name)
    listed = data.draw(st.lists(st.sampled_from(units), min_size=1, max_size=4))
    witness = log_rank_witness(G, listed, pairs)
    assert witness <= rank_oracle(G)
    u, v = data.draw(st.sampled_from(listed)), data.draw(st.sampled_from(listed))
    one = QGElement.one(G)
    dependent = data.draw(
        st.sampled_from(
            [
                Unit(one, one, "1"),
                Unit(u.value**2, u.inverse**2, "u^2"),
                Unit(mul(u.value, v.value), mul(v.inverse, u.inverse), "u*v"),
            ]
        )
    )
    assert log_rank_witness(G, listed + [dependent], pairs) == witness
