"""The integer cyclotomic kernels, and the Fraction field arithmetic of
the test oracles (Galois action, realness, embeddings) that checks them."""

import bisect
import math
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from oracles import (
    BadExponent,
    Cyclotomic,
    DivisionByZero,
    GaloisMap,
    cyc,
    galois_apply,
    galois_group,
    trace_to_q,
)

from zgcentral.cyclotomic import (
    _mobius,
    cyclotomic_polynomial,
    euler_phi,
    factorize,
    ramanujan_row,
    reduction_matrix,
)


def test_identity_values():
    assert cyc(1, 0) == Cyclotomic.rational(1)
    assert euler_phi(1) == 1
    assert [euler_phi(n) for n in (2, 4, 5, 8, 10, 12)] == [1, 2, 4, 4, 4, 4]


def test_factorize_phi_and_mobius_match_their_definitions():
    """For n <= 4096: factorize(n) lists the primes p dividing n, in
    increasing order, each with the largest v such that p^v divides n;
    phi(n) counts the k <= n prime to n; and mu is the function with
    mu(1) = 1 whose sum over the divisors of every n > 1 is 0."""
    top = 4096
    primes = [p for p in range(2, top + 1) if all(p % d for d in range(2, math.isqrt(p) + 1))]
    mu = [0, 1] + [0] * (top - 1)
    for d in range(1, top + 1):
        for n in range(2 * d, top + 1, d):
            mu[n] -= mu[d]
    for n in range(1, top + 1):
        want = {}
        for p in primes[: bisect.bisect_right(primes, n)]:
            while n % p ** (want.get(p, 0) + 1) == 0:
                want[p] = want.get(p, 0) + 1
        assert list(factorize(n).items()) == list(want.items())
        assert euler_phi(n) == int(np.count_nonzero(np.gcd(np.arange(1, n + 1), n) == 1))
        assert _mobius(n) == mu[n]
    with pytest.raises(ValueError):
        factorize(0)


def test_i_squared():
    assert cyc(4, 1) ** 2 == Cyclotomic.rational(-1)


def test_vanishing_geometric_sum():
    total = Cyclotomic.rational(1)
    for k in range(1, 5):
        total = total + cyc(5, k)
    assert total.is_zero()


def test_prime_basis_dimension():
    for p in (3, 5, 7, 11):
        assert len(cyc(p, 1).c) == p - 1
        # zeta_p^(p-1) = -(1 + zeta_p + ... + zeta_p^(p-2))
        reduced = cyc(p, p - 1)
        expected = Cyclotomic.from_powers(p, {k: -1 for k in range(p - 1)})
        assert reduced == expected


def test_cyclotomic_polynomial_values():
    assert cyclotomic_polynomial(1) == (-1, 1)
    assert cyclotomic_polynomial(4) == (1, 0, 1)
    assert cyclotomic_polynomial(5) == (1, 1, 1, 1, 1)
    assert cyclotomic_polynomial(12) == (1, 0, -1, 0, 1)


@pytest.mark.parametrize("ns", [range(1, 1001), [105, 385, 1155, 2048]])
def test_cyclotomic_polynomials_multiply_to_x_n_minus_1(ns):
    """Phi_n is monic of degree phi(n), and the product of Phi_d over the
    divisors d of n is x^n - 1, multiplied out in Python ints."""
    for n in ns:
        assert len(cyclotomic_polynomial(n)) == euler_phi(n) + 1
        assert cyclotomic_polynomial(n)[-1] == 1
        prod = np.ones(1, dtype=object)
        for d in range(1, n + 1):
            if n % d == 0:
                prod = np.convolve(prod, np.array(cyclotomic_polynomial(d), dtype=object))
        assert prod.tolist() == [-1] + [0] * (n - 1) + [1]


def test_galois_identity_and_conjugation():
    x = cyc(5, 1) + cyc(5, 3) * 2
    assert galois_apply(GaloisMap(5, 1), x) == x
    assert x.conjugate() == galois_apply(GaloisMap(5, 4), x)


def test_galois_group_size():
    assert len(galois_group(12)) == 4
    with pytest.raises(BadExponent):
        GaloisMap(6, 3)


def test_trace_of_primitive_root():
    # independent derivation: the primitive 5th roots sum to mu(5) = -1
    assert trace_to_q(cyc(5, 1)) == Fraction(-1)
    assert trace_to_q(cyc(4, 1)) == Fraction(0)
    assert trace_to_q(Cyclotomic.rational(3, 5)) == Fraction(12)  # 3 * phi(5)


def test_ramanujan_row_and_reduction_match_cyclotomics():
    for n in range(1, 61):
        ram = ramanujan_row(n)
        red = reduction_matrix(n)
        assert red.shape == (n, euler_phi(n))
        for k in range(n):
            z = cyc(n, k)
            assert ram[k] == trace_to_q(z), (n, k)
            assert list(red[k]) == list(z.c), (n, k)


def test_realness():
    assert (cyc(5, 1) + cyc(5, 4)).is_real()
    assert not cyc(4, 1).is_real()
    assert Cyclotomic.rational(7).is_real()


def test_embeddings_of_zeta3():
    vals = sorted(cyc(3, 1).embeddings(), key=lambda z: z.imag)
    assert abs(vals[0] - (-0.5 - 0.8660254j)) < 1e-6
    assert abs(vals[1] - (-0.5 + 0.8660254j)) < 1e-6


def test_realness_matches_embeddings():
    samples = [
        cyc(5, 1) + cyc(5, 4),
        cyc(8, 1) - cyc(8, 7),
        cyc(12, 1) * cyc(12, 11),
        cyc(7, 2),
    ]
    for x in samples:
        numeric = all(abs(z.imag) < 1e-9 for z in x.embeddings())
        assert x.is_real() == numeric


def test_inverse_of_zero_rejected():
    with pytest.raises(DivisionByZero):
        Cyclotomic.zero(5).inv()


def test_mixed_conductor_arithmetic():
    assert cyc(2, 1) == Cyclotomic.rational(-1)
    assert cyc(3, 1) * cyc(4, 1) == cyc(12, 7)


small_elt = st.builds(
    lambda coeffs: Cyclotomic.from_powers(12, dict(enumerate(coeffs))),
    st.lists(st.integers(-4, 4), min_size=1, max_size=4),
)


@settings(max_examples=50, deadline=None)
@given(small_elt, small_elt, small_elt)
def test_ring_axioms(a, b, c):
    assert (a + b) * c == a * c + b * c
    assert a * b == b * a
    assert (a + b) + c == a + (b + c)


@settings(max_examples=40, deadline=None)
@given(small_elt)
def test_inverse_roundtrip(x):
    if not x.is_zero():
        assert x * x.inv() == Cyclotomic.rational(1)


@settings(max_examples=40, deadline=None)
@given(small_elt, small_elt, st.sampled_from([1, 5, 7, 11]))
def test_galois_is_ring_hom(a, b, m):
    sigma = GaloisMap(12, m)
    assert sigma(a + b) == sigma(a) + sigma(b)
    assert sigma(a * b) == sigma(a) * sigma(b)
    assert sigma(Cyclotomic.rational(3, 12)) == Cyclotomic.rational(3, 12)
