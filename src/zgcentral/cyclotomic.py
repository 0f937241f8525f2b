"""Integer kernels for sums of roots of unity in Q(zeta_n).

A character value is a sum of powers of zeta_n: `reduction_matrix`
holds each power's coordinates on the power basis
zeta^0..zeta^(phi(n)-1) after reduction modulo the n-th cyclotomic
polynomial, so the value is the sum of its rows at the exponents, and
`ramanujan_row` holds the traces to Q of the powers.  An exact value
of Q(zeta_n), such as the central character value in `units`, is an
integer row on that basis over one positive denominator; nothing here
does field arithmetic.
`factorize` is the package's one trial division: phi, mu, element orders
and the witness prime read it.
"""

from __future__ import annotations

from functools import lru_cache
from math import gcd, prod

import numpy as np


def factorize(n):
    """{p: v} with n the product of the p^v, p prime, by trial division;
    the primes in increasing order, and {} for n = 1."""
    if n < 1:
        raise ValueError("factorize needs n >= 1")
    out, p = {}, 2
    while p * p <= n:
        while n % p == 0:
            out[p] = out.get(p, 0) + 1
            n //= p
        p += 1
    if n > 1:
        out[n] = 1
    return out


@lru_cache(maxsize=None)
def euler_phi(n):
    """phi(n), memoized, as the rank formula reads it for every pair."""
    return prod((p - 1) * p ** (v - 1) for p, v in factorize(n).items())


def _mobius(n):
    f = factorize(n)
    return 0 if any(v > 1 for v in f.values()) else (-1) ** len(f)


@lru_cache(maxsize=None)
def cyclotomic_polynomial(n):
    """Integer coefficients of Phi_n, low degree first, monic.

    For n > 1, Phi_n is the product of (1 - x^d)^mu(n/d) over the
    divisors d of n (the signs cancel: the mu(n/d) sum to 0), taken as a
    power series cut at degree phi(n).  Multiplying by 1 - x^d is one
    shifted subtraction, and dividing by it a running sum along each
    residue class mod d; x^d with d > phi(n) is 0 in the cut series.
    """
    if n == 1:
        return (-1, 1)
    size = euler_phi(n) + 1
    c = np.zeros(size, dtype=np.int64)
    c[0] = 1
    for d in range(1, size):
        mu = _mobius(n // d) if n % d == 0 else 0
        if mu > 0:
            c[d:] = c[d:] - c[:-d]
        elif mu < 0:
            rows = -(-size // d)
            c = np.pad(c, (0, rows * d - size)).reshape(rows, d).cumsum(axis=0).ravel()[:size]
    return tuple(c.tolist())


@lru_cache(maxsize=None)
def reduction_matrix(n):
    """Integer n x phi(n) matrix whose row k holds zeta_n^k on the power
    basis (integral because Phi_n is monic); the sum of its rows at some
    exponents is the sum of those powers reduced mod Phi_n."""
    phi = euler_phi(n)
    out = np.zeros((n, phi), dtype=np.int64)
    out[np.arange(phi), np.arange(phi)] = 1
    if n > phi:
        # zeta^phi = -sum_{i<phi} Phi_n[i] * zeta^i, then zeta^k = zeta * zeta^(k-1)
        out[phi] = [-c for c in cyclotomic_polynomial(n)[:phi]]
        for k in range(phi + 1, n):
            out[k, 1:] = out[k - 1, :-1]
            out[k] += out[k - 1, -1] * out[phi]
    out.setflags(write=False)
    return out


@lru_cache(maxsize=None)
def ramanujan_row(n):
    """Traces from Q(zeta_n) to Q of zeta_n^k for k = 0..n-1, as int64.

    The trace of zeta_n^k is the Ramanujan sum c_n(k) =
    mu(n/g) * phi(n) / phi(n/g) with g = gcd(n, k).
    """
    phi = euler_phi(n)
    out = np.empty(n, dtype=np.int64)
    for k in range(n):
        m = n // gcd(n, k)
        out[k] = _mobius(m) * phi // euler_phi(m)
    out.setflags(write=False)
    return out

