"""Exact arithmetic in cyclotomic fields Q(zeta_n).

Values are stored on the power basis zeta^0..zeta^(phi(n)-1) after reduction
modulo the n-th cyclotomic polynomial.  Conductors are not minimized; mixed
conductors are lifted to the lcm on demand.  Sums of powers of zeta_n with
integer multiplicities can skip the objects: `ramanujan_row` gives their
traces to Q and `reduction_matrix` their power-basis coordinates.
"""

from __future__ import annotations

import cmath
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from math import gcd

import numpy as np

from .errors import BadExponent, DivisionByZero


def euler_phi(n):
    if n < 1:
        raise ValueError("euler_phi needs n >= 1")
    result = n
    m = n
    p = 2
    while p * p <= m:
        if m % p == 0:
            while m % p == 0:
                m //= p
            result -= result // p
        p += 1
    if m > 1:
        result -= result // m
    return result


def _poly_trim(c):
    while c and c[-1] == 0:
        c.pop()
    return c


def _poly_mul(a, b):
    out = [0] * (len(a) + len(b) - 1) if a and b else []
    for i, x in enumerate(a):
        if x:
            for j, y in enumerate(b):
                out[i + j] += x * y
    return _poly_trim(out)


def _poly_divmod_exact(num, den):
    """Exact division of integer polynomials (monic-leading den up to sign)."""
    num = list(num)
    q = [0] * (len(num) - len(den) + 1)
    lead = den[-1]
    for i in range(len(q) - 1, -1, -1):
        c = num[i + len(den) - 1]
        if c % lead != 0:
            raise ArithmeticError("inexact polynomial division")
        q[i] = c // lead
        if q[i]:
            for j, y in enumerate(den):
                num[i + j] -= q[i] * y
    if any(num):
        raise ArithmeticError("inexact polynomial division")
    return q


@lru_cache(maxsize=None)
def cyclotomic_polynomial(n):
    """Integer coefficients of Phi_n, low degree first, monic."""
    if n == 1:
        return (-1, 1)
    num = [0] * (n + 1)
    num[0], num[n] = -1, 1
    den = [1]
    for d in range(1, n):
        if n % d == 0:
            den = _poly_mul(den, list(cyclotomic_polynomial(d)))
    return tuple(_poly_divmod_exact(num, den))


@lru_cache(maxsize=None)
def _phi_reduction_rows(n):
    """For k in phi(n)..n-1: integer coefficients of zeta^k on the power
    basis (integral because Phi_n is monic)."""
    phi = euler_phi(n)
    phin = cyclotomic_polynomial(n)
    # zeta^phi = -sum_{i<phi} phin[i] * zeta^i   (phin monic)
    rows = {}
    prev = [-c for c in phin[:phi]]
    rows[phi] = tuple(prev)
    for k in range(phi + 1, n):
        shifted = [0] + prev[:-1]
        top = prev[-1]
        if top:
            base = rows[phi]
            shifted = [shifted[i] + top * base[i] for i in range(phi)]
        rows[k] = tuple(shifted)
        prev = shifted
    return rows


@lru_cache(maxsize=None)
def reduction_matrix(n):
    """Integer n x phi(n) matrix whose row k holds zeta_n^k on the power
    basis; a row of exponent counts times it is that sum reduced mod Phi_n."""
    phi = euler_phi(n)
    rows = _phi_reduction_rows(n)
    out = np.zeros((n, phi), dtype=np.int64)
    out[np.arange(phi), np.arange(phi)] = 1
    for k in range(phi, n):
        out[k] = rows[k]
    out.setflags(write=False)
    return out


def _mobius(n):
    result = 1
    p = 2
    while p * p <= n:
        if n % p == 0:
            n //= p
            if n % p == 0:
                return 0
            result = -result
        p += 1
    return -result if n > 1 else result


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


class Cyclotomic:
    """An exact element of Q(zeta_n) on the canonical power basis."""

    __slots__ = ("n", "c")

    def __init__(self, n, coeffs):
        """coeffs: length-phi(n) sequence of Fractions (already reduced)."""
        self.n = n
        self.c = tuple(coeffs)

    # -- constructors --------------------------------------------------------

    @staticmethod
    def from_powers(n, powers):
        """Sum of coeff * zeta_n^k for {k: coeff} in `powers`."""
        phi = euler_phi(n)
        dense = [Fraction(0)] * phi
        rows = None
        for k, coeff in powers.items():
            coeff = Fraction(coeff)
            if not coeff:
                continue
            k %= n
            if k < phi:
                dense[k] += coeff
            else:
                if rows is None:
                    rows = _phi_reduction_rows(n)
                row = rows[k]
                for i in range(phi):
                    if row[i]:
                        dense[i] += coeff * row[i]
        return Cyclotomic(n, dense)

    @staticmethod
    def rational(q, n=1):
        phi = euler_phi(n)
        dense = [Fraction(0)] * phi
        dense[0] = Fraction(q)
        if n == 1:
            # basis element is zeta_1 = 1 itself; representation is q * 1
            return Cyclotomic(1, dense)
        return Cyclotomic(n, dense)

    @staticmethod
    def zero(n=1):
        return Cyclotomic.rational(0, n)

    # -- representation helpers ----------------------------------------------

    def lift(self, N):
        """The same value in Q(zeta_N); n must divide N."""
        if N == self.n:
            return self
        if N % self.n != 0:
            raise ValueError(f"cannot lift conductor {self.n} into {N}")
        step = N // self.n
        return Cyclotomic.from_powers(
            N, {i * step: q for i, q in enumerate(self.c) if q}
        )

    def _pair(self, other):
        if not isinstance(other, Cyclotomic):
            other = Cyclotomic.rational(other)
        N = self.n * other.n // gcd(self.n, other.n)
        return self.lift(N), other.lift(N)

    def is_zero(self):
        return all(q == 0 for q in self.c)

    def as_rational(self):
        """The value as a Fraction, or None if it is irrational."""
        if self.n == 1:
            return self.c[0]
        if any(q for q in self.c[1:]):
            return None
        return self.c[0]

    # -- arithmetic ----------------------------------------------------------

    def __add__(self, other):
        a, b = self._pair(other)
        return Cyclotomic(a.n, [x + y for x, y in zip(a.c, b.c)])

    __radd__ = __add__

    def __neg__(self):
        return Cyclotomic(self.n, [-x for x in self.c])

    def __sub__(self, other):
        a, b = self._pair(other)
        return Cyclotomic(a.n, [x - y for x, y in zip(a.c, b.c)])

    def __rsub__(self, other):
        return (-self) + other

    def __mul__(self, other):
        a, b = self._pair(other)
        phi = len(a.c)
        prod = [Fraction(0)] * (2 * phi - 1 if phi else 0)
        for i, x in enumerate(a.c):
            if x:
                for j, y in enumerate(b.c):
                    if y:
                        prod[i + j] += x * y
        return Cyclotomic.from_powers(a.n, dict(enumerate(prod)))

    __rmul__ = __mul__

    def inv(self):
        """Multiplicative inverse via the extended Euclidean algorithm."""
        if self.is_zero():
            raise DivisionByZero("inverse of zero")
        phin = [Fraction(c) for c in cyclotomic_polynomial(self.n)]
        a = list(self.c)
        _poly_trim(a)
        # xgcd(a, phin) over Q[x]: find u with u*a == gcd (a unit) mod phin
        r0, r1 = phin, a
        s0, s1 = [], [Fraction(1)]
        while r1:
            # divide r0 by r1
            q = []
            rem = list(r0)
            while len(rem) >= len(r1) and rem:
                factor = rem[-1] / r1[-1]
                deg = len(rem) - len(r1)
                while len(q) <= deg:
                    q.append(Fraction(0))
                q[deg] += factor
                for j, y in enumerate(r1):
                    rem[deg + j] -= factor * y
                _poly_trim(rem)
            r0, r1 = r1, rem
            qs1 = _poly_mul_frac(q, s1)
            news = [Fraction(0)] * max(len(s0), len(qs1))
            for i, v in enumerate(s0):
                news[i] += v
            for i, v in enumerate(qs1):
                news[i] -= v
            s0, s1 = s1, _poly_trim(news)
        if len(r0) != 1:
            raise DivisionByZero("element is a zero divisor in the chosen basis")
        g = r0[0]
        inv_coeffs = [v / g for v in s0]
        return Cyclotomic.from_powers(self.n, dict(enumerate(inv_coeffs)))

    def __truediv__(self, other):
        if not isinstance(other, Cyclotomic):
            other = Cyclotomic.rational(other)
        return self * other.inv()

    def __pow__(self, k):
        if k < 0:
            return self.inv() ** (-k)
        out = Cyclotomic.rational(1, self.n)
        base = self
        while k:
            if k & 1:
                out = out * base
            base = base * base
            k >>= 1
        return out

    def __eq__(self, other):
        try:
            a, b = self._pair(other)
        except (TypeError, ValueError):
            return NotImplemented
        return a.c == b.c

    # equality lifts conductors, so index-based hashing would be unsound
    __hash__ = None

    def __repr__(self):
        if self.is_zero():
            return "Cyc(0)"
        parts = []
        for i, q in enumerate(self.c):
            if q:
                parts.append(f"{q}*z{self.n}^{i}" if i else f"{q}")
        return "Cyc(" + " + ".join(parts) + ")"

    # -- Galois action and embeddings ----------------------------------------

    def galois(self, m):
        """Image under zeta_n -> zeta_n^m; requires gcd(m, n) = 1."""
        if gcd(m, self.n) != 1:
            raise BadExponent(f"gcd({m}, {self.n}) != 1")
        return Cyclotomic.from_powers(
            self.n, {(i * m) % self.n: q for i, q in enumerate(self.c) if q}
        )

    def conjugate(self):
        return self.galois(self.n - 1) if self.n > 1 else self

    def is_real(self):
        return self == self.conjugate()

    def embeddings(self):
        """Complex values at every primitive n-th root of unity."""
        out = []
        for m in range(1, self.n + 1):
            if gcd(m, self.n) == 1:
                z = cmath.exp(2j * cmath.pi * m / self.n)
                out.append(sum(float(q) * z**i for i, q in enumerate(self.c)))
        return out

    def to_json(self):
        return {
            "n": self.n,
            "coeffs": {str(i): str(q) for i, q in enumerate(self.c) if q},
        }


def _poly_mul_frac(a, b):
    out = [Fraction(0)] * (len(a) + len(b) - 1) if a and b else []
    for i, x in enumerate(a):
        if x:
            for j, y in enumerate(b):
                out[i + j] += x * y
    return _poly_trim(out)


def cyc(n, k=1, coeff=1):
    """coeff * zeta_n^k as a Cyclotomic."""
    return Cyclotomic.from_powers(n, {k: Fraction(coeff)})


@dataclass(frozen=True)
class GaloisMap:
    """The automorphism of Q(zeta_n) sending zeta_n to zeta_n^m."""

    n: int
    m: int

    def __post_init__(self):
        if gcd(self.m, self.n) != 1:
            raise BadExponent(f"gcd({self.m}, {self.n}) != 1")

    def __call__(self, x):
        return galois_apply(self, x)


def galois_apply(sigma, x):
    if x.n != sigma.n:
        if sigma.n % x.n != 0:
            raise ValueError("conductor of value does not divide the map's")
        x = x.lift(sigma.n)
    return x.galois(sigma.m)


def galois_group(n):
    """All automorphisms of Q(zeta_n)/Q; has euler_phi(n) elements."""
    return [GaloisMap(n, m) for m in range(1, n + 1) if gcd(m, n) == 1]
