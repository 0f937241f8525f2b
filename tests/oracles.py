"""Brute-force reference implementations that the tests compare against,
and the corpus of groups they are compared on.

The character oracles use `Cyclotomic` values with Fraction field
arithmetic and Galois sums throughout, reduced modulo Phi_n by long
division, and share no code with the integer character kernel in
`zgcentral.shoda` and `zgcentral.cyclotomic.reduction_matrix`: each pair
gets its own linear character, built from a generating coset of H/K by
walking powers, and the central character value is summed one field
product per support element.  The idempotent oracle normalizes the
Galois sum by one QG squaring, the way `zgcentral` did before it read
the Galois stabilizer off the class power map.  The character oracles
take their classes from `conjugacy_classes`, a breadth-first search
under conjugation by G's generators, the way `zgcentral` found them
before its least-label fixpoint; the tests check that partition, the
real and rational ones and `zgcentral.groups.galois_classes` against
`G.power`.  The normal-closure oracle closes again after every conjugate
that falls outside, the loop `zgcentral` ran before it closed all
conjugates at once.  The group-algebra
oracles work on sparse `{index: Fraction}` dicts with no stored zeros,
the representation that `zgcentral.groupalgebra` used before its
`(den, vec)` elements.  The coset oracles build H/K as a group of its
own, with a projection map, the way `zgcentral` did before it read the
cosets off G's table, and `epsilon`
is the product over the minimal normal overgroups of K found in that
quotient, the formula `zgcentral` used before its Ramanujan-sum gather.
The subgroup-lattice oracle closes S + g for every known subgroup S and
every g outside it, the way `zgcentral` did before its cyclic extension.
The Shoda test loops over every g outside H and h in H, and the
generalized Bass unit is found by multiplying out powers in QG and
inverting each, the ways `zgcentral` did before its table gather and its
closed form.  The Fraction `minimal_polynomial` and `inverse` here are
the only inversion left anywhere: `zgcentral` never solves for an
inverse, since every unit it builds carries its own, and `gen_bass_unit`
and the unit tests check those carried inverses against this one.  The
center-degree oracle is the rank of the class sums times e, found by
Bareiss fraction-free elimination over the integers, the way `zgcentral`
did before it read that dimension off as a trace.
"""

import json
from dataclasses import dataclass
from fractions import Fraction
from functools import cache
from importlib import resources
from math import gcd

import numpy as np

from zgcentral.catalog import catalog
from zgcentral.cli import parse_pairs_file
from zgcentral import cyclotomic
from zgcentral.cyclotomic import cyclotomic_polynomial
from zgcentral.errors import NotInvertible, NotNormal, NotSubgroup, ZgError
from zgcentral.groupalgebra import QGElement, hat
from zgcentral.groupalgebra import mul as qg_mul
from zgcentral.groups import (
    FiniteGroup,
    Subgroup,
    is_normal,
    right_transversal,
    subgroup_closure,
)
from zgcentral.units import BassSpec, bass_unit

# catalog groups whose every Shoda pair is checked against the oracles
CORPUS = ("S4", "D12", "Q16", "C24", "C60", "D25", "E25")


@cache
def small_catalog(max_order=60):
    """(name, group) for every catalog group of order at most `max_order`,
    built once per session."""
    built = ((e.name, e.constructor()) for e in catalog())
    return [(name, G) for name, G in built if G.order <= max_order]


def paper9_pairs(G):
    """(H, K) of the nine pairs in paper9.json, in the order-1000 group G."""
    with resources.files("zgcentral.data").joinpath("paper9.json").open() as fh:
        return [(H, K) for H, K, _ in parse_pairs_file(G, json.load(fh))]


# -- the subgroup lattice by closures ---------------------------------------------


def all_subgroups(G):
    """Every subgroup of G, sorted by (order, member tuple): the closures
    of S + g for every subgroup S found so far and every g outside S."""
    seen = {}
    triv = G.trivial()
    seen[triv.members] = triv
    frontier = [triv]
    while frontier:
        S = frontier.pop()
        for g in sorted(set(range(G.order)) - S.members):
            T = subgroup_closure(G, S.gens + [g])
            if T.members not in seen:
                seen[T.members] = T
                frontier.append(T)
    return sorted(seen.values(), key=lambda S: (S.order, S.sorted_members))


# -- Q(zeta_n) with its Fraction field arithmetic --------------------------------


class DivisionByZero(ZgError):
    pass


class BadExponent(ZgError):
    pass


def _trim(c):
    while c and c[-1] == 0:
        c.pop()
    return c


def _reduce_mod_phi(n, dense):
    """Power-basis coefficients of sum dense[k] * zeta_n^k, by long
    division by the monic Phi_n."""
    phin = cyclotomic_polynomial(n)
    phi = len(phin) - 1
    dense = list(dense) + [Fraction(0)] * max(0, phi - len(dense))
    for k in range(len(dense) - 1, phi - 1, -1):
        q = dense[k]
        if q:
            for i, a in enumerate(phin):
                dense[k - phi + i] -= q * a
    return dense[:phi]


def _poly_mul_frac(a, b):
    out = [Fraction(0)] * (len(a) + len(b) - 1) if a and b else []
    for i, x in enumerate(a):
        if x:
            for j, y in enumerate(b):
                out[i + j] += x * y
    return _trim(out)


class Cyclotomic(cyclotomic.Cyclotomic):
    """The library's exact value of Q(zeta_n), with field arithmetic:
    mixed conductors are lifted to the lcm, and equality compares the
    lifted coefficients."""

    @classmethod
    def from_powers(cls, n, powers):
        """Sum of coeff * zeta_n^k for {k: coeff} in `powers`."""
        dense = [Fraction(0)] * n
        for k, coeff in powers.items():
            dense[k % n] += Fraction(coeff)
        return cls(n, tuple(_reduce_mod_phi(n, dense)))

    @classmethod
    def rational(cls, q, n=1):
        return cls.from_powers(n, {0: q})

    @classmethod
    def zero(cls, n=1):
        return cls.rational(0, n)

    def lift(self, N):
        """The same value in Q(zeta_N); n must divide N."""
        if N == self.n:
            return self
        if N % self.n != 0:
            raise ValueError(f"cannot lift conductor {self.n} into {N}")
        step = N // self.n
        powers = {i * step: q for i, q in enumerate(self.c) if q}
        return self.from_powers(N, powers)

    def _pair(self, other):
        if not isinstance(other, Cyclotomic):
            other = Cyclotomic.rational(other)
        N = self.n * other.n // gcd(self.n, other.n)
        return self.lift(N), other.lift(N)

    def is_zero(self):
        return all(q == 0 for q in self.c)

    def as_rational(self):
        """The value as a Fraction, or None if it is irrational."""
        if any(q for q in self.c[1:]):
            return None
        return self.c[0]

    def __add__(self, other):
        a, b = self._pair(other)
        return Cyclotomic(a.n, tuple(x + y for x, y in zip(a.c, b.c)))

    __radd__ = __add__

    def __neg__(self):
        return Cyclotomic(self.n, tuple(-x for x in self.c))

    def __sub__(self, other):
        a, b = self._pair(other)
        return Cyclotomic(a.n, tuple(x - y for x, y in zip(a.c, b.c)))

    def __rsub__(self, other):
        return (-self) + other

    def __mul__(self, other):
        a, b = self._pair(other)
        prod = _poly_mul_frac(list(a.c), list(b.c))
        return Cyclotomic.from_powers(a.n, dict(enumerate(prod)))

    __rmul__ = __mul__

    def inv(self):
        """Multiplicative inverse via the extended Euclidean algorithm."""
        if self.is_zero():
            raise DivisionByZero("inverse of zero")
        r0 = [Fraction(c) for c in cyclotomic_polynomial(self.n)]
        r1 = _trim(list(self.c))
        # xgcd(a, Phi_n) over Q[x]: find s with s*a == gcd (a unit) mod Phi_n
        s0, s1 = [], [Fraction(1)]
        while r1:
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
                _trim(rem)
            r0, r1 = r1, rem
            qs1 = _poly_mul_frac(q, s1)
            news = [Fraction(0)] * max(len(s0), len(qs1))
            for i, v in enumerate(s0):
                news[i] += v
            for i, v in enumerate(qs1):
                news[i] -= v
            s0, s1 = s1, _trim(news)
        if len(r0) != 1:
            raise DivisionByZero("element is a zero divisor in the chosen basis")
        g = r0[0]
        return Cyclotomic.from_powers(self.n, {i: v / g for i, v in enumerate(s0)})

    def __truediv__(self, other):
        if not isinstance(other, Cyclotomic):
            other = Cyclotomic.rational(other)
        return self * other.inv()

    def __pow__(self, k):
        if k < 0:
            return self.inv() ** (-k)
        out = Cyclotomic.rational(1, self.n)
        for _ in range(k):
            out = out * self
        return out

    def __eq__(self, other):
        try:
            a, b = self._pair(other)
        except (TypeError, ValueError):
            return NotImplemented
        return a.c == b.c

    # equality lifts conductors, so coefficient-based hashing would be unsound
    __hash__ = None

    def galois(self, m):
        """Image under zeta_n -> zeta_n^m; requires gcd(m, n) = 1."""
        if gcd(m, self.n) != 1:
            raise BadExponent(f"gcd({m}, {self.n}) != 1")
        return Cyclotomic.from_powers(
            self.n, {(i * m) % self.n: q for i, q in enumerate(self.c) if q}
        )

    def conjugate(self):
        return self.galois(self.n - 1)

    def is_real(self):
        return self == self.conjugate()


def cyc(n, k=1, coeff=1):
    """coeff * zeta_n^k."""
    return Cyclotomic.from_powers(n, {k: coeff})


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


# -- the quotient group H/K ----------------------------------------------------


def quotient(H, K):
    """Quotient group H/K with its projection map.

    Returns (Q, proj) where Q is a FiniteGroup on coset indices and proj
    maps each element of H to its coset index.  Raises NotNormal.
    """
    G = H.parent
    if not K.members <= H.members:
        raise NotSubgroup("K is not contained in H")
    if not is_normal(K, H):
        raise NotNormal("K is not normal in H")
    reps = right_transversal(K, H)
    proj = {}
    for i, r in enumerate(reps):
        for k in K.members:
            proj[G.mul(k, r)] = i
    n = len(reps)
    table = np.empty((n, n), dtype=np.int32)
    for i, a in enumerate(reps):
        for j, b in enumerate(reps):
            table[i, j] = proj[G.mul(a, b)]
    Q = FiniteGroup(table, labels=[G.label(r) for r in reps])
    return Q, proj


def is_cyclic(Q):
    abelian = np.array_equal(Q.table, Q.table.T)
    return abelian and max(Q.element_orders) == Q.order


def coset_log(H, K, t=1):
    """{h: t * e mod [H:K]} for every h in H with Kh = K g^e, where g is
    the smallest element of H whose coset generates H/K; None when H/K is
    not cyclic."""
    Q, proj = quotient(H, K)
    c = Q.order
    if not is_cyclic(Q):
        return None
    gen_q = next(proj[h] for h in sorted(H.members) if Q.element_orders[proj[h]] == c)
    log_q = {0: 0}
    x, e = gen_q, 1
    while x != 0:
        log_q[x] = e * t % c
        x = Q.mul(x, gen_q)
        e += 1
    return {h: log_q[proj[h]] for h in H.members}


def is_shoda_pair(G, H, K):
    """K normal in H, H/K cyclic, and for every g outside H some
    commutator [h, g] with h in H lies in H but not in K; one commutator
    per (g, h)."""
    if not (K.members <= H.members and is_normal(K, H)):
        return False
    if not is_cyclic(quotient(H, K)[0]):
        return False
    for g in set(range(G.order)) - H.members:
        comms = {commutator(G, h, g) for h in H.members}
        if not comms & (H.members - K.members):
            return False
    return True


def commutator(G, a, b):
    """a^-1 b^-1 a b, one product at a time."""
    return G.mul(G.mul(G.mul(int(G.inv[a]), int(G.inv[b])), a), b)


def normal_closure(S, within):
    """Smallest subgroup of `within` containing S and normal in it: close
    again after each conjugate of a current generator by a generator of
    `within` that falls outside, until none does."""
    G = S.parent
    gens = list(S.gens)
    current = subgroup_closure(G, gens)
    changed = True
    while changed:
        changed = False
        for x in list(current.gens):
            for w in within.gens:
                c = G.conj(x, w)
                if c not in current.members:
                    gens.append(c)
                    current = subgroup_closure(G, gens)
                    changed = True
    return current


def minimal_normal_overgroups(H, K):
    """Minimal normal subgroups of H/K, lifted to H."""
    G = H.parent
    if H.members == K.members:
        return []
    Q, proj = quotient(H, K)
    closures = {}
    for q in range(1, Q.order):
        N = normal_closure(subgroup_closure(Q, [q]), Q.whole())
        closures[q] = N.members
    mins = []
    for q, mem in closures.items():
        if not any(other < mem for other in closures.values()):
            if mem not in mins:
                mins.append(mem)
    out = []
    for mem in mins:
        lifted = {g for g in H.members if proj[g] in mem}
        out.append(Subgroup(G, frozenset(lifted)))
    out.sort(key=lambda S: (S.order, S.sorted_members))
    return out


# -- the idempotents epsilon(H, K) and e(N, H, K) --------------------------------


def epsilon(H, K):
    """The product of (hat(K) - hat(L)) over the minimal normal subgroups
    L of H properly containing K; hat(K) when H = K."""
    hk = hat(K)
    out = hk
    for L in minimal_normal_overgroups(H, K):
        out = out * (hk - hat(L))
    return out


def e_sum_conjugates(N, H, K):
    """Sum of the distinct N-conjugates of epsilon(H, K)."""
    eps = epsilon(H, K)
    return sum({eps.conj(g) for g in N.members}, QGElement.zero(H.parent))


# -- QG elements as {index: Fraction} dicts --------------------------------------


def as_dict(a):
    """The coefficients of a QGElement as a {index: Fraction} dict."""
    return {g: a.coeff(g) for g in a.support}


def add(a, b):
    out = dict(a)
    for g, q in b.items():
        out[g] = out.get(g, Fraction(0)) + q
    return {g: q for g, q in out.items() if q}


def conj(G, a, g):
    """g^-1 * a * g."""
    t = G.table
    gi = int(G.inv[g])
    return {int(t[t[gi, x], g]): q for x, q in a.items()}


def mul(G, a, b):
    """Convolution product, one Fraction product per pair of support
    elements."""
    acc = {}
    for g, cg in a.items():
        row = G.table[g]
        for h, ch in b.items():
            k = int(row[h])
            acc[k] = acc.get(k, 0) + cg * ch
    return {k: v for k, v in acc.items() if v}


def minimal_polynomial(G, a):
    """Monic minimal polynomial coefficients c_0..c_d (c_d = 1) of `a`, by
    Gaussian elimination over Fractions on the powers of `a`, and the
    powers a^0..a^(d-1)."""
    basis = []  # (pivot, vec dict, combo list)
    powers = []
    power = {0: Fraction(1)}
    for d in range(G.order + 1):
        vec = dict(power)
        combo = [Fraction(0)] * d + [Fraction(1)]
        for pivot, bvec, bcombo in basis:
            q = vec.get(pivot)
            if q:
                f = q / bvec[pivot]
                for g, val in bvec.items():
                    s = vec.get(g, Fraction(0)) - f * val
                    if s:
                        vec[g] = s
                    else:
                        vec.pop(g, None)
                for i, val in enumerate(bcombo):
                    combo[i] -= f * val
        if not vec:
            return combo, powers
        basis.append((min(vec), vec, combo))
        powers.append(power)
        power = mul(G, power, a)
    raise AssertionError("a minimal polynomial has degree at most |G|")


def inverse(G, a):
    """a^-1 = -(c_1 + c_2 a + ... + a^(d-1)) / c_0 from the minimal
    polynomial; NotInvertible for zero and for zero divisors."""
    if not a:
        raise NotInvertible("zero has no inverse")
    c, powers = minimal_polynomial(G, a)
    if not c[0]:
        raise NotInvertible("element is a zero divisor")
    out = {}
    for ci, power in zip(c[1:], powers):
        out = add(out, {g: ci * q for g, q in power.items()})
    return {g: -q / c[0] for g, q in out.items()}


# -- the center degree by elimination -------------------------------------------


def integer_rank(rows):
    """Rank over Q of a list of integer rows (Bareiss fraction-free
    elimination)."""
    rows = [list(r) for r in rows if any(r)]
    rank = 0
    ncols = len(rows[0]) if rows else 0
    col = 0
    prev_pivot = 1
    while rows and col < ncols:
        piv = next((i for i in range(rank, len(rows)) if rows[i][col]), None)
        if piv is None:
            col += 1
            continue
        rows[rank], rows[piv] = rows[piv], rows[rank]
        top = rows[rank]
        p = top[col]
        for i in range(rank + 1, len(rows)):
            # Every row below the pivot takes the Bareiss step, also one
            # whose pivot-column entry is 0: skipping its scaling by p would
            # make the later divisions by prev_pivot inexact.
            r = rows[i]
            q = r[col]
            for j in range(col, ncols):
                r[j] = (r[j] * p - q * top[j]) // prev_pivot
        # a row that has become zero stays zero: drop it
        rows[rank + 1 :] = [r for r in rows[rank + 1 :] if any(r)]
        prev_pivot = p
        rank += 1
        col += 1
        if rank == len(rows):
            break
    return rank


def center_component_dim(e):
    """dim_Q of Z(QG) e: the rank of the products of e with the sums of
    the `conjugacy_classes`, a Q-basis of Z(QG)."""
    G = e.group
    sums = [QGElement(G, dict.fromkeys(cl, 1)) for cl in conjugacy_classes(G)[0]]
    # each row is a positive multiple of the product, which keeps the rank;
    # tolist() gives Python ints, which cannot overflow
    return integer_rank(qg_mul(cs, e).vec.tolist() for cs in sums)


# -- characters and idempotents -----------------------------------------------


def trace_to_q(x):
    """Trace of x from Q(zeta_n) down to Q, summed over the Galois group."""
    total = Cyclotomic.zero(x.n)
    for sigma in galois_group(x.n):
        total = total + sigma(x)
    q = total.as_rational()
    assert q is not None
    return q


def character_exponents(G, H, K):
    """{h: k} for a faithful linear character of H/K sending h to
    zeta_n ** k, n = [H:K]."""
    n = H.order // K.order
    for g in sorted(H.members):
        coset, x, k = {}, 0, 0
        while k < n:
            for y in K.members:
                coset[G.mul(y, x)] = k
            x = G.mul(x, g)
            k += 1
        if len(coset) == H.order:
            return coset
    raise AssertionError("H/K is not cyclic")


def induced_value(G, H, exponents, n, g):
    """Induced character at g: sum of lam(x g x^-1) over x in G with the
    conjugate in H, divided by |H|."""
    counts = {}
    for y in G.table[G.table[:, g], G.inv].tolist():
        if y in exponents:
            counts[exponents[y]] = counts.get(exponents[y], 0) + 1
    total = Cyclotomic.zero(n)
    for k, c in counts.items():
        total = total + cyc(n, k, Fraction(c, H.order))
    return total


def conjugacy_classes(G):
    """(classes, class_of): the ordinary classes of G as frozensets in
    order of least element, found by breadth-first search under
    conjugation by G's generators, and the class index of each element."""
    class_of = [-1] * G.order
    classes = []
    for g in range(G.order):
        if class_of[g] != -1:
            continue
        orbit = {g}
        frontier = [g]
        while frontier:
            x = frontier.pop()
            for s in G.generators:
                y = G.conj(x, s)
                if y not in orbit:
                    orbit.add(y)
                    frontier.append(y)
        for x in orbit:
            class_of[x] = len(classes)
        classes.append(frozenset(orbit))
    return classes, class_of


def class_values(G, H, K):
    """Induced character value at each ordinary class representative."""
    n = H.order // K.order
    exponents = character_exponents(G, H, K)
    return [
        (cl, induced_value(G, H, exponents, n, min(cl)))
        for cl in conjugacy_classes(G)[0]
    ]


def pci(G, H, K):
    """The idempotent as the Galois-orbit sum of the induced character,
    normalized by one squaring."""
    coeffs = {}
    for cl, v in class_values(G, H, K):
        t = trace_to_q(v)
        if t:
            for x in cl:
                coeffs[int(G.inv[x])] = t / H.order
    a = QGElement(G, coeffs)
    a2 = a * a
    g0 = a.support[0]
    r = a2.coeff(g0) / a.coeff(g0)
    assert r > 0 and a2 == a.scale(r), "induced character is not irreducible"
    return a.scale(1 / r)


def k_of_pair(G, H, K):
    """1 if every induced character value is real, else 2."""
    return 1 if all(v.is_real() for _, v in class_values(G, H, K)) else 2


def central_character_value(G, H, K, v):
    """The scalar by which v acts on the component of (H, K): the induced
    character at each support element times its coefficient, summed one
    field product at a time, over the character degree."""
    values = {}
    for cl, x in class_values(G, H, K):
        values.update(dict.fromkeys(cl, x))
    total = Cyclotomic.zero(H.order // K.order)
    for g in v.support:
        total = total + values[g] * v.coeff(g)
    return total / values[0]


# -- generalized Bass units by powers ----------------------------------------------


def gen_bass_unit(G, g, M, k, m, cap):
    """(n_b, b^n_b, its inverse) for b = 1 - hat(M) + u_{k,m}(g) hat(M) and
    n_b the least n with b^n a unit of ZG: one QG product per power, and
    the Fraction `inverse` of each integral power, kept when it is
    integral.  None when n_b > cap."""
    hm = hat(M)
    b = QGElement.one(G) - hm + qg_mul(bass_unit(G, BassSpec(g, k, m)).value, hm)
    p = b
    for n in range(1, cap + 1):
        if p.is_integral():
            inv = inverse(G, as_dict(p))
            if all(q.denominator == 1 for q in inv.values()):
                return n, p, QGElement(G, inv)
        p = qg_mul(p, b)
    return None
