"""Sparse exact group-algebra arithmetic over QG and ZG.

Elements are sparse maps element-index -> Fraction with no stored zeros.
Products use the materialized Cayley table; an int64/numpy fast path covers
the common case of small numerators, with a big-integer fallback.
"""

from __future__ import annotations

from fractions import Fraction
from math import lcm

import numpy as np

from .errors import (
    GroupMismatch,
    NotCentral,
    NotIdempotent,
    NotInvertible,
    NotNormal,
)
from .groups import _GATHER_BLOCK, Subgroup, is_normal, minimal_normal_overgroups
from .linalg import integer_rank


class QGElement:
    """An element of the rational group algebra QG."""

    __slots__ = ("group", "coeffs")

    def __init__(self, group, coeffs):
        self.group = group
        self.coeffs = {int(k): Fraction(v) for k, v in coeffs.items() if v}

    # -- constructors --------------------------------------------------------

    @staticmethod
    def one(group):
        return QGElement(group, {0: 1})

    @staticmethod
    def zero(group):
        return QGElement(group, {})

    @staticmethod
    def element(group, g):
        return QGElement(group, {g: 1})

    # -- inspection ----------------------------------------------------------

    @property
    def support(self):
        return self.coeffs.keys()

    def is_zero(self):
        return not self.coeffs

    def is_integral(self):
        return all(q.denominator == 1 for q in self.coeffs.values())

    def augmentation(self):
        return sum(self.coeffs.values(), Fraction(0))

    def coeff(self, g):
        return self.coeffs.get(g, Fraction(0))

    def __eq__(self, other):
        if isinstance(other, QGElement):
            return self.group is other.group and self.coeffs == other.coeffs
        if other == 0:
            return not self.coeffs
        if other == 1:
            return self.coeffs == {0: Fraction(1)}
        return NotImplemented

    def __hash__(self):
        return hash(frozenset(self.coeffs.items()))

    def __repr__(self):
        if not self.coeffs:
            return "QG(0)"
        parts = [
            f"{q}*[{self.group.label(g)}]"
            for g, q in sorted(self.coeffs.items())[:8]
        ]
        more = "..." if len(self.coeffs) > 8 else ""
        return "QG(" + " + ".join(parts) + more + ")"

    # -- linear structure ----------------------------------------------------

    def __add__(self, other):
        other = self._coerce(other)
        out = dict(self.coeffs)
        for g, q in other.coeffs.items():
            s = out.get(g, Fraction(0)) + q
            if s:
                out[g] = s
            else:
                out.pop(g, None)
        return QGElement(self.group, out)

    __radd__ = __add__

    def __neg__(self):
        return QGElement(self.group, {g: -q for g, q in self.coeffs.items()})

    def __sub__(self, other):
        return self + (-self._coerce(other))

    def __rsub__(self, other):
        return self._coerce(other) + (-self)

    def scale(self, q):
        q = Fraction(q)
        if not q:
            return QGElement.zero(self.group)
        return QGElement(self.group, {g: c * q for g, c in self.coeffs.items()})

    def _coerce(self, other):
        if isinstance(other, QGElement):
            if other.group is not self.group:
                raise GroupMismatch("elements live over different groups")
            return other
        return QGElement(self.group, {0: Fraction(other)})

    # -- multiplicative structure --------------------------------------------

    def __mul__(self, other):
        if not isinstance(other, QGElement):
            return self.scale(other)
        return mul(self, other)

    def __rmul__(self, other):
        if not isinstance(other, QGElement):
            return self.scale(other)
        return NotImplemented

    def __pow__(self, k):
        if k < 0:
            return qg_inverse(self) ** (-k)
        out = QGElement.one(self.group)
        base = self
        while k:
            if k & 1:
                out = mul(out, base)
            base_needed = k >> 1
            if base_needed:
                base = mul(base, base)
            k = base_needed
        return out

    def conj(self, g):
        """g^-1 * self * g."""
        G = self.group
        t = G.table
        gi = int(G.inv[g])
        return QGElement(
            G, {int(t[t[gi, x], g]): q for x, q in self.coeffs.items()}
        )


class ZGElement(QGElement):
    """An element of the integral group ring ZG (checked at construction)."""

    def __init__(self, group, coeffs):
        super().__init__(group, coeffs)
        if not self.is_integral():
            raise ValueError("ZGElement requires integer coefficients")


def as_zg(a):
    """Downcast a QGElement with integer coefficients to ZGElement."""
    return ZGElement(a.group, a.coeffs)


_INT64_BOUND = 2**62


def _scaled_ints(a):
    den = lcm(*(q.denominator for q in a.coeffs.values())) if a.coeffs else 1
    keys = list(a.coeffs.keys())
    vals = [int(a.coeffs[g] * den) for g in keys]
    return den, keys, vals


def mul(a, b):
    """Exact convolution product in QG."""
    if not isinstance(a, QGElement) or not isinstance(b, QGElement):
        raise TypeError("mul expects QGElements")
    if a.group is not b.group:
        raise GroupMismatch("elements live over different groups")
    G = a.group
    if not a.coeffs or not b.coeffs:
        return QGElement.zero(G)
    da, ka, va = _scaled_ints(a)
    db, kb, vb = _scaled_ints(b)
    maxa = max(abs(v) for v in va)
    maxb = max(abs(v) for v in vb)
    den = da * db
    table = G.table
    if maxa * maxb * min(len(ka), len(kb)) < _INT64_BOUND:
        acc = np.zeros(G.order, dtype=np.int64)
        if len(ka) <= len(kb):
            idx = np.asarray(kb, dtype=np.int64)
            valarr = np.asarray(vb, dtype=np.int64)
            for g, cg in zip(ka, va):
                acc[table[g, idx]] += cg * valarr
        else:
            idx = np.asarray(ka, dtype=np.int64)
            valarr = np.asarray(va, dtype=np.int64)
            for h, ch in zip(kb, vb):
                acc[table[idx, h]] += ch * valarr
        nz = np.flatnonzero(acc)
        out = {int(i): Fraction(int(acc[i]), den) for i in nz}
        return QGElement(G, out)
    acc = {}
    if len(ka) <= len(kb):
        for g, cg in zip(ka, va):
            row = table[g]
            for h, ch in zip(kb, vb):
                k = int(row[h])
                acc[k] = acc.get(k, 0) + cg * ch
    else:
        col = table
        for h, ch in zip(kb, vb):
            for g, cg in zip(ka, va):
                k = int(col[g, h])
                acc[k] = acc.get(k, 0) + cg * ch
    return QGElement(G, {k: Fraction(v, den) for k, v in acc.items() if v})


def conj(a, g):
    return a.conj(g)


# -- idempotent constructions ------------------------------------------------


def hat(S):
    """The averaging idempotent (1/|S|) * sum of the members of S."""
    q = Fraction(1, S.order)
    return QGElement(S.parent, {g: q for g in S.members})


def epsilon(H, K):
    """hat(K) when H = K, else the product of (hat(K) - hat(L)) over the
    minimal normal subgroups L of H properly containing K."""
    if not K.members <= H.members:
        raise NotNormal("K is not contained in H")
    if not is_normal(K, H):
        raise NotNormal("K is not normal in H")
    hk = hat(K)
    if H.members == K.members:
        return hk
    out = QGElement.one(H.parent)
    for L in minimal_normal_overgroups(H, K):
        out = mul(out, hk - hat(L))
    return out


def conjugate_orbit(a, N):
    """The distinct conjugates of `a` under conjugation by N, BFS order."""
    seen = {a}
    order = [a]
    frontier = [a]
    gens = N.gens or [0]
    while frontier:
        x = frontier.pop()
        for g in gens:
            y = x.conj(g)
            if y not in seen:
                seen.add(y)
                order.append(y)
                frontier.append(y)
    return order


def e_sum_conjugates(N, H, K):
    """Sum of the distinct N-conjugates of epsilon(H, K)."""
    if not H.members <= N.members:
        raise NotNormal("H is not contained in the ambient subgroup")
    eps = epsilon(H, K)
    out = QGElement.zero(H.parent)
    for x in conjugate_orbit(eps, N):
        out = out + x
    return out


def is_idempotent(a):
    return mul(a, a) == a


def are_orthogonal(a, b):
    return mul(a, b).is_zero() and mul(b, a).is_zero()


def centralizer_of(a, within):
    """{g in `within` : g^-1 a g = a} as a Subgroup.

    Each distinct coefficient of `a` gets a small positive id (0 marks
    elements outside the support), so equal ids mean equal Fractions.  For
    a block of g at once, the ids at the conjugates g^-1 x g of the
    support X are compared with the ids at X.
    """
    G = a.group
    t = G.table
    ids = np.zeros(G.order, dtype=np.int32)
    id_of = {}
    for x, q in a.coeffs.items():
        ids[x] = id_of.setdefault(q, len(id_of) + 1)
    X = np.fromiter(a.coeffs, dtype=np.intp, count=len(a.coeffs))
    want = ids[X]
    W = np.array(within.sorted_members, dtype=np.intp)
    block = max(1, _GATHER_BLOCK // max(X.size, 1))
    mem = []
    for start in range(0, W.size, block):
        g = W[start : start + block, None]
        conj = t[t[G.inv[g], X], g]
        mem.extend(g[(ids[conj] == want).all(axis=1), 0].tolist())
    return Subgroup(G, mem)


def is_central(a):
    return all(a.conj(g) == a for g in a.group.generators)


# -- inversion ---------------------------------------------------------------


def minimal_polynomial(a, cap=None):
    """Monic minimal polynomial coefficients c_0..c_d (c_d = 1) of `a`."""
    G = a.group
    cap = G.order if cap is None else cap
    basis = []  # (pivot, vec dict, combo list)
    power = QGElement.one(G)
    for d in range(cap + 1):
        vec = dict(power.coeffs)
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
            return combo
        basis.append((min(vec), vec, combo))
        power = mul(power, a)
    raise NotInvertible("minimal polynomial search exceeded bound")


def qg_inverse(a):
    """Exact inverse in QG, found inside the subalgebra Q[a].

    Raises NotInvertible when `a` is zero or a zero divisor.
    """
    if a.is_zero():
        raise NotInvertible("zero has no inverse")
    c = minimal_polynomial(a)
    if not c[0]:
        raise NotInvertible("element is a zero divisor")
    # c0 + c1 a + ... + a^d = 0  =>  a^-1 = -(c1 + c2 a + ...)/c0
    G = a.group
    out = QGElement.zero(G)
    power = QGElement.one(G)
    for i in range(1, len(c)):
        if c[i]:
            out = out + power.scale(c[i])
        if i + 1 < len(c):
            power = mul(power, a)
    return out.scale(Fraction(-1, 1) / c[0])


def is_unit_of_zg(a):
    """True iff `a` has integer coefficients and an integral inverse."""
    if not a.is_integral():
        return False
    try:
        return qg_inverse(a).is_integral()
    except NotInvertible:
        return False


# -- center ------------------------------------------------------------------


def center_basis(G):
    """Ordinary class sums; a Q-basis of the center of QG."""
    from .groups import conjugacy_partition

    part = conjugacy_partition(G, "ordinary")
    return [QGElement(G, {g: 1 for g in cl}) for cl in part.classes]


def center_component_dim(e):
    """dim_Q of the center of the simple component cut out by `e`."""
    G = e.group
    if not is_central(e):
        raise NotCentral("idempotent is not central")
    if not is_idempotent(e):
        raise NotIdempotent("element is not idempotent")
    rows = []
    for cs in center_basis(G):
        prod = mul(cs, e)
        den = lcm(*(q.denominator for q in prod.coeffs.values())) if prod.coeffs else 1
        row = [0] * G.order
        for g, q in prod.coeffs.items():
            row[g] = int(q * den)
        rows.append(row)
    return integer_rank(rows)
