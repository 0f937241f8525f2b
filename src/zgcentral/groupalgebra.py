"""Exact group-algebra arithmetic over QG and ZG.

An element is (den, vec): the coefficient of group element g is
vec[g] / den for a positive integer den and a length-|G| integer vector,
with gcd(den, vec) = 1.  vec is int64 exactly when every entry is below
_INT64_BOUND in absolute value, else a vector of Python ints; each
operation picks its result's dtype from a bound on its operands.

The idempotents hat(S) and epsilon(H, K) are built directly as such
vectors; epsilon is one gather of Ramanujan sums at the discrete logs of
the cosets of K in H.

For a central idempotent e, z -> z e is an idempotent linear map of the
center Z(QG) onto Z(QGe), so dim_Q Z(QGe) is its trace, which needs no
elimination: on the basis of ordinary class sums its diagonal is read
off e's coefficients by one gather (`center_component_dim`).
"""

from __future__ import annotations

from fractions import Fraction
from math import gcd, lcm

import numpy as np

from .cyclotomic import ramanujan_row
from .errors import (
    GroupMismatch,
    NotCentral,
    NotIdempotent,
    NotShodaPair,
)
from .groups import _GATHER_BLOCK, Subgroup, conjugacy_partition, cyclic_coset_log

# int64 results are used only while a bound on every entry stays below this
_INT64_BOUND = 2**62


def _maxabs(vec):
    """The largest absolute value of an integer vector, as a Python int."""
    return int(np.abs(vec).max(initial=0))


def _combine(terms):
    """sum(s * x) over pairs (integer s, integer vector x), exactly: in
    int64 when the bound sum(|s| * max|x|) allows it, else in Python ints."""
    live = [(s, x) for s, x in terms if s and x.any()]
    bound = sum(abs(s) * _maxabs(x) for s, x in live)
    dtype = np.int64 if bound < _INT64_BOUND else object
    out = np.zeros(terms[0][1].size, dtype=dtype)
    for s, x in live:
        out += s * x.astype(dtype, copy=False)
    return out


def _element(group, den, vec):
    """The element vec / den (den > 0), brought into canonical form."""
    c = int(np.gcd.reduce(vec))
    if not c:
        return QGElement.zero(group)
    g = gcd(den, c)
    if g > 1:
        den //= g
        vec = vec // g
    if vec.dtype == object and _maxabs(vec) < _INT64_BOUND:
        vec = vec.astype(np.int64)
    return QGElement._of(group, den, vec)


class QGElement:
    """An element of the rational group algebra QG, built from {g: q}."""

    __slots__ = ("group", "den", "vec")

    def __init__(self, group, coeffs):
        coeffs = {int(g): Fraction(q) for g, q in coeffs.items() if q}
        den = lcm(*(q.denominator for q in coeffs.values()))
        vec = np.zeros(group.order, dtype=object)
        for g, q in coeffs.items():
            vec[g] = q.numerator * (den // q.denominator)
        e = _element(group, den, vec)
        self.group, self.den, self.vec = group, e.den, e.vec

    @classmethod
    def _of(cls, group, den, vec):
        """Wrap a pair already in canonical form."""
        self = object.__new__(cls)
        vec.setflags(write=False)
        self.group, self.den, self.vec = group, den, vec
        return self

    # -- constructors --------------------------------------------------------

    @staticmethod
    def from_vec(group, vec, den=1):
        """vec / den for a length-|G| sequence or array of integers."""
        return _element(group, den, np.array([int(v) for v in vec], dtype=object))

    @staticmethod
    def one(group):
        return QGElement.element(group, 0)

    @staticmethod
    def zero(group):
        return QGElement._of(group, 1, np.zeros(group.order, dtype=np.int64))

    @staticmethod
    def element(group, g):
        vec = np.zeros(group.order, dtype=np.int64)
        vec[g] = 1
        return QGElement._of(group, 1, vec)

    # -- inspection ----------------------------------------------------------

    @property
    def support(self):
        return np.flatnonzero(self.vec).tolist()

    def is_zero(self):
        return not self.vec.any()

    def is_integral(self):
        return self.den == 1

    def augmentation(self):
        return Fraction(sum(self.vec.tolist()), self.den)

    def coeff(self, g):
        return Fraction(int(self.vec[g]), self.den)

    def __eq__(self, other):
        if isinstance(other, QGElement):
            return (
                self.group is other.group
                and self.den == other.den
                and np.array_equal(self.vec, other.vec)
            )
        if other == 0:
            return self.is_zero()
        if other == 1:
            return self == QGElement.one(self.group)
        return NotImplemented

    def __hash__(self):
        return hash((self.den, tuple(self.vec.tolist())))

    def __repr__(self):
        support = self.support
        if not support:
            return "QG(0)"
        parts = [f"{self.coeff(g)}*[{self.group.label(g)}]" for g in support[:8]]
        more = "..." if len(support) > 8 else ""
        return "QG(" + " + ".join(parts) + more + ")"

    # -- linear structure ----------------------------------------------------

    def __add__(self, other):
        other = self._coerce(other)
        den = lcm(self.den, other.den)
        vec = _combine([(den // self.den, self.vec), (den // other.den, other.vec)])
        return _element(self.group, den, vec)

    __radd__ = __add__

    def __neg__(self):
        return QGElement._of(self.group, self.den, -self.vec)

    def __sub__(self, other):
        return self + (-self._coerce(other))

    def __rsub__(self, other):
        return self._coerce(other) + (-self)

    def scale(self, q):
        q = Fraction(q)
        vec = _combine([(q.numerator, self.vec)])
        return _element(self.group, self.den * q.denominator, vec)

    def _coerce(self, other):
        if isinstance(other, QGElement):
            if other.group is not self.group:
                raise GroupMismatch("elements live over different groups")
            return other
        return QGElement(self.group, {0: other})

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
            raise ValueError("negative power: QG has no inversion; use Unit.inverse")
        out, base = QGElement.one(self.group), self
        while k:
            if k & 1:
                out = mul(out, base)
            k >>= 1
            if k:
                base = mul(base, base)
        return out

    def conj(self, g):
        """g^-1 * self * g: its coefficient at y is self's at g y g^-1."""
        G = self.group
        t = G.table
        return QGElement._of(G, self.den, self.vec[t[t[g], G.inv[g]]])


def mul(a, b):
    """Exact convolution product in QG, over the support of `a` in blocks
    of rows of the Cayley table."""
    if not isinstance(a, QGElement) or not isinstance(b, QGElement):
        raise TypeError("mul expects QGElements")
    if a.group is not b.group:
        raise GroupMismatch("elements live over different groups")
    G = a.group
    support = np.flatnonzero(a.vec)
    terms = min(support.size, int(np.count_nonzero(b.vec)))
    if not terms:
        return QGElement.zero(G)
    bound = _maxabs(a.vec) * _maxabs(b.vec) * terms
    dtype = np.int64 if bound < _INT64_BOUND else object
    A = a.vec.astype(dtype, copy=False)
    B = b.vec.astype(dtype, copy=False)
    acc = np.zeros(G.order, dtype=dtype)
    block = max(1, _GATHER_BLOCK // G.order)
    for start in range(0, support.size, block):
        g = support[start : start + block]
        # (a b)[k] is the sum over g of a[g] * b[g^-1 k]
        acc += (A[g, None] * B[G.table[G.inv[g]]]).sum(axis=0)
    return _element(G, a.den * b.den, acc)


# -- idempotent constructions ------------------------------------------------


def hat(S):
    """The averaging idempotent (1/|S|) * sum of the members of S."""
    vec = np.zeros(S.parent.order, dtype=np.int64)
    vec[list(S.members)] = 1
    return QGElement._of(S.parent, S.order, vec)


def epsilon(H, K):
    """The idempotent of QH for the characters of H with kernel exactly K.

    With n = [H:K] and H/K cyclic, it is the lift to H of the idempotent
    of Q[H/K] for the faithful characters: its coefficient at h is
    c_n(log h) / |H|, where log h is the discrete log of the coset Kh
    (`cyclic_coset_log`) and c_n the Ramanujan sum.  Raises NotSubgroup
    or NotNormal unless K is normal in H, NotShodaPair when H/K is not
    cyclic.
    """
    log = cyclic_coset_log(H, K)
    if log is None:
        raise NotShodaPair("H/K is not cyclic")
    # a trailing 0 so that log -1 (outside H) reads coefficient 0
    ram = np.append(ramanujan_row(H.order // K.order), 0)
    return _element(H.parent, H.order, ram[log])


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


def is_idempotent(a):
    return mul(a, a) == a


def centralizer_of(a, within):
    """{g in `within` : g^-1 a g = a} as a Subgroup.

    For a block of g at once, the coefficients at the conjugates g^-1 x g
    of the support X are compared with those at X; conjugation permutes
    the group, so agreeing on X means agreeing everywhere.
    """
    G = a.group
    t = G.table
    X = np.flatnonzero(a.vec)
    want = a.vec[X]
    W = np.array(within.sorted_members, dtype=np.intp)
    block = max(1, _GATHER_BLOCK // max(X.size, 1))
    mem = []
    for start in range(0, W.size, block):
        g = W[start : start + block, None]
        conj = t[t[G.inv[g], X], g]
        mem.extend(g[(a.vec[conj] == want).all(axis=1), 0].tolist())
    return Subgroup(G, mem)


def is_central(a):
    return all(a.conj(g) == a for g in a.group.generators)


# -- center ------------------------------------------------------------------


def center_component_dim(e):
    """dim_Q of the center of the simple component QGe, for a central
    idempotent e.

    z -> z e is an idempotent linear map of Z(QG) whose image is Z(QGe),
    so that dimension is the map's trace.  On the basis of ordinary class
    sums, the diagonal entry at a class C is the coefficient of C e at
    C's least element r, the sum over g in C of e's coefficient at
    g^-1 r; over all classes that is one gather of length |G|.  Raises
    NotCentral or NotIdempotent, the latter also if the trace is not an
    integer, which no idempotent allows.
    """
    if not is_central(e):
        raise NotCentral("idempotent is not central")
    if not is_idempotent(e):
        raise NotIdempotent("element is not idempotent")
    G = e.group
    part = conjugacy_partition(G)
    # e's coefficient at g^-1 r for each g, r the least element of g's class
    diag = e.vec[G.table[G.inv, part.reps[part.class_of]]]
    # summed in Python ints: an object vector's entries have no bound
    trace, rest = divmod(sum(diag.tolist()), e.den)
    if rest:
        raise NotIdempotent("multiplication by e on Z(QG) has a non-integral trace")
    return trace
