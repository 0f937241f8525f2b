"""Exact group-algebra arithmetic over QG and ZG.

An element is (den, vec): the coefficient of group element g is
vec[g] / den for a positive integer den and a length-|G| integer vector,
with gcd(den, vec) = 1.  vec is int64 exactly when every entry is below
_INT64_BOUND in absolute value, else a vector of Python ints; each
operation picks its result's dtype from a bound on its operands
(`_dtype`).

The idempotents hat(S) and epsilon(H, K) are built directly as such
vectors; epsilon is one gather of Ramanujan sums at the discrete logs of
the cosets of K in H.  No orbit is searched: when S fixes a, a^t depends
only on the coset St, so the conjugates of a under N >= S are a^t over a
right transversal T of S in N (`shoda._climb`).  a^t is zero off
supp(a)^t, so <a, a^t> and the sum of the a^t are read at those
|T| |supp a| <= |N| positions alone (`conjugate_gram`); the unit
constructions read a^t at its ring's members (`units._conjugate_product`).

`QGElement` is a value: it has no arithmetic operators.  Products are
one convolution kernel (`_convolve`) on numerator rows, the only one in
the library, which gives a * b at all of G or only at chosen elements,
for one row or a stack of rows (the unit constructions carry value and
inverse as one 2 x |G| block).  It reads
the Cayley table by contiguous row takes, then one column take, along
the shorter of supp(a) and the chosen elements: rows g^-1 over a's
support, b gathered at g^-1 k, or rows k at the chosen elements, a
gathered at k h^-1 over b's support; one matrix product per block of
rows.  For a central idempotent e, z -> z e is an idempotent linear map
of the center Z(QG) onto Z(QGe), so dim_Q Z(QGe) is its trace, which
needs no elimination: on the basis of ordinary class sums its diagonal
is read off e's coefficients by one gather at the conjugacy
partition's `trace_index`, built with it once per group, summed
(`center_component_dim`).  A central e^2 is constant on classes, so
e^2 = e is checked at one element per class, never by a full product;
when e's support is longer than the list of class representatives, as
a pair's idempotent's usually is, that product takes the table rows at
the representatives.
"""

from __future__ import annotations

from fractions import Fraction
from math import gcd, lcm

import numpy as np

from .cyclotomic import ramanujan_row
from .errors import NotCentral, NotIdempotent
from .groups import _GATHER_BLOCK, conjugacy_partition, conjugate

# int64 results are used only while a bound on every entry stays below this
_INT64_BOUND = 2**62


def _dtype(bound):
    """int64 when `bound` bounds every entry and partial sum of a result
    below _INT64_BOUND, else object, for exact Python ints."""
    return np.int64 if bound < _INT64_BOUND else object


def _maxabs(vec):
    """The largest absolute value of an integer vector, as a Python int."""
    return int(np.abs(vec).max(initial=0))


def _combine(terms):
    """sum(s * x) over pairs (integer s, integer array x, one shape for
    all), exactly: in int64 when the bound sum(|s| * max|x|) allows it,
    else in Python ints."""
    live = [(s, x) for s, x in terms if s and x.any()]
    dtype = _dtype(sum(abs(s) * _maxabs(x) for s, x in live))
    out = np.zeros(terms[0][1].shape, dtype=dtype)
    for s, x in live:
        out += s * x.astype(dtype, copy=False)
    return out


def _element(group, den, vec):
    """The element vec / den (den > 0), brought into canonical form.  On
    Python ints the gcd starts from den, so every step but the first is
    a gcd with a small number, linear in the bits."""
    if vec.dtype == object:
        if not vec.any():
            return QGElement.zero(group)
        g = gcd(den, *vec.tolist())
    else:
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
    """An element of the rational group algebra QG, built from {g: q}: a
    value, compared and hashed, with no arithmetic of its own."""

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
        """vec / den for a length-|G| sequence or array of integers; an
        integer array whose entries are below _INT64_BOUND stays int64."""
        if isinstance(vec, np.ndarray) and vec.dtype.kind in "iu":
            if -_INT64_BOUND < int(vec.min()) and int(vec.max()) < _INT64_BOUND:
                return _element(group, den, vec.astype(np.int64))
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
        # canonical: int64 exactly when max|vec| < _INT64_BOUND, one dtype per value
        if self.vec.dtype == object:
            return hash((self.den, tuple(self.vec.tolist())))
        return hash((self.den, self.vec.tobytes()))

    def __repr__(self):
        support = self.support
        if not support:
            return "QG(0)"
        label = self.group.label
        parts = [f"{Fraction(int(self.vec[g]), self.den)}*[{label(g)}]" for g in support[:8]]
        more = "..." if len(support) > 8 else ""
        return "QG(" + " + ".join(parts) + more + ")"

    def conj(self, g):
        """g^-1 * self * g: its coefficient at y is self's at g y g^-1."""
        G = self.group
        return QGElement._of(G, self.den, self.vec[conjugate(G, None, G.inv[g])])


def conjugate_gram(a, ts):
    """(g, s) on a's numerators v, with v^t those of a^t for t = ts[j]:
    g[j] = <v, v^t>, and s() builds the sum of the v^t when asked.  v^t
    is v[x] at x^t = t^-1 x t, zero elsewhere, so both read only the
    |ts| x |supp v| positions x^t, two flat table takes: g is one take and
    one matrix-vector product, s one scatter-add; in int64 while
    max|v| max(max|v| |supp v|, |ts|) bounds every sum, else Python ints."""
    G = a.group
    ts = np.asarray(ts, dtype=np.intp)
    xs = np.flatnonzero(a.vec)
    top = _maxabs(a.vec[xs])
    v = a.vec.astype(_dtype(top * max(top * xs.size, ts.size)), copy=False)
    vx = v[xs]
    # x^t = (t^-1 x) t at flat table positions row |G| + column, in intp
    flat = G.table.ravel()
    at = flat.take(G.inv[ts].astype(np.intp)[:, None] * G.order + xs).astype(np.intp)
    at = flat.take(at * G.order + ts[:, None])

    def total():
        out = np.zeros(G.order, dtype=v.dtype)
        np.add.at(out, at.ravel(), np.tile(vx, ts.size))
        return out

    return v.take(at) @ vx, total


def _convolve(G, A, B, cols=None):
    """The numerators of a * b at the group elements `cols`, an index
    array, or at all of G when cols is None, for integer numerator rows A
    of a and B of b; a stack of rows A multiplies row by row with a stack
    B, or each with one row B.  cols of length |G| must be increasing, so
    all of G in order, and take the row gather as None does.  The Cayley
    table is read by contiguous row takes, in blocks of
    _GATHER_BLOCK // |G| rows, then one column take, along the shorter of
    supp(a) and cols:

    - (a b)[k] = sum over g in supp(a) of a[g] b[g^-1 k]: rows g^-1, then
      the columns cols, and one matrix product with a's coefficients at g;
    - (a b)[k] = sum over h in supp(b) of a[k h^-1] b[h]: rows k in cols,
      then the columns h^-1, and one matrix product with b's coefficients
      at h.

    Either sum has at most min(|supp a|, nnz b) nonzero terms, so one
    bound picks int64 when it allows, else Python ints."""
    if cols is not None and len(cols) == G.order:
        cols = None
    support = np.flatnonzero(A if A.ndim == 1 else A.any(axis=0))
    square = B is A  # a square scans its factor once
    terms = support.size if square else min(support.size, int(np.count_nonzero(B)))
    width = G.order if cols is None else len(cols)
    if not terms:
        return np.zeros(A.shape[:-1] + (width,), dtype=np.int64)
    top = _maxabs(A)
    dtype = _dtype(top * (top if square else _maxabs(B)) * terms)
    A = A.astype(dtype, copy=False)
    B = B.astype(dtype, copy=False)
    step = max(1, _GATHER_BLOCK // G.order)
    if support.size <= width:
        # each row of A as a 1 x |G| matrix, which meets the gathered rows
        # of B row by row for a stack B, or all at once for one row B
        A = A[..., None, :]
        acc = np.zeros(A.shape[:-1] + (width,), dtype=dtype)
        for start in range(0, support.size, step):
            g = support[start : start + step]
            rows = G.table.take(G.inv[g], 0)
            if cols is not None:
                rows = rows.take(cols, 1)
            acc += A.take(g, -1) @ B.take(rows, -1)
        return acc[..., 0, :]
    # b's coefficients on its support as a column, which meets the
    # gathered entries of A row by row for a stack, or one row A all at once
    hs = support if square else np.flatnonzero(B if B.ndim == 1 else B.any(axis=0))
    hs_inv = G.inv[hs]
    B = B.take(hs, -1)[..., None]
    acc = np.empty(A.shape[:-1] + (width,), dtype=dtype)
    for start in range(0, width, step):
        ks = cols[start : start + step]
        entries = G.table.take(ks, 0).take(hs_inv, 1)
        acc[..., start : start + len(ks)] = (A.take(entries, -1) @ B)[..., 0]
    return acc


# -- idempotent constructions ------------------------------------------------


def hat(S):
    """The averaging idempotent (1/|S|) * sum of the members of S."""
    vec = np.zeros(S.parent.order, dtype=np.int64)
    vec[S.sorted_members] = 1
    return QGElement._of(S.parent, S.order, vec)


def epsilon(H, K, log):
    """The idempotent of QH for the characters of H with kernel exactly K.

    With n = [H:K] and H/K cyclic, it is the lift to H of the idempotent
    of Q[H/K] for the faithful characters: its coefficient at h is
    c_n(log h) / |H|, where `log` is the discrete log of the coset Kh
    (`cyclic_coset_log`, or a faithful character's `coset_log`), -1
    outside H, and c_n the Ramanujan sum.  c_n(t x) = c_n(x) for t prime
    to n, so any generator of H/K gives the same idempotent.
    """
    # a trailing 0 so that log -1 (outside H) reads coefficient 0
    ram = np.append(ramanujan_row(H.order // K.order), 0)
    return _element(H.parent, H.order, ram[log])


def is_central(a, S=None):
    """Whether a commutes with every member of the subgroup S, or of G
    when S is None.  In G that holds exactly when a's numerators are
    constant on each ordinary class, one gather; in a proper S, when they
    equal their conjugates by the inverses of S's generators, one gather."""
    if S is None or S.order == a.group.order:
        return np.array_equal(a.vec[conjugacy_partition(a.group).least], a.vec)
    conj = a.vec[conjugate(a.group, None, np.array(S.gens, dtype=np.intp))]
    return bool((conj == a.vec).all())


# -- center ------------------------------------------------------------------


def center_component_dim(e):
    """dim_Q of the center of the simple component QGe, for a central
    idempotent e.

    e is checked central first, so e^2 is central too, and e^2 = e holds
    once it holds at the least element r of each ordinary class: one
    convolution at the class representatives, |supp e| table entries per
    class, not per group element.  z -> z e is then an idempotent linear
    map of Z(QG) whose image is Z(QGe), so that dimension is the map's
    trace.  On the basis of ordinary class sums, the diagonal entry at a
    class C is the coefficient of C e at r, the sum over g in C of e's
    coefficient at g^-1 r; over all classes that is one gather of length
    |G| at g^-1 least[g], the partition's `trace_index`, summed in int64
    while max|e| |G| allows it, else in Python ints.  When e's support is
    longer than the list of representatives, the square takes the table
    rows at those (`_convolve`).  Raises NotCentral or NotIdempotent, the
    latter also if the trace is not an integer, which no idempotent
    allows.
    """
    if not is_central(e):
        raise NotCentral("idempotent is not central")
    G = e.group
    part = conjugacy_partition(G)
    square = _convolve(G, e.vec, e.vec, part.reps)
    # e^2 = e on numerators is square = den * vec, compared without wrapping;
    # a central e takes its largest entry at a class representative
    at_reps = e.vec[part.reps]
    top = _maxabs(at_reps)
    if not np.array_equal(square, at_reps.astype(_dtype(top * e.den)) * e.den):
        raise NotIdempotent("element is not idempotent")
    diag = e.vec.take(part.trace_index)
    # |G| terms of at most max|e| each: in int64 while that bound allows,
    # else an exact sum of Python ints
    total = int(diag.astype(_dtype(top * G.order), copy=False).sum())
    trace, rest = divmod(total, e.den)
    if rest:
        raise NotIdempotent("multiplication by e on Z(QG) has a non-integral trace")
    return trace
