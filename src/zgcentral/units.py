"""Units of the integral group ring: Bass units, generalized Bass units,
and the two averaging constructions that push central units of a subring
up into the center of ZG.

Every unit is a `Unit`: its value together with its integral inverse.
Bass units and generalized Bass units get their inverses in closed form,
u_{k,m}(g)^-1 = u_{k',m}(g^k) with k k' = 1 mod |g|, checked by an exact
product in Z[x]/(x^|g| - 1); no inverse is ever solved for.  One kernel,
`_cyclic_convolve`, multiplies in Z[x]/(x^d - 1): int64 rows by
`np.convolve`, rows of Python ints by one Kronecker-packed big-integer
product (`_packed_product`).  A Bass row stays int64 while k^m does.  A
generalized Bass unit for a normal M is computed in one ring, Z<gM> =
Z[x]/(x^e - 1) with e the order of gM: the rows of u_{k,m}(g) and its
inverse are folded once by residues mod e, n_b is walked there mod |M|,
and the exact power is taken there too.

The z-construction walks a strong inductive chain, one product of the
conjugates of z^|H_i| per level over the transversal of H_i in H_(i+1)
that the chain keeps; the c-construction walks a subnormal series, one
product of conjugates per transversal.  A level's conjugates commute, so
`_conjugate_product` multiplies each distinct conjugate once and raises
that product to the power m, the number of times each recurs over the
transversal; the z-construction folds z's power |H_i| into it, m |H_i|.
Value and inverse ride as one 2 x |G| block of numerators, so each
product and each squaring is one call of the QG product kernel,
`groupalgebra._convolve`, for both, taken only at the members of the
smallest subgroup that holds the level: S_i for the c-construction (S_i
is normal in S_(i+1)), H_(i+1) for the z-construction, by the row gather
when that is all of G.  The z-construction's split check, v - v e in
Z(1 - e), and the generalized Bass unit's product by hat(M) take value
and inverse in one call too.

Every unit check is `_verified_unit(u, S, ...)`, taken in ZS: the
supports by one mask gather, value * inverse = 1 at S's members only.
The input is checked in Z<g> or ZH.  The c-construction's output lies in
Z S_(top-1): it is checked central in ZG by the class gather and
multiplied only at S_(top-1)'s members; the z-construction's output is
checked in ZG; a series or chain with no level returns its input, checked
once.  `bass_central_units` is the generating set of Theorem 1: the
c-construction on the Bass units u_(k,m)(g), 1 < k < |g|/2, of every
subnormal cyclic subgroup <g>.

A p-adic log-embedding witness counts the multiplicative rank of a set
of central units in int64, and refuses a unit that is not central.  The
central character value is exact, (n, row, den): the unit's numerators
summed per conjugacy class, times the pair's induced-character class rows
(`LinearCharacter.class_rows`, on the power basis of Q(zeta_n)), over the
unit's denominator times [G:H]; one matrix product per pair takes it mod
p^N at every embedding.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import lru_cache, reduce
from math import gcd, lcm

import numpy as np

from .errors import (
    BadCongruence,
    IncompleteSet,
    InternalBoundExceeded,
    NotInvertible,
    NotNormal,
    NotSubnormal,
    PreconditionFailed,
    ZgError,
)
from .cyclotomic import factorize
from .groupalgebra import (
    QGElement,
    _combine,
    _convolve,
    _dtype,
    _element,
    _maxabs,
    hat,
    is_central,
)
from .groups import (
    _GATHER_BLOCK,
    _coset_walk,
    _mask,
    binary_power,
    conjugacy_partition,
    conjugate,
    coset_least,
    cyclic_subgroups,
    is_normal,
    right_transversal,
    subnormal_series,
)
from .shoda import is_complete


@dataclass(frozen=True)
class BassSpec:
    """Parameters (g, k, m) with k**m = 1 mod |g| and 1 <= k < |g|
    (k = 1 is allowed for any g, including the identity)."""

    g: int
    k: int
    m: int


def validate_bass_spec(G, spec):
    d = int(G.element_orders[spec.g])
    if spec.k < 1 or (spec.k >= d and spec.k != 1):
        raise BadCongruence(f"k={spec.k} out of range for |g|={d}")
    if spec.m < 1 or pow(spec.k, spec.m, d) != 1 % d:
        raise BadCongruence(f"{spec.k}^{spec.m} != 1 mod {d}")
    return d


def _packed_product(a, b):
    """The full product of two rows of Python ints, the coefficients of
    (sum a_i x^i)(sum b_j x^j), by one big-integer product (Kronecker
    substitution; Harvey, J. Symbolic Comput. 44 (2009)).  A row is read
    as the integer sum a_i 2^(Wi), its slots W = 8w bits wide, a whole
    number of bytes, with every |sum| of the product below 2^(W-1).  A
    slot is written as a_i + 2^(W-1) >= 0 by `int.to_bytes` and the bias
    taken off the packed integer at once; the product, plus the bias in
    each slot, is read back by `int.from_bytes` slot by slot.  All but the
    product is linear in the bits; CPython's Karatsuba takes the product,
    a squaring when a is b."""
    n = a.size + b.size - 1
    bound = _maxabs(a) * _maxabs(b) * min(a.size, b.size)
    if not bound:
        return np.zeros(n, dtype=object)
    w = bound.bit_length() // 8 + 1  # bound < 2^(8w - 1)
    half = 1 << (8 * w - 1)
    slot = bytes(w - 1) + b"\x80"  # half, little-endian

    def pack(row):
        raw = b"".join((x + half).to_bytes(w, "little") for x in row.tolist())
        return int.from_bytes(raw, "little") - int.from_bytes(slot * row.size, "little")

    pa = pack(a)
    full = pa * (pa if b is a else pack(b)) + int.from_bytes(slot * n, "little")
    raw = memoryview(full.to_bytes(n * w, "little"))
    return np.array(
        [int.from_bytes(raw[i : i + w], "little") - half for i in range(0, n * w, w)],
        dtype=object,
    )


def _cyclic_convolve(a, b, d):
    """a * b in Z[x]/(x^d - 1) for rows of length d and one dtype: one
    full product, its tail folded back onto the head.  int64 rows stay
    int64, by `np.convolve`; rows of Python ints stay exact, by
    `_packed_product`."""
    full = _packed_product(a, b) if a.dtype == object else np.convolve(a, b)
    out = full[:d].copy()
    out[: d - 1] += full[d:]
    return out


def _cyclic_power(a, n, d):
    """a^n in Z[x]/(x^d - 1) for n >= 1, by repeated squaring."""
    return binary_power(a, n, lambda x, y: _cyclic_convolve(x, y, d))


@lru_cache(maxsize=None)
def _bass_coeffs(d, k, m):
    """Coefficients of (1 + x + ... + x^(k-1))^m + ((1 - k^m)/d) (1 + ... +
    x^(d-1)) in Z[x]/(x^d - 1).  Every power of the geometric row has
    non-negative entries summing to k^j <= k^m, so the row is int64 while
    `_dtype(k**m)` allows it, else a row of Python ints.  The unit only
    depends on g through d."""
    geo = np.bincount(np.arange(k) % d, minlength=d).astype(_dtype(k**m))
    out = _cyclic_power(geo, m, d) + (1 - k**m) // d
    out.setflags(write=False)  # cached
    return out


@lru_cache(maxsize=None)
def _bass_inverse_coeffs(d, k, m):
    """Coefficients (along powers of x) of the inverse u_{k', m} taken at
    x^k, where k k' = 1 mod d; verified by an exact convolution."""
    k_inv = pow(k, -1, d) if d > 1 else 1
    row = _bass_coeffs(d, k_inv, m)
    v = np.zeros(d, dtype=row.dtype)
    v[(k * np.arange(d)) % d] = row
    u = _bass_coeffs(d, k, m)
    dtype = _dtype(_maxabs(u) * _maxabs(v) * d)
    prod = _cyclic_convolve(u.astype(dtype), v.astype(dtype), d)
    if prod[0] != 1 or prod[1:].any():
        raise NotInvertible("closed-form Bass inverse identity failed")
    v.setflags(write=False)  # cached
    return v


def _place_on_powers(G, powers, coeffs):
    """The element with coefficient coeffs[i] at powers[i]."""
    vec = np.zeros(G.order, dtype=coeffs.dtype)
    vec[powers] = coeffs
    return _element(G, 1, vec)


@dataclass
class Unit:
    """A unit of ZG with its integral inverse, the input and the output of
    the constructions; `provenance` and `inputs` say how it was built.  A
    Bass unit u_{k,m}(g) is central only in Z<g>; the constructions' output
    is central in ZG."""

    value: QGElement
    inverse: QGElement
    provenance: str
    inputs: dict = field(default_factory=dict)


def bass_unit(G, spec):
    """(1 + g + ... + g^(k-1))^m + ((1 - k^m)/|g|) (1 + g + ... + g^(|g|-1)),
    central in Z<g>, with its inverse u_{k', m}(g^k), k k' = 1 mod |g|."""
    d = validate_bass_spec(G, spec)
    powers = _coset_walk(G, np.zeros(1, dtype=np.intp), spec.g, d)
    return Unit(
        _place_on_powers(G, powers, _bass_coeffs(d, spec.k, spec.m)),
        _place_on_powers(G, powers, _bass_inverse_coeffs(d, spec.k, spec.m)),
        "Bass",
        {"spec": spec},
    )


def bass_specs_for(G, g):
    """Canonical sweep: every k in [1, |g|) coprime to |g|, with m the
    multiplicative order of k mod |g|."""
    d = int(G.element_orders[g])
    out = []
    for k in range(1, d):
        if gcd(k, d) != 1:
            continue
        m, kk = 1, k % d
        while kk != 1 % d:
            kk = kk * k % d
            m += 1
        out.append(BassSpec(g=g, k=k, m=m))
    return out or [BassSpec(g=g, k=1, m=1)]


# Most powers gen_bass_unit tries before it gives up.
GEN_BASS_CAP = 10**4


def gen_bass_unit(G, g, M, k, m):
    """The generalized Bass unit 1 - hat(M) + u_{k, m n_b}(g) hat(M) of ZG,
    with n_b the least n for which the n-th power of 1 - hat(M) +
    u_{k,m}(g) hat(M) is a unit of ZG.

    M is normal, so hat(M) is a central idempotent and that power is
    1 - hat(M) + u_{k,m}(g)^n hat(M), with u_{k,m}^n = u_{k,mn}; its
    inverse puts u_{k,m}(g)^-n in the same place.  All of it lives in
    one ring, Z<gM> = Z[x]/(x^e - 1) with e the order of gM in G/M:
    g^i hat(M) = g^j hat(M) exactly when i = j mod e, and e divides |g|,
    so folding a row of Z[x]/(x^|g| - 1) by residues mod e is a ring
    homomorphism.  The rows of u_{k,m}(g) and of its inverse are folded
    once; n_b is the least n at which the value's folded n-th power is
    (1, 0, ..., 0) mod |M|, walked in int64 mod |M|.  The inverse's folded
    power is that power's inverse, so it is 1 at the same n and is not
    walked.  The unit is the exact folded power placed on g^0 ... g^(e-1)
    times hat(M).
    """
    if not is_normal(M, G.whole()):
        raise NotNormal("M must be normal in G")
    spec = BassSpec(g=g, k=k, m=m)
    d = validate_bass_spec(G, spec)
    cycle, hm = _coset_walk(G, np.zeros(1, dtype=np.intp), g, d), hat(M)
    # g^i lies in M exactly when e, the order of gM in G/M, divides i
    e = d // int(np.count_nonzero(hm.vec[cycle]))
    # folded, and powered below, in Python ints: the sums have no int64 bound
    rows = [
        row.astype(object).reshape(d // e, e).sum(axis=0)
        for row in (_bass_coeffs(d, k, m), _bass_inverse_coeffs(d, k, m))
    ]
    # entries stay below |M| <= MAX_ORDER, so every product sum fits in int64
    step = (rows[0] % M.order).astype(np.int64)
    target = np.zeros(e, dtype=np.int64)
    target[0] = 1 % M.order
    power = step
    for n in range(1, GEN_BASS_CAP + 1):
        if np.array_equal(power, target):
            break
        power = _cyclic_convolve(power, step, e) % M.order
    else:
        raise InternalBoundExceeded(f"no unit power found within {GEN_BASS_CAP} steps")
    placed = np.zeros((2, G.order), dtype=object)
    placed[:, cycle[:e]] = [_cyclic_power(row, n, e) for row in rows]
    # 1 - hat(M) + x hat(M) on numerators over |M|, for value and inverse at once
    block = _convolve(G, placed, hm.vec) - hm.vec
    block[:, 0] += M.order
    value, inverse = (_element(G, M.order, row) for row in block)
    if not (value.is_integral() and inverse.is_integral()):
        raise ZgError("closed-form generalized Bass unit is not integral")
    return Unit(value, inverse, "generalized Bass", {"spec": spec, "M": M, "n_b": n})


# -- verification --------------------------------------------------------------


def _verified_unit(u, S, error, centre=None):
    """The Unit u once its value and carried inverse are integral and
    supported in S, the value is central in Z[centre] (in ZS when centre
    is None), and value * inverse = 1; otherwise raises `error`.  A
    construction's input is checked with PreconditionFailed, its output
    with ZgError.

    Every check is taken in ZS: the supports by one mask gather, and the
    product, which lies in ZS with both factors, at S's members only
    (`_convolve(G, A, B, cols)`): the table rows over the value's support,
    then |S| of their columns, so one matrix product of |S| columns in
    place of |G|."""
    G = S.parent
    cols, inside = S.sorted_members, _mask(S)
    for v, label in ((u.value, "u"), (u.inverse, "u inverse")):
        if v.vec[~inside].any():
            raise error(f"{label} is not supported inside the base subgroup")
        if not v.is_integral():
            raise error(f"{label} has non-integer coefficients")
    if not is_central(u.value, S if centre is None else centre):
        raise error("u is not central in the base subring")
    # cols[0] is the identity; the row gather when S is all of G
    prod = _convolve(G, u.value.vec, u.inverse.vec, cols)
    if prod[0] != 1 or prod[1:].any():
        raise error("u times its carried inverse is not 1")
    return u


# -- the z- and c-constructions ------------------------------------------------


def _integer_multiple_of(x, w):
    """The integer c with x = c w, for integer rows x and w, or None."""
    nonzero = np.flatnonzero(w)
    if not nonzero.size:
        return None if x.any() else 0
    # the only candidate; x = c w fails at that entry unless it divides
    c = int(x[nonzero[0]]) // int(w[nonzero[0]])
    dtype = _dtype(max(abs(c) * _maxabs(w), _maxabs(x)))
    return c if np.array_equal(x.astype(dtype), c * w.astype(dtype)) else None


def _conjugate_product(block, reps, ring, power=1):
    """The 2 x |G| block of (prod of value^t over reps)^power over (prod
    of inverse^t over reps)^power, for a block of value over inverse whose
    conjugates value^t commute and lie in Z[ring], each distinct one
    multiplied once.  Every product is one `_convolve` call for both
    sides, taken at ring's members only, or by the row gather when ring
    is all of G.

    The callers' conjugates commute.  In the c-construction value is
    central in ZS_i and S_i is normal in S_(i+1), so every value^t lies in
    the commutative ring Z(ZS_i).  In the z-construction value is central
    in ZH_i and equals s(1 - e_i) + value e_i for an integer s (the
    level-0 split, kept by every level).  Two conjugates by t, t' with
    t' t^-1 in the centralizer C_i of e_i, which normalizes H_i, both lie
    in Z(ZH_i^t); otherwise they sit over distinct, hence orthogonal,
    conjugates f, f' of e_i (the chain's level check), and s(1 - f) + a,
    s(1 - f') + b with a = f a f, b = f' b f' commute, since ab = ba = 0.

    value^t depends only on the right coset of value's stabilizer F >= S
    in which t lies, S the subgroup that `reps` is a right transversal of,
    so each distinct conjugate occurs exactly m = [F:S] times and the
    product over reps is the product of the distinct conjugates to the
    m-th power: one product per distinct conjugate but the first, and
    O(log(m power)) for the power, in place of len(reps) - 1.  The
    inverse's stabilizer is F too, so it is taken at the same
    representatives, and in a commutative ring the inverse of the product
    is the product of the inverses.  Each value^t lies in Z[ring] (S_i is
    normal in S_(i+1), H_i^t lies in H_(i+1)): it is keyed by the tuple of
    its |ring| coefficients there, gathered in blocks of _GATHER_BLOCK."""
    G = ring.parent
    members = ring.sorted_members
    seen = {}  # a distinct conjugate's coefficients -> [a rep giving it, multiplicity]
    ts = np.asarray(reps, dtype=np.intp)
    step = max(1, _GATHER_BLOCK // members.size)
    for j in range(0, ts.size, step):
        keys = block[0].take(conjugate(G, members, G.inv[ts[j : j + step], None]))
        for key, rep in zip(map(tuple, keys.tolist()), ts[j : j + step].tolist()):
            seen.setdefault(key, [rep, 0])[1] += 1
    counts = {m for _, m in seen.values()}
    if len(counts) != 1:
        raise ZgError("distinct conjugates occur unequally often over the transversal")
    exponent = counts.pop() * power
    firsts = np.array([rep for rep, _ in seen.values()], dtype=np.intp)

    def product(x, y):
        at = _convolve(G, x, y, members)
        out = np.zeros((2, G.order), dtype=at.dtype)
        out[:, members] = at
        return out

    # block^t, at y, is block at t y t^-1
    conjugates = [block[:, idx] for idx in conjugate(G, None, G.inv[firsts])]
    return binary_power(reduce(product, conjugates), exponent, product)


def z_central_unit(u, pair):
    """Push a Unit central in Z[pair.H] up the pair's strong inductive
    chain: z_(i+1) is the product of the conjugates of z_i^|H_i| over the
    chain's transversal of H_i in H_(i+1).  The result is a verified
    central Unit of ZG."""
    H = pair.H
    G = H.parent
    _verified_unit(u, H, PreconditionFailed)
    # v - v e = c (1 - e) on numerators over e's denominator, at H's
    # members, which hold both: one product for value and inverse
    eps, cols = pair.lam.epsilon, H.sorted_members
    block = np.stack((u.value.vec, u.inverse.vec))
    one_minus = -eps.vec[cols]
    one_minus[0] += eps.den  # cols[0] is the identity
    split = _combine([(eps.den, block[:, cols]), (-1, _convolve(G, block, eps.vec, cols))])
    for x, label in zip(split, ("u", "u inverse")):
        if _integer_multiple_of(x, one_minus) is None:
            raise PreconditionFailed(f"{label} does not split as Z(1-e) + (subring)e")
    inputs = {"pair": pair, "base_support": u.value.support}
    steps, transversals = pair.chain.steps, pair.chain.transversals
    if not transversals:  # H = G: the input check was the check in ZG
        return Unit(u.value, u.inverse, "z-construction", inputs)
    # the product of the conjugates of z^|H_i| is that of z's to the |H_i|-th
    # power, since they commute; (z^m)^-1 = (z^-1)^m.  z_i lies in ZH_i, so
    # its conjugates by H_(i+1) lie in ZH_(i+1).
    z = u.value
    for base, ring, reps in zip(steps, steps[1:], transversals):
        if not is_central(z, base):
            raise PreconditionFailed("intermediate value lost centrality")
        block = _conjugate_product(block, reps, ring, base.order)
        z = _element(G, 1, block[0])
    out = Unit(z, _element(G, 1, block[1]), "z-construction", inputs)
    return _verified_unit(out, G.whole(), ZgError)


def _check_transversal(reps, S, N):
    """Raise PreconditionFailed unless reps lists [N:S] members of N in
    distinct right cosets of S, the coset St named by its least member."""
    index = N.order // S.order
    if len(reps) != index or not set(reps) <= N.members:
        raise PreconditionFailed(f"a transversal needs {index} members of the next subgroup")
    if len(set(coset_least(S, reps).tolist())) != index:
        raise PreconditionFailed("two representatives lie in one right coset")


def c_central_unit(u, series, transversals=None):
    """Push a Unit central in the ring of the series' first subgroup up the
    series by transversal products; independent of the transversal
    choices.  Supplied transversals, one per step, are checked to be
    right transversals of S_i in S_(i+1).

    Level i multiplies conjugates of a value in ZS_i by members of
    S_(i+1), which lie in ZS_i since S_i is normal in S_(i+1); so its
    products are taken at S_i's members, and the output, in Z S_(top-1),
    is checked central in ZG but multiplied by its inverse only at S_(top-1)'s
    members.  A series with no level returns the input, checked in ZG."""
    steps = series.steps
    G = steps[0].parent
    _verified_unit(u, steps[0], PreconditionFailed)
    if transversals is not None and len(transversals) != len(steps) - 1:
        raise PreconditionFailed(f"need one transversal per step, {len(steps) - 1}")
    inputs = {"series_orders": [s.order for s in steps]}
    if len(steps) == 1:  # S_0 = G: the input check was the check in ZG
        return Unit(u.value, u.inverse, "c-construction", inputs)
    block = np.stack((u.value.vec, u.inverse.vec))
    for i in range(len(steps) - 1):
        if transversals is not None:
            reps = transversals[i]
            _check_transversal(reps, steps[i], steps[i + 1])
        else:
            reps = right_transversal(steps[i], steps[i + 1])
        block = _conjugate_product(block, reps, steps[i])
    out = Unit(_element(G, 1, block[0]), _element(G, 1, block[1]), "c-construction", inputs)
    return _verified_unit(out, steps[-2], ZgError, centre=G.whole())


def bass_central_units(G):
    """Theorem 1's central units as (BassSpec, Unit) pairs: the c-construction
    on the Bass unit of each spec of `bass_specs_for(G, g)` with 1 < k < |g|/2,
    for each subnormal <g>, g its least generator.  Under
    `check_cyclic_subnormal_hypothesis` they generate a subgroup of finite
    index in Z(U(ZG)).  The other specs add no rank (Bass, Topology 4
    (1966)): u_(1,m) = 1, u_(|g|-k,m)(g) is a torsion unit times
    u_(k,m)(g), and the c-construction, multiplicative since a level's
    conjugates commute, maps torsion to torsion."""
    out = []
    for g, H in cyclic_subgroups(G):
        d = G.element_orders[g]
        specs = [spec for spec in bass_specs_for(G, g) if 1 < spec.k and 2 * spec.k < d]
        if not specs:
            continue
        try:
            series = subnormal_series(H)
        except NotSubnormal:
            continue
        for spec in specs:
            out.append((spec, c_central_unit(bass_unit(G, spec), series)))
    return out


def random_right_transversal(H, within, rng):
    """A right transversal of H in `within` with random representatives."""
    G = H.parent
    reps = right_transversal(H, within)
    hs = H.sorted_members
    return [G.mul(hs[rng.randrange(hs.size)], t) for t in reps]


# -- p-adic rank witness ------------------------------------------------------


def _class_sums(v):
    """v's integer numerators summed over each ordinary class, as Python ints."""
    part = conjugacy_partition(v.group)
    sums = np.zeros(part.reps.size, dtype=object)
    np.add.at(sums, part.class_of, v.vec.astype(object))
    return sums


def central_character_value(G, pair, v):
    """The scalar omega by which v acts on the pair's simple component, the
    induced character chi summed against v's coefficients over chi(1) =
    [G:H], as (n, row, den): omega = row / den on the power basis of
    Q(zeta_n), with `row` an exact integer object array."""
    row = _class_sums(v) @ pair.lam.class_rows.astype(object)
    return pair.lam.order, row, v.den * pair.lam.transversal.size


def _witness_prime(e, order):
    """(p, N, zeta): p the least odd prime = 1 mod e not dividing `order`,
    N the largest integer below p with p^N < 2^31, and zeta mod p^N the
    Teichmüller lift of an element of order e mod p."""
    p = 1 + e
    while p % 2 == 0 or factorize(p) != {p: 1} or order % p == 0:
        p += e
    N = max(N for N in range(1, min(p, 31)) if p**N < 2**31)
    if N < 2:
        raise InternalBoundExceeded(f"least prime = 1 mod {e} is {p}, above 2^15.5")
    x = 2  # x^((p-1)/e) has order e unless some x^((p-1)/r), r | e prime, is 1
    while any(pow(x, (p - 1) // r, p) == 1 for r in factorize(e)):
        x += 1
    return p, N, pow(x, (p - 1) // e * p ** (N - 1), p**N)


def _mulmod(a, b, q):
    """a @ b mod q < 2^31 by a's 16-bit halves: every sum is below 2^62."""
    hi, lo = np.divmod(a, 1 << 16)
    return (((hi @ b) % q << 16) + lo @ b) % q


def _padic_log(x, p, N):
    """log(x^(p-1)) / p mod p^(N-1) entrywise, for int64 x prime to p: the
    series sum_{k<N} (-1)^(k+1) (y-1)^k / k mod p^N at y = x^(p-1), whose
    later terms vanish mod p^N since N < p."""
    q = p**N
    y = binary_power(x, p - 1, lambda a, b: a * b % q)
    log, t = 0, y - 1  # by Horner: t (1/1 - t (1/2 - t (1/3 - ...)))
    for k in range(N - 1, 0, -1):
        log = (pow(k, -1, q) - t * log) % q
    return t * log % q // p


def _padic_rank(A, p, M):
    """The number of Smith divisors below M = p^d of the int64 matrix A mod
    M, pivoting on an entry of least p-adic valuation."""
    rank, pv = 0, 1
    while pv < M and A.size:
        hits = np.argwhere(A // pv % p)  # the entries of valuation log_p(pv)
        if not hits.size:
            pv *= p
            continue
        i, j = hits[0]
        f = A[:, j] // pv * pow(int(A[i, j] // pv), -1, M) % M
        A = np.delete(np.delete((A - f[:, None] * A[i] % M) % M, i, 0), j, 1)
        rank += 1
    return rank


def log_rank_witness(G, units, pairs):
    """Rank of the subgroup generated by `units` modulo torsion: the rank
    mod p^(N-1) of the p-adic logs of each sigma_m(omega(u)) = class sums
    times class rows times V[i, j] = zeta_n^(i m_j), m_j the units mod n,
    over den [G:H].  A relation among the units is one among their logs,
    so it never exceeds the rank; it is exact at enough digits, since
    Leopoldt's conjecture holds for abelian fields (Brumer, 1967).

    The units must be central in ZG; PreconditionFailed names the first
    that is not."""
    if not is_complete(G, pairs):
        raise IncompleteSet("pair set does not cover the group algebra")
    for i, u in enumerate(units):
        if not is_central(u.value):
            raise PreconditionFailed(
                f"unit {i} ({u.provenance}) is not central in ZG; the witness "
                "counts central units only"
            )
    if not units:
        return 0
    e = lcm(*(pair.lam.order for pair in pairs))
    p, N, zeta = _witness_prime(e, G.order)
    q = p**N
    sums = [_class_sums(u.value) * pow(u.value.den, -1, q) % q for u in units]
    sums = np.array(sums, dtype=np.int64)
    blocks = []
    for pair in pairs:
        lam, n = pair.lam, pair.lam.order
        powers = np.array([pow(zeta, e // n * k, q) for k in range(n)], dtype=np.int64)
        ms = np.array([m for m in range(1, n + 1) if gcd(m, n) == 1])
        V = powers[np.outer(np.arange(ms.size), ms) % n]
        W = _mulmod(lam.class_rows % q, V, q) * pow(lam.transversal.size, -1, q) % q
        blocks.append(_mulmod(sums, W, q))
    x = np.hstack(blocks)
    if (x % p == 0).any():
        raise NotInvertible(f"a central character value is 0 mod {p}: not a unit")
    return _padic_rank(_padic_log(x, p, N), p, p ** (N - 1))
