"""Brute-force reference implementations that the tests compare against,
and the corpus of groups they are compared on.

The character oracles use `Cyclotomic` objects and Galois sums throughout
and share no code with the integer character kernel in `zgcentral.shoda`:
each pair gets its own linear character, built from a generating coset of
H/K by walking powers.  The group-algebra oracles work on sparse
`{index: Fraction}` dicts with no stored zeros, the representation that
`zgcentral.groupalgebra` used before its `(den, vec)` elements.  The coset
oracles build H/K as a group of its own, with a projection map, the way
`zgcentral` did before it read the cosets off G's table, and `epsilon`
is the product over the minimal normal overgroups of K found in that
quotient, the formula `zgcentral` used before its Ramanujan-sum gather.
"""

import json
from fractions import Fraction
from importlib import resources

import numpy as np

from zgcentral.cli import parse_pairs_file
from zgcentral.cyclotomic import Cyclotomic, cyc, galois_group
from zgcentral.errors import NotInvertible, NotNormal, NotSubgroup
from zgcentral.groupalgebra import QGElement, hat
from zgcentral.groups import (
    FiniteGroup,
    Subgroup,
    conjugacy_partition,
    is_normal,
    normal_closure,
    right_transversal,
    subgroup_closure,
)

# catalog groups whose every Shoda pair is checked against the oracles
CORPUS = ("S4", "D12", "Q16", "C24", "C60", "D25", "E25")


def paper9_pairs(G):
    """(H, K) of the nine pairs in paper9.json, in the order-1000 group G."""
    with resources.files("zgcentral.data").joinpath("paper9.json").open() as fh:
        return [(H, K) for H, K, _ in parse_pairs_file(G, json.load(fh))]


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
    return Q.is_abelian() and max(Q.element_orders) == Q.order


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
    commutator [h, g] with h in H lies in H but not in K."""
    if not (K.members <= H.members and is_normal(K, H)):
        return False
    if not is_cyclic(quotient(H, K)[0]):
        return False
    for g in set(range(G.order)) - H.members:
        comms = {G.commutator(h, g) for h in H.members}
        if not comms & (H.members - K.members):
            return False
    return True


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
    Gaussian elimination over Fractions on the powers of `a`."""
    basis = []  # (pivot, vec dict, combo list)
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
            return combo
        basis.append((min(vec), vec, combo))
        power = mul(G, power, a)
    raise AssertionError("a minimal polynomial has degree at most |G|")


def inverse(G, a):
    """a^-1 = -(c_1 + c_2 a + ... + a^(d-1)) / c_0 from the minimal
    polynomial; NotInvertible for zero and for zero divisors."""
    if not a:
        raise NotInvertible("zero has no inverse")
    c = minimal_polynomial(G, a)
    if not c[0]:
        raise NotInvertible("element is a zero divisor")
    out, power = {}, {0: Fraction(1)}
    for ci in c[1:]:
        out = add(out, {g: ci * q for g, q in power.items()})
        power = mul(G, power, a)
    return {g: -q / c[0] for g, q in out.items()}


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


def class_values(G, H, K):
    """Induced character value at each ordinary class representative."""
    n = H.order // K.order
    exponents = character_exponents(G, H, K)
    return [
        (cl, induced_value(G, H, exponents, n, min(cl)))
        for cl in conjugacy_partition(G, "ordinary").classes
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
