"""Shoda-pair detection, classification, and primitive central idempotents.

A pair of subgroups (H, K) with K normal in H and H/K cyclic induces an
irreducible character of G exactly when the Shoda condition holds; such
pairs are classified here as plain, strong, or generalized strong (the
latter witnessed by an inductive chain of subgroups from H up to G), and
each equivalence class of pairs yields one primitive central idempotent
of the rational group algebra.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction

from .cyclotomic import Cyclotomic, cyc, euler_phi, trace_to_q
from .errors import (
    NotAGroup,
    NotNormal,
    NotShodaPair,
    SearchBoundExceeded,
)
from .groupalgebra import (
    QGElement,
    centralizer_of,
    conjugate_orbit,
    epsilon,
    mul,
)
from .groups import (
    Subgroup,
    is_normal,
    quotient,
    right_transversal,
    subgroup_closure,
)


@dataclass(frozen=True)
class LinearCharacter:
    """A faithful linear character of H/K, lifted to H.

    `coset_log` maps each element of H to the exponent of the chosen
    generator of H/K representing its coset; the character value at h is
    generator_image ** coset_log[h].
    """

    H: Subgroup
    K: Subgroup
    order: int  # [H:K]
    generator_image: Cyclotomic
    coset_log: dict

    def value(self, h):
        return self.generator_image ** self.coset_log[h]


def linear_character(H, K, t=1):
    """A faithful linear character of H/K with kernel K.

    The generator of H/K is the coset of the smallest H-element whose
    coset generates; `t` (coprime to [H:K]) selects which primitive root
    of unity that generator maps to.
    """
    Q, proj = quotient(H, K)
    c = Q.order
    if not Q.is_abelian() or max(Q.element_orders) != c:
        raise NotShodaPair("H/K is not cyclic")
    gen_q = None
    for h in sorted(H.members):
        if Q.element_orders[proj[h]] == c:
            gen_q = proj[h]
            break
    # discrete logs of every coset with respect to the chosen generator
    log_q = {0: 0}
    x, e = gen_q, 1
    while x != 0:
        log_q[x] = e
        x = Q.mul(x, gen_q)
        e += 1
    coset_log = {h: log_q[proj[h]] for h in H.members}
    return LinearCharacter(
        H=H,
        K=K,
        order=c,
        generator_image=cyc(c, t),
        coset_log=coset_log,
    )


def induced_char_value(lam, G, g):
    """Value at g of the character of G induced from `lam` on H."""
    H = lam.H
    reps = right_transversal(H, G.whole())
    total = Cyclotomic.zero(lam.order)
    for t in reps:
        x = G.mul(G.mul(t, g), int(G.inv[t]))
        if x in H:
            total = total + lam.value(x)
    return total


# -- Shoda conditions ---------------------------------------------------------


def is_shoda_pair(G, H, K):
    """K normal in H with H/K cyclic, and every g with [H,g] cap H <= K
    already lies in H."""
    if not K.members <= H.members:
        return False
    if not is_normal(K, H):
        return False
    try:
        Q, _ = quotient(H, K)
    except (NotNormal, NotAGroup):
        return False
    if not Q.is_abelian() or max(Q.element_orders) != Q.order:
        return False
    hmem = H.members
    kmem = K.members
    for g in range(G.order):
        if g in hmem:
            continue
        gi = int(G.inv[g])
        for h in hmem:
            c = G.mul(G.mul(int(G.inv[h]), gi), G.mul(h, g))
            if c in hmem and c not in kmem:
                break
        else:
            return False
    return True


def is_strong_shoda_pair(G, H, K):
    """H normal in the centralizer of epsilon(H,K), with distinct
    conjugates of epsilon(H,K) mutually orthogonal."""
    if not is_shoda_pair(G, H, K):
        return False
    eps = epsilon(H, K)
    cen = centralizer_of(eps, G.whole())
    if not (H.members <= cen.members and is_normal(H, cen)):
        return False
    for d in conjugate_orbit(eps, G.whole()):
        if d != eps and not mul(eps, d).is_zero():
            return False
    return True


# -- primitive central idempotents --------------------------------------------


def pci(G, H, K, lam=None, partition=None, check=True):
    """The primitive central idempotent realized by the pair (H, K).

    Computed as the Galois-orbit sum of the induced character: summing
    sigma(induced(g)) over the full Galois group of Q(zeta_[H:K]) gives a
    rational class function whose associated algebra element is a positive
    rational multiple of the idempotent; the multiple is recovered from
    a single squaring.
    """
    if check and not is_shoda_pair(G, H, K):
        raise NotShodaPair("pair fails the Shoda conditions")
    if lam is None:
        lam = linear_character(H, K)
    if partition is None:
        from .groups import conjugacy_partition

        partition = conjugacy_partition(G, "ordinary")
    coeffs = {}
    scale = Fraction(1, H.order)
    for cl in partition.classes:
        g = min(cl)
        v = induced_char_value(lam, G, g)
        t = trace_to_q(v)
        if t:
            q = t * scale
            for x in cl:
                coeffs[int(G.inv[x])] = q
    a = QGElement(G, coeffs)
    # a = r * e for the idempotent e and a positive rational r, so a^2 = r*a
    a2 = mul(a, a)
    g0 = next(iter(a.coeffs))
    r = a2.coeffs.get(g0, Fraction(0)) / a.coeffs[g0]
    if r <= 0 or a2 != a.scale(r):
        raise NotShodaPair("induced character is not irreducible")
    return a.scale(1 / r)


# -- strong inductive chains ---------------------------------------------------


@dataclass
class StrongInductiveChain:
    """A tower H = H_0 <= ... <= H_n = G passing the level conditions.

    Per level i: `centralizers[i]` is the centralizer in H_{i+1} of the
    summed-conjugate idempotent e(H_i, H, K), `transversals[i]` a right
    transversal of that centralizer in H_{i+1}, and `indices[i]` the index
    of H_i in the centralizer.
    """

    steps: list
    centralizers: list = field(default_factory=list)
    transversals: list = field(default_factory=list)
    indices: list = field(default_factory=list)

    @property
    def length(self):
        return len(self.steps) - 1


def _level_check(Hi, Hnext, H, K, eps):
    """Check the two level conditions for Hi <= Hnext; returns the
    centralizer on success, None on failure."""
    ei = QGElement.zero(H.parent)
    for d in conjugate_orbit(eps, Hi):
        ei = ei + d
    cen = centralizer_of(ei, Hnext)
    if not (Hi.members <= cen.members and is_normal(Hi, cen)):
        return None
    for d in conjugate_orbit(ei, Hnext):
        if d != ei and not mul(ei, d).is_zero():
            return None
    return cen


def verify_chain(G, H, K, steps):
    """Validate a supplied tower of subgroups as a strong inductive chain.

    Returns a populated StrongInductiveChain, or None if some level fails.
    Repeated steps are allowed (they contribute index 1).
    """
    if steps[0].members != H.members or steps[-1].members != G.whole().members:
        return None
    for a, b in zip(steps, steps[1:]):
        if not a.members <= b.members:
            return None
    eps = epsilon(H, K)
    chain = StrongInductiveChain(steps=list(steps))
    for Hi, Hnext in zip(steps, steps[1:]):
        cen = _level_check(Hi, Hnext, H, K, eps)
        if cen is None:
            return None
        chain.centralizers.append(cen)
        chain.transversals.append(right_transversal(cen, Hnext))
        chain.indices.append(cen.order // Hi.order)
    return chain


def find_strong_inductive_chain(
    G, H, K, depth_cap=8, visit_cap=10**5, check=True
):
    """Search for a strong inductive chain from H to G.

    Prefers the one-step chain (present exactly when the pair is strong);
    otherwise runs a depth-first search over one-generator extensions,
    memoizing failed intermediate subgroups.  Returns None when the
    bounded search exhausts without finding a chain; raises
    SearchBoundExceeded when the visit budget runs out first.
    """
    if check and not is_shoda_pair(G, H, K):
        raise NotShodaPair("pair fails the Shoda conditions")
    whole = G.whole()
    one_step = verify_chain(G, H, K, [H, whole])
    if one_step is not None:
        return one_step
    eps = epsilon(H, K)
    dead = set()
    visits = [0]

    def extensions(S):
        seen = set()
        out = []
        for g in range(G.order):
            if g in S.members:
                continue
            T = subgroup_closure(G, list(S.gens) + [g])
            if T.members not in seen:
                seen.add(T.members)
                out.append(T)
        out.sort(key=lambda T: T.order)
        return out

    def dfs(prefix):
        cur = prefix[-1]
        if len(prefix) - 1 > depth_cap:
            return None
        visits[0] += 1
        if visits[0] > visit_cap:
            raise SearchBoundExceeded("chain search visit budget exhausted")
        for nxt in extensions(cur):
            if nxt.members in dead:
                continue
            if _level_check(cur, nxt, H, K, eps) is None:
                continue
            if nxt.members == whole.members:
                return prefix + [nxt]
            found = dfs(prefix + [nxt])
            if found is not None:
                return found
        dead.add(cur.members)
        return None

    steps = dfs([H])
    if steps is None:
        return None
    return verify_chain(G, H, K, steps)


# -- classification and complete sets -----------------------------------------


@dataclass
class ShodaPair:
    """A classified Shoda pair with its idempotent and optional chain.

    status is "strong", "generalized_strong" (chain found, not strong), or
    "shoda" (no chain found within bounds; existence undetermined).
    """

    H: Subgroup
    K: Subgroup
    status: str
    pci: QGElement
    chain: StrongInductiveChain | None = None
    lam: LinearCharacter | None = None

    @property
    def index(self):
        return self.H.order // self.K.order


def _chain_and_status(G, H, K, chain_steps, depth_cap, visit_cap):
    if chain_steps:
        chain = verify_chain(G, H, K, chain_steps)
        if chain is not None:
            status = (
                "strong" if is_strong_shoda_pair(G, H, K) else "generalized_strong"
            )
            return chain, status
    try:
        chain = find_strong_inductive_chain(
            G, H, K, depth_cap=depth_cap, visit_cap=visit_cap, check=False
        )
    except SearchBoundExceeded:
        chain = None
    if chain is None:
        return None, "shoda"
    return chain, "strong" if chain.length == 1 else "generalized_strong"


def classify_pair(
    G, H, K, chain_steps=None, partition=None, depth_cap=8, visit_cap=10**5
):
    """Classify (H, K) and compute its idempotent; raises NotShodaPair.

    A supplied chain (list of Subgroups) is verified before any search.
    """
    if not is_shoda_pair(G, H, K):
        raise NotShodaPair("pair fails the Shoda conditions")
    lam = linear_character(H, K)
    e = pci(G, H, K, lam=lam, partition=partition, check=False)
    chain, status = _chain_and_status(G, H, K, chain_steps, depth_cap, visit_cap)
    return ShodaPair(H=H, K=K, status=status, pci=e, chain=chain, lam=lam)


def shoda_pair_candidates(G, subgroups=None, order_cap=200):
    """All (H, K) with K normal in H, H/K cyclic, passing the Shoda test."""
    from .groups import all_subgroups

    if subgroups is None:
        subgroups = all_subgroups(G, order_cap=order_cap)
    by_members = {S.members: S for S in subgroups}
    out = []
    for H in subgroups:
        for K in subgroups:
            if not (K.members <= H.members and is_normal(K, H)):
                continue
            if is_shoda_pair(G, H, K):
                out.append((by_members[H.members], K))
    return out


def complete_irredundant_set(
    G, candidates=None, order_cap=200, depth_cap=8, visit_cap=10**5
):
    """One classified pair per distinct idempotent, plus a completeness flag.

    `candidates` is an optional list of (H, K[, chain_steps]) tuples; when
    omitted the subgroup lattice is enumerated.  The flag is True exactly
    when the retained idempotents sum to 1.
    """
    from .groups import conjugacy_partition

    partition = conjugacy_partition(G, "ordinary")
    if candidates is None:
        candidates = shoda_pair_candidates(G, order_cap=order_cap)
    kept = []
    seen = []
    for cand in candidates:
        H, K = cand[0], cand[1]
        chain_steps = cand[2] if len(cand) > 2 else None
        if not is_shoda_pair(G, H, K):
            raise NotShodaPair(
                f"supplied pair (|H|={H.order}, |K|={K.order}) fails the "
                "Shoda conditions"
            )
        lam = linear_character(H, K)
        e = pci(G, H, K, lam=lam, partition=partition, check=False)
        if e in seen:
            continue
        seen.append(e)
        chain, status = _chain_and_status(G, H, K, chain_steps, depth_cap, visit_cap)
        kept.append(ShodaPair(H=H, K=K, status=status, pci=e, chain=chain, lam=lam))
    total = QGElement.zero(G)
    for pair in kept:
        total = total + pair.pci
    return kept, total == QGElement.one(G)
