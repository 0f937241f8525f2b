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
from functools import cached_property

import numpy as np

from .cyclotomic import euler_phi, ramanujan_row, reduction_matrix
from .errors import NotShodaPair, SearchBoundExceeded
from .groupalgebra import (
    QGElement,
    centralizer_of,
    conjugate_orbit,
    epsilon,
    mul,
)
from .groups import (
    _GATHER_BLOCK,
    Subgroup,
    all_subgroups,
    conjugacy_partition,
    cyclic_coset_log,
    galois_classes,
    is_normal,
    right_transversal,
    subgroup_closure,
)

# Most subgroups the chain search visits for one pair before it gives up.
CHAIN_VISIT_BUDGET = 10**5


# eq=False: the array fields have no truth value, so compare by identity
@dataclass(frozen=True, eq=False)
class LinearCharacter:
    """A faithful linear character of H/K, lifted to H.

    The character value at h is zeta_n ** coset_log[h] with n = [H:K]:
    `coset_log` is a length-|G| array holding, for each element of H, the
    discrete log of its coset with respect to the generator of H/K that the
    character sends to zeta_n, and -1 outside H.  `transversal` is a right
    transversal of H in G, over which the character is induced.
    """

    H: Subgroup
    K: Subgroup
    order: int  # [H:K]
    coset_log: np.ndarray
    transversal: np.ndarray

    @cached_property
    def class_rows(self):
        """Row c: the induced character at G's c-th ordinary class, on the
        power basis of Q(zeta_n); read-only int64.

        It is the count row times `reduction_matrix`, summed over the at
        most [G:H] nonzero counts of each row only."""
        G = self.H.parent
        counts = induced_counts(self, G, conjugacy_partition(G).reps)
        R = reduction_matrix(self.order)
        c, k = np.nonzero(counts)
        rows = np.zeros((counts.shape[0], R.shape[1]), dtype=np.int64)
        np.add.at(rows, c, counts[c, k, None] * R[k])
        rows.setflags(write=False)
        return rows


def linear_character(H, K, t=1):
    """A faithful linear character of H/K with kernel K.

    The generator of H/K is the coset of the smallest H-element whose
    coset generates; `t` (coprime to [H:K]) selects which primitive root
    of unity that generator maps to.
    """
    G = H.parent
    log = cyclic_coset_log(H, K)
    if log is None:
        raise NotShodaPair("H/K is not cyclic")
    c = H.order // K.order
    # scaled by t so that the logs are exponents of zeta_c
    coset_log = np.where(log < 0, -1, log * t % c)
    coset_log.setflags(write=False)
    transversal = np.array(right_transversal(H, G.whole()), dtype=np.intp)
    transversal.setflags(write=False)
    return LinearCharacter(
        H=H, K=K, order=c, coset_log=coset_log, transversal=transversal
    )


def induced_counts(lam, G, cols):
    """Row c counts, for each exponent k < [H:K], the transversal elements
    whose conjugate of g = cols[c] has character value zeta_n ** k; the
    induced character at g is the sum of those powers.

    With T = lam.transversal, a block of columns gathers coset_log at
    T[i] * g * T[i]^-1, at most _GATHER_BLOCK table entries at a time.
    """
    n = lam.order
    t = G.table
    T = lam.transversal
    T_inv = G.inv[T][:, None]
    cols = np.asarray(cols, dtype=np.intp)
    counts = np.zeros((cols.size, n + 1), dtype=np.int64)
    width = max(1, _GATHER_BLOCK // T.size)
    for j in range(0, cols.size, width):
        E = lam.coset_log[t[t[np.ix_(T, cols[j : j + width])], T_inv]]
        w = E.shape[1]
        # exponent -1 (outside H) lands in the spare slot n of its row
        slots = E % (n + 1) + (n + 1) * np.arange(w)
        block = np.bincount(slots.ravel(), minlength=w * (n + 1))
        counts[j : j + w] = block.reshape(w, n + 1)
    return counts[:, :n]


# -- Shoda conditions ---------------------------------------------------------


def is_shoda_pair(G, H, K):
    """K normal in H with H/K cyclic, and every g outside H has some
    commutator [h, g] = h^-1 h^g, h in H, inside H but not in K."""
    return _is_shoda_pair(H, K, _coset_conjugates(H))


def _coset_conjugates(H):
    """(hs, conj): H's members, and conj[i, j] = hs[j]^g for g the least
    element of the i-th coset Hg other than H, one table gather of |G|
    entries."""
    G = H.parent
    t = G.table
    hs = np.array(H.sorted_members, dtype=np.intp)
    # column g of t[hs] is the coset Hg: its least entry, in row blocks
    least = np.arange(G.order)
    rows = max(1, _GATHER_BLOCK // G.order)
    for start in range(0, hs.size, rows):
        np.minimum(least, t[hs[start : start + rows]].min(axis=0), out=least)
    # [1:] drops H itself, the coset of 0
    reps = np.flatnonzero(least == np.arange(G.order))[1:, None]
    return hs, t[t[G.inv[reps], hs], reps]


def _is_shoda_pair(H, K, coset_conjugates):
    """The Shoda test with H's `_coset_conjugates` given.

    [h, g] lies in H but not in K exactly when h^g lies in H outside the
    coset hK, which the coset log reads off.  As H/K is abelian the test
    for g only depends on the coset Hg, so one element of each will do.
    """
    if not (K.members <= H.members and is_normal(K, H)):
        return False
    log = cyclic_coset_log(H, K)
    if log is None:
        return False
    hs, conj = coset_conjugates
    x = log[conj]
    return bool(((x >= 0) & (x != log[hs])).any(axis=1).all())


# -- primitive central idempotents --------------------------------------------


def pci(G, H, K, lam=None, check=True):
    """The primitive central idempotent realized by the pair (H, K).

    With n = [H:K], the Galois conjugates of the induced character chi sum
    to its trace from Q(zeta_n) to Q over |S|, S the stabilizer of chi in
    (Z/n)^x.  The trace at a class is chi's class row times the Ramanujan
    sums c_n(i), the traces of the power basis.  sigma_t(chi(g)) =
    chi(g^t) for t prime to the exponent e of G, so row i of
    `galois_classes` fixes chi's class rows exactly when sigma_t does, t
    the i-th unit mod e.  Each element of S lifts to phi(e) / phi(n)
    units mod e, so |S| is phi(n) / phi(e) times the rows that fix chi.
    Only the rows that fix a fingerprint of the class rows, their dot
    product with 1..phi(n), are compared in full.
    """
    if check and not is_shoda_pair(G, H, K):
        raise NotShodaPair("pair fails the Shoda conditions")
    if lam is None:
        lam = linear_character(H, K)
    n, rows = lam.order, lam.class_rows
    P = galois_classes(G)
    # equal rows have equal fingerprints, also where the int64 dot wraps
    f = rows @ np.arange(1, rows.shape[1] + 1)
    fixed = sum(np.array_equal(rows[p], rows) for p in P[(f[P] == f).all(axis=1)])
    stabilizer = euler_phi(n) * fixed // len(P)
    trace = rows @ ramanujan_row(n)[: rows.shape[1]]
    # the coefficient of g^-1 is trace(g) / (|H| |S|)
    class_of = conjugacy_partition(G).class_of
    return QGElement.from_vec(G, trace[class_of][G.inv], den=H.order * stabilizer)


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


def find_strong_inductive_chain(G, H, K, check=True):
    """Search for a strong inductive chain from H to G.

    Prefers the one-step chain (present exactly when the pair is strong);
    otherwise runs a depth-first search over one-generator extensions,
    memoizing failed intermediate subgroups.  Returns None when the search
    exhausts without finding a chain; raises SearchBoundExceeded when it
    visits more than CHAIN_VISIT_BUDGET subgroups first.
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
        visits[0] += 1
        if visits[0] > CHAIN_VISIT_BUDGET:
            raise SearchBoundExceeded(
                f"chain search for the pair (|H|={H.order}, |K|={K.order}) "
                f"gave up after {CHAIN_VISIT_BUDGET} visits"
            )
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
    "shoda" (the chain search finished without finding a chain).
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


def _classify(G, H, K, chain_steps, check, known=()):
    """The classified pair, or None when its idempotent is in `known`.

    With `check`, a pair failing the Shoda conditions raises NotShodaPair.
    A supplied chain is verified before any search.
    """
    if check and not is_shoda_pair(G, H, K):
        raise NotShodaPair(
            f"pair (|H|={H.order}, |K|={K.order}) fails the Shoda conditions"
        )
    lam = linear_character(H, K)
    e = pci(G, H, K, lam=lam, check=False)
    if e in known:
        return None
    chain = verify_chain(G, H, K, chain_steps) if chain_steps else None
    if chain is not None:
        strong = verify_chain(G, H, K, [H, G.whole()]) is not None
    else:
        chain = find_strong_inductive_chain(G, H, K, check=False)
        strong = chain is not None and chain.length == 1
    status = "shoda" if chain is None else "strong" if strong else "generalized_strong"
    return ShodaPair(H=H, K=K, status=status, pci=e, chain=chain, lam=lam)


def shoda_pair_candidates(G):
    """All (H, K) with K normal in H, H/K cyclic, passing the Shoda test."""
    subgroups = all_subgroups(G)
    out = []
    for H in subgroups:
        conj = _coset_conjugates(H)  # shared by every K below H
        out += [
            (H, K)
            for K in subgroups
            if K.members <= H.members and _is_shoda_pair(H, K, conj)
        ]
    return out


def complete_irredundant_set(G, candidates=None):
    """One classified pair per distinct idempotent, plus a completeness flag.

    `candidates` is an optional list of (H, K[, chain_steps]) tuples; when
    omitted the subgroup lattice is enumerated.  The flag is True exactly
    when the retained idempotents sum to 1.
    """
    supplied = candidates is not None
    if not supplied:
        candidates = shoda_pair_candidates(G)
    kept = []
    seen = set()
    for cand in candidates:
        H, K = cand[0], cand[1]
        chain_steps = cand[2] if len(cand) > 2 else None
        # enumerated candidates have already passed the Shoda test
        pair = _classify(G, H, K, chain_steps, check=supplied, known=seen)
        if pair is not None:
            seen.add(pair.pci)
            kept.append(pair)
    return kept, is_complete(G, kept)


def is_complete(G, pairs):
    """True when the pairs' idempotents sum to 1, so that their simple
    components cover QG."""
    return sum((p.pci for p in pairs), QGElement.zero(G)) == QGElement.one(G)
