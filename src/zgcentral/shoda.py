"""Shoda-pair detection, and classification by strong inductive chains.

A pair of subgroups (H, K) with K normal in H and H/K cyclic induces an
irreducible character of G exactly when the Shoda condition holds.  A
Shoda pair is kept when a strong inductive chain of subgroups climbs
from H up to G, which makes it a generalized strong Shoda pair, strong
when one step does; the chain's top is the primitive central idempotent
of the rational group algebra that the pair realizes (Bakshi-Kaur), and
pairs with the same top are one.  The Shoda test is the one way in: it
builds the pair's linear character (`shoda_character`) from its own
coset log and the least element of each right coset Hg
(`groups.right_transversal`; Olivieri-del Rio, J. Symbolic Comput. 35
(2003)), and the chains and epsilon(H, K) take that character.  The test
keeps one record per H (`_CosetTable`), the same for enumerated and
supplied pairs: a K above a K' whose coset log was walked, with H/K'
cyclic, reads its log off log' with no walk, and a K above one that
failed the commutator condition fails, since "some [h, g] lies in H but
not in K" only gets harder to meet as K grows; only walked logs are
kept.  The enumerated pairs have H above Z(G), one H per conjugacy
class, and only the K that hold the commutators of H's generators with
[H:K] dividing exp(H) are tested.  A chain carries its idempotent e_i,
and each level reads e_i's conjugates off one right transversal of the
step below, which also yields the centralizer; the chain keeps that
transversal.  Every e_i is a self-adjoint idempotent (its coefficients
at g and g^-1 agree), so the trace form <a, b>, the coefficient of 1 in
a b*, decides a level with no QG product: e_i^t = e_i exactly when
<e_i, e_i^t> = <e_i, e_i>, and e_i e_i^t = 0 exactly when
<e_i, e_i^t> = 0 (`_climb`), read at supp(e_i)^t alone: at most
|H_(i+1)| table entries a level, not [H_(i+1):H_i] |G|.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cache, cached_property
from math import gcd, lcm

import numpy as np

from .cyclotomic import reduction_matrix
from .errors import NotNormal, NotShodaPair, NotStrongInductiveChain
from .groupalgebra import QGElement, _combine, conjugate_gram, epsilon
from .groups import (
    _GATHER_BLOCK,
    Subgroup,
    all_subgroups,
    center,
    conjugacy_partition,
    conjugate,
    conjugates,
    cyclic_coset_log,
    is_normal,
    right_transversal,
)


# eq=False: the array fields have no truth value, so compare by identity
@dataclass(frozen=True, eq=False)
class LinearCharacter:
    """The faithful linear character of H/K of a Shoda pair (H, K), lifted
    to H; built by the Shoda test (`shoda_character`).

    The character value at h is zeta_n ** coset_log[h] with n = [H:K]:
    `coset_log` is the test's `cyclic_coset_log`, a length-|G| array
    holding, for each element of H, the discrete log of its coset with
    respect to the generator of H/K that the character sends to zeta_n,
    and -1 outside H.  `transversal` is the right transversal of H in G
    of least coset elements, over which the character is induced.
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

    @cached_property
    def epsilon(self):
        """epsilon(H, K), read off the coset log."""
        return epsilon(self.H, self.K, self.coset_log)


def induced_counts(lam, G, cols):
    """Row c counts, for each exponent k < [H:K], the transversal elements
    whose conjugate of g = cols[c] has character value zeta_n ** k; the
    induced character at g is the sum of those powers.

    With T = lam.transversal, a block of columns gathers coset_log at
    T[i] * g * T[i]^-1, the conjugate of g by T[i]^-1, at most
    _GATHER_BLOCK table entries at a time.
    """
    n = lam.order
    T = lam.transversal
    T_inv = G.inv[T][:, None]
    cols = np.asarray(cols, dtype=np.intp)
    counts = np.zeros((cols.size, n + 1), dtype=np.int64)
    width = max(1, _GATHER_BLOCK // T.size)
    for j in range(0, cols.size, width):
        E = lam.coset_log[conjugate(G, cols[j : j + width], T_inv)]
        w = E.shape[1]
        # exponent -1 (outside H) lands in the spare slot n of its row
        slots = E % (n + 1) + (n + 1) * np.arange(w)
        block = np.bincount(slots.ravel(), minlength=w * (n + 1))
        counts[j : j + w] = block.reshape(w, n + 1)
    return counts[:, :n]


# -- Shoda conditions ---------------------------------------------------------


def shoda_character(H, K):
    """The linear character of the Shoda pair (H, K), built by the Shoda
    test; raises NotShodaPair naming |H| and |K| when the test fails."""
    return _checked_character(H, K, _coset_conjugates(H))


def _checked_character(H, K, table):
    """`shoda_character` with H's `_CosetTable` given."""
    lam = _shoda_character(H, K, table)
    if lam is None:
        raise NotShodaPair(
            f"pair (|H|={H.order}, |K|={K.order}) fails the Shoda conditions"
        )
    return lam


@dataclass(eq=False)
class _CosetTable:
    """The Shoda test's record of one H, built by `_coset_conjugates`,
    shared by every K tested under H, and held no longer than its caller
    holds it: the enumeration drops it at the next H, and the supplied
    pairs' cache on return.

    `hs` holds H's members and `reps` its least right transversal,
    read-only; conj[i, j] = hs[j]^g for g = reps[i + 1].  `walked` holds
    (K'.members, log') for each K' whose coset log was walked (H/K'
    cyclic), and `failed` the members of each K that failed the
    commutator condition.
    """

    hs: np.ndarray
    reps: np.ndarray
    conj: np.ndarray
    walked: list = field(default_factory=list)
    failed: list = field(default_factory=list)


def _coset_conjugates(H):
    """H's `_CosetTable`, its conjugates one table gather of |G| entries,
    with nothing walked or failed yet."""
    reps = np.array(right_transversal(H), dtype=np.intp)
    reps.setflags(write=False)
    # [1:] drops H itself, the coset of 0
    conj = conjugate(H.parent, H.sorted_members, reps[1:, None])
    return _CosetTable(H.sorted_members, reps, conj)


def _quotient_log(walked, hs, n):
    """The coset log of K in H read off the walked log of a K' <= K with
    H/K' cyclic: with n = [H:K], log' mod n is the log of H/K for the
    coset of some r, and the walk of K starts at the least member r of H
    whose log' is a unit mod n, so the log is log' / log'(r) mod n on H
    and -1 off it."""
    for r in hs:  # increasing: the first unit is the walk's generator
        unit = int(walked[r]) % n
        if gcd(unit, n) == 1:
            break
    log = walked * pow(unit, -1, n) % n
    log[walked < 0] = -1
    return log


def _shoda_character(H, K, table):
    """The Shoda test with H's `_CosetTable` given: the pair's character
    when it passes, else None.

    The coset log checks that K is normal in H with H/K cyclic, and
    becomes the character's.  [h, g] lies in H but not in K exactly when
    h^g lies in H outside the coset hK, which the coset log reads off.  As
    H/K is abelian the test for g only depends on the coset Hg, so one
    element of each will do.

    The table remembers what earlier K taught about H, so that most K
    cost no walk:
    (a) a K that holds a walked K' is normal in H with H/K cyclic of
        order n = [H:K], since K/K' is the one subgroup of that order of
        the cyclic H/K'; its log is read off log' (`_quotient_log`),
        identical to the walk's, with no walk and no normality gather;
    (b) a K that holds a K_f that failed the commutator condition
        fails too: for the g at which K_f fails, every h in H has h^g
        outside H or in h K_f, so in hK; a non-cyclic quotient or a K
        not normal in H is not recorded, as it says nothing of the K
        above;
    (c) any other K is walked (`groups.cyclic_coset_log`), and its log
        kept when H/K is cyclic.
    """
    if not K.members <= H.members:
        return None
    if any(f <= K.members for f in table.failed):
        return None
    n = H.order // K.order
    below = next((w for members, w in table.walked if members <= K.members), None)
    if below is not None:
        log = _quotient_log(below, table.hs, n)
    else:
        try:
            log = cyclic_coset_log(H, K)
        except NotNormal:
            return None
        if log is None:
            return None
        table.walked.append((K.members, log))
    log.setflags(write=False)
    x = log[table.conj]
    if not ((x >= 0) & (x != log[table.hs])).any(axis=1).all():
        table.failed.append(K.members)
        return None
    return LinearCharacter(H=H, K=K, order=n, coset_log=log, transversal=table.reps)


# -- strong inductive chains ---------------------------------------------------


@dataclass
class StrongInductiveChain:
    """A tower H = H_0 <= ... <= H_n passing the level conditions, grown
    one level at a time by `_climb`; complete when H_n = G.

    `top` is e_n: e_0 = epsilon(H, K), and e_{i+1} is the sum of the
    distinct H_{i+1}-conjugates of e_i (Bakshi-Kaur).  Per level i:
    `centralizers[i]` is the centralizer of e_i in H_{i+1}, and
    `transversals[i]` the right transversal of H_i in H_{i+1} that the
    level check read, [0] for a repeated step.  `indices[i]` is the index
    of H_i in the centralizer.
    """

    steps: list
    top: QGElement
    centralizers: list = field(default_factory=list)
    transversals: list = field(default_factory=list)

    @property
    def length(self):
        return len(self.steps) - 1

    @property
    def indices(self):
        return [c.order // s.order for c, s in zip(self.centralizers, self.steps)]


def _climb(chain, nxt, T=None):
    """The chain one level longer, up to `nxt`, or None when a level
    condition fails: H_i <= nxt, H_i normal in cen, the centralizer of
    e_i = chain.top in nxt, and e_i orthogonal to its other conjugates.

    H_i fixes e_i, so e_i^t depends only on the coset H_i t, t in the
    right transversal T of H_i in nxt, computed unless given.  e_i is a
    self-adjoint idempotent (e* = e, with g* = g^-1): epsilon(H, K) is, as
    c_n(-x) = c_n(x), and conjugates and sums of orthogonal ones stay so.
    With g_t = <e_i, e_i^t>, the sum over y of their coefficients at y:
    - the conjugates all have e_i's norm, so e_i^t = e_i exactly when
      g_t = <e_i, e_i> (Cauchy-Schwarz);
    - for d = e_i^t the coefficient of 1 in (e_i d)(e_i d)* = e_i d e_i
      is g_t, so e_i d = 0 exactly when g_t = 0.
    So one gather at supp(e_i)^t, |T| |supp e_i| <= |nxt| entries, and one
    matrix-vector product decide the level, and no QG product is taken.
    cen is the union of the cosets H_i t whose t fixes e_i.  Each distinct
    conjugate is e_i^t for [cen:H_i] of the t, so e_(i+1), built once the
    level passes, is the sum over T divided by that index.  The level
    keeps T.  A level with H_i = nxt has index 1 and transversal [0].
    """
    Hi, ei = chain.steps[-1], chain.top
    if not Hi <= nxt:
        return None
    if Hi.order == nxt.order:
        cen, top, T = Hi, ei, [0]
    else:
        T = right_transversal(Hi, nxt) if T is None else T
        gram, conjugate_sum = conjugate_gram(ei, T)
        fixed = gram == gram[0]  # T[0] = 0: g_0 = <e_i, e_i>
        if gram[~fixed].any():
            return None
        fixing = [t for t, f in zip(T, fixed.tolist()) if f]
        G = ei.group
        members = G.table[np.ix_(Hi.sorted_members, fixing)].ravel().tolist()
        cen = Subgroup(G, members, gens=Hi.gens + fixing[1:])
        if not is_normal(Hi, cen):
            return None
        top = QGElement.from_vec(G, conjugate_sum(), den=ei.den * len(fixing))
    return StrongInductiveChain(
        steps=chain.steps + [nxt],
        top=top,
        centralizers=chain.centralizers + [cen],
        transversals=chain.transversals + [T],
    )


def _root(lam):
    """The chain of length 0 at H, its top e_0 = epsilon(H, K)."""
    return StrongInductiveChain([lam.H], top=lam.epsilon)


def verify_chain(lam, steps):
    """Validate a supplied tower of subgroups as a strong inductive chain
    for the Shoda pair of the character `lam`.

    Returns a populated StrongInductiveChain, or None if some level fails,
    which includes a step not contained in the next.  Repeated steps are
    allowed (they contribute index 1).
    """
    if steps[0].members != lam.H.members or steps[-1].order != lam.H.parent.order:
        return None
    chain = _root(lam)
    for nxt in steps[1:]:
        chain = _climb(chain, nxt)
        if chain is None:
            return None
    return chain


def find_strong_inductive_chain(lam, subgroups=None, whole=None):
    """Search for a strong inductive chain from H to G for the Shoda pair
    of the character `lam`.

    Prefers the one-step chain (present exactly when the pair is strong,
    its level reading the Shoda test's `lam.transversal`); otherwise walks
    the lattice depth first, trying each step's overgroups smallest first
    and memoizing subgroups with no chain to G.
    A chain's top at H_i is the primitive central idempotent of Q H_i
    that (H, K) realizes, whatever the path below, so the memo holds.
    Every subgroup is entered at most once, so the walk ends with a chain,
    or with None when no chain exists in the lattice.  The lattice is
    `subgroups(G)`, `all_subgroups` by default, and is asked for only when
    the one-step chain fails; it raises CapExceeded or NotSolvable as
    `all_subgroups` does.  `whole` is G as a Subgroup, built unless given.
    """
    G = lam.H.parent
    whole = G.whole() if whole is None else whole
    root = _root(lam)
    one_step = _climb(root, whole, lam.transversal.tolist())
    if one_step is not None:
        return one_step
    lattice = (subgroups or all_subgroups)(G)
    dead = set()

    def dfs(chain):
        cur = chain.steps[-1]
        if cur.members == whole.members:
            return chain
        for nxt in lattice:
            if nxt.members in dead or not cur < nxt:
                continue
            longer = _climb(chain, nxt)
            found = None if longer is None else dfs(longer)
            if found is not None:
                return found
        dead.add(cur.members)
        return None

    return dfs(root)


# -- classification and complete sets -----------------------------------------


@dataclass
class ShodaPair:
    """A generalized strong Shoda pair, given by its character, with the
    strong inductive chain that classifies it.

    status is "strong" (the one-step chain passes) or "generalized_strong";
    `pci`, the primitive central idempotent the pair realizes, is the
    chain's top.
    """

    lam: LinearCharacter
    status: str
    chain: StrongInductiveChain

    @property
    def H(self):
        return self.lam.H

    @property
    def K(self):
        return self.lam.K

    @property
    def index(self):
        return self.lam.order

    @property
    def pci(self):
        return self.chain.top


def _classify(lam, chain_steps, subgroups, whole, known):
    """The classified pair of the character `lam`, or None when it has no
    chain or its chain's top is in `known`.  A supplied chain is verified
    or refused; a pair without one is searched on `subgroups` up to `whole`."""
    if not chain_steps:
        chain = find_strong_inductive_chain(lam, subgroups, whole)
        strong = chain is not None and chain.length == 1
    elif (chain := verify_chain(lam, chain_steps)) is None:
        raise NotStrongInductiveChain(
            f"pair (|H|={lam.H.order}, |K|={lam.K.order}) fails its supplied chain"
        )
    else:
        # verify_chain checked H and G at the ends: one level decides strong
        strong = _climb(_root(lam), chain.steps[-1], lam.transversal.tolist()) is not None
    if chain is None or chain.top in known:
        return None
    return ShodaPair(lam=lam, status="strong" if strong else "generalized_strong", chain=chain)


def shoda_pair_candidates(G, subgroups=None):
    """The Shoda pairs (H, K) with H the first of its G-conjugacy class in
    lattice order, as their linear characters, in lattice order of H and
    then of K.  The lattice is `subgroups(G)`, `all_subgroups` by default.

    Every Shoda pair has H >= Z(G): for a central z outside H each
    commutator [h, z] = 1 lies in K, so the test fails at z.  A conjugate
    pair (H^g, K^g) realizes the same idempotent (Olivieri-del Rio-Simon,
    Comm. Algebra 32 (2004)) and comes later in lattice order, so the
    first pair of each idempotent is among those returned.  H/K cyclic
    needs K normal in H with H/K abelian, so K holds the commutator of
    every two generators of H, and [H:K] divides the exponent of H; only
    the K that pass both take the Shoda test, which still decides.
    """
    lattice = (subgroups or all_subgroups)(G)
    z = center(G)
    t = G.table
    orders = np.array(G.element_orders)
    seen = set()
    out = []
    for H in lattice:
        if H.members in seen or not z <= H.members:
            continue
        seen |= conjugates(H)
        exponent = int(np.lcm.reduce(orders[H.sorted_members]))
        # [a, b] = (b a)^-1 (a b) for every pair of H's generators
        a = np.array(H.gens, dtype=np.intp)
        ab = t[np.ix_(a, a)]
        commutators = frozenset(t[G.inv[ab.T], ab].ravel().tolist())
        table = _coset_conjugates(H)  # shared by every K below H
        for K in lattice:
            if commutators <= K.members <= H.members and exponent % (H.order // K.order) == 0:
                lam = _shoda_character(H, K, table)
                if lam is not None:
                    out.append(lam)
    return out


def complete_irredundant_set(G, candidates=None):
    """One classified pair per distinct idempotent, plus a completeness flag.

    `candidates` is an optional list of (H, K[, chain_steps]) tuples, each
    taking the Shoda test (`shoda_character`) as it is reached; when
    omitted the Shoda pairs come from `shoda_pair_candidates`.  A supplied
    chain that fails is refused, and a candidate with no chain dropped, so
    the flag, True exactly when the kept idempotents sum to 1, says
    whether G is generalized strongly monomial (over the candidates, when
    given).  The enumeration and every chain search share one subgroup
    lattice, built when first asked for, and one Subgroup of all of G; the
    supplied pairs with one H share its coset table; all are dropped on
    return.
    """
    subgroups = cache(all_subgroups)
    whole = G.whole()
    if candidates is None:
        todo = ((lam, None) for lam in shoda_pair_candidates(G, subgroups))
    else:
        tables = cache(_coset_conjugates)  # by Subgroup: one table per distinct H
        todo = (
            (_checked_character(H, K, tables(H)), rest[0] if rest else None)
            for H, K, *rest in candidates
        )
    kept = []
    seen = set()
    for lam, chain_steps in todo:
        pair = _classify(lam, chain_steps, subgroups, whole, seen)
        if pair is not None:
            seen.add(pair.pci)
            kept.append(pair)
    return kept, is_complete(G, kept)


def is_complete(G, pairs):
    """True when the pairs' idempotents sum to 1, so that their simple
    components cover QG; one `_combine` over the lcm of the denominators."""
    if not pairs:
        return False
    den = lcm(*(p.pci.den for p in pairs))
    total = _combine([(den // p.pci.den, p.pci.vec) for p in pairs])
    return bool(total[0] == den) and not total[1:].any()
