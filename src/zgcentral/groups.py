"""Exact finite-group arithmetic on materialized Cayley tables.

Elements are dense indices 0..order-1 with 0 the identity.  Groups up to
order 2048 are supported; the table is kept as an int32 matrix so that
multiplication is a single lookup.

Conjugacy is decided here and nowhere else.  A `ConjugacyPartition` is
two read-only arrays, the class of each element and the least element of
each class.  `galois_classes` is the action of (Z/e)^x, e the exponent,
on the ordinary classes by g -> g^t; the real and rational classes, the
Galois stabilizer in `shoda.pci` and k in `rank.k_of_pair` all read it.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import gcd, lcm

import numpy as np

from .errors import (
    CapExceeded,
    InconsistentPresentation,
    NotAGroup,
    NotNormal,
    NotSolvable,
    NotSubgroup,
    NotSubnormal,
)

MAX_ORDER = 2048

# Most subgroups all_subgroups enumerates before it gives up.
LATTICE_CAP = 4096

# Most table entries gathered at once by the closure and centralizer kernels.
_GATHER_BLOCK = 1 << 16


class FiniteGroup:
    """A finite group given by its full multiplication table.

    Immutable after construction; all derived data (inverses, element
    orders, generators, conjugacy classes) is computed eagerly or cached.
    """

    def __init__(self, table, labels=None):
        table = np.asarray(table, dtype=np.int32)
        if table.ndim != 2 or table.shape[0] != table.shape[1]:
            raise NotAGroup("table is not square")
        n = table.shape[0]
        if n == 0 or n > MAX_ORDER:
            raise NotAGroup(f"order {n} outside supported range 1..{MAX_ORDER}")
        if table.min() < 0 or table.max() >= n:
            raise NotAGroup("table entries out of range")
        self.order = n
        self.table = table
        self.table.setflags(write=False)
        self.labels = list(labels) if labels is not None else None
        self._validate()
        self.inv = self._compute_inverses()
        self.element_orders = self._compute_element_orders()
        self._conjugacy = {}  # kind -> ConjugacyPartition, "galois" -> array

    # -- construction checks -------------------------------------------------

    def _validate(self):
        t = self.table
        n = self.order
        idperm = np.arange(n, dtype=np.int32)
        if not np.array_equal(t[0], idperm):
            raise NotAGroup("row 0 is not the identity permutation")
        if not np.array_equal(t[:, 0], idperm):
            raise NotAGroup("column 0 is not the identity permutation")
        for a in range(n):
            if len(set(t[a].tolist())) != n:
                raise NotAGroup(f"row {a} is not a permutation")
            if len(set(t[:, a].tolist())) != n:
                raise NotAGroup(f"column {a} is not a permutation")
        # Light's test: if (x g) y = x (g y) for all x, y and every g in a
        # generating set, the elements g with that property are closed
        # under products, so the table is associative.
        self.generators = _subgroup_generators(self, range(n)) or [0]
        for g in self.generators:
            left = t[t[:, g], :]
            right = t[:, t[g, :]]
            if not np.array_equal(left, right):
                a, b = np.argwhere(left != right)[0]
                raise NotAGroup(
                    "associativity failure", witness=(int(a), int(g), int(b))
                )
        for a in range(n):
            hits = np.flatnonzero(t[a] == 0)
            if hits.size != 1 or t[hits[0], a] != 0:
                raise NotAGroup(f"element {a} has no two-sided inverse")

    def _closure_members(self, seed):
        """Member set of the subgroup generated by `seed` (always holds 0).

        Breadth-first search from the identity under right multiplication
        by the non-identity seed elements; in a finite group the monoid
        they generate is the subgroup.  Each step gathers the table at the
        frontier rows and generator columns, in blocks of at most
        _GATHER_BLOCK entries, and keeps what the membership mask lacks.
        """
        t = self.table
        gens = np.array(sorted({int(s) for s in seed} - {0}), dtype=np.intp)
        rows = max(1, _GATHER_BLOCK // max(gens.size, 1))
        member = np.zeros(self.order, dtype=bool)
        member[0] = True
        frontier = np.zeros(1, dtype=np.intp)
        while frontier.size:
            reached = np.zeros(self.order, dtype=bool)
            for start in range(0, frontier.size, rows):
                reached[t[np.ix_(frontier[start : start + rows], gens)]] = True
            reached &= ~member
            member |= reached
            frontier = np.flatnonzero(reached)
        return set(np.flatnonzero(member).tolist())

    def _compute_inverses(self):
        inv = np.empty(self.order, dtype=np.int32)
        for a in range(self.order):
            inv[a] = int(np.flatnonzero(self.table[a] == 0)[0])
        inv.setflags(write=False)
        return inv

    def _compute_element_orders(self):
        orders = [1] * self.order
        for a in range(1, self.order):
            x, k = a, 1
            while x != 0:
                x = int(self.table[x, a])
                k += 1
            orders[a] = k
        return orders

    # -- basic arithmetic ----------------------------------------------------

    def mul(self, a, b):
        return int(self.table[a, b])

    def power(self, a, k):
        n = self.element_orders[a]
        k %= n
        x = 0
        for _ in range(k):
            x = int(self.table[x, a])
        return x

    def conj(self, a, g):
        """g^-1 * a * g."""
        return int(self.table[self.table[self.inv[g], a], g])

    def label(self, a):
        if self.labels is not None:
            return self.labels[a]
        return str(a)

    def whole(self):
        return Subgroup(self, frozenset(range(self.order)), gens=self.generators)

    def trivial(self):
        return Subgroup(self, frozenset([0]), gens=[])


class Subgroup:
    """An immutable subgroup of a FiniteGroup, stored as a member set.

    `members` are element indices as Python ints; they are not converted.
    """

    __slots__ = ("parent", "members", "sorted_members", "_gens")

    def __init__(self, parent, members, gens=None):
        self.parent = parent
        self.members = frozenset(members)
        self.sorted_members = tuple(sorted(self.members))
        self._gens = list(gens) if gens is not None else None

    @property
    def order(self):
        return len(self.members)

    @property
    def gens(self):
        if self._gens is None:
            self._gens = _subgroup_generators(self.parent, self.members)
        return self._gens

    def __contains__(self, g):
        return int(g) in self.members

    def __le__(self, other):
        return self.members <= other.members

    def __lt__(self, other):
        return self.members < other.members

    def __eq__(self, other):
        return (
            isinstance(other, Subgroup)
            and self.parent is other.parent
            and self.members == other.members
        )

    def __hash__(self):
        return hash(self.members)

    def __repr__(self):
        return f"Subgroup(order={self.order})"


def _subgroup_generators(G, members):
    """Greedy generators of the subgroup of G with the given members: each
    is the smallest member outside the closure of those before it."""
    gens = []
    closed = {0}
    remaining = set(members)
    while closed != remaining:
        g = min(remaining - closed)
        gens.append(g)
        closed = G._closure_members(closed | {g})
    return gens


def subgroup_closure(G, gens):
    """The subgroup generated by the given element indices."""
    members = G._closure_members({0, *gens})
    return Subgroup(G, members, gens=[g for g in gens if g != 0])


# -- constructors ------------------------------------------------------------


def group_from_cayley(table, labels=None):
    """Validate a Cayley table and wrap it as a FiniteGroup."""
    return FiniteGroup(table, labels=labels)


def perm_from_cycles(degree, cycles):
    """Build a 0-based image tuple from 1-based cycle notation."""
    images = list(range(degree))
    for cyc in cycles:
        if not cyc:
            continue
        for i, a in enumerate(cyc):
            b = cyc[(i + 1) % len(cyc)]
            if not (1 <= a <= degree) or not (1 <= b <= degree):
                raise ValueError(f"cycle entry out of range 1..{degree}")
            images[a - 1] = b - 1
    if len(set(images)) != degree:
        raise ValueError("cycles do not describe a bijection")
    return tuple(images)


def group_from_permutations(degree, generators):
    """Closure of permutation generators under composition.

    Each generator is a tuple/list of 0-based images of 0..degree-1.
    Product convention: (p*q)(x) = q(p(x)).  Raises CapExceeded past MAX_ORDER.
    """
    idp = tuple(range(degree))
    gens = []
    for p in generators:
        p = tuple(int(x) for x in p)
        if len(p) != degree or set(p) != set(range(degree)):
            raise ValueError("generator is not a bijection")
        gens.append(p)
    elements = [idp]
    index = {idp: 0}
    frontier = [idp]
    while frontier:
        p = frontier.pop()
        for q in gens:
            r = tuple(q[x] for x in p)
            if r not in index:
                if len(elements) >= MAX_ORDER:
                    raise CapExceeded(f"permutation group exceeds order {MAX_ORDER}")
                index[r] = len(elements)
                elements.append(r)
                frontier.append(r)
    n = len(elements)
    table = np.empty((n, n), dtype=np.int32)
    for i, p in enumerate(elements):
        for j, q in enumerate(elements):
            table[i, j] = index[tuple(q[x] for x in p)]
    G = FiniteGroup(table)
    G.permutations = elements
    return G


def _collect_pc_word(word, orders, power_words, conj_words, step_bound):
    """Collection-from-the-left to normal form; returns an exponent tuple."""
    ngen = len(orders)
    work = [[g, e] for g, e in word if e != 0]
    steps = 0
    i = 0
    while i < len(work):
        steps += 1
        if steps > step_bound:
            raise InconsistentPresentation(
                f"collection exceeded step bound {step_bound}"
            )
        g, e = work[i]
        if e == 0:
            del work[i]
            i = max(i - 1, 0)
            continue
        if e < 0:
            raise InconsistentPresentation("negative exponent during collection")
        if e >= orders[g - 1]:
            q, r = divmod(e, orders[g - 1])
            repl = []
            if r:
                repl.append([g, r])
            repl.extend([x, y] for x, y in power_words[g - 1] * q)
            work[i : i + 1] = repl or [[g, 0]]
            i = max(i - 1, 0)
            continue
        if i + 1 < len(work):
            h, f = work[i + 1]
            if h == g:
                work[i][1] = e + f
                del work[i + 1]
                continue
            if h < g:
                # x_g^e x_h^f  ->  x_h (x_g^{x_h})^e x_h^{f-1}
                repl = [[h, 1]]
                repl.extend([x, y] for x, y in conj_words[(g, h)] * e)
                if f - 1:
                    repl.append([h, f - 1])
                work[i : i + 2] = repl
                i = max(i - 1, 0)
                continue
        if i > 0 and work[i - 1][0] >= g:
            i -= 1
            continue
        i += 1
    expo = [0] * ngen
    for g, e in work:
        expo[g - 1] = e
    return tuple(expo)


def group_from_pc_presentation(orders, powers=None, commutators=None, step_bound=10**7):
    """Group from a power-commutator presentation by collection.

    `orders` lists the relative order of each generator x_1..x_m.  `powers`
    maps generator i (1-based) to a word in x_(i+1)..x_m for x_i^orders[i];
    `commutators` maps (j, i) with j > i to a word in x_(i+1)..x_m for
    [x_j, x_i].  Words are sequences of (generator, exponent) pairs with
    nonnegative exponents (negative allowed only when the generator's power
    relation is trivial).
    """
    orders = [int(e) for e in orders]
    if any(e < 1 for e in orders):
        raise InconsistentPresentation("relative orders must be >= 1")
    ngen = len(orders)
    powers = dict(powers or {})
    commutators = dict(commutators or {})

    def norm_word(word, floor, relation):
        out = []
        for g, e in word:
            g, e = int(g), int(e)
            if not (1 <= g <= ngen):
                raise InconsistentPresentation(f"unknown generator x{g}")
            if g <= floor:  # a pc relation of x_floor uses only later generators
                raise InconsistentPresentation(f"word for {relation} uses x{g}")
            if e < 0:
                if powers.get(g):
                    raise InconsistentPresentation(
                        f"negative exponent on x{g} with nontrivial power relation"
                    )
                e %= orders[g - 1]
            if e:
                out.append((g, e))
        return tuple(out)

    power_words = [
        norm_word(powers.get(i, ()), i, f"x{i}^{orders[i - 1]}") for i in range(1, ngen + 1)
    ]
    conj_words = {}
    for j in range(1, ngen + 1):
        for i in range(1, j):
            comm = norm_word(commutators.get((j, i), ()), i, f"[x{j}, x{i}]")
            conj_words[(j, i)] = ((j, 1),) + comm

    n = 1
    for e in orders:
        n *= e
    if n > MAX_ORDER:
        raise CapExceeded(f"presented order {n} exceeds {MAX_ORDER}")

    radix = [0] * ngen
    acc = 1
    for i in reversed(range(ngen)):
        radix[i] = acc
        acc *= orders[i]

    def tup_to_idx(t):
        return sum(t[i] * radix[i] for i in range(ngen))

    def idx_to_tup(x):
        out = []
        for i in range(ngen):
            out.append(x // radix[i])
            x %= radix[i]
        return tuple(out)

    # right-multiplication permutation of each generator.  The relations of
    # x_g..x_m involve no earlier generator, so x * x_g only depends on the
    # tail of x from x_g on: collect x_g into each of the `size` tails once.
    gen_perm = np.empty((ngen, n), dtype=np.int32)
    for g in range(1, ngen + 1):
        size = radix[g - 1] * orders[g - 1]
        tail = np.empty(size, dtype=np.int64)
        for r in range(size):
            t = idx_to_tup(r)
            word = [(i + 1, t[i]) for i in range(g - 1, ngen) if t[i]] + [(g, 1)]
            res = _collect_pc_word(word, orders, power_words, conj_words, step_bound)
            tail[r] = tup_to_idx(res)
        gen_perm[g - 1] = (np.arange(0, n, size)[:, None] + tail).ravel()

    # column h of the table by extending the predecessor of h by one generator
    table = np.empty((n, n), dtype=np.int32)
    table[:, 0] = np.arange(n, dtype=np.int32)
    for h in range(1, n):
        t = idx_to_tup(h)
        i = max(i for i in range(ngen) if t[i])
        pred = h - radix[i]
        table[:, h] = gen_perm[i][table[:, pred]]

    labels = []
    for x in range(n):
        t = idx_to_tup(x)
        parts = [f"x{i + 1}" + (f"^{t[i]}" if t[i] > 1 else "") for i in range(ngen) if t[i]]
        labels.append("*".join(parts) if parts else "1")
    try:
        G = FiniteGroup(table, labels=labels)
    except NotAGroup as exc:
        raise InconsistentPresentation(f"collection is not confluent: {exc}") from exc
    G.pc_orders = tuple(orders)
    G.pc_generators = [tup_to_idx(tuple(1 if j == i else 0 for j in range(ngen)))
                       for i in range(ngen)]
    G.generator_names = [f"x{i + 1}" for i in range(ngen)]
    return G


# -- subgroup machinery ------------------------------------------------------


def all_subgroups(G):
    """Every subgroup of G, sorted by (order, member tuple).

    Cyclic extension (Neubüser, Numer. Math. 2 (1960)): each subgroup
    T != 1 of a solvable group is S<z> for some normal S of prime index p,
    with z in N(S) and z^p in S, so T is the union of the cosets S z^i,
    i < p, and needs no closure.  T carries the generators S.gens + [z].
    Raises CapExceeded beyond LATTICE_CAP subgroups, and NotSolvable when
    G is not reached, which happens exactly when G is not solvable.
    """
    found = {frozenset([0]): G.trivial()}
    queue = list(found.values())
    for S in queue:  # breadth first: the queue grows while it is read
        for members, z in _cyclic_extensions(G, S):
            key = frozenset(members.tolist())
            if key in found:
                continue
            if len(found) == LATTICE_CAP:
                raise CapExceeded(
                    f"group of order {G.order} has more than {LATTICE_CAP} "
                    "subgroups; supply candidate pairs with --pairs-file"
                )
            found[key] = Subgroup(G, key, gens=S.gens + [z])
            queue.append(found[key])
    if frozenset(range(G.order)) not in found:
        raise NotSolvable(
            f"group of order {G.order} is not solvable, hence not monomial "
            "(Taketa's theorem), so no set of its Shoda pairs is complete; "
            "supply candidate pairs with --pairs-file"
        )
    return sorted(found.values(), key=lambda S: (S.order, S.sorted_members))


def _cyclic_extensions(G, S):
    """(members, z) for each T = S<z> containing S as a normal subgroup of
    prime index, with z the smallest element of T outside S."""
    t = G.table
    s = np.array(S.sorted_members, dtype=np.intp)
    in_s = np.zeros(G.order, dtype=bool)
    in_s[s] = True
    # z normalizes S when it conjugates each generator of S into S
    cand = ~in_s
    for h in S.gens:
        cand &= in_s[t[t[G.inv, h], np.arange(G.order)]]
    z = np.flatnonzero(cand)
    # k = order of zS in N(S)/S, walking the powers of every z at once
    x, k = z.copy(), np.ones(z.size, dtype=np.int64)
    while not in_s[x].all():
        live = ~in_s[x]
        x[live] = t[x[live], z[live]]
        k += live
    covered = np.zeros(G.order, dtype=bool)
    for zi, p in zip(z.tolist(), k.tolist()):
        if covered[zi] or any(p % d == 0 for d in range(2, p)):
            continue
        cosets = [s]
        for _ in range(p - 1):
            cosets.append(t[cosets[-1], zi])
        members = np.concatenate(cosets)
        # each element of T outside S generates T over S
        covered[members] = True
        yield members, zi


def is_normal(K, H):
    """K normal in H (both subgroups of the same parent; K <= H assumed)."""
    G = K.parent
    for g in H.gens:
        for k in K.gens:
            if G.conj(k, g) not in K.members:
                return False
    return True


def normal_closure(S, within):
    """Smallest subgroup of `within` containing S and normal in `within`:
    the closure of the conjugates s^w of S's generators by every w in
    `within`, gathered at once."""
    G = S.parent
    t = G.table
    w = np.array(within.sorted_members, dtype=np.intp)[:, None]
    conj = t[t[G.inv[w], np.array(S.gens, dtype=np.intp)], w]
    return Subgroup(G, G._closure_members(conj.ravel().tolist()))


def right_transversal(H, within):
    """Representatives t with `within` the disjoint union of cosets H*t.

    The identity represents H itself; representatives are listed in
    increasing element order for determinism.
    """
    G = H.parent
    t = G.table
    seen = np.zeros(G.order, dtype=bool)
    hs = np.fromiter(H.members, dtype=np.int64)
    reps = []
    for g in sorted(within.members):
        if not seen[g]:
            reps.append(g)
            seen[t[hs, g]] = True
    return reps


def cyclic_coset_log(H, K):
    """Discrete logs of the cosets of K in H, or None if H/K is not cyclic.

    Tries the elements r of H in increasing order.  For the first r
    whose coset generates H/K, returns a length-|G| int64 array holding e
    at every element of the coset K r^e, and -1 outside H.  Raises
    NotSubgroup or NotNormal unless K is a normal subgroup of H.
    """
    G = H.parent
    if not K.members <= H.members:
        raise NotSubgroup("K is not contained in H")
    if not is_normal(K, H):
        raise NotNormal("K is not normal in H")
    t = G.table
    n = H.order // K.order
    ks = np.array(K.sorted_members, dtype=np.intp)
    in_k = np.zeros(G.order, dtype=bool)
    in_k[ks] = True
    # a walk that covers every coset overwrites all of H, so one array
    # serves every attempt
    log = np.full(G.order, -1, dtype=np.int64)
    for r in H.sorted_members:
        if log[r] >= 0:
            continue  # in <Kr'> for an earlier r' that did not generate
        x, e = 0, 0
        while e == 0 or not in_k[x]:
            log[t[ks, x]] = e
            x = int(t[x, r])
            e += 1
        if e == n:
            return log
    return None


# -- conjugacy ---------------------------------------------------------------


@dataclass(frozen=True, eq=False)
class ConjugacyPartition:
    """A partition of G into classes, as two read-only arrays.

    `class_of` holds the class id of each element and `reps` the least
    element of each class; ids are ordered by least element.
    """

    class_of: np.ndarray
    reps: np.ndarray
    kind: str

    @property
    def classes(self):
        """The classes as frozensets of elements, in id order."""
        members = np.argsort(self.class_of, kind="stable")
        bounds = np.cumsum(np.bincount(self.class_of))[:-1]
        return tuple(frozenset(c.tolist()) for c in np.split(members, bounds))


def _partition(labels, kind):
    """The partition whose classes are the level sets of `labels`, each
    label being the least element of its class."""
    reps, class_of = np.unique(labels, return_inverse=True)
    reps.setflags(write=False)
    class_of.setflags(write=False)
    return ConjugacyPartition(class_of, reps, kind)


def conjugacy_partition(G, kind="ordinary"):
    """Partition of G into ordinary, real or rational conjugacy classes.

    Ordinary classes are the fixpoint of least labels under conjugation
    by the generators: conjugation permutes G, so in a finite group what
    the generators reach from x is the class of x.  Real and rational
    classes are orbits of {1, -1} and of all of (Z/e)^x on the ordinary
    classes, read off `galois_classes`.  Memoized per group and kind; the
    result is immutable.
    """
    if kind not in ("ordinary", "real", "rational"):
        raise ValueError(f"unknown kind {kind!r}")
    cached = G._conjugacy.get(kind)
    if cached is not None:
        return cached
    if kind == "ordinary":
        t = G.table
        gens = np.array(G.generators, dtype=np.intp)[:, None]
        conj = t[t[G.inv[gens], np.arange(G.order)], gens]
        least = np.arange(G.order)
        while True:
            step = np.minimum(least, least[conj].min(axis=0))
            if np.array_equal(step, least):
                break
            least = step
        part = _partition(least, kind)
    else:
        ordinary = conjugacy_partition(G)
        P = galois_classes(G)
        # orbits of a group action: the least class id in each is one step away
        merged = np.minimum(P[0], P[-1]) if kind == "real" else P.min(axis=0)
        part = _partition(ordinary.reps[merged][ordinary.class_of], kind)
    G._conjugacy[kind] = part
    return part


def galois_classes(G):
    """The action of (Z/e)^x on G's ordinary classes, e the exponent of G.

    Row i holds the class of rep^t for each class representative rep,
    with t the i-th unit mod e in increasing order: row 0 is t = 1 and
    the last row t = -1.  The powers are walked with one table gather per
    t < e.  Memoized per group; read-only intp.
    """
    cached = G._conjugacy.get("galois")
    if cached is not None:
        return cached
    part = conjugacy_partition(G)
    e = lcm(*G.element_orders)
    rows, x = [part.class_of[part.reps]], part.reps
    for t in range(2, e):
        x = G.table[x, part.reps]
        if gcd(t, e) == 1:
            rows.append(part.class_of[x])
    P = np.array(rows)
    P.setflags(write=False)
    G._conjugacy["galois"] = P
    return P


# -- subnormality ------------------------------------------------------------


@dataclass
class SubnormalSeries:
    steps: list  # Subgroups, H = steps[0] <| ... <| steps[-1] = G


def subnormal_series(H, G=None):
    """Subnormal series from H to its parent via iterated normal closures.

    Raises NotSubnormal when the descending normal-closure chain stabilizes
    above H.
    """
    parent = H.parent if G is None else G
    top = parent.whole() if isinstance(parent, FiniteGroup) else parent
    chain = [top]
    while True:
        N = normal_closure(H, chain[-1])
        if N.members == chain[-1].members:
            break
        chain.append(N)
    if chain[-1].members != H.members:
        raise NotSubnormal(
            f"normal-closure chain stabilizes at order {chain[-1].order}"
        )
    return SubnormalSeries(steps=list(reversed(chain)))


def is_subnormal(H, G=None):
    try:
        subnormal_series(H, G)
        return True
    except NotSubnormal:
        return False


def check_cyclic_subnormal_hypothesis(G):
    """Check that <g> is subnormal for every g whose order divides neither 4 nor 6.

    Returns (True, None) or (False, witness element index).
    """
    done = set()
    for g in range(G.order):
        d = G.element_orders[g]
        if 4 % d == 0 or 6 % d == 0:
            continue
        H = subgroup_closure(G, [g])
        if H.members in done:
            continue
        done.add(H.members)
        if not is_subnormal(H):
            return False, g
    return True, None
