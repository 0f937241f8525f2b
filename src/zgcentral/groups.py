"""Exact finite-group arithmetic on materialized Cayley tables.

Elements are dense indices 0..order-1 with 0 the identity.  Groups up to
order 2048 are supported; the table is kept as an int32 matrix so that
multiplication is a single lookup.

A pc group on x_1..x_m is built as the tower of cyclic extensions
G_i = <x_i, G_(i+1)>, x_1^(e_1) ... x_m^(e_m) having the radix index with
x_1 most significant.  Each step checks Hoelder's conditions: conjugation
by x_i is an automorphism of G_(i+1) that fixes w = x_i^(p_i), and its
p_i-th power is conjugation by w.

A Subgroup gets its generators when it is built, and nothing searches
for them later; the greedy search runs once per group, in `_validate`.

Conjugacy is decided here and nowhere else.  A `ConjugacyPartition` is
two read-only arrays, the class of each element and the least element of
each class, and `center` reads Z(G) off its class sizes; `conjugates`
walks a subgroup's orbit under G's generators.  `galois_classes` is the
action of (Z/e)^x, e the exponent, on the ordinary classes by g -> g^t;
the real and rational classes, the Galois stabilizer in `shoda.pci` and
k in `rank.k_of_pair` all read it.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from math import gcd, lcm, prod

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

# Most table entries gathered at once by the closure, normality and product kernels.
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
        self.element_orders = self._compute_element_orders()
        self._conjugacy = {}  # kind -> ConjugacyPartition, "galois" -> array

    # -- construction checks -------------------------------------------------

    def _validate(self):
        """Check the group axioms in blocks of at most _GATHER_BLOCK table
        entries, naming the first bad index; store `inv` and `generators`."""
        t = self.table
        n = self.order
        idperm = np.arange(n, dtype=np.int32)
        if not np.array_equal(t[0], idperm):
            raise NotAGroup("row 0 is not the identity permutation")
        if not np.array_equal(t[:, 0], idperm):
            raise NotAGroup("column 0 is not the identity permutation")
        rows = max(1, _GATHER_BLOCK // n)
        for start in range(0, n, rows):
            k = np.arange(min(rows, n - start))
            seen = np.zeros((2, k.size, n), dtype=bool)  # membership scatter
            seen[0, k[:, None], t[start : start + rows]] = True
            seen[1, k, t[:, start : start + rows]] = True
            bad = ~seen.all(axis=2)
            if bad.any():
                a = bad.any(axis=0).argmax()
                kind = "row" if bad[0, a] else "column"
                raise NotAGroup(f"{kind} {start + a} is not a permutation")
        self.inv = t.argmin(axis=1).astype(np.int32)  # where row a holds 0
        bad = np.flatnonzero(t[self.inv, idperm])
        if bad.size:
            raise NotAGroup(f"element {bad[0]} has no two-sided inverse")
        self.inv.setflags(write=False)
        # Light's test: if (x g) y = x (g y) for all x, y and every g in a
        # generating set, the elements g with that property are closed
        # under products, so the table is associative.
        self.generators = _subgroup_generators(self, range(n)) or [0]
        for g in self.generators:
            for start in range(0, n, rows):
                left = t[t[start : start + rows, g], :]
                right = t[start : start + rows][:, t[g, :]]
                if not np.array_equal(left, right):
                    a, b = np.argwhere(left != right)[0].tolist()
                    raise NotAGroup("associativity failure", witness=(start + a, g, b))

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

    def _compute_element_orders(self):
        """Order of every element, walking the powers of all at once."""
        t = self.table
        orders = np.ones(self.order, dtype=np.int64)
        a = np.arange(1, self.order)
        x = a
        while a.size:
            x = t[x, a]
            orders[a] += 1
            live = x != 0
            a, x = a[live], x[live]
        return orders.tolist()

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
    `gens` defaults to the non-identity members, which need no closure.
    """

    __slots__ = ("parent", "members", "sorted_members", "_gens")

    def __init__(self, parent, members, gens=None):
        self.parent = parent
        self.members = frozenset(members)
        self.sorted_members = tuple(sorted(self.members))
        self._gens = [g for g in self.sorted_members if g] if gens is None else list(gens)

    @property
    def order(self):
        return len(self.members)

    @property
    def gens(self):
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
    The search finds each e_j as e_p * s, s a generator, and R_s[i] = e_i * s
    for all i; column j of the table is column p mapped through R_s.
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
    parent = [(0, 0)]  # (p, s) with e_j = e_p * gens[s]
    right = np.zeros((len(gens), MAX_ORDER), dtype=np.int32)  # R_s[i]
    frontier = [0]
    while frontier:
        i = frontier.pop()
        for s, q in enumerate(gens):
            r = tuple(q[x] for x in elements[i])
            if r not in index:
                if len(elements) >= MAX_ORDER:
                    raise CapExceeded(f"permutation group exceeds order {MAX_ORDER}")
                index[r] = len(elements)
                elements.append(r)
                parent.append((i, s))
                frontier.append(index[r])
            right[s, i] = index[r]
    n = len(elements)
    table = np.empty((n, n), dtype=np.int32)
    table[:, 0] = np.arange(n)
    for j in range(1, n):
        p, s = parent[j]
        table[:, j] = right[s][table[:, p]]
    G = FiniteGroup(table)
    G.permutations = elements
    return G


def group_from_pc_presentation(orders, powers=None, commutators=None):
    """Group from a power-commutator presentation, one cyclic extension at
    a time.

    `orders` lists the relative order p_i >= 2 of each generator x_1..x_m.
    `powers` maps generator i (1-based) to a word in x_(i+1)..x_m for
    x_i^(p_i); `commutators` maps (j, i) with j > i to a word in
    x_(i+1)..x_m for [x_j, x_i].  Words are sequences of (generator,
    exponent) pairs with nonnegative exponents (negative allowed only when
    the generator's power relation is trivial).

    Element x_1^(e_1) ... x_m^(e_m), 0 <= e_i < p_i, has index
    sum e_i * p_(i+1) * ... * p_m: x_1 is the most significant digit, and
    G_i = <x_i, ..., x_m> holds the indices below |G_i|.  For i = m, ..., 1
    the table of G_i extends that of G_(i+1) by x = x_i, with x^p = w and
    phi(y) = x^-1 y x, phi(x_j) = x_j [x_j, x_i].  By Hoelder's theorem the
    extension exists exactly when phi (read over normal forms) is an
    automorphism of G_(i+1), phi(w) = w, and phi^p is conjugation by w;
    otherwise InconsistentPresentation names x_i and the failed condition.
    (x^a y)(x^b z) = x^(a+b) phi^b(y) z fills the table in p^2 blocks.
    """
    orders = [int(e) for e in orders]
    if any(e < 2 for e in orders):
        raise InconsistentPresentation("relative orders must be >= 2")
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
    comm_words = {
        (j, i): norm_word(commutators.get((j, i), ()), i, f"[x{j}, x{i}]")
        for j in range(1, ngen + 1)
        for i in range(1, j)
    }

    n = prod(orders)
    if n > MAX_ORDER:
        raise CapExceeded(f"presented order {n} exceeds {MAX_ORDER}")

    radix = [prod(orders[i:]) for i in range(1, ngen + 1)]  # x_i is |G_(i+1)|
    table = np.zeros((1, 1), dtype=np.int32)
    for i in range(ngen, 0, -1):
        p, s = orders[i - 1], table.shape[0]

        def value(word):
            x = 0
            for g, e in word:
                for _ in range(e % s):  # the order of x_g divides |G_(i+1)|
                    x = table[x, radix[g - 1]]
            return x

        w = value(power_words[i - 1])
        # phi on the block x_j^a y' of G_j is phi(x_j)^a phi(y')
        phi = np.zeros(s, dtype=np.int32)
        for j in range(ngen, i, -1):
            size = radix[j - 1]
            image = table[size, value(comm_words[(j, i)])]
            power = 0
            for a in range(1, orders[j - 1]):
                power = table[power, image]
                phi[a * size : (a + 1) * size] = table[power, phi[:size]]
        if np.bincount(phi, minlength=s).min() == 0:
            raise InconsistentPresentation(f"x{i}: conjugation by x{i} is not a bijection")
        for j in range(i + 1, ngen + 1):
            g = radix[j - 1]
            if not np.array_equal(phi[table[:, g]], table[phi, phi[g]]):
                raise InconsistentPresentation(
                    f"x{i}: conjugation by x{i} does not respect multiplication by x{j}"
                )
        if phi[w] != w:
            raise InconsistentPresentation(f"x{i}: conjugation by x{i} moves x{i}^{p}")
        phis = [np.arange(s, dtype=np.int32)]
        for _ in range(p):
            phis.append(phi[phis[-1]])
        if not np.array_equal(table[w, phis[p]], table[:, w]):
            raise InconsistentPresentation(
                f"x{i}: conjugation by x{i} to the power {p} is not conjugation by x{i}^{p}"
            )
        grown = np.empty((p * s, p * s), dtype=np.int32)
        for b in range(p):
            low, high = table[phis[b]], table[table[w, phis[b]]]
            for a in range(p):
                block = low if a + b < p else high
                grown[a * s : (a + 1) * s, b * s : (b + 1) * s] = block + (a + b) % p * s
        table = grown

    labels = [
        "*".join(f"x{i + 1}" + (f"^{e}" if e > 1 else "") for i, e in enumerate(t) if e)
        or "1"
        for t in itertools.product(*map(range, orders))
    ]
    G = FiniteGroup(table, labels=labels)
    G.pc_generators = radix
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
                    "subgroups; supply candidate pairs, and a chain for every "
                    "pair that is not strong, with --pairs-file"
                )
            found[key] = Subgroup(G, key, gens=S.gens + [z])
            queue.append(found[key])
    if frozenset(range(G.order)) not in found:
        raise NotSolvable(
            f"group of order {G.order} is not solvable, hence not monomial "
            "(Taketa's theorem), so no set of its Shoda pairs is complete; "
            "supply candidate pairs, and a chain for every pair that is not "
            "strong, with --pairs-file"
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


def _mask(K):
    """(members, in_k): K's sorted members as an index array, and its
    membership mask over G."""
    ks = np.array(K.sorted_members, dtype=np.intp)
    in_k = np.zeros(K.parent.order, dtype=bool)
    in_k[ks] = True
    return ks, in_k


def is_normal(K, H):
    """K normal in H (both subgroups of the same parent; K <= H assumed)."""
    return _normalizes(H, K, _mask(K)[1])


def _normalizes(H, K, in_k):
    """K's generators conjugated by every member of H stay in K (mask
    `in_k`), gathered in blocks of at most _GATHER_BLOCK entries.  H's
    generators are not read."""
    G = K.parent
    t = G.table
    ks = np.array(K.gens, dtype=np.intp)
    hs = np.array(H.sorted_members, dtype=np.intp)[:, None]
    rows = max(1, _GATHER_BLOCK // max(ks.size, 1))
    for start in range(0, hs.size, rows):
        h = hs[start : start + rows]
        if not in_k[t[t[G.inv[h], ks], h]].all():
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
    ks, in_k = _mask(K)
    if not _normalizes(H, K, in_k):
        raise NotNormal("K is not normal in H")
    t = G.table
    n = H.order // K.order
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


def center(G):
    """The members of Z(G), the elements whose class has size 1."""
    class_of = conjugacy_partition(G).class_of
    return frozenset(np.flatnonzero(np.bincount(class_of)[class_of] == 1).tolist())


def conjugates(H):
    """The member sets of H's G-conjugates: H's orbit under conjugation by
    G's generators, with one table gather per orbit member covering all
    generators at once."""
    G = H.parent
    t = G.table
    gens = np.array(G.generators, dtype=np.intp)[:, None]
    gens_inv = G.inv[gens]
    orbit = {H.members}
    frontier = [np.array(H.sorted_members, dtype=np.intp)]
    while frontier:
        hs = frontier.pop()
        for row in t[t[gens_inv, hs], gens]:
            key = frozenset(row.tolist())
            if key not in orbit:
                orbit.add(key)
                frontier.append(row)
    return orbit


# -- subnormality ------------------------------------------------------------


@dataclass
class SubnormalSeries:
    steps: list  # Subgroups, H = steps[0] <| ... <| steps[-1] = G


def subnormal_series(H):
    """Subnormal series from H to its parent via iterated normal closures.

    Raises NotSubnormal when the descending normal-closure chain stabilizes
    above H.
    """
    chain = [H.parent.whole()]
    while True:
        N = normal_closure(H, chain[-1])
        if N.members == chain[-1].members:
            break
        chain.append(N)
    if chain[-1].members != H.members:
        raise NotSubnormal(
            f"normal-closure chain stabilizes at order {chain[-1].order}"
        )
    chain[-1] = H  # the caller's H, with its generators
    return SubnormalSeries(steps=list(reversed(chain)))


def is_subnormal(H):
    try:
        subnormal_series(H)
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
