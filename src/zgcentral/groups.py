"""Exact finite-group arithmetic on materialized Cayley tables.

Elements are dense indices 0..order-1 with 0 the identity.  Groups up to
order 2048 are supported; the table is kept as an int32 matrix so that
multiplication is a single lookup.

A pc group on x_1..x_m is built as the tower of cyclic extensions
G_i = <x_i, G_(i+1)>, x_1^(e_1) ... x_m^(e_m) having the radix index with
x_1 most significant.  Each step checks Hoelder's conditions: conjugation
by x_i is an automorphism of G_(i+1) that fixes w = x_i^(p_i), and its
p_i-th power is conjugation by w.

A subgroup is closed by cyclic extension (Dimino): H grows by one seed
element g at a time.  If g normalizes H, <H, g> is the union of the
cosets H g^i, built by doubling with one gather per step; otherwise it is
a breadth-first search from H's members under the generators kept so far
and g.  `all_subgroups` extends by normal steps of prime index, whose
cosets it walks directly; it finds the index p of each step from the
power maps x -> x^p, one per prime dividing the order, computed once per
call by repeated squaring, z^p in S being one gather per prime.
A Subgroup's members are gathered over as one sorted index array, built
on first read (`sorted_members`).  A Subgroup gets its generators when it
is built, and nothing searches for them later; the greedy search runs
once per group, in `_validate`, as the generators the closure of all of
G keeps.  Normality reads them only: K's generators conjugated by H's,
one gather (`is_normal`).

Conjugacy is decided here and nowhere else: `conjugate` is the one
table gather of g^-1 h g, and `binary_power` the one repeated squaring,
which the other modules call too.  What a group remembers about its
classes is one record, `conjugacy_partition(G)`, built once: five
read-only arrays, the class of each element, the least element of each
class and of each element's class, the class of each representative's
inverse (`inverse`, which the rank formula's k reads) and the entries
the center degree sums (`trace_index`).  It holds arrays only, never G,
so G and its record form no reference cycle.  `center` reads Z(G) off
its class sizes; `conjugates` walks a subgroup's orbit under G's
generators.  `galois_classes` is the action of (Z/e)^x, e the
exponent, on the ordinary classes by g -> g^t, built on first read;
`galois_orbit_counts` counts its real and rational orbits.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from math import gcd, lcm, prod

import numpy as np

from .cyclotomic import factorize
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

# Most table entries a kernel gathers at once.
_GATHER_BLOCK = 1 << 16


class FiniteGroup:
    """A finite group given by its full multiplication table.

    Immutable after construction; all derived data (inverses, element
    orders, generators, conjugacy classes) is computed eagerly or cached.
    """

    def __init__(self, table, labels=None):
        table = np.ascontiguousarray(table, dtype=np.int32)
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
        if self.labels is not None and len(self.labels) != n:
            raise NotAGroup(f"{len(self.labels)} labels for a table of order {n}")
        self._validate()
        # "partition" -> ConjugacyPartition, "galois" -> array, "orbits" -> (int, int)
        self._conjugacy = {}

    # -- construction checks -------------------------------------------------

    def _validate(self):
        """Check the group axioms in blocks of at most _GATHER_BLOCK table
        entries, naming the first bad index; store `inv`, `element_orders`
        and `generators`."""
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
        self._orders = self._compute_element_orders()
        self._orders.setflags(write=False)
        self.element_orders = self._orders.tolist()
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
        """(members, kept): the member frozenset of the subgroup generated
        by `seed`, a sequence or array of element indices, and the seed
        elements kept as its generators.

        Cyclic extension (Dimino; Butler, Fundamental Algorithms for
        Permutation Groups, LNCS 559, ch. 5): H starts at 1 and takes the
        seed elements one at a time, largest element order first and the
        smallest index on ties, skipping those already in H, and `_extend`
        grows H to <H, g>.  Each kept element at least doubles H, so at
        most log2 of the order are kept.
        """
        in_seed = np.zeros(self.order, dtype=bool)
        in_seed[np.asarray(seed, dtype=np.intp)] = True
        in_seed[0] = False
        rest = np.flatnonzero(in_seed)
        rest = rest[np.argsort(-self._orders[rest], kind="stable")]
        member = np.zeros(self.order, dtype=bool)
        member[0] = True
        kept = []
        while rest.size:
            self._extend(member, kept, int(rest[0]))
            rest = rest[~member[rest]]
        return frozenset(np.flatnonzero(member).tolist()), kept

    def _extend(self, member, kept, g):
        """Grow H = <kept>, with membership mask `member`, to <H, g> for g
        outside H; `member` and `kept` are updated in place.

        If g normalizes H (one gather of the kept generators conjugated by
        g, always true for H = 1), <H, g> is the union of the cosets H g^i,
        i < k, with k the least power of g in H.  k divides the order of g,
        so when H != 1 it is found by testing g^(k/p) for the primes p
        dividing it.  The union is built by doubling (`_coset_walk`).
        Otherwise <H, g> is a breadth-first search from H's members under
        right multiplication by the kept generators and g, one gather of the
        frontier times them (at most |G| by 12 entries) per round.  A search
        over the right cosets of H, H times each new representative, gathers
        less but needs a dedupe per round, and timed 1.5-2.5x slower on S4,
        A4, D12, Q16 and paper-1000-86.
        """
        t = self.table
        h = np.flatnonzero(member)
        gens = np.array(kept, dtype=np.intp)
        if member[conjugate(self, gens, g)].all():
            k = self.element_orders[g]
            for p in factorize(k) if kept else ():
                while k % p == 0 and member[self.power(g, k // p)]:
                    k //= p
            # |<H, g>| = k |H| in a group; the cap bounds the block on a
            # table that is not one (`_validate` closes before Light's test)
            member[_coset_walk(self, h, g, min(k * h.size, self.order))] = True
        else:
            gens = np.append(gens, g)
            frontier = h
            while frontier.size:
                reached = np.zeros(self.order, dtype=bool)
                reached[t[frontier[:, None], gens]] = True
                reached &= ~member
                member |= reached
                frontier = np.flatnonzero(reached)
        kept.append(g)

    def _compute_element_orders(self):
        """Order of every element from prime power maps: for each p^v
        exactly dividing |G|, x = a^(|G|/p^v) has order p^j, the p-part of
        a's order, and j <= v is the number of p-th powers that take x to
        1.  Every loop is bounded, so this ends on any table."""
        t, n = self.table, self.order
        a = np.arange(n)
        orders = np.ones(n, dtype=np.int64)
        for p, v in factorize(n).items():
            x = _array_power(t, a, n // p**v)
            for _ in range(v):
                orders[x != 0] *= p
                x = _array_power(t, x, p)
        return orders

    # -- basic arithmetic ----------------------------------------------------

    def mul(self, a, b):
        return int(self.table[a, b])

    def power(self, a, k):
        """a^k for any integer k, by repeated squaring through the table."""
        k %= self.element_orders[a]
        return binary_power(a, k, lambda x, y: int(self.table[x, y])) if k else 0

    def label(self, a):
        if self.labels is not None:
            return self.labels[a]
        return str(a)

    def whole(self):
        return Subgroup(self, frozenset(range(self.order)), gens=self.generators)

    def trivial(self):
        return Subgroup(self, frozenset([0]), gens=[])


def binary_power(x, n, mul):
    """x^n for n >= 1 under the associative product `mul`, by repeated
    squaring from the lowest set bit of n: floor(log2 n) squares and one
    product per further set bit, none of them by the identity."""
    if n < 1:
        raise ValueError("binary_power needs n >= 1")
    out = None
    while True:
        if n & 1:
            out = x if out is None else mul(out, x)
        n >>= 1
        if not n:
            return out
        x = mul(x, x)


def _coset_walk(G, h, g, n):
    """The index array h, h g, h g^2, ... concatenated and cut at n
    entries, for n >= h.size: by doubling, the first j blocks joined by
    their products with g^j, one gather per step.  h = [0] lists the
    powers of g."""
    x = g
    while h.size < n:
        h = np.concatenate((h, G.table[h[: n - h.size], x]))
        x = int(G.table[x, x])
    return h[:n]


def _array_power(t, a, k):
    """a^k for every element of the index array a and k >= 0, through the
    table t: one gather per square and per further set bit of k."""
    return binary_power(a, k, lambda x, y: t[x, y]) if k else np.zeros_like(a)


def conjugate(G, h, g):
    """h^g = g^-1 h g, broadcast over the element indices or index arrays
    h and g.  h = None stands for all of G along a new last axis: for each
    g, row g^-1 of the table, then column g of the rows it names.  For a
    scalar g that is a row view and one gather; for an index array, one
    contiguous take of the rows g^-1 and one take from the flat table at
    x |G| + g, computed in intp."""
    t = G.table
    if h is None:
        if not isinstance(g, np.ndarray):
            return t[t[G.inv[g]], g]
        flat = t.take(G.inv[g], 0).astype(np.intp)
        flat *= G.order
        flat += g[..., None]
        return t.ravel().take(flat)
    return t[t[G.inv[g], h], g]


class Subgroup:
    """An immutable subgroup of a FiniteGroup: `members`, a frozenset of
    element indices as Python ints, not converted, and `sorted_members`,
    the same as a read-only increasing intp array built on first read.
    `gens` must generate them; the default, the non-identity members, does.
    """

    __slots__ = ("parent", "members", "_sorted", "_gens")

    def __init__(self, parent, members, gens=None):
        self.parent = parent
        self.members = frozenset(members)
        self._sorted = None
        self._gens = sorted(g for g in self.members if g) if gens is None else list(gens)

    @property
    def sorted_members(self):
        # sorted(), not np.sort, whose first call loads a 0.4 MB SIMD kernel
        if self._sorted is None:
            self._sorted = np.array(sorted(self.members), dtype=np.intp)
            self._sorted.setflags(write=False)
        return self._sorted

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
    """Greedy generators of the subgroup of G with the given members (a
    sequence): each is the member of largest order outside the closure of
    those before it, the smallest such index on ties.  These are the
    generators the closure of all the members keeps."""
    return G._closure_members(members)[1]


def subgroup_closure(G, gens):
    """The subgroup generated by the given element indices; it carries
    them as its generators, without the identity and repeats."""
    gens = list(dict.fromkeys(g for g in gens if g != 0))
    members, _ = G._closure_members(gens)
    return Subgroup(G, members, gens=gens)


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
    return FiniteGroup(table)


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
    """Every subgroup of G, sorted by (order, sorted member list).

    Cyclic extension (Neubüser, Numer. Math. 2 (1960)): each subgroup
    T != 1 of a solvable group is S<z> for some normal S of prime index p,
    with z in N(S) and z^p in S, so T is the union of the cosets S z^i,
    i < p, and needs no closure.  T carries the generators S.gens + [z].
    The power maps x -> x^p, one per prime p dividing |G|, are computed
    once per call by repeated squaring and shared by every S; they are not
    cached on G.
    Raises CapExceeded beyond LATTICE_CAP subgroups, and NotSolvable when
    G is not reached, which happens exactly when G is not solvable.
    """
    everything = np.arange(G.order)
    power_maps = [(p, _array_power(G.table, everything, p)) for p in factorize(G.order)]
    found = {frozenset([0]): G.trivial()}
    queue = list(found.values())
    for S in queue:  # breadth first: the queue grows while it is read
        for members, z in _cyclic_extensions(G, S, power_maps):
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
    return sorted(found.values(), key=lambda S: (S.order, sorted(S.members)))


def _cyclic_extensions(G, S, power_maps):
    """(members, z) for each T = S<z> containing S as a normal subgroup of
    prime index, with z the smallest element of T outside S.

    `power_maps` holds (p, x -> x^p) for each prime p dividing |G|.  For
    z outside S normalizing S, zS has prime order p in N(S)/S exactly when
    z^p is in S, so one gather per prime marks every candidate with its
    index; no z qualifies for two primes.
    """
    s, in_s = S.sorted_members, _mask(S)
    # z normalizes S when it conjugates each generator of S into S
    norm = ~in_s
    everything = np.arange(G.order)
    for h in S.gens:
        norm &= in_s[conjugate(G, h, everything)]
    index = np.zeros(G.order, dtype=np.int64)
    for p, power_p in power_maps:
        index[norm & in_s[power_p]] = p
    z = np.flatnonzero(index)
    covered = np.zeros(G.order, dtype=bool)
    for zi, p in zip(z.tolist(), index[z].tolist()):
        if covered[zi]:
            continue
        members = _coset_walk(G, s, zi, p * s.size)
        # each element of T outside S generates T over S
        covered[members] = True
        yield members, zi


def _mask(K):
    """K's membership mask over G."""
    in_k = np.zeros(K.parent.order, dtype=bool)
    in_k[K.sorted_members] = True
    return in_k


def is_normal(K, H):
    """K normal in H (both subgroups of the same parent; K <= H assumed)."""
    return _normalizes(H, K, _mask(K))


def _normalizes(H, K, in_k):
    """H normalizes K (mask `in_k`): K's generators conjugated by H's
    generators stay in K, one gather.  Conjugation by h is injective, so
    K^h inside K is K^h = K, and the elements that normalize K form a
    subgroup, which then holds H."""
    ks = np.array(K.gens, dtype=np.intp)
    hs = np.array(H.gens, dtype=np.intp)[:, None]
    return bool(in_k[conjugate(K.parent, ks, hs)].all())


def normal_closure(S, within):
    """Smallest subgroup of `within` containing S and normal in `within`:
    N starts as <S>, and the generators N keeps are conjugated by
    `within`'s generators, one gather, until no conjugate x^w falls
    outside N.  Conjugation by w is injective, so N^w ⊆ N means N^w = N,
    and the elements that normalize N form a subgroup, so `within`'s
    generators decide.  A conjugate outside N joins it as the commutator
    x^-1 x^w, the same subgroup since x is in N; it tends to have the
    larger order (a rotation, not a reflection, in a dihedral group), so
    the closure, which takes its seeds largest order first, extends
    normally and does not fall back to a search."""
    G = S.parent
    ws = np.array(within.gens, dtype=np.intp)[:, None]
    gens = S.gens
    while True:
        N = Subgroup(G, *G._closure_members(gens))
        xs = np.array(N.gens, dtype=np.intp)
        conj = conjugate(G, xs, ws)
        outside = ~_mask(N)[conj]
        if not outside.any():
            return N
        gens = N.gens + G.table[G.inv[xs], conj][outside].tolist()


def coset_least(H, xs=None):
    """The least member of each right coset H x, for x in xs or in all of
    G when xs is None: the min over H's rows of the table, in blocks of
    at most _GATHER_BLOCK entries, starting from row 0, x itself."""
    t = H.parent.table
    least = np.arange(len(t)) if xs is None else np.array(xs, dtype=np.intp)
    step = max(1, _GATHER_BLOCK // len(t))
    for start in range(0, H.order, step):
        rows = t.take(H.sorted_members[start : start + step], axis=0)
        np.minimum(least, (rows if xs is None else rows.take(xs, axis=1)).min(axis=0), out=least)
    return least


def right_transversal(H, within=None):
    """The least member of each right coset H t in `within`, all of G when
    None, in increasing order.  Many small cosets (|H| <= [within:H]) are
    read off `coset_least`, |H| table rows; a few large ones are marked
    off one at a time, the least member not yet seen coming next."""
    G = H.parent
    whole = within is None or within.order == G.order
    xs = np.arange(G.order) if whole else within.sorted_members
    index = xs.size // H.order
    if H.order <= index:
        return xs[coset_least(H, None if whole else xs) == xs].tolist()
    seen = np.ones(G.order, dtype=bool)
    seen[xs] = False
    reps = []
    for _ in range(index):
        reps.append(int(seen.argmin()))
        seen[G.table[H.sorted_members, reps[-1]]] = True
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
    ks, in_k = K.sorted_members, _mask(K)
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
    """G's ordinary conjugacy classes, as five read-only arrays and no
    reference to G.

    `class_of` holds the class id of each element and `reps` the least
    element of each class; ids are ordered by least element.  `least`
    holds the least element of each element's class, reps[class_of]: the
    labels the partition was built from, kept so that a test for class
    functions reads it without a gather.  `inverse` holds the class of
    rep^-1 for each representative rep, which `rank.k_of_pair` reads, and
    `trace_index` the element g^-1 least[g] for each g, the entries of a
    central element that `groupalgebra.center_component_dim` sums.
    """

    class_of: np.ndarray
    reps: np.ndarray
    least: np.ndarray
    inverse: np.ndarray
    trace_index: np.ndarray

    def __post_init__(self):
        for arr in (self.class_of, self.reps, self.least, self.inverse, self.trace_index):
            arr.setflags(write=False)

    @property
    def classes(self):
        """The classes as frozensets of elements, in id order."""
        members = np.argsort(self.class_of, kind="stable")
        bounds = np.cumsum(np.bincount(self.class_of))[:-1]
        return tuple(frozenset(c.tolist()) for c in np.split(members, bounds))


def conjugacy_partition(G):
    """The ordinary conjugacy classes of G, memoized per group.

    The classes are the fixpoint of least labels under conjugation by the
    generators: conjugation permutes G, so in a finite group what the
    generators reach from x is the class of x.  `inverse` and
    `trace_index` are one gather each, built with the partition.
    """
    part = G._conjugacy.get("partition")
    if part is None:
        conj = conjugate(G, None, np.array(G.generators, dtype=np.intp))
        least = np.arange(G.order)
        while True:
            step = np.minimum(least, least[conj].min(axis=0))
            if np.array_equal(step, least):
                break
            least = step
        reps, class_of = np.unique(least, return_inverse=True)
        part = G._conjugacy["partition"] = ConjugacyPartition(
            class_of, reps, least, class_of[G.inv[reps]], G.table[G.inv, least]
        )
    return part


def galois_classes(G):
    """The action of (Z/e)^x on G's ordinary classes, e the exponent of G.

    Row i holds the class of rep^t for each class representative rep,
    with t the i-th unit mod e in increasing order: row 0 is t = 1 and
    the last row t = -1.  The powers are walked with one table gather per
    t < e.  Memoized per group; read-only intp.
    """
    P = G._conjugacy.get("galois")
    if P is None:
        part = conjugacy_partition(G)
        e = lcm(*G.element_orders)
        rows, x = [part.class_of[part.reps]], part.reps
        for t in range(2, e):
            x = G.table[x, part.reps]
            if gcd(t, e) == 1:
                rows.append(part.class_of[x])
        P = G._conjugacy["galois"] = np.array(rows)
        P.setflags(write=False)
    return P


def galois_orbit_counts(G):
    """(real, rational): the numbers of orbits on the ordinary classes of
    {1, -1} and of all units mod the exponent, rows 0 and -1 and all rows
    of `galois_classes`.  Each orbit is counted at its least class id c:
    c <= P[-1][c] for a real one, c = min_i P[i][c] for a rational one.
    Memoized per group."""
    out = G._conjugacy.get("orbits")
    if out is None:
        P = galois_classes(G)
        ids = np.arange(P.shape[1])
        out = int(np.count_nonzero(ids <= P[-1])), int(np.count_nonzero(ids == P.min(axis=0)))
        G._conjugacy["orbits"] = out
    return out


def center(G):
    """The members of Z(G), the elements whose class has size 1."""
    class_of = conjugacy_partition(G).class_of
    return frozenset(np.flatnonzero(np.bincount(class_of)[class_of] == 1).tolist())


def conjugates(H):
    """The member sets of H's G-conjugates: H's orbit under conjugation by
    G's generators, with one table gather per orbit member covering all
    generators at once."""
    G = H.parent
    gens = np.array(G.generators, dtype=np.intp)[:, None]
    orbit = {H.members}
    frontier = [H.sorted_members]
    while frontier:
        hs = frontier.pop()
        for row in conjugate(G, hs, gens):
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


def cyclic_subgroups(G):
    """Yield (g, <g>) once per cyclic subgroup of G, g its least
    generator, in increasing g."""
    done = set()
    for g in range(G.order):
        if g not in done:
            H = subgroup_closure(G, [g])
            # H's members of order |H| generate H: none opens a new subgroup.
            done.update(m for m in H.members if G.element_orders[m] == H.order)
            yield g, H


def check_cyclic_subnormal_hypothesis(G):
    """Check that <g> is subnormal for every g whose order divides neither 4 nor 6.

    Returns (True, None) or (False, the least generator of the first
    cyclic subgroup that is not subnormal).
    """
    for g, H in cyclic_subgroups(G):
        d = G.element_orders[g]
        if 4 % d and 6 % d and not is_subnormal(H):
            return False, g
    return True, None
