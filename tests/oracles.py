"""Brute-force reference implementations that the tests compare against,
and the corpus of groups they are compared on.

The character oracles use `Cyclotomic` values with Fraction field
arithmetic and Galois sums throughout, reduced modulo Phi_n by long
division, and share no code with the integer character kernel in
`zgcentral.shoda` and `zgcentral.cyclotomic.reduction_matrix`: each pair
gets its own linear character, built from a generating coset of H/K by
walking powers, and the central character value is summed one field
product per support element.  The idempotent oracle normalizes the
Galois sum by one QG squaring, the way `zgcentral` did before it read
the Galois stabilizer off the class power map.  The character oracles
take their classes from `conjugacy_classes`, a breadth-first search
under conjugation by G's generators, the way `zgcentral` found them
before its least-label fixpoint; the tests check that partition and
`zgcentral.groups.galois_classes` against `G.power`.
`merged_class_counts` counts the real and rational classes by merging
those classes under powers, the way `zgcentral` built the real and
rational partitions before its oracle counted Galois orbits; the tests
check `zgcentral.rank.rank_oracle` against it.  The normal-closure
oracle closes again after every conjugate that falls outside, the loop
`zgcentral` ran before it closed all conjugates at once.  The group-algebra
oracles work on sparse `{index: Fraction}` dicts with no stored zeros,
the representation that `zgcentral.groupalgebra` used before its
`(den, vec)` elements.  The coset oracles build H/K as a group of its
own, with a projection map, the way `zgcentral` did before it read the
cosets off G's table, and `epsilon`
is the product over the minimal normal overgroups of K found in that
quotient, the formula `zgcentral` used before its Ramanujan-sum gather;
the chain oracles start from it.  QG's sums, differences, multiples,
products and powers (`qg_add`, `qg_sub`, `qg_scale`, `qg_mul`, `qg_pow`)
are free functions here, on the same `_element`, `_combine` and
`_convolve` kernels, since no library path takes them: a `QGElement` is
a value.  `right_transversal` steps through
every member of `within`, marking off the coset of each one not yet seen,
the loop `zgcentral` ran before `coset_least` and its per-coset marking;
the quotient, c-unit and z-unit oracles take their transversals from it.
`closure_members` is the breadth-first search over elements, one
gather of the frontier times the seed per round, that `zgcentral` closed
subgroups with before it extended them one seed element at a time, and
`power` walks k table lookups where `zgcentral` squares.
`cyclic_table` is C_n's table as nested lists of Python ints, which
`zgcentral` built before it filled one int32 array.
The subgroup-lattice oracle closes S + g for every known subgroup S and
every g outside it, the way `zgcentral` did before its cyclic extension.
`cyclic_extension_lattice` is that cyclic extension as `zgcentral` ran
it before its power maps: the index of each step S < S<z> is the order
of zS, found by walking the powers of every candidate z up to the
exponent, then tested for primality by trial division.
The chain-search oracle lists the overgroups of each subgroup it visits
the same way, one closure per element outside, where `zgcentral` reads
them off the lattice.  Its `level_check` and `verify_chain` carry
e_i up the chain as `zgcentral` does, e_0 = epsilon(H, K) and e_(i+1)
the sum of e_i's H_(i+1)-orbit, but each orbit is a breadth-first search
under the generators that hashes whole QG vectors, and the centralizer
is filtered one element at a time, where `zgcentral` reads both off one
right transversal of the step below.  `is_normal` here loops over pairs
of generators, one conjugate at a time, where `zgcentral` gathers all
of them at once; the quotient, coset-log, Shoda-test and chain oracles
all use it.
The Shoda test loops over every g outside H and h in H, and the
generalized Bass unit is found by multiplying out powers in QG and
inverting each, the ways `zgcentral` did before its table gather and its
closed form.  `cyclic_convolve` is the schoolbook product in
Z[x]/(x^d - 1) that `zgcentral` ran before its `np.convolve` kernel.
`conjugate_gram` gathers each conjugate a^t at every element of G, the
kernel `zgcentral` ran before it read a^t at supp(a)^t alone.
`shoda_pair_candidates` gives every Shoda pair: it runs
`zgcentral`'s Shoda test on every K <= H of the whole lattice, each K
with a fresh copy of H's coset table, so that every coset log is walked
and no K is refused for holding one that failed, the enumeration
`zgcentral` ran before it kept one H above Z(G) per conjugacy class and
remembered its H; the tests that need every pair read it.
`walked_coset_log` is the coset walk `zgcentral` ran before it collected
each attempt's powers and wrote their cosets with one scatter: one
scatter of a coset per step.  `inverse` here is the only inversion left anywhere: it
finds the first integer relation among the powers of the element by
fraction-free elimination.  `zgcentral` never solves for an inverse,
since every unit it builds carries its own, and `gen_bass_unit` and the
unit tests check those carried inverses against this one.  The
center-degree oracle is the rank of the class sums times e, found by
Bareiss fraction-free elimination over the integers, the way `zgcentral`
did before it read that dimension off as a trace, and `is_idempotent`
squares in full, where `zgcentral` compares e^2 with e at one element
per class.  The group
constructors are the ones `zgcentral` ran before it built pc groups by
cyclic extension and permutation tables from the right-regular action:
a pc group by collection from the left, one word per normal-form tail
and generator, and a permutation group by composing all n^2 pairs of
permutation tuples.  `table_reason`, `inverses` and `element_orders`
are its per-row and per-element loops from before it checked tables in
blocks; `zgcentral` now reads element orders off prime power maps.
`Cyclotomic` is the Fraction value of Q(zeta_n) that
`zgcentral` held the central character value in before its exact
(n, row, den), and `log_rank_witness` embeds it in floats one
coefficient and one (unit, pair) at a time, the archimedean witness
`zgcentral` ran before its p-adic one; the tests use it only on small
units, where floats suffice.  `padic_rank` is the p-adic witness in
Python ints one entry at a time, at the second admissible prime where
`zgcentral` takes the first.  `galois_pci` is the integer
Galois-orbit sum that `zgcentral` took each candidate's idempotent by
before it read the idempotent off its strong inductive chain's top: the
tests compare `chain.top` against it, and it against the Fraction `pci`.
`z_central_unit` takes two nested conjugate products per chain level,
over the right transversals of H_i in its centralizer C_i and of C_i in
H_(i+1), the way `zgcentral` did before each level kept the one
transversal of H_i in H_(i+1) that its check read.  Both it and
`c_central_unit` multiply every conjugate over a transversal in order,
r - 1 products per side (`ordered_conjugate_product`), the way
`zgcentral` did before it took each distinct conjugate once and raised
their product to the multiplicity.  `convolve` is the group-algebra
kernel as `zgcentral` ran it before its matrix-vector product: each
block of Cayley-table rows broadcast against a's coefficients and
summed.  `induced_counts` is the count matrix that `zgcentral` read
class rows through before it summed rows of `reduction_matrix` at the
coset logs: per class, one count of each power of zeta_n that the
induced character sums there, which times `reduction_matrix` gives the
class rows.
"""

import cmath
import json
import math
from dataclasses import dataclass, replace
from fractions import Fraction
from functools import cache, reduce
from importlib import resources
from math import gcd, lcm

import numpy as np

from zgcentral.catalog import catalog
from zgcentral.cli import parse_pairs_file
from zgcentral import groups, shoda
from zgcentral.cyclotomic import cyclotomic_polynomial, euler_phi, ramanujan_row
from zgcentral.errors import (
    CapExceeded,
    InconsistentPresentation,
    NotAGroup,
    NotInvertible,
    NotNormal,
    NotSolvable,
    NotSubgroup,
    NotSubnormal,
    ZgError,
)
from zgcentral.groupalgebra import QGElement, _combine, _convolve, _element, hat
from zgcentral.groups import (
    MAX_ORDER,
    FiniteGroup,
    Subgroup,
    cyclic_subgroups,
    subgroup_closure,
    subnormal_series,
)
from zgcentral.units import BassSpec, bass_specs_for, bass_unit
from zgcentral.units import c_central_unit as verified_c_central_unit
from zgcentral.units import central_character_value as exact_omega

# catalog groups whose every Shoda pair is checked against the oracles
CORPUS = ("S4", "D12", "Q16", "C24", "C60", "D25", "E25")


# -- QG arithmetic on (den, vec) ---------------------------------------------------


def _same_group(a, b):
    if a.group is not b.group:
        raise ValueError("elements live over different groups")


def qg_add(a, b):
    """a + b, over the lcm of the denominators, by one `_combine`."""
    _same_group(a, b)
    den = lcm(a.den, b.den)
    return _element(a.group, den, _combine([(den // a.den, a.vec), (den // b.den, b.vec)]))


def qg_neg(a):
    return QGElement._of(a.group, a.den, -a.vec)


def qg_sub(a, b):
    return qg_add(a, qg_neg(b))


def qg_scale(a, q):
    """q * a for a rational q."""
    q = Fraction(q)
    return _element(a.group, a.den * q.denominator, _combine([(q.numerator, a.vec)]))


def qg_mul(a, b):
    """a * b at all of G, by one `_convolve` on the numerators."""
    _same_group(a, b)
    return _element(a.group, a.den * b.den, _convolve(a.group, a.vec, b.vec))


def qg_pow(a, k):
    """a^k for k >= 0 by repeated squaring; QG solves for no inverse, so a
    negative k raises ValueError."""
    if k < 0:
        raise ValueError("negative power: QG has no inversion; use Unit.inverse")
    return groups.binary_power(a, k, qg_mul) if k else QGElement.one(a.group)


def qg_sum(elements, G):
    """The sum of the QG elements over G, 0 when there are none."""
    return reduce(qg_add, elements, QGElement.zero(G))


def qg_coeff(a, g):
    """a's coefficient at the group element g, a Fraction."""
    return Fraction(int(a.vec[g]), a.den)


@cache
def small_catalog(max_order=60):
    """(name, group) for every catalog group of order at most `max_order`,
    built once per session."""
    built = ((e.name, e.constructor()) for e in catalog())
    return [(name, G) for name, G in built if G.order <= max_order]


def paper9_pairs(G):
    """(H, K) of the nine pairs in paper9.json, in the order-1000 group G."""
    with resources.files("zgcentral.data").joinpath("paper9.json").open() as fh:
        return [(H, K) for H, K, _ in parse_pairs_file(G, json.load(fh))]


# -- group construction by collection and by tuple composition -------------------


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
    """`zgcentral.groups.group_from_pc_presentation` by collection: right
    multiplication by each generator is collected into every tail of the
    normal forms, and column h of the table extends the column of h's
    predecessor by one generator."""
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
            if g <= floor:
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

    # the relations of x_g..x_m involve no earlier generator, so x * x_g
    # only depends on the tail of x from x_g on
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
    G.pc_generators = [
        tup_to_idx(tuple(1 if j == i else 0 for j in range(ngen))) for i in range(ngen)
    ]
    G.generator_names = [f"x{i + 1}" for i in range(ngen)]
    return G


def cyclic_table(n):
    """C_n's Cayley table (i + j) mod n as n lists of n Python ints, the
    way `zgcentral.catalog.cyclic` built it before its one int32 array."""
    return [[(i + j) % n for j in range(n)] for i in range(n)]


def group_from_permutations(degree, generators):
    """`zgcentral.groups.group_from_permutations` with the table filled by
    composing every pair of permutation tuples."""
    idp = tuple(range(degree))
    gens = [tuple(int(x) for x in p) for p in generators]
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


def table_reason(table):
    """The reason for the first row or column of `table` that is not a
    permutation, row a before column a; None when every one is."""
    n = len(table)
    for a in range(n):
        if len(set(table[a])) != n:
            return f"row {a} is not a permutation"
        if len({row[a] for row in table}) != n:
            return f"column {a} is not a permutation"
    return None


def inverses(G):
    """The inverse of each element: where its row holds the identity."""
    return [int(np.flatnonzero(G.table[a] == 0)[0]) for a in range(G.order)]


def element_orders(G):
    """The order of each element, walking its powers one product at a time."""
    orders = [1] * G.order
    for a in range(1, G.order):
        x, k = a, 1
        while x != 0:
            x = int(G.table[x, a])
            k += 1
        orders[a] = k
    return orders


def power(G, a, k):
    """a^k, one table lookup per factor."""
    x = 0
    for _ in range(k % G.element_orders[a]):
        x = int(G.table[x, a])
    return x


def closure_members(G, seed):
    """Member set of the subgroup generated by `seed`: a breadth-first
    search from the identity under right multiplication by the seed, one
    gather of the frontier rows and seed columns per round."""
    t = G.table
    gens = np.array(sorted({int(s) for s in seed} - {0}), dtype=np.intp)
    member = np.zeros(G.order, dtype=bool)
    member[0] = True
    frontier = np.zeros(1, dtype=np.intp)
    while frontier.size:
        reached = np.zeros(G.order, dtype=bool)
        reached[t[np.ix_(frontier, gens)]] = True
        reached &= ~member
        member |= reached
        frontier = np.flatnonzero(reached)
    return set(np.flatnonzero(member).tolist())


# -- the subgroup lattice by closures ---------------------------------------------


def all_subgroups(G):
    """Every subgroup of G, sorted by (order, sorted member list): the closures
    of S + g for every subgroup S found so far and every g outside S."""
    seen = {}
    triv = G.trivial()
    seen[triv.members] = triv
    frontier = [triv]
    while frontier:
        S = frontier.pop()
        for g in sorted(set(range(G.order)) - S.members):
            T = subgroup_closure(G, S.gens + [g])
            if T.members not in seen:
                seen[T.members] = T
                frontier.append(T)
    return sorted(seen.values(), key=lambda S: (S.order, sorted(S.members)))


def cyclic_extension_lattice(G):
    """Every subgroup of G, sorted by (order, sorted member list), by cyclic
    extension over normal steps of prime index: the index of each step is
    the order k of zS, found by walking the powers of every candidate z
    at once, one gather per power, and kept when k passes trial division.
    Raises CapExceeded and NotSolvable where `zgcentral.groups` does."""
    t = G.table
    found = {frozenset([0]): G.trivial()}
    queue = list(found.values())
    for S in queue:
        s = S.sorted_members
        in_s = np.zeros(G.order, dtype=bool)
        in_s[s] = True
        cand = ~in_s
        for h in S.gens:
            cand &= in_s[t[t[G.inv, h], np.arange(G.order)]]
        z = np.flatnonzero(cand)
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
            covered[members] = True
            key = frozenset(members.tolist())
            if key in found:
                continue
            if len(found) == groups.LATTICE_CAP:
                raise CapExceeded(f"more than {groups.LATTICE_CAP} subgroups")
            found[key] = Subgroup(G, key, gens=S.gens + [zi])
            queue.append(found[key])
    if frozenset(range(G.order)) not in found:
        raise NotSolvable(f"group of order {G.order} is not solvable")
    return sorted(found.values(), key=lambda S: (S.order, sorted(S.members)))


def is_normal(K, H):
    """K normal in H: every generator of K conjugated by every generator
    of H stays in K, one conjugate at a time."""
    G = K.parent
    return all(conjugate(G, k, g) in K.members for g in H.gens for k in K.gens)


def conjugate_orbit(a, N):
    """The distinct conjugates of the QG element `a` under N, by a
    breadth-first search under N's generators that hashes whole vectors."""
    seen = {a}
    frontier = [a]
    while frontier:
        x = frontier.pop()
        for g in N.gens:
            y = x.conj(g)
            if y not in seen:
                seen.add(y)
                frontier.append(y)
    return seen


def filter_centralizer(a, within):
    """{g in `within` : a^g = a} as a Subgroup, one element at a time."""
    return Subgroup(a.group, [g for g in within.members if a.conj(g) == a])


def level_check(Hi, Hnext, ei):
    """The level conditions for Hi <= Hnext and the idempotent e_i: its
    centralizer in Hnext is filtered one element at a time, Hi must lie
    in it and be normal there, and e_i must be orthogonal to every other
    member of its Hnext-orbit.  (centralizer, sum of the orbit), the
    latter being e_(i+1), or None."""
    if not Hi.members <= Hnext.members:
        return None
    cen = filter_centralizer(ei, Hnext)
    if not (Hi.members <= cen.members and is_normal(Hi, cen)):
        return None
    orbit = conjugate_orbit(ei, Hnext)
    for d in orbit:
        if d != ei and not qg_mul(ei, d).is_zero():
            return None
    return cen, qg_sum(orbit, ei.group)


def verify_chain(G, H, K, steps):
    """The chain through `steps` with its centralizers and top when every
    level passes `level_check`, e_0 = epsilon(H, K), else None;
    transversals are left empty."""
    chain = shoda.StrongInductiveChain(steps=list(steps), top=epsilon(H, K))
    for Hi, Hnext in zip(steps, steps[1:]):
        level = level_check(Hi, Hnext, chain.top)
        if level is None:
            return None
        cen, chain.top = level
        chain.centralizers.append(cen)
    return chain


def find_strong_inductive_chain(G, H, K):
    """A strong inductive chain from H to G, or None: the one-step chain
    if it passes, else a depth-first search over the closures S + g for g
    outside S, smallest first, carrying e_i and memoizing subgroups with
    no chain to G."""
    whole = G.whole()
    one_step = verify_chain(G, H, K, [H, whole])
    if one_step is not None:
        return one_step
    dead = set()

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

    def dfs(prefix, ei):
        cur = prefix[-1]
        for nxt in extensions(cur):
            if nxt.members in dead:
                continue
            level = level_check(cur, nxt, ei)
            if level is None:
                continue
            if nxt.members == whole.members:
                return prefix + [nxt]
            found = dfs(prefix + [nxt], level[1])
            if found is not None:
                return found
        dead.add(cur.members)
        return None

    steps = dfs([H], epsilon(H, K))
    return None if steps is None else verify_chain(G, H, K, steps)


# -- Q(zeta_n) with its Fraction field arithmetic --------------------------------


class DivisionByZero(ZgError):
    pass


class BadExponent(ZgError):
    pass


def _trim(c):
    while c and c[-1] == 0:
        c.pop()
    return c


def _reduce_mod_phi(n, dense):
    """Power-basis coefficients of sum dense[k] * zeta_n^k, by long
    division by the monic Phi_n."""
    phin = cyclotomic_polynomial(n)
    phi = len(phin) - 1
    dense = list(dense) + [Fraction(0)] * max(0, phi - len(dense))
    for k in range(len(dense) - 1, phi - 1, -1):
        q = dense[k]
        if q:
            for i, a in enumerate(phin):
                dense[k - phi + i] -= q * a
    return dense[:phi]


def _poly_mul_frac(a, b):
    out = [Fraction(0)] * (len(a) + len(b) - 1) if a and b else []
    for i, x in enumerate(a):
        if x:
            for j, y in enumerate(b):
                out[i + j] += x * y
    return _trim(out)


@dataclass(frozen=True, eq=False)
class Cyclotomic:
    """An exact element of Q(zeta_n), with field arithmetic: `c` holds its
    Fraction coefficients on the power basis zeta^0..zeta^(phi(n)-1).
    Mixed conductors are lifted to the lcm, and equality compares the
    lifted coefficients."""

    n: int
    c: tuple

    @classmethod
    def from_powers(cls, n, powers):
        """Sum of coeff * zeta_n^k for {k: coeff} in `powers`."""
        dense = [Fraction(0)] * n
        for k, coeff in powers.items():
            dense[k % n] += Fraction(coeff)
        return cls(n, tuple(_reduce_mod_phi(n, dense)))

    @classmethod
    def rational(cls, q, n=1):
        return cls.from_powers(n, {0: q})

    @classmethod
    def zero(cls, n=1):
        return cls.rational(0, n)

    def lift(self, N):
        """The same value in Q(zeta_N); n must divide N."""
        if N == self.n:
            return self
        if N % self.n != 0:
            raise ValueError(f"cannot lift conductor {self.n} into {N}")
        step = N // self.n
        powers = {i * step: q for i, q in enumerate(self.c) if q}
        return self.from_powers(N, powers)

    def _pair(self, other):
        if not isinstance(other, Cyclotomic):
            other = Cyclotomic.rational(other)
        N = self.n * other.n // gcd(self.n, other.n)
        return self.lift(N), other.lift(N)

    def is_zero(self):
        return all(q == 0 for q in self.c)

    def as_rational(self):
        """The value as a Fraction, or None if it is irrational."""
        if any(q for q in self.c[1:]):
            return None
        return self.c[0]

    def __add__(self, other):
        a, b = self._pair(other)
        return Cyclotomic(a.n, tuple(x + y for x, y in zip(a.c, b.c)))

    __radd__ = __add__

    def __neg__(self):
        return Cyclotomic(self.n, tuple(-x for x in self.c))

    def __sub__(self, other):
        a, b = self._pair(other)
        return Cyclotomic(a.n, tuple(x - y for x, y in zip(a.c, b.c)))

    def __rsub__(self, other):
        return (-self) + other

    def __mul__(self, other):
        a, b = self._pair(other)
        prod = _poly_mul_frac(list(a.c), list(b.c))
        return Cyclotomic.from_powers(a.n, dict(enumerate(prod)))

    __rmul__ = __mul__

    def inv(self):
        """Multiplicative inverse via the extended Euclidean algorithm."""
        if self.is_zero():
            raise DivisionByZero("inverse of zero")
        r0 = [Fraction(c) for c in cyclotomic_polynomial(self.n)]
        r1 = _trim(list(self.c))
        # xgcd(a, Phi_n) over Q[x]: find s with s*a == gcd (a unit) mod Phi_n
        s0, s1 = [], [Fraction(1)]
        while r1:
            q = []
            rem = list(r0)
            while len(rem) >= len(r1) and rem:
                factor = rem[-1] / r1[-1]
                deg = len(rem) - len(r1)
                while len(q) <= deg:
                    q.append(Fraction(0))
                q[deg] += factor
                for j, y in enumerate(r1):
                    rem[deg + j] -= factor * y
                _trim(rem)
            r0, r1 = r1, rem
            qs1 = _poly_mul_frac(q, s1)
            news = [Fraction(0)] * max(len(s0), len(qs1))
            for i, v in enumerate(s0):
                news[i] += v
            for i, v in enumerate(qs1):
                news[i] -= v
            s0, s1 = s1, _trim(news)
        if len(r0) != 1:
            raise DivisionByZero("element is a zero divisor in the chosen basis")
        g = r0[0]
        return Cyclotomic.from_powers(self.n, {i: v / g for i, v in enumerate(s0)})

    def __truediv__(self, other):
        if not isinstance(other, Cyclotomic):
            other = Cyclotomic.rational(other)
        return self * other.inv()

    def __pow__(self, k):
        if k < 0:
            return self.inv() ** (-k)
        out = Cyclotomic.rational(1, self.n)
        for _ in range(k):
            out = out * self
        return out

    def __eq__(self, other):
        try:
            a, b = self._pair(other)
        except (TypeError, ValueError):
            return NotImplemented
        return a.c == b.c

    # equality lifts conductors, so coefficient-based hashing would be unsound
    __hash__ = None

    def embeddings(self):
        """Complex values at every primitive n-th root of unity, one
        coefficient at a time."""
        out = []
        for m in range(1, self.n + 1):
            if gcd(m, self.n) == 1:
                z = cmath.exp(2j * cmath.pi * m / self.n)
                out.append(sum(float(q) * z**i for i, q in enumerate(self.c)))
        return out

    def to_json(self):
        return {
            "n": self.n,
            "coeffs": {str(i): str(q) for i, q in enumerate(self.c) if q},
        }

    def galois(self, m):
        """Image under zeta_n -> zeta_n^m; requires gcd(m, n) = 1."""
        if gcd(m, self.n) != 1:
            raise BadExponent(f"gcd({m}, {self.n}) != 1")
        return Cyclotomic.from_powers(
            self.n, {(i * m) % self.n: q for i, q in enumerate(self.c) if q}
        )

    def conjugate(self):
        return self.galois(self.n - 1)

    def is_real(self):
        return self == self.conjugate()


def cyc(n, k=1, coeff=1):
    """coeff * zeta_n^k."""
    return Cyclotomic.from_powers(n, {k: coeff})


@dataclass(frozen=True)
class GaloisMap:
    """The automorphism of Q(zeta_n) sending zeta_n to zeta_n^m."""

    n: int
    m: int

    def __post_init__(self):
        if gcd(self.m, self.n) != 1:
            raise BadExponent(f"gcd({self.m}, {self.n}) != 1")

    def __call__(self, x):
        return galois_apply(self, x)


def galois_apply(sigma, x):
    if x.n != sigma.n:
        if sigma.n % x.n != 0:
            raise ValueError("conductor of value does not divide the map's")
        x = x.lift(sigma.n)
    return x.galois(sigma.m)


def galois_group(n):
    """All automorphisms of Q(zeta_n)/Q; has euler_phi(n) elements."""
    return [GaloisMap(n, m) for m in range(1, n + 1) if gcd(m, n) == 1]


# -- the quotient group H/K ----------------------------------------------------


def right_transversal(H, within):
    """The least member of each right coset H t in `within`, in increasing
    order: one step per member of `within`, marking off the coset of each
    member not yet seen."""
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
    abelian = np.array_equal(Q.table, Q.table.T)
    return abelian and max(Q.element_orders) == Q.order


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


def walked_coset_log(H, K):
    """`zgcentral.groups.cyclic_coset_log`'s array, walked one step at a
    time: for each r of H in increasing order whose coset no earlier
    attempt wrote, write K x at e and step x to x r until x falls in K;
    the first r that writes [H:K] cosets generates H/K.  None when H/K is
    not cyclic; raises NotSubgroup or NotNormal unless K is normal in H."""
    G = H.parent
    if not K.members <= H.members:
        raise NotSubgroup("K is not contained in H")
    if not is_normal(K, H):
        raise NotNormal("K is not normal in H")
    t = G.table
    ks = np.array(sorted(K.members), dtype=np.intp)
    n = H.order // K.order
    log = np.full(G.order, -1, dtype=np.int64)
    for r in sorted(H.members):
        if log[r] >= 0:
            continue
        x, e = 0, 0
        while e == 0 or x not in K.members:
            log[t[ks, x]] = e
            x = int(t[x, r])
            e += 1
        if e == n:
            return log
    return None


def is_shoda_pair(G, H, K):
    """K normal in H, H/K cyclic, and for every g outside H some
    commutator [h, g] with h in H lies in H but not in K; one commutator
    per (g, h)."""
    if not (K.members <= H.members and is_normal(K, H)):
        return False
    if not is_cyclic(quotient(H, K)[0]):
        return False
    for g in set(range(G.order)) - H.members:
        comms = {commutator(G, h, g) for h in H.members}
        if not comms & (H.members - K.members):
            return False
    return True


def shoda_pair_candidates(G):
    """Every Shoda pair (H, K) of G in lattice order of H and then of K:
    every K <= H of the whole lattice takes `zgcentral`'s Shoda test with
    nothing remembered of H, the enumeration `zgcentral` ran before it
    took H above Z(G), one per conjugacy class."""
    subgroups = groups.all_subgroups(G)
    out = []
    for H in subgroups:
        table = shoda._coset_conjugates(H)  # its gather shared by every K below H
        out += [
            (H, K)
            for K in subgroups
            if K.members <= H.members
            and shoda._shoda_character(H, K, replace(table, walked=[], failed=[])) is not None
        ]
    return out


def commutator(G, a, b):
    """a^-1 b^-1 a b, one product at a time."""
    return G.mul(G.mul(G.mul(int(G.inv[a]), int(G.inv[b])), a), b)


def conjugate(G, a, g):
    """g^-1 a g, one product at a time."""
    return G.mul(G.mul(int(G.inv[g]), a), g)


def normal_closure(S, within):
    """Smallest subgroup of `within` containing S and normal in it: close
    again after each conjugate of a current generator by a generator of
    `within` that falls outside, until none does."""
    G = S.parent
    gens = list(S.gens)
    current = subgroup_closure(G, gens)
    changed = True
    while changed:
        changed = False
        for x in list(current.gens):
            for w in within.gens:
                c = conjugate(G, x, w)
                if c not in current.members:
                    gens.append(c)
                    current = subgroup_closure(G, gens)
                    changed = True
    return current


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
    out.sort(key=lambda S: (S.order, sorted(S.members)))
    return out


# -- the idempotents epsilon(H, K) and e(N, H, K) --------------------------------


def epsilon(H, K):
    """The product of (hat(K) - hat(L)) over the minimal normal subgroups
    L of H properly containing K; hat(K) when H = K."""
    hk = hat(K)
    out = hk
    for L in minimal_normal_overgroups(H, K):
        out = qg_mul(out, qg_sub(hk, hat(L)))
    return out


def is_complete(G, pairs):
    """True when the pairs' idempotents sum to 1: one `qg_add` per pair,
    the fold `zgcentral.shoda` ran before it combined the numerators once."""
    return qg_sum((p.pci for p in pairs), G) == QGElement.one(G)


def e_sum_conjugates(N, H, K):
    """Sum of the distinct N-conjugates of epsilon(H, K)."""
    eps = epsilon(H, K)
    return qg_sum({eps.conj(g) for g in N.members}, H.parent)


# -- QG elements as {index: Fraction} dicts --------------------------------------


def as_dict(a):
    """The coefficients of a QGElement as a {index: Fraction} dict."""
    return {g: qg_coeff(a, g) for g in a.support}


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


def convolve(a, b, cols=None):
    """The numerators of a * b at `cols`, or at all of G, in blocks of
    Cayley-table rows over a's support: each block's rows of b scaled by
    a's coefficients by broadcasting and summed, the kernel `zgcentral`
    ran before its matrix-vector product.  Python ints throughout."""
    G = a.group
    A = a.vec.astype(object)
    B = b.vec.astype(object)
    width = G.order if cols is None else len(cols)
    acc = np.zeros(width, dtype=object)
    support = np.flatnonzero(a.vec)
    block = max(1, 2**16 // width)
    for start in range(0, support.size, block):
        g = support[start : start + block]
        ginv = G.inv[g]
        rows = G.table[ginv] if cols is None else G.table[ginv[:, None], cols]
        acc += (A[g, None] * B[rows]).sum(axis=0)
    return acc


def conjugate_gram(a, ts):
    """(g, s) for a's numerators v and the index array ts, from whole
    conjugates: v^t at every element of G, v at t y t^-1 for each y, one
    gather of |ts| table rows (`zgcentral.groups.conjugate`), g[j] =
    v . v^t for t = ts[j] and s the sum of the v^t, the full-row kernel
    `zgcentral` ran before it read a's conjugates at supp(a)^t alone.
    Python ints throughout."""
    G = a.group
    v = a.vec.astype(object)
    conj = v[groups.conjugate(G, None, G.inv[np.asarray(ts, dtype=np.intp)])]
    return conj @ v, conj.sum(axis=0)


def inverse(G, a):
    """a^-1 for a = {g: q}, from the first integer relation c_0 + c_1 b +
    ... + c_d b^d = 0 among the powers of b = m a, m the common
    denominator: b^-1 = -(c_1 + c_2 b + ... + c_d b^(d-1)) / c_0.

    Each power of b, an integer vector, is reduced against the earlier
    ones by fraction-free elimination, v -> (p v - v_i w) / c with w the
    pivot row, p its pivot and c the content of the result, so every
    division is exact; the combination of powers rides along.
    NotInvertible for zero and for zero divisors."""
    if not a:
        raise NotInvertible("zero has no inverse")
    m = lcm(*(Fraction(q).denominator for q in a.values()))
    b = {g: int(q * m) for g, q in a.items()}
    basis = []  # (pivot, row, combination of powers)
    powers = []
    power = {0: 1}
    while True:
        vec, combo = dict(power), [0] * len(powers) + [1]
        for pivot, row, rcombo in basis:
            q = vec.get(pivot)
            if q:
                p = row[pivot]
                for g in vec.keys() | row.keys():
                    vec[g] = p * vec.get(g, 0) - q * row.get(g, 0)
                combo = [p * x - q * y for x, y in zip(combo, rcombo + [0] * len(combo))]
                c = gcd(*vec.values(), *combo)
                vec = {g: x // c for g, x in vec.items() if x}
                combo = [x // c for x in combo]
        if not vec:
            break
        basis.append((min(vec), vec, combo))
        powers.append(power)
        power = mul(G, power, b)
    if not combo[0]:
        raise NotInvertible("element is a zero divisor")
    out = {}
    for ci, power in zip(combo[1:], powers):
        out = add(out, {g: ci * x for g, x in power.items()})
    return {g: Fraction(-x * m, combo[0]) for g, x in out.items()}


# -- the center degree by elimination -------------------------------------------


def integer_rank(rows):
    """Rank over Q of a list of integer rows (Bareiss fraction-free
    elimination)."""
    rows = [list(r) for r in rows if any(r)]
    rank = 0
    ncols = len(rows[0]) if rows else 0
    col = 0
    prev_pivot = 1
    while rows and col < ncols:
        piv = next((i for i in range(rank, len(rows)) if rows[i][col]), None)
        if piv is None:
            col += 1
            continue
        rows[rank], rows[piv] = rows[piv], rows[rank]
        top = rows[rank]
        p = top[col]
        for i in range(rank + 1, len(rows)):
            # Every row below the pivot takes the Bareiss step, also one
            # whose pivot-column entry is 0: skipping its scaling by p would
            # make the later divisions by prev_pivot inexact.
            r = rows[i]
            q = r[col]
            for j in range(col, ncols):
                r[j] = (r[j] * p - q * top[j]) // prev_pivot
        # a row that has become zero stays zero: drop it
        rows[rank + 1 :] = [r for r in rows[rank + 1 :] if any(r)]
        prev_pivot = p
        rank += 1
        col += 1
        if rank == len(rows):
            break
    return rank


def is_idempotent(a):
    """a * a == a, by one full QG product."""
    return qg_mul(a, a) == a


def center_component_dim(e):
    """dim_Q of Z(QG) e: the rank of the products of e with the sums of
    the `conjugacy_classes`, a Q-basis of Z(QG)."""
    G = e.group
    sums = [QGElement(G, dict.fromkeys(cl, 1)) for cl in conjugacy_classes(G)[0]]
    # each row is a positive multiple of the product, which keeps the rank;
    # tolist() gives Python ints, which cannot overflow
    return integer_rank(qg_mul(cs, e).vec.tolist() for cs in sums)


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
    width = max(1, groups._GATHER_BLOCK // T.size)
    for j in range(0, cols.size, width):
        E = lam.coset_log[groups.conjugate(G, cols[j : j + width], T_inv)]
        w = E.shape[1]
        # exponent -1 (outside H) lands in the spare slot n of its row
        slots = E % (n + 1) + (n + 1) * np.arange(w)
        block = np.bincount(slots.ravel(), minlength=w * (n + 1))
        counts[j : j + w] = block.reshape(w, n + 1)
    return counts[:, :n]


def conjugacy_classes(G):
    """(classes, class_of): the ordinary classes of G as frozensets in
    order of least element, found by breadth-first search under
    conjugation by G's generators, and the class index of each element."""
    class_of = [-1] * G.order
    classes = []
    for g in range(G.order):
        if class_of[g] != -1:
            continue
        orbit = {g}
        frontier = [g]
        while frontier:
            x = frontier.pop()
            for s in G.generators:
                y = conjugate(G, x, s)
                if y not in orbit:
                    orbit.add(y)
                    frontier.append(y)
        for x in orbit:
            class_of[x] = len(classes)
        classes.append(frozenset(orbit))
    return classes, class_of


def merged_class_counts(G):
    """(real, rational): the number of real and of rational classes of G.
    The `conjugacy_classes` are merged, the class of g with that of g^-1
    for the real ones, and with that of g^t for every t prime to |g| for
    the rational ones, the powers of one representative per class walked
    one table lookup at a time; the merges are kept as a union-find over
    class ids."""
    classes, class_of = conjugacy_classes(G)

    def count(keep):
        root = list(range(len(classes)))

        def find(c):
            while root[c] != c:
                c = root[c]
            return c

        for cl in classes:
            g = min(cl)
            d, x = G.element_orders[g], 0
            for t in range(1, d + 1):
                x = int(G.table[x, g])
                if keep(t, d):
                    a, b = sorted((find(class_of[g]), find(class_of[x])))
                    root[b] = a
        return sum(find(c) == c for c in range(len(classes)))

    return (
        count(lambda t, d: t == d - 1),
        count(lambda t, d: gcd(t, d) == 1),
    )


def class_values(G, H, K):
    """Induced character value at each ordinary class representative."""
    n = H.order // K.order
    exponents = character_exponents(G, H, K)
    return [
        (cl, induced_value(G, H, exponents, n, min(cl)))
        for cl in conjugacy_classes(G)[0]
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
    a2 = qg_mul(a, a)
    g0 = a.support[0]
    r = qg_coeff(a2, g0) / qg_coeff(a, g0)
    assert r > 0 and a2 == qg_scale(a, r), "induced character is not irreducible"
    return qg_scale(a, 1 / r)


def galois_pci(lam):
    """The primitive central idempotent realized by the Shoda pair of the
    character `lam`, as its integer Galois-orbit sum.

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
    G = lam.H.parent
    n, rows = lam.order, lam.class_rows
    P = groups.galois_classes(G)
    # equal rows have equal fingerprints, also where the int64 dot wraps
    f = rows @ np.arange(1, rows.shape[1] + 1)
    fixed = sum(np.array_equal(rows[p], rows) for p in P[(f[P] == f).all(axis=1)])
    stabilizer = euler_phi(n) * fixed // len(P)
    trace = rows @ ramanujan_row(n)[: rows.shape[1]]
    # the coefficient of g^-1 is trace(g) / (|H| |S|)
    class_of = groups.conjugacy_partition(G).class_of
    return QGElement.from_vec(G, trace[class_of][G.inv], den=lam.H.order * stabilizer)


def k_of_pair(G, H, K):
    """1 if every induced character value is real, else 2."""
    return 1 if all(v.is_real() for _, v in class_values(G, H, K)) else 2


def central_character_value(G, H, K, v):
    """The scalar by which v acts on the component of (H, K): the induced
    character at each support element times its coefficient, summed one
    field product at a time, over the character degree."""
    values = {}
    for cl, x in class_values(G, H, K):
        values.update(dict.fromkeys(cl, x))
    total = Cyclotomic.zero(H.order // K.order)
    for g in v.support:
        total = total + values[g] * qg_coeff(v, g)
    return total / values[0]


# Singular values of the float log matrix at or below this count as zero.
WITNESS_TOLERANCE = 1e-6


def log_rank_witness(G, units, pairs):
    """The archimedean log-rank witness one (unit, pair) at a time: the
    library's exact omega row over its denominator as a Fraction
    `Cyclotomic`, embedded one coefficient at a time, log|sigma(u)| taken
    as -log|sigma(u^-1)| where |sigma(u)| < 1, and singular values above
    WITNESS_TOLERANCE counted.  Floats lose the small embeddings of units
    with large coefficients, so it is right only on small units."""
    if not units:
        return 0

    def abs_embeddings(p, v):
        n, row, den = exact_omega(G, p, v)
        omega = Cyclotomic(n, tuple(Fraction(x, den) for x in row))
        return [abs(z) for z in omega.embeddings()]

    rows = []
    for cu in units:
        row = []
        for p in pairs:
            zs = abs_embeddings(p, cu.value)
            ws = abs_embeddings(p, cu.inverse) if min(zs) < 1 else zs
            row += [math.log(z) if z >= 1 else -math.log(w) for z, w in zip(zs, ws)]
        rows.append(row)
    sv = np.linalg.svd(np.array(rows, dtype=float), compute_uv=False)
    return int(np.sum(sv > WITNESS_TOLERANCE))


def _is_prime(n):
    return n > 1 and all(n % d for d in range(2, math.isqrt(n) + 1))


def padic_rank(G, units, pairs):
    """The p-adic log-rank witness at the second admissible prime, in Python
    ints one entry at a time.

    p is the second odd prime = 1 mod e (e the lcm of the [H:K]) that does
    not divide |G|, N the largest integer with p^N < 2^31 and N < p, and
    zeta_e the Teichmüller lift of g^((p-1)/e), g a primitive root mod p.
    Each sigma_m(omega(u)) is the library's exact omega row summed against
    powers of zeta_n one coefficient at a time, its log is the series
    sum_{k<N} (-1)^(k+1) (y-1)^k / k mod p^N at y = x^(p-1), divided by p,
    and the rank mod p^(N-1) counts the pivots of an elimination that
    always takes an entry of least p-adic valuation."""
    if not units:
        return 0
    e = lcm(*(pair.lam.order for pair in pairs))
    admissible = (
        p for p in range(e + 1, 10**7, e) if p % 2 and _is_prime(p) and G.order % p
    )
    next(admissible)
    p = next(admissible)
    N = 1
    while N + 1 < p and p ** (N + 1) < 2**31:
        N += 1
    q, M = p**N, p ** (N - 1)
    primes = [r for r in range(2, p) if (p - 1) % r == 0 and _is_prime(r)]
    g = next(x for x in range(2, p) if all(pow(x, (p - 1) // r, p) != 1 for r in primes))
    zeta = pow(pow(g, (p - 1) // e, p), M, q)

    def log(x):
        if x % p == 0:
            raise NotInvertible(f"{x} is 0 mod {p}")
        t = pow(x, p - 1, q) - 1
        total = sum((-1) ** (k + 1) * t**k * pow(k, -1, q) for k in range(1, N))
        return total % q // p

    rows = []
    for cu in units:
        row = []
        for pair in pairs:
            n, coeffs, den = exact_omega(G, pair, cu.value)
            zeta_n = pow(zeta, e // n, q)
            inv_den = pow(int(den), -1, q)
            for m in range(1, n + 1):
                if gcd(m, n) == 1:
                    x = sum(int(c) * pow(zeta_n, i * m, q) for i, c in enumerate(coeffs))
                    row.append(log(x * inv_den % q))
        rows.append(row)

    rank = 0
    while rows and rows[0]:
        entries = [(i, j) for i, row in enumerate(rows) for j, x in enumerate(row) if x % M]
        if not entries:
            break
        i, j = min(entries, key=lambda ij: _valuation(rows[ij[0]][ij[1]], p))
        v = _valuation(rows[i][j], p)
        w_inv = pow(rows[i][j] // p**v, -1, M)
        pivot = rows.pop(i)
        rows = [
            [(x - (row[j] // p**v) * w_inv * y) % M for x, y in zip(row, pivot)]
            for row in rows
        ]
        rows = [row[:j] + row[j + 1 :] for row in rows]
        rank += 1
    return rank


def _valuation(x, p):
    v = 0
    while x % p == 0:
        x //= p
        v += 1
    return v


# -- generalized Bass units by powers ----------------------------------------------


def cyclic_convolve(a, b, d):
    """a * b in Z[x]/(x^d - 1), one product per pair of nonzero entries."""
    out = [0] * d
    for i, x in enumerate(a):
        if x:
            for j, y in enumerate(b):
                if y:
                    out[(i + j) % d] += x * y
    return out



def gen_bass_unit(G, g, M, k, m, cap):
    """(n_b, b^n_b, its inverse) for b = 1 - hat(M) + u_{k,m}(g) hat(M) and
    n_b the least n with b^n a unit of ZG: one QG product per power, and
    the Fraction `inverse` of each integral power, kept when it is
    integral.  None when n_b > cap."""
    hm = hat(M)
    b = qg_add(qg_sub(QGElement.one(G), hm), qg_mul(bass_unit(G, BassSpec(g, k, m)).value, hm))
    p = b
    for n in range(1, cap + 1):
        if p.is_integral():
            inv = inverse(G, as_dict(p))
            if all(q.denominator == 1 for q in inv.values()):
                return n, p, QGElement(G, inv)
        p = qg_mul(p, b)
    return None


# -- the c-construction as ordered products ---------------------------------------


def ordered_conjugate_product(value, inverse, reps):
    """(value^t_1 * ... * value^t_r, inverse^t_r * ... * inverse^t_1) for
    reps = [t_1, ..., t_r]: r - 1 products per side, in the order given,
    with the inverse as the reversed product of the conjugated inverses."""
    return (
        reduce(qg_mul, [value.conj(t) for t in reps]),
        reduce(qg_mul, [inverse.conj(t) for t in reversed(reps)]),
    )


def c_central_unit(u, series, transversals=None):
    """The c-construction of the Unit u up the series as (value, inverse):
    one ordered product of conjugates per step, over the supplied
    transversal or the least right transversal, with no check."""
    steps = series.steps
    c, cinv = u.value, u.inverse
    for i in range(len(steps) - 1):
        reps = right_transversal(steps[i], steps[i + 1]) if transversals is None else transversals[i]
        c, cinv = ordered_conjugate_product(c, cinv, reps)
    return c, cinv


def bass_central_units(G):
    """Theorem 1's full sweep as (BassSpec, Unit) pairs: the c-construction
    on the Bass unit of every spec of `bass_specs_for(G, g)`, k = 1 and
    k > |g|/2 included, for each subnormal <g>, g its least generator.  It
    is the set `units.bass_central_units` cuts to 1 < k < |g|/2."""
    out = []
    for g, H in cyclic_subgroups(G):
        try:
            series = subnormal_series(H)
        except NotSubnormal:
            continue
        for spec in bass_specs_for(G, g):
            out.append((spec, verified_c_central_unit(bass_unit(G, spec), series)))
    return out


# -- the z-construction as two nested products per level ------------------------


def _splits(v, e):
    """Whether v - v e is an integer multiple of 1 - e."""
    w = qg_sub(QGElement.one(v.group), e)
    p = qg_sub(v, qg_mul(v, e))
    if w.is_zero():
        return p.is_zero()
    g = w.support[0]
    c = qg_coeff(p, g) / qg_coeff(w, g)
    return c.denominator == 1 and p == qg_scale(w, c)


def z_central_unit(u, pair):
    """The z-construction of the Unit u along pair's chain, as (value,
    inverse), or None where a precondition fails: u and its inverse
    integral, supported in H and splitting as Z(1 - e) + (ZH)e with
    e = epsilon(H, K), u central in ZH and value * inverse = 1, and each
    z_i central in ZH_i, every one checked by conjugation by every member.
    Level i takes the conjugates of z_i^|H_i| over the right transversal
    of H_i in the centralizer C_i, then the conjugates of their product
    over the right transversal of C_i in H_(i+1): the two nested products
    `zgcentral` took before each level kept one transversal."""
    H = pair.H
    z, zinv = u.value, u.inverse
    for v in (z, zinv):
        if not (v.is_integral() and set(v.support) <= H.members):
            return None
    if qg_mul(z, zinv) != QGElement.one(H.parent):
        return None
    if not all(_splits(v, pair.lam.epsilon) for v in (z, zinv)):
        return None
    chain = pair.chain
    for Hi, cen, nxt in zip(chain.steps, chain.centralizers, chain.steps[1:]):
        if any(z.conj(h) != z for h in Hi.members):
            return None
        z, zinv = qg_pow(z, Hi.order), qg_pow(zinv, Hi.order)
        for reps in (right_transversal(Hi, cen), right_transversal(cen, nxt)):
            z, zinv = ordered_conjugate_product(z, zinv, reps)
    return z, zinv
