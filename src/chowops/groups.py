"""Finite group engine: multiplication-table groups, subgroups,
centralizers, elementary abelian p-subgroups with their conjugation
category, and commuting p-torsion tuples up to simultaneous conjugation.

Everything is brute force with orbit deduplication, which is the right
tool at desk scale (orders into the hundreds; hard cap 10^4).
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field

import numpy as np

from . import fp_linalg as fl

MAX_ORDER = 10_000
ASSOC_CHECK_CAP = 512  # full associativity test is O(n^3)


class FiniteGroup:
    """Elements are 0..n-1 with 0 the identity; `table[a, b]` is ab."""

    def __init__(self, table, name=None, faithful_degree=None, _trusted=False):
        table = np.asarray(table, dtype=np.int32)
        if table.ndim != 2 or table.shape[0] != table.shape[1]:
            raise ValueError("multiplication table must be square")
        self.n = table.shape[0]
        if self.n == 0:
            raise ValueError("empty group")
        if self.n > MAX_ORDER:
            raise ValueError(f"order {self.n} exceeds the cap {MAX_ORDER}")
        self.table = table
        self.name = name or f"group{self.n}"
        self.faithful_degree = faithful_degree
        if not _trusted:
            self._validate()
        self._inv = np.empty(self.n, dtype=np.int32)
        for a in range(self.n):
            row = np.nonzero(table[a] == 0)[0]
            if row.size != 1:
                raise ValueError(f"element {a} has no unique inverse")
            self._inv[a] = row[0]

    def _validate(self):
        t = self.table
        n = self.n
        if (t < 0).any() or (t >= n).any():
            raise ValueError("table entries out of range")
        if (t[0] != np.arange(n)).any() or (t[:, 0] != np.arange(n)).any():
            raise ValueError("element 0 is not a two-sided identity")
        for a in range(n):
            if len(set(t[a])) != n or len(set(t[:, a])) != n:
                raise ValueError(f"row/column {a} is not a permutation")
        if n <= ASSOC_CHECK_CAP:
            for a in range(n):
                ta = t[a]
                # (ab)c == a(bc) for all b, c, vectorized over c
                for b in range(n):
                    if (t[ta[b]] != ta[t[b]]).any():
                        raise ValueError(
                            f"associativity fails at ({a}, {b}, ...)")

    # -- construction ----------------------------------------------------

    @classmethod
    def from_abelian(cls, orders, name=None):
        orders = [int(e) for e in orders]
        if any(e < 1 for e in orders):
            raise ValueError(f"cyclic orders must be positive: {orders}")
        n = 1
        for e in orders:
            n *= e
        if n > MAX_ORDER:
            raise ValueError(f"order {n} exceeds the cap {MAX_ORDER}")
        radix = list(itertools.product(*[range(e) for e in orders])) or [()]
        index = {t: i for i, t in enumerate(radix)}
        table = np.zeros((n, n), dtype=np.int32)
        for i, u in enumerate(radix):
            for j, v in enumerate(radix):
                table[i, j] = index[tuple((a + b) % e
                                          for a, b, e in zip(u, v, orders))]
        nm = name or ("Z" + "x".join(f"/{e}" for e in orders) if orders else "1")
        g = cls(table, name=nm, _trusted=True)
        g._validate()
        return g

    @classmethod
    def from_permutations(cls, generators, degree, name=None):
        """Close a set of permutations (one-line arrays on 0..degree-1)
        under composition; brute-force BFS with the order cap."""
        gens = []
        for g in generators:
            g = tuple(int(x) for x in g)
            if sorted(g) != list(range(degree)):
                raise ValueError(f"not a permutation of 0..{degree - 1}: {g}")
            gens.append(g)
        ident = tuple(range(degree))
        seen = {ident: 0}
        order = [ident]
        frontier = [ident]
        while frontier:
            nxt = []
            for a in frontier:
                for g in gens:
                    b = tuple(a[g[i]] for i in range(degree))
                    if b not in seen:
                        if len(order) >= MAX_ORDER:
                            raise ValueError(
                                f"permutation closure exceeds the cap {MAX_ORDER}")
                        seen[b] = len(order)
                        order.append(b)
                        nxt.append(b)
            frontier = nxt
        n = len(order)
        table = np.zeros((n, n), dtype=np.int32)
        for i, a in enumerate(order):
            for j, b in enumerate(order):
                table[i, j] = seen[tuple(a[b[k]] for k in range(degree))]
        g = cls(table, name=name or f"perm{n}", _trusted=True)
        if n <= ASSOC_CHECK_CAP:
            g._validate()
        g.permutations = order
        return g

    # -- basic operations -------------------------------------------------

    def __len__(self):
        return self.n

    def elements(self):
        return range(self.n)

    def mul(self, a, b):
        return int(self.table[a, b])

    def inv(self, a):
        return int(self._inv[a])

    def conj(self, g, x):
        """g x g^-1."""
        return self.mul(self.mul(g, x), self.inv(g))

    def power(self, x, k):
        out, base = 0, x
        k = int(k)
        while k:
            if k & 1:
                out = self.mul(out, base)
            base = self.mul(base, base)
            k >>= 1
        return out

    def element_order(self, x):
        k, y = 1, x
        while y != 0:
            y = self.mul(y, x)
            k += 1
        return k

    @property
    def is_abelian(self):
        return bool((self.table == self.table.T).all())

    def p_torsion(self, p):
        """All x with x^p = identity (the identity included)."""
        return [x for x in self.elements() if self.power(x, p) == 0]

    def subgroup_closure(self, gens):
        elems = {0}
        frontier = [0]
        gens = list(gens)
        while frontier:
            nxt = []
            for a in frontier:
                for g in gens:
                    b = self.mul(a, g)
                    if b not in elems:
                        elems.add(b)
                        nxt.append(b)
            frontier = nxt
        return tuple(sorted(elems))

    def centralizer_elements(self, subset):
        subset = list(subset)
        return tuple(g for g in self.elements()
                     if all(self.mul(g, s) == self.mul(s, g) for s in subset))

    def as_subgroup(self, elements, name=None):
        """Subgroup on the given closed element set, relabelled 0..k-1 with
        inherited multiplication.  Returns (group, parent_elements)."""
        elems = sorted(set(elements))
        if elems[0] != 0:
            raise ValueError("a subgroup must contain the identity")
        index = {e: i for i, e in enumerate(elems)}
        k = len(elems)
        table = np.zeros((k, k), dtype=np.int32)
        for i, a in enumerate(elems):
            for j, b in enumerate(elems):
                c = self.mul(a, b)
                if c not in index:
                    raise ValueError("element set is not closed under products")
                table[i, j] = index[c]
        sub = FiniteGroup(table, name=name or f"{self.name}-sub{k}",
                          _trusted=True)
        return sub, elems

    def __repr__(self):
        return f"<FiniteGroup {self.name!r} of order {self.n}>"


def centralizer(G: FiniteGroup, subset) -> FiniteGroup:
    """C_G(S) with inherited multiplication; accepts element iterables and
    HomClass representatives."""
    if isinstance(subset, HomClass):
        subset = subset.representative
    sub, _ = G.as_subgroup(G.centralizer_elements(subset))
    return sub


# ---------------------------------------------------------------------------
# abelian structure


def abelian_p_basis(G: FiniteGroup, p: int):
    """Independent generators of the Sylow p-subgroup of an abelian group,
    as (element, order) pairs with orders descending."""
    if not G.is_abelian:
        raise ValueError(f"{G.name} is not abelian")
    sylow = [x for x in G.elements()
             if _is_p_power(G.element_order(x), p)]
    span = {0}
    basis = []
    remaining = [x for x in sylow if x not in span]
    while len(span) < len(sylow):
        best = None
        for x in remaining:
            if x in span:
                continue
            o = G.element_order(x)
            # the cyclic group <x> meets `span` trivially iff its unique
            # minimal subgroup generator x^(o/p) is outside span
            if G.power(x, o // p) in span:
                continue
            if best is None or o > G.element_order(best):
                best = x
        if best is None:
            raise RuntimeError("basis extraction failed")  # unreachable
        basis.append((best, G.element_order(best)))
        span = set(G.subgroup_closure([b for b, _ in basis]))
        remaining = [x for x in remaining if x not in span]
    basis.sort(key=lambda t: (-t[1], t[0]))
    return basis


def _is_p_power(n, p):
    while n % p == 0:
        n //= p
    return n == 1


def abelian_coordinates(G: FiniteGroup, basis, x):
    """Exponents (c_1, ..., c_r) with x = prod b_i^{c_i}; brute force."""
    ranges = [range(o) for _, o in basis]
    for combo in itertools.product(*ranges):
        y = 0
        for (b, _), c in zip(basis, combo):
            y = G.mul(y, G.power(b, c))
        if y == x:
            return combo
    raise ValueError(f"element {x} is not in the span of the basis")


# ---------------------------------------------------------------------------
# elementary abelian subgroups and the conjugation/inclusion category


@dataclass(frozen=True)
class ElemAbelianSubgroup:
    parent: FiniteGroup
    elements: tuple  # sorted, identity first
    rank: int

    def __repr__(self):
        return f"<E rank {self.rank}: {list(self.elements)}>"


@dataclass(frozen=True)
class HomClass:
    """A conjugacy class of homomorphisms (Z/p)^r -> G, stored as the
    lexicographically least commuting p-torsion tuple in its orbit."""

    rank: int
    representative: tuple
    orbit_size: int


@dataclass
class QuillenCategoryData:
    """Conjugacy-class representatives of elementary abelian subgroups and,
    for each ordered pair, the conjugation-inclusion maps between them
    deduplicated by induced map."""

    objects: list
    # (i, j) -> list of (h, images) with h E_i h^-1 inside E_j; `images`
    # records h e h^-1 for e in objects[i].elements
    morphisms: dict = field(default_factory=dict)


def all_elementary_abelians(G: FiniteGroup, p: int):
    """Every elementary abelian p-subgroup (as sorted element tuples),
    including the trivial one."""
    torsion = [x for x in G.p_torsion(p) if x != 0]
    found = {(0,)}
    frontier = [(0,)]
    while frontier:
        nxt = []
        for E in frontier:
            eset = set(E)
            for x in torsion:
                if x in eset:
                    continue
                if any(G.mul(x, e) != G.mul(e, x) for e in E):
                    continue
                bigger = set()
                xs = [0]
                while True:
                    last = G.mul(xs[-1], x)
                    if last == 0:
                        break
                    xs.append(last)
                for e in E:
                    for xk in xs:
                        bigger.add(G.mul(e, xk))
                key = tuple(sorted(bigger))
                if key not in found:
                    found.add(key)
                    nxt.append(key)
        frontier = nxt
    return sorted(found, key=lambda t: (len(t), t))


def elementary_abelians(G: FiniteGroup, p: int):
    """Conjugacy classes of elementary abelian p-subgroups plus the full
    category data (morphisms = conjugations composed with inclusions)."""
    subgroups = all_elementary_abelians(G, p)
    orbits = {}
    for E in subgroups:
        orbit = {tuple(sorted(G.conj(g, e) for e in E)) for g in G.elements()}
        rep = min(orbit)
        orbits.setdefault(rep, set()).update(orbit)
    reps = sorted(orbits, key=lambda t: (len(t), t))
    objects = [ElemAbelianSubgroup(G, rep, _rank_of(len(rep), p))
               for rep in reps]
    data = QuillenCategoryData(objects=objects)
    for i, Ei in enumerate(reps):
        for j, Ej in enumerate(reps):
            ejset = set(Ej)
            seen = {}
            for h in G.elements():
                images = tuple(G.conj(h, e) for e in Ei)
                if set(images) <= ejset:
                    seen.setdefault(images, h)
            if seen:
                data.morphisms[(i, j)] = sorted(
                    (h, images) for images, h in seen.items())
    return objects, data


def _rank_of(size, p):
    r = 0
    while size > 1:
        if size % p:
            raise ValueError(f"subgroup size {size} is not a p-power")
        size //= p
        r += 1
    return r


# ---------------------------------------------------------------------------
# Rep(V, G): commuting p-torsion tuples up to simultaneous conjugation


def rep_classes(r: int, G: FiniteGroup, p: int):
    """Conjugacy classes of homomorphisms (Z/p)^r -> G: all r-tuples of
    pairwise commuting elements with x^p = 1 (non-injective ones included),
    modulo simultaneous conjugation."""
    if r < 0:
        raise ValueError("rank must be >= 0")
    if r > 3:
        raise ValueError("rank capped at 3 (brute-force enumeration)")
    torsion = G.p_torsion(p)
    tuples = []
    for t in itertools.product(torsion, repeat=r):
        ok = True
        for i in range(r):
            for j in range(i + 1, r):
                if G.mul(t[i], t[j]) != G.mul(t[j], t[i]):
                    ok = False
                    break
            if not ok:
                break
        if ok:
            tuples.append(t)
    remaining = set(tuples)
    classes = []
    for t in sorted(remaining):
        if t not in remaining:
            continue
        orbit = {tuple(G.conj(g, x) for x in t) for g in G.elements()}
        remaining -= orbit
        classes.append(HomClass(rank=r, representative=min(orbit),
                                orbit_size=len(orbit)))
    classes.sort(key=lambda c: c.representative)
    return classes


# ---------------------------------------------------------------------------
# file schema


def load_group(data, name=None) -> FiniteGroup:
    """Group file schema: {"order", "table"} | {"degree", "generators"} |
    {"abelian": [e_1, ...]}, with optional "name" and "faithful_degree"."""
    known = {"order", "table", "degree", "generators", "abelian", "name",
             "faithful_degree"}
    unknown = set(data) - known
    if unknown:
        raise ValueError(f"unknown group file fields: {sorted(unknown)}")
    shapes = [key for key in ("table", "generators", "abelian") if key in data]
    if len(shapes) > 1:
        raise ValueError(f"group file names more than one of {shapes}")
    for key, shape in (("order", "table"), ("degree", "generators")):
        if key in data and shape not in data:
            raise ValueError(f"'{key}' belongs only next to '{shape}'")
    for key, depth in (("order", 0), ("degree", 0), ("abelian", 1),
                       ("table", 2), ("generators", 2),
                       ("faithful_degree", 0)):
        if key in data:
            fl.check_ints(data[key], key, depth)
    name = data.get("name", name)
    fd = data.get("faithful_degree")
    if fd is not None and fd < 1:
        raise ValueError(f"faithful_degree: expected a positive integer, "
                         f"got {fd}")
    if "table" in data:
        table = data["table"]
        order = data.get("order", len(table))
        if len(table) != order:
            raise ValueError(f"table has {len(table)} rows, order says {order}")
        g = FiniteGroup(table, name=name)
    elif "generators" in data:
        if "degree" not in data:
            raise ValueError("permutation groups need a 'degree' field")
        g = FiniteGroup.from_permutations(
            data["generators"], data["degree"], name=name)
    elif "abelian" in data:
        g = FiniteGroup.from_abelian(data["abelian"], name=name)
    else:
        raise ValueError("group file needs 'table', 'generators', or 'abelian'")
    g.faithful_degree = fd
    return g
