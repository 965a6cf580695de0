"""Finite group engine: multiplication-table groups, subgroups,
centralizers, the elementary abelian p-subgroups of an abelian group with
their inclusions, and commuting p-torsion tuples up to simultaneous
conjugation.

Everything is array passes over a dense int32 multiplication table:
powers and element orders by repeated squaring through it, a subgroup
closure by one table gather per breadth-first level, the orbits of
commuting tuples by labelling along conjugation by a generating set, and
a permutation group's table one breadth-first level at a time.  On a
2-vCPU VM, S7 (order 5040, a 100 MB table) is built in about 0.2 s and
its rank-3 `rep_classes` take about 0.03 s.  The hard cap is order 10^4,
where the table alone takes 400 MB.  A subgroup is a sorted tuple of G's
elements, read off G's table; it never gets a table of its own.

A table read from a file is validated by array passes too: the
Latin-square checks by one occurrence matrix each way and, up to order
ASSOC_CHECK_CAP, associativity by Light's test, two n x n table gathers
per element of a generating set.  On a 2-vCPU VM, S5 (order 120) is
validated in about 0.4 ms and (Z/2)^9 (order 512) in about 20 ms.  The
tables that `from_abelian` and `from_permutations` build are groups by
construction and are not validated.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from . import fp_linalg as fl

MAX_ORDER = 10_000
# Light's associativity test (`FiniteGroup._validate`) runs only on a
# table read from a file, and costs two n x n gathers per generator of
# it; above this order associativity is not checked
ASSOC_CHECK_CAP = 512
MAX_REP_RANK = 3  # rep_classes enumerates every r-tuple of p-torsion


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
        # the inverse of a is the one 0 in row a; the 0s are found a block
        # of rows at a time, so no n x n temporary is made
        n = self.n
        zeros = np.concatenate([np.flatnonzero(table[i:i + 256] == 0) + i * n
                                for i in range(0, n, 256)])
        bad = np.flatnonzero(np.bincount(zeros // n, minlength=n) != 1)
        if bad.size:
            raise ValueError(f"element {bad[0]} has no unique inverse")
        self._inv = (zeros % n).astype(np.int32)

    def _validate(self):
        """Refuse a table that is not a group, naming the first failure:
        entries out of range, no two-sided identity 0, a row or column
        that is not a permutation, and, up to order ASSOC_CHECK_CAP, a
        failure of associativity.

        Associativity is Light's test (Clifford and Preston, The Algebraic
        Theory of Semigroups I, 1961, section 1.2): a Latin square with an
        identity is associative iff (xg)y = x(gy) for all x, y and every g
        in a generating set, since the g that satisfy it are closed under
        products.  `generating_set` reads only the table and right
        multiplication, so it is valid before associativity is known.
        Each generator costs two n x n gathers; only a failing table runs
        the full double loop, to name its first (a, b)."""
        t = self.table
        n = self.n
        if (t < 0).any() or (t >= n).any():
            raise ValueError("table entries out of range")
        if (t[0] != np.arange(n)).any() or (t[:, 0] != np.arange(n)).any():
            raise ValueError("element 0 is not a two-sided identity")
        # row (then column) a is a permutation when every value occurs in
        # it: one boolean occurrence matrix over the whole table
        index = np.arange(n)
        bad = np.zeros(n, dtype=bool)
        for rows in (index[:, None], index[None, :]):
            seen = np.zeros((n, n), dtype=bool)
            seen[rows, t] = True
            bad |= ~seen.all(axis=1)
        bad = np.flatnonzero(bad)
        if bad.size:
            raise ValueError(f"row/column {bad[0]} is not a permutation")
        if n <= ASSOC_CHECK_CAP:
            # row x of t[t[:, g]] is (xg)y over y; of t[:, t[g]], x(gy)
            if any((t[t[:, g]] != t[:, t[g]]).any()
                   for g in self.generating_set()):
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
        # mixed-radix index of the coordinatewise sum, the last factor
        # least significant as in itertools.product
        coords = np.indices(orders, dtype=np.int32).reshape(len(orders), n)
        table = np.zeros((n, n), dtype=np.int32)
        stride = n
        for c, e in zip(coords, orders):
            stride //= e
            term = np.add.outer(c, c)
            term %= e
            term *= stride
            table += term
        nm = name or ("Z" + "x".join(f"/{e}" for e in orders) if orders else "1")
        return cls(table, name=nm, _trusted=True)

    @classmethod
    def from_permutations(cls, generators, degree, name=None):
        """Close a set of permutations (one-line arrays on 0..degree-1)
        under composition, breadth first with the order cap.  Elements are
        numbered in the order the search meets them."""
        ident = tuple(range(degree))
        gens = []
        for g in generators:
            g = tuple(int(x) for x in g)
            if sorted(g) != list(ident):
                raise ValueError(f"not a permutation of 0..{degree - 1}: {g}")
            if g != ident:  # the identity adds no element
                gens.append(g)
        width, k = len(ident), len(gens)
        gens = np.array(gens, dtype=np.int32).reshape(k, width)
        row_key = np.dtype((np.void, 4 * width))
        level = np.arange(width, dtype=np.int32)[None]
        seen = {level.tobytes(): 0}
        # a breadth-first level at a time: its candidates order[a] o
        # gens[j] are hashed once each, into right[a, j], and a new element
        # b records order[b] = order[parent[b]] o gens[via[b]]
        rights, parents, vias, levels = [], [[0]], [[0]], []
        start = 0
        while len(level):
            cand = level[:, gens].reshape(len(level) * k, width)
            keys = np.ascontiguousarray(cand).view(row_key).ravel().tolist()
            n0 = len(seen)
            ids = np.array([seen.setdefault(c, len(seen)) for c in keys],
                           dtype=np.intp)
            if len(seen) > MAX_ORDER:
                raise ValueError(
                    f"permutation closure exceeds the cap {MAX_ORDER}")
            rights.append(ids.reshape(len(level), k))
            # the new ids first occur in ascending order
            prior = np.maximum.accumulate(np.concatenate(([n0 - 1], ids)))
            first = np.flatnonzero(ids > prior[:-1])
            parents.append(start + first // k)
            vias.append(first % k)
            levels.append((n0, len(seen)))
            level, start = cand[first], n0
        n = len(seen)
        del seen
        right = np.concatenate(rights)
        parent, via = np.concatenate(parents), np.concatenate(vias)
        # left[j, a], the index of gens[j] o order[a], is
        # (gens[j] o order[parent[a]]) o gens[via[a]]: one gather of right
        # per level, parents first
        left = np.empty((k, n), dtype=np.intp)
        left[:, 0] = right[0]
        for lo, hi in levels:
            left[:, lo:hi] = right[left[:, parent[lo:hi]], via[lo:hi]]
        # row b of the table is row parent[b] read through left[via[b]]:
        # filled a level at a time, the rows of one generator together,
        # in chunks of about 2^18 entries
        table = np.empty((n, n), dtype=np.int32)
        table[0] = np.arange(n)
        step = max(1, 2 ** 18 // n)
        for lo, hi in levels:
            for j in range(k):
                rows = lo + np.flatnonzero(via[lo:hi] == j)
                for c in range(0, len(rows), step):
                    b = rows[c:c + step]
                    table[b] = table[parent[b]][:, left[j]]
        return cls(table, name=name or f"perm{n}", _trusted=True)

    # -- basic operations -------------------------------------------------

    def __len__(self):
        return self.n

    def elements(self):
        return range(self.n)

    def mul(self, a, b):
        return int(self.table[a, b])

    def inv(self, a):
        return int(self._inv[a])

    def power(self, x, k):
        """x^k for k >= 0, elementwise over arrays x and k, by repeated
        squaring through the table; an int for scalar x and k."""
        x, k = np.asarray(x, dtype=np.intp), np.asarray(k, dtype=np.int64)
        out = np.zeros(np.broadcast_shapes(x.shape, k.shape), dtype=np.intp)
        while k.any():
            out = np.where(k & 1, self.table[out, x], out)
            x = self.table[x, x]
            k = k >> 1
        return out if out.ndim else int(out)

    def cyclic(self, x, o):
        """[x^0, ..., x^(o-1)], doubling the known powers each step."""
        powers, step = np.zeros(1, dtype=np.intp), x
        while len(powers) < o:
            powers = np.concatenate([powers, self.table[powers, step]])
            step = self.table[step, step]
        return powers[:o]

    @cached_property
    def orders(self):
        """orders[x] is the order of x.  For each prime power q^a exactly
        dividing n, x^(n/q^a) has order the q-part of x's order, read off
        by repeated q-th powers: a few table gathers per prime."""
        n = self.n
        orders = np.ones(n, dtype=np.int64)
        for q, a in _factor(n):
            y = self.power(np.arange(n), n // q ** a)
            for _ in range(a):
                alive = y != 0
                orders[alive] *= q
                y[alive] = self.power(y[alive], q)
        return orders

    @property
    def is_abelian(self):
        return bool((self.table == self.table.T).all())

    def p_torsion(self, p):
        """All x with x^p = identity (the identity included)."""
        return np.flatnonzero(self.power(np.arange(self.n), p) == 0).tolist()

    def subgroup_closure(self, gens):
        return tuple(np.flatnonzero(self._closure(gens)).tolist())

    def _closure(self, gens):
        """Membership mask of the subgroup generated by `gens`: breadth
        first from the identity, one table gather per level."""
        gens = np.asarray(list(gens), dtype=np.intp)
        member = np.zeros(self.n, dtype=bool)
        member[0] = True
        frontier = np.zeros(1, dtype=np.intp)
        while len(frontier):
            reached = np.zeros(self.n, dtype=bool)
            reached[self.table[frontier[:, None], gens]] = True
            reached &= ~member
            member |= reached
            frontier = np.flatnonzero(reached)
        return member

    def generating_set(self):
        """Generators of G, greedily: the least element outside the
        subgroup generated so far."""
        gens, member = [], self._closure([])
        while not member.all():
            gens.append(int(member.argmin()))
            member = self._closure(gens)
        return gens

    def centralizer_elements(self, subset):
        """C_G(S) as a sorted element tuple: g with gs = sg for all s in S,
        one comparison over the table's columns and rows at S."""
        s = np.asarray(list(subset), dtype=np.intp)
        commutes = (self.table[:, s] == self.table[s].T).all(axis=1)
        return tuple(np.flatnonzero(commutes).tolist())

    def is_abelian_on(self, elements):
        """Whether the elements commute pairwise, read off their block of
        the table."""
        block = self.table[np.ix_(elements, elements)]
        return bool((block == block.T).all())

    def __repr__(self):
        return f"<FiniteGroup {self.name!r} of order {self.n}>"


# ---------------------------------------------------------------------------
# abelian structure


def abelian_p_basis(G: FiniteGroup, p: int, elements=None):
    """Independent generators of the Sylow p-subgroup of an abelian group,
    or of the abelian subgroup of G on the sorted element tuple
    `elements`, as (element of G, order) pairs with orders descending.

    Each step takes the first element of largest order whose cyclic group
    meets the span so far trivially: a masked argmax over the orders."""
    if elements is None:
        if not G.is_abelian:
            raise ValueError(f"{G.name} is not abelian")
        elements = np.arange(G.n)
    elif not G.is_abelian_on(elements):
        raise ValueError(f"the subgroup of {G.name} on {len(elements)} "
                         "elements is not abelian")
    elements = np.asarray(elements, dtype=np.intp)
    orders = G.orders[elements]
    top = 1  # the largest power of p up to |G|, a multiple of every p-order
    while top * p <= G.n:
        top *= p
    sylow = top % orders == 0
    # <x> meets the span trivially iff its unique minimal subgroup
    # generator x^(o/p) is outside it; that also rules out the identity
    minimal = G.power(elements, orders // p)
    span = np.zeros(G.n, dtype=bool)
    members = np.zeros(1, dtype=np.intp)
    span[members] = True
    basis = []
    while True:
        score = np.where(sylow & ~span[minimal], orders, 0)
        i = int(score.argmax())
        if not score[i]:
            break
        x, o = int(elements[i]), int(orders[i])
        basis.append((x, o))
        # the span grows by the direct factor <x>
        members = G.table[members[:, None], G.cyclic(x, o)].ravel()
        span[members] = True
    basis.sort(key=lambda t: (-t[1], t[0]))
    return basis


def _factor(n):
    """The (prime, exponent) pairs of n, by trial division."""
    out, q = [], 2
    while q * q <= n:
        a = 0
        while n % q == 0:
            n //= q
            a += 1
        if a:
            out.append((q, a))
        q += 1
    if n > 1:
        out.append((n, 1))
    return out


def abelian_coordinates(G: FiniteGroup, basis):
    """Each element of the span of the (element, order) pairs `basis`,
    mapped to the first exponents (c_1, ..., c_r) in itertools.product
    order with x = prod b_i^{c_i}: the whole span, one table gather per
    basis element."""
    table = {}
    exponents = itertools.product(*(range(o) for _, o in basis))
    for x, c in zip(_span(G, basis).tolist(), exponents):
        table.setdefault(x, c)
    return table


def _span(G: FiniteGroup, basis):
    """prod b_i^{c_i} for every exponent tuple c in itertools.product
    order, one table gather per basis element."""
    span = np.zeros(1, dtype=np.intp)
    for b, o in basis:
        span = G.table[span[:, None], G.cyclic(b, o)].ravel()
    return span


# ---------------------------------------------------------------------------
# elementary abelian subgroups of an abelian group: the subspaces of T


def elementary_abelians(G: FiniteGroup, p: int):
    """The elementary abelian p-subgroups of an abelian group G and their
    inclusions, as (objects, inclusions).

    They are the subspaces of T ~ F_p^r, the subgroup of elements of
    order dividing p.  Conjugation is the identity, so the category's
    morphisms are the inclusions.  `objects` are sorted element tuples,
    ordered by (size, elements), so T is last; `inclusions` are the
    ascending pairs (i, j) with E_i <= E_j.  Each subspace is enumerated
    once, by its reduced echelon basis, one batch per pivot set."""
    gens = [(G.power(b, o // p), p) for b, o in abelian_p_basis(G, p)]
    r = len(gens)
    # ids[c] is the element of T with exponents v in `gens`, where the
    # code c is the base-p value of v
    ids = _span(G, gens)
    weights = p ** np.arange(r - 1, -1, -1)
    objects = []
    for k in range(r + 1):
        # the span of a k x r basis B is every v B, v in F_p^k
        span = _vectors(p, k)
        for pivots in itertools.combinations(range(r), k):
            # the free entries of a reduced echelon form with these pivots
            free = [(a, c) for a, pc in enumerate(pivots)
                    for c in range(pc + 1, r) if c not in pivots]
            bases = np.zeros((p ** len(free), k, r), dtype=np.intp)
            bases[:, range(k), pivots] = 1
            if free:
                a, c = zip(*free)
                bases[:, a, c] = _vectors(p, len(free))
            objects += ids[span @ bases % p @ weights].tolist()
    objects = sorted((tuple(sorted(E)) for E in objects),
                     key=lambda E: (len(E), E))
    # E_i <= E_j exactly when E_i meets E_j in |E_i| elements; row i of
    # `member` marks the codes of E_i's elements (float32 counts are exact
    # below 2^24, far above the order cap)
    code = np.zeros(G.n, dtype=np.intp)
    code[ids] = np.arange(len(ids))
    member = np.zeros((len(objects), len(ids)), dtype=np.float32)
    for i, E in enumerate(objects):
        member[i, code[list(E)]] = 1
    meets = member @ member.T
    rows, cols = np.nonzero(meets == meets.diagonal()[:, None])
    return objects, list(zip(rows.tolist(), cols.tolist()))


def _vectors(p, k):
    """Every vector of F_p^k, one per row."""
    return np.indices((p,) * k, dtype=np.intp).reshape(k, p ** k).T


# ---------------------------------------------------------------------------
# Rep(V, G): commuting p-torsion tuples up to simultaneous conjugation


@dataclass(frozen=True)
class HomClass:
    """A conjugacy class of homomorphisms (Z/p)^r -> G, stored as the
    lexicographically least commuting p-torsion tuple in its orbit."""

    rank: int
    representative: tuple
    orbit_size: int


def rep_classes(r: int, G: FiniteGroup, p: int):
    """Conjugacy classes of homomorphisms (Z/p)^r -> G: all r-tuples of
    pairwise commuting elements with x^p = 1 (non-injective ones included),
    modulo simultaneous conjugation."""
    if r < 0:
        raise ValueError("rank must be >= 0")
    if r > MAX_REP_RANK:
        raise ValueError(
            f"rank capped at {MAX_REP_RANK} (brute-force enumeration)")
    torsion = np.array(G.p_torsion(p))
    sub = G.table[np.ix_(torsion, torsion)]
    commute = sub == sub.T
    # extend commuting tuples of torsion indices one coordinate at a time;
    # torsion is ascending, so the rows stay in lexicographic order
    idx = np.zeros((1, 0), dtype=np.intp)
    for _ in range(r):
        rows, cols = np.nonzero(commute[idx].all(axis=1))
        idx = np.column_stack([idx[rows], cols])
    tuples = torsion[idx]
    # a tuple's code is its value in base n, so codes ascend with the rows
    weights = G.n ** np.arange(r - 1, -1, -1, dtype=np.int64)
    codes = tuples @ weights
    # conjugation by each generator of G as a move between rows; central
    # generators move nothing and are dropped
    label = np.arange(len(codes))
    moves = []
    for g in G.generating_set():
        conj = G.table[G.table[g, tuples], G._inv[g]]
        move = np.searchsorted(codes, conj @ weights)
        if (move != label).any():
            moves.append(move)
    # each row takes the least label along the moves, with pointer jumping
    # (Shiloach and Vishkin), until every orbit carries its least row
    while True:
        new = label
        for move in moves:
            new = np.minimum(new, new[move])
        new = new[new]
        if (new == label).all():
            break
        label = new
    first = np.flatnonzero(label == np.arange(len(label)))
    sizes = np.bincount(label)[first]
    return [HomClass(rank=r, representative=tuple(t), orbit_size=size)
            for t, size in zip(tuples[first].tolist(), sizes.tolist())]


# ---------------------------------------------------------------------------
# file schema


def load_group(data, name=None) -> FiniteGroup:
    """Group file schema: {"order", "table"} | {"degree", "generators"} |
    {"abelian": [e_1, ...]}, with optional "name" and "faithful_degree"."""
    if not isinstance(data, dict):
        raise ValueError(f"expected a JSON object, got {data!r:.40}")
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
    if not isinstance(data.get("name", ""), str):
        raise ValueError(f"name: expected a string, got {data['name']!r:.40}")
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
