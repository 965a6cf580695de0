import functools
import itertools
import json
import pathlib
from dataclasses import dataclass, field

import numpy as np
import pytest

from chowops import fp_linalg as fl
from chowops import localization as loc
from chowops.chow import (ChowRing, RingMap, _action_matrix, abelian_ring,
                          elem_abelian_ring, poly_add, poly_mul_raw,
                          poly_scale, restriction_map, ring_module)
from chowops.groups import FiniteGroup, HomClass, abelian_p_basis, load_group
from chowops.lannes import tv_table, tv_target
from chowops.modules import (FiniteModule, FPModule, brown_gitler,
                             compile_presentation, tensor_finite)

DATA = pathlib.Path(__file__).resolve().parent.parent / "data"
CATALOG = sorted(path.stem for path in (DATA / "groups").glob("*.json"))
ABELIAN_CATALOG = [name for name in CATALOG
                   if "abelian" in json.loads(
                       (DATA / "groups" / f"{name}.json").read_text())]


def catalog_group(name):
    return load_group(
        json.loads((DATA / "groups" / f"{name}.json").read_text()))


@pytest.fixture(scope="session")
def data_dir():
    return DATA


def truncate(ring, n):
    """The graded quotient of the ring in degrees < n, as a module over the
    reduced powers (operations landing in degrees >= n become zero); its
    action matrices are filled on first read."""
    dims = {d: ring.dim(d) for d in range(n) if ring.dim(d)}
    return FiniteModule(ring.p, dims, {},
                        fill=lambda a, d: _action_matrix(ring, a, d),
                        validate=False)


def point_module(d, p):
    """F_p concentrated in degree d (complete; all positive powers vanish)."""
    return FiniteModule(p, {d: 1}, {})


# -- presented test modules and the tensor theorem ------------------------


class Presentation(FPModule):
    """A presented module that also states the degree above which it
    vanishes, or None: a promise that its builder knows and that no
    compilation can certify.  The tensor check reads it."""

    def __init__(self, p, generators, relations, name=None,
                 support_bound=None):
        super().__init__(p, generators, relations, name=name)
        self.support_bound = support_bound


def free_presentation(n, p, name=None):
    """The free unstable module on one generator of degree n."""
    return Presentation(p, [("g", n)], [], name=name or f"free({n})")


def point_presentation(d, p):
    """F_p in degree d: one generator killed by every positive power."""
    rels = [[(1, (a,), 0)] for a in range(1, d + 1)]
    return Presentation(p, [("g", d)], rels, name=f"point({d})",
                        support_bound=d)


def suspension_presentation(m, k):
    """Presentation of the k-fold suspension (degree shift) of m.

    Generators move up by k; the original relations keep their words; each
    generator additionally acquires the instability relations P^a g for
    old_degree < a <= old_degree + k, which cut the larger free modules
    down to shifted copies.  Exactness of this presentation is asserted
    against shifted compilations.
    """
    if k < 0:
        raise ValueError("suspension shift must be >= 0")
    gens = [(n, d + k) for n, d in m.generators]
    rels = [[(c, w, g) for c, w, g in rel] for rel in m.relations]
    for gi, (_, old_deg) in enumerate(m.generators):
        for a in range(old_deg + 1, old_deg + k + 1):
            rels.append([(1, (a,), gi)])
    bound = None if m.support_bound is None else m.support_bound + k
    return Presentation(m.p, gens, rels, support_bound=bound,
                        name=f"suspension({m.name or 'module'},{k})")


def finite_to_presentation(m, name=None):
    """Exact presentation of a complete bounded module: one generator per
    basis vector, one relation per (P^a, basis vector) recording the full
    action table (including the vanishing ones)."""
    if not m.is_complete:
        raise ValueError("only complete modules convert exactly")
    gens = []
    index = {}
    for d in m.support:
        for i in range(m.dim(d)):
            index[(d, i)] = len(gens)
            gens.append((f"e{d}_{i}", d))
    rels = []
    for d in m.support:
        for a in range(1, d + 1):
            target = d + a * (m.p - 1)
            mat = m.act(a, d)
            for i in range(m.dim(d)):
                rel = [(1, (a,), index[(d, i)])]
                for r in range(m.dim(target)):
                    c = int(mat[r, i]) if mat.size else 0
                    if c:
                        rel.append(((-c) % m.p, (), index[(target, r)]))
                rels.append(rel)
    return Presentation(m.p, gens, rels, name=name,
                        support_bound=max(m.support, default=0))


def hom_finite_reference(m, n):
    """dim Hom(m, n) for a complete finite source m: the degreewise families
    of matrices f_d: m^d -> n^d commuting with every P^a, unknowns f_d
    flattened row-major.  The reference for `modules.hom_space`, which
    reads a presentation of the source instead."""
    p = m.p
    coords, offset = {}, 0
    for d in m.support:
        coords[d] = offset
        offset += n.dim(d) * m.dim(d)
    rows = []
    for d in m.support:
        for a in range(1, d + 1):
            d2 = d + a * (p - 1)
            pn = n.act(a, d)       # N^d -> N^{d2}
            pm = m.act(a, d)       # M^d -> M^{d2}
            rdim = n.dim(d2) * m.dim(d)
            if rdim == 0:
                continue
            block = fl.zeros(rdim, offset)
            if n.dim(d) and pn.any():
                # P^a . f_d
                block[:, coords[d]:coords[d] + n.dim(d) * m.dim(d)] = \
                    fl.kron(pn, fl.identity(m.dim(d)), p)
            if d2 in coords and m.dim(d2) and pm.any():
                # minus f_{d2} . P^a
                contrib = fl.kron(fl.identity(n.dim(d2)), pm.T, p)
                block[:, coords[d2]:coords[d2] + n.dim(d2) * m.dim(d2)] = \
                    (block[:, coords[d2]:coords[d2] + n.dim(d2) * m.dim(d2)]
                     - contrib) % p
            if block.any():
                rows.append(block)
    constraint = np.vstack(rows) if rows else fl.zeros(0, offset)
    return fl.kernel_matrix(constraint, p).shape[1]


def _compile_bounded(m):
    """Complete finite model of a presentation with a stated support
    bound, or None without one."""
    if m.support_bound is None:
        return None
    compiled = compile_presentation(m, m.support_bound)
    return FiniteModule(m.p, compiled.dims, compiled.mats,
                        truncated_above=None, validate=False)


def _point_degree(finite):
    """The degree of a one-dimensional module concentrated in a single
    degree, else None."""
    if finite is not None and len(finite.support) == 1 \
            and finite.dim(finite.support[0]) == 1:
        return finite.support[0]
    return None


def tensor_convolution_check(m, n, r, D, verbose=False):
    """Check deg-by-deg that T of the tensor product has the dimensions of
    the convolution of the two T-dimension tables.

    The left side is computed without ever invoking the product rule:
    bounded factors tensor into one complete finite module whose T
    dimensions are Hom dimensions by `hom_finite_reference`, a route
    independent of the library's; a one-dimensional factor is a degree
    shift handled by an explicit suspension presentation.  Each bounded
    factor is compiled once.
    """
    if m.p != n.p:
        raise ValueError("primes differ")
    finite_m, finite_n = _compile_bounded(m), _compile_bounded(n)
    shift_n, shift_m = _point_degree(finite_n), _point_degree(finite_m)
    if finite_m is not None and finite_n is not None:
        prod = tensor_finite(finite_m, finite_n)
        horizon = prod.p * max(prod.max_degree, 1)
        lhs = {k: hom_finite_reference(prod, tv_target(r, k, prod.p, horizon))
               for k in range(D + 1)}
    elif shift_n is not None:
        lhs = tv_table(suspension_presentation(m, shift_n), r, D)
    elif shift_m is not None:
        lhs = tv_table(suspension_presentation(n, shift_m), r, D)
    else:
        raise ValueError(
            "tensor route needs bounded factors or a one-dimensional one")
    mt = tv_table(m, r, D)
    nt = tv_table(n, r, D)
    rhs = {k: sum(mt[i] * nt[k - i] for i in range(k + 1)) for k in range(D + 1)}
    ok = lhs == rhs
    if verbose:
        return ok, {"tensor": lhs, "convolution": rhs}
    return ok


def fp_test_modules(p):
    """The five fixed presented test modules used across the suite."""
    line = finite_to_presentation(truncate(elem_abelian_ring(1, p), 4),
                                  name="trunc-line")
    plane = finite_to_presentation(truncate(elem_abelian_ring(2, p), 3),
                                   name="trunc-plane")
    return [
        point_presentation(2, p),
        finite_to_presentation(brown_gitler(3, 10, p), name="bg3"),
        line,
        suspension_presentation(
            finite_to_presentation(truncate(elem_abelian_ring(1, p), 3),
                                   name="short-line"), 2),
        plane,
    ]


def mixed_test_modules(p):
    """Three bounded modules with nilpotence degrees 1, 2, 3."""
    line = finite_to_presentation(truncate(elem_abelian_ring(1, p), 4),
                                  name="trunc-line")
    m1 = suspension_presentation(line, 1)
    m2 = suspension_presentation(
        finite_to_presentation(truncate(elem_abelian_ring(1, p), 3)), 2)
    m3 = finite_to_presentation(
        direct_sum(point_module(3, p), point_module(5, p)), name="two-points")
    return [(m1, 1), (m2, 2), (m3, 3)]


def apply(rm, f):
    """The image of the polynomial f under the ring map rm, expanded term
    by term from the generator images: the reference for rm.matrix."""
    target, p = rm.target, rm.target.p
    out = {}
    for m, c in f.items():
        term = {tuple([0] * target.k): c % p}
        for i, e in enumerate(m):
            for _ in range(e):
                term = poly_mul_raw(term, rm.images[i], p)
        out = poly_add(out, term, p)
    return out


def unit(k, i, e=1):
    """The monomial y_i^e of the rank-k ring."""
    return tuple(e if j == i else 0 for j in range(k))


def tmul(f1, f2, p):
    """Product of two total powers, dicts a -> raw polynomial."""
    out = {}
    for a1, g1 in f1.items():
        for a2, g2 in f2.items():
            out[a1 + a2] = poly_add(out.get(a1 + a2, {}),
                                    poly_mul_raw(g1, g2, p), p)
    return {a: g for a, g in out.items() if g}


def total_power_monomial(ring, m):
    """P_t(m) = prod_i P_t(y_i)^{e_i}, with P_t(y_i) = y_i + t y_i^p, as a
    dict a -> polynomial, multiplied out one factor at a time."""
    out = {0: {tuple([0] * ring.k): 1}}
    for i, e in enumerate(m):
        single = {0: {unit(ring.k, i): 1}, 1: {unit(ring.k, i, ring.p): 1}}
        for _ in range(e):
            out = tmul(out, single, ring.p)
    return out


def act_reference(ring, a, f):
    """P^a(f) from the dict total powers of its monomials: the reference
    for ChowRing.act and ring_module."""
    out = {}
    for m, c in f.items():
        part = total_power_monomial(ring, m).get(a, {})
        out = poly_add(out, poly_scale(part, c, ring.p), ring.p)
    return out


def check_commutes(rm, max_degree: int = 6) -> bool:
    """P^1 naturality of the ring map `rm` on generators through the
    stated window."""
    source, target = rm.source, rm.target
    if source.p > max_degree:
        return True
    for i in range(source.k):
        g = {unit(source.k, i): 1}
        if apply(rm, source.act(1, g)) != target.act(1, apply(rm, g)):
            return False
    return True


def suspend(m: FiniteModule, k: int) -> FiniteModule:
    """Shift all degrees of `m` up by k, keeping the same matrices."""
    dims = {d + k: n for d, n in m.dims.items()}
    mats = {(a, d + k): mat for (a, d), mat in m.mats.items()}
    t = None if m.is_complete else m.truncated_above + k
    return FiniteModule(m.p, dims, mats, truncated_above=t, validate=False)


def direct_sum(m1: FiniteModule, m2: FiniteModule) -> FiniteModule:
    """m1 (+) m2, each operation block-diagonal."""
    if m1.p != m2.p:
        raise ValueError("primes differ")
    t = None
    if not (m1.is_complete and m2.is_complete):
        t = int(min(m1.horizon(), m2.horizon()))
    dims = {d: m1.dim(d) + m2.dim(d) for d in set(m1.dims) | set(m2.dims)}
    mats = {}
    for a, d in set(m1.mats) | set(m2.mats):
        target = d + a * (m1.p - 1)
        mat = fl.zeros(dims.get(target, m1.dim(target) + m2.dim(target)),
                       dims.get(d, 0))
        a1, a2 = m1.act(a, d), m2.act(a, d)
        mat[: a1.shape[0], : a1.shape[1]] = a1
        mat[a1.shape[0]:, a1.shape[1]:] = a2
        mats[(a, d)] = mat
    return FiniteModule(m1.p, dims, mats, truncated_above=t, validate=False)


# -- group engine references: one Python product per pair -----------------


def conj(G, g, x):
    """g x g^-1."""
    return G.mul(G.mul(g, x), G.inv(g))


def conjugates(G, xs):
    """Row g is [g x g^-1 for x in xs], for every element g."""
    return G.table[G.table[:, list(xs)], G._inv[:, None]].tolist()


def permutation_table(generators, degree):
    """Multiplication table of the closure of `generators`, numbered in
    breadth-first order, by one tuple composition per element pair: the
    reference for FiniteGroup.from_permutations."""
    gens = [tuple(int(x) for x in g) for g in generators]
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
                    seen[b] = len(order)
                    order.append(b)
                    nxt.append(b)
        frontier = nxt
    n = len(order)
    table = np.zeros((n, n), dtype=np.int32)
    for i, a in enumerate(order):
        for j, b in enumerate(order):
            table[i, j] = seen[tuple(a[b[k]] for k in range(degree))]
    return table


def abelian_table(orders):
    """Table of Z/e_1 x ... x Z/e_k on itertools.product numbering, entry
    by entry: the reference for FiniteGroup.from_abelian."""
    radix = list(itertools.product(*[range(e) for e in orders])) or [()]
    index = {t: i for i, t in enumerate(radix)}
    n = len(radix)
    table = np.zeros((n, n), dtype=np.int32)
    for i, u in enumerate(radix):
        for j, v in enumerate(radix):
            table[i, j] = index[tuple((a + b) % e
                                      for a, b, e in zip(u, v, orders))]
    return table


def element_order_reference(G, x):
    """The order of x, by walking its powers: the reference for
    FiniteGroup.orders."""
    k, y = 1, x
    while y != 0:
        y = G.mul(y, x)
        k += 1
    return k


def power_reference(G, x, k):
    """x^k by k products: the reference for FiniteGroup.power."""
    y = 0
    for _ in range(k):
        y = G.mul(y, x)
    return y


def closure_reference(G, gens):
    """The subgroup generated by `gens` as a sorted tuple, breadth first
    with one G.mul per product: the reference for
    FiniteGroup.subgroup_closure."""
    elems = {0}
    frontier = [0]
    gens = list(gens)
    while frontier:
        nxt = []
        for a in frontier:
            for g in gens:
                b = G.mul(a, g)
                if b not in elems:
                    elems.add(b)
                    nxt.append(b)
        frontier = nxt
    return tuple(sorted(elems))


def abelian_p_basis_reference(G, p, elements=None):
    """The greedy basis element by element: among the elements not yet in
    the span, the first of largest order whose cyclic group meets the span
    trivially, the span recomputed by closure after each pick.  The
    reference for groups.abelian_p_basis."""
    if elements is None:
        elements = G.elements()
        if not G.is_abelian:
            raise ValueError(f"{G.name} is not abelian")
    elif not G.is_abelian_on(elements):
        raise ValueError(f"the subgroup of {G.name} on {len(elements)} "
                         "elements is not abelian")

    def is_p_power(n):
        while n % p == 0:
            n //= p
        return n == 1

    order = functools.partial(element_order_reference, G)
    sylow = [x for x in elements if is_p_power(order(x))]
    span = {0}
    basis = []
    remaining = [x for x in sylow if x not in span]
    while len(span) < len(sylow):
        best = None
        for x in remaining:
            if x in span:
                continue
            o = order(x)
            if power_reference(G, x, o // p) in span:
                continue
            if best is None or o > order(best):
                best = x
        basis.append((best, order(best)))
        span = set(closure_reference(G, [b for b, _ in basis]))
        remaining = [x for x in remaining if x not in span]
    basis.sort(key=lambda t: (-t[1], t[0]))
    return basis


def rep_classes_reference(r, G, p):
    """Commuting p-torsion r-tuples tested pair by pair with G.mul, then
    deduplicated by orbit: the reference for groups.rep_classes."""
    torsion = G.p_torsion(p)
    tuples = []
    for t in itertools.product(torsion, repeat=r):
        if all(G.mul(t[i], t[j]) == G.mul(t[j], t[i])
               for i in range(r) for j in range(i + 1, r)):
            tuples.append(t)
    remaining = set(tuples)
    classes = []
    for t in sorted(remaining):
        if t not in remaining:
            continue
        orbit = set(map(tuple, conjugates(G, t)))
        remaining -= orbit
        classes.append(HomClass(rank=r, representative=min(orbit),
                                orbit_size=len(orbit)))
    classes.sort(key=lambda c: c.representative)
    return classes


# -- the subgroup category of any finite group: conjugations and inclusions


def log_p(n, p):
    """The e with n = p^e; raises when n is not a power of p."""
    e = 0
    while n > 1:
        if n % p:
            raise ValueError(f"{n} is not a power of {p}")
        n //= p
        e += 1
    return e


@dataclass(frozen=True)
class ElemAbelianSubgroup:
    parent: FiniteGroup
    elements: tuple  # sorted, identity first
    rank: int

    def __repr__(self):
        return f"<E rank {self.rank}: {list(self.elements)}>"


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


def conjugation_category(G: FiniteGroup, p: int):
    """Conjugacy classes of elementary abelian p-subgroups plus the full
    category data (morphisms = conjugations composed with inclusions), for
    any finite G; each distinct conjugate of each E_i is tested once."""
    reps = []
    covered = set()
    for E in all_elementary_abelians(G, p):
        if E in covered:
            continue
        orbit = {tuple(sorted(row)) for row in conjugates(G, E)}
        covered |= orbit
        reps.append(min(orbit))
    reps.sort(key=lambda t: (len(t), t))
    objects = [ElemAbelianSubgroup(G, rep, log_p(len(rep), p))
               for rep in reps]
    data = QuillenCategoryData(objects=objects)
    for i, Ei in enumerate(reps):
        # each distinct conjugate of E_i with the first h giving it
        first = {}
        for h, images in enumerate(map(tuple, conjugates(G, Ei))):
            first.setdefault(images, h)
        for j, Ej in enumerate(reps):
            ejset = set(Ej)
            maps = sorted((h, images) for images, h in first.items()
                          if ejset.issuperset(images))
            if maps:
                data.morphisms[(i, j)] = maps
    return objects, data


def elementary_abelians_reference(G, p):
    """The conjugation orbit of every elementary abelian subgroup, covered
    or not, and every conjugating element tested against every pair: the
    reference for `conjugation_category` and, on abelian G, for
    groups.elementary_abelians."""
    orbits = {}
    for E in all_elementary_abelians(G, p):
        orbit = {tuple(sorted(row)) for row in conjugates(G, E)}
        orbits.setdefault(min(orbit), set()).update(orbit)
    reps = sorted(orbits, key=lambda t: (len(t), t))
    objects = [ElemAbelianSubgroup(G, rep, log_p(len(rep), p))
               for rep in reps]
    data = QuillenCategoryData(objects=objects)
    for i, Ei in enumerate(reps):
        images_by_h = list(map(tuple, conjugates(G, Ei)))
        for j, Ej in enumerate(reps):
            ejset = set(Ej)
            seen = {}
            for h, images in enumerate(images_by_h):
                if ejset.issuperset(images):
                    seen.setdefault(images, h)
            if seen:
                data.morphisms[(i, j)] = sorted(
                    (h, images) for images, h in seen.items())
    return objects, data


# -- subgroup references: a subgroup as its own relabelled group ----------


def relabelled_p_basis(G, p, elements):
    """The p-basis of the subgroup on the sorted `elements`, computed on a
    relabelled copy (its block of G's table, renumbered 0..k-1 in the same
    order) and read back in G: the reference for
    abelian_p_basis(G, p, elements)."""
    elements = sorted(elements)
    block = G.table[np.ix_(elements, elements)]
    sub = FiniteGroup(np.searchsorted(elements, block), _trusted=True)
    return [(elements[h], o) for h, o in abelian_p_basis(sub, p)]


def coordinates_reference(G, basis, x):
    """The first exponents, in itertools.product order, with
    x = prod b_i^{c_i}, by trying them all: the reference for
    groups.abelian_coordinates."""
    for combo in itertools.product(*[range(o) for _, o in basis]):
        y = 0
        for (b, _), c in zip(basis, combo):
            y = G.mul(y, G.power(b, c))
        if y == x:
            return combo
    raise ValueError(f"element {x} is not in the span of the basis")


def centralizer_reference(G, subset):
    """C_G(S) by two products per pair: the reference for
    FiniteGroup.centralizer_elements."""
    subset = list(subset)
    return tuple(g for g in G.elements()
                 if all(G.mul(g, s) == G.mul(s, g) for s in subset))


# -- the subgroup category of an abelian group, map by map ------------------


def lattice_objects(lattice):
    """Each object of a `groups.Lattice`, as its sorted element tuple, in
    object order."""
    return [tuple(sorted(row)) for codes in lattice.codes
            for row in lattice.ids[codes].tolist()]


@dataclass
class SetupReference:
    """The subgroup category of an abelian group object by object, in the
    object order of `groups.elementary_abelians`: the elements, basis,
    res_{G->E} and res_{T->E} substitution matrix of each object, the
    inclusion pairs (i, j), E_i <= E_j, and the character matrix of each,
    the substitution matrix of res_{E_j->E_i}.  T is last, `top`."""

    G: FiniteGroup
    p: int
    data_G: object
    objects: list
    bases: list
    res_G: list
    res_T: list
    morphisms: list
    chars: dict

    @property
    def top(self):
        return len(self.objects) - 1


def setup_reference(G, p):
    """One `restriction_map` per object, over the objects and inclusions of
    the conjugation reference, and one `char_matrix` per inclusion: the
    reference for `localization._AbelianSetup` and for the restrictions
    from T of `localization.f_iso_check`."""
    data_G = abelian_ring(G, p)
    objects, morphisms = lattice_reference(G, p)
    maps = [restriction_map(G, E, p, ring_G=data_G) for E in objects]
    data = [rm.subgroup_data for rm in maps]
    return SetupReference(
        G=G, p=p, data_G=data_G,
        objects=objects,
        bases=[[x for x, _ in d.basis] for d in data],
        res_G=[rm.mat for rm in maps],
        res_T=[data[-1].char_matrix(d.basis) for d in data],
        morphisms=morphisms,
        chars={(i, j): data[j].char_matrix(data[i].basis)
               for i, j in morphisms})


def top_reference(G, p):
    """The setup reference of T alone, with its identity map: all that the
    references for T's own pair read, without the lattice."""
    data_G = abelian_ring(G, p)
    rm = restriction_map(G, G.p_torsion(p), p, ring_G=data_G)
    basis = [x for x, _ in rm.subgroup_data.basis]
    unit = fl.identity(len(basis))
    return SetupReference(G=G, p=p, data_G=data_G,
                          objects=[tuple(G.p_torsion(p))], bases=[basis],
                          res_G=[rm.mat], res_T=[unit], morphisms=[(0, 0)],
                          chars={(0, 0): unit})


def object_ring(ref, i):
    return elem_abelian_ring(len(ref.bases[i]), ref.p)


def restriction_from_G(ref, i):
    """The RingMap res_{G->E_i} of a setup reference."""
    return RingMap(ref.data_G.ring, object_ring(ref, i), ref.res_G[i])


def inclusion_maps(ref):
    """The RingMap CH_{E_j} -> CH_{E_i} of every inclusion E_i <= E_j of a
    setup reference, by pair: res_{E_j->E_i}."""
    return {(i, j): RingMap(object_ring(ref, j), object_ring(ref, i),
                            ref.chars[i, j])
            for i, j in ref.morphisms}


def functorial_reference(setup, ref):
    """Whether every inclusion E_i <= E_j of the setup reference `ref`
    composes with restriction from G, res_{E_j->E_i} o res_{G->E_j} =
    res_{G->E_i}: one product per inclusion, each res_{G->E} read off
    the setup's characters on T, `in_G`, at E's basis.  The reference for
    `localization._AbelianSetup.functorial`, which checks T alone."""
    p = setup.p
    code = {x: c for c, x in enumerate(setup.ids.tolist())}
    res_G = [setup.in_G[:, [code[x] for x in basis]] for basis in ref.bases]
    return all(((res_G[j] @ ref.chars[i, j] - res_G[i]) % p == 0).all()
               for i, j in ref.morphisms)


def lattice_reference(G, p):
    """(objects, inclusion pairs) read off the conjugation reference, whose
    every morphism of an abelian group must be the one conjugation h = 0."""
    objects, data = elementary_abelians_reference(G, p)
    assert all([h for h, _ in maps] == [0] for maps in data.morphisms.values())
    return [o.elements for o in objects], sorted(data.morphisms)


def relabelled(G, seed):
    """G's table with the non-identity elements renumbered by a random
    permutation, as a table file reads it."""
    rng = np.random.default_rng(seed)
    perm = np.concatenate([[0], 1 + rng.permutation(G.n - 1)])
    table = np.empty_like(G.table)
    table[np.ix_(perm, perm)] = perm[G.table]
    return load_group({"table": table.tolist(), "name": f"{G.name} relabelled"})


def res_comult_reference(ref, i, a, b):
    """CH_G^{a+b} -> CH_{E_i}^a (x) CH_G^b of a setup reference:
    comultiply, then restrict the left factor to E_i, as
    kron(res, I) @ comultiply."""
    ring_G = ref.data_G.ring
    return fl.matmul(
        fl.kron(restriction_from_G(ref, i).matrix(a),
                fl.identity(ring_G.dim(b)),
                ref.p),
        comult_split_reference(ring_G, a, b), ref.p)


def top_condition_reference(ref, d, n):
    """Leg 1 minus leg 2 of T's own pair in degree d, in G's coordinates,
    as one dense matrix, block by block from Kronecker products: the
    reference for the equalizer of `localization.build_lambda` and for
    the type blocks of `type_blocks`.  Its row blocks are the (j2, j3)
    degrees of the middle and right factors, j2 from 0: by the counit law
    the j2 = 0 blocks are zero."""
    p, ring_G = ref.p, ref.data_G.ring
    ring_T = object_ring(ref, ref.top)
    offs = np.cumsum([0] + [ring_T.dim(d - j) * ring_G.dim(j)
                            for j in range(min(n - 1, d) + 1)])
    blocks = [fl.zeros(0, offs[-1])]
    for j2 in range(min(n - 1, d) + 1):
        for j3 in range(min(n - 1 - j2, d - j2) + 1):
            i, j = d - j2 - j3, j2 + j3
            block = fl.zeros(ring_T.dim(i) * ring_T.dim(j2) * ring_G.dim(j3),
                             offs[-1])
            if block.shape[0]:
                block[:, offs[j3]:offs[j3 + 1]] = fl.kron(
                    comult_split_reference(ring_T, i, j2),
                    fl.identity(ring_G.dim(j3)), p)
                block[:, offs[j]:offs[j + 1]] -= fl.kron(
                    fl.identity(ring_T.dim(i)),
                    res_comult_reference(ref, ref.top, j2, j3), p)
            blocks.append(block % p)
    return np.vstack(blocks)


def type_blocks(ring, n, D, p):
    """T's pair of legs and lambda_T in T's coordinates, per degree d =
    0..D one array pass over the types of degree d: (types, orbits, rows,
    lam).  A type is a sorted exponent row alpha; `orbits` counts the
    monomials that sort to it.  The columns are the gamma of degree < n,
    degree by degree in `ring.basis` order (column 0 is gamma = 0); the
    block of alpha has those with gamma <= alpha, and lam[t, c] = C(alpha,
    gamma).  Its rows are the pairs (gamma, beta2 <= gamma) of its columns
    (the pairs of all columns depend only on (k, n) and are enumerated
    once), each a column (type, c1, v1, c2, v2) of `rows`: leg 1 holds
    v1 = C(alpha - gamma3, beta2) at c1 = gamma3 = gamma - beta2, and leg
    2 holds v2 = C(gamma, beta2) at c2 = gamma.  Binomials of multi-indices
    come from one Pascal table, reduced mod p after each factor.  The
    identities of `localization.build_lambda` are read off these blocks
    (`rank_type_blocks`)."""
    k, top = ring.k, min(n - 1, D)
    start = np.cumsum([0] + [ring.dim(e) for e in range(top + 1)])
    columns = np.array([g for e in range(top + 1) for g in ring.basis(e)],
                       dtype=np.int64).reshape(start[-1], k)
    table = fl.binom_table(D, top, p)
    c1, c2, b2 = [], [], []  # per pair: gamma3, gamma and beta2
    for e2 in range(top + 1):
        for e3 in range(top + 1 - e2):
            beta2 = columns[start[e2]:start[e2 + 1]]
            gamma3 = np.arange(start[e3], start[e3 + 1])
            gamma = (beta2[:, None] + columns[gamma3]).reshape(
                len(beta2) * len(gamma3), k)
            c1.append(np.tile(gamma3, len(beta2)))
            c2.append(start[e2 + e3] + ring.positions(gamma, e2 + e3))
            b2.append(np.repeat(beta2, len(gamma3), axis=0))
    c1, c2, b2 = np.concatenate(c1), np.concatenate(c2), np.concatenate(b2)
    v2 = np.ones(len(c2), dtype=np.int64)
    for i in range(k):
        v2 = v2 * table[columns[c2, i], b2[:, i]] % p
    for d in range(D + 1):
        alphas = np.array(ring.basis(d), dtype=np.int64).reshape(
            ring.dim(d), k)
        orbits = np.bincount(ring.positions(np.sort(alphas, axis=1), d),
                             minlength=len(alphas))
        types, orbits = alphas[orbits > 0], orbits[orbits > 0]
        lam = np.ones((len(types), len(columns)), dtype=np.int64)
        for i in range(k):
            lam = lam * table[types[:, None, i], columns[:, i]] % p
        # the columns of each block, read off the exponents: lam may
        # vanish mod p inside a block
        inside = (columns <= types[:, None]).all(axis=2)
        owner, pair = np.nonzero(inside[:, c2])
        v1 = np.ones(len(pair), dtype=np.int64)
        for i in range(k):
            v1 = v1 * table[types[owner, i] - columns[c1[pair], i],
                            b2[pair, i]] % p
        yield types, orbits, np.stack(
            [owner, c1[pair], v1, c2[pair], v2[pair]]), lam


def rank_type_blocks(name, blocks, p):
    """(eq_dims, legs_agree) of T's own pair per degree, from the type
    blocks `blocks` of `type_blocks`, each ranked by its pin rows with no
    elimination: the reference for the identities of
    `localization.build_lambda`.

    In the block of alpha, the pin row of a column gamma != 0 (beta2 =
    gamma, gamma3 = 0) reads C(alpha, gamma) x_0 - x_gamma.  The pin rows
    are independent pivots, so x_gamma = w_gamma x_0 with w_0 = 1, every
    other row reduces to (row . w) x_0, and the rank is m - 1 + [some row
    . w != 0] for m columns; eq_dim is the sum of the free counts over
    the monomials of degree d.  The legs agree on lambda_T when every row
    annihilates its column.  A block lacking a pin row with an invertible
    leg-2 entry raises ValueError, naming the group `name`."""
    eq_dims, legs_agree = {}, {}
    for d, (types, orbits, rows, lam) in enumerate(blocks):
        owner, c1, v1, c2, v2 = rows
        # x_gamma = (num / den) x_0 from the pin row of each column gamma
        # != 0, which reads v1 x_0 - v2 x_gamma; num / den = 1 at gamma = 0
        pin = (c1 == 0) & (c2 != 0)
        num, den = np.zeros((2, *lam.shape), dtype=np.int64)
        num[:, 0] = den[:, 0] = 1
        num[owner[pin], c2[pin]], den[owner[pin], c2[pin]] = v1[pin], v2[pin]
        missing = owner[den[owner, c2] % p == 0]
        if len(missing):
            raise ValueError(
                f"{name}: a column of the equalizer block of type "
                f"{tuple(types[missing[0]].tolist())} has no pin row with "
                "an invertible leg-2 entry")
        # row . w, times the den at both its columns: a nonzero one cuts
        # the block's last free column
        cut = owner[(v1 * num[owner, c1] % p * den[owner, c2]
                     - v2 * num[owner, c2] % p * den[owner, c1]) % p != 0]
        eq_dims[d] = int(
            orbits[np.bincount(cut, minlength=len(types)) == 0].sum())
        legs_agree[d] = not (
            (v1 * lam[owner, c1] - v2 * lam[owner, c2]) % p).any()
    return eq_dims, legs_agree


def type_legs(alpha, n, p):
    """T's pair of legs at the multidegree alpha, each as a dense matrix,
    and lambda_T's column for y^alpha, all in T's coordinates: the
    per-type reference for `localization._type_blocks`.

    The columns are y^(alpha - gamma) (x) y^gamma for gamma <= alpha with
    |gamma| < n, in `itertools.product` order; lambda_T holds C(alpha,
    gamma) there.  The rows are y^beta1 (x) y^beta2 (x) y^gamma3 with
    beta1 + beta2 + gamma3 = alpha and |beta2| + |gamma3| < n: for each
    column gamma in turn, beta2 runs over the multi-indices <= gamma in
    that order, and gamma3 = gamma - beta2.  Leg 1 comultiplies the first
    factor of a column: it holds C(beta1 + beta2, beta2) at column gamma3.
    Leg 2 comultiplies the second: it holds C(beta2 + gamma3, beta2) at
    column beta2 + gamma3.  The rows with beta2 = 0 are the counit law,
    where both legs hold 1 at column gamma3."""
    def binom(top, bottom):
        c = 1
        for t, b in zip(top, bottom):
            c = c * fl.binom_mod_p(t, b, p) % p
        return c

    below = [g for g in itertools.product(*(range(a + 1) for a in alpha))
             if sum(g) < n]
    col = {g: c for c, g in enumerate(below)}
    rows = [(gamma, tuple(g - b for g, b in zip(gamma, b2)), b2)
            for gamma in below
            for b2 in itertools.product(*(range(g + 1) for g in gamma))]
    leg1, leg2 = (fl.zeros(len(rows), len(below)) for _ in range(2))
    for r, (gamma, g3, b2) in enumerate(rows):
        leg1[r, col[g3]] = binom([a - g for a, g in zip(alpha, g3)], b2)
        leg2[r, col[gamma]] = binom(gamma, b2)
    lam = np.array([binom(alpha, g) for g in below], dtype=np.int64)
    return leg1, leg2, lam


def comult_split_reference(ring, i, j):
    """The coproduct piece CH^{i+j} -> CH^i (x) CH^j of a polynomial ring
    on degree-1 classes, one product of binomials per entry."""
    p = ring.p
    src = ring.basis(i + j)
    bi, bj = ring.basis(i), ring.basis(j)
    idx = {m: c for c, m in enumerate(src)}
    mat = fl.zeros(len(bi) * len(bj), len(src))
    for a, beta in enumerate(bi):
        for b, gamma in enumerate(bj):
            alpha = tuple(x + y for x, y in zip(beta, gamma))
            c = 1
            for x, y in zip(beta, alpha):
                c = c * fl.binom_mod_p(y, x, p) % p
            mat[a * len(bj) + b, idx[alpha]] = c
    return mat


# -- d0, d1 and the nilpotent level by the level sweep ----------------------


def all_injective(diagram):
    """Whether lambda_n is injective in every degree of the diagram."""
    return all(diagram.injective.values())


def all_iso(diagram):
    """Whether lambda_n is an isomorphism onto the equalizer in every
    degree of the diagram."""
    return all_injective(diagram) and all(diagram.onto_equalizer.values())


def level_sweep(G, D, p, *predicates):
    """(n - 1, verdict) per predicate for the first level n whose diagram
    satisfies it, sweeping levels 1..D+2 on one setup and stopping once
    every predicate has held; (D + 2, "unresolved") for one that never
    does: the reference for `localization.d0_estimate` and for d0 and d1
    in `localization.bounds_report`."""
    setup = loc._AbelianSetup(G, p)
    first = [None] * len(predicates)
    for level in range(1, D + 3):
        diagram = loc._build_lambda(setup, level, D)
        first = [f or (level if holds(diagram) else None)
                 for f, holds in zip(first, predicates)]
        if None not in first:
            break
    return [(f - 1, "verified-through-cutoff") if f else (D + 2, "unresolved")
            for f in first]


def max_nil_submodule(source, d: int, D: int):
    """Degreewise basis of the largest subspace, closed under the powers
    inside degrees <= D, on which the lowering operators at levels below d
    certifiably iterate to zero within the materialized window.

    `source` is a catalog ring or a FiniteModule.  Returns a dict
    degree -> basis matrix (possibly with zero columns removed): the
    reference for the nilpotent level of `localization.bounds_report`.
    """
    if isinstance(source, ChowRing):
        module = ring_module(source, source.p * max(D, 1))
    elif isinstance(source, FiniteModule):
        module = source
    else:
        raise TypeError("expected a ChowRing or FiniteModule")
    p = module.p
    if d == 0:
        return {e: fl.identity(module.dim(e))
                for e in range(D + 1) if module.dim(e)}

    spaces = {}
    for e in range(D + 1):
        if module.dim(e) == 0:
            continue
        basis = fl.identity(module.dim(e))
        for j in range(d):
            dies = module.dies(j, e)
            if dies.shape[1] == 0:
                basis = dies
            else:  # the closure loop's shrink step, against dies' span
                resid = fl.residual_map(dies, module.dim(e), p)
                cond = fl.matmul(resid, basis, p)
                if cond.any():
                    basis = fl.matmul(basis, fl.kernel_matrix(cond, p), p)
            if basis.shape[1] == 0:
                break
        spaces[e] = basis

    # closure under the powers within the window (greatest fixed point)
    changed = True
    while changed:
        changed = False
        for e in sorted(spaces):
            basis = spaces[e]
            if basis.shape[1] == 0:
                continue
            for a in range(1, e + 1):
                t = e + a * (p - 1)
                if t > D:
                    break
                mat = module.act(a, e)
                if not mat.any():
                    continue
                cond = fl.matmul(mat, basis, p)
                # the residual of an empty span is the identity
                if t in spaces and spaces[t].shape[1]:
                    cond = fl.matmul(
                        fl.residual_map(spaces[t], module.dim(t), p), cond, p)
                if cond.any():
                    shrink = fl.kernel_matrix(cond, p)
                    basis = fl.matmul(basis, shrink, p)
                    spaces[e] = basis
                    changed = True
                    if basis.shape[1] == 0:
                        break
    return {e: b for e, b in spaces.items() if b.shape[1]}


def bounds_report_reference(G, faithful_degree, D, p):
    """`localization.bounds_report` by the level sweep and
    `max_nil_submodule` on one module of the ring through degree p D."""
    n = faithful_degree
    (d0, v0), (d1, v1) = level_sweep(G, D, p, all_injective, all_iso)
    # one module for every level, so the levels share its lowering memo
    module = ring_module(abelian_ring(G, p).ring, p * max(D, 1))
    largest = 0
    for level in range(1, D + 1):
        if max_nil_submodule(module, level, D):
            largest = level
        else:
            break
    violations = []
    if d0 > n * (n - 1) // 2:
        violations.append(f"d0 = {d0} exceeds n(n-1)/2 = {n * (n - 1) // 2}")
    if d1 > n * (n - 1):
        violations.append(f"d1 = {d1} exceeds n(n-1) = {n * (n - 1)}")
    if d0 != largest:
        violations.append(
            f"d0 = {d0} but the largest level with a nonzero certified "
            f"nilpotent submodule is {largest}")
    return {
        "group": G.name,
        "faithful_degree": n,
        "cutoff": D,
        "d0": d0, "d0_verdict": v0,
        "d1": d1, "d1_verdict": v1,
        "largest_nil_level": largest,
        "bound_d0": n * (n - 1) // 2,
        "bound_d1": n * (n - 1),
        "violations": violations,
    }
