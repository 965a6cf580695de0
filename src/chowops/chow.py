"""Mod-p Chow rings of classifying spaces as unstable algebras.

For an elementary abelian group of rank k the ring is F_p[y_1, ..., y_k]
with each y_i in degree 1 and P^1(y_i) = y_i^p; abelian p-groups get the
same shape with one degree-1 class per cyclic factor (a documented catalog
extension, validated internally).  Anything else must be ingested from a
ring file and is checked for internal consistency only.

Polynomials are dicts mapping exponent tuples to scalars in 1..p-1.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import fp_linalg as fl
from . import groups as gp
from .modules import FiniteModule
from .powers import reduce_word

__all__ = [
    "Poly",
    "poly_add",
    "poly_scale",
    "poly_mul_raw",
    "ChowRing",
    "elem_abelian_ring",
    "catalog_ring",
    "abelian_ring",
    "AbelianRingData",
    "RingMap",
    "restriction_map",
    "truncate",
    "ring_module",
    "ingest_ring",
]

Poly = dict  # exponent tuple -> scalar


def poly_add(f: Poly, g: Poly, p: int) -> Poly:
    out = dict(f)
    for m, c in g.items():
        v = (out.get(m, 0) + c) % p
        if v:
            out[m] = v
        elif m in out:
            del out[m]
    return out


def poly_scale(f: Poly, c: int, p: int) -> Poly:
    c %= p
    if c == 0:
        return {}
    return {m: (c * v) % p for m, v in f.items()}


def poly_mul_raw(f: Poly, g: Poly, p: int) -> Poly:
    out: Poly = {}
    for m1, c1 in f.items():
        for m2, c2 in g.items():
            m = tuple(a + b for a, b in zip(m1, m2))
            v = (out.get(m, 0) + c1 * c2) % p
            if v:
                out[m] = v
            elif m in out:
                del out[m]
    return out


class ChowRing:
    """Graded F_p-algebra with named generators, optional homogeneous
    relations, and reduced-power rules on generators."""

    def __init__(self, p, generators, relations=(), steenrod=None,
                 provenance="catalog", cutoff=None, char_orders=None,
                 name=None, validate=False):
        self.p = fl.check_prime(p)
        self.generators = [(str(n), int(d)) for n, d in generators]
        if any(d < 1 for _, d in self.generators):
            raise ValueError("generator degrees must be >= 1")
        self.k = len(self.generators)
        self.relations = [dict(r) for r in relations]
        self.provenance = provenance
        self.cutoff = cutoff
        self.char_orders = char_orders  # p-power order per generator (abelian)
        self.name = name or "ring"
        self.steenrod = {}
        for (gi, a), val in (steenrod or {}).items():
            self.steenrod[(int(gi), int(a))] = dict(val)
        self._fill_top_powers()
        self._deg_cache = {}
        self._tp_cache = {}
        if validate:
            self.validate()

    # -- structural helpers ---------------------------------------------

    def gen_degree(self, i: int) -> int:
        return self.generators[i][1]

    def gen_poly(self, i: int) -> Poly:
        e = [0] * self.k
        e[i] = 1
        return {tuple(e): 1}

    def _fill_top_powers(self):
        """P^{deg g}(g) = g^p always; install it, reject contradictions."""
        for i, (nm, d) in enumerate(self.generators):
            e = [0] * self.k
            e[i] = self.p
            top = {tuple(e): 1}
            have = self.steenrod.get((i, d))
            if have is None:
                self.steenrod[(i, d)] = top
            elif have != top:
                raise ValueError(
                    f"top-power violation: P^{d}({nm}) must be {nm}^{self.p}")
        for (gi, a) in self.steenrod:
            if not 1 <= a <= self.gen_degree(gi):
                raise ValueError(
                    f"operation rule P^{a} out of range for generator "
                    f"{self.generators[gi][0]} of degree {self.gen_degree(gi)}")

    def monomial_degree(self, m) -> int:
        return sum(e * d for e, (_, d) in zip(m, self.generators))

    def poly_degree(self, f: Poly):
        """Degree of a homogeneous polynomial; raises on mixed degrees."""
        degree = None
        for m in f:
            d = self.monomial_degree(m)
            if degree is None:
                degree = d
            elif d != degree:
                raise ValueError(f"inhomogeneous polynomial: {d} vs {degree}")
        return degree

    def raw_monomials(self, d: int) -> list[tuple]:
        """All exponent tuples of degree d, before any relations."""
        out = []

        def rec(i, rem, acc):
            if i == self.k:
                if rem == 0:
                    out.append(tuple(acc))
                return
            dg = self.gen_degree(i)
            for e in range(rem // dg + 1):
                acc.append(e)
                rec(i + 1, rem - e * dg, acc)
                acc.pop()

        rec(0, d, [])
        return sorted(out)

    def _deg_data(self, d: int):
        """(monomials, index, nf, basis): quotient data in degree d."""
        if d in self._deg_cache:
            return self._deg_cache[d]
        monos = self.raw_monomials(d)
        index = {m: i for i, m in enumerate(monos)}
        rows = []
        for rel in self.relations:
            rdeg = self.poly_degree(rel)
            if rdeg is None or rdeg > d:
                continue
            for m in self.raw_monomials(d - rdeg):
                prod = poly_mul_raw(rel, {m: 1}, self.p)
                row = np.zeros(len(monos), dtype=np.int64)
                for mm, c in prod.items():
                    row[index[mm]] = c
                rows.append(row)
        nf, free = fl.quotient_data(rows, len(monos), self.p)
        data = (monos, index, nf, [monos[c] for c in free])
        self._deg_cache[d] = data
        return data

    def basis(self, d: int) -> list[tuple]:
        return self._deg_data(d)[3]

    def dim(self, d: int) -> int:
        if d < 0:
            return 0
        return len(self.basis(d))

    def coords(self, f: Poly, d: int) -> np.ndarray:
        monos, index, nf, _ = self._deg_data(d)
        v = np.zeros(len(monos), dtype=np.int64)
        for m, c in f.items():
            v[index[m]] = c
        return fl.matmul(nf, v, self.p) if nf.shape[0] else np.zeros(0, np.int64)

    def poly_from_coords(self, vec, d: int) -> Poly:
        basis = self.basis(d)
        return {m: int(c) % self.p for m, c in zip(basis, vec) if c % self.p}

    def normal_form(self, f: Poly) -> Poly:
        if not f:
            return {}
        if not self.relations:
            return dict(f)
        d = self.poly_degree(f)
        return self.poly_from_coords(self.coords(f, d), d)

    def mul(self, f: Poly, g: Poly) -> Poly:
        return self.normal_form(poly_mul_raw(f, g, self.p))

    def power(self, f: Poly, e: int) -> Poly:
        out: Poly = {tuple([0] * self.k): 1}
        for _ in range(e):
            out = self.mul(out, f)
        return out

    # -- reduced-power action --------------------------------------------

    def _total_power_gen(self, i: int):
        """P_t(g_i) as a dict a -> raw polynomial, a = 0..deg(g_i)."""
        d = self.gen_degree(i)
        out = {0: self.gen_poly(i)}
        for a in range(1, d + 1):
            rule = self.steenrod.get((i, a))
            if rule:
                out[a] = dict(rule)
        return out

    def total_power_monomial(self, m: tuple) -> dict:
        """P_t(m) as a dict a -> raw polynomial; keys stop at deg(m)."""
        m = tuple(m)
        if m in self._tp_cache:
            return self._tp_cache[m]
        p = self.p
        acc = {0: {tuple([0] * self.k): 1}}
        for i, e in enumerate(m):
            if e == 0:
                continue
            if self.gen_degree(i) == 1 and set(
                    self.steenrod.get((i, 1), {})) == {self._pth_exp(i)}:
                # degree-1 generator with P^1 g = g^p: binomial closed form
                factor = {}
                for j in range(e + 1):
                    c = fl.binom_mod_p(e, j, p)
                    if c:
                        exp = [0] * self.k
                        exp[i] = e + j * (p - 1)
                        factor[j] = {tuple(exp): c}
            else:
                single = self._total_power_gen(i)
                factor = {0: {tuple([0] * self.k): 1}}
                for _ in range(e):
                    factor = self._tmul(factor, single)
            acc = self._tmul(acc, factor)
        self._tp_cache[m] = acc
        return acc

    def _pth_exp(self, i):
        e = [0] * self.k
        e[i] = self.p
        return tuple(e)

    def _tmul(self, f1, f2):
        out = {}
        for a1, p1 in f1.items():
            for a2, p2 in f2.items():
                prod = poly_mul_raw(p1, p2, self.p)
                if not prod:
                    continue
                a = a1 + a2
                out[a] = poly_add(out.get(a, {}), prod, self.p)
        return {a: v for a, v in out.items() if v}

    def act_raw(self, a: int, f: Poly) -> Poly:
        """P^a(f) before reduction by relations."""
        if a < 0:
            raise ValueError("operation index must be >= 0")
        self.poly_degree(f)  # homogeneity check
        out: Poly = {}
        for m, c in f.items():
            part = self.total_power_monomial(m).get(a)
            if part:
                out = poly_add(out, poly_scale(part, c, self.p), self.p)
        return out

    def act(self, a: int, f: Poly) -> Poly:
        """The reduced-power action P^a on a homogeneous polynomial."""
        return self.normal_form(self.act_raw(a, f))

    def act_word(self, word, f: Poly) -> Poly:
        for a in reversed(tuple(word)):
            f = self.act(a, f)
        return f

    # -- validation -------------------------------------------------------

    def validate(self, adem_degree_cap=6):
        """Internal consistency through the declared cutoff: homogeneous
        relations, descent of the action to the quotient, and Adem
        consistency on sampled monomials."""
        cutoff = self.cutoff if self.cutoff is not None else 8
        for r, rel in enumerate(self.relations):
            try:
                self.poly_degree(rel)
            except ValueError as exc:
                raise ValueError(f"relations[{r}]: {exc}") from None
        for (gi, a), val in self.steenrod.items():
            want = self.gen_degree(gi) + a * (self.p - 1)
            for m in val:
                if self.monomial_degree(m) != want:
                    raise ValueError(
                        f"P^{a}({self.generators[gi][0]}) is not homogeneous "
                        f"of degree {want}")
        for r, rel in enumerate(self.relations):
            rdeg = self.poly_degree(rel)
            if rdeg is None:
                continue
            a = 1
            while rdeg + a * (self.p - 1) <= cutoff:
                if self.normal_form(self.act_raw(a, rel)):
                    raise ValueError(
                        f"action does not respect relations[{r}]: "
                        f"P^{a} of it is nonzero in the quotient")
                a += 1
        self._validate_adem(min(cutoff, adem_degree_cap))

    def _validate_adem(self, cap):
        p = self.p
        for d in range(1, cap + 1):
            for m in self.basis(d):
                for b in range(1, d + 1):
                    for a in range(1, p * b):
                        if d + (a + b) * (p - 1) > (self.cutoff or 10**9):
                            continue
                        lhs = self.act(a, self.act(b, {m: 1}))
                        rhs: Poly = {}
                        for w, c in reduce_word((a, b), p).items():
                            rhs = poly_add(
                                rhs, poly_scale(self.act_word(w, {m: 1}), c, p),
                                p)
                        if lhs != rhs:
                            raise ValueError(
                                f"Adem consistency fails on P^{a} P^{b} "
                                f"applied to {m}")

    # -- serialization ----------------------------------------------------

    def to_json(self):
        def dump_poly(f):
            return [{"coeff": int(c), "monomial": list(m)}
                    for m, c in sorted(f.items())]

        return {
            "prime": self.p,
            "cutoff": self.cutoff if self.cutoff is not None else 8,
            "generators": [{"name": n, "degree": d} for n, d in self.generators],
            "relations": [dump_poly(r) for r in self.relations],
            "steenrod": [{"a": a, "gen": self.generators[gi][0],
                          "value": dump_poly(v)}
                         for (gi, a), v in sorted(self.steenrod.items())],
            "provenance": self.provenance,
        }

    def __repr__(self):
        gens = ", ".join(f"{n}({d})" for n, d in self.generators)
        return f"<ChowRing {self.name!r} p={self.p} on {gens or '1'}>"

    def __eq__(self, other):
        return (isinstance(other, ChowRing) and self.p == other.p
                and self.generators == other.generators
                and sorted(map(sorted, (r.items() for r in self.relations)))
                == sorted(map(sorted, (r.items() for r in other.relations)))
                and self.steenrod == other.steenrod)


# ---------------------------------------------------------------------------
# catalog


def elem_abelian_ring(k: int, p: int, names=None) -> ChowRing:
    """F_p[y_1, ..., y_k], |y_i| = 1, P^1(y_i) = y_i^p."""
    if k < 0:
        raise ValueError("rank must be >= 0")
    names = names or [f"y{i + 1}" for i in range(k)]
    gens = [(nm, 1) for nm in names]
    ring = ChowRing(p, gens, provenance="catalog",
                    char_orders=[p] * k, name=f"CH((Z/{p})^{k})")
    return ring


def catalog_ring(exponents, p: int, name=None) -> ChowRing:
    """Ring of the abelian p-group with cyclic factors Z/p^{e_i}: one
    degree-1 class per factor, the elementary abelian rules."""
    exponents = [int(e) for e in exponents]
    if any(e < 1 for e in exponents):
        raise ValueError(f"not a p-group descriptor: {exponents}")
    k = len(exponents)
    ring = elem_abelian_ring(k, p)
    ring.char_orders = [p ** e for e in exponents]
    ring.name = name or ("CH(" + " x ".join(f"Z/{p}^{e}" for e in exponents) + ")"
                         if k else "CH(1)")
    return ring


@dataclass
class AbelianRingData:
    """A catalog ring tied to a concrete abelian group: generator i is the
    first Chern class of the character dual to basis[i]."""

    ring: ChowRing
    group: gp.FiniteGroup
    basis: list  # (parent element, p-power order)

    def char_exponent_mod_p(self, i: int, x: int) -> int:
        """The character of generator i evaluated on a p-torsion element x,
        written as an exponent of a fixed primitive p-th root."""
        coords = gp.abelian_coordinates(self.group, self.basis, x)
        order = self.basis[i][1]
        c = coords[i]
        num = c * self.ring.p
        if num % order:
            raise ValueError(f"element {x} is not p-torsion")
        return (num // order) % self.ring.p


def abelian_ring(G: gp.FiniteGroup, p: int) -> AbelianRingData:
    """Catalog ring of an abelian group at p (its p-part carries the ring)."""
    basis = gp.abelian_p_basis(G, p)
    orders = [o for _, o in basis]
    exps = []
    for o in orders:
        e = 0
        while o > 1:
            o //= p
            e += 1
        exps.append(e)
    ring = catalog_ring(exps, p, name=f"CH({G.name})")
    return AbelianRingData(ring=ring, group=G, basis=basis)


# ---------------------------------------------------------------------------
# ring maps


class RingMap:
    """Multiplicative degree-preserving map given by generator images."""

    def __init__(self, source: ChowRing, target: ChowRing, images, name=None):
        if source.p != target.p:
            raise ValueError("primes differ")
        self.source = source
        self.target = target
        self.images = [dict(f) for f in images]
        self.name = name or "ring map"
        if len(self.images) != source.k:
            raise ValueError("need one image per source generator")
        for i, f in enumerate(self.images):
            if f and target.poly_degree(f) != source.gen_degree(i):
                raise ValueError(
                    f"image of {source.generators[i][0]} has the wrong degree")

    def apply(self, f: Poly) -> Poly:
        out: Poly = {}
        for m, c in f.items():
            term: Poly = {tuple([0] * self.target.k): c % self.target.p}
            for i, e in enumerate(m):
                for _ in range(e):
                    term = poly_mul_raw(term, self.images[i], self.target.p)
            out = poly_add(out, term, self.target.p)
        return self.target.normal_form(out)

    def matrix(self, d: int) -> np.ndarray:
        """Degree-d matrix in the source/target monomial bases."""
        cols = [self.target.coords(self.apply({m: 1}), d)
                for m in self.source.basis(d)]
        if not cols:
            return fl.zeros(self.target.dim(d), 0)
        return np.stack(cols, axis=1)

    def check_commutes(self, max_degree: int = 6) -> bool:
        """P^a naturality on generators through the stated window."""
        for i in range(self.source.k):
            g = self.source.gen_poly(i)
            for a in range(1, self.source.gen_degree(i) + 1):
                if self.source.gen_degree(i) + a * (self.source.p - 1) > max_degree:
                    continue
                lhs = self.apply(self.source.act(a, g))
                rhs = self.target.act(a, self.apply(g))
                if lhs != rhs:
                    return False
        return True

    def __repr__(self):
        return f"<RingMap {self.name!r}: {self.source.name} -> {self.target.name}>"


def restriction_map(G: gp.FiniteGroup, subgroup_elements, p: int,
                    ring_G: AbelianRingData | None = None) -> RingMap:
    """Restriction CH*_G -> CH*_H for abelian p-groups H <= G, computed on
    character lattices: the class dual to a character goes to the class of
    its restriction."""
    data_G = ring_G or abelian_ring(G, p)
    elems = sorted(set(int(x) for x in subgroup_elements))
    closed = G.subgroup_closure(elems)
    if set(closed) != set(elems):
        raise ValueError("the given elements do not form a subgroup")
    H, parent = G.as_subgroup(elems)
    if not H.is_abelian:
        raise ValueError("restriction maps require an abelian subgroup")
    basis_H_local = gp.abelian_p_basis(H, p)
    data_H = AbelianRingData(
        ring=catalog_ring([_log_p(o, p) for _, o in basis_H_local], p,
                          name=f"CH(sub{len(elems)} of {G.name})"),
        group=H,
        basis=basis_H_local)
    images = []
    for i, (_, order_i) in enumerate(data_G.basis):
        img: Poly = {}
        for j, (h_local, order_j) in enumerate(basis_H_local):
            coords = gp.abelian_coordinates(G, data_G.basis, parent[h_local])
            num = coords[i] * order_j
            if num % order_i:
                raise RuntimeError("character restriction is not integral")
            t = (num // order_i) % p
            if t:
                e = [0] * data_H.ring.k
                e[j] = 1
                img = poly_add(img, {tuple(e): t}, p)
        images.append(img)
    rm = RingMap(data_G.ring, data_H.ring, images,
                 name=f"res {G.name} -> H{len(elems)}")
    rm.subgroup_data = data_H
    rm.parent_elements = parent
    return rm


def _log_p(o, p):
    e = 0
    while o > 1:
        if o % p:
            raise ValueError(f"{o} is not a p-power")
        o //= p
        e += 1
    return e


# ---------------------------------------------------------------------------
# modules from rings


def _action_through(ring: ChowRing, top: int):
    """(dims, mats) of the ring in degrees <= top, with the reduced powers
    that stay inside that window as FiniteModule action matrices."""
    dims = {d: ring.dim(d) for d in range(max(top + 1, 0)) if ring.dim(d)}
    mats = {}
    for d in sorted(dims):
        for a in range(1, d + 1):
            d2 = d + a * (ring.p - 1)
            if d2 > top or d2 not in dims:
                continue
            cols = [ring.coords(ring.act(a, {m: 1}), d2) for m in ring.basis(d)]
            mat = np.stack(cols, axis=1)
            if mat.any():
                mats[(a, d)] = mat
    return dims, mats


def truncate(ring: ChowRing, n: int, D=None) -> FiniteModule:
    """The graded quotient of the ring in degrees < n, as a module over the
    reduced powers (operations landing in degrees >= n become zero)."""
    top = n - 1 if D is None else min(n - 1, D)
    complete = D is None or D >= n - 1
    return FiniteModule(ring.p, *_action_through(ring, top),
                        truncated_above=None if complete else top,
                        validate=False)


def ring_module(ring: ChowRing, D: int) -> FiniteModule:
    """The ring itself through degree D, marked truncated above D."""
    return FiniteModule(ring.p, *_action_through(ring, D),
                        truncated_above=D, validate=False)


# ---------------------------------------------------------------------------
# ingestion


_RING_FIELDS = {"prime", "cutoff", "generators", "relations", "steenrod",
                "provenance", "name"}


def _load_poly(data, k, p, where):
    """Terms summed mod p, so repeated monomials add and zero terms vanish."""
    out = {}
    for t, term in enumerate(data):
        here = f"{where}[{t}]"
        if set(term) - {"coeff", "monomial"}:
            raise ValueError(f"{here}: unknown fields "
                             f"{sorted(set(term) - {'coeff', 'monomial'})}")
        if "monomial" not in term:
            raise ValueError(f"{here}: need a monomial exponent vector")
        coeff = term.get("coeff", 1)
        fl.check_ints(term["monomial"], f"{here}.monomial", 1)
        fl.check_ints(coeff, f"{here}.coeff")
        mono = tuple(term["monomial"])
        if len(mono) != k:
            raise ValueError(f"{here}.monomial: expected {k} exponents")
        if any(e < 0 for e in mono):
            raise ValueError(f"{here}.monomial: negative exponent")
        out[mono] = (out.get(mono, 0) + coeff) % p
    return {m: c for m, c in out.items() if c}


def ingest_ring(data) -> ChowRing:
    """Load and validate a ring file; the checks certify internal
    consistency (homogeneity, instability, top powers, descent of the
    action, Adem samples), never literature correctness."""
    unknown = set(data) - _RING_FIELDS
    if unknown:
        raise ValueError(f"unknown ring file fields: {sorted(unknown)}")
    if "prime" not in data or "generators" not in data:
        raise ValueError("ring file needs 'prime' and 'generators'")
    p = fl.check_prime(data["prime"])
    gens = []
    for i, g in enumerate(data["generators"]):
        try:
            gens.append((g["name"], g["degree"]))
        except (KeyError, TypeError):
            raise ValueError(f"generators[{i}]: need name and degree") from None
        fl.check_ints(g["degree"], f"generators[{i}].degree")
    names = [n for n, _ in gens]
    k = len(gens)
    rels = [_load_poly(r, k, p, f"relations[{i}]")
            for i, r in enumerate(data.get("relations", []))]
    cutoff = data.get("cutoff", 8)
    fl.check_ints(cutoff, "cutoff")
    steenrod = {}
    for i, s in enumerate(data.get("steenrod", [])):
        where = f"steenrod[{i}]"
        if set(s) - {"a", "gen", "value"}:
            raise ValueError(f"{where}: unknown fields")
        try:
            a = s["a"]
            gen = s["gen"]
            val = _load_poly(s["value"], k, p, f"{where}.value")
        except (KeyError, TypeError):
            raise ValueError(f"{where}: need a, gen, value") from None
        fl.check_ints(a, f"{where}.a")
        if gen not in names:
            raise ValueError(f"{where}.gen: unknown generator {gen!r}")
        steenrod[(names.index(gen), a)] = val
    ring = ChowRing(p, gens, rels, steenrod,
                    provenance=data.get("provenance", "ingested"),
                    cutoff=cutoff,
                    name=data.get("name", "ingested ring"),
                    validate=True)
    return ring
