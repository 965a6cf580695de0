"""Mod-p Chow rings of classifying spaces as unstable algebras.

For an elementary abelian group of rank k the ring is F_p[y_1, ..., y_k]
with each y_i in degree 1 and P^1(y_i) = y_i^p; abelian p-groups get the
same shape with one degree-1 class per cyclic factor (a documented catalog
extension, validated internally).  Anything else must be ingested from a
ring file and is checked for internal consistency only.

Polynomials are dicts mapping exponent tuples to scalars in 1..p-1.  The
reduced-power action works on numpy exponent rows (degree, e_1, ..., e_k)
instead, by the Cartan formula, one generator at a time (`cartan`).
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cache, cached_property
from operator import add

import numpy as np

from . import cartan
from . import fp_linalg as fl
from . import groups as gp
from .modules import FiniteModule

__all__ = [
    "Poly",
    "poly_add",
    "poly_scale",
    "poly_mul_raw",
    "ChowRing",
    "elem_abelian_ring",
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
                 provenance="catalog", cutoff=None, name=None, validate=False):
        self.p = fl.check_prime(p)
        self.generators = [(str(n), int(d)) for n, d in generators]
        if any(d < 1 for _, d in self.generators):
            raise ValueError("generator degrees must be >= 1")
        self.k = len(self.generators)
        self.relations = [dict(r) for r in relations]
        self.provenance = provenance
        self.cutoff = cutoff
        self.name = name or "ring"
        self.steenrod = {}
        for (gi, a), val in (steenrod or {}).items():
            self.steenrod[(int(gi), int(a))] = dict(val)
        self._fill_top_powers()
        self._deg_cache = {}
        self._shift_cache = {}
        self._action = cartan.Action(self)
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
        """All exponent tuples of degree d, before any relations, sorted:
        each generator's exponent runs upward inside the previous ones."""
        if d < 0 or not self.k:
            return [()] if d == 0 else []
        partial = [((), d)]  # (exponents so far, degree left)
        for i in range(self.k - 1):
            dg = self.gen_degree(i)
            partial = [(t + (e,), rem - e * dg) for t, rem in partial
                       for e in range(rem // dg + 1)]
        dg = self.gen_degree(self.k - 1)
        return [t + (rem // dg,) for t, rem in partial if rem % dg == 0]

    def _deg_data(self, d: int):
        """(monomials, index, nf, basis): quotient data in degree d, with
        nf None where no relation reaches degree d."""
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
        nf, free = (fl.quotient_data(rows, len(monos), self.p) if rows
                    else (None, range(len(monos))))
        data = (monos, index, nf, [monos[c] for c in free])
        self._deg_cache[d] = data
        return data

    def basis(self, d: int) -> list[tuple]:
        return self._deg_data(d)[3]

    def dim(self, d: int) -> int:
        if d < 0:
            return 0
        return len(self.basis(d))

    def scatter(self, mus, d: int) -> np.ndarray:
        """Multiplication by the monomials `mus` as maps of raw-monomial
        indices: raw_monomials(d)[t] * mus[j] is
        raw_monomials(d + deg mus[j])[out[t, j]]."""
        monos = self._deg_data(d)[0]
        out = []
        for mu in mus:
            index = self._deg_data(d + self.monomial_degree(mu))[1]
            out.append([index[tuple(map(add, m, mu))] for m in monos])
        return np.array(out, dtype=np.intp).reshape(len(mus), len(monos)).T

    def shifts(self, d: int):
        """(up, down) in degree d >= 1 of a ring on degree-1 generators
        with no relations: basis(d-1)[t] * y_j is basis(d)[up[t, j]], and
        divmod(down[c], k) is the first such (t, j) giving basis(d)[c]."""
        if d not in self._shift_cache:
            up = self.scatter([self.gen_poly(j).popitem()[0]
                               for j in range(self.k)], d - 1)
            self._shift_cache[d] = up, np.unique(up, return_index=True)[1]
        return self._shift_cache[d]

    def _reduce(self, raw, d: int) -> np.ndarray:
        """Basis coordinates of the columns of `raw`, given on
        raw_monomials(d): one normal-form product where d has relations."""
        nf = self._deg_data(d)[2]
        return raw if nf is None else fl.matmul(nf, raw, self.p)

    def coords(self, polys, d: int) -> np.ndarray:
        """One column of basis coordinates per degree-d polynomial; a
        degree with relations reduces all columns with one product."""
        monos, index = self._deg_data(d)[:2]
        raw = fl.zeros(len(monos), len(polys))
        for j, f in enumerate(polys):
            for m, c in f.items():
                raw[index[m], j] = c
        return self._reduce(raw, d)

    def poly_from_coords(self, vec, d: int) -> Poly:
        basis = self.basis(d)
        return {m: int(c) % self.p for m, c in zip(basis, vec) if c % self.p}

    def normal_form(self, f: Poly) -> Poly:
        if not f:
            return {}
        if not self.relations:
            return dict(f)
        d = self.poly_degree(f)
        return self.poly_from_coords(self.coords([f], d)[:, 0], d)

    def mul(self, f: Poly, g: Poly) -> Poly:
        return self.normal_form(poly_mul_raw(f, g, self.p))

    def power(self, f: Poly, e: int) -> Poly:
        out: Poly = {tuple([0] * self.k): 1}
        for _ in range(e):
            out = self.mul(out, f)
        return out

    # -- reduced-power action --------------------------------------------

    def act_raw(self, a: int, f: Poly) -> Poly:
        """P^a(f) before reduction by relations."""
        if a < 0:
            raise ValueError("operation index must be >= 0")
        d = self.poly_degree(f)
        if not f or a > d:  # P^a vanishes above the degree
            return {}
        return self._action.act(a, f, d)

    def act(self, a: int, f: Poly) -> Poly:
        """The reduced-power action P^a on a homogeneous polynomial."""
        return self.normal_form(self.act_raw(a, f))

    def act_word(self, word, f: Poly) -> Poly:
        for a in reversed(tuple(word)):
            f = self.act(a, f)
        return f

    # -- validation -------------------------------------------------------

    def validate(self):
        """Internal consistency through the declared cutoff: homogeneous
        relations, descent of the action to the quotient, and the ring's
        module through the cutoff passing FiniteModule validation (shapes,
        instability, Adem consistency)."""
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
        _filled_module(self, cutoff, truncated_above=cutoff)

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


@cache
def elem_abelian_ring(k: int, p: int) -> ChowRing:
    """F_p[y_1, ..., y_k], |y_i| = 1, P^1(y_i) = y_i^p: the catalog ring of
    every abelian p-group with k cyclic factors.  One ring per (k, p) is
    built and shared, with its degree tables; callers treat it as
    read-only."""
    if k < 0:
        raise ValueError("rank must be >= 0")
    return ChowRing(p, [(f"y{i + 1}", 1) for i in range(k)],
                    name=f"CH((Z/{p})^{k})")


@dataclass
class AbelianRingData:
    """A catalog ring tied to an abelian subgroup H of a group G (H = G
    when G is abelian and no elements are given to `abelian_ring`):
    generator i is the first Chern class of the character of H dual to
    basis[i].  The basis elements live in G, so a character of one
    subgroup evaluates directly on another's basis."""

    ring: ChowRing
    group: gp.FiniteGroup  # G, the ambient group
    basis: list  # (element of G, p-power order), spanning the p-part of H

    @cached_property
    def coordinates(self) -> dict:
        """Element of the span of the basis -> its exponents."""
        return gp.abelian_coordinates(self.group, self.basis)

    def char_matrix(self, points) -> np.ndarray:
        """k x m matrix over F_p of the basis characters on the points
        (x_j, o_j), x_j of order dividing o_j: entry (i, j) is
        c_i(x_j) o_j / o_i, so character i restricted to <x_j> is that
        power of the character dual to x_j."""
        p = self.ring.p
        mat = fl.zeros(len(self.basis), len(points))
        for j, (x, o) in enumerate(points):
            coords = self.coordinates.get(x)
            if coords is None:
                raise ValueError(
                    f"element {x} is not in the span of the basis")
            for i, (c, (_, oi)) in enumerate(zip(coords, self.basis)):
                if c * o % oi:
                    raise ValueError(
                        f"element {x} does not have order dividing {o}")
                mat[i, j] = c * o // oi % p
        return mat

    def restrict(self, target: AbelianRingData, name=None) -> RingMap:
        """The map CH -> CH_target sending the class of each character to
        the class of its restriction to target's subgroup."""
        return RingMap(self.ring, target.ring,
                       self.char_matrix(target.basis), name=name)


def abelian_ring(G: gp.FiniteGroup, p: int, elements=None) -> AbelianRingData:
    """Catalog ring at p of an abelian group, or of the abelian subgroup of
    G on the sorted element tuple `elements` (its p-part carries the
    ring)."""
    basis = gp.abelian_p_basis(G, p, elements)
    return AbelianRingData(ring=elem_abelian_ring(len(basis), p), group=G,
                           basis=basis)


# ---------------------------------------------------------------------------
# ring maps


class RingMap:
    """The ring map of a linear substitution between polynomial rings on
    degree-1 generators: source generator i goes to the sum over j of
    mat[i, j] times target generator j."""

    def __init__(self, source: ChowRing, target: ChowRing, mat, name=None):
        if source.p != target.p:
            raise ValueError("primes differ")
        if (source.p - 1) ** 2 >= 2**63:
            raise ValueError(f"prime {source.p} too large for int64 powers")
        if any(r.relations or {d for _, d in r.generators} - {1}
               for r in (source, target)):
            raise ValueError("not a polynomial ring on degree-1 generators")
        self.source, self.target = source, target
        self.mat = np.asarray(mat, dtype=np.int64) % source.p
        if self.mat.shape != (source.k, target.k):
            raise ValueError(f"need a {source.k} x {target.k} matrix")
        self.name = name or "ring map"
        # generator images as polynomials, as the benchmark tracer reads them
        self.images = [{tuple(int(b == j) for b in range(target.k)): int(c)
                        for j, c in enumerate(row) if c} for row in self.mat]
        self._powers = [fl.identity(1)]

    def matrix(self, d: int) -> np.ndarray:
        """Degree-d matrix in the source/target monomial bases: the d-th
        symmetric power of `mat`, built one degree at a time and kept.  A
        monomial y_i m of degree e goes to the image of m times row i of
        `mat`, spread over basis(e) by the target's `shifts`."""
        powers, p = self._powers, self.target.p
        while len(powers) <= d:
            e = len(powers)
            up = self.target.shifts(e)[0]
            prev, first = np.divmod(self.source.shifts(e)[1], self.source.k)
            # terms[t, j, c]: coefficient of basis(e-1)[t] * z_j
            terms = powers[-1][:, prev][:, None, :] * self.mat[first].T % p
            out = fl.zeros(self.target.dim(e), len(prev))
            np.add.at(out, up.ravel(), terms.reshape(up.size, len(prev)))
            powers.append(out % p)
        return powers[d] if d >= 0 else fl.zeros(0, 0)

    def __repr__(self):
        return f"<RingMap {self.name!r}: {self.source.name} -> {self.target.name}>"


def restriction_map(G: gp.FiniteGroup, subgroup_elements, p: int,
                    ring_G: AbelianRingData | None = None) -> RingMap:
    """Restriction CH*_G -> CH*_H for abelian p-groups H <= G, computed on
    character lattices: the class dual to a character goes to the class of
    its restriction."""
    data_G = ring_G or abelian_ring(G, p)
    elems = sorted(set(int(x) for x in subgroup_elements))
    if G.subgroup_closure(elems) != tuple(elems):
        raise ValueError("the given elements do not form a subgroup")
    data_H = abelian_ring(G, p, elems)
    rm = data_G.restrict(data_H, name=f"res {G.name} -> H{len(elems)}")
    rm.subgroup_data = data_H
    return rm


# ---------------------------------------------------------------------------
# modules from rings


class _ActionFill:
    """P^a from degree d on the ring's basis, into degrees <= top, as
    FiniteModule action matrices built when first read.  Reading from
    degree d runs the Cartan recursion on the raw monomials up to degree
    d, continuing from the blocks of earlier reads; then the block's rows
    of degree d + a(p-1) are placed on raw_monomials and reduced by the
    relations."""

    def __init__(self, ring: ChowRing, top: int):
        self.ring, self.top = ring, top
        self.levels, self.blocks = {}, {}
        self.filled = -1  # every degree <= filled has its block

    def __call__(self, a: int, d: int) -> np.ndarray:
        ring, action = self.ring, self.ring._action
        if d > self.filled:
            seeds = np.concatenate(
                [action.rows(ring._deg_data(e)[0])
                 for e in range(self.filled + 1, d + 1)])
            levels = action.prefix_levels(seeds, known=self.levels)
            action.powers(levels, self.top, self.top, out=self.blocks)
            self.levels.update(levels)
            self.filled = d
        _, index, nf, basis = ring._deg_data(d)
        rows, vals = self.blocks[d]
        if nf is not None:
            vals = vals[:, [index[m] for m in basis]]
        d2 = d + a * (ring.p - 1)
        lo, hi = rows[:, 0].searchsorted([d2, d2 + 1])
        raw = action.rows(ring._deg_data(d2)[0])
        mat = fl.zeros(len(raw), vals.shape[1])
        mat[cartan.find(rows[lo:hi], raw)] = vals[lo:hi]
        return ring._reduce(mat, d2)


def _filled_module(ring: ChowRing, top: int, **kwargs) -> FiniteModule:
    """The ring in degrees <= top, its action matrices filled on first
    read (`_ActionFill`)."""
    dims = {d: ring.dim(d) for d in range(top + 1) if ring.dim(d)}
    return FiniteModule(ring.p, dims, {}, fill=_ActionFill(ring, top),
                        **kwargs)


def truncate(ring: ChowRing, n: int) -> FiniteModule:
    """The graded quotient of the ring in degrees < n, as a module over the
    reduced powers (operations landing in degrees >= n become zero); its
    action matrices are filled on first read."""
    return _filled_module(ring, n - 1, validate=False)


def ring_module(ring: ChowRing, D: int) -> FiniteModule:
    """The ring itself through degree D, marked truncated above D; its
    action matrices are filled on first read."""
    return _filled_module(ring, D, truncated_above=D, validate=False)


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
    action, Adem consistency through the cutoff), never literature
    correctness."""
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
