"""Mod-p Chow rings of classifying spaces as unstable algebras.

For an elementary abelian group of rank k the ring is F_p[y_1, ..., y_k]
with each y_i in degree 1 and P^1(y_i) = y_i^p; abelian p-groups get the
same shape with one degree-1 class per cyclic factor (a documented catalog
extension).  These are the only rings: `ChowRing` is that polynomial ring.

Polynomials are dicts mapping exponent tuples to scalars in 1..p-1.  The
reduced-power action has a closed form on it, from the Cartan formula and
P(y) = y + y^p:  P^a(y^E) = sum over |I| = a of prod_j C(e_j, i_j)
y^{E + (p - 1) I}.  It is evaluated in two forms of the same sum: per
monomial for a single polynomial (`ChowRing.act`), and as one array pass
per (a, d) for the action matrices of `ring_module`.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from functools import cache, cached_property

import numpy as np

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
    "symmetric_powers",
    "restriction_map",
    "ring_module",
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
    """F_p[y_1, ..., y_k] with every y_i in degree 1 and P^1(y_i) = y_i^p,
    graded by degree."""

    # a polynomial ring has no relations; the benchmark tracer reads them
    relations = ()

    def __init__(self, p, k: int, name=None):
        self.p = fl.check_prime(p)
        if k < 0:
            raise ValueError("rank must be >= 0")
        self.k = k
        self.generators = [(f"y{i + 1}", 1) for i in range(k)]
        self.name = name or "ring"
        self._degrees = {}
        self._shift_cache = {}

    # -- structural helpers ---------------------------------------------

    def poly_degree(self, f: Poly):
        """Degree of a homogeneous polynomial; raises on mixed degrees."""
        degree = None
        for m in f:
            d = sum(m)
            if degree is None:
                degree = d
            elif d != degree:
                raise ValueError(f"inhomogeneous polynomial: {d} vs {degree}")
        return degree

    def _degree(self, d: int):
        """(basis, index) in degree d: the exponent tuples of degree d in
        lexicographic order, each generator's exponent running upward
        inside the previous ones, and the position of each."""
        if d not in self._degrees:
            if d < 0 or not self.k:
                monos = [()] if d == 0 else []
            else:
                partial = [((), d)]  # (exponents so far, degree left)
                for _ in range(self.k - 1):
                    partial = [(t + (e,), rem - e) for t, rem in partial
                               for e in range(rem + 1)]
                monos = [t + (rem,) for t, rem in partial]
            self._degrees[d] = monos, {m: i for i, m in enumerate(monos)}
        return self._degrees[d]

    def basis(self, d: int) -> list[tuple]:
        return self._degree(d)[0]

    def dim(self, d: int) -> int:
        return len(self._degree(d)[0])

    def shifts(self, d: int):
        """(up, down) in degree d >= 1: basis(d-1)[t] * y_j is
        basis(d)[up[t, j]], and divmod(down[c], k) is the first such
        (t, j) giving basis(d)[c]."""
        if d not in self._shift_cache:
            k, n = self.k, self.dim(d - 1)
            rows = np.array(self.basis(d - 1), dtype=np.int64).reshape(n, k)
            up = self.positions(
                (rows[:, None, :] + fl.identity(k)).reshape(n * k, k), d
            ).reshape(n, k)
            self._shift_cache[d] = up, np.unique(up, return_index=True)[1]
        return self._shift_cache[d]

    def coords(self, polys, d: int) -> np.ndarray:
        """One column of basis coordinates per degree-d polynomial."""
        index = self._degree(d)[1]
        out = fl.zeros(len(index), len(polys))
        for j, f in enumerate(polys):
            for m, c in f.items():
                out[index[m], j] = c
        return out

    def positions(self, rows: np.ndarray, d: int) -> np.ndarray:
        """The index in basis(d) of each exponent row of degree d, by
        counting: the monomials that agree with a row before coordinate j
        and are smaller at j number C(s + m, m) - C(s - e_j + m, m), for s
        the degree left at j and m the coordinates after it.  Every such
        count is at most dim(d), so it fits in int64."""
        k = self.k
        # counts[s, m] = C(s + m, m): the monomials of degree s in m + 1
        # variables
        counts = np.ones((d + 1, max(k, 1)), dtype=np.int64)
        for m in range(1, k):
            counts[:, m] = counts[:, m - 1].cumsum()
        index = np.zeros(len(rows), dtype=np.int64)
        left = np.full(len(rows), d, dtype=np.int64)
        for j in range(k - 1):
            m = k - 1 - j
            index += counts[left, m]
            left -= rows[:, j]
            index -= counts[left, m]
        return index

    def normal_form(self, f: Poly) -> Poly:
        """A copy of f: with no relations, every polynomial is its own
        normal form.  The benchmark tracer times this name."""
        return dict(f)

    def mul(self, f: Poly, g: Poly) -> Poly:
        return poly_mul_raw(f, g, self.p)

    def power(self, f: Poly, e: int) -> Poly:
        out: Poly = {tuple([0] * self.k): 1}
        for _ in range(e):
            out = self.mul(out, f)
        return out

    # -- reduced-power action --------------------------------------------

    def act(self, a: int, f: Poly) -> Poly:
        """The reduced-power action P^a on a homogeneous polynomial, one
        monomial at a time by the closed form (`_monomial_power`)."""
        if a < 0:
            raise ValueError("operation index must be >= 0")
        d = self.poly_degree(f)
        if not f or a > d:  # P^a vanishes above the degree
            return {}
        out = {}
        for m, c in f.items():
            for r, v in _monomial_power(m, a, self.p):
                out[r] = (out.get(r, 0) + c * v) % self.p
        return {m: c for m, c in out.items() if c}

    def act_word(self, word, f: Poly) -> Poly:
        for a in reversed(tuple(word)):
            f = self.act(a, f)
        return f

    def __repr__(self):
        gens = ", ".join(f"{n}({d})" for n, d in self.generators)
        return f"<ChowRing {self.name!r} p={self.p} on {gens or '1'}>"


def _monomial_power(e: tuple, a: int, p: int) -> list:
    """The terms (exponents, coefficient) of P^a(y^e), by the Cartan
    formula on P(y_j) = y_j + y_j^p:
    P^a(y^e) = sum over |I| = a of prod_j C(e_j, i_j) y^{e + (p - 1) I}.
    Only the I with i_j <= e_j are enumerated, and each binomial row is
    built exactly in Python integers (C(n, i + 1) = C(n, i) (n - i) /
    (i + 1)) before it is reduced, so this is exact at any prime and
    never lists a whole degree."""
    terms = [((), a, 1)]  # (exponents so far, a left to place, coefficient)
    room = sum(e)  # the most the positions from here on can take
    for ej in e:
        room -= ej
        row, binom = [], 1  # binom = C(ej, i), exact
        for i in range(min(ej, a) + 1):
            if binom % p:
                row.append((i, binom % p))
            binom = binom * (ej - i) // (i + 1)
        terms = [(x + (ej + i * (p - 1),), rem - i, coef * c % p)
                 for x, rem, coef in terms
                 for i, c in row if rem - room <= i <= rem]
    return [(x, c) for x, rem, c in terms if rem == 0]


# ---------------------------------------------------------------------------
# catalog


@cache
def elem_abelian_ring(k: int, p: int) -> ChowRing:
    """F_p[y_1, ..., y_k], |y_i| = 1, P^1(y_i) = y_i^p: the catalog ring of
    every abelian p-group with k cyclic factors.  One ring per (k, p) is
    built and shared, with its degree tables; callers treat it as
    read-only."""
    return ChowRing(p, k, name=f"CH((Z/{p})^{k})")


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


def symmetric_powers(source: ChowRing, target: ChowRing, mats):
    """The symmetric powers of a stack of B substitution matrices from
    `source` to `target` (generator i of the source goes to the sum over j
    of mats[b, i, j] times generator j of the target): an iterator over
    d = 0, 1, 2, ... of the B x target.dim(d) x source.dim(d) stacks of
    the degree-d matrices, in the two rings' monomial bases.

    Degree e is built from degree e - 1 for the whole stack in one pass.
    A monomial y_i m of degree e goes to the image of m times row i of
    the substitution, spread over basis(e) by the target's `shifts`;
    for one target generator j the products land on distinct monomials,
    so each j is one indexed add."""
    p = source.p
    if target.p != p:
        raise ValueError("primes differ")
    if (p - 1) ** 2 >= 2**63:
        raise ValueError(f"prime {p} too large for int64 powers")
    mats = np.asarray(mats, dtype=np.int64) % p
    if mats.ndim != 3 or mats.shape[1:] != (source.k, target.k):
        raise ValueError(
            f"need a {source.k} x {target.k} matrix per map, stacked")
    return _symmetric_powers(source, target, mats)


def _symmetric_powers(source, target, mats):
    power = np.ones((len(mats), 1, 1), dtype=np.int64)
    for e in itertools.count(1):
        yield power
        power = _next_power(source, target, mats, power, e)


def _next_power(source, target, mats, power, e):
    """Degree e of the stack from degree e - 1, `power`, a block of maps
    at a time so that the temporaries stay near 2^16 entries."""
    p = source.p
    up = target.shifts(e)[0]
    prev, first = np.divmod(source.shifts(e)[1], source.k)
    out = np.zeros((len(mats), target.dim(e), len(prev)), dtype=np.int64)
    step = max(1, 2**16 // max(1, power.shape[1] * len(prev)))
    for b in range(0, len(mats), step):
        # gathered[b, t, c]: coefficient of basis(e-1)[t] in the image of
        # source monomial c divided by its first generator
        gathered = power[b:b + step, :, prev]
        term = np.empty_like(gathered)
        for j in range(target.k):
            np.multiply(gathered, mats[b:b + step, None, first, j], out=term)
            term %= p
            out[b:b + step, up[:, j]] += term
    out %= p
    return out


class RingMap:
    """The ring map of a linear substitution between polynomial rings on
    degree-1 generators: source generator i goes to the sum over j of
    mat[i, j] times target generator j."""

    def __init__(self, source: ChowRing, target: ChowRing, mat, name=None):
        self.source, self.target = source, target
        self.mat = np.asarray(mat, dtype=np.int64) % source.p
        self._next = symmetric_powers(source, target, self.mat[None])
        self._powers = []
        self.name = name or "ring map"
        # generator images as polynomials, as the benchmark tracer reads them
        self.images = [{tuple(int(b == j) for b in range(target.k)): int(c)
                        for j, c in enumerate(row) if c} for row in self.mat]

    def matrix(self, d: int) -> np.ndarray:
        """Degree-d matrix in the source/target monomial bases: the d-th
        symmetric power of `mat`, from `symmetric_powers` as a batch of
        one, each degree kept once built."""
        while len(self._powers) <= d:
            self._powers.append(next(self._next)[0])
        return self._powers[d] if d >= 0 else fl.zeros(0, 0)

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


def _action_matrix(ring: ChowRing, a: int, d: int) -> np.ndarray:
    """P^a from degree d on the basis, by the closed form of
    `_monomial_power` in one pass over basis(d) x the compositions of a
    into k parts, which are basis(a).  A coefficient is a product of
    residues from Pascal's triangle mod p, and a target's row comes from
    `ChowRing.positions`.  The terms of one column have distinct
    targets, so every entry is written once."""
    p, k = ring.p, ring.k
    if (p - 1) ** 2 >= 2**63:
        raise ValueError(f"prime {p} too large for int64 products")
    src, parts = (np.array(ring.basis(e), dtype=np.int64)
                  .reshape(ring.dim(e), k) for e in (d, a))
    pascal = fl.binom_table(d, a, p)
    # coef[r, c]: the coefficient of composition c on basis monomial r,
    # zero where c exceeds r in some exponent
    coef = np.ones((len(src), len(parts)), dtype=np.int64)
    for j in range(k):
        coef = coef * pascal[src[:, j, None], parts[None, :, j]] % p
    r, c = coef.nonzero()
    d2 = d + a * (p - 1)
    mat = fl.zeros(ring.dim(d2), len(src))
    mat[ring.positions(src[r] + (p - 1) * parts[c], d2), r] = coef[r, c]
    return mat


def ring_module(ring: ChowRing, D: int) -> FiniteModule:
    """The ring itself through degree D, marked truncated above D; its
    action matrices are filled on first read (`_action_matrix`)."""
    dims = {d: ring.dim(d) for d in range(D + 1) if ring.dim(d)}
    return FiniteModule(ring.p, dims, {},
                        fill=lambda a, d: _action_matrix(ring, a, d),
                        truncated_above=D, validate=False)
