"""Localization away from n-nilpotent modules, at the level of explicit
degreewise matrices.

For a group G with catalog ring data the map lambda_n goes from CH_G into
the product over elementary abelian classes E of CH_E (x) (CH_{C(E)}
truncated below n); the equalizer of the two leg maps over the
category of elementary abelian subgroups and their inclusions receives
it.  Everything here certifies statements "through degree D" only and
says so.

Implemented scope: abelian groups (all centralizers are then the group
itself and every map is canonical character algebra).  Nonabelian input
is rejected with a pointed message: catalog rings exist for abelian
groups only.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field
from functools import cache, cached_property

import numpy as np

from . import fp_linalg as fl
from . import groups as gp
from .chow import (ChowRing, abelian_ring, restriction_map, ring_module,
                   symmetric_powers)
from .modules import FiniteModule

__all__ = [
    "EqualizerDiagram",
    "build_lambda",
    "FIsoCertificate",
    "certify_nilpotent",
    "f_iso_check",
    "d0_estimate",
    "max_nil_submodule",
    "bounds_report",
]


# ---------------------------------------------------------------------------
# shared degreewise machinery for abelian groups


class _AbelianSetup:
    """Rings, restriction maps, and the subgroup category of an abelian
    group, with caches for degreewise matrices.

    The category is the subspace lattice of T, the subgroup of elements
    of order dividing p: conjugation is the identity, so the morphisms
    are the inclusion pairs (i, j), E_i <= E_j, of `morphisms`, and the
    map of (i, j) is res_{E_j->E_i}.  T is terminal: every E lies in T.
    It is the largest object, so `elementary_abelians` sorts it last, and
    `top` is its index.  Restriction is functorial,
    res_{E2->E1} o res_{T->E2} = res_{T->E1}, so T's component determines
    every other: `build_lambda` and `f_iso_check` both work on T alone.
    """

    def __init__(self, G: gp.FiniteGroup, p: int):
        if not G.is_abelian:
            raise ValueError(
                f"{G.name}: localization needs catalog rings and the "
                "restriction maps between centralizer rings, and catalog "
                "rings exist for abelian groups only")
        self.G = G
        self.p = fl.check_prime(p)
        self.data_G = abelian_ring(G, p)
        self.objects, self.morphisms = gp.elementary_abelians(G, p)
        self.res_to = []      # RingMap CH_G -> CH_E per object
        self.sub_data = []    # AbelianRingData per object
        for obj in self.objects:
            rm = restriction_map(G, obj, p, ring_G=self.data_G)
            self.res_to.append(rm)
            self.sub_data.append(rm.subgroup_data)
        self._mat_cache = {}
        self._comult_cache = {}
        self.top = len(self.objects) - 1

    # -- cached degreewise matrices --------------------------------------

    def res_mat(self, i, d):
        return self.res_to[i].matrix(d)

    def res_comult(self, i, a, b):
        """CH_G^{a+b} -> CH_{E_i}^a (x) CH_G^b: comultiply, then restrict
        the left factor to E_i."""
        key = ("rescomult", i, a, b)
        if key not in self._mat_cache:
            ring_G = self.data_G.ring
            m, k = ring_G.dim(b), ring_G.dim(a + b)
            if self.sub_data[i].ring.dim(a) * m:
                # kron(res, I_m) @ C without the Kronecker product: C's
                # rows are (s, t) pairs, s a CH_G^a index and t < m
                res = self.res_mat(i, a)
                comult = self.comult_split(ring_G, a, b)
                self._mat_cache[key] = fl.matmul(
                    res, comult.reshape(res.shape[1], m * k), self.p
                ).reshape(res.shape[0] * m, k)
            else:
                self._mat_cache[key] = fl.zeros(0, k)
        return self._mat_cache[key]

    @cached_property
    def functorial(self):
        """Whether every inclusion E_i <= E_j composes with restriction
        from G: res_{E_j->E_i} o res_{G->E_j} = res_{G->E_i}, on
        substitution matrices."""
        return all(
            (fl.matmul(self.res_to[j].mat,
                       self.sub_data[j].char_matrix(self.sub_data[i].basis),
                       self.p) == self.res_to[i].mat).all()
            for i, j in self.morphisms)

    def comult_split(self, ring: ChowRing, i, j):
        """Matrix of the coproduct piece CH^{i+j} -> CH^i (x) CH^j for a
        polynomial ring on degree-1 classes: row (a, b) has the product
        of binomials C(alpha, beta) at the column of alpha = beta + gamma,
        for beta and gamma the a-th and b-th basis monomials."""
        key = (id(ring), i, j)
        if key not in self._comult_cache:
            p, k = self.p, ring.k
            bi, bj = (
                np.array(ring.basis(e), dtype=np.int64).reshape(ring.dim(e), k)
                for e in (i, j))
            beta = np.repeat(bi, len(bj), axis=0)
            alpha = beta + np.tile(bj, (len(bi), 1))
            pascal = fl.binom_table(i + j, i + j, p)
            coef = np.ones(len(alpha), dtype=np.int64)
            for x in range(k):
                coef = coef * pascal[alpha[:, x], beta[:, x]] % p
            mat = fl.zeros(len(alpha), ring.dim(i + j))
            mat[np.arange(len(alpha)), ring.positions(alpha, i + j)] = coef
            self._comult_cache[key] = mat
        return self._comult_cache[key]


def _lambda_block(setup, d, n):
    """lambda_T in degree d, CH^d_G -> (CH_T (x) CH_G^{<n})^d: comultiply,
    restrict the left factor to T, truncate the right factor below n.  Its
    row blocks are the centralizer degrees j < n, in increasing order."""
    return np.vstack([setup.res_comult(setup.top, d - j, j)
                      for j in range(min(n - 1, d) + 1)])


def _top_condition(setup, d, n):
    """Leg 1 minus leg 2 of T's own pair in degree d, from
    (CH_T (x) CH_G^{<n})^d to (CH_T (x) (CH_T (x) CH_G)^{<n})^d, as COO
    triplets (rows, cols, vals) with entries in 0..p-1, and its shape.
    Leg 1 comultiplies the CH_T factor.  Leg 2 maps the CH_T factor by T's
    own map, the identity, and expands the centralizer factor into factors
    two and three.  The row blocks are the (j2, j3) degrees of those
    factors, j2 >= 1; `_counit_holds` checks the (0, j3) blocks instead.
    Each block is kron(comult_split, I) at the columns of middle degree j3
    minus kron(I, res_comult) at those of middle degree j2 + j3; the
    triplets come from the nonzeros of those two cached pieces."""
    p, ring_G = setup.p, setup.data_G.ring
    ring_T = setup.sub_data[setup.top].ring
    offs = np.cumsum([0] + [ring_T.dim(d - j) * ring_G.dim(j)
                            for j in range(min(n - 1, d) + 1)])
    rows, cols, vals = [], [], []
    start = 0
    for j2 in range(1, min(n - 1, d) + 1):
        for j3 in range(min(n - 1 - j2, d - j2) + 1):
            i, j = d - j2 - j3, j2 + j3
            size = ring_T.dim(i) * ring_T.dim(j2) * ring_G.dim(j3)
            if size:
                # kron(A, I_m) holds A[a, c] at (a m + t, c m + t), t < m
                piece = setup.comult_split(ring_T, i, j2)
                a, c = np.nonzero(piece)
                m = ring_G.dim(j3)
                t = np.arange(m)
                rows.append((start + a[:, None] * m + t).ravel())
                cols.append((offs[j3] + c[:, None] * m + t).ravel())
                vals.append(np.repeat(piece[a, c], m))
                # kron(I_s, B) holds B[a, c] at (t rb + a, t cb + c), t < s
                piece = setup.res_comult(setup.top, j2, j3)
                a, c = np.nonzero(piece)
                rb, cb = piece.shape
                t = np.arange(ring_T.dim(i))[:, None]
                rows.append((start + t * rb + a).ravel())
                cols.append((offs[j] + t * cb + c).ravel())
                vals.append(np.tile(-piece[a, c] % p, len(t)))
            start += size
    coo = tuple(np.concatenate([np.zeros(0, dtype=np.int64)] + part)
                for part in (rows, cols, vals))
    return coo, (start, int(offs[-1]))


def _counit_holds(setup, d, n):
    """Whether both pieces of every (0, j3) block of T's pair in degree d,
    CH_T^i -> CH_T^i (x) CH_T^0 in leg 1 and CH_G^{j3} -> CH_T^0 (x)
    CH_G^{j3} in leg 2, are identities, as the counit law says."""
    ring_T = setup.sub_data[setup.top].ring
    return all(
        np.array_equal(piece, fl.identity(len(piece)))
        for j in range(min(n - 1, d) + 1)
        for piece in (setup.comult_split(ring_T, d - j, 0),
                      setup.res_comult(setup.top, 0, j)))


# ---------------------------------------------------------------------------
# the equalizer diagram


@dataclass
class EqualizerDiagram:
    group: gp.FiniteGroup
    p: int
    level: int
    cutoff: int
    objects: list
    morphism_count: int
    source_dims: dict = field(default_factory=dict)
    middle_dims: dict = field(default_factory=dict)
    eq_dims: dict = field(default_factory=dict)
    legs_agree: dict = field(default_factory=dict)    # degree -> bool
    injective: dict = field(default_factory=dict)
    onto_equalizer: dict = field(default_factory=dict)

    def all_injective(self):
        return all(self.injective.values())

    def all_iso(self):
        return self.all_injective() and all(self.onto_equalizer.values())


def build_lambda(G: gp.FiniteGroup, n: int, D: int, p: int) -> EqualizerDiagram:
    """Materialize lambda_n and the two legs through degree D and compute
    the equalizer dimensions.

    The subgroup category has a terminal object T (see `_AbelianSetup`),
    and every output is read off T's component lambda_T and T's own pair
    of legs, where T's own map is the identity:

    * equalizer.  In degree d it is the kernel of leg 1 minus leg 2 of
      that pair, so eq_dim = cols - rank of that condition, which is
      built as COO triplets and ranked by sparse elimination.  No kernel
      basis is formed;
    * rank.  res_{G->E} = res_{T->E} o res_{G->T}, so
      lambda_E = (res_{T->E} (x) id) lambda_T.  The lambda stacked over
      every object therefore has the rank of lambda_T, which decides
      `injective` and `onto_equalizer`;
    * morphisms.  For the inclusion E1 <= E2, leg 2 on lambda_{E2}
      equals leg 2 of E1's own pair on lambda_{E1} whenever
      res_{E2->E1} o res_{G->E2} = res_{G->E1}: the mixed-product rule of
      the Kronecker product, block by block.  Leg 1 depends on E1 alone;
    * objects below T.  E1's own pair is T's pair pushed forward by
      res_{T->E1} (x) res_{T->E1} (x) id.  This uses functoriality
      G -> T -> E1 and that restriction is a coalgebra map;
    * `middle_dims` is the sum of the block dimensions over the objects.

    So `legs_agree[d]` is: T's legs agree on lambda_T in degree d, and
    every morphism composes with restriction from G.  The second part is
    checked once per setup on the degree-1 substitution matrices; it
    covers every degree because `RingMap.matrix(d)` is the d-th symmetric
    power of the substitution matrix.  Together they imply that the legs
    agree on the image of lambda over every morphism.

    By the counit law, the blocks of T's pair whose second factor has
    degree 0 are identity minus identity.  The condition leaves them out;
    the first part checks that their pieces are identities.
    """
    if n < 1:
        raise ValueError("level n must be >= 1")
    return _build_lambda(_AbelianSetup(G, p), n, D)


def _build_lambda(setup: _AbelianSetup, n: int, D: int) -> EqualizerDiagram:
    p = setup.p
    diagram = EqualizerDiagram(
        group=setup.G, p=p, level=n, cutoff=D, objects=setup.objects,
        morphism_count=len(setup.morphisms))
    ring_G = setup.data_G.ring
    for d in range(D + 1):
        lam = _lambda_block(setup, d, n)
        cond, shape = _top_condition(setup, d, n)
        diagram.source_dims[d] = ring_G.dim(d)
        diagram.middle_dims[d] = sum(
            data.ring.dim(d - j) * ring_G.dim(j)
            for data in setup.sub_data for j in range(min(n - 1, d) + 1))
        agree = (setup.functorial and _counit_holds(setup, d, n)
                 and not fl.coo_matmul(cond, shape, lam, p).any())
        diagram.legs_agree[d] = agree
        diagram.eq_dims[d] = eq_dim = shape[1] - fl.rank(cond, p, shape)
        rk = fl.rank(lam, p)
        diagram.injective[d] = rk == ring_G.dim(d)
        diagram.onto_equalizer[d] = agree and rk == eq_dim
    return diagram


# ---------------------------------------------------------------------------
# the F-isomorphism certificate (level 1)


@dataclass
class FIsoCertificate:
    group: gp.FiniteGroup
    p: int
    cutoff: int
    limit_dims: dict
    kernel_report: list   # (degree, coords, smallest m with x^{p^m}=0 | None)
    image_report: list    # (degree, coords, smallest j with z^{p^j} in image | None)

    @property
    def kernel_trivial(self):
        return not self.kernel_report

    @property
    def image_full(self):
        return all(j == 0 for _, _, j in self.image_report)

    @property
    def unresolved(self):
        return ([e for e in self.kernel_report if e[2] is None]
                + [e for e in self.image_report if e[2] is None])


def certify_nilpotent(ring: ChowRing, poly, degree: int, D: int):
    """Smallest m with poly^{p^m} = 0 in the ring, searching while
    p^m * degree <= D; None when the window runs out first."""
    p = ring.p
    current = dict(poly)
    m, deg = 0, degree
    if not current:
        return 0
    while deg * p <= D:
        current = ring.power(current, p)
        m, deg = m + 1, deg * p
        if not current:
            return m
    return None


def f_iso_check(G: gp.FiniteGroup, D: int, p: int) -> FIsoCertificate:
    """Compute the limit of the elementary abelian rings over the
    inclusions (independently of the equalizer machinery), then
    certify nilpotency of the kernel and p-power membership of the image
    by explicit multiplication, bounded by the cutoff.

    A compatible family is fixed by its component x_T on the terminal
    object T, and every x_T gives one (see `_AbelianSetup`), so the limit
    is the column span of the stacked res_{T->E}: column t is the family
    of the t-th basis monomial of CH_T.  This is Quillen's limit (Quillen,
    "The spectrum of an equivariant cohomology ring", Ann. Math. 1971)
    where the category has a terminal object.  Every res_{G->E} factors
    through T, so the kernel of CH_G -> lim is the kernel of res_{G->T};
    restriction is a ring map, so a power of a family lies in the image
    exactly when that power of its T component lies in the image of
    res_{G->T}.

    The objects of one rank share their ring, so the res_{T->E} of a
    rank class are one stack of substitution matrices, raised to each
    degree in one pass (`symmetric_powers`).  The family of a monomial
    has the monomial itself as its T component, and the p-th power of a
    monomial multiplies its exponents by p, so the p-power search moves
    every still-open monomial of a degree at once."""
    setup = _AbelianSetup(G, p)
    ring_G = setup.data_G.ring
    data_T = setup.sub_data[setup.top]
    ring_T = data_T.ring
    # `elementary_abelians` sorts the objects by size, so each run of one
    # rank is a whole rank class
    stacks = [symmetric_powers(ring_T, ring, np.stack(
                  [data_T.char_matrix(data.basis) for data in run]))
              for ring, run in itertools.groupby(setup.sub_data,
                                                 key=lambda data: data.ring)]

    @cache
    def in_image(d):
        # monomial t of CH_T^d lies in the image of CH_G^d exactly when
        # the residual map of that image has a zero column t
        return ~fl.residual_map(setup.res_mat(setup.top, d), ring_T.dim(d),
                                p).any(axis=0)

    limit_dims = {}
    kernel_report = []
    image_report = []
    for d in range(D + 1):
        n = ring_T.dim(d)
        basis = np.concatenate([power.reshape(len(power) * power.shape[1], n)
                                for power in map(next, stacks)])
        limit_dims[d] = n
        # kernel elements of CH_G -> lim, certified nilpotent by powering:
        # test x^{p^m} = 0 while p^m * deg x stays inside the window
        for vec in fl.kernel_basis(setup.res_mat(setup.top, d), p):
            poly = ring_G.poly_from_coords(vec, d)
            kernel_report.append((d, vec, certify_nilpotent(ring_G, poly, d, D)))
        # limit elements: the least p-power of each monomial landing in
        # the image, -1 while none has
        found = np.full(n, -1)
        exps = np.array(ring_T.basis(d), dtype=np.int64).reshape(n, ring_T.k)
        open_ = np.arange(n)
        j, deg = 0, d
        while open_.size and deg <= D:
            hit = in_image(deg)[ring_T.positions(exps[open_] * p**j, deg)]
            found[open_[hit]] = j
            open_ = open_[~hit]
            j, deg = j + 1, deg * p
        image_report += [(d, vec, None if j < 0 else j)
                         for vec, j in zip(basis.T, found.tolist())]
    return FIsoCertificate(group=G, p=p, cutoff=D, limit_dims=limit_dims,
                           kernel_report=kernel_report,
                           image_report=image_report)


# ---------------------------------------------------------------------------
# d0 / d1


def _first_levels(G, D, p, *predicates):
    """(n - 1, verdict) per predicate for the first level n whose diagram
    satisfies it, sweeping levels 1..D+2 on one setup and stopping once
    every predicate has held; (D + 2, "unresolved") for one that never
    does."""
    setup = _AbelianSetup(G, p)
    first = [None] * len(predicates)
    for level in range(1, D + 3):
        diagram = _build_lambda(setup, level, D)
        first = [f or (level if holds(diagram) else None)
                 for f, holds in zip(first, predicates)]
        if None not in first:
            break
    return [(f - 1, "verified-through-cutoff") if f else (D + 2, "unresolved")
            for f in first]


def d0_estimate(G: gp.FiniteGroup, D: int, p: int):
    """Smallest n with lambda_{n+1} injective in every degree <= D.

    Injectivity beyond D is unverified, hence the verdict."""
    return _first_levels(G, D, p, EqualizerDiagram.all_injective)[0]


# ---------------------------------------------------------------------------
# largest submodule certified n-nilpotent in the window


def max_nil_submodule(source, d: int, D: int):
    """Degreewise basis of the largest subspace, closed under the powers
    inside degrees <= D, on which the lowering operators at levels below d
    certifiably iterate to zero within the materialized window.

    `source` is a catalog ring or a FiniteModule.  Returns a dict
    degree -> basis matrix (possibly with zero columns removed).
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


# ---------------------------------------------------------------------------
# bound checks


def bounds_report(G: gp.FiniteGroup, faithful_degree: int, D: int, p: int):
    """d0/d1 against the finite-group bounds n(n-1)/2 and n(n-1), plus the
    identity between d0 and the largest level with a nonzero certified
    nilpotent submodule.  Violations are reported, not swallowed."""
    n = faithful_degree
    (d0, v0), (d1, v1) = _first_levels(G, D, p, EqualizerDiagram.all_injective,
                                       EqualizerDiagram.all_iso)
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
