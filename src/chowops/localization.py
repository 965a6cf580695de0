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
groups only.  For abelian G, restriction to T = G[p] is invertible on
degree-1 classes, hence in every degree; each setup checks that once
(`_AbelianSetup.res_top_invertible`), and it decides injectivity and the
F-isomorphism.  In T's coordinates the equalizer condition splits by
multidegree, and its blocks depend only on the sorted exponents, so each
degree's equalizer is one small binomial block per type, ranked by its pin
rows with no elimination, all types of a degree in one pass (`_type_blocks`).
d0, d1 and the largest nilpotent level are read off the same once-per-setup
checks, with no diagram built (`bounds_report`).
"""

from __future__ import annotations

import collections
import itertools
from dataclasses import dataclass, field
from functools import cached_property

import numpy as np

from . import fp_linalg as fl
from . import groups as gp
from .chow import abelian_ring, restriction_map, symmetric_powers
# perfbench/layers.py patches this unused name; tests/test_repo.py needs it
from .chow import ring_module

__all__ = [
    "EqualizerDiagram",
    "build_lambda",
    "FIsoCertificate",
    "f_iso_check",
    "d0_estimate",
    "bounds_report",
]


# ---------------------------------------------------------------------------
# shared degreewise machinery for abelian groups


class _AbelianSetup:
    """Rings, restriction maps, and the subgroup category of an abelian
    group.

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
        self.top = len(self.objects) - 1

    @cached_property
    def res_top_invertible(self):
        """True, or ValueError: the substitution matrix of res_{G->T} is
        invertible over F_p.  Restricting characters mod p from an abelian
        G to T is an isomorphism, so every accepted group passes.  Then
        res_{G->T} is bijective in every degree, since `RingMap.matrix(d)`
        is the d-th symmetric power of that matrix."""
        k = self.data_G.ring.k
        if fl.rank(self.res_to[self.top].mat, self.p) < k:
            raise ValueError(
                f"{self.G.name}: restriction to T, the subgroup of elements "
                f"of order dividing {self.p}, is not invertible on degree-1 "
                "classes")
        return True

    @cached_property
    def functorial(self):
        """Whether every inclusion E_i <= E_j composes with restriction
        from G: res_{E_j->E_i} o res_{G->E_j} = res_{G->E_i}, on
        substitution matrices.

        The inclusions of one (rank E_i, rank E_j) class have matrices of
        one shape, so each class is checked by one stacked product, still
        one check per inclusion.  The entries are residues, and each term
        is reduced before it is added, so the product is exact in int64 at
        every prime a `RingMap` accepts."""
        p = self.p
        classes = {}
        for i, j in self.morphisms:
            key = (self.sub_data[i].ring.k, self.sub_data[j].ring.k)
            classes.setdefault(key, []).append((i, j))
        for (k_i, k_j), pairs in classes.items():
            via = np.stack([self.res_to[j].mat for _, j in pairs])
            # filled in place, so that no list of small matrices is held
            chars = np.empty((len(pairs), k_j, k_i), dtype=np.int64)
            for b, (i, j) in enumerate(pairs):
                chars[b] = self.sub_data[j].char_matrix(self.sub_data[i].basis)
            composed = np.zeros((len(pairs), via.shape[1], k_i),
                                dtype=np.int64)
            for t in range(k_j):
                composed += via[:, :, t, None] * chars[:, None, t] % p
                composed %= p
            if (composed != np.stack([self.res_to[i].mat
                                      for i, _ in pairs])).any():
                return False
        return True

    def frobenius_injective(self, D):
        """True, or ValueError: the Frobenius y^E -> y^(pE) of CH_G is
        injective in each degree e = 1..D.  On degree e it is P^e, and in
        the closed form P^a(y^E) = sum over |I| = a of prod_j C(e_j, i_j)
        y^(E + (p - 1) I) the only I with |I| = |E| and a nonzero
        coefficient is E itself, with coefficient 1: every column holds
        one 1, at the row of y^(pE).  So it is injective exactly when
        those rows are distinct, found here by sorting them, with no
        matrix built."""
        ring, p = self.data_G.ring, self.p
        for e in range(1, D + 1):
            rows = np.array(ring.basis(e), dtype=np.int64).reshape(
                ring.dim(e), ring.k)
            targets = np.sort(ring.positions(p * rows, p * e))
            if (targets[1:] == targets[:-1]).any():
                raise ValueError(
                    f"{self.G.name}: the Frobenius y^E -> y^(pE) is not "
                    f"injective on degree-{e} classes")
        return True


def _type_blocks(ring, n, D, p):
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
    come from one Pascal table, reduced mod p after each factor."""
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


def build_lambda(G: gp.FiniteGroup, n: int, D: int, p: int) -> EqualizerDiagram:
    """Materialize lambda_n and the two legs through degree D and compute
    the equalizer dimensions.

    The subgroup category has a terminal object T (see `_AbelianSetup`),
    and every output is read off T's component lambda_T and T's own pair
    of legs, where T's own map is the identity:

    * coordinates.  res_{G->T} is invertible on degree-1 classes
      (`_AbelianSetup.res_top_invertible`, checked once per setup;
      ValueError if it fails), its degree-j matrix is its j-th symmetric
      power, and it is a coalgebra map.  Change the basis of every CH_G
      factor of T's pair and of lambda_T by these powers: G's condition
      becomes T's own, in which every piece is the comultiplication
      y^alpha -> sum C(alpha, beta) y^beta (x) y^(alpha - beta) of
      F_p[y_1..y_k] or an identity.  No rank changes, and no product
      that vanishes starts or stops vanishing;
    * equalizer.  In degree d it is the kernel of leg 1 minus leg 2 of
      T's pair.  Both legs and lambda_T preserve the multidegree alpha in
      N^k, so that condition is block-diagonal by alpha, and permuting
      the k variables permutes the rows and columns of a block.  So a
      block's free-column count depends only on sorted(alpha), its type:
      each type is built (`_type_blocks`) and ranked once, and eq_dim is
      the sum of the free counts over the monomials of degree d.  No
      kernel basis is formed, and no matrix of a ring map is raised;
    * rank.  In the block of alpha, the pin row of a column gamma != 0
      (beta2 = gamma, gamma3 = 0) reads C(alpha, gamma) x_0 - x_gamma.
      The pin rows are independent pivots, so x_gamma = w_gamma x_0 with
      w_0 = 1, every other row reduces to (row . w) x_0, and the rank is
      m - 1 + [some row . w != 0] for m columns.  A block lacking a pin
      row with an invertible leg-2 entry raises ValueError;
    * legs.  They agree on lambda_T in degree d when every block of
      degree d annihilates lambda_T's column for its y^alpha, a verdict
      that depends on the type too, one residual per row (the counit
      rows, beta2 = 0, are identity minus identity).  The pin rows give
      w = lambda_T's column, so `onto_equalizer` equals `legs_agree`
      whenever the pin rows are there; the free count is still read off
      the block alone;
    * injectivity.  The j = 0 block of lambda_T is res_{G->T} in degree
      d, which is bijective, so lambda_T, and with it lambda, is
      injective in every degree: rank lambda = dim CH_G^d.  So
      `injective[d]` is True and `onto_equalizer[d]` is: the legs agree
      and eq_dim = dim CH_G^d;
    * morphisms.  For the inclusion E1 <= E2, leg 2 on lambda_{E2}
      equals leg 2 of E1's own pair on lambda_{E1} whenever
      res_{E2->E1} o res_{G->E2} = res_{G->E1}: the mixed-product rule of
      the Kronecker product, block by block.  Leg 1 depends on E1 alone;
    * objects below T.  E1's own pair is T's pair pushed forward by
      res_{T->E1} (x) res_{T->E1} (x) id.  This uses functoriality
      G -> T -> E1 and that restriction is a coalgebra map;
    * `middle_dims` is the sum of the block dimensions over the objects,
      one term per rank, whose objects share one ring.

    So `legs_agree[d]` is: T's legs agree on lambda_T in degree d, and
    every morphism composes with restriction from G.  The second part is
    checked once per setup on the degree-1 substitution matrices; it
    covers every degree because `RingMap.matrix(d)` is the d-th symmetric
    power of the substitution matrix.  Together they imply that the legs
    agree on the image of lambda over every morphism.  G enters each
    degree's certificate only through these two checks on degree-1
    matrices: `res_top_invertible` and `functorial`.
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
    setup.res_top_invertible  # raises ValueError unless it holds
    rings = collections.Counter(data.ring for data in setup.sub_data)
    for d, (types, orbits, rows, lam) in enumerate(
            _type_blocks(ring_G, n, D, p)):
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
                f"{setup.G.name}: a column of the equalizer block of type "
                f"{tuple(types[missing[0]].tolist())} has no pin row with "
                "an invertible leg-2 entry")
        # row . w, times the den at both its columns: a nonzero one cuts
        # the block's last free column
        cut = owner[(v1 * num[owner, c1] % p * den[owner, c2]
                     - v2 * num[owner, c2] % p * den[owner, c1]) % p != 0]
        eq_dim = int(orbits[np.bincount(cut, minlength=len(types)) == 0].sum())
        agree = setup.functorial and not (
            (v1 * lam[owner, c1] - v2 * lam[owner, c2]) % p).any()
        diagram.source_dims[d] = ring_G.dim(d)
        diagram.middle_dims[d] = sum(
            count * ring.dim(d - j) * ring_G.dim(j)
            for ring, count in rings.items()
            for j in range(min(n - 1, d) + 1))
        diagram.legs_agree[d] = agree
        diagram.eq_dims[d] = eq_dim
        diagram.injective[d] = True
        diagram.onto_equalizer[d] = agree and eq_dim == ring_G.dim(d)
    return diagram


# ---------------------------------------------------------------------------
# the F-isomorphism certificate (level 1)


@dataclass
class FIsoCertificate:
    group: gp.FiniteGroup
    p: int
    cutoff: int
    limit_dims: dict
    image_report: list    # (degree, coords): z = z^{p^0} is in the image


def f_iso_check(G: gp.FiniteGroup, D: int, p: int) -> FIsoCertificate:
    """Compute the limit of the elementary abelian rings over the
    inclusions (independently of the equalizer machinery) through degree
    D.  CH_G -> lim is bijective, so it is an F-isomorphism with an empty
    kernel and every limit basis vector in the image at p^0.

    A compatible family is fixed by its component x_T on the terminal
    object T, and every x_T gives one (see `_AbelianSetup`), so the limit
    is the column span of the stacked res_{T->E}: column t is the family
    of the t-th basis monomial of CH_T.  This is Quillen's limit (Quillen,
    "The spectrum of an equivariant cohomology ring", Ann. Math. 1971)
    where the category has a terminal object.  Every res_{G->E} factors
    through T, so CH_G -> lim is res_{G->T}, which is bijective in every
    degree (`_AbelianSetup.res_top_invertible`, checked once).

    The objects of one rank share their ring, so the res_{T->E} of a
    rank class are one stack of substitution matrices, raised to each
    degree in one pass (`symmetric_powers`)."""
    setup = _AbelianSetup(G, p)
    setup.res_top_invertible  # raises ValueError unless it holds
    data_T = setup.sub_data[setup.top]
    ring_T = data_T.ring
    # `elementary_abelians` sorts the objects by size, so each run of one
    # rank is a whole rank class
    stacks = [symmetric_powers(ring_T, ring, np.stack(
                  [data_T.char_matrix(data.basis) for data in run]))
              for ring, run in itertools.groupby(setup.sub_data,
                                                 key=lambda data: data.ring)]
    limit_dims = {}
    image_report = []
    for d in range(D + 1):
        n = ring_T.dim(d)
        basis = np.concatenate([power.reshape(len(power) * power.shape[1], n)
                                for power in map(next, stacks)])
        limit_dims[d] = n
        image_report += [(d, vec) for vec in basis.T]
    return FIsoCertificate(group=G, p=p, cutoff=D, limit_dims=limit_dims,
                           image_report=image_report)


# ---------------------------------------------------------------------------
# d0, d1 and the bound checks


def d0_estimate(G: gp.FiniteGroup, D: int, p: int):
    """Smallest n with lambda_{n+1} injective in every degree <= D.

    For abelian G this is 0, read off the setup with no diagram built:
    lambda_1 is injective in every degree once the setup finds res_{G->T}
    invertible (see `build_lambda`; ValueError if it is not).
    Injectivity beyond D is unverified, hence the verdict."""
    _AbelianSetup(G, p).res_top_invertible  # raises ValueError unless it holds
    return 0, "verified-through-cutoff"


def bounds_report(G: gp.FiniteGroup, faithful_degree: int, D: int, p: int):
    """d0/d1 against the finite-group bounds n(n-1)/2 and n(n-1), plus the
    identity between d0 and the largest level with a nonzero certified
    nilpotent submodule.  Violations are reported, not swallowed.

    Each answer is read off one setup's checks, with no diagram and no
    module built:

    * d0 is 0, as in `d0_estimate`;
    * d1, the first n - 1 with lambda_n onto the equalizer in every
      degree <= D, is 0 when `functorial` holds.  At level 1 each type
      block of `_type_blocks` is its one counit row, identity minus
      identity, so eq_dim = dim CH_G^d, and the legs agree in every
      degree exactly when `functorial` holds.  Their verdict starts from
      `functorial` at every level, so when it fails no level is onto,
      and d1 is (D + 2, "unresolved"): where a sweep over the levels
      1..D+2 would give up;
    * the largest nilpotent level is 0.  A nonzero submodule certified
      at level 1 needs a degree e in 1..D whose level-0 lowering P^e,
      the Frobenius y^E -> y^(pE), kills a vector inside the window.
      `_AbelianSetup.frobenius_injective` shows it kills none (ValueError
      if it does)."""
    n = faithful_degree
    setup = _AbelianSetup(G, p)
    setup.res_top_invertible  # raises ValueError unless it holds
    d0, v0 = 0, "verified-through-cutoff"
    d1, v1 = ((0, "verified-through-cutoff") if setup.functorial
              else (D + 2, "unresolved"))
    setup.frobenius_injective(D)  # raises ValueError unless it holds
    largest = 0
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
