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
groups only.  The category has a terminal object T = G[p], and every
answer of `build_lambda` is read off T alone, by two checks on degree-1
matrices and two stated identities, with no subgroup below T and no
inclusion enumerated (`_AbelianSetup`):

* restriction to T is invertible on degree-1 classes, hence in every
  degree (`_AbelianSetup.res_top_invertible`): lambda is injective, and
  CH_G -> lim is bijective;
* G's characters on T are F_p-linear in T's codes
  (`_AbelianSetup.functorial`): every inclusion then composes with
  restriction from G, by Pontryagin duality;
* T's equalizer condition annihilates lambda_T and has rank one less
  than its column count in every multidegree block (`build_lambda`), so
  the equalizer dimension is dim CH_G^d and the legs agree exactly when
  the second check holds.

Only `f_iso_check` enumerates the subgroups, objects alone, for the
restrictions from T it prints.  d0, d1 and the largest nilpotent level
are read off the same once-per-setup checks, with no diagram built
(`bounds_report`).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property

import numpy as np

from . import fp_linalg as fl
from . import groups as gp
from .chow import (abelian_ring, elem_abelian_ring, restriction_map,
                   symmetric_powers)
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
    """G's ring, and restriction from G to T, the subgroup of its elements
    of order dividing p, held as arrays.

    The subgroup category is the subspace lattice of T ~ F_p^r:
    conjugation is the identity, so the morphisms are the inclusions
    E_i <= E_j, and the map of (i, j) is res_{E_j->E_i}.  T is terminal:
    every E lies in T.  The objects and inclusions number Gaussian
    binomial sums (`gp.lattice_size`), and every check here reads T
    alone:

    * `ids[c]`, the element of T of code c (`gp.torsion_codes`);
    * `basis_T`, T's basis as codes, the greedy picks of
      `gp.abelian_p_basis`, and `res_T`, the substitution matrix of
      res_{G->T} in that basis;
    * `in_G`, G's characters on T, a k_G x p^r array built on first
      read: entry (i, c) is c_i(ids[c]) p / o_i, for o_i the order of G's
      basis element i, so `res_T` is `in_G` at T's basis codes."""

    def __init__(self, G: gp.FiniteGroup, p: int):
        if not G.is_abelian:
            raise ValueError(
                f"{G.name}: localization needs catalog rings and the "
                "restriction maps between centralizer rings, and catalog "
                "rings exist for abelian groups only")
        self.G = G
        self.p = fl.check_prime(p)
        self.data_G = abelian_ring(G, p)
        self.r = self.data_G.ring.k
        self.ids = gp.torsion_codes(G, p)
        res_T = restriction_map(G, self.ids, p, ring_G=self.data_G)
        self.res_T = res_T.mat
        basis = np.array([x for x, _ in res_T.subgroup_data.basis],
                         dtype=np.intp)
        self.basis_T = (self.ids == basis[:, None]).argmax(axis=1)

    @cached_property
    def in_G(self):
        return self.data_G.char_matrix(
            [(x, self.p) for x in self.ids.tolist()])

    @cached_property
    def res_top_invertible(self):
        """True, or ValueError: the substitution matrix of res_{G->T} is
        invertible over F_p.  Restricting characters mod p from an abelian
        G to T is an isomorphism, so every accepted group passes.  Then
        res_{G->T} is bijective in every degree, since its degree-d matrix
        is the d-th symmetric power of that matrix (`symmetric_powers`)."""
        if fl.rank(self.res_T, self.p) < self.r:
            raise ValueError(
                f"{self.G.name}: restriction to T, the subgroup of elements "
                f"of order dividing {self.p}, is not invertible on degree-1 "
                "classes")
        return True

    @cached_property
    def functorial(self):
        """Whether every inclusion E_i <= E_j composes with restriction
        from G: res_{E_j->E_i} o res_{G->E_j} = res_{G->E_i}, on
        substitution matrices, decided by one check on T.

        res_{G->E} is `in_G` read at the codes of E's basis.  The map of
        E_i <= E_j holds the coordinates of E_i's basis in E_j's basis, in
        the code arithmetic of F_p^r.  So when `in_G` is F_p-linear in the
        codes, the product res_{G->E_j} times those coordinates is `in_G`
        at E_i's basis, for every inclusion: restricting characters is the
        dual linear map (Pontryagin duality).  The check: `in_G` equals
        its columns at the r unit codes times every vector of F_p^r, mod
        p.  The entries are residues and r is at most 13, so the int64
        products are exact."""
        p, r = self.p, self.r
        units = self.in_G[:, p ** np.arange(r - 1, -1, -1)]
        return bool((units @ gp.vectors(p, r).T % p == self.in_G).all())

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


def _greedy_picks(elements, p, k):
    """The basis of each row of `elements`, a B x p^k array of subspaces'
    elements at the positions of F_p^k: k steps, each picking in every row
    the position of least element outside the span of the earlier picks,
    then marking the span of the picks so far, every combination of
    them."""
    rows = np.arange(len(elements))
    by_element = np.argsort(elements, axis=1)
    span, weights = gp.vectors(p, k), p ** np.arange(k - 1, -1, -1)
    inside = np.zeros(elements.shape, dtype=bool)
    inside[:, 0] = True
    picks = np.zeros((len(elements), k), dtype=np.intp)
    for t in range(k):
        if t:
            combos = gp.vectors(p, t) @ span[picks[:, :t]] % p
            inside[rows[:, None], combos @ weights] = True
        outside = ~np.take_along_axis(inside, by_element, axis=1)
        picks[:, t] = by_element[rows, outside.argmax(axis=1)]
    return picks


def _top_restrictions(setup: _AbelianSetup):
    """The substitution matrices of res_{T->E}, one [r, k]_p x r x k stack
    per rank class k, in the object order of `gp.elementary_abelians`:
    entry (t, s) is the coordinate t, in T's basis, of E's basis element
    s.  E's basis is the greedy picks of `gp.abelian_p_basis`, each the
    element of least G-index outside the span so far, so ascending: a
    class takes k batched steps (`_greedy_picks`).  The coordinates come
    from one inverse table of T's p^r codes in T's basis."""
    p, r = setup.p, setup.r
    lattice = gp.elementary_abelians(setup.G, p)
    span, weights = gp.vectors(p, r), p ** np.arange(r - 1, -1, -1)
    coords = np.empty_like(span)
    coords[span @ span[setup.basis_T] % p @ weights] = span
    stacks = []
    for k, codes in enumerate(lattice.codes):
        picks = _greedy_picks(setup.ids[codes], p, k)
        basis = np.take_along_axis(codes, picks, axis=1)
        stacks.append(coords[basis].transpose(0, 2, 1))
    return stacks


# ---------------------------------------------------------------------------
# the equalizer diagram


@dataclass
class EqualizerDiagram:
    group: gp.FiniteGroup
    p: int
    level: int
    cutoff: int
    object_count: int
    morphism_count: int
    source_dims: dict = field(default_factory=dict)
    middle_dims: dict = field(default_factory=dict)
    eq_dims: dict = field(default_factory=dict)
    legs_agree: dict = field(default_factory=dict)    # degree -> bool
    injective: dict = field(default_factory=dict)
    onto_equalizer: dict = field(default_factory=dict)


def build_lambda(G: gp.FiniteGroup, n: int, D: int, p: int) -> EqualizerDiagram:
    """lambda_n and the two legs through degree D: the dimensions of the
    source, the middle and the equalizer, and the verdicts, each read off
    the terminal object T (see `_AbelianSetup`) with no matrix built.

    * coordinates.  res_{G->T} is invertible on degree-1 classes
      (`_AbelianSetup.res_top_invertible`, checked once per setup;
      ValueError if it fails), its degree-j matrix is its j-th symmetric
      power, and it is a coalgebra map.  Change the basis of every CH_G
      factor of T's own pair of legs and of lambda_T by these powers: G's
      condition becomes T's own, in which every piece is the
      comultiplication y^alpha -> sum C(alpha, beta) y^beta (x)
      y^(alpha - beta) of F_p[y_1..y_k] or an identity.  No rank changes;
    * blocks.  In degree d the equalizer is the kernel of leg 1 minus leg
      2 of T's pair.  Both legs and lambda_T preserve the multidegree
      alpha, so that condition is block-diagonal by alpha.  The block of
      alpha has the m columns gamma <= alpha with |gamma| < n and the rows
      (gamma, beta2 <= gamma); with gamma3 = gamma - beta2 the row reads
      C(alpha - gamma3, beta2) x_gamma3 - C(gamma, beta2) x_gamma;
    * the first identity: every row vanishes on lambda_T.  lambda_T's
      column is w_gamma = C(alpha, gamma), and the row gives C(alpha,
      gamma3) C(alpha - gamma3, beta2) - C(gamma, beta2) C(alpha, gamma).
      Both products are alpha! / (beta2! gamma3! (alpha - gamma)!), one
      coordinate at a time, over Z, so the row vanishes mod every p;
    * the second identity: the pin row of each column gamma != 0 (beta2 =
      gamma, gamma3 = 0) reads C(alpha, gamma) x_0 - C(gamma, gamma)
      x_gamma, and C(gamma, gamma) = 1.  So the m - 1 pin rows are
      independent, and with w != 0 (w_0 = 1) in the kernel by the first
      identity, every block has rank exactly m - 1, at every level, prime
      and degree, with w spanning its kernel.  Each monomial of degree d
      gives one block, so eq_dim = dim CH_G^d;
    * injectivity.  The j = 0 block of lambda_T is res_{G->T} in degree
      d, which is bijective, so lambda_T, and with it lambda, is
      injective in every degree: `injective[d]` is True;
    * morphisms.  For the inclusion E1 <= E2, leg 2 on lambda_{E2}
      equals leg 2 of E1's own pair on lambda_{E1} whenever
      res_{E2->E1} o res_{G->E2} = res_{G->E1}: the mixed-product rule of
      the Kronecker product, block by block.  Leg 1 depends on E1 alone.
      E1's own pair is T's pair pushed forward by res_{T->E1} (x)
      res_{T->E1} (x) id, by functoriality G -> T -> E1 and because
      restriction is a coalgebra map.  Every inclusion composes when G's
      characters on T are F_p-linear (`_AbelianSetup.functorial`, checked
      once per setup, by Pontryagin duality), and that covers
      every degree, because a degree-d matrix is the d-th symmetric power
      of its substitution matrix;
    * `middle_dims` is the sum of the block dimensions over the objects,
      one term per rank, whose objects share one ring and number
      `gp.gaussian_binomial(r, k, p)`.

    So `legs_agree[d]` and `onto_equalizer[d]` are `functorial`, in every
    degree.  G enters the certificate only through the two checks on
    degree-1 matrices, `res_top_invertible` and `functorial`, and the
    verdict rests on the two identities above and the symmetric-power
    argument for injectivity.
    """
    if n < 1:
        raise ValueError("level n must be >= 1")
    return _build_lambda(_AbelianSetup(G, p), n, D)


def _build_lambda(setup: _AbelianSetup, n: int, D: int) -> EqualizerDiagram:
    p, r = setup.p, setup.r
    objects, morphisms = gp.lattice_size(r, p)
    diagram = EqualizerDiagram(group=setup.G, p=p, level=n, cutoff=D,
                               object_count=objects, morphism_count=morphisms)
    ring_G = setup.data_G.ring
    setup.res_top_invertible  # raises ValueError unless it holds
    agree = setup.functorial
    counts = [gp.gaussian_binomial(r, k, p) for k in range(r + 1)]
    for d in range(D + 1):
        diagram.source_dims[d] = diagram.eq_dims[d] = ring_G.dim(d)
        diagram.middle_dims[d] = sum(
            count * elem_abelian_ring(k, p).dim(d - j) * ring_G.dim(j)
            for k, count in enumerate(counts)
            for j in range(min(n - 1, d) + 1))
        diagram.legs_agree[d] = diagram.onto_equalizer[d] = agree
        diagram.injective[d] = True
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

    res_{T->E} is the map of the inclusion E <= T.  The objects are
    enumerated (`gp.elementary_abelians`, which refuses a lattice above
    `gp.MAX_INCLUSIONS` inclusions) with their bases, and the res_{T->E}
    of a rank class are one stack of substitution matrices in object
    order (`_top_restrictions`), raised to each degree in one pass
    (`symmetric_powers`).  No inclusion between them is read."""
    setup = _AbelianSetup(G, p)
    setup.res_top_invertible  # raises ValueError unless it holds
    ring_T = elem_abelian_ring(setup.r, p)
    stacks = [symmetric_powers(ring_T, elem_abelian_ring(k, p), chars)
              for k, chars in enumerate(_top_restrictions(setup))]
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
      degree <= D, is 0 when `functorial` holds.  At every level
      eq_dim = dim CH_G^d and lambda_n is onto the equalizer in a degree
      exactly when `functorial` holds (the identities of `build_lambda`),
      so when it fails no level is onto, and d1 is (D + 2,
      "unresolved"): where a sweep over the levels 1..D+2 would give
      up;
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
