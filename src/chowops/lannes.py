"""Dimensions of the T-functor and the comparison map into products of
centralizer rings.

Two computation routes, deliberately independent of each other:

* presented modules: degree-k T-dimensions are Hom dimensions into
  (rank-r elementary abelian ring) (x) (degree-k Brown-Gitler dual), by
  exact kernel computations;
* catalog groups: the structural product over conjugacy classes of
  homomorphisms, with the comparison map materialized degreewise so its
  injectivity can be certified through a cutoff.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cache

import numpy as np

from . import fp_linalg as fl
from . import groups as gp
from .chow import (AbelianRingData, RingMap, abelian_ring,
                   elem_abelian_ring, ring_module)
from .modules import (FPModule, FiniteModule, brown_gitler, fp_dim, hom_space,
                      tensor_finite)

__all__ = [
    "tv_target",
    "tv_dim",
    "tv_table",
    "TvStructural",
    "tv_structural",
    "ell_check",
]


@cache
def tv_target(r: int, k: int, p: int, max_degree: int) -> FiniteModule:
    """CH of (Z/p)^r tensored with the degree-k Brown-Gitler dual,
    materialized through max_degree.  One module is built per key and
    shared; callers treat it as read-only."""
    ch = ring_module(elem_abelian_ring(r, p), max_degree)
    bg = brown_gitler(k, max_degree, p)
    return tensor_finite(ch, bg)


def tv_dim(m: FPModule, r: int, k: int) -> int:
    """dim of the degree-k part of T applied to the presented module m,
    for V of rank r.

    Rank 0 returns m's own dimension, by `fp_dim`; any other rank is the
    dimension of Hom from m into `tv_target`.  Both are exact.
    """
    if r == 0:
        return fp_dim(m, k)
    horizon = max([m.max_relation_degree] + [d for _, d in m.generators])
    return hom_space(m, tv_target(r, k, m.p, horizon)).dim


def tv_table(m: FPModule, r: int, kmax: int) -> dict[int, int]:
    """Degree k -> dim (T m)^k for k = 0..kmax."""
    return {k: tv_dim(m, r, k) for k in range(kmax + 1)}


@dataclass
class TvStructural:
    """T of a group's ring as the product over classes of homomorphisms
    from (Z/p)^r: one centralizer ring per class."""

    group: gp.FiniteGroup
    rank: int
    p: int
    components: list  # (HomClass, ChowRing of the centralizer)

    def dim(self, k: int) -> int:
        return sum(ring.dim(k) for _, ring in self.components)


def _component_map(source: AbelianRingData, cls: gp.HomClass,
                   r: int) -> RingMap:
    """The map CH_G -> CH_C (x) CH_V induced by (v, h) -> rho(v) h, for
    abelian G (so C = G and restriction along C -> G is the identity).

    The tensor target is realized as the polynomial ring on the k
    centralizer classes followed by the r rank classes; the class dual to
    a character chi goes to chi (x) 1 + 1 (x) (chi o rho).
    """
    p = source.ring.p
    k = source.ring.k
    rho = source.char_matrix([(x, p) for x in cls.representative])
    return RingMap(source.ring, elem_abelian_ring(k + r, p),
                   np.hstack([fl.identity(k), rho]),
                   name=f"component of class {cls.representative}")


def tv_structural(G: gp.FiniteGroup, r: int, p: int) -> TvStructural:
    """T of the group ring as a product over Rep((Z/p)^r, G).

    Every conjugacy class of homomorphisms contributes the ring of the
    centralizer of its image, from the catalog; the catalog has rings for
    abelian groups only, so a class with a nonabelian centralizer is
    reported by name.
    """
    classes = gp.rep_classes(r, G, p)
    components = []
    catalog = {}  # centralizer elements -> its catalog ring
    for cls in classes:
        cent = G.centralizer_elements(cls.representative)
        if cent not in catalog:
            if not G.is_abelian_on(cent):
                raise ValueError(
                    f"no ring available for the centralizer of class "
                    f"{cls.representative} (order {len(cent)}, nonabelian): "
                    "the catalog has rings for abelian groups only")
            catalog[cent] = abelian_ring(G, p, cent).ring
        components.append((cls, catalog[cent]))
    return TvStructural(group=G, rank=r, p=p, components=components)


def ell_check(G: gp.FiniteGroup, r: int, D: int, p: int):
    """Degreewise certification report for the comparison map of an
    abelian group.

    "injective" certifies the materialized map has full rank on the
    source; "surjective" certifies the adjoint in the dimension-counting
    sense: the structural product dimension agrees with the independent
    group-theoretic count |Hom((Z/p)^r, G)| * dim CH^d_G (conjugation is
    trivial here, and every centralizer is G itself).  Verified through D
    only, never a global certificate.
    """
    if not G.is_abelian:
        raise ValueError("the comparison-map check needs an abelian group")
    tv = tv_structural(G, r, p)
    data = abelian_ring(G, p)
    source = data.ring
    comp_maps = [_component_map(data, cls, r) for cls, _ in tv.components]
    hom_count = len(G.p_torsion(p)) ** r
    report = []
    for d in range(D + 1):
        rk = fl.rank(np.vstack([m.matrix(d) for m in comp_maps]), p)
        dim_source = source.dim(d)
        tv_dim_structural = tv.dim(d)
        expected = hom_count * dim_source
        report.append({
            "degree": d,
            "dim_source": dim_source,
            "rank": rk,
            "injective": rk == dim_source,
            "tv_dim": tv_dim_structural,
            "components": len(tv.components),
            "dimension_match": tv_dim_structural == expected,
            "surjective": rk == dim_source and tv_dim_structural == expected,
        })
    return report
