"""Dimensions of the T-functor and the comparison map into products of
centralizer rings.

Two computation routes, deliberately independent of each other:

* presented or finite modules: degree-k T-dimensions are Hom dimensions
  into (rank-r elementary abelian ring) (x) (degree-k Brown-Gitler dual),
  by exact kernel computations;
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
from .modules import (FPModule, FiniteModule, brown_gitler, compile_presentation,
                      fp_dim, hom_space, suspension_presentation, tensor_finite)

__all__ = [
    "tv_target",
    "tv_dim",
    "tv_table",
    "TvStructural",
    "tv_structural",
    "ell_check",
    "tensor_convolution_check",
]


@cache
def tv_target(r: int, k: int, p: int, max_degree: int) -> FiniteModule:
    """CH of (Z/p)^r tensored with the degree-k Brown-Gitler dual,
    materialized through max_degree.  One module is built per key and
    shared; callers treat it as read-only."""
    ch = ring_module(elem_abelian_ring(r, p), max_degree)
    bg = brown_gitler(k, max_degree, p)
    return tensor_finite(ch, bg)


def tv_dim(m, r: int, k: int) -> int:
    """dim of the degree-k part of T applied to m, for V of rank r.

    Rank 0 returns m's own dimension.  Presented modules go through the
    generator/relation Hom computation; complete finite modules through
    the degreewise commuting-family computation.  Both are exact.
    """
    if r == 0:
        if isinstance(m, FPModule):
            return fp_dim(m, k)
        return m.dim(k)
    if isinstance(m, FPModule):
        degrees = [d for _, d in m.generators]
        degrees.append(m.max_relation_degree)
        horizon = max(degrees, default=0)
        target = tv_target(r, k, m.p, horizon)
        return hom_space(m, target).dim
    if isinstance(m, FiniteModule):
        if not m.is_complete:
            raise ValueError("finite-route T dimensions need a complete module")
        horizon = m.p * max(m.max_degree, 1)
        target = tv_target(r, k, m.p, horizon)
        return hom_space(m, target).dim
    raise TypeError(f"unsupported module {type(m).__name__}")


def tv_table(m, r: int, kmax: int) -> dict[int, int]:
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


def _compile_bounded(m: FPModule):
    """Complete finite model of a presentation with a declared support
    bound (see FPModule.support_bound), or None without one."""
    if m.support_bound is None:
        return None
    compiled = compile_presentation(m, m.support_bound)
    return FiniteModule(m.p, compiled.dims, compiled.mats,
                        truncated_above=None, validate=False)


def _point_degree(finite: FiniteModule | None):
    """The degree of a one-dimensional module concentrated in a single
    degree, else None."""
    if finite is not None and len(finite.support) == 1 \
            and finite.dim(finite.support[0]) == 1:
        return finite.support[0]
    return None


def tensor_convolution_check(m: FPModule, n: FPModule, r: int, D: int,
                             verbose=False):
    """Check deg-by-deg that T of the tensor product has the dimensions of
    the convolution of the two T-dimension tables.

    The left side is computed without ever invoking the product rule:
    bounded factors tensor into one complete finite module whose T
    dimensions come from the Hom route; a one-dimensional factor is a
    degree shift handled by an explicit suspension presentation.  Each
    bounded factor is compiled once.
    """
    if m.p != n.p:
        raise ValueError("primes differ")
    finite_m, finite_n = _compile_bounded(m), _compile_bounded(n)
    shift_n, shift_m = _point_degree(finite_n), _point_degree(finite_m)
    if finite_m is not None and finite_n is not None:
        prod = tensor_finite(finite_m, finite_n)
        lhs = {k: tv_dim(prod, r, k) for k in range(D + 1)}
    elif shift_n is not None:
        s = suspension_presentation(m, shift_n)
        lhs = {k: tv_dim(s, r, k) for k in range(D + 1)}
    elif shift_m is not None:
        s = suspension_presentation(n, shift_m)
        lhs = {k: tv_dim(s, r, k) for k in range(D + 1)}
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
