"""Localization away from n-nilpotent modules, at the level of explicit
degreewise matrices.

For a group G with catalog ring data the map lambda_n goes from CH_G into
the product over elementary abelian classes E of CH_E (x) (CH_{C(E)}
truncated below n); the equalizer of the two leg maps over the
conjugation-inclusion category receives it.  Everything here certifies
statements "through degree D" only and says so.

Implemented scope: abelian groups (all centralizers are then the group
itself and every map is canonical character algebra).  Nonabelian input
needs ring AND map data the ring file schema cannot carry, and is
rejected with a pointed message.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cache

import numpy as np

from . import fp_linalg as fl
from . import groups as gp
from .chow import ChowRing, abelian_ring, restriction_map, ring_module
from .modules import FiniteModule

__all__ = [
    "EqualizerDiagram",
    "build_lambda",
    "FIsoCertificate",
    "certify_nilpotent",
    "f_iso_check",
    "d0_estimate",
    "d1_estimate",
    "max_nil_submodule",
    "bounds_report",
]


# ---------------------------------------------------------------------------
# shared degreewise machinery for abelian groups


class _AbelianSetup:
    """Rings, restriction maps, and the subgroup category of an abelian
    group, with caches for degreewise matrices."""

    def __init__(self, G: gp.FiniteGroup, p: int):
        if not G.is_abelian:
            raise ValueError(
                f"{G.name}: localization needs catalog ring data and the "
                "restriction maps between centralizer rings; only abelian "
                "groups carry these canonically (nonabelian input would "
                "need map data the ring file schema does not express)")
        self.G = G
        self.p = fl.check_prime(p)
        self.data_G = abelian_ring(G, p)
        self.objects, self.category = gp.elementary_abelians(G, p)
        self.res_to = []      # RingMap CH_G -> CH_E per object
        self.sub_data = []    # AbelianRingData per object
        for obj in self.objects:
            rm = restriction_map(G, obj.elements, p, ring_G=self.data_G)
            self.res_to.append(rm)
            self.sub_data.append(rm.subgroup_data)
        self._mat_cache = {}
        self._comult_cache = {}
        # morphism ring maps: (i, j, h) -> RingMap CH_{E_j} -> CH_{E_i}
        self.morphisms = []
        for (i, j), maps in sorted(self.category.morphisms.items()):
            for h, _ in maps:
                self.morphisms.append((i, j, h, self._conj_res(i, j, h)))

    def _conj_res(self, i, j, h):
        """Ring map CH_{E_j} -> CH_{E_i} induced by e -> h e h^-1."""
        from .chow import RingMap, poly_add

        src = self.sub_data[j]
        tgt = self.sub_data[i]
        images = []
        for a in range(src.ring.k):
            img = {}
            for b, (local_elem, _) in enumerate(tgt.basis):
                x = self.G.conj(h, self._to_parent(i, local_elem))
                t = src.char_exponent_mod_p(a, self._to_local(j, x))
                if t:
                    e = [0] * tgt.ring.k
                    e[b] = 1
                    img = poly_add(img, {tuple(e): t}, self.p)
            images.append(img)
        return RingMap(src.ring, tgt.ring, images, name=f"c_{h}: E{i}->E{j}")

    def _to_parent(self, i, local):
        return self.res_to[i].parent_elements[local]

    def _to_local(self, j, parent):
        return self.res_to[j].parent_elements.index(parent)

    # -- cached degreewise matrices --------------------------------------

    def res_mat(self, i, d):
        key = ("res", i, d)
        if key not in self._mat_cache:
            self._mat_cache[key] = self.res_to[i].matrix(d)
        return self._mat_cache[key]

    def conjres_mat(self, m_index, d):
        key = ("conjres", m_index, d)
        if key not in self._mat_cache:
            self._mat_cache[key] = self.morphisms[m_index][3].matrix(d)
        return self._mat_cache[key]

    def comult_split(self, ring: ChowRing, i, j):
        """Matrix of the coproduct piece CH^{i+j} -> CH^i (x) CH^j for a
        polynomial ring on degree-1 classes: product of binomials."""
        key = (id(ring), i, j)
        if key not in self._comult_cache:
            src = ring.basis(i + j)
            bi, bj = ring.basis(i), ring.basis(j)
            idx = {m: c for c, m in enumerate(src)}
            mat = fl.zeros(len(bi) * len(bj), len(src))
            for a, beta in enumerate(bi):
                for b, gamma in enumerate(bj):
                    alpha = tuple(x + y for x, y in zip(beta, gamma))
                    c = 1
                    for x, y in zip(beta, alpha):
                        c = c * fl.binom_mod_p(y, x, self.p) % self.p
                    if c:
                        mat[a * len(bj) + b, idx[alpha]] = c
            self._comult_cache[key] = mat
        return self._comult_cache[key]


def _middle_blocks(setup, obj_index, d, n):
    """Ordered (j, rows) blocks of CH_E (x) CH_G^{<n} in degree d."""
    ring_E = setup.sub_data[obj_index].ring
    ring_G = setup.data_G.ring
    out = []
    for j in range(min(n - 1, d) + 1):
        rows = ring_E.dim(d - j) * ring_G.dim(j)
        out.append((j, rows))
    return out


def _right_blocks(setup, e1_index, d, n):
    """Ordered ((j2, j3), rows) blocks of CH_{E1} (x) (CH_{E1} (x)
    CH_G)^{<n} in degree d."""
    ring_E = setup.sub_data[e1_index].ring
    ring_G = setup.data_G.ring
    out = []
    for j2 in range(min(n - 1, d) + 1):
        for j3 in range(min(n - 1 - j2, d - j2) + 1):
            rows = (ring_E.dim(d - j2 - j3) * ring_E.dim(j2) * ring_G.dim(j3))
            out.append(((j2, j3), rows))
    return out


def _offsets(blocks):
    offs, pos = {}, 0
    for key, rows in blocks:
        offs[key] = pos
        pos += rows
    return offs, pos


def _lambda_block(setup, obj_index, d, n):
    """Matrix CH^d_G -> middle_E^d: comultiply, restrict the left factor,
    truncate the right factor below n."""
    ring_G = setup.data_G.ring
    blocks = _middle_blocks(setup, obj_index, d, n)
    offs, total = _offsets(blocks)
    mat = fl.zeros(total, ring_G.dim(d))
    for j, rows in blocks:
        if not rows:
            continue
        piece = fl.matmul(
            np.kron(setup.res_mat(obj_index, d - j),
                    fl.identity(ring_G.dim(j))),
            setup.comult_split(ring_G, d - j, j), setup.p)
        mat[offs[j]:offs[j] + rows] = piece
    return mat


def _leg1_block(setup, m_index, d, n):
    """Map middle_{E1}^d -> right_phi^d: comultiply the E1 factor
    (conjugation on the centralizer side is trivial for abelian groups)."""
    i1 = setup.morphisms[m_index][0]
    ring_E = setup.sub_data[i1].ring
    ring_G = setup.data_G.ring
    src_blocks = _middle_blocks(setup, i1, d, n)
    src_offs, src_total = _offsets(src_blocks)
    tgt_blocks = _right_blocks(setup, i1, d, n)
    tgt_offs, tgt_total = _offsets(tgt_blocks)
    mat = fl.zeros(tgt_total, src_total)
    for (j2, j3), rows in tgt_blocks:
        if not rows:
            continue
        i = d - j3  # source E1-degree feeding this target block
        src_rows = ring_E.dim(i) * ring_G.dim(j3)
        if not src_rows:
            continue
        piece = np.kron(setup.comult_split(ring_E, i - j2, j2),
                        fl.identity(ring_G.dim(j3))) % setup.p
        r0 = tgt_offs[(j2, j3)]
        c0 = src_offs[j3]
        mat[r0:r0 + rows, c0:c0 + src_rows] = piece
    return mat


def _leg2_block(setup, m_index, d, n):
    """Map middle_{E2}^d -> right_phi^d: restrict the E2 factor along the
    conjugation map into factor one, expand the centralizer factor into
    factors two and three."""
    i1, i2 = setup.morphisms[m_index][0], setup.morphisms[m_index][1]
    ring_E1 = setup.sub_data[i1].ring
    ring_E2 = setup.sub_data[i2].ring
    ring_G = setup.data_G.ring
    src_blocks = _middle_blocks(setup, i2, d, n)
    src_offs, src_total = _offsets(src_blocks)
    tgt_blocks = _right_blocks(setup, i1, d, n)
    tgt_offs, tgt_total = _offsets(tgt_blocks)
    mat = fl.zeros(tgt_total, src_total)
    for (j2, j3), rows in tgt_blocks:
        if not rows:
            continue
        j = j2 + j3
        i = d - j
        if j > min(n - 1, d) or ring_E2.dim(i) == 0:
            continue
        src_rows = ring_E2.dim(i) * ring_G.dim(j)
        if not src_rows:
            continue
        # centralizer classes comultiply and restrict into factors 2 and 3
        t_piece = fl.matmul(
            np.kron(setup.res_mat(i1, j2), fl.identity(ring_G.dim(j3))),
            setup.comult_split(ring_G, j2, j3), setup.p)
        piece = np.kron(setup.conjres_mat(m_index, i), t_piece) % setup.p
        r0 = tgt_offs[(j2, j3)]
        c0 = src_offs[j]
        mat[r0:r0 + rows, c0:c0 + src_rows] = piece
    return mat


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
    lambda_mats: dict = field(default_factory=dict)   # degree -> matrix
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

    The equalizer is solved by anchoring at the maximal elementary abelian
    subgroup (abelian groups have a unique one): its self-consistency
    condition seeds the space, the inclusion conditions determine every
    other component, and all remaining conditions cut the result down.
    """
    if n < 1:
        raise ValueError("level n must be >= 1")
    setup = _AbelianSetup(G, p)
    top = max(range(len(setup.objects)),
              key=lambda i: setup.objects[i].rank)
    top_self = [m for m, (i, j, h, _) in enumerate(setup.morphisms)
                if i == top and j == top][0]
    diagram = EqualizerDiagram(
        group=G, p=setup.p, level=n, cutoff=D, objects=setup.objects,
        morphism_count=len(setup.morphisms))
    ring_G = setup.data_G.ring
    n_obj = len(setup.objects)
    into_top = {}
    for m, (s, t, h, _) in enumerate(setup.morphisms):
        if t == top and s != top and s not in into_top:
            into_top[s] = m
    for d in range(D + 1):
        lam = {i: _lambda_block(setup, i, d, n) for i in range(n_obj)}
        diagram.source_dims[d] = ring_G.dim(d)
        diagram.middle_dims[d] = sum(m.shape[0] for m in lam.values())
        full_lambda = np.vstack([lam[i] for i in range(n_obj)]) \
            if lam else fl.zeros(0, ring_G.dim(d))
        diagram.lambda_mats[d] = full_lambda

        # seed the equalizer at the top object's self-consistency condition,
        # then express every other component through its inclusion into top
        a_top = _leg1_block(setup, top_self, d, n)
        b_top = _leg2_block(setup, top_self, d, n)
        k_basis = fl.kernel_matrix((a_top - b_top) % setup.p, setup.p)
        solved = {top: k_basis}
        for i in range(n_obj):
            if i == top:
                continue
            b = _leg2_block(setup, into_top[i], d, n)
            image = fl.matmul(b, solved[top], setup.p)
            solved[i] = fl.matmul(_unit_projection(setup, i, d, n), image,
                                  setup.p)

        # one pass over all morphisms: check the legs agree on the image of
        # lambda, and cut the solved family by the remaining conditions
        agree = True
        for mi, (i1, i2, h, _) in enumerate(setup.morphisms):
            a = _leg1_block(setup, mi, d, n)
            b = _leg2_block(setup, mi, d, n)
            delta = (fl.matmul(a, lam[i1], setup.p)
                     - fl.matmul(b, lam[i2], setup.p)) % setup.p
            if delta.any():
                agree = False
            if mi == top_self:
                continue
            cond = (fl.matmul(a, solved[i1], setup.p)
                    - fl.matmul(b, solved[i2], setup.p)) % setup.p
            if cond.any():
                shrink = fl.kernel_matrix(cond, setup.p)
                for key in solved:
                    solved[key] = fl.matmul(solved[key], shrink, setup.p)
        diagram.legs_agree[d] = agree
        eq_dim = solved[top].shape[1]
        diagram.eq_dims[d] = eq_dim
        rk = fl.rank(full_lambda, setup.p)
        diagram.injective[d] = rk == ring_G.dim(d)
        diagram.onto_equalizer[d] = agree and rk == eq_dim
    return diagram


def _unit_projection(setup, e_index, d, n):
    """Selection matrix right_phi^d -> middle_E^d picking the rows whose
    middle tensor factor is the unit monomial (the (j2 = 0) blocks)."""
    tgt_blocks = _right_blocks(setup, e_index, d, n)
    tgt_offs, tgt_total = _offsets(tgt_blocks)
    mid_blocks = _middle_blocks(setup, e_index, d, n)
    mid_offs, mid_total = _offsets(mid_blocks)
    proj = fl.zeros(mid_total, tgt_total)
    for j, rows in mid_blocks:
        if not rows:
            continue
        src = tgt_offs[(0, j)]
        dst = mid_offs[j]
        proj[dst:dst + rows, src:src + rows] = fl.identity(rows)
    return proj


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
    """Compute the limit of the elementary abelian rings over conjugations
    and inclusions (independently of the equalizer machinery), then
    certify nilpotency of the kernel and p-power membership of the image
    by explicit multiplication, bounded by the cutoff."""
    setup = _AbelianSetup(G, p)
    ring_G = setup.data_G.ring
    n_obj = len(setup.objects)

    def limit_basis(d):
        dims = [setup.sub_data[i].ring.dim(d) for i in range(n_obj)]
        offs = np.cumsum([0] + dims)
        total = offs[-1]
        rows = []
        for mi, (i1, i2, h, _) in enumerate(setup.morphisms):
            block = fl.zeros(dims[i1], total)
            block[:, offs[i1]:offs[i1] + dims[i1]] = fl.identity(dims[i1])
            cr = setup.conjres_mat(mi, d)
            block[:, offs[i2]:offs[i2] + dims[i2]] = \
                (block[:, offs[i2]:offs[i2] + dims[i2]] - cr) % p
            if block.any():
                rows.append(block)
        stacked = np.vstack(rows) if rows else fl.zeros(0, total)
        return fl.kernel_matrix(stacked, p), offs

    @cache
    def res_stack(d):
        return np.vstack([setup.res_mat(i, d) for i in range(n_obj)]) \
            if ring_G.dim(d) else fl.zeros(0, 0)

    @cache
    def residual(d):
        # ker Q is the column span of res_stack(d), so a vector lies in the
        # image of CH_G^d exactly when Q sends it to zero; one elimination
        # per degree serves every element tested in that degree
        stacked = res_stack(d)
        return fl.residual_map(stacked, stacked.shape[0], p)

    limit_dims = {}
    kernel_report = []
    image_report = []
    for d in range(D + 1):
        basis, offs = limit_basis(d)
        limit_dims[d] = basis.shape[1]
        stacked = res_stack(d)
        # kernel elements of CH_G -> lim, certified nilpotent by powering:
        # test x^{p^m} = 0 while p^m * deg x stays inside the window
        for vec in fl.kernel_basis(stacked, p):
            poly = ring_G.poly_from_coords(vec, d)
            kernel_report.append((d, vec, certify_nilpotent(ring_G, poly, d, D)))
        # limit elements: find the least p-power landing in the image
        for c in range(basis.shape[1]):
            z = basis[:, c]
            j_found = None
            comp_polys = [setup.sub_data[i].ring.poly_from_coords(
                z[offs[i]:offs[i + 1]], d) for i in range(n_obj)]
            j = 0
            deg = d
            while deg <= D:
                coords = np.concatenate([
                    setup.sub_data[i].ring.coords(comp_polys[i], deg)
                    for i in range(n_obj)])
                if not fl.matmul(residual(deg), coords, p).any():
                    j_found = j
                    break
                comp_polys = [setup.sub_data[i].ring.power(f, p)
                              for i, f in enumerate(comp_polys)]
                j += 1
                deg *= p
            image_report.append((d, z, j_found))
    return FIsoCertificate(group=G, p=p, cutoff=D, limit_dims=limit_dims,
                           kernel_report=kernel_report,
                           image_report=image_report)


# ---------------------------------------------------------------------------
# d0 / d1


def _first_level(G, D, p, max_level, holds):
    """(n - 1, verdict) for the first level n whose diagram `holds`."""
    cap = max_level if max_level is not None else D + 2
    for level in range(1, cap + 1):
        if holds(build_lambda(G, level, D, p)):
            return level - 1, "verified-through-cutoff"
    return cap, "unresolved"


def d0_estimate(G: gp.FiniteGroup, D: int, p: int, max_level=None):
    """Smallest n with lambda_{n+1} injective in every degree <= D.

    Injectivity beyond D is unverified, hence the verdict."""
    return _first_level(G, D, p, max_level, EqualizerDiagram.all_injective)


def d1_estimate(G: gp.FiniteGroup, D: int, p: int, max_level=None):
    """As d0_estimate, with isomorphism onto the computed equalizer."""
    return _first_level(G, D, p, max_level, EqualizerDiagram.all_iso)


# ---------------------------------------------------------------------------
# largest submodule certified n-nilpotent in the window


def max_nil_submodule(source, d: int, D: int, p=None):
    """Degreewise basis of the largest subspace, closed under the powers
    inside degrees <= D, on which the lowering operators at levels below d
    certifiably iterate to zero within the materialized window.

    `source` is a catalog/ingested ring or a FiniteModule.  Returns a dict
    degree -> basis matrix (possibly with zero columns removed).
    """
    if isinstance(source, ChowRing):
        if p is not None and p != source.p:
            raise ValueError("prime mismatch")
        module = ring_module(source, source.p * max(D, 1))
    elif isinstance(source, FiniteModule):
        module = source
    else:
        raise TypeError("expected a ChowRing or FiniteModule")
    p = module.p
    if d == 0:
        return {e: fl.identity(module.dim(e))
                for e in range(D + 1) if module.dim(e)}

    horizon = module.horizon()
    _memo = {}

    def dies(j, e):
        key = (j, e)
        if key in _memo:
            return _memo[key]
        if module.dim(e) == 0:
            out = fl.zeros(0, 0)
        elif e == j:
            out = fl.zeros(module.dim(e), 0)
        elif e < j:
            out = fl.identity(module.dim(e))
        else:
            s = e + (e - j) * (p - 1)
            if s > horizon:
                # cannot evaluate the next step: nothing is certified
                out = fl.zeros(module.dim(e), 0)
            else:
                mat = module.act(e - j, e)
                if not mat.any():
                    out = fl.identity(module.dim(e))
                else:
                    target_ok = dies(j, s)
                    resid = fl.residual_map(target_ok, module.dim(s), p)
                    out = fl.kernel_matrix(fl.matmul(resid, mat, p), p)
        _memo[key] = out
        return out

    spaces = {}
    for e in range(D + 1):
        if module.dim(e) == 0:
            continue
        basis = fl.identity(module.dim(e))
        for j in range(d):
            ok = dies(j, e)
            basis = _intersect(basis, ok, module.dim(e), p)
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
                target = spaces.get(t, fl.zeros(module.dim(t), 0))
                mat = module.act(a, e)
                if not mat.any():
                    continue
                resid = fl.residual_map(target, module.dim(t), p)
                cond = fl.matmul(resid, fl.matmul(mat, basis, p), p)
                if cond.any():
                    shrink = fl.kernel_matrix(cond, p)
                    basis = fl.matmul(basis, shrink, p)
                    spaces[e] = basis
                    changed = True
                    if basis.shape[1] == 0:
                        break
    return {e: b for e, b in spaces.items() if b.shape[1]}


def _intersect(a, b, ambient, p):
    """Intersection of two column spans in F_p^ambient."""
    if a.shape[1] == 0 or b.shape[1] == 0:
        return fl.zeros(ambient, 0)
    stacked = np.hstack([a, (-b) % p])
    ker = fl.kernel_matrix(stacked, p)
    if ker.shape[1] == 0:
        return fl.zeros(ambient, 0)
    combo = fl.matmul(a, ker[: a.shape[1], :], p)
    # echelonize and drop dependent columns
    r, piv = fl.rref(combo.T, p)
    return r[: len(piv)].T.copy() if piv else fl.zeros(ambient, 0)


# ---------------------------------------------------------------------------
# bound checks


def bounds_report(G: gp.FiniteGroup, faithful_degree: int, D: int, p: int):
    """d0/d1 against the finite-group bounds n(n-1)/2 and n(n-1), plus the
    identity between d0 and the largest level with a nonzero certified
    nilpotent submodule.  Violations are reported, not swallowed."""
    n = faithful_degree
    d0, v0 = d0_estimate(G, D, p)
    d1, v1 = d1_estimate(G, D, p)
    ring = abelian_ring(G, p).ring
    largest = 0
    for level in range(1, D + 1):
        if max_nil_submodule(ring, level, D):
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
