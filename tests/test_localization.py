import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from chowops import fp_linalg as fl
from chowops import groups as gp
from chowops import chow
from chowops import localization as loc
from chowops.chow import elem_abelian_ring, poly_mul_raw, ring_module
from chowops.cli import main
from chowops.groups import FiniteGroup
from chowops.localization import (EqualizerDiagram, bounds_report,
                                  build_lambda, d0_estimate,
                                  f_iso_check, max_nil_submodule)
from chowops.modules import point_module

from conftest import (ABELIAN_CATALOG, catalog_group, comult_split_reference,
                      direct_sum, inclusion_map, top_condition_reference)


def G(spec, name=None):
    return FiniteGroup.from_abelian(spec, name=name)


# The general leg builders for any object and morphism, and the
# per-morphism equalizer diagram built from them: the reference for
# build_lambda, which reads everything off the terminal object T.


def middle_blocks(setup, obj_index, d, n):
    """Ordered (j, rows) blocks of CH_E (x) CH_G^{<n} in degree d."""
    ring_E = setup.sub_data[obj_index].ring
    ring_G = setup.data_G.ring
    return [(j, ring_E.dim(d - j) * ring_G.dim(j))
            for j in range(min(n - 1, d) + 1)]


def right_blocks(setup, e1_index, d, n):
    """Ordered ((j2, j3), rows) blocks of CH_{E1} (x) (CH_{E1} (x)
    CH_G)^{<n} in degree d."""
    ring_E = setup.sub_data[e1_index].ring
    ring_G = setup.data_G.ring
    return [((j2, j3),
             ring_E.dim(d - j2 - j3) * ring_E.dim(j2) * ring_G.dim(j3))
            for j2 in range(min(n - 1, d) + 1)
            for j3 in range(min(n - 1 - j2, d - j2) + 1)]


def offsets(blocks):
    offs, pos = {}, 0
    for key, rows in blocks:
        offs[key] = pos
        pos += rows
    return offs, pos


def lambda_block(setup, obj_index, d, n):
    """lambda_E in degree d for any object E."""
    return np.vstack([setup.res_comult(obj_index, d - j, j)
                      for j, _ in middle_blocks(setup, obj_index, d, n)])


def leg1_block(setup, i1, d, n):
    """Leg 1 of any morphism out of object i1: comultiply the E1 factor."""
    ring_E = setup.sub_data[i1].ring
    ring_G = setup.data_G.ring
    src_offs, src_total = offsets(middle_blocks(setup, i1, d, n))
    tgt_blocks = right_blocks(setup, i1, d, n)
    tgt_offs, tgt_total = offsets(tgt_blocks)
    mat = fl.zeros(tgt_total, src_total)
    for (j2, j3), rows in tgt_blocks:
        i = d - j3
        src_rows = ring_E.dim(i) * ring_G.dim(j3)
        if rows and src_rows:
            mat[tgt_offs[(j2, j3)]:tgt_offs[(j2, j3)] + rows,
                src_offs[j3]:src_offs[j3] + src_rows] = fl.kron(
                    setup.comult_split(ring_E, i - j2, j2),
                    fl.identity(ring_G.dim(j3)), setup.p)
    return mat


def inclusion_maps(setup):
    """The RingMap of every inclusion pair of the setup, by pair."""
    return {(i, j): inclusion_map(setup, i, j) for i, j in setup.morphisms}


def leg2_block(setup, i1, i2, rmap, d, n):
    """Leg 2 of the inclusion E_i1 <= E_i2 with map `rmap`: restrict the
    E2 factor along the map into factor one, expand the centralizer factor
    into factors two and three."""
    ring_E2 = setup.sub_data[i2].ring
    ring_G = setup.data_G.ring
    src_offs, src_total = offsets(middle_blocks(setup, i2, d, n))
    tgt_blocks = right_blocks(setup, i1, d, n)
    tgt_offs, tgt_total = offsets(tgt_blocks)
    mat = fl.zeros(tgt_total, src_total)
    for (j2, j3), rows in tgt_blocks:
        j = j2 + j3
        src_rows = ring_E2.dim(d - j) * ring_G.dim(j)
        if rows and src_rows:
            mat[tgt_offs[(j2, j3)]:tgt_offs[(j2, j3)] + rows,
                src_offs[j]:src_offs[j] + src_rows] = fl.kron(
                    rmap.matrix(d - j),
                    setup.res_comult(i1, j2, j3), setup.p)
    return mat


def per_morphism_lambda(setup, n, D):
    """The equalizer diagram with lambda built for every object and the
    legs compared on it over every inclusion; the rank is that of the
    lambda stacked over every object."""
    p = setup.p
    maps = inclusion_maps(setup)
    ring_G = setup.data_G.ring
    diagram = EqualizerDiagram(
        group=setup.G, p=p, level=n, cutoff=D, objects=setup.objects,
        morphism_count=len(setup.morphisms))
    for d in range(D + 1):
        lam = [lambda_block(setup, i, d, n)
               for i in range(len(setup.objects))]
        diagram.source_dims[d] = ring_G.dim(d)
        diagram.middle_dims[d] = sum(m.shape[0] for m in lam)
        agree = True
        for i1, i2 in setup.morphisms:
            a = leg1_block(setup, i1, d, n)
            b = leg2_block(setup, i1, i2, maps[i1, i2], d, n)
            if (fl.matmul(a, lam[i1], p) != fl.matmul(b, lam[i2], p)).any():
                agree = False
            if i1 == i2 == setup.top:
                eq_dim = fl.kernel_matrix((a - b) % p, p).shape[1]
        diagram.legs_agree[d] = agree
        diagram.eq_dims[d] = eq_dim
        rk = fl.rank(np.vstack(lam), p)
        diagram.injective[d] = rk == ring_G.dim(d)
        diagram.onto_equalizer[d] = agree and rk == eq_dim
    return diagram


def seed_and_cut(setup, n, D):
    """The general equalizer solve over the whole category, the reference
    for build_lambda: seed with the kernel of the top object's self pair,
    take each other object's component from its first inclusion into the
    top (the rows whose middle factor is the unit monomial), then cut by
    every morphism's condition.  Returns (eq_dims, cuts tested, cuts that
    changed the space)."""
    p = setup.p
    maps = inclusion_maps(setup)
    top = max(range(len(setup.objects)), key=lambda i: len(setup.objects[i]))
    order = sorted(setup.morphisms,
                   key=lambda m: (m != (top, top), m[1] != top))
    eq_dims, tested, changed = {}, 0, 0
    for d in range(D + 1):
        solved = {}
        for i1, i2 in order:
            a = leg1_block(setup, i1, d, n)
            b = leg2_block(setup, i1, i2, maps[i1, i2], d, n)
            if (i1, i2) == (top, top):
                solved[top] = fl.kernel_matrix((a - b) % p, p)
                continue
            b_solved = fl.matmul(b, solved[i2], p)
            if i1 not in solved:
                offs, _ = offsets(right_blocks(setup, i1, d, n))
                solved[i1] = np.vstack([
                    b_solved[offs[(0, j)]:offs[(0, j)] + rows]
                    for j, rows in middle_blocks(setup, i1, d, n)])
            cond = (fl.matmul(a, solved[i1], p) - b_solved) % p
            tested += 1
            if cond.any():
                changed += 1
                shrink = fl.kernel_matrix(cond, p)
                for key in solved:
                    solved[key] = fl.matmul(solved[key], shrink, p)
        eq_dims[d] = solved[top].shape[1]
    return eq_dims, tested, changed


def f_iso_reference(group, D, p):
    """The limit as the kernel of one block per morphism (identity minus
    the morphism's map) over the product of every object's ring, with
    kernel and image tested against the stacked restrictions from G to
    every object: the reference for f_iso_check."""
    setup = loc._AbelianSetup(group, p)
    maps = inclusion_maps(setup)
    ring_G = setup.data_G.ring
    n_obj = len(setup.objects)
    rings = [data.ring for data in setup.sub_data]

    stacks = [np.vstack([setup.res_mat(i, d) for i in range(n_obj)])
              if ring_G.dim(d) else fl.zeros(0, 0) for d in range(D + 1)]
    # one residual map modulo the stacked restrictions per degree
    resid = [fl.residual_map(s, s.shape[0], p) for s in stacks]

    limit_dims, kernel_report, image_report = {}, [], []
    for d in range(D + 1):
        dims = [ring.dim(d) for ring in rings]
        offs = np.cumsum([0] + dims)
        rows = []
        for i1, i2 in setup.morphisms:
            block = fl.zeros(dims[i1], offs[-1])
            block[:, offs[i1]:offs[i1 + 1]] = fl.identity(dims[i1])
            block[:, offs[i2]:offs[i2 + 1]] = \
                (block[:, offs[i2]:offs[i2 + 1]]
                 - maps[i1, i2].matrix(d)) % p
            if block.any():
                rows.append(block)
        basis = fl.kernel_matrix(
            np.vstack(rows) if rows else fl.zeros(0, offs[-1]), p)
        limit_dims[d] = basis.shape[1]
        for vec in fl.kernel_basis(stacks[d], p):
            poly = ring_G.poly_from_coords(vec, d)
            kernel_report.append(
                (d, vec, loc.certify_nilpotent(ring_G, poly, d, D)))
        for c in range(basis.shape[1]):
            z = basis[:, c]
            comps = [ring.poly_from_coords(z[offs[i]:offs[i + 1]], d)
                     for i, ring in enumerate(rings)]
            j, deg, j_found = 0, d, None
            while deg <= D:
                coords = np.concatenate([ring.coords([f], deg)[:, 0]
                                         for ring, f in zip(rings, comps)])
                if not fl.matmul(resid[deg], coords, p).any():
                    j_found = j
                    break
                comps = [ring.power(f, p) for ring, f in zip(rings, comps)]
                j, deg = j + 1, deg * p
            image_report.append((d, z, j_found))
    return limit_dims, kernel_report, image_report


def same_reports(got, want):
    """Equal (degree, vector, verdict) tuples, vectors equal in value and
    dtype."""
    return len(got) == len(want) and all(
        d1 == d2 and v1 == v2 and x1.dtype == x2.dtype
        and np.array_equal(x1, x2)
        for (d1, x1, v1), (d2, x2, v2) in zip(got, want))


@settings(max_examples=60, deadline=None)
@given(data=st.data(), p=st.sampled_from([2, 3, 5]),
       k=st.integers(0, 3), m=st.integers(0, 3),
       a=st.integers(0, 6), b=st.integers(0, 6))
def test_substitution_is_a_coalgebra_map(data, p, k, m, a, b):
    # restriction commutes with the coproduct, the fact that pushes T's
    # pair of legs forward to every object below T
    assume(a + b <= 6)
    entries = data.draw(st.lists(st.integers(0, p - 1), min_size=k * m,
                                 max_size=k * m))
    source, target = elem_abelian_ring(k, p), elem_abelian_ring(m, p)
    rmap = chow.RingMap(source, target, np.array(entries).reshape(k, m))
    setup = loc._AbelianSetup(G([1]), p)
    left = setup.comult_split(target, a, b) @ rmap.matrix(a + b) % p
    right = fl.kron(rmap.matrix(a), rmap.matrix(b), p) \
        @ setup.comult_split(source, a, b) % p
    assert left.shape == right.shape and (left == right).all()


class TestBuildLambda:
    def test_trivial_group(self):
        d = build_lambda(G([1]), 1, 4, 2)
        assert d.eq_dims == {0: 1, 1: 0, 2: 0, 3: 0, 4: 0}
        assert d.all_iso()

    @pytest.mark.parametrize("p", [2, 3])
    def test_elementary_abelian_injective_at_level_one(self, p):
        # the component at E = G restricts along the identity, forcing
        # injectivity in every degree
        d = build_lambda(G([p, p]), 1, 6, p)
        assert d.all_injective() and all(d.legs_agree.values())

    @pytest.mark.parametrize("p", [2, 3])
    def test_cyclic_square(self, p):
        d = build_lambda(G([p * p]), 1, 6, p)
        assert d.all_injective() and d.all_iso()

    def test_equalizer_legs_agree_through_level_three(self):
        for spec, p in [([2], 2), ([2, 2], 2), ([4], 2), ([3], 3), ([9], 3),
                        ([4, 2], 2), ([3, 3], 3), ([2, 2, 2], 2)]:
            for n in (1, 2, 3):
                d = build_lambda(G(spec), n, 5, p)
                assert all(d.legs_agree.values()), (spec, n)
                # abelian groups are isomorphic onto the equalizer at every
                # level; picking the wrong unit-monomial rows breaks this
                assert d.all_iso(), (spec, n)
                assert d.eq_dims == d.source_dims, (spec, n)

    def test_builds_powers_of_restriction_to_top_alone(self, monkeypatch):
        # every degreewise map matrix build_lambda asks for is a power of
        # res_{G->T}: no other object's lambda, no morphism's leg 2
        setup = loc._AbelianSetup(G([2, 2, 2]), 2)
        monkeypatch.setattr(loc, "_AbelianSetup", lambda *args: setup)
        maps = []
        real = chow.RingMap.matrix

        def recording(rmap, d):
            maps.append(rmap)
            return real(rmap, d)

        monkeypatch.setattr(chow.RingMap, "matrix", recording)
        d = build_lambda(G([2, 2, 2]), 3, 6, 2)
        assert maps and all(m is setup.res_to[setup.top] for m in maps)
        assert d.all_iso() and all(d.legs_agree.values())

    @pytest.mark.parametrize("spec, p", [([2, 2], 2), ([4, 2], 2),
                                         ([3, 3], 3), ([2, 2, 2], 2),
                                         ([9, 3], 3)])
    def test_top_self_kernel_is_the_equalizer(self, spec, p):
        # no condition past the top object's self pair cuts the space
        setup = loc._AbelianSetup(G(spec), p)
        for n in (1, 2, 3):
            eq_dims, tested, changed = seed_and_cut(setup, n, 6)
            assert tested and not changed, (n, changed)
            assert eq_dims == build_lambda(G(spec), n, 6, p).eq_dims, n

    def test_wrong_morphism_map_breaks_the_legs(self, monkeypatch):
        # a morphism whose map does not compose with restriction from G:
        # one wrong entry in the characters of E_8 on E_1's basis, which
        # both `functorial` and `inclusion_map` read
        setup = loc._AbelianSetup(G([2, 2, 2]), 2)
        assert (1, 8) in setup.morphisms
        source, target = setup.sub_data[8], setup.sub_data[1]
        real = chow.AbelianRingData.char_matrix

        def wrong(data, points):
            mat = real(data, points)
            if data is source and points == target.basis:
                mat[0, 0] ^= 1
            return mat

        monkeypatch.setattr(chow.AbelianRingData, "char_matrix", wrong)
        for n in (1, 2, 3):
            for diagram in (loc._build_lambda(setup, n, 5),
                            per_morphism_lambda(setup, n, 5)):
                assert not any(diagram.legs_agree[d] for d in range(1, 6))

    def test_wrong_top_leg_two_breaks_the_legs(self):
        # one wrong entry in T's res_comult, the centralizer side of leg 2,
        # in its (j2, j3) = (0, 1) block; level 1 has no such block
        setup = loc._AbelianSetup(G([2, 2, 2]), 2)
        block = setup.res_comult(setup.top, 0, 1)
        block[0, 0] ^= 1
        for n in (2, 3):
            for diagram in (loc._build_lambda(setup, n, 5),
                            per_morphism_lambda(setup, n, 5)):
                assert not any(diagram.legs_agree[d] for d in range(1, 6))

    def test_wrong_top_leg_one_counit_breaks_the_legs(self):
        # one wrong entry in T's coproduct piece CH_T^1 -> CH_T^1 (x) CH_T^0,
        # the leg-1 side of the (0, d - 1) block that the condition leaves
        # out; it enters degrees 1..n at level n
        for n in (1, 2, 3):
            setup = loc._AbelianSetup(G([2, 2, 2]), 2)
            ring_T = setup.sub_data[setup.top].ring
            setup.comult_split(ring_T, 1, 0)[0, 0] ^= 1
            diagram = loc._build_lambda(setup, n, 5)
            assert not any(diagram.legs_agree[d] for d in range(1, n + 1))

    def test_objects_share_one_ring_per_rank(self):
        setup = loc._AbelianSetup(gp.load_group({"abelian": [3, 3, 3]}), 3)
        maps = setup.res_to + list(inclusion_maps(setup).values())
        rings = [setup.data_G.ring] + [data.ring for data in setup.sub_data] \
            + [r for rmap in maps for r in (rmap.source, rmap.target)]
        assert {r.k for r in rings} == {0, 1, 2, 3}
        assert all(r is elem_abelian_ring(r.k, 3) for r in rings)

    @pytest.mark.parametrize("p", [2, 3])
    @pytest.mark.parametrize("name", ABELIAN_CATALOG)
    def test_catalog_matches_per_morphism_reference(self, name, p):
        self.check_reference(catalog_group(name), p, (1, 2, 3), 6)

    def test_rank_four_matches_per_morphism_reference(self):
        self.check_reference(G([2, 2, 2, 2]), 2, (1, 2), 5)

    @staticmethod
    def check_reference(group, p, levels, D):
        # every field equal, down to the type of each value
        setup = loc._AbelianSetup(group, p)
        for n in levels:
            got = loc._build_lambda(setup, n, D)
            want = per_morphism_lambda(setup, n, D)
            assert got == want and repr(got) == repr(want), n

    @pytest.mark.parametrize("name, p", [("z2cube", 2), ("z3sq", 3),
                                         ("z4xz2", 2)])
    def test_condition_triplets_match_dense_reference(self, name, p):
        setup = loc._AbelianSetup(catalog_group(name), p)
        for n in (1, 2, 3, 4):
            for d in range(7):
                (rows, cols, vals), shape = loc._top_condition(setup, d, n)
                want = top_condition_reference(setup, d, n)
                assert shape == want.shape, (n, d)
                # one triplet per nonzero entry, reduced
                assert len(set(zip(rows, cols))) == len(rows), (n, d)
                assert ((vals > 0) & (vals < p)).all(), (n, d)
                got = fl.zeros(*shape)
                got[rows, cols] = vals
                assert (got == want).all(), (n, d)

    @pytest.mark.parametrize("p", [2, 3, 5])
    def test_comult_split_matches_binomial_reference(self, p):
        setup = loc._AbelianSetup(G([1]), p)
        for k in range(4):
            ring = elem_abelian_ring(k, p)
            for i in range(6):
                for j in range(6 - i):
                    got = setup.comult_split(ring, i, j)
                    want = comult_split_reference(ring, i, j)
                    assert got.dtype == want.dtype, (k, i, j)
                    assert got.shape == want.shape, (k, i, j)
                    assert (got == want).all(), (k, i, j)

    def test_one_condition_rank_per_degree(self, monkeypatch):
        # T's condition is the one rank taken on COO triplets; lambda_T's
        # rank is taken on its dense matrix
        conditions = []
        real = fl.rank

        def counting(m, p, shape=None):
            if shape is not None:
                conditions.append(shape)
            return real(m, p, shape)

        monkeypatch.setattr(fl, "rank", counting)
        d = build_lambda(G([2, 2, 2]), 2, 5, 2)
        assert len(conditions) == 6 and d.all_iso()

    def test_monotone_injectivity(self):
        for spec, p in [([2, 2], 2), ([4, 2], 2), ([3, 3], 3)]:
            prev = None
            for n in (1, 2, 3):
                inj = build_lambda(G(spec), n, 5, p).all_injective()
                if prev is not None and prev:
                    assert inj, (spec, n)
                prev = inj

    def test_level_one_matches_independent_limit(self):
        for spec, p in [([2], 2), ([2, 2], 2), ([4], 2), ([3, 3], 3),
                        ([4, 2], 2)]:
            diag = build_lambda(G(spec), 1, 6, p)
            cert = f_iso_check(G(spec), 6, p)
            assert diag.eq_dims == cert.limit_dims, spec

    @pytest.mark.parametrize("spec, p", [([4, 2], 2), ([9, 3], 3),
                                         ([2, 2, 2], 2), ([3, 3], 3),
                                         ([8], 2)])
    def test_morphism_maps_are_functorial(self, spec, p):
        # the map of E_i -> E_j composed with restriction from G to E_j is
        # restriction from G to E_i
        setup = loc._AbelianSetup(G(spec), p)
        for (i, j), rmap in inclusion_maps(setup).items():
            for d in range(5):
                via_j = fl.matmul(rmap.matrix(d), setup.res_mat(j, d), p)
                assert (via_j == setup.res_mat(i, d)).all(), (i, j, d)

    @pytest.mark.parametrize("spec, p", [([3, 3], 3), ([2, 2, 2], 2),
                                         ([4, 2], 2)])
    def test_res_comult_matches_kronecker_reference(self, spec, p):
        # the reshaped product equals kron(restrict, I) @ comultiply
        setup = loc._AbelianSetup(G(spec), p)
        ring_G = setup.data_G.ring
        for i in range(len(setup.objects)):
            for a in range(7):
                for b in range(7 - a):
                    want = np.kron(setup.res_mat(i, a),
                                   fl.identity(ring_G.dim(b))) \
                        @ setup.comult_split(ring_G, a, b) % p
                    got = setup.res_comult(i, a, b)
                    assert got.shape == want.shape, (i, a, b)
                    assert (got == want).all(), (i, a, b)

    def test_maps_need_no_polynomial_products(self, monkeypatch):
        # every restriction matrix, from G and along each inclusion, is a
        # symmetric power of its substitution matrix, with no dict
        # polynomial multiplied out
        def refuse(*args):
            raise AssertionError("poly_mul_raw called")

        monkeypatch.setattr(chow, "poly_mul_raw", refuse)
        setup = loc._AbelianSetup(G([3, 3, 3]), 3)
        maps = inclusion_maps(setup)
        for d in range(7):
            for i, data in enumerate(setup.sub_data):
                assert setup.res_mat(i, d).shape == (
                    data.ring.dim(d), setup.data_G.ring.dim(d))
            for (i, j), rmap in maps.items():
                assert rmap.matrix(d).shape == (
                    setup.sub_data[i].ring.dim(d),
                    setup.sub_data[j].ring.dim(d))

    def test_level_zero_rejected(self):
        with pytest.raises(ValueError):
            build_lambda(G([2]), 0, 3, 2)

    def test_nonabelian_rejected_with_pointer(self):
        s3 = FiniteGroup.from_permutations([(1, 0, 2), (1, 2, 0)], 3, name="S3")
        with pytest.raises(ValueError, match="abelian"):
            build_lambda(s3, 1, 3, 2)


class TestFIso:
    @pytest.mark.parametrize("p", [2, 3, 5])
    @pytest.mark.parametrize("name", ABELIAN_CATALOG)
    def test_catalog_matches_reference(self, name, p):
        self.check_reference(catalog_group(name), 8, p)

    def test_rank_four_matches_reference(self):
        self.check_reference(G([2, 2, 2, 2]), 6, 2)

    @staticmethod
    def check_reference(group, D, p):
        cert = f_iso_check(group, D, p)
        limit_dims, kernel_report, image_report = f_iso_reference(group, D, p)
        assert cert.limit_dims == limit_dims
        assert same_reports(cert.kernel_report, kernel_report)
        assert same_reports(cert.image_report, image_report)

    @pytest.mark.parametrize("spec, p", [([2, 2, 2], 2), ([9, 3], 3),
                                         ([4, 2], 2), ([3], 2), ([1], 2)])
    def test_top_is_terminal(self, spec, p):
        # T contains every object, every object has exactly one morphism
        # into T, and T's own map is the identity
        setup = loc._AbelianSetup(G(spec), p)
        top = set(setup.objects[setup.top])
        assert all(top.issuperset(obj) for obj in setup.objects)
        into_top = [i for i, j in setup.morphisms if j == setup.top]
        assert into_top == list(range(len(setup.objects)))
        own = inclusion_map(setup, setup.top, setup.top)
        for d in range(7):
            mat = own.matrix(d)
            assert (mat == fl.identity(mat.shape[0])).all(), d

    def test_restrictions_batched_per_rank_class(self, monkeypatch):
        # f_iso_check builds no RingMap of its own: res_{T->E} for every
        # object comes from one batched symmetric power per rank class,
        # whose stack holds exactly that class's objects in order, and no
        # morphism other than T's is checked
        setup = loc._AbelianSetup(G([2, 2, 2]), 2)
        monkeypatch.setattr(loc, "_AbelianSetup", lambda *args: setup)
        built, batches = [], []
        real_init = chow.RingMap.__init__

        def recording_init(rmap, *args, **kwargs):
            built.append(rmap)
            real_init(rmap, *args, **kwargs)

        def recording_powers(source, target, mats):
            batches.append((source, target, np.array(mats)))
            return chow.symmetric_powers(source, target, mats)

        monkeypatch.setattr(chow.RingMap, "__init__", recording_init)
        monkeypatch.setattr(loc, "symmetric_powers", recording_powers)
        f_iso_check(G([2, 2, 2]), 6, 2)
        assert built == []
        data_T = setup.sub_data[setup.top]
        ranks = sorted({data.ring.k for data in setup.sub_data})
        assert [target.k for _, target, _ in batches] == ranks == [0, 1, 2, 3]
        objects = iter(setup.sub_data)
        for source, target, mats in batches:
            assert source is data_T.ring
            for mat in mats:
                data = next(objects)
                assert data.ring is target
                assert (mat == data_T.char_matrix(data.basis)).all()
        assert next(objects, None) is None
        assert "functorial" not in vars(setup)
        assert len(setup.objects) < len(setup.morphisms)

    @pytest.mark.parametrize("p", [2, 3])
    def test_singular_restriction_matches_reference(self, monkeypatch,
                                                    capsys, tmp_path, p):
        # res_{G->T} sending y1 and y2 both to z1, composed into every
        # res_{G->E}: CH_G -> lim then has kernel rows, and monomials
        # holding z2 never reach the image, so the p-power search runs
        # past j = 0 and ends unresolved; the CLI formats those rows too
        group = G([p, p])
        setup = loc._AbelianSetup(group, p)
        data_T = setup.sub_data[setup.top]
        for i, data in enumerate(setup.sub_data):
            setup.res_to[i] = chow.RingMap(
                setup.data_G.ring, data.ring,
                fl.matmul(np.array([[1, 0], [1, 0]]),
                          data_T.char_matrix(data.basis), p))
        monkeypatch.setattr(loc, "_AbelianSetup", lambda *args: setup)
        self.check_reference(group, 6, p)
        cert = f_iso_check(group, 6, p)
        assert cert.kernel_report and None in {j for *_, j in
                                               cert.image_report}
        path = tmp_path / "group.json"
        path.write_text('{"abelian": [%d, %d]}' % (p, p))
        assert main(["quillen-check", "--group", str(path), "--prime", str(p),
                     "--cutoff", "6"]) == 0
        rows = [line.split("\t") for line in capsys.readouterr()[0].splitlines()
                if not line.startswith("#")][1:]
        report = ([("kernel", e) for e in cert.kernel_report]
                  + [("image", e) for e in cert.image_report])
        assert [row[:3] for row in rows] == [
            [side, str(d), " ".join(map(str, vec.tolist()))]
            for side, (d, vec, _) in report]

    @pytest.mark.parametrize("p", [2, 3])
    def test_elementary_abelian(self, p):
        for k in (1, 2):
            cert = f_iso_check(G([p] * k), 6, p)
            assert cert.kernel_trivial and cert.image_full
            assert not cert.unresolved

    @pytest.mark.parametrize("p", [2, 3])
    def test_cyclic_square(self, p):
        cert = f_iso_check(G([p * p]), 6, p)
        assert cert.kernel_trivial and cert.image_full

    def test_trivial_group_identity(self):
        cert = f_iso_check(G([1]), 4, 2)
        assert cert.limit_dims == {0: 1, 1: 0, 2: 0, 3: 0, 4: 0}
        assert cert.kernel_trivial and cert.image_full

    def test_limit_dim_formula_klein(self):
        # the limit for (Z/2)^2 at small degrees: invariants of the corner
        cert = f_iso_check(G([2, 2]), 4, 2)
        ring = elem_abelian_ring(2, 2)
        for d, dim in cert.limit_dims.items():
            assert dim == ring.dim(d)  # map is injective AND onto here


class TestD0D1:
    @pytest.mark.parametrize("spec,p", [([2, 2], 2), ([4], 2), ([1], 2),
                                        ([3, 3], 3), ([9], 3)])
    def test_zero(self, spec, p):
        assert d0_estimate(G(spec), 5, p) == (0, "verified-through-cutoff")
        assert loc._first_levels(G(spec), 5, p, EqualizerDiagram.all_iso)[0] \
            == (0, "verified-through-cutoff")


@pytest.fixture
def setup_calls(monkeypatch):
    """Arguments of every gp.elementary_abelians call, one per setup."""
    calls = []
    real = gp.elementary_abelians

    def counting(*args, **kwargs):
        calls.append(args)
        return real(*args, **kwargs)

    monkeypatch.setattr(gp, "elementary_abelians", counting)
    return calls


class TestLevelSweep:
    """The d0/d1 level sweep on stub diagrams whose predicates turn true
    at chosen levels: every catalog group has d0 = d1 = 0, so real
    diagrams never reach the later levels."""

    @staticmethod
    def stub(monkeypatch, injective_from, iso_from):
        built = []

        def fake(setup, n, D):
            built.append(n)
            return EqualizerDiagram(
                group=setup.G, p=setup.p, level=n, cutoff=D,
                objects=setup.objects, morphism_count=0,
                injective={0: n >= injective_from},
                onto_equalizer={0: n >= iso_from})

        monkeypatch.setattr(loc, "_build_lambda", fake)
        return built

    def test_d0_below_d1_in_one_pass(self, monkeypatch, setup_calls):
        built = self.stub(monkeypatch, 2, 4)
        rep = bounds_report(G([2, 2]), 3, 5, 2)
        assert (rep["d0"], rep["d0_verdict"]) == (1, "verified-through-cutoff")
        assert (rep["d1"], rep["d1_verdict"]) == (3, "verified-through-cutoff")
        assert built == [1, 2, 3, 4]
        assert len(setup_calls) == 1

    def test_each_estimate_stops_at_its_level(self, monkeypatch):
        built = self.stub(monkeypatch, 2, 4)
        assert d0_estimate(G([2]), 5, 2) == (1, "verified-through-cutoff")
        assert built == [1, 2]
        built.clear()
        assert loc._first_levels(G([2]), 5, 2, EqualizerDiagram.all_iso)[0] \
            == (3, "verified-through-cutoff")
        assert built == [1, 2, 3, 4]

    def test_unresolved_at_the_cap(self, monkeypatch, setup_calls):
        built = self.stub(monkeypatch, 100, 100)
        rep = bounds_report(G([2]), 1, 3, 2)
        assert (rep["d0"], rep["d0_verdict"]) == (5, "unresolved")
        assert (rep["d1"], rep["d1_verdict"]) == (5, "unresolved")
        assert built == [1, 2, 3, 4, 5]
        assert len(setup_calls) == 1

    def test_one_setup_per_run(self, setup_calls, capsys, data_dir):
        bounds_report(G([2, 2]), 2, 4, 2)
        assert len(setup_calls) == 1
        setup_calls.clear()
        path = str(data_dir / "groups" / "klein.json")
        assert main(["d0", "--group", path, "--cutoff", "4",
                     "--faithful-degree", "2"]) == 0
        assert len(setup_calls) == 1


class TestMaxNil:
    def test_bounds_report_builds_one_ring_module(self, monkeypatch):
        built = []
        real = loc.ring_module

        def counting(ring, D):
            built.append(D)
            return real(ring, D)

        monkeypatch.setattr(loc, "ring_module", counting)
        rep = bounds_report(G([2, 2]), 2, 5, 2)
        assert built == [10] and not rep["violations"]

    def test_bounds_report_fills_only_what_it_reads(self, monkeypatch):
        # d0 through 12 on (Z/2)^3 reads P^a from degrees <= 12 of a module
        # through 24: each matrix is filled once, and none from above 12
        filled = []
        real = chow._action_matrix

        def recording(ring, a, d):
            filled.append((a, d))
            return real(ring, a, d)

        monkeypatch.setattr(chow, "_action_matrix", recording)
        assert not bounds_report(G([2, 2, 2]), 3, 12, 2)["violations"]
        assert len(filled) == len(set(filled))
        assert max(d for _, d in filled) == 12

    def test_polynomial_line_has_no_nilpotents(self):
        r = elem_abelian_ring(1, 2)
        assert max_nil_submodule(r, 1, 8) == {}

    def test_level_zero_is_everything(self):
        r = elem_abelian_ring(1, 2)
        spaces = max_nil_submodule(r, 0, 4)
        assert sorted(spaces) == [0, 1, 2, 3, 4]

    @pytest.mark.parametrize("p", [2, 3])
    def test_point_module_levels(self, p):
        for d in (1, 2, 3):
            m = point_module(d, p)
            assert max_nil_submodule(m, d, 8)
            assert not max_nil_submodule(m, d + 1, 8)

    @pytest.mark.parametrize("p", [2, 3])
    def test_synthetic_sum_forced(self, p):
        for d in (1, 2, 3, 4):
            v = ring_module(elem_abelian_ring(1, p), p * 8)
            m = direct_sum(v, point_module(d, p))
            levels = [lv for lv in range(1, 9) if max_nil_submodule(m, lv, 8)]
            assert levels and max(levels) == d, (p, d, levels)


class TruncatedLine:
    """F_p[y]/(y^n), as much of a ring as certify_nilpotent reads: its
    prime and its powers."""

    def __init__(self, p, n):
        self.p, self.n = p, n

    def power(self, f, e):
        out = {(0,): 1}
        for _ in range(e):
            out = {m: c for m, c in poly_mul_raw(out, f, self.p).items()
                   if m[0] < self.n}
        return out


class TestNilpotencyCertification:
    def test_nilpotent_element_in_quotient_ring(self):
        from chowops.localization import certify_nilpotent
        r = TruncatedLine(3, 3)
        m = certify_nilpotent(r, {(1,): 1}, 1, 12)
        assert m == 1  # y^3 = 0
        # re-multiplication check: the certificate really holds
        assert r.power({(1,): 1}, 3 ** m) == {}

    def test_window_too_small_is_unresolved(self):
        from chowops.localization import certify_nilpotent
        r = TruncatedLine(3, 9)
        assert certify_nilpotent(r, {(1,): 1}, 1, 2) is None
        assert certify_nilpotent(r, {(1,): 1}, 1, 9) == 2

    def test_non_nilpotent_never_certified(self):
        from chowops.chow import elem_abelian_ring
        from chowops.localization import certify_nilpotent
        r = elem_abelian_ring(1, 2)
        assert certify_nilpotent(r, {(1,): 1}, 1, 64) is None


class TestBounds:
    def test_klein(self):
        rep = bounds_report(G([2, 2], "klein"), 2, 5, 2)
        assert rep["d0"] == 0 and rep["d1"] == 0
        assert rep["bound_d0"] == 1 and rep["bound_d1"] == 2
        assert not rep["violations"]

    def test_cyclic_tight(self):
        for p in (2, 3):
            rep = bounds_report(G([p]), 1, 4, p)
            assert rep["d0"] == 0 == rep["bound_d0"]
            assert not rep["violations"]

    def test_trivial(self):
        rep = bounds_report(G([1]), 1, 3, 2)
        assert not rep["violations"]
