import collections
import itertools

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from chowops import fp_linalg as fl
from chowops import groups as gp
from chowops import chow
from chowops import cli
from chowops import localization as loc
from chowops.chow import abelian_ring, elem_abelian_ring, ring_module
from chowops.cli import main
from chowops.groups import FiniteGroup
from chowops.localization import (EqualizerDiagram, bounds_report,
                                  build_lambda, d0_estimate, f_iso_check)

from conftest import (ABELIAN_CATALOG, all_injective, all_iso,
                      bounds_report_reference, catalog_group,
                      comult_split_reference, direct_sum,
                      functorial_reference, inclusion_maps, lattice_objects,
                      level_sweep, max_nil_submodule, object_ring,
                      point_module, rank_type_blocks, relabelled,
                      res_comult_reference, restriction_from_G,
                      setup_reference, top_condition_reference,
                      top_reference, type_blocks, type_legs)


# (k, p, n, D): rank k up to 5, levels where the type blocks have rows
# with both the middle and the right factor of degree >= 1, and degrees
# where a block has several types of equal degree
TYPE_GRID = [
    (1, 5, 4, 10), (2, 2, 4, 8), (2, 3, 4, 8), (2, 5, 3, 8),
    (3, 3, 3, 8), (3, 2, 4, 7), (3, 5, 4, 6), (4, 2, 4, 6),
    (4, 3, 3, 6), (5, 2, 3, 6)]


def G(spec, name=None):
    return FiniteGroup.from_abelian(spec, name=name)


# The general leg builders for any object and morphism of a setup
# reference (`conftest.setup_reference`), and the per-morphism equalizer
# diagram built from them: the reference for build_lambda, which reads
# everything off the terminal object T.


def middle_blocks(ref, obj_index, d, n):
    """Ordered (j, rows) blocks of CH_E (x) CH_G^{<n} in degree d."""
    ring_E = object_ring(ref, obj_index)
    ring_G = ref.data_G.ring
    return [(j, ring_E.dim(d - j) * ring_G.dim(j))
            for j in range(min(n - 1, d) + 1)]


def right_blocks(ref, e1_index, d, n):
    """Ordered ((j2, j3), rows) blocks of CH_{E1} (x) (CH_{E1} (x)
    CH_G)^{<n} in degree d."""
    ring_E = object_ring(ref, e1_index)
    ring_G = ref.data_G.ring
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


def lambda_block(ref, obj_index, d, n):
    """lambda_E in degree d for any object E."""
    return np.vstack([res_comult_reference(ref, obj_index, d - j, j)
                      for j, _ in middle_blocks(ref, obj_index, d, n)])


def leg1_block(ref, i1, d, n):
    """Leg 1 of any morphism out of object i1: comultiply the E1 factor."""
    ring_E = object_ring(ref, i1)
    ring_G = ref.data_G.ring
    src_offs, src_total = offsets(middle_blocks(ref, i1, d, n))
    tgt_blocks = right_blocks(ref, i1, d, n)
    tgt_offs, tgt_total = offsets(tgt_blocks)
    mat = fl.zeros(tgt_total, src_total)
    for (j2, j3), rows in tgt_blocks:
        i = d - j3
        src_rows = ring_E.dim(i) * ring_G.dim(j3)
        if rows and src_rows:
            mat[tgt_offs[(j2, j3)]:tgt_offs[(j2, j3)] + rows,
                src_offs[j3]:src_offs[j3] + src_rows] = fl.kron(
                    comult_split_reference(ring_E, i - j2, j2),
                    fl.identity(ring_G.dim(j3)), ref.p)
    return mat


def leg2_block(ref, i1, i2, rmap, d, n):
    """Leg 2 of the inclusion E_i1 <= E_i2 with map `rmap`: restrict the
    E2 factor along the map into factor one, expand the centralizer factor
    into factors two and three."""
    ring_E2 = object_ring(ref, i2)
    ring_G = ref.data_G.ring
    src_offs, src_total = offsets(middle_blocks(ref, i2, d, n))
    tgt_blocks = right_blocks(ref, i1, d, n)
    tgt_offs, tgt_total = offsets(tgt_blocks)
    mat = fl.zeros(tgt_total, src_total)
    for (j2, j3), rows in tgt_blocks:
        j = j2 + j3
        src_rows = ring_E2.dim(d - j) * ring_G.dim(j)
        if rows and src_rows:
            mat[tgt_offs[(j2, j3)]:tgt_offs[(j2, j3)] + rows,
                src_offs[j]:src_offs[j] + src_rows] = fl.kron(
                    rmap.matrix(d - j),
                    res_comult_reference(ref, i1, j2, j3), ref.p)
    return mat


def per_morphism_lambda(ref, n, D):
    """The equalizer diagram with lambda built for every object and the
    legs compared on it over every inclusion; the rank is that of the
    lambda stacked over every object."""
    p = ref.p
    maps = inclusion_maps(ref)
    ring_G = ref.data_G.ring
    diagram = EqualizerDiagram(
        group=ref.G, p=p, level=n, cutoff=D, object_count=ref.top + 1,
        morphism_count=len(maps))
    for d in range(D + 1):
        lam = [lambda_block(ref, i, d, n)
               for i in range(ref.top + 1)]
        diagram.source_dims[d] = ring_G.dim(d)
        diagram.middle_dims[d] = sum(m.shape[0] for m in lam)
        agree = True
        for i1, i2 in maps:
            a = leg1_block(ref, i1, d, n)
            b = leg2_block(ref, i1, i2, maps[i1, i2], d, n)
            if (fl.matmul(a, lam[i1], p) != fl.matmul(b, lam[i2], p)).any():
                agree = False
            if i1 == i2 == ref.top:
                eq_dim = fl.kernel_matrix((a - b) % p, p).shape[1]
        diagram.legs_agree[d] = agree
        diagram.eq_dims[d] = eq_dim
        rk = fl.rank(np.vstack(lam), p)
        diagram.injective[d] = rk == ring_G.dim(d)
        diagram.onto_equalizer[d] = agree and rk == eq_dim
    return diagram


def seed_and_cut(ref, n, D):
    """The general equalizer solve over the whole category, the reference
    for build_lambda: seed with the kernel of the top object's self pair,
    take each other object's component from its first inclusion into the
    top (the rows whose middle factor is the unit monomial), then cut by
    every morphism's condition.  Returns (eq_dims, cuts tested, cuts that
    changed the space)."""
    p = ref.p
    maps = inclusion_maps(ref)
    top = max(range(len(ref.objects)), key=lambda i: len(ref.objects[i]))
    order = sorted(maps, key=lambda m: (m != (top, top), m[1] != top))
    eq_dims, tested, changed = {}, 0, 0
    for d in range(D + 1):
        solved = {}
        for i1, i2 in order:
            a = leg1_block(ref, i1, d, n)
            b = leg2_block(ref, i1, i2, maps[i1, i2], d, n)
            if (i1, i2) == (top, top):
                solved[top] = fl.kernel_matrix((a - b) % p, p)
                continue
            b_solved = fl.matmul(b, solved[i2], p)
            if i1 not in solved:
                offs, _ = offsets(right_blocks(ref, i1, d, n))
                solved[i1] = np.vstack([
                    b_solved[offs[(0, j)]:offs[(0, j)] + rows]
                    for j, rows in middle_blocks(ref, i1, d, n)])
            cond = (fl.matmul(a, solved[i1], p) - b_solved) % p
            tested += 1
            if cond.any():
                changed += 1
                shrink = fl.kernel_matrix(cond, p)
                for key in solved:
                    solved[key] = fl.matmul(solved[key], shrink, p)
        eq_dims[d] = solved[top].shape[1]
    return eq_dims, tested, changed


def f_iso_reference(ref, D):
    """The limit as the kernel of one block per morphism (identity minus
    the morphism's map) over the product of every object's ring, with
    kernel and image tested against the stacked restrictions from G to
    every object, by elimination in each degree: the reference for
    f_iso_check.  Returns the limit dimensions, the kernel report
    (degree, coords, least m with x^{p^m} = 0 | None) and the image
    report (degree, coords, least j with z^{p^j} in the image | None),
    None when the cutoff ends the search first."""
    p = ref.p
    maps = inclusion_maps(ref)
    ring_G = ref.data_G.ring
    n_obj = ref.top + 1
    rings = [object_ring(ref, i) for i in range(n_obj)]
    res = [restriction_from_G(ref, i) for i in range(n_obj)]

    stacks = [np.vstack([res[i].matrix(d) for i in range(n_obj)])
              if ring_G.dim(d) else fl.zeros(0, 0) for d in range(D + 1)]
    # one residual map modulo the stacked restrictions per degree
    resid = [fl.residual_map(s, s.shape[0], p) for s in stacks]

    def poly(ring, vec, d):
        return {m: int(c) for m, c in zip(ring.basis(d), vec) if c}

    limit_dims, kernel_report, image_report = {}, [], []
    for d in range(D + 1):
        dims = [ring.dim(d) for ring in rings]
        offs = np.cumsum([0] + dims)
        rows = []
        for i1, i2 in maps:
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
            # powers x^{p^m} while p^m d stays inside the cutoff
            x, m, deg = poly(ring_G, vec, d), 0, d
            while x and deg * p <= D:
                x, m, deg = ring_G.power(x, p), m + 1, deg * p
            kernel_report.append((d, vec, None if x else m))
        for c in range(basis.shape[1]):
            z = basis[:, c]
            comps = [poly(ring, z[offs[i]:offs[i + 1]], d)
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
    left = comult_split_reference(target, a, b) @ rmap.matrix(a + b) % p
    right = fl.kron(rmap.matrix(a), rmap.matrix(b), p) \
        @ comult_split_reference(source, a, b) % p
    assert left.shape == right.shape and (left == right).all()


class TestSetup:
    """The array setup against the per-object path of
    `conftest.setup_reference`: one `restriction_map` per object and one
    `char_matrix` per inclusion."""

    @staticmethod
    def check_reference(group, p):
        setup = loc._AbelianSetup(group, p)
        ref = setup_reference(group, p)
        assert lattice_objects(gp.elementary_abelians(group, p)) \
            == ref.objects
        assert gp.lattice_size(setup.r, p) \
            == (len(ref.objects), len(ref.morphisms))
        assert sorted(setup.ids.tolist()) == list(ref.objects[-1])
        assert setup.ids[setup.basis_T].tolist() == ref.bases[-1]
        assert (setup.res_T == ref.res_G[-1]).all()
        # G's characters on T, read at each object's basis, are its
        # restriction from G
        code = {x: c for c, x in enumerate(setup.ids.tolist())}
        for i, basis in enumerate(ref.bases):
            assert (setup.in_G[:, [code[x] for x in basis]]
                    == ref.res_G[i]).all(), i
        res_T = [mat for stack in loc._top_restrictions(setup)
                 for mat in stack]
        assert len(res_T) == len(ref.res_T)
        assert all((a == b).all() for a, b in zip(res_T, ref.res_T))
        assert setup.functorial and functorial_reference(setup, ref)

    @pytest.mark.parametrize("p", [2, 3, 5])
    @pytest.mark.parametrize("name", ABELIAN_CATALOG)
    def test_catalog_matches_per_object_reference(self, name, p):
        self.check_reference(catalog_group(name), p)

    @pytest.mark.parametrize("orders, p, seed", [
        ([2, 2, 2, 2], 2, 0), ([4, 2, 2], 2, 1), ([3, 3, 3], 3, 2),
        ([9, 3], 3, 3), ([6, 6], 2, 4), ([6, 6], 3, 5)])
    def test_relabelled_table_matches_per_object_reference(self, orders, p,
                                                           seed):
        # the greedy picks follow G's numbering: a table file whose
        # elements are renumbered at random
        self.check_reference(relabelled(G(orders), seed), p)

    def test_rank_five_matches_per_object_reference(self):
        self.check_reference(G([2] * 5), 2)


class TestBuildLambda:
    def test_trivial_group(self):
        d = build_lambda(G([1]), 1, 4, 2)
        assert d.eq_dims == {0: 1, 1: 0, 2: 0, 3: 0, 4: 0}
        assert all_iso(d)

    @pytest.mark.parametrize("p", [2, 3])
    def test_elementary_abelian_injective_at_level_one(self, p):
        # the component at E = G restricts along the identity, forcing
        # injectivity in every degree
        d = build_lambda(G([p, p]), 1, 6, p)
        assert all_injective(d) and all(d.legs_agree.values())

    @pytest.mark.parametrize("p", [2, 3])
    def test_cyclic_square(self, p):
        d = build_lambda(G([p * p]), 1, 6, p)
        assert all_injective(d) and all_iso(d)

    def test_equalizer_legs_agree_through_level_three(self):
        for spec, p in [([2], 2), ([2, 2], 2), ([4], 2), ([3], 3), ([9], 3),
                        ([4, 2], 2), ([3, 3], 3), ([2, 2, 2], 2)]:
            for n in (1, 2, 3):
                d = build_lambda(G(spec), n, 5, p)
                assert all(d.legs_agree.values()), (spec, n)
                # abelian groups are isomorphic onto the equalizer at every
                # level; picking the wrong unit-monomial rows breaks this
                assert all_iso(d), (spec, n)
                assert d.eq_dims == d.source_dims, (spec, n)

    def test_builds_powers_of_restriction_to_top_alone(self, monkeypatch):
        # build_lambda works in T's coordinates, so it raises no
        # degreewise map matrix at all, not even a power of res_{G->T}
        maps = []
        real = chow.RingMap.matrix

        def recording(rmap, d):
            maps.append(rmap)
            return real(rmap, d)

        monkeypatch.setattr(chow.RingMap, "matrix", recording)
        d = build_lambda(G([2, 2, 2]), 3, 6, 2)
        assert maps == []
        assert all_iso(d) and all(d.legs_agree.values())

    @pytest.mark.parametrize("spec, p", [([2, 2], 2), ([4, 2], 2),
                                         ([3, 3], 3), ([2, 2, 2], 2),
                                         ([9, 3], 3)])
    def test_top_self_kernel_is_the_equalizer(self, spec, p):
        # no condition past the top object's self pair cuts the space
        ref = setup_reference(G(spec), p)
        for n in (1, 2, 3):
            eq_dims, tested, changed = seed_and_cut(ref, n, 6)
            assert tested and not changed, (n, changed)
            assert eq_dims == build_lambda(G(spec), n, 6, p).eq_dims, n

    @staticmethod
    def flip_character(setup, c):
        """One character value of the element of T of code c, off by one."""
        setup.in_G[0, c] = (setup.in_G[0, c] + 1) % setup.p

    @pytest.mark.parametrize("spec, p", [([2, 2, 2], 2), ([3, 3], 3),
                                         ([4, 2], 2), ([9, 3], 3), ([3], 3)])
    def test_wrong_character_on_top_breaks_the_legs(self, monkeypatch, spec,
                                                    p):
        # one character value of the last element of T, all of whose
        # coordinates are p - 1, so not a unit code: G's characters on T
        # are no longer linear, so no inclusion is certified to compose,
        # the legs agree in no degree, no level is onto and d1 gives up
        setup = loc._AbelianSetup(G(spec), p)
        self.flip_character(setup, len(setup.ids) - 1)
        assert not setup.functorial
        for n in (1, 2, 3):
            diagram = loc._build_lambda(setup, n, 5)
            assert not any(diagram.legs_agree.values()), n
            assert not any(diagram.onto_equalizer.values()), n
            assert all(diagram.injective.values()), n
        monkeypatch.setattr(loc, "_AbelianSetup", lambda *args: setup)
        for D in (0, 3, 6):
            rep = bounds_report(G(spec), 2, D, p)
            assert (rep["d1"], rep["d1_verdict"]) == (D + 2, "unresolved")

    @pytest.mark.parametrize("spec, p", [
        *((name, p) for name in ABELIAN_CATALOG for p in (2, 3, 5)),
        ([5, 5], 5), ([25, 5], 5), ([2, 2, 2, 2], 2)], ids=str)
    def test_linearity_matches_per_inclusion_reference(self, spec, p):
        # `functorial` checks T alone; the reference checks each inclusion
        # of the whole lattice.  Unperturbed both hold.  Then one character
        # value is flipped at each element of T that some object's basis
        # holds, other than the unit codes, and both fail.  At rank <= 1
        # every inclusion is 1 <= E or E <= E, whose check holds whatever
        # the characters, so the perturbed runs start at rank 2
        group = catalog_group(spec) if isinstance(spec, str) else G(spec)
        setup = loc._AbelianSetup(group, p)
        ref = setup_reference(group, p)
        assert setup.functorial and functorial_reference(setup, ref)
        if setup.r < 2:
            return
        code = {x: c for c, x in enumerate(setup.ids.tolist())}
        units = set((p ** np.arange(setup.r)).tolist())
        read = sorted({code[x] for basis in ref.bases for x in basis} - units)
        assert read
        for c in read:
            self.flip_character(setup, c)
            del setup.functorial
            assert not setup.functorial, c
            assert not functorial_reference(setup, ref), c
            setup.in_G[0, c] = (setup.in_G[0, c] - 1) % p
        del setup.functorial
        assert setup.functorial

    @staticmethod
    def wrong_type_block(wrong_type, mutate, ring, n, D, p):
        """The blocks of `conftest.type_blocks`, with `mutate(rows, lam, t,
        p)` changing the rows of `wrong_type`, the t-th type of its degree,
        alone."""
        for types, orbits, rows, lam in type_blocks(ring, n, D, p):
            hit = np.flatnonzero((types == wrong_type).all(axis=1))
            if len(hit):
                mutate(rows, lam, hit[0], p)
            yield types, orbits, rows, lam

    def test_wrong_top_leg_two_breaks_the_legs(self):
        # one wrong leg-2 entry of the type (0, 1, 2), at a column where
        # lambda_T is not zero, in a row that is not a pin row (a wrong pin
        # is refused: test_block_without_its_pin_row_is_refused).  Where
        # the level allows it, the row's middle factor is not the unit, so
        # leg 1 is zero at that column; level 1 has no such row
        def mutate(rows, lam, t, p):
            owner, c1, v1, c2, v2 = rows
            pin = (c1 == 0) & (c2 != 0)
            found = np.flatnonzero((owner == t) & ~pin & (v2 != 0)
                                   & (lam[t, c2] != 0))
            r = max(found, key=lambda r: c1[r] != c2[r])
            v2[r] = (v2[r] + 1) % p

        for p in (2, 3):
            ring = elem_abelian_ring(3, p)
            for n in (2, 3):
                _, agree = rank_type_blocks("", self.wrong_type_block(
                    (0, 1, 2), mutate, ring, n, 5, p), p)
                assert [d for d, ok in agree.items() if not ok] == [3], (p, n)

    def test_wrong_top_leg_one_counit_breaks_the_legs(self):
        # one wrong leg-1 entry of the type (0, 0, 1), in a counit row, where
        # both legs are the same unit vector, at a column where lambda_T is
        # not zero; level 1 has that row and no other
        def mutate(rows, lam, t, p):
            owner, c1, v1, c2, v2 = rows
            counit = (owner == t) & (c1 == c2) & (v1 == v2) & (v1 != 0)
            r = np.flatnonzero(counit & (lam[t, c1] != 0))[0]
            v1[r] = (v1[r] + 1) % p

        for p in (2, 3):
            ring = elem_abelian_ring(3, p)
            for n in (1, 2, 3):
                _, agree = rank_type_blocks("", self.wrong_type_block(
                    (0, 0, 1), mutate, ring, n, 5, p), p)
                assert [d for d, ok in agree.items() if not ok] == [1], (p, n)

    @pytest.mark.parametrize("seed", range(4))
    @pytest.mark.parametrize("k, p, n, D", [
        (2, 2, 3, 6), (2, 3, 4, 6), (3, 2, 3, 5), (3, 5, 3, 5)])
    def test_pin_rank_matches_elimination_on_perturbed_blocks(
            self, k, p, n, D, seed):
        # random entries of random rows changed, the pin rows' leg-2
        # entries kept invertible: the pin-row ranking of
        # `conftest.rank_type_blocks` against each perturbed block built
        # dense and ranked by elimination
        rng = np.random.default_rng(seed)
        ring, seen = elem_abelian_ring(k, p), []

        def perturbed():
            for types, orbits, rows, lam in type_blocks(ring, n, D, p):
                owner, c1, v1, c2, v2 = rows
                hit = rng.random(len(owner)) < 0.1
                v1[hit] = rng.integers(0, p, hit.sum())
                v2[hit] = rng.integers(0, p, hit.sum())
                pin = (c1 == 0) & (c2 != 0)
                v2[hit & pin] = rng.integers(1, p, (hit & pin).sum())
                seen.append((types, orbits, rows, lam))
                yield types, orbits, rows, lam

        eq_dims, legs_agree = rank_type_blocks("", perturbed(), p)
        for d, (types, orbits, rows, lam) in enumerate(seen):
            eq_dim, agree = 0, True
            for t in range(len(types)):
                _, c1, v1, c2, v2 = rows[:, rows[0] == t]
                cols = np.unique(c2)
                cond = fl.zeros(len(c1), len(cols))
                r = np.arange(len(c1))
                np.add.at(cond, (r, np.searchsorted(cols, c1)), v1)
                np.add.at(cond, (r, np.searchsorted(cols, c2)), -v2)
                cond %= p
                eq_dim += orbits[t] * (len(cols) - fl.rank(cond, p))
                agree = agree and not fl.matmul(cond, lam[t, cols], p).any()
            assert (eq_dims[d], legs_agree[d]) == (eq_dim, agree), d
        assert any(eq_dims[d] < ring.dim(d) for d in range(D + 1))

    @pytest.mark.parametrize("fault", ["drop", "zero"])
    def test_block_without_its_pin_row_is_refused(self, fault):
        # a block's rank rests on its pin rows, one per column gamma != 0
        # with a unit leg-2 entry there: the last block of degree 3 loses
        # one, or has its leg-2 entry zeroed, and is refused, not ranked
        def faulty(ring, n, D, p):
            for d, (types, orbits, rows, lam) in enumerate(
                    type_blocks(ring, n, D, p)):
                if d == 3:
                    owner, c1, v1, c2, v2 = rows
                    r = np.flatnonzero((c1 == 0) & (c2 != 0))[-1]
                    if fault == "drop":
                        rows = np.delete(rows, r, axis=1)
                    else:
                        v2[r] = 0
                yield types, orbits, rows, lam

        group = G([2, 2])
        message = (f"{group.name}: a column of the equalizer block of type "
                   "(1, 2) has no pin row with an invertible leg-2 entry")
        for n in (2, 3):
            with pytest.raises(ValueError) as exc:
                rank_type_blocks(group.name, faulty(
                    elem_abelian_ring(2, 2), n, 5, 2), 2)
            assert str(exc.value) == message, n

    @pytest.mark.parametrize("p", [2, 3, 5, 7])
    @pytest.mark.parametrize("k", [1, 2, 3, 4, 5])
    def test_every_type_block_has_rank_one_below_its_columns(self, k, p):
        # the identities that `build_lambda` states, block by block: at
        # levels 1..6 through degree 9 (7 at rank 5), every pin entry is
        # C(gamma, gamma) = 1, every row vanishes on lambda_T's column, and
        # every block of m columns has rank m - 1
        ring, D = elem_abelian_ring(k, p), 7 if k == 5 else 9
        blocks = 0
        for n in range(1, 7):
            seen = []

            def recording():
                for block in type_blocks(ring, n, D, p):
                    seen.append(block)
                    yield block

            eq_dims, legs_agree = rank_type_blocks("", recording(), p)
            assert eq_dims == {d: ring.dim(d) for d in range(D + 1)}, n
            assert all(legs_agree.values()), n
            for types, orbits, rows, lam in seen:
                owner, c1, v1, c2, v2 = rows
                assert (v2[(c1 == 0) & (c2 != 0)] == 1).all(), n
                assert not ((v1 * lam[owner, c1] - v2 * lam[owner, c2])
                            % p).any(), n
            blocks += len(seen)
        assert blocks == 6 * (D + 1)

    def test_objects_share_one_ring_per_rank(self):
        # one stack of res_{T->E} per rank class, over G's one ring of
        # rank 3, and the counts of the objects and inclusions in closed
        # form
        group = gp.load_group({"abelian": [3, 3, 3]})
        setup = loc._AbelianSetup(group, 3)
        assert setup.data_G.ring is elem_abelian_ring(3, 3)
        assert [stack.shape for stack in loc._top_restrictions(setup)] == [
            (count, 3, k) for k, count in enumerate([1, 13, 13, 1])]
        diagram = build_lambda(group, 1, 2, 3)
        assert (diagram.object_count, diagram.morphism_count) == (28, 133)

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
        ref = setup_reference(group, p)
        for n in levels:
            got = loc._build_lambda(setup, n, D)
            want = per_morphism_lambda(ref, n, D)
            assert got == want and repr(got) == repr(want), n

    @staticmethod
    def full_condition_reference(setup, n, D):
        """(eq_dims, legs_agree) from T's whole condition in G's
        coordinates, one dense matrix per degree: its column count minus
        its rank, and whether it annihilates lambda_T while every morphism
        composes with restriction from G."""
        p, ref = setup.p, top_reference(setup.G, setup.p)
        eq_dims, legs_agree = {}, {}
        for d in range(D + 1):
            cond = top_condition_reference(ref, d, n)
            lam = lambda_block(ref, ref.top, d, n)
            eq_dims[d] = cond.shape[1] - fl.rank(cond, p)
            legs_agree[d] = (setup.functorial
                             and not fl.matmul(cond, lam, p).any())
        return eq_dims, legs_agree

    @classmethod
    def check_full_condition(cls, setup, n, D):
        """The library's diagram and the type blocks ranked by their pin
        rows, both against the full condition."""
        want = cls.full_condition_reference(setup, n, D)
        diagram = loc._build_lambda(setup, n, D)
        assert (diagram.eq_dims, diagram.legs_agree) == want
        eq_dims, agree = rank_type_blocks(
            setup.G.name, type_blocks(setup.data_G.ring, n, D, setup.p),
            setup.p)
        assert (eq_dims, {d: setup.functorial and ok
                          for d, ok in agree.items()}) == want

    @pytest.mark.parametrize("p", [2, 3, 5])
    @pytest.mark.parametrize("name", ABELIAN_CATALOG)
    def test_type_blocks_match_full_condition_on_catalog(self, name, p):
        setup = loc._AbelianSetup(catalog_group(name), p)
        for n in (1, 2, 3, 4):
            self.check_full_condition(setup, n, 6)

    @pytest.mark.parametrize("k, p, n, D", TYPE_GRID)
    def test_type_blocks_match_full_condition_on_grid(self, k, p, n, D):
        self.check_full_condition(loc._AbelianSetup(G([p] * k), p), n, D)

    @staticmethod
    def check_type_blocks(ring, n, D, p):
        """Every type block of `conftest.type_blocks`, rows, columns and
        coefficients, against the dense per-type reference
        `conftest.type_legs`: the same rows, each once, with the same
        entries at the same columns, and lambda_T's column, zero off the
        block; and the types of each degree with their orbit sizes."""
        columns = [g for e in range(min(n - 1, D) + 1) for g in ring.basis(e)]
        for d, (types, orbits, rows, lam) in enumerate(
                type_blocks(ring, n, D, p)):
            assert dict(zip(map(tuple, types.tolist()), orbits.tolist())) \
                == collections.Counter(tuple(sorted(a))
                                       for a in ring.basis(d)), d
            for t, alpha in enumerate(map(tuple, types.tolist())):
                leg1, leg2, want_lam = type_legs(alpha, n, p)
                below = [g for g in itertools.product(
                    *(range(a + 1) for a in alpha)) if sum(g) < n]
                col = {g: c for c, g in enumerate(below)}
                row = {(g, b2): r for r, (g, b2) in enumerate(
                    (g, b2) for g in below
                    for b2 in itertools.product(*(range(x + 1) for x in g)))}
                got1, got2 = np.zeros_like(leg1), np.zeros_like(leg2)
                for _, c1, v1, c2, v2 in rows[:, rows[0] == t].T.tolist():
                    gamma, g3 = columns[c2], columns[c1]
                    r = row.pop((gamma, tuple(
                        g - h for g, h in zip(gamma, g3))))
                    got1[r, col[g3]], got2[r, col[gamma]] = v1, v2
                assert not row, (alpha, n)
                assert (got1 == leg1).all() and (got2 == leg2).all(), alpha
                assert [lam[t, columns.index(g)] for g in below] \
                    == want_lam.tolist(), alpha
                assert lam[t].sum() == want_lam.sum(), alpha

    @pytest.mark.parametrize("p", [2, 3, 5])
    @pytest.mark.parametrize("name", ABELIAN_CATALOG)
    def test_batched_blocks_match_dense_reference_on_catalog(self, name, p):
        ring = abelian_ring(catalog_group(name), p).ring
        for n in (1, 2, 3, 4):
            self.check_type_blocks(ring, n, 6, p)

    @pytest.mark.parametrize("k, p, n, D", TYPE_GRID)
    def test_batched_blocks_match_dense_reference_on_grid(self, k, p, n, D):
        self.check_type_blocks(elem_abelian_ring(k, p), n, D, p)

    @pytest.mark.parametrize("spec, p", [
        *((name, p) for name in ABELIAN_CATALOG for p in (2, 3, 5)),
        ([2, 2, 2, 2], 2), ([3, 3, 3], 3)], ids=str)
    def test_invertible_restriction_gives_full_ranks(self, spec, p):
        # the per-degree ranks that `res_top_invertible` stands in for:
        # res_{G->T} is bijective in each degree, and lambda_T, whose j = 0
        # block it is, has rank dim CH_G^d at each level
        group = catalog_group(spec) if isinstance(spec, str) else G(spec)
        assert loc._AbelianSetup(group, p).res_top_invertible
        ref = top_reference(group, p)
        ring_G = ref.data_G.ring
        for d in range(9):
            dim = ring_G.dim(d)
            res = restriction_from_G(ref, ref.top).matrix(d)
            assert res.shape == (dim, dim) and fl.rank(res, p) == dim, d
            for n in (1, 2, 3):
                lam = lambda_block(ref, ref.top, d, n)
                assert fl.rank(lam, p) == dim, (d, n)

    def test_monotone_injectivity(self):
        for spec, p in [([2, 2], 2), ([4, 2], 2), ([3, 3], 3)]:
            prev = None
            for n in (1, 2, 3):
                inj = all_injective(build_lambda(G(spec), n, 5, p))
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
        ref = setup_reference(G(spec), p)
        res = [restriction_from_G(ref, i) for i in range(ref.top + 1)]
        for (i, j), rmap in inclusion_maps(ref).items():
            for d in range(5):
                via_j = fl.matmul(rmap.matrix(d), res[j].matrix(d), p)
                assert (via_j == res[i].matrix(d)).all(), (i, j, d)

    def test_maps_need_no_polynomial_products(self, monkeypatch):
        # every restriction matrix, from G and along each inclusion, is a
        # symmetric power of its substitution matrix, with no dict
        # polynomial multiplied out
        def refuse(*args):
            raise AssertionError("poly_mul_raw called")

        monkeypatch.setattr(chow, "poly_mul_raw", refuse)
        ref = setup_reference(G([3, 3, 3]), 3)
        maps = inclusion_maps(ref)
        rings = [object_ring(ref, i) for i in range(ref.top + 1)]
        for d in range(7):
            for i, ring in enumerate(rings):
                assert restriction_from_G(ref, i).matrix(d).shape == (
                    ring.dim(d), ref.data_G.ring.dim(d))
            for (i, j), rmap in maps.items():
                assert rmap.matrix(d).shape == (rings[i].dim(d),
                                                rings[j].dim(d))

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
        # the reference's searches find no kernel and every limit vector
        # in the image at p^0, which f_iso_check certifies without them
        cert = f_iso_check(group, D, p)
        limit_dims, kernel_report, image_report = f_iso_reference(
            setup_reference(group, p), D)
        assert cert.limit_dims == limit_dims
        assert kernel_report == []
        assert same_reports([(d, vec, 0) for d, vec in cert.image_report],
                            image_report)

    @pytest.mark.parametrize("spec, p", [([2, 2, 2], 2), ([9, 3], 3),
                                         ([4, 2], 2), ([3], 2), ([1], 2)])
    def test_top_is_terminal(self, spec, p):
        # T contains every object, every object has exactly one morphism
        # into T, and T's own map is the identity
        ref = setup_reference(G(spec), p)
        top = set(ref.objects[ref.top])
        assert all(top.issuperset(obj) for obj in ref.objects)
        into_top = [i for i, j in ref.morphisms if j == ref.top]
        assert into_top == list(range(len(ref.objects)))
        own = inclusion_maps(ref)[ref.top, ref.top]
        for d in range(7):
            mat = own.matrix(d)
            assert (mat == fl.identity(mat.shape[0])).all(), d

    def test_restrictions_batched_per_rank_class(self, monkeypatch):
        # f_iso_check builds no RingMap of its own: res_{T->E} for every
        # object comes from one batched symmetric power per rank class,
        # whose stack holds exactly that class's objects in order, and no
        # morphism other than those into T is checked
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
        assert [target.k for _, target, _ in batches] == [0, 1, 2, 3]
        want = iter(setup_reference(G([2, 2, 2]), 2).res_T)
        for source, target, mats in batches:
            assert source is setup.data_G.ring
            assert target is elem_abelian_ring(target.k, 2)
            for mat in mats:
                assert (mat == next(want)).all()
        assert next(want, None) is None
        assert "functorial" not in vars(setup)

    @pytest.mark.parametrize("p", [2, 3])
    def test_singular_restriction_is_refused(self, monkeypatch, capsys,
                                             tmp_path, p):
        # res_{G->T} sending y1 and y2 both to z1, composed into every
        # res_{G->E}: the reference finds kernel rows, and every entry
        # point that reads injectivity or the F-isomorphism off the
        # invertible restriction refuses the setup instead
        group = G([p, p])
        singular = np.array([[1, 0], [1, 0]])
        setup = loc._AbelianSetup(group, p)
        setup.res_T = singular
        monkeypatch.setattr(loc, "_AbelianSetup", lambda *args: setup)
        ref = setup_reference(group, p)
        ref.res_G = [singular @ res % p for res in ref.res_T]
        assert f_iso_reference(ref, 6)[1]
        message = (f"{group.name}: restriction to T, the subgroup of "
                   f"elements of order dividing {p}, is not invertible on "
                   "degree-1 classes")
        for run in (lambda: f_iso_check(group, 6, p),
                    lambda: build_lambda(group, 2, 6, p)):
            with pytest.raises(ValueError) as exc:
                run()
            assert str(exc.value) == message
        path = tmp_path / "group.json"
        path.write_text('{"abelian": [%d, %d]}' % (p, p))
        for command in ("quillen-check", "localize", "d0"):
            assert main([command, "--group", str(path), "--prime", str(p),
                         "--cutoff", "6"]) == 2, command
            assert capsys.readouterr() == ("", f"error: {message}\n")

    @pytest.mark.parametrize("p", [2, 3])
    def test_elementary_abelian(self, p):
        for k in (1, 2):
            cert = f_iso_check(G([p] * k), 6, p)
            ring = elem_abelian_ring(k, p)
            assert cert.limit_dims == {d: ring.dim(d) for d in range(7)}
            assert [d for d, _ in cert.image_report] == [
                d for d in range(7) for _ in range(ring.dim(d))]

    @pytest.mark.parametrize("p", [2, 3])
    def test_cyclic_square(self, p):
        cert = f_iso_check(G([p * p]), 6, p)
        assert cert.limit_dims == {d: 1 for d in range(7)}

    def test_trivial_group_identity(self):
        cert = f_iso_check(G([1]), 4, 2)
        assert cert.limit_dims == {0: 1, 1: 0, 2: 0, 3: 0, 4: 0}
        assert [(d, vec.tolist()) for d, vec in cert.image_report] == [(0, [1])]

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
        assert level_sweep(G(spec), 5, p, all_iso)[0] \
            == (0, "verified-through-cutoff")


@pytest.fixture
def setup_calls(monkeypatch):
    """Arguments of every localization setup built."""
    calls = []
    real = loc._AbelianSetup.__init__

    def counting(setup, *args):
        calls.append(args)
        real(setup, *args)

    monkeypatch.setattr(loc._AbelianSetup, "__init__", counting)
    return calls


class TestLevelSweep:
    """d0, d1 and the nilpotent level read off one setup's checks, against
    the level sweep of `conftest.level_sweep`, with faults injected into
    the checks they read."""

    @pytest.mark.parametrize("name,p", [
        *((name, p) for name in ABELIAN_CATALOG for p in (2, 3, 5)),
        ("z2^4", 2), ("z3^3", 3)])
    def test_matches_level_sweep(self, name, p):
        group = (G([p] * (4 if p == 2 else 3), name) if "^" in name
                 else catalog_group(name))
        for D in range(9):
            assert d0_estimate(group, D, p) == level_sweep(
                group, D, p, all_injective)[0]
            for n in range(1, 5):
                assert bounds_report(group, n, D, p) == \
                    bounds_report_reference(group, n, D, p), (D, n)

    def test_d0_below_d1_in_one_pass(self, monkeypatch, setup_calls):
        # with every morphism breaking functoriality, d0 stays at 0 and
        # d1 gives up, from one setup and with no diagram built
        def refuse(*args):
            raise AssertionError("no diagram is built")

        monkeypatch.setattr(loc._AbelianSetup, "functorial", False)
        monkeypatch.setattr(loc, "_build_lambda", refuse)
        rep = bounds_report(G([2, 2]), 3, 5, 2)
        assert (rep["d0"], rep["d0_verdict"]) == (0, "verified-through-cutoff")
        assert (rep["d1"], rep["d1_verdict"]) == (7, "unresolved")
        assert len(setup_calls) == 1

    def test_each_estimate_stops_at_its_level(self, monkeypatch):
        # d0 reads res_top_invertible alone; the bound report reads it,
        # `functorial` and the Frobenius, each once
        read = []
        for name in ("res_top_invertible", "functorial"):
            real = getattr(loc._AbelianSetup, name).func

            def recording(setup, name=name, real=real):
                read.append(name)
                return real(setup)

            monkeypatch.setattr(loc._AbelianSetup, name,
                                property(recording))
        real_frobenius = loc._AbelianSetup.frobenius_injective

        def frobenius(setup, D):
            read.append("frobenius_injective")
            return real_frobenius(setup, D)

        monkeypatch.setattr(loc._AbelianSetup, "frobenius_injective",
                            frobenius)
        assert d0_estimate(G([2, 2]), 5, 2) == (0, "verified-through-cutoff")
        assert read == ["res_top_invertible"]
        read.clear()
        assert not bounds_report(G([2, 2]), 2, 5, 2)["violations"]
        assert read == ["res_top_invertible", "functorial",
                        "frobenius_injective"]

    def test_unresolved_at_the_cap(self, monkeypatch, capsys, data_dir):
        # `functorial` patched to fail: the legs agree at no level, so
        # the sweep gives up at level D + 2, and so does the report; the
        # CLI prints the same lines and exits the same with either
        monkeypatch.setattr(loc._AbelianSetup, "functorial", False)
        path = str(data_dir / "groups" / "klein.json")
        for D in (1, 3, 8):
            rep = bounds_report(G([2, 2]), 2, D, 2)
            assert (rep["d1"], rep["d1_verdict"]) == (D + 2, "unresolved")
            assert rep == bounds_report_reference(G([2, 2]), 2, D, 2)
            argv = ["d0", "--group", path, "--cutoff", str(D),
                    "--faithful-degree", "2"]
            with monkeypatch.context() as patch:
                patch.setattr(cli, "bounds_report", bounds_report_reference)
                code = main(argv)
                printed = capsys.readouterr()
            assert (code, printed.err) == (
                2, f"VIOLATION: d1 = {D + 2} exceeds n(n-1) = 2\n")
            assert (main(argv), capsys.readouterr()) == (code, printed)

    def test_frobenius_collision_is_refused(self, monkeypatch, capsys,
                                            data_dir):
        # every monomial sent to the first row: two degree-1 classes of
        # the Klein group collide under the Frobenius
        monkeypatch.setattr(
            chow.ChowRing, "positions",
            lambda ring, rows, d: np.zeros(len(rows), dtype=np.int64))
        path = str(data_dir / "groups" / "klein.json")
        assert main(["d0", "--group", path, "--cutoff", "4",
                     "--faithful-degree", "2"]) == 2
        assert capsys.readouterr() == (
            "", "error: (Z/2)^2: the Frobenius y^E -> y^(pE) is not injective "
                "on degree-1 classes\n")

    def test_localize_and_d0_enumerate_no_subgroup(self, monkeypatch,
                                                   capsys, data_dir):
        # the counts come from Gaussian binomials and every check reads T
        # alone: only quillen-check enumerates the lattice
        def refuse(*args):
            raise AssertionError("no subgroup is enumerated")

        monkeypatch.setattr(gp, "elementary_abelians", refuse)
        path = str(data_dir / "groups" / "z2cube.json")
        for argv in (["localize", "--level", "3"], ["d0"],
                     ["d0", "--faithful-degree", "3"]):
            assert main([*argv, "--group", path, "--cutoff", "6"]) == 0, argv
        capsys.readouterr()
        with pytest.raises(AssertionError, match="no subgroup"):
            main(["quillen-check", "--group", path, "--cutoff", "2"])

    def test_one_setup_per_run(self, setup_calls, capsys, data_dir):
        bounds_report(G([2, 2]), 2, 4, 2)
        assert len(setup_calls) == 1
        setup_calls.clear()
        path = str(data_dir / "groups" / "klein.json")
        assert main(["d0", "--group", path, "--cutoff", "4",
                     "--faithful-degree", "2"]) == 0
        assert len(setup_calls) == 1


class TestMaxNil:
    def test_bounds_report_builds_no_ring_module(self, monkeypatch):
        def refuse(*args):
            raise AssertionError("no ring module is built")

        for module in (loc, chow):
            monkeypatch.setattr(module, "ring_module", refuse)
        assert not bounds_report(G([2, 2]), 2, 5, 2)["violations"]

    def test_bounds_report_fills_only_what_it_reads(self, monkeypatch):
        # d0 through 12 on (Z/2)^3 reads the Frobenius off the closed
        # form: no action matrix is filled
        filled = []
        real = chow._action_matrix

        def recording(ring, a, d):
            filled.append((a, d))
            return real(ring, a, d)

        monkeypatch.setattr(chow, "_action_matrix", recording)
        assert not bounds_report(G([2, 2, 2]), 3, 12, 2)["violations"]
        assert filled == []

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
