import json

import numpy as np
import pytest

from chowops import fp_linalg as fl
from chowops.modules import (FPModule, FiniteModule, brown_gitler,
                             compile_presentation, fp_dim, free_module_basis,
                             hom_space, nilpotence_degree, tensor_finite)

from conftest import (finite_to_presentation, fp_test_modules,
                      free_presentation, hom_finite_reference,
                      mixed_test_modules, point_module, point_presentation,
                      suspend, suspension_presentation, truncate)


class TestFreeBases:
    def test_identity_at_generator_degree(self):
        for p in (2, 3, 5):
            assert free_module_basis(3, 3, p) == [()]

    def test_rank_one_pattern_p2(self):
        # the free module on a degree-1 class is one-dimensional exactly in
        # degrees 2^k (it embeds in F_2[y] as the span of y, y^2, y^4, ...)
        dims = [len(free_module_basis(1, d, 2)) for d in range(17)]
        assert [d for d, n in enumerate(dims) if n] == [1, 2, 4, 8, 16]

    def test_excess_bound_filters(self):
        # degree-1 admissibles have excess 1, so they die on a degree-0 class
        assert free_module_basis(0, 1, 2) == []
        assert free_module_basis(1, 2, 2) == [(1,)]

    def test_below_generator_degree_empty(self):
        assert free_module_basis(4, 2, 3) == []


class TestBrownGitler:
    def test_degree_zero_und_one(self):
        for p in (2, 3):
            j0 = brown_gitler(0, 8, p)
            assert j0.dims == {0: 1}
            j1 = brown_gitler(1, 8, p)
            assert j1.dims == {1: 1}

    def test_duality_dims(self):
        for p in (2, 3):
            for k in range(7):
                j = brown_gitler(k, 12, p)
                for i in range(k + 1):
                    assert j.dim(i) == len(free_module_basis(i, k, p))

    def test_support_bounded_by_k(self):
        j = brown_gitler(5, 20, 2)
        assert j.is_complete and max(j.support) <= 5

    def test_validates(self):
        # instability + Adem consistency run in the constructor
        for p in (2, 3):
            brown_gitler(6, 12, p)

    @pytest.mark.parametrize("p", [2, 3])
    def test_shared_per_top_degree(self, p):
        # the module depends on D only through min(k, D)
        assert brown_gitler(3, 10, p) is brown_gitler(3, 3, p)
        assert brown_gitler(3, 3, p).is_complete
        short = brown_gitler(3, 2, p)
        assert short is not brown_gitler(3, 3, p)
        assert short.truncated_above == 2 and max(short.support) <= 2


class TestRepresentability:
    @pytest.mark.parametrize("p", [2, 3])
    def test_free_modules(self, p):
        for d in range(5):
            m = free_presentation(d, p)
            for k in range(7):
                j = brown_gitler(k, 12, p)
                assert hom_space(m, j).dim == len(free_module_basis(d, k, p))

    @pytest.mark.parametrize("p", [2, 3])
    def test_point_modules_delta(self, p):
        for d in range(5):
            m = point_presentation(d, p)
            for k in range(7):
                j = brown_gitler(k, 12, p)
                assert hom_space(m, j).dim == (1 if k == d else 0)

    @pytest.mark.parametrize("p", [2, 3])
    def test_fixed_test_modules_vs_rank_count(self, p):
        for m in fp_test_modules(p):
            for k in range(7):
                j = brown_gitler(k, 14, p)
                assert hom_space(m, j).dim == fp_dim(m, k), (m.name, k)


class TestHom:
    def test_free_source_dimension(self):
        for p in (2, 3):
            n = brown_gitler(4, 12, p)
            for d in range(5):
                m = free_presentation(d, p)
                assert hom_space(m, n).dim == n.dim(d)

    def test_relation_obstruction(self):
        # generator in degree 1 with P^1 g = 0 cannot map to the line's y
        from chowops.chow import elem_abelian_ring
        p = 2
        m = FPModule(p, [("g", 1)], [[(1, (1,), 0)]])
        target = truncate(elem_abelian_ring(1, p), 4)
        assert hom_space(m, target).dim == 0

    def test_finite_source_route_matches_fp_route(self):
        for p in (2, 3):
            for m in fp_test_modules(p):
                finite = compile_presentation(m, m.support_bound)
                complete = FiniteModule(p, finite.dims, finite.mats,
                                        truncated_above=None, validate=False)
                n = brown_gitler(4, 4 * p * 3, p)
                assert hom_finite_reference(complete, n) == \
                    hom_space(m, n).dim


class TestCompile:
    def test_free_dims_match_enumeration(self):
        for p in (2, 3):
            m = compile_presentation(free_presentation(2, p), 12)
            for d in range(13):
                assert m.dim(d) == len(free_module_basis(2, d, p))

    def test_fp_dim_alias(self):
        for p in (2, 3):
            assert fp_dim(point_presentation(3, p), 3) == 1
            assert fp_dim(point_presentation(3, p), 3 + p - 1) == 0

    def test_marked_truncated(self):
        m = compile_presentation(free_presentation(1, 2), 6)
        assert m.truncated_above == 6

    def test_compiled_action_is_adem_consistent(self):
        for p in (2, 3):
            m = compile_presentation(free_presentation(1, p), 10)
            FiniteModule(p, m.dims, m.mats, truncated_above=10)  # validates

    def test_dims_match_fp_dim_on_data_and_fixtures(self, data_dir):
        modules = [FPModule.from_json(json.loads(f.read_text()), name=f.stem)
                   for f in sorted((data_dir / "modules").glob("*.json"))]
        for p in (2, 3):
            modules += fp_test_modules(p)
            modules += [m for m, _ in mixed_test_modules(p)]
        for m in modules:
            compiled = compile_presentation(m, 8)
            assert all(compiled.dim(d) == fp_dim(m, d) for d in range(9)), m
            FiniteModule(m.p, compiled.dims, compiled.mats,
                         truncated_above=8)  # validates


class TestSuspension:
    @pytest.mark.parametrize("p", [2, 3])
    @pytest.mark.parametrize("k", [1, 2, 3])
    def test_matches_shifted_compile(self, p, k):
        for base in [free_presentation(1, p), free_presentation(2, p),
                     point_presentation(2, p)]:
            top = 12
            a = compile_presentation(suspension_presentation(base, k), top)
            b = suspend(compile_presentation(base, top - k), k)
            assert {d: a.dim(d) for d in range(top + 1)} == \
                {d: b.dim(d) for d in range(top + 1)}
            for (op, d), mat in b.mats.items():
                if d + op * (p - 1) <= top:
                    assert (a.act(op, d) == mat).all(), (p, k, op, d)

    def test_support_bound_propagates(self):
        # the fixture's own bound: point(1) vanishes above 1, its
        # threefold suspension above 4
        m = point_presentation(1, 2)
        assert m.support_bound == 1
        assert suspension_presentation(m, 3).support_bound == 4


class TestTensor:
    def test_unit(self):
        for p in (2, 3):
            x = brown_gitler(3, 8, p)
            t = tensor_finite(x, point_module(0, p))
            assert t.dims == x.dims
            for key, mat in x.mats.items():
                assert (t.act(*key) == mat).all()

    def test_convolution_dims(self):
        x = brown_gitler(3, 8, 2)
        y = brown_gitler(2, 8, 2)
        t = tensor_finite(x, y)
        for d in range(9):
            assert t.dim(d) == sum(x.dim(i) * y.dim(d - i) for i in range(d + 1))

    def test_cartan_kills_cross_terms(self):
        # (F_2 in degree 1) (x) (F_2 in degree 1): P^1 = 0 on the product
        t = tensor_finite(point_module(1, 2), point_module(1, 2))
        assert t.dims == {2: 1}
        assert not t.mats

    def test_tensor_action_validates(self):
        for p in (2, 3):
            t = tensor_finite(brown_gitler(2, 8, p), brown_gitler(2, 8, p))
            FiniteModule(p, t.dims, t.mats, truncated_above=None)


class TestFiniteModuleValidation:
    def test_instability_rejected(self):
        with pytest.raises(ValueError):
            FiniteModule(2, {1: 1, 3: 1}, {(2, 1): np.array([[1]])})

    def test_adem_violation_rejected(self):
        # fake a module where P^1 P^1 != 0 at p = 2 (it must vanish)
        dims = {1: 1, 2: 1, 3: 1}
        mats = {(1, 1): np.array([[1]]), (1, 2): np.array([[1]]),
                (2, 1): np.array([[1]])}
        with pytest.raises(ValueError):
            FiniteModule(2, dims, mats)

    def test_shape_mismatch_rejected(self):
        with pytest.raises(ValueError):
            FiniteModule(2, {1: 1, 2: 2}, {(1, 1): np.array([[1]])})

    def test_canonical_matrix_kept_others_reduced(self):
        # a 2-D int64 matrix with entries in 0..p-1 is stored as given; a
        # list, another dtype or an entry out of range is coerced and reduced
        canonical = np.array([[1, 2]], dtype=np.int64)
        assert FiniteModule(3, {1: 2, 3: 1},
                            {(1, 1): canonical}).act(1, 1) is canonical
        for given in ([[1, 2]], np.array([[4, -1]]),
                      np.array([[1, 2]], dtype=np.int32)):
            kept = FiniteModule(3, {1: 2, 3: 1}, {(1, 1): given}).act(1, 1)
            assert kept is not given and kept.dtype == np.int64
            assert kept.tolist() == [[1, 2]]
        with pytest.raises(ValueError, match="2-D"):
            FiniteModule(3, {1: 2, 3: 1}, {(1, 1): np.ones((1, 1, 2))})


def orbit_dies(m, j, e):
    """Whether all of degree e iterates to zero under x -> P^{deg x - j} x
    before a step leaves the window, pushing the whole space up."""
    deg, space = e, fl.identity(m.dim(e))
    while space.any():
        nxt = deg + (deg - j) * (m.p - 1)
        if nxt > m.horizon():
            return False
        space = fl.matmul(m.act(deg - j, deg), space, m.p)
        deg = nxt
    return True


class TestNilpotence:
    @pytest.mark.parametrize("p", [2, 3])
    def test_lowering_memo_matches_orbit_reference(self, p):
        from chowops.chow import elem_abelian_ring, ring_module
        mods = [compile_presentation(fp, D) for fp in fp_test_modules(p)
                for D in (4, 9)]
        mods += [ring_module(elem_abelian_ring(2, p), 10),
                 brown_gitler(3, 10, p)]
        for m in mods:
            for j in range(6):
                for e in [e for e in m.support if e > j]:
                    ok = m.dies(j, e)
                    assert (ok.shape[1] == m.dim(e)) == orbit_dies(m, j, e)
                    # every certified vector does die inside the window
                    deg, space = e, ok
                    while space.any():
                        space = fl.matmul(m.act(deg - j, deg), space, p)
                        deg += (deg - j) * (p - 1)
                    assert deg <= m.horizon()

    def test_points(self):
        for p in (2, 3):
            for d in range(6):
                assert nilpotence_degree(point_presentation(d, p), 8) == \
                    (d, "exact")

    def test_truncated_polynomial_line(self):
        from chowops.chow import elem_abelian_ring
        for p in (2, 3):
            t = truncate(elem_abelian_ring(1, p), 6)
            assert nilpotence_degree(t, 8) == (0, "exact")

    def test_suspension_raises_degree(self):
        # a d-fold shift of a complete module is at least d-nilpotent
        for p in (2, 3):
            base = brown_gitler(2, 8, p)
            low = min(base.support)
            for d in (1, 2):
                n, verdict = nilpotence_degree(suspend(base, d), 8)
                assert n == low + d and verdict == "exact"

    def test_zero_module_reports_cutoff(self):
        z = FiniteModule(2, {}, {})
        assert nilpotence_degree(z, 5) == (5, "at-least")

    def test_unresolved_when_window_too_small(self):
        # the compiled free module on a degree-1 class keeps climbing: the
        # level-0 orbit of the generator leaves any finite window nonzero,
        # so the scan stops at 0 without an exactness certificate
        m = compile_presentation(free_presentation(1, 2), 4)
        n, verdict = nilpotence_degree(m, 4)
        assert (n, verdict) == (0, "at-least")


class TestPresentationSchema:
    def test_roundtrip(self):
        blob = {"prime": 3, "name": "point(2)",
                "generators": [{"name": "g", "degree": 2}],
                "relations": [[{"coeff": 1, "op": "P^1", "gen": "g"}],
                              [{"coeff": 1, "op": "P^2", "gen": "g"}]]}
        m = point_presentation(2, 3)
        parsed = FPModule.from_json(blob)
        assert parsed.generators == m.generators
        assert parsed.relations == m.relations

    def test_field_paths_in_errors(self):
        blob = {"prime": 2,
                "generators": [{"name": "g", "degree": 1}],
                "relations": [[{"coeff": 1, "op": "P^1", "gen": "h"}]]}
        with pytest.raises(ValueError, match=r"relations\[0\]\[0\]"):
            FPModule.from_json(blob)

    def test_unknown_field_rejected(self):
        with pytest.raises(ValueError, match="unknown"):
            FPModule.from_json({"prime": 2, "generators": [], "extra": 1})

    @pytest.mark.parametrize("degree, coeff, field", [
        (2.9, 1, r"generators\[0\]\.degree"),
        (True, 1, r"generators\[0\]\.degree"),
        (2, 1.5, r"relations\[0\]\[0\]\.coeff"),
        (2, True, r"relations\[0\]\[0\]\.coeff"),
    ])
    def test_non_integers_refused(self, degree, coeff, field):
        blob = {"prime": 2,
                "generators": [{"name": "g", "degree": degree}],
                "relations": [[{"coeff": coeff, "op": "P^1", "gen": "g"}]]}
        with pytest.raises(ValueError, match=field):
            FPModule.from_json(blob)

    def test_inhomogeneous_relation_rejected(self):
        with pytest.raises(ValueError, match="homogeneous"):
            FPModule(2, [("a", 1), ("b", 3)],
                     [[(1, (1,), 0), (1, (), 1)]])


def test_finite_to_presentation_roundtrip():
    for p in (2, 3):
        x = brown_gitler(3, 8, p)
        m = finite_to_presentation(x)
        back = compile_presentation(m, max(x.support))
        assert {d: back.dim(d) for d in x.support} == dict(x.dims)
        for (a, d), mat in x.mats.items():
            assert (back.act(a, d) == mat).all()
