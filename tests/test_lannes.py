import itertools

import pytest

from chowops import lannes
from chowops.chow import elem_abelian_ring
from chowops.groups import FiniteGroup
from chowops.lannes import (ell_check, tensor_convolution_check, tv_dim,
                            tv_structural, tv_table, tv_target)
from chowops.modules import (brown_gitler, compile_presentation,
                             finite_to_presentation, free_module_basis,
                             free_presentation, point_presentation,
                             suspension_presentation)

from conftest import fp_test_modules, mixed_test_modules


class TestTvDim:
    @pytest.mark.parametrize("p", [2, 3])
    def test_point_delta_for_every_rank(self, p):
        for d in range(4):
            m = point_presentation(d, p)
            for r in (0, 1, 2):
                assert tv_table(m, r, 5) == {k: int(k == d) for k in range(6)}

    def test_free_degree_one_at_zero(self):
        # spec: dim of the degree-0 part for free(1), r = 1 equals the
        # degree-1 dimension of the rank-1 ring
        m = free_presentation(1, 2)
        assert tv_dim(m, 1, 0) == 1

    @pytest.mark.parametrize("p", [2, 3])
    def test_free_general_formula(self, p):
        # Hom out of a free module is the target's degree part:
        # dim (T F(n))^k = dim (CH_V (x) J(k))^n
        for n in range(3):
            m = free_presentation(n, p)
            for r in (1, 2):
                for k in range(5):
                    target = tv_target(r, k, p, max(n, 1))
                    assert tv_dim(m, r, k) == target.dim(n)

    def test_zero_module(self):
        z = point_presentation(0, 2)
        # not zero; build an actually-zero module: one generator killed by itself
        from chowops.modules import FPModule
        zero = FPModule(2, [("g", 1)], [[(1, (), 0)]])
        assert all(tv_dim(zero, r, k) == 0
                   for r in (0, 1) for k in range(4))

    @pytest.mark.parametrize("p", [2, 3])
    def test_bounded_above_identity(self, p):
        # bounded modules are fixed by T: the table equals the dims
        for m in fp_test_modules(p):
            compiled = compile_presentation(m, m.support_bound)
            for r in (1, 2):
                table = tv_table(m, r, 6)
                assert table == {k: compiled.dim(k) for k in range(7)}, m.name


class TestStructural:
    @pytest.mark.parametrize("p", [2, 3])
    def test_cyclic_p(self, p):
        tv = tv_structural(FiniteGroup.from_abelian([p]), 1, p)
        assert len(tv.components) == p
        assert all(tv.dim(k) == p for k in range(9))

    @pytest.mark.parametrize("p", [2, 3])
    def test_rank_two(self, p):
        tv = tv_structural(FiniteGroup.from_abelian([p, p]), 1, p)
        assert len(tv.components) == p * p
        for k in range(5):
            assert tv.dim(k) == p * p * (k + 1)

    def test_trivial_group(self):
        tv = tv_structural(FiniteGroup.from_abelian([1]), 1, 2)
        assert len(tv.components) == 1
        assert [tv.dim(k) for k in range(4)] == [1, 0, 0, 0]

    @pytest.mark.parametrize("p", [2, 3])
    def test_iterativity(self, p):
        g = FiniteGroup.from_abelian([p])
        once = tv_structural(g, 1, p)
        twice = tv_structural(g, 2, p)
        assert all(twice.dim(k) == p * once.dim(k) for k in range(7))

    def test_one_catalog_ring_per_centralizer(self, monkeypatch):
        # every class of an abelian group has G as centralizer
        calls = []
        real = lannes.abelian_ring
        monkeypatch.setattr(lannes, "abelian_ring",
                            lambda *a: calls.append(a) or real(*a))
        G = FiniteGroup.from_abelian([3, 3])
        tv = tv_structural(G, 2, 3)
        assert len(tv.components) == 81
        assert [a[2] for a in calls] == [tuple(G.elements())]

    def test_product_formula_consistency(self):
        g = FiniteGroup.from_abelian([2, 2])
        tv = tv_structural(g, 1, 2)
        for k in range(5):
            assert tv.dim(k) == sum(r.dim(k) for _, r in tv.components)

    def test_nonabelian_centralizer_reported(self):
        s3 = FiniteGroup.from_permutations([(1, 0, 2), (1, 2, 0)], 3)
        with pytest.raises(ValueError, match="centralizer"):
            tv_structural(s3, 1, 2)

    def test_s3_nontrivial_class_centralizers_are_abelian(self):
        # the machinery itself works for the nontrivial classes of S3
        from chowops import groups as gp
        s3 = FiniteGroup.from_permutations([(1, 0, 2), (1, 2, 0)], 3)
        for cls in gp.rep_classes(1, s3, 2):
            if cls.representative != (0,):
                assert s3.is_abelian_on(
                    s3.centralizer_elements(cls.representative))


class TestEllCheck:
    @pytest.mark.parametrize("p", [2, 3])
    def test_cyclic(self, p):
        rep = ell_check(FiniteGroup.from_abelian([p]), 1, 4, p)
        assert all(r["injective"] and r["dimension_match"] for r in rep)

    def test_trivial_is_identity(self):
        rep = ell_check(FiniteGroup.from_abelian([1]), 1, 3, 2)
        assert rep[0]["rank"] == 1 and rep[0]["injective"]

    def test_klein_dims(self):
        rep = ell_check(FiniteGroup.from_abelian([2, 2]), 1, 3, 2)
        for r in rep:
            assert r["tv_dim"] == 4 * (r["degree"] + 1)
            assert r["injective"]

    def test_nonabelian_rejected(self):
        s3 = FiniteGroup.from_permutations([(1, 0, 2), (1, 2, 0)], 3)
        with pytest.raises(ValueError):
            ell_check(s3, 1, 3, 2)


class TestTensorTheorem:
    @pytest.mark.parametrize("p", [2, 3])
    def test_points(self, p):
        a = point_presentation(1, p)
        ok, detail = tensor_convolution_check(a, a, 1, 4, verbose=True)
        assert ok and detail["tensor"] == {k: int(k == 2) for k in range(5)}

    @pytest.mark.parametrize("p", [2, 3])
    def test_unit_factor(self, p):
        b = finite_to_presentation(brown_gitler(3, 10, p))
        u = point_presentation(0, p)
        ok, detail = tensor_convolution_check(b, u, 1, 5, verbose=True)
        assert ok
        assert detail["tensor"] == tv_table(b, 1, 5)

    @pytest.mark.parametrize("p", [2, 3])
    def test_free_times_point(self, p):
        f = free_presentation(1, p)
        a = point_presentation(1, p)
        ok, detail = tensor_convolution_check(f, a, 1, 4, verbose=True)
        assert ok, detail

    def test_each_bounded_factor_compiled_once(self, monkeypatch):
        compiled = []
        real = lannes.compile_presentation

        def counting(m, D):
            compiled.append(m)
            return real(m, D)

        monkeypatch.setattr(lannes, "compile_presentation", counting)
        a = point_presentation(1, 2)
        b = finite_to_presentation(brown_gitler(2, 6, 2))
        assert tensor_convolution_check(a, b, 1, 4)
        assert compiled == [a, b]

    def test_unbounded_pair_rejected(self):
        f = free_presentation(1, 2)
        with pytest.raises(ValueError, match="bounded"):
            tensor_convolution_check(f, f, 1, 3)


class TestNilpotenceBridge:
    @pytest.mark.parametrize("p", [2, 3])
    def test_points(self, p):
        from chowops.modules import nilpotence_degree
        for d in range(4):
            m = point_presentation(d, p)
            n, verdict = nilpotence_degree(m, 8)
            first = min(k for k in range(9)
                        if any(tv_dim(m, r, k) for r in (0, 1, 2)))
            assert verdict == "exact" and n == first == d

    @pytest.mark.parametrize("p", [2, 3])
    def test_mixed(self, p):
        from chowops.modules import nilpotence_degree
        for m, expected in mixed_test_modules(p):
            n, verdict = nilpotence_degree(m, 8)
            first = min(k for k in range(9)
                        if any(tv_dim(m, r, k) for r in (0, 1, 2)))
            assert verdict == "exact" and n == first == expected, m.name
