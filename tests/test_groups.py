import itertools

import pytest

from chowops.groups import (FiniteGroup, abelian_coordinates, abelian_p_basis,
                            all_elementary_abelians, centralizer,
                            elementary_abelians, load_group, rep_classes)


def s3():
    return FiniteGroup.from_permutations([(1, 0, 2), (1, 2, 0)], 3, name="S3")


class TestConstruction:
    def test_abelian(self):
        k = FiniteGroup.from_abelian([2, 2])
        assert len(k) == 4 and k.is_abelian
        assert all(k.mul(x, x) == 0 for x in k.elements())

    def test_permutations(self):
        g = s3()
        assert len(g) == 6 and not g.is_abelian

    def test_bad_table(self):
        with pytest.raises(ValueError):
            FiniteGroup([[0, 1], [1, 1]])
        # associativity failure with valid rows/columns: a quasigroup
        t = [[0, 1, 2, 3, 4],
             [1, 0, 3, 4, 2],
             [2, 4, 0, 1, 3],
             [3, 2, 4, 0, 1],
             [4, 3, 1, 2, 0]]
        with pytest.raises(ValueError, match="assoc|inverse"):
            FiniteGroup(t)

    def test_identity_must_be_zero(self):
        with pytest.raises(ValueError, match="identity"):
            FiniteGroup([[1, 0], [0, 1]])

    def test_load_group_schemas(self, data_dir):
        import json
        for name in ("s3.json", "q8.json", "klein.json"):
            with open(data_dir / "groups" / name) as fh:
                g = load_group(json.load(fh))
            assert len(g) in (4, 6, 8)
        for path in sorted((data_dir / "groups").glob("*.json")):
            with open(path) as fh:
                load_group(json.load(fh))
        with pytest.raises(ValueError, match="unknown"):
            load_group({"abelian": [2], "color": "red"})

    def test_load_group_needs_one_shape(self):
        with pytest.raises(ValueError, match="more than one"):
            load_group({"table": [[0, 1], [1, 0]], "abelian": [3]})
        with pytest.raises(ValueError, match="more than one"):
            load_group({"degree": 2, "generators": [[1, 0]], "abelian": [2]})

    @pytest.mark.parametrize("data, field", [
        ({"abelian": [2.7]}, r"abelian\[0\]"),
        ({"abelian": [True, 2]}, r"abelian\[0\]"),
        ({"abelian": 4}, "abelian"),
        ({"order": 2.0, "table": [[0, 1], [1, 0]]}, "order"),
        ({"table": [[0, 1], [1, 0.5]]}, r"table\[1\]\[1\]"),
        ({"degree": 3.0, "generators": [[1, 0, 2]]}, "degree"),
        ({"degree": 3, "generators": [[1, 0, "2"]]},
         r"generators\[0\]\[2\]"),
        ({"abelian": [2, 2], "faithful_degree": 2.5}, "faithful_degree"),
        ({"abelian": [2, 2], "faithful_degree": True}, "faithful_degree"),
    ])
    def test_load_group_refuses_non_integers(self, data, field):
        with pytest.raises(ValueError, match=field):
            load_group(data)

    @pytest.mark.parametrize("data, field", [
        ({"abelian": [2, 2], "faithful_degree": 0}, "faithful_degree"),
        ({"abelian": [2, 2], "faithful_degree": -1}, "faithful_degree"),
        ({"abelian": [2], "order": 3}, "'order'"),
        ({"degree": 2, "generators": [[1, 0]], "order": 2}, "'order'"),
        ({"abelian": [2], "degree": 2}, "'degree'"),
        ({"table": [[0, 1], [1, 0]], "degree": 2}, "'degree'"),
    ])
    def test_load_group_refuses_meaningless_fields(self, data, field):
        with pytest.raises(ValueError, match=field):
            load_group(data)

    def test_element_orders(self):
        g = FiniteGroup.from_abelian([4])
        assert [g.element_order(x) for x in g.elements()] == [1, 4, 2, 4]


class TestSubgroups:
    def test_centralizer_of_identity(self):
        g = s3()
        assert len(centralizer(g, [0])) == 6

    def test_centralizer_of_transposition(self):
        g = s3()
        t = next(x for x in g.elements() if g.element_order(x) == 2)
        assert len(centralizer(g, [t])) == 2

    def test_centralizer_abelian_group(self):
        g = FiniteGroup.from_abelian([4, 2])
        assert len(centralizer(g, [1, 5])) == 8

    def test_centralizer_conjugation_equivariant(self):
        g = s3()
        for cls in rep_classes(1, g, 2):
            base = set(g.centralizer_elements(cls.representative))
            for h in g.elements():
                conj_tuple = tuple(g.conj(h, x) for x in cls.representative)
                conj_cent = set(g.centralizer_elements(conj_tuple))
                assert conj_cent == {g.conj(h, c) for c in base}


class TestElementaryAbelians:
    def test_klein_counts(self):
        objs, cat = elementary_abelians(FiniteGroup.from_abelian([2, 2]), 2)
        assert [o.rank for o in objs] == [0, 1, 1, 1, 2]
        assert len(all_elementary_abelians(
            FiniteGroup.from_abelian([2, 2]), 2)) == 5

    def test_s3_classes(self):
        objs, _ = elementary_abelians(s3(), 2)
        assert [o.rank for o in objs] == [0, 1]
        objs5, _ = elementary_abelians(s3(), 5)
        assert [o.rank for o in objs5] == [0]

    def test_morphisms_compose(self):
        g = FiniteGroup.from_abelian([2, 2])
        objs, cat = elementary_abelians(g, 2)
        for (i, j), ms1 in cat.morphisms.items():
            for (j2, k), ms2 in cat.morphisms.items():
                if j2 != j:
                    continue
                recorded = {images for _, images in cat.morphisms.get((i, k), [])}
                for h1, _ in ms1:
                    for h2, _ in ms2:
                        # the induced map of c_{h2} o c_{h1}: E_i -> E_k
                        h = g.mul(h2, h1)
                        assert tuple(g.conj(h, e)
                                     for e in objs[i].elements) in recorded

    def test_nonabelian_morphisms_dedup(self):
        objs, cat = elementary_abelians(s3(), 2)
        # three conjugate injections of the order-2 class into itself would
        # appear without dedup; the identity map survives once
        self_maps = cat.morphisms[(1, 1)]
        assert len(self_maps) == len({im for _, im in self_maps})


class TestRepClasses:
    def test_cyclic_p(self):
        for p in (2, 3, 5):
            g = FiniteGroup.from_abelian([p])
            assert len(rep_classes(1, g, p)) == p

    def test_s3_examples(self):
        g = s3()
        assert len(rep_classes(1, g, 2)) == 2
        assert len(rep_classes(1, g, 3)) == 2
        assert len(rep_classes(1, g, 5)) == 1

    def test_orbit_sizes_sum(self):
        g = s3()
        for p, r in [(2, 1), (2, 2), (3, 1), (3, 2)]:
            classes = rep_classes(r, g, p)
            torsion = g.p_torsion(p)
            total = 0
            for t in itertools.product(torsion, repeat=r):
                if all(g.mul(a, b) == g.mul(b, a)
                       for a, b in itertools.combinations(t, 2)):
                    total += 1
            assert sum(c.orbit_size for c in classes) == total

    def test_abelian_counts_are_hom_counts(self):
        # conjugation is trivial, so classes = homomorphisms = p-torsion^r
        for spec, p in [([4, 2], 2), ([9], 3), ([3, 3], 3)]:
            g = FiniteGroup.from_abelian(spec)
            t = len(g.p_torsion(p))
            for r in (1, 2):
                assert len(rep_classes(r, g, p)) == t ** r

    def test_representative_is_minimal(self):
        for cls in rep_classes(2, s3(), 2):
            g = s3()
            orbit = {tuple(g.conj(h, x) for x in cls.representative)
                     for h in g.elements()}
            assert cls.representative == min(orbit)

    def test_rank_cap(self):
        with pytest.raises(ValueError):
            rep_classes(4, s3(), 2)


class TestAbelianStructure:
    def test_basis_orders(self):
        g = FiniteGroup.from_abelian([4, 2])
        assert [o for _, o in abelian_p_basis(g, 2)] == [4, 2]
        g = FiniteGroup.from_abelian([6])
        assert [o for _, o in abelian_p_basis(g, 2)] == [2]
        assert [o for _, o in abelian_p_basis(g, 3)] == [3]

    def test_coordinates(self):
        g = FiniteGroup.from_abelian([4, 2])
        basis = abelian_p_basis(g, 2)
        for x in g.elements():
            coords = abelian_coordinates(g, basis, x)
            y = 0
            for (b, _), c in zip(basis, coords):
                y = g.mul(y, g.power(b, c))
            assert y == x

    def test_nonabelian_rejected(self):
        with pytest.raises(ValueError):
            abelian_p_basis(s3(), 2)
