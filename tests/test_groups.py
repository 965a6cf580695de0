import itertools
import json

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from chowops.cli import main
from chowops import groups as gp
from chowops.groups import (FiniteGroup, abelian_coordinates, abelian_p_basis,
                            elementary_abelians, lattice_size, load_group,
                            rep_classes)
from conftest import (ABELIAN_CATALOG, CATALOG, abelian_p_basis_reference,
                      abelian_table, all_elementary_abelians, catalog_group,
                      centralizer_reference, closure_reference, conj,
                      conjugates, conjugation_category, coordinates_reference,
                      element_order_reference, elementary_abelians_reference,
                      lattice_objects, lattice_reference, permutation_table,
                      power_reference, relabelled, relabelled_p_basis,
                      rep_classes_reference)


def s3():
    return FiniteGroup.from_permutations([(1, 0, 2), (1, 2, 0)], 3, name="S3")


def outcome(f, *args):
    """f(*args), or the message of the ValueError it raises."""
    try:
        return f(*args)
    except ValueError as exc:
        return f"ValueError: {exc}"


def check_generating_set(G):
    """G's generating set generates G, and each generator is the least
    element outside the subgroup the earlier ones generate."""
    gens = G.generating_set()
    for i, g in enumerate(gens):
        outside = set(G.elements()) - set(closure_reference(G, gens[:i]))
        assert g == min(outside)
    assert closure_reference(G, gens) == tuple(G.elements())


class TestConstruction:
    def test_abelian(self):
        k = FiniteGroup.from_abelian([2, 2])
        assert len(k) == 4 and k.is_abelian
        assert all(k.mul(x, x) == 0 for x in k.elements())

    def test_permutations(self):
        g = s3()
        assert len(g) == 6 and not g.is_abelian

    def test_is_abelian_compares_the_table_once(self, monkeypatch):
        for g, expected in ((FiniteGroup.from_abelian([2, 2]), True),
                            (s3(), False)):
            assert g.is_abelian is expected
            # without its table a second comparison would raise
            monkeypatch.setattr(g, "table", None)
            assert g.is_abelian is expected

    def test_bad_table(self):
        with pytest.raises(ValueError):
            FiniteGroup([[0, 1], [1, 1]])
        # associativity failure with valid rows/columns: a quasigroup
        t = [[0, 1, 2, 3, 4],
             [1, 0, 3, 4, 2],
             [2, 4, 0, 1, 3],
             [3, 2, 4, 0, 1],
             [4, 3, 1, 2, 0]]
        with pytest.raises(ValueError,
                           match=r"^associativity fails at \(1, 1, \.\.\.\)$"):
            FiniteGroup(t)

    @staticmethod
    def first_associativity_failure(t):
        """The first (a, b) in lexicographic order with (ab)c != a(bc) for
        some c, by a triple loop; None for an associative table."""
        n = len(t)
        for a, b in itertools.product(range(n), repeat=2):
            if any(t[t[a][b]][c] != t[a][t[b][c]] for c in range(n)):
                return a, b
        return None

    def test_light_associativity_test(self):
        # every intercalate (a 2 x 2 Latin subsquare) off row and column 0
        # swapped in each catalog table of order <= 12: the table stays a
        # Latin square with identity 0, and it is refused exactly when the
        # triple loop finds a failure, naming that loop's first (a, b)
        outcomes = set()
        for name in CATALOG:
            t = catalog_group(name).table.tolist()
            n = len(t)
            if n > 12:
                continue
            pairs = list(itertools.combinations(range(1, n), 2))
            for (r1, r2), (c1, c2) in itertools.product(pairs, repeat=2):
                x, y = t[r1][c1], t[r1][c2]
                if (t[r2][c2], t[r2][c1]) != (x, y):
                    continue
                swapped = [row[:] for row in t]
                swapped[r1][c1] = swapped[r2][c2] = y
                swapped[r1][c2] = swapped[r2][c1] = x
                want = self.first_associativity_failure(swapped)
                outcomes.add(want is None)
                if want is None:
                    FiniteGroup(swapped)
                else:
                    with pytest.raises(ValueError, match=(
                            r"^associativity fails at \(%d, %d, \.\.\.\)$"
                            % want)):
                        FiniteGroup(swapped)
        assert outcomes == {False, True}

    def test_catalog_and_s5_tables_validate(self):
        s5 = FiniteGroup.from_permutations([(1, 0, 2, 3, 4), (1, 2, 3, 4, 0)],
                                           5)
        # the constructors validate nothing, so their tables are checked
        # here: through `FiniteGroup`, as a table read from a file is
        for G in [catalog_group(name) for name in CATALOG] + [
                s5, FiniteGroup.from_abelian([2] * 9)]:
            assert FiniteGroup(G.table).n == G.n

    def test_identity_must_be_zero(self):
        with pytest.raises(ValueError, match="identity"):
            FiniteGroup([[1, 0], [0, 1]])

    @staticmethod
    def z5(*edits):
        """The table of Z/5 with (row, column, value) entries replaced."""
        t = (np.arange(5)[:, None] + np.arange(5)) % 5
        for a, b, v in edits:
            t[a, b] = v
        return t

    @pytest.mark.parametrize("edit, message", [
        ((1, 1, 5), "table entries out of range"),
        ((0, 1, 2), "element 0 is not a two-sided identity"),
        # row 2 repeats 2, and so does column 4: row 2 fails first
        ((2, 4, 2), "row/column 2 is not a permutation"),
        # column 2 repeats 2, and so does row 4: column 2 fails first
        ((4, 2, 2), "row/column 2 is not a permutation"),
    ])
    def test_validate_names_first_failure(self, edit, message):
        with pytest.raises(ValueError, match=f"^{message}$"):
            FiniteGroup(self.z5(edit))

    @pytest.mark.parametrize("edits", [[(3, 2, 1)], [(3, 4, 0)]])
    def test_inverse_must_be_unique(self, edits):
        # a trusted table skips _validate; row 3 has no 0, then two
        with pytest.raises(ValueError,
                           match="^element 3 has no unique inverse$"):
            FiniteGroup(self.z5(*edits), _trusted=True)

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
        assert g.orders.tolist() == [1, 4, 2, 4]


class TestSubgroups:
    def test_centralizer_of_identity(self):
        g = s3()
        assert len(g.centralizer_elements([0])) == 6

    def test_centralizer_of_transposition(self):
        g = s3()
        t = next(x for x in g.elements() if g.orders[x] == 2)
        assert len(g.centralizer_elements([t])) == 2

    def test_centralizer_abelian_group(self):
        g = FiniteGroup.from_abelian([4, 2])
        assert len(g.centralizer_elements([1, 5])) == 8

    @pytest.mark.parametrize("xs", [(), (0,), (1, 2), (5, 3, 5)])
    def test_conjugates_match_conj(self, xs):
        for g in (s3(), FiniteGroup.from_abelian([4, 2])):
            assert conjugates(g, xs) == [[conj(g, h, x) for x in xs]
                                         for h in g.elements()]

    @pytest.mark.parametrize("name", ["s3", "d4", "q8", "a4", "S6"])
    def test_centralizer_matches_reference(self, name):
        g = catalog_group(name) if name != "S6" else \
            FiniteGroup.from_permutations(
                [(1, 0, 2, 3, 4, 5), (1, 2, 3, 4, 5, 0)], 6)
        subsets = [(), tuple(g.elements())]
        subsets += [(x,) for x in g.elements()] if len(g) <= 24 else []
        for p in (2, 3):
            for r in (1, 2):
                subsets += [c.representative for c in rep_classes(r, g, p)]
        for subset in subsets:
            assert g.centralizer_elements(subset) == \
                centralizer_reference(g, subset), subset

    def test_centralizer_conjugation_equivariant(self):
        g = s3()
        for cls in rep_classes(1, g, 2):
            base = set(g.centralizer_elements(cls.representative))
            for h in g.elements():
                conj_tuple = tuple(conj(g, h, x) for x in cls.representative)
                conj_cent = set(g.centralizer_elements(conj_tuple))
                assert conj_cent == {conj(g, h, c) for c in base}


class TestElementaryAbelians:
    def test_klein_counts(self):
        objs = lattice_objects(elementary_abelians(
            FiniteGroup.from_abelian([2, 2]), 2))
        assert [len(o) for o in objs] == [1, 2, 2, 2, 4]
        assert lattice_size(2, 2) == (5, 12)
        assert len(all_elementary_abelians(
            FiniteGroup.from_abelian([2, 2]), 2)) == 5

    def test_s3_classes(self):
        objs, _ = elementary_abelians_reference(s3(), 2)
        assert [o.rank for o in objs] == [0, 1]
        objs5, _ = elementary_abelians_reference(s3(), 5)
        assert [o.rank for o in objs5] == [0]

    def test_morphisms_compose(self):
        # the inclusions between the objects, which no library code
        # enumerates, are closed under composition, every object has its
        # identity, and they number as `lattice_size` says
        objs = lattice_objects(elementary_abelians(
            FiniteGroup.from_abelian([2, 2]), 2))
        pairs = {(i, j) for i, a in enumerate(objs)
                 for j, b in enumerate(objs) if set(a) <= set(b)}
        assert all((i, i) in pairs for i in range(len(objs)))
        for i, j in pairs:
            for j2, k in pairs:
                if j2 == j:
                    assert (i, k) in pairs
        assert lattice_size(2, 2) == (len(objs), len(pairs))

    def test_nonabelian_morphisms_dedup(self):
        objs, cat = elementary_abelians_reference(s3(), 2)
        # three conjugate injections of the order-2 class into itself would
        # appear without dedup; the identity map survives once
        self_maps = cat.morphisms[(1, 1)]
        assert len(self_maps) == len({im for _, im in self_maps})

    def test_refuses_nonabelian(self):
        with pytest.raises(ValueError, match="S3 is not abelian"):
            elementary_abelians(s3(), 2)

    @pytest.mark.parametrize("orders, p", [([2] * 5, 2), ([3] * 4, 3)])
    def test_large_lattices_match_reference(self, orders, p):
        G = FiniteGroup.from_abelian(orders)
        objects, pairs = lattice_reference(G, p)
        assert lattice_objects(elementary_abelians(G, p)) == objects
        assert lattice_size(len(orders), p) == (len(objects), len(pairs))

    @pytest.mark.parametrize("orders, p, seed", [
        ([2, 2, 2, 2], 2, 0), ([4, 2, 2], 2, 1), ([3, 3, 3], 3, 2),
        ([9, 3], 3, 3)])
    def test_relabelled_lattices_match_reference(self, orders, p, seed):
        # the object order follows G's numbering
        G = relabelled(FiniteGroup.from_abelian(orders), seed)
        assert lattice_objects(elementary_abelians(G, p)) \
            == lattice_reference(G, p)[0]

    @pytest.mark.parametrize("orders, p, counts", [
        ([2] * 6, 2, (2825, 95706)), ([3] * 5, 3, (2664, 69699))])
    def test_lattice_counts_are_gaussian_binomial_sums(self, orders, p,
                                                       counts):
        r = len(orders)
        assert lattice_size(r, p) == counts
        objs = lattice_objects(
            elementary_abelians(FiniteGroup.from_abelian(orders), p))
        assert len(objs) == counts[0]
        assert len(set(objs)) == len(objs) and objs[-1] == tuple(range(p ** r))

    def test_lattice_over_the_cap_is_refused(self, monkeypatch):
        # (Z/2)^5 has 5,769 inclusions: a cap one below refuses it before
        # any enumeration, a cap at that count accepts it
        G = FiniteGroup.from_abelian([2] * 5, name="(Z/2)^5")
        monkeypatch.setattr(gp, "MAX_INCLUSIONS", 5768)
        monkeypatch.setattr(gp, "vectors", None)
        with pytest.raises(ValueError) as exc:
            elementary_abelians(G, 2)
        assert str(exc.value) == (
            "(Z/2)^5: its elementary abelian 2-subgroups number 374, with "
            "5,769 inclusions, above the cap of 5,768 inclusions")
        monkeypatch.undo()
        monkeypatch.setattr(gp, "MAX_INCLUSIONS", 5769)
        assert len(lattice_objects(elementary_abelians(G, 2))) == 374

    def test_cap_accepts_what_it_accepted(self):
        # the cap keeps its value now that it guards the object
        # enumeration of quillen-check alone: of the elementary abelian
        # groups inside the order cap, it refuses (Z/2)^8 and (Z/3)^7 and
        # accepts every smaller rank; at p >= 5 the order cap binds first
        accepted = [(p, r) for p in (2, 3, 5, 7, 11, 13, 97, 101, 9973)
                    for r in range(1, 14)
                    if p ** r <= gp.MAX_ORDER
                    and lattice_size(r, p)[1] <= gp.MAX_INCLUSIONS]
        assert [(p, max(r for q, r in accepted if q == p))
                for p in (2, 3, 5, 7, 11, 13, 97)] == [
            (2, 7), (3, 6), (5, 5), (7, 4), (11, 3), (13, 3), (97, 2)]


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
            orbit = {tuple(conj(g, h, x) for x in cls.representative)
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
        table = abelian_coordinates(g, basis)
        assert sorted(table) == list(g.elements())
        for x, coords in table.items():
            y = 0
            for (b, _), c in zip(basis, coords):
                y = g.mul(y, g.power(b, c))
            assert y == x

    @pytest.mark.parametrize("name", ABELIAN_CATALOG)
    @pytest.mark.parametrize("p", [2, 3, 5])
    def test_subgroup_basis_matches_relabelled_copy(self, name, p):
        # every cyclic and two-generator subgroup, basis read in G
        g = catalog_group(name)
        subgroups = {g.subgroup_closure(pair)
                     for pair in itertools.combinations_with_replacement(
                         g.elements(), 2)}
        for elems in sorted(subgroups):
            assert abelian_p_basis(g, p, elems) == \
                relabelled_p_basis(g, p, elems), elems
        assert abelian_p_basis(g, p, tuple(g.elements())) == \
            abelian_p_basis(g, p)

    @pytest.mark.parametrize("name", ABELIAN_CATALOG)
    @pytest.mark.parametrize("p", [2, 3, 5])
    def test_coordinates_match_search(self, name, p):
        # the whole group's basis and each cyclic subgroup's, with
        # redundant spanning lists, whose exponents are not unique
        g = catalog_group(name)
        bases = [abelian_p_basis(g, p)]
        bases += [abelian_p_basis(g, p, g.subgroup_closure([x]))
                  for x in g.elements()]
        bases += [[(x, int(g.orders[x])), (x, int(g.orders[x]))]
                  for x in g.p_torsion(p)]
        for basis in bases:
            table = abelian_coordinates(g, basis)
            for x in g.elements():
                if x in table:
                    assert table[x] == coordinates_reference(g, basis, x)
                else:
                    with pytest.raises(ValueError, match="span"):
                        coordinates_reference(g, basis, x)

    def test_subgroups_of_a_nonabelian_group(self):
        g = s3()
        c3 = next(x for x in g.elements() if g.orders[x] == 3)
        assert abelian_p_basis(g, 3, g.subgroup_closure([c3])) == [(c3, 3)]
        with pytest.raises(ValueError, match="not abelian"):
            abelian_p_basis(g, 2, tuple(g.elements()))

    def test_nonabelian_rejected(self):
        with pytest.raises(ValueError):
            abelian_p_basis(s3(), 2)


@st.composite
def permutation_groups(draw):
    degree = draw(st.integers(1, 6))
    gens = draw(st.lists(st.permutations(range(degree)), min_size=1,
                         max_size=3))
    return gens, degree


class TestArrayEngine:
    """The array constructions against their one-product-per-pair
    references in conftest."""

    @settings(max_examples=20, deadline=None)
    @given(permutation_groups(), st.sampled_from([2, 3, 5]))
    @example(([[0]], 1), 2)  # the trivial group
    @example(([], 1), 3)  # degree 1, no generator
    @example(([], 4), 2)  # no generator
    @example(([[0, 1, 2, 3], [1, 0, 3, 2]], 4), 2)  # an identity generator
    @example(([[1, 2, 0], [1, 2, 0], [1, 0, 2]], 3), 3)  # a repeated one
    @example(([[1, 0, 2], [1, 2, 0]], 3), 5)  # S3 has no 5-torsion
    def test_permutation_groups_match_references(self, group, p):
        gens, degree = group
        G = FiniteGroup.from_permutations(gens, degree)
        assert np.array_equal(G.table, permutation_table(gens, degree))
        check_generating_set(G)
        for r in range(4):
            assert rep_classes(r, G, p) == rep_classes_reference(r, G, p)
        objs, data = conjugation_category(G, p)
        ref_objs, ref_data = elementary_abelians_reference(G, p)
        assert [o.elements for o in objs] == [o.elements for o in ref_objs]
        assert data.morphisms == ref_data.morphisms
        if G.is_abelian:
            assert lattice_objects(elementary_abelians(G, p)) \
                == lattice_reference(G, p)[0]
        else:
            with pytest.raises(ValueError, match="not abelian"):
                elementary_abelians(G, p)

    @pytest.mark.parametrize("name", CATALOG)
    @pytest.mark.parametrize("p", [2, 3, 5])
    def test_catalog_elementary_abelians_match_reference(self, name, p):
        # the lattice on the abelian files, a refusal on the others; the
        # conjugation search against its reference on every file
        G = catalog_group(name)
        objs, data = conjugation_category(G, p)
        ref_objs, ref_data = elementary_abelians_reference(G, p)
        assert [o.elements for o in objs] == [o.elements for o in ref_objs]
        assert list(data.morphisms.items()) == \
            list(ref_data.morphisms.items())
        if name in ABELIAN_CATALOG:
            assert lattice_objects(elementary_abelians(G, p)) \
                == lattice_reference(G, p)[0]
        else:
            with pytest.raises(ValueError, match="not abelian"):
                elementary_abelians(G, p)

    @pytest.mark.parametrize("orders", [
        [], [2], [3, 3, 3], [9, 3], [4, 2], [2] * 8, [4, 4, 2]])
    def test_abelian_table_matches_reference(self, orders):
        G = FiniteGroup.from_abelian(orders)
        assert np.array_equal(G.table, abelian_table(orders))

    @pytest.mark.parametrize("name", CATALOG)
    def test_catalog_group_engine_matches_references(self, name):
        # element orders, powers, cyclic and two-generator closures, and
        # the greedy generating set
        G = catalog_group(name)
        assert G.orders.tolist() == [element_order_reference(G, x)
                                     for x in G.elements()]
        xs = np.array(list(G.elements()))
        for k in (0, 1, 2, 3, 5, 12):
            assert G.power(xs, k).tolist() == [power_reference(G, x, k)
                                               for x in xs]
        assert G.power(xs, xs).tolist() == [power_reference(G, x, x)
                                            for x in xs]
        for gens in itertools.combinations_with_replacement(
                [*G.elements()][:12], 2):
            assert G.subgroup_closure(gens) == closure_reference(G, gens)
            assert G.subgroup_closure(gens[:1]) == \
                closure_reference(G, gens[:1])
        assert G.subgroup_closure([]) == (0,)
        check_generating_set(G)

    @pytest.mark.parametrize("name", CATALOG)
    @pytest.mark.parametrize("p", [2, 3, 5])
    def test_catalog_p_basis_matches_reference(self, name, p):
        # the whole group (refused when nonabelian), and every cyclic
        # subgroup and every abelian two-generator subgroup
        G = catalog_group(name)
        assert outcome(abelian_p_basis, G, p) == \
            outcome(abelian_p_basis_reference, G, p)
        subgroups = {closure_reference(G, pair)
                     for pair in itertools.combinations_with_replacement(
                         G.elements(), 2)}
        for elems in sorted(subgroups):
            assert outcome(abelian_p_basis, G, p, elems) == \
                outcome(abelian_p_basis_reference, G, p, elems), elems

    @pytest.mark.parametrize("orders, p", [([2] * 5, 2), ([3] * 4, 3)])
    def test_lattice_p_bases_match_reference(self, orders, p):
        G = FiniteGroup.from_abelian(orders)
        objects = lattice_objects(elementary_abelians(G, p))
        for elems in objects:
            assert abelian_p_basis(G, p, elems) == \
                abelian_p_basis_reference(G, p, elems), elems

    @pytest.mark.parametrize("group", [*CATALOG, "Z/2^4"])
    def test_rep_classes_match_reference(self, group):
        # on (Z/2)^4 every generator is central, so no orbit is merged
        G = FiniteGroup.from_abelian([2, 2, 2, 2]) if group == "Z/2^4" \
            else catalog_group(group)
        for p in (2, 3):
            for r in range(4):
                assert rep_classes(r, G, p) == rep_classes_reference(r, G, p)

    def test_s7(self):
        G = FiniteGroup.from_permutations(
            [(1, 0, 2, 3, 4, 5, 6), (1, 2, 3, 4, 5, 6, 0)], 7)
        assert len(G) == 5040
        classes = rep_classes(1, G, 2)
        assert sorted(c.orbit_size for c in classes) == [1, 21, 105, 105]

    def test_closure_cap(self, tmp_path, capsys):
        s8 = [[1, 0, 2, 3, 4, 5, 6, 7], [1, 2, 3, 4, 5, 6, 7, 0]]
        with pytest.raises(ValueError,
                           match="permutation closure exceeds the cap 10000"):
            FiniteGroup.from_permutations(s8, 8)
        path = tmp_path / "s8.json"
        path.write_text(json.dumps({"degree": 8, "generators": s8}))
        assert main(["reps", "--group", str(path), "--rank", "1"]) == 2
        assert "exceeds the cap" in capsys.readouterr().err
