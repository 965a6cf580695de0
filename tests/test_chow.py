import hashlib
import json
import math
import random
import re

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from chowops import cartan
from chowops import fp_linalg as fl
from chowops.chow import (ChowRing, RingMap, abelian_ring,
                          elem_abelian_ring, ingest_ring, poly_add,
                          poly_scale, restriction_map, ring_module, truncate)
from chowops.groups import FiniteGroup
from chowops.powers import reduce_word

from conftest import (act_reference, action_through_reference, apply,
                      check_commutes)


def test_elem_abelian_dims():
    assert [elem_abelian_ring(0, 2).dim(d) for d in range(3)] == [1, 0, 0]
    assert all(elem_abelian_ring(1, 2).dim(d) == 1 for d in range(9))
    assert [elem_abelian_ring(2, 5).dim(d) for d in range(5)] == [1, 2, 3, 4, 5]


def test_action_spec_examples():
    r = elem_abelian_ring(1, 2)
    assert r.act(1, {(3,): 1}) == {(4,): 1}
    for p in (2, 3, 5):
        assert elem_abelian_ring(1, p).act(1, {(1,): 1}) == {(p,): 1}
    assert r.act(2, {(2,): 1}) == {(4,): 1}


def test_abelian_ring_ranks():
    # one degree-1 class per cyclic factor, whatever its order: Z/p,
    # Z/p^2 and Z/p^2 x Z/p
    for spec, k in [([3], 1), ([9], 1), ([9, 3], 2)]:
        ring = abelian_ring(FiniteGroup.from_abelian(spec), 3).ring
        assert ring.k == k and ring is elem_abelian_ring(k, 3), spec


def test_catalog_rings_shared_per_rank_and_prime():
    assert elem_abelian_ring(2, 3) is elem_abelian_ring(2, 3)
    assert elem_abelian_ring(2, 3) is not elem_abelian_ring(2, 5)
    with pytest.raises(ValueError, match="rank"):
        elem_abelian_ring(-1, 3)


def test_normal_form_matrix_only_where_relations_have_rows():
    # a catalog ring stores none, nor does a ring whose only relation is
    # zero (as ingested from terms that sum to zero mod p); a ring with
    # relations stores one from the degree of its first relation on, and
    # reduces there
    assert all(elem_abelian_ring(2, 3)._deg_data(d)[2] is None
               for d in range(6))
    zero = ChowRing(3, [("x", 1)], relations=[{}])
    assert all(zero._deg_data(d)[2] is None for d in range(4))
    assert zero.coords([{(2,): 2}], 2).tolist() == [[2]]
    r = ChowRing(2, [("x", 1), ("y", 1)], relations=[{(2, 0): 1, (0, 2): 1}])
    assert [r._deg_data(d)[2] is None for d in range(4)] == \
        [True, True, False, False]
    assert r.basis(1) == r.raw_monomials(1)
    assert r.basis(2) == [(1, 1), (2, 0)]
    assert r.normal_form({(0, 2): 1}) == {(2, 0): 1}
    assert r.coords([{(0, 2): 1, (1, 1): 1}], 2).tolist() == [[1], [1]]


@pytest.mark.parametrize("p", [2, 3])
def test_top_power_is_frobenius(p):
    # P^{deg f} f = f^p for every homogeneous f, not only generators
    r = elem_abelian_ring(2, p)
    for f in [{(1, 0): 1, (0, 1): 1}, {(2, 1): 1, (1, 2): p - 1},
              {(3, 0): 1, (1, 2): 1, (0, 3): 1}]:
        d = r.poly_degree(f)
        assert r.act(d, f) == r.power(f, p)
        assert r.act(d + 1, f) == {}
        assert r.act(d + 3, f) == {}


@settings(max_examples=30, deadline=None)
@given(st.sampled_from([2, 3]), st.integers(1, 4), st.integers(1, 4),
       st.integers(0, 10**6))
def test_cartan(p, d1, d2, seed):
    import numpy as np
    rng = np.random.default_rng(seed)
    r = elem_abelian_ring(2, p)

    def random_poly(d):
        f = {}
        for m in r.basis(d):
            c = int(rng.integers(0, p))
            if c:
                f[m] = c
        return f or {r.basis(d)[0]: 1}

    f, g = random_poly(d1), random_poly(d2)
    for a in range(1, d1 + d2 + 1):
        lhs = r.act(a, r.mul(f, g))
        rhs = {}
        for i in range(a + 1):
            rhs = poly_add(rhs, r.mul(r.act(i, f), r.act(a - i, g)), p)
        assert lhs == rhs


@pytest.mark.parametrize("p", [2, 3])
def test_adem_oracle_on_ring(p):
    r = elem_abelian_ring(2, p)
    mono = {(2, 1): 1}
    for b in range(1, 4):
        for a in range(1, p * b):
            lhs = r.act(a, r.act(b, mono))
            rhs = {}
            for w, c in reduce_word((a, b), p).items():
                rhs = poly_add(rhs, poly_scale(r.act_word(w, mono), c, p), p)
            assert lhs == rhs, (a, b)


@pytest.mark.parametrize("p", [2, 3, 5])
def test_all_small_words_act_like_their_normal_forms(p):
    # exhaustive over compositions with exponent sum <= 6, acting on every
    # monomial of the rank-3 ring through degree 6
    r = elem_abelian_ring(3, p)
    monomials = [m for d in range(7) for m in r.basis(d)]

    def compositions(total):
        if total == 0:
            yield ()
            return
        for first in range(1, total + 1):
            for rest in compositions(total - first):
                yield (first,) + rest

    for s in range(1, 7):
        for word in compositions(s):
            expansion = reduce_word(word, p)
            for mono in monomials:
                raw = {mono: 1}
                for a in reversed(word):
                    raw = r.act(a, raw)
                nf = {}
                for w, c in expansion.items():
                    nf = poly_add(nf, poly_scale(r.act_word(w, {mono: 1}), c, p), p)
                assert raw == nf, (word, mono)


@settings(max_examples=60, deadline=None)
@given(st.sampled_from([2, 3, 5]),
       st.lists(st.integers(1, 4), min_size=1, max_size=4),
       st.integers(0, 10**6))
def test_longer_words_act_like_their_normal_forms(p, word, seed):
    # raw left-to-right application of an arbitrary word agrees with the
    # action of its admissible normal form on the rank-3 ring
    import numpy as np
    rng = np.random.default_rng(seed)
    word = tuple(word)
    r = elem_abelian_ring(3, p)
    d = int(rng.integers(1, 5))
    basis = r.basis(d)
    mono = {basis[int(rng.integers(0, len(basis)))]: 1}
    raw = dict(mono)
    for a in reversed(word):
        raw = r.act(a, raw)
    nf = {}
    for w, c in reduce_word(word, p).items():
        nf = poly_add(nf, poly_scale(r.act_word(w, mono), c, p), p)
    assert raw == nf


class TestRestriction:
    def test_cyclic_tower(self):
        # the faithful character of Z/p^2 restricts to a faithful character
        G = FiniteGroup.from_abelian([4], name="Z4")
        sub = G.subgroup_closure([2])  # the order-2 element is index 2
        rm = restriction_map(G, sub, 2)
        assert rm.images == [{(1,): 1}]

    def test_diagonal(self):
        K = FiniteGroup.from_abelian([2, 2])
        diag = K.subgroup_closure([3])  # (1,1)
        rm = restriction_map(K, diag, 2)
        assert rm.images == [{(1,): 1}, {(1,): 1}]

    def test_trivial_subgroup(self):
        K = FiniteGroup.from_abelian([2, 2])
        rm = restriction_map(K, [0], 2)
        assert rm.images == [{}, {}]

    def test_commutes_with_action(self):
        for spec, p in [([4], 2), ([2, 2], 2), ([9, 3], 3)]:
            G = FiniteGroup.from_abelian(spec)
            for x in range(1, len(G)):
                sub = G.subgroup_closure([x])
                rm = restriction_map(G, sub, p)
                assert check_commutes(rm, max_degree=2 * p + 2)

    def test_non_subgroup_rejected(self):
        G = FiniteGroup.from_abelian([4])
        with pytest.raises(ValueError):
            restriction_map(G, [0, 1], 2)  # not closed


class TestRingMap:
    @settings(max_examples=80, deadline=None)
    @given(st.sampled_from([2, 3, 5]), st.integers(0, 3), st.integers(0, 3),
           st.lists(st.integers(-2, 6), min_size=1, max_size=4),
           st.integers(0, 10**6))
    def test_symmetric_power_matches_substitution(self, p, k, m, degrees,
                                                  seed):
        # the matrix path agrees with expanding each monomial's image, in
        # any order of degrees, and a negative degree is the empty matrix
        # rather than some power already built
        rng = np.random.default_rng(seed)
        source, target = elem_abelian_ring(k, p), elem_abelian_ring(m, p)
        rm = RingMap(source, target, rng.integers(0, p, size=(k, m)))
        for d in degrees:
            want = target.coords([apply(rm, {mono: 1})
                                  for mono in source.basis(d)], d)
            got = rm.matrix(d)
            assert got.shape == want.shape == (target.dim(d), source.dim(d))
            assert (got == want).all(), d

    def test_each_power_built_once(self, monkeypatch):
        G = FiniteGroup.from_abelian([3, 3])
        rm = restriction_map(G, G.subgroup_closure([1]), 3)
        top = rm.matrix(5)

        def refuse(ring, d):
            raise AssertionError(f"degree {d} rebuilt")

        monkeypatch.setattr(ChowRing, "shifts", refuse)
        assert rm.matrix(5) is top
        assert rm.matrix(2).shape == (1, 3)

    def test_only_polynomial_rings_on_degree_one_classes(self):
        line = elem_abelian_ring(1, 2)
        quotient = ChowRing(2, [("x", 1)], relations=[{(2,): 1}])
        graded = ChowRing(2, [("x", 2)])
        for source, target in [(quotient, line), (line, quotient),
                               (graded, line), (line, graded)]:
            with pytest.raises(ValueError, match="degree-1 generators"):
                RingMap(source, target, [[1]])
        with pytest.raises(ValueError, match="need a 1 x 1 matrix"):
            RingMap(line, line, [[1, 0]])
        with pytest.raises(ValueError, match="primes differ"):
            RingMap(line, elem_abelian_ring(1, 3), [[1]])
        # the least prime whose (p - 1)^2 overflows int64
        big = elem_abelian_ring(1, 3037000507)
        with pytest.raises(ValueError, match="too large"):
            RingMap(big, big, [[1]])


class TestTruncate:
    def test_spec_examples(self):
        r = elem_abelian_ring(1, 2)
        assert truncate(r, 1).dims == {0: 1}
        t = truncate(r, 3)
        assert t.dims == {0: 1, 1: 1, 2: 1}
        assert (t.act(1, 1) == [[1]]).all()  # P^1 y = y^2 retained
        assert truncate(r, 0).dims == {}

    def test_complete_flag(self):
        assert truncate(elem_abelian_ring(1, 2), 4).is_complete

    def test_ring_module_truncated(self):
        m = ring_module(elem_abelian_ring(1, 3), 6)
        assert m.truncated_above == 6
        assert all(m.dim(d) == 1 for d in range(7))


class TestIngest:
    def test_roundtrip(self):
        r = elem_abelian_ring(2, 2)
        blob = json.loads(json.dumps(r.to_json()))
        assert ingest_ring(blob) == r

    def test_top_power_violation(self):
        bad = elem_abelian_ring(1, 2).to_json()
        bad["steenrod"] = [{"a": 1, "gen": "y1", "value": []}]
        with pytest.raises(ValueError, match="top-power"):
            ingest_ring(bad)

    def test_mixed_degree_relation(self):
        bad = elem_abelian_ring(1, 2).to_json()
        bad["relations"] = [[{"coeff": 1, "monomial": [1]},
                             {"coeff": 1, "monomial": [2]}]]
        with pytest.raises(ValueError, match="relations"):
            ingest_ring(bad)

    def test_unknown_fields_rejected(self):
        bad = elem_abelian_ring(1, 2).to_json()
        bad["surprise"] = True
        with pytest.raises(ValueError, match="unknown"):
            ingest_ring(bad)

    def test_action_must_descend(self):
        # y^3 = 0 but P^1(y) = y^3 nonzero upstairs is fine (it reduces to
        # zero); a rule sending y to a survivor is not
        blob = {
            "prime": 3, "cutoff": 8, "provenance": "ingested",
            "generators": [{"name": "u", "degree": 1},
                           {"name": "w", "degree": 1}],
            "relations": [[{"coeff": 1, "monomial": [3, 0]}]],
            "steenrod": [{"a": 1, "gen": "u",
                          "value": [{"coeff": 1, "monomial": [0, 3]}]},
                         {"a": 1, "gen": "w",
                          "value": [{"coeff": 1, "monomial": [0, 3]}]}],
        }
        with pytest.raises(ValueError, match="respect|top-power"):
            ingest_ring(blob)

    def test_adem_violation_refused(self):
        # P^1 P^1 = 0 at p = 2, but P^1 x = y^3 gives P^1 P^1 x = y^4
        blob = {
            "prime": 2, "cutoff": 8, "provenance": "ingested",
            "generators": [{"name": "y", "degree": 1},
                           {"name": "x", "degree": 2}],
            "steenrod": [{"a": 1, "gen": "x",
                          "value": [{"coeff": 1, "monomial": [3, 0]}]}],
        }
        with pytest.raises(ValueError, match="Adem"):
            ingest_ring(blob)

    def test_quotient_ring_dims(self):
        blob = {
            "prime": 3, "cutoff": 8, "provenance": "ingested",
            "generators": [{"name": "y", "degree": 1}],
            "relations": [[{"coeff": 1, "monomial": [3]}]],
            "steenrod": [],
        }
        r = ingest_ring(blob)
        assert [r.dim(d) for d in range(5)] == [1, 1, 1, 0, 0]

    def test_repeated_monomials_sum_mod_p(self):
        # x^2 + 2 x^2 = 3 x^2 is the zero relation at p = 3
        blob = {
            "prime": 3, "cutoff": 8, "provenance": "ingested",
            "generators": [{"name": "x", "degree": 1}],
            "relations": [[{"coeff": 1, "monomial": [2]},
                           {"coeff": 2, "monomial": [2]}]],
            "steenrod": [],
        }
        r = ingest_ring(blob)
        assert r.relations == [{}]
        assert [r.dim(d) for d in range(4)] == [1, 1, 1, 1]
        # the top-power rule P^1 x = x^3, written with coefficient 4 = 1
        blob["steenrod"] = [{"a": 1, "gen": "x",
                             "value": [{"coeff": 4, "monomial": [3]}]}]
        assert ingest_ring(blob).steenrod[(0, 1)] == {(3,): 1}

    @pytest.mark.parametrize("path, value", [
        (("generators", 0, "degree"), 1.9),
        (("generators", 0, "degree"), True),
        (("relations", 0, 0, "coeff"), 1.5),
        (("relations", 0, 0, "monomial"), [2.7]),
        (("relations", 0, 0, "monomial"), 3),
        (("steenrod", 0, "a"), 1.0),
        (("steenrod", 0, "value", 0, "coeff"), False),
        (("cutoff",), 6.5),
    ])
    def test_non_integers_refused(self, path, value):
        blob = {
            "prime": 3, "cutoff": 8, "provenance": "ingested",
            "generators": [{"name": "y", "degree": 1}],
            "relations": [[{"coeff": 1, "monomial": [4]}]],
            "steenrod": [{"a": 1, "gen": "y",
                          "value": [{"coeff": 1, "monomial": [3]}]}],
        }
        ingest_ring(json.loads(json.dumps(blob)))
        target = blob
        for key in path[:-1]:
            target = target[key]
        target[path[-1]] = value
        field = path[0] + "".join(f"[{k}]" if isinstance(k, int) else f".{k}"
                                  for k in path[1:])
        with pytest.raises(ValueError, match=re.escape(field)):
            ingest_ring(blob)


def test_ring_module_with_relations_matches_per_column_reference():
    # y1^2 + y2^2 = (y1 + y2)^2 at p = 2, so the action descends
    r = ChowRing(2, [("y1", 1), ("y2", 1)],
                 relations=[{(2, 0): 1, (0, 2): 1}], validate=True)
    module = ring_module(r, 8)
    for d in range(9):
        assert module.dim(d) == r.dim(d)
        for a in range(1, d + 1):
            d2 = d + a
            if d2 > 8:
                continue
            # one normal-form product per basis monomial
            monos, index, nf, _ = r._deg_data(d2)
            cols = []
            for m in r.basis(d):
                v = np.zeros(len(monos), dtype=np.int64)
                for mm, c in r.act(a, {m: 1}).items():
                    v[index[mm]] = c
                cols.append(fl.matmul(nf, v, 2))
            assert (module.act(a, d) == np.stack(cols, axis=1)).all(), (a, d)


def test_abelian_ring_uses_p_part():
    G = FiniteGroup.from_abelian([6], name="Z6")
    data2 = abelian_ring(G, 2)
    data3 = abelian_ring(G, 3)
    assert data2.ring.k == 1 and [o for _, o in data2.basis] == [2]
    assert data3.ring.k == 1 and [o for _, o in data3.basis] == [3]


def test_inhomogeneous_action_rejected():
    r = elem_abelian_ring(1, 2)
    with pytest.raises(ValueError):
        r.act(1, {(1,): 1, (2,): 1})


@pytest.mark.parametrize("p", [2, 3, 5])
def test_powers_of_a_degree_one_class(p):
    # P^a(y^e) = C(e, a) y^{e + a(p - 1)}, zero for a > e
    r = elem_abelian_ring(1, p)
    for e in range(13):
        for a in range(e + 2):
            c = math.comb(e, a) % p
            assert r.act(a, {(e,): 1}) == ({(e + a * (p - 1),): c}
                                           if c else {}), (e, a)


def chern_ring(p):
    """F_p[c1, c2] with |c1| = 1 and |c2| = 2, the Chow ring of BGL_2:
    P^1 c2 = x1^p x2 + x1 x2^p on the Chern roots, which is c1 c2 at
    p = 2, c1^2 c2 + c2^2 at p = 3 and c1^4 c2 + c1^2 c2^2 + 2 c2^3 at
    p = 5."""
    rule = {2: {(1, 1): 1}, 3: {(2, 1): 1, (0, 2): 1},
            5: {(4, 1): 1, (2, 2): 1, (0, 3): 2}}[p]
    return ChowRing(p, [("c1", 1), ("c2", 2)], steenrod={(1, 1): rule},
                    cutoff=8, validate=True)


# sha256 of repr(sorted P^a(m) items) over p in (2, 3), every basis
# monomial m of degree <= 8 and every a <= deg m: 310 actions, recorded
# when generators of degree >= 2 were expanded one factor at a time
CHERN_ACTIONS = \
    "ccdd25a0e865abdbcee651effdb7cc96802c41644364ffc584e39b78902631b8"


def test_chern_ring_actions():
    # p = 5 is checked against the reference only: its P^1 c2 has a
    # coefficient 2, which the digest (recorded at p = 2, 3) does not see
    actions = {}
    for p in (2, 3, 5):
        r = chern_ring(p)
        actions[p] = []
        for d in range(9):
            for m in r.basis(d):
                for a in range(d + 1):
                    got = r.act(a, {m: 1})
                    assert got == act_reference(r, a, {m: 1}), (p, m, a)
                    actions[p].append((d, m, a, sorted(got.items())))
    del actions[5]
    assert sum(map(len, actions.values())) == 310
    assert hashlib.sha256(repr(actions).encode()).hexdigest() == CHERN_ACTIONS


# rings for the cross-checks against the dict reference: catalog rings,
# a degree-2 generator with a multi-term P^1, and two rings with relations
CROSS_RINGS = {
    **{f"rank{k}-p{p}": (lambda k=k, p=p: elem_abelian_ring(k, p))
       for k in range(1, 5) for p in (2, 3, 5)},
    **{f"chern-p{p}": (lambda p=p: chern_ring(p)) for p in (2, 3, 5)},
    "x2+y2-p2": lambda: ChowRing(2, [("x", 1), ("y", 1)],
                                 relations=[{(2, 0): 1, (0, 2): 1}],
                                 validate=True),
    "y3-p3": lambda: ChowRing(3, [("y", 1)], relations=[{(3,): 1}],
                              validate=True),
}


@settings(max_examples=80, deadline=None)
@given(st.sampled_from(sorted(CROSS_RINGS)), st.integers(0, 10),
       st.integers(0, 6), st.integers(0, 2**32))
def test_act_matches_dict_reference(name, d, a, seed):
    r = CROSS_RINGS[name]()
    monos = r.raw_monomials(d)
    assume(monos)
    rng = random.Random(seed)
    f = {m: rng.randrange(1, r.p)
         for m in rng.sample(monos, min(3, len(monos)))}
    assert r.act(a, f) == act_reference(r, a, f)


@settings(max_examples=30, deadline=None)
@given(st.sampled_from(sorted(CROSS_RINGS)), st.integers(1, 9),
       st.integers(0, 2**32))
def test_ring_module_matches_dict_reference(name, top, seed):
    # every action matrix in the window, on up to three random basis
    # monomials of its source degree
    r = CROSS_RINGS[name]()
    module = ring_module(r, top)
    rng = random.Random(seed)
    for d in range(top + 1):
        basis = r.basis(d)
        for a in range(1, (top - d) // (r.p - 1) + 1):
            d2 = d + a * (r.p - 1)
            mat = module.act(a, d)
            assert mat.shape == (r.dim(d2), len(basis)), (a, d)
            for j in rng.sample(range(len(basis)), min(3, len(basis))):
                want = r.coords([act_reference(r, a, {basis[j]: 1})], d2)
                assert (mat[:, j] == want[:, 0]).all(), (a, d, basis[j])


def lazy_reads(module, dims, top, p, order):
    """Every (a, d) of the window, read from `module` in `order`
    ("descending" source degrees, or a seeded "random" one), as
    {(a, d): matrix}."""
    keys = [(a, d) for d in sorted(dims) for a in range(1, d + 1)
            if d + a * (p - 1) <= top]
    if order == "descending":
        keys.sort(key=lambda ad: (-ad[1], ad[0]))
    else:
        random.Random(top).shuffle(keys)
    return {key: module.act(*key) for key in keys}


@pytest.mark.parametrize("order", ["descending", "random"])
@pytest.mark.parametrize("name", sorted(CROSS_RINGS))
def test_filled_on_read_matches_eager_build(name, order):
    # ring_module through 10 and truncate below 8, against the matrices
    # built all at once: all of `.mats` read first, and every (a, d) read
    # one by one, high degrees first or in a random order
    r = CROSS_RINGS[name]()
    for build, top in ((lambda: ring_module(r, 10), 10),
                       (lambda: truncate(r, 8), 7)):
        dims, mats = action_through_reference(r, top)
        module = build()
        assert module.dims == dims and module.mats.keys() == mats.keys()
        assert all((module.mats[key] == mats[key]).all() for key in mats)
        for (a, d), got in lazy_reads(build(), dims, top, r.p, order).items():
            d2 = d + a * (r.p - 1)
            want = mats.get((a, d), fl.zeros(dims.get(d2, 0), dims[d]))
            assert got.shape == want.shape and (got == want).all(), (a, d)


@pytest.mark.parametrize("high", [5, 2**40])
def test_distinct_rows_in_lexicographic_order(high):
    rng = np.random.default_rng(0)
    rows = rng.integers(0, high, size=(200, 4))
    rows = np.concatenate([rows, rows[::3]])
    distinct, inverse = cartan.distinct(rows)
    assert list(map(tuple, distinct.tolist())) == \
        sorted(set(map(tuple, rows.tolist())))
    assert (distinct[inverse] == rows).all()


def test_act_on_a_wide_ring_matches_dict_reference():
    # rank 20 in degree 20
    r = elem_abelian_ring(20, 3)
    f = {(20,) + (0,) * 19: 1, (0,) * 19 + (20,): 2, (5,) * 4 + (0,) * 16: 1}
    for a in (1, 2, 7):
        assert r.act(a, f) == act_reference(r, a, f), a


def test_action_at_a_prime_past_int64_products():
    # catalog rules have coefficient 1, so no two residues are multiplied;
    # a coefficient 2 would multiply them past int64, and is refused
    p = 4294967311
    assert elem_abelian_ring(2, p).act(1, {(1, 1): 1}) == \
        {(p, 1): 1, (1, p): 1}
    r = ChowRing(p, [("c1", 1), ("c2", 2)],
                 steenrod={(1, 1): {(p + 1, 0): 2}})
    with pytest.raises(ValueError, match="too large for int64"):
        r.act(1, {(0, 1): 1})
