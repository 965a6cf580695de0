import json
import re

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from chowops.chow import (abelian_ring, catalog_ring,
                          elem_abelian_ring, ingest_ring, poly_add,
                          poly_scale, restriction_map, ring_module, truncate)
from chowops.groups import FiniteGroup
from chowops.powers import reduce_word


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


def test_catalog_ring_shapes():
    assert catalog_ring([1], 3).k == 1          # Z/p
    assert catalog_ring([2], 3).k == 1          # Z/p^2
    assert catalog_ring([2, 1], 3).k == 2       # Z/p^2 x Z/p
    with pytest.raises(ValueError):
        catalog_ring([0], 3)


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
                assert rm.check_commutes(max_degree=2 * p + 2)

    def test_non_subgroup_rejected(self):
        G = FiniteGroup.from_abelian([4])
        with pytest.raises(ValueError):
            restriction_map(G, [0, 1], 2)  # not closed


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


def test_abelian_ring_uses_p_part():
    G = FiniteGroup.from_abelian([6], name="Z6")
    data2 = abelian_ring(G, 2)
    data3 = abelian_ring(G, 3)
    assert data2.ring.k == 1 and data2.ring.char_orders == [2]
    assert data3.ring.k == 1 and data3.ring.char_orders == [3]


def test_inhomogeneous_action_rejected():
    r = elem_abelian_ring(1, 2)
    with pytest.raises(ValueError):
        r.act(1, {(1,): 1, (2,): 1})
