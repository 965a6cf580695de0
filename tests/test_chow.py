import itertools
import math
import random

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from chowops.chow import (ChowRing, RingMap, _action_matrix, abelian_ring,
                          elem_abelian_ring, poly_add, poly_scale,
                          restriction_map, ring_module, symmetric_powers)
from chowops.groups import FiniteGroup
from chowops.powers import reduce_word

from conftest import act_reference, apply, check_commutes, truncate


def test_elem_abelian_dims():
    assert [elem_abelian_ring(0, 2).dim(d) for d in range(3)] == [1, 0, 0]
    assert all(elem_abelian_ring(1, 2).dim(d) == 1 for d in range(9))
    assert [elem_abelian_ring(2, 5).dim(d) for d in range(5)] == [1, 2, 3, 4, 5]


@pytest.mark.parametrize("k, top", [(0, 3), (1, 6), (2, 9), (3, 9), (5, 8),
                                    (12, 6)])
def test_positions_count_the_lexicographic_order(k, top):
    r = ChowRing(2, k)
    for d in range(top + 1):
        rows = np.array(r.basis(d), dtype=np.int64).reshape(r.dim(d), k)
        assert r.positions(rows, d).tolist() == list(range(r.dim(d))), d


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

    @settings(max_examples=80, deadline=None)
    @given(st.sampled_from([2, 3, 5, 11]), st.integers(1, 4),
           st.integers(0, 3), st.integers(0, 3),
           st.lists(st.integers(-2, 6), min_size=1, max_size=5),
           st.integers(0, 10**6))
    def test_batched_powers_stack_the_maps(self, p, batch, k, m, degrees,
                                           seed):
        # degree d of a stack of substitutions is the per-map matrices of
        # degree d stacked; a negative degree is each map's empty matrix,
        # and asking for one between others changes nothing
        rng = np.random.default_rng(seed)
        source, target = elem_abelian_ring(k, p), elem_abelian_ring(m, p)
        mats = rng.integers(0, p, size=(batch, k, m))
        maps = [RingMap(source, target, mat) for mat in mats]
        stacks = list(itertools.islice(symmetric_powers(source, target, mats),
                                       max(max(degrees), -1) + 1))
        for d in degrees:
            got = [rm.matrix(d) for rm in maps]
            if d < 0:
                assert all(mat.shape == (0, 0) for mat in got)
            else:
                assert stacks[d].shape == (batch, target.dim(d),
                                           source.dim(d))
                assert (stacks[d] == np.stack(got)).all(), d

    def test_each_power_built_once(self, monkeypatch):
        G = FiniteGroup.from_abelian([3, 3])
        rm = restriction_map(G, G.subgroup_closure([1]), 3)
        top = rm.matrix(5)

        def refuse(ring, d):
            raise AssertionError(f"degree {d} rebuilt")

        monkeypatch.setattr(ChowRing, "shifts", refuse)
        assert rm.matrix(5) is top
        assert rm.matrix(2).shape == (1, 3)

    def test_refuses_bad_maps(self):
        line = elem_abelian_ring(1, 2)
        with pytest.raises(ValueError, match="need a 1 x 1 matrix"):
            RingMap(line, line, [[1, 0]])
        with pytest.raises(ValueError, match="per map, stacked"):
            symmetric_powers(line, line, [[1]])
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


# the catalog rings for the cross-checks against the dict reference
CROSS_RINGS = {f"rank{k}-p{p}": (k, p) for k in range(1, 5) for p in (2, 3, 5)}


@settings(max_examples=80, deadline=None)
@given(st.sampled_from(sorted(CROSS_RINGS)), st.integers(0, 10),
       st.integers(0, 6), st.integers(0, 2**32))
def test_act_matches_dict_reference(name, d, a, seed):
    r = elem_abelian_ring(*CROSS_RINGS[name])
    monos = r.basis(d)
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
    r = elem_abelian_ring(*CROSS_RINGS[name])
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
    # ring_module through 10 and truncate below 8: all of `.mats` read
    # first, and every (a, d) read one by one, high degrees first or in a
    # random order, against the matrices of the dict reference
    r = elem_abelian_ring(*CROSS_RINGS[name])
    for build, top in ((lambda: ring_module(r, 10), 10),
                       (lambda: truncate(r, 8), 7)):
        dims = {d: r.dim(d) for d in range(top + 1)}
        mats = {}
        for d in dims:
            for a in range(1, d + 1):
                d2 = d + a * (r.p - 1)
                if d2 <= top:
                    mats[(a, d)] = r.coords(
                        [act_reference(r, a, {m: 1}) for m in r.basis(d)], d2)
        module = build()
        assert module.dims == dims
        assert module.mats.keys() == {key for key in mats if mats[key].any()}
        assert all((module.mats[key] == mats[key]).all()
                   for key in module.mats)
        for key, got in lazy_reads(build(), dims, top, r.p, order).items():
            assert got.shape == mats[key].shape, key
            assert (got == mats[key]).all(), key


def test_act_on_a_wide_ring_matches_dict_reference():
    # rank 20 in degree 20
    r = elem_abelian_ring(20, 3)
    f = {(20,) + (0,) * 19: 1, (0,) * 19 + (20,): 2, (5,) * 4 + (0,) * 16: 1}
    for a in (1, 2, 7):
        assert r.act(a, f) == act_reference(r, a, f), a


def test_action_at_a_prime_past_int64_products():
    # a single polynomial is acted on in Python integers, at any prime; an
    # action matrix multiplies two residues in int64, and is refused
    p = 4294967311
    r = elem_abelian_ring(2, p)
    assert r.act(1, {(1, 1): 1}) == {(p, 1): 1, (1, p): 1}
    with pytest.raises(ValueError, match="too large for int64"):
        _action_matrix(r, 1, 1)
