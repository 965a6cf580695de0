import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from chowops import fp_linalg as fl


def test_binom_spec_values():
    assert fl.binom_mod_p(7, 3, 2) == 1
    assert fl.binom_mod_p(2, 1, 2) == 0
    assert fl.binom_mod_p(4, 2, 3) == 0


def test_binom_out_of_range():
    assert fl.binom_mod_p(3, 5, 2) == 0
    assert fl.binom_mod_p(0, 0, 5) == 1


@pytest.mark.parametrize("p", [2, 3, 5])
def test_lucas_against_factorials(p):
    for n in range(26):
        for k in range(n + 1):
            assert fl.binom_mod_p(n, k, p) == math.comb(n, k) % p


def test_check_prime():
    assert fl.check_prime(7) == 7
    with pytest.raises(ValueError):
        fl.check_prime(6)
    with pytest.raises(ValueError):
        fl.check_prime(1)


def test_kernel_spec_examples():
    z = fl.zeros(2, 2)
    ks = fl.kernel_basis(z, 3)
    assert [list(v) for v in ks] == [[1, 0], [0, 1]]
    assert fl.kernel_basis(fl.identity(3), 5) == []
    ks = fl.kernel_basis(fl.as_fp_matrix([[1, 1]], 2), 2)
    assert [list(v) for v in ks] == [[1, 1]]


def test_image_contains_spec_examples():
    assert fl.image_contains(fl.identity(3), [1, 2, 0], 3)
    assert not fl.image_contains(fl.zeros(2, 2), [1, 0], 2)
    assert not fl.image_contains(fl.as_fp_matrix([[1], [1]], 2), [1, 0], 2)
    with pytest.raises(ValueError):
        fl.image_contains(fl.identity(2), [1, 0, 0], 2)


@settings(max_examples=60, deadline=None)
@given(st.integers(1, 6), st.integers(1, 6), st.sampled_from([2, 3, 5]),
       st.integers(0, 10**9))
def test_rank_nullity_and_kernel_exactness(rows, cols, p, seed):
    rng = np.random.default_rng(seed)
    m = rng.integers(0, p, size=(rows, cols))
    k = fl.kernel_matrix(m, p)
    assert fl.rank(m, p) + k.shape[1] == cols
    assert not (m @ k % p).any()


@settings(max_examples=40, deadline=None)
@given(st.integers(1, 5), st.integers(1, 5), st.sampled_from([2, 3]),
       st.integers(0, 10**9))
def test_solve_roundtrip(rows, cols, p, seed):
    rng = np.random.default_rng(seed)
    m = rng.integers(0, p, size=(rows, cols))
    x = rng.integers(0, p, size=cols)
    v = m @ x % p
    sol = fl.solve(m, v, p)
    assert sol is not None
    assert ((m @ sol) % p == v).all()


@settings(max_examples=150, deadline=None)
@given(st.integers(0, 6), st.integers(0, 6), st.sampled_from([2, 3, 5]),
       st.booleans(), st.integers(0, 10**9))
def test_residual_map_characterizes_span(ambient, k, p, all_zero, seed):
    # Q @ v = 0 is the membership test the F-isomorphism certificate runs;
    # image_contains, one solve per vector, is the reference
    rng = np.random.default_rng(seed)
    a = np.zeros((ambient, k), dtype=np.int64)
    if not all_zero:
        a = rng.integers(0, p, size=(ambient, k))
    q = fl.residual_map(a, ambient, p)
    inside = a @ rng.integers(0, p, size=k) % p
    for v in (inside, rng.integers(0, p, size=ambient)):
        assert (not fl.matmul(q, v, p).any()) == fl.image_contains(a, v, p)


def test_rref_idempotent_and_unit_pivots():
    m = fl.as_fp_matrix([[2, 4, 1], [1, 2, 2], [0, 3, 3]], 5)
    r, piv = fl.rref(m, 5)
    r2, piv2 = fl.rref(r, 5)
    assert (r == r2).all() and piv == piv2
    for i, c in enumerate(piv):
        col = r[:, c]
        assert col[i] == 1 and (np.delete(col, i) == 0).all()


def test_quotient_data():
    rows = [np.array([1, 1, 0]), np.array([0, 0, 1])]
    nf, free = fl.quotient_data(rows, 3, 2)
    assert free == [1]
    assert not (nf @ np.array([1, 1, 0]) % 2).any()
    assert (nf @ np.array([0, 1, 0]) % 2).any()



# Loop versions of kernel_matrix, residual_map and quotient_data, kept as
# the reference for the vectorised free-column construction.

def _kernel_matrix_ref(m, p):
    a = fl.as_fp_matrix(m, p)
    rows, cols = a.shape
    if cols == 0:
        return np.zeros((0, 0), dtype=np.int64)
    if rows == 0:
        return fl.identity(cols)
    r, pivots = fl.rref(a, p)
    free = [c for c in range(cols) if c not in set(pivots)]
    basis = np.zeros((cols, len(free)), dtype=np.int64)
    for j, c in enumerate(free):
        basis[c, j] = 1
        for i, pc in enumerate(pivots):
            basis[pc, j] = (-int(r[i, c])) % p
    return basis


def _residual_map_ref(basis, ambient_dim, p):
    b = fl.as_fp_matrix(basis, p)
    if b.shape[0] != ambient_dim:
        if b.size == 0:
            b = np.zeros((ambient_dim, 0), dtype=np.int64)
        else:
            raise ValueError("dimension mismatch")
    r, pivots = fl.rref(b.T, p)
    free = [c for c in range(ambient_dim) if c not in set(pivots)]
    q = np.zeros((len(free), ambient_dim), dtype=np.int64)
    for i, c in enumerate(free):
        q[i, c] = 1
        for row, pc in enumerate(pivots):
            q[i, pc] = (-int(r[row, c])) % p
    return q


def _quotient_data_ref(rows, ambient, p):
    if not len(rows):
        return fl.identity(ambient), list(range(ambient))
    r, pivots = fl.rref(np.array(rows, dtype=np.int64), p)
    pivot_set = set(pivots)
    free = [c for c in range(ambient) if c not in pivot_set]
    nf = np.zeros((len(free), ambient), dtype=np.int64)
    for i, c in enumerate(free):
        nf[i, c] = 1
        for row, pc in enumerate(pivots):
            nf[i, pc] = (-int(r[row, c])) % p
    return nf, free


def _same(got, want):
    assert got.dtype == np.int64 and got.shape == want.shape
    assert (got == want).all()


@settings(max_examples=150, deadline=None)
@given(st.integers(0, 7), st.integers(0, 7), st.sampled_from([2, 3, 5]),
       st.booleans(), st.integers(0, 10**9))
def test_free_column_fold_matches_loops(rows, cols, p, all_zero, seed):
    rng = np.random.default_rng(seed)
    m = np.zeros((rows, cols), dtype=np.int64)
    if not all_zero:
        m = rng.integers(0, p, size=(rows, cols))
    k = fl.kernel_matrix(m, p)
    _same(k, _kernel_matrix_ref(m, p))
    assert k.flags.c_contiguous
    _same(fl.residual_map(m, rows, p), _residual_map_ref(m, rows, p))
    nf, free = fl.quotient_data(list(m), cols, p)
    nf_ref, free_ref = _quotient_data_ref(list(m), cols, p)
    _same(nf, nf_ref)
    assert free == free_ref
