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


@pytest.mark.parametrize("p", [2, 3, 5, 4294967311])
def test_binom_table_is_pascals_triangle_mod_p(p):
    table = fl.binom_table(20, 7, p)
    assert table.shape == (21, 8)
    assert table.tolist() == [[math.comb(t, s) % p for s in range(8)]
                              for t in range(21)]


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


@settings(max_examples=100, deadline=None)
@given(st.integers(0, 8), st.integers(0, 8),
       st.sampled_from([2, 3, 5, 7, 65521]), st.integers(0, 10**9))
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


def _matmul_ref(a, b, p):
    """a @ b mod p in Python integers; b may be a vector."""
    cols = (b[:, None] if b.ndim == 1 else b).T.tolist()
    out = np.array([[sum(x * y for x, y in zip(row, col)) % p
                     for col in cols] for row in a.tolist()],
                   dtype=np.int64).reshape(a.shape[0], len(cols))
    return out[:, 0] if b.ndim == 1 else out


@settings(max_examples=200, deadline=None)
@given(st.integers(0, 6), st.integers(0, 6), st.integers(0, 6),
       st.booleans(), st.sampled_from([2, 3, 5, 7, 65521]),
       st.integers(0, 10**9))
def test_matmul_matches_integer_reference(rows, inner, cols, vector, p, seed):
    # entries in (-p, p): unreduced and negative operands stay exact
    rng = np.random.default_rng(seed)
    a = rng.integers(-p + 1, p, size=(rows, inner))
    b = rng.integers(-p + 1, p, size=inner if vector else (inner, cols))
    _same(fl.matmul(a, b, p), _matmul_ref(a, b, p))


def test_matmul_exact_at_the_float_bound():
    # inner * (p - 1)^2 < 2^53 holds at `edge` and fails one past it
    p = fl.check_prime(1048573)
    edge = (2**53 - 1) // (p - 1) ** 2
    for inner in (edge, edge + 1):
        a = np.full((2, inner), p - 1)
        b = np.full((inner, 3), p - 1)
        _same(fl.matmul(a, b, p), _matmul_ref(a, b, p))
    # one past the bound, a sum that float64 cannot hold: exact only
    # because the int64 product is taken
    a[1, -1] = b[-1, 2] = p - 2
    total = edge * (p - 1) ** 2 + (p - 2) ** 2
    assert float(total) != total
    got = fl.matmul(a, b, p)
    _same(got, _matmul_ref(a, b, p))
    assert got[1, 2] == total % p


@settings(max_examples=100, deadline=None)
@given(st.integers(0, 4), st.integers(0, 4), st.integers(0, 4),
       st.integers(0, 4), st.sampled_from([2, 3, 5]), st.integers(0, 10**9))
def test_kron_matches_numpy(ra, ca, rb, cb, p, seed):
    rng = np.random.default_rng(seed)
    a = rng.integers(0, p, size=(ra, ca))
    b = rng.integers(0, p, size=(rb, cb))
    _same(fl.kron(a, b, p), np.kron(a, b) % p)


def test_kron_reduces_inputs_and_refuses_overflowing_primes():
    p = 3037000493  # the largest prime with (p - 1)^2 < 2^63
    assert fl.kron([[-1, p + 2]], [[p - 1], [2 * p]], p).tolist() == \
        [[1, p - 2], [0, 0]]
    with pytest.raises(ValueError, match="prime 3037000507"):
        fl.kron([[3037000506]], [[3037000506]], 3037000507)


# Elimination against a Gauss-Jordan reference in Python integers, COO
# input, and primes past int64 products

def _draw_matrix(rows, cols, kind, p, seed):
    rng = np.random.default_rng(seed)
    m = rng.integers(0, p, size=(rows, cols))
    if kind == "sparse":    # at most 1% nonzero
        m[rng.random((rows, cols)) >= 0.01] = 0
    elif kind == "zero":
        m[:] = 0
    return m


@settings(max_examples=200, deadline=None)
@given(st.integers(0, 60), st.integers(0, 60),
       st.sampled_from(["dense", "sparse", "zero"]),
       st.sampled_from([2, 3, 5, 7]), st.integers(0, 10**9))
def test_elimination_matches_reference(rows, cols, kind, p, seed):
    m = _draw_matrix(rows, cols, kind, p, seed)
    r_ref, pivots_ref = _rref_reference(m.tolist(), p)
    r, pivots = fl.rref(m, p)
    assert pivots == pivots_ref
    assert r.dtype == np.int64 and r.shape == m.shape
    assert r.tolist() == r_ref
    assert fl.rank(m, p) == len(pivots_ref)
    k = np.array(_kernel_reference(r_ref, pivots_ref, cols, p),
                 dtype=np.int64).reshape(cols, cols - len(pivots_ref))
    _same(fl.kernel_matrix(m, p), k)


@pytest.mark.parametrize("shape", [(0, 5), (5, 0), (0, 0)])
def test_rank_of_empty_matrices(shape):
    none = np.zeros(0, dtype=np.int64)
    assert fl.rank(np.zeros(shape, dtype=np.int64), 3) == 0
    assert fl.rank((none, none, none), 3, shape) == 0


@settings(max_examples=100, deadline=None)
@given(st.integers(0, 30), st.integers(0, 30),
       st.sampled_from(["dense", "sparse", "zero"]),
       st.sampled_from([2, 3, 5, 7]), st.integers(0, 10**9))
def test_rank_of_triplets_matches_dense(rows, cols, kind, p, seed):
    # the triplets come shuffled, every entry split into two summands that
    # add up mod p (one of them unreduced or negative), plus a cancelling
    # pair at an entry that is zero
    m = _draw_matrix(rows, cols, kind, p, seed)
    rng = np.random.default_rng(seed + 1)
    r, c = np.nonzero(m)
    part = rng.integers(-p, 2 * p, size=len(r))
    rr, cc = np.concatenate([r, r]), np.concatenate([c, c])
    vv = np.concatenate([part, m[r, c] - part])
    zero = np.argwhere(m == 0)
    if len(zero):
        (zr, zc), v = zero[0], int(rng.integers(1, p))
        rr, cc = np.append(rr, [zr, zr]), np.append(cc, [zc, zc])
        vv = np.append(vv, [v, p - v])
    order = rng.permutation(len(rr))
    coo = (rr[order], cc[order], vv[order])
    assert fl.rank(coo, p, m.shape) == fl.rank(m, p)


def _rref_reference(rows, p):
    """(R, pivot columns) of a list of integer rows mod p, by Gauss-Jordan
    elimination in Python integers, the first row holding each column
    taken as its pivot; R is a list of rows."""
    rows = [[x % p for x in row] for row in rows]
    pivots = []
    for c in range(len(rows[0]) if rows else 0):
        found = len(pivots)
        piv = next((i for i in range(found, len(rows)) if rows[i][c]), None)
        if piv is None:
            continue
        rows[found], rows[piv] = rows[piv], rows[found]
        inv = pow(rows[found][c], -1, p)
        rows[found] = [x * inv % p for x in rows[found]]
        for i in range(len(rows)):
            if i != found and rows[i][c]:
                f = rows[i][c]
                rows[i] = [(x - f * y) % p for x, y in zip(rows[i], rows[found])]
        pivots.append(c)
    return rows, pivots


def _kernel_reference(r, pivots, cols, p):
    """The (cols x dim) right kernel from the reference's (R, pivots), as
    nested lists: one column per non-pivot column c, with a 1 at c and
    -R[i, c] mod p at the i-th pivot."""
    free = [c for c in range(cols) if c not in pivots]
    basis = [[0] * len(free) for _ in range(cols)]
    for j, c in enumerate(free):
        basis[c][j] = 1
        for i, pc in enumerate(pivots):
            basis[pc][j] = -r[i][c] % p
    return basis


@pytest.mark.parametrize("p", [4294967311, 2**61 - 1])
def test_elimination_exact_where_int64_products_overflow(p):
    # rref, kernels and residual maps at primes whose residues multiply
    # past 2^63: full-rank draws with entries up to p - 1, and rank-2
    # products of a 3x2 and a 2x3 factor
    rng = np.random.default_rng(23)
    draws = [[[int(x) for x in row] for row in rng.integers(0, p, shape)]
             for shape in ((3, 5), (5, 3), (4, 4)) for _ in range(10)]
    for _ in range(10):
        left = [[int(x) for x in row] for row in rng.integers(1, p, (3, 2))]
        right = [[int(x) for x in row] for row in rng.integers(1, p, (2, 3))]
        draws.append([[sum(a * b for a, b in zip(row, col)) % p
                       for col in zip(*right)] for row in left])
    for m in draws:
        a = np.array(m, dtype=np.int64)
        r_ref, pivots_ref = _rref_reference(m, p)
        r, pivots = fl.rref(a, p)
        assert pivots == pivots_ref and r.tolist() == r_ref
        assert fl.kernel_matrix(a, p).tolist() == \
            _kernel_reference(r_ref, pivots_ref, len(m[0]), p)
        # the residual map of a span is the kernel construction on its
        # transpose, transposed
        t = [list(col) for col in zip(*m)]
        assert fl.residual_map(a, len(m), p).T.tolist() == \
            _kernel_reference(*_rref_reference(t, p), len(m), p)


@pytest.mark.parametrize("p", [4294967311, 2**61 - 1])
def test_rank_exact_where_int64_products_overflow(p):
    # rank-2 3x3 matrices, products of a 3x2 and a 2x3 factor, at primes
    # whose residues multiply past 2^63
    rng = np.random.default_rng(18)
    for _ in range(100):
        left = [[int(x) for x in row] for row in rng.integers(1, p, (3, 2))]
        right = [[int(x) for x in row] for row in rng.integers(1, p, (2, 3))]
        m = [[sum(a * b for a, b in zip(row, col)) % p
              for col in zip(*right)] for row in left]
        want = len(_rref_reference(m, p)[1])
        assert want == 2
        assert fl.rank(np.array(m, dtype=np.int64), p) == want
    assert fl.rank([[p - 1, p - 1], [1, 1]], p) == 1
    assert fl.rank([[p - 1, p - 2], [1, 1]], p) == 2


@settings(max_examples=100, deadline=None)
@given(st.integers(0, 8), st.integers(0, 8), st.integers(0, 4),
       st.sampled_from([2, 3, 5, 7]), st.integers(0, 10**9))
def test_coo_matmul_matches_dense(rows, inner, cols, p, seed):
    rng = np.random.default_rng(seed)
    a = rng.integers(0, p, size=(rows, inner))
    b = rng.integers(0, p, size=(inner, cols))
    r, c = np.nonzero(a)
    _same(fl.coo_matmul((r, c, a[r, c]), a.shape, b, p), _matmul_ref(a, b, p))


def test_coo_matmul_refuses_overflowing_primes():
    with pytest.raises(ValueError, match="prime 4294967311"):
        fl.coo_matmul(([0], [0], [1]), (1, 1), [[1]], 4294967311)
