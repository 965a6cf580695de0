"""Exact linear algebra over the prime field F_p.

Matrices are 2-D numpy int64 arrays with entries reduced to 0..p-1, and
every result is exact.  Elimination has one form: a sparse echelon pass
on dict rows in Python integers, exact at any prime, which takes columns
in ascending order and pivots on the shortest row holding each.  `rank`
counts its pivots, and takes a matrix as COO triplets too; `rref`
back-substitutes after it, and the kernels, solves and quotient maps are
built on `rref`.  `matmul` multiplies in float64 (so through BLAS) only
when every partial sum is an integer below 2^53, which float64
represents exactly in any summation order; otherwise it multiplies in
int64.  Every function here is pure: inputs are never mutated and
results are deterministic, so concurrent read-only use is safe.
"""

from __future__ import annotations

import numpy as np

__all__ = [
    "check_prime",
    "check_ints",
    "binom_mod_p",
    "binom_table",
    "as_fp_matrix",
    "zeros",
    "identity",
    "rref",
    "rank",
    "kernel_basis",
    "kernel_matrix",
    "image_contains",
    "solve",
    "residual_map",
    "quotient_data",
    "matmul",
    "coo_matmul",
    "kron",
]


def check_prime(p: int) -> int:
    """Validate a session prime; raised errors name the offending value."""
    if not isinstance(p, (int, np.integer)) or p < 2:
        raise ValueError(f"prime must be an integer >= 2, got {p!r}")
    n = int(p)
    d = 2
    while d * d <= n:
        if n % d == 0:
            raise ValueError(f"{n} is not prime")
        d += 1
    return n


def check_ints(value, where: str, depth: int = 0) -> None:
    """Refuse anything but integers nested `depth` lists deep, naming the
    field path `where`; JSON booleans and floats are refused rather than
    truncated."""
    if depth:
        if not isinstance(value, list):
            raise ValueError(f"{where}: expected a list, got {value!r}")
        for i, x in enumerate(value):
            check_ints(x, f"{where}[{i}]", depth - 1)
    elif isinstance(value, bool) or not isinstance(value, int):
        raise ValueError(f"{where}: expected an integer, got {value!r}")


def binom_mod_p(n: int, k: int, p: int) -> int:
    """C(n, k) mod p by Lucas's theorem; 0 when k > n or k < 0."""
    if k < 0 or k > n:
        return 0
    result = 1
    while n or k:
        ni, ki = n % p, k % p
        if ki > ni:
            return 0
        num = den = 1
        for t in range(ki):
            num = num * (ni - t) % p
            den = den * (t + 1) % p
        result = result * num * pow(den, -1, p) % p
        n //= p
        k //= p
    return result


def binom_table(n: int, m: int, p: int) -> np.ndarray:
    """Pascal's triangle mod p: entry (t, s) is C(t, s) mod p, for t <= n
    and s <= m, zero where s > t."""
    table = zeros(n + 1, m + 1)
    table[:, 0] = 1
    for t in range(1, n + 1):
        table[t, 1:] = (table[t - 1, 1:] + table[t - 1, :-1]) % p
    return table


def as_fp_matrix(entries, p: int) -> np.ndarray:
    """Coerce to a canonical int64 matrix with entries in 0..p-1."""
    m = np.array(entries, dtype=np.int64, order="C")
    if m.ndim == 1:
        m = m.reshape(1, -1) if m.size else m.reshape(0, 0)
    if m.ndim != 2:
        raise ValueError(f"expected a 2-D matrix, got shape {m.shape}")
    m %= p
    return m


def zeros(rows: int, cols: int) -> np.ndarray:
    return np.zeros((rows, cols), dtype=np.int64)


def identity(n: int) -> np.ndarray:
    return np.eye(n, dtype=np.int64)


def _dict_rows(rows, cols, vals, p: int):
    """Row index -> {column: residue}, in Python integers, from COO
    triplets; repeated entries add, and entries that sum to 0 are
    dropped."""
    table = {}
    for r, c, v in zip(rows.tolist(), cols.tolist(), vals.tolist()):
        row = table.setdefault(r, {})
        x = (row.get(c, 0) + v) % p
        if x:
            row[c] = x
        else:
            row.pop(c, None)
    return table


def _subtract(table, r, pivot_row, c, where, p: int) -> None:
    """Row r minus its entry at c times pivot_row, whose entry at c is 1,
    keeping `where` (column -> rows holding it) in step."""
    row = table[r]
    f = row[c]
    for k, v in pivot_row.items():
        x = (row.get(k, 0) - f * v) % p
        if x:
            if k not in row:
                where[k].add(r)
            row[k] = x
        elif k in row:
            del row[k]
            where[k].discard(r)


def _echelon(table, p: int):
    """The forward pass of elimination over the dict rows `table`, in place.

    Columns are taken in ascending order.  Each pivots on the shortest
    row that holds it and is not yet a pivot row, scales that row to a
    leading 1 and clears the column from the other such rows; only
    columns to the right fill in, which keeps the fill low on the almost
    empty matrices this serves.  Returns the pivots as (column, row index)
    pairs in ascending column order, and the index column -> rows holding
    it, which by then names pivot rows only: every other row is zero."""
    where = {}
    for r, row in table.items():
        for c in row:
            where.setdefault(c, set()).add(r)
    pivots, done = [], set()
    for c in sorted(where):
        holders = [r for r in where[c] if r not in done]
        if not holders:
            continue
        r = min(holders, key=lambda i: len(table[i]))
        row = table[r]
        if row[c] != 1:
            inv = pow(row[c], -1, p)
            table[r] = row = {k: v * inv % p for k, v in row.items()}
        for r2 in holders:
            if r2 != r:
                _subtract(table, r2, row, c, where, p)
        done.add(r)
        pivots.append((c, r))
    return pivots, where


def rref(m, p: int):
    """Reduced row echelon form.  Returns (R, pivot_columns); m is not mutated.

    The forward pass of `rank`, then back-substitution from the last pivot
    up, each pivot row subtracted only from the rows that hold its column.
    R is written over the reduced copy of m, in the shape of m."""
    a = as_fp_matrix(m, p)
    rows, cols = np.nonzero(a)
    table = _dict_rows(rows, cols, a[rows, cols], p)
    pivots, where = _echelon(table, p)
    for c, r in reversed(pivots):
        for r2 in list(where[c]):
            if r2 != r:
                _subtract(table, r2, table[r], c, where, p)
    entries = [(i, c, v) for i, (_, r) in enumerate(pivots)
               for c, v in table[r].items()]
    a.fill(0)
    if entries:
        rows, cols, vals = zip(*entries)
        a[rows, cols] = vals
    return a, [c for c, _ in pivots]


def rank(m, p: int, shape=None) -> int:
    """Rank over F_p, exact at any prime: the number of pivots of one
    forward pass of sparse elimination on dict rows in Python integers.

    `m` is a dense matrix or, when `shape` is given, the COO triplets
    (rows, cols, vals) of a matrix of that shape; repeated entries add.
    Columns are taken in ascending order, each pivoting on the shortest
    row that holds it."""
    if shape is None:
        a = as_fp_matrix(m, p)
        rows, cols = np.nonzero(a)
        vals = a[rows, cols]
    else:
        rows, cols, vals = (np.asarray(x) for x in m)
    return len(_echelon(_dict_rows(rows, cols, vals, p), p)[0])


def _free_rows(rows, ambient: int, p: int):
    """Row-reduce `rows` (spanning a subspace of F_p^ambient) and return
    (q, free): `free` lists the non-pivot columns in ascending order, and
    q has one row per free column c, with a 1 at c and -R[i, c] at the i-th
    pivot column.  q @ v is the canonical residual of v modulo the row
    space, so the row space is exactly ker q."""
    r, pivots = rref(rows, p)
    pivot_set = set(pivots)
    free = [c for c in range(ambient) if c not in pivot_set]
    q = np.zeros((len(free), ambient), dtype=np.int64)
    q[np.arange(len(free)), free] = 1
    q[:, pivots] = (-r[:len(pivots), free].T) % p
    return q, free


def kernel_matrix(m, p: int) -> np.ndarray:
    """Right kernel as a (cols x dim) matrix, echelonized, deterministic order.

    Free columns are taken in ascending order; each basis vector has a 1 in
    its free coordinate and zeros in the other free coordinates.
    """
    a = as_fp_matrix(m, p)
    rows, cols = a.shape
    if cols == 0:
        return np.zeros((0, 0), dtype=np.int64)
    if rows == 0:
        return identity(cols)
    return np.ascontiguousarray(_free_rows(a, cols, p)[0].T)


def kernel_basis(m, p: int) -> list[np.ndarray]:
    k = kernel_matrix(m, p)
    return [k[:, j].copy() for j in range(k.shape[1])]


def solve(m, v, p: int):
    """One solution x of m @ x = v, or None if v is outside the column span."""
    a = as_fp_matrix(m, p)
    b = np.asarray(v, dtype=np.int64) % p
    if b.shape != (a.shape[0],):
        raise ValueError(f"dimension mismatch: matrix {a.shape}, vector {b.shape}")
    aug = np.hstack([a, b.reshape(-1, 1)])
    r, pivots = rref(aug, p)
    if a.shape[1] in pivots:
        return None
    x = np.zeros(a.shape[1], dtype=np.int64)
    for i, c in enumerate(pivots):
        x[c] = r[i, -1]
    return x


def image_contains(m, v, p: int) -> bool:
    """True iff v lies in the column span of m."""
    return solve(m, v, p) is not None


def residual_map(basis, ambient_dim: int, p: int) -> np.ndarray:
    """Matrix Q with ker Q = column span of `basis` (shape ambient x k).

    Q has one row per non-pivot coordinate of the span; Q @ v gives the
    canonical residual of v modulo the subspace, so v is in the span iff
    Q @ v = 0.  Used for quotient coordinates and normal forms.
    """
    b = as_fp_matrix(basis, p)
    if b.shape[0] != ambient_dim:
        if b.size == 0:
            b = np.zeros((ambient_dim, 0), dtype=np.int64)
        else:
            raise ValueError(
                f"basis rows {b.shape[0]} != ambient dimension {ambient_dim}")
    return _free_rows(b.T, ambient_dim, p)[0]


def quotient_data(rows, ambient: int, p: int):
    """From spanning rows of a subspace of F_p^ambient, return (nf, free):
    `free` lists the non-pivot coordinates (ascending) and `nf` maps ambient
    coordinates onto canonical quotient coordinates indexed by `free`, with
    the subspace as its kernel."""
    if not len(rows):
        return identity(ambient), list(range(ambient))
    return _free_rows(np.array(rows, dtype=np.int64), ambient, p)


def _abs_max(m: np.ndarray) -> int:
    return max(int(m.max()), -int(m.min()))


def matmul(a, b, p: int) -> np.ndarray:
    """Exact product mod p, reduced to 0..p-1.

    A matrix-matrix product is taken in float64, through BLAS, when
    inner * max|a| * max|b| < 2^53: every partial sum is then an integer
    that float64 holds exactly, whatever the summation order, so entries
    need not be reduced first.  The bound is measured on the entries, not
    derived from p.  Matrix-vector products, where converting costs as
    much as multiplying, and products past that bound are taken in int64,
    which refuses primes large enough to overflow it.
    """
    a = np.asarray(a, dtype=np.int64)
    b = np.asarray(b, dtype=np.int64)
    inner = a.shape[-1]
    if (b.ndim == 2 and a.size and b.size
            and inner * _abs_max(a) * _abs_max(b) < 2**53):
        return (a.astype(np.float64) @ b.astype(np.float64)
                ).astype(np.int64) % p
    if inner and (p - 1) ** 2 > (2**62) // inner:
        raise ValueError(f"prime {p} too large for exact int64 matmul")
    return (a @ b) % p


def coo_matmul(m, shape, b, p: int) -> np.ndarray:
    """Exact product mod p of the COO triplets m = (rows, cols, vals) of a
    matrix of `shape` with the dense matrix b, reduced to 0..p-1.  The
    products accumulate in int64, so, as in `matmul`, primes large enough
    to overflow it are refused."""
    rows, cols, vals = (np.asarray(x, dtype=np.int64) for x in m)
    b = np.asarray(b, dtype=np.int64)
    inner = shape[1]
    if inner and (p - 1) ** 2 > (2**62) // inner:
        raise ValueError(f"prime {p} too large for exact int64 matmul")
    out = np.zeros((shape[0], b.shape[1]), dtype=np.int64)
    # about 2^18 products at a time, so the temporaries stay small
    step = max(1, 2**18 // max(1, b.shape[1]))
    for s in range(0, len(rows), step):
        np.add.at(out, rows[s:s + step],
                  vals[s:s + step, None] * b[cols[s:s + step]])
    return np.remainder(out, p, out=out)


def kron(a, b, p: int) -> np.ndarray:
    """Kronecker product mod p: block (i, j) is a[i, j] * b.  The inputs
    are reduced first, so each entry is one int64 product of residues,
    which refuses primes with (p - 1)^2 >= 2^63."""
    if (p - 1) ** 2 >= 2**63:
        raise ValueError(f"prime {p} too large for exact int64 kron")
    a = np.asarray(a, dtype=np.int64) % p
    b = np.asarray(b, dtype=np.int64) % p
    (ra, ca), (rb, cb) = a.shape, b.shape
    return ((a[:, None, :, None] * b[None, :, None, :]) % p).reshape(
        ra * rb, ca * cb)
