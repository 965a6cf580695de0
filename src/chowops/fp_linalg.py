"""Exact linear algebra over the prime field F_p.

Matrices are 2-D numpy int64 arrays with entries reduced to 0..p-1; all
arithmetic is integer-exact (no floating point anywhere).  Every function
here is pure: inputs are never mutated and results are deterministic, so
concurrent read-only use is safe.
"""

from __future__ import annotations

import numpy as np

__all__ = [
    "check_prime",
    "check_ints",
    "binom_mod_p",
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


def as_fp_matrix(entries, p: int) -> np.ndarray:
    """Coerce to a canonical int64 matrix with entries in 0..p-1."""
    m = np.array(entries, dtype=np.int64)
    if m.ndim == 1:
        m = m.reshape(1, -1) if m.size else m.reshape(0, 0)
    if m.ndim != 2:
        raise ValueError(f"expected a 2-D matrix, got shape {m.shape}")
    return np.ascontiguousarray(m % p)


def zeros(rows: int, cols: int) -> np.ndarray:
    return np.zeros((rows, cols), dtype=np.int64)


def identity(n: int) -> np.ndarray:
    return np.eye(n, dtype=np.int64)


def rref(m, p: int):
    """Reduced row echelon form.  Returns (R, pivot_columns); m is not mutated.

    One pivot column at a time; each step clears the whole column with one
    vectorised row update."""
    a = as_fp_matrix(m, p)
    rows, cols = a.shape
    r = 0
    pivots = []
    for c in range(cols):
        if r == rows:
            break
        nz = np.nonzero(a[r:, c])[0]
        if nz.size == 0:
            continue
        piv = r + nz[0]
        if piv != r:
            a[[r, piv]] = a[[piv, r]]
        v = int(a[r, c])
        if v != 1:
            a[r] = (a[r] * pow(v, -1, p)) % p
        col = a[:, c].copy()
        col[r] = 0
        mask = col != 0
        if mask.any():
            a[mask] = (a[mask] - np.outer(col[mask], a[r])) % p
        pivots.append(c)
        r += 1
    return a, pivots


def rank(m, p: int) -> int:
    return len(rref(m, p)[1])


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


def matmul(a, b, p: int) -> np.ndarray:
    """Exact product mod p.  Guards against int64 overflow for large p."""
    a = np.asarray(a, dtype=np.int64)
    b = np.asarray(b, dtype=np.int64)
    inner = a.shape[-1]
    if inner and (p - 1) ** 2 > (2**62) // inner:
        raise ValueError(f"prime {p} too large for exact int64 matmul")
    return (a @ b) % p
