import pathlib

import pytest

from chowops import fp_linalg as fl
from chowops.chow import elem_abelian_ring, poly_add, poly_mul_raw, truncate
from chowops.modules import (FiniteModule, brown_gitler,
                             finite_to_presentation, point_module,
                             point_presentation, suspension_presentation)

DATA = pathlib.Path(__file__).resolve().parent.parent / "data"


@pytest.fixture(scope="session")
def data_dir():
    return DATA


def fp_test_modules(p):
    """The five fixed presented test modules used across the suite."""
    line = finite_to_presentation(truncate(elem_abelian_ring(1, p), 4),
                                  name="trunc-line")
    plane = finite_to_presentation(truncate(elem_abelian_ring(2, p), 3),
                                   name="trunc-plane")
    return [
        point_presentation(2, p),
        finite_to_presentation(brown_gitler(3, 10, p), name="bg3"),
        line,
        suspension_presentation(
            finite_to_presentation(truncate(elem_abelian_ring(1, p), 3),
                                   name="short-line"), 2),
        plane,
    ]


def mixed_test_modules(p):
    """Three bounded modules with nilpotence degrees 1, 2, 3."""
    line = finite_to_presentation(truncate(elem_abelian_ring(1, p), 4),
                                  name="trunc-line")
    m1 = suspension_presentation(line, 1)
    m2 = suspension_presentation(
        finite_to_presentation(truncate(elem_abelian_ring(1, p), 3)), 2)
    m3 = finite_to_presentation(
        direct_sum(point_module(3, p), point_module(5, p)), name="two-points")
    return [(m1, 1), (m2, 2), (m3, 3)]


def apply(rm, f):
    """The image of the polynomial f under the ring map rm, expanded term
    by term from the generator images: the reference for rm.matrix."""
    target, p = rm.target, rm.target.p
    out = {}
    for m, c in f.items():
        term = {tuple([0] * target.k): c % p}
        for i, e in enumerate(m):
            for _ in range(e):
                term = poly_mul_raw(term, rm.images[i], p)
        out = poly_add(out, term, p)
    return target.normal_form(out)


def check_commutes(rm, max_degree: int = 6) -> bool:
    """P^a naturality of the ring map `rm` on generators through the
    stated window."""
    source, target = rm.source, rm.target
    for i in range(source.k):
        g = source.gen_poly(i)
        for a in range(1, source.gen_degree(i) + 1):
            if source.gen_degree(i) + a * (source.p - 1) > max_degree:
                continue
            if apply(rm, source.act(a, g)) != target.act(a, apply(rm, g)):
                return False
    return True


def suspend(m: FiniteModule, k: int) -> FiniteModule:
    """Shift all degrees of `m` up by k, keeping the same matrices."""
    dims = {d + k: n for d, n in m.dims.items()}
    mats = {(a, d + k): mat for (a, d), mat in m.mats.items()}
    t = None if m.is_complete else m.truncated_above + k
    return FiniteModule(m.p, dims, mats, truncated_above=t, validate=False)


def direct_sum(m1: FiniteModule, m2: FiniteModule) -> FiniteModule:
    """m1 (+) m2, each operation block-diagonal."""
    if m1.p != m2.p:
        raise ValueError("primes differ")
    t = None
    if not (m1.is_complete and m2.is_complete):
        t = int(min(m1.horizon(), m2.horizon()))
    dims = {d: m1.dim(d) + m2.dim(d) for d in set(m1.dims) | set(m2.dims)}
    mats = {}
    for a, d in set(m1.mats) | set(m2.mats):
        target = d + a * (m1.p - 1)
        mat = fl.zeros(dims.get(target, m1.dim(target) + m2.dim(target)),
                       dims.get(d, 0))
        a1, a2 = m1.act(a, d), m2.act(a, d)
        mat[: a1.shape[0], : a1.shape[1]] = a1
        mat[a1.shape[0]:, a1.shape[1]:] = a2
        mats[(a, d)] = mat
    return FiniteModule(m1.p, dims, mats, truncated_above=t, validate=False)
