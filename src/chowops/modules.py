"""Unstable modules in the Chow grading: free-module bases, Brown-Gitler
duals, finitely presented and finite (degreewise-matrix) modules, Hom
spaces, Cartan tensor products, and nilpotence-degree certification.

Two representations, one-way compiled:

* ``FPModule`` -- generators and relations; the user/data format.
* ``FiniteModule`` -- degreewise dimensions plus one matrix per (P^a,
  degree); the computation format.  A module either knows itself
  completely (``truncated_above is None``) or only through a stated
  degree, and every certification routine honours that distinction.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from . import fp_linalg as fl
from .powers import Word, excess, reduce_word, word_degree

__all__ = [
    "admissible_words_of_degree",
    "free_module_basis",
    "FiniteModule",
    "point_module",
    "brown_gitler",
    "tensor_finite",
    "FPModule",
    "free_presentation",
    "point_presentation",
    "suspension_presentation",
    "finite_to_presentation",
    "compile_presentation",
    "fp_dim",
    "HomSpace",
    "hom_space",
    "nilpotence_degree",
]


@lru_cache(maxsize=None)
def _admissible_by_sum(total: int, p: int) -> tuple[Word, ...]:
    out: list[Word] = []

    def rec(prefix, remaining, cap):
        if remaining == 0:
            out.append(tuple(prefix))
            return
        for a in range(min(remaining, cap), 0, -1):
            prefix.append(a)
            rec(prefix, remaining - a, a // p)
            prefix.pop()

    if total == 0:
        return ((),)
    rec([], total, total)
    return tuple(sorted(out))


def admissible_words_of_degree(d: int, p: int) -> tuple[Word, ...]:
    """All admissible words of Chow degree d, sorted."""
    if d < 0 or d % (p - 1):
        return ()
    return _admissible_by_sum(d // (p - 1), p)


def free_module_basis(n: int, d: int, p: int) -> list[Word]:
    """Basis of the degree-d part of the free unstable module on a degree-n
    generator: admissible words of Chow degree d - n with excess <= n."""
    if d < n:
        return []
    return [w for w in admissible_words_of_degree(d - n, p)
            if excess(w, p) <= n]


class FiniteModule:
    """Degreewise F_p vector spaces with matrices for the reduced powers.

    ``mats[(a, d)]`` sends degree d to degree d + a(p-1); shape is
    (dim target, dim source).  Missing keys are zero maps.  Degrees above
    ``truncated_above`` are unknown (None means the support shown is all
    there is).
    """

    def __init__(self, p, dims, mats, truncated_above=None, labels=None,
                 validate=True):
        self.p = fl.check_prime(p)
        self.dims = {d: int(n) for d, n in dims.items() if n}
        self.mats = {}
        for (a, d), m in mats.items():
            m = fl.as_fp_matrix(m, p)
            if m.size and m.any():
                self.mats[(a, d)] = m
        self.truncated_above = truncated_above
        self.labels = labels
        if validate:
            self._validate()

    # -- basic queries -------------------------------------------------

    def dim(self, d: int) -> int:
        return self.dims.get(d, 0)

    @property
    def support(self) -> list[int]:
        return sorted(self.dims)

    @property
    def max_degree(self) -> int:
        return max(self.dims, default=-1)

    @property
    def is_complete(self) -> bool:
        return self.truncated_above is None

    def horizon(self) -> float:
        return float("inf") if self.is_complete else self.truncated_above

    def act(self, a: int, d: int) -> np.ndarray:
        """Matrix of P^a from degree d (a = 0 is the identity)."""
        if a == 0:
            return fl.identity(self.dim(d))
        target = d + a * (self.p - 1)
        if target > self.horizon():
            if a > d:  # zero by instability into a degree we never stored
                return fl.zeros(0, self.dim(d))
            raise ValueError(
                f"P^{a} from degree {d} lands at {target}, beyond the "
                f"truncation degree {self.truncated_above}")
        m = self.mats.get((a, d))
        if m is None:
            return fl.zeros(self.dim(target), self.dim(d))
        return m

    def word_mat(self, word: Word, d: int) -> np.ndarray:
        """Matrix of the composite P^{a_1} ... P^{a_k} from degree d
        (rightmost letter acts first)."""
        final = d + word_degree(word, self.p)
        if final > self.horizon():
            raise ValueError(
                f"word {word} from degree {d} lands at {final}, beyond the "
                f"truncation degree {self.truncated_above}")
        m = fl.identity(self.dim(d))
        deg = d
        for a in reversed(word):
            if a > deg:  # instability: the composite vanishes
                return fl.zeros(self.dim(final), self.dim(d))
            m = fl.matmul(self.act(a, deg), m, self.p)
            deg += a * (self.p - 1)
        return m

    # -- validation ----------------------------------------------------

    def _validate(self):
        for (a, d), m in self.mats.items():
            if a < 1:
                raise ValueError(f"stored operation index must be >= 1, got {a}")
            target = d + a * (self.p - 1)
            if m.shape != (self.dim(target), self.dim(d)):
                raise ValueError(
                    f"P^{a} at degree {d}: shape {m.shape} != "
                    f"({self.dim(target)}, {self.dim(d)})")
            if a > d and m.any():
                raise ValueError(
                    f"instability violated: P^{a} nonzero on degree {d}")
        self._check_adem()

    def _check_adem(self):
        """Composite matrices of inadmissible pairs must match their Adem
        expansions wherever both sides are computable."""
        p = self.p
        for d in self.support:
            for b in range(1, d + 1):
                for a in range(1, p * b):
                    if d + (a + b) * (p - 1) > self.horizon():
                        continue
                    lhs = self.word_mat((a, b), d)
                    rhs = fl.zeros(*lhs.shape)
                    for w, c in reduce_word((a, b), p).items():
                        rhs = (rhs + c * self.word_mat(w, d)) % p
                    if (lhs != rhs).any():
                        raise ValueError(
                            f"Adem consistency fails for P^{a} P^{b} "
                            f"from degree {d}")

    # -- constructions -------------------------------------------------

    def suspend(self, k: int) -> "FiniteModule":
        """Shift all degrees up by k, keeping the same matrices."""
        dims = {d + k: n for d, n in self.dims.items()}
        mats = {(a, d + k): m for (a, d), m in self.mats.items()}
        t = None if self.is_complete else self.truncated_above + k
        return FiniteModule(self.p, dims, mats, truncated_above=t,
                            validate=False)

    def direct_sum(self, other: "FiniteModule") -> "FiniteModule":
        if self.p != other.p:
            raise ValueError("primes differ")
        t = None
        if not (self.is_complete and other.is_complete):
            t = int(min(self.horizon(), other.horizon()))
        dims = {}
        for d in set(self.dims) | set(other.dims):
            dims[d] = self.dim(d) + other.dim(d)
        mats = {}
        keys = set(self.mats) | set(other.mats)
        for a, d in keys:
            target = d + a * (self.p - 1)
            m = fl.zeros(dims.get(target, self.dim(target) + other.dim(target)),
                         dims.get(d, 0))
            m1 = self.act(a, d)
            m2 = other.act(a, d)
            m[: m1.shape[0], : m1.shape[1]] = m1
            m[m1.shape[0]:, m1.shape[1]:] = m2
            mats[(a, d)] = m
        return FiniteModule(self.p, dims, mats, truncated_above=t,
                            validate=False)

    def __repr__(self):
        tail = "" if self.is_complete else f", truncated above {self.truncated_above}"
        return (f"<FiniteModule p={self.p} dims="
                f"{{{', '.join(f'{d}:{n}' for d, n in sorted(self.dims.items()))}}}{tail}>")


def point_module(d: int, p: int) -> FiniteModule:
    """F_p concentrated in degree d (complete; all positive powers vanish)."""
    return FiniteModule(p, {d: 1}, {})


def brown_gitler(k: int, D: int, p: int) -> FiniteModule:
    """The degree-k Brown-Gitler dual through degree D.

    Degree i has one basis vector per element of ``free_module_basis(i, k)``
    and the P^a matrices are transposes of right multiplication by P^a on
    those free-module bases, so Hom into this module computes the dual of
    the degree-k part.  Support lies in 0..k, so the result is complete
    whenever D >= k.
    """
    top = min(k, D)
    bases = {i: free_module_basis(i, k, p) for i in range(top + 1)}
    dims = {i: len(b) for i, b in bases.items() if b}
    mats = {}
    for i in range(top + 1):
        src = bases[i]
        if not src:
            continue
        for a in range(1, i + 1):
            tgt_deg = i + a * (p - 1)
            tgt = bases.get(tgt_deg, [])
            if not tgt:
                continue
            index = {w: r for r, w in enumerate(src)}
            m = fl.zeros(len(tgt), len(src))
            for col_free, w_tgt in enumerate(tgt):
                # right multiplication F(tgt_deg)^k -> F(i)^k, then dualize
                for w, c in reduce_word(w_tgt + (a,), p).items():
                    if excess(w, p) <= i:
                        m[col_free, index[w]] = c
            # m currently holds rows indexed by target words, columns by the
            # source word each lands on; that is already the dual matrix
            if m.any():
                mats[(a, i)] = m % p
    complete = D >= k
    return FiniteModule(p, dims, mats,
                        truncated_above=None if complete else D)


def tensor_finite(m: FiniteModule, n: FiniteModule) -> FiniteModule:
    """Graded tensor product with the Cartan action
    P^a(x (x) y) = sum P^i x (x) P^{a-i} y."""
    if m.p != n.p:
        raise ValueError("primes differ")
    p = m.p
    t = None
    if not (m.is_complete and n.is_complete):
        t = int(min(m.horizon(), n.horizon()))
    top = m.max_degree + n.max_degree
    if t is not None:
        top = min(top, t)

    def blocks(d):
        return [(i, d - i) for i in sorted(m.dims)
                if 0 <= d - i and n.dim(d - i)]

    dims = {}
    offs = {}
    for d in range(top + 1):
        off, pos = {}, 0
        for i, j in blocks(d):
            off[(i, j)] = pos
            pos += m.dim(i) * n.dim(j)
        if pos:
            dims[d] = pos
            offs[d] = off
    mats = {}
    for d in sorted(dims):
        for a in range(1, d + 1):
            d2 = d + a * (p - 1)
            if d2 > top or d2 not in dims:
                continue
            mat = fl.zeros(dims[d2], dims[d])
            for (i, j), src_off in offs[d].items():
                for u in range(a + 1):
                    v = a - u
                    i2, j2 = i + u * (p - 1), j + v * (p - 1)
                    if (i2, j2) not in offs.get(d2, {}):
                        continue
                    mu = m.act(u, i)
                    nv = n.act(v, j)
                    if not (mu.any() and nv.any()):
                        continue
                    tgt_off = offs[d2][(i2, j2)]
                    block = np.kron(mu, nv) % p
                    r, c = block.shape
                    mat[tgt_off:tgt_off + r, src_off:src_off + c] = \
                        (mat[tgt_off:tgt_off + r, src_off:src_off + c] + block) % p
            if mat.any():
                mats[(a, d)] = mat
    return FiniteModule(p, dims, mats, truncated_above=t, validate=False)


# ---------------------------------------------------------------------------
# finitely presented modules


class FPModule:
    """Generators and homogeneous relations.

    Each relation is a list of terms (coeff, word, gen_index); words are
    normalized to admissible form on construction and terms whose excess
    exceeds the generator degree (identically zero in the free module) are
    stripped.
    """

    def __init__(self, p, generators, relations, name=None, support_bound=None):
        self.p = fl.check_prime(p)
        self.name = name
        # a caller-supplied promise that the module vanishes above this
        # degree; compilations cannot certify it, some routes require it
        self.support_bound = support_bound
        self.generators = []
        seen = set()
        for gname, deg in generators:
            if gname in seen:
                raise ValueError(f"duplicate generator name {gname!r}")
            if deg < 0:
                raise ValueError(f"generator {gname!r} has negative degree")
            seen.add(gname)
            self.generators.append((str(gname), int(deg)))
        self.relations = []
        for ridx, rel in enumerate(relations):
            self.relations.append(self._normalize(rel, ridx))
        self.relations = [r for r in self.relations if r]

    def _normalize(self, rel, ridx):
        p = self.p
        acc: dict[tuple[Word, int], int] = {}
        degree = None
        for tidx, (coeff, word, gi) in enumerate(rel):
            if not 0 <= gi < len(self.generators):
                raise ValueError(f"relations[{ridx}][{tidx}]: no generator {gi}")
            gdeg = self.generators[gi][1]
            d = word_degree(tuple(word), p) + gdeg
            if degree is None:
                degree = d
            elif d != degree:
                raise ValueError(
                    f"relations[{ridx}][{tidx}]: degree {d} != {degree}, "
                    "relation is not homogeneous")
            for w, c in reduce_word(tuple(word), p).items():
                if excess(w, p) > gdeg:
                    continue
                key = (w, gi)
                v = (acc.get(key, 0) + coeff * c) % p
                if v:
                    acc[key] = v
                elif key in acc:
                    del acc[key]
        return tuple(sorted((c, w, g) for (w, g), c in acc.items()))

    def gen_index(self, name: str) -> int:
        for i, (gname, _) in enumerate(self.generators):
            if gname == name:
                return i
        raise KeyError(name)

    @property
    def max_relation_degree(self) -> int:
        out = 0
        for rel in self.relations:
            for c, w, g in rel:
                out = max(out, word_degree(w, self.p) + self.generators[g][1])
        return out

    # -- JSON schema ----------------------------------------------------

    @classmethod
    def from_json(cls, data, name=None) -> "FPModule":
        from .powers import parse_operation

        for key in data:
            if key not in ("prime", "generators", "relations", "name"):
                raise ValueError(f"unknown field {key!r} in module file")
        try:
            p = data["prime"]
        except KeyError:
            raise ValueError("missing field 'prime'") from None
        gens = []
        for i, g in enumerate(data.get("generators", [])):
            try:
                gens.append((g["name"], g["degree"]))
            except (KeyError, TypeError):
                raise ValueError(f"generators[{i}]: need name and degree") from None
            fl.check_ints(g["degree"], f"generators[{i}].degree")
        names = [n for n, _ in gens]
        rels = []
        for ri, rel in enumerate(data.get("relations", [])):
            terms = []
            for ti, t in enumerate(rel):
                where = f"relations[{ri}][{ti}]"
                try:
                    coeff = t.get("coeff", 1)
                    op = t["op"]
                    gen = t["gen"]
                except (KeyError, TypeError, AttributeError):
                    raise ValueError(f"{where}: need op and gen") from None
                fl.check_ints(coeff, f"{where}.coeff")
                if gen not in names:
                    raise ValueError(f"{where}.gen: unknown generator {gen!r}")
                op = op.strip()
                if op in ("", "1"):
                    word: Word = ()
                else:
                    expr = parse_operation(op, p)
                    if len(expr.terms) != 1 or set(expr.terms.values()) != {1}:
                        raise ValueError(f"{where}.op: must be a single word")
                    word = next(iter(expr.terms))
                terms.append((coeff, word, names.index(gen)))
            rels.append(terms)
        return cls(p, gens, rels, name=data.get("name", name))

    def to_json(self):
        return {
            "prime": self.p,
            "generators": [{"name": n, "degree": d} for n, d in self.generators],
            "relations": [
                [{"coeff": int(c),
                  "op": " ".join(f"P^{a}" for a in w) if w else "1",
                  "gen": self.generators[g][0]}
                 for c, w, g in rel]
                for rel in self.relations
            ],
        }

    def __repr__(self):
        tag = f" {self.name!r}" if self.name else ""
        return (f"<FPModule{tag} p={self.p}, {len(self.generators)} generators, "
                f"{len(self.relations)} relations>")


def free_presentation(n: int, p: int, name=None) -> FPModule:
    """The free unstable module on one generator of degree n."""
    return FPModule(p, [("g", n)], [], name=name or f"free({n})")


def point_presentation(d: int, p: int) -> FPModule:
    """F_p in degree d: one generator killed by every positive power."""
    rels = [[(1, (a,), 0)] for a in range(1, d + 1)]
    return FPModule(p, [("g", d)], rels, name=f"point({d})", support_bound=d)


def suspension_presentation(m: FPModule, k: int) -> FPModule:
    """Presentation of the k-fold suspension (degree shift) of m.

    Generators move up by k; the original relations keep their words; each
    generator additionally acquires the instability relations P^a g for
    old_degree < a <= old_degree + k, which cut the larger free modules
    down to shifted copies.  Exactness of this presentation is asserted by
    the test suite against shifted compilations.
    """
    if k < 0:
        raise ValueError("suspension shift must be >= 0")
    gens = [(n, d + k) for n, d in m.generators]
    rels = [[(c, w, g) for c, w, g in rel] for rel in m.relations]
    for gi, (_, old_deg) in enumerate(m.generators):
        for a in range(old_deg + 1, old_deg + k + 1):
            rels.append([(1, (a,), gi)])
    bound = None if m.support_bound is None else m.support_bound + k
    return FPModule(m.p, gens, rels, support_bound=bound,
                    name=f"suspension({m.name or 'module'},{k})")


def finite_to_presentation(m: FiniteModule, name=None) -> FPModule:
    """Exact presentation of a complete bounded module: one generator per
    basis vector, one relation per (P^a, basis vector) recording the full
    action table (including the vanishing ones)."""
    if not m.is_complete:
        raise ValueError("only complete modules convert exactly")
    gens = []
    index = {}
    for d in m.support:
        for i in range(m.dim(d)):
            index[(d, i)] = len(gens)
            gens.append((f"e{d}_{i}", d))
    rels = []
    for d in m.support:
        for a in range(1, d + 1):
            target = d + a * (m.p - 1)
            mat = m.act(a, d)
            for i in range(m.dim(d)):
                rel = [(1, (a,), index[(d, i)])]
                for r in range(m.dim(target)):
                    c = int(mat[r, i]) if mat.size else 0
                    if c:
                        rel.append(((-c) % m.p, (), index[(target, r)]))
                rels.append(rel)
    bound = max(m.support, default=0)
    return FPModule(m.p, gens, rels, name=name, support_bound=bound)


# ---------------------------------------------------------------------------
# compilation FP -> Finite


def _free_layout(fp: FPModule, d: int):
    """Basis of the degree-d part of the covering free module, as
    (gen_index, word) pairs in deterministic order."""
    out = []
    for gi, (_, gdeg) in enumerate(fp.generators):
        for w in free_module_basis(gdeg, d, fp.p):
            out.append((gi, w))
    return out


def _relation_rows(fp: FPModule, d: int, layout, index):
    """All degree-d elements of the submodule generated by the relations:
    every admissible word applied to every relation."""
    p = fp.p
    rows = []
    for rel in fp.relations:
        rdeg = word_degree(rel[0][1], p) + fp.generators[rel[0][2]][1]
        if rdeg > d or (d - rdeg) % (p - 1):
            continue
        for u in _admissible_by_sum((d - rdeg) // (p - 1), p):
            row = np.zeros(len(layout), dtype=np.int64)
            for c, w, gi in rel:
                gdeg = fp.generators[gi][1]
                for w2, c2 in reduce_word(u + w, p).items():
                    if excess(w2, p) <= gdeg:
                        row[index[(gi, w2)]] += c * c2
            row %= p
            if row.any():
                rows.append(row)
    return rows


def compile_presentation(fp: FPModule, D: int) -> FiniteModule:
    """Materialize the presented module through degree D.

    The result is marked truncated above D: a presentation does not reveal
    whether the module vanishes beyond any finite window.
    """
    p = fp.p
    layouts, indexes, nfs, bases = {}, {}, {}, {}
    dims = {}
    for d in range(D + 1):
        layout = _free_layout(fp, d)
        index = {lab: i for i, lab in enumerate(layout)}
        layouts[d], indexes[d] = layout, index
        rows = _relation_rows(fp, d, layout, index)
        nf, free = fl.quotient_data(rows, len(layout), p)
        nfs[d] = nf
        bases[d] = [layout[c] for c in free]
        if free:
            dims[d] = len(free)
    mats = {}
    for d in range(D + 1):
        if d not in dims:
            continue
        for a in range(1, d + 1):
            d2 = d + a * (p - 1)
            if d2 > D or d2 not in dims:
                continue
            cols = []
            for gi, w in bases[d]:
                vec = np.zeros(len(layouts[d2]), dtype=np.int64)
                gdeg = fp.generators[gi][1]
                for w2, c2 in reduce_word((a,) + w, p).items():
                    if excess(w2, p) <= gdeg:
                        vec[indexes[d2][(gi, w2)]] += c2
                cols.append(fl.matmul(nfs[d2], vec % p, p))
            mat = np.stack(cols, axis=1) if cols else fl.zeros(dims[d2], 0)
            if mat.any():
                mats[(a, d)] = mat
    return FiniteModule(p, dims, mats, truncated_above=D,
                        labels={d: bases[d] for d in dims}, validate=False)


def fp_dim(fp: FPModule, d: int) -> int:
    """dim of the presented module in degree d: free dimension minus the
    rank of the degree-d relation span (independent of any Hom machinery)."""
    layout = _free_layout(fp, d)
    index = {lab: i for i, lab in enumerate(layout)}
    rows = _relation_rows(fp, d, layout, index)
    if not rows:
        return len(layout)
    return len(layout) - fl.rank(np.array(rows, dtype=np.int64), fp.p)


# ---------------------------------------------------------------------------
# Hom spaces


@dataclass
class HomSpace:
    """Basis of Hom with bookkeeping to read vectors back as assignments."""

    p: int
    dim: int
    vectors: np.ndarray  # (unknowns x dim)
    blocks: list[tuple[object, int, int]]  # (label, offset, size)

    def assignment(self, j: int) -> dict:
        v = self.vectors[:, j]
        return {lab: v[off:off + size].copy() for lab, off, size in self.blocks}


def hom_space(m, n: FiniteModule) -> HomSpace:
    """Hom over the reduced-power algebra into a finite module.

    For a presented source, a homomorphism is an assignment of each
    generator to an element of matching degree annihilating every
    relation; for a complete finite source it is a degreewise family of
    matrices commuting with the action.  Either way the answer is the
    kernel of one exact constraint matrix.
    """
    if isinstance(m, FPModule):
        return _hom_fp(m, n)
    if isinstance(m, FiniteModule):
        if not m.is_complete:
            raise ValueError("Hom from a truncated module is not determined; "
                             "compile a presentation or pass a complete module")
        return _hom_finite(m, n)
    raise TypeError(f"unsupported source {type(m).__name__}")


def _hom_fp(m: FPModule, n: FiniteModule) -> HomSpace:
    p = m.p
    blocks, offset = [], 0
    for name, d in m.generators:
        size = n.dim(d)
        blocks.append((name, offset, size))
        offset += size
    rows = []
    for rel in m.relations:
        rdeg = word_degree(rel[0][1], p) + m.generators[rel[0][2]][1]
        block_rows = fl.zeros(n.dim(rdeg), offset)
        for c, w, gi in rel:
            gdeg = m.generators[gi][1]
            mat = n.word_mat(w, gdeg)
            _, off, size = blocks[gi]
            block_rows[:, off:off + size] = \
                (block_rows[:, off:off + size] + c * mat) % p
        rows.append(block_rows)
    if rows:
        constraint = np.vstack(rows)
    else:
        constraint = fl.zeros(0, offset)
    vectors = fl.kernel_matrix(constraint, p)
    return HomSpace(p, vectors.shape[1], vectors, blocks)


def _hom_finite(m: FiniteModule, n: FiniteModule) -> HomSpace:
    p = m.p
    blocks, offset = [], 0
    coords = {}
    for d in m.support:
        size = n.dim(d) * m.dim(d)
        coords[d] = offset
        blocks.append((d, offset, size))
        offset += size
    rows = []
    for d in m.support:
        for a in range(1, d + 1):
            d2 = d + a * (p - 1)
            pn = n.act(a, d)       # N^d -> N^{d2}
            pm = m.act(a, d)       # M^d -> M^{d2}
            rdim = n.dim(d2) * m.dim(d)
            if rdim == 0:
                continue
            block = fl.zeros(rdim, offset)
            if n.dim(d) and pn.any():
                # P^a . f_d, unknowns f_d flattened row-major (N x M)
                block[:, coords[d]:coords[d] + n.dim(d) * m.dim(d)] = \
                    np.kron(pn, fl.identity(m.dim(d))) % p
            if d2 in coords and m.dim(d2) and pm.any():
                contrib = np.kron(fl.identity(n.dim(d2)), pm.T) % p
                block[:, coords[d2]:coords[d2] + n.dim(d2) * m.dim(d2)] = \
                    (block[:, coords[d2]:coords[d2] + n.dim(d2) * m.dim(d2)]
                     - contrib) % p
            if block.any():
                rows.append(block)
    constraint = np.vstack(rows) if rows else fl.zeros(0, offset)
    vectors = fl.kernel_matrix(constraint, p)
    return HomSpace(p, vectors.shape[1], vectors, blocks)


# ---------------------------------------------------------------------------
# nilpotence


def nilpotence_degree(m, D: int):
    """Largest certified n <= D such that the lowering operators
    x -> P^{deg x - j} x are locally nilpotent for every j < n.

    Returns (n, verdict): verdict is "exact" when level n definitively
    fails (a nonzero degree-n part is fixed by P^0), "at-least" when the
    scan merely ran out of certified window.
    """
    if isinstance(m, FPModule):
        m = compile_presentation(m, m.p * max(D, 1))
    p = m.p

    def orbit_dies(j, e):
        """True / False(unknown) : every degree-e vector iterates to zero."""
        if m.dim(e) == 0:
            return True
        if m.is_complete:
            return True  # degree climbs strictly, support is finite
        deg = e
        space = fl.identity(m.dim(e))
        while space.shape[1]:
            nxt = deg + (deg - j) * (p - 1)
            if nxt > m.horizon():
                return False
            space = fl.matmul(m.act(deg - j, deg), space, p)
            # drop columns already dead
            live = [c for c in range(space.shape[1]) if space[:, c].any()]
            space = space[:, live]
            deg = nxt
        return True

    for j in range(D + 1):
        if m.dim(j):
            return j, "exact"
        resolved = all(orbit_dies(j, e) for e in m.support if j < e <= D)
        if not resolved:
            return j, "at-least"
    return D, "at-least"
