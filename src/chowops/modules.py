"""Unstable modules in the Chow grading: free-module bases, Brown-Gitler
duals, finitely presented and finite (degreewise-matrix) modules, Hom
spaces out of presented modules, Cartan tensor products, and
nilpotence-degree certification.

Two representations, one-way compiled:

* ``FPModule`` -- generators and relations; the user/data format.
* ``FiniteModule`` -- degreewise dimensions plus one matrix per (P^a,
  degree); the computation format.  A module either knows itself
  completely (``truncated_above is None``) or only through a stated
  degree, and every certification routine honours that distinction.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cache, lru_cache

import numpy as np

from . import fp_linalg as fl
from .powers import Word, excess, reduce_word, word_degree

__all__ = [
    "admissible_words_of_degree",
    "free_module_basis",
    "FiniteModule",
    "brown_gitler",
    "tensor_finite",
    "FPModule",
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
    there is).  Given ``fill``, a function (a, d) -> matrix, the matrices
    between degrees of the support within the horizon are built by it
    when first read: one by `act`, and all that are left when ``mats`` is
    read.
    """

    def __init__(self, p, dims, mats, truncated_above=None, validate=True,
                 fill=None):
        self.p = fl.check_prime(p)
        self.dims = {d: int(n) for d, n in dims.items() if n}
        self.truncated_above = truncated_above
        self._mats = {}
        for key, m in mats.items():
            self._keep(key, m)
        self._fill = fill
        self._unread = set() if fill is None else {
            (a, d) for d in self.dims for a in range(1, d + 1)
            if d + a * (self.p - 1) in self.dims
            and d + a * (self.p - 1) <= self.horizon()}
        self._dies = {}
        if validate:
            self._validate()

    def _keep(self, key, m):
        """Store a nonzero matrix; a canonical one as given, not copied."""
        if not (isinstance(m, np.ndarray) and m.dtype == np.int64
                and m.ndim == 2
                and (not m.size or 0 <= m.min() and m.max() < self.p)):
            m = fl.as_fp_matrix(m, self.p)
        if m.size and m.any():
            self._mats[key] = m

    def _read(self, key):
        if key in self._unread:
            self._unread.remove(key)
            self._keep(key, self._fill(*key))
        return self._mats.get(key)

    @property
    def mats(self) -> dict:
        """Every nonzero action matrix, filling those not read yet."""
        for key in list(self._unread):
            self._read(key)
        return self._mats

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
        m = self._read((a, d))
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

    def dies(self, j: int, e: int) -> np.ndarray:
        """Basis of the degree-e vectors that the lowering operators
        x -> P^{deg x - j} x certifiably send to zero inside the window:
        all of degree e when e < j, none when e == j.  Kept per (j, e); a
        module does not change after construction."""
        key = (j, e)
        if key not in self._dies:
            n = self.dim(e)
            if n == 0:
                out = fl.zeros(0, 0)
            elif e == j:
                out = fl.zeros(n, 0)
            elif e < j:
                out = fl.identity(n)
            else:
                s = e + (e - j) * (self.p - 1)
                if s > self.horizon():
                    # cannot evaluate the next step: nothing is certified
                    out = fl.zeros(n, 0)
                else:
                    mat = self.act(e - j, e)
                    if not mat.any():
                        out = fl.identity(n)
                    else:
                        span = self.dies(j, s)
                        # the residual of an empty span is the identity
                        if span.shape[1]:
                            mat = fl.matmul(
                                fl.residual_map(span, self.dim(s), self.p),
                                mat, self.p)
                        out = fl.kernel_matrix(mat, self.p)
            self._dies[key] = out
        return self._dies[key]

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

    def __repr__(self):
        tail = "" if self.is_complete else f", truncated above {self.truncated_above}"
        return (f"<FiniteModule p={self.p} dims="
                f"{{{', '.join(f'{d}:{n}' for d, n in sorted(self.dims.items()))}}}{tail}>")


def brown_gitler(k: int, D: int, p: int) -> FiniteModule:
    """The degree-k Brown-Gitler dual through degree D.

    Degree i has one basis vector per element of ``free_module_basis(i, k)``
    and the P^a matrices are transposes of right multiplication by P^a on
    those free-module bases, so Hom into this module computes the dual of
    the degree-k part.  Support lies in 0..k, so the result is complete
    whenever D >= k, and it depends on D only through min(k, D).  One
    module is built and validated per (k, min(k, D), p) and shared;
    callers treat it as read-only.
    """
    return _brown_gitler(k, min(k, D), p)


@cache
def _brown_gitler(k: int, top: int, p: int) -> FiniteModule:
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
    return FiniteModule(p, dims, mats,
                        truncated_above=None if top == k else top)


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
                    block = fl.kron(mu, nv, p)
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

    def __init__(self, p, generators, relations, name=None):
        self.p = fl.check_prime(p)
        self.name = name
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

        if not isinstance(data, dict):
            raise ValueError(f"expected a JSON object, got {data!r:.40}")
        kinds = {"prime": object, "generators": list, "relations": list,
                 "name": str}
        for key, value in data.items():
            if key not in kinds:
                raise ValueError(f"unknown field {key!r} in module file")
            if not isinstance(value, kinds[key]):
                what = "a string" if key == "name" else "a list"
                raise ValueError(f"{key}: expected {what}, got {value!r:.40}")
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
            if not isinstance(g["name"], str):
                raise ValueError(f"generators[{i}].name: expected a string, "
                                 f"got {g['name']!r:.40}")
        names = [n for n, _ in gens]
        rels = []
        for ri, rel in enumerate(data.get("relations", [])):
            if not isinstance(rel, list):
                raise ValueError(f"relations[{ri}]: expected a list, "
                                 f"got {rel!r:.40}")
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
                if not isinstance(op, str):
                    raise ValueError(f"{where}.op: expected a string, "
                                     f"got {op!r:.40}")
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

    def __repr__(self):
        tag = f" {self.name!r}" if self.name else ""
        return (f"<FPModule{tag} p={self.p}, {len(self.generators)} generators, "
                f"{len(self.relations)} relations>")


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
            raw = fl.zeros(len(layouts[d2]), len(bases[d]))
            for col, (gi, w) in enumerate(bases[d]):
                gdeg = fp.generators[gi][1]
                for w2, c2 in reduce_word((a,) + w, p).items():
                    if excess(w2, p) <= gdeg:
                        raw[indexes[d2][(gi, w2)], col] += c2
            mat = fl.matmul(nfs[d2], raw % p, p)
            if mat.any():
                mats[(a, d)] = mat
    return FiniteModule(p, dims, mats, truncated_above=D, validate=False)


def fp_dim(fp: FPModule, d: int) -> int:
    """dim of the presented module in degree d: free dimension minus the
    rank of the degree-d relation span (independent of any Hom machinery)."""
    layout = _free_layout(fp, d)
    index = {lab: i for i, lab in enumerate(layout)}
    rows = _relation_rows(fp, d, layout, index)
    return len(layout) - fl.rank(np.array(rows, dtype=np.int64), fp.p)


# ---------------------------------------------------------------------------
# Hom spaces


@dataclass
class HomSpace:
    """The dimension of Hom over F_p."""

    p: int
    dim: int


def hom_space(m: FPModule, n: FiniteModule) -> HomSpace:
    """Hom over the reduced-power algebra from a presented module into a
    finite one.

    A homomorphism is an assignment of each generator to an element of
    matching degree annihilating every relation, so Hom is the kernel of
    one exact constraint matrix, and its dimension is the number of
    unknowns minus that matrix's rank.
    """
    p = m.p
    offsets, offset = [], 0
    for _, d in m.generators:
        offsets.append(offset)
        offset += n.dim(d)
    rows = []
    for rel in m.relations:
        rdeg = word_degree(rel[0][1], p) + m.generators[rel[0][2]][1]
        block_rows = fl.zeros(n.dim(rdeg), offset)
        for c, w, gi in rel:
            gdeg = m.generators[gi][1]
            mat = n.word_mat(w, gdeg)
            off, size = offsets[gi], n.dim(gdeg)
            block_rows[:, off:off + size] = \
                (block_rows[:, off:off + size] + c * mat) % p
        rows.append(block_rows)
    constraint = np.vstack(rows) if rows else fl.zeros(0, offset)
    return HomSpace(p, offset - fl.rank(constraint, p))


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
    for j in range(D + 1):
        if m.dim(j):
            return j, "exact"
        resolved = all(m.dies(j, e).shape[1] == m.dim(e)
                       for e in m.support if j < e <= D)
        if not resolved:
            return j, "at-least"
    return D, "at-least"
