"""The reduced-power action of a `ChowRing` on exponent rows, by the
Cartan formula.

A monomial is the row (degree, e_1, ..., e_k).  Multiplying by a monomial
adds its row, and lexicographic order of the rows is degree first, then
the order of `ChowRing.raw_monomials`.  A monomial g_i m' whose first
generator is g_i has P^a(g_i m') = sum_b P^b(g_i) P^{a-b}(m') (the Cartan
formula, which holds in Chow theory: Brosnan, "Steenrod operations in
Chow theory", Trans. AMS 2003).  So its column is built from the column
of m' one level down: multiplying by a term c mu of P^b(g_i) adds mu's
row to every row, and the products are scattered into the union of their
rows.
"""

from __future__ import annotations

import numpy as np


class Action:
    """The recursion on one ring's monomials, with the columns it has
    computed for single polynomials kept between calls."""

    def __init__(self, ring):
        self.p = ring.p
        self.degrees = [d for _, d in ring.generators]
        # the terms c mu of P^b(g_i), b = 0..|g_i|, per generator g_i, as
        # exponent rows and coefficients: what the recursion adds
        self.terms = []
        for i, d in enumerate(self.degrees):
            rules = [ring.gen_poly(i)] + [ring.steenrod.get((i, b), {})
                                          for b in range(1, d + 1)]
            self.terms.append([(row, c) for rule in rules for row, c in
                               zip(self.rows(rule), rule.values())])
        # monomial -> (amax, rows, vals, bounds): its column of P^a for
        # every a <= amax, P^a in rows bounds[a]:bounds[a + 1]
        self.columns = {}

    def rows(self, monos) -> np.ndarray:
        """The exponent rows of the given monomials."""
        monos = [tuple(m) for m in monos]
        exps = np.array(monos, dtype=np.int64).reshape(len(monos),
                                                       len(self.degrees))
        degrees = exps @ np.array(self.degrees, dtype=np.int64)
        return np.column_stack([degrees, exps])

    def act(self, a: int, f: dict, d: int) -> dict:
        """P^a(f) for a nonzero polynomial f of degree d >= a, before
        reduction by relations.  The recursion runs on the monomials of f
        whose columns are not kept through P^a yet, for every a' <= a, and
        keeps the columns it computes; a later action on the same
        monomials, or on monomials a generator above them, starts from
        there."""
        p = self.p
        todo = [m for m in f if self.columns.get(m, (-1,))[0] < a]
        if todo:
            self.powers(self.prefix_levels(self.rows(todo), a), a,
                        d + a * (p - 1), keep=True)
        out = {}
        for m, c in f.items():
            _, rows, vals, bounds = self.columns[m]
            lo, hi = bounds[a], bounds[a + 1]
            for r, v in zip(map(tuple, rows[lo:hi, 1:].tolist()),
                            vals[lo:hi].tolist()):
                out[r] = (out.get(r, 0) + c * v) % p
        return {m: c for m, c in out.items() if c}

    def prefix_levels(self, rows, amax=None, known=None) -> dict:
        """The monomials the recursion visits from the exponent rows
        `rows`, as {d: (level, links, n)}.  A monomial g_i m' whose first
        generator is g_i needs m', so for each i `links` holds
        (i, sel, pos): level[sel] is g_i times levels[d - |g_i|][0][pos].
        The first n rows of a level, sorted, are the monomials to compute;
        those whose first generator is g_i are consecutive, so sel is a
        slice.  Given `amax`, a monomial whose column `columns` keeps for
        every a <= amax is not descended into: it comes after the first n,
        as a seed.  Given `known`, the levels of earlier calls whose powers
        are kept, a degree in it is not descended into either: the rows
        that reach it are looked up in its known level, and it gets no
        level here."""
        rows = distinct(rows)[0]
        # degree -> [(sorted distinct rows, (d, i, sel) of their multiples)]
        pending = {d: [(rows[rows[:, 0] == d], None)]
                   for d in set(rows[:, 0].tolist())}
        out = {}
        while pending:
            d = max(pending)
            chunks = pending.pop(d)
            if known and d in known:
                level, n = known[d][0], 0
                inverse = find(np.concatenate([c for c, _ in chunks]), level)
            else:
                level, inverse = _union([c for c, _ in chunks])
                n = len(level)
                if amax is not None:
                    seed = [self.columns.get(m, (-1,))[0] >= amax
                            for m in map(tuple, level[:, 1:].tolist())]
                    if all(seed):
                        n = 0
                    elif any(seed):
                        seed = np.array(seed)
                        order = np.concatenate([(~seed).nonzero()[0],
                                                seed.nonzero()[0]])
                        where = np.empty(len(order), dtype=np.intp)
                        where[order] = np.arange(len(order))
                        level, inverse = level[order], where[inverse]
                        n -= int(seed.sum())
                out[d] = level, [], n
            start = 0
            for c, owner in chunks:
                if owner:
                    above, i, sel = owner
                    out[above][1].append(
                        (i, sel, inverse[start:start + len(c)]))
                start += len(c)
            if d == 0 or not n:
                continue
            first = (level[:n, 1:] > 0).argmax(axis=1)
            for i in set(first.tolist()):
                at = (first == i).nonzero()[0]
                sel = slice(at[0], at[-1] + 1)
                pending.setdefault(d - self.degrees[i], []).append(
                    (level[sel] - self.terms[i][0][0], (d, i, sel)))
        return out

    def powers(self, levels, amax: int, top: int, keep=False,
               out=None) -> dict:
        """The reduced powers P^a, a <= amax, of every monomial in `levels`
        (from `prefix_levels`), into degrees <= top, as {d: (rows, vals)}:
        vals[r, j] is the coefficient of the monomial rows[r] in P^a of the
        j-th monomial of the level, with a read off the degree of rows[r].
        Only nonzero rows are kept, sorted.  Seeds are read from
        `columns`; with `keep`, every computed column is kept there too.
        Given `out`, the blocks of the `known` levels of `prefix_levels`
        (same amax and top), the recursion continues from them and adds
        the new blocks to it."""
        p, terms = self.p, self.terms
        # an entry sums one residue per term of P(g_i), and a term with a
        # coefficient other than 1 multiplies two residues
        widest = max(map(len, terms), default=0)
        scaled = any(c != 1 for t in terms for _, c in t)
        if widest * (p - 1) >= 2**63 or scaled and (p - 1) ** 2 >= 2**63:
            raise ValueError(f"prime {p} too large for int64 products")
        out = {} if out is None else out
        for d in sorted(levels):
            cols, links, n = levels[d]
            ceiling = min(top, d + amax * (p - 1))
            parts = []  # (sorted distinct rows, vals, columns they add to)
            if d == 0 and n:  # P^0(1) = 1
                parts.append((cols[:1], np.ones((1, 1), dtype=np.int64),
                              slice(0, 1)))
            for i, sel, pos in links:
                src_rows, src_vals = out[d - self.degrees[i]]
                src_vals = src_vals[:, pos]
                for row, c in terms[i]:
                    m = src_rows[:, 0].searchsorted(ceiling - row[0], "right")
                    vals = src_vals[:m] if c == 1 else src_vals[:m] * c % p
                    parts.append((src_rows[:m] + row, vals, sel))
            for j in range(n, len(cols)):
                _, rows, vals, _ = self.columns[tuple(cols[j, 1:].tolist())]
                parts.append((rows, vals[:, None], slice(j, j + 1)))
            if len(parts) == 1 and len(cols) == 1:  # one seed, or P^0(1)
                rows, acc = parts[0][:2]
            else:
                rows, acc = _scatter(parts, len(cols), p)
            out[d] = rows, acc
            if keep:
                # bounds[a]: the first row of P^a, a <= amax + 1
                bounds = rows[:, 0].searchsorted(
                    d + np.arange(amax + 2) * (p - 1)).tolist()
                for j, m in enumerate(cols[:n, 1:].tolist()):
                    nz = acc[:, j].nonzero()[0]
                    self.columns[tuple(m)] = (
                        amax, rows[nz], acc[nz, j],
                        np.searchsorted(nz, bounds).tolist())
        return out


def distinct(rows: np.ndarray):
    """(the distinct rows of an integer matrix in lexicographic order, the
    index of each row among them)."""
    order = np.lexsort(rows.T[::-1])
    srt = rows[order]
    new = np.empty(len(srt), dtype=bool)
    new[:1] = True
    np.logical_or.reduce(srt[1:] != srt[:-1], axis=1, out=new[1:])
    inverse = np.empty(len(rows), dtype=np.intp)
    inverse[order] = new.cumsum() - 1
    return srt[new], inverse


def find(rows: np.ndarray, table: np.ndarray) -> np.ndarray:
    """The index in `table` (distinct rows, lexicographically sorted) of
    each of `rows`, all of which occur in it."""
    return distinct(np.concatenate([table, rows]))[1][len(table):]


def _scatter(parts, ncols: int, p: int):
    """Sum the products (rows, vals, columns) into the union of their rows:
    (rows, acc) with acc reduced mod p and its zero rows dropped."""
    rows, inverse = _union([r for r, _, _ in parts])
    acc = np.zeros((len(rows), ncols), dtype=np.int64)
    start, filled = 0, set()
    for r, vals, sel in parts:
        at = inverse[start:start + len(r)]
        start += len(r)
        if sel.start in filled:
            acc[at, sel] += vals
        else:  # the first product into these columns
            acc[at, sel] = vals
            filled.add(sel.start)
    acc %= p
    live = acc.any(axis=1)
    return (rows, acc) if live.all() else (rows[live], acc[live])


def _union(chunks):
    """`distinct` of the stacked row blocks `chunks`, each already sorted
    and distinct."""
    if len(chunks) == 1:
        return chunks[0], np.arange(len(chunks[0]))
    return distinct(np.concatenate(chunks))
