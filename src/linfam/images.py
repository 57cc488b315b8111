"""Index-coded image tables of a matrix family, for the restriction searches.

A vector is coded by its index (matspace.vec_index) and added and scaled
by matspace.IndexCode.  ImageTables holds, for every column vector v and
row covector a of M(n, m), the tuple of the members' image indices M v and
a^T M, and tallies member weight by the images of a few of them at once.
capture_keys walks the candidate images of a constraint domain and counts
avoiders from those tallies; it reads every combination of the domain's
basis off one matspace.span_indices listing per side.
"""
from __future__ import annotations

from collections import Counter
from fractions import Fraction
from typing import Sequence

from .gf import FieldSpec
from .matspace import IndexCode, Mat, span_indices, subspaces_of_dim, vec_index


class ImageTables:
    """Image indices of n x m members, in the given order, built lazily by
    linearity: image(v + d e_k) = image(v) + image(d e_k)."""

    def __init__(self, spec: FieldSpec, n: int, m: int, mats: Sequence[Mat],
                 weights: Sequence[Fraction] | None = None):
        self.spec, self.n, self.m = spec, n, m
        self.weights = weights
        self.total = len(mats) if weights is None else sum(weights)
        self.colcode = IndexCode(spec, n)
        self.rowcode = IndexCode(spec, m)
        q = spec.q
        self._colgens = [tuple(vec_index(q, [row[k] for row in M.rows]) for M in mats)
                         for k in range(m)]
        self._rowgens = [tuple(vec_index(q, M.rows[i]) for M in mats)
                         for i in range(n)]
        self._col = {0: (0,) * len(mats)}
        self._row = {0: (0,) * len(mats)}
        self._marg: dict = {}

    def col(self, v: int) -> tuple[int, ...]:
        return self._image(self._col, self._colgens, self.colcode, v)

    def row(self, a: int) -> tuple[int, ...]:
        return self._image(self._row, self._rowgens, self.rowcode, a)

    def _image(self, cache: dict, gens: list, code: IndexCode, v: int):
        out = cache.get(v)
        if out is None:
            # split off the lowest nonzero coordinate k of v, with value d
            q = self.spec.q
            place, k = 1, len(gens) - 1
            while v // place % q == 0:
                place *= q
                k -= 1
            d = v // place % q
            if v == d * place:
                out = tuple(code.smul(d, g) for g in gens[k])
            else:
                out = tuple(map(code.add, self._image(cache, gens, code, v - d * place),
                                self._image(cache, gens, code, d * place)))
            cache[v] = out
        return out

    def tally(self, cols: tuple[int, ...], rows: tuple[int, ...]) -> dict:
        """Member weight by the flat tuple of image indices of the column
        vectors cols and then the row covectors rows.  Sorted keys follow
        the lexicographic order of the image vectors."""
        arrays = [self.col(v) for v in cols] + [self.row(a) for a in rows]
        keys = zip(*arrays) if arrays else [()] * len(self._col[0])
        if self.weights is None:
            return Counter(keys)
        out: dict = {}
        for k, wt in zip(keys, self.weights):
            out[k] = out.get(k, 0) + wt
        return out

    def marginal(self, cols: tuple[int, ...], rows: tuple[int, ...]) -> dict:
        """tally(cols, rows), memoised."""
        key = (cols, rows)
        out = self._marg.get(key)
        if out is None:
            out = self._marg[key] = self.tally(cols, rows)
        return out


def capture_keys(tables: ImageTables, colbasis, rowbasis, max_avoid: int):
    """Image keys (w_1..w_c, b_1..b_r) of the domain bases, in
    lexicographic order, with at most max_avoid avoiders.

    A member M avoids them iff U_M = {u : M(sum u_i v_i) = sum u_i w_i} and
    its row twin V_M are zero.  Moebius inversion over the subspace lattices
    of F_q^c and F_q^r, with mu(0, U) = (-1)^k q^C(k,2) for dim U = k, gives
        avoid = sum over U, V of mu(0, U) mu(0, V) N_{U,V},
    N_{U,V} the members meeting the constraints that U and V span: one
    tally lookup.  A member that does not avoid has a line in U_M or V_M,
    so avoid >= total - (sum of N over lines).  The walk fixes one image
    per level and drops a prefix when the counts of its fixed lines plus
    the largest counts of the open lines fall below total - max_avoid.
    """
    spec = tables.spec
    q = spec.q
    c, r = len(colbasis), len(rowbasis)
    depth = c + r
    cspan = span_indices(spec, colbasis, tables.m)
    rspan = span_indices(spec, rowbasis, tables.n)
    lines_at: list[list] = [[] for _ in range(depth)]
    line_max = [0] * depth
    for span, dim, col, offset in ((cspan, c, True, 0), (rspan, r, False, c)):
        for U in subspaces_of_dim(spec, dim, 1):
            u = U.rows[0]
            last = max(i for i, x in enumerate(u) if x)
            x = (span[vec_index(q, u)],)
            cnt = tables.marginal(x, ()) if col else tables.marginal((), x)
            lines_at[offset + last].append((vec_index(q, u[:last + 1]), cnt))
            line_max[offset + last] += max(cnt.values(), default=0)
    need = tables.total - max_avoid
    if sum(line_max) < need:
        return
    open_after = [sum(line_max[lv + 1:]) for lv in range(depth)]
    higher = []
    for k in range(c + 1):
        for U in subspaces_of_dim(spec, c, k):
            for l in range(r + 1):
                if k + l < 2:
                    continue
                for V in subspaces_of_dim(spec, r, l):
                    mu = (-1) ** (k + l) * q ** ((k * (k - 1) + l * (l - 1)) // 2)
                    cpos, rpos = U.key(), V.key()
                    higher.append((mu, cpos, rpos,
                                   tuple(cspan[p] for p in cpos),
                                   tuple(rspan[p] for p in rpos)))
    chosen = [0] * depth
    # the domain's own tallies, built at the first leaf that needs them;
    # only the line tallies are shared between domains
    tallies: dict = {}

    def walk(level: int, fixed: int, cspan: list, rspan: list):
        if level == depth:
            avoid = tables.total - fixed
            for i, (mu, cpos, rpos, cols, rows) in enumerate(higher):
                if i not in tallies:
                    tallies[i] = tables.tally(cols, rows)
                key = tuple(cspan[p] for p in cpos) + tuple(rspan[p] for p in rpos)
                avoid += mu * tallies[i].get(key, 0)
            if avoid <= max_avoid:
                yield tuple(chosen)
            return
        col = level < c
        code = tables.colcode if col else tables.rowcode
        span = cspan if col else rspan
        lines = lines_at[level]
        floor = need - open_after[level]
        for w in range(q ** (tables.n if col else tables.m)):
            # span of the images fixed so far: entry vec_index(u) holds
            # sum u_i w_i over the prefix u
            mults = [code.smul(d, w) for d in range(q)]
            grown = [code.add(x, y) for x in span for y in mults]
            got = fixed + sum(cnt.get((grown[p],), 0) for p, cnt in lines)
            if got < floor:
                continue
            chosen[level] = w
            if col:
                yield from walk(level + 1, got, grown, rspan)
            else:
                yield from walk(level + 1, got, cspan, grown)

    yield from walk(0, 0, [0], [0])
