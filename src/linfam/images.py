"""Index-coded image tables of a matrix family, for the restriction searches.

A vector is coded by its index (matspace.vec_index).  ImageTables lists, for
the column vectors v and row covectors a of M(n, m) with leading coordinate
1, the array of the members' image indices M v and a^T M.  It counts the
members by their images of a few of these vectors at once, and tells which
members meet a restriction (Family.restrict, measure_outside_junta) by one
array read per member and constraint.  A Family builds its tables once (Family.tables).
capture_keys walks the candidate images of a constraint domain, its spans
grown by IndexCode.extend, and counts avoiders from those tallies.
"""
from __future__ import annotations

from array import array
from collections import Counter
from typing import Sequence

from .gf import FieldSpec
from .matspace import (IndexCode, index_rows, span_indices, subspaces_of_dim,
                       transpose_indices, vec_index)


def _listing(code: IndexCode, gens: list, count: int) -> list:
    """Entry vec_index(v) is the array of sum_k v_k gens[k], member by
    member, for v = 0 and each v with leading coordinate 1 (the only vectors
    the searches read); other entries are None.  Coordinate k adds e_k and
    v + d e_k for each d != 0 and listed v != 0 above k, by IndexCode.add."""
    q = code.field.q
    # one byte per member while the image indices fit, else four
    typecode = "B" if q ** code.length <= 256 else "I"
    out = [None] * q ** len(gens)
    out[0] = array(typecode, [0]) * count
    for k, g in enumerate(gens):
        place = q ** (len(gens) - 1 - k)
        above = [v for v in range(place * q, len(out), place * q) if out[v] is not None]
        out[place] = array(typecode, g)
        for d in range(1, q if above else 1):      # none above the first
            gd = g if d == 1 else [code.smul(d, y) for y in g]
            for v in above:
                out[v + d * place] = array(typecode, map(code.add, out[v], gd))
    return out


class ImageTables:
    """Image indices of n x m members, given by their Mat.index in order:
    col[v] holds the members' M v and row[a] their a^T M, as _listing
    lists them.  The images of the unit covectors are the members' row
    indices, those of the unit vectors their transposes' row indices."""

    def __init__(self, spec: FieldSpec, n: int, m: int, indices: Sequence[int]):
        q = spec.q
        self.spec, self.n, self.m = spec, n, m
        self.total = len(indices)
        self.colcode = IndexCode(spec, n)
        self.rowcode = IndexCode(spec, m)
        self.col = _listing(self.colcode, index_rows(
            q, m, n, transpose_indices(q, n, m, indices)), self.total)
        self.row = _listing(self.rowcode, index_rows(q, n, m, indices), self.total)
        self._marg: dict = {}

    def tally(self, cols: tuple[int, ...], rows: tuple[int, ...]) -> dict:
        """Member count by the flat tuple of image indices of the column
        vectors cols and then the row covectors rows.  Sorted keys follow
        the lexicographic order of the image vectors."""
        arrays = [self.col[v] for v in cols] + [self.row[a] for a in rows]
        return Counter(zip(*arrays) if arrays else [()] * self.total)

    def matching(self, R) -> list[bool]:
        """Per member, in the tables' order: does it meet every constraint
        of the restriction R?  R keeps its pairs in RREF, so each domain
        vector has leading coordinate 1 and is listed in col or row."""
        q = self.spec.q
        arrays = ([self.col[vec_index(q, v)] for v, _ in R.cols]
                  + [self.row[vec_index(q, a)] for a, _ in R.rows])
        want = tuple(vec_index(q, w) for _, w in R.cols + R.rows)
        keys = zip(*arrays) if arrays else [()] * self.total
        return [k == want for k in keys]

    def marginal(self, cols: tuple[int, ...], rows: tuple[int, ...]) -> dict:
        """tally(cols, rows), memoised."""
        key = (cols, rows)
        if key not in self._marg:
            self._marg[key] = self.tally(cols, rows)
        return self._marg[key]


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
    # IndexCode.extend puts the newest image first, so the domain listings
    # run over the bases reversed: sum u_i basis_i sits at vec_index(u[::-1])
    cspan = span_indices(tables.rowcode, colbasis[::-1])
    rspan = span_indices(tables.colcode, rowbasis[::-1])
    lines_at: list[list] = [[] for _ in range(depth)]
    line_max = [0] * depth
    for span, dim, col, offset in ((cspan, c, True, 0), (rspan, r, False, c)):
        for U in subspaces_of_dim(spec, dim, 1):
            u = U.rows[0]
            level = offset + max(i for i, x in enumerate(u) if x)
            p = vec_index(q, u[::-1])
            x = (span[p],)
            cnt = tables.marginal(x, ()) if col else tables.marginal((), x)
            lines_at[level].append((p, cnt))
            line_max[level] += max(cnt.values(), default=0)
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
                    cpos = tuple(vec_index(q, u[::-1]) for u in U.rows)
                    rpos = tuple(vec_index(q, a[::-1]) for a in V.rows)
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
            # span of the images fixed so far: sum u_i w_i at vec_index(u[::-1])
            grown = span + code.extend(span, w)
            got = fixed + sum(cnt.get((grown[p],), 0) for p, cnt in lines)
            if got < floor:
                continue
            chosen[level] = w
            if col:
                yield from walk(level + 1, got, grown, rspan)
            else:
                yield from walk(level + 1, got, cspan, grown)

    yield from walk(0, 0, [0], [0])
