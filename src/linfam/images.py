"""Index-coded image tables of a matrix family, for the restriction searches.

A vector is coded by its index (matspace.vec_index).  ImageTables lists, for
the column vectors v and row covectors a of M(n, m) with leading coordinate
1, the array of the members' image indices M v and a^T M.  It counts the
members by their images of a few of these vectors at once, and tells which
members meet a restriction (Family.restrict, measure_outside_junta) by one
array read per member and constraint.  A Family builds its tables once (Family.tables).
capture_keys walks the candidate images of a constraint domain, its spans
grown by IndexCode.extend, prunes by the line tallies and counts a leaf's
avoiders from the line arrays.
"""
from __future__ import annotations

from array import array
from collections import Counter
from typing import Sequence

from .gf import FieldSpec
from .matspace import (IndexCode, index_rows, subspaces_of_dim,
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


def capture_keys(tables: ImageTables, S, A, max_avoid: int):
    """Image keys (w_1..w_c, b_1..b_r) of the bases of the domain subspaces
    S and A, in lexicographic order, with at most max_avoid avoiders.

    A member M avoids them iff U_M = {u : M(sum u_i v_i) = sum u_i w_i} and
    its row twin V_M are zero: iff M misses the key's image on every line of
    F_q^c and F_q^r.  So avoid >= total - (sum of the line counts).  The
    walk fixes one image per level and drops a prefix when the counts of
    its fixed lines plus the largest counts of the open lines fall below
    total - max_avoid; a leaf counts the members that miss every line.
    """
    spec = tables.spec
    q = spec.q
    c, r = S.dim, A.dim
    depth = c + r
    cspan, rspan = S.listing, A.listing
    lines_at: list[list] = [[] for _ in range(depth)]
    line_max = [0] * depth
    for span, dim, col, offset in ((cspan, c, True, 0), (rspan, r, False, c)):
        for U in subspaces_of_dim(spec, dim, 1):
            u = U.rows[0]
            level = offset + max(i for i, x in enumerate(u) if x)
            p = vec_index(q, u[::-1])
            x = (span[p],)
            cnt = tables.marginal(x, ()) if col else tables.marginal((), x)
            images = tables.col[span[p]] if col else tables.row[span[p]]
            lines_at[level].append((p, cnt, images))
            line_max[level] += max(cnt.values(), default=0)
    need = tables.total - max_avoid
    if sum(line_max) < need:
        return
    open_after = [sum(line_max[lv + 1:]) for lv in range(depth)]
    chosen = [0] * depth

    def walk(level: int, fixed: int, cspan: list, rspan: list):
        if level == depth:
            misses = [map((cspan if lv < c else rspan)[p].__ne__, images)
                      for lv in range(depth) for p, _, images in lines_at[lv]]
            # a complexity-0 domain has no lines: every member avoids it
            avoid = sum(map(all, zip(*misses))) if misses else tables.total
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
            got = fixed + sum(cnt.get((grown[p],), 0) for p, cnt, _ in lines)
            if got < floor:
                continue
            chosen[level] = w
            if col:
                yield from walk(level + 1, got, grown, rspan)
            else:
                yield from walk(level + 1, got, cspan, grown)

    yield from walk(0, 0, [0], [0])
