"""Exact Fourier analysis on the additive group of n x m matrices over F_q.

Characters are indexed by dual matrices X (shape m x n) through the pairing
omega^(tau(Trace(X A))).  Transforms keep cyclotomic-rational coefficients,
so every identity here is an equality of exact values.  Rank components,
image/kernel projections, and the restricted hypercontractive inequality
sit on top of the transform.  A projection's dual matrices, those with
image or kernel exactly a given subspace, are listed as an index set by
index arithmetic (all rows in one subspace, then the right rank), with no
matrix built per dual.

Every table, a function's values and a spectrum's coefficients alike, is
stored once, in one exact format: p - 1 columns of Python ints, the
power-basis coordinates of the entries on 1, omega, ..., omega^(p-2), over
one shared positive denominator ``den``, the least common one.  Equal
tables therefore hold equal integers, which equality and hashing compare.
The kernels read the columns directly.  A butterfly appends a zero column
for omega^(p-1), making each entry a root-count vector (one signed integer
when p = 2, where omega = -1); multiplying by omega^k rotates such a
vector, so every cell is integer additions whatever q is, and products of
entries accumulate into the residue of their exponent difference.  Each
result is reduced once, by a gcd.  ``Cyc`` values are built only when a
caller reads ``values``, ``coeffs``, ``value_at`` or ``coeff``.

The quadratic-time ``transform`` stays as the oracle, on the same columns.
Every direct character sum in the library, the oracle's and the class
sums of ``spectra`` and ``verify`` alike, reads one exponent row per dual
X: tau(Trace(X A)) for every A in index order, grown cell by cell from
the field's multiplication and trace alone, independent of the
butterfly's tables.  The oracle gathers p integer root counts from it.
"""
from __future__ import annotations

import json
import math
from fractions import Fraction
from functools import lru_cache
from itertools import chain
from operator import add, mul, sub
from typing import Iterable

from .budget import Budget, ensure
from .cyclo import Cyc
from .errors import (DomainError, FieldMismatch, NotInKernelRelation,
                     RankNotOne, ShapeMismatch, ZeroFunction)
from .gf import FieldSpec, char_root, field
from .matspace import (IndexCode, Mat, Subspace, image, kernel, null_basis,
                       rank, rank_table, span_indices, subspaces_of_dim,
                       transpose_indices, vec_from_index, vec_index)
from .families import Family, QPow, coset_base, leq_threshold


class _Table:
    """A table indexed by the q^(nm) matrices of one shape: entry i is
    sum_j cols[j][i] * w^j / den, den the least common denominator."""

    __slots__ = ("field", "n", "m", "den", "cols", "_cyc")

    def __init__(self, spec: FieldSpec, n: int, m: int, entries: Iterable):
        p = spec.p
        pad = (0,) * (p - 2)
        coords = []
        for v in entries:
            if isinstance(v, Cyc):
                if v.p != p:
                    raise FieldMismatch("cyclotomic value for a different characteristic")
                coords.append(v.coeffs)
            else:
                coords.append((v,) + pad)
        if len(coords) != spec.q ** (n * m):
            raise ShapeMismatch(f"expected {spec.q ** (n * m)} entries, got {len(coords)}")
        ratios = [[x.as_integer_ratio() for x in col] for col in zip(*coords)]
        den = math.lcm(*{d for col in ratios for _, d in col})
        self._set(spec, n, m, [[a * (den // d) for a, d in col] for col in ratios], den)

    @classmethod
    def _from_cols(cls, spec: FieldSpec, n: int, m: int, cols, div: int):
        """The table whose entry i is sum_j cols[j][i] * w^j / div, div > 0."""
        self = cls.__new__(cls)
        self._set(spec, n, m, cols, div)
        return self

    def _set(self, spec: FieldSpec, n: int, m: int, cols, div: int) -> None:
        g = math.gcd(div, *chain.from_iterable(cols))
        self.field, self.n, self.m = spec, n, m
        self.den = div // g
        self.cols = tuple(tuple([x // g for x in c]) if g > 1 else tuple(c)
                          for c in cols)
        self._cyc = None

    def _cycs(self) -> tuple[Cyc, ...]:
        """The entries as Cyc values, built on first use and kept."""
        if self._cyc is None:
            # tables repeat values, so each distinct numerator becomes one Fraction
            frac = {x: Fraction(x, self.den) for x in set(chain.from_iterable(self.cols))}
            self._cyc = tuple(Cyc(self.field.p, map(frac.__getitem__, xs))
                              for xs in zip(*self.cols))
        return self._cyc

    def _at(self, M: Mat, shape: tuple[int, int]) -> Cyc:
        return self._cycs()[M.index_in(self.field, *shape)]

    def __eq__(self, other) -> bool:
        return (type(other) is type(self) and other.field == self.field
                and (other.n, other.m, other.den, other.cols)
                == (self.n, self.m, self.den, self.cols))

    def __hash__(self):
        return hash((self.field, self.n, self.m, self.den, self.cols))


class DenseFunction(_Table):
    """A function on all of L(V, W), stored densely in enumeration order."""

    __slots__ = ()

    values = property(_Table._cycs)

    @classmethod
    def constant(cls, spec: FieldSpec, n: int, m: int, c) -> "DenseFunction":
        return cls(spec, n, m, [c] * (spec.q ** (n * m)))

    @classmethod
    def indicator(cls, spec: FieldSpec, n: int, m: int,
                  members: Iterable[Mat]) -> "DenseFunction":
        vals = [0] * (spec.q ** (n * m))
        for M in members:
            vals[M.index_in(spec, n, m)] = 1
        return cls(spec, n, m, vals)

    def value_at(self, M: Mat) -> Cyc:
        return self._at(M, (self.n, self.m))

    def is_indicator(self) -> bool:
        return (self.den == 1 and self.is_rational_valued()
                and all(x == 0 or x == 1 for x in self.cols[0]))

    def is_rational_valued(self) -> bool:
        return not any(map(any, self.cols[1:]))

    def rational_values(self) -> tuple[Fraction, ...]:
        if not self.is_rational_valued():
            raise DomainError("function takes irrational values")
        return tuple(Fraction(x, self.den) for x in self.cols[0])

    def mean(self) -> Cyc:
        div = self.den * self.field.q ** (self.n * self.m)
        return Cyc(self.field.p, [Fraction(sum(c), div) for c in self.cols])

    def __add__(self, other: "DenseFunction") -> "DenseFunction":
        return self._combine(other, add)

    def __sub__(self, other: "DenseFunction") -> "DenseFunction":
        return self._combine(other, sub)

    def _combine(self, other: "DenseFunction", op) -> "DenseFunction":
        self._chk(other)
        den = math.lcm(self.den, other.den)
        a, b = den // self.den, den // other.den
        cols = [[op(x * a, y * b) for x, y in zip(u, v)]
                for u, v in zip(self.cols, other.cols)]
        return DenseFunction._from_cols(self.field, self.n, self.m, cols, den)

    def _chk(self, other: "DenseFunction") -> None:
        if other.field != self.field or (other.n, other.m) != (self.n, self.m):
            raise ShapeMismatch("functions on different spaces")

    def to_text(self) -> str:
        """Header "q,n,m", then one value per line: a rational value as one
        fraction, any other as its comma-separated Cyc coordinates."""
        lines = [f"{self.field.q},{self.n},{self.m}"]
        for v in self.values:
            if v.is_rational():
                lines.append(str(v.as_fraction()))
            else:
                lines.append(",".join(str(Fraction(c)) for c in v.coeffs))
        return "\n".join(lines) + "\n"

    @classmethod
    def from_text(cls, text: str, spec: FieldSpec | None = None) -> "DenseFunction":
        lines = [ln.strip() for ln in text.splitlines() if ln.strip()]
        if not lines:
            raise DomainError("empty function file")
        try:
            q, n, m = (int(x) for x in lines[0].split(","))
            rows = [[Fraction(x) for x in ln.split(",")] for ln in lines[1:]]
        except (ValueError, ZeroDivisionError) as e:
            raise DomainError(f"malformed function file: {e}") from None
        spec = spec if spec is not None else field(q)
        return cls(spec, n, m, [Cyc(spec.p, r) if len(r) > 1 else r[0] for r in rows])

    def __repr__(self):
        return f"DenseFunction(q={self.field.q}, shape {self.n}x{self.m})"


class Spectrum(_Table):
    """Fourier coefficients, indexed by the dual matrices X in L(W, V)."""

    __slots__ = ()

    coeffs = property(_Table._cycs)

    def coeff(self, X: Mat) -> Cyc:
        return self._at(X, (self.m, self.n))

    def nonzero(self):
        spec, coeffs = self.field, self.coeffs
        for idx, xs in enumerate(zip(*self.cols)):
            if any(xs):
                yield Mat.from_index(spec, self.m, self.n, idx), coeffs[idx]

    def parseval_sum(self) -> Cyc:
        return _conj_dot(self, self, 1)

    def to_json(self) -> str:
        entries = []
        for X, c in self.nonzero():
            entries.append({"X": X.to_literal(),
                            "c": [str(x) for x in c.coeffs]})
        return json.dumps(entries, sort_keys=True)


# --- characters -------------------------------------------------------------

def char_exponent(X: Mat, A: Mat) -> int:
    """tau(Trace(X A)) as an element of the prime field."""
    if X.field != A.field:
        raise FieldMismatch("character arguments over different fields")
    if X.m != A.n or X.n != A.m:
        raise ShapeMismatch(f"cannot pair {X.shape} with {A.shape}")
    spec = X.field
    acc = 0
    for k in range(X.n):
        for j in range(X.m):
            acc = spec.add(acc, spec.mul(X.rows[k][j], A.rows[j][k]))
    return spec.trace(acc)

def character(X: Mat, A: Mat) -> Cyc:
    return char_root(X.field.p, char_exponent(X, A))


def _exponent_row(spec: FieldSpec, n: int, m: int, X: Mat) -> list[int]:
    """char_exponent(X, A) for every n x m matrix A, in index order.

    tau(Trace(X A)) is additive over the cells of A, and cell (i, j) pairs
    with X[j][i], so the row grows one cell at a time, most significant
    first, with no matrix built per A.
    """
    p = spec.p
    out = [0]
    for i in range(n):
        for j in range(m):
            ks = [spec.trace(spec.mul(X.rows[j][i], a)) for a in range(spec.q)]
            out = [(e + k) % p for e in out for k in ks]
    return out


# --- transforms -------------------------------------------------------------

@lru_cache(maxsize=None)
def _perm_table(spec: FieldSpec, n: int, m: int) -> tuple[int, ...]:
    """perm[i] = index of the m x n transpose of the n x m matrix of index i."""
    return tuple(transpose_indices(spec.q, n, m, range(spec.q ** (n * m))))


def _gather(cols, order) -> list[list[int]]:
    return [list(map(c.__getitem__, order)) for c in cols]


def _butterfly(spec: FieldSpec, cols, nm: int, sign: int, b: Budget,
               what: str) -> list[list[int]]:
    """Sum over a of w^(sign * tr(x a)) along every cell, on coordinate columns.

    For p > 2 a zero column for w^(p-1) is appended, so every entry is a
    root-count vector.  Multiplying it by w^k rotates it by k places, so
    column r of an output gathers column r - k of an input: every cell is
    integer adds.  For p = 2 the single column is negated instead (w = -1),
    and at q = 2 a stage is the radix-2 add/sub pair.  Each stage transforms
    the last base-q digit of the index and moves it to the front,
    out[x * M + j] = sum_a w^K[x][a] in[j * q + a] with M = N / q, so after
    nm stages every digit has been transformed once and is back in place.
    Every sum runs over whole strided slices.  The root counts are reduced
    back to p - 1 coordinate columns by the Cyc.from_root_counts rule.
    The clock of b is checked once per stage, under the label what.
    """
    q, p = spec.q, spec.p
    K = [[(sign * spec.trace(spec.mul(x, a))) % p for a in range(q)]
         for x in range(q)]
    # plan[r][x]: (source column, input digit a, subtract) summed into
    # output column r, block x; K[x][0] = 0, so no block starts negated
    if p == 2:
        plan = [[[(0, a, K[x][a]) for a in range(q)] for x in range(q)]]
    else:
        plan = [[[((r - K[x][a]) % p, a, 0) for a in range(q)]
                 for x in range(q)] for r in range(p)]
        cols = [*cols, [0] * len(cols[0])]
    for stage in range(nm):
        b.check_clock(what, f"{stage} of {nm} stages")
        parts = [[c[a::q] for a in range(q)] for c in cols]
        cols = []
        for blocks in plan:
            out = []
            for terms in blocks:
                acc = parts[terms[0][0]][0]
                for j, a, neg in terms[1:]:
                    acc = map(sub if neg else add, acc, parts[j][a])
                out.extend(acc)
            cols.append(out)
    if p > 2:
        top = cols[p - 1]
        cols = [list(map(sub, c, top)) for c in cols[:p - 1]]
    return cols


def fast_transform(f: DenseFunction, budget: Budget | None = None) -> Spectrum:
    """Coordinate-by-coordinate butterfly transform on integer columns;
    equal by value to the quadratic-time transform."""
    spec = f.field
    nm = f.n * f.m
    N = spec.q ** nm
    b = ensure(budget)
    b.check_items(N * nm * spec.q, "butterfly transform")
    cols = _butterfly(spec, f.cols, nm, -1, b, "butterfly transform")
    # the m x n transposition undoes the n x m one
    inv = _perm_table(spec, f.m, f.n)
    return Spectrum._from_cols(spec, f.n, f.m, _gather(cols, inv), f.den * N)


def transform(f: DenseFunction, budget: Budget | None = None) -> Spectrum:
    """Direct-sum transform: the oracle path, quadratic in the table size.

    Coefficient X is sum_A f(A) w^(-tr(XA)) / N, with the exponents of
    X read off its exponent row.  Coordinate column j of f(A) counts toward
    w^(j - tr(XA)), so each X gathers p integer root counts, reduced by the
    Cyc.from_root_counts rule.
    """
    spec = f.field
    p, n, m = spec.p, f.n, f.m
    N = spec.q ** (n * m)
    b = ensure(budget)
    b.check_items(N * N, "naive transform")
    cols = [[] for _ in range(p - 1)]
    for xi in range(N):
        b.check_clock("naive transform", f"{xi} of {N} duals")
        es = _exponent_row(spec, n, m, Mat.from_index(spec, m, n, xi))
        counts = [0] * p
        for j, col in enumerate(f.cols):
            for e, x in zip(es, col):
                counts[(j - e) % p] += x
        for c, x in zip(cols, counts):
            c.append(x - counts[p - 1])
    return Spectrum._from_cols(spec, n, m, cols, N * f.den)


def inverse_transform(S: Spectrum, budget: Budget | None = None) -> DenseFunction:
    spec = S.field
    nm = S.n * S.m
    b = ensure(budget)
    b.check_items(spec.q ** nm * nm * spec.q, "inverse transform")
    cols = _butterfly(spec, _gather(S.cols, _perm_table(spec, S.n, S.m)), nm, 1,
                      b, "inverse transform")
    return DenseFunction._from_cols(spec, S.n, S.m, cols, S.den)


# --- rank components and projections ----------------------------------------

def _keep(S: Spectrum, mask) -> Spectrum:
    """S with every coefficient outside mask (one bool per dual index) zeroed."""
    return Spectrum._from_cols(S.field, S.n, S.m,
                               [list(map(mul, c, mask)) for c in S.cols], S.den)


def _rank_part(S: Spectrum, d: int, budget: Budget | None) -> DenseFunction:
    """The rank-d component of the function whose spectrum is S."""
    ranks = rank_table(S.field, S.m, S.n)
    return inverse_transform(_keep(S, [r == d for r in ranks]), budget)


def rank_component(f: DenseFunction, d: int, budget: Budget | None = None) -> DenseFunction:
    if not 0 <= d <= min(f.m, f.n):
        raise DomainError(f"rank {d} out of range for shape {f.n}x{f.m}")
    return _rank_part(fast_transform(f, budget), d, budget)


def rank_split(f: DenseFunction, budget: Budget | None = None) -> dict[int, DenseFunction]:
    """All rank components from a single transform."""
    S = fast_transform(f, budget)
    return {d: _rank_part(S, d, budget) for d in range(min(f.m, f.n) + 1)}


def degree(f: DenseFunction, budget: Budget | None = None) -> int:
    S = fast_transform(f, budget)
    ranks = rank_table(f.field, f.m, f.n)
    best = max((r for r, *xs in zip(ranks, *S.cols) if any(xs)), default=-1)
    if best < 0:
        raise ZeroFunction("degree of the zero function")
    return best


def _space_mask(spec: FieldSpec, n: int, m: int, target: Subspace,
                on_image: bool) -> list[bool]:
    """One flag per m x n dual index X: whether im X (on_image) or ker X is
    exactly target.

    im X = V' exactly when every row of X^T lies in V' and rank X = dim V';
    ker X = W' exactly when every row of X lies in the annihilator of W'
    and rank X = n - dim W'.  Matrices whose rows all lie in one subspace U
    are a product of digit blocks in index space, so the candidates are
    listed from U's member indices and kept by rank_table.
    """
    q = spec.q
    if on_image:
        span, nrows, width, r = target.listing, n, m, target.dim
    else:
        nrows, width, r = m, n, n - target.dim
        span = span_indices(IndexCode(spec, width), null_basis(spec, target.rows, n))
    step = q ** width
    cand = [0]
    for _ in range(nrows):
        cand = [x * step + v for x in cand for v in span]
    if on_image:
        # candidates index X^T (n x m); the cell permutation maps them to X
        cand = map(_perm_table(spec, n, m).__getitem__, cand)
    ranks = rank_table(spec, m, n)
    mask = [False] * q ** (n * m)
    for x in cand:
        if ranks[x] == r:
            mask[x] = True
    return mask


def _project(f: DenseFunction, target: Subspace, on_image: bool,
             budget: Budget | None) -> DenseFunction:
    if target.field != f.field:
        raise FieldMismatch("subspace over a different field")
    S = fast_transform(f, budget)
    mask = _space_mask(f.field, f.n, f.m, target, on_image)
    return inverse_transform(_keep(S, mask), budget)


def projection_mass(S: Spectrum, target: Subspace, on_image: bool) -> Fraction:
    """The squared 2-norm of _project(f, target, on_image) read off f's
    spectrum S: by Parseval, the mass of the kept coefficients."""
    mask = _space_mask(S.field, S.n, S.m, target, on_image)
    return _rational_norm(_keep(S, mask).parseval_sum())


def project_image(f: DenseFunction, Vp: Subspace,
                  budget: Budget | None = None) -> DenseFunction:
    """Keep the characters whose dual matrix has image exactly Vp <= V."""
    if Vp.ambient != f.m:
        raise DomainError("image subspace must live in the m-dimensional side")
    return _project(f, Vp, True, budget)


def project_kernel(f: DenseFunction, Wp: Subspace,
                   budget: Budget | None = None) -> DenseFunction:
    """Keep the characters whose dual matrix has kernel exactly Wp <= W."""
    if Wp.ambient != f.n:
        raise DomainError("kernel subspace must live in the n-dimensional side")
    return _project(f, Wp, False, budget)


# --- inner products and norms ----------------------------------------------

def _conj_dot(a: _Table, b: _Table, div: int) -> Cyc:
    """sum_i a[i] * conj(b[i]) / div.  The product of coordinates i and j
    counts toward w^(i - j), so whole columns multiply into p integer root
    counts and one Cyc is built at the end."""
    p = a.field.p
    acc = [0] * p
    for i, u in enumerate(a.cols):
        for j, v in enumerate(b.cols):
            acc[(i - j) % p] += sum(map(mul, u, v))
    return Cyc.from_root_counts(p, acc) / (a.den * b.den * div)


def inner(f: DenseFunction, g: DenseFunction) -> Cyc:
    f._chk(g)
    return _conj_dot(f, g, f.field.q ** (f.n * f.m))

def norm2_sq(f: DenseFunction) -> Cyc:
    return inner(f, f)


def norm2_sq_frac(f: DenseFunction) -> Fraction:
    return _rational_norm(norm2_sq(f))


def _rational_norm(v: Cyc) -> Fraction:
    if not v.is_rational():
        raise DomainError("2-norm square is irrational")
    return v.as_fraction()


def abs_pow_mean(f: DenseFunction, k: int) -> Fraction:
    """E[|f|^k] for even k >= 0 and rational-valued f."""
    if k < 0:
        raise DomainError(f"need a power k >= 0, got {k}")
    if k % 2:
        raise DomainError("only even powers stay rational")
    if not f.is_rational_valued():
        raise DomainError("function takes irrational values")
    total = sum(x ** k for x in f.cols[0])
    return Fraction(total, f.den ** k * f.field.q ** (f.n * f.m))


# --- inequality checks ------------------------------------------------------

def verify_hypercontractive(f: DenseFunction, d: int, k: int,
                            budget: Budget | None = None) -> dict:
    """Exact both-sides evaluation of the restricted hypercontractive bound
    for the degree-d part:

        E[|f^(=d)|^k] <= k^7 d^6 q^(k^3 d^2/2 + (3k/4-1) d max(m,n))
                         * (sum over dim-d images + codim-d kernels of ||proj||_2^k)
    """
    if k < 4 or k % 2:
        raise DomainError("need even k >= 4")
    if d < 1 or d > min(f.m, f.n):
        raise DomainError(f"degree {d} out of range")
    spec = f.field
    # one transform serves the component and every projection
    S = fast_transform(f, budget)
    lhs = abs_pow_mean(_rank_part(S, d, budget), k)
    sides = ((subspaces_of_dim(spec, f.m, d), True),
             (subspaces_of_dim(spec, f.n, f.n - d), False))
    proj_sum = Fraction(0)
    for spaces, on_image in sides:
        for U in spaces:
            proj_sum += projection_mass(S, U, on_image) ** (k // 2)
    coeff = Fraction(k ** 7 * d ** 6) * proj_sum
    exp = Fraction(k ** 3 * d * d, 2) + (Fraction(3 * k, 4) - 1) * d * max(f.m, f.n)
    rhs = QPow(spec.q, coeff, exp)
    return {"lhs": lhs, "rhs": rhs, "holds": leq_threshold(lhs, rhs),
            "d": d, "k": k}


def check_sum_rank_nullity(lambdas: list[int], Xs: list[Mat]) -> dict:
    """For a vanishing combination of rank-one maps, the image-span dimension
    plus the kernel-intersection codimension is at most the relation length."""
    if len(lambdas) != len(Xs) or not Xs:
        raise DomainError("need matching nonempty coefficient and matrix lists")
    spec = Xs[0].field
    shape = Xs[0].shape
    for lam, X in zip(lambdas, Xs):
        if lam == 0:
            raise DomainError("coefficients must be nonzero")
        if X.field != spec or X.shape != shape:
            raise ShapeMismatch("mixed shapes in the relation")
        if rank(X) != 1:
            raise RankNotOne(f"rank {rank(X)} matrix in a rank-one relation")
    acc = Xs[0].smul(lambdas[0])
    for lam, X in zip(lambdas[1:], Xs[1:]):
        acc = acc + X.smul(lam)
    if not acc.is_zero():
        raise NotInKernelRelation("combination does not vanish")
    img = image(Xs[0])
    ker = kernel(Xs[0])
    for X in Xs[1:]:
        img = img.sum_(image(X))
        ker = ker.intersect(kernel(X))
    r = len(Xs)
    im_dim = img.dim
    ker_codim = shape[1] - ker.dim
    return {"image_sum_dim": im_dim, "kernel_codim": ker_codim, "r": r,
            "holds": im_dim + ker_codim <= r}


# --- coset re-indexing ------------------------------------------------------

def reduce_family(F: Family) -> DenseFunction:
    """Indicator of a context-restricted family, re-indexed over a fresh
    full matrix space of shape (n - dim A) x (m - dim S).

    Every member is base + B R P, where the columns of B span the kernel Z
    of the row constraints and P kills the column-constraint domain S.
    B is the identity on the pivot rows of Z's RREF basis, and P on the
    non-pivot columns of S's, so R is M - base read on those rows and
    columns.
    """
    spec = F.field
    ctx = F.context
    base = [x for row in coset_base(ctx).rows for x in row]
    Z = kernel(Mat(spec, [a for a, _ in ctx.rows], F.n))
    keep_rows = [next(j for j, x in enumerate(r) if x) for r in Z.rows]
    s_pivots = {next(j for j, x in enumerate(r) if x) for r in ctx.col_domain().rows}
    keep_cols = [j for j in range(F.m) if j not in s_pivots]
    q = spec.q
    keep = [i * F.m + j for i in keep_rows for j in keep_cols]
    vals = [0] * (q ** len(keep))
    for x in F.indices:
        d = vec_from_index(q, F.n * F.m, x)
        vals[vec_index(q, [spec.sub(d[k], base[k]) for k in keep])] = 1
    return DenseFunction(spec, len(keep_rows), len(keep_cols), vals)
