"""Exact Fourier analysis on the additive group of n x m matrices over F_q.

Characters are indexed by dual matrices X (shape m x n) through the pairing
omega^(tau(Trace(X A))).  Transforms keep cyclotomic-rational coefficients,
so every identity here is an equality of exact values.  Rank components,
image/kernel projections, and the restricted hypercontractive inequality
sit on top of the transform.

The fast transforms, Parseval sums and inner products run on integers: a
table is scaled once to one common denominator, and each entry becomes a
root-count vector, the counts of 1, omega, ..., omega^(p-1) (one signed
integer when p = 2, where omega = -1).  Multiplying by omega^k rotates such
a vector, so every butterfly cell is integer additions whatever q is, and
products of entries accumulate into the residue of their exponent
difference.  Each result is reduced to cyclotomic coordinates once, at the
end.  The quadratic-time ``transform`` stays as the oracle.
"""
from __future__ import annotations

import json
import math
from fractions import Fraction
from functools import lru_cache
from operator import add, mul, sub
from typing import Iterable

from .budget import Budget, ensure
from .cyclo import Cyc
from .errors import (DomainError, FieldMismatch, NotIndicator,
                     NotInKernelRelation, NotQuasiregular, RankNotOne,
                     ShapeMismatch, ZeroFunction)
from .gf import FieldSpec, char_root
from .matspace import Mat, Subspace, image, kernel, rank, rank_table
from .families import Family, QPow, function_quasiregular_witness, leq_threshold


def _as_cyc(p: int, v) -> Cyc:
    if isinstance(v, Cyc):
        if v.p != p:
            raise FieldMismatch("cyclotomic value for a different characteristic")
        return v
    return Cyc.from_rational(p, v)


class DenseFunction:
    """A function on all of L(V, W), stored densely in enumeration order."""

    __slots__ = ("field", "n", "m", "values")

    def __init__(self, spec: FieldSpec, n: int, m: int, values: Iterable):
        self.field = spec
        self.n = n
        self.m = m
        vals = tuple(_as_cyc(spec.p, v) for v in values)
        if len(vals) != spec.q ** (n * m):
            raise ShapeMismatch(f"expected {spec.q ** (n * m)} values, got {len(vals)}")
        self.values = vals

    @classmethod
    def constant(cls, spec: FieldSpec, n: int, m: int, c) -> "DenseFunction":
        v = _as_cyc(spec.p, c)
        return cls(spec, n, m, [v] * (spec.q ** (n * m)))

    @classmethod
    def indicator(cls, spec: FieldSpec, n: int, m: int,
                  members: Iterable[Mat]) -> "DenseFunction":
        vals = [Cyc.zero(spec.p)] * (spec.q ** (n * m))
        one = Cyc.from_rational(spec.p, 1)
        for M in members:
            vals[M.index()] = one
        return cls(spec, n, m, vals)

    def value_at(self, M: Mat) -> Cyc:
        return self.values[M.index()]

    def is_indicator(self) -> bool:
        zero, one = Cyc.zero(self.field.p), Cyc.from_rational(self.field.p, 1)
        return all(v == zero or v == one for v in self.values)

    def is_rational_valued(self) -> bool:
        return all(v.is_rational() for v in self.values)

    def rational_values(self) -> tuple[Fraction, ...]:
        try:
            return tuple(v.as_fraction() for v in self.values)
        except ValueError:
            raise DomainError("function takes irrational values")

    def mean(self) -> Cyc:
        q = self.field.q
        total = Cyc.zero(self.field.p)
        for v in self.values:
            total = total + v
        return total / (q ** (self.n * self.m))

    def __add__(self, other: "DenseFunction") -> "DenseFunction":
        self._chk(other)
        return DenseFunction(self.field, self.n, self.m,
                             [a + b for a, b in zip(self.values, other.values)])

    def __sub__(self, other: "DenseFunction") -> "DenseFunction":
        self._chk(other)
        return DenseFunction(self.field, self.n, self.m,
                             [a - b for a, b in zip(self.values, other.values)])

    def scale(self, c) -> "DenseFunction":
        cv = _as_cyc(self.field.p, c)
        return DenseFunction(self.field, self.n, self.m,
                             [v * cv for v in self.values])

    def __eq__(self, other) -> bool:
        return (isinstance(other, DenseFunction) and other.field == self.field
                and (other.n, other.m) == (self.n, self.m)
                and other.values == self.values)

    def __hash__(self):
        return hash((self.field, self.n, self.m, self.values))

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
        from .gf import field as gf_field
        lines = [ln.strip() for ln in text.splitlines() if ln.strip()]
        q, n, m = (int(x) for x in lines[0].split(","))
        spec = spec if spec is not None else gf_field(q)
        vals = [Cyc(spec.p, [Fraction(x) for x in ln.split(",")]) if "," in ln
                else Fraction(ln) for ln in lines[1:]]
        return cls(spec, n, m, vals)

    def __repr__(self):
        return f"DenseFunction(q={self.field.q}, shape {self.n}x{self.m})"


class Spectrum:
    """Fourier coefficients, indexed by the dual matrices X in L(W, V)."""

    __slots__ = ("field", "n", "m", "coeffs")

    def __init__(self, spec: FieldSpec, n: int, m: int, coeffs: Iterable):
        self.field = spec
        self.n = n
        self.m = m
        cs = tuple(_as_cyc(spec.p, c) for c in coeffs)
        if len(cs) != spec.q ** (n * m):
            raise ShapeMismatch("coefficient table of wrong size")
        self.coeffs = cs

    def coeff(self, X: Mat) -> Cyc:
        if X.shape != (self.m, self.n):
            raise ShapeMismatch(f"dual index must be {self.m}x{self.n}")
        return self.coeffs[X.index()]

    def nonzero(self):
        spec = self.field
        for idx, c in enumerate(self.coeffs):
            if not c.is_zero():
                yield Mat.from_index(spec, self.m, self.n, idx), c

    def parseval_sum(self) -> Cyc:
        return _conj_dot(self.field.p, self.coeffs, self.coeffs, 1)

    def to_json(self) -> str:
        entries = []
        for X, c in self.nonzero():
            entries.append({"X": X.to_literal(),
                            "c": [str(Fraction(x)) for x in c.coeffs]})
        return json.dumps(entries, sort_keys=True)

    def __eq__(self, other) -> bool:
        return (isinstance(other, Spectrum) and other.field == self.field
                and (other.n, other.m) == (self.n, self.m)
                and other.coeffs == self.coeffs)

    def __hash__(self):
        return hash((self.field, self.n, self.m, self.coeffs))


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


def character_function(spec: FieldSpec, n: int, m: int, X: Mat) -> DenseFunction:
    """u_X as a dense function on L(V, W)."""
    vals = [character(X, Mat.from_index(spec, n, m, idx))
            for idx in range(spec.q ** (n * m))]
    return DenseFunction(spec, n, m, vals)


# --- transforms -------------------------------------------------------------

def _cell_perm(q: int, n: int, m: int) -> tuple[int, ...]:
    """perm[i] = dual index whose (j,k) entry equals digit (k,j) of index i."""
    nm = n * m
    out = []
    weights_x = [q ** (nm - 1 - (j * n + k)) for j in range(m) for k in range(n)]
    for idx in range(q ** nm):
        digits = []
        rem = idx
        for _ in range(nm):
            digits.append(rem % q)
            rem //= q
        digits.reverse()  # digits[t] = entry at A-cell t = (i, j), t = i*m + j
        xidx = 0
        for i in range(n):
            for j in range(m):
                xidx += digits[i * m + j] * weights_x[j * n + i]
        out.append(xidx)
    return tuple(out)


@lru_cache(maxsize=None)
def _perm_table(spec: FieldSpec, n: int, m: int) -> tuple[int, ...]:
    return _cell_perm(spec.q, n, m)


def _root_counts(vals, p: int) -> tuple[list[list[int]], int]:
    """Integer columns over one common denominator for a table of values.

    Entry i is sum_j cols[j][i] * w^j / den.  For p = 2 the single column is
    the value itself times den (w = -1).  For p > 2 a zero column for
    w^(p-1) is appended, making each entry a length-p root-count vector.
    """
    ratios = [[c.as_integer_ratio() for c in col]
              for col in zip(*(v.coeffs for v in vals))]
    den = math.lcm(*{d for col in ratios for _, d in col})
    cols = [[n * (den // d) for n, d in col] for col in ratios]
    if p > 2:
        cols.append([0] * len(vals))
    return cols, den


def _from_root_counts(p: int, cols: list[list[int]], div: int) -> list[Cyc]:
    """Entry i is sum_j cols[j][i] * w^j / div, reduced to the power basis by
    the Cyc.from_root_counts rule."""
    if p > 2:
        top = cols[p - 1]
        cols = [list(map(sub, c, top)) for c in cols[:p - 1]]
    # tables repeat values, so each distinct numerator becomes one Fraction
    frac = {v: Fraction(v, div) for v in set().union(*cols)}
    return [Cyc(p, cs) for cs in zip(*(map(frac.__getitem__, c) for c in cols))]


def _butterfly(spec: FieldSpec, cols: list[list[int]], nm: int,
               sign: int) -> list[list[int]]:
    """Sum over a of w^(sign * tr(x a)) along every cell, on root-count columns.

    Multiplying a root-count vector by w^k rotates it by k places, so column
    r of an output gathers column r - k of an input: every cell is integer
    adds.  For p = 2 the single column is negated instead (w = -1), and at
    q = 2 a stage is the radix-2 add/sub pair.  Each stage transforms the
    last base-q digit of the index and moves it to the front,
    out[x * M + j] = sum_a w^K[x][a] in[j * q + a] with M = N / q, so after
    nm stages every digit has been transformed once and is back in place.
    Every sum runs over whole strided slices.
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
    for _ in range(nm):
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
    return cols


def fast_transform(f: DenseFunction, budget: Budget | None = None) -> Spectrum:
    """Coordinate-by-coordinate butterfly transform on integer root counts;
    equal by value to the quadratic-time transform."""
    spec = f.field
    nm = f.n * f.m
    b = ensure(budget)
    b.check_items(spec.q ** nm * nm * spec.q, "butterfly transform")
    N = spec.q ** nm
    perm = _perm_table(spec, f.n, f.m)
    cols, den = _root_counts(f.values, spec.p)
    vals = _from_root_counts(spec.p, _butterfly(spec, cols, nm, -1), den * N)
    out = [None] * N
    for ridx, v in enumerate(vals):
        out[perm[ridx]] = v
    return Spectrum(spec, f.n, f.m, out)


def transform(f: DenseFunction, budget: Budget | None = None) -> Spectrum:
    """Direct-sum transform: the oracle path, quadratic in the table size."""
    spec = f.field
    q, p = spec.q, spec.p
    n, m = f.n, f.m
    N = q ** (n * m)
    b = ensure(budget)
    b.check_items(N * N, "naive transform")
    all_A = [Mat.from_index(spec, n, m, i) for i in range(N)]
    rational = f.is_rational_valued()
    out = []
    if rational and q == 2:
        fr = [f.values[i].as_fraction() for i in range(N)]
        flat_a = [sum(1 << (i * m + j) for i in range(n) for j in range(m)
                      if A.rows[i][j]) for A in all_A]
        for xi in range(N):
            X = Mat.from_index(spec, m, n, xi)
            fx = sum(1 << (i * m + j) for j in range(m) for i in range(n)
                     if X.rows[j][i])
            s0 = Fraction(0)
            s1 = Fraction(0)
            for ai in range(N):
                if (fx & flat_a[ai]).bit_count() & 1:
                    s1 += fr[ai]
                else:
                    s0 += fr[ai]
            out.append(Cyc(2, ((s0 - s1) / N,)))
        return Spectrum(spec, n, m, out)
    for xi in range(N):
        X = Mat.from_index(spec, m, n, xi)
        if rational:
            buckets = [Fraction(0)] * p
            for A in all_A:
                buckets[(-char_exponent(X, A)) % p] += f.value_at(A).as_fraction()
            out.append(Cyc.from_root_counts(p, buckets) / N)
        else:
            acc = Cyc.zero(p)
            for A in all_A:
                acc = acc + f.value_at(A) * char_root(p, (-char_exponent(X, A)) % p)
            out.append(acc / N)
    return Spectrum(spec, n, m, out)


def inverse_transform(S: Spectrum, budget: Budget | None = None) -> DenseFunction:
    spec = S.field
    nm = S.n * S.m
    b = ensure(budget)
    b.check_items(spec.q ** nm * nm * spec.q, "inverse transform")
    perm = _perm_table(spec, S.n, S.m)
    cols, den = _root_counts([S.coeffs[i] for i in perm], spec.p)
    vals = _from_root_counts(spec.p, _butterfly(spec, cols, nm, 1), den)
    return DenseFunction(spec, S.n, S.m, vals)


# --- rank components and projections ----------------------------------------

def rank_component(f: DenseFunction, d: int, budget: Budget | None = None) -> DenseFunction:
    if not 0 <= d <= min(f.m, f.n):
        raise DomainError(f"rank {d} out of range for shape {f.n}x{f.m}")
    return rank_split(f, budget)[d]


def rank_split(f: DenseFunction, budget: Budget | None = None) -> dict[int, DenseFunction]:
    """All rank components from a single transform."""
    spec = f.field
    S = fast_transform(f, budget)
    ranks = rank_table(spec, f.m, f.n)
    zero = Cyc.zero(spec.p)
    out = {}
    for d in range(min(f.m, f.n) + 1):
        cs = [c if ranks[i] == d else zero for i, c in enumerate(S.coeffs)]
        out[d] = inverse_transform(Spectrum(spec, f.n, f.m, cs), budget)
    return out


def degree(f: DenseFunction, budget: Budget | None = None) -> int:
    spec = f.field
    S = fast_transform(f, budget)
    ranks = rank_table(spec, f.m, f.n)
    best = -1
    for i, c in enumerate(S.coeffs):
        if not c.is_zero() and ranks[i] > best:
            best = ranks[i]
    if best < 0:
        raise ZeroFunction("degree of the zero function")
    return best


@lru_cache(maxsize=None)
def _image_keys(spec: FieldSpec, m: int, n: int):
    N = spec.q ** (n * m)
    return tuple(image(Mat.from_index(spec, m, n, i)).key() for i in range(N))


@lru_cache(maxsize=None)
def _kernel_keys(spec: FieldSpec, m: int, n: int):
    N = spec.q ** (n * m)
    return tuple(kernel(Mat.from_index(spec, m, n, i)).key() for i in range(N))


def project_image(f: DenseFunction, Vp: Subspace,
                  budget: Budget | None = None) -> DenseFunction:
    """Keep the characters whose dual matrix has image exactly Vp <= V."""
    spec = f.field
    if Vp.ambient != f.m:
        raise DomainError("image subspace must live in the m-dimensional side")
    S = fast_transform(f, budget)
    keys = _image_keys(spec, f.m, f.n)
    zero = Cyc.zero(spec.p)
    want = Vp.key()
    cs = [c if keys[i] == want else zero for i, c in enumerate(S.coeffs)]
    return inverse_transform(Spectrum(spec, f.n, f.m, cs), budget)


def project_kernel(f: DenseFunction, Wp: Subspace,
                   budget: Budget | None = None) -> DenseFunction:
    """Keep the characters whose dual matrix has kernel exactly Wp <= W."""
    spec = f.field
    if Wp.ambient != f.n:
        raise DomainError("kernel subspace must live in the n-dimensional side")
    S = fast_transform(f, budget)
    keys = _kernel_keys(spec, f.m, f.n)
    zero = Cyc.zero(spec.p)
    want = Wp.key()
    cs = [c if keys[i] == want else zero for i, c in enumerate(S.coeffs)]
    return inverse_transform(Spectrum(spec, f.n, f.m, cs), budget)


# --- inner products and norms ----------------------------------------------

def _conj_dot(p: int, xs, ys, div: int) -> Cyc:
    """sum_i xs[i] * conj(ys[i]) / div.  The product of coordinates i and j
    counts toward w^(i - j), so whole columns multiply into p integer root
    counts and one Cyc is built at the end."""
    X, dx = _root_counts(xs, p)
    Y, dy = (X, dx) if ys is xs else _root_counts(ys, p)
    acc = [0] * p
    for i, u in enumerate(X[:p - 1]):
        for j, v in enumerate(Y[:p - 1]):
            acc[(i - j) % p] += sum(map(mul, u, v))
    return Cyc.from_root_counts(p, acc) / (dx * dy * div)


def inner(f: DenseFunction, g: DenseFunction) -> Cyc:
    f._chk(g)
    return _conj_dot(f.field.p, f.values, g.values, f.field.q ** (f.n * f.m))

def norm2_sq(f: DenseFunction) -> Cyc:
    return inner(f, f)


def norm2_sq_frac(f: DenseFunction) -> Fraction:
    v = norm2_sq(f)
    if not v.is_rational():
        raise DomainError("2-norm square is irrational")
    return v.as_fraction()


def abs_pow_mean(f: DenseFunction, k: int) -> Fraction:
    """E[|f|^k] for even k and rational-valued f."""
    if k % 2:
        raise DomainError("only even powers stay rational")
    vals = f.rational_values()
    total = sum(v ** k for v in vals)
    return Fraction(total, f.field.q ** (f.n * f.m))


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
    comp = rank_component(f, d, budget)
    lhs = abs_pow_mean(comp, k)
    from .matspace import subspaces_of_dim
    proj_sum = Fraction(0)
    for Vp in subspaces_of_dim(spec, f.m, d):
        proj_sum += norm2_sq_frac(project_image(f, Vp, budget)) ** (k // 2)
    for Wp in subspaces_of_dim(spec, f.n, f.n - d):
        proj_sum += norm2_sq_frac(project_kernel(f, Wp, budget)) ** (k // 2)
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


def level_d_bound_check(f: DenseFunction, d: int, k: int, s: int, C: Fraction,
                        budget: Budget | None = None) -> dict:
    """Chain the Hoelder step through the hypercontractive bound:

        (E[|f^(=d)|^2])^k <= (E f)^(k-1) * E[|f^(=d)|^k]
                          <= (E f)^(k-1) * (hypercontractive rhs).
    """
    if not f.is_indicator():
        raise NotIndicator("level-d check requires a 0/1-valued function")
    if d > s:
        raise DomainError("need d <= s")
    spec = f.field
    weights = {Mat.from_index(spec, f.n, f.m, i): Fraction(1)
               for i, v in enumerate(f.values) if not v.is_zero()}
    wit = function_quasiregular_witness(spec, f.n, f.m, weights, s, C, budget)
    if wit is not None:
        raise NotQuasiregular(f"density ratio exceeds {C} at {wit!r}")
    ef = f.mean().as_fraction()
    comp = rank_component(f, d, budget)
    lhs2 = norm2_sq_frac(comp)
    hc = verify_hypercontractive(f, d, k, budget)
    if ef == 0:
        holds = lhs2 == 0
        chain_rhs = QPow(spec.q, Fraction(0), Fraction(0))
    else:
        chain_rhs = QPow(spec.q, hc["rhs"].coeff * ef ** (k - 1), hc["rhs"].exp)
        holds = leq_threshold(lhs2 ** k, chain_rhs)
    return {"lhs_sq": lhs2, "chain_rhs": chain_rhs, "holds": holds,
            "mean": ef, "d": d, "k": k}


# --- coset re-indexing ------------------------------------------------------

def reduce_family(F: Family) -> DenseFunction:
    """Indicator of a context-restricted family, re-indexed over a fresh
    full matrix space of shape (n - dim A) x (m - dim S)."""
    from .families import coset_base
    spec = F.field
    ctx = F.context
    n_red = F.n - ctx.dim_row
    m_red = F.m - ctx.dim_col
    base = coset_base(ctx)
    Z = kernel(Mat(spec, tuple(a for a, _ in ctx.rows), F.n)) if ctx.rows \
        else Subspace.full(spec, F.n)
    B = Mat(spec, Z.rows, F.n).transpose()  # n x n_red, columns span Z
    S_dom = ctx.col_domain()
    s_pivots = [next(j for j, x in enumerate(r) if x) for r in S_dom.rows]
    piv = set(s_pivots)
    nonpiv = [j for j in range(F.m) if j not in piv]
    # P kills the column-constraint domain and reads off complement coords
    prows = []
    for k in nonpiv:
        row = [0] * F.m
        row[k] = 1
        for pi, srow in zip(s_pivots, S_dom.rows):
            if srow[k]:
                row[pi] = spec.neg(srow[k])
        prows.append(tuple(row))
    P = Mat(spec, tuple(prows), F.m)
    vals = []
    one = Cyc.from_rational(spec.p, 1)
    zero = Cyc.zero(spec.p)
    for idx in range(spec.q ** (n_red * m_red)):
        R = Mat.from_index(spec, n_red, m_red, idx)
        lifted = base + (B @ R @ P)
        vals.append(one if lifted in F.members else zero)
    return DenseFunction(spec, n_red, m_red, vals)
