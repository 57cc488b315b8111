"""Matrix spaces M(n, m) over F_q: exact linear algebra, counting, enumeration.

A Mat is an immutable n x m array of field-element encodings together with
its FieldSpec.  Subspaces are kept in reduced row echelon form, so equal
subspaces have identical representations.  Mat and Subspace compute
through the vec_* helpers and rref_rows; only det_val, which tracks a
determinant, keeps its own elimination.

A vector of F_q^L is also coded by its index (vec_index), and a matrix by
the index of its row-major entries (Mat.index), whose base-q^m digits are
its rows' indices.  IndexCode adds and scales indices by table lookup, and
by XOR in characteristic 2.  A span of indices is held as its listing, the
indices of its members: IndexCode.extend lists what one more vector adds to
a span.  It builds span_indices, the listing by the index of every
combination of a basis; Subspace.listing, each subspace's one listing, kept
for the capture and density scans' domains, the seeds and the projections;
and the member sets of the prefix walk, of the rank walk, of the seed walks'
spans (E + tau^-1 E, the basis and its inverse) and of Family.restrict.
"""
from __future__ import annotations

import itertools
from collections import Counter
from fractions import Fraction
from functools import lru_cache
from operator import add, mul, xor
from typing import Iterable, Iterator, Sequence

from .budget import Budget, ensure
from .errors import (DomainError, FieldMismatch, InvariantViolated,
                     ShapeMismatch)
from .gf import FieldSpec, field

# --- vectors (tuples of encodings) -----------------------------------------

def vec_index(q: int, v: Sequence[int]) -> int:
    """Lexicographic code of a vector; first coordinate most significant."""
    a = 0
    for x in v:
        a = a * q + x
    return a


def vec_from_index(q: int, length: int, idx: int) -> tuple[int, ...]:
    out = [0] * length
    for j in range(length - 1, -1, -1):
        out[j] = idx % q
        idx //= q
    return tuple(out)


def vec_add(spec: FieldSpec, u: Sequence[int], v: Sequence[int]) -> tuple[int, ...]:
    return tuple(spec.add(a, b) for a, b in zip(u, v))


def vec_sub(spec: FieldSpec, u: Sequence[int], v: Sequence[int]) -> tuple[int, ...]:
    return tuple(spec.sub(a, b) for a, b in zip(u, v))


def vec_smul(spec: FieldSpec, c: int, v: Sequence[int]) -> tuple[int, ...]:
    return tuple(spec.mul(c, x) for x in v)


def vec_dot(spec: FieldSpec, u: Sequence[int], v: Sequence[int]) -> int:
    if spec.s == 1:
        # a prime field's encodings are the residues: one integer sum
        return sum(map(mul, u, v)) % spec.p
    t = 0
    for a, b in zip(u, v):
        t = spec.add(t, spec.mul(a, b))
    return t


@lru_cache(maxsize=None)
def _index_tables(spec: FieldSpec, length: int) -> tuple[list | None, list]:
    """add[x][y] and mul[c][x] on the indices of length-`length` vectors;
    no add table in characteristic 2, where IndexCode adds by XOR."""
    q = spec.q
    vecs = list(itertools.product(range(q), repeat=length))
    add = None if spec.p == 2 else [
        [vec_index(q, vec_add(spec, u, v)) for v in vecs] for u in vecs]
    mul = [[vec_index(q, vec_smul(spec, c, v)) for v in vecs] for c in range(q)]
    return add, mul


class IndexCode:
    """Vector arithmetic and span listings on the indices of length-L
    vectors.

    An index splits into its leading ceil(L/2) and trailing floor(L/2)
    coordinates; each half has its own tables, so no table holds more than
    q^(L+1) entries.  In characteristic 2 an index's base-q digits are bit
    fields, so add, sub and shift are XOR and no add table is built.
    """

    __slots__ = ("field", "length", "base", "hadd", "hmul", "ladd", "lmul",
                 "minus_one", "add", "sub")

    def __init__(self, spec: FieldSpec, length: int):
        low = length // 2
        self.field = spec
        self.length = length
        self.base = spec.q ** low
        self.hadd, self.hmul = _index_tables(spec, length - low)
        self.ladd, self.lmul = _index_tables(spec, low)
        self.minus_one = spec.neg(1)
        self.add, self.sub = ((xor, xor) if spec.p == 2
                              else (self._add, self._sub))

    def _add(self, x: int, y: int) -> int:
        B = self.base
        return self.hadd[x // B][y // B] * B + self.ladd[x % B][y % B]

    def _sub(self, x: int, y: int) -> int:
        return self._add(x, self.smul(self.minus_one, y))

    def smul(self, c: int, x: int) -> int:
        B = self.base
        return self.hmul[c][x // B] * B + self.lmul[c][x % B]

    def shift(self, span: Iterable[int], u: int) -> list[int]:
        """x + u for each x listed in span."""
        if self.field.p == 2:
            return [x ^ u for x in span]
        B = self.base
        hrow, lrow = self.hadd[u // B], self.ladd[u % B]
        return [hrow[x // B] * B + lrow[x % B] for x in span]

    def extend(self, span: Iterable[int], v: int) -> list[int]:
        """The shifts of span by c v for c = 1 .. q - 1, in that order: the
        members that v adds to the span listed when v lies outside it."""
        if self.field.q == 2:   # one pass, as capture_keys extends per candidate
            return [x ^ v for x in span]
        out = self.shift(span, v)
        for c in range(2, self.field.q):
            out += self.shift(span, self.smul(c, v))
        return out


def span_indices(code: IndexCode, basis: Sequence[Sequence[int]]) -> list[int]:
    """Entry vec_index(q, u) is the index of sum_i u_i basis_i for every
    coefficient vector u, the basis rows being vectors of code's length:
    IndexCode.extend adds the rows last first."""
    out = [0]
    for r in reversed(basis):
        out += code.extend(out, vec_index(code.field.q, r))
    return out


def index_rows(q: int, n: int, m: int, indices: Sequence[int]) -> list[list[int]]:
    """Row i's index of each n x m matrix index, one list per row i."""
    Q = q ** m
    return [[x // d % Q for x in indices] for d in (Q ** (n - 1 - i) for i in range(n))]


def transpose_indices(q: int, n: int, m: int, indices: Sequence[int]) -> list[int]:
    """The indices of the transposes of the n x m matrices with these
    indices.  A row's digits land n places apart in the transpose, so row
    position i reads one q^m-entry table, spread[r] * q^(n - 1 - i)."""
    spread = [vec_index(q ** n, vec_from_index(q, m, r)) for r in range(q ** m)]
    out = [0] * len(indices)
    for i, rows in enumerate(index_rows(q, n, m, indices)):
        table = [x * q ** (n - 1 - i) for x in spread]
        out = list(map(add, out, map(table.__getitem__, rows)))
    return out


# --- row reduction ----------------------------------------------------------

def rref_rows(spec: FieldSpec, rows: Iterable[Sequence[int]], ncols: int,
              pivot_cols: int | None = None):
    """Reduced row echelon form.

    Pivots are searched only in the first pivot_cols columns (default: all).
    Returns (pivots, reduced, leftover): leftover rows vanish on the pivot
    range but may be nonzero beyond it.
    """
    limit = ncols if pivot_cols is None else pivot_cols
    work = [list(r) for r in rows]
    pivots: list[int] = []
    r = 0
    for c in range(limit):
        pr = None
        for i in range(r, len(work)):
            if work[i][c]:
                pr = i
                break
        if pr is None:
            continue
        work[r], work[pr] = work[pr], work[r]
        lead = work[r][c]
        if lead != 1:
            inv = spec.inv(lead)
            work[r] = [spec.mul(inv, x) for x in work[r]]
        for i in range(len(work)):
            if i != r and work[i][c]:
                f = work[i][c]
                row_r = work[r]
                work[i] = [spec.sub(x, spec.mul(f, y)) for x, y in zip(work[i], row_r)]
        pivots.append(c)
        r += 1
        if r == len(work):
            break
    reduced = [tuple(w) for w in work[:r]]
    leftover = [tuple(w) for w in work[r:] if any(w)]
    return tuple(pivots), reduced, leftover


# --- Mat --------------------------------------------------------------------

class Mat:
    __slots__ = ("field", "n", "m", "rows", "_hash")

    def __init__(self, spec: FieldSpec, rows: Iterable[Iterable[int]], m: int | None = None):
        rows = tuple(tuple(r) for r in rows)
        if rows:
            m = len(rows[0]) if m is None else m
            if any(len(r) != m for r in rows):
                raise ShapeMismatch("ragged rows")
        elif m is None:
            m = 0
        for r in rows:
            for x in r:
                if not 0 <= x < spec.q:
                    raise DomainError(f"entry {x} not an encoding for q={spec.q}")
        self.field = spec
        self.n = len(rows)
        self.m = m
        self.rows = rows
        self._hash = None

    # constructors ---------------------------------------------------------

    @classmethod
    def zero(cls, spec: FieldSpec, n: int, m: int) -> "Mat":
        return cls(spec, tuple((0,) * m for _ in range(n)), m)

    @classmethod
    def identity(cls, spec: FieldSpec, n: int) -> "Mat":
        return cls(spec, tuple(tuple(1 if i == j else 0 for j in range(n))
                               for i in range(n)), n)

    @classmethod
    def from_index(cls, spec: FieldSpec, n: int, m: int, idx: int) -> "Mat":
        flat = vec_from_index(spec.q, n * m, idx)
        return cls(spec, tuple(flat[i * m:(i + 1) * m] for i in range(n)), m)

    # basic properties -----------------------------------------------------

    @property
    def shape(self) -> tuple[int, int]:
        return (self.n, self.m)

    def index(self) -> int:
        return vec_index(self.field.q, itertools.chain.from_iterable(self.rows))

    def _check_space(self, spec: FieldSpec, n: int, m: int) -> None:
        """Raise unless this is an n x m matrix over spec."""
        if self.field != spec:
            raise FieldMismatch("matrix over a different field")
        if self.n != n or self.m != m:
            raise ShapeMismatch(f"matrix must be {n}x{m}, got {self.n}x{self.m}")

    def index_in(self, spec: FieldSpec, n: int, m: int) -> int:
        """index(), once this is checked to be an n x m matrix over spec."""
        self._check_space(spec, n, m)
        return self.index()

    def is_zero(self) -> bool:
        return not any(any(r) for r in self.rows)

    def _chk(self, other: "Mat") -> "Mat":
        if not isinstance(other, Mat):
            raise ShapeMismatch(f"expected Mat, got {type(other).__name__}")
        if other.field != self.field:
            raise FieldMismatch("matrices over different fields")
        return other

    # arithmetic -----------------------------------------------------------

    def _cellwise(self, other, op, sym: str) -> "Mat":
        """op(field, r1, r2) on each pair of rows, other sharing field and shape."""
        o = self._chk(other)
        if o.shape != self.shape:
            raise ShapeMismatch(f"{self.shape} {sym} {o.shape}")
        f = self.field
        return Mat(f, (op(f, r1, r2) for r1, r2 in zip(self.rows, o.rows)), self.m)

    def __add__(self, other):
        return self._cellwise(other, vec_add, "+")

    def __sub__(self, other):
        return self._cellwise(other, vec_sub, "-")

    def __neg__(self):
        return self.smul(self.field.neg(1))

    def __matmul__(self, other):
        o = self._chk(other)
        if self.m != o.n:
            raise ShapeMismatch(f"{self.shape} @ {o.shape}")
        f = self.field
        ocols = list(zip(*o.rows)) if o.rows else [()] * o.m
        out = []
        for r in self.rows:
            out.append(tuple(vec_dot(f, r, c) for c in ocols))
        return Mat(f, tuple(out), o.m)

    def smul(self, c: int) -> "Mat":
        f = self.field
        return Mat(f, (vec_smul(f, c, r) for r in self.rows), self.m)

    def transpose(self) -> "Mat":
        if not self.rows:
            return Mat(self.field, tuple(() for _ in range(self.m)), 0)
        return Mat(self.field, tuple(zip(*self.rows)), self.n)

    def apply(self, v: Sequence[int]) -> tuple[int, ...]:
        """Matrix-vector product A v, v of length m."""
        if len(v) != self.m:
            raise ShapeMismatch("vector length != m")
        f = self.field
        return tuple(vec_dot(f, r, v) for r in self.rows)

    def rapply(self, a: Sequence[int]) -> tuple[int, ...]:
        """Row-functional product a^T A, a of length n."""
        if len(a) != self.n:
            raise ShapeMismatch("functional length != n")
        cols = zip(*self.rows) if self.rows else [()] * self.m
        return tuple(vec_dot(self.field, a, c) for c in cols)

    def det_val(self) -> int:
        if self.n != self.m:
            raise ShapeMismatch("determinant needs a square matrix")
        f = self.field
        work = [list(r) for r in self.rows]
        det = 1
        for c in range(self.n):
            pr = None
            for i in range(c, self.n):
                if work[i][c]:
                    pr = i
                    break
            if pr is None:
                return 0
            if pr != c:
                work[c], work[pr] = work[pr], work[c]
                det = f.neg(det)
            lead = work[c][c]
            det = f.mul(det, lead)
            inv = f.inv(lead)
            for i in range(c + 1, self.n):
                if work[i][c]:
                    fct = f.mul(inv, work[i][c])
                    work[i] = [f.sub(x, f.mul(fct, y))
                               for x, y in zip(work[i], work[c])]
        return det

    # identity -------------------------------------------------------------

    def __eq__(self, other):
        return (isinstance(other, Mat) and other.field == self.field
                and other.rows == self.rows and other.m == self.m)

    def __hash__(self):
        if self._hash is None:
            self._hash = hash((self.field, self.m, self.rows))
        return self._hash

    def __repr__(self):
        return f"Mat({self.field.q}, {self.n}x{self.m}, {self.rows})"

    # literal serialization -------------------------------------------------

    def to_literal(self) -> str:
        return flat_literal(self.field.q, self.n, self.m,
                            tuple(itertools.chain.from_iterable(self.rows)))


def vec_text(q: int, v: Iterable[int]) -> str:
    """A vector's entries as digits, comma-separated once an entry can take
    two digits (q > 10): the vector rule of literals and family files."""
    return ("," if q > 10 else "").join(map(str, v))


def vec_from_text(q: int, text: str) -> tuple[int, ...]:
    """The entries of a vec_text; a text holding a comma is comma-separated
    at every q, and an empty text is the empty vector."""
    parts = text.split(",") if text and (q > 10 or "," in text) else text
    return tuple(map(int, parts))


def flat_literal(q: int, n: int, m: int, flat: Sequence[int]) -> str:
    """'q=..;n=..;m=..;rows=..' for the n x m matrix of row-major entries
    flat, each row a vec_text."""
    body = ";".join(vec_text(q, flat[i * m:(i + 1) * m]) for i in range(n))
    return f"q={q};n={n};m={m};rows={body}"


def literal_index(text: str, spec: FieldSpec | None = None
                  ) -> tuple[FieldSpec, int, int, int]:
    """Parse 'q=..;n=..;m=..;rows=..' to (field, n, m, index)."""
    text = text.strip()
    if not text.startswith("q="):
        raise DomainError(f"bad matrix literal {text!r}")
    head, _, tail = text.partition(";rows=")
    try:
        parts = dict(kv.split("=", 1) for kv in head.split(";"))
        q, n, m = (int(parts[k]) for k in "qnm")
    except (KeyError, ValueError):
        raise DomainError(f"matrix literal {text!r} needs integer q=, n= "
                          "and m= fields") from None
    spec = spec if spec is not None else field(q)
    if spec.q != q:
        raise FieldMismatch(f"literal q={q} but field has q={spec.q}")
    return spec, n, m, rows_index(q, n, m, tail)


def rows_index(q: int, n: int, m: int, tail: str) -> int:
    """Index of the n x m matrix whose rows are tail's semicolon-separated
    vec_texts."""
    row_texts = tail.split(";") if n else []
    if len(row_texts) != n:
        raise DomainError(f"expected {n} rows, got {len(row_texts)}")
    entries: list = []
    for rt in row_texts:
        row = vec_from_text(q, rt)
        if len(row) != m:
            raise DomainError(f"row {rt!r} has wrong length")
        entries += row
    for x in entries:
        if not 0 <= x < q:
            raise DomainError(f"entry {x} not an encoding for q={q}")
    return vec_index(q, entries)


def mat_from_literal(text: str, spec: FieldSpec | None = None) -> Mat:
    return Mat.from_index(*literal_index(text, spec))


# --- Subspace ---------------------------------------------------------------

class Subspace:
    """A subspace of F_q^ambient, held as canonical RREF basis rows."""

    __slots__ = ("field", "ambient", "rows", "_hash", "_listing")

    def __init__(self, spec: FieldSpec, ambient: int, rref_basis: tuple[tuple[int, ...], ...]):
        self.field = spec
        self.ambient = ambient
        self.rows = rref_basis
        self._hash = hash((spec, ambient, rref_basis))
        self._listing = None

    @classmethod
    def from_vectors(cls, spec: FieldSpec, ambient: int,
                     vecs: Iterable[Sequence[int]]) -> "Subspace":
        _, reduced, _ = rref_rows(spec, vecs, ambient)
        return cls(spec, ambient, tuple(reduced))

    @classmethod
    def zero(cls, spec: FieldSpec, ambient: int) -> "Subspace":
        return cls(spec, ambient, ())

    @classmethod
    def full(cls, spec: FieldSpec, ambient: int) -> "Subspace":
        return cls(spec, ambient, Mat.identity(spec, ambient).rows)

    @property
    def dim(self) -> int:
        return len(self.rows)

    @property
    def listing(self) -> list[int]:
        """span_indices of the rows added first to last, listed on first
        read and kept.  IndexCode.extend puts the newest row first, so
        sum_i u_i rows_i sits at vec_index(u[::-1]), as in the capture walk."""
        if self._listing is None:
            self._listing = span_indices(IndexCode(self.field, self.ambient),
                                         self.rows[::-1])
        return self._listing

    def contains(self, v: Sequence[int]) -> bool:
        if len(v) != self.ambient:
            raise ShapeMismatch(f"vector of length {len(v)} in F^{self.ambient}")
        return Subspace.from_vectors(self.field, self.ambient,
                                     self.rows + (v,)).dim == self.dim

    def sum_(self, other: "Subspace") -> "Subspace":
        self._chk(other)
        return Subspace.from_vectors(self.field, self.ambient, self.rows + other.rows)

    def intersect(self, other: "Subspace") -> "Subspace":
        """Zassenhaus: left-zero rows of rref([U|U],[W|0]) carry the meet."""
        self._chk(other)
        amb = self.ambient
        block = [tuple(r) + tuple(r) for r in self.rows]
        block += [tuple(r) + (0,) * amb for r in other.rows]
        # rows that vanish on the left half after pivoting there span the meet
        _, _, leftover = rref_rows(self.field, block, 2 * amb, pivot_cols=amb)
        return Subspace.from_vectors(self.field, amb, [row[amb:] for row in leftover])

    def _chk(self, other: "Subspace"):
        if other.field != self.field or other.ambient != self.ambient:
            raise ShapeMismatch("subspaces in different ambient spaces")

    def key(self) -> tuple[int, ...]:
        return tuple(vec_index(self.field.q, r) for r in self.rows)

    def __eq__(self, other):
        return (isinstance(other, Subspace) and other.field == self.field
                and other.ambient == self.ambient and other.rows == self.rows)

    def __hash__(self):
        return self._hash

    def __repr__(self):
        return f"Subspace(q={self.field.q}, ambient={self.ambient}, dim={self.dim})"


# --- rank / kernel / image / agreement --------------------------------------

def rank(A: Mat) -> int:
    # at q = 2 a bit echelon of the rows' indices, held as one row per bit
    # length, so a row is reduced by XOR from its leading bit down; at other
    # q RREF, as one rank does not repay IndexCode's tables
    if A.field.q == 2:
        basis: dict[int, int] = {}
        for v in A.rows:
            v = vec_index(2, v)
            while v:
                b = basis.get(v.bit_length())
                if b is None:
                    basis[v.bit_length()] = v
                    break
                v ^= b
        return len(basis)
    _, reduced, _ = rref_rows(A.field, A.rows, A.m)
    return len(reduced)


def null_basis(spec: FieldSpec, reduced: Sequence[Sequence[int]],
               m: int) -> list[tuple[int, ...]]:
    """A basis of {v in F^m : r . v = 0 for every row r} for rows in reduced
    row echelon form: for each non-pivot column c, e_c minus column c of
    the rows placed at their pivots."""
    pivots = [next(j for j, x in enumerate(r) if x) for r in reduced]
    pivset = set(pivots)
    basis = []
    for fc in range(m):
        if fc in pivset:
            continue
        v = [0] * m
        v[fc] = 1
        for row, pc in zip(reduced, pivots):
            if row[fc]:
                v[pc] = spec.neg(row[fc])
        basis.append(tuple(v))
    return basis


def kernel(A: Mat) -> Subspace:
    """Right null space {v in F^m : A v = 0}."""
    _, reduced, _ = rref_rows(A.field, A.rows, A.m)
    return Subspace.from_vectors(A.field, A.m, null_basis(A.field, reduced, A.m))


def image(A: Mat) -> Subspace:
    """Column space, a subspace of F^n."""
    return Subspace.from_vectors(A.field, A.n, tuple(zip(*A.rows)) if A.rows else ())


def agreement(A1: Mat, A2: Mat) -> Subspace:
    """The subspace {v : A1 v = A2 v} = ker(A1 - A2)."""
    return kernel(A1 - A2)


def agreement_dim(A1: Mat, A2: Mat) -> int:
    return A1.m - rank(A1 - A2)


# --- counting ---------------------------------------------------------------

def gaussian_binomial(m: int, d: int, q: int) -> int:
    """Number of d-dimensional subspaces of F_q^m."""
    if d < 0 or d > m:
        raise DomainError(f"need 0 <= d <= m, got d={d}, m={m}")
    num = den = 1
    for i in range(1, d + 1):
        num *= q ** (m - i + 1) - 1
        den *= q ** (d - i + 1) - 1
    if num % den:
        raise InvariantViolated(f"subspace count {num}/{den} is not an integer")
    return num // den


def _frames(q: int, n: int, k: int, d: int) -> int:
    """prod_{i=k}^{k+d-1} (q^n - q^i): the ordered d-tuples in F_q^n that
    are independent modulo a fixed k-dimensional subspace."""
    out = 1
    for i in range(k, k + d):
        out *= q ** n - q ** i
    return out


def count_rank_d(n: int, m: int, d: int, q: int) -> int:
    """Number of n x m matrices over F_q of rank exactly d."""
    if d < 0 or d > min(n, m):
        return 0
    return gaussian_binomial(m, d, q) * gaussian_binomial(n, d, q) * gl_order(d, q)


def gl_order(n: int, q: int) -> int:
    return _frames(q, n, 0, n)


def m_qt(n: int, q: int, t: int) -> int:
    """|{sigma in GL(n, q) : sigma fixes e_1, ..., e_t pointwise}|."""
    if not 0 <= t <= n:
        raise DomainError(f"need 0 <= t <= n, got t={t}")
    return _frames(q, n, t, n - t)


def phi(m: int, n: int, t: int, q: int) -> Fraction:
    """Density of {A in M(n, m) : dim ker A = t} inside M(n, m)."""
    if not 0 <= t <= m:
        raise DomainError(f"need 0 <= t <= m, got t={t}")
    if n < m - t:
        raise DomainError("rank m - t cannot exceed n")
    return Fraction(gaussian_binomial(m, t, q) * _frames(q, n, 0, m - t),
                    q ** (n * m))


def count_subspaces_avoiding(n: int, k: int, d: int, q: int) -> int:
    """d-dim subspaces of F_q^n meeting a fixed k-dim subspace trivially."""
    if d < 0 or k < 0 or d + k > n:
        raise DomainError("need d + k <= n with d, k >= 0")
    num, den = _frames(q, n, k, d), gl_order(d, q)
    if num % den:
        raise InvariantViolated(f"subspace count {num}/{den} is not an integer")
    return num // den


# --- enumeration ------------------------------------------------------------

def enumerate_all(spec: FieldSpec, n: int, m: int,
                  budget: Budget | None = None) -> Iterator[Mat]:
    """All of M(n, m) in lexicographic row-major order of entry encodings."""
    b = ensure(budget)
    b.check_items(spec.q ** (n * m), "matrix space enumeration")
    for flat in itertools.product(range(spec.q), repeat=n * m):
        yield Mat(spec, tuple(flat[i * m:(i + 1) * m] for i in range(n)), m)


def enumerate_gl(spec: FieldSpec, n: int,
                 budget: Budget | None = None) -> Iterator[Mat]:
    for A in enumerate_all(spec, n, n, budget):
        if rank(A) == n:
            yield A


def _rank_walk(spec: FieldSpec, n: int, m: int, emit) -> None:
    """Feed emit the rank of every n x m matrix, in Mat.from_index order,
    one list per choice of the rows above the last.

    A DFS over rows in lexicographic order visits the matrices in index
    order and holds the span of the rows above as the set of its members'
    indices, grown by IndexCode.extend as the prefix walk grows its spans:
    a row adds to the rank exactly when it lies outside that set, so each
    matrix costs one set lookup and no Mat is built.
    """
    if n == 0:
        emit([0])
        return
    code = IndexCode(spec, m)
    rows = range(spec.q ** m)
    span = {0}

    def rec(depth: int, rk: int) -> None:
        if depth == n - 1:
            emit([rk if v in span else rk + 1 for v in rows])
            return
        for v in rows:
            if v in span:
                rec(depth + 1, rk)
            else:
                added = code.extend(span, v)
                span.update(added)
                rec(depth + 1, rk + 1)
                span.difference_update(added)

    rec(0, 0)


def rank_census(spec: FieldSpec, n: int, m: int,
                budget: Budget | None = None) -> tuple[int, ...]:
    """Counts of matrices in M(n, m) by rank, by exhaustive enumeration:
    the rank_table walk, counted without caching it."""
    ensure(budget).check_items(spec.q ** (n * m), "rank census")
    counts: Counter = Counter()
    _rank_walk(spec, n, m, counts.update)
    return tuple(counts[d] for d in range(min(n, m) + 1))


@lru_cache(maxsize=None)
def rank_table(spec: FieldSpec, n: int, m: int) -> tuple[int, ...]:
    """rank of Mat.from_index(spec, n, m, i) for every index i."""
    Budget().check_items(spec.q ** (n * m), "rank table")
    out: list[int] = []
    _rank_walk(spec, n, m, out.extend)
    return tuple(out)


@lru_cache(maxsize=None)
def subspaces_of_dim(spec: FieldSpec, ambient: int, d: int) -> tuple[Subspace, ...]:
    """All d-dimensional subspaces, sorted by canonical basis key.

    Each one is an RREF basis with pivots in some d columns (its Schubert
    cell): row i is 1 at its pivot, 0 left of it and at the other pivots,
    and free at every other column to its right.
    """
    if not 0 <= d <= ambient:
        return ()
    Budget().check_items(gaussian_binomial(ambient, d, spec.q),
                         "subspace enumeration")
    out = []
    for pivots in itertools.combinations(range(ambient), d):
        free = [(i, j) for i, p in enumerate(pivots)
                for j in range(p + 1, ambient) if j not in pivots]
        for fill in itertools.product(range(spec.q), repeat=len(free)):
            rows = [[0] * ambient for _ in pivots]
            for i, p in enumerate(pivots):
                rows[i][p] = 1
            for (i, j), x in zip(free, fill):
                rows[i][j] = x
            out.append(Subspace(spec, ambient, tuple(map(tuple, rows))))
    out.sort(key=Subspace.key)
    return tuple(out)
