"""Families of linear maps, restrictions, and junta decompositions.

A Restriction pins a partial map on each side: column constraints demand
sigma(v) = w, row constraints demand a^T sigma = b^T.  A Family is an
explicit member set living inside the coset cut out by its context
restriction; measures are relative to that coset.  On top of this the
module implements captureability and quasiregularity searches, the
iterative weak regularity decomposition, and the check that a quasiregular
family is not captureable.
"""
from __future__ import annotations

import itertools
import json
import math
from bisect import bisect_left
from dataclasses import dataclass, field as dc_field
from fractions import Fraction
from typing import Iterable, Sequence

from .budget import Budget, ensure
from .errors import (BudgetExceeded, DomainError, DomainOverlap,
                     FieldMismatch, HypothesisUnmet, InconsistentRestriction,
                     LinfamError, NotQuasiregular, ShapeMismatch)
from .gf import FieldSpec, field as gf_field
from .images import ImageTables, capture_keys
from .matspace import (IndexCode, Mat, Subspace, agreement_dim, flat_literal,
                       index_rows, literal_index, null_basis, rows_index,
                       rref_rows, span_indices, subspaces_of_dim,
                       transpose_indices, vec_dot, vec_from_index,
                       vec_from_text, vec_index, vec_sub, vec_text)

# beyond this a coset's image tables, one entry per member for each listed
# vector (348 arrays, 24.0 MB, for 2^16 maps F_4^5 -> F_4^2), outgrow
# a desk run, whatever the item budget says
MAX_COSET = 2 ** 16


def _canon_pairs(spec: FieldSpec, pairs, dom_len: int, img_len: int):
    """Canonical RREF form of (domain vector, image vector) constraint pairs.

    Pivoting happens only on domain coordinates; a dependency among domain
    vectors with mismatched images leaves a nonzero leftover image, which
    means the constraints define no partial map.
    """
    if not pairs:
        return ()
    rows = [tuple(v) + tuple(w) for v, w in pairs]
    for v, w in pairs:
        if len(v) != dom_len or len(w) != img_len:
            raise ShapeMismatch("constraint vector of wrong length")
    if not all(0 <= x < spec.q for r in rows for x in r):
        raise DomainError(f"constraint entry outside 0..{spec.q - 1}")
    _, reduced, leftover = rref_rows(spec, rows, dom_len + img_len, pivot_cols=dom_len)
    if leftover:
        raise InconsistentRestriction("dependent domain vectors with conflicting images")
    return tuple((r[:dom_len], r[dom_len:]) for r in reduced)


class Restriction:
    """Independent column and row constraints on matrices in M(n, m)."""

    __slots__ = ("field", "n", "m", "cols", "rows", "_hash")

    def __init__(self, spec: FieldSpec, n: int, m: int,
                 cols: Iterable = (), rows: Iterable = ()):
        self.field = spec
        self.n = n
        self.m = m
        self.cols = _canon_pairs(spec, list(cols), m, n)
        self.rows = _canon_pairs(spec, list(rows), n, m)
        for v, w in self.cols:
            for a, b in self.rows:
                if vec_dot(spec, a, w) != vec_dot(spec, b, v):
                    raise InconsistentRestriction(
                        "column and row constraints disagree on the overlap")
        self._hash = hash((spec, n, m, self.cols, self.rows))

    @classmethod
    def empty(cls, spec: FieldSpec, n: int, m: int) -> "Restriction":
        return cls(spec, n, m)

    # structure ------------------------------------------------------------

    @property
    def dim_col(self) -> int:
        return len(self.cols)

    @property
    def dim_row(self) -> int:
        return len(self.rows)

    @property
    def complexity(self) -> int:
        return len(self.cols) + len(self.rows)

    def col_domain(self) -> Subspace:
        return Subspace.from_vectors(self.field, self.m, [v for v, _ in self.cols])

    # predicates -----------------------------------------------------------

    def matches(self, M: Mat) -> bool:
        M._check_space(self.field, self.n, self.m)
        return (all(M.apply(v) == w for v, w in self.cols)
                and all(M.rapply(a) == b for a, b in self.rows))

    def avoids(self, M: Mat) -> bool:
        """True iff M disagrees on every nonzero domain element, both sides."""
        spec = self.field
        M._check_space(spec, self.n, self.m)
        col_diffs = [vec_sub(spec, M.apply(v), w) for v, w in self.cols]
        if not _frame_independent(spec, col_diffs):
            return False
        row_diffs = [vec_sub(spec, M.rapply(a), b) for a, b in self.rows]
        return _frame_independent(spec, row_diffs)

    # combination ----------------------------------------------------------

    def merge(self, other: "Restriction") -> "Restriction":
        if other.field != self.field or (other.n, other.m) != (self.n, self.m):
            raise ShapeMismatch("merging restrictions on different spaces")
        return Restriction(self.field, self.n, self.m,
                           self.cols + other.cols, self.rows + other.rows)

    def dual(self) -> "Restriction":
        """The same constraints read on transposed matrices."""
        return Restriction(self.field, self.m, self.n,
                           cols=self.rows, rows=self.cols)

    def translate(self, A0: Mat) -> "Restriction":
        """Constraints equivalent to these after members shift by -A0."""
        spec = self.field
        A0._check_space(spec, self.n, self.m)
        return Restriction(spec, self.n, self.m,
                           cols=[(v, vec_sub(spec, w, A0.apply(v))) for v, w in self.cols],
                           rows=[(a, vec_sub(spec, b, A0.rapply(a))) for a, b in self.rows])

    def coset_cardinality(self) -> int:
        return self.field.q ** ((self.m - self.dim_col) * (self.n - self.dim_row))

    # serialization --------------------------------------------------------

    def to_dict(self) -> dict:
        return {"cols": [[list(v), list(w)] for v, w in self.cols],
                "rows": [[list(a), list(b)] for a, b in self.rows]}

    @classmethod
    def from_dict(cls, spec: FieldSpec, n: int, m: int, d: dict) -> "Restriction":
        return cls(spec, n, m,
                   cols=[(tuple(v), tuple(w)) for v, w in d.get("cols", [])],
                   rows=[(tuple(a), tuple(b)) for a, b in d.get("rows", [])])

    def __eq__(self, other):
        return (isinstance(other, Restriction) and other.field == self.field
                and (other.n, other.m) == (self.n, self.m)
                and other.cols == self.cols and other.rows == self.rows)

    def __hash__(self):
        return self._hash

    def __repr__(self):
        return (f"Restriction(q={self.field.q}, {self.n}x{self.m}, "
                f"cols={self.cols}, rows={self.rows})")


def _frame_independent(spec: FieldSpec, diffs: list) -> bool:
    k = len(diffs)
    if k == 0:
        return True
    if k == 1:
        return any(diffs[0])
    if k == 2:
        d1, d2 = diffs
        if not any(d1) or not any(d2):
            return False
        i = next(j for j, x in enumerate(d1) if x)
        c = spec.div(d2[i], d1[i])
        return d2 != tuple(spec.mul(c, x) for x in d1)
    _, reduced, _ = rref_rows(spec, diffs, len(diffs[0]))
    return len(reduced) == k


def _coset_system(R: Restriction):
    """(base, basis): the solution of R's linear system on the n*m entries
    whose free entries are zero, and a basis of the homogeneous solutions."""
    spec = R.field
    n, m = R.n, R.m
    eqs = []  # rows of length n*m plus rhs
    for v, w in R.cols:
        for i in range(n):
            row = [0] * (n * m)
            for j in range(m):
                row[i * m + j] = v[j]
            eqs.append((row, w[i]))
    for a, bb in R.rows:
        for j in range(m):
            row = [0] * (n * m)
            for i in range(n):
                row[i * m + j] = a[i]
            eqs.append((row, bb[j]))
    aug = [tuple(r) + (rhs,) for r, rhs in eqs]
    pivots, reduced, leftover = rref_rows(spec, aug, n * m + 1, pivot_cols=n * m)
    if leftover:
        raise InconsistentRestriction("restriction admits no matrix")
    base = [0] * (n * m)
    for row, pc in zip(reduced, pivots):
        base[pc] = row[n * m]
    return base, null_basis(spec, [r[:n * m] for r in reduced], n * m)


def coset_base(R: Restriction) -> Mat:
    """The member of R's coset with all free entries zero."""
    base, _ = _coset_system(R)
    return Mat(R.field, (base[i * R.m:(i + 1) * R.m] for i in range(R.n)), R.m)


def _coset_listing(R: Restriction, budget: Budget | None = None) -> list[int]:
    """The index of every matrix satisfying R, unsorted, under the item
    budget alone: row by row, the base's row plus the span listing of the
    homogeneous solutions' rows; with no rows, the empty matrix alone."""
    ensure(budget).check_items(R.coset_cardinality(), "coset enumeration")
    base, basis = _coset_system(R)
    q, m = R.field.q, R.m
    Q, code = q ** m, IndexCode(R.field, m)
    out = [0] * q ** len(basis)
    for i in range(R.n):
        row = code.shift(span_indices(code, [b[i * m:(i + 1) * m] for b in basis]),
                         vec_index(q, base[i * m:(i + 1) * m]))
        out = [x * Q + y for x, y in zip(out, row)]
    return out


def coset_indices(R: Restriction, budget: Budget | None = None) -> list[int]:
    """The index of every matrix satisfying R, sorted, for a coset of at
    most MAX_COSET members."""
    size = R.coset_cardinality()
    if size > MAX_COSET:
        raise BudgetExceeded(f"coset enumeration needs {size} members, "
                             f"capped at {MAX_COSET}")
    return sorted(_coset_listing(R, budget))


def enumerate_coset(R: Restriction, budget: Budget | None = None) -> list[Mat]:
    """All matrices satisfying R, sorted in index order."""
    return [Mat.from_index(R.field, R.n, R.m, x) for x in coset_indices(R, budget)]


class Family:
    """An explicit set of matrices inside the coset of a context restriction,
    held as the sorted tuple of their Mat.index; members lists them as Mats
    on first read."""

    __slots__ = ("field", "n", "m", "indices", "context", "_members", "_tables")

    def __init__(self, spec: FieldSpec, n: int, m: int,
                 members: Iterable[Mat | int], context: Restriction | None = None):
        """members are Mats or their indices."""
        self.field = spec
        self.n = n
        self.m = m
        self.context = context if context is not None else Restriction.empty(spec, n, m)
        if (self.context.n, self.context.m) != (n, m) or self.context.field != spec:
            raise ShapeMismatch("context restriction on a different space")
        size = spec.q ** (n * m)
        idx = set()
        for M in members:
            x = M.index_in(spec, n, m) if isinstance(M, Mat) else M
            if not 0 <= x < size:
                raise DomainError(f"member index {x} outside 0..{size - 1}")
            idx.add(x)
        self.indices = tuple(sorted(idx))
        self._members = self._tables = None
        if self.context.complexity and not all(self.tables().matching(self.context)):
            raise InconsistentRestriction("member violates the context restriction")

    # constructors ---------------------------------------------------------

    @classmethod
    def full_space(cls, spec: FieldSpec, n: int, m: int,
                   budget: Budget | None = None) -> "Family":
        return cls.from_coset(Restriction.empty(spec, n, m), budget)

    @classmethod
    def empty(cls, spec: FieldSpec, n: int, m: int) -> "Family":
        return cls(spec, n, m, ())

    @classmethod
    def from_coset(cls, R: Restriction, budget: Budget | None = None) -> "Family":
        return cls(R.field, R.n, R.m, coset_indices(R, budget), R)

    # structure ------------------------------------------------------------

    @property
    def members(self) -> frozenset:
        if self._members is None:
            self._members = frozenset(Mat.from_index(self.field, self.n, self.m, x)
                                      for x in self.indices)
        return self._members

    def tables(self) -> ImageTables:
        if self._tables is None:
            self._tables = ImageTables(self.field, self.n, self.m, self.indices)
        return self._tables

    def measure(self) -> Fraction:
        return Fraction(len(self), self.context.coset_cardinality())

    def restrict(self, R: Restriction) -> "Family":
        """Members also satisfying R, in the refined coset."""
        _check_trivial_overlap(self.context, R)
        merged = self.context.merge(R)
        kept = itertools.compress(self.indices, self.tables().matching(R))
        return Family(self.field, self.n, self.m, kept, merged)

    def restrict_avoiding(self, R: Restriction) -> "Family":
        """Members disagreeing with R everywhere; context unchanged.  M
        avoids R iff M x != y at each nonzero point (x, y) of its graphs;
        of the multiples of a point, the tables list the one whose x has
        leading coordinate 1."""
        _check_trivial_overlap(self.context, R)
        t = self.tables()
        keep = [True] * len(self)
        for images, pairs, dom, img in ((t.col, R.cols, t.rowcode, t.colcode),
                                        (t.row, R.rows, t.colcode, t.rowcode)):
            xs = span_indices(dom, [v for v, _ in pairs])
            ys = span_indices(img, [w for _, w in pairs])
            for x, y in zip(xs[1:], ys[1:]):
                if images[x] is not None:
                    keep = [k and z != y for k, z in zip(keep, images[x])]
        return Family(self.field, self.n, self.m,
                      itertools.compress(self.indices, keep), self.context)

    def dual(self) -> "Family":
        return Family(self.field, self.m, self.n,
                      transpose_indices(self.field.q, self.n, self.m, self.indices),
                      self.context.dual())

    def translate(self, A0: Mat) -> "Family":
        """The members minus A0, row by row."""
        A0._check_space(self.field, self.n, self.m)
        q, m = self.field.q, self.m
        Q, code = q ** m, IndexCode(self.field, m)
        out = [0] * len(self)
        for r, a in zip(index_rows(q, self.n, m, self.indices), A0.rows):
            row = code.shift(r, code.sub(0, vec_index(q, a)))
            out = [x * Q + y for x, y in zip(out, row)]
        return Family(self.field, self.n, m, out, self.context.translate(A0))

    def __contains__(self, M: Mat) -> bool:
        if not (isinstance(M, Mat) and M.field == self.field
                and M.shape == (self.n, self.m)):
            return False
        i = bisect_left(self.indices, M.index())
        return self.indices[i:i + 1] == (M.index(),)

    def _key(self) -> tuple:
        return (self.field, self.n, self.m, self.context, self.indices)

    def __eq__(self, other):
        return isinstance(other, Family) and other._key() == self._key()

    def __hash__(self):
        return hash(self._key())

    def __len__(self) -> int:
        return len(self.indices)

    def __repr__(self):
        return (f"Family(q={self.field.q}, {self.n}x{self.m}, "
                f"|members|={len(self)}, ctx complexity={self.context.complexity})")

    # file format ----------------------------------------------------------

    def to_text(self) -> str:
        q, n, m = self.field.q, self.n, self.m
        lines = [f"{q},{n},{m}"]
        for kind, pairs in (("col", self.context.cols), ("row", self.context.rows)):
            for u, w in pairs:
                lines.append(f"{kind} {vec_text(q, u)} -> {vec_text(q, w)}")
        lines += [flat_literal(q, n, m, vec_from_index(q, n * m, x)) for x in self.indices]
        return "\n".join(lines) + "\n"

    @classmethod
    def from_text(cls, text: str, spec: FieldSpec | None = None) -> "Family":
        lines = [ln.strip() for ln in text.splitlines() if ln.strip()]
        if not lines:
            raise DomainError("empty family file")
        cols, rows, members = [], [], []
        try:
            q, n, m = (int(x) for x in lines[0].split(","))
            spec = spec if spec is not None else gf_field(q)
            # a member line with the file's own head skips literal_index,
            # which parses and checks any other head
            head = f"q={spec.q};n={n};m={m};rows="
            for ln in lines[1:]:
                if ln.startswith("col ") or ln.startswith("row "):
                    kind, rest = ln[:3], ln[4:]
                    left, _, right = rest.partition("->")
                    u, w = (vec_from_text(q, side.strip()) for side in (left, right))
                    (cols if kind == "col" else rows).append((u, w))
                    continue
                if ln.startswith(head):
                    members.append(rows_index(spec.q, n, m, ln[len(head):]))
                    continue
                _, a, b, idx = literal_index(ln, spec)
                if (a, b) != (n, m):
                    raise ShapeMismatch(f"matrix must be {n}x{m}, got {a}x{b}")
                members.append(idx)
        except LinfamError:
            raise    # field, shape and entry errors keep their types
        except ValueError as e:
            raise DomainError(f"malformed family file: {e}") from None
        return cls(spec, n, m, members, Restriction(spec, n, m, cols, rows))


def _check_trivial_overlap(ctx: Restriction, R: Restriction) -> None:
    # two domains meet iff their listings share a nonzero member
    for side, length, mine, theirs in (("column", ctx.m, ctx.cols, R.cols),
                                       ("row", ctx.n, ctx.rows, R.rows)):
        code = IndexCode(ctx.field, length)
        spans = [span_indices(code, [v for v, _ in pairs])[1:] for pairs in (mine, theirs)]
        if not set(spans[0]).isdisjoint(spans[1]):
            raise DomainOverlap(f"{side} domains meet the context non-trivially")


# --- quarter-power thresholds ----------------------------------------------

@dataclass(frozen=True)
class QPow:
    """coeff * q**exp with a possibly fractional exponent, compared exactly."""
    q: int
    coeff: Fraction
    exp: Fraction

    def describe(self) -> str:
        return f"{self.coeff}*{self.q}^({self.exp})"


def leq_threshold(x: Fraction, eps) -> bool:
    """Exact x <= eps for eps a Fraction or a QPow (x >= 0)."""
    if isinstance(eps, QPow):
        d = eps.exp.denominator
        lhs = Fraction(x) ** d
        rhs = (eps.coeff ** d) * Fraction(eps.q) ** int(eps.exp * d)
        return lhs <= rhs
    return x <= eps


def default_regularity_eps(q: int, m: int, n: int, r: int) -> QPow:
    return QPow(q, Fraction(1), Fraction(-min(m, n) * r) + Fraction(r * r, 4))


# --- capture / quasiregularity searches ------------------------------------

def _domains(spec: FieldSpec, m: int, n: int, s: int, ctx: Restriction):
    """Constraint domains (S, A) of total dimension <= s avoiding the
    context, in lexicographic order: the pairs of subspaces_of_dim spaces
    whose nonzero members miss those of the context's domains."""
    # the context sets hold no zero, so each space's whole listing is tested
    col_ctx = set(span_indices(IndexCode(spec, m), [v for v, _ in ctx.cols])[1:])
    row_ctx = set(span_indices(IndexCode(spec, n), [a for a, _ in ctx.rows])[1:])
    out = []
    for total in range(s + 1):
        for c in range(total + 1):
            r = total - c
            if c > m - ctx.dim_col or r > n - ctx.dim_row:
                continue
            col_spaces = [S for S in subspaces_of_dim(spec, m, c)
                          if col_ctx.isdisjoint(S.listing)]
            row_spaces = [A for A in subspaces_of_dim(spec, n, r)
                          if row_ctx.isdisjoint(A.listing)]
            out += itertools.product(col_spaces, row_spaces)
    return out


def _witness(F: Family, S: Subspace, A: Subspace, key) -> Restriction:
    """The restriction sending the domains' bases to the image indices in key."""
    spec, n, m = F.field, F.n, F.m
    return Restriction(
        spec, n, m,
        cols=[(v, vec_from_index(spec.q, n, w)) for v, w in zip(S.rows, key[:S.dim])],
        rows=[(a, vec_from_index(spec.q, m, b)) for a, b in zip(A.rows, key[S.dim:])])


def is_captureable(F: Family, s: int, eps,
                   budget: Budget | None = None) -> Restriction | None:
    """Lexicographically first (Pi, pi) of complexity <= s whose avoiders
    have context measure <= eps, or None.  A pruned walk of the candidate
    images counts each leaf's avoiders, the members that miss the images
    on every line (images.capture_keys)."""
    spec = F.field
    n, m = F.n, F.m
    card = F.context.coset_cardinality()
    # largest avoider count still within eps
    lo, hi = 0, card
    while lo < hi:
        mid = (lo + hi + 1) // 2
        if leq_threshold(Fraction(mid, card), eps):
            lo = mid
        else:
            hi = mid - 1
    max_avoid = lo
    b = ensure(budget)
    for k, (S, A) in enumerate(_domains(spec, m, n, s, F.context)):
        b.check_clock("capture search", f"{k} domains")
        for key in capture_keys(F.tables(), S, A, max_avoid):
            try:
                return _witness(F, S, A, key)
            except InconsistentRestriction:
                # column and row constraints disagree: no matrix
                # satisfies them, so this is no candidate
                continue
    return None


def _density_scan(F: Family, s: int, budget: Budget | None):
    """Yield (S, A, sub_card, counts) for every refinement domain of
    complexity <= s in lexicographic order; counts is the domain's member
    tally, keyed by image indices."""
    spec = F.field
    q = spec.q
    n, m = F.n, F.m
    dc, dr = F.context.dim_col, F.context.dim_row
    tables = F.tables()
    b = ensure(budget)
    for k, (S, A) in enumerate(_domains(spec, m, n, s, F.context)):
        b.check_clock("density scan", f"{k} domains")
        sub_card = q ** ((m - dc - S.dim) * (n - dr - A.dim))
        counts = tables.tally(tuple(vec_index(q, v) for v in S.rows),
                              tuple(vec_index(q, a) for a in A.rows))
        yield S, A, sub_card, counts


def is_quasiregular(F: Family, s: int, alpha: Fraction,
                    budget: Budget | None = None) -> Restriction | None:
    """None iff no complexity-<= s restriction pushes the conditional
    density above alpha * mu(F); otherwise the first violating witness,
    in lexicographic order."""
    bound = alpha * F.measure()
    for S, A, sub_card, counts in _density_scan(F, s, budget):
        # an integer count exceeds the cut exactly when it exceeds its floor
        cut = math.floor(bound * sub_card)
        over = [key for key, cnt in counts.items() if cnt > cut]
        if over:
            return _witness(F, S, A, min(over))
    return None


def max_density_ratio(F: Family, s: int, budget: Budget | None = None
                      ) -> tuple[Fraction, Restriction | None]:
    """Largest conditional-density blow-up over restrictions of complexity
    <= s, with its first witness.  (mu(F) must be positive.)"""
    mu = F.measure()
    if mu == 0:
        raise DomainError("density ratio undefined for an empty family")
    best, best_w = Fraction(0), None
    for S, A, sub_card, counts in _density_scan(F, s, budget):
        top = max(counts.values())
        if Fraction(top, sub_card) > best:
            best = Fraction(top, sub_card)
            first = min(key for key, cnt in counts.items() if cnt == top)
            best_w = _witness(F, S, A, first)
    return best / mu, best_w


def quasiregular_implies_uncaptureable_check(F: Family, b: int, N: int,
                                             delta: Fraction, beta: Fraction,
                                             budget: Budget | None = None) -> dict:
    """Hypotheses: context complexity <= b, mu >= delta, (1, beta)-quasiregular,
    beta < q^(min(m,n) - N - b) / 2.  Conclusion checked exactly: F is not
    (N, delta/2)-captureable."""
    spec = F.field
    mu = F.measure()
    if F.context.complexity > b:
        raise HypothesisUnmet(f"context complexity {F.context.complexity} > b={b}")
    if mu < delta:
        raise HypothesisUnmet(f"measure {mu} below delta={delta}")
    wit = is_quasiregular(F, 1, beta, budget)
    if wit is not None:
        raise NotQuasiregular(f"(1, {beta})-quasiregularity fails at {wit!r}")
    cap = Fraction(spec.q ** (min(F.m, F.n) - N - b), 2)
    if not beta < cap:
        raise HypothesisUnmet(f"beta={beta} not below {cap}")
    witness = is_captureable(F, N, delta / 2, budget)
    return {"holds": witness is None, "witness": witness,
            "mu": mu, "beta": beta, "beta_cap": cap}


# --- regularity decomposition ----------------------------------------------

@dataclass
class TreeNode:
    id: int
    parent: int | None
    depth: int
    restriction: Restriction
    status: str = "open"           # open | internal | good | bad
    capture: Restriction | None = None
    children: list = dc_field(default_factory=list)


@dataclass
class DecompositionLog:
    q: int
    n: int
    m: int
    r: int
    s: int
    eps_desc: str
    nodes: list

    def to_json(self) -> str:
        out = []
        for nd in self.nodes:
            out.append({
                "id": nd.id, "parent": nd.parent, "depth": nd.depth,
                "status": nd.status,
                "restriction": nd.restriction.to_dict(),
                "capture": nd.capture.to_dict() if nd.capture else None,
                "children": list(nd.children),
            })
        return json.dumps({"q": self.q, "n": self.n, "m": self.m,
                           "r": self.r, "s": self.s, "eps": self.eps_desc,
                           "nodes": out}, sort_keys=True)


class Junta:
    """Union of restriction cosets with declared complexity parameters."""

    __slots__ = ("field", "n", "m", "components", "C", "r")

    def __init__(self, spec: FieldSpec, n: int, m: int,
                 components: Iterable[Restriction], C: int, r: int):
        comps = tuple(components)
        if len(comps) > C:
            raise DomainError(f"{len(comps)} components exceed declared C={C}")
        for R in comps:
            if R.complexity > r:
                raise DomainError("component complexity exceeds declared r")
            if R.field != spec or (R.n, R.m) != (n, m):
                raise ShapeMismatch("component on a different space")
        self.field = spec
        self.n = n
        self.m = m
        self.components = comps
        self.C = C
        self.r = r

    def contains(self, M: Mat) -> bool:
        M._check_space(self.field, self.n, self.m)
        return any(R.matches(M) for R in self.components)

    def dual(self) -> "Junta":
        return Junta(self.field, self.m, self.n,
                     (R.dual() for R in self.components), self.C, self.r)

    def to_json(self) -> str:
        """The junta file that `linfam regularity` writes."""
        return json.dumps({"q": self.field.q, "n": self.n, "m": self.m, "C": self.C,
                           "r": self.r,
                           "components": [R.to_dict() for R in self.components]})

    @classmethod
    def from_json(cls, text: str, spec: FieldSpec | None = None) -> "Junta":
        try:
            d = json.loads(text)
            spec = spec if spec is not None else gf_field(d["q"])
            if spec.q != d["q"]:
                raise FieldMismatch(f"junta q={d['q']} but field has q={spec.q}")
            n, m = d["n"], d["m"]
            return cls(spec, n, m, (Restriction.from_dict(spec, n, m, c)
                                    for c in d["components"]), d["C"], d["r"])
        except LinfamError:
            raise    # field, shape and entry errors keep their types
        except (AttributeError, KeyError, TypeError, ValueError) as e:
            raise DomainError(f"malformed junta file: {e}") from None

    def __repr__(self):
        return (f"Junta(q={self.field.q}, {self.n}x{self.m}, "
                f"{len(self.components)} components, C={self.C}, r={self.r})")


def regularity_decompose(F: Family, r: int, s: int, eps=None,
                         budget: Budget | None = None) -> tuple[Junta, DecompositionLog]:
    """Iterative capture tree: internal nodes are captureable, leaves at
    depth r are bad, other leaves are uncaptureable and feed the junta."""
    if r < 1 or s < 1:
        raise DomainError("need r >= 1 and s >= 1")
    spec = F.field
    q = spec.q
    if eps is None:
        eps = default_regularity_eps(q, F.m, F.n, r)
    b = ensure(budget)
    root = TreeNode(0, None, 0, Restriction.empty(spec, F.n, F.m))
    nodes = [root]
    stack = [0]
    good: list[Restriction] = []
    while stack:
        b.check_clock("regularity decomposition", f"{len(nodes)} nodes")
        nid = stack.pop()
        node = nodes[nid]
        if node.depth >= r:
            node.status = "bad"
            continue
        # the child family lives only through its search
        witness = is_captureable(F.restrict(node.restriction)
                                 if node.restriction.complexity else F, s, eps, b)
        if witness is None:
            node.status = "good"
            good.append(F.context.merge(node.restriction))
            continue
        node.status = "internal"
        node.capture = witness
        # a child per line of the capture's graph on a side: sum_i u_i (v_i, w_i)
        # for u of leading coordinate 1; v_i in RREF make ascending u ascending x
        for side, pairs in (("cols", witness.cols), ("rows", witness.rows)):
            for line in subspaces_of_dim(spec, len(pairs), 1):
                pair = tuple(tuple(vec_dot(spec, line.rows[0], c) for c in zip(*vs))
                             for vs in zip(*pairs))
                try:
                    child_R = node.restriction.merge(
                        Restriction(spec, F.n, F.m, **{side: (pair,)}))
                except InconsistentRestriction:
                    continue    # no matrix satisfies the extended constraints
                child = TreeNode(len(nodes), nid, node.depth + 1, child_R)
                nodes.append(child)
                node.children.append(child.id)
                stack.append(child.id)
    C = max(1, (q ** s - 1) ** r)
    junta = Junta(spec, F.n, F.m, good, C, r)
    eps_desc = eps.describe() if isinstance(eps, QPow) else str(eps)
    log = DecompositionLog(q, F.n, F.m, r, s, eps_desc, nodes)
    return junta, log


def measure_outside_junta(F: Family, J: Junta) -> Fraction:
    """Measure of the members in no component's coset, read off F's image
    tables."""
    if J.field != F.field:
        raise FieldMismatch("junta over a different field")
    if (J.n, J.m) != (F.n, F.m):
        raise ShapeMismatch(f"junta shape ({J.n}, {J.m}) != ({F.n}, {F.m})")
    outside = [True] * len(F)
    for R in J.components:
        outside = [o and not hit for o, hit in zip(outside, F.tables().matching(R))]
    return Fraction(outside.count(True), F.context.coset_cardinality())


# --- intersection testers ---------------------------------------------------

def is_intersection_free(F: Family, t_minus_1: int):
    """No distinct pair agrees on exactly t_minus_1 dimensions.  Returns
    (bool, the first such pair in sorted order or None).  A pair agrees on
    m - rank(sigma_i - sigma_j) dimensions (agreement_dim)."""
    mem = [Mat.from_index(F.field, F.n, F.m, x) for x in F.indices]
    for i, A in enumerate(mem):
        for B in mem[i + 1:]:
            if agreement_dim(A, B) == t_minus_1:
                return False, (A, B)
    return True, None


def partial_agreement_dim(spec: FieldSpec, pairs1, pairs2, dom_len: int,
                          img_len: int) -> int:
    """dim{v in S1 meet S2 : Pi1 v = Pi2 v} via intersecting the graphs."""
    amb = dom_len + img_len
    G1 = Subspace.from_vectors(spec, amb, [tuple(v) + tuple(w) for v, w in pairs1])
    G2 = Subspace.from_vectors(spec, amb, [tuple(v) + tuple(w) for v, w in pairs2])
    return G1.intersect(G2).dim


def is_strongly_t_intersecting(J: Junta, t: int):
    """Every component pair (i = j included) agrees on >= t dimensions on
    the column side or the row side.  Returns (bool, witness pair)."""
    comps = J.components
    for i, j in itertools.combinations_with_replacement(range(len(comps)), 2):
        Ri, Rj = comps[i], comps[j]
        if (partial_agreement_dim(J.field, Ri.cols, Rj.cols, J.m, J.n) < t
                and partial_agreement_dim(J.field, Ri.rows, Rj.rows, J.n, J.m) < t):
            return False, (i, j)
    return True, None


# --- junta measure -----------------------------------------------------------

def _merged_cardinality(rs: Sequence[Restriction]) -> int:
    try:
        merged = rs[0]
        for R in rs[1:]:
            merged = merged.merge(R)
    except InconsistentRestriction:
        return 0
    return merged.coset_cardinality()


def junta_measure(J: Junta, budget: Budget | None = None) -> Fraction:
    """Exact measure of the member union, by inclusion-exclusion for up to
    12 components and beyond that by marking the components' coset
    listings in the whole space, under budget."""
    spec = J.field
    total_card = spec.q ** (J.n * J.m)
    comps = J.components
    if not comps:
        return Fraction(0)
    if len(comps) <= 12:
        acc = 0
        for k in range(1, len(comps) + 1):
            sign = 1 if k % 2 == 1 else -1
            for subset in itertools.combinations(comps, k):
                acc += sign * _merged_cardinality(subset)
        return Fraction(acc, total_card)
    b = ensure(budget)
    b.check_items(total_card, "junta measure enumeration")
    seen = bytearray(total_card)
    for R in comps:
        for x in _coset_listing(R, b):
            seen[x] = 1
    return Fraction(seen.count(1), total_card)
