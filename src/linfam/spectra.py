"""Exact spectra of the fixed-agreement Cayley graphs on matrix spaces.

Vertices are all n x m matrices over F_q; two are adjacent when their
difference has rank exactly m - t, so that they agree on a t-dimensional
subspace of the domain.  The walk operator with row sums normalized to 1
is diagonalized by the additive characters, and the eigenvalue attached
to a character depends only on the rank of its dual matrix.  Everything
here is an exact character sum; the trace of the squared walk operator
gives an independent cross-check of the whole table.
"""
from __future__ import annotations

import json
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache

from .budget import Budget
from .cyclo import Cyc
from .errors import (DomainError, InvariantViolated, NoNegativeEigenvalue,
                     ShapeMismatch)
from .families import Family, is_intersection_free
from .fourier import DenseFunction, char_exponent, fast_transform
from .gf import FieldSpec, field
from .matspace import Mat, count_rank_d, enumerate_all, phi, rank_table

__all__ = [
    "CayleySpectrum",
    "bilinear_decomposition",
    "eigenvalue",
    "eigenvalue_bound_check",
    "generator_count",
    "graph_bitsets",
    "hoffman_bound",
    "independence_check",
    "rank_invariance_check",
    "spectrum",
]


def _check_params(m: int, n: int, t: int) -> None:
    if m < 1 or n < 1:
        raise DomainError("need m, n >= 1")
    if not 0 <= t < m:
        # t = m would make 0 the only generator, a loop-only graph
        raise DomainError(f"need 0 <= t < m, got t={t}")
    if m - t > n:
        raise DomainError("difference rank m - t cannot exceed n")


def generator_count(q: int, m: int, n: int, t: int) -> int:
    """Number of n x m matrices whose kernel has dimension exactly t."""
    _check_params(m, n, t)
    return count_rank_d(n, m, m - t, q)


@lru_cache(maxsize=None)
def _generators(q: int, m: int, n: int, t: int) -> tuple[Mat, ...]:
    spec = field(q)
    ranks = rank_table(spec, n, m)
    target = m - t
    return tuple(A for i, A in enumerate(enumerate_all(spec, n, m))
                 if ranks[i] == target)


def _identity_block(spec: FieldSpec, m: int, n: int, d: int) -> Mat:
    rows = tuple(tuple(1 if i == j and i < d else 0 for j in range(n))
                 for i in range(m))
    return Mat(spec, rows, n)


def _from_counts(spec: FieldSpec, counts, denom: int) -> Fraction:
    val = Cyc.from_root_counts(spec.p, tuple(counts)) / denom
    # the generator class is closed under nonzero scalars, so the sum is
    # fixed by every field automorphism and lands in the rationals
    if not val.is_rational():
        raise InvariantViolated(f"class character sum {val!r} is irrational")
    return val.as_fraction()


def eigenvalue(q: int, m: int, n: int, t: int, d: int,
               budget: Budget | None = None) -> Fraction:
    """Walk-operator eigenvalue on the span of the rank-d characters.

    Character sum over the agreement-t generator class for the block
    identity dual of rank d, divided by the class size.  The choice of
    rank-d dual does not matter; rank_invariance_check certifies that.
    """
    _check_params(m, n, t)
    if not 0 <= d <= min(m, n):
        raise DomainError(f"need 0 <= d <= min(m, n), got d={d}")
    spec = field(q)
    X = _identity_block(spec, m, n, d)
    ranks = rank_table(spec, n, m)
    target = m - t
    counts = [0] * spec.p
    gen_count = 0
    for i, A in enumerate(enumerate_all(spec, n, m, budget)):
        if ranks[i] != target:
            continue
        gen_count += 1
        counts[char_exponent(X, A)] += 1
    return _from_counts(spec, counts, gen_count)


@dataclass(frozen=True)
class CayleySpectrum:
    """Full eigenvalue table of one normalized agreement-t walk operator."""

    q: int
    m: int
    n: int
    t: int
    lam: tuple[Fraction, ...]   # indexed by the rank of the dual matrix
    mult: tuple[int, ...]       # dimension of each rank-d character span
    gen_count: int

    def trace_check(self) -> bool:
        lhs = sum(mu * l * l for mu, l in zip(self.mult, self.lam))
        return lhs == 1 / phi(self.m, self.n, self.t, self.q)

    def lam_min(self) -> Fraction:
        return min(self.lam)

    def to_json(self) -> str:
        return json.dumps({
            "q": self.q, "m": self.m, "n": self.n, "t": self.t,
            "lambda": [{"d": d, "num": str(l.numerator),
                        "den": str(l.denominator)}
                       for d, l in enumerate(self.lam)],
            "mult": [str(mu) for mu in self.mult],
            "trace_check": self.trace_check(),
        })


def spectrum(q: int, m: int, n: int, t: int,
             budget: Budget | None = None) -> CayleySpectrum:
    """All eigenvalues in one pass over the generator class.

    The block identity dual of rank d pairs a matrix with the trace of
    its leading d x d block, so one sweep accumulating running diagonal
    sums yields every rank at once.
    """
    _check_params(m, n, t)
    spec = field(q)
    dmax = min(m, n)
    ranks = rank_table(spec, n, m)
    target = m - t
    counts = [[0] * spec.p for _ in range(dmax + 1)]
    gen_count = 0
    for i, A in enumerate(enumerate_all(spec, n, m, budget)):
        if ranks[i] != target:
            continue
        gen_count += 1
        counts[0][0] += 1
        acc = 0
        for j in range(dmax):
            acc = spec.add(acc, A.rows[j][j])
            counts[j + 1][spec.trace(acc)] += 1
    lam = tuple(_from_counts(spec, counts[d], gen_count)
                for d in range(dmax + 1))
    mult = tuple(count_rank_d(m, n, d, q) for d in range(dmax + 1))
    out = CayleySpectrum(q, m, n, t, lam, mult, gen_count)
    if out.lam[0] != 1:
        raise InvariantViolated(f"trivial eigenvalue is {out.lam[0]}, not 1")
    if sum(mult) != q ** (n * m):
        raise InvariantViolated("rank multiplicities do not sum to the space size")
    if not out.trace_check():
        raise InvariantViolated("walk operator trace identity fails")
    return out


def rank_invariance_check(q: int, m: int, n: int, t: int, d: int,
                          budget: Budget | None = None) -> dict:
    """Recompute the eigenvalue from every rank-d dual and compare."""
    _check_params(m, n, t)
    if not 0 <= d <= min(m, n):
        raise DomainError(f"need 0 <= d <= min(m, n), got d={d}")
    spec = field(q)
    gens = _generators(q, m, n, t)
    dual_ranks = rank_table(spec, m, n)
    values = set()
    reps = 0
    for i, X in enumerate(enumerate_all(spec, m, n, budget)):
        if dual_ranks[i] != d:
            continue
        reps += 1
        counts = [0] * spec.p
        for A in gens:
            counts[char_exponent(X, A)] += 1
        values.add(_from_counts(spec, counts, len(gens)))
    holds = len(values) == 1
    return {"q": q, "m": m, "n": n, "t": t, "d": d,
            "representatives": reps,
            "values": tuple(sorted(values)),
            "holds": holds}


def eigenvalue_bound_check(q: int, m: int, n: int, t: int, d: int,
                           budget: Budget | None = None) -> dict:
    """lambda_d^2 is at most Trace(M^2) / dim of the rank-d span."""
    if d < 1:
        raise DomainError("rank 0 carries the trivial eigenvalue 1")
    lam = eigenvalue(q, m, n, t, d, budget)
    bound_sq = (1 / phi(m, n, t, q)) / count_rank_d(m, n, d, q)
    return {"q": q, "m": m, "n": n, "t": t, "d": d,
            "lambda_sq": lam * lam, "bound_sq": bound_sq,
            "holds": lam * lam <= bound_sq}


def bilinear_decomposition(f: DenseFunction, g: DenseFunction,
                           t: int) -> dict:
    """Pairing f against the neighbour average of g, two ways.

    Direct: sum f(A) conj(g(B)) over ordered pairs whose difference lies
    in the agreement-(t-1) generator class, normalized.  Spectral: the
    transform coefficients paired rank by rank, each rank weighted by its
    eigenvalue.  The two must agree exactly.
    """
    if f.field != g.field or f.n != g.n or f.m != g.m:
        raise ShapeMismatch("operands must share field and shape")
    if t < 1:
        raise DomainError("need t >= 1")
    spec, n, m = f.field, f.n, f.m
    _check_params(m, n, t - 1)
    S = spectrum(spec.q, m, n, t - 1)
    gens = _generators(spec.q, m, n, t - 1)
    N = spec.q ** (n * m)
    direct = Cyc.zero(spec.p)
    for i, A in enumerate(enumerate_all(spec, n, m)):
        fa = f.values[i]
        if fa.is_zero():
            continue
        for G in gens:
            direct = direct + fa * g.values[(A + G).index()].conj()
    direct = direct / (N * S.gen_count)
    Sf, Sg = fast_transform(f), fast_transform(g)
    dual_ranks = rank_table(spec, m, n)
    per_d = [Cyc.zero(spec.p) for _ in range(min(m, n) + 1)]
    for xi in range(N):
        cf, cg = Sf.coeffs[xi], Sg.coeffs[xi]
        if cf.is_zero() or cg.is_zero():
            continue
        per_d[dual_ranks[xi]] = per_d[dual_ranks[xi]] + cf * cg.conj()
    spectral = Cyc.zero(spec.p)
    for d, lam_d in enumerate(S.lam):
        spectral = spectral + per_d[d] * lam_d
    return {"t": t, "direct": direct, "spectral": spectral,
            "holds": direct == spectral}


def hoffman_bound(S: CayleySpectrum) -> Fraction:
    """-lam_min / (1 - lam_min), a measure bound for independent sets.

    Tight form of the ratio bound; exact for vertex-transitive graphs,
    which these are.
    """
    lam_min = S.lam_min()
    if lam_min >= 0:
        raise NoNegativeEigenvalue(f"smallest eigenvalue is {lam_min}")
    return -lam_min / (1 - lam_min)


def independence_check(F: Family, t: int):
    """No distinct pair of members agrees on exactly t dimensions.

    Families with that property are exactly the independent sets of the
    agreement-t graph.  Returns (bool, witness pair or None).
    """
    return is_intersection_free(F, t)


def graph_bitsets(q: int, m: int, n: int, t: int,
                  budget: Budget | None = None) -> list[int]:
    """Adjacency rows of the agreement-t graph, one bitset per index."""
    _check_params(m, n, t)
    spec = field(q)
    nm = n * m
    N = q ** nm
    if budget is not None:
        budget.check_items(N * max(1, generator_count(q, m, n, t)),
                           "adjacency build")
    ranks = rank_table(spec, n, m)
    gens = [i for i in range(N) if ranks[i] == m - t]
    rows = [0] * N
    if spec.p == 2:
        # entry encodings pack into disjoint bit groups, so index xor is
        # entrywise difference
        for i in range(N):
            acc = 0
            for gi in gens:
                acc |= 1 << (i ^ gi)
            rows[i] = acc
    else:
        flats = [tuple(A.rows[r][c] for r in range(n) for c in range(m))
                 for A in enumerate_all(spec, n, m)]
        for i in range(N):
            fi = flats[i]
            acc = 0
            for gi in gens:
                fg = flats[gi]
                j = 0
                for a, b in zip(fi, fg):
                    j = j * q + spec.add(a, b)
                acc |= 1 << j
            rows[i] = acc
    return rows
