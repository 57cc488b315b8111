"""Exact spectra of the fixed-agreement Cayley graphs on matrix spaces.

Vertices are all n x m matrices over F_q; two are adjacent when their
difference has rank exactly m - t, so that they agree on a t-dimensional
subspace of the domain.  The walk operator with row sums normalized to 1
is diagonalized by the additive characters, and the eigenvalue attached
to a character depends only on the rank of its dual matrix.  The
generator class is the distance-(m - t) relation of the bilinear forms
scheme, so the eigenvalues are Delsarte's generalized Krawtchouk numbers,
evaluated exactly in closed form; the trace of the squared walk operator
gives an independent cross-check of the whole table.  The graph is a
Cayley graph of the additive group, so graph_bitsets builds its rows from
row 0 by the digit translations of mis._cayley_rows.
"""
from __future__ import annotations

import json
from dataclasses import dataclass
from fractions import Fraction

from .budget import Budget, ensure
from .cyclo import Cyc
from .errors import (DomainError, InvariantViolated, NoNegativeEigenvalue,
                     ShapeMismatch)
from .fourier import (DenseFunction, _conj_dot, _exponent_row, _keep,
                      fast_transform, inner)
from .gf import FieldSpec, field, prime_power
from .matspace import (IndexCode, Mat, count_rank_d, gaussian_binomial, phi,
                       rank_table)
from .mis import _cayley_rows

__all__ = [
    "CayleySpectrum",
    "bilinear_decomposition",
    "eigenvalue",
    "eigenvalue_bound_check",
    "graph_bitsets",
    "hoffman_bound",
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


def _class_mean(spec: FieldSpec, n: int, m: int, X: Mat, gens) -> Fraction:
    """The mean of the character u_X over the n x m matrices indexed by gens."""
    row = _exponent_row(spec, n, m, X)
    counts = [0] * spec.p
    for a in gens:
        counts[row[a]] += 1
    val = Cyc.from_root_counts(spec.p, counts) / len(gens)
    # the generator class is closed under nonzero scalars, so the sum is
    # fixed by every field automorphism and lands in the rationals
    if not val.is_rational():
        raise InvariantViolated(f"class character sum {val!r} is irrational")
    return val.as_fraction()


def _krawtchouk(q: int, m: int, n: int, t: int, ds,
                budget: Budget | None) -> tuple[Fraction, ...]:
    """Walk eigenvalues on the rank-d characters, d in ds: Delsarte's
    generalized Krawtchouk numbers (JCTA 25 (1978) 226-241) for the
    distance-k relation, divided by the class size."""
    N, M, k = min(m, n), max(m, n), m - t
    b = ensure(budget)
    prime_power(q, b)   # DomainError unless q is a prime power
    b.check_items(len(ds) * (k + 1), "eigenvalue formula terms")
    size = count_rank_d(n, m, k, q)
    out = []
    for done, d in enumerate(ds):
        b.check_clock("eigenvalue formula", f"{done} ranks")
        P = sum((-1) ** (k - j) * q ** ((k - j) * (k - j - 1) // 2 + M * j)
                * gaussian_binomial(N - j, N - k, q)
                * gaussian_binomial(N - d, j, q)
                for j in range(min(k, N - d) + 1))
        out.append(Fraction(P, size))
    return tuple(out)


def eigenvalue(q: int, m: int, n: int, t: int, d: int,
               budget: Budget | None = None) -> Fraction:
    """Walk-operator eigenvalue on the span of the rank-d characters.

    The choice of rank-d dual does not matter; rank_invariance_check
    certifies that by enumeration.
    """
    _check_params(m, n, t)
    if not 0 <= d <= min(m, n):
        raise DomainError(f"need 0 <= d <= min(m, n), got d={d}")
    return _krawtchouk(q, m, n, t, (d,), budget)[0]


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
    """Every eigenvalue of the walk, one per dual rank, in closed form."""
    _check_params(m, n, t)
    dmax = min(m, n)
    lam = _krawtchouk(q, m, n, t, range(dmax + 1), budget)
    mult = tuple(count_rank_d(m, n, d, q) for d in range(dmax + 1))
    out = CayleySpectrum(q, m, n, t, lam, mult, count_rank_d(n, m, m - t, q))
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
    ensure(budget).check_items(q ** (n * m), "rank invariance")
    gens = [i for i, r in enumerate(rank_table(spec, n, m)) if r == m - t]
    duals = [i for i, r in enumerate(rank_table(spec, m, n)) if r == d]
    values = {_class_mean(spec, n, m, Mat.from_index(spec, m, n, x), gens)
              for x in duals}
    return {"q": q, "m": m, "n": n, "t": t, "d": d,
            "representatives": len(duals),
            "values": tuple(sorted(values)),
            "holds": len(values) == 1}


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


def bilinear_decomposition(f: DenseFunction, g: DenseFunction, t: int,
                           budget: Budget | None = None) -> dict:
    """Pairing f against the neighbour average of g, two ways.

    Direct: sum f(A) conj(g(B)) over ordered pairs whose difference lies
    in the agreement-(t-1) generator class, normalized; the neighbour sum
    of g is taken on its coordinate columns, one index addition per pair.
    Spectral: the transform coefficients paired rank by rank, each rank
    weighted by its eigenvalue.  The two must agree exactly.
    """
    if f.field != g.field or f.n != g.n or f.m != g.m:
        raise ShapeMismatch("operands must share field and shape")
    if t < 1:
        raise DomainError("need t >= 1")
    spec, n, m = f.field, f.n, f.m
    _check_params(m, n, t - 1)
    S = spectrum(spec.q, m, n, t - 1, budget)
    ranks = rank_table(spec, n, m)
    gens = [i for i, r in enumerate(ranks) if r == m - t + 1]
    ensure(budget).check_items(len(ranks) * len(gens), "bilinear direct sum")
    add = IndexCode(spec, n * m).add
    nbrs = [[add(a, x) for x in gens] for a in range(len(ranks))]
    near = [[sum(map(c.__getitem__, ns)) for ns in nbrs] for c in g.cols]
    near_g = DenseFunction._from_cols(spec, n, m, near, g.den)
    direct = inner(f, near_g) / S.gen_count
    Sf, Sg = fast_transform(f, budget), fast_transform(g, budget)
    dual_ranks = rank_table(spec, m, n)
    spectral = sum((_conj_dot(_keep(Sf, [r == d for r in dual_ranks]), Sg, 1) * lam_d
                    for d, lam_d in enumerate(S.lam)), Cyc.zero(spec.p))
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


def graph_bitsets(q: int, m: int, n: int, t: int,
                  budget: Budget | None = None) -> list[int]:
    """Adjacency rows of the agreement-t graph, one bitset per index.

    Row 0 marks the generators, and row i is row 0 translated by i.  gf
    encodes an element of F_q, q = p^s, by the base-p digits of its
    coefficients, so a vec_index's base-p digits are its entries'
    coefficients and F_q addition adds them mod p: the graph is the Cayley
    graph on (Z/p)^(s*n*m) that mis._cayley_rows builds from row 0.
    """
    _check_params(m, n, t)
    spec = field(q)
    N = q ** (n * m)
    ensure(budget).check_items(N * N, "adjacency build")
    row0 = sum(1 << j for j, r in enumerate(rank_table(spec, n, m))
               if r == m - t)
    return _cayley_rows(row0, N)
