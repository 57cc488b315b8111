"""Acceptance checks: one runnable function per numbered criterion.

Every check compares library output against an independent oracle, a
closed-form both-sides evaluation, or a brute-force enumeration.  Checks
never assert; they collect labelled pass/fail pairs so a runner can
report every failure.  Randomized corpora are driven by an explicit seed
and default to seed 0.
"""
from __future__ import annotations

import itertools
import random
import time
from fractions import Fraction
from typing import Callable

from .budget import Budget, ensure
from .cyclo import Cyc
from .errors import DomainError
from .families import (Family, default_regularity_eps, is_captureable,
                       max_density_ratio, measure_outside_junta,
                       quasiregular_implies_uncaptureable_check,
                       regularity_decompose)
from .fourier import (DenseFunction, _exponent_row, check_sum_rank_nullity,
                      fast_transform, inverse_transform, norm2_sq,
                      projection_mass, reduce_family, transform,
                      verify_hypercontractive)
from .gf import field
from .matspace import (IndexCode, Mat, Subspace, agreement_dim, count_rank_d,
                       count_subspaces_avoiding, enumerate_gl,
                       gaussian_binomial, gl_order, m_qt, phi, rank,
                       rank_census, rank_table, subspaces_of_dim,
                       vec_from_index)
from . import extremal, mis, spectra

__all__ = ["CRITERIA", "SUITES", "run_criterion", "swept_spectrum"]

SUITES = {
    "fourier": (2, 5),
    "spectra": (3, 4, 10),
    "families": (1, 6, 7),
    "extremal": (8, 9),
}


def _report(k: int, name: str, checks: list, started: float) -> dict:
    failed = [lbl for lbl, ok in checks if not ok]
    return {"criterion": k, "name": name, "pass": not failed,
            "checks": len(checks), "failed": failed[:12],
            "elapsed": round(time.perf_counter() - started, 2)}


# --- 1: counting formulas vs brute-force enumeration ------------------------

def criterion_1(seed: int = 0, budget: Budget | None = None) -> dict:
    t0 = time.perf_counter()
    checks = []
    for q, lim in ((2, 20), (3, 12)):
        for n in range(1, lim + 1):
            for m in range(1, lim // n + 1):
                cn = rank_census(field(q), n, m, budget)
                total = q ** (n * m)
                ok = (sum(cn) == total
                      and all(cn[d] == count_rank_d(n, m, d, q)
                              for d in range(min(n, m) + 1)))
                checks.append((f"rank-counts q={q} {n}x{m}", ok))
                okp = all(phi(m, n, m - d, q) == Fraction(cn[d], total)
                          for d in range(min(n, m) + 1))
                checks.append((f"kernel-density q={q} {n}x{m}", okp))
    for q, nmax in ((2, 4), (3, 3)):
        spec = field(q)
        for n in range(1, nmax + 1):
            got = sum(1 for _ in enumerate_gl(spec, n, budget))
            checks.append((f"gl-order q={q} n={n}",
                           got == m_qt(n, q, 0) == gl_order(n, q)))
            for t in range(1, n + 1):
                checks.append((f"prefix-count q={q} n={n} t={t}",
                               extremal.canonical_family_size(n, q, t, budget)
                               == m_qt(n, q, t)))
    for q, nmax in ((2, 5), (3, 3)):
        spec = field(q)
        for n in range(1, nmax + 1):
            for k in range(0, n + 1):
                if q ** (k * n) > 1 << 16:
                    continue
                subs = subspaces_of_dim(spec, n, k)
                checks.append((f"gauss q={q} n={n} k={k}",
                               gaussian_binomial(n, k, q) == len(subs)))
                for kf in range(0, n - k + 1):
                    U = Subspace.from_vectors(
                        spec, n, [tuple(1 if i == j else 0 for i in range(n))
                                  for j in range(kf)])
                    cnt = sum(1 for W in subs if W.intersect(U).dim == 0)
                    checks.append((f"avoid q={q} n={n} d={k} fixed={kf}",
                                   count_subspaces_avoiding(n, kf, k, q) == cnt))
    return _report(1, "counting oracle equivalence", checks, t0)


# --- 2: Fourier basis exactness ---------------------------------------------

def criterion_2(seed: int = 0, budget: Budget | None = None) -> dict:
    t0 = time.perf_counter()
    rng = random.Random(seed)
    checks = []
    for q in (2, 3, 4):
        spec = field(q)
        p = spec.p
        for n in range(1, 5):
            for m in range(1, 5):
                if n * m > 4:
                    continue
                N = q ** (n * m)
                # masks[i][r]: bit a set when u_X_i(A_a) = omega^r
                masks = []
                for i in range(N):
                    mask = [0] * p
                    row = _exponent_row(spec, n, m, Mat.from_index(spec, m, n, i))
                    for a, e in enumerate(row):
                        mask[e] |= 1 << a
                    masks.append(mask)
                ok = True
                for i in range(N):
                    mi = masks[i]
                    for j in range(i, N):
                        mj = masks[j]
                        # cells where u_X_i conj(u_X_j) = omega^r
                        cs = [sum((mi[(r + t) % p] & mj[t]).bit_count()
                                  for t in range(p)) for r in range(p)]
                        val = Cyc.from_root_counts(p, cs)
                        if i == j:
                            ok = ok and val.is_rational() and val.as_fraction() == N
                        else:
                            ok = ok and val.is_zero()
                checks.append((f"orthonormal q={q} {n}x{m}", ok))
    spec2 = field(2)
    fracs = [Fraction(a, b) for a in range(-4, 5) for b in range(1, 4)]
    for n in range(1, 10):
        for m in range(1, 10 // n + 1):
            N = 1 << (n * m)
            okp = okr = True
            for _ in range(500):
                f = DenseFunction(spec2, n, m, rng.choices(fracs, k=N))
                S = fast_transform(f, budget)
                okp = okp and S.parseval_sum() == norm2_sq(f)
                okr = okr and inverse_transform(S, budget) == f
            checks.append((f"parseval q=2 {n}x{m}", okp))
            checks.append((f"round-trip q=2 {n}x{m}", okr))
    fastnaive = []
    for q in (2, 3, 4):
        spec = field(q)
        cap = 6 if q == 2 else 4
        for n in range(1, cap + 1):
            for m in range(1, cap // n + 1):
                fastnaive.append((spec, n, m, 3 if q == 2 else 2))
    fastnaive.append((spec2, 3, 3, 1))
    for spec, n, m, reps in fastnaive:
        N = spec.q ** (n * m)
        ok = True
        for _ in range(reps):
            f = DenseFunction(spec, n, m,
                              [Fraction(rng.randrange(-3, 4)) for _ in range(N)])
            ok = ok and fast_transform(f, budget) == transform(f, budget)
        checks.append((f"fast-vs-naive q={spec.q} {n}x{m}", ok))
    return _report(2, "fourier exactness", checks, t0)


# --- 3: walk spectra --------------------------------------------------------

def swept_spectrum(q: int, m: int, n: int, t: int,
                   budget: Budget | None = None) -> tuple[Fraction, ...]:
    """Walk eigenvalues by dual rank, as character sums over the class.

    The block identity dual of rank d pairs a matrix with the trace of its
    leading d x d block; its character's mean over the rank-(m - t)
    matrices, read off its exponent row, is the rank-d eigenvalue.
    """
    spec = field(q)
    ensure(budget).check_items(q ** (n * m), "matrix space enumeration")
    gens = [i for i, r in enumerate(rank_table(spec, n, m)) if r == m - t]
    blocks = (Mat(spec, [[int(i == j < d) for j in range(n)] for i in range(m)], n)
              for d in range(min(m, n) + 1))
    return tuple(spectra._class_mean(spec, n, m, X, gens) for X in blocks)


def criterion_3(seed: int = 0, budget: Budget | None = None) -> dict:
    t0 = time.perf_counter()
    checks = []
    for q in (2, 3):
        for m in range(1, 4):
            for n in range(1, 4):
                for t in range(max(0, m - n), m):
                    S = spectra.spectrum(q, m, n, t, budget)
                    checks.append((f"lam0 q={q} m={m} n={n} t={t}",
                                   S.lam[0] == 1))
                    checks.append((f"trace q={q} m={m} n={n} t={t}",
                                   S.trace_check()))
                    checks.append((f"sweep q={q} m={m} n={n} t={t}",
                                   S.lam == swept_spectrum(q, m, n, t, budget)))
                    for d in range(1, min(m, n) + 1):
                        rep = spectra.eigenvalue_bound_check(q, m, n, t, d, budget)
                        checks.append(
                            (f"bound q={q} m={m} n={n} t={t} d={d}",
                             rep["holds"]))
    for q in (2, 3):
        for m in (1, 2):
            for n in (1, 2):
                for t in range(max(0, m - n), m):
                    for d in range(0, min(m, n) + 1):
                        rep = spectra.rank_invariance_check(q, m, n, t, d, budget)
                        checks.append(
                            (f"rank-invariance q={q} m={m} n={n} t={t} d={d}",
                             rep["holds"]))
    S = spectra.spectrum(2, 1, 1, 0, budget)
    checks.append(("concrete q=2", S.lam == (Fraction(1), Fraction(-1))))
    S = spectra.spectrum(3, 1, 1, 0, budget)
    checks.append(("concrete q=3", S.lam == (Fraction(1), Fraction(-1, 2))))
    return _report(3, "spectral identities", checks, t0)


# --- 4: bilinear pairing two ways -------------------------------------------

def criterion_4(seed: int = 0, budget: Budget | None = None) -> dict:
    t0 = time.perf_counter()
    rng = random.Random(seed)
    checks = []
    spec = field(2)
    for t in (1, 2):
        ok = True
        for _ in range(100):
            f = DenseFunction(spec, 2, 2,
                              [Fraction(rng.randrange(-3, 4)) for _ in range(16)])
            g = DenseFunction(spec, 2, 2,
                              [Fraction(rng.randrange(-3, 4)) for _ in range(16)])
            ok = ok and spectra.bilinear_decomposition(f, g, t, budget)["holds"]
        checks.append((f"bilinear t={t} (100 pairs)", ok))
    return _report(4, "bilinear decomposition", checks, t0)


# --- 5: hypercontractivity and rank-nullity relations -----------------------

def criterion_5(seed: int = 0, budget: Budget | None = None) -> dict:
    t0 = time.perf_counter()
    rng = random.Random(seed)
    checks = []
    spec = field(2)
    n = m = 2
    duals = [Mat.from_index(spec, m, n, i) for i in range(16)]
    by_rank = {d: [X for X in duals if rank(X) == d] for d in (1, 2)}
    for d in (1, 2):
        chars = by_rank[d]
        tbl = [[1 - 2 * e for e in _exponent_row(spec, n, m, X)] for X in chars]
        ok = True
        for mask in range(1, 1 << len(chars)):
            vals = [0] * 16
            mm = mask
            while mm:
                i = (mm & -mm).bit_length() - 1
                vals = [a + b for a, b in zip(vals, tbl[i])]
                mm &= mm - 1
            f = DenseFunction(spec, n, m, [Fraction(v) for v in vals])
            ok = ok and verify_hypercontractive(f, d, 4, budget)["holds"]
        checks.append((f"hypercontractive exhaustive d={d}", ok))
    ok = True
    for _ in range(1000):
        f = DenseFunction(spec, n, m,
                          [Fraction(rng.randrange(-2, 3)) for _ in range(16)])
        ok = ok and verify_hypercontractive(f, rng.choice((1, 2)), 4,
                                            budget)["holds"]
    checks.append(("hypercontractive random (1000)", ok))
    rank1 = by_rank[1]
    ok = True
    relations = 0
    for r in (2, 3, 4):
        for combo in itertools.product(rank1, repeat=r):
            acc = combo[0]
            for X in combo[1:]:
                acc = acc + X
            if not acc.is_zero():
                continue
            relations += 1
            ok = ok and check_sum_rank_nullity([1] * r, list(combo))["holds"]
    checks.append((f"sum-rank-nullity ({relations} relations)",
                   ok and relations > 0))
    return _report(5, "hypercontractivity and rank-nullity", checks, t0)


# --- 6: quasiregularity consequences ----------------------------------------

def criterion_6(seed: int = 0, budget: Budget | None = None) -> dict:
    t0 = time.perf_counter()
    rng = random.Random(seed)
    checks = []
    spec = field(2)
    subs = {d: subspaces_of_dim(spec, 2, d) for d in (0, 1, 2)}
    proj_ok = True
    instances = 0
    while instances < 200:
        F = Family(spec, 2, 2, rng.sample(range(16), rng.randrange(2, 15)))
        # one spectrum gives every projection's squared norm
        S = fast_transform(reduce_family(F), budget)
        mu = F.measure()
        for s in (1, 2):
            ratio, _ = max_density_ratio(F, s, budget)
            C = ratio if ratio >= 1 else Fraction(1)
            cap = C * C * mu * mu
            for dd in range(0, s + 1):
                for Vp in subs[dd]:
                    proj_ok = proj_ok and projection_mass(S, Vp, True) <= cap
                for Wp in subs[2 - dd]:
                    proj_ok = proj_ok and projection_mass(S, Wp, False) <= cap
            instances += 1
    checks.append((f"projection-norm contraction ({instances} instances)", proj_ok))
    claim_ok = True
    instances = 0
    while instances < 200:
        F = Family(spec, 3, 3, [i for i in range(512) if rng.random() < 0.5])
        mu = F.measure()
        if mu == 0:
            continue
        ratio, _ = max_density_ratio(F, 1, budget)
        if ratio >= 2:
            continue
        beta = (ratio + 2) / 2
        rep = quasiregular_implies_uncaptureable_check(F, 0, 1, mu, beta,
                                                        budget)
        claim_ok = claim_ok and rep["holds"]
        instances += 1
    checks.append((f"quasiregular implies uncaptureable ({instances})",
                   claim_ok))
    return _report(6, "quasiregularity consequences", checks, t0)


# --- 7: regularity decomposition postconditions -----------------------------

def criterion_7(seed: int = 0, budget: Budget | None = None) -> dict:
    t0 = time.perf_counter()
    rng = random.Random(seed)
    checks = []
    spec = field(2)
    for r in (1, 2):
        for s in (1, 2):
            ok_mu = ok_leaf = True
            for _ in range(25):
                p = rng.choice((0.25, 0.5, 0.75))
                F = Family(spec, 3, 3, [i for i in range(512) if rng.random() < p])
                J, log = regularity_decompose(F, r, s, budget=budget)
                mu_out = measure_outside_junta(F, J)
                # mu <= 2 q^r (q^s-1)^r q^(-3r+r^2/4), compared at 4th powers
                rhs4 = Fraction(16 * 2 ** (4 * r) * (2 ** s - 1) ** (4 * r)
                                * 2 ** (r * r), 2 ** (12 * r))
                ok_mu = ok_mu and mu_out ** 4 <= rhs4
                eps = default_regularity_eps(2, 3, 3, r)
                for nd in log.nodes:
                    if nd.status == "good":
                        sub = F.restrict(nd.restriction)
                        ok_leaf = ok_leaf and is_captureable(sub, s, eps, budget) is None
            checks.append((f"junta residue bound r={r} s={s} (25)", ok_mu))
            checks.append((f"good leaves uncaptureable r={r} s={s}", ok_leaf))
    return _report(7, "regularity postconditions", checks, t0)


# --- 8: extremal constructions at desk scale --------------------------------

def criterion_8(seed: int = 0, budget: Budget | None = None) -> dict:
    t0 = time.perf_counter()
    checks = []
    for q in (2, 3):
        for n in range(1, 5):
            for t in range(1, n + 1):
                checks.append(
                    (f"canonical size q={q} n={n} t={t}",
                     extremal.canonical_family_size(n, q, t, budget)
                     == m_qt(n, q, t)))
    for q in (2, 3):
        spec = field(q)
        for n in (2, 3):
            fam = extremal.singer_cycle(n, q, budget)
            ms = sorted(fam.members, key=lambda M: M.index())
            ok = len(ms) == q ** n - 1
            ok = ok and all(rank(M) == n for M in ms)
            ok = ok and all(agreement_dim(ms[i], ms[j]) == 0
                            for i in range(len(ms))
                            for j in range(i + 1, len(ms)))
            checks.append((f"singer q={q} n={n}", ok))
    rep = extremal.verify_extremal_bound(2, 2, 1, "exhaustive", budget)
    checks.append(("exhaustive optimum q=2 n=2",
                   rep["value"] == rep["bound"] == "2"
                   and rep["status"] == "exploratory" and rep["normalized"]))
    rep = extremal.verify_extremal_bound(2, 3, 1, "exhaustive", budget)
    checks.append(("exhaustive optimum q=3 n=2",
                   rep["value"] == rep["bound"] == "6"
                   and rep["status"] == "exploratory" and rep["normalized"]
                   and rep["optima"] == 64))
    fam, rep = extremal.sl_family(2, 3, 1, budget)
    checks.append(("determinant-one size q=3 n=2",
                   len(fam.members) == 3 and rep["status"] == "confirmed"))
    fam, rep = extremal.sl_family(2, 4, 1, budget)
    checks.append(("determinant-one size q=4 n=2",
                   len(fam.members) == 4 and rep["status"] == "confirmed"))
    return _report(8, "extremal desk-scale", checks, t0)


# --- 9: near-agreement counts meet the explicit bound -----------------------

def _swap_top(spec, n: int) -> Mat:
    rows = [[0] * n for _ in range(n)]
    rows[0][1] = rows[1][0] = 1
    for i in range(2, n):
        rows[i][i] = 1
    return Mat(spec, tuple(tuple(r) for r in rows), n)


def _class_taus(rng: random.Random, n: int, q: int, t: int) -> dict:
    """The first valid tau of 600 draws per (c, d) class, c =
    prefix_meet_dim and d = fixed_prefix_dim.  Each draw sets the first y
    columns to e_1 .. e_y and clears columns y .. z - 1 below row t, so
    that the classes with large c and d, rare among uniform draws, turn
    up too."""
    spec = field(q)
    found = {}
    for _ in range(600):
        y = rng.randrange(t)
        z = rng.randrange(y, t + 1)
        rows = [[rng.randrange(q) for _ in range(n)] for _ in range(n)]
        for j in range(z):
            for i in range(n):
                if j < y or i >= t:
                    rows[i][j] = 1 if i == j else 0
        T = Mat(spec, tuple(tuple(r) for r in rows), n)
        d = extremal.fixed_prefix_dim(T, t)
        if rank(T) == n and d <= t - 1:
            found.setdefault((extremal.prefix_meet_dim(T, t), d), T)
    return found


def criterion_9(seed: int = 0, budget: Budget | None = None) -> dict:
    t0 = time.perf_counter()
    rng = random.Random(seed)
    checks = []
    spec = field(2)
    for n in (3, 4):
        tau = _swap_top(spec, n)
        # invertible S with S e_1 = e_1 agreeing with tau nowhere: S and tau
        # agree on n - rank(S - tau) dimensions
        ranks = rank_table(spec, n, n)
        sub, tau_i = IndexCode(spec, n * n).sub, tau.index()
        e1 = (1,) + (0,) * (n - 1)
        H = {i for i, rk in enumerate(ranks) if rk == n
             and vec_from_index(2, n * n, i)[::n] == e1
             and n - ranks[sub(i, tau_i)] == 0}
        cnt = extremal.derangement_enumerate(n, 2, 1, tau)
        checks.append((f"count vs brute force n={n}", cnt == len(H)))
        outs = list(extremal.derangement_construct(n, 2, 1, tau, budget))
        checks.append((f"yields inside target n={n}",
                       all(S.index() in H for S in outs)))
        checks.append((f"yields distinct n={n}",
                       len({S.index() for S in outs}) == len(outs)
                       == extremal.derangement_construct_count(n, 2, 1, tau,
                                                              budget)))
        checks.append((f"count meets bound n={n}",
                       Fraction(cnt) >= extremal.derangement_bound(n, 2, 1, 0)))
    n, t = 6, 2
    top_d0 = ((0, 1), (1, 1))
    top_d1 = ((1, 1), (0, 1))
    taus = []
    for top in (top_d0, top_d1):
        rows = [[0] * n for _ in range(n)]
        rows[0][:2], rows[1][:2] = list(top[0]), list(top[1])
        for i in range(2, n):
            rows[i][i] = 1
        taus.append(Mat(spec, tuple(tuple(r) for r in rows), n))
    while len(taus) < 3:
        T = Mat(spec, tuple(tuple(rng.randrange(2) for _ in range(n))
                            for _ in range(n)), n)
        if rank(T) == n and extremal.fixed_prefix_dim(T, t) <= t - 1:
            taus.append(T)
    for T in taus:
        cnt = extremal.derangement_enumerate(n, 2, t, T)
        d = extremal.fixed_prefix_dim(T, t)
        checks.append((f"count meets bound n=6 d={d}",
                       Fraction(cnt) >= extremal.derangement_bound(n, 2, t, d)))
    for T in taus[:2]:
        ok = True
        for S in itertools.islice(
                extremal.derangement_construct(n, 2, t, T, budget), 300):
            ok = ok and rank(S) == n and agreement_dim(S, T) == t - 1
            ok = ok and all(S.rows[i][j] == (1 if i == j else 0)
                            for j in range(t) for i in range(n))
        checks.append(
            (f"sampled yields n=6 d={extremal.fixed_prefix_dim(T, t)}", ok))
    for n_, q_, t_ in ([(4, 2, t_) for t_ in (1, 2, 3)]
                       + [(3, q_, t_) for q_ in (3, 4) for t_ in (1, 2, 3)]):
        members = extremal.canonical_family(n_, q_, t_, budget=budget).members
        for (c, d), T in sorted(_class_taus(rng, n_, q_, t_).items()):
            want = sum(agreement_dim(S, T) == t_ - 1 for S in members)
            checks.append((f"count vs family n={n_} q={q_} t={t_} c={c} d={d}",
                           extremal.derangement_enumerate(n_, q_, t_, T) == want))
    for n_, q_, t_, d_ in ((6, 2, 2, 0), (6, 2, 2, 1)):
        rep = extremal.derangement_ratio_chain(n_, q_, t_, d_)
        checks.append((f"ratio chain d={d_}", rep["identity"] and rep["holds"]))
    return _report(9, "derangement counts", checks, t0)


# --- 10: ratio bound against exact independent sets -------------------------

def _mis_grid() -> list[tuple[int, int, int, int]]:
    pts = []
    for q in (2, 3, 4):
        for m in range(1, 7):
            for n in range(1, 7):
                if q ** (n * m) > 81:
                    continue
                for t in range(0, m):
                    if m - t <= n:
                        pts.append((q, m, n, t))
    pts += [(2, 2, 4, 0), (2, 4, 2, 2), (2, 4, 2, 3),
            (2, 3, 3, 0), (2, 3, 3, 1), (3, 2, 3, 0)]
    return pts


def criterion_10(seed: int = 0, budget: Budget | None = None) -> dict:
    t0 = time.perf_counter()
    checks = []
    for q, m, n, t in _mis_grid():
        N = q ** (n * m)
        S = spectra.spectrum(q, m, n, t, budget)
        h = spectra.hoffman_bound(S)
        adj = spectra.graph_bitsets(q, m, n, t, budget)
        alpha, _ = mis.max_independent_set(adj, N, budget)
        checks.append((f"ratio bound q={q} m={m} n={n} t={t}",
                       h >= Fraction(alpha, N)))
    return _report(10, "ratio bound soundness", checks, t0)


CRITERIA: dict[int, Callable] = {
    1: criterion_1, 2: criterion_2, 3: criterion_3, 4: criterion_4,
    5: criterion_5, 6: criterion_6, 7: criterion_7, 8: criterion_8,
    9: criterion_9, 10: criterion_10,
}


def run_criterion(k: int, seed: int = 0, budget: Budget | None = None) -> dict:
    if k not in CRITERIA:
        raise DomainError(f"no criterion {k}")
    return CRITERIA[k](seed=seed, budget=budget)
