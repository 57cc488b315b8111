"""Construction sizes and optimality reports against brute-force oracles.

Everything brute-forced here stays inside GL(3, F3) or smaller, so the
oracles are honest full scans.
"""

import hashlib
import itertools
import random
from fractions import Fraction
from functools import lru_cache

import pytest
from hypothesis import given, settings, strategies as st

from linfam import extremal as ex
from linfam.budget import Budget
from linfam.errors import BudgetExceeded, DomainError, PreconditionViolated
from linfam.gf import field
from linfam.matspace import (Mat, Subspace, agreement_dim, enumerate_gl,
                             m_qt, mat_from_literal, rank, subspaces_of_dim,
                             vec_from_index, vec_index)


def ident(spec, n):
    return Mat.identity(spec, n)


def fixes_prefix(M, t):
    n = M.n
    return all(M.rows[i][j] == (1 if i == j else 0)
               for j in range(t) for i in range(n))


@lru_cache(maxsize=None)
def gl(n, q):
    return tuple(enumerate_gl(field(q), n))


def brute_targets(n, q, t, tau):
    """Indices of the prefix-fixing maps at agreement exactly t - 1 from
    tau, by full scan."""
    return {S.index() for S in gl(n, q)
            if fixes_prefix(S, t) and agreement_dim(S, tau) == t - 1}


def brute_H(n, q, t, tau):
    return len(brute_targets(n, q, t, tau))


def matmul(A, B):
    n, f = A.n, A.field
    out = []
    for i in range(n):
        r = []
        for j in range(n):
            acc = 0
            for k in range(n):
                acc = f.add(acc, f.mul(A.rows[i][k], B.rows[k][j]))
            r.append(acc)
        out.append(tuple(r))
    return Mat(f, tuple(out), n)


# --- prefix-fixing families -------------------------------------------------

def test_canonical_sizes_and_membership():
    for q in (2, 3, 4, 5, 7, 8, 9):
        for n in range(1, 5):
            for t in range(1, n + 1):
                want = m_qt(n, q, t)
                if want > 5000:
                    if q > 3:
                        continue
                    got = ex.canonical_family_size(n, q, t)
                else:
                    fam = ex.canonical_family(n, q, t)
                    got = len(fam.members)
                    for M in fam.members:
                        assert rank(M) == n and fixes_prefix(M, t)
                    if t == n:
                        assert got == 1
                        assert next(iter(fam.members)) == ident(field(q), n)
                assert got == want, (q, n, t, got, want)
                if n <= 3:
                    assert ex.canonical_family_size(n, q, t) == want


def test_canonical_size_streams_without_materializing():
    assert ex.canonical_family_size(4, 3, 1) == m_qt(4, 3, 1) == 303264


def test_budget_errors_say_how_far_they_got():
    with pytest.raises(BudgetExceeded, match="^fixed-prefix enumeration exceeded "
                       "0s time budget after 0 batches$"):
        ex.canonical_family_size(3, 2, 1, Budget(seconds=0))
    with pytest.raises(BudgetExceeded, match="^matrix space enumeration needs "
                       "512 items, budget is 100$"):
        next(enumerate_gl(field(2), 3, Budget(items=100)))


def test_row_side_is_transpose_of_column_side():
    fc = ex.canonical_family(3, 2, 1)
    assert {M.index() for M in fc.dual().members} == \
        {M.transpose().index() for M in fc.members}


# --- cyclic zero-agreement families -----------------------------------------

@pytest.mark.parametrize("n", [0, -1])
def test_singer_cycle_rejects_nonpositive_n(n):
    with pytest.raises(DomainError, match=f"^need n >= 1, got n={n}$"):
        ex.singer_cycle(n, 2)


def test_singer_cycles():
    # n = 1 is F_q^* acting on F_q; GL(1, 2) is the identity alone
    for q, n, want in ((2, 2, 3), (3, 2, 8), (2, 3, 7), (3, 3, 26), (2, 1, 1),
                       (3, 1, 2), (4, 1, 3), (5, 1, 4)):
        fam = ex.singer_cycle(n, q)
        ms = sorted(fam.members, key=lambda M: M.index())
        assert len(ms) == want == q ** n - 1
        spec = field(q)
        idx = {M.index() for M in ms}
        assert ident(spec, n).index() in idx
        for M in ms:
            assert rank(M) == n
        for i in range(len(ms)):
            for j in range(i + 1, len(ms)):
                assert agreement_dim(ms[i], ms[j]) == 0, (q, n, i, j)
        for A in ms:
            for B in ms:
                assert matmul(A, B).index() in idx


# sha256 of repr(singer_cycle(n, q).indices): pins the modulus and the
# generator each search picks.
SINGER_INDICES = {
    (2, 2): "586ba2050f268e9531ac5ac251577aaf39bdbd9d705517daf3084cd73e46a872",
    (3, 2): "9a61f4185e2b45d11c564e8bf28dae682954caa1613a1a00228eb055143951d6",
    (4, 2): "90656029f51278fe8b5ea1d9be7c6bb73647c54b662228df05c94a7c305ee149",
    (5, 2): "56160b84ec449437c172fdc1d8b16f3c8a996dacf1b834ecd9b02ac5928f8a21",
    (2, 3): "5599a2674ed7a6e95a4f0c5ab51f136af067399b9b2f85daf57047753b5b1b46",
    (3, 3): "b430a17cdbfa811cc107a7c9276ccd245114175ffec4019c5d87230684cfd927",
    (4, 3): "ac58d448904d2b688abf7d3a8f53ca88922e1922636603776dbc9606b5e0a930",
    (2, 4): "fb9120434dd967892903ffd4523ddc7c6ff4292eb6e8ebe938eef2ebf3eac52d",
    (3, 4): "b9bc084894a8f80dd0ebd9b3cb40f908d1673bc713010994261ced04c6d83580",
    (2, 5): "9cc11ed8412266befa31af9f44b055ef3ffab9267acbe6417338864211f688ce",
    (2, 7): "08fa9dc4bac8338bae2b9e6d19cf55b20344c2052aa0c58623af01fc44f7c692",
    (2, 8): "bda02e965454376aa53a66cd9d3296aa9d1cd0ea53681caaff0cfc34c802c5f8",
    (2, 9): "6544cb4f569228aa34ee4eec53b2dd40b232fc29c69d28e42cfe8142d6bdff8d",
    (2, 16): "4a4fdbefe63e40973b9c5c6f4fcf570c0127f463df2127f79b9ea8aebd954b54",
}


@pytest.mark.parametrize("n,q", sorted(SINGER_INDICES))
def test_singer_cycle_indices_pinned(n, q):
    idx = ex.singer_cycle(n, q).indices
    assert hashlib.sha256(repr(idx).encode()).hexdigest() == SINGER_INDICES[n, q]


# --- determinant-one variant ------------------------------------------------

def test_sl_cut_sizes():
    fam, rep = ex.sl_family(2, 3, 1)
    assert len(fam.members) == m_qt(2, 3, 1) // 2 == 3
    assert rep["status"] == "confirmed"
    for M in fam.members:
        assert M.det_val() == 1

    fam4, rep4 = ex.sl_family(2, 4, 1)
    assert len(fam4.members) == m_qt(2, 4, 1) // 3 == 4
    assert rep4["status"] == "confirmed"

    # q = 2 has determinant-one for free
    fam2, rep2 = ex.sl_family(3, 2, 1)
    assert len(fam2.members) == m_qt(3, 2, 1) == 24
    assert rep2["status"] == "confirmed"
    assert '"status": "confirmed"' in ex.report_to_json(rep2)

    # at t = n the family is {I}: no determinant classes to divide by
    for n, q in ((2, 3), (2, 5), (3, 4)):
        famn, repn = ex.sl_family(n, q, n)
        assert famn.members == {ident(field(q), n)}
        assert repn["value"] == repn["bound"] == "1"
        assert repn["status"] == "confirmed"


# --- near-agreement derangements --------------------------------------------

def test_fixed_prefix_dim_and_precondition():
    s2 = field(2)
    tau_swap = Mat(s2, ((0, 1, 0), (1, 0, 0), (0, 0, 1)), 3)
    assert ex.fixed_prefix_dim(tau_swap, 1) == 0
    assert ex.fixed_prefix_dim(ident(s2, 3), 1) == 1
    with pytest.raises(PreconditionViolated):
        ex.derangement_enumerate(3, 2, 1, ident(s2, 3))


def test_enumerate_against_brute_force_gf2():
    for n in (3, 4):
        spec = field(2)
        rows = [[0, 1] + [0] * (n - 2), [1, 0] + [0] * (n - 2)]
        rows += [[0] * i + [1] + [0] * (n - i - 1) for i in range(2, n)]
        taus = [Mat(spec, tuple(tuple(r) for r in rows), n)]
        rng = random.Random(7)
        gl = list(enumerate_gl(spec, n))
        while len(taus) < 3:
            T = rng.choice(gl)
            if ex.fixed_prefix_dim(T, 1) == 0:
                taus.append(T)
        got = [ex.derangement_enumerate(n, 2, 1, T) for T in taus]
        want = [brute_H(n, 2, 1, T) for T in taus]
        assert got == want, (n, got, want)


def test_enumerate_against_brute_force_t2_and_gf3():
    spec = field(2)
    tau = Mat(spec, ((1, 1, 0), (0, 1, 0), (0, 0, 1)), 3)   # fixes e1, moves e2
    assert ex.fixed_prefix_dim(tau, 2) == 1
    assert ex.derangement_enumerate(3, 2, 2, tau) == brute_H(3, 2, 2, tau)

    spec3 = field(3)
    tau3 = Mat(spec3, ((0, 1, 0), (1, 0, 0), (0, 0, 1)), 3)
    assert ex.derangement_enumerate(3, 3, 1, tau3) == brute_H(3, 3, 1, tau3)


# GL(1, 2) = {1} fixes e_1, so (n, q, t) = (1, 2, 1) has no target
DERANGE_POINTS = [(n, q, t) for q in (2, 3) for n in (1, 2, 3)
                  for t in range(1, n + 1) if (n, q, t) != (1, 2, 1)]
DERANGE_POINTS += [(2, q, t) for q in (4, 5, 7, 8, 9) for t in (1, 2)]


@lru_cache(maxsize=None)
def valid_taus(n, q, t):
    return tuple(T for T in gl(n, q) if ex.fixed_prefix_dim(T, t) <= t - 1)


@settings(max_examples=60, deadline=None)
@given(st.sampled_from(DERANGE_POINTS).flatmap(
    lambda p: st.tuples(st.just(p), st.sampled_from(valid_taus(*p)))))
def test_derangement_walks_against_brute_force(point):
    (n, q, t), tau = point
    target = brute_targets(n, q, t, tau)
    assert ex.derangement_enumerate(n, q, t, tau) == len(target)
    if 3 * t <= n:
        outs = [S.index() for S in ex.derangement_construct(n, q, t, tau)]
        assert set(outs) <= target and len(set(outs)) == len(outs)
        assert ex.derangement_construct_count(n, q, t, tau) == len(outs)


# points with m_qt <= 3000 whose GL is too large to scan, so the oracle is
# a count over the prefix-fixing family itself
FAMILY_POINTS = [(4, 2, t) for t in (1, 2, 3, 4)] + [(5, 2, 3), (5, 2, 4)]
FAMILY_POINTS += [(3, 4, t) for t in (1, 2, 3)]
FAMILY_POINTS += [(3, q, 2) for q in (5, 7, 8, 9)]


@lru_cache(maxsize=None)
def family_members(n, q, t):
    return tuple(ex.canonical_family(n, q, t).members)


def seeded_tau(n, q, t, seed):
    """A uniform valid tau, by rejection sampling from a seeded stream."""
    rng, spec = random.Random(seed), field(q)
    while True:
        T = Mat(spec, tuple(tuple(rng.randrange(q) for _ in range(n))
                            for _ in range(n)), n)
        if rank(T) == n and ex.fixed_prefix_dim(T, t) <= t - 1:
            return T


@settings(max_examples=60, deadline=None)
@given(st.sampled_from(FAMILY_POINTS), st.integers(0, 2 ** 32 - 1))
def test_closed_form_against_family_count(point, seed):
    n, q, t = point
    tau = seeded_tau(n, q, t, seed)
    want = sum(agreement_dim(S, tau) == t - 1 for S in family_members(n, q, t))
    assert ex.derangement_enumerate(n, q, t, tau) == want


def test_derangement_bound_values():
    assert ex.derangement_bound(6, 2, 2, 0) == Fraction(63 * 52 * 40 * 16, 4) == 524160
    assert ex.derangement_bound(6, 2, 2, 1) == Fraction(58 * 52 * 40 * 16, 4) == 482560
    assert ex.derangement_bound(3, 2, 1, 0) == 0
    assert ex.derangement_bound(4, 2, 1, 0) == 0
    assert ex.derangement_bound(3, 3, 1, 0) == Fraction(21 * 9, 4)


def test_derangement_ratio_chain():
    for n, q, t, d in ((6, 2, 2, 0), (6, 2, 2, 1), (6, 3, 2, 0), (9, 2, 3, 2)):
        rep = ex.derangement_ratio_chain(n, q, t, d)
        assert rep["identity"] and rep["holds"], rep
    for bad in ((3, 2, 1, 0), (5, 2, 2, 0)):
        with pytest.raises(DomainError):
            ex.derangement_ratio_chain(*bad)


def test_constructive_process_lands_in_target_set():
    for n, q in ((3, 2), (4, 2), (3, 3)):
        spec = field(q)
        rows = [[0, 1] + [0] * (n - 2), [1, 0] + [0] * (n - 2)]
        rows += [[0] * i + [1] + [0] * (n - i - 1) for i in range(2, n)]
        tau = Mat(spec, tuple(tuple(r) for r in rows), n)
        outs = list(ex.derangement_construct(n, q, 1, tau))
        for S in outs:
            assert fixes_prefix(S, 1) and rank(S) == n
            assert agreement_dim(S, tau) == 0, S
        cnt = ex.derangement_construct_count(n, q, 1, tau)
        assert cnt == len(outs) == len({S.index() for S in outs})
        H = brute_H(n, q, 1, tau)
        bound = ex.derangement_bound(n, q, 1, 0)
        assert cnt <= H and Fraction(cnt) >= bound and Fraction(H) >= bound


# sha256 of the Mat.index() sequence of derangement_construct for fixed
# targets: pins which maps the process yields and in which order.  Family
# holds its members as a frozenset, so walk order is pinned only here; the
# q > 2 rows swap e_1 and e_2, and GF(4) has sub equal to add.
CONSTRUCT_GOLDEN = [
    (4, 2, 1, "q=2;n=4;m=4;rows=1001;1010;0101;1011", None,
     "3653ff62491b12e311dadf92702ee7bd95527b554585a7200b35c6e9ac9de38b"),
    (3, 3, 1, "q=3;n=3;m=3;rows=202;022;012", None,
     "0f1789d30acca92b265f30389d7ae7a9ff865e05c3bd22c963c1a08c5194007b"),
    (5, 2, 1, "q=2;n=5;m=5;rows=00110;01100;11100;01000;01011", 1500,
     "f52010ae824e3fdd6a3796ea00d43a58d9fc3919307ae31447dc99dcd9a27ae4"),
    (6, 2, 2, "q=2;n=6;m=6;rows=110000;000100;001011;101100;110011;001010",
     300, "b055f647b43922216ab6549b1a15e7849bda0d7befe9259ffecc2b76df44aead"),
    (6, 2, 2, "q=2;n=6;m=6;rows=010010;010110;110101;111001;000010;110010",
     300, "29e7649c85caf5a0bc8e97e919c434314d466834c08da914a2b1479ec1084ba9"),
    (3, 4, 1, "q=4;n=3;m=3;rows=010;100;001", None,
     "d956aa232a3d0675aec0984a785af4ec524b594968d74d3d3b4ffc9088fabac0"),
    (3, 5, 1, "q=5;n=3;m=3;rows=010;100;001", None,
     "68da26d9f22339a9a0081843659014808e12a5ac2c13d2c6ec9980095809850d"),
    (3, 7, 1, "q=7;n=3;m=3;rows=010;100;001", 500,
     "f6ec1d807803498c41bdc8b1bd73fd15ff105f91eb6537c23fc18dbb2b828881"),
    (3, 8, 1, "q=8;n=3;m=3;rows=010;100;001", 500,
     "ff34da77b5bcf740d1e65657e751e45028d44d3493bb2454e72fbd73d0c22d40"),
    (3, 9, 1, "q=9;n=3;m=3;rows=010;100;001", 500,
     "037b1bfc35a54f84fa35c014ac25bdf86bc75fc4d8b6d432a2b96e1da5a79024"),
]


def echelon_seeds(n, q, t, tau):
    """The seeds W of dimension t - d - 1 whose Zassenhaus meet with E +
    tau^-1 E is zero, E the prefix span and tau^-1 E found by a scan."""
    spec = field(q)
    prefix = [tuple(int(i == j) for i in range(n)) for j in range(t)]
    pre = [v for v in itertools.product(range(q), repeat=n)
           if not any(tau.apply(v)[t:])]
    U = Subspace.from_vectors(spec, n, prefix + pre)
    d = ex.fixed_prefix_dim(tau, t)
    return [W for W in subspaces_of_dim(spec, n, t - d - 1)
            if W.intersect(U).dim == 0]


def test_seed_walks_match_echelon_seeds():
    # 40 seeded taus at each DERANGE_POINTS point with 3t <= n, and both
    # (6, 2, 2) goldens, whose seeds are lines (d = 0) and the zero space
    targets = [(n, q, t, T) for n, q, t in DERANGE_POINTS if 3 * t <= n
               for T in random.Random(n * q).sample(valid_taus(n, q, t), 40)]
    targets += [(n, q, t, mat_from_literal(tau))
                for n, q, t, tau, _, _ in CONSTRUCT_GOLDEN if (n, t) == (6, 2)]
    ds = set()
    for n, q, t, tau in targets:
        spec = field(q)
        units = [q ** (n - 1 - j) for j in range(n)]
        seeds = echelon_seeds(n, q, t, tau)
        bases = [basis for basis, _ in ex._seed_walks(n, q, t, tau, None)]
        assert len(bases) == len(seeds) > 0
        for basis, W in zip(bases, seeds):
            head = units[:t] + [vec_index(q, r) for r in W.rows]
            assert basis[:len(head)] == head
            tail = basis[len(head):]
            assert tail == sorted(tail, reverse=True) and set(tail) <= set(units)
            rows = [vec_from_index(q, n, v) for v in basis]
            assert len(basis) == n and rank(Mat(spec, rows, n)) == n
        ds.add((n, ex.fixed_prefix_dim(tau, t)))
    assert {(6, 0), (6, 1)} <= ds


@pytest.mark.parametrize("n,q,t,tau,take,sha", CONSTRUCT_GOLDEN, ids=[
    "n4q2t1", "n3q3t1", "n5q2t1-first1500", "n6q2t2d0-first300",
    "n6q2t2d1-first300", "n3q4t1", "n3q5t1", "n3q7t1-first500",
    "n3q8t1-first500", "n3q9t1-first500"])
def test_construct_order_golden(n, q, t, tau, take, sha):
    outs = itertools.islice(
        ex.derangement_construct(n, q, t, mat_from_literal(tau)), take)
    idx = [M.index() for M in outs]
    assert hashlib.sha256(repr(idx).encode()).hexdigest() == sha


# near-agreement counts at points past the brute-force scans, as walked by
# the prefix-fixing enumeration
ENUMERATE_GOLDEN = [
    (5, 2, 1, "q=2;n=5;m=5;rows=00110;01100;11100;01000;01011", 96256),
    (6, 2, 2, "q=2;n=6;m=6;rows=110000;000100;001011;101100;110011;001010",
     2979072),
    (6, 2, 2, "q=2;n=6;m=6;rows=010010;010110;110101;111001;000010;110010",
     3030528),
    (4, 3, 1, "q=3;n=4;m=4;rows=0100;1000;0010;0001", 172044),
    (4, 3, 2, "q=3;n=4;m=4;rows=1100;0120;0010;0001", 3267),
    (3, 7, 1, "q=7;n=3;m=3;rows=010;100;001", 82908),
    (3, 8, 2, "q=8;n=3;m=3;rows=130;010;001", 440),
    (5, 2, 2, "q=2;n=5;m=5;rows=01100;01110;11010;01011;01111", 6192),
    (5, 2, 2, "q=2;n=5;m=5;rows=10000;00100;00001;01100;01011", 6432),
    (5, 2, 2, "q=2;n=5;m=5;rows=11010;01100;10010;00010;01111", 6192),
]


@pytest.mark.parametrize("n,q,t,tau,count", ENUMERATE_GOLDEN, ids=[
    "n5q2t1", "n6q2t2d0", "n6q2t2d1", "n4q3t1", "n4q3t2", "n3q7t1", "n3q8t2",
    "n5q2t2a", "n5q2t2b", "n5q2t2c"])
def test_enumerate_golden(n, q, t, tau, count):
    assert ex.derangement_enumerate(n, q, t, mat_from_literal(tau)) == count


# --- optimality reports -----------------------------------------------------

def test_exhaustive_bound_reports():
    rep = ex.verify_extremal_bound(2, 2, 1, "exhaustive")
    assert rep["value"] == "2" and rep["bound"] == "2"
    assert rep["status"] == "exploratory" and rep["normalized"], rep

    rep3 = ex.verify_extremal_bound(2, 3, 1, "exhaustive")
    assert rep3["value"] == "6" and rep3["bound"] == "6"
    assert rep3["status"] == "exploratory" and rep3["normalized"]
    assert rep3["optima"] == 64


# sha256 of report_to_json(verify_extremal_bound(n, q, t, "exhaustive")):
# pins the optimum count and the witness, the first optimum the search lists
EXHAUSTIVE_GOLDEN = [
    (2, 2, 1, "2b4662cf7eb3a99639e33f8c922213e79ece47e386a96b07def031a7d502ecab"),
    (2, 3, 1, "19916254d944e28896add002268fc3f6613323985c4bb54a0dd81ef714c69b81"),
    (2, 4, 1, "182a2fd57a9225e1c0cdc6f2d4e1eab142720c3122ebde00b481dea36e3c994d"),
    (3, 2, 1, "36d9c05ece1b37bd66ebab2dd4d7c4829122d2bc76c7ee69e008d70b346415fa"),
    (3, 2, 2, "f33cd8fe3f660110d8dc30c630a8287d5b158c2982064643129bc897e9422c07"),
]


@pytest.mark.parametrize("n,q,t,sha", EXHAUSTIVE_GOLDEN,
                         ids=["n2q2t1", "n2q3t1", "n2q4t1", "n3q2t1", "n3q2t2"])
def test_exhaustive_reports_pinned(n, q, t, sha):
    text = ex.report_to_json(ex.verify_extremal_bound(n, q, t, "exhaustive"))
    assert hashlib.sha256(text.encode()).hexdigest() == sha, text


# sha256 of report_to_json(verify_extremal_bound(n, q, t, "sample")): pins
# value (outside maps scanned) and witness (the first addable map in
# enumerate_gl order); t = n points are violated, the family being {I}
SAMPLE_GOLDEN = [
    (4, 2, 1, "exploratory",
     "8fc06f186011550ebf4652a85216400211dff5450a9d65636aa2cc8b3a3dfd47"),
    (3, 2, 1, "exploratory",
     "5e32c3756b0794617075da5ef192c327ac12db837e0b97509da4b7f7f8547570"),
    (3, 2, 2, "exploratory",
     "79d3fc4f588111b39c293ae9b557add038c7108afd06bcfd0cb2a8f86c383005"),
    (3, 2, 3, "violated",
     "5b38c09d74cf210bfb000036c5dba46368675c3e38b19ad29e523a8f09be73f4"),
    (2, 3, 1, "exploratory",
     "9b0748d8bffc0f31ff5f67e7672e9b8160cc5448bb6c92d71b98344952aa557a"),
    (2, 3, 2, "violated",
     "b69aa8da3a2ae21b43e6451f5091d495d0759c839faf87099cbdc6b5d51cdb79"),
    (2, 4, 1, "exploratory",
     "ba7715cd1fc4f985b03ae93fc437b6e2e6914dd4dba8c5f64a4ccd8dc3291a5c"),
    (2, 4, 2, "violated",
     "4f127ef5fb261f517a6031c38b1cd097e550aa86f3fe88cc56fa1dd7c3e8f8a9"),
    (2, 5, 1, "exploratory",
     "cb32a932705117d47804077d5c4b5e3e933438aeb6ade35a4c03c267e2524373"),
    (2, 5, 2, "violated",
     "a1980ee8d52f6fa81a496d3fdb3429b3962ce91eaabeed91b8e045d75dc8726a"),
]


def test_sample_bound_reports():
    for n, q, t, status, sha in SAMPLE_GOLDEN:
        rep = ex.verify_extremal_bound(n, q, t, "sample")
        assert rep["status"] == status, rep
        text = ex.report_to_json(rep)
        assert hashlib.sha256(text.encode()).hexdigest() == sha, text


def sample_oracle(n, q, t):
    """(scanned, witness index): the agreement_dim scan of every map outside
    the prefix-fixing family against every member, in enumerate_gl order."""
    members = [S for S in gl(n, q) if fixes_prefix(S, t)]
    scanned = 0
    for S in gl(n, q):
        if fixes_prefix(S, t):
            continue
        scanned += 1
        if not any(agreement_dim(S, M) == t - 1 for M in members):
            return scanned, S.index()
    return scanned, None


# GL sizes at most 480, so the oracle's pair scan stays a full scan
SAMPLE_POINTS = [(n, q, t) for n, q in ((1, 2), (1, 3), (2, 2), (2, 3),
                                        (2, 4), (2, 5), (3, 2))
                 for t in range(1, n + 1)]


@settings(max_examples=20, deadline=None)
@given(st.sampled_from(SAMPLE_POINTS))
def test_sample_report_matches_oracle(point):
    rep = ex.verify_extremal_bound(*point, "sample")
    scanned, wit = sample_oracle(*point)
    assert rep["value"] == str(scanned)
    if wit is None:
        assert rep["status"] == "exploratory" and rep["witness"] == []
    else:
        n, q, _ = point
        assert rep["status"] == "violated"
        assert rep["witness"] == [
            Mat.from_index(field(q), n, n, wit).to_literal()]


@pytest.mark.parametrize("mode", ["exhaustive", "sample", "spectral"])
def test_bound_reports_need_t_between_1_and_n(mode):
    for t in (0, 3):
        with pytest.raises(DomainError, match=f"^need 1 <= t <= n, got t={t}$"):
            ex.verify_extremal_bound(2, 2, t, mode)


def test_spectral_bound_reports():
    rep = ex.verify_extremal_bound(2, 2, 1, "spectral")
    assert rep["consistent"] and rep["status"] == "exploratory"
    rep3 = ex.verify_extremal_bound(2, 3, 1, "spectral")
    assert rep3["consistent"], rep3


def test_spectral_report_builds_no_field_tables():
    # the closed-form spectrum needs q to be a prime power, not F_q's tables
    rep = ex.verify_extremal_bound(2, 8192, 1, "spectral")
    assert rep["consistent"] and rep["value"] == "8191/549755813888"
    with pytest.raises(BudgetExceeded, match="^prime power test exceeded"):
        ex.verify_extremal_bound(2, 10 ** 12 + 39, 1, "spectral",
                                 Budget(seconds=0))
    for mode in ("exhaustive", "sample", "spectral"):
        with pytest.raises(DomainError, match="q=6 is not a prime power"):
            ex.verify_extremal_bound(2, 6, 1, mode)
    with pytest.raises(DomainError, match="unknown mode 'census'"):
        ex.verify_extremal_bound(2, 8192, 1, "census")


def test_bound_reports_keep_to_their_limits():
    with pytest.raises(BudgetExceeded, match="capped near [|]GL[|] = 200, got 480"):
        ex.verify_extremal_bound(2, 5, 1, "exhaustive")
    with pytest.raises(BudgetExceeded, match="eigenvalue formula terms"):
        ex.verify_extremal_bound(40, 2, 1, "spectral", Budget(items=10))
