"""Matrix-space linear algebra and the counting formulas behind everything.

Counting formulas, rank tables and span listings run against direct
computations on enumerated or randomly assembled instances, so a formula
bug cannot hide behind its own enumeration.
"""

import functools
import itertools
import random
from fractions import Fraction

import pytest

from linfam.errors import DomainError, ShapeMismatch
from linfam.gf import field
from linfam.matspace import (IndexCode, Mat, Subspace, agreement,
                             agreement_dim, count_rank_d,
                             count_subspaces_avoiding, enumerate_all,
                             enumerate_gl, gaussian_binomial, gl_order, image,
                             kernel, m_qt, mat_from_literal, phi, rank,
                             rank_census, rank_table, span_indices,
                             subspaces_of_dim, vec_add, vec_from_index,
                             vec_index, vec_smul)

s2 = field(2)
s3 = field(3)


def ident(spec, n):
    return Mat.identity(spec, n)


# --- single-matrix operations ----------------------------------------------

def test_rank_kernel_image_all_ones():
    A = Mat(s2, ((1, 1), (1, 1)), 2)
    assert rank(A) == 1
    assert kernel(A).dim == 1 and kernel(A).contains((1, 1))
    assert image(A).dim == 1 and image(A).contains((1, 1))
    assert image(A.transpose()).dim == 1


def test_rank_nullity_exhaustive():
    for q, spec in ((2, s2), (3, s3)):
        for n in range(1, 4):
            for m in range(1, 4):
                if q ** (n * m) > 3 ** 4:
                    continue
                for A in enumerate_all(spec, n, m):
                    assert rank(A) + kernel(A).dim == m


def test_agreement_of_identity_and_swap():
    SW = Mat(s2, ((0, 1), (1, 0)), 2)
    ag = agreement(ident(s2, 2), SW)
    assert ag.dim == 1 and ag.contains((1, 1))
    assert agreement_dim(ident(s2, 2), SW) == 1
    assert agreement_dim(ident(s2, 2).transpose(), SW.transpose()) == 1


def test_agreement_rank_complement():
    # dim{v: A1 v = A2 v} + rank(A1 - A2) = m, and the row-side twin
    rng = random.Random(11)
    for q, spec in ((2, s2), (3, s3)):
        for _ in range(200):
            n, m = rng.randint(1, 3), rng.randint(1, 3)
            A1 = Mat.from_index(spec, n, m, rng.randrange(q ** (n * m)))
            A2 = Mat.from_index(spec, n, m, rng.randrange(q ** (n * m)))
            r = rank(A1 - A2)
            assert agreement_dim(A1, A2) + r == m
            assert agreement_dim(A1.transpose(), A2.transpose()) + r == n


FOLD_FIELDS = [2, 3, 4, 5, 7, 8, 9, 11, 16]


@pytest.mark.parametrize("q", FOLD_FIELDS)
def test_mat_arithmetic_against_cell_folds(q):
    """+, -, unary -, smul, apply and rapply equal folds of the field's
    element operations, cell by cell, on every shape with n, m <= 3."""
    spec = field(q)
    rng = random.Random(q)

    def rand_mat(n, m):
        return Mat(spec, [[rng.randrange(q) for _ in range(m)]
                          for _ in range(n)], m)

    def dot(u, v):
        return functools.reduce(spec.add, map(spec.mul, u, v), 0)

    for n, m in itertools.product(range(4), repeat=2):
        for _ in range(3):
            A, B = rand_mat(n, m), rand_mat(n, m)
            c = rng.randrange(q)
            v = [rng.randrange(q) for _ in range(m)]
            a = [rng.randrange(q) for _ in range(n)]
            pairs = list(zip(A.rows, B.rows))
            assert A + B == Mat(spec, [list(map(spec.add, r, s))
                                       for r, s in pairs], m)
            assert A - B == Mat(spec, [list(map(spec.sub, r, s))
                                       for r, s in pairs], m)
            assert -A == Mat(spec, [list(map(spec.neg, r)) for r in A.rows], m)
            assert A.smul(c) == Mat(spec, [[spec.mul(c, x) for x in r]
                                           for r in A.rows], m)
            assert A.apply(v) == tuple(dot(r, v) for r in A.rows)
            assert A.rapply(a) == tuple(dot(a, [r[j] for r in A.rows])
                                        for j in range(m))


@pytest.mark.parametrize("q", FOLD_FIELDS)
def test_subspace_contains_against_span_listing(q):
    """contains(v) is membership in the list of every combination of the
    basis rows, for every v of F_q^L, L <= 3."""
    spec = field(q)
    rng = random.Random(q)
    for length in range(4):
        for k in range(4):
            vecs = [[rng.randrange(q) for _ in range(length)] for _ in range(k)]
            S = Subspace.from_vectors(spec, length, vecs)
            listing = set()
            for u in itertools.product(range(q), repeat=S.dim):
                w = (0,) * length
                for c, r in zip(u, S.rows):
                    w = tuple(spec.add(x, spec.mul(c, y)) for x, y in zip(w, r))
                listing.add(w)
            assert len(listing) == q ** S.dim
            for w in itertools.product(range(q), repeat=length):
                assert S.contains(w) == (w in listing)


def test_subspace_contains_rejects_other_lengths():
    # zip once truncated (1, 0, 0, 1) to a member of span{(1, 0, 0)}
    S = Subspace.from_vectors(s2, 3, [(1, 0, 0)])
    for v in ((1, 0, 0, 1), (1, 0)):
        with pytest.raises(ShapeMismatch):
            S.contains(v)


def test_determinant_and_trace_values():
    SW3 = Mat(s3, ((0, 1), (1, 0)), 2)
    assert SW3.det_val() == 2
    U = Mat(s2, ((1, 1), (0, 1)), 2)
    assert U.det_val() == 1


def test_apply_transpose_consistency():
    rng = random.Random(5)
    for _ in range(50):
        A = Mat.from_index(s3, 2, 3, rng.randrange(3 ** 6))
        a = tuple(rng.randrange(3) for _ in range(2))
        assert A.rapply(a) == A.transpose().apply(a)


def test_literal_and_index_round_trips():
    for spec in (s2, s3):
        q = spec.q
        for idx in range(q ** 4):
            A = Mat.from_index(spec, 2, 2, idx)
            assert A.index() == idx
            assert mat_from_literal(A.to_literal()) == A
    for q in (3, 11):    # rows with no entries, with and without commas
        A = Mat.zero(field(q), 2, 0)
        assert mat_from_literal(A.to_literal()) == A
    for q in (2, 3):
        for idx in range(q ** 3):
            assert vec_index(q, vec_from_index(q, 3, idx)) == idx


@pytest.mark.parametrize("text", ["q=2;m=2;rows=10;01", "q=2;n=x;m=2;rows=10;01",
                                  "q=2;n;m=2;rows=10;01"])
def test_literal_header_errors(text):
    with pytest.raises(DomainError):
        mat_from_literal(text)


def test_span_indices_against_tuple_combinations():
    rng = random.Random(3)
    for q in (2, 3, 4, 5):
        spec = field(q)
        for length in range(1, 5):
            for _ in range(4):
                k = rng.randint(0, 3)
                basis = [tuple(rng.randrange(q) for _ in range(length))
                         for _ in range(k)]
                got = span_indices(IndexCode(spec, length), basis)
                assert len(got) == q ** k
                for u in itertools.product(range(q), repeat=k):
                    v = (0,) * length
                    for c, b in zip(u, basis):
                        v = vec_add(spec, v, vec_smul(spec, c, b))
                    assert got[vec_index(q, u)] == vec_index(q, v)


# every q^ambient <= 729; a dimension holding more than 3,000 spaces is
# left out (F_2^9 has 8.3M subspaces, all but 1,024 of dimension 2 to 7)
LISTING_POINTS = [(q, ambient) for q in (2, 3, 4, 5, 7, 8, 9)
                  for ambient in range(1, 10) if q ** ambient <= 729]


@pytest.mark.parametrize("q,ambient", LISTING_POINTS)
def test_subspace_listing_against_tuple_combinations(q, ambient):
    spec = field(q)
    for d in range(ambient + 1):
        if gaussian_binomial(ambient, d, q) > 3000:
            continue
        for S in subspaces_of_dim(spec, ambient, d):
            # the rows taken last first, each new coefficient the least
            # significant digit: entry vec_index(u[::-1]) is sum u_i rows_i
            sums = [(0,) * ambient]
            for r in reversed(S.rows):
                multiples = [vec_smul(spec, c, r) for c in range(q)]
                sums = [vec_add(spec, v, w) for v in sums for w in multiples]
            listing = S.listing
            assert listing == [vec_index(q, v) for v in sums]
            assert S.listing is listing


INDEX_CODE_POINTS = [(q, length) for q in (2, 3, 4, 5, 7, 8, 9)
                     for length in range(1, 4 if q >= 7 else 5)]


@pytest.mark.parametrize("q,length", INDEX_CODE_POINTS)
def test_index_code_against_coordinate_arithmetic(q, length):
    spec = field(q)
    code = IndexCode(spec, length)
    rng = random.Random(q * 10 + length)
    N = q ** length

    def vec(x):
        return vec_from_index(q, length, x)

    def idx(v):
        return vec_index(q, v)

    minus = spec.neg(1)
    for _ in range(60):
        x, y = rng.randrange(N), rng.randrange(N)
        assert code.add(x, y) == idx(vec_add(spec, vec(x), vec(y)))
        assert code.sub(x, y) == idx(vec_add(spec, vec(x),
                                             vec_smul(spec, minus, vec(y))))
        for c in range(q):
            assert code.smul(c, x) == idx(vec_smul(spec, c, vec(x)))
    for _ in range(6):
        span = [rng.randrange(N) for _ in range(rng.randint(0, 5))]
        u = rng.randrange(N)
        assert code.shift(span, u) == [idx(vec_add(spec, vec(x), vec(u)))
                                       for x in span]
        assert code.extend(span, u) == [
            idx(vec_add(spec, vec(x), vec_smul(spec, c, vec(u))))
            for c in range(1, q) for x in span]


@pytest.mark.parametrize("q,length", INDEX_CODE_POINTS)
def test_index_code_echelon_against_subspace(q, length):
    """A span listed by IndexCode.extend, one row at a time and only for rows
    outside it, never repeats a member and holds exactly the members of the
    Subspace whose echelon basis those rows reduce to."""
    spec = field(q)
    code = IndexCode(spec, length)
    rng = random.Random(q * 10 + length)
    N = q ** length
    for _ in range(4):
        span = [0]
        rows = []
        for _ in range(rng.randint(0, length)):
            v = rng.randrange(N)
            if v not in span:
                span += code.extend(span, v)
            rows.append(vec_from_index(q, length, v))
        assert len(set(span)) == len(span)
        S = Subspace.from_vectors(spec, length, rows)
        assert set(span) == set(span_indices(code, S.rows))
        for _ in range(20):
            w = rng.randrange(N)
            assert (w in span) == S.contains(vec_from_index(q, length, w))


# --- counting formulas ------------------------------------------------------

def test_rank_census_small():
    assert count_rank_d(2, 2, 0, 2) == 1
    assert count_rank_d(2, 2, 1, 2) == 9
    assert count_rank_d(2, 2, 2, 2) == 6
    for q, spec in ((2, s2), (3, s3)):
        for n in range(1, 4):
            for m in range(1, 4):
                if q ** (n * m) > 3 ** 4:
                    continue
                census = {}
                for A in enumerate_all(spec, n, m):
                    census[rank(A)] = census.get(rank(A), 0) + 1
                for d in range(min(n, m) + 1):
                    assert count_rank_d(n, m, d, q) == census.get(d, 0)
                assert sum(census.values()) == q ** (n * m)


@pytest.mark.parametrize("q", (2, 3, 4, 5, 7, 8, 9))
def test_rank_table_and_census_match_rank_of_each_matrix(q):
    spec = field(q)
    # every shape with n * m <= 6, fewer cells at larger q
    for n, m in [(n, m) for n in range(7) for m in range(7)
                 if n * m <= 6 and q ** (n * m) <= 729]:
        table = rank_table(spec, n, m)
        assert table == tuple(rank(Mat.from_index(spec, n, m, i))
                              for i in range(q ** (n * m))), (n, m)
        assert rank_census(spec, n, m) == tuple(
            table.count(d) for d in range(min(n, m) + 1)), (n, m)


def test_gaussian_binomial_values_and_domain():
    assert gaussian_binomial(4, 2, 2) == 35
    assert gaussian_binomial(3, 1, 3) == 13
    assert gaussian_binomial(5, 0, 2) == 1
    assert gaussian_binomial(5, 5, 3) == 1
    with pytest.raises(DomainError):
        gaussian_binomial(4, 7, 2)
    with pytest.raises(DomainError):
        gaussian_binomial(4, -1, 2)


def test_gaussian_binomial_dominates_power():
    for q in (2, 3, 4, 5):
        for m in range(9):
            for d in range(m + 1):
                assert gaussian_binomial(m, d, q) >= q ** (d * (m - d))


def _subspaces_by_spanning_tuples(spec, ambient, d):
    """Every d-tuple of vectors, row reduced, kept when it spans d dims."""
    seen = {}
    for flat in itertools.product(range(spec.q), repeat=d * ambient):
        vecs = [flat[i * ambient:(i + 1) * ambient] for i in range(d)]
        S = Subspace.from_vectors(spec, ambient, vecs)
        if S.dim == d:
            seen.setdefault(S.key(), S)
    return tuple(seen[k] for k in sorted(seen))


def test_subspace_enumeration_matches_formula():
    for q in (2, 3, 4):
        spec = field(q)
        for amb in range(5):
            for d in range(amb + 1):
                subs = subspaces_of_dim(spec, amb, d)
                # canonical RREF bases, distinct, sorted, as many as there
                # are d-dimensional subspaces: so exactly all of them
                assert all(S.dim == d
                           and Subspace.from_vectors(spec, amb, S.rows) == S
                           for S in subs)
                keys = [S.key() for S in subs]
                assert keys == sorted(set(keys))
                assert len(subs) == gaussian_binomial(amb, d, q)
                if q ** (d * amb) <= 1 << 16:
                    assert [S.rows for S in subs] == [
                        S.rows for S in _subspaces_by_spanning_tuples(spec, amb, d)]
        assert subspaces_of_dim(spec, 3, -1) == subspaces_of_dim(spec, 3, 4) == ()


def test_avoiding_count_values():
    assert count_subspaces_avoiding(2, 1, 1, 2) == 2
    assert count_subspaces_avoiding(3, 1, 1, 2) == 6
    assert count_subspaces_avoiding(3, 2, 1, 3) == 9
    with pytest.raises(DomainError):
        count_subspaces_avoiding(2, 1, 2, 2)


def test_avoiding_count_against_direct_filter():
    for q, spec in ((2, s2), (3, s3)):
        for amb in range(1, 4):
            for k in range(amb + 1):
                U = Subspace.from_vectors(
                    spec, amb,
                    [tuple(1 if i == j else 0 for i in range(amb)) for j in range(k)])
                for d in range(amb - k + 1):
                    got = sum(1 for W in subspaces_of_dim(spec, amb, d)
                              if W.intersect(U).dim == 0)
                    assert got == count_subspaces_avoiding(amb, k, d, q)


def test_avoiding_count_quarter_bound():
    for q in (2, 3, 4, 5):
        for amb in range(9):
            for k in range(amb + 1):
                for d in range(amb - k + 1):
                    assert (Fraction(count_subspaces_avoiding(amb, k, d, q))
                            >= Fraction(gaussian_binomial(amb, d, q), 4))


def test_prefix_fixing_group_orders():
    assert m_qt(2, 2, 1) == 2
    assert m_qt(3, 2, 1) == 24
    assert m_qt(2, 2, 2) == 1 and m_qt(3, 3, 3) == 1
    assert gl_order(2, 2) == 6 == m_qt(2, 2, 0)
    for q, spec, nmax in ((2, s2, 4), (3, s3, 3)):
        for n in range(1, nmax + 1):
            gl = list(enumerate_gl(spec, n))
            assert len(gl) == gl_order(n, q)
            for t in range(n + 1):
                fixed = sum(
                    1 for M in gl
                    if all(M.rows[i][j] == (1 if i == j else 0)
                           for j in range(t) for i in range(n)))
                assert fixed == m_qt(n, q, t)


def test_phi_values():
    assert phi(1, 1, 0, 2) == Fraction(1, 2)
    assert phi(1, 1, 0, 3) == Fraction(2, 3)
    assert phi(2, 2, 2, 2) == Fraction(1, 16)


def _prod(factors):
    out = 1
    for f in factors:
        out *= f
    return out


def test_closed_form_counts_against_product_loops():
    # the oracles write each count as its own product over i, one factor
    # q^N - q^i at a time
    for q in (2, 3, 4, 5, 7, 8, 9, 16):
        for n in range(8):
            assert gl_order(n, q) == _prod(q ** n - q ** i for i in range(n))
            for t in range(n + 1):
                assert m_qt(n, q, t) == _prod(q ** n - q ** (i + t - 1)
                                              for i in range(1, n - t + 1))
            for k in range(n + 1):
                for d in range(n - k + 1):
                    num = _prod(q ** n - q ** (k + i - 1) for i in range(1, d + 1))
                    den = _prod(q ** d - q ** (i - 1) for i in range(1, d + 1))
                    assert num % den == 0
                    assert count_subspaces_avoiding(n, k, d, q) == num // den
            for m in range(8):
                for d in range(-1, min(n, m) + 2):
                    want = 0 if d < 0 or d > min(n, m) else (
                        gaussian_binomial(m, d, q) * gaussian_binomial(n, d, q)
                        * _prod(q ** d - q ** (i - 1) for i in range(1, d + 1)))
                    assert count_rank_d(n, m, d, q) == want
                for t in range(max(m - n, 0), m + 1):
                    num = gaussian_binomial(m, t, q) * _prod(
                        q ** n - q ** (i - 1) for i in range(1, m - t + 1))
                    assert phi(m, n, t, q) == Fraction(num, q ** (n * m))


def test_closed_form_counts_domain_errors():
    for t in (-1, 4):
        with pytest.raises(DomainError, match=f"^need 0 <= t <= n, got t={t}$"):
            m_qt(3, 2, t)
        with pytest.raises(DomainError, match=f"^need 0 <= t <= m, got t={t}$"):
            phi(3, 3, t, 2)
    with pytest.raises(DomainError, match="^rank m - t cannot exceed n$"):
        phi(4, 2, 1, 2)
    for n, k, d in ((3, 2, 2), (3, -1, 1), (3, 1, -1)):
        with pytest.raises(DomainError,
                           match=r"^need d \+ k <= n with d, k >= 0$"):
            count_subspaces_avoiding(n, k, d, 3)


# --- block reductions ------------------------------------------------------
