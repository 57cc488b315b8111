"""Families under restriction: cosets, capture search, regularity splits,
and uncaptureability from quasiregularity.  The 2x2 coset family fixing e1
is the recurring guinea pig; its behavior under every operation here was
worked out by hand."""

import hashlib
import itertools
import json
import random
import tracemalloc
from collections import Counter
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from linfam.budget import Budget
from linfam.errors import (BudgetExceeded, DomainError, DomainOverlap,
                           FieldMismatch, HypothesisUnmet,
                           InconsistentRestriction, NotQuasiregular,
                           ShapeMismatch)
from linfam.gf import field
from linfam.matspace import (Mat, Subspace, agreement_dim, enumerate_gl, rank,
                             vec_add, vec_smul, vec_sub)
from linfam.families import (Family, Junta, Restriction, _domains,
                             _frame_independent, default_regularity_eps,
                             enumerate_coset,
                             is_captureable, is_intersection_free,
                             is_quasiregular, is_strongly_t_intersecting,
                             junta_measure, leq_threshold,
                             max_density_ratio, measure_outside_junta,
                             quasiregular_implies_uncaptureable_check,
                             regularity_decompose)

s2 = field(2)

COL_E1 = Restriction(s2, 2, 2, cols=[((1, 0), (1, 0))])


def coset_family():
    # sigma(e1) = e1, second column free: four members, measure 1/4
    return Family(s2, 2, 2, enumerate_coset(COL_E1))


# --- restrictions -----------------------------------------------------------

def test_coset_cardinalities():
    empty = Restriction.empty(s2, 2, 2)
    assert empty.coset_cardinality() == 16
    assert COL_E1.coset_cardinality() == 4
    both = Restriction(s2, 2, 2, cols=[((1, 0), (1, 0))],
                       rows=[((1, 0), (1, 0))])
    assert both.coset_cardinality() == 2


def test_inconsistent_overlap_rejected():
    with pytest.raises(InconsistentRestriction):
        Restriction(s2, 2, 2, cols=[((1, 0), (1, 0))],
                    rows=[((1, 0), (0, 1))])


def test_matches_and_avoids():
    I = Mat.identity(s2, 2)
    off = Mat(s2, ((0, 1), (1, 0)), 2)
    assert COL_E1.matches(I) and not COL_E1.matches(off)
    assert COL_E1.avoids(off) and not COL_E1.avoids(I)


def test_merge_dual_translate_round_trips():
    row = Restriction(s2, 2, 2, rows=[((0, 1), (0, 1))])
    merged = COL_E1.merge(row)
    assert merged.dim_col == 1 and merged.dim_row == 1
    assert merged.complexity == 2
    assert COL_E1.dual().rows == COL_E1.cols and COL_E1.dual().cols == ()
    assert COL_E1.dual().dual() == COL_E1
    A0 = Mat(s2, ((0, 1), (0, 0)), 2)
    moved = COL_E1.translate(A0)
    assert moved.translate(A0) == COL_E1
    rt = Restriction.from_dict(s2, 2, 2, merged.to_dict())
    assert rt == merged


@settings(max_examples=60, deadline=None)
@given(st.sampled_from((2, 3, 4, 5, 7, 8, 9, 11, 16)), st.integers(1, 3),
       st.integers(1, 3), st.randoms(use_true_random=False))
def test_restriction_canonical_under_change_of_basis(q, n, m, rnd):
    # one partial map, read off a matrix, given by two bases of its domains
    spec = field(q)
    A = Mat.from_index(spec, n, m, rnd.randrange(q ** (n * m)))

    def independent(k, length):
        while True:
            vs = [tuple(rnd.randrange(q) for _ in range(length)) for _ in range(k)]
            if k == 0 or rank(Mat(spec, vs, length)) == k:
                return vs

    def recombine(pairs):
        k = len(pairs)
        G = independent(k, k)
        out = []
        for g in G:
            v, w = (0,) * len(pairs[0][0]), (0,) * len(pairs[0][1])
            for c, (x, y) in zip(g, pairs):
                v = vec_add(spec, v, vec_smul(spec, c, x))
                w = vec_add(spec, w, vec_smul(spec, c, y))
            out.append((v, w))
        rnd.shuffle(out)
        return out

    cols = [(v, A.apply(v)) for v in independent(rnd.randint(0, m), m)]
    rows = [(a, A.rapply(a)) for a in independent(rnd.randint(0, n), n)]
    R1 = Restriction(spec, n, m, cols, rows)
    R2 = Restriction(spec, n, m, recombine(cols), recombine(rows))
    assert R1 == R2 and hash(R1) == hash(R2)
    assert (R1.dim_col, R1.dim_row) == (len(cols), len(rows))
    assert R1.matches(A)


def test_restriction_entries_are_field_encodings():
    s3 = field(3)
    with pytest.raises(DomainError, match="outside 0..2"):
        Family.from_coset(Restriction(s3, 2, 2, cols=[((1, 0), (1, 5))]))
    with pytest.raises(DomainError, match="outside 0..1"):
        Restriction(s2, 2, 2, rows=[((1, 0), (-1, 0))])
    with pytest.raises(DomainError, match="outside 0..2"):
        Family.from_text("3,1,2\ncol 10 -> 5\n")
    text = json.dumps({"q": 3, "n": 2, "m": 2, "C": 1, "r": 1, "components": [
        {"cols": [[[1, 0], [1, 5]]], "rows": []}]})
    with pytest.raises(DomainError, match="outside 0..2"):
        Junta.from_json(text)


def test_enumerate_coset_budget():
    assert len(enumerate_coset(COL_E1)) == 4
    with pytest.raises(BudgetExceeded):
        enumerate_coset(Restriction.empty(s2, 2, 2), Budget(items=8))


def test_enumerate_coset_caps_members_before_building_them():
    # 7^9 ≈ 40M members is within the default item budget but not in memory
    s7 = field(7)
    with pytest.raises(BudgetExceeded, match="capped"):
        enumerate_coset(Restriction.empty(s7, 3, 3))
    with pytest.raises(BudgetExceeded):
        Family.full_space(s7, 3, 3)


# --- family bookkeeping -----------------------------------------------------

def test_full_empty_and_coset_measures():
    full = Family.full_space(s2, 2, 2)
    assert len(full) == 16 and full.measure() == 1
    assert len(Family.empty(s2, 2, 2)) == 0
    assert Family.empty(s2, 2, 2).measure() == 0
    FR = Family.from_coset(COL_E1)
    assert len(FR) == 4 and FR.measure() == 1    # conditional on its context


def test_restrict_invertible_maps():
    gl = Family(s2, 2, 2, enumerate_gl(s2, 2))
    assert len(gl) == 6 and gl.measure() == Fraction(6, 16)
    cut = gl.restrict(COL_E1)
    assert len(cut) == 2 and cut.measure() == Fraction(2, 4)


def test_restrict_avoiding():
    F = Family.full_space(s2, 1, 1)
    R0 = Restriction(s2, 1, 1, cols=[((1,), (0,))])
    G = F.restrict_avoiding(R0)
    assert [M.rows for M in G.members] == [((1,),)]
    assert G.measure() == Fraction(1, 2)
    # the empty restriction excludes nothing; a family's own constraint
    # excludes everything
    F4 = coset_family()
    assert len(F4.restrict_avoiding(Restriction.empty(s2, 2, 2))) == 4
    assert len(F4.restrict_avoiding(COL_E1)) == 0


def _avoids_by_points(spec, R, M):
    """M x != y at every nonzero point sum_i u_i (v_i, w_i) of each graph."""
    q = spec.q
    for pairs, act, dom, img in ((R.cols, M.apply, R.m, R.n),
                                 (R.rows, M.rapply, R.n, R.m)):
        for u in itertools.product(range(q), repeat=len(pairs)):
            if not any(u):
                continue
            x, y = (0,) * dom, (0,) * img
            for c, (v, w) in zip(u, pairs):
                x = vec_add(spec, x, vec_smul(spec, c, v))
                y = vec_add(spec, y, vec_smul(spec, c, w))
            if act(x) == y:
                return False
    return True


def _independent(spec, rng, dim, k):
    """k random independent vectors of F_q^dim."""
    while True:
        vs = [tuple(rng.randrange(spec.q) for _ in range(dim)) for _ in range(k)]
        if Subspace.from_vectors(spec, dim, vs).dim == k:
            return vs


@settings(max_examples=60, deadline=None)
@given(st.sampled_from((2, 3, 4, 5, 7, 8, 9)),
       st.sampled_from(((3, 3), (2, 3), (3, 2), (1, 3), (3, 1))),
       st.integers(0, 2 ** 32 - 1))
def test_avoids_against_its_definition(q, shape, seed):
    # pairs (v, A v) and (a, a^T A) of one matrix A keep both sides
    # consistent; three or more pairs on a side reach the RREF test
    spec, (n, m) = field(q), shape
    rng = random.Random(seed)

    def rand_vec(k):
        return tuple(rng.randrange(q) for _ in range(k))

    def rand_mat():
        return Mat(spec, tuple(rand_vec(m) for _ in range(n)), m)

    A = rand_mat()
    kc = rng.choice((min(3, m), rng.randrange(min(3, m) + 1)))
    kr = rng.choice((min(3, n), rng.randrange(min(3, n) + 1)))
    R = Restriction(spec, n, m,
                    cols=[(v, A.apply(v)) for v in _independent(spec, rng, m, kc)],
                    rows=[(a, A.rapply(a)) for a in _independent(spec, rng, n, kr)])
    members = [A] + [rand_mat() for _ in range(6)]
    # A plus a rank-one map meets A on a hyperplane
    for _ in range(6):
        x, y = rand_vec(m), rand_vec(n)
        members.append(A + Mat(spec, tuple(tuple(spec.mul(yi, xj) for xj in x)
                                           for yi in y), m))
    for M in members:
        assert R.avoids(M) == _avoids_by_points(spec, R, M), (R, M)
    F = Family(spec, n, m, members)
    assert set(F.restrict_avoiding(R).indices) == {
        M.index() for M in members if R.avoids(M)}


def test_translate_and_dual():
    F4 = coset_family()
    A0 = Mat(s2, ((1, 1), (0, 0)), 2)
    T = F4.translate(A0)
    assert T.measure() == F4.measure()
    assert all((M + A0) in T for M in F4.members)
    D = F4.dual()
    assert D.dual().members == F4.members
    assert {M.transpose() for M in F4.members} == set(D.members)


# q >= 7 keeps to n * m <= 2, as SEARCH_SHAPES does for the searches
RESTRICT_SHAPES = [(q, n, m) for q in (2, 3, 4, 5, 7, 8, 9)
                   for n in range(1, 5) for m in range(1, 5)
                   if n * m <= (4 if q <= 5 else 2)]


def _random_restriction(rnd, spec, n, m, ncols, nrows):
    """Random nonzero domain vectors and images, or None when they admit
    no matrix."""
    q = spec.q

    def vec(k, nonzero=False):
        v = [rnd.randrange(q) for _ in range(k)]
        if nonzero:
            v[rnd.randrange(k)] = rnd.randrange(1, q)
        return tuple(v)

    try:
        return Restriction(spec, n, m,
                           cols=[(vec(m, True), vec(n)) for _ in range(ncols)],
                           rows=[(vec(n, True), vec(m)) for _ in range(nrows)])
    except InconsistentRestriction:
        return None


@settings(max_examples=80, deadline=None)
@given(st.sampled_from(RESTRICT_SHAPES), st.booleans(),
       st.randoms(use_true_random=False))
def test_restrict_and_junta_residue_match_member_checks(shape, context, rnd):
    q, n, m = shape
    spec = field(q)
    ctx = (_random_restriction(rnd, spec, n, m, 1, 0) if context
           else Restriction.empty(spec, n, m))
    density = rnd.random()
    F = Family(spec, n, m, [M for M in enumerate_coset(ctx)
                            if rnd.random() < density], ctx)

    def cut(G, R):
        try:
            sub = G.restrict(R)
        except (DomainOverlap, InconsistentRestriction):
            # R's domain meets the context, or R contradicts it
            return None
        assert sub.members == {M for M in G.members if R.matches(M)}
        assert sub.context == G.context.merge(R)
        return sub

    for ncols, nrows in ((0, 0), (1, 0), (0, 1), (2, 0), (0, 2), (1, 1)):
        R = _random_restriction(rnd, spec, n, m, ncols, nrows)
        sub = cut(F, R) if R is not None else None
        if sub is not None:
            R2 = _random_restriction(rnd, spec, n, m, *rnd.choice(((1, 0), (0, 1))))
            if R2 is not None:
                cut(sub, R2)
    juntas = [regularity_decompose(F, r, 1)[0] for r in (1, 2)]
    for _ in range(3):
        comps = [R for R in (_random_restriction(rnd, spec, n, m,
                                                 *rnd.choice(((1, 0), (0, 1), (1, 1))))
                             for _ in range(rnd.randrange(4))) if R is not None]
        juntas.append(Junta(spec, n, m, comps, max(1, len(comps)),
                            max((R.complexity for R in comps), default=0)))
    card = F.context.coset_cardinality()
    for J in juntas:
        outside = sum(1 for M in F.members if not J.contains(M))
        assert measure_outside_junta(F, J) == Fraction(outside, card)


def test_family_text_round_trip():
    F4 = coset_family()
    back4 = Family.from_text(F4.to_text())
    assert back4.members == F4.members
    assert back4 == F4 and hash(back4) == hash(F4)
    FR = Family.from_coset(COL_E1)
    back = Family.from_text(FR.to_text())
    assert back.context == FR.context and back.members == FR.members
    assert back == FR and back != F4
    assert len(Family.from_text("2,2,2\n")) == 0


@pytest.mark.parametrize("q", [11, 13, 16])
def test_family_text_round_trip_two_digit_entries(q):
    # entries of 10 and above need the comma-separated vector form
    spec = field(q)
    for R in (Restriction(spec, 2, 2, cols=[((1, 10), (q - 1, 8))]),
              Restriction(spec, 2, 2, rows=[((q - 2, 1), (10, q - 3))]),
              Restriction(spec, 2, 1, cols=[((10,), (1, q - 1))])):
        F = Family.from_coset(R)
        back = Family.from_text(F.to_text())
        assert back.context == F.context and back.members == F.members
        assert back == F


PROPERTY_SHAPES = [(q, n, m) for q in (2, 3, 4, 5, 7, 8, 9, 11, 16)
                   for n in range(1, 4) for m in range(1, 4)
                   if q ** (n * m) <= 256]


@st.composite
def families(draw):
    """Random members of a random coset: no context, one column or one row."""
    q, n, m = draw(st.sampled_from(PROPERTY_SHAPES))
    kind = draw(st.sampled_from(("none", "col", "row")))
    rnd = random.Random(draw(st.integers(0, 2 ** 32)))
    spec = field(q)

    def vec(k, nonzero=False):
        v = [rnd.randrange(q) for _ in range(k)]
        if nonzero:
            v[rnd.randrange(k)] = rnd.randrange(1, q)
        return tuple(v)

    R = {"none": Restriction.empty(spec, n, m),
         "col": Restriction(spec, n, m, cols=[(vec(m, True), vec(n))]),
         "row": Restriction(spec, n, m, rows=[(vec(n, True), vec(m))])}[kind]
    coset = list(enumerate_coset(R))
    return Family(spec, n, m, rnd.sample(coset, rnd.randrange(len(coset) + 1)), R)


@settings(max_examples=40, deadline=None)
@given(families(), st.integers(0, 2 ** 32))
def test_family_text_round_trip_over_fields(F, seed):
    back = Family.from_text(F.to_text())
    assert ((back.field, back.n, back.m, back.context, back.members)
            == (F.field, F.n, F.m, F.context, F.members))
    assert back == F and hash(back) == hash(F)
    # dual and translate against per-Mat transposes and differences
    D = F.dual()
    assert D.members == {M.transpose() for M in F.members} and D.dual() == F
    A0 = Mat.from_index(F.field, F.n, F.m, seed % F.field.q ** (F.n * F.m))
    T = F.translate(A0)
    assert T.members == {M - A0 for M in F.members}
    assert T.context == F.context.translate(A0) and T.translate(-A0) == F


def test_family_text_one_vector_rule():
    # a comma separates entries in context vectors as in member rows, at any q
    plain = Family.from_text("2,2,2\ncol 10 -> 01\nq=2;n=2;m=2;rows=00;11\n")
    commas = Family.from_text("2,2,2\ncol 1,0 -> 0,1\nq=2;n=2;m=2;rows=0,0;1,1\n")
    assert commas == plain and len(plain) == 1
    assert plain.context == Restriction(s2, 2, 2, cols=[((1, 0), (0, 1))])
    assert commas.to_text() == plain.to_text()
    # a member head in another key order takes the general literal parser
    assert Family.from_text("2,2,2\nq=2;m=2;n=2;rows=0,0;1,1\n").indices == plain.indices


@pytest.mark.parametrize("text", ["2,2\n", "x,2,2\n"])
def test_malformed_family_header(text):
    with pytest.raises(DomainError, match="malformed family file"):
        Family.from_text(text)


def test_family_edge_input():
    s3 = field(3)
    with pytest.raises(FieldMismatch):
        Family(s2, 2, 2, [Mat.zero(s3, 2, 2)])
    with pytest.raises(ShapeMismatch):
        Family(s2, 2, 2, [Mat.zero(s2, 2, 3)])
    with pytest.raises(InconsistentRestriction):
        Family(s2, 2, 2, [Mat.zero(s2, 2, 2)], COL_E1)
    with pytest.raises(DomainError):
        Family.from_text("2,2,2\nq=2;n=2;m=2;rows=10;02\n")
    # a member line of another shape or field keeps its error type
    with pytest.raises(ShapeMismatch):
        Family.from_text("2,2,2\nq=2;n=2;m=3;rows=100;010\n")
    with pytest.raises(FieldMismatch):
        Family.from_text("2,2,2\nq=3;n=2;m=2;rows=10;01\n", s2)
    twice = Family.from_text("2,2,2\nq=2;n=2;m=2;rows=10;01\nq=2;n=2;m=2;rows=10;01\n")
    assert len(twice) == 1 and twice.measure() == Fraction(1, 16)
    # membership checks field and shape, not only the entries' index
    full = Family.full_space(s2, 2, 2)
    assert Mat.zero(s2, 1, 4) not in full
    assert Mat.zero(s3, 2, 2) not in full and Mat.zero(s2, 2, 2) in full
    for F in (full, coset_family()):
        with pytest.raises(FieldMismatch):
            F.translate(Mat.zero(s3, 2, 2))
        with pytest.raises(ShapeMismatch):
            F.translate(Mat.zero(s2, 2, 3))


# --- intersection testers ---------------------------------------------------

def test_pairwise_agreement_testers():
    I = Mat.identity(s2, 2)
    U = Mat(s2, ((1, 1), (0, 1)), 2)     # agrees with I exactly on <e1>
    pair = Family(s2, 2, 2, [I, U])
    assert is_intersection_free(pair, 0)[0]
    assert not is_intersection_free(pair, 1)[0]


INTERSECTION_SHAPES = [(q, n, m) for q in (2, 3, 4, 5, 7, 8, 9)
                       for n in range(1, 4) for m in range(1, 4)
                       if n * m <= (6 if q <= 3 else 4 if q <= 5 else 2)]


@settings(max_examples=80, deadline=None)
@given(st.sampled_from(INTERSECTION_SHAPES), st.integers(0, 3),
       st.randoms(use_true_random=False))
def test_intersection_free_matches_pair_scan(shape, t_minus_1, rnd):
    q, n, m = shape
    spec = field(q)
    size = q ** (n * m)
    mem = [Mat.from_index(spec, n, m, i)
           for i in sorted(rnd.sample(range(size), min(size, rnd.randrange(2, 12))))]
    want = next(((A, B) for i, A in enumerate(mem) for B in mem[i + 1:]
                 if agreement_dim(A, B) == t_minus_1), None)
    assert is_intersection_free(Family(spec, n, m, mem), t_minus_1) == (want is None, want)



def test_intersection_free_builds_no_tables():
    # two maps that differ in one entry agree on m - 1 dimensions; a pair
    # difference table would hold about q^(2 ceil(m/2)) entries here
    for q, m in ((5, 8), (2, 20)):
        pair = Family(field(q), 1, m, [0, 1])
        tracemalloc.start()
        try:
            ok, wit = is_intersection_free(pair, m - 1)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert not ok and [M.index() for M in wit] == [0, 1]
        assert is_intersection_free(pair, m - 2) == (True, None)
        assert peak < 2 ** 20, (q, m, peak)

# --- capture search ---------------------------------------------------------

def test_capture_search_small_cases():
    full = Family.full_space(s2, 2, 2)
    assert is_captureable(full, 1, Fraction(1, 2)) is None
    # a lax threshold lets the trivial zero-dimensional capture through
    triv = is_captureable(full, 1, Fraction(1))
    assert triv is not None and triv.complexity == 0
    got = is_captureable(Family.empty(s2, 2, 2), 1, Fraction(0))
    assert got is not None and got.complexity == 0


def test_coset_family_captured_by_its_own_constraint():
    wit = is_captureable(coset_family(), 1, Fraction(0))
    assert wit == COL_E1
    assert len(coset_family().restrict_avoiding(wit)) == 0


def test_quasiregularity_witnesses():
    full = Family.full_space(s2, 2, 2)
    assert is_quasiregular(full, 1, Fraction(2)) is None
    F4 = coset_family()
    assert is_quasiregular(F4, 1, Fraction(2)) == COL_E1
    assert is_quasiregular(F4, 1, Fraction(4)) is None
    ratio, wit = max_density_ratio(F4, 1)
    assert ratio == 4 and wit == COL_E1


def _captureable_by_scan(F, s, eps):
    """The candidate scan is_captureable ran before it counted avoiders:
    every image tuple of every domain basis, each member bucket's
    difference frames tested for independence."""
    spec, n, m = F.field, F.n, F.m
    card = F.context.coset_cardinality()
    lo, hi = 0, card
    while lo < hi:
        mid = (lo + hi + 1) // 2
        if leq_threshold(Fraction(mid, card), eps):
            lo = mid
        else:
            hi = mid - 1
    max_avoid = lo
    wvecs = list(itertools.product(range(spec.q), repeat=n))
    bvecs = list(itertools.product(range(spec.q), repeat=m))
    for colbasis, rowbasis in _domains(spec, m, n, s, F.context):
        items = sorted(Counter((tuple(M.apply(v) for v in colbasis),
                                tuple(M.rapply(a) for a in rowbasis))
                               for M in F.members).items())
        for ws in itertools.product(wvecs, repeat=len(colbasis)):
            for bs in itertools.product(bvecs, repeat=len(rowbasis)):
                avoid = 0
                for (us, vs), cnt in items:
                    if (_frame_independent(spec, [vec_sub(spec, u, w)
                                                  for u, w in zip(us, ws)])
                            and _frame_independent(spec, [vec_sub(spec, v, b)
                                                          for v, b in zip(vs, bs)])):
                        avoid += cnt
                        if avoid > max_avoid:
                            break
                if avoid <= max_avoid:
                    try:
                        return Restriction(spec, n, m, cols=list(zip(colbasis, ws)),
                                           rows=list(zip(rowbasis, bs)))
                    except InconsistentRestriction:
                        continue
    return None


def _densities_by_scan(F, s):
    """(witness, conditional density) of every refinement of complexity <= s,
    in lexicographic order, by direct bucketing of the members."""
    spec, n, m = F.field, F.n, F.m
    dc, dr = F.context.dim_col, F.context.dim_row
    for colbasis, rowbasis in _domains(spec, m, n, s, F.context):
        sub_card = spec.q ** ((m - dc - len(colbasis)) * (n - dr - len(rowbasis)))
        buckets = {}
        for M in F.members:
            key = (tuple(M.apply(v) for v in colbasis),
                   tuple(M.rapply(a) for a in rowbasis))
            buckets[key] = buckets.get(key, 0) + 1
        for us, vs in sorted(buckets):
            yield (Restriction(spec, n, m, cols=list(zip(colbasis, us)),
                               rows=list(zip(rowbasis, vs))),
                   Fraction(buckets[(us, vs)], sub_card))


# at q >= 7 the scan oracles keep to n * m <= 2: on 1 x 3 and 3 x 1 at s = 2
# the capture scan tries q^4 image pairs per mixed domain and ran past a
# minute on uniform families
SEARCH_SHAPES = [(q, n, m) for q in (2, 3, 4, 5, 7, 8, 9)
                 for n in range(1, 4) for m in range(1, 4)
                 if q ** (n * m) <= 1024 and (q <= 5 or n * m <= 2)]


@st.composite
def search_families(draw):
    """Uniform or planted members of a coset with no context or one column
    constraint; planted members agree somewhere with a random restriction
    of complexity <= 2, plus some noise or none."""
    q, n, m = draw(st.sampled_from(SEARCH_SHAPES))
    rnd = draw(st.randoms(use_true_random=False))
    spec = field(q)

    def vec(k, nonzero=False):
        v = [rnd.randrange(q) for _ in range(k)]
        if nonzero:
            v[rnd.randrange(k)] = rnd.randrange(1, q)
        return tuple(v)

    ctx = Restriction.empty(spec, n, m)
    if m >= 2 and draw(st.booleans()):
        ctx = Restriction(spec, n, m, cols=[(vec(m, True), vec(n))])
    coset = enumerate_coset(ctx)
    ncols, nrows = draw(st.sampled_from(((0, 0), (1, 0), (0, 1), (2, 0),
                                         (1, 1), (0, 2))))
    if ncols > m or nrows > n:
        ncols, nrows = 0, 0
    if ncols + nrows == 0:
        members = [M for M in coset if rnd.random() < 0.5]
    else:
        A = coset[rnd.randrange(len(coset))]
        vs = Subspace.from_vectors(spec, m, [vec(m, True) for _ in range(ncols)]).rows
        As = Subspace.from_vectors(spec, n, [vec(n, True) for _ in range(nrows)]).rows
        plant = Restriction(spec, n, m, cols=[(v, A.apply(v)) for v in vs],
                            rows=[(a, A.rapply(a)) for a in As])
        noise = draw(st.sampled_from((0, 0.05)))
        members = [M for M in coset if not plant.avoids(M) or rnd.random() < noise]
    return Family(spec, n, m, members, ctx)


@settings(max_examples=150, deadline=None)
@given(search_families(), st.sampled_from((1, 2)),
       st.sampled_from(("0", "1/q^2", "1/4", "1/2", "default")))
def test_capture_search_matches_candidate_scan(F, s, eps_name):
    q = F.field.q
    eps = {"0": Fraction(0), "1/q^2": Fraction(1, q * q), "1/4": Fraction(1, 4),
           "1/2": Fraction(1, 2),
           "default": default_regularity_eps(q, F.m, F.n, 1)}[eps_name]
    got = is_captureable(F, s, eps)
    assert got == _captureable_by_scan(F, s, eps)
    if got is not None:
        avoid = F.restrict_avoiding(got).measure()
        assert leq_threshold(avoid, eps)


@settings(max_examples=40, deadline=None)
@given(search_families(), st.sampled_from((1, 2)))
def test_density_searches_match_recount(F, s):
    mu = F.measure()
    if mu == 0:
        return
    scan = list(_densities_by_scan(F, s))
    top = max(d for _, d in scan)
    first = next(R for R, d in scan if d == top)
    ratio, wit = max_density_ratio(F, s)
    assert (ratio, wit) == (top / mu, first)
    assert F.restrict(wit).measure() == ratio * mu
    for alpha in (Fraction(1), (1 + ratio) / 2, ratio):
        expect = next((R for R, d in scan if d > alpha * mu), None)
        assert is_quasiregular(F, s, alpha) == expect


def _pinned_family(q, n, m, context, seed):
    """A seeded family: the members of the coset (the whole space, or one
    with sigma(v) = w for a random v, w) that agree with a random
    restriction of complexity 2 somewhere, plus a quarter of the rest."""
    spec = field(q)
    rnd = random.Random(seed)

    def vec(k):
        v = [rnd.randrange(q) for _ in range(k)]
        v[rnd.randrange(k)] = rnd.randrange(1, q)
        return tuple(v)

    ctx = (Restriction(spec, n, m, cols=[(vec(m), vec(n))]) if context
           else Restriction.empty(spec, n, m))
    coset = enumerate_coset(ctx)
    A = rnd.choice(coset)
    v, a = vec(m), vec(n)
    plant = Restriction(spec, n, m, cols=[(v, A.apply(v))],
                        rows=[(a, A.rapply(a))])
    return Family(spec, n, m, [M for M in coset
                               if not plant.avoids(M) or rnd.random() < 0.25],
                  ctx)


# sha256 of the reprs of (max_density_ratio(F, s), is_quasiregular(F, s, 2),
# is_captureable(F, s, default eps)) over the families below and s = 1, 2:
# pins the witnesses the image tables lead each search to
SEARCH_PIN = "dde6fc0b0d8080878d61f62c8e1c1e8fe22a73d869b3cce26005256c686241d4"


def test_search_outputs_pinned():
    out = []
    for q, n, m, context, seed in [(2, 3, 3, False, 0), (2, 2, 3, True, 1),
                                   (3, 2, 3, False, 2), (3, 2, 2, True, 3),
                                   (4, 2, 2, False, 4), (4, 2, 2, True, 5),
                                   (5, 2, 2, False, 6), (5, 1, 3, True, 7)]:
        F = _pinned_family(q, n, m, context, seed)
        eps = default_regularity_eps(q, m, n, 1)
        for s in (1, 2):
            out.append(repr((max_density_ratio(F, s),
                             is_quasiregular(F, s, Fraction(2)),
                             is_captureable(F, s, eps))))
    text = "\n".join(out)
    assert hashlib.sha256(text.encode()).hexdigest() == SEARCH_PIN, text


def test_capture_search_finds_mixed_plants():
    # exact (1, 1) plants with no noise are captured at eps = 0, often first
    # by a mixed column/row candidate; the random families above rarely are
    rnd = random.Random(3)
    shapes = Counter()
    for q, n, m in [(2, 2, 2), (2, 2, 3), (2, 3, 2), (2, 3, 3), (3, 2, 2),
                    (3, 2, 3)] * 4:
        spec = field(q)
        coset = enumerate_coset(Restriction.empty(spec, n, m))
        A = rnd.choice(coset)
        v = tuple(rnd.randrange(q) for _ in range(m))
        v = v if any(v) else (1,) + v[1:]
        a = (0,) * (n - 1) + (1,)
        plant = Restriction(spec, n, m, cols=[(v, A.apply(v))],
                            rows=[(a, A.rapply(a))])
        F = Family(spec, n, m, [M for M in coset if not plant.avoids(M)])
        got = is_captureable(F, 2, Fraction(0))
        assert got == _captureable_by_scan(F, 2, Fraction(0))
        assert got is not None and len(F.restrict_avoiding(got)) == 0
        shapes[(got.dim_col, got.dim_row)] += 1
    assert shapes[(1, 1)] >= 5, shapes


def test_searches_check_the_budget():
    F = coset_family()
    with pytest.raises(BudgetExceeded, match="^capture search exceeded 0s "
                       "time budget after 0 domains$"):
        is_captureable(F, 1, Fraction(0), Budget(seconds=0))
    with pytest.raises(BudgetExceeded, match="^density scan exceeded 0s "
                       "time budget after 0 domains$"):
        max_density_ratio(F, 1, Budget(seconds=0))
    with pytest.raises(BudgetExceeded, match="^density scan exceeded"):
        is_quasiregular(F, 1, Fraction(2), Budget(seconds=0))
    with pytest.raises(BudgetExceeded, match="^regularity decomposition "
                       "exceeded 0s time budget after 1 nodes$"):
        regularity_decompose(F, 2, 1, budget=Budget(seconds=0))

    class Ledger(Budget):
        def check_clock(self, what="operation", done=""):
            self.seen.append((what, done))

    b = Ledger()
    b.seen = []
    regularity_decompose(F, 2, 1, eps=Fraction(1, 16), budget=b)
    assert ("capture search", "0 domains") in b.seen


def test_uncapturability_from_quasiregularity():
    full = Family.full_space(s2, 3, 3)
    rep = quasiregular_implies_uncaptureable_check(
        full, 0, 1, Fraction(1), Fraction(1))
    assert rep["holds"] and rep["witness"] is None
    assert rep["mu"] == 1 and rep["beta_cap"] == 2

    with pytest.raises(HypothesisUnmet):
        quasiregular_implies_uncaptureable_check(
            full, 0, 1, Fraction(1), Fraction(2))     # beta not under the cap
    with pytest.raises(HypothesisUnmet):
        quasiregular_implies_uncaptureable_check(
            full, 0, 1, Fraction(2), Fraction(1))     # measure floor too high
    with pytest.raises(NotQuasiregular):
        quasiregular_implies_uncaptureable_check(
            coset_family(), 0, 1, Fraction(1, 4), Fraction(2))
    with pytest.raises(HypothesisUnmet):
        quasiregular_implies_uncaptureable_check(
            Family.from_coset(COL_E1), 0, 1, Fraction(1), Fraction(1))


# --- regularity decomposition -----------------------------------------------

def test_decompose_full_space():
    full = Family.full_space(s2, 2, 2)
    J, log = regularity_decompose(full, 1, 1)
    assert len(J.components) == 1 and J.components[0].complexity == 0
    assert [nd.status for nd in log.nodes] == ["good"]
    assert measure_outside_junta(full, J) == 0


def test_decompose_coset_family():
    F4 = coset_family()
    J, log = regularity_decompose(F4, 2, 1, eps=Fraction(1, 16))
    assert len(J.components) == 1
    assert J.components[0] == COL_E1
    assert (J.C, J.r) == (1, 2)
    assert [nd.status for nd in log.nodes] == ["internal", "good"]
    assert measure_outside_junta(F4, J) == 0
    doc = log.to_json()
    assert '"status": "good"' in doc


def test_decompose_empty_family():
    empty = Family.empty(s2, 2, 2)
    J, log = regularity_decompose(empty, 1, 1)
    assert len(J.components) == 0
    assert [nd.status for nd in log.nodes] == ["internal"]
    assert measure_outside_junta(empty, J) == 0


def test_decompose_skips_inconsistent_mixed_candidates():
    # a uniform-looking family inside the coset sigma(e1) = e1 of 2x3 maps:
    # at s = 2 the capture search meets mixed column/row candidates whose
    # constraints disagree; they admit no matrix and must be skipped
    ctx = Restriction(s2, 2, 3, cols=[((1, 0, 0), (1, 0))])
    members = [Mat.from_index(s2, 2, 3, i)
               for i in (32, 35, 40, 41, 48, 49, 51, 57, 58)]
    F = Family(s2, 2, 3, members, ctx)
    J, log = regularity_decompose(F, 2, 2)
    assert all(nd.capture is not None for nd in log.nodes
               if nd.status == "internal")
    assert log.nodes[0].status == "internal"
    assert measure_outside_junta(F, J) == F.measure()


def _point_tree(F, r, s, eps):
    """The capture tree with one child per nonzero point of a capture's
    graph, q - 1 of them per line: (nodes, good leaves), each node a list
    [parent, depth, status, restriction, capture, children] in creation
    order, children in ascending order of the point."""
    spec, n, m = F.field, F.n, F.m

    def combine(u, vecs):
        out = (0,) * len(vecs[0])
        for c, v in zip(u, vecs):
            out = vec_add(spec, out, vec_smul(spec, c, v))
        return out

    nodes = [[None, 0, "open", Restriction.empty(spec, n, m), None, []]]
    stack, good = [0], []
    while stack:
        nid = stack.pop()
        node = nodes[nid]
        _, depth, _, R, _, children = node
        if depth >= r:
            node[2] = "bad"
            continue
        wit = is_captureable(F.restrict(R) if R.complexity else F, s, eps)
        if wit is None:
            node[2] = "good"
            good.append(F.context.merge(R))
            continue
        node[2], node[4] = "internal", wit
        for side, pairs in (("cols", wit.cols), ("rows", wit.rows)):
            vs, ws = [v for v, _ in pairs], [w for _, w in pairs]
            points = sorted((combine(u, vs), combine(u, ws)) for u in
                            itertools.product(range(spec.q), repeat=len(pairs))
                            if any(u))
            for point in points:
                try:
                    child = R.merge(Restriction(spec, n, m, **{side: [point]}))
                except InconsistentRestriction:
                    continue
                children.append(len(nodes))
                stack.append(len(nodes))
                nodes.append([nid, depth + 1, "open", child, None, []])
    return nodes, good


# one shape or two per field, q >= 7 keeping to n * m <= 2
POINT_TREE_SHAPES = [(2, 2, 3), (2, 3, 3), (3, 2, 2), (3, 2, 3), (4, 2, 2),
                     (5, 2, 2), (7, 1, 2), (8, 2, 1), (9, 1, 2)]


def test_decompose_matches_the_tree_over_every_graph_point():
    # the q - 1 points of a line pin one restriction, so their subtrees are
    # equal: the decomposition keeps the point tree's distinct good leaves
    # and residue, and at q = 2, where a line is one point, its whole log
    repeats = 0
    for q, n, m in POINT_TREE_SHAPES:
        for context, s in itertools.product((False, True), (1, 2)):
            F = _pinned_family(q, n, m, context, q)
            for eps in (default_regularity_eps(q, m, n, 2), Fraction(1, q * q)):
                nodes, good = _point_tree(F, 2, s, eps)
                J, log = regularity_decompose(F, 2, s, eps)
                assert set(J.components) == set(good)
                C = max(1, len(good))
                assert (measure_outside_junta(F, J)
                        == measure_outside_junta(F, Junta(F.field, n, m, good, C, 2)))
                if q == 2:
                    assert [[nd.parent, nd.depth, nd.status, nd.restriction,
                             nd.capture, nd.children] for nd in log.nodes] == nodes
                else:
                    repeats += len(good) - len(set(good))
    assert repeats > 0    # the point tree repeats good leaves at q >= 3


def test_decompose_opens_one_child_per_line():
    # a capture with k pairs on one side opens at most (q^k - 1)/(q - 1)
    # children there, no two with one restriction, so no leaf repeats
    for q, n, m in POINT_TREE_SHAPES:
        if q == 2:
            continue
        for context, s in itertools.product((False, True), (1, 2)):
            F = _pinned_family(q, n, m, context, q)
            for eps in (default_regularity_eps(q, m, n, 2), Fraction(1, q * q)):
                J, log = regularity_decompose(F, 2, s, eps)
                assert len(set(J.components)) == len(J.components)
                for nd in log.nodes:
                    kids = [log.nodes[c].restriction for c in nd.children]
                    assert len(set(kids)) == len(kids)
                    if nd.capture is not None:
                        lines = sum((q ** k - 1) // (q - 1) for k in
                                    (nd.capture.dim_col, nd.capture.dim_row))
                        assert len(kids) <= lines


def test_decompose_parameter_domain():
    with pytest.raises(DomainError):
        regularity_decompose(Family.full_space(s2, 2, 2), 0, 1)


def test_default_threshold_comparisons():
    eps = default_regularity_eps(2, 2, 2, 1)
    assert "2^(-7/4)" in eps.describe()
    assert leq_threshold(Fraction(1, 4), eps)
    assert not leq_threshold(Fraction(1, 2), eps)


# --- juntas -----------------------------------------------------------------

def test_junta_measures():
    assert junta_measure(Junta(s2, 2, 2, [], 1, 0)) == 0
    assert junta_measure(Junta(s2, 2, 2, [COL_E1], 1, 1)) == Fraction(1, 4)
    zero_col = Restriction(s2, 2, 2, cols=[((1, 0), (0, 0))])
    disjoint = Junta(s2, 2, 2, [COL_E1, zero_col], 2, 1)
    assert junta_measure(disjoint) == Fraction(1, 2)
    e2_col = Restriction(s2, 2, 2, cols=[((0, 1), (0, 1))])
    overlapping = Junta(s2, 2, 2, [COL_E1, e2_col], 2, 1)
    assert junta_measure(overlapping) == Fraction(7, 16)
    # past 12 components the measure is the union of the coset listings
    s3 = field(3)
    many = [Restriction(s3, 2, 3, cols=[(v, w)])
            for v in ((1, 0, 0), (0, 1, 0), (1, 1, 2)) for w in ((0, 0), (1, 2))]
    many += [Restriction(s3, 2, 3, rows=[(a, b)])
             for a in ((1, 0), (1, 1)) for b in ((0, 0, 1), (2, 1, 0), (1, 1, 1))]
    many.append(Restriction(s3, 2, 3, cols=[((0, 0, 1), (2, 2))]))
    J = Junta(s3, 2, 3, many, len(many), 1)
    inside = sum(J.contains(Mat.from_index(s3, 2, 3, i)) for i in range(3 ** 6))
    assert len(many) == 13 and junta_measure(J) == Fraction(inside, 3 ** 6)
    # components past the coset cap: M e_k = 1 on 13 distinct columns of
    # 1 x 18 maps over F_2, 2^17 members each, independent events of
    # probability 1/2
    e = lambda k: tuple(int(j == k) for j in range(18))
    comps = [Restriction(s2, 1, 18, cols=[(e(k), (1,))]) for k in range(13)]
    J = Junta(s2, 1, 18, comps, 13, 1)
    assert comps[0].coset_cardinality() == 2 ** 17
    assert junta_measure(J) == 1 - Fraction(1, 2 ** 13)
    with pytest.raises(BudgetExceeded):
        junta_measure(J, Budget(items=2 ** 17))


def test_junta_declared_bounds_enforced():
    with pytest.raises(DomainError):
        Junta(s2, 2, 2, [COL_E1, COL_E1.dual()], 1, 1)   # C too small
    with pytest.raises(DomainError):
        Junta(s2, 2, 2, [COL_E1], 1, 0)                  # complexity over r


@pytest.mark.parametrize("text", [
    "{}", "not json", "[]", '{"q": 2, "n": 2}',
    '{"q": 2, "n": 2, "m": 2, "C": 1, "r": 1, "components": [5]}',
    '{"q": 2, "n": 2, "m": 2, "C": 1, "r": 1, "components": [{"cols": [[1]]}]}'])
def test_malformed_junta_file(text):
    with pytest.raises(DomainError, match="^malformed junta file: "):
        Junta.from_json(text)


def test_junta_json_and_membership():
    e2_col = Restriction(s2, 2, 2, cols=[((0, 1), (0, 1))])
    J = Junta(s2, 2, 2, [COL_E1, e2_col], 2, 1)
    text = J.to_json()
    back = Junta.from_json(text)
    assert back.components == J.components and (back.C, back.r) == (2, 1)
    assert back.to_json() == text and json.loads(text)["q"] == 2
    with pytest.raises(FieldMismatch):
        Junta.from_json(text, field(3))
    assert J.contains(Mat.identity(s2, 2))
    assert not J.contains(Mat.zero(s2, 2, 2))
    assert J.dual().components[0] == COL_E1.dual()


def test_junta_residue_rejects_other_spaces():
    F = Family.full_space(s2, 2, 3)
    s3 = field(3)
    # over F_3 these once read as a silent 3/4 and an IndexError
    for comp in (Restriction(s3, 2, 3, cols=[((1, 0, 0), (1, 0))]),
                 Restriction(s3, 2, 3, rows=[((1, 2), (0, 0, 1))])):
        with pytest.raises(FieldMismatch):
            measure_outside_junta(F, Junta(s3, 2, 3, [comp], 1, 1))
    for comp in (Restriction(s2, 3, 2, cols=[((1, 0), (1, 0, 0))]),
                 Restriction(s2, 3, 2, rows=[((1, 0, 0), (1, 0))])):
        with pytest.raises(ShapeMismatch, match="junta shape"):
            measure_outside_junta(F, Junta(s2, 3, 2, [comp], 1, 1))


def test_restriction_and_junta_reject_other_spaces():
    s3, s5 = field(3), field(5)
    R = Restriction(s3, 2, 2, cols=[((1, 0), (1, 2))])
    J = Junta(s3, 2, 2, [R], 1, 1)
    F = Family.from_coset(R)
    # the F_5 matrix once matched R, and a 3x2 one neither matched nor avoided it
    for M, err in ((Mat(s5, ((1, 0), (2, 4)), 2), FieldMismatch),
                   (Mat(s3, ((1, 0), (2, 1), (0, 0)), 2), ShapeMismatch)):
        for check in (R.matches, R.avoids, R.translate, J.contains,
                      Junta(s3, 2, 2, [], 1, 1).contains, F.translate):
            with pytest.raises(err):
                check(M)
        assert M not in F


def test_strong_intersection_over_components():
    single = Junta(s2, 2, 2, [COL_E1], 1, 1)
    assert is_strongly_t_intersecting(single, 1) == (True, None)
    assert is_strongly_t_intersecting(single, 2) == (False, (0, 0))
    refined = Restriction(s2, 2, 2,
                          cols=[((1, 0), (1, 0)), ((0, 1), (0, 1))])
    shared = Junta(s2, 2, 2, [COL_E1, refined], 2, 2)
    assert is_strongly_t_intersecting(shared, 1) == (True, None)
    e2_col = Restriction(s2, 2, 2, cols=[((0, 1), (0, 1))])
    disjoint = Junta(s2, 2, 2, [COL_E1, e2_col], 2, 1)
    assert is_strongly_t_intersecting(disjoint, 1) == (False, (0, 1))


def graph_points(spec, pairs, dom_len, img_len):
    """Every point of the span of the (v, w) rows of one side's pairs."""
    pts = {(0,) * (dom_len + img_len)}
    for v, w in pairs:
        row = tuple(v) + tuple(w)
        pts |= {tuple(spec.add(x, spec.mul(c, y)) for x, y in zip(p, row))
                for p in pts for c in range(1, spec.q)}
    return pts


def strong_oracle(J, t):
    """The first pair i <= j whose graphs meet in fewer than q^t points on
    both sides, by listing the points; (True, None) if there is none."""
    q = J.field.q
    for i, j in itertools.combinations_with_replacement(range(len(J.components)), 2):
        dims = []
        for side, dom, img in (("cols", J.m, J.n), ("rows", J.n, J.m)):
            common = len(graph_points(J.field, getattr(J.components[i], side), dom, img)
                         & graph_points(J.field, getattr(J.components[j], side), dom, img))
            d = 0
            while q ** d < common:
                d += 1
            dims.append(d)
        if max(dims) < t:
            return False, (i, j)
    return True, None


@pytest.mark.parametrize("q", [2, 3, 4])
def test_strong_intersection_against_graph_points(q):
    spec = field(q)
    rng = random.Random(q)
    seen = set()
    for _ in range(60):
        n, m = rng.randint(1, 3), rng.randint(1, 3)
        # draw from a few vectors, so that components share constraints
        pool = [tuple(rng.randrange(q) for _ in range(max(n, m)))
                for _ in range(3)]
        comps, count = [], rng.randint(1, 3)
        while len(comps) < count:
            cols = [(rng.choice(pool)[:m], rng.choice(pool)[:n])
                    for _ in range(rng.randint(0, min(m, 2)))]
            rows = [(rng.choice(pool)[:n], rng.choice(pool)[:m])
                    for _ in range(rng.randint(0, min(n, 2)))]
            try:
                comps.append(Restriction(spec, n, m, cols=cols, rows=rows))
            except InconsistentRestriction:
                continue
        J = Junta(spec, n, m, comps, len(comps), max(R.complexity for R in comps))
        for t in range(1, max(n, m) + 1):
            got = is_strongly_t_intersecting(J, t)
            assert got == strong_oracle(J, t), (J, t)
            seen.add(got[0])
    assert seen == {True, False}
