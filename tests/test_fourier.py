"""Transforms on matrix space: characters, rank levels, projections, and the
moment inequalities, all in exact arithmetic."""

import hashlib
import random
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from linfam.budget import Budget
from linfam.cyclo import Cyc
from linfam.errors import (BudgetExceeded, DomainError, FieldMismatch,
                           NotInKernelRelation, RankNotOne, ShapeMismatch,
                           ZeroFunction)
from linfam.gf import field
from linfam.matspace import (Mat, Subspace, count_rank_d, image, kernel,
                              subspaces_of_dim)
from linfam.families import (Family, QPow, Restriction, coset_base,
                             enumerate_coset, leq_threshold)
from linfam.fourier import (DenseFunction, Spectrum, _exponent_row, _perm_table,
                            abs_pow_mean, char_exponent, character,
                            check_sum_rank_nullity, degree,
                            fast_transform, inner, inverse_transform,
                            norm2_sq, norm2_sq_frac,
                            project_image, project_kernel, rank_component,
                            rank_split, reduce_family, transform,
                            verify_hypercontractive)

s2 = field(2)
s3 = field(3)


def rational_fn(spec, n, m, fracs):
    return DenseFunction(spec, n, m, [Fraction(x) for x in fracs])


def char_fn(spec, n, m, X):
    # u_X, the character of the m x n dual X, on the n x m matrices
    return DenseFunction(spec, n, m, [character(X, Mat.from_index(spec, n, m, i))
                                      for i in range(spec.q ** (n * m))])


# --- characters -------------------------------------------------------------

def test_character_values():
    one = Mat(s2, ((1,),), 1)
    assert character(Mat.zero(s2, 1, 1), one) == Cyc.from_rational(2, 1)
    assert character(one, one) == Cyc.from_rational(2, -1)
    one3 = Mat(s3, ((1,),), 1)
    assert character(one3, one3) == Cyc.root(3, 1)
    # q = 4 pairs through the absolute trace: w * w has trace 1
    s4 = field(4)
    w = Mat(s4, ((2,),), 1)
    assert character(w, w) == Cyc.from_rational(2, -1)


def test_characters_orthonormal_tiny():
    # dual matrices live in the transposed shape
    for spec, n, m in ((s3, 1, 1), (s2, 1, 2)):
        N = spec.q ** (n * m)
        for i in range(N):
            for j in range(N):
                u = char_fn(spec, n, m, Mat.from_index(spec, m, n, i))
                v = char_fn(spec, n, m, Mat.from_index(spec, m, n, j))
                want = Cyc.from_rational(spec.p, 1 if i == j else 0)
                assert inner(u, v) == want


# --- the transform ----------------------------------------------------------

def test_constant_transforms_to_point_mass():
    f = DenseFunction.constant(s2, 2, 2, Fraction(1))
    S = fast_transform(f)
    assert S.coeff(Mat.zero(s2, 2, 2)) == Cyc.from_rational(2, 1)
    assert sum(1 for _, c in S.nonzero()) == 1


def test_point_mass_transforms_flat():
    f = DenseFunction.indicator(s3, 1, 2, [Mat.zero(s3, 1, 2)])
    S = fast_transform(f)
    flat = Cyc.from_rational(3, Fraction(1, 9))
    assert all(S.coeff(Mat.from_index(s3, 2, 1, i)) == flat for i in range(9))


def test_single_cell_indicator():
    f = DenseFunction.indicator(s2, 1, 1, [Mat(s2, ((1,),), 1)])
    S = fast_transform(f)
    assert S.coeff(Mat.zero(s2, 1, 1)) == Cyc.from_rational(2, Fraction(1, 2))
    assert S.coeff(Mat(s2, ((1,),), 1)) == Cyc.from_rational(2, Fraction(-1, 2))


def test_fast_matches_naive_and_inverts():
    rng = random.Random(9)
    for spec, n, m in ((s2, 2, 2), (s3, 1, 2), (field(4), 1, 1)):
        N = spec.q ** (n * m)
        for _ in range(5):
            f = DenseFunction(spec, n, m,
                              [Fraction(rng.randint(-6, 6), rng.choice((1, 2, 3)))
                               for _ in range(N)])
            S = fast_transform(f)
            assert S.coeffs == transform(f).coeffs
            assert inverse_transform(S) == f
            assert S.parseval_sum() == norm2_sq(f)


def test_fast_path_handles_awkward_denominators():
    f = rational_fn(s2, 2, 2, [Fraction(i - 7, 7) for i in range(16)])
    S = fast_transform(f)
    assert S.coeffs == transform(f).coeffs
    assert inverse_transform(S) == f


# every shape with at most 81 matrices over the fields below
ORACLE_SHAPES = [(q, n, m) for q in (2, 3, 4, 5, 7, 8, 9)
                 for n in range(1, 7) for m in range(1, 7) if q ** (n * m) <= 81]


@pytest.mark.parametrize("q,n,m", ORACLE_SHAPES)
def test_transform_is_the_pair_sum(q, n, m):
    """Coefficient X is sum_A f(A) conj(u_X(A)) / N, one Cyc product per pair."""
    spec = field(q)
    rng = random.Random(q * 100 + n * 10 + m)
    N = q ** (n * m)
    As = [Mat.from_index(spec, n, m, i) for i in range(N)]
    for cyclotomic in (False, True):
        vals = []
        for _ in range(N):
            coords = [Fraction(rng.randint(-4, 4), rng.randint(1, 6))
                      for _ in range(spec.p - 1 if cyclotomic else 1)]
            vals.append(Cyc(spec.p, coords) if cyclotomic else coords[0])
        f = DenseFunction(spec, n, m, vals)
        want = []
        for xi in range(N):
            X = Mat.from_index(spec, m, n, xi)
            acc = Cyc.zero(spec.p)
            for A, v in zip(As, f.values):
                acc = acc + v * character(X, A).conj()
            want.append(acc / N)
        assert transform(f).coeffs == tuple(want)


@pytest.mark.parametrize("q,n,m", ORACLE_SHAPES + [(11, 1, 1), (16, 1, 1),
                                                   (2, 0, 3), (3, 2, 0)])
def test_exponent_row_is_the_pair_list(q, n, m):
    spec = field(q)
    As = [Mat.from_index(spec, n, m, i) for i in range(q ** (n * m))]
    for xi in range(q ** (n * m)):
        X = Mat.from_index(spec, m, n, xi)
        assert _exponent_row(spec, n, m, X) == [char_exponent(X, A) for A in As]


def test_transforms_check_the_clock():
    f = rational_fn(s2, 1, 2, [1, 0, Fraction(1, 2), 0])
    S = fast_transform(f)
    for call, label in ((fast_transform, "butterfly transform"),
                        (transform, "naive transform")):
        with pytest.raises(BudgetExceeded, match=f"^{label} exceeded 0s "
                           "time budget after 0 of "):
            call(f, Budget(seconds=0))
    with pytest.raises(BudgetExceeded, match="^inverse transform exceeded 0s"):
        inverse_transform(S, Budget(seconds=0))


def test_spectrum_json_round_trips_by_value():
    f = rational_fn(s2, 1, 2, [1, 0, Fraction(1, 2), 0])
    S = fast_transform(f)
    T = fast_transform(inverse_transform(S))
    assert S == T and S.to_json() == T.to_json()


# --- rank levels ------------------------------------------------------------

def test_rank_components_partition():
    rng = random.Random(17)
    f = DenseFunction(s2, 2, 2, [Fraction(rng.randint(-4, 4), 2) for _ in range(16)])
    comps = rank_split(f)
    assert sorted(comps) == [0, 1, 2]
    total = comps[0]
    for d in (1, 2):
        total = total + comps[d]
    assert total == f
    assert inner(comps[1], comps[2]).is_zero()
    assert inner(comps[0], comps[1]).is_zero()


def test_constant_lives_at_level_zero():
    f = DenseFunction.constant(s3, 1, 2, Fraction(2, 5))
    assert rank_component(f, 0) == f
    assert norm2_sq_frac(rank_component(f, 1)) == 0


def test_character_is_its_own_component():
    X = Mat(s2, ((1, 1), (0, 0)), 2)
    u = char_fn(s2, 2, 2, X)
    assert rank_component(u, 1) == u
    assert norm2_sq_frac(rank_component(u, 2)) == 0


def test_point_mass_level_weights():
    f = DenseFunction.indicator(s2, 2, 2, [Mat.zero(s2, 2, 2)])
    for d in range(3):
        want = Fraction(count_rank_d(2, 2, d, 2), 2 ** 8)
        assert norm2_sq_frac(rank_component(f, d)) == want


def test_degree():
    assert degree(DenseFunction.constant(s2, 2, 2, Fraction(1, 3))) == 0
    X = Mat(s2, ((1, 0), (0, 0)), 2)
    assert degree(char_fn(s2, 2, 2, X)) == 1
    assert degree(DenseFunction.indicator(s2, 2, 2, [Mat.zero(s2, 2, 2)])) == 2
    with pytest.raises(ZeroFunction):
        degree(DenseFunction.constant(s2, 2, 2, 0))


# --- side projections -------------------------------------------------------

def test_projection_extremes():
    rng = random.Random(29)
    f = DenseFunction(s2, 2, 2, [Fraction(rng.randint(0, 8), 3) for _ in range(16)])
    assert project_image(f, Subspace.zero(s2, 2)) == rank_component(f, 0)
    assert project_image(f, Subspace.full(s2, 2)) == rank_component(f, 2)
    assert project_kernel(f, Subspace.full(s2, 2)) == rank_component(f, 0)
    with pytest.raises(DomainError):
        project_image(f, Subspace.zero(s2, 3))


def test_projections_partition_each_level():
    # summing the exact-image projections over all d-dim subspaces
    # recovers the level-d mass; same on the kernel side at codim d
    rng = random.Random(31)
    f = DenseFunction(s2, 2, 2, [Fraction(rng.randint(-5, 5), 2) for _ in range(16)])
    for d in range(3):
        img = sum(norm2_sq_frac(project_image(f, Vp))
                  for Vp in subspaces_of_dim(s2, 2, d))
        ker = sum(norm2_sq_frac(project_kernel(f, Wp))
                  for Wp in subspaces_of_dim(s2, 2, 2 - d))
        want = norm2_sq_frac(rank_component(f, d))
        assert img == want and ker == want


def test_projection_rejects_subspace_over_another_field():
    f = DenseFunction(s2, 2, 2, [Fraction(i, 3) for i in range(16)])
    with pytest.raises(FieldMismatch):
        project_image(f, Subspace.zero(s3, 2))
    with pytest.raises(FieldMismatch):
        project_kernel(f, Subspace.full(s3, 2))


def _project_by_scan(f, target, on_image):
    """The per-dual scan: keep the coefficient of every dual matrix whose
    image (or kernel) subspace equals target."""
    spec = f.field
    space_of = image if on_image else kernel
    zero = Cyc.zero(spec.p)
    kept = [c if space_of(Mat.from_index(spec, f.m, f.n, i)) == target else zero
            for i, c in enumerate(fast_transform(f).coeffs)]
    return inverse_transform(Spectrum(spec, f.n, f.m, kept))


PROJECT_SHAPES = [(q, n, m) for q in (2, 3, 4, 5, 7, 8, 9)
                  for n in range(1, 11) for m in range(1, 11)
                  if q ** (n * m) <= 1024]


@st.composite
def projection_cases(draw):
    """A rational or cyclotomic-valued function, a side and a subspace of
    that side of any dimension."""
    q, n, m = draw(st.sampled_from(PROJECT_SHAPES))
    irrational = draw(st.booleans())
    on_image = draw(st.booleans())
    ambient = m if on_image else n
    d = draw(st.integers(0, ambient))
    rnd = draw(st.randoms(use_true_random=False))
    spec = field(q)

    def value():
        coords = [Fraction(rnd.randint(-4, 4), rnd.randint(1, 6))
                  for _ in range(spec.p - 1 if irrational else 1)]
        return Cyc(spec.p, coords) if irrational else coords[0]

    f = DenseFunction(spec, n, m, [value() for _ in range(q ** (n * m))])
    while True:
        vs = [tuple(rnd.randrange(q) for _ in range(ambient)) for _ in range(d)]
        U = Subspace.from_vectors(spec, ambient, vs)
        if U.dim == d:
            return f, U, on_image


@settings(max_examples=60, deadline=None)
@given(projection_cases())
def test_projections_match_scan(case):
    f, U, on_image = case
    got = project_image(f, U) if on_image else project_kernel(f, U)
    assert got == _project_by_scan(f, U, on_image)


def _cell_perm_by_digits(q, n, m):
    """The transposition permutation by decoding every index's digits."""
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


def test_cell_perm_matches_digit_decode():
    shapes = [(q, n, m) for q in (2, 3, 4, 5, 7, 8, 9, 11, 16)
              for n in range(1, 13) for m in range(1, 13) if q ** (n * m) <= 4096]
    for q, n, m in shapes:
        assert _perm_table(field(q), n, m) == _cell_perm_by_digits(q, n, m), (q, n, m)


def seeded_function(q, n, m, seed, irrational=False):
    rng = random.Random(seed)
    spec = field(q)

    def value():
        if irrational:
            return Cyc(spec.p, [Fraction(rng.randint(-3, 3), rng.randint(1, 4))
                                for _ in range(spec.p - 1)])
        return Fraction(rng.randint(-5, 5), rng.randint(1, 4))

    return DenseFunction(spec, n, m, [value() for _ in range(q ** (n * m))])


def _sha(parts):
    return hashlib.sha256("\n".join(parts).encode()).hexdigest()


# sha256 of the projected values' Cyc coordinates over every image subspace,
# then every kernel subspace, in subspaces_of_dim order
PROJECTION_GOLDEN = {
    (2, 2, 3, False): "54269a6b58bec9d4e4f76dceffd1a96d390b29d76627d03f91f5cef4cdf342f6",
    (3, 2, 2, False): "31989111a4d1c8b9f2c9dc1a6b1a8d01c19976f490bfccba06267af4096fdce2",
    (3, 1, 2, True): "0c7058df2e5e88d5185087d020acfb45f92100369508ab288625459ea91875b9",
    (4, 2, 2, False): "730c4f1dd0be7c065a02d152dfb4797e542fb29bbb256196b983a0103fc04c57",
    (5, 1, 2, False): "1746d2cbfb100d78733466f564bb6aad4e73ca1ac8afa2fa3f92ed13cc7fe3de",
    (5, 2, 1, True): "d7bf6bf4a6744cbca02854eb82d4a23c598069f20091bb8f4cd0a61a4af1906b",
}


@pytest.mark.parametrize("q,n,m,irrational", sorted(PROJECTION_GOLDEN))
def test_projection_golden(q, n, m, irrational):
    f = seeded_function(q, n, m, 1000 + q, irrational)
    spec = f.field
    parts = [repr(tuple(v.coeffs for v in project_image(f, Vp).values))
             for d in range(m + 1) for Vp in subspaces_of_dim(spec, m, d)]
    parts += [repr(tuple(v.coeffs for v in project_kernel(f, Wp).values))
              for d in range(n + 1) for Wp in subspaces_of_dim(spec, n, d)]
    assert _sha(parts) == PROJECTION_GOLDEN[q, n, m, irrational]


# sha256 of the reports' reprs for every degree d and k in (4, 6)
HYPERCONTRACTIVE_GOLDEN = {
    (2, 2, 2): "3f077af30f2d8d6330ff4c69c007f7a4a93bfb4e72492c41ca9cd8851ce1313c",
    (2, 2, 3): "291d74d770cf65194254e8fef6aacd2eab8c528635ee46a5bb2e40ff74d6b16a",
    (3, 2, 2): "eb63a8f09751a14a397271082f7ee053f2537658c104e789d502bd4d7e81d15f",
    (4, 2, 2): "3a9537d9774c5ae3fc33d8f2fab600f22f12c62b04159e9283c71a99c9f1881b",
    (5, 1, 2): "691f770e07034b2f5f3914ccc4c8f7fcb320094e6181916aa8f6bc6d0beb73b9",
}


@pytest.mark.parametrize("q,n,m", sorted(HYPERCONTRACTIVE_GOLDEN))
def test_hypercontractive_golden(q, n, m):
    f = seeded_function(q, n, m, 2000 + q)
    reps = [repr(verify_hypercontractive(f, d, k))
            for d in range(1, min(n, m) + 1) for k in (4, 6)]
    assert _sha(reps) == HYPERCONTRACTIVE_GOLDEN[q, n, m]


# --- moment inequalities ----------------------------------------------------

def test_hypercontractive_trivial_and_single_character():
    zero = DenseFunction.constant(s2, 2, 2, 0)
    assert verify_hypercontractive(zero, 1, 4)["holds"]
    X = Mat(s2, ((1, 0), (0, 1)), 2)
    rep = verify_hypercontractive(char_fn(s2, 2, 2, X), 2, 4)
    assert rep["holds"] and rep["lhs"] == 1


def test_hypercontractive_random_signs():
    rng = random.Random(37)
    for _ in range(5):
        f = DenseFunction(s2, 2, 2, [rng.choice((-1, 1)) for _ in range(16)])
        for d in (1, 2):
            assert verify_hypercontractive(f, d, 4)["holds"]


def test_abs_pow_mean_domain():
    f = rational_fn(s2, 1, 1, [Fraction(-3, 2), Fraction(1, 2)])
    assert abs_pow_mean(f, 0) == 1
    assert abs_pow_mean(f, 2) == Fraction(5, 4)
    assert abs_pow_mean(f, 4) == Fraction(41, 16)
    # a zero entry once made k = -2 divide by zero, and none made it a value
    for g in (f, rational_fn(s2, 1, 1, [0, 1])):
        with pytest.raises(DomainError, match="^need a power k >= 0, got -2$"):
            abs_pow_mean(g, -2)
    with pytest.raises(DomainError, match="^only even powers"):
        abs_pow_mean(f, 3)
    with pytest.raises(DomainError, match="^function takes irrational values$"):
        abs_pow_mean(DenseFunction(s3, 1, 1, [Cyc.root(3, 1), 0, 0]), 2)


def _hypercontractive_by_projections(f, d, k):
    """verify_hypercontractive with one projection, so one transform pair,
    per subspace."""
    spec = f.field
    lhs = abs_pow_mean(rank_component(f, d), k)
    proj_sum = sum(norm2_sq_frac(project_image(f, Vp)) ** (k // 2)
                   for Vp in subspaces_of_dim(spec, f.m, d))
    proj_sum += sum(norm2_sq_frac(project_kernel(f, Wp)) ** (k // 2)
                    for Wp in subspaces_of_dim(spec, f.n, f.n - d))
    coeff = Fraction(k ** 7 * d ** 6) * proj_sum
    exp = Fraction(k ** 3 * d * d, 2) + (Fraction(3 * k, 4) - 1) * d * max(f.m, f.n)
    rhs = QPow(spec.q, coeff, exp)
    return {"lhs": lhs, "rhs": rhs, "holds": leq_threshold(lhs, rhs),
            "d": d, "k": k}


HYPER_SHAPES = [(q, n, m) for q in (2, 3, 4) for n in range(1, 4)
                for m in range(1, 4) if q ** (n * m) <= 256]


@settings(max_examples=40, deadline=None)
@given(st.sampled_from(HYPER_SHAPES), st.sampled_from((4, 6)), st.data())
def test_hypercontractive_matches_per_subspace_path(shape, k, data):
    q, n, m = shape
    d = data.draw(st.integers(1, min(n, m)))
    rnd = data.draw(st.randoms(use_true_random=False))
    f = DenseFunction(field(q), n, m, [Fraction(rnd.randint(-4, 4), rnd.randint(1, 3))
                                      for _ in range(q ** (n * m))])
    assert verify_hypercontractive(f, d, k) == _hypercontractive_by_projections(f, d, k)


def test_sum_rank_nullity_pairs():
    X = Mat(s2, ((1, 0), (0, 0)), 2)
    rep = check_sum_rank_nullity([1, 1], [X, X])
    assert rep["holds"] and rep["image_sum_dim"] == 1 and rep["kernel_codim"] == 1
    Y = Mat(s3, ((1, 2), (2, 1)), 2)   # rank 1 over F3
    rep3 = check_sum_rank_nullity([1, 2], [Y, Y])
    assert rep3["holds"]


def test_sum_rank_nullity_rejections():
    full = Mat(s2, ((1, 0), (0, 1)), 2)
    X = Mat(s2, ((1, 0), (0, 0)), 2)
    Z = Mat(s2, ((0, 0), (0, 1)), 2)
    with pytest.raises(RankNotOne):
        check_sum_rank_nullity([1, 1], [full, full])
    with pytest.raises(NotInKernelRelation):
        check_sum_rank_nullity([1, 1], [X, Z])
    with pytest.raises(DomainError):
        check_sum_rank_nullity([1, 0], [X, X])


# --- family reduction -------------------------------------------------------

def test_reduce_family():
    assert reduce_family(Family.full_space(s2, 1, 1)) == \
        DenseFunction.constant(s2, 1, 1, 1)
    R = Restriction(s2, 2, 2, cols=[((1, 0), (1, 0))])
    g = reduce_family(Family.from_coset(R))
    assert (g.n, g.m) == (2, 1)
    assert g == DenseFunction.constant(s2, 2, 1, 1)


def _reduce_by_lift(F):
    """reduce_family by lifting: every reduced index R maps to the matrix
    base + B R P of the coset, looked up among the members."""
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
    for idx in range(spec.q ** (n_red * m_red)):
        R = Mat.from_index(spec, n_red, m_red, idx)
        vals.append(1 if base + (B @ R @ P) in F.members else 0)
    return DenseFunction(spec, n_red, m_red, vals)


# (q, n, m, row constraints, column constraints) with at most 343 reduced
# entries and at least one free row and column
REDUCE_SHAPES = [(q, n, m, kr, kc) for q in (2, 3, 4, 5, 7)
                 for n in range(1, 4) for m in range(1, 4)
                 for kr in range(n) for kc in range(m)
                 if q ** ((n - kr) * (m - kc)) <= 343]


@st.composite
def context_families(draw):
    """A random half of a coset cut by constraints read off one matrix."""
    q, n, m, kr, kc = draw(st.sampled_from(REDUCE_SHAPES))
    rnd = draw(st.randoms(use_true_random=False))
    spec = field(q)
    A0 = Mat.from_index(spec, n, m, rnd.randrange(q ** (n * m)))

    def independent(k, length):
        while True:
            vs = [tuple(rnd.randrange(q) for _ in range(length)) for _ in range(k)]
            if Subspace.from_vectors(spec, length, vs).dim == k:
                return vs

    cols = [(v, A0.apply(v)) for v in independent(kc, m)]
    rows = [(a, A0.rapply(a)) for a in independent(kr, n)]
    ctx = Restriction(spec, n, m, cols=cols, rows=rows)
    assert ctx.coset_cardinality() <= 343
    members = [M for M in enumerate_coset(ctx) if rnd.random() < 0.5]
    return Family(spec, n, m, members, ctx)


@settings(max_examples=80, deadline=None)
@given(context_families())
def test_reduce_family_matches_lift(F):
    assert reduce_family(F) == _reduce_by_lift(F)


def test_function_text_round_trip():
    f = rational_fn(s2, 1, 2, [Fraction(1, 3), 0, Fraction(-2, 7), 1])
    assert DenseFunction.from_text(f.to_text()) == f


def test_function_text_irrational_values():
    w = Cyc.root(3, 1)
    f = DenseFunction(s3, 1, 1, [Fraction(1, 2), w, Cyc(3, (Fraction(-1, 3), 2))])
    text = f.to_text()
    # rational values keep the one-fraction line; others list coordinates
    assert text == "3,1,1\n1/2\n0,1\n-1/3,2\n"
    assert DenseFunction.from_text(text) == f
    with pytest.raises(DomainError):
        DenseFunction.from_text("3,1,1\n1,2,3\n0\n0\n")


def test_value_at_checks_field_and_shape():
    f = DenseFunction.constant(s2, 2, 3, 1)
    with pytest.raises(ShapeMismatch):
        f.value_at(Mat.zero(s2, 3, 2))
    with pytest.raises(FieldMismatch):
        f.value_at(Mat.zero(s3, 2, 3))
    with pytest.raises(FieldMismatch):
        fast_transform(f).coeff(Mat.zero(s3, 3, 2))


def test_indicator_checks_field_and_shape():
    with pytest.raises(ShapeMismatch):
        DenseFunction.indicator(s2, 2, 3, [Mat.zero(s2, 3, 2)])
    with pytest.raises(FieldMismatch):
        DenseFunction.indicator(s2, 1, 1, [Mat(s3, ((2,),), 1)])


# --- properties over many fields --------------------------------------------

PROPERTY_QS = (2, 3, 4, 5, 7, 8, 9, 11, 16)
# shapes up to 3x3 whose tables the quadratic-time oracle still handles
PROPERTY_SHAPES = [(q, n, m) for q in PROPERTY_QS
                   for n in range(1, 4) for m in range(1, 4)
                   if q ** (n * m) <= 256]


@st.composite
def function_tuples(draw, count=1):
    """count functions on one matrix space, rational or cyclotomic-valued."""
    q, n, m = draw(st.sampled_from(PROPERTY_SHAPES))
    irrational = draw(st.booleans())
    rnd = draw(st.randoms(use_true_random=False))
    spec = field(q)

    def value():
        coords = [Fraction(rnd.randint(-4, 4), rnd.randint(1, 6))
                  for _ in range(spec.p - 1 if irrational else 1)]
        return Cyc(spec.p, coords) if irrational else coords[0]

    return tuple(DenseFunction(spec, n, m, [value() for _ in range(q ** (n * m))])
                 for _ in range(count))


@settings(max_examples=25, deadline=None)
@given(function_tuples())
def test_fast_transform_matches_oracle(fs):
    (f,) = fs
    assert fast_transform(f).coeffs == transform(f).coeffs


@settings(max_examples=40, deadline=None)
@given(function_tuples())
def test_inverse_undoes_fast_transform(fs):
    (f,) = fs
    assert inverse_transform(fast_transform(f)) == f


@settings(max_examples=40, deadline=None)
@given(function_tuples())
def test_parseval_identity(fs):
    (f,) = fs
    assert fast_transform(f).parseval_sum() == norm2_sq(f)


@settings(max_examples=40, deadline=None)
@given(function_tuples(count=2))
def test_inner_matches_direct_sum(fs):
    f, g = fs
    direct = Cyc.zero(f.field.p)
    for a, b in zip(f.values, g.values):
        direct = direct + a * b.conj()
    assert inner(f, g) == direct / len(f.values)


@settings(max_examples=40, deadline=None)
@given(function_tuples())
def test_function_text_round_trip_over_fields(fs):
    (f,) = fs
    assert DenseFunction.from_text(f.to_text()) == f


@settings(max_examples=40, deadline=None)
@given(function_tuples(count=2))
def test_table_arithmetic_matches_entrywise_cyc(fs):
    f, g = fs
    spec = f.field
    assert (f + g).values == tuple(a + b for a, b in zip(f.values, g.values))
    assert (f - g).values == tuple(a - b for a, b in zip(f.values, g.values))
    total = Cyc.zero(spec.p)
    for v in f.values:
        total = total + v
    assert f.mean() == total / len(f.values)
    zero, one = Cyc.zero(spec.p), Cyc.from_rational(spec.p, 1)
    ind = DenseFunction(spec, f.n, f.m, [int(v == f.values[0]) for v in f.values])
    for h in (f, f - f, ind, ind + ind):
        assert h.is_indicator() == all(v in (zero, one) for v in h.values)
    if all(v.is_rational() for v in f.values):
        assert f.rational_values() == tuple(v.as_fraction() for v in f.values)
    else:
        with pytest.raises(DomainError):
            f.rational_values()


@settings(max_examples=40, deadline=None)
@given(function_tuples())
def test_equal_tables_built_three_ways(fs):
    (f,) = fs
    spec, p = f.field, f.field.p
    fracs = [v.coeffs[0] for v in f.values]
    built = [DenseFunction(spec, f.n, f.m, fracs),
             DenseFunction(spec, f.n, f.m, [Cyc.from_rational(p, x) for x in fracs])]
    built.append(inverse_transform(fast_transform(built[0])))
    for g in built:
        assert g == built[0] and hash(g) == hash(built[0])
    same = [f, DenseFunction(spec, f.n, f.m, f.values),
            inverse_transform(fast_transform(f))]
    for g in same:
        assert g == f and hash(g) == hash(f)
    S = fast_transform(f)
    assert Spectrum(spec, f.n, f.m, S.coeffs) == S
    assert hash(Spectrum(spec, f.n, f.m, S.coeffs)) == hash(S)
