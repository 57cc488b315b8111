"""Walk-operator eigenvalues by dual rank, and the independence bounds they
give.  Small points are frozen from direct computation."""

import hashlib
import random
from fractions import Fraction

import pytest
from hypothesis import example, given, settings, strategies as st

from linfam import mis
from linfam.budget import Budget
from linfam.cyclo import Cyc
from linfam.errors import BudgetExceeded, DomainError
from linfam.gf import field
from linfam.matspace import Mat, phi, rank, rank_table, vec_from_index
from linfam.fourier import DenseFunction, abs_pow_mean
from linfam.families import Family, is_intersection_free
from linfam.spectra import (bilinear_decomposition, eigenvalue,
                            eigenvalue_bound_check, graph_bitsets,
                            hoffman_bound, rank_invariance_check, spectrum)
from linfam.verify import _mis_grid, swept_spectrum

s2 = field(2)


def test_one_by_one_walk():
    S = spectrum(2, 1, 1, 0)
    assert S.lam == (Fraction(1), Fraction(-1))
    assert S.mult == (1, 1)
    assert S.gen_count == 1
    assert S.lam_min() == -1
    assert S.trace_check()

    T = spectrum(3, 1, 1, 0)
    assert T.lam == (Fraction(1), Fraction(-1, 2))
    assert T.mult == (1, 2)


def test_two_by_two_agreement_one():
    S = spectrum(2, 2, 2, 1)
    assert S.lam == (Fraction(1), Fraction(1, 9), Fraction(-1, 3))
    assert S.mult == (1, 9, 6)
    assert S.gen_count == 9


def test_eigenvalue_formula_points():
    assert eigenvalue(2, 1, 1, 0, 0) == 1
    assert eigenvalue(2, 1, 1, 0, 1) == -1
    assert eigenvalue(3, 1, 1, 0, 1) == Fraction(-1, 2)
    assert eigenvalue(2, 2, 2, 0, 1) == Fraction(-1, 3)


def test_eigenvalue_matches_spectrum_grid():
    for q in (2, 3):
        for m in (1, 2):
            for n in (1, 2):
                for t in range(m):
                    if m - t > n:
                        continue
                    S = spectrum(q, m, n, t)
                    for d, lam in enumerate(S.lam):
                        assert eigenvalue(q, m, n, t, d) == lam
                        rep = rank_invariance_check(q, m, n, t, d)
                        assert rep["values"] == (lam,)
                    assert sum(S.mult) == q ** (n * m)
                    lhs = sum(mu * l * l for mu, l in zip(S.mult, S.lam))
                    assert lhs == 1 / phi(m, n, t, q)


@pytest.mark.parametrize("q", [2, 3, 4, 5, 7, 8, 9])
def test_closed_form_matches_sweep(q):
    for m in range(1, 13):
        for n in range(1, 13):
            if q ** (n * m) > 4096:
                continue
            for t in range(max(0, m - n), m):
                assert spectrum(q, m, n, t).lam == swept_spectrum(q, m, n, t)


def test_closed_form_beyond_enumeration():
    S = spectrum(2, 40, 40, 3)
    assert S.lam[0] == 1 and S.trace_check()
    with pytest.raises(BudgetExceeded):
        spectrum(2, 40, 40, 0, Budget(items=100))   # 41 x 41 formula terms
    with pytest.raises(BudgetExceeded, match="^eigenvalue formula exceeded 0s "
                       "time budget after 0 ranks$"):
        spectrum(2, 40, 40, 3, Budget(seconds=0))


def test_graph_bitsets_charges_the_default_budget():
    # 2^16 rows of 2^16 bits, past the default 2^28 items
    with pytest.raises(BudgetExceeded, match="^adjacency build needs"):
        graph_bitsets(2, 4, 4, 3)


def test_parameter_domain():
    with pytest.raises(DomainError):
        spectrum(2, 2, 2, 2)
    with pytest.raises(DomainError):
        spectrum(2, 3, 1, 0)    # difference rank would exceed n
    with pytest.raises(DomainError):
        spectrum(6, 1, 1, 0)    # 6 is not a prime power


def test_closed_form_beyond_field_tables():
    # the Krawtchouk form needs only that q is a prime power, tested within
    # the caller's budget, not a field table
    assert spectrum(8192, 1, 1, 0).lam == (1, Fraction(-1, 8191))
    with pytest.raises(BudgetExceeded, match="prime power test"):
        spectrum(10 ** 12 + 39, 2, 2, 1, Budget(seconds=0))


def test_rank_invariance():
    rep = rank_invariance_check(2, 2, 2, 0, 1)
    assert rep["holds"]
    assert rep["representatives"] == 9
    assert rep["values"] == (Fraction(-1, 3),)


def test_eigenvalue_bound():
    rep = eigenvalue_bound_check(2, 1, 1, 0, 1)
    assert rep["holds"] and rep["lambda_sq"] == 1 and rep["bound_sq"] == 2
    for q, m, n, t in ((2, 2, 2, 0), (2, 2, 2, 1), (3, 2, 2, 1)):
        for d in range(1, 3):
            assert eigenvalue_bound_check(q, m, n, t, d)["holds"]


def test_bilinear_split_constant_and_random():
    one = DenseFunction.constant(s2, 2, 2, 1)
    rep = bilinear_decomposition(one, one, 1)
    assert rep["holds"] and rep["direct"] == rep["spectral"]
    assert rep["direct"].as_fraction() == 1

    rng = random.Random(13)
    for _ in range(3):
        f = DenseFunction(s2, 2, 2,
                          [Fraction(rng.randint(-3, 3), 2) for _ in range(16)])
        g = DenseFunction(s2, 2, 2,
                          [Fraction(rng.randint(-3, 3), 2) for _ in range(16)])
        assert bilinear_decomposition(f, g, 1)["holds"]


# every shape with at most 81 matrices over the fields below
BILINEAR_SHAPES = [(q, n, m) for q in (2, 3, 4, 5, 7)
                   for n in range(1, 7) for m in range(1, 7) if q ** (n * m) <= 81]


def _direct_by_pairs(f, g, t):
    """sum f(A) conj(g(A + G)) / (N |G|) over the matrices G of rank
    m - t + 1, one Cyc product per pair."""
    spec, n, m = f.field, f.n, f.m
    N = spec.q ** (n * m)
    all_A = [Mat.from_index(spec, n, m, i) for i in range(N)]
    gens = [G for G in all_A if rank(G) == m - t + 1]
    acc = Cyc.zero(spec.p)
    for A, fa in zip(all_A, f.values):
        for G in gens:
            acc = acc + fa * g.values[(A + G).index()].conj()
    return acc / (N * len(gens))


@pytest.mark.parametrize("q,n,m", BILINEAR_SHAPES)
def test_bilinear_direct_side_is_the_pair_sum(q, n, m):
    spec = field(q)
    rng = random.Random(q * 100 + n * 10 + m)
    N = q ** (n * m)

    def draw(cyclotomic):
        def value():
            coords = [Fraction(rng.randint(-4, 4), rng.randint(1, 6))
                      for _ in range(spec.p - 1 if cyclotomic else 1)]
            return Cyc(spec.p, coords) if cyclotomic else coords[0]
        return DenseFunction(spec, n, m, [value() for _ in range(N)])

    for cyclotomic in (False, True):
        f, g = draw(cyclotomic), draw(cyclotomic)
        for t in range(max(1, m - n + 1), m + 1):
            rep = bilinear_decomposition(f, g, t)
            assert rep["direct"] == _direct_by_pairs(f, g, t)
            assert rep["holds"]
        if not cyclotomic:
            for k in (0, 2, 4, 6):
                want = sum(v.as_fraction() ** k for v in f.values) / N
                assert abs_pow_mean(f, k) == want


def test_hoffman_values():
    assert hoffman_bound(spectrum(2, 1, 1, 0)) == Fraction(1, 2)
    assert hoffman_bound(spectrum(3, 1, 1, 0)) == Fraction(1, 3)
    assert hoffman_bound(spectrum(2, 4, 4, 1)) == Fraction(1, 176)
    assert hoffman_bound(spectrum(3, 3, 3, 1)) == Fraction(23, 2727)
    assert hoffman_bound(spectrum(2, 3, 5, 1)) == Fraction(41, 3296)


def test_hoffman_vs_exact_independence_number():
    S = spectrum(2, 2, 2, 1)
    adj = graph_bitsets(2, 2, 2, 1)
    alpha, _ = mis.max_independent_set(adj, 16)
    assert alpha == 4
    assert hoffman_bound(S) == Fraction(1, 4) == Fraction(alpha, 16)


def _difference_indices(spec, nm, i):
    """Index of X_i - X_j for every j, in order of j."""
    digits = vec_from_index(spec.q, nm, i)
    out, w = [0], 1
    for k in range(nm):         # place value q^k holds digit nm - 1 - k
        a = digits[nm - 1 - k]
        out = [spec.sub(a, d) * w + rest for d in range(spec.q) for rest in out]
        w *= spec.q
    return out


@pytest.mark.parametrize("q", [2, 3, 4, 5, 7, 8, 9])
def test_graph_bitsets_match_definition(q):
    spec = field(q)
    for m in range(1, 10):
        for n in range(1, 10):
            nm = n * m
            N = q ** nm
            if N > 729:
                continue
            ranks = [rank(Mat.from_index(spec, n, m, i)) for i in range(N)]
            for i in (0, 1, N - 1):
                Xi = Mat.from_index(spec, n, m, i)
                assert _difference_indices(spec, nm, i) == [
                    (Xi - Mat.from_index(spec, n, m, j)).index()
                    for j in range(N)]
            for t in range(max(0, m - n), m):
                adj = graph_bitsets(q, m, n, t)
                for i, row in enumerate(adj):
                    want = sum(1 << j for j, x in
                               enumerate(_difference_indices(spec, nm, i))
                               if ranks[x] == m - t)
                    assert row == want, (q, m, n, t, i)
                assert mis._translation_transitive(
                    mis.complement_bitsets(adj, N), N)
                assert mis._translation_transitive(adj, N)


def test_independence_check_families():
    I = Mat(s2, ((1, 0), (0, 1)), 2)
    U = Mat(s2, ((1, 1), (0, 1)), 2)    # agrees with I exactly on <e1>
    single = Family(s2, 2, 2, [I])
    ok, wit = is_intersection_free(single, 1)
    assert ok and wit is None
    pair = Family(s2, 2, 2, [I, U])
    ok1, wit1 = is_intersection_free(pair, 1)
    assert not ok1 and set(wit1) == {I, U}
    ok0, _ = is_intersection_free(pair, 0)
    assert ok0


# --- the search kernel on plain graphs --------------------------------------

def test_clique_and_independence_on_small_graphs():
    tri = [0b110, 0b101, 0b011]
    assert mis.max_clique(tri, 3) == (3, 0b111)
    assert mis.max_independent_set(tri, 3)[0] == 1
    assert sorted(mis.all_maximum_independent_sets(tri, 3)) == [1, 2, 4]

    path3 = [0b010, 0b101, 0b010]       # ends are the unique maximum set
    a, mask = mis.max_independent_set(path3, 3)
    assert a == 2 and mask == 0b101
    assert mis.all_maximum_independent_sets(path3, 3) == [0b101]

    c5 = [0b10010, 0b00101, 0b01010, 0b10100, 0b01001]
    assert mis.max_independent_set(c5, 5)[0] == 2
    assert len(mis.all_maximum_independent_sets(c5, 5)) == 5

    empty = [0, 0, 0, 0]
    assert mis.max_independent_set(empty, 4) == (4, 0b1111)

    assert not mis._translation_transitive(path3, 3)
    assert mis._translation_transitive(c5, 5)


def test_exact_search_caps_the_vertex_count():
    with pytest.raises(DomainError, match="capped at 4096 vertices"):
        mis.max_clique([0] * (mis.MAX_VERTICES + 1), mis.MAX_VERTICES + 1)


def test_search_budget_reports_progress():
    adj = graph_bitsets(2, 3, 3, 1)
    with pytest.raises(BudgetExceeded, match="^independent set search rooted "
                       "at vertex 0 exceeded 0s time budget after 4096 nodes$"):
        mis.max_independent_set(adj, 512, Budget(seconds=0))
    j = next(mis.bits_of(adj[0]))
    lopsided = list(adj)
    lopsided[0] ^= 1 << j
    lopsided[j] ^= 1
    assert not mis._translation_transitive(lopsided, 512)
    with pytest.raises(BudgetExceeded, match="^independent set search "
                       "exceeded 0s time budget after 4096 nodes$"):
        mis.max_independent_set(lopsided, 512, Budget(seconds=0))
    with pytest.raises(BudgetExceeded, match="^independent set enumeration "
                       "exceeded 0s time budget after 4096 nodes$"):
        mis.all_maximum_independent_sets(graph_bitsets(2, 3, 3, 0), 512,
                                         Budget(seconds=0))


def _is_clique(adj, mask):
    return all((adj[v] | 1 << v) & mask == mask for v in mis.bits_of(mask))


def _clique_number_by_subsets(adj, nverts):
    return max(s.bit_count() for s in range(1 << nverts) if _is_clique(adj, s))


def _clique_number(adj, cand, memo):
    """Exhaustive: branch on a candidate with the fewest candidate
    neighbours, into the cliques without it and those with it.  A
    candidate adjacent to all others but at most one lies in some maximum
    clique (swap it for the one it misses), so it is taken outright."""
    if not cand:
        return 0
    if cand not in memo:
        deg = {v: (adj[v] & cand).bit_count() for v in mis.bits_of(cand)}
        u = max(deg, key=deg.get)
        if deg[u] >= len(deg) - 2:
            memo[cand] = 1 + _clique_number(adj, cand & adj[u], memo)
        else:
            v = min(deg, key=deg.get)
            memo[cand] = max(_clique_number(adj, cand & ~(1 << v), memo),
                             1 + _clique_number(adj, cand & adj[v], memo))
    return memo[cand]


def _digit_op(b, x, y, sign):
    """x + sign * y digit by digit in base b, each digit mod b."""
    out, w = 0, 1
    while x or y:
        out += (x % b + sign * (y % b)) % b * w
        x, y, w = x // b, y // b, w * b
    return out


def _translation_invariant(adj, nverts):
    """Brute force: nverts = b^K and every translation of (Z/b)^K, on
    base-b digits, preserves every adjacency."""
    b = next(p for p in range(2, nverts + 1) if nverts % p == 0)
    # a power of b exactly when every divisor above 1 is a multiple of b
    if any(nverts % x == 0 and x % b for x in range(2, nverts)):
        return False
    return all(adj[_digit_op(b, i, a, 1)] >> _digit_op(b, j, a, 1) & 1
               == adj[i] >> j & 1
               for a in range(nverts) for i in range(nverts)
               for j in range(nverts))


@st.composite
def cayley_graphs(draw):
    """A Cayley graph on (Z/b)^K from a random symmetric connection set."""
    b, K = draw(st.sampled_from([(2, k) for k in range(1, 7)]
                                + [(3, 1), (3, 2), (3, 3), (5, 1), (5, 2)]))
    N = b ** K
    pick = draw(st.lists(st.booleans(), min_size=N, max_size=N))
    conn = {x for x in range(1, N) if pick[x] or pick[_digit_op(b, 0, x, -1)]}
    return N, [sum(1 << j for j in range(N) if _digit_op(b, i, j, -1) in conn)
               for i in range(N)]


@st.composite
def random_graphs(draw):
    N = draw(st.integers(2, 12))
    adj = [0] * N
    for i in range(N):
        for j in range(i + 1, N):
            if draw(st.booleans()):
                adj[i] |= 1 << j
                adj[j] |= 1 << i
    return N, adj


@settings(max_examples=30, deadline=None)
@given(cayley_graphs(), st.data())
def test_max_clique_on_cayley_graphs(graph, data):
    N, adj = graph
    assert mis._translation_transitive(adj, N)
    size, mask = mis.max_clique(adj, N)
    assert size == _clique_number(adj, (1 << N) - 1, {})
    assert mask.bit_count() == size and _is_clique(adj, mask)
    if N >= 3:
        # one flipped edge breaks the symmetry
        i, j = data.draw(st.lists(st.integers(0, N - 1), min_size=2,
                                  max_size=2, unique=True))
        adj[i] ^= 1 << j
        adj[j] ^= 1 << i
        assert not mis._translation_transitive(adj, N)


def _cayley(b, K, conn):
    N = b ** K
    return N, [sum(1 << j for j in range(N) if _digit_op(b, i, j, -1) in conn)
               for i in range(N)]


def _exact_answers(adj, N):
    """Brute-force clique and independence numbers; max_clique and
    max_independent_set must return sets of those sizes."""
    full = (1 << N) - 1
    omega = _clique_number(adj, full, {})
    comp = mis.complement_bitsets(adj, N)
    alpha = _clique_number(comp, full, {})
    size, mask = mis.max_clique(adj, N)
    assert size == omega and mask.bit_count() == size and _is_clique(adj, mask)
    size, mask = mis.max_independent_set(adj, N)
    assert size == alpha and mask.bit_count() == size and _is_clique(comp, mask)
    return omega, alpha


# graphs where alpha * omega = N, so the clique-coclique bound is met: the
# empty graph, the 4-cycle, the 3 x 3 rook's graph and Q_3 plus its
# antipodal matching
@example((8, [0] * 8))
@example(_cayley(2, 2, {1, 2}))
@example(_cayley(3, 2, {1, 2, 3, 6}))
@example(_cayley(2, 3, {1, 2, 4, 7}))
@settings(max_examples=40, deadline=None)
@given(cayley_graphs())
def test_clique_coclique_stop_on_cayley_graphs(graph):
    N, adj = graph
    assert mis._translation_transitive(adj, N)
    omega, alpha = _exact_answers(adj, N)
    assert alpha * omega <= N
    if N >= 3:
        # one flipped edge breaks the symmetry, so the search is not rooted
        # and no cap applies; the answer is still exact
        adj = list(adj)
        adj[0] ^= 1 << (N - 1)
        adj[N - 1] ^= 1
        assert not mis._translation_transitive(adj, N)
        _exact_answers(adj, N)


def test_clique_coclique_stop_cuts_the_colourings(monkeypatch):
    # at (2,3,3,0), alpha = 64 = 512 // 8 and the greedy clique of the
    # agreement graph has 8 vertices, so the search ends at its first
    # 64-vertex independent set; without the stop it coloured 392 times
    calls = []
    colour = mis._color_classes
    monkeypatch.setattr(mis, "_color_classes",
                        lambda *a: calls.append(1) or colour(*a))
    assert mis.max_independent_set(graph_bitsets(2, 3, 3, 0), 512)[0] == 64
    assert 0 < len(calls) <= 65


@settings(max_examples=60, deadline=None)
@given(random_graphs())
def test_max_clique_on_random_graphs(graph):
    N, adj = graph
    size, mask = mis.max_clique(adj, N)
    assert size == _clique_number_by_subsets(adj, N)
    assert size == _clique_number(adj, (1 << N) - 1, {})
    assert mask.bit_count() == size and _is_clique(adj, mask)
    assert mis._translation_transitive(adj, N) == _translation_invariant(adj, N)


def _maximum_independent_sets_by_subsets(adj, nverts):
    comp = mis.complement_bitsets(adj, nverts)
    sets = [s for s in range(1 << nverts) if _is_clique(comp, s)]
    top = max(s.bit_count() for s in sets)
    return sorted(s for s in sets if s.bit_count() == top)


@settings(max_examples=60, deadline=None)
@given(random_graphs())
def test_all_maximum_independent_sets_on_random_graphs(graph):
    N, adj = graph
    got = mis.all_maximum_independent_sets(adj, N)
    assert sorted(got) == _maximum_independent_sets_by_subsets(adj, N)
    assert len(set(got)) == len(got)
    assert mis.max_independent_set(adj, N)[1] in got


def test_all_maximum_independent_sets_on_tiny_graphs():
    assert mis.all_maximum_independent_sets([], 0) == [0]
    assert mis.max_independent_set([], 0) == (0, 0)
    assert mis.all_maximum_independent_sets([0], 1) == [1]
    assert mis.max_independent_set([0], 1) == (1, 1)


def _gl_induced_graph(n, q, t):
    """The graph exhaustive mode searches: graph_bitsets' agreement graph
    on M(n, n) at agreement dimension t - 1, induced on GL (vertices in
    index order)."""
    verts = [i for i, rk in enumerate(rank_table(field(q), n, n)) if rk == n]
    pos = {v: j for j, v in enumerate(verts)}
    full = graph_bitsets(q, n, n, t - 1)
    return [sum(1 << pos[v] for v in mis.bits_of(full[u]) if v in pos)
            for u in verts]


def _digest(obj):
    return hashlib.sha256(repr(obj).encode()).hexdigest()


# sha256 of repr([(point, size, mask)]) over verify._mis_grid(), which
# holds the perfbench graphs points (2,3,3,0), (2,3,3,1) and (3,2,3,0):
# pins the independent set the search returns, not only its size
MIS_GRID_GOLDEN = "6e8e5e878eb38a60e4675e8a35664a894f04b907de31357eaff4f223b20f1338"


def test_max_independent_set_pinned_on_mis_grid():
    got = []
    for q, m, n, t in _mis_grid():
        N = q ** (n * m)
        size, mask = mis.max_independent_set(graph_bitsets(q, m, n, t), N)
        got.append(((q, m, n, t), size, mask))
    assert _digest(got) == MIS_GRID_GOLDEN, [(p, s) for p, s, _ in got]


# sha256 of repr(all_maximum_independent_sets(...)) on the GL-induced graph
# at (n, q, t): pins the optima list in the order the search lists it
OPTIMA_GOLDEN = [
    (2, 5, 1, 480, "51314393c7eee19432d0f6c93e8384f200d4b7073e19b7fcc4e748cb78207c81"),
    (2, 7, 1, 2016, "7bfcb631c80e644cb1df5f67ff2b39fcb17f361f3f2b2a76cd2a11d1b581d4f5"),
]


@pytest.mark.parametrize("n,q,t,order,sha", OPTIMA_GOLDEN,
                         ids=["n2q5t1", "n2q7t1"])
def test_optima_lists_pinned_on_gl_graphs(n, q, t, order, sha):
    adj = _gl_induced_graph(n, q, t)
    assert len(adj) == order
    optima = mis.all_maximum_independent_sets(adj, order)
    assert _digest(optima) == sha, (len(optima), optima[0].bit_count())
