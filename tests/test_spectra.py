"""Walk-operator eigenvalues by dual rank, and the independence bounds they
give.  Small points are frozen from direct computation."""

import random
from fractions import Fraction

import pytest

from linfam import mis
from linfam.budget import Budget
from linfam.errors import BudgetExceeded, DomainError
from linfam.gf import field
from linfam.matspace import Mat, phi
from linfam.fourier import DenseFunction
from linfam.families import Family
from linfam.spectra import (bilinear_decomposition, eigenvalue,
                            eigenvalue_bound_check, graph_bitsets,
                            hoffman_bound, independence_check,
                            rank_invariance_check, spectrum)
from linfam.verify import swept_spectrum

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


def test_parameter_domain():
    with pytest.raises(DomainError):
        spectrum(2, 2, 2, 2)
    with pytest.raises(DomainError):
        spectrum(2, 3, 1, 0)    # difference rank would exceed n
    with pytest.raises(DomainError):
        spectrum(6, 1, 1, 0)    # 6 is not a prime power


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


def test_independence_check_families():
    I = Mat(s2, ((1, 0), (0, 1)), 2)
    U = Mat(s2, ((1, 1), (0, 1)), 2)    # agrees with I exactly on <e1>
    single = Family(s2, 2, 2, [I])
    ok, wit = independence_check(single, 1)
    assert ok and wit is None
    pair = Family(s2, 2, 2, [I, U])
    ok1, wit1 = independence_check(pair, 1)
    assert not ok1 and set(wit1) == {I, U}
    ok0, _ = independence_check(pair, 0)
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
