"""Exact root-of-unity arithmetic: the relations everything else leans on."""

from fractions import Fraction

from linfam.cyclo import Cyc


def test_cube_root_relations():
    w = Cyc.root(3, 1)
    assert w * w == Cyc.root(3, 2)
    assert w * w * w == Cyc.from_rational(3, 1)
    assert (Cyc.from_rational(3, 1) + w + w * w).is_zero()
    assert w.conj() == Cyc.root(3, 2)


def test_root_exponents_add_mod_p():
    for p in (2, 3, 5, 7):
        for a in range(p):
            for b in range(p):
                assert Cyc.root(p, a) * Cyc.root(p, b) == Cyc.root(p, (a + b) % p)


def test_from_root_counts_collapses_full_orbits():
    # 2 + w + w^2 = 1
    assert Cyc.from_root_counts(3, (2, 1, 1)) == Cyc.from_rational(3, 1)
    assert Cyc.from_root_counts(5, (1, 1, 1, 1, 1)).is_zero()


def test_rational_detection():
    x = Cyc.from_rational(3, Fraction(5, 7))
    assert x.is_rational() and x.as_fraction() == Fraction(5, 7)
    w = Cyc.root(3, 1)
    assert not w.is_rational()
    assert (w + w.conj()).is_rational()
    assert (w + w.conj()).as_fraction() == Fraction(-1)


def test_scalar_division_and_inverse_root():
    w = Cyc.root(5, 2)
    half = w / 2
    assert half + half == w
    assert w / Fraction(1, 3) == w * 3
    # roots invert through conjugation, not division
    assert w * w.conj() == Cyc.from_rational(5, 1)
    assert w.conj() == Cyc.root(5, 3)
