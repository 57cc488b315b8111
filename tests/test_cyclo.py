"""Exact root-of-unity arithmetic: the relations everything else leans on."""

from fractions import Fraction

import pytest

from linfam.cyclo import Cyc
from linfam.errors import DomainError


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


RATIONALS = [0, 1, -3, Fraction(5, 7), Fraction(-2, 9)]


def test_rational_operands_follow_fraction_arithmetic():
    # ints and Fractions on either side coerce to the rational Cyc
    for p in (2, 3, 5):
        for a in RATIONALS:
            x = Cyc.from_rational(p, a)
            assert -x == Cyc.from_rational(p, -a)
            for b in RATIONALS:
                want = {op: Cyc.from_rational(p, v) for op, v in (
                    ("+", Fraction(a) + b), ("-", Fraction(a) - b),
                    ("r-", Fraction(b) - a), ("*", Fraction(a) * b))}
                assert x + b == b + x == want["+"]
                assert x - b == want["-"] and b - x == want["r-"]
                assert x * b == b * x == want["*"]
                assert (x == b) == (Fraction(a) == b)
                assert (x - b).as_fraction() == Fraction(a) - b


def test_negation_and_reflected_subtraction_of_roots():
    w = Cyc.root(5, 1)
    assert -w + w == 0 and (-w).coeffs == (0, -1, 0, 0)
    assert 1 - w == Cyc.from_rational(5, 1) + -w
    assert Fraction(1, 2) - w == -(w - Fraction(1, 2))
    assert w.__rsub__("w") is NotImplemented and w.__add__(1.5) is NotImplemented


def test_hash_agrees_with_equality():
    w = Cyc.root(3, 1)
    assert hash(w * w) == hash(Cyc.root(3, 2))
    assert hash(Cyc.from_root_counts(3, (2, 1, 1))) == hash(Cyc.from_rational(3, 1))
    assert len({Cyc.root(3, j) for j in range(6)}) == 3


def test_malformed_operands_raise():
    with pytest.raises(DomainError, match="^need one count per residue$"):
        Cyc.from_root_counts(3, (1, 1))
    with pytest.raises(DomainError, match="^mixed cyclotomic orders$"):
        Cyc.root(3, 1) + Cyc.root(5, 1)
    with pytest.raises(DomainError, match="^not rational: "):
        Cyc.root(3, 1).as_fraction()
