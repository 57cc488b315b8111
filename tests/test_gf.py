"""Field tables on hand-checked points, plus the exhaustive small-q axioms."""

from fractions import Fraction

import pytest

from linfam.budget import Budget
from linfam.cyclo import Cyc
from linfam.errors import BudgetExceeded, DivisionByZero, DomainError
from linfam.gf import char_root, field, is_prime, prime_power

SMALL_Q = (2, 3, 4, 5, 7, 8, 9)


def test_characteristic_two_addition():
    f2 = field(2)
    assert f2.add(1, 1) == 0
    assert f2.sub(0, 1) == 1
    assert f2.neg(1) == 1


def test_gf4_generator_squares_to_generator_plus_one():
    # elements encode as c0 + c1*2, so 2 is the residue of x mod x^2+x+1
    f4 = field(4)
    assert f4.mul(2, 2) == 3
    assert f4.mul(2, 3) == 1
    assert f4.pow(2, 3) == 1


def test_gf5_division():
    f5 = field(5)
    assert f5.div(3, 4) == 2
    assert f5.mul(2, 4) == 3


def test_division_by_zero_raises():
    f5 = field(5)
    with pytest.raises(DivisionByZero):
        f5.div(3, 0)
    with pytest.raises(DivisionByZero):
        f5.inv(0)


def test_non_prime_power_order_rejected():
    for bad in (0, 1, 6, 10, 12):
        with pytest.raises(DomainError):
            field(bad)


def test_prime_power_trial_division_checks_the_clock():
    # 65543 is prime, so the divisor search passes one full block of 65536
    assert prime_power(65543 ** 2) == (65543, 2)
    assert prime_power(2 ** 20, Budget(seconds=0)) == (2, 20)
    with pytest.raises(BudgetExceeded, match="prime power test"):
        prime_power(65543 ** 2, Budget(seconds=0))
    with pytest.raises(DomainError):
        prime_power(65543 * 65551)


def test_field_axioms_exhaustive_small_orders():
    for q in SMALL_Q:
        f = field(q)
        els = list(f.elements())
        assert len(els) == q and els[0] == 0
        for a in els:
            assert f.add(a, f.neg(a)) == 0
            if a != 0:
                assert f.mul(a, f.inv(a)) == 1
        # distributivity over every triple
        for a in els:
            for b in els:
                assert f.add(a, b) == f.add(b, a)
                assert f.mul(a, b) == f.mul(b, a)
                for c in els:
                    assert f.mul(a, f.add(b, c)) == f.add(f.mul(a, b), f.mul(a, c))


def test_encode_coeffs_round_trip():
    for q in (4, 8, 9):
        f = field(q)
        for a in f.elements():
            assert f.encode(f.coeffs_of(a)) == a


def test_trace_values_gf4():
    f4 = field(4)
    assert f4.trace(0) == 0
    assert f4.trace(1) == 0
    assert f4.trace(2) == 1
    assert f4.trace(3) == 1


def test_trace_additive_and_onto_prime_subfield():
    for q in SMALL_Q:
        f = field(q)
        seen = set()
        for a in f.elements():
            ta = f.trace(a)
            assert 0 <= ta < f.p
            seen.add(ta)
            for b in f.elements():
                assert f.trace(f.add(a, b)) == (ta + f.trace(b)) % f.p
        assert seen == set(range(f.p))


def test_char_root_p2_is_minus_one():
    assert char_root(2, 0) == Cyc.from_rational(2, 1)
    assert char_root(2, 1) == Cyc.from_rational(2, -1)


def test_char_root_p3_conjugates_sum_to_minus_one():
    assert char_root(3, 1) + char_root(3, 2) == Cyc.from_rational(3, -1)


def test_char_root_vanishing_sums_and_homomorphism():
    for p in (2, 3, 5, 7):
        total = Cyc.zero(p)
        for j in range(p):
            total = total + char_root(p, j)
        assert total.is_zero()
        for a in range(p):
            for b in range(p):
                assert char_root(p, a) * char_root(p, b) == char_root(p, (a + b) % p)


def test_spec_json_round_trip():
    from linfam.gf import FieldSpec
    for q in (2, 4, 9):
        f = field(q)
        g = FieldSpec.from_json(f.to_json())
        assert g == f
        assert g.q == q


def test_is_prime_small():
    assert [n for n in range(2, 20) if is_prime(n)] == [2, 3, 5, 7, 11, 13, 17, 19]
