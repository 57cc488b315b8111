"""Field tables on hand-checked points, plus the exhaustive small-q axioms."""

import hashlib
import json
import random
from fractions import Fraction

import pytest

from linfam.budget import Budget
from linfam.cyclo import Cyc
from linfam.errors import (BudgetExceeded, DivisionByZero, DomainError,
                           GeneratorSearchFailed)
from linfam.gf import (FieldSpec, char_root, field, first_generator, is_prime,
                       prime_power)

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


@pytest.mark.parametrize("q", (512, 729))
def test_field_axioms_sampled_without_add_table(q):
    # above q = 256 F_{p^s} adds coefficient-wise, with no table
    f = field(q)
    rng = random.Random(q)
    for _ in range(200):
        a, b, c = (rng.randrange(q) for _ in range(3))
        assert f.add(a, b) == f.add(b, a)
        assert f.add(a, f.neg(a)) == 0
        assert f.sub(f.add(a, b), b) == a
        assert f.mul(a, f.add(b, c)) == f.add(f.mul(a, b), f.mul(a, c))


def test_field_order_capped():
    with pytest.raises(DomainError, match="beyond supported size 4096"):
        FieldSpec(2, 13)


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


@pytest.mark.parametrize("text", [
    "{}", "not json", '"F4"', '{"p": 2, "s": 2}',
    '{"p": 2, "s": "2", "modulus": [1, 1, 1]}',
    '{"p": 2, "s": 2, "modulus": 7}'])
def test_malformed_field_file(text):
    with pytest.raises(DomainError, match="^malformed field file: "):
        FieldSpec.from_json(text)


def test_field_file_order_and_modulus_errors():
    with pytest.raises(DomainError, match="^q=6 is not a prime power$"):
        FieldSpec.from_json('{"p": 6, "s": 1, "modulus": [1, 1]}')
    with pytest.raises(DomainError, match="^modulus must be monic"):
        FieldSpec.from_json('{"p": 2, "s": 2, "modulus": [1, 1, 0]}')
    # refused before 2^(10^12) is built
    with pytest.raises(DomainError,
                       match="^field order beyond supported size 4096$"):
        FieldSpec.from_json('{"p": 2, "s": 1000000000000, "modulus": [1]}')
    # json refuses integers of more than 4300 digits with a ValueError
    with pytest.raises(DomainError):
        FieldSpec.from_json('{"p": 1' + "0" * 5000 + ', "s": 1}')


def test_is_prime_small():
    assert [n for n in range(2, 20) if is_prime(n)] == [2, 3, 5, 7, 11, 13, 17, 19]


# sha256 of each field's modulus with its add, mul, inv, trace and log
# tables: the Conway table up to q = 64, the searched moduli beyond it.
# The log table pins the generator search.
FIELD_TABLES = {
2: "8f212ef898fdcfd0a07b64d8797f229687e50a230e378d7bc48de4104a889f98",
    3: "c5308907b6f800d1d4cd4f7c2d360cb50204b0ef38f60d731dc3412d2391132e",
    4: "6cf3a4759d566280c6f43e0905459c3ae2451f855d34089eea36d23790c834eb",
    5: "1382ca4acaa49cbfec43256826ed0093cd4f484c74526b2ee065abcb30e4614b",
    7: "2a071f35c59f27f67ee23e5b7540c739de10e1abe288a6b5a97f209939ef80e5",
    8: "401aaa96000f1645e2b5d1c79efa3458b03526e56278cdf543d9c3cb1399314a",
    9: "6f5dc6cac54f4a909a209074352888e93a0afa2704578bf80ced79efd8484788",
    16: "cf5fb88693f8c32d41101cb1b035bed2d7337bc775f00bc3158ea3b2ad5475e5",
    25: "89363b42188b0bd7231717f2eb24526323960d110197d60a3f3900fc9b0c2728",
    27: "4f6a89bea170cd8384ea6f45589eb0a8122de4f4c0fe48f0c0982ea83f34d0e9",
    32: "ec1d80bcc18ad7d8450adaeebd7f4662549dae543c14f741d5cfa547b1b20146",
    49: "d98be2578775dfa7d19efea8fb875a10b765332bed50b8c4699aa931f24ffad3",
    64: "33c99e635668b25b2d3560fb3f0ecdc2384f2c0183642dbfc40841ffdbb2dc55",
    81: "478f57ce275af29490fff43ed1bf4f6e1848f99b726d0dfcfa02a0e31e715a8e",
    121: "a8ea62e82a52db2a1492b6c17fb13a984aafd2392c9b7ed6e4fd4f4adc57cd6f",
    125: "3547760e93c104dcd2668f96175938485907355b9c868184460f00a5135634d9",
    128: "360558b5369724c30cf489dbc123c558bad689f44492f675425bc474a184f717",
    243: "0df9409fed7e18e24e61d8e300ecbeb450fd4fe8350c853e4db723090260e52b",
    256: "bbcf27da4923f5a2c2fe2205665e353196b0df05b8ef42fa59f583dde2247e33",
}


@pytest.mark.parametrize("q", sorted(FIELD_TABLES))
def test_field_tables_pinned(q):
    f = field(q)
    els = range(q)
    text = json.dumps([list(f.modulus),
                       [[f.add(a, b) for b in els] for a in els],
                       [[f.mul(a, b) for b in els] for a in els],
                       [f.inv(a) for a in els if a],
                       [f.trace(a) for a in els],
                       [f._log[a] for a in els if a]])
    assert hashlib.sha256(text.encode()).hexdigest() == FIELD_TABLES[q]


def test_modulus_validation():
    with pytest.raises(DomainError, match="reducible"):
        FieldSpec(2, 2, (1, 0, 1))        # x^2 + 1 = (x + 1)^2 over F_2
    with pytest.raises(DomainError, match="monic"):
        FieldSpec(3, 2, (1, 0, 2))
    with pytest.raises(DomainError, match="monic"):
        FieldSpec(3, 2, (1, 1))
    f = FieldSpec(3, 2, (1, 0, 1))        # x^2 + 1 has no root in F_3
    assert f.q == 9 and f.modulus == (1, 0, 1)
    assert f.mul(3, 3) == 2               # x * x = -1


def test_first_generator_search():
    def mul(a, b):
        return a * b % 7
    assert first_generator(range(1, 7), 1, mul, 6) == 3
    with pytest.raises(GeneratorSearchFailed):
        first_generator((1, 2, 4, 6), 1, mul, 6)    # 2 has order 3, 6 order 2

