import random
from fractions import Fraction

import pytest

from evoalg import GF2, InputError, PrimeField, QQ, Residue, parse_scalar


def test_parse_rational_reduces():
    assert parse_scalar("3/6", QQ) == Fraction(1, 2)


def test_parse_rational_sign_normalisation():
    x = parse_scalar("-2/4", QQ)
    assert x == Fraction(-1, 2)
    assert x.denominator == 2


def test_parse_prime_field_reduces():
    assert parse_scalar("5", GF2) == Residue(1, 2)


@pytest.mark.parametrize("text", ["", "1/0", "a", "1/-2", "1.5", "2/", "+-3"])
def test_parse_rational_rejects_malformed(text):
    with pytest.raises(InputError):
        parse_scalar(text, QQ)


def test_prime_field_rejects_fraction_syntax():
    with pytest.raises(InputError):
        parse_scalar("3/4", PrimeField(7))


@pytest.mark.parametrize("p", [0, 1, 4, 9, 2**31 + 11, 2**61 - 1])
def test_bad_modulus(p):
    with pytest.raises(InputError):
        PrimeField(p)


def test_large_prime_modulus_allowed():
    PrimeField(2147483647)


def test_residue_arithmetic():
    F = PrimeField(7)
    a, b = F.from_int(3), F.from_int(5)
    assert a + b == F.from_int(1)
    assert a - b == F.from_int(5)
    assert a * b == F.from_int(1)
    assert a / b == a * F.from_int(3)  # 5^-1 = 3 mod 7
    assert -a == F.from_int(4)
    assert bool(F.zero) is False


def test_residue_division_by_zero():
    with pytest.raises(ZeroDivisionError):
        GF2.one / GF2.zero


def test_residue_mixed_moduli_rejected():
    with pytest.raises(ValueError):
        Residue(1, 3) + Residue(1, 5)


def test_coerce_and_format_round_trip():
    for field, raw in [(QQ, "-7/3"), (PrimeField(5), "3")]:
        x = field.parse(raw)
        assert field.parse(field.format(x)) == x
    assert QQ.coerce(2) == Fraction(2)
    assert QQ.coerce("-7/2") == Fraction(-7, 2)
    # No floating point anywhere: a float is not read as a rational.
    with pytest.raises(InputError):
        QQ.coerce(1.5)
    assert GF2.coerce(3) == Residue(1, 2)
    with pytest.raises(InputError):
        GF2.coerce(Fraction(1, 2))
    with pytest.raises(InputError):
        PrimeField(5).coerce(Residue(1, 3))


def _random_elements(field, rng, count):
    if field.order is None:
        return [
            Fraction(rng.randint(-30, 30), rng.randint(1, 30))
            for _ in range(count)
        ]
    return [field.from_int(rng.randrange(field.order)) for _ in range(count)]


@pytest.mark.parametrize("field", [QQ, GF2, PrimeField(7), PrimeField(101)])
def test_field_axioms_on_random_triples(field):
    rng = random.Random(20240801)
    zero, one = field.zero, field.one
    for _ in range(1000):
        a, b, c = _random_elements(field, rng, 3)
        assert a + b == b + a
        assert a * b == b * a
        assert (a + b) + c == a + (b + c)
        assert (a * b) * c == a * (b * c)
        assert a * (b + c) == a * b + a * c
        assert a + zero == a
        assert a * one == a
        assert a + (-a) == zero
        if b:
            assert (a / b) * b == a
