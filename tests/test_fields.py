import operator
import random
from fractions import Fraction

import pytest

from evoalg import (
    GF2,
    InputError,
    PrimeField,
    PropertyReport,
    PropertyResult,
    QQ,
    RandomSpec,
    Rationals,
    Residue,
    parse_scalar,
)
from evoalg.fields import PRIME_MODULUS_BOUND
from evoalg.galois import FuzzReport


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


def test_modulus_bound_is_checked_before_primality():
    with pytest.raises(InputError, match="is not prime"):
        PrimeField(4)
    # Both are composite, so a primality test run first would say "not prime".
    for p in (PRIME_MODULUS_BOUND + 1, 2**40):
        with pytest.raises(InputError, match="exceeds"):
            PrimeField(p)


def test_value_classes_keep_their_equality_hash_and_repr():
    assert QQ == Rationals() and hash(QQ) == hash(Rationals())
    assert PrimeField(5) == PrimeField(5) and hash(PrimeField(5)) == hash(PrimeField(5))
    assert PrimeField(5) != PrimeField(7) and QQ != GF2 and PrimeField(2) != 2
    spec = RandomSpec(field=QQ)
    assert spec == RandomSpec(QQ, 2, 6, 0.6, 0) and hash(spec) == hash(RandomSpec(QQ))
    assert spec != RandomSpec(QQ, seed=1)
    assert [repr(x) for x in (QQ, GF2, spec)] == [
        "QQ",
        "PrimeField(2)",
        "RandomSpec(field=QQ, min_dim=2, max_dim=6, density=0.6, seed=0)",
    ]
    result = PropertyResult("law_a", "x = y")
    assert repr(result) == (
        "PropertyResult(name='law_a', law='x = y', checked=0, failed=0, "
        "not_applicable=0, witness=None)"
    )
    assert result == PropertyResult(name="law_a", law="x = y")
    assert result != PropertyResult("law_a", "x = y", checked=1)
    assert repr(PropertyReport({}, 1, 2)) == (
        "PropertyReport(algebra={}, seed=1, trials=2, properties=[], notices=[])"
    )
    assert repr(FuzzReport(3, 1, 2)) == (
        "FuzzReport(count=3, seed=1, trials=2, properties=[], failures=[], notices=[])"
    )
    # Each report gets its own default lists.
    assert PropertyReport({}, 1, 2).notices is not PropertyReport({}, 1, 2).notices
    for frozen in (QQ, PrimeField(5), spec):
        with pytest.raises(AttributeError):
            frozen.p = 3
        with pytest.raises(AttributeError):
            del frozen.p
    assert PrimeField(5).p == 5 and spec.seed == 0
    for mutable in (result, PropertyReport({}, 1, 2), FuzzReport(3, 1, 2)):
        with pytest.raises(TypeError):
            hash(mutable)


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


def test_residue_arithmetic_with_a_plain_number_is_a_type_error():
    # Only a Residue of the same modulus is an operand; an int is not coerced.
    a = Residue(1, 3)
    for op in (operator.add, operator.sub, operator.mul, operator.truediv):
        with pytest.raises(TypeError):
            op(a, 1)
        with pytest.raises(TypeError):
            op(a, Fraction(1))
    assert a != 1 and not a == 1
