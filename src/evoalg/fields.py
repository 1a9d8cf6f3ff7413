"""Exact scalar arithmetic over the rationals and over prime fields.

Every coefficient in the toolkit is an exact field element: an
arbitrary-precision rational (``fractions.Fraction``, always reduced, positive
denominator) or a residue modulo a prime.  There is no floating point
anywhere; membership tests and canonical forms downstream depend on exact
equality.

A *field descriptor* (:data:`QQ` or a :class:`PrimeField`) carries the parsing,
coercion and formatting rules; the elements themselves are plain ``Fraction``
values or :class:`Residue` wrappers supporting the usual operators.
"""

from __future__ import annotations

import re
import sys
from fractions import Fraction

from .errors import InputError

__all__ = [
    "GF2",
    "PrimeField",
    "QQ",
    "Rationals",
    "Residue",
    "parse_scalar",
]

# Optional sign, digits, optionally "/" followed by digits.  Nothing else.
_SCALAR_RE = re.compile(r"[+-]?\d+(?:/\d+)?\Z")

PRIME_MODULUS_BOUND = 2**31


def _int(text: str) -> int:
    """``int(text)`` for text already matched as digits; text past the
    interpreter's int-str digit limit is bad input, not a crash."""
    try:
        return int(text)
    except ValueError:
        raise InputError(
            f"scalar {text[:16]}... has {len(text)} characters, over the "
            f"{sys.get_int_max_str_digits()}-digit limit"
        ) from None


def _is_prime(p: int) -> bool:
    if p < 2:
        return False
    if p % 2 == 0:
        return p == 2
    d = 3
    while d * d <= p:
        if p % d == 0:
            return False
        d += 2
    return True


class Residue:
    """An element of the prime field with ``p`` elements, stored in [0, p)."""

    __slots__ = ("value", "p")

    def __init__(self, value: int, p: int):
        self.value = value % p
        self.p = p

    def _coerced(self, other):
        if isinstance(other, Residue):
            if other.p != self.p:
                raise ValueError(f"mixed moduli {self.p} and {other.p}")
            return other
        return None

    def __add__(self, other):
        o = self._coerced(other)
        if o is None:
            return NotImplemented
        return Residue(self.value + o.value, self.p)

    def __sub__(self, other):
        o = self._coerced(other)
        if o is None:
            return NotImplemented
        return Residue(self.value - o.value, self.p)

    def __mul__(self, other):
        o = self._coerced(other)
        if o is None:
            return NotImplemented
        return Residue(self.value * o.value, self.p)

    def __truediv__(self, other):
        o = self._coerced(other)
        if o is None:
            return NotImplemented
        if o.value == 0:
            raise ZeroDivisionError(f"division by zero in F_{self.p}")
        return Residue(self.value * pow(o.value, -1, self.p), self.p)

    def __neg__(self):
        return Residue(-self.value, self.p)

    def __pos__(self):
        return self

    def __bool__(self):
        return self.value != 0

    def __eq__(self, other):
        if isinstance(other, Residue):
            return self.p == other.p and self.value == other.value
        return NotImplemented

    def __hash__(self):
        return hash((self.value, self.p))

    def __repr__(self):
        return f"Residue({self.value}, p={self.p})"

    def __str__(self):
        return str(self.value)


class Record:
    """A value class compared and shown by its attributes, as a dataclass is
    by its fields but without ``dataclasses``; unhashable.  Each subclass
    stores exactly its ``__init__`` parameters, in parameter order."""

    def _items(self):
        return tuple(vars(self).items())

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return other is self or self._items() == other._items()

    def __repr__(self):
        shown = ", ".join(f"{name}={value!r}" for name, value in self._items())
        return f"{type(self).__qualname__}({shown})"


class FrozenRecord(Record):
    """A hashable record whose ``__init__`` stores its fields past ``__setattr__``."""

    def __hash__(self):
        return hash(self._items())

    def __setattr__(self, name, value=None):
        raise AttributeError(f"{type(self).__name__}.{name} is read-only")

    __delattr__ = __setattr__


class Rationals(FrozenRecord):
    """Descriptor for the field of rational numbers."""

    name = "Q"
    zero = Fraction(0)
    one = Fraction(1)

    def from_int(self, k: int) -> Fraction:
        return Fraction(k)

    def parse(self, text: str) -> Fraction:
        if not _SCALAR_RE.fullmatch(text):
            raise InputError(f"malformed rational scalar {text!r}")
        if "/" in text:
            num, den = text.split("/")
            if _int(den) == 0:
                raise InputError(f"zero denominator in {text!r}")
            return Fraction(_int(num), _int(den))
        return Fraction(_int(text))

    def format(self, x: Fraction) -> str:
        try:
            return str(x)
        except ValueError:
            raise InputError(
                f"a computed rational has more than {sys.get_int_max_str_digits()} "
                "digits in its numerator or denominator, over the int-str digit limit"
            ) from None

    def coerce(self, x) -> Fraction:
        if isinstance(x, Fraction):
            return x
        if isinstance(x, int):
            return Fraction(x)
        if isinstance(x, str):
            return self.parse(x)
        raise InputError(f"cannot interpret {x!r} as a rational scalar")

    def json_descriptor(self):
        return "Q"

    @property
    def order(self):
        return None

    def __repr__(self):
        return "QQ"


class PrimeField(FrozenRecord):
    """Descriptor for the prime field F_p."""

    def __init__(self, p: int):
        # The bound comes first: trial division of a large prime never ends.
        if isinstance(p, int) and p > PRIME_MODULUS_BOUND:
            raise InputError(f"modulus {p} exceeds {PRIME_MODULUS_BOUND}")
        if not isinstance(p, int) or not _is_prime(p):
            raise InputError(f"modulus {p!r} is not prime")
        object.__setattr__(self, "p", p)

    @property
    def name(self):
        return f"F{self.p}"

    @property
    def zero(self):
        return Residue(0, self.p)

    @property
    def one(self):
        return Residue(1, self.p)

    def from_int(self, k: int) -> Residue:
        return Residue(k, self.p)

    def parse(self, text: str) -> Residue:
        if not _SCALAR_RE.fullmatch(text) or "/" in text:
            raise InputError(f"malformed prime-field scalar {text!r} (integers only)")
        return Residue(_int(text), self.p)

    def format(self, x: Residue) -> str:
        return str(x.value)

    def coerce(self, x) -> Residue:
        if isinstance(x, Residue):
            if x.p != self.p:
                raise InputError(f"residue mod {x.p} used in F_{self.p}")
            return x
        if isinstance(x, int):
            return Residue(x, self.p)
        if isinstance(x, str):
            return self.parse(x)
        raise InputError(f"cannot interpret {x!r} as an element of F_{self.p}")

    def json_descriptor(self):
        return {"prime": self.p}

    @property
    def order(self):
        return self.p

    def __repr__(self):
        return f"PrimeField({self.p})"


QQ = Rationals()
GF2 = PrimeField(2)


def parse_scalar(text: str, field):
    """Parse scalar text in the given field; canonical result, strict syntax."""
    return field.parse(text)
