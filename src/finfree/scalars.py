"""Exact scalars: Gaussian rationals a + b*i with arbitrary-precision parts.

All verdicts in this toolkit are exact polynomial identities, so the base
field is the Gaussian rationals rather than floating complex numbers.
Values are immutable; every operation returns a new scalar.

The string codec is exact at any size. CPython refuses to convert an int of
more than 4300 decimal digits to or from a string (``sys.int_info``), and
this module never raises that limit: longer digit strings go through
``Decimal``, which has none, so a value of any size prints and parses
exactly.
Exponent forms ("1e-5") are bounded by the ``exponent`` guard
(``errors.GUARDS``) before any power of ten is computed.

The exact integer kernel computes on Gaussian integers instead: an int, or a
``_GaussInt`` when the value is complex, and ``_scaled`` divides either by a
positive integer to give a GaussianRational.

Results reach JSON by one rule, ``_json``: a value with its own ``to_json``
gives that, containers map through, an enum gives its value and a
GaussianRational its string. ``_Record`` is the base of the frozen
dataclasses that serialize as their fields.
"""

from __future__ import annotations

import math
import re
from decimal import Decimal
from enum import Enum
from fractions import Fraction

from .errors import GUARDS, ParseError, SizeGuardError, _guard

_ZERO = Fraction(0)


def _coerce(value):
    if isinstance(value, GaussianRational):
        return value
    if isinstance(value, (int, Fraction)):
        return GaussianRational(value)
    return None


def _coerced(method):
    """The binary operator ``method`` with its operand coerced to a
    GaussianRational first, and NotImplemented for any other operand."""

    def operator(self, other):
        other = _coerce(other)
        if other is None:
            return NotImplemented
        return method(self, other)

    return operator


# CPython lets its int/str digit limit go no lower than 640 digits, so ints of
# at most 2000 bits (602 digits) and strings of at most 600 characters always
# convert directly; Decimal converts longer ones, as it has no such limit
_SAFE_BITS = 2000
_SAFE_DIGITS = 600


def _int_str(x: int) -> str:
    return str(x) if x.bit_length() <= _SAFE_BITS else str(Decimal(x))


def _rational_str(q: Fraction) -> str:
    if q.denominator == 1:
        return _int_str(q.numerator)
    return f"{_int_str(q.numerator)}/{_int_str(q.denominator)}"


def _rational(text: str) -> Fraction:
    """Fraction(text) with a bounded exponent, and without the digit limit."""
    # an exponent form ends in e<digits>, as Fraction reads it
    _, e, exponent = text.lower().rpartition("e")
    exponent = exponent.strip().lstrip("+-").replace("_", "").lstrip("0")
    if e and exponent.isdecimal():
        # a longer digit string than the limit's is past it, and int() never reads it
        past = len(exponent) > len(str(GUARDS["exponent"][0]))
        _guard("exponent", math.inf if past else int(exponent), text=text[:40])
    try:
        return Fraction(text)
    except ValueError:
        if len(text) <= _SAFE_DIGITS:
            raise
    # Fraction refused a digit run past the limit: it checks the grammar on the
    # text with every digit run cut to one digit, and Decimal reads the digits
    Fraction(re.sub(r"\d+", "1", text))
    num, slash, den = text.partition("/")
    return Fraction(int(Decimal(num)), int(Decimal(den))) if slash else Fraction(Decimal(text))


class GaussianRational:
    """A complex number with exact rational real and imaginary parts.

    ``Fraction`` keeps both parts in lowest terms with positive denominator,
    so equality is exact structural equality. Arithmetic follows the usual
    complex rules; division by zero raises ``ZeroDivisionError``.
    """

    __slots__ = ("re", "im")

    # Fraction is immutable, so every real scalar can share one zero imaginary part
    def __init__(self, re=_ZERO, im=_ZERO):
        self.re = re if isinstance(re, Fraction) else Fraction(re)
        self.im = im if isinstance(im, Fraction) else Fraction(im)

    # -- constructors -------------------------------------------------

    @classmethod
    def from_json(cls, value) -> "GaussianRational":
        """Decode a JSON scalar: a string encoding (see ``parse``) or an integer."""
        if isinstance(value, bool):
            raise ParseError(f"cannot interpret {value!r} as an exact scalar")
        return as_scalar(value)

    @classmethod
    def parse(cls, text: str) -> "GaussianRational":
        """Parse the string encoding: "p/q", "p/q+r/s*i", "r/s*i".

        Denominators of 1 may be omitted; signs are explicit. Either part may
        also be a decimal or exponent form that ``Fraction`` reads ("1e-5"),
        with |exponent| at most the ``exponent`` guard's limit (else
        ``SizeGuardError``).
        This is the inverse of ``str()`` and round-trips bit-exactly.
        """
        s = text.strip().replace(" ", "")
        if not s:
            raise ParseError("empty scalar string")
        try:
            if not s.endswith("*i"):
                return cls(_rational(s))
            body = s[:-2]
            # split at the last interior sign: "<re><sign><|im|>"; a sign
            # after e/E belongs to an exponent, as in "1e-5*i"
            for idx in range(len(body) - 1, 0, -1):
                if body[idx] in "+-" and body[idx - 1] not in "+-/eE":
                    return cls(_rational(body[:idx]), _rational(body[idx:]))
            return cls(0, _rational(body))
        except SizeGuardError:
            raise
        except (ValueError, ZeroDivisionError) as exc:
            raise ParseError(f"bad scalar string {text!r}: {exc}") from None

    # -- arithmetic ---------------------------------------------------

    @_coerced
    def __add__(self, other):
        return GaussianRational(self.re + other.re, self.im + other.im)

    __radd__ = __add__

    @_coerced
    def __sub__(self, other):
        return GaussianRational(self.re - other.re, self.im - other.im)

    @_coerced
    def __rsub__(self, other):
        return other - self

    @_coerced
    def __mul__(self, other):
        a, b, c, d = self.re, self.im, other.re, other.im
        if not b and not d:
            return GaussianRational(a * c)
        return GaussianRational(a * c - b * d, a * d + b * c)

    __rmul__ = __mul__

    @_coerced
    def __truediv__(self, other):
        a, b, c, d = self.re, self.im, other.re, other.im
        if not d:
            if not c:
                raise ZeroDivisionError("division by zero scalar")
            return GaussianRational(a / c, b / c)
        norm = c * c + d * d
        return GaussianRational((a * c + b * d) / norm, (b * c - a * d) / norm)

    @_coerced
    def __rtruediv__(self, other):
        return other / self

    def __neg__(self):
        return GaussianRational(-self.re, -self.im)

    def __pow__(self, exponent: int):
        if not isinstance(exponent, int) or exponent < 0:
            return NotImplemented
        result = ONE
        base = self
        k = exponent
        while k:
            if k & 1:
                result = result * base
            base = base * base
            k >>= 1
        return result

    # -- comparisons / hashing ----------------------------------------

    def __bool__(self) -> bool:
        return bool(self.re) or bool(self.im)

    @_coerced
    def __eq__(self, other):
        return self.re == other.re and self.im == other.im

    def __hash__(self):
        # matches the numeric tower for real values, e.g. hash(x) == hash(2)
        if not self.im:
            return hash(self.re)
        return hash((self.re, self.im))

    # -- conversion ---------------------------------------------------

    def __complex__(self) -> complex:
        return complex(float(self.re), float(self.im))

    def __str__(self) -> str:
        if not self.im:
            return _rational_str(self.re)
        sign = "+" if self.im > 0 else "-"
        return f"{_rational_str(self.re)}{sign}{_rational_str(abs(self.im))}*i"

    def __repr__(self) -> str:
        return f"GaussianRational({self})"


class _GaussInt:
    """A Gaussian integer: the exact kernel's scalar on complex input, where
    real input keeps plain ints.

    Named ``real``/``imag`` like int's own attributes, so ints and these mix
    in either operand order; ``//`` is only ever used where the divisor
    divides exactly.
    """

    __slots__ = ("real", "imag")

    def __init__(self, real: int, imag: int):
        self.real = real
        self.imag = imag

    def __mul__(self, other):
        a, b, c, d = self.real, self.imag, other.real, other.imag
        return _GaussInt(a * c - b * d, a * d + b * c)

    __rmul__ = __mul__

    def __add__(self, other):
        return _GaussInt(self.real + other.real, self.imag + other.imag)

    __radd__ = __add__

    def __sub__(self, other):
        return _GaussInt(self.real - other.real, self.imag - other.imag)

    def __rsub__(self, other):
        return _GaussInt(other.real - self.real, other.imag - self.imag)

    def __floordiv__(self, other):
        a, b, c, d = self.real, self.imag, other.real, other.imag
        norm = c * c + d * d
        return _GaussInt((a * c + b * d) // norm, (b * c - a * d) // norm)

    def __neg__(self):
        return _GaussInt(-self.real, -self.imag)

    def __eq__(self, other):
        return self.real == other.real and self.imag == other.imag

    def __hash__(self):
        # equal to an int's hash when real, as equality with ints requires
        return hash((self.real, self.imag)) if self.imag else hash(self.real)

    def __bool__(self):
        return bool(self.real or self.imag)

    def __repr__(self) -> str:
        return f"_GaussInt({self.real}, {self.imag})"


def _scaled(z, d: int) -> GaussianRational:
    """The kernel scalar z, an int or a ``_GaussInt``, divided by the
    positive integer d."""
    return GaussianRational(Fraction(z.real, d), Fraction(z.imag, d) if z.imag else _ZERO)


ZERO = GaussianRational(0)
ONE = GaussianRational(1)


def _json(value):
    """The JSON form of a result, by one rule, checked in this order: a value
    with its own ``to_json`` gives what that returns; a dict gives a dict
    with str keys; a list or tuple gives a list; an enum gives its value; a
    GaussianRational gives its string; anything else is returned as it is."""
    if hasattr(value, "to_json"):
        return value.to_json()
    if isinstance(value, dict):
        return {str(k): _json(v) for k, v in value.items()}
    if isinstance(value, (list, tuple)):
        return [_json(v) for v in value]
    if isinstance(value, Enum):
        return value.value
    if isinstance(value, GaussianRational):
        return str(value)
    return value


class _Record:
    """Base of a dataclass whose JSON form maps each field name to ``_json``
    of its value. It reads ``__dataclass_fields__`` directly, so this module
    needs no ``dataclasses``."""

    def to_json(self) -> dict:
        return {name: _json(getattr(self, name)) for name in self.__dataclass_fields__}


def as_scalar(value) -> GaussianRational:
    """Coerce an int, Fraction, string (see ``GaussianRational.parse``), or
    GaussianRational."""
    scalar = _coerce(value)
    if scalar is not None:
        return scalar
    if isinstance(value, str):
        return GaussianRational.parse(value)
    raise ParseError(f"cannot interpret {value!r} as an exact scalar")
