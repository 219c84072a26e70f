"""Monic polynomials over the Gaussian rationals and the two finite free
convolutions.

Coefficients are stored in descending degree order, so ``coeffs[k]`` is the
coefficient of ``x^(n-k)`` and ``coeffs[0] == 1`` for monic polynomials.
The additive convolution of monic degree-n polynomials p, q is

    sum_k ( sum_{i+j=k} C(n-i, j)/C(n, j) * a_i * b_j ) x^(n-k)

and the multiplicative convolution is

    sum_k (-1)^k / C(n, k) * a_k * b_k x^(n-k).

Both are computed with exact big-integer binomials; no floating point.
"""

from __future__ import annotations

from fractions import Fraction
from math import comb, perm
from typing import Iterable, Sequence

from .errors import DegreeMismatchError, IndexRangeError, NonMonicError, ParseError
from .scalars import ONE, ZERO, GaussianRational, as_scalar


class Polynomial:
    """Immutable dense polynomial with exact scalar coefficients."""

    __slots__ = ("coeffs",)

    def __init__(self, coeffs: Iterable):
        cs = tuple(as_scalar(c) for c in coeffs)
        if not cs:
            raise ParseError("a polynomial needs at least one coefficient")
        self.coeffs = cs

    @classmethod
    def x_power(cls, n: int) -> "Polynomial":
        """x^n, the neutral element of the additive convolution."""
        return cls([ONE] + [ZERO] * n)

    @classmethod
    def from_json(cls, obj) -> "Polynomial":
        try:
            degree = obj["degree"]
            coeffs = obj["coeffs"]
        except (TypeError, KeyError) as exc:
            raise ParseError(f"polynomial JSON needs 'degree' and 'coeffs': {exc}") from None
        if not isinstance(coeffs, list):
            raise ParseError("polynomial JSON 'coeffs' must be a list")
        p = cls(GaussianRational.from_json(c) for c in coeffs)
        if p.degree != degree:
            raise ParseError(f"declared degree {degree} but {len(coeffs)} coefficients")
        return p

    def to_json(self) -> dict:
        return {"degree": self.degree, "coeffs": [str(c) for c in self.coeffs]}

    @property
    def degree(self) -> int:
        return len(self.coeffs) - 1

    @property
    def is_monic(self) -> bool:
        return self.coeffs[0] == ONE

    def coeff(self, k: int) -> GaussianRational:
        """Coefficient a_k of x^(n-k)."""
        return self.coeffs[k]

    # -- algebra --------------------------------------------------------

    def __add__(self, other: "Polynomial") -> "Polynomial":
        if not isinstance(other, Polynomial):
            return NotImplemented
        a, b = self.coeffs, other.coeffs
        if len(a) < len(b):
            a, b = b, a
        pad = len(a) - len(b)
        return Polynomial(a[:pad] + tuple(x + y for x, y in zip(a[pad:], b)))

    def scale(self, factor) -> "Polynomial":
        s = as_scalar(factor)
        return Polynomial(c * s for c in self.coeffs)

    def evaluate(self, x0) -> GaussianRational:
        """Exact Horner evaluation at x0."""
        x0 = as_scalar(x0)
        acc = ZERO
        for c in self.coeffs:
            acc = acc * x0 + c
        return acc

    def derivative(self, k: int = 1) -> "Polynomial":
        """Exact k-th formal derivative (not necessarily monic).

        The n-th derivative of a monic degree-n polynomial is the constant n!.
        """
        n = self.degree
        if not 0 <= k <= n:
            raise IndexRangeError(f"derivative order {k} out of range for degree {n}")
        if k == 0:
            return self
        # coefficient of x^(n-j) picks up the falling factorial (n-j)(n-j-1)...
        return Polynomial(self.coeffs[j] * perm(n - j, k) for j in range(n - k + 1))

    def shift_argument(self, shift) -> "Polynomial":
        """The polynomial x -> p(x - shift), by exact binomial expansion."""
        lam = as_scalar(shift)
        n = self.degree
        out = [ZERO] * (n + 1)
        for j, c in enumerate(self.coeffs):
            if not c:
                continue
            m = n - j  # expand c * (x - lam)^m
            power = ONE
            for t in range(m + 1):
                out[j + t] = out[j + t] + c * comb(m, t) * power
                power = power * (-lam)
        return Polynomial(out)

    # -- comparisons ------------------------------------------------------

    def __eq__(self, other):
        return isinstance(other, Polynomial) and self.coeffs == other.coeffs

    def __hash__(self):
        return hash(self.coeffs)

    def __str__(self) -> str:
        n = self.degree
        parts = []
        for k, c in enumerate(self.coeffs):
            if not c:
                continue
            mono = "1" if k == n else ("x" if k == n - 1 else f"x^{n - k}")
            if k == n:
                parts.append(str(c))
            elif c == ONE:
                parts.append(mono)
            else:
                parts.append(f"({c})*{mono}")
        return " + ".join(parts) if parts else "0"

    def __repr__(self) -> str:
        return f"Polynomial([{', '.join(str(c) for c in self.coeffs)}])"


def _check_pair(p: Polynomial, q: Polynomial) -> int:
    if p.degree != q.degree:
        raise DegreeMismatchError(f"degrees differ: {p.degree} vs {q.degree}")
    n = p.degree
    if n < 1:
        raise DegreeMismatchError("convolutions need degree >= 1")
    if not p.is_monic or not q.is_monic:
        raise NonMonicError("convolution inputs must be monic")
    return n


def boxplus(p: Polynomial, q: Polynomial) -> Polynomial:
    """Additive finite free convolution of two monic degree-n polynomials."""
    n = _check_pair(p, q)
    a, b = p.coeffs, q.coeffs
    out = []
    for k in range(n + 1):
        acc = ZERO
        for i in range(k + 1):
            j = k - i
            acc = acc + a[i] * b[j] * Fraction(comb(n - i, j), comb(n, j))
        out.append(acc)
    return Polynomial(out)


def boxtimes(p: Polynomial, q: Polynomial) -> Polynomial:
    """Multiplicative finite free convolution of two monic degree-n polynomials."""
    n = _check_pair(p, q)
    return Polynomial(
        p.coeffs[k] * q.coeffs[k] * Fraction((-1) ** k, comb(n, k)) for k in range(n + 1)
    )


def shift_argument(p: Polynomial, shift) -> Polynomial:
    return p.shift_argument(shift)


def derivative(p: Polynomial, k: int) -> Polynomial:
    return p.derivative(k)


def evaluate(p: Polynomial, x0) -> GaussianRational:
    return p.evaluate(x0)


def average(polys: Sequence[Polynomial]) -> Polynomial:
    """Exact arithmetic mean of same-degree polynomials."""
    if not polys:
        raise DegreeMismatchError("cannot average zero polynomials")
    total = polys[0]
    for p in polys[1:]:
        total = total + p
    return total.scale(Fraction(1, len(polys)))
