"""Monic polynomials over the Gaussian rationals and the two finite free
convolutions.

Coefficients are stored in descending degree order, so ``coeffs[k]`` is the
coefficient of ``x^(n-k)`` and ``coeffs[0] == 1`` for monic polynomials.
The additive convolution of monic degree-n polynomials p, q is

    sum_k ( sum_{i+j=k} C(n-i, j)/C(n, j) * a_i * b_j ) x^(n-k)

and the multiplicative convolution is

    sum_k (-1)^k / C(n, k) * a_k * b_k x^(n-k).

Both run over Python ints. Write a_k = A_k / s^k and b_k = B_k / s^k with
Gaussian integers A_k, B_k and one positive integer scale s (for the
multiplicative convolution a_k = A_k / d_p^k, b_k = B_k / d_q^k and
s = d_p d_q). For i + j = k, C(n-i, j)/C(n, j) = (n-i)!(n-j)! / (n!(n-k)!),
so coefficient k of either convolution is N_k / (w_k s^k) with

    additive:        w_k = n!(n-k)!,  N_k = sum_{i+j=k} (n-i)!(n-j)! A_i B_j
    multiplicative:  w_k = C(n, k),   N_k = (-1)^k A_k B_k.

Each w_k is a product of factorials or a binomial, so an integer, and each
N_k is a sum of products of Gaussian integers with integer factors, so a
Gaussian integer. The additive N_k are the product of the sequences
(n-i)! A_i and (n-j)! B_j, cut off after degree n.

``boxplus`` and ``boxtimes`` clear each polynomial with d, the lcm of the
denominators of its coefficients' parts: d^k is a multiple of d for k >= 1
and a_0 = 1, so a_k d^k is a Gaussian integer. The additive convolution
brings both to s = lcm(d_p, d_q); the multiplicative one takes
s = d_p d_q. The FFP verdicts (``ffp``) take A_k and B_k from the integer
matrix kernel at the same scales instead. No floating point anywhere.
"""

from __future__ import annotations

import math
from math import comb, factorial
from operator import mul
from typing import Iterable

from .errors import DegreeMismatchError, NonMonicError, ParseError
from .scalars import ONE, GaussianRational, _scaled, as_scalar


class Polynomial:
    """Immutable dense polynomial with exact scalar coefficients."""

    __slots__ = ("coeffs",)

    def __init__(self, coeffs: Iterable):
        cs = tuple(as_scalar(c) for c in coeffs)
        if not cs:
            raise ParseError("a polynomial needs at least one coefficient")
        self.coeffs = cs

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


def _from_int(numerators, s: int, weights=None) -> Polynomial:
    """The polynomial with coefficient k = N_k / (w_k s^k), from (re, im) int
    pairs N_k and positive ints w_k (every w_k = 1 when ``weights`` is None)."""
    if weights is None:
        return Polynomial(_scaled(z, s**k) for k, z in enumerate(numerators))
    return Polynomial(_scaled(z, w * s**k) for k, (z, w) in enumerate(zip(numerators, weights)))


def _cleared(p: Polynomial, s: int) -> list:
    """A_k = a_k s^k as (re, im) int pairs; s is a multiple of every
    denominator in p, which is monic."""
    out = []
    power = 1
    for c in p.coeffs:
        out.append((c.re.numerator * (power // c.re.denominator),
                    c.im.numerator * (power // c.im.denominator)))
        power *= s
    return out


def _denominator(p: Polynomial) -> int:
    return math.lcm(*(c.re.denominator for c in p.coeffs), *(c.im.denominator for c in p.coeffs))


def _convolve_int(a: list, b: list, product: bool) -> tuple[list, list]:
    """(w, N) for the monic degree-n coefficients A_0..A_n and B_0..B_n, given
    as (re, im) int pairs: coefficient k of a [x] b (``product``) or of
    a [+] b is N_k / (w_k s^k), N_k an (re, im) int pair (module docstring)."""
    n = len(a) - 1
    if product:
        out = []
        for k, ((ar, ai), (br, bi)) in enumerate(zip(a, b)):
            sign = -1 if k & 1 else 1
            out.append((sign * (ar * br - ai * bi), sign * (ar * bi + ai * br)))
        return [comb(n, k) for k in range(n + 1)], out
    fact = [factorial(n - i) for i in range(n + 1)]
    ar = list(map(mul, fact, (z[0] for z in a)))
    br = list(map(mul, fact, (z[0] for z in b)))
    ai = list(map(mul, fact, (z[1] for z in a)))
    bi = list(map(mul, fact, (z[1] for z in b)))
    out = []
    for k in range(n + 1):
        # the terms i + j = k: a runs up from 0, b down from k
        xr, xi, yr, yi = ar[: k + 1], ai[: k + 1], br[k::-1], bi[k::-1]
        re = sum(map(mul, xr, yr)) - sum(map(mul, xi, yi))
        out.append((re, sum(map(mul, xr, yi)) + sum(map(mul, xi, yr))))
    return [fact[0] * f for f in fact], out


# the two kinds of convolution, and of finite free position (``ffp``)
ADDITIVE = "additive"
MULTIPLICATIVE = "multiplicative"


def boxplus(p: Polynomial, q: Polynomial) -> Polynomial:
    """Additive finite free convolution of two monic degree-n polynomials."""
    _check_pair(p, q)
    s = math.lcm(_denominator(p), _denominator(q))
    weights, out = _convolve_int(_cleared(p, s), _cleared(q, s), False)
    return _from_int(out, s, weights)


def boxtimes(p: Polynomial, q: Polynomial) -> Polynomial:
    """Multiplicative finite free convolution of two monic degree-n polynomials."""
    _check_pair(p, q)
    dp, dq = _denominator(p), _denominator(q)
    weights, out = _convolve_int(_cleared(p, dp), _cleared(q, dq), True)
    return _from_int(out, dp * dq, weights)

