"""Monic polynomials over the Gaussian rationals and the two finite free
convolutions.

Coefficients are stored in descending degree order, so ``coeffs[k]`` is the
coefficient of ``x^(n-k)`` and ``coeffs[0] == 1`` for monic polynomials.
The additive convolution of monic degree-n polynomials p, q is

    sum_k ( sum_{i+j=k} C(n-i, j)/C(n, j) * a_i * b_j ) x^(n-k)

and the multiplicative convolution is

    sum_k (-1)^k / C(n, k) * a_k * b_k x^(n-k).

Both run over the kernel's scalars: a Gaussian integer is an int or a
``scalars._GaussInt``, and real input gives ints only. Write
a_k = A_k / d_a^k and b_k = B_k / d_b^k with Gaussian integers A_k, B_k and
positive integer scales d_a, d_b. Both convolutions are one coefficient
formula at a scale s chosen per kind, and ``_convolve_int`` is the one place
that chooses it: s = d_a d_b for the multiplicative convolution, which takes
A_k and B_k as they are, and s = lcm(d_a, d_b) for the additive one, which
first brings both sides to s, A_k (s/d_a)^k and B_k (s/d_b)^k. For
i + j = k, C(n-i, j)/C(n, j) = (n-i)!(n-j)! / (n!(n-k)!), so coefficient k
of either convolution is N_k / (w_k s^k) with

    additive:        w_k = n!(n-k)!,  N_k = sum_{i+j=k} (n-i)!(n-j)! A_i B_j
    multiplicative:  w_k = C(n, k),   N_k = (-1)^k A_k B_k,

A_i and B_j in the additive N_k taken at s. Each w_k is a product of
factorials or a binomial, so an integer, and each N_k is a sum of products
of Gaussian integers with integer factors, so a Gaussian integer. The
additive N_k are the product of the sequences (n-i)! A_i and (n-j)! B_j,
cut off after degree n.

``boxplus`` and ``boxtimes`` share one body, ``_convolve``, and ``_product``
reads a kind name as its flag. Each polynomial is cleared at its own scale
(``_cleared``), d the lcm of the denominators of its coefficients' parts:
d^k is a multiple of d for k >= 1 and a_0 = 1, so a_k d^k is a Gaussian
integer. The FFP verdicts (``ffp``) pass each matrix's cached chi at the
matrix's own scale instead. No floating point anywhere.
"""

from __future__ import annotations

import math
from math import comb, factorial
from operator import mul
from typing import Iterable

from .errors import DegreeMismatchError, NonMonicError, ParseError, _guard
from .scalars import ONE, GaussianRational, _GaussInt, _scaled, as_scalar

# the two kinds of convolution, and of finite free position (``ffp``)
ADDITIVE = "additive"
MULTIPLICATIVE = "multiplicative"


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
        if type(degree) is not int:
            raise ParseError(f"polynomial JSON 'degree' must be an integer, got {degree!r}")
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
    _guard("convolution", n)
    if not p.is_monic or not q.is_monic:
        raise NonMonicError("convolution inputs must be monic")
    return n


def _from_int(numerators, s: int, weights=None) -> Polynomial:
    """The polynomial with coefficient k = N_k / (w_k s^k), from kernel
    scalars N_k and positive ints w_k (every w_k = 1 when ``weights`` is None)."""
    weights = weights or [1] * len(numerators)
    return Polynomial(_scaled(z, w * s**k) for k, (z, w) in enumerate(zip(numerators, weights)))


def _power_sums(f, count: int) -> list:
    """p_1..p_count of the series f_0 + f_1 t + ... with f_0 = 1, reading
    f_r = 0 past the end, by Newton's identities

        p_r = -r f_r - sum_{i=1}^{r-1} f_i p_{r-i}.

    The f_r may be kernel scalars (ints or ``_GaussInt``s) or
    GaussianRationals: the recurrence only multiplies, subtracts and scales
    by ints, and divides by nothing."""
    top = len(f) - 1
    sums = []
    for r in range(1, count + 1):
        acc = f[r] * -r if r <= top else 0
        for i in range(1, min(r - 1, top) + 1):
            acc = acc - f[i] * sums[r - i - 1]
        sums.append(acc)
    return sums


def _cleared(p: Polynomial) -> tuple[list, int]:
    """(A, d) for the monic p: d the lcm of the denominators of its
    coefficients' parts, and A_k = a_k d^k as kernel scalars."""
    d = math.lcm(*(c.re.denominator for c in p.coeffs), *(c.im.denominator for c in p.coeffs))
    out = []
    power = 1
    for c in p.coeffs:
        re = c.re.numerator * (power // c.re.denominator)
        out.append(_GaussInt(re, c.im.numerator * (power // c.im.denominator)) if c.im else re)
        power *= d
    return out, d


def _convolve_int(a: list, da: int, b: list, db: int, product: bool) -> tuple[int, list, list]:
    """(s, w, N) for the monic degree-n coefficients a_k = A_k / da^k and
    b_k = B_k / db^k, A_0..A_n and B_0..B_n given as kernel scalars:
    coefficient k of a [x] b (``product``) or of a [+] b is N_k / (w_k s^k),
    N_k a kernel scalar, at s = da db or lcm(da, db) (module docstring)."""
    n = len(a) - 1
    if product:
        return da * db, [comb(n, k) for k in range(n + 1)], [
            x * y * (-1) ** k for k, (x, y) in enumerate(zip(a, b))
        ]
    s = math.lcm(da, db)
    fact = [factorial(n - i) for i in range(n + 1)]
    # (n-i)! A_i and (n-j)! B_j, both sides brought to the scale s
    x = [f * (s // da) ** i * c for i, (f, c) in enumerate(zip(fact, a))]
    y = [f * (s // db) ** j * c for j, (f, c) in enumerate(zip(fact, b))]
    # the terms i + j = k: a runs up from 0, b down from k
    return s, [fact[0] * f for f in fact], [sum(map(mul, x[: k + 1], y[k::-1])) for k in range(n + 1)]


def _product(kind: str) -> bool:
    """Whether ``kind`` names the multiplicative convolution rather than the
    additive one; any other name is a ParseError."""
    if kind not in (ADDITIVE, MULTIPLICATIVE):
        raise ParseError(f"unknown kind {kind!r}")
    return kind == MULTIPLICATIVE


def _convolve(p: Polynomial, q: Polynomial, product: bool) -> Polynomial:
    """p [x] q (``product``) or p [+] q, each side cleared at its own scale
    (module docstring)."""
    _check_pair(p, q)
    s, weights, out = _convolve_int(*_cleared(p), *_cleared(q), product)
    return _from_int(out, s, weights)


def boxplus(p: Polynomial, q: Polynomial) -> Polynomial:
    """Additive finite free convolution of two monic degree-n polynomials."""
    return _convolve(p, q, False)


def boxtimes(p: Polynomial, q: Polynomial) -> Polynomial:
    """Multiplicative finite free convolution of two monic degree-n polynomials."""
    return _convolve(p, q, True)
