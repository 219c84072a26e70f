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
(``_cleared``), the d that its coefficients need: starting from d = 1, each
a_k in turn, with q_k the lcm of the denominators of its parts, takes d to
d q_k / gcd(q_k, d^k). That d^k is then a multiple of q_k, and of every
earlier q_j's d^j, so every A_k = a_k d^k is a Gaussian integer; and d
divides the lcm of all the denominators, prime by prime, so no integer
form is larger than at that lcm. A chi cleared this way takes about its
matrix's own scale: 12 bits for a dense 64 x 64 matrix of p/q entries,
|p|, q <= 10, where the lcm takes 709. The FFP verdicts (``ffp``) pass each matrix's cached chi at the
matrix's own scale instead.

Newton's identities run once, in ``_moments``, on the integer form f_k =
a_k d^k: the series sum_k f_k t^k is prod_i (1 - d x_i t) over the roots
x_i, so its power sums are d^r p_r, and the root moments m_r = p_r / n are
its power sums divided by n d^r. The recurrence

    P_r = -r f_r - sum_{i=1}^{r-1} f_i P_{r-i}      (f_r = 0 past the end)

divides by nothing, so it runs on kernel scalars. A matrix's moments (its
cached chi at its scale), a polynomial's, cumulants and moments from
cumulants all go through it (``moments``). No floating point anywhere.
"""

from __future__ import annotations

import math
from math import comb, factorial
from operator import mul
from typing import Iterable

from .errors import DegreeMismatchError, IndexRangeError, NonMonicError, ParseError, _guard
from .scalars import ONE, _GaussInt, _scaled, as_scalar

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
        p = cls(coeffs)
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


def _moment_count(count, n: int) -> int:
    """How many moments to take: n when ``count`` is None, else ``count``
    once the ``moments`` guard admits it; a count below 1 is refused."""
    if count is None:
        return n
    if count < 1:
        raise IndexRangeError(f"moment count must be >= 1, got {count}")
    return _guard("moments", count)


def _moments(f, d: int, n: int, count: int) -> list:
    """m_1..m_count, m_r = P_r / (n d^r), for the power sums P_r of the
    series f_0 + f_1 t + ... with f_0 = 1, f_k = a_k d^k kernel scalars,
    by Newton's identities (module docstring)."""
    top = len(f) - 1
    sums = []
    for r in range(1, count + 1):
        acc = f[r] * -r if r <= top else 0
        for i in range(1, min(r - 1, top) + 1):
            acc = acc - f[i] * sums[r - i - 1]
        sums.append(acc)
    return [_scaled(p, n * d**r) for r, p in enumerate(sums, 1)]


def _cleared(coeffs) -> tuple[list, int]:
    """(A, d) for the monic coefficients a_0..a_n: d the scale they need
    (module docstring), and A_k = a_k d^k as kernel scalars."""
    d = 1
    for k, c in enumerate(coeffs[1:], 1):
        q = math.lcm(c.re.denominator, c.im.denominator)
        d = d * q // math.gcd(q, d**k)
    out = []
    power = 1
    for c in coeffs:
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
    s, weights, out = _convolve_int(*_cleared(p.coeffs), *_cleared(q.coeffs), product)
    return _from_int(out, s, weights)


def boxplus(p: Polynomial, q: Polynomial) -> Polynomial:
    """Additive finite free convolution of two monic degree-n polynomials."""
    return _convolve(p, q, False)


def boxtimes(p: Polynomial, q: Polynomial) -> Polynomial:
    """Multiplicative finite free convolution of two monic degree-n polynomials."""
    return _convolve(p, q, True)
