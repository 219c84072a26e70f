"""Coefficient / moment / cumulant conversions and the finite-free moment
formulas, all through one pair of Newton recurrences.

A power series F(t) = sum_k f_k t^k with f_0 = 1 has power sums p_r defined
by log F(t) = -sum_r p_r t^r / r. Newton's identities convert either way in
O(k^2) operations:

    p_r = -r f_r - sum_{i=1}^{r-1} f_i p_{r-i}      (f_r = 0 past the end)
    k f_k = -sum_{i=1}^{k} f_{k-i} p_i

For a monic degree-n polynomial sum_k a_k x^(n-k), the series sum_k a_k t^k
is prod_i (1 - x_i t) over its roots x_i, so p_r = sum_i x_i^r = n m_r for
the root moments m_r (tr(A^r)/n when the polynomial is chi_A).

The first identity is ``polynomials._moments``, the one power-sum routine
of the package. It divides by nothing, and it runs on integer forms only:
a matrix's cached chi at the matrix's scale (``matrices``), and here every
series cleared at the scale its coefficients need (``polynomials._cleared``),
so no GaussianRational enters it. The second identity is ``_series``, which
divides by k and stays on GaussianRationals.

Finite free cumulants follow Arizmendi & Perales, "Cumulants for finite free
convolution", J. Combin. Theory Ser. A (2018), arXiv:1611.06598. The
additive convolution multiplies F̂(t) = sum_k â_k t^k, â_k = a_k (n-k)!/n!,
so log F̂ adds, and with p̂ the power sums of F̂

    kappa_j = -j n^(j-1) [t^j] log F̂(t) = n^(j-1) p̂_j = n^j m̂_j,

with m̂_j = p̂_j / n what ``_moments`` gives for F̂.

Moments from cumulants run the same steps in reverse. These cumulants add
for pairs in additive finite free position and equal that paper's
set-partition moment formula.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import comb, perm
from typing import Optional, Sequence

from .errors import (
    DegreeMismatchError, DimensionMismatchError, IndexRangeError, NonMonicError, ParseError,
)
from .matrices import Matrix, char_poly, moment_vector_of
from .polynomials import Polynomial, _cleared, _moment_count, _moments, boxplus
from .scalars import ONE, ZERO, GaussianRational, _Record, as_scalar


@dataclass(frozen=True)
class _Values(_Record):
    """n and a 1-based vector of exact values, named by the subclass's ``_what``."""

    n: int
    values: tuple

    def __post_init__(self):
        if type(self.n) is not int or self.n < 1:
            raise DimensionMismatchError(f"{self._what} vector needs a positive int n, got {self.n!r}")
        if isinstance(self.values, str) or not isinstance(self.values, Sequence):
            raise ParseError(f"{self._what} vector values must be a sequence, got {self.values!r}")
        object.__setattr__(self, "values", tuple(as_scalar(v) for v in self.values))

    def __getitem__(self, k: int) -> GaussianRational:
        if not 1 <= k <= len(self.values):
            raise IndexRangeError(f"{self._what} index {k} out of range 1..{len(self.values)}")
        return self.values[k - 1]

    def __len__(self):
        return len(self.values)


class MomentVector(_Values):
    """Moments m_1..m_k of an n x n matrix; canonically k = n, but callers
    may request more (Newton's recursion extends past the degree)."""

    _what = "moment"

    @classmethod
    def of_matrix(cls, a: Matrix, count: Optional[int] = None) -> "MomentVector":
        return cls(a.n, moment_vector_of(a, count))


class CumulantVector(_Values):
    """Finite free cumulants kappa_1..kappa_n; the order-n dependence is
    recorded because the conversion formulas depend on the dimension."""

    _what = "cumulant"


# -- coefficients <-> moments, through the Newton pair -------------------------


def _series(sums: Sequence, n: int) -> list:
    """f_0..f_k, f_0 = 1, of the series whose power sums are n p_1..n p_k."""
    f = [ONE]
    for k in range(1, len(sums) + 1):
        acc = ZERO
        for i in range(1, k + 1):
            acc = acc + f[k - i] * sums[i - 1]
        f.append(acc * Fraction(-n, k))
    return f


def coeffs_from_moments(m: MomentVector) -> Polynomial:
    """Monic degree-n polynomial whose root moments are m_1..m_n."""
    n = m.n
    if len(m) < n:
        raise DimensionMismatchError(f"need {n} moments, got {len(m)}")
    return Polynomial(_series(m.values[:n], n))


def moments_from_coeffs(p: Polynomial, count: Optional[int] = None) -> MomentVector:
    """Newton's recursion from a monic polynomial of degree n >= 1; by
    default the first n moments, optionally more."""
    if not p.is_monic:
        raise NonMonicError("moment extraction needs a monic polynomial")
    n = p.degree
    if n < 1:
        raise DegreeMismatchError("moment extraction needs degree >= 1")
    return MomentVector(n, _moments(*_cleared(p.coeffs), n, _moment_count(count, n)))


def ffp_sum_moments(
    ma: MomentVector, mb: MomentVector, count: Optional[int] = None
) -> MomentVector:
    """Moments of A + B for a pair in additive finite free position, built by
    converting both moment vectors to coefficients, convolving, and reading
    moments back off."""
    if ma.n != mb.n:
        raise DimensionMismatchError(f"dimension mismatch: {ma.n} vs {mb.n}")
    combined = boxplus(coeffs_from_moments(ma), coeffs_from_moments(mb))
    return moments_from_coeffs(combined, count)


def closed_form_sum_moment(k: int, ma, mb, n: int) -> GaussianRational:
    """The printed closed forms for m_k(A+B), k in 1..4, for additive-FFP
    pairs; the k = 4 formula carries n-1 denominators and needs n >= 2."""
    if k not in (1, 2, 3, 4):
        raise IndexRangeError(f"closed forms exist for k in 1..4, got {k}")
    if k == 4 and n < 2:
        raise IndexRangeError("the fourth-moment formula needs n >= 2")
    a = _moment_list(ma, k)
    b = _moment_list(mb, k)
    if k == 1:
        return a[1] + b[1]
    if k == 2:
        return a[2] + a[1] * b[1] * 2 + b[2]
    if k == 3:
        return a[3] + a[2] * b[1] * 3 + a[1] * b[2] * 3 + b[3]
    heavy = Fraction(2 * n, n - 1)
    return (
        a[4]
        + a[3] * b[1] * 4
        + a[2] * b[1] ** 2 * heavy
        + a[2] * b[2] * Fraction(4 * n - 6, n - 1)
        - a[1] ** 2 * b[1] ** 2 * heavy
        + a[1] ** 2 * b[2] * heavy
        + a[1] * b[3] * 4
        + b[4]
    )


def _moment_list(m, k: int) -> dict:
    values = m.values if isinstance(m, MomentVector) else tuple(as_scalar(v) for v in m)
    if len(values) < k:
        raise DimensionMismatchError(f"need at least {k} moments, got {len(values)}")
    return {i: values[i - 1] for i in range(1, k + 1)}


# -- moments <-> cumulants -----------------------------------------------------


def moments_from_cumulants(kappa: CumulantVector, j: int) -> GaussianRational:
    """m_j from kappa_1..kappa_j. Past the dimension n!/(n-k)! vanishes, so
    for j > n only kappa_1..kappa_n enter."""
    if not 1 <= j <= len(kappa):
        raise IndexRangeError(f"cumulant order {j} outside 1..{len(kappa)}")
    n = kappa.n
    rescaled = _series([kappa[k] * Fraction(1, n ** (k - 1)) for k in range(1, min(j, n) + 1)], 1)
    return _moments(*_cleared([f * perm(n, k) for k, f in enumerate(rescaled)]), n, j)[-1]


def _cumulants(coeffs: Sequence, n: int) -> CumulantVector:
    """kappa_1..kappa_L = n^j m̂_j from a_0..a_L of a degree-n polynomial."""
    rescaled = _cleared([a * Fraction(1, perm(n, k)) for k, a in enumerate(coeffs)])
    moments = _moments(*rescaled, n, len(coeffs) - 1)
    return CumulantVector(n, [m * n**j for j, m in enumerate(moments, 1)])


def cumulants_from_moments(m: MomentVector) -> CumulantVector:
    """kappa_j for j up to len(m), from the coefficients the moments give."""
    n = m.n
    if len(m) > n:
        raise DimensionMismatchError(
            f"cumulants are defined up to the dimension: {len(m)} moments for n={n}"
        )
    return _cumulants(_series(m.values, n), n)


def cumulants_of_matrix(a: Matrix) -> CumulantVector:
    return _cumulants(char_poly(a).coeffs, a.n)


# -- characterizations and product moments -------------------------------------


def has_single_eigenvalue(a: Matrix) -> bool:
    """True iff chi_A = (x - m_1(A))^n, that is iff coefficient k of chi_A is
    C(n, k) (-m_1)^k for every k; equivalent to A being in both additive and
    multiplicative finite free position with itself."""
    n = a.n
    minus_mean = a.trace() / -n
    return all(c == minus_mean**k * comb(n, k) for k, c in enumerate(char_poly(a).coeffs))


def mult_ffp_moment(k: int, ma, mb, n: int) -> GaussianRational:
    """m_k(AB) for pairs in multiplicative finite free position, k in {1, 2}:

        m_1(AB) = m_1(A) m_1(B)
        m_2(AB) = n/(n-1) [m_2(A)m_1(B)^2 + m_1(A)^2 m_2(B) - m_1(A)^2 m_1(B)^2]
                  - 1/(n-1) m_2(A)m_2(B)
    """
    if k not in (1, 2):
        raise IndexRangeError(f"product-moment formulas exist for k in {{1, 2}}, got {k}")
    if k == 2 and n < 2:
        raise IndexRangeError("the second product moment needs n >= 2")
    a = _moment_list(ma, k)
    b = _moment_list(mb, k)
    if k == 1:
        return a[1] * b[1]
    return (a[2] * b[1] ** 2 + a[1] ** 2 * b[2] - a[1] ** 2 * b[1] ** 2) * Fraction(
        n, n - 1
    ) - a[2] * b[2] * Fraction(1, n - 1)
