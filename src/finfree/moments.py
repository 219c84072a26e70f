"""Coefficient / moment / cumulant conversions and the finite-free moment
formulas, all as truncated power series.

Write a monic degree-n polynomial as sum_k a_k x^(n-k) with a_0 = 1, and
m_r for the mean of the r-th powers of its roots (for a matrix A with that
characteristic polynomial, m_r = tr(A^r)/n). Newton's identities link the
two both ways:

    a_k = -(n/k) sum_{i=1}^{k} a_{k-i} m_i
    m_r = -(r/n) a_r - sum_{i=1}^{r-1} a_i m_{r-i}      (a_r = 0 past degree n).

Finite free cumulants follow Arizmendi & Perales, "Cumulants for finite free
convolution", J. Combin. Theory Ser. A (2018), arXiv:1611.06598. Rescale
the coefficients to â_k = a_k (n-k)!/n!; the additive convolution then
multiplies the series F(t) = sum_k â_k t^k, so log F adds, and

    kappa_j = -j n^(j-1) [t^j] log F(t).

Logarithm and exponential are taken term by term from G' F = F' with
G = log F:

    k g_k = k f_k - sum_{i=1}^{k-1} i g_i f_{k-i}        (log)
    k f_k = sum_{i=1}^{k} i g_i f_{k-i}                  (exp, f_0 = 1)

so every conversion of j terms costs O(j^2) scalar operations. The
cumulants so defined are additive for pairs in additive finite free
position, and equal the set-partition moment formula of that paper.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import perm
from typing import Optional, Sequence

from .errors import DimensionMismatchError, IndexRangeError, NonMonicError, ParseError
from .matrices import Matrix, char_poly, moment_vector_of
from .polynomials import Polynomial, boxplus
from .scalars import ONE, ZERO, GaussianRational, as_scalar


@dataclass(frozen=True)
class MomentVector:
    """Moments m_1..m_k of an n x n matrix; canonically k = n, but callers
    may request more (Newton's recursion extends past the degree)."""

    n: int
    values: tuple

    def __post_init__(self):
        object.__setattr__(self, "values", tuple(as_scalar(v) for v in self.values))

    @classmethod
    def of_matrix(cls, a: Matrix, count: Optional[int] = None) -> "MomentVector":
        return cls(a.n, moment_vector_of(a, count))

    @classmethod
    def from_json(cls, obj) -> "MomentVector":
        try:
            return cls(obj["n"], [GaussianRational.parse(v) for v in obj["values"]])
        except (TypeError, KeyError) as exc:
            raise ParseError(f"bad moment vector JSON: {exc}") from None

    def to_json(self) -> dict:
        return {"n": self.n, "values": [str(v) for v in self.values]}

    def __getitem__(self, k: int) -> GaussianRational:
        """1-based access: m[k] is the k-th moment."""
        if not 1 <= k <= len(self.values):
            raise IndexRangeError(f"moment index {k} out of range 1..{len(self.values)}")
        return self.values[k - 1]

    def __len__(self):
        return len(self.values)


@dataclass(frozen=True)
class CumulantVector:
    """Finite free cumulants kappa_1..kappa_n; the order-n dependence is
    recorded because the conversion formulas depend on the dimension."""

    n: int
    values: tuple

    def __post_init__(self):
        object.__setattr__(self, "values", tuple(as_scalar(v) for v in self.values))

    @classmethod
    def from_json(cls, obj) -> "CumulantVector":
        try:
            return cls(obj["n"], [GaussianRational.parse(v) for v in obj["values"]])
        except (TypeError, KeyError) as exc:
            raise ParseError(f"bad cumulant vector JSON: {exc}") from None

    def to_json(self) -> dict:
        return {"n": self.n, "values": [str(v) for v in self.values]}

    def __getitem__(self, k: int) -> GaussianRational:
        if not 1 <= k <= len(self.values):
            raise IndexRangeError(f"cumulant index {k} out of range 1..{len(self.values)}")
        return self.values[k - 1]

    def __len__(self):
        return len(self.values)


# -- coefficients <-> moments -------------------------------------------------


def _newton_coeffs(moments: Sequence, n: int) -> list:
    """a_0..a_k of a degree-n polynomial from its root moments m_1..m_k."""
    coeffs = [ONE]
    for k in range(1, len(moments) + 1):
        acc = ZERO
        for i in range(1, k + 1):
            acc = acc + coeffs[k - i] * moments[i - 1]
        coeffs.append(acc * Fraction(-n, k))
    return coeffs


def _newton_moments(coeffs: Sequence, n: int, count: int) -> list:
    """m_1..m_count of a degree-n polynomial from a_0..a_L, reading a_r = 0
    past L; valid when L = n or L >= count."""
    top = len(coeffs) - 1
    moments: list[GaussianRational] = []
    for r in range(1, count + 1):
        acc = (coeffs[r] if r <= top else ZERO) * Fraction(-r, n)
        for i in range(1, min(r - 1, top) + 1):
            acc = acc - coeffs[i] * moments[r - i - 1]
        moments.append(acc)
    return moments


def coeffs_from_moments(m: MomentVector) -> Polynomial:
    """Monic degree-n polynomial whose root moments are m_1..m_n."""
    n = m.n
    if len(m) < n:
        raise DimensionMismatchError(f"need {n} moments, got {len(m)}")
    return Polynomial(_newton_coeffs(m.values[:n], n))


def moments_from_coeffs(p: Polynomial, count: Optional[int] = None) -> MomentVector:
    """Newton's recursion from a monic polynomial; by default the first n
    moments, optionally more."""
    if not p.is_monic:
        raise NonMonicError("moment extraction needs a monic polynomial")
    n = p.degree
    return MomentVector(n, _newton_moments(p.coeffs, n, n if count is None else count))


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


def _series_log(f: Sequence) -> list:
    """g_0..g_L of log F for F = f_0 + f_1 t + ... + f_L t^L with f_0 = 1."""
    g = [ZERO]
    for k in range(1, len(f)):
        acc = f[k] * k
        for i in range(1, k):
            acc = acc - g[i] * f[k - i] * i
        g.append(acc * Fraction(1, k))
    return g


def _series_exp(g: Sequence) -> list:
    """f_0..f_L of exp G for G = g_1 t + ... + g_L t^L (g_0 is ignored)."""
    f = [ONE]
    for k in range(1, len(g)):
        acc = ZERO
        for i in range(1, k + 1):
            acc = acc + g[i] * f[k - i] * i
        f.append(acc * Fraction(1, k))
    return f


def moments_from_cumulants(kappa: CumulantVector, j: int) -> GaussianRational:
    """m_j from kappa_1..kappa_j.

    exp(sum_k -kappa_k t^k / (k n^(k-1))) gives the â_k, then
    a_k = â_k n(n-1)...(n-k+1) and Newton's recursion gives m_j. Past the
    dimension the falling factorial vanishes, so for j > n only
    kappa_1..kappa_n enter.
    """
    if not 1 <= j <= len(kappa):
        raise IndexRangeError(f"cumulant order {j} outside 1..{len(kappa)}")
    n = kappa.n
    g = [ZERO] + [kappa[k] * Fraction(-1, k * n ** (k - 1)) for k in range(1, min(j, n) + 1)]
    coeffs = [f * perm(n, k) for k, f in enumerate(_series_exp(g))]
    return _newton_moments(coeffs, n, j)[-1]


def cumulants_from_moments(m: MomentVector) -> CumulantVector:
    """kappa_j = -j n^(j-1) [t^j] log F(t) for j up to len(m), with F built
    from the coefficients that Newton's identities give for m."""
    n = m.n
    if len(m) > n:
        raise DimensionMismatchError(
            f"cumulants are defined up to the dimension: {len(m)} moments for n={n}"
        )
    coeffs = _newton_coeffs(m.values, n)
    g = _series_log([a * Fraction(1, perm(n, k)) for k, a in enumerate(coeffs)])
    return CumulantVector(n, [g[j] * (-j * n ** (j - 1)) for j in range(1, len(g))])


def cumulants_of_matrix(a: Matrix) -> CumulantVector:
    return cumulants_from_moments(MomentVector.of_matrix(a))


# -- characterizations and product moments -------------------------------------


def has_single_eigenvalue(a: Matrix) -> bool:
    """True iff chi_A = (x - m_1(A))^n; equivalent to A being in both
    additive and multiplicative finite free position with itself."""
    mean = a.trace() / Fraction(a.n)
    return char_poly(a) == Polynomial.x_power(a.n).shift_argument(mean)


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
