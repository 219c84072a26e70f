"""Finite free position checks.

A pair (A, B) is in additive FFP when chi_{A+B} = chi_A [+] chi_B and in
multiplicative FFP when chi_{AB} = chi_A [x] chi_B. Both are exact
polynomial identities, so verdicts are exact coefficient comparisons with
no tolerance anywhere.

Verdicts compare integers. A and B are stored as their integer forms
d_A*A and d_B*B (``matrices``), and the integer kernel gives the
coefficients P_k of chi_{A+B} (or chi_{AB}) at the scale s = lcm(d_A, d_B)
of the sum, or s = d_A d_B of the product (``matrices._pair_form``), and
A_k, B_k of chi_A and chi_B at d_A and d_B. A_k and B_k come from each
matrix's cached chi, so a matrix checked against many partners has its chi
computed once. The integer convolution (``polynomials._convolve_int``)
picks the same s from d_A and d_B and turns A_k, B_k into N_k and w_k with
coefficient k of the convolution equal to N_k / (w_k s^k), and coefficient
k agrees iff w_k P_k == N_k.

A check is two steps. The integer step (``_ffp_ints``) gives P_k, w_k, N_k
and the indices k where w_k P_k != N_k; the verdict is that this list is
empty. The report (``_report``) is then built from those same ints: its two
polynomials and each nonzero residual (w_k P_k - N_k) / (w_k s^k), the only
Gaussian rationals a check makes. ``check_ffp`` is both steps. Searches that
drop every passing report (``families.verify_pair``'s trials and boundary
witnesses) call ``_failure_report``, which builds the report only for a
failing pair, from the same ints, so no chi is computed twice.

Certain coefficients can never differ and are excluded from the residual
map: x^n and x^{n-1} in the additive case (the traces add), x^n and the
constant term in the multiplicative case (the determinants multiply).
For 1x1 matrices every coefficient is forced, so every pair is in both
kinds of finite free position by convention.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import NamedTuple, Optional

from .errors import DimensionMismatchError, SizeGuardError, _guard
from .kernel import _char_coeffs, _coeffs_from_roots
from .matrices import Matrix, _cached_chi, _pair_form, char_poly
from .polynomials import (
    ADDITIVE,
    MULTIPLICATIVE,
    Polynomial,
    _convolve_int,
    _from_int,
    _product,
    boxplus,
    boxtimes,
)
from .scalars import GaussianRational, _Record, _scaled


@dataclass(frozen=True)
class FfpReport(_Record):
    """Outcome of one finite-free-position check.

    ``residuals`` maps coefficient index k (of x^{n-k}) to the exact
    difference between the characteristic-polynomial side and the
    convolution side; the verdict is True iff every residual is zero.
    """

    kind: str
    verdict: bool
    residuals: dict
    lhs: Polynomial
    rhs: Polynomial


class _FfpInts(NamedTuple):
    """The integer step of a verdict: P_k (``lhs``), w_k and N_k (``rhs``) at
    scale s, and the indices k with w_k P_k != N_k. The pair is in finite free
    position iff ``failing`` is empty."""

    kind: str
    scale: int
    lhs: list
    weights: list
    rhs: list
    failing: list


def _ffp_ints(a: Matrix, b: Matrix, kind: str) -> _FfpInts:
    """The integer step of ``check_ffp``, without the report."""
    product = _product(kind)
    a._require_same_size(b)
    s, ma, mb, combine = _pair_form(a, b, product)
    lhs = _char_coeffs(combine(ma, mb), a.n)
    _, weights, rhs = _convolve_int(_cached_chi(a), a._d, _cached_chi(b), b._d, product)
    # the coefficients that can never differ (module docstring) are not compared
    compared = range(1, a.n) if product else range(2, a.n + 1)
    failing = [k for k in compared if weights[k] * lhs[k] != rhs[k]]
    return _FfpInts(kind, s, lhs, weights, rhs, failing)


def _report(ints: _FfpInts) -> FfpReport:
    """The report from the integer step: its two polynomials and each nonzero
    residual (w_k P_k - N_k) / (w_k s^k)."""
    kind, s, lhs, weights, rhs, failing = ints
    residuals = {}
    for k in failing:
        w = weights[k]
        residuals[k] = _scaled(w * lhs[k] - rhs[k], w * s**k)
    return FfpReport(kind, not failing, residuals, _from_int(lhs, s), _from_int(rhs, s, weights))


def check_ffp(a: Matrix, b: Matrix, kind: str) -> FfpReport:
    """The finite-free-position verdict of the given kind for (A, B)."""
    return _report(_ffp_ints(a, b, kind))


def _failure_report(a: Matrix, b: Matrix, kind: str) -> Optional[FfpReport]:
    """``check_ffp`` for a pair that fails finite free position, and None,
    with no report built, for a pair in it."""
    ints = _ffp_ints(a, b, kind)
    return _report(ints) if ints.failing else None


def is_additive_ffp(a: Matrix, b: Matrix) -> FfpReport:
    """Compare chi_{A+B} against chi_A [+] chi_B coefficient by coefficient."""
    return check_ffp(a, b, ADDITIVE)


def is_multiplicative_ffp(a: Matrix, b: Matrix) -> FfpReport:
    """Compare chi_{AB} against chi_A [x] chi_B coefficient by coefficient."""
    return check_ffp(a, b, MULTIPLICATIVE)


def condition_2x2(a: Matrix, b: Matrix) -> GaussianRational:
    """(a11-a22)(b22-b11) - 2(a12 b21 + a21 b12) for 2x2 A and B: zero iff
    the pair is in additive FFP, and iff it is in multiplicative FFP."""
    if a.n != 2 or b.n != 2:
        raise DimensionMismatchError("closed form only applies to 2x2 matrices")
    return (a.entry(1, 1) - a.entry(2, 2)) * (b.entry(2, 2) - b.entry(1, 1)) - (
        a.entry(1, 2) * b.entry(2, 1) + a.entry(2, 1) * b.entry(1, 2)
    ) * 2


# -- exact expectation over signed permutations --------------------------


def expected_charpoly_signed_perms(a: Matrix, b: Matrix, kind: str) -> Polynomial:
    """Exact average of chi_{A + P^T B P} (or chi_{A P^T B P}) over the
    signed permutation matrices P whose permutation lies in a group G that
    is k-homogeneous for every k: the sign vectors times G.

    The result equals the corresponding finite free convolution exactly for
    every square Gaussian-rational pair, symmetric or not. Averaging over
    the signs kills every term that is not principal: in the Laplace
    expansion of det(xI - A - P^T B P) for the additive case, and in the
    Cauchy-Binet expansion of e_k(A P^T B P) for the multiplicative case.
    What is left is a sum of principal minors of A and of B, averaged over
    the permutations, which is the convolution's coefficient formula as soon
    as the permutations move every k-subset evenly. So the signed
    permutations, a finite quadrature for the Haar mean (Marcus, Spielman &
    Srivastava, PTRF 2022), need only the permutations of such a G
    (Livingstone & Wagner, Math. Z. 90, 1965): S_n for n <= 2, C3 at n = 3,
    A4 at n = 4, AGL(1, 5) at n = 5 and PGL(2, 5) at n = 6.

    P and -P give the same conjugate, so the mean runs over the 2^(n-1) |G|
    matrices P with signs[0] = +1, in ``signed_perms``, which is imported
    here, so no other verb loads it. Both means take every minor of A and
    of B once and build no conjugate and no chi: a coefficient of a
    conjugate is a signed sum of products of a minor of A and a minor of B,
    by Cauchy-Binet for the product and by the expansion of the minors of a
    sum (M. Marcus, "Determinants of sums", College Math. J. 21, 1990) for
    the sum, and one loop serves both kinds, multiplying the terms once per
    permutation and summing them by the index set on which their sign under
    P depends. Each conjugate's coefficients are formed on their own before
    they are added, so the cancellation over the signs, which is what the
    identity asserts, is computed, not assumed.
    """
    a._require_same_size(b)
    n = a.n
    _guard("signed-perms", n)
    product = _product(kind)
    from .signed_perms import _signed_perm_charpoly_mean

    return _signed_perm_charpoly_mean(a, b, product)


# -- Monte-Carlo expectation over Haar unitaries --------------------------


@dataclass(frozen=True)
class HaarAverageResult(_Record):
    """Float average of characteristic polynomials over Haar samples."""

    kind: str
    samples: int
    seed: int
    coeffs: tuple  # real parts, descending degree
    max_deviation: float  # max |avg - exact convolution| over coefficients
    tolerance: Optional[float]
    within_tolerance: Optional[bool]  # None without a tolerance, else max_deviation < tolerance


def _floats(values) -> list:
    """The exact values as complex floats; a value past the float range is
    refused."""
    try:
        return [complex(x) for x in values]
    except OverflowError:
        raise SizeGuardError("a value exceeds the float range of the Monte-Carlo lane") from None


def _finite(x):
    """x, an array or float, once every entry is finite."""
    import numpy as np

    if not np.isfinite(x).all():
        raise SizeGuardError("the Monte-Carlo average overflows the float range")
    return x


def haar_unitaries(n: int, count: int, rng) -> np.ndarray:
    """Haar-distributed unitaries: complex Ginibre, QR, phase correction so
    the R factor has positive real diagonal."""
    import numpy as np

    z = rng.standard_normal((count, n, n)) + 1j * rng.standard_normal((count, n, n))
    q, r = np.linalg.qr(z / math.sqrt(2.0))
    d = np.diagonal(r, axis1=-2, axis2=-1)
    return q * (d / np.abs(d))[:, np.newaxis, :]


def expected_charpoly_haar_mc(
    a: Matrix,
    b: Matrix,
    kind: str,
    samples: int,
    seed: int,
    tolerance: Optional[float] = None,
) -> HaarAverageResult:
    """Monte-Carlo average of chi_{A + U* B U} (or chi_{A U* B U}) over Haar
    samples, reported against the exact convolution.

    This is a statistical diagnostic: the deviation is reported, never
    asserted. Deterministic for a fixed seed (counter-based Philox stream).
    numpy is imported here, not at module level, so every other verb starts
    without it, and only after the sample count has passed its cost guard.
    """
    a._require_same_size(b)
    n = a.n
    if samples < 1:
        raise SizeGuardError("need at least one sample")
    _guard("monte-carlo", samples * max(n, 3) ** 2, samples=samples, n=n)
    import numpy as np

    product = _product(kind)
    a_f = np.array([_floats(row) for row in a.rows])
    b_f = np.array([_floats(row) for row in b.rows])

    exact = boxtimes if product else boxplus
    target = exact(char_poly(a), char_poly(b))
    target_f = np.array(_floats(target.coeffs))

    rng = np.random.Generator(np.random.Philox(seed))

    total = np.zeros(n + 1, dtype=complex)
    chunk = 20000
    # an overflow shows up as inf or nan, refused below, not as a warning
    with np.errstate(all="ignore"):
        for start in range(0, samples, chunk):
            u = haar_unitaries(n, min(chunk, samples - start), rng)
            conj = np.conj(np.transpose(u, (0, 2, 1))) @ b_f @ u
            m = _finite(a_f @ conj if product else a_f + conj)
            roots = np.linalg.eigvals(m)
            # the C_k come as columns over the samples; stacked, one row per sample
            total = total + np.stack(_coeffs_from_roots(roots.T), axis=1).sum(axis=0)
        avg = _finite(total / samples)
        deviation = float(_finite(np.max(np.abs(avg - target_f))))
    return HaarAverageResult(
        kind=kind,
        samples=samples,
        seed=seed,
        coeffs=tuple(float(x) for x in avg.real),
        max_deviation=deviation,
        tolerance=tolerance,
        within_tolerance=None if tolerance is None else deviation < tolerance,
    )


# -- unit-matrix witness ---------------------------------------------------


def ekl_witness(a: Matrix) -> Optional[tuple[int, int, FfpReport]]:
    """A finite witness that a non-diagonal matrix escapes additive FFP.

    If A has a nonzero off-diagonal entry a_{lk}, the unit matrix E_{kl}
    satisfies chi_A [+] chi_{E_kl} = chi_A (neutral element) while
    chi_{A + E_kl} differs from chi_A at x^{n-2} by exactly -a_{lk}.
    Returns 1-based indices (k, l) and the failing report, or None when A
    is diagonal.
    """
    n = a.n
    for k in range(1, n + 1):
        for l in range(1, n + 1):
            if k != l and a._m[l - 1][k - 1]:
                report = is_additive_ffp(a, Matrix.unit(n, k, l))
                return k, l, report
    return None
