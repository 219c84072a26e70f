"""Finite free position checks.

A pair (A, B) is in additive FFP when chi_{A+B} = chi_A [+] chi_B and in
multiplicative FFP when chi_{AB} = chi_A [x] chi_B. Both are exact
polynomial identities, so verdicts are exact coefficient comparisons with
no tolerance anywhere.

Verdicts compare integers. A and B are stored as their integer forms
d_A*A and d_B*B (``matrices``), and the integer kernel gives the
coefficients P_k, A_k, B_k of chi_{A+B} (or chi_{AB}), chi_A and chi_B, all
at one scale s: s = lcm(d_A, d_B) for the sum, s = d_A d_B for the product.
A_k and B_k come from each matrix's cached chi, so a matrix checked against
many partners has its chi computed once. The integer convolution
(``polynomials``) turns A_k, B_k into N_k and w_k with coefficient k of
the convolution equal to N_k / (w_k s^k), and coefficient k agrees iff
w_k P_k == N_k. Gaussian rationals are built only for the report: its two
polynomials and each nonzero residual (w_k P_k - N_k) / (w_k s^k).

Certain coefficients can never differ and are excluded from the residual
map: x^n and x^{n-1} in the additive case (the traces add), x^n and the
constant term in the multiplicative case (the determinants multiply).
For 1x1 matrices every coefficient is forced, so every pair is in both
kinds of finite free position by convention.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from typing import Iterable, Optional

from .errors import DimensionMismatchError, ParseError, SizeGuardError
from .kernel import _char_coeffs
from .matrices import Matrix, _chi_at, _pair_form, _signed_perm_charpoly_mean, char_poly
from .polynomials import Polynomial, _convolve_int, _from_int, boxplus, boxtimes
from .scalars import GaussianRational, _scaled

ADDITIVE = "additive"
MULTIPLICATIVE = "multiplicative"

# 2^(n-1) n! conjugates, one char_poly each: at n = 6 a dense rational pair takes
# about 3.7 s (additive) and 5.2 s (multiplicative), a Gaussian pair 11.6 and 17.0 s
# (Python 3.11, 2-vCPU Xeon VM); n = 7 is 14 times as many conjugates
SIGNED_PERM_LIMIT = 6


@dataclass(frozen=True)
class FfpReport:
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

    def to_json(self) -> dict:
        return {
            "kind": self.kind,
            "verdict": self.verdict,
            "residuals": {str(k): str(v) for k, v in self.residuals.items()},
            "lhs": self.lhs.to_json(),
            "rhs": self.rhs.to_json(),
        }

    @classmethod
    def from_json(cls, obj) -> "FfpReport":
        try:
            return cls(
                kind=obj["kind"],
                verdict=obj["verdict"],
                residuals={int(k): GaussianRational.parse(v) for k, v in obj["residuals"].items()},
                lhs=Polynomial.from_json(obj["lhs"]),
                rhs=Polynomial.from_json(obj["rhs"]),
            )
        except (TypeError, KeyError) as exc:
            raise ParseError(f"bad FFP report JSON: {exc}") from None


def _residual_indices(kind: str, n: int) -> range:
    if kind == ADDITIVE:
        return range(2, n + 1)
    return range(1, n)


def _verdict(kind: str, a: Matrix, b: Matrix) -> FfpReport:
    a._require_same_size(b)
    n = a.n
    product = kind == MULTIPLICATIVE
    s, ma, mb, combine = _pair_form(a, b, product)
    lhs = _char_coeffs(combine(ma, mb), n)
    # chi_A and chi_B at the scales of M_A and M_B, from the matrices' cached chi
    scale_a, scale_b = (a._d, b._d) if product else (s, s)
    weights, rhs = _convolve_int(_chi_at(a, scale_a), _chi_at(b, scale_b), product)
    residuals = {}
    for k in _residual_indices(kind, n):
        w, (pr, pi), (nr, ni) = weights[k], lhs[k], rhs[k]
        diff = (w * pr - nr, w * pi - ni)
        if diff != (0, 0):
            residuals[k] = _scaled(diff, w * s**k)
    return FfpReport(kind, not residuals, residuals, _from_int(lhs, s), _from_int(rhs, s, weights))


def is_additive_ffp(a: Matrix, b: Matrix) -> FfpReport:
    """Compare chi_{A+B} against chi_A [+] chi_B coefficient by coefficient."""
    return _verdict(ADDITIVE, a, b)


def is_multiplicative_ffp(a: Matrix, b: Matrix) -> FfpReport:
    """Compare chi_{AB} against chi_A [x] chi_B coefficient by coefficient."""
    return _verdict(MULTIPLICATIVE, a, b)


def check_ffp(a: Matrix, b: Matrix, kind: str) -> FfpReport:
    if kind == ADDITIVE:
        return is_additive_ffp(a, b)
    if kind == MULTIPLICATIVE:
        return is_multiplicative_ffp(a, b)
    raise ParseError(f"unknown kind {kind!r}")


def _condition_2x2(a: Matrix, b: Matrix) -> GaussianRational:
    if a.n != 2 or b.n != 2:
        raise DimensionMismatchError("closed form only applies to 2x2 matrices")
    return (a.entry(1, 1) - a.entry(2, 2)) * (b.entry(2, 2) - b.entry(1, 1)) - (
        a.entry(1, 2) * b.entry(2, 1) + a.entry(2, 1) * b.entry(1, 2)
    ) * 2


def additive_condition_2x2(a: Matrix, b: Matrix) -> GaussianRational:
    """(a11-a22)(b22-b11) - 2(a12 b21 + a21 b12); zero iff additive FFP."""
    return _condition_2x2(a, b)


def multiplicative_condition_2x2(a: Matrix, b: Matrix) -> GaussianRational:
    """Same expression as the additive case; zero iff multiplicative FFP."""
    return _condition_2x2(a, b)


# -- exact expectation over signed permutations --------------------------


def signed_permutations(n: int) -> Iterable[tuple[tuple[int, ...], tuple[int, ...]]]:
    """All 2^n n! signed permutations as (permutation, sign vector) pairs.

    The pair (perm, signs) is the matrix P with P e_j = signs[j] e_{perm[j]}.
    Permutations come in lexicographic order, sign vectors count in binary
    with +1 first; exactness makes any reduction order equivalent.
    """
    for perm in itertools.permutations(range(n)):
        for bits in itertools.product((1, -1), repeat=n):
            yield perm, bits


def expected_charpoly_signed_perms(a: Matrix, b: Matrix, kind: str) -> Polynomial:
    """Exact average of chi_{A + P^T B P} (or chi_{A P^T B P}) over all
    signed permutation matrices P.

    The result equals the corresponding finite free convolution exactly for
    every square Gaussian-rational pair, symmetric or not. Averaging over
    the signs kills every term that is not principal: in the Laplace
    expansion of det(xI - A - P^T B P) for the additive case, and in the
    Cauchy-Binet expansion of e_k(A P^T B P) for the multiplicative case.
    What is left is a sum of principal minors of A and of B, averaged over
    the permutations, which is the convolution's coefficient formula.
    """
    a._require_same_size(b)
    n = a.n
    if n > SIGNED_PERM_LIMIT:
        raise SizeGuardError(f"signed-permutation enumeration refused for n={n} > {SIGNED_PERM_LIMIT}")
    if kind not in (ADDITIVE, MULTIPLICATIVE):
        raise ParseError(f"unknown kind {kind!r}")
    # Q and -Q give the same conjugate Q^T B Q: average over the half with signs[0] = +1
    half = (q for q in signed_permutations(n) if q[1][0] == 1)
    return _signed_perm_charpoly_mean(a, b, kind == MULTIPLICATIVE, half)


# -- Monte-Carlo expectation over Haar unitaries --------------------------


@dataclass(frozen=True)
class HaarAverageResult:
    """Float average of characteristic polynomials over Haar samples."""

    kind: str
    samples: int
    seed: int
    coeffs: tuple  # real parts, descending degree
    max_deviation: float  # max |avg - exact convolution| over coefficients
    tolerance: Optional[float]

    @property
    def within_tolerance(self) -> Optional[bool]:
        if self.tolerance is None:
            return None
        return self.max_deviation < self.tolerance

    def to_json(self) -> dict:
        return {
            "kind": self.kind,
            "samples": self.samples,
            "seed": self.seed,
            "coeffs": list(self.coeffs),
            "max_deviation": self.max_deviation,
            "tolerance": self.tolerance,
            "within_tolerance": self.within_tolerance,
        }


def haar_unitaries(n: int, count: int, rng) -> np.ndarray:
    """Haar-distributed unitaries: complex Ginibre, QR, phase correction so
    the R factor has positive real diagonal."""
    import numpy as np

    z = rng.standard_normal((count, n, n)) + 1j * rng.standard_normal((count, n, n))
    q, r = np.linalg.qr(z / math.sqrt(2.0))
    d = np.diagonal(r, axis1=-2, axis2=-1)
    return q * (d / np.abs(d))[:, np.newaxis, :]


def _charpoly_coeffs_from_roots(roots: np.ndarray) -> np.ndarray:
    """Batched monic coefficients (descending) from eigenvalue batches."""
    import numpy as np

    count, n = roots.shape
    coeffs = np.zeros((count, n + 1), dtype=complex)
    coeffs[:, 0] = 1.0
    for k in range(n):
        r = roots[:, k][:, np.newaxis]
        coeffs[:, 1 : k + 2] = coeffs[:, 1 : k + 2] - r * coeffs[:, 0 : k + 1]
    return coeffs


def expected_charpoly_haar_mc(
    a: Matrix,
    b: Matrix,
    kind: str,
    samples: int,
    seed: int,
    tolerance: Optional[float] = None,
    unitaries: Optional[Iterable[np.ndarray]] = None,
) -> HaarAverageResult:
    """Monte-Carlo average of chi_{A + U* B U} (or chi_{A U* B U}) over Haar
    samples, reported against the exact convolution.

    This is a statistical diagnostic: the deviation is reported, never
    asserted. Deterministic for a fixed seed (counter-based Philox stream).
    ``unitaries`` overrides the sampler with an explicit batch, which is
    useful for forcing U = I in tests. numpy is imported here, not at
    module level, so every other verb starts without it.
    """
    import numpy as np

    a._require_same_size(b)
    if samples < 1:
        raise SizeGuardError("need at least one sample")
    if kind not in (ADDITIVE, MULTIPLICATIVE):
        raise ParseError(f"unknown kind {kind!r}")
    n = a.n
    a_f = np.array([[complex(x) for x in row] for row in a.rows])
    b_f = np.array([[complex(x) for x in row] for row in b.rows])

    exact = boxplus if kind == ADDITIVE else boxtimes
    target = exact(char_poly(a), char_poly(b))
    target_f = np.array([complex(c) for c in target.coeffs])

    rng = np.random.Generator(np.random.Philox(seed))

    total = np.zeros(n + 1, dtype=complex)
    done = 0
    if unitaries is not None:
        forced = np.asarray(list(unitaries), dtype=complex)
        if forced.shape[0] == 0:
            raise SizeGuardError("need at least one forced unitary")
        batches = [forced]
    else:
        chunk = 20000
        batches = (
            haar_unitaries(n, min(chunk, samples - start), rng)
            for start in range(0, samples, chunk)
        )
    for u in batches:
        conj = np.conj(np.transpose(u, (0, 2, 1))) @ b_f @ u
        m = a_f + conj if kind == ADDITIVE else a_f @ conj
        roots = np.linalg.eigvals(m)
        total = total + _charpoly_coeffs_from_roots(roots).sum(axis=0)
        done += u.shape[0]
    avg = total / done
    deviation = float(np.max(np.abs(avg - target_f)))
    return HaarAverageResult(
        kind=kind,
        samples=done,
        seed=seed,
        coeffs=tuple(float(x) for x in avg.real),
        max_deviation=deviation,
        tolerance=tolerance,
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
            if k != l and a.entry(l, k):
                report = is_additive_ffp(a, Matrix.unit(n, k, l))
                return k, l, report
    return None
