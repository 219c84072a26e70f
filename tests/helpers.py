"""Independent oracles and samplers shared across the test suite.

The oracles deliberately avoid the code paths they check: determinants by
cofactor expansion (not elimination), characteristic polynomials by minor
sums or by the Faddeev-LeVerrier trace recurrence (not power sums and
Newton's identities), moments by repeated entrywise products (not power
sums), products as entrywise sums, the additive convolution through the
derivative form of its definition, both convolutions by their coefficient
formulas over Gaussian rationals (not the integer kernel), FFP reports from
those formulas and char_poly of the built sum or product, and cycle sums by
enumerating every cycle (not the subset DP).
"""

from __future__ import annotations

import itertools
import random
from fractions import Fraction
from math import comb, factorial

from finfree import FfpReport, GaussianRational, Matrix, Polynomial, as_scalar, char_poly
from finfree.errors import DegreeMismatchError
from finfree.families import rand_fraction, random_matrix
from finfree.ffp import ADDITIVE
from finfree.matrices import _gmul, _int_form, _trace
from finfree.polynomials import _check_pair

ZERO = as_scalar(0)
ONE = as_scalar(1)


def cofactor_det(rows) -> GaussianRational:
    """Determinant by recursive cofactor expansion along the first row."""
    k = len(rows)
    if k == 0:
        return ONE
    if k == 1:
        return rows[0][0]
    total = ZERO
    for j in range(k):
        if not rows[0][j]:
            continue
        minor = [row[:j] + row[j + 1 :] for row in rows[1:]]
        total = total + rows[0][j] * ((-1) ** j) * cofactor_det(minor)
    return total


def matmul_entrywise(x, y) -> list:
    """Row-by-column sums of GaussianRational products, entry by entry."""
    return [[sum((p * q for p, q in zip(row, col)), ZERO) for col in zip(*y)] for row in x]


def charpoly_faddeev_fraction(m: Matrix) -> Polynomial:
    """Faddeev-LeVerrier run directly on the GaussianRational entries:
    N_1 = A, N_k = A (N_{k-1} + c_{k-1} I), c_k = -tr(N_k) / k."""
    n = m.n
    coeffs = [ONE]
    work = m.rows
    for k in range(1, n + 1):
        if k > 1:
            c = coeffs[-1]
            shifted = [[x + c if i == j else x for j, x in enumerate(row)] for i, row in enumerate(work)]
            work = matmul_entrywise(m.rows, shifted)
        coeffs.append(-sum((work[i][i] for i in range(n)), ZERO) / k)
    return Polynomial(coeffs)


def charpoly_faddeev_int(m: Matrix) -> Polynomial:
    """Faddeev-LeVerrier over the integer form M = d*A, the char_poly kernel
    that power sums replaced: N_1 = M, N_k = M (N_{k-1} + C_{k-1} I),
    C_k = -tr(N_k) / k (exact), and coefficient k of chi_A is C_k / d^k."""
    d, form = _int_form(m)
    coeffs = [(1, 0)]
    work = form
    for k in range(1, m.n + 1):
        if k > 1:
            (wr, wi), (cr, ci) = work, coeffs[-1]
            work = _gmul(form, (_add_diagonal(wr, cr), None if wi is None else _add_diagonal(wi, ci)))
        tr, ti = _trace(work)
        coeffs.append((-tr // k, -ti // k))
    return Polynomial(
        GaussianRational(Fraction(cr, d**k), Fraction(ci, d**k)) for k, (cr, ci) in enumerate(coeffs)
    )


def _add_diagonal(x, c: int) -> list:
    return [[v + c if i == j else v for j, v in enumerate(row)] for i, row in enumerate(x)]


def moments_by_powers(m: Matrix, count: int) -> list:
    """tr(A^k)/n for k = 1..count, by repeated entrywise products of the
    GaussianRational entries."""
    power = Matrix.identity(m.n).rows
    out = []
    for _ in range(count):
        power = matmul_entrywise(power, m.rows)
        out.append(sum((power[i][i] for i in range(m.n)), ZERO) / m.n)
    return out


def signed_conjugate(b: Matrix, perm, signs) -> Matrix:
    """P^T B P for the signed permutation P with P e_j = signs[j] e_{perm[j]},
    as the explicit product of B with the matrix P."""
    n = b.n
    p = Matrix([[signs[j] if perm[j] == i else 0 for j in range(n)] for i in range(n)])
    return Matrix(matmul_entrywise(matmul_entrywise(p.transpose().rows, b.rows), p.rows))


def charpoly_via_minors(m: Matrix) -> Polynomial:
    """Characteristic polynomial from signed principal-minor sums."""
    n = m.n
    coeffs = [ONE]
    for k in range(1, n + 1):
        acc = ZERO
        for subset in itertools.combinations(range(n), k):
            rows = [[m.rows[i][j] for j in subset] for i in subset]
            acc = acc + cofactor_det(rows)
        coeffs.append(acc * ((-1) ** k))
    return Polynomial(coeffs)


def boxplus_via_derivatives(p: Polynomial, q: Polynomial) -> Polynomial:
    """(1/n!) sum_k p^(k)(x) q^(n-k)(0): the derivative form of the additive
    convolution, used as a cross-formula oracle."""
    n = p.degree
    total = None
    for k in range(n + 1):
        value = q.derivative(n - k).evaluate(0)
        term = p.derivative(k).scale(value)
        padded = Polynomial([ZERO] * (n - term.degree) + list(term.coeffs))
        total = padded if total is None else total + padded
    return total.scale(Fraction(1, factorial(n)))


def boxplus_gaussian(p: Polynomial, q: Polynomial) -> Polynomial:
    """sum_{i+j=k} C(n-i, j)/C(n, j) a_i b_j, one Gaussian-rational product
    per term."""
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


def boxtimes_gaussian(p: Polynomial, q: Polynomial) -> Polynomial:
    """(-1)^k a_k b_k / C(n, k) over Gaussian rationals."""
    n = _check_pair(p, q)
    return Polynomial(
        p.coeffs[k] * q.coeffs[k] * Fraction((-1) ** k, comb(n, k)) for k in range(n + 1)
    )


def ffp_report_oracle(a: Matrix, b: Matrix, kind: str) -> FfpReport:
    """The FFP report from char_poly of the built A + B (or AB) against the
    Gaussian-rational convolution of char_poly(A) and char_poly(B)."""
    n = a.n
    if kind == ADDITIVE:
        lhs, rhs = char_poly(a + b), boxplus_gaussian(char_poly(a), char_poly(b))
        indices = range(2, n + 1)
    else:
        lhs, rhs = char_poly(a @ b), boxtimes_gaussian(char_poly(a), char_poly(b))
        indices = range(1, n)
    diffs = ((k, lhs.coeffs[k] - rhs.coeffs[k]) for k in indices)
    residuals = {k: diff for k, diff in diffs if diff}
    return FfpReport(kind, not residuals, residuals, lhs, rhs)


def average(polys) -> Polynomial:
    """Exact arithmetic mean of same-degree polynomials."""
    if not polys:
        raise DegreeMismatchError("cannot average zero polynomials")
    total = polys[0]
    for p in polys[1:]:
        total = total + p
    return total.scale(Fraction(1, len(polys)))


def cycle_sums_by_paths(m: Matrix) -> dict:
    """{k: [(I, c_I)]} with I 1-based in lexicographic order, summing the
    entry products along every cycle through exactly I: each cycle is
    walked from min I through one ordering of the rest, Sum_k C(n,k) (k-1)!
    cycles in all."""
    n, rows = m.n, m.rows
    by_order: dict[int, list] = {k: [] for k in range(1, n + 1)}
    for k in range(1, n + 1):
        for subset in itertools.combinations(range(n), k):
            anchor, rest = subset[0], subset[1:]
            total = ZERO
            for order in itertools.permutations(rest):
                path = (anchor,) + order
                prod = ONE
                for src, dst in zip(path, path[1:] + (anchor,)):
                    prod = prod * rows[src][dst]
                    if not prod:
                        break
                total = total + prod
            by_order[k].append((tuple(i + 1 for i in subset), total))
    return by_order


def rand_scalar(rng: random.Random, bound: int = 10) -> GaussianRational:
    return as_scalar(rand_fraction(rng, bound))


def rand_monic(rng: random.Random, n: int, bound: int = 10) -> Polynomial:
    return Polynomial([ONE] + [rand_scalar(rng, bound) for _ in range(n)])


def rand_symmetric(rng: random.Random, n: int, bound: int = 10) -> Matrix:
    m = random_matrix(rng, n, bound)
    return m + m.transpose()


def rand_invertible(rng: random.Random, n: int, bound: int = 10) -> Matrix:
    while True:
        m = random_matrix(rng, n, bound)
        if m.det():
            return m


def poly_of_matrix(coeffs, m: Matrix) -> Matrix:
    """p(M) for p given by descending coefficients, via Horner."""
    acc = Matrix.zero(m.n)
    for c in coeffs:
        acc = acc @ m + Matrix.identity(m.n).scale(c)
    return acc
