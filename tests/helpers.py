"""Independent oracles and samplers shared across the test suite.

The oracles deliberately avoid the code paths they check: determinants by
cofactor expansion (not elimination), characteristic polynomials by minor
sums, by the Faddeev-LeVerrier trace recurrence or by power sums and
Newton's identities (not Berkowitz's recurrence), moments by repeated
entrywise products or by traces of integer matrix powers on a
baby-step/giant-step schedule (not Newton's identities from chi), products
as entrywise sums, the additive convolution through the
derivative form of its definition (with derivatives, evaluation and shifts
of the argument on coefficient lists), both convolutions by their coefficient
formulas over Gaussian rationals (not the integer kernel), FFP reports from
those formulas and char_poly of the built sum or product, cycle sums by
enumerating every cycle (not the subset DP), principal balance by comparing
cofactor-expanded minors (not integer Bareiss minors), structural membership
by each family's equations written out on the entries (not the table of
vanishing cells), principal minors by one Bareiss elimination per index
set (not the Sylvester tree), the samplers' draws as Fractions (not integer
pairs), a polynomial's moments, its cumulants and moments from cumulants by
Newton's identities on GaussianRationals (not on an integer form cleared at
a chosen scale), the single-eigenvalue test by shifting x^n by the mean
(not coefficient by coefficient), and the Matrix operations entry by entry
on GaussianRational rows (not on the integer form that Matrix stores).

The integer oracles work on their own form of a matrix: the pair (re, im)
of int matrices from ``_int_form``, im None when the matrix is real, with
products by the four-product complex rule and traces written here, not the
kernel's rows of scalars, Gauss-trick products or traces. The signed
permutations are enumerated here in full, all 2^n n! of them, and each
conjugate of the half with signs[0] = +1 is built and combined with A in
full, where the library runs over a smaller group of permutations and sums
products of minors of A and B taken once, by the expansion of the minors
of a sum (additive) or by Cauchy-Binet (multiplicative).

The library has no inverse, conjugation or polynomial calculus, as the
paper's results need none; the counterexample suites and the similarity
tests take the inverse from Gauss-Jordan over GaussianRationals here.
"""

from __future__ import annotations

import itertools
import math
import operator
import random
from fractions import Fraction
from math import comb, factorial, perm

from finfree import FfpReport, GaussianRational, Matrix, Polynomial, as_scalar, char_poly
from finfree.errors import DegreeMismatchError
from finfree.families import (
    FamilyId,
    _construct_member,
    rand_fraction,
    random_matrix,
)
from finfree.ffp import ADDITIVE
from finfree.kernel import _char_coeffs, _det_int
from finfree.polynomials import _check_pair, _from_int
from finfree.scalars import _GaussInt

ZERO = as_scalar(0)
ONE = as_scalar(1)
I = GaussianRational(0, 1)


def pair(z) -> tuple:
    """The kernel scalar z, an int or a Gaussian int, as its (re, im) int
    pair, the form the oracles here compute in."""
    return z.real, z.imag


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


def _int_form(a: Matrix):
    """(d, (re, im)) from the GaussianRational rows of A: d the lcm of every
    denominator and re + i*im = d*A, im None when A is real."""
    rows = a.rows
    d = math.lcm(*(x.re.denominator for row in rows for x in row),
                 *(x.im.denominator for row in rows for x in row))
    re = [[x.re.numerator * (d // x.re.denominator) for x in row] for row in rows]
    if not any(x.im for row in rows for x in row):
        return d, (re, None)
    return d, (re, [[x.im.numerator * (d // x.im.denominator) for x in row] for row in rows])


def _kernel_rows(form) -> list:
    """The (re, im) form as the rows of scalars that the kernel reads: ints,
    or Gaussian ints in every cell when im is not None."""
    re, im = form
    if im is None:
        return [list(row) for row in re]
    return [list(map(_GaussInt, r, i)) for r, i in zip(re, im)]


def _imatmul(x, y) -> list:
    return [[sum(map(operator.mul, row, col)) for col in zip(*y)] for row in x]


def form_mul(a, b):
    """A B for two (re, im) forms by the complex rule, four int matrix
    products; im None when both are real."""
    (ar, ai), (br, bi) = a, b
    if ai is None and bi is None:
        return _imatmul(ar, br), None
    zero = [[0] * len(ar) for _ in ar]
    ai, bi = ai or zero, bi or zero
    return sub_entrywise(_imatmul(ar, br), _imatmul(ai, bi)), add_entrywise(_imatmul(ar, bi), _imatmul(ai, br))


def form_add(a, b):
    """A + B for two (re, im) forms; im None when both are real."""
    (ar, ai), (br, bi) = a, b
    if ai is None and bi is None:
        return add_entrywise(ar, br), None
    zero = [[0] * len(ar) for _ in ar]
    return add_entrywise(ar, br), add_entrywise(ai or zero, bi or zero)


def on_parts(m, f) -> tuple:
    """f applied to each int matrix of the (re, im) form m, keeping a
    missing im missing."""
    return tuple(None if x is None else f(x) for x in m)


def form_trace(m) -> tuple:
    """tr(M) of an (re, im) form as an (re, im) int pair."""
    return tuple(0 if x is None else sum(row[i] for i, row in enumerate(x)) for x in m)


def add_entrywise(x, y) -> tuple:
    return tuple(tuple(p + q for p, q in zip(r, s)) for r, s in zip(x, y))


def sub_entrywise(x, y) -> tuple:
    return tuple(tuple(p - q for p, q in zip(r, s)) for r, s in zip(x, y))


def scale_entrywise(x, factor) -> tuple:
    s = as_scalar(factor)
    return tuple(tuple(v * s for v in row) for row in x)


def transpose_entrywise(x) -> tuple:
    return tuple(zip(*x))


def inverse_gauss_jordan(x) -> tuple:
    """Gauss-Jordan on [X | I] over GaussianRationals; raises
    ZeroDivisionError on a zero pivot column."""
    n = len(x)
    m = [list(row) + [ONE if i == j else ZERO for j in range(n)] for i, row in enumerate(x)]
    for col in range(n):
        pivot_row = next((r for r in range(col, n) if m[r][col]), None)
        if pivot_row is None:
            raise ZeroDivisionError("matrix is singular")
        m[col], m[pivot_row] = m[pivot_row], m[col]
        inv = ONE / m[col][col]
        m[col] = [v * inv for v in m[col]]
        for r in range(n):
            if r == col or not m[r][col]:
                continue
            factor = m[r][col]
            m[r] = [v - factor * w for v, w in zip(m[r], m[col])]
    return tuple(tuple(row[n:]) for row in m)


def inverse(a: Matrix) -> Matrix:
    """A^{-1} by ``inverse_gauss_jordan`` on the rows of A."""
    return Matrix(inverse_gauss_jordan(a.rows))


def conjugate(a: Matrix, p: Matrix) -> Matrix:
    """P A P^{-1}, which has the characteristic polynomial of A; raises
    ZeroDivisionError when P is singular."""
    return p @ a @ inverse(p)


def permutation_matrix(perm) -> Matrix:
    n = len(perm)
    return Matrix([[1 if perm[i] == j else 0 for j in range(n)] for i in range(n)])


def conjugated_triangular_by_products(n: int, rng: random.Random, bound: int) -> Matrix:
    """The principally balanced sample C T C^{-1}, C = P diag(u), built as
    the products conjugator @ t @ inverse(conjugator), drawing from the RNG
    in the sampler's order."""
    t = _construct_member(FamilyId.UPPER_TRIANGULAR_CONST_DIAG, n, rng, bound)
    d = Matrix.diagonal([rand_nonzero_fraction(rng, bound) for _ in range(n)])
    perm = list(range(n))
    rng.shuffle(perm)
    conjugator = permutation_matrix(perm) @ d
    return conjugator @ t @ inverse(conjugator)


def rank_one_by_fractions(n: int, rng: random.Random, bound: int) -> Matrix:
    """The rank-one principally balanced sample u_i c / u_j from Fraction
    entries, drawing from the RNG in the sampler's order."""
    u = [rand_nonzero_fraction(rng, bound) for _ in range(n)]
    c = fraction_draw(rng, bound)
    return Matrix([[u[i] * c / u[j] for j in range(n)] for i in range(n)])


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
    before power sums and then Berkowitz's recurrence: N_1 = M, N_k = M (N_{k-1} + C_{k-1} I),
    C_k = -tr(N_k) / k (exact), and coefficient k of chi_A is C_k / d^k."""
    d, form = _int_form(m)
    coeffs = [(1, 0)]
    work = form
    for k in range(1, m.n + 1):
        if k > 1:
            (wr, wi), (cr, ci) = work, coeffs[-1]
            work = form_mul(form, (_add_diagonal(wr, cr), None if wi is None else _add_diagonal(wi, ci)))
        tr, ti = form_trace(work)
        coeffs.append((-tr // k, -ti // k))
    return Polynomial(
        GaussianRational(Fraction(cr, d**k), Fraction(ci, d**k)) for k, (cr, ci) in enumerate(coeffs)
    )


def char_coeffs_by_newton(m) -> list:
    """C_0..C_n of chi_M as (re, im) int pairs for the Gaussian integer
    matrix m = (re, im), from its power sums p_1..p_n by Newton's identities
    k C_k = -sum_{i=1..k} C_{k-i} p_i: the route to chi that Berkowitz's
    recurrence replaced. Each division by k is exact, since C_k is a
    (Gaussian) integer."""
    coeffs = [(1, 0)]
    sums = power_sums_by_products(m, len(m[0]))
    for k in range(1, len(sums) + 1):
        re = im = 0
        for (cr, ci), (pr, pi) in zip(reversed(coeffs), sums):
            re += cr * pr - ci * pi
            im += cr * pi + ci * pr
        coeffs.append((-re // k, -im // k))
    return coeffs


def power_sums_by_newton(f, count: int) -> list:
    """p_1..p_count of the series f_0 + f_1 t + ..., f_0 = 1, reading f_r = 0
    past the end, by Newton's identities p_r = -r f_r - sum_{i<r} f_i p_{r-i}
    on the GaussianRationals f_r as they are: the library runs them on the
    integer form of the series at a scale it picks, never on these."""
    sums = []
    for r in range(1, count + 1):
        acc = f[r] * -r if r < len(f) else ZERO
        for i in range(1, min(r - 1, len(f) - 1) + 1):
            acc = acc - f[i] * sums[r - i - 1]
        sums.append(acc)
    return sums


def series_by_newton(sums, n: int) -> list:
    """f_0..f_k, f_0 = 1, of the series whose power sums are n p_1..n p_k, by
    k f_k = -n sum_{i=1..k} f_{k-i} p_i on GaussianRationals."""
    f = [ONE]
    for k in range(1, len(sums) + 1):
        f.append(sum((f[k - i] * sums[i - 1] for i in range(1, k + 1)), ZERO) * Fraction(-n, k))
    return f


def moments_by_newton(coeffs, n: int, count: int) -> list:
    """m_1..m_count = p_r / n of the monic degree-n coefficients a_0..a_n."""
    return [p * Fraction(1, n) for p in power_sums_by_newton(coeffs, count)]


def cumulants_by_newton(coeffs, n: int) -> list:
    """kappa_j = n^(j-1) p̂_j for j = 1..L, p̂ the power sums of the series
    â_k = a_k (n-k)!/n! from a_0..a_L (Arizmendi & Perales)."""
    rescaled = [a * Fraction(1, perm(n, k)) for k, a in enumerate(coeffs)]
    return [p * n ** (j - 1) for j, p in enumerate(power_sums_by_newton(rescaled, len(coeffs) - 1), 1)]


def moment_from_cumulants_by_newton(kappa, n: int, j: int) -> GaussianRational:
    """m_j from kappa_1..kappa_j at dimension n: the series â from the power
    sums kappa_k / n^(k-1), k <= n, then m_j of a_k = â_k n!/(n-k)!."""
    sums = [kappa[k - 1] * Fraction(1, n ** (k - 1)) for k in range(1, min(j, n) + 1)]
    hat = series_by_newton(sums, 1)
    return moments_by_newton([c * perm(n, k) for k, c in enumerate(hat)], n, j)[-1]


def _flat(m, by_columns: bool = False):
    """m = (re, im) as flat int lists, row by row (or column by column),
    plus re + im for Gauss's trick; (re, None, None) when m is real."""
    re, im = on_parts(m, lambda x: list(zip(*x))) if by_columns else m
    flat_re = [v for row in re for v in row]
    if im is None:
        return flat_re, None, None
    flat_im = [v for row in im for v in row]
    return flat_re, flat_im, list(map(operator.add, flat_re, flat_im))


def _trace_of_product(g, b):
    """tr(G B) from G flattened by rows and B by columns: one n^2 inner
    product, sum_ab G[a][b] B[b][a]. G and B are both real or both complex."""
    gr, gi, gs = g
    br, bi, bs = b
    re = sum(map(operator.mul, gr, br))
    if gi is None:
        return re, 0
    ii = sum(map(operator.mul, gi, bi))
    return re - ii, sum(map(operator.mul, gs, bs)) - re - ii


def power_sums_by_products(m, count: int) -> list:
    """p_1..p_count, p_k = tr(M^k), as (re, im) int pairs for the Gaussian
    integer matrix m = (re, im), from integer matrix products on a
    baby-step/giant-step schedule (Paterson & Stockmeyer, SIAM J. Comput.
    2(1), 1973). With s = ceil(sqrt(count)), the baby steps M..M^s give
    p_1..p_s as traces; the giant steps G_1 = M^s, G_{j+1} = G_j M^s give
    p_{js+i} = tr(G_j M^i), an n^2 inner product each."""
    if count < 1:
        return []
    s = math.isqrt(count - 1) + 1
    babies = [m]
    for _ in range(s - 1):
        babies.append(form_mul(babies[-1], m))
    sums = [form_trace(x) for x in babies]
    columns = [_flat(x, by_columns=True) for x in babies]
    giant = babies[-1]
    while len(sums) < count:
        rows = _flat(giant)
        sums += [_trace_of_product(rows, c) for c in columns[: count - len(sums)]]
        if len(sums) < count:
            giant = form_mul(giant, babies[-1])
    return sums


def moments_by_power_sums(m: Matrix, count: int) -> list:
    """tr(A^k)/n for k = 1..count: the power sums of the integer form d*A
    (``power_sums_by_products``) divided by n d^k."""
    d, form = _int_form(m)
    return [GaussianRational(Fraction(re, m.n * d**k), Fraction(im, m.n * d**k))
            for k, (re, im) in enumerate(power_sums_by_products(form, count), 1)]


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


def signed_permutations(n: int, perms=None):
    """All 2^n n! signed permutations as (permutation, sign vector) pairs,
    or the 2^n len(perms) whose permutation is in ``perms``.

    The pair (perm, signs) is the matrix P with P e_j = signs[j] e_{perm[j]}.
    Permutations come in lexicographic order (``perms``' order when given),
    sign vectors count in binary with +1 first."""
    for perm in itertools.permutations(range(n)) if perms is None else perms:
        for bits in itertools.product((1, -1), repeat=n):
            yield perm, bits


def signed_conjugate(b: Matrix, perm, signs) -> Matrix:
    """P^T B P for the signed permutation P with P e_j = signs[j] e_{perm[j]},
    as the explicit product of B with the matrix P."""
    n = b.n
    p = Matrix([[signs[j] if perm[j] == i else 0 for j in range(n)] for i in range(n)])
    return Matrix(matmul_entrywise(matmul_entrywise(p.transpose().rows, b.rows), p.rows))


def conjugate_forms(a: Matrix, b: Matrix, kind: str, perms=None):
    """(d, forms): forms yields, for each signed permutation Q with
    signs[0] = +1 in ``signed_permutations`` order, the (re, im) form of
    d(A + Q^T B Q) (or d(A Q^T B Q)), built in full: Q^T B Q from B's form
    entry by entry, then added to A's form (``form_add``) at the scale
    d = lcm(d_A, d_B), or multiplied by it (``form_mul``) at d = d_A d_B.
    Q's permutation runs over ``perms`` in their order, all of them when
    None."""
    (da, ma), (db, mb) = _int_form(a), _int_form(b)
    if kind == ADDITIVE:
        d = math.lcm(da, db)

        def at_scale(form, e):
            return on_parts(form, lambda x: [[d // e * v for v in row] for row in x])

        ma, mb, combine = at_scale(ma, da), at_scale(mb, db), form_add
    else:
        d, combine = da * db, form_mul

    def forms():
        for perm, signs in signed_permutations(a.n, perms):
            if signs[0] != 1:
                continue
            conj = on_parts(mb, lambda x: [
                [x[pi][pj] if si == sj else -x[pi][pj] for pj, sj in zip(perm, signs)]
                for pi, si in zip(perm, signs)
            ])
            yield combine(ma, conj)

    return d, forms()


def signed_perm_mean_per_conjugate(a: Matrix, b: Matrix, kind: str) -> Polynomial:
    """The mean of chi_{A + Q^T B Q} (or chi_{A Q^T B Q}) over all the
    2^(n-1) n! signed permutations Q with signs[0] = +1, one kernel chi per
    conjugate of ``conjugate_forms``: the integer C_k of all of them are
    summed and divided once. The library runs over the permutations of a
    smaller group G only, and gets both means from the minors of A and B,
    the additive one by the expansion of the minors of a sum (Marcus 1990)
    and the multiplicative one by Cauchy-Binet, with no sum, no product and
    no chi per conjugate."""
    d, forms = conjugate_forms(a, b, kind)
    n = a.n
    total = [0] * (n + 1)
    count = 0
    for form in forms:
        total = list(map(operator.add, total, _char_coeffs(_kernel_rows(form), n)))
        count += 1
    return _from_int(total, d, [count] * (n + 1))


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


def shift(coeffs, lam) -> list:
    """Descending coefficients of p(x - lam), for p given by its descending
    coefficients, by the binomial expansion of each c x^m as c (x - lam)^m."""
    lam = as_scalar(lam)
    n = len(coeffs) - 1
    out = [ZERO] * (n + 1)
    for j, c in enumerate(coeffs):
        m = n - j
        for t in range(m + 1):
            out[j + t] = out[j + t] + as_scalar(c) * comb(m, t) * (-lam) ** t
    return out


def derivative(coeffs, k: int) -> list:
    """Descending coefficients of the k-th derivative: x^m becomes
    m!/(m-k)! x^(m-k), and the k lowest terms vanish."""
    n = len(coeffs) - 1
    return [as_scalar(coeffs[j]) * perm(n - j, k) for j in range(n - k + 1)]


def evaluate(coeffs, x0) -> GaussianRational:
    """The polynomial with these descending coefficients at x0, by Horner's rule."""
    x0, acc = as_scalar(x0), ZERO
    for c in coeffs:
        acc = acc * x0 + c
    return acc


def root_power(c, n: int) -> Polynomial:
    """(x - c)^n, as x^n shifted by c."""
    return Polynomial(shift([ONE] + [ZERO] * n, c))


def single_eigenvalue_by_shift(a: Matrix) -> bool:
    """Whether chi_A equals x^n shifted by the mean eigenvalue tr(A)/n."""
    return char_poly(a) == root_power(a.trace() / a.n, a.n)


def boxplus_via_derivatives(p: Polynomial, q: Polynomial) -> Polynomial:
    """(1/n!) sum_k p^(k)(x) q^(n-k)(0): the derivative form of the additive
    convolution, used as a cross-formula oracle."""
    n = p.degree
    total = [ZERO] * (n + 1)
    for k in range(n + 1):
        value = evaluate(derivative(q.coeffs, n - k), 0)
        # p^(k) has degree n - k, so its coefficients fill places k..n
        for j, c in enumerate(derivative(p.coeffs, k)):
            total[k + j] = total[k + j] + c * value
    return Polynomial(c / factorial(n) for c in total)


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
    return Polynomial(sum(cs, ZERO) / len(polys) for cs in zip(*(p.coeffs for p in polys)))


def balanced_by_minor_table(m: Matrix) -> bool:
    """Principal balance as the full minor table defines it: for each order
    k, every principal minor (by cofactor expansion of the GaussianRational
    rows) equals the first one of that order."""
    rows = m.rows
    for k in range(1, m.n + 1):
        values = [
            cofactor_det([[rows[i][j] for j in subset] for i in subset])
            for subset in itertools.combinations(range(m.n), k)
        ]
        if any(v != values[0] for v in values):
            return False
    return True


def is_member_by_entries(m: Matrix, family: FamilyId) -> bool:
    """Membership of a structural family (or the full space), each family's
    equations written out on the GaussianRational rows: which entries
    vanish, and whether the diagonal is constant."""
    n, rows = m.n, m.rows
    off_diagonal_zero = all(not rows[i][j] for i in range(n) for j in range(n) if i != j)
    below_zero = all(not rows[i][j] for i in range(1, n) for j in range(i))
    above_zero = all(not rows[i][j] for i in range(n) for j in range(i + 1, n))
    constant = all(rows[i][i] == rows[0][0] for i in range(n))
    return {
        FamilyId.DIAGONAL: off_diagonal_zero,
        FamilyId.SCALAR: off_diagonal_zero and constant,
        FamilyId.UPPER_TRIANGULAR: below_zero,
        FamilyId.LOWER_TRIANGULAR: above_zero,
        FamilyId.UPPER_TRIANGULAR_CONST_DIAG: below_zero and constant,
        FamilyId.LOWER_TRIANGULAR_CONST_DIAG: above_zero and constant,
        FamilyId.ALL: True,
    }[family]


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


def minors_by_elimination(m, k: int) -> list:
    """The order-k principal minors of the Gaussian integer matrix m =
    (re, im), one Bareiss elimination per k-subset in lexicographic order,
    each an (re, im) int pair: the per-subset path that the minor tree
    replaced."""
    return [
        pair(_det_int(_kernel_rows(on_parts(m, lambda x: [[x[i][j] for j in subset] for i in subset]))))
        for subset in itertools.combinations(range(len(m[0])), k)
    ]


def fraction_draw(rng: random.Random, bound: int) -> Fraction:
    """p/q drawn by ``randint``, as the samplers drew it before they drew
    integer pairs."""
    return Fraction(rng.randint(-bound, bound), rng.randint(1, bound))


def rand_nonzero_fraction(rng: random.Random, bound: int = 10) -> Fraction:
    while True:
        value = fraction_draw(rng, bound)
        if value:
            return value


def random_matrix_by_fractions(rng: random.Random, n: int, bound: int) -> Matrix:
    """``random_matrix``'s draws, row-major, as a Matrix of Fractions."""
    return Matrix([[fraction_draw(rng, bound) for _ in range(n)] for _ in range(n)])


def structured_by_fractions(vanishes, constant: bool, n: int, rng: random.Random, bound: int) -> Matrix:
    """``_construct_structured``'s draws as a Matrix of Fractions: the
    constant diagonal value first, then the free cells row-major; a
    lower-triangular pattern is drawn as its upper twin and transposed."""
    flip = vanishes is operator.lt
    upper = operator.gt if flip else vanishes
    c = fraction_draw(rng, bound) if constant else None
    rows = [
        [0 if upper(i, j) else c if constant and i == j else fraction_draw(rng, bound) for j in range(n)]
        for i in range(n)
    ]
    return Matrix(transpose_entrywise(rows) if flip else rows)


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
    identity = Matrix.identity(m.n)
    acc = identity.scale(coeffs[0])
    for c in coeffs[1:]:
        acc = acc @ m + identity.scale(c)
    return acc
