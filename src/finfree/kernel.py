"""The exact integer kernel: Gaussian-integer matrices as (re, im) int rows.

A Gaussian integer matrix M is a pair (re, im) of int matrices, rows of
ints; im is None when every imaginary part is zero, so real input never
pays for imaginary products. A scalar is an (re, im) int pair. Products of
Gaussian ints follow the complex rule on the (re, im) parts. Nothing here
builds a rational: ``matrices`` keeps each matrix as d*A in this form and
divides by powers of d only at the end.

Characteristic polynomial: the power sums p_k = tr(M^k), k = 1..n (or any
other count of them), come from a baby-step/giant-step schedule (Paterson &
Stockmeyer, SIAM J. Comput. 2(1), 1973). With s = ceil(sqrt(n)), the baby
steps M, M^2, ..., M^s take s - 1 products and give p_1..p_s as traces. The
giant steps are G_1 = M^s and G_{j+1} = G_j M^s, one product each, and give
p_{js+i} = tr(G_j M^i) = sum_ab G_j[a][b] M^i[b][a] for i = 1..s: an n^2
inner product, not a product. That is about 2 sqrt(n) products of n x n
integer matrices (4 at n = 12) where Faddeev-LeVerrier takes n - 1 (11);
the n - s inner products together cost about one product more.
Newton's identities then give chi_M(x) = x^n + C_1 x^{n-1} + ... + C_n:

    k C_k = -(C_{k-1} p_1 + C_{k-2} p_2 + ... + C_0 p_k),    C_0 = 1.

Each division by k is exact: C_k is a coefficient of the characteristic
polynomial of a (Gaussian) integer matrix, a signed sum of its principal
minors, hence a (Gaussian) integer, and the identity says k divides the
right-hand side.

Triangular input skips all of that. When M is upper or lower triangular, so
is xI - M, and its determinant is the product of its diagonal: chi_M is
exactly prod (x - m_ii). Multiplying out those n linear factors over the
Gaussian ints takes O(n^2) int products, with no power sum and no division.
Telling a triangular M from a dense one is a scan of the off-diagonal cells,
but the scan starts only when one of M[1][0], M[0][1] is zero: if both are
nonzero, M is neither upper nor lower triangular, and the general path starts
after two lookups. The signed-permutation mean, which takes chi of hundreds
of dense conjugates, pays no more than that.

Determinants and principal minors: Bareiss fraction-free elimination on M.
After step k every entry of the remaining block is a (k+1)-order minor of
the row-permuted M (Sylvester's identity), so dividing by the previous pivot
is exact; over the Gaussian integers the quotient is formed as
z conj(w) / |w|^2, whose parts |w|^2 divides.
"""

from __future__ import annotations

import math
from operator import add, mul


def _parts(m, f):
    """Apply f to each int matrix of m = (re, im), keeping a missing im missing."""
    return tuple(None if x is None else f(x) for x in m)


def _imul(x, y):
    cols = list(zip(*y))
    return [[sum(map(mul, row, col)) for col in cols] for row in x]


def _iadd(x, y):
    return [[p + q for p, q in zip(r, s)] for r, s in zip(x, y)]


def _isub(x, y):
    return [[p - q for p, q in zip(r, s)] for r, s in zip(x, y)]


def _gadd(a, b):
    (ar, ai), (br, bi) = a, b
    if ai is None or bi is None:
        return _iadd(ar, br), ai if bi is None else bi
    return _iadd(ar, br), _iadd(ai, bi)


def _gscale(m, z):
    """z*M for the Gaussian integer z = (zr, zi)."""
    (re, im), (zr, zi) = m, z
    if not zi:
        return _parts(m, lambda x: [[v * zr for v in row] for row in x])
    pairs = [list(zip(r, i)) for r, i in zip(re, im or [[0] * len(re)] * len(re))]
    return ([[a * zr - b * zi for a, b in row] for row in pairs],
            [[a * zi + b * zr for a, b in row] for row in pairs])


def _gmul(a, b):
    (ar, ai), (br, bi) = a, b
    re = _imul(ar, br)
    if ai is None:
        return re, None if bi is None else _imul(ar, bi)
    if bi is None:
        return re, _imul(ai, br)
    ii = _imul(ai, bi)
    # Gauss's trick, three products not four: (ar + ai)(br + bi) - ar br - ai bi = ar bi + ai br
    return _isub(re, ii), _isub(_isub(_imul(_iadd(ar, ai), _iadd(br, bi)), re), ii)


def _trace(m):
    re, im = m
    tr = sum(row[i] for i, row in enumerate(re))
    return tr, 0 if im is None else sum(row[i] for i, row in enumerate(im))


def _flat(m, by_columns: bool = False):
    """m = (re, im) as flat int lists, row by row (or column by column),
    plus re + im for Gauss's trick; (re, None, None) when m is real."""
    re, im = _parts(m, lambda x: list(zip(*x))) if by_columns else m
    flat_re = [v for row in re for v in row]
    if im is None:
        return flat_re, None, None
    flat_im = [v for row in im for v in row]
    return flat_re, flat_im, list(map(add, flat_re, flat_im))


def _trace_of_product(g, b):
    """tr(G B) from G flattened by rows and B by columns: one n^2 inner
    product, sum_ab G[a][b] B[b][a]. G and B are both real or both complex."""
    gr, gi, gs = g
    br, bi, bs = b
    re = sum(map(mul, gr, br))
    if gi is None:
        return re, 0
    ii = sum(map(mul, gi, bi))
    return re - ii, sum(map(mul, gs, bs)) - re - ii


def _power_sums_int(m, count: int) -> list:
    """p_1..p_count, p_k = tr(M^k), as (re, im) int pairs, by baby steps
    M..M^s and giant steps M^{js}, s = ceil(sqrt(count)) (module docstring)."""
    if count < 1:
        return []
    s = math.isqrt(count - 1) + 1
    babies = [m]
    for _ in range(s - 1):
        babies.append(_gmul(babies[-1], m))
    sums = [_trace(x) for x in babies]
    columns = [_flat(x, by_columns=True) for x in babies]
    giant = babies[-1]
    while len(sums) < count:
        rows = _flat(giant)
        sums += [_trace_of_product(rows, c) for c in columns[: count - len(sums)]]
        if len(sums) < count:
            giant = _gmul(giant, babies[-1])
    return sums


def _coeffs_from_power_sums(sums) -> list:
    """C_0..C_n of chi_M as (re, im) int pairs from its power sums p_1..p_n,
    by Newton's identities k C_k = -sum_{i=1..k} C_{k-i} p_i; every division
    by k is exact (module docstring)."""
    coeffs = [(1, 0)]
    for k in range(1, len(sums) + 1):
        re = im = 0
        for (cr, ci), (pr, pi) in zip(reversed(coeffs), sums):
            re += cr * pr - ci * pi
            im += cr * pi + ci * pr
        coeffs.append((-re // k, -im // k))
    return coeffs


def _triangular_diagonal(m, n: int):
    """The diagonal of M = (re, im) as (re, im) pairs when M is upper or lower
    triangular, else None. A dense M is turned away by two cells, before any
    scan (module docstring)."""
    re, im = m
    if n > 1 and (re[1][0] or im and im[1][0]) and (re[0][1] or im and im[0][1]):
        return None
    parts = (re,) if im is None else (re, im)
    if any(any(row[:i]) for x in parts for i, row in enumerate(x)) and any(
        any(row[i + 1:]) for x in parts for i, row in enumerate(x)
    ):
        return None
    return [(row[i], 0 if im is None else im[i][i]) for i, row in enumerate(re)]


def _coeffs_from_roots(roots) -> list:
    """C_0..C_n of prod (x - z) over the Gaussian ints z = (zr, zi), one
    factor at a time: C_k <- C_k - z C_{k-1}."""
    coeffs = [(1, 0)]
    for zr, zi in roots:
        coeffs = [
            (cr - zr * pr + zi * pi, ci - zr * pi - zi * pr)
            for (cr, ci), (pr, pi) in zip(coeffs + [(0, 0)], [(0, 0)] + coeffs)
        ]
    return coeffs


def _char_coeffs(m, n: int) -> list:
    """C_0..C_n of chi_M for the n x n Gaussian integer matrix M = (re, im):
    from the diagonal when M is triangular, else from its power sums."""
    diagonal = _triangular_diagonal(m, n)
    if diagonal is not None:
        return _coeffs_from_roots(diagonal)
    return _coeffs_from_power_sums(_power_sums_int(m, n))


class _GaussInt:
    """A Gaussian integer for Bareiss elimination and cycle sums on complex input.

    Named ``real``/``imag`` like int's own attributes, so ints and these mix;
    ``//`` is only ever used where the divisor divides exactly.
    """

    __slots__ = ("real", "imag")

    def __init__(self, real: int, imag: int):
        self.real = real
        self.imag = imag

    def __mul__(self, other):
        a, b, c, d = self.real, self.imag, other.real, other.imag
        return _GaussInt(a * c - b * d, a * d + b * c)

    __rmul__ = __mul__

    def __add__(self, other):
        return _GaussInt(self.real + other.real, self.imag + other.imag)

    __radd__ = __add__

    def __sub__(self, other):
        return _GaussInt(self.real - other.real, self.imag - other.imag)

    def __floordiv__(self, other):
        a, b, c, d = self.real, self.imag, other.real, other.imag
        norm = c * c + d * d
        return _GaussInt((a * c + b * d) // norm, (b * c - a * d) // norm)

    def __bool__(self):
        return bool(self.real or self.imag)


def _det_int(m):
    """det of a Gaussian integer matrix as an (re, im) pair, by Bareiss
    elimination; each division by the previous pivot is exact."""
    rows = _entries(m)
    sign, prev = 1, 1
    while rows:
        p = next((r for r, row in enumerate(rows) if row[0]), None)
        if p is None:
            return 0, 0
        if p:
            rows[0], rows[p] = rows[p], rows[0]
            sign = -sign
        (pivot, *top), rest = rows[0], rows[1:]
        rows = [[(x * pivot - row[0] * y) // prev for x, y in zip(row[1:], top)] for row in rest]
        prev = pivot
    det = sign * prev  # the last pivot is det(M) up to the row-swap sign
    return det.real, det.imag


def _entries(m) -> list:
    """The rows of M = (re, im) as ints, or as _GaussInts when M is complex."""
    re, im = m
    return list(re) if im is None else [list(map(_GaussInt, r, i)) for r, i in zip(re, im)]
