"""The exact integer kernel: Gaussian-integer matrices as rows of kernel scalars.

A kernel scalar (an entry, a coefficient, a determinant, a minor, a trace)
is an int, or a ``scalars._GaussInt`` when it is complex, and the two mix in
either operand order. A Gaussian integer matrix M is its rows of kernel
scalars: ints when M is real, so real input never pays for imaginary
products, and _GaussInts in every cell when it is complex. So the type of
M[0][0] tells the two apart, and ``_split`` gives M's int parts (re, im),
im None when M is real, without a scan. The two loops that run on those
parts, the product ``_gmul`` and Gaussian chi ``_berkowitz_gaussian``, each
take three int products where the complex rule takes four (Gauss's trick);
``_join`` turns parts back into rows, ints when every imaginary part is
zero, which makes a form canonical. Nothing here builds a rational:
``matrices`` keeps each matrix as d*A in this form and divides by powers of
d only at the end.

Characteristic polynomial: Berkowitz's division-free recurrence (S. J.
Berkowitz, Inf. Process. Lett. 18, 1984). Let A_r be the leading r x r block
of M, S the column above m_rr and R the row left of it. The coefficients of
chi of the leading (r + 1) x (r + 1) block are those of chi_{A_r} times the
(r + 2) x (r + 1) lower-triangular Toeplitz matrix whose first column is

    t = (1, -m_rr, -R S, -R A_r S, ..., -R A_r^{r-1} S).

Step r takes r - 1 matrix-vector products, r inner products with R and one
Toeplitz product; over r = 1..n-1 that is 938 int products at n = 8 and
4,796 at n = 12. Nothing is divided. Real input runs on int lists.
On Gaussian input each vector is kept as its (re, im, re + im) int lists, so
each inner product is three sums, not four (Gauss's trick, as in products).

Triangular input skips Berkowitz. When M is upper or lower triangular, so
is xI - M, and its determinant is the product of its diagonal: chi_M is
exactly prod (x - m_ii). Multiplying out those n linear factors over the
Gaussian ints takes O(n^2) int products. Telling a triangular M from a
dense one is a scan of the off-diagonal cells, but the scan starts only when
one of M[1][0], M[0][1] is zero: if both are nonzero, M is neither upper nor
lower triangular, and Berkowitz starts after two lookups.

Determinants: Bareiss fraction-free elimination on M, pivoting among the
rows. After step k every entry of the remaining block is a (k+1)-order
minor of the row-permuted M (Sylvester's identity), so dividing by the
previous pivot is exact; over the Gaussian integers the quotient is formed
as z conj(w) / |w|^2, whose parts |w|^2 divides.

Principal minors: one tree of those same steps over the index sets, the
Schur-complement recursion of Griffin & Tsatsomeros ("Principal minors,
Part I", Linear Algebra Appl. 419, 2006) run over the integers, on a matrix
with no zero principal minor. The node S holds det(N_S) and the block
B_S[a][b] = det(N_{S+a, S+b}) of its bordered minors, for a, b past max S;
the root is N, with det 1. Its child S + {j} has det(N_{S+j}) = B_S[j][j],
and its block is one Bareiss step on B_S with pivot B_S[j][j] and exact
divisor det(N_S). The children of each node come in increasing j, level by
level, so each order comes out in lexicographic order, and order k costs
C(n, k) steps of at most (n - k)^2 products, where one elimination per
subset costs k^3 / 3 each. No divisor is ever zero, since the tree runs on
N = M + tI with t = 1 + max_i sum_j (|Re m_ij| + |Im m_ij|): N and each of
its principal submatrices is strictly diagonally dominant, so none of its
principal minors is zero (Levy-Desplanques; Horn & Johnson, Matrix
Analysis, Thm 6.1.10). Since det(N_S) = sum over U in S of
t^|S - U| det(M_U), the minors of each order of M share one value exactly
when those of N do, so a balance test reads N's tree as it is; M's own
minors come back by the inverse sum, det(M_S) = sum over U in S of
(-t)^|S - U| det(N_U), one pass per index over the index sets.
"""

from __future__ import annotations

from itertools import chain, combinations, islice
from operator import add, mul

from .errors import _guard
from .scalars import _GaussInt


def _split(m):
    """(re, im): the int parts of the rows m of kernel scalars, im None when
    m is real. A real m is its own re, so this costs nothing on real input."""
    if type(m[0][0]) is int:
        return m, None
    return [[v.real for v in row] for row in m], [[v.imag for v in row] for row in m]


def _join(re, im):
    """The rows of kernel scalars with int parts re and im: re itself when im
    is None or all zero, else _GaussInts in every cell."""
    if im is None or not any(map(any, im)):
        return re
    return [list(map(_GaussInt, r, i)) for r, i in zip(re, im)]


def _imul(x, y):
    cols = list(zip(*y))
    return [[sum(map(mul, row, col)) for col in cols] for row in x]


def _iadd(x, y):
    return [[p + q for p, q in zip(r, s)] for r, s in zip(x, y)]


def _isub(x, y):
    return [[p - q for p, q in zip(r, s)] for r, s in zip(x, y)]


def _gscale(m, z):
    """z*M for the kernel scalar z."""
    return [[v * z for v in row] for row in m]


def _gmul(a, b):
    (ar, ai), (br, bi) = _split(a), _split(b)
    re = _imul(ar, br)
    if ai is None:
        return _join(re, None if bi is None else _imul(ar, bi))
    if bi is None:
        return _join(re, _imul(ai, br))
    ii = _imul(ai, bi)
    # Gauss's trick, three products not four: (ar + ai)(br + bi) - ar br - ai bi = ar bi + ai br
    return _join(_isub(re, ii), _isub(_isub(_imul(_iadd(ar, ai), _iadd(br, bi)), re), ii))


def _trace(m):
    return sum(row[i] for i, row in enumerate(m))


def _triangular_diagonal(m, n: int):
    """The diagonal of M as kernel scalars when M is upper or lower
    triangular, else None. A dense M is turned away by two cells, before any
    scan (module docstring)."""
    if n > 1 and m[1][0] and m[0][1]:
        return None
    if any(any(row[:i]) for i, row in enumerate(m)) and any(any(row[i + 1:]) for i, row in enumerate(m)):
        return None
    return [row[i] for i, row in enumerate(m)]


def _coeffs_from_roots(roots) -> list:
    """C_0..C_n of prod (x - z) over the kernel scalars z, one factor at a
    time: C_k <- C_k - z C_{k-1}. The same steps run on the Monte-Carlo
    lane's numpy columns (``ffp.expected_charpoly_haar_mc``): each z a column
    of roots, one per sample, and each C_k then a column of coefficients."""
    coeffs = [1]
    for z in roots:
        coeffs = [c - z * p for c, p in zip(coeffs + [0], [0] + coeffs)]
    return coeffs


def _char_coeffs(m, n: int) -> list:
    """C_0..C_n of chi_M = x^n + C_1 x^{n-1} + ... + C_n for the n x n
    Gaussian integer matrix M, as kernel scalars: from the diagonal when M
    is triangular, else by Berkowitz (module docstring), which refuses n past
    the ``chi`` guard (``errors.GUARDS``)."""
    diagonal = _triangular_diagonal(m, n)
    if diagonal is not None:
        return _coeffs_from_roots(diagonal)
    _guard("chi", n)
    re, im = _split(m)
    if im is None:
        return _berkowitz_int(re, n)
    return _berkowitz_gaussian(re, im, n)


def _toeplitz(t) -> list:
    """The rows t_i, ..., t_0 of the lower-triangular Toeplitz matrix whose
    first column is t. A product with a vector one shorter than t stops at
    its end, so the last row's t_0 is never multiplied."""
    return [t[i::-1] for i in range(len(t))]


def _berkowitz_int(x, n: int) -> list:
    """C_0..C_n of chi of the int matrix x, by Berkowitz's recurrence (module
    docstring): step r borders the leading block with R, S and x[r][r]."""
    c = [1, -x[0][0]]
    for r in range(1, n):
        block, left, col = [row[:r] for row in x[:r]], x[r][:r], [row[r] for row in x[:r]]
        t = [1, -x[r][r], -sum(map(mul, left, col))]
        for _ in range(r - 1):
            col = [sum(map(mul, row, col)) for row in block]
            t.append(-sum(map(mul, left, col)))
        c = [sum(map(mul, row, c)) for row in _toeplitz(t)]
    return c


def _gmatvec(a, v):
    """A v for a Gaussian int matrix A (by rows) and vector v, each given as
    its parts (re, im, re + im), and A v in that form: three sums per entry,
    not four (Gauss's trick)."""
    vr, vi, vsum = v
    re, im = [], []
    for x, y, s in zip(*a):
        p = sum(map(mul, x, vr))
        q = sum(map(mul, y, vi))
        re.append(p - q)
        im.append(sum(map(mul, s, vsum)) - p - q)
    return re, im, list(map(add, re, im))


def _berkowitz_gaussian(re, im, n: int) -> list:
    """C_0..C_n of chi of the Gaussian int matrix (re, im), by Berkowitz's
    recurrence with every product in _gmatvec."""
    parts = re, im, [list(map(add, a, b)) for a, b in zip(re, im)]
    c = [1, -re[0][0]], [0, -im[0][0]], [1, -parts[2][0][0]]
    for r in range(1, n):
        block = [[row[:r] for row in x[:r]] for x in parts]
        vs = [[[row[r] for row in x[:r]] for x in parts]]
        for _ in range(r - 1):
            vs.append(_gmatvec(block, vs[-1]))
        # R A^k S for k = 0..r-1, as the products of the rows A^k S with R
        tail = _gmatvec(tuple(zip(*vs)), [x[r][:r] for x in parts])
        # t_0 = 1 has the parts (1, 0, 1)
        t = [[one, -x[r][r]] + [-p for p in y] for one, x, y in zip((1, 0, 1), parts, tail)]
        c = _gmatvec([_toeplitz(x) for x in t], c)
    return list(map(_GaussInt, c[0], c[1]))


def _det_int(m):
    """det of a Gaussian integer matrix as a kernel scalar, by Bareiss
    elimination with row pivoting; each division by the previous pivot is
    exact (module docstring)."""
    rows, prev, sign = list(m), 1, 1
    while rows:
        p = next((r for r, row in enumerate(rows) if row[0]), None)
        if p is None:
            return 0
        # the pivot row moves up past p rows
        pivot, *top = rows.pop(p)
        sign *= (-1) ** p
        rows = [[(x * pivot - row[0] * y) // prev for x, y in zip(row[1:], top)] for row in rows]
        prev = pivot
    return sign * prev


def _dominant(m):
    """(t, M + tI) for t = 1 + max_i sum_j (|Re m_ij| + |Im m_ij|): M + tI and
    each of its principal submatrices is strictly diagonally dominant, so none
    of its principal minors is zero (module docstring)."""
    t = 1 + max(sum(abs(v.real) + abs(v.imag) for v in row) for row in m)
    return t, [[v + t if i == j else v for j, v in enumerate(row)] for i, row in enumerate(m)]


def _minor_tree(m):
    """The principal minors of the Gaussian integer matrix m, none of them
    zero, one order at a time: for k = 0, 1, ..., n, the kernel scalars
    det(M_S) over the k-subsets S in lexicographic order, by the Sylvester
    tree (module docstring). Each level is built only when the next one is
    asked for, so a caller that stops early pays for no deeper order."""
    level = [(1, m)]
    yield [1]
    for _ in range(len(m)):
        level = [child for det, block in level for child in _children(det, block)]
        yield [det for det, _ in level]


def _children(det, block):
    """(det(M_{S+j}), its block) for the children S + {j}, j past max S in
    increasing order, of the node with minor det = det(M_S) and block B_S:
    one Sylvester step each, dividing exactly by det(M_S)."""
    for p, top in enumerate(block):
        pivot, tail = top[p], top[p + 1:]
        yield pivot, [[(pivot * x - row[p] * y) // det for x, y in zip(row[p + 1:], tail)] for row in block[p + 1:]]


def _masks(n: int, top: int) -> list:
    """The k-subsets of range(n) as bitmasks, for k = 0..top, each order in
    lexicographic order of its subsets, as ``_minor_tree`` orders minors."""
    return [[sum(1 << i for i in s) for s in combinations(range(n), k)] for k in range(top + 1)]


def _minor_levels(m, top: int) -> list:
    """The principal minors of orders 0..top of the Gaussian integer matrix
    m, as ``_minor_tree`` orders them, read off the tree of M + tI
    (``_dominant``): det(M_S) = sum over U in S of (-t)^|S - U| det((M + tI)_U).
    That is one pass per index i over the index sets as bitmasks, each set
    with i taking -t times its value without i. Orders past top are never
    built."""
    n = len(m)
    t, shifted = _dominant(m)
    masks = _masks(n, top)
    minors = dict(zip(chain(*masks), chain(*islice(_minor_tree(shifted), top + 1))))
    for i in range(n):
        bit = 1 << i
        for mask in minors:
            if mask & bit:
                minors[mask] -= t * minors[mask ^ bit]
    return [[minors[mask] for mask in level] for level in masks]
