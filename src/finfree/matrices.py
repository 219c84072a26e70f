"""Exact dense matrices: characteristic polynomials, determinants, principal
minors, conjugation, and power-sum moments.

The linear algebra runs over Python ints. A matrix A of Gaussian rationals
is cleared of denominators once: d is the lcm of the denominators of every
real and imaginary part, and M = d*A is kept as the int matrices (re, im),
with im left out when every imaginary part is zero, so real input never
pays for imaginary products. Results become Gaussian rationals only at the
end. Products of Gaussian ints follow the complex rule on the (re, im)
parts.

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
right-hand side. Since chi_M(x) = det(xI - dA) = d^n chi_A(x/d),
coefficient k of chi_A is C_k / d^k, and the k-th moment tr(A^k)/n is
p_k / (n d^k). The FFP verdicts take chi_{A+B} and chi_{AB} from the integer
forms directly: A + B at scale lcm(d_A, d_B), AB at scale d_A d_B. The
signed-permutation average of characteristic polynomials adds the integer
C_k of all its conjugates, which share one scale, and divides once.

Products: A B = (M_A M_B) / (d_A d_B).

Determinants and principal minors: Bareiss fraction-free elimination on M.
After step k every entry of the remaining block is a (k+1)-order minor of
the row-permuted M (Sylvester's identity), so dividing by the previous pivot
is exact; over the Gaussian integers the quotient is formed as
z conj(w) / |w|^2, whose parts |w|^2 divides. det(A) = det(M) / d^n, and the
principal minor on an index set S is det(M_S) / d^|S|.

Cycle sums: a subset DP over paths in M gives, for each index set I, the sum
C_I of M-products along the cycles through exactly I; c_I = C_I / d^|I|.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from fractions import Fraction
from operator import add, mul
from typing import Iterable, Sequence

from .errors import (
    DimensionMismatchError,
    IndexRangeError,
    ParseError,
    SingularMatrixError,
    SizeGuardError,
)
from .polynomials import Polynomial, _from_int
from .scalars import ONE, ZERO, GaussianRational, _scaled, as_scalar

# all 2^n principal minors, one Bareiss elimination each: a dense rational 16x16
# takes about 8.7 s and a Gaussian one about 55 s (Python 3.11, 2-vCPU Xeon VM);
# each step of n more than doubles it
MINOR_ENUMERATION_LIMIT = 16


class Matrix:
    """Immutable square matrix of Gaussian rationals."""

    __slots__ = ("n", "rows")

    def __init__(self, rows: Iterable[Iterable]):
        rs = tuple(tuple(as_scalar(x) for x in row) for row in rows)
        n = len(rs)
        if n == 0 or any(len(row) != n for row in rs):
            raise DimensionMismatchError("matrix must be square and non-empty")
        self.n = n
        self.rows = rs

    # -- constructors -------------------------------------------------

    @classmethod
    def identity(cls, n: int) -> "Matrix":
        return cls([[1 if i == j else 0 for j in range(n)] for i in range(n)])

    @classmethod
    def zero(cls, n: int) -> "Matrix":
        return cls([[0] * n for _ in range(n)])

    @classmethod
    def diagonal(cls, values: Sequence) -> "Matrix":
        vals = [as_scalar(v) for v in values]
        n = len(vals)
        return cls([[vals[i] if i == j else 0 for j in range(n)] for i in range(n)])

    @classmethod
    def unit(cls, n: int, k: int, l: int) -> "Matrix":
        """E_{kl}: 1 at row k, column l (1-based), 0 elsewhere."""
        if not (1 <= k <= n and 1 <= l <= n):
            raise IndexRangeError(f"unit position ({k},{l}) outside 1..{n}")
        return cls([[1 if (i, j) == (k - 1, l - 1) else 0 for j in range(n)] for i in range(n)])

    @classmethod
    def from_json(cls, obj) -> "Matrix":
        try:
            n = obj["n"]
            entries = obj["entries"]
        except (TypeError, KeyError) as exc:
            raise ParseError(f"matrix JSON needs 'n' and 'entries': {exc}") from None
        if not isinstance(entries, list) or not all(isinstance(row, list) for row in entries):
            raise ParseError("matrix JSON 'entries' must be a list of row lists")
        m = cls([[GaussianRational.from_json(x) for x in row] for row in entries])
        if m.n != n:
            raise ParseError(f"declared n={n} but got {m.n} rows")
        return m

    def to_json(self) -> dict:
        return {"n": self.n, "entries": [[str(x) for x in row] for row in self.rows]}

    # -- basic views ---------------------------------------------------

    def entry(self, i: int, j: int) -> GaussianRational:
        """1-based entry access a_{ij}."""
        return self.rows[i - 1][j - 1]

    def __getitem__(self, ij):
        i, j = ij
        return self.rows[i][j]

    def transpose(self) -> "Matrix":
        return Matrix(zip(*self.rows))

    def trace(self) -> GaussianRational:
        acc = ZERO
        for i in range(self.n):
            acc = acc + self.rows[i][i]
        return acc

    def is_real(self) -> bool:
        return all(x.is_real() for row in self.rows for x in row)

    # -- arithmetic ------------------------------------------------------

    def _require_same_size(self, other: "Matrix"):
        if not isinstance(other, Matrix):
            raise DimensionMismatchError(f"expected a Matrix, got {type(other).__name__}")
        if self.n != other.n:
            raise DimensionMismatchError(f"dimension mismatch: {self.n} vs {other.n}")

    def __add__(self, other: "Matrix") -> "Matrix":
        self._require_same_size(other)
        return Matrix(
            tuple(x + y for x, y in zip(r1, r2)) for r1, r2 in zip(self.rows, other.rows)
        )

    def __sub__(self, other: "Matrix") -> "Matrix":
        self._require_same_size(other)
        return Matrix(
            tuple(x - y for x, y in zip(r1, r2)) for r1, r2 in zip(self.rows, other.rows)
        )

    def __matmul__(self, other: "Matrix") -> "Matrix":
        self._require_same_size(other)
        da, a = _int_form(self)
        db, b = _int_form(other)
        return _to_matrix(_gmul(a, b), da * db)

    def scale(self, factor) -> "Matrix":
        s = as_scalar(factor)
        return Matrix(tuple(x * s for x in row) for row in self.rows)

    def power(self, k: int) -> "Matrix":
        if k < 0:
            return self.inverse().power(-k)
        result = Matrix.identity(self.n)
        base = self
        while k:
            if k & 1:
                result = result @ base
            base = base @ base
            k >>= 1
        return result

    # -- exact linear algebra ---------------------------------------------

    def det(self) -> GaussianRational:
        """Exact determinant by Bareiss elimination on the integer form."""
        d, m = _int_form(self)
        return _scaled(_det_int(m), d**self.n)

    def inverse(self) -> "Matrix":
        """Exact inverse by Gauss-Jordan; raises on a zero pivot column."""
        n = self.n
        m = [list(row) + [ONE if i == j else ZERO for j in range(n)]
             for i, row in enumerate(self.rows)]
        for col in range(n):
            pivot_row = next((r for r in range(col, n) if m[r][col]), None)
            if pivot_row is None:
                raise SingularMatrixError("matrix is singular")
            m[col], m[pivot_row] = m[pivot_row], m[col]
            inv = ONE / m[col][col]
            m[col] = [x * inv for x in m[col]]
            for r in range(n):
                if r == col or not m[r][col]:
                    continue
                factor = m[r][col]
                m[r] = [x - factor * y for x, y in zip(m[r], m[col])]
        return Matrix(row[n:] for row in m)

    def submatrix(self, indices: Sequence[int]) -> "Matrix":
        """Principal submatrix on 0-based row/column indices."""
        return Matrix(tuple(self.rows[i][j] for j in indices) for i in indices)

    # -- comparisons -----------------------------------------------------

    def __eq__(self, other):
        return isinstance(other, Matrix) and self.rows == other.rows

    def __hash__(self):
        return hash(self.rows)

    def __repr__(self):
        body = "; ".join(", ".join(str(x) for x in row) for row in self.rows)
        return f"Matrix[{body}]"


# -- the integer kernel ------------------------------------------------------
#
# A Gaussian integer matrix is a pair (re, im) of lists of int rows; im is
# None when every imaginary part is zero. A scalar is an (re, im) int pair.


def _int_form(a: Matrix):
    """(d, (re, im)) with d the lcm of all denominators of A and re + i*im = d*A."""
    rows = a.rows
    d = math.lcm(*(x.re.denominator for row in rows for x in row),
                 *(x.im.denominator for row in rows for x in row))
    re = [[x.re.numerator * (d // x.re.denominator) for x in row] for row in rows]
    if a.is_real():
        return d, (re, None)
    return d, (re, [[x.im.numerator * (d // x.im.denominator) for x in row] for row in rows])


def _to_matrix(m, d: int) -> Matrix:
    re, im = m
    if im is None:
        return Matrix([[GaussianRational(Fraction(x, d)) for x in row] for row in re])
    return Matrix([[_scaled(z, d) for z in zip(r, i)] for r, i in zip(re, im)])


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


def _char_coeffs(m, n: int) -> list:
    """C_0..C_n of chi_M for the n x n Gaussian integer matrix M = (re, im)."""
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
    re, im = m
    rows = list(re) if im is None else [list(map(_GaussInt, r, i)) for r, i in zip(re, im)]
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


def _cycle_sums(a: Matrix) -> dict:
    """{k: [(I, c_I) for each k-subset I in lexicographic order]}, I 1-based,
    where c_I sums the entry products along every cycle through exactly I.

    Subset DP on the integer form M = d*A: for each anchor s, ``paths[mask]``
    maps each end vertex v to the sum of M-products along the paths that
    start at s and visit exactly the indices in ``mask`` (all greater than
    s). Closing each path with M[v][s] gives C_{{s} u mask}, and
    c_I = C_I / d^|I|. Every cycle is counted once, from its least index.
    Cost: O(2^n n^2) products, against sum_k C(n,k) (k-1)! k by enumeration.
    """
    d, (re, im) = _int_form(a)
    n = a.n
    m = re if im is None else [list(map(_GaussInt, r, i)) for r, i in zip(re, im)]
    sums = {}
    for s in range(n):
        sums[1 << s] = m[s][s]
        rest = range(s + 1, n)
        paths = {}
        for v in rest:
            if m[s][v]:
                paths[1 << v] = {v: m[s][v]}
        # masks hold bits above s only; ascending order visits every mask after its subsets
        for mask in range(1 << (s + 1), 1 << n, 1 << (s + 1)):
            ends = paths.pop(mask, None)
            if not ends:
                continue
            closed = 0
            for v, total in ends.items():
                closed = closed + total * m[v][s]
                row = m[v]
                for w in rest:
                    if mask >> w & 1 or not row[w]:
                        continue
                    nxt = paths.setdefault(mask | 1 << w, {})
                    nxt[w] = nxt.get(w, 0) + total * row[w]
            sums[mask | 1 << s] = closed
    by_order = {}
    for k in range(1, n + 1):
        by_order[k] = []
        for subset in itertools.combinations(range(n), k):
            c = sums.get(sum(1 << i for i in subset), 0)
            by_order[k].append((tuple(i + 1 for i in subset), _scaled((c.real, c.imag), d**k)))
    return by_order


def char_poly(a: Matrix) -> Polynomial:
    """Exact monic characteristic polynomial det(xI - A)."""
    d, m = _int_form(a)
    return _from_int(_char_coeffs(m, a.n), d)


def _pair_form(a: Matrix, b: Matrix, product: bool):
    """(d, M_A, M_B, combine): integer forms of A and B such that
    combine(M_A, M_B) = d*(AB) (``product``) or d*(A + B), with d = d_A d_B
    or lcm(d_A, d_B). In the additive case M_A = d*A and M_B = d*B; in the
    product case M_A = d_A*A and M_B = d_B*B. Each matrix is cleared once."""
    da, ma = _int_form(a)
    db, mb = _int_form(b)
    if product:
        return da * db, ma, mb, _gmul
    d = math.lcm(da, db)
    ma = _parts(ma, lambda x: [[v * (d // da) for v in row] for row in x])
    mb = _parts(mb, lambda x: [[v * (d // db) for v in row] for row in x])
    return d, ma, mb, _gadd


def _signed_perm_charpoly_mean(a: Matrix, b: Matrix, product: bool, signed_perms) -> Polynomial:
    """Exact mean of chi_{A + Q^T B Q} (``product``: chi_{A Q^T B Q}) over the
    signed permutations Q given as (perm, signs) pairs, where
    (Q^T B Q)_{ij} = signs[i] signs[j] B_{perm[i], perm[j]}.

    Every conjugate keeps B's denominators, so all the integer matrices share
    one scale: their integer coefficients are summed and divided once.
    """
    d, ma, mb, combine = _pair_form(a, b, product)
    n = a.n
    total = [(0, 0)] * (n + 1)
    count = 0
    for perm, signs in signed_perms:
        conj = _parts(mb, lambda x: [
            [x[pi][pj] if si == sj else -x[pi][pj] for pj, sj in zip(perm, signs)]
            for pi, si in zip(perm, signs)
        ])
        coeffs = _char_coeffs(combine(ma, conj), n)
        total = [(tr + cr, ti + ci) for (tr, ti), (cr, ci) in zip(total, coeffs)]
        count += 1
    return _from_int(total, d, [count] * (n + 1))


def conjugate(a: Matrix, p: Matrix) -> Matrix:
    """P A P^{-1}; requires P invertible. Preserves the characteristic polynomial."""
    a._require_same_size(p)
    return p @ a @ p.inverse()


def matrix_moment(a: Matrix, k: int) -> GaussianRational:
    """k-th moment: the normalized trace tr(A^k)/n, k >= 1."""
    if k < 1:
        raise IndexRangeError(f"moment order must be >= 1, got {k}")
    return a.power(k).trace() / Fraction(a.n)


def moment_vector_of(a: Matrix, count: int | None = None) -> list[GaussianRational]:
    """First ``count`` moments of A (default n): m_k = p_k / (n d^k) from the
    power sums p_k = tr(M^k) of the integer form M = d*A."""
    d, m = _int_form(a)
    count = a.n if count is None else count
    return [_scaled(p, a.n * d**k) for k, p in enumerate(_power_sums_int(m, count), 1)]


def _guard_minor_enumeration(n: int):
    if n > MINOR_ENUMERATION_LIMIT:
        raise SizeGuardError(
            f"minor enumeration refused for n={n} > {MINOR_ENUMERATION_LIMIT}"
        )


def principal_minors(a: Matrix, k: int) -> list[tuple[tuple[int, ...], GaussianRational]]:
    """All order-k principal minors as (index set, determinant) pairs.

    Index sets are 1-based and enumerated in lexicographic order;
    the order-0 minor is the single empty-set entry with value 1.
    """
    n = a.n
    if not 0 <= k <= n:
        raise IndexRangeError(f"minor order {k} out of range 0..{n}")
    _guard_minor_enumeration(n)
    return _principal_minors(_int_form(a), k)


def _principal_minors(form, k: int) -> list:
    d, m = form
    scale = d**k
    out = []
    for subset in itertools.combinations(range(len(m[0])), k):
        sub = _parts(m, lambda x: [[x[i][j] for j in subset] for i in subset])
        out.append((tuple(i + 1 for i in subset), _scaled(_det_int(sub), scale)))
    return out


@dataclass(frozen=True)
class MinorTable:
    """Principal minors of every order 0..n, in lexicographic subset order."""

    n: int
    orders: dict

    def values(self, k: int) -> list[GaussianRational]:
        return [v for _, v in self.orders[k]]

    def to_json(self) -> dict:
        return {
            "n": self.n,
            "orders": {
                str(k): [{"indices": list(s), "det": str(v)} for s, v in entries]
                for k, entries in self.orders.items()
            },
        }


def minor_table(a: Matrix) -> MinorTable:
    _guard_minor_enumeration(a.n)
    form = _int_form(a)
    return MinorTable(a.n, {k: _principal_minors(form, k) for k in range(a.n + 1)})
