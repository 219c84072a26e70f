"""Exact dense matrices: characteristic polynomials, determinants, principal
minors and power-sum moments.

Storage: a ``Matrix`` is its integer form, plus caches derived from it. For
a matrix A of Gaussian rationals, d is the lcm of the denominators of every
real and imaginary part, and M = d*A is kept as the int matrices (re, im),
with im None when every imaginary part is zero, so real input never pays for
imaginary products. The form is cleared once, when the matrix is built;
every operation then runs on ints and builds its result's form directly, and
``rows``, ``entry``, ``to_json`` and ``repr`` make Gaussian rationals only
when asked. d is kept minimal, so the form is canonical: two matrices are
equal iff their forms are, which is what ``==`` and ``hash`` compare. (Any
common scale c*d with c*M works for the arithmetic; the least one gives one
representative per matrix and the smallest ints. A result built at a larger
scale, such as the product at d_A d_B, is divided by the gcd of its scale
and all its entries.)

Products: A B = (M_A M_B) / (d_A d_B). Sums: A + B = (s/d_A M_A + s/d_B M_B) / s
with s = lcm(d_A, d_B).

The linear algebra itself runs on the integer forms in ``kernel``:
characteristic polynomials by power sums and Newton's identities, and
determinants and principal minors by Bareiss elimination. Since
chi_M(x) = det(xI - dA) = d^n chi_A(x/d), coefficient k of chi_A is
C_k / d^k, and the k-th moment tr(A^k)/n is p_k / (n d^k); det(A) =
det(M) / d^n, and the principal minor on an index set S is
det(M_S) / d^|S|. The FFP verdicts take chi_{A+B} and chi_{AB} from the
integer forms directly: A + B at scale lcm(d_A, d_B), AB at scale d_A d_B.
The signed-permutation average of characteristic polynomials adds the
integer C_k of all its conjugates, which share one scale, and divides once.

The integer coefficients C_0..C_n of chi_M are cached on the (immutable)
matrix the first time they are needed, at its own scale d. A verdict that
needs chi of s*A for a multiple s of d takes C_k (s/d)^k, so checking one
matrix against many partners (the boundary probes of ``families``) computes
its chi once.

Cycle sums: a subset DP over paths in M gives, for each index set I, the sum
C_I of M-products along the cycles through exactly I; c_I = C_I / d^|I|.
"""

from __future__ import annotations

import itertools
import math
from fractions import Fraction
from typing import Iterable, Sequence

from .errors import DimensionMismatchError, IndexRangeError, ParseError, SizeGuardError
from .kernel import (
    _char_coeffs,
    _det_int,
    _entries,
    _gadd,
    _gmul,
    _gscale,
    _parts,
    _power_sums_int,
    _trace,
)
from .polynomials import Polynomial, _from_int
from .scalars import GaussianRational, _scaled, as_scalar

# all 2^n principal minors, one Bareiss elimination each: a dense rational 16x16
# takes about 8.7 s and a Gaussian one about 55 s (Python 3.11, 2-vCPU Xeon VM);
# each step of n more than doubles it
MINOR_ENUMERATION_LIMIT = 16
# moments m_1..m_count (of a matrix or, past the degree, of a polynomial): a dense
# rational 3x3 takes about 0.24 s for `moments --k 1000` and 0.32 s for
# `sum-moments --count 1000`, printing about 2 MB, and 1.4 and 1.7 s at 2000; an
# 8x8 takes 0.6 s (power sums) and 1.1 s (Newton's recursion from chi) at 1000
# (Python 3.11, 2-vCPU Xeon VM); each doubling of the count costs about 5x
MOMENT_COUNT_LIMIT = 1000


class Matrix:
    """Immutable square matrix of Gaussian rationals, stored as its integer
    form (d, re, im): re + i*im = d*A over the ints, d minimal, im None when
    A is real (module docstring)."""

    __slots__ = ("n", "_d", "_m", "_rows", "_chi")

    def __init__(self, rows: Iterable[Iterable]):
        rs = [[_exact(x) for x in row] for row in rows]
        n = len(rs)
        if n == 0 or any(len(row) != n for row in rs):
            raise DimensionMismatchError("matrix must be square and non-empty")
        self._set(*_cleared(rs))

    def _set(self, d: int, re, im) -> None:
        self.n = len(re)
        self._d = d
        self._m = (re, im)
        self._rows = None
        self._chi = None

    # -- constructors -------------------------------------------------

    @classmethod
    def _from_form(cls, d: int, re, im=None) -> "Matrix":
        """The matrix (re + i*im) / d for int rows re, im (im None or all
        zero when real) and a positive int d, brought to canonical form."""
        if not re:
            raise DimensionMismatchError("matrix must be square and non-empty")
        if im is not None and not any(map(any, im)):
            im = None
        g = math.gcd(d, *(v for part in (re, im) if part is not None for row in part for v in row))
        if g > 1:
            d //= g
            re = [[v // g for v in row] for row in re]
            im = None if im is None else [[v // g for v in row] for row in im]
        m = cls.__new__(cls)
        m._set(d, _frozen(re), None if im is None else _frozen(im))
        return m

    @classmethod
    def identity(cls, n: int) -> "Matrix":
        return cls._from_form(1, [[int(i == j) for j in range(n)] for i in range(n)])

    @classmethod
    def diagonal(cls, values: Sequence) -> "Matrix":
        d, (re,), im = _cleared([[_exact(v) for v in values]])
        n = len(re)

        def spread(row):
            return [[row[i] if i == j else 0 for j in range(n)] for i in range(n)]

        return cls._from_form(d, spread(re), None if im is None else spread(im[0]))

    @classmethod
    def unit(cls, n: int, k: int, l: int) -> "Matrix":
        """E_{kl}: 1 at row k, column l (1-based), 0 elsewhere."""
        if not (1 <= k <= n and 1 <= l <= n):
            raise IndexRangeError(f"unit position ({k},{l}) outside 1..{n}")
        return cls._from_form(1, [[int((i, j) == (k - 1, l - 1)) for j in range(n)] for i in range(n)])

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

    @property
    def rows(self) -> tuple:
        """The entries as rows of GaussianRationals, built on first use."""
        if self._rows is None:
            d, (re, im) = self._d, self._m
            ims = [(0,) * self.n] * self.n if im is None else im
            self._rows = tuple(tuple(_scaled(z, d) for z in zip(r, i)) for r, i in zip(re, ims))
        return self._rows

    def entry(self, i: int, j: int) -> GaussianRational:
        """1-based entry access a_{ij}."""
        return self[i - 1, j - 1]

    def __getitem__(self, ij):
        i, j = ij
        return self.rows[i][j]

    def transpose(self) -> "Matrix":
        return Matrix._from_form(self._d, *_parts(self._m, lambda x: list(zip(*x))))

    def trace(self) -> GaussianRational:
        return _scaled(_trace(self._m), self._d)

    # -- arithmetic ------------------------------------------------------

    def _require_same_size(self, other: "Matrix"):
        if not isinstance(other, Matrix):
            raise DimensionMismatchError(f"expected a Matrix, got {type(other).__name__}")
        if self.n != other.n:
            raise DimensionMismatchError(f"dimension mismatch: {self.n} vs {other.n}")

    def __add__(self, other: "Matrix") -> "Matrix":
        self._require_same_size(other)
        d = math.lcm(self._d, other._d)
        return Matrix._from_form(d, *_gadd(_at_scale(self, d), _at_scale(other, d)))

    def __sub__(self, other: "Matrix") -> "Matrix":
        self._require_same_size(other)
        return self + other.scale(-1)

    def __matmul__(self, other: "Matrix") -> "Matrix":
        self._require_same_size(other)
        return Matrix._from_form(self._d * other._d, *_gmul(self._m, other._m))

    def scale(self, factor) -> "Matrix":
        e, ((fr,),), fi = _cleared([[_exact(factor)]])
        return Matrix._from_form(self._d * e, *_gscale(self._m, (fr, fi[0][0] if fi else 0)))

    # -- exact linear algebra ---------------------------------------------

    def det(self) -> GaussianRational:
        """Exact determinant by Bareiss elimination on the integer form."""
        return _scaled(_det_int(self._m), self._d**self.n)

    # -- comparisons -----------------------------------------------------

    def __eq__(self, other):
        return isinstance(other, Matrix) and self._d == other._d and self._m == other._m

    def __hash__(self):
        return hash((self._d, self._m))

    def __repr__(self):
        body = "; ".join(", ".join(str(x) for x in row) for row in self.rows)
        return f"Matrix[{body}]"


def _exact(x):
    """An entry as an int or Fraction when real, else as a GaussianRational."""
    if type(x) is int or type(x) is Fraction:
        return x
    if type(x) is not GaussianRational:
        x = as_scalar(x)
    return x if x.im else x.re


def _frozen(rows) -> tuple:
    return tuple(map(tuple, rows))


def _cleared(rows) -> tuple:
    """(d, re, im) for rows of entries as ``_exact`` gives them: d the lcm of
    every denominator and re + i*im = d*A as tuples of int rows, im None when
    no entry is complex. This d is the least scale that clears A."""
    parts = [rows]
    if any(type(x) is GaussianRational for row in rows for x in row):
        parts = [[[x.re if type(x) is GaussianRational else x for x in row] for row in rows],
                 [[x.im if type(x) is GaussianRational else 0 for x in row] for row in rows]]
    ratios = [[[x.as_integer_ratio() for x in row] for row in part] for part in parts]
    d = math.lcm(*(q for part in ratios for row in part for _, q in row))
    re, *im = [_frozen([[p * (d // q) for p, q in row] for row in part]) for part in ratios]
    return d, re, im[0] if im else None


def _at_scale(a: Matrix, d: int):
    """(re, im) of d*A, for d a multiple of A's own scale."""
    f = d // a._d
    return a._m if f == 1 else _gscale(a._m, (f, 0))


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
    d, n, m = a._d, a.n, _entries(a._m)
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


def _cached_chi(a: Matrix) -> list:
    """C_0..C_n of chi_M for M = d*A, computed on first use and kept on the
    immutable A."""
    if a._chi is None:
        a._chi = _char_coeffs(a._m, a.n)
    return a._chi


def _chi_at(a: Matrix, s: int) -> list:
    """C_0..C_n of chi_{sA} for s a multiple of A's scale d: the cached
    C_k of chi_{dA} times (s/d)^k."""
    f = s // a._d
    return [(re * f**k, im * f**k) for k, (re, im) in enumerate(_cached_chi(a))]


def char_poly(a: Matrix) -> Polynomial:
    """Exact monic characteristic polynomial det(xI - A)."""
    return _from_int(_cached_chi(a), a._d)


def _pair_form(a: Matrix, b: Matrix, product: bool):
    """(d, M_A, M_B, combine): integer forms of A and B such that
    combine(M_A, M_B) = d*(AB) (``product``) or d*(A + B), with d = d_A d_B
    or lcm(d_A, d_B). In the additive case M_A = d*A and M_B = d*B; in the
    product case M_A = d_A*A and M_B = d_B*B."""
    if product:
        return a._d * b._d, a._m, b._m, _gmul
    d = math.lcm(a._d, b._d)
    return d, _at_scale(a, d), _at_scale(b, d), _gadd


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


def matrix_moment(a: Matrix, k: int) -> GaussianRational:
    """k-th moment: the normalized trace tr(A^k)/n, k >= 1."""
    if k < 1:
        raise IndexRangeError(f"moment order must be >= 1, got {k}")
    return moment_vector_of(a, k)[-1]


def moment_vector_of(a: Matrix, count: int | None = None) -> list[GaussianRational]:
    """First ``count`` moments of A (default n): m_k = p_k / (n d^k) from the
    power sums p_k = tr(M^k) of the integer form M = d*A."""
    count = a.n if count is None else _guard_moment_count(count)
    return [_scaled(p, a.n * a._d**k) for k, p in enumerate(_power_sums_int(a._m, count), 1)]


def _guard_moment_count(count: int) -> int:
    if count > MOMENT_COUNT_LIMIT:
        raise SizeGuardError(f"moment count refused: {count} > {MOMENT_COUNT_LIMIT}")
    return count


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
    return _principal_minors(a, k)


def _int_minors(m, k: int):
    """(subset, det) for each order-k principal submatrix of the Gaussian
    integer matrix m: subsets 0-based in lexicographic order, det an (re, im)
    int pair."""
    for subset in itertools.combinations(range(len(m[0])), k):
        yield subset, _det_int(_parts(m, lambda x: [[x[i][j] for j in subset] for i in subset]))


def _principal_minors(a: Matrix, k: int) -> list:
    scale = a._d**k
    return [(tuple(i + 1 for i in s), _scaled(v, scale)) for s, v in _int_minors(a._m, k)]


def _minors_balanced(a: Matrix) -> bool:
    """Whether the principal minors of each order share one value. Those of
    order k are det(M_S) / d^k with one scale d^k, so their integer
    numerators compare the same; the first mismatch ends the test."""
    _guard_minor_enumeration(a.n)
    for k in range(1, a.n + 1):
        dets = (v for _, v in _int_minors(a._m, k))
        first = next(dets)
        if any(v != first for v in dets):
            return False
    return True


def minor_table(a: Matrix) -> dict:
    """{k: principal_minors(a, k)} for every order k = 0..n."""
    _guard_minor_enumeration(a.n)
    return {k: _principal_minors(a, k) for k in range(a.n + 1)}
