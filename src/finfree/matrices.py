"""Exact dense matrices: characteristic polynomials, determinants, principal
minors, cycle sums and moments.

Storage: a ``Matrix`` is its integer form, plus caches derived from it. For
a matrix A of Gaussian rationals, d is the lcm of the denominators of every
real and imaginary part, and M = d*A is kept as its rows of the kernel's
scalars: ints when A is real, so real input never pays for imaginary
products, and ``scalars._GaussInt``s in every cell when A is complex. The
form is cleared once, when the matrix is built; every operation then runs
on the kernel's scalars and builds its result's form directly, and ``rows``,
``entry``, ``to_json`` and ``repr`` make Gaussian rationals only when asked.
d is kept minimal and a form whose imaginary parts are all zero is kept as
ints, so the form is canonical: two matrices are equal iff their forms are,
which is what ``==`` and ``hash`` compare. (Any common scale c*d with c*M
works for the arithmetic; the least one gives one representative per matrix
and the smallest ints. A result built at a larger scale, such as the
product at d_A d_B, is divided by the gcd of its scale and all the parts of
its entries.)

Products: A B = (M_A M_B) / (d_A d_B). Sums: A + B = (s/d_A M_A + s/d_B M_B) / s
with s = lcm(d_A, d_B). ``_pair_form`` is the one place that picks these
scales: ``+`` and ``@`` build their results from it, as the FFP verdicts
and the signed-permutation means build their integer forms.

The linear algebra itself runs on the integer forms in ``kernel``:
characteristic polynomials from the diagonal when the matrix is triangular
and by Berkowitz's division-free recurrence otherwise, determinants by
Bareiss elimination, and all 2^n principal minors from one tree of
fraction-free Sylvester steps on M + tI, whose principal minors are all
nonzero, one order at a time in lexicographic order. ``minor_table`` takes
every order of M back from it, ``principal_minors`` the orders up to k,
and the principally balanced test reads the tree of M + tI as it is,
stopping at the first order whose minors differ. Since
chi_M(x) = det(xI - dA) = d^n chi_A(x/d), coefficient k of chi_A is
C_k / d^k, and the k-th moment tr(A^k)/n is p_k / (n d^k); det(A) =
det(M) / d^n, and the principal minor on an index set S is det(M_S) / d^|S|.
The FFP verdicts take chi_{A+B} and chi_{AB} from the integer forms
directly, at the scales of ``_pair_form``; no code here enumerates
conjugates.

The integer coefficients C_0..C_n of chi_M are cached on the (immutable)
matrix the first time they are needed, at its own scale d, which is the
scale a verdict's convolution takes them at (``polynomials._convolve_int``),
so checking one matrix against many partners (the boundary probes of
``families``) computes its chi once.

Moments come from that cache too: the power sums p_k = tr(M^k) follow from
C_0..C_n by Newton's identities (``polynomials._moments``), on the
kernel's scalars (ints, and ``scalars._GaussInt``s on complex input), so
they take no matrix product and divide by nothing. Moments, cumulants and
chi of one matrix compute chi once between them.

Cycle sums come from one subset dynamic programme over M (``cycle_sums``),
whose levels are labelled and tested for order-wise constancy as the minor
tree's are (``_labelled``, ``_constant``). They live here rather than in
``families`` so that the ``cycle-sums`` verb loads neither ``families`` nor
``ffp``.
"""

from __future__ import annotations

import itertools
import math
from fractions import Fraction
from typing import Iterable

from .errors import DimensionMismatchError, IndexRangeError, ParseError, _guard
from .kernel import (
    _char_coeffs,
    _det_int,
    _dominant,
    _gmul,
    _gscale,
    _iadd,
    _join,
    _masks,  # cycle_sums labels its sums over these masks with _labelled
    _minor_levels,
    _minor_tree,
    _split,
    _trace,
)
from .polynomials import Polynomial, _from_int, _moment_count, _moments
from .scalars import GaussianRational, _Record, _scaled, as_scalar


class Matrix:
    """Immutable square matrix of Gaussian rationals, stored as its integer
    form (d, M): M = d*A as rows of kernel scalars, ints when A is real and
    _GaussInts when it is complex, d minimal (module docstring)."""

    __slots__ = ("n", "_d", "_m", "_rows", "_chi")

    def __init__(self, rows: Iterable[Iterable]):
        rs = [[_exact(x) for x in row] for row in rows]
        n = len(rs)
        if n == 0 or any(len(row) != n for row in rs):
            raise DimensionMismatchError("matrix must be square and non-empty")
        self._set(*_cleared(rs))

    def _set(self, d: int, m) -> None:
        self.n = len(m)
        self._d = d
        self._m = m
        self._rows = None
        self._chi = None

    # -- constructors -------------------------------------------------

    @classmethod
    def _from_form(cls, d: int, m) -> "Matrix":
        """The matrix M / d for the rows m of kernel scalars of M (all ints,
        or all _GaussInts, whose imaginary parts may all be zero) and a
        positive int d, brought to canonical form: ``kernel._join``'s rows,
        divided by the gcd of d and every part."""
        if not m:
            raise DimensionMismatchError("matrix must be square and non-empty")
        re, im = _split(m)
        g = math.gcd(d, *itertools.chain(*re, *im or ()))
        m = _join(re, im)
        if g > 1:
            d //= g
            m = [[v // g for v in row] for row in m]
        a = cls.__new__(cls)
        a._set(d, _frozen(m))
        return a

    @classmethod
    def identity(cls, n: int) -> "Matrix":
        return cls.diagonal([1] * n)

    @classmethod
    def diagonal(cls, values: Iterable) -> "Matrix":
        values = list(values)
        return cls([[v if i == j else 0 for j in range(len(values))] for i, v in enumerate(values)])

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
        if type(n) is not int:
            raise ParseError(f"matrix JSON 'n' must be an integer, got {n!r}")
        if not isinstance(entries, list) or not all(isinstance(row, list) for row in entries):
            raise ParseError("matrix JSON 'entries' must be a list of row lists")
        m = cls(entries)
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
            self._rows = tuple(tuple(_scaled(z, self._d) for z in row) for row in self._m)
        return self._rows

    def entry(self, i: int, j: int) -> GaussianRational:
        """1-based entry access a_{ij}."""
        return self[i - 1, j - 1]

    def __getitem__(self, ij):
        i, j = ij
        return self.rows[i][j]

    def transpose(self) -> "Matrix":
        return Matrix._from_form(self._d, list(zip(*self._m)))

    def trace(self) -> GaussianRational:
        return _scaled(_trace(self._m), self._d)

    # -- arithmetic ------------------------------------------------------

    def _require_same_size(self, other: "Matrix"):
        if not isinstance(other, Matrix):
            raise DimensionMismatchError(f"expected a Matrix, got {type(other).__name__}")
        if self.n != other.n:
            raise DimensionMismatchError(f"dimension mismatch: {self.n} vs {other.n}")

    def _combined(self, other: "Matrix", product: bool) -> "Matrix":
        """A B (``product``) or A + B, from the pair's integer forms."""
        self._require_same_size(other)
        d, ma, mb, combine = _pair_form(self, other, product)
        return Matrix._from_form(d, combine(ma, mb))

    def __add__(self, other: "Matrix") -> "Matrix":
        return self._combined(other, False)

    def __sub__(self, other: "Matrix") -> "Matrix":
        self._require_same_size(other)
        return self + other.scale(-1)

    def __matmul__(self, other: "Matrix") -> "Matrix":
        return self._combined(other, True)

    def scale(self, factor) -> "Matrix":
        e, ((z,),) = _cleared([[_exact(factor)]])
        return Matrix._from_form(self._d * e, _gscale(self._m, z))

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
    """(d, M) for rows of entries as ``_exact`` gives them: d the lcm of
    every denominator and M = d*A as tuples of rows of kernel scalars, ints
    when no entry is complex. This d is the least scale that clears A."""
    parts = [rows]
    if any(type(x) is GaussianRational for row in rows for x in row):
        parts = [[[x.re if type(x) is GaussianRational else x for x in row] for row in rows],
                 [[x.im if type(x) is GaussianRational else 0 for x in row] for row in rows]]
    ratios = [[[x.as_integer_ratio() for x in row] for row in part] for part in parts]
    d = math.lcm(*(q for part in ratios for row in part for _, q in row))
    re, *im = [[[p * (d // q) for p, q in row] for row in part] for part in ratios]
    return d, _frozen(_join(re, im[0] if im else None))


def _at_scale(a: Matrix, d: int):
    """The rows of d*A, for d a multiple of A's own scale."""
    f = d // a._d
    return a._m if f == 1 else _gscale(a._m, f)


def _cached_chi(a: Matrix) -> list:
    """C_0..C_n of chi_M for M = d*A, computed on first use and kept on the
    immutable A."""
    if a._chi is None:
        a._chi = _char_coeffs(a._m, a.n)
    return a._chi


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
    return d, _at_scale(a, d), _at_scale(b, d), _iadd


def matrix_moment(a: Matrix, k: int) -> GaussianRational:
    """k-th moment: the normalized trace tr(A^k)/n, k >= 1 (a smaller k is
    refused as a count of moments is)."""
    return moment_vector_of(a, k)[-1]


def moment_vector_of(a: Matrix, count: int | None = None) -> list[GaussianRational]:
    """First ``count`` moments of A (default n): m_k = p_k / (n d^k), with the
    power sums p_k = tr(M^k) of the integer form M = d*A read off the cached
    C_0..C_n of chi_M by Newton's identities (``polynomials._moments``)."""
    return _moments(_cached_chi(a), a._d, a.n, _moment_count(count, a.n))


def principal_minors(a: Matrix, k: int) -> list[tuple[tuple[int, ...], GaussianRational]]:
    """All order-k principal minors as (index set, determinant) pairs.

    Index sets are 1-based and enumerated in lexicographic order;
    the order-0 minor is the single empty-set entry with value 1. The
    kernel's tree of M + tI builds the orders 0..k and no deeper one, and
    the shift comes off those orders alone (``kernel._minor_levels``).
    """
    n = a.n
    if not 0 <= k <= n:
        raise IndexRangeError(f"minor order {k} out of range 0..{n}")
    _guard("minors", n)
    return _labelled(_minor_levels(a._m, k)[k], a, k)


def _labelled(level, a: Matrix, k: int) -> list:
    """(1-based subset, minor) pairs for one level of the minor tree."""
    scale = a._d**k
    subsets = itertools.combinations(range(1, a.n + 1), k)
    return [(s, _scaled(v, scale)) for s, v in zip(subsets, level)]


def _minors_balanced(a: Matrix) -> bool:
    """Whether the principal minors of each order share one value. Those of
    order k are det(M_S) / d^k with one scale d^k, so their integer
    numerators compare the same; and since det((M + tI)_S) sums
    t^|S - U| det(M_U) over the subsets U of S, the orders 0..k of M are
    balanced exactly when those of M + tI are. So the test reads the
    kernel's tree of M + tI (``kernel._dominant``) with no shift taken off,
    and the first order that mismatches ends it, before the tree builds the
    next one."""
    _guard("minors", a.n)
    return _constant(_minor_tree(_dominant(a._m)[1]))


def _constant(levels) -> bool:
    """Whether each level holds one value; ``all`` stops at the first level
    that does not, so a lazy ``levels`` builds no deeper one."""
    return all(level.count(level[0]) == len(level) for level in levels)


def minor_table(a: Matrix) -> dict:
    """{k: principal_minors(a, k)} for every order k = 0..n, from one tree
    of M + tI with the shift taken off every order (``kernel._minor_levels``)."""
    _guard("minors", a.n)
    return {k: _labelled(level, a, k) for k, level in enumerate(_minor_levels(a._m, a.n))}


class CycleSums(_Record):
    """Cycle sums c_I grouped by |I|, with the order-wise constancy flag; a
    plain record (``scalars._Record``).

    c_I sums, over all cycles visiting exactly the index set I and anchored
    at min I, the products of matrix entries along the cycle. Orderwise
    constancy of cycle sums characterizes principally balanced matrices.
    """

    __slots__ = _fields = ("n", "by_order", "balanced")

    def values(self, k: int) -> list[GaussianRational]:
        return [v for _, v in self.by_order[k]]

    def to_json(self) -> dict:
        return {
            "n": self.n,
            "balanced": self.balanced,
            "orders": {
                str(k): [{"indices": list(idx), "sum": str(v)} for idx, v in entries]
                for k, entries in self.by_order.items()
            },
        }


def cycle_sums(a: Matrix) -> CycleSums:
    """Cycle sums of every non-empty index subset, grouped by order.

    All 2^n - 1 sums come from one subset dynamic programme (Held-Karp
    style) over the integer form M = d*A: for each anchor s, ``paths[mask]``
    maps each end vertex v to the sum of M-products along the paths that
    start at s and visit exactly the indices in ``mask``, all greater than
    s. Closing each path with M[v][s] gives the sum C_I over the cycles
    through I = {s} u mask, and c_I = C_I / d^|I|. Every cycle is counted
    once, from its least index. That is O(2^n n^2) products, where
    enumerating every cycle costs sum_k C(n,k) (k-1)! k. Within an order,
    index sets come in lexicographic order and are 1-based.
    """
    n = _guard("cycle-sums", a.n)
    m = a._m
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
    # the sums of one order share the scale d^k, so their numerators compare the same
    levels = [[sums.get(mask, 0) for mask in level] for level in _masks(n, n)]
    return CycleSums(n, {k: _labelled(levels[k], a, k) for k in range(1, n + 1)}, _constant(levels))
