"""Symbolic certificates for the complementary family pairs.

For generic members of each parametrizable pair (upper and lower triangular
against constant-diagonal triangular of the same side, scalar against every
matrix) the identities

    chi_{A+B} - chi_A [+] chi_B == 0    and    chi_{AB} - chi_A [x] chi_B == 0

are proved as polynomial identities in the entries, for n = 2, 3 and 4: each
check covers every member of that size at once, not a sample. [+] and [x]
are written here in sympy from their coefficient formulas (MSS,
arXiv:1504.00350), independently of finfree's integer kernel. A grid of
integer specialisations of the same members then ties the proof to finfree:
its characteristic polynomials and convolutions agree with the specialised
symbolic ones, and ``check_ffp`` returns True.
"""

import random
from math import comb, factorial

import pytest
import sympy

from finfree import Matrix, Polynomial, boxplus, boxtimes, char_poly, check_ffp

X = sympy.Symbol("x")
PAIRS = ("ut", "lt", "scalar")


def sym_boxplus(a, b):
    """Coefficient k of p [+] q for monic degree-n a_0..a_n, b_0..b_n:
    sum_{i+j=k} (n-i)!(n-j)! / (n!(n-k)!) a_i b_j."""
    n = len(a) - 1
    return [
        sum(
            sympy.Rational(factorial(n - i) * factorial(n - k + i), factorial(n) * factorial(n - k))
            * a[i] * b[k - i]
            for i in range(k + 1)
        )
        for k in range(n + 1)
    ]


def sym_boxtimes(a, b):
    """Coefficient k of p [x] q: (-1)^k a_k b_k / C(n, k)."""
    n = len(a) - 1
    return [sympy.Rational((-1) ** k, comb(n, k)) * a[k] * b[k] for k in range(n + 1)]


def chi(m):
    """Coefficients of det(xI - M), descending."""
    return m.charpoly(X).all_coeffs()


def members(pair, n):
    """Generic symbolic (A, B) for the pair at size n, and their parameters."""
    a_sym = sympy.symbols(f"a0:{n * n}")
    b_sym = sympy.symbols(f"b0:{n * n}")
    c = sympy.Symbol("c")
    if pair == "scalar":
        a = sympy.eye(n) * c
        b = sympy.Matrix(n, n, b_sym)
        return a, b, (c, *b_sym)
    upper = pair == "ut"

    def kept(i, j):
        return j >= i if upper else j <= i

    a = sympy.Matrix(n, n, lambda i, j: a_sym[i * n + j] if kept(i, j) else 0)
    b = sympy.Matrix(n, n, lambda i, j: c if i == j else (b_sym[i * n + j] if kept(i, j) else 0))
    return a, b, tuple(a.free_symbols | b.free_symbols)


def is_zero(coeffs):
    return all(sympy.expand(v) == 0 for v in coeffs)


@pytest.mark.parametrize("n", [2, 3, 4])
@pytest.mark.parametrize("pair", PAIRS)
def test_additive_identity(pair, n):
    a, b, _ = members(pair, n)
    lhs = chi(a + b)
    rhs = sym_boxplus(chi(a), chi(b))
    assert is_zero(l - r for l, r in zip(lhs, rhs))


@pytest.mark.parametrize("n", [2, 3, 4])
@pytest.mark.parametrize("pair", PAIRS)
def test_multiplicative_identity(pair, n):
    a, b, _ = members(pair, n)
    lhs = chi(a * b)
    rhs = sym_boxtimes(chi(a), chi(b))
    assert is_zero(l - r for l, r in zip(lhs, rhs))


def test_the_identities_can_fail():
    """The same check refutes a pair outside the families: a generic upper
    triangular A against a generic (not constant-diagonal) upper triangular B."""
    a, _, _ = members("ut", 3)
    b = a.subs({s: sympy.Symbol(f"q{s}") for s in a.free_symbols})
    assert not is_zero(l - r for l, r in zip(chi(a + b), sym_boxplus(chi(a), chi(b))))
    assert not is_zero(l - r for l, r in zip(chi(a * b), sym_boxtimes(chi(a), chi(b))))


def _exact(m):
    return Matrix([[int(v) for v in m.row(i)] for i in range(m.rows)])


def _poly(coeffs):
    return Polynomial(int(v) if v.is_integer else str(v) for v in coeffs)


@pytest.mark.parametrize("n", [2, 3])
@pytest.mark.parametrize("pair", PAIRS)
def test_integer_grid_agrees_with_finfree(pair, n):
    a, b, params = members(pair, n)
    chi_a, chi_b = chi(a), chi(b)
    plus, times = sym_boxplus(chi_a, chi_b), sym_boxtimes(chi_a, chi_b)
    rng = random.Random(f"{pair}-{n}")
    for _ in range(8):
        point = {p: rng.randint(-2, 2) for p in params}
        ea, eb = _exact(a.subs(point)), _exact(b.subs(point))
        pa, pb = char_poly(ea), char_poly(eb)
        assert pa == _poly(v.subs(point) for v in chi_a)
        assert pb == _poly(v.subs(point) for v in chi_b)
        assert boxplus(pa, pb) == _poly(v.subs(point) for v in plus)
        assert boxtimes(pa, pb) == _poly(v.subs(point) for v in times)
        assert check_ffp(ea, eb, "additive").verdict
        assert check_ffp(ea, eb, "multiplicative").verdict
