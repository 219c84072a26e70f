"""The paper's lattice of complementary families, computed at n = 2 and 3.

The complement F' of a family F is the set of matrices B with (A, B) in
finite free position for every A in F. Give A the free cells of F as symbols
(one symbol c on a constant diagonal) and B generic entries b_ij. Each
coefficient of chi_{A+B} - chi_A [+] chi_B (or of chi_{AB} - chi_A [x] chi_B)
is a polynomial in A's cells whose coefficients are polynomials in the b_ij,
and F' is the common zero set of those. The ideal they generate is compared
with each family's own equations on B through reduced Groebner bases
(grevlex, over QQ), which are equal iff the ideals are.

``SUPPORTED_PAIRS`` is derived here rather than trusted: the computed
complement of each pair's first family is the ideal of exactly one family,
its stated partner, and for the linear partners the converse holds too
(ut-const' = ut, lt-const' = lt, all' = scalar). diag' is principally
balanced's ideal, the equality of all principal minors of each order. A
family outside the table, ut with one more vanishing cell, is a negative
control: its complement is larger than ut-const.
"""

import itertools

import pytest
import sympy

from finfree import ADDITIVE, MULTIPLICATIVE, FamilyId
from finfree.families import EQUATIONS, SUPPORTED_PAIRS
from test_symbolic import chi, sym_boxplus, sym_boxtimes


def generic(n):
    """B with every entry its own symbol b_ij, and those symbols row by row."""
    cells = sympy.symbols(f"b:{n}:{n}")
    return sympy.Matrix(n, n, cells), cells


def equations(family):
    """(vanishes, constant diagonal) of a linear family; the full space has
    no vanishing cell."""
    if family is FamilyId.ALL:
        return (lambda i, j: False), False
    return EQUATIONS[family]


def family_ideal(family, b):
    """The family's defining equations on the entries of b."""
    n = b.rows
    if family is FamilyId.PRINCIPALLY_BALANCED:
        gens = []
        for k in range(1, n + 1):
            minors = [b.extract(list(s), list(s)).det() for s in itertools.combinations(range(n), k)]
            gens += [m - minors[0] for m in minors[1:]]
        return gens
    vanishes, constant = equations(family)
    gens = [b[i, j] for i in range(n) for j in range(n) if vanishes(i, j)]
    return gens + ([b[i, i] - b[0, 0] for i in range(1, n)] if constant else [])


def reduced_basis(gens, cells) -> set:
    """The reduced grevlex Groebner basis over QQ of the ideal the gens
    generate, as a set of expressions; the zero ideal's is empty."""
    gens = [g for g in map(sympy.expand, gens) if g != 0]
    if not gens:
        return set()
    return set(sympy.groebner(gens, *cells, order="grevlex", domain="QQ").exprs)


def complement_ideal(vanishes, constant, n, kind) -> list:
    """Generators of the ideal of F' for the linear family F with these
    vanishing cells and diagonal, in the cells of a generic B."""
    c = sympy.Symbol("c")

    def cell(i, j):
        if vanishes(i, j):
            return 0
        return c if constant and i == j else sympy.Symbol(f"a{i}{j}")

    a = sympy.Matrix(n, n, cell)
    b, _ = generic(n)
    if kind == ADDITIVE:
        lhs, rhs = chi(a + b), sym_boxplus(chi(a), chi(b))
    else:
        lhs, rhs = chi(a * b), sym_boxtimes(chi(a), chi(b))
    free = sorted(a.free_symbols, key=str)
    gens = []
    for left, right in zip(lhs, rhs):
        difference = sympy.expand(left - right)
        if difference != 0:
            gens += sympy.Poly(difference, *free).coeffs()
    return gens


def complement_basis(family, n, kind) -> set:
    return reduced_basis(complement_ideal(*equations(family), n, kind), generic(n)[1])


KINDS = pytest.mark.parametrize("kind", [ADDITIVE, MULTIPLICATIVE])
SIZES = pytest.mark.parametrize("n", [2, 3])


@KINDS
@SIZES
def test_each_supported_partner_is_the_computed_complement(n, kind):
    b, cells = generic(n)
    bases = {family: reduced_basis(family_ideal(family, b), cells) for family in FamilyId}
    for first, partner in SUPPORTED_PAIRS:
        computed = complement_basis(first, n, kind)
        assert [f for f in FamilyId if bases[f] == computed] == [partner], (first, partner)
        if partner is not FamilyId.PRINCIPALLY_BALANCED:
            computed = complement_basis(partner, n, kind)
            assert [f for f in FamilyId if bases[f] == computed] == [first], (partner, first)


@KINDS
def test_diagonal_complement_is_equal_diagonal_and_equal_two_cycles_at_three(kind):
    """diag' at n = 3: b00 = b11 = b22 and b01 b10 = b02 b20 = b12 b21."""
    _, cells = generic(3)
    b00, b01, b02, b10, b11, b12, b20, b21, b22 = cells
    stated = [b00 - b11, b11 - b22, b01 * b10 - b02 * b20, b02 * b20 - b12 * b21]
    assert complement_basis(FamilyId.DIAGONAL, 3, kind) == reduced_basis(stated, cells)


@KINDS
def test_a_family_outside_the_table_has_a_larger_complement(kind):
    """ut with the cell (0, 1) also vanishing is a smaller family than ut,
    so its complement holds ut-const, and more: its ideal lies inside
    ut-const's and differs from it (b01 b10 in place of b10). Not every extra
    cell does this: with the corner (0, 2) the additive complement is still
    ut-const."""
    n = 3
    b, cells = generic(n)
    ut_const = reduced_basis(family_ideal(FamilyId.UPPER_TRIANGULAR_CONST_DIAG, b), cells)
    gens = complement_ideal(lambda i, j: i > j or (i, j) == (0, 1), False, n, kind)
    assert reduced_basis(gens, cells) != ut_const
    ideal = sympy.groebner(list(ut_const), *cells, order="grevlex", domain="QQ")
    assert all(ideal.contains(g) for g in gens)
