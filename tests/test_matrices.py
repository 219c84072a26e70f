import random
from fractions import Fraction

import pytest

from finfree import (
    DimensionMismatchError,
    IndexRangeError,
    Matrix,
    Polynomial,
    SizeGuardError,
    char_poly,
    matrix_moment,
    minor_table,
    principal_minors,
)
from finfree.families import random_matrix
from helpers import (
    charpoly_via_minors,
    conjugate,
    inverse,
    rand_invertible,
    rand_scalar,
    shift,
)

EXAMPLE_PB = Matrix([[1, 2, 3], [6, 1, -12], [4, -1, 1]])
REMARK_B = Matrix([[1, -1, 0], [-1, 13, -3], [0, -3, 1]])


class TestCharPoly:
    def test_goldens(self):
        b = Matrix([[1, 1, 0], [1, 1, 0], [0, 0, 1]])
        assert char_poly(b) == Polynomial([1, -3, 2, 0])
        assert char_poly(Matrix.identity(3)) == Polynomial([1, -3, 3, -1])
        assert char_poly(Matrix.diagonal([1, 2, 3])) == Polynomial([1, -6, 11, -6])

    def test_trace_and_determinant_coefficients(self):
        rng = random.Random(20)
        for _ in range(25):
            n = rng.randint(1, 5)
            m = random_matrix(rng, n)
            p = char_poly(m)
            assert p.coeffs[1] == -m.trace()
            assert p.coeffs[n] == m.det() * ((-1) ** n)

    def test_against_minor_enumeration(self):
        # Faddeev-LeVerrier vs. cofactor-expansion minor sums, every order
        rng = random.Random(21)
        for _ in range(30):
            n = rng.randint(1, 6)
            m = random_matrix(rng, n, bound=6)
            assert char_poly(m) == charpoly_via_minors(m)

    def test_coefficients_are_signed_minor_sums(self):
        rng = random.Random(22)
        for _ in range(10):
            n = rng.randint(1, 5)
            m = random_matrix(rng, n)
            p = char_poly(m)
            for k in range(n + 1):
                total = sum((v for _, v in principal_minors(m, k)), start=rand_scalar(rng) * 0)
                assert p.coeffs[k] == total * ((-1) ** k)

    def test_shift_identity(self):
        rng = random.Random(23)
        for _ in range(20):
            n = rng.randint(1, 5)
            m = random_matrix(rng, n)
            lam = rand_scalar(rng)
            shifted = m + Matrix.identity(n).scale(lam)
            assert char_poly(shifted) == Polynomial(shift(char_poly(m).coeffs, lam))


class TestPrincipalMinors:
    def test_balanced_example_order_two(self):
        pairs = principal_minors(EXAMPLE_PB, 2)
        assert [s for s, _ in pairs] == [(1, 2), (1, 3), (2, 3)]
        assert all(v == -11 for _, v in pairs)

    def test_order_zero(self):
        assert principal_minors(EXAMPLE_PB, 0) == [((), 1)]

    def test_rank_one_matrix(self):
        m = Matrix([[Fraction(i, j) for j in range(1, 4)] for i in range(1, 4)])
        assert all(not v for _, v in principal_minors(m, 2))
        assert all(not v for _, v in principal_minors(m, 3))

    def test_table_counts(self):
        from math import comb

        table = minor_table(EXAMPLE_PB)
        for k in range(4):
            assert len(table[k]) == comb(3, k)

    def test_out_of_range(self):
        with pytest.raises(IndexRangeError):
            principal_minors(EXAMPLE_PB, 4)

    def test_size_guard(self):
        big = Matrix.identity(17)
        with pytest.raises(SizeGuardError):
            principal_minors(big, 2)


class TestConjugate:
    """Similarity invariance, with P A P^{-1} built from the Gauss-Jordan
    inverse of the test oracles."""

    def test_identity(self):
        assert conjugate(EXAMPLE_PB, Matrix.identity(3)) == EXAMPLE_PB

    def test_permutation_similarity(self):
        swap = Matrix([[0, 1], [1, 0]])
        assert conjugate(Matrix.diagonal([1, 2]), swap) == Matrix.diagonal([2, 1])

    def test_char_poly_invariance(self):
        rng = random.Random(24)
        for _ in range(50):
            n = rng.randint(1, 5)
            a = random_matrix(rng, n)
            p = rand_invertible(rng, n)
            assert char_poly(conjugate(a, p)) == char_poly(a)

    def test_singular_conjugator(self):
        with pytest.raises(ZeroDivisionError):
            conjugate(EXAMPLE_PB, Matrix([[1, 2, 3], [2, 4, 6], [0, 0, 1]]))


class TestMoments:
    def test_basic(self):
        assert matrix_moment(Matrix.diagonal([1, 2, 3]), 1) == 2
        assert matrix_moment(REMARK_B, 2) == Fraction(191, 3)

    def test_sum_moment_matches_closed_form(self):
        a = Matrix.diagonal([1, 2, 3])
        s = a + REMARK_B
        assert matrix_moment(s, 2) == Fraction(265, 3)
        expected = (
            matrix_moment(a, 2)
            + matrix_moment(a, 1) * matrix_moment(REMARK_B, 1) * 2
            + matrix_moment(REMARK_B, 2)
        )
        assert matrix_moment(s, 2) == expected

    def test_order_guard(self):
        with pytest.raises(IndexRangeError):
            matrix_moment(REMARK_B, 0)

    def test_trace_linearity_and_cyclicity(self):
        rng = random.Random(25)
        for _ in range(25):
            n = rng.randint(1, 5)
            a, b = random_matrix(rng, n), random_matrix(rng, n)
            assert matrix_moment(a + b, 1) == matrix_moment(a, 1) + matrix_moment(b, 1)
            assert (a @ b).trace() == (b @ a).trace()


class TestArithmetic:
    def test_identities(self):
        rng = random.Random(26)
        a = random_matrix(rng, 3)
        assert a + Matrix([[0] * 3] * 3) == a
        assert Matrix.identity(3) @ a == a
        assert Matrix.diagonal([1, 2, 3]).scale(2) == Matrix.diagonal([2, 4, 6])

    def test_inverse(self):
        # the oracle inverse behind the inversion counterexamples, both ways round
        rng = random.Random(27)
        for _ in range(15):
            n = rng.randint(1, 5)
            m = rand_invertible(rng, n)
            assert m @ inverse(m) == Matrix.identity(n) == inverse(m) @ m

    def test_dimension_mismatch(self):
        with pytest.raises(DimensionMismatchError):
            Matrix.identity(2) + Matrix.identity(3)
        with pytest.raises(DimensionMismatchError):
            Matrix.identity(2) @ Matrix.identity(3)

    def test_not_square(self):
        with pytest.raises(DimensionMismatchError):
            Matrix([[1, 2], [3, 4], [5, 6]])


class TestJson:
    def test_encoding_shape(self):
        obj = REMARK_B.to_json()
        assert obj == {
            "n": 3,
            "entries": [["1", "-1", "0"], ["-1", "13", "-3"], ["0", "-3", "1"]],
        }
        assert Matrix.from_json(obj) == REMARK_B

    def test_roundtrip_random(self):
        rng = random.Random(28)
        for _ in range(25):
            m = random_matrix(rng, rng.randint(1, 5))
            assert Matrix.from_json(m.to_json()) == m
