import random
import warnings
from fractions import Fraction

import numpy as np
import pytest

from finfree import (
    DimensionMismatchError,
    Matrix,
    Polynomial,
    SizeGuardError,
    boxplus,
    boxtimes,
    char_poly,
    check_ffp,
    condition_2x2,
    ekl_witness,
    expected_charpoly_haar_mc,
    expected_charpoly_signed_perms,
    is_additive_ffp,
    is_multiplicative_ffp,
)
from finfree.ffp import signed_permutations
from finfree.scalars import I
from finfree.families import random_matrix
from helpers import (
    conjugate,
    inverse,
    poly_of_matrix,
    rand_invertible,
    rand_scalar,
    rand_symmetric,
)

GOLDEN_A = Matrix([[1, 0, 0], [0, 0, 0], [0, 0, 0]])
GOLDEN_B = Matrix([[1, 1, 0], [1, 1, 0], [0, 0, 1]])
REMARK_A = Matrix.diagonal([1, 2, 3])
REMARK_B = Matrix([[1, -1, 0], [-1, 13, -3], [0, -3, 1]])


class TestGoldenExample:
    def test_multiplicative_holds_additive_fails(self):
        add = is_additive_ffp(GOLDEN_A, GOLDEN_B)
        mult = is_multiplicative_ffp(GOLDEN_A, GOLDEN_B)
        assert not add.verdict
        assert mult.verdict
        assert add.residuals == {3: Fraction(-1, 3)}
        assert mult.residuals == {}

    def test_polynomials(self):
        add = is_additive_ffp(GOLDEN_A, GOLDEN_B)
        assert add.lhs == Polynomial([1, -4, 4, -1])
        assert add.rhs == Polynomial([1, -4, 4, Fraction(-2, 3)])
        assert is_multiplicative_ffp(GOLDEN_A, GOLDEN_B).lhs == Polynomial([1, -1, 0, 0])


class TestRemarkSuite:
    def test_pair_is_additive_ffp(self):
        assert is_additive_ffp(REMARK_A, REMARK_B).verdict

    @pytest.mark.parametrize("lam", [2, -1, Fraction(1, 2)])
    def test_scaling_breaks_it(self, lam):
        assert not is_additive_ffp(REMARK_A.scale(lam), REMARK_B).verdict

    def test_square_and_inverse_break_it(self):
        assert not is_additive_ffp(REMARK_A @ REMARK_A, REMARK_B).verdict
        assert not is_additive_ffp(inverse(REMARK_A), REMARK_B).verdict

    def test_lambda_zero_and_one_keep_it(self):
        assert is_additive_ffp(REMARK_A.scale(0), REMARK_B).verdict
        assert is_additive_ffp(REMARK_A.scale(1), REMARK_B).verdict


class TestMultiplicativeExamples:
    B = Matrix([[1, -1, 2], [-1, -2, 1], [2, 1, 1]])

    def test_pair_is_multiplicative_ffp(self):
        assert is_multiplicative_ffp(REMARK_A, self.B).verdict

    def test_square_and_inverse_break_it(self):
        assert not is_multiplicative_ffp(REMARK_A @ REMARK_A, self.B).verdict
        assert not is_multiplicative_ffp(inverse(REMARK_A), self.B).verdict

    def test_adding_identity_breaks_golden_pair(self):
        shifted = Matrix.identity(3) + GOLDEN_A
        assert not is_multiplicative_ffp(shifted, GOLDEN_B).verdict

    def test_identity_is_neutral(self):
        rng = random.Random(31)
        for _ in range(10):
            n = rng.randint(1, 5)
            a = random_matrix(rng, n)
            assert is_multiplicative_ffp(a, Matrix.identity(n)).verdict


class TestResidualIndexing:
    def test_excluded_indices_always_match(self):
        rng = random.Random(32)
        for _ in range(25):
            n = rng.randint(1, 5)
            a, b = random_matrix(rng, n), random_matrix(rng, n)
            add = is_additive_ffp(a, b)
            mult = is_multiplicative_ffp(a, b)
            assert set(add.residuals) <= set(range(2, n + 1))
            assert set(mult.residuals) <= set(range(1, n))
            assert add.lhs.coeffs[:2] == add.rhs.coeffs[:2]
            assert mult.lhs.coeffs[0] == mult.rhs.coeffs[0]
            assert mult.lhs.coeffs[n] == mult.rhs.coeffs[n]

    def test_dimension_one_is_always_ffp(self):
        rng = random.Random(33)
        for _ in range(10):
            a, b = random_matrix(rng, 1), random_matrix(rng, 1)
            assert is_additive_ffp(a, b).verdict
            assert is_multiplicative_ffp(a, b).verdict


class TestClosedness:
    def test_conjugation_invariance(self):
        rng = random.Random(34)
        pairs = [(REMARK_A, REMARK_B), (GOLDEN_A, GOLDEN_B)]
        for _ in range(10):
            n = rng.randint(2, 4)
            pairs.append((random_matrix(rng, n), random_matrix(rng, n)))
        for a, b in pairs:
            p = rand_invertible(rng, a.n)
            ca, cb = conjugate(a, p), conjugate(b, p)
            assert is_additive_ffp(a, b).verdict == is_additive_ffp(ca, cb).verdict
            assert (
                is_multiplicative_ffp(a, b).verdict == is_multiplicative_ffp(ca, cb).verdict
            )

    def test_scalar_shift_preserves_additive(self):
        rng = random.Random(35)
        for _ in range(10):
            lam = rand_scalar(rng)
            shifted = REMARK_A + Matrix.identity(3).scale(lam)
            assert is_additive_ffp(shifted, REMARK_B).verdict

    def test_scalar_scale_preserves_multiplicative(self):
        rng = random.Random(36)
        b = TestMultiplicativeExamples.B
        for _ in range(10):
            lam = rand_scalar(rng)
            assert is_multiplicative_ffp(REMARK_A.scale(lam), b).verdict


class Test2x2ClosedForm:
    def test_scalar_matrix_always_passes(self):
        rng = random.Random(37)
        for _ in range(10):
            a = Matrix.identity(2).scale(rand_scalar(rng))
            b = random_matrix(rng, 2)
            assert condition_2x2(a, b) == 0
            assert condition_2x2(a, Matrix.identity(2)) == 0

    def test_specific_values(self):
        a = Matrix([[1, 1], [0, 0]])
        assert condition_2x2(a, Matrix([[0, 0], [1, 1]])) == -1
        b = Matrix([[0, 0], [Fraction(1, 2), 1]])
        assert condition_2x2(a, b) == 0
        assert is_additive_ffp(a, b).verdict
        assert is_multiplicative_ffp(a, b).verdict

    def test_condition_decides_both_verdicts(self):
        rng = random.Random(38)
        for _ in range(100):
            a, b = random_matrix(rng, 2), random_matrix(rng, 2)
            zero = not condition_2x2(a, b)
            assert zero == is_additive_ffp(a, b).verdict
            assert zero == is_multiplicative_ffp(a, b).verdict

    def test_polynomial_closure(self):
        rng = random.Random(39)
        for _ in range(25):
            a, b = _sample_2x2_ffp_pair(rng)
            p = [rand_scalar(rng) for _ in range(rng.randint(1, 4))]
            q = [rand_scalar(rng) for _ in range(rng.randint(1, 4))]
            assert is_additive_ffp(poly_of_matrix(p, a), poly_of_matrix(q, b)).verdict

    def test_wrong_size(self):
        with pytest.raises(DimensionMismatchError):
            condition_2x2(Matrix.identity(3), Matrix.identity(3))


def _sample_2x2_ffp_pair(rng):
    """Solve the closed-form condition for b21, given a12 != 0."""
    while True:
        a = random_matrix(rng, 2)
        if a.entry(1, 2):
            break
    b11, b12, b22 = (rand_scalar(rng) for _ in range(3))
    b21 = ((a.entry(1, 1) - a.entry(2, 2)) * (b22 - b11) - a.entry(2, 1) * b12 * 2) / (
        a.entry(1, 2) * 2
    )
    b = Matrix([[b11, b12], [b21, b22]])
    assert condition_2x2(a, b) == 0
    return a, b


class TestSignedPermutationExpectation:
    def test_group_size(self):
        assert sum(1 for _ in signed_permutations(4)) == 384

    def test_simple_diagonal_case(self):
        d = Matrix.diagonal([1, -1])
        assert expected_charpoly_signed_perms(d, d, "additive") == Polynomial([1, 0, -2])

    def test_zero_summand(self):
        rng = random.Random(40)
        a = rand_symmetric(rng, 3)
        zero = Matrix([[0] * 3] * 3)
        assert expected_charpoly_signed_perms(a, zero, "additive") == char_poly(a)

    def test_multiplicative_diagonal_case(self):
        a, b = Matrix.diagonal([1, 2]), Matrix.diagonal([3, 4])
        expected = boxtimes(Polynomial([1, -3, 2]), Polynomial([1, -7, 12]))
        assert expected_charpoly_signed_perms(a, b, "multiplicative") == expected

    def test_exact_identity_for_symmetric_pairs(self):
        rng = random.Random(41)
        for n in (2, 3, 4):
            for _ in range(3):
                a, b = rand_symmetric(rng, n), rand_symmetric(rng, n)
                assert expected_charpoly_signed_perms(a, b, "additive") == boxplus(
                    char_poly(a), char_poly(b)
                )
                assert expected_charpoly_signed_perms(a, b, "multiplicative") == boxtimes(
                    char_poly(a), char_poly(b)
                )

    def test_exact_identity_for_non_symmetric_pairs(self):
        # signs kill every non-principal term, so no symmetry is needed
        rng = random.Random(42)
        skew = Matrix([[0, 1], [-1, 0]])
        pairs = [(skew, Matrix([[1, 2], [0, 3]]))]
        for n in (2, 3, 4):
            for gaussian in (False, True):
                a, b = random_matrix(rng, n), random_matrix(rng, n)
                if gaussian:
                    a = a + random_matrix(rng, n).scale(I)
                    b = b + random_matrix(rng, n).scale(I)
                pairs.append((a, b))
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            for a, b in pairs:
                assert expected_charpoly_signed_perms(a, b, "additive") == boxplus(
                    char_poly(a), char_poly(b)
                )
                assert expected_charpoly_signed_perms(a, b, "multiplicative") == boxtimes(
                    char_poly(a), char_poly(b)
                )

    def test_size_guard(self):
        with pytest.raises(SizeGuardError):
            expected_charpoly_signed_perms(
                Matrix.identity(7), Matrix.identity(7), "additive"
            )


class TestHaarMonteCarlo:
    def test_identity_hook(self, monkeypatch):
        def identities(n, count, rng):
            return np.broadcast_to(np.eye(n, dtype=complex), (count, n, n))

        monkeypatch.setattr("finfree.ffp.haar_unitaries", identities)
        result = expected_charpoly_haar_mc(REMARK_A, REMARK_B, "additive", 3, 0)
        expected = [complex(c) for c in char_poly(REMARK_A + REMARK_B).coeffs]
        assert np.allclose(result.coeffs, [c.real for c in expected])

    def test_deterministic_given_seed(self):
        r1 = expected_charpoly_haar_mc(REMARK_A, REMARK_B, "additive", 2000, 42)
        r2 = expected_charpoly_haar_mc(REMARK_A, REMARK_B, "additive", 2000, 42)
        assert r1.coeffs == r2.coeffs
        assert r1.max_deviation == r2.max_deviation

    def test_statistical_convergence(self):
        d = Matrix.diagonal([1, -1])
        result = expected_charpoly_haar_mc(d, d, "additive", 100_000, 7, tolerance=0.05)
        assert result.max_deviation < 0.05
        assert result.within_tolerance is True

    def test_tolerance_reporting(self):
        result = expected_charpoly_haar_mc(
            REMARK_A, REMARK_B, "additive", 500, 3, tolerance=1e9
        )
        assert result.within_tolerance is True
        assert result.tolerance == 1e9

    def test_sample_guard(self):
        with pytest.raises(SizeGuardError):
            expected_charpoly_haar_mc(REMARK_A, REMARK_B, "additive", 0, 1)


class TestEklWitness:
    def test_diagonal_has_no_witness(self):
        assert ekl_witness(Matrix.diagonal([1, 2, 3])) is None

    def test_golden_matrix(self):
        k, l, report = ekl_witness(GOLDEN_B)
        assert (k, l) == (1, 2)
        assert not report.verdict
        # the x^{n-2} coefficient difference is exactly -a_{lk}
        assert report.residuals[2] == -GOLDEN_B.entry(2, 1)

    def test_unit_matrix_input(self):
        k, l, report = ekl_witness(Matrix.unit(3, 1, 3))
        assert (k, l) == (3, 1)
        assert not report.verdict

    def test_witness_scan_is_exhaustive(self):
        rng = random.Random(42)
        for _ in range(20):
            n = rng.randint(2, 4)
            a = random_matrix(rng, n)
            found = ekl_witness(a)
            off_diag = any(
                a.entry(i, j) for i in range(1, n + 1) for j in range(1, n + 1) if i != j
            )
            assert (found is not None) == off_diag
            if found:
                k, l, report = found
                assert a.entry(l, k)
                assert report.residuals[2] == -a.entry(l, k)


class TestReportSerialization:
    def test_json_shape_and_roundtrip(self):
        report = is_additive_ffp(GOLDEN_A, GOLDEN_B)
        obj = report.to_json()
        assert obj["kind"] == "additive"
        assert obj["verdict"] is False
        assert obj["residuals"] == {"3": "-1/3"}

    def test_dimension_mismatch(self):
        with pytest.raises(DimensionMismatchError):
            check_ffp(Matrix.identity(2), Matrix.identity(3), "additive")
