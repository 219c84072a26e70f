"""Acceptance suite: one test per criterion, exact checks only.

Run with ``pytest -v tests/test_acceptance.py`` for one pass/fail line per
criterion (each test also prints a [acceptance] summary line).
"""

import random
from fractions import Fraction

import pytest

from finfree import (
    FamilyId,
    Matrix,
    MomentVector,
    Polynomial,
    boxplus,
    boxtimes,
    char_poly,
    closed_form_sum_moment,
    coeffs_from_moments,
    condition_2x2,
    cumulants_of_matrix,
    expected_charpoly_haar_mc,
    expected_charpoly_signed_perms,
    has_single_eigenvalue,
    is_additive_ffp,
    is_member,
    is_multiplicative_ffp,
    matrix_moment,
    moments_from_coeffs,
    mult_ffp_moment,
    principal_minors,
    rank_upper_bound,
    sample_member,
    verify_pair,
)
from helpers import conjugate, inverse, poly_of_matrix, rand_monic, rand_scalar, rand_symmetric

GOLDEN_A = Matrix([[1, 0, 0], [0, 0, 0], [0, 0, 0]])
GOLDEN_B = Matrix([[1, 1, 0], [1, 1, 0], [0, 0, 1]])
REMARK_A = Matrix.diagonal([1, 2, 3])
REMARK_B = Matrix([[1, -1, 0], [-1, 13, -3], [0, -3, 1]])
EXAMPLE_75_B = Matrix([[1, -1, 2], [-1, -2, 1], [2, 1, 1]])
EXAMPLE_PB = Matrix([[1, 2, 3], [6, 1, -12], [4, -1, 1]])


def _report(number, text):
    print(f"[acceptance] criterion {number:>2} PASS: {text}")


def test_criterion_01_golden_example():
    # the worked 3x3 example: multiplicative FFP holds, additive fails
    assert char_poly(GOLDEN_A) == Polynomial([1, -1, 0, 0])
    assert char_poly(GOLDEN_B) == Polynomial([1, -3, 2, 0])
    # chi(0) = (-1)^3 det(A+B) with det(A+B) = 1 forces the constant term -1
    assert char_poly(GOLDEN_A + GOLDEN_B) == Polynomial([1, -4, 4, -1])
    assert char_poly(GOLDEN_A @ GOLDEN_B) == Polynomial([1, -1, 0, 0])
    assert boxplus(char_poly(GOLDEN_A), char_poly(GOLDEN_B)) == Polynomial(
        [1, -4, 4, Fraction(-2, 3)]
    )
    assert boxtimes(char_poly(GOLDEN_A), char_poly(GOLDEN_B)) == Polynomial([1, -1, 0, 0])
    assert not is_additive_ffp(GOLDEN_A, GOLDEN_B).verdict
    assert is_multiplicative_ffp(GOLDEN_A, GOLDEN_B).verdict
    _report(1, "golden example polynomials and verdicts reproduced exactly")


def test_criterion_02_additive_counterexample_suite():
    assert is_additive_ffp(REMARK_A, REMARK_B).verdict
    for lam in (2, -1, Fraction(1, 2)):
        assert not is_additive_ffp(REMARK_A.scale(lam), REMARK_B).verdict
    assert not is_additive_ffp(REMARK_A @ REMARK_A, REMARK_B).verdict
    assert not is_additive_ffp(inverse(REMARK_A), REMARK_B).verdict
    _report(2, "additive pair holds; scaling, squaring, inverting all break it")


def test_criterion_03_multiplicative_counterexample_suite():
    assert is_multiplicative_ffp(REMARK_A, EXAMPLE_75_B).verdict
    # adding a scalar breaks the (singular-A) golden pair; squaring and
    # inverting break the diagonal pair
    assert not is_multiplicative_ffp(Matrix.identity(3) + GOLDEN_A, GOLDEN_B).verdict
    assert not is_multiplicative_ffp(REMARK_A @ REMARK_A, EXAMPLE_75_B).verdict
    assert not is_multiplicative_ffp(inverse(REMARK_A), EXAMPLE_75_B).verdict
    _report(3, "multiplicative pair holds; I+A, squaring, inverting all break it")


def test_criterion_04_principally_balanced_goldens():
    assert is_member(EXAMPLE_PB, FamilyId.PRINCIPALLY_BALANCED)
    assert all(v == 1 for _, v in principal_minors(EXAMPLE_PB, 1))
    assert all(v == -11 for _, v in principal_minors(EXAMPLE_PB, 2))
    for n in (3, 4, 5):
        m = Matrix([[Fraction(i, j) for j in range(1, n + 1)] for i in range(1, n + 1)])
        assert is_member(m, FamilyId.PRINCIPALLY_BALANCED)
        for k in range(2, n + 1):
            assert all(not v for _, v in principal_minors(m, k))
    _report(4, "balanced goldens: order-2 minors -11; rank-one family all zero")


FAMILY_PAIRS = (
    (FamilyId.DIAGONAL, FamilyId.PRINCIPALLY_BALANCED),
    (FamilyId.UPPER_TRIANGULAR, FamilyId.UPPER_TRIANGULAR_CONST_DIAG),
    (FamilyId.LOWER_TRIANGULAR, FamilyId.LOWER_TRIANGULAR_CONST_DIAG),
    (FamilyId.SCALAR, FamilyId.ALL),
)


def test_criterion_05_complementary_pair_suites():
    checked = 0
    for f, g in FAMILY_PAIRS:
        for n in (2, 3, 4, 5):
            for kind in ("additive", "multiplicative"):
                report = verify_pair(f, g, kind, trials=200, seed=1000 + n, n=n)
                assert report.all_passed, (f, g, n, kind, report.failures[:1])
                checked += report.trials
    _report(5, f"{checked} sampled pairs across 4 family pairs, all in FFP")


def test_criterion_06_expectation_identity():
    rng = random.Random(600)
    pairs = [(n, rand_symmetric(rng, n), rand_symmetric(rng, n)) for n in (2, 3, 4) for _ in
             (range(7) if n < 4 else range(6))]
    assert len(pairs) == 20
    for n, a, b in pairs:
        add = expected_charpoly_signed_perms(a, b, "additive")
        assert add == boxplus(char_poly(a), char_poly(b))
        mult = expected_charpoly_signed_perms(a, b, "multiplicative")
        assert mult == boxtimes(char_poly(a), char_poly(b))
    mc = expected_charpoly_haar_mc(REMARK_A, REMARK_B, "additive", 100_000, 1, tolerance=0.1)
    assert mc.max_deviation < 0.1
    _report(6, f"exact signed-permutation identity on 20 pairs; MC deviation {mc.max_deviation:.3f} < 0.1")


def test_criterion_07_moment_layer():
    rng = random.Random(700)
    for _ in range(100):
        p = rand_monic(rng, rng.randint(1, 6))
        assert coeffs_from_moments(moments_from_coeffs(p)) == p

    for _ in range(50):
        n = rng.randint(2, 5)
        a = sample_member(FamilyId.DIAGONAL, n, rng)
        b = sample_member(FamilyId.PRINCIPALLY_BALANCED, n, rng)
        assert is_additive_ffp(a, b).verdict
        ma = MomentVector.of_matrix(a, count=max(n, 4))
        mb = MomentVector.of_matrix(b, count=max(n, 4))
        for k in range(1, 5):
            assert closed_form_sum_moment(k, ma, mb, n) == matrix_moment(a + b, k)

    for _ in range(25):
        n = rng.randint(2, 5)
        a = sample_member(FamilyId.DIAGONAL, n, rng)
        b = sample_member(FamilyId.PRINCIPALLY_BALANCED, n, rng)
        ka, kb, ks = (cumulants_of_matrix(x) for x in (a, b, a + b))
        for i in range(1, n + 1):
            assert ks[i] == ka[i] + kb[i]

    from finfree import cumulants_from_moments, moments_from_cumulants

    for _ in range(25):
        n = rng.randint(1, 6)
        m = MomentVector(n, [rand_scalar(rng) for _ in range(n)])
        kappa = cumulants_from_moments(m)
        for j in range(1, n + 1):
            assert moments_from_cumulants(kappa, j) == m[j]
    _report(7, "Lewin/Newton roundtrip, closed-form sums, cumulant additivity, cumulant roundtrip")


def test_criterion_08_self_ffp_characterization():
    rng = random.Random(800)
    singles = 0
    for i in range(200):
        n = rng.randint(1, 4)
        style = i % 4
        if style == 0:
            a = sample_member(FamilyId.UPPER_TRIANGULAR, n, rng)
        elif style == 1:
            a = sample_member(FamilyId.UPPER_TRIANGULAR_CONST_DIAG, n, rng)
        elif style == 2:
            a = _conjugated(rng, sample_member(FamilyId.DIAGONAL, n, rng))
        else:
            a = _conjugated(rng, Matrix.identity(n).scale(rand_scalar(rng)))
        single = has_single_eigenvalue(a)
        singles += single
        assert single == is_additive_ffp(a, a).verdict
        assert single == is_multiplicative_ffp(a, a).verdict
    assert 0 < singles < 200  # both sides of the equivalence exercised
    _report(8, f"single-eigenvalue test matches both self-FFP verdicts on 200 matrices ({singles} single)")


def _conjugated(rng, m):
    from helpers import rand_invertible

    return conjugate(m, rand_invertible(rng, m.n))


def test_criterion_09_two_by_two_closed_form():
    rng = random.Random(900)
    from finfree.families import random_matrix

    for _ in range(500):
        a, b = random_matrix(rng, 2), random_matrix(rng, 2)
        condition = condition_2x2(a, b)
        assert (not condition) == is_additive_ffp(a, b).verdict
        assert (not condition) == is_multiplicative_ffp(a, b).verdict

    for _ in range(50):
        while True:
            a = random_matrix(rng, 2)
            if a.entry(1, 2):
                break
        b11, b12, b22 = (rand_scalar(rng) for _ in range(3))
        b21 = ((a.entry(1, 1) - a.entry(2, 2)) * (b22 - b11) - a.entry(2, 1) * b12 * 2) / (
            a.entry(1, 2) * 2
        )
        b = Matrix([[b11, b12], [b21, b22]])
        assert is_additive_ffp(a, b).verdict
        p = [rand_scalar(rng) for _ in range(rng.randint(1, 4))]
        q = [rand_scalar(rng) for _ in range(rng.randint(1, 4))]
        assert is_additive_ffp(poly_of_matrix(p, a), poly_of_matrix(q, b)).verdict
    _report(9, "closed form decides both verdicts on 500 pairs; polynomial closure on 50 pairs")


def test_criterion_10_product_moment_identities():
    rng = random.Random(1000)
    for _ in range(100):
        n = rng.randint(3, 5)
        a = sample_member(FamilyId.DIAGONAL, n, rng)
        b = sample_member(FamilyId.PRINCIPALLY_BALANCED, n, rng)
        assert is_multiplicative_ffp(a, b).verdict
        ma, mb = MomentVector.of_matrix(a), MomentVector.of_matrix(b)
        assert mult_ffp_moment(1, ma, mb, n) == matrix_moment(a @ b, 1)
        assert mult_ffp_moment(2, ma, mb, n) == matrix_moment(a @ b, 2)

    for _ in range(100):
        n = rng.randint(2, 5)
        a = sample_member(FamilyId.DIAGONAL, n, rng)
        b = sample_member(FamilyId.PRINCIPALLY_BALANCED, n, rng)
        assert is_additive_ffp(a, b).verdict
        m = matrix_moment
        assert m(a @ b, 1) == m(a, 1) * m(b, 1)
        assert m(a @ b @ b, 1) + m(a @ a @ b, 1) == m(a, 1) * m(b, 2) + m(a, 2) * m(b, 1)
    _report(10, "product-moment formulas and bilinear trace identities on 200 pairs")


def test_formula_evaluations_noted_in_criteria():
    # rank bound values are verified as formula evaluations only
    assert rank_upper_bound(2) == 4
    assert rank_upper_bound(3) == 27
