import random
from fractions import Fraction

import pytest

from finfree import (
    FamilyId,
    IndexRangeError,
    Matrix,
    ParseError,
    Polynomial,
    SizeGuardError,
    UnsupportedPairError,
    char_poly,
    conjugate,
    cycle_sums,
    is_additive_ffp,
    is_member,
    pb_charpoly_from_minors,
    principal_minors,
    rank_upper_bound,
    sample_member,
    verify_pair,
)
from finfree.families import (
    diagonal_probe,
    rand_nonzero_fraction,
)
from helpers import permutation_matrix, poly_of_matrix, rand_scalar

PB = FamilyId.PRINCIPALLY_BALANCED
EXAMPLE_PB = Matrix([[1, 2, 3], [6, 1, -12], [4, -1, 1]])


class TestMembership:
    def test_balanced_goldens(self):
        assert is_member(EXAMPLE_PB, PB)
        assert not is_member(Matrix.diagonal([1, 2]), PB)
        for n in (3, 4, 5):
            m = Matrix([[Fraction(i, j) for j in range(1, n + 1)] for i in range(1, n + 1)])
            assert is_member(m, PB)

    def test_structural_families(self):
        ut = Matrix([[1, 2], [0, 3]])
        assert is_member(ut, FamilyId.UPPER_TRIANGULAR)
        assert not is_member(ut, FamilyId.LOWER_TRIANGULAR)
        assert is_member(ut.transpose(), FamilyId.LOWER_TRIANGULAR)
        assert not is_member(ut, FamilyId.UPPER_TRIANGULAR_CONST_DIAG)
        assert is_member(Matrix([[1, 2], [0, 1]]), FamilyId.UPPER_TRIANGULAR_CONST_DIAG)
        assert is_member(Matrix.identity(3).scale(5), FamilyId.SCALAR)
        assert is_member(ut, FamilyId.ALL)

    def test_containments(self):
        rng = random.Random(50)
        for _ in range(10):
            n = rng.randint(1, 5)
            s = sample_member(FamilyId.SCALAR, n, rng)
            assert is_member(s, FamilyId.DIAGONAL)
            d = sample_member(FamilyId.DIAGONAL, n, rng)
            assert is_member(d, FamilyId.UPPER_TRIANGULAR)
            assert is_member(d, FamilyId.LOWER_TRIANGULAR)

    def test_triangular_constant_diagonal_is_balanced(self):
        # within the triangular family, balanced == constant diagonal
        rng = random.Random(51)
        for _ in range(15):
            n = rng.randint(2, 4)
            c = sample_member(FamilyId.UPPER_TRIANGULAR_CONST_DIAG, n, rng)
            assert is_member(c, PB)
            t = sample_member(FamilyId.UPPER_TRIANGULAR, n, rng)
            assert is_member(t, PB) == is_member(t, FamilyId.UPPER_TRIANGULAR_CONST_DIAG)


class TestCycleSums:
    def test_balanced_example(self):
        cs = cycle_sums(EXAMPLE_PB)
        assert cs.values(1) == [1, 1, 1]
        assert cs.values(2) == [12, 12, 12]
        assert cs.balanced
        # order-2 minor = (order-1 sum)^2 - order-2 cycle sum
        minors = [v for _, v in principal_minors(EXAMPLE_PB, 2)]
        assert all(v == 1 * 1 - 12 == -11 for v in minors)

    def test_diagonal_matrix(self):
        cs = cycle_sums(Matrix.diagonal([3, 1, 4]))
        assert cs.values(1) == [3, 1, 4]
        for k in (2, 3):
            assert all(not v for v in cs.values(k))

    def test_unit_matrix(self):
        cs = cycle_sums(Matrix.unit(3, 1, 2))
        for k in (1, 2, 3):
            assert all(not v for v in cs.values(k))
        assert cs.balanced

    def test_json_roundtrip(self):
        from finfree import CycleSums

        cs = cycle_sums(EXAMPLE_PB)
        assert CycleSums.from_json(cs.to_json()) == cs

    def test_balanced_flag_matches_membership(self):
        rng = random.Random(52)
        from finfree.families import random_matrix

        samples = [sample_member(PB, rng.randint(2, 5), rng) for _ in range(10)]
        samples += [random_matrix(rng, rng.randint(2, 5)) for _ in range(10)]
        for m in samples:
            assert cycle_sums(m).balanced == is_member(m, PB)

    def test_size_guard(self):
        with pytest.raises(SizeGuardError):
            cycle_sums(Matrix.identity(13))


class TestSamplers:
    @pytest.mark.parametrize("family", list(FamilyId))
    def test_membership_for_all_families(self, family):
        rng = random.Random(53)
        for n in range(1, 6):
            for _ in range(5):
                assert is_member(sample_member(family, n, rng), family)

    def test_rank_one_construction(self):
        from finfree.families import _rank_one_balanced

        rng = random.Random(54)
        for _ in range(10):
            m = _rank_one_balanced(4, rng, 10)
            assert is_member(m, PB)
            assert all(not v for _, v in principal_minors(m, 2))

    def test_pb_invariance_under_conjugation(self):
        rng = random.Random(55)
        for _ in range(10):
            n = rng.randint(2, 4)
            b = sample_member(PB, n, rng)
            perm = list(range(n))
            rng.shuffle(perm)
            assert is_member(conjugate(b, permutation_matrix(perm)), PB)
            d = Matrix.diagonal([rand_nonzero_fraction(rng) for _ in range(n)])
            assert is_member(conjugate(b, d), PB)

    def test_deterministic_for_seed(self):
        assert sample_member(PB, 4, 99) == sample_member(PB, 4, 99)


class TestVerifyPair:
    @pytest.mark.parametrize(
        "f,g",
        [
            (FamilyId.DIAGONAL, PB),
            (FamilyId.UPPER_TRIANGULAR, FamilyId.UPPER_TRIANGULAR_CONST_DIAG),
            (FamilyId.LOWER_TRIANGULAR, FamilyId.LOWER_TRIANGULAR_CONST_DIAG),
            (FamilyId.SCALAR, FamilyId.ALL),
        ],
    )
    @pytest.mark.parametrize("kind", ["additive", "multiplicative"])
    def test_supported_pairs_pass(self, f, g, kind):
        report = verify_pair(f, g, kind, trials=30, seed=7, n=3)
        assert report.all_passed
        assert not report.failures
        assert report.boundary_checks
        for check in report.boundary_checks:
            assert not check.report.verdict

    def test_swapped_order_accepted(self):
        report = verify_pair(PB, FamilyId.DIAGONAL, "additive", trials=5, seed=1, n=2)
        assert report.families == (FamilyId.DIAGONAL, PB)

    def test_unsupported_pair_rejected(self):
        with pytest.raises(UnsupportedPairError):
            verify_pair(FamilyId.DIAGONAL, FamilyId.UPPER_TRIANGULAR, "additive", 5, 1, 3)

    def test_dimension_one(self):
        report = verify_pair(FamilyId.DIAGONAL, PB, "additive", trials=10, seed=3, n=1)
        assert report.all_passed
        assert report.boundary_checks == []

    def test_report_json_roundtrip(self):
        from finfree.families import PairCheckReport

        report = verify_pair(FamilyId.SCALAR, FamilyId.ALL, "multiplicative", 5, 11, 2)
        obj = report.to_json()
        assert obj["families"] == ["scalar", "all"]
        assert obj["failures"] == []
        assert all("outsider" in c for c in obj["boundary_checks"])
        assert PairCheckReport.from_json(obj) == report

    def test_non_diagonal_boundary_example(self):
        # a concrete escape from the diagonal family
        from finfree import ekl_witness

        a = Matrix([[1, 1], [0, 2]])
        witness = ekl_witness(a)
        assert witness is not None
        assert not witness[2].verdict

    def test_probe_construction(self):
        add = diagonal_probe(4, (1, 2), 10, "additive")
        assert add == Matrix.diagonal([0, 10, 10, 0])
        mult = diagonal_probe(4, (1, 2), 10, "multiplicative")
        assert mult == Matrix.diagonal([1, 10, 10, 1])


class TestRankBound:
    def test_values(self):
        assert rank_upper_bound(1) == 0
        assert rank_upper_bound(2) == 4
        assert rank_upper_bound(3) == 27

    def test_guard(self):
        with pytest.raises(IndexRangeError):
            rank_upper_bound(0)

    def test_size_guard(self):
        from finfree.families import RANK_BOUND_LIMIT

        with pytest.raises(SizeGuardError):
            rank_upper_bound(RANK_BOUND_LIMIT + 1)


class TestBalancedCharPoly:
    def test_example_profile(self):
        det = EXAMPLE_PB.det()
        profile = [1, 1, -11, det]
        assert pb_charpoly_from_minors(profile) == char_poly(EXAMPLE_PB)

    def test_nilpotent_profile(self):
        assert pb_charpoly_from_minors([1, 0, 0, 0]) == Polynomial.x_power(3)

    def test_scalar_profile(self):
        c = Fraction(5, 3)
        profile = [c**i for i in range(5)]
        assert pb_charpoly_from_minors(profile) == Polynomial.x_power(4).shift_argument(c)

    def test_bad_leading_minor(self):
        with pytest.raises(ParseError):
            pb_charpoly_from_minors([2, 1, 1])

    def test_agrees_for_sampled_members(self):
        rng = random.Random(56)
        for _ in range(10):
            n = rng.randint(2, 4)
            b = sample_member(PB, n, rng)
            profile = [principal_minors(b, k)[0][1] for k in range(n + 1)]
            assert pb_charpoly_from_minors(profile) == char_poly(b)


class TestCommutingCorollary:
    def test_simultaneously_triangularized_polynomials(self):
        # p(A), q(B) for A, B conjugates of triangular (const-diag, plain)
        # matrices by one shared conjugator stay in additive FFP
        rng = random.Random(57)
        from helpers import rand_invertible

        for _ in range(10):
            n = rng.randint(2, 4)
            const = sample_member(FamilyId.UPPER_TRIANGULAR_CONST_DIAG, n, rng)
            plain = sample_member(FamilyId.UPPER_TRIANGULAR, n, rng)
            p = rand_invertible(rng, n)
            a, b = conjugate(const, p), conjugate(plain, p)
            pa = poly_of_matrix([rand_scalar(rng) for _ in range(3)], a)
            qb = poly_of_matrix([rand_scalar(rng) for _ in range(3)], b)
            assert is_additive_ffp(pa, qb).verdict
