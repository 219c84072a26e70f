import hashlib
import json
import operator
import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from finfree import (
    FamilyId,
    GaussianRational,
    IndexRangeError,
    Matrix,
    ParseError,
    Polynomial,
    SizeGuardError,
    UnsupportedPairError,
    char_poly,
    check_ffp,
    cycle_sums,
    is_additive_ffp,
    is_member,
    pb_charpoly_from_minors,
    principal_minors,
    rank_upper_bound,
    sample_member,
    verify_pair,
)
from finfree import families
from finfree.families import (
    EQUATIONS,
    SUPPORTED_PAIRS,
    _construct_structured,
    _sample_outside_first_family,
    _sample_outside_second_family,
    diagonal_probe,
    rand_fraction,
    random_matrix,
)
from helpers import (
    conjugate,
    ffp_report_oracle,
    is_member_by_entries,
    permutation_matrix,
    poly_of_matrix,
    rand_nonzero_fraction,
    rand_scalar,
    random_matrix_by_fractions,
    root_power,
    structured_by_fractions,
)

PB = FamilyId.PRINCIPALLY_BALANCED
EXAMPLE_PB = Matrix([[1, 2, 3], [6, 1, -12], [4, -1, 1]])
STRUCTURAL = [
    FamilyId.DIAGONAL,
    FamilyId.SCALAR,
    FamilyId.UPPER_TRIANGULAR,
    FamilyId.LOWER_TRIANGULAR,
    FamilyId.UPPER_TRIANGULAR_CONST_DIAG,
    FamilyId.LOWER_TRIANGULAR_CONST_DIAG,
]

# sha256 over the JSON of every sampler's draws: each family at n = 1..5 and
# seeds 0..9, then the outsiders that the boundary checks start from. It was
# recorded from the samplers written out family by family, before they read
# one table of equations.
SAMPLER_DIGEST = "7b3c1df4caacee7ff8807abe3bc29d8a7045e2ba0d25cf54b0aa2f71a0cf59f5"

NONZERO = st.builds(Fraction, st.integers(1, 9) | st.integers(-9, -1), st.integers(1, 4))
PATTERNS = {
    "below": operator.gt,
    "above": operator.lt,
    "off-diagonal": operator.ne,
    "none": lambda i, j: False,
}


@st.composite
def planted_zeros(draw):
    """A matrix that vanishes on a drawn zero pattern, its diagonal maybe
    constant, with at most one defect: a nonzero in one zero cell, or one
    diagonal entry off the first."""
    n = draw(st.integers(1, 5))
    real = st.builds(GaussianRational, NONZERO)
    gaussian = st.builds(GaussianRational, NONZERO | st.just(0), NONZERO)
    entry = real | gaussian if draw(st.booleans()) else real
    vanishes = PATTERNS[draw(st.sampled_from(sorted(PATTERNS)))]
    rows = [[GaussianRational(0) if vanishes(i, j) else draw(entry) for j in range(n)] for i in range(n)]
    if draw(st.booleans()):
        c = draw(entry | st.just(GaussianRational(0)))
        for i in range(n):
            rows[i][i] = c
    defect = draw(st.sampled_from(("none", "zero-cell", "diagonal")))
    cells = [(i, j) for i in range(n) for j in range(n) if vanishes(i, j)]
    if defect == "zero-cell" and cells:
        i, j = draw(st.sampled_from(cells))
        rows[i][j] = draw(entry)
    elif defect == "diagonal" and n > 1:
        i = draw(st.integers(1, n - 1))
        rows[i][i] = rows[0][0] + draw(entry)
    return Matrix(rows)


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

    @settings(max_examples=200, deadline=None)
    @given(planted_zeros())
    def test_matches_written_out_equations(self, m):
        for family in STRUCTURAL + [FamilyId.ALL]:
            assert is_member(m, family) == is_member_by_entries(m, family)

    @pytest.mark.parametrize("family", ["diag", None, 3, ["ut"]])
    def test_non_family_is_a_parse_error(self, family):
        with pytest.raises(ParseError):
            is_member(Matrix.identity(2), family)
        with pytest.raises(ParseError):
            sample_member(family, 2, 0)

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

    def test_every_sampler_draws_what_it_drew(self):
        digest = hashlib.sha256()
        for family in FamilyId:
            for n in range(1, 6):
                for seed in range(10):
                    digest.update(json.dumps(sample_member(family, n, seed).to_json()).encode())
        outsiders = (
            ((FamilyId.DIAGONAL, FamilyId.UPPER_TRIANGULAR, FamilyId.LOWER_TRIANGULAR), _sample_outside_first_family),
            (
                (PB, FamilyId.UPPER_TRIANGULAR_CONST_DIAG, FamilyId.LOWER_TRIANGULAR_CONST_DIAG),
                _sample_outside_second_family,
            ),
        )
        for families, outside in outsiders:
            for family in families:
                for n in range(2, 6):
                    for seed in range(10):
                        m = outside(family, random.Random(seed), n, 10)
                        digest.update(json.dumps(m.to_json()).encode())
        assert digest.hexdigest() == SAMPLER_DIGEST

    def test_deterministic_for_seed(self):
        assert sample_member(PB, 4, 99) == sample_member(PB, 4, 99)

    @pytest.mark.parametrize("bound", [1, 2, 3, 7, 10, 64, 65])
    def test_rand_fraction_draws_what_randint_draws(self, bound):
        for seed in range(150):
            ints, direct = random.Random(seed), random.Random(seed)
            drawn = [rand_fraction(ints, bound) for _ in range(20)]
            assert drawn == [
                Fraction(direct.randint(-bound, bound), direct.randint(1, bound)) for _ in range(20)
            ]
            assert ints.getstate() == direct.getstate()

    # _randbelow(0) would draw forever: a bound below 1 is refused before any draw
    @pytest.mark.parametrize("bound", [0, -3])
    def test_bound_below_one_is_refused(self, bound):
        rng = random.Random(0)
        state = rng.getstate()
        for draw in (lambda: rand_fraction(rng, bound), lambda: random_matrix(rng, 2, bound)):
            with pytest.raises(ValueError, match="bound must be >= 1"):
                draw()
        assert rng.getstate() == state

    # SAMPLER_DIGEST pins bound 10 alone
    @pytest.mark.parametrize("bound", [1, 10, 64, 65])
    def test_integer_draws_build_the_fraction_route_matrix(self, bound):
        for seed in range(50):
            for n in range(1, 7):
                ints, fractions = random.Random(seed), random.Random(seed)
                assert random_matrix(ints, n, bound) == random_matrix_by_fractions(fractions, n, bound)
                for vanishes, constant in EQUATIONS.values():
                    assert _construct_structured(vanishes, constant, n, ints, bound) == structured_by_fractions(
                        vanishes, constant, n, fractions, bound
                    )
                assert ints.getstate() == fractions.getstate()


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
        report = verify_pair(FamilyId.SCALAR, FamilyId.ALL, "multiplicative", 5, 11, 2)
        obj = report.to_json()
        assert obj["families"] == ["scalar", "all"]
        assert obj["failures"] == []
        assert all("outsider" in c for c in obj["boundary_checks"])

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
        from finfree.errors import GUARDS

        with pytest.raises(SizeGuardError):
            rank_upper_bound(GUARDS["rank-bound"][0] + 1)


class TestBalancedCharPoly:
    def test_example_profile(self):
        det = EXAMPLE_PB.det()
        profile = [1, 1, -11, det]
        assert pb_charpoly_from_minors(profile) == char_poly(EXAMPLE_PB)

    def test_nilpotent_profile(self):
        assert pb_charpoly_from_minors([1, 0, 0, 0]) == Polynomial([1, 0, 0, 0])

    def test_scalar_profile(self):
        c = Fraction(5, 3)
        profile = [c**i for i in range(5)]
        assert pb_charpoly_from_minors(profile) == root_power(c, 4)

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


# -- verdicts without reports: only kept pairs get one --------------------------


@settings(max_examples=40, deadline=None)
@given(st.sampled_from(SUPPORTED_PAIRS), st.sampled_from(("additive", "multiplicative")),
       st.integers(2, 4), st.integers(0, 2**31))
def test_boundary_reports_match_a_fresh_check(pair, kind, n, seed):
    report = verify_pair(*pair, kind, trials=2, seed=seed, n=n)
    assert report.boundary_checks
    for check in report.boundary_checks:
        # both kinds are symmetric in A and B (chi_AB = chi_BA), so the order
        # in which the search checked the pair does not matter
        a, b = check.outsider, check.partner
        assert check.report.to_json() == check_ffp(a, b, kind).to_json()
        assert check.report == ffp_report_oracle(a, b, kind)
        assert not check.report.verdict
        assert list(check.to_json()) == ["label", "outsider", "partner", "report"]


@pytest.mark.parametrize("kind", ["additive", "multiplicative"])
def test_trial_failure_carries_its_report_and_replays(monkeypatch, kind):
    # every trial draws two dense matrices, which are not in finite free position
    monkeypatch.setattr(families, "sample_member", lambda family, n, rng, bound: random_matrix(rng, n, bound))
    seed, trials = 40, 3
    report = verify_pair(FamilyId.DIAGONAL, PB, kind, trials=trials, seed=seed, n=3)
    assert [f.trial for f in report.failures] == list(range(trials))
    for failure in report.failures:
        assert failure.seed == seed + failure.trial
        assert failure.report == check_ffp(failure.a, failure.b, kind)
        assert failure.report == ffp_report_oracle(failure.a, failure.b, kind)
        assert not failure.report.verdict and failure.report.residuals
        obj = failure.to_json()
        assert (obj["trial"], obj["seed"]) == (failure.trial, failure.seed)
        assert obj["report"] == failure.report.to_json()
        # the recorded seed with one trial draws the same failing pair
        (replay,) = verify_pair(FamilyId.DIAGONAL, PB, kind, trials=1, seed=failure.seed, n=3).failures
        assert (replay.a, replay.b, replay.report) == (failure.a, failure.b, failure.report)
        assert (replay.trial, replay.seed) == (0, failure.seed)
    assert report.to_json()["failures"] == [f.to_json() for f in report.failures]
