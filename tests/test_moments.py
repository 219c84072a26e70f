import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from finfree import (
    CumulantVector,
    DegreeMismatchError,
    DimensionMismatchError,
    FamilyId,
    FinFreeError,
    GaussianRational,
    IndexRangeError,
    Matrix,
    MomentVector,
    ParseError,
    Polynomial,
    SizeGuardError,
    closed_form_sum_moment,
    coeffs_from_moments,
    cumulants_from_moments,
    cumulants_of_matrix,
    char_poly,
    ffp_sum_moments,
    has_single_eigenvalue,
    is_additive_ffp,
    is_multiplicative_ffp,
    matrix_moment,
    moments_from_coeffs,
    moments_from_cumulants,
    mult_ffp_moment,
    sample_member,
)
from finfree.errors import GUARDS
from finfree.families import random_matrix
from finfree.matrices import moment_vector_of
from finfree.polynomials import _moments, boxplus, boxtimes
from finfree.scalars import _GaussInt
from helpers import (
    conjugate,
    cumulants_by_newton,
    moment_from_cumulants_by_newton,
    moments_by_newton,
    rand_invertible,
    rand_monic,
    rand_scalar,
    root_power,
    series_by_newton,
    single_eigenvalue_by_shift,
)

REMARK_A = Matrix.diagonal([1, 2, 3])
REMARK_B = Matrix([[1, -1, 0], [-1, 13, -3], [0, -3, 1]])


def sample_additive_ffp_pair(rng, n):
    """A diagonal/balanced pair; in additive FFP by the complementary-pair
    theorem, re-checked exactly."""
    a = sample_member(FamilyId.DIAGONAL, n, rng)
    b = sample_member(FamilyId.PRINCIPALLY_BALANCED, n, rng)
    assert is_additive_ffp(a, b).verdict
    return a, b


class TestLewinNewton:
    def test_diag_example(self):
        m = MomentVector(3, [2, Fraction(14, 3), 12])
        assert coeffs_from_moments(m) == Polynomial([1, -6, 11, -6])
        back = moments_from_coeffs(Polynomial([1, -6, 11, -6]))
        assert back.values == m.values

    def test_single_eigenvalue_profile(self):
        c = Fraction(7, 3)
        for n in (2, 3, 5):
            m = MomentVector(n, [c**k for k in range(1, n + 1)])
            assert coeffs_from_moments(m) == root_power(c, n)

    def test_nilpotent_profile(self):
        assert moments_from_coeffs(Polynomial([1, 0, 0, 0, 0])).values == (0, 0, 0, 0)

    def test_roundtrip(self):
        rng = random.Random(60)
        for _ in range(100):
            p = rand_monic(rng, rng.randint(1, 8))
            assert coeffs_from_moments(moments_from_coeffs(p)) == p

    def test_degree_zero_is_refused(self):
        for count in (None, 3):
            with pytest.raises(DegreeMismatchError):
                moments_from_coeffs(Polynomial([1]), count)

    def test_matches_matrix_traces(self):
        rng = random.Random(61)
        for _ in range(100):
            n = rng.randint(1, 5)
            a = random_matrix(rng, n)
            moments = moments_from_coeffs(char_poly(a), count=n + 2)
            for k in range(1, n + 3):
                assert moments[k] == matrix_moment(a, k)


class TestSumMoments:
    def test_closed_forms_on_random_vectors(self):
        rng = random.Random(62)
        for _ in range(20):
            n = rng.randint(2, 5)
            a = random_matrix(rng, n)
            b = random_matrix(rng, n)
            ma = MomentVector.of_matrix(a, count=max(n, 4))
            mb = MomentVector.of_matrix(b, count=max(n, 4))
            pipeline = ffp_sum_moments(ma, mb, count=4)
            for k in range(1, 5):
                assert pipeline[k] == closed_form_sum_moment(k, ma, mb, n)

    def test_neutral_profile(self):
        rng = random.Random(63)
        n = 4
        a = random_matrix(rng, n)
        ma = MomentVector.of_matrix(a)
        zero = MomentVector(n, [0] * n)
        assert ffp_sum_moments(ma, zero).values == ma.values

    def test_remark_pair_value(self):
        ma = MomentVector.of_matrix(REMARK_A)
        mb = MomentVector.of_matrix(REMARK_B)
        result = ffp_sum_moments(ma, mb)
        assert result[2] == Fraction(265, 3)
        assert result[2] == matrix_moment(REMARK_A + REMARK_B, 2)

    def test_direct_traces_for_ffp_pairs(self):
        rng = random.Random(64)
        for _ in range(15):
            n = rng.randint(2, 5)
            a, b = sample_additive_ffp_pair(rng, n)
            ma = MomentVector.of_matrix(a, count=max(n, 4))
            mb = MomentVector.of_matrix(b, count=max(n, 4))
            for k in range(1, 5):
                assert closed_form_sum_moment(k, ma, mb, n) == matrix_moment(a + b, k)

    def test_guards(self):
        ma = MomentVector(1, [1, 1, 1, 1])
        with pytest.raises(IndexRangeError):
            closed_form_sum_moment(4, ma, ma, 1)
        with pytest.raises(IndexRangeError):
            closed_form_sum_moment(5, ma, ma, 3)
        with pytest.raises(DimensionMismatchError):
            closed_form_sum_moment(4, MomentVector(3, [1, 1, 1]), ma, 3)


class TestCumulants:
    def test_first_cumulant_is_mean(self):
        rng = random.Random(65)
        for _ in range(10):
            n = rng.randint(1, 5)
            a = random_matrix(rng, n)
            kappa = cumulants_of_matrix(a)
            assert kappa[1] == matrix_moment(a, 1)

    def test_second_cumulant_closed_form(self):
        rng = random.Random(66)
        for _ in range(10):
            n = rng.randint(2, 5)
            a = random_matrix(rng, n)
            kappa = cumulants_of_matrix(a)
            m1, m2 = matrix_moment(a, 1), matrix_moment(a, 2)
            assert kappa[2] == (m2 - m1**2) * Fraction(n, n - 1)

    def test_single_eigenvalue_collapses(self):
        c = Fraction(-3, 4)
        for n in (2, 4):
            m = moments_from_coeffs(root_power(c, n))
            kappa = cumulants_from_moments(m)
            assert kappa.values == tuple([c] + [0] * (n - 1))

    def test_pure_first_cumulant_gives_powers(self):
        kappa = CumulantVector(4, [Fraction(5, 2), 0, 0, 0])
        for j in range(1, 5):
            assert moments_from_cumulants(kappa, j) == Fraction(5, 2) ** j

    def test_roundtrip(self):
        rng = random.Random(67)
        for _ in range(25):
            n = rng.randint(1, 6)
            values = [rand_scalar(rng) for _ in range(n)]
            m = MomentVector(n, values)
            kappa = cumulants_from_moments(m)
            for j in range(1, n + 1):
                assert moments_from_cumulants(kappa, j) == m[j]

    def test_additivity_on_remark_pair(self):
        ka = cumulants_of_matrix(REMARK_A)
        kb = cumulants_of_matrix(REMARK_B)
        ks = cumulants_of_matrix(REMARK_A + REMARK_B)
        for i in range(1, 4):
            assert ks[i] == ka[i] + kb[i]

    def test_additivity_on_sampled_pairs(self):
        rng = random.Random(68)
        for _ in range(10):
            n = rng.randint(2, 5)
            a, b = sample_additive_ffp_pair(rng, n)
            ka, kb, ks = (cumulants_of_matrix(x) for x in (a, b, a + b))
            for i in range(1, n + 1):
                assert ks[i] == ka[i] + kb[i]

    def test_order_guard(self):
        with pytest.raises(IndexRangeError):
            moments_from_cumulants(CumulantVector(3, [1] * 3), 13)


class TestSingleEigenvalue:
    def test_jordan_block(self):
        a = Matrix([[2, 1], [0, 2]])
        assert has_single_eigenvalue(a)
        assert is_additive_ffp(a, a).verdict
        assert is_multiplicative_ffp(a, a).verdict

    def test_distinct_diagonal(self):
        a = Matrix.diagonal([1, 2])
        assert not has_single_eigenvalue(a)
        assert not is_additive_ffp(a, a).verdict
        assert not is_multiplicative_ffp(a, a).verdict

    def test_matches_self_ffp_on_random_triangulars(self):
        rng = random.Random(69)
        for _ in range(60):
            n = rng.randint(1, 4)
            if rng.random() < 0.4:
                a = sample_member(FamilyId.UPPER_TRIANGULAR_CONST_DIAG, n, rng)
            else:
                a = sample_member(FamilyId.UPPER_TRIANGULAR, n, rng)
            single = has_single_eigenvalue(a)
            assert single == is_additive_ffp(a, a).verdict
            assert single == is_multiplicative_ffp(a, a).verdict


SMALL_FRACTIONS = st.builds(Fraction, st.integers(-6, 6), st.integers(1, 4))


def scalars(gaussian: bool):
    return st.builds(GaussianRational, SMALL_FRACTIONS, SMALL_FRACTIONS if gaussian else st.just(0))


@st.composite
def single_eigenvalue_candidates(draw):
    """(A, expected): c I plus a strictly upper triangular N (a Jordan block
    when N is the unit superdiagonal), the same with a nonzero corner entry
    that moves only det, a diagonal with one entry moved (same mean, other
    spectrum), or a dense matrix; c is real or Gaussian, so the mean may be
    non-real, and A may be conjugated by a unit triangular product L U.
    expected is None where the draw does not fix the answer."""
    n = draw(st.integers(1, 5))
    entry = scalars(draw(st.booleans()))
    c = draw(entry)
    shape = draw(st.sampled_from(["jordan", "nilpotent", "corner", "moved", "dense"]))
    rows = [[c if i == j else GaussianRational(0) for j in range(n)] for i in range(n)]
    expected = True
    if shape == "jordan":
        for i in range(n - 1):
            rows[i][i + 1] = GaussianRational(1)
    elif shape == "nilpotent":
        for i in range(n):
            for j in range(i + 1, n):
                rows[i][j] = draw(entry)
    elif shape == "corner" and n >= 2:
        # chi = (x - c)^n - eps for the Jordan block with eps at (n, 1)
        for i in range(n - 1):
            rows[i][i + 1] = GaussianRational(1)
        rows[n - 1][0] = draw(entry.filter(bool))
        expected = False
    elif shape == "moved" and n >= 2:
        eps = draw(entry.filter(bool))
        rows[0][0], rows[1][1] = c + eps, c - eps
        expected = False
    elif shape == "dense":
        rows = draw(st.lists(st.lists(entry, min_size=n, max_size=n), min_size=n, max_size=n))
        expected = None
    a = Matrix(rows)
    if draw(st.booleans()):
        lower = Matrix([[1 if i == j else (draw(entry) if i > j else 0) for j in range(n)] for i in range(n)])
        upper = Matrix([[1 if i == j else (draw(entry) if i < j else 0) for j in range(n)] for i in range(n)])
        a = conjugate(a, lower @ upper)
    return a, expected


class TestSingleEigenvalueOracle:
    @settings(max_examples=200, deadline=None)
    @given(single_eigenvalue_candidates())
    def test_matches_the_shifted_power(self, case):
        a, expected = case
        single = has_single_eigenvalue(a)
        assert single == single_eigenvalue_by_shift(a)
        assert expected is None or single == expected


class TestProductMoments:
    def test_golden_first_moment(self):
        a = Matrix([[1, 0, 0], [0, 0, 0], [0, 0, 0]])
        b = Matrix([[1, 1, 0], [1, 1, 0], [0, 0, 1]])
        ma = MomentVector.of_matrix(a)
        mb = MomentVector.of_matrix(b)
        assert ma[1] == Fraction(1, 3) and mb[1] == 1
        value = mult_ffp_moment(1, ma, mb, 3)
        assert value == Fraction(1, 3)
        assert value == matrix_moment(a @ b, 1)

    def test_identity_partner(self):
        rng = random.Random(70)
        for n in (2, 3, 4):
            a = random_matrix(rng, n)
            ma = MomentVector.of_matrix(a)
            mi = MomentVector.of_matrix(Matrix.identity(n))
            assert mult_ffp_moment(2, ma, mi, n) == matrix_moment(a, 2)

    def test_sampled_multiplicative_pairs(self):
        rng = random.Random(71)
        for _ in range(20):
            n = rng.randint(3, 5)
            a = sample_member(FamilyId.DIAGONAL, n, rng)
            b = sample_member(FamilyId.PRINCIPALLY_BALANCED, n, rng)
            assert is_multiplicative_ffp(a, b).verdict
            ma, mb = MomentVector.of_matrix(a), MomentVector.of_matrix(b)
            assert mult_ffp_moment(1, ma, mb, n) == matrix_moment(a @ b, 1)
            assert mult_ffp_moment(2, ma, mb, n) == matrix_moment(a @ b, 2)

    def test_bilinear_trace_identities(self):
        rng = random.Random(72)
        for _ in range(20):
            n = rng.randint(2, 5)
            a, b = sample_additive_ffp_pair(rng, n)
            m = matrix_moment
            assert m(a @ b, 1) == m(a, 1) * m(b, 1)
            lhs = m(a @ b @ b, 1) + m(a @ a @ b, 1)
            assert lhs == m(a, 1) * m(b, 2) + m(a, 2) * m(b, 1)

    def test_guards(self):
        ma = MomentVector(1, [1, 1])
        with pytest.raises(IndexRangeError):
            mult_ffp_moment(2, ma, ma, 1)
        with pytest.raises(IndexRangeError):
            mult_ffp_moment(3, ma, ma, 3)


class TestVectorJson:
    def test_roundtrip(self):
        m = MomentVector(3, [2, Fraction(14, 3), 12])
        assert m.to_json() == {"n": 3, "values": ["2", "14/3", "12"]}
        assert cumulants_from_moments(m).to_json() == {"n": 3, "values": ["2", "1", "0"]}


class TestVectorConstructor:
    @pytest.mark.parametrize("cls", [MomentVector, CumulantVector])
    @pytest.mark.parametrize("values", ["12", 12, None, iter([1, 2])])
    def test_values_must_be_a_sequence(self, cls, values):
        with pytest.raises(ParseError):
            cls(2, values)

    @pytest.mark.parametrize("cls", [MomentVector, CumulantVector])
    @pytest.mark.parametrize("n", [0, -1, True, "x", 2.0, None])
    def test_n_must_be_a_positive_int(self, cls, n):
        with pytest.raises(DimensionMismatchError):
            cls(n, ["1"])

    @pytest.mark.parametrize(
        "call, code, message",
        [
            (lambda: MomentVector(2, "12"), "parse-error", "moment vector values must be a sequence, got '12'"),
            (lambda: MomentVector(2, [1, 2])[3], "index-out-of-range", "moment index 3 out of range 1..2"),
            (lambda: coeffs_from_moments(MomentVector(3, [1, 2])),
             "dimension-mismatch", "need 3 moments, got 2"),
            (lambda: moments_from_coeffs(Polynomial([2, 1])),
             "non-monic", "moment extraction needs a monic polynomial"),
            (lambda: ffp_sum_moments(MomentVector(2, [1, 2]), MomentVector(3, [1, 2, 3])),
             "dimension-mismatch", "dimension mismatch: 2 vs 3"),
            (lambda: cumulants_from_moments(MomentVector(2, [1, 2, 3])),
             "dimension-mismatch", "cumulants are defined up to the dimension: 3 moments for n=2"),
            # a count of moments below 1, wherever the ``moments`` guard applies
            (lambda: moment_vector_of(REMARK_B, 0), "index-out-of-range", "moment count must be >= 1, got 0"),
            (lambda: MomentVector.of_matrix(REMARK_B, -1),
             "index-out-of-range", "moment count must be >= 1, got -1"),
            (lambda: matrix_moment(REMARK_B, 0), "index-out-of-range", "moment count must be >= 1, got 0"),
            (lambda: moments_from_coeffs(char_poly(REMARK_B), -3),
             "index-out-of-range", "moment count must be >= 1, got -3"),
            (lambda: ffp_sum_moments(MomentVector(1, [1]), MomentVector(1, [2]), 0),
             "index-out-of-range", "moment count must be >= 1, got 0"),
            # the series of n coefficients costs at any count, so n alone can pass the guard
            (lambda: ffp_sum_moments(MomentVector(142, [1] * 142), MomentVector(142, [2] * 142), 1),
             "size-guard", "moments of a sum refused for 1 moments at n=142: n * max(n, count) > 20000"),
        ],
    )
    def test_refusal_code_and_message(self, call, code, message):
        with pytest.raises(FinFreeError) as refused:
            call()
        assert (refused.value.code, str(refused.value)) == (code, message)

    def test_valid_vectors(self):
        assert MomentVector(2, (3, "1/2")).values == (3, Fraction(1, 2))
        assert CumulantVector(2, [1, 0]).values == (1, 0)


class TestMomentCountGuard:
    def test_refused_before_any_power_sum(self, monkeypatch):
        import finfree.matrices
        import finfree.moments

        def refuse(*_):
            raise AssertionError("the guard must refuse before any power sum is computed")

        monkeypatch.setattr(finfree.matrices, "_moments", refuse)
        monkeypatch.setattr(finfree.moments, "_moments", refuse)
        over = GUARDS["moments"][0] + 1
        with pytest.raises(SizeGuardError):
            MomentVector.of_matrix(REMARK_A, over)
        with pytest.raises(SizeGuardError):
            moments_from_coeffs(char_poly(REMARK_A), over)
        with pytest.raises(SizeGuardError):
            ffp_sum_moments(MomentVector(1, [1]), MomentVector(1, [2]), over)

    def test_the_limit_itself_is_allowed(self):
        one = Matrix([[2]])
        limit = GUARDS["moments"][0]
        assert len(MomentVector.of_matrix(one, limit)) == limit
        top = moments_from_coeffs(char_poly(one), limit)[limit]
        assert top == 2**limit

    def test_empty_series_inside_the_conversions_still_work(self):
        assert cumulants_from_moments(MomentVector(2, [])) == CumulantVector(2, ())
        assert cumulants_from_moments(MomentVector(2, [3])) == CumulantVector(2, (3,))


# -- Newton's identities on integer forms, against GaussianRational Newton ------

PARTS = st.fractions(min_value=-20, max_value=20, max_denominator=12) | st.builds(
    Fraction, st.integers(-10**6, 10**6), st.integers(1, 10**6))


@st.composite
def monic_polynomials(draw):
    """A monic polynomial of degree n <= 6 with real, Gaussian or mixed
    coefficients (some complex, some real), or the chi of a matrix of such
    entries, or the [+] or [x] of two such chis."""
    n = draw(st.integers(1, 6))
    kind = draw(st.sampled_from(("real", "gaussian", "mixed")))
    imag = {"real": st.just(0), "gaussian": PARTS.filter(bool), "mixed": PARTS}[kind]
    scalars = st.builds(GaussianRational, PARTS, imag)
    source = draw(st.sampled_from(("coeffs", "chi", "boxplus", "boxtimes")))
    if source == "coeffs":
        return Polynomial([1, *draw(st.lists(scalars, min_size=n, max_size=n))])
    n = min(n, 4)
    rows = st.lists(st.lists(scalars, min_size=n, max_size=n), min_size=n, max_size=n)
    a, b = (char_poly(Matrix(draw(rows))) for _ in "ab")
    return {"chi": a, "boxplus": boxplus(a, b), "boxtimes": boxtimes(a, b)}[source]


NEWTON = settings(max_examples=60, deadline=None)


class TestIntegerNewton:
    """The conversions run Newton's identities on integer forms only; each
    equals the recurrence on GaussianRationals (``helpers``), past n too."""

    @NEWTON
    @given(monic_polynomials(), st.integers(1, 20))
    def test_moments_from_coeffs(self, p, count):
        assert list(moments_from_coeffs(p, count).values) == moments_by_newton(p.coeffs, p.degree, count)

    @NEWTON
    @given(monic_polynomials(), st.data())
    def test_cumulants_from_moments(self, p, data):
        n = p.degree
        m = MomentVector(n, moments_from_coeffs(p).values[: data.draw(st.integers(0, n))])
        expected = cumulants_by_newton(series_by_newton(m.values, n), n)
        assert list(cumulants_from_moments(m).values) == expected

    @NEWTON
    @given(monic_polynomials(), st.data())
    def test_moments_from_cumulants(self, p, data):
        n = p.degree
        extra = data.draw(st.lists(PARTS, max_size=2 * n))
        kappa = CumulantVector(n, [*cumulants_by_newton(p.coeffs, n), *extra])
        j = data.draw(st.integers(1, len(kappa)))
        assert moments_from_cumulants(kappa, j) == moment_from_cumulants_by_newton(kappa.values, n, j)

    @NEWTON
    @given(st.integers(1, 4).flatmap(lambda n: st.lists(
        st.lists(st.builds(GaussianRational, PARTS, PARTS | st.just(0)), min_size=n, max_size=n),
        min_size=n, max_size=n)))
    def test_cumulants_of_matrix(self, rows):
        a = Matrix(rows)
        assert list(cumulants_of_matrix(a).values) == cumulants_by_newton(char_poly(a).coeffs, a.n)

    def test_every_caller_hands_the_power_sums_kernel_scalars(self, monkeypatch):
        import finfree.matrices
        import finfree.moments

        seen = []

        def checked(f, d, n, count):
            assert all(type(x) is int or type(x) is _GaussInt for x in f), f
            assert type(d) is int and d >= 1 and type(n) is int
            seen.append(count)
            return _moments(f, d, n, count)

        monkeypatch.setattr(finfree.matrices, "_moments", checked)
        monkeypatch.setattr(finfree.moments, "_moments", checked)
        rng = random.Random(33)
        for a in (REMARK_B, Matrix([["1/2", "1/3+2*i"], ["-1/5*i", "7/4"]])):
            ma = MomentVector.of_matrix(a, 5)
            m = MomentVector.of_matrix(a)
            moments_from_coeffs(char_poly(a), 7)
            ffp_sum_moments(m, MomentVector.of_matrix(rand_invertible(rng, a.n)), 6)
            kappa = cumulants_from_moments(m)
            cumulants_of_matrix(a)
            moments_from_cumulants(kappa, a.n)
            assert ma[1] == m[1]
        assert len(seen) == 2 * 8
