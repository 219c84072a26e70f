"""The integer kernel behind char_poly, moments, the two convolutions, FFP
verdicts, @, det, minor tables and the signed-permutation average, checked
against independent oracles on real and Gaussian inputs with zero rows and
coefficients, singular matrices, large denominators and pairs in finite free
position."""

from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from finfree import (
    DegreeMismatchError,
    FamilyId,
    GaussianRational,
    Matrix,
    NonMonicError,
    Polynomial,
    boxplus,
    boxtimes,
    char_poly,
    check_ffp,
    expected_charpoly_signed_perms,
    is_additive_ffp,
    is_multiplicative_ffp,
    minor_table,
    sample_member,
)
from finfree.ffp import signed_permutations
from finfree.matrices import moment_vector_of
from helpers import (
    average,
    boxplus_gaussian,
    boxtimes_gaussian,
    charpoly_faddeev_fraction,
    charpoly_faddeev_int,
    charpoly_via_minors,
    cofactor_det,
    ffp_report_oracle,
    matmul_entrywise,
    moments_by_powers,
    signed_conjugate,
)

FRACTIONS = st.builds(
    Fraction,
    st.integers(-10**6, 10**6) | st.integers(-10, 10),
    st.integers(1, 10**6) | st.integers(1, 10),
)
SMALL_FRACTIONS = st.builds(Fraction, st.integers(-5, 5), st.integers(1, 6))


def entries(gaussian: bool, parts=FRACTIONS):
    nonzero = st.builds(GaussianRational, parts, parts if gaussian else st.just(0))
    return st.just(GaussianRational(0)) | nonzero


@st.composite
def matrices(draw, n=None, max_n=5):
    n = draw(st.integers(1, max_n)) if n is None else n
    entry = entries(draw(st.booleans()), FRACTIONS if n <= 5 else SMALL_FRACTIONS)
    rows = draw(st.lists(st.lists(entry, min_size=n, max_size=n), min_size=n, max_size=n))
    shape = draw(st.sampled_from(("dense", "zero-row", "singular")))
    if shape == "zero-row":
        rows[draw(st.integers(0, n - 1))] = [GaussianRational(0)] * n
    elif shape == "singular" and n > 1:
        i, j = draw(st.lists(st.integers(0, n - 1), min_size=2, max_size=2, unique=True))
        factor = draw(entry)
        rows[j] = [factor * x for x in rows[i]]
    return Matrix(rows)


@st.composite
def pairs(draw, max_n=5):
    n = draw(st.integers(1, max_n))
    return draw(matrices(n=n)), draw(matrices(n=n))


KERNEL = settings(max_examples=80, deadline=None)


@KERNEL
@given(matrices())
def test_char_poly_matches_minor_sums_and_rational_recurrence(m):
    p = char_poly(m)
    assert p == charpoly_via_minors(m)
    assert p == charpoly_faddeev_fraction(m)


@KERNEL
@given(matrices())
def test_det_and_minor_table_match_cofactor_expansion(m):
    assert m.det() == cofactor_det([list(row) for row in m.rows])
    table = minor_table(m)
    for k, entries_k in table.orders.items():
        for subset, value in entries_k:
            idx = [i - 1 for i in subset]
            assert value == cofactor_det([[m.rows[i][j] for j in idx] for i in idx])


@KERNEL
@given(pairs())
def test_product_matches_entrywise_sums(ab):
    a, b = ab
    assert (a @ b).rows == tuple(tuple(row) for row in matmul_entrywise(a.rows, b.rows))


@settings(max_examples=30, deadline=None)
@given(pairs(max_n=3), st.sampled_from(("additive", "multiplicative")))
def test_signed_perm_average_matches_per_conjugate_char_polys(ab, kind):
    a, b = ab
    polys = []
    for perm, signs in signed_permutations(a.n):
        conj = signed_conjugate(b, perm, signs)
        polys.append(char_poly(a + conj if kind == "additive" else a @ conj))
    assert expected_charpoly_signed_perms(a, b, kind) == average(polys)


# n where s = ceil(sqrt(n)) baby steps change: 1, 2 (s = n), 4, 5 (s = 2, 3), 9, 10 (s = 3, 4)
@KERNEL
@given(st.sampled_from((1, 2, 4, 5, 9, 10)).flatmap(lambda n: matrices(n=n)))
def test_power_sum_char_poly_across_baby_step_counts(m):
    p = char_poly(m)
    assert p == charpoly_faddeev_int(m)
    if m.n <= 5:
        assert p == charpoly_via_minors(m)
    else:
        # cofactor expansion is too slow here; sum the Bareiss minor table instead
        table = minor_table(m)
        sums = [sum(table.values(k), GaussianRational(0)) * (-1) ** k for k in range(m.n + 1)]
        assert list(p.coeffs) == sums


@KERNEL
@given(matrices(max_n=6), st.sampled_from(("zero", "one", "n", "n+3")))
def test_moment_vector_matches_repeated_powers(m, which):
    count = {"zero": 0, "one": 1, "n": m.n, "n+3": m.n + 3}[which]
    assert moment_vector_of(m, count) == moments_by_powers(m, count)


@KERNEL
@given(pairs())
def test_ffp_lhs_matches_char_poly_of_sum_and_product(ab):
    a, b = ab
    assert is_additive_ffp(a, b).lhs == char_poly(a + b)
    assert is_multiplicative_ffp(a, b).lhs == char_poly(a @ b)


@st.composite
def monic_pairs(draw, max_n=8):
    n = draw(st.integers(1, max_n))
    p, q = (
        Polynomial([1] + draw(st.lists(entries(draw(st.booleans())), min_size=n, max_size=n)))
        for _ in range(2)
    )
    return p, q


@KERNEL
@given(monic_pairs())
def test_convolutions_match_gaussian_rational_formulas(pq):
    p, q = pq
    assert boxplus(p, q) == boxplus_gaussian(p, q)
    assert boxtimes(p, q) == boxtimes_gaussian(p, q)


@pytest.mark.parametrize("convolve", [boxplus, boxtimes])
@pytest.mark.parametrize(
    "p, q, error, message",
    [
        ([1, 2], [1, 2, 3], DegreeMismatchError, "degrees differ: 1 vs 2"),
        ([1], [1], DegreeMismatchError, "convolutions need degree >= 1"),
        ([2, 1], [1, 1], NonMonicError, "convolution inputs must be monic"),
        ([1, 0], ["1/2*i", 3], NonMonicError, "convolution inputs must be monic"),
    ],
)
def test_convolution_errors_unchanged(convolve, p, q, error, message):
    with pytest.raises(error) as raised:
        convolve(Polynomial(p), Polynomial(q))
    assert str(raised.value) == message


KINDS = st.sampled_from(("additive", "multiplicative"))


def assert_report_matches_oracle(a, b, kind):
    report = check_ffp(a, b, kind)
    expected = ffp_report_oracle(a, b, kind)
    assert report == expected
    assert list(report.residuals) == list(expected.residuals)
    return report


@KERNEL
@given(pairs(max_n=6), KINDS)
def test_ffp_report_matches_oracle(ab, kind):
    assert_report_matches_oracle(*ab, kind)


@st.composite
def ffp_pairs(draw):
    """Pairs in both kinds of finite free position, either way round: a
    (Gaussian) diagonal matrix and a principally balanced one, or a
    (Gaussian) scalar matrix and any matrix."""
    n = draw(st.integers(1, 6))
    entry = entries(draw(st.booleans()), SMALL_FRACTIONS)
    if draw(st.booleans()):
        a = Matrix.diagonal(draw(st.lists(entry, min_size=n, max_size=n)))
        b = sample_member(FamilyId.PRINCIPALLY_BALANCED, n, draw(st.integers(0, 10**6)))
    else:
        a = Matrix.identity(n).scale(draw(entry))
        b = draw(matrices(n=n))
    return (a, b) if draw(st.booleans()) else (b, a)


@KERNEL
@given(ffp_pairs(), KINDS)
def test_ffp_report_matches_oracle_on_pairs_in_ffp(ab, kind):
    assert assert_report_matches_oracle(*ab, kind).verdict is True
