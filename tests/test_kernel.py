"""The integer kernel behind char_poly, moments, the two convolutions, FFP
verdicts, @, det, minor tables and the signed-permutation average, checked
against independent oracles on real and Gaussian inputs with zero rows and
coefficients, singular matrices, large denominators and pairs in finite free
position; and the Matrix that stores its integer form, checked against the
GaussianRational operations on its rows."""

import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from finfree import (
    ADDITIVE,
    MULTIPLICATIVE,
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
    is_member,
    minor_table,
    sample_member,
)
import finfree.matrices as matrix_module
from finfree import ffp
from finfree.families import (
    PROBE_MAGNITUDES,
    _conjugated_triangular_balanced,
    _find_diagonal_probe_failure,
    _rank_one_balanced,
)
from finfree.ffp import signed_permutations
from finfree.matrices import moment_vector_of
from helpers import (
    _int_form,
    add_entrywise,
    average,
    boxplus_gaussian,
    boxtimes_gaussian,
    charpoly_faddeev_fraction,
    charpoly_faddeev_int,
    charpoly_via_minors,
    cofactor_det,
    conjugated_triangular_by_products,
    ffp_report_oracle,
    matmul_entrywise,
    moments_by_powers,
    rank_one_by_fractions,
    scale_entrywise,
    signed_conjugate,
    sub_entrywise,
    transpose_entrywise,
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
    for k, entries_k in table.items():
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
        sums = [sum((v for _, v in table[k]), GaussianRational(0)) * (-1) ** k for k in range(m.n + 1)]
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


# -- the Matrix stored as its integer form ------------------------------------


def frozen(rows):
    return None if rows is None else tuple(map(tuple, rows))


@KERNEL
@given(pairs(), entries(True) | entries(False))
def test_matrix_operations_match_gaussian_rational_oracles(ab, factor):
    a, b = ab
    assert (a + b).rows == add_entrywise(a.rows, b.rows)
    assert (a - b).rows == sub_entrywise(a.rows, b.rows)
    assert a.scale(factor).rows == scale_entrywise(a.rows, factor)
    assert a.transpose().rows == transpose_entrywise(a.rows)
    assert a.trace() == sum((a.rows[i][i] for i in range(a.n)), GaussianRational(0))


@KERNEL
@given(pairs(), st.integers(2, 10**6))
def test_stored_form_is_canonical_and_rows_round_trip(ab, k):
    a, b = ab
    for m in (a, b):
        d, (re, im) = _int_form(m)
        assert (m._d, m._m) == (d, (frozen(re), frozen(im)))
        # the same matrix from a form that is not reduced: every part k times
        # larger, with an all-zero imaginary part when m is real
        bigger = [[[k * v for v in row] for row in part] for part in (re, im or [[0] * m.n] * m.n)]
        for copy in (Matrix(m.rows), Matrix.from_json(m.to_json()), Matrix._from_form(k * d, *bigger)):
            assert copy == m and hash(copy) == hash(m)
            assert copy.rows == m.rows
        assert [[m.entry(i + 1, j + 1) for j in range(m.n)] for i in range(m.n)] == [
            list(row) for row in m.rows
        ]
    assert (a == b) == (a.rows == b.rows)


@settings(max_examples=60, deadline=None)
@given(st.integers(1, 6), st.integers(0, 2**32), st.integers(1, 20))
def test_balanced_samplers_match_product_constructions(n, seed, bound):
    """Same RNG state in, same matrix and same RNG state out."""
    for sampler, oracle in (
        (_conjugated_triangular_balanced, conjugated_triangular_by_products),
        (_rank_one_balanced, rank_one_by_fractions),
    ):
        new, old = random.Random(seed), random.Random(seed)
        assert sampler(n, new, bound) == oracle(n, old, bound)
        assert new.getstate() == old.getstate()


@pytest.mark.parametrize("kind", [ADDITIVE, MULTIPLICATIVE])
def test_probe_loop_computes_the_outsiders_chi_once(monkeypatch, kind):
    # principally balanced, so every diagonal probe passes and the loop runs to the end
    outsider = Matrix([[1, 2, 3], [6, 1, -12], [4, -1, 1]])
    calls = []
    original = matrix_module._char_coeffs

    def counting(m, n):
        calls.append(m)
        return original(m, n)

    monkeypatch.setattr(matrix_module, "_char_coeffs", counting)
    monkeypatch.setattr(ffp, "_char_coeffs", counting)
    assert _find_diagonal_probe_failure(outsider, kind) is None
    probes = (2**3 - 2) * len(PROBE_MAGNITUDES)
    # per probe: chi of the probe and of the sum or product; the outsider's chi once
    assert len(calls) == 2 * probes + 1
    assert sum(m == outsider._m for m in calls) == 1
    assert is_member(outsider, FamilyId.PRINCIPALLY_BALANCED)
