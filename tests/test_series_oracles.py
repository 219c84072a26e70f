"""The power-series moment/cumulant layer, the subset-DP cycle sums and the
integer principal-balance test, checked against the formulas they replaced:
the set-partition moment-cumulant formula, the integer-partition coefficient
sum, matrix traces, cycle enumeration and the full table of cofactor-expanded
minors. Real and Gaussian entries, zeros included, n <= 7."""

import random
from fractions import Fraction

from hypothesis import given, settings
from hypothesis import strategies as st

from finfree import (
    CumulantVector,
    FamilyId,
    GaussianRational,
    Matrix,
    MomentVector,
    char_poly,
    coeffs_from_moments,
    cumulants_from_moments,
    cycle_sums,
    is_member,
    matrix_moment,
    moments_from_coeffs,
    moments_from_cumulants,
    sample_member,
)
from helpers import balanced_by_minor_table, cycle_sums_by_paths
from partition_oracles import (
    coeffs_by_integer_partitions,
    cumulants_by_set_partitions,
    moment_by_set_partitions,
)

MAX_N = 7
ORACLE = settings(max_examples=40, deadline=None)

FRACTIONS = st.builds(Fraction, st.integers(-9, 9), st.integers(1, 9))


def scalars(gaussian: bool):
    nonzero = st.builds(GaussianRational, FRACTIONS, FRACTIONS if gaussian else st.just(0))
    return st.just(GaussianRational(0)) | nonzero


@st.composite
def vectors(draw, min_size, max_size):
    """(n, values) with n in 1..MAX_N and min_size(n) <= len(values) <= max_size(n)."""
    n = draw(st.integers(1, MAX_N))
    size = draw(st.integers(min_size(n), max_size(n)))
    return n, draw(st.lists(scalars(draw(st.booleans())), min_size=size, max_size=size))


@st.composite
def matrices(draw):
    n = draw(st.integers(1, MAX_N))
    entry = scalars(draw(st.booleans()))
    return Matrix(draw(st.lists(st.lists(entry, min_size=n, max_size=n), min_size=n, max_size=n)))


@st.composite
def balanced_matrices(draw):
    """A sampled principally balanced matrix, scaled and shifted by scalars
    (both keep it balanced), sometimes with one entry moved."""
    n = draw(st.integers(1, 6))
    m = sample_member(FamilyId.PRINCIPALLY_BALANCED, n, draw(st.integers(0, 2**32)))
    gaussian = draw(st.booleans())
    scale, shift = draw(scalars(gaussian).filter(bool)), draw(scalars(gaussian))
    m = m.scale(scale) + Matrix.identity(n).scale(shift)
    if draw(st.booleans()):
        i, j = draw(st.integers(1, n)), draw(st.integers(1, n))
        m = m + Matrix.unit(n, i, j).scale(draw(scalars(gaussian)))
    return m


@st.composite
def constant_diagonal_matrices(draw):
    """Random matrices whose order-1 minors agree, so that an imbalance shows
    at order 2 or above."""
    n = draw(st.integers(3, 6))
    entry = scalars(draw(st.booleans()))
    c = draw(entry)
    rows = draw(st.lists(st.lists(entry, min_size=n, max_size=n), min_size=n, max_size=n))
    return Matrix([[c if i == j else x for j, x in enumerate(row)] for i, row in enumerate(rows)])


@st.composite
def signed_matrices(draw):
    """c I + S for a symmetric sign matrix S with zero diagonal: every minor
    of order 1 is c and every one of order 2 is c^2 - 1, so the signs around
    the triangles decide balance at order 3 or above."""
    n = draw(st.integers(3, 6))
    rng = random.Random(draw(st.integers(0, 2**32)))  # signs uniform, not shrunk to all +1
    sign = {(i, j): rng.choice((1, -1)) for i in range(n) for j in range(i + 1, n)}
    c = draw(scalars(draw(st.booleans())))
    return Matrix(
        [[c if i == j else sign[min(i, j), max(i, j)] for j in range(n)] for i in range(n)]
    )


@ORACLE
@given(vectors(lambda n: 1, lambda n: n))
def test_series_cumulants_match_set_partition_formula(vector):
    n, values = vector
    kappa = cumulants_from_moments(MomentVector(n, values))
    assert list(kappa.values) == cumulants_by_set_partitions(values, n)


@ORACLE
@given(vectors(lambda n: 1, lambda n: MAX_N), st.data())
def test_series_moments_match_set_partition_formula(vector, data):
    # the cumulant count may exceed n, so orders j > n are covered too
    n, values = vector
    j = data.draw(st.integers(1, len(values)))
    assert moments_from_cumulants(CumulantVector(n, values), j) == moment_by_set_partitions(
        values, n, j
    )


@ORACLE
@given(vectors(lambda n: n, lambda n: n))
def test_newton_coeffs_match_integer_partition_sum(vector):
    n, values = vector
    poly = coeffs_from_moments(MomentVector(n, values))
    assert list(poly.coeffs) == coeffs_by_integer_partitions(values, n)


@ORACLE
@given(matrices(), st.data())
def test_newton_moments_match_matrix_traces(m, data):
    # counts past the degree read the coefficients as zero beyond a_n
    count = data.draw(st.integers(1, 2 * m.n))
    moments = moments_from_coeffs(char_poly(m), count)
    assert list(moments.values) == [matrix_moment(m, k) for k in range(1, count + 1)]


@ORACLE
@given(
    st.one_of(matrices(), balanced_matrices(), constant_diagonal_matrices(), signed_matrices())
)
def test_balanced_membership_matches_minor_table(m):
    assert is_member(m, FamilyId.PRINCIPALLY_BALANCED) == balanced_by_minor_table(m)


@ORACLE
@given(matrices())
def test_dp_cycle_sums_match_path_enumeration(m):
    assert cycle_sums(m).by_order == cycle_sums_by_paths(m)
