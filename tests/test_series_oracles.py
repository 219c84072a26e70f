"""The power-series moment/cumulant layer and the subset-DP cycle sums,
checked against the formulas they replaced: the set-partition moment-cumulant
formula, the integer-partition coefficient sum and cycle enumeration. Real and
Gaussian entries, zeros included, n <= 7."""

from fractions import Fraction

from hypothesis import given, settings
from hypothesis import strategies as st

from finfree import (
    CumulantVector,
    GaussianRational,
    Matrix,
    MomentVector,
    coeffs_from_moments,
    cumulants_from_moments,
    cycle_sums,
    moments_from_cumulants,
)
from helpers import cycle_sums_by_paths
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
@given(matrices())
def test_dp_cycle_sums_match_path_enumeration(m):
    assert cycle_sums(m).by_order == cycle_sums_by_paths(m)
