"""The integer kernel behind char_poly, @, det, minor tables and the
signed-permutation average, checked against independent oracles on real and
Gaussian matrices with zero rows, singular matrices and large denominators."""

import warnings
from fractions import Fraction

from hypothesis import given, settings
from hypothesis import strategies as st

from finfree import GaussianRational, Matrix, char_poly, expected_charpoly_signed_perms, minor_table
from finfree.ffp import signed_permutations
from finfree.polynomials import average
from helpers import (
    charpoly_faddeev_fraction,
    charpoly_via_minors,
    cofactor_det,
    matmul_entrywise,
    signed_conjugate,
)

FRACTIONS = st.builds(
    Fraction,
    st.integers(-10**6, 10**6) | st.integers(-10, 10),
    st.integers(1, 10**6) | st.integers(1, 10),
)


def entries(gaussian: bool):
    nonzero = st.builds(GaussianRational, FRACTIONS, FRACTIONS if gaussian else st.just(0))
    return st.just(GaussianRational(0)) | nonzero


@st.composite
def matrices(draw, n=None, max_n=5):
    n = draw(st.integers(1, max_n)) if n is None else n
    entry = entries(draw(st.booleans()))
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
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        assert expected_charpoly_signed_perms(a, b, kind) == average(polys)
