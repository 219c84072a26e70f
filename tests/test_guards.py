"""Each row of ``finfree.errors.GUARDS``, one past its limit through a public
entry point, refuses with its exact text; and ``cold_guards.py`` probes every
row and no other."""

import pytest

import cold_guards
from finfree import (
    GaussianRational,
    Matrix,
    Polynomial,
    SizeGuardError,
    boxplus,
    char_poly,
    cycle_sums,
    expected_charpoly_haar_mc,
    expected_charpoly_signed_perms,
    minor_table,
    moments_from_coeffs,
    rank_upper_bound,
)
from finfree.errors import GUARDS


def dense(n):
    """A dense, not triangular, n x n integer matrix."""
    return Matrix([[(7 * i + 3 * j) % 11 - 5 for j in range(n)] for i in range(n)])


def monic(n):
    return Polynomial([1] + [k % 5 - 2 for k in range(n)])


REFUSALS = {
    "chi": (lambda: char_poly(dense(65)), "characteristic polynomial refused for n=65 > 64"),
    "convolution": (lambda: boxplus(monic(251), monic(251)), "convolution refused for degree 251 > 250"),
    "minors": (lambda: minor_table(dense(17)), "minor enumeration refused for n=17 > 16"),
    "moments": (lambda: moments_from_coeffs(monic(3), 1001), "moment count refused: 1001 > 1000"),
    "signed-perms": (
        lambda: expected_charpoly_signed_perms(dense(7), dense(7), "additive"),
        "signed-permutation enumeration refused for n=7 > 6",
    ),
    "cycle-sums": (lambda: cycle_sums(dense(13)), "cycle-sum enumeration refused for n=13 > 12"),
    "rank-bound": (lambda: rank_upper_bound(2001), "rank bound refused for n=2001 > 2000"),
    "exponent": (lambda: GaussianRational.parse("1e10001"), "exponent in '1e10001' exceeds 10000"),
    "monte-carlo": (
        lambda: expected_charpoly_haar_mc(dense(3), dense(3), "additive", 200_001, 1),
        "Monte-Carlo average refused for 200001 samples at n=3: samples * max(n, 3)^2 > 1800000",
    ),
}


@pytest.mark.parametrize("name", list(GUARDS))
def test_each_guard_refuses_one_past_its_limit_with_its_text(name):
    assert set(cold_guards.PROBES) == set(GUARDS) == set(REFUSALS)
    call, refusal = REFUSALS[name]
    with pytest.raises(SizeGuardError) as refused:
        call()
    assert str(refused.value) == refusal
