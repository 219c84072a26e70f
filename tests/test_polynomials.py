import random
from fractions import Fraction
from math import factorial

import pytest
from hypothesis import given
from hypothesis import strategies as st

from finfree import (
    DegreeMismatchError,
    NonMonicError,
    Polynomial,
    boxplus,
    boxtimes,
)
from helpers import (
    boxplus_via_derivatives,
    derivative,
    evaluate,
    rand_monic,
    rand_scalar,
    root_power,
    shift,
)

small_fractions = st.fractions(min_value=-20, max_value=20, max_denominator=12)


@st.composite
def monic_pairs(draw, max_degree=6):
    n = draw(st.integers(min_value=1, max_value=max_degree))
    tail = st.lists(small_fractions, min_size=n, max_size=n)
    p = Polynomial([1] + draw(tail))
    q = Polynomial([1] + draw(tail))
    return p, q

X3_MINUS_X2 = Polynomial([1, -1, 0, 0])
CHI_B = Polynomial([1, -3, 2, 0])


class TestBoxplus:
    def test_golden_pair(self):
        # (x^3 - x^2) [+] (x^3 - 3x^2 + 2x) = x^3 - 4x^2 + 4x - 2/3
        expected = Polynomial([1, -4, 4, Fraction(-2, 3)])
        assert boxplus(X3_MINUS_X2, CHI_B) == expected

    def test_neutral_element(self):
        rng = random.Random(1)
        for n in range(1, 7):
            p = rand_monic(rng, n)
            x_n = Polynomial([1] + [0] * n)
            assert boxplus(p, x_n) == p
            assert boxplus(x_n, p) == p

    def test_squares_minus_one(self):
        # hand evaluation of the coefficient sum
        p = Polynomial([1, 0, -1])
        assert boxplus(p, p) == Polynomial([1, 0, -2])

    def test_commutative_and_associative(self):
        rng = random.Random(2)
        for _ in range(40):
            n = rng.randint(1, 8)
            p, q = rand_monic(rng, n), rand_monic(rng, n)
            assert boxplus(p, q) == boxplus(q, p)
        for _ in range(20):
            n = rng.randint(1, 6)
            p, q, r = (rand_monic(rng, n) for _ in range(3))
            assert boxplus(boxplus(p, q), r) == boxplus(p, boxplus(q, r))

    def test_subleading_coefficient_adds(self):
        rng = random.Random(3)
        for _ in range(25):
            n = rng.randint(1, 7)
            p, q = rand_monic(rng, n), rand_monic(rng, n)
            assert boxplus(p, q).coeffs[1] == p.coeffs[1] + q.coeffs[1]

    def test_derivative_form_agrees(self):
        # cross-formula oracle: (1/n!) sum p^(k)(x) q^(n-k)(0)
        rng = random.Random(4)
        for _ in range(100):
            n = rng.randint(1, 6)
            p, q = rand_monic(rng, n), rand_monic(rng, n)
            assert boxplus_via_derivatives(p, q) == boxplus(p, q)

    def test_degree_one_reduces_to_sum(self):
        a, b = Fraction(3, 5), Fraction(-7, 2)
        assert boxplus(Polynomial([1, -a]), Polynomial([1, -b])) == Polynomial([1, -(a + b)])

    @given(monic_pairs())
    def test_commutes_on_arbitrary_rationals(self, pair):
        p, q = pair
        assert boxplus(p, q) == boxplus(q, p)
        assert boxtimes(p, q) == boxtimes(q, p)

    def test_shift_commutes_with_convolution(self):
        rng = random.Random(5)
        for _ in range(25):
            n = rng.randint(1, 6)
            p, q = rand_monic(rng, n), rand_monic(rng, n)
            lam = rand_scalar(rng)
            shifted = Polynomial(shift(p.coeffs, lam))
            assert Polynomial(shift(boxplus(p, q).coeffs, lam)) == boxplus(shifted, q)


class TestBoxtimes:
    def test_golden_pair(self):
        assert boxtimes(X3_MINUS_X2, CHI_B) == X3_MINUS_X2

    def test_neutral_element(self):
        rng = random.Random(6)
        for n in range(1, 7):
            p = rand_monic(rng, n)
            one = root_power(1, n)
            assert boxtimes(p, one) == p
            assert boxtimes(one, p) == p

    def test_term_by_term(self):
        assert boxtimes(Polynomial([1, 0, -1]), Polynomial([1, 0, -4])) == Polynomial([1, 0, 4])

    def test_commutative_and_associative(self):
        rng = random.Random(7)
        for _ in range(40):
            n = rng.randint(1, 8)
            p, q = rand_monic(rng, n), rand_monic(rng, n)
            assert boxtimes(p, q) == boxtimes(q, p)
        for _ in range(20):
            n = rng.randint(1, 6)
            p, q, r = (rand_monic(rng, n) for _ in range(3))
            assert boxtimes(boxtimes(p, q), r) == boxtimes(p, boxtimes(q, r))

    def test_constant_term_sign(self):
        rng = random.Random(8)
        for _ in range(25):
            n = rng.randint(1, 7)
            p, q = rand_monic(rng, n), rand_monic(rng, n)
            assert boxtimes(p, q).coeffs[n] == p.coeffs[n] * q.coeffs[n] * ((-1) ** n)

    def test_degree_one_reduces_to_product(self):
        a, b = Fraction(3, 5), Fraction(-7, 2)
        assert boxtimes(Polynomial([1, -a]), Polynomial([1, -b])) == Polynomial([1, -a * b])


class TestConvolutionErrors:
    def test_degree_mismatch(self):
        with pytest.raises(DegreeMismatchError):
            boxplus(Polynomial([1, 0]), Polynomial([1, 0, 0]))
        with pytest.raises(DegreeMismatchError):
            boxtimes(Polynomial([1, 0]), Polynomial([1, 0, 0]))

    def test_non_monic(self):
        with pytest.raises(NonMonicError):
            boxplus(Polynomial([2, 0]), Polynomial([1, 0]))
        with pytest.raises(NonMonicError):
            boxtimes(Polynomial([1, 0]), Polynomial([3, 0]))

    def test_degree_zero(self):
        with pytest.raises(DegreeMismatchError):
            boxplus(Polynomial([1]), Polynomial([1]))


# The shift, derivative and evaluation oracles behind the cross-formula
# checks above, on coefficient lists (``Polynomial`` has no calculus).


class TestShift:
    def test_basic(self):
        assert shift([1, 0, 0], 1) == [1, -2, 1]
        assert shift(X3_MINUS_X2.coeffs, 0) == list(X3_MINUS_X2.coeffs)
        assert shift([1, 0, -2], 3) == [1, -6, 7]

    def test_shift_composes(self):
        rng = random.Random(9)
        for _ in range(20):
            p = rand_monic(rng, rng.randint(1, 6))
            a, b = rand_scalar(rng), rand_scalar(rng)
            assert shift(shift(p.coeffs, a), b) == shift(p.coeffs, a + b)


class TestDerivative:
    def test_basic(self):
        assert derivative([1, 0, 0, 0], 2) == [6, 0]
        assert derivative([1, Fraction(1, 2), -3], 0) == [1, Fraction(1, 2), -3]

    def test_full_order_is_scaled_leading_coeff(self):
        rng = random.Random(10)
        for n in range(1, 7):
            p = rand_monic(rng, n)
            assert derivative(p.coeffs, n) == [factorial(n)]


class TestEvaluate:
    def test_basic(self):
        assert evaluate([1, 0, -2], 0) == -2
        assert evaluate([1, -4, 4, Fraction(-2, 3)], 1) == Fraction(1, 3)

    def test_power_evaluation(self):
        rng = random.Random(11)
        for _ in range(20):
            n = rng.randint(1, 8)
            c = rand_scalar(rng)
            assert evaluate([1] + [0] * n, c) == c**n
            assert evaluate(root_power(c, n).coeffs, c) == 0


class TestJson:
    def test_golden_encoding(self):
        golden = Polynomial([1, -4, 4, Fraction(-2, 3)])
        assert golden.to_json() == {"degree": 3, "coeffs": ["1", "-4", "4", "-2/3"]}
        assert Polynomial.from_json(golden.to_json()) == golden

    def test_roundtrip_random(self):
        rng = random.Random(12)
        for _ in range(50):
            p = rand_monic(rng, rng.randint(1, 8))
            assert Polynomial.from_json(p.to_json()) == p
