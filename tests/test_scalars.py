import pytest
from fractions import Fraction

from hypothesis import given, settings
from hypothesis import strategies as st

from finfree import GaussianRational, ParseError, SizeGuardError, as_scalar
from finfree.errors import GUARDS
from finfree.scalars import ONE, ZERO, _GaussInt, _int_str, _scaled
from helpers import I

rationals = st.fractions(
    min_value=-100, max_value=100, max_denominator=50
)
scalars = st.builds(GaussianRational, rationals, rationals)


def test_lowest_terms_and_exact_equality():
    x = GaussianRational(Fraction(2, 4), Fraction(-6, 9))
    assert x.re == Fraction(1, 2) and x.im == Fraction(-2, 3)
    assert x == GaussianRational(Fraction(1, 2), Fraction(-2, 3))
    assert GaussianRational(1) != GaussianRational(1, 1)


def test_string_encodings():
    assert str(as_scalar(Fraction(-2, 3))) == "-2/3"
    assert str(GaussianRational(1)) == "1"
    assert str(GaussianRational(Fraction(1, 2), Fraction(3, 4))) == "1/2+3/4*i"
    assert str(GaussianRational(Fraction(-1, 2), Fraction(-3, 4))) == "-1/2-3/4*i"
    assert str(GaussianRational(0, 1)) == "0+1*i"
    assert str(ZERO) == "0"


@pytest.mark.parametrize(
    "text,expected",
    [
        ("1", GaussianRational(1)),
        ("-4", GaussianRational(-4)),
        ("-2/3", GaussianRational(Fraction(-2, 3))),
        ("1/2+3/4*i", GaussianRational(Fraction(1, 2), Fraction(3, 4))),
        ("-1/2-3/4*i", GaussianRational(Fraction(-1, 2), Fraction(-3, 4))),
        ("0+1*i", I),
        ("3*i", GaussianRational(0, 3)),
        ("-3/7*i", GaussianRational(0, Fraction(-3, 7))),
    ],
)
def test_parse(text, expected):
    assert GaussianRational.parse(text) == expected


@pytest.mark.parametrize("text", ["", "x", "1//2", "1+i+i", "2 apples"])
def test_parse_rejects_garbage(text):
    with pytest.raises(ParseError):
        GaussianRational.parse(text)


@given(scalars)
def test_str_roundtrip(x):
    assert GaussianRational.parse(str(x)) == x


@given(scalars, scalars)
def test_addition_commutes(x, y):
    assert x + y == y + x


@given(scalars, scalars, scalars)
def test_multiplication_properties(x, y, z):
    assert x * y == y * x
    assert (x * y) * z == x * (y * z)
    assert x * (y + z) == x * y + x * z


@given(scalars)
def test_field_inverses(x):
    assert x + (-x) == ZERO
    if x:
        assert x * (ONE / x) == ONE
        assert (ONE / x) * x == ONE


def test_complex_multiplication_and_division():
    assert I * I == GaussianRational(-1)
    x = GaussianRational(Fraction(1, 2), Fraction(3, 4))
    y = GaussianRational(Fraction(-5, 7), Fraction(2, 3))
    assert (x / y) * y == x
    assert x * GaussianRational(x.re, -x.im) == GaussianRational(x.re**2 + x.im**2)


def test_division_by_zero():
    with pytest.raises(ZeroDivisionError):
        ONE / ZERO


def test_integer_interop():
    x = as_scalar(Fraction(3, 2))
    assert x * 2 == 3
    assert 1 + x == Fraction(5, 2)
    assert 2 - x == Fraction(1, 2)
    assert hash(GaussianRational(2)) == hash(2)


def test_powers():
    x = GaussianRational(Fraction(1, 2), 1)
    assert x**0 == ONE
    assert x**3 == x * x * x


def horner(digits: str) -> int:
    """The int of a digit string, one digit at a time (no str/int conversion
    of more than one digit)."""
    value = 0
    for c in digits:
        value = value * 10 + "0123456789".index(c)
    return value


@settings(max_examples=40, deadline=None)
@given(st.text("0123456789", min_size=1, max_size=6000), st.booleans())
def test_digit_strings_of_any_length_convert_exactly(digits, negative):
    value = horner(digits)
    sign = "-" if negative else ""
    assert GaussianRational.parse(sign + digits) == GaussianRational(-value if negative else value)
    text = _int_str(-value if negative else value)
    assert text == (sign if value else "") + (digits.lstrip("0") or "0")


def test_values_past_the_digit_limit_round_trip():
    big = GaussianRational(Fraction(-(10**5000) - 7, 3**9000), Fraction(1, 7**6000))
    assert GaussianRational.parse(str(big)) == big
    assert GaussianRational.parse("0." + "1" * 5000).re == Fraction(horner("1" * 5000), 10**5000)
    assert GaussianRational.parse("-" + "9" * 5000 + "e3").re == -horner("9" * 5000 + "000")
    assert GaussianRational.parse("-" + "1" * 5000 + "/" + "3" * 4400).re == Fraction(
        -horner("1" * 5000), horner("3" * 4400)
    )


@pytest.mark.parametrize(
    "text", ["1" * 5000 + "x", "1" * 5000 + "/1.5", "1" * 5000 + "/0", "1.5/" + "1" * 5000, "--" + "1" * 5000]
)
def test_long_malformed_strings_are_parse_errors(text):
    with pytest.raises(ParseError):
        GaussianRational.parse(text)


def test_exponent_at_the_limit_parses():
    limit = GUARDS["exponent"][0]
    assert GaussianRational.parse(f"1e-{limit}") == Fraction(1, 10**limit)


@pytest.mark.parametrize(
    "text",
    [
        f"1e{GUARDS['exponent'][0] + 1}",
        f"1e-{GUARDS['exponent'][0] + 1}",
        f"3/4+1e{GUARDS['exponent'][0] + 1}*i",
        f"1E+00{GUARDS['exponent'][0] + 1}",
        f"1e{10 * GUARDS['exponent'][0] + 1}",  # more digits than the limit has
        # more digits than CPython's int() reads: only the digit-length check refuses it
        pytest.param("1e" + "9" * 5000, id="1e9...9-5000-digits"),
    ],
)
def test_exponent_past_the_limit_is_refused(text):
    # each of these would cost milliseconds, not hours, if the guard let it through
    with pytest.raises(SizeGuardError):
        GaussianRational.parse(text)


# -- the integer kernel's scalars: int or _GaussInt ----------------------------

# small parts too, so that equal values, zero divisors and zero imaginary parts occur
parts = st.integers(-10**6, 10**6) | st.integers(-3, 3)
kernel_scalars = parts | st.builds(_GaussInt, parts, parts)


def exact(z) -> GaussianRational:
    return _scaled(z, 1)


@given(kernel_scalars, kernel_scalars)
def test_kernel_scalars_match_gaussian_rationals_in_both_operand_orders(x, y):
    """+, -, *, exact //, == and != on int/int, int/_GaussInt, _GaussInt/int
    and _GaussInt/_GaussInt agree with the same operation on GaussianRationals."""
    for p, q in ((x, y), (y, x)):
        gp, gq = exact(p), exact(q)
        assert exact(p + q) == gp + gq
        assert exact(p - q) == gp - gq
        assert exact(p * q) == gp * gq
        assert (p == q) == (gp == gq)
        assert (p != q) == (gp != gq)
        if q:
            # p*q is divisible by q, so // is exact
            assert exact(p * q // q) == gp
    assert exact(-x) == -exact(x)
    assert bool(x) == bool(exact(x))
    same = _GaussInt(x.real, x.imag)
    assert x == same and same == x and not (x != same) and not (same != x)


@given(st.integers(-10**30, 10**30), st.integers(1, 10**12))
def test_scaled_reads_an_int_as_a_real_gaussian_int(z, d):
    assert _scaled(z, d) == _scaled(_GaussInt(z, 0), d) == GaussianRational(Fraction(z, d))
    assert str(_scaled(z, d)) == str(_scaled(_GaussInt(z, 0), d))


def test_gauss_int_repr_shows_its_value():
    assert repr(_GaussInt(3, -4)) == "_GaussInt(3, -4)"
    assert repr([_GaussInt(0, 1), 2]) == "[_GaussInt(0, 1), 2]"
