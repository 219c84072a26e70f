"""Fuzz the command line in process: any argv and any input file keep the
0/1/2 exit-code contract with one JSON line and no traceback.

The strategies aim at the input classes that broke the contract before:
malformed scalars, exponent forms around the ``exponent`` guard's limit,
values around the float range fed to ``expect --mc``, deep JSON nesting, a
declared ``n``/``degree`` that disagrees with the payload, rows that are not
lists, bool/float/null entries, counts past the ``moments`` and
``monte-carlo`` guards, and ``-h``/``--help`` among the free-form argv words;
and ``charpoly`` and ``convolve`` on both sides of the ``chi`` and
``convolution`` guards' limits (``finfree.errors.GUARDS``).
"""

import contextlib
import io
import json
import os
import random
import tempfile

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from finfree.cli import main
from finfree.errors import GUARDS

MALFORMED = ["", " ", "1/0", "1//2", "++1", "1+*i", "*i", "1e", "e5", "0x10", "nan", "inf",
             "1_0", "--1", "1/2/3", "i", "1+2i", "\u0661", "1e+", "1.5.2", "3*i*i"]
LIMIT_EXPONENTS = [
    1, 2, 5, GUARDS["exponent"][0] - 1, GUARDS["exponent"][0], GUARDS["exponent"][0] + 1,
]
# around the largest float, 1.8e308, and its square root
FLOAT_EXPONENTS = [150, 154, 155, 300, 308, 309, 400]

FUZZ = settings(
    deadline=None, derandomize=True,
    suppress_health_check=[HealthCheck.too_slow, HealthCheck.data_too_large],
)


def mostly(good, *others, weight=6):
    """One of the strategies, ``good`` ``weight`` times as often as each other
    one (``one_of`` would pick each distinct branch about equally)."""
    return st.sampled_from([good] * weight + list(others)).flatmap(lambda strategy: strategy)


sign = st.sampled_from(["+", "-"])
small_rational = st.builds(lambda p, q: f"{p}/{q}", st.integers(-9, 9), st.integers(1, 9))
magnitude = st.builds(lambda p, q: f"{p}/{q}", st.integers(0, 9), st.integers(1, 9))
small_scalar = mostly(
    st.one_of(st.integers(-9, 9), st.integers(-9, 9).map(str), small_rational),
    st.builds(lambda re, s, im: f"{re}{s}{im}*i", small_rational, sign, magnitude),
    weight=3,
)


def edge_scalar(exponents, exponent_signs):
    """A small value, or m*10^e as a real or an imaginary part."""
    power = st.builds(
        lambda m, s, e: f"{m}e{s}{e}",
        st.integers(1, 9), st.sampled_from(exponent_signs), st.sampled_from(exponents),
    )
    return st.one_of(
        small_scalar,
        st.builds(lambda s, x: s.strip("+") + x, sign, power),
        st.builds(lambda s, x: f"1{s}{x}*i", sign, power),
    )


limit_scalar = edge_scalar(LIMIT_EXPONENTS, ["", "-", "+"])
float_scalar = edge_scalar(FLOAT_EXPONENTS, [""])
bad_scalar = st.one_of(
    st.sampled_from(MALFORMED), st.booleans(), st.floats(allow_nan=False), st.none(), st.just([]),
)
json_scalar = mostly(limit_scalar, bad_scalar, weight=30)
# each matrix or polynomial takes its entries from one of these: mostly small
# exact values, so that most inputs reach the verbs' own work
good_scalars = mostly(st.just(small_scalar), st.just(limit_scalar), weight=3)


def square(n, entries):
    return st.lists(st.lists(entries, min_size=n, max_size=n), min_size=n, max_size=n)


@st.composite
def matrix_payloads(draw, n):
    """Mostly a well-formed n x n matrix; otherwise a bad entry, a wrong
    declared n, a ragged or flat row list, or no matrix at all."""
    rows = draw(mostly(
        square(n, draw(good_scalars)),
        square(n, json_scalar),
        st.lists(st.lists(json_scalar, max_size=4), max_size=4),
        st.lists(json_scalar, min_size=1, max_size=4),
        weight=10,
    ))
    declared = draw(mostly(st.just(n), st.integers(-1, 5), json_scalar, weight=10))
    return draw(mostly(st.just({"n": declared, "entries": rows}), st.just({"entries": rows}),
                       st.just([rows]), st.just(rows), weight=20))


@st.composite
def polynomial_payloads(draw, n):
    coeffs = draw(mostly(
        st.lists(draw(good_scalars), min_size=n, max_size=n).map(lambda cs: ["1", *cs]),
        st.lists(json_scalar, max_size=5),
        json_scalar,
        weight=10,
    ))
    size = len(coeffs) - 1 if isinstance(coeffs, list) else 1
    declared = draw(mostly(st.just(size), st.integers(-1, 5), json_scalar, weight=10))
    return draw(mostly(st.just({"degree": declared, "coeffs": coeffs}), st.just({"coeffs": coeffs})))


# a file is a JSON payload, or raw text: deep nesting, broken JSON, nothing
raw_text = st.one_of(
    st.integers(1, 50_000).map(lambda depth: "[" * depth + "]" * depth),
    st.integers(1, 50_000).map(lambda depth: '{"n": ' * depth),
    st.sampled_from(["", "{", "nul", '{"n": 1, "entries": [["1"]]', "\x00"]),
).map(lambda text: ("raw", text))


def matrix_file(n):
    return mostly(matrix_payloads(n), matrix_payloads(n % 4 + 1), raw_text, weight=20)


def polynomial_file(n):
    return mostly(polynomial_payloads(n), polynomial_payloads(n % 4 + 1), raw_text, weight=20)


count = mostly(
    st.integers(1, 6), st.integers(GUARDS["moments"][0] + 1, 10**9), st.integers(-3, 0),
    st.sampled_from(["x", "1.5", ""]), weight=3,
).map(str)
samples = mostly(
    st.integers(-1, 30), st.sampled_from([GUARDS["monte-carlo"][0] // 9 + 1, 10**12]),
).map(str)
kind = mostly(st.sampled_from(["additive", "multiplicative"]), st.just("bogus"), weight=10)
families = mostly(
    st.sampled_from(["diag,pb", "ut,ut-const", "lt-const,lt", "all,scalar"]),
    st.sampled_from(["diag,ut", "pb", "x,pb", "diag,pb,all", ""]),
)
tolerance = mostly(
    st.floats(min_value=0, max_value=10), st.sampled_from(["nan", "inf", "-1", "1e400", "x"]),
).map(str)


def _option(name, values, weight=2):
    """[] or [name, value], present about ``weight`` times as often."""
    return mostly(values.map(lambda v: [name, v]), st.just([]), weight=weight)


@st.composite
def invocations(draw):
    """(argv, files): argv names files by key; files maps key -> payload."""
    files = {}
    n = draw(st.integers(1, 4))

    def file(strategy):
        key = f"f{len(files)}"
        files[key] = draw(strategy)
        return key

    verb = draw(st.sampled_from([
        "charpoly", "convolve", "check-ffp", "check-balanced", "cycle-sums", "expect",
        "expect-mc", "verify-pair", "moments", "cumulants", "sum-moments", "rank-bound",
        "witness-ekl", "garbage",
    ]))
    if verb in ("charpoly", "check-balanced", "cycle-sums", "cumulants", "witness-ekl"):
        argv = [verb, file(matrix_file(n))]
    elif verb == "convolve":
        argv = [verb, "--kind", draw(kind), file(polynomial_file(n)), file(polynomial_file(n))]
    elif verb in ("check-ffp", "expect"):
        argv = [verb, "--kind", draw(kind), file(matrix_file(n)), file(matrix_file(n))]
    elif verb == "expect-mc":
        argv = ["expect", "--kind", draw(kind), "--mc",
                *draw(_option("--samples", samples, 8)),
                *draw(_option("--seed", st.integers(-2, 2**40).map(str), 8)),
                *draw(_option("--tolerance", tolerance)),
                file(matrix_file(n)), file(matrix_file(n))]
    elif verb == "verify-pair":
        small = mostly(st.integers(1, 3), st.integers(-1, 0)).map(str)
        argv = [verb, "--families", draw(families), "--kind", draw(kind), "--trials", draw(small),
                "--n", draw(small), "--seed", str(draw(st.integers(-5, 2**40))),
                *draw(_option("--bound", small))]
    elif verb == "moments":
        argv = [verb, file(matrix_file(n)), *draw(_option("--k", count))]
    elif verb == "sum-moments":
        argv = [verb, file(matrix_file(n)), file(matrix_file(n)), *draw(_option("--count", count))]
    elif verb == "rank-bound":
        n = st.one_of(st.integers(-2, 60), st.sampled_from([2001, 10**6, 10**30])).map(str)
        argv = [verb, *draw(_option("--n", n))]
    else:
        argv = draw(st.lists(st.sampled_from(
            ["charpoly", "--kind", "--n", "--mc", "x", "", "--", "missing.json", "-h", "--help"]
        ), max_size=4))
    return argv, files


@st.composite
def edge_invocations(draw):
    """Well-formed inputs at two edges: expect --mc on entries around the
    float range, and moment counts past the ``moments`` guard."""
    n = draw(st.integers(1, 3))
    entries = draw(st.sampled_from([small_scalar, float_scalar, float_scalar]))
    files = {key: {"n": n, "entries": draw(square(n, entries))} for key in ("a", "b")}
    verb = draw(st.sampled_from(["expect", "expect", "moments", "sum-moments"]))
    if verb == "moments":
        return ["moments", "a", "--k", draw(count)], files
    if verb == "sum-moments":
        return ["sum-moments", "a", "b", "--count", draw(count)], files
    argv = ["expect", "--kind", draw(st.sampled_from(["additive", "multiplicative"])), "--mc",
            "--samples", str(draw(st.integers(1, 20))), "--seed", str(draw(st.integers(0, 2**40))),
            *draw(_option("--tolerance", tolerance)), "a", "b"]
    return argv, files


@st.composite
def guard_invocations(draw, verb, past):
    """(argv, files): ``charpoly`` on a dense n x n matrix or ``convolve`` on
    two degree-n polynomials, with n at the verb's cost limit or one past it;
    the p/q entries, real or Gaussian, come from a drawn seed."""
    rng = random.Random(draw(st.integers(0, 2**32)))
    gaussian = draw(st.booleans())

    def entry():
        re = f"{rng.randint(-9, 9)}/{rng.randint(1, 9)}"
        return f"{re}{rng.choice('+-')}{rng.randint(1, 9)}/{rng.randint(1, 9)}*i" if gaussian else re

    if verb == "charpoly":
        n = GUARDS["chi"][0] + past
        return [verb, "a"], {"a": {"n": n, "entries": [[entry() for _ in range(n)] for _ in range(n)]}}
    n = GUARDS["convolution"][0] + past
    files = {key: {"degree": n, "coeffs": ["1", *(entry() for _ in range(n))]} for key in ("a", "b")}
    return [verb, "--kind", draw(st.sampled_from(["additive", "multiplicative"])), "a", "b"], files


def assert_contract(argv, files):
    """Run ``main(argv)`` on the files, named in argv by their keys, and
    return its exit code and stderr. A file is a JSON payload, ("raw", text)
    written as UTF-8, or bytes written as they are."""
    with tempfile.TemporaryDirectory() as directory:
        for key, payload in files.items():
            if isinstance(payload, bytes):
                with open(os.path.join(directory, key), "wb") as handle:
                    handle.write(payload)
                continue
            with open(os.path.join(directory, key), "w", encoding="utf-8") as handle:
                if isinstance(payload, tuple):
                    handle.write(payload[1])
                else:
                    json.dump(payload, handle)
        argv = [os.path.join(directory, a) if a in files else a for a in argv]
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = main(argv)
    out, err = out.getvalue(), err.getvalue()
    assert code in (0, 1, 2)
    if code == 2:
        assert argv[0] == "check-ffp"
    if code == 1:
        assert out == ""
        assert err.endswith("\n") and err.count("\n") == 1
        assert set(json.loads(err)) == {"error", "message"}
    else:
        assert err == ""
        assert out.endswith("\n") and out.count("\n") == 1
        json.loads(out)
    return code, err


@settings(FUZZ, max_examples=120)
@given(invocations())
def test_cli_keeps_its_exit_code_contract(invocation):
    assert_contract(*invocation)


@settings(FUZZ, max_examples=80)
@given(edge_invocations())
def test_float_range_and_count_edges_keep_the_contract(invocation):
    assert_contract(*invocation)


@pytest.mark.parametrize("past", [False, True])
@pytest.mark.parametrize("verb", ["charpoly", "convolve"])
@settings(FUZZ, max_examples=3)
@given(data=st.data())
def test_cost_guards_admit_their_limits_and_refuse_one_past(verb, past, data):
    code, err = assert_contract(*data.draw(guard_invocations(verb, past)))
    assert code == (1 if past else 0)
    if past:
        assert json.loads(err)["error"] == "size-guard"


@pytest.mark.parametrize("raw", [
    b"\xff\xfe",
    b"\x80",
    json.dumps({"n": 1, "entries": [["1"]]}).encode("utf-16"),
], ids=["ff-fe", "lone-80", "utf-16-json"])
@pytest.mark.parametrize("verb", ["charpoly", "convolve"])
def test_a_file_that_is_not_utf_8_is_a_parse_error(verb, raw):
    """Bytes that do not decode as UTF-8, valid JSON in UTF-16 among them,
    are a parse error with exit code 1, not a traceback."""
    argv = ["charpoly", "a"] if verb == "charpoly" else ["convolve", "--kind", "additive", "a", "a"]
    code, err = assert_contract(argv, {"a": raw})
    assert code == 1
    assert json.loads(err)["error"] == "parse-error"
