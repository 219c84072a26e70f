import json
import os
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import pytest

import finfree.cli
import finfree.families
from finfree import FfpReport, MomentVector, Polynomial, as_scalar, minor_table
from finfree.cli import main

GOLDEN_A = {"n": 3, "entries": [["1", "0", "0"], ["0", "0", "0"], ["0", "0", "0"]]}
GOLDEN_B = {"n": 3, "entries": [["1", "1", "0"], ["1", "1", "0"], ["0", "0", "1"]]}
EXAMPLE_PB = {"n": 3, "entries": [["1", "2", "3"], ["6", "1", "-12"], ["4", "-1", "1"]]}
GAUSSIAN_A = {"n": 3, "entries": [["1/2", "1*i", "0"], ["2", "-1/3", "1+1*i"], ["0", "3/4", "1"]]}
GAUSSIAN_B = {"n": 3, "entries": [["1", "2/3", "-1"], ["0", "1*i", "1/5"], ["4", "0", "-2"]]}
GAUSSIAN_P = {"degree": 3, "coeffs": ["1", "-1/2+1/3*i", "2/5", "-7"]}
GAUSSIAN_Q = {"degree": 3, "coeffs": ["1", "3", "-1/4*i", "5/6-1*i"]}


@pytest.fixture
def write_json(tmp_path):
    def writer(name, payload):
        path = tmp_path / name
        path.write_text(json.dumps(payload))
        return str(path)

    return writer


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestCharpoly:
    def test_golden(self, capsys, write_json):
        code, out, _ = run(capsys, "charpoly", write_json("b.json", GOLDEN_B))
        assert code == 0
        assert json.loads(out) == {"degree": 3, "coeffs": ["1", "-3", "2", "0"]}

    def test_output_reparses(self, capsys, write_json):
        _, out, _ = run(capsys, "charpoly", write_json("b.json", GOLDEN_B))
        assert Polynomial.from_json(json.loads(out)) == Polynomial([1, -3, 2, 0])


class TestConvolve:
    def test_additive_golden(self, capsys, write_json):
        p = write_json("p.json", {"degree": 3, "coeffs": ["1", "-1", "0", "0"]})
        q = write_json("q.json", {"degree": 3, "coeffs": ["1", "-3", "2", "0"]})
        code, out, _ = run(capsys, "convolve", "--kind", "additive", p, q)
        assert code == 0
        assert json.loads(out)["coeffs"] == ["1", "-4", "4", "-2/3"]

    def test_multiplicative_golden(self, capsys, write_json):
        p = write_json("p.json", {"degree": 3, "coeffs": ["1", "-1", "0", "0"]})
        q = write_json("q.json", {"degree": 3, "coeffs": ["1", "-3", "2", "0"]})
        code, out, _ = run(capsys, "convolve", "--kind", "multiplicative", p, q)
        assert code == 0
        assert json.loads(out)["coeffs"] == ["1", "-1", "0", "0"]


    @pytest.mark.parametrize(
        "kind, expected",
        [
            (
                "additive",
                '{"coeffs": ["1", "5/2+1/3*i", "-3/5+5/12*i", "-1033/180-23/24*i"], "degree": 3}\n',
            ),
            (
                "multiplicative",
                '{"coeffs": ["1", "1/2-1/3*i", "0-1/30*i", "35/6-7*i"], "degree": 3}\n',
            ),
        ],
    )
    def test_gaussian_stdout_bytes(self, capsys, write_json, kind, expected):
        p = write_json("p.json", GAUSSIAN_P)
        q = write_json("q.json", GAUSSIAN_Q)
        code, out, err = run(capsys, "convolve", "--kind", kind, p, q)
        assert (code, out, err) == (0, expected, "")


class TestCheckFfp:
    @pytest.mark.parametrize(
        "kind, pair, code, expected",
        [
            (
                "additive",
                (GAUSSIAN_A, GAUSSIAN_B),
                2,
                '{"kind": "additive", "lhs": {"coeffs": ["1", "-1/6-1*i", "1/10-9/4*i", '
                '"63/20-1301/120*i"], "degree": 3}, "residuals": {"2": "-67/180+13/18*i", '
                '"3": "1831/360-1969/180*i"}, "rhs": {"coeffs": ["1", "-1/6-1*i", '
                '"17/36-107/36*i", "-697/360+7/72*i"], "degree": 3}, "verdict": false}\n',
            ),
            (
                "multiplicative",
                (GAUSSIAN_A, GAUSSIAN_B),
                2,
                '{"kind": "multiplicative", "lhs": {"coeffs": ["1", "1/60+1/3*i", '
                '"71/40+161/30*i", "-803/180+47/20*i"], "degree": 3}, "residuals": '
                '{"1": "-67/180+13/18*i", "2": "383/120+139/20*i"}, "rhs": {"coeffs": '
                '["1", "7/18-7/18*i", "-17/12-19/12*i", "-803/180+47/20*i"], "degree": 3}, '
                '"verdict": false}\n',
            ),
            (
                "additive",
                (GOLDEN_A, GOLDEN_B),
                2,
                '{"kind": "additive", "lhs": {"coeffs": ["1", "-4", "4", "-1"], "degree": 3}, '
                '"residuals": {"3": "-1/3"}, "rhs": {"coeffs": ["1", "-4", "4", "-2/3"], '
                '"degree": 3}, "verdict": false}\n',
            ),
            (
                "multiplicative",
                (GOLDEN_A, GOLDEN_B),
                0,
                '{"kind": "multiplicative", "lhs": {"coeffs": ["1", "-1", "0", "0"], "degree": 3}, '
                '"residuals": {}, "rhs": {"coeffs": ["1", "-1", "0", "0"], "degree": 3}, '
                '"verdict": true}\n',
            ),
        ],
    )
    def test_stdout_bytes(self, capsys, write_json, kind, pair, code, expected):
        a, b = write_json("a.json", pair[0]), write_json("b.json", pair[1])
        assert run(capsys, "check-ffp", "--kind", kind, a, b) == (code, expected, "")

    def test_multiplicative_true_exits_zero(self, capsys, write_json):
        a, b = write_json("a.json", GOLDEN_A), write_json("b.json", GOLDEN_B)
        code, out, _ = run(capsys, "check-ffp", "--kind", "multiplicative", a, b)
        assert code == 0
        assert json.loads(out)["verdict"] is True

    def test_additive_false_exits_two(self, capsys, write_json):
        a, b = write_json("a.json", GOLDEN_A), write_json("b.json", GOLDEN_B)
        code, out, _ = run(capsys, "check-ffp", "--kind", "additive", a, b)
        assert code == 2
        report = FfpReport.from_json(json.loads(out))
        assert not report.verdict
        assert report.residuals == {3: as_scalar(Fraction(-1, 3))}

    def test_dimension_mismatch_is_input_error(self, capsys, write_json):
        a = write_json("a.json", GOLDEN_A)
        b = write_json("b.json", {"n": 2, "entries": [["1", "0"], ["0", "1"]]})
        code, out, err = run(capsys, "check-ffp", "--kind", "additive", a, b)
        assert code == 1
        assert out == ""
        assert json.loads(err)["error"] == "dimension-mismatch"


class TestBalancedAndCycles:
    def test_check_balanced(self, capsys, write_json):
        code, out, _ = run(capsys, "check-balanced", write_json("m.json", EXAMPLE_PB))
        assert code == 0
        payload = json.loads(out)
        assert payload["balanced"] is True
        assert payload["minor_values"]["1"] == ["1"]
        assert payload["minor_values"]["2"] == ["-11"]

    def test_check_balanced_builds_one_minor_table(self, capsys, write_json, monkeypatch):
        calls = []

        def counted(m):
            calls.append(m)
            return minor_table(m)

        monkeypatch.setattr(finfree.cli, "minor_table", counted)
        code, _, _ = run(capsys, "check-balanced", write_json("m.json", EXAMPLE_PB))
        assert code == 0
        assert len(calls) == 1

    @pytest.mark.parametrize(
        "matrix, expected",
        [
            (
                EXAMPLE_PB,
                '{"balanced": true, "minor_values": {"1": ["1"], "2": ["-11"], "3": ["-149"]}, "n": 3}\n',
            ),
            (
                GOLDEN_B,
                '{"balanced": false, "minor_values": {"1": ["1"], "2": ["0", "1"], "3": ["0"]}, "n": 3}\n',
            ),
        ],
    )
    def test_check_balanced_stdout_bytes(self, capsys, write_json, matrix, expected):
        code, out, err = run(capsys, "check-balanced", write_json("m.json", matrix))
        assert code == 0
        assert out == expected
        assert err == ""

    def test_cycle_sums(self, capsys, write_json):
        code, out, _ = run(capsys, "cycle-sums", write_json("m.json", EXAMPLE_PB))
        assert code == 0
        payload = json.loads(out)
        assert payload["balanced"] is True
        assert [e["sum"] for e in payload["orders"]["2"]] == ["12", "12", "12"]


class TestExpect:
    def test_exact_mode(self, capsys, write_json):
        a = write_json("a.json", {"n": 2, "entries": [["1", "0"], ["0", "-1"]]})
        code, out, _ = run(capsys, "expect", "--kind", "additive", a, a)
        assert code == 0
        payload = json.loads(out)
        assert payload["equal"] is True
        assert payload["average"]["coeffs"] == ["1", "0", "-2"]

    def test_mc_mode(self, capsys, write_json):
        a = write_json("a.json", {"n": 2, "entries": [["1", "0"], ["0", "-1"]]})
        code, out, _ = run(
            capsys, "expect", "--kind", "additive", "--mc",
            "--samples", "500", "--seed", "3", "--tolerance", "0.5", a, a,
        )
        assert code == 0
        payload = json.loads(out)
        assert payload["samples"] == 500
        assert isinstance(payload["max_deviation"], float)
        assert payload["within_tolerance"] is True

    def test_mc_requires_seed(self, capsys, write_json):
        a = write_json("a.json", {"n": 2, "entries": [["1", "0"], ["0", "-1"]]})
        code, _, err = run(capsys, "expect", "--kind", "additive", "--mc", "--samples", "10", a, a)
        assert code == 1
        assert json.loads(err)["error"] == "usage"

    def test_size_guard(self, capsys, write_json):
        big = {"n": 7, "entries": [["1" if i == j else "0" for j in range(7)] for i in range(7)]}
        a = write_json("a.json", big)
        code, _, err = run(capsys, "expect", "--kind", "additive", a, a)
        assert code == 1
        assert json.loads(err)["error"] == "size-guard"


class TestVerifyPair:
    def test_runs_and_is_deterministic(self, capsys):
        argv = [
            "verify-pair", "--families", "diag,pb", "--kind", "additive",
            "--trials", "10", "--n", "3", "--seed", "7",
        ]
        code1, out1, _ = run(capsys, *argv)
        code2, out2, _ = run(capsys, *argv)
        assert code1 == code2 == 0
        assert out1 == out2
        payload = json.loads(out1)
        assert payload["failures"] == []
        assert payload["trials"] == 10

    def test_unsupported_pair(self, capsys):
        code, _, err = run(
            capsys, "verify-pair", "--families", "diag,ut", "--kind", "additive",
            "--trials", "2", "--n", "2", "--seed", "1",
        )
        assert code == 1
        assert json.loads(err)["error"] == "unsupported-pair"

    def test_seed_required(self, capsys):
        code, _, err = run(
            capsys, "verify-pair", "--families", "diag,pb", "--kind", "additive",
            "--trials", "2", "--n", "2",
        )
        assert code == 1
        assert json.loads(err)["error"] == "usage"


class TestMomentVerbs:
    def test_moments(self, capsys, write_json):
        m = write_json("m.json", {"n": 3, "entries": [["1", "0", "0"], ["0", "2", "0"], ["0", "0", "3"]]})
        code, out, _ = run(capsys, "moments", m, "--k", "4")
        assert code == 0
        payload = json.loads(out)
        assert payload == {"n": 3, "values": ["2", "14/3", "12", "98/3"]}
        assert MomentVector.from_json(payload).values[0] == 2

    def test_cumulants(self, capsys, write_json):
        m = write_json("m.json", {"n": 2, "entries": [["2", "1"], ["0", "2"]]})
        code, out, _ = run(capsys, "cumulants", m)
        assert code == 0
        assert json.loads(out) == {"n": 2, "values": ["2", "0"]}

    def test_sum_moments(self, capsys, write_json):
        a = write_json("a.json", {"n": 3, "entries": [["1", "0", "0"], ["0", "2", "0"], ["0", "0", "3"]]})
        b = write_json("b.json", {"n": 3, "entries": [["1", "-1", "0"], ["-1", "13", "-3"], ["0", "-3", "1"]]})
        code, out, _ = run(capsys, "sum-moments", a, b)
        assert code == 0
        assert json.loads(out)["values"][1] == "265/3"

    @pytest.mark.parametrize(
        "argv, expected",
        [
            (
                ("moments", "A", "--k", "6"),
                '{"n": 3, "values": ["7/18", "103/108+11/6*i", "559/648+5/6*i", '
                '"-13727/3888+437/108*i", "-44933/23328+1445/324*i", '
                '"-2031011/139968-5147/1296*i"]}\n',
            ),
            (
                ("cumulants", "A"),
                '{"n": 3, "values": ["7/18", "65/54+11/4*i", "-193/324-47/8*i"]}\n',
            ),
            (
                ("sum-moments", "A", "B", "--count", "6"),
                '{"n": 3, "values": ["1/18+1/3*i", "-23/36+113/54*i", "-4147/3240-41/108*i", '
                '"-109091/19440-17449/4860*i", "26083/7776-7415/1296*i", '
                '"19929931/1166400-1154173/87480*i"]}\n',
            ),
        ],
    )
    def test_gaussian_stdout_bytes(self, capsys, write_json, argv, expected):
        paths = {"A": write_json("a.json", GAUSSIAN_A), "B": write_json("b.json", GAUSSIAN_B)}
        code, out, err = run(capsys, *(paths.get(arg, arg) for arg in argv))
        assert (code, out, err) == (0, expected, "")


class TestSmallVerbs:
    def test_rank_bound(self, capsys):
        code, out, _ = run(capsys, "rank-bound", "--n", "3")
        assert code == 0
        assert json.loads(out) == {"n": 3, "rank_bound": "27"}

    def test_witness_found(self, capsys, write_json):
        code, out, _ = run(capsys, "witness-ekl", write_json("b.json", GOLDEN_B))
        assert code == 0
        payload = json.loads(out)
        assert payload["found"] is True
        assert (payload["k"], payload["l"]) == (1, 2)
        assert payload["report"]["verdict"] is False

    def test_witness_absent(self, capsys, write_json):
        diag = {"n": 2, "entries": [["1", "0"], ["0", "2"]]}
        code, out, _ = run(capsys, "witness-ekl", write_json("m.json", diag))
        assert code == 0
        assert json.loads(out) == {"found": False}


class TestErrorPaths:
    def test_missing_file(self, capsys):
        code, _, err = run(capsys, "charpoly", "/nonexistent/m.json")
        assert code == 1
        assert json.loads(err)["error"] == "io-error"

    def test_malformed_json(self, capsys, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text("{not json")
        code, _, err = run(capsys, "charpoly", str(path))
        assert code == 1
        assert json.loads(err)["error"] == "parse-error"

    def test_bad_matrix_payload(self, capsys, write_json):
        path = write_json("bad.json", {"rows": []})
        code, _, err = run(capsys, "charpoly", path)
        assert code == 1
        assert json.loads(err)["error"] == "parse-error"

    def test_unknown_flag(self, capsys):
        code, _, err = run(capsys, "rank-bound", "--n", "3", "--bogus")
        assert code == 1
        assert json.loads(err)["error"] == "usage"

    def test_bad_scalar_string(self, capsys, write_json):
        path = write_json("bad.json", {"n": 1, "entries": [["zzz"]]})
        code, _, err = run(capsys, "charpoly", path)
        assert code == 1
        assert json.loads(err)["error"] == "parse-error"

    def test_non_integer_json_scalar(self, capsys, write_json):
        path = write_json("bad.json", {"n": 1, "entries": [[1.5]]})
        code, out, err = run(capsys, "charpoly", path)
        assert (code, out) == (1, "")
        assert json.loads(err)["error"] == "parse-error"


class TestLargeAndDeepInput:
    """Exact values of any size print and parse exactly; deep nesting and
    huge exponent forms are input errors, not tracebacks."""

    def test_deep_nesting_is_a_parse_error(self, capsys, tmp_path):
        path = tmp_path / "deep.json"
        path.write_text("[" * 100000 + "]" * 100000)
        code, out, err = run(capsys, "charpoly", str(path))
        assert (code, out) == (1, "")
        assert json.loads(err)["error"] == "parse-error"
        assert "Traceback" not in err

    def test_charpoly_past_the_digit_limit(self, capsys, write_json):
        code, out, _ = run(capsys, "charpoly", write_json("m.json", {"n": 1, "entries": [["1e5000"]]}))
        assert code == 0
        assert json.loads(out)["coeffs"] == ["1", "-1" + "0" * 5000]

    def test_moments_past_the_digit_limit(self, capsys, write_json):
        x = 10**2200 - 1  # 2200 nines; m_2 and m_3 have about 4400 and 6600 digits
        digits = "9" * 2200
        code, out, _ = run(
            capsys, "moments", write_json("m.json", {"n": 2, "entries": [[digits, "1"], ["0", "2"]]}),
            "--k", "3",
        )
        assert code == 0
        values = [as_scalar(v) for v in json.loads(out)["values"]]
        assert values == [Fraction(x**k + 2**k, 2) for k in (1, 2, 3)]

    def test_long_integer_literal(self, capsys, write_json):
        digits = "12345" * 1000
        code, out, _ = run(capsys, "charpoly", write_json("m.json", {"n": 1, "entries": [[digits]]}))
        assert code == 0
        assert json.loads(out)["coeffs"] == ["1", "-" + digits]

    def test_rank_bound_past_the_digit_limit(self, capsys):
        code, out, _ = run(capsys, "rank-bound", "--n", "1600")
        assert code == 0
        bound = json.loads(out)["rank_bound"]
        assert len(bound) > 4300
        assert as_scalar(bound) == finfree.families.rank_upper_bound(1600)

    def test_rank_bound_size_guard(self, capsys, monkeypatch):
        def refuse(*_):
            raise AssertionError("the guard must refuse before any term is computed")

        monkeypatch.setattr(finfree.families, "factorial", refuse)
        monkeypatch.setattr(finfree.families, "comb", refuse)
        code, out, err = run(capsys, "rank-bound", "--n", "1000000")
        assert (code, out) == (1, "")
        assert json.loads(err)["error"] == "size-guard"

    @pytest.mark.parametrize("scalar", ["1e10001", "-2.5e-10001", "1e0_010_001", "1+1e10001*i"])
    def test_exponent_past_the_limit_is_refused(self, capsys, write_json, scalar):
        code, out, err = run(capsys, "charpoly", write_json("m.json", {"n": 1, "entries": [[scalar]]}))
        assert (code, out) == (1, "")
        assert json.loads(err)["error"] == "size-guard"


class TestPayloadShapes:
    """Wrong JSON shapes are parse errors, not tracebacks."""

    @staticmethod
    def assert_parse_error(capsys, *argv):
        code, out, err = run(capsys, *argv)
        assert (code, out) == (1, "")
        assert json.loads(err)["error"] == "parse-error"

    def test_entries_not_a_list(self, capsys, write_json):
        self.assert_parse_error(capsys, "charpoly", write_json("m.json", {"n": 1, "entries": 5}))

    def test_row_not_a_list(self, capsys, write_json):
        path = write_json("m.json", {"n": 2, "entries": [[1, 0], 5]})
        self.assert_parse_error(capsys, "charpoly", path)

    def test_coeffs_not_a_list(self, capsys, write_json):
        p = write_json("p.json", {"degree": 1, "coeffs": 5})
        self.assert_parse_error(capsys, "convolve", "--kind", "additive", p, p)

    def test_exponent_in_imaginary_part(self, capsys, write_json):
        path = write_json("m.json", {"n": 1, "entries": [["2+1e-5*i"]]})
        code, out, _ = run(capsys, "charpoly", path)
        assert code == 0
        assert json.loads(out)["coeffs"] == ["1", "-2-1/100000*i"]


class TestIntegerJson:
    def test_integer_matrix_entries(self, capsys, write_json):
        path = write_json("m.json", {"n": 2, "entries": [[1, 0], [0, 1]]})
        code, out, _ = run(capsys, "charpoly", path)
        assert code == 0
        assert json.loads(out) == {"degree": 2, "coeffs": ["1", "-2", "1"]}

    def test_integer_polynomial_coeffs(self, capsys, write_json):
        p = write_json("p.json", {"degree": 3, "coeffs": [1, -1, 0, 0]})
        q = write_json("q.json", {"degree": 3, "coeffs": ["1", -3, 2, "0"]})
        code, out, _ = run(capsys, "convolve", "--kind", "additive", p, q)
        assert code == 0
        assert json.loads(out)["coeffs"] == ["1", "-4", "4", "-2/3"]


class TestRangeChecks:
    """Out-of-range counts and seeds are usage errors, not tracebacks."""

    @staticmethod
    def assert_usage_error(capsys, *argv):
        code, out, err = run(capsys, *argv)
        assert (code, out) == (1, "")
        payload = json.loads(err)
        assert payload["error"] == "usage"
        assert set(payload) == {"error", "message"}

    def test_verify_pair_bound_zero(self, capsys):
        self.assert_usage_error(
            capsys, "verify-pair", "--families", "diag,pb", "--kind", "additive",
            "--trials", "2", "--n", "3", "--seed", "1", "--bound", "0",
        )

    def test_verify_pair_trials_below_one(self, capsys):
        self.assert_usage_error(
            capsys, "verify-pair", "--families", "diag,pb", "--kind", "additive",
            "--trials", "-5", "--n", "3", "--seed", "1",
        )

    def test_expect_mc_negative_seed(self, capsys, write_json):
        a = write_json("a.json", {"n": 2, "entries": [["1", "0"], ["0", "-1"]]})
        self.assert_usage_error(
            capsys, "expect", "--kind", "additive", "--mc", "--samples", "10", "--seed", "-1", a, a
        )

    def test_moments_k_below_one(self, capsys, write_json):
        m = write_json("m.json", GOLDEN_B)
        self.assert_usage_error(capsys, "moments", m, "--k", "0")

    def test_sum_moments_count_below_one(self, capsys, write_json):
        m = write_json("m.json", GOLDEN_B)
        self.assert_usage_error(capsys, "sum-moments", m, m, "--count", "0")


def test_import_leaves_numpy_out():
    """numpy loads only with ``expect --mc``; importing the package and the
    CLI must not pull it in."""
    code = "import sys, finfree, finfree.cli; print('numpy' in sys.modules)"
    src = str(Path(__file__).resolve().parent.parent / "src")
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}
    result = subprocess.run(
        [sys.executable, "-c", code], capture_output=True, text=True, env=env, check=True
    )
    assert result.stdout.strip() == "False"
