import hashlib
import json
import os
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import pytest

import finfree.cli
import finfree.families
import finfree.ffp
import finfree.matrices
import finfree.moments
import finfree.polynomials
from finfree import Polynomial, SizeGuardError, as_scalar, minor_table
from finfree.cli import main
from finfree.errors import GUARDS

GOLDEN_A = {"n": 3, "entries": [["1", "0", "0"], ["0", "0", "0"], ["0", "0", "0"]]}
GOLDEN_B = {"n": 3, "entries": [["1", "1", "0"], ["1", "1", "0"], ["0", "0", "1"]]}
EXAMPLE_PB = {"n": 3, "entries": [["1", "2", "3"], ["6", "1", "-12"], ["4", "-1", "1"]]}
GAUSSIAN_A = {"n": 3, "entries": [["1/2", "1*i", "0"], ["2", "-1/3", "1+1*i"], ["0", "3/4", "1"]]}
GAUSSIAN_B = {"n": 3, "entries": [["1", "2/3", "-1"], ["0", "1*i", "1/5"], ["4", "0", "-2"]]}
DENSE_7 = {"n": 7, "entries": [
    ["0", "2", "-8/9", "-7/6", "8", "3/2", "-9/2"],
    ["3/7", "-2", "-8/9", "3", "4", "-3/10", "-9/10"],
    ["8/7", "-9/4", "-1", "-6/5", "1", "7/2", "8/5"],
    ["7/3", "-7/10", "2", "1/2", "7/2", "8", "9/4"],
    ["5/9", "1/2", "2/5", "2/3", "-1/4", "-5/4", "-4/5"],
    ["-1/9", "5/6", "4/5", "9/2", "-7/9", "1", "0"],
    ["5/7", "-9/2", "7/10", "0", "1/10", "1/2", "2"],
]}
# u_i c / u_j for u = (1, -2, 3, 1/2, 5) and c = 3/7
RANK_ONE_5 = {"n": 5, "entries": [
    ["3/7", "-3/14", "1/7", "6/7", "3/35"],
    ["-6/7", "3/7", "-2/7", "-12/7", "-6/35"],
    ["9/7", "-9/14", "3/7", "18/7", "9/35"],
    ["3/14", "-3/28", "1/14", "3/7", "3/70"],
    ["15/7", "-15/14", "5/7", "30/7", "3/7"],
]}
SPARSE_6 = {"n": 6, "entries": [
    ["1", "0", "-1", "0", "0", "1"],
    ["0", "0", "1", "0", "-1", "0"],
    ["1", "0", "-1", "0", "0", "1"],
    ["0", "1", "0", "0", "0", "-1"],
    ["-1", "0", "0", "1", "0", "0"],
    ["0", "-1", "0", "0", "1", "0"],
]}
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
        report = json.loads(out)
        assert report["verdict"] is False
        assert report["residuals"] == {"3": "-1/3"}

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

        monkeypatch.setattr(finfree.matrices, "minor_table", counted)
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

    # recorded before principal minors came from the Sylvester tree: a dense 7x7 (the
    # benchmark's check-balanced shape), a rank-one balanced 5x5, whose minors past
    # order 1 all vanish, and a sparse singular 6x6 of 0 and +-1, where most pivots are zero
    @pytest.mark.parametrize(
        "matrix, size, sha256",
        [
            (
                DENSE_7,
                1882,
                "96a10bc0035e380cdb79bd4afac481303db9bb1b618c2e08e73a7ee6ba88178e",
            ),
            (
                RANK_ONE_5,
                107,
                "916038c115159d9e0a173803e85431064e63bc05ee95246f04a285df7c535819",
            ),
            (
                SPARSE_6,
                151,
                "deb4b02415c42870b2ae95cc562da41374eeb382b383dc72776799f3b72ae49f",
            ),
        ],
    )
    def test_check_balanced_golden_bytes(self, capsys, write_json, matrix, size, sha256):
        code, out, err = run(capsys, "check-balanced", write_json("m.json", matrix))
        assert code == 0
        assert err == ""
        assert len(out.encode()) == size
        assert hashlib.sha256(out.encode()).hexdigest() == sha256

    def test_cycle_sums(self, capsys, write_json):
        code, out, _ = run(capsys, "cycle-sums", write_json("m.json", EXAMPLE_PB))
        assert code == 0
        payload = json.loads(out)
        assert payload["balanced"] is True
        assert [e["sum"] for e in payload["orders"]["2"]] == ["12", "12", "12"]

    # recorded before records serialized through one rule (scalars._json)
    @pytest.mark.parametrize(
        "matrix, expected",
        [
            (
                EXAMPLE_PB,
                '{"balanced": true, "n": 3, "orders": {"1": [{"indices": [1], "sum": "1"}, '
                '{"indices": [2], "sum": "1"}, {"indices": [3], "sum": "1"}], "2": [{"indices": [1, 2], '
                '"sum": "12"}, {"indices": [1, 3], "sum": "12"}, {"indices": [2, 3], "sum": "12"}], '
                '"3": [{"indices": [1, 2, 3], "sum": "-114"}]}}\n',
            ),
            (
                GAUSSIAN_A,
                '{"balanced": false, "n": 3, "orders": {"1": [{"indices": [1], "sum": "1/2"}, '
                '{"indices": [2], "sum": "-1/3"}, {"indices": [3], "sum": "1"}], "2": [{"indices": [1, 2], '
                '"sum": "0+2*i"}, {"indices": [1, 3], "sum": "0"}, {"indices": [2, 3], "sum": "3/4+3/4*i"}], '
                '"3": [{"indices": [1, 2, 3], "sum": "0"}]}}\n',
            ),
        ],
    )
    def test_cycle_sums_stdout_bytes(self, capsys, write_json, matrix, expected):
        code, out, err = run(capsys, "cycle-sums", write_json("m.json", matrix))
        assert (code, out, err) == (0, expected, "")

    def test_cycle_sums_golden_bytes(self, capsys, write_json):
        code, out, err = run(capsys, "cycle-sums", write_json("m.json", DENSE_7))
        assert (code, err) == (0, "")
        assert len(out.encode()) == 5878
        assert hashlib.sha256(out.encode()).hexdigest() == (
            "6b065f65b0be8752eba0031929d3bfafa06a8584a8794331a536d66d712f667d"
        )


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

    # recorded before records serialized through one rule (scalars._json); the pair
    # is Gaussian and not symmetric, so neither kind's average is a plain convolution
    @pytest.mark.parametrize(
        "kind, expected",
        [
            (
                "additive",
                '{"average": {"coeffs": ["1", "-1/6-1*i", "17/36-107/36*i", "-697/360+7/72*i"], '
                '"degree": 3}, "convolution": {"coeffs": ["1", "-1/6-1*i", "17/36-107/36*i", '
                '"-697/360+7/72*i"], "degree": 3}, "equal": true, "kind": "additive"}\n',
            ),
            (
                "multiplicative",
                '{"average": {"coeffs": ["1", "7/18-7/18*i", "-17/12-19/12*i", "-803/180+47/20*i"], '
                '"degree": 3}, "convolution": {"coeffs": ["1", "7/18-7/18*i", "-17/12-19/12*i", '
                '"-803/180+47/20*i"], "degree": 3}, "equal": true, "kind": "multiplicative"}\n',
            ),
        ],
    )
    def test_exact_stdout_bytes(self, capsys, write_json, kind, expected):
        a, b = write_json("a.json", GAUSSIAN_A), write_json("b.json", GAUSSIAN_B)
        code, out, err = run(capsys, "expect", "--kind", kind, a, b)
        assert (code, out, err) == (0, expected, "")

    # the floats hang on numpy and LAPACK, so only the keys and the verdict are pinned
    @pytest.mark.parametrize("tolerance", [None, "0.5", "1e-9"])
    def test_mc_keys(self, capsys, write_json, tolerance):
        a, b = write_json("a.json", GAUSSIAN_A), write_json("b.json", GAUSSIAN_B)
        argv = ["expect", "--kind", "additive", "--mc", "--samples", "20", "--seed", "2", a, b]
        if tolerance is not None:
            argv[-2:-2] = ["--tolerance", tolerance]
        code, out, err = run(capsys, *argv)
        assert (code, err) == (0, "")
        payload = json.loads(out)
        assert set(payload) == {
            "coeffs", "kind", "max_deviation", "samples", "seed", "tolerance", "within_tolerance",
        }
        if tolerance is None:
            assert payload["tolerance"] is payload["within_tolerance"] is None
        else:
            assert payload["tolerance"] == float(tolerance)
            assert payload["within_tolerance"] is (payload["max_deviation"] < float(tolerance))

    def test_mc_requires_seed(self, capsys, write_json):
        a = write_json("a.json", {"n": 2, "entries": [["1", "0"], ["0", "-1"]]})
        code, _, err = run(capsys, "expect", "--kind", "additive", "--mc", "--samples", "10", a, a)
        assert code == 1
        assert json.loads(err)["error"] == "usage"

    @pytest.mark.parametrize("flag, value", [("--samples", "5"), ("--seed", "1"), ("--tolerance", "0.1")])
    def test_monte_carlo_flag_without_mc_is_a_usage_error(self, capsys, write_json, flag, value):
        """The exact mean takes no samples, seed or tolerance: a flag it would
        drop is refused, not ignored."""
        a = write_json("a.json", {"n": 2, "entries": [["1", "0"], ["0", "-1"]]})
        code, out, err = run(capsys, "expect", "--kind", "additive", flag, value, a, a)
        assert (code, out) == (1, "")
        assert json.loads(err) == {"error": "usage", "message": f"expect {flag} requires --mc"}

    def test_size_guard(self, capsys, write_json):
        big = {"n": 7, "entries": [["1" if i == j else "0" for j in range(7)] for i in range(7)]}
        a = write_json("a.json", big)
        code, _, err = run(capsys, "expect", "--kind", "additive", a, a)
        assert code == 1
        assert json.loads(err)["error"] == "size-guard"

    @pytest.mark.parametrize(
        "kind, a, b",
        [
            # an entry past the float range
            ("additive", [["1e400", "0"], ["0", "1"]], [["0", "0"], ["0", "0"]]),
            # entries inside it whose convolution's constant term (1e800) is not
            ("multiplicative", [["1e200", "0"], ["0", "1e200"]], [["1e200", "0"], ["0", "1e200"]]),
            # finite floats whose Haar average overflows
            ("additive", [["1e300", "1e300"], ["1e300", "1e300"]], [["0", "0"], ["0", "0"]]),
            ("multiplicative", [["1e300", "1e300"], ["1e300", "1e300"]], [["1e300", "1"], ["1", "1e300"]]),
        ],
    )
    def test_mc_past_the_float_range_is_a_size_guard(self, capsys, write_json, kind, a, b):
        a = write_json("a.json", {"n": 2, "entries": a})
        b = write_json("b.json", {"n": 2, "entries": b})
        code, out, err = run(
            capsys, "expect", "--kind", kind, "--mc", "--samples", "10", "--seed", "1", a, b
        )
        assert (code, out) == (1, "")
        assert err.count("\n") == 1
        assert json.loads(err)["error"] == "size-guard"

    def test_mc_sample_count_guard(self, capsys, write_json, monkeypatch):
        def refuse(*args):
            raise AssertionError("sampled past the guard")

        monkeypatch.setitem(sys.modules, "numpy", None)  # any import of numpy now fails
        monkeypatch.setattr(finfree.ffp, "haar_unitaries", refuse)
        # one sample past the limit at n = 2, and at n = 20 the 20000 samples that
        # n = 3 allows, which would take about 10 s there
        for n, samples in ((2, GUARDS["monte-carlo"][0] // 9 + 1), (20, 20_000)):
            diagonal = [["1" if i == j else "0" for j in range(n)] for i in range(n)]
            a = write_json("a.json", {"n": n, "entries": diagonal})
            code, out, err = run(
                capsys, "expect", "--kind", "additive", "--mc",
                "--samples", str(samples), "--seed", "1", a, a,
            )
            assert (code, out) == (1, "")
            assert json.loads(err)["error"] == "size-guard"

    def test_mc_sample_count_at_the_limit_is_sampled(self, monkeypatch):
        class Sampled(Exception):
            pass

        def sampled(*args):
            raise Sampled

        monkeypatch.setattr(finfree.ffp, "haar_unitaries", sampled)
        assert GUARDS["monte-carlo"][0] // 9 >= 20_000
        for n in (2, 20):
            a = finfree.matrices.Matrix.identity(n)
            most = GUARDS["monte-carlo"][0] // max(n, 3) ** 2
            with pytest.raises(Sampled):
                finfree.ffp.expected_charpoly_haar_mc(a, a, "additive", most, 1)
            with pytest.raises(SizeGuardError):
                finfree.ffp.expected_charpoly_haar_mc(a, a, "additive", most + 1, 1)

    @pytest.mark.parametrize("tolerance", ["nan", "inf", "-1", "1e400"])
    def test_mc_tolerance_must_be_finite_and_non_negative(self, capsys, write_json, tolerance):
        a = write_json("a.json", {"n": 2, "entries": [["1", "0"], ["0", "-1"]]})
        code, out, err = run(
            capsys, "expect", "--kind", "additive", "--mc", "--samples", "10", "--seed", "1",
            "--tolerance", tolerance, a, a,
        )
        assert (code, out) == (1, "")
        assert json.loads(err)["error"] == "usage"


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

    # every supported pair, both kinds, at n = 3: the trials, the outsiders and the
    # partners that the boundary search found, byte for byte
    @pytest.mark.parametrize(
        "families, kind, size, sha256",
        [
            ("diag,pb", "additive", 1066, "e19ac364cccd0c430fc9428bab2312ff42493d4f2f690fe534393dcdb284ba6b"),
            ("diag,pb", "multiplicative", 1024, "0d71a377a10f00f23bf1f5b91359bb7cd6ceb422e65e4c1683921dce21b95241"),
            ("ut,ut-const", "additive", 1073, "b10996966d6b106aaeeca4869ba4723a016171e2f8ca4860c4aaa59aa40e4fde"),
            ("ut,ut-const", "multiplicative", 1017, "487058488a2bcd6bfc6f11e6e50b95c501ef86ecf0b18deed7e4b602ea04388a"),
            ("lt,lt-const", "additive", 1076, "a4bd26cbd52483435fbae5788790d7cf97f1b35cbecf743848383bdd2fbeaa75"),
            ("lt,lt-const", "multiplicative", 1015, "bff283a862b187a03f49278fe723af4277470a71c66a2028e8c6df78c520994b"),
            ("scalar,all", "additive", 583, "548a84eb2d6baeedbbfba66eb66af96e04dbe30f6a875951abfc27ddb904a78f"),
            ("scalar,all", "multiplicative", 590, "89b2056e08b7939d96aee708cf4bb09b70f9e8a56566256abcadc8030279f08e"),
        ],
    )
    def test_golden_bytes(self, capsys, families, kind, size, sha256):
        code, out, err = run(
            capsys, "verify-pair", "--families", families, "--kind", kind,
            "--trials", "3", "--n", "3", "--seed", "11",
        )
        assert (code, err) == (0, "")
        assert len(out.encode()) == size
        assert hashlib.sha256(out.encode()).hexdigest() == sha256

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

    @pytest.mark.parametrize(
        "families, n, message",
        [
            ("ut,ut-const", "1000", "characteristic polynomial refused for n=1000 > 64"),
            ("diag,pb", "65", "minor enumeration refused for n=65 > 16"),
        ],
    )
    def test_refused_before_the_first_draw(self, capsys, monkeypatch, families, n, message):
        """A run that would end in a size guard's refusal after its draws is
        refused before the first one, with the same text."""

        def no_draw(*_):
            raise AssertionError("a member drawn for a run past a size guard")

        monkeypatch.setattr(finfree.families, "sample_member", no_draw)
        code, out, err = run(
            capsys, "verify-pair", "--families", families, "--kind", "additive",
            "--trials", "1", "--n", n, "--seed", "0",
        )
        assert (code, out) == (1, "")
        assert json.loads(err) == {"error": "size-guard", "message": message}


class TestMomentVerbs:
    def test_moments(self, capsys, write_json):
        m = write_json("m.json", {"n": 3, "entries": [["1", "0", "0"], ["0", "2", "0"], ["0", "0", "3"]]})
        code, out, _ = run(capsys, "moments", m, "--k", "4")
        assert code == 0
        payload = json.loads(out)
        assert payload == {"n": 3, "values": ["2", "14/3", "12", "98/3"]}

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

    # recorded before records serialized through one rule (scalars._json)
    @pytest.mark.parametrize(
        "argv, expected",
        [
            (("rank-bound", "--n", "3"), '{"n": 3, "rank_bound": "27"}\n'),
            (("rank-bound", "--n", "6"), '{"n": 6, "rank_bound": "12606"}\n'),
            (
                ("witness-ekl", "B"),
                '{"found": true, "k": 1, "l": 2, "report": {"kind": "additive", "lhs": {"coeffs": '
                '["1", "-3", "1", "1"], "degree": 3}, "residuals": {"2": "-1", "3": "1"}, "rhs": '
                '{"coeffs": ["1", "-3", "2", "0"], "degree": 3}, "verdict": false}}\n',
            ),
            (
                ("witness-ekl", "A"),
                '{"found": true, "k": 1, "l": 2, "report": {"kind": "additive", "lhs": {"coeffs": '
                '["1", "-7/6", "-11/4-11/4*i", "61/24+19/8*i"], "degree": 3}, "residuals": {"2": "-2", '
                '"3": "2"}, "rhs": {"coeffs": ["1", "-7/6", "-3/4-11/4*i", "13/24+19/8*i"], "degree": 3}, '
                '"verdict": false}}\n',
            ),
            (("witness-ekl", "D"), '{"found": false}\n'),
        ],
    )
    def test_stdout_bytes(self, capsys, write_json, argv, expected):
        paths = {
            "A": write_json("a.json", GAUSSIAN_A),
            "B": write_json("b.json", GOLDEN_B),
            "D": write_json("d.json", {"n": 2, "entries": [["1", "0"], ["0", "2"]]}),
        }
        code, out, err = run(capsys, *(paths.get(arg, arg) for arg in argv))
        assert (code, out, err) == (0, expected, "")


class TestErrorPaths:
    @pytest.mark.parametrize(
        "argv",
        [
            ("check-ffp", "--kind", "additive"),
            ("check-ffp", "--kind", "multiplicative"),
            ("expect", "--kind", "additive"),
            ("expect", "--kind", "multiplicative", "--mc", "--samples", "10", "--seed", "0"),
            ("sum-moments",),
        ],
    )
    def test_mismatched_sizes_are_a_dimension_mismatch(self, capsys, write_json, monkeypatch, argv):
        """Every verb that takes two matrices refuses a 2x2 and a 3x3 with
        the same error code, before any chi is computed."""

        def no_chi(*_):
            raise AssertionError("chi computed for a mismatched pair")

        monkeypatch.setattr(finfree.matrices, "_char_coeffs", no_chi)
        monkeypatch.setattr(finfree.ffp, "_char_coeffs", no_chi)
        a = write_json("a.json", {"n": 2, "entries": [["1", "2"], ["3", "4"]]})
        b = write_json("b.json", GAUSSIAN_A)
        code, out, err = run(capsys, *argv, a, b)
        assert (code, out) == (1, "")
        assert json.loads(err)["error"] == "dimension-mismatch"

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

    @pytest.mark.parametrize(
        "argv, error, message",
        [
            (("rank-bound", "--n", "x"), "usage", "argument --n: invalid int value: 'x'"),
            (("expect", "--kind", "additive", "--mc", "--samples", "10", "--seed", "0", "--tolerance", "x",
              "ONE", "ONE"), "usage", "argument --tolerance: invalid float value: 'x'"),
            (("verify-pair", "--families", "pb", "--kind", "additive", "--n", "3", "--seed", "0"),
             "usage", "--families wants exactly two comma-separated tags"),
            (("verify-pair", "--families", "x,pb", "--kind", "additive", "--n", "3", "--seed", "0"),
             "parse-error", "unknown family tag 'x'"),
            (("charpoly", "TRUE"), "parse-error", "cannot interpret True as an exact scalar"),
            (("convolve", "--kind", "additive", "NO_DEGREE", "NO_DEGREE"),
             "parse-error", "polynomial JSON needs 'degree' and 'coeffs': 'degree'"),
            (("convolve", "--kind", "additive", "SHORT", "SHORT"),
             "parse-error", "declared degree 3 but 2 coefficients"),
        ],
    )
    def test_refusal_code_and_message(self, capsys, write_json, argv, error, message):
        """Each malformed argument or payload exits 1 with its error code and
        text on stderr and nothing on stdout."""
        paths = {
            "ONE": write_json("one.json", {"n": 1, "entries": [["1"]]}),
            "TRUE": write_json("true.json", {"n": 1, "entries": [[True]]}),
            "NO_DEGREE": write_json("no-degree.json", {"coeffs": ["1", "2"]}),
            "SHORT": write_json("short.json", {"degree": 3, "coeffs": ["1", "2"]}),
        }
        code, out, err = run(capsys, *(paths.get(arg, arg) for arg in argv))
        assert (code, out) == (1, "")
        assert json.loads(err) == {"error": error, "message": message}


class TestHelp:
    @pytest.mark.parametrize(
        "argv",
        [
            ["-h"],
            ["--help"],
            ["charpoly", "-h"],
            ["expect", "--help"],
            ["check-ffp", "--kind", "additive", "-h"],
            ["rank-bound", "--n", "3", "--help"],
        ],
    )
    def test_help_is_one_json_line(self, capsys, argv):
        code, out, err = run(capsys, *argv)
        assert (code, err) == (0, "")
        assert out.endswith("\n") and out.count("\n") == 1
        payload = json.loads(out)
        assert list(payload) == ["help"]
        assert payload["help"].startswith("usage: finfree")
        if argv[0] != argv[-1]:
            assert payload["help"].startswith(f"usage: finfree {argv[0]}")


# one usage error per verb that the parser itself refuses: a bad value, or a missing or extra argument
USAGE_ERRORS = {
    "charpoly": ["charpoly"],
    "convolve": ["convolve", "p.json", "q.json"],
    "check-ffp": ["check-ffp", "--kind", "additive", "a.json"],
    "check-balanced": ["check-balanced", "m.json", "extra"],
    "cycle-sums": ["cycle-sums"],
    "expect": ["expect", "--kind", "additive", "--samples", "x", "a.json", "b.json"],
    "verify-pair": ["verify-pair", "--families", "diag,pb", "--kind", "additive", "--n", "0", "--seed", "1"],
    "moments": ["moments", "m.json", "--k", "0"],
    "cumulants": ["cumulants"],
    "sum-moments": ["sum-moments", "a.json", "b.json", "--count", "x"],
    "rank-bound": ["rank-bound", "--n", "two"],
    "witness-ekl": ["witness-ekl", "m.json", "--bogus"],
}


def full_parser_bytes(argv) -> tuple:
    """(exit code, stdout, stderr) of ``main`` had it parsed ``argv`` with
    every verb's subparser built, for an argv whose parse ends in help or in
    a usage error."""
    try:
        finfree.cli._build_parser([]).parse_args(argv)
    except finfree.cli._Help as text:
        return 0, json.dumps({"help": str(text)}, sort_keys=True) + "\n", ""
    except finfree.cli._UsageError as exc:
        return 1, "", json.dumps({"error": "usage", "message": str(exc)}, sort_keys=True) + "\n"
    raise AssertionError(f"{argv} parses")


class TestOneVerbParser:
    """``main`` builds only the subparser of the verb its argv starts with;
    every help text and usage error is byte for byte what the parser with
    all verbs gives."""

    @pytest.mark.parametrize("verb", list(finfree.cli._VERBS))
    def test_only_the_named_verb_is_built(self, verb):
        parser = finfree.cli._build_parser([verb, "--help"])
        assert parser.format_usage() == f"usage: finfree [-h] {{{verb}}} ...\n"

    @pytest.mark.parametrize("verb", list(finfree.cli._VERBS))
    @pytest.mark.parametrize("form", ["help", "usage"])
    def test_verb_bytes_match_the_full_parser(self, capsys, verb, form):
        argv = [verb, "--help"] if form == "help" else USAGE_ERRORS[verb]
        assert run(capsys, *argv) == full_parser_bytes(argv)

    @pytest.mark.parametrize("argv", [["-h"], ["--help"], ["-h", "charpoly"], ["no-such-verb"]])
    def test_top_level_lists_every_verb(self, capsys, argv):
        code, out, err = run(capsys, *argv)
        assert (code, out, err) == full_parser_bytes(argv)
        text = json.loads(out)["help"] if code == 0 else json.loads(err)["message"]
        assert all(verb in text for verb in finfree.cli._VERBS)

    def test_no_verb(self, capsys):
        code, out, err = run(capsys)
        assert (code, out, err) == full_parser_bytes([])
        assert json.loads(err)["message"] == "the following arguments are required: verb"

    def test_top_level_help_is_the_docstring_without_its_import_rule(self, capsys):
        """The import-rule paragraph stays last in the ``cli`` docstring, and
        the top-level help shows the rest of it."""
        body, _, rule = finfree.cli.__doc__.rstrip().rpartition("\n\n")
        help_text = json.loads(run(capsys, "-h")[1])["help"]
        assert body in help_text and rule not in help_text
        assert "import" in rule and "dataclasses" in rule


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

        monkeypatch.setattr(finfree.polynomials, "factorial", refuse)
        monkeypatch.setattr(finfree.polynomials, "comb", refuse)
        code, out, err = run(capsys, "rank-bound", "--n", "1000000")
        assert (code, out) == (1, "")
        assert json.loads(err)["error"] == "size-guard"

    @pytest.mark.parametrize(
        "argv", [("moments", "A", "--k", "100000"), ("sum-moments", "A", "A", "--count", "100000")]
    )
    def test_moment_count_guard(self, capsys, write_json, monkeypatch, argv):
        moments = finfree.matrices._moments

        def first_two(f, d, n, count):
            # sum-moments takes each matrix's n = 2 moments before the requested count
            assert count <= 2, "the guard must refuse before the requested power sums"
            return moments(f, d, n, count)

        def refuse(*_):
            raise AssertionError("the guard must refuse before any power sum is computed")

        m = write_json("m.json", {"n": 2, "entries": [["1", "2"], ["3", "4"]]})
        monkeypatch.setattr(finfree.matrices, "_moments", first_two)
        monkeypatch.setattr(finfree.moments, "_moments", refuse)
        code, out, err = run(capsys, *(m if x == "A" else x for x in argv))
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

    @pytest.mark.parametrize("size", [True, 2.0, "2"])
    def test_declared_matrix_size_not_an_integer(self, capsys, write_json, size):
        entries = [["2"]] if size is True else [["1", "0"], ["0", "1"]]
        self.assert_parse_error(capsys, "charpoly", write_json("m.json", {"n": size, "entries": entries}))

    @pytest.mark.parametrize("size", [True, 2.0, "2"])
    def test_declared_degree_not_an_integer(self, capsys, write_json, size):
        coeffs = ["1", "-2"] if size is True else ["1", "0", "-1"]
        p = write_json("p.json", {"degree": size, "coeffs": coeffs})
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

    @pytest.mark.parametrize("n", ["0", "-2"])
    def test_verify_pair_n_below_one(self, capsys, n):
        self.assert_usage_error(
            capsys, "verify-pair", "--families", "diag,pb", "--kind", "additive",
            "--trials", "2", "--n", n, "--seed", "1",
        )

    def test_expect_mc_negative_seed(self, capsys, write_json):
        a = write_json("a.json", {"n": 2, "entries": [["1", "0"], ["0", "-1"]]})
        self.assert_usage_error(
            capsys, "expect", "--kind", "additive", "--mc", "--samples", "10", "--seed", "-1", a, a
        )

    @pytest.mark.parametrize("samples", ["0", "-3"])
    def test_expect_mc_samples_below_one(self, capsys, write_json, samples):
        a = write_json("a.json", {"n": 2, "entries": [["1", "0"], ["0", "-1"]]})
        self.assert_usage_error(
            capsys, "expect", "--kind", "additive", "--mc", "--samples", samples, "--seed", "1", a, a
        )

    def test_moments_k_below_one(self, capsys, write_json):
        m = write_json("m.json", GOLDEN_B)
        self.assert_usage_error(capsys, "moments", m, "--k", "0")

    def test_sum_moments_count_below_one(self, capsys, write_json):
        m = write_json("m.json", GOLDEN_B)
        self.assert_usage_error(capsys, "sum-moments", m, m, "--count", "0")

    @pytest.mark.parametrize("n", ["0", "-3"])
    def test_rank_bound_n_below_one(self, capsys, n):
        self.assert_usage_error(capsys, "rank-bound", "--n", n)


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


# the finfree submodules a cold run of each verb loads, with dataclasses and numpy;
# every verb loads these four
_BASE = {"cli", "errors", "polynomials", "scalars"}
_MATRIX = _BASE | {"kernel", "matrices"}
_FFP = _MATRIX | {"ffp", "dataclasses"}
IMPORT_BUDGET = {
    "charpoly": _MATRIX,
    "convolve": _BASE,
    "check-ffp": _FFP,
    "check-balanced": _MATRIX,
    "cycle-sums": _MATRIX,
    "expect": _FFP | {"signed_perms"},
    "expect --mc": _FFP | {"numpy"},
    "verify-pair": _FFP | {"families"},
    "moments": _MATRIX | {"moments"},
    "cumulants": _MATRIX | {"moments"},
    "sum-moments": _MATRIX | {"moments"},
    "rank-bound": _BASE,
    "witness-ekl": _FFP,
}


def test_import_budget_says_what_the_light_verbs_leave_out():
    heavy = {"families", "ffp", "dataclasses"}
    assert not heavy & (IMPORT_BUDGET["cycle-sums"] | IMPORT_BUDGET["rank-bound"])
    assert not any("dataclasses" in IMPORT_BUDGET[verb] for verb in ("moments", "cumulants", "sum-moments"))
    assert [verb for verb, modules in IMPORT_BUDGET.items() if "numpy" in modules] == ["expect --mc"]
    assert {verb.split()[0] for verb in IMPORT_BUDGET} == set(finfree.cli._VERBS)


def test_light_verbs_import_only_what_they_run(tmp_path):
    """Each verb, run cold in its own interpreter, loads exactly the finfree
    submodules of its row of ``IMPORT_BUDGET``, and ``dataclasses`` and
    numpy only where the row names them: only the exact ``expect`` loads
    ``signed_perms``, and only ``verify-pair`` loads ``families``."""
    files = {"m": EXAMPLE_PB, "a": GAUSSIAN_A, "b": GAUSSIAN_B, "p": GAUSSIAN_P, "q": GAUSSIAN_Q}
    for name, payload in files.items():
        (tmp_path / f"{name}.json").write_text(json.dumps(payload))
    m, a, b, p, q = (str(tmp_path / f"{name}.json") for name in "mabpq")
    runs = {
        "charpoly": ["charpoly", m],
        "convolve": ["convolve", "--kind", "multiplicative", p, q],
        "check-ffp": ["check-ffp", "--kind", "additive", a, b],
        "check-balanced": ["check-balanced", m],
        "cycle-sums": ["cycle-sums", m],
        "expect": ["expect", "--kind", "additive", a, b],
        "expect --mc": ["expect", "--mc", "--kind", "additive", "--samples", "10", "--seed", "0", a, b],
        "verify-pair": ["verify-pair", "--families", "diag,pb", "--kind", "additive", "--trials", "2",
                        "--n", "3", "--seed", "0"],
        "moments": ["moments", m],
        "cumulants": ["cumulants", m],
        "sum-moments": ["sum-moments", a, b],
        "rank-bound": ["rank-bound", "--n", "3"],
        "witness-ekl": ["witness-ekl", m],
    }
    script = (
        "import json, sys\n"
        "from finfree.cli import main\n"
        "code = main(json.loads(sys.argv[1]))\n"
        "loaded = [name.removeprefix('finfree.') for name in sys.modules\n"
        "          if name.startswith('finfree.') or name in ('dataclasses', 'numpy')]\n"
        "print(json.dumps([code, sorted(loaded)]))\n"
    )
    src = str(Path(__file__).resolve().parent.parent / "src")
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}
    assert set(runs) == set(IMPORT_BUDGET)
    for verb, argv in runs.items():
        result = subprocess.run(
            [sys.executable, "-c", script, json.dumps(argv)],
            capture_output=True, text=True, env=env, check=True,
        )
        code, loaded = json.loads(result.stdout.splitlines()[-1])
        assert code in (0, 2), verb
        assert set(loaded) == IMPORT_BUDGET[verb], verb
