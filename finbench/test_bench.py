"""Self-check of the benchmark: planted wrong results must count as failed.

    python3 -m pytest finbench/test_bench.py
"""

import dataclasses
import os
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, os.path.join(os.path.dirname(HERE), "src"))
sys.path.insert(0, HERE)

import run  # noqa: E402
import workloads  # noqa: E402
from finfree.polynomials import Polynomial  # noqa: E402


def test_planted_wrong_result_counts_as_failed():
    clean = run.run_loop(workloads.PairSweep(seed=3), seconds=0)
    assert (clean.ops, clean.failed) == (workloads.PairSweep.cycle, 0)

    wl = workloads.PairSweep(seed=3)
    planted = wl.op(5)
    real_call = wl.call

    def call(op):
        report = real_call(op)
        if op is planted:
            return dataclasses.replace(report, failures=[object()])
        return report

    wl.call = call
    loop = run.run_loop(wl, seconds=0)
    assert (loop.ops, loop.failed) == (wl.cycle, 1)
    assert loop.problems[0].startswith("op 5 ")
    assert loop.digest != clean.digest


def test_ffp_dense_check_catches_wrong_coefficients():
    wl = workloads.FfpDense(seed=0)
    op = wl.op(0)
    report = wl.call(op)
    assert wl.check(op, report) == []
    coeffs = list(report.lhs.coeffs)
    coeffs[-1] = coeffs[-1] + 1
    assert wl.check(op, dataclasses.replace(report, lhs=Polynomial(coeffs)))
    assert wl.check(op, dataclasses.replace(report, verdict=not report.verdict))


def test_signed_perm_check_catches_wrong_average():
    wl = workloads.SignedPermExpect(seed=0)
    op = wl.op(3)
    average = wl.call(op)
    assert wl.check(op, average) == []
    wrong = Polynomial(list(average.coeffs[:-1]) + [average.coeffs[-1] + 1])
    assert wl.check(op, wrong)


def test_cli_check_catches_wrong_exit_code_and_stderr():
    check = workloads.CliVerbs.check
    ffp_op = {"label": "check-ffp"}
    false_verdict = b'{"verdict": false}\n'
    assert check(None, ffp_op, {"rc": 2, "stdout": false_verdict, "stderr": b""}) == []
    assert check(None, ffp_op, {"rc": 0, "stdout": false_verdict, "stderr": b""})
    assert check(None, ffp_op, {"rc": 2, "stdout": false_verdict, "stderr": b"warning"})
    expect_op = {"label": "expect"}
    assert check(None, expect_op, {"rc": 0, "stdout": b'{"equal": false}\n', "stderr": b""})
    assert check(None, expect_op, {"rc": 0, "stdout": b"{}\n{}\n", "stderr": b""})
