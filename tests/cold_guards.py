"""Every size guard of ``finfree.errors.GUARDS``, run cold through the command
line at its limit and one past it.

A row's probe writes its inputs for a value n, the limit or one past it, and
returns the calls that reach the guard at n, each with a check of its output
or None. At the limit every call must exit 0 and print one JSON line that its
check accepts; one past it every call must exit 1 with a ``size-guard`` error
on stderr. A row without a probe, or a probe that names no row, fails the run.
Every call is a new interpreter, as a user runs it. From the repository root:

    PYTHONPATH=src python3 tests/cold_guards.py

It takes about a minute. Tier-1 does not collect this file, and
``test_guards.py`` checks that its probes name every row.
"""

import json
import os
import random
import subprocess
import sys
import tempfile
import time
from pathlib import Path

import finfree
from finfree import Matrix, Polynomial, as_scalar, char_poly
from finfree.errors import GUARDS
from helpers import signed_perm_mean_per_conjugate

KINDS = ("additive", "multiplicative")
SRC = str(Path(finfree.__file__).resolve().parents[1])


def entry(rng, gaussian) -> str:
    """p/q, |p|, q <= 10, plus (r/s)i, r != 0, when Gaussian."""
    re = f"{rng.randint(-10, 10)}/{rng.randint(1, 10)}"
    return f"{re}{rng.choice('+-')}{rng.randint(1, 10)}/{rng.randint(1, 10)}*i" if gaussian else re


def write(tmp, name, payload) -> str:
    path = tmp / f"{name}.json"
    path.write_text(json.dumps(payload))
    return str(path)


def matrices(tmp, row, n, names="a"):
    """(files, matrices): one dense n x n matrix per name, real and then Gaussian."""
    rng = random.Random(f"{row}-{n}")
    for gaussian in (False, True):
        ms = [Matrix([[as_scalar(entry(rng, gaussian)) for _ in range(n)] for _ in range(n)])
              for _ in names]
        yield [write(tmp, f"{name}-{gaussian}", m.to_json()) for name, m in zip(names, ms)], ms


def chi(n, tmp):
    # verify-pair's trial draws are triangular; its boundary search meets a dense matrix
    pair = ["verify-pair", "--families", "ut,ut-const", "--kind", "additive", "--trials", "1",
            "--n", str(n), "--seed", "0"]
    return [(["charpoly", a], None) for (a,), _ in matrices(tmp, "chi", n)] + [
        (pair, lambda out: out["n"] == n and out["failures"] == [])]


def convolution(n, tmp):
    rng = random.Random(f"convolution-{n}")
    calls = []
    for gaussian in (False, True):
        coeffs = [["1", *(entry(rng, gaussian) for _ in range(n))] for _ in "pq"]
        p, q = (write(tmp, f"{s}-{gaussian}", {"degree": n, "coeffs": c}) for s, c in zip("pq", coeffs))
        calls += [(["convolve", "--kind", kind, p, q], None) for kind in KINDS]
    # the chis of two diagonal p/q matrices, whose coefficients' denominators run far
    # past the matrices' own scale; expect --mc reaches the guard through boxplus
    a, b = (Matrix.diagonal([as_scalar(entry(rng, False)) for _ in range(n)]) for _ in "ab")
    chis = [write(tmp, f"chi-{s}", char_poly(m).to_json()) for s, m in zip("ab", (a, b))]
    pair = [write(tmp, f"diagonal-{s}", m.to_json()) for s, m in zip("ab", (a, b))]

    def traces_add(out):
        # coefficient 1 of the additive convolution is that of chi_A plus that of chi_B
        return as_scalar(out["coeffs"][1]) == -(a.trace() + b.trace())

    return calls + [
        (["convolve", "--kind", "additive", *chis], traces_add),
        (["expect", "--mc", "--samples", "1", "--seed", "0", "--kind", "additive", *pair],
         lambda out: out["samples"] == 1 and len(out["coeffs"]) == n + 1),
    ]


def minors(n, tmp):
    # a Gaussian skew-symmetric matrix, zero on the diagonal: its odd orders' minors are all 0
    rng = random.Random(f"skew-{n}")
    upper = Matrix([[as_scalar(entry(rng, True)) if i < j else 0 for j in range(n)] for i in range(n)])
    skew = write(tmp, "skew", (upper - upper.transpose()).to_json())

    def odd_orders_zero(out):
        return all(out["minor_values"][str(k)] == ["0"] for k in range(1, n + 1, 2))

    return [(["check-balanced", a], None) for (a,), _ in matrices(tmp, "minors", n)] + [
        (["check-balanced", skew], odd_orders_zero)]


def moments(n, tmp):
    def n_values(out):
        return len(out["values"]) == n

    calls = []
    for (a,), _ in matrices(tmp, "moments", 8):
        calls += [(["moments", a, "--k", str(n)], n_values),
                  (["sum-moments", a, a, "--count", str(n)], n_values)]
    return calls


def signed_perms(n, tmp):
    def mean(a, b, kind):
        # the mean is the convolution, and the mean of one chi per conjugate over all of S_n
        def check(out):
            average = Polynomial.from_json(out["average"])
            return out["equal"] and average == signed_perm_mean_per_conjugate(a, b, kind)
        return check

    calls = []
    for files, (a, b) in matrices(tmp, "signed-perms", n, "ab"):
        assert a != a.transpose() and b != b.transpose(), "a symmetric input"
        calls += [(["expect", "--kind", kind, *files], mean(a, b, kind)) for kind in KINDS]
    return calls


def cycle_sums(n, tmp):
    return [(["cycle-sums", a], None) for (a,), _ in matrices(tmp, "cycle-sums", n)]


def rank_bound(n, tmp):
    return [(["rank-bound", "--n", str(n)], lambda out: out["n"] == n)]


def exponent(n, tmp):
    # chi of the 1 x 1 matrix [z] is x - z
    calls = []
    for z in (f"1e{n}", f"1e-{n}*i"):
        a = write(tmp, f"exponent-{len(calls)}", {"n": 1, "entries": [[z]]})
        calls.append((["charpoly", a], lambda out, z=z: as_scalar(out["coeffs"][1]) == -as_scalar(z)))
    return calls


def monte_carlo(n, tmp):
    # on 3 x 3 input the cost samples * max(3, 3)^2 reaches n with the fewest samples that do
    samples = -(-n // 9)
    argv = ["expect", "--mc", "--samples", str(samples), "--seed", "1"]
    return [([*argv, "--kind", kind, *files], lambda out: out["samples"] == samples)
            for files, _ in matrices(tmp, "monte-carlo", 3, "ab") for kind in KINDS]


PROBES = {
    "chi": chi,
    "convolution": convolution,
    "minors": minors,
    "moments": moments,
    "signed-perms": signed_perms,
    "cycle-sums": cycle_sums,
    "rank-bound": rank_bound,
    "exponent": exponent,
    "monte-carlo": monte_carlo,
}


def passes(argv, at_limit, check) -> bool:
    """Whether a cold ``finfree`` call keeps the guard's contract."""
    run = subprocess.run([sys.executable, "-m", "finfree.cli", *argv], capture_output=True,
                         text=True, env={**os.environ, "PYTHONPATH": SRC}, timeout=600)
    try:
        if not at_limit:
            error = json.loads(run.stderr)["error"]
            return run.returncode == 1 and run.stdout == "" and error == "size-guard"
        one_line = run.stdout.endswith("\n") and run.stdout.count("\n") == 1
        out = json.loads(run.stdout)
        return run.returncode == 0 and run.stderr == "" and one_line and (check is None or check(out))
    except (ValueError, KeyError, TypeError):
        return False


def main() -> int:
    if set(PROBES) != set(GUARDS):
        print(f"rows without a probe: {sorted(set(GUARDS) - set(PROBES))};"
              f" probes without a row: {sorted(set(PROBES) - set(GUARDS))}")
        return 1
    failures = 0
    with tempfile.TemporaryDirectory() as directory:
        for name, (limit, _) in GUARDS.items():
            start = time.perf_counter()
            for n in (limit, limit + 1):
                for argv, check in PROBES[name](n, Path(directory)):
                    if not passes(argv, n == limit, check):
                        failures += 1
                        print(f"FAILED {name} at {n}: finfree {' '.join(argv)}")
            print(f"{name}: at {limit} and one past it, {time.perf_counter() - start:.1f} s")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
