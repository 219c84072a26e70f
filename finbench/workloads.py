"""The four benchmark workloads.

Every workload is a closed loop with one caller. Operation ``i`` draws its
inputs from its own ``random.Random`` seeded with the workload name, the run
seed and ``i``, so the same seed gives the same operations however many of
them a run completes. Matrices are built from ``Fraction`` entries; the
samplers in ``finfree.families`` are never used to make inputs.

Each workload defines:

- ``cycle``: the number of operations after which its mix of sizes and kinds
  repeats. Runs stop only at a cycle boundary, so every run measures the same
  mix, and the outputs of the first cycle feed the output digest;
- ``call``: the timed call into finfree;
- ``check``: exact checks of one result, returning a list of problems;
- ``output``: the canonical bytes of one result, for the digest.

Calls go through module attributes (``ffp.is_additive_ffp``), so the
wrappers that ``spans`` installs for a traced run take effect.
"""

from __future__ import annotations

import json
import os
import random
import subprocess
import sys
import time
from fractions import Fraction

from finfree import families, ffp, matrices, moments, polynomials
from finfree.families import FamilyId
from finfree.matrices import Matrix
from finfree.polynomials import Polynomial
from finfree.scalars import GaussianRational

ADD, MUL = "additive", "multiplicative"
PAIRS = (("diag", "pb"), ("ut", "ut-const"), ("lt", "lt-const"), ("scalar", "all"))
CHILD_TIMEOUT_S = 150


def frac(rng: random.Random) -> Fraction:
    """p/q with |p| <= 10 and 1 <= q <= 10."""
    return Fraction(rng.randint(-10, 10), rng.randint(1, 10))


def dense(rng: random.Random, n: int, gaussian: bool = False) -> Matrix:
    if gaussian:
        return Matrix([[GaussianRational(frac(rng), frac(rng)) for _ in range(n)] for _ in range(n)])
    return Matrix([[frac(rng) for _ in range(n)] for _ in range(n)])


def symmetric(rng: random.Random, n: int) -> Matrix:
    rows = [[Fraction(0)] * n for _ in range(n)]
    for i in range(n):
        for j in range(i, n):
            rows[i][j] = rows[j][i] = frac(rng)
    return Matrix(rows)


def monic(rng: random.Random, degree: int) -> Polynomial:
    return Polynomial([1] + [frac(rng) for _ in range(degree)])


def canonical(obj) -> bytes:
    return json.dumps(obj, sort_keys=True, separators=(",", ":")).encode()


def warm_up() -> None:
    """One small call along each path the workloads take; the 6x6 cumulant
    call fills the ``partitions`` caches up to the largest order in use."""
    rng = random.Random("warm-up")
    a, b = dense(rng, 3), dense(rng, 3, gaussian=True)
    ffp.is_additive_ffp(a, b)
    ffp.is_multiplicative_ffp(a, b)
    ffp.expected_charpoly_signed_perms(symmetric(rng, 2), symmetric(rng, 2), ADD)
    families.verify_pair(FamilyId.DIAGONAL, FamilyId.PRINCIPALLY_BALANCED, ADD, 1, 0, 2)
    moments.cumulants_of_matrix(dense(rng, 6))


class Workload:
    name = ""
    cycle = 1
    in_process = True

    def __init__(self, seed: int):
        self.seed = seed
        self._first = [self.make_op(i) for i in range(self.cycle)]

    def op(self, i: int) -> dict:
        return self._first[i] if i < self.cycle else self.make_op(i)

    def rng(self, i: int) -> random.Random:
        return random.Random(f"{self.name}:{self.seed}:{i}")

    def warm_up(self) -> None:
        warm_up()

    def run(self, op: dict, tracer=None):
        if tracer is None:
            return self.call(op)
        with tracer.root():
            return self.call(op)

    def count(self, op: dict, counter):
        with counter.counting():
            return self.call(op)

    def make_op(self, i: int) -> dict:
        raise NotImplementedError

    def call(self, op: dict):
        raise NotImplementedError

    def check(self, op: dict, result) -> list[str]:
        raise NotImplementedError

    def output(self, op: dict, result) -> bytes:
        return canonical(result.to_json())


class FfpDense(Workload):
    """One FFP verdict on a fresh pair of dense matrices: kinds alternate, n
    cycles through 8, 10, 12 and every fourth pair is Gaussian. Nearly all
    the time is ``char_poly`` with coefficients past 100 bits; it bypasses
    families, moments, partitions and cli."""

    name = "ffp-dense"
    cycle = 12
    SIZES = (8, 10, 12)

    def make_op(self, i):
        rng = self.rng(i)
        n, kind, gaussian = self.SIZES[i % 3], (ADD, MUL)[i % 2], i % 4 == 3
        a, b = dense(rng, n, gaussian), dense(rng, n, gaussian)
        return {"label": f"{kind}-n{n}{'-gaussian' if gaussian else ''}", "kind": kind, "a": a, "b": b}

    def call(self, op):
        check = ffp.is_additive_ffp if op["kind"] == ADD else ffp.is_multiplicative_ffp
        return check(op["a"], op["b"])

    def check(self, op, report):
        a, b = op["a"].rows, op["b"].rows
        n = len(a)
        if op["kind"] == ADD:
            s = [[x + y for x, y in zip(ra, rb)] for ra, rb in zip(a, b)]
        else:
            s = [[_sum(a[i][k] * b[k][j] for k in range(n)) for j in range(n)] for i in range(n)]
        problems = []
        lhs = report.lhs.coeffs
        if report.kind != op["kind"] or len(lhs) != n + 1:
            return [f"report kind {report.kind} / degree {len(lhs) - 1} does not match the input"]
        if lhs[1] != -_sum(s[i][i] for i in range(n)):
            problems.append("lhs coefficient 1 is not minus the trace")
        # elimination, a different algorithm from the trace recurrence
        if lhs[n] != Matrix(s).det() * (-1) ** n:
            problems.append("lhs coefficient n is not (-1)^n det")
        if report.verdict != (not report.residuals):
            problems.append("verdict disagrees with the residuals")
        return problems


def _sum(values) -> GaussianRational:
    total = GaussianRational(0)
    for v in values:
        total = total + v
    return total


class PairSweep(Workload):
    """One ``verify_pair`` call with a few trials, cycling over the four
    supported pairs x both kinds x n in {3, 4, 5}. Time spreads over the
    samplers, principally-balanced membership (a ``det`` per index subset),
    boundary-probe searches and many small ``char_poly`` calls."""

    name = "pair-sweep"
    cycle = 24
    TRIALS = 4

    def make_op(self, i):
        f, g = PAIRS[i % 4]
        kind, n = (ADD, MUL)[(i // 4) % 2], 3 + (i // 8) % 3
        return {
            "label": f"{f},{g}-{kind}-n{n}",
            "families": (FamilyId.parse(f), FamilyId.parse(g)),
            "kind": kind,
            "n": n,
            "seed": self.rng(i).randrange(2**31),
        }

    def call(self, op):
        f, g = op["families"]
        return families.verify_pair(f, g, op["kind"], self.TRIALS, op["seed"], op["n"])

    def check(self, op, report):
        problems = []
        if report.trials != self.TRIALS or not report.all_passed:
            problems.append(f"{len(report.failures)} of {report.trials} trials failed")
        if not report.boundary_checks:
            problems.append("no boundary checks")
        if any(c.report.verdict for c in report.boundary_checks):
            problems.append("a boundary check did not fail")
        return problems


class SignedPermExpect(Workload):
    """One exact signed-permutation average on a fresh real symmetric pair:
    n = 4 (384 conjugates) with every fourth pair at n = 3, kinds alternating.
    Thousands of tiny ``char_poly`` calls plus a 384-term ``average``; it
    bypasses families and moments."""

    name = "signed-perm-expect"
    cycle = 4

    def make_op(self, i):
        rng = self.rng(i)
        n, kind = (3 if i % 4 == 3 else 4), (ADD, MUL)[i % 2]
        return {"label": f"{kind}-n{n}", "kind": kind, "a": symmetric(rng, n), "b": symmetric(rng, n)}

    def call(self, op):
        return ffp.expected_charpoly_signed_perms(op["a"], op["b"], op["kind"])

    def check(self, op, average):
        conv = polynomials.boxplus if op["kind"] == ADD else polynomials.boxtimes
        expected = conv(matrices.char_poly(op["a"]), matrices.char_poly(op["b"]))
        return [] if average == expected else ["average differs from the convolution"]


class CliVerbs(Workload):
    """One cold ``python -m finfree.cli <verb>`` per operation on generated
    JSON files, cycling through every verb (``expect`` exact and ``--mc``).
    At most one child runs at a time. Each call pays interpreter start-up,
    the import of finfree and numpy, and cold partition caches; it is the
    only workload that runs cli, moments, partitions and cycle sums."""

    name = "cli-verbs"
    in_process = False
    LABELS = (
        "charpoly",
        "convolve",
        "check-ffp",
        "check-balanced",
        "cycle-sums",
        "expect",
        "expect-mc",
        "verify-pair",
        "moments",
        "cumulants",
        "sum-moments",
        "rank-bound",
        "witness-ekl",
    )
    cycle = len(LABELS)

    def __init__(self, seed: int, root: str, work_dir: str, entry: str):
        self.root, self.work_dir, self.entry = root, work_dir, entry
        self.env = dict(os.environ, PYTHONPATH=os.path.join(root, "src"))
        self.children: list[dict] = []  # spawn and import times of traced children
        os.makedirs(work_dir, exist_ok=True)
        super().__init__(seed)

    def _write(self, i: int, tag: str, obj) -> str:
        path = os.path.join(self.work_dir, f"op{i}-{tag}.json")
        with open(path, "w", encoding="utf-8") as handle:
            json.dump(obj.to_json(), handle)
        return os.path.relpath(path, self.root)

    def make_op(self, i):
        rng = self.rng(i)
        label = self.LABELS[i % self.cycle]
        turn = i // self.cycle
        kind = (ADD, MUL)[turn % 2]
        w = lambda tag, obj: self._write(i, tag, obj)  # noqa: E731
        if label == "charpoly":
            argv = ["charpoly", w("m", dense(rng, 10))]
        elif label == "convolve":
            argv = ["convolve", "--kind", kind, w("p", monic(rng, 10)), w("q", monic(rng, 10))]
        elif label == "check-ffp":
            argv = ["check-ffp", "--kind", kind, w("a", dense(rng, 10)), w("b", dense(rng, 10))]
        elif label == "check-balanced":
            argv = ["check-balanced", w("m", dense(rng, 7))]
        elif label == "cycle-sums":
            argv = ["cycle-sums", w("m", dense(rng, 8))]
        elif label in ("expect", "expect-mc"):
            argv = ["expect", "--kind", kind, w("a", symmetric(rng, 3)), w("b", symmetric(rng, 3))]
            if label == "expect-mc":
                argv[3:3] = ["--mc", "--samples", "20000", "--seed", str(rng.randrange(2**31))]
        elif label == "verify-pair":
            argv = ["verify-pair", "--families", ",".join(PAIRS[turn % 4]), "--kind", kind,
                    "--trials", "4", "--n", "4", "--seed", str(rng.randrange(2**31))]
        elif label == "moments":
            argv = ["moments", w("m", dense(rng, 8))]
        elif label == "cumulants":
            argv = ["cumulants", w("m", dense(rng, 6))]
        elif label == "sum-moments":
            argv = ["sum-moments", w("a", dense(rng, 6)), w("b", dense(rng, 6))]
        elif label == "rank-bound":
            argv = ["rank-bound", "--n", str(rng.randint(8, 12))]
        else:
            argv = ["witness-ekl", w("m", dense(rng, 8))]
        return {"label": label, "argv": argv}

    def warm_up(self) -> None:
        super().warm_up()
        self._spawn([sys.executable, "-m", "finfree.cli", "rank-bound", "--n", "2"])

    def _spawn(self, cmd: list[str]) -> dict:
        proc = subprocess.run(
            cmd, cwd=self.root, env=self.env, capture_output=True, timeout=CHILD_TIMEOUT_S
        )
        return {"rc": proc.returncode, "stdout": proc.stdout, "stderr": proc.stderr}

    def _spawn_entry(self, mode: str, op: dict) -> tuple[dict, dict, int]:
        """Run the benchmark's own CLI entry point; return the result, what it
        wrote, and the monotonic stamp taken just before the spawn."""
        out = os.path.join(self.work_dir, f"{mode}.json")
        stamp = time.monotonic_ns()
        result = self._spawn([sys.executable, self.entry, mode, out, *op["argv"]])
        with open(out, encoding="utf-8") as handle:
            written = json.load(handle)
        os.remove(out)
        return result, written, stamp

    def run(self, op, tracer=None):
        if tracer is None:
            return self._spawn([sys.executable, "-m", "finfree.cli", *op["argv"]])
        result, written, stamp = self._spawn_entry("trace", op)
        tracer.merge(written["spans"])
        self.children.append(
            {"spawn_ns": written["start_ns"] - stamp, "import_ns": written["import_ns"]}
        )
        return result

    def count(self, op, counter):
        result, written, _ = self._spawn_entry("count", op)
        counter.merge(written["counts"])
        return result

    def check(self, op, result):
        problems = []
        if result["stderr"]:
            problems.append(f"stderr not empty: {result['stderr'][:200]!r}")
        out = result["stdout"]
        try:
            doc = json.loads(out)
        except ValueError:
            return problems + ["stdout is not one JSON document"]
        if out.count(b"\n") != 1 or not out.endswith(b"\n"):
            problems.append("stdout is not one line")
        expected_rc = 0
        if op["label"] == "check-ffp" and doc.get("verdict") is False:
            expected_rc = 2
        if result["rc"] != expected_rc:
            problems.append(f"exit code {result['rc']}, expected {expected_rc}")
        if op["label"] == "expect" and doc.get("equal") is not True:
            problems.append("expect: the average is not equal to the convolution")
        return problems

    def output(self, op, result):
        return result["stdout"]


WORKLOADS = {w.name: w for w in (FfpDense, PairSweep, SignedPermExpect, CliVerbs)}
