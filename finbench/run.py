#!/usr/bin/env python3
"""finfree benchmark: one workload per run, every output checked exactly.

    python3 finbench/run.py --workload NAME [--seed N] [--seconds S] [--trace 0|1]

Workloads (see ``workloads.py``): ffp-dense, pair-sweep, signed-perm-expect,
cli-verbs. Each run builds nothing; it imports finfree from ``src/`` of the
checkout it sits in and fails (exit 1, no result) when that is missing.

``--trace 0`` runs whole cycles of operations until ``--seconds`` have passed
and reports the end-to-end metrics. ``--trace 1`` runs half the time without
tracing and half with the ``spans`` wrappers installed, then one cycle with
exact scalar-operation counts, and reports the per-layer metrics. Both print
a run record line and then, as the last line of stdout, one JSON object with
``correct``, ``attempted``, ``failed`` and ``metrics``. Records and spans are
also written under ``.bench_out/``.

Operation times are reported at a reference host speed. On a share of a busy
machine the speed of pure-Python code drifts by a fifth or more over tens of
seconds, much the same for all ``Fraction`` arithmetic. So before an
operation, once the last calibration is ``CALIBRATE_EVERY_S`` old, the loop
times fixed ``Fraction`` work that is not finfree code (``calibration_s``),
and each operation's latency is scaled by ``REF_CALIBRATION_S`` over the mean
of the calibrations just before and just after it. The run and its children
are pinned to one CPU, so a calibration times the CPU the operations run on.
``ops_per_s``, ``op_p50_ms``, ``op_p90_ms`` and ``cli.<verb>.p50_ms`` use the
scaled times; the raw ones are in the run record. ``setup_s``, the children's
``cli.spawn_ms`` / ``cli.import_ms`` and the span self times are not scaled.

At ``--seed 0`` the sha256 of the first cycle's canonical outputs must equal
the digest recorded in ``digests.json``; otherwise the run is not correct.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import random
import resource
import shutil
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass, field
from fractions import Fraction

import spans

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH_DIR)
SRC = os.path.join(ROOT, "src")
OUT_DIR = os.path.join(ROOT, ".bench_out")
DEFAULT_SEED = 0
SETUP_REPEATS = 3
PROBE_TIMEOUT_S = 120
CALIBRATE_EVERY_S = 0.25
# About one ``calibration_s`` reading on an unloaded core of a 2.1 GHz Xeon
# (CPython 3.11); it only sets the scale the times are reported in.
REF_CALIBRATION_S = 0.005
NAMES = ("ffp-dense", "pair-sweep", "signed-perm-expect", "cli-verbs")


@dataclass
class Loop:
    """What one timed loop saw."""

    ops: int = 0
    failed: int = 0
    elapsed_s: float = 0.0
    latencies_s: list = field(default_factory=list)
    scaled_s: list = field(default_factory=list)  # latencies at the reference speed
    calibrations_s: list = field(default_factory=list)
    labels: list = field(default_factory=list)
    first_cycle: list = field(default_factory=list)
    problems: list = field(default_factory=list)

    @property
    def ops_per_s(self) -> float:
        return (self.ops - self.failed) / sum(self.scaled_s)

    @property
    def digest(self) -> str:
        return hashlib.sha256(b"\n".join(self.first_cycle)).hexdigest()


def setup(name: str, seed: int, work_dir: str):
    """Import finfree from src/, generate the first cycle of inputs and warm
    up; return the elapsed seconds and the workload."""
    t0 = time.perf_counter()
    if not os.path.isfile(os.path.join(SRC, "finfree", "__init__.py")):
        raise SystemExit(f"finbench: no finfree sources under {SRC}")
    sys.path.insert(0, SRC)
    import finfree  # noqa: F401
    import workloads

    cls = workloads.WORKLOADS[name]
    if cls.in_process:
        wl = cls(seed)
    else:
        wl = cls(seed, ROOT, work_dir, os.path.join(BENCH_DIR, "cli_entry.py"))
    wl.warm_up()
    return time.perf_counter() - t0, wl


_rng = random.Random("calibration")
_BIG = [Fraction(_rng.getrandbits(120) - 2**119, _rng.getrandbits(120) | 1) for _ in range(40)]


def calibration_s() -> float:
    """Median time of three rounds of fixed pure-Python ``Fraction`` work,
    sums of small fractions and products of 120-bit ones, as finfree does:
    how fast the host runs this process right now."""
    times = []
    for _ in range(3):
        t0 = time.perf_counter()
        total = Fraction(0)
        for i in range(1, 1000):
            total += Fraction(i % 7 - 3, i % 11 + 1)
        for i in range(300):
            total = _BIG[i % 40] * _BIG[i * 7 % 40] + _BIG[i * 3 % 40] - _BIG[i * 5 % 40]
        times.append(time.perf_counter() - t0)
    return statistics.median(times)


def run_loop(wl, seconds: float, tracer=None) -> Loop:
    """Closed loop over whole cycles until ``seconds`` have passed. An
    operation that raises or fails its check counts as failed; its latency
    (the call alone, not the check) still counts. A calibration runs before
    an operation when the last one is ``CALIBRATE_EVERY_S`` old, and once
    after the loop, so that each operation lies between two of them.
    Throughput is passed operations per scaled second of call time over
    the whole loop."""
    loop = Loop()
    cal_index = []  # per operation: the calibration taken last before it
    start = time.perf_counter()
    last_cal = -CALIBRATE_EVERY_S
    i = 0
    while i == 0 or i % wl.cycle or time.perf_counter() - start < seconds:
        op = wl.op(i)
        if time.perf_counter() - last_cal >= CALIBRATE_EVERY_S:
            loop.calibrations_s.append(calibration_s())
            last_cal = time.perf_counter()
        cal_index.append(len(loop.calibrations_s) - 1)
        t0 = time.perf_counter()
        try:
            result, error = wl.run(op, tracer), None
        except Exception as exc:  # noqa: BLE001 - a failed operation is data
            result, error = None, exc
        loop.latencies_s.append(time.perf_counter() - t0)
        loop.labels.append(op["label"])
        if error is None:
            try:
                problems = wl.check(op, result)
            except Exception as exc:  # noqa: BLE001
                problems = [f"check raised {exc!r}"]
        else:
            problems = [f"raised {error!r}"]
        if problems:
            loop.failed += 1
            loop.problems.append(f"op {i} ({op['label']}): {problems[0]}")
        if i < wl.cycle:
            loop.first_cycle.append(b"" if problems else wl.output(op, result))
        i += 1
    loop.elapsed_s = time.perf_counter() - start
    loop.ops = i
    cals = loop.calibrations_s
    cals.append(calibration_s())
    loop.scaled_s = [
        t * REF_CALIBRATION_S * 2 / (cals[k] + cals[k + 1])
        for t, k in zip(loop.latencies_s, cal_index)
    ]
    return loop


def tail_percentile(samples: int, cycle: int) -> int:
    """90, or else the highest whole percentile with at least ten samples
    above it (never below the median) in a run of at most three cycles.

    Each workload repeats a fixed mix of operation kinds, so its tail is made
    of steps, one per kind. Runs of ``--seconds`` complete a varying number
    of cycles, three or more at the default length; counting at most three
    keeps runs a cycle longer or shorter on the same percentile and so on
    the same step."""
    if samples >= 100:
        return 90
    basis = min(samples, 3 * cycle)
    if basis <= 20:
        return 50
    return min(90, int(100 * (basis - 10) / basis))


def percentile_s(values: list, q: int) -> float:
    if len(values) < 2:
        return values[0]
    return statistics.quantiles(values, n=100, method="inclusive")[q - 1]


def setup_probe(name: str, seed: int) -> float:
    proc = subprocess.run(
        [sys.executable, os.path.abspath(__file__), "--workload", name, "--seed", str(seed),
         "--setup-only"],
        cwd=ROOT, capture_output=True, text=True, timeout=PROBE_TIMEOUT_S, check=True,
    )
    return json.loads(proc.stdout.splitlines()[-1])["setup_s"]


def end_to_end(loop: Loop, q: int, setups: list, peak_rss_kb: int) -> dict:
    return {
        "ops_per_s": (loop.ops_per_s, "1/s"),
        "op_p50_ms": (statistics.median(loop.scaled_s) * 1e3, "ms"),
        "op_p90_ms": (percentile_s(loop.scaled_s, q) * 1e3, "ms"),
        "ok_ratio": ((loop.ops - loop.failed) / loop.ops, "ratio"),
        "setup_s": (statistics.median(setups), "s"),
        "peak_rss_mb": (peak_rss_kb / 1024, "MB"),
    }


def per_layer(wl, base: Loop, traced: Loop, tracer, counter, counted_ops: int) -> dict:
    import workloads

    summary = tracer.summary()
    op_ns = sum(traced.latencies_s) * 1e9
    metrics = {}
    for name in spans.TRACED:
        row = summary.get(name, {"calls": 0, "self_ns": 0})
        metrics[f"{name}.calls_per_op"] = (row["calls"] / traced.ops, "calls/op")
        metrics[f"{name}.self_ms_per_op"] = (row["self_ns"] / 1e6 / traced.ops, "ms/op")
    char_poly_self = summary.get("matrices.char_poly", {"self_ns": 0})["self_ns"]
    metrics["matrices.char_poly.share"] = (char_poly_self / op_ns, "ratio")
    metrics["matrices.char_poly.max_coeff_bits"] = (counter.max_coeff_bits, "bits")
    metrics["scalars.ops_per_op"] = (sum(counter.ops.values()) / counted_ops, "ops/op")
    children = getattr(wl, "children", [])
    med = lambda xs: statistics.median(xs) if xs else 0.0  # noqa: E731
    metrics["cli.spawn_ms"] = (med([c["spawn_ns"] / 1e6 for c in children]), "ms")
    metrics["cli.import_ms"] = (med([c["import_ns"] / 1e6 for c in children]), "ms")
    for label in workloads.CliVerbs.LABELS:
        lat = [t * 1e3 for t, l in zip(base.scaled_s, base.labels) if l == label]
        metrics[f"cli.{label}.p50_ms"] = (med(lat), "ms")
    metrics["trace.ops_per_s_ratio"] = (traced.ops_per_s / base.ops_per_s, "ratio")
    return metrics


def git_sha():
    try:
        top = subprocess.run(["git", "rev-parse", "--show-toplevel", "HEAD"], cwd=ROOT,
                             capture_output=True, text=True, timeout=10)
    except (OSError, subprocess.SubprocessError):
        return None
    lines = top.stdout.split()
    if top.returncode or len(lines) != 2 or os.path.realpath(lines[0]) != os.path.realpath(ROOT):
        return None
    return lines[1]


def src_sha256() -> str:
    h = hashlib.sha256()
    pkg = os.path.join(SRC, "finfree")
    for name in sorted(os.listdir(pkg)):
        if name.endswith(".py"):
            with open(os.path.join(pkg, name), "rb") as handle:
                h.update(name.encode() + b"\0" + handle.read() + b"\0")
    return h.hexdigest()


def expected_digest(name: str, seed: int):
    if seed != DEFAULT_SEED:
        return None
    with open(os.path.join(BENCH_DIR, "digests.json"), encoding="utf-8") as handle:
        return json.load(handle)[name]


def measure(args, work_dir: str) -> tuple[dict, dict]:
    load_start = os.getloadavg()
    setup_s, wl = setup(args.workload, args.seed, work_dir)
    record = {}
    if not args.trace:
        loop = run_loop(wl, args.seconds)
        who = resource.RUSAGE_SELF if wl.in_process else resource.RUSAGE_CHILDREN
        peak_rss_kb = resource.getrusage(who).ru_maxrss
        setups = [setup_s] + [setup_probe(args.workload, args.seed) for _ in range(SETUP_REPEATS - 1)]
        q = tail_percentile(loop.ops, wl.cycle)
        metrics = end_to_end(loop, q, setups, peak_rss_kb)
        loops = [loop]
        record["setup_samples_s"] = setups
        record["op_p90_ms_percentile"] = q
        record["raw"] = {
            "ops_per_s": (loop.ops - loop.failed) / sum(loop.latencies_s),
            "op_p50_ms": statistics.median(loop.latencies_s) * 1e3,
            "op_p90_ms": percentile_s(loop.latencies_s, q) * 1e3,
        }
    else:
        loop = run_loop(wl, args.seconds / 2)
        tracer = spans.Tracer()
        undo = tracer.install()
        try:
            traced = run_loop(wl, args.seconds / 2, tracer)
        finally:
            spans.unpatch(undo)
        counter = spans.Counter()
        undo = counter.install()
        try:
            for i in range(wl.cycle):
                wl.count(wl.op(i), counter)
        finally:
            spans.unpatch(undo)
        metrics = per_layer(wl, loop, traced, tracer, counter, wl.cycle)
        loops = [loop, traced]
        record["scalar_ops"] = counter.ops
        record["traced_ops"] = traced.ops
        with open(os.path.join(OUT_DIR, f"spans-{args.workload}-seed{args.seed}.json"), "w",
                  encoding="utf-8") as handle:
            json.dump(tracer.to_json(), handle, separators=(",", ":"))

    import numpy

    expected = expected_digest(args.workload, args.seed)
    attempted = sum(lp.ops for lp in loops)
    failed = sum(lp.failed for lp in loops)
    record.update(
        workload=args.workload,
        seed=args.seed,
        seconds=args.seconds,
        trace=args.trace,
        git_sha=git_sha(),
        src_sha256=src_sha256(),
        python=platform.python_version(),
        numpy=numpy.__version__,
        nproc=os.cpu_count(),
        loadavg_start=load_start,
        loadavg_end=os.getloadavg(),
        samples=loop.ops,
        elapsed_s=loop.elapsed_s,
        calibrations=len(loop.calibrations_s),
        calibration_ms_median=statistics.median(loop.calibrations_s) * 1e3,
        failed_ratio=failed / attempted,
        digest=loop.digest,
        digest_expected=expected,
        problems=[p for lp in loops for p in lp.problems][:20],
    )
    result = {
        "correct": failed == 0 and expected in (None, loop.digest),
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }
    return record, result


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=NAMES)
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-only", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args()

    # One CPU for the loop, its calibrations and its children, so that each
    # calibration times the CPU the next operation runs on.
    if hasattr(os, "sched_setaffinity"):
        os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})
    os.makedirs(OUT_DIR, exist_ok=True)
    work_dir = os.path.join(OUT_DIR, f"work-{os.getpid()}")
    try:
        if args.setup_only:
            print(json.dumps({"setup_s": setup(args.workload, args.seed, work_dir)[0]}))
            return 0
        record, result = measure(args, work_dir)
    finally:
        shutil.rmtree(work_dir, ignore_errors=True)
    name = f"record-{args.workload}-seed{args.seed}-trace{args.trace}.json"
    with open(os.path.join(OUT_DIR, name), "w", encoding="utf-8") as handle:
        json.dump({"record": record, "result": result}, handle, indent=1)
    print(json.dumps({"record": record}))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
