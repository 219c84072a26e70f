"""Benchmark-owned entry point for traced and counting CLI children.

    python3 finbench/cli_entry.py {trace|count} OUT.json <verb> [args...]

Imports ``finfree.cli`` from ``src/``, installs the same wrappers as an
in-process run, calls ``finfree.cli.main`` on the remaining arguments inside
one root span, and writes to OUT.json the interpreter start stamp
(``time.monotonic_ns``, comparable with the parent's), the import time of
``finfree.cli`` and the spans or counts. Stdout, stderr and the exit code are
those of ``main``.
"""

import time

START_NS = time.monotonic_ns()

import json  # noqa: E402
import os  # noqa: E402
import sys  # noqa: E402


def main() -> int:
    mode, out, argv = sys.argv[1], sys.argv[2], sys.argv[3:]
    sys.path.insert(0, os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src"))
    t0 = time.perf_counter_ns()
    import finfree.cli

    import_ns = time.perf_counter_ns() - t0
    import spans

    record = {"start_ns": START_NS, "import_ns": import_ns}
    if mode == "trace":
        tracer = spans.Tracer()
        tracer.install()
        with tracer.root():
            rc = finfree.cli.main(argv)
        record["spans"] = tracer.to_json()
    else:
        counter = spans.Counter()
        counter.install()
        with counter.counting():
            rc = finfree.cli.main(argv)
        record["counts"] = counter.to_json()
    with open(out, "w", encoding="utf-8") as handle:
        json.dump(record, handle)
    return rc


if __name__ == "__main__":
    sys.exit(main())
