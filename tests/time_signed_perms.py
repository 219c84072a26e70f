"""In-process timings of the exact signed-permutation means at n = 4, 5 and 6.

No benchmark workload runs a mean past n = 4, and none runs a Gaussian one,
so this script times what they leave out: both kinds, real and Gaussian,
each on one fixed-seed dense pair of p/q entries, |p|, q <= 10, with every
entry of a Gaussian pair complex. Each line gives the time of the first
call, which builds the tables of that n and kind when the real pair comes
first, then the median, lowest and highest of ``--repeats`` calls after it,
and the process's peak RSS so far. Every mean must equal the convolution
(boxplus or boxtimes) of the two chis, or the script stops with an error.
The pytest suite does not collect it (its name does not start with
``test_``). It needs the standard library and the ``finfree`` next to it
alone:

    python tests/time_signed_perms.py [--repeats R] [--sizes 4 5 6]

To compare two trees, run the script from each in turn, alternating.
"""

import argparse
import random
import resource
import statistics
import sys
import time
from fractions import Fraction
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "src"))

from finfree import (  # noqa: E402
    ADDITIVE,
    MULTIPLICATIVE,
    GaussianRational,
    Matrix,
    boxplus,
    boxtimes,
    char_poly,
    expected_charpoly_signed_perms,
)


def dense_pair(n: int, gaussian: bool):
    rng = random.Random(f"time-{n}-{gaussian}")

    def part():
        return Fraction(rng.choice((1, -1)) * rng.randint(1, 10), rng.randint(1, 10))

    def entry():
        return GaussianRational(part(), part() if gaussian else 0)

    return tuple(Matrix([[entry() for _ in range(n)] for _ in range(n)]) for _ in "ab")


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--repeats", type=int, default=9)
    parser.add_argument("--sizes", type=int, nargs="+", default=[4, 5, 6])
    args = parser.parse_args()
    for n in args.sizes:
        for gaussian in (False, True):
            a, b = dense_pair(n, gaussian)
            for kind in (ADDITIVE, MULTIPLICATIVE):
                convolution = (boxplus if kind == ADDITIVE else boxtimes)(char_poly(a), char_poly(b))
                times = []
                for _ in range(1 + args.repeats):
                    start = time.perf_counter()
                    mean = expected_charpoly_signed_perms(a, b, kind)
                    times.append((time.perf_counter() - start) * 1e3)
                    if mean != convolution:
                        sys.exit(f"n={n} {kind}: the mean is not the convolution of the two chis")
                first, times = times[0], times[1:]
                entries = "gaussian" if gaussian else "real"
                peak_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
                print(f"n={n} {entries:8} {kind:14} first {first:9.2f} ms, median {statistics.median(times):9.2f} ms"
                      f"  (min {min(times):.2f}, max {max(times):.2f}, {args.repeats} runs), peak RSS {peak_mb:.1f} MB",
                      flush=True)


if __name__ == "__main__":
    main()
