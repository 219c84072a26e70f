"""Command-line front end.

Every verb reads Matrix / Polynomial JSON files, writes one JSON document to
standard output, and is bit-reproducible for a fixed seed. Exit codes:

    0  success
    1  input error (diagnostic JSON {"error": <code>, "message": ...} on stderr)
    2  check-ffp ran fine but the verdict is false (for shell pipelines)

All scalar values in emitted JSON are exact strings; only ``expect --mc``
emits decimal floats.
"""

from __future__ import annotations

import argparse
import json
import sys

from .errors import FinFreeError, ParseError
from .families import (
    FamilyId,
    cycle_sums,
    rank_upper_bound,
    verify_pair,
)
from .ffp import (
    ADDITIVE,
    MULTIPLICATIVE,
    check_ffp,
    ekl_witness,
    expected_charpoly_haar_mc,
    expected_charpoly_signed_perms,
)
from .matrices import Matrix, char_poly, minor_table
from .moments import (
    MomentVector,
    cumulants_of_matrix,
    ffp_sum_moments,
)
from .polynomials import Polynomial, boxplus, boxtimes
from .scalars import _int_str


class _UsageError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    def error(self, message):  # argparse would exit(2); keep the 0/1/2 contract
        raise _UsageError(message)


def _at_least(lowest: int):
    """argparse type: an int no smaller than ``lowest``."""

    def convert(text: str) -> int:
        try:
            value = int(text)
        except ValueError:
            raise argparse.ArgumentTypeError(f"invalid int value: {text!r}") from None
        if value < lowest:
            raise argparse.ArgumentTypeError(f"must be >= {lowest}, got {value}")
        return value

    return convert


def _emit(payload) -> None:
    sys.stdout.write(json.dumps(payload, sort_keys=True) + "\n")


def _fail(code: str, message: str) -> int:
    sys.stderr.write(json.dumps({"error": code, "message": message}, sort_keys=True) + "\n")
    return 1


def _load_json(path: str):
    try:
        with open(path, "r", encoding="utf-8") as handle:
            return json.load(handle)
    except json.JSONDecodeError as exc:
        raise ParseError(f"{path}: {exc}") from None
    except (RecursionError, MemoryError) as exc:  # nesting deeper than the decoder's stack
        raise ParseError(f"{path}: JSON too deeply nested or too large ({type(exc).__name__})") from None


def _load_matrix(path: str) -> Matrix:
    return Matrix.from_json(_load_json(path))


def _load_polynomial(path: str) -> Polynomial:
    return Polynomial.from_json(_load_json(path))


def _build_parser() -> _Parser:
    parser = _Parser(prog="finfree", description=__doc__)
    sub = parser.add_subparsers(dest="verb", required=True)

    p = sub.add_parser("charpoly", help="characteristic polynomial of a matrix")
    p.add_argument("matrix")

    p = sub.add_parser("convolve", help="finite free convolution of two polynomials")
    p.add_argument("--kind", choices=[ADDITIVE, MULTIPLICATIVE], required=True)
    p.add_argument("p")
    p.add_argument("q")

    p = sub.add_parser("check-ffp", help="finite free position verdict for a matrix pair")
    p.add_argument("--kind", choices=[ADDITIVE, MULTIPLICATIVE], required=True)
    p.add_argument("a")
    p.add_argument("b")

    p = sub.add_parser("check-balanced", help="principally balanced membership with minor values")
    p.add_argument("matrix")

    p = sub.add_parser("cycle-sums", help="cycle sums of every index subset")
    p.add_argument("matrix")

    p = sub.add_parser("expect", help="expected characteristic polynomial over conjugations")
    p.add_argument("--kind", choices=[ADDITIVE, MULTIPLICATIVE], required=True)
    p.add_argument("--mc", action="store_true", help="Monte-Carlo over Haar unitaries")
    p.add_argument("--samples", type=int)
    p.add_argument("--seed", type=_at_least(0))
    p.add_argument("--tolerance", type=float)
    p.add_argument("a")
    p.add_argument("b")

    p = sub.add_parser("verify-pair", help="sample a complementary family pair and check FFP")
    p.add_argument("--families", required=True, help="comma-separated pair, e.g. diag,pb")
    p.add_argument("--kind", choices=[ADDITIVE, MULTIPLICATIVE], required=True)
    p.add_argument("--trials", type=_at_least(1), default=100)
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--bound", type=_at_least(1), default=10)

    p = sub.add_parser("moments", help="normalized trace moments of a matrix")
    p.add_argument("matrix")
    p.add_argument("--k", type=_at_least(1), help="how many moments (default: the dimension)")

    p = sub.add_parser("cumulants", help="finite free cumulants of a matrix")
    p.add_argument("matrix")

    p = sub.add_parser("sum-moments", help="moments of A+B via the convolution pipeline")
    p.add_argument("a")
    p.add_argument("b")
    p.add_argument("--count", type=_at_least(1))

    p = sub.add_parser("rank-bound", help="upper bound for the rank of a finite free variety")
    p.add_argument("--n", type=int, required=True)

    p = sub.add_parser("witness-ekl", help="unit-matrix witness for a non-diagonal matrix")
    p.add_argument("matrix")

    return parser


def _run(args) -> int:
    if args.verb == "charpoly":
        _emit(char_poly(_load_matrix(args.matrix)).to_json())
    elif args.verb == "convolve":
        op = boxplus if args.kind == ADDITIVE else boxtimes
        _emit(op(_load_polynomial(args.p), _load_polynomial(args.q)).to_json())
    elif args.verb == "check-ffp":
        report = check_ffp(_load_matrix(args.a), _load_matrix(args.b), args.kind)
        _emit(report.to_json())
        return 0 if report.verdict else 2
    elif args.verb == "check-balanced":
        m = _load_matrix(args.matrix)
        table = minor_table(m)
        distinct = {}
        for k in range(1, m.n + 1):
            seen = []
            for value in table.values(k):
                if value not in seen:
                    seen.append(value)
            distinct[str(k)] = [str(v) for v in seen]
        _emit(
            {
                "balanced": all(len(values) == 1 for values in distinct.values()),
                "minor_values": distinct,
                "n": m.n,
            }
        )
    elif args.verb == "cycle-sums":
        _emit(cycle_sums(_load_matrix(args.matrix)).to_json())
    elif args.verb == "expect":
        a, b = _load_matrix(args.a), _load_matrix(args.b)
        if args.mc:
            if args.samples is None or args.seed is None:
                raise _UsageError("expect --mc requires --samples and --seed")
            result = expected_charpoly_haar_mc(
                a, b, args.kind, args.samples, args.seed, args.tolerance
            )
            _emit(result.to_json())
        else:
            averaged = expected_charpoly_signed_perms(a, b, args.kind)
            op = boxplus if args.kind == ADDITIVE else boxtimes
            exact = op(char_poly(a), char_poly(b))
            _emit(
                {
                    "kind": args.kind,
                    "average": averaged.to_json(),
                    "convolution": exact.to_json(),
                    "equal": averaged == exact,
                }
            )
    elif args.verb == "verify-pair":
        tags = args.families.split(",")
        if len(tags) != 2:
            raise _UsageError("--families wants exactly two comma-separated tags")
        report = verify_pair(
            FamilyId.parse(tags[0]),
            FamilyId.parse(tags[1]),
            args.kind,
            args.trials,
            args.seed,
            args.n,
            args.bound,
        )
        _emit(report.to_json())
    elif args.verb == "moments":
        m = _load_matrix(args.matrix)
        _emit(MomentVector.of_matrix(m, args.k).to_json())
    elif args.verb == "cumulants":
        _emit(cumulants_of_matrix(_load_matrix(args.matrix)).to_json())
    elif args.verb == "sum-moments":
        a, b = _load_matrix(args.a), _load_matrix(args.b)
        if a.n != b.n:
            raise ParseError(f"dimension mismatch: {a.n} vs {b.n}")
        result = ffp_sum_moments(
            MomentVector.of_matrix(a), MomentVector.of_matrix(b), args.count
        )
        _emit(result.to_json())
    elif args.verb == "rank-bound":
        _emit({"n": args.n, "rank_bound": _int_str(rank_upper_bound(args.n))})
    elif args.verb == "witness-ekl":
        witness = ekl_witness(_load_matrix(args.matrix))
        if witness is None:
            _emit({"found": False})
        else:
            k, l, report = witness
            _emit({"found": True, "k": k, "l": l, "report": report.to_json()})
    return 0


def main(argv=None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
        return _run(args)
    except _UsageError as exc:
        return _fail("usage", str(exc))
    except FinFreeError as exc:
        return _fail(exc.code, str(exc))
    except OSError as exc:
        return _fail("io-error", str(exc))


if __name__ == "__main__":
    sys.exit(main())
