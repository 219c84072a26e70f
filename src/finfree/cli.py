"""Command-line front end.

Every verb reads Matrix / Polynomial JSON files, writes one JSON document to
standard output, and is bit-reproducible for a fixed seed. Exit codes:

    0  success
    1  input error (diagnostic JSON {"error": <code>, "message": ...} on stderr)
    2  check-ffp ran fine but the verdict is false (for shell pipelines)

All scalar values in emitted JSON are exact strings; only ``expect --mc``
emits decimal floats. ``-h`` and ``--help``, top-level or after a verb, print
{"help": <usage text>} and exit 0.

A verb imports and builds only what it runs: ``polynomials`` (the kind
names, the convolutions and the rank bound) at module level, anything else
on that verb's branch of ``_run``, after parsing, and the subparser of that
verb alone (``_build_parser``). ``charpoly``, ``convolve``,
``check-balanced``, ``cycle-sums`` and ``rank-bound`` start without
``families``, ``ffp``, ``moments`` or ``dataclasses``; ``moments``,
``cumulants`` and ``sum-moments`` without ``families``, ``ffp`` or
``dataclasses``. This paragraph stays last: the top-level help is the rest.
"""

from __future__ import annotations

import argparse
import json
import math
import sys

from .errors import FinFreeError, ParseError
from .polynomials import ADDITIVE, MULTIPLICATIVE, Polynomial, boxplus, boxtimes, rank_upper_bound
from .scalars import _int_str, _json


class _UsageError(Exception):
    pass


class _Help(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    def error(self, message):  # argparse would exit(2); keep the 0/1/2 contract
        raise _UsageError(message)

    def print_help(self, file=None):  # -h would print text and exit(0); emit JSON instead
        raise _Help(self.format_help())


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


def _tolerance(text: str) -> float:
    """argparse type: a finite float >= 0."""
    try:
        value = float(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"invalid float value: {text!r}") from None
    if not 0 <= value < math.inf:
        raise argparse.ArgumentTypeError(f"must be finite and >= 0, got {text!r}")
    return value


def _fail(code: str, message: str) -> int:
    sys.stderr.write(json.dumps({"error": code, "message": message}, sort_keys=True) + "\n")
    return 1


def _load_json(path: str):
    try:
        with open(path, "r", encoding="utf-8") as handle:
            return json.load(handle)
    except (json.JSONDecodeError, UnicodeDecodeError) as exc:  # not JSON, or not UTF-8 text
        raise ParseError(f"{path}: {exc}") from None
    except (RecursionError, MemoryError) as exc:  # nesting deeper than the decoder's stack
        raise ParseError(f"{path}: JSON too deeply nested or too large ({type(exc).__name__})") from None


def _load_matrix(path: str):
    from .matrices import Matrix

    return Matrix.from_json(_load_json(path))


def _load_polynomial(path: str) -> Polynomial:
    return Polynomial.from_json(_load_json(path))


_KIND = {"choices": [ADDITIVE, MULTIPLICATIVE], "required": True}

# verb -> (its help line, its arguments: each one ``add_argument``'s name and keywords)
_VERBS = {
    "charpoly": ("characteristic polynomial of a matrix", [("matrix", {})]),
    "convolve": (
        "finite free convolution of two polynomials",
        [("--kind", _KIND), ("p", {}), ("q", {})],
    ),
    "check-ffp": (
        "finite free position verdict for a matrix pair",
        [("--kind", _KIND), ("a", {}), ("b", {})],
    ),
    "check-balanced": ("principally balanced membership with minor values", [("matrix", {})]),
    "cycle-sums": ("cycle sums of every index subset", [("matrix", {})]),
    "expect": (
        "expected characteristic polynomial over conjugations",
        [
            ("--kind", _KIND),
            ("--mc", {"action": "store_true", "help": "Monte-Carlo over Haar unitaries"}),
            ("--samples", {"type": _at_least(1)}),
            ("--seed", {"type": _at_least(0)}),
            ("--tolerance", {"type": _tolerance}),
            ("a", {}),
            ("b", {}),
        ],
    ),
    "verify-pair": (
        "sample a complementary family pair and check FFP",
        [
            ("--families", {"required": True, "help": "comma-separated pair, e.g. diag,pb"}),
            ("--kind", _KIND),
            ("--trials", {"type": _at_least(1), "default": 100}),
            ("--n", {"type": _at_least(1), "required": True}),
            ("--seed", {"type": int, "required": True}),
            ("--bound", {"type": _at_least(1), "default": 10}),
        ],
    ),
    "moments": (
        "normalized trace moments of a matrix",
        [("matrix", {}), ("--k", {"type": _at_least(1), "help": "how many moments (default: the dimension)"})],
    ),
    "cumulants": ("finite free cumulants of a matrix", [("matrix", {})]),
    "sum-moments": (
        "moments of A+B via the convolution pipeline",
        [("a", {}), ("b", {}), ("--count", {"type": _at_least(1)})],
    ),
    "rank-bound": (
        "upper bound for the rank of a finite free variety",
        [("--n", {"type": _at_least(1), "required": True})],
    ),
    "witness-ekl": ("unit-matrix witness for a non-diagonal matrix", [("matrix", {})]),
}


def _build_parser(argv) -> _Parser:
    """The parser for ``argv``: with only the subparser of the verb that
    ``argv`` starts with, or with every verb's when it starts with none (no
    argument, ``-h`` or an unknown verb), so the top-level help and the
    invalid-choice message still list them all. A verb's own help and
    errors never read the other verbs' subparsers, so its bytes are the same
    either way."""
    # the docstring as written, without its last paragraph (the import rule)
    parser = _Parser(
        prog="finfree",
        description=(__doc__ or "").rstrip().rpartition("\n\n")[0],
        formatter_class=argparse.RawDescriptionHelpFormatter,
    )
    sub = parser.add_subparsers(dest="verb", required=True)
    verbs = argv[:1] if argv and argv[0] in _VERBS else _VERBS
    for verb in verbs:
        line, arguments = _VERBS[verb]
        p = sub.add_parser(verb, help=line)
        for name, options in arguments:
            p.add_argument(name, **options)
    return parser


def _run(args):
    """The verb's result: a record, a polynomial, or a dict of those and JSON values."""
    if args.verb == "charpoly":
        from .matrices import char_poly

        return char_poly(_load_matrix(args.matrix))
    if args.verb == "convolve":
        op = boxplus if args.kind == ADDITIVE else boxtimes
        return op(_load_polynomial(args.p), _load_polynomial(args.q))
    if args.verb == "check-ffp":
        from .ffp import check_ffp

        return check_ffp(_load_matrix(args.a), _load_matrix(args.b), args.kind)
    if args.verb == "check-balanced":
        from .matrices import minor_table

        m = _load_matrix(args.matrix)
        table = minor_table(m)
        # each order's distinct values, in the order they first appear
        distinct = {k: list(dict.fromkeys(v for _, v in table[k])) for k in range(1, m.n + 1)}
        return {
            "balanced": all(len(values) == 1 for values in distinct.values()),
            "minor_values": distinct,
            "n": m.n,
        }
    if args.verb == "cycle-sums":
        from .matrices import cycle_sums

        return cycle_sums(_load_matrix(args.matrix))
    if args.verb == "expect":
        a, b = _load_matrix(args.a), _load_matrix(args.b)
        if args.mc:
            if args.samples is None or args.seed is None:
                raise _UsageError("expect --mc requires --samples and --seed")
            from .ffp import expected_charpoly_haar_mc

            return expected_charpoly_haar_mc(a, b, args.kind, args.samples, args.seed, args.tolerance)
        for flag in ("samples", "seed", "tolerance"):
            if getattr(args, flag) is not None:
                raise _UsageError(f"expect --{flag} requires --mc")
        from .ffp import expected_charpoly_signed_perms
        from .matrices import char_poly

        averaged = expected_charpoly_signed_perms(a, b, args.kind)
        op = boxplus if args.kind == ADDITIVE else boxtimes
        exact = op(char_poly(a), char_poly(b))
        return {"kind": args.kind, "average": averaged, "convolution": exact, "equal": averaged == exact}
    if args.verb == "verify-pair":
        from .families import FamilyId, verify_pair

        tags = args.families.split(",")
        if len(tags) != 2:
            raise _UsageError("--families wants exactly two comma-separated tags")
        return verify_pair(
            FamilyId.parse(tags[0]),
            FamilyId.parse(tags[1]),
            args.kind,
            args.trials,
            args.seed,
            args.n,
            args.bound,
        )
    if args.verb == "moments":
        from .moments import MomentVector

        return MomentVector.of_matrix(_load_matrix(args.matrix), args.k)
    if args.verb == "cumulants":
        from .moments import cumulants_of_matrix

        return cumulants_of_matrix(_load_matrix(args.matrix))
    if args.verb == "sum-moments":
        from .moments import MomentVector, ffp_sum_moments

        a, b = _load_matrix(args.a), _load_matrix(args.b)
        a._require_same_size(b)
        return ffp_sum_moments(MomentVector.of_matrix(a), MomentVector.of_matrix(b), args.count)
    if args.verb == "rank-bound":
        return {"n": args.n, "rank_bound": _int_str(rank_upper_bound(args.n))}
    # witness-ekl
    from .ffp import ekl_witness

    witness = ekl_witness(_load_matrix(args.matrix))
    if witness is None:
        return {"found": False}
    k, l, report = witness
    return {"found": True, "k": k, "l": l, "report": report}


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else list(argv)
    parser = _build_parser(argv)
    try:
        args = parser.parse_args(argv)
        result = _run(args)
    except _Help as text:
        result = {"help": str(text)}
    except _UsageError as exc:
        return _fail("usage", str(exc))
    except FinFreeError as exc:
        return _fail(exc.code, str(exc))
    except OSError as exc:
        return _fail("io-error", str(exc))
    sys.stdout.write(json.dumps(_json(result), sort_keys=True) + "\n")
    # only check-ffp's report has a verdict; a false one exits 2, for shell pipelines
    return 0 if getattr(result, "verdict", True) else 2


if __name__ == "__main__":
    sys.exit(main())
