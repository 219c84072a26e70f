"""Matrix families and complementary-pair verification.

The families: diagonal, scalar, upper/lower triangular (optionally with
constant diagonal), principally balanced (all principal minors of each
order share one value), and the full matrix space. Three family pairs are
complementary for both convolutions:

    (diagonal, principally balanced)
    (upper triangular, upper triangular with constant diagonal)   [and lower]
    (scalar, everything)

``verify_pair`` samples pairs and checks finite free position exactly, and
exercises maximality with finite witnesses: a sampled matrix outside the
second family must fail against a parametric diagonal probe D(lambda, K),
and one outside the first family must fail against a unit-matrix witness.
"""

from __future__ import annotations

import enum
import itertools
import math
import random
from dataclasses import dataclass, field
from fractions import Fraction
from math import comb, factorial
from typing import Optional

from .errors import IndexRangeError, ParseError, SizeGuardError, UnsupportedPairError
from .ffp import ADDITIVE, FfpReport, check_ffp
from .matrices import Matrix, _cycle_sums, _minors_balanced
from .polynomials import Polynomial
from .scalars import ONE, GaussianRational, as_scalar

# the subset DP takes about 0.11 s for a dense rational 12x12 and 0.32 s for a
# Gaussian one (Python 3.11, 2-vCPU Xeon VM); each step of n doubles it
CYCLE_SUM_LIMIT = 12
# the sum of n factorial-binomial products takes about 0.22 s at n = 1600, 0.44 s
# at 2000 and 1.7 s at 3200 (Python 3.11, 2-vCPU Xeon VM); each doubling costs ~7x
RANK_BOUND_LIMIT = 2000
PROBE_MAGNITUDES = (10, 100)


class FamilyId(enum.Enum):
    DIAGONAL = "diag"
    SCALAR = "scalar"
    UPPER_TRIANGULAR = "ut"
    LOWER_TRIANGULAR = "lt"
    UPPER_TRIANGULAR_CONST_DIAG = "ut-const"
    LOWER_TRIANGULAR_CONST_DIAG = "lt-const"
    PRINCIPALLY_BALANCED = "pb"
    ALL = "all"

    @classmethod
    def parse(cls, tag: str) -> "FamilyId":
        for member in cls:
            if member.value == tag:
                return member
        raise ParseError(f"unknown family tag {tag!r}")


def is_member(a: Matrix, family: FamilyId) -> bool:
    """Exact structural membership test, on the integer form of A."""
    n = a.n
    if family is FamilyId.ALL:
        return True
    if family is FamilyId.DIAGONAL:
        return _vanishes(a, ((i, j) for i in range(n) for j in range(n) if i != j))
    if family is FamilyId.SCALAR:
        return is_member(a, FamilyId.DIAGONAL) and _constant_diagonal(a)
    if family is FamilyId.UPPER_TRIANGULAR:
        return _vanishes(a, ((i, j) for i in range(n) for j in range(i)))
    if family is FamilyId.LOWER_TRIANGULAR:
        return _vanishes(a, ((i, j) for i in range(n) for j in range(i + 1, n)))
    if family is FamilyId.UPPER_TRIANGULAR_CONST_DIAG:
        return is_member(a, FamilyId.UPPER_TRIANGULAR) and _constant_diagonal(a)
    if family is FamilyId.LOWER_TRIANGULAR_CONST_DIAG:
        return is_member(a, FamilyId.LOWER_TRIANGULAR) and _constant_diagonal(a)
    if family is FamilyId.PRINCIPALLY_BALANCED:
        return _minors_balanced(a)
    raise ParseError(f"unknown family {family}")


def _vanishes(a: Matrix, cells) -> bool:
    """Every entry (i, j) in ``cells`` (0-based) is zero."""
    parts = [x for x in a._m if x is not None]
    return all(not x[i][j] for i, j in cells for x in parts)


def _constant_diagonal(a: Matrix) -> bool:
    return all(x[i][i] == x[0][0] for x in a._m if x is not None for i in range(a.n))


# -- cycle sums -------------------------------------------------------------


@dataclass(frozen=True)
class CycleSums:
    """Cycle sums c_I grouped by |I|, with the order-wise constancy flag.

    c_I sums, over all cycles visiting exactly the index set I and anchored
    at min I, the products of matrix entries along the cycle. Orderwise
    constancy of cycle sums characterizes principally balanced matrices.
    """

    n: int
    by_order: dict
    balanced: bool

    def values(self, k: int) -> list[GaussianRational]:
        return [v for _, v in self.by_order[k]]

    def to_json(self) -> dict:
        return {
            "n": self.n,
            "balanced": self.balanced,
            "orders": {
                str(k): [{"indices": list(idx), "sum": str(v)} for idx, v in entries]
                for k, entries in self.by_order.items()
            },
        }

    @classmethod
    def from_json(cls, obj) -> "CycleSums":
        try:
            by_order = {
                int(k): [
                    (tuple(e["indices"]), GaussianRational.parse(e["sum"])) for e in entries
                ]
                for k, entries in obj["orders"].items()
            }
            return cls(obj["n"], by_order, obj["balanced"])
        except (TypeError, KeyError) as exc:
            raise ParseError(f"bad cycle-sum JSON: {exc}") from None


def cycle_sums(a: Matrix) -> CycleSums:
    """Cycle sums of every non-empty index subset, grouped by order.

    All 2^n - 1 sums come from one subset dynamic programme (Held-Karp
    style) over the integer form of A: for each anchor s it extends the
    paths that start at s through every set of larger indices, one vertex
    at a time, and closes each path back to s. That is O(2^n n^2) products,
    where enumerating every cycle costs sum_k C(n,k) (k-1)! k. Within an
    order, index sets come in lexicographic order and are 1-based.
    """
    n = a.n
    if n > CYCLE_SUM_LIMIT:
        raise SizeGuardError(f"cycle-sum enumeration refused for n={n} > {CYCLE_SUM_LIMIT}")
    by_order = _cycle_sums(a)
    balanced = all(
        all(v == entries[0][1] for _, v in entries[1:]) for entries in by_order.values()
    )
    return CycleSums(n, by_order, balanced)


# -- samplers ---------------------------------------------------------------


def _as_rng(seed_or_rng) -> random.Random:
    if isinstance(seed_or_rng, random.Random):
        return seed_or_rng
    return random.Random(seed_or_rng)


def rand_fraction(rng: random.Random, bound: int = 10) -> Fraction:
    """p/q with p uniform in [-bound, bound] and q uniform in [1, bound]."""
    return Fraction(rng.randint(-bound, bound), rng.randint(1, bound))


def rand_nonzero_fraction(rng: random.Random, bound: int = 10) -> Fraction:
    while True:
        value = rand_fraction(rng, bound)
        if value:
            return value


def random_matrix(rng: random.Random, n: int, bound: int = 10) -> Matrix:
    return Matrix([[rand_fraction(rng, bound) for _ in range(n)] for _ in range(n)])


def sample_member(
    family: FamilyId, n: int, seed_or_rng, bound: int = 10
) -> Matrix:
    """Draw a random member of the family; membership is re-verified."""
    rng = _as_rng(seed_or_rng)
    m = _construct_member(family, n, rng, bound)
    if not is_member(m, family):
        raise RuntimeError(f"sampler produced a matrix outside {family}")
    return m


def _construct_member(family: FamilyId, n: int, rng: random.Random, bound: int) -> Matrix:
    if family is FamilyId.ALL:
        return random_matrix(rng, n, bound)
    if family is FamilyId.SCALAR:
        return Matrix.identity(n).scale(rand_fraction(rng, bound))
    if family is FamilyId.DIAGONAL:
        return Matrix.diagonal([rand_fraction(rng, bound) for _ in range(n)])
    if family is FamilyId.UPPER_TRIANGULAR:
        return Matrix(
            [[rand_fraction(rng, bound) if j >= i else 0 for j in range(n)] for i in range(n)]
        )
    if family is FamilyId.LOWER_TRIANGULAR:
        return _construct_member(FamilyId.UPPER_TRIANGULAR, n, rng, bound).transpose()
    if family is FamilyId.UPPER_TRIANGULAR_CONST_DIAG:
        c = rand_fraction(rng, bound)
        return Matrix(
            [
                [c if j == i else (rand_fraction(rng, bound) if j > i else 0) for j in range(n)]
                for i in range(n)
            ]
        )
    if family is FamilyId.LOWER_TRIANGULAR_CONST_DIAG:
        return _construct_member(
            FamilyId.UPPER_TRIANGULAR_CONST_DIAG, n, rng, bound
        ).transpose()
    if family is FamilyId.PRINCIPALLY_BALANCED:
        return _construct_balanced(n, rng, bound)
    raise ParseError(f"unknown family {family}")


def _construct_balanced(n: int, rng: random.Random, bound: int) -> Matrix:
    """Three constructions that land in the principally balanced family:
    (a) triangular constant diagonal conjugated by a permutation and an
    invertible diagonal (the family is invariant under both), (b) a rank-one
    matrix u v^T with constant diagonal, (c) either plus a scalar matrix.
    """
    choice = rng.choice(("conjugated-triangular", "rank-one", "plus-scalar"))
    if choice == "rank-one":
        return _rank_one_balanced(n, rng, bound)
    if choice == "conjugated-triangular":
        return _conjugated_triangular_balanced(n, rng, bound)
    base = rng.choice((_rank_one_balanced, _conjugated_triangular_balanced))(n, rng, bound)
    return base + Matrix.identity(n).scale(rand_fraction(rng, bound))


def _rank_one_balanced(n: int, rng: random.Random, bound: int) -> Matrix:
    """diag(u) (c J) diag(u)^{-1}, J the all-ones matrix: entry (i, j) is
    u_i c / u_j."""
    u = [rand_nonzero_fraction(rng, bound) for _ in range(n)]
    c = rand_fraction(rng, bound)
    return _diagonal_similarity(c.denominator, [[c.numerator] * n] * n, None, u, range(n))


def _conjugated_triangular_balanced(n: int, rng: random.Random, bound: int) -> Matrix:
    """C T C^{-1} for T upper triangular with constant diagonal and the
    conjugator C = P diag(u), P the permutation matrix with P[i][perm[i]] = 1:
    entry (i, k) is u[p_i] T[p_i][p_k] / u[p_k], p = perm, with no products
    and no inverse."""
    t = _construct_member(FamilyId.UPPER_TRIANGULAR_CONST_DIAG, n, rng, bound)
    u = [rand_nonzero_fraction(rng, bound) for _ in range(n)]
    perm = list(range(n))
    rng.shuffle(perm)
    return _diagonal_similarity(t._d, *t._m, u, perm)


def _diagonal_similarity(d: int, re, im, u, perm) -> Matrix:
    """The matrix with entry (i, k) = u[p_i] T[p_i][p_k] / u[p_k], p = perm,
    for T = (re + i*im) / d and nonzero Fractions u. With v = L u for L the
    lcm of u's denominators and V the lcm of the |v_j|, that entry is
    v[p_i] T[p_i][p_k] (V / v[p_k]) / (d V) with integer numerator."""
    lcd = math.lcm(*(x.denominator for x in u))
    v = [x.numerator * (lcd // x.denominator) for x in u]
    span = math.lcm(*v)
    cols = [(pk, span // v[pk]) for pk in perm]

    def similar(x):
        return [[v[pi] * x[pi][pk] * f for pk, f in cols] for pi in perm]

    return Matrix._from_form(d * span, similar(re), None if im is None else similar(im))


# -- complementary-pair verification ----------------------------------------

SUPPORTED_PAIRS = (
    (FamilyId.DIAGONAL, FamilyId.PRINCIPALLY_BALANCED),
    (FamilyId.UPPER_TRIANGULAR, FamilyId.UPPER_TRIANGULAR_CONST_DIAG),
    (FamilyId.LOWER_TRIANGULAR, FamilyId.LOWER_TRIANGULAR_CONST_DIAG),
    (FamilyId.SCALAR, FamilyId.ALL),
)


@dataclass(frozen=True)
class BoundaryCheck:
    """A matrix outside one family together with a partner inside the other
    family against which finite free position fails."""

    label: str
    outsider: Matrix
    partner: Matrix
    report: FfpReport

    def to_json(self) -> dict:
        return {
            "label": self.label,
            "outsider": self.outsider.to_json(),
            "partner": self.partner.to_json(),
            "report": self.report.to_json(),
        }

    @classmethod
    def from_json(cls, obj) -> "BoundaryCheck":
        return cls(
            obj["label"],
            Matrix.from_json(obj["outsider"]),
            Matrix.from_json(obj["partner"]),
            FfpReport.from_json(obj["report"]),
        )


@dataclass(frozen=True)
class TrialFailure:
    a: Matrix
    b: Matrix
    report: FfpReport

    def to_json(self) -> dict:
        return {"a": self.a.to_json(), "b": self.b.to_json(), "report": self.report.to_json()}

    @classmethod
    def from_json(cls, obj) -> "TrialFailure":
        return cls(
            Matrix.from_json(obj["a"]),
            Matrix.from_json(obj["b"]),
            FfpReport.from_json(obj["report"]),
        )


@dataclass(frozen=True)
class PairCheckReport:
    families: tuple
    kind: str
    trials: int
    n: int
    seed: int
    failures: list = field(default_factory=list)
    boundary_checks: list = field(default_factory=list)

    @property
    def all_passed(self) -> bool:
        return not self.failures

    def to_json(self) -> dict:
        return {
            "families": [f.value for f in self.families],
            "kind": self.kind,
            "trials": self.trials,
            "n": self.n,
            "seed": self.seed,
            "failures": [f.to_json() for f in self.failures],
            "boundary_checks": [c.to_json() for c in self.boundary_checks],
        }

    @classmethod
    def from_json(cls, obj) -> "PairCheckReport":
        try:
            return cls(
                tuple(FamilyId.parse(tag) for tag in obj["families"]),
                obj["kind"],
                obj["trials"],
                obj["n"],
                obj["seed"],
                [TrialFailure.from_json(f) for f in obj["failures"]],
                [BoundaryCheck.from_json(c) for c in obj["boundary_checks"]],
            )
        except (TypeError, KeyError) as exc:
            raise ParseError(f"bad pair-check report JSON: {exc}") from None


def verify_pair(
    f: FamilyId,
    g: FamilyId,
    kind: str,
    trials: int,
    seed: int,
    n: int,
    bound: int = 10,
) -> PairCheckReport:
    """Sample ``trials`` pairs from (f, g) and check finite free position
    exactly for each; failures are collected and expected to be empty for
    the supported complementary pairs. Per-trial seeds are seed + index, so
    trials are independent and order-insensitive.
    """
    pair = _normalize_pair(f, g)
    failures = []
    for t in range(trials):
        rng = random.Random(seed + t)
        a = sample_member(pair[0], n, rng, bound)
        b = sample_member(pair[1], n, rng, bound)
        report = check_ffp(a, b, kind)
        if not report.verdict:
            failures.append(TrialFailure(a, b, report))
    boundary = [] if n == 1 else _boundary_checks(pair, kind, n, random.Random(seed + trials), bound)
    return PairCheckReport(pair, kind, trials, n, seed, failures, boundary)


def _normalize_pair(f: FamilyId, g: FamilyId):
    if (f, g) in SUPPORTED_PAIRS:
        return (f, g)
    if (g, f) in SUPPORTED_PAIRS:
        return (g, f)
    raise UnsupportedPairError(
        f"({f.value}, {g.value}) is not one of the supported complementary pairs"
    )


def diagonal_probe(n: int, subset, magnitude, kind: str) -> Matrix:
    """D(lambda, K): lambda on the diagonal inside K; off K the diagonal is
    0 for the additive probe and 1 for the multiplicative probe."""
    off = 0 if kind == ADDITIVE else 1
    inside = set(subset)
    return Matrix.diagonal([magnitude if i in inside else off for i in range(n)])


def _find_diagonal_probe_failure(outsider: Matrix, kind: str) -> Optional[tuple[Matrix, FfpReport]]:
    n = outsider.n
    for size in range(1, n):
        for subset in itertools.combinations(range(n), size):
            for magnitude in PROBE_MAGNITUDES:
                probe = diagonal_probe(n, subset, magnitude, kind)
                report = check_ffp(probe, outsider, kind)
                if not report.verdict:
                    return probe, report
    return None


def _find_unit_witness(outsider: Matrix, kind: str, region) -> Optional[tuple[Matrix, FfpReport]]:
    """First unit matrix E_{kl} (from a nonzero entry a_{lk} with (l, k) in
    the escape region) against which the outsider fails."""
    n = outsider.n
    for l in range(1, n + 1):
        for k in range(1, n + 1):
            if l != k and region(l, k) and outsider.entry(l, k):
                witness = Matrix.unit(n, k, l)
                report = check_ffp(outsider, witness, kind)
                if not report.verdict:
                    return witness, report
    return None


def _boundary_checks(pair, kind: str, n: int, rng: random.Random, bound: int) -> list:
    f, g = pair
    checks = []

    def record(label, outsider, found):
        if found is None:
            raise LookupError(f"no failing witness found for {label}; sampler or probe bug")
        partner, report = found
        checks.append(BoundaryCheck(label, outsider, partner, report))

    if f is FamilyId.SCALAR:
        # escape from the scalar family: any non-scalar matrix must fail
        # against some matrix; diagonal non-scalar needs the probe route
        outsider = _sample_outside_scalar(rng, n, bound)
        if is_member(outsider, FamilyId.DIAGONAL):
            record("non-scalar-vs-diagonal-probe", outsider, _find_diagonal_probe_failure(outsider, kind))
        else:
            record(
                "non-scalar-vs-unit-witness",
                outsider,
                _find_unit_witness(outsider, kind, lambda l, k: True),
            )
        return checks

    # escape from g (the balanced-type family) fails against a diagonal probe
    outsider_g = _sample_outside_second_family(g, rng, n, bound)
    record(f"non-{g.value}-vs-diagonal-probe", outsider_g, _find_diagonal_probe_failure(outsider_g, kind))

    # escape from f (the structural family) fails against a unit witness in g
    region = {
        FamilyId.DIAGONAL: lambda l, k: True,
        FamilyId.UPPER_TRIANGULAR: lambda l, k: l > k,
        FamilyId.LOWER_TRIANGULAR: lambda l, k: l < k,
    }[f]
    outsider_f = _sample_outside_first_family(f, rng, n, bound)
    record(f"non-{f.value}-vs-unit-witness", outsider_f, _find_unit_witness(outsider_f, kind, region))
    return checks


def _sample_outside_scalar(rng: random.Random, n: int, bound: int) -> Matrix:
    if rng.random() < 0.5:
        values = [rand_fraction(rng, bound) for _ in range(n)]
        if all(v == values[0] for v in values):
            values[0] = values[0] + 1
        return Matrix.diagonal(values)
    m = random_matrix(rng, n, bound)
    if is_member(m, FamilyId.SCALAR):
        m = m + Matrix.unit(n, 1, 2)
    return m


def _sample_outside_second_family(g: FamilyId, rng: random.Random, n: int, bound: int) -> Matrix:
    if g is FamilyId.PRINCIPALLY_BALANCED:
        for _ in range(100):
            m = random_matrix(rng, n, bound)
            if not is_member(m, FamilyId.PRINCIPALLY_BALANCED):
                return m
        raise LookupError("could not sample a non-balanced matrix")
    base_family = (
        FamilyId.UPPER_TRIANGULAR
        if g is FamilyId.UPPER_TRIANGULAR_CONST_DIAG
        else FamilyId.LOWER_TRIANGULAR
    )
    m = _construct_member(base_family, n, rng, bound)
    if is_member(m, g):  # constant diagonal: break it
        m = m + Matrix.unit(n, 1, 1)
    return m


def _sample_outside_first_family(f: FamilyId, rng: random.Random, n: int, bound: int) -> Matrix:
    """A random matrix with a 1 put in at (0, 1) ((1, 0) for upper triangular
    f) when that entry is zero."""
    m = random_matrix(rng, n, bound)
    i, j = (1, 0) if f is FamilyId.UPPER_TRIANGULAR else (0, 1)
    if _vanishes(m, [(i, j)]):
        m = m + Matrix.unit(n, i + 1, j + 1)
    return m


# -- assorted formulas -------------------------------------------------------


def rank_upper_bound(n: int) -> int:
    """Upper bound sum_{k=1}^{n-1} k! C(n,k)^2 on the rank of a finite free
    variety; the empty sum at n=1 gives 0."""
    if n < 1:
        raise IndexRangeError(f"need n >= 1, got {n}")
    if n > RANK_BOUND_LIMIT:
        raise SizeGuardError(f"rank bound refused for n={n} > {RANK_BOUND_LIMIT}")
    return sum(factorial(k) * comb(n, k) ** 2 for k in range(1, n))


def pb_charpoly_from_minors(minors) -> Polynomial:
    """Characteristic polynomial of a principally balanced matrix from its
    per-order minor values m_0..m_n: sum (-1)^i C(n,i) m_i x^(n-i)."""
    values = [as_scalar(m) for m in minors]
    if not values or values[0] != ONE:
        raise ParseError("minor profile must start with m_0 = 1")
    n = len(values) - 1
    return Polynomial(values[i] * ((-1) ** i * comb(n, i)) for i in range(n + 1))
