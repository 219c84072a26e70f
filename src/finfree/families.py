"""Matrix families and complementary-pair verification.

The families: diagonal, scalar, upper/lower triangular (optionally with
constant diagonal), principally balanced (all principal minors of each
order share one value), and the full matrix space. The six structural
families are each one row of ``EQUATIONS``: the cells that vanish and
whether the diagonal is constant. Membership, the samplers and the boundary
witnesses all read that table. Three family pairs are complementary for
both convolutions:

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
import functools
import itertools
import math
import operator
import random
from dataclasses import dataclass, field
from fractions import Fraction
from math import comb
from typing import Optional

from .errors import ParseError, UnsupportedPairError, _guard
from .ffp import FfpReport, _failure_report
# CycleSums, cycle_sums and rank_upper_bound live with what they read, so the
# light verbs run without this module; they are re-exported here
from .matrices import CycleSums, Matrix, _minors_balanced, cycle_sums
from .polynomials import ADDITIVE, Polynomial, rank_upper_bound
from .scalars import ONE, _Record, as_scalar

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
        try:
            return cls(tag)
        except ValueError:
            raise ParseError(f"unknown family tag {tag!r}") from None


# The equations that cut out each structural family: a predicate on the
# 0-based cells (i, j) that vanish, and whether the diagonal is constant.
EQUATIONS = {
    FamilyId.DIAGONAL: (operator.ne, False),
    FamilyId.SCALAR: (operator.ne, True),
    FamilyId.UPPER_TRIANGULAR: (operator.gt, False),
    FamilyId.LOWER_TRIANGULAR: (operator.lt, False),
    FamilyId.UPPER_TRIANGULAR_CONST_DIAG: (operator.gt, True),
    FamilyId.LOWER_TRIANGULAR_CONST_DIAG: (operator.lt, True),
}


def _equations(family: FamilyId) -> tuple:
    try:
        return EQUATIONS[family]
    except (KeyError, TypeError):
        raise ParseError(f"unknown family {family}") from None


@functools.lru_cache(maxsize=64)
def _zero_cells(family: FamilyId, n: int) -> tuple:
    """The 0-based cells (i, j), row-major, where every member vanishes;
    built once per (family, n)."""
    vanishes = _equations(family)[0]
    return tuple((i, j) for i in range(n) for j in range(n) if vanishes(i, j))


def is_member(a: Matrix, family: FamilyId) -> bool:
    """Exact structural membership test, on the integer form of A."""
    if family is FamilyId.ALL:
        return True
    if family is FamilyId.PRINCIPALLY_BALANCED:
        return _minors_balanced(a)
    constant = _equations(family)[1]
    m = a._m
    return all(not m[i][j] for i, j in _zero_cells(family, a.n)) and (
        not constant or all(m[i][i] == m[0][0] for i in range(a.n))
    )


# -- samplers ---------------------------------------------------------------


def _as_rng(seed_or_rng) -> random.Random:
    if isinstance(seed_or_rng, random.Random):
        return seed_or_rng
    return random.Random(seed_or_rng)


def _draw(rng: random.Random, bound: int) -> tuple:
    """(p, q), p uniform in [-bound, bound] and q uniform in [1, bound], from
    the same ``_randbelow(2 bound + 1)`` and ``_randbelow(bound)`` calls that
    ``randint(-bound, bound)`` and ``randint(1, bound)`` make, so every
    sampler draws the same values as with ``randint``. p/q is not reduced:
    the samplers clear denominators by the lcm of the q into int rows, the
    integer form of a real matrix, and ``_from_form`` brings the result to
    canonical form."""
    if bound < 1:
        raise ValueError(f"sampling bound must be >= 1, got {bound}")
    return rng._randbelow(2 * bound + 1) - bound, rng._randbelow(bound) + 1


def _draw_nonzero(rng: random.Random, bound: int) -> tuple:
    while True:
        p, q = _draw(rng, bound)
        if p:
            return p, q


def rand_fraction(rng: random.Random, bound: int = 10) -> Fraction:
    """p/q with p uniform in [-bound, bound] and q uniform in [1, bound]."""
    return Fraction(*_draw(rng, bound))


def _from_draws(cells) -> Matrix:
    """The matrix with entry p/q for each drawn (p, q): its integer form at
    the scale lcm(q), then brought to canonical form."""
    d = math.lcm(*(q for row in cells for _, q in row))
    return Matrix._from_form(d, [[p * (d // q) for p, q in row] for row in cells])


def random_matrix(rng: random.Random, n: int, bound: int = 10) -> Matrix:
    return _from_draws([[_draw(rng, bound) for _ in range(n)] for _ in range(n)])


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
    if family is FamilyId.PRINCIPALLY_BALANCED:
        return _construct_balanced(n, rng, bound)
    return _construct_structured(*_equations(family), n, rng, bound)


def _construct_structured(vanishes, constant: bool, n: int, rng: random.Random, bound: int) -> Matrix:
    """A random matrix that solves the equations: the constant diagonal value
    first, then the free cells row-major. Lower-triangular patterns are drawn
    as their upper twins and transposed."""
    if vanishes is operator.lt:
        return _construct_structured(operator.gt, constant, n, rng, bound).transpose()
    c = _draw(rng, bound) if constant else None
    return _from_draws(
        [
            [
                (0, 1) if vanishes(i, j) else c if constant and i == j else _draw(rng, bound)
                for j in range(n)
            ]
            for i in range(n)
        ]
    )


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
    u = [_draw_nonzero(rng, bound) for _ in range(n)]
    p, q = _draw(rng, bound)
    return _diagonal_similarity(q, [[p] * n] * n, u, range(n))


def _conjugated_triangular_balanced(n: int, rng: random.Random, bound: int) -> Matrix:
    """C T C^{-1} for T upper triangular with constant diagonal and the
    conjugator C = P diag(u), P the permutation matrix with P[i][perm[i]] = 1:
    entry (i, k) is u[p_i] T[p_i][p_k] / u[p_k], p = perm, with no products
    and no inverse."""
    t = _construct_member(FamilyId.UPPER_TRIANGULAR_CONST_DIAG, n, rng, bound)
    u = [_draw_nonzero(rng, bound) for _ in range(n)]
    perm = list(range(n))
    rng.shuffle(perm)
    return _diagonal_similarity(t._d, t._m, u, perm)


def _diagonal_similarity(d: int, m, u, perm) -> Matrix:
    """The matrix with entry (i, k) = u[p_i] T[p_i][p_k] / u[p_k], p = perm,
    for T = M / d, M given by its rows m of kernel scalars, and nonzero
    u_j = a_j / b_j, given as int pairs (a_j, b_j). With v = L u for L the
    lcm of the b_j and V the lcm of the |v_j|, that entry is
    v[p_i] T[p_i][p_k] (V / v[p_k]) / (d V) with integer numerator."""
    lcd = math.lcm(*(b for _, b in u))
    v = [a * (lcd // b) for a, b in u]
    span = math.lcm(*v)
    cols = [(pk, span // v[pk]) for pk in perm]
    return Matrix._from_form(d * span, [[m[pi][pk] * (v[pi] * f) for pk, f in cols] for pi in perm])


# -- complementary-pair verification ----------------------------------------

SUPPORTED_PAIRS = (
    (FamilyId.DIAGONAL, FamilyId.PRINCIPALLY_BALANCED),
    (FamilyId.UPPER_TRIANGULAR, FamilyId.UPPER_TRIANGULAR_CONST_DIAG),
    (FamilyId.LOWER_TRIANGULAR, FamilyId.LOWER_TRIANGULAR_CONST_DIAG),
    (FamilyId.SCALAR, FamilyId.ALL),
)


@dataclass(frozen=True)
class BoundaryCheck(_Record):
    """A matrix outside one family together with a partner inside the other
    family against which finite free position fails."""

    label: str
    outsider: Matrix
    partner: Matrix
    report: FfpReport


@dataclass(frozen=True)
class TrialFailure(_Record):
    """A sampled pair that fails finite free position: trial ``trial`` of a
    run, drawn from ``random.Random(seed)``, so ``verify_pair`` with this
    seed and one trial draws the same pair again."""

    a: Matrix
    b: Matrix
    report: FfpReport
    trial: int
    seed: int


@dataclass(frozen=True)
class PairCheckReport(_Record):
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
    trials are independent and order-insensitive, and a failure records its
    index and seed. Only a failing trial gets a report.

    A run past the ``minors`` limit with pb in the pair, or past the ``chi``
    limit with a trial to run, meets a dense matrix and would end in that
    guard's refusal after its draws; it is refused before the first one.
    """
    pair = _normalize_pair(f, g)
    if FamilyId.PRINCIPALLY_BALANCED in pair:
        _guard("minors", n)
    if trials >= 1:
        _guard("chi", n)
    failures = []
    for t in range(trials):
        rng = random.Random(seed + t)
        a = sample_member(pair[0], n, rng, bound)
        b = sample_member(pair[1], n, rng, bound)
        report = _failure_report(a, b, kind)
        if report is not None:
            failures.append(TrialFailure(a, b, report, t, seed + t))
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


def _diagonal_probes(n: int, kind: str):
    """Every probe D(lambda, K): K a proper non-empty subset, by size and then
    lexicographically, and lambda in ``PROBE_MAGNITUDES``."""
    return (
        diagonal_probe(n, subset, magnitude, kind)
        for size in range(1, n)
        for subset in itertools.combinations(range(n), size)
        for magnitude in PROBE_MAGNITUDES
    )


def _unit_witnesses(outsider: Matrix, cells):
    """The unit matrix E_{kl} for each nonzero entry a_{lk} of the outsider
    whose 0-based cell (l - 1, k - 1) is in ``cells``."""
    return (Matrix.unit(outsider.n, j + 1, i + 1) for i, j in cells if outsider._m[i][j])


def _first_failure(outsider: Matrix, partners, kind: str) -> Optional[tuple[Matrix, FfpReport]]:
    """(partner, report) for the first partner against which the outsider
    fails finite free position, or None when it fails against none. The
    outsider goes first; its chi is computed once, on the first check."""
    for partner in partners:
        report = _failure_report(outsider, partner, kind)
        if report is not None:
            return partner, report
    return None


def _boundary_checks(pair, kind: str, n: int, rng: random.Random, bound: int) -> list:
    f, g = pair
    checks = []

    def record(label, outsider, partners):
        found = _first_failure(outsider, partners, kind)
        if found is None:
            raise LookupError(f"no failing witness found for {label}; sampler or probe bug")
        checks.append(BoundaryCheck(label, outsider, *found))

    if f is FamilyId.SCALAR:
        # escape from the scalar family: any non-scalar matrix must fail
        # against some matrix; diagonal non-scalar needs the probe route
        outsider = _sample_outside_scalar(rng, n, bound)
        if is_member(outsider, FamilyId.DIAGONAL):
            record("non-scalar-vs-diagonal-probe", outsider, _diagonal_probes(n, kind))
        else:
            record("non-scalar-vs-unit-witness", outsider, _unit_witnesses(outsider, _zero_cells(f, n)))
        return checks

    # escape from g (the balanced-type family) fails against a diagonal probe
    outsider_g = _sample_outside_second_family(g, rng, n, bound)
    record(f"non-{g.value}-vs-diagonal-probe", outsider_g, _diagonal_probes(n, kind))

    # escape from f (the structural family) fails against a unit witness in g
    outsider_f = _sample_outside_first_family(f, rng, n, bound)
    record(f"non-{f.value}-vs-unit-witness", outsider_f, _unit_witnesses(outsider_f, _zero_cells(f, n)))
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
    m = _construct_structured(_equations(g)[0], False, n, rng, bound)  # the non-constant twin
    if is_member(m, g):  # constant diagonal: break it
        m = m + Matrix.unit(n, 1, 1)
    return m


def _sample_outside_first_family(f: FamilyId, rng: random.Random, n: int, bound: int) -> Matrix:
    """A random matrix with a 1 put in at the family's first zero cell when
    that entry is zero."""
    m = random_matrix(rng, n, bound)
    i, j = _zero_cells(f, n)[0]
    if not m._m[i][j]:
        m = m + Matrix.unit(n, i + 1, j + 1)
    return m


# -- the principally balanced characteristic polynomial ----------------------


def pb_charpoly_from_minors(minors) -> Polynomial:
    """Characteristic polynomial of a principally balanced matrix from its
    per-order minor values m_0..m_n: sum (-1)^i C(n,i) m_i x^(n-i)."""
    values = [as_scalar(m) for m in minors]
    if not values or values[0] != ONE:
        raise ParseError("minor profile must start with m_0 = 1")
    n = len(values) - 1
    return Polynomial(values[i] * ((-1) ** i * comb(n, i)) for i in range(n + 1))
