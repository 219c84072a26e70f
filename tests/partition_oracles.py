"""Set partitions of [j], integer partitions of k, and the partition-sum
formulas of the moment/cumulant layer, kept as oracles for the power-series
code in ``finfree.moments``.

Set partitions are enumerated through restricted growth strings, which gives
a deterministic canonical order; the lattice join is computed by union-find.
The Moebius function from the bottom element is the product formula

    mu(0_j, pi) = prod_{V in pi} (-1)^(|V|-1) (|V|-1)!

Enumeration is guarded at j <= 12 (Bell(12) is about 4.2 million).

The oracles:

- coefficients from moments by the integer-partition sum

    a_k = sum over integer partitions of k of
          prod_i (-n m_{r_i})^{s_i} / (r_i^{s_i} s_i!)

- moments from cumulants by the set-partition formula (Arizmendi & Perales,
  arXiv:1611.06598)

    m_j = (-1)^(j-1) / (n^(j+1) (j-1)!) *
          sum_pi n^|pi| mu(0,pi) kappa_pi * sum_{rho v pi = top} n^|rho| mu(0,rho)

- cumulants from moments by inverting that formula triangularly: kappa_j
  enters m_j only through the one-block partition, with a coefficient
  (computed from the formula itself) equal to the falling factorial
  n(n-1)...(n-j+1) / n^j, nonzero for j <= n.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from math import factorial

from finfree import SizeGuardError
from finfree.scalars import ONE, ZERO

SET_PARTITION_LIMIT = 12


@lru_cache(maxsize=None)
def bell_number(j: int) -> int:
    if j <= 1:
        return 1
    from math import comb

    return sum(comb(j - 1, k) * bell_number(k) for k in range(j))


@dataclass(frozen=True)
class SetPartition:
    """A partition of {1, ..., j} into disjoint blocks.

    Canonical form: each block ascending, blocks ordered by least element.
    """

    j: int
    blocks: tuple

    @classmethod
    def from_blocks(cls, j: int, blocks) -> "SetPartition":
        canon = tuple(sorted((tuple(sorted(b)) for b in blocks), key=lambda b: b[0]))
        seen = sorted(x for b in canon for x in b)
        if seen != list(range(1, j + 1)):
            raise ValueError(f"blocks {blocks} do not partition 1..{j}")
        return cls(j, canon)

    @classmethod
    def bottom(cls, j: int) -> "SetPartition":
        return cls(j, tuple((i,) for i in range(1, j + 1)))

    @classmethod
    def top(cls, j: int) -> "SetPartition":
        return cls(j, (tuple(range(1, j + 1)),))

    @property
    def num_blocks(self) -> int:
        return len(self.blocks)

    def block_sizes(self) -> list[int]:
        return [len(b) for b in self.blocks]

    def is_top(self) -> bool:
        return len(self.blocks) == 1

    def join(self, other: "SetPartition") -> "SetPartition":
        return join(self, other)

    def __str__(self) -> str:
        return "{" + ", ".join("{" + ",".join(map(str, b)) + "}" for b in self.blocks) + "}"


def _guard(j: int):
    if j > SET_PARTITION_LIMIT:
        raise SizeGuardError(f"set-partition enumeration refused for j={j} > {SET_PARTITION_LIMIT}")
    if j < 1:
        raise SizeGuardError("set partitions need j >= 1")


@lru_cache(maxsize=None)
def set_partitions(j: int) -> tuple:
    """All Bell(j) partitions of [j], in restricted-growth-string order."""
    _guard(j)
    out = []
    for rgs in _growth_strings(j):
        blocks: dict[int, list[int]] = {}
        for i, v in enumerate(rgs):
            blocks.setdefault(v, []).append(i + 1)
        out.append(SetPartition(j, tuple(tuple(b) for b in blocks.values())))
    return tuple(out)


def _growth_strings(j: int):
    # lexicographic restricted growth strings: s[0]=0, s[i] <= max(s[:i])+1
    def rec(prefix, mx):
        if len(prefix) == j:
            yield tuple(prefix)
            return
        for v in range(mx + 2):
            yield from rec(prefix + [v], max(mx, v))

    yield from rec([0], 0)


def join(pi: SetPartition, rho: SetPartition) -> SetPartition:
    """Lattice join: the finest partition coarser than both."""
    if pi.j != rho.j:
        raise ValueError("join needs partitions of the same ground set")
    j = pi.j
    parent = list(range(j + 1))

    def find(x: int) -> int:
        while parent[x] != x:
            parent[x] = parent[parent[x]]
            x = parent[x]
        return x

    for blocks in (pi.blocks, rho.blocks):
        for b in blocks:
            root = find(b[0])
            for x in b[1:]:
                parent[find(x)] = root
    groups: dict[int, list[int]] = {}
    for x in range(1, j + 1):
        groups.setdefault(find(x), []).append(x)
    return SetPartition.from_blocks(j, groups.values())


def mobius_from_bottom(pi: SetPartition) -> int:
    """mu(0_j, pi) = (-1)^(j - |pi|) * prod over blocks of (|V|-1)!."""
    value = 1
    for b in pi.blocks:
        size = len(b)
        value *= (-1) ** (size - 1) * factorial(size - 1)
    return value


@lru_cache(maxsize=None)
def top_join_weight_table(j: int) -> tuple:
    """For each partition pi (in enumeration order), the counts needed for

        sum_{rho : rho v pi = 1_j} x^{|rho|} mu(0_j, rho)

    returned as a tuple of dicts {|rho|: sum of mu}. Computing these once per
    ground-set size keeps the moment-cumulant double sum quadratic in Bell(j)
    only on first use.
    """
    parts = set_partitions(j)
    # relabelling [j] maps the sum for pi to the sum for the relabelled pi,
    # so it depends on pi only through its block sizes
    by_shape: dict[tuple, dict] = {}
    table = []
    for pi in parts:
        shape = tuple(sorted(pi.block_sizes()))
        if shape not in by_shape:
            weights: dict[int, int] = {}
            for rho in parts:
                if join(pi, rho).is_top():
                    k = rho.num_blocks
                    weights[k] = weights.get(k, 0) + mobius_from_bottom(rho)
            by_shape[shape] = weights
        table.append(by_shape[shape])
    return tuple(table)


def integer_partitions(k: int) -> list[tuple[tuple[int, int], ...]]:
    """Partitions of k as ((part, multiplicity), ...) with parts ascending.

    Enumerated with the largest part descending, deterministically.
    """
    out = []

    def rec(remaining: int, max_part: int, acc: list[int]):
        if remaining == 0:
            counted = [(p, len(list(g))) for p, g in itertools.groupby(sorted(acc))]
            out.append(tuple(counted))
            return
        for p in range(min(remaining, max_part), 0, -1):
            acc.append(p)
            rec(remaining - p, p, acc)
            acc.pop()

    rec(k, k, [])
    return out


# -- the partition-sum formulas ----------------------------------------------


def coeffs_by_integer_partitions(moments, n: int) -> list:
    """a_0..a_n of the monic degree-n polynomial with root moments m_1..m_n."""
    coeffs = [ONE]
    for k in range(1, n + 1):
        acc = ZERO
        for partition in integer_partitions(k):
            term = ONE
            for part, mult in partition:
                term = term * (moments[part - 1] * (-n)) ** mult / (
                    Fraction(part) ** mult * factorial(mult)
                )
            acc = acc + term
        coeffs.append(acc)
    return coeffs


def _cumulant_product(kappa, pi: SetPartition):
    prod = ONE
    for block in pi.blocks:
        prod = prod * kappa[len(block) - 1]
    return prod


def moment_by_set_partitions(kappa, n: int, j: int):
    """m_j from kappa_1..kappa_j by the set-partition formula."""
    parts = set_partitions(j)
    weights = top_join_weight_table(j)
    total = ZERO
    for pi, weight in zip(parts, weights):
        kappa_pi = _cumulant_product(kappa, pi)
        if not kappa_pi:
            continue
        inner = sum(Fraction(n) ** blocks * mu for blocks, mu in weight.items())
        total = total + kappa_pi * (
            Fraction(n) ** pi.num_blocks * mobius_from_bottom(pi) * inner
        )
    lead = Fraction((-1) ** (j - 1), n ** (j + 1) * factorial(j - 1))
    return total * lead


def _kappa_j_coefficient(n: int, j: int) -> Fraction:
    # the one-block partition is the only one containing kappa_j; its
    # coefficient is evaluated from the formula itself rather than a closed form
    parts = set_partitions(j)
    inner_all = sum(Fraction(n) ** p.num_blocks * mobius_from_bottom(p) for p in parts)
    top_mu = mobius_from_bottom(SetPartition.top(j))
    lead = Fraction((-1) ** (j - 1), n ** (j + 1) * factorial(j - 1))
    return lead * Fraction(n) * top_mu * inner_all


def cumulants_by_set_partitions(moments, n: int) -> list:
    """kappa_1..kappa_len(moments), len(moments) <= n, isolating kappa_j
    from m_j and the previously solved kappa_1..kappa_{j-1}."""
    kappa: list = []
    for j in range(1, len(moments) + 1):
        partial = moment_by_set_partitions(kappa + [ZERO], n, j)
        kappa.append((moments[j - 1] - partial) / _kappa_j_coefficient(n, j))
    return kappa
