"""The exact mean of chi over the signed-permutation conjugates of a pair.

``ffp.expected_charpoly_signed_perms`` imports this module when it is
called; no other verb runs it. Q runs over the 2^(n-1) |G| signed
permutations whose permutation pi lies in a group G on range(n) and whose
signs[0] = +1 (Q and -Q give one conjugate), where
(Q^T M_B Q)_ij = signs[i] signs[j] M_B[perm[i]][perm[j]]. Every conjugate
keeps B's denominators, so the integer matrices of all of them share one
scale (``matrices._pair_form``): their integer coefficients are summed as
kernel scalars and divided once, by 2^(n-1) |G|.

Why G will do. The signed permutations are a finite quadrature for the
Haar mean over unitary conjugates (Marcus, Spielman & Srivastava, PTRF
2022). Summed over the signs, only products of principal minors survive in
both expansions below, det M_A[S, S] det M_B[pi S, pi S] in the product and
their kin in the sum. So the mean equals the convolution's formula as soon
as pi S runs evenly over the k-subsets as pi runs over G, for every S: G
must be k-homogeneous for every k (Livingstone & Wagner, Math. Z. 90,
1965), and S_n is only the largest such group. Here G is S_n for n <= 2,
the cyclic C3 at n = 3, A4 at n = 4, the affine maps x -> ax + b mod 5,
AGL(1, 5), at n = 5 and PGL(2, 5) on the projective line over F_5 (with
infinity as 5) at n = 6, of orders 1, 2, 3, 12, 20 and 120. At n = 7 only
A7 would do.

One term form for both kinds. With Y = Q^T M_B Q, coefficient k of
chi_{M_A Y} is, by Cauchy-Binet,

    C_k = (-1)^k sum_{|S| = |T| = k} det M_A[S, T] det Y[T, S],

and coefficient k of chi_{M_A + Y} is, by the minors of a sum (M. Marcus,
"Determinants of sums", College Math. J. 21, 1990),

    C_k = (-1)^k sum_{|S| = k} sum_{I, J in S, |I| = |J|}
          (-1)^(s_S(I) + s_S(J)) det M_A[I, J] det Y[S - I, S - J],

s_S(I) the sum of the 1-based places of I in S. Each term of either is
+-det M_A[I, J] det Y[P, R] with P ^ R = I ^ J = D: (I, J, P, R) =
(S, T, T, S) in the product and (I, J, S - I, S - J) in the sum. With
Y0[i][j] = M_B[pi i][pi j], det Y[P, R] = sigma(P) sigma(R) det Y0[P, R] =
sigma(D) det Y0[P, R], sigma(P) the product of the signs on P, and
det Y0[P, R] = eps(P) eps(R) det M_B[pi P, pi R], eps(P) the sign of the
permutation that sorts pi P. So the minors each term reads, its sign and its
group (k, D) are fixed once per n and kind: C(2n, n) terms in the product
and sum_k C(n, k) C(2k, k) in the sum, 70 and 195 at n = 4, 924 and 3,989 at
n = 6, C_0's one term included. Every k x k minor of M_A and of M_B, C(2n, n)
of each over k = 0..n, comes from one Laplace recurrence on the minors of
order k - 1. Per call, A's side of the terms is one list; per pi, one gather
moves B's minors to Y0's, one ``map(mul, ...)`` forms every term and each
group is summed. A conjugate's C_k is the sum of the groups of order k less
twice those whose D holds an odd number of flipped signs, a mask fixed once
per n and summed with ``compress``. Each conjugate's vector is formed from
its own (pi, signs), with no matrix built and no chi run, and only then
added: summed over the signs, the flips cancel, and that cancellation is the
identity the mean checks, so no sum over the signs is taken first.
"""

from __future__ import annotations

import itertools
from functools import lru_cache
from operator import add, itemgetter, mul

from .matrices import Matrix, _pair_form
from .polynomials import Polynomial, _from_int


# generators of G per n (module docstring), each a permutation i -> g[i]: a
# transposition, a 3-cycle, a 3-cycle and a double transposition, x -> x + 1
# and x -> 2x mod 5, and at n = 6 those two fixing infinity (5) and x -> -1/x
_GENERATORS = {
    1: (),
    2: ((1, 0),),
    3: ((1, 2, 0),),
    4: ((1, 2, 0, 3), (1, 0, 3, 2)),
    5: ((1, 2, 3, 4, 0), (0, 2, 4, 1, 3)),
    6: ((1, 2, 3, 4, 0, 5), (0, 2, 4, 1, 3, 5), (5, 4, 2, 3, 1, 0)),
}


@lru_cache(maxsize=None)
def _group(n: int) -> tuple:
    """G's elements as tuples, in lexicographic order: the closure of
    ``_GENERATORS[n]`` under composition."""
    elements, todo = {tuple(range(n))}, [tuple(range(n))]
    while todo:
        g = todo.pop()
        for h in _GENERATORS[n]:
            gh = tuple(g[i] for i in h)
            if gh not in elements:
                elements.add(gh)
                todo.append(gh)
    return tuple(sorted(elements))


def _signed_perm_charpoly_mean(a: Matrix, b: Matrix, product: bool) -> Polynomial:
    """Exact mean of chi_{A + Q^T B Q} (``product``: chi_{A Q^T B Q}) over the
    2^(n-1) |G| signed permutations Q with signs[0] = +1 and permutation in
    G: the integer coefficients of every conjugate at one scale, summed and
    divided once."""
    d, ma, mb, _ = _pair_form(a, b, product)
    n = a.n
    total = [0] * (n + 1)
    for coeffs in _chis(ma, mb, n, product):
        total = list(map(add, total, coeffs))
    return _from_int(total, d, [len(_group(n)) << (n - 1)] * (n + 1))


@lru_cache(maxsize=None)
def _layout(n: int):
    """What both means at size n share, built once per n:

    - ``laplace[k][i]``: for the i-th k-subset S of range(n), lexicographic,
      its first index S[0], the place of S[1:] among the (k-1)-subsets and,
      for each j, (j, S[j], the place of S without S[j]): what the Laplace
      recurrence reads;
    - ``moves``: for each pi in G, in lexicographic order, the gather that
      takes every minor of M_B laid flat (order by order, each table by rows)
      and then their negatives to the flat minors of Y0: det Y0[P, R] =
      eps(P) eps(R) det M_B[pi P, pi R];
    - ``subsets[k]``, the k-subsets, and ``flat``, the place of each minor
      (P, R) when laid flat, for the term tables of ``_terms``."""
    subsets = [list(itertools.combinations(range(n), k)) for k in range(n + 1)]
    place = [{s: i for i, s in enumerate(level)} for level in subsets]
    laplace = [None] + [
        [(s[0], place[k - 1][s[1:]], [(j, t, place[k - 1][s[:j] + s[j + 1:]]) for j, t in enumerate(s)])
         for s in subsets[k]]
        for k in range(1, n + 1)
    ]
    flat = {cell: i for i, cell in enumerate((s, t) for level in subsets for s in level for t in level)}
    moves = []
    for perm in _group(n):
        at, offset = [], 0
        for k, level in enumerate(subsets):
            # per k-subset S: the place of the sorted pi S, and whether eps(S) is -1
            pos, odd = [], []
            for s in level:
                image = [perm[i] for i in s]
                pos.append(place[k][tuple(sorted(image))])
                odd.append(sum(x > y for x, y in itertools.combinations(image, 2)) & 1)
            size = len(level)
            # the place of each column's minor, with eps(S) +1 and then -1 for the row's S
            cols = [[q + len(flat) * (e ^ f) for q, f in zip(pos, odd)] for e in (0, 1)]
            for p, e in zip(pos, odd):
                at.extend(map((offset + p * size).__add__, cols[e]))
            offset += size * size
        moves.append(itemgetter(*at))
    return laplace, moves, subsets, flat


@lru_cache(maxsize=None)
def _terms(n: int, product: bool):
    """The terms of C_0..C_n at size n for one kind (module docstring), built
    once per n and kind: ``a_at`` picks each term's signed det M_A[I, J] from
    every minor laid flat and then their negatives (``_layout``), and ``b_at``
    its det Y0[P, R] from the flat minors of Y0; ``groups[k]`` holds the slice
    of each group of order k, and ``odd``, for each sign vector with
    signs[0] = +1 in ``itertools.product((1, -1), repeat=n - 1)`` order behind
    the +1, and each order, the mask of the groups whose D holds an odd
    number of flipped signs."""
    _, _, subsets, flat = _layout(n)
    terms, groups, ds = [], [], []
    for k, level in enumerate(subsets):
        # (I, J, P, R, the parity of the term's sign)
        if product:
            cells = [(s, t, t, s, k) for s in level for t in level]
        else:
            cells = [(i, j, tuple(x for x in s if x not in i), tuple(x for x in s if x not in j),
                      k + sum(map(s.index, i + j)))
                     for s in level for size in range(k + 1)
                     for i, j in itertools.product(itertools.combinations(s, size), repeat=2)]
        by_d = sorted((sum(1 << x for x in set(i) ^ set(j)), flat[i, j] + len(flat) * (sign & 1), flat[p, r])
                      for i, j, p, r, sign in cells)
        groups.append([])
        ds.append([])
        for d, group in itertools.groupby(by_d, itemgetter(0)):
            start = len(terms)
            terms.extend(group)
            groups[-1].append(slice(start, len(terms)))
            ds[-1].append(d)
    _, a_at, b_at = zip(*terms)
    odd = []
    for tail in itertools.product((1, -1), repeat=n - 1):
        flipped = sum(1 << i for i, s in enumerate(tail, 1) if s < 0)
        odd.append([[bin(d & flipped).count("1") & 1 for d in level] for level in ds])
    return itemgetter(*a_at), itemgetter(*b_at), groups, odd


def _minor_tables(m, n: int) -> list:
    """For k = 0..n, the table t[k][i][j] = det M[S_i, S_j] over the k-subsets
    S_i of range(n) in lexicographic order, as kernel scalars: every minor of
    the rows m, each order from the one before by Laplace expansion along
    its first row."""
    laplace = _layout(n)[0]
    tables = [[[1]]]
    for k in range(1, n + 1):
        prev = tables[-1]
        table = []
        for first, rest, _ in laplace[k]:
            row, below = m[first], prev[rest]
            table.append([
                sum(row[t] * below[drop] if j & 1 == 0 else -(row[t] * below[drop]) for j, t, drop in cols)
                for _, _, cols in laplace[k]
            ])
        tables.append(table)
    return tables


def _signed_flat(m, n: int) -> list:
    """Every minor of the rows m laid flat (``_layout``), then their negatives."""
    flat = [v for table in _minor_tables(m, n) for row in table for v in row]
    return flat + [-v for v in flat]


def _chis(a, b, n: int, product: bool):
    """Yield, for each signed permutation Q with signs[0] = +1 and
    permutation in G, C_0..C_n of chi_{M_A Q^T M_B Q} (``product``) or of
    chi_{M_A + Q^T M_B Q} as kernel scalars, for the rows a of M_A and b of
    M_B, from their minors taken once (module docstring). Q runs over G's
    elements and, within each, over the sign vectors, in the order of
    ``_layout`` and ``_terms``; each vector belongs to one Q alone."""
    a_at, b_at, groups, odd = _terms(n, product)
    a_side, b_side = a_at(_signed_flat(a, n)), _signed_flat(b, n)
    for move in _layout(n)[1]:
        terms = list(map(mul, a_side, b_at(move(b_side))))
        # per order k: the sum of each group of one D, the base (all signs +1) and each group's flip
        sums = [list(map(sum, map(terms.__getitem__, level))) for level in groups]
        bases, flips = list(map(sum, sums)), [[-2 * v for v in level] for level in sums]
        for by_sign in odd:
            yield list(map(add, bases, map(sum, map(itertools.compress, flips, by_sign))))
