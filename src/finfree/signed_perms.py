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

Additive: one walk over the prefixes of Q. Berkowitz's step r (``kernel``)
reads only the leading (r + 1) x (r + 1) block of M_A + Q^T M_B Q, and that
block depends only on Q's first r + 1 (index, sign) choices. So one
depth-first walk over those prefixes runs each step once per prefix: a node
extends its parent's block by one row, one column and one corner cell, each
cell A's plus B's signed one, and runs one ``kernel._berkowitz_step`` on its
parent's coefficients; the leaves' coefficients are summed. The prefixes
are those of G's elements, so at n = 4 that is 24 + 48 + 96 steps, where one
chi per conjugate takes 3 x 96, and no leaf builds a full conjugate, adds
two matrices or scans for triangularity.

Multiplicative: Cauchy-Binet on minors taken once. No prefix of Q fixes a
leading block of M_A Y, Y = Q^T M_B Q, since every entry of the product
sums over all of Q. But coefficient k of chi_{M_A Y} is

    C_k = (-1)^k sum_{|S| = |T| = k} det M_A[S, T] det Y[T, S],

and det Y[T, S] = sigma(T) sigma(S) eps(T) eps(S) det M_B[pi T, pi S], with
sigma(T) the product of the signs on T and eps(T) the sign of the
permutation that sorts pi T. Every k x k minor of M_A and of M_B, C(2n, n)
of each over k = 0..n, comes from one Laplace recurrence on the minors of
order k - 1. For each pi in G the products
w_ST = eps(S) eps(T) det M_A[S, T] det M_B[pi T, pi S] are formed once.
(S, T) and (T, S) share the weight sigma(S) sigma(T), which is 1 on S = T,
so with the folded f_ST = w_ST + w_TS for S < T a conjugate's C_k is
(-1)^k (sum_S w_SS + sum_{S < T} +-f_ST). Per pi and k that is the base
(-1)^k (sum_S w_SS + sum_{S < T} f_ST), the C_k of all signs +1, plus the
flip -(-1)^k 2 f_ST of each pair that takes -. Which pairs take - depends
only on the sign vector, so it is fixed once per n, and a conjugate sums
the flips of its pairs with ``compress``: at n = 4 up to 27 additions, and
no multiplication. C_0 = 1 and C_n = (-1)^n det M_A det M_B.

Each conjugate's coefficient vector is formed from its own (pi, signs) and
only then added to the total. Summed over the sign vectors, the folded
pairs cancel, and that cancellation is the identity the mean checks, so the
sum is never taken over the signs first, and no conjugate of G is skipped.
"""

from __future__ import annotations

import itertools
from functools import lru_cache
from operator import add, itemgetter, sub

from .kernel import _berkowitz_step
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
    if product:
        total = [0] * (n + 1)
        for coeffs in _product_chis(ma, mb, n):
            total = list(map(add, total, coeffs))
    else:
        total = _additive_chi_sum(ma, mb, n)
    return _from_int(total, d, [len(_group(n)) << (n - 1)] * (n + 1))


def _additive_chi_sum(a, b, n: int) -> list:
    """The sum of C_0..C_n of chi_{M_A + Q^T M_B Q} over the signed
    permutations Q with signs[0] = +1 and permutation in G, as kernel
    scalars, for the rows a of M_A and b of M_B, by one walk over the
    prefixes of G's elements (module docstring): conjugates that share a
    prefix share its steps."""
    total = [0] * (n + 1)

    def walk(block, elements, signs, c):
        # elements: G's elements that begin with the prefix walked so far
        nonlocal total
        r = len(signs)
        perm = elements[0][:r]
        a_left, a_col = a[r][:r], [row[r] for row in a[:r]]
        for p, below in itertools.groupby(elements, itemgetter(r)):
            below = list(below)
            # (Q^T M_B Q)_ij = signs[i] signs[j] M_B[perm[i]][perm[j]]: B's cells in
            # the new row and column, each times the sign of its other index,
            # are added for the new sign s = 1 and subtracted for s = -1
            b_left = [b[p][q] if si == 1 else -b[p][q] for q, si in zip(perm, signs)]
            b_col = [b[q][p] if si == 1 else -b[q][p] for q, si in zip(perm, signs)]
            diag = a[r][r] + b[p][p]
            for s, op in ((1, add), (-1, sub)) if r else ((1, add),):
                left, col = list(map(op, a_left, b_left)), list(map(op, a_col, b_col))
                # a 1 x 1 block's coefficients need no step
                coeffs = _berkowitz_step(block, left, col, diag, c) if r else [1, -diag]
                if r + 1 == n:
                    total = list(map(add, total, coeffs))
                else:
                    child = [row + [v] for row, v in zip(block, col)] + [left + [diag]]
                    walk(child, below, signs + [s], coeffs)

    walk([], _group(n), [], [1])
    return total


@lru_cache(maxsize=None)
def _layout(n: int):
    """What the product sums at size n share, built once per n:

    - ``laplace[k][i]``: for the i-th k-subset S of range(n), lexicographic,
      its first index S[0], the place of S[1:] among the (k-1)-subsets and,
      for each j, (j, S[j], the place of S without S[j]): what the Laplace
      recurrence reads;
    - ``perms``: for each pi in G, and each order k = 1..n-1, the place of
      the sorted pi S and eps(S) for each k-subset S;
    - ``negatives``: for each sign vector with signs[0] = +1, and each order
      k = 1..n-1, the mask of the folded pairs (S < T, lexicographic) whose
      sigma(S) sigma(T) is -1.

    G's elements come in lexicographic order and sign vectors in
    ``itertools.product((1, -1), repeat=n - 1)`` order behind the +1."""
    subsets = [list(itertools.combinations(range(n), k)) for k in range(n + 1)]
    place = [{s: i for i, s in enumerate(level)} for level in subsets]
    laplace = [None] + [
        [(s[0], place[k - 1][s[1:]], [(j, t, place[k - 1][s[:j] + s[j + 1:]]) for j, t in enumerate(s)])
         for s in subsets[k]]
        for k in range(1, n + 1)
    ]
    orders = range(1, n)
    perms = []
    for perm in _group(n):
        by_order = []
        for k in orders:
            pos, eps = [], []
            for s in subsets[k]:
                image = [perm[i] for i in s]
                pos.append(place[k][tuple(sorted(image))])
                inversions = sum(x > y for x, y in itertools.combinations(image, 2))
                eps.append(-1 if inversions & 1 else 1)
            by_order.append((pos, eps))
        perms.append(by_order)
    masks = [[sum(1 << i for i in s) for s in subsets[k]] for k in range(n + 1)]
    pairs = [list(itertools.combinations(range(len(subsets[k])), 2)) for k in range(n + 1)]
    negatives = []
    for tail in itertools.product((1, -1), repeat=n - 1):
        flipped = sum(1 << i for i, s in enumerate(tail, 1) if s < 0)
        # sigma(S) sigma(T) is -1 when S and T differ on an odd number of flipped signs
        negatives.append([[bin((masks[k][i] ^ masks[k][j]) & flipped).count("1") & 1 for i, j in pairs[k]]
                          for k in orders])
    return laplace, pairs, perms, negatives


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


def _product_chis(a, b, n: int):
    """Yield, for each signed permutation Q with signs[0] = +1 and
    permutation in G, C_0..C_n of chi_{M_A Q^T M_B Q} as kernel scalars, for
    the rows a of M_A and b of M_B, by Cauchy-Binet on minors taken once
    (module docstring). Q runs over G's elements in lexicographic order and,
    within each, over sign vectors in ``itertools.product((1, -1),
    repeat=n - 1)`` order behind the +1; each vector belongs to one Q
    alone."""
    _, pairs, perms, negatives = _layout(n)
    ta, tb = _minor_tables(a, n), _minor_tables(b, n)
    last = ta[n][0][0] * tb[n][0][0]
    if n & 1:
        last = -last
    for by_order in perms:
        # per order k: the base and the flips of the folded pairs (module docstring)
        folded = []
        for k, (pos, eps) in enumerate(by_order, 1):
            x, y = ta[k], tb[k]
            diag = sum(x[i][i] * y[p][p] for i, p in enumerate(pos))
            pair = []
            for i, j in pairs[k]:
                # w_ST + w_TS, w_ST = eps(S) eps(T) det M_A[S, T] det M_B[pi T, pi S]
                v = x[i][j] * y[pos[j]][pos[i]] + x[j][i] * y[pos[i]][pos[j]]
                pair.append(v if eps[i] == eps[j] else -v)
            base = diag + sum(pair)
            folded.append((-base, [2 * v for v in pair]) if k & 1 else (base, [-2 * v for v in pair]))
        for by_sign in negatives:
            coeffs = [1]
            for (base, flips), negative in zip(folded, by_sign):
                coeffs.append(base + sum(itertools.compress(flips, negative)))
            coeffs.append(last)
            yield coeffs
