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

Multiplicative: Cauchy-Binet on minors taken once. With Y = Q^T M_B Q,
coefficient k of chi_{M_A Y} is

    C_k = (-1)^k sum_{|S| = |T| = k} det M_A[S, T] det Y[T, S],

and det Y[T, S] = sigma(T) sigma(S) eps(T) eps(S) det M_B[pi T, pi S], with
sigma(T) the product of the signs on T and eps(T) the sign of the
permutation that sorts pi T. Every k x k minor of M_A and of M_B, C(2n, n)
of each over k = 0..n, comes from one Laplace recurrence on the minors of
order k - 1. Per pi the products w_ST = eps(S) eps(T) det M_A[S, T]
det M_B[pi T, pi S] are formed once and folded, f_ST = w_ST + w_TS for
S < T, as (S, T) and (T, S) share the weight sigma(S) sigma(T), 1 on S = T.
Per pi and k the base (-1)^k (sum_S w_SS + sum_{S < T} f_ST) is the C_k of
all signs +1, and a conjugate adds the flip -(-1)^k 2 f_ST of each pair
that takes -: at n = 4 up to 27 additions. C_0 = 1 and C_n = (-1)^n det M_A
det M_B.

Additive: the minors of a sum (M. Marcus, "Determinants of sums", College
Math. J. 21, 1990), on the same minors. Coefficient k of chi_{M_A + Y} is

    C_k = (-1)^k sum_{|S| = k} sum_{I, J in S, |I| = |J|}
          (-1)^(s_S(I) + s_S(J)) det M_A[I, J] det Y[S - I, S - J],

s_S(I) the sum of the 1-based places of I in S. With Y0[i][j] =
M_B[pi i][pi j], det Y[P, R] = sigma(P) sigma(R) det Y0[P, R], and
(S - I) ^ (S - J) = I ^ J = D, so a term's sign factor is sigma(D). The
minors each term reads, and its group (k, D), are fixed once per n: 194
terms at n = 4, 3,988 at n = 6. Per call, A's side of the terms is one
list; per pi, Y0's minors are B's moved by pos and signed by eps, one
``map(mul, ...)`` forms every term and each group is summed. A conjugate's
C_k is the sum of all groups less twice those whose D holds an odd number
of flipped signs.

In both, the pairs or groups that a sign vector flips are a mask fixed once
per n, summed with ``compress``. Each conjugate's vector is formed from its
own (pi, signs), with no matrix built and no chi run, and only then added:
summed over the signs, the flips cancel, and that cancellation is the
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
    for coeffs in (_product_chis if product else _sum_chis)(ma, mb, n):
        total = list(map(add, total, coeffs))
    return _from_int(total, d, [len(_group(n)) << (n - 1)] * (n + 1))


@lru_cache(maxsize=None)
def _layout(n: int):
    """What the means at size n share, built once per n:

    - ``laplace[k][i]``: for the i-th k-subset S of range(n), lexicographic,
      its first index S[0], the place of S[1:] among the (k-1)-subsets and,
      for each j, (j, S[j], the place of S without S[j]): what the Laplace
      recurrence reads;
    - ``perms``: for each pi in G, and each order k = 0..n, the place of
      the sorted pi S and eps(S) for each k-subset S;
    - ``negatives``: for each sign vector with signs[0] = +1, and each order
      k = 1..n-1, the mask of the folded pairs (S < T, lexicographic) whose
      sigma(S) sigma(T) is -1;
    - ``terms``: the sum's terms (S, I, J) per order k = 1..n, grouped by
      D = I ^ J. From every minor laid flat (order by order, each table by
      rows) and then their negatives, ``a_at`` picks each term's signed
      det M[I, J] and ``b_at`` its det M[S - I, S - J]; ``groups`` holds the
      (start, stop, D) of each group per order, and ``odd`` per sign vector
      and order the mask of the groups whose D holds an odd number of
      flipped signs.

    G's elements come in lexicographic order and sign vectors in
    ``itertools.product((1, -1), repeat=n - 1)`` order behind the +1."""
    subsets = [list(itertools.combinations(range(n), k)) for k in range(n + 1)]
    place = [{s: i for i, s in enumerate(level)} for level in subsets]
    laplace = [None] + [
        [(s[0], place[k - 1][s[1:]], [(j, t, place[k - 1][s[:j] + s[j + 1:]]) for j, t in enumerate(s)])
         for s in subsets[k]]
        for k in range(1, n + 1)
    ]
    perms = []
    for perm in _group(n):
        by_order = []
        for k in range(n + 1):
            pos, eps = [], []
            for s in subsets[k]:
                image = [perm[i] for i in s]
                pos.append(place[k][tuple(sorted(image))])
                inversions = sum(x > y for x, y in itertools.combinations(image, 2))
                eps.append(-1 if inversions & 1 else 1)
            by_order.append((pos, eps))
        perms.append(by_order)
    flat = {cell: i for i, cell in enumerate((s, t) for level in subsets for s in level for t in level)}
    terms, groups = [], []
    for k in range(1, n + 1):
        # (D, the place of the term's signed det M[I, J], that of its det M[S - I, S - J])
        by_d = sorted(
            (sum(1 << x for x in set(i) ^ set(j)),
             flat[i, j] + len(flat) * ((k + sum(map(s.index, i + j))) & 1),
             flat[tuple(x for x in s if x not in i), tuple(x for x in s if x not in j)])
            for s in subsets[k] for size in range(k + 1)
            for i, j in itertools.product(itertools.combinations(s, size), repeat=2))
        groups.append([])
        for d, group in itertools.groupby(by_d, itemgetter(0)):
            start = len(terms)
            terms.extend(group)
            groups[-1].append((start, len(terms), d))
    _, a_at, b_at = zip(*terms)
    masks = [[sum(1 << i for i in s) for s in subsets[k]] for k in range(n + 1)]
    pairs = [list(itertools.combinations(range(len(subsets[k])), 2)) for k in range(n + 1)]
    negatives, odd = [], []
    for tail in itertools.product((1, -1), repeat=n - 1):
        flipped = sum(1 << i for i, s in enumerate(tail, 1) if s < 0)
        # sigma(S) sigma(T) is -1 when S and T differ on an odd number of flipped signs
        negatives.append([[bin((masks[k][i] ^ masks[k][j]) & flipped).count("1") & 1 for i, j in pairs[k]]
                          for k in range(1, n)])
        odd.append([[bin(d & flipped).count("1") & 1 for _, _, d in level] for level in groups])
    return laplace, pairs, perms, negatives, (itemgetter(*a_at), itemgetter(*b_at), groups, odd)


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
    (module docstring). Q runs over G's elements and, within each, over the
    sign vectors, in ``_layout``'s order; each vector belongs to one Q alone."""
    _, pairs, perms, negatives, _ = _layout(n)
    ta, tb = _minor_tables(a, n), _minor_tables(b, n)
    last = ta[n][0][0] * tb[n][0][0]
    if n & 1:
        last = -last
    for by_order in perms:
        # per order k: the base and the flips of the folded pairs (module docstring)
        folded = []
        for k, (pos, eps) in enumerate(by_order[1:n], 1):
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


def _sum_chis(a, b, n: int):
    """``_product_chis`` for chi_{M_A + Q^T M_B Q}, in the same order of Q,
    from the minors of a sum (module docstring)."""
    _, _, perms, _, (a_at, b_at, groups, odd) = _layout(n)
    flat = [v for table in _minor_tables(a, n) for row in table for v in row]
    a_side = a_at(flat + [-v for v in flat])
    tb = _minor_tables(b, n)
    for by_order in perms:
        # the minors of Y0 = (M_B[pi i][pi j]): B's, moved and signed by pi
        y0 = [row[q] if f == e else -row[q] for table, (pos, eps) in zip(tb, by_order)
              for row, e in zip(map(table.__getitem__, pos), eps) for q, f in zip(pos, eps)]
        terms = list(map(mul, a_side, b_at(y0)))
        # per order k: the base, all signs +1, and the flip of each group of one D
        folded = []
        for bounds in groups:
            sums = [sum(terms[i:j]) for i, j, _ in bounds]
            folded.append((sum(sums), [-2 * v for v in sums]))
        for by_sign in odd:
            coeffs = [1]
            for (base, flips), negative in zip(folded, by_sign):
                coeffs.append(base + sum(itertools.compress(flips, negative)))
            yield coeffs
