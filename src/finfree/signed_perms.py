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
n = 6, C_0's one term included.

Minors by gathers. Every k x k minor of M_A and of M_B, C(2n, n) of each over
k = 0..n, comes from one Laplace recurrence along the first row of S,
det M[S, T] = sum_j (-1)^j M[S[0]][T[j]] det M[S[1:], T - T[j]]. Per order
k, one gather takes the row entries from M laid flat and then negated, so
(-1)^j comes with the index, and one the minors of order k - 1; one
``map(mul, ...)`` forms the products, and each run of k of them is summed.

Signs by one gather. Per call, A's side of the terms is one list; per pi,
one gather, fixed once per n and kind, takes each term's det Y0[P, R] =
eps(P) eps(R) det M_B[pi P, pi R] straight from B's signed flat minors, one
``map(mul, ...)`` forms every term and each group is summed, into one list
over all orders. A conjugate's C_k is the sum of its groups of order k, each
negated when its D holds an odd number of flipped signs. So one gather,
fixed once per n and kind, picks for every sign vector and order each
group's sum or its negative from the sums followed by their negatives, and
one ``map(sum, ...)`` over fixed runs of those picks gives all
2^(n-1) (n + 1) coefficients of pi's conjugates; each conjugate's vector is
a slice. Each vector is formed from its own (pi, signs), with no matrix
built and no chi run, and only then added: summed over the signs, the flips
cancel, and that cancellation is the identity the mean checks, so no sum
over the signs is taken first.

Gaussian input on ints. Every step after the minors is linear in A's side
and in B's side, so when either form is complex each signed flat minor
z = x + yi is packed as the int x + y 2^W and the same loop runs on ints:
Kronecker substitution for Z[i] = Z[X]/(X^2 + 1) at X = 2^W. A product of
two packed minors is r + c X + i X^2 with r = x x', c = x y' + y x' and
i = y y', so each yielded coefficient is V = r + c X + i X^2, the digits
now sums of +-those over the terms of one C_k, and C_k = (r - i) + c i.
Let a and b be the largest part of A's and of B's minors (Y0's are B's,
up to sign), of bit lengths bits(a) and bits(b), and T the term count. A
term's digits are at most a b, 2 a b and a b in size, and C_k sums at most
T terms, so each digit of V is at most 2 a b T < 2^(bits(a) + bits(b) +
bits(T) + 1). With W = bits(a) + bits(b) + bits(T) + 2 every digit thus
lies in [-(2^(W-1) - 1), 2^(W-1) - 1], and there the balanced residue of V
mod 2^W is r, that of (V - r) / 2^W is c, and i = (V - r - c X) / X^2, all
exact. A digit of 2^(W-1) reads back as -2^(W-1) with a carry, and 2 a b T
can pass 2^(W-2), so W cannot be one bit smaller. Real input never packs
or decodes.
"""

from __future__ import annotations

import itertools
from functools import lru_cache
from operator import itemgetter, mul, neg

from .matrices import Matrix, _pair_form
from .polynomials import Polynomial, _from_int
from .scalars import _GaussInt


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
    total = list(map(sum, zip(*_chis(ma, mb, n, product))))
    return _from_int(total, d, [len(_group(n)) << (n - 1)] * (n + 1))


@lru_cache(maxsize=None)
def _layout(n: int):
    """What both means at size n share, built once per n:

    - ``laplace``: for each order k = 2..n, the two gathers of its Laplace
      step along the first row of S, det M[S, T] = sum_j (-1)^j M[S[0]][T[j]]
      det M[S[1:], T - T[j]], one index per (S, T, j) with (S, T) laid flat:
      the first from the entries of M laid flat and then their negatives, so
      (-1)^j comes with the index, the second from the minors of order k - 1;
    - ``moves``: for each pi in G, in lexicographic order, the index list
      that takes every minor of M_B laid flat (order by order, each table by
      rows) and then their negatives to the flat minors of Y0: det Y0[P, R] =
      eps(P) eps(R) det M_B[pi P, pi R];
    - ``subsets[k]``, the k-subsets, and ``flat``, the place of each minor
      (P, R) when laid flat, for the term tables of ``_terms``."""
    subsets = [list(itertools.combinations(range(n), k)) for k in range(n + 1)]
    place = [{s: i for i, s in enumerate(level)} for level in subsets]
    laplace = []
    for k in range(2, n + 1):
        below, size = place[k - 1], len(subsets[k - 1])
        cells = [(s[0] * n + t[j] + n * n * (j & 1), below[s[1:]] * size + below[t[:j] + t[j + 1:]])
                 for s in subsets[k] for t in subsets[k] for j in range(k)]
        laplace.append([itemgetter(*at) for at in zip(*cells)])
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
        moves.append(at)
    return laplace, moves, subsets, flat


@lru_cache(maxsize=None)
def _terms(n: int, product: bool):
    """The terms of C_0..C_n at size n for one kind (module docstring), built
    once per n and kind: ``a_at`` picks each term's signed det M_A[I, J] from
    every minor laid flat and then their negatives (``_layout``), and
    ``b_ats``, one per pi in G, its det Y0[P, R] from every minor of M_B laid
    flat and then their negatives, pi's move (``_layout``) taken at the
    term's place among the flat minors of Y0; ``groups`` holds the slice
    of each group (k, D), order by order; ``sign_at`` picks, for each sign
    vector with signs[0] = +1 in ``itertools.product((1, -1), repeat=n - 1)``
    order behind the +1, each group's sum, or its negative when its D holds
    an odd number of flipped signs, from the group sums and then their
    negatives; ``runs`` holds the slice of those picks that sums to each C_k,
    sign vector by sign vector."""
    _, moves, subsets, flat = _layout(n)
    terms, groups, ds, ends = [], [], [], [0]
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
        for d, group in itertools.groupby(by_d, itemgetter(0)):
            start = len(terms)
            terms.extend(group)
            groups.append(slice(start, len(terms)))
            ds.append(d)
        ends.append(len(ds))
    _, a_at, b_at = zip(*terms)
    sign_at, runs = [], []
    for tail in itertools.product((1, -1), repeat=n - 1):
        flipped = sum(1 << i for i, s in enumerate(tail, 1) if s < 0)
        runs += [slice(len(sign_at) + lo, len(sign_at) + hi) for lo, hi in zip(ends, ends[1:])]
        sign_at += [g + len(ds) * (bin(d & flipped).count("1") & 1) for g, d in enumerate(ds)]
    b_ats = [itemgetter(*map(move.__getitem__, b_at)) for move in moves]
    return itemgetter(*a_at), b_ats, groups, itemgetter(*sign_at), runs


def _minor_tables(m, n: int) -> list:
    """For k = 0..n, every minor det M[S, T] of order k of the rows m, as
    kernel scalars laid flat: S and, within each S, T run over the k-subsets
    of range(n) in lexicographic order. Order 1 is the entries; each order
    past it is one Laplace step on the order below (``_layout``): two
    gathers, one ``map(mul, ...)`` and the sum of each run of k products."""
    entries = [v for row in m for v in row]
    signed, tables = entries + list(map(neg, entries)), [[1], entries]
    for k, (row_at, below_at) in enumerate(_layout(n)[0], 2):
        tables.append(list(map(sum, zip(*[map(mul, row_at(signed), below_at(tables[-1]))] * k))))
    return tables


def _unpack(v: int, width: int) -> _GaussInt:
    """The Gaussian integer (r - i) + c i packed as v = r + c 2^width +
    i 2^(2 width), its digits r and c each of size below 2^(width - 1)
    (module docstring)."""
    half = 1 << (width - 1)
    r = (v + half) % (half << 1) - half
    v = (v - r) >> width
    c = (v + half) % (half << 1) - half
    return _GaussInt(r - ((v - c) >> width), c)


def _chis(a, b, n: int, product: bool):
    """Yield, for each signed permutation Q with signs[0] = +1 and
    permutation in G, C_0..C_n of chi_{M_A Q^T M_B Q} (``product``) or of
    chi_{M_A + Q^T M_B Q} as kernel scalars, for the rows a of M_A and b of
    M_B, from their minors taken once (module docstring). Q runs over G's
    elements and, within each, over the sign vectors, in the order of
    ``_layout`` and ``_terms``; each vector belongs to one Q alone."""
    a_at, b_ats, groups, sign_at, runs = _terms(n, product)
    flats = [[v for table in _minor_tables(m, n) for v in table] for m in (a, b)]
    width = 0
    if type(a[0][0]) is not int or type(b[0][0]) is not int:
        # Z[i] packed into one int: W = bits(a) + bits(b) + bits(T) + 2, the term count T being
        # where the last group stops, is wide enough for any digit of any C_k (module docstring)
        width = sum(max(abs(v.real) | abs(v.imag) for v in f).bit_length() for f in flats)
        width += groups[-1].stop.bit_length() + 2
        flats = [[v.real + (v.imag << width) for v in f] for f in flats]
    a_side, b_side = (f + list(map(neg, f)) for f in flats)
    a_side = a_at(a_side)
    for b_at in b_ats:
        terms = list(map(mul, a_side, b_at(b_side)))
        sums = list(map(sum, map(terms.__getitem__, groups)))
        picked = sign_at(sums + list(map(neg, sums)))
        coeffs = list(map(sum, map(picked.__getitem__, runs)))
        if width:
            coeffs = [_unpack(v, width) for v in coeffs]
        for i in range(0, len(coeffs), n + 1):
            yield coeffs[i:i + n + 1]
