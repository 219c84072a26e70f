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

Blocks of permutations, one pass each. G's permutations, in lexicographic
order, are cut into blocks of whole permutations of at most
``_BLOCK_TERMS`` terms in all, and every n <= 4 is one block, the whole
group. Per block, one gather takes each term's signed det M_A[I, J] from A's
signed flat minors, once for each pi in the block, and one its det Y0[P, R]
= eps(P) eps(R) det M_B[pi P, pi R] straight from B's; one
``map(mul, ...)`` forms every term. The terms come laid out by the size of
their group (k, D), so the sums of all the groups of one size, over every pi
in the block, come from one ``map(sum, ...)`` over fixed runs of that size.
A conjugate's C_k is the sum of its groups of order k, each negated when its
D holds an odd number of flipped signs. So one more gather, fixed once per
n, kind and block length, picks, order by order and for every (pi, signs)
of the block, each group's sum or its negative from the sums followed by
their negatives, and per order one ``map(sum, ...)`` over fixed runs of
those picks gives the column of C_k over the block's conjugates. Each
conjugate's vector, one place of every column, is formed from its own
(pi, signs), with no matrix built and no chi run, and only then added:
summed over the signs, the flips cancel, and that cancellation is the
identity the mean checks, so no sum over the signs is taken first.

Gaussian input on ints. Every step after the minors is linear in A's side
and in B's side, so when either form is complex each signed flat minor
z = x + yi is packed as the int x + y 2^W and the same loop runs on ints:
Kronecker substitution for Z[i] = Z[X]/(X^2 + 1) at X = 2^W. A product of
two packed minors is r + c X + i X^2 with r = x x', c = x y' + y x' and
i = y y', so each conjugate's packed coefficient is r + c X + i X^2, the
digits now sums of +-those over the terms of one C_k. Each vector is formed
so, in packed form, before it is added; the mean sums the packed C_k of all
N = 2^(n-1) |G| conjugates and decodes each total V = r + c X + i X^2 once,
as (r - i) + c i. Let a and b be the largest part of A's and of B's minors
(Y0's are B's, up to sign), of bit lengths bits(a) and bits(b), and T the
term count. A term's digits are at most a b, 2 a b and a b in size, C_k sums
at most T terms and V sums N of those, so each digit of V is at most
2 a b T N < 2^(bits(a) + bits(b) + bits(T) + bits(N) + 1). With W = bits(a)
+ bits(b) + bits(T) + bits(N) + 2 every digit thus lies in
[-(2^(W-1) - 1), 2^(W-1) - 1], and there the balanced residue of V mod 2^W
is r, that of (V - r) / 2^W is c, and i = (V - r - c X) / X^2, all exact;
so is the decode of any one conjugate's C_k, whose digits are smaller. A
digit of 2^(W-1) reads back as -2^(W-1) with a carry, and 2 a b T N can pass
2^(W-2), so W cannot be one bit smaller. Real input never packs or decodes.
"""

from __future__ import annotations

import itertools
from functools import lru_cache
from operator import add, itemgetter, mul, neg

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
    divided once; on complex input each packed total is decoded once."""
    d, ma, mb, _ = _pair_form(a, b, product)
    n = a.n
    width, blocks = _chis(ma, mb, n, product)
    total = [sum(map(sum, column)) for column in zip(*blocks)]
    if width:
        total = [_unpack(v, width) for v in total]
    return _from_int(total, d, [len(_group(n)) << (n - 1)] * (n + 1))


@lru_cache(maxsize=None)
def _layout(n: int):
    """What both means at size n share, built once per n:

    - ``laplace``: for each order k = 2..n, the two gathers of its Laplace
      step along the first row of S, det M[S, T] = sum_j (-1)^j M[S[0]][T[j]]
      det M[S[1:], T - T[j]], one index per (S, T, j) with (S, T) laid flat:
      the first from the entries of M laid flat and then their negatives, so
      (-1)^j comes with the index, the second from the minors of order k - 1;
    - ``subsets[k]``, the k-subsets, ``place[k]``, the place of each among
      them, and ``flat``, the place of each minor (P, R) when laid flat (order
      by order, each table by rows), for the term tables of ``_terms``."""
    subsets = [list(itertools.combinations(range(n), k)) for k in range(n + 1)]
    place = [{s: i for i, s in enumerate(level)} for level in subsets]
    laplace = []
    for k in range(2, n + 1):
        below, size = place[k - 1], len(subsets[k - 1])
        cells = [(s[0] * n + t[j] + n * n * (j & 1), below[s[1:]] * size + below[t[:j] + t[j + 1:]])
                 for s in subsets[k] for t in subsets[k] for j in range(k)]
        laplace.append([itemgetter(*at) for at in zip(*cells)])
    flat = {cell: i for i, cell in enumerate((s, t) for level in subsets for s in level for t in level)}
    return laplace, subsets, place, flat


# The most terms one pass of ``_chis`` takes. Every n <= 4 runs in one pass over the whole
# group (2,340 terms at most, the additive mean's at n = 4); past that a pass takes whole
# permutations up to this many terms, and the last pass may take fewer. One pass over the
# whole group at n = 6 made the real dense p/q means slower in process, additive 73 -> 80-88
# ms and multiplicative 36 -> 36-47 ms, and raised peak RSS from 22 to 72 and from 20 to 49
# MB; at n = 5 budgets of 1,024 to 16,384 terms timed within 0.4 ms of each other (Python
# 3.11, 2-vCPU Xeon VM)
_BLOCK_TERMS = 4096


@lru_cache(maxsize=None)
def _terms(n: int, product: bool):
    """The terms of C_0..C_n at size n for one kind (module docstring) and
    the passes of ``_chis`` over them, built once per n and kind: (T,
    widths, shapes), T the terms of one permutation and ``widths[k]`` the
    number of groups (k, D) of order k. G's permutations, in lexicographic
    order, are cut into blocks of as many as ``_BLOCK_TERMS`` allows, the
    last block maybe shorter, and ``shapes`` holds, per block length, full
    blocks first, (a_at, runs, sign_at, conjugates, b_ats):

    - ``a_at`` picks each term's signed det M_A[I, J], for every pi of a
      block, from every minor laid flat and then their negatives; a block's
      terms come by the size of their group, size by size, then pi by pi and
      group by group;
    - ``runs`` holds, per size, (the size, the number of groups of that
      size in a block), so that one ``map(sum, ...)`` over fixed runs of the
      size gives those groups' sums;
    - ``sign_at`` picks, for each order k, then each pi of the block, then
      each sign vector with signs[0] = +1 in ``itertools.product((1, -1),
      repeat=n - 1)`` order behind the +1, each group's sum of order k, or
      its negative when its D holds an odd number of flipped signs, from
      the block's group sums and then their negatives;
    - ``conjugates`` is the number of (pi, signs) in a block;
    - ``b_ats`` holds one gather per block of that length, in G's order:
      each term's det Y0[P, R] = eps(P) eps(R) det M_B[pi P, pi R], in
      ``a_at``'s order, from every minor of M_B laid flat and then their
      negatives."""
    _, subsets, place, flat = _layout(n)
    # one permutation's terms, each (k, D as a bit mask, A's signed place, the place of (P, R)),
    # sorted into its groups (k, D)
    terms = []
    for k, level in enumerate(subsets):
        # (I, J, P, R, the parity of the term's sign)
        if product:
            cells = [(s, t, t, s, k) for s in level for t in level]
        else:
            cells = [(i, j, tuple(x for x in s if x not in i), tuple(x for x in s if x not in j),
                      k + sum(map(s.index, i + j)))
                     for s in level for size in range(k + 1)
                     for i, j in itertools.product(itertools.combinations(s, size), repeat=2)]
        terms += sorted((k, sum(1 << x for x in set(i) ^ set(j)), flat[i, j] + len(flat) * (sign & 1), flat[p, r])
                        for i, j, p, r, sign in cells)
    # each group as (k, D, its terms' places in A's side, their places (P, R)), by order and
    # by size
    groups = [(k, d, *zip(*(term[2:] for term in group)))
              for (k, d), group in itertools.groupby(terms, itemgetter(0, 1))]
    orders, sizes = [[] for _ in range(n + 1)], {}
    for g in groups:
        orders[g[0]].append(g)
        sizes.setdefault(len(g[2]), []).append(g)
    flips = [sum(1 << i for i, s in enumerate(tail, 1) if s < 0) for tail in itertools.product((1, -1), repeat=n - 1)]
    # one int object per signed place of B's minors, which every gather of B's side shares
    places = list(range(2 * len(flat)))

    def moved(perm):
        # for each minor (P, R) laid flat, the place of det Y0[P, R] = eps(P) eps(R)
        # det M_B[pi P, pi R] among B's minors laid flat and then their negatives
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
        return at

    group = _group(n)
    per = min(len(group), max(1, _BLOCK_TERMS // len(terms)))
    shapes = []
    for m, blocks in itertools.groupby((group[i:i + per] for i in range(0, len(group), per)), len):
        # a block of m permutations: each term's place among the minors (P, R) of the block's
        # permutations laid side by side, and each group's sum's place among the block's
        a_at, minors_at, runs, where = [], [], [], {}
        for size, bucket in sizes.items():
            for j in range(m):
                for k, d, a_places, b_places in bucket:
                    where[j, k, d] = len(where)
                    a_at += a_places
                    minors_at += map((j * len(flat)).__add__, b_places)
            runs.append((size, m * len(bucket)))
        sign_at = []
        for k, order in enumerate(orders):
            # sign vector by sign vector, each group's shift to its negative's place, or 0
            shifts = [len(where) * (bin(d & flipped).count("1") & 1) for flipped in flips for _, d, _, _ in order]
            for j in range(m):
                sign_at += map(add, [where[j, k, d] for _, d, _, _ in order] * len(flips), shifts)
        b_ats = []
        for block in blocks:
            moves = list(map(places.__getitem__, itertools.chain.from_iterable(map(moved, block))))
            b_ats.append(itemgetter(*map(moves.__getitem__, minors_at)))
        shapes.append((itemgetter(*a_at), runs, itemgetter(*sign_at), m << (n - 1), b_ats))
    widths = list(map(len, orders))
    return len(terms), widths, shapes


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
    """(W, blocks): C_0..C_n of chi_{M_A Q^T M_B Q} (``product``) or of
    chi_{M_A + Q^T M_B Q}, as kernel scalars, for each signed permutation Q
    with signs[0] = +1 and permutation in G, for the rows a of M_A and b of
    M_B, from their minors taken once (module docstring). ``blocks`` holds
    one entry per block of ``_terms``, in G's order: the columns C_0, ...,
    C_n over the block's (pi, signs), pi in lexicographic order and, within
    each, the sign vectors. Each conjugate's vector is its place in every
    column and belongs to that Q alone. W is 0 on real input; otherwise
    every coefficient is packed at width W, which is wide enough for the sum
    of each C_k over all the conjugates."""
    term_count, widths, shapes = _terms(n, product)
    flats = [[v for table in _minor_tables(m, n) for v in table] for m in (a, b)]
    width = 0
    if type(a[0][0]) is not int or type(b[0][0]) is not int:
        # Z[i] packed into one int: W = bits(a) + bits(b) + bits(T) + bits(N) + 2, for T terms
        # and N conjugates, is wide enough for any digit of the sum of a C_k over all of them
        # (module docstring)
        width = sum(max(abs(v.real) | abs(v.imag) for v in f).bit_length() for f in flats)
        width += term_count.bit_length() + (len(_group(n)) << (n - 1)).bit_length() + 2
        flats = [[v.real + (v.imag << width) for v in f] for f in flats]
    a_side, b_side = (f + list(map(neg, f)) for f in flats)
    blocks = []
    for a_at, runs, sign_at, conjugates, b_ats in shapes:
        a_terms = a_at(a_side)
        for b_at in b_ats:
            terms, sums = map(mul, a_terms, b_at(b_side)), []
            for size, groups in runs:
                sums += itertools.islice(map(sum, zip(*[terms] * size)), groups)
            picked = iter(sign_at(sums + list(map(neg, sums))))
            blocks.append([list(itertools.islice(map(sum, zip(*[picked] * w)), conjugates)) for w in widths])
    return width, blocks
