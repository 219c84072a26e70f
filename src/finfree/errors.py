"""Exception hierarchy shared across the toolkit.

Every error carries a short machine-readable ``code`` so the CLI can emit
stable diagnostics without parsing messages.

Every size guard is one row of ``GUARDS``, its limit and its refusal text,
with what the limit costs in the comment above the row; ``_guard`` is the one
check that applies them.
"""

from __future__ import annotations


class FinFreeError(ValueError):
    """Base class for all toolkit errors."""

    code = "error"


class ParseError(FinFreeError):
    code = "parse-error"


class DegreeMismatchError(FinFreeError):
    code = "degree-mismatch"


class NonMonicError(FinFreeError):
    code = "non-monic"


class DimensionMismatchError(FinFreeError):
    code = "dimension-mismatch"


class SizeGuardError(FinFreeError):
    code = "size-guard"


class IndexRangeError(FinFreeError):
    code = "index-out-of-range"


class UnsupportedPairError(FinFreeError):
    code = "unsupported-pair"


# name -> (limit, refusal). ``_guard`` refuses a value above the limit; the refusal
# is formatted with the value, the limit and the fields the caller names
GUARDS = {
    # n for chi by Berkowitz. On dense p/q entries with |p|, q <= 10 at n = 64, a cold
    # `charpoly` takes 1.1 s (real) and 2.5 s (Gaussian), `cumulants` 1.3 and 3.3 s,
    # `check-ffp` 2.5-3.1 and 7.5-9.0 s and `expect --mc --samples 1` 2.4 and 6.9 s
    # (Python 3.11, 2-vCPU Xeon VM). The cost grows about as n^3.7: at n = 96 `charpoly`
    # takes 5.0 and 15.6 s and a multiplicative `check-ffp` 16.8 s, so a 500 x 500 file
    # would take about an hour. Triangular input skips Berkowitz and this limit: its chi
    # costs O(n^2) int products, and `char_poly` takes 85 ms in process at n = 500
    "chi": (64, "characteristic polynomial refused for n={value} > {limit}"),
    # the degree of both convolutions. On p/q coefficients with |p|, q <= 10 at degree
    # 250, `boxplus` takes 0.13-0.15 s in process on real input and 0.4-0.6 s on Gaussian
    # input, and a cold `convolve --kind additive` 0.3 and 0.8 s (`boxtimes` takes under
    # 10 ms). On the chis of two diagonal 250 x 250 p/q matrices, whose coefficients'
    # denominators run far past the matrices' scale, `boxplus` takes 0.2-0.3 s, a cold
    # `convolve` on the two `charpoly` outputs 0.4-0.45 s, and `expect --mc --samples 1` on
    # the pair 1.6-3.3 s, mostly in reading its 0.3 MB files. `sum-moments` reaches this
    # guard through `boxplus` too. At degree 500 `boxplus` takes 2.4-2.6 s (real), 6.8-7.3 s
    # (Gaussian) and 3.8-3.9 s (the diagonal chis), nearly all in the n^2 / 2 products
    # (n-i)! A_i (n-j)! B_j, whose factors grow to thousands of digits; each doubling costs
    # 12-18x, and a 30 KB JSON file reaches hours (Python 3.11, 2-vCPU Xeon VM)
    "convolution": (250, "convolution refused for degree {value} > {limit}"),
    # all 2^n principal minors from the Sylvester tree on M + tI. At n = 16, on p/q entries
    # with |p|, q <= 10 (each part when Gaussian), `minor_table` takes 0.75-1.1 s in process on
    # a dense rational matrix, 3.1-4.1 s on a dense Gaussian one, 2.7-3.5 s on a Gaussian
    # skew-symmetric one, 0.7-1.0 s on a rank-one balanced one, 0.6-1.0 s on a sparse one (25%
    # p/q) and 0.6-0.9 s on a sign 0/+-1 one (three runs each, Python 3.11, 2-vCPU Xeon VM,
    # loaded, so read +-20%). The cost depends on n and entry size, not on where zeros fall.
    # A cold `check-balanced` takes 4.3-5.1 s on the dense Gaussian matrix and 2.9-3.7 s on the
    # skew-symmetric one, printing up to 6.8 MB. At 17 it takes 8.2-10.9 s on those two, peaks
    # at 92-139 MB and prints up to 14.8 MB, so the limit stays 16
    "minors": (16, "minor enumeration refused for n={value} > {limit}"),
    # moments m_1..m_count (of a matrix or, past the degree, of a polynomial), by Newton's
    # identities on integer forms. At 1000, a cold `moments --k` takes 0.25 s on a dense
    # rational 3x3, 0.75 s on a Gaussian one, 0.55 s on a dense rational 8x8 and 1.0 s on a
    # Gaussian one, printing 1.3-7.8 MB; `sum-moments --count`, whose moments come from the
    # [+] of the two chis, takes 0.2 s on the rational 3x3, 1.0 s on the Gaussian 3x3, 0.75 s
    # on the rational 8x8 and 1.9-2.0 s on the Gaussian 8x8 (Python 3.11, 2-vCPU Xeon VM).
    # Each doubling of the count costs 6-7x in process (1000 -> 2000: moments of the
    # rational 8x8 0.2 -> 1.2 s, the sum path 0.44 -> 2.8 s, and 0.9 -> 6.4 s on the
    # Gaussian 8x8). The limit bounds the count only: at the default count, `sum-moments` on
    # two diagonal 250 x 250 p/q matrices takes 16-19 s cold, its Newton steps on the ints
    # of an 88,000-bit integer form
    "moments": (1000, "moment count refused: {value} > {limit}"),
    # 2^(n-1) |G| conjugates, G the group of ``signed_perms`` (3,840 at n = 6): each mean
    # takes a signed sum of grouped minor products per coefficient of each, on ints, Gaussian
    # minors packed into one int, in passes over blocks of permutations. At n = 6 a dense p/q
    # pair, |p|, q <= 10, takes 0.07 s (additive) and 0.036 s (multiplicative) in process when
    # rational, 0.14-0.15 and 0.06 s when Gaussian; a cold `expect` takes 0.22 and
    # 0.15-0.16 s, and 0.29-0.30 and 0.18 s (Python 3.11, 2-vCPU Xeon VM, two pairs, the
    # medians of twenty runs of each mean in process and of eight cold per pair). At n = 7 no
    # group smaller than A7 will do: 2^6 * 2,520 = 161,280 conjugates, 42 times as many, and
    # C(14, 7) = 3,432 minors of B gathered per permutation, 8.6 million indices in all
    "signed-perms": (6, "signed-permutation enumeration refused for n={value} > {limit}"),
    # the subset DP takes about 0.11 s for a dense rational 12x12 and 0.32 s for a
    # Gaussian one (Python 3.11, 2-vCPU Xeon VM); each step of n doubles it
    "cycle-sums": (12, "cycle-sum enumeration refused for n={value} > {limit}"),
    # the sum of n factorial-binomial products takes about 0.22 s at n = 1600, 0.44 s
    # at 2000 and 1.7 s at 3200 (Python 3.11, 2-vCPU Xeon VM); each doubling costs ~7x
    "rank-bound": (2000, "rank bound refused for n={value} > {limit}"),
    # |exponent| of "<number>e<exponent>": 1e10000 parses in 0.3 ms and prints its
    # 10001 digits in about 2 ms; 1e100000 takes 8 ms and 0.22 s, 1e1000000 0.31 s
    # to parse (Python 3.11, 2-vCPU Xeon VM). The cost grows faster than the
    # exponent, and an 11-character "1e999999999" would need a 415 MB int.
    "exponent": (10_000, "exponent in {text!r} exceeds {limit}"),
    # A Monte-Carlo average may cost samples * max(n, 3)^2 <= 1,800,000. A Haar
    # sample costs about 13 us at n = 3, 70-80 us at n = 8 and 360-460 us at n = 20, so
    # the most samples allowed (200000, 28125 and 4500) take 2.7, 2.0-2.3 and 1.6-2.1 s
    # in process, additive and multiplicative (Python 3.11, numpy 2.4, 2-vCPU Xeon VM)
    "monte-carlo": (
        1_800_000,
        "Monte-Carlo average refused for {samples} samples at n={n}: samples * max(n, 3)^2 > {limit}",
    ),
}


def _guard(name: str, value, **fields):
    """``value``, or ``SizeGuardError`` with the refusal of the guard ``name``
    when the value is above its limit."""
    limit, refusal = GUARDS[name]
    if value > limit:
        raise SizeGuardError(refusal.format(value=value, limit=limit, **fields))
    return value
