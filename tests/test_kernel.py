"""The integer kernel behind char_poly, moments, the two convolutions, FFP
verdicts, @, det, minor tables and the signed-permutation average, checked
against independent oracles on real and Gaussian inputs with zero rows and
coefficients, singular matrices, large denominators and pairs in finite free
position; and the Matrix that stores its integer form, checked against the
GaussianRational operations on its rows."""

import itertools
import math
import operator
import random
from fractions import Fraction
from unittest import mock

import pytest
from hypothesis import Phase, given, settings
from hypothesis import strategies as st

from finfree import (
    ADDITIVE,
    MULTIPLICATIVE,
    DegreeMismatchError,
    FamilyId,
    GaussianRational,
    Matrix,
    MomentVector,
    NonMonicError,
    Polynomial,
    boxplus,
    boxtimes,
    char_poly,
    check_ffp,
    cumulants_of_matrix,
    cycle_sums,
    expected_charpoly_signed_perms,
    is_additive_ffp,
    is_multiplicative_ffp,
    is_member,
    minor_table,
    principal_minors,
    sample_member,
)
import finfree.matrices as matrix_module
from finfree import ffp, kernel, signed_perms
from finfree.errors import GUARDS, IndexRangeError
from finfree.families import (
    PROBE_MAGNITUDES,
    _conjugated_triangular_balanced,
    _diagonal_probes,
    _first_failure,
    _rank_one_balanced,
)
from finfree.kernel import (
    _berkowitz_gaussian,
    _berkowitz_int,
    _char_coeffs,
    _det_int,
    _join,
    _triangular_diagonal,
)
from finfree.matrices import moment_vector_of
from finfree.scalars import _GaussInt
from helpers import (
    _int_form,
    add_entrywise,
    average,
    balanced_by_minor_table,
    boxplus_gaussian,
    boxtimes_gaussian,
    char_coeffs_by_newton,
    charpoly_faddeev_fraction,
    charpoly_faddeev_int,
    charpoly_via_minors,
    cofactor_det,
    conjugate_forms,
    conjugated_triangular_by_products,
    ffp_report_oracle,
    matmul_entrywise,
    minors_by_elimination,
    moments_by_power_sums,
    moments_by_powers,
    _kernel_rows,
    pair,
    rank_one_by_fractions,
    scale_entrywise,
    signed_conjugate,
    signed_perm_mean_per_conjugate,
    signed_permutations,
    sub_entrywise,
    transpose_entrywise,
)

FRACTIONS = st.builds(
    Fraction,
    st.integers(-10**6, 10**6) | st.integers(-10, 10),
    st.integers(1, 10**6) | st.integers(1, 10),
)
SMALL_FRACTIONS = st.builds(Fraction, st.integers(-5, 5), st.integers(1, 6))


def _signed(numerators, denominators):
    """Nonzero fractions, drawn with no filter: a sign times p/q, p and q > 0."""
    return st.builds(lambda sign, p, q: Fraction(sign * p, q), st.sampled_from((1, -1)), numerators, denominators)


# FRACTIONS and SMALL_FRACTIONS without zero
NONZERO_FRACTIONS = _signed(st.integers(1, 10**6) | st.integers(1, 10), st.integers(1, 10**6) | st.integers(1, 10))
SMALL_NONZERO_FRACTIONS = _signed(st.integers(1, 5), st.integers(1, 6))


def entries(gaussian: bool, parts=FRACTIONS):
    nonzero = st.builds(GaussianRational, parts, parts if gaussian else st.just(0))
    return st.just(GaussianRational(0)) | nonzero


@st.composite
def matrices(draw, n=None, max_n=5):
    n = draw(st.integers(1, max_n)) if n is None else n
    entry = entries(draw(st.booleans()), FRACTIONS if n <= 5 else SMALL_FRACTIONS)
    rows = draw(st.lists(st.lists(entry, min_size=n, max_size=n), min_size=n, max_size=n))
    shape = draw(st.sampled_from(("dense", "zero-row", "singular")))
    if shape == "zero-row":
        rows[draw(st.integers(0, n - 1))] = [GaussianRational(0)] * n
    elif shape == "singular" and n > 1:
        i, j = draw(st.lists(st.integers(0, n - 1), min_size=2, max_size=2, unique=True))
        factor = draw(entry)
        rows[j] = [factor * x for x in rows[i]]
    return Matrix(rows)


@st.composite
def pairs(draw, max_n=5):
    n = draw(st.integers(1, max_n))
    return draw(matrices(n=n)), draw(matrices(n=n))


KERNEL = settings(max_examples=80, deadline=None)


@KERNEL
@given(matrices())
def test_char_poly_matches_minor_sums_and_rational_recurrence(m):
    p = char_poly(m)
    assert p == charpoly_via_minors(m)
    assert p == charpoly_faddeev_fraction(m)


@KERNEL
@given(matrices())
def test_det_and_minor_table_match_cofactor_expansion(m):
    assert m.det() == cofactor_det([list(row) for row in m.rows])
    table = minor_table(m)
    for k, entries_k in table.items():
        for subset, value in entries_k:
            idx = [i - 1 for i in subset]
            assert value == cofactor_det([[m.rows[i][j] for j in idx] for i in idx])


@KERNEL
@given(pairs())
def test_product_matches_entrywise_sums(ab):
    a, b = ab
    assert (a @ b).rows == tuple(tuple(row) for row in matmul_entrywise(a.rows, b.rows))


@st.composite
def dense_nonsingular_pairs(draw, max_n=4):
    """(A, B) of one size n <= max_n, every entry nonzero and det A, det B
    nonzero."""
    n = draw(st.integers(1, max_n))
    gaussian = draw(st.booleans())
    nonzero = st.builds(GaussianRational, FRACTIONS, FRACTIONS if gaussian else st.just(0)).filter(bool)
    square = st.lists(st.lists(nonzero, min_size=n, max_size=n), min_size=n, max_size=n)
    return tuple(draw(square.map(Matrix).filter(lambda m: m.det())) for _ in "ab")


# no shrink phase: each shrink step reruns a mean of up to 96 conjugates and its
# oracles over up to 384, so a failure is reported as drawn, not after minutes of
# shrinking. Every example checks both kinds on one dense nonsingular pair besides
# one from ``pairs``, whose zero rows and singular matrices hide a wrong sign of
# C_n = (-1)^n det M_A det M_B in the product's mean
@settings(max_examples=6, deadline=None, phases=[p for p in Phase if p is not Phase.shrink])
@given(dense_nonsingular_pairs(), pairs(max_n=4))
def test_signed_perm_average_matches_per_conjugate_char_polys(dense, other):
    for (a, b), kind in itertools.product((dense, other), ("additive", "multiplicative")):
        polys = []
        for perm, signs in signed_permutations(a.n):
            conj = signed_conjugate(b, perm, signs)
            polys.append(char_poly(a + conj if kind == "additive" else a @ conj))
        mean = expected_charpoly_signed_perms(a, b, kind)
        assert mean == average(polys)
        assert mean == signed_perm_mean_per_conjugate(a, b, kind)


def dense_pair(n: int, entries_of: str):
    """A fixed dense pair of p/q entries, |p|, q <= 10: both real, both
    Gaussian, or a real A with a Gaussian B."""
    rng = random.Random(f"{n}-{entries_of}")

    def entry(gaussian):
        re = Fraction(rng.randint(-10, 10), rng.randint(1, 10))
        return GaussianRational(re, Fraction(rng.randint(-10, 10), rng.randint(1, 10)) if gaussian else 0)

    gaussian = {"real": (False, False), "gaussian": (True, True), "mixed": (False, True)}[entries_of]
    return tuple(Matrix([[entry(g) for _ in range(n)] for _ in range(n)]) for g in gaussian)


@pytest.mark.parametrize("kind", [ADDITIVE, MULTIPLICATIVE])
@pytest.mark.parametrize("entries_of", ["real", "gaussian", "mixed"])
@pytest.mark.parametrize("n", [1, 2, 3, 4, 5])
def test_signed_perm_mean_matches_per_conjugate_oracle_at_n_1_and_5(n, entries_of, kind):
    """The mean over G's conjugates equals the full-group oracle's over all
    2^(n-1) n! and the convolution, at n = 1..5 (the name keeps the sizes it
    started with)."""
    a, b = dense_pair(n, entries_of)
    mean = expected_charpoly_signed_perms(a, b, kind)
    assert mean == signed_perm_mean_per_conjugate(a, b, kind)
    assert mean == (boxplus if kind == ADDITIVE else boxtimes)(char_poly(a), char_poly(b))


@pytest.mark.parametrize("kind", [ADDITIVE, MULTIPLICATIVE])
def test_signed_perm_mean_at_the_limit_is_the_convolution(kind):
    """At the signed-perms guard's limit, n = 6, over PGL(2, 5)'s 3,840
    conjugates, the mean of a dense non-symmetric real pair is the
    convolution (the full-group oracle there takes seconds per kind, and runs
    in ``tests/cold_guards.py``)."""
    a, b = dense_pair(GUARDS["signed-perms"][0], "real")
    mean = expected_charpoly_signed_perms(a, b, kind)
    assert mean == (boxplus if kind == ADDITIVE else boxtimes)(char_poly(a), char_poly(b))


@pytest.mark.parametrize("entries_of", ["real", "gaussian"])
@pytest.mark.parametrize("kind", [ADDITIVE, MULTIPLICATIVE])
def test_signed_perm_mean_forms_one_vector_per_conjugate(monkeypatch, kind, entries_of):
    """At n = 4 either mean forms 96 coefficient vectors, one per conjugate
    of A4, from the minors of A and B alone: it builds no conjugate, adds or
    multiplies no matrices, scans none for triangularity and runs no chi and
    no Berkowitz step."""
    a, b = dense_pair(4, entries_of)
    expected = signed_perm_mean_per_conjugate(a, b, kind)

    def refused(*args):
        raise AssertionError("a sum, a product or a chi on the signed-permutation path")

    for module in (kernel, matrix_module, signed_perms):
        for name in ("_char_coeffs", "_iadd", "_gmul", "_triangular_diagonal", "_berkowitz_int", "_berkowitz_gaussian"):
            if hasattr(module, name):
                monkeypatch.setattr(module, name, refused)
    chis, vectors = signed_perms._chis, []

    def counted(*args):
        width, blocks = chis(*args)
        vectors.extend(coeffs for columns in blocks for coeffs in zip(*columns))
        return width, blocks

    monkeypatch.setattr(signed_perms, "_chis", counted)
    assert expected_charpoly_signed_perms(a, b, kind) == expected
    assert len(vectors) == 96
    assert all(len(coeffs) == 5 for coeffs in vectors)


def test_a_mean_builds_the_term_tables_of_its_own_kind_alone():
    """From fresh caches, a multiplicative mean at n = 4 builds the
    multiplicative term table and not the additive one, which is built only
    when asked for."""
    signed_perms._terms.cache_clear()
    expected_charpoly_signed_perms(*dense_pair(4, "real"), MULTIPLICATIVE)
    info = signed_perms._terms.cache_info()
    assert (info.misses, info.currsize) == (1, 1)
    signed_perms._terms(4, False)
    info = signed_perms._terms.cache_info()
    assert (info.misses, info.currsize) == (2, 2)


def conjugate_vectors(ma, mb, n, product):
    """The vectors C_0..C_n that ``_chis`` forms, one per conjugate in its
    order, each read back from its packed ints when the input is complex."""
    width, blocks = signed_perms._chis(ma, mb, n, product)
    for columns in blocks:
        for coeffs in zip(*columns):
            yield [signed_perms._unpack(v, width) for v in coeffs] if width else list(coeffs)


def each_conjugate_vector_is_chi_of_its_explicit_form(n, entries_of, kind):
    """Every vector that the mean of ``kind`` adds is C_0..C_n of chi of its
    own conjugate M_A + Q^T M_B Q or M_A Q^T M_B Q, built in full at the
    pair's scale, in the oracle's order of (perm, signs) over G's
    permutations; the pairs are not symmetric, so B's minor at (pi P, pi R)
    is told from the one at (pi R, pi P). At n = 5 the group spans more than
    one block of ``_terms``, and the multiplicative mean's last block is
    short."""
    if n == 5:
        shapes = signed_perms._terms(n, kind == MULTIPLICATIVE)[2]
        assert sum(len(b_ats) for *_, b_ats in shapes) > 1
        assert len(shapes) == 1 + (kind == MULTIPLICATIVE)
    a, b = dense_pair(n, entries_of)
    assert a != a.transpose() and b != b.transpose() or n == 1
    group = signed_perms._group(n)
    d, forms = conjugate_forms(a, b, kind, group)
    product = kind == MULTIPLICATIVE
    scale, ma, mb, _ = matrix_module._pair_form(a, b, product)
    assert d == scale
    count = 0
    for form, coeffs in zip(forms, conjugate_vectors(ma, mb, n, product), strict=True):
        assert coeffs == _char_coeffs(_kernel_rows(form), n)
        count += 1
    assert count == 2 ** (n - 1) * len(group)


@pytest.mark.parametrize("entries_of", ["real", "gaussian", "mixed"])
@pytest.mark.parametrize("n", [1, 2, 3, 4, 5])
def test_each_product_conjugate_vector_is_chi_of_its_explicit_product(n, entries_of):
    """``each_conjugate_vector_is_chi_of_its_explicit_form``, multiplicative."""
    each_conjugate_vector_is_chi_of_its_explicit_form(n, entries_of, MULTIPLICATIVE)


@pytest.mark.parametrize("entries_of", ["real", "gaussian", "mixed"])
@pytest.mark.parametrize("n", [1, 2, 3, 4, 5])
def test_each_sum_conjugate_vector_is_chi_of_its_explicit_sum(n, entries_of):
    """``each_conjugate_vector_is_chi_of_its_explicit_form``, additive."""
    each_conjugate_vector_is_chi_of_its_explicit_form(n, entries_of, ADDITIVE)


@pytest.mark.parametrize("n, order", [(1, 1), (2, 2), (3, 3), (4, 12), (5, 20), (6, 120)])
def test_each_group_is_k_homogeneous_for_every_k(n, order):
    """G at each n up to the signed-perms guard's limit is a group of the
    stated order, in lexicographic order, and moves the k-subsets of range(n)
    in one orbit for every k."""
    assert n <= GUARDS["signed-perms"][0]
    group = signed_perms._group(n)
    assert len(group) == order and list(group) == sorted(set(group))
    assert tuple(range(n)) in group
    elements = set(group)
    assert all(tuple(g[i] for i in h) in elements for g in group for h in group)
    for k in range(n + 1):
        orbit = {tuple(sorted(g[i] for i in range(k))) for g in group}
        assert orbit == set(itertools.combinations(range(n), k))


@pytest.fixture
def wrong_group(monkeypatch):
    """Swap G at one n for given generators, with G, the layouts and the
    term tables, whose gathers are built from G, built again before and
    after."""

    def rebuild():
        signed_perms._group.cache_clear()
        signed_perms._layout.cache_clear()
        signed_perms._terms.cache_clear()

    def swap(n, generators):
        monkeypatch.setitem(signed_perms._GENERATORS, n, generators)
        rebuild()

    yield swap
    rebuild()


@pytest.mark.parametrize("kind", [ADDITIVE, MULTIPLICATIVE])
@pytest.mark.parametrize("n, generators, order", [
    (4, ((1, 2, 3, 0), (0, 3, 2, 1)), 8),  # D4: the square's 2-subsets split into sides and diagonals
    (5, ((1, 2, 3, 4, 0),), 5),  # C5: the pentagon's split into sides and diagonals
])
def test_a_transitive_group_that_is_not_2_homogeneous_changes_the_mean(wrong_group, n, generators, order, kind):
    """D4 at n = 4 and C5 at n = 5 are transitive on range(n) but not on its
    2-subsets; in place of G each gives a mean that is not the convolution,
    so the tests can tell a wrong group from a right one."""
    a, b = dense_pair(n, "real")
    right = expected_charpoly_signed_perms(a, b, kind)
    wrong_group(n, generators)
    assert len(signed_perms._group(n)) == order
    assert expected_charpoly_signed_perms(a, b, kind) != right


@st.composite
def minor_inputs(draw, n=None):
    """An n x n integer form, n <= 5 unless given, dense or with a zero row, a
    zero column or rank one."""
    n = draw(st.integers(1, 5)) if n is None else n
    gaussian = draw(st.booleans())
    part = st.integers(-10**6, 10**6) | st.integers(-3, 3)

    def cells(count):
        values = draw(st.lists(part, min_size=count, max_size=count))
        if not gaussian:
            return values
        return [_GaussInt(x, y) for x, y in zip(values, draw(st.lists(part, min_size=count, max_size=count)))]

    shape = draw(st.sampled_from(("dense", "zero-row", "zero-column", "rank-one")))
    if shape == "rank-one":
        u, v = cells(n), cells(n)
        rows = [[x * y for y in v] for x in u]
    else:
        flat = cells(n * n)
        rows = [flat[i * n:(i + 1) * n] for i in range(n)]
        zero = rows[0][0] * 0
        i = draw(st.integers(0, n - 1))
        if shape == "zero-row":
            rows[i] = [zero] * n
        elif shape == "zero-column":
            for row in rows:
                row[i] = zero
    return _join(*kernel._split(rows))


@KERNEL
@given(minor_inputs())
def test_minor_tables_match_det_of_every_block(m):
    """Every k x k minor det M[S, T] of the Laplace tables, laid flat over
    the lexicographic k-subsets S and then T, equals Bareiss' det of the
    S x T block."""
    n = len(m)
    tables = signed_perms._minor_tables(m, n)
    assert len(tables) == n + 1 and tables[0] == [1]
    for k in range(1, n + 1):
        subsets = list(itertools.combinations(range(n), k))
        assert tables[k] == [_det_int([[m[i][j] for j in t] for i in s]) for s in subsets for t in subsets]


@st.composite
def minor_input_pairs(draw):
    """Two ``minor_inputs`` of one size n <= 4, each drawn on its own."""
    n = draw(st.integers(1, 4))
    return draw(minor_inputs(n)), draw(minor_inputs(n))


@KERNEL
@given(minor_input_pairs(), st.sampled_from((ADDITIVE, MULTIPLICATIVE)))
def test_sum_chis_add_up_to_the_chis_of_explicit_sums(pair, kind):
    """On integer forms with a zero row, a zero column or rank one and parts
    up to 10^6, the vectors of ``_chis`` of either kind sum to the chis of
    G's explicit conjugates M_A + Q^T M_B Q or M_A Q^T M_B Q (the name keeps
    the kind it started with)."""
    ma, mb = pair
    n = len(ma)
    a, b = (Matrix([[GaussianRational(v.real, v.imag) for v in row] for row in m]) for m in pair)
    d, forms = conjugate_forms(a, b, kind, signed_perms._group(n))
    assert d == 1
    explicit = [_char_coeffs(_kernel_rows(form), n) for form in forms]
    chis = conjugate_vectors(ma, mb, n, kind == MULTIPLICATIVE)
    assert [sum(c) for c in zip(*chis)] == [sum(c) for c in zip(*explicit)]


@st.composite
def wide_pairs(draw):
    """(A, B) of one size n <= 5 with integer parts up to 10^30 in size, far
    past ``minor_inputs``' 10^6, so that the packing width grows with them:
    both Gaussian, or one real and the other Gaussian."""
    n = draw(st.integers(1, 5))
    part = st.integers(-10**30, 10**30) | st.integers(-3, 3)

    def matrix(gaussian):
        entry = st.builds(GaussianRational, part, part if gaussian else st.just(0))
        return Matrix(draw(st.lists(st.lists(entry, min_size=n, max_size=n), min_size=n, max_size=n)))

    return tuple(map(matrix, draw(st.sampled_from(((True, True), (False, True), (True, False))))))


@settings(max_examples=30, deadline=None)
@given(wide_pairs(), st.sampled_from((ADDITIVE, MULTIPLICATIVE)))
def test_gaussian_and_mixed_means_with_parts_up_to_10_30_are_the_convolution(pair, kind):
    """The packed Gaussian means, on parts up to 10^30, equal the
    convolution of the two chis."""
    a, b = pair
    mean = expected_charpoly_signed_perms(a, b, kind)
    assert mean == (boxplus if kind == ADDITIVE else boxtimes)(char_poly(a), char_poly(b))


@pytest.mark.parametrize("width", [2, 3, 17, 64, 200])
def test_unpack_reads_each_digit_up_to_one_below_half_the_base(width):
    """Digits r, c, i of +-(2^(width-1) - 1) and 0 read back as the Gaussian
    integer (r - i) + c i; a digit r or c of 2^(width-1) does not, so the
    width of the packed means cannot be one bit smaller."""
    edge = (1 << (width - 1)) - 1
    for r, c, i in itertools.product((-edge, 0, edge), repeat=3):
        assert signed_perms._unpack(r + (c << width) + (i << 2 * width), width) == _GaussInt(r - i, c)
    for r, c in ((edge + 1, 0), (0, edge + 1)):
        assert signed_perms._unpack(r + (c << width), width) != _GaussInt(r, c)


@pytest.mark.parametrize("kind", [ADDITIVE, MULTIPLICATIVE])
def test_a_real_mean_never_unpacks(monkeypatch, kind):
    """Real input runs on its own ints: neither mean decodes a packed int."""
    a, b = dense_pair(4, "real")
    monkeypatch.setattr(signed_perms, "_unpack", None)
    mean = expected_charpoly_signed_perms(a, b, kind)
    assert mean == (boxplus if kind == ADDITIVE else boxtimes)(char_poly(a), char_poly(b))


# counts k where s = ceil(sqrt(k)) baby steps change: 1, 2 (s = k), 4, 5 (s = 2, 3), 9, 10
# (s = 3, 4); as n, for the power sums that feed the Newton oracle, and as moment counts
BABY_STEP_BOUNDARIES = (1, 2, 4, 5, 9, 10)


@KERNEL
@given(st.sampled_from(BABY_STEP_BOUNDARIES).flatmap(lambda n: matrices(n=n)))
def test_power_sum_char_poly_across_baby_step_counts(m):
    p = char_poly(m)
    assert p == charpoly_faddeev_int(m)
    assert list(map(pair, _char_coeffs(m._m, m.n))) == char_coeffs_by_newton(_int_form(m)[1])
    if m.n <= 5:
        assert p == charpoly_via_minors(m)
    else:
        # cofactor expansion is too slow here; sum the Bareiss minor table instead
        table = minor_table(m)
        sums = [sum((v for _, v in table[k]), GaussianRational(0)) * (-1) ** k for k in range(m.n + 1)]
        assert list(p.coeffs) == sums


@KERNEL
@given(
    matrices(max_n=8),
    st.sampled_from(("zero", "one", "n", "n+3", "3n+1")) | st.sampled_from(BABY_STEP_BOUNDARIES),
)
def test_moment_vector_matches_repeated_powers(m, which):
    """Newton's identities on the cached chi against entrywise matrix powers
    and against traces of integer powers on the baby-step/giant-step
    schedule, at counts past the degree and at each change of baby-step
    count. A count of zero is refused."""
    count = {"zero": 0, "one": 1, "n": m.n, "n+3": m.n + 3, "3n+1": 3 * m.n + 1}.get(which, which)
    if count == 0:
        with pytest.raises(IndexRangeError, match="moment count must be >= 1, got 0"):
            moment_vector_of(m, count)
        return
    moments = moment_vector_of(m, count)
    assert moments == moments_by_powers(m, count)
    assert moments == moments_by_power_sums(m, count)


@KERNEL
@given(pairs())
def test_ffp_lhs_matches_char_poly_of_sum_and_product(ab):
    a, b = ab
    assert is_additive_ffp(a, b).lhs == char_poly(a + b)
    assert is_multiplicative_ffp(a, b).lhs == char_poly(a @ b)


@st.composite
def monic_pairs(draw, max_n=8):
    n = draw(st.integers(1, max_n))
    p, q = (
        Polynomial([1] + draw(st.lists(entries(draw(st.booleans())), min_size=n, max_size=n)))
        for _ in range(2)
    )
    return p, q


@KERNEL
@given(monic_pairs())
def test_convolutions_match_gaussian_rational_formulas(pq):
    p, q = pq
    assert boxplus(p, q) == boxplus_gaussian(p, q)
    assert boxtimes(p, q) == boxtimes_gaussian(p, q)


@pytest.mark.parametrize("convolve", [boxplus, boxtimes])
@pytest.mark.parametrize(
    "p, q, error, message",
    [
        ([1, 2], [1, 2, 3], DegreeMismatchError, "degrees differ: 1 vs 2"),
        ([1], [1], DegreeMismatchError, "convolutions need degree >= 1"),
        ([2, 1], [1, 1], NonMonicError, "convolution inputs must be monic"),
        ([1, 0], ["1/2*i", 3], NonMonicError, "convolution inputs must be monic"),
    ],
)
def test_convolution_errors_unchanged(convolve, p, q, error, message):
    with pytest.raises(error) as raised:
        convolve(Polynomial(p), Polynomial(q))
    assert str(raised.value) == message


KINDS = st.sampled_from(("additive", "multiplicative"))


def assert_report_matches_oracle(a, b, kind):
    report = check_ffp(a, b, kind)
    expected = ffp_report_oracle(a, b, kind)
    assert report == expected
    assert list(report.residuals) == list(expected.residuals)
    return report


@KERNEL
@given(pairs(max_n=6), KINDS)
def test_ffp_report_matches_oracle(ab, kind):
    assert_report_matches_oracle(*ab, kind)


@KERNEL
@given(pairs(max_n=5), KINDS)
def test_residuals_turn_with_a_rotated_pair(ab, kind):
    """Coefficient k of chi_{iM} is i^k C_k, and both convolutions carry that
    factor: turning both matrices of an additive pair, or A alone of a
    multiplicative one, by i turns residual k by i^k. A real residual at odd
    k becomes purely imaginary, which the verdict must still see."""
    a, b = ab
    i = GaussianRational(0, 1)
    turns = (GaussianRational(1), i, GaussianRational(-1), -i)
    report = check_ffp(a, b, kind)
    turned = check_ffp(a.scale(i), b.scale(i) if kind == ADDITIVE else b, kind)
    assert turned.verdict == report.verdict
    assert turned.residuals == {k: v * turns[k % 4] for k, v in report.residuals.items()}


@st.composite
def ffp_pairs(draw):
    """Pairs in both kinds of finite free position, either way round: a
    (Gaussian) diagonal matrix and a principally balanced one, or a
    (Gaussian) scalar matrix and any matrix."""
    n = draw(st.integers(1, 6))
    entry = entries(draw(st.booleans()), SMALL_FRACTIONS)
    if draw(st.booleans()):
        a = Matrix.diagonal(draw(st.lists(entry, min_size=n, max_size=n)))
        b = sample_member(FamilyId.PRINCIPALLY_BALANCED, n, draw(st.integers(0, 10**6)))
    else:
        a = Matrix.identity(n).scale(draw(entry))
        b = draw(matrices(n=n))
    return (a, b) if draw(st.booleans()) else (b, a)


@KERNEL
@given(ffp_pairs(), KINDS)
def test_ffp_report_matches_oracle_on_pairs_in_ffp(ab, kind):
    assert assert_report_matches_oracle(*ab, kind).verdict is True


# -- the Matrix stored as its integer form ------------------------------------


def stored(m: Matrix) -> tuple:
    """(d, rows) of the stored form, each cell as (type, re, im): equality of
    ints and Gaussian ints alone cannot tell a real cell from a complex one."""
    return m._d, [[(type(v), v.real, v.imag) for v in row] for row in m._m]


def expected_form(d: int, form) -> tuple:
    """``stored``'s view of the canonical form with the (re, im) parts
    ``form``: ints when im is None, Gaussian ints in every cell otherwise."""
    re, im = form
    if im is None:
        return d, [[(int, v, 0) for v in row] for row in re]
    return d, [[(_GaussInt, v, w) for v, w in zip(x, y)] for x, y in zip(re, im)]


@KERNEL
@given(pairs(), entries(True) | entries(False))
def test_matrix_operations_match_gaussian_rational_oracles(ab, factor):
    a, b = ab
    assert (a + b).rows == add_entrywise(a.rows, b.rows)
    assert (a - b).rows == sub_entrywise(a.rows, b.rows)
    assert a.scale(factor).rows == scale_entrywise(a.rows, factor)
    assert a.transpose().rows == transpose_entrywise(a.rows)
    assert a.trace() == sum((a.rows[i][i] for i in range(a.n)), GaussianRational(0))


@KERNEL
@given(pairs(), st.integers(2, 10**6))
def test_stored_form_is_canonical_and_rows_round_trip(ab, k):
    a, b = ab
    for m in (a, b):
        d, form = _int_form(m)
        assert stored(m) == expected_form(d, form)
        # the same matrix from a form that is not reduced: every part k times
        # larger, and Gaussian ints with all-zero imaginary parts when m is real
        bigger = [[_GaussInt(k * v.real, k * v.imag) for v in row] for row in m._m]
        for copy in (Matrix(m.rows), Matrix.from_json(m.to_json()), Matrix._from_form(k * d, bigger)):
            assert stored(copy) == stored(m)
            assert copy == m and hash(copy) == hash(m)
            assert copy.rows == m.rows
        assert [[m.entry(i + 1, j + 1) for j in range(m.n)] for i in range(m.n)] == [
            list(row) for row in m.rows
        ]
    assert (a == b) == (a.rows == b.rows)


I = GaussianRational(0, 1)
REAL = Matrix([[1, Fraction(1, 2)], [-3, 4]])
GAUSSIAN = Matrix([[1 + I, 2], [Fraction(3, 2) * I, -4]])

# every constructor and operation, with the cases where a complex input gives
# a real result or a real first cell leads a complex row
BUILT = {
    "rows-real": lambda: REAL,
    "rows-gaussian": lambda: GAUSSIAN,
    "from-json-real": lambda: Matrix.from_json({"n": 2, "entries": [["1/3", "0"], ["2", "-1"]]}),
    "from-json-gaussian": lambda: Matrix.from_json({"n": 2, "entries": [["1", "1/2*i"], ["0", "3-2*i"]]}),
    "diagonal-real": lambda: Matrix.diagonal([1, Fraction(2, 3), 0]),
    "diagonal-real-first-value": lambda: Matrix.diagonal([1, 1 + I]),
    "unit": lambda: Matrix.unit(3, 1, 2),
    "sum-real": lambda: REAL + REAL.transpose(),
    "sum-real-gaussian": lambda: REAL + GAUSSIAN,
    "sum-imaginary-parts-cancel": lambda: GAUSSIAN + Matrix([[-I, 0], [Fraction(-3, 2) * I, 1]]),
    "difference-imaginary-parts-cancel": lambda: GAUSSIAN - GAUSSIAN,
    "difference-gaussian": lambda: GAUSSIAN - REAL,
    "product-real": lambda: REAL @ REAL,
    "product-real-gaussian": lambda: REAL @ GAUSSIAN,
    "product-gaussian-real-result": lambda: Matrix.identity(2).scale(I) @ REAL.scale(I),
    "scale-real": lambda: REAL.scale(Fraction(4, 3)),
    "scale-real-by-i": lambda: REAL.scale(I),
    "scale-gaussian-by-zero": lambda: GAUSSIAN.scale(0),
    "scale-gaussian-by-i": lambda: GAUSSIAN.scale(I),
    "transpose-real": lambda: REAL.transpose(),
    "transpose-gaussian": lambda: GAUSSIAN.transpose(),
}


@pytest.mark.parametrize("name", BUILT)
def test_every_built_form_holds_one_kind_of_scalar(name):
    """A real result holds only ints and a complex one only Gaussian ints, and
    it equals, and hashes like, the same matrix built from its rows. A
    complex result hashes unlike its complex conjugate, whose cells differ
    only in their imaginary parts."""
    m = BUILT[name]()
    complex_ = any(x.im for row in m.rows for x in row)
    assert {type(v) for row in m._m for v in row} == {_GaussInt if complex_ else int}
    copy = Matrix(m.rows)
    assert stored(copy) == stored(m)
    assert copy == m and hash(copy) == hash(m)
    if complex_:
        conjugate = Matrix([[GaussianRational(x.re, -x.im) for x in row] for row in m.rows])
        assert conjugate != m and hash(conjugate) != hash(m)


@settings(max_examples=60, deadline=None)
@given(st.integers(1, 6), st.integers(0, 2**32), st.integers(1, 20))
def test_balanced_samplers_match_product_constructions(n, seed, bound):
    """Same RNG state in, same matrix and same RNG state out."""
    for sampler, oracle in (
        (_conjugated_triangular_balanced, conjugated_triangular_by_products),
        (_rank_one_balanced, rank_one_by_fractions),
    ):
        new, old = random.Random(seed), random.Random(seed)
        assert sampler(n, new, bound) == oracle(n, old, bound)
        assert new.getstate() == old.getstate()


@pytest.mark.parametrize("kind", [ADDITIVE, MULTIPLICATIVE])
def test_probe_loop_computes_the_outsiders_chi_once(monkeypatch, kind):
    # principally balanced, so every diagonal probe passes and the loop runs to the end
    outsider = Matrix([[1, 2, 3], [6, 1, -12], [4, -1, 1]])
    calls = []
    original = matrix_module._char_coeffs

    def counting(m, n):
        calls.append(m)
        return original(m, n)

    monkeypatch.setattr(matrix_module, "_char_coeffs", counting)
    monkeypatch.setattr(ffp, "_char_coeffs", counting)
    assert _first_failure(outsider, _diagonal_probes(3, kind), kind) is None
    probes = (2**3 - 2) * len(PROBE_MAGNITUDES)
    # per probe: chi of the probe and of the sum or product; the outsider's chi once
    assert len(calls) == 2 * probes + 1
    assert sum(m == outsider._m for m in calls) == 1
    assert is_member(outsider, FamilyId.PRINCIPALLY_BALANCED)


@pytest.mark.parametrize("kind", ["additive", "multiplicative"])
def test_first_failure_skips_the_partners_that_pass(kind):
    # the two probes on the 0-based subset (0,) pass against this outsider; the next fails
    outsider = Matrix([[1, 0, -1], [-1, 0, -1], [0, 1, 2]])
    probes = list(_diagonal_probes(3, kind))
    assert [check_ffp(outsider, p, kind).verdict for p in probes[:3]] == [True, True, False]
    partner, report = _first_failure(outsider, probes, kind)
    assert partner == probes[2]
    assert report == check_ffp(outsider, partner, kind)


@pytest.mark.parametrize("gaussian", [False, True])
def test_moments_cumulants_and_chi_of_one_matrix_compute_chi_once(monkeypatch, gaussian):
    m = Matrix([[GaussianRational(3 * i - j, i * j % 2 if gaussian else 0) for j in range(4)] for i in range(4)])
    calls = []
    original = matrix_module._char_coeffs

    def counting(form, n):
        calls.append(form)
        return original(form, n)

    monkeypatch.setattr(matrix_module, "_char_coeffs", counting)
    MomentVector.of_matrix(m, 10)
    cumulants_of_matrix(m)
    char_poly(m)
    assert calls == [m._m]


# -- chi of a triangular matrix from its diagonal -----------------------------


# the cells (i, j) that vanish in each triangular shape
TRIANGULAR_ZEROS = {
    "upper": operator.gt,
    "lower": operator.lt,
    "diagonal": operator.ne,
    "strict-upper": operator.gt,
    "strict-lower": operator.lt,
}


@st.composite
def triangular_cases(draw):
    """(matrix, shape): an upper, lower, diagonal or strictly upper or lower
    triangular matrix, n = 1..8, real or Gaussian, its diagonal drawn from a
    pool of at most three values (so zero and repeated entries are common);
    or, for n >= 2, a "near" matrix: upper triangular with a nonzero cell
    above the diagonal and one nonzero cell below it, so neither triangular."""
    n = draw(st.integers(1, 8))
    entry = entries(draw(st.booleans()), FRACTIONS if n <= 5 else SMALL_FRACTIONS)
    shape = draw(st.sampled_from(tuple(TRIANGULAR_ZEROS) + (("near",) if n > 1 else ())))
    vanishes = TRIANGULAR_ZEROS.get(shape, operator.gt)
    pool = draw(st.lists(entry, min_size=1, max_size=3))
    rows = [[GaussianRational(0) if vanishes(i, j) else draw(entry) for j in range(n)] for i in range(n)]
    for i in range(n):
        rows[i][i] = GaussianRational(0) if shape.startswith("strict") else draw(st.sampled_from(pool))
    if shape == "near":
        cells = st.lists(st.integers(0, n - 1), min_size=2, max_size=2, unique=True).map(sorted)
        (i, j), (k, l) = draw(cells), draw(cells)
        rows[i][j], rows[l][k] = draw(entry.filter(bool)), draw(entry.filter(bool))
    return Matrix(rows), shape


@settings(max_examples=150, deadline=None)
@given(triangular_cases())
def test_triangular_chi_matches_power_sums_and_faddeev(case):
    m, shape = case
    n, (re, im) = m.n, _int_form(m)[1]
    diagonal = _triangular_diagonal(m._m, n)
    triangular = is_member(m, FamilyId.UPPER_TRIANGULAR) or is_member(m, FamilyId.LOWER_TRIANGULAR)
    assert (diagonal is not None) == triangular == (shape != "near")
    if diagonal is not None:
        assert list(map(pair, diagonal)) == [(re[i][i], 0 if im is None else im[i][i]) for i in range(n)]
    coeffs = list(map(pair, _char_coeffs(m._m, n)))
    assert coeffs == char_coeffs_by_newton((re, im))
    assert char_poly(m) == charpoly_faddeev_int(m)
    if shape.startswith("strict"):
        assert coeffs == [(1, 0)] + [(0, 0)] * n  # nilpotent: chi = x^n


@pytest.mark.parametrize(
    "rows",
    [
        [[2, 5, "1/3"], [0, 2, 7], [0, 0, -1]],
        [[GaussianRational(0, 1), 0, 0], ["1/2", 0, 0], [3, GaussianRational(2, -1), GaussianRational(0, 1)]],
        [[0, 0], [0, 0]],
        [["7/5"]],
    ],
)
def test_triangular_chi_computes_no_power_sum(monkeypatch, rows):
    """The general route does not run on a triangular matrix: no Berkowitz
    step, real or Gaussian."""
    m = Matrix(rows)

    def refused(*args):
        raise AssertionError("the general chi path on a triangular matrix")

    for name in ("_berkowitz_int", "_berkowitz_gaussian"):
        monkeypatch.setattr(kernel, name, refused)
    assert char_poly(m) == charpoly_faddeev_int(m)


# -- chi of a general matrix by Berkowitz's recurrence ------------------------


BIG = st.integers(-10**6, 10**6) | st.integers(-3, 3)
CHI_SHAPES = ("dense", "zero-row", "singular", "nilpotent")


@st.composite
def chi_cases(draw):
    """(m, shape): the integer form m = (re, im) of an n x n matrix, n =
    1..12, real or Gaussian, entries up to 10^6: dense, with a zero row,
    singular (one row a multiple of another), or nilpotent, a strictly upper
    triangular matrix conjugated by a permutation, P N P^T, which the
    triangular test does not catch unless the permutation keeps it upper or
    lower triangular."""
    n = draw(st.integers(1, 12))
    shape = draw(st.sampled_from(CHI_SHAPES))
    parts = [[draw(st.lists(BIG, min_size=n, max_size=n)) for _ in range(n)]
             for _ in range(1 + draw(st.booleans()))]
    if shape == "zero-row":
        i = draw(st.integers(0, n - 1))
        for x in parts:
            x[i] = [0] * n
    elif shape == "singular" and n > 1:
        i, j = draw(st.lists(st.integers(0, n - 1), min_size=2, max_size=2, unique=True))
        factor = draw(BIG)
        for x in parts:
            x[j] = [factor * v for v in x[i]]
    elif shape == "nilpotent":
        p = draw(st.permutations(range(n)))
        parts = [[[x[p[a]][p[b]] if p[a] < p[b] else 0 for b in range(n)] for a in range(n)] for x in parts]
    if len(parts) == 1:
        parts.append(None)
    return tuple(parts), shape


def assert_chi_matches_oracles(m):
    """m is the (re, im) form of the oracles; the kernel reads its rows."""
    n = len(m[0])
    expected = char_coeffs_by_newton(m)
    assert list(map(pair, _char_coeffs(_join(*m), n))) == expected
    # the general path itself, also where the triangular test would take over
    re, im = m
    if im is None:
        assert _berkowitz_int(re, n) == [c for c, _ in expected]
    else:
        assert list(map(pair, _berkowitz_gaussian(re, im, n))) == expected
    faddeev = charpoly_faddeev_int(Matrix._from_form(1, _join(re, im)))
    assert [(c.re.numerator, c.im.numerator) for c in faddeev.coeffs] == expected
    return expected


# no shrink phase: every example is still generated and checked, but a failure
# on up to 2 * 12^2 drawn integers of up to 10^6 is reported as drawn, in
# seconds, where shrinking each integer could take minutes
@settings(max_examples=150, deadline=None, phases=[p for p in Phase if p is not Phase.shrink])
@given(chi_cases())
def test_berkowitz_chi_matches_newton_and_faddeev(case):
    m, shape = case
    expected = assert_chi_matches_oracles(m)
    if shape == "nilpotent":
        assert expected == [(1, 0)] + [(0, 0)] * len(m[0])
    elif shape == "zero-row" or (shape == "singular" and len(m[0]) > 1):
        assert expected[-1] == (0, 0)


@pytest.mark.parametrize("n", [16, 24])
@pytest.mark.parametrize("gaussian", [False, True])
def test_berkowitz_chi_on_large_dense_matrices(n, gaussian):
    rng = random.Random(n)
    parts = [[[rng.randint(-10**6, 10**6) for _ in range(n)] for _ in range(n)] for _ in range(1 + gaussian)]
    m = (parts[0], parts[1] if gaussian else None)
    assert _triangular_diagonal(_join(*m), n) is None
    assert_chi_matches_oracles(m)


class _WatchedRow(tuple):
    """A row that records every slice taken of it."""

    slices = []

    def __getitem__(self, index):
        if isinstance(index, slice):
            self.slices.append(index)
        return super().__getitem__(index)


@pytest.mark.parametrize("gaussian", [False, True])
def test_dense_input_is_turned_away_before_any_scan(gaussian):
    n = 6

    def watched(cell):
        scalar = (lambda v: _GaussInt(v, v)) if gaussian else int
        return tuple(_WatchedRow(scalar(cell(i, j)) for j in range(n)) for i in range(n))

    _WatchedRow.slices.clear()
    assert _triangular_diagonal(watched(lambda i, j: i * n + j + 1), n) is None
    assert _WatchedRow.slices == []
    # one zero at (0, 1) is enough to start the scan, which finds row 1 nonzero below
    # the diagonal and row 0 nonzero above it
    assert _triangular_diagonal(watched(lambda i, j: 0 if (i, j) == (0, 1) else 1), n) is None
    assert _WatchedRow.slices


UNITS = (GaussianRational(1), GaussianRational(-1), GaussianRational(0, 1), GaussianRational(0, -1))
MINOR_SHAPES = ("dense", "singular", "sparse", "upper", "lower", "sign", "scalar-plus-sign", "rank-one")


@st.composite
def minor_cases(draw, gaussian=None):
    """(matrix, shape), n = 1..8, real or Gaussian (or as gaussian says):
    dense, singular (one row a multiple of another), sparse with entries 0
    and +-1 (+-i too when Gaussian), upper or lower triangular with a
    diagonal that is often zero, a sign matrix, c I plus a sign matrix with
    zero diagonal, or a rank-one principally balanced u_i c / u_j, whose
    minors past order 1 all vanish."""
    n = draw(st.integers(1, 8))
    gaussian = draw(st.booleans()) if gaussian is None else gaussian
    parts, nonzero_parts = (FRACTIONS, NONZERO_FRACTIONS) if n <= 5 else (SMALL_FRACTIONS, SMALL_NONZERO_FRACTIONS)
    entry = entries(gaussian, parts)
    zero = GaussianRational(0)
    units = UNITS if gaussian else UNITS[:2]
    shape = draw(st.sampled_from(MINOR_SHAPES))

    def grid(cell):
        return [[cell(i, j) for j in range(n)] for i in range(n)]

    if shape in ("dense", "singular"):
        rows = grid(lambda i, j: draw(entry))
        if shape == "singular" and n > 1:
            i, j = draw(st.lists(st.integers(0, n - 1), min_size=2, max_size=2, unique=True))
            factor = draw(entry)
            rows[j] = [factor * x for x in rows[i]]
    elif shape == "sparse":
        rows = grid(lambda i, j: draw(st.sampled_from((zero, zero) + units)))
    elif shape in ("upper", "lower"):
        pool = draw(st.lists(entry, min_size=1, max_size=2)) + [zero]
        vanishes = operator.gt if shape == "upper" else operator.lt
        rows = grid(lambda i, j: zero if vanishes(i, j) else draw(st.sampled_from(pool)) if i == j else draw(entry))
    elif shape == "sign":
        rows = grid(lambda i, j: draw(st.sampled_from(units)))
    elif shape == "scalar-plus-sign":
        c = draw(st.sampled_from((GaussianRational(1), GaussianRational(-1))) | entry)
        rows = grid(lambda i, j: c if i == j else draw(st.sampled_from(units)))
    else:
        # a nonzero real part, so no draw is rejected at any n
        nonzero = st.builds(GaussianRational, nonzero_parts, parts if gaussian else st.just(0))
        u = draw(st.lists(nonzero, min_size=n, max_size=n))
        c = draw(nonzero)
        rows = grid(lambda i, j: u[i] * c / u[j])
    return Matrix(rows), shape


@settings(max_examples=200, deadline=None)
@given(minor_cases())
def test_minor_tree_matches_per_subset_elimination_and_cofactors(case):
    m, shape = case
    levels = [[(v.real, v.imag) for v in level] for level in kernel._minor_levels(m._m, m.n)]
    elimination = [minors_by_elimination(_int_form(m)[1], k) for k in range(m.n + 1)]
    assert levels == elimination
    table = minor_table(m)
    assert table[0] == [((), 1)]
    assert principal_minors(m, 0) == [((), 1)]
    if shape == "rank-one":
        assert all(not v for k in range(2, m.n + 1) for _, v in table[k])
    if m.n <= 5:
        for k, entries_k in table.items():
            for subset, value in entries_k:
                idx = [i - 1 for i in subset]
                assert value == cofactor_det([[m.rows[i][j] for j in idx] for i in idx])
        balanced = balanced_by_minor_table(m)
    else:
        # the minors of one order share the scale d^k, so their integer numerators compare
        balanced = all(len(set(level)) == 1 for level in elimination)
    assert is_member(m, FamilyId.PRINCIPALLY_BALANCED) == balanced


@settings(max_examples=100, deadline=None)
@given(minor_cases())
def test_shifted_matrix_has_no_zero_principal_minor(case):
    """M + tI from ``kernel._dominant`` is strictly diagonally dominant, so
    no principal minor of it is zero, by per-subset elimination, on every
    shape, zero minors of M included; and t is 1 plus the largest row sum
    of |Re| + |Im|."""
    m, _ = case
    t, shifted = kernel._dominant(m._m)
    re, im = _int_form(m)[1]
    im = im or [[0] * m.n] * m.n
    assert t == 1 + max(sum(map(abs, r)) + sum(map(abs, i)) for r, i in zip(re, im))
    assert [[x - (t if i == j else 0) for j, x in enumerate(row)] for i, row in enumerate(shifted)] == \
        [list(row) for row in m._m]
    parts = [[[v.real for v in row] for row in shifted], [[v.imag for v in row] for row in shifted]]
    assert all(v != (0, 0) for k in range(m.n + 1) for v in minors_by_elimination(parts, k))


def test_shift_needs_its_one():
    """With t the largest row sum alone, [[-1, 1], [1, -1]] + 2I is singular;
    the shift's + 1 keeps every principal minor nonzero."""
    m = Matrix([[-1, 1], [1, -1]])
    t, shifted = kernel._dominant(m._m)
    assert t == 3 and shifted == [[2, 1], [1, 2]] and _det_int(shifted) == 3
    assert _det_int([[-1 + t - 1, 1], [1, -1 + t - 1]]) == 0
    assert principal_minors(m, 2) == [((1, 2), 0)] and m.det() == 0


def test_shift_counts_imaginary_parts():
    """With t from |Re| alone, [[0, i], [-i, 0]] + I is singular; with
    |Re| + |Im| it is [[2, i], [-i, 2]], whose minors are 1, 2, 2 and 3."""
    i = GaussianRational(0, 1)
    m = Matrix([[0, i], [-i, 0]])
    t, shifted = kernel._dominant(m._m)
    assert t == 2 and [[(v.real, v.imag) for v in row] for row in shifted] == [[(2, 0), (0, 1)], [(0, -1), (2, 0)]]
    assert [pair(v) for level in kernel._minor_tree(shifted) for v in level] == [(1, 0), (2, 0), (2, 0), (3, 0)]
    assert _det_int(_join([[1, 0], [0, 1]], [[0, 1], [-1, 0]])) == 0
    assert minor_table(m) == {0: [((), 1)], 1: [((1,), 0), ((2,), 0)], 2: [((1, 2), -1)]}


@pytest.mark.parametrize("gaussian", [False, True])
@settings(max_examples=60, deadline=None)
@given(data=st.data())
def test_minor_table_makes_no_elimination_on_any_shape(gaussian, data):
    """The tree runs on M + tI, whose principal minors are all nonzero, so no
    subset of any shape (rank-one, sparse, singular, sign and the rest, zero
    minors of M included) falls back to a determinant by elimination."""
    m, _ = data.draw(minor_cases(gaussian=gaussian))
    expected = [minors_by_elimination(_int_form(m)[1], k) for k in range(m.n + 1)]

    def refused(*args):
        raise AssertionError("per-subset elimination in the minor tree")

    with mock.patch.object(kernel, "_det_int", refused):
        table = minor_table(m)
        balanced = is_member(m, FamilyId.PRINCIPALLY_BALANCED)
    scales = [m._d**k for k in range(m.n + 1)]
    assert [[v for _, v in table[k]] for k in range(m.n + 1)] == [
        [GaussianRational(Fraction(re, d), Fraction(im, d)) for re, im in level] for d, level in zip(scales, expected)
    ]
    assert balanced == all(len(set(level)) == 1 for level in expected)


def test_principal_minors_builds_no_order_past_k(monkeypatch):
    """The tree expands each node of orders 0..k-1 once for order k and no
    node past it, for principal_minors(a, k) and for a balance test that
    stops at the first order whose minors differ."""
    n = 6
    m = Matrix([[Fraction((3 * i + 5 * j) % 7 - 3, 1 + (i + j) % 4) for j in range(n)] for i in range(n)])
    table = minor_table(m)
    expanded = []
    children = kernel._children

    def counted(det, block):
        expanded.append(len(block))
        return children(det, block)

    monkeypatch.setattr(kernel, "_children", counted)
    for k in range(n + 1):
        expanded.clear()
        assert principal_minors(m, k) == table[k]
        assert len(expanded) == sum(math.comb(n, j) for j in range(k))
    # the diagonal is not constant, so order 1 already differs: only the root expands
    expanded.clear()
    assert not is_member(m, FamilyId.PRINCIPALLY_BALANCED)
    assert expanded == [n]


# -- the kernel's scalars stay inside it ----------------------------------------


def upper_part(m: Matrix) -> Matrix:
    return Matrix([[x if j >= i else 0 for j, x in enumerate(row)] for i, row in enumerate(m.rows)])


@KERNEL
@given(pairs(max_n=4))
def test_no_kernel_scalar_reaches_a_public_value(ab):
    """Every value the public API returns is a GaussianRational, never an int
    or a _GaussInt of the kernel: on real and Gaussian input, on the dense
    (Berkowitz) and the triangular chi paths, and in the residuals of pairs
    that fail finite free position."""
    a, b = ab
    for x, y in ((a, b), (upper_part(a), b), (a, upper_part(b))):
        p, q = char_poly(x), char_poly(y)
        values = [*sum(x.rows, ()), x.det(), x.trace(), *p.coeffs, *moment_vector_of(x, x.n + 2)]
        values += [v for level in minor_table(x).values() for _, v in level]
        values += [v for level in cycle_sums(x).by_order.values() for _, v in level]
        values += [*boxplus(p, q).coeffs, *boxtimes(p, q).coeffs]
        for kind in (ADDITIVE, MULTIPLICATIVE):
            report = check_ffp(x, y, kind)
            values += [*report.residuals.values(), *report.lhs.coeffs, *report.rhs.coeffs]
            if x.n <= 3:
                values += expected_charpoly_signed_perms(x, y, kind).coeffs
        assert all(type(v) is GaussianRational for v in values)


@pytest.mark.parametrize("gaussian", [False, True])
def test_ffp_residuals_are_gaussian_rationals(gaussian):
    """A fixed pair that fails both kinds of finite free position, so both
    residual maps hold values."""
    i = GaussianRational(0, 1) if gaussian else 1
    a = Matrix([[1, 2 * i, 0], [3, 0, i], [5, 1, 2]])
    b = Matrix([[0, 1, i], [2, 1, 0], [1, 3 * i, 4]])
    for kind in (ADDITIVE, MULTIPLICATIVE):
        residuals = check_ffp(a, b, kind).residuals
        assert residuals and all(type(v) is GaussianRational for v in residuals.values())
