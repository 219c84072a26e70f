"""finfree: exact-arithmetic finite free convolutions and finite free
position checks for matrix pairs."""

from .errors import (
    DegreeMismatchError,
    DimensionMismatchError,
    FinFreeError,
    IndexRangeError,
    NonMonicError,
    ParseError,
    SingularMatrixError,
    SizeGuardError,
    UnsupportedPairError,
)
from .families import (
    CycleSums,
    FamilyId,
    PairCheckReport,
    cycle_sums,
    is_member,
    pb_charpoly_from_minors,
    rank_upper_bound,
    sample_member,
    verify_pair,
)
from .ffp import (
    ADDITIVE,
    MULTIPLICATIVE,
    FfpReport,
    HaarAverageResult,
    additive_condition_2x2,
    check_ffp,
    ekl_witness,
    expected_charpoly_haar_mc,
    expected_charpoly_signed_perms,
    is_additive_ffp,
    is_multiplicative_ffp,
    multiplicative_condition_2x2,
)
from .matrices import (
    Matrix,
    MinorTable,
    char_poly,
    conjugate,
    matrix_moment,
    minor_table,
    principal_minors,
)
from .moments import (
    CumulantVector,
    MomentVector,
    closed_form_sum_moment,
    coeffs_from_moments,
    cumulants_from_moments,
    cumulants_of_matrix,
    ffp_sum_moments,
    has_single_eigenvalue,
    moments_from_coeffs,
    moments_from_cumulants,
    mult_ffp_moment,
)
from .polynomials import Polynomial, boxplus, boxtimes
from .scalars import GaussianRational, as_scalar

__version__ = "0.1.0"
