"""finfree: exact-arithmetic finite free convolutions and finite free
position checks for matrix pairs.

The package imports its submodules lazily (PEP 562): ``finfree.X`` or
``from finfree import X`` imports X's submodule on first access and caches
the value here, so ``import finfree.cli`` costs only what the verb runs.
"""

import importlib

# submodule -> the names it exports at package level
_EXPORTS = {
    "errors": (
        "DegreeMismatchError",
        "DimensionMismatchError",
        "FinFreeError",
        "IndexRangeError",
        "NonMonicError",
        "ParseError",
        "SingularMatrixError",
        "SizeGuardError",
        "UnsupportedPairError",
    ),
    "families": (
        "CycleSums",
        "FamilyId",
        "PairCheckReport",
        "cycle_sums",
        "is_member",
        "pb_charpoly_from_minors",
        "rank_upper_bound",
        "sample_member",
        "verify_pair",
    ),
    "ffp": (
        "FfpReport",
        "HaarAverageResult",
        "check_ffp",
        "condition_2x2",
        "ekl_witness",
        "expected_charpoly_haar_mc",
        "expected_charpoly_signed_perms",
        "is_additive_ffp",
        "is_multiplicative_ffp",
    ),
    "matrices": (
        "Matrix",
        "char_poly",
        "conjugate",
        "matrix_moment",
        "minor_table",
        "principal_minors",
    ),
    "moments": (
        "CumulantVector",
        "MomentVector",
        "closed_form_sum_moment",
        "coeffs_from_moments",
        "cumulants_from_moments",
        "cumulants_of_matrix",
        "ffp_sum_moments",
        "has_single_eigenvalue",
        "moments_from_coeffs",
        "moments_from_cumulants",
        "mult_ffp_moment",
    ),
    "polynomials": ("ADDITIVE", "MULTIPLICATIVE", "Polynomial", "boxplus", "boxtimes"),
    "scalars": ("GaussianRational", "as_scalar"),
}
_HOME = {name: module for module, names in _EXPORTS.items() for name in names}

__all__ = list(_HOME)
__version__ = "0.1.0"


def __getattr__(name):
    if name in _HOME:
        value = getattr(importlib.import_module(f".{_HOME[name]}", __name__), name)
    elif name in _EXPORTS:
        value = importlib.import_module(f".{name}", __name__)
    else:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    globals()[name] = value
    return value


def __dir__():
    return sorted({*globals(), *__all__})
