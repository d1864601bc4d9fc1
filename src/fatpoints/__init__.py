"""Exact computation of Hilbert functions, multiplicities and regularity
indices of fat point schemes in projective space, and verification of how
these invariants behave under the coordinate-padding embedding that sends
a point of P^n to the point of P^m with m - n trailing zeros.

All arithmetic is exact rational; every verified identity is an integer
equality or inequality with no tolerance.  The ground field is assumed to
have characteristic zero, where vanishing to order m is characterized by
the vanishing of all derivatives of order below m.
"""

from .errors import (
    DegreeOutOfRange,
    DimensionMismatch,
    DuplicateParameter,
    DuplicatePoint,
    FatpointsError,
    InternalBoundViolation,
    NonpositiveMultiplicity,
    NotOnRationalNormalCurve,
    ResourceLimit,
    SchemeFormatError,
    TargetTooSmall,
    TooFewPoints,
    ZeroParameter,
    ZeroPoint,
)
from .exactlinalg import binomial
from .scheme import (
    FatPointScheme,
    ProjectivePoint,
    TruncatedScheme,
    UnitIdeal,
    embed,
    gen_random,
    make_scheme,
    multiplicity,
    rnc_points,
    scheme_fingerprint,
    scheme_from_json,
    scheme_to_json,
    truncate,
)
from .hilbert import (
    HilbertTable,
    hilbert_function,
    hilbert_table,
    ideal_dim,
    regularity_index,
)
from .verify import (
    CheckRecord,
    VerificationReport,
    check_cor46,
    check_lemma23,
    check_prop44,
    check_prop44_displayed,
    check_reg_invariance,
    check_restriction,
    check_restriction_range,
    check_rnc,
    check_stable_range,
    check_transfer,
    points_on_rnc,
    report_from_json,
    report_to_json,
    rnc_reg_formula,
    run_checks,
    transfer_rhs,
)

__version__ = "0.1.0"
