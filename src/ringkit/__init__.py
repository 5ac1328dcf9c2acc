"""Exact arithmetic over rings: contexts, Euclidean algorithms, CRT,
polynomials, truncated and Laurent series, fractions, quotients,
matrices, and certificate-based irreducibility testing.

Everything computes with exact payloads (ints, Fractions, tuples); no
floating point is used anywhere.
"""

import types as _types

from .algebra import (
    Classification,
    Element,
    ProductRing,
    RingContext,
    characteristic,
    classify,
    enumerate_elements,
    frobenius,
    idempotents_of,
    int_scale,
    nilpotents_of,
    ring_pow,
    units_of,
    zero_divisors_of,
)
from .errors import (
    ConstantPolynomial,
    ConstantTermNotUnit,
    ContextMismatch,
    ContextNotEuclidean,
    DegreeDrops,
    DegreeOutOfRange,
    DenominatorIndistinguishableFromZero,
    DeterminantNotUnit,
    DivisionByZero,
    DuplicateNode,
    EmptySystem,
    FactorsMismatch,
    InfiniteRing,
    InvalidParameters,
    MissingVariable,
    NotADomain,
    NotAField,
    NotARoot,
    NotComaximal,
    NotInvertible,
    NotPrimeCharacteristic,
    NotPrimitive,
    ParseError,
    RingError,
    ShapeMismatch,
    TooLarge,
    VariableCollision,
    ZeroDenominator,
    ZeroInput,
    ZeroPolynomial,
)
from .euclid import (
    BezoutCert,
    are_comaximal,
    crt_idempotents,
    crt_solve,
    euclid_gcd,
    extended_gcd,
    gcd_many,
    lcm,
)
from .factor import (
    Factorization,
    IrreducibilityVerdict,
    content,
    eisenstein_check,
    eisenstein_translate_search,
    factor_integer,
    factor_poly_fp,
    irreducibility_pipeline,
    low_degree_test,
    monic_irreducibles,
    poly_is_irreducible_fp,
    primitive_associate,
    primitive_part,
    quad_irreducible_check,
    rational_roots,
    reduction_mod_p_check,
    squarefree_part,
    verify_certificate,
)
from .fracfield import FracField, frac_den, frac_embed, frac_field, frac_make, frac_num
from .literals import parse_context
from .matrix import (
    MatrixRing,
    adjugate,
    cramer_solve,
    det,
    mat_inverse,
    matrix_ring,
    trace,
    transpose,
)
from .multivar import (
    MultiPolyRing,
    degree_in,
    dehomogenize,
    homogeneous_components,
    homogenize,
    is_homogeneous,
    mv_eval,
    mv_ring,
    scaling_check,
    total_degree,
    variables_of,
)
from .number_rings import (
    GAUSSIAN,
    HH,
    IntegerRing,
    ModRing,
    QQ,
    QuadFieldRing,
    QuadIntRing,
    QuaternionAlgebra,
    ZZ,
    euler_phi,
    fundamental_unit_search,
    gaussian_divmod,
    imaginary_unit_group,
    pythagorean_triple,
    quad_conj,
    quad_inverse,
    quad_is_unit,
    quad_norm,
    quat_conj,
    quat_from_pair,
    quat_inverse,
    quat_norm_sq,
    sum_of_two_squares,
)
from .poly import (
    PolyRing,
    degree,
    derivative,
    divrem_field,
    divrem_scaled,
    factor_theorem_split,
    lagrange_interpolate,
    leading_coefficient,
    poly_eval,
    poly_ring,
    roots_over_finite,
)
from .quotient import (
    QuotientRing,
    ideal_divisor_lattice,
    iso_check_crt,
    q_cardinality,
    q_inverse,
    q_is_unit,
    q_lift,
    q_reduce,
    quotient_ring,
)
from .series import (
    LaurentSeries,
    OrderVal,
    SeriesRing,
    laurent_from_fraction,
    laurent_show,
    series_ring,
    ts_add,
    ts_invert,
    ts_mul,
    ts_ord,
    ts_truncate,
)

__version__ = "0.1.0"

# every public name imported above; the submodules themselves stay out
__all__ = sorted(
    name for name, value in globals().items()
    if not name.startswith("_") and not isinstance(value, _types.ModuleType))
