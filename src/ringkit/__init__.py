"""Exact arithmetic over rings: contexts, Euclidean algorithms, CRT,
polynomials, truncated and Laurent series, fractions, quotients,
matrices, and certificate-based irreducibility testing.

Everything computes with exact payloads (ints, Fractions, tuples); no
floating point is used anywhere.

import ringkit loads no submodule: each public name below is imported
from its module when it is first used (PEP 562), so a program pays for
compiling only the modules it reaches.
"""

import importlib as _importlib

# module -> the public names it gives the package
_EXPORTS = {
    "algebra": (
        "Classification", "Element", "ProductRing", "RingContext",
        "characteristic", "classify", "enumerate_elements", "frobenius",
        "idempotents_of", "int_scale", "nilpotents_of", "ring_pow",
        "units_of", "zero_divisors_of"),
    "errors": (
        "ConstantPolynomial", "ConstantTermNotUnit", "ContextMismatch",
        "ContextNotEuclidean", "DegreeDrops", "DegreeOutOfRange",
        "DenominatorIndistinguishableFromZero", "DeterminantNotUnit",
        "DivisionByZero", "DuplicateNode", "EmptySystem", "FactorsMismatch",
        "InfiniteRing", "InvalidParameters", "MissingVariable", "NotADomain",
        "NotAField", "NotARoot", "NotComaximal", "NotInvertible",
        "NotPrimeCharacteristic", "NotPrimitive", "ParseError", "RingError",
        "ShapeMismatch", "TooLarge", "VariableCollision", "ZeroDenominator",
        "ZeroInput", "ZeroPolynomial"),
    "euclid": (
        "BezoutCert", "are_comaximal", "crt_idempotents", "crt_solve",
        "euclid_gcd", "extended_gcd", "gcd_many", "lcm"),
    "factor": (
        "IrreducibilityVerdict", "content", "eisenstein_check",
        "eisenstein_translate_search", "factor_poly_fp",
        "irreducibility_pipeline", "low_degree_test", "monic_irreducibles",
        "poly_is_irreducible_fp", "primitive_associate", "primitive_part",
        "quad_irreducible_check", "rational_roots", "reduction_mod_p_check",
        "squarefree_part", "verify_certificate"),
    "fracfield": (
        "FracField", "frac_den", "frac_embed", "frac_field", "frac_make",
        "frac_num"),
    "intutil": ("ideal_divisor_lattice",),
    "literals": ("parse_context",),
    "matrix": (
        "MatrixRing", "adjugate", "cramer_solve", "det", "mat_inverse",
        "matrix_ring", "trace", "transpose"),
    "multivar": (
        "MultiPolyRing", "degree_in", "dehomogenize",
        "homogeneous_components", "homogenize", "is_homogeneous", "mv_eval",
        "mv_ring", "scaling_check", "total_degree", "variables_of"),
    "number_rings": (
        "Factorization", "GAUSSIAN", "HH", "IntegerRing", "ModRing", "QQ",
        "QuadFieldRing", "QuadIntRing", "QuaternionAlgebra", "ZZ",
        "euler_phi", "factor_integer", "fundamental_unit_search",
        "gaussian_divmod", "imaginary_unit_group", "pythagorean_triple",
        "quad_conj", "quad_inverse", "quad_is_unit", "quad_norm",
        "quat_conj", "quat_from_pair", "quat_inverse", "quat_norm_sq",
        "sum_of_two_squares"),
    "poly": (
        "PolyRing", "degree", "derivative", "divrem_field", "divrem_scaled",
        "factor_theorem_split", "lagrange_interpolate", "leading_coefficient",
        "poly_eval", "poly_ring", "roots_over_finite"),
    "quotient": (
        "QuotientRing", "iso_check_crt", "q_cardinality", "q_inverse",
        "q_is_unit", "q_lift", "q_reduce", "quotient_ring"),
    "series": (
        "LaurentSeries", "OrderVal", "SeriesRing", "laurent_from_fraction",
        "laurent_show", "series_ring", "ts_add", "ts_invert", "ts_mul",
        "ts_ord", "ts_truncate"),
}
_MODULE_OF = {name: module for module, names in _EXPORTS.items()
              for name in names}

__version__ = "0.1.0"
__all__ = sorted(_MODULE_OF)


def __getattr__(name):
    """A public name, imported from its module on first use and kept."""
    module = _MODULE_OF.get(name)
    if module is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(_importlib.import_module("." + module, __name__), name)
    globals()[name] = value
    return value


def __dir__():
    return sorted(set(globals()) | set(__all__))
