"""Exact arithmetic for generalized Fibonacci/Lucas polynomials, their
convolutions, and the Hessenberg-determinant identities they satisfy."""

from .hessenberg import (
    HessMatrix,
    IndexOutOfRange,
    build_fib_matrix,
    char_poly,
    charpoly_shift_sides,
    hess_det,
    minor_sum_closed_form,
    principal_minor,
    sum_principal_minors,
)
from .parse import ParseError, parse_poly
from .poly import H, ONE, ZERO, NotDivisible, Poly, QuadExt, TPoly, binom
from .sequences import (
    binet_scaled,
    convolved_closed_form,
    convolved_convolution,
    convolved_recurrence,
    derivative_identity_sides,
    fib,
    lucas,
    lucas_decomposition_sides,
)
from .series import NotInvertible, Series, convolved_series
from .verify import CheckResult, SuiteReport, convolved_table, report_to_dict, run_suite

__version__ = "0.1.0"

__all__ = [
    "H",
    "ONE",
    "ZERO",
    "CheckResult",
    "HessMatrix",
    "IndexOutOfRange",
    "NotDivisible",
    "NotInvertible",
    "ParseError",
    "Poly",
    "QuadExt",
    "Series",
    "SuiteReport",
    "TPoly",
    "binet_scaled",
    "binom",
    "build_fib_matrix",
    "char_poly",
    "charpoly_shift_sides",
    "convolved_closed_form",
    "convolved_convolution",
    "convolved_recurrence",
    "convolved_series",
    "convolved_table",
    "derivative_identity_sides",
    "fib",
    "hess_det",
    "lucas",
    "lucas_decomposition_sides",
    "minor_sum_closed_form",
    "parse_poly",
    "principal_minor",
    "report_to_dict",
    "run_suite",
    "sum_principal_minors",
]
