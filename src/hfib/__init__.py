"""Exact arithmetic for generalized Fibonacci/Lucas polynomials, their
convolutions, and the Hessenberg-determinant identities they satisfy.

The names imported here are the public API: __all__ is built from them,
so each is stated once.
"""
from types import ModuleType as _ModuleType

from .hessenberg import (
    HessMatrix,
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
from .verify import CheckResult, SuiteReport, report_to_dict, run_suite

__version__ = "0.1.0"

# every public name bound above except the submodules the imports bind
__all__ = [n for n, v in globals().items() if not n.startswith("_") and not isinstance(v, _ModuleType)]
