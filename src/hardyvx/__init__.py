"""Variable-exponent Lebesgue analysis on (0,1).

hardyvx computes Luxemburg norms in L^{p(.)}(0,1), evaluates the Hardy
averaging operator f -> (1/x) * integral_0^x f, and audits exponent
functions against a battery of equivalent boundedness criteria for the
weighted Hardy inequality, producing machine-readable verdict reports.
"""

from __future__ import annotations

__version__ = "0.1.0"

from .exponent import (
    Constant,
    DyadicJump,
    ExponentFunction,
    LogLogPerturbed,
    LogPerturbed,
    MonotonicityClass,
    PiecewiseConstant,
    PiecewiseLinear,
    Tabulated,
    classify_monotonicity,
    conjugate_reciprocal,
    phi,
)
from .grids import (
    DivergentHeadError,
    LogGrid,
    SampledFunction,
    cumulative_integral,
    integrate,
    integrate_dlog,
    make_log_grid,
)
from .lpnorm import (
    ModularValue,
    NormValue,
    UnboundedNormError,
    bracket_check,
    luxemburg_norm,
    modular,
    norm_of_inverse_x,
)
from .hardy import (
    hardy_average,
    hardy_average_scaled,
    necessity_test_function,
    operator_norm_lower_bound,
    rayleigh_quotient,
)
from .criteria import (
    BoundednessVerdict,
    CriterionReport,
    almost_decreasing_constant,
    condition_A,
    condition_B,
    criterion_C2,
    criterion_C3,
    criterion_C4,
    criterion_C5,
    dyadic_oscillation,
    equivalence_audit,
    phi_doubling,
)
from .catalog import CATALOG, catalog_exponent

__all__ = [name for name in dir() if not name.startswith("_")]
