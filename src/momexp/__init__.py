"""Generalized (moment) matrix exponentials and linear moment-differential
systems.

The central object is E_m(Az) = sum_p A^p z^p / m(p) for a pluggable moment
sequence m: m(p) = p! recovers the classical exponential, Gamma(1 + p/k)
the Mittag-Leffler function, the q-factorials the q-exponential, and b^p a
finite-radius counterexample sequence.
"""

from types import ModuleType as _Module

from .errors import (
    BackendMismatch,
    ChainConstructionFailed,
    DimensionMismatch,
    EvaluationError,
    MomexpError,
    SequenceError,
    SingularMatrix,
)
from .evaluation import (
    ABORTED_DIVERGENT,
    CONVERGED,
    MAX_TERMS_REACHED,
    RADIUS_EXCEEDED,
    EvalReport,
    TruncationPolicy,
    delta_E,
    det_trace_probe,
    eval_exp,
    eval_via_jordan,
    jordan_block_exp,
    norm_bound_check,
    scalar_exp,
)
from .exact import GaussianRational
from .jordan import (
    JordanDecomposition,
    assemble_jordan,
    eigenvalues,
    jordan_decompose,
    verify_decomposition,
)
from .matrices import (
    CMatrix,
    mat_pow,
    mat_vec,
    matrix_from_json,
    matrix_to_json,
    vec_norm,
)
from .moments import MomentSequence, growth_probe, parse_specifier
from .series import (
    MomentSeries,
    cauchy_product,
    exp_series,
    inverse_series,
    moment_derivative,
    phi_coefficients,
    unit_series,
)
from .solver import (
    IVPSolution,
    fundamental_matrix,
    q_derivative_residual,
    recover_exponential,
    residual_check,
    solve,
)

__version__ = "0.1.0"

# the names imported above; the submodules are attributes, not exports
__all__ = sorted(name for name, value in globals().items()
                 if not name.startswith("_") and not isinstance(value, _Module))
