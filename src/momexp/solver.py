"""Solutions of the linear moment-differential system dy = Ay.

The general solution is y(z) = E(Az) v_c; we anchor the constant vector at
the origin, y(0) = v_c, since E(0) = I.  The solution carries both layers:
the formal series with vector coefficients A^p v_c (moment basis) and a pure
evaluation closure through :func:`momexp.evaluation.eval_exp`.
"""

from __future__ import annotations

from .errors import DimensionMismatch
from .evaluation import TruncationPolicy, eval_exp
from .matrices import (
    mat_vec,
    vec_norm,
    vec_scale,
    vec_sub,
)
from .series import MomentSeries


class IVPSolution:
    """y(z) = E(Az) v_c for one matrix, sequence and initial vector."""

    def __init__(self, A, v_c, seq, policy=TruncationPolicy()):
        if len(v_c) != A.n:
            raise DimensionMismatch(f"matrix {A.n} vs vector {len(v_c)}")
        self.A = A
        self.v_c = tuple(v_c)
        self.seq = seq
        self.policy = policy

    def __call__(self, z):
        """Evaluate the solution; raises EvaluationError on non-convergence."""
        value = eval_exp(self.A, z, self.seq, self.policy).require_converged()
        return mat_vec(value, self.v_c)

    def evaluate_report(self, z):
        rep = eval_exp(self.A, z, self.seq, self.policy)
        if rep.status == "converged":
            rep.value = mat_vec(rep.value, self.v_c)
        return rep

    def series(self, N):
        """Vector-coefficient series: c_p = A^p v_c, p <= N."""
        coeffs = [self.v_c]
        for _ in range(N):
            coeffs.append(mat_vec(self.A, coeffs[-1]))
        return MomentSeries(self.seq, coeffs)


def solve(A, v_c, seq, policy=TruncationPolicy()):
    """General solution of dy = Ay with y(0) = v_c.

    The direct series path works identically for diagonalizable and
    non-diagonalizable A; the Jordan path is a cross-check only.
    """
    return IVPSolution(A, v_c, seq, policy)


def residual_check(sol, N):
    """Largest coefficient norm of (moment derivative of y) - A y through
    order N; exactly zero in the exact backend by the shift identity."""
    if N < 0:
        raise ValueError(f"residual order must be nonnegative, got {N}")
    coeffs = sol.series(N + 1).coeffs
    worst = 0.0
    for p in range(N + 1):
        r = vec_sub(coeffs[p + 1], mat_vec(sol.A, coeffs[p]))
        worst = max(worst, vec_norm(r))
    return worst


def fundamental_matrix(A, X0, seq, policy=TruncationPolicy()):
    """Closure z -> X(z) = E(Az) X0; columns solve the system, X(0) = X0."""
    X0.inverse()  # raises SingularMatrix for non-invertible initial data

    def X(z):
        return eval_exp(A, z, seq, policy).require_converged() @ X0

    return X


def recover_exponential(X, X0, z):
    """E(Az) = X(z) X(0)^{-1}, independent of the fundamental matrix chosen."""
    return X(z) @ X0.inverse()


def q_derivative_residual(sol, q, zs):
    """max over zs of || D_q y(z) - A y(z) || with
    D_q f(z) = (f(qz) - f(z)) / ((q - 1) z).

    An independent analytic check: uses two closure evaluations, never the
    coefficient shift.  z = 0 is excluded (removable singularity).
    """
    q = float(q)
    worst = 0.0
    for z in zs:
        z = complex(z)
        if z == 0:
            raise ValueError("q-derivative residual is undefined at z = 0")
        dq = vec_scale(vec_sub(sol(q * z), sol(z)), 1.0 / ((q - 1.0) * z))
        worst = max(worst, vec_norm(vec_sub(dq, mat_vec(sol.A, sol(z)))))
    return worst
