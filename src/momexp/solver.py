"""Solutions of the linear moment-differential system dy = Ay.

The general solution is y(z) = E(Az) v_c; we anchor the constant vector at
the origin, y(0) = v_c, since E(0) = I.  The solution carries both layers:
the formal series with vector coefficients A^p v_c (moment basis) and an
evaluation closure that sums the vector series itself, never forming E(Az).
"""

from __future__ import annotations

import math

import numpy as np

from .errors import DimensionMismatch
from .evaluation import TruncationPolicy, _exp_series, eval_exp
from .matrices import (
    EXACT,
    infer_backend,
    krylov,
    krylov_mismatches,
    require_exact,
    vec_norm,
    vec_sub,
)
from .series import MomentSeries, _check_order


class IVPSolution:
    """y(z) = E(Az) v_c for one matrix, sequence and initial vector, on the
    backend :func:`momexp.matrices.infer_backend` decides from A and v_c, so
    an exact A with a float v_c raises BackendMismatch here.  ``sol(z)`` sums
    the vector series t_0 = v_c, t_p = (Az t_{p-1}) m(p-1)/m(p) by the rules
    of :func:`momexp.evaluation.eval_exp`: O(n^2) per term, sized by
    ``vec_norm``, so ``terms_used`` and ``tail_estimate`` describe it.  A
    kind with a closed form applies it to v_c (geometric's Neumann form,
    under the same radius decision) unless a float I - Az/b fails the sigma
    rule inside the radius; then its vector series is summed.  An exact sum
    ends at its first zero term, by term n when v_c is in a nilpotent
    invariant subspace.
    It runs on numpy object arrays of GaussianRational, not on the integer
    kernel of :func:`momexp.matrices.krylov`: the sum adds terms with ``+``,
    which concatenates tuples, so that route would need a vector add of its
    own, and no workload evaluates an exact solution."""

    def __init__(self, A, v_c, seq, policy=TruncationPolicy()):
        if len(v_c) != A.n:
            raise DimensionMismatch(f"matrix {A.n} vs vector {len(v_c)}")
        self.A = A
        self.v_c = tuple(v_c)
        self.backend = infer_backend(A, self.v_c)
        self.seq = seq
        self.policy = policy
        exact = self.backend == EXACT
        self._a = np.array(A.rows, object if exact else complex)
        self._v = np.array([*map(require_exact, v_c)] if exact else v_c, self._a.dtype)

    def __call__(self, z):
        """Evaluate the solution; raises EvaluationError on non-convergence."""
        return self.evaluate_report(z).require_converged()

    def evaluate_report(self, z):
        rep = _exp_series(self.A, z, self.seq, self.policy, self._a, self._v)
        if rep.value is not None:
            rep.value = tuple(rep.value.tolist())
        return rep

    def series(self, N):
        """Vector-coefficient series: c_p = A^p v_c, p <= N, c_0 = v_c itself,
        from :func:`momexp.matrices.krylov`; on the exact backend the c_p stay
        one-row integer blocks until each is built once."""
        _check_order(N)
        return MomentSeries(self.seq, krylov(self.A, self.v_c, N))


def solve(A, v_c, seq, policy=TruncationPolicy()):
    """General solution of dy = Ay with y(0) = v_c.

    The direct series path works identically for diagonalizable and
    non-diagonalizable A; the Jordan path is a cross-check only.
    """
    return IVPSolution(A, v_c, seq, policy)


def residual_check(sol, N):
    """Largest coefficient norm of (moment derivative of y) - A y through
    order N: c_{p+1} - A c_p over p <= N, the c_p = A^p v_c that
    ``sol.series(N + 1)`` holds, taken from :func:`momexp.matrices.krylov`.
    :func:`momexp.matrices.krylov_mismatches` forms A c_0 ... A c_N in one
    block product and returns only the pairs whose canonical integer forms
    differ, so an equal pair adds 0.0 and only a differing one is normed; a
    difference past the float range gives ``math.inf``.

    This is a consistency identity, not a test of the series: since the
    series is built as c_{p+1} = A c_p, the exact result is zero by
    construction.  It catches a coefficient changed after the series was
    built, or a series step that disagrees with the block product; it does
    not catch a series that is wrong in a way both agree on.  On the float
    backend both sides are the same float products, so it reads 0.0 there
    too.
    """
    _check_order(N)
    worst = 0.0
    for c, ac in krylov_mismatches(sol.A, krylov(sol.A, sol.v_c, N + 1)):
        try:
            worst = max(worst, vec_norm(vec_sub(c, ac)))
        except OverflowError:
            return math.inf
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
    coefficient shift.  It computes on the solution's own numpy arrays, as
    ``sol(z)`` does: y(z) and y(qz) as complex arrays and A y(z) as
    ``sol._a @ y``.  z = 0 is excluded (removable singularity).
    """
    q = float(q)
    if q == 1:
        raise ValueError("the q-difference needs q != 1")
    worst = 0.0
    for z in zs:
        z = complex(z)
        if z == 0:
            raise ValueError("q-derivative residual is undefined at z = 0")
        y = np.array(sol(z))
        dq = (np.array(sol(q * z)) - y) * (1.0 / ((q - 1.0) * z))
        worst = max(worst, vec_norm(dq - sol._a @ y))
    return worst
