"""Analytic evaluation of generalized exponentials.

Every series here, sum_p A^p z^p / m(p) and its scalar / Jordan-block
variants, is summed by one term loop (:func:`_sum`) under one stopping rule:
a term of size exactly 0 ends the sum as converged, since every later term
vanishes too; otherwise the sum is settled after five consecutive term
sizes below `tol` with an empirical term ratio below one, and the tail is
then bounded geometrically.  Sequences without declared rapid growth can hit
a finite radius of convergence; five consecutive term ratios >= 1 are
reported as `radius_exceeded` instead of a value.  The matrix series of a
geometric sequence m(p) = b^p is not summed at all: on either backend it is
the Neumann closed form (I - Az/b)^{-1}, which exists iff rho(Az/b) < 1.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Any

import numpy as np

from .errors import BackendMismatch, EvaluationError
from .matrices import EXACT, FLOAT, CMatrix, GaussianRational, _block_toeplitz

CONVERGED = "converged"
RADIUS_EXCEEDED = "radius_exceeded"
ABORTED_DIVERGENT = "aborted_divergent"
MAX_TERMS_REACHED = "max_terms_reached"

_SETTLE = 5  # consecutive small (or growing) terms that decide a sum
_DIVERGENCE_GUARD = 1e100  # a larger term aborts the sum


@dataclass(frozen=True)
class TruncationPolicy:
    tol: float = 1e-12
    max_terms: int = 10000

    def __post_init__(self):
        if not (math.isfinite(self.tol) and self.tol > 0):
            raise ValueError(f"tol must be finite and positive, got {self.tol!r}")
        if self.max_terms < _SETTLE:
            raise ValueError(f"need max_terms >= {_SETTLE}")


@dataclass
class EvalReport:
    value: Any
    terms_used: int
    tail_estimate: float
    status: str

    def require_converged(self):
        if self.status != CONVERGED:
            raise EvaluationError(self)
        return self.value


def _sum(first, step, size, limit, policy=None, rapid_growth=True):
    """Sum first + t_1 + ... + t_limit, t_k = step(t_{k-1}, k), under the
    stopping rule; ``size`` measures a term.  Without a policy only a zero
    term converges (exact sums, where size need only tell zero from not).
    ``terms_used`` counts the terms summed, or those examined on failure.
    """
    total = term = first
    prev = small = grow = 0
    for k in range(1, limit + 1):
        term = step(term, k)
        norm = size(term)
        if norm == 0:
            return EvalReport(total, k, 0.0, CONVERGED)
        total = total + term
        if policy is None:
            continue
        if math.isnan(norm) or norm > _DIVERGENCE_GUARD:
            return EvalReport(None, k + 1, math.inf, ABORTED_DIVERGENT)
        ratio = norm / prev if prev else 0.0
        prev = norm
        small = small + 1 if norm < policy.tol else 0
        grow = grow + 1 if ratio >= 1.0 else 0
        if small >= _SETTLE and ratio < 1.0:
            return EvalReport(total, k + 1, norm * ratio / (1.0 - ratio), CONVERGED)
        if not rapid_growth and grow >= _SETTLE:
            return EvalReport(None, k + 1, math.inf, RADIUS_EXCEEDED)
    return EvalReport(total, limit + 1, math.inf, MAX_TERMS_REACHED)


def _is_exact_z(z):
    return isinstance(z, (int, Fraction, GaussianRational))


def _spectral_radius(m):
    return max(abs(ev) for ev in np.linalg.eigvals(m.to_float().to_numpy()))


def eval_exp(A, z, seq, policy=TruncationPolicy()):
    """Evaluate E(Az) = sum A^p z^p / m(p).

    The exact backend needs an exact matrix, z and sequence.  A geometric
    sequence takes the Neumann closed form, with ``terms_used`` 0.  Any
    other is summed as T_p = T_{p-1} (Az) m(p-1)/m(p): under the policy on
    the float backend; exactly on the exact backend, where the sum is finite
    iff Az is nilpotent, and then (Az)^n = 0 by Cayley-Hamilton, so after n
    terms without a zero term it stops with ``max_terms_reached``.
    """
    exact = A.backend == EXACT
    if exact and not (seq.exact and _is_exact_z(z)):
        raise BackendMismatch(
            "exact matrices need an exact sequence and exact z; "
            "convert with to_float() for analytic evaluation"
        )
    z = GaussianRational._coerce(z) if exact else complex(z)
    eye = CMatrix.identity(A.n, A.backend)
    if seq.kind == "geometric":
        M = A.scale(z / seq.param)
        if _spectral_radius(M) >= 1.0:
            return EvalReport(None, 0, math.inf, RADIUS_EXCEEDED)
        return EvalReport((eye - M).inverse(), 0, 0.0, CONVERGED)
    M = A.scale(z)

    def step(term, p):
        return (term @ M).scale(seq.step_ratio(p))

    if exact:
        return _sum(eye, step, lambda t: float(not t.is_zero()),
                    min(A.n, policy.max_terms))
    return _sum(eye, step, CMatrix.row_sum_norm, policy.max_terms, policy,
                seq.rapid_growth_declared)


def delta_E(lam, h, z, seq, policy=TruncationPolicy()):
    """The scalar family Delta_h E(lam, z) = sum_{p>=h} C(p,h) lam^{p-h} z^p/m(p).

    Binomials are carried incrementally, C(p,h) = C(p-1,h) p/(p-h), so no
    factorial quotient ever overflows.  This stays a series for every
    sequence, geometric included, so the Jordan path checks the closed form.
    """
    if h < 0:
        raise ValueError("h must be nonnegative")
    z = complex(z)
    lz = complex(lam) * z

    def step(term, k):
        # a zero lam z ends the sum without reading m(h + 1)
        p = h + k
        return term * (lz * (p / k) * seq.step_ratio(p)) if lz else 0j

    return _sum(z**h / float(seq.value(h)), step, abs, policy.max_terms, policy,
                seq.rapid_growth_declared)


def scalar_exp(lam, z, seq, policy=TruncationPolicy()):
    """Scalar E(lam z); the h = 0 member of the Delta family."""
    return delta_E(lam, 0, z, seq, policy)


def _merge_reports(value, reports):
    status = next((r.status for r in reports if r.status != CONVERGED), CONVERGED)
    return EvalReport(
        value if status == CONVERGED else None,
        max(r.terms_used for r in reports),
        sum(r.tail_estimate for r in reports),
        status,
    )


def _jordan_exp(blocks, z, seq, policy):
    """E(Jz) for J = blockdiag of the Jordan blocks [(lam, size)]: each block
    is upper-triangular Toeplitz with first row (Delta_h E(lam, z))_h."""
    rows = [[delta_E(lam, h, z, seq, policy) for h in range(size)]
            for lam, size in blocks]
    value = None
    if all(r.status == CONVERGED for row in rows for r in row):
        value = _block_toeplitz(
            [(size, [r.value for r in row]) for (_, size), row in zip(blocks, rows)],
            FLOAT,
        )
    return _merge_reports(value, [_merge_reports(None, row) for row in rows])


def jordan_block_exp(lam, size, z, seq, policy=TruncationPolicy()):
    """E(J z) for a single Jordan block: upper-triangular Toeplitz with
    (r, r+h) entry Delta_h E(lam, z)."""
    return _jordan_exp([(lam, size)], z, seq, policy)


def eval_via_jordan(dec, z, seq, policy=TruncationPolicy()):
    """E(Az) through a verified decomposition: P blockdiag(E(J_i z)) P^{-1}."""
    report = _jordan_exp(dec.blocks, z, seq, policy)
    if report.value is not None:
        report.value = dec.P.to_float() @ report.value @ dec.P_inv.to_float()
    return report


def norm_bound_check(A, z, seq, policy=TruncationPolicy()):
    """Check the entire-function bound ||E(Az)|| <= E(||A|| |z|)."""
    lhs_rep = eval_exp(A, z, seq, policy)
    rhs_rep = scalar_exp(A.row_sum_norm() * abs(z), 1.0, seq, policy)
    lhs = lhs_rep.require_converged().row_sum_norm()
    rhs = rhs_rep.require_converged().real
    return {"lhs": lhs, "rhs": rhs, "holds": lhs <= rhs + policy.tol}


def det_trace_probe(A, seq, policy=TruncationPolicy()):
    """Return det(E(A)) and E(tr(A)); equal only for m(p) = B^p p!."""
    exp_rep = eval_exp(A, 1.0, seq, policy)
    trace_rep = scalar_exp(complex(A.trace()), 1.0, seq, policy)
    out = {
        "det_of_exp": None,
        "det_status": exp_rep.status,
        "exp_of_trace": None,
        "trace_status": trace_rep.status,
    }
    if exp_rep.status == CONVERGED:
        out["det_of_exp"] = complex(exp_rep.value.det())
    if trace_rep.status == CONVERGED:
        out["exp_of_trace"] = complex(trace_rep.value)
    return out
