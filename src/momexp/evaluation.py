"""Analytic evaluation of generalized exponentials.

Everything here sums the series sum_p A^p z^p / m(p) (or its scalar /
Jordan-block variants) with an incremental term recurrence and a common
stopping rule: a term is "settled" after `settle_count` consecutive norms
below `tol` with an empirical term ratio below one, and the tail is then
bounded geometrically.  Sequences without declared rapid growth can hit a
finite radius of convergence; a persistent term ratio >= 1 is reported as
`radius_exceeded` instead of a value.
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


@dataclass(frozen=True)
class TruncationPolicy:
    tol: float = 1e-12
    max_terms: int = 10000
    settle_count: int = 5
    divergence_guard: float = 1e100

    def __post_init__(self):
        if self.tol <= 0:
            raise ValueError("tol must be positive")
        if not self.max_terms >= self.settle_count >= 1:
            raise ValueError("need max_terms >= settle_count >= 1")


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


class _Stopper:
    """Shared stopping logic over the stream of term norms."""

    def __init__(self, policy, rapid_growth):
        self.policy = policy
        self.rapid_growth = rapid_growth
        self.prev_norm = None
        self.small_run = 0
        self.grow_run = 0
        self.ratio = 0.0
        self.last_norm = 0.0

    def feed(self, norm):
        """Returns a terminal status string, or None to keep summing."""
        p = self.policy
        if math.isnan(norm) or norm > p.divergence_guard:
            return ABORTED_DIVERGENT
        self.ratio = (norm / self.prev_norm) if self.prev_norm else 0.0
        self.prev_norm = norm
        self.last_norm = norm
        if norm < p.tol:
            self.small_run += 1
        else:
            self.small_run = 0
        if self.ratio >= 1.0:
            self.grow_run += 1
        else:
            self.grow_run = 0
        if self.small_run >= p.settle_count and self.ratio < 1.0:
            return CONVERGED
        if not self.rapid_growth and self.grow_run >= p.settle_count:
            return RADIUS_EXCEEDED
        return None

    def tail(self):
        if self.ratio < 1.0:
            return self.last_norm * self.ratio / (1.0 - self.ratio)
        return math.inf


def _is_exact_z(z):
    return isinstance(z, (int, Fraction, GaussianRational))


def _spectral_radius(m):
    return max(abs(ev) for ev in np.linalg.eigvals(m.to_float().to_numpy()))


def _eval_exp_exact(A, z, seq, policy):
    if seq.kind == "geometric":
        # Neumann closed form: sum (Az/b)^p = (I - Az/b)^{-1} inside the
        # radius; exact rational arithmetic throughout.
        M = A.scale(GaussianRational._coerce(z) / seq.param)
        if _spectral_radius(M) >= 1.0:
            return EvalReport(None, 0, math.inf, RADIUS_EXCEEDED)
        value = (CMatrix.identity(A.n, EXACT) - M).inverse()
        return EvalReport(value, 0, 0.0, CONVERGED)
    # general exact path: the series is finite iff Az is nilpotent, and then
    # (Az)^n = 0 by Cayley-Hamilton, so n terms decide it
    M = A.scale(z)
    total = CMatrix.identity(A.n, EXACT)
    term = total
    last = min(A.n, policy.max_terms)
    for p in range(1, last + 1):
        term = (term @ M).scale(seq.value(p - 1) / seq.value(p))
        if term.is_zero():
            return EvalReport(total, p, 0.0, CONVERGED)
        total = total + term
    return EvalReport(total, last + 1, math.inf, MAX_TERMS_REACHED)


def eval_exp(A, z, seq, policy=TruncationPolicy()):
    """Evaluate E(Az) = sum A^p z^p / m(p).

    Float backend: incremental partial sums, T_p = T_{p-1} (Az) m(p-1)/m(p).
    Exact backend (exact matrix, exact z, exact sequence): closed form for
    geometric sequences, otherwise exact summation that converges only when
    the terms vanish identically (nilpotent Az); after n terms without that
    it stops with ``max_terms_reached``.
    """
    if A.backend == EXACT:
        if not (seq.exact and _is_exact_z(z)):
            raise BackendMismatch(
                "exact matrices need an exact sequence and exact z; "
                "convert with to_float() for analytic evaluation"
            )
        return _eval_exp_exact(A, z, seq, policy)
    M = A.scale(complex(z))
    total = CMatrix.identity(A.n, FLOAT)
    term = total
    stopper = _Stopper(policy, seq.rapid_growth_declared)
    terms_used = 1
    for p in range(1, policy.max_terms + 1):
        term = (term @ M).scale(seq.step_ratio(p))
        norm = term.row_sum_norm()
        if norm > 0.0:
            total = total + term
            terms_used = p + 1
        status = stopper.feed(norm)
        if status == CONVERGED:
            return EvalReport(total, terms_used, stopper.tail(), CONVERGED)
        if status is not None:
            return EvalReport(None, p + 1, math.inf, status)
    return EvalReport(total, terms_used, math.inf, MAX_TERMS_REACHED)


def delta_E(lam, h, z, seq, policy=TruncationPolicy()):
    """The scalar family Delta_h E(lam, z) = sum_{p>=h} C(p,h) lam^{p-h} z^p/m(p).

    Binomials are carried incrementally, C(p+1,h) = C(p,h) (p+1)/(p+1-h),
    so no factorial quotient ever overflows.
    """
    if h < 0:
        raise ValueError("h must be nonnegative")
    lam = complex(lam)
    z = complex(z)
    term = z**h / float(seq.value(h))
    total = term
    if lam == 0:
        return EvalReport(total, 1, 0.0, CONVERGED)
    stopper = _Stopper(policy, seq.rapid_growth_declared)
    for p in range(h + 1, h + 1 + policy.max_terms):
        term *= lam * z * (p / (p - h)) * seq.step_ratio(p)
        total += term
        status = stopper.feed(abs(term))
        if status == CONVERGED:
            return EvalReport(total, p - h + 1, stopper.tail(), CONVERGED)
        if status is not None:
            return EvalReport(None, p - h + 1, math.inf, status)
    return EvalReport(total, policy.max_terms, math.inf, MAX_TERMS_REACHED)


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
