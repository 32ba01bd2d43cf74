"""Analytic evaluation of generalized exponentials.

Every series here, sum_p A^p z^p / m(p) and its scalar / Jordan-block
variants, is summed by one term loop (:func:`_sum`) under one stopping rule:
a term of size exactly 0 ends the sum as converged, since every later term
vanishes too.  A log-convex kind (every built-in kind: r(p) = m(p-1)/m(p)
is nonincreasing) bounds each later term ratio of a float sum by
q_k = ||Az|| r(k+1) (the row-sum norm, read once per sum; the scalar
Delta_h sums use their exact next ratio), and while q_k < 1 the sum is
settled at the first term T_k whose tail bound ||T_k|| q_k / (1 - q_k) is
below tol min(1, ||S_k||): the d_1 = ||Az|| case of Al-Mohy and Higham's
majorant (SIMAX 31, 2009, section 4).  Where q_k >= 1 (a non-normal Az whose
norm overstates its growth) and for custom tables, the sum is settled after
five consecutive term sizes below `tol` with an empirical term ratio below
one, and the tail is then estimated geometrically.  Sequences without
declared rapid growth can hit a finite radius of convergence; there five
consecutive term ratios >= 1 are reported as `radius_exceeded` instead of a
value.  A kind with a closed form
(``rules.neumann``: geometric, m(p) = b^p) is not summed: E(Az) is
(I - Az/b)^{-1}, which exists iff rho(Az/b) < 1, decided in floats or, for
an exact Az near rho = 1, exactly (:func:`_neumann_diverges`).  Only where a
float I - Az/b fails the sigma rule inside the radius is its series summed.
Any other matrix series takes Az m(0)/m(1) itself as its first term, with no
product by I, and makes each later term T_{p-1} (Az) m(p-1)/m(p) in one
product pass (:meth:`CMatrix._scaled_product`), which scales each entry as it
is stored instead of building the product and then a scaled copy of it.
A kind with a ramification order k (``rules.ramify``: ml:k for an integer
k >= 2, where m(p + k) = (1 + p/k) m(p)) sums its float matrix series in
Y = (Az)^k instead (:func:`_ramified`) when k <= 4 and Az is n x n with
n >= 5:
each residue class p = kq + r is a series of exponential type in Y, so one
product per step covers k moment terms.  Its steps shrink by ||Y||/(q + 1)
or faster, so the same rule of :func:`_sum` certifies the tail of the whole
value, and ``terms_used`` counts the moment terms covered, k per step.  A
ramified sum that aborts is summed again by the term loop, whose guard sees
the terms themselves.  A larger k, a smaller Az, the vector series of
``sol(z)`` and the scalar sums keep the term loop.
On the float backend a real Az (every imaginary part zero) is
summed in real arithmetic, on Python floats, and its sum is made complex
once at the end: every nonzero real part is the one the complex sum gives,
and every imaginary part is +0.0, as in that sum.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from operator import add, mul
from typing import Any, NamedTuple

import numpy as np

from .errors import EvaluationError, SingularMatrix
from .exact import _rho_below_one
from .jordan import _block_toeplitz
from .matrices import EXACT, FLOAT, CMatrix, require_exact, vec_norm

CONVERGED = "converged"
RADIUS_EXCEEDED = "radius_exceeded"
ABORTED_DIVERGENT = "aborted_divergent"
MAX_TERMS_REACHED = "max_terms_reached"

_SETTLE = 5  # consecutive small (or growing) terms that decide a sum
_DIVERGENCE_GUARD = 1e100  # a larger term aborts the sum
# where a ramified sum pays, timed against the term loop on complex normal Az:
# below this n a product costs about as much as a ramified step's k scalings
# and additions (ml:2 at n = 3 and 4 took 1.01 to 1.47 times the term loop's
# time, at n = 5 0.92 to 1.15, at n = 6 0.84 to 1.05, at n >= 8 0.50 to 0.95)
_RAMIFY_MIN_N = 5
# above this k the 2(k - 1) products of the powers and the recombination are
# not repaid at a small ||Az|| (at n = 10 and 30 and a spectral radius of 0.05
# to 0.3, ml:5..ml:12 took up to 2.6 times the term loop's time and ml:2..ml:4
# at most 1.02 times)
_RAMIFY_MAX_K = 4


@dataclass(frozen=True)
class TruncationPolicy:
    """How far a float sum runs.  ``tol`` bounds a certified tail: it is
    absolute for a sum of norm >= 1 and relative below, so a tiny value such
    as a Delta_h far out is still settled to about tol relative.  Truncation
    leaves up to about ``tol`` of error, so a caller who wants more digits
    passes a smaller one.  Where no tail is certified, the five-term rule
    compares term sizes with ``tol`` itself.  ``max_terms`` caps the terms
    summed."""

    tol: float = 1e-12
    max_terms: int = 10000

    def __post_init__(self):
        if not (math.isfinite(self.tol) and self.tol > 0):
            raise ValueError(f"tol must be finite and positive, got {self.tol!r}")
        if not isinstance(self.max_terms, int) or self.max_terms < _SETTLE:
            raise ValueError(f"max_terms must be an integer >= {_SETTLE}, "
                             f"got {self.max_terms!r}")


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


def _sum(first, step, size, limit, policy=None, rapid_growth=True, contraction=None):
    """Sum first + t_1 + ... + t_limit, t_k = step(t_{k-1}, k), under the
    stopping rule; ``size`` measures a term.  Without a policy only a zero
    term converges (exact sums, where size need only tell zero from not).
    ``contraction(k)``, where given, is a q_k with size(t_{j+1}) <= q_k
    size(t_j) for every j >= k; while q_k < 1 the tail after t_k is at most
    size(t_k) q_k / (1 - q_k), and the sum is settled at the first k where
    that bound is below tol min(1, size(S_k)), so tol is absolute for a sum
    of size >= 1 and relative below.  Otherwise five consecutive term sizes
    below tol with an empirical term ratio below one settle it, and without
    declared rapid growth five consecutive ratios >= 1 report
    ``radius_exceeded``.  ``terms_used`` counts the terms summed, or those
    examined on failure.
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
        q = contraction(k) if contraction else math.inf
        if q < 1.0:
            tail = norm * q / (1.0 - q)
            if tail < policy.tol and tail < policy.tol * size(total):
                return EvalReport(total, k + 1, tail, CONVERGED)
        elif small >= _SETTLE and ratio < 1.0:
            return EvalReport(total, k + 1, norm * ratio / (1.0 - ratio), CONVERGED)
        elif not rapid_growth and grow >= _SETTLE:
            return EvalReport(None, k + 1, math.inf, RADIUS_EXCEEDED)
    return EvalReport(total, limit + 1, math.inf, MAX_TERMS_REACHED)


def _neumann_diverges(M):
    """Whether sum_p M^p diverges, rho(M) >= 1.  The float backend reads the
    float rho, whose rounding decides a rho within a few ulps of 1.  An exact
    M is decided exactly (:func:`momexp.exact._rho_below_one`) when its float
    rho is within 1e-3 of 1 or not finite; with no float at all, the exact
    test can only admit it, and else the OverflowError stands."""
    try:
        rho = max(abs(ev) for ev in np.linalg.eigvals(M.to_float().to_numpy()))
    except OverflowError:
        if _rho_below_one(M):
            return False
        raise
    if M.backend == EXACT and not (math.isfinite(rho) and abs(rho - 1.0) > 1e-3):
        return not _rho_below_one(M)
    return rho >= 1.0


def eval_exp(A, z, seq, policy=TruncationPolicy()):
    """Evaluate E(Az) = sum A^p z^p / m(p).

    The exact backend needs an exact matrix, z and sequence.  A kind with a
    closed form takes it: geometric's Neumann form (I - Az/b)^{-1}, with
    ``terms_used`` 0, or ``radius_exceeded`` when rho(Az/b) >= 1.  The float
    backend decides rho < 1 in floats, so within rounding of 1 by rounding;
    the exact backend decides it exactly where the float rho is within 1e-3
    of 1 or has no float.  Where a float I - Az/b fails the sigma rule though
    rho < 1, the terms are summed instead, with the radius rule off.  Any
    other kind is summed as T_p = T_{p-1} (Az) m(p-1)/m(p), from
    T_1 = Az m(0)/m(1) with no product, each later term one product pass
    that scales each entry as it is stored: under the policy on the float
    backend, in real arithmetic when Az is real (the value still holds
    complex entries); exactly on the exact backend, where the sum is finite
    iff Az is nilpotent, and then (Az)^n = 0 by Cayley-Hamilton, so after n
    terms without a zero term it stops with ``max_terms_reached``.  A float
    ml:k with an integer 2 <= k <= 4 and a nonzero n x n Az, n >= 5, is
    summed in Y = (Az)^k, one product per k moment terms, as
    S_0 + Az(S_1 + Az(... + Az S_{k-1})) with S_r = sum_q Y^q / m(kq + r);
    its ``tail_estimate`` bounds the truncation error of that value, and its
    ``terms_used`` counts the moment terms covered, a multiple of k.
    """
    return _exp_series(A, z, seq, policy)


def _exp_series(A, z, seq, policy, a=None, v=None):
    """The sum of :func:`eval_exp`, or given numpy arrays a = A and v, of E(Az) v."""
    exact = A.backend == EXACT
    if exact:
        require_exact(seq, "moment sequence")
    z = require_exact(z, "z") if exact else complex(z)
    rapid = seq.rapid_growth_declared
    if seq.rules.neumann:
        M = A.scale(z / seq.param)
        if _neumann_diverges(M):
            return EvalReport(None, 0, math.inf, RADIUS_EXCEEDED)
        try:
            inv = (CMatrix.identity(A.n, A.backend) - M).inverse()
        except SingularMatrix:  # float I - M, by the sigma rule: sum the terms
            rapid = True
        else:
            return EvalReport(inv if v is None else inv.rows @ v, 0, 0.0, CONVERGED)
    ratio = seq.step_ratio if exact else seq.float_step_ratio
    real = False
    if v is None:
        M, first = A.scale(z), CMatrix.identity(A.n, A.backend)
        size = (lambda t: float(not t.is_zero())) if exact else CMatrix.row_sum_norm
        if not exact and all(x.imag == 0 for r in M.rows for x in r):
            real, M, first = True, M._real_parts(), first._real_parts()
        order = seq.rules.ramify and seq.rules.ramify(seq.param)
        # a zero Az is left to the term loop, which ends at T_1 = 0
        if (order and order <= _RAMIFY_MAX_K and not exact and M.n >= _RAMIFY_MIN_N
                and not M.is_zero()):
            rep = _ramified(M, first, order, seq, policy)
            # its step sizes are products of norms, which a non-normal Az can
            # push past the guard while every term is far below it
            if rep.status != ABORTED_DIVERGENT:
                if real and rep.value is not None:
                    rep.value = rep.value._complexified()
                return rep

        def step(term, p):  # T_1 is M r(1) itself: the term before it is I
            return M.scale(ratio(p)) if p == 1 else term._scaled_product(M, ratio(p))
    else:
        M, first, size = a * z, v, (lambda t: float(any(t))) if exact else vec_norm

        def step(term, p):
            return (M @ term) * ratio(p)

    if exact:
        return _sum(first, step, size, min(A.n, policy.max_terms))
    contraction = None
    if seq.rules.log_convex:  # ||T_{j+1}|| <= ||T_j|| ||Az|| r(j+1), r nonincreasing
        norm = M.row_sum_norm() if v is None else float(np.abs(M).sum(axis=1).max())

        def contraction(k):
            return norm * ratio(k + 1)
    rep = _sum(first, step, size, policy.max_terms, policy, rapid, contraction)
    if real and rep.value is not None:
        rep.value = rep.value._complexified()
    return rep


class _Share(NamedTuple):
    """Step q of a ramified sum: T_q and m(kq)/m(kq + r) for each class r."""

    T: CMatrix
    coeffs: tuple

    def spread(self):
        """m(kq)/m(kq + r) T_q for each class r; the factor of class 0 is 1."""
        return (self.T if r == 0 else self.T.scale(c) for r, c in enumerate(self.coeffs))


class _Classes(tuple):
    """The class sums (S_r) of a ramified sum; adding a step's share adds
    its multiple of T_q to each."""

    __slots__ = ()

    def __add__(self, share):
        return _Classes(map(add, self, share.spread()))


def _ramified(X, I, k, seq, policy):
    """E(X) = sum_r X^r S_r with S_r = sum_q Y^q / m(kq + r), Y = X^k, for a
    kind of ramification order k, m(p + k) = (1 + p/k) m(p).  With X^2..X^k
    formed once (k - 1 products), step q makes T_q = Y^q / m(kq) = T_{q-1} Y / q
    in one product pass and adds m(kq)/m(kq + r) T_q to each S_r; the value
    is S_0 + X(S_1 + X(... + X S_{k-1})), k - 1 more products.  A step's size
    is ||T_q|| sum_r ||X^r|| m(kq)/m(kq + r), and since
    m(kq + r)/m(kq + k + r) = 1/(1 + q + r/k) <= 1/(q + 1), ||Y||/(q + 1)
    bounds every later step ratio: the tail bound of :func:`_sum` then bounds
    the error of E itself, measured against sum_r ||X^r|| ||S_r|| >= ||E||.
    ``terms_used`` counts the moment terms covered, k per step, so a
    ``max_terms`` cap covers at most max_terms + 1 of them (k <= 4 and
    max_terms >= 5 keep that step limit nonnegative).  A step's size bounds
    the norms of its k moment terms summed, so it can be far above each of
    them: the caller retries an aborted sum with the term loop."""
    powers = [I, X]
    for _ in range(2, k):
        powers.append(powers[-1] @ X)
    Y = powers[-1] @ X
    weights = [P.row_sum_norm() for P in powers]
    norm = Y.row_sum_norm()

    def share(T, q):
        log_m = seq.log_value(k * q)
        return _Share(T, tuple(math.exp(log_m - seq.log_value(k * q + r)) for r in range(k)))

    def step(term, q):  # T_1 is Y itself: no product by T_0 = I
        return share(Y if q == 1 else term.T._scaled_product(Y, 1 / q), q)

    def size(x):  # of a step's share, or of the class sums
        if isinstance(x, _Share):
            return x.T.row_sum_norm() * sum(map(mul, weights, x.coeffs))
        return sum(map(mul, weights, map(CMatrix.row_sum_norm, x)))

    rep = _sum(_Classes(share(I, 0).spread()), step, size, (policy.max_terms + 1) // k - 1,
               policy, seq.rapid_growth_declared, lambda q: norm / (q + 1))
    if rep.value is not None:
        value = rep.value[-1]
        for S in reversed(rep.value[:-1]):
            value = S + X @ value
        rep.value = value
    rep.terms_used *= k
    return rep


def delta_E(lam, h, z, seq, policy=TruncationPolicy()):
    """The scalar family Delta_h E(lam, z) = sum_{p>=h} C(p,h) lam^{p-h} z^p/m(p).

    Binomials are carried incrementally, C(p,h) = C(p-1,h) p/(p-h), so no
    factorial quotient ever overflows.  Nor does z^h or m(h) past the float
    range: the first term z^h / m(h) is then formed in logs
    (:func:`_power_over_moment`).  This stays a series for every sequence,
    geometric included, so the Jordan path checks the closed form.
    """
    if h < 0:
        raise ValueError("h must be nonnegative")
    z = complex(z)
    lz = complex(lam) * z

    def step(term, k):
        # a zero lam z ends the sum without reading m(h + 1)
        p = h + k
        return term * (lz * (p / k) * seq.float_step_ratio(p)) if lz else 0j

    contraction = None
    if seq.rules.log_convex:  # then the ratio of terms k+1 and k is nonincreasing in k
        alz = abs(lz)

        def contraction(k):
            return alz * ((h + k + 1) / (k + 1)) * seq.float_step_ratio(h + k + 1)

    first = _power_over_moment(z, h, seq)
    return _sum(first, step, abs, policy.max_terms, policy, seq.rapid_growth_declared,
                contraction)


def _power_over_moment(z, h, seq):
    """z^h / m(h) for a complex z.  When z^h or m(h) is past the float range
    (an ``ml:k`` value reads inf there), the quotient may not be, so it is
    exp(h log|z| - log m(h)) times the phase of z^h: (z / |z|)^h, or the
    sign (-1)^h for a real z, so a real quotient stays real."""
    try:
        m = float(seq.value(h))
        if m == math.inf:
            raise OverflowError
        return z**h / m
    except OverflowError:
        pass
    if z == 0:
        return z**h * math.exp(-seq.log_value(h))
    size = math.exp(h * math.log(abs(z)) - seq.log_value(h))
    if z.imag == 0:
        return complex(-size if z.real < 0 and h % 2 else size)
    return size * (z / abs(z)) ** h


def scalar_exp(lam, z, seq, policy=TruncationPolicy()):
    """Scalar E(lam z); the h = 0 member of the Delta family."""
    return delta_E(lam, 0, z, seq, policy)


def _merge_reports(value, reports):
    """One report for several sums: the first failure, with its own term
    count, or else converged with the largest count."""
    tail = sum(r.tail_estimate for r in reports)
    failed = next((r for r in reports if r.status != CONVERGED), None)
    if failed is not None:
        return EvalReport(None, failed.terms_used, tail, failed.status)
    return EvalReport(value, max(r.terms_used for r in reports), tail, CONVERGED)


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
        p, p_inv = (m.to_float().to_numpy() for m in (dec.P, dec.P_inv))
        report.value = CMatrix.from_numpy(p @ report.value.to_numpy() @ p_inv)
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
