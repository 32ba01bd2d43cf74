"""Analytic evaluation of generalized exponentials.

Every series here, E(Az) = sum_p A^p z^p / m(p) and its scalar and
Jordan-block variants, is reported as an :class:`EvalReport` from one of
three paths, each described where it is implemented: the term loop and its
stopping rule (:func:`_sum`), a kind's closed form (geometric's Neumann
form), and, for a float matrix series of a kind of ramification order k,
the Paterson-Stockmeyer sum in (Az)^k (:func:`_ramified`).
:func:`eval_exp` chooses among them.
On the float backend a real Az (every imaginary part zero) is
summed in real arithmetic, on Python floats, and its sum is made complex
once at the end: every nonzero real part is the one the complex sum gives,
and every imaginary part is +0.0, as in that sum.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache
from typing import Any

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
# where a ramified sum pays, timed for ml:2..ml:12 against the term loop on
# complex normal Az and Python float products, with the step loop that
# Paterson-Stockmeyer has since replaced (numpy products will need both timed
# again).  Below this n a product cost about as much as a step's k scalings
# and additions: ml:2 took 1.01 to 1.47 times the term loop's time at n = 3
# and 4, 0.92 to 1.15 at n = 5, 0.84 to 1.05 at n = 6, 0.50 to 0.95 at n >= 8
_RAMIFY_MIN_N = 5
# above this k the deleted step loop's 2(k - 1) products of the powers and its
# recombination were not repaid at a small ||Az|| (n = 10 and 30, spectral
# radius 0.05 to 0.3: ml:5..ml:12 took up to 2.6 times, ml:2..ml:4 at most
# 1.02); this k is not yet timed for Paterson-Stockmeyer, which replaced it
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
        if isinstance(self.tol, bool) or not (math.isfinite(self.tol) and self.tol > 0):
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
    of size >= 1 and relative below (the d_1 = ||Az|| case of Al-Mohy and
    Higham's majorant, SIMAX 31, 2009, section 4).  Otherwise five consecutive term sizes
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
    """Whether sum_p M^p diverges, rho(M) >= 1: for an exact M exactly
    (:func:`momexp.exact._rho_below_one`), for a float M on its float rho,
    whose rounding decides a rho within a few ulps of 1."""
    if M.backend == EXACT:
        return not _rho_below_one(M)
    return max(abs(ev) for ev in np.linalg.eigvals(M.to_numpy())) >= 1.0


def eval_exp(A, z, seq, policy=TruncationPolicy()):
    """Evaluate E(Az) = sum A^p z^p / m(p).

    The exact backend needs an exact matrix, z and sequence.  A kind with a
    closed form takes it: geometric's Neumann form (I - Az/b)^{-1}, with
    ``terms_used`` 0, or ``radius_exceeded`` when rho(Az/b) >= 1.  The exact
    backend decides rho < 1 exactly, by Schur-Cohn; the float backend on the
    float rho, so within rounding of 1 by rounding.  Where a float I - Az/b
    fails the sigma rule though rho < 1, the terms are summed instead, with
    the radius rule off.
    Any other kind is summed as T_p = T_{p-1} (Az) m(p-1)/m(p), from
    T_1 = Az m(0)/m(1) with no product, each later term one product pass
    that scales each entry as it is stored: under the policy on the float
    backend, in real arithmetic when Az is real (the value still holds
    complex entries); exactly on the exact backend, where the sum is finite
    iff Az is nilpotent, and then (Az)^n = 0 by Cayley-Hamilton, so after n
    terms without a zero term it stops with ``max_terms_reached``.  A float
    factorial (k = 1) or ml:k with an integer 1 <= k <= 4 and a nonzero
    n x n Az, n >= 5, is summed in Y = (Az)^k to a degree K fixed in advance
    by a majorant of ||Y^q||, by Paterson-Stockmeyer in blocks of powers of
    Az, with as few products as the blocking allows (q_factorial, whose
    m(p + 1) only exceeds (1 + p) m(p), keeps the term loop).  Its
    ``tail_estimate`` bounds the truncation error of that value, and its
    ``terms_used`` counts the moment terms covered, a multiple of k; a
    degree past ``max_terms``, a term bound past the divergence guard or a
    failed sum falls back to the term loop.
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
            if rep is not None:
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


def _ramified(X, I, k, seq, policy):
    """E(X) = sum_p X^p / m(p) for a kind of ramification order k,
    m(p + k) = (1 + p/k) m(p), in Y = X^k, by Paterson-Stockmeyer; None
    where the term loop must sum it instead.

    The truncation degree is fixed before any Horner product.  The sum up
    to q = K in Y covers the moment terms p < k(K + 1) = ``terms_used``.
    Its coefficients c_{q,r} = 1/m(kq + r) fall by 1/(1 + q + r/k) <= 1/(q + 1)
    per step, and ||Y^q|| <= alpha^q for every q >= p(p - 1) with
    alpha = max(d_p, d_{p+1}), d_j = ||Y^j||^{1/j} (Al-Mohy and Higham,
    SIMAX 31, 2009, Thm 4.2; p = 1 gives alpha = ||Y||).  So for alpha < K + 2
    the error is at most sum_r ||X^r|| c_{K+1,r} alpha^{K+1} / (1 - alpha/(K + 2)),
    computed in logs, and K is the first degree at which that is below tol,
    reported as ``tail_estimate``.  Y^2..Y^s are formed one product each while
    :func:`_blocking` asks for them at the current K, and each sharpens
    alpha, which can only lower K.  At s = 1 the sum is Horner's rule in Y.

    The same majorants bound the largest term ||X^p|| / m(p); where that
    bound passes the term loop's divergence guard, the term loop decides
    the sum.  Otherwise :func:`_horner` sums blocks of b = ks powers
    X^{qk+r} = Y^q X^r, and its value must pass the relative test
    tail < tol min(1, ||E||): if not, K is fixed again against
    tol ||E|| / 2 and the blocks are summed once more.  A power that is
    exactly zero ends the polynomial: converged, with tail 0 and
    ``terms_used`` the multiple of k it lies in.  None (the term loop) for
    a degree past ``max_terms``, a non-finite alpha, a term bound or a
    value past the divergence guard and a second failed relative test."""
    L, limit = seq.log_value, policy.max_terms + 1
    low = [I, X]  # X^0..X^{k-1}
    for _ in range(k - 1):
        low.append(low[-1] @ X)
    weights = [P.row_sum_norm() for P in low]  # 0 only for a zero power
    if 0.0 in weights:
        return _polynomial(low, weights.index(0.0), k, L)
    ys, norms = [I, low.pop()], [1.0, weights.pop()]  # Y^j and ||Y^j||, j = 0, 1, ...

    def spread(top):
        """X^0..X^top as Y^q X^r, and the exponent of the first zero among
        them, if any (each Y^q formed is nonzero)."""
        out = []
        for p in range(top + 1):
            q, r = divmod(p, k)
            P = low[r] if q == 0 else ys[q] if r == 0 else ys[q] @ low[r]
            if P.is_zero():
                return out, p
            out.append(P)
        return out, None

    logw = list(map(math.log, weights))
    logs = {}  # K -> log sum_r ||X^r|| / m(k(K + 1) + r)

    def majorants():
        """(m, log C, log alpha, alpha) with ||Y^q|| <= C alpha^q for every
        q >= m and alpha below the term limit: Al-Mohy and Higham's
        (p(p - 1), 1, max(d_p, d_{p+1})), and (0, C_j, d_j) from
        Y^q = (Y^j)^{q // j} Y^{q % j}, C_j = max_{i<j} ||Y^i|| / d_j^i."""
        d = [1.0] + [x ** (1 / j) for j, x in enumerate(norms) if j]
        out = ([(p * (p - 1), 1.0, max(d[p], d[p + 1])) for p in range(2, len(d) - 1)]
               + [(0, max(norms[i] / d[j] ** i for i in range(j)), d[j])
                  for j in range(1, len(d))])
        return [(m, math.log(C), math.log(a), a) for m, C, a in out if a < limit]

    def bound(K, bounds):
        """log of the tail bound after q = K in Y, inf where no alpha < K + 2."""
        best = min((c + (K + 1) * la - math.log1p(-a / (K + 2))
                    for m, c, la, a in bounds if m <= K + 1 and a < K + 2), default=math.inf)
        if best < math.inf and K not in logs:
            e = [w - L(k * (K + 1) + r) for r, w in enumerate(logw)]
            top = max(e)
            logs[K] = top + math.log(sum(math.exp(x - top) for x in e))
        return best + logs[K] if best < math.inf else best

    def degree(target, good=None, top=limit // k - 1):
        """The first K in 0..top, k(K + 1) <= max_terms + 1, whose tail
        bound is below target, and that bound; or None.  Each majorant's
        bound falls by at least (K + 2)/alpha > 1 per step once
        alpha < K + 2, so the least of them falls with K, and the first K
        is found by bisection, from a gallop up from lo, or from good - 1
        for a K ``good`` known to pass."""
        bounds = majorants()
        if not bounds:  # also a nan or an infinite alpha
            return None
        lo, goal = max(0, int(min(b[3] for b in bounds)) - 1), math.log(target)
        if lo > top:
            return None
        hi, step = lo if good is None else max(lo, good - 1), 1
        while not bound(hi, bounds) < goal:  # gallop up from hi, then bisect
            if hi >= top:
                return None
            lo, hi, step = hi + 1, min(top, hi + step), 2 * step
        while lo < hi:
            mid = (lo + hi) // 2
            if bound(mid, bounds) < goal:
                hi = mid
            else:
                lo = mid + 1
        return hi, math.exp(bound(hi, bounds))

    found = degree(policy.tol)
    if found is None:
        return None
    while len(ys) - 1 < _blocking(found[0], k):
        P = ys[-1] @ ys[1]
        norm = P.row_sum_norm()
        if norm == 0:  # X^{kj} = 0 for the j it would have been
            powers, end = spread(k * len(ys) - 1)
            return _polynomial(powers, k * len(ys) if end is None else end, k, L)
        ys.append(P)
        norms.append(norm)
        found = degree(policy.tol, found[0])  # K can only fall
    # the term loop's divergence guard, on a bound of the largest term:
    # ||X^{kq+r}|| / m(kq + r) <= C alpha^q ||X^r|| / m(kq + r) rises with q
    # while 1 + q + r/k < alpha, as m(p + k) = (1 + p/k) m(p), so it peaks
    # at q = ceil(alpha - 1 - r/k)
    peak = min((max(c + q * la + w - L(k * q + r) for r, w in enumerate(logw)
                    for q in [max(0, math.ceil(a - 1 - r / k))])
                for m, c, la, a in majorants() if m == 0), default=math.inf)
    if peak > math.log(_DIVERGENCE_GUARD):
        return None
    s = len(ys) - 1
    powers, end = spread(k * s)
    if end is not None:
        return _polynomial(powers, end, k, L)
    for retry in (False, True):
        K, tail = found
        value = _horner(powers, k * s, k * (K + 1), L)
        norm = value.row_sum_norm()
        if not 0 < norm <= _DIVERGENCE_GUARD:
            return None
        if tail < policy.tol * min(1.0, norm):
            return EvalReport(value, k * (K + 1), tail, CONVERGED)
        found = None if retry else degree(policy.tol * norm / 2)
        if found is None:
            return None


def _polynomial(powers, end, k, L):
    """The sum of X^0..X^{end-1} where X^end = 0: exact up to rounding, so
    converged with tail 0; ``terms_used`` is the multiple of k end lies in."""
    return EvalReport(_combination(powers, 0, end, 0.0, L), -(-end // k) * k, 0.0, CONVERGED)


def _products(K, k, s):
    """The products Paterson-Stockmeyer makes summing up to q = K in Y, past
    X^2..X^k: Y^2..Y^s, the Y^q X^r between them (ks - k in all) and one
    product per block after the first; K at s = 1, Horner's rule in Y."""
    return k * s - k + -(-(K + 1) // s) - 1


@lru_cache(maxsize=None)
def _blocking(K, k):
    """The least s in 1..K + 1 that makes the fewest products at degree K."""
    return min(range(1, K + 2), key=lambda s: _products(K, k, s))


def _combination(powers, start, count, base, L):
    """sum_{i < count} X^i exp(base - log m(start + i)) from the powers X^i,
    by ``scale`` and ``+``; a factor of exactly 1 scales nothing."""
    out = None
    for i in range(count):
        c = math.exp(base - L(start + i))
        term = powers[i] if c == 1.0 else powers[i].scale(c)
        out = term if out is None else out + term
    return out


def _horner(powers, b, terms, L):
    """sum_{p < terms} X^p / m(p) by Paterson and Stockmeyer (SIAM J. Comput.
    2, 1973), from the powers X^0..X^b: with G = X^b and the blocks
    B_j = sum_{i < b} X^i / m(jb + i), it is B_0 + G(B_1 + G(B_2 + ...)), one
    product per block after the first.  Each H_j = m(jb) sum_{i >= j} G^{i-j} B_i
    (H_0 = B_0 + G H_1 m(0)/m(b) is the sum) has its coefficients
    m(jb)/m(jb + i) <= 1 taken in logs, so none of them under- or
    overflows where a 1/m(p) would, and H_j = m(jb) B_j + G H_{j+1} m(jb)/m(jb + b)."""
    H = above = None
    for j in reversed(range(-(-terms // b))):
        base = L(j * b) if j else 0.0
        B = _combination(powers, j * b, min(b, terms - j * b), base, L)
        if H is not None:
            B = B + (powers[b] @ H).scale(math.exp(base - above))
        H, above = B, base
    return H


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
