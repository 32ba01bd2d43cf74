import cmath
import math
import random
from fractions import Fraction

import numpy as np
import pytest

from momexp import (
    BackendMismatch,
    CMatrix,
    EvaluationError,
    GaussianRational,
    MomentSequence,
    TruncationPolicy,
    delta_E,
    det_trace_probe,
    eval_exp,
    eval_via_jordan,
    jordan_block_exp,
    jordan_decompose,
    norm_bound_check,
    scalar_exp,
    solve,
)
from momexp import evaluation
from momexp.evaluation import _horner
from momexp.exact import _rho_below_one
from momexp.jordan import JordanDecomposition

FACTORIAL = MomentSequence.factorial()
ML2 = MomentSequence.mittag_leffler(2)
ML3 = MomentSequence.mittag_leffler(3)
ML4 = MomentSequence.mittag_leffler(4)
ML15 = MomentSequence.mittag_leffler(1.5)
QFAC2 = MomentSequence.q_factorial(2)
GEOM2 = MomentSequence.geometric(2)

EXAMPLE1 = CMatrix([[1.0, 0, 1], [1, 2, 0], [0, 0, 1]])
EXAMPLE2 = CMatrix([[0.0, 1, 1], [-1, 2, 1], [1, -1, 1]])


def direct_sum(lam, h, z, seq, terms=300):
    """Brute-force oracle for Delta_h E(lam, z) by direct summation."""
    total = 0j
    for p in range(h, terms):
        m = seq.value(p)
        # reciprocal first: float(huge Fraction) overflows, float(1/huge) is 0
        inv_m = float(Fraction(1) / m) if isinstance(m, Fraction) else 1.0 / m
        total += math.comb(p, h) * lam ** (p - h) * z**p * inv_m
    return total


class TestEvalExp:
    def test_zero_matrix(self):
        for seq in (FACTORIAL, ML2, QFAC2):
            rep = eval_exp(CMatrix.zeros(3, "float"), 0.7 + 0.1j, seq)
            assert rep.status == "converged"
            assert rep.terms_used == 1
            assert rep.value == CMatrix.identity(3, "float")

    def test_geometric_exact_closed_forms(self):
        I = CMatrix.identity(2)
        rep = eval_exp(I, 1, GEOM2)
        assert rep.value == I.scale(2)
        rep_neg = eval_exp(-I, 1, GEOM2)
        assert rep_neg.value == I.scale(Fraction(2, 3))

    def test_geometric_exact_radius(self):
        rep = eval_exp(CMatrix.identity(2), 3, GEOM2)
        assert rep.status == "radius_exceeded"

    def test_nilpotent_factorial(self):
        N = CMatrix([[0.0, 1], [0, 0]])
        rep = eval_exp(N, 3.0, FACTORIAL)
        expected = CMatrix([[1.0, 3.0], [0.0, 1.0]])
        assert (rep.value - expected).row_sum_norm() < 1e-14

    def test_nilpotent_exact_path(self):
        N = CMatrix([[0, 1], [0, 0]])
        rep = eval_exp(N, 3, FACTORIAL)
        assert rep.status == "converged"
        assert rep.value == CMatrix([[1, 3], [0, 1]])

    def test_non_nilpotent_exact_stops_after_n_terms(self):
        # (Az)^n != 0 rules out nilpotency (Cayley-Hamilton)
        rep = eval_exp(CMatrix([[1, 1], [0, 2]]), 1, FACTORIAL)
        assert rep.status == "max_terms_reached"
        assert rep.terms_used <= 3
        assert rep.value == CMatrix([[1, 0], [0, 1]]) + CMatrix([[1, 1], [0, 2]]) + (
            CMatrix([[1, 3], [0, 4]]).scale(Fraction(1, 2))
        )

    def test_geometric_float_radius_exceeded(self):
        rep = eval_exp(CMatrix.identity(2, "float"), 3.0, GEOM2)
        assert rep.status == "radius_exceeded"
        assert rep.value is None

    def test_geometric_float_inside_radius(self):
        rep = eval_exp(CMatrix.identity(2, "float"), 1.0, GEOM2)
        assert abs(rep.value.rows[0][0] - 2.0) < 1e-11

    def test_geometric_float_non_normal_inside_radius(self):
        # rho(Az/b) = 0.9, though the terms grow for a while
        A = CMatrix([[1.8, 20.0], [0.0, 1.8]])
        rep = eval_exp(A, 1.0, GEOM2)
        assert rep.status == "converged"
        want = np.linalg.inv(np.eye(2) - A.to_numpy() / 2)
        got = rep.value.to_numpy()
        assert np.abs(got - want).max() <= 1e-13 * np.abs(want).max()
        assert np.allclose(got, [[10, 1000], [0, 10]], rtol=1e-13, atol=0)

    def test_geometric_float_near_radius(self):
        rep = eval_exp(CMatrix.identity(2, "float").scale(1.996), 1.0, GEOM2)
        assert rep.status == "converged"
        want = CMatrix.identity(2, "float").scale(500.0)
        assert (rep.value - want).row_sum_norm() <= 1e-12 * 500
        out = eval_exp(CMatrix.identity(2, "float").scale(2.01), 1.0, GEOM2)
        assert out.status == "radius_exceeded"

    @pytest.mark.parametrize("a, want", [(0.5, [[2, 4e13], [0, 2]]),
                                         (0.9, [[10, 1e15], [0, 10]])])
    def test_geometric_float_sigma_rule_sums_the_terms(self, a, want):
        # rho(Az) = a < 1, but I - Az fails sigma_min <= 1e-12 sigma_max, so
        # the terms are summed; for a = 0.9 they grow for nine steps first,
        # which the radius rule alone would call divergent
        A = CMatrix([[a, 1e13], [0.0, a]])
        rep = eval_exp(A, 1.0, MomentSequence.geometric(1))
        assert rep.status == "converged" and rep.terms_used > 0
        got = rep.value.to_numpy()
        assert np.abs(got - want).max() <= 1e-12 * np.abs(want).max()
        if a == 0.5:  # the same sum as a term loop over the all-ones table
            ones = MomentSequence.custom(["1"] * 400, rapid_growth_declared=False)
            again = eval_exp(A, 1.0, ones)
            assert again.value == rep.value and again.terms_used == rep.terms_used == 96

    @pytest.mark.parametrize("rows, scale", [
        ([[Fraction(5, 13), Fraction(-12, 13)], [Fraction(12, 13), Fraction(5, 13)]], 1),
        ([[Fraction(9, 41), Fraction(-40, 41)], [Fraction(40, 41), Fraction(9, 41)]], 1),
        ([[Fraction(28, 53), Fraction(-45, 53)], [Fraction(45, 53), Fraction(28, 53)]], 1),
        ([[-4, 1], [-9, 2]], 1),  # P J_2(-1) P^-1, P = [[1, 2], [3, 7]]
        # rho = 1 + 1e-17: no eigenvalues have conj(lam) mu = 1, so the Stein
        # solution exists, and it is indefinite
        ([[Fraction(5, 13), Fraction(-12, 13)], [Fraction(12, 13), Fraction(5, 13)]],
         1 + Fraction(1, 10**17)),
    ], ids=["rotation-5-12-13", "rotation-9-40-41", "rotation-28-45-53", "P-J2(-1)-P^-1",
            "rotation-5-12-13-expanded"])
    def test_geometric_exact_radius_one_exceeded(self, rows, scale):
        # rho = 1 exactly (or just above), though the float rho reads just below 1
        A = CMatrix(rows).scale(scale)
        rho = max(abs(np.linalg.eigvals(A.to_float().to_numpy())))
        assert 1 - 1e-12 < rho < 1
        rep = eval_exp(A, 1, MomentSequence.geometric(1))
        assert (rep.status, rep.value) == ("radius_exceeded", None)

    def test_exact_radius_test_agrees_with_float_rho_away_from_one(self):
        rng = random.Random(2601)
        verdicts = []
        for case in range(120):
            n = rng.randint(1, 3)
            den = rng.randint(2, 6 * n)
            A = CMatrix([[GaussianRational(Fraction(rng.randint(-5, 5), den),
                                           Fraction(rng.randint(-5, 5) * (case % 2), den))
                          for _ in range(n)] for _ in range(n)])
            rho = max(abs(np.linalg.eigvals(A.to_float().to_numpy())))
            if abs(rho - 1) > 1e-6:
                verdicts.append(_rho_below_one(A))
                assert verdicts[-1] == (rho < 1), A
        assert 40 <= sum(verdicts) <= len(verdicts) - 40

    def test_geometric_exact_contraction_near_one(self):
        # P J_2(1 - 1e-12) P^-1 has rho = 1 - 1e-12 < 1, though its float rho
        # reads 1 + 3.8e-8
        a = 1 - Fraction(1, 10**12)
        P = CMatrix([[1, 2], [3, 7]])
        A = P @ CMatrix([[a, 1], [0, a]]) @ P.inverse()
        assert max(abs(np.linalg.eigvals(A.to_float().to_numpy()))) > 1
        rep = eval_exp(A, 1, MomentSequence.geometric(1))
        assert rep.status == "converged"
        assert rep.value == (CMatrix.identity(2) - A).inverse()

    def test_geometric_exact_past_float_range(self):
        # no float rho: the exact test admits the nilpotent matrix ...
        rep = eval_exp(CMatrix([[0, 10**400], [0, 0]]), 1, MomentSequence.geometric(1))
        assert rep.status == "converged"
        assert rep.value == CMatrix([[1, 10**400], [0, 1]])
        # ... and one it rejects keeps the float conversion's OverflowError
        with pytest.raises(OverflowError):
            eval_exp(CMatrix([[1, 0], [0, 10**400]]), 1, GEOM2)

    def test_zero_term_ends_float_sum(self):
        # a nilpotent Az: the third term is zero, so m(4) is never needed
        seq = MomentSequence.custom(["1", "1", "2", "6"], rapid_growth_declared=True)
        N = CMatrix([[0.0, 1, 2], [0, 0, 3], [0, 0, 0]])
        rep = eval_exp(N, 1.0, seq)
        assert rep.status == "converged"
        assert rep.terms_used == 3
        assert rep.tail_estimate == 0.0
        assert rep.value == CMatrix([[1.0, 1, 3.5], [0, 1, 3], [0, 0, 1]])

    def test_divergent_sum_aborts(self):
        # the terms pass the divergence guard before they start to shrink
        rep = scalar_exp(600, 1.0, FACTORIAL)
        assert (rep.status, rep.terms_used) == ("aborted_divergent", 78)
        assert rep.value is None and rep.tail_estimate == math.inf
        rep = eval_exp(CMatrix([[300.0, 0], [0, 1]]), 1.0, FACTORIAL)
        assert rep.status == "aborted_divergent" and rep.value is None
        with pytest.raises(EvaluationError):
            rep.require_converged()

    def test_exact_matrix_with_float_sequence_rejected(self):
        with pytest.raises(BackendMismatch):
            eval_exp(CMatrix.identity(2), 1, ML2)

    def test_monotone_stopping(self):
        prev = 0
        for tol in (1e-6, 1e-9, 1e-12):
            rep = eval_exp(EXAMPLE1, 1.0, FACTORIAL, TruncationPolicy(tol=tol))
            assert rep.terms_used >= prev
            prev = rep.terms_used

    def test_converged_tail_below_tol(self):
        pol = TruncationPolicy(tol=1e-10)
        rep = eval_exp(EXAMPLE1, 0.5, ML2, pol)
        assert rep.status == "converged"
        assert rep.tail_estimate <= pol.tol


def _product(a, b, s=None):
    """a @ b on rows of Python complex, each entry summed left to right from
    its first product and multiplied by s as it is stored."""
    cols = list(zip(*b))
    out = []
    for row in a:
        entries = []
        for col in cols:
            t = row[0] * col[0]
            for x, y in zip(row[1:], col[1:]):
                t = t + x * y
            entries.append(t if s is None else t * s)
        out.append(entries)
    return out


def _plus(a, b):
    return [[x + y for x, y in zip(ra, rb)] for ra, rb in zip(a, b)]


def _norm(rows):
    return max(sum(abs(x) for x in row) for row in rows)


def reference_sum(first, step, size, plus, limit, contraction, policy):
    """eval_exp's term loop and stopping rule for a log-convex sequence,
    written out: while q = contraction(k) < 1, settled once size(T_k) q / (1 - q)
    is below tol min(1, size(S_k)), else after five small terms.
    (value, terms_used, tail_estimate, status)."""
    term = total = first
    prev = small = 0
    for k in range(1, limit + 1):
        term = step(term, k)
        norm = size(term)
        if norm == 0:
            return total, k, 0.0, "converged"
        total = plus(total, term)
        if math.isnan(norm) or norm > 1e100:
            return None, k + 1, math.inf, "aborted_divergent"
        ratio = norm / prev if prev else 0.0
        prev = norm
        small = small + 1 if norm < policy.tol else 0
        q = contraction(k)
        if q < 1.0:
            tail = norm * q / (1.0 - q)
            if tail < policy.tol * min(1.0, size(total)):
                return total, k + 1, tail, "converged"
        elif small >= 5 and ratio < 1.0:
            return total, k + 1, norm * ratio / (1.0 - ratio), "converged"
    return total, limit + 1, math.inf, "max_terms_reached"


def complex_series(A, z, seq, policy=TruncationPolicy()):
    """The float matrix term loop in complex arithmetic, as a reference:
    T_0 = I, T_p = (T_{p-1} @ Az) m(p-1)/m(p) with the first product I @ Az
    made too, and the contraction q_k = ||Az|| m(k)/m(k+1).
    (value rows, terms_used, tail_estimate, status)."""
    n, z = A.n, complex(z)
    M = [[x * z for x in r] for r in A.rows]
    norm_m = _norm(M)
    return reference_sum(
        [[complex(i == j) for j in range(n)] for i in range(n)],
        lambda t, k: _product(t, M, complex(seq.float_step_ratio(k))),
        _norm, _plus, policy.max_terms, lambda k: norm_m * seq.float_step_ratio(k + 1),
        policy)


def ramification(seq, n):
    """The k of an ml:k whose n x n matrix series is summed in Y = (Az)^k:
    an integer k with 2 <= k <= 4, for n >= 5; else None."""
    k = seq.param if seq.kind == "mittag_leffler" and n >= 5 else None
    return int(k) if k is not None and k.is_integer() and 2 <= k <= 4 else None


def ps_saving(K, k, s):
    """Products Paterson-Stockmeyer saves over the step loop up to q = K in
    Y with s blocks: K - 1 steps and k - 1 to recombine, against
    ks - k powers past Y and ceil((K + 1)/s) - 1 Horner products."""
    return K + k - 2 - (k * s - k + -(-(K + 1) // s) - 1)


def ramified_series(A, z, seq, policy=TruncationPolicy()):
    """The ramified float matrix series in complex arithmetic, as a reference.
    X = Az and X^2..X^k by products, Y = X^k, w_r = ||X^r|| for r < k; least
    is the first K at which the best s saves 6 products (ps_saving), and
    cap = min((max_terms + 1) // k, least) - 1.  Where ||Y|| < cap + 2 and
    sum_r w_r / m(k(cap + 1) + r) ||Y||^{cap+1} / (1 - ||Y||/(cap + 2)) < tol,
    the step loop sums it.  Else the degree K is the first with
    k(K + 1) <= max_terms + 1 at which
    log sum_r w_r / m(k(K + 1) + r) + min log(C alpha^{K+1} / (1 - alpha/(K + 2)))
    is below log tol, the min over the majorants ||Y^q|| <= C alpha^q of the
    norms of Y^0..Y^j formed: (1, max(d_p, d_{p+1})) once K + 1 >= p(p - 1),
    and (max_{i<j} ||Y^i|| / d_j^i, d_j), d_j = ||Y^j||^{1/j}; each alpha < K + 2.
    K1 is the first such K.  Y^j = Y^{j-1} @ Y is formed while j is below s,
    the blocking with the largest saving (the least s among equals), K >= least
    and K1 <= 1.5 K.  With s = j, PS sums it where it saves 6 products and
    K1 <= 1.5 K, else the step loop.  PS's powers are X^{qk+r} = Y^q @ X^r,
    and its value Horner's over blocks of b = ks powers:
    H_j = sum_i X^i m(jb)/m(jb + i) + (G @ H_{j+1}) m(jb)/m(jb + b), G = X^b,
    base m(0) = 1 for block 0, a factor 1.0 scaling nothing.  A value whose
    tail is not below tol min(1, ||E||) is summed again at the degree for
    tol ||E|| / 2.  The step loop: T_q = Y^q / q! from the Y^q formed
    (T_1 = Y), then (T_{q-1} @ Y)/q; class sums S_r gain c_r T_q with
    c_r = m(kq)/m(kq + r), a step measures ||T_q|| sum_r w_r c_r and the
    class sums sum_r w_r ||S_r||, the contraction is ||Y||/(q + 1), at most
    (max_terms + 1) // k - 1 steps are made, and the value is
    S_0 + X(S_1 + X(... + X S_{k-1})); terms_used counts k per step.  None
    where eval_exp leaves the sum to the term loop.
    (value rows, terms_used, tail_estimate, status)."""
    n, z, k = A.n, complex(z), int(seq.param)
    L, limit = seq.log_value, policy.max_terms + 1
    X = [[x * z for x in r] for r in A.rows]
    low = [[[complex(i == j) for j in range(n)] for i in range(n)], X]
    while len(low) <= k:
        low.append(_product(low[-1], X))
    ys = [low[0], low.pop()]
    weights = [_norm(P) for P in low]
    norms = [1.0, _norm(ys[1])]

    def blocking(K):
        return max(range(1, K + 2), key=lambda s: (ps_saving(K, k, s), -s))

    def scaled(P, c):
        return [[x * complex(c) for x in r] for r in P]

    def stepped():
        def share(T, q):
            log_m = L(k * q)
            return T, [math.exp(log_m - L(k * q + r)) for r in range(k)]

        def spread(T, coeffs):
            return [T] + [scaled(T, c) for c in coeffs[1:]]

        def size(x):
            if isinstance(x, tuple):
                T, coeffs = x
                return _norm(T) * sum(w * c for w, c in zip(weights, coeffs))
            return sum(w * _norm(S) for w, S in zip(weights, x))

        def step(t, q):
            if q < len(ys):
                return share(ys[q] if q == 1 else scaled(ys[q], 1 / math.factorial(q)), q)
            return share(_product(t[0], ys[1], complex(1 / q)), q)

        rows, terms, tail, status = reference_sum(
            spread(*share(low[0], 0)), step, size,
            lambda total, t: [_plus(S, P) for S, P in zip(total, spread(*t))],
            limit // k - 1, lambda q: norms[1] / (q + 1), policy)
        if status == "aborted_divergent":
            return None
        value = rows[-1]
        for S in reversed(rows[:-1]):
            value = _plus(S, _product(X, value))
        return value, k * terms, tail, status

    least = next(K for K in range(100) if ps_saving(K, k, blocking(K)) >= 6)
    cap, a = min(limit // k, least) - 1, norms[1]
    if a < cap + 2 and (sum(w * math.exp(-L(k * (cap + 1) + r)) for r, w in enumerate(weights))
                        * a ** (cap + 1) / (1 - a / (cap + 2)) < policy.tol):
        return stepped()
    logw = [math.log(w) for w in weights]

    def degree(target):
        d = [1.0] + [x ** (1 / j) for j, x in enumerate(norms) if j]
        bounds = [(p * (p - 1), 1.0, max(d[p], d[p + 1])) for p in range(2, len(d) - 1)]
        bounds += [(0, max(norms[i] / d[j] ** i for i in range(j)), d[j])
                   for j in range(1, len(d))]
        for K in range(limit // k):
            logs = [math.log(C) + (K + 1) * math.log(a) - math.log1p(-a / (K + 2))
                    for m, C, a in bounds if m <= K + 1 and a < K + 2]
            if logs:
                e = [w - L(k * (K + 1) + r) for r, w in enumerate(logw)]
                top = max(e)
                log_tail = top + math.log(sum(math.exp(x - top) for x in e)) + min(logs)
                if log_tail < math.log(target):
                    return K, math.exp(log_tail)
        return None

    def combination(powers, start, count, base):
        out = None
        for i in range(count):
            c = math.exp(base - L(start + i))
            term = powers[i] if c == 1.0 else scaled(powers[i], c)
            out = term if out is None else _plus(out, term)
        return out

    found = degree(policy.tol)
    if found is None:
        return None
    first = found[0]
    while (len(ys) - 1 < blocking(found[0]) and found[0] >= least
           and first <= 1.5 * found[0]):
        ys.append(_product(ys[-1], ys[1]))
        norms.append(_norm(ys[-1]))
        found = degree(policy.tol)
    s = len(ys) - 1
    if ps_saving(found[0], k, s) < 6 or first > 1.5 * found[0]:
        return stepped()
    powers = [low[r] if q == 0 else ys[q] if r == 0 else _product(ys[q], low[r])
              for q, r in map(lambda p: divmod(p, k), range(k * s + 1))]
    b = k * s
    for retry in (False, True):
        if retry:
            found = degree(policy.tol * norm / 2)
            if found is None:
                return None
        K, tail = found
        terms, H = k * (K + 1), None
        for j in reversed(range(-(-terms // b))):
            base = L(j * b) if j else 0.0
            B = combination(powers, j * b, min(b, terms - j * b), base)
            if H is not None:
                B = _plus(B, scaled(_product(powers[b], H), math.exp(base - above)))
            H, above = B, base
        norm = _norm(H)
        assert 0 < norm <= 1e100
        if tail < policy.tol * min(1.0, norm):
            return H, terms, tail, "converged"
    return None


def series_reference(A, z, seq, policy=TruncationPolicy()):
    """The complex-arithmetic reference of the path eval_exp takes for seq."""
    out = ramified_series(A, z, seq, policy) if ramification(seq, A.n) else None
    return out or complex_series(A, z, seq, policy)


def vector_series(A, v, z, seq, policy=TruncationPolicy()):
    """sol(z)'s vector term loop as a reference: numpy complex128,
    t_p = (Az t_{p-1}) m(p-1)/m(p), sized by the largest entry modulus."""
    a = np.array(A.rows, complex) * complex(z)
    norm_a = float(np.abs(a).sum(axis=1).max())
    return reference_sum(
        np.array(v, complex), lambda t, p: (a @ t) * seq.float_step_ratio(p),
        lambda t: float(max(map(abs, t), default=0.0)), lambda a, b: a + b,
        policy.max_terms, lambda p: norm_a * seq.float_step_ratio(p + 1), policy)


def real_gaussian(n, seed):
    """A seeded real n x n matrix with N(0, 1) entries, a tenth of them
    zero and a few -0.0, so that signed zeros meet the sum."""
    rng = np.random.default_rng(seed)
    a = rng.standard_normal((n, n))
    a[rng.random((n, n)) < 0.1] = 0.0
    a[0, -1] = -0.0
    return CMatrix(a.tolist())


class TestRealSeries:
    """A real Az is summed on floats: the value must be the complex sum's,
    bit for bit, held as complex entries with imaginary parts +0.0."""

    @staticmethod
    def run(monkeypatch, A, z, seq):
        kinds = set()
        product = CMatrix._scaled_product

        def spy(a, b, s):
            kinds.add(type(a.rows[0][0]))
            return product(a, b, s)

        monkeypatch.setattr(CMatrix, "_scaled_product", spy)
        rep = eval_exp(A, z, seq)
        monkeypatch.undo()
        return rep, kinds

    @pytest.mark.parametrize("seq", [FACTORIAL, ML2, QFAC2, ML3, ML15],
                             ids=["factorial", "ml2", "qfac2", "ml3", "ml1.5"])
    @pytest.mark.parametrize("n", [3, 12, 64])
    def test_real_sum_is_the_complex_sum(self, monkeypatch, n, seq):
        A = real_gaussian(n, n)
        z = (-1.0 if n == 12 else 1.0) / A.row_sum_norm()
        rep, kinds = self.run(monkeypatch, A, z, seq)
        rows, terms, tail, status = series_reference(A, z, seq)
        assert kinds == {float}
        assert (rep.status, rep.terms_used, rep.tail_estimate) == (status, terms, tail)
        assert status == "converged"
        for got, want in zip(rep.value.rows, rows):
            assert all(type(x) is complex for x in got)
            assert [x.real.hex() for x in got] == [x.real.hex() for x in want]
            assert all(x.imag.hex() == (0.0).hex() for x in got)

    @pytest.mark.parametrize("seq", [ML2, ML3], ids=["ml2", "ml3"])
    @pytest.mark.parametrize("which", ["real", "complex A", "complex z"])
    def test_paterson_stockmeyer_sum_is_the_complex_sum(self, monkeypatch, which, seq):
        # at ||Az|| = 3 the 12 x 12 sums are long enough for Paterson-Stockmeyer:
        # a real Az on floats gives the complex sum's real parts and +0.0
        A = real_gaussian(12, 12)
        z = 3.0 / A.row_sum_norm()
        if which == "complex A":
            rng = np.random.default_rng(12)
            A = CMatrix((np.array(A.rows) + 1j * rng.standard_normal((12, 12)) / 10).tolist())
        elif which == "complex z":
            z = complex(z, z / 3)
        horner = []
        monkeypatch.setattr(evaluation, "_horner", lambda *a: horner.append(a) or _horner(*a))
        rep, kinds = self.run(monkeypatch, A, z, seq)
        rows, terms, tail, status = series_reference(A, z, seq)
        assert len(horner) == 1 and kinds == {float if which == "real" else complex}
        assert (rep.status, rep.terms_used, rep.tail_estimate) == (status, terms, tail)
        assert status == "converged"
        assert [[(x.real.hex(), x.imag.hex()) for x in r] for r in rep.value.rows] == [
            [(x.real.hex(), x.imag.hex()) for x in r] for r in rows]
        if which == "real":
            assert all(x.imag.hex() == (0.0).hex() for r in rep.value.rows for x in r)

    @pytest.mark.parametrize("which", ["complex A", "complex z", "tiny imaginary entry"])
    def test_complex_inputs_take_the_complex_sum(self, monkeypatch, which):
        rng = np.random.default_rng(7)
        a = rng.standard_normal((6, 6))
        z = 0.2
        if which == "complex A":
            a = a + 1j * rng.standard_normal((6, 6))
        elif which == "complex z":
            z = complex(0.15, -0.1)
        else:
            a = a.astype(complex)
            a[2, 3] += 1e-300j
        A = CMatrix(a.tolist())
        rep, kinds = self.run(monkeypatch, A, z, ML2)
        rows, terms, tail, status = series_reference(A, z, ML2)
        assert kinds == {complex}
        assert (rep.status, rep.terms_used, rep.tail_estimate) == (status, terms, tail)
        hexes = [[(x.real.hex(), x.imag.hex()) for x in r] for r in rows]
        assert [[(x.real.hex(), x.imag.hex()) for x in r] for r in rep.value.rows] == hexes
        if which == "tiny imaginary entry":
            assert any(x.imag for r in rep.value.rows for x in r)

    @pytest.mark.parametrize("A, z, seq, stop", [
        # settled at a certified term T_k: T_1 is Az r(1) itself, and each
        # of T_2..T_k is one product, so k - 1 = terms_used - 2 products
        (EXAMPLE1, 0.5, FACTORIAL, 2),
        (CMatrix([[0.3j, 1.0], [-1.0, 0.2]]), 1.0, ML2, 2),
        # a zero term T_k ends the sum with terms_used = k: k - 1 products
        (CMatrix([[0.0, 1, 2], [0, 0, 3], [0, 0, 0]]), 1.0, FACTORIAL, 1),
        (CMatrix([[0, 1, 2], [0, 0, 3], [0, 0, 0]]), 1, FACTORIAL, 1),
        (CMatrix([[0, GaussianRational(1, 1)], [0, 0]]), 1, FACTORIAL, 1),
    ])
    def test_first_term_makes_no_product(self, monkeypatch, A, z, seq, stop):
        calls = []
        product = CMatrix._scaled_product
        monkeypatch.setattr(CMatrix, "_scaled_product",
                            lambda a, b, s: calls.append(1) or product(a, b, s))
        rep = eval_exp(A, z, seq)
        assert rep.status == "converged"
        assert len(calls) == rep.terms_used - stop


def exact_symmetric(n, rho, seed, imag=False):
    """A seeded real symmetric A = Q diag(mu) Q^T held exactly in floats,
    with Q, mu: Q is a row permutation of two Householder reflections
    I - (2/n) v v^T, v in {-1, 1}^n, n a power of two, and mu are multiples
    of rho/64 in [-rho, rho], so that no entry of A is rounded and the
    reference Q diag(f(mu)) Q^T carries only the rounding of its own sums.
    With ``imag``, mu gains an imaginary part of the same kind, and A is a
    complex normal matrix whose real and imaginary parts are exact."""
    rng = np.random.default_rng(seed)
    q = np.eye(n)
    for _ in range(2):
        v = rng.choice([-1.0, 1.0], n)
        q = q @ (np.eye(n) - (2 / n) * np.outer(v, v))
    q = q[rng.permutation(n)]
    mu = rng.integers(-64, 65, n) / 64 * rho
    if imag:
        mu = mu + 1j * rng.integers(-64, 65, n) / 64 * rho
    a = q @ np.diag(mu) @ q.T
    for part in (np.real, np.imag) if imag else (np.real,):
        exact = [[sum(Fraction(q[i, k]) * Fraction(part(mu[k])) * Fraction(q[j, k])
                      for k in range(n)) for j in range(n)] for i in range(n)]
        assert [[Fraction(x) for x in row] for row in part(a).tolist()] == exact
    return a, q, mu


def ml_reference(x, k):
    """E(x) = sum_p x^p / Gamma(1 + p/k) for ml:k, summed at 40 digits by
    mpmath until a term is below 1e-40 of the sum."""
    mp = pytest.importorskip("mpmath")
    with mp.workdps(40):
        x, total, p = mp.mpc(x), mp.mpf(0), 0
        while True:
            term = x**p * mp.rgamma(1 + mp.mpf(p) / k)
            total += term
            if p > 10 and abs(term) < mp.mpf(10) ** -40 * max(1, abs(total)):
                return complex(total)
            p += 1


def euler_product(x, q):
    """E(x) for qfac:q, q > 1: prod_{k>=0} (1 + (1 - 1/q) x q^{-k}),
    a product with no cancellation between terms."""
    out = 1.0
    for k in range(200):
        out *= 1.0 + (1.0 - 1.0 / q) * x * q**-k
    return out


class TestCertifiedTail:
    """A log-convex sequence settles a float sum at its first term whose
    ratio-majorant tail bound is below tol min(1, ||S||): the bound must
    bound the error, up to the rounding of the sum itself."""

    U = 2.0**-53
    C = 16  # rounding allowance C u sum_p ||T_p||; the worst case seen is 6.1

    @pytest.mark.parametrize("seq, f, rhos", [
        (FACTORIAL, math.exp, (0.5, 2.0, 5.0)),
        (ML2, lambda x: math.exp(x * x) * math.erfc(-x), (0.5, 1.5, 3.0)),
        (QFAC2, lambda x: euler_product(x, 2.0), (0.5, 2.0, 5.0)),
    ], ids=["factorial", "ml2", "qfac2"])
    @pytest.mark.parametrize("seed", range(6))
    def test_tail_bounds_the_error(self, seq, f, rhos, seed):
        n = (4, 8)[seed % 2]
        a, q, mu = exact_symmetric(n, rhos[seed % 3], seed)
        want = q @ np.diag([f(x) for x in mu]) @ q.T
        rep = eval_exp(CMatrix(a.tolist()), 1.0, seq)
        assert rep.status == "converged"
        assert rep.tail_estimate < rep.value.row_sum_norm() * 1e-12
        got = np.array(rep.value.rows).real
        err = np.abs(got - want).sum(axis=1).max()
        term, sizes = np.eye(n), 1.0  # sum_p ||T_p|| over the summed terms
        for p in range(1, rep.terms_used):
            term = term @ a * seq.float_step_ratio(p)
            sizes += np.abs(term).sum(axis=1).max()
        assert err <= rep.tail_estimate + self.C * self.U * sizes

    @pytest.mark.parametrize("seq, imag, rhos", [
        (ML2, True, (0.5, 1.5, 2.5)),
        (ML3, False, (0.5, 1.5, 2.5)),
        (ML3, True, (0.5, 1.25, 1.75)),
        (ML4, False, (0.5, 1.0, 1.5)),
    ], ids=["ml2-complex", "ml3-real", "ml3-complex", "ml4-real"])
    @pytest.mark.parametrize("seed", range(6))
    def test_tail_bounds_the_ramified_error(self, seq, imag, rhos, seed):
        # the ramified sums against mpmath, with the same allowance C = 16
        # over the term loop's sum_p ||T_p|| (worst seen: 8.0 here, 9.4 over 120 seeds)
        n, k = (8, 16)[seed % 2], int(seq.param)
        a, q, mu = exact_symmetric(n, rhos[seed % 3], seed, imag)
        want = q @ np.diag([ml_reference(x, k) for x in mu]) @ q.T
        rep = eval_exp(CMatrix(a.tolist()), 1.0, seq)
        assert rep.status == "converged" and rep.terms_used % k == 0
        assert rep.tail_estimate < rep.value.row_sum_norm() * 1e-12
        got = np.array(rep.value.rows)
        err = np.abs(got - want).sum(axis=1).max()
        term, sizes = np.eye(n), 1.0
        for p in range(1, rep.terms_used):
            term = term @ a * seq.float_step_ratio(p)
            sizes += np.abs(term).sum(axis=1).max()
        assert err <= rep.tail_estimate + self.C * self.U * sizes

    def test_norm_overstating_growth_keeps_the_five_term_rule(self):
        # ||Az|| r(k+1) >= 1 for every k summed, so no term is certified
        rep = eval_exp(CMatrix([[0.5, 1e13], [0, 0.5]]), 1.0, FACTORIAL)
        assert (rep.status, rep.terms_used) == ("converged", 27)
        assert rep.tail_estimate.hex() == "0x1.da0849a71b3d7p-72"
        assert [[x.real.hex() for x in r] for r in rep.value.rows] == [
            ["0x1.a61298e1e069ap+0", "0x1.dfd74e9d97290p+43"],
            ["0x0.0p+0", "0x1.a61298e1e069ap+0"]]
        assert all(x.imag.hex() == "0x0.0p+0" for r in rep.value.rows for x in r)

    def test_custom_table_keeps_the_five_term_rule(self):
        # a custom table's step ratios are not known to fall, so the same
        # factorial values stop later as a table than as the kind
        table = MomentSequence.custom([str(math.factorial(p)) for p in range(40)],
                                      rapid_growth_declared=True)
        rep = eval_exp(EXAMPLE1, 0.5, table)
        assert (rep.status, rep.terms_used) == ("converged", 21)
        assert rep.tail_estimate.hex() == "0x1.327af65217becp-64"
        assert [[x.real.hex() for x in r] for r in rep.value.rows] == [
            ["0x1.a61298e1e069ap+0", "0x0.0p+0", "0x1.a61298e1e069ap-1"],
            ["0x1.11ceb880aa838p+0", "0x1.5bf0a8b14576ap+1", "0x1.f62b607dd2748p-3"],
            ["0x0.0p+0", "0x0.0p+0", "0x1.a61298e1e069ap+0"]]
        assert all(x.imag.hex() == "0x0.0p+0" for r in rep.value.rows for x in r)
        assert eval_exp(EXAMPLE1, 0.5, FACTORIAL).terms_used < rep.terms_used


class TestRamifiedSeries:
    """ml:k with an integer 2 <= k <= 4 sums the matrix series of an n x n Az
    with n >= 5 in (Az)^k; every other sum keeps the term loop."""

    @pytest.mark.parametrize("seq", [ML2, ML3], ids=["ml2", "ml3"])
    def test_max_terms_reached(self, seq):
        # ||Y|| puts the degree fixed in advance past max_terms = 8, so the
        # term loop sums the series and runs out of terms
        rng = np.random.default_rng(31)
        a = rng.standard_normal((5, 5)) + 1j * rng.standard_normal((5, 5))
        A, pol = CMatrix(a.tolist()), TruncationPolicy(max_terms=8)
        rep = eval_exp(A, 2.0, seq, pol)
        rows, terms, tail, status = complex_series(A, 2.0, seq, pol)
        assert ramified_series(A, 2.0, seq, pol) is None
        assert (rep.status, rep.terms_used, rep.tail_estimate) == (status, terms, tail)
        assert status == "max_terms_reached" and terms == 9
        assert rep.value.rows == tuple(map(tuple, rows))

    def test_max_terms_below_the_order_keeps_the_term_loop(self):
        # ml:8 is not ramified: max_terms = 5 covers max_terms + 1 terms
        rng = np.random.default_rng(32)
        A = CMatrix(rng.standard_normal((8, 8)).tolist())
        seq, pol = MomentSequence.mittag_leffler(8), TruncationPolicy(max_terms=5)
        rep = eval_exp(A, 1.0, seq, pol)
        assert (rep.status, rep.terms_used) == ("max_terms_reached", 6)
        rows, terms, tail, status = complex_series(A, 1.0, seq, pol)
        assert (rep.status, rep.terms_used, rep.tail_estimate) == (status, terms, tail)

    @pytest.mark.parametrize("seq", [ML2, ML3], ids=["ml2", "ml3"])
    def test_zero_z(self, seq):
        rep = eval_exp(CMatrix(np.arange(25.0).reshape(5, 5).tolist()), 0.0, seq)
        assert (rep.status, rep.terms_used) == ("converged", 1)
        assert rep.value == CMatrix.identity(5, "float")

    @pytest.mark.parametrize("seq, terms", [(ML2, 6), (ML3, 5)], ids=["ml2", "ml3"])
    def test_nilpotent(self, seq, terms):
        # X^5 = 0.  ml2 finds X^5 = 0 among the powers of its blocks, which
        # ends the polynomial in the class of Y^2 (6 moment terms); ml3's
        # ||Y|| = ||X^3|| puts its degree past max_terms, and the term loop
        # ends at the zero term T_5
        X = np.triu(np.arange(1.0, 26.0).reshape(5, 5), 1)
        rep = eval_exp(CMatrix(X.tolist()), 1.0, seq)
        assert (rep.status, rep.terms_used, rep.tail_estimate) == ("converged", terms, 0.0)
        want, power = np.zeros((5, 5)), np.eye(5)
        for p in range(5):
            want, power = want + power / seq.value(p), power @ X
        assert np.abs(np.array(rep.value.rows) - want).max() <= 1e-15 * np.abs(want).max()

    @pytest.mark.parametrize("seq, terms", [(ML2, 6), (ML3, 6), (ML4, 8)],
                             ids=["ml2", "ml3", "ml4"])
    def test_zero_power_ends_the_polynomial(self, seq, terms):
        # 3 S for the 5 x 5 shift S: ||Y^j|| = 3^{kj} until Y^j = 0, so no
        # power sharpens the degree past where Paterson-Stockmeyer pays, and
        # the zero among the powers it forms ends the sum at X^5 = 0
        X = np.diag([3.0] * 4, 1)
        rep = eval_exp(CMatrix(X.tolist()), 1.0, seq)
        assert (rep.status, rep.terms_used, rep.tail_estimate) == ("converged", terms, 0.0)
        want, power = np.zeros((5, 5)), np.eye(5)
        for p in range(5):
            want, power = want + power / seq.value(p), power @ X
        assert np.abs(np.array(rep.value.rows) - want).max() <= 1e-15 * np.abs(want).max()

    @pytest.mark.parametrize("n", [2, 5, 8])
    def test_overstated_step_size_falls_back_to_the_term_loop(self, n):
        # ||Y|| = 1e60 puts the degree fixed in advance past max_terms (a
        # step loop's size ||T_1|| ||X|| m(2)/m(3) was about 1e120, past the
        # 1e100 guard), while no term of the series passes about 3e60
        a = np.eye(n) * 0.5
        a[0, 1] = 1e60
        A = CMatrix(a.tolist())
        rep = eval_exp(A, 1.0, ML2)
        rows, terms, tail, status = complex_series(A, 1.0, ML2)
        assert (rep.status, rep.terms_used, rep.tail_estimate) == (status, terms, tail)
        assert status == "converged"
        assert [[x.real.hex() for x in r] for r in rep.value.rows] == [
            [x.real.hex() for x in r] for r in rows]

    def test_non_normal_sum_stops_no_later_than_the_term_loop(self):
        # 0.5 I + 1e40 e_1 e_2^T: ||Y|| = 1e40 overstates the growth of Y^q,
        # and the degree it fixes is past max_terms, so the term loop sums the
        # series in 69 terms (a ramified step loop took 110)
        a = np.eye(8) * 0.5
        a[0, 1] = 1e40
        A = CMatrix(a.tolist())
        rep = eval_exp(A, 1.0, ML2)
        rows, terms, tail, status = complex_series(A, 1.0, ML2)
        assert (rep.status, rep.terms_used, rep.tail_estimate) == (status, terms, tail)
        assert (status, terms) == ("converged", 69)
        assert [[x.real.hex() for x in r] for r in rep.value.rows] == [
            [x.real.hex() for x in r] for r in rows]

    @pytest.mark.parametrize("k, n", [(1, 5), (1.5, 5), (5, 5), (9, 5), (2, 4), (4, 4)])
    @pytest.mark.parametrize("imag", [False, True], ids=["real", "complex"])
    def test_other_cases_keep_the_term_loop(self, k, n, imag):
        rng = np.random.default_rng(29)
        a = rng.standard_normal((n, n)) + (1j * rng.standard_normal((n, n)) if imag else 0)
        A, seq = CMatrix((a / 8).tolist()), MomentSequence.mittag_leffler(k)
        rep = eval_exp(A, 1.0, seq)
        rows, terms, tail, status = complex_series(A, 1.0, seq)
        assert (rep.status, rep.terms_used, rep.tail_estimate) == (status, terms, tail)
        assert status == "converged"
        assert [[x.real.hex() for x in r] for r in rep.value.rows] == [
            [x.real.hex() for x in r] for r in rows]
        if imag:
            assert [[x.imag.hex() for x in r] for r in rep.value.rows] == [
                [x.imag.hex() for x in r] for r in rows]

    @pytest.mark.parametrize("seq", [ML2, ML3], ids=["ml2", "ml3"])
    def test_vector_series_keeps_the_term_loop(self, seq):
        rng = np.random.default_rng(30)
        a = rng.standard_normal((6, 6)) + 1j * rng.standard_normal((6, 6))
        A, v, z = CMatrix((a / 3).tolist()), tuple(rng.standard_normal(6) + 0j), 0.8 - 0.3j
        rep = solve(A, v, seq).evaluate_report(z)
        value, terms, tail, status = vector_series(A, v, z, seq)
        assert (rep.status, rep.terms_used, rep.tail_estimate) == (status, terms, tail)
        assert status == "converged"
        assert [(x.real.hex(), x.imag.hex()) for x in rep.value] == [
            (x.real.hex(), x.imag.hex()) for x in value.tolist()]


def power_over_factorial(a, b, h):
    """(a + bi)^h / h! for integers a, b: the power in Gaussian integers,
    each part rounded once, so no step overflows."""
    re, im = 1, 0
    for _ in range(h):
        re, im = re * a - im * b, re * b + im * a
    f = math.factorial(h)
    return complex(float(Fraction(re, f)), float(Fraction(im, f)))


class TestDeltaE:
    @pytest.mark.parametrize("lam, h, a, b", [
        (3.0, 120, 2, 0), (2.0, 171, 3, 0), (0.5, 200, 3, 4)])
    def test_settles_relative_to_a_tiny_value(self, lam, h, a, b):
        # every term is far below tol = 1e-12, yet the value is accurate to
        # 1e-12 relative: Delta_h E(lam, z) = z^h e^{lam z} / h! for factorial
        z = complex(a, b)
        want = power_over_factorial(a, b, h) * cmath.exp(lam * z)
        rep = delta_E(lam, h, z if b else float(a), FACTORIAL)
        assert rep.status == "converged"
        assert rep.tail_estimate <= 1e-12 * abs(rep.value)
        assert abs(rep.value - want) <= 1e-12 * abs(want)

    def test_h0_matches_matrix_eval(self):
        for lam, z in [(1.3, 0.7), (-0.4 + 0.2j, 1.1)]:
            for seq in (FACTORIAL, ML2, QFAC2):
                scalar = delta_E(lam, 0, z, seq).value
                mat = eval_exp(CMatrix([[complex(lam)]]), z, seq).value
                assert abs(scalar - mat.rows[0][0]) < 1e-14

    def test_factorial_closed_form(self):
        # index shift gives Delta_h E = z^h e^{lam z} / h!
        for lam, z, h in [(1.0, 1.0, 2), (0.5, 2.0, 3), (-1.2, 0.8, 1)]:
            got = delta_E(lam, h, z, FACTORIAL).value
            want = z**h * cmath.exp(lam * z) / math.factorial(h)
            assert abs(got - want) < 1e-12
        assert abs(delta_E(1.0, 2, 1.0, FACTORIAL).value - math.e / 2) < 1e-12

    def test_lambda_zero(self):
        for h, seq in [(0, FACTORIAL), (2, QFAC2), (3, ML2)]:
            rep = delta_E(0.0, h, 0.7, seq)
            assert rep.terms_used == 1
            assert abs(rep.value - 0.7**h / float(seq.value(h))) < 1e-15

    @pytest.mark.parametrize("lam, h, seq", [
        (0.5, 15, MomentSequence.q_factorial(1000)),
        (1.0, 46, QFAC2),
        (1.0, 171, FACTORIAL),
    ])
    def test_moment_past_float_range(self, lam, h, seq):
        # m(h) > 1.8e308, so the value is subnormal or 0 and must not raise
        rep = delta_E(lam, h, 1.0, seq)
        assert rep.status == "converged"
        lam = Fraction(lam)
        want = float(sum(math.comb(p, h) * lam ** (p - h) / seq.value(p)
                         for p in range(h, h + 60)))
        assert want < 1e-300 and rep.value.imag == 0.0
        assert math.isclose(rep.value.real, want, rel_tol=1e-3, abs_tol=1e-320)

    def test_power_past_float_range(self):
        # 60^200 overflows a float, but Delta_200 E(1, 60) = 60^200 e^60 / 200!
        # (mpmath, 40 digits) does not
        rep = delta_E(1.0, 200, 60.0, FACTORIAL)
        assert rep.status == "converged"
        assert math.isclose(rep.value.real, 6180595.920278906, rel_tol=1e-10)
        assert rep.value.imag == 0.0

    @pytest.mark.parametrize("h", [200, 201])
    def test_negative_power_past_float_range_stays_real(self, h):
        # (-60)^h overflows; Delta_h E(-1, -60) = (-60)^h e^60 / h! is real
        rep = delta_E(-1.0, h, -60.0, FACTORIAL)
        want = (-1) ** h * float(Fraction(60**h, math.factorial(h))) * math.exp(60)
        assert rep.status == "converged"
        assert rep.value.imag == 0.0
        assert math.isclose(rep.value.real, want, rel_tol=1e-10)

    @pytest.mark.parametrize("h, z, seq", [(200, 10, FACTORIAL), (400, 5, ML2)])
    def test_quotient_in_range_past_moment_range(self, h, z, seq):
        # m(h) = 200! is past the float range (ml:2 reads it as inf) while
        # z^h / m(h) is not; with lam = 0 that quotient is the whole value
        rep = delta_E(0.0, h, float(z), seq)
        want = float(Fraction(z**h, math.factorial(200)))
        assert rep.status == "converged" and rep.terms_used == 1
        assert want > 1e-200 and rep.value.imag == 0.0
        assert math.isclose(rep.value.real, want, rel_tol=1e-10)

    def test_zero_z_past_moment_range(self):
        # 200! is past the float range, and z^h / m(h) at z = 0 is 0
        rep = delta_E(0.5, 200, 0.0, FACTORIAL)
        assert rep.status == "converged" and rep.value == 0

    @pytest.mark.parametrize("a, b", [(3, 4), (-2, 1), (0, 7)])
    def test_complex_quotient_past_moment_range(self, a, b):
        # with lam = 0 the value is its first term z^200 / 200!, which takes
        # the phase of z^200 from (z / |z|)^200
        rep = delta_E(0, 200, complex(a, b), FACTORIAL)
        want = complex(GaussianRational(a, b) ** 200 / math.factorial(200))
        assert rep.status == "converged" and rep.terms_used == 1
        assert abs(rep.value - want) <= 1e-12 * abs(want)

    def test_against_direct_sum(self):
        for seq in (FACTORIAL, ML2, QFAC2):
            for h in (0, 1, 2):
                got = delta_E(1.0, h, 0.5, seq).value
                assert abs(got - direct_sum(1.0, h, 0.5, seq)) < 1e-12

    def test_max_terms_counts_every_term(self):
        # terms 0..max_terms were summed, as eval_exp reports them
        pol = TruncationPolicy(max_terms=5)
        rep = delta_E(3.0, 1, 1.0, FACTORIAL, pol)
        assert rep.status == "max_terms_reached"
        assert rep.terms_used == 6
        assert eval_exp(CMatrix([[3.0]]), 1.0, FACTORIAL, pol).terms_used == 6
        block = jordan_block_exp(3.0, 2, 1.0, FACTORIAL, pol)
        assert block.status == "max_terms_reached"
        assert block.terms_used == 6

    def test_coefficient_recurrence_exact(self):
        # d_p(h) = C(p,h) lam^{p-h} satisfies d_{p+1}(h) = lam d_p(h) + d_p(h-1)
        lam = Fraction(3, 7)

        def d(p, h):
            if h < 0 or p < h:
                return Fraction(0)
            return math.comb(p, h) * lam ** (p - h)

        for p in range(12):
            for h in range(6):
                assert d(p + 1, h) == lam * d(p, h) + d(p, h - 1)


class TestJordanBlockExp:
    def test_size_one(self):
        rep = jordan_block_exp(1.5, 1, 0.4, ML2)
        assert abs(rep.value.rows[0][0] - scalar_exp(1.5, 0.4, ML2).value) < 1e-14

    def test_nilpotent_factorial(self):
        rep = jordan_block_exp(0.0, 3, 1.0, FACTORIAL)
        expected = CMatrix([[1.0, 1.0, 0.5], [0, 1, 1], [0, 0, 1]])
        assert (rep.value - expected).row_sum_norm() < 1e-14

    def test_qfac_display(self):
        # §-free oracle: entries are direct sums of C(p,h) z^p / [p]_q!
        z = 0.5
        rep = jordan_block_exp(1.0, 3, z, QFAC2)
        for i in range(3):
            for j in range(3):
                want = direct_sum(1.0, j - i, z, QFAC2) if j >= i else 0.0
                assert abs(rep.value.rows[i][j] - want) < 1e-12

    def test_toeplitz_structure(self):
        rep = jordan_block_exp(0.3 + 0.1j, 4, 0.9, ML2)
        m = rep.value.rows
        for i in range(3):
            for j in range(3):
                assert m[i][j] == m[i + 1][j + 1]


class TestEvalViaJordan:
    def test_diagonal_case(self):
        lams = [0.5, -1.0, 2.0]
        dec = JordanDecomposition(
            P=CMatrix.identity(3, "float"),
            blocks=[(complex(l), 1) for l in lams],
            P_inv=CMatrix.identity(3, "float"),
        )
        rep = eval_via_jordan(dec, 0.7, ML2)
        for i, l in enumerate(lams):
            assert abs(rep.value.rows[i][i] - scalar_exp(l, 0.7, ML2).value) < 1e-12

    def test_blocks_laid_out_on_the_diagonal(self):
        blocks = [(0.5, 2), (-1.0 + 0.5j, 1), (0.3, 3)]
        eye = CMatrix.identity(6, "float")
        dec = JordanDecomposition(P=eye, blocks=blocks, P_inv=eye)
        expected = [[0j] * 6 for _ in range(6)]
        off = 0
        for lam, size in blocks:
            block = jordan_block_exp(lam, size, 0.7, ML2).value.rows
            for i in range(size):
                expected[off + i][off:off + size] = block[i]
            off += size
        value = eval_via_jordan(dec, 0.7, ML2).value
        assert [list(r) for r in value.rows] == expected

    def test_merged_failure_keeps_its_own_term_count(self):
        # with m(p) = 1 the block at 2 grows (radius_exceeded after 7 terms)
        # and the block at 0.9 settles too slowly (max_terms_reached, 13)
        ones = MomentSequence.custom(["1"] * 30, rapid_growth_declared=False)
        pol = TruncationPolicy(max_terms=12)
        first, second = (jordan_block_exp(lam, 1, 1.0, ones, pol) for lam in (2.0, 0.9))
        assert (first.status, first.terms_used) == ("radius_exceeded", 7)
        assert (second.status, second.terms_used) == ("max_terms_reached", 13)
        eye = CMatrix.identity(2, "float")
        dec = JordanDecomposition(P=eye, blocks=[(2.0, 1), (0.9, 1)], P_inv=eye)
        rep = eval_via_jordan(dec, 1.0, ones, pol)
        assert (rep.value, rep.status, rep.terms_used) == (None, "radius_exceeded", 7)

    @pytest.mark.parametrize("z", [0.3, 1 + 0.5j])
    @pytest.mark.parametrize("seq", [FACTORIAL, ML2], ids=["factorial", "ml2"])
    def test_example1_agreement(self, seq, z):
        dec = jordan_decompose(EXAMPLE1)
        direct = eval_exp(EXAMPLE1, z, seq).value
        via = eval_via_jordan(dec, z, seq).value
        assert (direct - via).row_sum_norm() <= 1e-10

    def test_example2_agreement(self):
        dec = jordan_decompose(EXAMPLE2)
        direct = eval_exp(EXAMPLE2, 0.4, QFAC2).value
        via = eval_via_jordan(dec, 0.4, QFAC2).value
        assert (direct - via).row_sum_norm() <= 1e-10

    def test_random_path_equivalence(self):
        rng = random.Random(41)
        pol = TruncationPolicy(tol=1e-12)
        for seq in (FACTORIAL, ML2, QFAC2):
            for _ in range(7):
                A = CMatrix(
                    [[rng.randint(-2, 2) * 1.0 for _ in range(3)] for _ in range(3)]
                )
                dec = jordan_decompose(A)
                z = rng.uniform(-1, 1) + 1j * rng.uniform(-1, 1)
                direct = eval_exp(A, z, seq, pol).value
                via = eval_via_jordan(dec, z, seq, pol).value
                assert (direct - via).row_sum_norm() <= 1e-8


class TestNormBound:
    def test_zero_matrix(self):
        out = norm_bound_check(CMatrix.zeros(2, "float"), 1.0, ML2)
        assert out["lhs"] == pytest.approx(1.0)
        assert out["rhs"] == pytest.approx(1.0)
        assert out["holds"]

    def test_example1_factorial(self):
        out = norm_bound_check(EXAMPLE1, 1.0, FACTORIAL)
        assert math.isfinite(out["lhs"]) and math.isfinite(out["rhs"])
        assert out["holds"]

    def test_random_sweep(self):
        rng = random.Random(55)
        for _ in range(100):
            A = CMatrix([[rng.uniform(-2, 2) / 3 for _ in range(3)] for _ in range(3)])
            z = rng.uniform(-1, 1) + 1j * rng.uniform(-1, 1)
            assert norm_bound_check(A, z, ML2)["holds"]


class TestDetTraceProbe:
    def test_factorial_classical_identity(self):
        A = CMatrix([[1.0, 0], [0, 2.0]])
        out = det_trace_probe(A, FACTORIAL)
        assert abs(out["det_of_exp"] - math.e**3) < 1e-10
        assert abs(out["exp_of_trace"] - math.e**3) < 1e-10

    def test_ml2_breaks_identity(self):
        A = CMatrix.identity(2, "float")
        out = det_trace_probe(A, ML2)
        # oracle: E_{1/2}(1)^2 vs E_{1/2}(2) by direct summation
        e1 = direct_sum(1.0, 0, 1.0, ML2)
        e2 = direct_sum(2.0, 0, 1.0, ML2)
        assert abs(out["det_of_exp"] - e1**2) < 1e-9
        assert abs(out["exp_of_trace"] - e2) < 1e-9
        assert abs(out["det_of_exp"] - out["exp_of_trace"]) > 0.1

    def test_geometric_trace_diverges(self):
        A = CMatrix.identity(2, "float")
        out = det_trace_probe(A, GEOM2)
        assert abs(out["det_of_exp"] - 4.0) < 1e-10
        assert out["trace_status"] == "radius_exceeded"
        assert out["exp_of_trace"] is None


class TestPolicy:
    def test_invariants(self):
        with pytest.raises(ValueError):
            TruncationPolicy(tol=0.0)
        with pytest.raises(ValueError):
            TruncationPolicy(max_terms=2)
        with pytest.raises(ValueError):
            TruncationPolicy(max_terms=10.0)
        with pytest.raises(ValueError):
            TruncationPolicy(max_terms=math.inf)

    def test_require_converged_raises(self):
        rep = eval_exp(CMatrix.identity(2, "float"), 3.0, GEOM2)
        with pytest.raises(EvaluationError):
            rep.require_converged()
