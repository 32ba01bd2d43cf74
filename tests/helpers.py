"""Shared test utilities: synthetic Jordan instances with known structure,
a plain-Fraction Gauss-Jordan reference for exact elimination,
plain-Fraction references for the moment-basis Cauchy product, the
inverse-series scalars and the solution series with its residual, and
oracles for the float series E(Az) that share no code with its evaluator."""

import math
import random
from contextlib import contextmanager
from fractions import Fraction
from functools import lru_cache
from itertools import count

import mpmath as mp
import numpy as np
from hypothesis import strategies as st

from momexp import CMatrix, GaussianRational, eval_exp
from momexp.jordan import assemble_jordan


def random_exact_matrix(n, rng, lo=-4, hi=4):
    return CMatrix([[rng.randint(lo, hi) for _ in range(n)] for _ in range(n)])


def random_block_structure(rng, n_max=6, size_max=3, separation_pool=(-3, -2, -1, 0, 1, 2, 3)):
    """Random (eigenvalue, size) list with integer eigenvalues separated by
    >= 1 and block sizes <= size_max; total dimension 2..n_max."""
    n = rng.randint(2, n_max)
    sizes = []
    left = n
    while left:
        s = rng.randint(1, min(size_max, left))
        sizes.append(s)
        left -= s
    lams = list(separation_pool)
    rng.shuffle(lams)
    # the same eigenvalue may carry several blocks
    n_eigs = rng.randint(1, min(len(sizes), len(lams)))
    chosen = lams[:n_eigs]
    return [(chosen[rng.randrange(n_eigs)], s) for s in sizes]


def synthetic_jordan_instance(rng, n_max=6, cond_max=150.0):
    """(A_float, expected block multiset) with A = P J P^{-1} built exactly."""
    while True:
        blocks = random_block_structure(rng, n_max=n_max)
        n = sum(s for _, s in blocks)
        P = random_exact_matrix(n, rng, -3, 3)
        pf = P.to_float().to_numpy()
        if abs(np.linalg.det(pf)) < 0.5 or np.linalg.cond(pf) > cond_max:
            continue
        J = assemble_jordan(blocks, backend="exact")
        A = P @ J @ P.inverse()
        expected = sorted((lam, size) for lam, size in blocks)
        return A.to_float(), expected


def recovered_multiset(dec):
    """Recovered blocks as a sorted multiset of (nearest integer lam, size)."""
    out = []
    for lam, size in dec.blocks:
        assert abs(lam.imag) < 1e-6
        nearest = round(lam.real)
        assert abs(lam.real - nearest) < 1e-6
        out.append((nearest, size))
    return sorted(out)


# -- exact elimination reference -------------------------------------------
# Complex rationals as (re, im) pairs of plain Fractions, so the reference
# shares no arithmetic with the library.

def _mul(a, b):
    return (a[0] * b[0] - a[1] * b[1], a[0] * b[1] + a[1] * b[0])


def _div(a, b):
    d = b[0] * b[0] + b[1] * b[1]
    return ((a[0] * b[0] + a[1] * b[1]) / d, (a[1] * b[0] - a[0] * b[1]) / d)


def _pairs(rows):
    return [[(Fraction(x.re), Fraction(x.im)) for x in r] for r in rows]


def _gaussian(pair):
    return GaussianRational(*pair)


def fraction_gauss_jordan(rows, ncols):
    """Gauss-Jordan on (re, im) Fraction pairs in place over the first
    ``ncols`` columns: first nonzero pivot, pivot rows scaled to 1 and moved
    to the top.  Returns (pivot columns, signed product of the pivots)."""
    zero = (Fraction(0), Fraction(0))
    pivots, det, r = [], (Fraction(1), Fraction(0)), 0
    for c in range(ncols):
        k = next((i for i in range(r, len(rows)) if rows[i][c] != zero), None)
        if k is None:
            continue
        if k != r:
            rows[r], rows[k] = rows[k], rows[r]
            det = (-det[0], -det[1])
        piv = rows[r][c]
        det = _mul(det, piv)
        rows[r] = [_div(x, piv) for x in rows[r]]
        for i in range(len(rows)):
            f = rows[i][c]
            if i != r and f != zero:
                rows[i] = [(x[0] - y[0], x[1] - y[1])
                           for x, y in zip(rows[i], (_mul(f, v) for v in rows[r]))]
        pivots.append(c)
        r += 1
    return pivots, det


def reference_inverse(m):
    """The inverse of an exact CMatrix, or None if it is singular."""
    n = m.n
    one, zero = (Fraction(1), Fraction(0)), (Fraction(0), Fraction(0))
    rows = [r + [one if i == j else zero for j in range(n)]
            for i, r in enumerate(_pairs(m.rows))]
    if len(fraction_gauss_jordan(rows, n)[0]) < n:
        return None
    return CMatrix([[_gaussian(x) for x in r[n:]] for r in rows], "exact")


def reference_det(m):
    pivots, det = fraction_gauss_jordan(_pairs(m.rows), m.n)
    return _gaussian(det) if len(pivots) == m.n else GaussianRational(0)


def reference_kernel(m):
    """ker(m), one vector per free column of the reduced row echelon form."""
    rows = _pairs(m.rows)
    pivots, _ = fraction_gauss_jordan(rows, m.n)
    basis = []
    for fc in (c for c in range(m.n) if c not in pivots):
        v = [GaussianRational(0)] * m.n
        v[fc] = GaussianRational(1)
        for r, pc in enumerate(pivots):
            v[pc] = -_gaussian(rows[r][fc])
        basis.append(tuple(v))
    return basis


def reference_rank(vectors):
    return len(fraction_gauss_jordan(_pairs(vectors), len(vectors[0]))[0])


# -- series references ------------------------------------------------------
# The generalized binomial m(p) / (m(n) m(p-n)) from m(p) alone, and matrix
# coefficients as (re, im) Fraction pairs; no momexp series code is used.

def _binomial_rows(seq, N):
    m = [Fraction(seq.value(p)) for p in range(N + 1)]
    return [[m[p] / (m[n] * m[p - n]) for n in range(p + 1)] for p in range(N + 1)]


def reference_cauchy_product(seq, c1, c2):
    """r_p = sum_n m(p)/(m(n) m(p-n)) c1_n c2_{p-n} for exact CMatrix or
    scalar coefficients, up to order min(N1, N2)."""
    matrix = isinstance(c1[0], CMatrix)
    a = [_pairs(c.rows) if matrix else [[(Fraction(c.re), Fraction(c.im))]] for c in c1]
    b = [_pairs(c.rows) if matrix else [[(Fraction(c.re), Fraction(c.im))]] for c in c2]
    N = min(len(c1), len(c2)) - 1
    size = len(a[0])
    out = []
    for p, row in enumerate(_binomial_rows(seq, N)):
        acc = [[(Fraction(0), Fraction(0))] * size for _ in range(size)]
        for n, r in enumerate(row):
            x, y = a[n], b[p - n]
            for i in range(size):
                for j in range(size):
                    t = (Fraction(0), Fraction(0))
                    for k in range(size):
                        u = _mul(x[i][k], y[k][j])
                        t = (t[0] + u[0], t[1] + u[1])
                    acc[i][j] = (acc[i][j][0] + r * t[0], acc[i][j][1] + r * t[1])
        value = [[_gaussian(e) for e in r] for r in acc]
        out.append(CMatrix(value, "exact") if matrix else value[0][0])
    return out


def reference_phi(seq, N):
    """phi_0 = 1, phi_p = -sum_{j<p} m(p)/(m(j) m(p-j)) phi_j, in Fractions."""
    phis = []
    for p, row in enumerate(_binomial_rows(seq, N)):
        phis.append(-sum((row[j] * phis[j] for j in range(p)), Fraction(0)) if p
                    else Fraction(1))
    return phis


# -- solution-series references ----------------------------------------------
# c_p = A^p v and the residual max_p |c_{p+1} - A c_p| on (re, im) Fraction
# pairs, by schoolbook products on the input entries; no momexp arithmetic.

def scalar_pair(x):
    """An int, Fraction or GaussianRational as a (re, im) pair of Fractions."""
    if isinstance(x, GaussianRational):
        return (Fraction(x.re), Fraction(x.im))
    return (Fraction(x), Fraction(0))


def _mat_vec_pairs(a, c):
    out = []
    for row in a:
        t = (Fraction(0), Fraction(0))
        for x, y in zip(row, c):
            u = _mul(x, y)
            t = (t[0] + u[0], t[1] + u[1])
        out.append(t)
    return out


def reference_solution_series(rows, v, N):
    """[c_0, ..., c_N], c_p = A^p v as lists of (re, im) Fraction pairs, for
    A given by its rows of exact scalars."""
    a = [[scalar_pair(x) for x in r] for r in rows]
    out = [[scalar_pair(x) for x in v]]
    for _ in range(N):
        out.append(_mat_vec_pairs(a, out[-1]))
    return out


def reference_residual(rows, coeffs):
    """max over p of max_i |c_{p+1,i} - (A c_p)_i| for vectors of exact
    scalars, each modulus the hypot of the two parts' floats and
    ``math.inf`` past the float range; 0.0 when every pair is equal."""
    a = [[scalar_pair(x) for x in r] for r in rows]
    c = [[scalar_pair(x) for x in v] for v in coeffs]
    worst = 0.0
    for nxt, prev in zip(c[1:], c[:-1]):
        for x, y in zip(nxt, _mat_vec_pairs(a, prev)):
            if x != y:
                try:
                    worst = max(worst, math.hypot(float(x[0] - y[0]), float(x[1] - y[1])))
                except OverflowError:
                    return math.inf
    return worst


@st.composite
def elimination_matrices(draw):
    """Exact n x n matrices, n = 1..6, real or complex rational, often with
    zero entries, a zero leading column entry (a row swap), a dependent last
    row or a second column that is a multiple of the first (singular, with a
    pivot-less column before the next pivot)."""
    n = draw(st.integers(1, 6))
    part = st.one_of(st.just(0), st.fractions(-9, 9, max_denominator=6))
    imag = st.just(0) if draw(st.booleans()) else part
    rows = [[GaussianRational(draw(part), draw(imag)) for _ in range(n)]
            for _ in range(n)]
    shape = draw(st.sampled_from(["plain", "zero_lead", "dependent_row",
                                  "dependent_column"]))
    s = GaussianRational(draw(part), draw(imag))
    if shape == "zero_lead":
        rows[0][0] = GaussianRational(0)
    elif shape == "dependent_row" and n > 1:
        base = rows[1] if n > 2 else [GaussianRational(0)] * n
        rows[-1] = [x * s + y for x, y in zip(rows[0], base)]
    elif shape == "dependent_column" and n > 1:
        for r in rows:
            r[1] = r[0] * s
    return CMatrix(rows, "exact")


@contextmanager
def lazy_rows_reads():
    """List every attribute an exact CMatrix builds on first read (its
    ``rows``) inside the block."""
    reads = []
    lazy = CMatrix.__getattr__

    def spy(self, name):
        reads.append(name)
        return lazy(self, name)

    CMatrix.__getattr__ = spy
    try:
        yield reads
    finally:
        CMatrix.__getattr__ = lazy


# -- series oracles ------------------------------------------------------------
# E(X) = sum_p X^p / m(p) for a float matrix X, computed without momexp's
# float evaluation: closed forms on normal matrices, mpmath scalars for
# lam I + N with N^2 = 0, and otherwise the partial sum to a degree K whose
# tail is provably below 1e-25.  A float value passes if it lies within
# tail_estimate + C u sum_p ||T_p|| of the oracle, T_p = X^p / m(p) over the
# p < terms_used it summed (row-sum norms): the suite needs C = 6.1 at most,
# and 9.4 was seen over 120 seeds of the ramified normal cases.

U = 2.0**-53
C = 16
_BITS = 128  # the partial sums' binary fixed point: integers in units of 2^-128

# the n > 12 partial sums rely on extended precision, eps 1.08e-19 on x86-64
assert np.finfo(np.longdouble).eps < 1e-18, "np.longdouble has no extended precision here"


def euler_product(x, q):
    """E(x) for qfac:q, q > 1: prod_{k>=0} (1 + (1 - 1/q) x q^{-k}),
    a product with no cancellation between terms."""
    out = 1.0
    for k in range(200):
        out *= 1.0 + (1.0 - 1.0 / q) * x * q**-k
    return out


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


def scaled(A, z):
    """Az as a numpy complex array, asserting that no entry of the float
    product is rounded (the test data are dyadic with few bits), so that an
    oracle sums the very Az the library sums."""
    def exact(v):
        return GaussianRational(Fraction(v.real), Fraction(v.imag))

    x = np.array(A.rows) * complex(z)
    assert all(exact(y) == exact(a) * exact(complex(z))
               for ry, ra in zip(x, np.array(A.rows)) for y, a in zip(ry, ra)), z
    return x


@lru_cache(maxsize=None)
def _ratio(seq, p):
    """r(p) = m(p-1)/m(p) to _BITS + 64 bits: for ml:k from mpmath's log
    Gamma, for the other kinds from their exact values."""
    with mp.workprec(_BITS + 64):
        if seq.kind == "mittag_leffler":
            k = seq.param
            return mp.exp(mp.loggamma(1 + mp.mpf(p - 1) / k) - mp.loggamma(1 + mp.mpf(p) / k))
        r = seq.value(p - 1) / seq.value(p)
        return mp.mpf(r.numerator) / r.denominator


def scalar_series(x, seq):
    """(E(x), E'(x)) = sum_p (x^p, p x^{p-1}) / m(p) as mpmath numbers,
    summed at 40 digits until a term of E is below 1e-40 of its sum."""
    with mp.workdps(40):
        x, e, de, term = mp.mpc(x), mp.mpf(0), mp.mpf(0), mp.mpf(1)  # term = x^p / m(p)
        for p in count():
            e += term
            de += (p + 1) * term * _ratio(seq, p + 1)
            if p > 10 and abs(term) < mp.mpf(10) ** -40 * max(1, abs(e)):
                return e, de
            term *= x * _ratio(seq, p + 1)


def tail_degree(norm, seq):
    """The least K with sum_{p > K} ||X||^p / m(p) < 1e-25 for ||X|| <= norm
    and a log-convex kind: the terms after K + 1 fall by at most
    q = norm r(K + 2), so the tail is at most the first omitted term over
    1 - q."""
    with mp.workdps(30):
        norm, term = mp.mpf(norm), mp.mpf(1)
        for K in count():
            term *= norm * _ratio(seq, K + 1)
            q = norm * _ratio(seq, K + 2)
            if q < 1 and term / (1 - q) < 1e-25:
                return K


def _longdouble(v):
    """An integer in units of 2^-_BITS as an np.longdouble."""
    return np.ldexp(np.longdouble(str(v)), -_BITS)


def partial_sum(x, seq, degree):
    """sum_{p <= degree} x^p / m(p) as an np.clongdouble array, from
    T_0 = I, T_p = (T_{p-1} x) r(p).  For n <= 12 the terms are binary fixed
    point on Python ints: Fractions over one denominator 2^_BITS, each
    truncated once per step, which adds an error of about n 2^-128 (a
    complex product takes three real ones).  Larger n sum in np.clongdouble."""
    n, r = len(x), [int(mp.ldexp(_ratio(seq, p), _BITS)) if p else 0 for p in range(degree + 1)]
    if n > 12:
        x = x.astype(np.clongdouble) if np.any(x.imag) else x.real.astype(np.longdouble)
        term = total = np.eye(n, dtype=x.dtype)
        for p in range(1, degree + 1):
            term = (term @ x) * _longdouble(r[p])
            total = total + term
        return total
    c, d = (np.vectorize(lambda v: int(Fraction(v) * 2**_BITS), otypes=[object])(part)
            for part in (x.real, x.imag))
    real, cd, dc = not np.any(x.imag), c + d, d - c
    tr = sr = np.eye(n, dtype=int).astype(object) << _BITS
    ti = si = 0 * tr
    for p in range(1, degree + 1):
        if real:  # ti stays 0
            re, im = tr @ c, ti
        else:  # (tr + i ti)(c + i d) = (k - ti cd) + i (k + tr dc), k = (tr + ti) c
            k = (tr + ti) @ c
            re, im = k - ti @ cd, k + tr @ dc
        tr, ti = (((m >> _BITS) * r[p]) >> _BITS for m in (re, im))
        sr, si = sr + tr, si + ti
    return np.vectorize(lambda a, b: _longdouble(a) + 1j * _longdouble(b),
                        otypes=[np.clongdouble])(sr, si)


def series_oracle(x, seq):
    """E(x) to within 1e-25: the partial sum to :func:`tail_degree`."""
    norm = float(np.abs(x).sum(axis=1).max()) * (1 + 1e-9)
    return partial_sum(x, seq, tail_degree(norm, seq))


def shift_oracle(lam, c, n, z, seq):
    """E(Az) for A = lam I + c e_1 e_2^T, whose N = c e_1 e_2^T has N^2 = 0:
    (Az)^p = (lam z)^p I + p (lam z)^{p-1} z N, so E(Az) is
    E(lam z) I + z E'(lam z) N (:func:`scalar_series`)."""
    def clongdouble(v):
        return np.longdouble(mp.nstr(v.real, 25)) + 1j * np.longdouble(mp.nstr(v.imag, 25))

    e, de = scalar_series(complex(lam) * complex(z), seq)
    out = np.eye(n, dtype=np.clongdouble) * clongdouble(e)
    with mp.workdps(40):
        out[0, 1] = clongdouble(de * mp.mpf(c) * mp.mpc(z))
    return out


def term_sizes(x, seq, count, v=None):
    """||T_p||, p < count, T_p = x^p / m(p) (or the largest modulus of
    T_p v), in float64: the sizes that scale the rounding allowance."""
    term = np.eye(len(x)) if v is None else np.asarray(v, complex)
    out = []
    for p in range(count):
        term = (x @ term) * float(_ratio(seq, p)) if p else term
        out.append(float(np.abs(term).sum(axis=1).max() if v is None else np.abs(term).max()))
    return out


def assert_within_rounding(rep, want, sizes, tail=None):
    """The pass rule: ||value - want|| <= tail + C u sum_p ||T_p|| over the
    p < terms_used summed; ``tail`` defaults to the report's tail_estimate
    (a partial sum to the same degree passes tail = 0)."""
    got = rep.value.rows if isinstance(rep.value, CMatrix) else rep.value
    diff = np.abs(np.array(got, dtype=np.clongdouble) - np.asarray(want, dtype=np.clongdouble))
    err = float(diff.sum(axis=1).max() if diff.ndim == 2 else diff.max())
    allowed = (rep.tail_estimate if tail is None else tail) + C * U * sum(sizes[:rep.terms_used])
    assert err <= allowed, (err, allowed)


def assert_matches_the_series(rep, A, z, seq, partial=False):
    """The pass rule against E(Az) (:func:`series_oracle`), or with
    ``partial`` against the partial sum over the terms_used terms summed."""
    x = scaled(A, z)
    want = partial_sum(x, seq, rep.terms_used - 1) if partial else series_oracle(x, seq)
    assert_within_rounding(rep, want, term_sizes(x, seq, rep.terms_used), 0.0 if partial else None)


@contextmanager
def counting_products():
    """List, for each matrix product a term loop or a ramified sum makes
    inside the block, the set of its two factors' entry types: float for a
    sum on real parts, complex otherwise (exact for an exact term loop)."""
    kinds = []
    product = CMatrix._scaled_product

    def spy(a, b, s):
        kinds.append({type(a.rows[0][0]), type(b.rows[0][0])})
        return product(a, b, s)

    CMatrix._scaled_product = spy
    try:
        yield kinds
    finally:
        CMatrix._scaled_product = product


def complex_path(A, z, seq):
    """eval_exp(A, z, seq) with a real Az summed as complex: the
    library's own complex path, reached by making ``CMatrix._real_parts``
    the identity, so no copy of its loops is needed."""
    real_parts = CMatrix._real_parts
    CMatrix._real_parts = lambda self: self
    try:
        return eval_exp(A, z, seq)
    finally:
        CMatrix._real_parts = real_parts
