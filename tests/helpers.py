"""Shared test utilities: synthetic Jordan instances with known structure,
and a plain-Fraction Gauss-Jordan reference for exact elimination."""

import random
from contextlib import contextmanager
from fractions import Fraction

import numpy as np
from hypothesis import strategies as st

from momexp import CMatrix, GaussianRational
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
