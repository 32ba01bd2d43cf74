"""Independent references for the correctness gate.

None of these call momexp.  ``factorial`` goes through ``scipy.linalg.expm``,
``geom:b`` through a numpy solve of the Neumann form (I - Az/b)^{-1}, and
``ml:2`` / ``qfac:2`` / the cancellation slice through mpmath at 40 digits
on a known eigendecomposition.  Exact identities are checked with ``==`` on
plain ``fractions.Fraction`` arithmetic.  Imports are lazy so that scipy
and mpmath never enter the timed process before the timed loop has ended.
"""

from __future__ import annotations

from fractions import Fraction

import numpy as np

# A converged float result is correct when it is within RTOL of the
# reference, relative to the reference's row-sum norm, plus ATOL.
RTOL = 1e-9
ATOL = 1e-11
DPS = 40


def _mp():
    import mpmath

    mpmath.mp.dps = DPS
    return mpmath


def row_norm(a):
    a = np.atleast_2d(a)
    return float(np.abs(a).sum(axis=1).max())


def close(value, ref, rtol=RTOL, atol=ATOL):
    """True when value matches ref entrywise in row-sum norm."""
    value = np.asarray(value, dtype=complex)
    ref = np.asarray(ref, dtype=complex)
    if value.shape != ref.shape or not np.all(np.isfinite(value)):
        return False
    return row_norm(value - ref) <= rtol * row_norm(ref) + atol


# -- scalar moment functions in mpmath --------------------------------------

def _moment(spec, p):
    mp = _mp()
    if spec == "factorial":
        return mp.factorial(p)
    if spec == "ml:2":
        return mp.gamma(1 + mp.mpf(p) / 2)
    if spec == "qfac:2":
        out = mp.mpf(1)
        for k in range(1, p + 1):
            out *= 2 ** k - 1
        return out
    raise ValueError(spec)


def delta_scalar(spec, lam, h, z):
    """Delta_h E(lam, z) = sum_{p>=h} C(p,h) lam^{p-h} z^p / m(p) in mpmath.

    Closed forms where they exist (exp, and the Mittag-Leffler
    E_{1/2}(x) = exp(x^2) erfc(-x) at h = 0); otherwise direct summation at
    40 digits, stopped once terms fall below 1e-45 of the largest one.
    """
    mp = _mp()
    lam, z = mp.mpc(lam), mp.mpc(z)
    if spec == "factorial":
        return z ** h * mp.exp(lam * z) / mp.factorial(h)
    if spec == "ml:2" and h == 0:
        x = lam * z
        return mp.exp(x * x) * mp.erfc(-x)
    total = mp.mpc(0)
    peak = mp.mpf(0)
    p = h
    while True:
        term = mp.binomial(p, h) * lam ** (p - h) * z ** p / _moment(spec, p)
        total += term
        peak = max(peak, abs(term))
        if p > h + 8 and abs(term) < peak * mp.mpf(10) ** -45:
            return total
        p += 1


def jordan_function(spec, blocks, z):
    """E(Jz) for J = blockdiag of (lam, size) blocks, as an mpmath matrix."""
    mp = _mp()
    n = sum(size for _, size in blocks)
    out = mp.zeros(n, n)
    off = 0
    for lam, size in blocks:
        vals = [delta_scalar(spec, lam, h, z) for h in range(size)]
        for i in range(size):
            for j in range(i, size):
                out[off + i, off + j] = vals[j - i]
        off += size
    return out


def similarity_function(spec, P, blocks, z):
    """P E(Jz) P^{-1} at 40 digits, returned as complex128.

    P holds exact entries (ints or Fractions); the inverse is taken in
    mpmath, not by momexp.
    """
    mp = _mp()
    Pm = mp.matrix([[mp.mpf(Fraction(x).numerator) / Fraction(x).denominator
                     for x in row] for row in P])
    E = Pm * jordan_function(spec, blocks, z) * mp.inverse(Pm)
    return np.array([[complex(E[i, j]) for j in range(E.cols)]
                     for i in range(E.rows)])


def normal_function(spec, q, lam, z):
    """Q diag(E(lam_i z)) Q^H for a unitary Q; scalars at 40 digits."""
    vals = np.array([complex(delta_scalar(spec, l, 0, z)) for l in lam])
    return (q * vals) @ q.conj().T


def expm(a):
    import scipy.linalg

    return scipy.linalg.expm(a)


def neumann(a, b):
    """(I - a/b)^{-1} by a numpy solve, or None outside the radius."""
    m = a / b
    if max(abs(np.linalg.eigvals(m))) >= 1.0:
        return None
    return np.linalg.solve(np.eye(len(a)) - m, np.eye(len(a)))


# -- exact matrices as plain Fraction lists -----------------------------------

def exact_mul(a, b):
    """Product of two square matrices of (re, im) Fraction pairs."""
    n = len(a)
    out = []
    for i in range(n):
        row = []
        for j in range(n):
            re = im = Fraction(0)
            for k in range(n):
                ar, ai = a[i][k]
                br, bi = b[k][j]
                re += ar * br - ai * bi
                im += ar * bi + ai * br
            row.append((re, im))
        out.append(row)
    return out


def exact_identity(n):
    one, zero = Fraction(1), Fraction(0)
    return [[(one if i == j else zero, zero) for j in range(n)] for i in range(n)]
