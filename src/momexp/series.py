"""Formal power series in the moment basis.

A :class:`MomentSeries` stores coefficients c_0..c_N of the series

    sum_p c_p z^p / m(p)

so that the plain Taylor coefficient is c_p / m(p).  Storing the moment-basis
coefficients makes the moment derivative an exact index shift and turns the
solution residual checks into exact rational identities.

Coefficients may be scalars, vectors (tuples) or square :class:`CMatrix`
values; all coefficients of one series share shape and backend.
"""

from __future__ import annotations

from fractions import Fraction

from .errors import DimensionMismatch, SequenceError
from .matrices import CMatrix, GaussianRational


# -- coefficient helpers -------------------------------------------------

def coeff_shape(c):
    if isinstance(c, CMatrix):
        return ("matrix", c.n)
    if isinstance(c, tuple):
        return ("vector", len(c))
    return ("scalar", 1)


def coeff_add(a, b):
    if isinstance(a, CMatrix):
        return a + b
    if isinstance(a, tuple):
        return tuple(x + y for x, y in zip(a, b))
    return a + b


def coeff_mul(a, b):
    """Coefficient product for the Cauchy product; order preserved."""
    if isinstance(a, CMatrix) and isinstance(b, CMatrix):
        return a @ b
    if isinstance(a, CMatrix) or isinstance(b, CMatrix):
        raise DimensionMismatch("cannot multiply matrix and non-matrix coefficients")
    if isinstance(a, tuple) or isinstance(b, tuple):
        raise DimensionMismatch("vector coefficients have no Cauchy product")
    return a * b


def coeff_scale(c, s):
    if isinstance(c, CMatrix):
        return c.scale(s)
    if isinstance(c, tuple):
        return tuple(x * s for x in c)
    return c * s


def coeff_zero_like(c):
    if isinstance(c, CMatrix):
        return CMatrix.zeros(c.n, c.backend)
    if isinstance(c, tuple):
        return coeff_scale(c, 0)
    return c * 0


def coeff_one_like(c):
    if isinstance(c, CMatrix):
        return CMatrix.identity(c.n, c.backend)
    if isinstance(c, tuple):
        raise DimensionMismatch("vector coefficients have no multiplicative unit")
    if isinstance(c, GaussianRational):
        return GaussianRational(1)
    return 1 if isinstance(c, (int, Fraction)) else complex(1)


class MomentSeries:
    """Truncated formal series sum_{p<=N} c_p z^p / m(p)."""

    def __init__(self, seq, coeffs):
        coeffs = list(coeffs)
        if not coeffs:
            raise ValueError("series needs at least one coefficient")
        shape = coeff_shape(coeffs[0])
        if any(coeff_shape(c) != shape for c in coeffs):
            raise DimensionMismatch("all coefficients must share one shape")
        self.seq = seq
        self.coeffs = coeffs
        self.shape = shape

    @property
    def order(self):
        return len(self.coeffs) - 1

    def __eq__(self, other):
        if not isinstance(other, MomentSeries):
            return NotImplemented
        return self.seq is other.seq and self.coeffs == other.coeffs

    def evaluate(self, z):
        """Numeric partial-sum evaluation (float): sum c_p z^p / m(p)."""
        z = complex(z)
        total = None
        zp = 1.0 + 0j
        for p, c in enumerate(self.coeffs):
            if isinstance(c, CMatrix):
                c = c.to_float()
            elif isinstance(c, tuple):
                c = tuple(complex(x) for x in c)
            else:
                c = complex(c)
            term = coeff_scale(c, zp / float(self.seq.value(p)))
            total = term if total is None else coeff_add(total, term)
            zp *= z
        return total

    def __repr__(self):
        return f"MomentSeries({self.seq!r}, order={self.order}, shape={self.shape})"


def exp_series(A, seq, N):
    """Moment-basis coefficients of E(Az): c_p = A^p, p <= N."""
    coeffs = [CMatrix.identity(A.n, A.backend)]
    for _ in range(N):
        coeffs.append(coeffs[-1] @ A)
    return MomentSeries(seq, coeffs)


def unit_series(seq, N, like):
    """The multiplicative unit: c_0 = I (or 1), all other coefficients zero."""
    one = coeff_one_like(like)
    zero = coeff_zero_like(like)
    return MomentSeries(seq, [one] + [zero] * N)


def moment_derivative(s):
    """Coefficient shift c_p -> c_{p+1}; order drops by one."""
    if s.order < 1:
        raise ValueError("series of order 0 has no moment derivative")
    return MomentSeries(s.seq, s.coeffs[1:])


def _basis_ratio(seq, p, n):
    """m(p) / (m(n) m(p-n)), exact when the sequence is exact."""
    mp, mn, mk = seq.value(p), seq.value(n), seq.value(p - n)
    if seq.exact:
        return mp / (mn * mk)
    return float(mp) / (float(mn) * float(mk))


def cauchy_product(s1, s2):
    """Moment-basis coefficients of the product series.

    r_p = sum_n m(p)/(m(n) m(p-n)) c1_n c2_{p-n}; the factor order is kept,
    matrix coefficients need not commute.  Truncation order min(N1, N2).
    """
    if s1.seq is not s2.seq and s1.seq.specifier() != s2.seq.specifier():
        raise SequenceError("Cauchy product requires one common moment sequence")
    seq = s1.seq
    N = min(s1.order, s2.order)
    out = []
    for p in range(N + 1):
        acc = None
        for n in range(p + 1):
            term = coeff_scale(
                coeff_mul(s1.coeffs[n], s2.coeffs[p - n]), _basis_ratio(seq, p, n)
            )
            acc = term if acc is None else coeff_add(acc, term)
        out.append(acc)
    return MomentSeries(seq, out)


def phi_coefficients(seq, N):
    """Inverse-series scalars: phi_0 = 1, phi_p = -sum_{j<p} m(p)/(m(j)m(p-j)) phi_j."""
    one = Fraction(1) if seq.exact else 1.0
    phis = [one]
    for p in range(1, N + 1):
        s = sum(_basis_ratio(seq, p, j) * phis[j] for j in range(p))
        phis.append(-s)
    return phis


def inverse_series(A, seq, N):
    """Coefficients phi_p A^p of the multiplicative inverse of E(Az)."""
    phis = phi_coefficients(seq, N)
    coeffs = []
    Ap = CMatrix.identity(A.n, A.backend)
    for p in range(N + 1):
        if p:
            Ap = Ap @ A
        coeffs.append(Ap.scale(phis[p]))
    return MomentSeries(seq, coeffs)
