"""Formal power series in the moment basis.

A :class:`MomentSeries` stores coefficients c_0..c_N of the series

    sum_p c_p z^p / m(p)

so that the plain Taylor coefficient is c_p / m(p).  Storing the moment-basis
coefficients makes the moment derivative an exact index shift and turns the
solution residual checks into exact rational identities.

Coefficients are scalars or square :class:`CMatrix` values of one shape and
backend, the kinds that have a Cauchy product; vector (tuple) coefficients,
from ``IVPSolution.series``, support the moment derivative only.  The
backend follows :func:`momexp.matrices.infer_backend`, so a series of
``int`` or ``Fraction`` scalars is exact.  Two series share a sequence when
their ``MomentSequence`` objects compare equal by value.
"""

from __future__ import annotations

import math
from fractions import Fraction

from .errors import DimensionMismatch, SequenceError
from .matrices import EXACT, CMatrix, infer_backend, require_exact


def _check_order(N):
    if N < 0:
        raise ValueError(f"series order must be nonnegative, got {N}")


class MomentSeries:
    """Truncated formal series sum_{p<=N} c_p z^p / m(p)."""

    def __init__(self, seq, coeffs):
        coeffs = list(coeffs)
        if not coeffs:
            raise ValueError("series needs at least one coefficient")
        shapes = {
            ("matrix", c.n) if isinstance(c, CMatrix)
            else ("vector", len(c)) if isinstance(c, tuple)
            else ("scalar", 1)
            for c in coeffs
        }
        if len(shapes) > 1:
            raise DimensionMismatch("all coefficients must share one shape")
        self.seq = seq
        self.coeffs = coeffs
        (self.shape,) = shapes
        self.backend = infer_backend(coeffs)

    @property
    def order(self):
        return len(self.coeffs) - 1

    def __eq__(self, other):
        if not isinstance(other, MomentSeries):
            return NotImplemented
        return self.seq == other.seq and self.coeffs == other.coeffs

    def __repr__(self):
        return f"MomentSeries({self.seq!r}, order={self.order}, shape={self.shape})"


def exp_series(A, seq, N):
    """Moment-basis coefficients of E(Az): c_p = A^p, p <= N."""
    _check_order(N)
    coeffs = [CMatrix.identity(A.n, A.backend)]
    for _ in range(N):
        coeffs.append(coeffs[-1] @ A)
    return MomentSeries(seq, coeffs)


def unit_series(seq, N, like):
    """The multiplicative unit: c_0 = I (or 1), all other coefficients zero,
    in the shape and backend of the matrix or scalar ``like``."""
    _check_order(N)
    if isinstance(like, CMatrix):
        one = CMatrix.identity(like.n, like.backend)
        zero = CMatrix.zeros(like.n, like.backend)
    elif isinstance(like, tuple):
        raise DimensionMismatch("vector coefficients have no multiplicative unit")
    else:
        zero = like * 0
        one = zero + 1
    return MomentSeries(seq, [one] + [zero] * N)


def moment_derivative(s):
    """Coefficient shift c_p -> c_{p+1}; order drops by one."""
    if s.order < 1:
        raise ValueError("series of order 0 has no moment derivative")
    return MomentSeries(s.seq, s.coeffs[1:])


def cauchy_product(s1, s2):
    """Moment-basis coefficients of the product series.

    r_p = sum_n m(p)/(m(n) m(p-n)) c1_n c2_{p-n}; the factor order is kept,
    matrix coefficients need not commute.  Truncation order min(N1, N2).
    An exact matrix coefficient is one integer product of the block row
    [f_n c1_n] by the block column [c2_{p-n}], f_n being the ratio above on
    one common denominator, reduced once (:meth:`CMatrix.weighted_products`).
    """
    if s1.seq != s2.seq:
        raise SequenceError("Cauchy product requires one common moment sequence")
    if s1.shape != s2.shape or s1.shape[0] == "vector":
        raise DimensionMismatch(f"no Cauchy product of {s1.shape} and {s2.shape}")
    seq, c1, c2 = s1.seq, s1.coeffs, s2.coeffs
    exact = infer_backend(c1, c2) == EXACT
    if exact:
        require_exact(seq, "moment sequence")
    matrix = s1.shape[0] == "matrix"
    out = []
    for p in range(min(s1.order, s2.order) + 1):
        row = seq.ratio_row(p)
        if matrix and exact:
            out.append(CMatrix.weighted_products(row, c1[:p + 1], c2[p::-1]))
            continue
        acc = None
        for n in range(p + 1):
            a, b, r = c1[n], c2[p - n], row[n]
            term = a._scaled_product(b, r) if matrix else a * b * r
            acc = term if acc is None else acc + term
        out.append(acc)
    return MomentSeries(seq, out)


def _fraction_dot(ws, xs):
    """sum_k ws[k] xs[k] for Fractions, over one denominator, reduced once."""
    dens = [w.denominator * x.denominator for w, x in zip(ws, xs)]
    den = math.lcm(*dens)
    return Fraction(
        sum(w.numerator * x.numerator * (den // d) for w, x, d in zip(ws, xs, dens)),
        den,
    )


def phi_coefficients(seq, N):
    """Inverse-series scalars: phi_0 = 1, phi_p = -sum_{j<p} m(p)/(m(j)m(p-j)) phi_j."""
    _check_order(N)
    phis = [seq.value(0)]  # m(0) = 1, in the sequence's own number type
    for p in range(1, N + 1):
        row = seq.ratio_row(p)
        if seq.exact:
            phis.append(-_fraction_dot(row[:p], phis))
        else:
            phis.append(-sum(row[j] * phis[j] for j in range(p)))
    return phis


def inverse_series(A, seq, N):
    """Coefficients phi_p A^p of the multiplicative inverse of E(Az)."""
    if A.backend == EXACT:
        require_exact(seq, "moment sequence")
    phis = phi_coefficients(seq, N)
    return MomentSeries(seq, map(CMatrix.scale, exp_series(A, seq, N).coeffs, phis))
