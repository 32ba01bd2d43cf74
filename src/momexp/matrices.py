"""Scalar backends and dense complex matrix arithmetic.

Two scalar backends coexist:

* exact  -- Gaussian rationals (pairs of ``fractions.Fraction``), so that
  coefficient identities can be tested with no tolerance at all; an exact
  matrix computes on integer numerators over one common denominator, and
  its inverse and determinant come from one fraction-free elimination
  (:func:`bareiss`);
* float  -- IEEE-754 binary64 complex numbers (Python ``complex``); the
  inverse and determinant come from numpy (LAPACK), and a float matrix is
  singular when sigma_min <= 1e-12 sigma_max.

Mixing backends in one operation raises :class:`BackendMismatch`; the only
bridge is the explicit, lossy :meth:`CMatrix.to_float`.
"""

from __future__ import annotations

import math
from fractions import Fraction
from itertools import chain
from operator import add, mul, sub

import numpy as np

from .errors import BackendMismatch, DimensionMismatch, SingularMatrix

EXACT = "exact"
FLOAT = "float"

_set = object.__setattr__


class GaussianRational:
    """Complex number with arbitrary-precision rational real/imaginary parts."""

    __slots__ = ("re", "im")

    def __init__(self, re=0, im=0):
        self.re = re if type(re) is Fraction else Fraction(re)
        self.im = im if type(im) is Fraction else Fraction(im)

    @staticmethod
    def _coerce(value):
        if isinstance(value, GaussianRational):
            return value
        if isinstance(value, (int, Fraction)):
            return GaussianRational(value)
        return None

    def __add__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return GaussianRational(self.re + o.re, self.im + o.im)

    __radd__ = __add__

    def __sub__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return GaussianRational(self.re - o.re, self.im - o.im)

    def __rsub__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return o - self

    def __mul__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return GaussianRational(
            self.re * o.re - self.im * o.im,
            self.re * o.im + self.im * o.re,
        )

    __rmul__ = __mul__

    def __truediv__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        d = o.re * o.re + o.im * o.im
        if d == 0:
            raise ZeroDivisionError("division by zero Gaussian rational")
        return GaussianRational(
            (self.re * o.re + self.im * o.im) / d,
            (self.im * o.re - self.re * o.im) / d,
        )

    def __rtruediv__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return o / self

    def __neg__(self):
        return GaussianRational(-self.re, -self.im)

    def __pow__(self, p):
        if not isinstance(p, int) or p < 0:
            return NotImplemented
        out = GaussianRational(1)
        base = self
        while p:
            if p & 1:
                out = out * base
            base = base * base
            p >>= 1
        return out

    def __eq__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return self.re == o.re and self.im == o.im

    def __hash__(self):
        # a real value hashes as its Fraction, so it agrees with int and Fraction
        return hash(self.re) if self.im == 0 else hash((self.re, self.im))

    def __bool__(self):
        return self.re != 0 or self.im != 0

    def __abs__(self):
        return math.hypot(float(self.re), float(self.im))

    def __complex__(self):
        return complex(float(self.re), float(self.im))

    def conjugate(self):
        return GaussianRational(self.re, -self.im)

    def __repr__(self):
        return f"GaussianRational({self.re}, {self.im})"

    def __str__(self):
        if self.im == 0:
            return str(self.re)
        if self.re == 0:
            return f"{self.im}i"
        sign = "+" if self.im > 0 else "-"
        return f"{self.re}{sign}{abs(self.im)}i"


def _coerce_exact(value):
    g = GaussianRational._coerce(value)
    if g is None:
        raise BackendMismatch(f"not an exact scalar: {value!r}")
    return g


def _coerce_float(value):
    if isinstance(value, GaussianRational):
        raise BackendMismatch(
            "exact scalar in a float-backend matrix; convert explicitly"
        )
    return complex(value)


# -- integer kernels of the exact backend --------------------------------
# An exact matrix is (re + i im) / den: re and im are n x n tuples of int
# rows, den > 0, and gcd(den, every numerator) == 1.

def _imatmul(a, b):
    cols = tuple(zip(*b))
    return tuple(tuple(sum(map(mul, r, c)) for c in cols) for r in a)


def _entrywise(op, a, b):
    return tuple(tuple(map(op, x, y)) for x, y in zip(a, b))


def _iscale(a, f):
    return a if f == 1 else tuple(tuple(v * f for v in r) for r in a)


def _is_zero(a):
    return not any(map(any, a))


def _square(flat, n):
    return tuple(tuple(flat[i:i + n]) for i in range(0, n * n, n))


def _common_denominator(scalars):
    """(re, im, den): integer numerators of GaussianRationals over one
    denominator, the lcm of theirs."""
    den = math.lcm(*(p.denominator for x in scalars for p in (x.re, x.im)))
    return (
        [x.re.numerator * (den // x.re.denominator) for x in scalars],
        [x.im.numerator * (den // x.im.denominator) for x in scalars],
        den,
    )


class CMatrix:
    """Immutable dense n x n complex matrix over one scalar backend.

    A float matrix holds its entries in ``rows``.  An exact matrix holds
    integer numerators ``_re``, ``_im`` over one reduced ``_den``; its
    ``rows`` of GaussianRationals are kept when it is built from them and
    otherwise built on first read.
    """

    __slots__ = ("n", "rows", "backend", "_re", "_im", "_den")

    def __init__(self, rows, backend=None):
        rows = [list(r) for r in rows]
        n = len(rows)
        if n == 0 or any(len(r) != n for r in rows):
            raise DimensionMismatch("matrix must be square and nonempty")
        if backend is None:
            has_float = any(
                isinstance(x, (float, complex)) for r in rows for x in r
            )
            has_exact = any(isinstance(x, GaussianRational) for r in rows for x in r)
            if has_float and has_exact:
                raise BackendMismatch("mixed exact and float entries")
            backend = FLOAT if has_float else EXACT
        if backend == EXACT:
            rows = tuple(tuple(_coerce_exact(x) for x in r) for r in rows)
            re, im, den = _common_denominator([x for r in rows for x in r])
            self._set_ints(n, _square(re, n), _square(im, n), den)
        else:
            _set(self, "n", n)
            _set(self, "backend", backend)
            rows = tuple(tuple(_coerce_float(x) for x in r) for r in rows)
        _set(self, "rows", rows)

    @classmethod
    def _from_ints(cls, n, re, im, den):
        m = object.__new__(cls)
        m._set_ints(n, re, im, den)
        return m

    @classmethod
    def _from_complex(cls, rows):
        """A float matrix on rows of Python complex that the class computed
        itself; unlike ``__init__`` it checks and coerces no entry."""
        rows = tuple(map(tuple, rows))
        m = object.__new__(cls)
        for name, value in (("n", len(rows)), ("backend", FLOAT), ("rows", rows)):
            _set(m, name, value)
        return m

    def _set_ints(self, n, re, im, den):
        """Store (re + i im) / den, reduced to the canonical form."""
        if den != 1:
            g = math.gcd(den, *chain.from_iterable(re), *chain.from_iterable(im))
            if g != 1:
                re = tuple(tuple(v // g for v in r) for r in re)
                im = tuple(tuple(v // g for v in r) for r in im)
                den //= g
        for name, value in (("n", n), ("backend", EXACT),
                            ("_re", re), ("_im", im), ("_den", den)):
            _set(self, name, value)

    def __getattr__(self, name):
        # only an exact matrix's ``rows`` is ever missing: build it once
        if name != "rows" or self.backend != EXACT:
            raise AttributeError(name)
        d = self._den
        rows = tuple(
            tuple(GaussianRational(Fraction(a, d), Fraction(b, d))
                  for a, b in zip(ra, ia))
            for ra, ia in zip(self._re, self._im)
        )
        _set(self, "rows", rows)
        return rows

    def __setattr__(self, *a):
        raise AttributeError("CMatrix is immutable")

    # -- constructors -------------------------------------------------

    @classmethod
    def identity(cls, n, backend=EXACT):
        if n < 1:
            raise DimensionMismatch("matrix must be square and nonempty")
        if backend == EXACT:
            eye = tuple(tuple(int(i == j) for j in range(n)) for i in range(n))
            return cls._from_ints(n, eye, ((0,) * n,) * n, 1)
        return cls._from_complex(
            [[1.0 + 0j if i == j else 0j for j in range(n)] for i in range(n)])

    @classmethod
    def zeros(cls, n, backend=EXACT):
        if n < 1:
            raise DimensionMismatch("matrix must be square and nonempty")
        if backend == EXACT:
            zero = ((0,) * n,) * n
            return cls._from_ints(n, zero, zero, 1)
        return cls._from_complex([[0j] * n] * n)

    @classmethod
    def from_numpy(cls, arr):
        arr = np.asarray(arr, dtype=complex)
        if arr.ndim != 2 or arr.shape[0] != arr.shape[1] or arr.size == 0:
            raise DimensionMismatch("matrix must be square and nonempty")
        return cls._from_complex(arr.tolist())

    def to_numpy(self):
        if self.backend != FLOAT:
            raise BackendMismatch("to_numpy requires the float backend")
        return np.array([[x for x in r] for r in self.rows], dtype=complex)

    def to_float(self):
        """Explicit (lossy for exact) conversion to the float backend."""
        if self.backend == FLOAT:
            return self
        d = self._den
        # int / int is correctly rounded, as float(Fraction) is
        return CMatrix._from_complex(
            [complex(a / d, b / d) for a, b in zip(ra, ia)]
            for ra, ia in zip(self._re, self._im))

    # -- arithmetic ---------------------------------------------------

    def _check(self, other):
        if not isinstance(other, CMatrix):
            raise TypeError("expected CMatrix")
        if self.n != other.n:
            raise DimensionMismatch(f"{self.n} vs {other.n}")
        if self.backend != other.backend:
            raise BackendMismatch(f"{self.backend} vs {other.backend}")

    def __matmul__(self, other):
        self._check(other)
        n = self.n
        if self.backend == EXACT:
            ar, ai, br, bi = self._re, self._im, other._re, other._im
            re = _imatmul(ar, br)
            if _is_zero(ai) and _is_zero(bi):
                im = ai
            else:
                re = _entrywise(sub, re, _imatmul(ai, bi))
                im = _entrywise(add, _imatmul(ar, bi), _imatmul(ai, br))
            return CMatrix._from_ints(n, re, im, self._den * other._den)
        bt = other.rows
        out = []
        for i in range(n):
            ai = self.rows[i]
            row = []
            for j in range(n):
                s = ai[0] * bt[0][j]
                for k in range(1, n):
                    s = s + ai[k] * bt[k][j]
                row.append(s)
            out.append(row)
        return CMatrix._from_complex(out)

    def _combine(self, other, op):
        self._check(other)
        if self.backend == EXACT:
            den = math.lcm(self._den, other._den)
            f, g = den // self._den, den // other._den
            return CMatrix._from_ints(
                self.n,
                _entrywise(op, _iscale(self._re, f), _iscale(other._re, g)),
                _entrywise(op, _iscale(self._im, f), _iscale(other._im, g)),
                den,
            )
        return CMatrix._from_complex(
            map(op, ra, rb) for ra, rb in zip(self.rows, other.rows))

    def __add__(self, other):
        return self._combine(other, add)

    def __sub__(self, other):
        return self._combine(other, sub)

    def __neg__(self):
        if self.backend == EXACT:
            return CMatrix._from_ints(
                self.n, _iscale(self._re, -1), _iscale(self._im, -1), self._den)
        return CMatrix._from_complex([-a for a in r] for r in self.rows)

    def scale(self, s):
        if self.backend == EXACT:
            # s = (sr + i si) / q over the lcm of its two denominators
            (sr,), (si,), q = _common_denominator([_coerce_exact(s)])
            re, im = _iscale(self._re, sr), _iscale(self._im, sr)
            if si:
                re = _entrywise(sub, re, _iscale(self._im, si))
                im = _entrywise(add, im, _iscale(self._re, si))
            return CMatrix._from_ints(self.n, re, im, self._den * q)
        s = complex(s)
        return CMatrix._from_complex([a * s for a in r] for r in self.rows)

    def pow(self, p):
        if not isinstance(p, int) or p < 0:
            raise ValueError("exponent must be a nonnegative integer")
        out = CMatrix.identity(self.n, self.backend)
        base = self
        while p:
            if p & 1:
                out = out @ base
            base = base @ base
            p >>= 1
        return out

    def trace(self):
        if self.backend == EXACT:
            d = self._den
            return GaussianRational(
                Fraction(sum(r[i] for i, r in enumerate(self._re)), d),
                Fraction(sum(r[i] for i, r in enumerate(self._im)), d),
            )
        t = self.rows[0][0]
        for i in range(1, self.n):
            t = t + self.rows[i][i]
        return t

    def row_sum_norm(self):
        """Max row sum of entry moduli; normalized and submultiplicative."""
        if self.backend == EXACT:
            d = self._den
            # int / int is correctly rounded, as float(Fraction) is
            return max(
                sum(math.hypot(a / d, b / d) for a, b in zip(ra, ia))
                for ra, ia in zip(self._re, self._im)
            )
        return max(sum(abs(x) for x in r) for r in self.rows)

    # -- elimination --------------------------------------------------

    def _int_rows(self, augment=()):
        """Mutable copies of the numerator rows for :func:`bareiss`, each
        followed by its row of ``augment``; ``im`` is None for a real matrix."""
        augment = augment or [[]] * self.n
        re = [list(r) + a for r, a in zip(self._re, augment)]
        if _is_zero(self._im):
            return re, None
        return re, [list(r) + [0] * len(a) for r, a in zip(self._im, augment)]

    def inverse(self):
        n = self.n
        if self.backend == EXACT:
            eye = [[int(i == j) for j in range(n)] for i in range(n)]
            re, im = self._int_rows(eye)
            pivots, (dr, di), _ = bareiss(re, im, n)
            if len(pivots) < n:
                raise SingularMatrix("matrix is singular at the working precision")
            # rows end as [d I | X] with X A_int = d I, and A = A_int / _den,
            # so A^{-1} = _den X / d
            xr = [r[n:] for r in re]
            xi = [r[n:] for r in im] if im else [[0] * n] * n
            if di:  # X / d = X conj(d) / |d|^2
                xr, xi = (
                    [[a * dr + b * di for a, b in zip(ra, ia)] for ra, ia in zip(xr, xi)],
                    [[b * dr - a * di for a, b in zip(ra, ia)] for ra, ia in zip(xr, xi)],
                )
                dr = dr * dr + di * di
            f = self._den if dr > 0 else -self._den
            return CMatrix._from_ints(
                n, tuple(tuple(f * v for v in r) for r in xr),
                tuple(tuple(f * v for v in r) for r in xi), abs(dr))
        a = self.to_numpy()
        if _float_singular(a):
            raise SingularMatrix("matrix is singular at the working precision")
        return CMatrix.from_numpy(np.linalg.inv(a))

    def det(self):
        n = self.n
        if self.backend == EXACT:
            pivots, (dr, di), swaps = bareiss(*self._int_rows(), n)
            if len(pivots) < n:
                return GaussianRational(0)
            if swaps % 2:
                dr, di = -dr, -di
            q = self._den ** n
            return GaussianRational(Fraction(dr, q), Fraction(di, q))
        a = self.to_numpy()
        return 0j if _float_singular(a) else complex(np.linalg.det(a))

    # -- misc ---------------------------------------------------------

    def is_zero(self):
        if self.backend == EXACT:
            return _is_zero(self._re) and _is_zero(self._im)
        return all(x == 0 for r in self.rows for x in r)

    def _key(self):
        # exact storage is canonical, so equal values have equal integers
        if self.backend == EXACT:
            return self.n, EXACT, self._den, self._re, self._im
        return self.n, FLOAT, self.rows

    def __eq__(self, other):
        if not isinstance(other, CMatrix):
            return NotImplemented
        return self._key() == other._key()

    def __hash__(self):
        return hash(self._key())

    def __repr__(self):
        return f"CMatrix({[list(r) for r in self.rows]!r}, backend={self.backend!r})"


def _block_toeplitz(blocks, backend):
    """Block-diagonal matrix of upper-triangular Toeplitz blocks, each given
    as (size, first row c): entry (r, r + h) of a block is c_h, and zero
    where c is shorter than the block."""
    if any(size < 1 for size, _ in blocks):
        raise ValueError("block size must be positive")
    n = sum(size for size, _ in blocks)
    zero = GaussianRational(0) if backend == EXACT else 0j
    rows = [[zero] * n for _ in range(n)]
    off = 0
    for size, first in blocks:
        first = list(first[:size]) + [zero] * (size - len(first))
        for r in range(size):
            rows[off + r][off + r:off + size] = first[:size - r]
        off += size
    return CMatrix(rows, backend)


def _float_singular(a):
    """The one singularity rule of the float backend, relative to the
    matrix's scale: sigma_min <= 1e-12 sigma_max."""
    s = np.linalg.svd(a, compute_uv=False)
    return s[-1] <= 1e-12 * s[0]


def bareiss(re, im, ncols):
    """Fraction-free Gauss-Jordan elimination (Bareiss) of the Gaussian-integer
    rows ``re + i im`` in place on the first ``ncols`` columns; further
    columns are an augment carried along.  ``im`` is None for real rows,
    which then skip all imaginary work.

    The pivot is the first nonzero entry of its column at or below the
    current row; columns without one are skipped.  Each step replaces every
    other row by (p * row - f * pivot row) / p_prev, where p is the pivot,
    f the row's entry in the pivot column and p_prev the previous pivot; the
    division is exact, so all entries stay integers.  Pivot rows end on top,
    and outside the pivot columns (which are not kept) pivot row r holds
    d times row r of the reduced row echelon form, d being the last pivot.
    Returns (pivot columns, d as (re, im), number of row swaps); for a square
    matrix of full rank, d is its determinant times (-1)^swaps.
    """
    nrows = len(re)
    pivots = []
    swaps = 0
    qr, qi = 1, 0  # previous pivot
    lo = None  # first pivot-less column: updates start there or at c
    r = 0
    for c in range(ncols):
        if r == nrows:
            break
        k = next((i for i in range(r, nrows) if re[i][c] or im and im[i][c]), None)
        if k is None:
            lo = c if lo is None else lo
            continue
        if k != r:
            swaps += 1
            re[r], re[k] = re[k], re[r]
            if im:
                im[r], im[k] = im[k], im[r]
        start = c if lo is None else lo
        yr = re[r][start:]
        pr = yr[c - start]
        if im is None:
            for i, row in enumerate(re):
                if i == r:
                    continue
                f = row[c]
                tail = row[start:]
                if f:
                    row[start:] = [(pr * x - f * y) // qr for x, y in zip(tail, yr)]
                else:
                    row[start:] = [pr * x // qr for x in tail]
            qr = pr
        else:
            yi = im[r][start:]
            pi = yi[c - start]
            nq = qr * qr + qi * qi
            for i in range(nrows):
                if i == r:
                    continue
                fr, fi = re[i][c], im[i][c]
                out_r, out_i = [], []
                for xr, xi, ar, ai in zip(re[i][start:], im[i][start:], yr, yi):
                    # (p x - f y) conj(q) / |q|^2
                    nr = pr * xr - pi * xi - fr * ar + fi * ai
                    ni = pr * xi + pi * xr - fr * ai - fi * ar
                    out_r.append((nr * qr + ni * qi) // nq)
                    out_i.append((ni * qr - nr * qi) // nq)
                re[i][start:] = out_r
                im[i][start:] = out_i
            qr, qi = pr, pi
        pivots.append(c)
        r += 1
    return pivots, (qr, qi), swaps


def gaussian_quotient(ar, ai, dr, di):
    """The GaussianRational (ar + i ai) / (dr + i di) of Gaussian integers."""
    if di == 0:
        return GaussianRational(Fraction(ar, dr), Fraction(ai, dr))
    nq = dr * dr + di * di
    return GaussianRational(
        Fraction(ar * dr + ai * di, nq), Fraction(ai * dr - ar * di, nq))


# module-level power; bench/workloads.py calls it as mx.mat_pow

def mat_pow(a, p):
    return a.pow(p)


# -- vectors ----------------------------------------------------------
# Vectors are plain tuples of scalars from one backend.

def mat_vec(a, v):
    if len(v) != a.n:
        raise DimensionMismatch(f"matrix {a.n} vs vector {len(v)}")
    if a.backend == EXACT:
        vr, vi, dv = _common_denominator([_coerce_exact(x) for x in v])
        d = a._den * dv
        return tuple(
            GaussianRational(
                Fraction(sum(map(mul, ra, vr)) - sum(map(mul, ia, vi)), d),
                Fraction(sum(map(mul, ra, vi)) + sum(map(mul, ia, vr)), d),
            )
            for ra, ia in zip(a._re, a._im)
        )
    v = [_coerce_float(x) for x in v]
    return tuple(
        sum((row[k] * v[k] for k in range(1, a.n)), row[0] * v[0])
        for row in a.rows
    )


def vec_sub(u, v):
    return tuple(a - b for a, b in zip(u, v))


def vec_scale(v, s):
    return tuple(a * s for a in v)


def vec_norm(v):
    return max(abs(x) for x in v) if v else 0.0


# -- JSON wire format --------------------------------------------------
# {"n": int, "entries": [[[re, im], ...], ...]}; re/im are JSON numbers for
# the float backend or "p/q" strings for the exact backend.

def _part_to_json(x):
    return str(x) if isinstance(x, Fraction) else x


def scalar_to_json(x):
    if isinstance(x, GaussianRational):
        return [_part_to_json(x.re), _part_to_json(x.im)]
    x = complex(x)
    return [x.real, x.imag]


def scalar_from_json(pair):
    if not isinstance(pair, (list, tuple)) or len(pair) != 2:
        raise ValueError(f"scalar entry must be a [re, im] pair, got {pair!r}")
    re, im = pair
    if isinstance(re, str) or isinstance(im, str):
        try:
            return GaussianRational(Fraction(str(re)), Fraction(str(im)))
        except ZeroDivisionError as exc:
            raise ValueError(f"zero denominator in scalar entry {pair!r}") from exc
    if not all(isinstance(x, (int, float)) for x in pair):
        raise ValueError(f"scalar parts must be numbers or 'p/q' strings, got {pair!r}")
    return complex(float(re), float(im))


def matrix_to_json(m):
    return {"n": m.n, "entries": [[scalar_to_json(x) for x in r] for r in m.rows]}


def matrix_from_json(obj):
    if not isinstance(obj, dict) or "entries" not in obj:
        raise ValueError("matrix JSON must be an object with an 'entries' field")
    entries = obj["entries"]
    if not isinstance(entries, list) or not all(isinstance(r, list) for r in entries):
        raise ValueError("matrix 'entries' must be a list of rows")
    scalars = [[scalar_from_json(x) for x in row] for row in entries]
    kinds = {isinstance(x, GaussianRational) for row in scalars for x in row}
    if len(kinds) > 1:
        raise BackendMismatch(
            "matrix JSON mixes exact ('p/q' string) and float (number) entries"
        )
    m = CMatrix(scalars)
    if "n" in obj and obj["n"] != m.n:
        raise ValueError(f"declared n={obj['n']} but got {m.n} rows")
    return m


def vector_from_json(obj):
    if not isinstance(obj, list):
        raise ValueError(f"vector JSON must be a list of [re, im] pairs, got {obj!r}")
    vals = [scalar_from_json(x) for x in obj]
    kinds = {isinstance(x, GaussianRational) for x in vals}
    if len(kinds) > 1:
        raise BackendMismatch("vector JSON mixes exact and float entries")
    return tuple(vals)


def vector_to_json(v):
    return [scalar_to_json(x) for x in v]
