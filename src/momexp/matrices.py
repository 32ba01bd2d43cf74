"""Scalar backends and dense complex matrix arithmetic.

Two scalar backends coexist:

* exact  -- Gaussian rationals, so that coefficient identities can be tested
  with no tolerance at all; the scalar, the integer-block format an exact
  matrix computes on and the fraction-free elimination behind its inverse
  and determinant live in :mod:`momexp.exact`;
* float  -- IEEE-754 binary64 complex numbers (Python ``complex``); the
  inverse and determinant come from numpy (LAPACK), and a float matrix is
  singular when sigma_min <= 1e-12 sigma_max.

The backend of any mix of inputs follows one rule (:func:`infer_backend`): a
float or complex value makes it float, a GaussianRational or exact matrix
next to one raises :class:`BackendMismatch`, and otherwise it is exact, so
``int`` and ``Fraction`` count as exact.  An exact computation admits its
other inputs through :func:`require_exact`, which names the one that is not
exact.  On the float backend, scalar arguments (``z``, a scale factor, an
eigenvalue) are converted with ``complex()``, but matrix and vector entries
must not be GaussianRational; an exact matrix converts only through the
lossy :meth:`CMatrix.to_float`.  Besides :class:`CMatrix`, this module
holds the vector API and the JSON wire format.
"""

from __future__ import annotations

import math
import re
from fractions import Fraction
from itertools import chain, repeat
from operator import add, sub

import numpy as np

from .errors import BackendMismatch, DimensionMismatch, SingularMatrix
from .exact import (
    GaussianRational,
    _common_denominator,
    _det,
    _entrywise,
    _eye,
    _fraction,
    _gauss,
    _hcat,
    _imatmul,
    _inverse,
    _is_zero,
    _iscale,
    _reduced,
    _square,
    _transposed,
    _vec_from_ints,
    _zeros,
    gaussian_quotient,
)
from .moments import MomentSequence

EXACT = "exact"
FLOAT = "float"

_set = object.__setattr__


def _kinds(values, out):
    # one test per distinct type, tuples and lists flattened a level at a
    # time, so a long series of vectors costs little more than its length
    for t in set(map(type, values)):
        if issubclass(t, (float, complex)):
            out.add(FLOAT)
        elif issubclass(t, GaussianRational):
            out.add(EXACT)
        elif issubclass(t, CMatrix):
            out.update(v.backend for v in values if type(v) is t)
        elif issubclass(t, (tuple, list)):
            _kinds(list(chain.from_iterable(v for v in values if type(v) is t)), out)
    return out


def infer_backend(*values):
    """The backend of a computation on ``values``, any mix of scalars, tuples
    or lists of them and CMatrix values, by the rule above."""
    kinds = _kinds(values, set())
    if len(kinds) > 1:
        raise BackendMismatch("mixed exact and float values")
    return kinds.pop() if kinds else EXACT


def require_exact(value, what="scalar"):
    """Admit ``value`` to an exact computation: a scalar as a GaussianRational,
    an exact moment sequence as it is; else raise BackendMismatch naming ``what``."""
    g = GaussianRational._coerce(value)
    if g is not None:
        return g
    if isinstance(value, MomentSequence):
        if value.exact:
            return value
        value = f"{value.specifier()} (float-only)"
    raise BackendMismatch(f"the exact backend needs an exact {what}, got {value!r}")


def _check_backend(backend):
    if backend not in (EXACT, FLOAT):
        raise ValueError(f"unknown backend {backend!r}: use {EXACT!r} or {FLOAT!r}")


def _coerce_float(value):
    if isinstance(value, GaussianRational):
        raise BackendMismatch("exact scalar in a float-backend matrix; convert explicitly")
    return complex(value)


class CMatrix:
    """Immutable dense n x n complex matrix over one scalar backend.

    A float matrix holds its entries in ``rows``, as Python ``complex``; only
    :meth:`_real_parts` makes one that holds Python ``float``, for a sum whose
    every term is real.  An exact matrix holds integer numerators ``_re``,
    ``_im`` over one reduced ``_den``, the integer blocks of
    :mod:`momexp.exact`; a real one stores no ``_im`` (None), so its kernels
    skip every imaginary product.  Its ``rows`` of GaussianRationals are
    kept when it is built from them and otherwise built on first read.
    A float product ``(a @ b).scale(s)`` of the series is one pass,
    ``a._scaled_product(b, s)``: each entry is scaled as it is stored.
    """

    __slots__ = ("n", "rows", "backend", "_re", "_im", "_den")

    def __init__(self, rows, backend=None):
        rows = [list(r) for r in rows]
        n = len(rows)
        if n == 0 or any(len(r) != n for r in rows):
            raise DimensionMismatch("matrix must be square and nonempty")
        if backend is None:
            backend = infer_backend(rows)
        _check_backend(backend)
        if backend == EXACT:
            rows = tuple(tuple(require_exact(x) for x in r) for r in rows)
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
        """A float matrix on rows of Python complex (or float, for
        :meth:`_real_parts`), taken unchecked and uncoerced."""
        rows = tuple(map(tuple, rows))
        m = object.__new__(cls)
        _set(m, "n", len(rows))
        _set(m, "backend", FLOAT)
        _set(m, "rows", rows)
        return m

    def _set_ints(self, n, re, im, den):
        """Store (re + i im) / den in the canonical form of :func:`_reduced`;
        ``im`` may be None."""
        re, im, den = _reduced(re, im, den)
        for name, value in (("n", n), ("backend", EXACT),
                            ("_re", re), ("_im", im), ("_den", den)):
            _set(self, name, value)

    def _imag(self):
        """The imaginary numerators, as an all-zero block for a real matrix."""
        return _zeros(self.n) if self._im is None else self._im

    def __getattr__(self, name):
        # only an exact matrix's ``rows`` is ever missing: build it once
        if name != "rows" or self.backend != EXACT:
            raise AttributeError(name)
        rows = tuple(map(_vec_from_ints, self._re, self._im or repeat(None),
                         repeat(self._den)))
        _set(self, "rows", rows)
        return rows

    def __setattr__(self, *a):
        raise AttributeError("CMatrix is immutable")

    # -- constructors -------------------------------------------------

    @classmethod
    def identity(cls, n, backend=EXACT):
        if n < 1:
            raise DimensionMismatch("matrix must be square and nonempty")
        _check_backend(backend)
        if backend == EXACT:
            return cls._from_ints(n, _eye(n), None, 1)
        return cls._from_complex(
            [[1.0 + 0j if i == j else 0j for j in range(n)] for i in range(n)])

    @classmethod
    def zeros(cls, n, backend=EXACT):
        if n < 1:
            raise DimensionMismatch("matrix must be square and nonempty")
        _check_backend(backend)
        if backend == EXACT:
            return cls._from_ints(n, _zeros(n), None, 1)
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
        return np.array(self.rows, dtype=complex)

    def _real_parts(self):
        """The real parts of a float matrix as Python floats, which ``@``,
        ``+``, ``-``, ``row_sum_norm`` and a real ``scale`` keep, each nonzero
        one as the complex arithmetic gives it if no imaginary part was."""
        return CMatrix._from_complex([x.real for x in r] for r in self.rows)

    def _complexified(self):
        """This float matrix with every entry made a Python complex."""
        return CMatrix._from_complex(map(complex, r) for r in self.rows)

    def to_float(self):
        """Explicit (lossy for exact) conversion to the float backend."""
        if self.backend == FLOAT:
            return self
        d = self._den
        # int / int is correctly rounded, as float(Fraction) is
        return CMatrix._from_complex(
            [complex(a / d, b / d) for a, b in zip(ra, ia)]
            for ra, ia in zip(self._re, self._imag()))

    # -- arithmetic ---------------------------------------------------

    def _check(self, other):
        if not isinstance(other, CMatrix):
            raise TypeError("expected CMatrix")
        if self.n != other.n:
            raise DimensionMismatch(f"{self.n} vs {other.n}")
        if self.backend != other.backend:
            raise BackendMismatch(f"{self.backend} vs {other.backend}")

    def __matmul__(self, other):
        if self.backend == FLOAT:
            return self._scaled_product(other, None)
        self._check(other)
        re, im = _gauss(_imatmul, self._re, self._im,
                        _transposed(other._re), _transposed(other._im))
        return CMatrix._from_ints(self.n, re, im, self._den * other._den)

    def _scaled_product(self, other, s):
        """``(self @ other).scale(s)``, bit for bit.  On the float backend
        this is the one product loop, and ``@`` is its ``s = None`` case:
        each entry is summed left to right from its first product and
        multiplied by ``s`` (coerced as :meth:`scale` does, real only when
        both factors hold Python floats) as it is stored."""
        if self.backend == EXACT:
            return (self @ other).scale(s)
        self._check(other)
        b = other.rows
        if s is not None:
            s = complex(s)
            if not s.imag and type(self.rows[0][0]) is type(b[0][0]) is float:
                s = s.real
        cols, ks = range(self.n), range(1, self.n)
        out = []
        for ai in self.rows:
            row = []
            for j in cols:
                t = ai[0] * b[0][j]
                for k in ks:
                    t = t + ai[k] * b[k][j]
                row.append(t if s is None else t * s)
            out.append(row)
        return CMatrix._from_complex(out)

    @staticmethod
    def weighted_products(weights, lefts, rights):
        """sum_k w_k (lefts[k] @ rights[k]) for exact matrices and Fraction
        weights w_k: one integer product of the block row [f_k a_k] by the
        block column of the b_k, over den = lcm_k d_k, d_k = w_k.den a_k.den
        b_k.den, with f_k = w_k.num den / d_k, reduced once.  An all-real
        side has no imaginary block: 1, 2 or 4 integer products, as for ``@``."""
        if not lefts or not len(weights) == len(lefts) == len(rights):
            raise ValueError("weighted_products needs equally many weights and factors")
        n = lefts[0].n
        if any(m.backend != EXACT for m in chain(lefts, rights)):
            raise BackendMismatch("weighted_products needs exact matrices")
        if any(m.n != n for m in chain(lefts, rights)):
            raise DimensionMismatch("weighted_products factors differ in size")
        dens = [w.denominator * a._den * b._den
                for w, a, b in zip(weights, lefts, rights)]
        den = math.lcm(*dens)
        fs = [w.numerator * (den // d) for w, d in zip(weights, dens)]
        ai = bi = None
        if any(a._im is not None for a in lefts):
            ai = _hcat([_iscale(a._imag(), f) for f, a in zip(fs, lefts)])
        if any(b._im is not None for b in rights):
            bi = _transposed(chain.from_iterable(b._imag() for b in rights))
        re, im = _gauss(
            _imatmul, _hcat([_iscale(a._re, f) for f, a in zip(fs, lefts)]), ai,
            _transposed(chain.from_iterable(b._re for b in rights)), bi)
        return CMatrix._from_ints(n, re, im, den)

    def _combine(self, other, op):
        self._check(other)
        if self.backend == EXACT:
            den = math.lcm(self._den, other._den)
            f, g = den // self._den, den // other._den
            im = None
            if self._im is not None or other._im is not None:
                im = _entrywise(op, _iscale(self._imag(), f), _iscale(other._imag(), g))
            re = _entrywise(op, _iscale(self._re, f), _iscale(other._re, g))
            return CMatrix._from_ints(self.n, re, im, den)
        return CMatrix._from_complex(
            map(op, ra, rb) for ra, rb in zip(self.rows, other.rows))

    def __add__(self, other):
        return self._combine(other, add)

    def __sub__(self, other):
        return self._combine(other, sub)

    def __neg__(self):
        if self.backend == EXACT:
            return self.scale(-1)
        # not scale(-1): x * (-1+0j) differs from -x on signed zeros and infinities
        return CMatrix._from_complex([-a for a in r] for r in self.rows)

    def scale(self, s):
        if self.backend == EXACT:
            # s = (sr + i si) / q over the lcm of its two denominators
            (sr,), (si,), q = _common_denominator([require_exact(s)])
            re, im = _gauss(_iscale, self._re, self._im, sr, si or None)
            return CMatrix._from_ints(self.n, re, im, self._den * q)
        s = complex(s)
        if not s.imag and type(self.rows[0][0]) is float:
            s = s.real  # a real matrix of _real_parts stays real
        return CMatrix._from_complex([a * s for a in r] for r in self.rows)

    def pow(self, p):
        if not isinstance(p, int) or p < 0:
            raise ValueError("exponent must be a nonnegative integer")
        if p == 0:
            return CMatrix.identity(self.n, self.backend)
        # popcount(p) + bit_length(p) - 2 products: none by I, none past the top bit
        out, base = None, self
        while True:
            if p & 1:
                out = base if out is None else out @ base
            p >>= 1
            if not p:
                return out
            base = base @ base

    def trace(self):
        if self.backend == EXACT:
            re, im = (sum(r[i] for i, r in enumerate(b)) for b in (self._re, self._imag()))
            return gaussian_quotient(re, im, self._den, 0)
        t = self.rows[0][0]
        for i in range(1, self.n):
            t = t + self.rows[i][i]
        return t

    def row_sum_norm(self):
        """Max row sum of entry moduli; normalized and submultiplicative."""
        if self.backend == EXACT:
            return self.to_float().row_sum_norm()
        return max(sum(map(abs, r)) for r in self.rows)

    # -- elimination --------------------------------------------------

    def inverse(self):
        if self.backend == EXACT:
            return CMatrix._from_ints(self.n, *_inverse(self._re, self._im, self._den))
        a = self.to_numpy()
        if _float_singular(a):
            raise SingularMatrix("matrix is singular at the working precision")
        return CMatrix.from_numpy(np.linalg.inv(a))

    def det(self):
        if self.backend == EXACT:
            return _det(self._re, self._im, self._den)
        a = self.to_numpy()
        return 0j if _float_singular(a) else complex(np.linalg.det(a))

    # -- misc ---------------------------------------------------------

    def is_zero(self):
        if self.backend == EXACT:
            return self._im is None and _is_zero(self._re)
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


def _float_singular(a):
    """The float backend's one singularity rule: sigma_min <= 1e-12 sigma_max."""
    return _sigma_singular(np.linalg.svd(a, compute_uv=False))


def _sigma_singular(s):
    """:func:`_float_singular` read from singular values s, largest first."""
    return s[-1] <= 1e-12 * s[0]


mat_pow = CMatrix.pow  # module-level power; bench/workloads.py calls it as mx.mat_pow


# -- vectors ----------------------------------------------------------
# Vectors are plain tuples of scalars from one backend.

def _vec_ints(v, n):
    """(re, im, den): an exact vector of length n as a one-row block over
    the lcm of its entries' denominators (canonical, as :func:`_reduced`
    makes it), ``im`` None if all are real; entries pass :func:`require_exact`."""
    if len(v) != n:
        raise DimensionMismatch(f"matrix {n} vs vector {len(v)}")
    if not all(type(x) is GaussianRational for x in v):
        v = [require_exact(x, "vector entry") for x in v]
    re, im, den = _common_denominator(v)
    return (re,), (im,) if any(im) else None, den


def _vec_floats(v, n):
    """A float vector of length n as a tuple of :func:`_coerce_float` entries."""
    if len(v) != n:
        raise DimensionMismatch(f"matrix {n} vs vector {len(v)}")
    return tuple(map(_coerce_float, v))


def mat_vec(a, v):
    """a v for a vector v of a's backend: ``krylov(a, v, 1)[1]``."""
    return krylov(a, v, 1)[1]


def krylov(a, v, N):
    """[v, a v, ..., a^N v], v itself first.  On the exact backend each
    step is v a^T (:func:`_gauss`) on the one-row block of
    :func:`_vec_ints`, over ``den * a._den`` and put in canonical form by
    :func:`_reduced`, and each vector is built once from it; on the float
    backend each step is the numpy product ``a.to_numpy() @ v`` on the
    array of :func:`_vec_floats`, returned as a tuple of ``complex``."""
    out = [v]
    if a.backend != EXACT:
        m, v = a.to_numpy(), np.array(_vec_floats(v, a.n))
        for _ in range(N):
            v = m @ v
            out.append(tuple(v.tolist()))
        return out
    re, im, den = _vec_ints(v, a.n)
    for _ in range(N):
        re, im, den = _reduced(*_gauss(_imatmul, re, im, a._re, a._im), den * a._den)
        out.append(_vec_from_ints(re[0], im and im[0], den))
    return out


def krylov_mismatches(a, vs):
    """The pairs (vs[p + 1], a vs[p]) over p whose two vectors differ, so
    none when vs is ``krylov(a, vs[0], len(vs) - 1)``.  On the exact
    backend all a vs[p] are one :func:`_gauss` of the stacked blocks
    of :func:`_vec_ints`, a pair differs when its two canonical (re, im,
    den) triples do, and a vs[p] is built as a vector only then.  On the
    float backend every vector is read by :func:`_vec_floats`, a is
    converted once, and each a vs[p] is one numpy product, the one a
    :func:`krylov` step makes (a single product over the stacked columns
    could round differently, and an unperturbed series must show none)."""
    if a.backend != EXACT:
        m = a.to_numpy()
        cols = [_vec_floats(v, a.n) for v in vs]
        return [(v, av) for v, u, w in zip(vs[1:], cols, cols[1:])
                if w != (av := tuple((m @ np.array(u)).tolist()))]
    cols = [_vec_ints(v, a.n) for v in vs]
    vi = None
    if any(im is not None for _, im, _ in cols[:-1]):
        vi = [(0,) * a.n if im is None else im[0] for _, im, _ in cols[:-1]]
    re, im = _gauss(_imatmul, [re for (re,), _, _ in cols[:-1]], vi, a._re, a._im)
    out = []
    for v, col, (_, _, den), r, i in zip(vs[1:], cols[1:], cols, re, im or repeat(None)):
        (r,), i, den = av = _reduced((r,), i and (i,), den * a._den)
        if av != col:
            out.append((v, _vec_from_ints(r, i and i[0], den)))
    return out


def vec_sub(u, v):
    return tuple(a - b for a, b in zip(u, v))


def vec_norm(v):
    return float(max(map(abs, v), default=0.0))


# -- JSON wire format --------------------------------------------------
# {"n": int, "entries": [[[re, im], ...], ...]}; re/im are JSON numbers for
# the float backend or "p/q" strings for the exact backend.

_RATIO = re.compile(r"(-?\d+)(?:/(0*[1-9]\d*))?", re.ASCII)  # "p/q" text with q > 0


def _rational_part(x):
    """(numerator, denominator) of Fraction(str(x)), unreduced for "p/q" text."""
    if m := type(x) is str and _RATIO.fullmatch(x):
        return int(m[1]), int(m[2] or 1)
    return Fraction(str(x)).as_integer_ratio()


def _entry_from_json(pair):
    """A checked scalar entry: a complex, or its parts' :func:`_rational_part`."""
    if not isinstance(pair, (list, tuple)) or len(pair) != 2:
        raise ValueError(f"scalar entry must be a [re, im] pair, got {pair!r}")
    a, b = pair
    if isinstance(a, bool) or isinstance(b, bool):
        raise ValueError(f"scalar parts must not be booleans, got {pair!r}")
    if isinstance(a, str) or isinstance(b, str):
        try:
            return _rational_part(a), _rational_part(b)
        except ZeroDivisionError as exc:
            raise ValueError(f"zero denominator in scalar entry {pair!r}") from exc
    if not (isinstance(a, (int, float)) and isinstance(b, (int, float))):
        raise ValueError(f"scalar parts must be numbers or 'p/q' strings, got {pair!r}")
    try:
        z = complex(float(a), float(b))
    except OverflowError:  # an integer past the float range
        z = complex(math.inf)
    if not (math.isfinite(z.real) and math.isfinite(z.imag)):
        raise ValueError(f"scalar parts must be finite floats, got {pair!r}")
    return z


def scalar_from_json(pair):
    x = _entry_from_json(pair)
    return x if type(x) is complex else GaussianRational(Fraction(*x[0]), Fraction(*x[1]))


def matrix_to_json(m):
    """An exact matrix's parts as "p/q" text read from its integer block."""
    if m.backend == EXACT:
        d = m._den
        entries = [[[str(_fraction(a, d)), str(_fraction(b, d))] for a, b in zip(ra, ia)]
                   for ra, ia in zip(m._re, m._imag())]
    else:
        entries = [[[x.real, x.imag] for x in r] for r in m.rows]
    return {"n": m.n, "entries": entries}


def matrix_from_json(obj):
    """The matrix of ``obj``, built on its entries as they are checked: the
    complex values, or integer numerators over the lcm of the denominators."""
    if not isinstance(obj, dict) or "entries" not in obj:
        raise ValueError("matrix JSON must be an object with an 'entries' field")
    entries = obj["entries"]
    if not isinstance(entries, list) or not all(isinstance(r, list) for r in entries):
        raise ValueError("matrix 'entries' must be a list of rows")
    rows = [list(map(_entry_from_json, r)) for r in entries]
    n = len(rows)
    if n == 0 or any(len(r) != n for r in rows):
        raise DimensionMismatch("matrix must be square and nonempty")
    flat = list(chain.from_iterable(rows))
    if len(set(map(type, flat))) > 1:
        raise BackendMismatch("mixed exact and float values")
    if type(flat[0]) is complex:
        m = CMatrix._from_complex(rows)
    else:
        den = math.lcm(*(q for parts in flat for _, q in parts))
        m = CMatrix._from_ints(n, *(_square([p * (den // q) for p, q in part], n)
                                    for part in zip(*flat)), den)
    if "n" in obj and obj["n"] != m.n:
        raise ValueError(f"declared n={obj['n']} but got {m.n} rows")
    return m


def vector_from_json(obj):
    if not isinstance(obj, list):
        raise ValueError(f"vector JSON must be a list of [re, im] pairs, got {obj!r}")
    vals = tuple(scalar_from_json(x) for x in obj)
    infer_backend(vals)  # raises if exact and float entries mix
    return vals
