"""The exact backend: Gaussian rationals and their integer blocks.

A scalar is a :class:`GaussianRational`, a pair of ``fractions.Fraction``,
so that coefficient identities can be tested with no tolerance at all.  A
matrix or vector computes on integer blocks instead: integer numerators
``re`` and ``im`` (None for a real block) over one common denominator, in
the canonical form that :func:`_reduced` enforces.  Every product takes one,
two or four integer products by one rule (:func:`_gauss`); inverse,
determinant, kernel and rank come from one fraction-free elimination
(:func:`bareiss`), whose output is read only here, and the test rho < 1
from the characteristic polynomial (:func:`_rho_below_one`).

:class:`momexp.matrices.CMatrix` stores an exact matrix in this format and
:mod:`momexp.jordan` takes its exact kernel and span from here; this module
imports neither.
"""

from __future__ import annotations

import math
from fractions import Fraction
from itertools import chain
from operator import add, attrgetter, mul, sub

from .errors import SingularMatrix

_ZERO = Fraction(0)

_new = object.__new__


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
        return abs(complex(self))

    def __complex__(self):
        return complex(float(self.re), float(self.im))

    def __repr__(self):
        return f"GaussianRational({self.re}, {self.im})"

    def __str__(self):
        if self.im == 0:
            return str(self.re)
        if self.re == 0:
            return f"{self.im}i"
        sign = "+" if self.im > 0 else "-"
        return f"{self.re}{sign}{abs(self.im)}i"


# -- integer blocks -------------------------------------------------------
# An exact matrix is (re + i im) / den: re is an n x n tuple of int rows, im
# is one too or None for a real matrix (never an all-zero block), den > 0,
# and gcd(den, every numerator) == 1.  :func:`_reduced` is the one place
# that enforces this canonical form, for matrices and for the one-row blocks
# of vectors, which ``matrices._vec_ints`` already returns in it.

def _imatmul(a, b):
    """a b^T: entry (i, j) is row i of a dot row j of b."""
    return tuple(tuple(sum(map(mul, r, c)) for c in b) for r in a)


def _transposed(block):
    return None if block is None else tuple(zip(*block))


def _entrywise(op, a, b):
    return tuple(tuple(map(op, x, y)) for x, y in zip(a, b))


def _iscale(a, f):
    return a if f == 1 else tuple(tuple(map(f.__mul__, r)) for r in a)


def _is_zero(a):
    return not any(map(any, a))


def _zeros(n):
    return ((0,) * n,) * n


def _eye(n):
    return tuple(tuple(int(i == j) for j in range(n)) for i in range(n))


def _hcat(blocks):
    """Blocks of equal height side by side: row i joins row i of each."""
    return tuple(tuple(chain.from_iterable(rows)) for rows in zip(*blocks))


def _gauss(prod, ar, ai, br, bi):
    """Numerators (re, im) of (ar + i ai)(br + i bi), not reduced, under the
    real product ``prod``: :func:`_imatmul` of blocks by rows (a b^T), or
    :func:`_iscale` by an integer.  An imaginary part of None is zero, so it
    takes 1 product when both factors are real, 2 when one is, else 4."""
    re = prod(ar, br)
    if ai is None:
        return re, None if bi is None else prod(ar, bi)
    if bi is None:
        return re, prod(ai, br)
    return (_entrywise(sub, re, prod(ai, bi)),
            _entrywise(add, prod(ar, bi), prod(ai, br)))


def _reduced(re, im, den):
    """(re, im, den) in canonical form, for integer blocks of any shape: an
    all-zero ``im`` becomes None, and numerators and den are divided by
    their gcd when den != 1."""
    if im is not None and _is_zero(im):
        im = None
    if den != 1:
        g = math.gcd(den, *chain.from_iterable(re), *chain.from_iterable(im or ()))
        if g != 1:
            re = tuple(tuple(v // g for v in r) for r in re)
            if im is not None:
                im = tuple(tuple(v // g for v in r) for r in im)
            den //= g
    return re, im, den


def _square(flat, n):
    return tuple(tuple(flat[i:i + n]) for i in range(0, n * n, n))


# -- builders -------------------------------------------------------------
# A Fraction's two slots, read and written directly by the exact vector
# helpers below, which skip the properties and argument checks of Fraction.
_numerator = attrgetter("_numerator")
_denominator = attrgetter("_denominator")


def _common_denominator(scalars):
    """(re, im, den): integer numerators of GaussianRationals over one
    denominator, the lcm of theirs, as tuples."""
    re = [x.re for x in scalars]
    im = [x.im for x in scalars]
    den = math.lcm(*map(_denominator, re), *map(_denominator, im))
    if den == 1:
        return tuple(map(_numerator, re)), tuple(map(_numerator, im)), 1
    return (
        tuple(f._numerator * (den // f._denominator) for f in re),
        tuple(f._numerator * (den // f._denominator) for f in im),
        den,
    )


def _fraction(n, d):
    """n / d for ints n and d > 0, equal to ``Fraction(n, d)`` but built
    without its argument checks: one gcd when d != 1, none when d == 1."""
    if d != 1:
        g = math.gcd(n, d)
        n, d = n // g, d // g
    f = _new(Fraction)
    f._numerator = n
    f._denominator = d
    return f


def _vec_from_ints(re, im, den):
    """The vector (re + i im) / den for integer numerators re and im (None
    when real) over den > 0, each entry built once and with no checks."""
    out = []
    for k, r in enumerate(re):
        g = _new(GaussianRational)
        g.re = _fraction(r, den)
        g.im = _ZERO if im is None else _fraction(im[k], den)
        out.append(g)
    return tuple(out)


def gaussian_quotient(ar, ai, dr, di):
    """The GaussianRational (ar + i ai) / (dr + i di) of Gaussian integers."""
    nq = dr * dr + di * di
    return GaussianRational(
        Fraction(ar * dr + ai * di, nq), Fraction(ai * dr - ar * di, nq))


# -- elimination ----------------------------------------------------------

def bareiss(re, im, augment=()):
    """Fraction-free Gauss-Jordan elimination (Bareiss) of the Gaussian-integer
    block ``re + i im`` on mutable copies of its rows, each followed by its
    row of the block ``augment``, which is carried along.  ``im`` is None for
    a real block, which then skips all imaginary work.

    The pivot is the first nonzero entry of its column at or below the
    current row; columns without one are skipped.  Each step replaces every
    other row by (p * row - f * pivot row) / p_prev, where p is the pivot,
    f the row's entry in the pivot column and p_prev the previous pivot; the
    division is exact, so all entries stay integers.  Pivot rows end on top,
    and outside the pivot columns (which are not kept) pivot row r holds
    d times row r of the reduced row echelon form, d being the last pivot.
    Returns (the rows as (re, im), pivot columns, d as (re, im), number of
    row swaps); for a square matrix of full rank, d is its determinant times
    (-1)^swaps.
    """
    ncols = len(re[0])
    augment = augment or ((),) * len(re)
    re = [list(r + a) for r, a in zip(re, augment)]
    if im is not None:
        im = [list(r) + [0] * len(a) for r, a in zip(im, augment)]
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
    return (re, im), pivots, (qr, qi), swaps


def _inverse(re, im, den):
    """(re, im, den) of the inverse of the matrix (re + i im) / den, not
    reduced; raises SingularMatrix when it has none."""
    n = len(re)
    (re, im), pivots, (dr, di), _ = bareiss(re, im, _eye(n))
    if len(pivots) < n:
        raise SingularMatrix("matrix is singular at the working precision")
    # rows end as [d I | X] with X A_int = d I, and A = A_int / den, so
    # A^{-1} = den X / d = den X conj(d) / |d|^2
    xr = tuple(tuple(r[n:]) for r in re)
    xi = None if im is None else tuple(tuple(r[n:]) for r in im)
    xr, xi = _gauss(_iscale, xr, xi, den * dr, -den * di or None)
    return xr, xi, dr * dr + di * di


def _det(re, im, den):
    """The determinant of the matrix (re + i im) / den, a GaussianRational."""
    n = len(re)
    _, pivots, (dr, di), swaps = bareiss(re, im)
    if len(pivots) < n:
        return GaussianRational(0)
    return gaussian_quotient(dr, di, (-1) ** swaps * den ** n, 0)


def _rho_below_one(m):
    """Whether rho(m) < 1 for an exact CMatrix m, by the Schur-Cohn test
    (Henrici, Applied and Computational Complex Analysis 1, 1974, ch. 6).
    For m = N / den, Faddeev-LeVerrier gives det(w I - N) in Gaussian
    integers, each division exact; w = den z gives p(z), whose roots are the
    eigenvalues of m.  All lie in |z| < 1 only if |p(0)| < |lead|; then
    conj(lead) p - p(0) p*, p*(z) = z^d conj(p(1/conj z)), vanishes at 0,
    and (Rouche) its quotient by z, over the gcd of its integers, has all
    its roots inside iff p has."""
    # c_{n-k} = -tr(N B_k) / k and B_{k+1} = N B_k + c_{n-k} I, from B_1 = I
    n, coeffs, br, bi = m.n, [(1, 0)], _eye(m.n), _zeros(m.n)  # det(w I - N), w^n down
    for k in range(1, n + 1):
        ar, ai = _gauss(_imatmul, m._re, m._im, _transposed(br), _transposed(bi))
        c = [-sum(a[i][i] for i in range(n)) // k for a in (ar, ai)]
        coeffs.append(c)
        br, bi = ([[x + s * (i == j) for j, x in enumerate(r)] for i, r in enumerate(a)]
                  for a, s in zip((ar, ai), c))
    p = [(a * m._den ** j, b * m._den ** j) for j, (a, b) in enumerate(reversed(coeffs))]
    while len(p) > 1:
        (ar, ai), (lr, li) = p[0], p[-1]
        if ar * ar + ai * ai >= lr * lr + li * li:
            return False
        p = [(lr * xr + li * xi - ar * yr - ai * yi, lr * xi - li * xr - ai * yr + ar * yi)
             for (xr, xi), (yr, yi) in zip(p[1:], reversed(p[:-1]))]
        g = math.gcd(*chain.from_iterable(p))
        p = [(x // g, y // g) for x, y in p]
    return True


# -- the exact half of the Jordan staircase --------------------------------

def _nullspace_exact(m):
    """Basis vectors (tuples) of ker(m) for an exact CMatrix: one per free
    column of its reduced row echelon form, read off the integer numerators."""
    n = m.n
    (re, im), pivots, (dr, di), _ = bareiss(m._re, m._im)
    basis = []
    for fc in (c for c in range(n) if c not in pivots):
        v = [GaussianRational(0)] * n
        v[fc] = GaussianRational(1)
        for r, pc in enumerate(pivots):
            v[pc] = gaussian_quotient(-re[r][fc], -im[r][fc] if im else 0, dr, di)
        basis.append(tuple(v))
    return basis


class _ExactSpan:
    """Exact span; add(v) keeps v itself, so chains stay rational.  Each
    vector is kept as its Gaussian-integer numerators for the rank test."""

    def __init__(self, vectors):
        self.ints = [_common_denominator(v)[:2] for v in vectors]

    def add(self, v):
        ints = self.ints + [_common_denominator(v)[:2]]
        re, im = zip(*ints)
        if len(bareiss(re, None if _is_zero(im) else im)[1]) < len(ints):
            return None
        self.ints = ints
        return v
