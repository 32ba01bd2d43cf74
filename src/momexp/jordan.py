"""Jordan canonical decomposition for desk-scale matrices.

One staircase serves both scalar backends: kernel dimensions of
(A - lam I)^r give the Weyr counts, and generalized eigenvector chains are
grown top-down with the convention

    (A - lam I) v^j = v^{j-1},   v^0 = 0.

A backend supplies only kernel bases (SVD for float, fraction-free
elimination for exact) and a basis that takes a vector only if it is
independent (Gram-Schmidt for float, an integer rank test for exact).  Float
eigenvalues come from the QR iteration, clustered by a dedicated tolerance;
exact ones are supplied by the caller (root finding itself is float-only).
Both backends invert the chain matrix P with :meth:`CMatrix.inverse`, so a P
that is singular under its rule (or a float P with |det P| < 1e-12) fails
the decomposition, and J is laid out by the same block-Toeplitz builder as
E(Jz) in :mod:`momexp.evaluation`.

Jordan structure is discontinuous, so all rank decisions carry explicit
thresholds; inconsistent decisions raise :class:`ChainConstructionFailed`.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import partial
from typing import List, Tuple

import numpy as np

from .errors import ChainConstructionFailed, DimensionMismatch, SingularMatrix
from .matrices import (
    EXACT,
    FLOAT,
    CMatrix,
    GaussianRational,
    _block_toeplitz,
    _common_denominator,
    bareiss,
    gaussian_quotient,
    mat_vec,
)


@dataclass
class JordanDecomposition:
    P: CMatrix
    blocks: List[Tuple[complex, int]]
    P_inv: CMatrix
    residual: float

    @property
    def n(self):
        return sum(size for _, size in self.blocks)


def assemble_jordan(blocks, backend=FLOAT):
    """Build the block-diagonal J from an ordered (lam, size) list."""
    if backend == EXACT:
        if any(GaussianRational._coerce(lam) is None for lam, _ in blocks):
            raise ValueError("exact assembly needs exact eigenvalues")
    else:
        blocks = [(complex(lam), size) for lam, size in blocks]
    return _block_toeplitz([(size, (lam, 1)) for lam, size in blocks], backend)


def _check_tol(name, tol):
    if not (math.isfinite(tol) and tol >= 0):
        raise ValueError(f"{name} must be finite and nonnegative, got {tol!r}")


# -- eigenvalues --------------------------------------------------------

def eigenvalues(A, tol=1e-2):
    """Clustered eigenvalues [(lam, algebraic multiplicity)].

    Roots within tol * max(1, |lam|) of a cluster mean are merged; the mean
    of a defective cluster is far more accurate than its members.  The raw
    eigenvalues come from the QR iteration (backward stable), which keeps the
    spread of a defective multiplicity-k root near (eps * ||A||)^(1/k) instead
    of the much larger spread that characteristic-polynomial roots exhibit.
    """
    _check_tol("tol", tol)
    a = A.to_float().to_numpy()
    roots = np.linalg.eigvals(a)
    clusters = []  # list of lists of roots
    for r in sorted(roots, key=lambda x: (x.real, x.imag)):
        for cl in clusters:
            mean = sum(cl) / len(cl)
            if abs(r - mean) <= tol * max(1.0, abs(mean)):
                cl.append(r)
                break
        else:
            clusters.append([r])
    out = [(sum(cl) / len(cl), len(cl)) for cl in clusters]
    out.sort(key=lambda t: (t[0].real, t[0].imag))
    return out


# -- staircase ----------------------------------------------------------

def _nullspace_float(m, tol):
    u, s, vh = np.linalg.svd(m)
    scale = max(1.0, s[0] if len(s) else 0.0)
    rank = int(np.sum(s > tol * scale))
    return list(vh[rank:].conj())  # orthonormal vectors


class _Onb:
    """Incremental orthonormal basis with twice-is-enough Gram-Schmidt."""

    def __init__(self, tol, vectors=()):
        self.cols = []
        self.tol = tol
        for v in vectors:
            self.add(v)

    def add(self, v):
        """Append and return v's unit component outside the span, or None."""
        w = v.astype(complex).copy()
        for _ in range(2):
            for b in self.cols:
                w = w - np.vdot(b, w) * b
        nrm = np.linalg.norm(w)
        if nrm <= self.tol * max(1.0, np.linalg.norm(v)):
            return None
        self.cols.append(w / nrm)
        return self.cols[-1]


def _nullspace_exact(m):
    """Basis vectors (tuples) of ker(m) for an exact CMatrix: one per free
    column of its reduced row echelon form, read off the integer numerators."""
    n = m.n
    re, im = m._int_rows()
    pivots, (dr, di), _ = bareiss(re, im, n)
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
        re = [list(a) for a, _ in ints]
        im = [list(b) for _, b in ints] if any(any(b) for _, b in ints) else None
        if len(bareiss(re, im, len(v))[0]) < len(ints):
            return None
        self.ints = ints
        return v


def _chains(m, lam, mult, kernel, span):
    """Jordan chains [v^1, ..., v^r] with m v^j = v^{j-1} for m = A - lam I.

    ``kernel(M)`` returns a basis of ker M as a list of vectors;
    ``span(vectors)`` returns a basis holding ``vectors`` whose ``add(v)``
    returns the chain top to use for v, or None if v is already spanned.
    """
    grow = partial(mat_vec, m) if isinstance(m, CMatrix) else m.__matmul__
    kernels = [[]]  # kernels[r] spans ker m^r
    mr = None
    while len(kernels[-1]) < mult:
        mr = m if mr is None else mr @ m
        kern = kernel(mr)
        if not len(kernels[-1]) < len(kern) <= mult:
            raise ChainConstructionFailed(
                f"kernel staircase stalled for eigenvalue {lam} "
                f"(dims {[len(k) for k in kernels + [kern]]}, multiplicity {mult})"
            )
        kernels.append(kern)
    s = len(kernels) - 1
    weyr = [len(kernels[r]) - len(kernels[r - 1]) for r in range(1, s + 1)]
    if any(weyr[i] < weyr[i + 1] for i in range(s - 1)):
        raise ChainConstructionFailed(
            f"non-monotone Weyr counts {weyr} for eigenvalue {lam}"
        )
    chains = []
    carried = {r: [] for r in range(1, s + 1)}  # height-r images of taller tops
    for r in range(s, 0, -1):
        need = weyr[r - 1] - (weyr[r] if r < s else 0)
        basis = span(kernels[r - 1] + carried[r])
        picked = 0
        for cand in kernels[r]:
            if picked == need:
                break
            top = basis.add(cand)
            if top is None:
                continue
            picked += 1
            chain = [top]
            for _ in range(r - 1):
                chain.append(grow(chain[-1]))
            chain.reverse()
            chains.append(chain)
            for height in range(1, r):
                carried[height].append(chain[height - 1])
        if picked < need:
            raise ChainConstructionFailed(
                f"could not complete {need} chains of height {r} "
                f"for eigenvalue {lam}"
            )
    return chains


def jordan_decompose(A, tol=1e-8, eig_tol=1e-2, eigenvalues_hint=None):
    """Compute A = P J P^{-1}.

    Float backend: eigenvalues found numerically (or taken from
    ``eigenvalues_hint`` as [(lam, mult), ...]).  Exact backend: the hint is
    mandatory and everything runs over Gaussian rationals.
    """
    _check_tol("tol", tol)
    _check_tol("eig_tol", eig_tol)
    n = A.n
    exact = A.backend == EXACT
    if exact:
        if eigenvalues_hint is None:
            raise ValueError(
                "exact decomposition needs eigenvalues_hint (root finding is "
                "float-only); or convert with to_float()"
            )
        eigs = [(GaussianRational._coerce(lam), m) for lam, m in eigenvalues_hint]
        if any(lam is None for lam, _ in eigs):
            raise ValueError("exact decomposition needs exact eigenvalues")
        shifted = (A - CMatrix.identity(n, EXACT).scale(lam) for lam, _ in eigs)
        kernel, span = _nullspace_exact, _ExactSpan
    else:
        if n > 64:
            raise DimensionMismatch("Jordan computation is limited to n <= 64")
        a = A.to_numpy()
        eigs = eigenvalues_hint or eigenvalues(A, eig_tol)
        eigs = [(complex(lam), m) for lam, m in eigs]
        shifted = (a - lam * np.eye(n) for lam, _ in eigs)
        kernel, span = partial(_nullspace_float, tol=tol), partial(_Onb, 1e-8)
    if sum(m for _, m in eigs) != n:
        raise ChainConstructionFailed(
            f"eigenvalue multiplicities {eigs} do not sum to n={n}"
        )
    blocks = []
    cols = []
    for (lam, mult), m in zip(eigs, shifted):
        for chain in _chains(m, lam, mult, kernel, span):
            blocks.append((lam, len(chain)))
            cols.extend(chain)
    if exact:
        P = CMatrix([[v[i] for v in cols] for i in range(n)], EXACT)
    else:
        P = CMatrix.from_numpy(np.column_stack(cols))
    try:
        # a float P also needs |det P| >= 1e-12, an absolute floor that
        # rejects some well-conditioned P of large n (see ROADMAP)
        if not exact and abs(P.det()) < 1e-12:
            raise SingularMatrix("|det P| is below 1e-12")
        P_inv = P.inverse()
    except SingularMatrix as exc:
        raise ChainConstructionFailed("assembled eigenvector matrix is singular") from exc
    residual = (A - P @ assemble_jordan(blocks, A.backend) @ P_inv).row_sum_norm()
    return JordanDecomposition(P=P, blocks=blocks, P_inv=P_inv, residual=residual)


def verify_decomposition(A, dec, tol=1e-8):
    """Recompute ||A - P J P^{-1}|| and ||P P_inv - I||; ok iff both <= tol."""
    _check_tol("tol", tol)
    if dec.n != A.n:
        raise DimensionMismatch(f"decomposition is {dec.n}x{dec.n}, A is {A.n}x{A.n}")
    backend = A.backend
    P = dec.P if dec.P.backend == backend else dec.P.to_float()
    P_inv = dec.P_inv if dec.P_inv.backend == backend else dec.P_inv.to_float()
    if backend == EXACT and (P.backend != EXACT or P_inv.backend != EXACT):
        raise ValueError("exact verification needs exact P and P_inv")
    J = assemble_jordan(dec.blocks, backend)
    eye = CMatrix.identity(A.n, backend)
    inv_err = (P @ P_inv - eye).row_sum_norm()
    residual = (A - P @ J @ P_inv).row_sum_norm()
    return {"residual": residual, "ok": residual <= tol and inv_err <= tol}
