"""Jordan canonical decomposition for desk-scale matrices.

One staircase serves both scalar backends: kernel dimensions of
(A - lam I)^r give the Weyr counts, and generalized eigenvector chains are
grown top-down with the convention

    (A - lam I) v^j = v^{j-1},   v^0 = 0.

A backend supplies only kernel bases and a basis that takes a vector only if
it is independent: SVD and Gram-Schmidt on numpy for float, and for exact a
fraction-free elimination and an integer rank test, both from
:mod:`momexp.exact`, the one module that reads the elimination's rows.  Float
eigenvalues come from the QR iteration, clustered by a dedicated tolerance;
exact ones are supplied by the caller (root finding itself is float-only).
Without a hint, a float decomposition takes values and vectors from one
``np.linalg.eig``: a simple eigenvalue's unit eigenvector is its column of
P, and only a cluster of multiplicity >= 2 runs the staircase, so distinct
eigenvalues cost O(n^3).  A decomposition is the chain matrix P, its blocks
and P^{-1}.  An exact P is inverted by :meth:`CMatrix.inverse`; a float P is
judged by one SVD, under the backend's relative singularity rule and an
absolute floor |det P| >= 1e-12 read from the same singular values, and
inverted by ``np.linalg.inv``.  A P either rejects fails the decomposition.
Its residual ||A - P J P^{-1}|| is computed only by
:func:`verify_decomposition`.  J is laid out by the same block-Toeplitz
builder as E(Jz) in :mod:`momexp.evaluation`.

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
from .exact import GaussianRational, _ExactSpan, _nullspace_exact
from .matrices import (
    EXACT,
    FLOAT,
    CMatrix,
    _sigma_singular,
    infer_backend,
    mat_vec,
    require_exact,
)


_SINGULAR_P = "assembled eigenvector matrix is singular"


@dataclass
class JordanDecomposition:
    P: CMatrix
    blocks: List[Tuple[complex, int]]
    P_inv: CMatrix

    @property
    def n(self):
        return sum(size for _, size in self.blocks)


def assemble_jordan(blocks, backend=FLOAT):
    """Build the block-diagonal J from an ordered (lam, size) list."""
    if backend == EXACT:
        blocks = [(require_exact(lam, "eigenvalue"), size) for lam, size in blocks]
    else:
        blocks = [(complex(lam), size) for lam, size in blocks]
    return _block_toeplitz([(size, (lam, 1)) for lam, size in blocks], backend)


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
    roots = np.linalg.eigvals(A.to_float().to_numpy())
    return [(lam, len(members)) for lam, members in _clusters(roots, tol)]


def _clusters(roots, tol):
    """[(mean, indices into roots)] sorted by mean: taken in (real, imag)
    order, each root joins the first cluster whose running mean lies within
    tol * max(1, |mean|) of it."""
    clusters = []  # [running sum, member indices]
    for i in sorted(range(len(roots)), key=lambda i: (roots[i].real, roots[i].imag)):
        r = roots[i]
        for cl in clusters:
            mean = cl[0] / len(cl[1])
            if abs(r - mean) <= tol * max(1.0, abs(mean)):
                cl[0] += r
                cl[1].append(i)
                break
        else:
            clusters.append([r, [i]])
    out = [(total / len(members), members) for total, members in clusters]
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

    Float backend: eigenvalues and eigenvectors from one ``np.linalg.eig``,
    clustered as by :func:`eigenvalues`; a simple eigenvalue takes its unit
    eigenvector as its column of P, and only a cluster of multiplicity >= 2
    runs the kernel staircase.  With ``eigenvalues_hint`` as
    [(lam, mult), ...] every cluster runs the staircase.  P is judged by one
    SVD (the sigma rule and |det P| >= 1e-12) and inverted by
    ``np.linalg.inv``.  Exact backend: the hint is mandatory and everything
    runs over Gaussian rationals.
    """
    _check_tol("tol", tol)
    _check_tol("eig_tol", eig_tol)
    n = A.n
    exact = A.backend == EXACT
    vectors = {}  # position in eigs -> unit eigenvector of a simple eigenvalue
    if exact:
        if eigenvalues_hint is None:
            raise ValueError(
                "exact decomposition needs eigenvalues_hint (root finding is "
                "float-only); or convert with to_float()"
            )
        eigs = [(require_exact(lam, "eigenvalue"), m) for lam, m in eigenvalues_hint]
        kernel, span = _nullspace_exact, _ExactSpan
    else:
        if n > 64:
            raise DimensionMismatch("Jordan computation is limited to n <= 64")
        a = A.to_numpy()
        if eigenvalues_hint:
            eigs = [(complex(lam), m) for lam, m in eigenvalues_hint]
        else:
            roots, vecs = np.linalg.eig(a)
            eigs = []
            for lam, members in _clusters(roots, eig_tol):
                if len(members) == 1:
                    vectors[len(eigs)] = vecs[:, members[0]]
                eigs.append((complex(lam), len(members)))
        kernel, span = partial(_nullspace_float, tol=tol), partial(_Onb, 1e-8)
    if sum(m for _, m in eigs) != n:
        raise ChainConstructionFailed(
            f"eigenvalue multiplicities {eigs} do not sum to n={n}"
        )
    blocks = []
    cols = []
    for k, (lam, mult) in enumerate(eigs):
        if k in vectors:
            chains = [[vectors[k]]]
        else:
            m = A - CMatrix.identity(n, EXACT).scale(lam) if exact else a - lam * np.eye(n)
            chains = _chains(m, lam, mult, kernel, span)
        for chain in chains:
            blocks.append((lam, len(chain)))
            cols.extend(chain)
    if exact:
        P = CMatrix([[v[i] for v in cols] for i in range(n)], EXACT)
        try:
            P_inv = P.inverse()
        except SingularMatrix as exc:
            raise ChainConstructionFailed(_SINGULAR_P) from exc
        return JordanDecomposition(P=P, blocks=blocks, P_inv=P_inv)
    p = np.column_stack(cols)
    s = np.linalg.svd(p, compute_uv=False)
    # beside the relative sigma rule, a float P needs |det P| = prod(s) >= 1e-12,
    # an absolute floor that rejects some well-conditioned P of large n (see
    # ROADMAP)
    if _sigma_singular(s) or np.prod(s) < 1e-12:
        raise ChainConstructionFailed(_SINGULAR_P)
    return JordanDecomposition(
        P=CMatrix.from_numpy(p), blocks=blocks, P_inv=CMatrix.from_numpy(np.linalg.inv(p)))


def verify_decomposition(A, dec, tol=1e-8):
    """Recompute ||A - P J P^{-1}|| and ||P P_inv - I||, exactly if A, P,
    P_inv and every block eigenvalue are exact and in float otherwise; ok iff
    both <= tol.  An exact error past the float range reads ``math.inf``."""
    _check_tol("tol", tol)
    if dec.n != A.n:
        raise DimensionMismatch(f"decomposition is {dec.n}x{dec.n}, A is {A.n}x{A.n}")
    mats = (A, dec.P, dec.P_inv)
    lams = [lam for lam, _ in dec.blocks]
    if all(infer_backend(x) == EXACT for x in (*mats, *lams)):
        A, P, P_inv = mats
        J = assemble_jordan(dec.blocks, EXACT)
        inv_err = _exact_norm(P @ P_inv - CMatrix.identity(A.n, EXACT))
        residual = _exact_norm(A - P @ J @ P_inv)
    else:
        a, p, p_inv = (m.to_float().to_numpy() for m in mats)
        j = assemble_jordan(dec.blocks).to_numpy()
        inv_err = _row_sum_norm(p @ p_inv - np.eye(A.n))
        residual = _row_sum_norm(a - p @ j @ p_inv)
    return {"residual": residual, "ok": residual <= tol and inv_err <= tol}


def _exact_norm(m):
    """The row-sum norm of an exact matrix, or ``math.inf`` when it is past
    the float range."""
    try:
        return m.row_sum_norm()
    except OverflowError:
        return math.inf


def _row_sum_norm(a):
    """:meth:`CMatrix.row_sum_norm` of a numpy array, as a Python float."""
    return float(np.abs(a).sum(axis=1).max())
