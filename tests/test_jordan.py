import math
import random
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import example, given, settings

from momexp import (
    BackendMismatch,
    CMatrix,
    ChainConstructionFailed,
    DimensionMismatch,
    GaussianRational,
    eigenvalues,
    jordan_decompose,
    verify_decomposition,
)
from momexp.exact import _ExactSpan, _nullspace_exact
from momexp.jordan import JordanDecomposition, assemble_jordan
from momexp.matrices import _float_singular

from helpers import (
    elimination_matrices,
    lazy_rows_reads,
    recovered_multiset,
    reference_kernel,
    reference_rank,
    synthetic_jordan_instance,
)

EXAMPLE1 = CMatrix([[1, 0, 1], [1, 2, 0], [0, 0, 1]])
EXAMPLE2 = CMatrix([[0, 1, 1], [-1, 2, 1], [1, -1, 1]])
P1 = CMatrix([[1, -1, 0], [-1, 0, 1], [0, 1, 0]])
J1_BLOCKS = [(1, 2), (2, 1)]
P2 = CMatrix([[1, 0, 1], [1, 0, 0], [0, 1, 1]])
J2_BLOCKS = [(1, 3)]


class TestEigenvalues:
    def test_example1(self):
        eigs = eigenvalues(EXAMPLE1)
        assert sorted((round(l.real), m) for l, m in eigs) == [(1, 2), (2, 1)]

    def test_example2_triple(self):
        eigs = eigenvalues(EXAMPLE2)
        assert len(eigs) == 1
        lam, mult = eigs[0]
        assert mult == 3 and abs(lam - 1) < 1e-4

    def test_diagonal(self):
        eigs = eigenvalues(CMatrix([[3.0, 0, 0], [0, 3, 0], [0, 0, 5]]))
        assert sorted((round(l.real), m) for l, m in eigs) == [(3, 2), (5, 1)]

    def test_multiplicities_sum_to_n(self):
        rng = random.Random(1)
        for _ in range(20):
            A, _ = synthetic_jordan_instance(rng)
            assert sum(m for _, m in eigenvalues(A)) == A.n


class TestJordanDecompose:
    def test_example1(self):
        A = EXAMPLE1.to_float()
        dec = jordan_decompose(A)
        assert recovered_multiset(dec) == J1_BLOCKS
        assert verify_decomposition(A, dec)["residual"] <= 1e-8

    def test_example2(self):
        A = EXAMPLE2.to_float()
        dec = jordan_decompose(A)
        assert recovered_multiset(dec) == J2_BLOCKS
        assert verify_decomposition(A, dec)["residual"] <= 1e-8

    def test_already_diagonal(self):
        d = CMatrix([[2.0, 0, 0], [0, 5, 0], [0, 0, 7]])
        dec = jordan_decompose(d)
        assert sorted(size for _, size in dec.blocks) == [1, 1, 1]
        assert verify_decomposition(d, dec)["residual"] <= 1e-12

    def test_random_recovery(self):
        rng = random.Random(77)
        for _ in range(40):
            A, expected = synthetic_jordan_instance(rng)
            dec = jordan_decompose(A)
            assert recovered_multiset(dec) == expected
            assert verify_decomposition(A, dec)["residual"] <= 1e-8

    def test_float_residuals_match_cmatrix_formula(self):
        # verify_decomposition's float branch runs on numpy arrays; it agrees
        # with the CMatrix products at rounding level
        rng = random.Random(2024)
        for _ in range(40):
            A, _ = synthetic_jordan_instance(rng)
            dec = jordan_decompose(A)
            want = (A - dec.P @ assemble_jordan(dec.blocks) @ dec.P_inv).row_sum_norm()
            got = verify_decomposition(A, dec)["residual"]
            assert abs(got - want) <= 1e-13 * A.row_sum_norm()

    def test_singular_float_P_fails(self):
        # sigma rule: eigenvectors e1 and (1, 1e-13) are nearly parallel
        A = CMatrix([[1.0, 1.0], [0.0, 1.0 + 1e-13]])
        assert _float_singular(np.array([[1.0, 1.0], [0.0, 1e-13]]))
        with pytest.raises(ChainConstructionFailed, match="singular"):
            jordan_decompose(A, eigenvalues_hint=[(1.0, 1), (1.0 + 1e-13, 1)])
        # |det P| floor: unit eigenvectors with condition number ~126 pass the
        # sigma rule, but their determinant is ~4e-14
        n = 16
        rng = np.random.default_rng(5)
        u, _ = np.linalg.qr(rng.normal(size=(n, n)))
        v, _ = np.linalg.qr(rng.normal(size=(n, n)))
        p = u @ np.diag([1.0] * 8 + [0.01] * 8) @ v.T
        p /= np.linalg.norm(p, axis=0)
        assert not _float_singular(p) and abs(np.linalg.det(p)) < 1e-12
        a = p @ np.diag(np.arange(1.0, n + 1)) @ np.linalg.inv(p)
        with pytest.raises(ChainConstructionFailed, match="singular"):
            jordan_decompose(CMatrix.from_numpy(a))

    def test_weyr_counts_match_kernel_dims(self):
        rng = random.Random(101)
        for _ in range(10):
            A, expected = synthetic_jordan_instance(rng)
            dec = jordan_decompose(A)
            a = A.to_numpy()
            for lam in {l for l, _ in dec.blocks}:
                m = a - lam * np.eye(A.n)
                prev = 0
                mr = np.eye(A.n)
                for r in range(1, max(s for l, s in dec.blocks if l == lam) + 1):
                    mr = mr @ m
                    dim = A.n - np.linalg.matrix_rank(mr, tol=1e-8)
                    count = sum(
                        1 for l, s in dec.blocks if l == lam and s >= r
                    )
                    assert count == dim - prev
                    prev = dim

    def test_exact_backend_needs_hint(self):
        with pytest.raises(ValueError):
            jordan_decompose(EXAMPLE1)

    def test_exact_with_hint(self):
        dec = jordan_decompose(EXAMPLE1, eigenvalues_hint=[(1, 2), (2, 1)])
        assert verify_decomposition(EXAMPLE1, dec)["residual"] == 0.0
        assert sorted((complex(l).real, s) for l, s in dec.blocks) == [
            (1.0, 2),
            (2.0, 1),
        ]

    def test_exact_needs_exact_hint(self):
        with pytest.raises(BackendMismatch, match="eigenvalue"):
            jordan_decompose(EXAMPLE1, eigenvalues_hint=[(1.0, 2), (2, 1)])

    @pytest.mark.parametrize("A,hint", [
        (EXAMPLE1.to_float(), [(1.0, 2)]),
        (EXAMPLE1, [(1, 2), (2, 2)]),
    ], ids=["float", "exact"])
    def test_multiplicities_must_sum_to_n(self, A, hint):
        with pytest.raises(ChainConstructionFailed, match="do not sum to n=3"):
            jordan_decompose(A, eigenvalues_hint=hint)

    def test_float_size_limit(self):
        with pytest.raises(DimensionMismatch, match="n <= 64"):
            jordan_decompose(CMatrix.identity(65, "float"))

    def test_exact_wrong_hint_fails(self):
        for A, hint in [
            (EXAMPLE1, [(3, 2), (2, 1)]),
            (CMatrix.identity(2), [(1, 1), (1, 1)]),  # repeated eigenvalue
            # each entry finds the one eigenvector e_1, so P = [e_1 e_1]
            (CMatrix([[1, 1], [0, 1]]), [(1, 1), (1, 1)]),
        ]:
            with pytest.raises(ChainConstructionFailed):
                jordan_decompose(A, eigenvalues_hint=hint)


def distinct_eigenvalue_matrix(n, seed, unitary=False):
    """A seeded diagonalizable complex n x n matrix P diag(lam) P^{-1} whose
    eigenvalues k (1 + 0.3i), k = 1..n, no clustering tolerance merges.
    With ``unitary``, P is the unitary factor of the Gaussian one, and A is
    normal (the |det P| floor rejects a Gaussian P at n = 64)."""
    rng = np.random.default_rng(seed)
    p = rng.normal(size=(n, n)) + 1j * rng.normal(size=(n, n))
    if unitary:
        p = np.linalg.qr(p)[0]
    lam = np.arange(1, n + 1) * (1 + 0.3j)
    return CMatrix.from_numpy(p @ np.diag(lam) @ np.linalg.inv(p))


def count_svds(monkeypatch):
    calls = []
    svd = np.linalg.svd
    monkeypatch.setattr(np.linalg, "svd", lambda *a, **k: calls.append(a) or svd(*a, **k))
    return calls


class TestEigPath:
    """A float decomposition without a hint takes simple eigenvalues and
    their vectors from one ``np.linalg.eig``."""

    @pytest.mark.parametrize("n, unitary", [(16, False), (40, False), (64, True)],
                             ids=["16", "40", "64-normal"])
    def test_distinct_eigenvalues_take_one_svd(self, monkeypatch, n, unitary):
        A = distinct_eigenvalue_matrix(n, n, unitary)
        calls = count_svds(monkeypatch)
        dec = jordan_decompose(A)
        # the staircase took one SVD per cluster and P two more: n + 2
        assert len(calls) == 1
        assert [size for _, size in dec.blocks] == [1] * n
        assert verify_decomposition(A, dec, tol=1e-8 * A.row_sum_norm())["ok"]

    def test_hint_still_runs_the_staircase(self, monkeypatch):
        n = 16
        A = distinct_eigenvalue_matrix(n, n)
        hint = [(k * (1 + 0.3j), 1) for k in range(1, n + 1)]
        calls = count_svds(monkeypatch)
        dec = jordan_decompose(A, eigenvalues_hint=hint)
        # one kernel SVD per hinted cluster, and one for P
        assert len(calls) == n + 1
        assert dec.blocks == [(complex(lam), 1) for lam, _ in hint]

    def test_simple_columns_are_unit_eigenvectors(self):
        rng = random.Random(5)
        cases = [distinct_eigenvalue_matrix(n, n) for n in (16, 40)]
        cases += [synthetic_jordan_instance(rng)[0] for _ in range(20)]
        for A in cases:
            dec = jordan_decompose(A)
            a, p = A.to_numpy(), dec.P.to_numpy()
            bound = 1e-10 * A.row_sum_norm()
            col = 0
            for lam, size in dec.blocks:
                if size == 1:
                    v = p[:, col]
                    assert abs(np.linalg.norm(v) - 1) <= 1e-13
                    assert np.abs(a @ v - lam * v).max() <= bound
                col += size

    def test_eigenvalues_and_blocks_share_one_clustering(self):
        # clusters of 1 and 1 + 1e-9: merged, and the staircase completes
        def near_double(lam):
            p = np.array([[2.0, 1, 0], [1, 1, 1], [0, 1, 3]])
            return CMatrix.from_numpy(p @ np.diag(lam) @ np.linalg.inv(p))

        rng = random.Random(11)
        cases = [distinct_eigenvalue_matrix(16, 3), near_double([1.0, 1.0 + 1e-9, 4.0])]
        cases += [synthetic_jordan_instance(rng)[0] for _ in range(20)]
        for A in cases:
            merged = {}
            for lam, size in jordan_decompose(A).blocks:
                merged[lam] = merged.get(lam, 0) + size
            eigs = eigenvalues(A)
            assert [m for _, m in eigs] == list(merged.values())
            for (lam, _), got in zip(eigs, merged):
                assert abs(lam - got) <= 1e-9 * max(1.0, abs(lam))

    def test_near_confluent_still_fails(self):
        p = np.array([[2.0, 1, 0], [1, 1, 1], [0, 1, 3]])
        triple = p @ np.diag([1.0, 1.004, 1.008]) @ np.linalg.inv(p)
        for a in (np.diag([1.0, 1.005]), triple):
            with pytest.raises(ChainConstructionFailed, match="stalled"):
                jordan_decompose(CMatrix.from_numpy(a))


class TestExactBackend:
    """Exact kernels and rank tests against a plain-Fraction Gauss-Jordan."""

    @given(elimination_matrices())
    @example(CMatrix([[1, 2, 3], [2, 4, 5], [0, 0, GaussianRational(1, 1)]]))
    @settings(max_examples=60, deadline=None)
    def test_kernel_and_rank_match_reference(self, m):
        assert _nullspace_exact(m) == reference_kernel(m)
        vecs = [tuple(r) for r in m.rows]
        for k in range(len(vecs)):
            independent = reference_rank(vecs[:k + 1]) == k + 1
            top = _ExactSpan(vecs[:k]).add(vecs[k])
            assert top == (vecs[k] if independent else None)

    def test_decomposition_builds_no_rows(self):
        A = P1 @ assemble_jordan(J1_BLOCKS, "exact") @ P1.inverse()
        with lazy_rows_reads() as reads:
            dec = jordan_decompose(A, eigenvalues_hint=[(1, 2), (2, 1)])
            check = verify_decomposition(A, dec)
        assert reads == []
        assert dec.blocks == J1_BLOCKS and check == {"residual": 0.0, "ok": True}


class TestVerifyDecomposition:
    def _known_dec(self, P, blocks):
        return JordanDecomposition(P=P, blocks=blocks, P_inv=P.inverse())

    def test_size_mismatch(self):
        dec = self._known_dec(P1, J1_BLOCKS)
        with pytest.raises(DimensionMismatch, match="decomposition is 3x3, A is 2x2"):
            verify_decomposition(CMatrix.identity(2), dec)

    def test_example1_witness_exact(self):
        out = verify_decomposition(EXAMPLE1, self._known_dec(P1, J1_BLOCKS))
        assert out["ok"]
        assert out["residual"] == 0.0

    def test_example2_witness_exact(self):
        out = verify_decomposition(EXAMPLE2, self._known_dec(P2, J2_BLOCKS))
        assert out["ok"]
        assert out["residual"] == 0.0

    def test_perturbed_witness_rejected(self):
        rows = [list(r) for r in P1.to_float().rows]
        rows[0][0] += 0.1
        bad = CMatrix(rows)
        dec = JordanDecomposition(
            P=bad,
            blocks=[(1.0, 2), (2.0, 1)],
            P_inv=bad.inverse(),
        )
        out = verify_decomposition(EXAMPLE1.to_float(), dec)
        assert not out["ok"]

    def test_exact_matrix_with_float_decomposition_checks_in_float(self):
        dec = jordan_decompose(EXAMPLE1.to_float())
        out = verify_decomposition(EXAMPLE1, dec)
        assert out == verify_decomposition(EXAMPLE1.to_float(), dec)
        assert out["ok"] and 0.0 < out["residual"] <= 1e-8

    def test_float_eigenvalue_checks_in_float(self):
        I = CMatrix.identity(2)
        A = CMatrix([[0, 1], [0, 0]])
        for lam in (0.0, 0j):
            dec = JordanDecomposition(P=I, blocks=[(lam, 2)], P_inv=I)
            assert verify_decomposition(A, dec) == {"residual": 0.0, "ok": True}
        dec = JordanDecomposition(P=I, blocks=[(0.5, 2)], P_inv=I)
        assert not verify_decomposition(A, dec)["ok"]


    def test_exact_error_past_float_range_is_infinite(self):
        # P P_inv - I = diag(10^400 - 1, 0) exactly: no float, so inf and not ok
        big = CMatrix([[10**400, 0], [0, 1]])
        I = CMatrix.identity(2)
        dec = JordanDecomposition(P=big, blocks=[(1, 1), (1, 1)], P_inv=I)
        assert verify_decomposition(big, dec) == {"residual": 0.0, "ok": False}
        # A - P J P_inv = diag(10^400 - 1, 0) with P = P_inv = I
        dec = JordanDecomposition(P=I, blocks=[(1, 1), (1, 1)], P_inv=I)
        assert verify_decomposition(big, dec) == {"residual": math.inf, "ok": False}
        # an input past the float range with a valid decomposition passes
        dec = JordanDecomposition(P=I, blocks=[(10**400, 1), (1, 1)], P_inv=I)
        assert verify_decomposition(big, dec) == {"residual": 0.0, "ok": True}

class TestAssemble:
    def test_blockdiag_layout(self):
        J = assemble_jordan([(2.0, 2), (5.0, 1)])
        assert J.to_numpy().tolist() == [
            [2.0, 1.0, 0.0],
            [0.0, 2.0, 0.0],
            [0.0, 0.0, 5.0],
        ]

    def test_exact_and_float_layouts_agree(self):
        blocks = [(Fraction(1, 2), 2), (GaussianRational(-1, 3), 3), (4, 1)]
        assert assemble_jordan(blocks, "exact").to_float() == assemble_jordan(blocks)

    def test_exact_needs_exact_eigenvalues(self):
        with pytest.raises(BackendMismatch, match="eigenvalue"):
            assemble_jordan([(1, 2), (0.5, 1)], "exact")

    @pytest.mark.parametrize("backend", ["exact", "float"])
    @pytest.mark.parametrize("sizes", [[0], [2, -1]], ids=["zero", "negative"])
    def test_block_size_must_be_positive(self, backend, sizes):
        with pytest.raises(ValueError, match="block size"):
            assemble_jordan([(2, s) for s in sizes], backend)
