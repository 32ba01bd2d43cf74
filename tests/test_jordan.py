import random
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import example, given, settings

from momexp import (
    CMatrix,
    ChainConstructionFailed,
    GaussianRational,
    eigenvalues,
    jordan_decompose,
    verify_decomposition,
)
from momexp.jordan import JordanDecomposition, _ExactSpan, _nullspace_exact, assemble_jordan

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
        dec = jordan_decompose(EXAMPLE1.to_float())
        assert recovered_multiset(dec) == J1_BLOCKS
        assert dec.residual <= 1e-8

    def test_example2(self):
        dec = jordan_decompose(EXAMPLE2.to_float())
        assert recovered_multiset(dec) == J2_BLOCKS
        assert dec.residual <= 1e-8

    def test_already_diagonal(self):
        d = CMatrix([[2.0, 0, 0], [0, 5, 0], [0, 0, 7]])
        dec = jordan_decompose(d)
        assert sorted(size for _, size in dec.blocks) == [1, 1, 1]
        assert dec.residual <= 1e-12

    def test_random_recovery(self):
        rng = random.Random(77)
        for _ in range(40):
            A, expected = synthetic_jordan_instance(rng)
            dec = jordan_decompose(A)
            assert recovered_multiset(dec) == expected
            assert dec.residual <= 1e-8

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
        assert dec.residual == 0.0
        assert sorted((complex(l).real, s) for l, s in dec.blocks) == [
            (1.0, 2),
            (2.0, 1),
        ]

    def test_exact_wrong_hint_fails(self):
        for A, hint in [
            (EXAMPLE1, [(3, 2), (2, 1)]),
            (CMatrix.identity(2), [(1, 1), (1, 1)]),  # repeated eigenvalue
        ]:
            with pytest.raises(ChainConstructionFailed):
                jordan_decompose(A, eigenvalues_hint=hint)


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
            ok = verify_decomposition(A, dec)["ok"]
        assert reads == []
        assert dec.blocks == J1_BLOCKS and dec.residual == 0.0 and ok


class TestVerifyDecomposition:
    def _known_dec(self, P, blocks):
        return JordanDecomposition(
            P=P, blocks=blocks, P_inv=P.inverse(), residual=0.0
        )

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
            residual=0.0,
        )
        out = verify_decomposition(EXAMPLE1.to_float(), dec)
        assert not out["ok"]


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

    @pytest.mark.parametrize("backend", ["exact", "float"])
    @pytest.mark.parametrize("sizes", [[0], [2, -1]], ids=["zero", "negative"])
    def test_block_size_must_be_positive(self, backend, sizes):
        with pytest.raises(ValueError, match="block size"):
            assemble_jordan([(2, s) for s in sizes], backend)
