import cmath
import math
import random
from fractions import Fraction

import numpy as np
import pytest

from momexp import (
    BackendMismatch,
    CMatrix,
    EvaluationError,
    GaussianRational,
    MomentSequence,
    TruncationPolicy,
    delta_E,
    det_trace_probe,
    eval_exp,
    eval_via_jordan,
    jordan_block_exp,
    jordan_decompose,
    norm_bound_check,
    scalar_exp,
)
from momexp.jordan import JordanDecomposition

FACTORIAL = MomentSequence.factorial()
ML2 = MomentSequence.mittag_leffler(2)
QFAC2 = MomentSequence.q_factorial(2)
GEOM2 = MomentSequence.geometric(2)

EXAMPLE1 = CMatrix([[1.0, 0, 1], [1, 2, 0], [0, 0, 1]])
EXAMPLE2 = CMatrix([[0.0, 1, 1], [-1, 2, 1], [1, -1, 1]])


def direct_sum(lam, h, z, seq, terms=300):
    """Brute-force oracle for Delta_h E(lam, z) by direct summation."""
    total = 0j
    for p in range(h, terms):
        m = seq.value(p)
        # reciprocal first: float(huge Fraction) overflows, float(1/huge) is 0
        inv_m = float(Fraction(1) / m) if isinstance(m, Fraction) else 1.0 / m
        total += math.comb(p, h) * lam ** (p - h) * z**p * inv_m
    return total


class TestEvalExp:
    def test_zero_matrix(self):
        for seq in (FACTORIAL, ML2, QFAC2):
            rep = eval_exp(CMatrix.zeros(3, "float"), 0.7 + 0.1j, seq)
            assert rep.status == "converged"
            assert rep.terms_used == 1
            assert rep.value == CMatrix.identity(3, "float")

    def test_geometric_exact_closed_forms(self):
        I = CMatrix.identity(2)
        rep = eval_exp(I, 1, GEOM2)
        assert rep.value == I.scale(2)
        rep_neg = eval_exp(-I, 1, GEOM2)
        assert rep_neg.value == I.scale(Fraction(2, 3))

    def test_geometric_exact_radius(self):
        rep = eval_exp(CMatrix.identity(2), 3, GEOM2)
        assert rep.status == "radius_exceeded"

    def test_nilpotent_factorial(self):
        N = CMatrix([[0.0, 1], [0, 0]])
        rep = eval_exp(N, 3.0, FACTORIAL)
        expected = CMatrix([[1.0, 3.0], [0.0, 1.0]])
        assert (rep.value - expected).row_sum_norm() < 1e-14

    def test_nilpotent_exact_path(self):
        N = CMatrix([[0, 1], [0, 0]])
        rep = eval_exp(N, 3, FACTORIAL)
        assert rep.status == "converged"
        assert rep.value == CMatrix([[1, 3], [0, 1]])

    def test_non_nilpotent_exact_stops_after_n_terms(self):
        # (Az)^n != 0 rules out nilpotency (Cayley-Hamilton)
        rep = eval_exp(CMatrix([[1, 1], [0, 2]]), 1, FACTORIAL)
        assert rep.status == "max_terms_reached"
        assert rep.terms_used <= 3
        assert rep.value == CMatrix([[1, 0], [0, 1]]) + CMatrix([[1, 1], [0, 2]]) + (
            CMatrix([[1, 3], [0, 4]]).scale(Fraction(1, 2))
        )

    def test_geometric_float_radius_exceeded(self):
        rep = eval_exp(CMatrix.identity(2, "float"), 3.0, GEOM2)
        assert rep.status == "radius_exceeded"
        assert rep.value is None

    def test_geometric_float_inside_radius(self):
        rep = eval_exp(CMatrix.identity(2, "float"), 1.0, GEOM2)
        assert abs(rep.value.rows[0][0] - 2.0) < 1e-11

    def test_geometric_float_non_normal_inside_radius(self):
        # rho(Az/b) = 0.9, though the terms grow for a while
        A = CMatrix([[1.8, 20.0], [0.0, 1.8]])
        rep = eval_exp(A, 1.0, GEOM2)
        assert rep.status == "converged"
        want = np.linalg.inv(np.eye(2) - A.to_numpy() / 2)
        got = rep.value.to_numpy()
        assert np.abs(got - want).max() <= 1e-13 * np.abs(want).max()
        assert np.allclose(got, [[10, 1000], [0, 10]], rtol=1e-13, atol=0)

    def test_geometric_float_near_radius(self):
        rep = eval_exp(CMatrix.identity(2, "float").scale(1.996), 1.0, GEOM2)
        assert rep.status == "converged"
        want = CMatrix.identity(2, "float").scale(500.0)
        assert (rep.value - want).row_sum_norm() <= 1e-12 * 500
        out = eval_exp(CMatrix.identity(2, "float").scale(2.01), 1.0, GEOM2)
        assert out.status == "radius_exceeded"

    def test_zero_term_ends_float_sum(self):
        # a nilpotent Az: the third term is zero, so m(4) is never needed
        seq = MomentSequence.custom(["1", "1", "2", "6"], rapid_growth_declared=True)
        N = CMatrix([[0.0, 1, 2], [0, 0, 3], [0, 0, 0]])
        rep = eval_exp(N, 1.0, seq)
        assert rep.status == "converged"
        assert rep.terms_used == 3
        assert rep.tail_estimate == 0.0
        assert rep.value == CMatrix([[1.0, 1, 3.5], [0, 1, 3], [0, 0, 1]])

    def test_exact_matrix_with_float_sequence_rejected(self):
        with pytest.raises(BackendMismatch):
            eval_exp(CMatrix.identity(2), 1, ML2)

    def test_monotone_stopping(self):
        prev = 0
        for tol in (1e-6, 1e-9, 1e-12):
            rep = eval_exp(EXAMPLE1, 1.0, FACTORIAL, TruncationPolicy(tol=tol))
            assert rep.terms_used >= prev
            prev = rep.terms_used

    def test_converged_tail_below_tol(self):
        pol = TruncationPolicy(tol=1e-10)
        rep = eval_exp(EXAMPLE1, 0.5, ML2, pol)
        assert rep.status == "converged"
        assert rep.tail_estimate <= pol.tol


class TestDeltaE:
    def test_h0_matches_matrix_eval(self):
        for lam, z in [(1.3, 0.7), (-0.4 + 0.2j, 1.1)]:
            for seq in (FACTORIAL, ML2, QFAC2):
                scalar = delta_E(lam, 0, z, seq).value
                mat = eval_exp(CMatrix([[complex(lam)]]), z, seq).value
                assert abs(scalar - mat.rows[0][0]) < 1e-14

    def test_factorial_closed_form(self):
        # index shift gives Delta_h E = z^h e^{lam z} / h!
        for lam, z, h in [(1.0, 1.0, 2), (0.5, 2.0, 3), (-1.2, 0.8, 1)]:
            got = delta_E(lam, h, z, FACTORIAL).value
            want = z**h * cmath.exp(lam * z) / math.factorial(h)
            assert abs(got - want) < 1e-12
        assert abs(delta_E(1.0, 2, 1.0, FACTORIAL).value - math.e / 2) < 1e-12

    def test_lambda_zero(self):
        for h, seq in [(0, FACTORIAL), (2, QFAC2), (3, ML2)]:
            rep = delta_E(0.0, h, 0.7, seq)
            assert rep.terms_used == 1
            assert abs(rep.value - 0.7**h / float(seq.value(h))) < 1e-15

    def test_against_direct_sum(self):
        for seq in (FACTORIAL, ML2, QFAC2):
            for h in (0, 1, 2):
                got = delta_E(1.0, h, 0.5, seq).value
                assert abs(got - direct_sum(1.0, h, 0.5, seq)) < 1e-12

    def test_max_terms_counts_every_term(self):
        # terms 0..max_terms were summed, as eval_exp reports them
        pol = TruncationPolicy(max_terms=5)
        rep = delta_E(3.0, 1, 1.0, FACTORIAL, pol)
        assert rep.status == "max_terms_reached"
        assert rep.terms_used == 6
        assert eval_exp(CMatrix([[3.0]]), 1.0, FACTORIAL, pol).terms_used == 6
        block = jordan_block_exp(3.0, 2, 1.0, FACTORIAL, pol)
        assert block.status == "max_terms_reached"
        assert block.terms_used == 6

    def test_coefficient_recurrence_exact(self):
        # d_p(h) = C(p,h) lam^{p-h} satisfies d_{p+1}(h) = lam d_p(h) + d_p(h-1)
        lam = Fraction(3, 7)

        def d(p, h):
            if h < 0 or p < h:
                return Fraction(0)
            return math.comb(p, h) * lam ** (p - h)

        for p in range(12):
            for h in range(6):
                assert d(p + 1, h) == lam * d(p, h) + d(p, h - 1)


class TestJordanBlockExp:
    def test_size_one(self):
        rep = jordan_block_exp(1.5, 1, 0.4, ML2)
        assert abs(rep.value.rows[0][0] - scalar_exp(1.5, 0.4, ML2).value) < 1e-14

    def test_nilpotent_factorial(self):
        rep = jordan_block_exp(0.0, 3, 1.0, FACTORIAL)
        expected = CMatrix([[1.0, 1.0, 0.5], [0, 1, 1], [0, 0, 1]])
        assert (rep.value - expected).row_sum_norm() < 1e-14

    def test_qfac_display(self):
        # §-free oracle: entries are direct sums of C(p,h) z^p / [p]_q!
        z = 0.5
        rep = jordan_block_exp(1.0, 3, z, QFAC2)
        for i in range(3):
            for j in range(3):
                want = direct_sum(1.0, j - i, z, QFAC2) if j >= i else 0.0
                assert abs(rep.value.rows[i][j] - want) < 1e-12

    def test_toeplitz_structure(self):
        rep = jordan_block_exp(0.3 + 0.1j, 4, 0.9, ML2)
        m = rep.value.rows
        for i in range(3):
            for j in range(3):
                assert m[i][j] == m[i + 1][j + 1]


class TestEvalViaJordan:
    def test_diagonal_case(self):
        lams = [0.5, -1.0, 2.0]
        dec = JordanDecomposition(
            P=CMatrix.identity(3, "float"),
            blocks=[(complex(l), 1) for l in lams],
            P_inv=CMatrix.identity(3, "float"),
            residual=0.0,
        )
        rep = eval_via_jordan(dec, 0.7, ML2)
        for i, l in enumerate(lams):
            assert abs(rep.value.rows[i][i] - scalar_exp(l, 0.7, ML2).value) < 1e-12

    def test_blocks_laid_out_on_the_diagonal(self):
        blocks = [(0.5, 2), (-1.0 + 0.5j, 1), (0.3, 3)]
        eye = CMatrix.identity(6, "float")
        dec = JordanDecomposition(P=eye, blocks=blocks, P_inv=eye, residual=0.0)
        expected = [[0j] * 6 for _ in range(6)]
        off = 0
        for lam, size in blocks:
            block = jordan_block_exp(lam, size, 0.7, ML2).value.rows
            for i in range(size):
                expected[off + i][off:off + size] = block[i]
            off += size
        value = eval_via_jordan(dec, 0.7, ML2).value
        assert [list(r) for r in value.rows] == expected

    @pytest.mark.parametrize("z", [0.3, 1 + 0.5j])
    @pytest.mark.parametrize("seq", [FACTORIAL, ML2], ids=["factorial", "ml2"])
    def test_example1_agreement(self, seq, z):
        dec = jordan_decompose(EXAMPLE1)
        direct = eval_exp(EXAMPLE1, z, seq).value
        via = eval_via_jordan(dec, z, seq).value
        assert (direct - via).row_sum_norm() <= 1e-10

    def test_example2_agreement(self):
        dec = jordan_decompose(EXAMPLE2)
        direct = eval_exp(EXAMPLE2, 0.4, QFAC2).value
        via = eval_via_jordan(dec, 0.4, QFAC2).value
        assert (direct - via).row_sum_norm() <= 1e-10

    def test_random_path_equivalence(self):
        rng = random.Random(41)
        pol = TruncationPolicy(tol=1e-12)
        for seq in (FACTORIAL, ML2, QFAC2):
            for _ in range(7):
                A = CMatrix(
                    [[rng.randint(-2, 2) * 1.0 for _ in range(3)] for _ in range(3)]
                )
                dec = jordan_decompose(A)
                z = rng.uniform(-1, 1) + 1j * rng.uniform(-1, 1)
                direct = eval_exp(A, z, seq, pol).value
                via = eval_via_jordan(dec, z, seq, pol).value
                assert (direct - via).row_sum_norm() <= 1e-8


class TestNormBound:
    def test_zero_matrix(self):
        out = norm_bound_check(CMatrix.zeros(2, "float"), 1.0, ML2)
        assert out["lhs"] == pytest.approx(1.0)
        assert out["rhs"] == pytest.approx(1.0)
        assert out["holds"]

    def test_example1_factorial(self):
        out = norm_bound_check(EXAMPLE1, 1.0, FACTORIAL)
        assert math.isfinite(out["lhs"]) and math.isfinite(out["rhs"])
        assert out["holds"]

    def test_random_sweep(self):
        rng = random.Random(55)
        for _ in range(100):
            A = CMatrix([[rng.uniform(-2, 2) / 3 for _ in range(3)] for _ in range(3)])
            z = rng.uniform(-1, 1) + 1j * rng.uniform(-1, 1)
            assert norm_bound_check(A, z, ML2)["holds"]


class TestDetTraceProbe:
    def test_factorial_classical_identity(self):
        A = CMatrix([[1.0, 0], [0, 2.0]])
        out = det_trace_probe(A, FACTORIAL)
        assert abs(out["det_of_exp"] - math.e**3) < 1e-10
        assert abs(out["exp_of_trace"] - math.e**3) < 1e-10

    def test_ml2_breaks_identity(self):
        A = CMatrix.identity(2, "float")
        out = det_trace_probe(A, ML2)
        # oracle: E_{1/2}(1)^2 vs E_{1/2}(2) by direct summation
        e1 = direct_sum(1.0, 0, 1.0, ML2)
        e2 = direct_sum(2.0, 0, 1.0, ML2)
        assert abs(out["det_of_exp"] - e1**2) < 1e-9
        assert abs(out["exp_of_trace"] - e2) < 1e-9
        assert abs(out["det_of_exp"] - out["exp_of_trace"]) > 0.1

    def test_geometric_trace_diverges(self):
        A = CMatrix.identity(2, "float")
        out = det_trace_probe(A, GEOM2)
        assert abs(out["det_of_exp"] - 4.0) < 1e-10
        assert out["trace_status"] == "radius_exceeded"
        assert out["exp_of_trace"] is None


class TestPolicy:
    def test_invariants(self):
        with pytest.raises(ValueError):
            TruncationPolicy(tol=0.0)
        with pytest.raises(ValueError):
            TruncationPolicy(max_terms=2)

    def test_require_converged_raises(self):
        rep = eval_exp(CMatrix.identity(2, "float"), 3.0, GEOM2)
        with pytest.raises(EvaluationError):
            rep.require_converged()
