import random
from fractions import Fraction

import pytest

from momexp import (
    BackendMismatch,
    CMatrix,
    MomentSequence,
    SingularMatrix,
    eval_exp,
    fundamental_matrix,
    mat_vec,
    q_derivative_residual,
    recover_exponential,
    residual_check,
    solve,
    vec_norm,
)
from helpers import random_exact_matrix

FACTORIAL = MomentSequence.factorial()
ML2 = MomentSequence.mittag_leffler(2)
QFAC2 = MomentSequence.q_factorial(2)
QFAC3 = MomentSequence.q_factorial(3)

EXAMPLE1 = CMatrix([[1.0, 0, 1], [1, 2, 0], [0, 0, 1]])
EXAMPLE2 = CMatrix([[0.0, 1, 1], [-1, 2, 1], [1, -1, 1]])


class TestSolve:
    def test_zero_matrix_constant_solution(self):
        sol = solve(CMatrix.zeros(2, "float"), (1.0, 2.0), FACTORIAL)
        for z in (0.0, 0.5, 1 + 1j):
            assert vec_norm(tuple(a - b for a, b in zip(sol(z), (1, 2)))) < 1e-14

    def test_anchored_at_origin(self):
        sol = solve(EXAMPLE1, (3.0, -1.0, 2.0), ML2)
        assert vec_norm(tuple(a - b for a, b in zip(sol(0.0), (3, -1, 2)))) < 1e-14

    def test_classical_diagonal(self):
        sol = solve(CMatrix([[1.0, 0], [0, 2.0]]), (1.0, 1.0), FACTORIAL)
        import math

        y = sol(0.7)
        assert abs(y[0] - math.exp(0.7)) < 1e-12
        assert abs(y[1] - math.exp(1.4)) < 1e-12

    def test_example2_first_column_coefficients(self):
        # moment coefficients of exp_q(Az) e1 are (p^2-3p+2, (p-3)p, 2p)/2
        A2 = CMatrix([[0, 1, 1], [-1, 2, 1], [1, -1, 1]])
        sol = solve(A2, (1, 0, 0), QFAC2)
        coeffs = sol.series(12).coeffs
        for p, c in enumerate(coeffs):
            want = (
                Fraction(p * p - 3 * p + 2, 2),
                Fraction((p - 3) * p, 2),
                Fraction(2 * p, 2),
            )
            assert tuple(x for x in c) == tuple(
                __import__("momexp").GaussianRational(w) for w in want
            )

    def test_superposition_coefficient_exact(self):
        rng = random.Random(61)
        A = random_exact_matrix(3, rng)
        u, v = (1, -2, 3), (0, 5, -1)
        combo = tuple(2 * a + 7 * b for a, b in zip(u, v))
        s_combo = solve(A, combo, QFAC2).series(10).coeffs
        s_u = solve(A, u, QFAC2).series(10).coeffs
        s_v = solve(A, v, QFAC2).series(10).coeffs
        for c, cu, cv in zip(s_combo, s_u, s_v):
            assert c == tuple(2 * a + 7 * b for a, b in zip(cu, cv))

    def test_negative_series_order_rejected(self):
        with pytest.raises(ValueError, match="nonnegative"):
            solve(EXAMPLE1, (1.0, 0.0, 1.0), FACTORIAL).series(-3)

    def test_exact_matrix_with_float_vector_rejected_by_solve(self):
        with pytest.raises(BackendMismatch):
            solve(CMatrix([[0, 1], [0, 0]]), (1.0, 2.0), FACTORIAL)
        assert solve(CMatrix([[0, 1], [0, 0]]), (1, Fraction(1, 2)), FACTORIAL).backend == "exact"
        assert solve(CMatrix([[0.0, 1], [0, 0]]), (1, 2), FACTORIAL).backend == "float"


class TestResidualCheck:
    def test_exact_zero(self):
        rng = random.Random(71)
        for seq in (FACTORIAL, QFAC3):
            for _ in range(10):
                A = random_exact_matrix(3, rng)
                sol = solve(A, (1, 2, -1), seq)
                assert residual_check(sol, 40) == 0.0

    def test_float_roundoff(self):
        sol = solve(EXAMPLE1, (1.0, 0.0, 1.0), ML2)
        assert residual_check(sol, 30) <= 1e-12 * max(
            1.0, max(vec_norm(c) for c in sol.series(31).coeffs)
        )

    def test_random_4x4_exact(self):
        rng = random.Random(73)
        for _ in range(5):
            A = random_exact_matrix(4, rng)
            sol = solve(A, (1, 0, -3, 2), QFAC3)
            assert residual_check(sol, 60) == 0.0


class TestFundamentalMatrix:
    def test_identity_initial_data(self):
        X = fundamental_matrix(EXAMPLE1, CMatrix.identity(3, "float"), FACTORIAL)
        direct = eval_exp(EXAMPLE1, 0.6, FACTORIAL).value
        assert (X(0.6) - direct).row_sum_norm() < 1e-12

    def test_columns_are_solutions(self):
        rng = random.Random(83)
        X0 = CMatrix([[rng.uniform(-2, 2) for _ in range(3)] for _ in range(3)])
        X = fundamental_matrix(EXAMPLE1, X0, FACTORIAL)
        for col in range(3):
            v0 = tuple(X0.rows[i][col] for i in range(3))
            sol = solve(EXAMPLE1, v0, FACTORIAL)
            xz = X(0.5)
            yz = sol(0.5)
            assert vec_norm(
                tuple(xz.rows[i][col] - yz[i] for i in range(3))
            ) < 1e-10

    def test_singular_initial_data(self):
        bad = CMatrix([[1.0, 0, 0], [0, 1, 0], [0, 0, 0]])
        with pytest.raises(SingularMatrix):
            fundamental_matrix(EXAMPLE1, bad, FACTORIAL)


class TestRecoverExponential:
    def test_identity_initial_data(self):
        X = fundamental_matrix(EXAMPLE1, CMatrix.identity(3, "float"), ML2)
        got = recover_exponential(X, CMatrix.identity(3, "float"), 0.5)
        want = eval_exp(EXAMPLE1, 0.5, ML2).value
        assert (got - want).row_sum_norm() < 1e-12

    def test_example1_random_initial_data(self):
        X0 = CMatrix([[2.0, 0, 0], [0, 1, 1], [1, 0, 1]])
        X = fundamental_matrix(EXAMPLE1, X0, ML2)
        got = recover_exponential(X, X0, 0.5)
        want = eval_exp(EXAMPLE1, 0.5, ML2).value
        assert (got - want).row_sum_norm() <= 1e-10

    def test_example2_with_jordan_witness_initial_data(self):
        P2 = CMatrix([[1.0, 0, 1], [1, 0, 0], [0, 1, 1]])
        X = fundamental_matrix(EXAMPLE2, P2, QFAC2)
        got = recover_exponential(X, P2, 0.4)
        want = eval_exp(EXAMPLE2, 0.4, QFAC2).value
        assert (got - want).row_sum_norm() <= 1e-10

    def test_independent_of_initial_data(self):
        rng = random.Random(91)
        recovered = []
        for _ in range(2):
            X0 = CMatrix([[rng.uniform(-2, 2) for _ in range(3)] for _ in range(3)])
            X = fundamental_matrix(EXAMPLE1, X0, FACTORIAL)
            recovered.append(recover_exponential(X, X0, 0.8))
        assert (recovered[0] - recovered[1]).row_sum_norm() <= 1e-10


class TestQDerivativeResidual:
    def test_scalar_eigenfunction(self):
        sol = solve(CMatrix([[1.0]]), (1.0,), QFAC2)
        assert q_derivative_residual(sol, 2, [0.3]) <= 1e-10

    def test_example2(self):
        sol = solve(EXAMPLE2, (1.0, -1.0, 2.0), QFAC2)
        assert q_derivative_residual(sol, 2, [0.1, 0.25, 0.5j]) <= 1e-8

    def test_zero_matrix(self):
        sol = solve(CMatrix.zeros(2, "float"), (1.0, 1.0), QFAC2)
        assert q_derivative_residual(sol, 2, [0.4]) <= 1e-14

    def test_z_zero_rejected(self):
        sol = solve(CMatrix([[1.0]]), (1.0,), QFAC2)
        with pytest.raises(ValueError):
            q_derivative_residual(sol, 2, [0.0])
