import random
from fractions import Fraction

import pytest

from momexp import (
    CMatrix,
    DimensionMismatch,
    MomentSequence,
    MomentSeries,
    SequenceError,
    cauchy_product,
    exp_series,
    inverse_series,
    moment_derivative,
    phi_coefficients,
    solve,
    unit_series,
)
from momexp.moments import parse_specifier

FACTORIAL = MomentSequence.factorial()
QFAC2 = MomentSequence.q_factorial(2)
GEOM2 = MomentSequence.geometric(2)


def rand_exact(n, rng, lo=-4, hi=4):
    return CMatrix([[rng.randint(lo, hi) for _ in range(n)] for _ in range(n)])


class TestMomentDerivative:
    def test_shift(self):
        A = CMatrix([[1, 2], [0, 1]])
        s = MomentSeries(FACTORIAL, [CMatrix.identity(2), A, A @ A])
        d = moment_derivative(s)
        assert d.coeffs == [A, A @ A]

    def test_exp_series_identity(self):
        # moment derivative of E(Az) equals A E(Az), coefficient-exact
        rng = random.Random(21)
        for seq in (FACTORIAL, QFAC2, GEOM2):
            for _ in range(34):
                A = rand_exact(3, rng)
                d = moment_derivative(exp_series(A, seq, 8))
                ref = exp_series(A, seq, 7)
                assert d.coeffs == [A @ c for c in ref.coeffs]

    def test_scalar_geometric_coeffs(self):
        lam = Fraction(3, 2)
        s = MomentSeries(FACTORIAL, [lam**p for p in range(6)])
        d = moment_derivative(s)
        assert d.coeffs == [lam * c for c in s.coeffs[:-1]]

    def test_empty_rejected(self):
        s = MomentSeries(FACTORIAL, [CMatrix.identity(2)])
        with pytest.raises(ValueError):
            moment_derivative(s)


class TestCauchyProduct:
    def test_unit_is_identity(self):
        A = CMatrix([[1, 1], [0, 2]])
        s = exp_series(A, QFAC2, 6)
        u = unit_series(QFAC2, 6, CMatrix.identity(2))
        assert cauchy_product(s, u).coeffs == s.coeffs
        assert cauchy_product(u, s).coeffs == s.coeffs

    def test_commuting_arguments_commute(self):
        # A and A^2 commute; E(A)E(B) = E(B)E(A) coefficient-exact
        rng = random.Random(9)
        for _ in range(10):
            A = rand_exact(3, rng)
            B = A @ A
            s1 = cauchy_product(exp_series(A, QFAC2, 6), exp_series(B, QFAC2, 6))
            s2 = cauchy_product(exp_series(B, QFAC2, 6), exp_series(A, QFAC2, 6))
            assert s1.coeffs == s2.coeffs

    def test_factorial_exp_times_exp_neg(self):
        # classical exp(A) exp(-A) = I, coefficients vanish exactly
        rng = random.Random(13)
        for _ in range(10):
            A = rand_exact(3, rng)
            prod = cauchy_product(
                exp_series(A, FACTORIAL, 10), exp_series(-A, FACTORIAL, 10)
            )
            assert prod.coeffs == unit_series(FACTORIAL, 10, A).coeffs

    def test_associative(self):
        rng = random.Random(17)
        A, B, C = (rand_exact(2, rng) for _ in range(3))
        sa, sb, sc = (exp_series(m, QFAC2, 7) for m in (A, B, C))
        left = cauchy_product(cauchy_product(sa, sb), sc)
        right = cauchy_product(sa, cauchy_product(sb, sc))
        assert left.coeffs == right.coeffs

    def test_order_truncates_to_min(self):
        A = CMatrix([[1]])
        p = cauchy_product(exp_series(A, FACTORIAL, 9), exp_series(A, FACTORIAL, 4))
        assert p.order == 4

    def test_sequence_mismatch(self):
        A = CMatrix([[1]])
        with pytest.raises(SequenceError):
            cauchy_product(exp_series(A, FACTORIAL, 3), exp_series(A, QFAC2, 3))

    def test_vector_series_rejected(self):
        v = solve(CMatrix([[1, 2], [0, 1]]), (1, 0), FACTORIAL).series(3)
        with pytest.raises(DimensionMismatch):
            cauchy_product(v, v)

    def test_matrix_against_scalar_rejected(self):
        m = exp_series(CMatrix([[1, 2], [0, 1]]), FACTORIAL, 3)
        s = MomentSeries(FACTORIAL, [1, 1, 1, 1])
        with pytest.raises(DimensionMismatch):
            cauchy_product(m, s)
        with pytest.raises(DimensionMismatch):
            cauchy_product(s, m)

    def test_sequences_compare_by_value(self):
        A = CMatrix([[1, 1], [0, 2]])
        s1 = exp_series(A, parse_specifier("factorial"), 4)
        s2 = exp_series(A, parse_specifier("factorial"), 4)
        assert s1 == s2
        assert cauchy_product(s1, s2).seq == FACTORIAL
        assert s1 != exp_series(A, QFAC2, 4)

    def test_different_custom_tables_rejected(self):
        t1 = MomentSequence.custom(["1", "1", "1", "1"], rapid_growth_declared=False)
        t2 = MomentSequence.custom(["1", "2", "6", "24"], rapid_growth_declared=False)
        ones = [1, 1, 1, 1]
        with pytest.raises(SequenceError):
            cauchy_product(MomentSeries(t1, ones), MomentSeries(t2, ones))

    def test_non_multiplicativity_witness(self):
        # scalar A = B = 1, q-factorial q=2: E(A+B) and E(A)E(B) differ at
        # order 2: (1+1)^2 = 4 vs m(2) * (1/m(2) + 1/m(1)^2 + 1/m(2)) = 5
        two = 2
        e_sum = MomentSeries(QFAC2, [two**p for p in range(3)])
        e_one = MomentSeries(QFAC2, [1, 1, 1])
        prod = cauchy_product(e_one, e_one)
        assert e_sum.coeffs[2] == 4
        assert prod.coeffs[2] == 5
        assert e_sum.coeffs[2] != prod.coeffs[2]


class TestPhiCoefficients:
    def test_base_case(self):
        for seq in (FACTORIAL, QFAC2, GEOM2):
            assert phi_coefficients(seq, 0) == [1]

    def test_factorial_alternating(self):
        assert phi_coefficients(FACTORIAL, 6) == [(-1) ** j for j in range(7)]

    def test_geometric_hand_recursion(self):
        # phi_1 = -1, then the recursion telescopes to zero
        assert phi_coefficients(GEOM2, 3) == [1, -1, 0, 0]


class TestInverseSeries:
    def test_zero_matrix(self):
        O = CMatrix.zeros(3)
        s = inverse_series(O, QFAC2, 5)
        assert s.coeffs == unit_series(QFAC2, 5, O).coeffs

    def test_factorial_is_exp_minus(self):
        A = CMatrix([[1, 2], [3, -1]])
        inv = inverse_series(A, FACTORIAL, 8)
        assert inv.coeffs == exp_series(-A, FACTORIAL, 8).coeffs

    def test_geometric_identity_matrix(self):
        s = inverse_series(CMatrix.identity(2), GEOM2, 3)
        I, O = CMatrix.identity(2), CMatrix.zeros(2)
        assert s.coeffs == [I, -I, O, O]

    def test_product_with_exp_is_unit(self):
        rng = random.Random(29)
        for seq in (FACTORIAL, QFAC2, GEOM2):
            for _ in range(5):
                A = rand_exact(3, rng)
                prod = cauchy_product(
                    inverse_series(A, seq, 12), exp_series(A, seq, 12)
                )
                assert prod.coeffs == unit_series(seq, 12, A).coeffs
