import random
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from momexp import (
    BackendMismatch,
    CMatrix,
    DimensionMismatch,
    GaussianRational,
    SingularMatrix,
    mat_pow,
    mat_vec,
    matrix_from_json,
    matrix_to_json,
)

from helpers import elimination_matrices, lazy_rows_reads, reference_det, reference_inverse

EXAMPLE1 = CMatrix([[1, 0, 1], [1, 2, 0], [0, 0, 1]])


def rand_exact(n, rng, lo=-5, hi=5):
    return CMatrix([[rng.randint(lo, hi) for _ in range(n)] for _ in range(n)])


class TestGaussianRational:
    def test_field_ops(self):
        a = GaussianRational(Fraction(1, 3), Fraction(-2, 7))
        b = GaussianRational(Fraction(5, 2), 4)
        assert (a + b) - b == a
        assert (a * b) / b == a
        assert a * (1 / a) == GaussianRational(1)

    def test_float_rejected(self):
        with pytest.raises(TypeError):
            GaussianRational(1) + 0.5

    def test_pow(self):
        i = GaussianRational(0, 1)
        assert i**2 == GaussianRational(-1)
        assert i**0 == GaussianRational(1)

    def test_real_values_hash_as_their_numbers(self):
        assert len({GaussianRational(1), 1}) == 1
        assert len({GaussianRational(Fraction(1, 2)), Fraction(1, 2)}) == 1
        assert hash(GaussianRational(0, 1)) != hash(GaussianRational(0))


class TestConstruction:
    def test_backend_inference(self):
        assert CMatrix([[1, 2], [3, 4]]).backend == "exact"
        assert CMatrix([[1.0, 2], [3, 4]]).backend == "float"

    def test_mixed_entries_rejected(self):
        with pytest.raises(BackendMismatch):
            CMatrix([[GaussianRational(1), 0.5], [0, 1]])

    def test_nonsquare_rejected(self):
        with pytest.raises(DimensionMismatch):
            CMatrix([[1, 2, 3], [4, 5, 6]])

    def test_backend_mix_in_ops(self):
        a = CMatrix([[1, 0], [0, 1]])
        with pytest.raises(BackendMismatch):
            a @ a.to_float()


class TestMatMul:
    def test_identity(self):
        I = CMatrix.identity(3)
        assert I @ EXAMPLE1 == EXAMPLE1

    def test_nilpotent_shift(self):
        N3 = CMatrix([[0, 1, 0], [0, 0, 1], [0, 0, 0]])
        sq = N3 @ N3
        expected = CMatrix([[0, 0, 1], [0, 0, 0], [0, 0, 0]])
        assert sq == expected

    def test_example1_square(self):
        # oracle: hand multiplication
        assert EXAMPLE1 @ EXAMPLE1 == CMatrix(
            [[1, 0, 2], [3, 4, 1], [0, 0, 1]]
        )

    def test_associativity_exact(self):
        rng = random.Random(7)
        for _ in range(25):
            a, b, c = (rand_exact(3, rng) for _ in range(3))
            assert (a @ b) @ c == a @ (b @ c)


class TestMatPow:
    def test_zeroth_power(self):
        assert mat_pow(EXAMPLE1, 0) == CMatrix.identity(3)

    def test_example1_formula_p5(self):
        assert mat_pow(EXAMPLE1, 5) == CMatrix([[1, 0, 5], [31, 32, 26], [0, 0, 1]])

    def test_example2_formula_p4(self):
        A = CMatrix([[0, 1, 1], [-1, 2, 1], [1, -1, 1]])
        assert mat_pow(A, 4) == CMatrix([[3, -2, 4], [2, -1, 4], [4, -4, 1]])

    @given(st.integers(0, 10), st.integers(0, 10), st.integers(0, 2**32))
    @settings(max_examples=40, deadline=None)
    def test_power_additivity(self, p, q, seed):
        a = rand_exact(3, random.Random(seed), -3, 3)
        assert mat_pow(a, p + q) == mat_pow(a, p) @ mat_pow(a, q)


class TestRowSumNorm:
    def test_identity_normalized(self):
        assert CMatrix.identity(4, "float").row_sum_norm() == 1.0

    def test_simple(self):
        assert CMatrix([[0.0, 2.0], [0.0, 0.0]]).row_sum_norm() == 2.0

    def test_example1_value(self):
        # row sums are 2, 3, 1; direct-summation oracle gives 3
        assert EXAMPLE1.to_float().row_sum_norm() == 3.0

    def test_submultiplicative(self):
        rng = random.Random(11)
        for _ in range(200):
            a = CMatrix([[rng.uniform(-2, 2) for _ in range(3)] for _ in range(3)])
            b = CMatrix([[rng.uniform(-2, 2) for _ in range(3)] for _ in range(3)])
            assert (a @ b).row_sum_norm() <= a.row_sum_norm() * b.row_sum_norm() + 1e-12


class TestInverse:
    def test_identity(self):
        I = CMatrix.identity(3)
        assert I.inverse() == I

    def test_diagonal(self):
        d = CMatrix([[2, 0], [0, 4]])
        assert d.inverse() == CMatrix(
            [[Fraction(1, 2), 0], [0, Fraction(1, 4)]]
        )

    def test_example1_witness_P(self):
        P = CMatrix([[1, -1, 0], [-1, 0, 1], [0, 1, 0]])
        assert P @ P.inverse() == CMatrix.identity(3)

    def test_singular_exact(self):
        with pytest.raises(SingularMatrix):
            CMatrix([[1, 2], [2, 4]]).inverse()

    def test_singular_float_threshold(self):
        with pytest.raises(SingularMatrix):
            CMatrix([[1.0, 2.0], [2.0, 4.0]]).inverse()

    def test_involution_exact(self):
        rng = random.Random(3)
        done = 0
        while done < 20:
            a = rand_exact(3, rng)
            try:
                inv = a.inverse()
            except SingularMatrix:
                continue
            assert inv.inverse() == a
            assert a @ inv == CMatrix.identity(3)
            done += 1

    def test_float_residual(self):
        rng = random.Random(5)
        for _ in range(20):
            a = CMatrix([[rng.uniform(-3, 3) for _ in range(4)] for _ in range(4)])
            r = a @ a.inverse() - CMatrix.identity(4, "float")
            assert r.row_sum_norm() <= 1e-12 * max(1.0, a.row_sum_norm()) * 100


class TestFloatElimination:
    """Float inverse and det under the relative rule sigma_min <= 1e-12 sigma_max."""

    def test_nearly_singular_raises(self):
        with pytest.raises(SingularMatrix):
            CMatrix([[1, 1], [1, 1 + 1e-14]]).inverse()

    def test_rule_is_relative(self):
        tiny = CMatrix.identity(3, "float").scale(1e-14)
        assert (tiny @ tiny.inverse() - CMatrix.identity(3, "float")).row_sum_norm() <= 1e-15
        assert tiny.det() != 0

    def test_singular_det_is_zero(self):
        assert CMatrix([[1.0, 2.0], [2.0, 4.0]]).det() == 0

    @pytest.mark.parametrize("kind", ["real", "complex"])
    def test_agrees_with_numpy(self, kind):
        rng = np.random.default_rng(17)
        for n in range(1, 13):
            a = rng.standard_normal((n, n)) + 4 * np.sqrt(n) * np.eye(n)
            if kind == "complex":
                a = a + 1j * rng.standard_normal((n, n))
            assert np.linalg.cond(a) < 100
            m = CMatrix.from_numpy(a)
            inv, ref = m.inverse().to_numpy(), np.linalg.inv(a)
            assert np.abs(inv - ref).max() <= 1e-12 * np.abs(ref).max()
            assert abs(m.det() - np.linalg.det(a)) <= 1e-12 * abs(np.linalg.det(a))


class TestExactElimination:
    """Fraction-free elimination against a plain-Fraction Gauss-Jordan."""

    @given(elimination_matrices())
    @example(CMatrix([[0, GaussianRational(Fraction(1, 2), 1)],
                      [Fraction(2, 3), 1]]))
    @settings(max_examples=60, deadline=None)
    def test_inverse_and_det_match_reference(self, m):
        assert m.det() == reference_det(m)
        # the integer norm rounds as the entrywise GaussianRational moduli do
        norm = max(sum(abs(x) for x in r) for r in m.rows)
        assert m.row_sum_norm().hex() == norm.hex()
        expected = reference_inverse(m)
        if expected is None:
            with pytest.raises(SingularMatrix):
                m.inverse()
        else:
            assert m.inverse() == expected

    def test_elimination_builds_no_rows(self):
        a = CMatrix([[0, 2, 1], [Fraction(1, 3), 1, 0], [1, 0, GaussianRational(0, 1)]])
        a = a @ CMatrix.identity(3)
        with lazy_rows_reads() as reads:
            inv = a.inverse()
            a.det()
            a.trace()
            a.row_sum_norm()
        assert reads == []
        assert inv @ a == CMatrix.identity(3)


class TestEmptyShapes:
    @pytest.mark.parametrize("backend", ["exact", "float"])
    @pytest.mark.parametrize("n", [0, -1])
    def test_identity_and_zeros_need_n_positive(self, backend, n):
        with pytest.raises(DimensionMismatch):
            CMatrix.identity(n, backend)
        with pytest.raises(DimensionMismatch):
            CMatrix.zeros(n, backend)


class TestMatVec:
    def test_exact_matrix_takes_int_vector(self):
        assert mat_vec(EXAMPLE1, (1, 2, 3)) == (4, 5, 3)

    def test_mixed_backends_rejected(self):
        with pytest.raises(BackendMismatch):
            mat_vec(EXAMPLE1, (1.0, 2.0, 3.0))
        with pytest.raises(BackendMismatch):
            mat_vec(EXAMPLE1.to_float(), (GaussianRational(1), 2, 3))


fractions = st.fractions(min_value=-20, max_value=20, max_denominator=12)
gaussians = st.builds(GaussianRational, fractions, fractions)


@st.composite
def exact_operands(draw, count):
    """``count`` exact n x n matrices for one n in 1..4, a vector and a scalar."""
    n = draw(st.integers(1, 4))
    mats = [
        CMatrix([[draw(gaussians) for _ in range(n)] for _ in range(n)])
        for _ in range(count)
    ]
    return mats, tuple(draw(gaussians) for _ in range(n)), draw(gaussians)


def entries(m):
    return [list(r) for r in m.rows]


class TestExactStorage:
    """Integer-numerator arithmetic against entrywise GaussianRational formulas."""

    @given(exact_operands(2))
    @settings(max_examples=60, deadline=None)
    def test_arithmetic_matches_entrywise(self, operands):
        (a, b), v, s = operands
        n, ra, rb = a.n, a.rows, b.rows
        rng = range(n)
        assert entries(a @ b) == [
            [sum((ra[i][k] * rb[k][j] for k in rng), GaussianRational(0)) for j in rng]
            for i in rng
        ]
        assert entries(a + b) == [[ra[i][j] + rb[i][j] for j in rng] for i in rng]
        assert entries(a - b) == [[ra[i][j] - rb[i][j] for j in rng] for i in rng]
        assert entries(-a) == [[-ra[i][j] for j in rng] for i in rng]
        assert entries(a.scale(s)) == [[ra[i][j] * s for j in rng] for i in rng]
        assert mat_vec(a, v) == tuple(
            sum((ra[i][k] * v[k] for k in rng), GaussianRational(0)) for i in rng
        )
        assert a.trace() == sum((ra[i][i] for i in rng), GaussianRational(0))
        assert a.is_zero() == all(not x for r in ra for x in r)
        assert a.scale(0).is_zero()
        assert entries(a.to_float()) == [[complex(x) for x in r] for r in ra]

    @given(exact_operands(1))
    @settings(max_examples=60, deadline=None)
    def test_storage_is_canonical(self, operands):
        (a,), _v, s = operands
        halved = a.scale(2).scale(Fraction(1, 2))
        assert halved == a and hash(halved) == hash(a)
        assert a - a == CMatrix.zeros(a.n)
        assert CMatrix(a.rows) == a
        if s:
            assert a.scale(s).scale(1 / s) == a


class TestJson:
    def test_exact_roundtrip(self):
        m = CMatrix([[Fraction(1, 2), -3], [GaussianRational(0, Fraction(2, 7)), 1]])
        again = matrix_from_json(matrix_to_json(m))
        assert again == m
        assert again.backend == "exact"

    def test_float_roundtrip(self):
        m = CMatrix([[0.5, -3.0], [2.25, 1e-3]])
        assert matrix_from_json(matrix_to_json(m)) == m

    def test_decimal_literals_are_float(self):
        m = matrix_from_json({"n": 1, "entries": [[[0.5, 0]]]})
        assert m.backend == "float"

    def test_rational_strings_are_exact(self):
        m = matrix_from_json({"n": 1, "entries": [[["1/2", "0"]]]})
        assert m.backend == "exact"
        assert m.rows[0][0] == GaussianRational(Fraction(1, 2))

    def test_mixed_rejected(self):
        with pytest.raises(BackendMismatch):
            matrix_from_json({"n": 2, "entries": [[["1/2", "0"], [1.0, 0]],
                                                  [[0, 0], [1, 0]]]})
