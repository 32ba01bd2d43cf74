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
    assemble_jordan,
    mat_pow,
    mat_vec,
    matrix_from_json,
    matrix_to_json,
)
from momexp.exact import _fraction, _gauss, _imatmul, _is_zero, _iscale, _reduced
from momexp.matrices import krylov, krylov_mismatches, scalar_from_json

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

    def test_reflected_subtraction(self):
        g = GaussianRational(Fraction(1, 2), 1)
        assert 1 - g == GaussianRational(Fraction(1, 2), -1)
        assert Fraction(1, 3) - g == GaussianRational(Fraction(-1, 6), -1)
        with pytest.raises(TypeError):
            0.5 - g

    @pytest.mark.parametrize("value,text", [
        (GaussianRational(5), "5"),
        (GaussianRational(0, Fraction(2, 3)), "2/3i"),
        (GaussianRational(0, -1), "-1i"),
        (GaussianRational(Fraction(1, 2), 3), "1/2+3i"),
        (GaussianRational(1, Fraction(-2, 5)), "1-2/5i"),
    ])
    def test_str(self, value, text):
        assert str(value) == text

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

    @pytest.mark.parametrize("backend", ["exact", "float"])
    def test_matmul_operand_checks(self, backend):
        a = CMatrix.identity(2, backend)
        with pytest.raises(TypeError, match="expected CMatrix"):
            a @ [[1, 0], [0, 1]]
        with pytest.raises(DimensionMismatch):
            a @ CMatrix.identity(3, backend)

    def test_numpy_conversion_errors(self):
        for arr in (np.zeros((2, 3)), np.zeros(4), np.zeros((0, 0))):
            with pytest.raises(DimensionMismatch):
                CMatrix.from_numpy(arr)
        with pytest.raises(BackendMismatch, match="float backend"):
            CMatrix.identity(2).to_numpy()

    def test_float_negation_keeps_signed_zeros(self):
        m = CMatrix([[0.0, -0.0], [1.0, complex(-2.0, 0.0)]])
        neg = [[(x.real, x.imag) for x in r] for r in (-m).rows]
        assert [[tuple(map(str, x)) for x in r] for r in neg] == [
            [("-0.0", "-0.0"), ("0.0", "-0.0")], [("-1.0", "-0.0"), ("2.0", "-0.0")]]
        # x * (-1+0j) turns the imaginary -0.0 of -x into +0.0
        scaled = m.scale(-1).rows
        assert str(scaled[0][0].imag) == "0.0" and repr((-m).rows) != repr(scaled)

    def test_real_factor_scales_as_its_complex(self):
        # complex entries meet a real factor as complex(factor), so signed
        # zeros and infinities come out as before; only the float entries of
        # _real_parts are scaled in float arithmetic
        inf = float("inf")
        m = CMatrix([[complex(-0.0, 0.0), complex(1.5, -0.0)],
                     [complex(inf, 0.0), complex(-2.0, 3.0)]])
        hexes = lambda a: [[(x.real.hex(), x.imag.hex()) for x in r] for r in a.rows]
        for f in (-1.0, 0.0, -0.0, 2.5, 3, inf):
            assert hexes(m.scale(f)) == hexes(m.scale(complex(f)))
            assert all(type(x) is complex for r in m.scale(f).rows for x in r)
        r = CMatrix([[0.0, -1.5], [2.0, -0.0]])._real_parts()
        for f in (-1.0, 2.5, 3):
            got = r.scale(f)
            assert all(type(x) is float for row in got.rows for x in row)
            assert [[x.hex() for x in row] for row in got.rows] == [
                [(x * f).hex() for x in row] for row in r.rows]
        assert all(type(x) is complex for row in r._complexified().rows for x in row)

    def test_float_is_zero(self):
        assert CMatrix.zeros(2, "float").is_zero()
        assert CMatrix([[0.0, -0.0], [complex(0.0, -0.0), 0.0]]).is_zero()
        assert not CMatrix([[0.0, 0.0], [1e-300j, 0.0]]).is_zero()
        assert not CMatrix.identity(2, "float").is_zero()


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

    def test_weighted_products_is_the_reduced_sum(self):
        rng = random.Random(8)
        for _ in range(10):
            a, b, c, d = (rand_exact(3, rng).scale(GaussianRational(
                Fraction(1, rng.randint(1, 4)), rng.randint(-2, 2))) for _ in range(4))
            w = (Fraction(rng.randint(1, 9), rng.randint(1, 6)), Fraction(-2, 3))
            got = CMatrix.weighted_products(w, [a, c], [b, d])
            assert got == (a @ b).scale(w[0]) + (c @ d).scale(w[1])

    @pytest.mark.parametrize(
        "count, left_complex, right_complex",
        [(4, True, False), (4, False, True), (1, True, True), (41, True, True),
         (41, False, False)],
        ids=["left-complex", "right-complex", "one-term", "41-terms", "41-terms-real"],
    )
    def test_weighted_products_matches_per_term_sum(self, count, left_complex, right_complex):
        rng = random.Random(count * 4 + 2 * left_complex + right_complex)

        def factor(is_complex):
            m = rand_exact(3, rng).scale(Fraction(1, rng.randint(1, 6)))
            if is_complex:
                i = GaussianRational(0, Fraction(1, rng.randint(1, 5)))
                m = m + rand_exact(3, rng, 1, 5).scale(i)
            return m

        for _ in range(3):
            ws = [Fraction(rng.randint(-9, 9), rng.randint(1, 12)) for _ in range(count)]
            lefts = [factor(left_complex) for _ in range(count)]
            rights = [factor(right_complex) for _ in range(count)]
            want = (lefts[0] @ rights[0]).scale(ws[0])
            for w, a, b in zip(ws[1:], lefts[1:], rights[1:]):
                want = want + (a @ b).scale(w)
            got = CMatrix.weighted_products(ws, lefts, rights)
            assert got._key() == want._key()

    def test_gauss_matmul_real_rectangular(self):
        # both factors by rows: entry (i, j) is row i of a dot row j of b
        rng = random.Random(11)
        ar = tuple(tuple(rng.randint(-5, 5) for _ in range(6)) for _ in range(2))
        br = tuple(tuple(rng.randint(-5, 5) for _ in range(6)) for _ in range(3))
        zero_a, zero_b = ((0,) * 6,) * 2, ((0,) * 6,) * 3
        re, im = _gauss(_imatmul, ar, zero_a, br, zero_b)
        assert re == tuple(
            tuple(sum(ar[i][k] * br[j][k] for k in range(6)) for j in range(3))
            for i in range(2))
        assert im == ((0, 0, 0), (0, 0, 0))

    @staticmethod
    def _counting(prod):
        products = []
        return products, lambda a, b: products.append(1) or prod(a, b)

    def test_gauss_matmul_one_complex_side(self):
        rng = random.Random(12)

        def block(rows, cols):
            return tuple(tuple(rng.randint(-5, 5) for _ in range(cols)) for _ in range(rows))

        ar, ai, br, bi = block(2, 6), block(2, 6), block(3, 6), block(3, 6)
        zero_a, zero_b = ((0,) * 6,) * 2, ((0,) * 6,) * 3
        products, counting = self._counting(_imatmul)
        # a real side (im None) gives what four products give on its zero block
        for left, right, count in (((ai, ai), (None, zero_b), 2),
                                   ((None, zero_a), (bi, bi), 2),
                                   ((None, zero_a), (None, zero_b), 1),
                                   ((ai, ai), (bi, bi), 4)):
            products.clear()
            got = _gauss(counting, ar, left[0], br, right[0])
            assert len(products) == count
            re, im = _gauss(_imatmul, ar, left[1], br, right[1])
            assert got == (re, None if _is_zero(im) else im)
        re, im = _gauss(_imatmul, ar, ai, br, None)
        assert re == _imatmul(ar, br) and im == _imatmul(ai, br)

    def test_gauss_scales_by_a_gaussian_integer(self):
        # under _iscale the right factor is one integer scalar sr + i si
        rng = random.Random(13)
        ar = tuple(tuple(rng.randint(-5, 5) for _ in range(3)) for _ in range(3))
        ai = tuple(tuple(rng.randint(-5, 5) for _ in range(3)) for _ in range(3))
        zero = ((0,) * 3,) * 3
        products, counting = self._counting(_iscale)
        for left, sr, si, count in ((None, 3, None, 1), (None, 0, -2, 2), (ai, 5, None, 2),
                                    (ai, -4, 7, 4), (ai, 1, None, 2)):
            products.clear()
            re, im = _gauss(counting, ar, left, sr, si)
            assert len(products) == count
            want = [[complex(x, y) * complex(sr, si or 0) for x, y in zip(*rows)]
                    for rows in zip(ar, left or zero)]
            assert [[complex(x, y) for x, y in zip(*rows)] for rows in zip(re, im or zero)] == want
            assert (im is None) == (left is None and si is None)

    def test_weighted_products_rejects_bad_input(self):
        I = CMatrix.identity(2)
        with pytest.raises(ValueError):
            CMatrix.weighted_products((1,), [I, I], [I, I])
        with pytest.raises(DimensionMismatch):
            CMatrix.weighted_products((1,), [I], [CMatrix.identity(3)])
        with pytest.raises(BackendMismatch):
            CMatrix.weighted_products((1,), [I], [CMatrix.identity(2, "float")])


class TestMatPow:
    def test_zeroth_power(self):
        assert mat_pow(EXAMPLE1, 0) == CMatrix.identity(3)

    @pytest.mark.parametrize("p", [-1, 1.5])
    def test_exponent_must_be_a_nonnegative_integer(self, p):
        with pytest.raises(ValueError, match="nonnegative integer"):
            EXAMPLE1.pow(p)

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

    @pytest.mark.parametrize("p", [*range(10), 25, 45])
    def test_power_makes_only_the_products_it_needs(self, monkeypatch, p):
        # square-and-multiply from the matrix itself: no product by I and
        # no squaring past the top bit of p
        want = CMatrix.identity(3)
        for _ in range(p):
            want = want @ EXAMPLE1
        calls = []
        matmul = CMatrix.__matmul__
        monkeypatch.setattr(CMatrix, "__matmul__", lambda a, b: calls.append(1) or matmul(a, b))
        for m in (EXAMPLE1, EXAMPLE1.to_float()):
            calls.clear()
            got = m.pow(p)
            assert len(calls) == (bin(p).count("1") + p.bit_length() - 2 if p else 0)
        monkeypatch.undo()
        assert EXAMPLE1.pow(p) == want and got == want.to_float()


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

    def test_exact_matches_float(self):
        # one modulus for both backends: an exact norm is its float copy's
        a = CMatrix([[GaussianRational(Fraction(-3, 5), 1)]])
        norm = a.to_float().row_sum_norm()
        assert norm.hex() == "0x1.2a8b73e294fb4p+0"
        assert a.row_sum_norm().hex() == norm.hex()
        rng = random.Random(19)

        def part():
            return Fraction(rng.randint(-9, 9), rng.randint(1, 9))

        for _ in range(300):
            n = rng.randint(1, 4)
            a = CMatrix([[GaussianRational(part(), part()) for _ in range(n)] for _ in range(n)])
            assert a.row_sum_norm().hex() == a.to_float().row_sum_norm().hex()

    @pytest.mark.parametrize("rows", [
        [[float("nan"), 1.0], [2.0, 3.0]],
        [[1.0, 2.0], [float("nan"), 0.0]],
        [[complex(float("inf"), float("nan")), 1.0], [-0.0, 2.0]],
        [[float("-inf"), 0.0], [float("inf"), -0.0]],
        [[-0.0, complex(-0.0, -0.0)], [complex(0.0, -0.0), -0.0]],
        [[-0.0]],
    ])
    def test_special_entries(self, rows):
        # the sum of moduli of each row, in order, as a generator would give it
        for m in (CMatrix(rows), CMatrix(rows)._real_parts()):
            want = max(sum(abs(x) for x in r) for r in m.rows)
            got = m.row_sum_norm()
            assert type(got) is float and got.hex() == want.hex()


class TestScaledProduct:
    """``a._scaled_product(b, s)`` is ``(a @ b).scale(s)`` bit for bit."""

    SPECIAL = (0.0, -0.0, float("inf"), float("-inf"), float("nan"),
               5e-324, -2.2e-308, 1.5, -3.25, 1e300, 0.7)
    FACTORS = (0.37, -2.5, 0.0, -0.0, 3, complex(0.5, -1.25), 1j, complex(-0.0, 0.0))

    @staticmethod
    def hexes(m):
        return [[(type(x).__name__, x.real.hex(), x.imag.hex()) for x in r] for r in m.rows]

    @classmethod
    def operand(cls, rng, n, special):
        def part():
            return rng.choice(cls.SPECIAL) if rng.random() < special else rng.uniform(-2, 2)

        return CMatrix([[complex(part(), part()) for _ in range(n)] for _ in range(n)])

    @pytest.mark.parametrize("n", range(1, 7))
    @pytest.mark.parametrize("kinds", ["complex", "real", "real-complex", "complex-real"])
    def test_float_is_product_then_scale(self, n, kinds):
        rng = random.Random(n * 10 + len(kinds))
        for trial in range(12):
            special = (0.0, 0.2, 0.6)[trial % 3]
            a, b = self.operand(rng, n, special), self.operand(rng, n, special)
            left, right = kinds.split("-") if "-" in kinds else (kinds, kinds)
            a = a._real_parts() if left == "real" else a
            b = b._real_parts() if right == "real" else b
            for s in self.FACTORS:
                got = a._scaled_product(b, s)
                assert self.hexes(got) == self.hexes((a @ b).scale(s))

    def test_exact_is_product_then_scale(self):
        rng = random.Random(21)
        for n in range(1, 5):
            a, b = rand_exact(n, rng), rand_exact(n, rng).scale(GaussianRational(1, -2))
            for s in (Fraction(-3, 7), 0, 2, GaussianRational(Fraction(1, 2), -1)):
                assert a._scaled_product(b, s) == (a @ b).scale(s)

    @staticmethod
    def raised(f):
        with pytest.raises(Exception) as info:
            f()
        return type(info.value), str(info.value)

    def test_mismatch_raises_as_matmul(self):
        f2, f3, e2 = CMatrix.identity(2, "float"), CMatrix.identity(3, "float"), CMatrix.identity(2)
        for a, b in ((f2, f3), (f3, f2), (e2, CMatrix.identity(3)), (f2, e2), (e2, f2),
                     (f2, f2.rows), (e2, 2)):
            want = self.raised(lambda: a @ b)
            assert want[0] in (DimensionMismatch, BackendMismatch, TypeError)
            assert self.raised(lambda: a._scaled_product(b, 2)) == want


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

    @pytest.mark.parametrize("backend", ["bogus", "Exact", "exakt", ""])
    def test_unknown_backend_rejected(self, backend):
        for make in (lambda: CMatrix([[1, 2], [3, 4]], backend),
                     lambda: CMatrix.identity(2, backend),
                     lambda: CMatrix.zeros(2, backend),
                     lambda: assemble_jordan([(2, 2)], backend)):
            with pytest.raises(ValueError, match="unknown backend"):
                make()


class TestMatVec:
    def test_exact_matrix_takes_int_vector(self):
        assert mat_vec(EXAMPLE1, (1, 2, 3)) == (4, 5, 3)

    def test_mixed_backends_rejected(self):
        with pytest.raises(BackendMismatch):
            mat_vec(EXAMPLE1, (1.0, 2.0, 3.0))
        with pytest.raises(BackendMismatch):
            mat_vec(EXAMPLE1.to_float(), (GaussianRational(1), 2, 3))

    def test_block_is_one_mat_vec_per_column(self):
        # krylov_mismatches multiplies every vs[p] in one block product
        rng = random.Random(23)

        def part():
            # odd over even: never an integer, so every denominator is > 1
            return Fraction(2 * rng.randint(-5, 4) + 1, rng.choice((2, 4, 6)))

        def scalar(cplx):
            return GaussianRational(part(), part() if cplx else 0)

        for n in (1, 2, 4):
            for cplx in (False, True):
                a = CMatrix([[scalar(cplx) for _ in range(n)] for _ in range(n)])
                assert a._den != 1
                # vectors over different denominators, real and complex,
                # plus an int and a zero vector
                vs = [tuple(scalar(k % 2) for _ in range(n)) for k in range(5)]
                vs += [tuple(range(1, n + 1)), (0,) * n]
                products = [
                    tuple(sum((a.rows[i][k] * v[k] for k in range(n)), GaussianRational(0))
                          for i in range(n))
                    for v in vs
                ]
                assert [mat_vec(a, v) for v in vs] == products
                assert krylov_mismatches(a, vs) == [
                    (w, av) for w, av in zip(vs[1:], products) if w != av]
                assert krylov_mismatches(a, [vs[0], products[0]]) == []
                assert krylov_mismatches(a, vs[:1]) == krylov_mismatches(a, []) == []

    @pytest.mark.parametrize("n", [3, 10, 30])
    def test_float_krylov_is_the_numpy_product(self, n):
        # every float step is ``A.to_numpy() @ <previous step>``, bit for bit
        rng = np.random.default_rng(n)
        for _ in range(5):
            z = rng.standard_normal((2, n + 1, n))
            a = CMatrix((z[0, :n] + 1j * z[1, :n]).tolist())
            v = tuple((z[0, n] + 1j * z[1, n]).tolist())
            m, vs = a.to_numpy(), krylov(a, v, 8)
            assert vs[0] is v and len(vs) == 9
            for prev, step in zip(vs, vs[1:]):
                assert type(step) is tuple and all(type(x) is complex for x in step)
                assert np.array(step).tobytes() == (m @ np.array(prev)).tobytes()

    def test_fraction_constructor_matches_fraction(self):
        # the unchecked constructor writes Fraction's own slots: the result must
        # be a Fraction in lowest terms that compares and hashes as one
        for n in (*range(-30, 31), 10**40 + 7, -(3**90)):
            for d in (1, 2, 3, 4, 6, 12, 35, 2**70):
                f, want = _fraction(n, d), Fraction(n, d)
                assert type(f) is Fraction
                assert (f.numerator, f.denominator) == (want.numerator, want.denominator)
                assert f == want and hash(f) == hash(want) and str(f) == str(want)

    def test_krylov_mismatches(self):
        i = GaussianRational(0, 1)
        cases = [(EXAMPLE1, (1, 2, 3)),
                 (CMatrix([[Fraction(1, 2), i], [Fraction(2, 3), 0]]), (Fraction(1, 3), i)),
                 # A = iI turns a real vector imaginary and back to real
                 (CMatrix.identity(2).scale(i), (1, Fraction(1, 2))),
                 (EXAMPLE1.to_float(), (1.0, 0.5j, -2.0))]
        for a, v in cases:
            vs = krylov(a, v, 6)
            assert krylov_mismatches(a, vs) == []
            bumped = vs[:3] + [tuple(x * 2 for x in vs[3])] + vs[4:]
            assert krylov_mismatches(a, bumped) == [
                (bumped[3], mat_vec(a, vs[2])), (vs[4], mat_vec(a, bumped[3]))]
        with pytest.raises(DimensionMismatch):
            krylov_mismatches(EXAMPLE1, [(1, 2, 3), (1, 2)])

        # pairs that one canonical (re, im, den) comparison must decide
        third = Fraction(1, 3)
        d = CMatrix.identity(2).scale(Fraction(2, 3))
        iI = CMatrix.identity(2).scale(i)
        same = [
            # unreduced A c_p = (2, -4)/6 shares the factor 2 with its denominator
            (d, (Fraction(1, 2), -1), (third, -2 * third)),
            # A c_p has an all-zero imaginary block, c_{p+1} none
            (iI, (i * third, -2 * i * third), (-third, 2 * third)),
        ]
        differ = [
            # equal numerators over different denominators
            (d, (Fraction(1, 2), -1), (Fraction(1, 4), Fraction(-1, 2))),
            # equal real parts, imaginary parts differ
            (iI, (-i * third, (1 + 2 * i) * third), ((1 + i) * third, -2 * third)),
            # equal real parts, one side real
            (iI, (-i * third, (1 + 2 * i) * third), (third, -2 * third)),
        ]
        for a, u, w in same:
            assert mat_vec(a, u) == w
            assert krylov_mismatches(a, [u, w]) == []
        for a, u, w in differ:
            assert krylov_mismatches(a, [u, w]) == [(w, mat_vec(a, u))]

    def test_block_errors(self):
        with pytest.raises(DimensionMismatch):
            mat_vec(EXAMPLE1, (1, 2))
        with pytest.raises(DimensionMismatch):
            mat_vec(EXAMPLE1.to_float(), (1.0, 2.0))
        with pytest.raises(DimensionMismatch):
            krylov_mismatches(EXAMPLE1.to_float(), [(1.0, 2.0), (1.0, 2.0, 3.0)])
        with pytest.raises(BackendMismatch):
            krylov_mismatches(EXAMPLE1, [(1, 2, 3), (1.0, 2, 3)])
        with pytest.raises(BackendMismatch):
            krylov_mismatches(EXAMPLE1.to_float(), [(GaussianRational(1), 2, 3), (1.0, 2.0, 3.0)])
        # the last vector is read as every other: by length and by backend
        with pytest.raises(DimensionMismatch):
            krylov_mismatches(EXAMPLE1.to_float(), [(1.0, 2.0, 3.0), (1.0, 2.0)])
        with pytest.raises(BackendMismatch):
            krylov_mismatches(EXAMPLE1.to_float(), [(1.0, 2.0, 3.0), (GaussianRational(4), 5, 3)])
        f, vs = EXAMPLE1.to_float(), [(1.0, 2.0, 3.0), (0.5j, -1.0, 2.0)]
        products = [tuple(sum(r[k] * v[k] for k in range(3)) for r in f.rows) for v in vs]
        assert [mat_vec(f, v) for v in vs] == products
        assert krylov_mismatches(f, vs) == [(vs[1], products[0])]


fractions = st.fractions(min_value=-20, max_value=20, max_denominator=12)
gaussians = st.builds(GaussianRational, fractions, fractions)
reals = st.builds(GaussianRational, fractions)


@st.composite
def exact_operands(draw, count):
    """``count`` exact n x n matrices for one n in 1..4, a vector and a
    scalar, each of them real about half the time."""
    n = draw(st.integers(1, 4))

    def values(size):
        kind = reals if draw(st.booleans()) else gaussians
        return [draw(kind) for _ in range(size)]

    mats = [CMatrix([values(n) for _ in range(n)]) for _ in range(count)]
    for m in mats:
        # a real matrix stores no imaginary numerators
        assert (m._im is None) == all(not x.im for r in m.rows for x in r)
    return mats, tuple(values(n)), values(1)[0]


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

    @given(exact_operands(2))
    @settings(max_examples=60, deadline=None)
    def test_storage_is_canonical(self, operands):
        (a, b), _v, s = operands
        halved = a.scale(2).scale(Fraction(1, 2))
        assert halved == a and hash(halved) == hash(a)
        assert a - a == CMatrix.zeros(a.n)
        assert CMatrix(a.rows) == a
        if s:
            assert a.scale(s).scale(1 / s) == a
        # a real matrix whose imaginary part cancels is stored as real
        real = CMatrix([[x.re for x in r] for r in a.rows])
        i = GaussianRational(0, 1)
        for same in (real.scale(i).scale(-i), (real + b.scale(i)) - b.scale(i)):
            assert same == real and hash(same) == hash(real)
            assert same._key() == real._key()

    def test_reduced_canonical_form(self):
        # an n x 1 column: the gcd 6 is divided out, the zero im dropped
        assert _reduced(((12,), (-18,), (0,)), ((0,), (0,), (0,)), 30) == (
            ((2,), (-3,), (0,)), None, 5)
        # a 2 x 3 block: gcd(den, re, im) = 4, im kept
        re, im = ((4, 8, 0), (-12, 4, 16)), ((0, 0, 8), (4, 0, 0))
        assert _reduced(re, im, 20) == (
            ((1, 2, 0), (-3, 1, 4)), ((0, 0, 2), (1, 0, 0)), 5)
        assert _reduced(re, ((0, 0, 0),) * 2, 8) == (((1, 2, 0), (-3, 1, 4)), None, 2)
        # coprime numerators and den stay as they are
        assert _reduced(re, im, 3) == (re, im, 3)
        # den == 1 comes back unchanged, the very same blocks
        out = _reduced(re, im, 1)
        assert out == (re, im, 1) and out[0] is re and out[1] is im
        assert _reduced(re, None, 1)[1] is None


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

    @pytest.mark.parametrize("pair", [[True, False], [1, False], [True, "0"]])
    def test_booleans_rejected(self, pair):
        # bool is an int subclass, but a JSON true is not a number
        with pytest.raises(ValueError, match="boolean"):
            scalar_from_json(pair)

    def test_mixed_rejected(self):
        with pytest.raises(BackendMismatch):
            matrix_from_json({"n": 2, "entries": [[["1/2", "0"], [1.0, 0]],
                                                  [[0, 0], [1, 0]]]})
