import random
import sys
import threading
from fractions import Fraction

import pytest
from helpers import reference_cauchy_product, reference_phi

from momexp import (
    BackendMismatch,
    CMatrix,
    DimensionMismatch,
    GaussianRational,
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
ML2 = MomentSequence.mittag_leffler(2)
# non-integer generalized binomials m(p) / (m(n) m(p-n))
CUSTOM = MomentSequence.custom(
    ["1", "3/2", "7/3", "5", "41/4", "30", "100", "1001/3", "2000", "9999/7"],
    rapid_growth_declared=False)
NON_INTEGER = {"qfac:3/2": MomentSequence.q_factorial("3/2"),
               "geom:5/3": MomentSequence.geometric("5/3"), "custom": CUSTOM}


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


class TestConstruction:
    def test_no_coefficients(self):
        with pytest.raises(ValueError, match="at least one coefficient"):
            MomentSeries(FACTORIAL, [])

    @pytest.mark.parametrize("coeffs", [
        [CMatrix.identity(2), Fraction(1)],
        [CMatrix.identity(2), CMatrix.identity(3)],
        [(1, 2), (1, 2, 3)],
        [(1, 2), 1],
    ], ids=["matrix-scalar", "matrix-sizes", "vector-lengths", "vector-scalar"])
    def test_mixed_shapes(self, coeffs):
        with pytest.raises(DimensionMismatch, match="one shape"):
            MomentSeries(FACTORIAL, coeffs)


@pytest.mark.parametrize("build", [
    lambda N: exp_series(CMatrix.identity(2), FACTORIAL, N),
    lambda N: inverse_series(CMatrix.identity(2), FACTORIAL, N),
    lambda N: phi_coefficients(FACTORIAL, N),
    lambda N: unit_series(FACTORIAL, N, CMatrix.identity(2)),
    lambda N: unit_series(FACTORIAL, N, Fraction(1)),
], ids=["exp_series", "inverse_series", "phi_coefficients", "unit_matrix", "unit_scalar"])
def test_negative_order_rejected(build):
    with pytest.raises(ValueError, match="nonnegative"):
        build(-3)


class TestCauchyProduct:
    def test_unit_is_identity(self):
        A = CMatrix([[1, 1], [0, 2]])
        s = exp_series(A, QFAC2, 6)
        u = unit_series(QFAC2, 6, CMatrix.identity(2))
        assert cauchy_product(s, u).coeffs == s.coeffs
        assert cauchy_product(u, s).coeffs == s.coeffs

    @pytest.mark.parametrize("seq,like,coeffs", [
        (FACTORIAL, Fraction(5, 3), [Fraction(p + 1, 3) for p in range(5)]),
        (ML2, 2.5, [0.5 * p - 1j for p in range(5)]),
    ], ids=["exact", "float"])
    def test_scalar_unit_is_identity(self, seq, like, coeffs):
        u = unit_series(seq, 4, like)
        assert u.coeffs == [1, 0, 0, 0, 0] and u.backend == MomentSeries(seq, coeffs).backend
        s = MomentSeries(seq, coeffs)
        assert cauchy_product(s, u).coeffs == coeffs
        assert cauchy_product(u, s).coeffs == coeffs

    def test_vector_has_no_unit(self):
        with pytest.raises(DimensionMismatch, match="no multiplicative unit"):
            unit_series(FACTORIAL, 3, (1, 2))

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


def rand_gaussian(rng, complex_entries):
    im = Fraction(rng.randint(-3, 3), rng.choice((1, 2))) if complex_entries else 0
    return GaussianRational(Fraction(rng.randint(-5, 5), rng.choice((1, 2, 3))), im)


def rand_coeffs(rng, n, N, complex_entries):
    """N + 1 exact coefficients: n x n matrices, or scalars for n = 0."""
    if n == 0:
        return [rand_gaussian(rng, complex_entries) for _ in range(N + 1)]
    return [CMatrix([[rand_gaussian(rng, complex_entries) for _ in range(n)]
                     for _ in range(n)]) for _ in range(N + 1)]


class TestExactParity:
    """Exact products and phi against plain-Fraction references."""

    @pytest.mark.parametrize("spec", ["factorial", "qfac:2", *NON_INTEGER])
    @pytest.mark.parametrize("n", [0, 1, 3], ids=["scalar", "1x1", "3x3"])
    def test_cauchy_product(self, spec, n):
        seq = NON_INTEGER.get(spec) or parse_specifier(spec)
        rng = random.Random(f"{spec}/{n}")
        for complex_entries in (False, True):
            N1, N2 = rng.sample(range(9), 2)  # unequal orders
            c1 = rand_coeffs(rng, n, N1, complex_entries)
            c2 = rand_coeffs(rng, n, N2, complex_entries)
            got = cauchy_product(MomentSeries(seq, c1), MomentSeries(seq, c2))
            assert got.order == min(N1, N2)
            assert got.coeffs == reference_cauchy_product(seq, c1, c2)

    def test_inverse_identity_against_reference(self):
        rng = random.Random(5)
        for seq in NON_INTEGER.values():
            A = CMatrix([[rand_gaussian(rng, True) for _ in range(2)] for _ in range(2)])
            inv, ex = inverse_series(A, seq, 8).coeffs, exp_series(A, seq, 8).coeffs
            got = cauchy_product(MomentSeries(seq, inv), MomentSeries(seq, ex))
            assert got.coeffs == reference_cauchy_product(seq, inv, ex)
            assert got.coeffs == unit_series(seq, 8, A).coeffs

    @pytest.mark.parametrize("spec", ["factorial", "qfac:2", "geom:2", *NON_INTEGER])
    def test_phi(self, spec):
        seq = NON_INTEGER.get(spec) or parse_specifier(spec)
        N = 9 if spec == "custom" else 25
        got = phi_coefficients(seq, N)
        assert got == reference_phi(seq, N)
        assert all(type(x) is Fraction for x in got)


class TestFloatParity:
    def test_ml2_product_bitwise(self):
        # pinned against the textbook loop: (a @ b) scaled by the generalized
        # binomial, summed in n order
        A = CMatrix([[0.5, 1.25j], [-0.75, 0.3 + 0.1j]])
        s1, s2 = inverse_series(A, ML2, 12), exp_series(A, ML2, 9)
        m = [ML2.value(p) for p in range(13)]
        want = []
        for p in range(10):
            acc = None
            for n in range(p + 1):
                term = (s1.coeffs[n] @ s2.coeffs[p - n]).scale(m[p] / (m[n] * m[p - n]))
                acc = term if acc is None else acc + term
            want.append(acc)

        def bits(c):
            return [(x.real.hex(), x.imag.hex()) for r in c.rows for x in r]

        got = cauchy_product(s1, s2).coeffs
        assert [bits(c) for c in got] == [bits(c) for c in want]

    def test_ml2_phi_bitwise(self):
        m = [ML2.value(p) for p in range(21)]
        want = [m[0]]
        for p in range(1, 21):
            want.append(-sum(m[p] / (m[j] * m[p - j]) * want[j] for j in range(p)))
        got = phi_coefficients(ML2, 20)
        assert [x.hex() for x in got] == [x.hex() for x in want]


class TestFloatOnlySequence:
    def test_exact_inverse_names_the_sequence(self):
        with pytest.raises(BackendMismatch, match="ml:2"):
            inverse_series(CMatrix([[1, 2], [0, 1]]), ML2, 4)

    def test_exact_product_names_the_sequence(self):
        s = MomentSeries(ML2, [CMatrix.identity(2)] * 3)
        with pytest.raises(BackendMismatch, match="ml:2"):
            cauchy_product(s, s)

    def test_float_coefficients_still_work(self):
        A = CMatrix([[0.5, 0.0], [0.25, -0.5]])
        prod = cauchy_product(inverse_series(A, ML2, 6), exp_series(A, ML2, 6))
        assert all((c - u).row_sum_norm() < 1e-12 for c, u in
                   zip(prod.coeffs, unit_series(ML2, 6, A).coeffs))


class TestBackendRule:
    def test_mixed_matrix_backends_rejected_at_construction(self):
        with pytest.raises(BackendMismatch):
            MomentSeries(FACTORIAL, [CMatrix.identity(2), CMatrix.identity(2, "float")])

    def test_mixed_scalar_backends_rejected_at_construction(self):
        with pytest.raises(BackendMismatch):
            MomentSeries(FACTORIAL, [GaussianRational(1), 0.5])

    def test_fraction_scalars_are_exact(self):
        s = MomentSeries(ML2, [Fraction(1), Fraction(1, 3), Fraction(2)])
        assert s.backend == "exact"
        with pytest.raises(BackendMismatch, match="ml:2"):
            cauchy_product(s, s)

    def test_int_and_float_scalars_multiply_in_floats(self):
        s = MomentSeries(FACTORIAL, [1, 0.5])
        assert s.backend == "float"
        assert cauchy_product(s, s).coeffs == [1.0, 1.0]


class TestRatioRows:
    def test_threads_agree_with_one_thread(self):
        want = phi_coefficients(MomentSequence.q_factorial("3/2"), 30)
        seq = MomentSequence.q_factorial("3/2")  # fresh: empty memo
        barrier = threading.Barrier(6)
        results = []

        def worker():
            barrier.wait()
            results.append(phi_coefficients(seq, 30))

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            threads = [threading.Thread(target=worker) for _ in range(6)]
            for t in threads:
                t.start()
            for t in threads:
                t.join(timeout=60)
        finally:
            sys.setswitchinterval(interval)
        assert not any(t.is_alive() for t in threads)
        assert results == [want] * 6

    def test_equal_sequences_keep_separate_memos(self):
        a, b = MomentSequence.q_factorial(3), MomentSequence.q_factorial(3)
        assert a == b and hash(a) == hash(b)
        row = a.ratio_row(6)
        assert a.ratio_row(6) is row
        assert b.ratio_row(6) is not row
        assert b.ratio_row(6) == row
