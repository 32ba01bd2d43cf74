"""Tests of the evaluation module.  Oracle rule: a float value is checked
against an oracle in ``helpers`` that shares no code with the evaluator
(closed forms, mpmath scalars, partial sums with a tail provably below
1e-25), and passes within tail_estimate + C u sum_p ||T_p|| of it, C = 16.
Bits are compared only where the library promises them (a real Az gives its
own complex path), and no test reads a routing constant of the evaluator."""

import cmath
import math
import random
from fractions import Fraction
from functools import lru_cache

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
    solve,
)
from momexp.exact import _rho_below_one
from momexp.jordan import JordanDecomposition, assemble_jordan

from helpers import (
    C,
    U,
    assert_matches_the_series,
    assert_within_rounding,
    complex_path,
    counting_products,
    euler_product,
    exact_symmetric,
    scalar_series,
    scaled,
    series_oracle,
    shift_oracle,
    term_sizes,
)

FACTORIAL = MomentSequence.factorial()
ML2 = MomentSequence.mittag_leffler(2)
ML3 = MomentSequence.mittag_leffler(3)
ML4 = MomentSequence.mittag_leffler(4)
ML15 = MomentSequence.mittag_leffler(1.5)
ML1 = MomentSequence.mittag_leffler(1)
QFAC2 = MomentSequence.q_factorial(2)
GEOM2 = MomentSequence.geometric(2)

ROTATION = GaussianRational(Fraction(3, 5), Fraction(4, 5))  # |3/5 + 4i/5| = 1

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

    @pytest.mark.parametrize("a, want", [(0.5, [[2, 4e13], [0, 2]]),
                                         (0.9, [[10, 1e15], [0, 10]])])
    def test_geometric_float_sigma_rule_sums_the_terms(self, a, want):
        # rho(Az) = a < 1, but I - Az fails sigma_min <= 1e-12 sigma_max, so
        # the terms are summed; for a = 0.9 they grow for nine steps first,
        # which the radius rule alone would call divergent
        A = CMatrix([[a, 1e13], [0.0, a]])
        rep = eval_exp(A, 1.0, MomentSequence.geometric(1))
        assert rep.status == "converged" and rep.terms_used > 0
        got = rep.value.to_numpy()
        assert np.abs(got - want).max() <= 1e-12 * np.abs(want).max()
        if a == 0.5:  # the same sum as a term loop over the all-ones table
            ones = MomentSequence.custom(["1"] * 400, rapid_growth_declared=False)
            again = eval_exp(A, 1.0, ones)
            assert again.value == rep.value and again.terms_used == rep.terms_used == 96

    @pytest.mark.parametrize("rows, scale", [
        ([[Fraction(5, 13), Fraction(-12, 13)], [Fraction(12, 13), Fraction(5, 13)]], 1),
        ([[Fraction(9, 41), Fraction(-40, 41)], [Fraction(40, 41), Fraction(9, 41)]], 1),
        ([[Fraction(28, 53), Fraction(-45, 53)], [Fraction(45, 53), Fraction(28, 53)]], 1),
        ([[-4, 1], [-9, 2]], 1),  # P J_2(-1) P^-1, P = [[1, 2], [3, 7]]
        # rho = 1 + 1e-17: just outside the unit circle
        ([[Fraction(5, 13), Fraction(-12, 13)], [Fraction(12, 13), Fraction(5, 13)]],
         1 + Fraction(1, 10**17)),
    ], ids=["rotation-5-12-13", "rotation-9-40-41", "rotation-28-45-53", "P-J2(-1)-P^-1",
            "rotation-5-12-13-expanded"])
    def test_geometric_exact_radius_one_exceeded(self, rows, scale):
        # rho = 1 exactly (or just above), though the float rho reads just below 1
        A = CMatrix(rows).scale(scale)
        rho = max(abs(np.linalg.eigvals(A.to_float().to_numpy())))
        assert 1 - 1e-12 < rho < 1
        rep = eval_exp(A, 1, MomentSequence.geometric(1))
        assert (rep.status, rep.value) == ("radius_exceeded", None)

    def test_exact_radius_test_agrees_with_float_rho_away_from_one(self):
        rng = random.Random(2601)
        verdicts = []
        for case in range(120):
            n = rng.randint(1, 3)
            den = rng.randint(2, 6 * n)
            A = CMatrix([[GaussianRational(Fraction(rng.randint(-5, 5), den),
                                           Fraction(rng.randint(-5, 5) * (case % 2), den))
                          for _ in range(n)] for _ in range(n)])
            rho = max(abs(np.linalg.eigvals(A.to_float().to_numpy())))
            if abs(rho - 1) > 1e-6:
                verdicts.append(_rho_below_one(A))
                assert verdicts[-1] == (rho < 1), A
        assert 40 <= sum(verdicts) <= len(verdicts) - 40

    @pytest.mark.parametrize("spectrum, below", [
        ((ROTATION, Fraction(1, 2)), False),
        ((ROTATION * (1 - Fraction(1, 10**12)), Fraction(-1, 2), Fraction(1, 3)), True),
        ((ROTATION * (1 + Fraction(1, 10**12)), 0), False),
        ((1 - Fraction(1, 10**12),) * 3, True),
        ((-1, Fraction(1, 2), Fraction(1, 2), 0), False),
        ((GaussianRational(0, 1), GaussianRational(0, -1)), False),
        ((0, 0, 0, 0), True),
        ((GaussianRational(Fraction(1, 2), Fraction(1, 2)), Fraction(-7, 10),
          GaussianRational(0, Fraction(9, 10)), Fraction(99, 100)), True),
        ((-ROTATION, -ROTATION, Fraction(1, 7)), False),
    ], ids=["on-circle", "inside-by-1e-12", "outside-by-1e-12", "triple-inside",
            "minus-one", "plus-minus-i", "nilpotent", "mixed-inside", "double-on-circle"])
    def test_exact_radius_test_on_known_spectra(self, spectrum, below):
        # A = P T P^-1 with T upper triangular has T's diagonal as its spectrum
        rng = random.Random(len(spectrum))
        n = len(spectrum)

        def entry(den=1):  # complex for odd n
            return GaussianRational(Fraction(rng.randint(-3, 3), den),
                                    Fraction(rng.randint(-3, 3), den) * (n % 2))

        T = CMatrix([[spectrum[i] if i == j else entry(4) if j > i else 0
                      for j in range(n)] for i in range(n)])
        P = CMatrix.zeros(n)
        while P.det() == 0:
            P = CMatrix([[entry() for _ in range(n)] for _ in range(n)])
        assert _rho_below_one(P @ T @ P.inverse()) == below

    def test_geometric_exact_contraction_near_one(self):
        # P J_2(1 - 1e-12) P^-1 has rho = 1 - 1e-12 < 1, though its float rho
        # reads 1 + 3.8e-8
        a = 1 - Fraction(1, 10**12)
        P = CMatrix([[1, 2], [3, 7]])
        A = P @ CMatrix([[a, 1], [0, a]]) @ P.inverse()
        assert max(abs(np.linalg.eigvals(A.to_float().to_numpy()))) > 1
        rep = eval_exp(A, 1, MomentSequence.geometric(1))
        assert rep.status == "converged"
        assert rep.value == (CMatrix.identity(2) - A).inverse()

    def test_geometric_exact_past_float_range(self):
        # no float rho, and none is needed: the exact test admits the
        # nilpotent matrix ...
        rep = eval_exp(CMatrix([[0, 10**400], [0, 0]]), 1, MomentSequence.geometric(1))
        assert rep.status == "converged"
        assert rep.value == CMatrix([[1, 10**400], [0, 1]])
        # ... and rejects the diagonal one
        rep = eval_exp(CMatrix([[1, 0], [0, 10**400]]), 1, GEOM2)
        assert (rep.status, rep.value) == ("radius_exceeded", None)

    @pytest.mark.parametrize("k, lam", [(6, Fraction(999, 1000)), (8, Fraction(9999, 10000)),
                                        (12, Fraction(99, 100))], ids=["k6", "k8", "k12"])
    def test_geometric_exact_non_normal_inside_the_radius(self, k, lam):
        # P J_k(lam) P^-1 has rho = lam < 1, though its float rho reads above 1
        rng = random.Random(k)
        for _ in range(3):
            P = CMatrix.zeros(k)
            while P.det() == 0:
                P = CMatrix([[rng.randint(-3, 3) + 4 * (i == j) for j in range(k)]
                             for i in range(k)])
            A = P @ assemble_jordan([(lam, k)], "exact") @ P.inverse()
            assert max(abs(np.linalg.eigvals(A.to_float().to_numpy()))) > 1
            rep = eval_exp(A, 1, MomentSequence.geometric(1))
            assert rep.status == "converged"
            assert rep.value == (CMatrix.identity(k) - A).inverse()

    def test_zero_term_ends_float_sum(self):
        # a nilpotent Az: the third term is zero, so m(4) is never needed
        seq = MomentSequence.custom(["1", "1", "2", "6"], rapid_growth_declared=True)
        N = CMatrix([[0.0, 1, 2], [0, 0, 3], [0, 0, 0]])
        rep = eval_exp(N, 1.0, seq)
        assert rep.status == "converged"
        assert rep.terms_used == 3
        assert rep.tail_estimate == 0.0
        assert rep.value == CMatrix([[1.0, 1, 3.5], [0, 1, 3], [0, 0, 1]])

    def test_divergent_sum_aborts(self):
        # the terms pass the divergence guard before they start to shrink
        rep = scalar_exp(600, 1.0, FACTORIAL)
        assert (rep.status, rep.terms_used) == ("aborted_divergent", 78)
        assert rep.value is None and rep.tail_estimate == math.inf
        rep = eval_exp(CMatrix([[300.0, 0], [0, 1]]), 1.0, FACTORIAL)
        assert rep.status == "aborted_divergent" and rep.value is None
        with pytest.raises(EvaluationError):
            rep.require_converged()

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


def dyadic(a):
    """a rounded to multiples of 2^-20, so that its product with a z of a
    few bits is exact (``helpers.scaled``)."""
    return np.round(np.asarray(a) * 2**20) / 2**20


def short(x):
    """x rounded to 8 significant bits."""
    m, e = math.frexp(x)
    return math.ldexp(round(m * 256), e - 8)


def real_gaussian(n, seed):
    """A seeded real n x n matrix with N(0, 1) entries on the grid of
    :func:`dyadic`, a tenth of them zero and a few -0.0, so that signed
    zeros meet the sum."""
    rng = np.random.default_rng(seed)
    a = dyadic(rng.standard_normal((n, n)))
    a[rng.random((n, n)) < 0.1] = 0.0
    a[0, -1] = -0.0
    return CMatrix(a.tolist())


@lru_cache(maxsize=None)
def real_run(n, seq):
    """eval_exp on real_gaussian(n, n) at z = +-2^j with ||Az|| within a
    factor sqrt(2) of 1 (negative for n = 12), counting its products:
    (A, z, report, the entry types of each product)."""
    A = real_gaussian(n, n)
    z = (-1.0 if n == 12 else 1.0) * 2.0 ** -round(math.log2(A.row_sum_norm()))
    with counting_products() as products:
        rep = eval_exp(A, z, seq)
    return A, z, rep, products


REAL_KINDS = pytest.mark.parametrize("seq", [FACTORIAL, ML2, QFAC2, ML3, ML15, ML1],
                                     ids=["factorial", "ml2", "qfac2", "ml3", "ml1.5", "ml1"])
REAL_SIZES = pytest.mark.parametrize("n", [3, 12, 64])


class TestRealSeries:
    """A real Az is summed in real arithmetic, on Python floats, and made
    complex once at the end (the evaluation module's docstring)."""

    @REAL_KINDS
    @REAL_SIZES
    def test_real_sum_is_the_complex_sum(self, n, seq):
        """The value and report equal the library's own complex path on the
        same input, bit for bit."""
        A, z, rep, _ = real_run(n, seq)
        other = complex_path(A, z, seq)
        assert (rep.status, rep.terms_used, rep.tail_estimate) == (
            other.status, other.terms_used, other.tail_estimate)
        assert repr(rep.value.rows) == repr(other.value.rows)  # repr tells -0.0 from 0.0

    @REAL_KINDS
    @REAL_SIZES
    def test_real_entries_are_complex_with_zero_imaginary_parts(self, n, seq):
        rep = real_run(n, seq)[2]
        assert all(type(x) is complex and x.imag.hex() == (0.0).hex()
                   for r in rep.value.rows for x in r)

    @REAL_KINDS
    @REAL_SIZES
    def test_real_sum_matches_the_oracle(self, n, seq):
        A, z, rep, _ = real_run(n, seq)
        assert rep.status == "converged"
        assert_matches_the_series(rep, A, z, seq)

    @REAL_KINDS
    @REAL_SIZES
    def test_real_data_is_summed_on_floats(self, n, seq):
        """Every product is of two float matrices.  The term loop makes at
        most terms_used - 2 products (T_1 takes none); at n = 12 and 64 the
        kinds of order k (eval_exp: k = 1 for factorial and ml:1, 2 and 3
        for ml:2 and ml:3) are summed in Y = (Az)^k by Paterson-Stockmeyer,
        in at most K + 2k - 3, K = terms_used / k - 1: for k >= 2 its
        blocking makes no more products than Horner's rule in Y, k - 1 for
        X^2..X^k and K after, and for k = 1 (terms_used - 2 again) a block
        of s = 2 or more powers makes fewer than Horner's K once K >= 3."""
        rep, products = real_run(n, seq)[2:]
        assert products and all(kinds == {float} for kinds in products)
        if seq in (ML2, ML3) and n > 3:
            k = int(seq.param)
            assert rep.terms_used % k == 0
            assert len(products) <= rep.terms_used // k - 1 + 2 * k - 3
        else:
            assert len(products) <= rep.terms_used - 2

    @pytest.mark.parametrize("seq", [ML2, ML3], ids=["ml2", "ml3"])
    @pytest.mark.parametrize("which", ["real", "complex A", "complex z"])
    def test_paterson_stockmeyer_sum_is_the_complex_sum(self, which, seq):
        """At ||Az|| about 3 the 12 x 12 sums are long enough for
        Paterson-Stockmeyer to block its powers.  The value lies within the
        rounding allowance of the oracle, the products stay within
        K + 2k - 3 (Horner's rule in Y makes K + k - 1), and a real Az gives
        the library's complex sum on floats."""
        A = real_gaussian(12, 12)
        z = short(3.0 / A.row_sum_norm())
        if which == "complex A":
            rng = np.random.default_rng(12)
            A = CMatrix((np.array(A.rows) + 1j * dyadic(rng.standard_normal((12, 12)) / 10))
                        .tolist())
        elif which == "complex z":
            z = complex(z, short(z / 3))
        with counting_products() as products:
            rep = eval_exp(A, z, seq)
        k = int(seq.param)
        assert rep.status == "converged" and rep.terms_used % k == 0
        assert len(products) <= rep.terms_used // k - 1 + 2 * k - 3
        assert_matches_the_series(rep, A, z, seq)
        if which == "real":
            assert all(kinds == {float} for kinds in products)
            assert repr(rep.value.rows) == repr(complex_path(A, z, seq).value.rows)

    @pytest.mark.parametrize("which", ["complex A", "complex z", "tiny imaginary entry"])
    def test_complex_inputs_take_the_complex_sum(self, which):
        rng = np.random.default_rng(7)
        a = dyadic(rng.standard_normal((6, 6)))
        z = 0.203125
        if which == "complex A":
            a = a + 1j * dyadic(rng.standard_normal((6, 6)))
        elif which == "complex z":
            z = complex(0.15625, -0.09375)
        else:
            a = a.astype(complex)
            a[2, 3] += 2.0**-1000 * 1j
        A = CMatrix(a.tolist())
        with counting_products() as products:
            rep = eval_exp(A, z, ML2)
        assert products and all(kinds == {complex} for kinds in products)
        assert rep.status == "converged"
        assert_matches_the_series(rep, A, z, ML2)
        if which == "tiny imaginary entry":
            assert any(x.imag for r in rep.value.rows for x in r)

    @pytest.mark.parametrize("A, z, seq, stop", [
        (EXAMPLE1, 0.5, FACTORIAL, 2),
        (CMatrix([[0.3j, 1.0], [-1.0, 0.2]]), 1.0, ML2, 2),
        (CMatrix([[0.0, 1, 2], [0, 0, 3], [0, 0, 0]]), 1.0, FACTORIAL, 1),
        (CMatrix([[0, 1, 2], [0, 0, 3], [0, 0, 0]]), 1, FACTORIAL, 1),
        (CMatrix([[0, GaussianRational(1, 1)], [0, 0]]), 1, FACTORIAL, 1),
    ])
    def test_first_term_makes_no_product(self, A, z, seq, stop):
        """T_1 is Az m(0)/m(1) itself and each later term one product, so a
        sum settled at a certified T_k (terms_used = k + 1) makes at most
        terms_used - 2 products, and one ended by a zero term T_k
        (terms_used = k) at most terms_used - 1."""
        with counting_products() as products:
            rep = eval_exp(A, z, seq)
        assert rep.status == "converged"
        assert len(products) <= rep.terms_used - stop


class TestCertifiedTail:
    """A log-convex sequence settles a float sum at its first term whose
    ratio-majorant tail bound is below tol min(1, ||S||): the bound must
    bound the error, up to the rounding allowance C u sum_p ||T_p||
    (``helpers.assert_within_rounding``)."""

    @pytest.mark.parametrize("seq, f, rhos", [
        (FACTORIAL, math.exp, (0.5, 2.0, 5.0)),
        (ML2, lambda x: math.exp(x * x) * math.erfc(-x), (0.5, 1.5, 3.0)),
        (QFAC2, lambda x: euler_product(x, 2.0), (0.5, 2.0, 5.0)),
    ], ids=["factorial", "ml2", "qfac2"])
    @pytest.mark.parametrize("seed", range(6))
    def test_tail_bounds_the_error(self, seq, f, rhos, seed):
        n = (4, 8)[seed % 2]
        a, q, mu = exact_symmetric(n, rhos[seed % 3], seed)
        want = q @ np.diag([f(x) for x in mu]) @ q.T
        rep = eval_exp(CMatrix(a.tolist()), 1.0, seq)
        assert rep.status == "converged"
        assert rep.tail_estimate < rep.value.row_sum_norm() * 1e-12
        assert_within_rounding(rep, want, term_sizes(a, seq, rep.terms_used))

    @pytest.mark.parametrize("seq, imag, rhos", [
        (ML2, True, (0.5, 1.5, 2.5)),
        (ML3, False, (0.5, 1.5, 2.5)),
        (ML3, True, (0.5, 1.25, 1.75)),
        (ML4, False, (0.5, 1.0, 1.5)),
        (ML4, True, (0.5, 1.0, 1.25)),
    ], ids=["ml2-complex", "ml3-real", "ml3-complex", "ml4-real", "ml4-complex"])
    @pytest.mark.parametrize("seed", range(6))
    def test_tail_bounds_the_ramified_error(self, seq, imag, rhos, seed):
        # the ramified sums against mpmath, with the same allowance C = 16
        # over the term loop's sum_p ||T_p|| (worst seen: 8.0 here, 9.4 over 120 seeds)
        n, k = (8, 16)[seed % 2], int(seq.param)
        a, q, mu = exact_symmetric(n, rhos[seed % 3], seed, imag)
        want = q @ np.diag([complex(scalar_series(x, seq)[0]) for x in mu]) @ q.T
        rep = eval_exp(CMatrix(a.tolist()), 1.0, seq)
        assert rep.status == "converged" and rep.terms_used % k == 0
        assert rep.tail_estimate < rep.value.row_sum_norm() * 1e-12
        assert_within_rounding(rep, want, term_sizes(a, seq, rep.terms_used))

    @pytest.mark.parametrize("seq", [FACTORIAL, ML2], ids=["factorial", "ml2"])
    @pytest.mark.parametrize("seed", range(2))
    def test_a_larger_tol_stops_sooner(self, seq, seed):
        # a complex normal 16 x 16 summed by Paterson-Stockmeyer: at tol 1e-8
        # the degree is lower, and the reported tail still bounds the error
        a, q, mu = exact_symmetric(16, 1.25, seed, imag=True)
        A = CMatrix(a.tolist())
        want = q @ np.diag([complex(scalar_series(x, seq)[0]) for x in mu]) @ q.T
        rep = eval_exp(A, 1.0, seq, TruncationPolicy(tol=1e-8))
        assert rep.status == "converged"
        assert rep.tail_estimate < rep.value.row_sum_norm() * 1e-8
        assert rep.terms_used < eval_exp(A, 1.0, seq).terms_used
        assert_within_rounding(rep, want, term_sizes(a, seq, rep.terms_used))

    def test_norm_overstating_growth_keeps_the_five_term_rule(self):
        # ||Az|| r(k+1) >= 1 for every k summed, so no term is certified
        a = np.array([[0.5, 1e13], [0, 0.5]])
        rep = eval_exp(CMatrix(a.tolist()), 1.0, FACTORIAL)
        assert rep.status == "converged"
        assert_within_rounding(rep, shift_oracle(0.5, 1e13, 2, 1.0, FACTORIAL),
                               term_sizes(a, FACTORIAL, rep.terms_used))

    def test_custom_table_keeps_the_five_term_rule(self):
        # a custom table's step ratios are not known to fall, so the same
        # factorial values stop later as a table than as the kind
        table = MomentSequence.custom([str(math.factorial(p)) for p in range(40)],
                                      rapid_growth_declared=True)
        rep = eval_exp(EXAMPLE1, 0.5, table)
        assert rep.status == "converged"
        assert_matches_the_series(rep, EXAMPLE1, 0.5, FACTORIAL)
        assert eval_exp(EXAMPLE1, 0.5, FACTORIAL).terms_used < rep.terms_used


def heat_solution():
    """sol(1) for L = 10 tridiag(1, -2, 1), n = 200, and v from default_rng(0),
    with exp(L) v from numpy's eigh; no entry of the true value exceeds 0.72."""
    n = 200
    L = 10 * (np.diag(np.full(n, -2.0)) + np.diag(np.ones(n - 1), 1)
              + np.diag(np.ones(n - 1), -1))
    v = np.random.default_rng(0).standard_normal(n)
    w, q = np.linalg.eigh(L)
    rep = solve(CMatrix(L.tolist()), tuple(v), FACTORIAL).evaluate_report(1)
    return rep, q @ (np.exp(w) * (q.T @ v))


class TestConvergedIsAccurate:
    """Sums of a negative spectrum whose terms cancel: each reports
    ``converged`` with a value lost to rounding, since the status certifies
    the truncation error only.  An honest status or an accurate value turns
    a case into a pass."""

    @pytest.mark.xfail(raises=AssertionError, reason="converged values lost to cancellation")
    @pytest.mark.parametrize("case", [
        lambda: (scalar_exp(-20, 1, FACTORIAL), math.exp(-20)),  # 2.68e-9 for 2.06e-9
        lambda: (scalar_exp(-40, 1, FACTORIAL), math.exp(-40)),  # 0.357 for 4.2e-18
        # E(-8) = erfcx(8) = 0.069985, where the sum gives 1.64e13
        lambda: (scalar_exp(-8, 1, ML2), math.exp(64) * math.erfc(8)),
        lambda: (eval_exp(CMatrix.identity(3, "float").scale(-20), 1, FACTORIAL),
                 math.exp(-20) * np.eye(3)),  # 9.9e-9 on the diagonal
        heat_solution,  # off by up to 3.3
    ], ids=["factorial-minus-20", "factorial-minus-40", "ml2-minus-8",
            "factorial-minus-20-identity", "factorial-heat-n200"])
    def test_converged_value_is_accurate(self, case):
        rep, want = case()
        if rep.status == "converged":
            got = np.array(rep.value.rows if isinstance(rep.value, CMatrix) else rep.value)
            assert np.abs(got - want).max() <= 1e-10 * np.abs(want).max()


def assert_polynomial(rep, X, seq):
    """E(X) for a 5 x 5 X with X^5 = 0 is the polynomial X^0..X^4, summed
    to tail 0 over at least its 5 terms."""
    assert (rep.status, rep.tail_estimate) == ("converged", 0.0) and rep.terms_used >= 5
    want, power = np.zeros((5, 5)), np.eye(5)
    for p in range(5):
        want, power = want + power / seq.value(p), power @ X
    assert np.abs(np.array(rep.value.rows) - want).max() <= 1e-15 * np.abs(want).max()


class TestRamifiedSeries:
    """factorial and ml:k with an integer 1 <= k <= 4 (order k = 1 for
    factorial) sum the matrix series of an n x n Az with n >= 5 in (Az)^k;
    every other sum keeps the term loop.  Each value is checked against an
    oracle, whichever path summed it."""

    @pytest.mark.parametrize("seq", [ML2, ML3], ids=["ml2", "ml3"])
    def test_max_terms_reached(self, seq):
        # ||Y|| puts the degree fixed in advance past max_terms = 8, so the
        # series runs out of terms: the value is the partial sum to degree 8
        rng = np.random.default_rng(31)
        a = rng.standard_normal((5, 5)) + 1j * rng.standard_normal((5, 5))
        A, pol = CMatrix(a.tolist()), TruncationPolicy(max_terms=8)
        rep = eval_exp(A, 2.0, seq, pol)
        assert (rep.status, rep.terms_used) == ("max_terms_reached", 9)
        assert_matches_the_series(rep, A, 2.0, seq, partial=True)

    def test_max_terms_below_the_order_keeps_the_term_loop(self):
        # ml:8 is not ramified: max_terms = 5 covers max_terms + 1 terms
        rng = np.random.default_rng(32)
        A = CMatrix(rng.standard_normal((8, 8)).tolist())
        seq, pol = MomentSequence.mittag_leffler(8), TruncationPolicy(max_terms=5)
        rep = eval_exp(A, 1.0, seq, pol)
        assert (rep.status, rep.terms_used) == ("max_terms_reached", 6)
        assert_matches_the_series(rep, A, 1.0, seq, partial=True)

    @pytest.mark.parametrize("seq", [ML2, ML3], ids=["ml2", "ml3"])
    def test_zero_z(self, seq):
        rep = eval_exp(CMatrix(np.arange(25.0).reshape(5, 5).tolist()), 0.0, seq)
        assert (rep.status, rep.terms_used) == ("converged", 1)
        assert rep.value == CMatrix.identity(5, "float")

    @pytest.mark.parametrize("seq", [ML2, ML3], ids=["ml2", "ml3"])
    def test_nilpotent(self, seq):
        # X^5 = 0: the sum is the polynomial X^0..X^4, which every path ends
        # at a zero power or term, with tail 0
        X = np.triu(np.arange(1.0, 26.0).reshape(5, 5), 1)
        rep = eval_exp(CMatrix(X.tolist()), 1.0, seq)
        assert_polynomial(rep, X, seq)

    @pytest.mark.parametrize("seq", [ML2, ML3, ML4], ids=["ml2", "ml3", "ml4"])
    def test_zero_power_ends_the_polynomial(self, seq):
        # 3 S for the 5 x 5 shift S: ||Y^j|| = 3^{kj} until Y^j = 0, and the
        # sum ends at X^5 = 0 with the polynomial X^0..X^4
        X = np.diag([3.0] * 4, 1)
        rep = eval_exp(CMatrix(X.tolist()), 1.0, seq)
        assert_polynomial(rep, X, seq)

    def test_zero_power_below_the_order_ends_the_polynomial(self):
        # X^2 = 0 with k = 3: the zero is among X^0..X^{k-1}, before any power
        # of Y, and the sum I + X / m(1) covers the k = 3 terms with tail 0
        X = np.zeros((5, 5))
        X[0, 4], X[1, 3] = 3.0, 2.0
        A = CMatrix(X.tolist())
        rep = eval_exp(A, 1.0, ML3)
        assert (rep.status, rep.terms_used, rep.tail_estimate) == ("converged", 3, 0.0)
        assert_matches_the_series(rep, A, 1.0, ML3)

    def test_degree_bound_past_max_terms_keeps_the_term_loop(self):
        # Y = (Az)^2 = diag(16, 1, ...): the least degree its alpha = 16
        # admits is past the 9 that max_terms = 20 leaves in Y, so the term
        # loop sums the series and runs out of terms: the value is the
        # partial sum over its 21 terms
        A = CMatrix(np.diag([4.0, 1, 1, 1, 1]).tolist())
        rep = eval_exp(A, 1.0, ML2, TruncationPolicy(max_terms=20))
        assert (rep.status, rep.terms_used) == ("max_terms_reached", 21)
        assert_matches_the_series(rep, A, 1.0, ML2, partial=True)

    @pytest.mark.parametrize("max_terms, terms", [(10000, 41), (38, 39)],
                             ids=["second-pass", "second-degree-past-max-terms"])
    def test_small_value_fixes_the_degree_again(self, max_terms, terms):
        # spectrum in [-6.5, -5.5], so ||E|| < 0.005: the tail of the degree
        # fixed against tol fails tol min(1, ||E||), and the degree is fixed
        # again against tol ||E|| / 2.  The blocks are summed a second time
        # (41 terms), or, where that degree is past max_terms, the term loop
        # sums the series (39 terms)
        a, q, mu = exact_symmetric(8, 0.5, 0)
        a, mu = a - 6 * np.eye(8), mu - 6
        rep = eval_exp(CMatrix(a.tolist()), 1.0, FACTORIAL, TruncationPolicy(max_terms=max_terms))
        assert (rep.status, rep.terms_used) == ("converged", terms)
        assert rep.tail_estimate < 1e-12 * rep.value.row_sum_norm() < 1e-12 * 0.005
        assert_within_rounding(rep, q @ np.diag(np.exp(mu)) @ q.T,
                               term_sizes(a, FACTORIAL, rep.terms_used))

    @pytest.mark.parametrize("n", [2, 5, 8])
    def test_overstated_step_size_falls_back_to_the_term_loop(self, n):
        # ||Y|| = 1e60 puts the degree fixed in advance past max_terms (a
        # step loop's size ||T_1|| ||X|| m(2)/m(3) was about 1e120, past the
        # 1e100 guard), while no term of the series passes about 3e60
        a = np.eye(n) * 0.5
        a[0, 1] = 1e60
        rep = eval_exp(CMatrix(a.tolist()), 1.0, ML2)
        assert rep.status == "converged"
        assert_within_rounding(rep, shift_oracle(0.5, 1e60, n, 1.0, ML2),
                               term_sizes(a, ML2, rep.terms_used))

    def test_non_normal_sum_stops_no_later_than_the_term_loop(self):
        # 0.5 I + 1e40 e_1 e_2^T: ||Y|| = 1e40 overstates the growth of Y^q,
        # and the degree it fixes is past max_terms; the term loop sums the
        # series in 69 terms, where a ramified step loop took 110
        a = np.eye(8) * 0.5
        a[0, 1] = 1e40
        rep = eval_exp(CMatrix(a.tolist()), 1.0, ML2)
        assert rep.status == "converged" and rep.terms_used <= 69
        assert_within_rounding(rep, shift_oracle(0.5, 1e40, 8, 1.0, ML2),
                               term_sizes(a, ML2, rep.terms_used))

    def test_non_normal_similarity_matches_the_oracle(self):
        # A = P J P^-1 with integer P, cond P of a few hundred, and Jordan
        # blocks of sizes 3, 2, 1, 2: ||Y|| overstates the growth of Y^q, and
        # the ramified sum still matches the oracle within K + 2k - 3 products
        rng = np.random.default_rng(8)
        while True:
            p = rng.integers(-3, 4, (8, 8)).astype(float)
            if abs(np.linalg.det(p)) >= 0.5 and 200 <= np.linalg.cond(p) <= 500:
                break
        j = np.diag([2.0, 2, 2, -1, -1, 3, 2, 2]) + np.diag([1.0, 1, 0, 1, 0, 0, 1], 1)
        A = CMatrix(dyadic(p @ j @ np.linalg.inv(p)).tolist())
        x = short(2.0 / A.row_sum_norm())
        z = complex(short(0.6 * x), short(0.8 * x))
        with counting_products() as products:
            rep = eval_exp(A, z, ML2)
        assert rep.status == "converged" and rep.terms_used % 2 == 0
        assert len(products) <= rep.terms_used // 2 - 1 + 2 * 2 - 3
        assert_matches_the_series(rep, A, z, ML2)

    @pytest.mark.parametrize("lam", [-16.0, 16j], ids=["-16", "16i"])
    @pytest.mark.parametrize("n", [3, 5, 10])
    def test_terms_past_the_guard_abort(self, n, lam):
        # E(-16) = erfcx(16) is about 0.0351, but the terms (-16)^p / (p/2)!
        # reach about 1e109, past the 1e100 divergence guard: the ramified
        # sums (n = 5, 10) abort as the term loop (n = 3) does
        a = np.diag([lam, 0.5, 0.25, -0.5, 0.125, 0.375, -0.25, 0.0625, 0.75, -0.125][:n])
        rep = eval_exp(CMatrix(a.tolist()), 1.0, ML2)
        assert (rep.status, rep.value) == ("aborted_divergent", None)

    @pytest.mark.parametrize("k, n", [(1, 5), (1.5, 5), (5, 5), (9, 5), (2, 4), (4, 4)])
    @pytest.mark.parametrize("imag", [False, True], ids=["real", "complex"])
    def test_other_cases_keep_the_term_loop(self, k, n, imag):
        # except ml:1 at n = 5, which has order 1 and is summed in Az by
        # Paterson-Stockmeyer (TestOrderOneSeries): the oracle checks both
        rng = np.random.default_rng(29)
        a = rng.standard_normal((n, n)) + (1j * rng.standard_normal((n, n)) if imag else 0)
        A, seq = CMatrix((dyadic(a) / 8).tolist()), MomentSequence.mittag_leffler(k)
        rep = eval_exp(A, 1.0, seq)
        assert rep.status == "converged"
        assert_matches_the_series(rep, A, 1.0, seq)

    @pytest.mark.parametrize("seq", [ML2, ML3], ids=["ml2", "ml3"])
    def test_vector_series_keeps_the_term_loop(self, seq):
        # sol(z) = E(Az) v by its vector term loop, against the oracle's E(Az) v
        # and the sizes of its terms T_p v
        rng = np.random.default_rng(30)
        a = dyadic(rng.standard_normal((6, 6)) + 1j * rng.standard_normal((6, 6))) / 4
        v = tuple(dyadic(rng.standard_normal(6)) + 0j)
        A, z = CMatrix(a.tolist()), complex(0.796875, -0.296875)
        rep = solve(A, v, seq).evaluate_report(z)
        assert rep.status == "converged"
        x = scaled(A, z)
        assert_within_rounding(rep, series_oracle(x, seq) @ np.array(v, np.clongdouble),
                               term_sizes(x, seq, rep.terms_used, v))


def term_loop(seq):
    """seq with no ramification rule: the same moments, which eval_exp then
    sums by its term loop."""
    out = MomentSequence(seq.kind, seq.param)
    out.rules = out.rules._replace(ramify=None)
    return out


def normal(n, rho, seed):
    """A seeded complex n x n Q diag(mu) Q^H, |mu| <= rho, on the grid of
    :func:`dyadic`."""
    rng = np.random.default_rng(seed)
    q, _ = np.linalg.qr(rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n)))
    mu = rho * np.sqrt(rng.random(n)) * np.exp(2j * np.pi * rng.random(n))
    return CMatrix(dyadic(q @ np.diag(mu) @ q.conj().T).tolist())


ORDER_ONE = pytest.mark.parametrize("seq", [FACTORIAL, ML1], ids=["factorial", "ml1"])


class TestOrderOneSeries:
    """factorial and ml:1, m(p + 1) = (1 + p) m(p), have ramification order
    1: the float matrix series of an n x n Az, n >= 5, is summed by
    Paterson-Stockmeyer in powers of Az itself, Horner's rule in G = (Az)^s.
    Each value is checked against the oracle under the module's rule."""

    @ORDER_ONE
    @pytest.mark.parametrize("n", [5, 8])
    @pytest.mark.parametrize("imag", [False, True], ids=["real", "complex"])
    def test_small_sums_match_the_oracle(self, n, imag, seq):
        rng = np.random.default_rng(40 + n)
        a = rng.standard_normal((n, n)) + (1j * rng.standard_normal((n, n)) if imag else 0)
        A = CMatrix((dyadic(a) / 2).tolist())
        rep = eval_exp(A, 1.0, seq)
        assert rep.status == "converged"
        assert rep.tail_estimate < rep.value.row_sum_norm() * 1e-12
        assert_matches_the_series(rep, A, 1.0, seq)

    @ORDER_ONE
    def test_non_normal_similarity_matches_the_oracle(self, seq):
        # A = P J P^-1 with integer P, cond P at most 300, and Jordan blocks
        # of sizes 3, 2, 2, 1, 3, 1, like jordan-crosscheck's n = 12 ops, at
        # z = 2 / ||A|| on a complex ray: ||Az|| overstates the growth of
        # the powers of Az
        rng = np.random.default_rng(12)
        while True:
            p = rng.integers(-3, 4, (12, 12)).astype(float)
            if abs(np.linalg.det(p)) >= 0.5 and np.linalg.cond(p) <= 300:
                break
        lam = [2.0, 2, 2, -1, -1, 0.5, 0.5, 3, 1, 1, 1, -2]
        j = np.diag(lam) + np.diag([1.0, 1, 0, 1, 0, 1, 0, 0, 1, 1, 0], 1)
        A = CMatrix(dyadic(p @ j @ np.linalg.inv(p)).tolist())
        x = short(2.0 / A.row_sum_norm())
        z = complex(short(0.6 * x), short(0.8 * x))
        rep = eval_exp(A, z, seq)
        assert rep.status == "converged"
        assert_matches_the_series(rep, A, z, seq)

    @ORDER_ONE
    def test_shift_is_its_polynomial(self, seq):
        # S^5 = 0 for the 5 x 5 shift S: E(S) = I + S + ... + S^4/4!
        S = np.diag([1.0] * 4, 1)
        rep = eval_exp(CMatrix(S.tolist()), 1.0, seq)
        assert rep.status == "converged"
        want = sum(np.linalg.matrix_power(S, p) / math.factorial(p) for p in range(5))
        assert_within_rounding(rep, want, term_sizes(S, seq, rep.terms_used))

    @pytest.mark.parametrize("which", ["real", "complex", "triangular"])
    def test_ml1_is_factorial(self, which):
        """ml:1 reads m(p) = Gamma(1 + p) in logs, factorial p! exactly: both
        match the oracle, and so each other within twice the allowance."""
        if which == "triangular":
            A = CMatrix(dyadic(np.triu(np.ones((6, 6))) / 3).tolist())
        else:
            A = real_gaussian(10, 10) if which == "real" else normal(10, 2.0, 10)
        x = scaled(A, 1.0)
        reps = [eval_exp(A, 1.0, seq) for seq in (FACTORIAL, ML1)]
        for rep, seq in zip(reps, (FACTORIAL, ML1)):
            assert rep.status == "converged"
            assert_matches_the_series(rep, A, 1.0, seq)
        terms = max(rep.terms_used for rep in reps)
        allowance = sum(rep.tail_estimate for rep in reps) + 2 * C * U * sum(
            term_sizes(x, FACTORIAL, terms))
        diff = np.abs(np.array(reps[0].value.rows) - np.array(reps[1].value.rows))
        assert diff.sum(axis=1).max() <= allowance

    def test_fewer_products_than_the_term_loop(self):
        # complex normal n = 30 at |mu| <= 1.25: Horner's rule in G = (Az)^s
        # against one product per term of the same factorial moments
        A = normal(30, 1.25, 30)
        counts = []
        for seq in (FACTORIAL, term_loop(FACTORIAL)):
            with counting_products() as products:
                rep = eval_exp(A, 1.0, seq)
            assert rep.status == "converged"
            assert_matches_the_series(rep, A, 1.0, seq)
            counts.append(len(products))
        assert counts[0] < counts[1], counts


def power_over_factorial(a, b, h):
    """(a + bi)^h / h! for integers a, b: the power in Gaussian integers,
    each part rounded once, so no step overflows."""
    re, im = 1, 0
    for _ in range(h):
        re, im = re * a - im * b, re * b + im * a
    f = math.factorial(h)
    return complex(float(Fraction(re, f)), float(Fraction(im, f)))


class TestDeltaE:
    @pytest.mark.parametrize("lam, h, a, b", [
        (3.0, 120, 2, 0), (2.0, 171, 3, 0), (0.5, 200, 3, 4)])
    def test_settles_relative_to_a_tiny_value(self, lam, h, a, b):
        # every term is far below tol = 1e-12, yet the value is accurate to
        # 1e-12 relative: Delta_h E(lam, z) = z^h e^{lam z} / h! for factorial
        z = complex(a, b)
        want = power_over_factorial(a, b, h) * cmath.exp(lam * z)
        rep = delta_E(lam, h, z if b else float(a), FACTORIAL)
        assert rep.status == "converged"
        assert rep.tail_estimate <= 1e-12 * abs(rep.value)
        assert abs(rep.value - want) <= 1e-12 * abs(want)

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

    @pytest.mark.parametrize("lam, h, seq", [
        (0.5, 15, MomentSequence.q_factorial(1000)),
        (1.0, 46, QFAC2),
        (1.0, 171, FACTORIAL),
    ])
    def test_moment_past_float_range(self, lam, h, seq):
        # m(h) > 1.8e308, so the value is subnormal or 0 and must not raise
        rep = delta_E(lam, h, 1.0, seq)
        assert rep.status == "converged"
        lam = Fraction(lam)
        want = float(sum(math.comb(p, h) * lam ** (p - h) / seq.value(p)
                         for p in range(h, h + 60)))
        assert want < 1e-300 and rep.value.imag == 0.0
        assert math.isclose(rep.value.real, want, rel_tol=1e-3, abs_tol=1e-320)

    def test_power_past_float_range(self):
        # 60^200 overflows a float, but Delta_200 E(1, 60) = 60^200 e^60 / 200!
        # (mpmath, 40 digits) does not
        rep = delta_E(1.0, 200, 60.0, FACTORIAL)
        assert rep.status == "converged"
        assert math.isclose(rep.value.real, 6180595.920278906, rel_tol=1e-10)
        assert rep.value.imag == 0.0

    @pytest.mark.parametrize("h", [200, 201])
    def test_negative_power_past_float_range_stays_real(self, h):
        # (-60)^h overflows; Delta_h E(-1, -60) = (-60)^h e^60 / h! is real
        rep = delta_E(-1.0, h, -60.0, FACTORIAL)
        want = (-1) ** h * float(Fraction(60**h, math.factorial(h))) * math.exp(60)
        assert rep.status == "converged"
        assert rep.value.imag == 0.0
        assert math.isclose(rep.value.real, want, rel_tol=1e-10)

    @pytest.mark.parametrize("h, z, seq", [(200, 10, FACTORIAL), (400, 5, ML2)])
    def test_quotient_in_range_past_moment_range(self, h, z, seq):
        # m(h) = 200! is past the float range (ml:2 reads it as inf) while
        # z^h / m(h) is not; with lam = 0 that quotient is the whole value
        rep = delta_E(0.0, h, float(z), seq)
        want = float(Fraction(z**h, math.factorial(200)))
        assert rep.status == "converged" and rep.terms_used == 1
        assert want > 1e-200 and rep.value.imag == 0.0
        assert math.isclose(rep.value.real, want, rel_tol=1e-10)

    def test_zero_z_past_moment_range(self):
        # 200! is past the float range, and z^h / m(h) at z = 0 is 0
        rep = delta_E(0.5, 200, 0.0, FACTORIAL)
        assert rep.status == "converged" and rep.value == 0

    @pytest.mark.parametrize("a, b", [(3, 4), (-2, 1), (0, 7)])
    def test_complex_quotient_past_moment_range(self, a, b):
        # with lam = 0 the value is its first term z^200 / 200!, which takes
        # the phase of z^200 from (z / |z|)^200
        rep = delta_E(0, 200, complex(a, b), FACTORIAL)
        want = complex(GaussianRational(a, b) ** 200 / math.factorial(200))
        assert rep.status == "converged" and rep.terms_used == 1
        assert abs(rep.value - want) <= 1e-12 * abs(want)

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
        )
        rep = eval_via_jordan(dec, 0.7, ML2)
        for i, l in enumerate(lams):
            assert abs(rep.value.rows[i][i] - scalar_exp(l, 0.7, ML2).value) < 1e-12

    def test_blocks_laid_out_on_the_diagonal(self):
        blocks = [(0.5, 2), (-1.0 + 0.5j, 1), (0.3, 3)]
        eye = CMatrix.identity(6, "float")
        dec = JordanDecomposition(P=eye, blocks=blocks, P_inv=eye)
        expected = [[0j] * 6 for _ in range(6)]
        off = 0
        for lam, size in blocks:
            block = jordan_block_exp(lam, size, 0.7, ML2).value.rows
            for i in range(size):
                expected[off + i][off:off + size] = block[i]
            off += size
        value = eval_via_jordan(dec, 0.7, ML2).value
        assert [list(r) for r in value.rows] == expected

    def test_merged_failure_keeps_its_own_term_count(self):
        # with m(p) = 1 the block at 2 grows (radius_exceeded after 7 terms)
        # and the block at 0.9 settles too slowly (max_terms_reached, 13)
        ones = MomentSequence.custom(["1"] * 30, rapid_growth_declared=False)
        pol = TruncationPolicy(max_terms=12)
        first, second = (jordan_block_exp(lam, 1, 1.0, ones, pol) for lam in (2.0, 0.9))
        assert (first.status, first.terms_used) == ("radius_exceeded", 7)
        assert (second.status, second.terms_used) == ("max_terms_reached", 13)
        eye = CMatrix.identity(2, "float")
        dec = JordanDecomposition(P=eye, blocks=[(2.0, 1), (0.9, 1)], P_inv=eye)
        rep = eval_via_jordan(dec, 1.0, ones, pol)
        assert (rep.value, rep.status, rep.terms_used) == (None, "radius_exceeded", 7)

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
            TruncationPolicy(tol=True)
        with pytest.raises(ValueError):
            TruncationPolicy(max_terms=2)
        with pytest.raises(ValueError):
            TruncationPolicy(max_terms=10.0)
        with pytest.raises(ValueError):
            TruncationPolicy(max_terms=math.inf)

    def test_require_converged_raises(self):
        rep = eval_exp(CMatrix.identity(2, "float"), 3.0, GEOM2)
        with pytest.raises(EvaluationError):
            rep.require_converged()
