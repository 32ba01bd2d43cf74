"""End-to-end acceptance checks.

Each test verifies one headline property of the library at its stated
tolerance and prints a single PASS/FAIL line, so that

    pytest tests/test_acceptance.py -v -s

gives a compact scoreboard.  The whole module is expected to run in well
under a minute.
"""

import cmath
import math
import random
from fractions import Fraction

from momexp import (
    CMatrix,
    GaussianRational,
    MomentSequence,
    cauchy_product,
    det_trace_probe,
    eval_exp,
    eval_via_jordan,
    exp_series,
    fundamental_matrix,
    inverse_series,
    jordan_decompose,
    mat_pow,
    norm_bound_check,
    phi_coefficients,
    q_derivative_residual,
    recover_exponential,
    residual_check,
    solve,
)
from helpers import random_exact_matrix, recovered_multiset, synthetic_jordan_instance

FACTORIAL = MomentSequence.factorial()
ML2 = MomentSequence.mittag_leffler(2)
QFAC2 = MomentSequence.q_factorial(2)
GEOM2 = MomentSequence.geometric(2)

EXAMPLE1 = CMatrix([[1, 0, 1], [1, 2, 0], [0, 0, 1]])
EXAMPLE2 = CMatrix([[0, 1, 1], [-1, 2, 1], [1, -1, 1]])


def _report(num, label, ok):
    print(f"criterion {num:02d} [{label}]: {'PASS' if ok else 'FAIL'}")
    assert ok, f"criterion {num} ({label}) failed"


def test_criterion_01_geometric_counterexample():
    A = CMatrix.identity(2)
    e_plus = eval_exp(A, 1, GEOM2).value
    e_minus = eval_exp(-A, 1, GEOM2).value
    two_i = A.scale(2)
    two_thirds_i = A.scale(GaussianRational(Fraction(2, 3)))
    four_thirds_i = A.scale(GaussianRational(Fraction(4, 3)))
    ok = (
        e_plus == two_i
        and e_minus == two_thirds_i
        and e_plus @ e_minus == four_thirds_i
    )
    _report(1, "geometric sequence breaks multiplicativity", ok)


def test_criterion_02_upper_triangular_power_formula():
    ok = True
    for p in range(51):
        want = CMatrix(
            [
                [1, 0, p],
                [2**p - 1, 2**p, 2**p - p - 1],
                [0, 0, 1],
            ]
        )
        ok = ok and mat_pow(EXAMPLE1, p) == want
    _report(2, "closed-form powers, triangular matrix", ok)


def test_criterion_03_defective_power_formula():
    ok = True
    half = Fraction(1, 2)
    for p in range(51):
        want = CMatrix(
            [
                [half * (p * p - 3 * p + 2), half * -(p - 3) * p, p],
                [half * (p - 3) * p, half * (-p * p + 3 * p + 2), p],
                [p, -p, 1],
            ]
        )
        ok = ok and mat_pow(EXAMPLE2, p) == want
    _report(3, "closed-form powers, defective matrix", ok)


def test_criterion_04_series_jordan_path_equivalence():
    cases = [
        (EXAMPLE1, FACTORIAL, [0.3, 1 + 0.5j]),
        (EXAMPLE1, ML2, [0.3, 1 + 0.5j]),
        (EXAMPLE2, QFAC2, [0.4, 0.2 + 0.1j]),
    ]
    ok = True
    for A, seq, zs in cases:
        Af = A.to_float()
        dec = jordan_decompose(Af)
        for z in zs:
            direct = eval_exp(Af, z, seq).value
            via = eval_via_jordan(dec, z, seq).value
            ok = ok and (direct - via).row_sum_norm() <= 1e-10
    _report(4, "series and Jordan paths agree", ok)


def test_criterion_05_classical_reduction():
    ok = True
    # nilpotent blocks: the series truncates to a polynomial
    n2 = CMatrix([[0.0, 1], [0, 0]])
    got = eval_exp(n2, 0.7, FACTORIAL).value
    ok = ok and (got - CMatrix([[1.0, 0.7], [0, 1]])).row_sum_norm() <= 1e-12
    n3 = CMatrix([[0.0, 1, 0], [0, 0, 1], [0, 0, 0]])
    z = 0.4
    want3 = CMatrix([[1.0, z, z * z / 2], [0, 1, z], [0, 0, 1]])
    ok = ok and (eval_exp(n3, z, FACTORIAL).value - want3).row_sum_norm() <= 1e-12
    # diagonal: scalar exponentials on the diagonal
    d = CMatrix([[1.0, 0], [0, -0.5]])
    got = eval_exp(d, 0.9, FACTORIAL).value
    want = CMatrix([[math.exp(0.9), 0], [0, math.exp(-0.45)]])
    ok = ok and (got - want).row_sum_norm() <= 1e-12
    # rotation generator: a quarter turn at z = pi/2
    rot = CMatrix([[0.0, -1], [1, 0]])
    got = eval_exp(rot, math.pi / 2, FACTORIAL).value
    ok = ok and (got - CMatrix([[0.0, -1], [1, 0]])).row_sum_norm() <= 1e-12
    _report(5, "factorial sequence reduces to exp", ok)


def test_criterion_06_inverse_series_exact():
    rng = random.Random(2024)
    ok = True
    for _ in range(50):
        A = random_exact_matrix(3, rng)
        for seq in (FACTORIAL, QFAC2, GEOM2):
            prod = cauchy_product(
                inverse_series(A, seq, 40), exp_series(A, seq, 40)
            )
            ok = ok and prod.coeffs[0] == CMatrix.identity(3)
            ok = ok and all(c.is_zero() for c in prod.coeffs[1:])
    phis = phi_coefficients(FACTORIAL, 40)
    ok = ok and all(
        phis[j] == GaussianRational((-1) ** j) for j in range(41)
    )
    _report(6, "inverse series is exact through order 40", ok)


def test_criterion_07_solution_residuals():
    rng = random.Random(3031)
    ok = True
    seqs = (FACTORIAL, QFAC2, MomentSequence.q_factorial(3))
    for i in range(100):
        A = random_exact_matrix(rng.choice([2, 3]), rng)
        v0 = tuple(rng.randint(-4, 4) for _ in range(A.n))
        sol = solve(A, v0, seqs[i % 3])
        ok = ok and residual_check(sol, 60) == 0.0
    sol = solve(EXAMPLE2.to_float(), (1.0, -1.0, 2.0), QFAC2)
    ok = ok and q_derivative_residual(sol, 2, [0.1, 0.25, 0.5j]) <= 1e-8
    _report(7, "coefficient and q-difference residuals", ok)


def test_criterion_08_fundamental_matrix_recovery():
    rng = random.Random(4041)
    ok = True
    for A, seq, z in ((EXAMPLE1.to_float(), ML2, 0.5), (EXAMPLE2.to_float(), QFAC2, 0.4)):
        want = eval_exp(A, z, seq).value
        done = 0
        while done < 2:
            X0 = CMatrix([[rng.uniform(-2, 2) for _ in range(3)] for _ in range(3)])
            if abs(X0.det()) < 0.1:
                continue
            got = recover_exponential(fundamental_matrix(A, X0, seq), X0, z)
            ok = ok and (got - want).row_sum_norm() <= 1e-10
            done += 1
    _report(8, "exponential recovered from fundamental matrix", ok)


def test_criterion_09_norm_bound():
    rng = random.Random(5051)
    seqs = (FACTORIAL, ML2, QFAC2)
    ok = True
    for i in range(500):
        A = CMatrix([[rng.uniform(-1, 1) for _ in range(3)] for _ in range(3)])
        norm = A.row_sum_norm()
        if norm > 2:
            A = A.scale(2 / norm)
        z = cmath.rect(rng.uniform(0, 1), rng.uniform(0, 2 * math.pi))
        ok = ok and norm_bound_check(A, z, seqs[i % 3])["holds"]
    _report(9, "scalar series of the norm dominates", ok)


def test_criterion_10_non_multiplicativity_witnesses():
    a = CMatrix([[1]])
    sum_side = exp_series(a + a, QFAC2, 2)
    prod_side = cauchy_product(exp_series(a, QFAC2, 2), exp_series(a, QFAC2, 2))
    ok = sum_side.coeffs[2] != prod_side.coeffs[2]
    ok = ok and sum_side.coeffs[2] == CMatrix([[4]])
    ok = ok and prod_side.coeffs[2] == CMatrix([[5]])
    probe = det_trace_probe(CMatrix([[1.0, 0], [0, 2.0]]), FACTORIAL)
    ok = ok and abs(probe["det_of_exp"] - probe["exp_of_trace"]) <= 1e-10
    probe = det_trace_probe(CMatrix([[1.0, 0], [0, 1.0]]), ML2)
    ok = ok and abs(probe["det_of_exp"] - probe["exp_of_trace"]) > 0.1
    _report(10, "exponential is not multiplicative in general", ok)


def test_criterion_11_jordan_recovery():
    rng = random.Random(6061)
    ok = True
    for _ in range(200):
        A, expected = synthetic_jordan_instance(rng)
        dec = jordan_decompose(A)
        ok = ok and recovered_multiset(dec) == expected
        ok = ok and dec.residual <= 1e-8
    _report(11, "canonical form recovered on synthetic inputs", ok)
