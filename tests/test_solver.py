import math
import random
from collections import Counter
from fractions import Fraction

import pytest

from momexp import (
    BackendMismatch,
    CMatrix,
    GaussianRational,
    IVPSolution,
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
from helpers import (
    random_exact_matrix,
    reference_residual,
    reference_solution_series,
    scalar_pair,
)

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


def mat_vec_recurrence(A, v, N):
    coeffs = [tuple(v)]
    for _ in range(N):
        coeffs.append(mat_vec(A, coeffs[-1]))
    return coeffs


def entrywise_recurrence(A, v, N):
    coeffs = [tuple(v)]
    rng = range(A.n)
    for _ in range(N):
        c = coeffs[-1]
        coeffs.append(tuple(sum((A.rows[i][k] * c[k] for k in rng), GaussianRational(0))
                            for i in rng))
    return coeffs


class TestExactSeries:
    def test_matches_mat_vec_recurrence(self):
        rng = random.Random(41)

        def part():
            return Fraction(rng.randint(-5, 5), rng.randint(1, 4))

        def matrix(cplx):
            return CMatrix([[GaussianRational(part(), part() if cplx else 0)
                             for _ in range(3)] for _ in range(3)])

        vectors = [(3, -2, 1), (Fraction(1, 2), Fraction(-2, 3), 5),
                   (GaussianRational(1, Fraction(1, 3)), 0, GaussianRational(0, -2)),
                   (0, 0, 0)]
        nilpotent = CMatrix([[0, Fraction(1, 2), 3], [0, 0, Fraction(-2, 5)], [0, 0, 0]])
        # A^2 = A: the powers' denominators cancel back to 1000 every step
        idempotent = CMatrix([[Fraction(999, 1000), Fraction(1, 1000), 0]] * 2 + [[0, 0, 1]])
        # a complex A^2 = A over 1000: its imaginary part cancels to 1000 too
        i_over_1000 = GaussianRational(0, Fraction(1, 1000))
        complex_idempotent = CMatrix([[1, i_over_1000, 0], [0, 0, 0], [0, 0, 1]])
        fractional = [matrix(False), matrix(True), nilpotent, idempotent, complex_idempotent]
        assert all(A._den != 1 for A in fractional)
        # A = iI: A v is imaginary for a real v, and A^2 v = -v real again
        turns_real = CMatrix.identity(3).scale(GaussianRational(0, 1))
        for A in fractional + [turns_real]:
            for v in vectors:
                for N in (0, 1, 60):
                    coeffs = solve(A, v, QFAC2).series(N).coeffs
                    assert coeffs == mat_vec_recurrence(A, v, N)
                    assert coeffs == entrywise_recurrence(A, v, N)
                    assert coeffs[0] == tuple(v)
        # A^3 = 0 ends the series in zero vectors
        assert solve(nilpotent, (1, 1, 1), FACTORIAL).series(5).coeffs[3:] == [
            tuple(GaussianRational(0) for _ in range(3))] * 3


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

    @pytest.mark.parametrize("where", ["last", "middle"])
    def test_wrong_coefficient_shows(self, monkeypatch, where):
        A = CMatrix([[0, 1, Fraction(1, 2)], [-1, 2, 1], [1, -1, 1]])
        exact = solve(A, (1, 0, -3), QFAC3)
        floats = solve(A.to_float(), (1.0, 0.0, -3.0), QFAC3)
        N = 12
        d_exact = (GaussianRational(0), GaussianRational(Fraction(1, 3), -2), GaussianRational(0))
        d_float = (0.0, 1e-3, 0.0)
        series = IVPSolution.series

        def perturbed(sol, order):
            s = series(sol, order)
            delta = d_exact if sol.backend == "exact" else d_float
            p = order if where == "last" else order // 2
            s.coeffs[p] = tuple(a + b for a, b in zip(s.coeffs[p], delta))
            return s

        monkeypatch.setattr(IVPSolution, "series", perturbed)
        want = vec_norm(d_exact)
        if where == "middle":
            # c_p + d also shifts A c_p by A d in the next residual
            want = max(want, vec_norm(mat_vec(A, d_exact)))
        assert residual_check(exact, N) == want
        assert residual_check(floats, N) > 0.0

    def test_imaginary_only_change_shows(self, monkeypatch):
        # a real series with i/3 added to one entry of its last coefficient
        # differs from the product in the imaginary numerators alone
        A = CMatrix([[1, 2], [0, 3]])
        sol = solve(A, (1, 1), QFAC2)
        d = GaussianRational(0, Fraction(1, 3))
        perturb_series(monkeypatch, lambda s: s.coeffs.__setitem__(
            -1, (s.coeffs[-1][0], s.coeffs[-1][1] + d)))
        assert residual_check(sol, 6) == abs(d) == 1 / 3

    @pytest.mark.parametrize("rows", [[[1, 2], [0, 3]],
                                      [[Fraction(1, 2), 1], [0, Fraction(-1, 3)]]],
                             ids=["integer", "fractional"])
    def test_denominator_only_change_shows(self, monkeypatch, rows):
        # the last coefficient keeps its integer numerators but goes from
        # over d to over d + 1: only the cross-multiplied comparison sees it
        sol = solve(CMatrix(rows), (1, 2), QFAC2)
        N = 7
        last = sol.series(N + 1).coeffs[-1]
        d = math.lcm(*(x.re.denominator for x in last))
        nums = [int(x.re * d) for x in last]
        assert all(x.im == 0 for x in last) and math.gcd(d + 1, *nums) == 1
        changed = tuple(GaussianRational(Fraction(k, d + 1)) for k in nums)
        perturb_series(monkeypatch, lambda s: s.coeffs.__setitem__(-1, changed))
        want = max(abs(float(x.re - y.re)) for x, y in zip(last, changed))
        assert residual_check(sol, N) == want > 0.0

    def test_difference_past_float_range_is_infinite(self, monkeypatch):
        sol = solve(CMatrix([[1, 2], [0, 3]]), (1, 1), FACTORIAL)
        big = GaussianRational(10**400)
        perturb_series(monkeypatch, lambda s: s.coeffs.__setitem__(
            1, (s.coeffs[1][0] + big, s.coeffs[1][1])))
        assert residual_check(sol, 4) == math.inf

    def test_random_4x4_exact(self):
        rng = random.Random(73)
        for _ in range(5):
            A = random_exact_matrix(4, rng)
            sol = solve(A, (1, 0, -3, 2), QFAC3)
            assert residual_check(sol, 60) == 0.0


def perturb_series(monkeypatch, change):
    """Make ``IVPSolution.series`` apply ``change`` to each series it builds."""
    series = IVPSolution.series

    def perturbed(sol, order):
        s = series(sol, order)
        change(s)
        return s

    monkeypatch.setattr(IVPSolution, "series", perturbed)


def random_exact_case(rng):
    """(rows, v, kind): an n x n exact matrix, n = 1..4, that is integer,
    fractional, complex, nilpotent or idempotent, and a vector of integer,
    fractional, complex or zero entries."""
    n = rng.randint(1, 4)

    def part():
        return Fraction(rng.randint(-6, 6), rng.randint(1, 5))

    def scalar(kind):
        if kind == "integer":
            return rng.randint(-4, 4)
        if kind == "fractional":
            return part()
        return GaussianRational(part(), part())

    kind = rng.choice(("integer", "fractional", "complex", "nilpotent", "idempotent"))
    entries = rng.choice(("integer", "fractional", "complex"))
    if kind in ("integer", "fractional", "complex"):
        rows = [[scalar(kind) for _ in range(n)] for _ in range(n)]
    elif kind == "nilpotent":
        # strictly upper triangular up to a permutation of the basis
        order = rng.sample(range(n), n)
        rows = [[scalar(entries) if order[i] < order[j] else 0 for j in range(n)]
                for i in range(n)]
    else:
        # the rank-one projector u w^T / (w . u)
        while True:
            u = [GaussianRational(0) + scalar(entries) for _ in range(n)]
            w = [GaussianRational(0) + scalar(entries) for _ in range(n)]
            d = sum((a * b for a, b in zip(w, u)), GaussianRational(0))
            if d:
                break
        rows = [[a * b / d for b in w] for a in u]
    vkind = rng.choice(("integer", "fractional", "complex", "zero"))
    v = tuple(0 if vkind == "zero" else scalar(vkind) for _ in range(n))
    return rows, v, kind


class TestSeriesParity:
    def test_random_cases_match_fraction_reference(self, monkeypatch):
        # the series and its residual against plain-Fraction references, with
        # no coefficient changed and then with one changed after it is built
        rng = random.Random(1515)
        change = []
        perturb_series(monkeypatch, lambda s: [f(s) for f in change])

        def set_entry(p, i, new):
            def f(s):
                c = list(s.coeffs[p])
                c[i] = new(GaussianRational(*scalar_pair(c[i])))
                s.coeffs[p] = tuple(c)
            return f

        def part():
            return Fraction(rng.choice((-1, 1)) * rng.randint(1, 9), rng.randint(1, 7))

        kinds, shown = Counter(), 0
        for _ in range(250):
            rows, v, kind = random_exact_case(rng)
            kinds[kind] += 1
            N = rng.randint(0, 25)
            A = CMatrix(rows)
            sol = solve(A, v, rng.choice((FACTORIAL, QFAC2)))
            change.clear()
            coeffs = sol.series(N).coeffs
            assert [[scalar_pair(x) for x in c] for c in coeffs] == \
                reference_solution_series(rows, v, N)
            assert residual_check(sol, N) == 0.0
            p, i = rng.randint(0, N + 1), rng.randrange(A.n)
            a, b = part(), part()
            new = rng.choice((
                lambda x: x + a,
                lambda x: x + GaussianRational(0, a),
                lambda x: x + GaussianRational(a, b),
                lambda x: GaussianRational(
                    Fraction(x.re.numerator, x.re.denominator + 1), x.im),
            ))
            change.append(set_entry(p, i, new))
            want = reference_residual(rows, sol.series(N + 1).coeffs)
            assert residual_check(sol, N) == want
            shown += want > 0.0
        assert min(kinds.values()) >= 30
        assert shown >= 150


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
