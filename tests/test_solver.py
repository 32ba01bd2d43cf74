import math
import random
from collections import Counter
from fractions import Fraction
from types import SimpleNamespace

import numpy as np
import pytest

import momexp.matrices as matrices
import momexp.solver as solver
from momexp import (
    BackendMismatch,
    CMatrix,
    GaussianRational,
    IVPSolution,
    MomentSequence,
    SingularMatrix,
    TruncationPolicy,
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


def matrix_path(A, z, seq, v, policy=TruncationPolicy()):
    """E(Az) v the way ``evaluate_report`` formed it before it summed the
    vector series: the whole matrix E(Az), then one product with v."""
    rep = eval_exp(A, z, seq, policy)
    if rep.status == "converged":
        rep.value = mat_vec(rep.value, v)
    return rep


def peak_vector_term(A, z, seq, v, K):
    """max over p <= K of ||(Az)^p v / m(p)||, the vector series' largest term."""
    a, t = np.array(A.rows) * z, np.array(v, dtype=complex)
    peak = vec_norm(t)
    for p in range(1, K + 1):
        t = a @ t * seq.float_step_ratio(p)
        peak = max(peak, vec_norm(t))
    return peak


def random_float_case(rng, n, shape, radius):
    """(A, v): A normal (unitary eigenvectors) or upper triangular with
    spectral radius ``radius``, and a complex Gaussian v."""
    def phases(k):
        return np.exp(2j * np.pi * rng.uniform(size=k))

    mu = radius * np.concatenate([[1.0], rng.uniform(0.1, 1.0, n - 1)]) * phases(n)
    if shape == "normal":
        q, _ = np.linalg.qr(rng.normal(size=(n, n)) + 1j * rng.normal(size=(n, n)))
        a = (q * mu) @ q.conj().T
    else:
        a = np.diag(mu) + np.triu(rng.normal(size=(n, n)) * phases(n), 1) * radius / n
    v = rng.normal(size=n) + 1j * rng.normal(size=n)
    return CMatrix.from_numpy(a), tuple(complex(x) for x in v)


ONES = MomentSequence.custom(["1"] * 400, rapid_growth_declared=False)
VECTOR_FAMILIES = {"factorial": FACTORIAL, "ml:2": ML2,
                   "ml:3": MomentSequence.mittag_leffler(3), "qfac:2": QFAC2,
                   "geom:2": MomentSequence.geometric(2), "custom": ONES}
U = 2.0**-53


class TestVectorSeries:
    """``evaluate_report`` sums sum_p (Az)^p v_c / m(p) itself; it must give
    the status of the matrix path E(Az) v_c and, for a converged float sum,
    its value up to rounding: 1e-12 relative plus 100 u times the peak term
    over the result (the cancellation the vector series carries)."""

    @pytest.mark.parametrize("shape", ["normal", "triangular"])
    @pytest.mark.parametrize("n", [1, 3, 10, 30])
    @pytest.mark.parametrize("spec", list(VECTOR_FAMILIES))
    def test_float_matches_matrix_path(self, spec, n, shape):
        seq = VECTOR_FAMILIES[spec]
        rng = np.random.default_rng([n, len(spec), shape == "normal"])
        # |Az| inside the radius of the finite-radius families
        radius = {"geom:2": 1.2, "custom": 0.6}.get(spec, 2.5)
        A, v = random_float_case(rng, n, shape, radius)
        z = complex(np.exp(1j * rng.uniform(0, 2 * np.pi)))
        got, want = solve(A, v, seq).evaluate_report(z), matrix_path(A, z, seq, v)
        assert got.status == want.status == "converged"
        assert all(type(x) is complex for x in got.value)
        res = vec_norm(want.value)
        peak = peak_vector_term(A, z, seq, v, got.terms_used)
        err = vec_norm(tuple(a - b for a, b in zip(got.value, want.value)))
        assert err <= (1e-12 + 100 * U * peak / res) * res

    @pytest.mark.parametrize("rows, v, z, seq, policy, status", [
        # geometric outside its radius, rho(Az/b) = 1.5
        ([[3.0, 1.0], [0.0, 1.0]], (1.0, 1.0), 1.0, MomentSequence.geometric(2),
         TruncationPolicy(), "radius_exceeded"),
        # a summed series past its radius: five growing terms in a row
        ([[1.5, 0.2], [0.1, -0.5]], (1.0, -2.0), 1.0, ONES, TruncationPolicy(),
         "radius_exceeded"),
        ([[2.0, 1.0], [-1.0, 3.0]], (1.0, 2.0), 1.5, FACTORIAL,
         TruncationPolicy(max_terms=5), "max_terms_reached"),
        ([[2.0, 1.0], [-1.0, 3.0]], (1.0, 2.0), 2.0, ML2,
         TruncationPolicy(max_terms=8), "max_terms_reached"),
        # rho = 1 exactly: a rotation and P J_2(-1) P^-1, float rho just below 1
        ([[Fraction(5, 13), Fraction(-12, 13)], [Fraction(12, 13), Fraction(5, 13)]], (1, 2),
         1, MomentSequence.geometric(1), TruncationPolicy(), "radius_exceeded"),
        ([[-4, 1], [-9, 2]], (1, 2), 1, MomentSequence.geometric(1), TruncationPolicy(),
         "radius_exceeded"),
    ], ids=["geom-radius", "custom-radius", "factorial-max-terms", "ml2-max-terms",
            "geom-exact-rotation", "geom-exact-defective"])
    def test_same_failure_as_matrix_path(self, rows, v, z, seq, policy, status):
        A = CMatrix(rows)
        sol = solve(A, v, seq, policy)
        assert sol.evaluate_report(z).status == matrix_path(A, z, seq, v, policy).status == status

    def test_sigma_rule_inside_radius_sums_the_terms(self):
        # rho(Az) = 0.5 < 1 but I - Az fails sigma_min <= 1e-12 sigma_max:
        # the vector series is summed, as the matrix series is
        A, v, seq = CMatrix([[0.5, 1e13], [0.0, 0.5]]), (1.0, 1.0), MomentSequence.geometric(1)
        got, want = solve(A, v, seq).evaluate_report(1.0), matrix_path(A, 1.0, seq, v)
        assert got.status == want.status == "converged" and got.terms_used > 0
        assert all(abs(g - w) <= 1e-12 * abs(w) for g, w in zip(got.value, want.value))
        assert all(abs(g - w) <= 1e-12 * abs(w) for g, w in zip(got.value, (4e13 + 2, 2)))

    @pytest.mark.parametrize("rows", [
        # P J_2(1 - 1e-12) P^-1: rho = 1 - 1e-12, float rho 1 + 3.8e-8
        [[Fraction(-2 * 10**12 - 1, 10**12), 1], [-9, Fraction(4 * 10**12 - 1, 10**12)]],
        [[0, 10**400], [0, 0]],  # nilpotent, past the float range
    ], ids=["contraction-near-one", "nilpotent-past-float-range"])
    def test_exact_neumann_inside_radius(self, rows):
        A = CMatrix(rows)
        rep = solve(A, (1, 2), MomentSequence.geometric(1)).evaluate_report(1)
        assert rep.status == "converged"
        inv = (CMatrix.identity(2) - A).inverse()
        assert rep.value == tuple(sum(x * y for x, y in zip(r, (1, 2))) for r in inv.rows)

    @pytest.mark.parametrize("seq", [FACTORIAL, QFAC2, MomentSequence.geometric(3),
                                     MomentSequence.custom(["1", "2", "5", "7", "9"], True)],
                             ids=["factorial", "qfac:2", "geom:3", "custom"])
    def test_exact_nilpotent_equals_matrix_path(self, seq):
        rng = random.Random(1601)
        for _ in range(40):
            rows, v, kind = random_exact_case(rng)
            while kind != "nilpotent":
                rows, v, kind = random_exact_case(rng)
            A = CMatrix(rows)
            z = rng.choice((0, 1, Fraction(-3, 2), GaussianRational(Fraction(1, 2), 2)))
            got, want = solve(A, v, seq).evaluate_report(z), matrix_path(A, z, seq, v)
            assert got.status == want.status == "converged"
            assert got.value == want.value
            assert all(type(x) is GaussianRational for x in got.value)

    def test_exact_nilpotent_invariant_subspace_converges(self):
        # A v = e1 and A^2 v = 0, though A itself is not nilpotent
        A = CMatrix([[0, 1, 0], [0, 0, 0], [0, 0, 2]])
        v, z = (0, 1, 0), Fraction(3, 2)
        for seq in (FACTORIAL, QFAC2):  # m(1) = 1
            rep = solve(A, v, seq).evaluate_report(z)
            assert (rep.status, rep.value) == ("converged", (z, 1, 0))
            assert matrix_path(A, z, seq, v).status == "max_terms_reached"
        rep = solve(A, v, MomentSequence.custom(["1", "3", "4"], True)).evaluate_report(z)
        assert (rep.status, rep.value, rep.terms_used) == ("converged", (Fraction(1, 2), 1, 0), 2)


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
        krylov = solver.krylov

        def perturbed(A, v, order):
            coeffs = krylov(A, v, order)
            delta = d_exact if A.backend == "exact" else d_float
            p = order if where == "last" else order // 2
            coeffs[p] = tuple(a + b for a, b in zip(coeffs[p], delta))
            return coeffs

        monkeypatch.setattr(solver, "krylov", perturbed)
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

    def test_float_converts_A_once_per_product(self, monkeypatch):
        # krylov converts A once for the series and krylov_mismatches once
        # for the check, at any order (each column was one conversion)
        rng = np.random.default_rng(30)
        n, N = 30, 40
        z = rng.standard_normal((2, n + 1, n)) / n
        A = CMatrix((z[0, :n] + 1j * z[1, :n]).tolist())
        v = tuple((z[0, n] + 1j * z[1, n]).tolist())
        sol = solve(A, v, FACTORIAL)
        calls = []
        to_numpy = CMatrix.to_numpy
        monkeypatch.setattr(CMatrix, "to_numpy", lambda m: calls.append(m) or to_numpy(m))
        assert residual_check(sol, N) == 0.0
        assert len(calls) == 2
        vs = matrices.krylov(A, v, N + 1)
        p = N // 2
        vs[p] = tuple(x * (1 + 1e-3) for x in vs[p])
        calls.clear()
        got = matrices.krylov_mismatches(A, vs)
        assert len(calls) == 1
        assert got == [(vs[p], mat_vec(A, vs[p - 1])), (vs[p + 1], mat_vec(A, vs[p]))]

    def test_random_4x4_exact(self):
        rng = random.Random(73)
        for _ in range(5):
            A = random_exact_matrix(4, rng)
            sol = solve(A, (1, 0, -3, 2), QFAC3)
            assert residual_check(sol, 60) == 0.0


def perturb_series(monkeypatch, change):
    """Make ``change`` edit the ``coeffs`` of each solution series that
    ``residual_check`` and ``IVPSolution.series`` take from ``krylov``."""
    krylov = solver.krylov

    def perturbed(A, v, order):
        s = SimpleNamespace(coeffs=krylov(A, v, order))
        change(s)
        return s.coeffs

    monkeypatch.setattr(solver, "krylov", perturbed)


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

    def test_q_one_rejected(self):
        sol = solve(CMatrix([[1.0]]), (1.0,), QFAC2)
        with pytest.raises(ValueError, match="q != 1"):
            q_derivative_residual(sol, 1, [0.3])

    def test_two_evaluations_per_point(self, monkeypatch):
        # y(qz) and y(z), with y(z) reused for A y(z)
        sol = solve(EXAMPLE2, (1.0, -1.0, 2.0), QFAC2)
        zs, seen = [0.1, 0.25, 0.5j], []
        evaluate = IVPSolution.evaluate_report

        def counted(self, z):
            seen.append(z)
            return evaluate(self, z)

        monkeypatch.setattr(IVPSolution, "evaluate_report", counted)
        assert q_derivative_residual(sol, 2, zs) <= 1e-8
        assert Counter(seen) == Counter([complex(z) for z in zs] + [2 * z for z in zs])

    def test_no_krylov_product(self, monkeypatch):
        # A y(z) is the solution's own numpy product, not mat_vec or krylov
        sol = solve(EXAMPLE2, (1.0, -1.0, 2.0), QFAC2)

        def refuse(*args):
            raise AssertionError("q_derivative_residual used the Krylov product")

        for module, name in ((matrices, "mat_vec"), (matrices, "krylov"), (solver, "krylov")):
            monkeypatch.setattr(module, name, refuse)
        assert q_derivative_residual(sol, 2, [0.1, 0.25, 0.5j]) <= 1e-8
