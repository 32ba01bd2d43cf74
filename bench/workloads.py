"""Seeded operation pools for the four workloads.

Each ``build_*`` function returns a list of :class:`Op`.  An op's ``run`` is the timed
call into momexp's public API; ``observe`` turns its output into a plain,
library-free record outside the timed region; ``check`` compares that
record with an independent reference (see ``reference.py``) and returns
``None`` when it is correct, or a reason string.

Reasons start with a category: ``converged_wrong``, ``wrong_status``,
``raised:<Exception>``, ``mismatch``.  Ops in a known-defect slice whose
reason falls in that slice's category set are counted as known defects;
every other non-``None`` reason is a failure.
"""

from __future__ import annotations

import contextlib
import io
import json
import math
import os
import random
import subprocess
import sys
from dataclasses import dataclass
from fractions import Fraction
from typing import Any, Callable, Optional

import numpy as np

import momexp as mx
import momexp.cli  # noqa: F401 -- binds mx.cli

import reference as ref

# slice -> categories of failure that are documented library defects
KNOWN_DEFECTS = {
    "cancellation": {"converged_wrong"},
    "near_radius": {"wrong_status", "converged_wrong"},
    "near_confluent": {"raised:ChainConstructionFailed"},
    "gaussian64": {"raised:ChainConstructionFailed"},
}


@dataclass
class Op:
    kind: str
    slice: str
    label: str
    run: Callable[[], Any]
    observe: Callable[[Any], Any]
    check: Callable[[Any], Optional[str]]
    warm: bool = False


def classify(op, reason):
    """'pass', 'known_defect' or 'fail' for a check reason."""
    if reason is None:
        return "pass"
    category = reason.split(" ", 1)[0]
    if category in KNOWN_DEFECTS.get(op.slice, ()):
        return "known_defect"
    return "fail"


def _lazy(fn):
    """Compute a reference once, on first use (after the timed loop)."""
    box = []

    def get():
        if not box:
            box.append(fn())
        return box[0]

    return get


def _np(m):
    return np.array(m.rows, dtype=complex)


def _pairs(m):
    return [[(x.re, x.im) for x in row] for row in m.rows]


def _observe_report(rep):
    value = None if rep.value is None else _np(rep.value)
    return rep.status, value, rep.terms_used


def _check_report(obs, want_value, expect_status="converged"):
    if isinstance(obs, Exception):
        return f"raised:{type(obs).__name__}"
    status, value, _terms = obs
    if status != expect_status:
        return f"wrong_status {status} (expected {expect_status})"
    if expect_status != "converged":
        return None
    if not ref.close(value, want_value()):
        err = ref.row_norm(value - want_value())
        return f"converged_wrong err={err:.3g} ref_norm={ref.row_norm(want_value()):.3g}"
    return None


def _unitary(rng, n):
    q, r = np.linalg.qr(rng.normal(size=(n, n)) + 1j * rng.normal(size=(n, n)))
    return q * (np.diag(r) / abs(np.diag(r)))


def _phase(rng):
    return np.exp(2j * np.pi * rng.uniform())


# -- float-eval ---------------------------------------------------------------

class _NormalCase:
    """A = Q diag(mu) Q^H with the reference for E(Az) in closed form."""

    def __init__(self, rng, n, spec, radius, z=None, mu=None):
        self.q = _unitary(rng, n)
        if z is None:
            z = rng.uniform(0.5, 1.5) * _phase(rng)
        if mu is None:
            mags = np.concatenate([[1.0], rng.uniform(0.1, 1.0, n - 1)])
            mu = radius * mags * np.array([_phase(rng) for _ in range(n)]) / abs(z)
        self.mu = np.asarray(mu, dtype=complex)
        self.z = complex(z)
        self.spec = spec
        self.a = (self.q * self.mu) @ self.q.conj().T
        self.A = mx.CMatrix.from_numpy(self.a)
        self.E = _lazy(self._reference)

    def _reference(self):
        # mpmath, not expm, for the cancellation slice (|mu z| >= 10)
        if self.spec == "factorial" and max(abs(self.mu * self.z)) < 10:
            return ref.expm(self.a * self.z)
        if self.spec == "geom:2":
            return ref.neumann(self.a * self.z, 2.0)
        return ref.normal_function(self.spec, self.q, self.mu, self.z)

    def expected_status(self):
        if self.spec == "geom:2" and self.E() is None:
            return "radius_exceeded"
        return "converged"


def _eval_op(case, seq, slice_="regular", warm=False):
    return Op(
        "eval", slice_, f"eval {case.spec} n={len(case.a)}",
        run=lambda: mx.eval_exp(case.A, case.z, seq),
        observe=_observe_report,
        check=lambda obs: _check_report(obs, case.E, case.expected_status()),
        warm=warm,
    )


def _vector_check(obs, want, what):
    if isinstance(obs, Exception):
        return f"raised:{type(obs).__name__}"
    if not ref.close(obs, want()):
        return f"converged_wrong {what} err={ref.row_norm(obs - want()):.3g}"
    return None


def build_float_eval(seed, small=False):
    rng = np.random.default_rng(seed)
    seqs = {s: mx.parse_specifier(s) for s in ("factorial", "ml:2", "qfac:2", "geom:2")}
    # The spectral radius of Az sets the term count, so it is fixed per slot
    # and the seed varies the eigenvectors, phases and the rest of the
    # spectrum: every seed then costs about the same.
    sizes = ((3, (0.5, 1.0, 1.5, 2.0, 2.5)), (10, (1.0, 1.4)), (30, (1.1, 1.25)))
    if small:
        sizes = ((3, (1.2,)),)
    ops = []
    for spec, seq in seqs.items():
        for n, radii in sizes:
            for i, radius in enumerate(radii):
                radius *= 0.6 if spec == "geom:2" else 1.0
                case = _NormalCase(rng, n, spec, radius)
                ops.append(_eval_op(case, seq, warm=(n == 3 and i == 0)))
    repeat = 1 if small else 2
    for spec in ("factorial", "ml:2", "qfac:2", "geom:2") * repeat:
        case = _NormalCase(rng, 3, spec, 0.8)
        v0 = tuple(complex(x) for x in rng.normal(size=3))
        sol = mx.solve(case.A, v0, seqs[spec])
        want = _lazy(lambda case=case, v0=v0: case.E() @ np.array(v0))
        ops.append(Op("solve", "regular", f"solve {spec}",
                      run=lambda z=case.z, sol=sol: sol(z),
                      observe=lambda y: np.array(y, dtype=complex),
                      check=lambda obs, want=want: _vector_check(obs, want, "y"),
                      warm=True))
    for spec in ("factorial", "ml:2", "qfac:2") * repeat:
        case = _NormalCase(rng, 3, spec, 1.5)
        ops.append(Op("norm_bound", "regular", f"norm_bound {spec}",
                      run=lambda case=case, seq=seqs[spec]: mx.norm_bound_check(
                          case.A, case.z, seq),
                      observe=dict,
                      check=lambda obs, case=case: _check_norm_bound(obs, case),
                      warm=True))
    for i in range(1 if small else 3):
        case = _NormalCase(rng, 3, "qfac:2", 0.5)
        sol = mx.solve(case.A, tuple(complex(x) for x in rng.normal(size=3)),
                       seqs["qfac:2"])
        zs = [0.05 + rng.uniform(0, 0.4), 1j * rng.uniform(0.05, 0.4)]
        ops.append(Op("qres", "regular", "q_derivative_residual qfac:2",
                      run=lambda sol=sol, zs=zs: mx.q_derivative_residual(sol, 2, zs),
                      observe=float,
                      check=lambda obs: None if not isinstance(obs, Exception)
                      and obs <= 1e-8 else f"mismatch q-residual {obs}",
                      warm=i == 0))
    for spec in ("ml:2", "qfac:2", "factorial")[: 1 if small else 3] * repeat:
        case = _NormalCase(rng, 3, spec, 1.0)
        x0 = rng.normal(size=(3, 3)) + 3 * np.eye(3)
        X0 = mx.CMatrix.from_numpy(x0)
        ops.append(Op("fundamental", "regular", f"recover_exponential {spec}",
                      run=lambda case=case, X0=X0, seq=seqs[spec]: mx.recover_exponential(
                          mx.fundamental_matrix(case.A, X0, seq), X0, case.z),
                      observe=_np,
                      check=lambda obs, case=case: _vector_check(obs, case.E, "E"),
                      warm=True))
    # Known defect: cancellation in the left half plane, ||Az|| 10..40.  The
    # certificate covers truncation only, so the status still says converged.
    for size in (20,) if small else (10, 20, 30, 40):
        mu = -size * np.array([1.0, 0.7, 0.35]) * np.exp(1j * rng.uniform(-0.3, 0.3, 3))
        case = _NormalCase(rng, 3, "factorial", 0, z=1.0, mu=mu)
        ops.append(_eval_op(case, seqs["factorial"], "cancellation"))
    # Known defect: geom:2 just inside the radius runs out of terms; just
    # outside it must report radius_exceeded.
    for frac in (1.005,) if small else (0.998, 1.005):
        mu = 2 * np.array([frac, 0.2 * _phase(rng), 0.1 * _phase(rng)])
        case = _NormalCase(rng, 3, "geom:2", 0, z=1.0, mu=mu)
        ops.append(_eval_op(case, seqs["geom:2"], "near_radius"))
    return ops


def _check_norm_bound(obs, case):
    if isinstance(obs, Exception):
        return f"raised:{type(obs).__name__}"
    if not obs["holds"]:
        return "mismatch norm bound does not hold"
    want = ref.row_norm(case.E())
    if abs(obs["lhs"] - want) > ref.RTOL * want + ref.ATOL:
        return f"converged_wrong lhs={obs['lhs']} ref={want}"
    return None


# -- exact-algebra ------------------------------------------------------------

EXAMPLE1 = [[1, 0, 1], [1, 2, 0], [0, 0, 1]]
EXAMPLE2 = [[0, 1, 1], [-1, 2, 1], [1, -1, 1]]


def _closed_power(which, p):
    """Closed forms of EXAMPLE1^p and EXAMPLE2^p (Fraction pairs)."""
    half = Fraction(1, 2)
    if which == 1:
        rows = [[1, 0, p], [2 ** p - 1, 2 ** p, 2 ** p - p - 1], [0, 0, 1]]
    else:
        rows = [
            [half * (p * p - 3 * p + 2), half * -(p - 3) * p, p],
            [half * (p - 3) * p, half * (-p * p + 3 * p + 2), p],
            [p, -p, 1],
        ]
    return [[(Fraction(x), Fraction(0)) for x in row] for row in rows]


def _random_int_matrix(rng, n, lo=-4, hi=4):
    return [[rng.randint(lo, hi) for _ in range(n)] for _ in range(n)]


def _banded_int_matrix(rng, n, lo, hi):
    """Random integer matrix whose spectral radius lies in [lo, hi]; the
    radius sets the growth of exact coefficients, hence the op's cost."""
    while True:
        a = _random_int_matrix(rng, n)
        if lo <= max(abs(np.linalg.eigvals(np.array(a, dtype=float)))) <= hi:
            return a


def _signed_permutation(base, rng):
    """D P base P^T D for a random permutation P and signs D.  Every power
    of the result is a signed permutation of the same power of base, so
    exact entries keep their sizes."""
    n = len(base)
    perm = list(range(n))
    rng.shuffle(perm)
    sign = [rng.choice((-1, 1)) for _ in range(n)]
    return [[sign[i] * sign[j] * base[perm[i]][perm[j]] for j in range(n)]
            for i in range(n)]


def _invertible_int_matrix(rng, n, cond_max):
    while True:
        p = _random_int_matrix(rng, n, -3, 3)
        pf = np.array(p, dtype=float)
        if abs(np.linalg.det(pf)) >= 0.5 and np.linalg.cond(pf) <= cond_max:
            return p


def _bool_check(what):
    def check(obs):
        if isinstance(obs, Exception):
            return f"raised:{type(obs).__name__}"
        return None if obs is True else f"mismatch {what} is not exact"
    return check


def _exact_jordan_check(obs, A, blocks):
    if isinstance(obs, Exception):
        return f"raised:{type(obs).__name__}"
    P, P_inv, got = obs
    n = len(P)
    J = [[(Fraction(0), Fraction(0))] * n for _ in range(n)]
    off = 0
    for (lam_re, lam_im), size in got:
        for i in range(size):
            J[off + i][off + i] = (lam_re, lam_im)
            if i + 1 < size:
                J[off + i][off + i + 1] = (Fraction(1), Fraction(0))
        off += size
    if ref.exact_mul(P, P_inv) != ref.exact_identity(n):
        return "mismatch P P_inv != I"
    if ref.exact_mul(A, P) != ref.exact_mul(P, J):
        return "mismatch A P != P J"
    want = sorted(((Fraction(l), Fraction(0)), s) for l, s in blocks)
    if sorted(got) != want:
        return f"mismatch blocks {got}"
    return None


def _jordan_blocks(n, lams=(2, -1, 3)):
    """(lam, size) blocks of total dimension n: sizes 3, 2, 1, 3, 2, 1, ...
    with eigenvalues taken in turn from lams.  The structure depends on n
    only, so it sets the same decomposition cost for every seed; the seed
    varies the similarity that hides it."""
    sizes = []
    left = n
    for s in (3, 2, 1) * n:
        if not left:
            break
        sizes.append(min(s, left))
        left -= sizes[-1]
    return [(lams[j % len(lams)], s) for j, s in enumerate(sizes)]


def build_exact_algebra(seed, small=False):
    rng = random.Random(seed)
    seqs = {s: mx.parse_specifier(s) for s in ("factorial", "qfac:2", "geom:2", "qfac:3")}
    ops = []
    # Five N = 40 slots make the top tenth of latencies one group of like
    # ops, and eight like residual checks do the same for the median, so
    # neither percentile falls between two unlike slots.
    orders = ((10, ("factorial", "qfac:2")),
              (20, ("factorial", "qfac:2")),
              (40, ("factorial", "qfac:2", "geom:2", "factorial", "qfac:2")))
    if small:
        orders = ((10, ("factorial", "qfac:2")),)
    for k, (N, specs) in enumerate(orders):
        for j, spec in enumerate(specs):
            # a fixed base per slot, so the coefficient sizes (the cost) are
            # the same for every seed; the seed picks a signed permutation
            base = _banded_int_matrix(random.Random(100 * k + j), 3, 4.0, 5.0)
            A = mx.CMatrix(_signed_permutation(base, rng))
            seq = seqs[spec]

            def run(A=A, seq=seq, N=N):
                prod = mx.cauchy_product(mx.inverse_series(A, seq, N),
                                         mx.exp_series(A, seq, N))
                return prod == mx.unit_series(seq, N, A)

            ops.append(Op("inverse_identity", "regular", f"inverse identity {spec} N={N}",
                          run=run, observe=bool, check=_bool_check("E^-1 E = 1"),
                          warm=N == 10))
    for which, base, p in ((1, EXAMPLE1, 45), (2, EXAMPLE2, 25)):
        M = mx.CMatrix(base)
        want = _closed_power(which, p)
        ops.append(Op("mat_pow", "regular", f"mat_pow example{which} p={p}",
                      run=lambda M=M, p=p: mx.mat_pow(M, p),
                      observe=_pairs,
                      check=lambda obs, want=want: None if obs == want
                      else f"mismatch mat_pow {obs if isinstance(obs, Exception) else ''}",
                      warm=True))
    base = _banded_int_matrix(random.Random(7), 3, 4.0, 5.0)
    N = 60
    for spec in (("factorial", "qfac:2", "qfac:3") * 3)[:8]:
        A = _signed_permutation(base, rng)
        v0 = tuple(rng.choice((-1, 1)) * x for x in (3, -2, 1))
        sol = mx.solve(mx.CMatrix(A), v0, seqs[spec])
        ops.append(Op("residual", "regular", f"residual_check {spec} N={N}",
                      run=lambda sol=sol, N=N: mx.residual_check(sol, N),
                      observe=float,
                      check=lambda obs: None if obs == 0.0 else f"mismatch residual {obs}",
                      warm=spec == "factorial"))
    for target in (0.6, 0.85, 1.5):
        a = _random_int_matrix(rng, 3)
        rho = max(abs(np.linalg.eigvals(np.array(a, dtype=float))))
        if rho == 0:
            a[0][0] = 1
            rho = max(abs(np.linalg.eigvals(np.array(a, dtype=float))))
        re = Fraction(2 * target / rho).limit_denominator(60)
        z = mx.GaussianRational(re * Fraction(4, 5), re * Fraction(3, 5))
        A = mx.CMatrix(a)
        ops.append(Op("neumann", "regular", f"geom Neumann rho/b~{target}",
                      run=lambda A=A, z=z: mx.eval_exp(A, z, seqs["geom:2"]),
                      observe=lambda rep: (rep.status, None if rep.value is None
                                           else _pairs(rep.value)),
                      check=lambda obs, a=a, z=z: _check_neumann(obs, a, z),
                      warm=True))
    for n in ((3, 4) if small else (3, 4, 5)):
        blocks = _jordan_blocks(n)
        P = _invertible_int_matrix(rng, n, 150.0)
        Pm = mx.CMatrix(P)
        A = Pm @ mx.assemble_jordan(blocks, "exact") @ Pm.inverse()
        mults = {}
        for lam, s in blocks:
            mults[lam] = mults.get(lam, 0) + s
        hint = sorted(mults.items())
        ops.append(Op("jordan_exact", "regular", f"exact jordan n={n}",
                      run=lambda A=A, hint=hint: mx.jordan_decompose(
                          A, eigenvalues_hint=hint),
                      observe=lambda dec: (_pairs(dec.P), _pairs(dec.P_inv),
                                           [((l.re, l.im), s) for l, s in dec.blocks]),
                      check=lambda obs, A=_pairs(A), blocks=blocks: _exact_jordan_check(
                          obs, A, blocks),
                      warm=n == 3))
    return ops


def _check_neumann(obs, a, z):
    if isinstance(obs, Exception):
        return f"raised:{type(obs).__name__}"
    status, value = obs
    zc = complex(z.re, z.im)
    inside = max(abs(np.linalg.eigvals(np.array(a, dtype=float) * zc / 2))) < 1
    if not inside:
        return None if status == "radius_exceeded" else f"wrong_status {status}"
    if status != "converged":
        return f"wrong_status {status}"
    # (I - Az/b) V == I, in plain Fractions
    n = len(a)
    m = [[((Fraction(i == j) - a[i][j] * z.re / 2), -a[i][j] * z.im / 2)
          for j in range(n)] for i in range(n)]
    if ref.exact_mul(m, value) != ref.exact_identity(n):
        return "mismatch (I - Az/b) V != I"
    return None


# -- jordan-crosscheck ----------------------------------------------------------

def _synthetic(rng, n, cond_max):
    """Float A = P J P^{-1} built exactly, with its exact P and blocks."""
    blocks = _jordan_blocks(n)
    P = _invertible_int_matrix(rng, n, cond_max)
    Pm = mx.CMatrix(P)
    A = (Pm @ mx.assemble_jordan(blocks, "exact") @ Pm.inverse()).to_float()
    return A, P, blocks


def _jordan_op(slice_, label, A, seq, z, want, expected_blocks, warm=False):
    def run():
        rep = mx.eval_exp(A, z, seq)
        dec = mx.jordan_decompose(A)
        jrep = mx.eval_via_jordan(dec, z, seq)
        # the library's default tolerance (1e-8) is absolute; ||A|| reaches
        # ~10^3 here, so it is applied relative to ||A||
        ver = mx.verify_decomposition(A, dec, tol=1e-8 * max(1.0, A.row_sum_norm()))
        return rep, dec, jrep, ver

    def observe(out):
        rep, dec, jrep, ver = out
        return (_observe_report(rep), _observe_report(jrep),
                [(complex(l), s) for l, s in dec.blocks], ver["ok"])

    def check(obs):
        if isinstance(obs, Exception):
            return f"raised:{type(obs).__name__}"
        series, via, blocks, ok = obs
        for what, o in (("series", series), ("jordan", via)):
            reason = _check_report(o, want)
            if reason:
                return f"{reason} path={what}"
        if not ok:
            return "mismatch verify_decomposition not ok"
        if expected_blocks is not None:
            got = sorted((round(l.real), s) for l, s in blocks)
            if got != sorted(expected_blocks) or any(
                    abs(l - round(l.real)) > 1e-6 for l, _ in blocks):
                return f"mismatch blocks {blocks}"
        return None

    return Op("jordan", slice_, label, run, observe, check, warm)


def build_jordan_crosscheck(seed, small=False):
    rng = random.Random(seed)
    nrng = np.random.default_rng(seed)
    specs = ("factorial", "ml:2", "qfac:2")
    seqs = {s: mx.parse_specifier(s) for s in specs}
    # (n, sequence) per slot.  The eight n = 6 qfac:2 slots put the median
    # inside one group of like ops, and the seven n = 12 slots do the same
    # for p90, so neither percentile falls between two unlike slots.
    slots = [(2, "factorial"), (3, "ml:2"), (4, "qfac:2"), (5, "factorial")]
    slots += [(6, "qfac:2")] * 8 + [(8, "ml:2"), (10, "factorial")]
    slots += [(12, specs[i % 3]) for i in range(7)]
    if small:
        slots = slots[:2]
    ops = []
    for i, (n, spec) in enumerate(slots):
        A, P, blocks = _synthetic(rng, n, 150.0 if n <= 6 else 300.0)
        theta = rng.uniform(0, 2 * math.pi)
        z = 2.0 / max(A.row_sum_norm(), 1.0) * complex(math.cos(theta), math.sin(theta))
        if spec == "factorial":
            a = np.array(A.rows, dtype=complex)
            want = _lazy(lambda a=a, z=z: ref.expm(a * z))
        else:
            want = _lazy(lambda spec=spec, P=P, blocks=blocks, z=z:
                         ref.similarity_function(spec, P, blocks, z))
        ops.append(_jordan_op("regular", f"jordan {spec} n={n}", A, seqs[spec], z,
                              want, blocks, warm=i < 3))
    # Known defect: eigenvalue pairs 1e-3..1e-2 apart are merged by the
    # clustering tolerance and the kernel staircase stalls.
    for i in range(1 if small else 3):
        n = 2 + i
        lam = np.array([1.0, 1.0 + nrng.uniform(1e-3, 8e-3)] + [3.0 + k for k in range(n - 2)])
        P = np.array(_invertible_int_matrix(rng, n, 50.0), dtype=float)
        a = P @ np.diag(lam) @ np.linalg.inv(P)
        A = mx.CMatrix.from_numpy(a)
        z = 0.5 * _phase(nrng)
        want = _lazy(lambda a=a, z=z: ref.expm(a * z))
        ops.append(_jordan_op("near_confluent", f"jordan near-confluent n={n}",
                              A, seqs["factorial"], z, want, None))
    # Known defect: a Gaussian 64 x 64 matrix has close eigenvalues that the
    # clustering merges.
    if not small:
        g = nrng.normal(size=(64, 64)) / 8.0
        A = mx.CMatrix.from_numpy(g)
        z = 1.5 / A.row_sum_norm()
        want = _lazy(lambda g=g, z=z: ref.expm(g * z))
        ops.append(_jordan_op("gaussian64", "jordan gaussian n=64",
                              A, seqs["factorial"], z, want, None))
    return ops


# -- cli ------------------------------------------------------------------------

def cli_subprocess(root, argv):
    """One CLI verb as ``python -m momexp.cli`` with src/ on the path."""
    pp = os.environ.get("PYTHONPATH")
    src = os.path.join(root, "src")
    env = dict(os.environ, PYTHONPATH=src + (os.pathsep + pp if pp else ""))
    proc = subprocess.run([sys.executable, "-m", "momexp.cli", *argv], cwd=root,
                          env=env, capture_output=True, text=True, timeout=120)
    return proc.returncode, proc.stdout


def cli_inprocess(argv):
    """One CLI verb through ``cli.main``, standard streams captured."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = mx.cli.main(list(argv))
    return code, out.getvalue()


def _doc(stdout):
    return json.loads(stdout) if stdout.strip() else None


def json_close(a, b, rtol=1e-12):
    if isinstance(a, dict) and isinstance(b, dict):
        return a.keys() == b.keys() and all(json_close(a[k], b[k], rtol) for k in a)
    if isinstance(a, list) and isinstance(b, list):
        return len(a) == len(b) and all(json_close(x, y, rtol) for x, y in zip(a, b))
    if isinstance(a, float) or isinstance(b, float):
        if not isinstance(a, (int, float)) or not isinstance(b, (int, float)):
            return False
        if isinstance(a, bool) or isinstance(b, bool):
            return a == b
        return a == b or abs(a - b) <= rtol * max(abs(a), abs(b))
    return a == b


def build_cli(seed, root, workdir, small=False):
    """CLI verbs on generated JSON files, timed through ``cli.main``.

    Interpreter start and ``import momexp`` are not part of an op: on a
    shared host they vary too much from run to run to bound a regression.
    They are in ``setup_s`` and in the traced ``cli.interpreter_s`` and
    ``cli.import_s``.  Each verb's real subprocess run is the reference its
    in-process output and exit code must match.
    """
    rng = random.Random(seed)
    nrng = np.random.default_rng(seed)
    os.makedirs(workdir, exist_ok=True)
    counter = [0]

    def write(obj):
        counter[0] += 1
        path = os.path.join(workdir, f"in{counter[0]:02d}.json")
        with open(path, "w") as fh:
            json.dump(obj, fh)
        return path

    def cz(z):  # passed as --z=re,im: a leading minus would read as an option
        return f"{z.real!r},{z.imag!r}"

    def normal(spec, radius):
        return _NormalCase(nrng, 3, spec, radius)

    specs = []  # (label, argv, expected exit code)
    for spec in ("factorial", "ml:2", "qfac:2", "geom:2"):
        c = normal(spec, 1.0)
        specs.append((f"eval series {spec}", ["eval", "--matrix", write(mx.matrix_to_json(c.A)),
                                              f"--z={cz(c.z)}", "--moment", spec], 0))
    synth = []
    for n in (3, 4, 3, 4, 4, 3):
        A, _P, _blocks = _synthetic(rng, n, 150.0)
        synth.append((A, write(mx.matrix_to_json(A))))
    for i, path in enumerate(("jordan", "jordan", "both", "both")):
        A, f = synth[i]
        scale = max(A.row_sum_norm(), 1.0)
        z = complex(1.0 / scale, rng.uniform(-0.3, 0.3) / scale)
        spec = ("factorial", "qfac:2")[i % 2]
        specs.append((f"eval {path} {spec}", ["eval", "--matrix", f, f"--z={cz(z)}",
                                              "--moment", spec, "--path", path], 0))
    out = normal("geom:2", 2.5)
    specs.append(("eval geom outside radius",
                  ["eval", "--matrix", write(mx.matrix_to_json(out.A)),
                   f"--z={cz(out.z)}", "--moment", "geom:2"], 3))
    for _ in range(2):
        c = normal("qfac:2", 0.5)
        v0 = json.dumps([[float(x), 0.0] for x in nrng.normal(size=3)])
        specs.append(("solve qres", ["solve", "--matrix", write(mx.matrix_to_json(c.A)),
                                     "--moment", "qfac:2", "--v0", v0, "--z", "0.25",
                                     "--z", "0,0.2", "--check", "qres"], 0))
    for spec in ("factorial", "qfac:2"):
        A = mx.CMatrix(_random_int_matrix(rng, 3))
        v0 = json.dumps([[str(rng.randint(-3, 3)), "0"] for _ in range(3)])
        specs.append((f"solve residual {spec}",
                      ["solve", "--matrix", write(mx.matrix_to_json(A)), "--moment", spec,
                       "--v0", v0, "--z", "0.3", "--check", "residual", "--order", "30"], 0))
    for A, f in synth[4:6]:
        specs.append(("jordan", ["jordan", "--matrix", f], 0))
    for A, f in synth[2:4]:
        dec = mx.jordan_decompose(A)
        doc = {"blocks": [[l.real, l.imag, s] for l, s in dec.blocks],
               "P": mx.matrix_to_json(dec.P), "P_inv": mx.matrix_to_json(dec.P_inv)}
        specs.append(("verify-jordan", ["verify-jordan", "--matrix", f,
                                        "--decomposition", write(doc)], 0))
    for spec in ("qfac:2", "ml:2"):
        specs.append((f"series phi {spec}", ["series", "--op", "phi", "--moment", spec,
                                             "--order", "20"], 0))
    exactA = mx.CMatrix(_random_int_matrix(rng, 3))
    fA = write(mx.matrix_to_json(exactA))
    for spec in ("factorial", "geom:2"):
        specs.append((f"series inverse {spec}", ["series", "--op", "inverse", "--matrix", fA,
                                                 "--moment", spec, "--order", "10"], 0))
    seq = mx.parse_specifier("qfac:2")
    series_docs = [
        {"sequence": "qfac:2", "coeffs": [mx.matrix_to_json(c) for c in s.coeffs]}
        for s in (mx.inverse_series(exactA, seq, 8), mx.exp_series(exactA, seq, 8))
    ]
    specs.append(("series product", ["series", "--op", "product",
                                     "--series", write(series_docs[0]),
                                     "--series2", write(series_docs[1])], 0))
    for spec in ("ml:2", "geom:2", "qfac:2"):
        specs.append((f"probe {spec}", ["probe", "--moment", spec], 0))
    if small:
        specs = specs[:3] + specs[-2:]

    ops = []
    for i, (label, argv, code) in enumerate(specs):
        want = _lazy(lambda argv=argv: cli_subprocess(root, argv))

        def check(obs, want=want, code=code):
            if isinstance(obs, Exception):
                return f"raised:{type(obs).__name__}"
            got_code, stdout = obs
            sub_code, sub_out = want()
            if got_code != code or sub_code != code:
                return f"mismatch exit {sub_code} (in-process {got_code}, expected {code})"
            if not json_close(_doc(stdout), _doc(sub_out)):
                return "mismatch in-process stdout differs from the subprocess"
            return None

        ops.append(Op("cli", "regular", label,
                      run=lambda argv=argv: cli_inprocess(argv),
                      observe=lambda out: out, check=check, warm=i == 0))
    return ops
