"""momexp benchmark: one closed-loop client over a seeded pool of operations.

    python3 bench/run.py --workload float-eval --seed 1 --seconds 20 --trace 0

Run from the root of a source checkout; momexp is imported from ``src/``.
The client is single-threaded: the next operation starts only when the
previous one has returned.  Every output is checked against an independent
reference after the timed loop; see ``workloads.py`` and ``reference.py``.

``--trace 0`` prints the end-to-end metrics, ``--trace 1`` runs every
operation once untraced and once under the span recorder of ``tracing.py``
and prints per-layer metrics, normalised to one pass over the pool.  The
last line of standard output is one JSON object with the keys ``correct``,
``attempted``, ``failed`` and ``metrics``.  Everything else (host facts,
sample counts, per-slice counts, the span dump) goes to the lines above it
and to ``.bench_out/``.
"""

from __future__ import annotations

import argparse
import bisect
import json
import os
import platform
import random
import resource
import shutil
import statistics
import subprocess
import sys
import time
from collections import Counter, defaultdict
from fractions import Fraction

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SRC = os.path.join(ROOT, "src")
OUT = os.path.join(ROOT, ".bench_out")
WORKLOADS = ("float-eval", "exact-algebra", "jordan-crosscheck", "cli")
SETUP_SAMPLES = 5
clock = time.perf_counter

# The speed of a shared host can swing twofold within seconds, and CPU time
# swings with it.  So a fixed pure-Python loop is timed between operations
# (at most every CAL_EVERY seconds) and each measured time is scaled by
# CAL_REF / (loop time around it): times are reported at the speed at which
# the loop takes CAL_REF seconds.  The loop does not touch momexp.
CAL_REF = 0.75e-3
CAL_EVERY = 0.03


def _calibration_loop():
    """Fraction arithmetic and a 16 x 16 complex matmul over tuples: the
    two kinds of work momexp does, done without it."""
    s = Fraction(0)
    a = Fraction(3, 7)
    for i in range(1, 60):
        s += a * Fraction(i, i + 1)
    n = 16
    rows = tuple(tuple(complex(i - j, i * j % 7) for j in range(n)) for i in range(n))
    out = []
    for i in range(n):
        ai = rows[i]
        row = []
        for j in range(n):
            t = ai[0] * rows[0][j]
            for k in range(1, n):
                t = t + ai[k] * rows[k][j]
            row.append(t)
        out.append(tuple(row))
    return s, out


def calibrate():
    t0 = clock()
    _calibration_loop()
    return clock() - t0


class SpeedLog:
    """Calibration times stamped with when they were taken."""

    def __init__(self):
        self.stamps = []
        self.times = []

    def sample(self, force=False):
        if force or not self.stamps or clock() - self.stamps[-1] >= CAL_EVERY:
            dt = calibrate()
            self.stamps.append(clock())
            self.times.append(dt)

    def factor(self, t0, t1):
        """CAL_REF over the median loop time of the three samples on each
        side of the interval [t0, t1]."""
        lo = bisect.bisect_right(self.stamps, t0)
        hi = bisect.bisect_left(self.stamps, t1)
        near = self.times[max(lo - 3, 0):lo] + self.times[hi:hi + 3]
        return CAL_REF / statistics.median(near)


class BenchError(Exception):
    """The benchmark cannot run here; reported on stderr with exit code 2."""


def parse_args(argv=None):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True, choices=WORKLOADS)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, default=20.0)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--small", action="store_true",
                   help="smallest sizes only (used by the self-test)")
    p.add_argument("--setup-only", action="store_true",
                   help="set up, print the set-up time as JSON and exit")
    return p.parse_args(argv)


# -- set-up -------------------------------------------------------------------

def setup(workload, seed, small, workdir):
    """Import momexp, build the inputs, run one warm-up pass.

    Returns (ops, seconds).  The clock starts before
    ``import momexp``, so the time covers import, input construction and
    the warm-up that fills the MomentSequence caches.  The time is scaled
    by the calibration loop run just before and just after.
    """
    before = statistics.median(calibrate() for _ in range(5))
    t0 = clock()
    if not os.path.isfile(os.path.join(SRC, "momexp", "__init__.py")):
        raise BenchError(f"no momexp package under {SRC}")
    if SRC not in sys.path:
        sys.path.insert(0, SRC)
    import momexp

    if not os.path.abspath(momexp.__file__).startswith(SRC + os.sep):
        raise BenchError(f"momexp imported from {momexp.__file__}, not {SRC}")
    import workloads as wl

    if workload == "float-eval":
        ops = wl.build_float_eval(seed, small)
    elif workload == "exact-algebra":
        ops = wl.build_exact_algebra(seed, small)
    elif workload == "jordan-crosscheck":
        ops = wl.build_jordan_crosscheck(seed, small)
    else:
        ops = wl.build_cli(seed, ROOT, workdir, small)
    for op in ops:
        if op.warm:
            try:
                op.run()
            except Exception:  # rechecked in the timed loop
                pass
    raw = clock() - t0
    after = statistics.median(calibrate() for _ in range(5))
    return ops, raw * CAL_REF / ((before + after) / 2)


def setup_in_fresh_interpreter(args):
    cmd = [sys.executable, os.path.abspath(__file__), "--workload", args.workload,
           "--seed", str(args.seed), "--setup-only"]
    if args.small:
        cmd.append("--small")
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=170)
    if proc.returncode != 0:
        raise BenchError(f"set-up in a fresh interpreter failed:\n{proc.stderr}")
    return json.loads(proc.stdout.strip().splitlines()[-1])["setup_s"]


# -- the closed loop ------------------------------------------------------------

def _execute(op):
    t0 = clock()
    try:
        out = op.run()
    except Exception as exc:  # a raising op is an outcome; the gate judges it
        out = _detach(exc)
    return clock() - t0, out


def _detach(exc):
    """The exception alone: a kept traceback would keep the op's frames,
    and their matrices, alive until the gate runs."""
    exc.__traceback__ = exc.__context__ = exc.__cause__ = None
    return exc


def _observe(op, out):
    if isinstance(out, Exception):
        return out
    try:
        return op.observe(out)
    except Exception as exc:
        return _detach(exc)


def run_loop(ops, seconds, seed, tracer=None):
    """Closed loop over the pool in seeded shuffled passes.

    Passes are whole: the loop stops at the first pass boundary after
    ``seconds``, so every op of the pool weighs the same in each metric.
    Timed mode records (op index, scaled latency, observation).  Trace mode
    runs each op untraced and traced, alternating which goes first, and
    keeps the traced observation with its raw latency.
    """
    rng = random.Random(seed * 7919 + 1)
    records = []
    spans = []  # (t0, t1) of each timed op
    pairs = []  # (untraced s, traced s)
    order = []
    speed = SpeedLog()
    start = clock()
    while True:
        if not order:
            if records and clock() - start >= seconds:
                break
            order = list(range(len(ops)))
            rng.shuffle(order)
        i = order.pop()
        op = ops[i]
        if tracer is None:
            speed.sample()
            t0 = clock()
            dt, out = _execute(op)
            spans.append((t0, t0 + dt))
            records.append((i, dt, _observe(op, out)))
            continue
        times = {}
        traced_first = len(pairs) % 2 == 1
        for traced in (traced_first, not traced_first):
            if traced:
                tracer.op = i
                tracer.install()
            t0 = clock()
            try:
                out = op.run()
            except Exception as exc:
                out = _detach(exc)
            times[traced] = clock() - t0
            if traced:
                tracer.uninstall()
                tracer.op = None
                records.append((i, times[traced], _observe(op, out)))
        pairs.append((times[False], times[True]))
    elapsed = clock() - start
    if tracer is None:
        speed.sample(force=True)
        records = [(i, dt * speed.factor(t0, t1), obs)
                   for (i, dt, obs), (t0, t1) in zip(records, spans)]
    return records, pairs, elapsed


# -- metrics --------------------------------------------------------------------

def percentile(sorted_values, q):
    """Linear interpolation between closest ranks (inclusive method)."""
    if len(sorted_values) == 1:
        return sorted_values[0]
    pos = q * (len(sorted_values) - 1)
    lo = int(pos)
    hi = min(lo + 1, len(sorted_values) - 1)
    return sorted_values[lo] + (sorted_values[hi] - sorted_values[lo]) * (pos - lo)


def gate(ops, records):
    """Check every observation; returns (per-record outcome, reason) lists."""
    import workloads as wl

    outcomes = []
    for i, _dt, obs in records:
        op = ops[i]
        try:
            reason = op.check(obs)
        except Exception as exc:
            reason = f"check_error {type(exc).__name__}: {exc}"
        outcomes.append((wl.classify(op, reason), reason))
    return outcomes


def host_facts(seed):
    facts = {"nproc": os.cpu_count(), "cpu_model": "unknown",
             "python": platform.python_version(), "seed": seed,
             "commit": _git_commit()}
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    facts["cpu_model"] = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    for mod in ("numpy", "scipy", "mpmath"):
        try:
            facts[mod] = __import__(mod).__version__
        except ImportError:
            facts[mod] = "missing"
    return facts


def _git_commit():
    """HEAD of the checkout read from .git, or 'unknown' outside a repository."""
    head = os.path.join(ROOT, ".git", "HEAD")
    try:
        with open(head) as fh:
            ref = fh.read().strip()
        if not ref.startswith("ref: "):
            return ref
        name = ref[5:]
        path = os.path.join(ROOT, ".git", name)
        if os.path.exists(path):
            with open(path) as fh:
                return fh.read().strip()
        with open(os.path.join(ROOT, ".git", "packed-refs")) as fh:
            for line in fh:
                if line.rstrip().endswith(" " + name):
                    return line.split()[0]
    except OSError:
        pass
    return "unknown"


def slice_table(ops, outcomes, records):
    table = defaultdict(Counter)
    for (i, _dt, _obs), (outcome, _reason) in zip(records, outcomes):
        table[ops[i].slice]["attempted"] += 1
        table[ops[i].slice][outcome] += 1
    return {k: dict(v) for k, v in sorted(table.items())}


def end_to_end(records, outcomes, setup_samples, rss_mb):
    lat = sorted(dt * 1e3 for _i, dt, _obs in records)
    n = len(records)
    passed = sum(1 for o, _ in outcomes if o == "pass")
    return {
        "throughput_ops_s": (n / (sum(lat) / 1e3), "1/s"),
        "latency_p50_ms": (percentile(lat, 0.5), "ms"),
        "latency_p90_ms": (percentile(lat, 0.9), "ms"),
        "pass_ratio": (passed / n, "ratio"),
        "setup_s": (statistics.median(setup_samples), "s"),
        "peak_rss_mb": (rss_mb, "MB"),
    }


PER_LAYER_SELF = [
    "matrices.matmul_float", "matrices.matmul_exact", "matrices.add", "matrices.scale",
    "matrices.inverse", "matrices.det", "matrices.row_sum_norm", "moments.value",
    "moments.step_ratio", "evaluation.eval_exp", "evaluation.delta_E",
    "evaluation.eval_via_jordan", "series.cauchy_product", "series.inverse_series",
    "series.exp_series", "series.phi_coefficients", "jordan.jordan_decompose",
    "jordan.eigenvalues", "jordan.verify_decomposition", "jordan.exact",
    "solver.ivp_call", "solver.residual_check", "solver.q_derivative_residual",
    "solver.fundamental_matrix",
]
PER_LAYER_CALLS = [
    "matrices.matmul_float", "matrices.matmul_exact", "moments.value",
    "moments.step_ratio", "evaluation.eval_exp", "evaluation.delta_E",
]
# Counts computed from arguments and results; they repeat exactly for one
# seed and one program, so a later change may name them in a count claim.
COMPUTED = [
    "matrices.scalar_mults_float", "matrices.scalar_mults_exact",
    "series.coeff_products", "evaluation.terms_used.sum",
    "evaluation.delta_E.terms_sum", "evaluation.status.converged",
    "evaluation.status.radius_exceeded", "evaluation.status.max_terms_reached",
    "evaluation.status.aborted_divergent",
]


def interpreter_costs():
    """Median wall time of a bare interpreter and of `import momexp`."""
    env = dict(os.environ, PYTHONPATH=SRC)

    def median_run(code):
        ts = []
        for _ in range(3):
            t0 = clock()
            subprocess.run([sys.executable, "-c", code], cwd=ROOT, env=env,
                           check=True, capture_output=True, timeout=60)
            ts.append(clock() - t0)
        return statistics.median(ts)

    bare = median_run("pass")
    return bare, max(median_run("import momexp") - bare, 0.0)


def per_layer(ops, tracer, records, outcomes, pairs):
    execs = Counter(i for i, _dt, _obs in records)
    per_pass = defaultdict(float)
    for (op, name), (calls, self_s) in tracer.self_times().items():
        if op is None:
            continue
        per_pass[f"{name}.calls"] += calls / execs[op]
        per_pass[f"{name}.self_s"] += self_s / execs[op]
    for (op, name), total in tracer.totals().items():
        if op is not None:
            per_pass[f"{name}.total_s"] += total / execs[op]
    for (op, name), value in tracer.counts.items():
        if op is not None:
            per_pass[name] += value / execs[op]
    by_outcome = defaultdict(float)
    for (i, _dt, _obs), (outcome, reason) in zip(records, outcomes):
        share = 1.0 / execs[i]
        if reason is not None and reason.startswith("converged_wrong"):
            by_outcome["converged_wrong"] += share
        if reason is not None and reason.startswith("mismatch exit"):
            by_outcome["exit_mismatch"] += share
        if outcome == "pass" and ops[i].kind in ("eval", "jordan", "solve",
                                                   "fundamental", "norm_bound"):
            by_outcome["useful"] += share
    metrics = {}
    for name in PER_LAYER_SELF:
        metrics[f"{name}.self_s"] = (per_pass[f"{name}.self_s"], "s")
    for name in PER_LAYER_CALLS:
        metrics[f"{name}.calls"] = (per_pass[f"{name}.calls"], "count")
    for name in COMPUTED:
        metrics[name] = (per_pass[name], "count")
    metrics["matrices.exact_bits_max"] = (tracer.maxima["matrices.exact_bits_max"], "bits")
    metrics["matrices.json.parse_s"] = (per_pass["matrices.json.parse.self_s"], "s")
    metrics["matrices.json.emit_s"] = (per_pass["matrices.json.emit.self_s"], "s")
    terms = sorted(tracer.samples["evaluation.terms_used"])
    metrics["evaluation.terms_used.p50"] = (percentile(terms, 0.5) if terms else 0, "count")
    metrics["evaluation.converged_wrong"] = (by_outcome["converged_wrong"], "count")
    metrics["evaluation.useful_ratio"] = (by_outcome["useful"] / len(execs), "ratio")
    fails = per_pass["jordan.jordan_decompose.raised.ChainConstructionFailed"]
    calls = per_pass["jordan.jordan_decompose.calls"]
    metrics["jordan.fail.ChainConstructionFailed"] = (fails, "count")
    metrics["jordan.decompose_ok_ratio"] = ((calls - fails) / calls if calls else 0.0, "ratio")
    metrics["cli.main_inproc_s"] = (per_pass["cli.main.total_s"], "s")
    metrics["cli.exit_mismatch"] = (by_outcome["exit_mismatch"], "count")
    untraced = sum(u for u, _t in pairs)
    traced = sum(t for _u, t in pairs)
    metrics["trace.overhead_ratio"] = (traced / untraced - 1.0, "ratio")
    return metrics, len(execs)


# -- main -----------------------------------------------------------------------

def main(argv=None):
    args = parse_args(argv)
    workdir = os.path.join(OUT, f"work-{args.workload}-{args.seed}-{os.getpid()}")
    try:
        if args.setup_only:
            try:
                _ops, setup_s = setup(args.workload, args.seed, args.small, workdir)
            finally:
                shutil.rmtree(workdir, ignore_errors=True)
            print(json.dumps({"setup_s": setup_s}))
            return 0
        os.makedirs(OUT, exist_ok=True)
        try:
            ops, own_setup = setup(args.workload, args.seed, args.small, workdir)
            samples = [own_setup] + [setup_in_fresh_interpreter(args)
                                     for _ in range(SETUP_SAMPLES - 1)]
            return measure(args, ops, samples)
        finally:
            shutil.rmtree(workdir, ignore_errors=True)
    except BenchError as exc:
        print(f"bench: {exc}", file=sys.stderr)
        return 2


def measure(args, ops, setup_samples):
    tracer = None
    if args.trace:
        from tracing import Tracer

        tracer = Tracer()
    records, pairs, elapsed = run_loop(ops, args.seconds, args.seed, tracer)
    rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    t_gate = clock()
    outcomes = gate(ops, records)
    t_gate = clock() - t_gate
    attempted = len(records)
    failed = sum(1 for o, _ in outcomes if o == "fail")
    known = sum(1 for o, _ in outcomes if o == "known_defect")
    facts = host_facts(args.seed)
    slices = slice_table(ops, outcomes, records)
    lat_n = len(records)

    print(f"# momexp benchmark  workload={args.workload} seed={args.seed} "
          f"seconds={args.seconds} trace={args.trace}")
    print("# host " + " ".join(f"{k}={v}" for k, v in facts.items()))
    print(f"# closed loop, 1 client, pool of {len(ops)} ops, {attempted} ops in "
          f"{elapsed:.2f} s; no layer queues or retries, so waiting time is 0")
    print(f"# correctness gate (references and checks, untimed) took {t_gate:.2f} s")
    print(f"# fail_ratio {(failed + known) / attempted:.4f} "
          f"({failed + known}/{attempted}: {failed} unexpected, {known} known defects)")
    for name, counts in slices.items():
        print(f"#   slice {name:15s} " + " ".join(f"{k}={v}" for k, v in sorted(counts.items())))
    for (i, _dt, _obs), (outcome, reason) in zip(records, outcomes):
        if outcome == "fail":
            print(f"# FAIL {ops[i].label}: {reason}")
    seen = set()
    for (i, _dt, _obs), (outcome, reason) in zip(records, outcomes):
        if outcome == "known_defect" and i not in seen:
            seen.add(i)
            print(f"# known defect [{ops[i].slice}] {ops[i].label}: {reason}")

    if args.trace:
        metrics, covered = per_layer(ops, tracer, records, outcomes, pairs)
        bare, imp = interpreter_costs()
        metrics["cli.interpreter_s"] = (bare, "s")
        metrics["cli.import_s"] = (imp, "s")
        print(f"# per-layer metrics per pass over the pool ({covered}/{len(ops)} ops "
              f"covered, {len(pairs)} traced executions, {len(tracer.spans)} spans)")
        print(f"# tracing overhead {metrics['trace.overhead_ratio'][0]:+.3f} "
              f"(traced vs untraced time of the same {len(pairs)} executions)")
        for name, (value, unit) in metrics.items():
            tag = " computed" if name in COMPUTED or name == "matrices.exact_bits_max" else ""
            print(f"  {name:45s} {value:.6g} {unit}{tag}")
        tracer.dump(os.path.join(OUT, f"spans-{args.workload}-seed{args.seed}.jsonl"))
    else:
        metrics = end_to_end(records, outcomes, setup_samples, rss_mb)
        print(f"# percentiles over {lat_n} latency samples; "
              f"{lat_n - int(0.5 * (lat_n - 1)) - 1} beyond p50, "
              f"{lat_n - int(0.9 * (lat_n - 1)) - 1} beyond p90")
        print(f"# setup samples (s): {', '.join(f'{s:.4f}' for s in setup_samples)}")
        for name, (value, unit) in metrics.items():
            print(f"  {name:20s} {value:.6g} {unit}")

    result = {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }
    by_label = defaultdict(list)
    for i, dt, _obs in records:
        by_label[f"{i:02d} {ops[i].label}"].append(dt * 1e3)
    detail = dict(result, host=facts, slices=slices, known_defects=known,
                  setup_samples=setup_samples, elapsed_s=elapsed, pool=len(ops),
                  op_median_ms={k: statistics.median(v) for k, v in sorted(by_label.items())})
    with open(os.path.join(
            OUT, f"result-{args.workload}-seed{args.seed}-trace{args.trace}.json"), "w") as fh:
        json.dump(detail, fh, indent=1)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
