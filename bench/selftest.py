"""Self-test of the benchmark.

    python3 bench/selftest.py

1. Every workload finishes at its smallest size under two seeds, with a
   result line that meets the output contract and no failed operation; one
   traced run per workload does the same.
2. The correctness gate catches a wrong result: ``eval_exp`` is wrapped, in
   this test only, to perturb one output, and that operation must be counted
   as failed.

Exits 0 when every check holds, 1 otherwise.
"""

from __future__ import annotations

import json
import os
import subprocess
import sys

import run

HERE = os.path.dirname(os.path.abspath(__file__))
SEEDS = (11, 12)


def check(cond, what):
    if not cond:
        raise AssertionError(what)
    print(f"ok   {what}")


def run_small(workload, seed, trace):
    cmd = [sys.executable, os.path.join(HERE, "run.py"), "--workload", workload,
           "--seed", str(seed), "--seconds", "0.5", "--trace", str(trace), "--small"]
    proc = subprocess.run(cmd, cwd=run.ROOT, capture_output=True, text=True, timeout=170)
    check(proc.returncode == 0, f"{workload} seed={seed} trace={trace} exits 0")
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    check(set(result) == {"correct", "attempted", "failed", "metrics"},
          f"{workload} seed={seed} trace={trace} result has the contract keys")
    check(result["correct"] and result["failed"] == 0 and result["attempted"] >= 1,
          f"{workload} seed={seed} trace={trace} finishes with no failed op "
          f"({result['attempted']} attempted)")
    return result


def test_small_runs():
    for workload in run.WORKLOADS:
        for seed in SEEDS:
            run_small(workload, seed, 0)
        run_small(workload, SEEDS[0], 1)


def test_gate_catches_corruption():
    workdir = os.path.join(run.OUT, f"selftest-{os.getpid()}")
    ops, _ = run.setup("float-eval", SEEDS[0], True, workdir)
    regular = [op for op in ops if op.slice == "regular"]

    import momexp
    from momexp import CMatrix

    original = momexp.evaluation.eval_exp
    armed = [True]

    def perturbed(*args, **kwargs):
        rep = original(*args, **kwargs)
        if armed[0] and rep.value is not None:
            armed[0] = False
            rep.value = rep.value + CMatrix.identity(rep.value.n, "float").scale(1e-3)
        return rep

    patched = []
    for name, mod in list(sys.modules.items()):
        if name == "momexp" or name.startswith("momexp."):
            for key, val in list(vars(mod).items()):
                if val is original:
                    patched.append((mod, key))
                    setattr(mod, key, perturbed)
    try:
        records, _pairs, _elapsed = run.run_loop(regular, 0.0, SEEDS[0])
    finally:
        for mod, key in patched:
            setattr(mod, key, original)
    outcomes = run.gate(regular, records)
    failed = [reason for outcome, reason in outcomes if outcome == "fail"]
    check(not armed[0], "the wrapper perturbed one eval_exp output")
    check(len(failed) == 1, f"exactly that op is counted as failed ({failed})")
    passed = sum(1 for outcome, _ in outcomes if outcome == "pass")
    check(passed == len(records) - 1, "every other op still passes")


def main():
    try:
        test_small_runs()
        test_gate_catches_corruption()
    except AssertionError as exc:
        print(f"FAIL {exc}")
        return 1
    print("selftest passed")
    return 0


if __name__ == "__main__":
    sys.exit(main())
