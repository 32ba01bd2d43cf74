"""The full exact-algebra benchmark pool, run once per op for two seeds:
every op must pass the benchmark's own correctness check."""

import os
import sys

import pytest

sys.path.insert(0, os.path.join(os.path.dirname(os.path.abspath(__file__)),
                                os.pardir, "bench"))
import workloads  # noqa: E402


@pytest.mark.parametrize("seed", [3, 4])
def test_exact_algebra_pool_passes_its_checks(seed):
    failures = []
    for op in workloads.build_exact_algebra(seed):
        reason = op.check(op.observe(op.run()))
        if reason is not None:
            failures.append(f"{op.label}: {reason}")
    assert failures == []
