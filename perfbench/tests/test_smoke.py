"""Reduced-size runs of every workload through the whole harness.

Each run solves the workload's smoke cases (same paths, smaller n) for one
second per worker, so the path guards and the trace checks run on real
solves. About a minute in all.

The path guards must hold. A true residual above tol is reported, not
asserted away: at n=512 the second iterate of ``ss_mr`` has a true
residual of 1.04e-6, and a sketched estimate a few per cent low stops the
solve there (seed 3 does), because mteq stops on the estimate without
checking the true residual. The harness has to count that solve as
failed, which these tests check; they warn instead of failing on it.
"""

import json
import subprocess
import sys
import warnings
from pathlib import Path

import pytest

from run import END_TO_END, PER_LAYER
from workloads import WORKLOADS

ROOT = Path(__file__).resolve().parents[2]


def _run(workload: str, trace: int, *extra: str) -> dict:
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", "3",
         "--seconds", "1", "--trace", str(trace), "--smoke", *extra],
        cwd=ROOT, capture_output=True, text=True, timeout=170,
    )
    assert proc.returncode == 0, proc.stderr
    lines = proc.stdout.strip().splitlines()
    result = json.loads(lines[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    failures = [line for line in lines if line.startswith("FAILED")]
    assert result["failed"] == len(failures)
    assert result["correct"] == (not failures)
    guard_breaches = [f for f in failures if "true residual" not in f]
    assert not guard_breaches, guard_breaches
    if failures:
        warnings.warn(f"{workload}: solves stopped above tol: {failures}")
    return result


@pytest.mark.parametrize("workload", list(WORKLOADS))
def test_untraced_smoke_run(workload):
    result = _run(workload, 0)
    metrics = {k: v["value"] for k, v in result["metrics"].items()}
    assert set(metrics) == set(END_TO_END)
    assert all(v > 0 for v in metrics.values()), metrics
    assert metrics["solve_ok_frac"] == 1.0 - result["failed"] / result["attempted"]


@pytest.mark.parametrize("workload", list(WORKLOADS))
def test_traced_smoke_run(workload):
    metrics = {k: v["value"] for k, v in _run(workload, 1)["metrics"].items()}
    assert set(metrics) == set(PER_LAYER)
    # All time inside a traced solve lands on some layer's self time.
    assert metrics["trace.self_cover"] == pytest.approx(1.0, abs=0.01)
    layers = sum(v for k, v in metrics.items() if k.startswith("layer."))
    assert layers == pytest.approx(metrics["trace.self_sum_s"], rel=1e-9)
    sketch = {k: v for k, v in metrics.items() if k.startswith("sketch.")}
    pcg = {k: v for k, v in metrics.items() if k.startswith("reduced.solve_pcg.")}
    if workload == "convdiff-sweep-small":
        assert not any(sketch.values()) and not any(pcg.values()), sketch | pcg
        assert metrics["reduced.solve_direct.calls"] > 0
    else:
        assert metrics["sketch.residual_truncate.calls"] > 0
        assert metrics["sketch.apply.cols"] > 0
    if workload == "convdiff-deep":
        assert metrics["reduced.pcg_iters"] > 0
    else:
        assert metrics["reduced.pcg_iters"] == 0


def test_blas_threads_are_set_and_recorded():
    _run("convdiff-sweep-small", 0, "--blas-threads", "1")
    record = json.loads(
        (ROOT / "perfbench/out/BENCH_convdiff-sweep-small_seed3_trace0_smoke.json").read_text())
    machine = record["machine"]
    assert machine["blas_threads"] == 1 and machine["nproc"] >= 1
    # Both BLAS builds report the thread count they run with.
    assert {lib["threads"] for lib in machine["blas"].values()} == {1}
    assert machine["src_lines"] > 0 and len(machine["src_sha256"]) == 64
