"""The mteq API that the benchmark harness in ``perfbench/`` calls.

The harness builds its solve configurations in ``worker._config`` and
traces the solve path by wrapping module bindings in ``tracing.install``;
a binding it cannot find is skipped and listed, not fatal. These tests load
both modules as they are and fail on an API or binding break, so the break
shows here instead of as a failed or silently thinner benchmark run.
"""

import importlib
import sys
from pathlib import Path

import pytest

import mteq

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"
_HARNESS = ("worker", "tracing", "workloads")


@pytest.fixture
def harness(monkeypatch):
    """The harness modules, imported the way ``worker.py`` imports its siblings."""
    monkeypatch.syspath_prepend(str(PERFBENCH))
    monkeypatch.setattr(sys, "dont_write_bytecode", True)  # no files in perfbench/
    loaded = [name for name in _HARNESS if name in sys.modules]
    assert not loaded, f"modules named {loaded} are already imported"
    try:
        modules = [importlib.import_module(name) for name in _HARNESS]
        for module in modules:
            assert Path(module.__file__).parent == PERFBENCH
        yield modules
    finally:
        for name in _HARNESS:
            sys.modules.pop(name, None)


def test_worker_builds_a_config_for_every_case(harness):
    worker, _, workloads = harness
    for workload in workloads.WORKLOADS.values():
        for case in workload.cases + workload.smoke_cases:
            cfg = worker._config(mteq, case, 7)
            assert isinstance(cfg, mteq.SolverConfig)
            assert (cfg.method, cfg.sketch_seed) == (case.method, 7)
            assert cfg.preconditioner.indices == (0, 1)


def test_tracer_finds_every_binding(harness):
    _, tracing, _ = harness
    solve = mteq.solver.solve
    tracer = tracing.Tracer()
    restore = tracing.install(tracer, mteq)
    try:
        assert tracer.missing == []
        assert mteq.solver.solve is not solve
    finally:
        restore()
    assert mteq.solver.solve is solve


def test_traced_solve_runs_every_hook(harness, monkeypatch):
    worker, tracing, workloads = harness
    ran = set()

    def recording(hook):
        def record(*args):
            ran.add(hook.__name__)
            return hook(*args)
        return record

    hooks = {target[3].__name__ for target in tracing._TARGETS if target[3] is not None}
    monkeypatch.setattr(tracing, "_TARGETS", tuple(
        (*target[:3], target[3] and recording(target[3])) for target in tracing._TARGETS))
    # s = 2 (p maxrank + q) = 28 rows fit in n_A = 32: both sides are sketched.
    case = workloads.Case(n=34, eps=0.1, method="ss_gcr1", tol=1e-6, maxit=3, maxrank=3,
                          residual_bound=1.0)
    eq = mteq.build_convdiff(mteq.ConvDiffSpec(n=case.n, eps=case.eps))
    tracer = tracing.Tracer()
    restore = tracing.install(tracer, mteq)
    try:
        report = mteq.solve(eq, worker._config(mteq, case, 7))[1]
    finally:
        restore()
    assert tracer.missing == []
    assert report.sketch_mode == "two_sided"
    assert ran == hooks
    metrics = tracing.span_metrics(tracer.spans)
    assert metrics["lowrank.truncate.in_cols"] > 0
    assert metrics["operator.stack.cols"] > 0
    # The widest ADI output (t_adi = 8 times the residual's rank) is wider
    # than the range finder's sample of maxrank + OVERSAMPLING = 13 columns,
    # and its compression still runs inside a lowrank.truncate span.
    adi_width = max(s.attrs["solve_cols"] // 2 for s in tracer.spans
                    if s.name == "precond.apply")
    assert adi_width > case.maxrank + mteq.lowrank.OVERSAMPLING
    assert any(s.attrs.get("in_cols") == adi_width for s in tracer.spans
               if s.name == "lowrank.truncate")


def test_traced_solve_records_a_span_for_every_target(harness):
    # A refactor that stops calling a traced binding would read as a zero
    # per-layer metric in the benchmark: it fails here instead.
    worker, tracing, workloads = harness
    case = workloads.Case(n=34, eps=0.1, method="ss_gcr1", tol=1e-6, maxit=3, maxrank=3,
                          residual_bound=1.0)
    eq = mteq.build_convdiff(mteq.ConvDiffSpec(n=case.n, eps=case.eps))  # before install
    tracer = tracing.Tracer()
    restore = tracing.install(tracer, mteq)
    try:
        mteq.solve(eq, worker._config(mteq, case, 7))
    finally:
        restore()
    recorded = {span.name for span in tracer.spans}
    # A name function names the span of a call on the path it traces: the
    # sketched residual truncation, given a row sketch.
    wanted = {name if isinstance(name, str) else name(eq, None, object())
              for _, _, name, _ in tracing._TARGETS} - {"problems.build_convdiff"}
    if recorded & {"reduced.solve_direct", "reduced.solve_pcg"}:
        recorded.add("reduced.solve")  # the hook renames it by path
    assert sorted(wanted - recorded) == []
