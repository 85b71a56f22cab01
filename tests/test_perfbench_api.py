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
