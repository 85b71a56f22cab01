"""Self-tests of the harness arithmetic, guards and metric names (no solves).

Run with ``python3 -m pytest perfbench/tests``.
"""

import json
import math
from pathlib import Path

import pytest

from run import END_TO_END, PER_LAYER
from tracing import Span, Tracer, install, self_times, span_metrics
from workloads import WORKLOADS, solve_failures

ROOT = Path(__file__).resolve().parents[2]


def _spans(*rows):
    return [Span(name, start, end, parent, solve, dict(attrs))
            for name, start, end, parent, solve, attrs in rows]


def test_self_time_subtracts_children():
    spans = _spans(
        ("solver.solve", 0.0, 10.0, -1, 0, {}),
        ("lowrank.truncate", 1.0, 4.0, 0, 0, {}),
        ("lowrank.tall_qr", 1.5, 2.5, 1, 0, {}),
        ("lowrank.core_svd", 3.0, 3.5, 1, 0, {}),
        ("reduced.build", 5.0, 9.0, 0, 0, {}),
    )
    assert self_times(spans) == pytest.approx([3.0, 1.5, 1.0, 0.5, 4.0])
    # Self times of the spans inside one solve add up to the solve span.
    assert sum(self_times(spans)) == pytest.approx(spans[0].duration)


def test_self_time_counts_overlapping_children_once():
    spans = _spans(
        ("a", 0.0, 10.0, -1, None, {}),
        ("b", 1.0, 5.0, 0, None, {}),
        ("c", 4.0, 6.0, 0, None, {}),
        ("d", 9.0, 12.0, 0, None, {}),
    )
    # Children cover [1, 6] and [9, 10] of the parent: 6 of its 10 seconds.
    assert self_times(spans)[0] == pytest.approx(4.0)


def test_span_metrics_aggregate_by_name_and_layer():
    spans = _spans(
        ("solver.solve", 0.0, 10.0, -1, 0, {}),
        ("lowrank.truncate", 0.0, 4.0, 0, 0, {"in_cols": 100, "out_rank": 30}),
        ("lowrank.tall_qr", 0.0, 3.0, 1, 0, {"flops": 7.0}),
        ("lowrank.truncate", 4.0, 5.0, 0, 0, {"in_cols": 100, "out_rank": 10}),
        ("reduced.solve_direct", 5.0, 6.0, 0, 0, {"kron_dim": 900, "regularized": 1}),
        ("reduced.solve_pcg", 6.0, 8.0, 0, 0, {"pcg_iters": 25, "unconverged": 1}),
        ("reduced.solve_pcg", 8.0, 9.0, 0, 0, {"pcg_iters": 30, "unconverged": 0}),
    )
    m = span_metrics(spans)
    assert m["lowrank.truncate.calls"] == 2
    assert m["lowrank.truncate.self_s"] == pytest.approx(2.0)
    assert m["lowrank.truncate.keep_ratio"] == pytest.approx(0.2)
    assert m["lowrank.tall_qr.flops"] == 7.0
    assert m["reduced.solve_pcg.calls"] == 2
    assert m["reduced.pcg_iters"] == 55
    assert m["reduced.pcg_unconverged"] == 1
    assert m["reduced.kron_dim_max"] == 900
    assert m["reduced.regularized"] == 1
    assert m["sketch.residual_truncate.calls"] == 0
    assert m["layer.solver.self_s"] == pytest.approx(1.0)
    assert m["layer.lowrank.self_s"] == pytest.approx(5.0)
    assert m["layer.reduced.self_s"] == pytest.approx(4.0)


def _record(**overrides):
    record = {"case": "c", "estimate": 1e-7, "true_residual": 2e-7, "sketch_mode": "exact",
              "pcg_solves": 0, "iterations": 3, "final_rank": 30, "sketch_spans": 0}
    return record | overrides


@pytest.mark.parametrize("overrides, reason", [
    ({}, None),
    ({"error": "LinAlgError: boom"}, "raised"),
    ({"true_residual": math.nan}, "non-finite"),
    ({"estimate": math.inf}, "non-finite"),
    ({"true_residual": 2e-6}, "true residual"),
    ({"sketch_mode": "two_sided"}, "sketch mode"),
    ({"pcg_solves": 2}, "unexpected inner PCG"),
    ({"sketch_spans": 3}, "sketch spans"),
    ({"iterations": 4}, "differ from first pass"),
    ({"final_rank": 31}, "differ from first pass"),
])
def test_guards_on_the_sketch_free_workload(overrides, reason):
    workload = WORKLOADS["convdiff-sweep-small"]
    reasons = solve_failures(workload, workload.cases[0], _record(**overrides), _record())
    if reason is None:
        assert reasons == []
    else:
        assert any(reason in r for r in reasons), reasons


def test_deep_guard_needs_pcg_and_takes_a_fixed_residual_bound():
    workload = WORKLOADS["convdiff-deep"]
    case = workload.cases[0]
    ok = _record(sketch_mode="two_sided", pcg_solves=5, true_residual=7e-8)
    assert case.tol < 7e-8 and solve_failures(workload, case, ok) == []
    no_pcg = solve_failures(workload, case, ok | {"pcg_solves": 0})
    assert any("no inner PCG" in r for r in no_pcg)


def test_benchmark_json_names_every_reported_metric():
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert {m["name"]: m["unit"] for m in bench["end_to_end"]} == END_TO_END
    assert {m["name"]: m["unit"] for m in bench["per_layer"]} == PER_LAYER
    assert [w["name"] for w in bench["workloads"]] == list(WORKLOADS)


def test_install_wraps_bindings_skips_missing_ones_and_restores(monkeypatch):
    monkeypatch.syspath_prepend(str(ROOT / "src"))
    import numpy as np
    import scipy.linalg as sla

    import mteq

    monkeypatch.delattr(mteq.solver, "beta_rhs")
    truncate, solve = mteq.solver.truncate, mteq.solve
    tracer = Tracer()
    restore = install(tracer, mteq)
    try:
        assert tracer.missing == ["mteq.solver.beta_rhs"]
        assert mteq.solver.truncate is not truncate and mteq.solve is not solve
        assert mteq.lowrank.sla is not sla and mteq.sketch.np is not np
    finally:
        restore()
    assert mteq.solver.truncate is truncate and mteq.solve is solve
    assert mteq.lowrank.sla is sla and mteq.sketch.sla is sla and mteq.sketch.np is np
    assert not hasattr(mteq.solver, "beta_rhs")
