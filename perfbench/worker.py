"""Benchmark worker: one workload in one process at one BLAS thread count.

``run.py`` starts this script with the BLAS thread variables already set,
so numpy loads with them. The worker prints one JSON object as the last
line of its standard output.

Modes:

* ``setup``: import mteq, build the workload's equations and run the
  warm-up solve, then report how long that took;
* ``measure``: set up, then run untraced passes over the workload's solves
  until ``--seconds`` have passed;
* ``trace``: set up, then run traced passes (each preceded by an untraced
  one with ``--with-untraced``) until ``--seconds`` have passed. The spans
  stay in memory and go out with the result, which ``run.py`` writes to
  disk when the run ends.
"""

import time

_T0 = time.perf_counter()

import argparse  # noqa: E402
import json  # noqa: E402
import resource  # noqa: E402
import sys  # noqa: E402
import warnings  # noqa: E402
from pathlib import Path  # noqa: E402

from tracing import Tracer, install, self_times, span_metrics  # noqa: E402
from workloads import WORKLOADS  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent


def _config(mteq, case, seed: int, maxit: int | None = None):
    return mteq.SolverConfig(
        method=case.method,
        tol=case.tol,
        maxit=maxit or case.maxit,
        truncation=mteq.TruncationConfig(toltrank=1e-10, maxrank=case.maxrank),
        inner=mteq.InnerSolveConfig(inner_precond_terms=(0, 1)),
        sketch_seed=seed,
        preconditioner=mteq.PreconditionerSpec.two_term_adi(
            indices=(0, 1), t_adi=8, shift_source="analytic_laplacian"),
    )


def _solve_once(mteq, eq, cfg, label: str) -> tuple[object, dict]:
    """One timed solve; exceptions become a failed record, never an abort."""
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        start = time.perf_counter()
        try:
            x, report = mteq.solve(eq, cfg)
        except Exception as exc:  # a raising solve is a counted failure
            return None, {"case": label, "error": f"{type(exc).__name__}: {exc}",
                          "time": time.perf_counter() - start}
        elapsed = time.perf_counter() - start
    rhs = report.rhs_norm or 1.0
    return x, {
        "case": label,
        "time": elapsed,
        "status": report.status,
        "iterations": report.iterations,
        "final_rank": report.final_rank,
        "estimate": report.residual_estimates[-1] / rhs,
        "sketch_mode": report.sketch_mode,
        "pcg_solves": sum(e is not None for e in report.inner_pcg_iters),
        "redraws": sum("redrawing the direction" in str(w.message) for w in caught),
        "warnings": len(caught),
    }


def _run_pass(mteq, cases, eqs, seed: int, tracer: Tracer | None) -> dict:
    """Solve every case once, in order; true residuals are checked afterwards."""
    restore = install(tracer, mteq) if tracer is not None else None
    try:
        start = time.perf_counter()
        solved = [_solve_once(mteq, eqs[(c.n, c.eps)], _config(mteq, c, seed), c.label)
                  for c in cases]
        wall = time.perf_counter() - start
    finally:
        if restore is not None:
            restore()
    records = []
    for case, (x, rec) in zip(cases, solved):
        if x is not None:
            rec["true_residual"] = mteq.true_residual(eqs[(case.n, case.eps)], x)
        records.append(rec)
    out = {"traced": tracer is not None, "wall": wall, "solves": records}
    if tracer is not None:
        spans = tracer.spans
        for i, rec in enumerate(records):
            rec["sketch_spans"] = sum(
                s.solve == i and s.name.startswith("sketch.") for s in spans)
        metrics = span_metrics(spans)
        metrics["trace.solve_wall_s"] = wall
        metrics["trace.self_sum_s"] = sum(
            t for s, t in zip(spans, self_times(spans)) if s.solve is not None)
        metrics["trace.self_cover"] = metrics["trace.self_sum_s"] / wall
        metrics["solver.redraws"] = float(sum(r.get("redraws", 0) for r in records))
        out["metrics"] = metrics
        out["spans"] = [s.as_list() for s in spans]
        out["missing"] = tracer.missing
    return out


def _peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def _blas_record(np, scipy) -> dict:
    """BLAS builds of numpy and scipy and the thread count each reports at run time."""
    import ctypes

    record = {}
    for module in (np, scipy):
        blas = module.show_config(mode="dicts")["Build Dependencies"]["blas"]
        libs_dir = Path(module.__file__).resolve().parent.parent / f"{module.__name__}.libs"
        threads = None
        for lib in sorted(libs_dir.glob("*openblas*")):
            handle = ctypes.CDLL(str(lib))
            for symbol in ("scipy_openblas_get_num_threads64_",
                           "scipy_openblas_get_num_threads", "openblas_get_num_threads"):
                getter = getattr(handle, symbol, None)
                if getter is not None:
                    getter.restype = ctypes.c_int
                    threads = getter()
                    break
        record[module.__name__] = {"name": blas.get("name"), "version": blas.get("version"),
                                   "threads": threads}
    return record


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--mode", required=True, choices=("setup", "measure", "trace"))
    parser.add_argument("--seed", type=int, default=7)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--smoke", action="store_true")
    parser.add_argument("--with-untraced", action="store_true")
    args = parser.parse_args()

    sys.path.insert(0, str(ROOT / "src"))
    import numpy as np
    import scipy

    import mteq
    t_import = time.perf_counter()
    if Path(mteq.__file__).resolve().parent != ROOT / "src" / "mteq":
        raise SystemExit(f"imported mteq from {mteq.__file__}, not from the checkout")

    workload = WORKLOADS[args.workload]
    cases = workload.smoke_cases if args.smoke else workload.cases
    tracer = Tracer() if args.mode == "trace" else None
    restore = install(tracer, mteq) if tracer is not None else None
    try:
        eqs = {}
        for case in cases:
            if (case.n, case.eps) not in eqs:
                eqs[(case.n, case.eps)] = mteq.build_convdiff(
                    mteq.ConvDiffSpec(n=case.n, eps=case.eps))
    finally:
        if restore is not None:
            restore()
    t_build = time.perf_counter()
    # The warm-up runs one iteration of the first solve: it pays the lazy
    # imports and first-call costs that a warm process no longer sees.
    _solve_once(mteq, eqs[(cases[0].n, cases[0].eps)],
                _config(mteq, cases[0], args.seed, maxit=1), "warm-up")
    t_setup = time.perf_counter()

    result = {
        "setup_s": t_setup - _T0,
        "import_s": t_import - _T0,
        "build_s": t_build - t_import,
        "warmup_s": t_setup - t_build,
    }
    if args.mode != "setup":
        passes = []
        while True:
            if args.mode == "measure" or args.with_untraced:
                passes.append(_run_pass(mteq, cases, eqs, args.seed, None))
            if args.mode == "trace":
                passes.append(_run_pass(mteq, cases, eqs, args.seed, Tracer()))
            # Peak memory after set-up and the first round of passes: a fixed
            # amount of work, whatever number of rounds the time budget allows.
            result.setdefault("peak_rss_mb", _peak_rss_mb())
            if time.perf_counter() - t_setup >= args.seconds:
                break
        if tracer is not None:
            result["setup_metrics"] = span_metrics(tracer.spans)
            result["setup_spans"] = [s.as_list() for s in tracer.spans]
        result["passes"] = passes
        result["blas"] = _blas_record(np, scipy)
        result["versions"] = {"numpy": np.__version__, "scipy": scipy.__version__,
                              "mteq": mteq.__version__}
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
