"""mteq benchmark: convection-diffusion solves, end to end and layer by layer.

Run from the root of a checkout::

    python3 perfbench/run.py --workload convdiff-large --seed 7 --seconds 20 --trace 0

Each workload is a closed loop of sequential solves (see ``workloads.py``).
The harness itself never loads numpy: it starts one worker process at a
time with the BLAS thread count fixed in its environment, and waits for it.

``--trace 0`` reports the end-to-end metrics. ``SETUP_SAMPLES - 1``
set-up-only workers, half before and half after the measuring worker, and
the measuring worker itself each time the set-up (import, equation
generation and a warm-up solve); the measuring worker repeats untraced
passes over the workload's solves for ``--seconds``.

``--trace 1`` reports the per-layer metrics from spans wrapped around the
public entry points of each mteq module. The worker at the default thread
count alternates untraced and traced passes, which gives the tracing
overhead; a second worker repeats the traced passes with one BLAS thread,
and its times carry the prefix ``t1.``.

Every run checks each solve (see ``workloads.solve_failures``), writes a
``BENCH_*.json`` record with the machine it ran on, and the spans of a
traced run, to ``perfbench/out/``, and prints one JSON line last.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import os
import platform
import statistics
import subprocess
import sys
import time
from pathlib import Path

from tracing import TIME_METRICS
from workloads import WORKLOADS, solve_failures

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT_DIR = HERE / "out"

#: Set-ups timed per untraced run; ``setup_s`` is their median.
SETUP_SAMPLES = 7
#: Wall-clock budget of one whole run, under the 180 s a run may take.
DEADLINE_S = 170.0

#: End-to-end metrics and their units. ``solve_wall_s`` sums, over the
#: workload's solves, each solve's median time across passes; ``setup_s`` is
#: the median set-up; ``iterations`` and ``final_rank`` (the rank of X, the
#: storage of the answer) sum over one pass; ``true_residual_max`` is the
#: worst true relative residual; ``solve_ok_frac`` is 1 - failed/attempted;
#: ``peak_rss_mb`` is the measuring worker's peak RSS after one pass.
END_TO_END = {
    "solve_wall_s": "s",
    "setup_s": "s",
    "iterations": "count",
    "final_rank": "count",
    "true_residual_max": "1",
    "solve_ok_frac": "ratio",
    "peak_rss_mb": "MiB",
}


def _per_layer_units() -> dict[str, str]:
    counts = [
        "solver.redraws", "precond.apply.calls", "precond.apply.solve_cols",
        "sketch.residual_truncate.calls", "sketch.apply.cols", "operator.stack.cols",
        "lowrank.truncate.calls", "lowrank.truncate.in_cols", "lowrank.tall_qr.calls",
        "reduced.solve_direct.calls", "reduced.kron_dim_max", "reduced.solve_pcg.calls",
        "reduced.pcg_iters", "reduced.pcg_unconverged", "reduced.regularized",
    ]
    units = {name: "s" for name in TIME_METRICS}
    units |= {"problems.build_convdiff.s": "s"}
    units |= dict.fromkeys(counts, "count")
    units |= {"lowrank.truncate.keep_ratio": "ratio", "lowrank.tall_qr.flops": "flop"}
    units |= {"trace.solve_wall_s": "s", "trace.untraced_solve_wall_s": "s",
              "trace.overhead_s": "s", "trace.self_sum_s": "s", "trace.self_cover": "ratio"}
    thread_sensitive = [*TIME_METRICS, "problems.build_convdiff.s", "trace.solve_wall_s"]
    units |= {f"t1.{name}": "s" for name in thread_sensitive}
    order = ("solver", "problems", "precond", "sketch", "operator", "lowrank", "reduced",
             "layer", "trace", "t1")
    return dict(sorted(units.items(), key=lambda kv: order.index(kv[0].split(".", 1)[0])))


PER_LAYER = _per_layer_units()


def nproc() -> int:
    return len(os.sched_getaffinity(0))


def _worker(options: list[str], threads: int, deadline: float) -> dict:
    """Run one worker process to completion and return its JSON result."""
    env = dict(os.environ, PYTHONDONTWRITEBYTECODE="1")
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = str(threads)
    remaining = deadline - time.monotonic()
    if remaining <= 0:
        raise TimeoutError("run deadline passed before the next worker")
    proc = subprocess.run(
        [sys.executable, str(HERE / "worker.py"), *options],
        env=env, cwd=ROOT, capture_output=True, text=True, timeout=remaining,
    )
    if proc.returncode != 0:
        raise RuntimeError(f"worker {options} exited {proc.returncode}:\n{proc.stderr[-4000:]}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def _check_passes(workload, cases, passes: list[dict]) -> tuple[int, int, list[str]]:
    """Attempted and failed solve counts over passes of one worker, with reasons."""
    attempted, failed, reasons = 0, 0, []
    reference = passes[0]["solves"]
    for index, p in enumerate(passes):
        for case, rec, ref in zip(cases, p["solves"], reference):
            why = solve_failures(workload, case, rec, None if index == 0 else ref)
            attempted += 1
            if why:
                failed += 1
                reasons.append(f"pass {index} {case.label}: {'; '.join(why)}")
    return attempted, failed, reasons


def _residual(rec: dict) -> float:
    # A solve with no finite answer counts as the zero iterate, whose
    # relative residual is 1.
    value = rec.get("true_residual")
    return value if value is not None and math.isfinite(value) else 1.0


def _end_to_end(cases, setups: list[float], main: dict, attempted: int, failed: int) -> dict:
    passes = main["passes"]
    per_case = [statistics.median(p["solves"][i]["time"] for p in passes)
                for i in range(len(cases))]
    first = passes[0]["solves"]
    return {
        "solve_wall_s": sum(per_case),
        "setup_s": statistics.median(setups),
        "iterations": sum(r.get("iterations", 0) for r in first),
        "final_rank": sum(r.get("final_rank", 0) for r in first),
        "true_residual_max": max(_residual(r) for p in passes for r in p["solves"]),
        "solve_ok_frac": 1.0 - failed / attempted,
        "peak_rss_mb": main["peak_rss_mb"],
    }


def _median_metrics(passes: list[dict]) -> dict[str, float]:
    traced = [p["metrics"] for p in passes if p["traced"]]
    return {k: statistics.median(m[k] for m in traced) for k in traced[0]}


def _per_layer(default: dict, single: dict) -> dict:
    metrics = _median_metrics(default["passes"])
    metrics["problems.build_convdiff.s"] = default["setup_metrics"]["problems.build_convdiff.s"]
    untraced = [p["wall"] for p in default["passes"] if not p["traced"]]
    metrics["trace.untraced_solve_wall_s"] = statistics.median(untraced)
    metrics["trace.overhead_s"] = (metrics["trace.solve_wall_s"]
                                   - metrics["trace.untraced_solve_wall_s"])
    one = _median_metrics(single["passes"])
    one["problems.build_convdiff.s"] = single["setup_metrics"]["problems.build_convdiff.s"]
    for name in PER_LAYER:
        if name.startswith("t1."):
            metrics[name] = one[name[3:]]
    return {name: metrics[name] for name in PER_LAYER}


def _src_record() -> dict:
    files = sorted((ROOT / "src").rglob("*.py"))
    digest = hashlib.sha256()
    lines = 0
    for path in files:
        data = path.read_bytes()
        digest.update(str(path.relative_to(ROOT)).encode() + b"\0" + data)
        lines += data.count(b"\n")
    return {"src_lines": lines, "src_sha256": digest.hexdigest()}


def _git_commit() -> str | None:
    if not (ROOT / ".git").exists():
        return None
    proc = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                          capture_output=True, text=True, timeout=30)
    return proc.stdout.strip() or None


def machine_record(worker: dict, threads: int) -> dict:
    return {
        "nproc": nproc(),
        "machine": platform.machine(),
        "python": platform.python_version(),
        **worker["versions"],
        "blas": worker["blas"],
        "blas_threads": threads,
        "git_commit": _git_commit(),
        **_src_record(),
    }


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=7,
                        help="sketch seed of every solve; the only input it changes")
    parser.add_argument("--seconds", type=float, default=20.0,
                        help="how long the timed passes of one worker run")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--blas-threads", type=int, default=None,
                        help="BLAS threads of the measuring worker (default: nproc)")
    parser.add_argument("--smoke", action="store_true",
                        help="reduced problem sizes, for the harness self-tests")
    args = parser.parse_args()

    if not (ROOT / "src" / "mteq" / "__init__.py").is_file():
        print(f"no mteq sources under {ROOT / 'src'}; run from a checkout of the repo",
              file=sys.stderr)
        return 2
    deadline = time.monotonic() + DEADLINE_S
    threads = min(max(args.blas_threads or nproc(), 1), nproc())
    workload = WORKLOADS[args.workload]
    cases = workload.smoke_cases if args.smoke else workload.cases
    common = ["--workload", workload.name, "--seed", str(args.seed)]
    if args.smoke:
        common.append("--smoke")

    try:
        if args.trace == 0:
            # Set-up samples are split around the measuring worker, so they
            # span the whole run rather than one stretch of it.
            def setup_samples(count: int) -> list[float]:
                return [_worker([*common, "--mode", "setup"], threads, deadline)["setup_s"]
                        for _ in range(count)]

            setups = setup_samples((SETUP_SAMPLES - 1) // 2)
            main_worker = _worker([*common, "--mode", "measure", "--seconds",
                                   str(args.seconds)], threads, deadline)
            setups += [main_worker["setup_s"], *setup_samples(SETUP_SAMPLES - 1 - len(setups))]
            attempted, failed, reasons = _check_passes(workload, cases, main_worker["passes"])
            metrics = _end_to_end(cases, setups, main_worker, attempted, failed)
            units, workers = END_TO_END, {"default": main_worker}
        else:
            half = str(args.seconds / 2)
            default = _worker([*common, "--mode", "trace", "--with-untraced",
                               "--seconds", half], threads, deadline)
            single = _worker([*common, "--mode", "trace", "--seconds", half], 1, deadline)
            attempted, failed, reasons = 0, 0, []
            for w in (default, single):
                a, f, r = _check_passes(workload, cases, w["passes"])
                attempted, failed, reasons = attempted + a, failed + f, reasons + r
            metrics = _per_layer(default, single)
            units, workers = PER_LAYER, {"default": default, "single": single}
    except (RuntimeError, TimeoutError, subprocess.TimeoutExpired) as exc:
        print(f"benchmark run failed: {exc}", file=sys.stderr)
        return 1

    record = {
        "workload": workload.name,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "smoke": args.smoke,
        "machine": machine_record(workers["default"], threads),
        "metrics": {k: {"value": v, "unit": units[k]} for k, v in metrics.items()},
        "attempted": attempted,
        "failed": failed,
        "failures": reasons,
        "trace_missing": sorted({m for w in workers.values() for p in w["passes"]
                                 for m in p.get("missing", [])}),
        "workers": {
            name: {k: v for k, v in w.items() if k != "setup_spans"}
            | {"passes": [{k: v for k, v in p.items() if k != "spans"} for p in w["passes"]]}
            for name, w in workers.items()
        },
    }
    OUT_DIR.mkdir(exist_ok=True)
    stem = f"{workload.name}_seed{args.seed}_trace{args.trace}{'_smoke' if args.smoke else ''}"
    (OUT_DIR / f"BENCH_{stem}.json").write_text(json.dumps(record, indent=1))
    if args.trace:
        spans = {
            "span_fields": ["name", "start", "end", "parent", "solve", "attrs"],
            **{name: {"blas_threads": 1 if name == "single" else threads,
                      "setup": w["setup_spans"],
                      "passes": [p["spans"] for p in w["passes"] if p["traced"]]}
               for name, w in workers.items()},
        }
        (OUT_DIR / f"spans_{stem}.json").write_text(json.dumps(spans))

    print(f"machine {json.dumps(record['machine'])}")
    if record["trace_missing"]:
        print(f"WARNING entry points not traced: {record['trace_missing']}")
    for reason in reasons:
        print(f"FAILED {reason}")
    for name, value in metrics.items():
        print(f"{name} = {value:.6g} {units[name]}")
    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": units[k]} for k, v in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
