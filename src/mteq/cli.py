"""Command-line front end: single solves, benchmark sweeps, verification.

``mteq solve`` runs one solve and writes ``report.json``. ``mteq bench``
sweeps the convection-diffusion benchmark grid and emits a results table.
``mteq verify`` recomputes the true relative residual of a saved
solution. Exit codes: 0 success, 2 configuration error, 3
non-convergence: ``maxit_reached``, ``stagnated`` or ``breakdown``
(outputs are still written).
"""

from __future__ import annotations

import argparse
import csv
import json
import sys
from dataclasses import asdict
from pathlib import Path

import numpy as np
import scipy

from . import __version__
from ._blas import describe, single_pool
from .lowrank import LowRankMatrix, TruncationConfig
from .precond import PreconditionerSpec
from .problems import ConvDiffSpec, build_convdiff, load_manifest
from .reduced import InnerSolveConfig
from .solver import SolverConfig, solve, true_residual

_BENCH_SIZES = (1024, 2048, 4096, 8192, 16384)
_DEFAULT_T_ADI = PreconditionerSpec.two_term_adi().t_adi


def _add_problem_flags(parser: argparse.ArgumentParser) -> None:
    group = parser.add_argument_group("problem source")
    group.add_argument(
        "--problem", choices=("convdiff", "manifest"), default="convdiff",
        help="built-in benchmark or an equation loaded from disk",
    )
    group.add_argument("--n", type=int, default=1024,
                       help="grid points per dimension (convdiff)")
    group.add_argument("--eps", type=float, default=0.1,
                       help="diffusion coefficient (convdiff)")
    group.add_argument("--manifest", type=Path, default=None,
                       help="path to manifest.json (manifest problems)")


def _add_solver_flags(parser: argparse.ArgumentParser) -> None:
    # Defaults are the config dataclasses' own (names there use "_"), except convdiff's
    # --inner-precond-terms and --shift-source and the kind-wise --precond-terms.
    default = SolverConfig()
    group = parser.add_argument_group("solver")
    group.add_argument("--method", choices=("ss-mr", "ss-gcr1"),
                       default=default.method.replace("_", "-"))
    group.add_argument("--tol", type=float, default=default.tol,
                       help="relative residual stopping tolerance")
    group.add_argument("--maxit", type=int, default=default.maxit)
    group.add_argument("--maxrank", type=int, default=default.truncation.maxrank)
    group.add_argument("--toltrank", type=float, default=default.truncation.toltrank,
                       help="relative singular-value truncation cutoff")
    group.add_argument("--seed", type=int, default=default.sketch_seed,
                       help="sketch seed")
    group.add_argument(
        "--inner-precond-terms", type=str, default=None, metavar="I,J",
        help="1-based term pair preconditioning the inner PCG "
             "(default: 1,2 for convdiff, none otherwise)",
    )
    group = parser.add_argument_group("preconditioner")
    group.add_argument("--precond", choices=("none", "one-term", "two-term-adi"),
                       default=default.preconditioner.kind.replace("_", "-"))
    group.add_argument("--precond-terms", type=str, default=None, metavar="I[,J]",
                       help="1-based term indices, as many as the --precond kind "
                            "uses (default: 1 for one-term, 1,2 for two-term-adi)")
    group.add_argument("--adi-iters", type=int, default=None,
                       help=f"ADI sweeps, two-term-adi only (default: {_DEFAULT_T_ADI})")
    group.add_argument("--shift-source",
                       choices=("analytic-laplacian", "estimated"), default=None,
                       help="ADI spectral intervals, two-term-adi only (default: "
                            "analytic for convdiff, estimated otherwise)")


def _term_indices(text: str, flag: str, count: int, user: str, p: int) -> tuple[int, ...]:
    """Parse ``count`` comma-separated 1-based term indices given on the
    command line for ``user``; return them zero-based."""
    try:
        indices = tuple(int(part) for part in text.split(",")) if text else ()
    except ValueError:
        raise ValueError(f"{flag} expects comma-separated integers, got {text!r}") from None
    if len(indices) != count:
        noun = "index" if count == 1 else "indices"
        raise ValueError(f"{flag} {text}: {user} takes {count} term {noun}")
    if not all(1 <= i <= p for i in indices):
        raise ValueError(f"{flag} {text}: term indices run from 1 to {p}")
    return tuple(i - 1 for i in indices)


def _build_problem(args) -> tuple:
    if args.problem == "convdiff":
        eq = build_convdiff(ConvDiffSpec(n=args.n, eps=args.eps))
        descriptor = {"problem": "convdiff", "n": args.n, "eps": args.eps}
    else:
        if args.manifest is None:
            raise ValueError("--problem manifest requires --manifest PATH")
        eq = load_manifest(args.manifest)
        descriptor = {"problem": "manifest", "manifest": str(args.manifest)}
    return eq, descriptor


def _build_config(args, p: int) -> SolverConfig:
    """Solver configuration from the parsed flags, for an equation with ``p`` terms."""
    inner_terms = args.inner_precond_terms
    if inner_terms is None and args.problem == "convdiff":
        inner_terms = "1,2"
    inner_pair = None
    if inner_terms is not None and inner_terms.lower() != "none":
        inner_pair = _term_indices(inner_terms, "--inner-precond-terms", 2,
                                   "the inner PCG", p)

    shift_source = args.shift_source
    if shift_source is None:
        shift_source = "analytic-laplacian" if args.problem == "convdiff" else "estimated"
    arity = {"none": 0, "one-term": 1, "two-term-adi": 2}[args.precond]
    terms = args.precond_terms
    if terms is None:
        terms = ",".join(str(i) for i in range(1, arity + 1))
    indices = _term_indices(terms, "--precond-terms", arity, f"--precond {args.precond}", p)
    if args.precond == "two-term-adi":
        precond = PreconditionerSpec.two_term_adi(
            indices=indices,
            t_adi=_DEFAULT_T_ADI if args.adi_iters is None else args.adi_iters,
            shift_source=shift_source.replace("-", "_"),
        )
    else:
        for flag, value in (("--adi-iters", args.adi_iters), ("--shift-source", args.shift_source)):
            if value is not None:
                raise ValueError(f"{flag} {value}: --precond {args.precond} runs no ADI; "
                                 "only --precond two-term-adi takes it")
        precond = PreconditionerSpec(kind=args.precond.replace("-", "_"), indices=indices)

    return SolverConfig(
        method=args.method.replace("-", "_"),
        tol=args.tol,
        maxit=args.maxit,
        truncation=TruncationConfig(toltrank=args.toltrank, maxrank=args.maxrank),
        inner=InnerSolveConfig(inner_precond_terms=inner_pair),
        sketch_seed=args.seed,
        preconditioner=precond,
    )


def _cmd_solve(args) -> int:
    eq, descriptor = _build_problem(args)
    cfg = _build_config(args, eq.p)
    # solve holds the same pool; entering it here lets the report read the
    # thread counts the solve runs with.
    with single_pool():
        blas = describe()
        x, report = solve(eq, cfg)
        res = true_residual(eq, x)

    out_dir = args.out_dir
    out_dir.mkdir(parents=True, exist_ok=True)
    payload = {
        "problem": descriptor,
        "config": asdict(cfg),
        "result": asdict(report) | {"true_final_residual": res},
        "versions": {"mteq": __version__, "numpy": np.__version__,
                     "scipy": scipy.__version__},
        "blas": blas,
    }
    (out_dir / "report.json").write_text(json.dumps(payload, indent=2))
    if args.save_solution is not None:
        np.savez(args.save_solution, left=x.left, core=x.core, right=x.right)

    scale = report.rhs_norm if report.rhs_norm > 0 else 1.0
    print(
        f"{cfg.method}: {report.status} after {report.iterations} iterations, "
        f"final rank {report.final_rank}, estimate "
        f"{report.residual_estimates[-1] / scale:.2e}, "
        f"true residual {res:.2e}, "
        f"{report.wall_times['total']:.2f} s"
    )
    return 0 if report.converged else 3


def _bench_case(case) -> dict:
    """One grid point, configured as ``mteq solve`` would be by the same flags."""
    n, eps, method, seed = case
    args = build_parser().parse_args([
        "solve", "--n", str(n), "--eps", str(eps), "--method", method,
        "--maxrank", "50" if eps >= 0.1 else "70", "--precond", "two-term-adi",
        "--seed", str(seed),
    ])
    eq, _ = _build_problem(args)
    cfg = _build_config(args, eq.p)
    x, report = solve(eq, cfg)
    pcg = [t for t in report.inner_pcg_iters if t is not None]
    return {
        "n": n,
        "eps": eps,
        "method": cfg.method,
        "k": report.iterations,
        "rank": report.final_rank,
        "pcg_min": min(t[0] for t in pcg) if pcg else None,
        "pcg_max": max(t[1] for t in pcg) if pcg else None,
        "res": true_residual(eq, x),
        "time": report.wall_times["total"],
        "status": report.status,
    }


def _cmd_bench(args) -> int:
    cases = [
        (n, eps, method, args.seed)
        for eps in (0.1, 0.01)
        for n in args.sizes or _BENCH_SIZES
        for method in ("ss-gcr1", "ss-mr")
    ]
    rows = [_bench_case(case) for case in cases]

    header = f"{'n':>6} {'eps':>6} {'method':>8} {'k':>4} {'rank':>5} " \
             f"{'pcg':>10} {'Res':>10} {'Time':>8}"
    print(header)
    for row in rows:
        pcg = "--" if row["pcg_min"] is None else f"[{row['pcg_min']},{row['pcg_max']}]"
        mark = "" if row["status"] == "converged" else f" {row['status']}"
        print(
            f"{row['n']:>6} {row['eps']:>6} {row['method']:>8} {row['k']:>4} "
            f"{row['rank']:>5} {pcg:>10} {row['res']:>10.1e} "
            f"{row['time']:>8.2f}{mark}"
        )

    args.out_dir.mkdir(parents=True, exist_ok=True)
    out = args.out_dir / "bench.csv"
    with open(out, "w", newline="") as handle:
        writer = csv.DictWriter(handle, fieldnames=list(rows[0].keys()))
        writer.writeheader()
        writer.writerows(rows)
    print(f"wrote {out}")
    return 0 if all(row["status"] == "converged" for row in rows) else 3


def _cmd_verify(args) -> int:
    eq, _ = _build_problem(args)
    data = np.load(args.solution)
    # A plain .npy file loads as one array, with no named arrays at all.
    missing = [k for k in ("left", "core", "right") if k not in getattr(data, "files", ())]
    if missing:
        raise ValueError(f"{args.solution} has no array {', '.join(missing)}; "
                         "expected left, core and right")
    x = LowRankMatrix(data["left"], data["core"], data["right"])
    res = true_residual(eq, x)
    print(f"true relative residual: {res:.6e}")
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="mteq",
        description="Low-rank short-recurrence solvers for multiterm matrix equations",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_solve = sub.add_parser("solve", help="run a single solve")
    _add_problem_flags(p_solve)
    _add_solver_flags(p_solve)
    p_solve.add_argument("--out-dir", type=Path, default=Path("."),
                         help="directory for report.json")
    p_solve.add_argument("--save-solution", type=Path, default=None,
                         help="write the factored solution to this .npz file")
    p_solve.set_defaults(func=_cmd_solve)

    p_bench = sub.add_parser("bench", help="sweep the convection-diffusion grid")
    p_bench.add_argument("--sizes", type=int, nargs="*", default=None,
                         help="override the swept grid sizes")
    p_bench.add_argument("--seed", type=int, default=SolverConfig.sketch_seed,
                         help="sketch seed")
    p_bench.add_argument("--out-dir", type=Path, default=Path("."))
    p_bench.set_defaults(func=_cmd_bench)

    p_verify = sub.add_parser("verify", help="recompute the residual of a saved solution")
    _add_problem_flags(p_verify)
    p_verify.add_argument("--solution", type=Path, required=True,
                          help=".npz file written by solve --save-solution")
    p_verify.set_defaults(func=_cmd_verify)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
