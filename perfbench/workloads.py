"""Workload definitions and the per-solve correctness and path checks.

Every solve uses the acceptance configuration of the convection-diffusion
benchmark: two-term ADI on terms (0, 1) with ``t_adi=8`` and analytic
Laplacian shifts, inner PCG preconditioned by terms (0, 1), and
``toltrank=1e-10``. Only the sketch seed comes from the harness ``--seed``.

This module imports neither numpy nor mteq, so the parent harness process
can read it before any BLAS library is loaded.
"""

from __future__ import annotations

import math
from dataclasses import dataclass


@dataclass(frozen=True)
class Case:
    """One solve: equation size, method and stopping rule."""

    n: int
    eps: float
    method: str
    tol: float
    maxit: int
    maxrank: int
    #: Largest true relative residual that counts as a correct answer.
    residual_bound: float

    @property
    def label(self) -> str:
        return f"n{self.n}-eps{self.eps:g}-{self.method}"


@dataclass(frozen=True)
class Workload:
    """A closed loop of sequential solves and the path it must stay on.

    ``sketch_mode`` is the mode every solve must report. ``needs_pcg`` asks
    for at least one inner PCG projected solve per pass; ``pcg_free``
    forbids any. ``sketch_free`` forbids sketch spans in a traced pass.
    """

    name: str
    cases: tuple[Case, ...]
    smoke_cases: tuple[Case, ...]
    sketch_mode: str
    needs_pcg: bool = False
    pcg_free: bool = False
    sketch_free: bool = False


def _converging(n: int, eps: float, method: str, maxrank: int) -> Case:
    return Case(n=n, eps=eps, method=method, tol=1e-6, maxit=50,
                maxrank=maxrank, residual_bound=1e-6)


def _sweep(sizes: tuple[int, ...]) -> tuple[Case, ...]:
    return tuple(
        _converging(n, eps, method, maxrank)
        for n in sizes
        for eps, maxrank in ((0.1, 50), (0.01, 70))
        for method in ("ss_gcr1", "ss_mr")
    )


# The deep case runs past convergence on purpose (it stagnates near 7e-8),
# so its residual bound is fixed at 1e-6 whatever its status.
_DEEP = Case(n=1024, eps=0.01, method="ss_gcr1", tol=1e-12, maxit=8,
             maxrank=70, residual_bound=1e-6)

WORKLOADS: dict[str, Workload] = {
    w.name: w
    for w in (
        # Tall dimension 16382 with a two-sided sketch: tall QR, the DCT
        # sketch, ADI block solves and LU setup dominate; the projected
        # solves stay on the direct path.
        Workload(
            name="convdiff-large",
            cases=(_converging(16384, 0.1, "ss_gcr1", 50),
                   _converging(16384, 0.1, "ss_mr", 50)),
            smoke_cases=(_converging(512, 0.1, "ss_gcr1", 50),
                         _converging(512, 0.1, "ss_mr", 50)),
            sketch_mode="two_sided",
            pcg_free=True,
        ),
        # Both dimensions below the sketch size: the sketch is bypassed, the
        # residual goes through the exact QR+SVD path and the direct
        # Cholesky projected solve takes the largest share. Every solve is a
        # distinct equation/method pair.
        Workload(
            name="convdiff-sweep-small",
            cases=_sweep((256, 384)),
            smoke_cases=_sweep((48, 64)),
            sketch_mode="exact",
            pcg_free=True,
            sketch_free=True,
        ),
        # The only configuration that leaves the direct projected solve:
        # ranks pinned at 70 push q_k**2 past direct_threshold.
        Workload(
            name="convdiff-deep",
            cases=(_DEEP,),
            smoke_cases=(Case(n=600, eps=0.01, method="ss_gcr1", tol=1e-12,
                              maxit=5, maxrank=70, residual_bound=1e-6),),
            sketch_mode="two_sided",
            needs_pcg=True,
        ),
    )
}


def solve_failures(workload: Workload, case: Case, record: dict,
                   reference: dict | None = None) -> list[str]:
    """Reasons one solve counts as failed; empty when it passes.

    ``record`` holds what the worker measured for the solve: ``error``
    (set when the solve raised), ``estimate``, ``true_residual``,
    ``sketch_mode``, ``pcg_solves``, ``iterations`` and ``final_rank``, plus
    ``sketch_spans`` when the solve was traced. ``reference`` is the same
    solve from the first pass of the process: iterations and final rank
    must repeat exactly at a fixed seed. Path-guard breaches count as
    failures like wrong answers do.
    """
    if record.get("error"):
        return [f"raised: {record['error']}"]
    reasons = []
    estimate, residual = record["estimate"], record["true_residual"]
    if not (math.isfinite(estimate) and math.isfinite(residual)):
        reasons.append(f"non-finite estimate {estimate} or residual {residual}")
    elif residual > case.residual_bound:
        reasons.append(f"true residual {residual:.3e} > {case.residual_bound:.0e}")
    if record["sketch_mode"] != workload.sketch_mode:
        reasons.append(
            f"sketch mode {record['sketch_mode']!r}, expected {workload.sketch_mode!r}"
        )
    if workload.needs_pcg and record["pcg_solves"] == 0:
        reasons.append("no inner PCG projected solve")
    if workload.pcg_free and record["pcg_solves"]:
        reasons.append(f"{record['pcg_solves']} unexpected inner PCG projected solves")
    if workload.sketch_free and record.get("sketch_spans"):
        reasons.append("sketch spans recorded on a workload that bypasses the sketch")
    if reference is not None:
        got = (record["iterations"], record["final_rank"])
        want = (reference["iterations"], reference["final_rank"])
        if got != want:
            reasons.append(f"iterations/final rank {got} differ from first pass {want}")
    return reasons
