"""Short-recurrence drivers for multiterm matrix equations.

Two methods share one loop. Both update the iterate by a projected step
``X -> X + P_l @ alpha @ P_r.T`` whose coefficient minimizes the Frobenius
residual norm over the current direction pair:

* ``ss_mr`` takes the (preconditioned) residual itself as the next
  direction pair;
* ``ss_gcr1`` additionally recombines the previous pair with a matrix
  coefficient ``beta`` that makes consecutive operator images orthogonal.

All iterates stay in low-rank factored form with truncation after every
update, and the stopping test uses a sketched estimate of the residual
norm when the problem is large. Preconditioner output wider than the
residual is compressed by a seeded range finder (see
:func:`mteq.lowrank.truncate`); every other truncation is exact.
"""

from __future__ import annotations

import math
import numbers
import time
import warnings
from contextlib import contextmanager
from dataclasses import asdict, dataclass, field

import numpy as np
import scipy.linalg as sla

from ._blas import single_pool
from .lowrank import OVERSAMPLING, LowRankMatrix, TruncationConfig, factored_sum, truncate
from .operator import MultitermEquation, residual_factored
from .precond import PreconditionerSpec, build_preconditioner
from .reduced import InnerSolveConfig, alpha_rhs, beta_rhs, build_reduced, solve_reduced
from .sketch import SketchPolicy, sketched_residual_truncate

#: Relative stagnation threshold on the step coefficient.
STALL_RTOL = 1e-16


@dataclass(frozen=True)
class SolverConfig:
    """Everything a solve needs besides the equation itself."""

    method: str = "ss_gcr1"
    tol: float = 1e-6
    maxit: int = 50
    truncation: TruncationConfig = field(default_factory=TruncationConfig)
    inner: InnerSolveConfig = field(default_factory=InnerSolveConfig)
    sketch_seed: int = 0
    preconditioner: PreconditionerSpec = field(default_factory=PreconditionerSpec.none)

    def __post_init__(self):
        if self.method not in ("ss_mr", "ss_gcr1"):
            raise ValueError(f"unknown method {self.method!r}")
        if not 0.0 < self.tol < 1.0:
            raise ValueError(f"tol must lie in (0, 1), got {self.tol}")
        if not isinstance(self.maxit, numbers.Integral) or self.maxit < 1:
            raise ValueError(f"maxit must be a positive integer, got {self.maxit!r}")
        if not isinstance(self.sketch_seed, numbers.Integral) or self.sketch_seed < 0:
            raise ValueError(
                f"sketch_seed must be a non-negative integer, got {self.sketch_seed!r}")


@dataclass
class SolveReport:
    """Per-solve diagnostics mirroring the usual benchmark columns.

    ``status`` is ``"converged"``, ``"maxit_reached"``, ``"stagnated"``
    (the step coefficient vanished again after a redraw) or
    ``"breakdown"`` (a step coefficient, the residual estimate, the
    projected system, an update or the preconditioner's output was not
    finite).
    ``iterations`` counts accepted steps; a redraw is not one.
    ``residual_estimates`` and ``ranks`` carry one entry for the initial
    state plus one per iteration (``iterations + 1`` in total); the rank
    triples are
    ``(rank X, rank R, rank P)``. ``inner_pcg_iters`` has one entry per
    iteration: ``(min, max)`` over that iteration's projected solves when
    the iterative path ran, else ``None``. Estimates are not guaranteed
    monotone once truncation is active. ``sketch_dim`` is the sketch
    dimension ``s`` of the policy that chose ``sketch_mode``, and
    ``sketch_n_fft`` the transform length of the row and the column sketch,
    ``None`` for a side that is not sketched. The exact residual of the
    returned iterate is :func:`true_residual`'s.
    """

    method: str
    status: str = "maxit_reached"
    iterations: int = 0
    residual_estimates: list[float] = field(default_factory=list)
    ranks: list[tuple[int, int, int]] = field(default_factory=list)
    inner_pcg_iters: list[tuple[int, int] | None] = field(default_factory=list)
    wall_times: dict[str, float] = field(default_factory=dict)
    rhs_norm: float = 0.0
    sketch_mode: str = "exact"
    sketch_dim: int = 0
    sketch_n_fft: tuple[int | None, int | None] = (None, None)

    @property
    def converged(self) -> bool:
        return self.status == "converged"

    @property
    def final_rank(self) -> int:
        return self.ranks[-1][0] if self.ranks else 0

    def as_dict(self) -> dict:
        """Every field, in declaration order, then ``final_rank``."""
        return asdict(self) | {"final_rank": self.final_rank}


@dataclass(frozen=True)
class IterationInfo:
    """Snapshot handed to a solve callback at the end of each iteration.

    ``k`` is the zero-based index of the accepted step; ``X``, ``R`` and
    ``residual_estimate`` describe the iterate after it. ``P`` is the
    direction the step took and ``P_next`` the next one, ``None`` on an
    iteration that draws no direction: the converged one, and one whose
    preconditioner output or ``beta`` was not finite.
    """

    k: int
    X: LowRankMatrix
    R: LowRankMatrix
    P: LowRankMatrix
    residual_estimate: float
    P_next: LowRankMatrix | None = None


@contextmanager
def _timer(times: dict, key: str):
    start = time.perf_counter()
    yield
    times[key] = times.get(key, 0.0) + (time.perf_counter() - start)


@single_pool()
def true_residual(eq: MultitermEquation, x: LowRankMatrix) -> float:
    """Exact relative residual ``||C D.T - L(X)||_F / ||C D.T||_F``.

    Evaluated on the factored residual: skinny QR of both tall factors
    reduces the norm to that of a small core product, which stays accurate
    down to machine precision even when the residual is tiny (a Gram-trace
    evaluation would lose half the digits to cancellation). A zero
    right-hand side yields the absolute residual norm.
    """
    norm = residual_factored(eq, x).norm_fro()
    rhs = eq.rhs_norm()
    return norm / rhs if rhs > 0 else norm


def _pcg_entry(infos: list[dict]) -> tuple[int, int] | None:
    iters = [i["pcg_iters"] for i in infos if i.get("pcg_iters") is not None]
    if not iters:
        return None
    return (min(iters), max(iters))


def _range_finder_sample(seed: int, n_cols: int, width: int) -> np.ndarray:
    """The range finder's Gaussian test matrix, ``n_cols x width`` and
    Fortran-ordered, drawn from ``seed`` on a stream neither sketch uses."""
    rng = np.random.default_rng(np.random.SeedSequence(seed, spawn_key=(0,)))
    return rng.standard_normal((width, n_cols)).T


def _break_down(reason: str, report: SolveReport) -> None:
    report.status = "breakdown"
    warnings.warn(f"{reason}; stopping at the last finite iterate", RuntimeWarning)


@single_pool()
def solve(
    eq: MultitermEquation,
    cfg: SolverConfig,
    x0: LowRankMatrix | None = None,
    callback=None,
) -> tuple[LowRankMatrix, SolveReport]:
    """Run the selected short recurrence on ``eq``.

    Parameters
    ----------
    eq : MultitermEquation
    cfg : SolverConfig
    x0 : LowRankMatrix, optional
        Initial guess; defaults to zero, for which the initial residual is
        exactly the factored right-hand side.
    callback : callable, optional
        Called with an :class:`IterationInfo` at the end of every
        iteration; useful for convergence studies.

    Returns
    -------
    x : LowRankMatrix
        The last iterate; ``true_residual(eq, x)`` is its exact relative residual.
    report : SolveReport

    Notes
    -----
    The loop stops once the sketched residual-norm estimate falls below
    ``cfg.tol * ||C D.T||_F`` or after ``cfg.maxit`` passes, whichever
    comes first; inner-solve trouble is reported through warnings but
    never aborts the iteration. If a step coefficient vanishes relative to
    the accumulated core, the direction is redrawn once from the
    un-preconditioned residual; the redraw uses up a pass. A second
    vanishing step stops the solve with status ``"stagnated"``. A step
    coefficient ``alpha`` or ``beta``, a residual estimate, a projected
    Gram table or assembled system, an updated iterate, a recombined
    direction or a preconditioner output that is not finite stops it with
    status ``"breakdown"`` and a ``RuntimeWarning`` that names it; the
    iterate returned is the last one whose estimate was finite, and the
    report describes that iterate. A ``ValueError`` is raised up front when
    ``cfg.inner.inner_precond_terms`` names a term that ``eq`` does not
    have, and when the initial guess has a non-finite residual estimate.

    Preconditioner output wider than the residual is truncated by the
    range finder of :func:`mteq.lowrank.truncate`, with a Gaussian test
    matrix of ``cfg.truncation.maxrank + OVERSAMPLING`` columns drawn from
    ``cfg.sketch_seed``, on a stream neither sketch uses. It is drawn once,
    at the first output that the sample would compress: output wider than
    the sample, which is narrower than both dimensions. One-term and
    un-preconditioned solves never draw it.

    When numpy and scipy each bundle their own OpenBLAS, numpy's runs at one
    thread during the solve (see :mod:`mteq._blas`); scipy's LAPACK and
    BLAS keep their own count.
    """
    terms = cfg.inner.inner_precond_terms
    if terms is not None and not all(0 <= t < eq.p for t in terms):
        raise ValueError(
            f"inner_precond_terms {terms} outside the zero-based "
            f"term indices 0..{eq.p - 1}"
        )
    times: dict[str, float] = {}
    t_start = time.perf_counter()
    report = SolveReport(method=cfg.method)

    x = x0 if x0 is not None else LowRankMatrix.zeros(eq.n_A, eq.n_B)
    rhs_norm = eq.rhs_norm()
    report.rhs_norm = rhs_norm

    policy = SketchPolicy.from_dimensions(
        eq.n_A, eq.n_B, eq.p, eq.q, cfg.truncation.maxrank
    )
    s_a, s_b = policy.operators(eq.n_A, eq.n_B, cfg.sketch_seed)
    report.sketch_mode = policy.mode
    report.sketch_dim = policy.s
    report.sketch_n_fft = tuple(None if op is None else op.n_fft for op in (s_a, s_b))

    sample_cols, omega = cfg.truncation.maxrank + OVERSAMPLING, None

    with _timer(times, "precondition"):
        precond = build_preconditioner(eq, cfg.preconditioner)

    # Pass 0 has no direction yet: it only evaluates the initial residual
    # and draws the first direction. Each later pass takes one step.
    p = LowRankMatrix.zeros(eq.n_A, eq.n_B)
    redrawn = False
    for k in range(cfg.maxit + 1):
        infos: list[dict] = []
        x_next = x
        if k > 0:
            with _timer(times, "reduced"):
                try:
                    sys = build_reduced(eq, p, cfg.inner)
                except FloatingPointError as exc:  # its message names what overflowed
                    _break_down(str(exc), report)
                    break
                alpha, info = solve_reduced(sys, alpha_rhs(eq, p, r))
            infos.append(info)
            if not np.isfinite(alpha).all():
                _break_down("step coefficient alpha is not finite", report)
                break

            # nrm2 scales instead of squaring: huge iterates must not read inf <= inf.
            core_scale = sla.norm(x.core.ravel(), check_finite=False)
            if sla.norm(alpha.ravel(), check_finite=False) <= STALL_RTOL * core_scale:
                if redrawn:
                    warnings.warn(
                        "step coefficient vanished twice; stopping early",
                        RuntimeWarning,
                    )
                    report.status = "stagnated"
                    break
                redrawn = True
                warnings.warn(
                    "step coefficient vanished; redrawing the direction from "
                    "the un-preconditioned residual",
                    RuntimeWarning,
                )
                with _timer(times, "truncation"):
                    p = truncate(r, cfg.truncation)
                continue

            with _timer(times, "truncation"):
                try:
                    x_next = truncate(factored_sum(x, p, alpha), cfg.truncation)
                except FloatingPointError as exc:
                    _break_down(f"updated iterate is not finite ({exc})", report)
                    break

        with _timer(times, "sketch"):
            try:
                r_next, estimate = sketched_residual_truncate(
                    eq, x_next, s_a, s_b, cfg.truncation)
            except FloatingPointError:
                r_next, estimate = None, math.nan
        if not math.isfinite(estimate):
            if k == 0:
                raise ValueError("the residual estimate of the initial guess is not finite")
            _break_down("residual estimate is not finite", report)
            break
        x, r = x_next, r_next
        if k > 0:
            report.iterations += 1
        report.residual_estimates.append(estimate)

        p_next = None
        if estimate <= cfg.tol * rhs_norm:
            report.status = "converged"
        else:
            with _timer(times, "precondition"):
                z = precond.apply(r)
            # ss_gcr1 recombines z with the direction just used; otherwise z
            # is the next direction. Output wider than r (ADI's is t_adi
            # times as wide) is truncated either way, through the range
            # finder: r's rank is at most maxrank, so narrower output always
            # falls back to the exact kernel.
            recombine = cfg.method == "ss_gcr1" and k > 0
            if z.rank > r.rank or not recombine:
                # Draw the sample at the first output it would compress: one
                # wider than the sample, which fits below both dimensions.
                if omega is None and sample_cols < min(z.rank, *z.shape):
                    omega = _range_finder_sample(cfg.sketch_seed, eq.n_B, sample_cols)
                with _timer(times, "truncation"):
                    try:
                        z = truncate(z, cfg.truncation, omega)
                    except FloatingPointError:
                        _break_down("preconditioned residual is not finite", report)
                        z = None
            p_next = z
            if recombine and z is not None:
                with _timer(times, "reduced"):
                    beta, info = solve_reduced(sys, beta_rhs(eq, p, z))
                infos.append(info)
                if np.isfinite(beta).all():
                    with _timer(times, "truncation"):
                        try:
                            p_next = truncate(factored_sum(z, p, beta), cfg.truncation)
                        except FloatingPointError as exc:
                            _break_down(f"recombined direction is not finite ({exc})", report)
                            p_next = None
                else:
                    _break_down("step coefficient beta is not finite", report)
                    p_next = None

        # A pass that converged or broke down draws no direction: record
        # the one just used.
        report.ranks.append((x.rank, r.rank, (p if p_next is None else p_next).rank))
        if k > 0:
            report.inner_pcg_iters.append(_pcg_entry(infos))
            if callback is not None:
                callback(IterationInfo(
                    k=report.iterations - 1, X=x, R=r, P=p,
                    residual_estimate=estimate, P_next=p_next,
                ))
        if p_next is None:
            break
        p = p_next

    report.wall_times = times | {"total": time.perf_counter() - t_start}
    return x, report
