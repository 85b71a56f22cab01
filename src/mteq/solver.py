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
norm when the problem is large, certified by the exact norm once it
passes. Every preconditioned residual is truncated by
:func:`mteq.lowrank.truncate` with a seeded range finder, which compresses
only output wider than its sample (ADI's); every other truncation is exact.
"""

from __future__ import annotations

import functools
import numbers
import time
import warnings
from contextlib import contextmanager
from dataclasses import asdict, dataclass, field

import numpy as np
import scipy.linalg as sla

from ._blas import single_pool
from .lowrank import LowRankMatrix, TruncationConfig, factored_sum, gaussian_sample, truncate
from .operator import MultitermEquation, residual_factored
from .precond import PreconditionerSpec, build_preconditioner
from .reduced import InnerSolveConfig, alpha_rhs, beta_rhs, build_reduced, solve_reduced
from .sketch import sketched_residual_truncate, sketches

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

    ``status`` is ``"converged"`` (the residual norm is within ``tol``:
    a sketched estimate that passes is certified by the exact norm),
    ``"maxit_reached"``, ``"stagnated"`` (the step coefficient vanished
    again after a redraw) or ``"breakdown"`` (a step coefficient, the
    residual estimate, the projected system, an update or the
    preconditioner's output was not finite).
    ``iterations`` counts accepted steps; a redraw is not one.
    ``residual_estimates`` and ``ranks`` carry one entry for the initial
    state plus one per iteration (``iterations + 1`` in total). Estimates
    are absolute norms, not guaranteed monotone once truncation is active;
    divided by ``rhs_norm`` they are what ``tol`` is compared with. The rank
    triples are ``(rank X, rank R, rank P)``. ``inner_pcg_iters`` has one
    entry per iteration: ``(min, max)`` over that iteration's projected
    solves when the iterative path ran, else ``None``; a ``beta`` solve that
    breaks down counts the steps it ran. ``sketch_dim`` is the dimension
    ``s`` by which :func:`mteq.sketch.sketches` chose ``sketch_mode``, and
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
    iteration that draws no direction: the converged one, and one that
    broke down while drawing it.
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
    try:
        yield
    finally:  # a stage that breaks down still counts
        times[key] = times.get(key, 0.0) + (time.perf_counter() - start)


@contextmanager
def _stage(what: str):
    """Re-raise a ``FloatingPointError`` as ``"{what} is not finite (its message)"``,
    keeping the ``info`` of a projected solve that raised it."""
    try:
        yield
    except FloatingPointError as exc:
        cause = f" ({exc})" if exc.args else ""
        err = FloatingPointError(f"{what} is not finite{cause}")
        err.info = getattr(exc, "info", {})
        raise err from exc


def _require_finite(value) -> None:
    if not np.isfinite(value).all():
        raise FloatingPointError  # the enclosing _stage names it


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


def _break_down(reason: str, report: SolveReport) -> None:
    report.status = "breakdown"
    warnings.warn(f"{reason}; stopping at the last finite iterate", RuntimeWarning)


@single_pool()
@np.errstate(over="ignore", invalid="ignore")  # every product is checked where it is used
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
    The loop stops once the residual norm falls below
    ``cfg.tol * ||C D.T||_F`` or after ``cfg.maxit`` passes, whichever
    comes first; inner-solve trouble is reported through warnings but
    never aborts the iteration. The test reads the residual-norm estimate,
    which is exact when nothing is sketched. A sketched estimate is not a
    certificate: one that passes is checked on the exact norm of the
    factored residual it was taken from, which the estimate stage returns
    and which is released before preconditioning. If that fails the solve
    warns with both relative values and goes on towards a target tightened
    by their ratio. If a step coefficient vanishes relative to
    the accumulated core, the direction is redrawn once from the
    un-preconditioned residual; the redraw uses up a pass. A second
    vanishing step stops the solve with status ``"stagnated"``. A step
    coefficient ``alpha`` or ``beta``, a residual estimate, a projected
    Gram table or assembled system, an updated iterate, a recombined
    direction or a preconditioner output that is not finite stops it with
    status ``"breakdown"`` and a ``RuntimeWarning`` that names it; the
    iterate returned is the last one whose estimate was finite, and the
    report describes that iterate. A breakdown while taking a step leaves
    that pass out of the report; one while drawing the next direction
    records the pass, with ``P_next`` ``None``. Every such value is checked
    where it is used, so numpy's overflow and invalid-value warnings are
    off for the whole call, ``callback`` included, and only the
    breakdown's own warning reaches the caller. A ``ValueError`` is raised
    up front when ``cfg.inner.inner_precond_terms`` names a term that
    ``eq`` does not have, and when the initial guess has a non-finite
    residual estimate.

    Every preconditioned residual is truncated by
    :func:`mteq.lowrank.truncate`, which decides whether its range finder
    samples it. The sample is :func:`mteq.lowrank.gaussian_sample` of
    ``cfg.sketch_seed``, drawn at most once per solve and released with it.

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

    report.sketch_mode, report.sketch_dim, s_a, s_b = sketches(
        eq, cfg.truncation.maxrank, cfg.sketch_seed)
    report.sketch_n_fft = tuple(None if op is None else op.n_fft for op in (s_a, s_b))

    sample = functools.cache(functools.partial(gaussian_sample, cfg.sketch_seed))

    with _timer(times, "precondition"):
        precond = build_preconditioner(eq, cfg.preconditioner)

    # Pass 0 has no direction yet: it only evaluates the initial residual
    # and draws the first direction. Each later pass takes one step.
    p = LowRankMatrix.zeros(eq.n_A, eq.n_B)
    redrawn, target = False, cfg.tol * rhs_norm
    for k in range(cfg.maxit + 1):
        infos: list[dict] = []
        try:  # the step: a breakdown leaves the pass unrecorded
            x_next = x
            if k > 0:
                with _timer(times, "reduced"):
                    sys = build_reduced(eq, p, cfg.inner)  # its errors name themselves
                    with _stage("step coefficient alpha"):
                        alpha, info = solve_reduced(sys, alpha_rhs(eq, p, r))
                        infos.append(info)
                        _require_finite(alpha)

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

                with _timer(times, "truncation"), _stage("updated iterate"):
                    x_next = truncate(factored_sum(x, p, alpha), cfg.truncation)

            with _timer(times, "sketch"), _stage("residual estimate"):
                r_next, estimate, residual = sketched_residual_truncate(
                    eq, x_next, s_a, s_b, cfg.truncation)
                _require_finite(estimate)
        except FloatingPointError as exc:
            if k == 0:
                raise ValueError(
                    "the residual estimate of the initial guess is not finite") from exc
            _break_down(str(exc), report)
            break
        x, r = x_next, r_next
        if k > 0:
            report.iterations += 1
        report.residual_estimates.append(estimate)

        # A sketched estimate is not a certificate: one that passes is checked
        # on the exact residual, and a false pass tightens the target by the
        # ratio the estimate was off.
        converged = estimate <= target
        if converged and s_a is not None:
            with _timer(times, "sketch"):
                exact = residual.norm_fro()
            converged = exact <= cfg.tol * rhs_norm
            if not converged:
                warnings.warn(
                    f"residual estimate {estimate / rhs_norm:.3e} passed tol but the true "
                    f"residual {exact / rhs_norm:.3e} did not; tightening the target",
                    RuntimeWarning,
                )
                target = cfg.tol * rhs_norm * estimate / exact
        del residual  # 2 n (q + p rank X) floats: not held while preconditioning

        p_next = None
        if converged:
            report.status = "converged"
        else:
            try:  # the direction: a breakdown records the pass, drawing none
                with _timer(times, "precondition"):
                    z = precond.apply(r)
                with _timer(times, "truncation"), _stage("preconditioned residual"):
                    z = truncate(z, cfg.truncation, sample)
                if cfg.method == "ss_gcr1" and k > 0:
                    with _timer(times, "reduced"), _stage("step coefficient beta"):
                        beta, info = solve_reduced(sys, beta_rhs(eq, p, z))
                        infos.append(info)
                        _require_finite(beta)
                    with _timer(times, "truncation"), _stage("recombined direction"):
                        z = truncate(factored_sum(z, p, beta), cfg.truncation)
                p_next = z
            except FloatingPointError as exc:
                infos.append(getattr(exc, "info", {}))  # a beta solve that raised counts
                _break_down(str(exc), report)

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
