"""Solver drivers: exactness, convergence bounds, degenerations, reporting."""

import contextlib
import dataclasses
import functools
import warnings

import numpy as np
import pytest
import scipy.sparse as sp

import mteq.reduced
import mteq.solver
from mteq import (
    ConvDiffSpec,
    InnerSolveConfig,
    LowRankMatrix,
    MultitermEquation,
    PreconditionerSpec,
    SolverConfig,
    TruncationConfig,
    apply_L,
    apply_Lstar,
    build_convdiff,
    solve,
    true_residual,
)
from mteq.operator import residual_factored
from mteq.oracle import assemble_kron, direct_solve, spectral_quantities

from conftest import (
    manufactured_equation,
    overflow_step,
    overflowing_beta_convdiff,
    overflowing_convdiff,
    overflowing_kron_convdiff,
    overflowing_rhs_convdiff,
    poison_preconditioner,
    poison_step,
    random_lowrank,
    random_posdef_equation,
    scaled_rhs_convdiff,
    transposed,
    vanish_first_steps,
)


def untruncated_config(n, method="ss_mr", tol=1e-14, maxit=30):
    return SolverConfig(
        method=method, tol=tol, maxit=maxit,
        truncation=TruncationConfig(toltrank=1e-15, maxrank=n),
    )


def test_identity_operator_converges_in_one_iteration():
    rng = np.random.default_rng(0)
    n = 12
    eye = sp.identity(n, format="csr")
    eq = MultitermEquation(terms=[(eye, eye)], C=rng.standard_normal((n, 2)),
                           D=rng.standard_normal((n, 2)))
    x, rep = solve(eq, untruncated_config(n))
    assert rep.converged
    assert rep.iterations == 1
    np.testing.assert_allclose(x.densify(), eq.C @ eq.D.T,
                               atol=1e-13 * eq.rhs_norm())


def test_matches_direct_solve_on_posdef_instance():
    rng = np.random.default_rng(1)
    eq = random_posdef_equation(rng, 20, 20, 3, 2)
    x_ref = direct_solve(assemble_kron(eq))
    x, rep = solve(eq, untruncated_config(20, tol=1e-8, maxit=200))
    assert rep.converged
    assert true_residual(eq, x) <= 1e-6
    err = np.linalg.norm(x.densify() - x_ref) / np.linalg.norm(x_ref)
    assert err <= 1e-5


def test_true_residual_trivials():
    rng = np.random.default_rng(2)
    eq = random_posdef_equation(rng, 12, 10, 2, 2)
    assert true_residual(eq, LowRankMatrix.zeros(12, 10)) == pytest.approx(1.0)
    x_ref = LowRankMatrix.from_dense(direct_solve(assemble_kron(eq)))
    assert true_residual(eq, x_ref) <= 1e-10
    x = random_lowrank(rng, 12, 10, 3)
    dense = np.linalg.norm(eq.C @ eq.D.T - apply_L(eq, x).densify())
    assert true_residual(eq, x) == pytest.approx(dense / eq.rhs_norm(), rel=1e-10)


def test_mr_residuals_monotone_and_elman_bounded():
    rng = np.random.default_rng(3)
    for trial in range(5):
        eq = random_posdef_equation(rng, 12, 12, 2, 1)
        mu, nrm = spectral_quantities(assemble_kron(eq))
        assert mu > 0
        factor = np.sqrt(1.0 - (mu / nrm) ** 2)
        _, rep = solve(eq, untruncated_config(12, maxit=15))
        est = rep.residual_estimates
        for k in range(len(est) - 1):
            if est[k] <= 1e-12 * rep.rhs_norm:
                break
            assert est[k + 1] <= factor * est[k] + 1e-10
            assert est[k + 1] <= est[k] + 1e-12


def test_sharper_subspace_bound():
    rng = np.random.default_rng(4)
    eq = random_posdef_equation(rng, 14, 14, 2, 1)
    kron = assemble_kron(eq)
    mu, _ = spectral_quantities(kron)
    assert mu > 0
    snapshots = []
    solve(eq, untruncated_config(14, maxit=10), callback=snapshots.append)
    _, rep = solve(eq, untruncated_config(14, maxit=10))
    est = rep.residual_estimates
    for info in snapshots:
        k = info.k
        if est[k] <= 1e-12 * rep.rhs_norm:
            break
        q = np.kron(info.P.right, info.P.left)
        aq = kron.matrix @ q
        m_q = aq.T @ aq
        bound = np.sqrt(max(1.0 - mu**2 / np.linalg.norm(m_q, 2), 0.0))
        assert est[k + 1] <= bound * est[k] + 1e-10


def test_gcr_direction_is_descent_direction():
    rng = np.random.default_rng(5)
    checked = 0
    # Trial 3 levels off at 1.2e-14 relative, just above its tol, and stops there.
    with pytest.warns(RuntimeWarning, match="residual estimate stopped falling"):
        for trial in range(4):
            eq = random_posdef_equation(rng, 12, 12, 3, 1)
            snapshots = []
            solve(eq, untruncated_config(12, method="ss_gcr1", maxit=10),
                  callback=snapshots.append)
            for info in snapshots:
                if info.P_next is None or info.residual_estimate <= 1e-12:
                    continue
                grad_pair = np.sum(
                    apply_Lstar(eq, info.R).densify()
                    * apply_Lstar(eq, info.P_next).densify()
                )
                # gradient of the squared residual is -2 L*(R), so descent means
                # a positive pairing with L*(P_next)
                assert grad_pair > 0
                checked += 1
    assert checked >= 5


def test_rank_one_iterates_match_vector_mr():
    # With one term whose left coefficient is the identity and a rank-1
    # right-hand side, every iterate and residual stays rank 1, the
    # projected step is the classical scalar, and the matrix recurrence
    # must reproduce vector minimal residual on the vectorized system.
    from conftest import perturbation, random_spd

    rng = np.random.default_rng(6)
    n = 15
    b = random_spd(rng, n, spread=(1.0, 3.0)) + perturbation(rng, n, 0.15)
    eq = MultitermEquation(
        terms=[(sp.identity(n, format="csr"), sp.csr_matrix(b))],
        C=rng.standard_normal((n, 1)),
        D=rng.standard_normal((n, 1)),
    )
    kron = assemble_kron(eq)
    snapshots = []
    cfg = SolverConfig(method="ss_mr", tol=1e-16, maxit=12,
                       truncation=TruncationConfig(toltrank=1e-15, maxrank=1))
    solve(eq, cfg, callback=snapshots.append)
    assert len(snapshots) >= 10

    x_vec = np.zeros(kron.b.size)
    r_vec = kron.b.copy()
    for info in snapshots[:10]:
        w = kron.matrix @ r_vec
        alpha = float(w @ r_vec) / float(w @ w)
        x_vec = x_vec + alpha * r_vec
        r_vec = kron.b - kron.matrix @ x_vec
        got = info.X.densify().flatten(order="F")
        assert np.linalg.norm(got - x_vec) <= 1e-10 * max(np.linalg.norm(x_vec), 1.0)


def test_zero_rhs_converges_immediately():
    n = 10
    eye = sp.identity(n, format="csr")
    eq = MultitermEquation(terms=[(eye, eye)], C=np.zeros((n, 1)),
                           D=np.zeros((n, 1)))
    x, rep = solve(eq, untruncated_config(n))
    assert rep.converged
    assert rep.iterations == 0
    assert x.is_zero


def test_maxit_reached_flag():
    rng = np.random.default_rng(7)
    eq = random_posdef_equation(rng, 16, 16, 3, 2)
    cfg = SolverConfig(method="ss_mr", tol=1e-14, maxit=2,
                       truncation=TruncationConfig(toltrank=1e-15, maxrank=4))
    x, rep = solve(eq, cfg)
    assert rep.status == "maxit_reached"
    assert rep.iterations == 2
    assert x.rank <= 4


def test_report_lengths_consistent():
    rng = np.random.default_rng(8)
    eq = random_posdef_equation(rng, 14, 14, 2, 2)
    _, rep = solve(eq, untruncated_config(14, tol=1e-8, maxit=50))
    assert len(rep.residual_estimates) == rep.iterations + 1
    assert len(rep.ranks) == rep.iterations + 1
    assert len(rep.inner_pcg_iters) == rep.iterations
    assert rep.wall_times["total"] > 0


def test_nonzero_initial_guess():
    rng = np.random.default_rng(9)
    eq = random_posdef_equation(rng, 14, 14, 2, 2)
    x0 = random_lowrank(rng, 14, 14, 2)
    x, rep = solve(eq, untruncated_config(14, tol=1e-8, maxit=100), x0=x0)
    assert rep.converged
    assert true_residual(eq, x) <= 1e-6


def test_truncated_solve_still_converges():
    rng = np.random.default_rng(10)
    eq = random_posdef_equation(rng, 20, 20, 2, 1, nonsym=0.05)
    cfg = SolverConfig(method="ss_gcr1", tol=1e-6, maxit=100,
                       truncation=TruncationConfig(toltrank=1e-12, maxrank=10))
    x, rep = solve(eq, cfg)
    assert rep.converged
    assert x.rank <= 10
    assert true_residual(eq, x) <= 1e-6


def test_none_preconditioner_bit_identical_to_default():
    rng = np.random.default_rng(11)
    eq = random_posdef_equation(rng, 12, 12, 2, 1)
    cfg_a = untruncated_config(12, tol=1e-8, maxit=20)
    cfg_b = SolverConfig(
        method="ss_mr", tol=1e-8, maxit=20,
        truncation=TruncationConfig(toltrank=1e-15, maxrank=12),
        preconditioner=PreconditionerSpec.none(),
    )
    x_a, rep_a = solve(eq, cfg_a)
    x_b, rep_b = solve(eq, cfg_b)
    assert np.array_equal(x_a.densify(), x_b.densify())
    assert rep_a.residual_estimates == rep_b.residual_estimates


def test_one_term_preconditioned_solve():
    rng = np.random.default_rng(12)
    eq = random_posdef_equation(rng, 16, 16, 3, 1, nonsym=0.05)
    cfg = SolverConfig(
        method="ss_gcr1", tol=1e-8, maxit=60,
        truncation=TruncationConfig(toltrank=1e-14, maxrank=16),
        preconditioner=PreconditionerSpec.one_term(0),
    )
    x, rep = solve(eq, cfg)
    assert rep.converged
    assert true_residual(eq, x) <= 1e-7


def test_invalid_config_rejected():
    with pytest.raises(ValueError):
        SolverConfig(method="bogus")
    for tol in (0.0, 1.0, np.inf, np.nan):
        with pytest.raises(ValueError, match=r"tol must lie in \(0, 1\)"):
            SolverConfig(tol=tol)
    with pytest.raises(ValueError):
        SolverConfig(maxit=0)


def test_left_only_sketching_in_full_solve():
    rng = np.random.default_rng(13)
    n_a, n_b = 1200, 40
    terms = []
    for _ in range(2):
        a = sp.diags(rng.uniform(1.0, 2.0, n_a)) + 0.05 * sp.random(
            n_a, n_a, density=0.002, random_state=np.random.RandomState(5))
        b = sp.diags(rng.uniform(1.0, 2.0, n_b)) + 0.05 * sp.random(
            n_b, n_b, density=0.05, random_state=np.random.RandomState(6))
        terms.append((a.tocsr(), b.tocsr()))
    eq = MultitermEquation(terms=terms, C=rng.standard_normal((n_a, 2)),
                           D=rng.standard_normal((n_b, 2)))
    cfg = SolverConfig(method="ss_gcr1", tol=1e-8, maxit=60,
                       truncation=TruncationConfig(toltrank=1e-12, maxrank=10))
    x, rep = solve(eq, cfg)
    assert rep.sketch_mode == "left_only"
    assert rep.sketch_dim == 44  # 2 (p maxrank + q)
    assert rep.sketch_n_fft == (1200, None)  # 1200 = 2^4 3 5^2 is a fast length
    assert rep.converged
    assert true_residual(eq, x) <= 1e-6


def convdiff_config(method, maxit):
    return SolverConfig(
        method=method, tol=1e-6, maxit=maxit,
        truncation=TruncationConfig(toltrank=1e-10, maxrank=50),
        inner=InnerSolveConfig(inner_precond_terms=(0, 1)),
        sketch_seed=7,
        preconditioner=PreconditionerSpec.two_term_adi(
            indices=(0, 1), t_adi=8, shift_source="analytic_laplacian"),
    )


@pytest.mark.parametrize("method", ["ss_gcr1", "ss_mr"])
def test_one_vanished_step_is_an_ordinary_pass(monkeypatch, method):
    eq = build_convdiff(ConvDiffSpec(n=64, eps=0.1))
    vanish_first_steps(monkeypatch, 1)
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        x, rep = solve(eq, convdiff_config(method, maxit=50))
    assert [str(w.message) for w in caught] == []
    assert rep.converged
    assert rep.residual_estimates[1] == rep.residual_estimates[0]
    assert len(rep.residual_estimates) == len(rep.ranks) == rep.iterations + 1
    assert len(rep.inner_pcg_iters) == rep.iterations
    assert true_residual(eq, x) <= 1e-6


@pytest.mark.parametrize("method", ["ss_gcr1", "ss_mr"])
def test_a_step_that_always_vanishes_stops_stagnated(monkeypatch, method):
    # It redrew the direction once, then stopped at 0 iterations because
    # the step "vanished twice"; now the plateau rule alone stops it.
    eq = build_convdiff(ConvDiffSpec(n=64, eps=0.1))
    vanish_first_steps(monkeypatch, np.inf)
    with pytest.warns(RuntimeWarning) as caught:
        x, rep = solve(eq, convdiff_config(method, maxit=10))
    assert [str(w.message).startswith("residual estimate stopped falling")
            for w in caught] == [True]
    assert (rep.status, rep.converged) == ("stagnated", False)
    assert rep.iterations == mteq.solver.PLATEAU_PASSES == 2
    assert len(rep.residual_estimates) == len(rep.ranks) == rep.iterations + 1
    assert len(rep.inner_pcg_iters) == rep.iterations
    assert x.is_zero


def thin_convdiff(shape):
    """Convdiff n = 66 on its first interior column, a 64 x 1 equation, or
    mirrored on its first row, 1 x 64. In both, term 0 is the diffusion along
    the rows and term 1 along the columns."""
    eq = build_convdiff(ConvDiffSpec(n=66, eps=0.1))
    column = MultitermEquation(terms=[(a, b[:1, :1]) for a, b in eq.terms], C=eq.C, D=eq.D[:1])
    if shape == (64, 1):
        return column
    row = transposed(column)
    return MultitermEquation(terms=[*row.terms[1::-1], *row.terms[2:]], C=row.C, D=row.D)


@pytest.mark.parametrize("spec", [PreconditionerSpec.none(), PreconditionerSpec.one_term(0),
                                  PreconditionerSpec.one_term(1),
                                  PreconditionerSpec.two_term_adi()],
                         ids=["none", "one_term-0", "one_term-1", "two_term_adi"])
@pytest.mark.parametrize("shape", [(64, 1), (1, 64)], ids=["64x1", "1x64"])
def test_a_side_of_one_solves_under_every_preconditioner(shape, spec):
    # Factoring a 1 x 1 coefficient raised ValueError from pttrf's empty off-diagonal.
    eq = thin_convdiff(shape)
    cfg = SolverConfig(tol=1e-8, maxit=30, truncation=TruncationConfig(maxrank=10),
                       sketch_seed=7, preconditioner=spec)
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        x, rep = solve(eq, cfg)
    assert rep.status in ("converged", "maxit_reached", "stagnated", "breakdown")
    assert len(rep.residual_estimates) == rep.iterations + 1
    if rep.converged:
        assert caught == []
        assert true_residual(eq, x) <= cfg.tol


def solve_quietly(eq, cfg):
    """``solve``, with any warning it raises recorded instead of failing the test."""
    with warnings.catch_warnings(record=True):
        warnings.simplefilter("always")
        return solve(eq, cfg)


@functools.cache
def manufactured(shape, p):
    """The manufactured equation of ``shape`` and ``p`` terms, its solution
    ``X*`` and the smallest singular value of its operator."""
    eq, x_star = manufactured_equation(np.random.default_rng(shape[0] + 3 * p), *shape, p)
    return eq, x_star, np.linalg.svd(assemble_kron(eq).matrix, compute_uv=False)[-1]


@pytest.mark.parametrize("method", ["ss_mr", "ss_gcr1"])
@pytest.mark.parametrize("spec", [PreconditionerSpec.none(), PreconditionerSpec.one_term(0),
                                  PreconditionerSpec.two_term_adi()],
                         ids=["none", "one_term-0", "two_term_adi"])
@pytest.mark.parametrize("p", [2, 3, 5])
@pytest.mark.parametrize("shape", [(64, 1), (1, 64), (40, 12), (12, 40)],
                         ids=["64x1", "1x64", "40x12", "12x40"])
def test_manufactured_solution_is_recovered(shape, p, spec, method):
    # No iteration count or rank is pinned: they may move with the BLAS kernel.
    eq, x_star, sigma_min = manufactured(shape, p)
    cfg = SolverConfig(method=method, tol=1e-8, maxit=40, sketch_seed=7, preconditioner=spec,
                       truncation=TruncationConfig(maxrank=20))
    x, rep = solve_quietly(eq, cfg)
    assert rep.status in ("converged", "maxit_reached", "stagnated", "breakdown")
    res = true_residual(eq, x)
    if rep.converged:
        assert res <= cfg.tol
    # ||X - X*|| <= ||L^{-1}|| ||L(X) - C D^T||, and ||L^{-1}|| = 1 / sigma_min(L).
    assert (np.linalg.norm(x.densify() - x_star)
            <= 1.01 * res * eq.rhs_norm() / sigma_min)

    # Transposed, a two-term pair's row and column terms swap; one term keeps its index.
    mirrored = dataclasses.replace(spec, indices=spec.indices[::-1])
    _, rep_t = solve_quietly(transposed(eq), dataclasses.replace(cfg, preconditioner=mirrored))
    assert rep_t.status == rep.status


@pytest.mark.parametrize("method", ["ss_mr", "ss_gcr1"])
@pytest.mark.parametrize("spec", [PreconditionerSpec.none(), PreconditionerSpec.one_term(0),
                                  PreconditionerSpec.two_term_adi()],
                         ids=["none", "one_term-0", "two_term_adi"])
@pytest.mark.parametrize("shape", [(4096, 1), (1, 4096), (4096, 8), (8, 4096)],
                         ids=["4096x1", "1x4096", "4096x8", "8x4096"])
def test_manufactured_equation_of_extreme_shape_solves(shape, spec, method):
    # The dense oracle refuses these sizes, so the forward error goes unchecked.
    # Only the row side is ever sketched: the equation with 4096 rows runs
    # left_only and its transpose exact.
    eq, _ = manufactured_equation(np.random.default_rng(shape[0] + 6), *shape, 2)
    cfg = SolverConfig(method=method, tol=1e-8, maxit=40, sketch_seed=7, preconditioner=spec,
                       truncation=TruncationConfig(maxrank=20))
    x, rep = solve_quietly(eq, cfg)
    assert rep.status in ("converged", "maxit_reached", "stagnated", "breakdown")
    if rep.converged:
        assert true_residual(eq, x) <= cfg.tol
    mirrored = dataclasses.replace(spec, indices=spec.indices[::-1])
    _, rep_t = solve_quietly(transposed(eq), dataclasses.replace(cfg, preconditioner=mirrored))
    assert rep_t.status == rep.status
    tall = shape[0] == 4096
    assert (rep.sketch_mode, rep_t.sketch_mode) == (("left_only", "exact") if tall
                                                    else ("exact", "left_only"))


def plateau_config(method="ss_mr", maxit=40):
    """Convdiff n = 64 at maxrank 30, whose estimate levels off near 1.1e-9,
    far above its tol of 1e-10."""
    return dataclasses.replace(convdiff_config(method, maxit=maxit), tol=1e-10,
                               truncation=TruncationConfig(toltrank=1e-10, maxrank=30))


def test_solve_stops_once_the_residual_estimate_levels_off(monkeypatch):
    # This ran all 40 passes to maxit_reached.
    eq = build_convdiff(ConvDiffSpec(n=64, eps=0.1))
    with pytest.warns(RuntimeWarning, match="residual estimate stopped falling") as caught:
        x, rep = solve(eq, plateau_config())
    assert len(caught) == 1
    assert (rep.status, rep.converged) == ("stagnated", False)
    assert rep.iterations <= 8
    assert len(rep.residual_estimates) == len(rep.ranks) == rep.iterations + 1
    lowest = int(np.argmin(rep.residual_estimates))
    message = str(caught[0].message)
    assert (f"lowest relative estimate is "
            f"{rep.residual_estimates[lowest] / rep.rhs_norm:.3e}, after iteration {lowest}"
            in message)
    assert f"ranks (X, R, P) {rep.ranks[-1]} against maxrank 30" in message

    # The passes the stop saves would not have won anything.
    monkeypatch.setattr(mteq.solver, "PLATEAU_PASSES", 41)
    x_full, full = solve(eq, plateau_config())
    assert (full.status, full.iterations) == ("maxit_reached", 40)
    assert true_residual(eq, x) == pytest.approx(true_residual(eq, x_full), rel=0.05)


def test_stop_does_not_depend_on_rounding():
    # Scaling the right-hand side by 1 + j 2**-45 changes nothing but
    # rounding, which is all a BLAS kernel or thread count changes. On the
    # floor near 1.6e-8 the residual wanders by a few percent from pass to
    # pass; with 1% as an improvement, these runs stopped after 16, 14 and 13.
    eq = build_convdiff(ConvDiffSpec(n=96, eps=0.01))
    cfg = plateau_config("ss_gcr1", maxit=20)
    stops = set()
    for j in range(3):
        scaled = dataclasses.replace(eq, C=eq.C * (1 + j * 2.0**-45))
        with pytest.warns(RuntimeWarning, match="residual estimate stopped falling"):
            _, rep = solve(scaled, cfg)
        stops.add((rep.status, rep.iterations))
    assert len(stops) == 1


@pytest.mark.parametrize("method", ["ss_mr", "ss_gcr1"])
def test_pass_maxit_draws_no_direction(monkeypatch, method):
    # It preconditioned, truncated and, under ss_gcr1, solved for beta and
    # recombined, then dropped the direction: maxit + 1 ADI applies.
    from mteq.precond import TwoTermAdiPreconditioner

    apply, applied = TwoTermAdiPreconditioner.apply, []
    monkeypatch.setattr(TwoTermAdiPreconditioner, "apply",
                        lambda self, r: applied.append(r) or apply(self, r))
    eq = build_convdiff(ConvDiffSpec(n=64, eps=0.1))
    infos = []
    _, rep = solve(eq, plateau_config(method, maxit=2), callback=infos.append)
    assert (rep.status, rep.iterations) == ("maxit_reached", 2)
    assert len(applied) == 2
    assert [info.P_next is None for info in infos] == [False, True]
    assert rep.ranks[-1][2] == infos[-1].P.rank


@pytest.mark.parametrize("method, call, coeff", [
    ("ss_gcr1", 2, "beta"),   # beta of the first step: that step is kept
    ("ss_gcr1", 3, "alpha"),  # alpha of the second step: it is not taken
    ("ss_mr", 2, "alpha"),
])
def test_non_finite_step_coefficient_breaks_down(monkeypatch, method, call, coeff):
    eq = build_convdiff(ConvDiffSpec(n=64, eps=0.1))
    cfg = convdiff_config(method, maxit=10)
    clean = []
    solve(eq, cfg, callback=lambda info: clean.append(info.X))
    assert len(clean) >= 2

    poison_step(monkeypatch, call)
    with pytest.warns(RuntimeWarning, match=f"{coeff} is not finite") as caught:
        x, rep = solve(eq, cfg)
    assert len(caught) == 1
    assert rep.status == "breakdown"
    assert not rep.converged
    assert rep.iterations == 1
    assert len(rep.residual_estimates) == len(rep.ranks) == 2
    assert len(rep.inner_pcg_iters) == 1
    # The last finite iterate is returned: the clean solve's first one.
    for got, want in zip((x.left, x.core, x.right),
                         (clean[0].left, clean[0].core, clean[0].right)):
        assert np.array_equal(got, want)
    assert np.isfinite(true_residual(eq, x))
    assert np.isfinite(rep.residual_estimates).all()


@pytest.mark.parametrize("maxrank", [20, 60], ids=["range_finder", "exact_fallback"])
@pytest.mark.parametrize("method", ["ss_mr", "ss_gcr1"])
def test_non_finite_preconditioner_output_breaks_down(monkeypatch, method, maxrank):
    # A NaN in the ADI output escaped as ValueError from the truncation. At
    # n_A = n_B = 64, maxrank 20 samples 30 columns, fewer than both
    # dimensions and the output's width: the range finder runs. Maxrank 60
    # samples 70 columns: the exact kernel runs.
    eq = build_convdiff(ConvDiffSpec(n=66, eps=0.1))
    cfg = dataclasses.replace(convdiff_config(method, maxit=10),
                              truncation=TruncationConfig(toltrank=1e-10, maxrank=maxrank))
    clean = []
    solve(eq, cfg, callback=lambda info: clean.append(info.X))
    assert len(clean) >= 2

    poison_preconditioner(monkeypatch, 2)
    infos = []
    with pytest.warns(RuntimeWarning, match="preconditioned residual is not finite") as caught:
        x, rep = solve(eq, cfg, callback=infos.append)
    assert len(caught) == 1
    assert rep.status == "breakdown"
    assert rep.iterations == 1
    assert len(rep.residual_estimates) == len(rep.ranks) == 2
    assert len(infos) == 1 and infos[0].P_next is None
    for got, want in zip((x.left, x.core, x.right),
                         (clean[0].left, clean[0].core, clean[0].right)):
        assert np.array_equal(got, want)
    assert np.isfinite(true_residual(eq, x))


@pytest.mark.parametrize("maxrank", [20, 60], ids=["range_finder", "exact_fallback"])
@pytest.mark.parametrize("method", ["ss_mr", "ss_gcr1"])
def test_non_finite_preconditioner_output_in_pass_0_breaks_down(monkeypatch, method,
                                                                maxrank):
    # The first direction is never drawn: the pass that evaluated the
    # initial residual is recorded, and no step is taken.
    eq = build_convdiff(ConvDiffSpec(n=66, eps=0.1))
    cfg = dataclasses.replace(convdiff_config(method, maxit=10),
                              truncation=TruncationConfig(toltrank=1e-10, maxrank=maxrank))
    poison_preconditioner(monkeypatch, 1)
    infos = []
    with pytest.warns(RuntimeWarning, match="preconditioned residual is not finite") as caught:
        x, rep = solve(eq, cfg, callback=infos.append)
    assert len(caught) == 1
    assert (rep.status, rep.iterations) == ("breakdown", 0)
    assert len(rep.residual_estimates) == 1
    assert rep.ranks == [(0, 2, 0)]
    assert rep.inner_pcg_iters == []
    assert infos == []
    assert x.is_zero


@pytest.mark.parametrize("spec", [PreconditionerSpec.none(), PreconditionerSpec.one_term(0)],
                         ids=["none", "one_term"])
@pytest.mark.parametrize("method", ["ss_mr", "ss_gcr1"])
def test_rank_preserving_preconditioners_never_take_the_range_finder(monkeypatch, method,
                                                                     spec):
    # Their output is no wider than the truncated residual, so every
    # truncation is the exact kernel's: the same solve with the test matrix
    # withheld is bit-identical.
    import mteq.solver
    from mteq.lowrank import truncate

    eq = build_convdiff(ConvDiffSpec(n=66, eps=0.1))
    cfg = dataclasses.replace(convdiff_config(method, maxit=4), preconditioner=spec,
                              truncation=TruncationConfig(toltrank=1e-10, maxrank=10))
    x, rep = solve(eq, cfg)
    monkeypatch.setattr(mteq.solver, "truncate", lambda m, c, omega=None: truncate(m, c))
    x_exact, rep_exact = solve(eq, cfg)
    assert rep.residual_estimates == rep_exact.residual_estimates
    assert rep.ranks == rep_exact.ranks
    for got, want in zip((x.left, x.core, x.right), (x_exact.left, x_exact.core, x_exact.right)):
        assert np.array_equal(got, want)


def test_non_finite_estimate_breaks_down_at_the_last_finite_iterate(monkeypatch):
    import mteq.solver
    from mteq.sketch import sketched_residual_truncate

    eq = build_convdiff(ConvDiffSpec(n=64, eps=0.1))
    calls = []

    def patched(*args):
        r, estimate, residual = sketched_residual_truncate(*args)
        calls.append(estimate)
        return r, (np.nan if len(calls) == 2 else estimate), residual

    monkeypatch.setattr(mteq.solver, "sketched_residual_truncate", patched)
    with pytest.warns(RuntimeWarning, match="residual estimate is not finite"):
        x, rep = solve(eq, convdiff_config("ss_gcr1", maxit=10))
    assert rep.status == "breakdown"
    assert rep.iterations == 0
    assert rep.residual_estimates == calls[:1]
    assert x.is_zero

    calls.clear()
    calls.append(0.0)  # the next call is the second: the initial residual
    with pytest.raises(ValueError, match="initial guess is not finite"):
        solve(eq, convdiff_config("ss_gcr1", maxit=10))


@pytest.mark.parametrize("method", ["ss_mr", "ss_gcr1"])
def test_overflowing_projected_system_breaks_down(method):
    # The Cholesky of the assembled system raised scipy's bare ValueError.
    eq = overflowing_convdiff()
    with pytest.warns(RuntimeWarning, match="projected Gram table is not finite"):
        x, rep = solve(eq, SolverConfig(method=method))
    assert rep.status == "breakdown"
    assert rep.iterations == 0
    assert len(rep.residual_estimates) == len(rep.ranks) == 1
    assert rep.inner_pcg_iters == []
    # The last finite iterate is the zero initial guess.
    assert x.is_zero
    assert true_residual(eq, x) == pytest.approx(1.0)


def test_overflowing_initial_residual_is_a_non_finite_estimate():
    # The SVD of the overflowing core product raised scipy's bare
    # "array must not contain infs or NaNs".
    with pytest.raises(ValueError, match="residual estimate of the initial guess is not finite"):
        solve(overflowing_rhs_convdiff(), SolverConfig())


@pytest.mark.parametrize("threshold", [mteq.reduced.DIRECT_THRESHOLD, 1], ids=["direct", "pcg"])
@pytest.mark.parametrize("method", ["ss_mr", "ss_gcr1"])
def test_overflowing_assembled_system_breaks_down(monkeypatch, method, threshold):
    # The Gram tables are finite, their Kronecker products are not: the
    # direct path raised scipy's bare "array must not contain infs or NaNs".
    monkeypatch.setattr(mteq.reduced, "DIRECT_THRESHOLD", threshold)
    eq = overflowing_kron_convdiff()
    message = "assembled projected system" if threshold > 1 else "step coefficient alpha"
    with pytest.warns(RuntimeWarning, match=f"{message} is not finite"):
        x, rep = solve(eq, SolverConfig(method=method, tol=1e-8, maxit=20))
    assert (rep.status, rep.iterations) == ("breakdown", 0)
    assert x.is_zero


@pytest.mark.parametrize("threshold", [mteq.reduced.DIRECT_THRESHOLD, 1], ids=["direct", "pcg"])
def test_overflowing_beta_right_hand_side_breaks_down(monkeypatch, threshold):
    # The direct path's cho_solve raised scipy's bare "array must not
    # contain infs or NaNs" on beta's right-hand side.
    monkeypatch.setattr(mteq.reduced, "DIRECT_THRESHOLD", threshold)
    eq = overflowing_beta_convdiff()
    with pytest.warns(RuntimeWarning, match="step coefficient beta is not finite"):
        x, rep = solve(eq, SolverConfig(method="ss_gcr1", tol=1e-8, maxit=20))
    assert (rep.status, rep.iterations) == ("breakdown", 1)
    assert np.isfinite(true_residual(eq, x))


@pytest.mark.parametrize("threshold", [mteq.reduced.DIRECT_THRESHOLD, 1], ids=["direct", "pcg"])
@pytest.mark.parametrize(("build", "method", "message"), [
    (overflowing_convdiff, "ss_mr", "projected Gram table"),
    (overflowing_kron_convdiff, "ss_mr", None),
    (overflowing_beta_convdiff, "ss_gcr1", "step coefficient beta"),
], ids=["gram", "kronecker-sum", "beta-rhs"])
def test_overflow_breakdown_warns_once(monkeypatch, build, method, message, threshold):
    # numpy's "overflow encountered in matmul", and on the PCG path its
    # "invalid value" and inner PCG's missed tolerance, came next to the
    # warning that names the breakdown.
    monkeypatch.setattr(mteq.reduced, "DIRECT_THRESHOLD", threshold)
    if message is None:
        message = "assembled projected system" if threshold > 1 else "step coefficient alpha"
    with pytest.warns(RuntimeWarning) as caught:
        solve(build(), SolverConfig(method=method, tol=1e-8, maxit=20))
    assert [str(w.message).split(" is not finite")[0] for w in caught] == [message]


def record_pcg_iterates(monkeypatch):
    """Record, per call of the ``cg`` that :mod:`mteq.reduced` runs, whether
    each iterate scipy hands to the callback is finite."""
    cg, calls = mteq.reduced.spla.cg, []

    def recording(*args, callback, **kwargs):
        finite = []
        calls.append(finite)

        def record(iterate):
            finite.append(bool(np.isfinite(iterate).all()))
            callback(iterate)

        return cg(*args, callback=record, **kwargs)

    monkeypatch.setattr(mteq.reduced.spla, "cg", recording)
    return calls


@pytest.mark.parametrize(("build", "method", "coeff"), [
    (overflowing_kron_convdiff, "ss_mr", "alpha"),
    (overflowing_beta_convdiff, "ss_gcr1", "beta"),
], ids=["kronecker-sum", "beta-rhs"])
def test_overflowing_pcg_projected_solve_stops_at_its_first_step(monkeypatch, build,
                                                                 method, coeff):
    # Inner PCG ran all PCG_MAXIT (200) iterations on NaN first. A step that
    # breaks down leaves its pass out; a direction that does still counts the
    # PCG steps of its beta solve next to alpha's (it read alpha's twice).
    # Which iterate overflows first depends on the BLAS kernel.
    monkeypatch.setattr(mteq.reduced, "DIRECT_THRESHOLD", 1)
    calls = record_pcg_iterates(monkeypatch)
    with pytest.warns(RuntimeWarning) as caught:
        _, rep = solve(build(), SolverConfig(method=method, tol=1e-8, maxit=20))
    assert rep.status == "breakdown"
    *earlier, last = calls
    assert all(all(finite) for finite in earlier)
    assert last[-1] is False and all(last[:-1])
    assert len(caught) == 1
    assert str(caught[0].message).startswith(
        f"step coefficient {coeff} is not finite (inner PCG iterate {len(last)} is not finite)")
    steps = [len(finite) for finite in calls]
    assert rep.inner_pcg_iters == ([] if coeff == "alpha" else [(min(steps), max(steps))])


def test_a_stage_that_breaks_down_still_counts_its_time():
    # build_reduced raises inside the "reduced" timer.
    with pytest.warns(RuntimeWarning, match="assembled projected system is not finite"):
        _, rep = solve(overflowing_kron_convdiff(), SolverConfig(method="ss_mr", maxit=20))
    assert rep.wall_times["reduced"] > 0


def test_overflowing_beta_equation_solves_under_ss_mr():
    eq = overflowing_beta_convdiff()
    x, rep = solve(eq, SolverConfig(method="ss_mr", tol=1e-8, maxit=20))
    assert rep.converged
    assert true_residual(eq, x) <= 1e-8


@pytest.mark.parametrize(("method", "call", "message", "iterations"), [
    ("ss_mr", 1, r"updated iterate is not finite \(the compressed core is not finite\)", 0),
    ("ss_mr", 2, r"updated iterate is not finite \(the compressed core is not finite\)", 1),
    ("ss_gcr1", 2, r"recombined direction is not finite \(the compressed core is not finite\)",
     1),
], ids=["ss_mr-alpha1", "ss_mr-alpha2", "ss_gcr1-beta1"])
def test_overflowing_update_breaks_down(monkeypatch, method, call, message, iterations):
    # The second and third raised NonFiniteError out of solve. The first,
    # whose update's singular values overflow, truncated X to zero in silence.
    overflow_step(monkeypatch, call)
    eq = build_convdiff(ConvDiffSpec(n=34, eps=0.1))
    with pytest.warns(RuntimeWarning, match=message):
        x, rep = solve(eq, SolverConfig(method=method, tol=1e-8, maxit=20))
    assert (rep.status, rep.iterations) == ("breakdown", iterations)
    assert len(rep.residual_estimates) == len(rep.ranks) == iterations + 1
    assert np.isfinite(true_residual(eq, x))


@pytest.mark.parametrize("scale", [2.0**260, 2.0**400], ids=["2^260", "2^400"])
@pytest.mark.parametrize("spec", [
    PreconditionerSpec.none(),
    PreconditionerSpec.two_term_adi(indices=(0, 1), t_adi=4, shift_source="analytic_laplacian"),
], ids=["none", "two_term_adi"])
@pytest.mark.parametrize("method", ["ss_mr", "ss_gcr1"])
def test_huge_right_hand_side_solves_like_the_unscaled_one(method, spec, scale):
    # ||C D^T|| is about 1e158 at 2^260 and 1e241 at 2^400, every entry of
    # it finite. Gram-trace and squaring norms overflowed at the initial
    # estimate. LAPACK rescales such operands internally, so the last
    # digits of the true residual may move.
    cfg = SolverConfig(method=method, tol=1e-8, preconditioner=spec)
    eq, big = scaled_rhs_convdiff(1.0), scaled_rhs_convdiff(scale)
    x, rep = solve(eq, cfg)
    x_big, rep_big = solve(big, cfg)
    assert rep_big.converged
    assert rep_big.iterations == rep.iterations
    assert rep_big.ranks == rep.ranks
    assert true_residual(big, x_big) == pytest.approx(true_residual(eq, x), rel=1e-4)


def test_huge_right_hand_side_on_the_pcg_path_converges(monkeypatch):
    monkeypatch.setattr(mteq.reduced, "DIRECT_THRESHOLD", 1)
    eq = scaled_rhs_convdiff(2.0**260)
    cfg = SolverConfig(tol=1e-8, inner=InnerSolveConfig(inner_precond_terms=(0, 1)))
    x, rep = solve(eq, cfg)
    assert rep.converged
    assert all(entry is not None for entry in rep.inner_pcg_iters)
    assert true_residual(eq, x) <= cfg.tol


@pytest.mark.parametrize("seed", [-1, 1.5, None])
def test_sketch_seed_must_be_a_non_negative_integer(seed):
    with pytest.raises(ValueError, match=f"sketch_seed must be a non-negative integer, got {seed}"):
        SolverConfig(sketch_seed=seed)


@pytest.mark.parametrize(("name", "build"), [
    ("maxit", lambda: SolverConfig(maxit=2.5)),
    ("maxrank", lambda: TruncationConfig(maxrank=5.5)),
    ("t_adi", lambda: PreconditionerSpec.two_term_adi(t_adi=2.5)),
    ("n", lambda: ConvDiffSpec(n=34.5, eps=0.1)),
], ids=["maxit", "maxrank", "t_adi", "n"])
def test_integer_counts_are_checked_at_construction(name, build):
    # Each constructed: maxit and maxrank then failed inside the solve with
    # a TypeError, and t_adi=2.5 ran 3 sweeps and reported converged.
    with pytest.raises(ValueError, match=rf"^{name}\b.*got \d+\.5$"):
        build()


@pytest.mark.parametrize(("field", "build"), [
    ("one_term", lambda: PreconditionerSpec.one_term(1.5)),
    ("two_term_adi", lambda: PreconditionerSpec.two_term_adi(indices=(0.0, 1.0))),
    ("inner_precond_terms", lambda: InnerSolveConfig(inner_precond_terms=(0.5, 1))),
], ids=["one_term", "two_term_adi", "inner_precond_terms"])
def test_term_indices_must_be_integers(field, build):
    # Each constructed: the solve then raised TypeError on the first two and,
    # once a projected solve took the PCG path, IndexError on the third.
    with pytest.raises(ValueError, match=rf"^{field} takes \w+ term indices \(integers\)"):
        build()


def test_converged_solve_meets_tol_on_its_true_residual():
    # The estimate reads 9.766e-7 after 2 iterations; the true residual is 1.041e-6.
    eq = build_convdiff(ConvDiffSpec(n=512, eps=0.1))
    cfg = dataclasses.replace(convdiff_config("ss_mr", maxit=50), sketch_seed=3)
    with pytest.warns(RuntimeWarning, match="passed tol but the true residual"):
        x, rep = solve(eq, cfg)
    assert not rep.converged or true_residual(eq, x) <= cfg.tol


def test_sketched_stop_is_certified_by_the_true_residual():
    # The false stop above: the estimate passes at iteration 2, the true
    # residual does not, and the solve goes on to a tightened target.
    eq = build_convdiff(ConvDiffSpec(n=512, eps=0.1))
    cfg = dataclasses.replace(convdiff_config("ss_mr", maxit=50), sketch_seed=3)
    with pytest.warns(RuntimeWarning, match="passed tol but") as caught:
        x, rep = solve(eq, cfg)
    assert len(caught) == 1
    # The estimate's fourth digit moves with the BLAS kernel (9.766e-07 or
    # 9.765e-07), so it is read from the report rather than pinned.
    estimate = rep.residual_estimates[2] / rep.rhs_norm
    assert str(caught[0].message).startswith(
        f"residual estimate {estimate:.3e} passed tol but the true residual 1.041e-06 did not")
    assert rep.sketch_mode == "two_sided"
    assert (rep.status, rep.iterations) == ("converged", 3)
    assert true_residual(eq, x) <= cfg.tol


@pytest.mark.parametrize(("n", "mode", "checks"), [(64, "exact", 0), (512, "two_sided", 1)])
def test_only_a_sketched_estimate_is_certified(monkeypatch, n, mode, checks):
    # Each pass builds one factored residual. An exact estimate is its own
    # certificate; a sketched one that passes costs one exact norm, of the
    # residual its estimate came from, never a residual built again.
    import mteq.sketch
    import mteq.solver

    calls, built, norms = [], [], []
    norm_fro = LowRankMatrix.norm_fro

    def counted(eq, x):
        calls.append(x)
        built.append(residual_factored(eq, x))
        return built[-1]

    def counted_norm(m):
        norms.append(m)
        return norm_fro(m)

    eq = build_convdiff(ConvDiffSpec(n=n, eps=0.1))
    monkeypatch.setattr(mteq.sketch, "residual_factored", counted)
    monkeypatch.setattr(mteq.solver, "residual_factored", counted)
    monkeypatch.setattr(LowRankMatrix, "norm_fro", counted_norm)
    x, rep = solve(eq, convdiff_config("ss_gcr1", maxit=50))
    assert (rep.sketch_mode, rep.status) == (mode, "converged")
    assert len(calls) == rep.iterations + 1
    assert calls[-1] is x
    # rhs_norm, then the certificate of the last residual.
    assert len(norms) == 1 + checks
    assert all(got is want for got, want in zip(norms[1:], built[-1:]))


@pytest.mark.parametrize("method", ["ss_mr", "ss_gcr1"])
def test_the_factored_residual_is_released_before_preconditioning(monkeypatch, method):
    # The residual stage's factored residual holds 2 n (q + p rank X)
    # floats; the certificate reads it, and no preconditioner runs beside it.
    import weakref

    import mteq.solver
    from mteq.precond import TwoTermAdiPreconditioner

    stage, apply = mteq.solver.sketched_residual_truncate, TwoTermAdiPreconditioner.apply
    built, alive = [], []

    def kept(*args):
        out = stage(*args)
        built.append(weakref.ref(out[2]))
        return out

    def checked(self, r):
        alive.append(sum(ref() is not None for ref in built))
        return apply(self, r)

    monkeypatch.setattr(mteq.solver, "sketched_residual_truncate", kept)
    monkeypatch.setattr(TwoTermAdiPreconditioner, "apply", checked)
    eq = build_convdiff(ConvDiffSpec(n=512, eps=0.1))
    cfg = dataclasses.replace(convdiff_config(method, maxit=4),
                              truncation=TruncationConfig(toltrank=1e-10, maxrank=20))
    _, rep = solve(eq, cfg)
    assert rep.sketch_mode == "two_sided"
    assert len(built) == rep.iterations + 1 and len(alive) >= 4
    assert alive == [0] * len(alive)


def levels_off_under_adi(spec):
    """Expect the stop's warning from the maxrank-3 convdiff solves below under
    ADI, which level off at 4.7e-2 after one iteration; the others run to maxit."""
    if spec.kind != "two_term_adi":
        return contextlib.nullcontext()
    return pytest.warns(RuntimeWarning, match="residual estimate stopped falling")


@pytest.mark.parametrize(("spec", "draws"), [
    (PreconditionerSpec.none(), 0),
    (PreconditionerSpec.one_term(0), 0),
    (PreconditionerSpec.two_term_adi(shift_source="analytic_laplacian"), 1),
], ids=["none", "one_term", "two_term_adi"])
@pytest.mark.parametrize("method", ["ss_mr", "ss_gcr1"])
def test_range_finder_sample_is_drawn_only_for_output_wider_than_it(monkeypatch, method,
                                                                   spec, draws):
    # Every solve drew it once its 13 columns fit below both dimensions,
    # whatever the preconditioner.
    import mteq.solver

    calls = []
    sample = mteq.solver.gaussian_sample

    def counted(*args):
        calls.append(args)
        return sample(*args)

    monkeypatch.setattr(mteq.solver, "gaussian_sample", counted)
    eq = build_convdiff(ConvDiffSpec(n=66, eps=0.1))
    cfg = dataclasses.replace(convdiff_config(method, maxit=4), preconditioner=spec,
                              truncation=TruncationConfig(toltrank=1e-10, maxrank=3))
    with levels_off_under_adi(spec):
        solve(eq, cfg)
    assert len(calls) == draws


@pytest.mark.parametrize("spec", [
    PreconditionerSpec.none(),
    PreconditionerSpec.one_term(0),
    PreconditionerSpec.two_term_adi(shift_source="analytic_laplacian"),
], ids=["none", "one_term", "two_term_adi"])
@pytest.mark.parametrize("method", ["ss_mr", "ss_gcr1"])
def test_every_preconditioned_residual_is_truncated(monkeypatch, method, spec):
    # ss_gcr1 recombined un-truncated output no wider than the residual.
    import mteq.solver

    build, truncate = mteq.solver.build_preconditioner, mteq.solver.truncate
    applied, truncated = [], []

    def recorded_build(*args):
        precond = build(*args)
        apply = precond.apply

        def recorded_apply(r):
            applied.append(apply(r))
            return applied[-1]

        precond.apply = recorded_apply
        return precond

    def recorded_truncate(m, *args):
        truncated.append(m)
        return truncate(m, *args)

    monkeypatch.setattr(mteq.solver, "build_preconditioner", recorded_build)
    monkeypatch.setattr(mteq.solver, "truncate", recorded_truncate)
    eq = build_convdiff(ConvDiffSpec(n=66, eps=0.1))
    cfg = dataclasses.replace(convdiff_config(method, maxit=4), preconditioner=spec,
                              truncation=TruncationConfig(toltrank=1e-10, maxrank=3))
    with levels_off_under_adi(spec):
        _, rep = solve(eq, cfg)
    # Every pass but the last draws a direction.
    assert len(applied) == rep.iterations >= 3
    assert all(any(m is z for m in truncated) for z in applied)


@pytest.mark.parametrize("terms", [(-1, 0), (9, 9), (0, 4)])
def test_inner_precond_terms_checked_at_solve_start(terms):
    eq = build_convdiff(ConvDiffSpec(n=34, eps=0.1))
    cfg = SolverConfig(inner=InnerSolveConfig(inner_precond_terms=terms))
    with pytest.raises(ValueError, match="inner_precond_terms"):
        solve(eq, cfg)


@pytest.mark.parametrize("method", ["ss_gcr1", "ss_mr"])
def test_estimated_shifts_match_analytic_ones_on_convdiff(method):
    eq = build_convdiff(ConvDiffSpec(n=66, eps=0.1))
    reports = []
    for source in ("analytic_laplacian", "estimated"):
        cfg = dataclasses.replace(
            convdiff_config(method, maxit=20),
            preconditioner=PreconditionerSpec.two_term_adi(t_adi=8, shift_source=source))
        reports.append(solve(eq, cfg)[1])
    analytic, estimated = reports
    assert analytic.converged and estimated.converged
    assert estimated.iterations == analytic.iterations
    assert estimated.final_rank == analytic.final_rank


@pytest.mark.parametrize("method", ["ss_gcr1", "ss_mr"])
def test_single_term_rank_one_solve_at_maxrank_one(method):
    # A X B = c d^T: the one-term preconditioner is its exact inverse.
    rng = np.random.default_rng(19)
    eq = random_posdef_equation(rng, 30, 20, 1, 1)
    cfg = SolverConfig(method=method, tol=1e-10, maxit=5,
                       truncation=TruncationConfig(toltrank=1e-14, maxrank=1),
                       preconditioner=PreconditionerSpec.one_term(0))
    x, rep = solve(eq, cfg)
    assert rep.converged
    assert rep.iterations == 1
    assert all(max(ranks) <= 1 for ranks in rep.ranks)
    assert true_residual(eq, x) <= 1e-13


def test_single_term_solve_matches_direct_solve():
    rng = np.random.default_rng(20)
    eq = random_posdef_equation(rng, 14, 11, 1, 2)
    x_ref = direct_solve(assemble_kron(eq))
    x, rep = solve(eq, untruncated_config(14, tol=1e-12, maxit=100))
    assert rep.converged
    err = np.linalg.norm(x.densify() - x_ref) / np.linalg.norm(x_ref)
    assert err <= 1e-10
