"""Acceptance gate: every criterion at its stated tolerance.

Each test prints one pass/fail line (visible with ``pytest -s``) and then
asserts, so a red criterion still reports its measured values.
"""

import time

import numpy as np
import scipy.linalg as sla
import scipy.sparse as sp

from mteq import (
    ConvDiffSpec,
    InnerSolveConfig,
    LowRankMatrix,
    MultitermEquation,
    PreconditionerSpec,
    SolverConfig,
    TruncationConfig,
    TwoTermAdiPreconditioner,
    alpha_rhs,
    apply_L,
    build_convdiff,
    make_sketch,
    residual_factored,
    sketched_residual_truncate,
    solve,
    truncate,
    true_residual,
    wachspress_shifts,
)
from mteq.oracle import assemble_kron, direct_solve, spectral_quantities
from mteq.operator import left_stack, right_stack

from conftest import perturbation, random_lowrank, random_posdef_equation, random_spd


def _report(name, ok, detail):
    print(f"[{'PASS' if ok else 'FAIL'}] {name}: {detail}")
    assert ok, f"{name}: {detail}"


def benchmark_config(method, maxrank, seed=7):
    return SolverConfig(
        method=method,
        tol=1e-6,
        maxit=50,
        truncation=TruncationConfig(toltrank=1e-10, maxrank=maxrank),
        inner=InnerSolveConfig(inner_precond_terms=(0, 1)),
        sketch_seed=seed,
        preconditioner=PreconditionerSpec.two_term_adi(
            indices=(0, 1), t_adi=8, shift_source="analytic_laplacian"
        ),
    )


def test_criterion_1_benchmark_reproduction_eps_01():
    rows = []
    for n in (1024, 2048):
        eq = build_convdiff(ConvDiffSpec(n=n, eps=0.1))
        for method in ("ss_gcr1", "ss_mr"):
            t0 = time.perf_counter()
            x, rep = solve(eq, benchmark_config(method, maxrank=50))
            elapsed = time.perf_counter() - t0
            res = true_residual(eq, x)
            rows.append((n, method, rep.iterations, rep.final_rank, res,
                         elapsed, rep.converged))
    ok = all(
        conv and k <= 8 and rank <= 50 and res <= 1e-6 and elapsed <= 60.0
        for (_, _, k, rank, res, elapsed, conv) in rows
    )
    detail = "; ".join(
        f"n={n} {m}: k={k} rank={r} Res={res:.1e} {t:.1f}s"
        for (n, m, k, r, res, t, _) in rows
    )
    _report("criterion 1 (benchmark eps=0.1, n=1024/2048)", ok, detail)


def test_criterion_2_benchmark_reproduction_eps_001():
    eq = build_convdiff(ConvDiffSpec(n=1024, eps=0.01))
    limits = {"ss_gcr1": 24, "ss_mr": 30}
    rows = []
    for method, k_max in limits.items():
        x, rep = solve(eq, benchmark_config(method, maxrank=70))
        res = true_residual(eq, x)
        pcg_max = max((t[1] for t in rep.inner_pcg_iters if t is not None),
                      default=0)
        rows.append((method, rep.iterations, k_max, res, pcg_max,
                     rep.converged))
    # Drive the iteration past the direct/iterative switch so the inner
    # PCG bound is exercised, not just vacuously true.
    deep_cfg = benchmark_config("ss_gcr1", maxrank=70)
    deep_cfg = SolverConfig(
        method=deep_cfg.method, tol=1e-12, maxit=8,
        truncation=deep_cfg.truncation, inner=deep_cfg.inner,
        sketch_seed=deep_cfg.sketch_seed,
        preconditioner=deep_cfg.preconditioner,
    )
    _, deep_rep = solve(eq, deep_cfg)
    deep_pcg = [t for t in deep_rep.inner_pcg_iters if t is not None]
    deep_max = max((t[1] for t in deep_pcg), default=0)
    ok = all(
        conv and k <= k_max and res <= 1e-6 and pcg <= 200
        for (_, k, k_max, res, pcg, conv) in rows
    ) and len(deep_pcg) > 0 and deep_max <= 200
    detail = "; ".join(
        f"{m}: k={k} (<= {k_max}) Res={res:.1e} pcg_max={pcg}"
        for (m, k, k_max, res, pcg, _) in rows
    ) + f"; forced inner-PCG max {deep_max} over {len(deep_pcg)} iterations"
    _report("criterion 2 (benchmark eps=0.01, n=1024)", ok, detail)


def test_criterion_3_oracle_equivalence_50_instances():
    rng = np.random.default_rng(2024)
    worst = 0.0
    for trial in range(50):
        n_a = int(rng.integers(15, 26))
        n_b = int(rng.integers(15, 26))
        p = int(rng.integers(1, 4))
        q = int(rng.integers(1, 3))
        eq = random_posdef_equation(rng, n_a, n_b, p, q)
        kron = assemble_kron(eq)
        mu, _ = spectral_quantities(kron)
        assert mu > 0, f"instance {trial} not positive definite"
        x_ref = direct_solve(kron)
        cfg = SolverConfig(
            method="ss_mr", tol=1e-9, maxit=300,
            truncation=TruncationConfig(toltrank=1e-14,
                                        maxrank=max(n_a, n_b)),
        )
        x, rep = solve(eq, cfg)
        err = np.linalg.norm(x.densify() - x_ref) / np.linalg.norm(x_ref)
        worst = max(worst, err)
    _report("criterion 3 (oracle equivalence, 50 instances)",
            worst <= 1e-5, f"worst relative error {worst:.2e}")


def test_criterion_4_elman_bound_suite():
    rng = np.random.default_rng(77)
    worst_slack = -np.inf
    worst_slack_sharp = -np.inf
    for trial in range(20):
        eq = random_posdef_equation(rng, 20, 20, 2, 1)
        kron = assemble_kron(eq)
        mu, nrm = spectral_quantities(kron)
        assert mu > 0
        factor = np.sqrt(1.0 - (mu / nrm) ** 2)
        snapshots = []
        cfg = SolverConfig(
            method="ss_mr", tol=1e-14, maxit=12,
            truncation=TruncationConfig(toltrank=1e-15, maxrank=20),
        )
        x, rep = solve(eq, cfg, callback=snapshots.append)
        est = rep.residual_estimates
        for info in snapshots:
            k = info.k
            if est[k] <= 1e-12 * rep.rhs_norm:
                break
            worst_slack = max(worst_slack,
                              est[k + 1] - factor * est[k])
            q_basis = np.kron(info.P.right, info.P.left)
            aq = kron.matrix @ q_basis
            m_q_norm = np.linalg.norm(aq.T @ aq, 2)
            sharp = np.sqrt(max(1.0 - mu**2 / m_q_norm, 0.0))
            worst_slack_sharp = max(worst_slack_sharp,
                                    est[k + 1] - sharp * est[k])
    ok = worst_slack <= 1e-10 and worst_slack_sharp <= 1e-10
    _report("criterion 4 (Elman + subspace bound, 20 instances)", ok,
            f"worst slack {worst_slack:.2e}, sharper {worst_slack_sharp:.2e}")


def test_criterion_5_orthogonality_suite():
    rng = np.random.default_rng(99)
    worst_pg = 0.0
    worst_dir = 0.0
    for trial in range(20):
        eq = random_posdef_equation(rng, 14, 14, 2, 1)
        snapshots = []
        cfg = SolverConfig(
            method="ss_gcr1", tol=1e-13, maxit=10,
            truncation=TruncationConfig(toltrank=1e-15, maxrank=14),
        )
        solve(eq, cfg, callback=snapshots.append)
        r0_norm = eq.rhs_norm()
        for info in snapshots:
            gram = alpha_rhs(eq, info.P, info.R)
            worst_pg = max(worst_pg, np.linalg.norm(gram) / r0_norm)
            if info.P_next is None:
                continue
            lp = apply_L(eq, info.P).densify()
            lp_next = apply_L(eq, info.P_next).densify()
            worst_dir = max(
                worst_dir,
                abs(np.sum(lp_next * lp)) / np.linalg.norm(lp) ** 2,
            )
    ok = worst_pg <= 1e-8 and worst_dir <= 1e-8
    _report("criterion 5 (orthogonality, 20 instances)", ok,
            f"worst Petrov-Galerkin {worst_pg:.2e}, worst direction {worst_dir:.2e}")


def test_criterion_6_sketch_statistics():
    rng = np.random.default_rng(512)
    n = 2048
    density = 0.002
    terms = []
    for _ in range(2):
        a = sp.random(n, n, density=density,
                      random_state=np.random.RandomState(1)) + sp.identity(n)
        b = sp.random(n, n, density=density,
                      random_state=np.random.RandomState(2)) + sp.identity(n)
        terms.append((a.tocsr(), b.tocsr()))
    x = random_lowrank(rng, n, n, 2)
    shell = MultitermEquation(terms=terms, C=np.zeros((n, 1)), D=np.zeros((n, 1)))
    u5 = np.linalg.qr(rng.standard_normal((n, 5)))[0]
    v5 = np.linalg.qr(rng.standard_normal((n, 5)))[0]
    sigma5 = np.diag([5.0, 4.0, 3.0, 2.0, 1.0])
    eq = MultitermEquation(
        terms=terms,
        C=np.hstack([left_stack(shell, x.left) @ np.kron(np.eye(2), x.core),
                     u5 @ sigma5]),
        D=np.hstack([right_stack(shell, x.right), v5]),
    )
    true_norm = np.linalg.norm(np.diag(sigma5))
    cfg = TruncationConfig(maxrank=10, toltrank=1e-10)
    s_dim = 2 * (eq.p * cfg.maxrank + eq.q)
    hits = 0
    for seed in range(200):
        s_a = make_sketch(n, s_dim, seed=seed)
        s_b = make_sketch(n, s_dim, seed=seed + 100_000)
        _, est, _ = sketched_residual_truncate(eq, x, s_a, s_b, cfg)
        hits += 0.5 <= est / true_norm <= 2.0

    exact_out, _, _ = sketched_residual_truncate(eq, x, None, None, cfg)
    ref = truncate(residual_factored(eq, x), cfg)
    bit_identical = (
        np.array_equal(exact_out.left, ref.left)
        and np.array_equal(exact_out.core, ref.core)
        and np.array_equal(exact_out.right, ref.right)
    )
    ok = hits >= 190 and bit_identical
    _report("criterion 6 (sketch statistics, 200 seeds)", ok,
            f"{hits}/200 within [0.5, 2]x, exact path bit-identical: {bit_identical}")


def test_criterion_7_rank_one_degeneration():
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
    steps = 0
    worst = 0.0
    x_vec = np.zeros(kron.b.size)
    r_vec = kron.b.copy()
    for info in snapshots:
        w = kron.matrix @ r_vec
        alpha = float(w @ r_vec) / float(w @ w)
        x_vec = x_vec + alpha * r_vec
        r_vec = kron.b - kron.matrix @ x_vec
        diff = np.linalg.norm(info.X.densify().flatten(order="F") - x_vec)
        worst = max(worst, diff / max(np.linalg.norm(x_vec), 1.0))
        steps += 1
    ok = steps >= 10 and worst <= 1e-10
    _report("criterion 7 (rank-1 degeneration to vector MR)", ok,
            f"{steps} steps, worst per-step deviation {worst:.2e}")


def test_criterion_8_adi_quality():
    rng = np.random.default_rng(5)
    n = 64
    a = random_spd(rng, n, spread=(1.0, 100.0))
    b = random_spd(rng, n, spread=(1.0, 100.0))
    ia = (np.linalg.eigvalsh(a)[0], np.linalg.eigvalsh(a)[-1])
    ib = (np.linalg.eigvalsh(b)[0], np.linalg.eigvalsh(b)[-1])
    r = random_lowrank(rng, n, n, 2)
    shifts = wachspress_shifts(ia, ib, 20)
    z = TwoTermAdiPreconditioner(sp.csr_matrix(a), sp.csr_matrix(b), shifts).apply(r)
    zd = z.densify()
    rel = np.linalg.norm(a @ zd + zd @ b - r.densify()) / r.norm_fro()
    x_ref = sla.solve_sylvester(a, b, r.densify())
    err = np.linalg.norm(zd - x_ref) / np.linalg.norm(x_ref)
    ok = rel <= 1e-8
    _report("criterion 8 (factored ADI, 20 sweeps on 64x64)", ok,
            f"relative residual {rel:.2e}, error vs dense oracle {err:.2e}")
