"""Projected systems for the step coefficients against dense oracles."""

import dataclasses

import numpy as np
import pytest
import scipy.sparse as sp

import mteq.reduced
from mteq import (
    ConvDiffSpec,
    InnerSolveConfig,
    LowRankMatrix,
    MultitermEquation,
    ReducedSystem,
    alpha_rhs,
    apply_L,
    apply_Lstar,
    beta_rhs,
    build_convdiff,
    build_reduced,
    solve_reduced,
)
from mteq.oracle import assemble_kron

from conftest import direction, random_lowrank, random_posdef_equation


def orthonormal(rng, n, k):
    return np.linalg.qr(rng.standard_normal((n, k)))[0]


def test_identity_terms_give_identity_grams():
    rng = np.random.default_rng(0)
    eye = sp.identity(10, format="csr")
    eq = MultitermEquation(terms=[(eye, eye)], C=rng.standard_normal((10, 1)),
                           D=rng.standard_normal((10, 1)))
    p_l = orthonormal(rng, 10, 3)
    p_r = orthonormal(rng, 10, 3)
    sys = build_reduced(eq, direction(p_l, p_r))
    np.testing.assert_allclose(sys.left_grams[0, 0], np.eye(3), atol=1e-14)
    np.testing.assert_allclose(sys.right_grams[0, 0], np.eye(3), atol=1e-14)


def test_assembled_matrix_matches_kronecker_normal_equations():
    rng = np.random.default_rng(1)
    eq = random_posdef_equation(rng, 10, 10, 2, 1)
    kron = assemble_kron(eq)
    p_l = orthonormal(rng, 10, 2)
    p_r = orthonormal(rng, 10, 2)
    sys = build_reduced(eq, direction(p_l, p_r))
    w = np.kron(p_r, p_l)
    aw = kron.matrix @ w
    np.testing.assert_allclose(sys.assemble(), aw.T @ aw, atol=1e-12)


def test_scalar_system_is_squared_image_norm():
    rng = np.random.default_rng(2)
    eq = random_posdef_equation(rng, 8, 8, 2, 1)
    kron = assemble_kron(eq)
    p_l = orthonormal(rng, 8, 1)
    p_r = orthonormal(rng, 8, 1)
    sys = build_reduced(eq, direction(p_l, p_r))
    w = np.kron(p_r, p_l)[:, 0]
    assert sys.assemble()[0, 0] == pytest.approx(
        float(np.linalg.norm(kron.matrix @ w) ** 2), rel=1e-12
    )


def test_apply_matches_assembled_action():
    rng = np.random.default_rng(3)
    eq = random_posdef_equation(rng, 12, 9, 3, 1)
    p_l = orthonormal(rng, 12, 4)
    p_r = orthonormal(rng, 9, 4)
    sys = build_reduced(eq, direction(p_l, p_r))
    coeff = rng.standard_normal((4, 4))
    direct = sys.assemble() @ coeff.flatten(order="F")
    np.testing.assert_allclose(
        sys.apply(coeff).flatten(order="F"), direct, atol=1e-12
    )


def test_alpha_rhs_zero_residual():
    rng = np.random.default_rng(5)
    eq = random_posdef_equation(rng, 9, 9, 2, 1)
    p = direction(orthonormal(rng, 9, 2), orthonormal(rng, 9, 2))
    rhs = alpha_rhs(eq, p, LowRankMatrix.zeros(9, 9))
    np.testing.assert_allclose(rhs, np.zeros((2, 2)))


@pytest.mark.parametrize("cfg", [InnerSolveConfig(), InnerSolveConfig((0, 1))],
                         ids=["unpreconditioned", "inner-0-1"])
def test_empty_direction_solves_for_an_empty_coefficient(cfg):
    # Pass 0 of every solve holds a rank-0 direction; its system is 0 x 0.
    rng = np.random.default_rng(5)
    eq = random_posdef_equation(rng, 9, 9, 2, 1)
    p = LowRankMatrix.zeros(9, 9)
    sys = build_reduced(eq, p, cfg)
    assert (sys.q_k, sys.path, sys.regularized) == (0, "direct", False)
    r = random_lowrank(rng, 9, 9, 2)
    for rhs in (alpha_rhs(eq, p, r), beta_rhs(eq, p, r)):
        assert rhs.shape == (0, 0)
        coeff, info = solve_reduced(sys, rhs)
        assert coeff.shape == (0, 0)
        assert info["path"] == "direct"


def test_alpha_rhs_matches_dense_projection():
    rng = np.random.default_rng(6)
    eq = random_posdef_equation(rng, 11, 13, 3, 2)
    p_l = orthonormal(rng, 11, 3)
    p_r = orthonormal(rng, 13, 3)
    r = random_lowrank(rng, 11, 13, 2)
    expected = p_l.T @ apply_Lstar(eq, r).densify() @ p_r
    np.testing.assert_allclose(alpha_rhs(eq, direction(p_l, p_r), r), expected, atol=1e-12)


def test_scalar_alpha_reduces_to_minimal_residual_formula():
    rng = np.random.default_rng(7)
    eq = random_posdef_equation(rng, 8, 8, 2, 1)
    kron = assemble_kron(eq)
    u = orthonormal(rng, 8, 1)
    v = orthonormal(rng, 8, 1)
    r = LowRankMatrix(u, np.eye(1), v)
    alpha, _ = solve_reduced(build_reduced(eq, r), alpha_rhs(eq, r, r))
    rv = r.densify().flatten(order="F")
    ar = kron.matrix @ rv
    expected = float(ar @ rv) / float(ar @ ar)
    assert alpha[0, 0] == pytest.approx(expected, rel=1e-12)


def test_beta_rhs_zero_input():
    rng = np.random.default_rng(8)
    eq = random_posdef_equation(rng, 9, 9, 2, 1)
    p = direction(orthonormal(rng, 9, 2), orthonormal(rng, 9, 2))
    rhs = beta_rhs(eq, p, LowRankMatrix.zeros(9, 9))
    np.testing.assert_allclose(rhs, np.zeros((2, 2)))


def test_beta_rhs_matches_dense_projection():
    rng = np.random.default_rng(9)
    eq = random_posdef_equation(rng, 10, 10, 2, 2)
    p_l = orthonormal(rng, 10, 3)
    p_r = orthonormal(rng, 10, 3)
    z = random_lowrank(rng, 10, 10, 2)
    expected = -p_l.T @ apply_Lstar(eq, apply_L(eq, z)).densify() @ p_r
    np.testing.assert_allclose(beta_rhs(eq, direction(p_l, p_r), z), expected, atol=1e-12)


def test_beta_rhs_identity_operator():
    rng = np.random.default_rng(10)
    eye = sp.identity(8, format="csr")
    eq = MultitermEquation(terms=[(eye, eye)], C=rng.standard_normal((8, 1)),
                           D=rng.standard_normal((8, 1)))
    p_l = orthonormal(rng, 8, 2)
    p_r = orthonormal(rng, 8, 2)
    z = random_lowrank(rng, 8, 8, 2)
    np.testing.assert_allclose(
        beta_rhs(eq, direction(p_l, p_r), z), -p_l.T @ z.densify() @ p_r, atol=1e-12
    )


def test_solve_scalar_division():
    rng = np.random.default_rng(11)
    eq = random_posdef_equation(rng, 8, 8, 2, 1)
    u = orthonormal(rng, 8, 1)
    v = orthonormal(rng, 8, 1)
    sys = build_reduced(eq, direction(u, v))
    alpha, info = solve_reduced(sys, np.array([[1.7]]))
    assert info["path"] == "direct"
    assert alpha[0, 0] == pytest.approx(1.7 / sys.assemble()[0, 0], rel=1e-12)


def test_direct_solution_satisfies_assembled_system():
    rng = np.random.default_rng(12)
    eq = random_posdef_equation(rng, 12, 12, 3, 2)
    p_l = orthonormal(rng, 12, 4)
    p_r = orthonormal(rng, 12, 4)
    sys = build_reduced(eq, direction(p_l, p_r))
    rhs = rng.standard_normal((4, 4))
    alpha, info = solve_reduced(sys, rhs)
    assert info["path"] == "direct"
    t = sys.assemble()
    res = t @ alpha.flatten(order="F") - rhs.flatten(order="F")
    assert np.linalg.norm(res) <= 1e-10 * np.linalg.norm(rhs)


def test_direct_and_pcg_paths_agree(monkeypatch):
    rng = np.random.default_rng(13)
    eq = random_posdef_equation(rng, 14, 14, 2, 1, nonsym=0.05)
    p_l = orthonormal(rng, 14, 5)
    p_r = orthonormal(rng, 14, 5)
    p = direction(p_l, p_r)
    rhs = rng.standard_normal((5, 5))
    direct, info_d = solve_reduced(build_reduced(eq, p), rhs)
    monkeypatch.setattr(mteq.reduced, "DIRECT_THRESHOLD", 1)
    monkeypatch.setattr(mteq.reduced, "PCG_TOL", 1e-6)
    monkeypatch.setattr(mteq.reduced, "PCG_MAXIT", 500)
    pcg, info_p = solve_reduced(build_reduced(eq, p), rhs)
    assert info_d["path"] == "direct" and info_p["path"] == "pcg"
    assert info_p["converged"]
    assert np.linalg.norm(direct - pcg) <= 1e-3 * np.linalg.norm(direct)


def test_pcg_with_two_term_preconditioner(monkeypatch):
    monkeypatch.setattr(mteq.reduced, "DIRECT_THRESHOLD", 1)
    monkeypatch.setattr(mteq.reduced, "PCG_TOL", 1e-8)
    monkeypatch.setattr(mteq.reduced, "PCG_MAXIT", 500)
    rng = np.random.default_rng(14)
    eq = random_posdef_equation(rng, 16, 16, 3, 1, nonsym=0.05)
    p_l = orthonormal(rng, 16, 6)
    p_r = orthonormal(rng, 16, 6)
    p = direction(p_l, p_r)
    rhs = rng.standard_normal((6, 6))
    plain, info_plain = solve_reduced(build_reduced(eq, p), rhs)
    cfg = InnerSolveConfig(inner_precond_terms=(0, 1))
    pre, info_pre = solve_reduced(build_reduced(eq, p, cfg), rhs)
    assert info_pre["converged"]
    assert np.linalg.norm(plain - pre) <= 1e-5 * np.linalg.norm(plain)
    assert info_pre["pcg_iters"] <= info_plain["pcg_iters"]


def test_system_is_frozen_and_factored_once(monkeypatch):
    rng = np.random.default_rng(15)
    eq = random_posdef_equation(rng, 8, 8, 2, 1)
    calls = []
    assemble, cho_factor = ReducedSystem.assemble, mteq.reduced.sla.cho_factor
    monkeypatch.setattr(ReducedSystem, "assemble",
                        lambda self: calls.append("assemble") or assemble(self))
    monkeypatch.setattr(mteq.reduced.sla, "cho_factor",
                        lambda *a, **k: calls.append("cho_factor") or cho_factor(*a, **k))
    sys = build_reduced(eq, direction(orthonormal(rng, 8, 2), orthonormal(rng, 8, 2)))
    assert sys.path == "direct" and calls == ["assemble", "cho_factor"]
    with pytest.raises(dataclasses.FrozenInstanceError):
        sys.path = "pcg"
    t = assemble(sys)
    for rhs in rng.standard_normal((2, 2, 2)):
        coeff, info = solve_reduced(sys, rhs)
        assert info["path"] == "direct" and not info["regularized"]
        res = t @ coeff.flatten(order="F") - rhs.flatten(order="F")
        assert np.linalg.norm(res) <= 1e-10 * np.linalg.norm(rhs)
    # Solving the built system assembles and factors nothing more.
    assert calls == ["assemble", "cho_factor"]


def test_inner_preconditioner_built_once_per_direction(monkeypatch):
    monkeypatch.setattr(mteq.reduced, "DIRECT_THRESHOLD", 1)
    monkeypatch.setattr(mteq.reduced, "PCG_TOL", 1e-8)
    monkeypatch.setattr(mteq.reduced, "PCG_MAXIT", 500)
    rng = np.random.default_rng(17)
    eq = random_posdef_equation(rng, 16, 16, 3, 1, nonsym=0.05)
    p_l, p_r = orthonormal(rng, 16, 5), orthonormal(rng, 16, 5)
    r, z = random_lowrank(rng, 16, 16, 2), random_lowrank(rng, 16, 16, 2)
    cfg = InnerSolveConfig(inner_precond_terms=(0, 1))
    calls = []
    eigh = mteq.reduced.sla.eigh
    monkeypatch.setattr(mteq.reduced.sla, "eigh",
                        lambda *a, **k: calls.append(a) or eigh(*a, **k))
    p = direction(p_l, p_r)
    sys = build_reduced(eq, p, cfg)
    assert sys.path == "pcg" and len(calls) == 2  # one generalized eigh per side
    alpha, info_a = solve_reduced(sys, alpha_rhs(eq, p, r))
    beta, info_b = solve_reduced(sys, beta_rhs(eq, p, z))
    assert info_a["path"] == info_b["path"] == "pcg"
    assert len(calls) == 2  # the solves reuse it
    # A fresh system builds the same preconditioner: the reuse is exact.
    fresh, info = solve_reduced(build_reduced(eq, p, cfg), beta_rhs(eq, p, z))
    assert np.array_equal(fresh, beta) and info["pcg_iters"] == info_b["pcg_iters"]


def test_clipped_eigh_solves_when_both_choleskys_fail(monkeypatch):
    rng = np.random.default_rng(19)
    eq = random_posdef_equation(rng, 10, 10, 2, 1)
    p = direction(orthonormal(rng, 10, 3), orthonormal(rng, 10, 3))

    def failing(*args, **kwargs):
        raise np.linalg.LinAlgError("not positive definite")

    calls = []
    eigh = mteq.reduced.sla.eigh
    monkeypatch.setattr(mteq.reduced.sla, "cho_factor", failing)
    monkeypatch.setattr(mteq.reduced.sla, "eigh",
                        lambda *a, **k: calls.append(a) or eigh(*a, **k))
    with pytest.warns(RuntimeWarning, match="diagonal floor"):
        sys = build_reduced(eq, p)
    assert sys.regularized and len(calls) == 1
    rhs = rng.standard_normal((3, 3))
    coeff, info = solve_reduced(sys, rhs)
    assert info["path"] == "direct" and info["regularized"] and len(calls) == 1
    # The system is positive definite, so clipping at the floor changes nothing.
    np.testing.assert_allclose(sys.apply(coeff), rhs, rtol=0, atol=1e-10 * np.abs(rhs).max())


def test_failed_inner_preconditioner_setup_runs_plain_cg(monkeypatch):
    monkeypatch.setattr(mteq.reduced, "DIRECT_THRESHOLD", 1)
    monkeypatch.setattr(mteq.reduced, "PCG_TOL", 1e-8)
    monkeypatch.setattr(mteq.reduced, "PCG_MAXIT", 500)
    rng = np.random.default_rng(20)
    eq = random_posdef_equation(rng, 16, 16, 3, 1, nonsym=0.05)
    p = direction(orthonormal(rng, 16, 5), orthonormal(rng, 16, 5))
    rhs = rng.standard_normal((5, 5))
    plain, info_plain = solve_reduced(build_reduced(eq, p), rhs)

    def failing(*args, **kwargs):
        raise np.linalg.LinAlgError("not positive definite")

    monkeypatch.setattr(mteq.reduced.sla, "eigh", failing)
    cfg = InnerSolveConfig(inner_precond_terms=(0, 1))
    with pytest.warns(RuntimeWarning, match="inner preconditioner setup failed"):
        sys = build_reduced(eq, p, cfg)
    coeff, info = solve_reduced(sys, rhs)
    assert info["path"] == "pcg" and info["converged"]
    assert np.array_equal(coeff, plain) and info["pcg_iters"] == info_plain["pcg_iters"]


def test_pcg_that_runs_out_of_iterations_warns_and_reports_it(monkeypatch):
    monkeypatch.setattr(mteq.reduced, "DIRECT_THRESHOLD", 1)
    monkeypatch.setattr(mteq.reduced, "PCG_MAXIT", 2)
    monkeypatch.setattr(mteq.reduced, "PCG_TOL", 1e-12)
    rng = np.random.default_rng(22)
    eq = build_convdiff(ConvDiffSpec(n=34, eps=0.1))
    p = direction(orthonormal(rng, 32, 5), orthonormal(rng, 32, 5))
    with pytest.warns(RuntimeWarning, match="inner PCG did not reach tol"):
        coeff, info = solve_reduced(build_reduced(eq, p), rng.standard_normal((5, 5)))
    assert info["path"] == "pcg" and not info["converged"] and info["pcg_iters"] == 2
    assert np.isfinite(coeff).all()


@pytest.mark.parametrize("bad", [np.nan, np.inf])
def test_pcg_stops_at_its_first_non_finite_iterate(monkeypatch, bad):
    # It ran all PCG_MAXIT iterations on NaN, warned that it missed its
    # tolerance and returned the NaN coefficient.
    monkeypatch.setattr(mteq.reduced, "DIRECT_THRESHOLD", 1)
    rng = np.random.default_rng(22)
    eq = build_convdiff(ConvDiffSpec(n=34, eps=0.1))
    p = direction(orthonormal(rng, 32, 5), orthonormal(rng, 32, 5))
    rhs = rng.standard_normal((5, 5))
    rhs[2, 3] = bad
    with pytest.raises(FloatingPointError, match=r"^inner PCG iterate 1 is not finite$"):
        solve_reduced(build_reduced(eq, p), rhs)


@pytest.mark.parametrize("side", ["left_grams", "right_grams"])
def test_non_finite_gram_table_raises_before_factoring(monkeypatch, side):
    rng = np.random.default_rng(21)
    eq = random_posdef_equation(rng, 8, 8, 2, 1)
    sys = build_reduced(eq, direction(orthonormal(rng, 8, 2), orthonormal(rng, 8, 2)))
    grams = {"left_grams": sys.left_grams.copy(), "right_grams": sys.right_grams.copy()}
    grams[side][1, 0, 1, 1] = np.inf
    calls = []
    monkeypatch.setattr(mteq.reduced.sla, "cho_factor", lambda *a, **k: calls.append(a))
    with pytest.raises(FloatingPointError, match="projected Gram table is not finite"):
        ReducedSystem(**grams)
    assert calls == []


def test_inner_precond_terms_stored_as_a_pair():
    listed = InnerSolveConfig(inner_precond_terms=[0, 1])
    assert listed == InnerSolveConfig(inner_precond_terms=(0, 1))
    assert hash(listed) == hash(InnerSolveConfig(inner_precond_terms=(0, 1)))
    for terms in [(0,), (0, 1, 2)]:
        with pytest.raises(ValueError, match="inner_precond_terms takes two term indices"):
            InnerSolveConfig(inner_precond_terms=terms)


def test_minimizer_property():
    rng = np.random.default_rng(16)
    eq = random_posdef_equation(rng, 10, 10, 2, 2)
    p_l = orthonormal(rng, 10, 3)
    p_r = orthonormal(rng, 10, 3)
    r = random_lowrank(rng, 10, 10, 2)
    p = direction(p_l, p_r)
    alpha, _ = solve_reduced(build_reduced(eq, p), alpha_rhs(eq, p, r))

    def objective(coeff):
        step = LowRankMatrix(p_l, coeff, p_r)
        return np.linalg.norm(r.densify() - apply_L(eq, step).densify())

    base = objective(alpha)
    for _ in range(10):
        delta = rng.standard_normal(alpha.shape)
        delta *= 1e-3 / np.linalg.norm(delta)
        assert objective(alpha + delta) >= base - 1e-12


def test_petrov_galerkin_orthogonality_of_updated_residual():
    rng = np.random.default_rng(17)
    eq = random_posdef_equation(rng, 10, 10, 2, 2)
    p_l = orthonormal(rng, 10, 3)
    p_r = orthonormal(rng, 10, 3)
    r = random_lowrank(rng, 10, 10, 3)
    p = direction(p_l, p_r)
    alpha, _ = solve_reduced(build_reduced(eq, p), alpha_rhs(eq, p, r))
    new_r = LowRankMatrix.from_dense(
        r.densify() - apply_L(eq, LowRankMatrix(p_l, alpha, p_r)).densify()
    )
    gram = alpha_rhs(eq, p, new_r)
    assert np.linalg.norm(gram) <= 1e-8 * r.norm_fro()


def test_direction_orthogonality_after_beta_solve():
    rng = np.random.default_rng(18)
    eq = random_posdef_equation(rng, 10, 10, 3, 1)
    p_l = orthonormal(rng, 10, 3)
    p_r = orthonormal(rng, 10, 3)
    p = LowRankMatrix(p_l, rng.standard_normal((3, 3)), p_r)
    z = random_lowrank(rng, 10, 10, 2)
    beta, _ = solve_reduced(build_reduced(eq, p), beta_rhs(eq, p, z))
    p_next = LowRankMatrix.from_dense(
        z.densify() + p_l @ beta @ p_r.T
    )
    lp = apply_L(eq, p).densify()
    lp_next = apply_L(eq, p_next).densify()
    assert abs(np.sum(lp_next * lp)) <= 1e-8 * np.linalg.norm(lp) ** 2
