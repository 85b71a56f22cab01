"""Compression kernel and GEMM projected-system kernels against dense references."""

import weakref

import numpy as np
import pytest
import scipy.sparse as sp

import mteq.reduced
from mteq import (
    LowRankMatrix,
    MultitermEquation,
    TruncationConfig,
    alpha_rhs,
    beta_rhs,
    build_reduced,
    factored_sum,
    make_sketch,
    sketched_residual_truncate,
    solve_reduced,
    truncate,
)
from mteq.lowrank import (
    _QR_BLOCK,
    OVERSAMPLING,
    NonFiniteError,
    householder_qr,
    select_rank,
    truncated_svd,
)

from conftest import direction, random_lowrank

TOL = 1e-12


def orthonormal(rng, n, k):
    return np.linalg.qr(rng.standard_normal((n, k)))[0]


def assert_matches_dense_svd(out, sigma, dense, cfg):
    """Rank, kept spectrum, orthonormality and error against a dense SVD."""
    ref = np.linalg.svd(dense, compute_uv=False)
    scale = max(ref[0], 1.0) if ref.size else 1.0
    rank = select_rank(ref, cfg)
    assert out.rank == rank
    np.testing.assert_allclose(np.diag(out.core), ref[:rank], rtol=0, atol=TOL * scale)
    n = min(sigma.size, ref.size)
    np.testing.assert_allclose(sigma[:n], ref[:n], rtol=0, atol=TOL * scale)
    for factor in (out.left, out.right):
        gram = factor.T @ factor
        assert np.abs(gram - np.eye(rank)).max() <= TOL
    err = np.linalg.norm(dense - out.densify())
    assert err == pytest.approx(np.linalg.norm(ref[rank:]), abs=TOL * scale)


def test_generic_input():
    rng = np.random.default_rng(0)
    left, right = rng.standard_normal((60, 9)), rng.standard_normal((45, 7))
    core = rng.standard_normal((9, 7))
    cfg = TruncationConfig(toltrank=1e-10, maxrank=5)
    out, sigma = truncated_svd(left, core, right, cfg)
    assert_matches_dense_svd(out, sigma, left @ core @ right.T, cfg)


@pytest.mark.parametrize("delta", [1e-2, 1e-8, 1e-12, 0.0])
def test_orthonormal_prefix_near_its_span(delta):
    rng = np.random.default_rng(1)
    n, kx, kp = 80, 6, 4
    x = truncate(LowRankMatrix(rng.standard_normal((n, kx)), np.diag(2.0 ** -np.arange(kx)),
                               rng.standard_normal((n, kx))),
                 TruncationConfig(toltrank=1e-14, maxrank=kx))
    inside = x.left @ rng.standard_normal((kx, kp))
    outside = orthonormal(rng, n, kp)
    outside -= x.left @ (x.left.T @ outside)
    p = LowRankMatrix(inside + delta * outside, np.eye(kp), orthonormal(rng, n, kp))
    m = factored_sum(x, p, rng.standard_normal((kp, kp)))
    cfg = TruncationConfig(toltrank=1e-10, maxrank=kx + kp)
    out, sigma = truncated_svd(m.left, m.core, m.right, cfg)
    assert_matches_dense_svd(out, sigma, m.densify(), cfg)
    assert np.array_equal(truncate(m, cfg).core, out.core)


def test_adi_like_rank_deficient_input():
    # Shifted solves of one block, as a t-step ADI sweep produces: width 8r
    # with a rapidly decaying spectrum, numerically rank deficient.
    rng = np.random.default_rng(2)
    n, r, steps = 120, 3, 8
    lap = sp.diags([-1.0, 2.0, -1.0], [-1, 0, 1], shape=(n, n)).toarray() * n
    shifts = np.geomspace(1.0, 2.0, steps)
    v, w = rng.standard_normal((n, r)), rng.standard_normal((n, r))
    left = np.hstack([np.linalg.solve(lap + s * np.eye(n), v) for s in shifts])
    right = np.hstack([np.linalg.solve(lap.T + s * np.eye(n), w) for s in shifts])
    core = np.kron(np.diag(shifts), np.eye(r))
    cfg = TruncationConfig(toltrank=1e-10, maxrank=8 * r)
    out, sigma = truncated_svd(left, core, right, cfg)
    dense = left @ core @ right.T
    assert select_rank(np.linalg.svd(dense, compute_uv=False), cfg) < 8 * r
    assert_matches_dense_svd(out, sigma, dense, cfg)


def test_short_wide_input():
    rng = np.random.default_rng(3)
    left = np.hstack([orthonormal(rng, 6, 3), rng.standard_normal((6, 7))])
    right = np.hstack([orthonormal(rng, 8, 3), rng.standard_normal((8, 7))])
    core = rng.standard_normal((10, 10))
    cfg = TruncationConfig(toltrank=1e-10, maxrank=10)
    out, sigma = truncated_svd(left, core, right, cfg)
    assert_matches_dense_svd(out, sigma, left @ core @ right.T, cfg)


def test_rank_zero_inputs():
    cfg = TruncationConfig()
    out, sigma = truncated_svd(np.zeros((7, 0)), np.zeros((0, 0)), np.zeros((5, 0)), cfg)
    assert out.is_zero and out.shape == (7, 5) and sigma.size == 0
    rng = np.random.default_rng(4)
    out, sigma = truncated_svd(rng.standard_normal((7, 3)), np.zeros((3, 2)),
                               rng.standard_normal((5, 2)), cfg)
    assert out.is_zero and out.shape == (7, 5)
    assert np.all(sigma == 0.0)


def test_exact_side_map_does_not_keep_the_factor_alive():
    # The factor may be a temporary, such as a stacked sum; the map must let
    # it go before the kept columns are mapped.
    rng = np.random.default_rng(6)
    f = rng.standard_normal((40, 6))
    head = f[:, :2].copy()
    r, to_basis = householder_qr(f)
    ref = weakref.ref(f)
    del f
    assert ref() is None
    np.testing.assert_allclose(to_basis(np.eye(6)[:, :2]) @ r[:2, :2], head, rtol=0, atol=1e-12)


def adi_like_factor(rng, n=120, r=3, steps=8):
    lap = sp.diags([-1.0, 2.0, -1.0], [-1, 0, 1], shape=(n, n)).toarray() * n
    v = rng.standard_normal((n, r))
    return np.hstack([np.linalg.solve(lap + s * np.eye(n), v)
                      for s in np.geomspace(1.0, 2.0, steps)])


@pytest.mark.parametrize("case", ["tall", "short_wide", "below_block", "width_1",
                                  "adi_like"])
def test_householder_qr_matches_numpy_triangle(case):
    rng = np.random.default_rng(20)
    f = {
        "tall": lambda: rng.standard_normal((300, 3 * _QR_BLOCK + 5)),
        "short_wide": lambda: rng.standard_normal((40, 90)),
        "below_block": lambda: rng.standard_normal((200, _QR_BLOCK - 7)),
        "width_1": lambda: rng.standard_normal((50, 1)),
        "adi_like": lambda: adi_like_factor(rng),
    }[case]()
    r, to_basis = householder_qr(f)
    k = min(f.shape)
    scale = np.linalg.norm(f)
    # geqrt and geqrf share the Householder sign rule, so R is the same.
    assert r.shape == (k, f.shape[1])
    np.testing.assert_allclose(r, np.linalg.qr(f, mode="r"), rtol=0, atol=1e-13 * scale)
    q = to_basis(np.eye(k))
    assert np.abs(q.T @ q - np.eye(k)).max() <= 1e-12
    np.testing.assert_allclose(to_basis(r), f, rtol=0, atol=1e-13 * scale)


@pytest.mark.parametrize("bad", [np.nan, np.inf])
def test_non_finite_factor_raises(bad):
    rng = np.random.default_rng(21)
    left, right = rng.standard_normal((50, 4)), rng.standard_normal((40, 4))
    left[17, 2] = bad
    with pytest.raises(ValueError):
        householder_qr(left)
    with pytest.raises(ValueError):
        truncated_svd(left, np.eye(4), right, TruncationConfig())
    with pytest.raises(ValueError):
        LowRankMatrix(left, np.eye(4), right).norm_fro()


def factored_with_spectrum(rng, n_rows, n_cols, sigma):
    """``U diag(sigma) V^T`` behind random invertible mixings of each side,
    so that neither factor is orthonormal."""
    k = sigma.size
    u, v = orthonormal(rng, n_rows, k), orthonormal(rng, n_cols, k)
    ml, mr = (np.eye(k) + 0.3 * rng.standard_normal((k, k)) for _ in range(2))
    core = np.linalg.solve(ml, np.diag(sigma)) @ np.linalg.inv(mr).T
    return LowRankMatrix(np.asfortranarray(u @ ml), core, np.asfortranarray(v @ mr))


def gaussian_omega(rng, n_cols, maxrank):
    return rng.standard_normal((maxrank + OVERSAMPLING, n_cols)).T


def test_range_finder_matches_the_exact_kernel_on_a_fast_decay():
    rng = np.random.default_rng(30)
    m = factored_with_spectrum(rng, 300, 200, 0.2 ** np.arange(80))
    cfg = TruncationConfig(toltrank=1e-10, maxrank=6)
    exact = truncate(m, cfg)
    out = truncate(m, cfg, gaussian_omega(rng, 200, cfg.maxrank))
    assert out.rank == exact.rank == 6
    dense = m.densify()
    err_exact = np.linalg.norm(dense - exact.densify())
    assert np.linalg.norm(dense - out.densify()) == pytest.approx(err_exact, rel=1e-10)


def test_range_finder_error_on_a_slow_decay():
    rng = np.random.default_rng(31)
    sigma = 1.0 / np.arange(1, 121)
    m = factored_with_spectrum(rng, 250, 220, sigma)
    cfg = TruncationConfig(toltrank=1e-10, maxrank=10)
    out = truncate(m, cfg, gaussian_omega(rng, 220, cfg.maxrank))
    assert out.rank == 10
    tail = np.linalg.norm(sigma[10:])
    assert np.linalg.norm(m.densify() - out.densify()) <= 10 * tail


@pytest.mark.parametrize(("n_rows", "width", "n_cols"), [(100, 15, 100), (12, 40, 100),
                                                         (100, 40, 12)])
def test_range_finder_falls_back_to_the_exact_kernel(n_rows, width, n_cols):
    # l = maxrank + OVERSAMPLING = 15 columns: no fewer than the width or a
    # dimension, so a sample would compress nothing.
    rng = np.random.default_rng(32)
    m = random_lowrank(rng, n_rows, n_cols, width)
    cfg = TruncationConfig(toltrank=1e-10, maxrank=5)
    out, exact = truncate(m, cfg, gaussian_omega(rng, n_cols, 5)), truncate(m, cfg)
    for got, want in zip((out.left, out.core, out.right), (exact.left, exact.core, exact.right)):
        assert np.array_equal(got, want)


def test_range_finder_of_zero_is_the_canonical_zero():
    rng = np.random.default_rng(33)
    m = LowRankMatrix(rng.standard_normal((90, 40)), np.zeros((40, 40)),
                      rng.standard_normal((70, 40)))
    out = truncate(m, TruncationConfig(maxrank=5), gaussian_omega(rng, 70, 5))
    assert out.is_zero and out.shape == (90, 70)
    assert out.left.shape[1] == out.right.shape[1] == 0


def test_range_finder_output_is_orthonormal_and_repeatable():
    rng = np.random.default_rng(34)
    m = factored_with_spectrum(rng, 400, 300, 0.7 ** np.arange(90))
    cfg = TruncationConfig(toltrank=1e-10, maxrank=12)
    omega = gaussian_omega(rng, 300, cfg.maxrank)
    out = truncate(m, cfg, omega)
    for factor in (out.left, out.right):
        assert np.abs(factor.T @ factor - np.eye(out.rank)).max() <= 1e-12
    again = truncate(m, cfg, omega.copy())
    for got, want in zip((out.left, out.core, out.right), (again.left, again.core, again.right)):
        assert np.array_equal(got, want)


@pytest.mark.parametrize("side", ["left", "right"])
def test_range_finder_rejects_a_non_finite_factor(side):
    rng = np.random.default_rng(35)
    m = random_lowrank(rng, 80, 60, 40)
    getattr(m, side)[5, 3] = np.nan
    with pytest.raises(NonFiniteError):
        truncate(m, TruncationConfig(maxrank=5), gaussian_omega(rng, 60, 5))
    assert issubclass(NonFiniteError, FloatingPointError)
    assert issubclass(NonFiniteError, ValueError)


def test_full_size_sketch_matches_exact_residual_truncation():
    # With s = n the sketch is orthogonal, so the sketched sides reduce the
    # residual exactly, up to rounding.
    rng = np.random.default_rng(5)
    n, p = 70, 2
    terms = [(sp.csr_matrix(rng.standard_normal((n, n))),
              sp.csr_matrix(rng.standard_normal((n, n)))) for _ in range(p)]
    eq = MultitermEquation(terms=terms, C=rng.standard_normal((n, 2)),
                           D=rng.standard_normal((n, 2)))
    x = LowRankMatrix(rng.standard_normal((n, 3)), np.eye(3), rng.standard_normal((n, 3)))
    cfg = TruncationConfig(toltrank=1e-10, maxrank=8)
    exact, est = sketched_residual_truncate(eq, x, None, None, cfg)
    sketched, est_s = sketched_residual_truncate(
        eq, x, make_sketch(n, n, seed=1), make_sketch(n, n, seed=2), cfg)
    assert sketched.rank == exact.rank
    assert est_s == pytest.approx(est, rel=1e-12)
    scale = np.linalg.norm(exact.densify())
    assert np.linalg.norm(sketched.densify() - exact.densify()) <= 1e-10 * scale


def nonsymmetric_equation(rng, n_a, n_b, p):
    terms = [(sp.csr_matrix(rng.standard_normal((n_a, n_a))),
              sp.csr_matrix(rng.standard_normal((n_b, n_b)))) for _ in range(p)]
    return MultitermEquation(terms=terms, C=rng.standard_normal((n_a, 1)),
                             D=rng.standard_normal((n_b, 1)))


def dense_terms(eq):
    return [(a.toarray(), b.toarray()) for a, b in eq.terms]


def kron_reference(eq, p_l, p_r):
    """``sum_ij kron(R_ij, L_ij)`` with explicitly formed Gram blocks."""
    out = 0.0
    for a_i, b_i in dense_terms(eq):
        for a_j, b_j in dense_terms(eq):
            left = (a_i @ p_l).T @ (a_j @ p_l)
            right = p_r.T @ b_i @ b_j.T @ p_r
            out = out + np.kron(right, left)
    return out


def adjoint_reference(eq, p_l, p_r, m):
    """``P_l.T (sum_i A_i.T M B_i.T) P_r`` on the dense matrix ``m``."""
    return sum(p_l.T @ a.T @ m @ b.T @ p_r for a, b in dense_terms(eq))


def image(eq, m):
    return sum(a @ m @ b for a, b in dense_terms(eq))


@pytest.mark.parametrize("p", [1, 2, 4])
@pytest.mark.parametrize("qk", [1, 7])
def test_gemm_kernels_match_explicit_kron_sum(p, qk):
    rng = np.random.default_rng(10 * p + qk)
    n_a, n_b = 11, 9
    eq = nonsymmetric_equation(rng, n_a, n_b, p)
    p_l, p_r = orthonormal(rng, n_a, qk), orthonormal(rng, n_b, qk)
    p_dir = direction(p_l, p_r)
    sys = build_reduced(eq, p_dir)
    t = kron_reference(eq, p_l, p_r)
    scale = np.abs(t).max()
    np.testing.assert_allclose(sys.assemble(), t, rtol=0, atol=TOL * scale)

    coeff = rng.standard_normal((qk, qk))
    expected = (t @ coeff.flatten(order="F")).reshape((qk, qk), order="F")
    np.testing.assert_allclose(sys.apply(coeff), expected, rtol=0,
                               atol=TOL * scale * np.abs(coeff).sum())

    # Rectangular cores keep the two factor widths of M distinct.
    r = LowRankMatrix(rng.standard_normal((n_a, 3)), rng.standard_normal((3, 2)),
                      rng.standard_normal((n_b, 2)))
    expected = adjoint_reference(eq, p_l, p_r, r.densify())
    np.testing.assert_allclose(alpha_rhs(eq, p_dir, r), expected, rtol=0,
                               atol=TOL * np.abs(expected).max())
    expected = -adjoint_reference(eq, p_l, p_r, image(eq, r.densify()))
    np.testing.assert_allclose(beta_rhs(eq, p_dir, r), expected, rtol=0,
                               atol=TOL * np.abs(expected).max())


def test_in_place_factorization_regularizes_a_singular_system(monkeypatch):
    # A zero direction column makes the assembled matrix singular, so the
    # in-place Cholesky fails and the floor-regularized path runs.
    rng = np.random.default_rng(7)
    eq = nonsymmetric_equation(rng, 10, 10, 2)
    p_l = orthonormal(rng, 10, 3)
    p_l[:, 2] = 0.0
    p = direction(p_l, orthonormal(rng, 10, 3))
    with pytest.warns(RuntimeWarning, match="diagonal floor"):
        sys = build_reduced(eq, p)
    assert sys.regularized
    # The in-place factorization left the Gram blocks alone.
    monkeypatch.setattr(mteq.reduced, "DIRECT_THRESHOLD", 1)
    unfactored = build_reduced(eq, p)
    assert np.array_equal(sys.assemble(), unfactored.assemble())
    rhs = rng.standard_normal((3, 3))
    rhs[2] = 0.0
    coeff, info = solve_reduced(sys, rhs)
    assert info["regularized"]
    np.testing.assert_allclose(sys.apply(coeff), rhs, rtol=0,
                               atol=1e-8 * np.abs(rhs).max())
    again, info = solve_reduced(sys, rhs)
    assert np.array_equal(again, coeff)
    assert info["regularized"]
