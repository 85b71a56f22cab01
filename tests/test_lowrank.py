"""Factored arithmetic against dense oracles."""

import numpy as np
import pytest
import scipy.linalg as sla

from mteq import (
    LowRankMatrix,
    ShapeError,
    TruncationConfig,
    factored_sum,
    truncate,
)
from mteq.lowrank import householder_qr

from conftest import random_lowrank


def test_truncation_config_validation():
    with pytest.raises(ValueError):
        TruncationConfig(toltrank=0.0)
    with pytest.raises(ValueError):
        TruncationConfig(toltrank=1.5)
    with pytest.raises(ValueError):
        TruncationConfig(maxrank=0)


def test_factor_shape_mismatch_rejected():
    with pytest.raises(ShapeError):
        LowRankMatrix(np.ones((4, 2)), np.ones((3, 2)), np.ones((5, 2)))


def test_densify_cap_enforced():
    m = LowRankMatrix.zeros(3000, 3000)
    with pytest.raises(ValueError):
        m.densify(max_entries=1000)


def test_factored_sum_zero_summand():
    rng = np.random.default_rng(0)
    p = random_lowrank(rng, 10, 8, 2)
    x = LowRankMatrix.zeros(10, 8)
    coeff = rng.standard_normal((2, 2))
    out = factored_sum(x, p, coeff)
    np.testing.assert_allclose(out.densify(), p.left @ coeff @ p.right.T, atol=1e-14)


def test_factored_sum_duplicates_identical_factors():
    rng = np.random.default_rng(1)
    x = random_lowrank(rng, 10, 10, 1)
    out = factored_sum(x, x, x.core)
    np.testing.assert_allclose(out.densify(), 2.0 * x.densify(), atol=1e-12)


def test_factored_sum_matches_dense_addition():
    rng = np.random.default_rng(2)
    x = random_lowrank(rng, 30, 20, 3)
    p = random_lowrank(rng, 30, 20, 2)
    coeff = rng.standard_normal((2, 2))
    out = factored_sum(x, p, coeff)
    expected = x.densify() + p.left @ coeff @ p.right.T
    np.testing.assert_allclose(out.densify(), expected, atol=1e-12)


def test_factored_sum_rejects_mismatched_shapes():
    rng = np.random.default_rng(3)
    x = random_lowrank(rng, 10, 8, 2)
    p = random_lowrank(rng, 11, 8, 2)
    with pytest.raises(ShapeError):
        factored_sum(x, p, np.eye(2))
    p2 = random_lowrank(rng, 10, 8, 2)
    with pytest.raises(ShapeError):
        factored_sum(x, p2, np.eye(3))


def test_truncate_drops_hard_zero_tail():
    rng = np.random.default_rng(4)
    u = np.linalg.qr(rng.standard_normal((12, 2)))[0]
    v = np.linalg.qr(rng.standard_normal((9, 2)))[0]
    m = LowRankMatrix(u, np.diag([1.0, 1e-14]), v)
    out = truncate(m, TruncationConfig(toltrank=1e-10, maxrank=10))
    assert out.rank == 1


def test_truncate_error_matches_dense_svd_tail():
    rng = np.random.default_rng(5)
    m = random_lowrank(rng, 50, 40, 8)
    cfg = TruncationConfig(toltrank=1e-12, maxrank=5)
    out = truncate(m, cfg)
    assert out.rank == 5
    sigma = sla.svdvals(m.densify())
    tail = np.sqrt(np.sum(sigma[5:] ** 2))
    err = np.linalg.norm(m.densify() - out.densify())
    assert err == pytest.approx(tail, abs=1e-10)


def test_truncate_preserves_equal_spectrum():
    rng = np.random.default_rng(6)
    u = np.linalg.qr(rng.standard_normal((15, 3)))[0]
    v = np.linalg.qr(rng.standard_normal((15, 3)))[0]
    m = LowRankMatrix(u, np.eye(3), v)
    out = truncate(m, TruncationConfig(toltrank=1e-10, maxrank=10))
    assert out.rank == 3
    np.testing.assert_allclose(out.densify(), m.densify(), atol=1e-12)


def test_truncate_zero_matrix_gives_canonical_zero():
    m = LowRankMatrix(np.zeros((7, 3)), np.zeros((3, 3)), np.zeros((5, 3)))
    out = truncate(m, TruncationConfig())
    assert out.is_zero
    assert out.shape == (7, 5)


def test_truncate_is_best_approximation_at_chosen_rank():
    rng = np.random.default_rng(7)
    for trial in range(5):
        m = random_lowrank(rng, 40, 30, 10)
        cfg = TruncationConfig(toltrank=1e-12, maxrank=4)
        out = truncate(m, cfg)
        dense = m.densify()
        u, s, vt = np.linalg.svd(dense)
        best = (u[:, :4] * s[:4]) @ vt[:4]
        assert np.linalg.norm(dense - out.densify()) == pytest.approx(
            np.linalg.norm(dense - best), abs=1e-10
        )


def test_truncate_idempotent():
    rng = np.random.default_rng(8)
    m = random_lowrank(rng, 25, 25, 8)
    cfg = TruncationConfig(toltrank=1e-8, maxrank=5)
    once = truncate(m, cfg)
    twice = truncate(once, cfg)
    np.testing.assert_allclose(once.densify(), twice.densify(), atol=1e-12)


def test_truncate_output_orthonormal():
    rng = np.random.default_rng(9)
    m = random_lowrank(rng, 30, 30, 6)
    out = truncate(m, TruncationConfig(toltrank=1e-12, maxrank=6))
    r = out.rank
    assert np.linalg.norm(out.left.T @ out.left - np.eye(r)) <= 1e-10 * r
    assert np.linalg.norm(out.right.T @ out.right - np.eye(r)) <= 1e-10 * r


def test_norm_fro_matches_dense():
    rng = np.random.default_rng(10)
    m = random_lowrank(rng, 30, 20, 5)
    assert m.norm_fro() == pytest.approx(np.linalg.norm(m.densify()), rel=1e-12)
    t = truncate(m, TruncationConfig(toltrank=1e-14, maxrank=10))
    assert t.norm_fro() == pytest.approx(np.linalg.norm(m.densify()), rel=1e-12)


@pytest.mark.parametrize("shape", [(400, 300, 60), (12, 9, 25)])
def test_norm_fro_of_tall_and_short_wide_factors(shape):
    # Non-orthonormal factors with a spread of column scales; in the second
    # case both factors are wider than they are tall.
    n_rows, n_cols, rank = shape
    rng = np.random.default_rng(12)
    m = LowRankMatrix(rng.standard_normal((n_rows, rank)) * np.geomspace(1, 1e-4, rank),
                      rng.standard_normal((rank, rank)),
                      rng.standard_normal((n_cols, rank)) * np.geomspace(1e-3, 1, rank))
    assert m.norm_fro() == pytest.approx(np.linalg.norm(m.densify()), rel=1e-12)


def test_from_dense_round_trip():
    rng = np.random.default_rng(11)
    dense = rng.standard_normal((12, 7))
    m = LowRankMatrix.from_dense(dense)
    np.testing.assert_allclose(m.densify(), dense, atol=1e-12)


@pytest.mark.parametrize("build", [
    lambda: LowRankMatrix.zeros(7, 5),
    lambda: LowRankMatrix.from_dense(np.zeros((7, 5))),
], ids=["zeros", "from_dense-of-zero"])
def test_zero_matrix_has_zero_width_factors_and_norm(build):
    m = build()
    assert m.is_zero and m.shape == (7, 5) and m.rank == 0
    assert m.norm_fro() == 0.0
    r, to_basis = householder_qr(m.left)
    assert r.shape == (0, 0)
    np.testing.assert_array_equal(to_basis(np.zeros((0, 2))), np.zeros((7, 2)))
