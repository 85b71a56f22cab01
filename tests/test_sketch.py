"""Sketch operators and sketched residual truncation."""

import dataclasses

import numpy as np
import pytest
import scipy.sparse as sp
from scipy.fft import dct

from mteq import (
    LowRankMatrix,
    MultitermEquation,
    SketchOperator,
    TruncationConfig,
    apply_L,
    make_sketch,
    residual_factored,
    sketched_residual_truncate,
    sketches,
    truncate,
)
from mteq.oracle import assemble_kron, direct_solve
from mteq.operator import left_stack, right_stack

from conftest import random_lowrank, random_posdef_equation


def sparse_random(rng, n, density=0.02):
    m = sp.random(n, n, density=density, random_state=np.random.RandomState(
        rng.integers(2**31)), format="csr")
    return m + sp.identity(n, format="csr")


def test_full_sampling_is_orthogonal():
    rng = np.random.default_rng(0)
    # 70 is not a fast transform length: a full-size sketch is still not padded.
    for n in (64, 70):
        s = make_sketch(n, n, seed=3)
        assert s.n_fft == n
        for _ in range(5):
            v = rng.standard_normal(n)
            ratio = np.linalg.norm(s.apply(v[:, None])) / np.linalg.norm(v)
            assert 1 - 1e-10 <= ratio <= 1 + 1e-10


def test_determinism_for_fixed_seed():
    rng = np.random.default_rng(1)
    v = rng.standard_normal(128)
    a = make_sketch(128, 32, seed=11).apply(v[:, None])
    b = make_sketch(128, 32, seed=11).apply(v[:, None])
    assert np.array_equal(a, b)


def test_norm_estimate_unbiased_over_seeds():
    rng = np.random.default_rng(2)
    # 1022 = 2 * 7 * 73 is padded to 1024; 1024 is not.
    for n in (1024, 1022):
        v = rng.standard_normal(n)
        ratios = [
            np.linalg.norm(make_sketch(n, 128, seed=k).apply(v[:, None])) ** 2
            / np.linalg.norm(v) ** 2
            for k in range(200)
        ]
        assert 0.9 <= np.mean(ratios) <= 1.1


def test_invalid_sketch_dimension():
    with pytest.raises(ValueError):
        make_sketch(10, 11, seed=0)
    with pytest.raises(ValueError):
        make_sketch(10, 0, seed=0)


def test_empirical_subspace_embedding():
    rng = np.random.default_rng(3)
    # 2046 = 2 * 3 * 11 * 31 is padded to 2048; 2048 is not.
    for n in (2048, 2046):
        basis = np.linalg.qr(rng.standard_normal((n, 10)))[0]
        probes = basis @ rng.standard_normal((10, 50))
        probes /= np.linalg.norm(probes, axis=0)
        hits = 0
        for seed in range(200):
            sk = make_sketch(n, 200, seed=seed)
            distortion = np.abs(np.linalg.norm(sk.apply(probes), axis=0) ** 2 - 1.0)
            hits += distortion.max() <= 0.5
        assert hits >= 190


@pytest.mark.parametrize("n, s, n_fft", [(70, 20, 72), (1022, 100, 1024)])
def test_padded_sketch_matches_explicit_matrix(n, s, n_fft):
    sk = make_sketch(n, s, seed=5)
    assert sk.n_fft == n_fft
    assert sk.row_subset.max() < n_fft
    # Column j of the orthonormal DCT-II matrix is the transform of e_j.
    dct_n = dct(np.eye(n_fft), type=2, norm="ortho", axis=0)
    explicit = np.sqrt(n_fft / s) * dct_n[sk.row_subset][:, :n] * sk.sign_flips
    m = np.random.default_rng(6).standard_normal((n, 7))
    np.testing.assert_allclose(sk.apply(m), explicit @ m, rtol=0, atol=1e-12)


@pytest.mark.parametrize("n", [64, 1024, 2048])
def test_fast_length_sketch_is_the_unpadded_draw(n):
    s, seed = n // 4, 9
    sk = make_sketch(n, s, seed=seed)
    # The draw of the unpadded operator: signs, then rows out of range(n).
    rng = np.random.default_rng(seed)
    signs = rng.integers(0, 2, size=n).astype(float) * 2.0 - 1.0
    rows = rng.choice(n, size=s, replace=False)
    assert sk.n_fft == n
    assert np.array_equal(sk.sign_flips, signs)
    assert np.array_equal(sk.row_subset, rows)
    m = np.random.default_rng(10).standard_normal((n, 3))
    unpadded = np.sqrt(n / s) * dct(signs[:, None] * m, type=2, norm="ortho", axis=0)[rows]
    assert np.array_equal(sk.apply(m), unpadded)


def test_policy_mode_selection():
    # s = 2 (p maxrank + q) = 2 (2*10 + 2) = 44. The row sketch is drawn
    # from the seed and the column sketch from seed + 1: every sketched
    # iterate depends on those two streams.
    def same(got, want):
        return all(np.array_equal(getattr(got, f.name), getattr(want, f.name))
                   for f in dataclasses.fields(SketchOperator))

    for (n_a, n_b), want in {(100, 100): "two_sided", (100, 30): "left_only",
                             (30, 30): "exact", (30, 100): "exact"}.items():
        eye_a, eye_b = sp.identity(n_a, format="csr"), sp.identity(n_b, format="csr")
        eq = MultitermEquation(terms=[(eye_a, eye_b)] * 2, C=np.zeros((n_a, 2)),
                               D=np.zeros((n_b, 2)))
        mode, s, s_a, s_b = sketches(eq, 10, seed=5)
        assert (mode, s) == (want, 44)
        assert (s_a is None) == (mode == "exact")
        assert (s_b is None) == (mode != "two_sided")
        assert s_a is None or same(s_a, make_sketch(n_a, 44, seed=5))
        assert s_b is None or same(s_b, make_sketch(n_b, 44, seed=6))


def test_exact_mode_estimate_is_true_norm():
    rng = np.random.default_rng(4)
    eq = random_posdef_equation(rng, 15, 12, 2, 2)
    x = random_lowrank(rng, 15, 12, 3)
    _, est, _ = sketched_residual_truncate(eq, x, None, None,
                                           TruncationConfig(maxrank=30))
    true = np.linalg.norm(eq.C @ eq.D.T - apply_L(eq, x).densify())
    assert est == pytest.approx(true, rel=1e-12)


def test_exact_mode_bit_identical_to_plain_truncation():
    rng = np.random.default_rng(5)
    eq = random_posdef_equation(rng, 15, 12, 2, 2)
    x = random_lowrank(rng, 15, 12, 3)
    cfg = TruncationConfig(maxrank=4)
    out, _, _ = sketched_residual_truncate(eq, x, None, None, cfg)
    ref = truncate(residual_factored(eq, x), cfg)
    assert np.array_equal(out.left, ref.left)
    assert np.array_equal(out.core, ref.core)
    assert np.array_equal(out.right, ref.right)


def test_estimate_small_at_exact_solution():
    rng = np.random.default_rng(6)
    eq = random_posdef_equation(rng, 12, 10, 2, 2)
    x = LowRankMatrix.from_dense(direct_solve(assemble_kron(eq)))
    _, est, _ = sketched_residual_truncate(eq, x, None, None, TruncationConfig())
    assert est <= 1e-8 * eq.rhs_norm()


def test_exact_zero_residual_gives_zero():
    n = 20
    eye = sp.identity(n, format="csr")
    eq = MultitermEquation(terms=[(eye, eye)], C=np.zeros((n, 1)),
                           D=np.zeros((n, 1)))
    out, est, _ = sketched_residual_truncate(
        eq, LowRankMatrix.zeros(n, n), None, None, TruncationConfig()
    )
    assert out.is_zero
    assert est == 0.0


def test_left_only_mode_close_to_optimal_truncation():
    rng = np.random.default_rng(7)
    n_a, n_b = 1024, 30
    terms = [(sparse_random(rng, n_a), sparse_random(rng, n_b)) for _ in range(2)]
    eq = MultitermEquation(
        terms=terms,
        C=rng.standard_normal((n_a, 2)),
        D=rng.standard_normal((n_b, 2)),
    )
    x = random_lowrank(rng, n_a, n_b, 4)
    r_dense = eq.C @ eq.D.T - apply_L(eq, x).densify()
    u, sv, vt = np.linalg.svd(r_dense, full_matrices=False)
    best = (u[:, :3] * sv[:3]) @ vt[:3]
    err_best = np.linalg.norm(r_dense - best)
    cfg = TruncationConfig(maxrank=3, toltrank=1e-12)
    hits = 0
    for seed in range(100):
        s_a = make_sketch(n_a, 44, seed=seed)
        out, _, _ = sketched_residual_truncate(eq, x, s_a, None, cfg)
        err = np.linalg.norm(r_dense - out.densify())
        hits += err <= 2.0 * err_best
    assert hits >= 95


def test_two_sided_recovers_constructed_low_rank_residual():
    rng = np.random.default_rng(8)
    n = 2000
    terms = [(sparse_random(rng, n), sparse_random(rng, n)) for _ in range(2)]
    x = random_lowrank(rng, n, n, 2)
    lx_left = left_stack(MultitermEquation(terms=terms, C=np.zeros((n, 1)),
                                           D=np.zeros((n, 1))), x.left)
    lx_right = right_stack(MultitermEquation(terms=terms, C=np.zeros((n, 1)),
                                             D=np.zeros((n, 1))), x.right)
    lx_core = np.kron(np.eye(2), x.core)
    u5 = np.linalg.qr(rng.standard_normal((n, 5)))[0]
    v5 = np.linalg.qr(rng.standard_normal((n, 5)))[0]
    sigma5 = np.diag([5.0, 4.0, 3.0, 2.0, 1.0])
    eq = MultitermEquation(
        terms=terms,
        C=np.hstack([lx_left @ lx_core, u5 @ sigma5]),
        D=np.hstack([lx_right, v5]),
    )
    true_norm = np.linalg.norm(np.diag(sigma5))

    cfg = TruncationConfig(maxrank=10, toltrank=1e-10)
    s_dim = 2 * (eq.p * cfg.maxrank + eq.q)
    hits_ratio = 0
    hits_rank = 0
    for seed in range(200):
        s_a = make_sketch(n, s_dim, seed=seed)
        s_b = make_sketch(n, s_dim, seed=seed + 100_000)
        out, est, _ = sketched_residual_truncate(eq, x, s_a, s_b, cfg)
        hits_rank += out.rank == 5
        hits_ratio += 0.5 <= est / true_norm <= 2.0
    assert hits_rank >= 190
    assert hits_ratio >= 190


def test_sketch_rejects_an_operand_of_the_wrong_height():
    with pytest.raises(ValueError, match="operand has 9 rows, sketch expects 10"):
        make_sketch(10, 4, seed=0).apply(np.ones((9, 2)))
