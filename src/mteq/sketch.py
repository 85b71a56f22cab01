"""Seeded randomized trigonometric sketches and sketched residual truncation.

A sketch maps ``R^n -> R^s`` by sign flips, an orthonormal DCT-II of a fast
length ``N >= n`` applied to the zero-padded input, and a uniform row
subsample of ``s`` of the ``N`` rows rescaled by ``sqrt(N/s)``:

    S = sqrt(N/s) * P F_N[:, :n] diag(d).

For a fixed seed it is a deterministic linear operator with O(N log N)
cost per column. With the pseudo-inverse of each side's sketched triangle, the
factored residual is truncated and its norm estimated without tall QRs.

Why padding keeps the sketch sound. ``N = next_fast_len(n)`` is the next
5-smooth length, so the DCT never falls back to Bluestein's algorithm
(``n = 16382 = 2 * 8191`` would), and ``N <= n (1 + o(1))`` as ``n`` grows.
``F_N[:, :n]`` is ``n`` columns of an orthogonal matrix, so it has
orthonormal columns: ``w = F_N[:, :n] (d * v)`` has ``||w|| = ||v||``.
The ``s`` rows are drawn uniformly without replacement from the ``N``, so
each is kept with probability ``s/N`` and ``E ||S v||^2 = (N/s) (s/N)
||w||^2 = ||v||^2``: the padded sketch is still an unbiased norm
estimator. Every entry of ``F_N`` is bounded by ``sqrt(2/N)``, so for an
orthonormal ``U`` (``n x k``) the random signs spread the rows of
``F_N[:, :n] diag(d) U`` to norms of order ``sqrt((k + log N) / N)`` with
high probability. That incoherence is all the subsampled-randomized-
transform embedding argument (Halko, Martinsson & Tropp 2011, section 11)
uses, so its bound ``s = O((k + log N) log k)`` holds with ``n`` replaced
by ``N``. The sketch is orthogonal only at ``s == n``, where ``N = n`` is
kept: a signed, permuted DCT, which preserves norms exactly. At a length
that is already fast, ``N = n`` and the operator is the unpadded one.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
import scipy.linalg as sla
from scipy.fft import dct, next_fast_len

from .lowrank import LowRankMatrix, TruncationConfig, householder_qr, truncated_svd
from .operator import MultitermEquation, residual_factored


@dataclass(frozen=True)
class SketchOperator:
    """Subsampled transform ``v -> sqrt(N/s) * (F_N (d * v, zero-padded))[rows]``.

    ``d`` is a Rademacher sign vector, ``F_N`` the orthonormal DCT-II of
    length ``N = n_fft >= n`` and ``rows`` ``s`` distinct indices below
    ``N``, so the subsample is an unbiased norm estimator (see the module
    docstring). :func:`make_sketch` draws it reproducibly from a seed.
    """

    n: int
    s: int
    n_fft: int
    sign_flips: np.ndarray
    row_subset: np.ndarray

    def apply(self, m: np.ndarray) -> np.ndarray:
        """Apply to each column of an ``n x k`` block; a vector is passed as ``v[:, None]``."""
        m = np.asarray(m, dtype=float)
        if m.shape[0] != self.n:
            raise ValueError(f"operand has {m.shape[0]} rows, sketch expects {self.n}")
        # The signs are written straight into the zero-padded buffer, which
        # the transform may then overwrite.
        y = np.zeros((self.n_fft, m.shape[1]))
        np.multiply(self.sign_flips[:, None], m, out=y[:self.n])
        y = dct(y, type=2, norm="ortho", axis=0, overwrite_x=True)
        return np.sqrt(self.n_fft / self.s) * y[self.row_subset, :]


def make_sketch(n: int, s: int, seed: int) -> SketchOperator:
    """Draw a seeded sketch operator ``R^n -> R^s``.

    Requires ``1 <= s <= n``. The transform length is
    ``next_fast_len(n, real=True)`` for ``s < n``; with ``s == n`` it is
    ``n`` itself and the operator is orthogonal (a signed, permuted DCT)
    and preserves norms exactly.
    """
    if not 1 <= s <= n:
        raise ValueError(f"sketch dimension must satisfy 1 <= s <= n, got s={s}, n={n}")
    n_fft = n if s == n else next_fast_len(n, real=True)
    rng = np.random.default_rng(seed)
    signs = rng.integers(0, 2, size=n).astype(float) * 2.0 - 1.0
    rows = rng.choice(n_fft, size=s, replace=False)
    return SketchOperator(n=n, s=s, n_fft=n_fft, sign_flips=signs, row_subset=rows)


def sketches(
    eq: MultitermEquation, maxrank: int, seed: int
) -> tuple[str, int, SketchOperator | None, SketchOperator | None]:
    """``(mode, s, s_a, s_b)``: the residual sketches of ``eq``, ``None`` where unused.

    ``s = 2 (p * maxrank + q)``. The row side is sketched from ``seed`` when
    ``n_A >= s``; the column side from ``seed + 1`` when the row side is and
    ``n_B >= s``, since with a small row dimension the plain QR path is
    already cheap. ``mode`` is ``"exact"``, ``"left_only"`` or
    ``"two_sided"`` accordingly.
    """
    s = 2 * (eq.p * maxrank + eq.q)
    s_a = make_sketch(eq.n_A, s, seed) if eq.n_A >= s else None
    s_b = make_sketch(eq.n_B, s, seed + 1) if s_a is not None and eq.n_B >= s else None
    mode = "exact" if s_a is None else "left_only" if s_b is None else "two_sided"
    return mode, s, s_a, s_b


def _sketched_side(f: np.ndarray, sketch: SketchOperator | None) -> tuple | None:
    """``(R_s, u -> f @ pinv(R_s) @ u)`` from the skinny QR of ``sketch(f)``.

    ``R_s`` is often singular after the first iteration: the residual factor
    ``[C, A_i X, ...]`` of a smooth iterate is numerically rank deficient.
    """
    if sketch is None:
        return None
    r = householder_qr(sketch.apply(f))[0]
    pinv = np.linalg.pinv(r)
    return r, lambda u: f @ (pinv @ u)


def sketched_residual_truncate(
    eq: MultitermEquation,
    x: LowRankMatrix,
    s_a: SketchOperator | None,
    s_b: SketchOperator | None,
    cfg: TruncationConfig,
) -> tuple[LowRankMatrix, float, LowRankMatrix]:
    """Truncated factored residual of ``x`` and its Frobenius-norm estimate.

    A sketched side is reduced by the skinny QR of the *sketched* factor in
    place of a tall one: with sketched triangles ``R_A, R_B`` the residual
    is ``K_l @ rho @ K_r.T``, ``K_l = F_l pinv(R_A)``, ``K_r = F_r pinv(R_B)``
    and ``rho = R_A @ mid @ R_B.T``; the compression kernel truncates the
    SVD of ``rho`` and maps only the kept vectors through ``K_l, K_r``. The
    estimate is the spectrum norm of ``rho``, the sketched residual's norm,
    taken by BLAS ``nrm2`` so that it does not overflow before ``rho`` does.
    Without sketches this is the plain truncation of the factored residual
    (bit-identical, and the estimate is the exact norm).

    Returns the truncated residual, the norm estimate and the factored
    residual it came from (:func:`mteq.operator.residual_factored`'s, left
    as built). A numerically zero residual gives the canonical zero matrix
    and estimate ``0.0``.
    """
    m = residual_factored(eq, x)
    sides = (_sketched_side(m.left, s_a), _sketched_side(m.right, s_b))
    out, sigma = truncated_svd(m.left, m.core, m.right, cfg, sides=sides)
    return out, float(sla.norm(sigma, check_finite=False)), m
