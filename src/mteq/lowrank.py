"""Low-rank factored matrices: formation, factored sums, and truncation.

A matrix is kept as the triple product ``left @ core @ right.T`` and is
never formed densely unless it is small enough. All operations return new
objects; instances are treated as immutable and are safe to share.
Every truncation runs one compression kernel, :func:`truncated_svd`. Each
exact side of it is one Householder QR, :func:`householder_qr`, whose tall
orthonormal basis is applied, never formed. :func:`truncate` given a
sampler first compresses a wide input to the range of a random sample of it
(the range finder of Halko, Martinsson & Tropp 2011, Algorithms 4.1 and
5.1), so the kernel then works at the sample's width; :func:`gaussian_sample`
is the seeded test matrix a solve samples with.
"""

from __future__ import annotations

import numbers
from collections.abc import Callable
from dataclasses import dataclass

import numpy as np
import scipy.linalg as sla
from scipy.linalg.blas import dgemm
from scipy.linalg.lapack import dgemqrt, dgeqrt

#: Largest number of entries ``densify`` will materialize by default.
DENSIFY_CAP = 4_000_000

#: Columns per compact-WY block of the Householder QR (``nb`` of LAPACK ``geqrt``).
_QR_BLOCK = 32

#: Columns the range finder's sample holds beyond ``maxrank``.
OVERSAMPLING = 10


class ShapeError(ValueError):
    """Dimensions of factored operands do not conform."""


class NonFiniteError(FloatingPointError, ValueError):
    """A factor holds inf or NaN: bad input, and a breakdown inside a solve."""


@dataclass(frozen=True)
class TruncationConfig:
    """Truncation rule: relative singular-value cutoff plus a hard rank cap.

    A truncation keeps the leading singular values with
    ``sigma_j / sigma_1 > toltrank``, and never more than ``maxrank`` of
    them.
    """

    toltrank: float = 1e-10
    maxrank: int = 50

    def __post_init__(self):
        if not 0.0 < self.toltrank < 1.0:
            raise ValueError(f"toltrank must lie in (0, 1), got {self.toltrank}")
        if not isinstance(self.maxrank, numbers.Integral) or self.maxrank < 1:
            raise ValueError(f"maxrank must be a positive integer, got {self.maxrank!r}")


@dataclass(frozen=True)
class LowRankMatrix:
    """Three-factor representation ``left @ core @ right.T``.

    Parameters
    ----------
    left : ndarray, shape (n_rows, r_l)
    core : ndarray, shape (r_l, r_r)
    right : ndarray, shape (n_cols, r_r)

    The outputs of :func:`truncate` have orthonormal ``left`` and ``right``
    and a diagonal core. The zero matrix is represented with zero-width
    factors; see :meth:`zeros`.
    """

    left: np.ndarray
    core: np.ndarray
    right: np.ndarray

    def __post_init__(self):
        left = np.atleast_2d(np.asarray(self.left, dtype=float))
        core = np.atleast_2d(np.asarray(self.core, dtype=float))
        right = np.atleast_2d(np.asarray(self.right, dtype=float))
        object.__setattr__(self, "left", left)
        object.__setattr__(self, "core", core)
        object.__setattr__(self, "right", right)
        if left.shape[1] != core.shape[0] or right.shape[1] != core.shape[1]:
            raise ShapeError(
                f"factors do not conform: left {left.shape}, core {core.shape}, "
                f"right {right.shape}"
            )

    @classmethod
    def zeros(cls, n_rows: int, n_cols: int) -> "LowRankMatrix":
        """Canonical zero matrix with zero-width factors."""
        return cls(np.zeros((n_rows, 0)), np.zeros((0, 0)), np.zeros((n_cols, 0)))

    @classmethod
    def from_dense(cls, dense: np.ndarray) -> "LowRankMatrix":
        """Factor a dense matrix through its SVD, dropping zero singular values."""
        dense = np.atleast_2d(np.asarray(dense, dtype=float))
        u, s, vt = sla.svd(dense, full_matrices=False)
        if s.size == 0 or s[0] == 0.0:
            return cls.zeros(*dense.shape)
        keep = int(np.count_nonzero(s))
        return cls(u[:, :keep], np.diag(s[:keep]), vt[:keep].T)

    @property
    def shape(self) -> tuple[int, int]:
        return (self.left.shape[0], self.right.shape[0])

    @property
    def rank(self) -> int:
        """Width of the factorization (an upper bound on the matrix rank)."""
        return min(self.left.shape[1], self.right.shape[1])

    @property
    def is_zero(self) -> bool:
        return self.left.shape[1] == 0 or self.right.shape[1] == 0

    def densify(self, max_entries: int = DENSIFY_CAP) -> np.ndarray:
        """Form the represented matrix densely.

        Refuses when ``n_rows * n_cols`` exceeds ``max_entries``; large
        iterates must stay factored.
        """
        n_rows, n_cols = self.shape
        if n_rows * n_cols > max_entries:
            raise ValueError(
                f"refusing to densify a {n_rows} x {n_cols} matrix "
                f"({n_rows * n_cols} entries > cap {max_entries})"
            )
        return self.left @ self.core @ self.right.T

    def norm_fro(self) -> float:
        """Frobenius norm, computed from the factors only.

        The factors are compressed to the triangles of their skinny QR
        first, which avoids the cancellation a Gram-product evaluation would
        suffer; BLAS ``nrm2`` then scales the small product instead of squaring it.
        """
        rl = householder_qr(self.left)[0]
        rr = householder_qr(self.right)[0]
        return float(sla.norm((rl @ self.core @ rr.T).ravel(), check_finite=False))


def select_rank(sigma: np.ndarray, cfg: TruncationConfig) -> int:
    """Number of singular values kept by the truncation rule.

    Keeps the longest prefix with ``sigma_j / sigma_1 > toltrank``, capped
    at ``cfg.maxrank``. An all-zero spectrum keeps nothing.
    """
    if sigma.size == 0 or sigma[0] <= 0.0:
        return 0
    keep = int(np.count_nonzero(sigma / sigma[0] > cfg.toltrank))
    return min(cfg.maxrank, keep)


def householder_qr(f: np.ndarray) -> tuple:
    """``(R, u -> Q @ u)`` of ``f = Q R`` by LAPACK's compact-WY QR, ``geqrt``.

    ``R`` is the ``min(m, n) x n`` upper trapezoid, with ``geqrf``'s sign
    rule. The map holds the Householder reflectors and the block triangles
    ``T``, never ``f``, and applies them with ``gemqrt``; a caller that needs
    only ``R`` drops it. Raises :class:`NonFiniteError`, a ``ValueError``,
    when ``f`` holds inf or NaN.
    """
    f = np.asarray(f, dtype=float)
    if not np.isfinite(f).all():
        raise NonFiniteError("a factor holds inf or NaN")
    (n_rows, n_cols), k = f.shape, min(f.shape)
    if k == 0:
        return np.zeros((0, n_cols)), lambda u: np.zeros((n_rows, u.shape[1]))
    a, t, _ = dgeqrt(min(_QR_BLOCK, k), f)
    reflectors = a[:, :k]

    def to_basis(u: np.ndarray) -> np.ndarray:
        c = np.zeros((n_rows, u.shape[1]), order="F")
        c[: u.shape[0]] = u
        return dgemqrt(reflectors, t, c, overwrite_c=1)[0]

    return np.triu(a[:k]), to_basis


def truncated_svd(left: np.ndarray, core: np.ndarray, right: np.ndarray,
                  cfg: TruncationConfig, sides: tuple = (None, None),
                  ) -> tuple[LowRankMatrix, np.ndarray]:
    """The compression kernel: truncation of ``left @ core @ right.T``.

    Each factor ``F`` is reduced to a pair ``(R, u -> K @ u)`` with
    ``F = K @ R``: by :func:`householder_qr`, or by the caller's entry in
    ``sides`` (a sketched QR). One SVD of ``R_l @ core @ R_r.T`` and the
    rule of ``cfg`` pick the kept singular vectors, and only those are
    mapped through ``K``.

    Returns the truncated matrix (diagonal core; orthonormal factors when
    both sides are exact) and the full singular-value vector of the
    compressed core, whose norm is then the norm of the input. Raises
    :class:`NonFiniteError` when a factor holds inf or NaN, and with one
    message when the core product or its singular values do: which of the
    two overflows first on finite factors depends on rounding.
    """
    n_rows, n_cols = left.shape[0], right.shape[0]
    if left.shape[1] == 0 or right.shape[1] == 0:
        return LowRankMatrix.zeros(n_rows, n_cols), np.zeros(0)
    r_l, to_left = sides[0] or householder_qr(left)
    r_r, to_right = sides[1] or householder_qr(right)
    small = r_l @ core @ r_r.T
    if not np.isfinite(small).all():
        raise NonFiniteError("the compressed core is not finite")
    u, sigma, vt = sla.svd(small, full_matrices=False)
    if not np.isfinite(sigma).all():  # a finite product can have an overflowing norm
        raise NonFiniteError("the compressed core is not finite")
    rank = select_rank(sigma, cfg)
    if rank == 0:
        return LowRankMatrix.zeros(n_rows, n_cols), sigma
    out = LowRankMatrix(to_left(u[:, :rank]), np.diag(sigma[:rank]), to_right(vt[:rank].T))
    return out, sigma


def gaussian_sample(seed: int, n_cols: int, width: int) -> np.ndarray:
    """The range finder's Gaussian test matrix, ``n_cols x width`` and
    Fortran-ordered, drawn from ``seed`` on a stream neither sketch uses."""
    rng = np.random.default_rng(np.random.SeedSequence(seed, spawn_key=(0,)))
    return rng.standard_normal((width, n_cols)).T


def truncate(m: LowRankMatrix, cfg: TruncationConfig,
             sample: Callable[[int, int], np.ndarray] | None = None) -> LowRankMatrix:
    """Rank-truncate a factored matrix.

    Without ``sample`` this is the exact compression kernel: the Frobenius
    truncation error equals the norm of the discarded singular values. A
    numerically zero input yields the canonical zero matrix.

    ``sample(n_cols, l)`` returns an ``n_cols x l`` test matrix ``omega``,
    typically :func:`gaussian_sample` with its seed bound, and ``truncate``
    alone picks ``l = cfg.maxrank + OVERSAMPLING``. It calls ``sample`` at
    most once, and only when ``l`` is below the input's width and both its
    dimensions; otherwise the exact kernel runs. The input ``Z = L C R^T``
    is then first compressed to the range of its sample ``Y = Z omega``:
    ``Q`` from the QR of ``Y`` and ``B^T = R (C^T (L^T Q))`` give
    ``Z ~ Q B``, and the kernel truncates ``Q B`` with ``Q`` as an exact
    side. That costs ``O(n width l)`` instead of ``O(n width^2)``; the
    extra error is that of the sample's range, small when the spectrum
    decays past ``cfg.maxrank``. No power step is taken. The output has
    orthonormal factors either way. The four tall products run on scipy's
    BLAS, which keeps its threads inside a solve (see :mod:`mteq._blas`).
    A non-finite input raises :class:`NonFiniteError`; the range finder
    finds it in ``Y`` and never scans the factors.
    """
    width = cfg.maxrank + OVERSAMPLING
    if sample is None or width >= min(*m.core.shape, *m.shape):
        return truncated_svd(m.left, m.core, m.right, cfg)[0]
    eye = np.eye(width)
    omega = sample(m.shape[1], width)
    y = dgemm(1.0, m.left, m.core @ dgemm(1.0, m.right, omega, trans_a=1))
    q = householder_qr(y)[1](eye)
    bt = dgemm(1.0, m.right, m.core.T @ dgemm(1.0, m.left, q, trans_a=1))
    return truncated_svd(q, eye, bt, cfg, sides=((eye, lambda u: dgemm(1.0, q, u)), None))[0]


def factored_sum(
    x: LowRankMatrix, p: LowRankMatrix, coeff_core: np.ndarray
) -> LowRankMatrix:
    """Un-truncated factored form of ``x + p.left @ coeff_core @ p.right.T``.

    Stacks the factors and block-diagonalizes the cores; no arithmetic on
    the large dimensions is performed. ``coeff_core`` must conform to the
    inner dimensions of ``p``.
    """
    if x.shape != p.shape:
        raise ShapeError(f"outer dimensions differ: {x.shape} vs {p.shape}")
    coeff_core = np.atleast_2d(np.asarray(coeff_core, dtype=float))
    if coeff_core.shape != (p.left.shape[1], p.right.shape[1]):
        raise ShapeError(
            f"coefficient core {coeff_core.shape} does not conform to "
            f"direction factors ({p.left.shape[1]}, {p.right.shape[1]})"
        )
    return LowRankMatrix(
        np.hstack([x.left, p.left]),
        sla.block_diag(x.core, coeff_core),
        np.hstack([x.right, p.right]),
    )
