"""Projected small systems defining the recurrence step coefficients.

Projecting the normal equations of the residual minimization onto the
current direction pair ``(P_l, P_r)`` yields a matrix equation whose
coefficient operator has ``p**2`` terms built from small Gram blocks:

    sum_ij (P_l.T A_i.T A_j P_l) @ coeff @ (P_r.T B_j B_i.T P_r) = rhs.

Its vectorized coefficient matrix is symmetric positive (semi)definite, so
small instances are solved by Cholesky on the assembled Kronecker sum and
larger ones by SciPy's preconditioned CG on the matrix-form action, which
never assembles it. The path threshold and the PCG budget are module
constants, read when a system is built or solved.
"""

from __future__ import annotations

import numbers
import warnings
from collections.abc import Callable
from dataclasses import dataclass, field
from functools import partial

import numpy as np
import scipy.linalg as sla
import scipy.sparse.linalg as spla

from .lowrank import LowRankMatrix
from .operator import MultitermEquation, apply_L, left_stack, right_stack


#: The assembled (direct Cholesky) path is taken while ``q_k**2`` stays
#: below this; larger projected systems run matrix-form PCG.
DIRECT_THRESHOLD = 4000
#: PCG stops once its residual falls below ``PCG_TOL`` relative to the
#: right-hand side, or after ``PCG_MAXIT`` iterations.
PCG_TOL = 1e-4
PCG_MAXIT = 200


@dataclass(frozen=True)
class InnerSolveConfig:
    """Preconditioning of the PCG projected solves.

    ``inner_precond_terms`` designates the two leading terms whose diagonal
    Gram blocks precondition PCG, stored as a tuple; ``None`` means no
    preconditioning.
    """

    inner_precond_terms: tuple[int, int] | None = None

    def __post_init__(self):
        if self.inner_precond_terms is not None:
            terms = tuple(self.inner_precond_terms)
            object.__setattr__(self, "inner_precond_terms", terms)
            if len(terms) != 2 or not all(isinstance(t, numbers.Integral) for t in terms):
                raise ValueError(
                    f"inner_precond_terms takes two term indices (integers), got {terms!r}")


@dataclass(frozen=True)
class ReducedSystem:
    """One projected system, ready to solve when it is built.

    ``left_grams[i, j] = P_l.T A_i.T A_j P_l`` and
    ``right_grams[i, j] = P_r.T B_i B_j.T P_r``, each ``q_k x q_k``, stored
    row index first for copy-free GEMMs. Construction chooses the path,
    ``"direct"`` while ``q_k**2 < DIRECT_THRESHOLD`` and ``"pcg"``
    otherwise, and prepares it: the direct path factors the assembled
    matrix, the PCG path builds the inner preconditioner of
    ``cfg.inner_precond_terms``. :func:`solve_reduced` then solves for any
    number of right-hand sides without further set-up. A non-finite Gram
    table, from an overflowing operator image, or a non-finite assembled
    matrix, from finite tables whose products overflow, raises
    ``FloatingPointError`` before anything is factored.
    """

    left_grams: np.ndarray
    right_grams: np.ndarray
    cfg: InnerSolveConfig = field(default_factory=InnerSolveConfig)
    path: str = field(init=False)
    #: Whether the direct factor needed the diagonal floor.
    regularized: bool = field(init=False)
    #: Direct path: the exact inverse of the system on a ``q_k x q_k``
    #: right-hand side. PCG path: the inner preconditioner, or ``None``.
    _inverse: Callable[[np.ndarray], np.ndarray] | None = field(
        init=False, repr=False, compare=False)

    def __post_init__(self):
        if not (np.isfinite(self.left_grams).all() and np.isfinite(self.right_grams).all()):
            raise FloatingPointError("projected Gram table is not finite")
        qk = self.q_k
        path = "direct" if qk * qk < DIRECT_THRESHOLD else "pcg"
        inverse, regularized = None, False
        if qk and path == "direct":
            solve, regularized = self._factor()
            inverse = lambda rhs: solve(  # noqa: E731
                rhs.flatten(order="F")).reshape((qk, qk), order="F")
        elif qk and self.cfg.inner_precond_terms is not None:
            try:
                inverse = _sylvester_inverse(self, self.cfg.inner_precond_terms)
            except np.linalg.LinAlgError:
                warnings.warn(
                    "inner preconditioner setup failed; running unpreconditioned CG",
                    RuntimeWarning,
                )
        object.__setattr__(self, "path", path)
        object.__setattr__(self, "regularized", regularized)
        object.__setattr__(self, "_inverse", inverse)

    @property
    def q_k(self) -> int:
        return self.left_grams.shape[2]

    def _stacks(self) -> tuple[np.ndarray, np.ndarray]:
        """Both tables as ``stack[a, i*p + j, c] = grams[i, j, a, c]``."""
        qk = self.q_k
        return tuple(g.transpose(2, 0, 1, 3).reshape(qk, -1, qk)
                     for g in (self.left_grams, self.right_grams))

    def assemble(self) -> np.ndarray:
        """Dense ``q_k**2 x q_k**2`` Kronecker-sum coefficient matrix.

        ``sum_ij kron(right_grams[i,j], left_grams[i,j])``, written by a
        batched GEMM over the ``p**2`` block pairs straight into its layout.
        """
        qk = self.q_k
        lg, rg = self._stacks()
        t = np.empty((qk, qk, qk, qk))
        np.matmul(rg.transpose(0, 2, 1)[:, None], lg[None], out=t)
        return t.reshape(qk * qk, qk * qk)

    def apply(self, coeff: np.ndarray) -> np.ndarray:
        """Matrix-form action ``sum_ij left_grams[i,j] @ coeff @ right_grams[i,j].T``."""
        qk = self.q_k
        lg, rg = self._stacks()
        tmp = lg.reshape(-1, qk) @ coeff
        return tmp.reshape(qk, -1) @ rg.reshape(qk, -1).T

    def _factor(self) -> tuple:
        """``(solve, regularized)`` for the assembled system; ``solve`` maps a
        right-hand side, vectorized column-major, to the solution.

        Cholesky of :meth:`assemble`; if that fails, Cholesky with a small
        diagonal floor added; if that fails too, an eigendecomposition with
        the eigenvalues clipped at the floor.
        """
        qk = self.q_k
        t = self.assemble()
        if not np.isfinite(t).all():
            raise FloatingPointError("assembled projected system is not finite")
        floor = 1e-14 * np.trace(t) / (qk * qk)
        try:
            # t is symmetric: LAPACK factors its Fortran-ordered view in place.
            return _cholesky_solve(t.T, overwrite_a=True), False
        except np.linalg.LinAlgError:
            warnings.warn(
                "projected coefficient matrix is numerically singular; "
                f"added a diagonal floor of {floor:.3e}",
                RuntimeWarning,
            )
        t = self.assemble()
        t[np.diag_indices_from(t)] += floor
        try:
            return _cholesky_solve(t), True
        except np.linalg.LinAlgError:
            lam, vecs = sla.eigh(t)
            lam = np.maximum(lam, floor)
            return (lambda b: vecs @ ((vecs.T @ b) / lam)), True


def _cholesky_solve(t: np.ndarray, overwrite_a: bool = False):
    """Solver of ``t``'s Cholesky factor. Neither step scans for inf or NaN:
    ``t`` is checked once, and a non-finite right-hand side gives a
    non-finite solution, which the caller checks."""
    factor = sla.cho_factor(t, overwrite_a=overwrite_a, check_finite=False)
    return partial(sla.cho_solve, factor, check_finite=False)


def build_reduced(eq: MultitermEquation, p: LowRankMatrix,
                  cfg: InnerSolveConfig = InnerSolveConfig()) -> ReducedSystem:
    """The projected system of the direction ``p = P_l @ core @ P_r.T``.

    Only the factors ``P_l`` and ``P_r`` enter. Both Gram tables come from
    a single Gram product of the stacked per-term images, so the cost is
    one tall skinny syrk per side. The system is prepared for its path
    under ``cfg``.
    """
    eq_p, qk = eq.p, p.left.shape[1]
    stacks = [(g.T @ g).reshape(eq_p, qk, eq_p, qk).transpose(1, 0, 2, 3).copy()
              for g in (left_stack(eq, p.left), right_stack(eq, p.right))]
    left, right = (s.transpose(1, 2, 0, 3) for s in stacks)
    return ReducedSystem(left, right, cfg)


def alpha_rhs(eq: MultitermEquation, p: LowRankMatrix, r: LowRankMatrix) -> np.ndarray:
    """Right-hand side of the residual-minimizing step along ``p``.

    It is the projected adjoint ``P_l.T @ (sum_i A_i.T R B_i.T) @ P_r``,
    evaluated factor-wise as ``G_l.T @ G_r`` on the ``(rank p) x q_k``
    stacks ``G_l = R_l.T [A_1 P_l, ...]`` and
    ``G_r = core R_r.T [B_1.T P_r, ...]``.
    """
    qk = p.left.shape[1]
    if r.is_zero or qk == 0:
        return np.zeros((qk, p.right.shape[1]))
    g_l = r.left.T @ left_stack(eq, p.left)
    g_r = r.core @ (r.right.T @ right_stack(eq, p.right))
    return g_l.reshape(-1, qk).T @ g_r.reshape(-1, qk)


def beta_rhs(eq: MultitermEquation, p: LowRankMatrix, z: LowRankMatrix) -> np.ndarray:
    """Right-hand side enforcing operator-image orthogonality of consecutive directions.

    ``z`` is the (preconditioned) new residual; the result is the negated
    projected adjoint of its operator image onto the direction ``p``.
    """
    return -alpha_rhs(eq, p, apply_L(eq, z))


def _vectorized(apply, qk: int) -> spla.LinearOperator:
    """A matrix-form map of ``q_k x q_k`` arrays as an operator on their row-major vectors."""
    return spla.LinearOperator((qk * qk, qk * qk), dtype=float,
                               matvec=lambda v: apply(v.reshape(qk, qk)).ravel())


def _sylvester_inverse(sys: ReducedSystem, terms: tuple[int, int]):
    """Inverse of ``L_a coeff R_a + L_b coeff R_b``, two diagonal Gram pairs.

    Generalized eigendecompositions diagonalize both sides, so each
    application is two small dense products and an elementwise division.
    """
    i, j = terms
    lam_a, v = sla.eigh(sys.left_grams[i, i], sys.left_grams[j, j])
    lam_b, w = sla.eigh(sys.right_grams[j, j], sys.right_grams[i, i])
    denom = lam_a[:, None] + lam_b[None, :]
    floor = 1e-14 * max(float(np.max(np.abs(denom))), 1.0)
    denom = np.where(denom > floor, denom, floor)

    def apply(f: np.ndarray) -> np.ndarray:
        g = v.T @ f @ w
        return v @ (g / denom) @ w.T

    return apply


@np.errstate(over="ignore", invalid="ignore")  # non-finite values are checked, not warned
def solve_reduced(sys: ReducedSystem, rhs: np.ndarray) -> tuple[np.ndarray, dict]:
    """Solve the projected system for the ``q_k x q_k`` step coefficient.

    Parameters
    ----------
    sys : ReducedSystem
        The system of the direction, from :func:`build_reduced`.
    rhs : ndarray, shape (q_k, q_k)
        Right-hand side, from :func:`alpha_rhs` or :func:`beta_rhs`.

    Returns
    -------
    coeff : ndarray, shape (q_k, q_k)
    info : dict
        ``path`` ("direct" or "pcg"), ``pcg_iters``, ``converged`` and
        ``regularized`` diagnostics.

    The PCG path runs :func:`scipy.sparse.linalg.cg` on the vectorized
    system, preconditioned by the inner preconditioner when there is one.
    Its inner products square the right-hand side's scale, so it runs on
    ``rhs * 2**-e``, ``2**e`` just above ``||rhs||_F``, and scales the result
    back; powers of two scale exactly, so nothing else changes. An iterate
    holding inf or NaN, from a right-hand side or system action that
    overflows, stops it at once with a ``FloatingPointError`` that names
    the step and carries the solve's ``info`` as its ``info`` attribute,
    so the steps it ran still count. numpy's overflow and invalid-value
    warnings are off for the call, as they are in :func:`mteq.solver.solve`:
    that error names a non-finite iterate, and the caller checks the
    coefficient.
    """
    qk = sys.q_k
    if sys.path == "direct":
        coeff = sys._inverse(rhs) if qk else np.zeros((0, 0))
        return coeff, {"path": "direct", "pcg_iters": None, "converged": True,
                       "regularized": sys.regularized}
    e = int(np.frexp(sla.norm(rhs.ravel(), check_finite=False))[1])
    info = {"path": "pcg", "pcg_iters": 0, "converged": False, "regularized": False}

    def step(iterate):  # cg calls it once per step
        info["pcg_iters"] += 1
        if not np.isfinite(iterate).all():
            err = FloatingPointError(f"inner PCG iterate {info['pcg_iters']} is not finite")
            err.info = info
            raise err

    coeff, status = spla.cg(
        _vectorized(sys.apply, qk), np.ldexp(rhs, -e).ravel(), rtol=PCG_TOL,
        maxiter=PCG_MAXIT, callback=step,
        M=None if sys._inverse is None else _vectorized(sys._inverse, qk))
    if status:
        warnings.warn(
            f"inner PCG did not reach tol {PCG_TOL:.1e} within "
            f"{PCG_MAXIT} iterations; returning the best iterate",
            RuntimeWarning,
        )
    info["converged"] = status == 0
    return np.ldexp(coeff.reshape(qk, qk), e), info
