"""The multiterm matrix operator, its adjoint, and factored residuals.

The equation is ``A_1 X B_1 + ... + A_p X B_p = C @ D.T`` with large sparse
coefficient pairs and a tall low-rank right-hand side. Everything here acts
on :class:`~mteq.lowrank.LowRankMatrix` operands factor-wise; the large
dimensions are only ever touched through sparse-times-tall-dense products.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
import scipy.linalg as sla
import scipy.sparse as sp

from .lowrank import LowRankMatrix, ShapeError


def _check_finite(m, name: str) -> None:
    values = m.data if sp.issparse(m) else np.asarray(m)
    if not np.isfinite(values).all():
        raise ValueError(f"{name} has non-finite entries (inf or NaN)")


def _coefficient(m, name: str):
    """A checked coefficient, CSR if sparse. The shape is checked first, so
    a malformed sparse coefficient is named before ``tocsr`` sees it."""
    if m.ndim != 2 or m.shape[0] != m.shape[1]:
        raise ShapeError(f"{name} must be square, got shape {m.shape}")
    m = m.tocsr() if sp.issparse(m) else m
    _check_finite(m, name)
    return m


def _rhs_factor(m) -> np.ndarray:
    """A right-hand-side factor as a dense float array. It has only ``q``
    columns, so a sparse one costs little to densify."""
    return np.atleast_2d(np.asarray(m.toarray() if sp.issparse(m) else m, dtype=float))


@dataclass(frozen=True)
class MultitermEquation:
    """Coefficient pairs ``(A_i, B_i)`` and right-hand-side factors ``C, D``.

    ``terms`` is a list of ``p >= 1`` pairs of square matrices (sparse or
    dense); all left coefficients share the dimension ``n_A`` and all right
    coefficients share ``n_B``. A sparse coefficient is stored as CSR, the
    format every product and factorization runs on (a CSR one as the same
    object); a dense one stays dense and keeps its BLAS products. ``C`` is
    ``n_A x q`` and ``D`` is ``n_B x q`` with small ``q``, dense or sparse
    on entry and stored as dense float arrays. A ``ValueError``
    naming the factor is raised when any stored entry is infinite or NaN.
    """

    terms: tuple
    C: np.ndarray
    D: np.ndarray

    def __post_init__(self):
        terms = tuple((_coefficient(a, f"A_{i + 1}"), _coefficient(b, f"B_{i + 1}"))
                      for i, (a, b) in enumerate(self.terms))
        if len(terms) < 1:
            raise ValueError("at least one coefficient pair is required")
        object.__setattr__(self, "terms", terms)
        object.__setattr__(self, "C", _rhs_factor(self.C))
        object.__setattr__(self, "D", _rhs_factor(self.D))
        n_a = terms[0][0].shape[0]
        n_b = terms[0][1].shape[0]
        for i, (a, b) in enumerate(terms):
            if a.shape[0] != n_a or b.shape[0] != n_b:
                raise ShapeError(
                    f"term {i + 1} has shapes {a.shape}, {b.shape}; expected "
                    f"({n_a}, {n_a}), ({n_b}, {n_b})"
                )
        if self.C.shape[0] != n_a or self.D.shape[0] != n_b:
            raise ShapeError(
                f"right-hand-side factors have shapes {self.C.shape}, "
                f"{self.D.shape}; expected leading dimensions {n_a}, {n_b}"
            )
        if self.C.shape[1] != self.D.shape[1]:
            raise ShapeError("C and D must have the same number of columns")
        _check_finite(self.C, "C")
        _check_finite(self.D, "D")

    @property
    def p(self) -> int:
        return len(self.terms)

    @property
    def q(self) -> int:
        return self.C.shape[1]

    @property
    def n_A(self) -> int:
        return self.terms[0][0].shape[0]

    @property
    def n_B(self) -> int:
        return self.terms[0][1].shape[0]

    def rhs_lowrank(self) -> LowRankMatrix:
        """The right-hand side ``C @ D.T`` as a factored matrix."""
        return LowRankMatrix(self.C, np.eye(self.q), self.D)

    def rhs_norm(self) -> float:
        """``||C @ D.T||_F``, by :meth:`LowRankMatrix.norm_fro` of the factors."""
        return self.rhs_lowrank().norm_fro()


def _stack(mats, v: np.ndarray, n: int, out: np.ndarray | None) -> np.ndarray:
    """``[M_1 v, ..., M_p v]``, written into ``out`` (allocated when ``None``)."""
    k = v.shape[1]
    if out is None:
        out = np.empty((n, len(mats) * k))
    if k > 0:
        for i, m in enumerate(mats):
            out[:, i * k:(i + 1) * k] = m @ v
    return out


def left_stack(eq: MultitermEquation, v: np.ndarray, out: np.ndarray | None = None
               ) -> np.ndarray:
    """Stack of per-term products ``[A_1 v, ..., A_p v]``, into ``out`` if given."""
    return _stack([a for a, _ in eq.terms], v, eq.n_A, out)


def right_stack(eq: MultitermEquation, v: np.ndarray, out: np.ndarray | None = None
                ) -> np.ndarray:
    """Stack of per-term products ``[B_1.T v, ..., B_p.T v]``, into ``out`` if given."""
    return _stack([b.T for _, b in eq.terms], v, eq.n_B, out)


def _check_operand(eq: MultitermEquation, x: LowRankMatrix) -> None:
    if x.shape != (eq.n_A, eq.n_B):
        raise ShapeError(
            f"operand has shape {x.shape}, equation expects ({eq.n_A}, {eq.n_B})"
        )


def apply_L(eq: MultitermEquation, x: LowRankMatrix) -> LowRankMatrix:
    """Apply ``X -> sum_i A_i X B_i`` in factored form.

    The inner width grows by exactly a factor ``p``; no truncation and no
    densification happen here.
    """
    _check_operand(eq, x)
    return LowRankMatrix(
        left_stack(eq, x.left),
        np.kron(np.eye(eq.p), x.core),
        right_stack(eq, x.right),
    )


def apply_Lstar(eq: MultitermEquation, x: LowRankMatrix) -> LowRankMatrix:
    """Apply the Frobenius adjoint ``X -> sum_i A_i.T X B_i.T`` in factored form."""
    _check_operand(eq, x)
    return LowRankMatrix(
        _stack([a.T for a, _ in eq.terms], x.left, eq.n_A, None),
        np.kron(np.eye(eq.p), x.core),
        _stack([b for _, b in eq.terms], x.right, eq.n_B, None),
    )


def residual_factored(eq: MultitermEquation, x: LowRankMatrix) -> LowRankMatrix:
    """Factored residual ``C @ D.T - sum_i A_i X B_i``, un-truncated.

    The left factor is ``[C, A_1 x.left, ..., A_p x.left]``, the right
    factor is ``[D, B_1.T x.right, ..., B_p.T x.right]`` and the core is
    ``blkdiag(I_q, -I_p (x) x.core)``. Truncation is the caller's business.
    """
    _check_operand(eq, x)
    core = sla.block_diag(np.eye(eq.q), -np.kron(np.eye(eq.p), x.core))
    left = np.empty((eq.n_A, eq.q + eq.p * x.left.shape[1]))
    right = np.empty((eq.n_B, eq.q + eq.p * x.right.shape[1]))
    # Each factor is allocated once: C (or D) and the per-term products are
    # written straight into it, with no intermediate stack to copy.
    left[:, :eq.q] = eq.C
    right[:, :eq.q] = eq.D
    left_stack(eq, x.left, out=left[:, eq.q:])
    right_stack(eq, x.right, out=right[:, eq.q:])
    return LowRankMatrix(left, core, right)

