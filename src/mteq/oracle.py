"""Desk-scale reference implementations used to validate the solvers.

Everything here builds the explicit Kronecker form of a small equation and
works on full vectors; a hard size guard keeps these paths out of any
large-scale run.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
import scipy.linalg as sla
import scipy.sparse as sp

from .operator import MultitermEquation

#: Largest admissible number of unknowns ``n_A * n_B`` for dense oracles.
SIZE_GUARD = 10_000


def _dense(m) -> np.ndarray:
    return m.toarray() if sp.issparse(m) else np.asarray(m, dtype=float)


@dataclass(frozen=True)
class KroneckerSystem:
    """Explicit vectorized form of a small multiterm equation."""

    matrix: np.ndarray
    b: np.ndarray
    n_A: int
    n_B: int


def assemble_kron(eq: MultitermEquation) -> KroneckerSystem:
    """Assemble ``sum_i kron(B_i.T, A_i)`` and ``vec(C @ D.T)`` densely."""
    n = eq.n_A * eq.n_B
    if n > SIZE_GUARD:
        raise ValueError(f"{n} unknowns exceed the dense-oracle guard {SIZE_GUARD}")
    mat = np.zeros((n, n))
    for a, b in eq.terms:
        mat += np.kron(_dense(b).T, _dense(a))
    rhs = (eq.C @ eq.D.T).flatten(order="F")
    return KroneckerSystem(mat, rhs, eq.n_A, eq.n_B)


def direct_solve(sys: KroneckerSystem) -> np.ndarray:
    """LU ground truth; returns the solution reshaped to ``n_A x n_B``."""
    x = sla.solve(sys.matrix, sys.b)
    return x.reshape((sys.n_A, sys.n_B), order="F")


def spectral_quantities(sys: KroneckerSystem) -> tuple[float, float]:
    """Smallest eigenvalue of the symmetric part, and the spectral norm."""
    mu = float(sla.eigvalsh(0.5 * (sys.matrix + sys.matrix.T))[0])
    nrm = float(sla.svdvals(sys.matrix)[0])
    return mu, nrm
