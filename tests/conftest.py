"""Shared builders for random test equations."""

from __future__ import annotations

import itertools

import numpy as np
import scipy.sparse as sp

from mteq import ConvDiffSpec, LowRankMatrix, MultitermEquation, build_convdiff


def random_spd(rng, n, spread=(1.0, 2.0)):
    """Symmetric matrix with eigenvalues drawn uniformly from ``spread``."""
    q = np.linalg.qr(rng.standard_normal((n, n)))[0]
    lam = rng.uniform(*spread, size=n)
    return (q * lam) @ q.T


def perturbation(rng, n, scale):
    """Random square matrix with spectral norm exactly ``scale``."""
    m = rng.standard_normal((n, n))
    return scale * m / np.linalg.norm(m, 2)


def random_posdef_equation(rng, n_a, n_b, p, q, nonsym=0.15):
    """Random equation whose vectorized operator is positive definite.

    Each coefficient is a dominant symmetric positive definite part plus a
    nonsymmetric perturbation of spectral norm ``nonsym``, which keeps the
    symmetric part of the Kronecker sum positive definite.
    """
    terms = []
    for _ in range(p):
        a = random_spd(rng, n_a) + perturbation(rng, n_a, nonsym)
        b = random_spd(rng, n_b) + perturbation(rng, n_b, nonsym)
        terms.append((sp.csr_matrix(a), sp.csr_matrix(b)))
    c = rng.standard_normal((n_a, q))
    d = rng.standard_normal((n_b, q))
    return MultitermEquation(terms=terms, C=c, D=d)


def manufactured_equation(rng, n_a, n_b, p, nonsym=0.5):
    """Equation with the known solution ``X* = X_l @ X_r.T``; returns ``(eq, X*)``.

    Terms 0 and 1 are ``(A, I)`` and ``(I, B)`` with symmetric tridiagonal
    ``A`` and ``B`` whose diagonals lie in ``[3, 5]`` and off-diagonals are
    ``-1``, so both are positive definite with every eigenvalue above 1.
    Each of the ``p - 2`` further terms is a pair of random nonsymmetric
    matrices of spectral norm ``nonsym``, small against that margin.
    ``C = [A_1 X_l, ..., A_p X_l]`` and ``D = [B_1.T X_r, ..., B_p.T X_r]``,
    so ``C @ D.T = L(X*)``. ``X*`` has full rank ``min(n_a, n_b)``: at a
    lower rank ``k`` with ``p k <= min(n_a, n_b)`` the range of ``C @ D.T``
    would be that of ``C``, which holds ``X_l`` (term 1's ``A`` is ``I``),
    and the first step would find ``X*`` exactly.
    """
    def definite(n):
        return sp.diags([-np.ones(n - 1), rng.uniform(3.0, 5.0, n), -np.ones(n - 1)],
                        [-1, 0, 1], shape=(n, n), format="csr")

    terms = [(definite(n_a), sp.identity(n_b, format="csr")),
             (sp.identity(n_a, format="csr"), definite(n_b))]
    terms += [(sp.csr_matrix(perturbation(rng, n_a, nonsym)),
               sp.csr_matrix(perturbation(rng, n_b, nonsym))) for _ in range(p - 2)]
    k = min(n_a, n_b)
    x_l, x_r = rng.standard_normal((n_a, k)), rng.standard_normal((n_b, k))
    c = np.hstack([a @ x_l for a, _ in terms])
    d = np.hstack([b.T @ x_r for _, b in terms])
    return MultitermEquation(terms=terms, C=c, D=d), x_l @ x_r.T


def transposed(eq):
    """The equation ``L(X).T = D @ C.T`` for ``X.T``: every ``(A_i, B_i)``
    becomes ``(B_i.T, A_i.T)`` and ``C`` and ``D`` swap."""
    return MultitermEquation(terms=[(b.T, a.T) for a, b in eq.terms], C=eq.D, D=eq.C)


def random_lowrank(rng, n_rows, n_cols, rank):
    """Random factored matrix of the given width."""
    return LowRankMatrix(
        rng.standard_normal((n_rows, rank)),
        rng.standard_normal((rank, rank)),
        rng.standard_normal((n_cols, rank)),
    )


def direction(p_l, p_r):
    """The direction ``p_l @ I @ p_r.T`` of two factor arrays of equal width."""
    return LowRankMatrix(p_l, np.eye(p_l.shape[1]), p_r)


def _patch_step_coefficients(monkeypatch, replace):
    """Return ``replace(k, coeff)`` from the solver's ``k``-th projected solve (1-based)."""
    import mteq.solver
    from mteq.reduced import solve_reduced

    calls = []

    def patched(sys, rhs):
        coeff, info = solve_reduced(sys, rhs)
        calls.append(coeff)
        return replace(len(calls), coeff), info

    monkeypatch.setattr(mteq.solver, "solve_reduced", patched)


def vanish_first_steps(monkeypatch, count):
    """Make the solver's first ``count`` projected solves return zero
    coefficients, every one of them at ``count = np.inf``."""
    _patch_step_coefficients(
        monkeypatch, lambda k, coeff: np.zeros_like(coeff) if k <= count else coeff)


def poison_step(monkeypatch, call):
    """Make the solver's ``call``-th projected solve (1-based) return a NaN coefficient.

    For ``ss_gcr1`` the odd calls solve for ``alpha`` and the even ones for
    ``beta``, so this drives the breakdown path of either coefficient.
    """
    _patch_step_coefficients(
        monkeypatch, lambda k, coeff: np.full_like(coeff, np.nan) if k == call else coeff)


def overflow_step(monkeypatch, call):
    """Make the solver's ``call``-th projected solve (1-based) return a finite
    coefficient whose every entry is 1.7e308, so the update it makes overflows."""
    _patch_step_coefficients(
        monkeypatch, lambda k, coeff: np.full_like(coeff, 1.7e308) if k == call else coeff)


def overflowing_convdiff(n=34):
    """Convdiff with every ``A_i`` scaled by 1e160: the Gram products of the
    first direction's operator images overflow to inf, the right-hand side
    and the initial residual stay finite."""
    eq = build_convdiff(ConvDiffSpec(n=n, eps=0.1))
    return MultitermEquation(terms=[(1e160 * a, b) for a, b in eq.terms], C=eq.C, D=eq.D)


def overflowing_kron_convdiff(n=34):
    """Convdiff with every ``A_i`` and ``B_i`` scaled by 1e80: the projected
    Gram tables stay finite, their Kronecker products overflow."""
    eq = build_convdiff(ConvDiffSpec(n=n, eps=0.1))
    return MultitermEquation(terms=[(1e80 * a, 1e80 * b) for a, b in eq.terms],
                             C=eq.C, D=eq.D)


def overflowing_beta_convdiff(n=34):
    """Convdiff with every ``A_i``, ``C`` and ``D`` scaled by 1e100: every
    ``alpha`` stays finite, but the right-hand side of ``beta`` overflows."""
    eq = build_convdiff(ConvDiffSpec(n=n, eps=0.1))
    return MultitermEquation(terms=[(1e100 * a, b) for a, b in eq.terms],
                             C=1e100 * eq.C, D=1e100 * eq.D)


def scaled_rhs_convdiff(scale, n=34):
    """Convdiff with ``C`` and ``D`` each scaled by ``scale``."""
    eq = build_convdiff(ConvDiffSpec(n=n, eps=0.1))
    return MultitermEquation(terms=eq.terms, C=scale * eq.C, D=scale * eq.D)


def overflowing_rhs_convdiff(n=34):
    """Convdiff with ``C`` and ``D`` each scaled by 1e160: the factors stay
    finite, but the compressed core of the initial residual overflows."""
    return scaled_rhs_convdiff(1e160, n)


def poison_preconditioner(monkeypatch, call):
    """Make the ``call``-th ADI application (1-based) return a NaN in its left factor."""
    from mteq.precond import TwoTermAdiPreconditioner

    apply, calls = TwoTermAdiPreconditioner.apply, itertools.count(1)

    def patched(self, r):
        z = apply(self, r)
        if next(calls) == call:
            z.left[0, 0] = np.nan
        return z

    monkeypatch.setattr(TwoTermAdiPreconditioner, "apply", patched)
