"""Reference Kronecker solvers and spectral quantities."""

import numpy as np
import pytest
import scipy.sparse as sp

from mteq import MultitermEquation
from mteq.oracle import (
    KroneckerSystem,
    assemble_kron,
    direct_solve,
    spectral_quantities,
)

from conftest import random_posdef_equation


def test_assemble_identity():
    rng = np.random.default_rng(0)
    eye = sp.identity(6, format="csr")
    eq = MultitermEquation(terms=[(eye, eye)], C=rng.standard_normal((6, 1)),
                           D=rng.standard_normal((6, 1)))
    sys = assemble_kron(eq)
    np.testing.assert_allclose(sys.matrix, np.eye(36))
    np.testing.assert_allclose(sys.b, (eq.C @ eq.D.T).flatten(order="F"))


def test_assemble_symmetric_terms_gives_symmetric_matrix():
    rng = np.random.default_rng(1)
    terms = []
    for _ in range(2):
        a = rng.standard_normal((7, 7))
        b = rng.standard_normal((7, 7))
        terms.append((sp.csr_matrix(a + a.T), sp.csr_matrix(b + b.T)))
    eq = MultitermEquation(terms=terms, C=rng.standard_normal((7, 1)),
                           D=rng.standard_normal((7, 1)))
    sys = assemble_kron(eq)
    assert np.linalg.norm(sys.matrix - sys.matrix.T) <= 1e-14 * np.linalg.norm(sys.matrix)


def test_size_guard():
    rng = np.random.default_rng(2)
    eye = sp.identity(101, format="csr")
    eq = MultitermEquation(terms=[(eye, eye)], C=rng.standard_normal((101, 1)),
                           D=rng.standard_normal((101, 1)))
    with pytest.raises(ValueError):
        assemble_kron(eq)


def test_direct_solve_identity():
    rng = np.random.default_rng(3)
    eye = sp.identity(5, format="csr")
    eq = MultitermEquation(terms=[(eye, eye)], C=rng.standard_normal((5, 2)),
                           D=rng.standard_normal((5, 2)))
    x = direct_solve(assemble_kron(eq))
    np.testing.assert_allclose(x, eq.C @ eq.D.T, atol=1e-12)


def test_direct_solve_residual():
    rng = np.random.default_rng(4)
    eq = random_posdef_equation(rng, 12, 9, 3, 2)
    sys = assemble_kron(eq)
    x = direct_solve(sys)
    res = np.linalg.norm(sys.matrix @ x.flatten(order="F") - sys.b)
    assert res <= 1e-10 * np.linalg.norm(sys.b)


def test_spectral_quantities_known_matrices():
    sys = KroneckerSystem(np.eye(4), np.ones(4), 2, 2)
    assert spectral_quantities(sys) == pytest.approx((1.0, 1.0))
    sys = KroneckerSystem(np.diag([1.0, 2.0]), np.ones(2), 2, 1)
    assert spectral_quantities(sys) == pytest.approx((1.0, 2.0))


def test_spectral_quantities_ordering():
    rng = np.random.default_rng(8)
    for _ in range(5):
        m = rng.standard_normal((12, 12))
        m = m @ m.T + 0.5 * np.eye(12)
        sys = KroneckerSystem(m, rng.standard_normal(12), 12, 1)
        mu, nrm = spectral_quantities(sys)
        assert mu <= nrm + 1e-12
