"""Operator application and factored residuals against the Kronecker oracle."""

import numpy as np
import pytest
import scipy.sparse as sp

from mteq import (
    ConvDiffSpec,
    LowRankMatrix,
    MultitermEquation,
    PreconditionerSpec,
    ShapeError,
    SolverConfig,
    apply_L,
    apply_Lstar,
    build_convdiff,
    residual_factored,
    solve,
    true_residual,
)
from mteq.oracle import assemble_kron, direct_solve

from conftest import random_lowrank, random_posdef_equation


def identity_equation(n, q=2, seed=0):
    rng = np.random.default_rng(seed)
    eye = sp.identity(n, format="csr")
    return MultitermEquation(
        terms=[(eye, eye)],
        C=rng.standard_normal((n, q)),
        D=rng.standard_normal((n, q)),
    )


def test_equation_validation():
    rng = np.random.default_rng(0)
    eye = sp.identity(4, format="csr")
    with pytest.raises(ValueError):
        MultitermEquation(terms=[], C=rng.standard_normal((4, 1)),
                          D=rng.standard_normal((4, 1)))
    with pytest.raises(ShapeError):
        MultitermEquation(
            terms=[(eye, sp.identity(5, format="csr")), (eye, eye)],
            C=rng.standard_normal((4, 1)),
            D=rng.standard_normal((4, 1)),
        )
    with pytest.raises(ShapeError):
        MultitermEquation(terms=[(eye, eye)], C=rng.standard_normal((4, 1)),
                          D=rng.standard_normal((4, 2)))


@pytest.mark.parametrize("bad", ["A_3", "B_1", "C", "D", "scaled"])
def test_non_finite_data_rejected(bad):
    rng = np.random.default_rng(0)
    eye = sp.identity(4, format="csr")
    terms = [(eye.copy(), np.eye(4)) for _ in range(3)]
    c, d = rng.standard_normal((4, 1)), rng.standard_normal((4, 1))
    if bad == "A_3":
        terms[2][0].data[1] = np.inf
    elif bad == "B_1":
        terms[0][1][2, 3] = np.nan
    elif bad == "C":
        c[3, 0] = -np.inf
    elif bad == "D":
        d[0, 0] = np.nan
    else:  # a scaling that overflows
        with np.errstate(over="ignore"):
            terms[1] = (eye * 1e308 * 10, np.eye(4))
    name = "A_2" if bad == "scaled" else bad
    with pytest.raises(ValueError, match=f"^{name} has non-finite entries"):
        MultitermEquation(terms=terms, C=c, D=d)


def test_identity_operator_application():
    eq = identity_equation(10)
    rng = np.random.default_rng(1)
    x = random_lowrank(rng, 10, 10, 3)
    np.testing.assert_allclose(apply_L(eq, x).densify(), x.densify(), atol=1e-12)


def test_apply_L_matches_kronecker_oracle():
    rng = np.random.default_rng(2)
    eq = random_posdef_equation(rng, 20, 20, 2, 2)
    sys = assemble_kron(eq)
    x = random_lowrank(rng, 20, 20, 3)
    vec = sys.matrix @ x.densify().flatten(order="F")
    got = apply_L(eq, x).densify().flatten(order="F")
    np.testing.assert_allclose(got, vec, atol=1e-12)


def test_apply_L_zero_operand():
    eq = identity_equation(8)
    out = apply_L(eq, LowRankMatrix.zeros(8, 8))
    assert out.is_zero


def test_apply_L_linearity():
    rng = np.random.default_rng(3)
    eq = random_posdef_equation(rng, 12, 9, 3, 2)
    x = random_lowrank(rng, 12, 9, 2)
    y = random_lowrank(rng, 12, 9, 2)
    a, b = 0.7, -1.3
    combo = LowRankMatrix.from_dense(a * x.densify() + b * y.densify())
    lhs = apply_L(eq, combo).densify()
    rhs = a * apply_L(eq, x).densify() + b * apply_L(eq, y).densify()
    np.testing.assert_allclose(lhs, rhs, atol=1e-12)


def test_apply_L_rank_growth_factor_p():
    rng = np.random.default_rng(4)
    eq = random_posdef_equation(rng, 10, 10, 3, 1)
    x = random_lowrank(rng, 10, 10, 2)
    out = apply_L(eq, x)
    assert out.left.shape[1] == eq.p * 2
    assert out.right.shape[1] == eq.p * 2


def test_adjoint_on_symmetric_terms_equals_forward():
    rng = np.random.default_rng(5)
    terms = []
    for _ in range(2):
        a = rng.standard_normal((9, 9))
        b = rng.standard_normal((9, 9))
        terms.append((sp.csr_matrix(a + a.T), sp.csr_matrix(b + b.T)))
    eq = MultitermEquation(terms=terms, C=rng.standard_normal((9, 1)),
                           D=rng.standard_normal((9, 1)))
    x = random_lowrank(rng, 9, 9, 2)
    np.testing.assert_allclose(
        apply_Lstar(eq, x).densify(), apply_L(eq, x).densify(), atol=1e-12
    )


def test_adjoint_identity_in_frobenius_inner_product():
    rng = np.random.default_rng(6)
    eq = random_posdef_equation(rng, 15, 15, 2, 2)
    x = random_lowrank(rng, 15, 15, 3)
    y = random_lowrank(rng, 15, 15, 3)
    lhs = np.sum(apply_L(eq, x).densify() * y.densify())
    rhs = np.sum(x.densify() * apply_Lstar(eq, y).densify())
    assert lhs == pytest.approx(rhs, rel=1e-12)


def test_adjoint_zero_operand():
    eq = identity_equation(6)
    assert apply_Lstar(eq, LowRankMatrix.zeros(6, 6)).is_zero


def test_residual_at_zero_guess_is_rhs():
    eq = identity_equation(7, q=2)
    r = residual_factored(eq, LowRankMatrix.zeros(7, 7))
    np.testing.assert_allclose(r.left, eq.C)
    np.testing.assert_allclose(r.right, eq.D)
    np.testing.assert_allclose(r.core, np.eye(2))


def test_residual_vanishes_at_exact_solution():
    rng = np.random.default_rng(7)
    eq = random_posdef_equation(rng, 12, 10, 2, 2)
    sys = assemble_kron(eq)
    x = LowRankMatrix.from_dense(direct_solve(sys))
    r = residual_factored(eq, x)
    assert r.norm_fro() <= 1e-10 * eq.rhs_norm()


def test_residual_matches_dense_evaluation():
    rng = np.random.default_rng(8)
    eq = random_posdef_equation(rng, 20, 20, 3, 2)
    x = random_lowrank(rng, 20, 20, 4)
    expected = eq.C @ eq.D.T - apply_L(eq, x).densify()
    np.testing.assert_allclose(
        residual_factored(eq, x).densify(), expected, atol=1e-12
    )


@pytest.mark.parametrize("dense", [False, True])
def test_residual_factors_bit_identical_to_stacked_products(dense):
    rng = np.random.default_rng(11)
    eq = random_posdef_equation(rng, 30, 24, 3, 2)
    if dense:
        eq = MultitermEquation(terms=[(a.toarray(), b.toarray()) for a, b in eq.terms],
                               C=eq.C, D=eq.D)
    x = random_lowrank(rng, 30, 24, 5)
    r = residual_factored(eq, x)
    # The construction that stacked the products and then C or D beside them.
    left = np.hstack([eq.C, np.hstack([a @ x.left for a, _ in eq.terms])])
    right = np.hstack([eq.D, np.hstack([b.T @ x.right for _, b in eq.terms])])
    assert np.array_equal(r.left, left)
    assert np.array_equal(r.right, right)
    assert r.left.flags.c_contiguous and r.right.flags.c_contiguous
    r0 = residual_factored(eq, LowRankMatrix.zeros(30, 24))
    assert np.array_equal(r0.left, eq.C) and np.array_equal(r0.right, eq.D)


def test_rhs_norm_matches_dense():
    rng = np.random.default_rng(9)
    eq = random_posdef_equation(rng, 14, 11, 2, 2)
    assert eq.rhs_norm() == pytest.approx(
        np.linalg.norm(eq.C @ eq.D.T), rel=1e-12
    )


def test_shape_mismatch_raises():
    eq = identity_equation(9)
    rng = np.random.default_rng(10)
    with pytest.raises(ShapeError):
        apply_L(eq, random_lowrank(rng, 9, 8, 2))


@pytest.mark.parametrize(("a", "c", "message"), [
    (sp.csr_matrix(np.ones((4, 3))), np.ones((4, 1)), r"A_1 must be square, got shape \(4, 3\)"),
    (sp.coo_array(np.ones(4)), np.ones((4, 1)), r"A_1 must be square, got shape \(4,\)"),
    (sp.identity(4, format="csr"), np.ones((5, 1)),
     r"right-hand-side factors have shapes \(5, 1\), \(4, 1\); expected leading "
     r"dimensions 4, 4"),
], ids=["non-square-coefficient", "one-dimensional-sparse-coefficient", "rhs-rows"])
def test_nonconforming_equation_names_the_factor(a, c, message):
    with pytest.raises(ShapeError, match=message):
        MultitermEquation(terms=[(a, sp.identity(4, format="csr"))], C=c, D=np.ones((4, 1)))


@pytest.mark.parametrize("fmt", ["csr", "csc", "coo", "bsr", "dia", "lil", "dok", "dense"])
def test_every_coefficient_format_solves_like_csr(fmt):
    # A LIL coefficient raised TypeError and a DOK one AttributeError from
    # the finiteness check, which read their entries as if they were CSR.
    csr = build_convdiff(ConvDiffSpec(n=34, eps=0.1))
    terms = [tuple(m.toarray() if fmt == "dense" else m.asformat(fmt) for m in pair)
             for pair in csr.terms]
    eq = MultitermEquation(terms=terms, C=csr.C, D=csr.D)
    for given, stored in zip(sum(terms, ()), sum(eq.terms, ())):
        if fmt == "dense":
            assert stored is given
        else:
            assert stored.format == "csr"
            assert (stored is given) == (fmt == "csr")
    cfg = SolverConfig(method="ss_gcr1", tol=1e-8, preconditioner=PreconditionerSpec.two_term_adi(
        indices=(0, 1), shift_source="analytic_laplacian"))
    x_ref, ref = solve(csr, cfg)
    x, rep = solve(eq, cfg)
    assert (rep.status, rep.iterations) == (ref.status, ref.iterations)
    if fmt == "dense":  # BLAS products round differently: a rank at the cutoff may move
        assert true_residual(eq, x) <= cfg.tol
    else:  # the same CSR arrays, so the same arithmetic
        assert rep.ranks == ref.ranks
        assert rep.residual_estimates == ref.residual_estimates
        assert true_residual(eq, x) == true_residual(csr, x_ref)
