"""Preconditioner applications and ADI shift parameters."""

import numpy as np
import pytest
import scipy.linalg as sla
import scipy.sparse as sp
import scipy.sparse.linalg as spla

from mteq import (
    LowRankMatrix,
    MultitermEquation,
    OneTermPreconditioner,
    PreconditionerSpec,
    SolverConfig,
    TruncationConfig,
    TwoTermAdiPreconditioner,
    build_preconditioner,
    solve,
    true_residual,
    wachspress_shifts,
)
from mteq import precond
from mteq.precond import (
    NonePreconditioner,
    analytic_laplacian_interval,
    estimated_interval,
)
from mteq.problems import ConvDiffSpec, build_convdiff

from conftest import random_lowrank, random_spd


def dirichlet_laplacian(n, scale=1.0):
    h = 2.0 / (n + 1)
    return scale * sp.diags([-1.0, 2.0, -1.0], [-1, 0, 1], shape=(n, n),
                            format="csr") / h**2


def test_one_term_identity_passthrough():
    rng = np.random.default_rng(0)
    eye = sp.identity(10, format="csr")
    r = random_lowrank(rng, 10, 10, 2)
    z = OneTermPreconditioner(eye, eye).apply(r)
    for got, want in zip((z.left, z.core, z.right), (r.left, r.core, r.right)):
        assert np.array_equal(got, want)


def test_one_term_matches_dense_solve():
    rng = np.random.default_rng(1)
    a = sp.csr_matrix(random_spd(rng, 12) + 0.1 * rng.standard_normal((12, 12)))
    b = sp.csr_matrix(random_spd(rng, 9) + 0.1 * rng.standard_normal((9, 9)))
    r = random_lowrank(rng, 12, 9, 3)
    z = OneTermPreconditioner(a, b).apply(r)
    expected = np.linalg.solve(a.toarray(), r.densify()) @ np.linalg.inv(b.toarray())
    np.testing.assert_allclose(z.densify(), expected, atol=1e-10)
    assert z.rank == r.rank


def test_one_term_right_identity_untouched():
    rng = np.random.default_rng(2)
    a = sp.csr_matrix(random_spd(rng, 10))
    eye = sp.identity(10, format="csr")
    r = random_lowrank(rng, 10, 10, 2)
    z = OneTermPreconditioner(a, eye).apply(r)
    assert np.array_equal(z.right, r.right)
    assert np.array_equal(z.core, r.core)


def test_one_term_is_exact_inverse_of_its_term():
    rng = np.random.default_rng(3)
    a = sp.csr_matrix(random_spd(rng, 11))
    b = sp.csr_matrix(random_spd(rng, 11))
    eq = MultitermEquation(terms=[(a, b)], C=rng.standard_normal((11, 2)),
                           D=rng.standard_normal((11, 2)))
    r = random_lowrank(rng, 11, 11, 2)
    z = OneTermPreconditioner(a, b).apply(r)
    back = a.toarray() @ z.densify() @ b.toarray()
    np.testing.assert_allclose(back, r.densify(), atol=1e-10)
    prec = build_preconditioner(eq, PreconditionerSpec.one_term(0))
    np.testing.assert_allclose(prec.apply(r).densify(), z.densify(), atol=1e-12)


def test_wachspress_degenerate_interval():
    shifts = wachspress_shifts((1.0, 1.0), (1.0, 1.0), 1)
    assert shifts == pytest.approx([1.0])


def test_wachspress_single_shift_is_geometric_mean():
    shifts = wachspress_shifts((1.0, 100.0), (1.0, 100.0), 1)
    assert shifts[0] == pytest.approx(10.0, rel=1e-12)


def test_wachspress_shifts_interior_and_monotone():
    shifts = wachspress_shifts((1.0, 100.0), (1.0, 100.0), 8)
    assert np.all(shifts > 1.0) and np.all(shifts < 100.0)
    assert np.all(np.diff(shifts) < 0)


def test_wachspress_negative_definite_intervals():
    shifts = wachspress_shifts((-100.0, -1.0), (-100.0, -1.0), 4)
    assert np.all(shifts < 0)
    assert len(shifts) == 4


def test_wachspress_rejects_indefinite_interval():
    with pytest.raises(ValueError):
        wachspress_shifts((-1.0, 2.0), (1.0, 3.0), 4)
    with pytest.raises(ValueError):
        wachspress_shifts((1.0, 2.0), (-3.0, -1.0), 4)


@pytest.mark.parametrize(("interval", "hull"), [((1.0, 1e9), "[1, 1e+09]"),
                                                ((-1e9, -1.0), "[-1e+09, -1]")])
def test_wachspress_shifts_of_a_too_stiff_hull_raise(interval, hull):
    # From an end ratio of about 2e8 the float64 modulus 1 - (a/b)**2 rounds
    # to 1, K(m) is infinite and every shift came back NaN.
    with pytest.raises(ValueError) as exc:
        wachspress_shifts(interval, interval, 4)
    assert f"spectral hull {hull} (end ratio 1e+09) are not finite" in str(exc.value)


@pytest.mark.parametrize("t_adi", [1, 2, 3, 8, 20])
def test_wachspress_shifts_pair_up_to_the_modulus_identity(t_adi):
    # dn(u) dn(K - u) = k' = sqrt(1 - m) pairs shift j with shift t + 1 - j;
    # the float64 evaluation must keep it near m = 1 too.
    for ratio in np.geomspace(1.0, 1e8, 33):
        lo, hi = 0.3, 0.3 * ratio
        shifts = wachspress_shifts((lo, hi), (lo, hi), t_adi)
        m = 1.0 - (lo / hi) ** 2
        np.testing.assert_allclose(shifts * shifts[::-1],
                                   np.full(t_adi, hi**2 * np.sqrt(1.0 - m)), rtol=1e-9)


def test_analytic_laplacian_interval_matches_dense_eigenvalues():
    for n in (64, 254):
        t = dirichlet_laplacian(n, scale=0.37)
        lam = np.linalg.eigvalsh(t.toarray())
        lo, hi = analytic_laplacian_interval(t)
        assert lo == pytest.approx(lam[0], rel=1e-8)
        assert hi == pytest.approx(lam[-1], rel=1e-8)


def test_analytic_interval_on_benchmark_operator():
    spec = ConvDiffSpec(n=258, eps=0.1)
    eq = build_convdiff(spec)
    a1 = eq.terms[0][0]
    lam = np.linalg.eigvalsh(a1.toarray())
    lo, hi = analytic_laplacian_interval(a1)
    assert lo == pytest.approx(lam[0], rel=1e-8)
    assert hi == pytest.approx(lam[-1], rel=1e-8)


def test_analytic_interval_rejects_other_matrices():
    # The closed form read only the first diagonal entry: diag(1..100) got
    # [4.8e-4, 2.0] where its spectrum is [1, 100].
    n = 100
    lap = dirichlet_laplacian(n, scale=0.37)
    near = lap.tolil()
    near[n // 2, n // 2 + 1] *= 1.0 + 1e-6
    for matrix in (sp.diags(np.arange(1.0, n + 1)), -lap, near.tocsr(),
                   lap + sp.diags(np.full(n, 1e-3)), lap.toarray() + 1e-3):
        with pytest.raises(ValueError, match="A_1 is not a positive multiple"):
            analytic_laplacian_interval(matrix, name="A_1")
    # Dense input, and an entry a rounding error off the stencil, still pass.
    dense = lap.toarray()
    dense[n // 2, n // 2 + 1] *= 1.0 + 1e-14
    assert analytic_laplacian_interval(dense) == analytic_laplacian_interval(lap)


def test_estimated_interval_brackets_spectrum():
    rng = np.random.default_rng(4)
    a = sp.csr_matrix(random_spd(rng, 40, spread=(0.5, 8.0)))
    lam = np.linalg.eigvalsh(a.toarray())
    lo, hi = estimated_interval(a)
    assert lo <= lam[0] * 1.001
    assert hi >= lam[-1] * 0.999
    assert lo > 0


def test_adi_matches_dense_sylvester_oracle():
    rng = np.random.default_rng(5)
    n = 64
    a = random_spd(rng, n, spread=(1.0, 100.0))
    b = random_spd(rng, n, spread=(1.0, 100.0))
    ia = (np.linalg.eigvalsh(a)[0], np.linalg.eigvalsh(a)[-1])
    ib = (np.linalg.eigvalsh(b)[0], np.linalg.eigvalsh(b)[-1])
    r = random_lowrank(rng, n, n, 2)
    shifts = wachspress_shifts(ia, ib, 20)
    z = TwoTermAdiPreconditioner(sp.csr_matrix(a), sp.csr_matrix(b), shifts).apply(r)
    x_ref = sla.solve_sylvester(a, b, r.densify())
    zd = z.densify()
    res = np.linalg.norm(a @ zd + zd @ b - r.densify())
    assert res <= 1e-8 * r.norm_fro()
    assert np.linalg.norm(zd - x_ref) <= 1e-7 * np.linalg.norm(x_ref)


def test_adi_budget_quality_on_benchmark_diffusion():
    spec = ConvDiffSpec(n=130, eps=0.1)
    eq = build_convdiff(spec)
    a1 = eq.terms[0][0]
    b2 = eq.terms[1][1]
    shifts = wachspress_shifts(
        analytic_laplacian_interval(a1), analytic_laplacian_interval(b2), 8
    )
    r = eq.rhs_lowrank()
    z = TwoTermAdiPreconditioner(a1, b2, shifts).apply(r)
    zd = z.densify()
    res = np.linalg.norm(a1 @ zd + zd @ b2.toarray().T - r.densify())
    assert res <= 1e-2 * r.norm_fro()
    # The spec route picks the same leading pair and shifts.
    built = build_preconditioner(
        eq, PreconditionerSpec.two_term_adi(shift_source="analytic_laplacian"))
    np.testing.assert_array_equal(built.shifts, shifts)
    np.testing.assert_array_equal(built.apply(r).densify(), zd)


def test_adi_zero_input():
    rng = np.random.default_rng(6)
    a = sp.csr_matrix(random_spd(rng, 10))
    shifts = wachspress_shifts((1.0, 2.0), (1.0, 2.0), 3)
    z = TwoTermAdiPreconditioner(a, a, shifts).apply(LowRankMatrix.zeros(10, 10))
    assert z.is_zero


def test_adi_rank_growth_bound():
    rng = np.random.default_rng(7)
    a = sp.csr_matrix(random_spd(rng, 20, spread=(1.0, 10.0)))
    r = random_lowrank(rng, 20, 20, 3)
    for t in (1, 4, 6):
        shifts = wachspress_shifts((1.0, 10.0), (1.0, 10.0), t)
        z = TwoTermAdiPreconditioner(a, a, shifts).apply(r)
        assert z.rank <= t * r.rank


def test_none_preconditioner_is_identity():
    rng = np.random.default_rng(8)
    r = random_lowrank(rng, 10, 10, 2)
    assert NonePreconditioner().apply(r) is r


def test_two_term_warns_on_nonidentity_companions():
    rng = np.random.default_rng(9)
    a = sp.csr_matrix(random_spd(rng, 12, spread=(1.0, 4.0)))
    b = sp.csr_matrix(random_spd(rng, 12, spread=(1.0, 4.0)))
    eq = MultitermEquation(terms=[(a, b), (b, a)], C=rng.standard_normal((12, 1)),
                           D=rng.standard_normal((12, 1)))
    with pytest.warns(RuntimeWarning):
        build_preconditioner(
            eq, PreconditionerSpec.two_term_adi(indices=(0, 1), t_adi=2)
        )


@pytest.mark.parametrize("fmt", ["dia", "csr", "csc", "coo", "lil", "dok", "bsr", "dense"])
def test_identity_deviation_reads_every_matrix_format(fmt):
    # A DIA matrix, sp.identity's default, has no max: this raised AttributeError.
    def as_format(m):
        return m.toarray() if fmt == "dense" else m.asformat(fmt)

    eye = sp.identity(12, format="lil")
    assert precond._identity_deviation(as_format(eye)) == 0.0
    eye[0, 1] = -0.5
    assert precond._identity_deviation(as_format(eye)) == 0.5


def test_spec_validation():
    with pytest.raises(ValueError):
        PreconditionerSpec(kind="bogus")
    with pytest.raises(ValueError):
        PreconditionerSpec.two_term_adi(t_adi=0)
    with pytest.raises(ValueError, match="shift source"):
        PreconditionerSpec.two_term_adi(shift_source="magic")
    # One term index per kind's term: none, one, two.
    assert PreconditionerSpec().indices == ()
    assert PreconditionerSpec.one_term(2).indices == (2,)
    assert PreconditionerSpec.two_term_adi(indices=[1, 0]).indices == (1, 0)
    # ADI settings belong to the two-term kind only.
    assert (PreconditionerSpec.two_term_adi().t_adi,
            PreconditionerSpec.two_term_adi().shift_source) == (8, "estimated")
    assert PreconditionerSpec.one_term(0).t_adi is None
    assert PreconditionerSpec.none().shift_source is None
    with pytest.raises(ValueError, match="takes no t_adi or shift_source"):
        PreconditionerSpec(kind="one_term", indices=(0,), t_adi=8)
    with pytest.raises(ValueError, match="t_adi must be at least 1"):
        PreconditionerSpec(kind="two_term_adi", indices=(0, 1), shift_source="estimated")
    for kind, indices in [("none", (0,)), ("one_term", ()), ("one_term", (0, 1)),
                          ("two_term_adi", (0,))]:
        with pytest.raises(ValueError, match="term indices"):
            PreconditionerSpec(kind=kind, indices=indices)


def test_term_indices_validated_at_build():
    rng = np.random.default_rng(10)
    a = sp.csr_matrix(random_spd(rng, 8))
    eq = MultitermEquation(terms=[(a, a)], C=rng.standard_normal((8, 1)),
                           D=rng.standard_normal((8, 1)))
    with pytest.raises(ValueError):
        build_preconditioner(eq, PreconditionerSpec.one_term(3))
    with pytest.raises(ValueError):
        build_preconditioner(
            eq, PreconditionerSpec.two_term_adi(indices=(0, 5), t_adi=2)
        )


def band_cases():
    """Banded matrices, each with the factor class ``_factor`` picks for it."""
    rng = np.random.default_rng(11)
    n = 60
    a3 = build_convdiff(ConvDiffSpec(n=n + 2, eps=0.1)).terms[2][0]
    yield pytest.param(sp.diags(rng.uniform(1.0, 3.0, n)).tocsr(), precond._TridiagonalLDLt,
                       id="diagonal")
    yield pytest.param(dirichlet_laplacian(n) + 5.0 * sp.identity(n),
                       precond._TridiagonalLDLt, id="symmetric-tridiagonal")
    # The smallest eigenvalue is about 2.47: LDL^T stops, SuperLU takes it.
    yield pytest.param(dirichlet_laplacian(n) - 3.0 * sp.identity(n), spla.SuperLU,
                       id="indefinite-symmetric-tridiagonal")
    # Zero diagonal plus a small shift: pivoting swaps rows.
    yield pytest.param((a3 + 0.3 * sp.identity(n)).tocsr(), spla.SuperLU,
                       id="nonsymmetric-tridiagonal")
    offsets = [-2, -1, 0, 1, 2]
    yield pytest.param(sp.diags(
        [rng.standard_normal(n - abs(k)) + 6.0 * (k == 0) for k in offsets], offsets).tocsr(),
        spla.SuperLU, id="pentadiagonal")


@pytest.mark.parametrize(("matrix", "kind"), band_cases())
def test_banded_lu_matches_superlu(matrix, kind):
    rng = np.random.default_rng(12)
    lu = precond._factor(matrix, "A")
    assert isinstance(lu, kind)
    ref = spla.splu(sp.csc_matrix(matrix))
    for b in (rng.standard_normal(matrix.shape[0]), rng.standard_normal((matrix.shape[0], 5))):
        x = lu.solve(b)
        assert x.shape == b.shape
        expected = ref.solve(b)
        assert np.linalg.norm(x - expected) <= 1e-12 * np.linalg.norm(expected)


def test_two_dimensional_stencil_stays_on_superlu():
    t = dirichlet_laplacian(12)
    eye = sp.identity(12)
    assert isinstance(precond._factor(sp.kron(t, eye) + sp.kron(eye, t), "A"), spla.SuperLU)


def test_banded_adi_matches_superlu_reference(monkeypatch):
    eq = build_convdiff(ConvDiffSpec(n=130, eps=0.1))
    a1, b2 = eq.terms[0][0], eq.terms[1][1]
    shifts = wachspress_shifts(
        analytic_laplacian_interval(a1), analytic_laplacian_interval(b2), 8)
    r = eq.rhs_lowrank()
    banded = TwoTermAdiPreconditioner(a1, b2, shifts)
    assert all(isinstance(lu, precond._TridiagonalLDLt)
               for lu in banded._a_lus + banded._bt_lus)
    z = banded.apply(r).densify()
    monkeypatch.setattr(precond, "_factor",
                        lambda matrix, label: spla.splu(sp.csc_matrix(matrix)))
    ref = TwoTermAdiPreconditioner(a1, b2, shifts).apply(r).densify()
    assert np.linalg.norm(z - ref) <= 1e-12 * np.linalg.norm(ref)


def test_adi_apply_matches_reference_sweep():
    eq = build_convdiff(ConvDiffSpec(n=130, eps=0.1))
    # A_3 (convection) is nonsymmetric: its side runs on SuperLU.
    a3, b2 = eq.terms[2][0] + 5.0 * sp.identity(128), eq.terms[1][1]
    shifts = wachspress_shifts(estimated_interval(a3), analytic_laplacian_interval(b2), 6)
    adi = TwoTermAdiPreconditioner(a3, b2, shifts)
    assert all(isinstance(lu, spla.SuperLU) for lu in adi._a_lus)
    assert all(isinstance(lu, precond._TridiagonalLDLt) for lu in adi._bt_lus)
    r = random_lowrank(np.random.default_rng(15), 128, 128, 5)
    z = adi.apply(r)
    # The sweep as a list of blocks per side, joined at the end.
    v = adi._a_lus[0].solve(r.left @ r.core)
    w = adi._bt_lus[0].solve(r.right)
    lefts, rights = [v], [w]
    for m in range(1, len(shifts)):
        v = v - (shifts[m] + shifts[m - 1]) * adi._a_lus[m].solve(v)
        w = w - (shifts[m] + shifts[m - 1]) * adi._bt_lus[m].solve(w)
        lefts.append(v)
        rights.append(w)
    assert z.left.flags.f_contiguous and z.right.flags.f_contiguous
    assert z.left.shape[1] == z.right.shape[1] == len(shifts) * r.core.shape[1]
    for got, expected in ((z.left, np.hstack(lefts)), (z.right, np.hstack(rights))):
        assert np.linalg.norm(got - expected) <= 1e-12 * np.linalg.norm(expected)
    np.testing.assert_array_equal(
        z.core, np.kron(np.diag(2 * shifts), np.eye(r.core.shape[1])))


@pytest.mark.parametrize("shift", [-1.0, -2.0, -3.0])
def test_symmetric_tridiagonal_at_minus_an_eigenvalue_raises_value_error(shift):
    # tridiag(-1, 2, -1) of order 5 has the exact eigenvalues 1, 2 and 3.
    lap = sp.diags([-1.0, 2.0, -1.0], [-1, 0, 1], shape=(5, 5)).tocsr()
    assert isinstance(precond._factor(lap + 1.5 * sp.identity(5), "A"),
                      precond._TridiagonalLDLt)
    with pytest.raises(ValueError,
                       match=rf"A_1 \+ q I at ADI shift q = {shift:g} is singular"):
        TwoTermAdiPreconditioner(lap, lap, np.array([1.5, shift]), names=("A_1", "B_2"))


def singular_coefficients():
    """A diagonal matrix and a 2D stencil, each with a zero row."""
    diagonal = sp.diags(np.r_[1.0, 0.0, np.arange(2.0, 16.0)]).tolil()
    t, eye = dirichlet_laplacian(4), sp.identity(4)
    stencil = (sp.kron(t, eye) + sp.kron(eye, t)).tolil()
    stencil[5, :] = 0.0
    return [diagonal.tocsr(), stencil.tocsr()]


@pytest.mark.parametrize("singular", singular_coefficients(), ids=["banded", "superlu"])
@pytest.mark.parametrize("side", [0, 1])
def test_singular_one_term_coefficient_raises_value_error(side, singular):
    rng = np.random.default_rng(13)
    eye = sp.identity(16, format="csr")
    pair = (singular, eye) if side == 0 else (eye, singular)
    eq = MultitermEquation(terms=[(eye, eye), pair], C=rng.standard_normal((16, 1)),
                           D=rng.standard_normal((16, 1)))
    name = "A_2" if side == 0 else r"B_2\^T"
    with pytest.raises(ValueError, match=f"{name} is singular"):
        build_preconditioner(eq, PreconditionerSpec.one_term(1))


def test_adi_shift_at_minus_an_eigenvalue_raises_value_error():
    # a has the exact eigenvalues 1, 2, 3; b the exact eigenvalue 4, which a
    # lacks: tridiag(-1, 0, -1) is singular.
    a = sp.diags([1.0, 2.0, 3.0]).tocsr()
    b = sp.diags([-1.0, 4.0, -1.0], [-1, 0, 1], shape=(3, 3)).tocsr()
    with pytest.raises(ValueError, match=r"A_1 \+ q I at ADI shift q = -2 is singular"):
        TwoTermAdiPreconditioner(a, b, np.array([1.5, -2.0]), names=("A_1", "B_2"))
    with pytest.raises(ValueError, match=r"B_2\^T \+ q I at ADI shift q = -4 is singular"):
        TwoTermAdiPreconditioner(a, b, np.array([1.5, -4.0]), names=("A_1", "B_2"))


def test_estimated_interval_of_singular_coefficient_raises_value_error():
    rng = np.random.default_rng(14)
    singular = sp.diags([1.0, 0.0, 2.0]).tocsr()
    eye = sp.identity(3, format="csr")
    eq = MultitermEquation(terms=[(singular, eye), (eye, eye)],
                           C=rng.standard_normal((3, 1)), D=rng.standard_normal((3, 1)))
    with pytest.raises(ValueError, match="A_1 is singular"):
        build_preconditioner(eq, PreconditionerSpec.two_term_adi(t_adi=2))


@pytest.mark.parametrize("n, shift", [(40, 300.0), (200, 125.0), (1024, 13107.2)],
                         ids=["n40", "n200", "n1024"])
def test_estimated_interval_of_indefinite_coefficient_raises_value_error(n, shift):
    # Spectra [-290.6, 6090.6], from -115 and from -13097. Power iterations
    # on the part accepted the last two as (29.1, 1.61e5) and (8.31, 4.22e6).
    a = n**2 * sp.diags([-1.0, 2.0, -1.0], [-1, 0, 1], shape=(n, n)) - shift * sp.identity(n)
    eye = sp.identity(n, format="csr")
    eq = MultitermEquation(terms=[(a.tocsr(), eye), (eye, dirichlet_laplacian(n))],
                           C=np.ones((n, 1)), D=np.ones((n, 1)))
    with pytest.raises(ValueError, match="symmetric part of A_1 is indefinite"):
        build_preconditioner(eq, PreconditionerSpec.two_term_adi())


def test_estimated_interval_of_a_huge_coefficient_scales():
    # Power iteration normalized with np.linalg.norm, which overflows past
    # about 1e154: the interval of 1e160 A_1 came back (2.35e159, nan).
    a = build_convdiff(ConvDiffSpec(n=34, eps=0.1)).terms[0][0]
    lo, hi = estimated_interval(a)
    np.testing.assert_allclose(estimated_interval(1e160 * a), (1e160 * lo, 1e160 * hi),
                               rtol=1e-12)


def test_estimated_interval_of_a_negated_matrix_is_its_mirror_image():
    rng = np.random.default_rng(16)
    n = 30
    stencil = sp.kron(dirichlet_laplacian(n), sp.identity(n)) \
        + sp.kron(sp.identity(n), dirichlet_laplacian(n))
    convected = stencil + sp.diags(rng.uniform(-5.0, 5.0, n * n - 1), 1)
    for matrix in ((n + 1) ** 2 * sp.diags([-1.0, 2.0, -1.0], [-1, 0, 1], shape=(n, n)),
                   convected):
        lo, hi = estimated_interval(matrix.tocsr())
        assert 0 < lo < hi
        assert estimated_interval(-matrix.tocsr()) == (-hi, -lo)


def test_negative_definite_adi_pair_builds_and_converges():
    # -(n+1)^2 tridiag(-1, 2, -1): the pair came back reversed and narrowed,
    # (-10.35, -3537), and wachspress_shifts refused it.
    n = 30
    neg = -(n + 1) ** 2 * sp.diags([-1.0, 2.0, -1.0], [-1, 0, 1], shape=(n, n), format="csr")
    eye = sp.identity(n, format="csr")
    rng = np.random.default_rng(17)
    eq = MultitermEquation(terms=[(neg, eye), (eye, neg)],
                           C=rng.standard_normal((n, 1)), D=rng.standard_normal((n, 1)))
    lam = np.linalg.eigvalsh(neg.toarray())
    lo, hi = estimated_interval(neg)
    assert lo <= lam[0] and lam[-1] <= hi < 0
    adi = build_preconditioner(eq, PreconditionerSpec.two_term_adi(t_adi=8))
    assert np.all(adi.shifts < 0)
    cfg = SolverConfig(method="ss_gcr1", tol=1e-10, maxit=20,
                       truncation=TruncationConfig(toltrank=1e-14, maxrank=n),
                       preconditioner=PreconditionerSpec.two_term_adi(t_adi=8))
    x, rep = solve(eq, cfg)
    assert rep.converged
    assert true_residual(eq, x) <= 1e-9


def test_estimated_interval_rejects_a_saddle_point_coefficient():
    # [[M, B^T], [B, 0]], the shape of a mixed formulation's K_0: M has
    # positive and the Schur complement -B M^{-1} B^T negative eigenvalues.
    rng = np.random.default_rng(18)
    m = sp.diags(rng.uniform(1.0, 2.0, 20))
    b = sp.eye(8, 20) + sp.random(8, 20, density=0.3, random_state=np.random.RandomState(1))
    saddle = sp.bmat([[m, b.T], [b, None]]).tocsr()
    with pytest.raises(ValueError,
                       match=r"A_1 is indefinite \(8 negative and 20 positive pivots"):
        estimated_interval(saddle, name="A_1")


def test_estimated_interval_accepts_a_2d_stencil():
    n = 30
    t = sp.diags([-1.0, 2.0, -1.0], [-1, 0, 1], shape=(n, n))
    stencil = (sp.kron(t, sp.identity(n)) + sp.kron(sp.identity(n), t)).tocsr()
    lam = np.linalg.eigvalsh(stencil.toarray())
    lo, hi = estimated_interval(stencil)
    assert 0 < lo <= lam[0] and lam[-1] <= hi


def test_estimated_interval_brackets_the_60x60_laplacian_at_default_budgets():
    # The top end was a power-iterated Rayleigh quotient widened by 5%:
    # 7.838, below the true 7.9947. It is now the largest absolute row sum.
    n = 60
    t = sp.diags([-1.0, 2.0, -1.0], [-1, 0, 1], shape=(n, n))
    stencil = (sp.kron(t, sp.identity(n)) + sp.kron(sp.identity(n), t)).tocsr()
    lam_1d = 4.0 * np.sin(np.arange(1, n + 1) * np.pi / (2 * (n + 1))) ** 2
    lo, hi = estimated_interval(stencil)
    assert 0 < lo <= 2 * lam_1d[0] and 2 * lam_1d[-1] <= hi == 8.0


def test_estimated_interval_brackets_a_clustered_low_end():
    # 30 eigenvalues just above lambda_min = 1: a power-iterated Rayleigh
    # quotient of the inverse stopped inside the cluster, and even widened
    # by 5% the low end lay above 1 at 22 of these 40 seeds.
    n = 200
    for seed in range(40):
        rng = np.random.default_rng(seed)
        lam = np.concatenate([[1.0], rng.uniform(1.01, 1.5, 30), rng.uniform(2.0, 100.0, 169)])
        q = np.linalg.qr(rng.standard_normal((n, n)))[0]
        lo, hi = estimated_interval(sp.csr_matrix((q * lam) @ q.T))
        assert 0 < lo <= 1.0 and 100.0 <= hi, seed


def laplacian_2d_and_its_lowest_eigenvalue(n):
    t = sp.diags([-1.0, 2.0, -1.0], [-1, 0, 1], shape=(n, n))
    stencil = (sp.kron(t, sp.identity(n)) + sp.kron(sp.identity(n), t)).tocsr()
    return stencil, 8.0 * np.sin(np.pi / (2 * (n + 1))) ** 2


def convdiff_a1_and_its_lowest_eigenvalue(n):
    a = build_convdiff(ConvDiffSpec(n=n + 2, eps=0.1)).terms[0][0]
    return a, analytic_laplacian_interval(a)[0]


@pytest.mark.parametrize("case", [
    lambda: laplacian_2d_and_its_lowest_eigenvalue(60),
    lambda: convdiff_a1_and_its_lowest_eigenvalue(1024),
], ids=["laplacian-60x60", "convdiff-A_1-n1024"])
def test_estimated_interval_low_end_is_the_smallest_eigenvalue_widened(case):
    # Power iteration's relative errors were 1.3e-4 and 1e-5.
    matrix, lam_min = case()
    lo, _ = estimated_interval(matrix)
    assert lo * precond.INFLATION == pytest.approx(lam_min, rel=1e-8)


@pytest.mark.parametrize("a", [3.0, -3.0, 1e160])
def test_estimated_interval_of_a_1x1_coefficient_is_its_entry_widened(a):
    lo, hi = estimated_interval(sp.csr_matrix([[a]]))
    assert (lo, hi) == tuple(sorted((a / precond.INFLATION, a)))


@pytest.mark.parametrize("intervals", [((2.0, 1.0), (1.0, 2.0)), ((1.0, 2.0), (-1.0, -2.0))],
                         ids=["left", "right"])
def test_wachspress_shifts_reject_an_unordered_interval(intervals):
    with pytest.raises(ValueError, match=r"intervals must be ordered \(low, high\)"):
        wachspress_shifts(*intervals, 4)


def test_one_term_apply_of_a_zero_residual_is_that_residual():
    a = sp.csr_matrix(random_spd(np.random.default_rng(19), 6))
    zero = LowRankMatrix.zeros(6, 6)
    assert OneTermPreconditioner(a, a).apply(zero) is zero
