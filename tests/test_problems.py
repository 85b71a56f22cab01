"""Benchmark assembly against an independent stencil oracle, and manifest IO."""

import json

import numpy as np
import pytest
import scipy.sparse as sp
from scipy.io import mmwrite

from mteq import (
    ConvDiffSpec,
    MultitermEquation,
    PreconditionerSpec,
    SolverConfig,
    TruncationConfig,
    build_convdiff,
    load_manifest,
    save_manifest,
    solve,
    true_residual,
)
from mteq.oracle import assemble_kron, direct_solve
from mteq.problems import ManifestError


def stencil_oracle(spec: ConvDiffSpec):
    """Assemble the vectorized convection-diffusion system node by node.

    Independent of the matrix-equation factorization: loops over interior
    grid points applying the centered five-point stencil directly, moving
    known boundary values to the right-hand side.
    """
    n_int = spec.n - 2
    h = spec.h
    nodes = -1.0 + h * np.arange(0, spec.n)

    def u_boundary(gi, gj):
        x, y = nodes[gi], nodes[gj]
        if gi == 0:
            return 1.0  # inflow face x = -1
        return 0.0

    def w1(x, y):
        return 2.0 * y * (1.0 - x * x)

    def w2(x, y):
        return -2.0 * x * (1.0 - y * y)

    size = n_int * n_int
    mat = np.zeros((size, size))
    rhs = np.ones(size)

    def idx(i, j):
        return i + n_int * j  # column-major, matching vec()

    for j in range(n_int):
        for i in range(n_int):
            gi, gj = i + 1, j + 1
            x, y = nodes[gi], nodes[gj]
            row = idx(i, j)
            mat[row, row] += 4.0 * spec.eps / h**2
            for di, dj, coef in (
                (1, 0, -spec.eps / h**2 + w1(x, y) / (2 * h)),
                (-1, 0, -spec.eps / h**2 - w1(x, y) / (2 * h)),
                (0, 1, -spec.eps / h**2 + w2(x, y) / (2 * h)),
                (0, -1, -spec.eps / h**2 - w2(x, y) / (2 * h)),
            ):
                ni, nj = i + di, j + dj
                if 0 <= ni < n_int and 0 <= nj < n_int:
                    mat[row, idx(ni, nj)] += coef
                else:
                    rhs[row] -= coef * u_boundary(gi + di, gj + dj)
    return mat, rhs


@pytest.mark.parametrize("n,eps", [(16, 0.1), (12, 0.5), (10, 0.05)])
def test_assembly_matches_stencil_oracle(n, eps):
    spec = ConvDiffSpec(n=n, eps=eps)
    sys = assemble_kron(build_convdiff(spec))
    mat, rhs = stencil_oracle(spec)
    np.testing.assert_allclose(sys.matrix, mat, atol=1e-12)
    np.testing.assert_allclose(sys.b, rhs, atol=1e-12)


def test_vec_consistency_of_direct_solution():
    sys = assemble_kron(build_convdiff(ConvDiffSpec(n=16, eps=0.1)))
    x = direct_solve(sys)
    res = sys.matrix @ x.flatten(order="F") - sys.b
    assert np.linalg.norm(res) <= 1e-10 * np.linalg.norm(sys.b)


def test_large_diffusion_limit():
    spec = ConvDiffSpec(n=32, eps=1e3)
    eq = build_convdiff(spec)
    x_full = direct_solve(assemble_kron(eq))
    # Pure diffusion with the same boundary data: keep the first two terms
    # and the matching right-hand side (drop the advective lifting column).
    n_int = spec.n - 2
    ones = np.ones(n_int)
    e_first = np.zeros(n_int)
    e_first[0] = 1.0
    eq_diff = MultitermEquation(
        terms=[eq.terms[0], eq.terms[1]],
        C=np.column_stack([ones, e_first]),
        D=np.column_stack([ones, spec.eps / spec.h**2 * ones]),
    )
    x_diff = direct_solve(assemble_kron(eq_diff))
    rel = np.linalg.norm(x_full - x_diff) / np.linalg.norm(x_diff)
    assert rel <= 1e-2


def test_rhs_rank_two_and_full_column_rank():
    eq = build_convdiff(ConvDiffSpec(n=64, eps=0.1))
    assert eq.q == 2
    for factor in (eq.C, eq.D):
        svals = np.linalg.svd(factor, compute_uv=False)
        assert svals[-1] > 1e-10 * svals[0]


@pytest.mark.parametrize("eps", [0.1, 0.01])
def test_assembly_nonsingular(eps):
    sys = assemble_kron(build_convdiff(ConvDiffSpec(n=32, eps=eps)))
    assert np.linalg.cond(sys.matrix) < 1e12


def test_spec_validation():
    with pytest.raises(ValueError):
        ConvDiffSpec(n=3, eps=0.1)
    with pytest.raises(ValueError):
        ConvDiffSpec(n=16, eps=0.0)


def test_manifest_round_trip(tmp_path):
    rng = np.random.default_rng(0)
    eq = build_convdiff(ConvDiffSpec(n=16, eps=0.1))
    manifest = save_manifest(eq, tmp_path / "eq")
    loaded = load_manifest(manifest)
    assert loaded.p == eq.p and loaded.q == eq.q
    probe = rng.standard_normal((eq.n_A, 3))
    for (a0, b0), (a1, b1) in zip(eq.terms, loaded.terms):
        np.testing.assert_allclose(a1 @ probe, a0 @ probe, atol=1e-14)
        np.testing.assert_allclose(b1.T @ probe, b0.T @ probe, atol=1e-14)
    np.testing.assert_allclose(loaded.C, eq.C, atol=0)
    np.testing.assert_allclose(loaded.D, eq.D, atol=0)


def test_malformed_header_names_line(tmp_path):
    rng = np.random.default_rng(1)
    eq = build_convdiff(ConvDiffSpec(n=10, eps=0.1))
    manifest = save_manifest(eq, tmp_path / "eq")
    bad = tmp_path / "eq" / "A_1.mtx"
    bad.write_text("not a matrix market file\n1 2 3\n")
    with pytest.raises(ManifestError, match=r"A_1\.mtx:1"):
        load_manifest(manifest)


def test_dimension_mismatch_rejected(tmp_path):
    eq = build_convdiff(ConvDiffSpec(n=10, eps=0.1))
    manifest = save_manifest(eq, tmp_path / "eq")
    data = json.loads(manifest.read_text())
    data["n_A"] = 99
    manifest.write_text(json.dumps(data))
    with pytest.raises(ManifestError, match="expected shape"):
        load_manifest(manifest)


def test_manifest_with_precond_hints_still_loads(tmp_path):
    # Manifests written before the key was dropped carry "precond_hints".
    eq = build_convdiff(ConvDiffSpec(n=10, eps=0.1))
    manifest = save_manifest(eq, tmp_path / "eq")
    data = json.loads(manifest.read_text())
    assert "precond_hints" not in data
    data["precond_hints"] = {"kind": "two_term_adi", "indices": [0, 1]}
    manifest.write_text(json.dumps(data))
    loaded = load_manifest(manifest)
    assert loaded.p == eq.p and loaded.q == eq.q
    np.testing.assert_array_equal(loaded.C, eq.C)


def test_missing_manifest_key_rejected(tmp_path):
    eq = build_convdiff(ConvDiffSpec(n=10, eps=0.1))
    manifest = save_manifest(eq, tmp_path / "eq")
    data = json.loads(manifest.read_text())
    del data["C"]
    manifest.write_text(json.dumps(data))
    with pytest.raises(ManifestError, match="missing"):
        load_manifest(manifest)


def test_sparse_right_hand_side_factors_are_stored_dense(tmp_path):
    # Each of these raised "setting an array element with a sequence."
    eq = build_convdiff(ConvDiffSpec(n=10, eps=0.1))
    manifest = save_manifest(eq, tmp_path / "eq")
    array_format = load_manifest(manifest)
    mmwrite(manifest.parent / "C.mtx", sp.coo_matrix(eq.C), precision=17)
    coordinate_format = load_manifest(manifest)
    assert type(coordinate_format.C) is np.ndarray
    np.testing.assert_array_equal(coordinate_format.C, eq.C)

    cfg = SolverConfig(tol=1e-8, sketch_seed=7, truncation=TruncationConfig(maxrank=20),
                       preconditioner=PreconditionerSpec.two_term_adi(
                           shift_source="analytic_laplacian"))

    def outcome(equation):
        x, rep = solve(equation, cfg)
        return rep.status, rep.iterations, rep.ranks, true_residual(equation, x)

    want = outcome(array_format)
    assert want[0] == "converged"
    assert outcome(coordinate_format) == want
    assert outcome(MultitermEquation(eq.terms, C=sp.csr_matrix(eq.C), D=eq.D)) == want
    assert outcome(MultitermEquation(eq.terms, C=sp.coo_array(eq.C),
                                     D=sp.coo_array(eq.D))) == want


def test_rank_deficient_rhs_warns(tmp_path):
    rng = np.random.default_rng(2)
    n = 12
    eye = sp.identity(n, format="csr")
    u = rng.standard_normal((n, 1))
    eq = MultitermEquation(terms=[(eye, eye)], C=np.hstack([u, u]),
                           D=rng.standard_normal((n, 2)))
    manifest = save_manifest(eq, tmp_path / "eq")
    with pytest.warns(RuntimeWarning, match="rank deficient"):
        load_manifest(manifest)


def _unparseable(directory, data):
    (directory / data["A"][0]).write_text(
        "%%MatrixMarket matrix coordinate real general\n3 3 1\nx y z\n")
    return data


@pytest.mark.parametrize(("corrupt", "message"), [
    (_unparseable, r"A_1\.mtx: failed to parse: Line 3"),
    (None, "invalid JSON"),
    (lambda _, data: data | {"A": data["A"][:1]}, "expected 2 coefficient pairs, found 1 / 2"),
    (lambda _, data: data | {"B": data["A"]}, r"A_1\.mtx: expected shape \(5, 5\), got \(4, 4\)"),
    (lambda _, data: data | {"q": 3}, r"C has shape \(4, 2\), expected \(4, 3\)"),
    (lambda _, data: [], "expected a JSON object, got list"),
    (lambda _, data: data | {"A": None}, "A must be a list of file names, got null"),
    (lambda _, data: data | {"B": ["B_1.mtx", 2]}, r"B must be a list of file names, got \["),
    (lambda _, data: data | {"C": 5}, "C must be a file name, got 5"),
    (lambda _, data: data | {"p": [1]}, r"p must be an integer, got \[1\]"),
    (lambda _, data: data | {"p": 2.7}, "p must be an integer, got 2.7"),
    (lambda _, data: data | {"q": True}, "q must be an integer, got true"),
    (lambda _, data: data | {"n_A": "4"}, 'n_A must be an integer, got "4"'),
], ids=["unparseable-matrix", "invalid-json", "pair-count", "B-shape", "C-shape",
        "top-level-list", "A-null", "B-non-string", "C-number", "p-list", "p-float", "q-bool",
        "n_A-string"])
def test_malformed_manifest_names_what_is_wrong(tmp_path, corrupt, message):
    rng = np.random.default_rng(3)
    eq = MultitermEquation(
        terms=[(sp.identity(4, format="csr"), sp.identity(5, format="csr"))] * 2,
        C=rng.standard_normal((4, 2)), D=rng.standard_normal((5, 2)))
    manifest = save_manifest(eq, tmp_path / "eq")
    if corrupt is None:
        manifest.write_text("{not json")
    else:
        manifest.write_text(json.dumps(corrupt(manifest.parent, json.loads(manifest.read_text()))))
    with pytest.raises(ManifestError, match=message):
        load_manifest(manifest)
