"""Benchmark problem generators and on-disk equation ingestion.

The built-in benchmark discretizes the steady convection-diffusion problem

    -eps * lap(u) + w . grad(u) = 1   on (-1, 1)^2,

with a recirculating wind ``w(x, y) = (2y(1 - x^2), -2x(1 - y^2))``,
homogeneous Dirichlet data except ``u(-1, y) = 1``, and centered finite
differences on a uniform grid. Because the wind components separate into
products of one-variable functions, the discrete operator is a four-term
matrix equation with a rank-2 right-hand side.

Generic equations are exchanged on disk as Matrix Market files tied
together by a JSON manifest.
"""

from __future__ import annotations

import json
import math
import numbers
import warnings
from dataclasses import dataclass
from pathlib import Path

import numpy as np
import scipy.sparse as sp
from scipy.io import mmread, mmwrite

from .operator import MultitermEquation


class ManifestError(ValueError):
    """Malformed manifest or matrix file."""


@dataclass(frozen=True)
class ConvDiffSpec:
    """Grid resolution (points per dimension, boundary included) and diffusion coefficient."""

    n: int
    eps: float

    def __post_init__(self):
        if not isinstance(self.n, numbers.Integral) or self.n < 4:
            raise ValueError(f"n (grid points per dimension) must be an integer of at "
                             f"least 4, got {self.n!r}")
        if not 0 < self.eps < math.inf:
            raise ValueError(f"eps (the diffusion coefficient) must lie in (0, inf), "
                             f"got {self.eps}")

    @property
    def h(self) -> float:
        return 2.0 / (self.n - 1)


def build_convdiff(spec: ConvDiffSpec) -> MultitermEquation:
    """Assemble the four-term convection-diffusion matrix equation.

    Dirichlet rows are eliminated, so the coefficient matrices act on the
    ``n - 2`` interior nodes per dimension. Rows index ``x``, columns
    ``y``. The right-hand side collects the unit source and the lifting of
    the inhomogeneous inflow boundary ``u(-1, y) = 1`` into two outer
    products.
    """
    n_int = spec.n - 2
    h = spec.h
    nodes = -1.0 + h * np.arange(1, n_int + 1)

    second = sp.diags(
        [-1.0, 2.0, -1.0], [-1, 0, 1], shape=(n_int, n_int), format="csr"
    ) / h**2
    first = sp.diags(
        [-1.0, 1.0], [-1, 1], shape=(n_int, n_int), format="csr"
    ) / (2.0 * h)
    eye = sp.identity(n_int, format="csr")

    # Wind component factors: w = (phi1(x) psi1(y), phi2(x) psi2(y)).
    phi1 = sp.diags(1.0 - nodes**2)
    psi1 = sp.diags(2.0 * nodes)
    phi2 = sp.diags(-2.0 * nodes)
    psi2 = sp.diags(1.0 - nodes**2)

    a1 = (spec.eps * second).tocsr()
    b2 = (spec.eps * second).tocsr()
    a3 = (phi1 @ first).tocsr()
    b3 = psi1.tocsr()
    a4 = phi2.tocsr()
    b4 = (first.T @ psi2).tocsr()

    ones = np.ones(n_int)
    e_first = np.zeros(n_int)
    e_first[0] = 1.0
    # Boundary lifting at the first interior x-row: the eliminated value
    # u(-1, y) = 1 feeds both the second-difference and the x-advection
    # stencils there.
    phi1_first = 1.0 - nodes[0] ** 2
    lift = spec.eps / h**2 * ones + phi1_first / (2.0 * h) * (2.0 * nodes)

    c = np.column_stack([ones, e_first])
    d = np.column_stack([ones, lift])

    return MultitermEquation(
        terms=[(a1, eye), (eye, b2), (a3, b3), (a4, b4)], C=c, D=d
    )


def _read_matrix(path: Path):
    with open(path) as handle:
        banner = handle.readline()
    if not banner.startswith("%%MatrixMarket"):
        raise ManifestError(
            f"{path}:1: not a Matrix Market header (got {banner.strip()!r})"
        )
    try:
        m = mmread(path)
    except ValueError as exc:
        raise ManifestError(f"{path}: failed to parse: {exc}") from exc
    return m.tocsr() if sp.issparse(m) else np.asarray(m, dtype=float)


def save_manifest(eq: MultitermEquation, directory) -> Path:
    """Write an equation as Matrix Market files plus ``manifest.json``.

    Sparse coefficients use coordinate format, dense right-hand-side
    factors use array format; 17 significant digits round-trip doubles
    exactly. Returns the manifest path.
    """
    directory = Path(directory)
    directory.mkdir(parents=True, exist_ok=True)
    manifest = {"format": "mteq-manifest", "version": 1, "p": eq.p, "q": eq.q,
                "n_A": eq.n_A, "n_B": eq.n_B, "A": [], "B": [], "C": "C.mtx", "D": "D.mtx"}
    for i, pair in enumerate(eq.terms, start=1):
        for key, coeff in zip("AB", pair):
            name = f"{key}_{i}.mtx"
            mmwrite(directory / name, sp.coo_matrix(coeff), precision=17)
            manifest[key].append(name)
    mmwrite(directory / "C.mtx", eq.C, precision=17)
    mmwrite(directory / "D.mtx", eq.D, precision=17)
    path = directory / "manifest.json"
    path.write_text(json.dumps(manifest, indent=2))
    return path


_ENTRY_TYPES = {"A": list, "B": list, "C": str, "D": str,
                "p": int, "q": int, "n_A": int, "n_B": int}
_TYPE_NAMES = {list: "a list of file names", str: "a file name", int: "an integer"}


def load_manifest(path) -> MultitermEquation:
    """Read an equation back from a manifest written by :func:`save_manifest`.

    Checks each entry's JSON type and that every file matches the dimensions
    recorded in the manifest; warns when the right-hand-side factors are
    numerically rank deficient. Manifest keys beyond those it reads are ignored.
    """
    path = Path(path)
    try:
        data = json.loads(path.read_text())
    except json.JSONDecodeError as exc:
        raise ManifestError(f"{path}: invalid JSON: {exc}") from exc
    if not isinstance(data, dict):
        raise ManifestError(f"{path}: expected a JSON object, got {type(data).__name__}")
    for key, kind in _ENTRY_TYPES.items():
        if key not in data:
            raise ManifestError(f"manifest is missing the {key!r} entry")
        value = data[key]
        if type(value) is not kind or kind is list and not all(type(v) is str for v in value):
            raise ManifestError(
                f"{path}: {key} must be {_TYPE_NAMES[kind]}, got {json.dumps(value)}")
    a_paths, b_paths, c_path, d_path, p, q, n_a, n_b = (data[key] for key in _ENTRY_TYPES)
    base = path.parent

    if len(a_paths) != p or len(b_paths) != p:
        raise ManifestError(
            f"{path}: expected {p} coefficient pairs, found "
            f"{len(a_paths)} / {len(b_paths)}"
        )
    terms = []
    for a_rel, b_rel in zip(a_paths, b_paths):
        a = _read_matrix(base / a_rel)
        b = _read_matrix(base / b_rel)
        if a.shape != (n_a, n_a):
            raise ManifestError(
                f"{base / a_rel}: expected shape ({n_a}, {n_a}), got {a.shape}"
            )
        if b.shape != (n_b, n_b):
            raise ManifestError(
                f"{base / b_rel}: expected shape ({n_b}, {n_b}), got {b.shape}"
            )
        terms.append((a, b))
    c = np.asarray(_read_matrix(base / c_path), dtype=float)
    d = np.asarray(_read_matrix(base / d_path), dtype=float)
    for name, factor, rows in (("C", c, n_a), ("D", d, n_b)):
        if factor.shape != (rows, q):
            raise ManifestError(
                f"{path}: {name} has shape {factor.shape}, expected ({rows}, {q})"
            )
        svals = np.linalg.svd(factor, compute_uv=False)
        if svals.size and svals[-1] <= 1e-12 * svals[0]:
            warnings.warn(
                f"right-hand-side factor {name} is numerically rank deficient",
                RuntimeWarning,
            )
    return MultitermEquation(terms=terms, C=c, D=d)
