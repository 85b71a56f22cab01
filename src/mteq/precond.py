"""One-term and two-term (ADI) preconditioning of factored residuals.

A one-term preconditioner inverts a single coefficient pair exactly through
cached sparse factorizations. A two-term preconditioner approximates the
inverse of a Sylvester-form leading part ``X -> A X + X B`` by a fixed
number of factored ADI iterations with Wachspress shift parameters (Jacobi
elliptic functions from :mod:`scipy.special`) derived from spectral
intervals of the two coefficients, closed-form or estimated: a Gershgorin
bound at the end of largest magnitude, ARPACK's Lanczos on the inverse at
the end nearest zero (widened by a module constant, from a seeded start).
A symmetric positive definite tridiagonal coefficient is factored by
LAPACK's LDL^T, any other by SuperLU.
"""

from __future__ import annotations

import math
import numbers
import warnings
from dataclasses import dataclass

import numpy as np
import scipy.sparse as sp
import scipy.sparse.linalg as spla
from scipy.linalg.lapack import dpttrf, dpttrs
from scipy.special import ellipj, ellipk

from .lowrank import LowRankMatrix
from .operator import MultitermEquation


@dataclass(frozen=True)
class PreconditionerSpec:
    """Selection of the preconditioning strategy.

    ``kind`` is one of ``"none"``, ``"one_term"`` or ``"two_term_adi"``.
    ``indices`` holds zero-based integer term indices, as many as the kind uses:
    none for ``none``; for ``one_term`` the one term whose coefficient pair
    is inverted; for ``two_term_adi`` the pair of terms whose left/right
    coefficients form the Sylvester leading part. ``t_adi`` (the number of
    ADI sweeps) and ``shift_source`` are set for ``two_term_adi`` and only
    for it; :meth:`two_term_adi` gives their defaults. ``shift_source`` is
    ``"analytic_laplacian"`` (closed-form interval of a positive multiple
    of ``tridiag(-1, 2, -1)``) or ``"estimated"`` (:func:`estimated_interval`).
    """

    kind: str = "none"
    indices: tuple[int, ...] = ()
    t_adi: int | None = None
    shift_source: str | None = None

    def __post_init__(self):
        arity = {"none": 0, "one_term": 1, "two_term_adi": 2}.get(self.kind)
        if arity is None:
            raise ValueError(f"unknown preconditioner kind {self.kind!r}")
        object.__setattr__(self, "indices", tuple(self.indices))
        if len(self.indices) != arity or not all(
                isinstance(i, numbers.Integral) for i in self.indices):
            raise ValueError(f"{self.kind} takes {arity} term indices (integers), "
                             f"got indices={self.indices!r}")
        if self.kind != "two_term_adi":
            if (self.t_adi, self.shift_source) != (None, None):
                raise ValueError(f"{self.kind} takes no t_adi or shift_source")
            return
        if self.shift_source not in ("analytic_laplacian", "estimated"):
            raise ValueError(f"unknown shift source {self.shift_source!r}")
        if not isinstance(self.t_adi, numbers.Integral) or self.t_adi < 1:
            raise ValueError(f"t_adi must be at least 1 and a whole number of sweeps, "
                             f"got {self.t_adi!r}")

    @classmethod
    def none(cls) -> "PreconditionerSpec":
        return cls(kind="none")

    @classmethod
    def one_term(cls, index: int) -> "PreconditionerSpec":
        return cls(kind="one_term", indices=(index,))

    @classmethod
    def two_term_adi(
        cls,
        indices: tuple[int, int] = (0, 1),
        t_adi: int = 8,
        shift_source: str = "estimated",
    ) -> "PreconditionerSpec":
        return cls(kind="two_term_adi", indices=indices, t_adi=t_adi,
                   shift_source=shift_source)


def wachspress_shifts(
    interval_left: tuple[float, float],
    interval_right: tuple[float, float],
    t_adi: int,
) -> np.ndarray:
    """ADI shift parameters, one per sweep, for spectra in the two given real intervals.

    Both intervals must lie strictly on the same side of zero. The
    parameters are computed on the interval hull of the two spectra, and
    both sides of the ADI iteration share the sequence; when the intervals
    coincide (the common case of equal row and column operators) this is
    the classical optimal choice, otherwise it remains convergent but
    suboptimal.

    On the hull ``[a, b]`` the shifts are the classical min-max ones,
    ``p_j = b * dn((2j - 1) K(m) / (2 t), m)`` with ``m = 1 - (a/b)**2``,
    from scipy's ``ellipk`` and ``ellipj`` at the float64 modulus. They
    decrease strictly from just below ``b`` to just above ``a``; ``a == b``
    gives ``m = 0`` and ``t`` copies of ``a``. A hull too stiff for the
    float64 modulus (an end ratio from about 2e8, where ``m`` rounds to 1
    and ``K(m)`` is infinite) gives non-finite shifts and raises
    ``ValueError`` naming the hull.
    """
    a, b = map(float, interval_left)
    c, d = map(float, interval_right)
    if not (a <= b and c <= d):
        raise ValueError("intervals must be ordered (low, high)")
    if min(a, c) > 0:
        sign = 1.0
    elif max(b, d) < 0:
        sign = -1.0
        a, b, c, d = -b, -a, -d, -c
    else:
        raise ValueError(
            "spectral intervals touch or straddle zero; ADI needs a "
            "definite leading operator"
        )
    lo, hi = min(a, c), max(b, d)
    m = 1.0 - (lo / hi) ** 2
    u = (2 * np.arange(1, t_adi + 1) - 1) * ellipk(m) / (2 * t_adi)
    shifts = sign * hi * ellipj(u, m)[2]
    if not np.isfinite(shifts).all():
        hull = sorted((sign * lo, sign * hi))
        raise ValueError(
            f"ADI shifts on the spectral hull [{hull[0]:.6g}, {hull[1]:.6g}] (end ratio "
            f"{hi / lo:.3g}) are not finite: the elliptic modulus rounds to 1")
    return shifts


def analytic_laplacian_interval(matrix, name: str = "A") -> tuple[float, float]:
    """Closed-form extreme eigenvalues of a scaled 1D Dirichlet second-difference matrix.

    For ``matrix = c * tridiag(-1, 2, -1)`` with ``c > 0`` (``c = eps / h**2``
    in the benchmark) the eigenvalues are ``4 c sin(k pi / (2 (N + 1)))**2``.
    Any other matrix, entries off by more than ``1e-12 c`` included, raises
    ``ValueError`` naming the coefficient as ``name``: the formula would
    give a wrong interval for it.
    """
    n = matrix.shape[0]
    csr = sp.csr_matrix(matrix)
    d0 = float(csr[0, 0])
    lap = sp.diags([-1.0, 2.0, -1.0], [-1, 0, 1], shape=(n, n))
    if not d0 > 0 or abs(csr - 0.5 * d0 * lap).max() > 1e-12 * d0:
        raise ValueError(f"{name} is not a positive multiple of tridiag(-1, 2, -1), "
                         "so the analytic_laplacian shift source does not apply")
    lo = 2.0 * d0 * np.sin(np.pi / (2 * (n + 1))) ** 2
    hi = 2.0 * d0 * np.sin(n * np.pi / (2 * (n + 1))) ** 2
    return lo, hi


#: Factor by which :func:`estimated_interval` widens the end nearest zero.
INFLATION = 1.05
#: Seed of the Lanczos start vector of :func:`estimated_interval`.
START_SEED = 0


def estimated_interval(matrix, name: str = "A") -> tuple[float, float]:
    """Spectral interval ``(low, high)`` of the symmetric part of a definite matrix.

    The symmetric part is factored once, by SuperLU in symmetric mode with
    diagonal pivots only (an LDL^T). By Sylvester's law of inertia the
    pivot signs are the eigenvalue signs, so a singular part, an
    off-diagonal pivot (which no definite matrix needs) or pivots of both
    signs raise ``ValueError`` naming the coefficient as ``name``. The end
    of largest magnitude is the largest absolute row sum of the symmetric
    part, a guaranteed bound (Gershgorin). The end nearest zero is ARPACK's
    Lanczos (``eigsh``) on the inverse through the same factor, seeded by
    :data:`START_SEED` and widened towards zero by :data:`INFLATION`, a
    margin rather than a proof. A negative definite part gets the mirror
    image of its negation's interval.
    """
    n = matrix.shape[0]
    sym = sp.csc_matrix(0.5 * (matrix + matrix.T))
    label = f"the symmetric part of {name}"
    try:
        lu = spla.splu(sym, permc_spec="MMD_AT_PLUS_A", diag_pivot_thresh=0.0,
                       options={"SymmetricMode": True})
    except RuntimeError as exc:  # SuperLU's report of an exactly singular matrix
        raise ValueError(f"{label} is singular; the preconditioner cannot factor it") from exc
    negative = int((lu.U.diagonal() < 0).sum())
    off_diagonal = not np.array_equal(lu.perm_r, lu.perm_c)
    if off_diagonal or 0 < negative < n:
        raise ValueError(
            f"{label} is indefinite ({negative} negative and {n - negative} positive "
            f"pivots{', one off the diagonal' if off_diagonal else ''}); ADI needs a "
            "definite leading operator")
    if n == 1:  # ARPACK needs more dimensions than eigenvalues sought
        near = float(sym[0, 0])
    else:
        inverse = spla.LinearOperator((n, n), matvec=lu.solve, dtype=float)
        v0 = np.random.default_rng(START_SEED).standard_normal(n)
        near = 1.0 / spla.eigsh(inverse, k=1, v0=v0, return_eigenvectors=False)[0]
    far = math.copysign(float(abs(sym).sum(axis=1).max()), near)
    return tuple(sorted((near / INFLATION, far)))


class _TridiagonalLDLt:
    """LAPACK LDL^T (``pttrf``) of a symmetric positive definite tridiagonal
    matrix, solved through ``pttrs``."""

    def __init__(self, d: np.ndarray, e: np.ndarray):
        self._d, self._e = d, e

    def solve(self, b: np.ndarray) -> np.ndarray:
        return dpttrs(self._d, self._e, b)[0]


def _factor(matrix, label: str):
    """Factors of a square matrix, solved through ``.solve(b)``.

    A symmetric positive definite matrix with no entry off the three middle
    diagonals goes to LAPACK's LDL^T, any other to SuperLU. A singular
    matrix raises ``ValueError`` naming it as ``label``.
    """
    coo = sp.coo_matrix(matrix)
    coo.sum_duplicates()  # the band is filled by assignment
    offsets = coo.col - coo.row
    if np.abs(offsets).max(initial=0) <= 1:
        rows = np.zeros((3, coo.shape[1]))  # column i: A[i, i-1], A[i, i], A[i, i+1]
        rows[1 + offsets, coo.row] = coo.data
        if np.array_equal(rows[0, 1:], rows[2, :-1]):
            d, e, info = dpttrf(rows[1], rows[2, :-1], overwrite_d=1, overwrite_e=1)
            if info == 0:  # else not positive definite: SuperLU takes it
                return _TridiagonalLDLt(d, e)
    try:
        return spla.splu(coo.tocsc())
    except RuntimeError as exc:  # SuperLU's report of an exactly singular matrix
        raise ValueError(
            f"{label} is singular; the preconditioner cannot factor it") from exc


def _shifted(name: str, shift: float) -> str:
    return f"{name} + q I at ADI shift q = {shift:.6g}"


def _identity_deviation(matrix) -> float:
    """Largest absolute entry of ``matrix - I``."""
    eye = sp.identity(matrix.shape[0], format=matrix.format) \
        if sp.issparse(matrix) else np.eye(matrix.shape[0])
    return float(abs(matrix - eye).max())


class NonePreconditioner:
    """Identity preconditioner; returns its argument unchanged."""

    def apply(self, r: LowRankMatrix) -> LowRankMatrix:
        return r


class OneTermPreconditioner:
    """Exact inverse of a single coefficient pair: ``r -> A^{-1} r B^{-1}``.

    Factor-wise: the left factor is solved with ``A``, the right factor
    with ``B.T``, and the core is unchanged, so the rank is preserved. Both
    factorizations are made once, at construction. An identity side goes
    through its LDL^T like any other, which returns its factor unchanged.
    A singular coefficient raises ``ValueError`` naming it by ``names``.
    """

    def __init__(self, a, b, names: tuple[str, str] = ("A", "B")):
        self._lu_a = _factor(a, names[0])
        self._lu_bt = _factor(b.T, f"{names[1]}^T")

    def apply(self, r: LowRankMatrix) -> LowRankMatrix:
        if r.is_zero:
            return r
        return LowRankMatrix(self._lu_a.solve(r.left), r.core, self._lu_bt.solve(r.right))


class TwoTermAdiPreconditioner:
    """Fixed-budget factored ADI inverse of a Sylvester operator ``X -> A X + X B``.

    ``shifts`` is the shift sequence, one per sweep, as returned by
    :func:`wachspress_shifts`. The shifted factorizations of
    ``A + shifts[m] I`` and ``B.T + shifts[m] I`` are made once, at
    construction. Each application runs ``len(shifts)`` sweeps, costs one
    block solve per side and sweep, and accumulates the iterate as a sum of
    rank-``r`` outer products, one per sweep, so the output width is
    ``len(shifts) * rank(r)`` (callers typically truncate after). Sweep
    ``m`` writes columns ``m * rank(r)`` onwards of one Fortran-ordered
    factor per side, the layout LAPACK's QR in the compression takes.
    A singular shifted matrix raises ``ValueError`` naming the coefficient
    by ``names`` and giving the shift.
    """

    def __init__(self, a, b, shifts: np.ndarray, names: tuple[str, str] = ("A", "B")):
        self.shifts = shifts
        eye_a = sp.identity(a.shape[0])
        eye_b = sp.identity(b.shape[0])
        self._a_lus = [_factor(a + q * eye_a, _shifted(names[0], q)) for q in shifts]
        self._bt_lus = [_factor(b.T + q * eye_b, _shifted(f"{names[1]}^T", q))
                        for q in shifts]

    def apply(self, r: LowRankMatrix) -> LowRankMatrix:
        if r.is_zero:
            return LowRankMatrix.zeros(*r.shape)
        s, rank = self.shifts, r.core.shape[1]
        left = np.empty((r.shape[0], len(s) * rank), order="F")
        right = np.empty((r.shape[1], len(s) * rank), order="F")
        left[:, :rank] = self._a_lus[0].solve(r.left @ r.core)
        right[:, :rank] = self._bt_lus[0].solve(r.right)
        for m in range(1, len(s)):
            prev, cur = slice((m - 1) * rank, m * rank), slice(m * rank, (m + 1) * rank)
            for lus, factor in ((self._a_lus, left), (self._bt_lus, right)):
                v = factor[:, prev]
                np.subtract(v, (s[m] + s[m - 1]) * lus[m].solve(v), out=factor[:, cur])
        core = np.kron(np.diag(s + s), np.eye(rank))
        return LowRankMatrix(left, core, right)


def build_preconditioner(eq: MultitermEquation, spec: PreconditionerSpec):
    """Instantiate the preconditioner described by ``spec`` for ``eq``.

    Checks the term indices against ``eq.p``. For ``two_term_adi``, the
    leading part is the row-side coefficient of the first designated term
    and the column-side coefficient of the second; their companion
    coefficients should be the identity, and a warning is raised when they
    are not. The shifts come from the spectral intervals named by
    ``spec.shift_source``. Errors name the coefficients one-based, as
    :class:`MultitermEquation` does (``A_1``, ``B_2``).
    """
    if spec.kind == "none":
        return NonePreconditioner()
    if not all(0 <= i < eq.p for i in spec.indices):
        raise ValueError(f"term indices {spec.indices} outside 0..{eq.p - 1}")
    if spec.kind == "one_term":
        (i,) = spec.indices
        return OneTermPreconditioner(*eq.terms[i], names=(f"A_{i + 1}", f"B_{i + 1}"))
    i, j = spec.indices
    a, b = eq.terms[i][0], eq.terms[j][1]
    names = (f"A_{i + 1}", f"B_{j + 1}")
    for companion, name in ((eq.terms[i][1], "right"), (eq.terms[j][0], "left")):
        if _identity_deviation(companion) > 1e-12:
            warnings.warn(
                f"{name} companion of the designated leading terms deviates "
                "from the identity; the ADI preconditioner targets "
                "A X + X B and will be inexact",
                RuntimeWarning,
            )
    if spec.shift_source == "analytic_laplacian":
        intervals = (analytic_laplacian_interval(a, name=names[0]),
                     analytic_laplacian_interval(b, name=names[1]))
    else:
        intervals = estimated_interval(a, name=names[0]), estimated_interval(b, name=names[1])
    return TwoTermAdiPreconditioner(
        a, b, wachspress_shifts(*intervals, spec.t_adi), names=names)
