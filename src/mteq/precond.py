"""One-term and two-term (ADI) preconditioning of factored residuals.

A one-term preconditioner inverts a single coefficient pair exactly through
cached sparse factorizations. A two-term preconditioner approximates the
inverse of a Sylvester-form leading part ``X -> A X + X B`` by a fixed
number of factored ADI iterations with Wachspress shift parameters derived
from spectral intervals of the two coefficients. A coefficient whose band
is narrow next to its nonzeros is factored by LAPACK's banded LU, any other
by SuperLU.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass

import mpmath as mp
import numpy as np
import scipy.sparse as sp
import scipy.sparse.linalg as spla
from scipy.linalg.lapack import dgbtrf, dgbtrs

from .lowrank import LowRankMatrix
from .operator import MultitermEquation


@dataclass(frozen=True)
class PreconditionerSpec:
    """Selection of the preconditioning strategy.

    ``kind`` is one of ``"none"``, ``"one_term"`` or ``"two_term_adi"``.
    Term indices are zero-based. For ``one_term``, ``index`` names the term
    whose coefficient pair is inverted. For ``two_term_adi``, ``indices``
    names the pair of terms whose left/right coefficients form the
    Sylvester leading part, and ``shift_source`` is ``"analytic_laplacian"``
    (closed-form interval of a scaled 1D Dirichlet second-difference matrix)
    or ``"estimated"`` (power iterations on the symmetric part).
    """

    kind: str = "none"
    index: int = 0
    indices: tuple[int, int] = (0, 1)
    t_adi: int = 8
    shift_source: str = "estimated"

    def __post_init__(self):
        if self.kind not in ("none", "one_term", "two_term_adi"):
            raise ValueError(f"unknown preconditioner kind {self.kind!r}")
        if self.shift_source not in ("analytic_laplacian", "estimated"):
            raise ValueError(f"unknown shift source {self.shift_source!r}")
        if self.t_adi < 1:
            raise ValueError("t_adi must be at least 1")

    @classmethod
    def none(cls) -> "PreconditionerSpec":
        return cls(kind="none")

    @classmethod
    def one_term(cls, index: int) -> "PreconditionerSpec":
        return cls(kind="one_term", index=index)

    @classmethod
    def two_term_adi(
        cls,
        indices: tuple[int, int] = (0, 1),
        t_adi: int = 8,
        shift_source: str = "estimated",
    ) -> "PreconditionerSpec":
        return cls(
            kind="two_term_adi",
            indices=tuple(indices),
            t_adi=t_adi,
            shift_source=shift_source,
        )


def _elliptic_shifts(a: float, b: float, t_adi: int) -> np.ndarray:
    """Classical min-max shifts for a positive interval [a, b].

    Evaluated through Jacobi elliptic functions:
    ``p_j = b * dn((2j - 1) K(m) / (2 t), m)`` with ``m = 1 - (a/b)**2``.
    The shifts decrease strictly from just below ``b`` to just above ``a``.
    mpmath is used because ``m`` approaches 1 for stiff intervals.
    """
    if a == b:
        return np.full(t_adi, a)
    m = 1.0 - (a / b) ** 2
    with mp.workdps(30):
        big_k = mp.ellipk(m)
        shifts = [
            float(b * mp.ellipfun("dn", (2 * j - 1) * big_k / (2 * t_adi), m=m))
            for j in range(1, t_adi + 1)
        ]
    return np.array(shifts)


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
    return sign * _elliptic_shifts(min(a, c), max(b, d), t_adi)


def analytic_laplacian_interval(matrix) -> tuple[float, float]:
    """Closed-form extreme eigenvalues of a scaled 1D Dirichlet second-difference matrix.

    Assumes ``matrix = c * tridiag(-1, 2, -1) / h**2`` for some positive
    scaling, so its constant diagonal determines ``c / h**2`` and the
    eigenvalues are ``4 c / h**2 * sin(k pi / (2 (N + 1)))**2``.
    """
    n = matrix.shape[0]
    diag = matrix.diagonal() if sp.issparse(matrix) else np.diagonal(matrix)
    d0 = float(diag[0])
    lo = 2.0 * d0 * np.sin(np.pi / (2 * (n + 1))) ** 2
    hi = 2.0 * d0 * np.sin(n * np.pi / (2 * (n + 1))) ** 2
    return lo, hi


def estimated_interval(
    matrix, iters: int = 20, tol: float = 1e-2, inflation: float = 1.05, seed: int = 0,
    name: str = "A",
) -> tuple[float, float]:
    """Spectral interval of the symmetric part by power/inverse-power iteration.

    The endpoints are widened by ``inflation`` for safety; shift quality
    degrades gracefully with loose intervals. A singular symmetric part
    raises ``ValueError`` naming the coefficient as ``name``.
    """
    n = matrix.shape[0]
    sym = 0.5 * (matrix + matrix.T)
    sym_csc = sp.csc_matrix(sym) if sp.issparse(sym) else sp.csc_matrix(np.asarray(sym))
    rng = np.random.default_rng(seed)

    v = rng.standard_normal(n)
    v /= np.linalg.norm(v)
    lam_hi = 0.0
    for _ in range(iters):
        w = sym_csc @ v
        lam = float(v @ w)
        nw = np.linalg.norm(w)
        if nw == 0.0:
            break
        v = w / nw
        if lam_hi and abs(lam - lam_hi) <= tol * abs(lam):
            lam_hi = lam
            break
        lam_hi = lam

    lu = _factor(sym_csc, f"the symmetric part of {name}")
    v = rng.standard_normal(n)
    v /= np.linalg.norm(v)
    lam_lo = 0.0
    for _ in range(iters):
        w = lu.solve(v)
        nw = np.linalg.norm(w)
        if nw == 0.0:
            break
        w /= nw
        lam = float(w @ (sym_csc @ w))
        v = w
        if lam_lo and abs(lam - lam_lo) <= tol * abs(lam):
            lam_lo = lam
            break
        lam_lo = lam

    if lam_lo == 0.0 or lam_hi == 0.0 or np.sign(lam_lo) != np.sign(lam_hi):
        raise ValueError(
            "estimated spectral interval of the symmetric part is indefinite"
        )
    lo, hi = sorted((lam_lo, lam_hi), key=abs)
    return lo / inflation if lo > 0 else lo * inflation, \
        hi * inflation if hi > 0 else hi / inflation


class _BandedLU:
    """LAPACK banded LU (``gbtrf``) of a matrix with ``kl`` sub- and ``ku``
    super-diagonals, solved through ``gbtrs``."""

    def __init__(self, coo: sp.coo_matrix, kl: int, ku: int):
        band = np.zeros((2 * kl + ku + 1, coo.shape[1]), order="F")
        band[kl + ku + coo.row - coo.col, coo.col] = coo.data
        self._lu, self._piv, info = dgbtrf(band, kl, ku, overwrite_ab=1)
        if info > 0:
            raise np.linalg.LinAlgError(f"gbtrf: U[{info - 1}, {info - 1}] is exactly zero")
        self._kl, self._ku = kl, ku

    def solve(self, b: np.ndarray) -> np.ndarray:
        return dgbtrs(self._lu, self._kl, self._ku, b, self._piv)[0]


def _factor(matrix, label: str):
    """LU factors of a square matrix, solved through ``.solve(b)``.

    A matrix whose band storage, ``(2 kl + ku + 1) n`` entries, is at most
    twice its nonzeros (diagonal, tri- and pentadiagonal ones) goes to
    LAPACK's banded LU; any other, such as a 2D stencil, to SuperLU. A
    singular matrix raises ``ValueError`` naming it as ``label``.
    """
    coo = sp.coo_matrix(matrix)
    coo.sum_duplicates()  # the band is filled by assignment
    offsets = coo.col - coo.row
    kl, ku = max(-offsets.min(initial=0), 0), max(offsets.max(initial=0), 0)
    try:
        if (2 * kl + ku + 1) * coo.shape[1] <= 2 * coo.nnz:
            return _BandedLU(coo, kl, ku)
        return spla.splu(coo.tocsc())
    except (np.linalg.LinAlgError, RuntimeError) as exc:  # SuperLU raises RuntimeError
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
    factorizations are made once, at construction. A side whose coefficient
    is exactly the identity is not factorized, and its factor passes through
    untouched. A singular coefficient raises ``ValueError`` naming it by
    ``names``.
    """

    def __init__(self, a, b, names: tuple[str, str] = ("A", "B")):
        self._lu_a = None if _identity_deviation(a) == 0.0 else _factor(a, names[0])
        self._lu_bt = None if _identity_deviation(b) == 0.0 \
            else _factor(b.T, f"{names[1]}^T")

    def apply(self, r: LowRankMatrix) -> LowRankMatrix:
        if r.is_zero:
            return r
        left = self._lu_a.solve(r.left) if self._lu_a is not None else r.left
        right = self._lu_bt.solve(r.right) if self._lu_bt is not None else r.right
        return LowRankMatrix(left, r.core, right)


class TwoTermAdiPreconditioner:
    """Fixed-budget factored ADI inverse of a Sylvester operator ``X -> A X + X B``.

    ``shifts`` is the shift sequence, one per sweep, as returned by
    :func:`wachspress_shifts`. The shifted factorizations of
    ``A + shifts[m] I`` and ``B.T + shifts[m] I`` are made once, at
    construction. Each application runs ``len(shifts)`` sweeps, costs one
    block solve per side and sweep, and accumulates the iterate as a sum of
    rank-``r`` outer products, one per sweep, so the output width is
    ``len(shifts) * rank(r)`` (callers typically truncate after). A singular
    shifted matrix raises ``ValueError`` naming the coefficient by ``names``
    and giving the shift.
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
        s = self.shifts
        v = self._a_lus[0].solve(r.left @ r.core)
        w = self._bt_lus[0].solve(r.right)
        lefts = [v]
        rights = [w]
        coeffs = [s[0] + s[0]]
        for m in range(1, len(s)):
            v = v - (s[m] + s[m - 1]) * self._a_lus[m].solve(v)
            w = w - (s[m] + s[m - 1]) * self._bt_lus[m].solve(w)
            lefts.append(v)
            rights.append(w)
            coeffs.append(s[m] + s[m])
        rank = r.core.shape[1]
        core = np.kron(np.diag(coeffs), np.eye(rank))
        return LowRankMatrix(np.hstack(lefts), core, np.hstack(rights))


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
    indices = (spec.index,) if spec.kind == "one_term" else spec.indices
    if not all(0 <= i < eq.p for i in indices):
        raise ValueError(f"term indices {indices} outside 0..{eq.p - 1}")
    if spec.kind == "one_term":
        k = spec.index + 1
        return OneTermPreconditioner(*eq.terms[spec.index], names=(f"A_{k}", f"B_{k}"))
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
        intervals = analytic_laplacian_interval(a), analytic_laplacian_interval(b)
    else:
        intervals = estimated_interval(a, name=names[0]), estimated_interval(b, name=names[1])
    return TwoTermAdiPreconditioner(
        a, b, wachspress_shifts(*intervals, spec.t_adi), names=names)
