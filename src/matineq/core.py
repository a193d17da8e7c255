"""Dense complex matrix primitives shared by the map and certificate layers.

Conventions used throughout:

* matrices are numpy arrays of dtype complex128, row major;
* spectra and singular values are reported in descending order;
* polar factors satisfy ``x = unitary_factor @ positive_factor``;
* tolerances are relative to ``max(1, scale)`` of the quantity they guard.

Tolerance tiers: construction identities 1e-12, reconstructions 1e-10,
Loewner / positivity checks 1e-9.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import NamedTuple, Optional, Sequence

import numpy as np
import scipy.linalg

__all__ = [
    "CONSTRUCTION_TOL",
    "PSD_TOL",
    "SpectralData",
    "PolarFactors",
    "LoewnerCheck",
    "MajorizationReport",
    "as_matrix",
    "hermitian_part",
    "spectral_norm",
    "singular_values",
    "is_hermitian",
    "is_normal",
    "is_contraction",
    "herm_eig",
    "mat_abs",
    "polar",
    "geometric_mean",
    "loewner_leq",
    "weak_log_majorize",
    "schur_prod",
    "direct_sum",
    "conj_real_part",
    "random_matrix",
    "random_normal",
    "random_psd",
    "haar_unitary",
    "random_contraction",
]

CONSTRUCTION_TOL = 1e-12
PSD_TOL = 1e-9

# Shift used when the geometric mean has to handle (near-)singular inputs.
_GEOMEAN_REG = 1e-10


def as_matrix(x, *, square: bool = False, name: str = "matrix") -> np.ndarray:
    """Coerce ``x`` to a finite complex 2-d array, optionally enforcing squareness."""
    a = np.asarray(x, dtype=complex)
    if a.ndim != 2:
        raise ValueError(f"{name} must be 2-dimensional, got shape {a.shape}")
    if not np.isfinite(a).all():
        raise ValueError(f"{name} has non-finite entries")
    if square and a.shape[0] != a.shape[1]:
        raise ValueError(f"{name} must be square, got shape {a.shape}")
    return a


def hermitian_part(x) -> np.ndarray:
    """(x + x*)/2 with ``*`` the adjoint; not to be confused with conj_real_part."""
    x = as_matrix(x, square=True)
    return (x + x.conj().T) / 2.0


def spectral_norm(x) -> float:
    return float(np.linalg.norm(as_matrix(x), 2))


def singular_values(x) -> np.ndarray:
    """Singular values in descending order."""
    return np.linalg.svd(as_matrix(x), compute_uv=False)


def is_hermitian(x, tol: float = CONSTRUCTION_TOL) -> bool:
    """Entrywise Hermitian test relative to the largest entry."""
    x = as_matrix(x)
    if x.shape[0] != x.shape[1]:
        return False
    scale = max(1.0, float(np.abs(x).max()))
    return float(np.abs(x - x.conj().T).max()) <= tol * scale


def is_normal(x, tol: float = 1e-8) -> bool:
    """Whether ``x`` commutes with its adjoint, relative to ``max(1, ||x||^2)``."""
    x = as_matrix(x, square=True)
    comm = x @ x.conj().T - x.conj().T @ x
    scale = max(1.0, spectral_norm(x) ** 2)
    return spectral_norm(comm) <= tol * scale


def is_contraction(z, tol: float = CONSTRUCTION_TOL) -> bool:
    return spectral_norm(z) <= 1.0 + tol


class SpectralData(NamedTuple):
    """Descending eigenvalues paired with the columns of a unitary eigenbasis."""

    eigenvalues: np.ndarray
    eigenvectors: np.ndarray


class PolarFactors(NamedTuple):
    """Factors (w, p) of x = w @ p with w unitary and p = |x|."""

    unitary_factor: np.ndarray
    positive_factor: np.ndarray


class LoewnerCheck(NamedTuple):
    """Outcome of a Loewner-order test together with the slack spectrum."""

    passed: bool
    slack_spectrum: np.ndarray


def _fix_phases(vectors: np.ndarray) -> np.ndarray:
    # Deterministic gauge: first nonzero component of each column made real positive.
    v = vectors.copy()
    for j in range(v.shape[1]):
        col = v[:, j]
        nz = np.flatnonzero(np.abs(col) > 1e-12)
        if nz.size:
            pivot = col[nz[0]]
            v[:, j] = col * (np.conj(pivot) / abs(pivot))
    return v


def herm_eig(h, *, herm_tol: float = CONSTRUCTION_TOL) -> SpectralData:
    """Eigendecomposition of a Hermitian matrix, descending, with a fixed phase gauge.

    Ties in the eigenvalue order keep the LAPACK basis; every eigenvector is
    rescaled so its first nonzero component is real positive, which makes the
    output reproducible for golden tests.
    """
    h = as_matrix(h, square=True, name="h")
    if not is_hermitian(h, herm_tol):
        raise ValueError("herm_eig requires a Hermitian input")
    w, v = np.linalg.eigh((h + h.conj().T) / 2.0)
    order = np.argsort(-w, kind="stable")
    return SpectralData(w[order], _fix_phases(v[:, order]))


def mat_abs(x) -> np.ndarray:
    """Matrix absolute value ``(x* x)^(1/2)``, computed from the SVD of ``x``."""
    x = as_matrix(x, square=True, name="x")
    _, s, vh = np.linalg.svd(x)
    a = (vh.conj().T * s) @ vh
    return (a + a.conj().T) / 2.0


def polar(x) -> PolarFactors:
    """Polar decomposition ``x = w @ p`` with ``w`` unitary and ``p = |x|``.

    The unitary factor is completed from the singular bases, so it stays fully
    unitary for singular inputs; by convention ``polar(0) = (identity, 0)``.
    """
    x = as_matrix(x, square=True, name="x")
    n = x.shape[0]
    u, s, vh = np.linalg.svd(x)
    if not s.size or s[0] == 0.0:
        return PolarFactors(np.eye(n, dtype=complex), np.zeros((n, n), dtype=complex))
    w = u @ vh
    p = (vh.conj().T * s) @ vh
    return PolarFactors(w, (p + p.conj().T) / 2.0)


def geometric_mean(a, b) -> np.ndarray:
    """Loewner geometric mean of two PSD matrices of equal size.

    For an invertible pair this is ``a^(1/2) (a^(-1/2) b a^(-1/2))^(1/2) a^(1/2)``,
    from eigendecompositions of ``a``, ``b`` and the middle factor. The input
    checks use ``scale = max(1, |eigenvalues of a and b|)``. Near-singular
    pairs are shifted once by ``eps * I`` with ``eps = 1e-10 * scale``; that
    value defines the result, and callers comparing against it on singular
    inputs must budget an O(sqrt(eps)) perturbation.
    """
    a = as_matrix(a, square=True, name="a")
    b = as_matrix(b, square=True, name="b")
    if a.shape != b.shape:
        raise ValueError(f"shape mismatch: {a.shape} vs {b.shape}")
    hb = hermitian_part(b)
    w, v = np.linalg.eigh(hermitian_part(a))
    wb = np.linalg.eigvalsh(hb)
    scale = max(1.0, float(np.abs(w).max()), float(np.abs(wb).max()))
    for name, x in (("a", a), ("b", b)):
        if float(np.abs(x - x.conj().T).max()) > 1e-8 * scale:
            raise ValueError(f"{name} is not Hermitian")
    if w.min() < -PSD_TOL * scale or wb.min() < -PSD_TOL * scale:
        raise ValueError("geometric mean needs positive semidefinite inputs")
    eps = _GEOMEAN_REG * scale
    if w.min() < eps or wb.min() < eps:
        # a + eps I has the eigenvectors of a.
        w = w + eps
        hb = hb + eps * np.eye(a.shape[0])
    w = np.maximum(w, eps)
    root = (v * np.sqrt(w)) @ v.conj().T
    inv_root = (v / np.sqrt(w)) @ v.conj().T
    mw, mv = np.linalg.eigh(hermitian_part(inv_root @ hb @ inv_root))
    middle = (mv * np.sqrt(np.maximum(mw, 0.0))) @ mv.conj().T
    g = root @ ((middle + middle.conj().T) / 2.0) @ root
    return (g + g.conj().T) / 2.0


def loewner_leq(a, b, tol: float = PSD_TOL) -> LoewnerCheck:
    """Test ``a <= b`` in the Loewner order, reporting the slack spectrum of b - a.

    Passes iff the smallest eigenvalue of ``b - a`` is at least
    ``-tol * max(1, ||b||)``: the tolerance scales with the right-hand side,
    the bound being certified. The full descending slack spectrum is always
    returned for reporting.
    """
    a = as_matrix(a, square=True, name="a")
    b = as_matrix(b, square=True, name="b")
    for name, x in (("a", a), ("b", b)):
        if not is_hermitian(x, 1e-8):
            raise ValueError(f"{name} is not Hermitian")
    return _loewner_verdict(a, b, tol)


def _loewner_verdict(a: np.ndarray, b: np.ndarray, tol: float) -> LoewnerCheck:
    """``loewner_leq`` without its Hermitian checks, for sides just formed as Hermitian parts."""
    if a.shape != b.shape:
        raise ValueError(f"shape mismatch: {a.shape} vs {b.shape}")
    diff = b - a
    slack = np.sort(np.linalg.eigvalsh((diff + diff.conj().T) / 2.0))[::-1]
    floor = _loewner_floor(tol, float(np.linalg.norm(b, 2)))
    passed = bool(slack[-1] >= floor) if slack.size else True
    return LoewnerCheck(passed, slack)


def _loewner_floor(tol: float, rhs_norm: float) -> float:
    """The least slack eigenvalue a Loewner verdict accepts: ``-tol * max(1, ||rhs||)``."""
    return -tol * max(1.0, rhs_norm)


@dataclass(frozen=True, eq=False)
class MajorizationReport:
    """Prefix-product comparison of two descending nonnegative sequences."""

    a: np.ndarray
    b: np.ndarray
    prefix_a: np.ndarray
    prefix_b: np.ndarray
    margins: np.ndarray
    tol: float
    passed: bool
    first_violation: Optional[int]

    @property
    def min_slack(self) -> float:
        return float(self.margins.min()) if self.margins.size else 0.0


def _descending_nonneg(seq, name: str) -> np.ndarray:
    arr = np.asarray(seq, dtype=float).ravel()
    if not np.isfinite(arr).all():
        raise ValueError(f"{name} has non-finite entries")
    if arr.size and arr.min() < 0.0:
        raise ValueError(f"{name} must be nonnegative")
    if arr.size > 1:
        slack = 1e-12 * max(1.0, float(arr[0]))
        if np.any(np.diff(arr) > slack):
            raise ValueError(f"{name} must be sorted in descending order")
    return arr


def weak_log_majorize(a, b, tol: float = PSD_TOL) -> MajorizationReport:
    """Weak log-majorization test via direct prefix products.

    Passes iff for every k the product of the k largest entries of ``a`` is at
    most ``(1 + tol)^k`` times the corresponding product for ``b``. Comparing
    products directly (no logarithms) keeps zero entries unproblematic.
    """
    a = _descending_nonneg(a, "a")
    b = _descending_nonneg(b, "b")
    if a.shape != b.shape:
        raise ValueError(f"length mismatch: {a.size} vs {b.size}")
    prefix_a = np.cumprod(a)
    prefix_b = np.cumprod(b)
    bound = prefix_b * (1.0 + tol) ** np.arange(1, a.size + 1)
    ok = prefix_a <= bound
    bad = np.flatnonzero(~ok)
    return MajorizationReport(
        a=a,
        b=b,
        prefix_a=prefix_a,
        prefix_b=prefix_b,
        margins=bound - prefix_a,
        tol=tol,
        passed=bool(ok.all()),
        first_violation=int(bad[0]) + 1 if bad.size else None,
    )


def schur_prod(a, b) -> np.ndarray:
    """Entrywise (Hadamard) product of two matrices of identical shape."""
    a = as_matrix(a, name="a")
    b = as_matrix(b, name="b")
    if a.shape != b.shape:
        raise ValueError(f"shape mismatch: {a.shape} vs {b.shape}")
    return a * b


def direct_sum(mats: Sequence) -> np.ndarray:
    """Block-diagonal stacking of a nonempty list of matrices."""
    mats = [as_matrix(m, name=f"mats[{i}]") for i, m in enumerate(mats)]
    if not mats:
        raise ValueError("direct_sum needs at least one matrix")
    return scipy.linalg.block_diag(*mats).astype(complex)


def conj_real_part(a) -> np.ndarray:
    """(a + conj(a)) / 2 with the entrywise conjugate: the real part of each entry.

    The result is a real-valued matrix (returned with complex dtype); it is not
    Hermitian unless ``a`` itself has the required symmetry.
    """
    a = as_matrix(a, square=True, name="a")
    return (a + np.conj(a)) / 2.0


# ---------------------------------------------------------------------------
# Seeded generators. ``seed`` may be an int or a sequence of ints and fully
# determines the output.
# ---------------------------------------------------------------------------


def _rng(seed) -> np.random.Generator:
    return np.random.default_rng(seed)


def _complex_gaussian(rng: np.random.Generator, rows: int, cols: int) -> np.ndarray:
    return (rng.standard_normal((rows, cols)) + 1j * rng.standard_normal((rows, cols))) / np.sqrt(2.0)


def _haar(rng: np.random.Generator, n: int) -> np.ndarray:
    # QR of a complex Gaussian with the R-diagonal phase fix.
    q, r = np.linalg.qr(_complex_gaussian(rng, n, n))
    d = np.diagonal(r)
    phases = np.where(np.abs(d) > 0, d / np.abs(np.where(np.abs(d) > 0, d, 1.0)), 1.0)
    return q * phases


def random_matrix(seed, rows: int, cols: Optional[int] = None) -> np.ndarray:
    """Complex Gaussian matrix with unit-variance entries."""
    if rows < 1:
        raise ValueError("rows must be >= 1")
    cols = rows if cols is None else cols
    if cols < 1:
        raise ValueError("cols must be >= 1")
    return _complex_gaussian(_rng(seed), rows, cols)


def random_normal(seed, n: int) -> np.ndarray:
    """Random normal matrix u diag(z) u*, normal by construction.

    ``u`` is approximately Haar distributed and ``z`` is complex Gaussian.
    """
    if n < 1:
        raise ValueError("n must be >= 1")
    rng = _rng(seed)
    u = _haar(rng, n)
    z = rng.standard_normal(n) + 1j * rng.standard_normal(n)
    return (u * z) @ u.conj().T


def random_psd(seed, n: int) -> np.ndarray:
    """Random positive semidefinite matrix g g* / n, exactly Hermitian."""
    if n < 1:
        raise ValueError("n must be >= 1")
    g = _complex_gaussian(_rng(seed), n, n)
    p = g @ g.conj().T / n
    return (p + p.conj().T) / 2.0


def haar_unitary(seed, n: int) -> np.ndarray:
    if n < 1:
        raise ValueError("n must be >= 1")
    return _haar(_rng(seed), n)


def random_contraction(seed, n: int) -> np.ndarray:
    """Gaussian matrix rescaled to spectral norm at most one."""
    if n < 1:
        raise ValueError("n must be >= 1")
    g = _complex_gaussian(_rng(seed), n, n)
    return g / max(1.0, float(np.linalg.norm(g, 2)))
