"""Dense complex matrix primitives shared by the map and certificate layers.

Conventions used throughout:

* matrices are numpy arrays of dtype complex128, row major;
* spectra and singular values are reported in descending order;
* polar factors satisfy ``x = unitary_factor @ positive_factor``;
* tolerances are the named constants ``_DROP_TOL`` 1e-14, ``CONSTRUCTION_TOL``
  1e-12, ``_REG_TOL`` 1e-10, ``PSD_TOL`` 1e-9 and ``_CHECK_TOL`` 1e-8; every
  scaled check compares against ``_threshold``, ``tol * max(1, magnitude)``;
* ``spectral_norm``, ``singular_values``, ``is_normal``, ``is_contraction``,
  ``mat_abs``, ``polar`` and ``geometric_mean`` take one matrix or a stack of
  shape ``(..., k, k)``, as ``numpy.linalg`` does, and decide every rule
  (the zero convention, scales, shifts, floors) per member. A stacked call
  returns the bits of the calls on its members one at a time.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import NamedTuple, Optional, Sequence

import numpy as np

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

_DROP_TOL = 1e-14  # Kraus factors at or below it are dropped, so compositions stay small
CONSTRUCTION_TOL = 1e-12  # identities that hold by construction, the phase gauge, the search floor
_REG_TOL = 1e-10  # the geometric mean's shift, the Hermitian check of a Schur symbol
PSD_TOL = 1e-9  # PSD spectra, unitality, the Loewner and log-majorization defaults
_CHECK_TOL = 1e-8  # Hermitian and normal input checks, certify.DEFAULT_TOL


def _threshold(tol: float, magnitude):
    """The scaled threshold of every tolerance check: ``tol * max(1, magnitude)``, per member."""
    return tol * np.maximum(1.0, magnitude)


def _is_psd(spectrum, magnitude):
    """Whether ``min(spectrum) >= -_threshold(PSD_TOL, magnitude)``, per member."""
    return spectrum.min(axis=-1) >= -_threshold(PSD_TOL, magnitude)


def _hermitian_within(x, tol: float, magnitude):
    """Whether ``max |x - x*|`` is within ``_threshold(tol, magnitude)``, per member."""
    return np.abs(x - _adjoint(x)).max(axis=(-2, -1)) <= _threshold(tol, magnitude)


def _contracting(norm):
    """The contraction rule: a spectral norm of at most ``1 + CONSTRUCTION_TOL``."""
    return norm <= 1.0 + CONSTRUCTION_TOL


def as_matrix(x, *, square: bool = False, name: str = "matrix") -> np.ndarray:
    """Coerce ``x`` to a finite complex 2-d array, optionally enforcing squareness."""
    a = np.asarray(x, dtype=complex)
    if a.ndim != 2:
        raise ValueError(f"{name} must be 2-dimensional, got shape {a.shape}")
    return _as_stack(a, name, square=square)


def _as_stack(x, name: str, *, square: bool = True) -> np.ndarray:
    """Coerce ``x`` to a finite, nonempty complex array of one matrix or a stack of matrices."""
    a = np.asarray(x, dtype=complex)
    if a.ndim < 2:
        raise ValueError(f"{name} must be a matrix or a stack of matrices, got shape {a.shape}")
    if a.size == 0:
        raise ValueError(f"{name} must not be empty, got shape {a.shape}")
    if not np.isfinite(a).all():
        raise ValueError(f"{name} has non-finite entries")
    if square and a.shape[-1] != a.shape[-2]:
        raise ValueError(f"{name} must be square, got shape {a.shape}")
    return a


def _adjoint(x: np.ndarray) -> np.ndarray:
    """The conjugate transpose of a matrix or of each matrix in a stack."""
    return x.conj().swapaxes(-1, -2)


def _hermitian(x: np.ndarray) -> np.ndarray:
    return (x + _adjoint(x)) / 2.0


def _item(value):
    """A per-member result: a Python scalar for one matrix, an array for a stack."""
    value = np.asarray(value)
    return value.item() if value.ndim == 0 else value


def hermitian_part(x) -> np.ndarray:
    """(x + x*)/2 with ``*`` the adjoint; not to be confused with conj_real_part."""
    return _hermitian(as_matrix(x, square=True))


def spectral_norm(x):
    """Largest singular value: a float for one matrix, an array for a stack.

    ``svd(x, compute_uv=False)[..., 0]`` has the bits of ``norm(x, 2)``.
    """
    return _item(np.linalg.svd(_as_stack(x, "x", square=False), compute_uv=False)[..., 0])


def singular_values(x) -> np.ndarray:
    """Singular values in descending order, along the last axis for a stack."""
    return np.linalg.svd(_as_stack(x, "x", square=False), compute_uv=False)


def is_hermitian(x, tol: float = CONSTRUCTION_TOL) -> bool:
    """Entrywise Hermitian test relative to the largest entry."""
    x = as_matrix(x, name="x")
    if x.shape[0] != x.shape[1]:
        return False
    return bool(_hermitian_within(x, tol, np.abs(x).max()))


def is_normal(x):
    """Whether ``||x x* - x* x||`` is within ``_threshold(_CHECK_TOL, ||x||^2)``, per member."""
    x = _as_stack(x, "x")
    comm = x @ _adjoint(x) - _adjoint(x) @ x
    return _item(spectral_norm(comm) <= _threshold(_CHECK_TOL, spectral_norm(x) ** 2))


def is_contraction(z):
    """Whether the spectral norm is at most ``1 + CONSTRUCTION_TOL``: per member for a stack."""
    return _item(_contracting(spectral_norm(_as_stack(z, "z", square=False))))


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
        nz = np.flatnonzero(np.abs(col) > CONSTRUCTION_TOL)
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


def _abs_from_svd(s: np.ndarray, vh: np.ndarray) -> np.ndarray:
    """``|x| = vh* diag(s) vh`` from the SVD ``x = u diag(s) vh``, as a Hermitian part."""
    return _hermitian((_adjoint(vh) * s[..., None, :]) @ vh)


def mat_abs(x) -> np.ndarray:
    """Matrix absolute value ``(x* x)^(1/2)``, computed from the SVD of ``x``."""
    _, s, vh = np.linalg.svd(_as_stack(x, "x"))
    return _abs_from_svd(s, vh)


def polar(x) -> PolarFactors:
    """Polar decomposition ``x = w @ p`` with ``w`` unitary and ``p = |x|``.

    The unitary factor is completed from the singular bases, so it stays fully
    unitary for singular inputs; by convention ``polar(0) = (identity, 0)``,
    decided per member of a stack.
    """
    x = _as_stack(x, "x")
    u, s, vh = np.linalg.svd(x)
    zero = np.all(s[..., :1] == 0.0, axis=-1)[..., None, None]
    unitary = np.where(zero, np.eye(x.shape[-1]), u @ vh)
    return PolarFactors(unitary, np.where(zero, 0.0, _abs_from_svd(s, vh)))


def geometric_mean(a, b) -> np.ndarray:
    """Loewner geometric mean of two PSD matrices of equal size, or of two stacks.

    For an invertible pair this is ``a^(1/2) (a^(-1/2) b a^(-1/2))^(1/2) a^(1/2)``,
    from eigendecompositions of ``a``, ``b`` and the middle factor. The input
    checks read the magnitude ``|eigenvalues of a and b|``. Near-singular pairs
    are shifted once by ``eps * I``, ``eps = 1e-10 * max(1, magnitude)``; that
    value defines the result, and callers comparing against it on singular
    inputs must budget an O(sqrt(eps)) perturbation. Scale, checks and shift
    are each member's own.
    """
    a = _as_stack(a, "a")
    b = _as_stack(b, "b")
    if a.shape != b.shape:
        raise ValueError(f"shape mismatch: {a.shape} vs {b.shape}")
    hb = _hermitian(b)
    w, v = np.linalg.eigh(_hermitian(a))
    wb = np.linalg.eigvalsh(hb)
    magnitude = np.maximum(np.abs(w).max(axis=-1), np.abs(wb).max(axis=-1))
    for name, x in (("a", a), ("b", b)):
        if not np.all(_hermitian_within(x, _CHECK_TOL, magnitude)):
            raise ValueError(f"{name} is not Hermitian")
    if not np.all(_is_psd(w, magnitude) & _is_psd(wb, magnitude)):
        raise ValueError("geometric mean needs positive semidefinite inputs")
    eps = _threshold(_REG_TOL, magnitude)[..., None]
    shift = (w.min(axis=-1, keepdims=True) < eps) | (wb.min(axis=-1, keepdims=True) < eps)
    # a + eps I has the eigenvectors of a; unshifted members keep their bits.
    w = np.where(shift, w + eps, w)
    hb = np.where(shift[..., None], hb + eps[..., None] * np.eye(a.shape[-1]), hb)
    w = np.maximum(w, eps)
    root = (v * np.sqrt(w)[..., None, :]) @ _adjoint(v)
    inv_root = (v / np.sqrt(w)[..., None, :]) @ _adjoint(v)
    mw, mv = np.linalg.eigh(_hermitian(inv_root @ hb @ inv_root))
    middle = (mv * np.sqrt(np.maximum(mw, 0.0))[..., None, :]) @ _adjoint(mv)
    return _hermitian(root @ _hermitian(middle) @ root)


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
        if not is_hermitian(x, _CHECK_TOL):
            raise ValueError(f"{name} is not Hermitian")
    return _loewner_verdict(a, b, tol)


def _loewner_verdict(a: np.ndarray, b: np.ndarray, tol: float) -> LoewnerCheck:
    """``loewner_leq`` without its Hermitian checks, for sides just formed as Hermitian parts.

    On two stacks, ``passed`` and the floor are per member and ``slack_spectrum``
    has one descending row per member.
    """
    if a.shape != b.shape:
        raise ValueError(f"shape mismatch: {a.shape} vs {b.shape}")
    slack = np.linalg.eigvalsh(_hermitian(b - a))[..., ::-1]
    return LoewnerCheck(_item(slack[..., -1] >= -_threshold(tol, spectral_norm(b))), slack)


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
    if arr.size and np.any(np.diff(arr) > _threshold(CONSTRUCTION_TOL, arr[0])):
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
    out = np.zeros(tuple(np.sum([m.shape for m in mats], axis=0)), dtype=complex)
    r = c = 0
    for m in mats:
        out[r : r + m.shape[0], c : c + m.shape[1]] = m
        r, c = r + m.shape[0], c + m.shape[1]
    return out


def conj_real_part(a) -> np.ndarray:
    """(a + conj(a)) / 2 with the entrywise conjugate: the real part of each entry.

    The result is a real-valued matrix (returned with complex dtype); it is not
    Hermitian unless ``a`` itself has the required symmetry.
    """
    a = as_matrix(a, square=True, name="a")
    return (a + np.conj(a)) / 2.0


# ---------------------------------------------------------------------------
# Seeded generators. ``seed`` may be an int or a sequence of ints, which fully
# determines the output, or a ``numpy.random.Generator``, which is drawn from
# in place. The private helpers draw a stack of ``count`` members at once.
# ---------------------------------------------------------------------------


def _rng(seed) -> np.random.Generator:
    return np.random.default_rng(seed)


def _complex_gaussian(rng: np.random.Generator, count: int, rows: int, cols: int) -> np.ndarray:
    shape = (count, rows, cols)
    return (rng.standard_normal(shape) + 1j * rng.standard_normal(shape)) / np.sqrt(2.0)


def _haar(rng: np.random.Generator, count: int, n: int) -> np.ndarray:
    # One stacked QR of complex Gaussians, with the R-diagonal phase fix.
    q, r = np.linalg.qr(_complex_gaussian(rng, count, n, n))
    d = np.diagonal(r, axis1=-2, axis2=-1)
    size = np.abs(d)
    phases = np.where(size > 0, d / np.where(size > 0, size, 1.0), 1.0)
    return q * phases[..., None, :]


def _normals(rng: np.random.Generator, count: int, n: int) -> np.ndarray:
    """``count`` normal matrices ``u diag(z) u*``, all unitaries drawn first."""
    u = _haar(rng, count, n)
    z = rng.standard_normal((count, n)) + 1j * rng.standard_normal((count, n))
    # Column k of u[i] times z[i, k], taken through a broadcast of the (n, count, n)
    # view: numpy then runs the elementwise loop of the one-matrix product u * z,
    # whose bits ``random_normal`` keeps (a same-shape product rounds differently at n = 1).
    scaled = (u.transpose(1, 0, 2) * z).transpose(1, 0, 2)
    return scaled @ _adjoint(u)


def _contractions(g: np.ndarray) -> np.ndarray:
    """Each member of a stack rescaled to spectral norm at most one, by one stacked SVD."""
    return g / np.maximum(1.0, spectral_norm(g))[..., None, None]


def random_matrix(seed, rows: int, cols: Optional[int] = None) -> np.ndarray:
    """Complex Gaussian matrix with unit-variance entries."""
    if rows < 1:
        raise ValueError("rows must be >= 1")
    cols = rows if cols is None else cols
    if cols < 1:
        raise ValueError("cols must be >= 1")
    return _complex_gaussian(_rng(seed), 1, rows, cols)[0]


def random_normal(seed, n: int) -> np.ndarray:
    """Random normal matrix u diag(z) u*, normal by construction.

    ``u`` is approximately Haar distributed and ``z`` is complex Gaussian.
    """
    if n < 1:
        raise ValueError("n must be >= 1")
    return _normals(_rng(seed), 1, n)[0]


def random_psd(seed, n: int) -> np.ndarray:
    """Random positive semidefinite matrix g g* / n, exactly Hermitian."""
    if n < 1:
        raise ValueError("n must be >= 1")
    g = _complex_gaussian(_rng(seed), 1, n, n)[0]
    p = g @ g.conj().T / n
    return (p + p.conj().T) / 2.0


def haar_unitary(seed, n: int) -> np.ndarray:
    if n < 1:
        raise ValueError("n must be >= 1")
    return _haar(_rng(seed), 1, n)[0]


def random_contraction(seed, n: int) -> np.ndarray:
    """Gaussian matrix rescaled to spectral norm at most one."""
    if n < 1:
        raise ValueError("n must be >= 1")
    return _contractions(_complex_gaussian(_rng(seed), 1, n, n))[0]
