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
  returns the bits of the calls on its members one at a time;
  ``weak_log_majorize`` does the same for stacks of sequences ``(..., k)``,
  and ``hermitian_part``, ``conj_real_part`` and ``direct_sum`` take stacks too.
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
_REG_TOL = 1e-10  # the geometric mean's shift
PSD_TOL = 1e-9  # PSD spectra, unitality, the Loewner and log-majorization defaults
_CHECK_TOL = 1e-8  # every Hermitian-input check, the normal input check, certify.DEFAULT_TOL


def _refuse(ok, name: str, what: str) -> None:
    """Refuse an input that lacks a property its statement assumes: ``{name} must be {what}``."""
    if not ok:
        raise ValueError(f"{name} must be {what}")


def _check_tol(tol: float) -> None:
    """Refuse a tolerance outside ``[0, inf)``: a negative, infinite or NaN one decides every check alike."""
    if not 0.0 <= tol < np.inf:
        raise ValueError(f"tol must be finite and nonnegative, got {tol!r}")


def _check_size(value, name: str) -> None:
    """Refuse a size or count unless it is an integer (a numpy one too, not a bool) of at least 1."""
    if isinstance(value, bool) or not isinstance(value, (int, np.integer)) or value < 1:
        raise ValueError(f"{name} must be an integer >= 1, got {value!r}")


def _check_index(value, name: str) -> None:
    """Refuse a seed or trial index unless it is an integer (a numpy one too, not a bool) of at least 0."""
    _refuse(isinstance(value, (int, np.integer)) and not isinstance(value, bool), name, "an integer")
    _refuse(value >= 0, name, "nonnegative")


def _check_nonempty(items, name: str) -> None:
    """Refuse a list (or any sequence) of length 0."""
    if len(items) == 0:
        raise ValueError(f"{name} must not be empty")


def _check_same_shape(arrays: Sequence, names: Sequence[str]) -> None:
    """Refuse arrays unless each has the shape of the first, naming the first that differs."""
    for a, name in zip(arrays[1:], names[1:]):
        if a.shape != arrays[0].shape:
            raise ValueError(f"shape mismatch: {names[0]} {arrays[0].shape} vs {name} {a.shape}")


def _threshold(tol: float, magnitude):
    """The scaled threshold of every tolerance check: ``tol * max(1, magnitude)``, per member."""
    _check_tol(tol)
    return tol * np.maximum(1.0, magnitude)


def _is_psd(spectrum, magnitude):
    """Whether ``min(spectrum) >= -_threshold(PSD_TOL, magnitude)``, per member."""
    return spectrum.min(axis=-1) >= -_threshold(PSD_TOL, magnitude)


def _hermitian_within(x):
    """The Hermitian-input rule: ``max |x - x*| <= _threshold(_CHECK_TOL, max |x|)``, per member."""
    largest = np.abs(x).max(axis=(-2, -1))
    return np.abs(x - _adjoint(x)).max(axis=(-2, -1)) <= _threshold(_CHECK_TOL, largest)


def _contracting(norm):
    """The contraction rule: a spectral norm of at most ``1 + CONSTRUCTION_TOL``."""
    return norm <= 1.0 + CONSTRUCTION_TOL


def _numeric(x, name: str) -> np.ndarray:
    """``x`` as a complex array, refused by ``name`` first unless its entries are numbers or bools.

    A string, ``None`` or any other object would otherwise reach the cast, and
    fail there unnamed or turn into NaN.
    """
    a = np.asarray(x)
    _refuse(a.dtype.kind in "biufc", name, "numeric")
    return a.astype(complex, copy=False)


def as_matrix(x, *, square: bool = False, name: str = "matrix") -> np.ndarray:
    """Coerce ``x`` to a finite complex 2-d array, optionally enforcing squareness."""
    a = _numeric(x, name)
    if a.ndim != 2:
        raise ValueError(f"{name} must be 2-dimensional, got shape {a.shape}")
    return _as_stack(a, name, square=square)


def _as_stack(x, name: str, *, square: bool = True) -> np.ndarray:
    """Coerce ``x`` to a finite, nonempty complex array of one matrix or a stack of matrices."""
    a = _numeric(x, name)
    if a.ndim < 2:
        raise ValueError(f"{name} must be a matrix or a stack of matrices, got shape {a.shape}")
    if a.size == 0:
        raise ValueError(f"{name} must not be empty, got shape {a.shape}")
    _refuse(np.isfinite(a).all(), name, "finite")
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
    """(x + x*)/2 with ``*`` the adjoint, of each matrix of a stack; not to be confused with conj_real_part."""
    return _hermitian(_as_stack(x, "matrix"))


def spectral_norm(x):
    """Largest singular value: a float for one matrix, an array for a stack.

    ``svd(x, compute_uv=False)[..., 0]`` has the bits of ``norm(x, 2)``.
    """
    return _item(np.linalg.svd(_as_stack(x, "x", square=False), compute_uv=False)[..., 0])


def singular_values(x) -> np.ndarray:
    """Singular values in descending order, along the last axis for a stack."""
    return np.linalg.svd(_as_stack(x, "x", square=False), compute_uv=False)


def is_hermitian(x) -> bool:
    """Whether ``x`` is square and passes the Hermitian-input rule of ``_hermitian_within``."""
    x = as_matrix(x, name="x")
    if x.shape[0] != x.shape[1]:
        return False
    return bool(_hermitian_within(x))


def is_normal(x):
    """Whether ``||x x* - x* x||`` is within ``_threshold(_CHECK_TOL, ||x||^2)``, per member."""
    x = _as_stack(x, "x")
    comm = x @ _adjoint(x) - _adjoint(x) @ x
    comm_norm, norm = spectral_norm(np.array([comm, x]))
    return _item(comm_norm <= _threshold(_CHECK_TOL, norm**2))


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


def herm_eig(h) -> SpectralData:
    """Eigendecomposition of a Hermitian matrix, descending, with a fixed phase gauge.

    Ties in the eigenvalue order keep the LAPACK basis; every eigenvector is
    rescaled so its first nonzero component is real positive, which makes the
    output reproducible for golden tests.
    """
    return _herm_eig(h, "h")


def _herm_eig(h, name: str) -> SpectralData:
    """``herm_eig`` of an input its caller calls ``name``."""
    h = as_matrix(h, square=True, name=name)
    _refuse(is_hermitian(h), name, "Hermitian")
    w, v = np.linalg.eigh(_hermitian(h))
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
    from eigendecompositions of ``a``, ``b`` and the middle factor. Each input
    must pass the Hermitian-input rule of ``is_hermitian``; the PSD checks read
    the magnitude ``|eigenvalues of a and b|``. Near-singular pairs are
    shifted once by ``eps * I``, ``eps = 1e-10 * max(1, magnitude)``; that
    value defines the result, and callers comparing against it on singular
    inputs must budget an O(sqrt(eps)) perturbation. Scale, checks and shift
    are each member's own.
    """
    a = _as_stack(a, "a")
    b = _as_stack(b, "b")
    _check_same_shape((a, b), ("a", "b"))
    for name, x in (("a", a), ("b", b)):
        _refuse(np.all(_hermitian_within(x)), name, "Hermitian")
    hb = _hermitian(b)
    w, v = np.linalg.eigh(_hermitian(a))
    wb = np.linalg.eigvalsh(hb)
    magnitude = np.maximum(np.abs(w).max(axis=-1), np.abs(wb).max(axis=-1))
    for name, spectrum in (("a", w), ("b", wb)):
        _refuse(np.all(_is_psd(spectrum, magnitude)), name, "positive semidefinite")
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
    returned for reporting. Each input must pass the Hermitian-input rule of
    ``is_hermitian`` and is then taken as its Hermitian part, as the sides of
    every certificate are: this is the checked entry to their one verdict.
    A ``tol`` outside ``[0, inf)`` is refused first.
    """
    _check_tol(tol)
    a = as_matrix(a, square=True, name="a")
    b = as_matrix(b, square=True, name="b")
    for name, x in (("a", a), ("b", b)):
        _refuse(is_hermitian(x), name, "Hermitian")
    return LoewnerCheck(*_hermitian_verdict(a, b, tol)[2:])


class _HermitianVerdict(NamedTuple):
    """Two sides taken as their Hermitian parts, and the Loewner verdict on them."""

    lhs: np.ndarray
    rhs: np.ndarray
    passed: np.ndarray
    slack_spectrum: np.ndarray


def _hermitian_verdict(a, b, tol: float) -> _HermitianVerdict:
    """The verdict of ``loewner_leq`` on the Hermitian parts of two square matrices or stacks.

    Each side is checked finite and square and taken as ``hermitian_part`` does,
    once for the whole stack, so a member has the bits of its call alone. On
    two stacks, ``passed`` and the floor are per member and ``slack_spectrum``
    has one descending row per member.
    """
    a = _hermitian(_as_stack(a, "lhs"))
    b = _hermitian(_as_stack(b, "rhs"))
    _check_same_shape((a, b), ("lhs", "rhs"))
    # b - a of two Hermitian parts is exactly Hermitian.
    slack = np.linalg.eigvalsh(b - a)[..., ::-1]
    passed = _item(slack[..., -1] >= -_threshold(tol, spectral_norm(b)))
    return _HermitianVerdict(a, b, passed, slack)


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
    def min_slack(self):
        """The least margin: a float, or one per member of a report on stacks."""
        return _item(self.margins.min(axis=-1)) if self.margins.size else 0.0


def _descending_nonneg(seq, name: str) -> np.ndarray:
    """``seq`` as floats: one sequence, or a stack of them along the last axis."""
    arr = np.asarray(seq, dtype=float)
    if arr.ndim < 1:
        raise ValueError(f"{name} must be a sequence or a stack of sequences, got shape {arr.shape}")
    _refuse(np.isfinite(arr).all(), name, "finite")
    _refuse(not np.any(arr < 0.0), name, "nonnegative")
    if np.any(np.diff(arr) > _threshold(CONSTRUCTION_TOL, arr[..., :1])):
        raise ValueError(f"{name} must be sorted in descending order")
    return arr


def weak_log_majorize(a, b, tol: float = PSD_TOL) -> MajorizationReport:
    """Weak log-majorization test via direct prefix products.

    Passes iff for every k the product of the k largest entries of ``a`` is at
    most ``(1 + tol)^k`` times the corresponding product for ``b``. Comparing
    products directly (no logarithms) keeps zero entries unproblematic. Two
    stacks of shape ``(..., k)`` are decided per member, with ``passed`` a bool
    array and ``first_violation`` an object array of ints and ``None``; each
    member has the bits of its call alone. Every input must be finite,
    nonnegative and descending within ``_threshold(CONSTRUCTION_TOL, first entry)``,
    and ``tol`` must lie in ``[0, inf)``.
    """
    _check_tol(tol)
    a = _descending_nonneg(a, "a")
    b = _descending_nonneg(b, "b")
    _check_same_shape((a, b), ("a", "b"))
    prefix_a = np.cumprod(a, axis=-1)
    prefix_b = np.cumprod(b, axis=-1)
    bound = prefix_b * (1.0 + tol) ** np.arange(1, a.shape[-1] + 1)
    ok = prefix_a <= bound
    passed = ok.all(axis=-1)
    # The first violation, counted from 1, follows the leading run of prefixes that hold.
    first = np.where(passed, None, np.logical_and.accumulate(ok, axis=-1).sum(axis=-1) + 1)
    return MajorizationReport(
        a=a,
        b=b,
        prefix_a=prefix_a,
        prefix_b=prefix_b,
        margins=bound - prefix_a,
        tol=tol,
        passed=_item(passed),
        first_violation=_item(first),
    )


class _Majorizations(NamedTuple):
    """The fields of ``weak_log_majorize``'s report on stacks, ``tol`` aside, each with one row per member."""

    a: np.ndarray
    b: np.ndarray
    prefix_a: np.ndarray
    prefix_b: np.ndarray
    margins: np.ndarray
    passed: np.ndarray
    first_violation: np.ndarray


def _log_majorizations(a, b, tol: float) -> _Majorizations:
    """``weak_log_majorize`` on two ``(s, k)`` stacks, field by field."""
    r = weak_log_majorize(a, b, tol)
    return _Majorizations(r.a, r.b, r.prefix_a, r.prefix_b, r.margins, r.passed, r.first_violation)


def schur_prod(a, b) -> np.ndarray:
    """Entrywise (Hadamard) product of two matrices of identical shape."""
    a = as_matrix(a, name="a")
    b = as_matrix(b, name="b")
    _check_same_shape((a, b), ("a", "b"))
    return a * b


def direct_sum(mats: Sequence) -> np.ndarray:
    """Block-diagonal stacking of a nonempty list of matrices, or of stacks of them with one leading shape."""
    mats = [_as_stack(m, f"mats[{i}]", square=False) for i, m in enumerate(mats)]
    _check_nonempty(mats, "mats")
    lead = mats[0].shape[:-2]
    out = np.zeros(lead + tuple(np.sum([m.shape[-2:] for m in mats], axis=0)), dtype=complex)
    r = c = 0
    for m in mats:
        out[..., r : r + m.shape[-2], c : c + m.shape[-1]] = m
        r, c = r + m.shape[-2], c + m.shape[-1]
    return out


def conj_real_part(a) -> np.ndarray:
    """(a + conj(a)) / 2 with the entrywise conjugate: the real part of each entry.

    The result is a real-valued matrix (returned with complex dtype); it is not
    Hermitian unless ``a`` itself has the required symmetry.
    """
    a = _as_stack(a, "a")
    return (a + np.conj(a)) / 2.0


# ---------------------------------------------------------------------------
# Seeded generators. ``seed`` may be an int or a sequence of ints, which fully
# determines the output, or a ``numpy.random.Generator``, which is drawn from
# in place. The private helpers draw a stack of ``count`` members at once.
# ---------------------------------------------------------------------------


def _rng(seed) -> np.random.Generator:
    return np.random.default_rng(seed)


def _gaussian_shapes(count: int, rows: int, cols: int) -> list:
    """The shapes of the standard normals of ``count`` complex Gaussians, in draw order: real, then imaginary parts."""
    return [(count, rows, cols)] * 2


def _complex_gaussian(rng: np.random.Generator, count: int, rows: int, cols: int) -> np.ndarray:
    return _gaussian_from(*(rng.standard_normal(shape) for shape in _gaussian_shapes(count, rows, cols)))


def _gaussian_from(re: np.ndarray, im: np.ndarray) -> np.ndarray:
    """The unit-variance complex Gaussians ``(re + i im) / sqrt 2`` of two stacks of standard normals."""
    return (re + 1j * im) / np.sqrt(2.0)


def _haar_from(g: np.ndarray) -> np.ndarray:
    """The Haar unitaries of a stack of complex Gaussians: one stacked QR, with the R-diagonal phase fix."""
    q, r = np.linalg.qr(g)
    d = np.diagonal(r, axis1=-2, axis2=-1)
    size = np.abs(d)
    phases = np.where(size > 0, d / np.where(size > 0, size, 1.0), 1.0)
    return q * phases[..., None, :]


def _haar(rng: np.random.Generator, count: int, n: int) -> np.ndarray:
    return _haar_from(_complex_gaussian(rng, count, n, n))


def _normal_shapes(count: int, n: int) -> list:
    """The shapes of the standard normals of ``count`` normal matrices, in draw order.

    The real, then imaginary, parts of the unitaries' Gaussians ``(count, n, n)``,
    then of the eigenvalues ``(count, n)``: draws of several generators
    concatenate member by member.
    """
    return _gaussian_shapes(count, n, n) + [(count, n)] * 2


def _normal_draws(rng: np.random.Generator, count: int, n: int) -> list:
    """The standard normals of ``count`` normal matrices, of ``_normal_shapes``."""
    return [rng.standard_normal(shape) for shape in _normal_shapes(count, n)]


def _normals_from(draws: list) -> np.ndarray:
    """The normal matrices ``u diag(z) u*`` of ``_normal_draws``, one per member."""
    g_re, g_im, z_re, z_im = draws
    u = _haar_from(_gaussian_from(g_re, g_im))
    z = z_re + 1j * z_im
    # Column k of u[i] times z[i, k], taken through a broadcast of the (n, count, n)
    # view: numpy then runs the elementwise loop of the one-matrix product u * z, so
    # for n > 1 each member has the bits of its own build. At n = 1 the view's rows
    # of one entry coalesce into one loop over the members, which may round the
    # last bit otherwise.
    scaled = (u.transpose(1, 0, 2) * z).transpose(1, 0, 2)
    return scaled @ _adjoint(u)


def _normals(rng: np.random.Generator, count: int, n: int) -> np.ndarray:
    """``count`` normal matrices ``u diag(z) u*``, all unitaries drawn first."""
    return _normals_from(_normal_draws(rng, count, n))


def _contractions(g: np.ndarray) -> np.ndarray:
    """Each member of a stack rescaled to spectral norm at most one, by one stacked SVD."""
    return g / np.maximum(1.0, spectral_norm(g))[..., None, None]


def random_matrix(seed, rows: int, cols: Optional[int] = None) -> np.ndarray:
    """Complex Gaussian matrix with unit-variance entries."""
    cols = rows if cols is None else cols
    _check_size(rows, "rows")
    _check_size(cols, "cols")
    return _complex_gaussian(_rng(seed), 1, rows, cols)[0]


def random_normal(seed, n: int) -> np.ndarray:
    """Random normal matrix u diag(z) u*, normal by construction.

    ``u`` is approximately Haar distributed and ``z`` is complex Gaussian.
    """
    _check_size(n, "n")
    return _normals(_rng(seed), 1, n)[0]


def _psd_from(g: np.ndarray) -> np.ndarray:
    """The PSD matrices ``g g* / n`` of a stack of ``n x n`` Gaussians, exactly Hermitian."""
    return _hermitian(g @ _adjoint(g) / g.shape[-1])


def random_psd(seed, n: int) -> np.ndarray:
    """Random positive semidefinite matrix g g* / n, exactly Hermitian."""
    _check_size(n, "n")
    return _psd_from(_complex_gaussian(_rng(seed), 1, n, n))[0]


def haar_unitary(seed, n: int) -> np.ndarray:
    _check_size(n, "n")
    return _haar(_rng(seed), 1, n)[0]


def random_contraction(seed, n: int) -> np.ndarray:
    """Gaussian matrix rescaled to spectral norm at most one."""
    _check_size(n, "n")
    return _contractions(_complex_gaussian(_rng(seed), 1, n, n))[0]
