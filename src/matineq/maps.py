"""Positive linear maps in Kraus congruence form.

A map acts as ``x -> sum_i k_i* x k_i`` with factors ``k_i`` of shape
``(input_dim, output_dim)``, held as one stack of shape
``(terms, input_dim, output_dim)``, so every operation below works on the
whole stack at once. This representation makes positivity and complete
positivity constructive: the Choi matrix of every map built here is positive
semidefinite by design, and named constructors cover the Schur multiplier,
partial traces, block compressions and compositions.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import NamedTuple, Optional

import numpy as np

from .core import PSD_TOL, as_matrix, hermitian_part, herm_eig, spectral_norm

__all__ = [
    "PositiveMapRep",
    "ChoiData",
    "apply",
    "identity_map",
    "schur_multiplier",
    "partial_trace_first",
    "corner_block_map",
    "compose",
    "choi",
    "is_unital",
    "halmos_dilation",
    "random_cp_map",
    "random_unital_cp_map",
]

# Kraus factors below this Frobenius norm carry no information and are dropped
# so compositions do not explode in term count.
_KRAUS_DROP_TOL = 1e-14


@dataclass(frozen=True, eq=False)
class PositiveMapRep:
    """A positive (completely positive) linear map in Kraus congruence form.

    ``kraus_ops`` is stored as one finite, read-only complex array of shape
    ``(terms, input_dim, output_dim)``, copied from the argument; any
    nonempty sequence of equally shaped factors is accepted.
    """

    input_dim: int
    output_dim: int
    kraus_ops: np.ndarray
    label: str = ""

    def __post_init__(self):
        if self.input_dim < 1 or self.output_dim < 1:
            raise ValueError("map dimensions must be >= 1")
        # A ragged sequence of factors raises ValueError here. A read-only copy
        # keeps the checked stack from changing through the caller's array.
        ops = np.array(self.kraus_ops, dtype=complex, order="C")
        if ops.ndim != 3 or ops.shape[0] == 0:
            raise ValueError(f"kraus_ops must be a nonempty stack of matrices, got shape {ops.shape}")
        if ops.shape[1:] != (self.input_dim, self.output_dim):
            raise ValueError(
                f"kraus ops of shape {ops.shape[1:]}, expected "
                f"({self.input_dim}, {self.output_dim})"
            )
        if not np.isfinite(ops).all():
            raise ValueError("kraus ops have non-finite entries")
        ops.flags.writeable = False
        object.__setattr__(self, "kraus_ops", ops)


class ChoiData(NamedTuple):
    """Choi matrix and its smallest eigenvalue (PSD iff the map is CP)."""

    choi_matrix: np.ndarray
    min_eigenvalue: float


def apply(pmap: PositiveMapRep, x) -> np.ndarray:
    """Evaluate the map: sum over Kraus factors of ``k* x k``."""
    x = as_matrix(x, square=True, name="x")
    if x.shape[0] != pmap.input_dim:
        raise ValueError(f"input of dimension {x.shape[0]}, map expects {pmap.input_dim}")
    # Two products: y_t = x k_t for every t, then the factors folded into the
    # row index, conj(out) = [k_1; ...; k_T]^T [conj(y_1); ...; conj(y_T)].
    ops = pmap.kraus_ops
    y = x @ ops
    np.conjugate(y, out=y)
    flat = ops.reshape(-1, pmap.output_dim)
    return (flat.T @ y.reshape(-1, pmap.output_dim)).conj()


def _prune(ops: np.ndarray) -> np.ndarray:
    kept = ops[np.linalg.norm(ops, axis=(1, 2)) > _KRAUS_DROP_TOL]
    return kept if len(kept) else np.zeros((1,) + ops.shape[1:], dtype=complex)


def _block_rows(d: int, n: int) -> np.ndarray:
    """The ``d`` factors ``e_i (x) I_n`` of shape ``(d n, n)``, as one stack."""
    return np.eye(d * n, dtype=complex).reshape(d * n, d, n).transpose(1, 0, 2)


def identity_map(n: int) -> PositiveMapRep:
    return PositiveMapRep(n, n, (np.eye(n, dtype=complex),), label=f"id({n})")


def schur_multiplier(a) -> PositiveMapRep:
    """Map ``x -> a o x`` (entrywise product) for a PSD matrix ``a``.

    The Kraus factors are diagonal, one per term of a rank-one decomposition
    of ``a``; conjugation puts the congruence convention in line with the
    entrywise product, which is verified against schur_prod in the tests.
    """
    a = as_matrix(a, square=True, name="a")
    n = a.shape[0]
    w, v = herm_eig(a, herm_tol=1e-10)
    scale = max(1.0, float(abs(w[0])) if w.size else 1.0)
    if w.size and w[-1] < -PSD_TOL * scale:
        raise ValueError("schur_multiplier needs a PSD matrix")
    keep = w > _KRAUS_DROP_TOL * scale
    diagonals = np.conj(np.sqrt(w[keep]) * v[:, keep]).T
    ops = diagonals[:, :, None] * np.eye(n)
    return PositiveMapRep(n, n, _prune(ops), label=f"schur({n})")


def partial_trace_first(d: int, n: int) -> PositiveMapRep:
    """Partial trace over the first tensor factor: block matrix to sum of diagonal blocks."""
    if d < 1 or n < 1:
        raise ValueError("dimensions must be >= 1")
    return PositiveMapRep(d * n, n, _block_rows(d, n), label=f"ptrace1({d},{n})")


def corner_block_map(variant: str, n: int) -> PositiveMapRep:
    """Block maps on 2x2 block matrices over n x n blocks.

    ``"upper_left"`` extracts the (1,1) block and ``"diag_average"`` returns
    the mean of the two diagonal blocks.
    """
    if n < 1:
        raise ValueError("n must be >= 1")
    if variant == "upper_left":
        ops = _block_rows(2, n)[:1]
    elif variant == "diag_average":
        ops = _block_rows(2, n) / np.sqrt(2.0)
    else:
        raise ValueError(f"unknown variant {variant!r}")
    return PositiveMapRep(2 * n, n, ops, label=f"{variant}({n})")


def compose(outer: PositiveMapRep, inner: PositiveMapRep) -> PositiveMapRep:
    """Composition acting as ``x -> outer(inner(x))``."""
    if inner.output_dim != outer.input_dim:
        raise ValueError(
            f"cannot compose: inner output {inner.output_dim} != outer input {outer.input_dim}"
        )
    # Factor i * len(outer) + j is inner_i @ outer_j.
    ops = (inner.kraus_ops[:, None] @ outer.kraus_ops[None]).reshape(
        -1, inner.input_dim, outer.output_dim
    )
    label = f"{outer.label or 'outer'}.{inner.label or 'inner'}"
    return PositiveMapRep(inner.input_dim, outer.output_dim, _prune(ops), label=label)


def choi(pmap: PositiveMapRep) -> ChoiData:
    """Choi matrix sum_ij E_ij (x) map(E_ij) and its least eigenvalue."""
    n, m = pmap.input_dim, pmap.output_dim
    c = np.zeros((n * m, n * m), dtype=complex)
    for i in range(n):
        for j in range(n):
            e = np.zeros((n, n), dtype=complex)
            e[i, j] = 1.0
            c[i * m : (i + 1) * m, j * m : (j + 1) * m] = apply(pmap, e)
    c = (c + c.conj().T) / 2.0
    return ChoiData(c, float(np.linalg.eigvalsh(c).min()))


def is_unital(pmap: PositiveMapRep, tol: float = PSD_TOL) -> bool:
    """Whether the map sends the identity to the identity within ``tol``."""
    image = apply(pmap, np.eye(pmap.input_dim, dtype=complex))
    return spectral_norm(image - np.eye(pmap.output_dim)) <= tol


def halmos_dilation(z, *, tol: float = 1e-12) -> np.ndarray:
    """Unitary 2n x 2n dilation of a contraction, placed in the upper-left block.

    Both defect square roots are built from a single SVD of ``z`` so the block
    matrix is unitary to machine precision even when the norm is exactly one;
    defect eigenvalues pushed slightly negative by round-off are clipped at 0.
    """
    z = as_matrix(z, square=True, name="z")
    u, s, vh = np.linalg.svd(z)
    if s.size and s[0] > 1.0 + tol:
        raise ValueError(f"not a contraction: largest singular value {s[0]}")
    c = np.sqrt(np.clip(1.0 - s**2, 0.0, None))
    left_defect = (u * c) @ u.conj().T
    right_defect = (vh.conj().T * c) @ vh
    return np.block([[z, -left_defect], [right_defect, z.conj().T]])


def random_cp_map(seed, n: int, m: int, terms: Optional[int] = None) -> PositiveMapRep:
    """Seeded completely positive map with Gaussian Kraus factors."""
    if n < 1 or m < 1:
        raise ValueError("dimensions must be >= 1")
    terms = n * m if terms is None else terms
    if terms < 1:
        raise ValueError("terms must be >= 1")
    # The per-term draw order (real part, then imaginary part), so a seed keeps its factors.
    draws = np.random.default_rng(seed).standard_normal((terms, 2, n, m))
    ops = (draws[:, 0] + 1j * draws[:, 1]) / np.sqrt(2.0 * n * terms)
    return PositiveMapRep(n, m, ops, label=f"random-cp({n},{m})")


def random_unital_cp_map(seed, n: int, m: int, terms: Optional[int] = None) -> PositiveMapRep:
    """Seeded CP map normalized so the identity maps to the identity."""
    base = random_cp_map(seed, n, m, terms)
    image = apply(base, np.eye(n, dtype=complex))
    w, v = np.linalg.eigh(hermitian_part(image))
    w = np.maximum(w, 1e-12 * max(1.0, float(w.max())))
    inv_root = (v / np.sqrt(w)) @ v.conj().T
    return PositiveMapRep(n, m, base.kraus_ops @ inv_root, label=f"random-unital-cp({n},{m})")
