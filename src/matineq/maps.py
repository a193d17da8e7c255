"""Positive linear maps in Kraus congruence form.

A map acts as ``x -> sum_i k_i* x k_i`` with factors ``k_i`` of shape
``(input_dim, output_dim)``, held as one stack of shape
``(terms, input_dim, output_dim)``, so every operation below works on the
whole stack at once. This representation makes positivity and complete
positivity constructive: every map built here is completely positive by
design, and named constructors cover the Schur multiplier, partial traces,
the diagonal-block average and compositions.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import NamedTuple, Optional, Sequence

import numpy as np

from .core import CONSTRUCTION_TOL, PSD_TOL, _DROP_TOL, _check_size, _is_psd, _threshold
from .core import _adjoint, _as_stack, _herm_eig, _hermitian, _numeric, _refuse, _rng, as_matrix, spectral_norm

__all__ = [
    "MAX_KRAUS_BYTES",
    "PositiveMapRep",
    "apply",
    "schur_multiplier",
    "partial_trace_first",
    "corner_block_map",
    "compose",
    "is_unital",
    "random_cp_map",
    "random_unital_cp_map",
]

# Bytes held at once: by one drawn map, search pair or sweep trial, and by a call's units.
MAX_KRAUS_BYTES = 64 * 2**20


class _Unit(NamedTuple):
    """A unit of work, such as a drawn map, search pair or sweep trial: what one holds at its peak, and a call's share.

    One ``n -> m`` unit holds ``factors`` arrays the size of a map's ``terms``
    (``n m`` by default) Kraus factors, ``squares_n`` n x n and ``squares_m`` m x m
    complex arrays and ``object_bytes`` of Python objects; a call holds at most
    ``MAX_KRAUS_BYTES // share`` of units.
    """

    name: str
    factors: int
    squares_n: int = 0
    squares_m: int = 0
    object_bytes: int = 0
    share: int = 1
    terms: Optional[int] = None


def _unit_bytes(unit: _Unit, n: int, m: int) -> int:
    """The bytes one ``n -> m`` ``unit`` holds at its peak."""
    terms = n * m if unit.terms is None else unit.terms
    return 16 * (unit.factors * terms * n * m + unit.squares_n * n * n + unit.squares_m * m * m) + unit.object_bytes


def _check_unit_bytes(unit: _Unit, n: int, m: int) -> None:
    """Refuse an ``n -> m`` shape whose one ``unit`` alone holds more than ``MAX_KRAUS_BYTES``."""
    size = _unit_bytes(unit, n, m)
    if size > MAX_KRAUS_BYTES:
        raise ValueError(
            f"one drawn ({n}, {m}) {unit.name} holds {size} bytes, over the budget of {MAX_KRAUS_BYTES} bytes"
        )


def _units_per_call(unit: _Unit, n: int, m: int) -> int:
    """``n -> m`` units run in one call, at least one: as many as fit the unit's share of ``MAX_KRAUS_BYTES``."""
    return max(1, MAX_KRAUS_BYTES // unit.share // _unit_bytes(unit, n, m))


def _calls(unit: _Unit, n: int, m: int, units: Sequence) -> list:
    """``units`` of one ``n -> m`` shape, in order, split into as few calls of even sizes as ``unit`` allows."""
    count = -(-len(units) // _units_per_call(unit, n, m))
    return [units[b * len(units) // count : (b + 1) * len(units) // count] for b in range(count)]


def _kraus_stack(ops, ndim: int, name: str) -> np.ndarray:
    """``ops`` as a complex array, refused by ``name`` unless it is numeric, ``ndim``-d, nonempty and finite.

    The rule for a map's Kraus stack (``ndim`` 3) and for a stack of them (4).
    """
    ops = _numeric(ops, name)
    if ops.ndim != ndim or 0 in ops.shape:
        raise ValueError(f"{name} must be a nonempty {ndim}-d stack of nonempty matrices, got {ops.shape}")
    _refuse(np.isfinite(ops).all(), name, "finite")
    return ops


@dataclass(frozen=True, eq=False)
class PositiveMapRep:
    """A positive (completely positive) linear map in Kraus congruence form.

    ``kraus_ops`` is stored as one finite, read-only complex array of shape
    ``(terms, input_dim, output_dim)``, copied from the argument; any
    nonempty sequence of equally shaped factors is accepted. The map's sizes
    are the stack's.
    """

    kraus_ops: np.ndarray

    def __post_init__(self):
        # A ragged sequence of factors raises ValueError here. A read-only copy
        # keeps the checked stack from changing through the caller's array.
        ops = _kraus_stack(self.kraus_ops, 3, "kraus_ops").copy()
        ops.flags.writeable = False
        object.__setattr__(self, "kraus_ops", ops)

    @property
    def input_dim(self) -> int:
        return self.kraus_ops.shape[1]

    @property
    def output_dim(self) -> int:
        return self.kraus_ops.shape[2]


def _check_fit(ops: np.ndarray, x: np.ndarray, name: str) -> None:
    """Refuse square ``x`` (or a stack of them) unless the maps of Kraus stack ``ops`` take its size.

    ``ops`` is one map's ``kraus_ops`` or a stack of them, ``(..., terms, n, m)``.
    """
    if x.shape[-1] != ops.shape[-2]:
        raise ValueError(f"{name} of dimension {x.shape[-1]}, map expects {ops.shape[-2]}")


def apply(pmap: PositiveMapRep, x) -> np.ndarray:
    """Evaluate the map: sum over Kraus factors of ``k* x k``.

    ``x`` is one matrix or a stack of shape ``(..., input_dim, input_dim)``;
    the images have the same leading shape. This is ``_apply_stack`` on a
    stack of one map.
    """
    x = _as_stack(x, "x")
    _check_fit(pmap.kraus_ops, x, "input")
    members = x.reshape((1, -1) + x.shape[-2:])
    return _apply_stack(pmap.kraus_ops[None], members).reshape(x.shape[:-2] + (pmap.output_dim,) * 2)


def _apply_stack(ops: np.ndarray, x: np.ndarray, index: Optional[np.ndarray] = None) -> np.ndarray:
    """The images ``sum_t k_t* x k_t`` of map ``i``'s factors ``ops[i]`` on its inputs ``x[i]``.

    ``ops`` has shape ``(k, terms, n, m)`` and ``x`` ``(k, r, n, n)``; the images
    have shape ``(k, r, m, m)``, and each has the bits of its map and input alone.
    Given ``index``, ``ops`` holds any number of maps and ``x[i]`` goes to map
    ``index[i]``: each pass gathers only its own maps' factors.
    """
    k, r = x.shape[:2]
    m = ops.shape[-1]
    out = np.empty((k, r, m, m), dtype=complex)
    # Each image's products hold as many entries as its map's Kraus stack, so
    # images go through at most 2^12 such entries (64 KiB) a pass: a stack of
    # large inputs or maps needs no more memory than one of them.
    per_pass = max(1, 2**12 // ops[0].size)
    step_r = min(r, per_pass)
    step_k = max(1, per_pass // step_r)
    for i in range(0, k, step_k):
        if index is None:
            maps = ops[i : i + step_k]
        else:  # a copy of at most 2^12 entries, or a view of one map
            maps = ops[index[i : i + step_k]] if step_k > 1 else ops[index[i], None]
        # Column-stacked factors, [k_1; ...; k_T] of shape (T n, m), one per map.
        flat = maps.reshape(len(maps), 1, -1, m)
        for j in range(0, r, step_r):
            # Two products: y_t = x k_t for every t, then the factors folded into
            # the row index, conj(out) = [k_1; ...; k_T]^T [conj(y_1); ...; conj(y_T)].
            y = x[i : i + step_k, j : j + step_r, None] @ maps[:, None]
            np.conjugate(y, out=y)
            images = flat.swapaxes(-1, -2) @ y.reshape(y.shape[:2] + (-1, m))
            out[i : i + step_k, j : j + step_r] = images.conj()
            del y  # freed before the next pass forms its products, not after
    return out


def _prune(ops: np.ndarray) -> np.ndarray:
    kept = ops[np.linalg.norm(ops, axis=(1, 2)) > _DROP_TOL]
    return kept if len(kept) else np.zeros((1,) + ops.shape[1:], dtype=complex)


def _block_rows(d: int, n: int) -> np.ndarray:
    """The ``d`` factors ``e_i (x) I_n`` of shape ``(d n, n)``, as one stack."""
    return np.eye(d * n, dtype=complex).reshape(d * n, d, n).transpose(1, 0, 2)


def schur_multiplier(a) -> PositiveMapRep:
    """Map ``x -> a o x`` (entrywise product) for a PSD matrix ``a``.

    The Kraus factors are diagonal, one per term of a rank-one decomposition
    of ``a``; conjugation puts the congruence convention in line with the
    entrywise product, which is verified against schur_prod in the tests.
    """
    a = as_matrix(a, square=True, name="a")
    n = a.shape[0]
    w, v = _herm_eig(a, "a")
    _refuse(_is_psd(w, abs(w[0])), "a", "positive semidefinite")
    keep = w > _threshold(_DROP_TOL, abs(w[0]))
    diagonals = np.conj(np.sqrt(w[keep]) * v[:, keep]).T
    ops = diagonals[:, :, None] * np.eye(n)
    return PositiveMapRep(_prune(ops))


def partial_trace_first(d: int, n: int) -> PositiveMapRep:
    """Partial trace over the first tensor factor: block matrix to sum of diagonal blocks."""
    _check_size(d, "d")
    _check_size(n, "n")
    return PositiveMapRep(_block_rows(d, n))


def corner_block_map(n: int) -> PositiveMapRep:
    """The mean of the two diagonal n x n blocks of a 2n x 2n matrix."""
    _check_size(n, "n")
    return PositiveMapRep(_block_rows(2, n) / np.sqrt(2.0))


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
    return PositiveMapRep(_prune(ops))


def is_unital(pmap: PositiveMapRep) -> bool:
    """Whether ``||map(I) - I||`` is at most ``PSD_TOL``, not scaled."""
    image = apply(pmap, np.eye(pmap.input_dim, dtype=complex))
    return spectral_norm(image - np.eye(pmap.output_dim)) <= PSD_TOL


def _cp_shape(terms: int, n: int, m: int) -> tuple:
    """The shape of one ``random_cp_map``'s standard normals: each term's real part, then its imaginary part."""
    return (terms, 2, n, m)


def _cp_maps(draws: np.ndarray, out: Optional[np.ndarray] = None) -> np.ndarray:
    """The Kraus stacks ``(k, terms, n, m)`` of ``random_cp_map`` from a stack of its draws, one ``_cp_shape`` a map.

    ``out``, if given, receives the stacks, so a batch builds its maps in place.
    """
    _, terms, _, n, _ = draws.shape
    out = np.multiply(draws[:, :, 1], 1j, out=out)
    out += draws[:, :, 0]
    out /= np.sqrt(2.0 * n * terms)
    return out


def _unital(ops: np.ndarray) -> np.ndarray:
    """Each Kraus stack of ``ops`` ``(k, terms, n, m)`` normalised so the identity maps to the identity.

    One ``_apply_stack`` and one ``eigh`` for the stack: ``k_t -> k_t map(I)^(-1/2)``,
    with ``map(I)``'s spectrum floored at its scaled ``CONSTRUCTION_TOL``.
    """
    k, _, n, _ = ops.shape
    image = _apply_stack(ops, np.broadcast_to(np.eye(n, dtype=complex), (k, 1, n, n)))[:, 0]
    w, v = np.linalg.eigh(_hermitian(image))
    w = np.maximum(w, _threshold(CONSTRUCTION_TOL, w.max(axis=-1, keepdims=True)))
    inv_root = (v / np.sqrt(w)[:, None]) @ _adjoint(v)
    return ops @ inv_root[:, None]


def random_cp_map(seed, n: int, m: int, terms: Optional[int] = None) -> PositiveMapRep:
    """Seeded completely positive map with Gaussian Kraus factors."""
    _check_size(n, "n")
    _check_size(m, "m")
    terms = n * m if terms is None else terms
    _check_size(terms, "terms")
    _check_unit_bytes(_Unit(f"map of {terms} Kraus factors", 1, terms=terms), n, m)
    return PositiveMapRep(_cp_maps(_rng(seed).standard_normal((1,) + _cp_shape(terms, n, m)))[0])


def random_unital_cp_map(seed, n: int, m: int, terms: Optional[int] = None) -> PositiveMapRep:
    """Seeded CP map normalized so the identity maps to the identity."""
    return PositiveMapRep(_unital(random_cp_map(seed, n, m, terms).kraus_ops[None])[0])
