"""Independent oracles the tests check library results against.

These deliberately avoid the code paths used by the implementation: the
geometric mean is cross-checked through the arithmetic-harmonic iteration
(matrix inverses only) and the matrix absolute value through an
eigendecomposition of x* x or, for normal matrices, a complex Schur form.
The tensor constructions of the entrywise-product certificates are kept here
in plain numpy as the reference for their closed forms. ``|x*|`` as ``u s u*``
from the SVD of ``x``, and a direct sum's absolute value from one SVD of the
whole, are the references for ``mat_abs`` of ``x*`` and of each block. The
Kraus-map operations one factor (or one matrix unit) at a time are the
reference for the stacked ones. The search constant's bisection is the reference for its
closed form, and scipy's generalized eigensolve of the same pencil the reference for its
Cholesky reduction. The identity map, the upper-left block extraction and the unitary
(Halmos) dilation of a contraction are the reference for the Russo-Dye shortcut, which
applies the map to the contraction itself, and the polar witness of an image is the
reference for the witness every orbit certificate carries. A sweep trial drawn alone, one
generator and one instance kind after another through the public generators, is the
reference for a batch's record of stacked draws.
"""

import numpy as np
import scipy.linalg

from matineq.core import (
    _complex_gaussian,
    _contractions,
    _normals,
    hermitian_part,
    mat_abs,
    polar,
    random_matrix,
    random_psd,
    spectral_norm,
)
from matineq.maps import PositiveMapRep, apply, random_cp_map, random_unital_cp_map


def arithmetic_harmonic_mean(a, b, iterations=60):
    """Common limit of the arithmetic / harmonic mean iteration for PD inputs."""
    x = np.asarray(a, dtype=complex)
    y = np.asarray(b, dtype=complex)
    for _ in range(iterations):
        x, y = (x + y) / 2.0, 2.0 * np.linalg.inv(np.linalg.inv(x) + np.linalg.inv(y))
    return (x + y) / 2.0


def abs_via_eig(x):
    """Matrix absolute value from an eigendecomposition of x* x."""
    x = np.asarray(x, dtype=complex)
    gram = x.conj().T @ x
    w, v = np.linalg.eigh((gram + gram.conj().T) / 2.0)
    return (v * np.sqrt(np.clip(w, 0.0, None))) @ v.conj().T


def abs_via_schur(x):
    """Absolute value of a normal matrix from its complex Schur form.

    The Schur form of a normal matrix is diagonal, so ``|x| = z |t| z*``. Unlike
    ``abs_via_eig`` this does not square the input, so it stays accurate to
    machine precision on rank-deficient matrices.
    """
    t, z = scipy.linalg.schur(np.asarray(x, dtype=complex), output="complex")
    return (z * np.abs(np.diagonal(t))) @ z.conj().T


def abs_pair_via_one_svd(x):
    """``(|x|, |x*|)`` from one SVD ``x = u s vh``: ``vh* s vh`` and ``u s u*``."""
    u, s, vh = np.linalg.svd(np.asarray(x, dtype=complex))
    return _herm((vh.conj().T * s) @ vh), _herm((u * s) @ u.conj().T)


def abs_direct_sum_via_svd(blocks):
    """``|b_1 (+) b_2 (+) ...|`` from one SVD of the direct sum."""
    _, s, vh = np.linalg.svd(scipy.linalg.block_diag(*blocks).astype(complex))
    return _herm((vh.conj().T * s) @ vh)


def _paired_diagonal(big, n):
    """Compression of an (n*n) x (n*n) matrix to the indices i*n + i."""
    idx = np.arange(n) * (n + 1)
    return big[np.ix_(idx, idx)]


def _carrier(upper, lower):
    """The 2x2 block matrix [[0, upper], [lower, 0]]."""
    zero = np.zeros_like(upper)
    return np.block([[zero, upper], [lower, zero]])


def _block_sum(x, n):
    return x[:n, :n] + x[:n, n:] + x[n:, :n] + x[n:, n:]


def schur_normal_terms_via_kron(a, b):
    """(a o b, |a| o |b|) as the paired-diagonal compressions of a (x) b and |a (x) b|."""
    a = np.asarray(a, dtype=complex)
    big = np.kron(a, np.asarray(b, dtype=complex))
    n = a.shape[0]
    return _paired_diagonal(big, n), _paired_diagonal(abs_via_schur(big), n)


def schur_square_terms_via_kron(x):
    """(x o x*, |x| o |x*|) through the tensor product of the two off-diagonal carriers.

    Half the block sum of the paired-diagonal compression of
    ``[[0, x*], [x, 0]] (x) [[0, x], [x*, 0]]``, and of its absolute value.
    """
    x = np.asarray(x, dtype=complex)
    n = x.shape[0]
    big = np.kron(_carrier(x.conj().T, x), _carrier(x, x.conj().T))
    return (
        _block_sum(_paired_diagonal(big, 2 * n), n) / 2.0,
        _block_sum(_paired_diagonal(abs_via_schur(big), 2 * n), n) / 2.0,
    )


def hermitian_sum_term_via_block(x):
    """|x| + |x*| as the block sum of |[[0, x], [x*, 0]]|."""
    x = np.asarray(x, dtype=complex)
    return _block_sum(abs_via_schur(_carrier(x, x.conj().T)), x.shape[0])


def apply_by_factors(ops, x):
    """``sum_t k_t* x k_t``, one factor at a time."""
    x = np.asarray(x, dtype=complex)
    return sum(k.conj().T @ x @ k for k in ops)


def choi_by_units(pmap):
    """The Hermitian part of ``sum_ij E_ij (x) map(E_ij)``, one ``apply`` call per matrix unit."""
    n, m = pmap.input_dim, pmap.output_dim
    c = np.zeros((n * m, n * m), dtype=complex)
    for i in range(n):
        for j in range(n):
            e = np.zeros((n, n), dtype=complex)
            e[i, j] = 1.0
            c[i * m : (i + 1) * m, j * m : (j + 1) * m] = apply(pmap, e)
    return (c + c.conj().T) / 2.0


def identity_map(n):
    """The identity map on n x n matrices: the one factor ``I_n``."""
    return PositiveMapRep((np.eye(n, dtype=complex),))


def upper_left_map(n):
    """The (1, 1) n x n block of a 2n x 2n matrix: the one factor ``[I_n; 0]``."""
    return PositiveMapRep(np.eye(2 * n, dtype=complex)[None, :, :n])


def halmos_dilation(z):
    """The unitary ``[[z, -(I - z z*)^1/2], [(I - z* z)^1/2, z*]]`` of a contraction ``z``.

    Both defect roots come from one SVD of ``z``, so the block matrix is unitary
    to machine precision even at norm one.
    """
    z = np.asarray(z, dtype=complex)
    u, s, vh = np.linalg.svd(z)
    if s[0] > 1.0 + 1e-12:
        raise ValueError("z must be a contraction")
    c = np.sqrt(np.clip(1.0 - s**2, 0.0, None))
    return np.block([[z, -(u * c) @ u.conj().T], [(vh.conj().T * c) @ vh, z.conj().T]])


def witness_unitary(y):
    """The polar witness ``v`` with ``y = v* |y|``, per member of a stack: the adjoint of the polar unitary."""
    return polar(y).unitary_factor.conj().swapaxes(-1, -2)


def compose_by_factors(outer_ops, inner_ops):
    """The factors ``inner_i @ outer_j`` of ``x -> outer(inner(x))``, ``i`` major."""
    return [ki @ kj for ki in inner_ops for kj in outer_ops]


def gaussian_kraus_draws(seed, n, m, terms):
    """Seeded Gaussian factors drawn term by term, real part before imaginary part."""
    rng = np.random.default_rng(seed)
    return [
        (rng.standard_normal((n, m)) + 1j * rng.standard_normal((n, m))) / np.sqrt(2.0 * n * terms)
        for _ in range(terms)
    ]


def unital_normalisation(ops, image):
    """Each factor times ``image^(-1/2)``, so the identity maps to the identity."""
    w, v = np.linalg.eigh((image + image.conj().T) / 2.0)
    w = np.maximum(w, 1e-12 * max(1.0, float(w.max())))
    inv_root = (v / np.sqrt(w)) @ v.conj().T
    return [k @ inv_root for k in ops]


def _herm(x):
    return (x + x.conj().T) / 2.0


def geometric_mean_six_decompositions(a, b):
    """The geometric mean as first implemented, without its input checks.

    Its scale comes from two spectral norms, its shift test from the
    eigenvalues of both inputs, and it decomposes the (shifted) ``a`` again
    and then the middle factor: six decompositions. On pairs that need no
    shift, the arithmetic is that of ``core.geometric_mean``.
    """
    a = np.asarray(a, dtype=complex)
    b = np.asarray(b, dtype=complex)
    scale = max(1.0, float(np.linalg.norm(a, 2)), float(np.linalg.norm(b, 2)))
    eps = 1e-10 * scale
    if np.linalg.eigvalsh(_herm(a)).min() < eps or np.linalg.eigvalsh(_herm(b)).min() < eps:
        shift = eps * np.eye(a.shape[0])
        a = a + shift
        b = b + shift
    w, v = np.linalg.eigh(_herm(a))
    w = np.maximum(w, eps)
    root = (v * np.sqrt(w)) @ v.conj().T
    inv_root = (v / np.sqrt(w)) @ v.conj().T
    mw, mv = np.linalg.eigh(_herm(inv_root @ _herm(b) @ inv_root))
    middle = (mv * np.sqrt(np.maximum(mw, 0.0))) @ mv.conj().T
    return _herm(root @ _herm(middle) @ root)


def _search_pair(pmap, nmat):
    """``(a, |map(n)|, v a v*, floor)`` with ``a = map(|n|)`` and the search's verdict floor."""
    unitary, lhs = polar(apply(pmap, nmat))
    v = unitary.conj().T
    arg = hermitian_part(apply(pmap, mat_abs(nmat)))
    orbit = hermitian_part(v @ arg @ v.conj().T)
    return arg, lhs, orbit, -1e-12 * max(1.0, spectral_norm(arg))


def minimal_orbit_constant_by_bisection(pmap, nmat, beta, iterations=60):
    """The search constant as first implemented: 60 halvings of [0, 1/(2 beta)].

    Feasibility of c, ``lambda_min(beta a + c v a v* - |map(n)|) >= floor`` with
    ``a = map(|n|)``, is monotone in c; each step takes one ``eigvalsh``.
    """
    arg, lhs, orbit, floor = _search_pair(pmap, nmat)

    def feasible(c):
        return float(np.linalg.eigvalsh(hermitian_part(beta * arg + c * orbit - lhs)).min()) >= floor

    lo, hi = 0.0, 1.0 / (2.0 * beta)
    if not feasible(hi):
        raise RuntimeError("guaranteed constant infeasible")
    if feasible(lo):
        return 0.0
    for _ in range(iterations):
        mid = (lo + hi) / 2.0
        if feasible(mid):
            hi = mid
        else:
            lo = mid
    return hi


def minimal_orbit_constant_by_pencil(pmap, nmat, beta):
    """The search constant from scipy's generalized eigensolver, as first closed.

    With ``hi = 1/(2 beta)`` and ``s0``, ``d = s0 + hi v a v*`` the slacks at 0 and
    ``hi`` shifted by the floor, the value is ``hi nu / (1 + nu)`` for the top
    eigenvalue ``nu > 0`` of ``scipy.linalg.eigh(-s0, d)``, else 0.
    """
    arg, lhs, orbit, floor = _search_pair(pmap, nmat)
    hi = 1.0 / (2.0 * beta)
    s0 = beta * arg - lhs - floor * np.eye(len(arg))
    nu = scipy.linalg.eigh(-s0, s0 + hi * orbit, eigvals_only=True)[-1]
    return 0.0 if nu <= 0.0 else float(hi * nu / (1.0 + nu))


def trial_drawn_alone(seed, index, n, m) -> list:
    """A sweep trial's instances, in the field order of ``certify._Trials``, drawn one kind at a time.

    One generator seeded ``[seed, index]`` draws the sweep map, the unital map, 7
    normal matrices of size n and one of size 2n, 3 + 3 contractions of sizes n and
    m, 3 Gaussian m x n matrices, one of size n and a PSD matrix.
    """
    rng = np.random.default_rng([seed, index])
    pmap, unital = random_cp_map(rng, n, m), random_unital_cp_map(rng, n, m)
    normals, block = _normals(rng, 7, n), _normals(rng, 1, 2 * n)[0]
    z_n, z_m = _contractions(_complex_gaussian(rng, 3, n, n)), _contractions(_complex_gaussian(rng, 3, m, m))
    xs, x, psd = _complex_gaussian(rng, 3, m, n), random_matrix(rng, n), random_psd(rng, n)
    return [pmap, unital, normals[0], normals[1], normals[2:5], normals[5:7], block, *z_n, z_m, xs, x, psd]
