"""Tests for the Kraus-form positive maps and their constructors."""

import dataclasses

import numpy as np
import pytest

from matineq.core import (
    haar_unitary,
    hermitian_part,
    random_contraction,
    random_matrix,
    random_normal,
    random_psd,
    schur_prod,
    spectral_norm,
)
from matineq.maps import (
    PositiveMapRep,
    apply,
    compose,
    corner_block_map,
    is_unital,
    partial_trace_first,
    random_cp_map,
    random_unital_cp_map,
    schur_multiplier,
)
from matineq.certify import quarter_sharpness_map

from _oracles import (
    apply_by_factors,
    choi_by_units,
    compose_by_factors,
    gaussian_kraus_draws,
    halmos_dilation,
    identity_map,
    unital_normalisation,
    upper_left_map,
)

R = np.array([[0.0, 1.0], [1.0, 0.0]], dtype=complex)
ONES2 = np.ones((2, 2), dtype=complex)


def random_hermitian(seed, n):
    g = random_matrix(seed, n)
    return (g + g.conj().T) / 2.0


# ---------------------------------------------------------------------------
# representation and apply
# ---------------------------------------------------------------------------


def test_rep_validation():
    with pytest.raises(ValueError):
        PositiveMapRep(())
    with pytest.raises(ValueError):
        PositiveMapRep(np.zeros((0, 2, 2)))
    for shape in ((1, 0, 2), (1, 2, 0)):  # a zero size
        with pytest.raises(ValueError, match="nonempty matrices"):
            PositiveMapRep(np.zeros(shape))
    with pytest.raises(ValueError):
        PositiveMapRep((np.eye(2), np.eye(3)))  # ragged
    with pytest.raises(ValueError):
        PositiveMapRep(np.eye(2))  # one matrix, not a stack
    with pytest.raises(ValueError):
        PositiveMapRep((np.full((2, 2), np.nan),))


def test_rep_stores_one_stack():
    pmap = PositiveMapRep([np.ones((3, 2)), np.zeros((3, 2))])
    assert pmap.kraus_ops.shape == (2, 3, 2)
    assert pmap.kraus_ops.dtype == complex
    assert len(pmap.kraus_ops) == 2
    assert [k.shape for k in pmap.kraus_ops] == [(3, 2), (3, 2)]
    assert (pmap.input_dim, pmap.output_dim) == (3, 2)
    for name in ("input_dim", "output_dim"):
        with pytest.raises(AttributeError):
            setattr(pmap, name, 4)
    assert (pmap.input_dim, pmap.output_dim) == (3, 2)


def test_a_map_is_its_kraus_stack_alone():
    # The stack is the one settable value: the sizes are read off it, and
    # nothing else (a label, say) is stored beside it.
    assert [f.name for f in dataclasses.fields(PositiveMapRep)] == ["kraus_ops"]
    with pytest.raises(TypeError):
        PositiveMapRep((np.eye(2),), label="id(2)")


def test_rep_keeps_a_private_read_only_stack():
    ops = np.ones((1, 2, 2), dtype=complex)
    pmap = PositiveMapRep(ops)
    before = apply(pmap, np.eye(2))
    ops[:] = 0.0
    np.testing.assert_array_equal(apply(pmap, np.eye(2)), before)
    with pytest.raises(ValueError):
        pmap.kraus_ops[0, 0, 0] = np.nan


def test_apply_schur_family():
    beta = 1.0
    a = np.array([[2 * beta, 1.0], [1.0, 1 / (2 * beta)]])
    out = apply(schur_multiplier(a), R)
    np.testing.assert_allclose(out, R, atol=1e-14)


def test_apply_partial_trace_difference_of_projections():
    p = np.array([[1.0, 0.0], [0.0, 0.0]], dtype=complex)
    a = np.pi / 5
    q = np.array(
        [[np.cos(a) ** 2, np.sin(a) * np.cos(a)], [np.sin(a) * np.cos(a), np.sin(a) ** 2]],
        dtype=complex,
    )
    block = np.zeros((4, 4), dtype=complex)
    block[:2, :2] = p
    block[2:, 2:] = -q
    out = apply(partial_trace_first(2, 2), block)
    np.testing.assert_allclose(out, p - q, atol=1e-14)


def test_apply_zero_and_linearity():
    pmap = random_cp_map(0, 3, 2)
    np.testing.assert_allclose(apply(pmap, np.zeros((3, 3))), np.zeros((2, 2)), atol=0)
    x = random_matrix(1, 3)
    y = random_matrix(2, 3)
    alpha = 0.7 - 1.3j
    lhs = apply(pmap, alpha * x + y)
    rhs = alpha * apply(pmap, x) + apply(pmap, y)
    assert spectral_norm(lhs - rhs) <= 1e-10 * max(1.0, spectral_norm(rhs))


def test_apply_dimension_mismatch():
    with pytest.raises(ValueError):
        apply(random_cp_map(0, 3, 2), np.eye(2))


def test_apply_preserves_positivity_per_constructor():
    # 500 seeded PSD inputs through each constructor family.
    constructors = [
        ("schur", lambda s: schur_multiplier(random_psd([s, 0], 3))),
        ("ptrace", lambda s: partial_trace_first(2, 3)),
        ("corner", lambda s: corner_block_map(3)),
        ("random-cp", lambda s: random_cp_map([s, 1], 6, 3)),
        ("random-unital", lambda s: random_unital_cp_map([s, 2], 6, 3)),
    ]
    for ctor_index, (name, ctor) in enumerate(constructors):
        for s in range(500):
            pmap = ctor(s % 5)
            p = random_psd([ctor_index, s, 3], pmap.input_dim)
            image = apply(pmap, p)
            assert spectral_norm(image - image.conj().T) <= 1e-10 * max(
                1.0, spectral_norm(image)
            ), name
            w = np.linalg.eigvalsh(hermitian_part(image))
            assert w.min() >= -1e-9 * max(1.0, abs(w).max() if w.size else 1.0), name


_PARITY_MAPS = [
    pytest.param(schur_multiplier(random_psd(0, 3)), id="schur"),
    pytest.param(schur_multiplier(np.ones((3, 3))), id="schur-rank-one"),
    pytest.param(schur_multiplier(np.zeros((3, 3))), id="zero-multiplier"),
    pytest.param(partial_trace_first(3, 2), id="ptrace"),
    pytest.param(upper_left_map(2), id="upper-left"),
    pytest.param(corner_block_map(3), id="diag-average"),
    pytest.param(identity_map(3), id="identity"),
    pytest.param(random_cp_map(1, 3, 3), id="random-cp"),
    pytest.param(random_cp_map(2, 4, 2), id="random-cp-tall"),
    pytest.param(random_cp_map(3, 2, 5), id="random-cp-wide"),
    pytest.param(random_cp_map(4, 3, 2, terms=1), id="single-factor"),
    pytest.param(random_unital_cp_map(5, 4, 3), id="random-unital"),
    pytest.param(compose(random_cp_map(6, 3, 2), random_cp_map(7, 4, 3)), id="composed"),
    pytest.param(quarter_sharpness_map(), id="quarter"),
]


@pytest.mark.parametrize("pmap", _PARITY_MAPS)
def test_apply_matches_per_factor_oracle(pmap):
    for seed in range(4):
        for scale in (1.0, 1e-8, 1e6):
            x = scale * random_matrix([seed, 11], pmap.input_dim)
            expected = apply_by_factors(pmap.kraus_ops, x)
            err = spectral_norm(apply(pmap, x) - expected)
            assert err <= 1e-13 * max(1.0, spectral_norm(expected)), (seed, scale)


@pytest.mark.parametrize("pmap", _PARITY_MAPS)
def test_apply_on_a_stack_has_the_bits_of_each_member(pmap):
    xs = np.stack([random_matrix([seed, 12], pmap.input_dim) for seed in range(3)])
    images = apply(pmap, xs.reshape((3, 1) + xs.shape[1:]))
    assert images.shape == (3, 1, pmap.output_dim, pmap.output_dim)
    for k, x in enumerate(xs):
        np.testing.assert_array_equal(images[k, 0], apply(pmap, x))


def test_maps_pruned_to_zero_keep_one_zero_factor():
    multiplier = schur_multiplier(np.zeros((3, 3)))
    composed = compose(schur_multiplier(np.zeros((2, 2))), random_cp_map(0, 3, 2))
    for pmap, shape in ((multiplier, (1, 3, 3)), (composed, (1, 3, 2))):
        assert pmap.kraus_ops.shape == shape
        np.testing.assert_array_equal(pmap.kraus_ops, 0.0)
        np.testing.assert_array_equal(apply(pmap, random_matrix(0, 3)), 0.0)


@pytest.mark.parametrize(
    "outer,inner",
    [
        (random_cp_map(0, 3, 2), random_cp_map(1, 4, 3)),
        (random_cp_map(2, 2, 2, terms=1), random_cp_map(3, 2, 2)),
        (partial_trace_first(2, 2), corner_block_map(4)),
        (schur_multiplier(random_psd(4, 2)), random_unital_cp_map(5, 3, 2)),
    ],
)
def test_compose_matches_per_factor_oracle(outer, inner):
    composed = compose(outer, inner)
    expected = compose_by_factors(outer.kraus_ops, inner.kraus_ops)
    np.testing.assert_allclose(composed.kraus_ops, np.array(expected), rtol=0, atol=1e-13)
    x = random_matrix(6, inner.input_dim)
    direct = apply_by_factors(expected, x)
    assert spectral_norm(apply(composed, x) - direct) <= 1e-13 * max(1.0, spectral_norm(direct))


@pytest.mark.parametrize("n,m,terms", [(2, 2, None), (3, 2, None), (2, 4, 3), (4, 4, 1)])
def test_random_maps_are_the_per_term_draws(n, m, terms):
    seed = [5, n, m]
    draws = gaussian_kraus_draws(seed, n, m, n * m if terms is None else terms)
    base = random_cp_map(seed, n, m, terms)
    np.testing.assert_array_equal(base.kraus_ops, np.array(draws))
    unital = random_unital_cp_map(seed, n, m, terms)
    image = apply(base, np.eye(n))
    np.testing.assert_array_equal(unital.kraus_ops, np.array(unital_normalisation(draws, image)))


@pytest.mark.parametrize("n,m", [(1, 1), (2, 3), (3, 2), (4, 4)])
def test_upper_left_of_dilation_is_the_map_of_the_contraction(n, m):
    # The identity check_russo_dye relies on to skip the dilation: the map
    # composed with the upper-left extraction sends the unitary dilation of z to map(z).
    pmap = random_cp_map([n, m], n, m)
    extended = compose(pmap, upper_left_map(n))
    contractions = [
        0.5 * random_contraction([n, 1], n),
        random_contraction([n, 2], n),
        haar_unitary([n, 3], n),
        np.zeros((n, n), dtype=complex),
    ]
    for z in contractions:
        direct = apply(pmap, z)
        dilated = apply(extended, halmos_dilation(z))
        assert spectral_norm(dilated - direct) <= 1e-13 * max(1.0, spectral_norm(direct))


# ---------------------------------------------------------------------------
# schur multiplier
# ---------------------------------------------------------------------------


def test_schur_multiplier_identity_is_pinching():
    pmap = schur_multiplier(np.eye(3))
    x = random_matrix(4, 3)
    np.testing.assert_allclose(apply(pmap, x), np.diag(np.diag(x)), atol=1e-14)


def test_schur_multiplier_all_ones_is_identity_map():
    pmap = schur_multiplier(ONES2)
    x = random_matrix(5, 2)
    np.testing.assert_allclose(apply(pmap, x), x, atol=1e-12)


def test_schur_multiplier_ones_on_flip():
    np.testing.assert_allclose(apply(schur_multiplier(ONES2), R), R, atol=1e-12)


def test_schur_multiplier_matches_entrywise_product_complex():
    for seed in range(20):
        a = random_psd([seed, 0], 4)
        pmap = schur_multiplier(a)
        x = random_matrix([seed, 1], 4)
        lhs = apply(pmap, x)
        rhs = schur_prod(a, x)
        assert spectral_norm(lhs - rhs) <= 1e-10 * max(1.0, spectral_norm(rhs))


def test_schur_multiplier_rejects_non_psd():
    with pytest.raises(ValueError):
        schur_multiplier(np.diag([1.0, -1.0]))


# ---------------------------------------------------------------------------
# partial trace, corner maps, compose
# ---------------------------------------------------------------------------


def test_partial_trace_sums_blocks():
    blocks = [random_matrix(s, 3) for s in range(3)]
    big = np.zeros((9, 9), dtype=complex)
    for i, b in enumerate(blocks):
        big[3 * i : 3 * i + 3, 3 * i : 3 * i + 3] = b
    out = apply(partial_trace_first(3, 3), big)
    np.testing.assert_allclose(out, sum(blocks), atol=1e-13)


def test_partial_trace_on_tensor_product():
    x = random_matrix(0, 2)
    y = random_matrix(1, 3)
    out = apply(partial_trace_first(2, 3), np.kron(x, y))
    np.testing.assert_allclose(out, np.trace(x) * y, atol=1e-13)


def test_partial_trace_with_one_block_is_identity():
    x = random_matrix(2, 3)
    np.testing.assert_allclose(apply(partial_trace_first(1, 3), x), x, atol=0)


def test_corner_upper_left_extraction():
    a = random_matrix(0, 2)
    d = random_matrix(1, 2)
    big = np.zeros((4, 4), dtype=complex)
    big[:2, :2] = a
    big[2:, 2:] = d
    np.testing.assert_allclose(apply(upper_left_map(2), big), a, atol=0)


def test_corner_diag_average_builds_real_part():
    a = random_normal(3, 3)
    big = np.zeros((6, 6), dtype=complex)
    big[:3, :3] = a
    big[3:, 3:] = np.conj(a)
    out = apply(corner_block_map(3), big)
    np.testing.assert_allclose(out, (a + np.conj(a)) / 2.0, atol=1e-14)


def test_compose_with_identity():
    pmap = random_cp_map(0, 3, 2)
    composed = compose(pmap, identity_map(3))
    x = random_matrix(1, 3)
    np.testing.assert_allclose(apply(composed, x), apply(pmap, x), atol=1e-13)


def test_compose_matches_sequential_application():
    inner = random_cp_map(0, 4, 3)
    outer = random_cp_map(1, 3, 2)
    composed = compose(outer, inner)
    x = random_matrix(2, 4)
    lhs = apply(composed, x)
    rhs = apply(outer, apply(inner, x))
    assert spectral_norm(lhs - rhs) <= 1e-10 * max(1.0, spectral_norm(rhs))


def test_compose_associative():
    # compose(outer, inner) runs inner first: the chain is h, then g, then f.
    h = random_cp_map(2, 2, 4)
    g = random_cp_map(1, 4, 3)
    f = random_cp_map(0, 3, 2)
    x = random_matrix(3, 2)
    lhs = apply(compose(compose(f, g), h), x)
    rhs = apply(compose(f, compose(g, h)), x)
    assert spectral_norm(lhs - rhs) <= 1e-10 * max(1.0, spectral_norm(rhs))


def test_compose_dimension_mismatch():
    with pytest.raises(ValueError):
        compose(random_cp_map(0, 3, 2), random_cp_map(1, 2, 2))


def test_compose_partial_trace_with_embedding():
    emb = identity_map(6)
    traced = compose(partial_trace_first(2, 3), emb)
    x = random_matrix(0, 2)
    y = random_matrix(1, 3)
    np.testing.assert_allclose(apply(traced, np.kron(x, y)), np.trace(x) * y, atol=1e-13)


def test_compose_block_sum_after_extraction_doubles_schur_square():
    # On the tensor product of the two off-diagonal block Hermitians built
    # from x, extraction of the paired diagonal followed by the block sum
    # evaluates to twice the entrywise product of x with its adjoint.
    x = random_matrix(6, 2)
    zero = np.zeros((2, 2), dtype=complex)
    left = np.block([[zero, x.conj().T], [x, zero]])
    right = np.block([[zero, x], [x.conj().T, zero]])
    selection = np.eye(16, dtype=complex)[:, [5 * i for i in range(4)]]
    extraction = PositiveMapRep((selection,))
    block_sum = PositiveMapRep((np.vstack([np.eye(2), np.eye(2)]),))
    composed = compose(block_sum, extraction)
    out = apply(composed, np.kron(left, right))
    direct = apply(block_sum, apply(extraction, np.kron(left, right)))
    np.testing.assert_allclose(out, direct, atol=1e-12)
    np.testing.assert_allclose(out, 2.0 * schur_prod(x, x.conj().T), atol=1e-12)


# ---------------------------------------------------------------------------
# choi / unital / amplification
# ---------------------------------------------------------------------------


def test_quarter_sharpness_map_is_unital_and_cp():
    pmap = quarter_sharpness_map()
    assert is_unital(pmap)
    assert np.linalg.eigvalsh(choi_by_units(pmap)).min() >= -1e-9


def test_schur_multiplier_unital_iff_unit_diagonal():
    assert is_unital(schur_multiplier(ONES2))
    assert not is_unital(schur_multiplier(np.diag([2.0, 1.0])))


def test_partial_trace_not_unital():
    assert not is_unital(partial_trace_first(2, 2))


def test_choi_psd_for_every_constructor():
    maps = [
        schur_multiplier(random_psd(0, 3)),
        partial_trace_first(2, 2),
        upper_left_map(2),
        corner_block_map(2),
        compose(random_cp_map(1, 2, 3), upper_left_map(2)),
        identity_map(3),
        random_cp_map(2, 2, 3),
        random_unital_cp_map(3, 3, 2),
    ]
    for index, pmap in enumerate(maps):
        c = choi_by_units(pmap)
        assert np.linalg.eigvalsh(c).min() >= -1e-9 * max(1.0, spectral_norm(c)), index


def _choi_maps():
    for n, m in [(1, 1), (2, 3), (3, 2), (4, 4)]:
        yield pytest.param(lambda n=n, m=m: random_cp_map([n, m], n, m), id=f"random-{n}x{m}")
        yield pytest.param(lambda n=n, m=m: random_unital_cp_map([n, m], n, m), id=f"unital-{n}x{m}")
    for n in (1, 2, 3, 4):
        yield pytest.param(lambda n=n: schur_multiplier(random_psd([n, 5], n)), id=f"schur-{n}")


@pytest.mark.parametrize("make", _choi_maps())
def test_choi_has_the_bits_of_one_apply_per_matrix_unit(make):
    # The n^2 matrix units E_ij as one (n, n, n, n) stack: one apply call gives
    # the blocks map(E_ij) of one call per unit, and the Choi matrix is PSD.
    pmap = make()
    n, m = pmap.input_dim, pmap.output_dim
    units = np.eye(n * n, dtype=complex).reshape(n, n, n, n)
    stacked = apply(pmap, units).transpose(0, 2, 1, 3).reshape(n * m, n * m)
    c = choi_by_units(pmap)
    np.testing.assert_array_equal((stacked + stacked.conj().T) / 2.0, c)
    assert np.linalg.eigvalsh(c).min() >= -1e-9 * max(1.0, spectral_norm(c))


# ---------------------------------------------------------------------------
# halmos dilation: the oracle the Russo-Dye identity above is checked on
# ---------------------------------------------------------------------------


def test_halmos_of_unitary_is_block_diagonal():
    u = haar_unitary(0, 3)
    big = halmos_dilation(u)
    np.testing.assert_allclose(big[:3, :3], u, atol=0)
    np.testing.assert_allclose(big[:3, 3:], np.zeros((3, 3)), atol=1e-7)
    np.testing.assert_allclose(big[3:, 3:], u.conj().T, atol=0)


def test_halmos_of_zero():
    big = halmos_dilation(np.zeros((2, 2)))
    expect = np.block(
        [[np.zeros((2, 2)), -np.eye(2)], [np.eye(2), np.zeros((2, 2))]]
    ).astype(complex)
    np.testing.assert_allclose(big, expect, atol=1e-14)


def test_halmos_of_half_identity():
    big = halmos_dilation(np.eye(2) / 2.0)
    np.testing.assert_allclose(big[:2, 2:], -np.sqrt(3.0) / 2.0 * np.eye(2), atol=1e-14)
    np.testing.assert_allclose(big[2:, :2], np.sqrt(3.0) / 2.0 * np.eye(2), atol=1e-14)


def test_halmos_unitarity_sweep_including_boundary():
    for seed in range(200):
        z = random_contraction(seed, 3)
        if seed % 2:
            z = 0.6 * z  # strict contraction half the time
        big = halmos_dilation(z)
        assert spectral_norm(big.conj().T @ big - np.eye(6)) <= 1e-9
        np.testing.assert_array_equal(big[:3, :3], z)


def test_halmos_rejects_expansion():
    with pytest.raises(ValueError):
        halmos_dilation(1.1 * np.eye(2))
