import numpy as np
import pytest

from zakspace.duals import irreps
from zakspace.errors import ShapeMismatch, SizeMismatch
from zakspace.fixtures import random_complex
from zakspace.fourier import fourier, inverse_fourier, plancherel_residual
from zakspace.groups import cyclic_group, dihedral_group, symmetric_group


@pytest.mark.parametrize("group", [cyclic_group(5), symmetric_group(3), dihedral_group(4)])
def test_delta_transforms_to_identity(group):
    dual = irreps(group)
    f = np.zeros(group.order)
    f[group.identity] = 1.0
    fhat = fourier(f, dual)
    for s in dual.irreps:
        assert np.max(np.abs(fhat[s.label] - np.eye(s.dim))) < 1e-12


def test_constant_concentrates_on_trivial():
    group = symmetric_group(3)
    dual = irreps(group)
    fhat = fourier(np.ones(group.order), dual)
    trivial = [s for s in dual.irreps if np.max(np.abs(s.character() - 1)) < 1e-9][0]
    assert fhat[trivial.label][0, 0] == pytest.approx(group.order)
    for s in dual.irreps:
        if s.label != trivial.label:
            assert np.max(np.abs(fhat[s.label])) < 1e-12


def test_identity_coefficients_invert_to_delta():
    group = symmetric_group(3)
    dual = irreps(group)
    coeffs = fourier(np.eye(group.order)[group.identity] + 0j, dual)
    f = inverse_fourier(coeffs, dual)
    expected = np.zeros(group.order)
    expected[group.identity] = 1.0
    assert np.max(np.abs(f - expected)) < 1e-12


@pytest.mark.parametrize("group", [cyclic_group(6), symmetric_group(3), dihedral_group(4)])
def test_roundtrip_random(group):
    dual = irreps(group)
    rng = np.random.default_rng(42)
    for _ in range(10):
        f = random_complex(rng, group.order)
        back = inverse_fourier(fourier(f, dual), dual)
        assert np.max(np.abs(back - f)) < 1e-12


@pytest.mark.parametrize("group", [cyclic_group(6), symmetric_group(3), dihedral_group(4)])
def test_plancherel(group):
    dual = irreps(group)
    rng = np.random.default_rng(5)
    for _ in range(50):
        f = random_complex(rng, group.order)
        assert plancherel_residual(f, dual) < 1e-10


def test_plancherel_invariant_under_basis_change():
    rng = np.random.default_rng(9)
    group = symmetric_group(3)
    dual = irreps(group)
    f = random_complex(rng, group.order)
    base = fourier(f, dual).hs_norm_sq()
    from zakspace.duals import DualObject

    conj_irreps = []
    for s in dual.irreps:
        q, _ = np.linalg.qr(rng.normal(size=(s.dim, s.dim)) + 1j * rng.normal(size=(s.dim, s.dim)))
        conj_irreps.append(s.conjugated(q))
    dual2 = DualObject(group, conj_irreps)
    assert fourier(f, dual2).hs_norm_sq() == pytest.approx(base, abs=1e-10)


def test_shape_errors():
    group = cyclic_group(4)
    dual = irreps(group)
    with pytest.raises(SizeMismatch):
        fourier(np.ones(5), dual)
    coeffs = fourier(np.ones(4), dual)
    coeffs.blocks["chi0"] = np.eye(2)
    with pytest.raises(ShapeMismatch):
        inverse_fourier(coeffs, dual)


# ---------------------------------------------------------------------------
# the transform core against the per-irrep loops in oracles.py


@pytest.mark.parametrize("group", [cyclic_group(7), symmetric_group(4), dihedral_group(6)], ids=["C7", "S4", "D6"])
def test_fourier_and_inverse_match_the_per_irrep_loops(group):
    from oracles import fourier_loop, inverse_fourier_loop
    from zakspace.fourier import FourierCoefficients

    rng = np.random.default_rng(group.order)
    dual = irreps(group)
    for _ in range(3):
        f = random_complex(rng, group.order)
        fhat, want = fourier(f, dual), fourier_loop(f, dual)
        assert list(fhat.blocks) == list(want)
        for label, block in want.items():
            assert np.max(np.abs(fhat[label] - block)) <= 1e-12
        blocks = {s.label: random_complex(rng, s.dim**2).reshape(s.dim, s.dim) for s in dual.irreps}
        back = inverse_fourier(FourierCoefficients(dual, blocks), dual)
        assert np.max(np.abs(back - inverse_fourier_loop(blocks, dual))) <= 1e-12


def test_inverse_fourier_reports_the_loops_first_bad_block():
    from oracles import inverse_fourier_loop
    from planted import assert_same_outcome, outcome

    dual = irreps(dihedral_group(5))
    labels = dual.labels
    for bad in ([labels[-1]], [labels[1], labels[-1]], labels[::2]):
        coeffs = fourier(np.ones(10), dual)
        for label in bad:
            coeffs.blocks[label] = np.zeros((3, 3))
        got = outcome(inverse_fourier, coeffs, dual)
        assert got[:2] == ("raised", ShapeMismatch)
        assert_same_outcome(got, outcome(inverse_fourier_loop, coeffs.blocks, dual), None)


# ---------------------------------------------------------------------------
# the inverse core: bitwise the (irreps, points) body it replaced, in small temporaries


def _orbit_shape(shape: str):
    from sample_actions import d5_with_vertices
    from zakspace.actions import make_action, translation_action

    if shape == "d5_vertices":
        return d5_with_vertices()  # 2-dimensional irreps
    if shape == "one_orbit_per_point":
        return make_action(cyclic_group(2), np.tile(np.arange(3000), (2, 1)))
    s5 = symmetric_group(5)
    if shape == "s5_on_letters":
        return make_action(s5, np.array(s5.permutations))  # stabilizers of order 24
    return translation_action(s5)


@pytest.mark.parametrize("shape", ["s5_regular", "d5_vertices", "one_orbit_per_point", "s5_on_letters"])
def test_inverse_is_the_irrep_body_summed_bitwise_on_every_orbit_shape(shape):
    from oracles import inverse_by_irrep, masked_zak_blocks
    from zakspace.fourier import inverse
    from zakspace.zak import zak, zak_inverse

    action = _orbit_shape(shape)
    dual = irreps(action.group)
    rng = np.random.default_rng(3)
    for f in (random_complex(rng, action.npoints), np.zeros(action.npoints), -np.ones(action.npoints)):
        coeffs = zak(action, f, dual)
        decomp = coeffs.structure.decomp
        blocks = masked_zak_blocks(coeffs)
        want = inverse_by_irrep(blocks, decomp.orbit_id, decomp.to_rep_element, dual)
        assert zak_inverse(coeffs).tobytes() == want.tobytes()
        everywhere = np.zeros(action.group.order, dtype=int), np.arange(action.group.order)
        assert inverse(blocks, *everywhere, dual).tobytes() == inverse_by_irrep(blocks, *everywhere, dual).tobytes()


def _zak_inverse_footprint(action):
    """tracemalloc peak of one zak_inverse call beyond its output and its copy of the Zak blocks, in bytes."""
    import tracemalloc

    from zakspace.zak import zak, zak_inverse

    coeffs = zak(action, random_complex(np.random.default_rng(0), action.npoints), irreps(action.group))
    zak_inverse(coeffs)  # the derived views are built once, outside the measurement
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        f = zak_inverse(coeffs)
        peak = tracemalloc.get_traced_memory()[1] - before
    finally:
        tracemalloc.stop()
    return peak - f.nbytes - sum(z.nbytes for z in coeffs.blocks)


def test_zak_inverse_temporaries_stay_bounded_as_the_points_grow():
    """C64 on 288 points, and on ten copies of them: a chunk's terms buffer, two gathers
    and product are at most 4096 entries each, so the footprint beyond the output and the
    blocks masked to the reciprocal space stays under 4 x 64 KiB + 8 KiB whatever the
    number of points (the (irreps, points) body it replaced took 816 KB on 288 points,
    and grows with them)."""
    from sample_actions import cell_orbits
    from zakspace.actions import make_action

    small = cell_orbits()
    copies = np.concatenate([small.perm + i * small.npoints for i in range(10)], axis=1)
    large = make_action(small.group, copies, np.tile(small.weights, 10))
    for action in (small, large):
        assert _zak_inverse_footprint(action) <= 4 * 64 * 1024 + 8 * 1024
