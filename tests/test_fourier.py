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
