import numpy as np
import pytest

from zakspace.errors import ShapeMismatch
from zakspace.lattice import (
    classic_zak,
    classic_zak_direct,
    classic_zak_inverse,
    eval_at_wavevector,
    quasiperiodicity_residual,
    roundtrip_residual,
)
from zakspace.serialize import grid_from_bytes, grid_from_dict, grid_to_bytes, grid_to_dict


def test_delta_at_origin_flat_in_k():
    f = np.zeros(12, dtype=complex)
    f[0] = 1.0
    grid = classic_zak(f, cells=3)
    assert np.max(np.abs(grid.values[0] - 1.0)) < 1e-12
    assert np.max(np.abs(grid.values[1:])) < 1e-12


def test_full_orbit_concentrates_at_k0():
    # ones on the orbit {x0 - n M}: geometric sum N [j == 0]
    m, n = 3, 5
    f = np.zeros(m * n, dtype=complex)
    f[1::m] = 1.0  # the orbit of x0 = 1
    grid = classic_zak(f, cells=m)
    assert grid.values[1, 0] == pytest.approx(n)
    assert np.max(np.abs(grid.values[1, 1:])) < 1e-10
    assert np.max(np.abs(grid.values[0])) < 1e-12


def test_fft_matches_direct_1d():
    rng = np.random.default_rng(0)
    f = rng.normal(size=64) + 1j * rng.normal(size=64)
    grid = classic_zak(f, cells=4)
    direct = classic_zak_direct(f, cells=4)
    assert np.max(np.abs(grid.values - direct)) < 1e-10


def test_fft_matches_direct_2d():
    rng = np.random.default_rng(1)
    f = rng.normal(size=(16, 16)) + 1j * rng.normal(size=(16, 16))
    grid = classic_zak(f, cells=(4, 2))
    direct = classic_zak_direct(f, cells=(4, 2))
    assert np.max(np.abs(grid.values - direct)) < 1e-10


def test_roundtrip():
    rng = np.random.default_rng(2)
    f = rng.normal(size=24) + 1j * rng.normal(size=24)
    assert roundtrip_residual(f, cells=4) < 1e-10
    f2 = rng.normal(size=(8, 6)) + 1j * rng.normal(size=(8, 6))
    grid = classic_zak(f2, cells=(2, 3))
    assert np.max(np.abs(classic_zak_inverse(grid) - f2)) < 1e-12


def test_quasiperiodicity():
    rng = np.random.default_rng(3)
    f = rng.normal(size=20) + 1j * rng.normal(size=20)
    grid = classic_zak(f, cells=4)
    for x0 in range(4):
        for j in range(5):
            assert quasiperiodicity_residual(grid, x0, j) < 1e-10


def test_eval_matches_grid_samples():
    rng = np.random.default_rng(4)
    f = rng.normal(size=12) + 1j * rng.normal(size=12)
    grid = classic_zak(f, cells=3)
    for x0 in range(3):
        for j in range(4):
            k = grid.k_value(j)
            assert eval_at_wavevector(grid, x0, k) == pytest.approx(
                grid.values[x0, j], abs=1e-10
            )


def test_shape_errors():
    with pytest.raises(ShapeMismatch):
        classic_zak(np.zeros(10), cells=3)
    with pytest.raises(ShapeMismatch):
        classic_zak(np.zeros((4, 4)), cells=(2, 2, 2))


def test_serialization_roundtrip():
    rng = np.random.default_rng(5)
    f = rng.normal(size=(6, 4)) + 1j * rng.normal(size=(6, 4))
    grid = classic_zak(f, cells=(3, 2))
    doc = grid_to_dict(grid)
    back = grid_from_dict(doc)
    assert np.max(np.abs(back.values - grid.values)) < 1e-15
    raw = grid_to_bytes(grid)
    back2 = grid_from_bytes(raw)
    assert back2.cells == grid.cells and back2.periods == grid.periods
    assert np.array_equal(back2.values, grid.values)
    assert np.array_equal(back2.samples, grid.samples)


def test_lattice_unitarity_report():
    from zakspace.zak import verify_unitarity

    rng = np.random.default_rng(6)
    f = rng.normal(size=(8, 6)) + 1j * rng.normal(size=(8, 6))
    grid = classic_zak(f, cells=(2, 3))
    rep = verify_unitarity(grid, f.ravel())
    assert rep.passed


@pytest.mark.parametrize(
    "shape, cells", [((12,), (3,)), ((8,), (8,)), ((12,), (1,)), ((8, 6), (4, 2)), ((4, 6, 6), (2, 3, 1))]
)
def test_inverse_scatter_matches_the_unfolding_loop(shape, cells):
    from oracles import classic_zak_inverse_loop
    from zakspace.lattice import LatticeZakGrid

    rng = np.random.default_rng(sum(shape))
    f = rng.normal(size=shape) + 1j * rng.normal(size=shape)
    grid = classic_zak(f, cells)
    assert np.array_equal(classic_zak_inverse(grid), classic_zak_inverse_loop(grid))
    # any grid of values, not only a transform, unfolds the same way
    values = rng.normal(size=grid.values.shape) + 1j * rng.normal(size=grid.values.shape)
    other = LatticeZakGrid(grid.cells, grid.periods, values, grid.samples)
    assert np.array_equal(classic_zak_inverse(other), classic_zak_inverse_loop(other))


@pytest.mark.parametrize("d", [1, 2, 3])
def test_direct_sum_matches_the_term_by_term_loop(d):
    from oracles import classic_zak_direct_loop

    rng = np.random.default_rng(40 + d)
    for _ in range(4):
        cells = tuple(int(m) for m in rng.integers(1, 4, size=d))
        periods = tuple(int(n) for n in rng.integers(1, 6 if d < 3 else 4, size=d))
        shape = tuple(m * n for m, n in zip(cells, periods))
        f = (rng.normal(size=shape) + 1j * rng.normal(size=shape)) * rng.choice([1e-3, 1.0, 50.0])
        residual = np.max(np.abs(classic_zak_direct(f, cells) - classic_zak_direct_loop(f, cells)))
        assert residual <= 1e-13 * max(1.0, float(np.max(np.abs(f))))
