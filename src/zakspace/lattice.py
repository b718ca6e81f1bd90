"""Classic Zak transform of sampled lattice translations, via FFT.

The infinite lattice of cell size M per axis is replaced by a ring of N
periods per axis (Born-von-Karman closure), so the acting group is a
product of cyclic groups and every transform below is a finite identity.
For a cell offset x0 and integer wave index j the value is the DFT of the
orbit sequence,

    Z f(x0, j) = sum_n f(x0 - n M) exp(-2 pi i j.n / N),

one length-N FFT per cell offset.  Physical wavenumbers are
k_j = 2 pi j / (N M) per axis; adding a reciprocal-lattice vector
(multiples of 2 pi / M) leaves every value unchanged.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import ShapeMismatch


@dataclass
class LatticeZakGrid:
    """Zak values indexed by (cell offsets..., wave indices...)."""

    cells: tuple        # M per axis
    periods: tuple      # N per axis
    values: np.ndarray  # shape cells + periods, complex
    samples: np.ndarray

    @property
    def ndim_space(self) -> int:
        return len(self.cells)

    def k_value(self, j, axis: int = 0) -> float:
        return 2.0 * np.pi * j / (self.periods[axis] * self.cells[axis])


def _orbit_index(shape: tuple, cells: tuple) -> tuple:
    """Index arrays with samples[index][x0, n] = f(x0 - n M), cyclically per axis."""
    d = len(shape)
    periods = tuple(shape[a] // cells[a] for a in range(d))
    grids = np.meshgrid(
        *[np.arange(m) for m in cells],
        *[np.arange(n) for n in periods],
        indexing="ij",
    )
    return tuple((grids[a] - cells[a] * grids[d + a]) % shape[a] for a in range(d))


def classic_zak(samples, cells) -> LatticeZakGrid:
    """Zak transform of a sampled d-dimensional ring, FFT along each period axis."""
    samples = np.asarray(samples, dtype=complex)
    d = samples.ndim
    cells = tuple(int(m) for m in (cells if np.iterable(cells) else [cells] * d))
    if len(cells) != d:
        raise ShapeMismatch(f"{d}-dimensional samples need {d} cell sizes, got {cells}")
    for axis in range(d):
        if cells[axis] <= 0 or samples.shape[axis] % cells[axis]:
            raise ShapeMismatch(
                f"axis {axis}: length {samples.shape[axis]} not divisible by cell {cells[axis]}"
            )
    periods = tuple(samples.shape[a] // cells[a] for a in range(d))
    orbit = samples[_orbit_index(samples.shape, cells)]
    values = np.fft.fftn(orbit, axes=tuple(range(d, 2 * d)))
    return LatticeZakGrid(cells, periods, values, samples)


def classic_zak_direct(samples, cells) -> np.ndarray:
    """Brute-force reference: the defining sum, O(N^2), with no FFT.

    Each orbit index n, in np.ndindex order, adds its term for every cell
    offset x0 and wave index j at once.
    """
    samples = np.asarray(samples, dtype=complex)
    d = samples.ndim
    cells = tuple(int(m) for m in (cells if np.iterable(cells) else [cells] * d))
    periods = tuple(samples.shape[a] // cells[a] for a in range(d))
    x0, j = np.indices(cells), np.indices(periods)
    over_j = (...,) + (None,) * d
    out = np.zeros(cells + periods, dtype=complex)
    for n in np.ndindex(*periods):
        src = tuple((x0[a] - n[a] * cells[a]) % samples.shape[a] for a in range(d))
        phase = sum(j[a] * n[a] / periods[a] for a in range(d))
        out += samples[src][over_j] * np.exp(-2j * np.pi * phase)
    return out


def classic_zak_inverse(grid: LatticeZakGrid) -> np.ndarray:
    """Invert by inverse FFT along the period axes and unfold the orbits in one scatter."""
    d = grid.ndim_space
    orbit = np.fft.ifftn(grid.values, axes=tuple(range(d, 2 * d)))
    samples = np.empty(
        tuple(grid.cells[a] * grid.periods[a] for a in range(d)), dtype=complex
    )
    samples[_orbit_index(samples.shape, grid.cells)] = orbit
    return samples


def eval_at_wavevector(grid: LatticeZakGrid, x0, k) -> complex:
    """Direct evaluation at a real wavevector (for quasi-periodicity checks)."""
    d = grid.ndim_space
    x0 = tuple(int(v) for v in (x0 if np.iterable(x0) else [x0]))
    k = np.atleast_1d(np.asarray(k, dtype=float))
    acc = 0.0 + 0.0j
    for n in np.ndindex(*grid.periods):
        src = tuple(
            (x0[a] - n[a] * grid.cells[a]) % grid.samples.shape[a] for a in range(d)
        )
        v = np.array([n[a] * grid.cells[a] for a in range(d)], dtype=float)
        acc += grid.samples[src] * np.exp(-1j * np.dot(k, v))
    return acc


def quasiperiodicity_residual(grid: LatticeZakGrid, x0, j) -> float:
    """|Z(x0, k_j + b) - Z(x0, k_j)| over the reciprocal basis vectors b."""
    d = grid.ndim_space
    j = tuple(int(v) for v in (j if np.iterable(j) else [j]))
    k = np.array([grid.k_value(j[a], a) for a in range(d)])
    base = eval_at_wavevector(grid, x0, k)
    worst = 0.0
    for axis in range(d):
        b = np.zeros(d)
        b[axis] = 2.0 * np.pi / grid.cells[axis]
        worst = max(worst, abs(eval_at_wavevector(grid, x0, k + b) - base))
    return worst


def roundtrip_residual(samples, cells) -> float:
    samples = np.asarray(samples, dtype=complex)
    rec = classic_zak_inverse(classic_zak(samples, cells))
    return float(np.max(np.abs(rec - samples)) / max(1.0, float(np.max(np.abs(samples)))))

