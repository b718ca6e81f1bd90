"""Finite scattering models: plane waves, field actions, radiation transform.

The far-field amplitude of a density phi illuminated by a field E along
the outgoing direction s0 is modelled by the projected quadrature sum

    R[E] phi (s0) = P (sum_x w(x) E(x) exp(-i (omega/c) s0 . x) phi(x)),

with P = I - s0 s0^T killing the longitudinal component.  Isometries act
on fields by (g E)(x) = Q E(Q^T (x - c)).  Projecting a plane wave onto
the irreps of a finite isometry group and summing the transforms with
Plancherel weights collapses, trace by trace, back to a plain Fourier
coefficient of the density: the recovery identity this module verifies.

Element lists are stacked once per call into q (n, 3, 3) and c (n, 3), as
in euclid, so sample permutations and moved fields are batched over them.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .duals import DualObject
from .errors import (
    DensityNotInvariant,
    DimensionMismatch,
    NotTransverse,
    SampleSetNotClosed,
    ShapeMismatch,
    SizeMismatch,
)
from .euclid import IsometryElement, IsometryGroupSpec, generate


@dataclass
class VectorField:
    """Complex 3-vector samples on weighted quadrature points."""

    points: np.ndarray   # (m, 3)
    weights: np.ndarray  # (m,)
    values: np.ndarray   # (m, 3) complex

    def __post_init__(self):
        self.points = np.asarray(self.points, dtype=float)
        self.weights = np.asarray(self.weights, dtype=float)
        self.values = np.asarray(self.values, dtype=complex)
        m = self.points.shape[0]
        if self.points.shape != (m, 3) or self.values.shape != (m, 3):
            raise ShapeMismatch("points and values must be (m, 3)")
        if self.weights.shape != (m,):
            raise ShapeMismatch("weights must be (m,)")
        if not np.all(self.weights > 0):
            raise ShapeMismatch("weights must be positive")
        if not np.all(np.isfinite(self.values.view(float))):
            raise ShapeMismatch("field values must be finite")


@dataclass
class ScatteringSetup:
    """Weighted density samples, frequency, light speed, outgoing direction."""

    points: np.ndarray
    weights: np.ndarray
    density: np.ndarray
    omega: float
    c_light: float
    s0: np.ndarray

    def __post_init__(self):
        self.points = np.asarray(self.points, dtype=float)
        self.weights = np.asarray(self.weights, dtype=float)
        self.density = np.asarray(self.density, dtype=float)
        self.s0 = np.asarray(self.s0, dtype=float)
        if self.points.ndim != 2 or self.points.shape[1] != 3:
            raise ShapeMismatch("points must be (m, 3)")
        m = self.points.shape[0]
        if self.weights.shape != (m,) or self.density.shape != (m,):
            raise ShapeMismatch("weights and density must match the points")
        if self.s0.shape != (3,):
            raise ShapeMismatch("s0 must be a 3-vector")
        values = np.concatenate([self.points.ravel(), self.weights, self.density, self.s0, [self.omega, self.c_light]])
        if not np.isfinite(values).all():
            raise ShapeMismatch("points, weights, density, omega, c_light and s0 must be finite")
        if not (self.weights > 0).all():
            raise ShapeMismatch("quadrature weights must be positive")
        if not self.c_light > 0:
            raise ShapeMismatch(f"c_light must be positive, got {self.c_light}")
        norm = math.sqrt(self.s0.dot(self.s0))  # np.linalg.norm(s0), bit for bit
        if abs(norm - 1.0) > 1e-12:
            raise ShapeMismatch(f"s0 must be a unit vector, |s0| = {norm}")

    @property
    def wavenumber(self) -> float:
        return self.omega / self.c_light

    def projector(self) -> np.ndarray:
        return np.eye(3) - np.outer(self.s0, self.s0)


def plane_wave(k, n, points, weights=None) -> VectorField:
    """E(x) = n exp(i k.x) sampled on the points; requires n . k = 0."""
    k = np.asarray(k, dtype=float)
    n = np.asarray(n, dtype=complex)
    dot = complex(np.dot(n, k))
    if abs(dot) > 1e-10 * max(1.0, float(np.linalg.norm(k))):
        raise NotTransverse(dot)
    points = np.asarray(points, dtype=float)
    if weights is None:
        weights = np.ones(points.shape[0])
    phases = np.exp(1j * points @ k)
    return VectorField(points, weights, phases[:, None] * n[None, :])


def _point_permutation(points: np.ndarray, q: np.ndarray, c: np.ndarray, tol: float = 1e-9) -> np.ndarray:
    """perm (n, m) with points[perm[g, i]] = g^-1 points[i] for each stacked (Q, c),
    or SampleSetNotClosed at the first escaping point of the first element that has one."""
    m, dim = points.shape
    if q.shape[1:] != (dim, dim):
        raise DimensionMismatch(f"point of dimension {dim} under {q.shape[-1]}-d isometry")
    images = ((points[None, :, :] - c[:, None, :]) @ q).reshape(-1, dim)
    perm = np.empty(len(images), dtype=int)
    step = max(1, (1 << 20) // max(m, 1))  # rows of the distance matrix per block
    for lo in range(0, len(images), step):
        dist = np.linalg.norm(points[None, :, :] - images[lo : lo + step, None, :], axis=2)
        perm[lo : lo + step] = np.argmin(dist, axis=1)
        escaped = np.flatnonzero(dist[np.arange(len(dist)), perm[lo : lo + step]] > tol)
        if escaped.size:
            raise SampleSetNotClosed(points[(lo + escaped[0]) % m])
    return perm.reshape(len(q), m)


def act_field(g: IsometryElement, field: VectorField) -> VectorField:
    """(g E)(x) = Q E(Q^T (x - c)): permute samples, rotate values."""
    moved, _ = _moved_values(field, g.q[None], g.c[None])
    return VectorField(field.points, field.weights, moved[0])


def radiation_transform(field: VectorField, setup: ScatteringSetup) -> np.ndarray:
    """Projected quadrature sum; a complex 3-vector orthogonal to s0."""
    if setup.density.shape != (field.points.shape[0],):
        raise SizeMismatch(
            f"density has shape {setup.density.shape} for {field.points.shape[0]} points"
        )
    if np.max(np.abs(setup.points - field.points)) > 1e-12:
        raise SizeMismatch("field and setup are sampled on different points")
    phases = np.exp(-1j * setup.wavenumber * (field.points @ setup.s0))
    total = np.einsum("x,x,x,xi->i", setup.weights, setup.density + 0j, phases, field.values)
    return setup.projector() @ total


def density_fourier(points, weights, density, ell) -> np.ndarray | complex:
    """Quadrature Fourier sum of the density at wavevector ell."""
    phases = np.exp(-1j * np.asarray(points) @ np.asarray(ell, dtype=float))
    return complex(np.sum(np.asarray(weights) * np.asarray(density) * phases))


def _moved_values(field: VectorField, q: np.ndarray, c: np.ndarray):
    """(g E)(x) for every stacked (Q, c), and the sample permutations: arrays (|G|, m, 3) and (|G|, m)."""
    perms = _point_permutation(field.points, q, c)
    return field.values[perms] @ np.swapaxes(q, 1, 2), perms


def _project(moved: np.ndarray, irrep_matrices) -> np.ndarray:
    """sum_g (g E)(x) sigma(g)* from the moved fields: array (m, d, d, 3)."""
    return np.einsum("gxi,gba->xabi", moved, np.asarray(irrep_matrices).conj())


def symmetry_projection(field: VectorField, elements, irrep_matrices) -> np.ndarray:
    """P^sigma E (x) = sum_g (g E)(x) sigma(g)*: array (m, d, d, 3)."""
    return _project(_moved_values(field, *_stacked(elements))[0], irrep_matrices)


@dataclass
class RecoveryReport:
    per_irrep: dict          # label -> (d, d, 3) projected transform
    combined: np.ndarray     # Plancherel-weighted trace over irreps, (3,)
    reference: np.ndarray    # P n phihat((omega/c) s0 - k), (3,)
    residual: float


def symmetry_projected_transform(group_spec, dual: DualObject, k, n, setup: ScatteringSetup) -> RecoveryReport:
    """Per-irrep radiation transforms of a symmetry-projected plane wave.

    group_spec is either an IsometryGroupSpec (generated here; must come
    out finite) or an explicit element list; element i must realize dual
    group element i on the setup's sample points.  The density must be
    constant on group orbits.  The Plancherel-weighted trace sum is
    compared against the direct Fourier quadrature of the density.
    """
    q, c = _stacked(group_spec)
    if len(q) != dual.group.order:
        raise SizeMismatch("element list does not match the dual's group order")
    field = plane_wave(k, n, setup.points, setup.weights)
    density = setup.density
    moved, perms = _moved_values(field, q, c)
    if np.max(np.abs(density[perms] - density)) > 1e-10 * max(1.0, float(np.max(np.abs(density)))):
        raise DensityNotInvariant("density is not constant on group orbits")

    proj = setup.projector()
    phases = np.exp(-1j * setup.wavenumber * (field.points @ setup.s0))
    per_irrep = {}
    combined = np.zeros(3, dtype=complex)
    for s in dual.irreps:
        projected = _project(moved, s.matrices)
        transform = np.einsum(
            "x,x,x,xabi->abi", setup.weights, density + 0j, phases, projected
        )
        transform = np.einsum("ij,abj->abi", proj, transform)
        per_irrep[s.label] = transform
        combined += (s.dim / dual.group.order) * np.einsum("aai->i", transform)

    ell = setup.wavenumber * setup.s0 - np.asarray(k, dtype=float)
    reference = proj @ (np.asarray(n, dtype=complex) * density_fourier(setup.points, setup.weights, density, ell))
    scale = max(1.0, float(np.linalg.norm(reference)))
    residual = float(np.linalg.norm(combined - reference) / scale)
    return RecoveryReport(per_irrep, combined, reference, residual)


def _stacked(group_spec):
    """(q, c) stacks of an element list, or of the finite group an IsometryGroupSpec generates."""
    if isinstance(group_spec, (list, tuple)):
        return np.array([g.q for g in group_spec]), np.array([g.c for g in group_spec])
    if isinstance(group_spec, IsometryGroupSpec):
        gen = generate(group_spec)
        if not gen.finite:
            raise SizeMismatch("symmetry projection needs a finite isometry group")
        return gen.q, gen.c
    raise SizeMismatch(f"expected an IsometryGroupSpec or element list, got {type(group_spec)}")
