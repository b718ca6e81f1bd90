"""Zak transforms on finite weighted actions.

The transform of f at a fundamental-domain point x0 and irrep sigma is
the group Fourier coefficient of the orbit function g -> f(g^-1 x0):

    Z f(x0, sigma) = sum_g f(g^-1 x0) sigma(g)*.

Values vanish unless sigma lies in the reciprocal space of the stabilizer
of x0 and always satisfy Z P = Z against the stabilizer-fixed projector;
both facts are asserted at construction so bookkeeping bugs surface
immediately.  Inversion, the isometry law, equivariance in the first
argument, the intertwining law in the second, the character variant, and
the orbit-supported eigen-measures all live here.

zak and extended_zak are the core's `forward` (fourier.py) on orbit functions,
zak_inverse its `inverse`, the stabilizer projectors its `subgroup_projectors`;
the character variants and zak_measure_eval stay independent checks of it.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .actions import GroupAction
from .duals import DualObject
from .errors import (
    DualGroupMismatch,
    EquivarianceViolation,
    InvariantViolation,
    NotRepresentative,
    SizeMismatch,
)
from .fourier import forward, inverse, subgroup_projectors
from .weil import WeilStructure, weil_structure


@dataclass
class VerificationReport:
    """One named check: it passes when the residual is below the tolerance.

    Every check of `suite all` and of the CLI verify commands is one of
    these, and as_dict() is its only serialized form.
    """

    check: str
    residual: float
    tolerance: float

    @property
    def passed(self) -> bool:
        return bool(self.residual < self.tolerance)

    def as_dict(self) -> dict:
        return {
            "check": self.check,
            "residual": float(self.residual),
            "tolerance": float(self.tolerance),
            "pass": self.passed,
        }


class ZakCoefficients:
    """Dense table of Z f(x0, sigma) matrices over (representative, irrep).

    Blocks outside the stabilizer reciprocal space are stored as explicit
    zeros rather than omitted, so violations of the support law are
    observable.  Scalars (abelian duals) are 1x1 matrices; use value().

    For each dimension class of dual.dim_classes, `blocks` holds one
    read-only (representatives, k, d, d) array and `projectors` the
    stabilizer projectors (the mean of sigma over the stabilizer of x0) in
    the same layout.  members[r, i] says whether irrep i lies in the
    reciprocal space of the stabilizer of representative r.  `data` maps
    (x0, label) to views of the blocks, in the order of the dict the table
    was made from.
    """

    def __init__(self, action, dual, structure, data, f_norm):
        self.action = action
        self.dual = dual
        self.structure = structure
        self.f_norm = f_norm
        reps = structure.decomp.representatives
        if data.keys() != {(x0, s.label) for x0 in reps for s in dual.irreps}:
            raise SizeMismatch("Zak data needs one block per (representative, irrep) pair")
        self.projectors = subgroup_projectors(dual, structure.stabilizers)
        self.members = np.rint(dual.traces(self.projectors).real) >= 1
        self.blocks, views = [], {}
        for d, idx, _mats in dual.dim_classes:
            keys = [[(x0, dual.irreps[i].label) for i in idx] for x0 in reps]
            try:
                z = np.array([[data[key] for key in row] for row in keys], dtype=complex)
            except ValueError:  # blocks of different shapes
                z = None
            if z is None or z.shape != (len(reps), len(idx), d, d):
                raise SizeMismatch(f"Zak blocks of {d}-dimensional irreps must be {d}x{d}")
            z.setflags(write=False)
            self.blocks.append(z)
            for row, zrow in zip(keys, z):
                views.update(zip(row, zrow))
        self.data = {key: views[key] for key in data}  # (x0, label) -> (d, d) view

    @cached_property
    def stab_members(self) -> dict:
        """(x0, label) -> whether sigma lies in the reciprocal space of the stabilizer of x0."""
        return {
            (x0, s.label): m
            for x0, row in zip(self.structure.decomp.representatives, self.members.tolist())
            for s, m in zip(self.dual.irreps, row)
        }

    def __getitem__(self, key):
        return self.data[key]

    def value(self, x0: int, label: str) -> complex:
        block = self.data[(x0, label)]
        if block.shape != (1, 1):
            raise SizeMismatch(f"{label} is {block.shape[0]}-dimensional, not scalar")
        return complex(block[0, 0])

    def check_invariants(self) -> None:
        """Assert stabilizer-support vanishing and the projection identity.

        Each dimension class is checked as one stack.  The failure reported
        is that of the first failing block in the order of `data`, and the
        vanishing law is reported before the projection identity.
        """
        tol = 1e-12 * max(1.0, self.f_norm)
        reps = self.structure.decomp.representatives
        failures = {}  # (x0, label) -> True if off the reciprocal space
        for (_d, idx, _mats), z, p in zip(self.dual.dim_classes, self.blocks, self.projectors):
            off = ~self.members[:, idx] & (np.linalg.norm(z, axis=(2, 3)) > tol)
            unfixed = np.abs(z @ p - z).max(axis=(2, 3)) > tol
            for r, j in zip(*np.nonzero(off | unfixed)):
                failures[(reps[r], self.dual.irreps[idx[j]].label)] = bool(off[r, j])
        if failures:
            order = {key: i for i, key in enumerate(self.data)}
            x0, label = min(failures, key=order.__getitem__)
            if failures[(x0, label)]:
                raise InvariantViolation(
                    f"Z({x0},{label}) = {np.linalg.norm(self.data[(x0, label)]):g} off the reciprocal space"
                )
            raise InvariantViolation(f"Z({x0},{label}) P != Z({x0},{label})")

    def image_norm_sq(self) -> float:
        """sum over x0 of mu_F(x0) sum_sigma (d/|G|) ||Z||_HS^2, added up in (x0, irrep) order."""
        reps = self.structure.decomp.representatives
        hs = np.empty((len(reps), len(self.dual.irreps)))
        for (_d, idx, _mats), z in zip(self.dual.dim_classes, self.blocks):
            # each block summed in column-major order, the order np.sum takes over
            # a block built by einsum("g,gji->ij"), so the per-block sum agrees bitwise
            hs[:, idx] = np.sum(np.abs(z.swapaxes(2, 3)).reshape(*z.shape[:2], -1) ** 2, axis=-1)
        total = 0.0
        order = self.action.group.order
        for x0, row in zip(reps, hs.tolist()):
            mu = self.structure.decomp.fd_measure[x0]
            for s, sq in zip(self.dual.irreps, row):
                total += mu * (s.dim / order) * sq
        return total


def _check_dual(action: GroupAction, dual: DualObject) -> None:
    if dual.group is not action.group and not np.array_equal(
        dual.group.table, action.group.table
    ):
        raise DualGroupMismatch("dual was built for a different group")


def zak(action: GroupAction, f, dual: DualObject, structure: WeilStructure | None = None) -> ZakCoefficients:
    """Zak transform of f over the canonical fundamental domain: the core's forward sum on the orbit functions."""
    _check_dual(action, dual)
    f = np.asarray(f, dtype=complex)
    if f.shape != (action.npoints,):
        raise SizeMismatch(f"f must have shape ({action.npoints},), got {f.shape}")
    s = structure or weil_structure(action)
    reps = s.decomp.representatives
    orbit_vals = f[s.inv_perm[:, reps]]  # [g, r] = f(g^-1 x0_r)
    per_irrep = dual.per_irrep(forward(orbit_vals, dual))  # irrep i -> (reps, d, d)
    data = {
        (x0, irr.label): per_irrep[i][r] for r, x0 in enumerate(reps) for i, irr in enumerate(dual.irreps)
    }
    coeffs = ZakCoefficients(action, dual, s, data, float(np.linalg.norm(f)))
    coeffs.check_invariants()
    return coeffs


def _extension_gaps(coeffs: ZakCoefficients, f: np.ndarray, points) -> tuple[list, np.ndarray]:
    """Defining sums at the points (a stack per class) and their gaps from Z f(x0, sigma) sigma(g), g x = x0."""
    decomp = coeffs.structure.decomp
    direct = forward(f[coeffs.structure.inv_perm[:, points]], coeffs.dual)  # column x: g -> f(g^-1 x)
    rows, elements = decomp.orbit_id[points], decomp.to_rep_element[points]
    gaps = np.zeros(len(points))
    for (_d, _idx, mats), z, dz in zip(coeffs.dual.dim_classes, coeffs.blocks, direct):
        law = z[rows] @ mats[:, elements].swapaxes(0, 1)
        gaps = np.maximum(gaps, np.abs(law - dz).max(axis=(1, 2, 3)))
    return direct, gaps


def extended_zak(action: GroupAction, f, dual: DualObject, x: int) -> dict:
    """Zak matrices at an arbitrary point, computed two ways and compared.

    The defining sum at x must reproduce Z(x0, sigma) sigma(g) for the
    group element carrying x to its representative; a mismatch is an
    implementation bug, reported as EquivarianceViolation.
    """
    _check_dual(action, dual)
    f = np.asarray(f, dtype=complex)
    direct, gaps = _extension_gaps(zak(action, f, dual), f, [x])
    gap = float(gaps[0])
    if gap > 1e-12 * max(1.0, float(np.linalg.norm(f))):
        raise EquivarianceViolation(
            f"extended Zak at x={x} disagrees with the equivariance law by {gap:g}"
        )
    return {s.label: z[0] for s, z in zip(dual.irreps, dual.per_irrep(direct))}


def equivariance_residual(action: GroupAction, f, dual: DualObject) -> float:
    """The extension gap of extended_zak, worst over all points, over max(1, ||f||)."""
    f = np.asarray(f, dtype=complex)
    worst = float(_extension_gaps(zak(action, f, dual), f, np.arange(action.npoints))[1].max())
    return worst / max(1.0, float(np.linalg.norm(f)))


def zak_inverse(coeffs: ZakCoefficients) -> np.ndarray:
    """Pointwise inversion f(x) = sum_{sigma in perp} (d/|G|) tr(Z(x0,sigma) sigma(g)).

    g is any element carrying x to its representative; the choice is
    immaterial because Z absorbs the stabilizer on the right.  The terms
    come from the core's inverse sum and are added up over the irreps in the
    dual's order, exactly as the pointwise sum adds them.
    """
    coeffs.check_invariants()
    dual, decomp = coeffs.dual, coeffs.structure.decomp
    blocks = [  # zero off the reciprocal space
        np.where(coeffs.members[:, idx, None, None], z, 0.0)
        for (_d, idx, _mats), z in zip(dual.dim_classes, coeffs.blocks)
    ]
    f = np.zeros(coeffs.action.npoints, dtype=complex)
    for term in inverse(blocks, decomp.orbit_id, decomp.to_rep_element, dual):
        f += term
    return f


def character_zak(action: GroupAction, f, dual: DualObject) -> dict:
    """Scalar traces of the Zak matrices, computed twice and reconciled.

    The defining sum modulates f by the conjugated character, one product
    with the character table; it must equal the trace of the matrix
    transform to near machine precision.
    """
    _check_dual(action, dual)
    f = np.asarray(f, dtype=complex)
    coeffs = zak(action, f, dual)
    reps = coeffs.structure.decomp.representatives
    direct = f[coeffs.structure.inv_perm[:, reps]].T @ dual.character_table.conj()
    via_trace = dual.traces(coeffs.blocks)
    bad = np.argwhere(np.abs(direct - via_trace) > 1e-13 * max(1.0, float(np.linalg.norm(f))))
    if len(bad):  # the first failing (x0, irrep) pair
        r, i = bad[0]
        raise InvariantViolation(f"character Zak at ({reps[r]},{dual.irreps[i].label}) disagrees with tr(Z)")
    return {(x0, s.label): v for x0, row in zip(reps, via_trace.tolist()) for s, v in zip(dual.irreps, row)}


def character_zak_reconstruct(action: GroupAction, f, dual: DualObject) -> tuple[np.ndarray, float]:
    """Rebuild f from the extended character transform; returns (f_rec, residual).

    Pointwise, f(x) = sum_sigma (d/|G|) sum_g f(g^-1 x) conj(tr sigma(g));
    only the extended transform retains enough phase to invert.
    """
    _check_dual(action, dual)
    f = np.asarray(f, dtype=complex)
    orbit_vals = f[action.perm[action.group.inverses]]  # [g, x] = f(g^-1 x)
    f_rec = (orbit_vals.T @ dual.character_table.conj()) @ dual.plancherel_weight
    resid = float(np.max(np.abs(f_rec - f)) / max(1.0, np.max(np.abs(f))))
    return f_rec, resid


def zak_measure_eval(action: GroupAction, dual: DualObject, x0: int, label: str, phi) -> np.ndarray:
    """Evaluate the orbit-supported eigen-measure: sum_g phi(g^-1 x0) sigma(g).

    This equals the Zak transform of phi at (x0, conjugate sigma); acting
    by g on the measure twists the value by sigma(g) on the right.
    """
    _check_dual(action, dual)
    s = weil_structure(action)
    if x0 not in s.decomp.representatives:
        raise NotRepresentative(x0)
    phi = np.asarray(phi, dtype=complex)
    if phi.shape != (action.npoints,):
        raise SizeMismatch(f"phi must have shape ({action.npoints},)")
    irr = dual.by_label[label]
    return np.einsum("g,gij->ij", phi[s.inv_perm[:, x0]], irr.matrices)


def zak_measure_eigenlaw_residual(action: GroupAction, dual: DualObject, x0: int, label: str, phi) -> float:
    """On-demand check of the eigen-measure law, max over the whole group.

    Acting by g on the measure (pulling phi back along g^-1) multiplies the
    value by sigma(g) on the right.
    """
    phi = np.asarray(phi, dtype=complex)
    base = zak_measure_eval(action, dual, x0, label, phi)
    irr = dual.by_label[label]
    worst = 0.0
    for g in action.group.elements():
        shifted = phi[action.perm[g]]  # phi(g y), i.e. the g^-1 pullback
        lhs = zak_measure_eval(action, dual, x0, label, shifted)
        worst = max(worst, float(np.max(np.abs(lhs - base @ irr.matrices[g]))))
    return worst


def weak_inversion_residual(action: GroupAction, f, phi, dual: DualObject) -> float:
    """Pairing of Z f with the eigen-measures recovers sum f phi q w."""
    s = weil_structure(action)
    coeffs = zak(action, f, dual, s)
    phi = np.asarray(phi, dtype=complex)
    order = action.group.order
    total = 0.0 + 0.0j
    for x0 in s.decomp.representatives:
        mu = s.decomp.fd_measure[x0]
        for irr in dual.irreps:
            delta = zak_measure_eval(action, dual, x0, irr.label, phi)
            total += mu * (irr.dim / order) * np.trace(coeffs[(x0, irr.label)] @ delta)
    direct = np.sum(np.asarray(f, dtype=complex) * phi * s.point_measure)
    return float(abs(total - direct) / max(1.0, abs(direct)))


def verify_unitarity(coeffs, f) -> VerificationReport:
    """Norm identity ||f||^2 = weighted image norm, as a report.

    Accepts finite ZakCoefficients (weights q w on the source side) or a
    LatticeZakGrid (dual weight 1/prod(N) per wave sample).
    """
    from .lattice import LatticeZakGrid

    f = np.asarray(f, dtype=complex)
    if isinstance(coeffs, LatticeZakGrid):
        lhs = float(np.sum(np.abs(f) ** 2))
        rhs = float(np.sum(np.abs(coeffs.values) ** 2)) / float(np.prod(coeffs.periods))
        return VerificationReport("zak_unitarity", abs(lhs - rhs) / max(1.0, lhs), 1e-10)
    lhs = float(np.sum(np.abs(f) ** 2 * coeffs.structure.point_measure))
    rhs = coeffs.image_norm_sq()
    resid = abs(lhs - rhs) / max(1.0, lhs)
    return VerificationReport("zak_unitarity", resid, 1e-10)


def verify_roundtrip(action: GroupAction, f, dual: DualObject) -> VerificationReport:
    f = np.asarray(f, dtype=complex)
    f_rec = zak_inverse(zak(action, f, dual))
    resid = float(np.max(np.abs(f_rec - f)) / max(1.0, float(np.max(np.abs(f)))))
    return VerificationReport("zak_roundtrip", resid, 1e-11)


def intertwining_residual(action: GroupAction, f, dual: DualObject) -> float:
    """max over g of || Z[g . f] - sigma(g) Z f ||, exhaustive in g."""
    s = weil_structure(action)
    base = zak(action, f, dual, s)
    worst = 0.0
    for g in action.group.elements():
        shifted = zak(action, action.pullback(g, f), dual, s)
        for (_d, _idx, mats), z, z0 in zip(dual.dim_classes, shifted.blocks, base.blocks):
            worst = max(worst, float(np.max(np.abs(z - mats[:, g] @ z0))))
    return worst


def heisenberg_consistency_residual(action: GroupAction, f, dual: DualObject) -> float:
    """Second evaluation path via the projective-representation sum.

    Summing the modulated translates xi_(g,chi) f(x0) = f(g^-1 x0) conj(chi(g))
    over the group must reproduce Z f(x0, chi) for every character chi.
    Only meaningful for abelian duals.
    """
    _check_dual(action, dual)
    f = np.asarray(f, dtype=complex)
    coeffs = zak(action, f, dual)
    if not dual.is_abelian_dual():
        raise SizeMismatch("projective-sum path applies to abelian duals")
    reps = coeffs.structure.decomp.representatives
    xi_sums = f[coeffs.structure.inv_perm[:, reps]].T @ dual.character_table.conj()
    return float(np.max(np.abs(xi_sums - dual.traces(coeffs.blocks))))
