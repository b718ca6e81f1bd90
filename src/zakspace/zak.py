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
A table is stored only as the core's stacks, one (representatives, k, d, d)
array per dimension class; its (x0, label) dict `data` is a view of them.
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

    The table is stored once: for each dimension class of dual.dim_classes,
    `blocks` holds one read-only (representatives, k, d, d) array, as the
    core's forward sum returns it, and `projectors` the stabilizer
    projectors (the mean of sigma over the stabilizer of x0) in the same
    layout.  members[r, i] says whether irrep i lies in the reciprocal
    space of the stabilizer of representative r.  `data` and
    `stab_members` are (x0, label) dicts derived from these on first read,
    in (representative, irrep) order; the values of `data` are views of
    `blocks`.  The structure is the one kept on the action.
    """

    def __init__(self, action, dual, blocks, f_norm):
        self.action, self.dual, self.f_norm = action, dual, f_norm
        self.structure = weil_structure(action)
        n = len(self.structure.decomp.representatives)
        if [np.shape(z) for z in blocks] != [(n, len(idx), d, d) for d, idx, _m in dual.dim_classes]:
            raise SizeMismatch("Zak blocks need one (representatives, k, d, d) stack per irrep dimension d")
        self.blocks = list(blocks)
        for z in self.blocks:
            z.setflags(write=False)
        self.projectors = subgroup_projectors(dual, self.structure.stabilizers)
        self.members = np.rint(dual.traces(self.projectors).real) >= 1

    def _by_key(self, rows) -> dict:
        """(x0, label) -> rows[r][i], in (representative, irrep) order."""
        reps, labels = self.structure.decomp.representatives, self.dual.labels
        return {(x0, label): v for x0, row in zip(reps, rows) for label, v in zip(labels, row)}

    @cached_property
    def data(self) -> dict:
        """(x0, label) -> the (d, d) block, a read-only view of `blocks`."""
        return self._by_key(zip(*self.dual.per_irrep(self.blocks)))

    @cached_property
    def stab_members(self) -> dict:
        """(x0, label) -> whether sigma lies in the reciprocal space of the stabilizer of x0."""
        return self._by_key(self.members.tolist())

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
        is that of the first failing block in (representative, irrep) order,
        and for that block the vanishing law is reported before the
        projection identity.
        """
        tol = 1e-12 * max(1.0, self.f_norm)
        off, unfixed = np.zeros((2, *self.members.shape), dtype=bool)
        for (_d, idx, _mats), z, p in zip(self.dual.dim_classes, self.blocks, self.projectors):
            off[:, idx] = ~self.members[:, idx] & (np.linalg.norm(z, axis=(2, 3)) > tol)
            unfixed[:, idx] = np.abs(z @ p - z).max(axis=(2, 3)) > tol
        bad = np.argwhere(off | unfixed)
        if len(bad):
            r, i = bad[0]
            x0, label = self.structure.decomp.representatives[r], self.dual.labels[i]
            norm = np.linalg.norm(self[x0, label])
            law = f"= {norm:g} off the reciprocal space" if off[r, i] else f"P != Z({x0},{label})"
            raise InvariantViolation(f"Z({x0},{label}) {law}")

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
    """Zak transform of f, the core's forward sum on the orbit functions; `structure` may only be the action's own."""
    _check_dual(action, dual)
    f = np.asarray(f, dtype=complex)
    if f.shape != (action.npoints,):
        raise SizeMismatch(f"f must have shape ({action.npoints},), got {f.shape}")
    s = weil_structure(action)
    if structure is not None and structure is not s:
        raise ValueError("structure must be the one kept on the action, weil_structure(action)")
    orbit_vals = f[s.inv_perm[:, s.decomp.representatives]]  # [g, r] = f(g^-1 x0_r)
    coeffs = ZakCoefficients(action, dual, forward(orbit_vals, dual), float(np.linalg.norm(f)))
    coeffs.check_invariants()
    return coeffs


def stack_blocks(action: GroupAction, dual: DualObject, data) -> list[np.ndarray]:
    """The ZakCoefficients stacks of a (x0, label) -> (d, d) mapping in any key order, such as a file's blocks.

    The mapping needs exactly one block per (representative, irrep) pair,
    each d x d for its irrep; anything else raises SizeMismatch.
    """
    reps = weil_structure(action).decomp.representatives
    if data.keys() != {(x0, label) for x0 in reps for label in dual.labels}:
        raise SizeMismatch("Zak data needs one block per (representative, irrep) pair")
    rows = [[data[(x0, s.label)] for s in dual.irreps] for x0 in reps]
    if any(np.shape(z) != (s.dim, s.dim) for row in rows for z, s in zip(row, dual.irreps)):
        raise SizeMismatch("each Zak block must be d x d, d the dimension of its irrep")
    return [np.array([[row[i] for i in idx] for row in rows], dtype=complex) for _d, idx, _m in dual.dim_classes]


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
    immaterial because Z absorbs the stabilizer on the right.  The sum is
    the core's inverse, which adds the terms up over the irreps in the
    dual's order, exactly as the pointwise sum adds them.
    """
    coeffs.check_invariants()
    dual, decomp = coeffs.dual, coeffs.structure.decomp
    blocks = [  # zero off the reciprocal space
        np.where(coeffs.members[:, idx, None, None], z, 0.0)
        for (_d, idx, _mats), z in zip(dual.dim_classes, coeffs.blocks)
    ]
    return inverse(blocks, decomp.orbit_id, decomp.to_rep_element, dual)


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
    return coeffs._by_key(via_trace.tolist())


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
    coeffs = zak(action, f, dual)
    s = coeffs.structure
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
    base = zak(action, f, dual)
    worst = 0.0
    for g in action.group.elements():
        shifted = zak(action, action.pullback(g, f), dual)
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
