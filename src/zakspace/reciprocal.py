"""Reciprocal spaces of subgroups and Poisson summation.

For a subgroup H of G the reciprocal space collects the irreps whose
restriction to H contains the trivial representation; the witness is the
projector P = (1/|H|) sum_h sigma(h) onto the H-fixed subspace, whose
trace is the multiplicity.  The subgroup measure is normalized to total
mass one throughout, the dual carries weight d/|G| per irrep (1/|G| per
character in the abelian case), and with those conventions both Poisson
identities hold exactly on finite groups:

    (1/|H|) sum_H f  =  sum_{chi in H^perp} fhat(chi)/|G|            (abelian)
    (1/|H|) sum_H f  =  sum_{sigma in H^perp} (d/|G|) tr(P fhat)     (general)

P is the core's `subgroup_projectors` (fourier.py) and fhat its `forward`;
the general Poisson sum and the quotient reconstruction are its `inverse` of
P fhat at the identity and at the coset representatives.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .duals import DualObject
from .errors import NotCosetFunction, SizeMismatch
from .fourier import forward, fourier, inverse, subgroup_projectors
from .groups import FiniteGroup, check_subgroup, left_cosets

MULT_ATOL = 1e-6


@dataclass
class ReciprocalSpace:
    """Members of H^perp with the fixed-space projector and multiplicity each."""

    dual: DualObject
    subgroup: list[int]
    members: list[str]
    projectors: dict  # label -> P, for every irrep (zero projector off H^perp)
    multiplicities: dict

    def __contains__(self, label: str) -> bool:
        return label in set(self.members)


def _projectors(dual: DualObject, subgroup) -> tuple[list, list, np.ndarray]:
    """The checked subgroup H, its fixed-space projectors (one (k, d, d) stack per class) and the multiplicities."""
    sub = check_subgroup(dual.group, subgroup)
    stacks = [p[0] for p in subgroup_projectors(dual, [sub])]
    tr = dual.traces(stacks)
    mults = np.rint(tr.real).astype(int)
    off = np.flatnonzero(np.abs(tr - mults) > MULT_ATOL)
    if len(off):
        raise AssertionError(
            f"{dual.irreps[off[0]].label}: trace of projector {tr[off[0]]} is not near an integer"
        )
    return sub, stacks, mults


def _projected_inverse(dual: DualObject, fhat: list, projectors: list, mults, elements) -> np.ndarray:
    """sum over sigma in H^perp of (d/|G|) tr(P fhat(sigma) sigma(g)) at each g of elements."""
    blocks = [
        np.where(mults[idx, None, None] >= 1, p @ z[0], 0.0)[None]
        for (_d, idx, _mats), p, z in zip(dual.dim_classes, projectors, fhat)
    ]
    return inverse(blocks, np.zeros(len(elements), dtype=int), elements, dual)


def reciprocal_space(dual: DualObject, subgroup) -> ReciprocalSpace:
    """H^perp = irreps containing the trivial restriction component."""
    sub, stacks, mults = _projectors(dual, subgroup)
    labels = dual.labels
    members = [label for label, m in zip(labels, mults) if m >= 1]
    projectors, multiplicities = dict(zip(labels, dual.per_irrep(stacks))), dict(zip(labels, mults.tolist()))
    return ReciprocalSpace(dual, sub, members, projectors, multiplicities)


def poisson_abelian_check(f, group: FiniteGroup, subgroup, dual: DualObject):
    """Both sides and residual of abelian Poisson summation for H in G, over the dual's characters."""
    rec = reciprocal_space(dual, subgroup)
    f = np.asarray(f, dtype=complex)
    if f.shape != (group.order,):
        raise SizeMismatch(f"f must have shape ({group.order},)")
    lhs = f[rec.subgroup].sum() / len(rec.subgroup)
    fhat = fourier(f, dual)
    rhs = sum(fhat[label][0, 0] for label in rec.members) / group.order
    return lhs, rhs, float(abs(lhs - rhs))


def poisson_compact_check(f, group: FiniteGroup, subgroup, dual: DualObject):
    """Both sides and residual of Poisson summation for a compact quotient."""
    sub, projectors, mults = _projectors(dual, subgroup)
    f = np.asarray(f, dtype=complex)
    if f.shape != (group.order,):
        raise SizeMismatch(f"f must have shape ({group.order},)")
    lhs = f[sub].sum() / len(sub)
    rhs = _projected_inverse(dual, forward(f[:, None], dual), projectors, mults, [dual.group.identity])[0]
    return lhs, rhs, float(abs(lhs - rhs))


def quotient_fourier_check(f_on_quotient, group: FiniteGroup, subgroup, dual: DualObject) -> float:
    """Round-trip a function on G/H through the quotient dual; max error.

    Accepts either one value per coset gH or a function on G that is
    constant on cosets (NotCosetFunction otherwise).  The coefficients are
    taken against sigma_{G/H} = sigma P with quotient measure |H| per
    coset, and the reconstruction uses weights d/|G| on the reciprocal
    space.  Also asserts the support condition fhat = 0 off H^perp.
    """
    sub = check_subgroup(group, subgroup)
    cosets = left_cosets(group, sub)
    table = np.array(cosets)  # [coset, i], each coset sorted, the first entry its representative
    f_in = np.asarray(f_on_quotient, dtype=complex)
    if f_in.shape == (group.order,):
        vals = f_in[table]
        spread = np.abs(vals - vals[:, :1]).max(axis=1)
        bad = np.flatnonzero(spread > 1e-12 * np.maximum(1.0, np.abs(vals).max(axis=1)))
        if len(bad):
            raise NotCosetFunction(f"f is not constant on coset {cosets[bad[0]]}")
        f_coset = vals[:, 0]
    elif f_in.shape == (len(cosets),):
        f_coset = f_in
    else:
        raise SizeMismatch(f"expected {group.order} values on G or {len(cosets)} per coset")

    _, projectors, mults = _projectors(dual, sub)
    f_ext = np.empty(group.order, dtype=complex)
    f_ext[table] = f_coset[:, None]
    fhat = forward(f_ext[:, None], dual)

    # support: coefficients vanish off the reciprocal space
    peaks = np.empty(len(dual.irreps))
    for (_d, idx, _mats), z in zip(dual.dim_classes, fhat):
        peaks[idx] = np.abs(z[0]).max(axis=(1, 2))
    off = np.flatnonzero((mults < 1) & (peaks > 1e-10 * max(1.0, float(np.max(np.abs(f_coset))))))
    if len(off):
        raise AssertionError(f"fhat({dual.irreps[off[0]].label}) does not vanish off H^perp")

    rec = _projected_inverse(dual, fhat, projectors, mults, table[:, 0])
    return float(np.max(np.abs(rec - f_coset)))


def invariance_support_residual(f, dual: DualObject, subgroup, side: str = "left") -> float:
    """Cor-type support law: H-invariance of f pins fhat to the projector.

    left:  f(h g) = f(g) for h in H  =>  fhat(sigma) P = fhat(sigma)
    right: f(g h) = f(g) for h in H  =>  P fhat(sigma) = fhat(sigma)
    """
    _, projectors, _ = _projectors(dual, subgroup)
    f, n = np.asarray(f, dtype=complex), dual.group.order
    if f.shape != (n,):
        raise SizeMismatch(f"f must have shape ({n},), got {f.shape}")
    resid = 0.0
    for p, (z,) in zip(projectors, forward(f[:, None], dual)):
        delta = z @ p - z if side == "left" else p @ z - z
        resid = max(resid, float(np.max(np.abs(delta))))
    return resid
