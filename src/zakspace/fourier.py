"""The group Fourier transform, and the transform core every other module calls.

The transform is fhat(sigma) = sum_g f(g) sigma(g)*, inverted by
f(g) = sum_sigma (d_sigma/|G|) tr(fhat(sigma) sigma(g)); the Plancherel
identity ||f||^2 = sum_sigma (d_sigma/|G|) ||fhat(sigma)||_HS^2 ties the
two normalizations together.  These sums are written out only here, as
one array op per dimension class of DualObject.dim_classes: `forward`,
`inverse` and `subgroup_projectors`.  fourier and inverse_fourier call
them on one column; zak.py, reciprocal.py and bloch.py say which they use.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .duals import DualObject
from .errors import ShapeMismatch, SizeMismatch


def forward(values: np.ndarray, dual: DualObject) -> list[np.ndarray]:
    """sum_g values[g, r] sigma(g)* as one (r, k, d, d) stack per dimension class."""
    return [
        np.einsum("gr,kgji->krij", values, mats.conj()).swapaxes(0, 1)
        for _d, _idx, mats in dual.dim_classes
    ]


_CHUNK_ENTRIES = 4096  # 64 KiB of complex: half glibc's default mmap threshold, so no temporary is mapped


def inverse(blocks: list, rows: np.ndarray, elements: np.ndarray, dual: DualObject) -> np.ndarray:
    """(points,) array of sum_sigma (d/|G|) tr(Z[rows[x]] sigma(elements[x])).

    blocks holds one (n, k, d, d) stack per dimension class, and rows index
    its first axis.  The points go in chunks.  For each chunk, each class is
    one gather by row and by element and one batched product, traced into
    an (irreps, points) buffer; the buffer's terms are then added up over
    the irreps in the dual's order, as a pointwise loop from zero adds them
    (a matmul accumulates from zero, so no term is -0.0, and starting from
    the first term gives the same bits).  A chunk holds
    4096 // max(irreps, k d^2) points, so no temporary exceeds 4096 entries.
    """
    order, r = dual.group.order, len(dual.irreps)
    step = max(1, _CHUNK_ENTRIES // max(r, *(mats[:, 0].size for _d, _idx, mats in dual.dim_classes)))
    buffer = np.empty((r, step), dtype=complex)
    out = np.empty(len(rows), dtype=complex)
    for lo in range(0, len(rows), step):
        at, el = rows[lo : lo + step], elements[lo : lo + step]
        terms = buffer[:, : len(at)]
        for (d, idx, mats), z in zip(dual.dim_classes, blocks):
            terms[idx] = (z[at].swapaxes(0, 1) @ mats[:, el]).trace(axis1=2, axis2=3) * (d / order)
        np.add.accumulate(terms, axis=0, out=terms)  # sequential in irrep order, unlike a reduce
        out[lo : lo + step] = terms[-1]
    return out


def subgroup_projectors(dual: DualObject, subgroups) -> list[np.ndarray]:
    """(1/|H|) sum_{h in H} sigma(h) for each subgroup H, one (H, k, d, d) stack per class.

    Each mean is the projector onto the H-fixed vectors of sigma; its trace
    is the multiplicity of the trivial representation in sigma restricted to H.
    """
    member = np.zeros((len(subgroups), dual.group.order))
    for r, sub in enumerate(subgroups):
        member[r, sub] = 1.0
    sizes = member.sum(axis=1)[:, None, None, None]
    return [np.einsum("rg,kgab->rkab", member, mats) / sizes for _d, _idx, mats in dual.dim_classes]


@dataclass
class FourierCoefficients:
    """One d x d coefficient matrix per irrep label."""

    dual: DualObject
    blocks: dict

    def __getitem__(self, label: str) -> np.ndarray:
        return self.blocks[label]

    def hs_norm_sq(self) -> float:
        """Plancherel-weighted sum of squared Hilbert-Schmidt norms."""
        return float(
            sum(
                w * np.sum(np.abs(self.blocks[s.label]) ** 2)
                for w, s in zip(self.dual.plancherel_weight, self.dual.irreps)
            )
        )


def fourier(f, dual: DualObject) -> FourierCoefficients:
    f = np.asarray(f, dtype=complex)
    n = dual.group.order
    if f.shape != (n,):
        raise SizeMismatch(f"f must have shape ({n},), got {f.shape}")
    blocks = dual.per_irrep(forward(f[:, None], dual))
    return FourierCoefficients(dual, {s.label: z[0] for s, z in zip(dual.irreps, blocks)})


def inverse_fourier(coeffs: FourierCoefficients, dual: DualObject) -> np.ndarray:
    for s in dual.irreps:
        if np.shape(coeffs.blocks[s.label]) != (s.dim, s.dim):
            raise ShapeMismatch(f"{s.label}: expected {(s.dim, s.dim)}, got {np.shape(coeffs.blocks[s.label])}")
    n, labels = dual.group.order, dual.labels
    blocks = [np.array([[coeffs.blocks[labels[i]] for i in idx]], dtype=complex) for _d, idx, _m in dual.dim_classes]
    return inverse(blocks, np.zeros(n, dtype=int), np.arange(n), dual)


def plancherel_residual(f, dual: DualObject) -> float:
    """| ||f||^2 - weighted ||fhat||_HS^2 |, the finite Plancherel identity."""
    f = np.asarray(f, dtype=complex)
    lhs = float(np.sum(np.abs(f) ** 2))
    rhs = fourier(f, dual).hs_norm_sq()
    return abs(lhs - rhs) / max(1.0, lhs)
