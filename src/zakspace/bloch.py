"""Block diagonalization of invariant operators and band structures.

A Hermitian operator commuting with every permutation of an action is
unitarily equivalent to a direct sum of blocks, one block of size
(total multiplicity of sigma) repeated d_sigma times per irrep.  The
change of basis is assembled from the same data the Zak transform uses:
for each fundamental-domain point x0, each orthonormal vector u in the
stabilizer-fixed subspace of sigma, and each matrix row i, the column

    x -> sqrt(d |G_x0| / |G|) * u* sigma(g_x) e_i     on the orbit of x0,

with g_x carrying x to x0.  These are orthonormal because the unit-weight
Zak transform is unitary; rows of sigma index the d identical copies.  The
projectors come from the core's `subgroup_projectors` (fourier.py).

The 1-d tight-binding chain gets a dedicated fast path: the Bloch block
at wave index j is the M x M cell Hamiltonian with hopping phases
exp(-+ 2 pi i j / N) on the wrap-around bonds, and the union of all block
spectra is the spectrum of the full N*M ring.  t and the onsite energies
are real, so the block at -j is the complex conjugate of the block at j
and has the same eigenvalues (time reversal): only the blocks j = 0 ..
N // 2 are solved, and each row N - j of the bands is a bitwise copy of
row j.  The dense ring (`ring_hamiltonian`) and the -j blocks solved
directly (`suite.check_bands_even`) check this independently.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .actions import GroupAction, make_action
from .duals import DualObject
from .errors import InvariantViolation, NotHermitian, NotInvariant, ShapeMismatch
from .fourier import subgroup_projectors
from .weil import weil_structure
from .zak import ZakCoefficients, zak


@dataclass
class InvariantOperator:
    """Hermitian matrix commuting with every permutation of the action."""

    action: GroupAction
    matrix: np.ndarray


def _conjugation_defect(action: GroupAction, h: np.ndarray, g: int) -> float:
    """||P_g h P_g^T - h||_F with P the permutation matrix of g^-1, which equals ||h P - P h||_F."""
    q = action.perm[action.group.inv(g)]
    return np.linalg.norm(h[np.ix_(q, q)] - h)


def check_invariance(action: GroupAction, matrix) -> InvariantOperator:
    """Validate a Hermitian operator that commutes with every permutation of the action.

    Raises ShapeMismatch, then NotHermitian (a NaN or inf entry, or
    max |h - h*| > 1e-10 scale), then NotInvariant(g) at the first element
    g in index order with ||P_g h P_g^T - h||_F > 1e-10 scale, where
    scale = max(1, ||h||_F).

    The elements are certified on generators first.  Gathers by perm are
    exact and the Frobenius norm is invariant under permutation, so for
    g = s_1 ... s_k a telescoping sum gives

        ||P_g h P_g^T - h||_F <= sum_i ||P_si h P_si^T - h||_F <= L max_s ||P_s h P_s^T - h||_F

    with L the group's max_word_length: O(|S| m^2) instead of O(|G| m^2).
    When L max_s (...) (1 + rounding slack) <= 1e-10 scale, no element can
    fail and the loop is skipped; otherwise (a real defect, or a defect
    that overflows) the loop over every element runs and decides.
    """
    h = np.asarray(matrix, dtype=complex)
    m = action.npoints
    if h.shape != (m, m):
        raise ShapeMismatch(f"operator must be {m}x{m}, got {h.shape}")
    if not np.all(np.isfinite(h)):
        raise NotHermitian("operator entries are not finite")
    scale = max(1.0, float(np.linalg.norm(h)))
    if np.max(np.abs(h - h.conj().T)) > 1e-10 * scale:
        raise NotHermitian("operator is not Hermitian")
    group = action.group
    slack = 1 + 4 * (m * m + 2) * np.finfo(float).eps  # the rounding of a Frobenius norm of m^2 entries, twice
    worst = np.max([0.0] + [_conjugation_defect(action, h, s) for s in group.generators])
    if not group.max_word_length * worst * slack * slack <= 1e-10 * scale:
        for g in group.elements():
            if _conjugation_defect(action, h, g) > 1e-10 * scale:
                raise NotInvariant(g)
    return InvariantOperator(action, h)


@dataclass
class BlockDiagonalization:
    """Unitary U and the diagonal blocks of U* H U, grouped by irrep.

    blocks[label] is a list of d_sigma consecutive sub-blocks, identical up
    to the off-block tolerance; layout records (label, copy, offset, size).
    """

    unitary: np.ndarray
    blocks: dict
    layout: list
    off_block_residual: float

    def spectrum(self) -> np.ndarray:
        vals = [np.linalg.eigvalsh(b) for bs in self.blocks.values() for b in bs]
        return np.sort(np.concatenate(vals)) if vals else np.array([])

    def repetition_residual(self) -> float:
        """Max spectral distance between the d copies of each irrep block."""
        worst = 0.0
        for bs in self.blocks.values():
            if len(bs) < 2:
                continue
            ref = np.linalg.eigvalsh(bs[0])
            for b in bs[1:]:
                worst = max(worst, float(np.max(np.abs(np.linalg.eigvalsh(b) - ref))))
        return worst


def symmetry_adapted_basis(action: GroupAction, dual: DualObject):
    """Columns of the block-diagonalizing unitary plus the block layout.

    The columns of irrep sigma come in d_sigma copies, one per matrix row i;
    within a copy there is one column per multiplicity slot, a
    (representative, fixed-space basis vector) pair in that order.
    """
    structure = weil_structure(action)
    decomp = structure.decomp
    rows, elements = decomp.orbit_id, decomp.to_rep_element  # per point x: its orbit and g_x
    eigen = [np.linalg.eigh(p) for p in subgroup_projectors(dual, structure.stabilizers)]
    slots = [w > 0.5 for w, _u in eigen]  # [r, j, a]: vector a of representative r is a slot of irrep j
    dims = np.array([s.dim for s in dual.irreps])
    mult = np.zeros(len(dual.irreps), dtype=int)
    for (_d, idx, _mats), slot in zip(dual.dim_classes, slots):
        mult[idx] = slot.sum(axis=(0, 2))
    sizes = dims * mult
    offsets = np.cumsum(sizes) - sizes  # first column of each irrep
    stab_sizes = np.array([len(stab) for stab in structure.stabilizers])
    basis = np.zeros((action.npoints, int(sizes.sum())), dtype=complex)
    for (d, idx, mats), (_w, u), slot in zip(dual.dim_classes, eigen, slots):
        # [r, j, a] -> place of the slot among those of irrep j, representatives first
        rank = np.cumsum(slot.swapaxes(0, 1).reshape(len(idx), -1), axis=1) - 1
        rank = rank.reshape(len(idx), -1, d).swapaxes(0, 1)
        # [x, j, a, i] = u_a* sigma_j(g_x) e_i
        values = u[rows].conj().swapaxes(2, 3) @ mats[:, elements].swapaxes(0, 1)
        xs, js, avec = np.nonzero(slot[rows])
        first = offsets[idx][js] + rank[rows[xs], js, avec]
        cols = first[:, None] + np.arange(d)[None, :] * mult[idx][js][:, None]
        norm = np.sqrt(d * stab_sizes[rows[xs]] / action.group.order)
        basis[xs[:, None], cols] = norm[:, None] * values[xs, js, avec]
    layout = [(s.label, i, int(offsets[n] + i * mult[n]), int(mult[n]))
              for n, s in enumerate(dual.irreps) if mult[n] for i in range(s.dim)]
    gram = basis.conj().T @ basis
    if np.max(np.abs(gram - np.eye(basis.shape[1]))) > 1e-9:
        raise InvariantViolation("symmetry-adapted basis is not orthonormal")
    return basis, layout


def block_diagonalize(op: InvariantOperator, dual: DualObject) -> BlockDiagonalization:
    """U* H U with one sub-block per (irrep, matrix row), plus residuals."""
    basis, layout = symmetry_adapted_basis(op.action, dual)
    if basis.shape[1] != op.action.npoints:
        raise InvariantViolation(
            f"basis has {basis.shape[1]} columns for {op.action.npoints} points"
        )
    conj = basis.conj().T @ op.matrix @ basis
    blocks = {}
    mask = np.zeros_like(conj, dtype=bool)
    for label, _i, off, size in layout:
        blocks.setdefault(label, []).append(conj[off : off + size, off : off + size])
        mask[off : off + size, off : off + size] = True
    off_mass = float(np.linalg.norm(np.where(mask, 0.0, conj)))
    scale = max(1.0, float(np.linalg.norm(op.matrix)))
    if off_mass > 1e-9 * scale:
        raise InvariantViolation(f"off-block mass {off_mass:g} exceeds tolerance")
    return BlockDiagonalization(basis, blocks, layout, off_mass)


def zak_conjugation_residual(op: InvariantOperator, dual: DualObject, f) -> float:
    """|| Z(H f) - blocks applied to Z f || for one test vector.

    The blocks act on the multiplicity index of the Zak coefficients; this
    checks that the stored block form is the operator the Zak transform
    sees, column by column of the coefficient matrices.
    """
    action = op.action
    basis, layout = symmetry_adapted_basis(action, dual)
    conj = basis.conj().T @ op.matrix @ basis
    f = np.asarray(f, dtype=complex)
    coords = basis.conj().T @ f
    lhs = basis.conj().T @ (op.matrix @ f)
    rhs = np.zeros_like(coords)
    for _label, _i, off, size in layout:
        rhs[off : off + size] = conj[off : off + size, off : off + size] @ coords[off : off + size]
    return float(np.max(np.abs(lhs - rhs)))


# ---------------------------------------------------------------------------
# tight-binding chains


@dataclass
class BandStructure:
    """Sorted eigenvalues per wave-index sample of a periodic chain.

    Rows 0 .. N // 2 are solved; each row N - j above them is a bitwise
    copy of row j.
    """

    hopping: float
    cell_size: int
    periods: int
    onsite: np.ndarray
    k_values: np.ndarray     # (N,)
    bands: np.ndarray        # (N, M), ascending along axis 1

    def union(self) -> np.ndarray:
        return np.sort(self.bands.ravel())


def bloch_blocks(t: float, m: int, thetas, onsite) -> np.ndarray:
    """Cell Hamiltonians (N, M, M), phase exp(-i theta) on the wrap-around hop."""
    thetas = np.asarray(thetas, dtype=float)
    h = np.zeros((thetas.shape[0], m, m), dtype=complex)
    h[:, np.arange(m), np.arange(m)] = np.asarray(onsite, dtype=float)
    for a in range(m - 1):
        h[:, a, a + 1] += -t
        h[:, a + 1, a] += -t
    h[:, m - 1, 0] += -t * np.exp(-1j * thetas)
    h[:, 0, m - 1] += -t * np.exp(1j * thetas)
    return h


def bloch_block(t: float, m: int, theta: float, onsite) -> np.ndarray:
    """Cell Hamiltonian with phase exp(-i theta) on the wrap-around hop."""
    return bloch_blocks(t, m, [theta], onsite)[0]


def ring_hamiltonian(t: float, m: int, n: int, onsite) -> np.ndarray:
    """Dense nearest-neighbor ring on N*M sites with M-periodic onsite terms, as a real symmetric matrix."""
    size = m * n
    h = np.zeros((size, size))
    onsite = np.asarray(onsite, dtype=float)
    for i in range(size):
        h[i, i] += onsite[i % m]
        h[i, (i + 1) % size] += -t
        h[(i + 1) % size, i] += -t
    return h


def ring_translation_action(m: int, n: int) -> GroupAction:
    """The cell-translation group of the ring, for invariance checks."""
    from .groups import cyclic_group

    size = m * n
    group = cyclic_group(n)
    perm = [[(x + a * m) % size for x in range(size)] for a in range(n)]
    return make_action(group, perm)


def band_structure(t: float, m: int, n: int, onsite, jobs: int = 1) -> BandStructure:
    """Bands of the (t, V) chain: one M x M Bloch block per wave index.

    The blocks j = 0 .. N // 2 are built as one (N // 2 + 1, M, M) array
    and solved by a single batched eigvalsh, which solves each matrix on
    its own; each row N - j is then a bitwise copy of row j, since the
    block at N - j is the complex conjugate of the block at j.  k_values
    holds all N wave numbers.  `jobs` is ignored (see the zakspace.cli
    docstring).
    A non-finite t or onsite energy is a ShapeMismatch, like a wrong shape.
    """
    onsite = np.asarray(onsite, dtype=float)
    if onsite.shape != (m,):
        raise ShapeMismatch(f"onsite must have shape ({m},), got {onsite.shape}")
    if m <= 0 or n <= 0:
        raise ShapeMismatch("cell size and period count must be positive")
    if not (np.isfinite(t) and np.isfinite(onsite).all()):
        raise ShapeMismatch("hopping t and onsite energies must be finite")
    solved = np.linalg.eigvalsh(bloch_blocks(t, m, 2.0 * np.pi * np.arange(n // 2 + 1) / n, onsite))
    bands = np.concatenate([solved, solved[1 : n - n // 2][::-1]])  # row N - j is row j
    k_values = 2.0 * np.pi * np.arange(n) / (n * m)  # after the solve, so the two peaks do not add
    return BandStructure(t, m, n, onsite, k_values, bands)


def band_union_residual(bs: BandStructure) -> float:
    """Distance between the sorted band union and the full ring spectrum."""
    dense = np.linalg.eigvalsh(ring_hamiltonian(bs.hopping, bs.cell_size, bs.periods, bs.onsite))
    return float(np.max(np.abs(bs.union() - dense)))


# ---------------------------------------------------------------------------
# Bloch fields


class BlochField:
    """Orbit-constant coefficient fields whose modulated sum rebuilds f."""

    def __init__(self, coeffs: ZakCoefficients, f):
        self.coeffs = coeffs
        self.action = coeffs.action
        self.dual = coeffs.dual
        f = np.asarray(f, dtype=complex)
        from .zak import zak_inverse

        rec = zak_inverse(coeffs)
        self.reconstruction_residual = float(
            np.max(np.abs(rec - f)) / max(1.0, float(np.linalg.norm(f)))
        )
        if self.reconstruction_residual > 1e-10:
            raise InvariantViolation(
                f"Bloch reconstruction residual {self.reconstruction_residual:g}"
            )

    def field(self, x: int, label: str) -> np.ndarray:
        """B^sigma at any point: the Zak matrix of the point's orbit."""
        x0 = self.coeffs.structure.decomp.rep_of(x)
        return self.coeffs[(x0, label)]

    def field_norm(self, label: str) -> float:
        decomp = self.coeffs.structure.decomp
        return float(
            sum(np.linalg.norm(self.coeffs[(x0, label)]) for x0 in decomp.representatives)
        )


def bloch_fields(action: GroupAction, f, dual: DualObject) -> BlochField:
    return BlochField(zak(action, f, dual), f)
