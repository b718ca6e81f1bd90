"""Brute-force loop versions of the batched library code.

Each function here is the element-by-element loop that the library ran
before it was batched: one Bloch block and one eigvalsh per wave index,
one nearest-point search per sample point, a sequential breadth-first
closure that matches every candidate against every element found so far
(and its keep rule on one layer of candidates), the scan lookups of the torus folding, the group table checks over every
triple, the pair-by-pair homomorphism and cocycle checks, the orbit scan, the per-block finite Zak transforms, the
per-irrep and per-point group Fourier sums (fourier, zak, reciprocal and
bloch), the group-Fourier inverse as one (irreps, points) array, the defining sum and the unfolding loop of the lattice transform, the dense-matrix
invariance check, the group average over shuffled copies of a matrix, the
pairwise homomorphism and character checks of a dual, the per-element
Kronecker products of the product catalog, the pair-by-pair composition
of a permutation table, the generator commutation test on composed
elements and the band CSV formatted from every row.  The tests
require the library to reproduce them exactly (bands, Zak blocks and
inverses to 1e-12; orbits and the Weil structure bitwise) and to raise the
same exception at the same first item.
"""

from __future__ import annotations

from itertools import product as iproduct

import numpy as np

from zakspace.actions import OrbitDecomposition
from zakspace.duals import CHAR_ATOL, HOM_ATOL, UNITARY_ATOL, DualObject, UnitaryIrrep, irreps
from zakspace.errors import (
    EquivarianceViolation,
    IncompleteDual,
    InvariantViolation,
    NoIdentity,
    NoInverse,
    NotAssociative,
    NotClosable,
    NotCosetFunction,
    NotHomomorphism,
    NotInvariant,
    NotIrreducible,
    NotSubgroup,
    SampleSetNotClosed,
    ShapeMismatch,
    SizeMismatch,
    TruncationExceeded,
)
from zakspace.euclid import (
    GeneratedGroup,
    IsometryElement,
    _translation_basis,
    act,
    compose,
    distance,
    identity_isometry,
    inverse,
    translation_subgroup,
)
from zakspace.groups import check_subgroup, left_cosets, make_group
from zakspace.weil import ATOL, Cocycle, bruhat_function, weil_structure


# ---------------------------------------------------------------------------
# bloch


def bloch_block_loop(t: float, m: int, theta: float, onsite) -> np.ndarray:
    h = np.zeros((m, m), dtype=complex)
    h[np.arange(m), np.arange(m)] = np.asarray(onsite, dtype=float)
    for a in range(m - 1):
        h[a, a + 1] += -t
        h[a + 1, a] += -t
    h[m - 1, 0] += -t * np.exp(-1j * theta)
    h[0, m - 1] += -t * np.exp(1j * theta)
    return h


def bands_loop(t: float, m: int, n: int, onsite) -> np.ndarray:
    onsite = np.asarray(onsite, dtype=float)
    bands = np.empty((n, m))
    for j in range(n):
        bands[j] = np.linalg.eigvalsh(bloch_block_loop(t, m, 2.0 * np.pi * j / n, onsite))
    return bands


def bands_full_zone(t: float, m: int, n: int, onsite) -> np.ndarray:
    """All N Bloch blocks, the -k half too, solved by one batched eigvalsh."""
    from zakspace.bloch import bloch_blocks

    return np.linalg.eigvalsh(bloch_blocks(t, m, 2.0 * np.pi * np.arange(n) / n, onsite))


def bands_csv_loop(bs, block_rows: int = 4096) -> str:
    """The band CSV formatted row by row from all N rows: one % format per block of lines."""
    n, m = bs.periods, bs.cell_size
    rows = np.column_stack([
        np.repeat(np.arange(n), m), np.repeat(bs.k_values, m), np.tile(np.arange(m), n), bs.bands.ravel(),
    ])
    lines = ["k_index,k_value,band_index,energy"]
    for part in np.split(rows, range(block_rows, len(rows), block_rows)):
        lines.append("\n".join(["%d,%.12g,%d,%.12g"] * len(part)) % tuple(part.ravel().tolist()))
    return "\n".join(lines + [""])


# ---------------------------------------------------------------------------
# radiation


def point_permutation_loop(points: np.ndarray, g: IsometryElement, tol: float = 1e-9) -> np.ndarray:
    ginv = inverse(g)
    perm = np.empty(points.shape[0], dtype=int)
    for i, x in enumerate(points):
        y = act(ginv, x)
        d = np.linalg.norm(points - y[None, :], axis=1)
        j = int(np.argmin(d))
        if d[j] > tol:
            raise SampleSetNotClosed(x)
        perm[i] = j
    return perm


# ---------------------------------------------------------------------------
# euclid


class _ElementIndex:
    def __init__(self, dim: int, tol: float):
        self.rows = np.empty((0, dim * dim + dim))
        self.tol = tol

    def find(self, e: IsometryElement) -> int:
        if self.rows.shape[0] == 0:
            return -1
        d = np.linalg.norm(self.rows - e.flat()[None, :], axis=1)
        j = int(np.argmin(d))
        return j if d[j] < self.tol else -1

    def add(self, e: IsometryElement) -> None:
        self.rows = np.vstack([self.rows, e.flat()[None, :]])


def accept_loop(rows: np.ndarray, cands: np.ndarray, tol: float) -> list:
    """Indices of the candidates kept one by one: a candidate is dropped when it
    lies within tol of a row or of a candidate kept before it."""
    index = np.array(rows, dtype=float).reshape(-1, cands.shape[1])
    kept = []
    for k, x in enumerate(cands):
        if not (np.linalg.norm(index - x[None, :], axis=1) < tol).any():
            index = np.vstack([index, x[None, :]])
            kept.append(k)
    return kept


def generators_commute_loop(spec) -> bool:
    """distance(ab, ba) <= tol over every pair of generators, composed as elements."""
    gens, tol = spec.generators, spec.truncation.tol
    return all(distance(compose(a, b), compose(b, a)) <= tol for a in gens for b in gens)


def generate_sequential(spec) -> GeneratedGroup:
    tr = spec.truncation
    gens = []
    gen_index = _ElementIndex(spec.dim, tr.tol)
    for g in spec.generators:
        for cand in (g, inverse(g)):
            if gen_index.find(cand) < 0:
                gen_index.add(cand)
                gens.append(cand)

    index = _ElementIndex(spec.dim, tr.tol)
    elements = [identity_isometry(spec.dim)]
    index.add(elements[0])
    word_lengths = [0]
    radius_truncated = False
    frontier = [elements[0]]
    finite = False
    for layer in range(1, tr.word_length + 1):
        new = []
        for e in frontier:
            for g in gens:
                cand = compose(e, g)
                if np.linalg.norm(cand.c) > tr.radius:
                    radius_truncated = True
                    continue
                if index.find(cand) < 0:
                    index.add(cand)
                    elements.append(cand)
                    word_lengths.append(layer)
                    new.append(cand)
                    if len(elements) > tr.max_elements:
                        raise TruncationExceeded(elements)
        if not new:
            finite = not radius_truncated
            break
        frontier = new
    q, c = np.array([e.q for e in elements]), np.array([e.c for e in elements])
    return GeneratedGroup(q, c, finite, word_lengths, radius_truncated)


class _TorusReducer:
    def __init__(self, basis):
        self.basis = basis
        self.pinv = None if basis is None else np.linalg.pinv(basis)

    def reduce(self, vec):
        if self.basis is None:
            return vec
        return vec - self.basis @ np.round(self.pinv @ vec)

    def same(self, a, b, tol) -> bool:
        if self.basis is None:
            return bool(np.linalg.norm(a - b) < tol)
        delta = a - b
        for off in iproduct((-1, 0, 1), repeat=self.basis.shape[1]):
            if np.linalg.norm(delta - self.basis @ np.array(off, dtype=float)) < tol:
                return True
        return False


def _find_element(elements, e, reducer, tol) -> int:
    for i, other in enumerate(elements):
        if np.linalg.norm(other.q - e.q) < tol and reducer.same(other.c, e.c, tol):
            return i
    return -1


def _match_or_add(rows: list, vec, reducer, tol) -> int:
    for i, r in enumerate(rows):
        if reducer.same(r, vec, tol):
            return i
    rows.append(vec)
    return len(rows) - 1


def to_finite_action_scan(spec, seed_points, periods=None, tol: float = 1e-9):
    """(elements, table, perm, points) of the finite model, by scanning."""
    gen = generate_sequential(spec)
    reducer = _TorusReducer(None)
    elements = gen.elements
    if not gen.finite:
        if periods is None:
            raise NotClosable("infinite group: supply periods to fold the translations")
        trans = translation_subgroup(elements, spec.truncation.tol)
        basis = _translation_basis(np.array([e.c for e in trans]), spec.dim, tol)
        if basis is None:
            raise NotClosable("no translations found to fold within the truncation")
        periods = list(periods)
        if len(periods) != basis.shape[1]:
            raise NotClosable("periods do not match the translations")
        super_basis = basis * np.asarray(periods, dtype=float)[None, :]
        pinv = np.linalg.pinv(super_basis)
        for e in elements:
            for col in super_basis.T:
                image = e.q @ col
                coords = pinv @ image
                if (
                    np.max(np.abs(coords - np.round(coords))) > 1e-6
                    or np.linalg.norm(super_basis @ coords - image) > 1e-6
                ):
                    raise NotClosable("rotation parts do not preserve the folded lattice")
        reducer = _TorusReducer(super_basis)
        canon = []
        for e in elements:
            reduced = IsometryElement(e.q, reducer.reduce(e.c))
            if _find_element(canon, reduced, reducer, tol) < 0:
                canon.append(reduced)
        changed = True
        while changed:
            changed = False
            for a in list(canon):
                for b in list(canon):
                    cand = compose(a, b)
                    cand = IsometryElement(cand.q, reducer.reduce(cand.c))
                    if _find_element(canon, cand, reducer, tol) < 0:
                        canon.append(cand)
                        changed = True
                        if len(canon) > spec.truncation.max_elements:
                            raise TruncationExceeded(canon)
        elements = canon

    n = len(elements)
    table = np.empty((n, n), dtype=int)
    for i, a in enumerate(elements):
        for j, b in enumerate(elements):
            cand = compose(a, b)
            cand = IsometryElement(cand.q, reducer.reduce(cand.c))
            k = _find_element(elements, cand, reducer, tol)
            if k < 0:
                raise NotClosable(f"product of elements {i} and {j} left the set")
            table[i, j] = k

    points = []
    for seed in np.atleast_2d(np.asarray(seed_points, dtype=float)):
        for e in elements:
            _match_or_add(points, reducer.reduce(act(e, seed)), reducer, tol)
    perm = np.empty((n, len(points)), dtype=int)
    for i, e in enumerate(elements):
        for x, p in enumerate(points):
            image = reducer.reduce(act(e, p))
            k = next((j for j, r in enumerate(points) if reducer.same(r, image, tol)), -1)
            if k < 0:
                raise NotClosable(f"orbit point {p} escapes under element {i}")
            perm[i, x] = k
    return elements, table, perm, np.array(points)


def isometry_table_scan(elements, tol: float = 1e-9) -> np.ndarray:
    reducer = _TorusReducer(None)
    n = len(elements)
    table = np.empty((n, n), dtype=int)
    for i, a in enumerate(elements):
        for j, b in enumerate(elements):
            k = _find_element(elements, compose(a, b), reducer, tol)
            if k < 0:
                raise NotClosable(f"element list not closed at ({i},{j})")
            table[i, j] = k
    make_group(table)
    return table


def symmetry_projection_loop(field, elements, irrep_matrices) -> np.ndarray:
    from zakspace.radiation import act_field

    m = field.points.shape[0]
    d = irrep_matrices.shape[1]
    out = np.zeros((m, d, d, 3), dtype=complex)
    for g_idx, g in enumerate(elements):
        moved = act_field(g, field)
        out += np.einsum("xi,ab->xabi", moved.values, irrep_matrices[g_idx].conj().T)
    return out


# ---------------------------------------------------------------------------
# groups, actions and weil


def group_checks_loop(table) -> tuple[int, np.ndarray]:
    """make_group's checks before generators: (identity, inverses) of a square table of indices.

    The identity is the first element found by a scan, associativity is
    associativity_loop, and inverses are found by a scan; each raises at its
    first witness in index order.
    """
    t = np.asarray(table, dtype=int)
    n = len(t)
    idx = np.arange(n)
    identity = next((e for e in range(n) if np.array_equal(t[e], idx) and np.array_equal(t[:, e], idx)), None)
    if identity is None:
        raise NoIdentity()
    associativity_loop(t)
    inverses = np.full(n, -1, dtype=int)
    for g in range(n):
        hits = np.flatnonzero(t[g] == identity)
        if hits.size == 0 or t[hits[0], g] != identity:
            raise NoInverse(g)
        inverses[g] = hits[0]
    return identity, inverses


def associativity_loop(t) -> None:
    """Every triple at once, as two n x n x n arrays; raises at the first failing triple in row-major order."""
    t = np.asarray(t, dtype=int)
    lhs, rhs = t[t, :], t[:, t]  # [g, h, k] = (g h) k and g (h k)
    if not np.array_equal(lhs, rhs):
        g, h, k = np.argwhere(lhs != rhs)[0]
        raise NotAssociative(int(g), int(h), int(k))


def associative_at(t, g, h, k) -> bool:
    t = np.asarray(t)
    return bool(t[t[g, h], k] == t[g, t[h, k]])


def homomorphism_holds_at(group, perm, g, h) -> bool:
    """perm(g h) = perm(g) o perm(h), the test homomorphism_loop makes for one pair."""
    return bool(np.array_equal(perm[group.mul(g, h)], perm[g][perm[h]]))


def homomorphism_loop(group, perm) -> None:
    """make_action's check: the identity row, then perm(g h) = perm(g) o perm(h) pair by pair."""
    perm = np.asarray(perm, dtype=int)
    if not np.array_equal(perm[group.identity], np.arange(perm.shape[1])):
        raise NotHomomorphism(group.identity, group.identity)
    for g in group.elements():
        for h in group.elements():
            if not homomorphism_holds_at(group, perm, g, h):
                raise NotHomomorphism(g, h)


def orbits_loop(action) -> OrbitDecomposition:
    m = action.npoints
    orbit_of = np.full(m, -1, dtype=int)
    reps, members, to_rep, stab_sizes = [], [], np.zeros(m, dtype=int), []
    for x in range(m):
        if orbit_of[x] >= 0:
            continue
        images = action.perm[:, x]
        orbit_pts = sorted(set(images.tolist()))
        rep = orbit_pts[0]
        oid = len(reps)
        reps.append(rep)
        members.append(orbit_pts)
        for y in orbit_pts:
            orbit_of[y] = oid
            to_rep[y] = np.where(action.perm[:, y] == rep)[0][0]
        stab_sizes.append(int(np.sum(images == rep)))
    return OrbitDecomposition(orbit_of, reps, members, to_rep, stab_sizes)


def cocycle_holds_at(group, inv_perm, lam, g1, g2) -> bool:
    """(g2 lambda_{g1})(x) = lambda_{g1 g2^-1}(x) / lambda_{g2^-1}(x) at every x, to ATOL, for one pair."""
    lhs = lam[g1][inv_perm[g2]]
    rhs = lam[group.mul(g1, group.inv(g2))] / lam[group.inv(g2)]
    return not np.max(np.abs(lhs - rhs)) > ATOL * max(1.0, np.max(np.abs(rhs)))


def cocycle_identity_loop(group, inv_perm, lam) -> None:
    for g1 in group.elements():
        for g2 in group.elements():
            if not cocycle_holds_at(group, inv_perm, lam, g1, g2):
                raise AssertionError(f"cocycle identity fails at ({g1},{g2})")


def cocycle_loop(action, decomp) -> Cocycle:
    group = action.group
    w = action.weights
    lam = w[action.perm] / w[None, :]
    beta = bruhat_function(action, decomp)
    inv_perm = action.perm[group.inverses]
    lam_inv_at = np.array([lam[group.inv(g)] for g in group.elements()])
    q = np.einsum("gx,gx->x", beta[inv_perm], lam_inv_at)
    cocycle_identity_loop(group, inv_perm, lam)
    resid = np.max(np.abs(q[inv_perm] * lam_inv_at - q[None, :]))
    if resid > ATOL * max(1.0, float(np.max(q))):
        raise AssertionError(f"q functional equation fails, residual {resid}")
    return Cocycle(lam, q)


def weil_measures_loop(action, coc, decomp) -> tuple[np.ndarray, dict]:
    """(orbit_measure, fd_measure) by one delta-function solve per representative."""
    inv_perm = action.perm[action.group.inverses]
    measures = np.empty(decomp.norbits)
    for oid, rep in enumerate(decomp.representatives):
        delta = np.zeros(action.npoints)
        delta[rep] = 1.0
        mean_at_rep = delta[inv_perm[:, rep]].sum()
        measures[oid] = coc.q[rep] * action.weights[rep] / mean_at_rep
    return measures, {rep: measures[oid] for oid, rep in enumerate(decomp.representatives)}


# ---------------------------------------------------------------------------
# zak


def zak_loop(action, f, dual, representatives) -> dict:
    """(x0, label) -> sum_g f(g^-1 x0) sigma(g)*, one einsum per block."""
    f = np.asarray(f, dtype=complex)
    inv_perm = action.perm[action.group.inverses]
    data = {}
    for x0 in representatives:
        orbit_vals = f[inv_perm[:, x0]]
        for irr in dual.irreps:
            data[(x0, irr.label)] = np.einsum("g,gji->ij", orbit_vals, irr.matrices.conj())
    return data


def stabilizer_tables_loop(action, dual, representatives) -> tuple[dict, dict]:
    """(projectors, members): the stabilizer average of each irrep and whether it is nonzero."""
    projectors, members = {}, {}
    for x0 in representatives:
        stab = [g for g in action.group.elements() if action.apply(g, x0) == x0]
        for s in dual.irreps:
            p = fixed_space_projector(s, stab)
            projectors[(x0, s.label)] = p
            members[(x0, s.label)] = int(round(np.trace(p).real)) >= 1
    return projectors, members


def check_invariants_loop(data, projectors, members, f_norm) -> None:
    tol = 1e-12 * max(1.0, f_norm)
    for (x0, label), block in data.items():
        if not members[(x0, label)]:
            if np.linalg.norm(block) > tol:
                raise InvariantViolation(
                    f"Z({x0},{label}) = {np.linalg.norm(block):g} off the reciprocal space"
                )
        p = projectors[(x0, label)]
        if np.max(np.abs(block @ p - block)) > tol:
            raise InvariantViolation(f"Z({x0},{label}) P != Z({x0},{label})")


def zak_inverse_loop(action, dual, decomp, data, members) -> np.ndarray:
    order = action.group.order
    f = np.zeros(action.npoints, dtype=complex)
    for x in range(action.npoints):
        x0 = decomp.rep_of(x)
        g = int(decomp.to_rep_element[x])
        val = 0.0 + 0.0j
        for s in dual.irreps:
            if not members[(x0, s.label)]:
                continue
            val += (s.dim / order) * np.trace(data[(x0, s.label)] @ s.matrices[g])
        f[x] = val
    return f


def masked_zak_blocks(coeffs) -> list:
    """The Zak stacks with the blocks off the reciprocal space zeroed, as zak_inverse hands them to the core."""
    return [
        np.where(coeffs.members[:, idx, None, None], z, 0.0)
        for (_d, idx, _m), z in zip(coeffs.dual.dim_classes, coeffs.blocks)
    ]


def inverse_by_irrep(blocks, rows, elements, dual) -> np.ndarray:
    """fourier.inverse as it was: every term in one (irreps, points) array, in chunks of
    at most 8192 matrix entries, then added up over the irreps from zero."""
    order = dual.group.order
    terms = np.empty((len(dual.irreps), len(rows)), dtype=complex)
    for (d, idx, mats), z in zip(dual.dim_classes, blocks):
        step = max(1, 8192 // (len(idx) * d * d))
        for lo in range(0, len(rows), step):
            pts = slice(lo, lo + step)
            tr = np.trace(z[rows[pts]] @ mats[:, elements[pts]].swapaxes(0, 1), axis1=2, axis2=3)
            tr *= d / order
            terms[idx, pts] = tr.T
    f = np.zeros(len(rows), dtype=complex)
    for term in terms:
        f += term
    return f


def image_norm_sq_loop(structure, dual, data) -> float:
    total = 0.0
    order = dual.group.order
    for x0 in structure.decomp.representatives:
        mu = structure.decomp.fd_measure[x0]
        for s in dual.irreps:
            total += mu * (s.dim / order) * float(np.sum(np.abs(data[(x0, s.label)]) ** 2))
    return total


def fixed_space_projector(irrep, subgroup_elems) -> np.ndarray:
    """Average of sigma over H: the orthogonal projector onto H-fixed vectors."""
    return irrep.matrices[list(subgroup_elems)].mean(axis=0)


def extension_gap_loop(coeffs, f, x) -> tuple[dict, float]:
    """extended_zak's sums at x, one einsum per irrep, and their largest gap from the equivariance law."""
    action, decomp = coeffs.action, coeffs.structure.decomp
    orbit_vals = f[action.perm[action.group.inverses, x]]
    x0, g = decomp.rep_of(x), int(decomp.to_rep_element[x])
    direct, gap = {}, 0.0
    for irr in coeffs.dual.irreps:
        direct[irr.label] = np.einsum("g,gji->ij", orbit_vals, irr.matrices.conj())
        law = coeffs[(x0, irr.label)] @ irr.matrices[g]
        gap = max(gap, float(np.max(np.abs(law - direct[irr.label]))))
    return direct, gap


def extended_zak_loop(coeffs, f, x) -> dict:
    direct, gap = extension_gap_loop(coeffs, f, x)
    if gap > 1e-12 * max(1.0, float(np.linalg.norm(f))):
        raise EquivarianceViolation(
            f"extended Zak at x={x} disagrees with the equivariance law by {gap:g}"
        )
    return direct


def character_zak_loop(coeffs, f) -> dict:
    """character_zak's reconciliation, one (x0, irrep) pair at a time."""
    action, dual = coeffs.action, coeffs.dual
    inv_perm = action.perm[action.group.inverses]
    out = {}
    scale = max(1.0, float(np.linalg.norm(f)))
    for x0 in coeffs.structure.decomp.representatives:
        orbit_vals = f[inv_perm[:, x0]]
        for s in dual.irreps:
            direct = np.sum(orbit_vals * s.character().conj())
            via_trace = np.trace(coeffs[(x0, s.label)])
            if abs(direct - via_trace) > 1e-13 * scale:
                raise InvariantViolation(
                    f"character Zak at ({x0},{s.label}) disagrees with tr(Z)"
                )
            out[(x0, s.label)] = complex(via_trace)
    return out


def character_zak_reconstruct_loop(action, f, dual) -> np.ndarray:
    inv_perm = action.perm[action.group.inverses]
    order = action.group.order
    f_rec = np.zeros_like(f)
    for x in range(action.npoints):
        orbit_vals = f[inv_perm[:, x]]
        for s in dual.irreps:
            f_rec[x] += (s.dim / order) * np.sum(orbit_vals * s.character().conj())
    return f_rec


def heisenberg_loop(coeffs, f) -> float:
    action, dual = coeffs.action, coeffs.dual
    inv_perm = action.perm[action.group.inverses]
    worst = 0.0
    for x0 in coeffs.structure.decomp.representatives:
        for irr in dual.irreps:
            if irr.dim != 1:
                raise SizeMismatch("projective-sum path applies to abelian duals")
            xi_sum = np.sum(f[inv_perm[:, x0]] * irr.matrices[:, 0, 0].conj())
            worst = max(worst, abs(xi_sum - coeffs.value(x0, irr.label)))
    return float(worst)


def intertwining_loop(action, f, dual) -> float:
    from zakspace.zak import zak

    s = weil_structure(action)
    base = zak(action, f, dual)
    worst = 0.0
    for g in action.group.elements():
        shifted = zak(action, action.pullback(g, f), dual)
        for x0 in s.decomp.representatives:
            for irr in dual.irreps:
                delta = shifted[(x0, irr.label)] - irr.matrices[g] @ base[(x0, irr.label)]
                worst = max(worst, float(np.max(np.abs(delta))))
    return worst


# ---------------------------------------------------------------------------
# duals


def regular_average_loop(group, m: np.ndarray) -> np.ndarray:
    """(1/|G|) sum_g R(g) M R(g)*, one shuffled copy of M per element (perms[g][x] = g^-1 x)."""
    perms = group.table[group.inverses]
    out = np.zeros(m.shape, dtype=complex)
    for g in group.elements():
        out += m[np.ix_(perms[g], perms[g])]
    return out / group.order


def pair_products_einsum(mats: np.ndarray) -> np.ndarray:
    """(g, h, i, k) array of sigma(g) sigma(h), as one pairwise einsum."""
    return np.einsum("gij,hjk->ghik", mats, mats)


def validate_dual_loop(dual) -> None:
    """Each irrep with the einsum homomorphism check, then the characters pair by pair."""
    group = dual.group
    n = group.order
    for s in dual.irreps:
        d, mats = s.dim, s.matrices
        if mats.shape != (n, d, d):
            raise NotIrreducible(f"{s.label}: matrix block has shape {mats.shape}")
        if not np.isfinite(mats).all():
            raise NotIrreducible(f"{s.label}: matrices not finite")
        if np.max(np.abs(mats[group.identity] - np.eye(d))) > HOM_ATOL:
            raise NotIrreducible(f"{s.label}: identity does not map to I")
        if np.max(np.abs(mats[group.table] - pair_products_einsum(mats))) > HOM_ATOL:
            raise NotIrreducible(f"{s.label}: not a homomorphism")
        gram = np.einsum("gij,gkj->gik", mats, mats.conj())
        if np.max(np.abs(gram - np.eye(d))) > UNITARY_ATOL:
            raise NotIrreducible(f"{s.label}: matrices not unitary")
        chi = s.character()
        norm = np.vdot(chi, chi).real / n
        if abs(norm - 1.0) > CHAR_ATOL:
            raise NotIrreducible(f"{s.label}: character norm {norm} != 1")
    total = sum(s.dim**2 for s in dual.irreps)
    if total != n:
        raise IncompleteDual(total, n)
    chars = [s.character() for s in dual.irreps]
    for i in range(len(chars)):
        for j in range(i + 1, len(chars)):
            if abs(np.vdot(chars[j], chars[i]) / n) > CHAR_ATOL:
                raise NotIrreducible(f"{dual.irreps[i].label} and {dual.irreps[j].label} are equivalent")


def product_dual_loop(group, seed: int) -> DualObject:
    """The product catalog with one np.kron per element per pair of factor irreps."""
    g1, g2 = group._factors
    d1, d2 = irreps(g1, seed=seed), irreps(g2, seed=seed)
    out = []
    for s1 in d1.irreps:
        for s2 in d2.irreps:
            mats = np.empty((group.order, s1.dim * s2.dim, s1.dim * s2.dim), dtype=complex)
            for g in group.elements():
                a, b = divmod(g, g2.order)
                mats[g] = np.kron(s1.matrices[a], s2.matrices[b])
            out.append(UnitaryIrrep(f"{s1.label}*{s2.label}", s1.dim * s2.dim, mats))
    return DualObject(group, out)


# ---------------------------------------------------------------------------
# groups


def permutation_table_loop(perms) -> np.ndarray:
    """(p*q)(i) = p(q(i)) pair by pair, each composite looked up in a dict."""
    perms = [tuple(p) for p in perms]
    index = {p: i for i, p in enumerate(perms)}
    table = np.empty((len(perms), len(perms)), dtype=int)
    for i, p in enumerate(perms):
        for j, q in enumerate(perms):
            comp = tuple(p[q[k]] for k in range(len(p)))
            if comp not in index:
                raise NotSubgroup(f"permutation set not closed: {p} o {q}")
            table[i, j] = index[comp]
    return table


# ---------------------------------------------------------------------------
# fourier and reciprocal


def fourier_loop(f, dual) -> dict:
    return {s.label: np.einsum("g,gji->ij", f, s.matrices.conj()) for s in dual.irreps}


def inverse_fourier_loop(blocks: dict, dual) -> np.ndarray:
    out = np.zeros(dual.group.order, dtype=complex)
    for w, s in zip(dual.plancherel_weight, dual.irreps):
        block = np.asarray(blocks[s.label], dtype=complex)
        if block.shape != (s.dim, s.dim):
            raise ShapeMismatch(f"{s.label}: expected {(s.dim, s.dim)}, got {block.shape}")
        out += w * np.einsum("ij,gji->g", block, s.matrices)
    return out


def reciprocal_space_loop(dual, subgroup) -> tuple[list, dict, dict]:
    """(members, projectors, multiplicities), one irrep at a time."""
    sub = check_subgroup(dual.group, subgroup)
    members, projectors, mults = [], {}, {}
    for s in dual.irreps:
        p = fixed_space_projector(s, sub)
        tr = np.trace(p)
        mult = int(round(tr.real))
        if abs(tr - mult) > 1e-6:
            raise AssertionError(f"{s.label}: trace of projector {tr} is not near an integer")
        projectors[s.label] = p
        mults[s.label] = mult
        if mult >= 1:
            members.append(s.label)
    return members, projectors, mults


def poisson_compact_loop(f, group, subgroup, dual) -> tuple:
    members, projectors, _ = reciprocal_space_loop(dual, subgroup)
    sub = check_subgroup(dual.group, subgroup)
    lhs = f[sub].sum() / len(sub)
    fhat = fourier_loop(f, dual)
    rhs = 0.0 + 0.0j
    for label in members:
        s = dual.by_label[label]
        rhs += (s.dim / group.order) * np.trace(projectors[label] @ fhat[label])
    return lhs, rhs, float(abs(lhs - rhs))


def quotient_fourier_loop(f_on_quotient, group, subgroup, dual) -> float:
    sub = check_subgroup(group, subgroup)
    cosets = left_cosets(group, sub)
    f_in = np.asarray(f_on_quotient, dtype=complex)
    if f_in.shape == (group.order,):
        f_coset = np.empty(len(cosets), dtype=complex)
        for i, coset in enumerate(cosets):
            vals = f_in[coset]
            if np.max(np.abs(vals - vals[0])) > 1e-12 * max(1.0, np.max(np.abs(vals))):
                raise NotCosetFunction(f"f is not constant on coset {coset}")
            f_coset[i] = vals[0]
    else:
        f_coset = f_in
    members, projectors, _ = reciprocal_space_loop(dual, sub)
    f_ext = np.empty(group.order, dtype=complex)
    for i, coset in enumerate(cosets):
        f_ext[coset] = f_coset[i]
    fhat = fourier_loop(f_ext, dual)
    for s in dual.irreps:
        if s.label not in members and np.max(np.abs(fhat[s.label])) > 1e-10 * max(
            1.0, float(np.max(np.abs(f_coset)))
        ):
            raise AssertionError(f"fhat({s.label}) does not vanish off H^perp")
    err = 0.0
    for i, coset in enumerate(cosets):
        val = 0.0 + 0.0j
        for label in members:
            s = dual.by_label[label]
            sigma_quot = s.matrices[coset[0]] @ projectors[label]
            val += (s.dim / group.order) * np.trace(fhat[label] @ sigma_quot)
        err = max(err, abs(val - f_coset[i]))
    return float(err)


def invariance_support_loop(f, dual, subgroup, side="left") -> float:
    _, projectors, _ = reciprocal_space_loop(dual, subgroup)
    fhat = fourier_loop(np.asarray(f, dtype=complex), dual)
    resid = 0.0
    for s in dual.irreps:
        p = projectors[s.label]
        block = fhat[s.label]
        delta = block @ p - block if side == "left" else p @ block - block
        resid = max(resid, float(np.max(np.abs(delta))))
    return resid


# ---------------------------------------------------------------------------
# bloch and lattice


def check_invariance_dense(action, h) -> None:
    """bloch.check_invariance with one dense permutation matrix per element."""
    scale = max(1.0, float(np.linalg.norm(h)))
    for g in action.group.elements():
        pg = action.permutation_matrix(g)
        if np.linalg.norm(h @ pg - pg @ h) > 1e-10 * scale:
            raise NotInvariant(g)


def symmetry_adapted_basis_loop(action, dual) -> tuple[np.ndarray, list]:
    """One column per (irrep, row, slot), filled one point at a time."""
    group = action.group
    structure = weil_structure(action)
    decomp = structure.decomp
    columns, layout = [], []
    offset = 0
    for s in dual.irreps:
        slots = []
        for oid, x0 in enumerate(decomp.representatives):
            stab = structure.stabilizers[oid]
            p = fixed_space_projector(s, stab)
            w, u = np.linalg.eigh(p)
            for a in range(s.dim):
                if w[a] > 0.5:
                    slots.append((oid, x0, len(stab), u[:, a]))
        if not slots:
            continue
        m_sigma = len(slots)
        for i in range(s.dim):
            for oid, x0, stab_size, u in slots:
                col = np.zeros(action.npoints, dtype=complex)
                norm = np.sqrt(s.dim * stab_size / group.order)
                for x in decomp.members[oid]:
                    g = int(decomp.to_rep_element[x])
                    col[x] = norm * (u.conj() @ s.matrices[g][:, i])
                columns.append(col)
            layout.append((s.label, i, offset, m_sigma))
            offset += m_sigma
    return np.column_stack(columns), layout


def classic_zak_inverse_loop(grid) -> np.ndarray:
    """Inverse FFT along the period axes, then the orbits unfolded one sample at a time."""
    d = grid.ndim_space
    orbit = np.fft.ifftn(grid.values, axes=tuple(range(d, 2 * d)))
    samples = np.empty(
        tuple(grid.cells[a] * grid.periods[a] for a in range(d)), dtype=complex
    )
    for x0 in np.ndindex(*grid.cells):
        for n in np.ndindex(*grid.periods):
            dest = tuple(
                (x0[a] - n[a] * grid.cells[a]) % samples.shape[a] for a in range(d)
            )
            samples[dest] = orbit[x0 + n]
    return samples


def classic_zak_direct_loop(samples, cells) -> np.ndarray:
    """The defining sum of the classic Zak transform, one (x0, j, n) term at a time."""
    samples = np.asarray(samples, dtype=complex)
    d = samples.ndim
    cells = tuple(int(m) for m in (cells if np.iterable(cells) else [cells] * d))
    periods = tuple(samples.shape[a] // cells[a] for a in range(d))
    out = np.zeros(cells + periods, dtype=complex)
    for x0 in np.ndindex(*cells):
        for j in np.ndindex(*periods):
            acc = 0.0 + 0.0j
            for n in np.ndindex(*periods):
                src = tuple(
                    (x0[a] - n[a] * cells[a]) % samples.shape[a] for a in range(d)
                )
                phase = sum(j[a] * n[a] / periods[a] for a in range(d))
                acc += samples[src] * np.exp(-2j * np.pi * phase)
            out[x0 + j] = acc
    return out
