"""Unitary irreducible representations of finite groups.

Three routes produce a complete dual:

* closed-form catalogs for cyclic, dihedral, direct-product and symmetric
  structure (detected from the table, so isomorphic copies with scrambled
  element order work too).  A group of order n! (n >= 4) is recognised as
  S_n by a Coxeter chain of involutions s_1, ..., s_{n-1} found in the
  table ((s_i s_{i+1})^3 = e, s_i s_j = s_j s_i for |i - j| > 1, closing
  to all n! elements); its irreps are Young's orthogonal form on that
  chain, carried to every element along a breadth-first word;
* induction of the characters of a supplied normal abelian subgroup up to
  the group, followed by numeric splitting of each induced representation;
* splitting of the regular representation with a random element of its
  commutant (seeded, then polished to an exactly invariant subspace by
  averaging the subspace projector over the group).  A group average of an
  |G| x |G| matrix commutes with the regular representation, so it is a
  convolution over the multiplication table: one gather of O(|G|^2) entries
  per average, not |G| shuffled copies of the matrix.

Whatever the route, the result is validated against the same invariants:
unitarity, the homomorphism property, irreducibility via the character
norm, completeness sum(d^2) = |G|, and pairwise inequivalence.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import cached_property

import numpy as np

from .errors import IncompleteDual, NotAbelian, NotIrreducible
from .groups import FiniteGroup, check_subgroup, left_cosets, subgroup_as_group

HOM_ATOL = 1e-10
UNITARY_ATOL = 1e-12
EPS = float(np.finfo(float).eps)
CHAR_ATOL = 1e-9


@dataclass
class UnitaryIrrep:
    """One irreducible unitary representation: label, dimension, matrix per element."""

    label: str
    dim: int
    matrices: np.ndarray  # (|G|, dim, dim) complex

    def character(self) -> np.ndarray:
        return np.einsum("gii->g", self.matrices)

    def conjugated(self, u: np.ndarray) -> "UnitaryIrrep":
        """Equivalent copy u sigma u* (basis change, for invariance tests)."""
        return UnitaryIrrep(self.label, self.dim, u @ self.matrices @ u.conj().T)


@dataclass
class DualObject:
    """A complete set of inequivalent irreps with Plancherel weights d/|G|."""

    group: FiniteGroup
    irreps: list[UnitaryIrrep]
    plancherel_weight: np.ndarray = field(init=False)

    def __post_init__(self):
        self.plancherel_weight = np.array(
            [s.dim / self.group.order for s in self.irreps]
        )
        self.by_label = {s.label: s for s in self.irreps}

    @property
    def labels(self) -> list[str]:
        return [s.label for s in self.irreps]

    def is_abelian_dual(self) -> bool:
        return all(s.dim == 1 for s in self.irreps)

    @cached_property
    def dim_classes(self) -> list[tuple[int, list[int], np.ndarray]]:
        """The irreps of each dimension d, in order of first appearance.

        One (d, indices into irreps, (k, |G|, d, d) stacked matrices) per d,
        so the transforms run one array op per class instead of per irrep.
        """
        by_dim: dict[int, list[int]] = {}
        for i, s in enumerate(self.irreps):
            by_dim.setdefault(s.dim, []).append(i)
        return [
            (d, idx, np.stack([self.irreps[i].matrices for i in idx])) for d, idx in by_dim.items()
        ]

    def per_irrep(self, stacks) -> list[np.ndarray]:
        """Split one (..., k, d, d) array per dimension class into a (..., d, d) view per irrep, in irrep order."""
        views = [None] * len(self.irreps)
        for (_d, idx, _mats), z in zip(self.dim_classes, stacks):
            for j, i in enumerate(idx):
                views[i] = z[..., j, :, :]
        return views

    def traces(self, stacks) -> np.ndarray:
        """The trace of each block of one (..., k, d, d) array per dimension class, as one (..., irreps) array."""
        out = np.empty(stacks[0].shape[:-3] + (len(self.irreps),), dtype=complex)
        for (_d, idx, _mats), z in zip(self.dim_classes, stacks):
            out[..., idx] = np.trace(z, axis1=-2, axis2=-1)
        return out

    @cached_property
    def character_table(self) -> np.ndarray:
        """(|G|, irreps) array of the characters tr sigma(g)."""
        return np.stack([s.character() for s in self.irreps], axis=1)


PAIR_BLOCK_ENTRIES = 1 << 19  # entries per temporary of the exhaustive homomorphism check


def _pair_products(mats: np.ndarray, rows=slice(None)) -> np.ndarray:
    """(a, b, i, k) array of sigma(a) sigma(b) for a in mats[rows] and every b, as one matrix product."""
    left = mats[rows]
    k, n, d = left.shape[0], mats.shape[0], mats.shape[1]
    prods = left.reshape(k * d, d) @ mats.transpose(1, 0, 2).reshape(d, n * d)
    return prods.reshape(k, d, n, d).transpose(0, 2, 1, 3)


def _pair_defect(group: FiniteGroup, mats: np.ndarray) -> float:
    """max |sigma(ab) - sigma(a) sigma(b)| over all |G|^2 pairs, one block of rows a at a time.

    No temporary holds more than PAIR_BLOCK_ENTRIES entries (or one row a).
    A NaN anywhere makes the result NaN, as one max over the whole array does.
    """
    n, d = mats.shape[0], mats.shape[1]
    block = max(1, PAIR_BLOCK_ENTRIES // (n * d * d))
    return np.max([
        np.max(np.abs(mats[group.table[a : a + block]] - _pair_products(mats, slice(a, a + block))))
        for a in range(0, n, block)
    ])


def _generator_defect(group: FiniteGroup, mats: np.ndarray) -> float:
    """delta = max |sigma(a s) - sigma(a) sigma(s)| over every a and every generator s (0 with none).

    All generators at once: one gather along table[:, generators] and one
    matrix product of the stacked sigma(a) with [sigma(s_1) | sigma(s_2) | ...].
    """
    n, d = mats.shape[0], mats.shape[1]
    gens = group.generators
    right = mats[gens].transpose(1, 0, 2).reshape(d, len(gens) * d)
    prods = (mats.reshape(n * d, d) @ right).reshape(n, d, len(gens), d).transpose(0, 2, 1, 3)
    return np.max(np.abs(mats[group.table[:, gens]] - prods), initial=0.0)


def _homomorphism_bound(d: int, length: int, e_defect: float, gen_defect: float, gram_defect: float) -> float:
    """An upper bound on the exhaustive check's computed max |sigma(ab) - sigma(a) sigma(b)|.

    From the measured identity defect, generator defect and Gram defect of a
    (|G|, d, d) stack whose longest generator word has `length` letters; see
    validate_irrep.  inf when an input is not finite or mu^L overflows.
    """
    e_defect, gen_defect, gram_defect = float(e_defect), float(gen_defect), float(gram_defect)
    if not math.isfinite(e_defect + gen_defect + gram_defect):
        return math.inf
    rnd = 2 * (d + 2) * EPS  # twice Higham's gamma_{d+2} for a complex dot product of length d
    rows = (1 + gram_defect) / (1 - rnd)  # >= |row of sigma(g)|^2
    mu = math.sqrt(1 + d * (gram_defect + rnd * rows))  # >= ||sigma(g)||_2
    delta = gen_defect * (1 + rnd) + rnd * mu * mu  # >= the exact generator defect
    try:
        bound = mu ** (length + 1) * d * e_defect * (1 + rnd) + (1 + mu) * d * delta * length * mu ** (length - 1)
    except OverflowError:  # mu^L beyond the float range
        return math.inf
    return (bound + rnd * mu * mu) * (1 + rnd)


def validate_irrep(group: FiniteGroup, irrep: UnitaryIrrep) -> None:
    """Check shape, finite entries, sigma(e) = I, the homomorphism property, unitarity and character norm 1, in that order.

    Each failure raises NotIrreducible("{label}: ...") at the first failing
    check.  The homomorphism check (max |sigma(ab) - sigma(a) sigma(b)| <=
    HOM_ATOL over all pairs) is decided on generators when it can be:

    With E(a, s) = sigma(as) - sigma(a) sigma(s) and F(a, b) = sigma(ab) -
    sigma(a) sigma(b), writing b = b's with l(b') = l(b) - 1 gives

        F(a, b's) = F(a, b') sigma(s) + E(ab', s) - sigma(a) E(b', s),
        F(a, e)   = sigma(a) (I - sigma(e)),

    so by induction on the word length l(b) <= L (FiniteGroup.max_word_length)

        ||F(a, b)||_2 <= mu^L mu d eps_e + (1 + mu) d delta sum_{k<L} mu^k
                      <= mu^(L+1) d eps_e + (1 + mu) d delta L mu^(L-1),

    where eps_e = max |sigma(e) - I| is the measured identity defect,
    delta = max |E(a, s)| over every a and generator s (|S| gathers and
    batched products, O(|G| |S| d^3)), and mu >= ||sigma(g)||_2 follows
    from the Gram defect gamma = max |sigma(g) sigma(g)* - I| as
    mu^2 = 1 + d gamma.  Every measured quantity is inflated by its rounding
    bound, and the rounding of the exhaustive products is added.  When the
    bound is <= HOM_ATOL, every entry the exhaustive check would compute is
    too, so it is skipped.  Otherwise (a real defect, or a bound that
    overflows) the exhaustive check runs, a block of rows at a time, and
    decides.  The Gram matrix is computed first, but its error is raised
    after the homomorphism check, so the order of the messages is unchanged.
    """
    n, d = group.order, irrep.dim
    mats = irrep.matrices
    if mats.shape != (n, d, d):
        raise NotIrreducible(f"{irrep.label}: matrix block has shape {mats.shape}")
    if not np.all(np.isfinite(mats)):
        raise NotIrreducible(f"{irrep.label}: matrices not finite")
    e_defect = np.max(np.abs(mats[group.identity] - np.eye(d)))
    if e_defect > HOM_ATOL:
        raise NotIrreducible(f"{irrep.label}: identity does not map to I")
    gram = mats @ mats.conj().transpose(0, 2, 1)
    gram_defect = np.max(np.abs(gram - np.eye(d)))
    bound = _homomorphism_bound(d, group.max_word_length, e_defect, _generator_defect(group, mats), gram_defect)
    if not bound <= HOM_ATOL and _pair_defect(group, mats) > HOM_ATOL:
        raise NotIrreducible(f"{irrep.label}: not a homomorphism")
    if gram_defect > UNITARY_ATOL:
        raise NotIrreducible(f"{irrep.label}: matrices not unitary")
    chi = irrep.character()
    norm = np.vdot(chi, chi).real / n
    if abs(norm - 1.0) > CHAR_ATOL:
        raise NotIrreducible(f"{irrep.label}: character norm {norm} != 1")


def validate_dual(dual: DualObject) -> None:
    """Validate every irrep (validate_irrep), completeness sum d^2 = |G|, then pairwise inequivalence.

    Each irrep's homomorphism check costs O(|G| |S| d^3) on generators when
    its certificate holds, with the bound stated in validate_irrep, and the
    exhaustive O(|G|^2 d^3) scan otherwise.  Inequivalence compares the
    characters: the first pair (i, j), i < j, with |<chi_i, chi_j>| > CHAR_ATOL
    is named.
    """
    group = dual.group
    for s in dual.irreps:
        validate_irrep(group, s)
    total = sum(s.dim**2 for s in dual.irreps)
    if total != group.order:
        raise IncompleteDual(total, group.order)
    chars = dual.character_table
    overlap = np.abs(chars.conj().T @ chars / group.order)
    bad = np.argwhere(np.triu(overlap > CHAR_ATOL, 1))  # row-major: the first pair (i, j), i < j
    if len(bad):
        i, j = bad[0]
        raise NotIrreducible(f"{dual.irreps[i].label} and {dual.irreps[j].label} are equivalent")


# ---------------------------------------------------------------------------
# abelian duals


def _regular_perms(group: FiniteGroup) -> np.ndarray:
    """index array: row g sends basis vector x to g^-1 x (for R(g) B R(g)*)."""
    return group.table[group.inverses]


def roots_of_unity(n: int) -> np.ndarray:
    """exp(2 pi i k/n) for k = 0..n-1, exact at the quarter points."""
    roots = np.exp(2j * np.pi * np.arange(n) / n)
    for num, val in ((0, 1.0), (1, 1.0j), (2, -1.0), (3, -1.0j)):
        if (num * n) % 4 == 0:
            roots[num * n // 4] = val
    return roots


def dual_abelian(group: FiniteGroup, seed: int = 0) -> DualObject:
    """All |G| characters of an abelian group, as 1x1 irreps.

    Cyclic groups get the closed form chi_j(g) = exp(2 pi i j dlog(g)/N).
    Otherwise the characters are read off the common eigenvectors of the
    regular representation and snapped to exact roots of unity.
    """
    if not group.is_abelian():
        bad = np.argwhere(group.table != group.table.T)[0]
        raise NotAbelian(int(bad[0]), int(bad[1]))
    n = group.order

    gen = next((g for g in group.elements() if group.element_order(g) == n), None)
    if gen is not None:
        # discrete logs w.r.t. the generator
        dlog = np.empty(n, dtype=int)
        acc, k = group.identity, 0
        while True:
            dlog[acc] = k
            k += 1
            if k == n:
                break
            acc = group.mul(acc, gen)
        values = roots_of_unity(n)[np.outer(np.arange(n), dlog) % n]
    else:
        values = _abelian_characters_numeric(group, seed)

    irreps = [
        UnitaryIrrep(f"chi{j}", 1, values[j].reshape(n, 1, 1)) for j in range(n)
    ]
    dual = DualObject(group, irreps)
    validate_dual(dual)
    return dual


def _abelian_characters_numeric(group: FiniteGroup, seed: int) -> np.ndarray:
    n = group.order
    orders = np.array([group.element_order(g) for g in group.elements()])
    rng = np.random.default_rng(seed)
    for _ in range(16):
        coeff = rng.normal(size=n) + 1j * rng.normal(size=n)
        t = coeff[group.table[:, group.inverses]]  # sum_g coeff[g] R(g): entry (x, y) is coeff[x y^-1]
        t = t + t.conj().T
        _, vecs = np.linalg.eigh(t)
        rows = []
        ok = True
        for j in range(n):
            v = vecs[:, j]
            if abs(v[group.identity]) < 1e-8:
                ok = False
                break
            v = v / v[group.identity]
            # snap each value to a root of unity of the element's order
            ang = np.angle(v)
            ks = np.round(ang * orders / (2 * np.pi)).astype(int) % orders
            chi = np.array(
                [roots_of_unity(int(o))[int(k)] for o, k in zip(orders, ks)]
            )
            if np.max(np.abs(chi - v)) > 1e-6:
                ok = False
                break
            rows.append(chi)
        if not ok:
            continue
        rows = sorted(rows, key=lambda r: tuple(np.round(np.angle(r) % (2 * np.pi), 9)))
        values = np.array(rows)
        # homomorphism check; distinct rows guaranteed by validate_dual later
        if np.max(np.abs(values[:, group.table] - values[:, :, None] * values[:, None, :])) < 1e-9:
            return values
    raise NotIrreducible("could not separate the characters numerically")


# ---------------------------------------------------------------------------
# catalogs


def _dihedral_structure(group: FiniteGroup):
    """Find (r, s) with ord(r) = |G|/2, s^2 = e, s r s^-1 = r^-1, or None."""
    n2 = group.order
    if n2 % 2 or n2 < 6:
        return None
    n = n2 // 2
    for r in group.elements():
        if group.element_order(r) != n:
            continue
        rot = {group.identity}
        acc = r
        while acc != group.identity:
            rot.add(acc)
            acc = group.mul(acc, r)
        for s in group.elements():
            if s in rot or group.mul(s, s) != group.identity:
                continue
            if group.conjugate(s, r) == group.inv(r):
                return r, s, rot
    return None


def _dihedral_dual(group: FiniteGroup, r: int, s: int, rot: set) -> DualObject:
    n = group.order // 2
    # decompose every element as r^a s^b
    power = {group.identity: 0}
    acc = r
    for a in range(1, n):
        power[acc] = a
        acc = group.mul(acc, r)
    ab = {}
    for g in group.elements():
        if g in rot:
            ab[g] = (power[g], 0)
        else:
            ab[g] = (power[group.mul(g, s)], 1)  # g = r^a s  =>  g s = r^a
    irreps = []

    def one_dim(label, r_val, s_val):
        vals = np.array([r_val ** ab[g][0] * s_val ** ab[g][1] for g in group.elements()])
        irreps.append(UnitaryIrrep(label, 1, vals.reshape(-1, 1, 1).astype(complex)))

    one_dim("A1", 1.0, 1.0)
    one_dim("A2", 1.0, -1.0)
    if n % 2 == 0:
        one_dim("B1", -1.0, 1.0)
        one_dim("B2", -1.0, -1.0)
    roots = roots_of_unity(n)
    flip = np.array([[0.0, 1.0], [1.0, 0.0]], dtype=complex)
    for h in range(1, (n - 1) // 2 + 1):
        mats = np.empty((group.order, 2, 2), dtype=complex)
        for g in group.elements():
            a, b = ab[g]
            rm = np.diag([roots[(h * a) % n], roots[(-h * a) % n]])
            mats[g] = rm @ flip if b else rm
        irreps.append(UnitaryIrrep(f"E{h}", 2, mats))
    return DualObject(group, irreps)


def _product_dual(group: FiniteGroup, seed: int) -> DualObject:
    g1, g2 = group._factors
    d1, d2 = irreps(g1, seed=seed), irreps(g2, seed=seed)
    out = []
    for s1 in d1.irreps:
        for s2 in d2.irreps:
            # element a*|G2| + b gets kron(s1(a), s2(b)): axes (a, b, i, k, j, l) -> (g, i*d2 + k, j*d2 + l)
            d = s1.dim * s2.dim
            a = s1.matrices[:, None, :, None, :, None]
            b = s2.matrices[None, :, None, :, None, :]
            mats = (a * b).reshape(group.order, d, d)
            out.append(UnitaryIrrep(f"{s1.label}*{s2.label}", d, mats))
    return DualObject(group, out)


# ---------------------------------------------------------------------------
# symmetric groups: Young's orthogonal form on a Coxeter chain


def _symmetric_degree(order: int) -> int | None:
    """n with n! = order and n >= 4, or None."""
    n, f = 1, 1
    while f < order:
        n += 1
        f *= n
    return n if f == order and n >= 4 else None


def _breadth_first_words(group: FiniteGroup, gens: np.ndarray):
    """Layers (elements, parents, via) of the right Cayley graph from the identity.

    Every element g of a layer is parents[k] * gens[via[k]] with its parent in
    the layer before.  None when right multiplication by gens does not reach
    every element.
    """
    seen = np.zeros(group.order, dtype=bool)
    seen[group.identity] = True
    frontier = np.array([group.identity])
    layers = []
    while frontier.size:
        new, first = np.unique(group.table[np.ix_(frontier, gens)], return_index=True)
        fresh = ~seen[new]
        new, first = new[fresh], first[fresh]
        seen[new] = True
        layers.append((new, frontier[first // len(gens)], first % len(gens)))
        frontier = new
    return layers if seen.all() else None


def _coxeter_chain(group: FiniteGroup):
    """(chain, layers) for a Coxeter chain of S_n in the table, or None.

    Only a group of order n! (n >= 4) is searched.  Its involutions are tried
    in index order, by backtracking, for s_1, ..., s_{n-1} with
    (s_i s_{i+1})^3 = e and s_i s_j = s_j s_i for |i - j| > 1.  A chain is
    accepted only if right multiplication by it closes to all n! elements:
    the relations then make the group a quotient of S_n, and its order makes
    it S_n, so s_i is the image of the transposition (i, i+1) under an
    isomorphism.  layers are the breadth-first words of that closure.
    """
    n = _symmetric_degree(group.order)
    if n is None:
        return None
    t, e = group.table, group.identity
    elems = np.arange(group.order)
    inv = elems[(t[elems, elems] == e) & (elems != e)]
    prod = t[np.ix_(inv, inv)]
    braid = (t[prod, t[prod, prod]] == e) & (prod != e)  # (s t)^3 = e, s != t
    commute = prod == prod.T

    def extend(chain):
        if len(chain) == n - 1:
            layers = _breadth_first_words(group, inv[chain])
            return None if layers is None else (inv[chain], layers)
        ok = braid[chain[-1]].copy() if chain else np.ones(len(inv), dtype=bool)
        for j in chain[:-1]:
            ok &= commute[j]
        ok[chain] = False
        for k in np.flatnonzero(ok):
            found = extend(chain + [int(k)])
            if found is not None:
                return found
        return None

    return extend([])


def _partitions(n: int, largest: int | None = None):
    """The partitions of n, parts in decreasing order."""
    if n == 0:
        yield ()
        return
    largest = n if largest is None else largest
    for k in range(min(n, largest), 0, -1):
        for rest in _partitions(n - k, k):
            yield (k,) + rest


def _standard_tableaux(shape: tuple) -> list[tuple]:
    """The standard Young tableaux of a shape, each as the (row, column) cell of 1, ..., n."""
    n, out = sum(shape), []

    def fill(cells, lengths):
        if len(cells) == n:
            out.append(tuple(cells))
            return
        for r, c in enumerate(lengths):
            if c < shape[r] and (r == 0 or lengths[r - 1] > c):
                lengths[r] += 1
                fill(cells + [(r, c)], lengths)
                lengths[r] -= 1

    fill([], [0] * len(shape))
    return out


def _young_orthogonal_generators(shape: tuple) -> np.ndarray:
    """(n-1, d, d) real orthogonal matrices of (i, i+1), i = 1..n-1, in Young's orthogonal form.

    With the axial distance r = c(i+1) - c(i) of the contents c = column - row,
    s_i sends a tableau T to T / r + sqrt(1 - 1/r^2) s_i T; r = +1 (same row)
    and r = -1 (same column) give +T and -T (James & Kerber 1981, Sagan 2001).
    """
    tableaux = _standard_tableaux(shape)
    index = {tab: k for k, tab in enumerate(tableaux)}
    n, d = sum(shape), len(tableaux)
    s = np.zeros((n - 1, d, d))
    for k, tab in enumerate(tableaux):
        for i in range(n - 1):
            (r1, c1), (r2, c2) = tab[i], tab[i + 1]
            r = (c2 - r2) - (c1 - r1)
            s[i, k, k] = 1.0 / r
            if abs(r) > 1:
                s[i, index[tab[:i] + (tab[i + 1], tab[i]) + tab[i + 2:]], k] = np.sqrt(1.0 - 1.0 / r**2)
    return s


def _symmetric_dual(group: FiniteGroup, chain: np.ndarray, layers) -> DualObject:
    """One irrep per partition of n, sigma(g) = sigma(parent) sigma(s_via) one breadth-first layer at a time."""
    mats_list = []
    for shape in _partitions(len(chain) + 1):
        s = _young_orthogonal_generators(shape)
        mats = np.empty((group.order,) + s.shape[1:])
        mats[group.identity] = np.eye(s.shape[1])
        for elems, parents, via in layers:
            mats[elems] = mats[parents] @ s[via]
        mats_list.append(mats.astype(complex))
    return DualObject(group, _sorted_irreps(group, mats_list))


# ---------------------------------------------------------------------------
# numeric splitting


def _restrict(mats: np.ndarray, basis: np.ndarray) -> np.ndarray:
    """V* rho(g) V for every g; basis columns orthonormal."""
    return basis.conj().T @ mats @ basis


def _group_average(mats: np.ndarray, m: np.ndarray) -> np.ndarray:
    """(1/|G|) sum_g rho(g) M rho(g)* for a unitary rep given as a (|G|, dim, dim) stack."""
    return (mats @ m @ mats.conj().transpose(0, 2, 1)).mean(axis=0)


def _split_invariant_subspaces(mats: np.ndarray, rng, depth: int = 0) -> list[np.ndarray]:
    """Orthonormal bases of irreducible invariant subspaces of a unitary rep.

    Splits along the eigenspaces of a random Hermitian commutant element,
    polishes each cluster by averaging its projector over the group, and
    recurses until every piece has character norm one.
    """
    n, dim = mats.shape[0], mats.shape[1]
    chi = np.einsum("gii->g", mats)
    if abs(np.vdot(chi, chi).real / n - 1.0) < 1e-8:
        return [np.eye(dim, dtype=complex)]
    if depth > 8:
        raise NotIrreducible("invariant-subspace recursion did not terminate")

    for _ in range(8):
        b = rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim))
        b = b + b.conj().T
        t = _group_average(mats, b)
        vals, vecs = np.linalg.eigh(t)
        scale = max(1.0, float(np.max(np.abs(vals))))
        clusters, start = [], 0
        for i in range(1, dim + 1):
            if i == dim or vals[i] - vals[i - 1] > 1e-6 * scale:
                clusters.append(vecs[:, start:i])
                start = i
        if len(clusters) == 1:
            continue  # degenerate draw, try fresh randomness
        bases = []
        ok = True
        for v in clusters:
            w, u = np.linalg.eigh(_group_average(mats, v @ v.conj().T))
            d = v.shape[1]
            v_pol = u[:, -d:]
            if w[-d] < 0.99 or (dim > d and w[-d - 1] > 0.01):
                ok = False
                break
            sub = _restrict(mats, v_pol)
            # invariance residual of the polished subspace
            resid = np.max(np.abs(mats @ v_pol - v_pol @ sub))
            if resid > 1e-8:
                ok = False
                break
            for basis in _split_invariant_subspaces(sub, rng, depth + 1):
                bases.append(v_pol @ basis)
        if ok:
            return bases
    raise NotIrreducible("random commutant splitting failed to isolate subspaces")


def _dedupe_by_character(group: FiniteGroup, candidates: list[np.ndarray]) -> list[np.ndarray]:
    kept, chars = [], []
    for mats in candidates:
        chi = np.einsum("gii->g", mats)
        if any(abs(np.vdot(c, chi) / group.order) > 0.5 for c in chars):
            continue
        kept.append(mats)
        chars.append(chi)
    return kept


def _sorted_irreps(group: FiniteGroup, mats_list: list[np.ndarray]) -> list[UnitaryIrrep]:
    def key(mats):
        chi = np.einsum("gii->g", mats)
        return (mats.shape[1], tuple(np.round(chi.real, 6)), tuple(np.round(chi.imag, 6)))

    out = []
    for i, mats in enumerate(sorted(mats_list, key=key)):
        out.append(UnitaryIrrep(f"sigma{i}", mats.shape[1], mats))
    return out


def _regular_average(group: FiniteGroup, m: np.ndarray) -> np.ndarray:
    """(1/|G|) sum_g R(g) M R(g)* as one gather along the table, O(|G|^2).

    The average commutes with every R(g), so its entry (x, y) depends only
    on h = x^-1 y, where it is c[h] = mean_z M[z, z h].
    """
    c = m[np.arange(group.order)[:, None], group.table].mean(axis=0)
    return c[_regular_perms(group)]


def _regular_splitting_dual(group: FiniteGroup, seed: int) -> DualObject:
    """Split the regular representation; each irrep occurs (d times) in it.

    R(g) permutes the delta basis via x -> g x, so V* R(g) V reduces to an
    index shuffle with perms[g][x] = g^-1 x, and the group average of a
    matrix is a convolution over the table (``_regular_average``): O(|G|^2)
    per average, for the commutant element and for each cluster projector.
    """
    n = group.order
    perms = _regular_perms(group)
    rng = np.random.default_rng(seed)
    for _ in range(8):
        b = rng.normal(size=(n, n)) + 1j * rng.normal(size=(n, n))
        b = b + b.conj().T
        vals, vecs = np.linalg.eigh(_regular_average(group, b))
        scale = max(1.0, float(np.max(np.abs(vals))))
        clusters, start = [], 0
        for i in range(1, n + 1):
            if i == n or vals[i] - vals[i - 1] > 1e-6 * scale:
                clusters.append(vecs[:, start:i])
                start = i
        try:
            candidates = []
            for v in clusters:
                w, u = np.linalg.eigh(_regular_average(group, v @ v.conj().T))
                d = v.shape[1]
                if w[-d] < 0.99 or (n > d and w[-d - 1] > 0.01):
                    raise NotIrreducible("eigenvalue cluster is not an invariant subspace")
                v_pol = u[:, -d:]
                # sigma(g) = V* R(g) V with (R(g) V)[i] = V[g^-1 i]
                sub = v_pol.conj().T @ v_pol[perms]
                for basis in _split_invariant_subspaces(sub, rng):
                    w_basis = v_pol @ basis
                    candidates.append(w_basis.conj().T @ w_basis[perms])
            kept = _dedupe_by_character(group, candidates)
            dual = DualObject(group, _sorted_irreps(group, kept))
            validate_dual(dual)
            return dual
        except (NotIrreducible, IncompleteDual):
            continue
    raise IncompleteDual(-1, group.order)


# ---------------------------------------------------------------------------
# Mackey route: induce characters of a normal abelian subgroup


def induced_from_character(
    group: FiniteGroup, sub_elems: list[int], chi: np.ndarray, to_sub: dict
) -> np.ndarray:
    """Matrices of ind_A^G(chi) on the left cosets of A, monomial and unitary."""
    cosets = left_cosets(group, sub_elems)
    reps = [c[0] for c in cosets]
    member = {g: i for i, c in enumerate(cosets) for g in c}
    m = len(reps)
    mats = np.zeros((group.order, m, m), dtype=complex)
    for g in group.elements():
        for j, tj in enumerate(reps):
            gtj = group.mul(g, tj)
            i = member[gtj]
            a = group.mul(group.inv(reps[i]), gtj)  # t_i^-1 g t_j in A
            mats[g, i, j] = chi[to_sub[a]]
    return mats


def irreps_by_induction(group: FiniteGroup, normal_abelian, seed: int = 0) -> DualObject:
    """All irreps via induction from a normal abelian subgroup.

    Every irrep restricts to the subgroup nontrivially, so it occurs in some
    induced character representation; the induced representations are split
    numerically and deduplicated.
    """
    sub_elems = check_subgroup(group, normal_abelian)
    sub, to_sub = subgroup_as_group(group, sub_elems)
    sub_dual = dual_abelian(sub, seed=seed)
    rng = np.random.default_rng(seed)
    candidates = []
    for char in sub_dual.irreps:
        chi = char.matrices[:, 0, 0]
        mats = induced_from_character(group, sub_elems, chi, to_sub)
        for basis in _split_invariant_subspaces(mats, rng):
            candidates.append(_restrict(mats, basis))
    kept = _dedupe_by_character(group, candidates)
    dual = DualObject(group, _sorted_irreps(group, kept))
    validate_dual(dual)
    return dual


# ---------------------------------------------------------------------------
# front door


def irreps(group: FiniteGroup, normal_abelian=None, seed: int = 0) -> DualObject:
    """A complete validated DualObject for a modest finite group.

    Route selection: a supplied normal abelian subgroup triggers the
    induction route; otherwise abelian, dihedral and direct-product
    structure is detected, then a group of order n! (n >= 4) with a Coxeter
    chain of S_n in its table gets Young's orthogonal form, and the regular
    representation is split numerically as the fallback.
    """
    if normal_abelian is not None:
        return irreps_by_induction(group, normal_abelian, seed=seed)
    if group.is_abelian():
        return dual_abelian(group, seed=seed)
    found = _dihedral_structure(group)
    if found is not None:
        dual = _dihedral_dual(group, *found)
        validate_dual(dual)
        return dual
    if group._factors is not None:
        dual = _product_dual(group, seed)
        validate_dual(dual)
        return dual
    found = _coxeter_chain(group)
    if found is not None:
        dual = _symmetric_dual(group, *found)
        validate_dual(dual)
        return dual
    return _regular_splitting_dual(group, seed)
