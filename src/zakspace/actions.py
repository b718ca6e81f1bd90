"""Weighted permutation actions of finite groups and their orbit structure.

An action stores one permutation of the point set per group element
(perm[g][x] = image of x under g) plus a strictly positive weight per
point playing the role of the measure on the space.  Both arrays are
read-only copies, because the Weil structure built from them is kept on
the action.  The orbit decomposition fixes the canonical fundamental
domain: the smallest point index of each orbit.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .errors import EmptySet, NonpositiveWeight, NotHomomorphism, SizeMismatch
from .groups import FiniteGroup, _integer_array, _read_only_copy


class GroupAction:
    """Validated action of a FiniteGroup on weighted points 0..npoints-1.

    perm and weights are read-only copies of the arrays passed in, so the
    Weil structure that weil.weil_structure keeps in `weil` cannot go stale.
    """

    def __init__(self, group: FiniteGroup, perm, weights):
        self.group = group
        self.perm = _read_only_copy(perm, int)
        self.weights = _read_only_copy(weights, float)
        self.npoints = int(self.perm.shape[1])
        self.weil = None  # the WeilStructure, built on first use by weil.weil_structure

    def apply(self, g: int, x: int) -> int:
        return int(self.perm[g, x])

    def apply_inv(self, g: int, x: int) -> int:
        return int(self.perm[self.group.inv(g), x])

    def pullback(self, g: int, f: np.ndarray) -> np.ndarray:
        """The function x -> f(g^-1 x), the linear action on functions."""
        return np.asarray(f)[self.perm[self.group.inv(g)]]

    def permutation_matrix(self, g: int) -> np.ndarray:
        """Matrix of pullback(g, .): row x picks out f at g^-1 x."""
        return np.eye(self.npoints)[self.perm[self.group.inv(g)]]

    def __repr__(self):
        return f"<GroupAction of {self.group!r} on {self.npoints} points>"


def make_action(group: FiniteGroup, perm, weights=None) -> GroupAction:
    """Validate permutations (homomorphism check on generator rows) and weights.

    perm is a homomorphism when the identity row is the identity and
    perm(s h) = perm(s) o perm(h) for every generator s and every h: the
    elements g passing the second test for all h are closed under products,
    and products of generators are all of G (the generator-closure argument,
    Holt, Eick & O'Brien, Handbook of Computational Group Theory, 2005).
    The check is exact, O(|S| |G| m); a failing (s, h) names a generator s
    and is the first failing h of the first failing generator.
    """
    perm = _integer_array(perm, "perm")
    if perm.ndim != 2 or perm.shape[0] != group.order:
        raise SizeMismatch(f"perm must have one row per group element, got {perm.shape}")
    m = perm.shape[1]
    if m == 0:
        raise SizeMismatch("empty point set")
    if perm.min() < 0 or perm.max() >= m:
        raise ValueError("permutation entries out of range")
    not_perm = np.flatnonzero((np.sort(perm, axis=1) != np.arange(m)).any(axis=1))
    if not_perm.size:
        raise ValueError(f"row {not_perm[0]} is not a permutation")

    if weights is None:
        weights = np.ones(m)
    weights = np.asarray(weights, dtype=float)
    if weights.shape != (m,):
        raise SizeMismatch(f"weights must have shape ({m},), got {weights.shape}")
    bad = np.flatnonzero(~(np.isfinite(weights) & (weights > 0)))
    if bad.size:
        raise NonpositiveWeight(int(bad[0]), weights[bad[0]])

    if not np.array_equal(perm[group.identity], np.arange(m)):
        raise NotHomomorphism(group.identity, group.identity)
    for s in group.generators.tolist():
        bad = np.flatnonzero((perm[group.table[s]] != perm[s][perm]).any(axis=1))
        if bad.size:
            raise NotHomomorphism(s, int(bad[0]))
    return GroupAction(group, perm, weights)


def translation_action(group: FiniteGroup) -> GroupAction:
    """The group acting on itself by left translation, unit weights."""
    perm = group.table  # perm[g][x] = g*x
    return make_action(group, perm)


def transporter(action: GroupAction, A, B) -> list[int]:
    """All g with g(A) meeting B; the stabilizer when A = B = {x}."""
    A = sorted(set(int(x) for x in A))
    B = set(int(x) for x in B)
    if not A or not B:
        raise EmptySet("transporter needs nonempty point sets")
    for x in list(A) + sorted(B):
        if not 0 <= x < action.npoints:
            raise ValueError(f"point {x} out of range")
    return [
        g for g in action.group.elements() if any(action.apply(g, x) in B for x in A)
    ]


def stabilizer(action: GroupAction, x: int) -> list[int]:
    if not 0 <= x < action.npoints:
        raise ValueError(f"point {x} out of range")
    return [g for g in action.group.elements() if action.apply(g, x) == x]


@dataclass
class OrbitDecomposition:
    """Orbit labels, canonical representatives, and (optionally) the measures.

    representatives[i] is the smallest point of orbit i; orbits are ordered
    by representative.  to_rep_element[x] is some g with g(x) = rep(x), the
    finite stand-in for the stabilizer-coset lookup used by inversion
    formulas.  orbit_measure / fd_measure stay None until weil_measures
    fills them.
    """

    orbit_id: np.ndarray
    representatives: list[int]
    members: list[list[int]]
    to_rep_element: np.ndarray
    stabilizer_sizes: list[int]
    orbit_measure: np.ndarray | None = None
    fd_measure: dict = field(default_factory=dict)

    def rep_of(self, x: int) -> int:
        return self.representatives[self.orbit_id[x]]

    @property
    def norbits(self) -> int:
        return len(self.representatives)


def orbits(action: GroupAction) -> OrbitDecomposition:
    """Orbit decomposition with canonical fundamental domain (no measures)."""
    perm = action.perm
    rep_of = perm.min(axis=0)  # the orbit of x is perm[:, x], so this is its smallest point
    reps, orbit_of, sizes = np.unique(rep_of, return_inverse=True, return_counts=True)
    by_orbit = np.argsort(orbit_of, kind="stable")
    members = [pts.tolist() for pts in np.split(by_orbit, np.cumsum(sizes)[:-1])]
    to_rep = np.argmax(perm == rep_of, axis=0)  # smallest g sending x to its representative
    stab_sizes = (perm[:, reps] == reps).sum(axis=0)
    return OrbitDecomposition(orbit_of, reps.tolist(), members, to_rep, stab_sizes.tolist())
