"""Weighted permutation actions of finite groups and their orbit structure.

An action stores one permutation of the point set per group element
(perm[g][x] = image of x under g) plus a strictly positive weight per
point playing the role of the measure on the space.  The orbit
decomposition fixes the canonical fundamental domain: the smallest point
index of each orbit.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .errors import EmptySet, NonpositiveWeight, NotHomomorphism, SizeMismatch
from .groups import FiniteGroup


class GroupAction:
    """Validated action of a FiniteGroup on weighted points 0..npoints-1."""

    def __init__(self, group: FiniteGroup, perm, weights):
        self.group = group
        self.perm = np.asarray(perm, dtype=int)
        self.weights = np.asarray(weights, dtype=float)
        self.npoints = int(self.perm.shape[1])

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
    """Validate permutations (exhaustive homomorphism check) and weights."""
    perm = np.asarray(perm, dtype=int)
    if perm.ndim != 2 or perm.shape[0] != group.order:
        raise SizeMismatch(f"perm must have one row per group element, got {perm.shape}")
    m = perm.shape[1]
    if m == 0:
        raise SizeMismatch("empty point set")
    if perm.min() < 0 or perm.max() >= m:
        raise ValueError("permutation entries out of range")
    for g in group.elements():
        if len(set(perm[g].tolist())) != m:
            raise ValueError(f"row {g} is not a permutation")

    if weights is None:
        weights = np.ones(m)
    weights = np.asarray(weights, dtype=float)
    if weights.shape != (m,):
        raise SizeMismatch(f"weights must have shape ({m},), got {weights.shape}")
    bad = np.flatnonzero(~(np.isfinite(weights) & (weights > 0)))
    if bad.size:
        raise NonpositiveWeight(int(bad[0]), weights[bad[0]])

    ident = np.arange(m)
    if not np.array_equal(perm[group.identity], ident):
        raise NotHomomorphism(group.identity, group.identity)
    for g in group.elements():
        pg = perm[g]
        for h in group.elements():
            if not np.array_equal(perm[group.mul(g, h)], pg[perm[h]]):
                raise NotHomomorphism(g, h)

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
    m = action.npoints
    orbit_of = np.full(m, -1, dtype=int)
    reps, members, to_rep, stab_sizes = [], [], np.zeros(m, dtype=int), []
    for x in range(m):
        if orbit_of[x] >= 0:
            continue
        images = action.perm[:, x]  # orbit of x with group-element labels
        orbit_pts = sorted(set(images.tolist()))
        rep = orbit_pts[0]  # == x: points scanned in increasing order
        oid = len(reps)
        reps.append(rep)
        members.append(orbit_pts)
        for y in orbit_pts:
            orbit_of[y] = oid
            # smallest g sending y to the representative
            gs = np.where(action.perm[:, y] == rep)[0]
            to_rep[y] = gs[0]
        stab_sizes.append(int(np.sum(images == rep)))
    return OrbitDecomposition(orbit_of, reps, members, to_rep, stab_sizes)
