"""Weighted actions for the oracle tests, beyond the bundled ones in zakspace.fixtures."""

from __future__ import annotations

import numpy as np

from zakspace.actions import GroupAction, make_action
from zakspace.fixtures import BUNDLED_ACTIONS
from zakspace.groups import FiniteGroup, cyclic_group, dihedral_group, generated_subgroup


def cell_orbits(n: int = 64, seed: int = 0) -> GroupAction:
    """C_n on 4n + n/2 relabelled, weighted points: four free orbits and one with stabilizers of order 2."""
    rng = np.random.default_rng(seed)
    cols, offset = [], 0
    for size in (n, n, n, n, n // 2):
        cols.append(offset + (np.arange(n)[:, None] + np.arange(size)[None, :]) % size)
        offset += size
    perm = np.concatenate(cols, axis=1)
    relabel = rng.permutation(offset)  # point x is renamed relabel[x]
    perm = relabel[perm][:, np.argsort(relabel)]
    return make_action(cyclic_group(n), perm, rng.uniform(0.5, 2.0, size=offset))


def regular_and_cosets(group: FiniteGroup, h: int, weights=None) -> GroupAction:
    """The group on itself by left translation and on the left cosets of <h>, side by side."""
    sub = generated_subgroup(group, [h])
    label = group.table[:, sub].min(axis=1)  # the coset x<h> is named by its smallest element
    cosets = np.unique(label)
    on_cosets = np.searchsorted(cosets, label[group.table[:, cosets]])
    perm = np.concatenate([group.table, group.order + on_cosets], axis=1)
    return make_action(group, perm, weights)


def d5_with_vertices(seed: int = 0) -> GroupAction:
    """D5 on itself and on the five cosets of a reflection: 2-dimensional irreps, stabilizers of order 2."""
    group = dihedral_group(5)
    rng = np.random.default_rng(seed)
    return regular_and_cosets(group, 5, rng.uniform(0.5, 2.0, size=group.order + 5))


def oracle_actions() -> dict[str, GroupAction]:
    actions = {name: make() for name, make in BUNDLED_ACTIONS.items()}
    actions["c64_cells"] = cell_orbits()
    actions["d5_vertices"] = d5_with_vertices()
    return actions
