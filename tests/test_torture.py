"""Stress tests beyond the bundled fixtures: scrambled tables, random
weights, and higher-dimensional irreps through the numeric splitter."""

import numpy as np
import pytest

from zakspace.actions import make_action, translation_action
from zakspace.duals import _regular_splitting_dual, irreps, validate_dual
from zakspace.fixtures import d3_triangle, random_complex
from zakspace.fourier import plancherel_residual
from zakspace.groups import (
    FiniteGroup,
    cyclic_group,
    dihedral_group,
    make_group,
    symmetric_group,
)
from zakspace.weil import mackey_bruhat_residual, weil_residual
from zakspace.zak import verify_roundtrip, verify_unitarity, zak


def relabel(group: FiniteGroup, seed: int) -> FiniteGroup:
    """Isomorphic copy with scrambled element indices."""
    rng = np.random.default_rng(seed)
    perm = rng.permutation(group.order)        # old -> new
    inv = np.argsort(perm)                     # new -> old
    table = np.empty_like(group.table)
    for a in range(group.order):
        for b in range(group.order):
            table[a, b] = perm[group.mul(int(inv[a]), int(inv[b]))]
    return make_group(table)


@pytest.mark.parametrize("make,dims", [
    (lambda: cyclic_group(6), [1] * 6),
    (lambda: dihedral_group(4), [1, 1, 1, 1, 2]),
    (lambda: symmetric_group(3), [1, 1, 2]),
])
def test_relabeled_groups_detected(make, dims):
    for seed in range(3):
        g = relabel(make(), seed)
        dual = irreps(g)
        assert sorted(s.dim for s in dual.irreps) == dims
        validate_dual(dual)


def test_s4_regular_splitting_and_zak():
    g = symmetric_group(4)
    dual = _regular_splitting_dual(g, seed=0)  # the numeric splitter: 3-dimensional irreps
    assert sorted(s.dim for s in dual.irreps) == [1, 1, 2, 3, 3]
    validate_dual(dual)
    rng = np.random.default_rng(1)
    for _ in range(10):
        assert plancherel_residual(random_complex(rng, 24), dual) < 1e-10
    action = translation_action(g)
    f = random_complex(rng, 24)
    assert verify_roundtrip(action, f, dual).passed
    assert verify_unitarity(zak(action, f, dual), f).passed


def test_random_weights_full_pipeline():
    # any positive weights are quasi-invariant; all identities must survive
    rng = np.random.default_rng(2)
    base = d3_triangle()
    dual = irreps(base.group)
    for trial in range(5):
        w = rng.uniform(0.2, 3.0, size=base.npoints)
        action = make_action(base.group, base.perm, weights=w)
        for _ in range(10):
            f = random_complex(rng, action.npoints)
            assert weil_residual(action, f) < 1e-12
            assert mackey_bruhat_residual(action, f) < 1e-12
            assert verify_roundtrip(action, f, dual).passed
            assert verify_unitarity(zak(action, f, dual), f).passed


def test_seed_stability_of_fallback():
    # different seeds give equivalent duals: same sorted character multiset
    g = symmetric_group(4)
    chars0 = sorted(
        tuple(np.round(s.character(), 8)) for s in _regular_splitting_dual(g, 0).irreps
    )
    for seed in (1, 2, 3):
        chars = sorted(
            tuple(np.round(s.character(), 8))
            for s in _regular_splitting_dual(g, seed).irreps
        )
        assert chars == chars0


def test_s5_at_scale():
    g = symmetric_group(5)
    dual = _regular_splitting_dual(g, seed=0)
    assert sorted(s.dim for s in dual.irreps) == [1, 1, 4, 4, 5, 5, 6]
    validate_dual(dual)


def test_trivial_and_tiny_groups():
    for g in (make_group([[0]]), cyclic_group(1), dihedral_group(1)):
        dual = irreps(g)
        assert sum(s.dim**2 for s in dual.irreps) == g.order
        validate_dual(dual)


def test_trivial_group_action_zak():
    g = cyclic_group(1)
    action = make_action(g, [[0, 1, 2]])
    dual = irreps(g)
    rng = np.random.default_rng(3)
    f = random_complex(rng, 3)
    assert verify_roundtrip(action, f, dual).passed
    assert verify_unitarity(zak(action, f, dual), f).passed


def test_single_period_and_single_site_bands():
    from zakspace.bloch import band_structure, band_union_residual

    assert band_union_residual(band_structure(t=0.7, m=3, n=1, onsite=[0.1, -0.2, 0.4])) < 1e-10
    assert band_union_residual(band_structure(t=1.0, m=1, n=2, onsite=[0.0])) < 1e-10
