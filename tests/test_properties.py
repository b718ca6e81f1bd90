"""Property tests of the batched layers against the loops in oracles.py."""

import numpy as np
import pytest

hypothesis = pytest.importorskip("hypothesis")
from hypothesis import given, settings, strategies as st  # noqa: E402

from oracles import (  # noqa: E402
    bands_loop,
    point_permutation_loop,
    stabilizer_tables_loop,
    zak_inverse_loop,
    zak_loop,
)
from sample_actions import regular_and_cosets  # noqa: E402
from zakspace.bloch import band_structure  # noqa: E402
from zakspace.duals import irreps  # noqa: E402
from zakspace.errors import SampleSetNotClosed  # noqa: E402
from zakspace.euclid import IsometryElement, IsometryGroupSpec, act, generate, rotation_z  # noqa: E402
from zakspace.fixtures import random_complex  # noqa: E402
from zakspace.actions import make_action  # noqa: E402
from zakspace.groups import cyclic_group, dihedral_group, make_group, symmetric_group  # noqa: E402
from zakspace.radiation import _point_permutation  # noqa: E402
from zakspace.weil import weil_structure  # noqa: E402
from zakspace.zak import verify_roundtrip, zak, zak_inverse  # noqa: E402

finite = st.floats(min_value=-5.0, max_value=5.0, allow_nan=False)


@settings(max_examples=60, deadline=None, derandomize=True)
@given(t=finite, m=st.integers(1, 5), n=st.integers(1, 64), data=st.data())
def test_batched_bands_match_block_loop(t, m, n, data):
    onsite = np.array(data.draw(st.lists(finite, min_size=m, max_size=m)))
    bands = band_structure(t, m, n, onsite).bands
    assert np.max(np.abs(bands - bands_loop(t, m, n, onsite))) <= 1e-12


def orbit(order: int, dihedral: bool, seeds: np.ndarray):
    gens = [IsometryElement(rotation_z(2.0 * np.pi / order), [0.0, 0.0, 0.0])]
    if dihedral:
        gens.append(IsometryElement(np.diag([1.0, -1.0, -1.0]), [0.0, 0.0, 0.0]))
    elements = generate(IsometryGroupSpec(3, gens)).elements
    return elements, np.array([act(e, s) for s in seeds for e in elements])


seed_points = st.lists(
    st.tuples(st.floats(0.5, 3.0), st.floats(0.0, 2.0 * np.pi), st.floats(0.2, 2.0)),
    min_size=1,
    max_size=3,
).map(lambda rows: np.array([[r * np.cos(a), r * np.sin(a), z] for r, a, z in rows]))


@settings(max_examples=40, deadline=None, derandomize=True)
@given(order=st.integers(2, 8), dihedral=st.booleans(), seeds=seed_points)
def test_point_permutation_matches_loop(order, dihedral, seeds):
    elements, points = orbit(order, dihedral, seeds)
    for g in elements:
        assert np.array_equal(_point_permutation(points, g), point_permutation_loop(points, g))


@settings(max_examples=40, deadline=None, derandomize=True)
@given(
    order=st.integers(2, 8),
    dihedral=st.booleans(),
    seeds=seed_points,
    which=st.integers(0, 10**6),
    shift=st.tuples(st.floats(1e-6, 1e-2), st.floats(1e-6, 1e-2), st.floats(1e-6, 1e-2)),
)
def test_perturbed_point_set_not_closed_on_both_paths(order, dihedral, seeds, which, shift):
    elements, points = orbit(order, dihedral, seeds)
    points[which % len(points)] += np.array(shift)
    for g in elements[1:]:
        with pytest.raises(SampleSetNotClosed) as got:
            _point_permutation(points, g)
        with pytest.raises(SampleSetNotClosed) as expected:
            point_permutation_loop(points, g)
        assert np.array_equal(got.value.point, expected.value.point)


# ---------------------------------------------------------------------------
# the batched finite Zak transforms against the per-block loops


@st.composite
def relabelled_actions(draw):
    """A relabelled cyclic, dihedral, S3 or S4 table acting on itself and on the cosets of <h>."""
    kind = draw(st.sampled_from(["cyclic", "dihedral", "S3", "S4"]))
    if kind == "cyclic":
        base = cyclic_group(draw(st.integers(1, 12))).table
    elif kind == "dihedral":
        base = dihedral_group(draw(st.integers(2, 6))).table
    else:
        base = symmetric_group(3 if kind == "S3" else 4).table
    n = len(base)
    relabel = np.array(draw(st.permutations(range(n))))
    inv = np.argsort(relabel)
    group = make_group(relabel[base[np.ix_(inv, inv)]])  # element g is renamed relabel[g]
    unweighted = regular_and_cosets(group, draw(st.integers(0, n - 1)))
    m = unweighted.npoints
    weights = draw(st.lists(st.floats(0.1, 10.0), min_size=m, max_size=m))
    return make_action(group, unweighted.perm, weights), draw(st.integers(0, 2**32 - 1))


@settings(max_examples=40, deadline=None, derandomize=True)
@given(drawn=relabelled_actions())
def test_batched_zak_matches_loops_on_relabelled_groups(drawn):
    action, seed = drawn
    dual = irreps(action.group)
    f = random_complex(np.random.default_rng(seed), action.npoints)
    reps = weil_structure(action).decomp.representatives
    coeffs = zak(action, f, dual)
    blocks = zak_loop(action, f, dual, reps)
    for key, block in blocks.items():
        assert np.max(np.abs(coeffs[key] - block)) <= 1e-12
    _, members = stabilizer_tables_loop(action, dual, reps)
    assert coeffs.stab_members == members
    want = zak_inverse_loop(action, dual, weil_structure(action).decomp, blocks, members)
    assert np.max(np.abs(zak_inverse(coeffs) - want)) <= 1e-12
    assert verify_roundtrip(action, f, dual).residual < 1e-11
