import numpy as np
import pytest

from oracles import homomorphism_holds_at, homomorphism_loop, orbits_loop
from sample_actions import oracle_actions
from zakspace.actions import make_action, orbits, stabilizer, translation_action, transporter
from zakspace.errors import EmptySet, NonpositiveWeight, NotHomomorphism
from zakspace.fixtures import (
    c6_ring_with_center,
    d3_flags,
    d3_triangle,
    s3_translation,
    z2_fixed_point,
    z2_swap,
    z4_rotation,
)
from zakspace.groups import cyclic_group, symmetric_group


def test_swap_action_valid():
    action = z2_swap()
    assert action.npoints == 2
    assert action.apply(1, 0) == 1


def test_z4_rotation_powers():
    action = z4_rotation()
    assert action.apply(1, 3) == 0
    assert action.apply(3, 0) == 3


def test_not_homomorphism():
    g = cyclic_group(2)
    # perm(1) = identity but perm(1*1) comes out as the swap
    with pytest.raises(NotHomomorphism):
        make_action(g, [[1, 0], [0, 1]])


def test_nonpositive_weight():
    with pytest.raises(NonpositiveWeight):
        make_action(cyclic_group(2), [[0, 1], [1, 0]], weights=[1.0, 0.0])


def test_infinite_weight_rejected():
    with pytest.raises(NonpositiveWeight) as err:
        make_action(cyclic_group(2), [[0, 1], [1, 0]], weights=[1.0, np.inf])
    assert err.value.point == 1


def test_transporter_swap():
    action = z2_swap()
    assert transporter(action, [0], [1]) == [1]
    assert transporter(action, [0], [0]) == [0]  # the stabilizer
    with pytest.raises(EmptySet):
        transporter(action, [], [0])


def test_transporter_s3_full():
    action = s3_translation()
    e = action.group.identity
    assert transporter(action, [e], list(range(6))) == list(range(6))


def test_transporter_symmetry():
    action = d3_triangle()
    A, B = [0], [1, 2]
    fwd = set(transporter(action, A, B))
    bwd = set(transporter(action, B, A))
    assert fwd == {action.group.inv(g) for g in bwd}


def test_stabilizers():
    action = z2_fixed_point()
    assert stabilizer(action, 0) == [0]
    assert stabilizer(action, 2) == [0, 1]
    tri = d3_triangle()
    assert len(stabilizer(tri, 0)) == 2


def test_orbits_fixed_point():
    dec = orbits(z2_fixed_point())
    assert dec.representatives == [0, 2]
    assert dec.members == [[0, 1], [2]]
    assert dec.stabilizer_sizes == [1, 2]


def test_orbits_translation_single():
    dec = orbits(s3_translation())
    assert dec.norbits == 1
    assert dec.representatives == [0]


def test_orbits_flags_free():
    dec = orbits(d3_flags())
    assert dec.norbits == 1
    assert len(dec.members[0]) == 6
    assert dec.stabilizer_sizes == [1]


def test_to_rep_element_carries_points_home():
    action = c6_ring_with_center()
    dec = orbits(action)
    for x in range(action.npoints):
        g = int(dec.to_rep_element[x])
        assert action.apply(g, x) == dec.rep_of(x)


# ---------------------------------------------------------------------------
# read-only arrays and the vectorized checks against the loops in oracles.py


def test_action_arrays_are_read_only_copies():
    perm = np.array([[0, 1], [1, 0]])
    weights = np.array([1.0, 2.0])
    action = make_action(cyclic_group(2), perm, weights)
    with pytest.raises(ValueError):
        action.perm[0, 0] = 1
    with pytest.raises(ValueError):
        action.weights[0] = 5.0
    perm[1, 0], weights[0] = 0, 5.0  # the caller's arrays stay the caller's
    assert action.perm[1, 0] == 1 and action.weights[0] == 1.0


@pytest.mark.parametrize("perm", [[[0, 1], [1, 0.5]], [[0, 1.0], [1, 2.5]], [[0, 1], [1, "0"]]])
def test_non_integer_perm_entry_rejected(perm):
    with pytest.raises(ValueError):
        make_action(cyclic_group(2), perm)


def test_translation_action_copies_the_read_only_group_table():
    group = symmetric_group(3)
    action = translation_action(group)
    assert not group.table.flags.writeable and not action.perm.flags.writeable
    assert not np.shares_memory(group.table, action.perm)


def test_orbits_match_scan_loop():
    for name, action in oracle_actions().items():
        got, want = orbits(action), orbits_loop(action)
        assert np.array_equal(got.orbit_id, want.orbit_id), name
        assert got.representatives == want.representatives, name
        assert got.members == want.members, name
        assert np.array_equal(got.to_rep_element, want.to_rep_element), name
        assert got.stabilizer_sizes == want.stabilizer_sizes, name


def _failing_pair(fn, *args):
    try:
        fn(*args)
    except NotHomomorphism as err:
        return err.pair
    return None


def test_homomorphism_check_fails_at_the_loops_pair():
    """Two rows swapped.  Where that breaks the homomorphism (a swap that is an
    automorphism does not), the loop and the generator check both raise, and
    the pair the check names is one the loop's test fails at."""
    raised = 0
    for name, action in oracle_actions().items():
        group, n = action.group, action.group.order
        for g1, g2 in ((1, 2), (2, n - 1), (n - 2, n - 1), (n // 2, n // 2 + 1), (0, 1)):
            if len({g1, g2}) < 2 or max(g1, g2) >= n:
                continue
            perm = action.perm.copy()
            perm[[g1, g2]] = perm[[g2, g1]]  # swap two rows
            want = _failing_pair(homomorphism_loop, group, perm)
            got = _failing_pair(make_action, group, perm, action.weights)
            assert (got is None) == (want is None), (name, g1, g2)
            if got is not None:
                assert not homomorphism_holds_at(group, perm, *got), (name, g1, g2, got)
                raised += 1
    assert raised >= 20


def test_homomorphism_check_names_a_generator():
    group = cyclic_group(6)  # generated by 1
    perm = np.array([[(x + g) % 6 for x in range(6)] for g in range(6)])
    perm[[2, 4]] = perm[[4, 2]]  # 2 and 4 are not generators, so the failing pair starts with 1
    with pytest.raises(NotHomomorphism) as err:
        make_action(group, perm)
    assert list(group.generators) == [1]
    assert err.value.pair[0] == 1 and not homomorphism_holds_at(group, perm, *err.value.pair)


def test_non_permutation_row_reported_first():
    perm = [[0, 1, 2], [1, 1, 0], [2, 0, 0]]
    with pytest.raises(ValueError, match="row 1 is not a permutation"):
        make_action(cyclic_group(3), perm)
