import numpy as np
import pytest

from zakspace.actions import make_action, orbits, stabilizer, transporter
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
from zakspace.groups import cyclic_group


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
