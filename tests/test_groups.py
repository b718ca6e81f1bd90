import itertools

import numpy as np
import pytest

from zakspace.errors import NoInverse, NotAssociative, NotSubgroup
from zakspace.groups import (
    check_subgroup,
    cyclic_group,
    dihedral_group,
    direct_product,
    generated_subgroup,
    is_normal,
    left_cosets,
    make_group,
    permutation_table,
    symmetric_group,
)


def test_z2_table():
    g = make_group([[0, 1], [1, 0]])
    assert g.order == 2
    assert g.identity == 0
    assert g.inv(1) == 1


def test_s3_from_permutations():
    g = symmetric_group(3)
    assert g.order == 6
    assert len(g.conjugacy_classes()) == 3
    assert not g.is_abelian()


def test_no_inverse_table():
    with pytest.raises(NoInverse):
        make_group([[0, 1], [1, 1]])


def test_not_associative_names_triple():
    # a "table" with identity row/column but a broken interior entry
    t = [[0, 1, 2], [1, 2, 0], [2, 1, 1]]
    with pytest.raises((NotAssociative, NoInverse)):
        make_group(t)


def test_cyclic_orders():
    g = cyclic_group(6)
    assert [g.element_order(x) for x in range(6)] == [1, 6, 3, 2, 3, 6]
    assert g.is_abelian()


def test_dihedral_structure():
    g = dihedral_group(4)
    assert g.order == 8
    assert not g.is_abelian()
    # r has order 4, every reflection has order 2
    assert g.element_order(1) == 4
    assert all(g.element_order(4 + a) == 2 for a in range(4))


def test_direct_product():
    g = direct_product(cyclic_group(2), cyclic_group(3))
    assert g.order == 6
    assert g.is_abelian()
    assert g.element_order(1 * 3 + 1) == 6  # (1,1) generates Z2 x Z3 = Z6


def test_subgroup_checks():
    g = cyclic_group(6)
    assert check_subgroup(g, [0, 3]) == [0, 3]
    with pytest.raises(NotSubgroup):
        check_subgroup(g, [0, 1])  # not closed
    assert generated_subgroup(g, [2]) == [0, 2, 4]


def test_cosets_and_normality():
    g = symmetric_group(3)
    h = generated_subgroup(g, [1])  # some transposition or 3-cycle
    cosets = left_cosets(g, h)
    assert sum(len(c) for c in cosets) == 6
    # the alternating subgroup (3-cycles) is normal, a transposition pair is not
    three_cycles = [x for x in g.elements() if g.element_order(x) == 3]
    a3 = generated_subgroup(g, three_cycles[:1])
    assert len(a3) == 3 and is_normal(g, a3)
    transposition = [x for x in g.elements() if g.element_order(x) == 2][0]
    assert not is_normal(g, generated_subgroup(g, [transposition]))


def test_orbit_stabilizer_product():
    from zakspace.actions import orbits, stabilizer
    from zakspace.fixtures import d3_triangle

    action = d3_triangle()
    dec = orbits(action)
    for x in range(action.npoints):
        orbit_size = len(dec.members[dec.orbit_id[x]])
        assert orbit_size * len(stabilizer(action, x)) == action.group.order


def test_group_arrays_are_read_only_copies():
    table = np.array([[0, 1, 2], [1, 2, 0], [2, 0, 1]])
    g = make_group(table)
    with pytest.raises(ValueError):
        g.table[0, 0] = 1
    with pytest.raises(ValueError):
        g.inverses[1] = 1
    table[:] = 0  # the caller's array stays the caller's
    assert g.mul(1, 1) == 2 and g.inv(1) == 2


@pytest.mark.parametrize("table", [[[0, 1], [1, 0.5]], [[0, 1], [1, 1.7]], [[0, 1], [1, "0"]], [[0, 1], [1, np.nan]]])
def test_non_integer_table_entry_rejected(table):
    with pytest.raises(ValueError):
        make_group(table)


def test_integral_float_table_accepted():
    assert make_group([[0.0, 1.0], [1.0, 0.0]]).table.dtype == int


def test_permutation_table_names_the_first_missing_composite():
    perms = [(0, 1, 2), (1, 2, 0)]  # the 3-cycle without its square
    with pytest.raises(NotSubgroup, match=r"\(1, 2, 0\) o \(1, 2, 0\)"):
        permutation_table(perms)


@pytest.mark.parametrize("perms", [[(0, 1), (0, 1)], [(0, 0), (1, 1)], [tuple(range(21))]])
def test_permutation_table_rejects_rows_it_cannot_rank(perms):
    with pytest.raises(ValueError):
        permutation_table(perms)


def test_s6_permutation_table_composes_every_pair():
    perms = np.array(list(itertools.permutations(range(6))))
    table = permutation_table(perms)
    composed = perms[:, perms]  # composed[i, j] = p_i o p_j
    assert np.array_equal(perms[table], composed)
