import itertools
import time
import tracemalloc

import numpy as np
import pytest

from oracles import associative_at, group_checks_loop
from zakspace.errors import NoIdentity, NoInverse, NotAssociative, NotSubgroup
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


@pytest.mark.parametrize("elements", [[0, 6], [0, -1], [-6, 0, 3]])
def test_subgroup_indices_outside_the_group_are_rejected(elements):
    with pytest.raises(NotSubgroup, match=r"is not in 0\.\.5"):
        check_subgroup(cyclic_group(6), elements)


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


# ---------------------------------------------------------------------------
# generators, Light's test and the order of the checks


NAMED_GROUPS = [
    cyclic_group(1),
    cyclic_group(2),
    cyclic_group(12),
    cyclic_group(64),
    dihedral_group(1),
    dihedral_group(5),
    dihedral_group(12),
    symmetric_group(1),
    symmetric_group(3),
    symmetric_group(4),
    symmetric_group(5),
    direct_product(cyclic_group(2), cyclic_group(2)),
    direct_product(symmetric_group(3), cyclic_group(4)),
    direct_product(dihedral_group(4), cyclic_group(3)),
]


@pytest.mark.parametrize("group", NAMED_GROUPS, ids=lambda g: g.name)
def test_generators_are_few_read_only_and_generate(group):
    gens = group.generators
    with pytest.raises(ValueError):
        gens[...] = 0
    assert len(gens) <= np.log2(group.order)
    assert generated_subgroup(group, gens.tolist()) == list(range(group.order))


def test_each_generator_is_the_first_element_not_yet_reached():
    assert cyclic_group(12).generators.tolist() == [1]
    assert dihedral_group(5).generators.tolist() == [1, 5]  # r, then the first reflection
    assert direct_product(cyclic_group(2), cyclic_group(2)).generators.tolist() == [1, 2]
    assert cyclic_group(1).generators.tolist() == []


def test_symmetric_group_6_builds_fast_without_a_cube():
    start = time.perf_counter()
    group = symmetric_group(6)
    assert time.perf_counter() - start < 2.0
    tracemalloc.start()
    try:
        symmetric_group(6)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 200 * 2**20  # one 720^3 int64 array would take about 3 GB
    assert group.order == 720 and len(group.generators) <= np.log2(720)


def test_checks_run_identity_then_associativity_then_inverses():
    no_identity = [[1, 0], [0, 0]]  # also not associative, and nothing has an inverse
    non_associative = [[0, 1, 2], [1, 0, 0], [2, 1, 1]]  # 0 is the identity; 2 has no inverse
    no_inverse = np.maximum.outer(np.arange(3), np.arange(3))  # associative, 0 the identity
    for table, error in ((no_identity, NoIdentity), (non_associative, NotAssociative), (no_inverse, NoInverse)):
        with pytest.raises(error):
            make_group(table)
        with pytest.raises(error):
            group_checks_loop(table)
    with pytest.raises(NotAssociative) as err:
        make_group(non_associative)
    assert not associative_at(non_associative, *err.value.triple)
    with pytest.raises(NoInverse) as err:
        make_group(no_inverse)
    assert err.value.element == 1  # the first of 1 and 2


def test_identity_and_inverses_match_the_scans():
    for group in NAMED_GROUPS:
        identity, inverses = group_checks_loop(group.table)
        assert group.identity == identity and np.array_equal(group.inverses, inverses), group.name
