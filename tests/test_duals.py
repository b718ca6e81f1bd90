import itertools

import numpy as np
import pytest

from oracles import pair_products_einsum, validate_dual_loop
from planted import assert_same_outcome, outcome
from zakspace.duals import (
    DualObject,
    UnitaryIrrep,
    _coxeter_chain,
    _pair_products,
    _regular_splitting_dual,
    dual_abelian,
    irreps,
    irreps_by_induction,
    validate_dual,
)
from zakspace.errors import IncompleteDual, NotAbelian, NotIrreducible
from zakspace.fixtures import random_complex
from zakspace.groups import (
    cyclic_group,
    dihedral_group,
    direct_product,
    generated_subgroup,
    make_group,
    permutation_table,
    symmetric_group,
)


def test_z2_characters():
    dual = dual_abelian(cyclic_group(2))
    vals = sorted(tuple(np.round(s.matrices[:, 0, 0].real, 9)) for s in dual.irreps)
    assert vals == [(1.0, -1.0), (1.0, 1.0)]


def test_zn_characters_closed_form():
    n = 5
    dual = dual_abelian(cyclic_group(n))
    for j, s in enumerate(dual.irreps):
        expected = np.exp(2j * np.pi * j * np.arange(n) / n)
        assert np.max(np.abs(s.matrices[:, 0, 0] - expected)) < 1e-12


def test_characters_closed_under_product():
    dual = dual_abelian(cyclic_group(6))
    vals = [s.matrices[:, 0, 0] for s in dual.irreps]
    for a in vals:
        for b in vals:
            prod = a * b
            assert any(np.max(np.abs(prod - c)) < 1e-9 for c in vals)


def test_klein_four_numeric_characters():
    klein = direct_product(cyclic_group(2), cyclic_group(2))
    klein._factors = None  # force the numeric route
    klein.name = None
    dual = dual_abelian(klein)
    assert len(dual.irreps) == 4
    validate_dual(dual)


def test_dual_abelian_rejects_s3():
    with pytest.raises(NotAbelian):
        dual_abelian(symmetric_group(3))


def test_z4_dual_dims():
    dual = irreps(cyclic_group(4))
    assert sorted(s.dim for s in dual.irreps) == [1, 1, 1, 1]


def test_s3_dims_via_dihedral_detection():
    dual = irreps(symmetric_group(3))
    assert sorted(s.dim for s in dual.irreps) == [1, 1, 2]
    validate_dual(dual)


def test_d4_dims():
    dual = irreps(dihedral_group(4))
    assert sorted(s.dim for s in dual.irreps) == [1, 1, 1, 1, 2]


def test_product_dual():
    g = direct_product(cyclic_group(2), symmetric_group(3))
    dual = irreps(g)
    assert sorted(s.dim for s in dual.irreps) == [1, 1, 1, 1, 2, 2]
    validate_dual(dual)


def test_regular_splitting_matches_catalog():
    g = symmetric_group(3)
    dual = _regular_splitting_dual(g, seed=0)
    assert sorted(s.dim for s in dual.irreps) == [1, 1, 2]
    validate_dual(dual)
    # same character multiset as the catalog route
    cat = irreps(g)
    chars_num = sorted(tuple(np.round(s.character(), 6)) for s in dual.irreps)
    chars_cat = sorted(tuple(np.round(s.character(), 6)) for s in cat.irreps)
    assert chars_num == chars_cat


def test_mackey_induction_s3():
    g = symmetric_group(3)
    three_cycle = next(x for x in g.elements() if g.element_order(x) == 3)
    a3 = generated_subgroup(g, [three_cycle])
    dual = irreps_by_induction(g, a3, seed=1)
    assert sorted(s.dim for s in dual.irreps) == [1, 1, 2]
    validate_dual(dual)


def test_mackey_induction_d4():
    g = dihedral_group(4)
    rotations = generated_subgroup(g, [1])
    dual = irreps(g, normal_abelian=rotations)
    assert sorted(s.dim for s in dual.irreps) == [1, 1, 1, 1, 2]
    validate_dual(dual)


def test_basis_independence_of_characters():
    rng = np.random.default_rng(7)
    dual = irreps(symmetric_group(3))
    for s in dual.irreps:
        if s.dim == 1:
            continue
        q, _ = np.linalg.qr(rng.normal(size=(s.dim, s.dim)) + 1j * rng.normal(size=(s.dim, s.dim)))
        conj = s.conjugated(q)
        assert np.max(np.abs(conj.character() - s.character())) < 1e-10


def quaternion_group():
    """Q8 from explicit 2x2 matrix units: not abelian, dihedral, or a product."""
    i2 = np.eye(2)
    qi = np.array([[1j, 0], [0, -1j]])
    qj = np.array([[0, 1], [-1, 0]], dtype=complex)
    qk = qi @ qj
    units = [i2, -i2, qi, -qi, qj, -qj, qk, -qk]

    def find(m):
        return next(a for a, u in enumerate(units) if np.max(np.abs(u - m)) < 1e-12)

    table = [[find(units[a] @ units[b]) for b in range(8)] for a in range(8)]
    return make_group(table, name="quaternion:8")


def test_quaternion_fallback_splitting():
    g = quaternion_group()
    assert not g.is_abelian()
    from zakspace.duals import _dihedral_structure

    assert _dihedral_structure(g) is None  # -1 is the only involution
    dual = irreps(g)  # exercises the regular-representation fallback
    assert sorted(s.dim for s in dual.irreps) == [1, 1, 1, 1, 2]
    validate_dual(dual)


def test_d6_regular_splitting():
    g = dihedral_group(6)
    dual = _regular_splitting_dual(g, seed=4)
    assert sorted(s.dim for s in dual.irreps) == [1, 1, 1, 1, 2, 2]
    validate_dual(dual)


# ---------------------------------------------------------------------------
# the S_n catalog: Young's orthogonal form on a Coxeter chain found in the table


def relabelled(group, seed):
    """The table with element g renamed perm[g], through make_group (so without _factors)."""
    perm = np.random.default_rng(seed).permutation(group.order)
    inv = np.argsort(perm)
    return make_group(perm[group.table[np.ix_(inv, inv)]])


def special_linear_group(p):
    """SL(2, p): the 2x2 matrices (a, b; c, d) mod p of determinant 1."""
    mats = [m for m in itertools.product(range(p), repeat=4) if (m[0] * m[3] - m[1] * m[2]) % p == 1]
    index = {m: i for i, m in enumerate(mats)}

    def mul(x, y):
        a, b, c, d = x
        e, f, g, h = y
        return ((a * e + b * g) % p, (a * f + b * h) % p, (c * e + d * g) % p, (c * f + d * h) % p)

    return make_group([[index[mul(x, y)] for y in mats] for x in mats], name=f"SL(2,{p})")


def alternating_group(n):
    even = [p for p in itertools.permutations(range(n)) if np.linalg.det(np.eye(n)[list(p)]) > 0]
    return make_group(permutation_table(even), name=f"alternating:{n}")


@pytest.mark.parametrize("n", [4, 5])
def test_symmetric_catalog_is_real_and_does_not_depend_on_the_seed(n):
    g = relabelled(symmetric_group(n), n)
    assert _coxeter_chain(g) is not None
    d0, d7 = irreps(g, seed=0), irreps(g, seed=7)
    validate_dual(d0)
    assert d0.labels == [f"sigma{i}" for i in range(len(d0.irreps))]
    for a, b in zip(d0.irreps, d7.irreps, strict=True):
        assert a.label == b.label and np.array_equal(a.matrices, b.matrices)
        assert not np.any(a.matrices.imag)


# groups of order 4! and 5! that are not S_4 or S_5; the products are relabelled, so they have no _factors
NOT_SYMMETRIC = {
    "SL(2,3)": lambda: special_linear_group(3),
    "SL(2,5)": lambda: special_linear_group(5),
    "C2xA4": lambda: relabelled(direct_product(cyclic_group(2), alternating_group(4)), 1),
    "C2xA5": lambda: relabelled(direct_product(cyclic_group(2), alternating_group(5)), 2),
}


@pytest.mark.parametrize("name", list(NOT_SYMMETRIC))
def test_coxeter_search_returns_none_on_other_groups_of_factorial_order(name):
    g = NOT_SYMMETRIC[name]()
    assert g.order in (24, 120) and g._factors is None
    assert _coxeter_chain(g) is None
    dual = irreps(g)  # falls through to the regular-representation split
    validate_dual(dual)
    assert sum(s.dim**2 for s in dual.irreps) == g.order


# ---------------------------------------------------------------------------
# planted defects: validate_dual rejects each one as the pairwise loops do


@pytest.fixture(scope="module")
def split_duals():
    """S4 (dimensions 1, 1, 2, 3, 3) and S5 (1, 1, 4, 4, 5, 5, 6) from the regular-representation split."""
    return {n: _regular_splitting_dual(symmetric_group(n), seed=0) for n in (4, 5)}


# (symmetric group, irrep dimension): every dimension of S5 and the 2 of S4
PLANTED_DIMS = [(5, 1), (4, 2), (5, 4), (5, 5), (5, 6)]


def _with(dual, i, mats):
    """The dual with irrep i's matrices replaced."""
    out = list(dual.irreps)
    out[i] = UnitaryIrrep(out[i].label, mats.shape[1], mats)
    return DualObject(dual.group, out)


def _first_of_dim(dual, d) -> int:
    return next(i for i, s in enumerate(dual.irreps) if s.dim == d)


def _rejects_like_loop(dual, error, text):
    got = outcome(validate_dual, dual)
    assert got[0] == "raised" and got[1] is error and text in got[2], got
    assert_same_outcome(got, outcome(validate_dual_loop, dual), close=None)


def test_pair_products_match_einsum_on_s5(split_duals):
    for s in split_duals[5].irreps:
        assert np.max(np.abs(_pair_products(s.matrices) - pair_products_einsum(s.matrices))) <= 1e-14


@pytest.mark.parametrize("order, d", PLANTED_DIMS)
def test_split_duals_pass_and_planted_element_defects_are_rejected(split_duals, order, d):
    dual = split_duals[order]
    validate_dual(dual)
    validate_dual_loop(dual)
    group, i = dual.group, _first_of_dim(dual, d)
    label, mats = dual.irreps[i].label, dual.irreps[i].matrices
    rng = np.random.default_rng(10 * order + d)
    noise = random_complex(rng, d * d).reshape(d, d)
    noise *= 1e-9 / np.max(np.abs(noise))  # ten times HOM_ATOL in its largest entry

    at_identity = mats.copy()
    at_identity[group.identity] += noise
    _rejects_like_loop(_with(dual, i, at_identity), NotIrreducible, f"{label}: identity does not map to I")

    g = int(rng.choice([x for x in group.elements() if x != group.identity]))
    at_g = mats.copy()
    at_g[g] += noise
    _rejects_like_loop(_with(dual, i, at_g), NotIrreducible, f"{label}: not a homomorphism")

    reducible = np.zeros((group.order, d + 1, d + 1), dtype=complex)
    reducible[:, :d, :d] = mats
    reducible[:, d, d] = 1.0
    _rejects_like_loop(_with(dual, i, reducible), NotIrreducible, f"{label}: character norm")

    incomplete = DualObject(group, dual.irreps[:i] + dual.irreps[i + 1:])
    _rejects_like_loop(incomplete, IncompleteDual, f"is {group.order - d * d}, expected |G| = {group.order}")


@pytest.mark.parametrize("order, d", [(o, d) for o, d in PLANTED_DIMS if d > 1])
def test_non_unitary_homomorphism_is_rejected(split_duals, order, d):
    dual = split_duals[order]
    i = _first_of_dim(dual, d)
    rng = np.random.default_rng(order + d)
    s = np.eye(d) + 1e-6 * random_complex(rng, d * d).reshape(d, d)
    mats = s @ dual.irreps[i].matrices @ np.linalg.inv(s)  # still a homomorphism, no longer unitary
    _rejects_like_loop(_with(dual, i, mats), NotIrreducible, f"{dual.irreps[i].label}: matrices not unitary")


def test_equivalent_pairs_are_named_in_row_major_order(split_duals):
    dual = split_duals[5]
    s = dual.irreps  # dimensions 1, 1, 4, 4, 5, 5, 6
    rng = np.random.default_rng(3)

    def copy_of(source, target):
        q, _ = np.linalg.qr(random_complex(rng, source.dim**2).reshape(source.dim, source.dim))
        return UnitaryIrrep(target.label, target.dim, source.conjugated(q).matrices)

    for i, j in ((0, 1), (2, 3), (4, 5)):
        planted = list(s)
        planted[j] = copy_of(s[i], s[j])
        _rejects_like_loop(DualObject(dual.group, planted), NotIrreducible, f"{s[i].label} and {s[j].label} are equivalent")
    # equivalent pairs at positions (0, 3) and (1, 2): the pair (0, 3) comes first in row-major order
    order = [s[2], s[4], copy_of(s[4], s[5]), copy_of(s[2], s[3]), s[0], s[1], s[6]]
    _rejects_like_loop(DualObject(dual.group, order), NotIrreducible, f"{s[2].label} and {s[3].label} are equivalent")
