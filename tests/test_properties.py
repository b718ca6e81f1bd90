"""Property tests of the batched layers against the loops in oracles.py."""

import re
from itertools import permutations

import numpy as np
import pytest

hypothesis = pytest.importorskip("hypothesis")
from hypothesis import given, settings, strategies as st  # noqa: E402

from oracles import (  # noqa: E402
    associative_at,
    bands_loop,
    character_zak_loop,
    character_zak_reconstruct_loop,
    check_invariance_dense,
    cocycle_holds_at,
    cocycle_identity_loop,
    extension_gap_loop,
    fourier_loop,
    group_checks_loop,
    homomorphism_holds_at,
    homomorphism_loop,
    intertwining_loop,
    invariance_support_loop,
    inverse_by_irrep,
    masked_zak_blocks,
    inverse_fourier_loop,
    pair_products_einsum,
    permutation_table_loop,
    point_permutation_loop,
    poisson_compact_loop,
    product_dual_loop,
    quotient_fourier_loop,
    reciprocal_space_loop,
    regular_average_loop,
    stabilizer_tables_loop,
    symmetry_adapted_basis_loop,
    zak_inverse_loop,
    zak_loop,
)
from planted import assert_same_outcome, outcome  # noqa: E402
from sample_actions import regular_and_cosets  # noqa: E402
from zakspace.bloch import band_structure, check_invariance, symmetry_adapted_basis  # noqa: E402
from zakspace.duals import (  # noqa: E402
    _coxeter_chain,
    _pair_products,
    _product_dual,
    _regular_average,
    _regular_splitting_dual,
    _symmetric_dual,
    irreps,
    validate_dual,
)
from zakspace.errors import NotAssociative, SampleSetNotClosed  # noqa: E402
from zakspace.euclid import IsometryElement, IsometryGroupSpec, act, generate, rotation_z  # noqa: E402
from zakspace.fixtures import random_complex  # noqa: E402
from zakspace.actions import make_action  # noqa: E402
from zakspace.fourier import fourier, inverse, inverse_fourier  # noqa: E402
from zakspace.groups import (  # noqa: E402
    cyclic_group,
    dihedral_group,
    direct_product,
    generated_subgroup,
    make_group,
    permutation_table,
    symmetric_group,
)
from zakspace.radiation import _point_permutation  # noqa: E402
from zakspace.weil import check_cocycle_identity, weil_structure  # noqa: E402
from zakspace.reciprocal import (  # noqa: E402
    invariance_support_residual,
    poisson_compact_check,
    quotient_fourier_check,
    reciprocal_space,
)
from zakspace.zak import (  # noqa: E402
    _extension_gaps,
    character_zak,
    character_zak_reconstruct,
    intertwining_residual,
    verify_roundtrip,
    zak,
    zak_inverse,
)

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
    perms = _point_permutation(points, np.array([g.q for g in elements]), np.array([g.c for g in elements]))
    for g, perm in zip(elements, perms, strict=True):
        assert np.array_equal(perm, point_permutation_loop(points, g))


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
            _point_permutation(points, g.q[None], g.c[None])
        with pytest.raises(SampleSetNotClosed) as expected:
            point_permutation_loop(points, g)
        assert np.array_equal(got.value.point, expected.value.point)


# ---------------------------------------------------------------------------
# the batched finite Zak transforms against the per-block loops


FACTORS = [cyclic_group(2), cyclic_group(3), symmetric_group(3), dihedral_group(4)]
A4_TABLE = permutation_table([p for p in permutations(range(4)) if np.linalg.det(np.eye(4)[list(p)]) > 0])


@st.composite
def relabelled_groups(draw, kinds=("cyclic", "dihedral", "S3", "S4")):
    """A table of one of the kinds (cyclic, dihedral, S3, S4, A4 or a direct
    product of two small groups) with its elements renamed at random."""
    kind = draw(st.sampled_from(kinds))
    if kind == "cyclic":
        base = cyclic_group(draw(st.integers(1, 12))).table
    elif kind == "dihedral":
        base = dihedral_group(draw(st.integers(2, 6))).table
    elif kind == "A4":
        base = A4_TABLE
    elif kind == "product":
        base = direct_product(draw(st.sampled_from(FACTORS)), draw(st.sampled_from(FACTORS))).table
    else:
        base = symmetric_group(3 if kind == "S3" else 4).table
    n = len(base)
    relabel = np.array(draw(st.permutations(range(n))))
    inv = np.argsort(relabel)
    return make_group(relabel[base[np.ix_(inv, inv)]])  # element g is renamed relabel[g]


@st.composite
def relabelled_actions(draw):
    """A relabelled group acting on itself and on the cosets of <h>."""
    group = draw(relabelled_groups())
    n = group.order
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


# ---------------------------------------------------------------------------
# the thin callers of the transform core against their loops


def _close(a, b) -> bool:
    return bool(np.max(np.abs(np.asarray(a) - np.asarray(b)), initial=0.0) <= 1e-12)


@settings(max_examples=40, deadline=None, derandomize=True)
@given(group=relabelled_groups(), data=st.data())
def test_fourier_and_reciprocal_match_loops_on_drawn_subgroups(group, data):
    n = group.order
    gens = data.draw(st.lists(st.integers(0, n - 1), max_size=2))
    h = generated_subgroup(group, gens)
    dual = irreps(group)
    rng = np.random.default_rng(data.draw(st.integers(0, 2**32 - 1)))
    f = random_complex(rng, n)
    fhat, want = fourier(f, dual), fourier_loop(f, dual)
    assert all(_close(fhat[label], block) for label, block in want.items())
    assert _close(inverse_fourier(fhat, dual), inverse_fourier_loop(fhat.blocks, dual))
    rec = reciprocal_space(dual, h)
    members, projectors, mults = reciprocal_space_loop(dual, h)
    assert rec.members == members and rec.multiplicities == mults
    assert all(_close(rec.projectors[label], p) for label, p in projectors.items())
    assert _close(poisson_compact_check(f, group, h, dual), poisson_compact_loop(f, group, h, dual))
    for side in ("left", "right"):
        assert _close(invariance_support_residual(f, dual, h, side), invariance_support_loop(f, dual, h, side))
    f_coset = random_complex(rng, n // len(h))
    assert _close(quotient_fourier_check(f_coset, group, h, dual), quotient_fourier_loop(f_coset, group, h, dual))


@settings(max_examples=25, deadline=None, derandomize=True)
@given(drawn=relabelled_actions(), data=st.data())
def test_zak_callers_and_bases_match_loops_on_relabelled_actions(drawn, data):
    action, seed = drawn
    dual = irreps(action.group)
    rng = np.random.default_rng(seed)
    f = random_complex(rng, action.npoints)
    coeffs = zak(action, f, dual)
    direct, gaps = _extension_gaps(coeffs, f, np.arange(action.npoints))
    sums = dual.per_irrep(direct)
    for x in range(action.npoints):
        want_direct, want_gap = extension_gap_loop(coeffs, f, x)
        assert abs(gaps[x] - want_gap) <= 1e-12
        assert all(_close(z[x], want_direct[s.label]) for s, z in zip(dual.irreps, sums))
    chars = character_zak(action, f, dual)
    want = character_zak_loop(coeffs, f)
    assert list(chars) == list(want) and all(abs(chars[k] - v) <= 1e-12 for k, v in want.items())
    assert _close(character_zak_reconstruct(action, f, dual)[0], character_zak_reconstruct_loop(action, f, dual))
    assert abs(intertwining_residual(action, f, dual) - intertwining_loop(action, f, dual)) <= 1e-12
    basis, layout = symmetry_adapted_basis(action, dual)
    want_basis, want_layout = symmetry_adapted_basis_loop(action, dual)
    assert layout == want_layout and _close(basis, want_basis)
    # an operator averaged over a drawn subgroup fails at the same first element on both paths
    raw = rng.normal(size=(action.npoints,) * 2) + 1j * rng.normal(size=(action.npoints,) * 2)
    gens = data.draw(st.lists(st.integers(0, action.group.order - 1), max_size=2))
    perms = [action.permutation_matrix(g) for g in generated_subgroup(action.group, gens)]
    h = sum(p @ (raw + raw.conj().T) @ p.T for p in perms)
    got, want = outcome(check_invariance, action, h), outcome(check_invariance_dense, action, h)
    assert_same_outcome(got, want, lambda a, b: True)


# ---------------------------------------------------------------------------
# the regular-representation split and the homomorphism check against their loops


@settings(max_examples=30, deadline=None, derandomize=True)
@given(group=relabelled_groups(kinds=("S3", "S4", "A4", "dihedral", "product")), seed=st.integers(0, 2**32 - 1))
def test_regular_average_and_pair_products_match_loops(group, seed):
    rng = np.random.default_rng(seed)
    m = random_complex(rng, group.order**2).reshape(group.order, group.order)
    want = regular_average_loop(group, m)
    assert np.max(np.abs(_regular_average(group, m) - want)) <= 1e-12 * np.max(np.abs(want))
    for s in irreps(group).irreps:
        assert np.max(np.abs(_pair_products(s.matrices) - pair_products_einsum(s.matrices))) <= 1e-14


# ---------------------------------------------------------------------------
# the S_n catalog against the splitter, the product catalog and the permutation table against their loops


SYMMETRIC_TABLES = {n: symmetric_group(n).table for n in (4, 5)}


@settings(max_examples=8, deadline=None, derandomize=True)
@given(n=st.sampled_from([4, 5]), data=st.data())
def test_symmetric_catalog_matches_the_splitter_on_relabelled_tables(n, data):
    base = SYMMETRIC_TABLES[n]
    relabel = np.array(data.draw(st.permutations(range(len(base)))))
    inv = np.argsort(relabel)
    group = make_group(relabel[base[np.ix_(inv, inv)]])
    found = _coxeter_chain(group)
    assert found is not None
    route = _symmetric_dual(group, *found)
    validate_dual(route)
    split = _regular_splitting_dual(group, data.draw(st.integers(0, 2**32 - 1)))
    assert route.labels == split.labels
    assert [s.dim for s in route.irreps] == [s.dim for s in split.irreps]
    assert np.max(np.abs(route.character_table - split.character_table)) <= 1e-12
    assert all(np.array_equal(a.matrices, b.matrices) for a, b in zip(irreps(group).irreps, route.irreps, strict=True))


@settings(max_examples=30, deadline=None, derandomize=True)
@given(
    left=relabelled_groups(kinds=("cyclic", "dihedral", "S3", "A4", "S4")),
    right=relabelled_groups(kinds=("cyclic", "dihedral", "S3")),
    seed=st.integers(0, 2**32 - 1),
)
def test_product_dual_matches_kron_loop_on_relabelled_factors(left, right, seed):
    group = direct_product(left, right)
    got, want = _product_dual(group, seed), product_dual_loop(group, seed)
    assert got.labels == want.labels
    assert all(np.array_equal(a.matrices, b.matrices) for a, b in zip(got.irreps, want.irreps, strict=True))


@st.composite
def permutation_sets(draw):
    """A permutation group on up to 5 points in drawn order, sometimes with one element dropped."""
    k = draw(st.integers(1, 5))
    gens = [tuple(g) for g in draw(st.lists(st.permutations(range(k)), max_size=2))]
    elems = {tuple(range(k))}
    frontier = list(elems)
    while frontier:
        new = [tuple(p[i] for i in g) for p in frontier for g in gens]
        frontier = [q for q in dict.fromkeys(new) if q not in elems]
        elems.update(frontier)
    elems = sorted(elems)
    perms = [elems[i] for i in draw(st.permutations(range(len(elems))))]
    if len(perms) > 1 and draw(st.booleans()):
        del perms[draw(st.integers(0, len(perms) - 1))]
    return perms


@settings(max_examples=60, deadline=None, derandomize=True)
@given(perms=permutation_sets())
def test_permutation_table_matches_loop(perms):
    got, want = outcome(permutation_table, perms), outcome(permutation_table_loop, perms)
    assert_same_outcome(got, want, np.array_equal)


# ---------------------------------------------------------------------------
# the checks on generators against the checks over every triple and pair


def _raised(fn, *args):
    try:
        fn(*args)
    except Exception as exc:  # noqa: BLE001 - the exception itself is what is compared
        return exc
    return None


def _cocycle_pair(err) -> tuple[int, int]:
    g1, g2 = re.fullmatch(r"cocycle identity fails at \((\d+),(\d+)\)", str(err)).groups()
    return int(g1), int(g2)


@settings(max_examples=60, deadline=None, derandomize=True)
@given(group=relabelled_groups(kinds=("cyclic", "dihedral", "S4", "product")), data=st.data())
def test_generator_checks_reject_planted_defects_as_the_loops_do(group, data):
    """One wrong table entry, one wrong perm row and one wrong lambda entry at
    drawn positions: the generator checks and the loops reject each with the
    same error type, the witness reported fails the loop's own test, and both
    accept the input before the defect is planted."""
    n = group.order
    identity, inverses = group_checks_loop(group.table)
    assert identity == group.identity and np.array_equal(inverses, group.inverses)

    if n > 1:
        table = np.array(group.table)
        g, h = data.draw(st.integers(0, n - 1)), data.draw(st.integers(0, n - 1))
        wrong = data.draw(st.integers(0, n - 2))
        table[g, h] = wrong + (wrong >= table[g, h])  # any value but the right one
        got, want = _raised(make_group, table), _raised(group_checks_loop, table)
        assert got is not None and type(got) is type(want)
        if isinstance(got, NotAssociative):
            assert not associative_at(table, *got.triple)
        else:  # NoIdentity, or NoInverse naming the same first element
            assert str(got) == str(want)

    h = data.draw(st.integers(0, n - 1))
    m = regular_and_cosets(group, h).npoints
    action = regular_and_cosets(group, h, data.draw(st.lists(st.floats(0.1, 10.0), min_size=m, max_size=m)))
    assert _raised(homomorphism_loop, group, action.perm) is None

    perm = np.array(action.perm)
    row = data.draw(st.integers(0, n - 1))
    perm[row] = data.draw(st.permutations(range(m)))
    got, want = _raised(make_action, group, perm, action.weights), _raised(homomorphism_loop, group, perm)
    assert type(got) is type(want)
    if n > 2 and not np.array_equal(perm[row], action.perm[row]):
        assert got is not None  # for |G| = 2 an involution is a valid new row
    if got is not None:
        assert not homomorphism_holds_at(group, perm, *got.pair)

    inv_perm = action.perm[group.inverses]
    lam = np.array(weil_structure(action).cocycle.lam)
    assert _raised(cocycle_identity_loop, group, inv_perm, lam) is _raised(check_cocycle_identity, group, inv_perm, lam) is None
    g, x = data.draw(st.integers(0, n - 1)), data.draw(st.integers(0, m - 1))
    lam[g, x] *= data.draw(st.one_of(st.floats(0.5, 0.99), st.floats(1.01, 2.0)))
    got, want = _raised(check_cocycle_identity, group, inv_perm, lam), _raised(cocycle_identity_loop, group, inv_perm, lam)
    assert isinstance(got, AssertionError) and isinstance(want, AssertionError)
    assert not cocycle_holds_at(group, inv_perm, lam, *_cocycle_pair(got))


# ---------------------------------------------------------------------------
# the inverse core against the (irreps, points) body it replaced


@settings(max_examples=40, deadline=None, derandomize=True)
@given(drawn=relabelled_actions(), data=st.data())
def test_inverse_is_the_irrep_body_summed_bitwise(drawn, data):
    action, seed = drawn
    dual = irreps(action.group)
    coeffs = zak(action, random_complex(np.random.default_rng(seed), action.npoints), dual)
    decomp = coeffs.structure.decomp
    blocks = masked_zak_blocks(coeffs)
    want = inverse_by_irrep(blocks, decomp.orbit_id, decomp.to_rep_element, dual)
    assert zak_inverse(coeffs).tobytes() == want.tobytes()
    # any rows and elements, unsorted and repeated
    rows = np.array(data.draw(st.lists(st.integers(0, len(decomp.representatives) - 1), min_size=1, max_size=30)))
    elements = np.array(data.draw(st.lists(st.integers(0, action.group.order - 1), min_size=len(rows), max_size=len(rows))))
    assert inverse(blocks, rows, elements, dual).tobytes() == inverse_by_irrep(blocks, rows, elements, dual).tobytes()
