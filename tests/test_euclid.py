import numpy as np
import pytest

from zakspace.actions import orbits, stabilizer
from zakspace.errors import DimensionMismatch, NotClosable, TruncationExceeded
from zakspace.euclid import (
    IsometryElement,
    IsometryGroupSpec,
    _generators_commute,
    _isometry_defects,
    Truncation,
    act,
    compose,
    conjugation_residual,
    distance,
    generate,
    identity_isometry,
    inverse,
    isometry_finite_group,
    rotation_2d,
    rotation_z,
    screw,
    to_finite_action,
    translation,
    translation_subgroup,
    type_one_certificate,
)


def c6_spec():
    return IsometryGroupSpec(2, [IsometryElement(rotation_2d(np.pi / 3), [0.0, 0.0])])


def pm_spec(word_length=12, radius=6.0):
    mirror = IsometryElement(np.diag([1.0, -1.0]), [0.0, 0.0])
    return IsometryGroupSpec(
        2,
        [translation([1.0, 0.0]), translation([0.0, 1.0]), mirror],
        Truncation(word_length=word_length, radius=radius, max_elements=4000),
    )


def test_translations_compose():
    a, b = translation([1.0, 2.0]), translation([0.5, -1.0])
    assert np.allclose(compose(a, b).c, [1.5, 1.0])


def test_conjugation_identity_exact():
    rng = np.random.default_rng(0)
    for _ in range(20):
        theta = rng.uniform(0, 2 * np.pi)
        g = IsometryElement(rotation_z(theta), rng.normal(size=3))
        t = translation(rng.normal(size=3))
        assert conjugation_residual(g, t) < 1e-12


def test_inverse_compose_identity():
    rng = np.random.default_rng(1)
    for _ in range(20):
        e = IsometryElement(rotation_z(rng.uniform(0, 7)), rng.normal(size=3))
        assert distance(compose(e, inverse(e)), identity_isometry(3)) < 1e-12


def test_act_is_isometry():
    rng = np.random.default_rng(2)
    e = IsometryElement(rotation_z(0.7), [0.1, -0.2, 0.4])
    x, y = rng.normal(size=3), rng.normal(size=3)
    assert np.linalg.norm(act(e, x) - act(e, y)) == pytest.approx(
        np.linalg.norm(x - y), abs=1e-12
    )


def test_dimension_mismatch():
    with pytest.raises(DimensionMismatch):
        compose(translation([1.0, 0.0]), translation([1.0, 0.0, 0.0]))


def test_c6_generation_finite():
    gen = generate(c6_spec())
    assert gen.finite
    assert gen.order == 6


def test_unit_translation_infinite():
    spec = IsometryGroupSpec(
        2, [translation([1.0, 0.0])], Truncation(word_length=30, radius=8.0)
    )
    gen = generate(spec)
    assert not gen.finite
    # translations n in [-8, 8]
    assert gen.order == 17


def test_screw_truncation_count():
    pitch = 1.0
    spec = IsometryGroupSpec(
        3, [screw(2 * np.pi / 5, pitch)], Truncation(word_length=40, radius=7.5)
    )
    gen = generate(spec)
    assert not gen.finite
    assert gen.order == 15  # powers with |n| <= 7


def test_truncation_exceeded_carries_partial():
    spec = IsometryGroupSpec(
        2,
        [translation([1.0, 0.0]), translation([0.0, 1.0])],
        Truncation(word_length=40, radius=30.0, max_elements=25),
    )
    with pytest.raises(TruncationExceeded) as err:
        generate(spec)
    assert len(err.value.partial) > 25


def test_translation_subgroup_pm():
    gen = generate(pm_spec())
    trans = translation_subgroup(gen.elements)
    assert all(np.allclose(e.q, np.eye(2)) for e in trans)
    assert len(trans) > 5
    # normality via the conjugation identity on sampled pairs
    for g in gen.elements[:10]:
        for t in trans[:5]:
            assert conjugation_residual(g, t) < 1e-12


def test_pure_rotation_group_trivial_translations():
    gen = generate(c6_spec())
    trans = translation_subgroup(gen.elements)
    assert len(trans) == 1  # identity only


def test_irrational_screw_has_no_translations():
    spec = IsometryGroupSpec(
        3, [screw(1.0, 0.3)], Truncation(word_length=12, radius=10.0)
    )
    gen = generate(spec)
    trans = translation_subgroup(gen.elements)
    assert len(trans) == 1


def test_certificate_finite_point_group():
    cert = type_one_certificate(c6_spec())
    assert cert.status == "type_I"
    assert cert.kind == "finite"
    assert cert.index == 1  # abelian: its own witness


def test_certificate_finite_nonabelian():
    spec = IsometryGroupSpec(
        2,
        [
            IsometryElement(rotation_2d(2 * np.pi / 3), [0.0, 0.0]),
            IsometryElement(np.diag([1.0, -1.0]), [0.0, 0.0]),
        ],
    )
    cert = type_one_certificate(spec)
    assert cert.status == "type_I"
    assert cert.kind == "finite"
    assert cert.order == 6
    assert cert.index == cert.order  # trivial-subgroup witness


def test_certificate_pm_space_group():
    cert = type_one_certificate(pm_spec())
    assert cert.status == "type_I"
    assert cert.kind == "space_group"
    assert cert.witness == "translation subgroup"
    assert cert.index == 2


def test_certificate_helical():
    spec = IsometryGroupSpec(
        3, [screw(2 * np.pi / 7, 0.5)], Truncation(word_length=16, radius=10.0)
    )
    cert = type_one_certificate(spec)
    assert cert.status == "type_I"
    assert cert.kind == "helical"
    assert cert.index == 1


def test_certificate_inconclusive_under_tight_truncation():
    cert = type_one_certificate(pm_spec(word_length=2, radius=3.0))
    assert cert.status == "inconclusive"


def test_certificate_inconclusive_growing_rotations():
    # irrational rotation: new rotation parts appear in every layer
    gen = IsometryElement(rotation_2d(1.0), [0.0, 0.0])
    glide = IsometryElement(np.diag([1.0, -1.0]), [1.0, 0.0])
    spec = IsometryGroupSpec(
        2, [gen, glide], Truncation(word_length=8, radius=6.0, max_elements=8000)
    )
    cert = type_one_certificate(spec)
    assert cert.status == "inconclusive"


def test_to_finite_action_c6_generic_seed():
    model = to_finite_action(c6_spec(), [[1.0, 0.2]])
    assert model.group.order == 6
    assert model.action.npoints == 6
    dec = orbits(model.action)
    assert dec.norbits == 1 and dec.stabilizer_sizes == [1]


def test_to_finite_action_c6_center():
    model = to_finite_action(c6_spec(), [[0.0, 0.0]])
    assert model.action.npoints == 1
    assert len(stabilizer(model.action, 0)) == 6


def test_to_finite_action_d3_triangle():
    spec = IsometryGroupSpec(
        2,
        [
            IsometryElement(rotation_2d(2 * np.pi / 3), [0.0, 0.0]),
            IsometryElement(np.diag([1.0, -1.0]), [0.0, 0.0]),
        ],
    )
    model = to_finite_action(spec, [[1.0, 0.0]])  # vertex on the mirror axis
    assert model.group.order == 6
    assert model.action.npoints == 3
    for x in range(3):
        assert len(stabilizer(model.action, x)) == 2


def test_to_finite_action_folded_lattice():
    spec = IsometryGroupSpec(
        2,
        [translation([1.0, 0.0]), translation([0.0, 1.0])],
        Truncation(word_length=10, radius=5.0),
    )
    model = to_finite_action(spec, [[0.13, 0.29]], periods=[3, 2])
    assert model.group.order == 6
    assert model.action.npoints == 6


def test_to_finite_action_folded_rational_screw():
    spec = IsometryGroupSpec(
        3, [screw(2 * np.pi / 5, 0.4)], Truncation(word_length=30, radius=6.0)
    )
    model = to_finite_action(spec, [[0.7, 0.1, 0.05]], periods=[1])
    assert model.group.order == 5
    assert model.action.npoints == 5


def test_to_finite_action_infinite_needs_periods():
    spec = IsometryGroupSpec(
        2, [translation([1.0, 0.0])], Truncation(word_length=6, radius=4.0)
    )
    with pytest.raises(NotClosable):
        to_finite_action(spec, [[0.0, 0.5]])


def test_isometry_finite_group_table():
    gen = generate(c6_spec())
    group = isometry_finite_group(gen.elements)
    assert group.order == 6
    assert group.is_abelian()


def test_rational_angle_detection():
    from zakspace.euclid import rational_angle

    assert rational_angle(2 * np.pi * 3 / 7) == (3, 7)
    assert rational_angle(2 * np.pi * 1 / 5) == (1, 5)
    assert rational_angle(1.0) is None  # 1 radian: no small denominator
    p, q = rational_angle(2 * np.pi * 355 / 113 / (2 * np.pi) * 2 * np.pi)  # angle with q=113
    assert q == 113


def test_helical_certificate_notes_rationality():
    spec = IsometryGroupSpec(
        3, [screw(2 * np.pi / 7, 0.5)], Truncation(word_length=16, radius=10.0)
    )
    cert = type_one_certificate(spec)
    assert "2 pi 1/7 (rational)" in cert.notes
    spec = IsometryGroupSpec(
        3, [screw(1.0, 0.3)], Truncation(word_length=10, radius=8.0)
    )
    cert = type_one_certificate(spec)
    assert "undecided" in cert.notes


def test_spec_rejects_unsupported_dimension():
    with pytest.raises(DimensionMismatch):
        IsometryGroupSpec(4, [])


def test_folding_rejects_incompatible_rotation():
    # an irrational rotation cannot preserve the folded square lattice
    spec = IsometryGroupSpec(
        2,
        [
            translation([1.0, 0.0]),
            translation([0.0, 1.0]),
            IsometryElement(rotation_2d(1.0), [0.0, 0.0]),
        ],
        Truncation(word_length=4, radius=4.0, max_elements=8000),
    )
    with pytest.raises(NotClosable):
        to_finite_action(spec, [[0.2, 0.3]], periods=[2, 2])


# ---------------------------------------------------------------------------
# the batched closure and lookups against the sequential loops in oracles.py


def p4_spec(word_length=10, radius=5.0):
    return IsometryGroupSpec(
        2,
        [IsometryElement(rotation_2d(np.pi / 2), [0.0, 0.0]), translation([1.0, 0.0]), translation([0.0, 1.0])],
        Truncation(word_length=word_length, radius=radius, max_elements=8000),
    )


def rotated_pm_spec(angle):
    r = rotation_2d(angle)
    mirror = IsometryElement(r @ np.diag([1.0, -1.0]) @ r.T, [0.0, 0.0])
    return IsometryGroupSpec(
        2,
        [translation(r[:, 0]), translation(r[:, 1]), mirror],
        Truncation(word_length=12, radius=6.5, max_elements=4000),
    )


def d6_spec():
    return IsometryGroupSpec(
        3,
        [
            IsometryElement(rotation_z(np.pi / 3), [0.0, 0.0, 0.0]),
            IsometryElement(np.diag([1.0, -1.0, -1.0]), [0.0, 0.0, 0.0]),
        ],
    )


def lattice_spec(point_ops, basis, word_length=8, radius=4.0):
    """A wallpaper group from point operations (Q, c) and the lattice basis columns."""
    gens = [IsometryElement(q, c) for q, c in point_ops]
    gens += [translation(v) for v in np.asarray(basis, dtype=float).T]
    return IsometryGroupSpec(2, gens, Truncation(word_length=word_length, radius=radius, max_elements=8000))


HEX = np.array([[1.0, 0.5], [0.0, np.sqrt(3.0) / 2.0]])


def wallpaper_specs():
    """p2, p6 on a hexagonal basis, the glide group pg and p4 in a rotated frame."""
    r = rotation_2d(0.4)
    return {
        "p2": lattice_spec([(-np.eye(2), [0.0, 0.0])], np.eye(2)),
        "p6": lattice_spec([(rotation_2d(np.pi / 3), [0.0, 0.0])], HEX, word_length=6, radius=3.0),
        "pg": IsometryGroupSpec(
            2,
            [IsometryElement(np.diag([1.0, -1.0]), [0.5, 0.0]), translation([0.0, 1.0])],
            Truncation(word_length=10, radius=4.0, max_elements=8000),
        ),
        "p4_rotated": lattice_spec([(rotation_2d(np.pi / 2), [0.0, 0.0])], r),
        "screw_3d": IsometryGroupSpec(3, [screw(np.pi / 2, 0.25)], Truncation(word_length=20, radius=4.0)),
    }


def oracle_specs():
    from zakspace.fixtures import certificate_specs

    specs = {"p4": p4_spec(), "d6": d6_spec()}
    specs.update({f"pm_{a}": rotated_pm_spec(a) for a in (0.0, 0.7, 2.1)})
    specs.update(certificate_specs())
    specs.update(wallpaper_specs())
    return specs


def assert_same_elements(got, expected):
    assert len(got) == len(expected)
    for a, b in zip(got, expected):
        assert np.array_equal(a.q, b.q) and np.array_equal(a.c, b.c)


@pytest.mark.parametrize("name", sorted(oracle_specs()))
def test_generate_matches_sequential_oracle(name):
    from oracles import generate_sequential

    spec = oracle_specs()[name]
    got, expected = generate(spec), generate_sequential(spec)
    assert_same_elements(got.elements, expected.elements)
    assert got.word_lengths == expected.word_lengths
    assert (got.finite, got.radius_truncated) == (expected.finite, expected.radius_truncated)


@pytest.mark.parametrize("cap", [0, 1, 7, 40])
def test_truncation_exceeded_matches_sequential_oracle(cap):
    from oracles import generate_sequential

    spec = p4_spec(word_length=6, radius=4.0)
    spec.truncation.max_elements = cap
    with pytest.raises(TruncationExceeded) as got:
        generate(spec)
    with pytest.raises(TruncationExceeded) as expected:
        generate_sequential(spec)
    assert_same_elements(got.value.partial, expected.value.partial)


@pytest.mark.parametrize(
    "periods, seeds", [([2, 2], [[0.21, 0.33], [0.1, 0.37]]), ([3, 3], [[0.21, 0.33]])]
)
def test_to_finite_action_matches_scan_oracle(periods, seeds):
    from oracles import to_finite_action_scan

    spec = p4_spec(word_length=8, radius=4.0)
    model = to_finite_action(spec, seeds, periods=periods)
    elements, table, perm, points = to_finite_action_scan(spec, seeds, periods=periods)
    assert model.group.order == 4 * periods[0] * periods[1]
    assert_same_elements(model.elements, elements)
    assert np.array_equal(model.group.table, table)
    assert np.array_equal(model.action.perm, perm)
    assert np.array_equal(model.points, points)


@pytest.mark.parametrize(
    "name, periods, seeds",
    [
        ("p2", [2, 3], [[0.21, 0.33]]),
        ("p6", [1, 1], [[0.21, 0.33], [0.0, 0.0]]),
        ("pg", [2, 2], [[0.21, 0.33]]),
        ("pg", [3, 3], [[0.21, 0.33]]),
        ("p4_rotated", [2, 2], [[0.21, 0.33]]),
        ("p4_rotated", [2, 3], [[0.21, 0.33]]),
        ("screw_3d", [2], [[0.3, 0.1, 0.05], [0.0, 0.0, 0.2]]),
    ],
)
def test_to_finite_action_matches_scan_oracle_on_other_groups(name, periods, seeds):
    from oracles import to_finite_action_scan

    spec = wallpaper_specs()[name]
    try:
        model = to_finite_action(spec, seeds, periods=periods)
    except NotClosable:
        with pytest.raises(NotClosable):
            to_finite_action_scan(spec, seeds, periods=periods)
        assert (name, periods) == ("p4_rotated", [2, 3])  # a quarter turn does not keep a 2x3 torus
        return
    elements, table, perm, points = to_finite_action_scan(spec, seeds, periods=periods)
    assert_same_elements(model.elements, elements)
    assert np.array_equal(model.group.table, table)
    assert np.array_equal(model.action.perm, perm)
    assert np.array_equal(model.points, points)


def test_isometry_finite_group_matches_scan_oracle():
    from oracles import isometry_table_scan
    from zakspace.fixtures import c4_scatterer

    cycle_4d = np.eye(4)[[1, 2, 3, 0]]  # any dimension: the 4-cycle of the axes of R^4
    c4_in_4d = [IsometryElement(np.linalg.matrix_power(cycle_4d, k), np.zeros(4)) for k in range(4)]
    for elements in (generate(d6_spec()).elements, c4_scatterer(np.random.default_rng(0))[0], c4_in_4d):
        assert np.array_equal(isometry_finite_group(elements).table, isometry_table_scan(elements))


@pytest.mark.parametrize(
    "q, c",
    [
        ([[np.nan, 0.0], [0.0, 1.0]], [0.0, 0.0]),
        ([[np.inf, 0.0], [0.0, 1.0]], [0.0, 0.0]),
        ([[1.0, 0.0], [0.0, 1.0]], [np.nan, 0.0]),
        ([[1.0, 0.0], [0.0, 1.0]], [0.0, -np.inf]),
        ([[1.0, -np.inf], [0.0, 1.0]], [0.0, 0.0]),
        ([[1.0, 0.0], [0.0, 1.0]], [np.inf, np.nan]),
        ([[1e308, 0.0], [0.0, 1.0]], [0.0, 0.0]),
    ],
)
def test_isometry_rejects_non_finite(q, c):
    with pytest.raises(DimensionMismatch):
        IsometryElement(np.array(q), np.array(c))


@pytest.mark.parametrize(
    "q, c",
    [
        (np.eye(2), [1e308, -1e308]),
        (np.eye(2), [np.nan, 0.0]),
        (np.eye(2), [0.0, -np.inf]),
        ([[np.inf, 0.0], [0.0, 1.0]], [0.0, 0.0]),
        ([[1e308, 0.0], [0.0, 1.0]], [0.0, 0.0]),
        ([[1e308, 1e308], [1e308, -1e308]], [0.0, 0.0]),  # the Gram matrix has inf - inf = NaN entries
        (rotation_2d(0.3), [2.0, -1.0]),
        (rotation_2d(0.3) * (1 + 1e-12), [0.0, 0.0]),
        (np.eye(3)[[1, 0, 2]], [1e-300, 0.0, 5.0]),
    ],
)
def test_one_element_check_decides_as_the_stacked_check(q, c):
    q, c = np.array(q, dtype=float), np.array(c, dtype=float)
    rejected = bool(_isometry_defects(q[None], c[None])[0])
    try:
        IsometryElement(q, c)
    except DimensionMismatch:
        assert rejected
    else:
        assert not rejected


def test_drifting_generator_rejected_like_oracle():
    # Q is orthogonal to 1e-12 but its square is not: both closures stop at layer 2
    from oracles import generate_sequential

    spec = IsometryGroupSpec(2, [IsometryElement(rotation_2d(0.3) * (1 + 4e-13), [0.0, 0.0])])
    with pytest.raises(DimensionMismatch):
        generate(spec)
    with pytest.raises(DimensionMismatch):
        generate_sequential(spec)


# ---------------------------------------------------------------------------
# one layout: stacked (Q, c) arrays inside, IsometryElement lists built on demand


@pytest.fixture
def constructions(monkeypatch):
    """Counts IsometryElement constructions from the moment it is requested."""
    count = [0]
    validate = IsometryElement.__post_init__

    def counted(self):
        count[0] += 1
        validate(self)

    monkeypatch.setattr(IsometryElement, "__post_init__", counted)
    return count


def test_generate_builds_no_elements(constructions):
    spec = p4_spec()
    constructions[0] = 0
    assert generate(spec).order > 100
    assert constructions[0] == 0


def test_certificate_and_fold_build_no_element_per_generated_element(constructions):
    spec = pm_spec()
    constructions[0] = 0
    assert type_one_certificate(spec).index == 2
    assert constructions[0] <= 2 * len(spec.generators) ** 2  # the generator commutation check
    assert generate(spec).order > 2 * len(spec.generators) ** 2

    spec = p4_spec(word_length=8, radius=4.0)
    constructions[0] = 0
    model = to_finite_action(spec, [[0.21, 0.33]], periods=[2, 2])
    assert constructions[0] == len(model.elements) == model.group.order == 16


@pytest.mark.parametrize("name", sorted(oracle_specs()))
def test_generators_commute_decides_as_the_element_loop(name):
    from oracles import generators_commute_loop

    spec = oracle_specs()[name]
    assert _generators_commute(spec) == generators_commute_loop(spec)


@pytest.mark.parametrize("factor", [0.0, 0.5, 0.99, 1.01, 2.0])
def test_generators_commute_at_the_tolerance_decides_as_the_element_loop(factor):
    # ||R_eps c - c|| = 2 sin(eps / 2) for the unit c: the pair is just inside or outside tol
    from oracles import generators_commute_loop

    tol = Truncation().tol
    eps = 2.0 * np.arcsin(factor * tol / 2.0)
    spec = IsometryGroupSpec(2, [IsometryElement(rotation_2d(eps), [0.0, 0.0]), translation([1.0, 0.0])])
    assert _generators_commute(spec) == generators_commute_loop(spec) == (factor < 1.0)


def test_certificate_builds_no_element(constructions):
    for spec in (pm_spec(), c6_spec(), oracle_specs()["helical_screw"]):
        constructions[0] = 0
        type_one_certificate(spec)
        assert constructions[0] == 0


def test_generated_group_stacks_are_read_only_and_match_elements():
    gen = generate(p4_spec(word_length=6, radius=4.0))
    with pytest.raises(ValueError):
        gen.q[0, 0, 0] = 2.0
    with pytest.raises(ValueError):
        gen.c[0, 0] = 2.0
    assert gen.order == len(gen.q) == len(gen.c) == len(gen.elements) == len(gen.word_lengths)
    assert np.array([e.q for e in gen.elements]).tobytes() == gen.q.tobytes()
    assert np.array([e.c for e in gen.elements]).tobytes() == gen.c.tobytes()
    assert gen.elements is gen.elements  # built once, on first read


# ---------------------------------------------------------------------------
# the sorted index: its window holds every pair within tol, at the boundary too


def planted_cloud(rng, tol, m, n=40, scale=50.0):
    """Rows and candidates in R^m with norms up to `scale`, some candidates planted
    at 0, 0.5, 1 - 1e-7, 1 and 1 + 1e-7 times tol from a row.  Half of them lie
    along the index's key direction, where only the rounding of the keys decides
    whether a pair within tol falls inside the window."""
    from zakspace.euclid import _SortedKeys

    unit = _SortedKeys(np.zeros((1, m))).unit
    rows = rng.uniform(-scale, scale, size=(n, m)) / np.sqrt(m)
    cands = [rng.uniform(-scale, scale, size=(n, m)) / np.sqrt(m)]
    for factor in (0.0, 0.5, 1 - 1e-7, 1.0, 1 + 1e-7):
        v = rng.normal(size=(n // 2, m))
        v /= np.linalg.norm(v, axis=1, keepdims=True)
        v[::2] = unit * rng.choice([-1.0, 1.0], size=(n // 4, 1))
        cands.append(rows[rng.integers(0, n, size=n // 2)] + factor * tol * v)
    cands = np.concatenate(cands)
    return rows, cands[rng.permutation(len(cands))]


def all_pairs(rows, cands, tol):
    """Sorted (k, r) with np.linalg.norm(rows[r] - cands[k]) < tol, by a scan of every pair."""
    k, r = np.divmod(np.arange(len(cands) * len(rows)), len(rows))
    close = np.linalg.norm(rows[r] - cands[k], axis=1) < tol
    return k[close], r[close]


@pytest.mark.parametrize("tol", [1e-9, 1e-3])
@pytest.mark.parametrize("m", [2, 6, 12])
def test_window_holds_every_pair_within_tol(tol, m):
    from oracles import accept_loop
    from zakspace.euclid import _accept, _SortedKeys

    rng = np.random.default_rng(m + int(1e4 * tol))
    rows, cands = planted_cloud(rng, tol, m)
    k, r, s = _SortedKeys(rows).window(cands, tol)
    assert not s.any()
    close = np.linalg.norm(rows[r] - cands[k], axis=1) < tol
    got = sorted(zip(k[close].tolist(), r[close].tolist()))
    expected = sorted(zip(*(a.tolist() for a in all_pairs(rows, cands, tol))))
    assert got == expected
    assert len(expected) >= 2 * (40 // 2)  # the planted pairs at 0 and 0.5 times tol at least
    assert _accept(rows, cands, tol).tolist() == accept_loop(rows, cands, tol)
    assert _accept(rows[:0], cands, tol).tolist() == accept_loop(rows[:0], cands, tol)


def test_torus_lookups_match_a_scan_over_every_offset():
    from zakspace.euclid import _norms, _point_pairs, _QuotientElements, _TorusReducer

    rng = np.random.default_rng(3)
    tol = 1e-6
    reducer = _TorusReducer(np.array([[2.0, 1.0], [0.0, 3.0]]))
    rows, cands = planted_cloud(rng, tol, 2, scale=2.0)
    cands = np.concatenate([cands, rows[:10] + reducer.offsets[rng.integers(0, 9, size=10)]])
    k, r = _point_pairs(reducer, rows, cands, tol)
    delta = rows[None, :, None, :] - cands[:, None, None, :] - reducer.offsets
    hit = (_norms(delta) < tol).any(axis=2)
    assert sorted(zip(k.tolist(), r.tolist())) == sorted(zip(*(a.tolist() for a in np.nonzero(hit))))

    q = np.array([rotation_2d(a) for a in rng.choice([0.0, np.pi / 2, np.pi], size=len(rows))])
    model = _QuotientElements(reducer, tol, q, rows)
    cand_q = q[np.arange(len(cands)) % len(rows)]
    qclose = _norms((q[None] - cand_q[:, None]).reshape(len(cands), len(rows), 4)) < tol
    first = [int(np.flatnonzero(row)[0]) if row.any() else -1 for row in qclose & hit]
    assert model.find(cand_q, cands).tolist() == first


@pytest.mark.parametrize("tol", [0.0, -1e-9, -1.0, float("nan")])
def test_tol_not_positive_identifies_nothing(tol):
    from oracles import accept_loop, generate_sequential, to_finite_action_scan
    from zakspace.euclid import _accept, _SortedKeys

    rows = np.zeros((3, 6))
    k, r, s = _SortedKeys(rows).window(rows, tol)  # np.repeat rejects negative counts
    assert len(k) == len(r) == len(s) == 0
    assert _accept(rows, rows, tol).tolist() == accept_loop(rows, rows, tol) == [0, 1, 2]

    spec = p4_spec(word_length=4, radius=3.0)
    spec.truncation.tol, spec.truncation.max_elements = tol, 30
    with pytest.raises(TruncationExceeded) as got:
        generate(spec)
    with pytest.raises(TruncationExceeded) as expected:
        generate_sequential(spec)
    assert_same_elements(got.value.partial, expected.value.partial)

    with pytest.raises(NotClosable) as got:
        to_finite_action(c6_spec(), [[1.0, 0.2]], tol=tol)
    with pytest.raises(NotClosable) as expected:
        to_finite_action_scan(c6_spec(), [[1.0, 0.2]], tol=tol)
    assert str(got.value) == str(expected.value)


def test_chain_in_one_layer_keeps_both_ends_like_the_oracle():
    # layer 2 holds (1, 1) + e, (1, 1) - e and (1, 1) - 3e with |2e| = 0.6 tol:
    # the middle one is dropped, and the last is kept because it is close only to it
    from oracles import generate_sequential

    tol = 1e-3
    e = np.array([0.3 * tol, 0.0])
    steps = [([1.0, 0.0] + e, [0.0, 1.0]), ([2.0, 0.0], [-1.0, 1.0] - e), ([3.0, 0.0], [-2.0, 1.0] - 3 * e)]
    spec = IsometryGroupSpec(
        2, [translation(v) for pair in steps for v in pair], Truncation(word_length=2, radius=10.0, tol=tol)
    )
    got, expected = generate(spec), generate_sequential(spec)
    assert_same_elements(got.elements, expected.elements)
    assert got.word_lengths == expected.word_lengths
    layer2 = got.c[np.array(got.word_lengths) == 2]
    near = layer2[np.linalg.norm(layer2 - [1.0, 1.0], axis=1) < 2 * tol]
    assert len(near) == 2 and np.allclose(np.sort(near[:, 0]), [1.0 - 3 * e[0], 1.0 + e[0]], atol=1e-12)
