import numpy as np
import pytest

from zakspace.actions import orbits, stabilizer
from zakspace.errors import DimensionMismatch, NotClosable, TruncationExceeded
from zakspace.euclid import (
    IsometryElement,
    IsometryGroupSpec,
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


def oracle_specs():
    from zakspace.fixtures import certificate_specs

    specs = {"p4": p4_spec(), "d6": d6_spec()}
    specs.update({f"pm_{a}": rotated_pm_spec(a) for a in (0.0, 0.7, 2.1)})
    specs.update(certificate_specs())
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


def test_isometry_finite_group_matches_scan_oracle():
    from oracles import isometry_table_scan

    elements = generate(d6_spec()).elements
    assert np.array_equal(isometry_finite_group(elements).table, isometry_table_scan(elements))


@pytest.mark.parametrize(
    "q, c",
    [
        ([[np.nan, 0.0], [0.0, 1.0]], [0.0, 0.0]),
        ([[np.inf, 0.0], [0.0, 1.0]], [0.0, 0.0]),
        ([[1.0, 0.0], [0.0, 1.0]], [np.nan, 0.0]),
        ([[1.0, 0.0], [0.0, 1.0]], [0.0, -np.inf]),
    ],
)
def test_isometry_rejects_non_finite(q, c):
    with pytest.raises(DimensionMismatch):
        IsometryElement(np.array(q), np.array(c))


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
