import numpy as np
import pytest

from zakspace.duals import irreps
from zakspace.errors import DensityNotInvariant, NotTransverse, SampleSetNotClosed, ShapeMismatch
from zakspace.euclid import (
    IsometryElement,
    IsometryGroupSpec,
    act,
    generate,
    isometry_finite_group,
    rotation_z,
    translation,
)
from zakspace.radiation import (
    ScatteringSetup,
    VectorField,
    _point_permutation,
    act_field,
    density_fourier,
    plane_wave,
    radiation_transform,
    symmetry_projected_transform,
    symmetry_projection,
)


def c4_elements():
    spec = IsometryGroupSpec(3, [IsometryElement(rotation_z(np.pi / 2), [0.0, 0.0, 0.0])])
    return generate(spec).elements


def two_ring_points():
    """Eight points on two C4-invariant rings, away from the axis."""
    pts = []
    for radius, z, offset in ((1.0, 0.3, 0.0), (1.7, -0.2, 0.4)):
        for j in range(4):
            a = offset + j * np.pi / 2
            pts.append([radius * np.cos(a), radius * np.sin(a), z])
    return np.array(pts)


def ring_density():
    return np.array([0.8] * 4 + [1.3] * 4)


def transverse_pair(rng):
    k = rng.normal(size=3)
    n = rng.normal(size=3) + 1j * rng.normal(size=3)
    n = n - (np.dot(n, k) / np.dot(k, k)) * k
    return k, n


def test_plane_wave_constant_when_k_zero():
    pw = plane_wave([0.0, 0.0, 0.0], [1.0, 2.0, 0.0], two_ring_points())
    assert np.max(np.abs(pw.values - np.array([1.0, 2.0, 0.0]))) < 1e-15


def test_plane_wave_modulus():
    rng = np.random.default_rng(0)
    k, n = transverse_pair(rng)
    pw = plane_wave(k, n, two_ring_points())
    norms = np.linalg.norm(pw.values, axis=1)
    assert np.allclose(norms, np.linalg.norm(n), atol=1e-12)


def test_plane_wave_phases():
    rng = np.random.default_rng(1)
    k, n = transverse_pair(rng)
    pts = two_ring_points()
    pw = plane_wave(k, n, pts)
    ratio = pw.values[3, 0] / pw.values[5, 0]
    expected = np.exp(1j * np.dot(k, pts[3] - pts[5]))
    assert ratio == pytest.approx(expected, abs=1e-12)


def test_plane_wave_requires_transversality():
    with pytest.raises(NotTransverse):
        plane_wave([1.0, 0.0, 0.0], [1.0, 0.0, 0.0], two_ring_points())


def test_act_field_identity():
    rng = np.random.default_rng(2)
    k, n = transverse_pair(rng)
    pw = plane_wave(k, n, two_ring_points())
    moved = act_field(c4_elements()[0], pw)
    assert np.max(np.abs(moved.values - pw.values)) < 1e-12


def test_translation_modulates_plane_wave():
    # (I|c) E^(k) = exp(-i k.c) E^(k), by substituting into the field action
    rng = np.random.default_rng(3)
    k, n = transverse_pair(rng)
    pts = two_ring_points()
    c = rng.normal(size=3)
    moved = plane_wave(k, n, pts - c).values  # Q = I: E(x - c) sampled directly
    expected = np.exp(-1j * np.dot(k, c)) * plane_wave(k, n, pts).values
    assert np.max(np.abs(moved - expected)) < 1e-12


def test_act_field_equivariance_random_pairs():
    # g E^(k) = exp(-i (Qk).c) E^(Qk) with polarization Qn, on a closed set
    rng = np.random.default_rng(13)
    els = c4_elements()
    pts = two_ring_points()
    for _ in range(20):
        k, n = transverse_pair(rng)
        g = els[rng.integers(len(els))]
        moved = act_field(g, plane_wave(k, n, pts))
        expected = np.exp(-1j * np.dot(g.q @ k, g.c)) * plane_wave(
            g.q @ k, g.q @ n, pts
        ).values
        assert np.max(np.abs(moved.values - expected)) < 1e-11


def test_act_field_group_law():
    rng = np.random.default_rng(4)
    k, n = transverse_pair(rng)
    pw = plane_wave(k, n, two_ring_points())
    els = c4_elements()
    from zakspace.euclid import compose

    for g in els:
        for h in els:
            lhs = act_field(g, act_field(h, pw)).values
            rhs = act_field(compose(g, h), pw).values
            assert np.max(np.abs(lhs - rhs)) < 1e-12


def test_act_field_rejects_open_sample_set():
    rng = np.random.default_rng(5)
    k, n = transverse_pair(rng)
    pts = two_ring_points()[:3]  # broken ring
    pw = plane_wave(k, n, pts)
    with pytest.raises(SampleSetNotClosed):
        act_field(c4_elements()[1], pw)


def test_radiation_transform_orthogonal_to_s0():
    rng = np.random.default_rng(6)
    k, n = transverse_pair(rng)
    pts = two_ring_points()
    pw = plane_wave(k, n, pts)
    s0 = np.array([0.0, 0.6, 0.8])
    setup = ScatteringSetup(pts, np.ones(8), ring_density(), omega=2.0, c_light=1.0, s0=s0)
    out = radiation_transform(pw, setup)
    assert abs(np.dot(s0, out)) < 1e-12


def test_radiation_transform_zero_density():
    rng = np.random.default_rng(7)
    k, n = transverse_pair(rng)
    pw = plane_wave(k, n, two_ring_points())
    setup = ScatteringSetup(two_ring_points(), np.ones(8), np.zeros(8), omega=2.0, c_light=1.0, s0=[0.0, 0.0, 1.0])
    assert np.max(np.abs(radiation_transform(pw, setup))) == 0.0


def test_radiation_transform_is_projected_fourier():
    rng = np.random.default_rng(8)
    k, n = transverse_pair(rng)
    pts = two_ring_points()
    density = ring_density()
    pw = plane_wave(k, n, pts)
    s0 = np.array([0.48, -0.6, 0.64])
    s0 = s0 / np.linalg.norm(s0)
    setup = ScatteringSetup(pts, np.ones(8), density, omega=3.0, c_light=1.5, s0=s0)
    out = radiation_transform(pw, setup)
    ell = setup.wavenumber * s0 - k
    expected = setup.projector() @ (n * density_fourier(pts, np.ones(8), density, ell))
    assert np.max(np.abs(out - expected)) < 1e-12


def test_recovery_identity_c4():
    rng = np.random.default_rng(9)
    elements = c4_elements()
    group = isometry_finite_group(elements)
    dual = irreps(group)
    pts = two_ring_points()
    density = ring_density()
    k, n = transverse_pair(rng)
    for s0 in ([0.0, 0.0, 1.0], [0.6, 0.0, 0.8], [-0.6, 0.64, 0.48]):
        s0 = np.asarray(s0) / np.linalg.norm(s0)
        setup = ScatteringSetup(pts, np.ones(8), density, omega=2.2, c_light=1.0, s0=s0)
        report = symmetry_projected_transform(elements, dual, k, n, setup)
        assert report.residual < 1e-9


def test_recovery_trivial_group():
    rng = np.random.default_rng(10)
    e = c4_elements()[:1]
    group = isometry_finite_group(e)
    dual = irreps(group)
    pts = two_ring_points()
    k, n = transverse_pair(rng)
    setup = ScatteringSetup(pts, np.ones(8), ring_density(), omega=1.0, c_light=1.0, s0=[0.0, 0.8, 0.6])
    report = symmetry_projected_transform(e, dual, k, n, setup)
    assert report.residual < 1e-12
    pw = plane_wave(k, n, pts)
    direct = radiation_transform(pw, setup)
    assert np.max(np.abs(report.combined - direct)) < 1e-12


def test_recovery_rejects_noninvariant_density():
    rng = np.random.default_rng(11)
    elements = c4_elements()
    group = isometry_finite_group(elements)
    dual = irreps(group)
    k, n = transverse_pair(rng)
    density = ring_density()
    density[0] += 0.5  # break one orbit
    setup = ScatteringSetup(
        two_ring_points(), np.ones(8), density, omega=1.0, c_light=1.0, s0=[0.0, 0.0, 1.0]
    )
    with pytest.raises(DensityNotInvariant):
        symmetry_projected_transform(elements, dual, k, n, setup)


def test_linearity_in_density_and_field():
    rng = np.random.default_rng(12)
    k, n = transverse_pair(rng)
    pts = two_ring_points()
    pw = plane_wave(k, n, pts)
    d1, d2 = ring_density(), rng.normal(size=8) ** 2 + 0.1
    s0 = np.array([0.0, 0.6, 0.8])
    r1 = radiation_transform(pw, ScatteringSetup(pts, np.ones(8), d1, 2.0, 1.0, s0))
    r2 = radiation_transform(pw, ScatteringSetup(pts, np.ones(8), d2, 2.0, 1.0, s0))
    r12 = radiation_transform(pw, ScatteringSetup(pts, np.ones(8), d1 + 2.0 * d2, 2.0, 1.0, s0))
    assert np.max(np.abs(r12 - r1 - 2.0 * r2)) < 1e-10
    doubled = VectorField(pts, pw.weights, 2.0 * pw.values)
    assert np.max(
        np.abs(radiation_transform(doubled, ScatteringSetup(pts, np.ones(8), d1, 2.0, 1.0, s0)) - 2.0 * r1)
    ) < 1e-10


def test_projector_properties():
    s0 = np.array([0.0, 0.6, 0.8])
    setup = ScatteringSetup(np.zeros((1, 3)), np.ones(1), np.ones(1), 1.0, 1.0, s0)
    p = setup.projector()
    assert np.max(np.abs(p @ p - p)) < 1e-12
    assert np.linalg.matrix_rank(p) == 2
    assert np.max(np.abs(p @ s0)) < 1e-12


def test_recovery_accepts_group_spec_directly():
    from zakspace.euclid import IsometryGroupSpec

    rng = np.random.default_rng(14)
    spec = IsometryGroupSpec(3, [IsometryElement(rotation_z(np.pi / 2), [0.0, 0.0, 0.0])])
    group = isometry_finite_group(generate(spec).elements)
    dual = irreps(group)
    pts = two_ring_points()
    k, n = transverse_pair(rng)
    setup = ScatteringSetup(pts, np.ones(8), ring_density(), 2.0, 1.0, [0.0, 0.6, 0.8])
    report = symmetry_projected_transform(spec, dual, k, n, setup)
    assert report.residual < 1e-9


def c4_setup_args():
    return {
        "points": two_ring_points(), "weights": np.ones(8), "density": ring_density(),
        "omega": 2.2, "c_light": 1.0, "s0": np.array([0.0, 0.6, 0.8]),
    }


@pytest.mark.parametrize(
    "key, index, bad",
    [
        ("points", (3, 1), np.nan),
        ("weights", 2, np.inf),
        ("density", 5, np.nan),
        ("omega", None, np.nan),
        ("c_light", None, np.inf),
        ("s0", 0, np.nan),
        ("points", (0, 2), -np.inf),
        ("weights", 7, np.nan),
        ("density", 0, np.inf),
        ("density", 3, -np.inf),
        ("omega", None, -np.inf),
        ("c_light", None, np.nan),
        ("s0", 2, np.inf),
    ],
)
def test_scattering_setup_rejects_non_finite(key, index, bad):
    args = c4_setup_args()
    if index is None:
        args[key] = bad
    else:
        args[key] = np.array(args[key], dtype=float)
        args[key][index] = bad
    with pytest.raises(ShapeMismatch):
        ScatteringSetup(**args)


@pytest.mark.parametrize(
    "key, index, huge",
    [("points", (3, 1), 1e308), ("density", 5, -1e308), ("weights", 2, 1e308), ("omega", None, 1e308), ("c_light", None, 1e308)],
)
def test_scattering_setup_accepts_huge_finite_values(key, index, huge):
    args = c4_setup_args()
    if index is None:
        args[key] = huge
    else:
        args[key] = np.array(args[key], dtype=float)
        args[key][index] = huge
    ScatteringSetup(**args)


@pytest.mark.parametrize("c_light", [0.0, -1.0])
def test_scattering_setup_rejects_nonpositive_light_speed(c_light):
    with pytest.raises(ShapeMismatch):
        ScatteringSetup(**{**c4_setup_args(), "c_light": c_light})


# ---------------------------------------------------------------------------
# the batched permutations and projections against the loops in oracles.py


def d6_orbit_points(rng):
    spec = IsometryGroupSpec(
        3,
        [
            IsometryElement(rotation_z(np.pi / 3), [0.0, 0.0, 0.0]),
            IsometryElement(np.diag([1.0, -1.0, -1.0]), [0.0, 0.0, 0.0]),
        ],
    )
    elements = generate(spec).elements
    return elements, np.array([act(e, s) for s in rng.normal(size=(2, 3)) for e in elements])


def test_point_permutation_matches_loop_oracle():
    from oracles import point_permutation_loop

    elements, pts = d6_orbit_points(np.random.default_rng(21))
    for els, points in ((elements, pts), (c4_elements(), two_ring_points())):
        perms = _point_permutation(points, np.array([g.q for g in els]), np.array([g.c for g in els]))
        for g, perm in zip(els, perms, strict=True):
            assert np.array_equal(perm, point_permutation_loop(points, g))


def test_point_permutation_open_set_raises_like_oracle():
    from oracles import point_permutation_loop

    elements, pts = d6_orbit_points(np.random.default_rng(22))
    pts[7] += [0.0, 1e-6, 0.0]
    for g in elements[1:]:
        with pytest.raises(SampleSetNotClosed) as got:
            _point_permutation(pts, g.q[None], g.c[None])
        with pytest.raises(SampleSetNotClosed) as expected:
            point_permutation_loop(pts, g)
        assert np.array_equal(got.value.point, expected.value.point)


def test_symmetry_projection_matches_loop_oracle():
    from oracles import symmetry_projection_loop

    rng = np.random.default_rng(23)
    elements, pts = d6_orbit_points(rng)
    dual = irreps(isometry_finite_group(elements))
    k, n = transverse_pair(rng)
    field = plane_wave(k, n, pts)
    for s in dual.irreps:
        got = symmetry_projection(field, elements, s.matrices)
        assert np.max(np.abs(got - symmetry_projection_loop(field, elements, s.matrices))) < 1e-12


def test_stacked_open_set_raises_at_the_first_open_element_like_oracle():
    from oracles import point_permutation_loop

    elements, pts = d6_orbit_points(np.random.default_rng(24))
    pts[7] += [0.0, 1e-6, 0.0]
    q, c = np.array([g.q for g in elements]), np.array([g.c for g in elements])
    with pytest.raises(SampleSetNotClosed) as got:
        _point_permutation(pts, q, c)
    with pytest.raises(SampleSetNotClosed) as expected:
        for g in elements:
            point_permutation_loop(pts, g)
    assert np.array_equal(got.value.point, expected.value.point)


def test_projected_transform_makes_one_batched_permutation_call(monkeypatch):
    from zakspace import radiation

    calls = []
    permutation = radiation._point_permutation

    def counted(points, q, c):
        calls.append(len(q))
        return permutation(points, q, c)

    monkeypatch.setattr(radiation, "_point_permutation", counted)
    elements = c4_elements()
    setup = ScatteringSetup(two_ring_points(), np.ones(8), ring_density(), omega=2.2, c_light=1.0, s0=[0.0, 0.0, 1.0])
    k, n = transverse_pair(np.random.default_rng(25))
    assert symmetry_projected_transform(elements, irreps(isometry_finite_group(elements)), k, n, setup).residual < 1e-9
    assert calls == [4]
