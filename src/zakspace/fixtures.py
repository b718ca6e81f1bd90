"""Bundled actions and models for `suite all`, the acceptance tests and the CLI.

Each action constructor returns a fresh validated GroupAction; names are
stable and appear in verification reports.  The D3 invariant operator, the
C4 scattering model and the certificate specs are built here once, so the
suite and the acceptance battery check the same objects.
"""

from __future__ import annotations

import numpy as np

from . import euclid
from .actions import GroupAction, make_action, translation_action
from .groups import FiniteGroup, cyclic_group, dihedral_group, symmetric_group
from .radiation import ScatteringSetup


def z2_swap() -> GroupAction:
    """Free swap of two points, unit weights."""
    return make_action(cyclic_group(2), [[0, 1], [1, 0]])


def z2_swap_weighted() -> GroupAction:
    """Quasi-invariant weights w = (1, 2) on the swap."""
    return make_action(cyclic_group(2), [[0, 1], [1, 0]], weights=[1.0, 2.0])


def z2_fixed_point() -> GroupAction:
    """Swap of {0,1} with the extra point 2 held fixed."""
    return make_action(cyclic_group(2), [[0, 1, 2], [1, 0, 2]])


def z4_rotation() -> GroupAction:
    """Z4 rotating a 4-cycle of points."""
    g = cyclic_group(4)
    perm = [[(x + a) % 4 for x in range(4)] for a in range(4)]
    return make_action(g, perm)


def c6_ring() -> GroupAction:
    """Z6 rotating a 6-site ring, the band-structure workhorse."""
    g = cyclic_group(6)
    perm = [[(x + a) % 6 for x in range(6)] for a in range(6)]
    return make_action(g, perm)


def c6_ring_with_center() -> GroupAction:
    """6-site ring plus the fixed center point 6."""
    g = cyclic_group(6)
    perm = [[(x + a) % 6 for x in range(6)] + [6] for a in range(6)]
    return make_action(g, perm)


def s3_translation() -> GroupAction:
    """S3 acting on itself by left translation (free, one orbit)."""
    return translation_action(symmetric_group(3))


def d3_flags() -> GroupAction:
    """D3 acting on its 6 flags by left translation: free and transitive."""
    return translation_action(dihedral_group(3))


def d3_triangle() -> GroupAction:
    """D3 on the 3 triangle vertices: transitive with order-2 stabilizers.

    Element a + 3b encodes r^a s^b; r rotates the vertices, s fixes 0.
    """
    g = dihedral_group(3)
    perm = []
    for e in g.elements():
        a, b = e % 3, e // 3
        row = []
        for x in range(3):
            y = (-x) % 3 if b else x  # reflection fixing vertex 0
            row.append((y + a) % 3)
        perm.append(row)
    return make_action(g, perm)


def weighted_fixed_point() -> GroupAction:
    """Fixed-point action with non-uniform (orbit-respecting) weights."""
    return make_action(
        cyclic_group(2), [[0, 1, 2], [1, 0, 2]], weights=[1.5, 3.0, 0.5]
    )


BUNDLED_ACTIONS = {
    "z2_swap": z2_swap,
    "z2_swap_weighted": z2_swap_weighted,
    "z2_fixed_point": z2_fixed_point,
    "z4_rotation": z4_rotation,
    "c6_ring": c6_ring,
    "c6_ring_with_center": c6_ring_with_center,
    "s3_translation": s3_translation,
    "d3_flags": d3_flags,
    "d3_triangle": d3_triangle,
    "weighted_fixed_point": weighted_fixed_point,
}


def random_complex(rng: np.random.Generator, n: int) -> np.ndarray:
    return rng.normal(size=n) + 1j * rng.normal(size=n)


def s3_transposition_subgroup(group: FiniteGroup) -> list[int]:
    """The order-2 subgroup generated by the transposition (0 1) in S3."""
    perms = getattr(group, "permutations", None)
    if perms is None:
        raise ValueError("expected a group built by symmetric_group")
    swap = tuple([1, 0] + list(range(2, len(perms[0]))))
    return [group.identity, perms.index(swap)]


def d3_invariant_operator(rng: np.random.Generator) -> tuple[GroupAction, np.ndarray]:
    """d3_flags with a random Hermitian operator averaged over the group."""
    action = d3_flags()
    raw = rng.normal(size=(6, 6)) + 1j * rng.normal(size=(6, 6))
    raw = raw + raw.conj().T
    h = sum(
        action.permutation_matrix(g) @ raw @ action.permutation_matrix(g).T
        for g in action.group.elements()
    )
    return action, h


def c4_scatterer(rng: np.random.Generator) -> tuple[list, np.ndarray, np.ndarray, list]:
    """The C4 radiation model: (elements, k, n, setups).

    The quarter turns about the z axis act on two square rings of density
    samples; (k, n) is a random transverse plane wave, and there is one
    setup per outgoing direction on a 16-point golden spiral.
    """
    spec = euclid.IsometryGroupSpec(
        3, [euclid.IsometryElement(euclid.rotation_z(np.pi / 2), [0.0, 0.0, 0.0])]
    )
    elements = euclid.generate(spec).elements
    pts = []
    for radius, z, offset in ((1.0, 0.3, 0.0), (1.7, -0.2, 0.4)):
        for j in range(4):
            a = offset + j * np.pi / 2
            pts.append([radius * np.cos(a), radius * np.sin(a), z])
    pts = np.array(pts)
    density = np.array([0.8] * 4 + [1.3] * 4)
    k = rng.normal(size=3)
    n = rng.normal(size=3) + 1j * rng.normal(size=3)
    n = n - (np.dot(n, k) / np.dot(k, k)) * k
    setups = []
    golden = np.pi * (3.0 - np.sqrt(5.0))
    for i in range(16):
        zc = 1.0 - 2.0 * (i + 0.5) / 16.0
        r = np.sqrt(1.0 - zc * zc)
        s0 = np.array([r * np.cos(golden * i), r * np.sin(golden * i), zc])
        setups.append(ScatteringSetup(pts, np.ones(8), density, omega=2.2, c_light=1.0, s0=s0))
    return elements, k, n, setups


def certificate_specs() -> dict:
    """The four type-I certificate cases, by report name.

    A hexagonal point group, the pm wallpaper group, a 7-fold screw, and pm
    again under a truncation too tight to certify.
    """
    mirror = euclid.IsometryElement(np.diag([1.0, -1.0]), [0.0, 0.0])
    pm = [euclid.translation([1.0, 0.0]), euclid.translation([0.0, 1.0]), mirror]
    return {
        "finite_point_group": euclid.IsometryGroupSpec(
            2, [euclid.IsometryElement(euclid.rotation_2d(np.pi / 3), [0.0, 0.0])]
        ),
        "pm_space_group": euclid.IsometryGroupSpec(
            2, pm, euclid.Truncation(word_length=12, radius=6.0, max_elements=4000)
        ),
        "helical_screw": euclid.IsometryGroupSpec(
            3, [euclid.screw(2 * np.pi / 7, 0.5)], euclid.Truncation(word_length=16, radius=10.0)
        ),
        "honest_inconclusive": euclid.IsometryGroupSpec(
            2, pm, euclid.Truncation(word_length=2, radius=3.0)
        ),
    }
