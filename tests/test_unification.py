"""The Zak transform contains the earlier transforms as special cases.

The lattice Zak transform is the finite Zak transform of the cell
translations C_N acting on a ring of N cells with M sites each, against the
cyclic dual; the group Fourier transform is the finite Zak transform of the
left-regular action at the identity.
"""

import numpy as np
import pytest

from zakspace.actions import translation_action
from zakspace.bloch import ring_translation_action
from zakspace.duals import irreps
from zakspace.fixtures import random_complex
from zakspace.fourier import fourier
from zakspace.groups import dihedral_group, symmetric_group
from zakspace.lattice import classic_zak
from zakspace.zak import zak


@pytest.mark.parametrize("m", [1, 3, 4])
@pytest.mark.parametrize("n", [1, 6])
def test_cyclic_zak_on_the_ring_is_the_lattice_zak(m, n):
    action = ring_translation_action(m, n)
    dual = irreps(action.group)
    f = random_complex(np.random.default_rng(10 * m + n), m * n)
    coeffs = zak(action, f, dual)
    grid = classic_zak(f, m)
    assert coeffs.structure.decomp.representatives == list(range(m))
    for s in dual.irreps:
        # chi_j(1) = exp(2 pi i j / N) names the wave index j
        j = int(round(np.angle(s.matrices[1 % n, 0, 0]) * n / (2 * np.pi))) % n
        for x0 in range(m):
            assert abs(coeffs.value(x0, s.label) - grid.values[x0, j]) <= 1e-12


@pytest.mark.parametrize("group", [symmetric_group(3), symmetric_group(4), dihedral_group(5)], ids=["S3", "S4", "D5"])
def test_regular_zak_at_the_identity_is_the_group_fourier_transform(group):
    dual = irreps(group)
    f = random_complex(np.random.default_rng(group.order), group.order)
    # with f'(g) = f(g^-1) the orbit function g -> f'(g^-1 e) is f itself
    coeffs = zak(translation_action(group), f[group.inverses], dual)
    assert coeffs.structure.decomp.representatives == [group.identity]
    fhat = fourier(f, dual)
    for s in dual.irreps:
        assert np.array_equal(coeffs[(group.identity, s.label)], fhat[s.label])
