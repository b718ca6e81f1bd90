"""Planted defects for the oracle tests, and the comparison of two code paths on them."""

from __future__ import annotations

import numpy as np

from zakspace.duals import DualObject, UnitaryIrrep
from zakspace.zak import ZakCoefficients, stack_blocks


def broken_dual(dual: DualObject, rng: np.random.Generator, elements, scale: float = 1e-3) -> DualObject:
    """The dual with sigma(g) of every irrep moved off a homomorphism at the given elements."""
    irreps = []
    for s in dual.irreps:
        mats = s.matrices.copy()
        for g in elements:
            mats[g] += scale * (rng.normal(size=(s.dim, s.dim)) + 1j * rng.normal(size=(s.dim, s.dim)))
        irreps.append(UnitaryIrrep(s.label, s.dim, mats))
    return DualObject(dual.group, irreps)


def perturbed_coefficients(coeffs: ZakCoefficients, rng: np.random.Generator, keys, scale: float = 1e-6):
    """A copy of the Zak table with noise added to the blocks named by keys; nothing is checked."""
    data = {key: np.array(block) for key, block in coeffs.data.items()}
    for key in keys:
        data[key] = data[key] + scale * (rng.normal(size=data[key].shape) + 1j * rng.normal(size=data[key].shape))
    return ZakCoefficients(coeffs.action, coeffs.dual, stack_blocks(coeffs.action, coeffs.dual, data), coeffs.f_norm)


def outcome(fn, *args, **kwargs):
    """("raised", type, message) or ("returned", value)."""
    try:
        return ("returned", fn(*args, **kwargs))
    except Exception as exc:  # noqa: BLE001 - the exception itself is what is compared
        return ("raised", type(exc), str(exc))


def assert_same_outcome(got, want, close, message=lambda text: text) -> None:
    """Both raised the same exception with the same message(text), or close(got, want) holds."""
    assert got[0] == want[0], (got, want)
    if got[0] == "raised":
        assert got[1] == want[1] and message(got[2]) == message(want[2]), (got, want)
    else:
        assert close(got[1], want[1]), (got[1], want[1])
