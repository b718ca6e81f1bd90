import json

import numpy as np
import pytest

from zakspace.duals import irreps
from zakspace.errors import ConfigError, InvariantViolation
from zakspace.fixtures import random_complex, s3_translation, z2_fixed_point
from zakspace.serialize import (
    action_from_dict,
    action_to_dict,
    dual_from_dict,
    dual_to_dict,
    encode_vector,
    group_from_dict,
    zak_blocks_from_bytes,
    zak_from_bytes,
    zak_from_dict,
    zak_to_bytes,
    zak_to_dict,
)
from zakspace.zak import zak, zak_inverse


def test_action_roundtrip():
    action = z2_fixed_point()
    back = action_from_dict(action_to_dict(action))
    assert np.array_equal(back.perm, action.perm)
    assert np.array_equal(back.weights, action.weights)


def test_group_doc_order_mismatch():
    with pytest.raises(ConfigError):
        group_from_dict({"order": 3, "table": [[0, 1], [1, 0]]})


def test_dual_roundtrip_s3():
    dual = irreps(s3_translation().group)
    back = dual_from_dict(dual_to_dict(dual))
    assert back.labels == dual.labels
    for a, b in zip(back.irreps, dual.irreps):
        assert np.max(np.abs(a.matrices - b.matrices)) < 1e-15


def test_zak_json_roundtrip_preserves_inversion():
    action = s3_translation()
    dual = irreps(action.group)
    rng = np.random.default_rng(0)
    f = random_complex(rng, 6)
    coeffs = zak(action, f, dual)
    back = zak_from_dict(zak_to_dict(coeffs))
    assert np.max(np.abs(zak_inverse(back) - f)) < 1e-11


def test_zak_binary_blocks():
    action = z2_fixed_point()
    dual = irreps(action.group)
    rng = np.random.default_rng(1)
    f = random_complex(rng, 3)
    coeffs = zak(action, f, dual)
    blocks = zak_blocks_from_bytes(zak_to_bytes(coeffs))
    assert set(blocks) == set(coeffs.data)
    for key in blocks:
        assert np.max(np.abs(blocks[key] - coeffs.data[key])) < 1e-15


def test_zak_binary_bad_magic():
    with pytest.raises(ConfigError):
        zak_blocks_from_bytes(b"NOPE" + b"\x00" * 16)


def test_zak_container_holds_the_table_and_what_inverts_it():
    action = s3_translation()
    dual = irreps(action.group)
    f = random_complex(np.random.default_rng(2), 6)
    coeffs = zak(action, f, dual)
    raw = zak_to_bytes(coeffs)
    assert raw[:4] == b"ZAKF"
    back = zak_from_bytes(raw)
    assert back.f_norm == coeffs.f_norm
    assert back.dual.labels == dual.labels
    assert np.array_equal(back.action.perm, action.perm)
    assert all(np.array_equal(a, b) for a, b in zip(back.blocks, coeffs.blocks))
    assert np.max(np.abs(zak_inverse(back) - f)) < 1e-11


def test_zak_container_checks_the_invariants_it_reads():
    action = z2_fixed_point()
    coeffs = zak(action, np.array([1.0, 2.0, 3.0]), irreps(action.group))
    body = b"".join(np.asarray(z, dtype="<c16").tobytes() for z in coeffs.blocks)
    raw = zak_to_bytes(coeffs)
    broken = bytearray(raw)
    broken[-len(body) :] = np.full(len(body) // 16, 1.0 + 0.0j, dtype="<c16").tobytes()  # nonzero off-support blocks
    with pytest.raises(InvariantViolation):
        zak_from_bytes(bytes(broken))


def test_encode_vector_writes_the_bytes_of_the_per_entry_encoder():
    reals = np.array([-0.0, 0.0, 5e-324, -2.5e-310, 1e308, -1e308, 1.5, np.pi])
    for v in (reals, reals[:, None] + 1j * reals[None, :], np.array([complex(-0.0, -0.0)]), np.arange(3)):
        per_entry = [[float(np.real(z)), float(np.imag(z))] for z in np.asarray(v).ravel()]
        assert json.dumps(encode_vector(v)) == json.dumps(per_entry)
