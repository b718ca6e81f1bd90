"""JSON and binary codecs for the documented file formats.

Complex scalars and matrices are encoded as [re, im] pairs in row-major
order.  Group/action documents look like

    {"order": n, "table": [[...]], "points": m, "perm": [[...]], "weights": [...]}

with perm indexed by group element; weights are optional (default 1).
Zak coefficient files carry the coefficients plus enough orbit and dual
metadata to invert them; the binary flavor shares the "ZAK1" magic with
lattice grids and stores one record per (representative, irrep) block.
"""

from __future__ import annotations

import math
import operator
import struct

import numpy as np

from .actions import GroupAction, make_action
from .duals import DualObject, UnitaryIrrep, validate_dual
from .errors import ConfigError
from .groups import FiniteGroup, make_group
from .lattice import MAGIC
from .zak import ZakCoefficients, stack_blocks


def encode_complex(z: complex) -> list:
    return [float(np.real(z)), float(np.imag(z))]


def encode_matrix(m: np.ndarray) -> list:
    return [encode_complex(z) for z in np.asarray(m).ravel()]


def decode_matrix(entries, shape) -> np.ndarray:
    """Entries in row-major order, as decode_vector reads them, in a matrix of the given shape."""
    flat = decode_vector(entries)
    if flat.size != math.prod(shape):
        raise ConfigError(f"a {'x'.join(map(str, shape))} matrix needs {math.prod(shape)} entries, got {flat.size}")
    return flat.reshape(shape)


def encode_vector(v: np.ndarray) -> list:
    return [encode_complex(z) for z in np.asarray(v)]


def decode_vector(entries) -> np.ndarray:
    """A plain real list or a list of [re, im] pairs; anything else is a ConfigError."""
    try:
        arr = np.asarray(entries, dtype=float)
    except (TypeError, ValueError) as err:
        raise ConfigError(f"vector must be a list of numbers or of [re, im] pairs: {err}") from err
    if not np.all(np.isfinite(arr)):
        raise ConfigError("vector entries must be finite")
    if arr.ndim == 1:  # plain real list
        return arr.astype(complex)
    if arr.ndim != 2 or arr.shape[1] != 2:
        raise ConfigError(f"complex entries must be [re, im] pairs, got shape {list(arr.shape)}")
    out = np.empty(len(arr), dtype=complex)
    out.real, out.imag = arr[:, 0], arr[:, 1]
    return out


def _typed(value, kind: type, what: str):
    """value, if it is a kind (dict, list or str); anything else is a ConfigError."""
    if not isinstance(value, kind):
        raise ConfigError(f"{what} must be a {kind.__name__}, got {value!r:.40}")
    return value


def _fields(doc, keys, what: str) -> list:
    """doc[key] for each key; a ConfigError names the missing ones."""
    missing = [key for key in keys if key not in _typed(doc, dict, what)]
    if missing:
        raise ConfigError(f"{what} needs {missing}")
    return [doc[key] for key in keys]


def _integer(value, what: str, least: int) -> int:
    try:
        n = None if isinstance(value, bool) else operator.index(value)
    except TypeError:
        n = None
    if n is None or n < least:
        raise ConfigError(f"{what} must be an integer >= {least}, got {value!r}")
    return n


def _as_float(value) -> float | None:
    """value as a float, if it is a finite number (not a bool or a string), else None."""
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        return None
    try:
        x = float(value)
    except OverflowError:  # an int beyond the float range
        return None
    return x if math.isfinite(x) else None


def _finite(value, what: str) -> float:
    """value as a float, if it is a finite number (not a bool or a string)."""
    x = _as_float(value)
    if x is None:
        raise ConfigError(f"{what} must be a finite number, got {value!r:.40}")
    return x


def _positive(value, what: str) -> float:
    """value as a float, if it is a finite number > 0 (not a bool or a string)."""
    x = _as_float(value)
    if x is None or not x > 0:
        raise ConfigError(f"{what} must be a finite number > 0, got {value!r:.40}")
    return x


def _built(make, what: str, *args, **kwargs):
    """make(*args, **kwargs) on a document's entries; a ValueError or TypeError from them is a ConfigError."""
    try:
        return make(*args, **kwargs)
    except (TypeError, ValueError) as err:
        raise ConfigError(f"malformed {what}: {err}") from err


# ---------------------------------------------------------------------------
# groups and actions


def group_from_dict(doc: dict) -> FiniteGroup:
    if "table" not in doc:
        raise ConfigError("group document needs a 'table'")
    table = _typed(doc["table"], list, "group table")
    if "order" in doc and len(table) != _integer(doc["order"], "declared order", 1):
        raise ConfigError(f"declared order {doc['order']} != table size {len(table)}")
    return _built(make_group, "group table", table, name=doc.get("name"))


def action_from_dict(doc: dict) -> GroupAction:
    group = group_from_dict(doc)
    if "perm" not in doc:
        raise ConfigError("action document needs 'perm'")
    perm = _typed(doc["perm"], list, "perm")
    points = _integer(doc["points"], "declared points", 1) if "points" in doc else None
    if points is not None and perm and len(_typed(perm[0], list, "perm row")) != points:
        raise ConfigError(f"declared points {points} != perm width {len(perm[0])}")
    return _built(make_action, "action", group, perm, doc.get("weights"))


def action_to_dict(action: GroupAction) -> dict:
    return {
        "order": action.group.order,
        "table": action.group.table.tolist(),
        "points": action.npoints,
        "perm": action.perm.tolist(),
        "weights": action.weights.tolist(),
    }


# ---------------------------------------------------------------------------
# duals


def dual_to_dict(dual: DualObject) -> dict:
    return {
        "order": dual.group.order,
        "table": dual.group.table.tolist(),
        "irreps": [
            {"label": s.label, "dim": s.dim, "matrices": [encode_matrix(m) for m in s.matrices]}
            for s in dual.irreps
        ],
    }


def dual_from_dict(doc: dict) -> DualObject:
    table, items = _fields(doc, ("table", "irreps"), "dual document")
    group = _built(make_group, "group table", table)
    irreps = []
    for item in _typed(items, list, "irreps"):
        label, dim, matrices = _fields(item, ("label", "dim", "matrices"), "irrep")
        d = _integer(dim, "irrep dim", 1)
        if len(_typed(matrices, list, "irrep matrices")) != group.order:
            raise ConfigError(f"irrep {label} needs one matrix per group element")
        mats = np.stack([decode_matrix(m, (d, d)) for m in matrices])
        irreps.append(UnitaryIrrep(_typed(label, str, "irrep label"), d, mats))
    dual = DualObject(group, irreps)
    validate_dual(dual)
    return dual


# ---------------------------------------------------------------------------
# Zak coefficients


def zak_to_dict(coeffs: ZakCoefficients) -> dict:
    decomp = coeffs.structure.decomp
    return {
        "action": action_to_dict(coeffs.action),
        "dual": dual_to_dict(coeffs.dual),
        "representatives": list(map(int, decomp.representatives)),
        "blocks": [
            {
                "x0": int(x0),
                "label": label,
                "dim": coeffs.data[(x0, label)].shape[0],
                "values": encode_matrix(coeffs.data[(x0, label)]),
            }
            for (x0, label) in sorted(coeffs.data, key=lambda k: (k[0], k[1]))
        ],
        "f_norm": coeffs.f_norm,
    }


def zak_from_dict(doc: dict) -> ZakCoefficients:
    action_doc, dual_doc, items = _fields(doc, ("action", "dual", "blocks"), "zak document")
    action = action_from_dict(action_doc)
    dual = dual_from_dict(dual_doc)
    data = {}
    for item in _typed(items, list, "blocks"):
        x0, label, dim, values = _fields(item, ("x0", "label", "dim", "values"), "zak block")
        d = _integer(dim, "block dim", 1)
        data[(_integer(x0, "block x0", 0), _typed(label, str, "block label"))] = decode_matrix(values, (d, d))
    f_norm = doc.get("f_norm", 1.0)
    if not (isinstance(f_norm, (int, float)) and math.isfinite(f_norm)):
        raise ConfigError(f"f_norm must be a finite number, got {f_norm!r}")
    coeffs = ZakCoefficients(action, dual, stack_blocks(action, dual, data), float(f_norm))
    coeffs.check_invariants()
    return coeffs


def zak_to_bytes(coeffs: ZakCoefficients) -> bytes:
    """MAGIC, record count, then (x0, label, dim, re/im float64) records."""
    keys = sorted(coeffs.data, key=lambda k: (k[0], k[1]))
    out = [MAGIC, struct.pack("<I", len(keys))]
    for x0, label in keys:
        block = coeffs.data[(x0, label)]
        lab = label.encode()
        out.append(struct.pack("<III", x0, len(lab), block.shape[0]))
        out.append(lab)
        body = np.empty(2 * block.size, dtype="<f8")
        body[0::2], body[1::2] = block.real.ravel(), block.imag.ravel()
        out.append(body.tobytes())
    return b"".join(out)


def zak_blocks_from_bytes(raw: bytes) -> dict:
    """Recover the (x0, label) -> matrix table from the binary record stream."""
    if raw[:4] != MAGIC:
        raise ConfigError("bad magic, not a zak binary file")
    (count,) = struct.unpack_from("<I", raw, 4)
    off = 8
    blocks = {}
    for _ in range(count):
        x0, lab_len, d = struct.unpack_from("<III", raw, off)
        off += 12
        label = raw[off : off + lab_len].decode()
        off += lab_len
        arr = np.frombuffer(raw, dtype="<f8", count=2 * d * d, offset=off)
        off += 16 * d * d
        blocks[(int(x0), label)] = (arr[0::2] + 1j * arr[1::2]).reshape(d, d)
    return blocks
