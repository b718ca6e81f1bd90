"""JSON and binary codecs for every file format zakspace reads or writes.

Complex scalars and matrices are encoded as [re, im] pairs in row-major
order.  Group/action documents look like

    {"order": n, "table": [[...]], "points": m, "perm": [[...]], "weights": [...]}

with perm indexed by group element; weights are optional (default 1).
Zak coefficient files carry the coefficients plus the action and dual
needed to invert them; lattice grid files carry the cells, periods,
values and samples of a LatticeZakGrid.

Each kind also has a binary flavor, one container for both: the kind's
JSON metadata with its large arrays moved into a raw body.  A 4-byte
magic (ZAKF for a finite Zak table, ZAKL for a lattice grid), a u32
version (1) and the u32 byte size of the header, little-endian, precede a
UTF-8 JSON header that also lists the body arrays' "shapes"; the body is
those arrays, row-major little-endian complex128.  A ZAKF header is
{action, dual, f_norm} over the class stacks of ZakCoefficients.blocks
(dual.dim_classes order), a ZAKL header {cells, periods} over [values,
samples].  Any fault in a container is a ConfigError.
"""

from __future__ import annotations

import json
import math
import operator
import struct

import numpy as np

from .actions import GroupAction, make_action
from .duals import DualObject, UnitaryIrrep, validate_dual
from .errors import ConfigError
from .groups import FiniteGroup, make_group
from .lattice import LatticeZakGrid
from .zak import ZakCoefficients, stack_blocks

ZAK_MAGIC, GRID_MAGIC = b"ZAKF", b"ZAKL"
VERSION = 1
_PREFIX = struct.Struct("<4sII")  # magic, version, header size


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


def _extents(value, what: str, least: int) -> tuple:
    """A list of integers >= least, as a tuple."""
    return tuple(_integer(n, f"each entry of {what}", least) for n in _typed(value, list, what))


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
    if "table" not in _typed(doc, dict, "group document"):
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
    f_norm = _finite(doc.get("f_norm", 1.0), "f_norm")
    coeffs = ZakCoefficients(action, dual, stack_blocks(action, dual, data), f_norm)
    coeffs.check_invariants()
    return coeffs


# ---------------------------------------------------------------------------
# the binary container


def _pack(magic: bytes, header: dict, arrays) -> bytes:
    """The container of the module docstring: header plus the arrays' shapes, then the arrays."""
    text = json.dumps({**header, "shapes": [list(np.shape(a)) for a in arrays]}, separators=(",", ":")).encode()
    body = [np.asarray(a, dtype="<c16").tobytes() for a in arrays]
    return b"".join([_PREFIX.pack(magic, VERSION, len(text)), text, *body])


def _unpack(raw: bytes, magic: bytes) -> tuple[dict, list]:
    """(header, arrays) of a container with this magic; any fault in it is a ConfigError."""
    kind = magic.decode()
    if raw[:4] != magic:
        raise ConfigError(f"bad magic {raw[:4]!r}, not a {kind} file")
    if len(raw) < _PREFIX.size:
        raise ConfigError(f"truncated {kind} file: {len(raw)} bytes")
    _magic, version, size = _PREFIX.unpack_from(raw)
    if version != VERSION:
        raise ConfigError(f"{kind} version {version} is not supported (only {VERSION})")
    start = _PREFIX.size + size
    if start > len(raw):
        raise ConfigError(f"truncated {kind} file: the header needs {size} bytes")
    try:
        header = json.loads(raw[_PREFIX.size : start].decode("utf-8"))
    except ValueError as err:  # UnicodeDecodeError and JSONDecodeError
        raise ConfigError(f"malformed {kind} header: {err}") from err
    (shapes,) = _fields(header, ("shapes",), f"{kind} header")
    shapes = [_extents(shape, "each array shape", 0) for shape in _typed(shapes, list, "shapes")]
    sizes = [math.prod(shape) for shape in shapes]
    if len(raw) - start != 16 * sum(sizes):
        raise ConfigError(f"{kind} body holds {len(raw) - start} bytes, its shapes need {16 * sum(sizes)}")
    body = np.frombuffer(raw, dtype="<c16", offset=start).astype(complex)
    if not np.all(np.isfinite(body)):
        raise ConfigError(f"{kind} body entries must be finite")
    parts = np.split(body, np.cumsum(sizes[:-1], dtype=int))
    return header, [_built(np.reshape, f"{kind} array", part, shape) for part, shape in zip(parts, shapes)]


def zak_to_bytes(coeffs: ZakCoefficients) -> bytes:
    """A ZAKF container: the action, dual and f_norm, then the class stacks."""
    header = {"action": action_to_dict(coeffs.action), "dual": dual_to_dict(coeffs.dual), "f_norm": coeffs.f_norm}
    return _pack(ZAK_MAGIC, header, coeffs.blocks)


def zak_from_bytes(raw: bytes) -> ZakCoefficients:
    """The ZakCoefficients of a ZAKF container, validated as zak_from_dict validates a document."""
    header, stacks = _unpack(raw, ZAK_MAGIC)
    action_doc, dual_doc, f_norm = _fields(header, ("action", "dual", "f_norm"), "ZAKF header")
    coeffs = ZakCoefficients(action_from_dict(action_doc), dual_from_dict(dual_doc), stacks, _finite(f_norm, "f_norm"))
    coeffs.check_invariants()
    return coeffs


def zak_blocks_from_bytes(raw: bytes) -> dict:
    """The (x0, label) -> (d, d) block table of a ZAKF container."""
    return zak_from_bytes(raw).data


# ---------------------------------------------------------------------------
# lattice grids


def _grid(cells, periods, values: np.ndarray, samples: np.ndarray) -> LatticeZakGrid:
    """The grid of decoded entries: one cell size and one period (integers >= 1) per axis, arrays of the sizes they fix."""
    cells, periods = _extents(cells, "cells", 1), _extents(periods, "periods", 1)
    if not cells or len(periods) != len(cells):
        raise ConfigError(f"cells and periods need one entry per axis, got {len(cells)} and {len(periods)}")
    shape = tuple(m * n for m, n in zip(cells, periods))
    for name, arr, want in (("values", values, cells + periods), ("samples", samples, shape)):
        if arr.size != math.prod(want):
            raise ConfigError(f"{name} of cells {list(cells)}, periods {list(periods)} need {math.prod(want)}, got {arr.size}")
    values = _built(np.reshape, "lattice grid values", values, cells + periods)  # numpy caps the axes
    return LatticeZakGrid(cells, periods, values, samples.reshape(shape))


def grid_to_dict(grid: LatticeZakGrid) -> dict:
    return {
        "cells": list(grid.cells),
        "periods": list(grid.periods),
        "values": [[float(v.real), float(v.imag)] for v in grid.values.ravel()],
        "samples": [[float(v.real), float(v.imag)] for v in grid.samples.ravel()],
        "sample_shape": list(grid.samples.shape),
    }


def grid_from_dict(doc: dict) -> LatticeZakGrid:
    keys = ("cells", "periods", "values", "samples", "sample_shape")
    cells, periods, values, samples, sample_shape = _fields(doc, keys, "lattice grid document")
    grid = _grid(cells, periods, decode_vector(values), decode_vector(samples))
    if _extents(sample_shape, "sample_shape", 0) != grid.samples.shape:
        raise ConfigError(f"sample_shape {sample_shape} is not cells x periods, {list(grid.samples.shape)}")
    return grid


def grid_to_bytes(grid: LatticeZakGrid) -> bytes:
    """A ZAKL container: cells and periods, then values and samples."""
    return _pack(GRID_MAGIC, {"cells": list(grid.cells), "periods": list(grid.periods)}, [grid.values, grid.samples])


def grid_from_bytes(raw: bytes) -> LatticeZakGrid:
    """The LatticeZakGrid of a ZAKL container, validated as grid_from_dict validates a document."""
    header, arrays = _unpack(raw, GRID_MAGIC)
    cells, periods = _fields(header, ("cells", "periods"), "ZAKL header")
    if len(arrays) != 2:
        raise ConfigError(f"a ZAKL body holds values and samples, got {len(arrays)} arrays")
    return _grid(cells, periods, *arrays)
