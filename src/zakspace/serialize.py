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

Every input document has one reader here (the public *_from_dict,
*_input and zak_file_from_bytes functions), and the one _fields call in
it is the only place the document's keys are declared.  At every nesting
level an undeclared key is an {"error": "unknown keys", "keys": [...]}
error, a missing required key or a null value is a ConfigError, a number
is finite and never true, false or a string, and an integer is never a
float.
"""

from __future__ import annotations

import dataclasses
import json
import math
import struct
from itertools import chain
from typing import NamedTuple

import numpy as np

from .actions import GroupAction, make_action
from .duals import DualObject, UnitaryIrrep, validate_dual
from .errors import ConfigError
from .euclid import IsometryElement, IsometryGroupSpec, Truncation
from .groups import FiniteGroup, cyclic_group, dihedral_group, direct_product, make_group, symmetric_group
from .lattice import LatticeZakGrid
from .radiation import ScatteringSetup
from .zak import ZakCoefficients, stack_blocks

ZAK_MAGIC, GRID_MAGIC = b"ZAKF", b"ZAKL"
VERSION = 1
_PREFIX = struct.Struct("<4sII")  # magic, version, header size
MAX_LATTICE_AXES = 32  # a lattice grid's values carry two axes per sample axis, and numpy allows 64


def _written(*arrays):
    """The arrays, if every entry is finite: a file holding inf or NaN would not read back."""
    if not all(np.isfinite(a).all() for a in arrays):
        raise ConfigError("the input is too large: the output would hold a non-finite number")
    return arrays


def encode_vector(v: np.ndarray) -> list:
    """The entries of v, row-major, as [re, im] pairs of floats; a non-finite entry is a ConfigError."""
    (z,) = _written(np.asarray(v, dtype=complex).ravel())
    return np.stack([z.real, z.imag], axis=1).tolist()


def decode_matrix(entries, shape) -> np.ndarray:
    """Entries in row-major order, as decode_vector reads them, in a matrix of the given shape."""
    flat = decode_vector(entries)
    if flat.size != math.prod(shape):
        raise ConfigError(f"a {'x'.join(map(str, shape))} matrix needs {math.prod(shape)} entries, got {flat.size}")
    return flat.reshape(shape)


def decode_vector(entries) -> np.ndarray:
    """A list of real numbers or of [re, im] pairs, as a complex vector; anything else is a ConfigError."""
    pairs = isinstance(entries, list) and bool(entries) and isinstance(entries[0], list)
    arr = _array(entries, "vector", (None, 2) if pairs else (None,))
    if not pairs:  # plain real list
        return arr.astype(complex)
    out = np.empty(len(arr), dtype=complex)
    out.real, out.imag = arr[:, 0], arr[:, 1]
    return out


# ---------------------------------------------------------------------------
# the rules every document follows


def document_from_bytes(raw: bytes, path: str):
    """The JSON value of a UTF-8 input file; anything else is a ConfigError."""
    try:
        text = raw.decode("utf-8")
    except UnicodeDecodeError as err:
        raise ConfigError(f"{path} is not UTF-8 text: {err.reason} at byte {err.start}") from err
    try:
        return json.loads(text)
    except json.JSONDecodeError as err:
        raise ConfigError(
            json.dumps({"error": "malformed JSON", "line": err.lineno, "column": err.colno})
        ) from err
    except RecursionError as err:
        raise ConfigError(f"{path} nests its JSON too deeply") from err


def _typed(value, kind: type, what: str):
    """value, if it is a kind (dict, list or str); anything else is a ConfigError."""
    if not isinstance(value, kind):
        raise ConfigError(f"{what} must be a {kind.__name__}, got {value!r:.40}")
    return value


def _fields(doc, what: str, required=(), optional=None) -> list:
    """doc's values for the required keys, then for the optional keys (their default where absent).

    doc must be an object; a key outside required and optional is an
    "unknown keys" error, and a missing required key or a null value is
    a ConfigError.
    """
    optional = optional or {}
    unknown = sorted(set(_typed(doc, dict, what)).difference(required, optional))
    if unknown:
        raise ConfigError(json.dumps({"error": "unknown keys", "keys": unknown}))
    missing = [key for key in required if key not in doc]
    if missing:
        raise ConfigError(f"{what} needs {missing}")
    nulls = [key for key, value in doc.items() if value is None]
    if nulls:
        raise ConfigError(f"{what}: {nulls} must not be null")
    return [doc[key] for key in required] + [doc.get(key, default) for key, default in optional.items()]


def _array(value, what: str, shape: tuple, integer: bool = False) -> np.ndarray:
    """value as an array of this shape (None: any length), from nested lists of finite numbers (integers if integer is set).

    true, false and strings are never numbers, and 2.0 is not an integer.
    """
    def fault(detail: str) -> ConfigError:
        kinds = ("integers", "an integer") if integer else ("finite numbers", "a finite number")
        wanted = f"an array of shape ({', '.join(str(n or 'n') for n in shape)}) of {kinds[0]}" if shape else kinds[1]
        return ConfigError(f"{what} must be {wanted}{detail}")

    leaves, dims = [value], []
    for n in shape:
        lengths = set(map(len, leaves)) if set(map(type, leaves)) <= {list} else None
        if lengths is None or len(lengths) > 1 or (n is not None and lengths - {n}):
            raise fault(f", got {value!r:.40}")
        dims.append(lengths.pop() if lengths else n or 0)
        leaves = list(chain.from_iterable(leaves))
    if not set(map(type, leaves)) <= ({int} if integer else {int, float}):
        raise fault(f", got {value!r:.40}")
    try:
        arr = np.array(leaves, dtype=np.int64 if integer else float).reshape(dims)
    except OverflowError as err:
        raise fault(": an entry is out of range") from err
    if not (integer or np.isfinite(arr).all()):
        raise fault(": an entry is not finite")
    return arr


def _integer(value, what: str, least: int) -> int:
    n = int(_array(value, what, (), integer=True))
    if n < least:
        raise ConfigError(f"{what} must be an integer >= {least}, got {n}")
    return n


def _extents(value, what: str, least: int) -> tuple:
    """A list of integers >= least, as a tuple."""
    ns = tuple(_array(value, what, (None,), integer=True).tolist())
    if any(n < least for n in ns):
        raise ConfigError(f"each entry of {what} must be an integer >= {least}, got {list(ns)}")
    return ns


def _finite(value, what: str) -> float:
    return float(_array(value, what, ()))


def _positive(value, what: str) -> float:
    x = _finite(value, what)
    if not x > 0:
        raise ConfigError(f"{what} must be a finite number > 0, got {x}")
    return x


def _built(make, what: str, *args, **kwargs):
    """make(*args, **kwargs) on a document's entries; a ValueError or TypeError from them is a ConfigError."""
    try:
        return make(*args, **kwargs)
    except (TypeError, ValueError) as err:
        raise ConfigError(f"malformed {what}: {err}") from err


# ---------------------------------------------------------------------------
# groups and actions


_CATALOG = {"cyclic": cyclic_group, "dihedral": dihedral_group, "symmetric": symmetric_group}


def _named_group(name: str) -> FiniteGroup:
    """Catalog lookup: cyclic:N, dihedral:N, symmetric:N, product:AxB."""
    kind, _, arg = name.partition(":")
    if kind == "product":
        left, sep, right = arg.partition("x")
        if not sep:
            raise ConfigError(f"product name needs AxB, got {name!r}")
        return direct_product(_named_group(left), _named_group(right))
    if kind not in _CATALOG:
        raise ConfigError(f"unknown group name {name!r}")
    try:
        return _CATALOG[kind](int(arg))
    except ValueError as err:
        raise ConfigError(f"bad group name {name!r}: {err}") from err


def _group(table, order, name) -> FiniteGroup:
    """The group of a document's table, declared order (or None) and name (or None)."""
    t = _array(table, "group table", (None, None), integer=True)
    if order is not None and len(t) != _integer(order, "declared order", 1):
        raise ConfigError(f"declared order {order} != table size {len(t)}")
    return _built(make_group, "group table", t, name=None if name is None else _typed(name, str, "group name"))


def group_from_dict(doc: dict) -> FiniteGroup:
    return _group(*_fields(doc, "group document", ("table",), {"order": None, "name": None}))


def action_from_dict(doc: dict) -> GroupAction:
    table, perm, order, name, points, weights = _fields(
        doc, "action document", ("table", "perm"), {"order": None, "name": None, "points": None, "weights": None}
    )
    group = _group(table, order, name)
    perm = _array(perm, "perm", (None, None), integer=True)
    points = None if points is None else _integer(points, "declared points", 1)
    if points is not None and perm.size and perm.shape[1] != points:
        raise ConfigError(f"declared points {points} != perm width {perm.shape[1]}")
    weights = None if weights is None else _array(weights, "weights", (None,))
    return _built(make_action, "action", group, perm, weights)


def group_or_action_from_dict(doc: dict) -> FiniteGroup | GroupAction:
    """A `group inspect` document: an action document if it has a perm, else a group document."""
    return action_from_dict(doc) if isinstance(doc, dict) and "perm" in doc else group_from_dict(doc)


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
            {"label": s.label, "dim": s.dim, "matrices": [encode_vector(m) for m in s.matrices]}
            for s in dual.irreps
        ],
    }


def dual_from_dict(doc: dict) -> DualObject:
    table, items, order, name = _fields(doc, "dual document", ("table", "irreps"), {"order": None, "name": None})
    group = _group(table, order, name)
    irreps = []
    for item in _typed(items, list, "irreps"):
        label, dim, matrices = _fields(item, "irrep", ("label", "dim", "matrices"))
        d = _integer(dim, "irrep dim", 1)
        if len(_typed(matrices, list, "irrep matrices")) != group.order:
            raise ConfigError(f"irrep {label!r:.40} needs one matrix per group element")
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
                "values": encode_vector(coeffs.data[(x0, label)]),
            }
            for (x0, label) in sorted(coeffs.data, key=lambda k: (k[0], k[1]))
        ],
        "f_norm": _written(coeffs.f_norm)[0],
    }


def zak_from_dict(doc: dict) -> ZakCoefficients:
    action_doc, dual_doc, items, reps, f_norm = _fields(
        doc, "zak document", ("action", "dual", "blocks"), {"representatives": None, "f_norm": 1.0}
    )
    action = action_from_dict(action_doc)
    dual = dual_from_dict(dual_doc)
    data = {}
    for item in _typed(items, list, "blocks"):
        x0, label, dim, values = _fields(item, "zak block", ("x0", "label", "dim", "values"))
        d = _integer(dim, "block dim", 1)
        key = (_integer(x0, "block x0", 0), _typed(label, str, "block label"))
        if key in data:
            raise ConfigError(f"two blocks at x0 {key[0]}, label {key[1]!r:.40}")
        data[key] = decode_matrix(values, (d, d))
    coeffs = ZakCoefficients(action, dual, stack_blocks(action, dual, data), _finite(f_norm, "f_norm"))
    if reps is not None and _extents(reps, "representatives", 0) != tuple(coeffs.structure.decomp.representatives):
        raise ConfigError(f"representatives {reps!r:.40} are not the action's orbit representatives")
    coeffs.check_invariants()
    return coeffs


# ---------------------------------------------------------------------------
# the binary container


def _pack(magic: bytes, header: dict, arrays) -> bytes:
    """The container of the module docstring: header plus the arrays' shapes, then the arrays."""
    text = json.dumps({**header, "shapes": [list(np.shape(a)) for a in arrays]}, separators=(",", ":")).encode()
    body = [np.asarray(a, dtype="<c16").tobytes() for a in _written(*arrays)]
    return b"".join([_PREFIX.pack(magic, VERSION, len(text)), text, *body])


def _unpack(raw: bytes, magic: bytes, keys: tuple) -> tuple[list, list]:
    """(the header's values for keys, arrays) of a container with this magic; any fault in it is a ConfigError."""
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
    *values, shapes = _fields(header, f"{kind} header", (*keys, "shapes"))
    shapes = [_extents(shape, "each array shape", 0) for shape in _typed(shapes, list, "shapes")]
    sizes = [math.prod(shape) for shape in shapes]
    if len(raw) - start != 16 * sum(sizes):
        raise ConfigError(f"{kind} body holds {len(raw) - start} bytes, its shapes need {16 * sum(sizes)}")
    body = np.frombuffer(raw, dtype="<c16", offset=start).astype(complex)
    if not np.all(np.isfinite(body)):
        raise ConfigError(f"{kind} body entries must be finite")
    parts = np.split(body, np.cumsum(sizes[:-1], dtype=int))
    return values, [_built(np.reshape, f"{kind} array", part, shape) for part, shape in zip(parts, shapes)]


def zak_to_bytes(coeffs: ZakCoefficients) -> bytes:
    """A ZAKF container: the action, dual and f_norm, then the class stacks."""
    (f_norm,) = _written(coeffs.f_norm)
    header = {"action": action_to_dict(coeffs.action), "dual": dual_to_dict(coeffs.dual), "f_norm": f_norm}
    return _pack(ZAK_MAGIC, header, coeffs.blocks)


def zak_from_bytes(raw: bytes) -> ZakCoefficients:
    """The ZakCoefficients of a ZAKF container, validated as zak_from_dict validates a document."""
    (action_doc, dual_doc, f_norm), stacks = _unpack(raw, ZAK_MAGIC, ("action", "dual", "f_norm"))
    coeffs = ZakCoefficients(action_from_dict(action_doc), dual_from_dict(dual_doc), stacks, _finite(f_norm, "f_norm"))
    coeffs.check_invariants()
    return coeffs


def zak_blocks_from_bytes(raw: bytes) -> dict:
    """The (x0, label) -> (d, d) block table of a ZAKF container."""
    return zak_from_bytes(raw).data


# ---------------------------------------------------------------------------
# lattice grids


def _lattice_axes(shape: tuple, what: str) -> tuple:
    if not 1 <= len(shape) <= MAX_LATTICE_AXES:
        raise ConfigError(f"{what} needs 1 to {MAX_LATTICE_AXES} axes, got {len(shape)}")
    return shape


def _grid(cells, periods, values: np.ndarray, samples: np.ndarray) -> LatticeZakGrid:
    """The grid of decoded entries: one cell size and one period (integers >= 1) per axis, arrays of the sizes they fix."""
    cells, periods = _lattice_axes(_extents(cells, "cells", 1), "cells"), _extents(periods, "periods", 1)
    if len(periods) != len(cells):
        raise ConfigError(f"cells and periods need one entry per axis, got {len(cells)} and {len(periods)}")
    shape = tuple(m * n for m, n in zip(cells, periods))
    for name, arr, want in (("values", values, cells + periods), ("samples", samples, shape)):
        if arr.size != math.prod(want):
            raise ConfigError(f"{name} of cells {list(cells)}, periods {list(periods)} need {math.prod(want)}, got {arr.size}")
    return LatticeZakGrid(cells, periods, values.reshape(cells + periods), samples.reshape(shape))


def grid_to_dict(grid: LatticeZakGrid) -> dict:
    return {
        "cells": list(grid.cells),
        "periods": list(grid.periods),
        "values": encode_vector(grid.values),
        "samples": encode_vector(grid.samples),
        "sample_shape": list(grid.samples.shape),
    }


def grid_from_dict(doc: dict) -> LatticeZakGrid:
    keys = ("cells", "periods", "values", "samples", "sample_shape")
    cells, periods, values, samples, sample_shape = _fields(doc, "lattice grid document", keys)
    grid = _grid(cells, periods, decode_vector(values), decode_vector(samples))
    if _extents(sample_shape, "sample_shape", 0) != grid.samples.shape:
        raise ConfigError(f"sample_shape {sample_shape} is not cells x periods, {list(grid.samples.shape)}")
    return grid


def grid_to_bytes(grid: LatticeZakGrid) -> bytes:
    """A ZAKL container: cells and periods, then values and samples."""
    return _pack(GRID_MAGIC, {"cells": list(grid.cells), "periods": list(grid.periods)}, [grid.values, grid.samples])


def grid_from_bytes(raw: bytes) -> LatticeZakGrid:
    """The LatticeZakGrid of a ZAKL container, validated as grid_from_dict validates a document."""
    (cells, periods), arrays = _unpack(raw, GRID_MAGIC, ("cells", "periods"))
    if len(arrays) != 2:
        raise ConfigError(f"a ZAKL body holds values and samples, got {len(arrays)} arrays")
    return _grid(cells, periods, *arrays)


def zak_file_from_bytes(raw: bytes, path: str) -> ZakCoefficients | LatticeZakGrid:
    """Any file `zak forward` writes: a ZAKF or ZAKL container by its magic, else a Zak or lattice grid document."""
    if raw[:4] == ZAK_MAGIC:
        return zak_from_bytes(raw)
    if raw[:4] == GRID_MAGIC:
        return grid_from_bytes(raw)
    doc = document_from_bytes(raw, path)
    return grid_from_dict(doc) if isinstance(doc, dict) and "values" in doc else zak_from_dict(doc)


# ---------------------------------------------------------------------------
# the other input documents


class LatticeInput(NamedTuple):
    """Lattice samples in their sample_shape, and the cell size: one integer or one per axis."""

    samples: np.ndarray
    cells: int | tuple


def _lattice_input(doc) -> LatticeInput:
    samples, cells, shape = _fields(doc, "lattice input", ("samples", "cells"), {"sample_shape": None})
    cells = _extents(cells, "cells", 1) if isinstance(cells, list) else _integer(cells, "cells", 1)
    samples = decode_vector(samples)
    shape = _lattice_axes(_extents(shape, "sample_shape", 1) if shape is not None else samples.shape, "samples")
    if math.prod(shape) != samples.size or not samples.size:
        raise ConfigError(f"{samples.size} samples do not fill sample_shape {list(shape)}")
    return LatticeInput(samples.reshape(shape), cells)


def zak_forward_input(doc) -> LatticeInput | tuple:
    """A `zak forward` document: {samples, cells, sample_shape?}, or (action, f) of {action, f}."""
    if isinstance(doc, dict) and "samples" in doc:
        return _lattice_input(doc)
    action, f = _fields(doc, "finite Zak input", ("action", "f"))
    return action_from_dict(action), decode_vector(f)


def zak_verify_input(doc) -> LatticeInput | tuple:
    """A `zak verify` document: {samples, cells, sample_shape?}, or (action, f or None, n_random) of {action, f?, n_random?}."""
    if isinstance(doc, dict) and "samples" in doc:
        return _lattice_input(doc)
    action, f, n_random = _fields(doc, "finite Zak input", ("action",), {"f": None, "n_random": 5})
    n_random = _integer(n_random, "n_random", 0)
    if f is None and not n_random:
        raise ConfigError("zak verify needs 'f' or a positive 'n_random'")
    return action_from_dict(action), None if f is None else decode_vector(f), n_random


def poisson_from_dict(doc) -> tuple:
    """(group, subgroup, mode, n_random) of {group: a catalog name or a group document, subgroup, mode?, n_random?}."""
    group, sub, mode, n_random = _fields(doc, "poisson document", ("group", "subgroup"), {"mode": None, "n_random": 50})
    group = _named_group(group) if isinstance(group, str) else group_from_dict(group)
    if mode is None:
        mode = "abelian" if group.is_abelian() else "compact"
    if mode not in ("abelian", "compact"):
        raise ConfigError(f"mode must be 'abelian' or 'compact', got {mode!r:.40}")
    return group, list(_extents(sub, "subgroup", 0)), mode, _integer(n_random, "n_random", 0)


def band_model_from_dict(doc) -> tuple:
    """The arguments (t, M, N, V) of bloch.band_structure: hopping, cell size, period count, the M onsite energies."""
    t, m, n, v = _fields(doc, "band model", ("t", "M", "N", "V"))
    m = _integer(m, "M", 1)
    return _finite(t, "t"), m, _integer(n, "N", 1), _array(v, "V", (m,))


def isometry_spec_from_dict(doc) -> IsometryGroupSpec:
    """{dim, generators: [{Q, c}], truncation?: {word_length?, radius?, max_elements?, tol?}}."""
    dim, gens, tr = _fields(doc, "isometry spec", ("dim", "generators"), {"truncation": {}})
    dim = _integer(dim, "dim", 1)
    elements = []
    for g in _typed(gens, list, "generators"):
        q, c = _fields(g, "generator", ("Q", "c"))
        elements.append(IsometryElement(_array(q, "Q", (dim, dim)), _array(c, "c", (dim,))))
    defaults = {f.name: f.default for f in dataclasses.fields(Truncation)}
    word_length, radius, max_elements, tol = _fields(tr, "truncation", (), defaults)
    truncation = Truncation(
        _integer(word_length, "word_length", 0),
        _positive(radius, "radius"),
        _integer(max_elements, "max_elements", 0),
        _positive(tol, "tol"),
    )
    return IsometryGroupSpec(dim, elements, truncation)


def scattering_from_dict(doc) -> tuple:
    """(spec, k, n, setups) of {group: isometry spec, points, weights?, density, k, n, omega, c_light, s0_list}.

    There is one setup per s0, normalized.
    """
    keys = ("group", "points", "density", "k", "n", "omega", "c_light", "s0_list")
    spec, points, density, k, n, omega, c_light, s0_list, weights = _fields(doc, "scattering", keys, {"weights": None})
    spec = isometry_spec_from_dict(spec)
    points = _array(points, "points", (None, 3))
    m = (len(points),)
    weights = np.ones(m) if weights is None else _array(weights, "weights", m)
    density = _array(density, "density", m)
    n = decode_vector(n)
    if n.shape != (3,):
        raise ConfigError(f"'n' must be a 3-vector, got shape {n.shape}")
    omega, c_light = _finite(omega, "omega"), _finite(c_light, "c_light")
    s0_list = _array(s0_list, "s0_list", (None, 3))
    norms = np.array([np.linalg.norm(s0) for s0 in s0_list])
    if not (norms.size and np.all(np.isfinite(norms) & (norms > 0))):
        raise ConfigError("'s0_list' must be a list of finite nonzero vectors")
    setups = [ScatteringSetup(points, weights, density, omega, c_light, s0 / norm) for s0, norm in zip(s0_list, norms)]
    return spec, _array(k, "k", (3,)), n, setups
