"""Command-line front end.

    zakspace group inspect doc.json
    zakspace zak forward|inverse|verify config.json
    zakspace poisson check config.json
    zakspace bands run|check model.json
    zakspace euclid generate|certify spec.json
    zakspace diffract run|verify config.json
    zakspace suite all

Shared flags: --seed (all randomness), --jobs, --tol (replaces the
tolerance of every check in a verify report; finite and positive), --out
(write the artifact to a file instead of stdout).

--jobs, and the `jobs` keyword of suite.run_suite and
bloch.band_structure, is accepted and ignored.  No command uses workers:
band solves are one batched eigvalsh and `suite all` runs serially, so
output bytes never depend on it.  The flag stays so that command lines
and scripts that pass it keep working.

Relative input paths are also tried under $ZAKSPACE_DATA.  Exit codes: 0
success, 1 verification failure, 2 malformed input or schema violation,
with one JSON line on stderr.

`zak inverse` reads back all four outputs of `zak forward --out`: a finite
table or a lattice grid, as JSON or (for a .zak or .bin path) as the
binary container of zakspace.serialize, told apart by its leading magic.

The verify commands (`zak verify`, `poisson check`, `bands check`,
`diffract verify`) run the named checks of zakspace.suite on the input
document and print {checks, all_pass}.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import math
import os
import sys
from pathlib import Path

import numpy as np

from . import bloch, euclid, lattice, radiation, serialize, suite
from .duals import irreps
from .zak import VerificationReport, verify_unitarity, zak as zak_transform, zak_inverse
from .errors import ConfigError, ZakspaceError
from .fixtures import group_by_name, random_complex
from .groups import FiniteGroup
from .serialize import (
    _extents,
    _finite,
    _integer,
    _positive,
    _typed,
    action_from_dict,
    decode_vector,
    encode_vector,
    group_from_dict,
)
from .weil import weil_structure


_SCHEMAS = {
    "group inspect": {"order", "table", "name", "points", "perm", "weights"},
    "zak forward": {"action", "f", "samples", "cells", "sample_shape"},
    "zak inverse": {
        "action", "dual", "representatives", "blocks", "f_norm",
        "cells", "periods", "values", "samples", "sample_shape",
    },
    "zak verify": {"action", "f", "n_random", "samples", "cells", "sample_shape"},
    "poisson check": {"group", "subgroup", "mode", "n_random"},
    "bands run": {"t", "M", "N", "V"},
    "bands check": {"t", "M", "N", "V"},
    "euclid generate": {"dim", "generators", "truncation"},
    "euclid certify": {"dim", "generators", "truncation"},
    "diffract run": {
        "group", "points", "weights", "density", "k", "n", "omega", "c_light", "s0_list",
    },
    "diffract verify": {
        "group", "points", "weights", "density", "k", "n", "omega", "c_light", "s0_list",
    },
}


def _resolve(path: str) -> Path:
    p = Path(path)
    if p.exists():
        return p
    root = os.environ.get("ZAKSPACE_DATA")
    if root and (Path(root) / path).exists():
        return Path(root) / path
    raise ConfigError(f"input file not found: {path}")


def _load_config(path: str, command: str) -> dict:
    return _document(_resolve(path).read_bytes(), path, command)


def _document(raw: bytes, path: str, command: str) -> dict:
    """The JSON object in raw, with only the keys the command knows."""
    try:
        text = raw.decode("utf-8")
    except UnicodeDecodeError as err:
        raise ConfigError(f"{path} is not UTF-8 text: {err.reason} at byte {err.start}") from err
    try:
        doc = json.loads(text)
    except json.JSONDecodeError as err:
        raise ConfigError(
            json.dumps({"error": "malformed JSON", "line": err.lineno, "column": err.colno})
        ) from err
    if not isinstance(doc, dict):
        raise ConfigError("config must be a JSON object")
    allowed = _SCHEMAS[command]
    unknown = sorted(set(doc) - allowed)
    if unknown:
        raise ConfigError(json.dumps({"error": "unknown keys", "keys": unknown}))
    return doc


def _emit(payload, out: str | None, binary: bool = False) -> None:
    if binary:
        if out is None:
            raise ConfigError("binary output needs --out")
        Path(out).write_bytes(payload)
        return
    text = payload if isinstance(payload, str) else json.dumps(payload, indent=2)
    if out is None:
        sys.stdout.write(text + ("" if text.endswith("\n") else "\n"))
    else:
        Path(out).write_text(text + ("" if text.endswith("\n") else "\n"))


def _group_from_config(doc) -> FiniteGroup:
    if isinstance(doc, str):
        return group_by_name(doc)
    return group_from_dict(doc)


def _verdict(reports: list[VerificationReport], args) -> int:
    """Emit {checks, all_pass}, with --tol as every check's tolerance; exit 0 or 1."""
    if args.tol is not None:
        reports = [dataclasses.replace(r, tolerance=args.tol) for r in reports]
    all_pass = all(r.passed for r in reports)
    _emit({"checks": [r.as_dict() for r in reports], "all_pass": all_pass}, args.out)
    return 0 if all_pass else 1


def _lattice_input(doc) -> tuple:
    """(samples, cells): the samples in their sample_shape and the cell size, one integer or one per axis."""
    if "cells" not in doc:
        raise ConfigError("lattice mode needs 'cells'")
    cells = doc["cells"]
    cells = _extents(cells, "cells", 1) if isinstance(cells, list) else _integer(cells, "cells", 1)
    samples = decode_vector(doc["samples"])
    shape = doc.get("sample_shape")
    try:
        return (samples.reshape(shape) if shape else samples), cells
    except (TypeError, ValueError) as err:
        raise ConfigError(f"sample_shape {shape} does not fit {samples.size} samples") from err


def _numbers(doc, key: str, shape=None) -> np.ndarray:
    """doc[key] as a float array of the given shape, or ConfigError."""
    try:
        value = np.asarray(doc[key], dtype=float)
    except (TypeError, ValueError) as err:
        raise ConfigError(f"'{key}' must be numeric") from err
    if shape is not None and value.shape != shape:
        raise ConfigError(f"'{key}' must have shape {shape}, got {value.shape}")
    return value


# ---------------------------------------------------------------------------
# command implementations


def _cmd_group_inspect(args) -> int:
    doc = _load_config(args.config, "group inspect")
    group = group_from_dict(doc)
    out = {
        "order": group.order,
        "identity": group.identity,
        "abelian": group.is_abelian(),
        "element_orders": [group.element_order(g) for g in group.elements()],
        "conjugacy_classes": len(group.conjugacy_classes()),
    }
    if "perm" in doc:
        action = action_from_dict(doc)
        s = weil_structure(action)
        out["points"] = action.npoints
        out["orbits"] = s.decomp.members
        out["representatives"] = s.decomp.representatives
        out["stabilizer_sizes"] = s.decomp.stabilizer_sizes
        out["orbit_measures"] = s.decomp.orbit_measure.tolist()
    _emit(out, args.out)
    return 0


def _cmd_zak_forward(args) -> int:
    doc = _load_config(args.config, "zak forward")
    binary = args.out is not None and args.out.endswith((".bin", ".zak"))
    if "samples" in doc:
        grid = lattice.classic_zak(*_lattice_input(doc))
        payload = serialize.grid_to_bytes(grid) if binary else serialize.grid_to_dict(grid)
        _emit(payload, args.out, binary=binary)
        return 0
    if "action" not in doc or "f" not in doc:
        raise ConfigError("finite mode needs 'action' and 'f'")
    action = action_from_dict(doc["action"])
    f = decode_vector(doc["f"])
    dual = irreps(action.group, seed=args.seed)
    coeffs = zak_transform(action, f, dual)
    payload = serialize.zak_to_bytes(coeffs) if binary else serialize.zak_to_dict(coeffs)
    _emit(payload, args.out, binary=binary)
    return 0


def _cmd_zak_inverse(args) -> int:
    raw = _resolve(args.config).read_bytes()
    if raw[:4] == serialize.GRID_MAGIC:
        decoded = serialize.grid_from_bytes(raw)
    elif raw[:4] == serialize.ZAK_MAGIC:
        decoded = serialize.zak_from_bytes(raw)
    else:
        doc = _document(raw, args.config, "zak inverse")
        decoded = serialize.grid_from_dict(doc) if "values" in doc else serialize.zak_from_dict(doc)
    if isinstance(decoded, lattice.LatticeZakGrid):
        rec = lattice.classic_zak_inverse(decoded)
        _emit({"f": encode_vector(rec.ravel()), "shape": list(rec.shape)}, args.out)
    else:
        _emit({"f": encode_vector(zak_inverse(decoded))}, args.out)
    return 0


def _cmd_zak_verify(args) -> int:
    doc = _load_config(args.config, "zak verify")
    if "samples" in doc:
        samples, cells = _lattice_input(doc)
        grid = lattice.classic_zak(samples, cells)
        shifts = [(x0, (0,) * grid.ndim_space) for x0 in np.ndindex(*grid.cells)]
        return _verdict([
            suite.check_classic_zak_fft("classic_zak_fft_vs_direct", grid),
            suite.check_classic_zak_roundtrip("classic_zak_roundtrip", grid),
            verify_unitarity(grid, samples.ravel()),
            suite.check_classic_zak_quasiperiodicity("classic_zak_quasiperiodicity", grid, shifts),
        ], args)
    if "action" not in doc:
        raise ConfigError("finite mode needs 'action'")
    action = action_from_dict(doc["action"])
    dual = irreps(action.group, seed=args.seed)
    rng = np.random.default_rng(args.seed)
    fs = [decode_vector(doc["f"])] if "f" in doc else []
    fs += [random_complex(rng, action.npoints) for _ in range(_integer(doc.get("n_random", 5), "n_random", 0))]
    if not fs:
        raise ConfigError("zak verify needs 'f' or a positive 'n_random'")
    reports = []
    for i, f in enumerate(fs):
        reports.append(suite.check_zak_roundtrip(f"zak_roundtrip[f{i}]", action, dual, [f]))
        reports.append(suite.check_zak_unitarity(f"zak_unitarity[f{i}]", action, dual, [f]))
    reports.append(suite.check_zak_intertwining("zak_intertwining", action, dual, fs[0]))
    return _verdict(reports, args)


def _cmd_poisson_check(args) -> int:
    doc = _load_config(args.config, "poisson check")
    if "group" not in doc or "subgroup" not in doc:
        raise ConfigError("poisson check needs 'group' and 'subgroup'")
    group = _group_from_config(doc["group"])
    sub = [_integer(x, "each subgroup element", 0) for x in _typed(doc["subgroup"], list, "subgroup")]
    mode = doc.get("mode", "abelian" if group.is_abelian() else "compact")
    if mode not in ("abelian", "compact"):
        raise ConfigError(f"mode must be 'abelian' or 'compact', got {mode!r:.40}")
    n_random = _integer(doc.get("n_random", 50), "n_random", 0)
    rng = np.random.default_rng(args.seed)
    dual = irreps(group, seed=args.seed)
    fs = [random_complex(rng, group.order) for _ in range(n_random)]
    check = suite.check_poisson_abelian if mode == "abelian" else suite.check_poisson_compact
    return _verdict([check(f"poisson_{mode}", group, sub, fs, dual)], args)


def _band_model(doc) -> bloch.BandStructure:
    for key in ("t", "M", "N", "V"):
        if key not in doc:
            raise ConfigError(f"band model needs '{key}'")
    m = _integer(doc["M"], "M", 1)
    v = _typed(doc["V"], list, "V")
    if len(v) != m:
        raise ConfigError(f"V must hold M = {m} numbers, got {len(v)}")
    onsite = [_finite(x, "each entry of V") for x in v]
    return bloch.band_structure(_finite(doc["t"], "t"), m, _integer(doc["N"], "N", 1), onsite)


CSV_BLOCK_ROWS = 4096


def _cmd_bands_run(args) -> int:
    doc = _load_config(args.config, "bands run")
    bs = _band_model(doc)
    n, m = bs.periods, bs.cell_size
    rows = np.column_stack([
        np.repeat(np.arange(n), m), np.repeat(bs.k_values, m), np.tile(np.arange(m), n), bs.bands.ravel(),
    ])
    lines = ["k_index,k_value,band_index,energy"]
    for part in np.split(rows, range(CSV_BLOCK_ROWS, len(rows), CSV_BLOCK_ROWS)):
        # one % format per block of rows: the argument tuple stays small
        lines.append("\n".join(["%d,%.12g,%d,%.12g"] * len(part)) % tuple(part.ravel().tolist()))
    # the trailing "" ends the text in a newline, so _emit writes it without another copy
    _emit("\n".join(lines + [""]), args.out)
    return 0


def _cmd_bands_check(args) -> int:
    doc = _load_config(args.config, "bands check")
    bs = _band_model(doc)
    return _verdict([
        suite.check_band_union("band_union_vs_dense", bs),
        suite.check_bands_even("bands_even_in_k", bs),
    ], args)


def _euclid_spec(doc) -> euclid.IsometryGroupSpec:
    if not isinstance(doc, dict) or "dim" not in doc or "generators" not in doc:
        raise ConfigError("isometry spec needs 'dim' and 'generators'")
    tr_doc = _typed(doc.get("truncation", {}), dict, "truncation")
    try:
        gens = [
            euclid.IsometryElement(np.asarray(g["Q"], dtype=float), np.asarray(g["c"], dtype=float))
            for g in doc["generators"]
        ]
    except (AttributeError, KeyError, TypeError, ValueError) as err:
        raise ConfigError(f"malformed isometry spec: {err!r}") from err
    tr = euclid.Truncation(
        word_length=_integer(tr_doc.get("word_length", 24), "word_length", 0),
        radius=_positive(tr_doc.get("radius", 50.0), "radius"),
        max_elements=_integer(tr_doc.get("max_elements", 20000), "max_elements", 0),
        tol=_positive(tr_doc.get("tol", 1e-9), "tol"),
    )
    return euclid.IsometryGroupSpec(_integer(doc["dim"], "dim", 1), gens, tr)


def _cmd_euclid_generate(args) -> int:
    spec = _euclid_spec(_load_config(args.config, "euclid generate"))
    gen = euclid.generate(spec)
    out = {
        "order": gen.order,
        "finite": gen.finite,
        "radius_truncated": gen.radius_truncated,
        "translations": int(np.count_nonzero(euclid.translation_mask(gen.q, spec.truncation.tol))),
        "elements": [
            {"Q": q, "c": c, "word_length": int(wl)}
            for q, c, wl in zip(gen.q.tolist(), gen.c.tolist(), gen.word_lengths)
        ],
    }
    _emit(out, args.out)
    return 0


def _cmd_euclid_certify(args) -> int:
    spec = _euclid_spec(_load_config(args.config, "euclid certify"))
    cert = euclid.type_one_certificate(spec)
    _emit(cert.as_dict(), args.out)
    return 0 if cert.status == "type_I" else 1


def _diffract_setup(doc):
    """(elements, dual, k, n, setups), one setup per normalized s0."""
    for key in ("group", "points", "density", "k", "n", "omega", "c_light", "s0_list"):
        if key not in doc:
            raise ConfigError(f"diffract config needs '{key}'")
    spec = _euclid_spec(doc["group"])
    gen = euclid.generate(spec)
    if not gen.finite:
        raise ConfigError("diffract needs a finite isometry group")
    elements = gen.elements
    group = euclid.isometry_finite_group(elements)
    dual = irreps(group)
    points = _numbers(doc, "points")
    weights = _numbers(doc, "weights") if "weights" in doc else np.ones(points.shape[:1])
    density = _numbers(doc, "density")
    k = _numbers(doc, "k", (3,))
    n = decode_vector(doc["n"])
    if n.shape != (3,):
        raise ConfigError(f"'n' must be a 3-vector, got shape {n.shape}")
    omega, c_light = float(_numbers(doc, "omega", ())), float(_numbers(doc, "c_light", ()))
    s0_list = _numbers(doc, "s0_list")
    norms = np.array([np.linalg.norm(s0) for s0 in s0_list]) if s0_list.ndim == 2 else None
    if norms is None or not np.all(np.isfinite(norms) & (norms > 0)):
        raise ConfigError("'s0_list' must be a list of finite nonzero vectors")
    setups = [
        radiation.ScatteringSetup(points, weights, density, omega, c_light, s0 / norm)
        for s0, norm in zip(s0_list, norms)
    ]
    return elements, dual, k, n, setups


def _cmd_diffract_run(args) -> int:
    doc = _load_config(args.config, "diffract run")
    elements, dual, k, n, setups = _diffract_setup(doc)
    labels = dual.labels
    header = "s0_x,s0_y,s0_z,intensity," + ",".join(f"intensity_{lab}" for lab in labels)
    lines = [header]
    for setup in setups:
        report = radiation.symmetry_projected_transform(elements, dual, k, n, setup)
        total = float(np.sum(np.abs(report.combined) ** 2))
        channels = [float(np.sum(np.abs(report.per_irrep[lab]) ** 2)) for lab in labels]
        row = [f"{v:.12g}" for v in (*setup.s0, total, *channels)]
        lines.append(",".join(row))
    _emit("\n".join(lines), args.out)
    return 0


def _cmd_diffract_verify(args) -> int:
    doc = _load_config(args.config, "diffract verify")
    elements, dual, k, n, setups = _diffract_setup(doc)
    return _verdict([suite.check_radiation_recovery("radiation_recovery", elements, dual, k, n, setups)], args)


def _cmd_suite_all(args) -> int:
    report = suite.run_suite(seed=args.seed)
    _emit(report, args.out)
    return 0 if report["all_pass"] else 1


# ---------------------------------------------------------------------------


def build_parser() -> argparse.ArgumentParser:
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--seed", type=int, default=0, help="seed for all randomness")
    common.add_argument("--jobs", type=int, default=1, help="ignored (see the module docstring)")
    common.add_argument("--tol", type=float, default=None, help="tolerance of every check (finite, > 0)")
    common.add_argument("--out", type=str, default=None, help="write output to this path")

    parser = argparse.ArgumentParser(prog="zakspace", description=__doc__)
    top = parser.add_subparsers(dest="command", required=True)

    def leaf(group_parser, name, func, needs_config=True):
        sp = group_parser.add_parser(name, parents=[common])
        if needs_config:
            sp.add_argument("config", help="JSON input document")
        sp.set_defaults(func=func)

    group_p = top.add_parser("group").add_subparsers(dest="sub", required=True)
    leaf(group_p, "inspect", _cmd_group_inspect)

    zak_p = top.add_parser("zak").add_subparsers(dest="sub", required=True)
    leaf(zak_p, "forward", _cmd_zak_forward)
    leaf(zak_p, "inverse", _cmd_zak_inverse)
    leaf(zak_p, "verify", _cmd_zak_verify)

    poisson_p = top.add_parser("poisson").add_subparsers(dest="sub", required=True)
    leaf(poisson_p, "check", _cmd_poisson_check)

    bands_p = top.add_parser("bands").add_subparsers(dest="sub", required=True)
    leaf(bands_p, "run", _cmd_bands_run)
    leaf(bands_p, "check", _cmd_bands_check)

    euclid_p = top.add_parser("euclid").add_subparsers(dest="sub", required=True)
    leaf(euclid_p, "generate", _cmd_euclid_generate)
    leaf(euclid_p, "certify", _cmd_euclid_certify)

    diffract_p = top.add_parser("diffract").add_subparsers(dest="sub", required=True)
    leaf(diffract_p, "run", _cmd_diffract_run)
    leaf(diffract_p, "verify", _cmd_diffract_verify)

    suite_p = top.add_parser("suite").add_subparsers(dest="sub", required=True)
    leaf(suite_p, "all", _cmd_suite_all, needs_config=False)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        if args.tol is not None and not (math.isfinite(args.tol) and args.tol > 0):
            raise ConfigError(f"--tol must be finite and positive, got {args.tol}")
        return args.func(args)
    except ZakspaceError as err:
        text = str(err)
        if not (isinstance(err, ConfigError) and text.startswith("{")):
            text = json.dumps({"error": type(err).__name__, "detail": text})
        sys.stderr.write(text + "\n")
        return 2


if __name__ == "__main__":
    sys.exit(main())
