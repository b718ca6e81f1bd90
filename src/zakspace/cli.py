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

This module reads no document field: each input document's keys and
types are declared once, in its reader in zakspace.serialize.

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
import functools
import itertools
import json
import math
import os
import sys
from pathlib import Path

import numpy as np

from . import bloch, euclid, lattice, radiation, serialize, suite
from .actions import GroupAction
from .duals import irreps
from .zak import VerificationReport, verify_unitarity, zak as zak_transform, zak_inverse
from .errors import ConfigError, ZakspaceError
from .fixtures import random_complex
from .weil import weil_structure


def _resolve(path: str) -> Path:
    p = Path(path)
    if p.exists():
        return p
    root = os.environ.get("ZAKSPACE_DATA")
    if root and (Path(root) / path).exists():
        return Path(root) / path
    raise ConfigError(f"input file not found: {path}")


def _load(path: str):
    """The JSON value of an input file, for one of the readers in zakspace.serialize."""
    return serialize.document_from_bytes(_resolve(path).read_bytes(), path)


def _emit(payload, out: str | None, binary: bool = False) -> None:
    """Write bytes (binary), a JSON object, a text ended in one newline, or an iterable of text pieces in order."""
    if binary:
        if out is None:
            raise ConfigError("binary output needs --out")
        Path(out).write_bytes(payload)
        return
    if isinstance(payload, dict):
        payload = json.dumps(payload, indent=2)
    if isinstance(payload, str):
        payload = (payload, "" if payload.endswith("\n") else "\n")
    if out is None:
        sys.stdout.writelines(payload)
    else:
        with open(out, "w") as fh:
            fh.writelines(payload)


def _verdict(reports: list[VerificationReport], args) -> int:
    """Emit {checks, all_pass}, with --tol as every check's tolerance; exit 0 or 1."""
    if args.tol is not None:
        reports = [dataclasses.replace(r, tolerance=args.tol) for r in reports]
    all_pass = all(r.passed for r in reports)
    _emit({"checks": [r.as_dict() for r in reports], "all_pass": all_pass}, args.out)
    return 0 if all_pass else 1


# ---------------------------------------------------------------------------
# command implementations


def _cmd_group_inspect(args) -> int:
    found = serialize.group_or_action_from_dict(_load(args.config))
    group = found.group if isinstance(found, GroupAction) else found
    out = {
        "order": group.order,
        "identity": group.identity,
        "abelian": group.is_abelian(),
        "element_orders": [group.element_order(g) for g in group.elements()],
        "conjugacy_classes": len(group.conjugacy_classes()),
    }
    if isinstance(found, GroupAction):
        s = weil_structure(found)
        out["points"] = found.npoints
        out["orbits"] = s.decomp.members
        out["representatives"] = s.decomp.representatives
        out["stabilizer_sizes"] = s.decomp.stabilizer_sizes
        out["orbit_measures"] = s.decomp.orbit_measure.tolist()
    _emit(out, args.out)
    return 0


def _cmd_zak_forward(args) -> int:
    found = serialize.zak_forward_input(_load(args.config))
    binary = args.out is not None and args.out.endswith((".bin", ".zak"))
    if isinstance(found, serialize.LatticeInput):
        grid = lattice.classic_zak(*found)
        back = lattice.classic_zak_inverse(grid)
        payload = serialize.grid_to_bytes(grid) if binary else serialize.grid_to_dict(grid)
    else:
        action, f = found
        coeffs = zak_transform(action, f, irreps(action.group, seed=args.seed))
        back = zak_inverse(coeffs)
        payload = serialize.zak_to_bytes(coeffs) if binary else serialize.zak_to_dict(coeffs)
    if not np.isfinite(back).all():  # `zak inverse` must read back what this writes
        raise ConfigError("the input is too large: its transform does not invert in floating point")
    _emit(payload, args.out, binary=binary)
    return 0


def _cmd_zak_inverse(args) -> int:
    decoded = serialize.zak_file_from_bytes(_resolve(args.config).read_bytes(), args.config)
    if isinstance(decoded, lattice.LatticeZakGrid):
        rec = lattice.classic_zak_inverse(decoded)
        _emit({"f": serialize.encode_vector(rec), "shape": list(rec.shape)}, args.out)
    else:
        _emit({"f": serialize.encode_vector(zak_inverse(decoded))}, args.out)
    return 0


def _cmd_zak_verify(args) -> int:
    found = serialize.zak_verify_input(_load(args.config))
    if isinstance(found, serialize.LatticeInput):
        grid = lattice.classic_zak(*found)
        shifts = [(x0, (0,) * grid.ndim_space) for x0 in np.ndindex(*grid.cells)]
        return _verdict([
            suite.check_classic_zak_fft("classic_zak_fft_vs_direct", grid),
            suite.check_classic_zak_roundtrip("classic_zak_roundtrip", grid),
            verify_unitarity(grid, found.samples.ravel()),
            suite.check_classic_zak_quasiperiodicity("classic_zak_quasiperiodicity", grid, shifts),
        ], args)
    action, f, n_random = found
    dual = irreps(action.group, seed=args.seed)
    rng = np.random.default_rng(args.seed)
    fs = [] if f is None else [f]
    fs += [random_complex(rng, action.npoints) for _ in range(n_random)]
    reports = []
    for i, f in enumerate(fs):
        reports.append(suite.check_zak_roundtrip(f"zak_roundtrip[f{i}]", action, dual, [f]))
        reports.append(suite.check_zak_unitarity(f"zak_unitarity[f{i}]", action, dual, [f]))
    reports.append(suite.check_zak_intertwining("zak_intertwining", action, dual, fs[0]))
    return _verdict(reports, args)


def _cmd_poisson_check(args) -> int:
    group, sub, mode, n_random = serialize.poisson_from_dict(_load(args.config))
    rng = np.random.default_rng(args.seed)
    dual = irreps(group, seed=args.seed)
    fs = [random_complex(rng, group.order) for _ in range(n_random)]
    check = suite.check_poisson_abelian if mode == "abelian" else suite.check_poisson_compact
    return _verdict([check(f"poisson_{mode}", group, sub, fs, dual)], args)


CSV_BLOCK_ROWS = 4096


def _bands_csv(bs: bloch.BandStructure):
    """The CSV lines "k_index,k_value,band_index,energy" of bs, as text pieces in row order.

    Row N - j of bs.bands is a copy of row j (bloch.band_structure), so
    only the rows j = 0 .. N // 2 are formatted, in blocks of about
    CSV_BLOCK_ROWS lines.  Each energy is formatted once, into lines
    "<band>,<energy>" that start with a tab where the "k_index,k_value,"
    prefix goes; these lines of row j are also those of row N - j.  The
    mirrored rows' lines are held, without their prefixes, until the rows
    0 .. N // 2 are written, then written in reverse block order.  Each
    prefix is formatted once per k.
    """
    n, m = bs.periods, bs.cell_size
    front, back = n // 2 + 1, n - n // 2  # rows j = 1 .. back - 1 are mirrored to N - j
    row = "".join(f"\t{b},%.12g\n" for b in range(m))
    step = max(1, CSV_BLOCK_ROWS // m)
    held = []  # per block: (first N - j, the rows' lines joined by \v, N - j ascending)
    yield "k_index,k_value,band_index,energy\n"
    for lo in range(0, front, step):
        hi = min(lo + step, front)
        rows = ("\v".join([row] * (hi - lo)) % tuple(bs.bands[lo:hi].ravel().tolist())).split("\v")
        yield _with_prefixes(rows, bs.k_values, range(lo, hi))
        first, last = max(lo, 1), min(hi, back)  # mirrored rows j = first .. last - 1
        if first < last:
            held.append((n - last + 1, "\v".join(reversed(rows[first - lo : last - lo]))))
    for k0, text in reversed(held):
        rows = text.split("\v")
        yield _with_prefixes(rows, bs.k_values, range(k0, k0 + len(rows)))


def _with_prefixes(rows, k_values, ks) -> str:
    """The rows' text, with "k_index,k_value," of ks[i] in place of each tab of rows[i]."""
    values = k_values[ks].tolist()
    prefixes = ("%d,%.12g,\v" * len(values) % tuple(itertools.chain.from_iterable(zip(ks, values)))).split("\v")
    return "".join([r.replace("\t", p) for r, p in zip(rows, prefixes)])


def _cmd_bands_run(args) -> int:
    bs = bloch.band_structure(*serialize.band_model_from_dict(_load(args.config)))
    _emit(_bands_csv(bs), args.out)
    return 0


def _cmd_bands_check(args) -> int:
    t, m, n, v = serialize.band_model_from_dict(_load(args.config))
    serialize.check_size((n * m) ** 2, 16, "the dense ring of N * M sites")
    bs = bloch.band_structure(t, m, n, v)
    return _verdict([
        suite.check_band_union("band_union_vs_dense", bs),
        suite.check_bands_even("bands_even_in_k", bs),
    ], args)


def _cmd_euclid_generate(args) -> int:
    spec = serialize.isometry_spec_from_dict(_load(args.config))
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
    cert = euclid.type_one_certificate(serialize.isometry_spec_from_dict(_load(args.config)))
    _emit(cert.as_dict(), args.out)
    return 0 if cert.status == "type_I" else 1


def _diffract_setup(args):
    """(elements, dual, k, n, setups) of the scattering config, one setup per normalized s0."""
    spec, k, n, setups = serialize.scattering_from_dict(_load(args.config))
    gen = euclid.generate(spec)
    if not gen.finite:
        raise ConfigError("diffract needs a finite isometry group")
    elements = gen.elements
    return elements, irreps(euclid.isometry_finite_group(elements)), k, n, setups


def _cmd_diffract_run(args) -> int:
    elements, dual, k, n, setups = _diffract_setup(args)
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
    elements, dual, k, n, setups = _diffract_setup(args)
    return _verdict([suite.check_radiation_recovery("radiation_recovery", elements, dual, k, n, setups)], args)


def _cmd_suite_all(args) -> int:
    report = suite.run_suite(seed=args.seed)
    _emit(report, args.out)
    return 0 if report["all_pass"] else 1


# ---------------------------------------------------------------------------


@functools.cache  # built once per process: main reuses it on every call
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
        with np.errstate(all="ignore"):  # an overflow shows in the verdict or as exit 2, never as stderr text
            return args.func(args)
    except ZakspaceError as err:
        text = str(err)
        if not (isinstance(err, ConfigError) and text.startswith("{")):
            text = json.dumps({"error": type(err).__name__, "detail": text})
        sys.stderr.write(text + "\n")
        return 2


if __name__ == "__main__":
    sys.exit(main())
