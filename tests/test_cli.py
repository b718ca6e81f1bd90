import hashlib
import json
import struct

import numpy as np
import pytest

from zakspace import serialize
from zakspace.cli import main
from zakspace.duals import irreps
from zakspace.lattice import classic_zak
from zakspace.serialize import (
    GRID_MAGIC,
    MAX_ARRAY_BYTES,
    ZAK_MAGIC,
    _pack,
    action_to_dict,
    encode_vector,
    grid_to_bytes,
    grid_to_dict,
    zak_to_bytes,
    zak_to_dict,
)
from zakspace.errors import ConfigError
from zakspace.fixtures import BUNDLED_ACTIONS, d3_triangle, random_complex, z2_fixed_point, z4_rotation
from zakspace.zak import zak


def write(tmp_path, name, doc):
    p = tmp_path / name
    p.write_text(json.dumps(doc))
    return str(p)


def dimer_model():
    return {"t": 1.0, "M": 2, "N": 4, "V": [0.5, -0.5]}


def c4_group_doc():
    return {
        "dim": 3,
        "generators": [
            {"Q": [[0.0, -1.0, 0.0], [1.0, 0.0, 0.0], [0.0, 0.0, 1.0]], "c": [0.0, 0.0, 0.0]}
        ],
    }


def test_group_inspect(tmp_path, capsys):
    doc = action_to_dict(z2_fixed_point())
    code = main(["group", "inspect", write(tmp_path, "g.json", doc)])
    assert code == 0
    out = json.loads(capsys.readouterr().out)
    assert out["order"] == 2
    assert out["representatives"] == [0, 2]
    assert out["orbit_measures"] == [1.0, 0.5]


def test_zak_forward_inverse_roundtrip(tmp_path, capsys):
    action = z4_rotation()
    rng = np.random.default_rng(0)
    f = rng.normal(size=4) + 1j * rng.normal(size=4)
    cfg = {"action": action_to_dict(action), "f": encode_vector(f)}
    fwd_path = str(tmp_path / "coeffs.json")
    assert main(["zak", "forward", write(tmp_path, "in.json", cfg), "--out", fwd_path]) == 0
    assert main(["zak", "inverse", fwd_path]) == 0
    out = json.loads(capsys.readouterr().out)
    rec = np.array([complex(re, im) for re, im in out["f"]])
    assert np.max(np.abs(rec - f)) < 1e-11


@pytest.mark.parametrize("dropped", [(2, "chi0"), (2, "chi1")])  # a member block, a zero block
def test_zak_inverse_missing_block_exit_2(tmp_path, capsys, dropped):
    cfg = {"action": action_to_dict(z2_fixed_point()), "f": encode_vector(np.array([1.0, 2.0, 3.0]))}
    fwd_path = str(tmp_path / "coeffs.json")
    assert main(["zak", "forward", write(tmp_path, "in.json", cfg), "--out", fwd_path]) == 0
    with open(fwd_path) as fh:
        doc = json.load(fh)
    doc["blocks"] = [b for b in doc["blocks"] if (b["x0"], b["label"]) != dropped]
    assert main(["zak", "inverse", write(tmp_path, "short.json", doc)]) == 2
    (line,) = capsys.readouterr().err.splitlines()
    assert json.loads(line)["error"] == "SizeMismatch"


def _forward_doc(tmp_path, action, f):
    """The document `zak forward` writes for f, read back."""
    cfg = {"action": action_to_dict(action), "f": encode_vector(f)}
    fwd_path = tmp_path / "coeffs.json"
    assert main(["zak", "forward", write(tmp_path, "in.json", cfg), "--out", str(fwd_path)]) == 0
    return json.loads(fwd_path.read_text())


def test_zak_inverse_ignores_block_order(tmp_path, capsys):
    rng = np.random.default_rng(5)
    for name, make in BUNDLED_ACTIONS.items():
        action = make()
        doc = _forward_doc(tmp_path, action, random_complex(rng, action.npoints))
        assert main(["zak", "inverse", write(tmp_path, "fwd.json", doc)]) == 0
        want = capsys.readouterr().out
        doc["blocks"].reverse()
        assert main(["zak", "inverse", write(tmp_path, "rev.json", doc)]) == 0
        assert capsys.readouterr().out == want, name


def test_zak_inverse_reports_the_first_defect_in_canonical_order(tmp_path, capsys):
    # D3 on a triangle: the stabilizer of vertex 0 has order 2, so the sign block
    # must vanish and the 2-d block must be fixed by its projector; break both
    rng = np.random.default_rng(6)
    doc = _forward_doc(tmp_path, d3_triangle(), random_complex(rng, 3))
    labels = [item["label"] for item in doc["dual"]["irreps"]]
    broken = [item["label"] for item in doc["dual"]["irreps"] if item["label"] != labels[0]]
    assert len(broken) == 2
    for block in doc["blocks"]:
        if block["label"] in broken:
            block["values"] = [[re + 1e-3 * rng.normal(), im] for re, im in block["values"]]
    details = []
    for blocks in (doc["blocks"], doc["blocks"][::-1]):
        assert main(["zak", "inverse", write(tmp_path, "bad.json", {**doc, "blocks": blocks})]) == 2
        (line,) = capsys.readouterr().err.splitlines()
        assert json.loads(line)["error"] == "InvariantViolation"
        details.append(json.loads(line)["detail"])
    assert details[0] == details[1]
    assert details[0].startswith(f"Z(0,{broken[0]})")


def finite_zak_doc():
    action = z2_fixed_point()
    return zak_to_dict(zak(action, np.array([1.0, 2.0, 3.0]), irreps(action.group)))


def zak_doc_with_block(**changes):
    doc = finite_zak_doc()
    doc["blocks"][0].update(changes)
    return doc


def zak_doc_without(part: str, key: str):
    """The finite document with `key` dropped from its dual or from its first block."""
    doc = finite_zak_doc()
    target = doc["dual"] if part == "dual" else doc["blocks"][0]
    del target[key]
    return doc


MALFORMED_ZAK_INVERSE = [
    {"blocks": []},
    zak_doc_without("dual", "table"),
    zak_doc_without("dual", "irreps"),
    zak_doc_without("block", "values"),
    zak_doc_without("block", "x0"),
    zak_doc_with_block(values=[[1.0, 0.0], [2.0, 0.0]]),
    zak_doc_with_block(values=[]),
    zak_doc_with_block(x0="a"),
    zak_doc_with_block(x0=0.5),
    zak_doc_with_block(dim="1"),
    zak_doc_with_block(dim=0),
    zak_doc_with_block(values=[[float("nan"), 0.0]]),
    zak_doc_with_block(values=[[0.0, float("inf")]]),
    zak_doc_with_block(label=["chi0"]),
    {**finite_zak_doc(), "f_norm": float("nan")},
    {**finite_zak_doc(), "dual": {**finite_zak_doc()["dual"], "table": [[0, 1], [1]]}},
    {**finite_zak_doc(), "dual": {**finite_zak_doc()["dual"], "irreps": "all"}},
]


def test_malformed_zak_inverse_is_a_config_error(tmp_path, capsys):
    # test_malformed_document_exit_2 runs these too; this pins the error type
    for case, doc in enumerate(MALFORMED_ZAK_INVERSE):
        assert main(["zak", "inverse", write(tmp_path, "doc.json", doc)]) == 2, case
        (line,) = capsys.readouterr().err.splitlines()
        assert json.loads(line)["error"] == "ConfigError", (case, line)


def test_zak_forward_lattice_and_binary(tmp_path, capsys):
    rng = np.random.default_rng(1)
    f = rng.normal(size=12)
    cfg = {"samples": [float(v) for v in f], "cells": [3]}
    bin_path = str(tmp_path / "grid.zak")
    assert main(["zak", "forward", write(tmp_path, "in.json", cfg), "--out", bin_path]) == 0
    from zakspace.lattice import classic_zak
    from zakspace.serialize import grid_from_bytes

    grid = grid_from_bytes((tmp_path / "grid.zak").read_bytes())
    direct = classic_zak(f.astype(complex), cells=3)
    assert np.max(np.abs(grid.values - direct.values)) < 1e-12

    assert main(["zak", "forward", write(tmp_path, "in.json", cfg)]) == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["cells"] == [3] and doc["periods"] == [4]


@pytest.mark.parametrize("key, value", [("order", "2"), ("points", "3"), ("order", 2.0)])
def test_declared_count_must_be_an_integer(tmp_path, capsys, key, value):
    doc = {**action_to_dict(z2_fixed_point()), key: value}
    assert main(["group", "inspect", write(tmp_path, "g.json", doc)]) == 2
    (line,) = capsys.readouterr().err.splitlines()
    assert "must be an integer" in json.loads(line)["detail"]


def test_binary_input_is_a_config_error(tmp_path, capsys):
    cfg = {"action": action_to_dict(z4_rotation()), "f": [1.0, 2.0, 3.0, 4.0]}
    bin_path = tmp_path / "x.zak"
    assert main(["zak", "forward", write(tmp_path, "in.json", cfg), "--out", str(bin_path)]) == 0
    bin_path.write_bytes(b"ZAK1" + bin_path.read_bytes()[4:])  # no container magic: read as JSON
    assert main(["zak", "inverse", str(bin_path)]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    (line,) = captured.err.splitlines()
    assert json.loads(line)["error"] == "ConfigError"


def test_zak_verify_passes(tmp_path, capsys):
    cfg = {"action": action_to_dict(z2_fixed_point()), "n_random": 3}
    assert main(["zak", "verify", write(tmp_path, "v.json", cfg)]) == 0
    out = json.loads(capsys.readouterr().out)
    assert out["all_pass"]
    assert len(out["checks"]) >= 6


def test_poisson_check_cli(tmp_path, capsys):
    cfg = {"group": "cyclic:6", "subgroup": [0, 3], "n_random": 10}
    assert main(["poisson", "check", write(tmp_path, "p.json", cfg)]) == 0
    capsys.readouterr()
    # element 1 of lexicographic S3 is the transposition (1 2): a subgroup
    cfg = {"group": "symmetric:3", "subgroup": [0, 1], "mode": "compact"}
    assert main(["poisson", "check", write(tmp_path, "p2.json", cfg)]) == 0
    out = json.loads(capsys.readouterr().out)
    assert out["all_pass"]


def test_poisson_product_group_name(tmp_path, capsys):
    cfg = {"group": "product:cyclic:2xcyclic:3", "subgroup": [0, 3], "n_random": 5}
    assert main(["poisson", "check", write(tmp_path, "p3.json", cfg)]) == 0


def test_data_root_env(tmp_path, monkeypatch, capsys):
    sub = tmp_path / "fixtures"
    sub.mkdir()
    (sub / "m.json").write_text(json.dumps(dimer_model()))
    monkeypatch.setenv("ZAKSPACE_DATA", str(sub))
    monkeypatch.chdir(tmp_path)
    assert main(["bands", "check", "m.json"]) == 0


def test_verification_failure_exit_1(tmp_path, capsys):
    # an absurd tolerance flips the verdict without faking any residual
    path = write(tmp_path, "m.json", dimer_model())
    assert main(["bands", "check", path, "--tol", "1e-30"]) == 1
    out = json.loads(capsys.readouterr().out)
    assert not out["all_pass"]


def test_certify_inconclusive_exit_1(tmp_path, capsys):
    doc = {
        "dim": 2,
        "generators": [
            {"Q": [[1.0, 0.0], [0.0, 1.0]], "c": [1.0, 0.0]},
            {"Q": [[1.0, 0.0], [0.0, 1.0]], "c": [0.0, 1.0]},
            {"Q": [[1.0, 0.0], [0.0, -1.0]], "c": [0.0, 0.0]},
        ],
        "truncation": {"word_length": 2, "radius": 3.0},
    }
    assert main(["euclid", "certify", write(tmp_path, "t.json", doc)]) == 1
    cert = json.loads(capsys.readouterr().out)
    assert cert["status"] == "inconclusive"


def test_bands_run_csv_shape(tmp_path, capsys):
    model = dimer_model()
    assert main(["bands", "run", write(tmp_path, "m.json", model)]) == 0
    lines = capsys.readouterr().out.strip().splitlines()
    assert lines[0] == "k_index,k_value,band_index,energy"
    assert len(lines) == 1 + model["N"] * model["M"]


# sha256 of stdout as the row-by-row f-string formatter wrote it; the last model spans two format blocks
@pytest.mark.parametrize("model, sha", [
    ({"t": 0.9, "M": 3, "N": 50, "V": [0.3, -1.2, 0.0]}, "a09184bc613046f675d7fdc1dd5862e2101332e2bd3459041447e4637b212bd2"),
    ({"t": -1.5, "M": 1, "N": 7, "V": [-0.0]}, "8716fa669161d84e1a116d6c26af4bf7647d9711bfe95530f83190d4d177a8a0"),
    ({"t": 1e-300, "M": 2, "N": 1, "V": [1e22, -3.5e-7]}, "868959c92823743ddebfe5b14658f5cbc4fabbe59976af0c0e6387e57b449d7c"),
    ({"t": 0.37, "M": 3, "N": 2000, "V": [1.0, -0.25, 2.5]}, "a9aad26cddedc3e7280ceac152a4774c5502d5acdc17de3d67fbe01e0ee47f05"),
])
def test_bands_run_csv_bytes_are_pinned(tmp_path, capsys, model, sha):
    assert main(["bands", "run", write(tmp_path, "m.json", model)]) == 0
    assert hashlib.sha256(capsys.readouterr().out.encode()).hexdigest() == sha


PINNED_BAND_MODELS = [
    {"t": 0.9, "M": 3, "N": 50, "V": [0.3, -1.2, 0.0]},
    {"t": -1.5, "M": 1, "N": 7, "V": [-0.0]},
    {"t": 1e-300, "M": 2, "N": 1, "V": [1e22, -3.5e-7]},
    {"t": 0.37, "M": 3, "N": 2000, "V": [1.0, -0.25, 2.5]},
]


# N in {1, 2, 3}, M = 1, and rows 0 .. N // 2 just over one block of 4096 lines
@pytest.mark.parametrize("model", PINNED_BAND_MODELS + [
    {"t": 0.8, "M": 2, "N": n, "V": [0.1, -0.6]} for n in (1, 2, 3)
] + [
    {"t": 1.1, "M": 1, "N": 8194, "V": [0.25]},
    {"t": -0.6, "M": 3, "N": 2731, "V": [0.0, 1.5, -0.5]},
    {"t": 0.7, "M": 4, "N": 2050, "V": [0.4, -0.4, 0.2, 0.0]},
])
def test_bands_run_csv_is_the_row_loops(tmp_path, capsys, model):
    from oracles import bands_csv_loop
    from zakspace.bloch import band_structure

    assert main(["bands", "run", write(tmp_path, "m.json", model)]) == 0
    bs = band_structure(model["t"], model["M"], model["N"], model["V"])
    assert capsys.readouterr().out == bands_csv_loop(bs)


def test_bands_run_peak_stays_below_the_csv(tmp_path):
    # the mirrored rows are held as text without their prefixes; nothing holds the whole CSV
    import tracemalloc

    out = tmp_path / "bands.csv"
    doc = write(tmp_path, "m.json", {"t": 1.0, "M": 1, "N": 200000, "V": [0.5]})
    tracemalloc.start()
    try:
        assert main(["bands", "run", doc, "--out", str(out)]) == 0
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < out.stat().st_size, (peak, out.stat().st_size)


def test_bands_check_fails_a_planted_even_defect(tmp_path, capsys, monkeypatch):
    # rows j and N - j shifted together: equal to each other, not to the blocks at -k
    from zakspace import bloch

    solve = bloch.band_structure

    def planted(*args):
        bs = solve(*args)
        bs.bands[1] += 1e-8
        bs.bands[-1] += 1e-8
        return bs

    monkeypatch.setattr(bloch, "band_structure", planted)
    assert main(["bands", "check", write(tmp_path, "m.json", dimer_model())]) == 1
    checks = {c["check"]: c for c in json.loads(capsys.readouterr().out)["checks"]}
    assert not checks["bands_even_in_k"]["pass"]


def test_bands_check(tmp_path, capsys):
    assert main(["bands", "check", write(tmp_path, "m.json", dimer_model())]) == 0
    out = json.loads(capsys.readouterr().out)
    assert out["all_pass"]


def test_euclid_generate_and_certify(tmp_path, capsys):
    assert main(["euclid", "generate", write(tmp_path, "e.json", c4_group_doc())]) == 0
    out = json.loads(capsys.readouterr().out)
    assert out["order"] == 4 and out["finite"]
    assert main(["euclid", "certify", write(tmp_path, "e.json", c4_group_doc())]) == 0
    cert = json.loads(capsys.readouterr().out)
    assert cert["status"] == "type_I"


def diffract_doc():
    pts = []
    for radius, z, offset in ((1.0, 0.3, 0.0), (1.7, -0.2, 0.4)):
        for j in range(4):
            a = offset + j * np.pi / 2
            pts.append([radius * np.cos(a), radius * np.sin(a), z])
    return {
        "group": c4_group_doc(),
        "points": pts,
        "density": [0.8] * 4 + [1.3] * 4,
        "k": [0.4, 0.1, 0.2],
        "n": [[1.0, 0.0], [-2.0, 0.0], [-1.0, 0.0]],  # n . k = 0.4 - 0.2 - 0.2 = 0
        "omega": 2.0,
        "c_light": 1.0,
        "s0_list": [[0.0, 0.0, 1.0], [0.6, 0.0, 0.8], [0.0, 0.6, 0.8], [-0.48, 0.6, 0.64]],
    }


def test_diffract_run_and_verify(tmp_path, capsys):
    path = write(tmp_path, "d.json", diffract_doc())
    assert main(["diffract", "run", path]) == 0
    lines = capsys.readouterr().out.strip().splitlines()
    assert lines[0].startswith("s0_x,s0_y,s0_z,intensity,intensity_")
    assert len(lines) == 5
    assert main(["diffract", "verify", path]) == 0
    out = json.loads(capsys.readouterr().out)
    assert out["all_pass"]


def test_suite_all_deterministic_across_jobs(tmp_path):
    out1, out8 = str(tmp_path / "r1.json"), str(tmp_path / "r8.json")
    assert main(["suite", "all", "--seed", "7", "--out", out1]) == 0
    assert main(["suite", "all", "--seed", "7", "--jobs", "8", "--out", out8]) == 0
    b1 = (tmp_path / "r1.json").read_bytes()
    b8 = (tmp_path / "r8.json").read_bytes()
    assert b1 == b8
    report = json.loads(b1)
    assert report["n_checks"] >= 40
    assert report["all_pass"]


def test_malformed_json_exit_2(tmp_path, capsys):
    p = tmp_path / "bad.json"
    p.write_text('{"order": 2,,}')
    code = main(["group", "inspect", str(p)])
    assert code == 2
    err = capsys.readouterr().err
    diag = json.loads(err)
    assert diag["error"] == "malformed JSON"
    assert "line" in diag and "column" in diag


def test_deeply_nested_json_exit_2(tmp_path, capsys):
    p = tmp_path / "deep.json"
    p.write_text('{"t": ' + "[" * 5000 + "]" * 5000 + ', "M": 1, "N": 1, "V": [0.0]}')
    assert_exit_2(["bands", "run", str(p)], capsys)


def test_unknown_keys_exit_2(tmp_path, capsys):
    cfg = {"t": 1.0, "M": 1, "N": 4, "V": [0.0], "bogus": 1}
    assert main(["bands", "run", write(tmp_path, "m.json", cfg)]) == 2
    diag = json.loads(capsys.readouterr().err)
    assert diag["error"] == "unknown keys"
    assert diag["keys"] == ["bogus"]


def test_missing_file_exit_2(capsys):
    assert main(["bands", "run", "no_such_file.json"]) == 2


def test_golden_bands_csv(tmp_path):
    # M=1 cosine chain: energies are -2 cos(2 pi j / 6), k = 2 pi j / 6
    model = {"t": 1.0, "M": 1, "N": 6, "V": [0.0]}
    out = str(tmp_path / "bands.csv")
    assert main(["bands", "run", write(tmp_path, "m.json", model), "--out", out]) == 0
    rows = (tmp_path / "bands.csv").read_text().strip().splitlines()[1:]
    for row in rows:
        j, k_val, band, energy = row.split(",")
        assert float(energy) == pytest.approx(-2.0 * np.cos(2 * np.pi * int(j) / 6), abs=1e-10)


def test_zak_verify_lattice_mode(tmp_path, capsys):
    rng = np.random.default_rng(3)
    samples = rng.normal(size=24)
    cfg = {"samples": [float(v) for v in samples], "cells": [4]}
    assert main(["zak", "verify", write(tmp_path, "l.json", cfg)]) == 0
    out = json.loads(capsys.readouterr().out)
    assert out["all_pass"]
    names = {c["check"] for c in out["checks"]}
    assert "zak_unitarity" in names and "classic_zak_fft_vs_direct" in names


VERIFY_REPORTS = {
    "zak_finite": ("zak", "verify", {"action": action_to_dict(z2_fixed_point()), "n_random": 2}),
    "zak_lattice": ("zak", "verify", {"samples": [float(v) for v in np.arange(24.0) % 5], "cells": [4]}),
    "poisson": ("poisson", "check", {"group": "cyclic:6", "subgroup": [0, 3], "n_random": 5}),
    "bands": ("bands", "check", dimer_model()),
    "diffract": ("diffract", "verify", diffract_doc()),
}


@pytest.mark.parametrize("report", sorted(VERIFY_REPORTS))
def test_tol_sets_every_check_tolerance(tmp_path, capsys, report):
    group, sub, doc = VERIFY_REPORTS[report]
    assert main([group, sub, write(tmp_path, "doc.json", doc), "--tol", "1e-3"]) == 0
    out = json.loads(capsys.readouterr().out)
    assert out["all_pass"]
    assert [c["tolerance"] for c in out["checks"]] == [1e-3] * len(out["checks"])
    assert all(c["pass"] is True for c in out["checks"])


@pytest.mark.parametrize("tol", ["0", "-1e-9", "nan", "inf"])
def test_bad_tol_exit_2(tmp_path, capsys, tol):
    assert main(["bands", "check", write(tmp_path, "m.json", dimer_model()), f"--tol={tol}"]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    (line,) = captured.err.splitlines()
    assert json.loads(line)["error"] == "ConfigError"


@pytest.mark.parametrize("name", ["bogus:3", "cyclic:x", "cyclic:0", "product:cyclic:2", "symmetric:0"])
def test_bad_group_name_exit_2(tmp_path, capsys, name):
    cfg = {"group": name, "subgroup": [0]}
    assert main(["poisson", "check", write(tmp_path, "p.json", cfg)]) == 2
    (line,) = capsys.readouterr().err.splitlines()
    assert json.loads(line)["error"] == "ConfigError"


OVERSIZED = {
    # every size fails the byte budget before anything of that size is allocated
    "cyclic table": ("poisson", "check", {"group": "cyclic:100000000", "subgroup": [0]}, "the table"),
    "product table": ("poisson", "check", {"group": "product:cyclic:100000000xcyclic:2", "subgroup": [0]}, "the table"),
    "bands run blocks": ("bands", "run", {"t": 1.0, "M": 2, "N": 10**15, "V": [0.0, 1.0]}, "Bloch blocks"),
    "bands check blocks": ("bands", "check", {"t": 1.0, "M": 2, "N": 10**15, "V": [0.0, 1.0]}, "Bloch blocks"),
    # blocks of 0.16 GB pass, the dense ring of 1.6 PB does not
    "bands check ring": ("bands", "check", {"t": 1.0, "M": 1, "N": 10_000_000, "V": [0.0]}, "dense ring"),
}


@pytest.mark.parametrize("case", list(OVERSIZED))
def test_oversized_document_exit_2(tmp_path, capsys, case):
    cmd, sub, doc, what = OVERSIZED[case]
    assert main([cmd, sub, write(tmp_path, "big.json", doc)]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    (line,) = captured.err.splitlines()
    err = json.loads(line)
    assert err["error"] == "ConfigError" and what in err["detail"]
    assert err["detail"].endswith(f"more than {MAX_ARRAY_BYTES}")


def test_product_order_is_checked_before_a_factor_is_built(monkeypatch):
    def never(n):
        raise AssertionError(f"a factor of order {n} was built")

    monkeypatch.setattr(serialize, "_CATALOG", dict.fromkeys(serialize._CATALOG, never))
    with pytest.raises(ConfigError, match="more than"):
        serialize._named_group("product:cyclic:5000xdihedral:2500")  # each factor's table alone is under the budget


@pytest.mark.parametrize(
    "f",
    [
        [[1, 0], [1, 0, 5], [0, 0]],  # ragged
        [[1, 0, 5], [1, 0, 5], [0, 0, 1], [1, 1, 1]],  # rows of width 3
        [[1], [0], [2], [3]],  # rows of width 1
        [[1, 0], [1e400, 0], [0, 0], [0, 1]],  # inf after JSON parsing
        [1.0, "a", 0.0, 0.0],  # not a number
    ],
)
def test_bad_vector_exit_2(tmp_path, capsys, f):
    cfg = {"action": action_to_dict(z4_rotation()), "f": f}
    assert main(["zak", "forward", write(tmp_path, "in.json", cfg)]) == 2
    (line,) = capsys.readouterr().err.splitlines()
    assert json.loads(line)["error"] == "ConfigError"


def lattice_doc(**changes):
    return {"samples": [1.0, 2.0, 3.0, 4.0, 5.0, 6.0], "cells": [2], **changes}


def grid_doc(**changes):
    """The lattice grid document of lattice_doc(), with entries replaced, or dropped where None."""
    doc = {**grid_to_dict(classic_zak(np.arange(1.0, 7.0), cells=2)), **changes}
    return {key: value for key, value in doc.items() if value is not None}


@pytest.mark.parametrize(
    "command, doc",
    [
        ("zak forward", lattice_doc(sample_shape=[4])),
        ("zak verify", lattice_doc(sample_shape=[4, 4])),
        ("zak forward", lattice_doc(sample_shape="wide")),
        ("diffract verify", {**diffract_doc(), "omega": "fast"}),
        ("diffract verify", {**diffract_doc(), "c_light": [1.0, 2.0]}),
        ("diffract verify", {**diffract_doc(), "points": [["a", 0.0, 0.0]] * 8}),
        ("diffract verify", {**diffract_doc(), "density": "heavy"}),
        ("diffract verify", {**diffract_doc(), "k": ["x", 0.1, 0.2]}),
        ("diffract verify", {**diffract_doc(), "k": [0.4, 0.1]}),
        ("diffract run", {**diffract_doc(), "omega": float("nan")}),
        ("diffract run", {**diffract_doc(), "s0_list": [[0.0, 0.0, 0.0]]}),
        ("diffract run", {**diffract_doc(), "points": float("inf")}),
        ("euclid generate", {**c4_group_doc(), "generators": [{"Q": "rot", "c": [0.0, 0.0, 0.0]}]}),
        ("euclid generate", {**c4_group_doc(), "generators": [{"Q": [[1.0, 0.0], [0.0, 1.0]]}]}),
        ("euclid generate", {"dim": 2, "generators": [{"Q": [[1.0, 0.0], [0.0, 1.0]], "c": 0.0}]}),
        ("euclid certify", {**c4_group_doc(), "truncation": {"radius": "far"}}),
        ("diffract verify", {**diffract_doc(), "group": {"dim": 3, "generators": [[1.0]]}}),
        ("group inspect", {"table": [[0, 1]], "perm": [[0]]}),
        ("group inspect", {**action_to_dict(z2_fixed_point()), "perm": [[0, 1, 2], [1, 0]]}),
        ("group inspect", {**action_to_dict(z2_fixed_point()), "weights": "heavy"}),
        *(("zak inverse", doc) for doc in MALFORMED_ZAK_INVERSE),
        ("group inspect", {**action_to_dict(z2_fixed_point()), "perm": [[0, 1, 2.5], [1, 0, 2]]}),
        ("group inspect", {**action_to_dict(z2_fixed_point()), "table": [[0, 1.7], [1, 0]]}),
        ("group inspect", {**action_to_dict(z2_fixed_point()), "order": "2"}),
        ("group inspect", {**action_to_dict(z2_fixed_point()), "points": "3"}),
        ("group inspect", {**action_to_dict(z2_fixed_point()), "table": 5}),
        ("group inspect", {**action_to_dict(z2_fixed_point()), "perm": 7}),
        ("group inspect", {**action_to_dict(z2_fixed_point()), "perm": [0, 1]}),
        ("diffract verify", {**diffract_doc(), "group": {"dim": 2, "generators": [{"Q": [[0.0, -1.0], [1.0, 0.0]], "c": [0.0, 0.0]}]}}),
        ("euclid generate", {"dim": 2.9, "generators": [{"Q": [[0.0, -1.0], [1.0, 0.0]], "c": [0.0, 0.0]}]}),
        ("euclid generate", {**c4_group_doc(), "truncation": {"word_length": 6.7}}),
        ("euclid generate", {**c4_group_doc(), "truncation": {"word_length": "6"}}),
        ("euclid generate", {**c4_group_doc(), "truncation": {"word_length": True}}),
        ("euclid generate", {**c4_group_doc(), "truncation": {"max_elements": 100.5}}),
        ("euclid certify", {**c4_group_doc(), "truncation": {"radius": float("nan")}}),
        ("euclid generate", {**c4_group_doc(), "truncation": {"tol": float("nan")}}),
        ("euclid generate", {**c4_group_doc(), "truncation": {"tol": -1e-9}}),
        ("group inspect", {"table": [[0]], "perm": [[0]], "order": True}),
        ("bands run", {**dimer_model(), "t": float("nan")}),
        ("bands check", {**dimer_model(), "t": float("nan")}),
        ("bands check", {**dimer_model(), "V": [0.5, float("nan")]}),
        ("bands run", {**dimer_model(), "V": [0.5, float("nan")]}),
        ("bands run", {**dimer_model(), "V": [0.5, float("inf")]}),
        ("bands run", {**dimer_model(), "M": 2.9}),
        ("bands run", {**dimer_model(), "M": True}),
        ("bands run", {**dimer_model(), "N": 4.5}),
        ("bands run", {**dimer_model(), "t": "1"}),
        ("bands run", {**dimer_model(), "t": True}),
        ("bands run", {**dimer_model(), "t": 10**400}),
        ("bands run", {**dimer_model(), "V": [0.5, "1"]}),
        ("bands run", {**dimer_model(), "V": 0.5}),
        ("bands run", {**dimer_model(), "V": [0.5]}),
        ("euclid certify", {**c4_group_doc(), "truncation": {"radius": 10**400}}),
        ("zak inverse", grid_doc(cells=["a"])),
        ("zak inverse", grid_doc(cells=[2.5])),
        ("zak inverse", grid_doc(cells=[-3])),
        ("zak inverse", grid_doc(values=grid_doc()["values"][:-1])),
        ("zak inverse", grid_doc(periods=None)),
        ("zak inverse", grid_doc(periods=[0])),
        ("zak inverse", grid_doc(sample_shape=[5])),
        ("zak inverse", grid_doc(values=[[float("nan"), 0.0]] + grid_doc()["values"][1:])),
        ("zak inverse", grid_doc(sample_shape=[3, 2])),
        ("zak inverse", grid_doc(cells=[2, 1])),
        ("poisson check", {"group": "symmetric:3", "subgroup": [0, 6.7]}),
        ("poisson check", {"group": "symmetric:3", "subgroup": [0, True]}),
        ("poisson check", {"group": "symmetric:3", "subgroup": [0, 1], "n_random": 2.5}),
        ("poisson check", {"group": "symmetric:3", "subgroup": [0, 1], "n_random": -3}),
        ("poisson check", {"group": "symmetric:3", "subgroup": [0, 1], "mode": "weird"}),
        ("poisson check", {"group": "symmetric:3", "subgroup": [0, 6]}),
        ("poisson check", {"group": "symmetric:3", "subgroup": [0, -1]}),
        ("poisson check", {"group": "symmetric:3", "subgroup": "0 1"}),
        ("poisson check", {"group": 5, "subgroup": [0]}),
        ("zak verify", {"action": action_to_dict(z2_fixed_point()), "n_random": 1.9}),
        ("zak inverse", {**finite_zak_doc(), "action": 5}),
        ("zak inverse", {**finite_zak_doc(), "f_norm": 10**400}),
        ("zak forward", lattice_doc(cells=["a"])),
        ("zak forward", lattice_doc(cells=[2.5])),
        ("zak verify", lattice_doc(cells=0)),
        ("zak inverse", grid_doc(cells=[1] * 40, periods=[1] * 40, sample_shape=[1] * 40, values=[1.0], samples=[1.0])),
        # every reader declares its keys once and reads every field by one rule (these exited 0 or with a traceback)
        ("euclid generate", {**c4_group_doc(), "truncation": {"word_lenght": 2}}),
        ("zak verify", lattice_doc(f="junk", n_random="x")),
        ("diffract verify", {**diffract_doc(), "omega": True}),
        ("euclid generate", {"dim": 2, "generators": [{"Q": [[True, 0], [0, 1]], "c": [0.0, 0.0]}]}),
        ("group inspect", {"table": [[0]], "perm": [[0]], "weights": [True]}),
        ("diffract verify", {**diffract_doc(), "weights": [True] * 8}),
        ("zak forward", {"samples": [], "cells": [1]}),
        ("zak verify", {"samples": [], "cells": [1]}),
        ("zak forward", lattice_doc(samples=[1.0], cells=[1] * 40, sample_shape=[1] * 40)),
        ("zak verify", lattice_doc(samples=[1.0], cells=[1] * 40, sample_shape=[1] * 40)),
        ("euclid generate", {**c4_group_doc(), "generators": [{**c4_group_doc()["generators"][0], "angle": 90}]}),
        ("zak forward", {"action": {**action_to_dict(z2_fixed_point()), "bogus": 1}, "f": [1.0, 2.0, 3.0]}),
        ("zak inverse", {**finite_zak_doc(), "dual": {**finite_zak_doc()["dual"], "bogus": 1}}),
        ("zak forward", {"action": action_to_dict(z2_fixed_point()), "f": [True, 2.0, 3.0]}),
        ("diffract verify", {**diffract_doc(), "n": [[True, 0.0], [-2.0, 0.0], [-1.0, 0.0]]}),
        ("zak forward", lattice_doc(samples=[True, 1.0, 2.0, 3.0])),
        ("zak forward", lattice_doc(action=action_to_dict(z2_fixed_point()))),
        ("group inspect", {**action_to_dict(z2_fixed_point()), "weights": None}),
        ("group inspect", {**action_to_dict(z2_fixed_point()), "table": [[0.0, 1.0], [1.0, 0.0]]}),
        ("poisson check", {"group": action_to_dict(z2_fixed_point()), "subgroup": [0]}),
        ("zak inverse", {**finite_zak_doc(), "representatives": [0, 1]}),
        ("zak inverse", {**finite_zak_doc(), "blocks": finite_zak_doc()["blocks"] + finite_zak_doc()["blocks"][:1]}),
        ("zak verify", lattice_doc(sample_shape=[-1])),
    ],
)
def test_malformed_document_exit_2(tmp_path, capsys, command, doc):
    path = write(tmp_path, "doc.json", doc)  # json writes NaN and Infinity literals
    assert main([*command.split(), path]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    (line,) = captured.err.splitlines()
    assert "error" in json.loads(line)


# ---------------------------------------------------------------------------
# every file `zak forward --out` writes, `zak inverse` reads back


def forward_config(kind: str):
    """(document, f): a finite action with f, or 2-d lattice samples f."""
    rng = np.random.default_rng(19)
    if kind == "finite":
        action = d3_triangle()
        f = random_complex(rng, action.npoints)
        return {"action": action_to_dict(action), "f": encode_vector(f)}, f
    f = rng.normal(size=(6, 4)) + 1j * rng.normal(size=(6, 4))
    return {"samples": encode_vector(f.ravel()), "cells": [3, 2], "sample_shape": [6, 4]}, f


@pytest.mark.parametrize("suffix", [".json", ".zak", ".bin"])
@pytest.mark.parametrize("kind, rel_tol", [("finite", 1e-11), ("lattice", 1e-10)])
def test_zak_inverse_reads_back_every_forward_output(tmp_path, capsys, kind, rel_tol, suffix):
    cfg, f = forward_config(kind)
    out_path = str(tmp_path / f"coeffs{suffix}")
    assert main(["zak", "forward", write(tmp_path, "in.json", cfg), "--out", out_path]) == 0
    assert main(["zak", "inverse", out_path]) == 0
    out = json.loads(capsys.readouterr().out)
    rec = np.array([complex(re, im) for re, im in out["f"]]).reshape(out.get("shape", f.shape))
    assert np.max(np.abs(rec - f)) <= rel_tol * np.max(np.abs(f))


def test_binary_and_json_inverse_print_the_same_bytes(tmp_path, capsys):
    for kind in ("finite", "lattice"):
        cfg, _f = forward_config(kind)
        printed = []
        for suffix in (".json", ".zak"):
            out_path = str(tmp_path / f"coeffs{suffix}")
            assert main(["zak", "forward", write(tmp_path, "in.json", cfg), "--out", out_path]) == 0
            assert main(["zak", "inverse", out_path]) == 0
            printed.append(capsys.readouterr().out)
        assert printed[0] == printed[1], kind


def container(kind: str) -> bytes:
    """A small valid container of each kind."""
    if kind == "finite":
        action = z2_fixed_point()
        return zak_to_bytes(zak(action, np.array([1.0, 2.0 - 1.0j, 3.0]), irreps(action.group)))
    return grid_to_bytes(classic_zak(np.arange(1.0, 7.0), cells=2))


def parts(raw: bytes) -> tuple:
    """(header text, body) of a container."""
    (size,) = struct.unpack_from("<I", raw, 8)
    return raw[12 : 12 + size], raw[12 + size :]


def header_of(raw: bytes) -> dict:
    return json.loads(parts(raw)[0])


def rebuilt(raw: bytes, header=None, body=None, version=1) -> bytes:
    """raw with its version, header (bytes, or a document) or body replaced, the header size kept consistent."""
    text, old_body = parts(raw)
    if header is not None:
        text = header if isinstance(header, bytes) else json.dumps(header).encode()
    return raw[:4] + struct.pack("<II", version, len(text)) + text + (old_body if body is None else body)


def with_shapes(raw: bytes, shapes) -> bytes:
    return rebuilt(raw, header={**header_of(raw), "shapes": shapes})


def one_flat_shape(raw: bytes) -> bytes:
    """The same body under one flat shape, which matches neither kind's layout."""
    return with_shapes(raw, [[sum(int(np.prod(s)) for s in header_of(raw)["shapes"])]])


CONTAINER_FAULTS = {
    "old magic": lambda raw: b"ZAK1" + raw[4:],
    "swapped magic": lambda raw: (GRID_MAGIC if raw[:4] == ZAK_MAGIC else ZAK_MAGIC) + raw[4:],
    "version 2": lambda raw: rebuilt(raw, version=2),
    "header size past the end": lambda raw: raw[:8] + struct.pack("<I", len(raw)) + raw[12:],
    "header not JSON": lambda raw: rebuilt(raw, header=b"{"),
    "header not UTF-8": lambda raw: rebuilt(raw, header=b'"\xff"'),
    "header not an object": lambda raw: rebuilt(raw, header=[1, 2]),
    "shapes missing": lambda raw: rebuilt(raw, header={k: v for k, v in header_of(raw).items() if k != "shapes"}),
    "non-integer shape": lambda raw: with_shapes(raw, [[2.5]] + header_of(raw)["shapes"][1:]),
    "negative shape": lambda raw: with_shapes(raw, [[-1]] + header_of(raw)["shapes"][1:]),
    "huge empty shape": lambda raw: with_shapes(raw, header_of(raw)["shapes"] + [[10**30, 0]]),
    "one trailing byte": lambda raw: raw + b"\x00",
    "one byte short": lambda raw: raw[:-1],
    "one entry short": lambda raw: raw[:-16],
    "shapes disagree with the metadata": one_flat_shape,
    "a NaN entry": lambda raw: rebuilt(raw, body=struct.pack("<dd", float("nan"), 0.0) + parts(raw)[1][16:]),
}


def assert_exit_2(argv, capsys):
    assert main(argv) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    (line,) = captured.err.splitlines()
    assert "error" in json.loads(line)


@pytest.mark.parametrize("fault", list(CONTAINER_FAULTS))
@pytest.mark.parametrize("kind", ["finite", "lattice"])
def test_container_fault_exit_2(tmp_path, capsys, kind, fault):
    path = tmp_path / "bad.zak"
    path.write_bytes(CONTAINER_FAULTS[fault](container(kind)))
    assert_exit_2(["zak", "inverse", str(path)], capsys)


def test_finite_stacks_that_disagree_with_the_dual_exit_2(tmp_path, capsys):
    action = d3_triangle()
    coeffs = zak(action, np.arange(1.0, action.npoints + 1), irreps(action.group))
    header = {key: header_of(zak_to_bytes(coeffs))[key] for key in ("action", "dual", "f_norm")}
    path = tmp_path / "bad.zak"
    for stacks in (coeffs.blocks[:-1], [z.swapaxes(0, 1) for z in coeffs.blocks], coeffs.blocks[::-1]):
        path.write_bytes(_pack(ZAK_MAGIC, header, stacks))
        assert_exit_2(["zak", "inverse", str(path)], capsys)


@pytest.mark.parametrize("kind", ["finite", "lattice"])
def test_every_truncation_of_a_container_exit_2(tmp_path, capsys, kind):
    raw = container(kind)
    path = tmp_path / "cut.zak"
    for n in range(len(raw)):
        path.write_bytes(raw[:n])
        assert_exit_2(["zak", "inverse", str(path)], capsys)
    path.write_bytes(raw)
    assert main(["zak", "inverse", str(path)]) == 0

