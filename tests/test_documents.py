"""A document fuzzer: no mutation of a valid CLI document gets past the CLI contract.

Each example takes a valid document of tests/test_cli.py and mutates one
node at some nesting level: it drops or adds a key, retypes a value, puts
in NaN, inf or 1e308, turns an integer into a float or a bool, or makes a
list ragged.  Every command must then exit 0, 1 or 2; exit 2 writes
nothing to stdout and exactly one JSON line to stderr.
"""

import io
import json
import warnings
from contextlib import redirect_stderr, redirect_stdout

import pytest

hypothesis = pytest.importorskip("hypothesis")
from hypothesis import HealthCheck, given, settings, strategies as st  # noqa: E402

from test_cli import (  # noqa: E402
    action_to_dict,
    c4_group_doc,
    container,
    diffract_doc,
    dimer_model,
    finite_zak_doc,
    forward_config,
    grid_doc,
    lattice_doc,
    main,
    write,
    z2_fixed_point,
)

FUZZ = settings(
    max_examples=150,
    derandomize=True,
    database=None,
    deadline=None,
    suppress_health_check=[HealthCheck.function_scoped_fixture, HealthCheck.too_slow],
)

FUZZ_DOCUMENTS = [
    ("group inspect", action_to_dict(z2_fixed_point())),
    ("zak forward", forward_config("finite")[0]),
    ("zak forward", lattice_doc(sample_shape=[6])),
    ("zak verify", {"action": action_to_dict(z2_fixed_point()), "f": [1.0, 2.0, 3.0], "n_random": 1}),
    ("zak verify", lattice_doc(cells=2)),
    ("zak inverse", finite_zak_doc()),
    ("zak inverse", grid_doc()),
    ("poisson check", {"group": "cyclic:6", "subgroup": [0, 3], "mode": "abelian", "n_random": 2}),
    ("poisson check", {"group": {"order": 2, "table": [[0, 1], [1, 0]], "name": "z2"}, "subgroup": [0]}),
    ("bands run", dimer_model()),
    ("bands check", dimer_model()),
    ("euclid generate", {**c4_group_doc(), "truncation": {"word_length": 6, "radius": 5.0, "max_elements": 50, "tol": 1e-9}}),
    ("euclid certify", c4_group_doc()),
    ("diffract run", {**diffract_doc(), "weights": [1.0] * 8, "s0_list": diffract_doc()["s0_list"][:2]}),
    ("diffract verify", {**diffract_doc(), "s0_list": diffract_doc()["s0_list"][:1]}),
]
RETYPED = ["x", [], {}, None, 0.5, 3, True, [1, 2]]


def nodes(doc, path=()):
    """(path, value) for every node of a JSON document, the root first."""
    yield path, doc
    items = doc.items() if isinstance(doc, dict) else enumerate(doc) if isinstance(doc, list) else ()
    for key, value in items:
        yield from nodes(value, (*path, key))


def mutated(doc, data):
    """doc with one node dropped, added to, retyped, made non-finite or huge, made a float or a bool, or made ragged."""
    doc = json.loads(json.dumps(doc))
    path, value = data.draw(st.sampled_from(list(nodes(doc))))
    kinds = ["retype"]
    if isinstance(value, dict) and value:
        kinds += ["drop", "add"]
    if type(value) in (int, float):
        kinds += ["number"]
    if type(value) is int:
        kinds += ["integer"]
    if isinstance(value, list) and value:
        kinds += ["ragged"]
    kind = data.draw(st.sampled_from(kinds))
    if kind == "drop":
        del value[data.draw(st.sampled_from(sorted(value)))]
        return doc
    if kind == "add":
        value["bogus"] = 1
        return doc
    if kind == "ragged":
        i = data.draw(st.integers(0, len(value) - 1))
        value[i] = value[i][:-1] if isinstance(value[i], list) and value[i] else [value[i], value[i]]
        return doc
    if kind == "retype":
        choices = [r for r in RETYPED if type(r) is not type(value)]
    else:
        choices = [float("nan"), float("inf"), -float("inf"), 1e308] if kind == "number" else [float(value), True, False]
    new = data.draw(st.sampled_from(choices))
    if not path:
        return new
    parent = doc
    for key in path[:-1]:
        parent = parent[key]
    parent[path[-1]] = new
    return doc


def run_cli(argv) -> tuple:
    """(exit code, stdout, stderr) of one in-process call; a warning would reach stderr, so it counts as stderr text."""
    out, err = io.StringIO(), io.StringIO()
    with warnings.catch_warnings(record=True) as caught, redirect_stdout(out), redirect_stderr(err):
        warnings.simplefilter("always")
        code = main(argv)
    return code, out.getvalue(), err.getvalue() + "".join(f"{w.message}\n" for w in caught)


def assert_contract(code, out, err):
    assert code in (0, 1, 2)
    if code == 2:
        assert out == ""
        (line,) = err.splitlines()
        assert "error" in json.loads(line)


@FUZZ
@given(data=st.data())
def test_mutated_documents_keep_the_cli_contract(tmp_path, data):
    command, doc = data.draw(st.sampled_from(FUZZ_DOCUMENTS))
    path = write(tmp_path, "doc.json", mutated(doc, data))
    out_path = str(tmp_path / data.draw(st.sampled_from(["fwd.json", "fwd.zak"])))
    argv = [*command.split(), path] + (["--out", out_path] if command == "zak forward" else [])
    code, out, err = run_cli(argv)
    assert_contract(code, out, err)
    if command == "zak forward" and code == 0:
        assert run_cli(["zak", "inverse", out_path])[0] == 0


@FUZZ
@given(kind=st.sampled_from(["finite", "lattice"]), data=st.data())
def test_truncated_containers_keep_the_cli_contract(tmp_path, kind, data):
    raw = container(kind)
    path = tmp_path / "cut.zak"
    path.write_bytes(raw[: data.draw(st.integers(0, len(raw) - 1))])
    code, out, err = run_cli(["zak", "inverse", str(path)])
    assert code == 2
    assert_contract(code, out, err)
