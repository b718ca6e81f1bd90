"""The benchmark's four workloads: seeded inputs, timed ops, output checks.

Every workload is a closed loop: one client in one process, each op started
when the previous one has finished.  An op has a kind, and a cycle runs each
kind once in a fixed order, so the kinds of a mixed workload are interleaved
in equal counts.  Their number is odd and not a multiple of ten, which keeps
the median and the 90th percentile inside one kind's block of latencies.

For each op the benchmark draws inputs from the workload seed and the op id
(untimed), calls the library (timed), checks the outputs at the library's
pinned tolerances or against a brute-force oracle written here (untimed), and
keeps a digest of the outputs so that a traced replay can be compared with
the untraced run byte for byte.

Library functions are always looked up on their module at call time, so the
wrappers the tracer installs are the ones called.
"""

from __future__ import annotations

import contextlib
import hashlib
import importlib
import io
import itertools
import json
import shutil
from pathlib import Path

import numpy as np

groups = importlib.import_module("zakspace.groups")
actions = importlib.import_module("zakspace.actions")
weil = importlib.import_module("zakspace.weil")
duals = importlib.import_module("zakspace.duals")
fourier = importlib.import_module("zakspace.fourier")
reciprocal = importlib.import_module("zakspace.reciprocal")
zakmod = importlib.import_module("zakspace.zak")
lattice = importlib.import_module("zakspace.lattice")
bloch = importlib.import_module("zakspace.bloch")
euclid = importlib.import_module("zakspace.euclid")
radiation = importlib.import_module("zakspace.radiation")
serialize = importlib.import_module("zakspace.serialize")
cli = importlib.import_module("zakspace.cli")

GOLDEN_ANGLE = np.pi * (3.0 - np.sqrt(5.0))


class CheckFailed(Exception):
    """An op's output did not pass its check."""


def require(ok, what: str) -> None:
    if not ok:
        raise CheckFailed(what)


def below(name: str, value: float, tol: float) -> None:
    """value < tol, false for NaN."""
    require(value < tol, f"{name} = {value:.3g}, tolerance {tol:g}")


def rel_err(a, b) -> float:
    a, b = np.asarray(a), np.asarray(b)
    return float(np.max(np.abs(a - b)) / max(1.0, float(np.max(np.abs(b)))))


def complex_normal(rng, *shape) -> np.ndarray:
    return rng.normal(size=shape) + 1j * rng.normal(size=shape)


def digest(*parts) -> str:
    """SHA-256 over arrays, bytes, strings, numbers and nested containers."""
    h = hashlib.sha256()

    def feed(obj):
        if isinstance(obj, np.ndarray):
            h.update(str(obj.dtype).encode() + str(obj.shape).encode())
            h.update(np.ascontiguousarray(obj).tobytes())
        elif isinstance(obj, (bytes, bytearray)):
            h.update(bytes(obj))
        elif isinstance(obj, str):
            h.update(obj.encode())
        elif isinstance(obj, dict):
            for key in sorted(obj, key=repr):
                feed(repr(key))
                feed(obj[key])
        elif isinstance(obj, (list, tuple)):
            for item in obj:
                feed(item)
        else:
            h.update(repr(obj).encode())

    for part in parts:
        feed(part)
    return h.hexdigest()


def relabel_table(table: np.ndarray, perm: np.ndarray) -> np.ndarray:
    """Multiplication table after renaming element g to perm[g]."""
    inv = np.argsort(perm)
    return perm[table[np.ix_(inv, inv)]]


def product_table(t1: np.ndarray, t2: np.ndarray) -> np.ndarray:
    """The direct_product encoding: element a*|G2| + b is the pair (a, b)."""
    n2 = t2.shape[0]
    a, b = np.divmod(np.arange(t1.shape[0] * n2), n2)
    return t1[np.ix_(a, a)] * n2 + t2[np.ix_(b, b)]


def inverses_of(table: np.ndarray) -> np.ndarray:
    identity = int(np.flatnonzero((table == np.arange(len(table))).all(axis=1))[0])
    return np.argmax(table == identity, axis=1)


def invariant_hermitian(table: np.ndarray, rng) -> np.ndarray:
    """Group average of a random Hermitian matrix under left translation."""
    n = len(table)
    raw = complex_normal(rng, n, n)
    raw = raw + raw.conj().T
    back = table[inverses_of(table)]  # back[g, x] = g^-1 x
    h = np.zeros((n, n), dtype=complex)
    for row in back:
        h += raw[np.ix_(row, row)]
    return h / n


def golden_spiral(count: int) -> list[np.ndarray]:
    """Deterministic, nearly uniform unit vectors."""
    out = []
    for i in range(count):
        z = 1.0 - 2.0 * (i + 0.5) / count
        r = np.sqrt(1.0 - z * z)
        out.append(np.array([r * np.cos(GOLDEN_ANGLE * i), r * np.sin(GOLDEN_ANGLE * i), z]))
    return out


def transverse(rng, k: np.ndarray) -> np.ndarray:
    n = complex_normal(rng, 3)
    return n - (np.dot(n, k) / np.dot(k, k)) * k


class Workload:
    """Seeded shared inputs built at setup, plus per-kind inputs, run and check."""

    name = ""
    kinds: tuple[str, ...] = ()

    def __init__(self, seed: int):
        self.seed = seed

    def rng(self, *key: int) -> np.random.Generator:
        return np.random.default_rng([self.seed, *key])

    def op_rng(self, op_id: int) -> np.random.Generator:
        """Inputs of op `op_id`; the warm-up op is -1, setup draws from rng(0)."""
        return self.rng(1, op_id + 1)

    def inputs(self, kind: str, op_id: int):
        return getattr(self, f"inputs_{kind}")(self.op_rng(op_id))

    def run(self, kind: str, inp):
        return getattr(self, f"run_{kind}")(inp)

    def check(self, kind: str, inp, out) -> None:
        getattr(self, f"check_{kind}")(inp, out)

    def digest(self, kind: str, out) -> str:
        return getattr(self, f"digest_{kind}")(out)

    def close(self) -> None:
        pass


# ---------------------------------------------------------------------------
# 1. orbit_transform


class OrbitTransform(Workload):
    """C64 on 288 weighted points: four free orbits and one with stabilizers of order 2.

    Every op transforms a fresh f through the front door (no structure
    passed), so `weil` and `zak` do nearly all the work on one shared action.
    """

    name = "orbit_transform"
    kinds = ("transform",)

    def __init__(self, seed: int, smoke: bool):
        super().__init__(seed)
        n = 8 if smoke else 64
        rng = self.rng(0)
        sizes = [n, n, n, n, n // 2]
        cols, offset = [], 0
        for size in sizes:
            cols.append(offset + (np.arange(n)[:, None] + np.arange(size)[None, :]) % size)
            offset += size
        perm = np.concatenate(cols, axis=1)
        relabel = rng.permutation(offset)  # point x is renamed relabel[x]
        perm = relabel[perm][:, np.argsort(relabel)]
        weights = rng.uniform(0.5, 2.0, size=offset)
        group = groups.cyclic_group(n)
        self.action = actions.make_action(group, perm, weights)
        self.dual = duals.irreps(group)
        self.back = self.action.perm[group.inverses]  # back[g, x] = g^-1 x
        self.chars = np.stack([s.matrices[:, 0, 0] for s in self.dual.irreps], axis=1)

    def inputs_transform(self, rng):
        return complex_normal(rng, self.action.npoints)

    def run_transform(self, f):
        coeffs = zakmod.zak(self.action, f, self.dual)
        return {
            "coeffs": coeffs,
            "f_rec": zakmod.zak_inverse(coeffs),
            "unitarity": zakmod.verify_unitarity(coeffs, f),
            "roundtrip": zakmod.verify_roundtrip(self.action, f, self.dual),
            "weil": weil.weil_residual(self.action, f),
        }

    def check_transform(self, f, out):
        coeffs = out["coeffs"]
        reps = coeffs.structure.decomp.representatives
        # oracle: the defining sum sum_g f(g^-1 x0) conj(chi(g)) as one matrix product
        direct = f[self.back[:, reps]].T @ self.chars.conj()
        got = np.array([[coeffs.value(x0, s.label) for s in self.dual.irreps] for x0 in reps])
        below("zak vs defining sum", float(np.max(np.abs(got - direct))) / max(1.0, coeffs.f_norm), 1e-12)
        below("zak_inverse", rel_err(out["f_rec"], f), 1e-11)
        below("zak_unitarity", out["unitarity"].residual, out["unitarity"].tolerance)
        below("zak_roundtrip", out["roundtrip"].residual, out["roundtrip"].tolerance)
        below("weil_formula", out["weil"], 1e-12)

    def digest_transform(self, out):
        return digest(
            out["coeffs"].data, out["f_rec"], out["unitarity"].residual,
            out["roundtrip"].residual, out["weil"],
        )


# ---------------------------------------------------------------------------
# 2. nonabelian_dual


def _even_permutations(n: int) -> list[tuple]:
    def parity(p):
        return sum(1 for i in range(n) for j in range(i + 1, n) if p[i] > p[j]) % 2

    return sorted(p for p in itertools.permutations(range(n)) if parity(p) == 0)


class NonabelianDual(Workload):
    """Relabelled groups whose duals come from every route `irreps` has.

    Ops share nothing: each builds its group from a seeded relabelling, builds
    the dual, and runs the Fourier, Poisson, Zak and block checks on it.
    """

    name = "nonabelian_dual"

    def __init__(self, seed: int, smoke: bool):
        super().__init__(seed)
        even = _even_permutations(4)
        v4 = [(0, 1, 2, 3), (1, 0, 3, 2), (2, 3, 0, 1), (3, 2, 1, 0)]
        a4 = (groups.permutation_table(even), [even.index(p) for p in v4])
        s3 = groups.symmetric_group(3).table
        if smoke:  # S3 and S3 x C2 are dihedral, so the smallest split group is S4
            self.specs = {
                "S4": ("split", groups.symmetric_group(4).table),
                "A4": ("induction", a4),
                "S3xC3": ("product", (s3, groups.cyclic_group(3).table)),
                "D4": ("dihedral", groups.dihedral_group(4).table),
            }
        else:
            self.specs = {
                "S4": ("split", groups.symmetric_group(4).table),
                "A4": ("induction", a4),
                "S3xC4": ("product", (s3, groups.cyclic_group(4).table)),
                "D12": ("dihedral", groups.dihedral_group(12).table),
                "S5": ("split", groups.symmetric_group(5).table),
            }
        self.kinds = tuple(self.specs)

    def inputs(self, kind, op_id):
        rng = self.op_rng(op_id)
        route, base = self.specs[kind]
        inp = {"route": route}
        if route == "product":
            t1, t2 = (relabel_table(t, rng.permutation(len(t))) for t in base)
            inp["factors"] = (t1, t2)
            table = product_table(t1, t2)
        elif route == "induction":
            perm = rng.permutation(len(base[0]))
            table = relabel_table(base[0], perm)
            inp["normal"] = sorted(int(perm[g]) for g in base[1])
        else:
            table = relabel_table(base, rng.permutation(len(base)))
        n = len(table)
        inp["table"] = table
        inp["f"] = complex_normal(rng, n)
        inp["f_quotient"] = complex_normal(rng, n)
        inp["phi"] = complex_normal(rng, n)
        identity = int(np.flatnonzero((table == np.arange(n)).all(axis=1))[0])
        inp["h"] = int(rng.choice([g for g in range(n) if g != identity]))
        inp["hamiltonian"] = invariant_hermitian(table, rng)
        return inp

    def run(self, kind, inp):
        if inp["route"] == "product":
            g1, g2 = (groups.make_group(t) for t in inp["factors"])
            group = groups.direct_product(g1, g2)
        else:
            group = groups.make_group(inp["table"])
        dual = duals.irreps(group, normal_abelian=inp.get("normal"))
        f = inp["f"]
        sub = groups.generated_subgroup(group, [inp["h"]])
        _, _, poisson = reciprocal.poisson_compact_check(f, group, sub, dual)
        n_cosets = group.order // len(sub)
        quotient = reciprocal.quotient_fourier_check(inp["f_quotient"][:n_cosets], group, sub, dual)
        action = actions.translation_action(group)
        coeffs = zakmod.zak(action, f, dual)
        op = bloch.check_invariance(action, inp["hamiltonian"])
        return {
            "dual": dual,
            "plancherel": fourier.plancherel_residual(f, dual),
            "poisson": poisson,
            "quotient": quotient,
            "coeffs": coeffs,
            "f_rec": zakmod.zak_inverse(coeffs),
            "weak": zakmod.weak_inversion_residual(action, f, inp["phi"], dual),
            "blocks": bloch.block_diagonalize(op, dual),
        }

    def check(self, kind, inp, out):
        labels = out["dual"].labels
        route_ok = {
            "split": all(lab.startswith("sigma") for lab in labels),
            "induction": all(lab.startswith("sigma") for lab in labels),
            "product": all("*" in lab for lab in labels),
            "dihedral": all(lab[0] in "AEB" for lab in labels),
        }[inp["route"]]
        require(route_ok, f"labels {labels} do not come from the {inp['route']} route")
        require(sum(s.dim**2 for s in out["dual"].irreps) == len(inp["table"]), "sum d^2 != |G|")
        below("plancherel", out["plancherel"], 1e-10)
        below("poisson_compact", out["poisson"], 1e-12)
        below("quotient_fourier", out["quotient"], 1e-12)
        below("zak_inverse", rel_err(out["f_rec"], inp["f"]), 1e-11)
        below("weak_inversion", out["weak"], 1e-11)
        h = inp["hamiltonian"]
        scale = max(1.0, float(np.linalg.norm(h)))
        bd = out["blocks"]
        below("off_block", bd.off_block_residual / scale, 1e-9)
        below("block spectrum vs eigvalsh", rel_err(bd.spectrum(), np.linalg.eigvalsh(h)) / scale, 1e-9)

    def digest(self, kind, out):
        return digest(
            [(s.label, s.matrices) for s in out["dual"].irreps],
            out["plancherel"], out["poisson"], out["quotient"], out["coeffs"].data,
            out["f_rec"], out["weak"], out["blocks"].unitary, out["blocks"].blocks,
        )


# ---------------------------------------------------------------------------
# 3. periodic


def p4_spec():
    return euclid.IsometryGroupSpec(
        2,
        [
            euclid.IsometryElement(euclid.rotation_2d(np.pi / 2), [0.0, 0.0]),
            euclid.translation([1.0, 0.0]),
            euclid.translation([0.0, 1.0]),
        ],
        euclid.Truncation(word_length=10, radius=5.0, max_elements=8000),
    )


def d6_spec():
    """D6 in 3-d: sixfold rotation about z and a twofold axis along x."""
    return euclid.IsometryGroupSpec(
        3,
        [
            euclid.IsometryElement(euclid.rotation_z(np.pi / 3), [0.0, 0.0, 0.0]),
            euclid.IsometryElement(np.diag([1.0, -1.0, -1.0]), [0.0, 0.0, 0.0]),
        ],
    )


def pm_spec(rotation: np.ndarray):
    """Rectangular lattice with a mirror, in a frame turned by `rotation`.

    The radius avoids |c| = 6 exactly, so rounding cannot move lattice
    points across the cut.
    """
    mirror = rotation @ np.diag([1.0, -1.0]) @ rotation.T
    return euclid.IsometryGroupSpec(
        2,
        [
            euclid.translation(rotation[:, 0]),
            euclid.translation(rotation[:, 1]),
            euclid.IsometryElement(mirror, [0.0, 0.0]),
        ],
        euclid.Truncation(word_length=12, radius=6.5, max_elements=4000),
    )


def bloch_oracle(t: float, onsite: np.ndarray, theta: float) -> np.ndarray:
    """Eigenvalues of the M x M Bloch block, built here independently."""
    m = len(onsite)
    h = np.diag(onsite.astype(complex))
    for a in range(m - 1):
        h[a, a + 1] = h[a + 1, a] = -t
    h[m - 1, 0] += -t * np.exp(-1j * theta)
    h[0, m - 1] += -t * np.exp(1j * theta)
    return np.linalg.eigvalsh(h)


class Periodic(Workload):
    """Lattice Zak, tight-binding bands, a folded wallpaper group, radiation, a certificate."""

    name = "periodic"
    kinds = ("lattice", "bands", "p4_fold", "radiation", "pm_certificate")

    def __init__(self, seed: int, smoke: bool):
        super().__init__(seed)
        self.side, self.cell = (16, 4) if smoke else (128, 8)
        self.n_k = 200 if smoke else 20000
        self.n_directions = 4 if smoke else 16
        self.d6_elements = euclid.generate(d6_spec()).elements  # places the sample points

    def inputs_lattice(self, rng):
        return {
            "samples": complex_normal(rng, self.side, self.side),
            "small": complex_normal(rng, 16, 16),
        }

    def run_lattice(self, inp):
        grid = lattice.classic_zak(inp["samples"], (self.cell, self.cell))
        small = lattice.classic_zak(inp["small"], (4, 4))
        return {
            "grid": grid,
            "rec": lattice.classic_zak_inverse(grid),
            "unitarity": zakmod.verify_unitarity(grid, inp["samples"].ravel()),
            "small": small.values,
            "direct": lattice.classic_zak_direct(inp["small"], (4, 4)),
        }

    def check_lattice(self, inp, out):
        below("classic_zak_roundtrip", rel_err(out["rec"], inp["samples"]), 1e-10)
        below("zak_unitarity", out["unitarity"].residual, out["unitarity"].tolerance)
        below("classic_zak_fft_vs_direct", float(np.max(np.abs(out["small"] - out["direct"]))), 1e-10)

    def digest_lattice(self, out):
        return digest(out["grid"].values, out["rec"], out["unitarity"].residual, out["direct"])

    def inputs_bands(self, rng):
        return {
            "t": float(rng.uniform(0.8, 1.2)),
            "onsite": rng.normal(size=4),
            "onsite_small": rng.normal(size=4),
            "rows": rng.choice(self.n_k, size=8, replace=False),
        }

    def run_bands(self, inp):
        bs = bloch.band_structure(inp["t"], 4, self.n_k, inp["onsite"], jobs=2)
        small = bloch.band_structure(inp["t"], 4, 50, inp["onsite_small"])
        return {"bands": bs, "union": bloch.band_union_residual(small)}

    def check_bands(self, inp, out):
        bs = out["bands"]
        for j in inp["rows"]:
            expected = bloch_oracle(inp["t"], inp["onsite"], 2.0 * np.pi * j / self.n_k)
            below(f"band row {j} vs oracle", float(np.max(np.abs(bs.bands[j] - expected))), 1e-10)
        below("bands_even_in_k", float(np.max(np.abs(bs.bands[1:] - bs.bands[:0:-1]))), 1e-10)
        below("band_union_vs_dense", out["union"], 1e-9)

    def digest_bands(self, out):
        return digest(out["bands"].bands, out["bands"].k_values, out["union"])

    def inputs_p4_fold(self, rng):
        return {"seeds": rng.uniform(0.1, 0.4, size=(2, 2)), "f": complex_normal(rng, 64)}

    def run_p4_fold(self, inp):
        spec = p4_spec()
        gen = euclid.generate(spec)
        model = euclid.to_finite_action(spec, inp["seeds"], periods=[2, 2])
        dual = duals.irreps(model.group)
        f = inp["f"][: model.action.npoints]
        coeffs = zakmod.zak(model.action, f, dual)
        return {
            "generated": gen.order,
            "model": model,
            "coeffs": coeffs,
            "f": f,
            "f_rec": zakmod.zak_inverse(coeffs),
        }

    def check_p4_fold(self, inp, out):
        model = out["model"]
        require(model.group.order == 16, f"folded p4 has order {model.group.order}, expected 16")
        require(model.action.npoints == 32, f"{model.action.npoints} orbit points, expected 32")
        below("zak_roundtrip", rel_err(out["f_rec"], out["f"]), 1e-11)

    def digest_p4_fold(self, out):
        return digest(out["generated"], out["model"].points, out["model"].action.perm, out["coeffs"].data, out["f_rec"])

    def inputs_radiation(self, rng):
        seeds = rng.normal(size=(2, 3))
        points = np.array([euclid.act(e, s) for s in seeds for e in self.d6_elements])
        k = rng.normal(size=3)
        return {
            "points": points,
            "density": np.repeat(rng.uniform(0.5, 1.5, size=2), len(self.d6_elements)),
            "k": k,
            "n": transverse(rng, k),
        }

    def run_radiation(self, inp):
        elements = euclid.generate(d6_spec()).elements
        group = euclid.isometry_finite_group(elements)
        dual = duals.irreps(group)
        weights = np.ones(len(inp["points"]))
        residuals = []
        for s0 in golden_spiral(self.n_directions):
            setup = radiation.ScatteringSetup(inp["points"], weights, inp["density"], 2.2, 1.0, s0)
            report = radiation.symmetry_projected_transform(elements, dual, inp["k"], inp["n"], setup)
            residuals.append((report.combined, report.residual))
        return {"order": group.order, "labels": dual.labels, "residuals": residuals}

    def check_radiation(self, inp, out):
        require(out["order"] == 12, f"D6 has order {out['order']}")
        below("radiation_recovery", max(r for _, r in out["residuals"]), 1e-9)

    def digest_radiation(self, out):
        return digest(out["labels"], out["residuals"])

    def inputs_pm_certificate(self, rng):
        return pm_spec(euclid.rotation_2d(rng.uniform(0.0, 2.0 * np.pi)))

    def run_pm_certificate(self, spec):
        return euclid.type_one_certificate(spec)

    def check_pm_certificate(self, spec, cert):
        require(
            (cert.status, cert.kind, cert.index) == ("type_I", "space_group", 2),
            f"pm certificate {cert.as_dict()}",
        )

    def digest_pm_certificate(self, cert):
        return digest(cert.as_dict())


# ---------------------------------------------------------------------------
# 4. cli_mix


class CliMix(Workload):
    """Thirteen CLI commands called in process, stdout captured.

    The input documents are written at setup into a scratch directory of the
    benchmark's own.  The smoke run adds `zak inverse` on the binary file,
    which raises out of `main` (the CLI cannot read its own binary output);
    it must count as a failed op without ending the run.
    """

    name = "cli_mix"

    def __init__(self, seed: int, smoke: bool, workdir: Path):
        super().__init__(seed)
        self.dir = workdir
        self.dir.mkdir(parents=True, exist_ok=True)
        rng = self.rng(0)
        self.cli_seed = int(rng.integers(0, 2**31))
        n_k = 200 if smoke else 20000

        # C24 on 60 weighted points: two free orbits and one with stabilizers of order 2
        n = 24
        cols = [(np.arange(n)[:, None] + np.arange(n)[None, :]) % n + off for off in (0, n)]
        cols.append((np.arange(n)[:, None] + np.arange(n // 2)[None, :]) % (n // 2) + 2 * n)
        inspect_action = actions.make_action(
            groups.cyclic_group(n), np.concatenate(cols, axis=1), rng.uniform(0.5, 2.0, size=60)
        )
        # D5 on its 10 flags and 5 vertices: blocks of dimension 2, stabilizers of order 2
        d5 = groups.dihedral_group(5)
        vertices = [[(((-x) % 5 if g // 5 else x) + g) % 5 + 10 for x in range(5)] for g in range(10)]
        zak_action = actions.make_action(
            d5, np.concatenate([d5.table, vertices], axis=1), rng.uniform(0.5, 2.0, size=15)
        )
        self.f = complex_normal(rng, zak_action.npoints)
        s4 = groups.symmetric_group(4)
        subgroup = groups.generated_subgroup(s4, [int(rng.integers(1, 24))])
        d6 = euclid.generate(d6_spec()).elements
        d6_points = [euclid.act(e, s).tolist() for s in rng.normal(size=(2, 3)) for e in d6]
        k = rng.normal(size=3)
        pm = pm_spec(euclid.rotation_2d(rng.uniform(0.0, 2.0 * np.pi)))
        band_v = rng.normal(size=4).tolist()
        self.band_model = (float(rng.uniform(0.8, 1.2)), np.array(band_v), n_k)

        def spec_doc(spec):
            return {
                "dim": spec.dim,
                "generators": [{"Q": g.q.tolist(), "c": g.c.tolist()} for g in spec.generators],
                "truncation": vars(spec.truncation),
            }

        docs = {
            "inspect.json": serialize.action_to_dict(inspect_action),
            "zak.json": {"action": serialize.action_to_dict(zak_action), "f": serialize.encode_vector(self.f)},
            "verify.json": {"action": serialize.action_to_dict(zak_action), "f": serialize.encode_vector(self.f), "n_random": 3},
            "d6.json": spec_doc(d6_spec()),
            "poisson.json": {"group": "symmetric:4", "subgroup": subgroup, "mode": "compact", "n_random": 20},
            "bands.json": {"t": self.band_model[0], "M": 4, "N": n_k, "V": band_v},
            "bands_small.json": {"t": self.band_model[0], "M": 4, "N": 60, "V": band_v},
            "pm.json": spec_doc(pm),
            "diffract.json": {
                "group": spec_doc(d6_spec()),
                "points": d6_points,
                "density": np.repeat(rng.uniform(0.5, 1.5, size=2), 12).tolist(),
                "k": k.tolist(),
                "n": serialize.encode_vector(transverse(rng, k)),
                "omega": 2.2,
                "c_light": 1.0,
                "s0_list": [s.tolist() for s in golden_spiral(4 if smoke else 16)],
            },
        }
        for name, doc in docs.items():
            (self.dir / name).write_text(json.dumps(doc))
        self.n_k = n_k

        p = self.path
        seed_flag = ["--seed", str(self.cli_seed)]
        self.commands = {
            "group_inspect": ["group", "inspect", p("inspect.json")],
            "zak_forward_json": ["zak", "forward", p("zak.json"), "--out", p("fwd.json")],
            "zak_inverse_json": ["zak", "inverse", p("fwd.json")],
            "zak_forward_binary": ["zak", "forward", p("zak.json"), "--out", p("fwd.zak")],
            "euclid_generate": ["euclid", "generate", p("d6.json")],
            "zak_verify": ["zak", "verify", p("verify.json"), *seed_flag],
            "poisson_check": ["poisson", "check", p("poisson.json"), *seed_flag],
            "bands_run": ["bands", "run", p("bands.json"), "--jobs", "2"],
            "bands_check": ["bands", "check", p("bands_small.json")],
            "euclid_certify": ["euclid", "certify", p("pm.json")],
            "diffract_verify": ["diffract", "verify", p("diffract.json")],
            "suite_jobs1": ["suite", "all", "--jobs", "1", *seed_flag],
            "suite_jobs2": ["suite", "all", "--jobs", "2", *seed_flag],
        }
        if smoke:
            self.commands["zak_inverse_binary"] = ["zak", "inverse", p("fwd.zak")]
        self.kinds = tuple(self.commands)
        self._suite_jobs1 = None

    def path(self, name: str) -> str:
        return str(self.dir / name)

    def inputs(self, kind, op_id):
        return self.commands[kind]

    def run(self, kind, argv):
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            try:
                code = cli.main(argv)
            except SystemExit as exc:  # argparse rejects the command line
                code = exc.code
        return {"code": code, "stdout": out.getvalue(), "stderr": err.getvalue()}

    def check(self, kind, argv, out):
        require(out["code"] == 0, f"exit code {out['code']}: {out['stderr'].strip()[:200]}")
        text = out["stdout"]
        if kind == "suite_jobs1":
            self._suite_jobs1 = text
        if kind == "zak_forward_json":
            require(text == "", "output went to stdout instead of --out")
        elif kind == "zak_forward_binary":
            require(text == "", "output went to stdout instead of --out")
            self._check_binary_matches_json()
        elif kind == "bands_run":
            self._check_bands_run(text)
        else:
            getattr(self, f"_check_{kind}", self._check_all_pass)(json.loads(text))
        if kind == "suite_jobs2":
            require(text == self._suite_jobs1, "suite --jobs 2 report differs from --jobs 1")

    def _check_all_pass(self, doc):
        require(doc.get("all_pass") is True, "all_pass is not true")

    def _check_group_inspect(self, doc):
        require(doc["stabilizer_sizes"] == [1, 1, 2], f"stabilizers {doc['stabilizer_sizes']}")
        require(len(doc["orbit_measures"]) == 3, "one measure per orbit")

    def _check_zak_inverse_json(self, doc):
        f_rec = np.array([complex(re, im) for re, im in doc["f"]])
        below("recovered f", rel_err(f_rec, self.f), 1e-11)

    def _check_euclid_generate(self, doc):
        require((doc["order"], doc["finite"]) == (12, True), "D6 did not close at order 12")

    def _check_euclid_certify(self, doc):
        require((doc["status"], doc["kind"], doc["index"]) == ("type_I", "space_group", 2), str(doc))

    def _check_bands_run(self, text):
        lines = text.splitlines()
        require(len(lines) == 4 * self.n_k + 1, f"{len(lines)} CSV lines")
        t, onsite, n_k = self.band_model
        for j in (0, 1, n_k // 3, n_k - 1):
            energies = [float(line.split(",")[3]) for line in lines[1 + 4 * j : 5 + 4 * j]]
            expected = bloch_oracle(t, onsite, 2.0 * np.pi * j / n_k)
            below(f"band row {j} vs oracle", float(np.max(np.abs(np.array(energies) - expected))), 1e-9)

    def _check_binary_matches_json(self):
        """The binary forward file holds exactly the blocks of the JSON one."""
        binary = serialize.zak_blocks_from_bytes(Path(self.path("fwd.zak")).read_bytes())
        doc = json.loads(Path(self.path("fwd.json")).read_text())
        require(len(binary) == len(doc["blocks"]), "binary and JSON block counts differ")
        for item in doc["blocks"]:
            d = item["dim"]
            block = serialize.decode_matrix(item["values"], (d, d))
            require(np.array_equal(binary[(item["x0"], item["label"])], block), "binary block differs")

    def digest(self, kind, out):
        files = b""
        if kind in ("zak_forward_json", "zak_forward_binary"):
            files = Path(self.commands[kind][-1]).read_bytes()
        return digest(out["code"], out["stdout"], files)

    def close(self):
        shutil.rmtree(self.dir, ignore_errors=True)


WORKLOADS = {
    "orbit_transform": OrbitTransform,
    "nonabelian_dual": NonabelianDual,
    "periodic": Periodic,
    "cli_mix": CliMix,
}


def make(name: str, seed: int, smoke: bool, workdir: Path) -> Workload:
    cls = WORKLOADS[name]
    if cls is CliMix:
        return cls(seed, smoke, workdir)
    return cls(seed, smoke)
