"""The check registry behind `zakspace suite all` and the CLI verify commands.

Every check returns a zak.VerificationReport.  The named check functions
below take their inputs and check name as arguments: `run_suite` feeds
them the bundled fixtures, and `zak verify`, `poisson check`, `bands
check` and `diffract verify` feed them the input document.  Suite check i
draws its randomness from a generator seeded by (seed, i), so a report
depends on the seed alone.
"""

from __future__ import annotations

import numpy as np

from . import bloch, euclid, lattice, radiation, reciprocal, weil
from .duals import dual_abelian, irreps
from .fixtures import (
    BUNDLED_ACTIONS,
    c4_scatterer,
    certificate_specs,
    d3_invariant_operator,
    random_complex,
    s3_transposition_subgroup,
)
from .fourier import plancherel_residual
from .groups import cyclic_group, dihedral_group, symmetric_group
from .zak import VerificationReport, equivariance_residual, verify_roundtrip, verify_unitarity
from .zak import intertwining_residual as zak_intertwining_residual
from .zak import zak as zak_transform

# ---------------------------------------------------------------------------
# checks shared with the CLI; list arguments report the worst case


def check_zak_roundtrip(name, action, dual, fs) -> VerificationReport:
    worst = max(verify_roundtrip(action, f, dual).residual for f in fs)
    return VerificationReport(name, worst, 1e-11)


def check_zak_unitarity(name, action, dual, fs) -> VerificationReport:
    worst = max(verify_unitarity(zak_transform(action, f, dual), f).residual for f in fs)
    return VerificationReport(name, worst, 1e-10)


def check_zak_intertwining(name, action, dual, f) -> VerificationReport:
    return VerificationReport(name, zak_intertwining_residual(action, f, dual), 1e-12)


def check_classic_zak_fft(name, grid) -> VerificationReport:
    direct = lattice.classic_zak_direct(grid.samples, grid.cells)
    return VerificationReport(name, float(np.max(np.abs(grid.values - direct))), 1e-10)


def check_classic_zak_quasiperiodicity(name, grid, shifts) -> VerificationReport:
    """Worst quasi-periodicity residual over (cell offset, wave index) pairs."""
    worst = max(lattice.quasiperiodicity_residual(grid, x0, j) for x0, j in shifts)
    return VerificationReport(name, worst, 1e-10)


def check_classic_zak_roundtrip(name, grid) -> VerificationReport:
    return VerificationReport(name, lattice.roundtrip_residual(grid.samples, grid.cells), 1e-10)


def check_poisson_abelian(name, group, sub, fs, dual) -> VerificationReport:
    worst = max((reciprocal.poisson_abelian_check(f, group, sub, dual)[2] for f in fs), default=0.0)
    return VerificationReport(name, worst, 1e-12)


def check_poisson_compact(name, group, sub, fs, dual) -> VerificationReport:
    worst = max((reciprocal.poisson_compact_check(f, group, sub, dual)[2] for f in fs), default=0.0)
    return VerificationReport(name, worst, 1e-12)


def check_band_union(name, bs, tolerance=1e-9, extra=0.0) -> VerificationReport:
    """Band union against the dense ring spectrum; `extra` is a further residual folded in."""
    return VerificationReport(name, max(bloch.band_union_residual(bs), extra), tolerance)


def check_bands_even(name, bs) -> VerificationReport:
    """Bands at wave index j against the Bloch block at -j, solved here.

    band_structure copies row j into row N - j, so comparing the two rows
    would hold by construction; the blocks at theta = -2 pi j / N are
    built and solved independently instead.
    """
    thetas = -2.0 * np.pi * np.arange(bs.periods) / bs.periods
    minus = np.linalg.eigvalsh(bloch.bloch_blocks(bs.hopping, bs.cell_size, thetas, bs.onsite))
    return VerificationReport(name, float(np.max(np.abs(bs.bands - minus))), 1e-10)


def check_radiation_recovery(name, elements, dual, k, n, setups) -> VerificationReport:
    worst = max(
        (radiation.symmetry_projected_transform(elements, dual, k, n, s).residual for s in setups),
        default=0.0,
    )
    return VerificationReport(name, worst, 1e-9)


# ---------------------------------------------------------------------------
# the suite registry: each entry maps a generator to one report


def _weil_check(name, make, which):
    def run(rng):
        action = make()
        fn = weil.weil_residual if which == "weil" else weil.mackey_bruhat_residual
        worst = max(fn(action, random_complex(rng, action.npoints)) for _ in range(20))
        return VerificationReport(f"{which}_formula[{name}]", worst, 1e-12)

    return run


def _zak_check(name, make, check):
    def run(rng):
        action = make()
        fs = [random_complex(rng, action.npoints) for _ in range(20)]
        return check(name, action, irreps(action.group), fs)

    return run


def _intertwining_check(name, make):
    def run(rng):
        action = make()
        f = random_complex(rng, action.npoints)
        return check_zak_intertwining(f"zak_intertwining[{name}]", action, irreps(action.group), f)

    return run


def _vanishing_check(name, make):
    def run(rng):
        action = make()
        coeffs = zak_transform(action, random_complex(rng, action.npoints), irreps(action.group))
        worst = 0.0
        for (x0, label), block in coeffs.data.items():
            if not coeffs.stab_members[(x0, label)]:
                worst = max(worst, float(np.linalg.norm(block)))
        return VerificationReport(f"zak_vanishing[{name}]", worst / max(1.0, coeffs.f_norm), 1e-12)

    return run


def _equivariance_check(name, make):
    def run(rng):
        action = make()
        resid = equivariance_residual(action, random_complex(rng, action.npoints), irreps(action.group))
        return VerificationReport(f"zak_equivariance[{name}]", resid, 1e-12)

    return run


def _poisson_abelian(n, sub):
    def run(rng):
        group = cyclic_group(n)
        fs = [random_complex(rng, n) for _ in range(50)]
        return check_poisson_abelian(f"poisson_abelian[Z{n}:{sub}]", group, sub, fs, dual_abelian(group))

    return run


def _poisson_compact_delta(which):
    def run(rng):
        group = symmetric_group(3)
        h = s3_transposition_subgroup(group)
        f = np.zeros(6, dtype=complex)
        f[group.identity if which == "identity" else h[1]] = 1.0
        lhs, rhs, resid = reciprocal.poisson_compact_check(f, group, h, irreps(group))
        resid = max(resid, abs(lhs - 0.5), abs(rhs - 0.5))
        return VerificationReport(f"poisson_compact[S3:delta_{which}]", resid, 1e-12)

    return run


def _poisson_compact_random(label, subgroup_kind):
    def run(rng):
        group = symmetric_group(3)
        h = [group.identity] if subgroup_kind == "trivial" else s3_transposition_subgroup(group)
        fs = [random_complex(rng, 6) for _ in range(50)]
        return check_poisson_compact(f"poisson_compact[{label}]", group, h, fs, irreps(group))

    return run


def _quotient_fourier(rng):
    group = symmetric_group(3)
    dual = irreps(group)
    h = s3_transposition_subgroup(group)
    worst = max(
        reciprocal.quotient_fourier_check(np.eye(3, dtype=complex)[i], group, h, dual)
        for i in range(3)
    )
    return VerificationReport("quotient_fourier[S3/<swap>]", worst, 1e-12)


def _plancherel(gname, gmake):
    def run(rng):
        dual = irreps(gmake())
        worst = max(
            plancherel_residual(random_complex(rng, dual.group.order), dual) for _ in range(50)
        )
        return VerificationReport(f"plancherel[{gname}]", worst, 1e-10)

    return run


def _classic_1d(rng):
    grid = lattice.classic_zak(random_complex(rng, 64), cells=4)
    return check_classic_zak_fft("classic_zak_fft_vs_direct[1d:N=64]", grid)


def _classic_2d(rng):
    grid = lattice.classic_zak(random_complex(rng, 256).reshape(16, 16), cells=(4, 4))
    return check_classic_zak_fft("classic_zak_fft_vs_direct[2d:16x16]", grid)


def _classic_quasi(rng):
    grid = lattice.classic_zak(random_complex(rng, 24), cells=4)
    shifts = [(x0, j) for x0 in range(4) for j in range(6)]
    return check_classic_zak_quasiperiodicity("classic_zak_quasiperiodicity", grid, shifts)


def _classic_roundtrip(rng):
    grid = lattice.classic_zak(random_complex(rng, 48), cells=6)
    return check_classic_zak_roundtrip("classic_zak_roundtrip", grid)


def _band_c6(rng):
    bs = bloch.band_structure(t=1.0, m=1, n=6, onsite=[0.0])
    expected = np.sort(-2.0 * np.cos(2.0 * np.pi * np.arange(6) / 6))
    closed_form = float(np.max(np.abs(bs.union() - expected)))
    return check_band_union("bands[C6_cosine]", bs, 1e-10, extra=closed_form)


def _band_dimer(rng):
    bs = bloch.band_structure(t=1.0, m=2, n=8, onsite=[0.5, -0.5])
    gap = float(bs.bands[4][1] - bs.bands[4][0])
    return check_band_union("bands[dimer_union_and_gap]", bs, 1e-9, extra=abs(gap - 1.0))


def _band_shift(rng):
    base = bloch.band_structure(t=1.0, m=2, n=5, onsite=[0.0, 0.0])
    shifted = bloch.band_structure(t=1.0, m=2, n=5, onsite=[0.3, 0.3])
    resid = float(np.max(np.abs(shifted.bands - base.bands - 0.3)))
    return VerificationReport("bands[constant_shift]", resid, 1e-12)


def _d3_blocks(rng):
    action, h = d3_invariant_operator(rng)
    bd = bloch.block_diagonalize(bloch.check_invariance(action, h), irreps(action.group))
    return h, bd


def _block_d3(rng):
    h, bd = _d3_blocks(rng)
    scale = max(1.0, float(np.linalg.norm(h)))
    spec_resid = float(np.max(np.abs(bd.spectrum() - np.linalg.eigvalsh(h)))) / scale
    resid = max(bd.off_block_residual / scale, spec_resid)
    return VerificationReport("block_diagonalize[D3_offblock_spectrum]", resid, 1e-9)


def _block_d3_repetition(rng):
    _, bd = _d3_blocks(rng)
    return VerificationReport("block_diagonalize[D3_repetition]", bd.repetition_residual(), 1e-9)


def _euclid_conjugation(rng):
    worst = 0.0
    for _ in range(20):
        g = euclid.IsometryElement(
            euclid.rotation_z(rng.uniform(0, 2 * np.pi)), rng.normal(size=3)
        )
        t = euclid.translation(rng.normal(size=3))
        worst = max(worst, euclid.conjugation_residual(g, t))
    return VerificationReport("euclid_conjugation_identity", worst, 1e-12)


_CERTIFICATE_OUTCOMES = {
    "finite_point_group": lambda c: c.status == "type_I" and c.kind == "finite",
    "pm_space_group": lambda c: c.status == "type_I" and c.kind == "space_group" and c.index == 2,
    "helical_screw": lambda c: c.status == "type_I" and c.kind == "helical" and c.index == 1,
    "honest_inconclusive": lambda c: c.status == "inconclusive",
}


def _certificate_check(label, spec):
    def run(rng):
        ok = _CERTIFICATE_OUTCOMES[label](euclid.type_one_certificate(spec))
        return VerificationReport(f"certificate[{label}]", 0.0 if ok else 1.0, 0.5)

    return run


def _radiation_recovery(rng):
    elements, k, n, setups = c4_scatterer(rng)
    dual = irreps(euclid.isometry_finite_group(elements))
    return check_radiation_recovery("radiation_recovery[C4_16_directions]", elements, dual, k, n, setups)


def _radiation_transversality(rng):
    pts = rng.normal(size=(10, 3))
    k = rng.normal(size=3)
    n = rng.normal(size=3) + 1j * rng.normal(size=3)
    n = n - (np.dot(n, k) / np.dot(k, k)) * k
    field = radiation.plane_wave(k, n, pts)
    s0 = rng.normal(size=3)
    s0 /= np.linalg.norm(s0)
    setup = radiation.ScatteringSetup(pts, np.ones(10), rng.normal(size=10) ** 2, 2.0, 1.0, s0)
    out = radiation.radiation_transform(field, setup)
    return VerificationReport("radiation_transversality", float(abs(np.dot(s0, out))), 1e-12)


def _build_checks() -> list:
    """Every suite check, in report order."""
    checks = []
    for name, make in BUNDLED_ACTIONS.items():
        checks.append(_weil_check(name, make, "weil"))
        checks.append(_weil_check(name, make, "mackey"))
    for name, make in BUNDLED_ACTIONS.items():
        checks.append(_zak_check(f"zak_roundtrip[{name}]", make, check_zak_roundtrip))
        checks.append(_zak_check(f"zak_unitarity[{name}]", make, check_zak_unitarity))
    for name in ("z2_fixed_point", "s3_translation", "d3_triangle", "c6_ring_with_center"):
        checks.append(_intertwining_check(name, BUNDLED_ACTIONS[name]))
        checks.append(_equivariance_check(name, BUNDLED_ACTIONS[name]))
    for name in ("z2_fixed_point", "d3_triangle", "c6_ring_with_center"):
        checks.append(_vanishing_check(name, BUNDLED_ACTIONS[name]))
    checks += [_poisson_abelian(4, [0, 2]), _poisson_abelian(6, [0, 3]), _poisson_abelian(6, [0, 2, 4])]
    checks += [_poisson_compact_delta("identity"), _poisson_compact_delta("transposition")]
    checks.append(_poisson_compact_random("S3:random", "transposition"))
    checks.append(_poisson_compact_random("S3:trivial_subgroup", "trivial"))
    checks.append(_quotient_fourier)
    checks += [
        _plancherel("C6", lambda: cyclic_group(6)),
        _plancherel("S3", lambda: symmetric_group(3)),
        _plancherel("D4", lambda: dihedral_group(4)),
    ]
    checks += [_classic_1d, _classic_2d, _classic_quasi, _classic_roundtrip]
    checks += [_band_c6, _band_dimer, _band_shift, _block_d3, _block_d3_repetition]
    checks.append(_euclid_conjugation)
    checks += [_certificate_check(label, spec) for label, spec in certificate_specs().items()]
    checks += [_radiation_recovery, _radiation_transversality]
    return checks


def run_suite(seed: int = 0, jobs: int = 1) -> dict:
    """Run every check in order; check i draws from a generator seeded by (seed, i).

    `jobs` is ignored (see the zakspace.cli docstring).
    """
    reports = [check(np.random.default_rng([seed, i])) for i, check in enumerate(_build_checks())]
    n_pass = sum(r.passed for r in reports)
    return {
        "seed": seed,
        "n_checks": len(reports),
        "n_pass": n_pass,
        "all_pass": n_pass == len(reports),
        "checks": [r.as_dict() for r in reports],
    }
