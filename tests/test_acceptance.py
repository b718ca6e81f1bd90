"""Acceptance battery: one test per criterion, each printing PASS/FAIL.

Run with `pytest tests/test_acceptance.py -v -s` to see the per-criterion
lines; every tolerance is pinned here, not configurable.
"""

import json
import time

import numpy as np
import pytest

from zakspace import bloch, euclid, lattice
from zakspace.duals import dual_abelian, irreps
from zakspace.fixtures import (
    BUNDLED_ACTIONS,
    c4_scatterer,
    certificate_specs,
    d3_invariant_operator,
    random_complex,
    s3_transposition_subgroup,
)
from zakspace.fourier import fourier
from zakspace.groups import cyclic_group, symmetric_group
from zakspace.reciprocal import poisson_abelian_check, poisson_compact_check
from zakspace.suite import check_radiation_recovery, run_suite
from zakspace.weil import orbital_mean, weil_structure
from zakspace.zak import (
    equivariance_residual,
    intertwining_residual,
    verify_roundtrip,
    verify_unitarity,
    zak,
)


def _report(num, name, passed, detail=""):
    status = "PASS" if passed else "FAIL"
    print(f"ACCEPTANCE {num}: {name} ... {status} {detail}")
    assert passed, f"criterion {num} ({name}) failed {detail}"


def test_criterion_1_weil_and_mackey_bruhat():
    rng = np.random.default_rng(101)
    t0 = time.perf_counter()
    worst_rel = 0.0
    n_actions = 0
    for name, make in BUNDLED_ACTIONS.items():
        action = make()
        s = weil_structure(action)
        n_actions += 1
        for _ in range(20):
            f = random_complex(rng, action.npoints)
            l1 = float(np.sum(np.abs(f)))
            lhs = np.sum(f * s.point_measure)
            rhs = np.sum(s.decomp.orbit_measure * orbital_mean(action, f))
            worst_rel = max(worst_rel, abs(lhs - rhs) / (1e-12 * l1))
            lhs2 = np.sum(f * action.weights)
            rhs2 = np.sum(s.decomp.orbit_measure * orbital_mean(action, f, s.cocycle))
            worst_rel = max(worst_rel, abs(lhs2 - rhs2) / (1e-12 * l1))
    elapsed = time.perf_counter() - t0
    _report(
        1,
        "Weil and Mackey-Bruhat formulas",
        n_actions >= 5 and worst_rel < 1.0 and elapsed < 1.0,
        f"(actions={n_actions}, worst residual = {worst_rel:.3g} x 1e-12*|f|_1, {elapsed:.2f}s)",
    )


def test_criterion_2_poisson_summation():
    rng = np.random.default_rng(102)
    worst = 0.0
    for n, sub in ((4, [0, 2]), (6, [0, 3])):
        group = cyclic_group(n)
        dual = dual_abelian(group)
        for _ in range(50):
            _, _, resid = poisson_abelian_check(random_complex(rng, n), group, sub, dual)
            worst = max(worst, resid)

    group = symmetric_group(3)
    dual = irreps(group)
    h = s3_transposition_subgroup(group)
    exact_ok = True
    for target in (group.identity, h[1]):
        f = np.zeros(6, dtype=complex)
        f[target] = 1.0
        lhs, rhs, resid = poisson_compact_check(f, group, h, dual)
        exact_ok &= abs(lhs - 0.5) < 1e-12 and abs(rhs - 0.5) < 1e-12 and resid < 1e-12
    for _ in range(50):
        _, _, resid = poisson_compact_check(random_complex(rng, 6), group, h, dual)
        worst = max(worst, resid)
    _report(
        2,
        "Poisson summation (abelian and compact quotient)",
        exact_ok and worst < 1e-12,
        f"(delta sides = 1/2 exact, worst random residual = {worst:.3g})",
    )


def test_criterion_3_zak_unitarity_and_inversion():
    rng = np.random.default_rng(103)
    t0 = time.perf_counter()
    worst_rt, worst_norm = 0.0, 0.0
    fd_audit = weil_structure(BUNDLED_ACTIONS["z2_fixed_point"]()).decomp.fd_measure[2]
    for name, make in BUNDLED_ACTIONS.items():
        action = make()
        dual = irreps(action.group)
        for _ in range(100):
            f = random_complex(rng, action.npoints)
            coeffs = zak(action, f, dual)
            worst_rt = max(worst_rt, verify_roundtrip(action, f, dual).residual)
            worst_norm = max(worst_norm, verify_unitarity(coeffs, f).residual)
    elapsed = time.perf_counter() - t0
    _report(
        3,
        "Zak round-trip and norm identity",
        worst_rt < 1e-11 and worst_norm < 1e-10 and abs(fd_audit - 0.5) < 1e-15 and elapsed < 5.0,
        f"(roundtrip={worst_rt:.3g}, norm={worst_norm:.3g}, mu_F(c)={fd_audit}, {elapsed:.2f}s)",
    )


def test_criterion_4_intertwining_equivariance_vanishing():
    rng = np.random.default_rng(104)
    worst_int, worst_equiv, worst_vanish = 0.0, 0.0, 0.0
    for name, make in BUNDLED_ACTIONS.items():
        action = make()
        dual = irreps(action.group)
        f = random_complex(rng, action.npoints)
        norm2 = float(np.linalg.norm(f))
        worst_int = max(worst_int, intertwining_residual(action, f, dual))
        worst_equiv = max(worst_equiv, equivariance_residual(action, f, dual))
        base = zak(action, f, dual)
        for (x0, label), block in base.data.items():
            if not base.stab_members[(x0, label)]:
                worst_vanish = max(worst_vanish, float(np.linalg.norm(block)) / norm2)
    _report(
        4,
        "intertwining, equivariance, stabilizer vanishing",
        worst_int < 1e-12 and worst_equiv < 1e-12 and worst_vanish < 1e-12,
        f"(intertwining={worst_int:.3g}, equivariance={worst_equiv:.3g}, vanishing={worst_vanish:.3g})",
    )


def test_criterion_5_classic_zak_fft_vs_direct():
    rng = np.random.default_rng(105)
    f1 = random_complex(rng, 64)
    worst = 0.0
    for cells in (1, 4, 8):
        grid = lattice.classic_zak(f1, cells=cells)
        direct = lattice.classic_zak_direct(f1, cells=cells)
        worst = max(worst, float(np.max(np.abs(grid.values - direct))))
    f2 = random_complex(rng, 256).reshape(16, 16)
    grid2 = lattice.classic_zak(f2, cells=(4, 4))
    worst = max(worst, float(np.max(np.abs(grid2.values - lattice.classic_zak_direct(f2, cells=(4, 4))))))
    quasi = max(
        lattice.quasiperiodicity_residual(lattice.classic_zak(f1, cells=4), x0, j)
        for x0 in range(4)
        for j in range(0, 16, 3)
    )
    _report(
        5,
        "classic Zak FFT path vs direct summation",
        worst < 1e-10 and quasi < 1e-10,
        f"(fft-vs-direct={worst:.3g}, quasi-periodicity={quasi:.3g})",
    )


def test_criterion_6_bloch_blocks_and_bands():
    bs = bloch.band_structure(t=1.0, m=1, n=6, onsite=[0.0])
    expected = np.sort(-2.0 * np.cos(2.0 * np.pi * np.arange(6) / 6))
    c6_resid = float(np.max(np.abs(bs.union() - expected)))
    c6_resid = max(c6_resid, bloch.band_union_residual(bs))

    dimer = bloch.band_structure(t=1.0, m=2, n=8, onsite=[0.4, -0.4])
    dimer_resid = bloch.band_union_residual(dimer)

    action, h = d3_invariant_operator(np.random.default_rng(106))
    dual = irreps(action.group)
    op = bloch.check_invariance(action, h)
    bd = bloch.block_diagonalize(op, dual)
    scale = float(np.linalg.norm(h))
    copies_ok = all(
        len(bs_list) == dual.by_label[label].dim for label, bs_list in bd.blocks.items()
    )
    _report(
        6,
        "Bloch block diagonalization and bands",
        c6_resid < 1e-10
        and dimer_resid < 1e-9
        and bd.off_block_residual < 1e-9 * scale
        and copies_ok
        and bd.repetition_residual() < 1e-9,
        f"(C6={c6_resid:.3g}, dimer={dimer_resid:.3g}, off-block={bd.off_block_residual:.3g}, repetition={bd.repetition_residual():.3g})",
    )


def test_criterion_7_euclid_certificates():
    rng = np.random.default_rng(107)
    worst_conj = 0.0
    for _ in range(20):
        g = euclid.IsometryElement(euclid.rotation_z(rng.uniform(0, 2 * np.pi)), rng.normal(size=3))
        t = euclid.translation(rng.normal(size=3))
        worst_conj = max(worst_conj, euclid.conjugation_residual(g, t))

    specs = certificate_specs()
    finite_cert = euclid.type_one_certificate(specs["finite_point_group"])
    pm_cert = euclid.type_one_certificate(specs["pm_space_group"])
    helical_cert = euclid.type_one_certificate(specs["helical_screw"])
    inconclusive_cert = euclid.type_one_certificate(specs["honest_inconclusive"])
    ok = (
        worst_conj < 1e-12
        and finite_cert.status == "type_I"
        and finite_cert.kind == "finite"
        and pm_cert.status == "type_I"
        and pm_cert.kind == "space_group"
        and pm_cert.index == 2
        and helical_cert.status == "type_I"
        and helical_cert.kind == "helical"
        and inconclusive_cert.status == "inconclusive"
    )
    _report(
        7,
        "isometry conjugation identity and type-I certificates",
        ok,
        f"(conjugation={worst_conj:.3g}, pm index={pm_cert.index}, helical={helical_cert.kind}, "
        f"tight truncation -> {inconclusive_cert.status})",
    )


def test_criterion_8_radiation_recovery():
    rng = np.random.default_rng(108)
    t0 = time.perf_counter()
    elements, k, n, setups = c4_scatterer(rng)
    dual = irreps(euclid.isometry_finite_group(elements))
    assert len(setups) == 16
    worst = check_radiation_recovery("radiation_recovery", elements, dual, k, n, setups).residual
    elapsed = time.perf_counter() - t0
    _report(
        8,
        "radiation recovery identity on the C4 model",
        worst < 1e-9 and elapsed < 2.0,
        f"(worst residual over 16 directions = {worst:.3g}, {elapsed:.2f}s)",
    )


def test_criterion_9_suite_determinism():
    t0 = time.perf_counter()
    r1 = run_suite(seed=7, jobs=1)
    r8 = run_suite(seed=7, jobs=8)
    elapsed = time.perf_counter() - t0
    identical = json.dumps(r1) == json.dumps(r8)
    _report(
        9,
        "suite determinism across worker counts",
        identical and r1["all_pass"] and r1["n_checks"] >= 40 and elapsed < 60.0,
        f"(checks={r1['n_checks']}, byte-identical={identical}, {elapsed:.2f}s)",
    )
