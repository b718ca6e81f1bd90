"""One-shot ladder: each stage of the ROADMAP's first baseline table, timed once.

    python3 bench/ladder.py

Run from the root of a source checkout.  Every stage runs once at the
ROADMAP's sizes (C_n acting on n*m points by cell shifts, m = 4) and is
printed next to the single-run value the ROADMAP quotes, so that value is
confirmed or corrected.  Nothing here is gated and nothing is repeated; the
steady numbers come from ``run.py``.  Takes about half a minute; the p4
fold onto a 4x4 torus is most of it.
"""

from __future__ import annotations

import importlib
import json
import sys
import time

import run  # pins BLAS to one thread before numpy loads

ROADMAP_S = {
    "weil_structure C128/512": 0.25,
    "weil_structure C256/1024": 1.48,
    "zak C128/512": 0.011,
    "zak C256/1024": None,
    "zak_inverse C128/512": 0.28,
    "zak_inverse C256/1024": 1.69,
    "make_action C256/1024": 0.36,
    "irreps S5": 1.8,
    "to_finite_action p4 4x4": 12.0,
    "run_suite jobs=1": 0.50,
    "run_suite jobs=2": 0.56,
}


def cell_shift_perm(n: int, m: int):
    """C_n on n*m points: m free orbits, element a shifts every cell by a."""
    import numpy as np

    x = np.arange(n * m)
    return (x[None, :] // n) * n + (x[None, :] % n + np.arange(n)[:, None]) % n


def timed(fn):
    start = time.perf_counter()
    out = fn()
    return time.perf_counter() - start, out


def main() -> int:
    workloads = run.import_library()
    import numpy as np

    groups, actions, weil, duals = workloads.groups, workloads.actions, workloads.weil, workloads.duals
    zakmod, euclid = workloads.zakmod, workloads.euclid
    suite = importlib.import_module("zakspace.suite")
    rng = np.random.default_rng(0)
    seconds = {}
    for n in (128, 256):
        label = f"C{n}/{4 * n}"
        group = groups.cyclic_group(n)
        perm = cell_shift_perm(n, 4)
        t, action = timed(lambda: actions.make_action(group, perm))
        if n == 256:
            seconds[f"make_action {label}"] = t
        dual = duals.irreps(group)
        seconds[f"weil_structure {label}"], structure = timed(lambda: weil.weil_structure(action))
        f = workloads.complex_normal(rng, action.npoints)
        seconds[f"zak {label}"], coeffs = timed(lambda: zakmod.zak(action, f, dual, structure))
        seconds[f"zak_inverse {label}"], f_rec = timed(lambda: zakmod.zak_inverse(coeffs))
        if workloads.rel_err(f_rec, f) >= 1e-11:
            raise SystemExit(f"ladder: zak round trip failed at {label}")
    seconds["irreps S5"], _ = timed(lambda: duals.irreps(groups.symmetric_group(5)))
    spec = workloads.p4_spec()
    seconds["to_finite_action p4 4x4"], model = timed(
        lambda: euclid.to_finite_action(spec, [[0.13, 0.29]], periods=[4, 4])
    )
    if model.group.order != 64:
        raise SystemExit(f"ladder: p4 on a 4x4 torus has order {model.group.order}, expected 64")
    for jobs in (1, 2):
        seconds[f"run_suite jobs={jobs}"], report = timed(lambda: suite.run_suite(seed=0, jobs=jobs))
        if not report["all_pass"]:
            raise SystemExit("ladder: run_suite did not pass")

    print(f"provenance {json.dumps(run.provenance(run.parse_args(['--workload', 'ladder', '--seed', '0', '--seconds', '0'])))}")
    print(f"{'stage':28s} {'measured_s':>11s} {'roadmap_s':>10s} {'ratio':>7s}")
    for stage, value in seconds.items():
        ref = ROADMAP_S[stage]
        ratio = f"{value / ref:7.2f}" if ref else "      -"
        print(f"{stage:28s} {value:11.4f} {ref if ref is not None else '-':>10} {ratio}")
    print(json.dumps({"seconds": seconds, "roadmap_seconds": ROADMAP_S}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
