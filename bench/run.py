"""zakspace benchmark: end-to-end metrics per workload, per-layer metrics when traced.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1 [--smoke]

Run from the root of a source checkout; the library is imported from
``src/``.  Workloads are defined in ``workloads.py``: ``orbit_transform``,
``nonabelian_dual``, ``periodic`` and ``cli_mix``.

With ``--trace 0`` the run sets up the workload several times in fresh
processes (the median is ``setup_s``), sets it up once more here, runs one
untimed warm-up op, then runs whole cycles of ops for about ``--seconds``
and reports ``ops_per_s``, ``op_p50_ms``, ``op_p90_ms``, ``op_pass_ratio``,
``setup_s`` and ``peak_rss_mb``.  ``op_fail_ratio`` is printed next to them;
the final JSON line carries the failures as ``failed``.

With ``--trace 1`` the run measures an untraced pass, then replays the same
ops with every layer traced (``tracing.py``), requires byte-identical op
outputs, and reports the per-layer metrics of the traced pass together with
``trace.overhead_ratio``.

Every op's output is checked; an op that fails its check or raises is
counted as failed, its exception type recorded, and the run goes on.  BLAS
is pinned to one thread before numpy loads.  The last line of stdout is one
JSON object with ``correct``, ``attempted``, ``failed`` and ``metrics``.
``--smoke`` runs tiny sizes for the benchmark's own tests.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
import traceback
from dataclasses import dataclass
from pathlib import Path

BLAS_THREADS = "1"
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = BLAS_THREADS

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
WORKDIR = ROOT / ".bench_work"
SETUP_REPEATS = 5
TRACE_UNTRACED_SHARE = 0.4  # of --seconds, for the untraced pass of a traced run

END_TO_END = (
    ("ops_per_s", "1/s"),
    ("op_p50_ms", "ms"),
    ("op_p90_ms", "ms"),
    ("op_pass_ratio", "ratio"),
    ("setup_s", "s"),
    ("peak_rss_mb", "MB"),
)
PRINTED_ONLY = (("op_fail_ratio", "ratio"),)


@dataclass
class OpRecord:
    kind: str
    latency: float
    error: str | None
    digest: str


def parse_args(argv=None):
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--smoke", action="store_true", help="tiny sizes, for the benchmark's tests")
    p.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    return p.parse_args(argv)


def import_library():
    """Import the checkout's own zakspace, never an installed copy."""
    if not (SRC / "zakspace" / "__init__.py").is_file():
        raise SystemExit(f"bench: no zakspace sources under {SRC}; run from a source checkout")
    sys.path.insert(0, str(SRC))
    import zakspace

    if Path(zakspace.__file__).resolve().parent != SRC / "zakspace":
        raise SystemExit(f"bench: imported zakspace from {zakspace.__file__}, not from {SRC}")
    import workloads

    return workloads


def provenance(args) -> dict:
    import numpy as np

    cpu = platform.processor()
    try:
        with open("/proc/cpuinfo") as fh:
            cpu = next((ln.split(":", 1)[1].strip() for ln in fh if ln.startswith("model name")), cpu)
    except OSError:
        pass
    commit = "unknown: not a git checkout"
    if (ROOT / ".git").exists():
        done = subprocess.run(
            ["git", "-C", str(ROOT), "rev-parse", "HEAD"], capture_output=True, text=True, check=False
        )
        commit = done.stdout.strip() or commit
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas_name = f"{blas.get('name')} {blas.get('version')}"
    except (KeyError, TypeError, AttributeError):
        blas_name = "unknown"
    return {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "smoke": args.smoke,
        "nproc": os.cpu_count(),
        "cpu": cpu,
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": blas_name,
        "blas_threads": {v: os.environ[v] for v in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")},
        "commit": commit,
    }


def setup(wl_module, args):
    """Build the workload's shared inputs and run one untimed warm-up op."""
    wl = wl_module.make(args.workload, args.seed, args.smoke, WORKDIR / f"{args.workload}-{os.getpid()}")
    kind = wl.kinds[0]
    wl.run(kind, wl.inputs(kind, -1))
    return wl


def measure_setup(args, repeats: int) -> list[float]:
    """Seconds from process start to ready-for-the-first-timed-op, in fresh processes."""
    cmd = [
        sys.executable, str(Path(__file__).resolve()), "--workload", args.workload,
        "--seed", str(args.seed), "--seconds", "0", "--setup-probe",
    ] + (["--smoke"] if args.smoke else [])
    samples = []
    for _ in range(repeats):
        start = time.perf_counter()
        with subprocess.Popen(cmd, stdout=subprocess.PIPE, text=True) as proc:
            line = proc.stdout.readline()
            ready = time.perf_counter()
            proc.stdout.read()
            code = proc.wait()
        if line.strip() != "ready" or code != 0:
            raise RuntimeError(f"setup probe failed with exit code {code}")
        samples.append(ready - start)
    return samples


def run_op(wl, op_id: int, kind: str, noted: set, tracer=None) -> OpRecord:
    inp = wl.inputs(kind, op_id)
    error, out = None, None
    if tracer is not None:
        tracer.begin_op(op_id)
    start = time.perf_counter()
    try:
        out = wl.run(kind, inp)
    except Exception as exc:  # a library failure is a failed op, never the end of the run
        error = type(exc).__name__
        note_failure(kind, exc, noted)
    latency = time.perf_counter() - start
    if tracer is not None:
        tracer.end_op()
    if error is None:
        try:
            wl.check(kind, inp, out)
        except Exception as exc:
            error = type(exc).__name__
            note_failure(kind, exc, noted)
    return OpRecord(kind, latency, error, wl.digest(kind, out) if error is None else error)


def note_failure(kind: str, exc: Exception, noted: set) -> None:
    """Print the first traceback of each (kind, exception type) to stderr."""
    key = (kind, type(exc).__name__)
    if key not in noted:
        noted.add(key)
        sys.stderr.write(f"bench: op {kind} failed:\n")
        traceback.print_exception(exc, file=sys.stderr)


def run_cycles(wl, budget: float | None = None, cycles: int | None = None, tracer=None):
    """Whole cycles, each kind once per cycle; stop near `budget` seconds or after `cycles`."""
    records, durations, noted = [], [], set()
    start = time.perf_counter()
    while True:
        c0 = time.perf_counter()
        base = len(durations) * len(wl.kinds)
        for k, kind in enumerate(wl.kinds):
            records.append(run_op(wl, base + k, kind, noted, tracer))
        durations.append(time.perf_counter() - c0)
        if cycles is not None:
            if len(durations) >= cycles:
                break
        elif time.perf_counter() - start + statistics.median(durations) / 2 > budget:
            break
    return records, len(durations), time.perf_counter() - start


def percentile(values, q: float) -> float:
    import numpy as np

    return float(np.percentile(values, q)) if values else 0.0


def end_to_end(records, wall: float, setup_samples) -> dict:
    passing = [r.latency for r in records if r.error is None]
    return {
        "ops_per_s": len(passing) / wall,
        "op_p50_ms": 1e3 * percentile(passing, 50),
        "op_p90_ms": 1e3 * percentile(passing, 90),
        "op_pass_ratio": len(passing) / len(records),
        "setup_s": statistics.median(setup_samples),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "op_fail_ratio": 1.0 - len(passing) / len(records),
    }


def print_kinds(records, label: str) -> None:
    kinds = list(dict.fromkeys(r.kind for r in records))
    for kind in kinds:
        mine = [r for r in records if r.kind == kind]
        ok = [r.latency for r in mine if r.error is None]
        errors = sorted({r.error for r in mine if r.error})
        print(
            f"kind {label} {kind}: ops={len(mine)} failed={len(mine) - len(ok)} "
            f"p50_ms={1e3 * percentile(ok, 50):.3f} errors={','.join(errors) or '-'}"
        )


def main(argv=None) -> int:
    args = parse_args(argv)
    wl_module = import_library()
    if args.workload not in wl_module.WORKLOADS:
        raise SystemExit(f"bench: unknown workload {args.workload!r}; one of {sorted(wl_module.WORKLOADS)}")

    if args.setup_probe:
        wl = setup(wl_module, args)
        wl.close()
        print("ready", flush=True)
        return 0

    setup_samples = [] if args.trace else measure_setup(args, 2 if args.smoke else SETUP_REPEATS)
    wl = setup(wl_module, args)
    try:
        if args.trace:
            result = traced_run(wl, args)
        else:
            records, cycles, wall = run_cycles(wl, budget=args.seconds)
            metrics = end_to_end(records, wall, setup_samples)
            print(f"provenance {json.dumps(provenance(args))}")
            print(f"run ops={len(records)} cycles={cycles} wall_s={wall:.3f} setup_samples_s={setup_samples}")
            print_kinds(records, "untraced")
            for name, unit in END_TO_END + PRINTED_ONLY:
                print(f"metric {name} {metrics[name]!r} {unit}")
            failed = sum(1 for r in records if r.error)
            result = {
                "correct": failed == 0,
                "attempted": len(records),
                "failed": failed,
                "metrics": {name: {"value": metrics[name], "unit": unit} for name, unit in END_TO_END},
            }
    finally:
        wl.close()
        try:
            WORKDIR.rmdir()
        except OSError:  # absent, or in use by another run
            pass
    print(json.dumps(result))
    return 0


def traced_run(wl, args) -> dict:
    import tracing

    plain, cycles, plain_wall = run_cycles(wl, budget=TRACE_UNTRACED_SHARE * args.seconds)
    tracer = tracing.Tracer()
    tracer.install()
    try:
        traced, _, traced_wall = run_cycles(wl, cycles=cycles, tracer=tracer)
    finally:
        tracer.uninstall()
    layer = tracer.summary(len(traced))
    layer["trace.overhead_ratio"] = traced_wall / plain_wall

    identical = [r.digest for r in plain] == [r.digest for r in traced]
    plain_op_s = sum(r.latency for r in plain) / len(plain)
    # The benchmark's own time inside an op (bench.self_s) is all that the layer
    # self times leave unexplained; it must stay within the tracing overhead.
    overhead_s = max(layer["trace.op_s"] - plain_op_s, 0.0)
    accounted = layer["bench.self_s"] <= overhead_s + 0.01 * layer["trace.op_s"]
    layer_sum = sum(layer[f"{name}.self_s"] for name in tracing.LAYERS)

    print(f"provenance {json.dumps(provenance(args))}")
    print(f"run ops={len(plain)}+{len(traced)} cycles={cycles} wall_s={plain_wall:.3f}+{traced_wall:.3f}")
    print_kinds(plain, "untraced")
    print_kinds(traced, "traced")
    print(f"trace outputs_identical={identical} spans={len(tracer.spans)}")
    print(
        f"trace per_op: op_s={layer['trace.op_s']:.6f} layer_self_sum_s={layer_sum:.6f} "
        f"bench_self_s={layer['bench.self_s']:.6f} thread_overlap_s={layer['trace.thread_overlap_s']:.6f} "
        f"untraced_op_s={plain_op_s:.6f} accounted={accounted}"
    )
    for name, unit in tracing.PER_LAYER_METRICS:
        print(f"metric {name} {layer[name]!r} {unit}")
    failed = sum(1 for r in plain + traced if r.error)
    return {
        "correct": failed == 0 and identical and accounted,
        "attempted": len(plain) + len(traced),
        "failed": failed,
        "metrics": {name: {"value": layer[name], "unit": unit} for name, unit in tracing.PER_LAYER_METRICS},
    }


if __name__ == "__main__":
    sys.exit(main())
