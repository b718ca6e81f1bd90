"""Span tracing of zakspace's layers, installed from outside the package.

Each layer is one module of the package.  ``Tracer.install`` replaces every
public module-level function of a layer by a wrapper, in every zakspace
module that binds the function, under whatever name it is bound there (the
suite binds ``zak`` as ``zak_transform``, for example).  Nothing under
``src/`` changes; ``uninstall`` puts the original objects back.

While an op is open, each call records one span: function, start, end,
parent span, op id and thread.  A call made on a worker thread whose own
stack is empty gets the innermost open span of the main thread as its
parent, which is the call that started the pool.  Spans stay in memory and
are reduced when the traced pass ends.

Self time is a span's duration minus the union of its children's intervals,
so children that overlap on pool threads are not subtracted twice.  The
per-layer numbers are that self time summed over the layer's spans, split
into stages where a layer has them, plus counts read off the arguments and
results of a few functions.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import itertools
import sys
import threading
import time
from collections import defaultdict

LAYERS = (
    "groups",
    "actions",
    "weil",
    "duals",
    "fourier",
    "reciprocal",
    "zak",
    "lattice",
    "bloch",
    "euclid",
    "radiation",
    "serialize",
    "suite",
    "cli",
)

# Stage metrics: layer self time spent inside the innermost enclosing call of
# one of these functions.  Layer time outside every listed function goes to
# the stage named under None, when there is one.
STAGES = {
    "zak": {"zak": "forward_s", "zak_inverse": "inverse_s", None: "verify_s"},
    "bloch": {
        "band_structure": "bands_s",
        "band_union_residual": "bands_s",
        "check_invariance": "blockdiag_s",
        "block_diagonalize": "blockdiag_s",
        "symmetry_adapted_basis": "blockdiag_s",
        "zak_conjugation_residual": "blockdiag_s",
    },
    "euclid": {"generate": "generate_s", "to_finite_action": "fold_s"},
    "lattice": {"classic_zak_inverse": "inverse_s"},
}

# Count metrics, per op: (layer, function) -> (metric, count(args, result)).
# Calls that raise are not counted.


def _zak_forward_flops(args, coeffs):
    """8 real flops per complex multiply-add of sum_g f(g^-1 x0) sigma(g)*."""
    order = coeffs.action.group.order
    return sum(8 * order * block.shape[0] ** 2 for block in coeffs.data.values())


def _zak_inverse_flops(args, f):
    """8 d^3 per point and member irrep for tr(Z(x0, sigma) sigma(g))."""
    coeffs = args[0]
    decomp = coeffs.structure.decomp
    total = 0
    for x0, members in zip(decomp.representatives, decomp.members):
        per_point = sum(
            8 * s.dim**3 for s in coeffs.dual.irreps if coeffs.stab_members[(x0, s.label)]
        )
        total += len(members) * per_point
    return total


def _bytes_through(args, result):
    sizes = [len(a) for a in args if isinstance(a, (bytes, bytearray))]
    if isinstance(result, (bytes, bytearray)):
        sizes.append(len(result))
    return sum(sizes)


COUNTS = {
    ("zak", "zak"): [
        ("zak.blocks", lambda args, res: len(res.data)),
        ("zak.computed_flops", _zak_forward_flops),
    ],
    ("zak", "zak_inverse"): [("zak.computed_flops", _zak_inverse_flops)],
    ("bloch", "band_structure"): [("bloch.k_points", lambda args, res: res.periods)],
    ("euclid", "generate"): [("euclid.elements", lambda args, res: res.order)],
    ("euclid", "to_finite_action"): [("euclid.elements", lambda args, res: len(res.elements))],
    ("lattice", "classic_zak"): [("lattice.samples", lambda args, res: res.samples.size)],
    ("lattice", "classic_zak_direct"): [("lattice.samples", lambda args, res: res.size)],
    ("lattice", "classic_zak_inverse"): [("lattice.samples", lambda args, res: res.size)],
    ("suite", "run_suite"): [("suite.checks", lambda args, res: res["n_checks"])],
}
for _name in ("zak_to_bytes", "zak_blocks_from_bytes"):
    COUNTS[("serialize", _name)] = [("serialize.bytes", _bytes_through)]

# Every per-layer metric the traced run reports, with its unit.
PER_LAYER_METRICS = (
    [(f"{layer}.self_s", "s/op") for layer in LAYERS]
    + [(f"{layer}.calls", "count/op") for layer in LAYERS]
    + [
        ("weil.structures_per_op", "count/op"),
        ("zak.forward_s", "s/op"),
        ("zak.inverse_s", "s/op"),
        ("zak.verify_s", "s/op"),
        ("zak.blocks", "count/op"),
        ("zak.computed_flops", "flop/op"),
        ("bloch.bands_s", "s/op"),
        ("bloch.k_points", "count/op"),
        ("bloch.blockdiag_s", "s/op"),
        ("euclid.generate_s", "s/op"),
        ("euclid.fold_s", "s/op"),
        ("euclid.elements", "count/op"),
        ("lattice.inverse_s", "s/op"),
        ("lattice.samples", "count/op"),
        ("suite.checks", "count/op"),
        ("serialize.bytes", "B/op"),
        ("bench.self_s", "s/op"),
        ("trace.op_s", "s/op"),
        ("trace.thread_overlap_s", "s/op"),
        ("trace.overhead_ratio", "ratio"),
    ]
)

_OP = -1  # function index of the benchmark's own per-op root span


class Tracer:
    """Wraps the layers' public functions and records spans while an op is open."""

    def __init__(self):
        self.spans: list[tuple] = []  # (id, func, start, end, parent, op, thread)
        self.funcs: list[tuple[str, str]] = []  # func index -> (layer, name)
        self.counts: dict[str, float] = defaultdict(float)
        self.op = None
        self._ids = itertools.count()
        self._local = threading.local()
        self._main_stack: list[int] = []
        self._patches: list[tuple] = []
        self._count_lock = threading.Lock()  # suite and cli call in from pool threads
        self._op_start = (None, 0.0)  # (span id, start) of the open op

    # -- installation ------------------------------------------------------

    def install(self) -> None:
        importlib.import_module("zakspace")
        wrappers = {}
        for layer in LAYERS:
            module = importlib.import_module(f"zakspace.{layer}")
            for name, obj in vars(module).items():
                if (
                    inspect.isfunction(obj)
                    and obj.__module__ == module.__name__
                    and not name.startswith("_")
                ):
                    wrappers[id(obj)] = (obj, self._wrap(obj, layer, name))
        for mod_name, module in list(sys.modules.items()):
            if mod_name != "zakspace" and not mod_name.startswith("zakspace."):
                continue
            for attr, obj in list(vars(module).items()):
                hit = wrappers.get(id(obj))
                if hit is not None and hit[0] is obj:
                    setattr(module, attr, hit[1])
                    self._patches.append((module, attr, obj))

    def uninstall(self) -> None:
        for module, attr, original in reversed(self._patches):
            setattr(module, attr, original)
        self._patches.clear()

    def _wrap(self, fn, layer: str, name: str):
        fidx = len(self.funcs)
        self.funcs.append((layer, name))
        counters = COUNTS.get((layer, name), ())
        tracer, local, main_stack = self, self._local, self._main_stack
        spans, ids, clock, get_ident = self.spans, self._ids, time.perf_counter, threading.get_ident
        totals, lock = self.counts, self._count_lock

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            op = tracer.op
            if op is None:
                return fn(*args, **kwargs)
            stack = getattr(local, "stack", None)
            if stack is None:
                stack = local.stack = []
            if stack:
                parent = stack[-1]
            else:
                parent = main_stack[-1] if main_stack else _OP
            sid = next(ids)
            stack.append(sid)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                spans.append((sid, fidx, start, end, parent, op, get_ident()))
            if counters:
                with lock:
                    for metric, count in counters:
                        totals[metric] += count(args, result)
            return result

        return wrapper

    # -- ops ---------------------------------------------------------------

    def begin_op(self, op_id: int) -> None:
        self._local.stack = self._main_stack
        sid = next(self._ids)
        self._main_stack.append(sid)
        self._op_start = (sid, time.perf_counter())
        self.op = op_id

    def end_op(self) -> None:
        end = time.perf_counter()
        sid, start = self._op_start
        self._main_stack.pop()
        self.spans.append((sid, _OP, start, end, None, self.op, threading.get_ident()))
        self.op = None

    # -- reduction -----------------------------------------------------------

    def summary(self, n_ops: int) -> dict:
        """Per-op layer metrics plus the span accounting of the traced pass."""
        by_id = {s[0]: s for s in self.spans}
        children = defaultdict(list)
        for s in self.spans:
            if s[4] is not None and s[4] in by_id:
                children[s[4]].append((s[2], s[3]))

        def stage(sid: int, layer: str) -> str | None:
            """Stage of the innermost enclosing stage function of the same layer."""
            table = STAGES[layer]
            while sid in by_id:
                fidx = by_id[sid][1]
                if fidx != _OP:
                    f_layer, f_name = self.funcs[fidx]
                    if f_layer == layer and f_name in table:
                        return table[f_name]
                sid = by_id[sid][4]
            return table.get(None)

        totals: dict[str, float] = defaultdict(float)
        op_time = overlap = 0.0
        for sid, fidx, start, end, _parent, _op, _thread in self.spans:
            kids = children.get(sid, ())
            covered = _union_length(kids, start, end)
            self_time = (end - start) - covered
            overlap += sum(min(e, end) - max(s, start) for s, e in kids) - covered
            if fidx == _OP:
                op_time += end - start
                totals["bench.self_s"] += self_time
                continue
            layer, name = self.funcs[fidx]
            totals[f"{layer}.self_s"] += self_time
            totals[f"{layer}.calls"] += 1
            if layer == "weil" and name == "weil_structure":
                totals["weil.structures_per_op"] += 1
            if layer in STAGES:
                key = stage(sid, layer)
                if key is not None:
                    totals[f"{layer}.{key}"] += self_time
        for metric, value in self.counts.items():
            totals[metric] += value
        totals["trace.op_s"] = op_time
        totals["trace.thread_overlap_s"] = overlap
        n = max(n_ops, 1)
        return {name: totals.get(name, 0.0) / n for name, _unit in PER_LAYER_METRICS if name != "trace.overhead_ratio"}


def _union_length(intervals, lo: float, hi: float) -> float:
    """Length of the union of intervals, clipped to [lo, hi]."""
    total, cur_s, cur_e = 0.0, None, None
    for s, e in sorted(intervals):
        s, e = max(s, lo), min(e, hi)
        if e <= s:
            continue
        if cur_e is None or s > cur_e:
            if cur_e is not None:
                total += cur_e - cur_s
            cur_s, cur_e = s, e
        else:
            cur_e = max(cur_e, e)
    if cur_e is not None:
        total += cur_e - cur_s
    return total
