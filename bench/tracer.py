"""Spans and computed counts recorded around ibistat's public functions.

Each layer function is wrapped where its caller looks it up (for example
``ibistat.inference.tukey_depths``, the name ``confidence_region`` calls),
so the package itself is never edited. Spans (name, start, end, parent,
operation) and counts stay in memory until ``dump`` writes them out.

A span opened on a worker thread with no open span of its own takes the
innermost open span of the installing thread as its parent, so the
bootstrap's thread-pool work counts as the bootstrap's children.
"""

from __future__ import annotations

import functools
import hashlib
import importlib
import inspect
import json
import threading
import time
from collections import defaultdict
from dataclasses import asdict, dataclass

import numpy as np


@dataclass
class Span:
    id: int
    name: str
    start: float
    end: float
    parent: int | None
    op: int  # index of the traced operation the span belongs to


def _cloud_digest(cloud) -> str:
    arr = np.ascontiguousarray(cloud, dtype=float)
    return hashlib.sha1(repr(arr.shape).encode() + arr.tobytes()).hexdigest()


# Count hooks: (tracer, bound arguments, result) -> None. Every count is
# computed from arguments and results, not measured.
def _count_depths(t, a, result):
    t.add("depth.tukey_depths.query_pairs", len(a["points"]) * len(a["cloud"]))
    t.clouds.add(_cloud_digest(a["cloud"]))


def _count_bootstrap(t, a, ens):
    k = int(a["k"])
    t.add("inference.stratified_bootstrap.replicates", k)
    t.add("inference.stratified_bootstrap.valid", int(np.count_nonzero(ens.valid_mask())))
    if a.get("resample", True):
        ds = a["ds"]
        t.add("inference.stratified_bootstrap.gather_bytes_computed", k * ds.n * ds.p * 8)


def _count_permutations(t, a, result):
    t.add("inference.permutation_test.permutations", int(a["k"]))


def _count_cells(t, a, ds):
    t.add("report.load_csv.cells", ds.n * (ds.p + 1))  # features plus the group cell


def _count_bytes(name):
    def hook(t, a, text):
        t.add(name + ".bytes", len(text.encode("utf-8")))
    return hook


# layer -> (call sites as (module, attribute), count hook or None)
LAYERS = {
    "depth.tukey_depths": ((("ibistat.inference", "tukey_depths"),), _count_depths),
    "depth.tukey_depth": ((("ibistat.inference", "tukey_depth"),), None),
    "sampling.stream_generator": ((("ibistat.inference", "stream_generator"),), None),
    "sampling.sample_grouped_dataset": ((("ibistat.inference", "sample_grouped_dataset"),), None),
    "inference.stratified_bootstrap": (
        (("ibistat.report", "stratified_bootstrap"), ("ibistat.inference", "stratified_bootstrap")),
        _count_bootstrap,
    ),
    "inference.permutation_test": ((("ibistat.report", "permutation_test"),), _count_permutations),
    "inference.standardize": ((("ibistat.report", "standardize"),), None),
    "inference.confidence_region": (
        (("ibistat.report", "confidence_region"), ("ibistat.inference", "confidence_region")),
        None,
    ),
    "report.load_csv": ((("ibistat.cli", "load_csv"),), _count_cells),
    "report.run_analysis": ((("ibistat.cli", "run_analysis"),), None),
    "report.dumps_report": ((("ibistat.cli", "dumps_report"),), _count_bytes("report.dumps_report")),
    "svgplot.svg_from_report": ((("ibistat.cli", "svg_from_report"),), _count_bytes("svgplot.svg_from_report")),
}

# Counts that depend only on the inputs; all traced operations on the same
# inputs must give them exactly.
COMPUTED_COUNTS = (
    "depth.tukey_depths.query_pairs",
    "depth.tukey_depths.distinct_cloud_ratio",
    "inference.stratified_bootstrap.gather_bytes_computed",
    "inference.stratified_bootstrap.replicates",
    "inference.stratified_bootstrap.valid_ratio",
    "inference.permutation_test.permutations",
    "report.load_csv.cells",
    "report.dumps_report.bytes",
    "svgplot.svg_from_report.bytes",
) + tuple(f"{layer}.calls" for layer in LAYERS)


class Tracer:
    def __init__(self):
        self.spans: list[Span] = []
        self.counts: dict = defaultdict(int)
        self.clouds: set = set()
        self.op = -1
        self._lock = threading.Lock()
        self._local = threading.local()
        self._owner = threading.get_ident()
        self._owner_stack: list = []
        self._next_id = 0
        self._patches: list = []

    # -- recording ---------------------------------------------------------

    def add(self, name: str, n: int) -> None:
        with self._lock:
            self.counts[name] += n

    def _stack(self) -> list:
        if threading.get_ident() == self._owner:
            return self._owner_stack
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def _open(self) -> tuple:
        stack = self._stack()
        if stack:
            parent = stack[-1]
        else:
            parent = self._owner_stack[-1] if self._owner_stack else None
        with self._lock:
            sid = self._next_id
            self._next_id += 1
        stack.append(sid)
        return sid, parent

    def _close(self, sid, name, start, end, parent) -> None:
        self._stack().pop()
        span = Span(sid, name, start, end, parent, self.op)
        with self._lock:
            self.spans.append(span)

    def call(self, name: str, fn, *args, **kwargs):
        """Run ``fn`` inside a span named ``name``."""
        sid, parent = self._open()
        start = time.perf_counter()
        try:
            return fn(*args, **kwargs)
        finally:
            self._close(sid, name, start, time.perf_counter(), parent)

    def begin_op(self) -> None:
        """Start a new traced operation with fresh counts."""
        self.op += 1
        self.counts = defaultdict(int)
        self.clouds = set()

    # -- wrapping ----------------------------------------------------------

    def _wrap(self, name, fn, hook):
        sig = inspect.signature(fn)

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            result = self.call(name, fn, *args, **kwargs)
            if hook is not None:
                bound = sig.bind(*args, **kwargs)
                bound.apply_defaults()
                hook(self, bound.arguments, result)
            return result

        return wrapper

    def install(self) -> None:
        """Wrap every call site in LAYERS; a missing site is an error."""
        for name, (sites, hook) in LAYERS.items():
            for module_name, attr in sites:
                module = importlib.import_module(module_name)
                fn = getattr(module, attr, None)
                if not callable(fn):
                    self.uninstall()
                    raise LookupError(
                        f"trace site {module_name}.{attr} for layer {name} no longer "
                        "exists; update bench/tracer.py LAYERS to the new call site"
                    )
                self._patches.append((module, attr, fn))
                setattr(module, attr, self._wrap(name, fn, hook))

    def uninstall(self) -> None:
        for module, attr, fn in reversed(self._patches):
            setattr(module, attr, fn)
        self._patches.clear()

    # -- results -----------------------------------------------------------

    def layer_times(self, op: int) -> dict:
        """Per layer name: calls, busy_s (sum of span durations) and
        self_s (duration minus the union of its children's intervals)."""
        spans = [s for s in self.spans if s.op == op]
        children = defaultdict(list)
        for s in spans:
            children[s.parent].append(s)
        out = defaultdict(lambda: {"calls": 0, "busy_s": 0.0, "self_s": 0.0})
        for s in spans:
            covered = 0.0
            reach = s.start
            for c in sorted(children.get(s.id, ()), key=lambda c: c.start):
                lo, hi = max(c.start, reach), min(c.end, s.end)
                if hi > lo:
                    covered += hi - lo
                    reach = hi
            row = out[s.name]
            row["calls"] += 1
            row["busy_s"] += s.end - s.start
            row["self_s"] += s.end - s.start - covered
        return dict(out)

    def computed_counts(self) -> dict:
        """Counts of the current operation, including derived ratios."""
        c = dict(self.counts)
        for layer, row in self.layer_times(self.op).items():
            c[f"{layer}.calls"] = row["calls"]
        calls = c.get("depth.tukey_depths.calls", 0)
        c["depth.tukey_depths.distinct_cloud_ratio"] = len(self.clouds) / calls if calls else 0.0
        reps = c.get("inference.stratified_bootstrap.replicates", 0)
        c["inference.stratified_bootstrap.valid_ratio"] = (
            c.get("inference.stratified_bootstrap.valid", 0) / reps if reps else 0.0
        )
        return {name: c.get(name, 0) for name in COMPUTED_COUNTS}

    def dump(self, path) -> None:
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(json.dumps([asdict(s) for s in self.spans]) + "\n", encoding="utf-8")
