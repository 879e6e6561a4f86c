"""Run one benchmark workload and print its metrics.

    python3 bench/run.py --workload analyze-iris --seed 1 --seconds 20 --trace 0

Closed loop, one operation at a time, in this process. After one checked
warm-up operation, operations repeat until ``--seconds`` have passed; every
output is compared with the pinned reference (``pins.json``). Each
operation is followed by the reference computation (``Reference``), which
never touches ibistat, so the host's drifting speed can be divided out.

``--trace 0`` reports the end-to-end metrics of BENCHMARK.json: the median
operation wall time and the shortest of several fresh-process set-up
times, both adjusted for host speed, and the process's peak RSS.
``--trace 1`` reports the per-layer metrics: untraced operations for half
the time, then pairs of an untraced and a traced operation for the other
half (at least two pairs). The spans of the traced ones give per-layer
times, their computed counts must agree exactly, and the pairs give the
tracing overhead with its spread.

The last line of standard output is one JSON object:
``{"correct", "attempted", "failed", "metrics"}``; ``failed / attempted`` is
the failure fraction. Exits 1 when any check fails.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import statistics
import subprocess
import sys
import time
import traceback

import numpy as np

import workloads as wl
from tracer import LAYERS, Tracer

MIN_OPS = 3
MIN_TRACED_OPS = 2
SETUP_REPEATS = 15
# median time of the reference computation on the host the baseline was
# measured on (see README.md); scales wall_adj_s to that host's seconds
REF_S = 0.03
SETUP_CODE = (
    "import sys; sys.path.insert(0, {src!r}); "
    "import numpy, scipy, scipy.spatial, ibistat, ibistat.cli; "
    "print('ready', flush=True)"
)


def measure_setup(reference) -> tuple:
    """Median time from spawning a fresh interpreter until it has imported
    numpy, scipy (with scipy.spatial) and ibistat, over SETUP_REPEATS spawns.
    The first spawn, which may also compile bytecode, is discarded. Returns
    the median adjusted for host speed like wall_adj_s, each spawn by the
    reference computation run right after it, and the raw median."""
    code = SETUP_CODE.format(src=str(wl.SRC))
    times, refs = [], []
    for i in range(SETUP_REPEATS + 1):
        start = time.perf_counter()
        with subprocess.Popen([sys.executable, "-c", code], stdout=subprocess.PIPE, text=True) as proc:
            line = proc.stdout.readline()
            elapsed = time.perf_counter() - start
            proc.communicate(timeout=60)
        if line.strip() != "ready" or proc.returncode != 0:
            raise wl.BenchError("set-up process failed to import the package")
        if i:
            times.append(elapsed)
            refs.append(reference())
    adjusted = [t * REF_S / r for t, r in zip(times, refs)]
    return statistics.median(adjusted), statistics.median(times)


class Reference:
    """A fixed computation, independent of ibistat, that mixes the kinds of
    work the operations do: numpy calls on small arrays in a Python loop,
    sorts of a cache-sized array, and plain interpreted arithmetic. The
    host's speed drifts by tens of percent over minutes and moves this
    computation's time alike, so the ratio of an operation's time to it
    is steadier than either. Its arrays are allocated once, so it adds a
    constant to the peak RSS and no transient."""

    def __init__(self):
        rng = np.random.default_rng(0)
        self.clouds = rng.normal(size=(4, 400, 2))
        self.big = rng.normal(size=250_000)
        self.buf = np.empty_like(self.big)

    def __call__(self) -> float:
        start = time.perf_counter()
        for c in self.clouds:
            for q in c[:60]:
                a = np.sort(np.arctan2(c[:, 1] - q[1], c[:, 0] - q[0]))
                np.searchsorted(a, np.unique(np.concatenate([a + 1.0, a - 1.0]))).min()
        for _ in range(4):
            self.buf[:] = self.big
            self.buf.sort()
        total = 0
        for i in range(150_000):
            total += i * i % 7
        return time.perf_counter() - start


class Runner:
    """Runs operations of one workload and checks each output."""

    def __init__(self, workload, expected, reference):
        self.workload = workload
        self.expected = expected
        self.reference = reference
        self.attempted = 0
        self.failed = 0

    def op(self, tracer: Tracer | None = None):
        """One checked operation; returns (wall_s, cpu_s), or None if it failed."""
        self.attempted += 1
        wall0, cpu0 = time.perf_counter(), time.process_time()
        try:
            if tracer is None:
                out = self.workload.run()
            else:
                out = tracer.call("op", self.workload.run)
            wall, cpu = time.perf_counter() - wall0, time.process_time() - cpu0
            got = self.workload.reference(out)
        except Exception:  # an operation that raises counts as failed
            traceback.print_exc()
            self.failed += 1
            return None
        if got != self.expected:
            print(f"output differs from the pinned reference: {got} != {self.expected}", file=sys.stderr)
            self.failed += 1
            return None
        return wall, cpu

    def loop(self, seconds: float, min_ops: int) -> list:
        """Operations, each followed by the reference computation, until
        ``seconds`` have passed and ``min_ops`` succeeded. Returns
        (wall_s, cpu_s, ref_s) per successful operation."""
        samples = []
        start = time.perf_counter()
        while True:
            sample = self.op()
            ref = self.reference()
            if sample is not None:
                samples.append((*sample, ref))
            if time.perf_counter() - start >= seconds and (len(samples) >= min_ops or self.failed):
                return samples


def wall_and_ref(samples: list) -> tuple:
    """Median operation wall time, median reference time, and the wall time
    at the reference host's speed."""
    wall = statistics.median(w for w, _, _ in samples)
    ref = statistics.median(r for _, _, r in samples)
    return wall, ref, wall * REF_S / ref


def end_to_end(runner: Runner, seconds: float, setup: tuple) -> dict:
    samples = runner.loop(seconds, MIN_OPS)
    if not samples:
        return {}
    wall, ref, wall_adj = wall_and_ref(samples)
    return {
        "wall_adj_s": wall_adj,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "setup_s": setup[0],
        # printed, not declared end-to-end metrics
        "wall_s": wall,
        "ref_s": ref,
        "setup_raw_s": setup[1],
    }


def per_layer(runner: Runner, seconds: float) -> dict:
    samples = runner.loop(seconds / 2.0, 2)
    if not samples:
        return {}
    wall, ref, _ = wall_and_ref(samples)
    cpu = statistics.median(c for _, c, _ in samples)

    tracer = Tracer()
    counts, times, overheads = [], [], []
    start = time.perf_counter()
    while len(counts) < MIN_TRACED_OPS or time.perf_counter() - start < seconds / 2.0:
        plain = runner.op()  # untraced twin, so drift in machine speed cancels
        tracer.install()
        try:
            tracer.begin_op()
            traced = runner.op(tracer)
        finally:
            tracer.uninstall()
        if plain is None or traced is None:
            return {}
        overheads.append(traced[0] - plain[0])
        counts.append(tracer.computed_counts())
        times.append(tracer.layer_times(tracer.op))
    tracer.dump(wl.WORK / runner.workload.name / "spans.json")

    missing = [layer for layer in runner.workload.traced_layers if counts[0][f"{layer}.calls"] == 0]
    if missing:
        raise wl.BenchError(
            f"layer-coverage check: no span recorded for {missing}; a call site "
            "moved, update bench/tracer.py LAYERS"
        )
    if any(c != counts[0] for c in counts[1:]):
        diff = {k: [c[k] for c in counts] for k in counts[0] if any(c[k] != counts[0][k] for c in counts)}
        raise wl.BenchError(f"exact-count check: computed counts differ between traced runs: {diff}")

    metrics = dict(counts[0])
    for layer in LAYERS:  # a layer the workload never called has zero times
        for kind in ("busy_s", "self_s"):
            metrics[f"{layer}.{kind}"] = statistics.fmean(t.get(layer, {}).get(kind, 0.0) for t in times)
    metrics["process.wall_s"] = wall
    metrics["process.ref_s"] = ref
    metrics["process.cpu_s"] = cpu
    metrics["process.cpu_per_wall"] = cpu / wall
    q1, median, q3 = statistics.quantiles(overheads, n=4)
    metrics["trace.overhead_s"] = median
    metrics["trace.overhead_iqr_s"] = q3 - q1
    return metrics


def select(declared: list, values: dict) -> dict:
    """The metrics BENCHMARK.json declares, with their units."""
    missing = [m["name"] for m in declared if m["name"] not in values]
    if missing:
        raise wl.BenchError(f"metrics declared in BENCHMARK.json but not computed: {missing}")
    return {m["name"]: {"value": values[m["name"]], "unit": m["unit"]} for m in declared}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(wl.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    os.chdir(wl.ROOT)
    spec = json.loads((wl.ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    wl.import_package()
    pins = wl.load_pins()
    reference = Reference()
    reference()  # warm-up
    setup = None if args.trace else measure_setup(reference)
    key = args.seed % wl.PIN_COUNT
    workload = wl.WORKLOADS[args.workload](key)  # writes generated inputs
    runner = Runner(workload, pins[args.workload][str(key)], reference)

    runner.op()  # warm-up: checked, not timed
    if args.trace:
        values = per_layer(runner, args.seconds)
        declared = spec["per_layer"]
    else:
        values = end_to_end(runner, args.seconds, setup)
        declared = spec["end_to_end"]
    correct = runner.failed == 0 and bool(values)
    metrics = select(declared, values) if correct else {}

    units = {m["name"]: m["unit"] for m in declared}
    for name, value in values.items():
        print(f"{args.workload} {name} = {value:.6g} {units.get(name, 's (not declared)')}")
    print(f"{args.workload} fail_frac = {runner.failed}/{runner.attempted}")
    print(json.dumps({
        "correct": correct, "attempted": runner.attempted,
        "failed": runner.failed, "metrics": metrics,
    }))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
