"""Run every workload several times and print each metric's distribution.

    python3 bench/summary.py [--out bench/baseline.json]

Every workload of BENCHMARK.json runs RUNS times untraced and TRACE_RUNS
times traced, each run a fresh ``bench/run.py`` process measuring
``run_seconds`` with its own seed (1, 2, ...).
For every workload and metric it prints the unit, the sample count, the
median and quartiles (``statistics.quantiles(n=4)``) and, for end-to-end
metrics, the quartile spread as a share of the median next to the bound
BENCHMARK.json allows. The failure fraction is summed over all runs.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
RUNS = 10  # untraced runs per workload
TRACE_RUNS = 2  # traced runs per workload


def run_once(workload: str, seed: int, seconds: float, trace: int) -> dict:
    cmd = [sys.executable, "bench/run.py", "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", str(trace)]
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=600)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        sys.stderr.write(proc.stderr)
        raise SystemExit(f"{' '.join(cmd)} exited with {proc.returncode}")
    return json.loads(lines[-1])


def describe(values: list) -> dict:
    if len(values) > 1:
        q1, med, q3 = statistics.quantiles(values, n=4)
    else:
        q1 = med = q3 = values[0]
    return {"n": len(values), "median": med, "q1": q1, "q3": q3, "values": values}


def main(argv=None) -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--out", default="", help="also write the summary as JSON here")
    args = parser.parse_args(argv)
    seconds = spec["run_seconds"]

    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    summary = {"run_seconds": seconds, "workloads": {}}
    for workload in (w["name"] for w in spec["workloads"]):
        samples: dict = {}
        units: dict = {}
        attempted = failed = 0
        for trace, count in ((0, RUNS), (1, TRACE_RUNS)):
            for seed in range(1, count + 1):
                result = run_once(workload, seed, seconds, trace)
                attempted += result["attempted"]
                failed += result["failed"]
                for name, m in result["metrics"].items():
                    samples.setdefault(name, []).append(m["value"])
                    units[name] = m["unit"]
        rows = {name: dict(unit=units[name], **describe(v)) for name, v in samples.items()}
        summary["workloads"][workload] = {"attempted": attempted, "failed": failed, "metrics": rows}

        print(f"\n== {workload}: fail_frac = {failed}/{attempted} = {failed / max(attempted, 1):g}")
        print(f"{'metric':52} {'unit':6} {'n':>3} {'median':>12} {'q1':>12} {'q3':>12}  spread/bound")
        for name, r in rows.items():
            note = ""
            if name in bounds:
                spread = (r["q3"] - r["q1"]) / r["median"]
                note = f"{spread:.4f}/{bounds[name]}"
            print(f"{name:52} {r['unit']:6} {r['n']:>3} {r['median']:>12.6g} "
                  f"{r['q1']:>12.6g} {r['q3']:>12.6g}  {note}")

    if args.out:
        Path(args.out).write_text(json.dumps(summary, indent=1) + "\n", encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main())
