"""The benchmark's workloads: their inputs, one timed operation each, and
the reference each operation's output is checked against.

Every workload is a function of ``key = seed % PIN_COUNT``: the pinned
reference table (``pins.json``, written by ``pin.py``) holds one entry per
key, so any seed maps onto inputs whose correct output is known.
"""

from __future__ import annotations

import hashlib
import json
import math
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
WORK = ROOT / ".bench_work"  # generated inputs, outputs and span dumps
PINS_PATH = Path(__file__).with_name("pins.json")
PIN_COUNT = 64


class BenchError(RuntimeError):
    """The benchmark cannot run or its own checks failed."""


def import_package() -> None:
    """Import ibistat from this checkout's ``src/``, never from elsewhere.

    Also imports everything the workloads reach lazily (``ibistat.cli``
    and ``scipy.spatial``), so no operation pays an import.
    """
    init = SRC / "ibistat" / "__init__.py"
    if not init.is_file():
        raise BenchError("ibistat sources not found under src/ of this checkout")
    sys.path.insert(0, str(SRC))
    import scipy.spatial  # noqa: F401  (imported lazily by confidence regions)

    import ibistat
    import ibistat.cli  # noqa: F401

    if Path(ibistat.__file__).resolve() != init.resolve():
        raise BenchError(f"imported ibistat from {ibistat.__file__}, not from src/")


def load_pins() -> dict:
    """The pinned reference table; refuses a table for another report format."""
    from ibistat.report import REPORT_FORMAT

    pins = json.loads(PINS_PATH.read_text(encoding="utf-8"))
    if pins["report_format"] != REPORT_FORMAT:
        raise BenchError(
            f"pins.json is for report format {pins['report_format']}, the package "
            f"writes {REPORT_FORMAT}: re-pin with bench/pin.py in a change of its own"
        )
    if pins["pin_count"] != PIN_COUNT:
        raise BenchError("pins.json has the wrong number of entries")
    check_coverage_tolerances(pins["simulate-coverage"])
    return pins


def sha256_file(path: Path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest()


class _CliWorkload:
    """An ``ibistat analyze`` run through ``ibistat.cli.main``."""

    name = ""
    outputs: tuple = ()

    def __init__(self, key: int):
        self.key = key
        self.dir = WORK / self.name
        self.dir.mkdir(parents=True, exist_ok=True)
        # relative paths: the report echoes --input, so it must not
        # depend on where the checkout lives
        self.rel = self.dir.relative_to(ROOT).as_posix()

    def argv(self) -> list:
        raise NotImplementedError

    def run(self):
        """The timed operation. Returns the CLI exit code."""
        from ibistat.cli import main

        for name in self.outputs:
            (self.dir / name).unlink(missing_ok=True)
        return main(self.argv())

    def reference(self, rc) -> dict:
        """Digest of the outputs, to compare with the pinned one."""
        if rc != 0:
            raise BenchError(f"ibistat analyze exited with {rc}")
        return {
            name.replace(".", "_") + "_sha256": sha256_file(self.dir / name)
            for name in self.outputs
        }


ANALYZE_LAYERS = (
    "report.load_csv", "report.run_analysis", "inference.standardize",
    "inference.stratified_bootstrap", "sampling.stream_generator",
    "inference.confidence_region", "depth.tukey_depths",
    "inference.permutation_test", "report.dumps_report",
)


class AnalyzeIris(_CliWorkload):
    name = "analyze-iris"
    # layers each traced operation must record at least one span of
    traced_layers = ANALYZE_LAYERS + ("svgplot.svg_from_report",)
    outputs = ("report.json", "shapes.svg")
    boot, perm = 1000, 500

    def argv(self) -> list:
        return [
            "analyze", "--input", "src/ibistat/data/iris.csv",
            "--group-col", "species",
            "--groups", "A=setosa,B=versicolor,C=virginica",
            "--standardize", "feature",
            "--boot", str(self.boot), "--perm", str(self.perm),
            "--levels", "0.8,0.95", "--seed", str(self.key),
            "--report", f"{self.rel}/report.json", "--plot", f"{self.rel}/shapes.svg",
        ]


class AnalyzeLarge(_CliWorkload):
    name = "analyze-large"
    traced_layers = ANALYZE_LAYERS
    outputs = ("report.json",)
    group_rows = {"A": 3000, "B": 2000, "C": 1500}
    features = 16
    threads = 2

    def __init__(self, key: int):
        super().__init__(key)
        self.input = f"{self.rel}/input-{key}.csv"
        self.write_input()

    def write_input(self) -> None:
        """Isotropic normal features around three seeded group means,
        rows shuffled; a function of the key alone."""
        import numpy as np

        rng = np.random.Generator(np.random.Philox(key=[self.key, 0xB3]))
        means = rng.normal(scale=0.25, size=(3, self.features))
        lines = []
        for g, (label, n) in enumerate(self.group_rows.items()):
            block = means[g] + rng.normal(size=(n, self.features))
            lines.extend(label + "," + ",".join(map(repr, row.tolist())) for row in block)
        header = "group," + ",".join(f"x{i}" for i in range(self.features))
        order = rng.permutation(len(lines))
        text = "\n".join([header] + [lines[i] for i in order]) + "\n"
        (ROOT / self.input).write_text(text, encoding="utf-8")

    def argv(self, threads: int | None = None) -> list:
        return [
            "analyze", "--input", self.input,
            "--group-col", "group", "--groups", "A=A,B=B,C=C",
            "--standardize", "whiten", "--boot", "1000", "--perm", "1000",
            "--levels", "0.95", "--threads", str(threads or self.threads),
            "--seed", "3", "--report", f"{self.rel}/report.json",
        ]


# acceptance criterion 4: (n per group, sigma2), r = 0.5, phi = pi/3, p = 2, K = 500
COVERAGE_CALLS = ((100, 1.0), (30, 5.0))
# criterion 4 runs 300 simulations per call; the pooled pin table covers
# PIN_COUNT * SIMS_PER_CALL of them
SIMS_PER_CALL = 5


class SimulateCoverage:
    name = "simulate-coverage"
    traced_layers = (
        "sampling.sample_grouped_dataset", "sampling.stream_generator",
        "inference.stratified_bootstrap", "inference.confidence_region",
        "depth.tukey_depths", "depth.tukey_depth",
    )

    def __init__(self, key: int):
        self.key = key

    def run(self) -> list:
        import ibistat

        return [
            ibistat.coverage_simulation(
                r=0.5, phi=math.pi / 3, p=2, n_per_group=n, sigma2=sigma2,
                n_sims=SIMS_PER_CALL, k=500, seed=self.key,
            )
            for n, sigma2 in COVERAGE_CALLS
        ]

    def reference(self, result) -> list:
        return [
            {name: float(row[name]) for name in ("ci_coverage", "ci_length", "cr_coverage", "cr_area")}
            for row in result
        ]


def check_coverage_tolerances(table: dict) -> None:
    """Criterion 4's tolerances on the pinned values, pooled over all keys
    (per key, SIMS_PER_CALL simulations are too few for a coverage tolerance)."""
    rows = [table[str(k)] for k in range(PIN_COUNT)]
    pooled = [
        {name: sum(r[c][name] for r in rows) / len(rows) for name in rows[0][c]}
        for c in range(len(COVERAGE_CALLS))
    ]
    base, noisy = pooled
    if not (
        abs(base["ci_coverage"] - 0.953) <= 0.03
        and abs(base["ci_length"] - 0.381) <= 0.05
        and abs(noisy["ci_length"] - 1.233) <= 0.15
    ):
        raise BenchError(f"pinned coverage values miss criterion 4's tolerances: {pooled}")


WORKLOADS = {w.name: w for w in (AnalyzeIris, SimulateCoverage, AnalyzeLarge)}
