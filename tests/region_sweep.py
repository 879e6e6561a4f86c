"""Compare the confidence regions of about 200 seeded bootstrap ensembles
with the ones the depths of every valid point give.

Run from the repository root:

    PYTHONPATH=src python tests/region_sweep.py

Ensembles: iris at p = 4 and p = 1 (K = 1000), simulated datasets with
n = 100 and n = 30 per group (K = 500), and iris groups cut to 2 or 3
rows (K = 400); each at levels 0.5, 0.8, 0.95 and 0.99.  Prints one line
per family and exits 1 if any region differs.  Not collected by pytest.
"""

from __future__ import annotations

import math
import sys
import time
from pathlib import Path

import numpy as np

sys.path.insert(0, str(Path(__file__).resolve().parent))

from _oracles import assert_region_matches_full_kernel  # noqa: E402
from conftest import iris_config  # noqa: E402
from ibistat import GroupedDataset, standardize, stratified_bootstrap  # noqa: E402
from ibistat.datasets import iris_csv_path  # noqa: E402
from ibistat.report import load_csv  # noqa: E402
from ibistat.sampling import (  # noqa: E402
    DOMAIN_SIMULATION,
    GroupSpec,
    mean_configuration_from_shape,
    sample_grouped_dataset,
    stream_generator,
)

LEVELS = (0.5, 0.8, 0.95, 0.99)


def iris(features, seeds):
    ds = standardize(load_csv(iris_csv_path(), iris_config(features=features)), "feature")
    for seed in seeds:
        yield stratified_bootstrap(ds, k=1000, seed=seed)


def simulated(n, sigma2, seeds):
    mean = mean_configuration_from_shape(0.5, math.pi / 3, p=2)
    spec = GroupSpec(means=mean.landmarks * math.sqrt(3.0), sigma2=sigma2, n=n)
    for seed in seeds:
        ds = sample_grouped_dataset(spec, stream_generator(seed, DOMAIN_SIMULATION, 0))
        yield stratified_bootstrap(ds, k=500, seed=seed)


def tiny_groups(seeds):
    ds = load_csv(iris_csv_path(), iris_config())
    for seed in seeds:
        rows = 2 + seed % 2
        idx = np.concatenate([ds.group_indices(g)[seed % 40 : seed % 40 + rows] for g in "ABC"])
        sub = GroupedDataset(features=ds.features[idx], labels=ds.labels[idx])
        yield stratified_bootstrap(sub, k=400, seed=seed)


FAMILIES = {
    "iris p=4": lambda: iris((), range(60)),
    "iris p=1": lambda: iris(("petal_length",), range(20)),
    "simulated n=100": lambda: simulated(100, 1.0, range(50)),
    "simulated n=30": lambda: simulated(30, 5.0, range(50)),
    "tiny groups": lambda: tiny_groups(range(30)),
}


def main() -> int:
    failed = 0
    for name, ensembles in FAMILIES.items():
        start = time.perf_counter()
        count = bad = 0
        for ens in ensembles():
            count += 1
            try:
                assert_region_matches_full_kernel(ens, LEVELS)
            except AssertionError as exc:
                bad += 1
                print(f"  {name}, seed {ens.seed}: {exc}")
        failed += bad
        print(f"{name}: {count} ensembles, {bad} with a differing region, "
              f"{time.perf_counter() - start:.1f} s")
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
