"""Compare the resampling kernel with per-replicate loops, bit for bit,
over about 150 seeded cases.

Run from the repository root:

    PYTHONPATH=src python tests/kernel_sweep.py

Each case draws three unequal groups of 2 to 1499 rows (labels
interleaved, features at scales from 1e-3 to 1e3), p in {1, 2, 3, 5, 16,
33}, K in {1, 61, 257}, chunks and row blocks each at a tiny or the
default size, and 1 to 3 workers.  ``stratified_bootstrap``'s ensemble
must have the bits of ``reference_bootstrap`` and the group means of
``permutation_test`` those of ``reference_permutation_means``
(``_oracles.py``).  Prints one line per p and exits 1 if any case
differs.  Not collected by pytest.
"""

from __future__ import annotations

import math
import sys
import time
from pathlib import Path

import numpy as np

sys.path.insert(0, str(Path(__file__).resolve().parent))

from _oracles import (  # noqa: E402
    permutation_means,
    reference_bootstrap,
    reference_permutation_means,
)
from ibistat import GroupedDataset, inference, stratified_bootstrap  # noqa: E402

CASES = 150
PS = (1, 2, 3, 5, 16, 33)
KS = (1, 61, 257)
STATS = ("tau", "gamma", "u", "v")


def case(i: int) -> dict:
    """The dataset and kernel settings of case i."""
    rng = np.random.default_rng(i)
    p = PS[i % len(PS)]
    k = KS[rng.integers(len(KS))]
    # log-uniform group sizes, so small groups are as common as large ones
    sizes = np.exp(rng.uniform(math.log(2), math.log(1500), size=3)).astype(int)
    labels = rng.permutation(np.repeat(np.array(["A", "B", "C"]), sizes))
    scale = 10.0 ** rng.uniform(-3, 3, size=p)
    features = rng.normal(size=(labels.size, p)) * scale + rng.normal(size=p) * scale
    ds = GroupedDataset(features=features, labels=labels)
    per_replicate = inference._replicate_values(ds.n, ds.p)
    if rng.random() < 0.5:
        replicates = int(rng.integers(1, 8))
        chunk = replicates * per_replicate
    else:
        chunk, replicates = inference._CHUNK_VALUES, k
    # one row per block, or a few rows, which mostly split a group unevenly
    rows = int(rng.integers(2, 40))
    block = int(rng.choice([1, rows * replicates * p, inference._BLOCK_VALUES]))
    workers = int(rng.integers(1, 4))
    return {
        "ds": ds, "k": k, "seed": int(rng.integers(2**63)),
        "chunk": chunk, "block": block, "workers": workers,
        "label": f"sizes {sizes.tolist()}, p {p}, k {k}, chunk values {chunk}, "
                 f"block values {block}, {workers} workers",
    }


def mismatches(c: dict) -> list:
    """Names of the outputs of case c whose bits differ from the loops'."""
    ds, k, seed = c["ds"], c["k"], c["seed"]
    saved = inference._CHUNK_VALUES, inference._BLOCK_VALUES, inference._usable_cpus
    inference._CHUNK_VALUES, inference._BLOCK_VALUES = c["chunk"], c["block"]
    inference._usable_cpus = lambda: c["workers"]
    try:
        ens = stratified_bootstrap(ds, k=k, seed=seed)
        perm = permutation_means(ds, k, seed)
    finally:
        inference._CHUNK_VALUES, inference._BLOCK_VALUES, inference._usable_cpus = saved
    reference = reference_bootstrap(ds, k, seed)
    bad = [name for name in STATS if getattr(ens, name).tobytes() != reference[name].tobytes()]
    if perm.tobytes() != reference_permutation_means(ds, k, seed).tobytes():
        bad.append("permutation means")
    return bad


def main() -> int:
    results = {p: [0, 0, 0.0] for p in PS}  # cases, mismatches, seconds
    for i in range(CASES):
        c = case(i)
        start = time.perf_counter()
        bad = mismatches(c)
        tally = results[c["ds"].p]
        tally[0] += 1
        tally[1] += bool(bad)
        tally[2] += time.perf_counter() - start
        if bad:
            print(f"  case {i} ({c['label']}): {', '.join(bad)} differ")
    for p, (count, bad, seconds) in results.items():
        print(f"p={p}: {count} cases, {bad} differing, {seconds:.1f} s")
    return 1 if any(bad for _, bad, _ in results.values()) else 0


if __name__ == "__main__":
    sys.exit(main())
