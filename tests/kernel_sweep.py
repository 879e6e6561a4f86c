"""Compare the resampling kernel with per-replicate loops, bit for bit,
and the certified permutation p-values with the loops' p-values, over
about 200 seeded cases.

Run from the repository root:

    PYTHONPATH=src python tests/kernel_sweep.py

A continuous case draws three unequal groups of 2 to 1499 rows (labels
interleaved, features at scales from 1e-3 to 1e3), a tie-heavy case
draws groups of 2 to 99 rows whose features in {0, 1, 2} come from a
pool of duplicated rows, plus a common offset from 1e3 to 1e8.  Each
takes p in {1, 2, 3, 5, 16, 33}, K in {1, 61, 257}, chunks and row
blocks each at a tiny or the default size, and 1 to 3 workers.  ``stratified_bootstrap``'s ensemble must have
the bits of ``reference_bootstrap``, the permutation test's exact kernel
(with every group summed, and with the largest left unsummed) those of
``reference_permutation_means``, and ``permutation_test``'s p-values
those the loops' means give (``_oracles.py``).  The cases then run a
second time in the same process, largest dataset first, so each draws
into arrays that a larger earlier case left on the thread.  Prints one
line per pass, family and p, and exits 1 if any case differs.  Not
collected by pytest.
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
    permutation_pvalues_from_means,
    reference_bootstrap,
    reference_permutation_means,
)
from ibistat import (  # noqa: E402
    DegenerateConfigurationError,
    GroupedDataset,
    inference,
    permutation_test,
    stratified_bootstrap,
)

CASES = 150
TIE_CASES = 60
PS = (1, 2, 3, 5, 16, 33)
KS = (1, 61, 257)
STATS = ("tau", "gamma", "u", "v")


def case(i: int) -> dict:
    """The dataset and kernel settings of case i: continuous below CASES,
    tie-heavy from there."""
    rng = np.random.default_rng(i)
    p = PS[i % len(PS)]
    k = KS[rng.integers(len(KS))]
    # log-uniform group sizes, so small groups are as common as large ones;
    # tie-heavy groups stay small, where permutations repeat statistics
    largest = 1500 if i < CASES else 100
    sizes = np.exp(rng.uniform(math.log(2), math.log(largest), size=3)).astype(int)
    labels = rng.permutation(np.repeat(np.array(["A", "B", "C"]), sizes))
    if i < CASES:
        family = "continuous"
        scale = 10.0 ** rng.uniform(-3, 3, size=p)
        features = rng.normal(size=(labels.size, p)) * scale + rng.normal(size=p) * scale
    else:
        family = "tie-heavy"
        pool = rng.integers(0, 3, size=(max(2, labels.size // 4), p)).astype(float)
        features = pool[rng.integers(len(pool), size=labels.size)] + 10.0 ** rng.uniform(3, 8)
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
        "ds": ds, "k": k, "seed": int(rng.integers(2**63)), "family": family,
        "chunk": chunk, "block": block, "workers": workers,
        "label": f"{family}, sizes {sizes.tolist()}, p {p}, k {k}, chunk values {chunk}, "
                 f"block values {block}, {workers} workers",
    }


def pvalues(compute):
    """``compute()``, or the name of the error it raises on an observed
    triangle with coincident centroids."""
    try:
        return compute()
    except DegenerateConfigurationError as error:
        return type(error).__name__


def mismatches(c: dict) -> list:
    """Names of the outputs of case c that differ from the loops'."""
    ds, k, seed = c["ds"], c["k"], c["seed"]
    largest = int(np.argmax(list(ds.n_per_group().values())))
    summed = [g for g in range(3) if g != largest]
    saved = inference._CHUNK_VALUES, inference._BLOCK_VALUES, inference._usable_cpus
    inference._CHUNK_VALUES, inference._BLOCK_VALUES = c["chunk"], c["block"]
    inference._usable_cpus = lambda: c["workers"]
    try:
        ens = stratified_bootstrap(ds, k=k, seed=seed)
        perm = permutation_means(ds, k, seed)
        skipped = permutation_means(ds, k, seed, skip=largest)[summed]
        certified = pvalues(lambda: permutation_test(ds, k=k, seed=seed))
    finally:
        inference._CHUNK_VALUES, inference._BLOCK_VALUES, inference._usable_cpus = saved
    reference = reference_bootstrap(ds, k, seed)
    bad = [name for name in STATS if getattr(ens, name).tobytes() != reference[name].tobytes()]
    reference_means = reference_permutation_means(ds, k, seed)
    if perm.tobytes() != reference_means.tobytes():
        bad.append("permutation means")
    if skipped.tobytes() != reference_means[summed].tobytes():
        bad.append("permutation means with the largest group unsummed")
    if certified != pvalues(lambda: permutation_pvalues_from_means(ds, reference_means)):
        bad.append("permutation p-values")
    return bad


def sweep(order, title: str) -> bool:
    """Runs the cases in ``order`` and prints their tallies; True if any
    case differs."""
    results = {}  # (family, p): [cases, mismatches, seconds]
    for i in order:
        c = case(i)
        start = time.perf_counter()
        bad = mismatches(c)
        tally = results.setdefault((c["family"], c["ds"].p), [0, 0, 0.0])
        tally[0] += 1
        tally[1] += bool(bad)
        tally[2] += time.perf_counter() - start
        if bad:
            print(f"  case {i} ({c['label']}): {', '.join(bad)} differ")
    for (family, p), (count, bad, seconds) in sorted(results.items()):
        print(f"{title}: {family} p={p}: {count} cases, {bad} differing, {seconds:.1f} s")
    return any(bad for _, bad, _ in results.values())


def main() -> int:
    cases = range(CASES + TIE_CASES)
    differ = sweep(cases, "in case order")
    # the same cases again, largest first: each draws into the arrays the
    # resampling kernel kept on this thread from a larger one
    size = {i: case(i)["ds"].features.size for i in cases}
    differ |= sweep(sorted(cases, key=size.get, reverse=True), "largest first")
    return 1 if differ else 0


if __name__ == "__main__":
    sys.exit(main())
