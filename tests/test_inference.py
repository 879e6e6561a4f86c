import concurrent.futures
import itertools
import math
import os
import re
import sys
import threading
import time
import tracemalloc
import warnings
from pathlib import Path

import numpy as np
import pytest

from ibistat import inference, sampling
from ibistat import (
    DegenerateConfigurationError,
    GroupedDataset,
    InsufficientDataError,
    InsufficientReplicatesError,
    SingularCovarianceError,
    centroid_configuration,
    confidence_region,
    cosine_ibi,
    coverage_simulation,
    observed_ibi,
    percentile_ci,
    permutation_test,
    region_summary,
    shape_point,
    side_lengths,
    standardize,
    stratified_bootstrap,
    stream_generator,
    tau_ibi,
)
from ibistat.inference import _observed_triangle
from ibistat.report import run_analysis
from ibistat.sampling import DOMAIN_BOOTSTRAP, DOMAIN_PERMUTATION
from ibistat.shape import _centroid_shape_stats
from _oracles import (
    assert_region_matches_full_kernel,
    cloud_depths,
    count_exact_permutations,
    permutation_means,
    quantile_type7,
    reference_bootstrap,
    reference_permutation_means,
    reference_permutation_pvalues,
)
from conftest import iris_config


def make_dataset(rng, n=30, p=2, spread=1.0, offsets=None):
    offsets = offsets if offsets is not None else np.zeros((3, p))
    feats = np.vstack([offsets[g] + spread * rng.normal(size=(n, p)) for g in range(3)])
    labels = np.repeat(np.array(["A", "B", "C"]), n)
    return GroupedDataset(features=feats, labels=labels)


# ---------------------------------------------------------------------------
# standardize


def test_dataset_constructor_checks_labels():
    ds = GroupedDataset(
        features=np.array([[0.0, 1.0], [1.0, 0.0], [2.0, 2.0], [3.0, 3.0], [5.0, 1.0], [4.0, 0.0]]),
        labels=np.array(list("AABBCC")),
        feature_names=("x", "y"),
    )
    assert ds.n == 6 and ds.p == 2
    np.testing.assert_array_equal(ds.group_indices("B"), [2, 3])
    with pytest.raises(ValueError, match=r"labels must be in \('A', 'B', 'C'\), got \['D'\]"):
        GroupedDataset(features=np.arange(6.0).reshape(6, 1), labels=np.array(list("AABBCD")))


def test_group_indices_are_read_only_rows_of_interleaved_labels():
    labels = np.array(list("CABACBBACC"))
    ds = GroupedDataset(features=np.arange(20.0).reshape(10, 2), labels=labels)
    for g in "ABC":
        idx = ds.group_indices(g)
        np.testing.assert_array_equal(idx, np.flatnonzero(labels == g))
        assert idx is ds.group_indices(g)  # built once, by the constructor
        with pytest.raises(ValueError, match="read-only"):
            idx[0] = 0
        np.testing.assert_array_equal(ds.group_features(g), ds.features[labels == g])
    assert ds.n_per_group() == {"A": 3, "B": 3, "C": 4}


@pytest.mark.parametrize("labels, message", [
    ("AABBCCED", "labels must be in ('A', 'B', 'C'), got ['D', 'E']"),
    ("AABCCD", "labels must be in ('A', 'B', 'C'), got ['D']"),
    ("AABCC", "group B needs at least 2 observations"),
    ("ABBCC", "group A needs at least 2 observations"),
])
def test_dataset_label_errors(labels, message):
    with pytest.raises(ValueError) as exc:
        GroupedDataset(features=np.zeros((len(labels), 1)), labels=np.array(list(labels)))
    assert str(exc.value) == message


def test_standardize_none_is_identity(iris_ds):
    assert standardize(iris_ds, "none") is iris_ds


def test_standardize_feature_unit_variance():
    rng = np.random.default_rng(31)
    ds = make_dataset(rng, n=50)
    scaled = GroupedDataset(
        features=ds.features * np.array([2.0, 5.0]), labels=ds.labels
    )
    out = standardize(scaled, "feature")
    np.testing.assert_allclose(out.features.std(axis=0, ddof=1), 1.0, atol=1e-12)
    np.testing.assert_allclose(out.features.mean(axis=0), 0.0, atol=1e-12)


def test_standardize_whiten_pooled_identity():
    rng = np.random.default_rng(32)
    base = rng.normal(size=(120, 3))
    mix = np.array([[2.0, 0.7, 0.0], [0.0, 1.5, 0.3], [0.0, 0.0, 0.4]])
    ds = GroupedDataset(
        features=base @ mix.T,
        labels=np.repeat(np.array(["A", "B", "C"]), 40),
    )
    out = standardize(ds, "whiten")
    resid = np.concatenate(
        [out.group_features(g) - out.group_features(g).mean(axis=0) for g in "ABC"]
    )
    pooled = resid.T @ resid / (out.n - 3)
    np.testing.assert_allclose(pooled, np.eye(3), atol=1e-8)


def test_standardize_errors():
    rng = np.random.default_rng(33)
    ds = make_dataset(rng, n=10)
    constant = GroupedDataset(
        features=np.column_stack([ds.features[:, 0], np.ones(ds.n)]),
        labels=ds.labels,
    )
    with pytest.raises(SingularCovarianceError):
        standardize(constant, "feature")
    dup = GroupedDataset(
        features=np.column_stack([ds.features[:, 0], ds.features[:, 0]]),
        labels=ds.labels,
    )
    with pytest.raises(SingularCovarianceError):
        standardize(dup, "whiten")
    with pytest.raises(ValueError):
        standardize(ds, "zscore")
    # finite values whose spread overflows: x's variance is infinite
    huge = GroupedDataset(
        features=np.array([[1e308, 1.0], [-1e308, 2.0], [1.0, 3.0], [2.0, 1.0], [3.0, 5.0], [4.0, 2.0]]),
        labels=np.array(list("AABBCC")),
        feature_names=("x", "y"),
    )
    with pytest.raises(SingularCovarianceError, match=r"non-finite variance: \['x'\]"):
        standardize(huge, "feature")
    with pytest.raises(SingularCovarianceError, match="ill-conditioned"):
        standardize(huge, "whiten")


def wide_dataset(p, seed=34):
    """6500 rows of p correlated features in groups of 3000, 2000 and
    1500: at p = 16 OpenBLAS would split whiten's last product over
    threads, at p = 64 its eigh as well."""
    rng = np.random.default_rng(seed)
    return GroupedDataset(
        features=rng.normal(size=(6500, p)) @ rng.normal(size=(p, p)),
        labels=np.repeat(np.array(["A", "B", "C"]), [3000, 2000, 1500]),
    )


def cpu_while_idle() -> float:
    """CPU seconds this process burns over a 0.25 s sleep."""
    start = time.process_time()
    time.sleep(0.25)
    return time.process_time() - start


@pytest.mark.parametrize("p", [16, 64])
def test_whiten_leaves_no_blas_worker_spinning(p):
    # at p = 16 only the last product would spin; at p = 64 eigh as well
    ds = wide_dataset(p)
    x = ds.features
    w = np.random.default_rng(35).normal(size=(p, p))
    time.sleep(0.3)  # let any earlier BLAS worker go back to sleep
    _ = (x - x.mean(axis=0)) @ w
    control = cpu_while_idle()
    if control < 0.05:
        pytest.skip(f"a plain product left {control:.3f} s of CPU: one CPU, "
                    "or a BLAS whose workers do not spin")
    time.sleep(0.3)
    standardize(ds, "whiten")
    assert cpu_while_idle() < 0.02


def whiten_outside_context(ds):
    """whiten's steps, run at the BLAS's own thread count."""
    resid = np.concatenate(
        [ds.group_features(g) - ds.group_features(g).mean(axis=0) for g in "ABC"]
    )
    eigval, eigvec = np.linalg.eigh(resid.T @ resid / (ds.n - 3))
    w = eigvec @ np.diag(eigval ** -0.5) @ eigvec.T
    return (ds.features - ds.features.mean(axis=0)) @ w


@pytest.mark.parametrize("p", [16, 64])
def test_whiten_on_the_calling_thread_keeps_the_bits(p):
    ds = wide_dataset(p)
    np.testing.assert_array_equal(standardize(ds, "whiten").features, whiten_outside_context(ds))


def test_whiten_restores_the_blas_thread_counts():
    control = inference._openblas_thread_control()
    if control is None:
        pytest.skip("numpy's BLAS is not an OpenBLAS")
    get, _ = control
    before = get()
    with inference._blas_on_calling_thread():
        assert get() == 1
    standardize(wide_dataset(16), "whiten")
    assert get() == before
    dup = GroupedDataset(features=np.ones((6, 2)) * np.arange(6.0)[:, None],
                         labels=np.array(list("AABBCC")))
    with pytest.raises(SingularCovarianceError):
        standardize(dup, "whiten")
    assert get() == before


def test_whiten_without_rtld_noload_keeps_the_bits(monkeypatch):
    # Windows has no RTLD_NOLOAD: the lookup finds nothing and whiten
    # runs at the BLAS's own thread count
    ds = wide_dataset(16)
    inference._openblas_thread_control.cache_clear()
    monkeypatch.delattr(os, "RTLD_NOLOAD", raising=False)
    try:
        assert inference._openblas_thread_control() is None
        np.testing.assert_array_equal(standardize(ds, "whiten").features, whiten_outside_context(ds))
    finally:
        monkeypatch.undo()
        inference._openblas_thread_control.cache_clear()


def numpy_names_openblas() -> bool:
    """True if numpy's build configuration names OpenBLAS as its BLAS."""
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    except TypeError:  # numpy < 1.26: the distutils-era *_info dicts
        infos = [v for k, v in vars(np.__config__).items() if k.endswith("_info")]
        return any("openblas" in lib for info in infos if isinstance(info, dict)
                   for lib in info.get("libraries", []))
    return "openblas" in blas.get("name", "").lower()


def test_openblas_thread_control_is_found():
    # a renamed thread-count symbol must fail here, not silently leave
    # whiten's BLAS threaded
    if not numpy_names_openblas():
        pytest.skip("numpy is not built on OpenBLAS")
    assert inference._openblas_thread_control() is not None


# ---------------------------------------------------------------------------
# observed statistics


def test_centroid_configuration_iris(iris_sepal_ds):
    cfg = centroid_configuration(iris_sepal_ds)
    np.testing.assert_allclose(
        cfg.landmarks,
        [[5.01, 3.43], [5.94, 2.77], [6.59, 2.97]],
        atol=0.005,
    )


def test_observed_ibi_exact_midpoint_dataset():
    # group means exactly at A=(0,0), B=(1,0), C=(2,0)
    feats = np.array(
        [[-1.0, 0.5], [1.0, -0.5], [0.5, 1.0], [1.5, -1.0], [1.0, 2.0], [3.0, -2.0]]
    )
    ds = GroupedDataset(features=feats, labels=np.array(list("AABBCC")))
    pair = observed_ibi(ds, mode="none")
    assert abs(pair.tau - 1.0) <= 1e-9
    assert abs(pair.gamma - 1.0) <= 1e-9


@pytest.mark.parametrize("labels", ["AABBCC", "CCBBAA"])
def test_gamma_undefined_when_b_meets_a_or_c(labels):
    # B's mean (1, 0) is that of the first two rows, so B meets A (side c
    # vanishes) or C (side a does); the other two sides are equal, so
    # tau = 3 b2 - 1 = 1/2
    feats = np.array([[0.0, 0.0], [2.0, 0.0], [1.0, 1.0], [1.0, -1.0], [5.0, 5.0], [7.0, 5.0]])
    ds = GroupedDataset(features=feats, labels=np.array(list(labels)))
    pair = observed_ibi(ds, mode="none")
    assert math.isnan(pair.gamma)
    assert abs(pair.tau - 0.5) <= 1e-12
    report, _ = run_analysis(iris_config(standardize_mode="none", boot_k=50, levels=()), ds)
    assert report["observed"]["gamma"] is None
    assert report["observed"]["tau"] == pair.tau


def test_gamma_interval_is_none_when_no_replicate_defines_gamma():
    # A's and B's rows are all at the origin, so every replicate's side c
    # vanishes; tau is still defined
    feats = np.array([[0.0, 0.0]] * 4 + [[1.0, 0.0], [2.0, 1.0], [3.0, 0.0]])
    ds = GroupedDataset(features=feats, labels=np.array(list("AABBCCC")))
    report, _ = run_analysis(iris_config(standardize_mode="none", boot_k=200, levels=(0.8,)), ds)
    assert report["diagnostics"]["gamma_undefined_replicates"] == 200
    assert report["confidence_intervals"]["gamma"] == {"0.8": None}
    lo, hi = report["confidence_intervals"]["tau"]["0.8"]
    assert abs(lo - 0.5) <= 1e-12 and abs(hi - 0.5) <= 1e-12


IRIS_SUBSETS = [
    subset for size in range(1, 5) for subset in itertools.combinations(range(4), size)
]


@pytest.mark.parametrize("mode", ["none", "feature", "whiten"])
def test_observed_triangle_has_the_bits_of_the_scalar_reference(iris_ds, mode):
    # every iris feature subset: the kernel's sides and gamma are those of
    # side_lengths and cosine_ibi, and the SVD fields those of shape_point
    for subset in IRIS_SUBSETS:
        ds = standardize(GroupedDataset(
            features=iris_ds.features[:, subset], labels=iris_ds.labels,
        ), mode)
        observed, stats = _observed_triangle(ds)
        cfg = centroid_configuration(ds)
        sides, sp = side_lengths(cfg), shape_point(cfg)
        reference = {
            "tau": tau_ibi(sp), "gamma": cosine_ibi(sides),
            "r": sp.r, "phi": sp.phi, "u": sp.u, "v": sp.v,
            "a2": sides.a2, "b2": sides.b2, "c2": sides.c2,
        }
        assert list(observed) == list(reference)
        np.testing.assert_array_equal(list(observed.values()), list(reference.values()))
        for name in ("a2", "b2", "c2", "gamma"):
            np.testing.assert_array_equal(stats[name], [reference[name]], err_msg=name)


def test_report_observed_block_is_the_observed_triangle(iris_ds):
    report, _ = run_analysis(iris_config(boot_k=50, levels=()), iris_ds)
    observed, _ = _observed_triangle(standardize(iris_ds, "feature"))
    assert report["observed"] == observed


def test_coincident_centroids_raise():
    # every group's mean is (0.5, 0.5)
    feats = np.array([[0.0, 0.0], [1.0, 1.0]] * 3)
    ds = GroupedDataset(features=feats, labels=np.array(list("AABBCC")))
    with pytest.raises(DegenerateConfigurationError):
        observed_ibi(ds, mode="none")
    with pytest.raises(DegenerateConfigurationError):
        permutation_test(ds, k=20, seed=0)


def test_observed_ibi_iris_sl_pw_standardized():
    from conftest import iris_config
    from ibistat.report import load_csv

    ds = load_csv(iris_config().input_path,
                  iris_config(("sepal_length", "petal_width")))
    pair = observed_ibi(ds, mode="feature")
    assert abs(pair.tau - 0.974) <= 0.002
    assert abs(pair.gamma - 0.999) <= 0.002


def test_observed_ibi_label_symmetry(iris_ds):
    swapped = GroupedDataset(
        features=iris_ds.features,
        labels=np.array([{"A": "C", "B": "B", "C": "A"}[g] for g in iris_ds.labels]),
        feature_names=iris_ds.feature_names,
    )
    for mode in ("none", "feature"):
        a = observed_ibi(iris_ds, mode=mode)
        b = observed_ibi(swapped, mode=mode)
        assert abs(a.tau - b.tau) <= 1e-12
        assert abs(a.gamma - b.gamma) <= 1e-12


def test_observed_ibi_feature_rescaling_invariance(iris_ds):
    scaled = GroupedDataset(
        features=iris_ds.features * np.array([10.0, 1.0, 0.01, 1.0]),
        labels=iris_ds.labels,
        feature_names=iris_ds.feature_names,
    )
    a = observed_ibi(iris_ds, mode="feature")
    b = observed_ibi(scaled, mode="feature")
    assert abs(a.tau - b.tau) <= 1e-9
    assert abs(a.gamma - b.gamma) <= 1e-9


# ---------------------------------------------------------------------------
# bootstrap


def test_bootstrap_deterministic(iris_ds):
    a = stratified_bootstrap(iris_ds, k=300, seed=9)
    b = stratified_bootstrap(iris_ds, k=300, seed=9)
    np.testing.assert_array_equal(a.tau, b.tau)
    np.testing.assert_array_equal(a.gamma, b.gamma)


def test_bootstrap_identity_hook_matches_observed(iris_ds):
    # the bootstrap's vectorised kernel, fed the observed centroids,
    # agrees with the scalar SVD route of the report's observed block
    cfg = centroid_configuration(standardize(iris_ds, "feature"))
    stats = _centroid_shape_stats(cfg.landmarks[:, None])
    obs = observed_ibi(iris_ds, mode="feature")
    assert abs(stats["tau"][0] - obs.tau) <= 1e-12
    assert abs(stats["gamma"][0] - obs.gamma) <= 1e-12


def use_workers(monkeypatch, workers):
    # the resampling kernel runs min(workers, chunks, replicates per
    # full-size chunk) workers
    monkeypatch.setattr(inference, "_usable_cpus", lambda: workers)


def chunk_values(chunk, ds):
    # "default", or a chunk of that many replicates
    if chunk == "default":
        return inference._CHUNK_VALUES
    return chunk * inference._replicate_values(ds.n, ds.p)


def count_generators(monkeypatch):
    # stream_generator, looked up in ibistat.inference, builds each
    # worker's generator
    calls = []

    def counting(*args):
        calls.append(args)
        return stream_generator(*args)

    monkeypatch.setattr(inference, "stream_generator", counting)
    return calls


def test_resampling_chunk_size_does_not_change_results(iris_ds, monkeypatch):
    # _CHUNK_VALUES = 1 gives one-replicate chunks (m = 1); p = 1 and
    # p = 2 are where the gathered block loses or keeps a short axis;
    # 9000 values give every dataset several chunks, shared by 1-3 workers
    rng = np.random.default_rng(8)
    datasets = [(iris_ds, 257)] + [
        (make_dataset(rng, n=40, p=p, offsets=rng.normal(size=(3, p))), 100)
        for p in (1, 2, 3)
    ]
    runs = []
    settings = [(inference._CHUNK_VALUES, 1), (1, 1), (9000, 1), (9000, 2), (9000, 3)]
    for chunk, workers in settings:
        monkeypatch.setattr(inference, "_CHUNK_VALUES", chunk)
        use_workers(monkeypatch, workers)
        runs.append([
            (stratified_bootstrap(ds, k=k, seed=4), permutation_test(ds, k=150, seed=5))
            for ds, k in datasets
        ])
    for results in zip(*runs):
        for ens, perm in results[1:]:
            assert_ensemble_equals(ens, vars(results[0][0]))
            assert perm == results[0][1]


@pytest.mark.parametrize("k", [1, 7, 300])
def test_resampling_builds_one_generator_per_call(iris_ds, monkeypatch, k):
    # each worker re-keys one generator for all its replicates; chunks
    # of at most 4 iris replicates give min(workers, ceil(k / 4)) workers
    monkeypatch.setattr(inference, "_CHUNK_VALUES", chunk_values(4, iris_ds))
    calls = count_generators(monkeypatch)
    for workers in (1, 2):
        use_workers(monkeypatch, workers)
        expected = min(workers, -(-k // 4))
        calls.clear()
        stratified_bootstrap(iris_ds, k=k, seed=4)
        assert calls == [(0,)] * expected
        calls.clear()
        permutation_test(iris_ds, k=k, seed=4)
        assert calls == [(0,)] * expected


def assert_ensemble_equals(ens, stats):
    for name in ("tau", "gamma", "u", "v"):
        np.testing.assert_array_equal(getattr(ens, name), stats[name])


@pytest.mark.parametrize("n, p", [(2, 1), (2, 3), (7, 1), (20, 1), (15, 4), (9, 2), (12, 16)])
@pytest.mark.parametrize("seed", [0, 9, 2**63 + 5])
def test_bootstrap_matches_per_replicate_reference(n, p, seed):
    # 3n observations: odd and even totals, groups of size 2, p = 1
    ds = make_dataset(np.random.default_rng(n * p), n=n, p=p)
    ens = stratified_bootstrap(ds, k=60, seed=seed)
    assert_ensemble_equals(ens, reference_bootstrap(ds, 60, seed))


def unequal_dataset(p, sizes=(11, 7, 16)):
    # labels interleaved, so group rows are not contiguous in ds.features
    rng = np.random.default_rng(p)
    labels = rng.permutation(np.repeat(np.array(["A", "B", "C"]), sizes))
    return GroupedDataset(features=rng.normal(size=(sum(sizes), p)), labels=labels)


# K = 61 is a multiple of no W * step below: chunks of 7, 3 and 2
# replicates for W = 1, 2 and 3 at chunk 7
WORKER_K = 61


def expected_workers(chunk, workers):
    return workers if chunk == 7 else 1


@pytest.mark.parametrize("chunk", ["default", 1, 7])
@pytest.mark.parametrize("p", [1, 2, 3, 4, 16])
def test_permutation_matches_per_replicate_reference(monkeypatch, p, chunk):
    # the exact kernel, which permutation_test runs on the permutations
    # its bound leaves undecided, and on all of them at p = 1
    ds = unequal_dataset(p)
    monkeypatch.setattr(inference, "_CHUNK_VALUES", chunk_values(chunk, ds))
    calls = count_generators(monkeypatch)
    reference = reference_permutation_means(ds, WORKER_K, 3)
    for workers in (1, 2, 3):
        use_workers(monkeypatch, workers)
        calls.clear()
        means = permutation_means(ds, WORKER_K, 3)
        np.testing.assert_array_equal(means, reference)
        assert len(calls) == expected_workers(chunk, workers)


@pytest.mark.parametrize("chunk", [1, 7])
@pytest.mark.parametrize("p", [1, 2, 3, 4, 16])
def test_bootstrap_matches_per_replicate_reference_in_small_chunks(monkeypatch, p, chunk):
    ds = unequal_dataset(p)
    monkeypatch.setattr(inference, "_CHUNK_VALUES", chunk_values(chunk, ds))
    calls = count_generators(monkeypatch)
    reference = reference_bootstrap(ds, WORKER_K, 5)
    for workers in (1, 2, 3):
        use_workers(monkeypatch, workers)
        calls.clear()
        ens = stratified_bootstrap(ds, k=WORKER_K, seed=5)
        assert_ensemble_equals(ens, reference)
        assert len(calls) == expected_workers(chunk, workers)


def use_blocks(monkeypatch, block, ds, chunk):
    # "row": one row per block; "uneven": 3 rows per block in the first
    # chunk of 61 or 7 replicates, splitting the groups of 11, 7 and 16
    # rows unevenly (later, smaller chunks take more rows); "default":
    # one block per group
    replicates = WORKER_K if chunk == "default" else chunk
    values = {"row": 1, "uneven": 3 * replicates * ds.p}.get(block, inference._BLOCK_VALUES)
    monkeypatch.setattr(inference, "_BLOCK_VALUES", values)


@pytest.mark.parametrize("chunk", ["default", 7])
@pytest.mark.parametrize("block", ["row", "uneven", "default"])
@pytest.mark.parametrize("p", [2, 3, 16])
def test_bootstrap_matches_per_replicate_reference_in_row_blocks(monkeypatch, p, block, chunk):
    # each block after the first carries the running sum into its first
    # row, so any block size gives the bits of a per-replicate mean
    ds = unequal_dataset(p)
    monkeypatch.setattr(inference, "_CHUNK_VALUES", chunk_values(chunk, ds))
    use_blocks(monkeypatch, block, ds, chunk)
    reference = reference_bootstrap(ds, WORKER_K, 5)
    for workers in (1, 3):
        use_workers(monkeypatch, workers)
        assert_ensemble_equals(stratified_bootstrap(ds, k=WORKER_K, seed=5), reference)


@pytest.mark.parametrize("chunk", ["default", 7])
@pytest.mark.parametrize("block", ["row", "uneven", "default"])
@pytest.mark.parametrize("p", [2, 3, 16])
def test_permutation_matches_per_replicate_reference_in_row_blocks(monkeypatch, p, block, chunk):
    ds = unequal_dataset(p)
    monkeypatch.setattr(inference, "_CHUNK_VALUES", chunk_values(chunk, ds))
    use_blocks(monkeypatch, block, ds, chunk)
    reference = reference_permutation_means(ds, WORKER_K, 3)
    for workers in (1, 3):
        use_workers(monkeypatch, workers)
        np.testing.assert_array_equal(permutation_means(ds, WORKER_K, 3), reference)
        # the certified pass leaves the largest group, C, unsummed
        skipped = permutation_means(ds, WORKER_K, 3, skip=2)
        np.testing.assert_array_equal(skipped[:2], reference[:2])


def test_a_pass_depends_on_its_key_rows_alone(monkeypatch):
    # each worker's generator is re-keyed before its first draw, so
    # neither its own key nor a pending 32-bit half reaches a replicate
    ds = unequal_dataset(3)
    monkeypatch.setattr(inference, "_CHUNK_VALUES", chunk_values(7, ds))
    ens = stratified_bootstrap(ds, k=WORKER_K, seed=5)
    reference = {name: getattr(ens, name) for name in ("tau", "gamma", "u", "v")}
    means = permutation_means(ds, WORKER_K, 3)
    skipped = permutation_means(ds, WORKER_K, 3, skip=2)
    calls = []

    def other_generator(*args):
        calls.append(args)
        bitgen = np.random.Philox(key=[0x0123456789ABCDEF, 0xFEDCBA9876543210])
        state = bitgen.state
        state["has_uint32"], state["uinteger"] = 1, 0xDEADBEEF
        bitgen.state = state
        return np.random.Generator(bitgen)

    monkeypatch.setattr(inference, "stream_generator", other_generator)
    for workers in (1, 2):
        use_workers(monkeypatch, workers)
        calls.clear()
        assert_ensemble_equals(stratified_bootstrap(ds, k=WORKER_K, seed=5), reference)
        np.testing.assert_array_equal(permutation_means(ds, WORKER_K, 3), means)
        np.testing.assert_array_equal(permutation_means(ds, WORKER_K, 3, skip=2)[:2], skipped[:2])
        assert len(calls) == 3 * workers


def test_resampling_worker_error_propagates(iris_ds, monkeypatch):
    monkeypatch.setattr(inference, "_CHUNK_VALUES", chunk_values(4, iris_ds))
    use_workers(monkeypatch, 2)
    sizes = list(iris_ds.n_per_group().values())
    feats = [iris_ds.group_features(g) for g in inference.GROUPS]

    def draw(rng, keys, out, words):
        if threading.current_thread() is not threading.main_thread():
            raise RuntimeError("draw failed in a worker")
        sampling.bootstrap_indices(rng, keys, sizes, out, words)

    keys = sampling.stream_keys(1, DOMAIN_BOOTSTRAP, 40)
    with pytest.raises(RuntimeError, match="draw failed in a worker"):
        inference._resampled_means(iris_ds, feats, keys, draw, words=(iris_ds.n + 1) // 2)


def test_resampling_more_workers_than_cores_with_fast_switching(monkeypatch):
    # 8 workers write interleaved two-replicate slices of one means
    # array, switching threads every microsecond: a lost or misplaced
    # write changes a replicate
    ds = unequal_dataset(3)
    reference = reference_bootstrap(ds, 301, 7)
    monkeypatch.setattr(inference, "_CHUNK_VALUES", chunk_values(16, ds))
    use_workers(monkeypatch, 8)
    calls = count_generators(monkeypatch)
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        ens = stratified_bootstrap(ds, k=301, seed=7)
    finally:
        sys.setswitchinterval(interval)
    assert len(calls) == 8
    assert_ensemble_equals(ens, reference)


def test_single_chunk_starts_no_thread(iris_ds, monkeypatch):
    def no_pool(*args, **kwargs):
        raise AssertionError("a thread pool was created")

    monkeypatch.setattr(concurrent.futures, "ThreadPoolExecutor", no_pool)
    use_workers(monkeypatch, 4)
    # one chunk holds every replicate: analyze-iris's K = 1000 and 500
    stratified_bootstrap(iris_ds, k=1000, seed=1)
    permutation_test(iris_ds, k=500, seed=1)
    # with two chunks the pool is needed, so the stub above is in use
    monkeypatch.setattr(inference, "_CHUNK_VALUES", chunk_values(500, iris_ds))
    with pytest.raises(AssertionError, match="thread pool"):
        stratified_bootstrap(iris_ds, k=1000, seed=1)


def count_redrawn_rows(monkeypatch):
    redrawn = []
    integers_rows = sampling._integers_rows

    def spy(rng, keys, sizes):
        redrawn.append(len(keys))
        return integers_rows(rng, keys, sizes)

    monkeypatch.setattr(sampling, "_integers_rows", spy)
    return redrawn


@pytest.mark.parametrize("seed, rejected", [(1, 16), (3, 22), (7, 25)])
def test_bootstrap_redraws_rows_with_a_rejected_draw(monkeypatch, seed, rejected):
    # bound 20000 rejects a 32-bit half with probability 7296 / 2**32, so
    # about one replicate in ten of 60000 draws takes numpy's own path
    ds = make_dataset(np.random.default_rng(5), n=20000, p=1)
    redrawn = count_redrawn_rows(monkeypatch)
    ens = stratified_bootstrap(ds, k=200, seed=seed)
    assert sum(redrawn) == rejected
    assert_ensemble_equals(ens, reference_bootstrap(ds, 200, seed))


def test_bootstrap_all_rows_redrawn_is_bit_identical(iris_ds, monkeypatch):
    vectorised = stratified_bootstrap(iris_ds, k=300, seed=12)
    lemire_bounded = sampling.lemire_bounded

    def reject_all(words, bounds, out):
        draws, rejected = lemire_bounded(words, bounds, out)
        return draws, np.ones_like(rejected)

    monkeypatch.setattr(sampling, "lemire_bounded", reject_all)
    redrawn = count_redrawn_rows(monkeypatch)
    redone = stratified_bootstrap(iris_ds, k=300, seed=12)
    assert sum(redrawn) == 300
    assert_ensemble_equals(redone, vars(vectorised))


def in_fresh_thread(call):
    # call() on a new thread, whose kept resampling arrays start empty
    with concurrent.futures.ThreadPoolExecutor(1) as pool:
        return pool.submit(call).result(timeout=300)


def assert_memory_stays_bounded(monkeypatch, resample, inputs, draw_values):
    # 3 groups of 2000 rows and 8 features, on 1 and then 2 workers; a
    # replicate's draw holds draw_values(n) values at its peak.  Each
    # pass runs on a fresh thread, so the arrays its calling thread keeps
    # are allocated, and counted, inside it
    ds = make_dataset(np.random.default_rng(12), n=2000, p=8)
    calls = count_generators(monkeypatch)
    for workers in (1, 2):
        use_workers(monkeypatch, workers)
        tracemalloc.start()
        try:
            in_fresh_thread(lambda: resample(ds, k=400, seed=0))
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        # the whole (K, n, p) gather of one group alone would be 49 MiB
        assert peak < 32 * 2**20
        # each worker holds the draw of one chunk of step replicates and
        # one gather block, beside the inputs; the slack for keys, means
        # and statistics is half a chunk's index matrix, so a worker that
        # still holds its previous chunk's indices while it draws the next
        # goes over, and so do full-size chunks on two workers
        step = inference._CHUNK_VALUES // workers // inference._replicate_values(ds.n, ds.p)
        chunk = workers * step * 8
        ceiling = (
            inputs(ds)
            + workers * inference._BLOCK_VALUES * 8
            + chunk * draw_values(ds.n)
            + chunk * ds.n // 2
        )
        assert peak < ceiling, (workers, peak / 2**20, ceiling / 2**20)
    assert len(calls) == 1 + 2


def test_bootstrap_memory_stays_bounded(monkeypatch):
    # per-group copies of the features; words of two 32-bit draws each,
    # and the 64-bit draws Lemire's rule makes of them
    assert_memory_stays_bounded(
        monkeypatch, stratified_bootstrap,
        lambda ds: ds.features.nbytes, lambda n: (n + 1) // 2 + n,
    )


def test_permutation_memory_stays_bounded(monkeypatch):
    # the features themselves; one index row, shuffled in place
    assert_memory_stays_bounded(monkeypatch, permutation_test, lambda ds: 0, lambda n: n)


def warm_peak(resample) -> int:
    # the traced peak of a second identical pass on one thread
    resample()
    tracemalloc.start()
    try:
        resample()
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def test_a_warm_pass_allocates_no_chunk_sized_array():
    # n = 100 per group, p = 2, K = 500: one chunk, whose (m, N) int64
    # index matrix alone is 1,172 KiB; a warm pass draws into the arrays
    # its thread kept from the first
    ds = make_dataset(np.random.default_rng(3), n=100, p=2)
    keys = sampling.stream_keys(4, DOMAIN_PERMUTATION, 500)
    index_bytes = 500 * ds.n * 8
    peaks = in_fresh_thread(lambda: [
        warm_peak(lambda: stratified_bootstrap(ds, k=500, seed=4)),
        warm_peak(lambda: inference._permutation_means(ds, keys)),
    ])
    assert max(peaks) < index_bytes, [peak / 1024 for peak in peaks]


@pytest.mark.parametrize("workers", [1, 2])
def test_kept_arrays_do_not_grow_with_k(monkeypatch, workers):
    # three groups of 2000 rows: a chunk's index matrix, draw words and
    # gather block, whatever K is
    ds = make_dataset(np.random.default_rng(12), n=2000, p=8)
    use_workers(monkeypatch, workers)

    def kept_bytes(k):
        stratified_bootstrap(ds, k=k, seed=0)
        return inference._WORKSPACE.buffer.nbytes

    small, large = in_fresh_thread(lambda: [kept_bytes(400), kept_bytes(4000)])
    assert small == large <= 8 * (inference._CHUNK_VALUES + inference._BLOCK_VALUES)


def ensemble_stats(ens) -> np.ndarray:
    return np.stack([ens.tau, ens.gamma, ens.u, ens.v])


def test_kept_arrays_never_leak_stale_indices(monkeypatch):
    # one thread runs passes big, small, big, with N, p and K all
    # different, bootstrap and exact permutation kernel interleaved, each
    # on 1 and on 2 workers; every result has the bits of the same call
    # made first on a fresh thread
    rng = np.random.default_rng(21)
    passes = [
        (make_dataset(rng, n=400, p=3), 600),
        (unequal_dataset(2), WORKER_K),
        (make_dataset(rng, n=300, p=5), 500),
    ]
    calls = [
        lambda ds, k: ensemble_stats(stratified_bootstrap(ds, k=k, seed=6)),
        lambda ds, k: permutation_means(ds, k, 7),
        lambda ds, k: permutation_means(ds, k, 8, skip=1)[[0, 2]],
    ]
    runs = [
        (workers, call, ds, k)
        for ds, k in passes
        for call in calls
        for workers in (1, 2)
    ]

    def results():
        out = []
        for workers, call, ds, k in runs:
            use_workers(monkeypatch, workers)
            out.append(call(ds, k))
        return out

    for (workers, call, ds, k), got in zip(runs, in_fresh_thread(results)):
        use_workers(monkeypatch, workers)
        np.testing.assert_array_equal(got, in_fresh_thread(lambda: call(ds, k)))


@pytest.mark.skipif(not sys.platform.startswith("linux"), reason="counts Linux's minor faults")
def test_a_warm_simulation_resamples_in_kept_pages(monkeypatch):
    # the minor faults inside the five K = 500 bootstraps of a second
    # coverage_simulation call, n = 100 per group: fewer than the pages of
    # one chunk's index matrix.  Freed after each pass, the chunk arrays
    # came back from a trimmed heap, about 375 faults per bootstrap.  The
    # depth passes between them are left out: how often their temporaries
    # fault depends on glibc's heap thresholds, so on what the process ran
    # before
    import resource

    faults = []
    bootstrap = inference.stratified_bootstrap

    def counting(*args, **kwargs):
        before = resource.getrusage(resource.RUSAGE_SELF).ru_minflt
        try:
            return bootstrap(*args, **kwargs)
        finally:
            faults.append(resource.getrusage(resource.RUSAGE_SELF).ru_minflt - before)

    monkeypatch.setattr(inference, "stratified_bootstrap", counting)
    for _ in range(2):
        faults.clear()
        coverage_simulation(
            r=0.5, phi=math.pi / 3, p=2, n_per_group=100, sigma2=1.0, n_sims=5, k=500, seed=1
        )
    assert len(faults) == 5
    assert sum(faults) < 500 * 300 * 8 // 4096, faults


def test_bootstrap_internal_consistency(iris_ds):
    ens = stratified_bootstrap(iris_ds, k=500, seed=1)
    valid = ens.valid_mask()
    assert valid.all()
    assert np.all(ens.u**2 + ens.v**2 <= 1.0 + 1e-9)


def test_centroid_shape_stats_identities(iris_ds):
    # the kernel on 500 bootstrap replicates' group means
    stats = reference_bootstrap(iris_ds, 500, 1)
    np.testing.assert_allclose(stats["tau"], 3.0 * stats["b2"] - 1.0, atol=1e-9)
    np.testing.assert_allclose(stats["a2"] + stats["b2"] + stats["c2"], 1.0, atol=1e-12)
    np.testing.assert_allclose(stats["u"], 1.0 - 3.0 * stats["a2"], atol=1e-12)


def test_bootstrap_rescaling_invariance_with_feature_mode(iris_ds):
    scaled = GroupedDataset(
        features=iris_ds.features * np.array([3.0, 1.0, 1.0, 0.2]),
        labels=iris_ds.labels,
        feature_names=iris_ds.feature_names,
    )
    a = stratified_bootstrap(standardize(iris_ds, "feature"), k=100, seed=5)
    b = stratified_bootstrap(standardize(scaled, "feature"), k=100, seed=5)
    np.testing.assert_allclose(a.tau, b.tau, atol=1e-9)
    np.testing.assert_allclose(a.gamma, b.gamma, atol=1e-9)


def test_bootstrap_counts_degenerate_replicates():
    feats = np.array([[1.0, 1.0]] * 6)
    ds = GroupedDataset(features=feats, labels=np.array(list("AABBCC")))
    ens = stratified_bootstrap(ds, k=50, seed=0)
    assert ens.n_degenerate == 50
    assert not ens.valid_mask().any()


# ---------------------------------------------------------------------------
# percentile CI


def test_percentile_ci_golden_rule():
    lo, hi = percentile_ci(np.arange(1.0, 101.0), 0.9)
    assert abs(lo - 5.95) <= 1e-12
    assert abs(hi - 95.05) <= 1e-12
    assert abs(lo - quantile_type7(np.arange(1.0, 101.0), 0.05)) <= 1e-12
    assert abs(hi - quantile_type7(np.arange(1.0, 101.0), 0.95)) <= 1e-12


def test_percentile_ci_constant_and_symmetry():
    lo, hi = percentile_ci([3.3] * 10, 0.95)
    assert lo == hi == 3.3
    vals = np.linspace(-2, 2, 41)
    lo, hi = percentile_ci(vals, 0.5)
    assert abs((lo + hi) / 2.0 - np.median(vals)) <= 1e-12


def test_percentile_ci_errors():
    with pytest.raises(InsufficientDataError):
        percentile_ci([1.0, math.nan], 0.9)
    with pytest.raises(ValueError):
        percentile_ci([1.0, 2.0], 1.5)


def test_ci_nesting(iris_ds):
    ens = stratified_bootstrap(iris_ds, k=2000, seed=2)
    lo80, hi80 = percentile_ci(ens.tau, 0.80)
    lo95, hi95 = percentile_ci(ens.tau, 0.95)
    assert lo95 <= lo80 <= hi80 <= hi95


# ---------------------------------------------------------------------------
# confidence regions


def test_confidence_region_member_fraction(iris_ds):
    ens = stratified_bootstrap(iris_ds, k=2000, seed=3)
    cr = confidence_region(ens, 0.95)
    frac = cr.member_points.shape[0] / 2000
    assert 0.95 <= frac < 0.96


def test_confidence_region_hull_contains_members(iris_ds):
    ens = stratified_bootstrap(iris_ds, k=500, seed=6)
    cr = confidence_region(ens, 0.8)
    # the area is the members' hull's, and every member point lies inside
    # (or on) that hull: check via support function
    from scipy.spatial import ConvexHull

    qhull = ConvexHull(cr.member_points)
    assert cr.area == qhull.volume
    hull = cr.member_points[qhull.vertices]
    centroid = hull.mean(axis=0)
    for edge_start, edge_end in zip(hull, np.roll(hull, -1, axis=0)):
        edge = edge_end - edge_start
        normal = np.array([-edge[1], edge[0]])
        side_centroid = np.sign(normal @ (centroid - edge_start))
        proj = (cr.member_points - edge_start) @ normal * side_centroid
        assert np.all(proj >= -1e-12)


def test_confidence_region_needs_three_valid_replicates():
    degenerate = GroupedDataset(
        features=np.ones((6, 2)), labels=np.array(list("AABBCC"))
    )
    with pytest.raises(InsufficientReplicatesError):
        confidence_region(stratified_bootstrap(degenerate, k=20, seed=0), 0.9)


def test_confidence_region_does_not_warn_when_coarse():
    # 50 replicates make a coarse region; saying so is left to the command
    feats = np.vstack([np.random.default_rng(7).normal(size=(4, 2)) + off
                       for off in ([0, 0], [1, 0], [0, 1])])
    ds = GroupedDataset(features=feats, labels=np.repeat(list("ABC"), 4))
    ens = stratified_bootstrap(ds, k=50, seed=0)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        cr = confidence_region(ens, 0.9)
    assert cr.member_points.shape[0] >= 45


def test_run_analysis_warns_once_for_coarse_regions(iris_ds):
    with warnings.catch_warnings(record=True) as record:
        warnings.simplefilter("always")
        report, _ = run_analysis(iris_config(boot_k=50, levels=(0.8, 0.95)), iris_ds)
    assert [str(w.message) for w in record] == [
        "only 50 valid replicates; the confidence region is coarse"
    ]
    assert record[0].category is UserWarning and record[0].filename == __file__
    assert list(report["regions"]) == ["0.8", "0.95"]


def test_confidence_region_narrow_band_near_degenerate_observed():
    from conftest import iris_config
    from ibistat.report import load_csv

    ds = load_csv(iris_config().input_path,
                  iris_config(("sepal_length", "petal_width")))
    ens = stratified_bootstrap(standardize(ds, "feature"), k=2000, seed=0)
    cr = confidence_region(ens, 0.95)
    radii = np.hypot(cr.member_points[:, 0], cr.member_points[:, 1])
    # narrow band along the boundary: every member close to r = 1, the
    # overwhelming majority extremely close
    assert np.all(radii > 0.97)
    assert np.mean(radii > 0.99) > 0.95


def reference_threshold(depths, level):
    """The largest depth whose upper level set holds >= level of the
    points, found by counting the points at or above each distinct depth."""
    ascending = np.sort(depths)
    candidates = np.unique(depths)[::-1]
    counts = depths.size - np.searchsorted(ascending, candidates, side="left")
    return float(candidates[np.argmax(counts >= level * depths.size)])


def ensemble_of(points):
    u, v = np.asarray(points, dtype=float).T
    nan = np.full(u.size, np.nan)
    return inference.BootstrapEnsemble(
        tau=u.copy(), gamma=nan, u=u, v=v, seed=0
    )


@pytest.mark.parametrize("cloud", ["grid", "grid-dense", "random", "three"])
def test_confidence_region_threshold_matches_counting_rule(cloud):
    rng = np.random.default_rng(17)
    points = {
        # integer grids: few distinct depths, each shared by many points
        "grid": rng.integers(0, 3, size=(40, 2)),
        "grid-dense": rng.integers(0, 2, size=(100, 2)),
        "random": rng.normal(size=(57, 2)),
        "three": [[0.0, 0.0], [1.0, 0.0], [0.0, 1.0]],
    }[cloud]
    ens = ensemble_of(points)
    depths = cloud_depths(ens)
    # in floats, 0.07 * 100 and 0.14 * 100 land just above an integer,
    # 0.29 * 100 and 0.57 * 100 just below
    levels = list(np.linspace(0.01, 0.99, 99)) + [0.07, 0.14, 0.29, 0.57, 0.7, 1 / 3, 2 / 3]
    for level in levels:
        cr = confidence_region(ens, level)
        expected = reference_threshold(depths, level)
        assert cr.depth_threshold == expected, level
        np.testing.assert_array_equal(cr.member_indices, np.flatnonzero(depths >= expected))


REGION_LEVELS = (0.5, 0.8, 0.95, 0.99)


@pytest.mark.parametrize("features, seed", [
    ((), 0), ((), 1), ((), 9),
    (("sepal_length", "sepal_width"), 2),
    # p = 1: every shape lies on the unit circle, so no point is interior
    (("petal_length",), 3),
])
def test_region_matches_full_kernel_on_iris(features, seed):
    from ibistat.datasets import iris_csv_path
    from ibistat.report import load_csv

    ds = standardize(load_csv(iris_csv_path(), iris_config(features=features)), "feature")
    ens = stratified_bootstrap(ds, k=1000, seed=seed)
    assert_region_matches_full_kernel(ens, REGION_LEVELS)


def test_region_matches_full_kernel_on_tiny_groups_and_few_replicates(iris_ds):
    # groups of 2 or 3 rows give many duplicate replicates
    for rows, seed in ((2, 0), (3, 1), (2, 2), (3, 3)):
        idx = np.concatenate([iris_ds.group_indices(g)[:rows] for g in "ABC"])
        ds = GroupedDataset(features=iris_ds.features[idx], labels=iris_ds.labels[idx])
        ens = stratified_bootstrap(ds, k=400, seed=seed)
        assert_region_matches_full_kernel(ens, REGION_LEVELS)
    for k in range(3, 11):
        ens = stratified_bootstrap(iris_ds, k=k, seed=k)
        assert_region_matches_full_kernel(ens, REGION_LEVELS)


def test_region_matches_full_kernel_on_synthetic_clouds():
    rng = np.random.default_rng(23)
    for _ in range(12):
        k = int(rng.integers(3, 400))
        span = int(rng.integers(1, 7))
        angle = rng.uniform(0.0, 2.0 * np.pi, size=k)
        # inside the unit disk; dividing by 16 keeps grids exact
        for points in (
            rng.integers(-span, span + 1, size=(k, 2)) / 16,
            np.outer(rng.integers(-span, span + 1, size=k), [1.0, 2.0]) / 16,
            0.9 * np.column_stack([np.cos(angle), np.sin(angle)]),
            0.2 * rng.normal(size=(span + 2, 2))[rng.integers(0, span + 2, size=k)],
        ):
            ens = ensemble_of(points)
            assert_region_matches_full_kernel(ens, REGION_LEVELS)


@pytest.mark.parametrize("seed", [629, 2012, 2084])
def test_deepest_member_is_first_of_ties_even_with_a_tight_bound(seed):
    # copies of a few points, where the first deepest point has an upper
    # bound equal to its depth
    rng = np.random.default_rng(seed)
    k, span = int(rng.integers(3, 80)), int(rng.integers(1, 4))
    ens = ensemble_of(0.2 * rng.normal(size=(span + 2, 2))[rng.integers(0, span + 2, size=k)])
    # before any region has computed a depth
    assert np.argmax(ens._region_depths.region(1)[1]) == np.argmax(cloud_depths(ens))
    assert_region_matches_full_kernel(ens, REGION_LEVELS)


def reference_hull_area(points):
    from scipy.spatial import ConvexHull, QhullError

    if np.unique(points, axis=0).shape[0] < 3:
        return 0.0
    try:
        return float(ConvexHull(points).volume)
    except QhullError:
        return 0.0


@pytest.mark.parametrize("points", [
    [[0.3, 0.1]],
    [[0.3, 0.1], [-0.2, 0.4]],
    [[0.3, 0.1], [0.3, 0.1]],
    [[0.3, 0.1]] * 5,
    [[0.3, 0.1], [-0.2, 0.4], [0.3, 0.1], [-0.2, 0.4], [-0.2, 0.4]],
    [[0.0, 0.0], [0.2, 0.1], [0.4, 0.2], [-0.2, -0.1]],
    [[0.4, 0.2], [0.0, 0.0], [0.2, 0.1], [0.2, 0.1], [0.0, 0.0]],
    [[0.0, 0.0], [0.5, 0.0], [0.0, 0.5], [0.1, 0.1], [0.5, 0.0]],
], ids=["one", "two", "two-copies", "five-copies", "copies-of-two",
        "collinear", "collinear-copies", "triangle"])
def test_hull_area_matches_rule_that_checks_distinct_points_first(points):
    points = np.array(points)
    area = inference._hull_area(points)
    assert type(area) is float
    assert area == reference_hull_area(points)


def test_region_summary_extremes(iris_ds):
    ens = stratified_bootstrap(iris_ds, k=2000, seed=8)
    cr = confidence_region(ens, 0.95)
    summary = region_summary(ens, cr)
    assert summary["max_tau"]["tau"] >= 0.93
    assert summary["min_tau"]["tau"] <= 0.88
    assert summary["min_tau"]["tau"] <= summary["median"]["tau"] <= summary["max_tau"]["tau"]
    # summaries are region members
    assert summary["median"]["replicate"] in cr.member_indices
    # deepest point and tie-break by smallest replicate index
    first_best = np.flatnonzero(ens.valid_mask())[np.argmax(cloud_depths(ens))]
    assert summary["median"]["replicate"] == first_best


def test_readme_library_use_block_runs(iris_ds):
    readme = (Path(__file__).parents[1] / "README.md").read_text(encoding="utf-8")
    block = re.search(r"## Library use\n\n```python\n(.*?)```", readme, re.S).group(1)
    namespace = {"X": iris_ds.features, "labels": iris_ds.labels}
    exec(block, namespace)
    assert list(namespace["summary"]) == ["median", "max_tau", "min_tau"]
    for record in namespace["summary"].values():
        assert list(record) == ["u", "v", "tau", "a2", "b2", "c2", "replicate"]


def test_region_summary_single_member(iris_ds):
    # of 200 valid replicates, a level of 0.004 keeps only the deepest one
    ens = stratified_bootstrap(iris_ds, k=200, seed=0)
    cr = confidence_region(ens, 0.004)
    assert cr.member_indices.size == 1 and cr.area == 0.0
    summary = region_summary(ens, cr)
    assert {r["replicate"] for r in summary.values()} == {cr.member_indices[0]}
    assert summary["median"] == summary["max_tau"] == summary["min_tau"]


def test_confidence_region_searches_its_own_level_only(monkeypatch, iris_ds):
    # the deepest replicate is region_summary's to find, not every region's
    calls = []
    search = inference._RegionDepths.region

    def counted(self, count):
        calls.append(count)
        return search(self, count)

    monkeypatch.setattr(inference._RegionDepths, "region", counted)
    ens = stratified_bootstrap(iris_ds, k=300, seed=4)
    cr = confidence_region(ens, 0.8)
    assert calls == [math.ceil(0.8 * 300)]
    region_summary(ens, cr)
    assert calls == [math.ceil(0.8 * 300), 1]


# ---------------------------------------------------------------------------
# permutation test


def test_permutation_null_uniformity():
    hits = 0
    n_sets = 200
    for s in range(n_sets):
        rng = stream_generator(1000, s)
        ds = make_dataset(rng, n=12, p=2)
        p = permutation_test(ds, k=199, seed=s)["p_tau"]
        hits += p < 0.1
    assert 0.05 <= hits / n_sets <= 0.16


def test_permutation_separated_clusters_tiny_p():
    # widely separated collinear clusters: label mixtures can still form
    # in-between centroid triangles (the permuted means stay near the same
    # line), so the exact floor 1/(K+1) is not guaranteed under the
    # two-sided rule; the p-value must still be decisively small
    rng = np.random.default_rng(40)
    offsets = np.array([[0.0, 0.0], [10.0, 0.0], [20.0, 0.0]])
    ds = make_dataset(rng, n=20, offsets=offsets, spread=0.5)
    result = permutation_test(ds, k=1000, seed=0)
    assert 1.0 / 1001.0 <= result["p_tau"] <= 0.01


@pytest.mark.xfail(strict=True, reason="at p = 1 rounding decides |gamma| >= |observed|")
def test_permutation_p_gamma_is_one_at_p_equal_1():
    # gamma is +-1 on every relabelling in exact arithmetic, so each one
    # reaches the observed |gamma|; the computed p_gamma is 0.6367
    from ibistat.datasets import iris_csv_path
    from ibistat.report import load_csv

    ds = standardize(load_csv(iris_csv_path(), iris_config(features=("petal_length",))), "feature")
    assert permutation_test(ds, k=5000, seed=1)["p_gamma"] == 1.0


def test_permutation_deterministic(iris_ds):
    a = permutation_test(iris_ds, k=300, seed=11)
    b = permutation_test(iris_ds, k=300, seed=11)
    assert a == b
    assert 0.0 < a["p_tau"] <= 1.0
    assert 0.0 < a["p_gamma"] <= 1.0


def certificate_dataset(name, iris_ds):
    # the certified p-values' test grid: continuous data, ties, a large
    # common offset, near-duplicate groups and an undefined observed gamma
    rng = np.random.default_rng(sum(map(ord, name)))
    labels = rng.permutation(np.repeat(np.array(["A", "B", "C"]), (30, 20, 40)))
    if name.startswith("iris-"):
        return standardize(iris_ds, name[5:])
    if name.startswith("unequal-p"):
        return unequal_dataset(int(name[9:]), sizes=(61, 37, 86))
    if name == "null":
        return GroupedDataset(features=rng.normal(size=(300, 3)), labels=np.repeat(list("ABC"), 100))
    if name in ("integers", "binary"):
        values = rng.integers(0, 3 if name == "integers" else 2, size=(90, 2))
        return GroupedDataset(features=values.astype(float), labels=labels)
    if name == "offset":
        return GroupedDataset(features=1e6 + 1e-3 * rng.normal(size=(90, 2)), labels=labels)
    if name == "duplicated-rows":
        # 24 rows drawn from 6, plus an offset: many relabellings give
        # the observed statistics again, some to the last bit
        pool = rng.integers(0, 3, size=(6, 2)).astype(float)
        labels = rng.permutation(np.repeat(np.array(["A", "B", "C"]), (6, 12, 6)))
        return GroupedDataset(features=pool[rng.integers(6, size=24)] + 1e6, labels=labels)
    if name == "huge":
        # near standardize's limit on |x|, where the bound overflows and
        # every permutation goes through the exact kernel
        limit = math.sqrt(np.finfo(float).max / 36)
        return GroupedDataset(features=rng.uniform(-0.99, 0.99, size=(90, 3)) * limit, labels=labels)
    base = rng.normal(size=(30, 3))
    if name == "near-duplicate":
        groups = [base, base + 1e-9 * rng.normal(size=base.shape), base + 1e-9 * rng.normal(size=base.shape)]
    else:  # "gamma-undefined": B's rows are C's, so their centroids coincide
        other = rng.normal(size=(30, 3))
        groups = [base, other, other]
    return GroupedDataset(features=np.vstack(groups), labels=np.repeat(list("ABC"), 30))


CERTIFICATE_CASES = [
    "iris-none", "iris-feature", "iris-whiten", "unequal-p1", "unequal-p2", "unequal-p3",
    "unequal-p16", "null", "integers", "binary", "offset", "duplicated-rows",
    "near-duplicate", "huge", "gamma-undefined",
]


@pytest.mark.parametrize("name", CERTIFICATE_CASES)
def test_certified_pvalues_equal_the_exact_reference(monkeypatch, iris_ds, name):
    ds = certificate_dataset(name, iris_ds)
    exact, certified = count_exact_permutations(monkeypatch)
    result = permutation_test(ds, k=299, seed=3)
    assert result == reference_permutation_pvalues(ds, 299, 3)
    if ds.p == 1:
        # no bound decides gamma = +-1, so no certified pass runs
        assert certified == [] and exact == [299]
    if name == "huge":
        # a bound that overflowed decides nothing
        assert certified == [299] and exact == [299]
    if name == "gamma-undefined":
        assert math.isnan(observed_ibi(ds, mode="none").gamma)
        assert result["p_gamma"] == 1.0


def test_no_permutation_is_undecided_on_continuous_data(monkeypatch):
    rng = np.random.default_rng(21)
    ds = GroupedDataset(features=rng.normal(size=(600, 8)), labels=np.repeat(list("ABC"), 200))
    exact, certified = count_exact_permutations(monkeypatch)
    result = permutation_test(ds, k=999, seed=2)
    assert certified == [999] and exact == []
    assert result == reference_permutation_pvalues(ds, 999, 2)


def test_tied_integer_data_sends_some_permutations_to_the_exact_kernel(monkeypatch):
    # permutations of {0, 1} features repeat the observed triangle's
    # statistics exactly, within any bound of them
    rng = np.random.default_rng(22)
    labels = rng.permutation(np.repeat(np.array(["A", "B", "C"]), (30, 20, 40)))
    ds = GroupedDataset(features=rng.integers(0, 2, size=(90, 2)).astype(float), labels=labels)
    exact, _ = count_exact_permutations(monkeypatch)
    result = permutation_test(ds, k=999, seed=3)
    assert len(exact) == 1 and 0 < exact[0] < 999, exact
    assert result == reference_permutation_pvalues(ds, 999, 3)


def test_an_infinite_bound_sends_every_permutation_to_the_exact_kernel(monkeypatch, iris_ds):
    certified = permutation_test(iris_ds, k=300, seed=6)
    monkeypatch.setattr(inference, "_derived_mean_error", lambda *args: math.inf)
    exact, _ = count_exact_permutations(monkeypatch)
    assert permutation_test(iris_ds, k=300, seed=6) == certified
    assert exact == [300]
    assert certified == reference_permutation_pvalues(iris_ds, 300, 6)


# ---------------------------------------------------------------------------
# coverage simulation


def test_coverage_simulation_smoke_and_vanishing_noise():
    result = coverage_simulation(
        r=0.5, phi=math.pi / 3, p=2, n_per_group=40, sigma2=1e-6,
        n_sims=20, k=150, seed=0,
    )
    assert result["ci_length"] < 0.01
    assert result["cr_area"] < 1e-3
    assert result["ci_coverage"] >= 0.8


def test_coverage_simulation_warns_once_for_coarse_regions():
    with pytest.warns(UserWarning) as record:
        coverage_simulation(
            r=0.5, phi=1.0, p=2, n_per_group=15, sigma2=1.0,
            n_sims=3, k=40, seed=1,
        )
    assert len(record) == 1
    assert "3 of 3 simulated datasets" in str(record[0].message)
    assert record[0].filename == __file__


def test_coverage_simulation_validation():
    with pytest.raises(ValueError):
        coverage_simulation(0.5, 1.0, 1, 10, 1.0, 5, 50, 0)
    with pytest.raises(ValueError, match="seed"):
        coverage_simulation(0.5, 1.0, 2, 10, 1.0, 5, 50, -1)


def test_one_dimensional_features_end_to_end():
    # every triangle from scalar features is collinear: the pipeline must
    # still run, with the shape pinned to the disk boundary
    rng = np.random.default_rng(50)
    feats = np.concatenate([
        0.0 + 0.1 * rng.normal(size=30),
        1.0 + 0.1 * rng.normal(size=30),
        3.0 + 0.1 * rng.normal(size=30),
    ]).reshape(-1, 1)
    ds = GroupedDataset(features=feats, labels=np.repeat(list("ABC"), 30))
    pair = observed_ibi(ds, mode="none")
    assert -1.0 <= pair.tau <= 1.0
    ens = stratified_bootstrap(ds, k=200, seed=0)
    assert ens.valid_mask().all()
    np.testing.assert_allclose(np.hypot(ens.u, ens.v), 1.0, atol=1e-9)
