import concurrent.futures
import math
import sys
import threading
import tracemalloc

import numpy as np
import pytest

from ibistat import inference, sampling
from ibistat import (
    GroupedDataset,
    InsufficientDataError,
    InsufficientReplicatesError,
    SingularCovarianceError,
    centroid_configuration,
    confidence_region,
    coverage_simulation,
    observed_ibi,
    percentile_ci,
    permutation_test,
    region_summary,
    standardize,
    stratified_bootstrap,
    stream_generator,
)
from ibistat.sampling import DOMAIN_BOOTSTRAP, DOMAIN_PERMUTATION
from ibistat.shape import _centroid_shape_stats
from _oracles import assert_region_matches_full_kernel, cloud_depths, quantile_type7
from conftest import iris_config


def make_dataset(rng, n=30, p=2, spread=1.0, offsets=None):
    offsets = offsets if offsets is not None else np.zeros((3, p))
    feats = np.vstack([offsets[g] + spread * rng.normal(size=(n, p)) for g in range(3)])
    labels = np.repeat(np.array(["A", "B", "C"]), n)
    return GroupedDataset(features=feats, labels=labels)


# ---------------------------------------------------------------------------
# standardize


def test_dataset_from_observations():
    ds = GroupedDataset.from_observations(
        [("A", [0.0, 1.0]), ("A", [1.0, 0.0]), ("B", [2.0, 2.0]),
         ("B", [3.0, 3.0]), ("C", [5.0, 1.0]), ("C", [4.0, 0.0])],
        feature_names=("x", "y"),
    )
    assert ds.n == 6 and ds.p == 2
    np.testing.assert_array_equal(ds.group_indices("B"), [2, 3])
    with pytest.raises(ValueError):
        GroupedDataset.from_observations([("A", [0.0]), ("B", [1.0]), ("D", [2.0])])


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
    huge = GroupedDataset.from_observations(
        [("A", [1e308, 1.0]), ("A", [-1e308, 2.0]), ("B", [1.0, 3.0]),
         ("B", [2.0, 1.0]), ("C", [3.0, 5.0]), ("C", [4.0, 2.0])],
        feature_names=("x", "y"),
    )
    with pytest.raises(SingularCovarianceError, match=r"non-finite variance: \['x'\]"):
        standardize(huge, "feature")
    with pytest.raises(SingularCovarianceError, match="ill-conditioned"):
        standardize(huge, "whiten")


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


def test_observed_ibi_gamma_undefined_when_b_meets_a():
    # means A = B = (1, 0), C = (6, 5): side c vanishes, so a2 = b2 = 1/2
    feats = np.array([[0.0, 0.0], [2.0, 0.0], [1.0, 1.0], [1.0, -1.0], [5.0, 5.0], [7.0, 5.0]])
    ds = GroupedDataset(features=feats, labels=np.array(list("AABBCC")))
    pair = observed_ibi(ds, mode="none")
    assert math.isnan(pair.gamma)
    assert abs(pair.tau - 0.5) <= 1e-12


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
    stats = _centroid_shape_stats(*(row[None, :] for row in cfg.landmarks))
    obs = observed_ibi(iris_ds, mode="feature")
    assert abs(stats["tau"][0] - obs.tau) <= 1e-12
    assert abs(stats["gamma"][0] - obs.gamma) <= 1e-12


def use_workers(monkeypatch, workers):
    # the resampling kernel runs min(workers, chunks, replicates per
    # full-size chunk) workers
    monkeypatch.setattr(inference, "_usable_cpus", lambda: workers)


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
    monkeypatch.setattr(inference, "_CHUNK_VALUES", 4 * iris_ds.n * (iris_ds.p + 2))
    calls = count_generators(monkeypatch)
    for workers in (1, 2):
        use_workers(monkeypatch, workers)
        expected = min(workers, -(-k // 4))
        calls.clear()
        stratified_bootstrap(iris_ds, k=k, seed=4)
        assert calls == [(4, DOMAIN_BOOTSTRAP, 0)] * expected
        calls.clear()
        permutation_test(iris_ds, k=k, seed=4)
        assert calls == [(4, DOMAIN_PERMUTATION, 0)] * expected


def reference_bootstrap(ds, k, seed):
    """The bootstrap as a loop: a fresh generator, one integers call and
    one fancy-indexed mean per group and replicate."""
    feats = [ds.group_features(g) for g in inference.GROUPS]
    means = np.empty((3, k, ds.p))
    for j in range(k):
        rng = stream_generator(seed, DOMAIN_BOOTSTRAP, j)
        for g, f in enumerate(feats):
            means[g, j] = f[rng.integers(0, len(f), size=len(f))].mean(axis=0)
    return _centroid_shape_stats(means[0], means[1], means[2])


def assert_ensemble_equals(ens, stats):
    for name in ("tau", "gamma", "u", "v", "a2", "b2", "c2"):
        np.testing.assert_array_equal(getattr(ens, name), stats[name])


@pytest.mark.parametrize("n, p", [(2, 1), (2, 3), (7, 1), (20, 1), (15, 4), (9, 2), (12, 16)])
@pytest.mark.parametrize("seed", [0, 9, 2**63 + 5])
def test_bootstrap_matches_per_replicate_reference(n, p, seed):
    # 3n observations: odd and even totals, groups of size 2, p = 1
    ds = make_dataset(np.random.default_rng(n * p), n=n, p=p)
    ens = stratified_bootstrap(ds, k=60, seed=seed)
    assert_ensemble_equals(ens, reference_bootstrap(ds, 60, seed))


def reference_permutation_means(ds, k, seed):
    """The permutation test's group means as a loop: a fresh generator,
    one permutation and one fancy-indexed mean per group and replicate."""
    sizes = [len(ds.group_indices(g)) for g in inference.GROUPS]
    ends = np.cumsum([0] + sizes)
    means = np.empty((3, k, ds.p))
    for j in range(k):
        perm = stream_generator(seed, DOMAIN_PERMUTATION, j).permutation(ds.n)
        for g in range(3):
            means[g, j] = ds.features[perm[ends[g] : ends[g + 1]]].mean(axis=0)
    return means


def unequal_dataset(p, sizes=(11, 7, 16)):
    # labels interleaved, so group rows are not contiguous in ds.features
    rng = np.random.default_rng(p)
    labels = rng.permutation(np.repeat(np.array(["A", "B", "C"]), sizes))
    return GroupedDataset(features=rng.normal(size=(sum(sizes), p)), labels=labels)


def chunk_values(chunk, ds):
    # "default", or a chunk of that many replicates
    if chunk == "default":
        return inference._CHUNK_VALUES
    return chunk * ds.n * (ds.p + 2)


# K = 61 is a multiple of no W * step below: chunks of 7, 3 and 2
# replicates for W = 1, 2 and 3 at chunk 7
WORKER_K = 61


def expected_workers(chunk, workers):
    return workers if chunk == 7 else 1


@pytest.mark.parametrize("chunk", ["default", 1, 7])
@pytest.mark.parametrize("p", [1, 2, 3, 4, 16])
def test_permutation_matches_per_replicate_reference(monkeypatch, p, chunk):
    ds = unequal_dataset(p)
    monkeypatch.setattr(inference, "_CHUNK_VALUES", chunk_values(chunk, ds))
    captured = []

    def spy(xa, xb, xc):
        captured.append(np.stack([xa, xb, xc]))
        return _centroid_shape_stats(xa, xb, xc)

    monkeypatch.setattr(inference, "_centroid_shape_stats", spy)
    calls = count_generators(monkeypatch)
    reference = reference_permutation_means(ds, WORKER_K, 3)
    for workers in (1, 2, 3):
        use_workers(monkeypatch, workers)
        captured.clear()
        calls.clear()
        permutation_test(ds, k=WORKER_K, seed=3)
        (means,) = captured
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


def test_resampling_worker_error_propagates(iris_ds, monkeypatch):
    monkeypatch.setattr(inference, "_CHUNK_VALUES", 4 * iris_ds.n * (iris_ds.p + 2))
    use_workers(monkeypatch, 2)
    sizes = list(iris_ds.n_per_group().values())
    feats = [iris_ds.group_features(g) for g in inference.GROUPS]

    def draw(rng, keys):
        if threading.current_thread() is not threading.main_thread():
            raise RuntimeError("draw failed in a worker")
        return sampling.bootstrap_indices(rng, keys, sizes)

    with pytest.raises(RuntimeError, match="draw failed in a worker"):
        inference._resampled_shape_stats(iris_ds, feats, 40, 1, DOMAIN_BOOTSTRAP, draw)


def test_resampling_more_workers_than_cores_with_fast_switching(monkeypatch):
    # 8 workers write interleaved two-replicate slices of one means
    # array, switching threads every microsecond: a lost or misplaced
    # write changes a replicate
    ds = unequal_dataset(3)
    reference = reference_bootstrap(ds, 301, 7)
    monkeypatch.setattr(inference, "_CHUNK_VALUES", 16 * ds.n * (ds.p + 2))
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
    monkeypatch.setattr(inference, "_CHUNK_VALUES", 500 * iris_ds.n * (iris_ds.p + 2))
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

    def reject_all(words, bounds):
        draws, rejected = lemire_bounded(words, bounds)
        return draws, np.ones_like(rejected)

    monkeypatch.setattr(sampling, "lemire_bounded", reject_all)
    redrawn = count_redrawn_rows(monkeypatch)
    redone = stratified_bootstrap(iris_ds, k=300, seed=12)
    assert sum(redrawn) == 300
    assert_ensemble_equals(redone, vars(vectorised))


def test_bootstrap_memory_stays_bounded(monkeypatch):
    rng = np.random.default_rng(12)
    ds = make_dataset(rng, n=2000, p=8)
    calls = count_generators(monkeypatch)
    peaks = []
    for workers in (1, 2):
        use_workers(monkeypatch, workers)
        tracemalloc.start()
        try:
            stratified_bootstrap(ds, k=400, seed=0)
            peaks.append(tracemalloc.get_traced_memory()[1])
        finally:
            tracemalloc.stop()
    assert len(calls) == 1 + 2
    # the whole (K, n, p) gather of one group alone would be 49 MiB
    assert peaks[1] < 32 * 2**20
    # two workers share the bound on the values in flight, in half-size
    # chunks, where full-size ones would double the peak
    assert peaks[1] < 1.25 * peaks[0]


def test_bootstrap_internal_consistency(iris_ds):
    ens = stratified_bootstrap(iris_ds, k=500, seed=1)
    valid = ens.valid_mask()
    assert valid.all()
    np.testing.assert_allclose(ens.tau, 3.0 * ens.b2 - 1.0, atol=1e-9)
    assert np.all(ens.u**2 + ens.v**2 <= 1.0 + 1e-9)
    np.testing.assert_allclose(ens.a2 + ens.b2 + ens.c2, 1.0, atol=1e-12)


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
    # every member point inside (or on) the hull: check via support function
    hull = cr.hull
    centroid = hull.mean(axis=0)
    for edge_start, edge_end in zip(hull, np.roll(hull, -1, axis=0)):
        edge = edge_end - edge_start
        normal = np.array([-edge[1], edge[0]])
        side_centroid = np.sign(normal @ (centroid - edge_start))
        proj = (cr.member_points - edge_start) @ normal * side_centroid
        assert np.all(proj >= -1e-12)


def test_confidence_region_errors_and_warnings():
    feats = np.vstack([np.random.default_rng(7).normal(size=(4, 2)) + off
                       for off in ([0, 0], [1, 0], [0, 1])])
    ds = GroupedDataset(features=feats, labels=np.repeat(list("ABC"), 4))
    ens = stratified_bootstrap(ds, k=50, seed=0)
    with pytest.warns(UserWarning):
        confidence_region(ens, 0.9)
    degenerate = GroupedDataset(
        features=np.ones((6, 2)), labels=np.array(list("AABBCC"))
    )
    with pytest.raises(InsufficientReplicatesError):
        confidence_region(stratified_bootstrap(degenerate, k=20, seed=0), 0.9)


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
        tau=u.copy(), gamma=nan, u=u, v=v, a2=nan, b2=nan, c2=nan, seed=0, k=u.size
    )


@pytest.mark.filterwarnings("ignore:only .* valid replicates")
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


@pytest.mark.filterwarnings("ignore:only .* valid replicates")
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


@pytest.mark.filterwarnings("ignore:only .* valid replicates")
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


@pytest.mark.filterwarnings("ignore:only .* valid replicates")
@pytest.mark.parametrize("seed", [629, 2012, 2084])
def test_deepest_member_is_first_of_ties_even_with_a_tight_bound(seed):
    # copies of a few points, where the first deepest point has an upper
    # bound equal to its depth and is not among the first candidates
    rng = np.random.default_rng(seed)
    k, span = int(rng.integers(3, 80)), int(rng.integers(1, 4))
    ens = ensemble_of(0.2 * rng.normal(size=(span + 2, 2))[rng.integers(0, span + 2, size=k)])
    # before any region has computed a depth
    assert ens._region_depths.deepest() == np.argmax(cloud_depths(ens))
    assert_region_matches_full_kernel(ens, REGION_LEVELS)


def reference_hull_and_area(points):
    from scipy.spatial import ConvexHull, QhullError

    uniq = np.unique(points, axis=0)
    if uniq.shape[0] < 3:
        return uniq, 0.0
    try:
        hull = ConvexHull(points)
        return points[hull.vertices], float(hull.volume)
    except QhullError:
        return uniq, 0.0


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
def test_hull_and_area_matches_rule_that_checks_distinct_points_first(points):
    points = np.array(points)
    hull, area = inference._hull_and_area(points)
    ref_hull, ref_area = reference_hull_and_area(points)
    np.testing.assert_array_equal(hull, ref_hull)
    assert area == ref_area


def test_region_summary_extremes(iris_ds):
    ens = stratified_bootstrap(iris_ds, k=2000, seed=8)
    cr = confidence_region(ens, 0.95)
    summary = region_summary(cr)
    assert summary.max_tau.tau >= 0.93
    assert summary.min_tau.tau <= 0.88
    assert summary.min_tau.tau <= summary.median.tau <= summary.max_tau.tau
    # summaries are region members
    assert summary.median.replicate in cr.member_indices
    # deepest point and tie-break by smallest replicate index
    first_best = np.flatnonzero(ens.valid_mask())[np.argmax(cloud_depths(ens))]
    assert summary.median.replicate == first_best


def test_region_summary_single_member():
    from ibistat.inference import ConfidenceRegion

    cr = ConfidenceRegion(
        level=0.5,
        depth_threshold=1.0,
        member_indices=np.array([4]),
        member_points=np.array([[0.2, 0.1]]),
        member_taus=np.array([0.27]),
        deepest=0,
        hull=np.array([[0.2, 0.1]]),
        area=0.0,
    )
    summary = region_summary(cr)
    assert summary.median.replicate == summary.max_tau.replicate == 4
    assert summary.median.tau == summary.min_tau.tau


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


def test_permutation_deterministic(iris_ds):
    a = permutation_test(iris_ds, k=300, seed=11)
    b = permutation_test(iris_ds, k=300, seed=11)
    assert a == b
    assert 0.0 < a["p_tau"] <= 1.0
    assert 0.0 < a["p_gamma"] <= 1.0


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
