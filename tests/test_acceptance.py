"""Acceptance suite: one test per release criterion, printed pass/fail.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the per-criterion
lines.  The iris reference table splits by pipeline: its tau values
(observed and CI) are reproduced on raw features, its gamma values on
overall-standardized features; no single mode reproduces both columns.
"""

import math
from contextlib import contextmanager

import numpy as np
from scipy import stats

from ibistat import (
    Configuration,
    GroupedDataset,
    aligned_transformation_matrix,
    confidence_region,
    coverage_simulation,
    distance_to_midpoint,
    observed_ibi,
    percentile_ci,
    preshape,
    radius_null_cdf,
    riemannian_distance_disk,
    riemannian_distance_preshape,
    sample_null_shapes,
    shape_point,
    side_lengths,
    sides_from_shape,
    standardize,
    stratified_bootstrap,
    stream_generator,
    tau_null_cdf,
    tukey_depth,
)
from ibistat import inference
from ibistat.cli import main
from ibistat.datasets import iris_csv_path
from ibistat.report import load_csv
from _oracles import halfspace_depth_enumeration
from conftest import iris_config, random_configuration


@contextmanager
def criterion(number: int, label: str):
    try:
        yield
    except BaseException:
        print(f"[FAIL] criterion {number}: {label}")
        raise
    print(f"[PASS] criterion {number}: {label}")


def iris_subset(features=()):
    return load_csv(iris_csv_path(), iris_config(features))


def test_criterion_1_worked_example_golden():
    with criterion(1, "sepal worked example: aligned M and (r, phi)"):
        ds = iris_subset(("sepal_length", "sepal_width"))
        cfg = Configuration(
            np.array([ds.group_features(g).mean(axis=0) for g in "ABC"])
        )
        m = aligned_transformation_matrix(cfg)
        np.testing.assert_allclose(
            m, [[0.915, 0.319], [0.081, -0.233]], atol=0.002
        )
        sp = shape_point(cfg)
        assert abs(sp.r - 0.877) <= 0.002
        assert abs(sp.phi - 0.214 * math.pi) <= 0.002 * math.pi


TAU_TABLE = {
    ("sepal_length", "sepal_width"): 0.817,
    ("sepal_length", "petal_length"): 0.922,
    ("sepal_length", "petal_width"): 0.974,
    (): 0.909,
}
GAMMA_TABLE = {
    ("sepal_length", "sepal_width"): 0.103,
    ("sepal_length", "petal_length"): 0.979,
    ("sepal_length", "petal_width"): 0.999,
    (): 0.624,
}


def test_criterion_2_iris_ibi_table():
    with criterion(2, "iris IBI table (tau on raw, gamma on standardized)"):
        for features, expected in TAU_TABLE.items():
            got = observed_ibi(iris_subset(features), mode="none").tau
            assert abs(got - expected) <= 0.002, (features, got, expected)
        for features, expected in GAMMA_TABLE.items():
            got = observed_ibi(iris_subset(features), mode="feature").gamma
            assert abs(got - expected) <= 0.002, (features, got, expected)


def test_criterion_3_iris_bootstrap_cis():
    with criterion(3, "iris 95% bootstrap CIs at K=10000"):
        ds = iris_subset()
        ens_raw = stratified_bootstrap(ds, k=10_000, seed=0)
        lo, hi = percentile_ci(ens_raw.tau, 0.95)
        assert abs(lo - 0.879) <= 0.01, lo
        assert abs(hi - 0.931) <= 0.01, hi
        ens_std = stratified_bootstrap(standardize(ds, "feature"), k=10_000, seed=0)
        lo, hi = percentile_ci(ens_std.gamma, 0.95)
        assert abs(lo - 0.444) <= 0.02, lo
        assert abs(hi - 0.795) <= 0.02, hi


def test_criterion_4_coverage_reproduction():
    with criterion(4, "coverage simulation at desk scale"):
        base = coverage_simulation(
            r=0.5, phi=math.pi / 3, p=2, n_per_group=100, sigma2=1.0,
            n_sims=300, k=500, seed=0,
        )
        assert abs(base["ci_coverage"] - 0.953) <= 0.03, base
        assert abs(base["ci_length"] - 0.381) <= 0.05, base
        noisy = coverage_simulation(
            r=0.5, phi=math.pi / 3, p=2, n_per_group=30, sigma2=5.0,
            n_sims=300, k=500, seed=0,
        )
        assert abs(noisy["ci_length"] - 1.233) <= 0.15, noisy


def test_criterion_5_null_distribution_oracles():
    with criterion(5, "null Monte-Carlo vs analytic laws (p = 2, 4, 8)"):
        for p in (2, 4, 8):
            shapes = sample_null_shapes(p, 100_000, stream_generator(55, p))
            ks_r = stats.kstest(shapes["r"], lambda x: radius_null_cdf(x, p)).statistic
            assert ks_r < 0.01, (p, ks_r)
            ks_t = stats.kstest(shapes["tau"], lambda x: tau_null_cdf(x, p)).statistic
            assert ks_t < 0.01, (p, ks_t)
            counts, _ = np.histogram(shapes["phi"], bins=36, range=(0, 2 * math.pi))
            expected = len(shapes["phi"]) / 36.0
            chi2 = float(((counts - expected) ** 2 / expected).sum())
            assert chi2 < stats.chi2.ppf(0.999, 35), (p, chi2)


def test_criterion_6_property_suites():
    with criterion(6, "randomized property suites (1000 cases each)"):
        rng = np.random.default_rng(66)

        # similarity invariance of the shape map
        for _ in range(1000):
            p = int(rng.integers(2, 5))
            cfg = random_configuration(rng, p=p)
            q, _ = np.linalg.qr(rng.normal(size=(p, p)))
            moved = Configuration(
                float(rng.uniform(0.2, 5.0)) * cfg.landmarks @ q.T + rng.normal(size=p)
            )
            a, b = shape_point(cfg), shape_point(moved)
            assert max(abs(a.u - b.u), abs(a.v - b.v), abs(a.r - b.r)) < 1e-9

        # three equivalent forms of tau
        for _ in range(1000):
            cfg = random_configuration(rng, p=int(rng.integers(2, 5)))
            sp = shape_point(cfg)
            polar = sp.r * math.cos(math.pi / 3 - sp.phi)
            rect = 0.5 * sp.u + 0.5 * math.sqrt(3.0) * sp.v
            via_sides = 3.0 * side_lengths(cfg).b2 - 1.0
            assert abs(polar - rect) < 1e-12
            assert abs(rect - via_sides) < 1e-9

        # side lengths <-> disk coordinates round trip
        for _ in range(1000):
            cfg = random_configuration(rng, p=int(rng.integers(2, 5)))
            direct = np.array(side_lengths(cfg).as_tuple())
            mapped = np.array(sides_from_shape(shape_point(cfg)).as_tuple())
            assert np.abs(direct - mapped).max() < 1e-9

        # tau = cos(2 * distance to the midpoint shape)
        for _ in range(1000):
            cfg = random_configuration(rng, p=2)
            sp = shape_point(cfg)
            tau = 0.5 * sp.u + 0.5 * math.sqrt(3.0) * sp.v
            assert abs(tau - math.cos(2.0 * distance_to_midpoint(sp))) < 1e-12

        # pre-shape distance agrees with the disk formula (orientation-kept pairs)
        checked = 0
        while checked < 1000:
            c1, c2 = random_configuration(rng, p=2), random_configuration(rng, p=2)
            z1, z2 = preshape(c1), preshape(c2)
            if np.linalg.det(z1.matrix @ z2.matrix.T) < 0:
                continue
            d_pre = riemannian_distance_preshape(z1, z2)
            d_disk = riemannian_distance_disk(shape_point(c1), shape_point(c2))
            assert abs(d_pre - d_disk) < 1e-9
            checked += 1

        # exact halfspace depth vs independent enumeration
        for _ in range(1000):
            n = int(rng.integers(1, 51))
            cloud = rng.normal(size=(n, 2))
            q = rng.normal(size=2) * float(rng.choice([0.5, 1.0, 2.0]))
            assert tukey_depth(q, cloud) == halfspace_depth_enumeration(q, cloud)


def _synthetic_clusters(rng, n, spread, centers):
    feats = np.vstack([c + spread * rng.normal(size=(n, len(c))) for c in centers])
    labels = np.repeat(np.array(["A", "B", "C"]), n)
    return GroupedDataset(features=feats, labels=labels)


def test_criterion_7_synthetic_concentration_contrast():
    with criterion(7, "synthetic concentrated vs diffuse confidence regions"):
        centers = np.array([[0.0, 0.0], [4.0, 1.0], [8.0, 0.0]])
        big = _synthetic_clusters(stream_generator(77, 0), 2000, 1.0, centers)
        obs_tau = observed_ibi(big, mode="none").tau
        ens = stratified_bootstrap(big, k=2000, seed=1)
        cr = confidence_region(ens, 0.95)
        assert np.abs(ens.tau[cr.member_indices] - obs_tau).max() <= 0.02
        small = _synthetic_clusters(stream_generator(77, 1), 10, 3.0, centers)
        ens2 = stratified_bootstrap(small, k=2000, seed=2)
        cr2 = confidence_region(ens2, 0.95)
        taus2 = ens2.tau[cr2.member_indices]
        assert taus2.max() - taus2.min() > 0.5


def test_criterion_8_full_run_determinism(tmp_path, monkeypatch):
    with criterion(8, "byte-identical reports across reruns and thread counts"):
        outputs = []
        runs = (
            ("r1", "1", None), ("r2", "1", None), ("r8", "8", None),
            ("w1", "1", 1), ("w2", "1", 2),
        )
        for name, threads, workers in runs:
            if workers is not None:
                # chunks of at most 50 iris replicates, on 1 or 2 workers
                monkeypatch.setattr(
                    inference, "_CHUNK_VALUES", 50 * inference._replicate_values(150, 4)
                )
                monkeypatch.setattr(inference, "_usable_cpus", lambda w=workers: w)
            report = tmp_path / f"{name}.json"
            plot = tmp_path / f"{name}.svg"
            code = main([
                "analyze", "--input", iris_csv_path(),
                "--group-col", "species",
                "--groups", "A=setosa,B=versicolor,C=virginica",
                "--boot", "500", "--perm", "200", "--seed", "123",
                "--threads", threads,
                "--report", str(report), "--plot", str(plot),
            ])
            assert code == 0
            outputs.append(report.read_bytes() + plot.read_bytes())
        assert outputs[0] == outputs[1] == outputs[2]
        assert outputs[0] == outputs[3] == outputs[4]
