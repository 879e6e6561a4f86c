import numpy as np
import pytest

import ibistat.inference
from ibistat import tukey_depth, tukey_depths
from ibistat.depth import _CHUNK_PAIRS
from ibistat.report import run_analysis
from _oracles import halfspace_depth_enumeration
from conftest import iris_config


def test_point_far_outside_has_zero_depth():
    cloud = np.random.default_rng(0).normal(size=(40, 2))
    assert tukey_depth([100.0, 100.0], cloud) == 0.0


def test_center_of_symmetric_cross():
    cloud = np.array([[1.0, 0.0], [-1.0, 0.0], [0.0, 1.0], [0.0, -1.0]])
    assert tukey_depth([0.0, 0.0], cloud) == 0.5


def test_cloud_member_depth_at_least_one_over_n():
    rng = np.random.default_rng(1)
    cloud = rng.normal(size=(25, 2))
    depths = tukey_depths(cloud, cloud)
    assert np.all(depths >= 1.0 / len(cloud))


def test_matches_enumeration_on_random_clouds():
    rng = np.random.default_rng(2)
    for _ in range(120):
        n = int(rng.integers(1, 51))
        cloud = rng.normal(size=(n, 2))
        q = rng.normal(size=2) * rng.choice([0.3, 1.0, 3.0])
        assert tukey_depth(q, cloud) == halfspace_depth_enumeration(q, cloud)


def test_matches_enumeration_with_duplicates_and_ties():
    rng = np.random.default_rng(3)
    for _ in range(60):
        n = int(rng.integers(4, 40))
        base = rng.integers(-3, 4, size=(n, 2)).astype(float)
        cloud = base[rng.integers(0, n, size=n)]  # duplicates guaranteed
        q = base[int(rng.integers(0, n))]
        assert tukey_depth(q, cloud) == halfspace_depth_enumeration(q, cloud)


def _grid_cloud_and_queries(rng, n, span):
    """Integer-grid cloud with duplicates and with points mirrored through
    its first point (antipodal and collinear as seen from there), plus
    queries: every cloud point, grid points that may miss the cloud and
    half-integer points that always do."""
    base = rng.integers(-span, span + 1, size=(n, 2)).astype(float)
    cloud = base[rng.integers(0, n, size=n)]
    cloud = np.concatenate([cloud, 2.0 * cloud[0] - cloud[1 : n // 2 + 1]])
    off_grid = rng.integers(-span - 2, span + 3, size=(6, 2)) + 0.5
    outside = rng.integers(-span - 2, span + 3, size=(6, 2)).astype(float)
    return cloud, np.concatenate([cloud, outside, off_grid])


def _assert_rows_match_enumeration(queries, cloud):
    depths = tukey_depths(queries, cloud)
    expected = [halfspace_depth_enumeration(q, cloud) for q in queries]
    np.testing.assert_array_equal(depths, expected)


def test_depths_match_enumeration_on_integer_grids():
    rng = np.random.default_rng(4)
    for _ in range(80):
        n = int(rng.integers(2, 40))
        cloud, queries = _grid_cloud_and_queries(rng, n, span=int(rng.integers(1, 4)))
        _assert_rows_match_enumeration(queries, cloud)


def test_depths_match_enumeration_across_chunks():
    rng = np.random.default_rng(5)
    for n, span in ((120, 3), (170, 5)):
        cloud, queries = _grid_cloud_and_queries(rng, n, span)
        assert queries.shape[0] * cloud.shape[0] > 2 * _CHUNK_PAIRS
        _assert_rows_match_enumeration(queries, cloud)


def test_depth_of_query_coincident_with_whole_cloud():
    cloud = np.zeros((5, 2))
    assert tukey_depth([0.0, 0.0], cloud) == 1.0
    np.testing.assert_array_equal(
        tukey_depths([[0.0, 0.0], [1.0, 0.0], [0.0, 0.0]], cloud), [1.0, 0.0, 1.0]
    )


def test_single_point_depth_is_one_row_of_depths():
    rng = np.random.default_rng(6)
    for _ in range(50):
        cloud = rng.integers(-2, 3, size=(int(rng.integers(1, 30)), 2)).astype(float)
        q = rng.integers(-3, 4, size=2).astype(float)
        assert tukey_depth(q, cloud) == tukey_depths([q], cloud)[0]


def test_regions_at_all_levels_share_one_depth_pass(iris_ds, monkeypatch):
    calls = []

    def counting(points, cloud):
        calls.append(len(points))
        return tukey_depths(points, cloud)

    monkeypatch.setattr(ibistat.inference, "tukey_depths", counting)
    report, _ = run_analysis(iris_config(boot_k=200, levels=(0.8, 0.95)), iris_ds)
    assert len(report["regions"]) == 2
    assert calls == [200]


def test_invalid_cloud():
    with pytest.raises(ValueError):
        tukey_depth([0.0, 0.0], np.zeros((0, 2)))
    with pytest.raises(ValueError):
        tukey_depth([0.0, 0.0], np.zeros((3, 3)))
    with pytest.raises(ValueError):
        tukey_depths(np.zeros(2), np.zeros((3, 2)))
