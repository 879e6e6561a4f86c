import numpy as np
import pytest

import ibistat.inference
from ibistat import tukey_depth, tukey_depths
from ibistat.depth import _CHUNK_PAIRS, depth_upper_bounds, inside_by_margin
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


def test_regions_at_all_levels_share_exact_depths(iris_ds, monkeypatch):
    queries = []

    def counting(points, cloud):
        assert len(cloud) == 200
        queries.extend(map(tuple, points))
        return tukey_depths(points, cloud)

    monkeypatch.setattr(ibistat.inference, "tukey_depths", counting)
    report, _ = run_analysis(iris_config(boot_k=200, levels=(0.8, 0.95)), iris_ds)
    assert len(report["regions"]) == 2
    # no point's depth is computed twice, and most are never computed
    assert len(set(queries)) == len(queries) < 200


def test_invalid_cloud():
    with pytest.raises(ValueError):
        tukey_depth([0.0, 0.0], np.zeros((0, 2)))
    with pytest.raises(ValueError):
        tukey_depth([0.0, 0.0], np.zeros((3, 3)))
    with pytest.raises(ValueError):
        tukey_depths(np.zeros(2), np.zeros((3, 2)))


def _bound_clouds(rng):
    """Random, integer-grid, duplicate-heavy and collinear clouds."""
    for _ in range(25):
        n = int(rng.integers(1, 40))
        base = rng.integers(-3, 4, size=(n, 2)).astype(float)
        steps = rng.integers(-4, 5, size=n).astype(float)
        yield rng.normal(size=(n, 2))
        yield base
        yield base[rng.integers(0, n, size=n)]
        yield np.outer(steps, [1.0, 2.0]) + [0.5, -1.0]
        yield np.outer(rng.normal(size=n), [0.6, 0.8])


def test_upper_bounds_are_at_least_the_depth():
    rng = np.random.default_rng(7)
    for cloud in _bound_clouds(rng):
        queries = np.concatenate([cloud, rng.integers(-4, 5, size=(5, 2)) + 0.5])
        bounds = depth_upper_bounds(queries, cloud)
        exact = [halfspace_depth_enumeration(q, cloud) for q in queries]
        assert np.all(bounds >= exact)
        assert np.all(bounds >= tukey_depths(queries, cloud))


def test_upper_bounds_are_tight_along_the_axes():
    cloud = np.array([[x, y] for x in range(-2, 3) for y in range(-2, 3)], dtype=float)
    # on the grid the bound is the depth: the axes realise every minimum
    np.testing.assert_array_equal(depth_upper_bounds(cloud, cloud), tukey_depths(cloud, cloud))


def test_inside_by_margin_marks_no_vertex_edge_or_outside_point():
    from scipy.spatial import ConvexHull

    rng = np.random.default_rng(8)
    for _ in range(40):
        cloud = rng.normal(size=(30, 2))
        hull = cloud[ConvexHull(cloud).vertices]
        centre = hull.mean(axis=0)
        on_edges = hull + rng.uniform(size=(len(hull), 1)) * (np.roll(hull, -1, axis=0) - hull)
        angle = rng.uniform(0.0, 2.0 * np.pi, size=20)
        radius = 1.5 * np.linalg.norm(cloud - centre, axis=1).max()
        far = centre + radius * np.column_stack([np.cos(angle), np.sin(angle)])
        outward = centre + (1.0 + 1e-12) * (hull - centre)
        for points in (hull, on_edges, far, outward):
            assert not inside_by_margin(points, hull, cloud).any()
        inner = centre + 0.5 * (hull - centre)
        assert inside_by_margin(inner, hull, cloud).all()
        # a clockwise polygon has no point left of all its edges
        assert not inside_by_margin(inner, hull[::-1], cloud).any()


def test_inside_by_margin_on_grid_edges_and_degenerate_polygons():
    square = np.array([[0.0, 0.0], [2.0, 0.0], [2.0, 2.0], [0.0, 2.0]])
    points = np.array([[1.0, 0.0], [2.0, 1.0], [1.0, 2.0], [0.0, 1.0], [1.0, 1.0], [1.0, 1e-12]])
    np.testing.assert_array_equal(
        inside_by_margin(points, square, square), [False, False, False, False, True, False]
    )
    for polygon in (square[:0], square[:1], square[:2], np.array([[0.0, 0.0], [1.0, 1.0], [2.0, 2.0]])):
        assert not inside_by_margin(points, polygon, square).any()
