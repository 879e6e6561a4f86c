import math

import numpy as np
import pytest

from ibistat import (
    HELMERT,
    MIDPOINT_SHAPE,
    Configuration,
    DegenerateConfigurationError,
    DimensionMismatchError,
    OutOfDiskError,
    ShapePoint,
    SideLengths,
    aligned_transformation_matrix,
    center,
    configuration_from_sides,
    distance_to_midpoint,
    edge_matrix,
    kendall_spherical,
    preshape,
    riemannian_distance_disk,
    riemannian_distance_preshape,
    shape_from_sides,
    shape_point,
    side_lengths,
    sides_from_shape,
    transformation_matrix,
)
from conftest import random_configuration

IRIS_SEPAL = Configuration(np.array([[5.006, 3.428], [5.936, 2.770], [6.588, 2.974]]))
MIDPOINT_CFG = Configuration(np.array([[0.0, 0.0], [1.0, 0.0], [2.0, 0.0]]))
EQUILATERAL = Configuration(np.array([[0.0, 0.0], [1.0, 0.0], [0.5, math.sqrt(3) / 2]]))


def test_center_subtracts_mean():
    cfg = Configuration(np.array([[0.0, 0.0], [2.0, 0.0], [1.0, 3.0]]))
    np.testing.assert_allclose(
        center(cfg).landmarks, [[-1.0, -1.0], [1.0, -1.0], [0.0, 2.0]], atol=1e-15
    )


def test_center_is_idempotent():
    cfg = center(random_configuration(np.random.default_rng(1)))
    np.testing.assert_allclose(center(cfg).landmarks, cfg.landmarks, atol=1e-15)


def test_center_iris_mean_zero():
    centered = center(IRIS_SEPAL)
    np.testing.assert_allclose(centered.landmarks.mean(axis=0), 0.0, atol=1e-12)
    # pairwise differences unchanged
    np.testing.assert_allclose(
        centered.landmarks[0] - centered.landmarks[1],
        IRIS_SEPAL.landmarks[0] - IRIS_SEPAL.landmarks[1],
        atol=1e-12,
    )


def test_edge_matrix_reproduces_reference_matrix():
    e = edge_matrix(IRIS_SEPAL).matrix
    np.testing.assert_allclose(
        e, [[-1.582, 0.930, 0.652], [0.454, -0.658, 0.204]], atol=5e-4
    )


def test_edge_matrix_columns_sum_to_zero():
    rng = np.random.default_rng(2)
    for _ in range(50):
        e = edge_matrix(random_configuration(rng, p=int(rng.integers(1, 6)))).matrix
        np.testing.assert_allclose(e.sum(axis=1), 0.0, atol=1e-12)


def test_edge_matrix_equilateral_unit_columns():
    e = edge_matrix(EQUILATERAL).matrix
    np.testing.assert_allclose(np.linalg.norm(e, axis=0), 1.0, atol=1e-12)


def test_edge_matrix_coincident_is_zero():
    cfg = Configuration(np.ones((3, 2)))
    np.testing.assert_array_equal(edge_matrix(cfg).matrix, np.zeros((2, 3)))


def test_helmert_rows_orthonormal():
    np.testing.assert_allclose(HELMERT @ HELMERT.T, np.eye(2), atol=1e-15)


def test_transformation_matrix_is_edge_times_helmert():
    m = transformation_matrix(IRIS_SEPAL)
    np.testing.assert_allclose(m, edge_matrix(IRIS_SEPAL).matrix @ HELMERT.T, atol=1e-15)


def test_transformation_matrix_coincident_is_zero():
    np.testing.assert_array_equal(
        transformation_matrix(Configuration(np.full((3, 3), 2.5))), np.zeros((3, 2))
    )


def test_transformation_matrix_recovers_edges():
    rng = np.random.default_rng(3)
    for _ in range(1000):
        cfg = random_configuration(rng, p=int(rng.integers(2, 5)))
        m = transformation_matrix(cfg)
        np.testing.assert_allclose(m @ HELMERT, edge_matrix(cfg).matrix, atol=1e-12)


def test_aligned_transformation_matrix_golden():
    np.testing.assert_allclose(
        aligned_transformation_matrix(IRIS_SEPAL),
        [[0.915, 0.319], [0.081, -0.233]],
        atol=1e-3,
    )


def test_shape_point_iris_golden():
    sp = shape_point(IRIS_SEPAL)
    assert abs(sp.r - 0.877) <= 0.002
    assert abs(sp.phi - 0.214 * math.pi) <= 0.002 * math.pi
    # normalized singular values of the aligned matrix
    d = np.linalg.svd(aligned_transformation_matrix(IRIS_SEPAL), compute_uv=False)
    assert abs(d[0] - 0.969) <= 0.002
    assert abs(d[1] - 0.247) <= 0.002


def test_shape_point_midpoint_triangle():
    sp = shape_point(MIDPOINT_CFG)
    assert abs(sp.r - 1.0) <= 1e-12
    assert abs(sp.phi - math.pi / 3) <= 1e-9


def test_shape_point_equilateral():
    sp = shape_point(EQUILATERAL)
    assert sp.r <= 1e-12
    assert sp.phi == 0.0
    assert sp.angle_degenerate


def test_shape_point_similarity_invariance():
    rng = np.random.default_rng(4)
    for _ in range(1000):
        p = int(rng.integers(2, 5))
        cfg = random_configuration(rng, p=p)
        q, _ = np.linalg.qr(rng.normal(size=(p, p)))
        scale = float(rng.uniform(0.1, 10.0))
        shift = rng.normal(size=p)
        moved = Configuration(scale * cfg.landmarks @ q.T + shift)
        a, b = shape_point(cfg), shape_point(moved)
        assert abs(a.r - b.r) < 1e-9
        assert abs(a.u - b.u) < 1e-9
        assert abs(a.v - b.v) < 1e-9


def test_shape_point_rejects_coincident():
    with pytest.raises(DegenerateConfigurationError):
        shape_point(Configuration(np.zeros((3, 2))))


def test_shape_point_flags_near_equilateral_angle():
    bumped = EQUILATERAL.landmarks.copy()
    bumped[0, 0] += 1e-12
    assert shape_point(Configuration(bumped)).angle_degenerate
    clearly_not = Configuration(np.array([[0.0, 0.0], [1.0, 0.0], [0.4, 0.5]]))
    assert not shape_point(clearly_not).angle_degenerate


def test_shape_point_one_dimensional_input_is_collinear():
    sp = shape_point(Configuration(np.array([[0.0], [1.0], [5.0]])))
    assert abs(sp.r - 1.0) <= 1e-12


def test_side_lengths_midpoint():
    s = side_lengths(MIDPOINT_CFG)
    np.testing.assert_allclose(s.as_tuple(), (1 / 6, 2 / 3, 1 / 6), atol=1e-12)


def test_side_lengths_equilateral():
    s = side_lengths(EQUILATERAL)
    np.testing.assert_allclose(s.as_tuple(), (1 / 3, 1 / 3, 1 / 3), atol=1e-12)


def test_side_lengths_3_4_5():
    cfg = Configuration(np.array([[0.0, 0.0], [3.0, 0.0], [0.0, 4.0]]))
    np.testing.assert_allclose(side_lengths(cfg).as_tuple(), (0.5, 0.32, 0.18), atol=1e-12)


def test_sides_from_shape_center_is_equilateral():
    s = sides_from_shape(ShapePoint.from_rect(0.0, 0.0))
    np.testing.assert_allclose(s.as_tuple(), (1 / 3, 1 / 3, 1 / 3), atol=1e-12)


def test_sides_from_shape_midpoint_point():
    s = sides_from_shape(ShapePoint.from_rect(0.5, math.sqrt(3) / 2))
    np.testing.assert_allclose(s.as_tuple(), (1 / 6, 2 / 3, 1 / 6), atol=1e-12)


def test_sides_from_shape_rejects_outside_disk():
    with pytest.raises(OutOfDiskError):
        ShapePoint.from_rect(0.9, 0.9)


def test_sides_roundtrip_matches_side_lengths():
    rng = np.random.default_rng(5)
    for _ in range(1000):
        cfg = random_configuration(rng, p=int(rng.integers(2, 6)))
        direct = np.array(side_lengths(cfg).as_tuple())
        via_shape = np.array(sides_from_shape(shape_point(cfg)).as_tuple())
        np.testing.assert_allclose(direct, via_shape, atol=1e-9)


def test_shape_from_sides_inverts_sides_from_shape():
    rng = np.random.default_rng(6)
    for _ in range(200):
        r = math.sqrt(rng.uniform())
        phi = rng.uniform(0, 2 * math.pi)
        sp = ShapePoint(r=r, phi=phi)
        back = shape_from_sides(sides_from_shape(sp))
        assert abs(back.u - sp.u) < 1e-12
        assert abs(back.v - sp.v) < 1e-12


def test_preshape_scale_and_location_invariant():
    rng = np.random.default_rng(7)
    cfg = random_configuration(rng, p=3)
    moved = Configuration(cfg.landmarks * 5.0 + np.array([1.0, -2.0, 0.5]))
    np.testing.assert_allclose(
        preshape(cfg).matrix, preshape(moved).matrix, atol=1e-12
    )


def test_preshape_unit_norm():
    rng = np.random.default_rng(8)
    for _ in range(100):
        z = preshape(random_configuration(rng, p=int(rng.integers(2, 5))))
        assert abs(np.linalg.norm(z.matrix) - 1.0) <= 1e-12


def test_preshape_equilateral_singular_values():
    d = np.linalg.svd(preshape(EQUILATERAL).matrix, compute_uv=False)
    np.testing.assert_allclose(d, [1 / math.sqrt(2)] * 2, atol=1e-12)


def test_preshape_midpoint_rank_one():
    d = np.linalg.svd(preshape(MIDPOINT_CFG).matrix, compute_uv=False)
    assert d[1] <= 1e-12


def test_preshape_distance_identity():
    z = preshape(IRIS_SEPAL)
    assert riemannian_distance_preshape(z, z) <= 1e-7


def test_preshape_distance_equilateral_to_degenerate():
    rho = riemannian_distance_preshape(preshape(EQUILATERAL), preshape(MIDPOINT_CFG))
    assert abs(rho - math.pi / 4) <= 1e-9


def test_preshape_distance_dimension_mismatch():
    with pytest.raises(DimensionMismatchError):
        riemannian_distance_preshape(
            preshape(EQUILATERAL),
            preshape(Configuration(np.hstack([MIDPOINT_CFG.landmarks, np.zeros((3, 1))]))),
        )


def test_preshape_distance_matches_disk_formula():
    rng = np.random.default_rng(9)
    checked = 0
    while checked < 1000:
        c1 = random_configuration(rng, p=2)
        c2 = random_configuration(rng, p=2)
        z1, z2 = preshape(c1), preshape(c2)
        if np.linalg.det(z1.matrix @ z2.matrix.T) < 0:
            continue  # reflected pair: the two definitions legitimately differ
        rho_pre = riemannian_distance_preshape(z1, z2)
        rho_disk = riemannian_distance_disk(shape_point(c1), shape_point(c2))
        assert abs(rho_pre - rho_disk) < 1e-9
        checked += 1


def test_disk_distance_basic_values():
    s = ShapePoint(r=0.4, phi=1.0)
    assert riemannian_distance_disk(s, s) == 0.0
    far = riemannian_distance_disk(
        ShapePoint(r=1.0, phi=math.pi / 3), ShapePoint(r=1.0, phi=math.pi / 3 + math.pi)
    )
    assert abs(far - math.pi / 2) <= 1e-12


def test_disk_distance_boundary_reduces_to_inner_product():
    rng = np.random.default_rng(10)
    for _ in range(200):
        s1 = ShapePoint(r=math.sqrt(rng.uniform()), phi=rng.uniform(0, 2 * math.pi))
        s2 = ShapePoint(r=1.0, phi=rng.uniform(0, 2 * math.pi))
        expected = 0.5 * math.acos(
            np.clip(s1.r * s2.r * math.cos(s1.phi - s2.phi), -1.0, 1.0)
        )
        assert abs(riemannian_distance_disk(s1, s2) - expected) <= 1e-12


def test_disk_distance_metric_axioms():
    rng = np.random.default_rng(11)
    pts = [
        ShapePoint(r=math.sqrt(rng.uniform()), phi=rng.uniform(0, 2 * math.pi))
        for _ in range(60)
    ]
    for _ in range(1000):
        i, j, k = rng.integers(0, len(pts), size=3)
        dij = riemannian_distance_disk(pts[i], pts[j])
        dji = riemannian_distance_disk(pts[j], pts[i])
        assert dij >= 0.0
        assert abs(dij - dji) <= 1e-12
        if i != j:  # distinct points are at positive distance
            assert dij > 1e-12
        dik = riemannian_distance_disk(pts[i], pts[k])
        dkj = riemannian_distance_disk(pts[k], pts[j])
        assert dij <= dik + dkj + 1e-9


def test_distance_to_midpoint_values():
    assert distance_to_midpoint(ShapePoint(r=1.0, phi=math.pi / 3)) == 0.0
    assert abs(distance_to_midpoint(ShapePoint(r=0.0, phi=0.0)) - math.pi / 4) <= 1e-12
    antipode = ShapePoint(r=1.0, phi=math.pi / 3 - math.pi)
    assert abs(distance_to_midpoint(antipode) - math.pi / 2) <= 1e-12


def test_distance_to_midpoint_matches_disk_distance():
    rng = np.random.default_rng(12)
    for _ in range(1000):
        s = ShapePoint(r=math.sqrt(rng.uniform()), phi=rng.uniform(0, 2 * math.pi))
        assert (
            abs(distance_to_midpoint(s) - riemannian_distance_disk(s, MIDPOINT_SHAPE))
            <= 1e-12
        )


def test_kendall_spherical_equilateral_at_pole():
    assert kendall_spherical(EQUILATERAL).theta <= 1e-9


def test_kendall_spherical_midpoint():
    ks = kendall_spherical(MIDPOINT_CFG)
    assert abs(ks.theta - math.pi / 2) <= 1e-9
    assert abs(ks.psi - math.pi / 3) <= 1e-9


def test_kendall_spherical_relations_to_disk():
    rng = np.random.default_rng(13)
    for _ in range(1000):
        p = int(rng.integers(2, 6))
        cfg = random_configuration(rng, p=p)
        sp = shape_point(cfg)
        ks = kendall_spherical(cfg)
        assert abs(math.sin(ks.theta) - sp.r) < 1e-9
        delta = (2 * math.pi / 3 - ks.psi - sp.phi + math.pi) % (2 * math.pi) - math.pi
        assert abs(delta) < 1e-9


def test_disk_containment():
    rng = np.random.default_rng(14)
    for _ in range(1000):
        sp = shape_point(random_configuration(rng, p=int(rng.integers(2, 6))))
        assert sp.u**2 + sp.v**2 <= 1.0 + 1e-12


def test_boundary_iff_degenerate():
    rng = np.random.default_rng(17)
    for _ in range(200):
        # random collinear (zero-area) triangles sit exactly on the boundary
        direction = rng.normal(size=3)
        ts = rng.normal(size=3)
        span = ts.max() - ts.min()
        gaps = (abs(ts[0] - ts[1]), abs(ts[1] - ts[2]), abs(ts[0] - ts[2]))
        if min(gaps) < 0.15 * span:  # keep the three points well separated
            continue
        collinear = Configuration(np.outer(ts, direction) + rng.normal(size=3))
        assert abs(shape_point(collinear).r - 1.0) <= 1e-9
        # a bump off the line, sized to the triangle itself, moves strictly inside
        extent = span * np.linalg.norm(direction)
        normal_dir = np.array([-direction[1], direction[0], 0.0])
        bumped = collinear.landmarks.copy()
        bumped[1] += 0.3 * extent * normal_dir / np.linalg.norm(normal_dir)
        assert shape_point(Configuration(bumped)).r < 1.0 - 1e-4


def test_value_type_validation():
    from ibistat import EdgeMatrix, PreShape

    with pytest.raises(ValueError):
        EdgeMatrix(np.array([[1.0, 1.0, 1.0], [0.0, 0.0, 0.0]]))  # columns not zero-sum
    with pytest.raises(ValueError):
        PreShape(np.array([[1.0, 0.0], [0.0, 1.0]]))  # Frobenius norm sqrt(2)
    z = preshape(EQUILATERAL)
    assert abs(np.linalg.norm(PreShape(z.matrix).matrix) - 1.0) <= 1e-12


def test_continuity_under_small_perturbations():
    rng = np.random.default_rng(15)
    count = 0
    while count < 200:
        cfg = random_configuration(rng, p=2)
        sp = shape_point(cfg)
        if sp.r < 0.1 or sp.r > 0.95:
            continue
        eps = 1e-6
        bumped = cfg.landmarks.copy()
        bumped[int(rng.integers(0, 3)), int(rng.integers(0, 2))] += eps
        sp2 = shape_point(Configuration(bumped))
        scale = np.linalg.norm(cfg.landmarks - cfg.landmarks.mean(axis=0))
        assert math.hypot(sp2.u - sp.u, sp2.v - sp.v) < 100 * eps / scale
        count += 1


def test_shape_point_roundtrip_and_validation():
    sp = ShapePoint(r=0.3, phi=5.0)
    again = ShapePoint.from_rect(sp.u, sp.v)
    assert abs(again.r - sp.r) <= 1e-12
    assert abs(again.phi - sp.phi) <= 1e-12
    with pytest.raises(OutOfDiskError):
        ShapePoint(r=1.2, phi=0.0)


def test_configuration_validation():
    with pytest.raises(ValueError):
        Configuration(np.zeros((2, 2)))
    with pytest.raises(ValueError):
        Configuration(np.array([[0.0, np.inf], [1.0, 0.0], [0.0, 1.0]]))


def test_side_lengths_validation():
    with pytest.raises(ValueError):
        SideLengths(0.5, 0.5, 0.5)
    with pytest.raises(ValueError):
        SideLengths(0.9, 0.05, 0.05)  # violates the triangle inequality


def test_configuration_from_sides_with_a_and_b_coincident():
    rebuilt = configuration_from_sides(SideLengths(0.5, 0.5, 0.0), p=3)
    np.testing.assert_array_equal(rebuilt.landmarks[0], rebuilt.landmarks[1])
    np.testing.assert_allclose(side_lengths(rebuilt).as_tuple(), (0.5, 0.5, 0.0), atol=1e-15)
    assert rebuilt.p == 3


def test_configuration_from_sides_realizes_lengths():
    rng = np.random.default_rng(16)
    for _ in range(300):
        cfg = random_configuration(rng, p=3)
        target = side_lengths(cfg)
        rebuilt = configuration_from_sides(target, p=4)
        np.testing.assert_allclose(
            side_lengths(rebuilt).as_tuple(), target.as_tuple(), atol=1e-9
        )
        assert rebuilt.p == 4
