import math

import numpy as np
import pytest
from scipy import integrate

from ibistat import (
    Configuration,
    DomainError,
    ShapePoint,
    SideLengths,
    UndefinedCosineIBIError,
    cosine_ibi,
    distance_to_midpoint,
    null_density_polar,
    null_density_sides,
    null_density_uv,
    offset_normal_density,
    radius_null_cdf,
    shape_point,
    side_lengths,
    sides_from_shape,
    tau_ibi,
    tau_null_cdf,
    tau_null_density,
)
from conftest import random_configuration

MIDPOINT_SIDES = SideLengths(1 / 6, 2 / 3, 1 / 6)


def test_gamma_midpoint_is_one():
    assert abs(cosine_ibi(MIDPOINT_SIDES) - 1.0) <= 1e-12


def test_gamma_right_angle_is_zero():
    cfg = Configuration(np.array([[0.0, 0.0], [1.0, 0.0], [1.0, 1.0]]))
    assert abs(cosine_ibi(side_lengths(cfg))) <= 1e-12


def test_gamma_iris_sepal_standardized():
    # overall per-feature standardization of the two sepal features
    from ibistat import observed_ibi
    from conftest import iris_config
    from ibistat.report import load_csv

    ds = load_csv(iris_config().input_path, iris_config(("sepal_length", "sepal_width")))
    assert abs(observed_ibi(ds, mode="feature").gamma - 0.103) <= 0.001


def test_gamma_undefined_at_side_collapse():
    with pytest.raises(UndefinedCosineIBIError):
        cosine_ibi(SideLengths(0.0, 0.5, 0.5))
    with pytest.raises(UndefinedCosineIBIError):
        cosine_ibi(SideLengths(0.5, 0.5, 0.0))


def test_gamma_sign_on_degenerate_triangles():
    rng = np.random.default_rng(21)
    for _ in range(200):
        a, c = rng.uniform(0.2, 1.0, size=2)
        inside = Configuration(
            np.array([[0.0, 0.0], [c, 0.0], [c + a, 0.0]])
        )  # B strictly between A and C
        assert abs(cosine_ibi(side_lengths(inside)) - 1.0) <= 1e-9
        outside = Configuration(
            np.array([[0.0, 0.0], [c + a, 0.0], [c, 0.0]])
        )  # B beyond C
        assert abs(cosine_ibi(side_lengths(outside)) + 1.0) <= 1e-9


def test_tau_extremes_and_center():
    assert abs(tau_ibi(ShapePoint(r=1.0, phi=math.pi / 3)) - 1.0) <= 1e-12
    assert abs(tau_ibi(ShapePoint(r=0.0, phi=0.0))) <= 1e-12
    coincident_ac = Configuration(np.array([[1.0, 1.0], [0.0, 0.0], [1.0, 1.0]]))
    assert abs(tau_ibi(shape_point(coincident_ac)) + 1.0) <= 1e-9


def test_tau_iris_all_features_raw():
    lm = np.array(
        [
            [5.006, 3.428, 1.462, 0.246],
            [5.936, 2.770, 4.260, 1.326],
            [6.588, 2.974, 5.552, 2.026],
        ]
    )
    assert abs(tau_ibi(shape_point(Configuration(lm))) - 0.909) <= 0.001


def test_tau_three_equivalent_forms():
    rng = np.random.default_rng(22)
    for _ in range(1000):
        cfg = random_configuration(rng, p=int(rng.integers(2, 6)))
        sp = shape_point(cfg)
        polar = sp.r * math.cos(math.pi / 3 - sp.phi)
        rect = 0.5 * sp.u + 0.5 * math.sqrt(3) * sp.v
        via_sides = 3.0 * side_lengths(cfg).b2 - 1.0
        assert abs(polar - rect) < 1e-12
        assert abs(rect - via_sides) < 1e-9
        assert abs(tau_ibi(sp) - rect) < 1e-12


def test_tau_equals_cos_twice_midpoint_distance():
    rng = np.random.default_rng(23)
    for _ in range(1000):
        sp = ShapePoint(r=math.sqrt(rng.uniform()), phi=rng.uniform(0, 2 * math.pi))
        assert abs(tau_ibi(sp) - math.cos(2.0 * distance_to_midpoint(sp))) <= 1e-12


def test_radius_density_p3_is_triangular():
    r = np.linspace(0, 1, 11)
    np.testing.assert_allclose(null_density_polar(r, 3), 2 * r, atol=1e-15)


def test_radius_density_integrates_to_one():
    for p in (2, 3, 4, 8):
        val, _ = integrate.quad(lambda r: null_density_polar(r, p), 0.0, 1.0)
        assert abs(val - 1.0) <= 1e-8
    assert null_density_polar(0.0, 2) == 0.0
    assert null_density_polar(1.0, 2) == math.inf


def test_radius_cdf_matches_density():
    for p in (2, 4, 7):
        for x in (0.2, 0.5, 0.9):
            val, _ = integrate.quad(lambda r: null_density_polar(r, p), 0.0, x)
            assert abs(val - radius_null_cdf(x, p)) <= 1e-8


def test_uv_density_p3_uniform():
    assert abs(null_density_uv(0.3, -0.2, 3) - 1.0 / math.pi) <= 1e-15


def test_uv_density_integrates_to_one():
    for p in (2, 5):
        val, err = integrate.dblquad(
            lambda rho, ang: null_density_uv(rho * math.cos(ang), rho * math.sin(ang), p)
            * rho,
            0.0,
            2 * math.pi,
            0.0,
            1.0,
        )
        assert abs(val - 1.0) <= 1e-6
    with pytest.raises(DomainError):
        null_density_uv(0.9, 0.9, 3)


def test_uv_density_angular_integral_recovers_radius_marginal():
    for p in (2, 4, 6):
        for r in (0.2, 0.6, 0.9):
            total = null_density_uv(r, 0.0, p) * 2 * math.pi * r
            assert abs(total - null_density_polar(r, p)) <= 1e-8


def test_sides_density_equilateral_p3():
    assert abs(null_density_sides(SideLengths(1 / 3, 1 / 3, 1 / 3), 3) - 3 / math.pi) <= 1e-12


def test_sides_density_boundary():
    assert null_density_sides(MIDPOINT_SIDES, 5) == 0.0
    assert null_density_sides(MIDPOINT_SIDES, 2) == math.inf


def test_sides_density_pushforward_ratio():
    # the side-length map multiplies the area element by a constant, so the
    # two densities must differ by the fixed factor 3 * 12^(-(p-3)/2)
    rng = np.random.default_rng(24)
    p = 5
    expected = 3.0 * 12.0 ** (-(p - 3) / 2.0)
    for _ in range(200):
        sp = ShapePoint(r=0.97 * math.sqrt(rng.uniform()), phi=rng.uniform(0, 2 * math.pi))
        ratio = null_density_sides(sides_from_shape(sp), p) / null_density_uv(sp.u, sp.v, p)
        assert abs(ratio - expected) <= 1e-8


def test_tau_density_small_p_closed_forms():
    t = np.linspace(-1, 1, 9)
    np.testing.assert_allclose(tau_null_density(t, 2), 0.5, atol=1e-12)
    np.testing.assert_allclose(
        tau_null_density(t, 3), 2.0 / math.pi * np.sqrt(1 - t * t), atol=1e-12
    )


def test_tau_density_integrates_to_one():
    for p in (2, 3, 5, 10):
        val, _ = integrate.quad(lambda t: tau_null_density(t, p), -1.0, 1.0)
        assert abs(val - 1.0) <= 1e-8


def test_tau_cdf_properties():
    for p in (2, 4, 9):
        assert abs(tau_null_cdf(0.0, p) - 0.5) <= 1e-12
        assert tau_null_cdf(-1.0, p) == 0.0
        assert tau_null_cdf(1.0, p) == 1.0
        grid = np.linspace(-1, 1, 21)
        assert np.all(np.diff(tau_null_cdf(grid, p)) >= 0.0)
        # numeric derivative of the cdf recovers the density
        for t in (-0.6, 0.1, 0.7):
            h = 1e-6
            deriv = (tau_null_cdf(t + h, p) - tau_null_cdf(t - h, p)) / (2 * h)
            assert abs(deriv - tau_null_density(t, p)) <= 1e-6


def test_tau_density_large_p_stable():
    val = tau_null_density(0.0, 400)
    assert math.isfinite(val) and val > 0.0


def test_offset_normal_kernel_values():
    assert offset_normal_density(0.3, 0.0) == 1.0
    assert abs(offset_normal_density(0.0, 2.0) - 5.0) <= 1e-12
    assert abs(offset_normal_density(math.pi / 2, 2.0) - math.exp(-4.0)) <= 1e-12
    rho = np.linspace(0.0, math.pi / 2, 50)
    vals = offset_normal_density(rho, 3.0)
    assert np.all(np.diff(vals) < 0.0)
    with pytest.raises(DomainError):
        offset_normal_density(2.0, 1.0)
    with pytest.raises(DomainError):
        offset_normal_density(0.5, -1.0)


def test_domain_errors():
    with pytest.raises(DomainError):
        null_density_polar(1.5, 3)
    with pytest.raises(DomainError):
        tau_null_density(1.5, 3)
    with pytest.raises(DomainError):
        tau_null_cdf(-2.0, 3)
    with pytest.raises(DomainError):
        null_density_polar(0.5, 1)
