import dataclasses
import json

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from mfeit.errors import ConstraintViolation, InvalidResolution
from mfeit.geometry import (DomainConfig, StarShape, build_star_shape, circle,
                            class_rows, class_violation, discretize,
                            fourier_series, r_inf, unit_circle_grid)

from conftest import TREFOIL

CFG = DomainConfig()


def _signed_area(grid):
    """Half the boundary integral of x . nu (divergence theorem)."""
    x_dot_nu = np.sum(grid.points * grid.normals, axis=1)
    return float(0.5 * np.sum(grid.weights * x_dot_nu))


def test_domain_config_defaults_and_validation():
    assert CFG.b0 == 0.2 and CFG.delta == 0.1
    assert [f.name for f in dataclasses.fields(DomainConfig)] == [
        "b0", "delta", "m", "k0"]
    with pytest.raises(ValueError):
        DomainConfig(k0=-1.0)
    with pytest.raises(ValueError):
        DomainConfig(b0=0.95)
    # the unit disk's radius is no setting
    with pytest.raises(TypeError):
        DomainConfig.from_dict({"b1": 1.0})
    assert DomainConfig.from_dict(dataclasses.asdict(CFG)) == CFG


def test_star_shape_requires_constant_term():
    with pytest.raises(ValueError):
        StarShape(cos=())


def test_radius_derivatives_match_finite_differences():
    shape = StarShape(cos=(0.5, 0.03, 0.0, 0.08), sin=(0.02, 0.0, 0.01))
    theta = np.linspace(0, 2 * np.pi, 17)
    h = 1e-6
    d1_fd = (shape.radius(theta + h) - shape.radius(theta - h)) / (2 * h)
    d2_fd = (shape.radius(theta + h) - 2 * shape.radius(theta)
             + shape.radius(theta - h)) / h**2
    _, r1, r2 = fourier_series(shape.cos, shape.sin, theta)
    assert np.allclose(r1, d1_fd, atol=1e-8)
    assert np.allclose(r2, d2_fd, atol=1e-3)


def test_points_lie_at_radius():
    shape = StarShape(cos=(0.5, 0.0, 0.0, 0.08))
    g = discretize(shape, 64)
    assert np.allclose(np.hypot(g.points[:, 0], g.points[:, 1]),
                       shape.radius(g.t))


@given(st.lists(st.floats(-0.02, 0.02), min_size=0, max_size=4),
       st.lists(st.floats(-0.02, 0.02), min_size=0, max_size=4))
@settings(max_examples=30)
def test_shape_json_round_trip(cos_tail, sin_coeffs):
    shape = StarShape(cos=tuple([0.5] + cos_tail), sin=tuple(sin_coeffs))
    again = StarShape.from_json(shape.to_json())
    assert again == shape


def test_build_star_shape_validates_band_and_norm():
    assert build_star_shape((0.5, 0, 0, 0.08), (), CFG) is not None
    with pytest.raises(ConstraintViolation) as e:
        build_star_shape((0.15,), (), CFG)
    assert "b0" in str(e.value)
    with pytest.raises(ConstraintViolation) as e:
        build_star_shape((0.95,), (), CFG)
    assert "1 - delta" in str(e.value)
    # high mode with large second derivative breaks the C2 bound
    coeffs = [0.5] + [0.0] * 15 + [0.25]  # mode 16: |r''| alone is 64
    with pytest.raises(ConstraintViolation) as e:
        build_star_shape(tuple(coeffs), (), CFG)
    assert "norm" in str(e.value) or "m" in str(e.value)


def test_class_rows_margin_tightens_the_band():
    """E x <= h at margin 0 exactly when ``class_violation`` passes; the
    margin moves every bound inward, past both circles near the band's
    edges."""
    mode16 = StarShape(cos=(0.5,) + (0.0,) * 15 + (0.25,))
    for shape, M in [(TREFOIL, 3), (circle(0.2005), 0), (circle(0.8995), 0),
                     (mode16, 16)]:
        x = np.array(list(shape.cos) + [0.0] * (2 * M + 1 - len(shape.cos)))
        E, h = class_rows(M, CFG, 0.0)
        assert np.all(E @ x <= h) == (class_violation(shape, CFG) is None)
        E, h = class_rows(M, CFG, 1e-3)
        assert np.all(E @ x <= h) == (shape == TREFOIL)
    assert not E.flags.writeable and not h.flags.writeable


@pytest.mark.parametrize("cos,sin", [((np.nan,), ()), ((0.5, np.nan), ()),
                                     ((0.5,), (np.nan,))],
                         ids=["a0", "cos", "sin"])
def test_nan_shape_violates_the_class(cos, sin):
    """Every comparison with NaN is false; only ``not c2 <= m`` catches it."""
    v = class_violation(StarShape(cos=cos, sin=sin), CFG)
    assert v.which == "C2 norm bound m" and v.theta == 0.0
    assert np.isnan(v.value)
    with pytest.raises(ConstraintViolation):
        build_star_shape(cos, sin, CFG)


def test_constraint_violation_carries_location():
    with pytest.raises(ConstraintViolation) as e:
        build_star_shape((0.5, 0.35), (), CFG)
    exc = e.value
    assert hasattr(exc, "theta") and hasattr(exc, "value") and hasattr(exc, "bound")
    # 0.5 + 0.35 cos(theta) first dips under b0, worst at theta = pi
    assert "b0" in exc.which
    assert abs(exc.theta - np.pi) < 0.1


def test_discretize_rejects_bad_resolution():
    with pytest.raises(InvalidResolution):
        discretize(circle(0.5), 15)
    with pytest.raises(InvalidResolution):
        discretize(circle(0.5), 8)


def test_circle_grid_geometry():
    r = 0.5
    g = discretize(circle(r), 128)
    assert g.n == 128
    assert np.isclose(g.perimeter, 2 * np.pi * r, rtol=1e-12)
    assert np.isclose(_signed_area(g), np.pi * r * r, rtol=1e-12)
    assert np.allclose(g.curvature, 1 / r)
    assert np.allclose(g.jacobian, r)
    # outward unit normals
    assert np.allclose(np.hypot(g.normals[:, 0], g.normals[:, 1]), 1.0)
    assert np.allclose(g.normals, g.points / r, atol=1e-14)


def test_star_grid_normals_outward_and_area():
    shape = StarShape(cos=(0.5, 0, 0, 0.08))
    g = discretize(shape, 256)
    # star-shaped about origin: x . nu > 0 everywhere
    assert np.all(np.sum(g.points * g.normals, axis=1) > 0)
    # area of r = a0 + a3 cos(3t): pi (a0^2 + a3^2 / 2)
    assert np.isclose(_signed_area(g), np.pi * (0.25 + 0.08**2 / 2),
                      rtol=1e-12)


def test_unit_circle_grid():
    g = unit_circle_grid(64)
    assert np.isclose(g.perimeter, 2 * np.pi, rtol=1e-13)
    assert np.allclose(np.hypot(g.points[:, 0], g.points[:, 1]), 1.0)


def test_unit_circle_grid_is_built_once_and_read_only():
    g = unit_circle_grid(64)
    assert unit_circle_grid(64) is g
    for a in (g.t, g.points, g.normals, g.jacobian, g.curvature):
        with pytest.raises(ValueError):
            a[0] = 0.0


def test_r_inf_closed_forms():
    assert np.isclose(r_inf(circle(0.3)), 0.3, rtol=1e-12)
    shape = StarShape(cos=(0.5, 0, 0, 0.08))
    theta = np.linspace(0, 2 * np.pi, 100_000, endpoint=False)
    r, r1, _ = fourier_series(shape.cos, shape.sin, theta)
    expect = np.min(r * r / np.sqrt(r * r + r1 * r1))
    assert np.isclose(r_inf(shape), expect, rtol=1e-12)
