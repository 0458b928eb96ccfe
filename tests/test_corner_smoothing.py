import math

import numpy as np
import pytest

from _oracles import numpy_mean_curvature_limit, numpy_simpson, numpy_smoothing_arc
from dihedral_lab.corner_smoothing import (
    _simpson,
    mean_curvature_limit,
    smoothing_arc,
    turning_integral,
)

ANGLES = [math.pi / 3, math.pi / 2, 2 * math.pi / 3, 1.5 * math.pi]


def cross2(a, b):
    return float(a[0] * b[1] - a[1] * b[0])


class TestSmoothingArc:
    def test_right_angle_fillet(self):
        c = smoothing_arc(math.pi / 2, 0.1)
        assert np.allclose(np.abs(c.curvature), 1.0 / 0.1)
        assert math.hypot(*c.points[0]) == pytest.approx(0.1 / math.tan(math.pi / 4))
        # quarter circle: arc length r (pi - theta)
        assert c.arclength[-1] == pytest.approx(0.1 * (math.pi - math.pi / 2))

    def test_two_thirds_angle_subtends_third(self):
        c = smoothing_arc(2 * math.pi / 3, 0.05)
        assert c.arclength[-1] == pytest.approx(0.05 * math.pi / 3)

    def test_reflex_exterior_arc(self):
        c = smoothing_arc(1.5 * math.pi, 0.1)
        assert np.all(np.asarray(c.curvature) < 0.0)
        assert c.arclength[-1] == pytest.approx(0.1 * (1.5 * math.pi - math.pi))

    @pytest.mark.parametrize("angle", ANGLES)
    def test_curvature_bound_and_sign(self, angle):
        r = 0.07
        c = smoothing_arc(angle, r)
        assert np.abs(c.curvature).max() <= 1.0 / r + 1e-12
        assert np.all(np.sign(c.curvature) == np.sign(c.curvature[0]))

    @pytest.mark.parametrize("angle", ANGLES)
    def test_meets_edges_tangentially(self, angle):
        c = smoothing_arc(angle, 0.05)
        edge1 = np.array([1.0, 0.0])
        edge2 = np.array([math.cos(angle), math.sin(angle)])
        assert abs(cross2(c.tangents[0], edge1)) <= 1e-12
        assert abs(cross2(c.tangents[-1], edge2)) <= 1e-12
        # start/end points lie on the edges
        assert abs(c.points[0][1]) <= 1e-12
        assert abs(cross2(c.points[-1], edge2)) <= 1e-12

    @pytest.mark.parametrize("angle", ANGLES)
    def test_tangents_consistent_with_positions(self, angle):
        c = smoothing_arc(angle, 0.05)
        fd = np.gradient(c.points, c.arclength, axis=0)
        assert np.abs(fd[1:-1] - c.tangents[1:-1]).max() <= 1e-5

    def test_straight_corner_rejected(self):
        with pytest.raises(ValueError):
            smoothing_arc(math.pi, 0.1)

    def test_radius_too_large(self):
        with pytest.raises(ValueError):
            smoothing_arc(math.pi / 2, 2.0, edge_length=1.0)

    def test_bad_inputs(self):
        with pytest.raises(ValueError):
            smoothing_arc(0.0, 0.1)
        with pytest.raises(ValueError):
            smoothing_arc(1.0, -0.1)

    @pytest.mark.parametrize("radius", [0.0, -0.0, math.inf, -math.inf, math.nan])
    def test_non_finite_or_zero_radius_rejected(self, radius):
        with pytest.raises(ValueError, match="radius must be positive and finite"):
            smoothing_arc(1.0, radius, edge_length=math.inf)


class TestTurningIntegral:
    @pytest.mark.parametrize("angle", ANGLES)
    def test_equals_pi_minus_angle(self, angle):
        c = smoothing_arc(angle, 0.1)
        assert abs(turning_integral(c) - (math.pi - angle)) <= 1e-8

    def test_quarter_turn(self):
        assert turning_integral(smoothing_arc(math.pi / 2, 0.03)) == pytest.approx(
            math.pi / 2, abs=1e-8)

    def test_reflex_negative(self):
        # the signed turning oracle: traversing the exterior arc turns
        # clockwise by angle - pi
        value = turning_integral(smoothing_arc(1.5 * math.pi, 0.05))
        assert value == pytest.approx(-math.pi / 2, abs=1e-8)
        assert value < 0.0

    @pytest.mark.parametrize("angle", ANGLES)
    def test_sign_law(self, angle):
        value = turning_integral(smoothing_arc(angle, 0.02))
        assert (value > 0) == (angle < math.pi)


class TestMeanCurvatureLimit:
    def test_constant_test_function_exact(self):
        values = mean_curvature_limit(math.pi / 3, "1", (0.1, 0.05, 0.025))
        for v in values:
            assert v == pytest.approx(math.pi - math.pi / 3, abs=1e-8)

    def test_reflex_constant(self):
        values = mean_curvature_limit(1.5 * math.pi, "1", (0.1, 0.05))
        for v in values:
            assert v == pytest.approx(-math.pi / 2, abs=1e-8)

    def test_linear_test_function_first_order(self):
        # Taylor-remainder oracle: errors halve when the radius halves
        radii = (0.1, 0.05, 0.025)
        values = mean_curvature_limit(math.pi / 2, "1 + x1", radii)
        target = (math.pi - math.pi / 2) * 1.0  # phi(vertex)^2 = 1
        errors = [abs(v - target) for v in values]
        for e0, e1 in zip(errors, errors[1:]):
            assert 1.5 <= e0 / e1 <= 2.5

    def test_quadratic_test_function_converges(self):
        radii = (0.2, 0.1, 0.05, 0.025)
        values = mean_curvature_limit(2 * math.pi / 3, "1 + x1 + x2^2", radii)
        target = math.pi / 3
        errors = [abs(v - target) for v in values]
        assert errors[-1] < errors[0]
        assert errors[-1] <= 0.05


class TestAgainstNumpyReference:
    """The stdlib fillet against the numpy arrays and ``np.dot`` Simpson rule
    it replaced (``tests/_oracles.py``)."""

    GRID = [(angle, r) for angle in (0.4, math.pi / 2, 2.5, math.pi - 0.01,
                                     math.pi + 0.01, 4.0, 5.5)
            for r in (0.1, 0.03, 0.004)]

    @pytest.mark.parametrize("angle, r", GRID)
    def test_samples(self, angle, r):
        ours, ref = smoothing_arc(angle, r, 10.0), numpy_smoothing_arc(angle, r, 10.0)
        for field in ("arclength", "points", "tangents", "curvature"):
            ours_f, ref_f = np.asarray(getattr(ours, field)), getattr(ref, field)
            assert ours_f.shape == ref_f.shape
            assert np.abs(ours_f - ref_f).max() <= 1e-15
        assert math.hypot(*ours.points[0]) == pytest.approx(
            math.hypot(*ref.points[0]), rel=1e-15)

    @pytest.mark.parametrize("angle, r", GRID)
    def test_integrals(self, angle, r):
        ours, ref = smoothing_arc(angle, r, 10.0), numpy_smoothing_arc(angle, r, 10.0)
        spacing = ref.arclength[1] - ref.arclength[0]
        assert turning_integral(ours) == pytest.approx(
            numpy_simpson(ref.curvature, spacing), rel=1e-14, abs=0.0)
        for phi in ("1", "1 + x1", "cos(x1)*x2"):
            assert mean_curvature_limit(angle, phi, (r,), 10.0) == pytest.approx(
                numpy_mean_curvature_limit(angle, phi, (r,), 10.0), rel=1e-14, abs=0.0)

    @pytest.mark.parametrize("count", [1, 3, 5, 2049])
    def test_simpson_weights(self, count):
        values = [math.sin(0.37 * i) + 2.0 for i in range(count)]
        assert _simpson(values, 0.125) == pytest.approx(
            numpy_simpson(np.array(values), 0.125), rel=1e-14, abs=0.0)

    def test_simpson_even_count_rejected(self):
        with pytest.raises(ValueError, match="odd sample count"):
            _simpson([1.0, 2.0], 0.1)
