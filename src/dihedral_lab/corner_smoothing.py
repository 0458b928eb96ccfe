"""Circular-arc smoothing of a planar corner and its turning integrals.

A corner of interior angle theta sits at the origin with one edge along
the positive x-axis and the other along the ray at angle theta (the domain
is the sector swept counterclockwise between them).  The corner is rounded
by the circular fillet tangent to both edges:

- theta < pi: the arc lies inside the domain, signed curvature +1/r;
- theta > pi: the arc lies in the complementary wedge outside the domain,
  signed curvature -1/r (its center-pointing normal is outward).

In both cases the total turning ``integral k ds`` equals ``pi - theta``,
and against a test function the integrals converge to
``(pi - theta) phi(vertex)^2`` at first order in the radius.  Curvature is
constant along the canonical fillet; the constraint it realizes is only
``|k| <= 1/r`` with a fixed sign, so the circle is the simplest admissible
representative.

Scope: only planar (codimension-two) corners are smoothed here.  Rounding
strata of codimension three and higher needs an iterated resolution of the
corner structure whose cross-term curvatures are not pinned down by the
planar data; that machinery is deliberately out of scope.
"""

from __future__ import annotations

import math
import operator

from .expressions import Expr, parse_expression

__all__ = [
    "SmoothedCorner",
    "smoothing_arc",
    "turning_integral",
    "weighted_integral",
    "mean_curvature_limit",
]

ARC_SAMPLES = 2048  # composite-Simpson sample count along the arc


class SmoothedCorner:
    """Arclength samples of the smoothing arc of one corner, as tuples: m floats,
    m ``(x, y)`` points, m unit ``(x, y)`` tangents and m signed curvatures."""

    __slots__ = ("angle", "radius", "arclength", "points", "tangents", "curvature")
    def __init__(self, angle: float, radius: float, arclength: tuple, points: tuple,
                 tangents: tuple, curvature: tuple):
        self.angle, self.radius, self.arclength = angle, radius, arclength
        self.points, self.tangents, self.curvature = points, tangents, curvature


def smoothing_arc(angle: float, radius: float,
                  edge_length: float = 1.0) -> SmoothedCorner:
    """Canonical circular fillet for a corner of interior ``angle``.

    ``angle`` must lie in (0, pi) u (pi, 2 pi); a straight corner needs no
    smoothing and is rejected.  ``radius`` must be positive and finite and
    leave the tangent points within the edges.
    """
    if not (0.0 < angle < 2.0 * math.pi) or angle == math.pi:
        raise ValueError("corner angle must lie in (0, pi) or (pi, 2 pi)")
    if not 0.0 < radius < math.inf:
        raise ValueError(f"radius must be positive and finite, got {radius}")
    if angle < math.pi:
        opening = angle        # fillet of the corner itself, inside
        sign = 1.0
    else:
        opening = 2.0 * math.pi - angle  # fillet of the complementary wedge
        sign = -1.0
    half = 0.5 * opening
    tangent_dist = radius / math.tan(half)
    if tangent_dist > edge_length:
        raise ValueError(
            f"radius {radius} needs tangent points at distance "
            f"{tangent_dist:.3g} > edge length {edge_length}"
        )
    center_dist = radius / math.sin(half)
    if angle < math.pi:
        center_angle = 0.5 * angle
    else:
        # bisector of the complementary wedge, outside the domain
        center_angle = angle + half
    cx = center_dist * math.cos(center_angle)
    cy = center_dist * math.sin(center_angle)
    sweep = math.pi - opening
    length = radius * sweep

    # radius direction at the tangent point (tangent_dist, 0) on the x-axis
    # edge; the arc is traversed from there to the other edge (radius vector
    # rotating clockwise for the interior fillet, counterclockwise for the
    # exterior)
    phi0 = math.atan2((0.0 - cy) / radius, (tangent_dist - cx) / radius)
    step = length / ARC_SAMPLES
    s = tuple([i * step for i in range(ARC_SAMPLES)] + [length])
    phis = [phi0 - sign * si / radius for si in s]
    cosines, sines = list(map(math.cos, phis)), list(map(math.sin, phis))
    points = tuple(zip([cx + radius * c for c in cosines],
                       [cy + radius * z for z in sines]))
    tangents = tuple(zip([sign * z for z in sines], [sign * -c for c in cosines]))
    curvature = (sign / radius,) * len(s)
    return SmoothedCorner(angle, radius, s, points, tangents, curvature)


def _simpson(values, spacing: float) -> float:
    if len(values) % 2 == 0:
        raise ValueError("composite Simpson needs an odd sample count")
    weights = [2.0, 4.0] * (len(values) // 2) + [1.0]
    weights[0] = 1.0
    return math.fsum(map(operator.mul, weights, values)) * spacing / 3.0


def turning_integral(corner: SmoothedCorner) -> float:
    """Total signed turning ``integral k ds`` along the arc (= pi - angle)."""
    spacing = corner.arclength[1] - corner.arclength[0]
    return _simpson(corner.curvature, spacing)


def weighted_integral(corner: SmoothedCorner, phi: Expr) -> float:
    """``integral k(s) phi(x(s))^2 ds`` along the arc."""
    values = list(map(phi.eval, corner.points))
    integrand = [k * (v * v) for k, v in zip(corner.curvature, values)]
    spacing = corner.arclength[1] - corner.arclength[0]
    try:
        total = _simpson(integrand, spacing)
        if math.isfinite(total):
            return total
    except OverflowError:  # math.fsum raises when a partial sum overflows
        pass
    # phi^2 past the float range (phi = 1e200), or their sum (phi = 1e153)
    raise ValueError(f"integral of k phi^2 is not finite for phi = {phi.to_text()}")


def mean_curvature_limit(angle: float, test_function: Expr | str,
                         radii: list[float] | tuple = (0.1, 0.05, 0.025),
                         edge_length: float | None = None) -> list[float]:
    """Integrals ``integral k(s) phi(x(s))^2 ds`` for a shrinking fillet.

    As the radius drops to zero these converge to
    ``(pi - angle) phi(vertex)^2`` with an O(radius) error; consecutive
    errors shrink proportionally to the radius ratio.
    """
    phi = (parse_expression(test_function)
           if isinstance(test_function, str) else test_function)
    if edge_length is None:
        edge_length = max(1.0, 10.0 * max(radii))
    return [weighted_integral(smoothing_arc(angle, r, edge_length=edge_length), phi)
            for r in radii]
