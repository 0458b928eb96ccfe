"""The index experiment on flat polygons, in closed form.

Source components are grid polygons (``square`` or ``right_triangle``),
each mapped into a flat target polygon by an affine piece; a source of
several parts lists one component per part.  For a flat target the twisted
boundary-value operator reduces to the de Rham complex of the source with
tangential boundary conditions, whose index ``b0 - b1 + b2`` is the Euler
characteristic ``V - E + F`` of any cell complex of the source.  Each supported part is a disk (the k x k
grid square has ``(k+1)^2 - 2k(k+1) + k^2 = 1``, the grid right triangle
``(k+1)(k+2)/2 - 3k(k+1)/2 + k^2 = 1``), so at every resolution::

    index = V - E + F = #parts,   b0 = #parts,   b1 = b2 = 0,

and ``chi`` of the target, one disk, is 1.  The report compares
``index`` with (mapping degree) x ``chi``.  The reduction to the untwisted
complex covers orientation-preserving pieces only: a reflected piece keeps
``index`` +1 while its degree is -1, so it reports ``match: false``.  The
cochain complexes behind the closed form are a test oracle.
"""

from __future__ import annotations

import math

__all__ = ["index_experiment", "polygon_corners", "PolygonError"]


class PolygonError(ValueError):
    """Unsupported polygon, affine map or resolution."""


_CORNERS = {
    "square": [(0.0, 0.0), (1.0, 0.0), (1.0, 1.0), (0.0, 1.0)],
    "right_triangle": [(0.0, 0.0), (1.0, 0.0), (0.0, 1.0)],
}


def _check_polygon(polygon) -> None:
    """``PolygonError`` unless ``polygon`` is a supported polygon, one disk."""
    if not isinstance(polygon, dict):
        raise PolygonError("a polygon must be an object {\"type\": ...}")
    ptype = polygon.get("type")
    if not (isinstance(ptype, str) and ptype in _CORNERS):
        raise PolygonError(f"unsupported polygon type {ptype!r} "
                           "(grid-alignable square or right_triangle)")


def polygon_corners(polygon: dict) -> list[tuple[float, float]]:
    return list(_CORNERS[polygon["type"]])


def _inside_polygon(polygon: dict, point, tol: float = 1e-9) -> bool:
    x, y = point
    if polygon["type"] == "square":
        return -tol <= x <= 1.0 + tol and -tol <= y <= 1.0 + tol
    return x >= -tol and y >= -tol and x + y <= 1.0 + tol


def _finite(value) -> bool:
    """A JSON number that is a finite float; booleans are not numbers."""
    try:
        return type(value) in (int, float) and math.isfinite(value)
    except OverflowError:  # an integer past the float range
        return False


def _affine_map(spec: dict) -> list:
    """``[a, b, c, d, e, f]`` of ``{"matrix": [[a, b], [c, d]], "offset":
    [e, f]}`` (offset optional, default 0); ``PolygonError`` unless every
    entry is a finite number."""
    matrix, offset = spec["matrix"], spec.get("offset", [0.0, 0.0])
    if not (isinstance(matrix, list) and len(matrix) == 2 and all(
            isinstance(row, list) and len(row) == 2 for row in matrix)):
        raise PolygonError("affine map matrix must be 2 x 2")
    if not (isinstance(offset, list) and len(offset) == 2):
        raise PolygonError("affine map offset must be a list of 2 numbers")
    entries = [*matrix[0], *matrix[1], *offset]
    if not all(map(_finite, entries)):
        raise PolygonError("affine map entries must be finite numbers")
    return entries


def index_experiment(scene: dict) -> dict:
    """Compare the index with degree x Euler characteristic.

    Scene schema::

        {"resolution": 8,
         "M": {"type": "square"},
         "N": [{"polygon": {"type": "square"},
                "map": {"matrix": [[1, 0], [0, 1]], "offset": [0, 0]}},
               ...]}

    ``resolution`` must be an integer >= 1; the closed form does not depend
    on it.  Every corner of a source component must map into the target;
    the mapping degree is the sum of the Jacobian-determinant signs.
    Negative or zero total degree is reported but the match flag simply
    records whether ``index == deg * chi``.
    """
    if not isinstance(scene, dict):
        raise PolygonError("index scene must be a JSON object")
    resolution = scene.get("resolution", 8)
    if type(resolution) is not int:  # JSON booleans and 2.7 are not grids
        raise PolygonError("'resolution' must be an integer")
    try:
        target = scene["M"]
        components = scene["N"]
    except KeyError as exc:
        raise PolygonError(f"index scene missing key {exc}") from exc
    if not (isinstance(components, list) and all(
            isinstance(c, dict) and isinstance(c.get("map"), dict) for c in components)):
        raise PolygonError("'N' must be a list of {\"polygon\": ..., \"map\": {...}}")
    if not components:
        raise PolygonError("scene needs at least one source component")
    if resolution < 1:
        raise PolygonError("resolution must be at least 1")

    _check_polygon(target)
    parts = degree = 0
    for comp in components:
        poly = comp["polygon"]
        _check_polygon(poly)
        parts += 1
        a, b, c, d, e, f = _affine_map(comp["map"])
        det = a * d - b * c  # 0 for every exactly singular matrix
        if det == 0.0:
            raise PolygonError("affine map is degenerate (zero determinant)")
        for corner in polygon_corners(poly):
            x, y = corner
            image = [a * x + b * y + e, c * x + d * y + f]
            if not _inside_polygon(target, image, tol=1e-9):
                raise PolygonError(f"component corner {corner} maps to {image}, "
                                   "outside the target polygon")
        degree += 1 if det > 0 else -1
    return {"b0": parts, "b1": 0, "b2": 0, "index": parts, "chi": 1,
            "deg": degree, "match": parts == degree}
