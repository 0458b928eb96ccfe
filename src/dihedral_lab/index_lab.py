"""Discrete de Rham complexes on flat polygons and the index experiment.

The complexes are the primal cochain complexes of a grid square (cubical)
or a grid right triangle (simplicial).  Cochains on the primal grid carry
no boundary-normal degrees of freedom (the normal components of 1-forms
live on dual edges crossing the boundary, which are absent here), so the
combinatorial Hodge Laplacians of ``d0, d1`` compute the cohomology with
tangential (absolute) boundary conditions: ``(1, 0, 0)`` per disk
component.

For flat targets the twisted boundary-value operator reduces to this
de Rham complex, so its Fredholm index can be read off as the alternating
sum ``b0 - b1 + b2`` (even-minus-odd harmonic dimensions) and compared
against (mapping degree) x (Euler characteristic of the target).  Maps are
restricted to per-component affine pieces with a closed-form degree.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

__all__ = [
    "DecComplex",
    "dec_complex",
    "harmonic_dims",
    "index_experiment",
    "polygon_corners",
    "PolygonError",
]


class PolygonError(ValueError):
    """Unsupported polygon or degenerate resolution."""


@dataclass(frozen=True)
class DecComplex:
    """Incidence matrices of a polygon complex; ``d1 @ d0 = 0`` exactly."""

    vertex_count: int
    edge_count: int
    face_count: int
    d0: np.ndarray  # (E, V)
    d1: np.ndarray  # (F, E)

    def composition_residual(self) -> float:
        return float(np.abs(self.d1 @ self.d0).max())


def _square_complex(k: int):
    vid = {(i, j): n for n, (i, j) in enumerate(
        (i, j) for j in range(k + 1) for i in range(k + 1))}
    edges = []
    eid = {}
    for j in range(k + 1):
        for i in range(k):
            eid[("h", i, j)] = len(edges)
            edges.append((vid[(i, j)], vid[(i + 1, j)]))
    for j in range(k):
        for i in range(k + 1):
            eid[("v", i, j)] = len(edges)
            edges.append((vid[(i, j)], vid[(i, j + 1)]))
    faces = []
    for j in range(k):
        for i in range(k):
            # counterclockwise: bottom, right, -top, -left
            faces.append([
                (eid[("h", i, j)], 1.0),
                (eid[("v", i + 1, j)], 1.0),
                (eid[("h", i, j + 1)], -1.0),
                (eid[("v", i, j)], -1.0),
            ])
    return len(vid), edges, faces


def _triangle_complex(k: int):
    vid = {}
    for j in range(k + 1):
        for i in range(k + 1 - j):
            vid[(i, j)] = len(vid)
    edges = []
    eid = {}
    for j in range(k + 1):
        for i in range(k - j):
            eid[("h", i, j)] = len(edges)
            edges.append((vid[(i, j)], vid[(i + 1, j)]))
    for j in range(k):
        for i in range(k - j):
            eid[("v", i, j)] = len(edges)
            edges.append((vid[(i, j)], vid[(i, j + 1)]))
    for j in range(k):
        for i in range(k - j):
            eid[("d", i, j)] = len(edges)
            edges.append((vid[(i + 1, j)], vid[(i, j + 1)]))
    faces = []
    for j in range(k):
        for i in range(k - j):
            # lower triangle (i,j) -> (i+1,j) -> (i,j+1) -> (i,j)
            faces.append([
                (eid[("h", i, j)], 1.0),
                (eid[("d", i, j)], 1.0),
                (eid[("v", i, j)], -1.0),
            ])
            if i + j <= k - 2:
                # upper triangle (i+1,j) -> (i+1,j+1) -> (i,j+1) -> (i+1,j)
                faces.append([
                    (eid[("v", i + 1, j)], 1.0),
                    (eid[("h", i, j + 1)], -1.0),
                    (eid[("d", i, j)], -1.0),
                ])
    return len(vid), edges, faces


def _assemble(parts) -> DecComplex:
    nv = sum(p[0] for p in parts)
    ne = sum(len(p[1]) for p in parts)
    nf = sum(len(p[2]) for p in parts)
    d0 = np.zeros((ne, nv))
    d1 = np.zeros((nf, ne))
    v_off = e_off = f_off = 0
    for vcount, edges, faces in parts:
        for e, (tail, head) in enumerate(edges):
            d0[e_off + e, v_off + tail] = -1.0
            d0[e_off + e, v_off + head] = 1.0
        for f, boundary in enumerate(faces):
            for e, sign in boundary:
                d1[f_off + f, e_off + e] = sign
        v_off += vcount
        e_off += len(edges)
        f_off += len(faces)
    return DecComplex(nv, ne, nf, d0, d1)


def _polygon_parts(polygon: dict, resolution: int) -> list:
    if not isinstance(polygon, dict):
        raise PolygonError("a polygon must be an object {\"type\": ...}")
    ptype = polygon.get("type")
    if ptype == "square":
        return [_square_complex(resolution)]
    if ptype == "right_triangle":
        return [_triangle_complex(resolution)]
    if ptype == "union":
        out = []
        for part in polygon.get("parts", []):
            out.extend(_polygon_parts(part, resolution))
        if not out:
            raise PolygonError("empty union polygon")
        return out
    raise PolygonError(f"unsupported polygon type {ptype!r} "
                       "(grid-alignable square or right_triangle)")


def dec_complex(polygon: dict, resolution: int) -> DecComplex:
    """Cochain complex of a grid polygon at the given resolution.

    ``polygon`` is ``{"type": "square"}``, ``{"type": "right_triangle"}``
    or ``{"type": "union", "parts": [...]}`` (components are combinatorially
    disjoint).
    """
    if resolution < 1:
        raise PolygonError("resolution must be at least 1")
    return _assemble(_polygon_parts(polygon, resolution))


def harmonic_dims(complex_: DecComplex) -> tuple[int, int, int]:
    """Kernel dimensions of the three Hodge Laplacians (b0, b1, b2)."""
    if complex_.composition_residual() != 0.0:
        raise ValueError("complex is broken: d1 d0 != 0")
    r0 = int(np.linalg.matrix_rank(complex_.d0)) if complex_.edge_count else 0
    r1 = int(np.linalg.matrix_rank(complex_.d1)) if complex_.face_count else 0
    b0 = complex_.vertex_count - r0
    b1 = complex_.edge_count - r0 - r1
    b2 = complex_.face_count - r1
    return b0, b1, b2


# ---------------------------------------------------------------------------
# Index experiment
# ---------------------------------------------------------------------------

_CORNERS = {
    "square": [(0.0, 0.0), (1.0, 0.0), (1.0, 1.0), (0.0, 1.0)],
    "right_triangle": [(0.0, 0.0), (1.0, 0.0), (0.0, 1.0)],
}


def polygon_corners(polygon: dict) -> list[tuple[float, float]]:
    ptype = polygon.get("type")
    if ptype in _CORNERS:
        return list(_CORNERS[ptype])
    raise PolygonError(f"no corner table for polygon type {ptype!r}")


def _inside_polygon(polygon: dict, point, tol: float = 1e-9) -> bool:
    x, y = point
    ptype = polygon.get("type")
    if ptype == "square":
        return -tol <= x <= 1.0 + tol and -tol <= y <= 1.0 + tol
    if ptype == "right_triangle":
        return x >= -tol and y >= -tol and x + y <= 1.0 + tol
    raise PolygonError(f"membership undefined for polygon type {ptype!r}")


def index_experiment(scene: dict) -> dict:
    """Compare the cohomological index with degree x Euler characteristic.

    Scene schema::

        {"resolution": 8,
         "M": {"type": "square"},
         "N": [{"polygon": {"type": "square"},
                "map": {"matrix": [[1, 0], [0, 1]], "offset": [0, 0]}},
               ...]}

    Each source component maps to the target by its affine piece; the
    mapping degree is the sum of the Jacobian-determinant signs.  Negative
    or zero total degree is reported but the match flag simply records
    whether ``index == deg * chi``.
    """
    if not isinstance(scene, dict):
        raise PolygonError("index scene must be a JSON object")
    try:
        resolution = int(scene.get("resolution", 8))
        target = scene["M"]
        components = scene["N"]
    except KeyError as exc:
        raise PolygonError(f"index scene missing key {exc}") from exc
    except TypeError as exc:
        raise PolygonError("'resolution' must be an integer") from exc
    if not (isinstance(components, list) and all(
            isinstance(c, dict) and isinstance(c.get("map"), dict) for c in components)):
        raise PolygonError("'N' must be a list of {\"polygon\": ..., \"map\": {...}}")
    if not components:
        raise PolygonError("scene needs at least one source component")

    chi = _euler_characteristic(target, resolution)  # also checks 'M'
    parts = []
    degree = 0
    for comp in components:
        poly = comp["polygon"]
        parts.extend(_polygon_parts(poly, resolution))
        mat = np.asarray(comp["map"]["matrix"], dtype=float)
        offset = np.asarray(comp["map"].get("offset", (0.0, 0.0)), dtype=float)
        if mat.shape != (2, 2):
            raise PolygonError("affine map matrix must be 2 x 2")
        det = float(np.linalg.det(mat))
        if det == 0.0:
            raise PolygonError("affine map is degenerate (zero determinant)")
        for corner in polygon_corners(poly):
            image = mat @ np.asarray(corner) + offset
            if not _inside_polygon(target, image, tol=1e-9):
                raise PolygonError(
                    f"component corner {corner} maps to {image.tolist()}, "
                    "outside the target polygon"
                )
        degree += 1 if det > 0 else -1

    b0, b1, b2 = harmonic_dims(_assemble(parts))
    index = b0 - b1 + b2
    return {
        "b0": b0,
        "b1": b1,
        "b2": b2,
        "index": index,
        "chi": chi,
        "deg": degree,
        "match": index == degree * chi,
    }


def _euler_characteristic(polygon: dict, resolution: int) -> int:
    c0, c1, c2 = harmonic_dims(dec_complex(polygon, resolution))
    return c0 - c1 + c2
