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

``d0`` and ``d1`` are index arrays, and the harmonic dimensions come from
graph components and Euler-Poincare, not from a matrix rank.
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
    """Incidences of a polygon complex as index arrays: ``d0`` is -1 at each
    edge's tail and +1 at its head, ``d1`` is ``d1_sign`` at (``d1_face``,
    ``d1_edge``), repeated keys summed; ``d1 d0 = 0`` exactly."""

    vertex_count: int
    edge_count: int
    face_count: int
    edges: np.ndarray  # (E, 2) tail, head
    d1_face: np.ndarray
    d1_edge: np.ndarray
    d1_sign: np.ndarray

    def composition_residual(self) -> float:
        """Largest |entry| of ``d1 d0``, summed over (face, vertex) keys."""
        keys = self.d1_face[:, None] * self.vertex_count + self.edges[self.d1_edge]
        _, slot = np.unique(keys.ravel(), return_inverse=True)
        entries = np.bincount(slot, (self.d1_sign[:, None] * [-1.0, 1.0]).ravel())
        return float(np.abs(entries).max(initial=0.0))


def _square_complex(k: int):
    """Vertex count, edges ``(E, 2)`` and faces as ``(F, 4)`` edge ids and
    signs; vertices, edges and faces are numbered row by row."""
    n = k + 1
    vid = np.arange(n * n).reshape(n, n)  # [j, i]
    edges = np.concatenate([
        np.stack([vid[:, :-1].ravel(), vid[:, 1:].ravel()], axis=1),   # h
        np.stack([vid[:-1, :].ravel(), vid[1:, :].ravel()], axis=1),   # v
    ])
    h_id = np.arange(n * k).reshape(n, k)
    v_id = n * k + np.arange(k * n).reshape(k, n)
    # counterclockwise: bottom, right, -top, -left
    faces = np.stack([h_id[:-1], v_id[:, 1:], h_id[1:], v_id[:, :-1]],
                     axis=-1).reshape(-1, 4)
    signs = np.broadcast_to([1.0, 1.0, -1.0, -1.0], faces.shape)
    return n * n, edges, faces, signs


def _running_ids(mask: np.ndarray) -> np.ndarray:
    """Row-major numbering of the True entries of ``mask`` (others: junk)."""
    return np.cumsum(mask).reshape(mask.shape) - 1


def _triangle_complex(k: int):
    """Same layout as ``_square_complex`` on the lattice points
    ``i + j <= k``; each cell (i, j) holds a lower triangle and, off the
    hypotenuse, an upper one right after it."""
    j, i = np.indices((k + 1, k + 1))
    vid = _running_ids(i + j <= k)
    inner = i + j <= k - 1
    on_h, on_v, on_d = inner[:, :k], inner[:k, :], inner[:k, :k]
    edges = np.concatenate([
        np.stack([vid[:, :-1][on_h], vid[:, 1:][on_h]], axis=1),     # (i,j) -> (i+1,j)
        np.stack([vid[:-1, :][on_v], vid[1:, :][on_v]], axis=1),     # (i,j) -> (i,j+1)
        np.stack([vid[:-1, 1:][on_d], vid[1:, :-1][on_d]], axis=1),  # (i+1,j) -> (i,j+1)
    ])
    h_id = _running_ids(on_h)
    v_id = _running_ids(on_v) + on_h.sum()
    d_id = _running_ids(on_d) + on_h.sum() + on_v.sum()
    # lower (i,j) -> (i+1,j) -> (i,j+1); upper (i+1,j) -> (i+1,j+1) -> (i,j+1)
    lower = np.stack([h_id[:k], d_id, v_id[:, :k]], axis=-1)
    upper = np.stack([v_id[:, 1:], h_id[1:], d_id], axis=-1)
    cells = np.stack([lower, upper], axis=2)  # (k, k, 2, 3)
    kept = np.stack([on_d, (i + j <= k - 2)[:k, :k]], axis=2)
    signs = np.broadcast_to([[1.0, 1.0, -1.0], [1.0, -1.0, -1.0]], cells.shape)
    return (k + 1) * (k + 2) // 2, edges, cells[kept], signs[kept]


def _assemble(parts) -> DecComplex:
    """Disjoint union: each part's ids are offset by the counts before it."""
    counts = np.array([(nv, len(e), len(f)) for nv, e, f, _ in parts])
    v0, e0, f0 = (np.cumsum(counts, axis=0) - counts).T
    _, edges, faces, signs = zip(*parts)
    return DecComplex(
        *(int(c) for c in counts.sum(axis=0)),
        np.concatenate([e + off for e, off in zip(edges, v0)]),
        np.concatenate([off + np.repeat(np.arange(len(f)), f.shape[1])
                        for f, off in zip(faces, f0)]),
        np.concatenate([f.ravel() + off for f, off in zip(faces, e0)]),
        np.concatenate(signs, axis=None))


def _polygon_parts(polygon: dict, resolution: int) -> list:
    if not isinstance(polygon, dict):
        raise PolygonError("a polygon must be an object {\"type\": ...}")
    ptype = polygon.get("type")
    if ptype == "square":
        return [_square_complex(resolution)]
    if ptype == "right_triangle":
        return [_triangle_complex(resolution)]
    if ptype == "union":
        parts = polygon.get("parts", [])
        if not isinstance(parts, list):
            raise PolygonError("union 'parts' must be a list of polygons")
        out = []
        for part in parts:
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


def _components(n: int, tails: np.ndarray, heads: np.ndarray):
    """Component count and labels (smallest node) of the undirected graph
    ``tails[i] -- heads[i]`` on ``n`` nodes (Shiloach & Vishkin): hook each
    larger root to the smaller across every edge, pointer-jump, repeat."""
    label = np.arange(n)
    while True:
        a, b = label[tails], label[heads]
        if np.array_equal(a, b):
            return int(np.count_nonzero(label == np.arange(n))), label
        np.minimum.at(label, np.maximum(a, b), np.minimum(a, b))
        while not np.array_equal(jumped := label[label], label):
            label = jumped


def harmonic_dims(complex_: DecComplex) -> tuple[int, int, int]:
    """Kernel dimensions of the three Hodge Laplacians (b0, b1, b2).

    b0 counts the components of the 1-skeleton (``rank d0 = V - b0``).
    b2 = dim ker d1^T: such a face cochain has ``c_g = +-c_f`` across each
    edge on two faces (paired by a stable argsort of ``d1_edge``) and
    vanishes on a face with a boundary edge, so it has one free value per
    face-graph component whose signed double cover (nodes ``+-f``) has two
    sheets: closed and consistently signed (RP^2 has one sheet: b2 = 0).
    Both via ``_components``; b1 from Euler-Poincare.  ``ValueError`` if
    an edge lies on three or more faces or an incidence is not +-1.
    """
    if complex_.composition_residual() != 0.0:
        raise ValueError("complex is broken: d1 d0 != 0")
    b0 = _components(complex_.vertex_count, *complex_.edges.T)[0]
    nf, face, sign = complex_.face_count, complex_.d1_face, complex_.d1_sign
    count = np.bincount(complex_.d1_edge, minlength=complex_.edge_count)
    if count.max(initial=0) > 2 or np.any(np.abs(sign) != 1.0):
        raise ValueError("Betti count needs +-1 incidences and at most two faces per edge")
    by_edge = np.argsort(complex_.d1_edge, kind="stable")  # the faces on each edge
    start = np.cumsum(count) - count
    one, two = by_edge[start[count == 2]], by_edge[start[count == 2] + 1]
    f, g = face[one], face[two]
    g = np.where(sign[one] == sign[two], g + nf, g)  # c_g = -c_f
    rim = face[by_edge[start[count == 1]]]  # c_f = -c_f
    tails = np.concatenate([f, f + nf, rim])
    heads = np.concatenate([g, (g + nf) % (2 * nf), rim + nf])
    sheets, sheet = _components(2 * nf, tails, heads)
    folded = np.sort(sheet[:nf][sheet[:nf] == sheet[nf:]])
    # distinct folded sheets; np.unique would import numpy.ma to count them
    b2 = (sheets - np.count_nonzero(np.diff(folded)) - (len(folded) > 0)) // 2
    b1 = complex_.edge_count - (complex_.vertex_count - b0) - (nf - b2)
    return int(b0), int(b1), int(b2)


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
