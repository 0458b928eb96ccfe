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

``d0`` and ``d1`` are sparse, and the harmonic dimensions come from graph
components and Euler-Poincare in O(cells), not from a matrix rank.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING

import numpy as np

if TYPE_CHECKING:
    from scipy import sparse

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
    """Incidence matrices of a polygon complex as sparse CSR arrays with
    entries +-1; ``d1 @ d0 = 0`` exactly."""

    vertex_count: int
    edge_count: int
    face_count: int
    d0: sparse.csr_array  # (E, V)
    d1: sparse.csr_array  # (F, E)

    def composition_residual(self) -> float:
        return float(np.abs((self.d1 @ self.d0).data).max(initial=0.0))


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
    from scipy import sparse

    d0s, d1s = [], []
    for nv, edges, faces, signs in parts:
        ne, nf = len(edges), len(faces)
        d0s.append(sparse.csr_array(
            (np.tile([-1.0, 1.0], ne), (np.repeat(np.arange(ne), 2), edges.ravel())),
            shape=(ne, nv)))
        d1s.append(sparse.csr_array(
            (signs.ravel(), (np.repeat(np.arange(nf), faces.shape[1]), faces.ravel())),
            shape=(nf, ne)))
    d0 = sparse.block_diag(d0s, format="csr")
    d1 = sparse.block_diag(d1s, format="csr")
    return DecComplex(d0.shape[1], d0.shape[0], d1.shape[0], d0, d1)


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


def harmonic_dims(complex_: DecComplex) -> tuple[int, int, int]:
    """Kernel dimensions of the three Hodge Laplacians (b0, b1, b2).

    b0 counts the components of the 1-skeleton (``rank d0 = V - b0``).
    b2 = dim ker d1^T: such a face cochain has ``c_g = +-c_f`` across each
    edge on two faces and vanishes on a face with a boundary edge, so it
    has one free value per face-graph component whose signed double cover
    (nodes ``+-f``) has two sheets: closed and consistently signed (a
    triangulated RP^2 is closed with one sheet: b2 = 0 over the reals).
    b1 follows from Euler-Poincare.  ``ValueError`` if an edge lies on
    three or more faces or an incidence is not +-1.
    """
    from scipy import sparse
    from scipy.sparse.csgraph import connected_components

    if complex_.composition_residual() != 0.0:
        raise ValueError("complex is broken: d1 d0 != 0")
    b0 = connected_components(complex_.d0.T @ complex_.d0)[0]
    nf = complex_.face_count
    by_edge = complex_.d1.T.tocsr()  # the faces on each edge
    count = np.diff(by_edge.indptr)
    if count.max(initial=0) > 2 or np.any(np.abs(by_edge.data) != 1.0):
        raise ValueError("Betti count needs +-1 incidences and at most two faces per edge")
    pair = by_edge.indptr[:-1][count == 2]
    f, g = by_edge.indices[pair], by_edge.indices[pair + 1]
    g = np.where(by_edge.data[pair] == by_edge.data[pair + 1], g + nf, g)  # c_g = -c_f
    rim = by_edge.indices[by_edge.indptr[:-1][count == 1]]  # c_f = -c_f
    tails = np.concatenate([f, f + nf, rim])
    heads = np.concatenate([g, (g + nf) % (2 * nf), rim + nf])
    cover = sparse.coo_array((np.ones(len(tails)), (tails, heads)), shape=(2 * nf, 2 * nf))
    sheets, sheet = connected_components(cover)  # weak = undirected
    folded = np.unique(sheet[:nf][sheet[:nf] == sheet[nf:]])
    b2 = (sheets - len(folded)) // 2
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
