"""Curvature of metric fields on polyhedral chart domains.

Conventions (fixed here, tested against symbolic oracles):

- ``R(X, Y)Z = nabla_X nabla_Y Z - nabla_Y nabla_X Z - nabla_[X,Y] Z``,
  all-lowered components ``R_{ijkl} = g(R(d_i, d_j) d_k, d_l)``; with this
  sign ``R_{ijji}`` is the sectional curvature times the squared area
  element, so the round sphere has ``R_{ijji} > 0`` and ``Sc = n(n-1)``.
  With ``Gamma_{l,ij} = g_{lk} Gamma^k_{ij}``, ``R_{ijkl} = 1/2 (d_i d_k g_jl
  - d_i d_l g_jk - d_j d_k g_il + d_j d_l g_ik) + Gamma_{m,jl} Gamma^m_{ik}
  - Gamma_{m,il} Gamma^m_{jk}``.
- The curvature operator on 2-vectors is
  ``<Rop(e_i ^ e_j), e_k ^ e_l> = -R(e_i, e_j, e_k, e_l)`` in an
  orthonormal frame; non-negative for the round sphere.
- Second fundamental forms are taken with respect to the *inner* unit
  normal, so the boundary of a Euclidean ball has positive mean curvature
  ``H = n - 1``.
- Orthonormal frames come from Gram-Schmidt on the coordinate frame in
  index order; deterministic.

All metric derivatives are exact second-order jets of the underlying
expressions (see :mod:`dihedral_lab.expressions`).  One curvature kernel
(``_first_order``, ``_riemann``) runs on components that are floats at one
point or arrays over a batch of points, g^-1 from a Cholesky factor whose
pivots check positive definiteness; ``_curvature`` stacks a batch into
arrays.  Domains are stored as float rows and dihedral angles are computed
on floats, so ``curvature_tensors``, the conformal identities and an
``angles`` run on a domain of independent normals never load numpy; numpy
is imported by the functions that build arrays, when they run.
"""

from __future__ import annotations

import math
from functools import cached_property, reduce
from itertools import combinations, product
from operator import add, and_, mul
from typing import TYPE_CHECKING, Sequence

from .expressions import (
    BinOp,
    Expr,
    MetricField,
    MetricNotPositiveDefinite,
    _columns,
    _full,
    _stacked,
    parse_expression,
    scene_dim,
)

if TYPE_CHECKING:
    import numpy as np

__all__ = [
    "PolyDomain",
    "CurvaturePack",
    "FaceGeometry",
    "DomainError",
    "DegenerateCornerError",
    "curvature_tensors",
    "curvature_operator",
    "conformal_identities",
    "face_geometry",
    "hypersurface_geometry",
    "dihedral_angle",
    "gauss_bonnet_defect",
    "orthonormal_frame",
]

_FEAS_TOL = 1e-9
_SUBSET_CAP = 100_000  # basic row subsets one domain may enumerate


class DomainError(ValueError):
    """Invalid polyhedral domain or point/stratum mismatch."""


class DegenerateCornerError(ValueError):
    """The two face normals are parallel along the edge (u = +-v)."""


# ---------------------------------------------------------------------------
# Polyhedral domains
# ---------------------------------------------------------------------------


class PolyDomain:
    """Polyhedral chart domain cut out by half-spaces ``<a_i, x> >= b_i``.

    ``region`` selects between the convex intersection of the half-spaces
    (default) and the closure of its complement.  The complement mode
    exists for reflex corners: the region around a corner of interior
    angle > pi is the complement of a convex wedge, which no intersection
    of half-spaces can represent.  Faces are the supporting hyperplane
    pieces in both modes; only the membership test differs.
    """

    # a the unit normals as k float tuples, b the k offsets, window an
    # optional ((lo...), (hi...)) sampling box; __dict__ holds the arrays
    # normals (k, n) and offsets (k,) and the cached _vertex_array
    __slots__ = ("dim", "a", "b", "region", "window", "__dict__")
    def __init__(self, dim: int, a: tuple, b: tuple,
                 region: str = "intersection", window: tuple | None = None):
        self.dim, self.a, self.b = dim, a, b
        self.region, self.window = region, window

    @classmethod
    def from_halfspaces(
        cls,
        halfspaces: Sequence[tuple[Sequence[float], float]],
        region: str = "intersection",
        window: tuple | None = None,
        validate: bool = True,
    ) -> "PolyDomain":
        rows = [_row(a) for a, _ in halfspaces]
        if not rows or any(type(r) is not list or len(r) != len(rows[0]) for r in rows):
            import numpy as np  # any other input converts, or fails, as in numpy

            normals = np.array([np.asarray(r, dtype=float) for r in rows])
            if normals.ndim != 2 or normals.shape[0] == 0:
                raise DomainError("at least one half-space is required")
            rows = normals.tolist()
        offsets = [float(b) for _, b in halfspaces]
        if not all(map(math.isfinite, [*offsets, *(v for row in rows for v in row)])):
            raise DomainError("half-space normals and offsets must be finite")
        # left-to-right sums: numpy's row norms, bit for bit, up to 7 entries
        norms = [math.sqrt(reduce(add, (v * v for v in row), 0.0)) for row in rows]
        if 0.0 in norms:
            raise DomainError("zero normal vector")
        if region not in ("intersection", "complement"):
            raise DomainError(f"unknown region mode {region!r}")
        dom = cls(len(rows[0]), tuple(tuple(v / s for v in row) for row, s in zip(rows, norms)),
                  tuple(b / s for b, s in zip(offsets, norms)), region, window)
        if validate:
            dom._validate()
        return dom

    @classmethod
    def from_scene(cls, scene: dict) -> "PolyDomain":
        if not isinstance(scene, dict):
            raise DomainError("domain scene must be a JSON object")
        try:
            dim = scene_dim(scene)
            halfspaces = [(_row(h["a"]), float(h["b"]))
                          for h in scene["halfspaces"]]
        except KeyError as exc:
            raise DomainError(f"domain scene missing key {exc}") from exc
        except TypeError as exc:
            raise DomainError("domain scene needs an integer 'dim' and a list "
                              "'halfspaces' of {\"a\": [...], \"b\": t}") from exc
        window = None
        if "window" in scene:
            try:
                lo, hi = scene["window"]
                window = (tuple(float(v) for v in lo), tuple(float(v) for v in hi))
            except (TypeError, ValueError) as exc:
                raise DomainError("'window' must be [[lo...], [hi...]]") from exc
            if not len(window[0]) == len(window[1]) == dim:
                raise DomainError(f"'window' corners must have {dim} entries")
        dom = cls.from_halfspaces(halfspaces, region=scene.get("region", "intersection"),
                                  window=window)
        if dom.dim != dim:
            raise DomainError("half-space dimension disagrees with 'dim'")
        return dom

    @cached_property
    def normals(self) -> np.ndarray:
        """The unit normals as a ``(k, n)`` array."""
        import numpy as np

        return np.array(self.a, dtype=float)

    @cached_property
    def offsets(self) -> np.ndarray:
        """The offsets of the unit normals as a ``(k,)`` array."""
        import numpy as np

        return np.array(self.b, dtype=float)

    def _validate(self) -> None:
        """Nonempty interior of the convex cell; every face supports it.

        At most n normals whose Gram-Schmidt residual norms multiply to at
        least 1e-9 are independent: the product is |det| of the square
        system in their span, 1000 times the enumeration's singular-subset
        threshold.  Then ``N y = b + 1`` is an interior point and ``N y = b``
        touches every face, so the cell, a translated simplicial cone, is
        valid.  Every other cell goes through the enumeration.
        """
        if not _independent(self.a):
            self._validate_by_enumeration()

    def _validate_by_enumeration(self) -> None:
        """Exact: basic solutions (at most ``_SUBSET_CAP`` row subsets) of the
        normals with the lineality space projected out, so the cell is
        pointed.  Interior: max t of ``A_r y - t >= b``, ``0 <= t <= 1`` (a
        Chebyshev-centre LP) exceeds ``_FEAS_TOL``; a face supports the cell
        iff a vertex lies on it.  Feasibility and contact are judged up to
        ``_slacks``' scaled tolerance.  ``from_halfspaces`` rejects
        non-finite data.
        """
        import numpy as np

        _, sing, vt = np.linalg.svd(self.normals)
        a_r = self.normals @ vt[: int(np.sum(sing > sing[0] * 1e-12))].T
        lifted = np.c_[np.r_[a_r, np.zeros((2, a_r.shape[1]))],
                       np.r_[-np.ones(len(a_r)), 1.0, -1.0]]
        tops = _basic_solutions(lifted, np.r_[self.offsets, 0.0, -1.0])
        if len(tops) == 0 or tops[:, -1].max() <= _FEAS_TOL:
            raise DomainError("domain has empty interior")
        verts = _basic_solutions(a_r, self.offsets)
        slack, tol = _slacks(a_r, self.offsets, verts)
        touched = np.any(slack <= tol, axis=0)
        if not touched.all():
            raise DomainError(f"face {int(np.argmin(touched))} does not support the domain")

    @property
    def face_count(self) -> int:
        return len(self.b)

    def slacks(self, x: Sequence[float]) -> np.ndarray:
        """``<a_i, x> - b_i`` for every face (leading point axes broadcast),
        summed left to right like ``_on_faces_at``."""
        import numpy as np

        x = np.asarray(x, dtype=float)[..., None, :]
        return reduce(add, (x[..., m] * self.normals[:, m] for m in range(self.dim)),
                      0.0) - self.offsets

    def contains(self, x: Sequence[float], tol: float = 1e-12):
        import numpy as np

        s = self.slacks(x)
        if self.region == "intersection":
            return np.all(s >= -tol, axis=-1)
        return np.any(s <= tol, axis=-1)

    def on_faces(self, faces: list, x: Sequence[float], tol: float = 1e-9):
        """Whether ``x`` lies on every face in ``faces`` and on the inner side
        of the other supporting planes, up to ``tol`` (leading point axes
        broadcast)."""
        import numpy as np

        s = self.slacks(x)
        tight = np.zeros(self.face_count, dtype=bool)
        tight[faces] = True
        return np.all(np.where(tight, np.abs(s) <= tol, s >= -tol), axis=-1)

    def _on_faces_at(self, faces: tuple, x: Sequence[float], tol: float) -> bool:
        """``on_faces`` for one point of the chart, on floats; face indices
        count from the end when negative, as in ``on_faces``."""
        tight = {range(self.face_count)[f] for f in faces}
        slacks = (reduce(add, (p * v for p, v in zip(row, x)), 0.0) - t
                  for row, t in zip(self.a, self.b))
        return len(x) == self.dim and all(abs(s) <= tol if f in tight else s >= -tol
                                          for f, s in enumerate(slacks))

    def on_face(self, i: int, x: Sequence[float], tol: float = 1e-9) -> bool:
        return self._on_faces_at((i,), x, tol)

    def on_edge(self, i: int, j: int, x: Sequence[float], tol: float = 1e-9) -> bool:
        return self._on_faces_at((i, j), x, tol)

    @cached_property
    def _vertex_array(self) -> np.ndarray:
        # the rows np.unique(axis=0) gives, without its numpy.ma import: of
        # rows equal up to signed zeros the stable lexsort keeps the first, as
        # np.unique's sort does up to 16 rows (beyond, its pick is arbitrary)
        import numpy as np

        pts = np.round(_basic_solutions(self.normals, self.offsets), 9)
        pts = pts[np.lexsort(pts.T[::-1])]
        keep = np.ones(len(pts), dtype=bool)
        keep[1:] = np.any(pts[1:] != pts[:-1], axis=1)
        pts = pts[keep]
        pts.flags.writeable = False  # enumerated once, shared by every caller
        return pts

    def vertices(self) -> np.ndarray:
        """Points where ``dim`` face planes meet feasibly (may be empty)."""
        return self._vertex_array

    def diameter(self) -> float:
        import numpy as np

        if self.window is not None:
            lo, hi = self.window
            return float(np.linalg.norm(np.subtract(hi, lo)))
        pts = self.vertices()
        if len(pts) >= 2:
            best = np.linalg.norm(pts[:, None, :] - pts[None, :, :], axis=-1).max()
            return max(float(best), 1e-9)
        return 1.0


def _row(a):
    """``a`` as a list of floats when it is a list or tuple of real numbers,
    else as numpy's float array of it, with numpy's conversion errors."""
    if type(a) in (list, tuple) and all(isinstance(v, (int, float)) for v in a):
        return [float(v) for v in a]
    import numpy as np

    return np.asarray(a, dtype=float)


def _independent(rows: Sequence[Sequence[float]]) -> bool:
    """Whether at most n unit rows of length n have Gram-Schmidt residual
    norms whose product is at least 1e-9."""
    if len(rows) > len(rows[0]):
        return False
    basis, volume = [], 1.0
    for row in rows:
        for q in basis:
            d = reduce(add, (p * v for p, v in zip(q, row)), 0.0)
            row = [v - d * p for p, v in zip(q, row)]
        norm = math.sqrt(reduce(add, (v * v for v in row), 0.0))
        volume *= norm
        if volume < 1e-9:
            return False
        basis.append([v / norm for v in row])
    return True


def _basic_solutions(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Feasible solutions of ``a y >= b`` with a nonsingular square subset of
    rows tight, ``a`` (k, m): one batched solve, in ``combinations`` order."""
    import numpy as np

    k, m = a.shape
    if math.comb(k, m) > _SUBSET_CAP:
        raise DomainError(f"domain needs more than {_SUBSET_CAP} basic row subsets")
    rows = np.array(list(combinations(range(k), m)), dtype=int).reshape(-1, m)
    rows = rows[np.abs(np.linalg.det(a[rows])) >= 1e-12]
    sols = np.linalg.solve(a[rows], b[rows][..., None])[..., 0]
    slack, tol = _slacks(a, b, sols)
    return sols[np.all(slack >= -tol, axis=1)]


def _slacks(a: np.ndarray, b: np.ndarray, y: np.ndarray):
    """Slacks ``y a^T - b`` of the rows of y, and their tolerances:
    ``_FEAS_TOL`` times the size ``|y| |a|^T + |b|`` of the terms each
    slack cancels, at least 1, so that cells far from the origin pass."""
    import numpy as np

    return y @ a.T - b, _FEAS_TOL * np.maximum(1.0, np.abs(y) @ np.abs(a).T + np.abs(b))


# ---------------------------------------------------------------------------
# Curvature tensors
# ---------------------------------------------------------------------------


class CurvaturePack:
    """Christoffel symbols and curvature tensors of g at one point, as nested
    lists of floats.

    ``bracket[i][j][l]`` is 2 Gamma_{l,ij} (see ``_first_order``),
    ``gamma[k][i][j]`` is Gamma^k_{ij}; ``riemann[i][j][k][l]`` is the
    all-lowered tensor R_{ijkl}.
    """

    __slots__ = ("point", "metric", "metric_inv", "bracket", "gamma", "riemann", "ricci",
                 "scalar")
    def __init__(self, point: tuple, metric: list, metric_inv: list, bracket: list,
                 gamma: list, riemann: list, ricci: list, scalar: float):
        self.point, self.metric, self.metric_inv = point, metric, metric_inv
        self.bracket, self.gamma = bracket, gamma
        self.riemann, self.ricci, self.scalar = riemann, ricci, scalar

    def _relative(self, residuals) -> float:
        """The largest of ``residuals`` over max(1, max |R|)."""
        r = self.riemann
        return max(residuals) / max(1.0, max(abs(v) for a in r for b in a for c in b for v in c))

    def _indices(self):
        return product(range(len(self.riemann)), repeat=4)

    def antisymmetry_residual(self) -> float:
        r = self.riemann
        return self._relative(max(abs(r[i][j][k][l] + r[j][i][k][l]),
                                  abs(r[i][j][k][l] + r[i][j][l][k]))
                              for i, j, k, l in self._indices())

    def pair_symmetry_residual(self) -> float:
        r = self.riemann
        return self._relative(abs(r[i][j][k][l] - r[k][l][i][j])
                              for i, j, k, l in self._indices())

    def bianchi_residual(self) -> float:
        r = self.riemann
        return self._relative(abs(r[i][j][k][l] + r[j][k][i][l] + r[k][i][j][l])
                              for i, j, k, l in self._indices())


def _cholesky(gm) -> list:
    """Rows of the lower Cholesky factor L of the metric with lower triangle
    ``gm[r][c]`` (c <= r), on floats or arrays alike; a non-positive pivot
    leaves nan for the caller to report."""
    low = []
    for r in range(len(gm)):
        row = []
        for c in range(r + 1):
            other = low[c] if c < r else row
            s = gm[r][c]
            for m in range(c):
                s = s - row[m] * other[m]
            row.append(_root(s) if c == r else s / other[c])
        low.append(row)
    return low


def _first_order(g: MetricField, pts):
    """Metric ``gm[i][j]``, inverse, ``d2g[i][j][a][b] = d_a d_b g_ij``, the
    Christoffel bracket ``bracket[i][j][l]`` (twice the first-kind symbols)
    and Gamma^k_{ij} as ``gamma[k][i][j]`` at one point (n floats) or at the
    rows of an ``(m, n)`` array, as nested lists of floats or ``(m,)`` arrays."""
    batch = getattr(pts, "ndim", 1) == 2
    gm, dg, d2g = g.jet_parts(_columns(pts) if batch else tuple(map(float, pts)))
    low = _cholesky(gm)
    ok = reduce(and_, [row[-1] > 0.0 for row in low])  # nan at a failed pivot
    if not (ok if type(ok) is bool else ok.all()):
        p = 0 if type(ok) is bool else int(ok.argmin())  # the first bad point
        raise _not_positive_definite([float(v) for v in (pts[p] if batch else pts)], [
            [v if type(v) is float else float(v[p]) for v in row] for row in gm])
    n, axes = g.dim, range(g.dim)
    inv = []  # rows of L^-1
    for r, row in enumerate(low):
        inv.append([-reduce(add, [row[k] * inv[k][c] for k in range(c, r)]) / row[r]
                    for c in range(r)] + [1.0 / row[r]])
    # g^-1 = L^-T L^-1 and d_i g_jl + d_j g_il - d_l g_ij = 2 Gamma_{l,ij}, both
    # symmetric bit for bit: the sums commute
    ginv = [[reduce(add, [inv[k][i] * inv[k][j] for k in range(max(i, j), n)]) for j in axes]
            for i in axes]
    bracket = [[[dg[j][l][i] + dg[i][l][j] - dg[i][j][l] for l in axes] for j in axes]
               for i in axes]
    # Gamma^k_{ij} = 1/2 g^{kl} (d_i g_jl + d_j g_il - d_l g_ij)
    gamma = [[[0.5 * reduce(add, map(mul, ginv[k], bracket[i][j])) for j in axes] for i in axes]
             for k in axes]
    return gm, ginv, d2g, bracket, gamma


def _riemann(ginv, d2g, bracket, gamma):
    """Riemann, Ricci and scalar curvature from the parts ``_first_order``
    returns; R_{ijkl} (see the module docstring) is computed for i < j and
    k < l, and the other entries follow by antisymmetry."""
    n = len(ginv)
    pairs = [(i, j) for i in range(n) for j in range(i + 1, n)]
    r = [[[[0.0] * n for _ in range(n)] for _ in range(n)] for _ in range(n)]
    for i, j in pairs:
        for k, l in pairs:
            s = d2g[j][l][i][k] - d2g[j][k][i][l] - d2g[i][l][j][k] + d2g[i][k][j][l]
            for m in range(n):
                s = s + (bracket[j][l][m] * gamma[m][i][k] - bracket[i][l][m] * gamma[m][j][k])
            r[i][j][k][l] = r[j][i][l][k] = 0.5 * s
            r[j][i][k][l] = r[i][j][l][k] = -0.5 * s
    # Ric_jk = g^{ml} R_mjkl, where R_mjkl = 0 at m = j or k = l
    ricci = [[reduce(add, [ginv[m][l] * r[m][j][k][l] for m in range(n) for l in range(n)
                           if m != j and l != k], 0.0) for k in range(n)] for j in range(n)]
    scalar = reduce(add, [ginv[j][k] * ricci[j][k] for j in range(n) for k in range(n)])
    return r, ricci, scalar


def _curvature(g: MetricField, pts: np.ndarray):
    """Metric, inverse, Gamma, Riemann, Ricci and scalar curvature at the
    rows of ``pts``, each an array with a leading point axis."""
    gm, ginv, d2g, bracket, gamma = _first_order(g, pts)
    return _stacked(len(pts), gm, ginv, gamma, *_riemann(ginv, d2g, bracket, gamma))


def curvature_tensors(g: MetricField, x: Sequence[float]) -> CurvaturePack:
    """Full curvature data of ``g`` at an interior chart point, on floats."""
    x = tuple(float(v) for v in x)
    gm, ginv, d2g, bracket, gamma = _first_order(g, x)
    return CurvaturePack(x, gm, ginv, bracket, gamma, *_riemann(ginv, d2g, bracket, gamma))


def orthonormal_frame(gmat) -> np.ndarray:
    """Gram-Schmidt on the coordinate frame in index order; columns E_a
    satisfy E^T g E = 1 (``gmat`` an array or nested lists)."""
    import numpy as np

    gmat = np.asarray(gmat, dtype=float)
    return _g_orthonormalize(np.eye(gmat.shape[-1]), gmat)


def curvature_operator(g: MetricField, x: Sequence[float]) -> np.ndarray:
    """Curvature operator on Lambda^2 in the Gram-Schmidt orthonormal frame.

    Entry ((a, b), (c, d)) is ``-R(E_a, E_b, E_c, E_d)``; the matrix is
    symmetrized before returning (the exact tensor is pair-symmetric, the
    evaluated one up to rounding).
    """
    import numpy as np

    pack = curvature_tensors(g, x)
    frame = orthonormal_frame(pack.metric)
    rframe = np.einsum("ijkl,ia,jb,kc,ld->abcd", np.array(pack.riemann),
                       frame, frame, frame, frame)
    a, b = np.triu_indices(g.dim, 1)  # the wedge_pairs order
    op = -rframe[a[:, None], b[:, None], a, b]
    return 0.5 * (op + op.T)


# ---------------------------------------------------------------------------
# Face geometry
# ---------------------------------------------------------------------------


class FaceGeometry:
    """Second fundamental form (inner normal) on a g-orthonormal tangent
    basis of the face (the ``(n, n-1)`` columns), and its trace."""

    __slots__ = ("second_fundamental", "mean_curvature", "tangent_basis", "inner_normal")
    def __init__(self, second_fundamental: np.ndarray, mean_curvature: float,
                 tangent_basis: np.ndarray, inner_normal: np.ndarray):
        self.second_fundamental, self.mean_curvature = second_fundamental, mean_curvature
        self.tangent_basis, self.inner_normal = tangent_basis, inner_normal


def _nullspace(rows: np.ndarray) -> np.ndarray:
    """Orthonormal Euclidean basis (columns) of the null space of ``rows``,
    from a full SVD (deterministic)."""
    import numpy as np

    rows = np.asarray(rows, dtype=float)
    _, s, vt = np.linalg.svd(rows)
    rank = int(np.sum(s > 1e-12))
    return vt[rank:].T


def _g_orthonormalize(cols: np.ndarray, gmat: np.ndarray) -> np.ndarray:
    """Gram-Schmidt on the columns of ``cols`` in the metric ``gmat``, in
    column order (any leading point axes of ``gmat`` broadcast)."""
    import numpy as np

    out = np.zeros(gmat.shape[:-2] + cols.shape)
    for a in range(cols.shape[1]):
        v = cols[:, a].astype(float)
        for b in range(a):
            proj = np.einsum("...i,...ij,...j->...", out[..., b], gmat, v)
            v = v - proj[..., None] * out[..., b]
        norm = np.sqrt(np.einsum("...i,...ij,...j->...", v, gmat, v))
        if np.any(norm < 1e-14):
            raise DomainError("degenerate tangent basis")
        out[..., a] = v / norm[..., None]
    return out


def _inner_unit_normal(a: np.ndarray, gmat: np.ndarray, ginv: np.ndarray,
                       sign: float = 1.0) -> np.ndarray:
    """g-unit vector g-orthogonal to the face plane, on the <a, .> > 0 side
    (any leading point axes of ``a``, ``gmat`` and ``ginv`` broadcast)."""
    import numpy as np

    nu = np.einsum("...ij,...j->...i", ginv, a)
    norm = np.sqrt(np.einsum("...i,...ij,...j->...", nu, gmat, nu))
    return sign * nu / norm[..., None]


def _face_forms(domain: PolyDomain, i: int, gmat: np.ndarray, ginv: np.ndarray,
                bracket: np.ndarray):
    """Second fundamental form, g-orthonormal tangent basis and inner unit
    normal of face ``i`` from the metric, its inverse and the Christoffel
    bracket at points of the face (any leading point axes broadcast)."""
    import numpy as np

    a = domain.normals[i]
    sign = 1.0 if domain.region == "intersection" else -1.0
    nu = _inner_unit_normal(a, gmat, ginv, sign)
    tangent = _g_orthonormalize(_nullspace(a[None, :]), gmat)
    # A(X, Y) = g(nabla_X Y, nu) = Gamma_{l,ij} X^i Y^j nu^l for the
    # constant-coefficient extension of Y
    lowered = 0.5 * np.einsum("...ijl,...l->...ij", bracket, nu)
    second = np.einsum("...ia,...ij,...jb->...ab", tangent, lowered, tangent)
    return 0.5 * (second + np.swapaxes(second, -1, -2)), tangent, nu


def face_geometry(g: MetricField, domain: PolyDomain, i: int,
                  x: Sequence[float]) -> FaceGeometry:
    """Second fundamental form and mean curvature of face ``i`` at ``x``.

    The face is a flat piece of the supporting hyperplane; curvature comes
    entirely from the metric.  The normal is the inner one: for the
    ``complement`` region mode inner means pointing away from the removed
    convex cell.
    """
    if not (0 <= i < domain.face_count):
        raise DomainError(f"no face {i}")
    import numpy as np

    if not domain.on_face(i, x):
        raise DomainError(f"point {list(x)} is not on face {i}")
    gmat, ginv, _, bracket, _ = map(np.array, _first_order(g, x))
    second, tangent, nu = _face_forms(domain, i, gmat, ginv, bracket)
    return FaceGeometry(second, float(np.trace(second)), tangent, nu)


def hypersurface_geometry(
    g: MetricField,
    chart: Sequence[Expr | str],
    u: Sequence[float],
    inward_reference: Sequence[float],
) -> FaceGeometry:
    """Second fundamental form of a parametrized hypersurface.

    ``chart`` gives the n embedding expressions in the surface parameters
    x1..x(n-1); ``inward_reference`` is any nearby point on the inner side
    and only fixes the sign of the normal.  This is the evaluation mode
    for curved boundaries (spheres, cylinders) that half-space data cannot
    encode.
    """
    import numpy as np

    exprs = [parse_expression(c) if isinstance(c, str) else c for c in chart]
    n = g.dim
    if len(exprs) != n:
        raise DomainError(f"chart must have {n} components")
    m = n - 1
    u = [float(v) for v in u]
    if len(u) != m:
        raise DomainError(f"chart parameters must have {m} components")
    jets = [e.jet(np.atleast_2d(u)) for e in exprs]
    # position, jac[k, a] = d_a sigma^k and hess[k, a, b] = d_a d_b sigma^k
    pos, jac, hess = (np.array([jet[part][0] for jet in jets]) for part in range(3))
    gmat, _, _, bracket, _ = map(np.array, _first_order(g, pos))
    # g-normal: null space of (tangent^T g)
    null = np.linalg.svd(jac.T @ gmat)[2][-1]
    nu = null / math.sqrt(null @ gmat @ null)
    ref = np.asarray(inward_reference, dtype=float)
    if nu @ gmat @ (ref - pos) < 0:
        nu = -nu
    # A_ab = g(sigma_ab, nu) + Gamma_{l,ij} t_a^i t_b^j nu^l on the chart basis
    a_chart = (np.einsum("kab,k->ab", hess, gmat @ nu)
               + 0.5 * np.einsum("ijl,ia,jb,l->ab", bracket, jac, jac, nu))
    first = jac.T @ gmat @ jac
    mean = float(np.trace(np.linalg.solve(first, a_chart)))
    # report A on a g-orthonormal tangent basis, consistent with face_geometry
    tangent = _g_orthonormalize(jac, gmat)
    comb = np.linalg.lstsq(jac, tangent, rcond=None)[0]
    second = comb.T @ a_chart @ comb
    second = 0.5 * (second + second.T)
    return FaceGeometry(second, mean, tangent, nu)


# ---------------------------------------------------------------------------
# Conformal identities
# ---------------------------------------------------------------------------


def _laplacian_and_gradient(pack: CurvaturePack, h: Expr):
    """div grad h (trace of the covariant Hessian), |dh|^2 and dh at
    ``pack.point``, with respect to the metric of ``pack``, on floats."""
    _, grad, hess = h.jet_parts(pack.point)
    hess, ginv, n = _full(hess, len(grad)), pack.metric_inv, range(len(grad))
    lap = reduce(add, [ginv[i][j] * (hess[i][j] - reduce(add, map(
        mul, (row[i][j] for row in pack.gamma), grad))) for i in n for j in n])
    grad_sq = reduce(add, [ginv[i][j] * grad[i] * grad[j] for i in n for j in n])
    return lap, grad_sq, grad


def conformal_identities(
    gbar: MetricField,
    h: Expr | str,
    x: Sequence[float],
    domain: PolyDomain | None = None,
    face: int | None = None,
) -> dict:
    """Residuals of the conformal scalar / mean-curvature identities.

    The left-hand sides are computed by running the curvature engine on the
    rescaled metric h^2 gbar; the right-hand sides use only gbar-quantities:

        Sc(h^2 gbar) = Sc(gbar)/h^2 - 2(n-1)/h^3 lap h - (n-1)(n-4)/h^4 |dh|^2
        H(h^2 gbar)  = H(gbar)/h - (n-1)/h^2 dh/dn        (on a face)

    with lap = div grad and n the inner gbar-unit normal.  Returns
    ``{"scalar": resid}`` or ``{"scalar": ..., "mean_curvature": ...}`` when
    a face is given; only the face variant builds arrays.
    """
    if isinstance(h, str):
        h = parse_expression(h)
    n = gbar.dim
    hval = h.eval(x)
    if hval <= 0.0:
        raise ValueError(f"conformal factor must be positive, got {hval}")
    scaled = gbar.scaled(BinOp("*", h, h))

    pack_bar = curvature_tensors(gbar, x)
    lap, grad_sq, grad = _laplacian_and_gradient(pack_bar, h)
    sc_bar = pack_bar.scalar
    sc_scaled = curvature_tensors(scaled, x).scalar
    rhs = (sc_bar / hval**2 - 2.0 * (n - 1) / hval**3 * lap
           - (n - 1) * (n - 4) / hval**4 * grad_sq)
    out = {"scalar": float(sc_scaled - rhs)}

    if face is not None:
        if domain is None:
            raise ValueError("mean-curvature variant needs the domain")
        import numpy as np

        fg = face_geometry(scaled, domain, face, x)
        second_bar, _, nu_bar = _face_forms(domain, face, *map(np.array, (
            pack_bar.metric, pack_bar.metric_inv, pack_bar.bracket)))
        dh_dn = float(np.dot(grad, nu_bar))
        rhs_h = float(np.trace(second_bar)) / hval - (n - 1) / hval**2 * dh_dn
        out["mean_curvature"] = float(fg.mean_curvature - rhs_h)
    return out


# ---------------------------------------------------------------------------
# Dihedral angles
# ---------------------------------------------------------------------------


_SPLITTER = 134217729.0  # 2^27 + 1, for Dekker's split
_ARRAY_POINTS = 12  # edge stacks of at least this many points run on arrays


def _halves(v):
    """``(v, hi, lo)``: Dekker's split of ``v`` into 26-bit halves, whose
    products are exact."""
    c = _SPLITTER * v
    hi = c - (c - v)
    return v, hi, v - hi


def _dot2(s, xs, ys):
    """``s + sum(p q)`` over the split factors ``xs`` and ``ys``, as if
    computed in twice the working precision (Dot2 of Ogita, Rump and Oishi,
    2005): each product and partial sum carries its exact rounding error."""
    err = 0.0
    for (p, ph, pl), (q, qh, ql) in zip(xs, ys):
        prod = p * q
        t = s + prod
        back = t - s
        err = err + (((s - (t - back)) + (prod - back))
                     + ((((ph * qh - prod) + ph * ql) + pl * qh) + pl * ql))
        s = t
    return s + err


def _corner(gm, a_i: Sequence[float], a_j: Sequence[float]):
    """Cholesky diagonal, cosine and half-angle parts of the dihedral angle
    of two faces under the metric with lower triangle ``gm[r][c]`` (c <= r).

    With g = T T^T, x = T^-1 a_i / |.| and y = -T^-1 a_j / |.| are unit
    vectors at the dihedral angle theta: ``x.y = -<a_i, a_j>_{g^-1} /
    (|a_i| |a_j|)``.  Returns the diagonal of the Cholesky factor L, x.y,
    |x - y| and |x + y|; ``theta = 2 atan2(|x - y|, |x + y|)`` is accurate
    at every angle, where acos(x.y) loses digits near 0 and pi (W. Kahan,
    *Miscalculating Area and Angles of a Needle-like Triangle*, 2014), and
    the reflex angle ``2 pi - theta = 2 atan2(|x - y|, -|x + y|)`` needs no
    subtraction.

    The computed L and z = L^-1 a are exact for a metric within about
    eps |g| of g, which moves theta by up to about eps cond(g) (2e-15 at
    cond(g) = 100).  One refinement step removes that: with the residuals
    ``D = L L^T - g`` and ``r = a - L z`` taken from exact products
    (``_dot2``), the factor ``T = L (I - 1/2 L^-1 D L^-T)`` satisfies
    T T^T = g to second order and ``T^-1 a = z + L^-1 (r + 1/2 D L^-T z)``,
    so theta is within a few eps of the angle of the given floats while
    eps^2 cond(g)^2 stays below eps.

    Only + - * / and ``_root`` touch the metric, so its entries may be
    floats or arrays over a point axis, which round alike.  A non-positive
    pivot leaves nan; the caller checks that the diagonal is > 0.
    """
    n = len(a_i)
    low = _cholesky(gm)
    split = [list(map(_halves, row)) for row in low]  # their Dekker halves
    half_d = [[0.0] * n for _ in range(n)]  # D / 2
    for r in range(n):
        for c in range(r + 1):
            half_d[r][c] = half_d[c][r] = 0.5 * _dot2(-gm[r][c], split[r], split[c])

    def unit(a):  # T^-1 a, normalized
        z = []  # L^-1 a
        for s, row in zip(a, low):
            for l, v in zip(row, z):
                s = s - l * v
            z.append(s / row[-1])
        w = z[:]  # L^-T z
        for r in range(n - 1, -1, -1):
            for m in range(r + 1, n):
                w[r] = w[r] - low[m][r] * w[m]
            w[r] = w[r] / low[r][r]
        neg = [_halves(-v) for v in z]
        p, fix = [], []  # z + L^-1 (r + D w / 2)
        for a_r, v, row, pieces, d_r in zip(a, z, low, split, half_d):
            s = _dot2(a_r, pieces, neg)
            for d, u in zip(d_r, w):
                s = s + d * u
            for l, u in zip(row, fix):
                s = s - l * u
            fix.append(s / row[-1])
            p.append(v + fix[-1])
        size = _root(reduce(add, [v * v for v in p]))
        return [v / size for v in p]

    u, v = unit(a_i), unit(a_j)  # x = u, y = -v
    return ([row[-1] for row in low], -reduce(add, [p * q for p, q in zip(u, v)]),
            _root(reduce(add, [(p + q) * (p + q) for p, q in zip(u, v)])),
            _root(reduce(add, [(p - q) * (p - q) for p, q in zip(u, v)])))


def _root(v):
    """Square root of a float or an array, nan at a non-positive entry (a
    failed pivot)."""
    if type(v) is float:
        return math.sqrt(v) if v > 0.0 else math.nan
    import numpy as np

    return np.sqrt(np.where(v > 0.0, v, np.nan))


def _metric_lower(g: MetricField, x: Sequence[float]) -> list:
    """Lower triangle ``gm[r][c]`` (c <= r) of the metric at ``x``, on the
    value path, its entries evaluated in the order ``matrix_at`` takes."""
    values = {key: e.eval(x) for key, e in g.entries.items()}
    return [[values[c, r] for c in range(r + 1)] for r in range(g.dim)]


def _not_positive_definite(x: list, gm: list) -> MetricNotPositiveDefinite:
    """The error for a metric whose Cholesky factorization fails at ``x``."""
    import numpy as np

    full = np.array([[gm[max(r, c)][min(r, c)] for c in range(len(gm))]
                     for r in range(len(gm))])
    return MetricNotPositiveDefinite(
        f"metric at {x} has smallest eigenvalue {np.linalg.eigvalsh(full)[0]:.3e}")


def _degenerate(cosang: float) -> DegenerateCornerError:
    return DegenerateCornerError(
        f"degenerate corner: normals are parallel (cos = {cosang:.6f})")


def _dihedral_angles(g: MetricField, domain: PolyDomain, i: int, j: int,
                     pts: np.ndarray) -> np.ndarray:
    """``dihedral_angle`` at the rows of a ``(k, n)`` stack of edge points:
    the same float kernel, per point below ``_ARRAY_POINTS`` points and on
    arrays over the point axis from there on, bit for bit."""
    import numpy as np

    if i == j:
        raise DomainError("need two distinct faces")
    off = ~domain.on_faces([i, j], pts)
    if off.any():
        raise DomainError(f"point {pts[np.argmax(off)].tolist()} is not on edge ({i}, {j})")
    points = pts.tolist()
    metrics = [_metric_lower(g, x) for x in points]
    if len(points) < _ARRAY_POINTS:  # fewer: numpy's cost per call dominates
        diag, cosang, chord, sum_chord = (np.array(part) for part in zip(
            *(_corner(m, domain.a[i], domain.a[j]) for m in metrics)))
        bad = ~np.all(diag > 0.0, axis=1)
    else:
        gm = [[np.array([m[r][c] for m in metrics]) for c in range(r + 1)]
              for r in range(domain.dim)]
        with np.errstate(all="ignore"):  # a failed pivot leaves nan, reported below
            diag, cosang, chord, sum_chord = _corner(gm, domain.a[i], domain.a[j])
        bad = ~np.all([d > 0.0 for d in diag], axis=0)
    if bad.any():
        p = int(np.argmax(bad))  # the first bad point
        raise _not_positive_definite(points[p], metrics[p])
    parallel = np.abs(cosang) >= 1.0 - 1e-12
    if parallel.any():
        raise _degenerate(cosang[parallel][0])
    if domain.region != "intersection":
        sum_chord = -sum_chord
    return np.array([2.0 * math.atan2(s, c) for s, c in zip(chord.tolist(), sum_chord.tolist())])


def dihedral_angle(g: MetricField, domain: PolyDomain, i: int, j: int,
                   x: Sequence[float]) -> float:
    """Dihedral angle of faces (i, j) at an edge point, in (0, pi) u (pi, 2 pi).

    The angle theta is measured between the unit inner normals of the edge
    inside each face of the convex cell; it lies in (0, pi) for every inner
    product.  The closure of the complement of that cell has the reflex
    angle ``2 pi - theta`` there.  Runs on floats (see ``_corner``).
    """
    if i == j:
        raise DomainError("need two distinct faces")
    x = [float(v) for v in x]
    if not domain.on_edge(i, j, x):
        raise DomainError(f"point {x} is not on edge ({i}, {j})")
    gm = _metric_lower(g, x)
    diag, cosang, chord, sum_chord = _corner(gm, domain.a[i], domain.a[j])
    if not all(d > 0.0 for d in diag):
        raise _not_positive_definite(x, gm)
    if abs(cosang) >= 1.0 - 1e-12:
        raise _degenerate(cosang)
    if domain.region != "intersection":
        sum_chord = -sum_chord
    return 2.0 * math.atan2(chord, sum_chord)


# ---------------------------------------------------------------------------
# Gauss-Bonnet on 2-D polygons
# ---------------------------------------------------------------------------

_TRI_QUAD_POINTS = (
    (2.0 / 3.0, 1.0 / 6.0, 1.0 / 6.0),
    (1.0 / 6.0, 2.0 / 3.0, 1.0 / 6.0),
    (1.0 / 6.0, 1.0 / 6.0, 2.0 / 3.0),
)  # barycentric, degree-2 rule with equal weights 1/3


def _polygon_structure(domain: PolyDomain):
    """Ordered vertex loop of a bounded convex 2-D domain, with the
    supporting face index of each edge."""
    import numpy as np

    if domain.dim != 2:
        raise DomainError("Gauss-Bonnet needs a 2-D domain")
    if domain.region != "intersection":
        raise DomainError("Gauss-Bonnet supports convex domains only")
    verts = domain.vertices()
    if len(verts) < 3:
        raise DomainError("domain is not a bounded polygon")
    center = verts.mean(axis=0)
    order = np.argsort(np.arctan2(verts[:, 1] - center[1], verts[:, 0] - center[0]))
    loop = verts[order]
    ahead = np.roll(loop, -1, axis=0)
    slack = np.abs(domain.slacks(0.5 * (loop + ahead)))  # at the edge midpoints
    faces = np.argmin(slack, axis=1)
    if np.any(slack[np.arange(len(loop)), faces] > 1e-7 * max(1.0, domain.diameter())):
        raise DomainError("polygon edge does not lie on a face")
    return loop, list(zip(loop, ahead, faces.tolist()))


def gauss_bonnet_defect(g: MetricField, domain: PolyDomain,
                        resolution: int = 12) -> float:
    """Residual of Gauss-Bonnet on a bounded convex 2-D polygon:

        integral_D K dA + integral_bd k_g ds + sum_v (pi - theta_v) - 2 pi chi.

    Vanishes analytically; the return value measures the quadrature error.
    """
    import numpy as np

    if resolution < 1:
        raise DomainError("resolution must be >= 1")
    loop, edges = _polygon_structure(domain)
    center = loop.mean(axis=0)

    # the triangle u, v >= 0, u + v <= 1 cut into resolution^2 congruent cells
    lower = [[(r, s), (r + 1, s), (r, s + 1)]
             for r in range(resolution) for s in range(resolution - r)]
    upper = [[(r + 1, s), (r + 1, s + 1), (r, s + 1)]
             for r in range(resolution) for s in range(resolution - r - 1)]
    # (u, v) of the quadrature points, three consecutive ones per cell
    nodes = np.array(_TRI_QUAD_POINTS) @ (np.array(lower + upper, dtype=float) / resolution)
    nodes = nodes.reshape(-1, 2)
    area_term = 0.0
    for p, q, _ in edges:
        # triangle (center, p, q), one curvature batch per triangle
        legs = np.array([p - center, q - center])
        gmat, _, _, _, _, scalar = _curvature(g, center + nodes @ legs)
        cell_area = 0.5 * abs(np.linalg.det(legs)) / resolution**2
        dens = np.sqrt(np.linalg.det(gmat))
        area_term += (cell_area / 3.0) * float(np.sum(0.5 * scalar * dens))

    # Gauss-Legendre nodes on every edge, one batch for the whole boundary
    param, weight = np.polynomial.legendre.leggauss(max(8, 2 * resolution))
    rows = [(p + t * (q - p), q - p, domain.normals[face], w) for p, q, face in edges
            for t, w in zip(0.5 * (param + 1.0), 0.5 * weight)]
    pts, tangents, normals, weights = (np.array(column) for column in zip(*rows))
    gmat, ginv, _, bracket, _ = _first_order(g, pts)
    gmat, ginv, bracket = _stacked(len(pts), gmat, ginv, bracket)
    nu = _inner_unit_normal(normals, gmat, ginv)
    speed = np.sqrt(np.einsum("pi,pij,pj->p", tangents, gmat, tangents))
    # g(nabla_t t, nu) = Gamma_{l,ij} t^i t^j nu^l
    geodesic = 0.5 * np.einsum("pijl,pi,pj,pl->p", bracket, tangents, tangents, nu) / speed
    boundary_term = float(weights @ geodesic)

    corner_term = sum(math.pi - dihedral_angle(g, domain, edges[t - 1][2], edges[t][2], loop[t])
                      for t in range(len(loop)))

    return area_term + boundary_term + corner_term - 2.0 * math.pi
