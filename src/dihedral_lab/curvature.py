"""Curvature of metric fields on polyhedral chart domains.

Conventions (fixed here, tested against symbolic oracles):

- ``R(X, Y)Z = nabla_X nabla_Y Z - nabla_Y nabla_X Z - nabla_[X,Y] Z``,
  all-lowered components ``R_{ijkl} = g(R(d_i, d_j) d_k, d_l)``; with this
  sign ``R_{ijji}`` is the sectional curvature times the squared area
  element, so the round sphere has ``R_{ijji} > 0`` and ``Sc = n(n-1)``.
- The curvature operator on 2-vectors is
  ``<Rop(e_i ^ e_j), e_k ^ e_l> = -R(e_i, e_j, e_k, e_l)`` in an
  orthonormal frame; non-negative for the round sphere.
- Second fundamental forms are taken with respect to the *inner* unit
  normal, so the boundary of a Euclidean ball has positive mean curvature
  ``H = n - 1``.
- Orthonormal frames come from Gram-Schmidt on the coordinate frame in
  index order; deterministic.

All metric derivatives are exact second-order jets of the underlying
expressions (see :mod:`dihedral_lab.expressions`), evaluated over a leading
batch axis of points.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from itertools import combinations
from typing import Sequence

import numpy as np

from .expressions import (
    Expr,
    MetricField,
    MetricNotPositiveDefinite,
    metric_at,
    parse_expression,
)

__all__ = [
    "PolyDomain",
    "CurvaturePack",
    "FaceGeometry",
    "DomainError",
    "DegenerateCornerError",
    "christoffel",
    "curvature_tensors",
    "curvature_operator",
    "face_geometry",
    "hypersurface_geometry",
    "dihedral_angle",
    "gauss_bonnet_defect",
    "orthonormal_frame",
    "wedge_pairs",
]

_FEAS_TOL = 1e-9


class DomainError(ValueError):
    """Invalid polyhedral domain or point/stratum mismatch."""


class DegenerateCornerError(ValueError):
    """The two face normals are parallel along the edge (u = +-v)."""


# ---------------------------------------------------------------------------
# Polyhedral domains
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class PolyDomain:
    """Polyhedral chart domain cut out by half-spaces ``<a_i, x> >= b_i``.

    ``region`` selects between the convex intersection of the half-spaces
    (default) and the closure of its complement.  The complement mode
    exists for reflex corners: the region around a corner of interior
    angle > pi is the complement of a convex wedge, which no intersection
    of half-spaces can represent.  Faces are the supporting hyperplane
    pieces in both modes; only the membership test differs.
    """

    dim: int
    normals: np.ndarray  # (k, n), unit rows
    offsets: np.ndarray  # (k,)
    region: str = "intersection"
    window: tuple | None = None  # optional ((lo...), (hi...)) sampling box

    @classmethod
    def from_halfspaces(
        cls,
        halfspaces: Sequence[tuple[Sequence[float], float]],
        region: str = "intersection",
        window: tuple | None = None,
        validate: bool = True,
    ) -> "PolyDomain":
        normals = np.array([np.asarray(a, dtype=float) for a, _ in halfspaces])
        offsets = np.array([float(b) for _, b in halfspaces])
        if normals.ndim != 2 or normals.shape[0] == 0:
            raise DomainError("at least one half-space is required")
        dim = normals.shape[1]
        norms = np.linalg.norm(normals, axis=1)
        if np.any(norms == 0.0):
            raise DomainError("zero normal vector")
        normals = normals / norms[:, None]
        offsets = offsets / norms
        if region not in ("intersection", "complement"):
            raise DomainError(f"unknown region mode {region!r}")
        dom = cls(dim, normals, offsets, region, window)
        if validate:
            dom._validate()
        return dom

    @classmethod
    def from_scene(cls, scene: dict) -> "PolyDomain":
        if not isinstance(scene, dict):
            raise DomainError("domain scene must be a JSON object")
        try:
            dim = int(scene["dim"])
            halfspaces = [(np.asarray(h["a"], dtype=float), float(h["b"]))
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

    def _validate(self) -> None:
        """Nonempty interior of the convex cell; every face supports it."""
        from scipy.optimize import linprog

        k, n = self.normals.shape
        # maximize slack t subject to A x - t >= b, 0 <= t <= 1
        c = np.zeros(n + 1)
        c[-1] = -1.0
        a_ub = np.hstack([-self.normals, np.ones((k, 1))])
        res = linprog(c, A_ub=a_ub, b_ub=-self.offsets,
                      bounds=[(None, None)] * n + [(0.0, 1.0)], method="highs")
        if not res.success or res.x is None or res.x[-1] <= _FEAS_TOL:
            raise DomainError("domain has empty interior")
        for i in range(k):
            feas = linprog(
                np.zeros(n),
                A_ub=-self.normals,
                b_ub=-self.offsets,
                A_eq=self.normals[i: i + 1],
                b_eq=self.offsets[i: i + 1],
                bounds=[(None, None)] * n,
                method="highs",
            )
            if not feas.success:
                raise DomainError(f"face {i} does not support the domain")

    @property
    def face_count(self) -> int:
        return self.normals.shape[0]

    def slacks(self, x: Sequence[float]) -> np.ndarray:
        return self.normals @ np.asarray(x, dtype=float) - self.offsets

    def contains(self, x: Sequence[float], tol: float = 1e-12) -> bool:
        s = self.slacks(x)
        if self.region == "intersection":
            return bool(np.all(s >= -tol))
        return bool(np.any(s <= tol))

    def on_face(self, i: int, x: Sequence[float], tol: float = 1e-9) -> bool:
        s = self.slacks(x)
        others = np.delete(s, i)
        return abs(s[i]) <= tol and bool(np.all(others >= -tol))

    def on_edge(self, i: int, j: int, x: Sequence[float], tol: float = 1e-9) -> bool:
        s = self.slacks(x)
        others = np.delete(s, [i, j])
        return abs(s[i]) <= tol and abs(s[j]) <= tol and bool(np.all(others >= -tol))

    def vertices(self) -> np.ndarray:
        """Points where ``dim`` face planes meet feasibly (may be empty)."""
        n = self.dim
        out = []
        for subset in combinations(range(self.face_count), n):
            a = self.normals[list(subset)]
            b = self.offsets[list(subset)]
            if abs(np.linalg.det(a)) < 1e-12:
                continue
            v = np.linalg.solve(a, b)
            if np.all(self.slacks(v) >= -1e-9):
                out.append(v)
        if not out:
            return np.zeros((0, n))
        pts = np.unique(np.round(np.array(out), 9), axis=0)
        return pts

    def diameter(self) -> float:
        if self.window is not None:
            lo, hi = self.window
            return float(np.linalg.norm(np.subtract(hi, lo)))
        pts = self.vertices()
        if len(pts) >= 2:
            best = max(
                float(np.linalg.norm(p - q)) for p, q in combinations(pts, 2)
            )
            return max(best, 1e-9)
        return 1.0


# ---------------------------------------------------------------------------
# Curvature tensors
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class CurvaturePack:
    """Christoffel symbols and curvature tensors of g at one point.

    ``gamma[k, i, j]`` is Gamma^k_{ij}; ``riemann[i, j, k, l]`` is the
    all-lowered tensor R_{ijkl}.
    """

    point: tuple
    metric: np.ndarray
    metric_inv: np.ndarray
    gamma: np.ndarray
    riemann: np.ndarray
    ricci: np.ndarray
    scalar: float

    def antisymmetry_residual(self) -> float:
        r = self.riemann
        scale = max(np.abs(r).max(), 1.0)
        return max(
            np.abs(r + np.swapaxes(r, 0, 1)).max(),
            np.abs(r + np.swapaxes(r, 2, 3)).max(),
        ) / scale

    def pair_symmetry_residual(self) -> float:
        r = self.riemann
        scale = max(np.abs(r).max(), 1.0)
        return np.abs(r - np.transpose(r, (2, 3, 0, 1))).max() / scale

    def bianchi_residual(self) -> float:
        r = self.riemann
        scale = max(np.abs(r).max(), 1.0)
        cyc = r + np.transpose(r, (1, 2, 0, 3)) + np.transpose(r, (2, 0, 1, 3))
        return np.abs(cyc).max() / scale


def _first_order(g: MetricField, pts: np.ndarray):
    """Metric, inverse, derivatives ``dg[p, k, i, j]`` and ``d2g[p, a, b, i, j]``,
    the Christoffel bracket and Gamma^k_{ij} at the rows of ``pts``."""
    gmat, dg, d2g = g.jet(pts)
    lowest = np.linalg.eigvalsh(gmat)[:, 0]
    if np.any(lowest <= 0.0):
        p = int(np.argmax(lowest <= 0.0))  # the first bad point
        raise MetricNotPositiveDefinite(
            f"metric at {pts[p].tolist()} has smallest eigenvalue {lowest[p]:.3e}")
    ginv = np.linalg.inv(gmat)
    # bracket[..., i, j, l] = d_i g_jl + d_j g_il - d_l g_ij
    bracket = dg + np.swapaxes(dg, -3, -2) - np.moveaxis(dg, -3, -1)
    # Gamma^k_{ij} = 1/2 g^{kl} (d_i g_jl + d_j g_il - d_l g_ij)
    gamma = 0.5 * np.einsum("...kl,...ijl->...kij", ginv, bracket)
    return gmat, ginv, dg, d2g, bracket, gamma


def _curvature(g: MetricField, pts: np.ndarray):
    """Metric, inverse, Gamma, Riemann, Ricci and scalar curvature at the
    rows of ``pts``, each with a leading point axis."""
    gmat, ginv, dg, d2g, bracket, gamma = _first_order(g, pts)
    # d_a g^{kl} = -g^{km} (d_a g_mn) g^{nl}
    dginv = -np.einsum("...km,...amn,...nl->...akl", ginv, dg, ginv)
    # dbracket[..., a, i, j, l] = d_a bracket[..., i, j, l]
    dbracket = d2g + np.swapaxes(d2g, -3, -2) - np.moveaxis(d2g, -3, -1)
    # dgamma[..., a, k, i, j] = d_a Gamma^k_{ij}
    dgamma = 0.5 * (
        np.einsum("...akl,...ijl->...akij", dginv, bracket)
        + np.einsum("...kl,...aijl->...akij", ginv, dbracket)
    )
    # R^m_{ijk} = d_i Gamma^m_{jk} - d_j Gamma^m_{ik}
    #             + Gamma^l_{jk} Gamma^m_{il} - Gamma^l_{ik} Gamma^m_{jl}
    rm = (
        np.einsum("...imjk->...mijk", dgamma)
        - np.einsum("...jmik->...mijk", dgamma)
        + np.einsum("...ljk,...mil->...mijk", gamma, gamma)
        - np.einsum("...lik,...mjl->...mijk", gamma, gamma)
    )
    riemann = np.einsum("...ml,...mijk->...ijkl", gmat, rm)
    ricci = np.einsum("...ml,...mjkl->...jk", ginv, riemann)
    scalar = np.einsum("...jk,...jk->...", ginv, ricci)
    return gmat, ginv, gamma, riemann, ricci, scalar


def christoffel(g: MetricField, x: Sequence[float]):
    """Metric, inverse, and Christoffel symbols Gamma^k_{ij} at ``x``."""
    gmat, ginv, _, _, _, gamma = _first_order(g, np.atleast_2d(x))
    return gmat[0], ginv[0], gamma[0]


def curvature_tensors(g: MetricField, x: Sequence[float]) -> CurvaturePack:
    """Full curvature data of ``g`` at an interior chart point."""
    gmat, ginv, gamma, riemann, ricci, scalar = (
        part[0] for part in _curvature(g, np.atleast_2d(x)))
    return CurvaturePack(tuple(float(v) for v in x), gmat, ginv, gamma,
                         riemann, ricci, float(scalar))


def orthonormal_frame(gmat: np.ndarray) -> np.ndarray:
    """Gram-Schmidt on the coordinate frame in index order; columns E_a
    satisfy E^T g E = 1."""
    return _g_orthonormalize(np.eye(gmat.shape[0]), gmat)


def wedge_pairs(n: int) -> list[tuple[int, int]]:
    return [(i, j) for i in range(n) for j in range(i + 1, n)]


def curvature_operator(g: MetricField, x: Sequence[float]) -> np.ndarray:
    """Curvature operator on Lambda^2 in the Gram-Schmidt orthonormal frame.

    Entry ((a, b), (c, d)) is ``-R(E_a, E_b, E_c, E_d)``; the matrix is
    symmetrized before returning (the exact tensor is pair-symmetric, the
    evaluated one up to rounding).
    """
    pack = curvature_tensors(g, x)
    frame = orthonormal_frame(pack.metric)
    rframe = np.einsum("ijkl,ia,jb,kc,ld->abcd", pack.riemann,
                       frame, frame, frame, frame)
    a, b = np.triu_indices(g.dim, 1)  # the wedge_pairs order
    op = -rframe[a[:, None], b[:, None], a, b]
    return 0.5 * (op + op.T)


# ---------------------------------------------------------------------------
# Face geometry
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class FaceGeometry:
    """Second fundamental form (inner normal) on a g-orthonormal tangent
    basis of the face, and its trace."""

    second_fundamental: np.ndarray
    mean_curvature: float
    tangent_basis: np.ndarray  # (n, n-1) columns
    inner_normal: np.ndarray


def _nullspace(rows: np.ndarray) -> np.ndarray:
    """Orthonormal Euclidean basis (columns) of the null space of ``rows``,
    from a full SVD (deterministic)."""
    rows = np.asarray(rows, dtype=float)
    _, s, vt = np.linalg.svd(rows)
    rank = int(np.sum(s > 1e-12))
    return vt[rank:].T


def _g_orthonormalize(cols: np.ndarray, gmat: np.ndarray) -> np.ndarray:
    out = np.zeros_like(cols, dtype=float)
    k = cols.shape[1]
    for a in range(k):
        v = cols[:, a].astype(float)
        for b in range(a):
            v = v - (out[:, b] @ gmat @ v) * out[:, b]
        norm = math.sqrt(v @ gmat @ v)
        if norm < 1e-14:
            raise DomainError("degenerate tangent basis")
        out[:, a] = v / norm
    return out


def _inner_unit_normal(a: np.ndarray, gmat: np.ndarray, ginv: np.ndarray,
                       sign: float = 1.0) -> np.ndarray:
    """g-unit vector g-orthogonal to the face plane, on the <a, .> > 0 side
    (any leading point axes of ``a``, ``gmat`` and ``ginv`` broadcast)."""
    nu = np.einsum("...ij,...j->...i", ginv, a)
    norm = np.sqrt(np.einsum("...i,...ij,...j->...", nu, gmat, nu))
    return sign * nu / norm[..., None]


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
    if not domain.on_face(i, x):
        raise DomainError(f"point {list(x)} is not on face {i}")
    a = domain.normals[i]
    gmat, ginv, gamma = christoffel(g, x)
    sign = 1.0 if domain.region == "intersection" else -1.0
    nu = _inner_unit_normal(a, gmat, ginv, sign)
    tangent = _g_orthonormalize(_nullspace(a[None, :]), gmat)
    # A(X, Y) = g(nabla_X Y, nu): constant-coefficient extension of Y
    lowered = np.einsum("kij,kl,l->ij", gamma, gmat, nu)
    second = np.einsum("ia,ij,jb->ab", tangent, lowered, tangent)
    second = 0.5 * (second + second.T)
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
    gmat, ginv, gamma = christoffel(g, pos)
    # g-normal: null space of (tangent^T g)
    null = np.linalg.svd(jac.T @ gmat)[2][-1]
    nu = null / math.sqrt(null @ gmat @ null)
    ref = np.asarray(inward_reference, dtype=float)
    if nu @ gmat @ (ref - pos) < 0:
        nu = -nu
    # A_ab = g(sigma_ab + Gamma(t_a, t_b), nu) on the chart basis
    accel = hess + np.einsum("kij,ia,jb->kab", gamma, jac, jac)
    a_chart = np.einsum("kab,kl,l->ab", accel, gmat, nu)
    first = jac.T @ gmat @ jac
    mean = float(np.trace(np.linalg.solve(first, a_chart)))
    # report A on a g-orthonormal tangent basis, consistent with face_geometry
    tangent = _g_orthonormalize(jac, gmat)
    comb = np.linalg.lstsq(jac, tangent, rcond=None)[0]
    second = comb.T @ a_chart @ comb
    second = 0.5 * (second + second.T)
    return FaceGeometry(second, mean, tangent, nu)


# ---------------------------------------------------------------------------
# Dihedral angles
# ---------------------------------------------------------------------------


def _edge_normal_in_face(domain: PolyDomain, gmat: np.ndarray, i: int, j: int
                         ) -> np.ndarray:
    """g-unit vector tangent to face i, g-orthogonal to the edge plane
    intersection, pointing to the <a_j, .> > 0 side."""
    a_i = domain.normals[i]
    a_j = domain.normals[j]
    face_basis = _nullspace(a_i[None, :])  # (n, n-1)
    if domain.dim == 2:
        u = face_basis[:, 0]
    else:
        # the sought vector is the g-projection of a_j^sharp onto the face
        # plane: tangent to face i, g-orthogonal to every edge direction
        sharp = np.linalg.inv(gmat) @ a_j
        coef = np.linalg.solve(face_basis.T @ gmat @ face_basis,
                               face_basis.T @ gmat @ sharp)
        u = face_basis @ coef
    nrm = math.sqrt(u @ gmat @ u)
    if nrm < 1e-14:
        raise DegenerateCornerError("edge normal within face is degenerate")
    u = u / nrm
    if a_j @ u < 0:
        u = -u
    elif a_j @ u == 0:
        raise DegenerateCornerError("faces meet tangentially")
    return u


def dihedral_angle(g: MetricField, domain: PolyDomain, i: int, j: int,
                   x: Sequence[float]) -> float:
    """Dihedral angle of faces (i, j) at an edge point, in (0, pi) u (pi, 2 pi).

    The angle theta is measured between the unit inner normals of the edge
    inside each face of the convex cell; it lies in (0, pi) for every inner
    product.  The closure of the complement of that cell has the reflex
    angle ``2 pi - theta`` there.
    """
    if i == j:
        raise DomainError("need two distinct faces")
    if not domain.on_edge(i, j, x):
        raise DomainError(f"point {list(x)} is not on edge ({i}, {j})")
    gmat = metric_at(g, x)
    u = _edge_normal_in_face(domain, gmat, i, j)
    v = _edge_normal_in_face(domain, gmat, j, i)
    cosang = float(u @ gmat @ v)
    if abs(cosang) >= 1.0 - 1e-12:
        raise DegenerateCornerError(
            f"degenerate corner: normals are parallel (cos = {cosang:.6f})"
        )
    theta = math.acos(max(-1.0, min(1.0, cosang)))
    if domain.region == "intersection":
        return theta
    return 2.0 * math.pi - theta


# ---------------------------------------------------------------------------
# Gauss-Bonnet on 2-D polygons
# ---------------------------------------------------------------------------

_TRI_QUAD_POINTS = np.array([
    [2.0 / 3.0, 1.0 / 6.0, 1.0 / 6.0],
    [1.0 / 6.0, 2.0 / 3.0, 1.0 / 6.0],
    [1.0 / 6.0, 1.0 / 6.0, 2.0 / 3.0],
])  # barycentric, degree-2 rule with equal weights 1/3


def _polygon_structure(domain: PolyDomain):
    """Ordered vertex loop of a bounded convex 2-D domain, with the
    supporting face index of each edge."""
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
    edges = []
    k = len(loop)
    for t in range(k):
        p, q = loop[t], loop[(t + 1) % k]
        mid = 0.5 * (p + q)
        slack = domain.slacks(mid)
        face = int(np.argmin(np.abs(slack)))
        if abs(slack[face]) > 1e-7 * max(1.0, domain.diameter()):
            raise DomainError("polygon edge does not lie on a face")
        edges.append((p, q, face))
    return loop, edges


def gauss_bonnet_defect(g: MetricField, domain: PolyDomain,
                        resolution: int = 12) -> float:
    """Residual of Gauss-Bonnet on a bounded convex 2-D polygon:

        integral_D K dA + integral_bd k_g ds + sum_v (pi - theta_v) - 2 pi chi.

    Vanishes analytically; the return value measures the quadrature error.
    """
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
    nodes = _TRI_QUAD_POINTS @ (np.array(lower + upper, dtype=float) / resolution)
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
    gmat, ginv, _, _, _, gamma = _first_order(g, pts)
    nu = _inner_unit_normal(normals, gmat, ginv)
    accel = np.einsum("pkij,pi,pj->pk", gamma, tangents, tangents)
    speed = np.sqrt(np.einsum("pi,pij,pj->p", tangents, gmat, tangents))
    geodesic = np.einsum("pk,pkl,pl->p", accel, gmat, nu) / speed
    boundary_term = float(weights @ geodesic)

    corner_term = 0.0
    k = len(loop)
    for t in range(k):
        face_prev = edges[(t - 1) % k][2]
        face_next = edges[t][2]
        theta = dihedral_angle(g, domain, face_prev, face_next, loop[t])
        corner_term += math.pi - theta

    return area_term + boundary_term + corner_term - 2.0 * math.pi
