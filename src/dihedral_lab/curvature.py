"""Curvature of metric fields on polyhedral chart domains.

Conventions (fixed here, tested against symbolic oracles):

- ``R(X, Y)Z = nabla_X nabla_Y Z - nabla_Y nabla_X Z - nabla_[X,Y] Z``,
  all-lowered components ``R_{ijkl} = g(R(d_i, d_j) d_k, d_l)``; with this
  sign ``R_{ijji}`` is the sectional curvature times the squared area
  element, so the round sphere has ``R_{ijji} > 0`` and ``Sc = n(n-1)``.
  With ``Gamma_{l,ij} = g_{lk} Gamma^k_{ij}``, ``R_{ijkl} = 1/2 (d_i d_k g_jl
  - d_i d_l g_jk - d_j d_k g_il + d_j d_l g_ik) + Gamma_{m,jl} Gamma^m_{ik}
  - Gamma_{m,il} Gamma^m_{jk}``.
- Mean curvature is taken with respect to the *inner* unit normal, so the
  boundary of a Euclidean ball has ``H = n - 1``; it is the trace of the
  second fundamental form in the face's inverse metric ``g^-1 - nu nu^T``,
  with no tangent frame.

All metric derivatives are exact second-order jets of the underlying
expressions (see :mod:`dihedral_lab.expressions`).  One curvature kernel
(``_first_order``, ``_riemann``) runs on floats at one point, g^-1 from a
Cholesky factor whose pivots check positive definiteness.  Domains are
stored, validated and enumerated, mean curvatures and dihedral angles computed,
and Gauss-Bonnet integrated by Gauss-Legendre product rules, on floats, so
``curvature_tensors``, the conformal identities, ``angles`` and
``gauss_bonnet_defect`` never load numpy; it is imported only to report a
metric's smallest eigenvalue when its Cholesky factorization fails.
"""

from __future__ import annotations

import math
from functools import cached_property, reduce
from itertools import combinations, product
from operator import add, mul
from numbers import Real
from typing import Sequence

from .expressions import (
    BinOp,
    Expr,
    MetricField,
    MetricNotPositiveDefinite,
    _full,
    parse_expression,
    scene_dim,
)

__all__ = [
    "PolyDomain",
    "CurvaturePack",
    "DomainError",
    "DegenerateCornerError",
    "curvature_tensors",
    "conformal_identities",
    "mean_curvature",
    "dihedral_angle",
    "gauss_bonnet_defect",
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
    # optional ((lo...), (hi...)) sampling box; __dict__ holds the cached
    # _solutions, _vertices, _bounded, _lattice, facets and edges
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
        rows, offsets = [], []
        for k, (a, b) in enumerate(halfspaces, 1):
            rows.append(_numbers(a, f"half-space {k}: 'a' must be a list of numbers"))
            offsets.append(_numbers([b], f"half-space {k}: 'b' must be a number")[0])
            if not rows[-1]:
                raise DomainError(f"half-space {k}: 'a' is empty")
            if len(rows[-1]) != len(rows[0]):
                raise DomainError(f"half-space {k}: 'a' has {len(rows[-1])} entries, "
                                  f"half-space 1 has {len(rows[0])}")
        if not rows:
            raise DomainError("at least one half-space is required")
        if not all(map(math.isfinite, [*offsets, *(v for row in rows for v in row)])):
            raise DomainError("half-space normals and offsets must be finite")
        norms = [_norm(row) for row in rows]
        if 0.0 in norms:
            raise DomainError("zero normal vector")
        if region not in ("intersection", "complement"):
            raise DomainError(f"unknown region mode {region!r}")
        if window is not None and not all(map(math.isfinite, (
                *window[0], *window[1], _norm([q - p for p, q in zip(*window)])))):
            raise DomainError("'window' entries and its diagonal must be finite")
        if window is not None and not all(p < q for p, q in zip(*window)):
            raise DomainError("'window' needs lo < hi in every coordinate")
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
            halfspaces = [(h["a"], h["b"]) for h in scene["halfspaces"]]
        except KeyError as exc:
            raise DomainError(f"domain scene missing key {exc}") from exc
        except TypeError as exc:
            raise DomainError("domain scene needs an integer 'dim' and a list "
                              "'halfspaces' of {\"a\": [...], \"b\": t}") from exc
        window = None
        if "window" in scene:
            shape = "'window' must be [[lo...], [hi...]]"
            try:
                lo, hi = scene["window"]
            except (TypeError, ValueError) as exc:
                raise DomainError(shape) from exc
            window = (tuple(_numbers(lo, shape)), tuple(_numbers(hi, shape)))
            if not len(window[0]) == len(window[1]) == dim:
                raise DomainError(f"'window' corners must have {dim} entries")
        dom = cls.from_halfspaces(halfspaces, region=scene.get("region", "intersection"),
                                  window=window)
        if dom.dim != dim:
            raise DomainError("half-space dimension disagrees with 'dim'")
        return dom

    def _validate(self) -> None:
        """Nonempty interior of the convex cell; every face supports it.

        Exact: basic solutions (at most ``_SUBSET_CAP`` row subsets) of the
        normals in coordinates on their span (``_householder``), so the cell
        is pointed.  Interior: max t of ``A_r y - t >= b``, ``0 <= t <= 1`` (a
        Chebyshev-centre LP) exceeds ``_FEAS_TOL`` (the first basic solution
        whose t does ends the search); a face supports the cell iff a vertex
        lies on it.  Feasibility and contact are judged up to
        ``_slack``'s scaled tolerance.  ``from_halfspaces`` rejects
        non-finite data.
        """
        span, rank = _householder(self.a)
        a_r = self.a if rank == self.dim else [
            [reduce(add, map(mul, row, q)) for q in span[:rank]] for row in self.a]
        lifted = [(*row, -1.0) for row in a_r] + [(0.0,) * rank + (t,) for t in (1.0, -1.0)]
        if not any(y[-1] > _FEAS_TOL for y in _basic_solutions(lifted, (*self.b, 0.0, -1.0))):
            raise DomainError("domain has empty interior")
        verts = self._solutions if rank == self.dim else list(_basic_solutions(a_r, self.b))
        for f, (row, t) in enumerate(zip(a_r, self.b), 1):
            if not any(s <= tol for s, tol in (_slack(row, t, y) for y in verts)):
                raise DomainError(f"face {f} does not support the domain")

    @property
    def face_count(self) -> int:
        return len(self.b)

    def _on_faces_at(self, faces: tuple, x: Sequence[float], tol: float) -> bool:
        """Whether ``x`` lies on every face in ``faces`` and on the inner side
        of the other supporting planes, up to ``tol`` or ``_slack``'s scaled
        tolerance, whichever is larger, so that points far from the origin
        pass; face indices count from the end when negative."""
        tight = {range(self.face_count)[f] for f in faces}

        def near(f, row, t, bound):
            s = reduce(add, map(mul, row, x), 0.0) - t
            return abs(s) <= bound if f in tight else s >= -bound
        return len(x) == self.dim and all(
            near(f, row, t, tol) or near(f, row, t, _slack(row, t, x)[1])
            for f, (row, t) in enumerate(zip(self.a, self.b)))

    def on_face(self, i: int, x: Sequence[float], tol: float = 1e-9) -> bool:
        return self._on_faces_at((i,), x, tol)

    def on_edge(self, i: int, j: int, x: Sequence[float], tol: float = 1e-9) -> bool:
        return self._on_faces_at((i, j), x, tol)

    @cached_property
    def _solutions(self) -> list:
        """The basic solutions of the normals and offsets, enumerated once for
        the validation of a full-rank cell and its vertices."""
        return list(_basic_solutions(self.a, self.b))

    @cached_property
    def _vertices(self) -> tuple:
        return tuple(sorted(_distinct(self._solutions)))

    @cached_property
    def _bounded(self) -> bool:
        """Whether the convex cell is bounded: it has vertices (else it holds
        a line), so full rank, and no nonzero d with ``<a_i, d> >= 0`` for
        all i.  Such a d has ``<c, d> > 0`` for c = sum_i a_i, so it exists
        iff ``<a_i, d> >= 0``, ``<c, d> >= 1`` has a basic solution."""
        c = tuple(map(math.fsum, zip(*self.a)))
        return bool(self._vertices) and next(
            _basic_solutions([*self.a, c], [0.0] * self.face_count + [1.0]), None) is None

    @cached_property
    def _lattice(self) -> tuple:
        """``(points, rows, on)``: the vertices of the convex cell, of its cut
        by the window box if the domain has one (the box's 2n half-spaces are
        added for this step only), in the order of their rounded keys; the
        normals, the domain's first; the vertex numbers on each plane."""
        rows, offsets = list(self.a), list(self.b)
        for c, (lo, hi) in enumerate(zip(*self.window or ())):
            axis = tuple(float(c == d) for d in range(self.dim))
            rows, offsets = rows + [axis, tuple(-v for v in axis)], offsets + [lo, -hi]
        points = _distinct(self._solutions if self.window is None
                           else _basic_solutions(rows, offsets))
        points = [points[key] for key in sorted(points)]
        return points, rows, [
            frozenset(v for v, y in enumerate(points) for s, tol in (_slack(row, t, y),)
                      if abs(s) <= tol) for row, t in zip(rows, offsets)]

    def _face_dim(self, pts: frozenset) -> int:
        """Dimension of the face with vertex numbers ``pts`` (-1 if none): n
        less the rank of the normals whose planes hold all of them."""
        if not pts:
            return -1
        tight = [row for row, vs in zip(*self._lattice[1:]) if pts <= vs]
        return self.dim - (_householder(tight)[1] if tight else 0)

    @cached_property
    def facets(self) -> tuple:
        """The faces of dimension n - 1, in order; a face that touches the
        cell (in the window) in less bounds nothing."""
        on = self._lattice[2]
        return tuple(f for f in range(self.face_count) if self._face_dim(on[f]) == self.dim - 1)

    @cached_property
    def edges(self) -> frozenset:
        """Pairs i < j of facets whose common vertices span dimension n - 2;
        a face that touches the cell in less than a facet is in no edge."""
        on = self._lattice[2]
        return frozenset((i, j) for i, j in combinations(self.facets, 2)
                         if self._face_dim(on[i] & on[j]) == self.dim - 2)

    def cells(self, faces: tuple) -> list:
        """The pulling triangulation of face ``(i,)`` or of the common face of
        ``(i, j)``: the cone from its least vertex over the triangulated
        facets that miss it, simplices as sorted tuples of vertices, apex
        first; none if the face misses the window."""
        points, _, on = self._lattice

        def pull(pts, d):
            return [(min(pts),)] if d <= 0 else sorted(
                (min(pts), *cell) for facet in {pts & vs for vs in on}
                if min(pts) not in facet and self._face_dim(facet) == d - 1
                for cell in pull(facet, d - 1))
        pts = frozenset.intersection(*(on[f] for f in faces))
        return [tuple(map(points.__getitem__, cell))
                for cell in (pull(pts, self._face_dim(pts)) if pts else ())]

    def vertices(self) -> tuple:
        """Points where ``dim`` face planes meet feasibly (may be none), as
        float tuples rounded to 9 decimals, sorted and deduplicated."""
        return self._vertices

    def diameter(self) -> float:
        if self.window is not None:
            lo, hi = self.window
            return _norm([q - p for p, q in zip(lo, hi)])
        pts = self._vertices
        if len(pts) >= 2:
            return max(max(_norm([p - q for p, q in zip(u, v)])
                           for u, v in combinations(pts, 2)), 1e-9)
        return 1.0


def _numbers(values, message: str) -> list:
    """``values`` as a list of floats if it is a sequence of real numbers
    other than bool (JSON numbers, numpy's scalars), else a
    :class:`DomainError` with ``message``; an int past the float range
    becomes an infinity."""
    try:
        values = list(values)
    except TypeError:
        raise DomainError(message) from None
    if not all(isinstance(v, Real) and not isinstance(v, bool) for v in values):
        raise DomainError(message)
    return [(math.inf if v > 0 else -math.inf) if isinstance(v, int) and abs(v) >= 2**1024
            else float(v) for v in values]


def _distinct(solutions) -> dict:
    """Basic solutions by their coordinates rounded to 9 decimals, the first
    of each: np.unique(np.round(v, 9), axis=0) on floats, where v * 1e9 is
    finite (of keys equal up to signed zeros the first)."""
    out = {}
    for y in solutions:
        out.setdefault(tuple(math.copysign(round(v * 1e9), v) / 1e9 if abs(v) < 1e299 else v
                             for v in y), tuple(y))
    return out


def _norm(v) -> float:
    """Euclidean norm summed left to right: numpy's row norms, bit for bit,
    up to 7 entries."""
    return math.sqrt(reduce(add, [p * p for p in v], 0.0))


def _basic_solutions(a: Sequence, b: Sequence):
    """Feasible solutions of ``a y >= b`` (k rows of m floats) with a square
    subset of rows tight, of determinant at least 1e-12 in size, lazily in
    ``combinations`` order: Gaussian elimination with partial pivoting, then
    ``_slack``'s rule row by row, the row that last cut one off first."""
    k, m = len(a), len(a[0])
    if math.comb(k, m) > _SUBSET_CAP:
        raise DomainError(f"domain needs more than {_SUBSET_CAP} basic row subsets")
    order = list(range(k))
    for subset in combinations(range(k), m):
        rows, det = [[*a[r], b[r]] for r in subset], 1.0
        for c in range(m):
            p = max(range(c, m), key=lambda r: abs(rows[r][c]))
            rows[c], rows[p] = rows[p], rows[c]
            det *= rows[c][c]
            for row in rows[c + 1:]:
                f = row[c] and row[c] / rows[c][c]  # the pivot is 0 only if row[c] is
                row[c:] = [v - f * q for v, q in zip(row[c:], rows[c][c:])]
        if not abs(det) >= 1e-12:
            continue
        y = [0.0] * m
        for c in range(m - 1, -1, -1):
            tail = reduce(add, map(mul, rows[c][c + 1:m], y[c + 1:]), 0.0)
            y[c] = (rows[c][m] - tail) / rows[c][c]
        for pos, r in enumerate(order):
            s, tol = _slack(a[r], b[r], y)
            if s < -tol:
                order.insert(0, order.pop(pos))
                break
        else:
            yield y


def _slack(row: Sequence[float], t: float, y: Sequence[float]) -> tuple:
    """The slack ``<row, y> - t`` and its tolerance: ``_FEAS_TOL`` times the
    size ``|row| |y| + |t|`` of the terms it cancels, at least 1, so that
    cells far from the origin pass."""
    return (reduce(add, map(mul, row, y)) - t,
            _FEAS_TOL * max(1.0, reduce(add, [abs(p * q) for p, q in zip(row, y)]) + abs(t)))


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
    ``gm[r][c]`` (c <= r); a non-positive pivot leaves nan for the caller to
    report."""
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


def _first_order(g: MetricField, x: Sequence[float]):
    """Metric ``gm[i][j]``, inverse, ``d2g[i][j][a][b] = d_a d_b g_ij``, the
    Christoffel bracket ``bracket[i][j][l]`` (twice the first-kind symbols),
    Gamma^k_{ij} as ``gamma[k][i][j]`` and the rows of the Cholesky factor
    at the point ``x``, as nested lists of floats."""
    point = tuple(map(float, x))
    gm, dg, d2g = g.jet_parts(point)
    low = _cholesky(gm)
    if not all(row[-1] > 0.0 for row in low):  # nan at a failed pivot
        raise _not_positive_definite(list(point), gm)
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
    return gm, ginv, d2g, bracket, gamma, low


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


def curvature_tensors(g: MetricField, x: Sequence[float]) -> CurvaturePack:
    """Full curvature data of ``g`` at an interior chart point, on floats."""
    x = tuple(float(v) for v in x)
    gm, ginv, d2g, bracket, gamma, _ = _first_order(g, x)
    return CurvaturePack(x, gm, ginv, bracket, gamma, *_riemann(ginv, d2g, bracket, gamma))


# ---------------------------------------------------------------------------
# Face geometry
# ---------------------------------------------------------------------------


def _householder(rows: Sequence[Sequence[float]]) -> tuple[list, int]:
    """Columns of Q in a Householder QR of the transpose of ``rows`` (unit
    rows of length n), and the rank r: the first r columns span the rows and
    the others their null space.  Reflectors follow LAPACK ``dlarfg``
    (``beta = -copysign(|x|, alpha)``, none where the tail is 0); a row whose
    part outside the span of the earlier ones has norm <= 1e-12 is skipped."""
    n, refl = len(rows[0]), []  # (r, tau, v): H_r = 1 - tau v v^T on entries r..

    def reflect(w, order):
        for r, tau, v in order:
            if tau:  # as LAPACK dlarf: none for tau = 0, sums from +0.0
                s = -tau * reduce(add, map(mul, v, w[r:]), 0.0)
                w[r:] = [q + p * s for p, q in zip(v, w[r:])]
        return w

    for row in rows:
        w, r = reflect([float(v) for v in row], refl), len(refl)
        if _norm(w[r:]) > 1e-12:
            beta = -math.copysign(_norm(w[r:]), w[r])
            refl.append((r, (beta - w[r]) / beta if _norm(w[r + 1:]) else 0.0,
                         [1.0] + [v / (w[r] - beta) for v in w[r + 1:]]))
    return [reflect([float(c == d) for d in range(n)], refl[::-1]) for c in range(n)], len(refl)


def _mean_curvature(domain: PolyDomain, i: int, ginv: list, bracket: list) -> tuple:
    """Mean curvature and inner unit normal nu of face ``i`` from the inverse
    metric and the Christoffel bracket as ``_first_order`` gives them at one
    point of the face.

    ``nu = s g^-1 a / sqrt(a^T g^-1 a)`` (s = -1 for the complement) and
    ``A(X, Y) = Gamma_{l,ij} X^i Y^j nu^l`` for constant-coefficient fields;
    the face's inverse metric is ``g^-1 - nu nu^T``, so its trace is ``H =
    sum_pq (g^pq - nu^p nu^q) Gamma_{l,pq} nu^l``, with no tangent frame."""
    w = [reduce(add, map(mul, row, domain.a[i])) for row in ginv]
    size = _root(reduce(add, map(mul, domain.a[i], w)))
    nu = [v / size if domain.region == "intersection" else -v / size for v in w]
    return reduce(add, [(gp - p * q) * (0.5 * reduce(add, map(mul, col, nu), 0.0))
                        for p, row, brow in zip(nu, ginv, bracket)
                        for q, gp, col in zip(nu, row, brow)], 0.0), nu


def _face_point(domain: PolyDomain, i: int, x: Sequence[float]) -> list:
    """``x`` as a list of floats, checked to lie on face ``i``."""
    if not (0 <= i < domain.face_count):
        raise DomainError(f"no face {i + 1}")
    x = [float(v) for v in x]
    if not domain.on_face(i, x):
        raise DomainError(f"point {x} is not on face {i + 1}")
    return x


def mean_curvature(g: MetricField, domain: PolyDomain, i: int, x: Sequence[float]) -> float:
    """Mean curvature of face ``i`` at ``x``: the trace of its second
    fundamental form.

    The face is a flat piece of the supporting hyperplane; curvature comes
    entirely from the metric.  The normal is the inner one: for the
    ``complement`` region mode inner means pointing away from the removed
    convex cell.
    """
    _, ginv, _, bracket, *_ = _first_order(g, _face_point(domain, i, x))
    return _mean_curvature(domain, i, ginv, bracket)[0]


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
    a face is given.
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
    pack = curvature_tensors(scaled, x)
    rhs = (pack_bar.scalar / hval**2 - 2.0 * (n - 1) / hval**3 * lap
           - (n - 1) * (n - 4) / hval**4 * grad_sq)
    out = {"scalar": float(pack.scalar - rhs)}

    if face is not None:
        if domain is None:
            raise ValueError("mean-curvature variant needs the domain")
        _face_point(domain, face, x)
        mean_bar, nu_bar = _mean_curvature(domain, face, pack_bar.metric_inv, pack_bar.bracket)
        rhs_h = mean_bar / hval - (n - 1) / hval**2 * reduce(add, map(mul, grad, nu_bar))
        out["mean_curvature"] = float(
            _mean_curvature(domain, face, pack.metric_inv, pack.bracket)[0] - rhs_h)
    return out


# ---------------------------------------------------------------------------
# Dihedral angles
# ---------------------------------------------------------------------------


_SPLITTER = 134217729.0  # 2^27 + 1, for Dekker's split


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
    eps^2 cond(g)^2 stays below eps.  A non-positive pivot leaves nan; the
    caller checks that the diagonal is > 0.
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


def _root(v: float) -> float:
    """Square root, nan at a non-positive value (a failed pivot)."""
    return math.sqrt(v) if v > 0.0 else math.nan


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
        raise DomainError(f"point {x} is not on edge ({i + 1}, {j + 1})")
    gm = g.matrix_at(x)
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

_GB_NODES = 8  # Gauss-Legendre nodes per direction at most


def gauss_bonnet_defect(g: MetricField, domain: PolyDomain,
                        resolution: int = 12) -> float:
    """Residual of Gauss-Bonnet on a bounded convex 2-D polygon:

        integral_D K dA + integral_bd k_g ds + sum_v (pi - theta_v) - 2 pi chi.

    Vanishes analytically; the return value measures the quadrature error.
    The polygon comes from the face lattice: a side is a face of dimension 1
    (the first of the faces with its vertex set) between its two lattice
    points, and a corner is a lattice point, an unrounded basic solution.  With n =
    min(resolution, 8) Gauss-Legendre nodes per direction, each triangle (c,
    p, q) of the cone from the centroid c of the lattice points over a side
    pq takes the n x n product rule through the collapsed square ``(a, b) ->
    c + a (p - c) + a b (q - p)``, of Jacobian ``a |det(p - c, q - c)|``
    (Karniadakis & Sherwin, *Spectral/hp Element Methods for CFD*, 2nd ed.,
    2005), and each side n nodes; K dA is ``Sc / 2 sqrt(det g)``, k_g ds the
    mean curvature of the side times its g-length, theta_v the
    dihedral angle of the sides through v.  No term depends on orientation
    and ``math.fsum`` is exact, so the sides need no order.
    """
    from .bessel import _gauss_legendre  # the package's one Gauss-Legendre generator

    if resolution < 1:
        raise DomainError("resolution must be >= 1")
    planar = domain.dim == 2 and domain.region == "intersection"
    points, _, on = domain._lattice if planar else ((), (), ())
    sides = {}  # vertex numbers of each side -> its first face
    for f, vs in enumerate(on[:domain.face_count]):
        if domain._face_dim(vs) == 1:
            sides.setdefault(vs, f)
    corners = [[f for vs, f in sides.items() if v in vs] for v in range(len(points))]
    if not points or any(len(faces) != 2 for faces in corners):
        raise DomainError("Gauss-Bonnet needs a bounded convex 2-D polygon "
                          "(every vertex on two sides)")
    center = [math.fsum(c) / len(points) for c in zip(*points)]
    rule = _gauss_legendre(min(resolution, _GB_NODES))
    terms = [-2.0 * math.pi]
    for vs, face in sides.items():
        p, q = (points[v] for v in sorted(vs))
        u, v = [s - c for s, c in zip(p, center)], [s - r for s, r in zip(q, p)]
        det = abs(u[0] * v[1] - u[1] * v[0])
        for a, wa in rule:
            for b, wb in rule:
                x = [c + a * (du + b * dv) for c, du, dv in zip(center, u, v)]
                _, ginv, d2g, bracket, gamma, low = _first_order(g, x)
                # sqrt(det g) is the product of the Cholesky pivots
                terms.append(wa * wb * a * det * 0.5 * _riemann(ginv, d2g, bracket, gamma)[2]
                             * low[0][0] * low[1][1])
        for s, w in rule:
            gm, ginv, _, bracket, _, _ = _first_order(g, [r + s * d for r, d in zip(p, v)])
            speed = math.sqrt(reduce(add, [d * reduce(add, map(mul, row, v))
                                           for d, row in zip(v, gm)]))
            terms.append(w * _mean_curvature(domain, face, ginv, bracket)[0] * speed)
    for x, faces in zip(points, corners):
        terms.append(math.pi - dihedral_angle(g, domain, *faces, x))
    return math.fsum(terms)
