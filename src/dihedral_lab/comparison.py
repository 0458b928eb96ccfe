"""Comparison machinery: map norms and margin reports.

Everything here evaluates the inequalities that a curvature / mean-curvature
/ dihedral-angle comparison between a source domain (N, gbar) and a target
domain (M, g) must satisfy, at deterministically sampled points: the
hypothesis margins  ``Sc(gbar) - |^2 df| f*Sc``, ``Hbar - |df| f*H``,
``f*theta - thetabar`` and the cap ``pi - f*theta``.  Each stratum
(interior, every mapped face, every edge of the source's face lattice
between mapped faces) is sampled and jetted once, on floats, where every
face and edge image is checked once against the face correspondence
(``_mapped_strata``); every verdict holds at the samples only.
Everything runs on floats: the curvature kernel, mean curvatures and
dihedral angles of a stratum are evaluated once for a constant metric and at each
point for a metric that varies, and the singular values of df at each
point, so ``compare`` never loads numpy.

The conformal identities of the rigidity argument live in ``curvature``,
which runs them on floats; the PSD certificates behind the interior and
boundary estimates need no metric and live in ``clifford``.
"""

from __future__ import annotations

import math
import random
from bisect import bisect_right
from functools import reduce
from itertools import accumulate, combinations
from operator import add, index, mul

from .curvature import (
    DomainError,
    PolyDomain,
    _cholesky,
    _first_order,
    _householder,
    _mean_curvature,
    _riemann,
    curvature_tensors,  # bound here too: perfbench's tracer test patches this binding
    dihedral_angle,
)
from .expressions import Expr, MetricField, metric_from_scene, parse_expression

__all__ = [
    "CornerMap",
    "CompareScene",
    "SampleSpec",
    "MarginRecord",
    "ComparisonReport",
    "check_hypotheses",
    "check_conclusions",
    "SceneError",
]

DEFAULT_TOLERANCE = 1e-6
# least points checked per face / edge
_CHECK_PER_FACE, _CHECK_PER_EDGE = 8, 4
_PRIMES = (2, 3, 5, 7, 11, 13, 17, 19)
# witness band: margins within this many ulps of max(1, |extreme|) tie
_TIE_ULPS = 8


class SceneError(ValueError):
    """Scene data violates the corner-map or domain contracts."""


# ---------------------------------------------------------------------------
# Map norms
# ---------------------------------------------------------------------------


def _singular_values(rows: list) -> list:
    """Singular values of the matrix with ``rows``, largest first: one-sided
    Jacobi rotations (Hestenes) on its rows, or on its columns where they
    are fewer, until every pair is orthogonal to working precision."""
    vecs = [list(c) for c in zip(*rows)] if len(rows) > len(rows[0]) else [*map(list, rows)]
    for _ in range(60):
        done = True
        for i, j in combinations(range(len(vecs)), 2):
            u, v = vecs[i], vecs[j]
            c, a, b = reduce(add, map(mul, u, v), 0.0), _dot(u, u), _dot(v, v)
            if not abs(c) > 1e-15 * a ** 0.5 * b ** 0.5:
                continue
            done = False
            # tan of the angle that makes u, v orthogonal; d and c scaled by
            # |d| + |c| > 0 keep it finite
            d = 0.5 * (b - a)
            size = abs(d) + abs(c)
            d, c = d / size, c / size
            t = c / (d + (1.0 if d >= 0.0 else -1.0) * (d * d + c * c) ** 0.5)
            cs = 1.0 / (1.0 + t * t) ** 0.5
            vecs[i] = [cs * (p - t * q) for p, q in zip(u, v)]
            vecs[j] = [cs * (t * p + q) for p, q in zip(u, v)]
        if done:
            break
    return sorted((reduce(add, [p * p for p in vec], 0.0) ** 0.5 for vec in vecs), reverse=True)


# ---------------------------------------------------------------------------
# Scenes: domains, metrics, corner map
# ---------------------------------------------------------------------------


class CornerMap:
    """Component expressions of f, one per target coordinate, plus the declared
    face correspondence, source face index -> target face index (0-based)."""

    __slots__ = ("components", "face_map")
    def __init__(self, components: tuple, face_map: dict):
        self.components, self.face_map = components, face_map

    def jet(self, pts) -> tuple[list, list]:
        """Images (tuples) and Jacobians (k rows of n floats) of f at each
        point of ``pts``, on floats."""
        images, jacobians = [], []
        for x in pts:
            parts = [e.jet_parts(tuple(map(float, x))) for e in self.components]
            images.append(tuple(value for value, _, _ in parts))
            jacobians.append([list(grad) for _, grad, _ in parts])
        return images, jacobians


class CompareScene:
    __slots__ = ("domain_src", "metric_src", "domain_dst", "metric_dst", "corner_map")
    def __init__(self, domain_src: PolyDomain, metric_src: MetricField,
                 domain_dst: PolyDomain, metric_dst: MetricField, corner_map: CornerMap):
        self.domain_src, self.metric_src = domain_src, metric_src
        self.domain_dst, self.metric_dst = domain_dst, metric_dst
        self.corner_map = corner_map

    @classmethod
    def from_scene(cls, scene: dict) -> "CompareScene":
        if not isinstance(scene, dict):
            raise SceneError("compare scene must be a JSON object")
        try:
            src, dst = scene["N"], scene["M"]
            fexprs = scene["f"]
            faces = scene["faces"]
        except KeyError as exc:
            raise SceneError(f"compare scene missing key {exc}") from exc
        if not (isinstance(fexprs, (list, tuple))
                and all(isinstance(t, (str, Expr)) for t in fexprs)):
            raise SceneError("'f' must be a list of expression strings")
        domain_src = PolyDomain.from_scene(src)
        domain_dst = PolyDomain.from_scene(dst)
        metric_src = metric_from_scene(src)
        metric_dst = metric_from_scene(dst)
        comps = tuple(
            parse_expression(t) if isinstance(t, str) else t for t in fexprs
        )
        if len(comps) != domain_dst.dim:
            raise SceneError(
                f"map has {len(comps)} components, target dimension is {domain_dst.dim}"
            )
        try:
            fmap = {int(k) - 1: int(v) - 1 for k, v in faces.items()}
        except (AttributeError, TypeError, ValueError) as exc:
            raise SceneError("'faces' must map face numbers to face numbers") from exc
        for i, j in fmap.items():
            if not (0 <= i < domain_src.face_count):
                raise SceneError(f"face key {i + 1} out of range")
            if not (0 <= j < domain_dst.face_count):
                raise SceneError(f"face value {j + 1} out of range")
        return cls(domain_src, metric_src, domain_dst, metric_dst,
                   CornerMap(comps, fmap))

    def validate(self, seed: int = 0) -> None:
        """Check the declared correspondence as the margins of ``seed`` do: face
        and edge images lie on their target strata, and df is injective on
        edge normal spans, transverse to the target edge."""
        _mapped_strata(self, SampleSpec(seed=seed))


# ---------------------------------------------------------------------------
# Deterministic stratum sampling
# ---------------------------------------------------------------------------


def _uniform(seed: int, k: int) -> list:
    """The first k draws of ``random.Random(seed)`` (Mersenne Twister), so a
    shorter list is a prefix of a longer one; a negative seed is refused."""
    seed = index(seed)
    if seed < 0:
        raise ValueError("expected non-negative integer")
    rng = random.Random(seed)
    return [rng.random() for _ in range(k)]


def _halton(k: int, base: int) -> float:
    out, f = 0.0, 1.0
    while k > 0:
        f /= base
        out += f * (k % base)
        k //= base
    return out


def _window_box(domain: PolyDomain) -> tuple[list, list]:
    if domain.window is not None:
        lo, hi = domain.window
        return list(lo), list(hi)
    # the closure of a complement is never bounded
    if domain.region == "complement" or not domain._bounded:
        raise DomainError("an unbounded domain needs a sampling 'window'")
    verts = domain.vertices()
    pad = 1e-9 * max(1.0, *(abs(v) for row in verts for v in row))
    return [min(c) - pad for c in zip(*verts)], [max(c) + pad for c in zip(*verts)]


def _dot(u, v) -> float:
    return reduce(add, map(mul, u, v))


def _sample(domain: PolyDomain, faces: tuple, count: int, seed: int) -> list:
    """Deterministic low-discrepancy samples on a stratum, as float tuples.

    ``faces`` is ``()`` for the interior, ``(i,)`` for face i and ``(i, j)``
    for the edge of faces i < j, 0-based.  Halton points take a seeded
    Cranley-Patterson rotation, the first draws of ``_uniform(seed, n)``.
    Interior points fill the window box and are kept where they lie strictly
    in the region: the first ``count`` of at most ``max(200, 2000 count)``.
    A face or edge of dimension d is sampled by construction on its pulling
    triangulation (``PolyDomain.cells``): coordinate 0 picks a simplex by
    cumulative volume and coordinates 1..d place the point in it, as a cone
    over a cone (Pillards & Cools, J. Comput. Appl. Math. 174 (2005) 29-42),
    so no sample is rejected; a vertex is its one sample.  The stratum must
    meet the window (callers sample lattice facets and edges only).  A
    shorter run is a prefix of a longer one.
    """
    lo, hi = _window_box(domain)
    shift = _uniform(seed, domain.dim)

    def halton(k, dims):
        return [(_halton(k, _PRIMES[c % len(_PRIMES)]) + shift[c]) % 1.0 for c in range(dims)]

    if faces == ():
        out, max_tries = [], max(200, 2000 * count)
        for k in range(1, max_tries + 1):
            if len(out) == count:
                break
            x = tuple(p + v * (q - p) for p, q, v in zip(lo, hi, halton(k, len(lo))))
            least = min(_dot(row, x) - t for row, t in zip(domain.a, domain.b))
            if (least >= 1e-12) if domain.region == "intersection" else (least <= -1e-12):
                out.append(x)
        if len(out) < count:
            raise DomainError(f"could not draw {count} samples on interior "
                              f"(got {len(out)} after {max_tries} tries)")
        return out
    if len(faces) > 2 or not all(f in range(domain.face_count) for f in faces):
        raise ValueError(f"unknown stratum {faces!r}")
    if len(faces) == 2 and faces not in domain.edges:
        raise DomainError(f"faces {faces[0] + 1} and {faces[1] + 1} do not meet in an edge")
    cells = domain.cells(faces)
    d = len(cells[0]) - 1
    if d == 0:
        return list(cells[0][:count])
    sizes = []  # sqrt of the Gram determinant of each simplex's legs
    for apex, *ends in cells:
        legs = [[q - p for p, q in zip(apex, end)] for end in ends]
        size = math.prod(row[-1] for row in _cholesky(
            [[_dot(u, v) for v in legs[:r + 1]] for r, u in enumerate(legs)]))
        sizes.append(size if size > 0.0 else 0.0)
    bounds, out = list(accumulate(sizes)), []
    for k in range(1, count + 1):
        u = halton(k, d + 1)
        cell = cells[min(bisect_right(bounds, u[0] * bounds[-1]), len(cells) - 1)]
        y = cell[d]
        for m in range(d - 1, -1, -1):  # y in the cone from cell[m] over cell[m + 1:]
            r = u[m + 1] ** (1.0 / (d - m))
            y = [p + r * (q - p) for p, q in zip(cell[m], y)]
        out.append(tuple(y))
    return out


# ---------------------------------------------------------------------------
# Margin reports
# ---------------------------------------------------------------------------


class SampleSpec:
    __slots__ = ("interior", "per_face", "per_edge", "seed")
    def __init__(self, interior: int = 16, per_face: int = 8, per_edge: int = 4,
                 seed: int = 0):
        self.interior, self.per_face, self.per_edge = interior, per_face, per_edge
        self.seed = seed
        for name in ("interior", "per_face", "per_edge"):
            if getattr(self, name) < 1:
                # a margin with no samples would silently count as a pass
                raise SceneError(f"sample count {name} must be at least 1, "
                                 f"got {getattr(self, name)}")


class MarginRecord:
    """The extreme of one margin over the samples, and the first sample
    (point and stratum) within ``_TIE_ULPS`` ulps of it."""

    __slots__ = ("value", "witness", "stratum")
    def __init__(self, value: float, witness: tuple, stratum: str):
        self.value, self.witness, self.stratum = value, witness, stratum

    def to_dict(self):
        return {
            "value": self.value,
            "witness": list(self.witness),
            "stratum": self.stratum,
        }


class ComparisonReport:
    """``mode`` "hypotheses" or "conclusions", ``margins`` name -> MarginRecord,
    ``table`` rows (margin name, stratum, point tuple, value)."""

    __slots__ = ("mode", "margins", "tolerance", "holds", "table")
    def __init__(self, mode: str, margins: dict, tolerance: float, holds: bool,
                 table: tuple = ()):
        self.mode, self.margins, self.tolerance = mode, margins, tolerance
        self.holds, self.table = holds, table

    def to_dict(self):
        return {
            "mode": self.mode,
            "tolerance": self.tolerance,
            "holds": self.holds,
            "margins": {k: v.to_dict() for k, v in self.margins.items()},
        }


def _tilted(low_src: list, low_dst: list, jac: list) -> list:
    """``L_src^-1 J^T L_dst`` from the Cholesky factors (lower rows) of both
    metrics, whose singular values are those of sqrt(gdst) J sqrt(gsrc)^-1:
    df measured by both metrics."""
    m = len(low_dst)
    prod = [[reduce(add, [jac[k][a] * low_dst[k][c] for k in range(c, m)]) for c in range(m)]
            for a in range(len(low_src))]
    out = []
    for row, low in zip(prod, low_src):
        out.append([(v - reduce(add, [l * t[c] for l, t in zip(low, out)], 0.0)) / low[-1]
                    for c, v in enumerate(row)])
    return out


def _constant(g: MetricField) -> bool:
    return not any(e.max_var() for e in g.entries.values())


def _at_points(g: MetricField, pts: list, value) -> list:
    """``value(x)`` at each point of ``pts``: once, at the first point, for
    a constant metric ``g``, else at every point."""
    if not _constant(g):
        return [value(x) for x in pts]
    return [value(pts[0])] * len(pts) if pts else []


def _kernel(g: MetricField, pts: list, value) -> list:
    """``(L, value(gm, ginv, d2g, bracket, gamma))`` at each point of ``pts``,
    from the curvature kernel of ``g`` there, L its Cholesky factor."""
    def at(x):
        gm, ginv, d2g, bracket, gamma, low = _first_order(g, x)
        return low, value(gm, ginv, d2g, bracket, gamma)
    return _at_points(g, pts, at)


def _measured(scene: CompareScene, src: list, dst: list, jacs: list) -> list:
    """``(value_src, value_dst, sv)`` per point from the ``_kernel`` pairs of
    both metrics and the Jacobians, sv the singular values of df measured
    by both metrics: once per distinct Jacobian where both are constant."""
    constant = _constant(scene.metric_src) and _constant(scene.metric_dst)
    out, seen = [], {}
    for (low_src, v_src), (low_dst, v_dst), jac in zip(src, dst, jacs):
        key = tuple(map(tuple, jac)) if constant else len(out)
        if key not in seen:
            seen[key] = _singular_values(_tilted(low_src, low_dst, jac))
        out.append((v_src, v_dst, seen[key]))
    return out


def _edge_angles(g: MetricField, domain: PolyDomain, i: int, j: int, pts: list) -> list:
    """Dihedral angles of faces (i, j) at the edge points ``pts``."""
    return _at_points(g, pts, lambda x: dihedral_angle(g, domain, i, j, x))


def _wedge2(sv: list) -> float:
    """``|^2 df|`` from the singular values of df, largest first."""
    return sv[0] * sv[1] if len(sv) > 1 else 0.0


def _check_images(dst: PolyDomain, faces: tuple, target: tuple, pts: list, imgs: list) -> None:
    """``SceneError`` at the first of ``pts`` on the face or edge ``faces``
    whose image is off the face or edge ``target`` of ``dst``."""
    def name(fs):
        return f"face {fs[0] + 1}" if len(fs) == 1 else f"edge ({fs[0] + 1},{fs[1] + 1})"
    for x, img in zip(pts, imgs):
        if not dst._on_faces_at(target, img):
            raise SceneError(f"{name(faces)} sample {list(x)} maps to {list(img)}, "
                             f"not on target {name(target)}")


def _mapped_strata(scene: CompareScene, spec: SampleSpec) -> tuple[list, list]:
    """``(i, j, points, images, jacobians)`` per mapped facet and ``(i, j, points,
    images)`` per edge i < j of the face lattice between mapped faces, sampled and
    jetted once at ``max(per_face, _CHECK_PER_FACE)`` / ``max(per_edge,
    _CHECK_PER_EDGE)`` points, whatever the counts the margins read.  The one
    check of the declared correspondence: every image lies on its target face
    or edge (``_check_images``), and df is injective on each edge's normal span
    and transverse to the target edge.  A mapped face that is no facet bounds
    nothing and is skipped, as ``PolyDomain.edges`` skips it."""
    f = scene.corner_map
    src, dst = scene.domain_src, scene.domain_dst
    faces, edges = [], []
    for i, j in ((i, j) for i, j in f.face_map.items() if i in src.facets):
        ys = _sample(src, (i,), max(spec.per_face, _CHECK_PER_FACE), spec.seed)
        imgs, jacs = f.jet(ys)
        _check_images(dst, (i,), (j,), ys, imgs)
        faces.append((i, j, ys, imgs, jacs))
    for i, j in ((i, j) for i in f.face_map for j in f.face_map if (i, j) in src.edges):
        zs = _sample(src, (i, j), max(spec.per_edge, _CHECK_PER_EDGE), spec.seed)
        imgs, jacs = f.jet(zs)
        target = (f.face_map[i], f.face_map[j])
        _check_images(dst, (i, j), target, zs, imgs)
        # df of the source normals, as columns
        pushed = [[[_dot(row, src.a[t]) for t in (i, j)] for row in jac] for jac in jacs]
        if any(_singular_values(cols)[-1] < 1e-8 for cols in pushed):
            raise SceneError(f"differential drops rank on the normal span at edge "
                             f"({i + 1},{j + 1})")
        # [pushed | edge tangent] is square where the target normals have rank 2,
        # and its determinant is that of the target normals' span coordinates
        axes, rank = _householder([dst.a[t] for t in target])
        for cols in pushed if rank == 2 else ():
            (u0, v0), (u1, v1) = ([_dot(q, col) for col in zip(*cols)] for q in axes[:2])
            if abs(u0 * v1 - v0 * u1) < 1e-10:
                raise SceneError(f"pushed normal span meets the target edge tangent at edge "
                                 f"({i + 1},{j + 1})")
        edges.append((i, j, zs, imgs))
    return faces, edges


def _pointwise_quantities(scene: CompareScene, spec: SampleSpec) -> list:
    """Rows (name, stratum, point, hypothesis_margin, equality_residual),
    stratum by stratum: interior points, then each face, then each edge; a
    face or edge reads the first per_face / per_edge points of its stratum."""
    f = scene.corner_map
    src, dst = scene.domain_src, scene.domain_dst
    faces, edges = _mapped_strata(scene, spec)
    rows = []

    def extend(name, stratum, pts, gaps):
        rows.extend((name, stratum, x, gap, abs(gap)) for x, gap in zip(pts, gaps))

    def scalar(gm, ginv, d2g, bracket, gamma):
        return _riemann(ginv, d2g, bracket, gamma)[2]

    def mean(domain, face):
        return lambda gm, ginv, d2g, bracket, gamma: _mean_curvature(
            domain, face, ginv, bracket)[0]

    xs = _sample(src, (), spec.interior, spec.seed)
    fxs, jacs = f.jet(xs)
    extend("scalar", "interior", xs, [
        sc_src - _wedge2(sv) * sc_dst for sc_src, sc_dst, sv in _measured(
            scene, _kernel(scene.metric_src, xs, scalar), _kernel(scene.metric_dst, fxs, scalar),
            jacs)])
    for i, j, ys, fys, jacs in faces:
        ys, fys, jacs = ys[:spec.per_face], fys[:spec.per_face], jacs[:spec.per_face]
        extend("mean_curvature", f"face:{i + 1}", ys, [
            h_src - sv[0] * h_dst for h_src, h_dst, sv in _measured(
                scene, _kernel(scene.metric_src, ys, mean(src, i)),
                _kernel(scene.metric_dst, fys, mean(dst, j)), jacs)])
    for i, j, zs, fzs in edges:
        zs, fzs = zs[:spec.per_edge], fzs[:spec.per_edge]
        stratum = f"edge:{i + 1},{j + 1}"
        th_src = _edge_angles(scene.metric_src, src, i, j, zs)
        th_dst = _edge_angles(scene.metric_dst, dst, f.face_map[i], f.face_map[j], fzs)
        for z, gap, cap in zip(zs, (d - s for d, s in zip(th_dst, th_src)),
                               (math.pi - d for d in th_dst)):
            rows.append(("angle", stratum, z, gap, abs(gap)))
            rows.append(("angle_cap", stratum, z, cap, abs(cap)))
    return rows


def _run_report(scene: CompareScene, spec: SampleSpec, mode: str,
                tolerance: float) -> ComparisonReport:
    table = tuple(
        (name, stratum, tuple(float(v) for v in pt),
         float(hyp_margin if mode == "hypotheses" else eq_resid))
        for name, stratum, pt, hyp_margin, eq_resid in _pointwise_quantities(scene, spec))
    # the smallest margin or the largest residual, as the least of sign * value;
    # the cap is a hypothesis, not an equality claim
    sign, least = (1.0 if mode == "hypotheses" else -1.0), {}
    for name, _, _, value in table:
        if mode == "hypotheses" or name != "angle_cap":
            least[name] = min(least.get(name, math.inf), sign * value)
    # the witness is the first sample within _TIE_ULPS of the extreme
    worst: dict[str, MarginRecord] = {}
    for name, stratum, pt, value in reversed(table):
        if name in least and sign * value <= least[name] + _TIE_ULPS * math.ulp(
                max(1.0, abs(least[name]))):
            worst[name] = MarginRecord(sign * least[name], pt, stratum)
    worst = {name: worst[name] for name in least}
    if mode == "hypotheses":
        holds = all(rec.value >= -tolerance for rec in worst.values())
    else:
        holds = all(rec.value <= tolerance for rec in worst.values())
    return ComparisonReport(mode, worst, tolerance, holds, table)


def check_hypotheses(scene: CompareScene, spec: SampleSpec = SampleSpec(),
                     tolerance: float = DEFAULT_TOLERANCE) -> ComparisonReport:
    """Worst hypothesis margins over the sampled strata; nonnegative margins
    (up to tolerance) mean the comparison hypotheses hold at the samples,
    which says nothing of the points between them."""
    return _run_report(scene, spec, "hypotheses", tolerance)


def check_conclusions(scene: CompareScene, spec: SampleSpec = SampleSpec(),
                      tolerance: float = DEFAULT_TOLERANCE) -> ComparisonReport:
    """Largest equality residuals of the rigidity conclusions at the samples,
    which say nothing of the points between them."""
    return _run_report(scene, spec, "conclusions", tolerance)
