"""Comparison machinery: map norms, margin reports, conformal identities.

Everything here evaluates the inequalities that a curvature / mean-curvature
/ dihedral-angle comparison between a source domain (N, gbar) and a target
domain (M, g) must satisfy, at deterministically sampled points:

- hypothesis margins  ``Sc(gbar) - |^2 df| f*Sc``, ``Hbar - |df| f*H``,
  ``f*theta - thetabar`` and the cap ``pi - f*theta``.  Each stratum
  (interior, every mapped face, every edge between mapped faces) is
  sampled and jetted once into arrays of points; the face correspondence
  is checked on those arrays, and curvature, face geometry and dihedral
  angles run as one batch over each;
- the conformal identities used by the rigidity argument.  The Laplacian
  here is div grad (the trace of the Hessian); with that sign the scalar
  identity holds exactly, as does the integration by parts
  ``int h^k lap h = - int <d h^k, dh>`` against an inner-normal-derivative
  boundary term.

The PSD certificates behind the interior and boundary estimates need no
metric; they live in ``clifford``.
"""

from __future__ import annotations

import math
from typing import Sequence

import numpy as np

from .curvature import (
    CurvaturePack,
    DomainError,
    PolyDomain,
    _curvature,
    _face_forms,
    _first_order,
    _nullspace,
    curvature_tensors,
    _dihedral_angles,
    face_geometry,
)
from .expressions import (
    BinOp,
    Expr,
    MetricField,
    metric_from_scene,
    parse_expression,
)

__all__ = [
    "DfNorms",
    "df_norms",
    "CornerMap",
    "CompareScene",
    "SampleSpec",
    "MarginRecord",
    "ComparisonReport",
    "check_hypotheses",
    "check_conclusions",
    "sample_stratum",
    "conformal_identities",
    "SceneError",
]

DEFAULT_TOLERANCE = 1e-6
# least points checked per face / edge; face tolerance per unit target diameter
_CHECK_PER_FACE, _CHECK_PER_EDGE, _CHECK_TOL = 8, 4, 1e-6
_PRIMES = (2, 3, 5, 7, 11, 13, 17, 19)


class SceneError(ValueError):
    """Scene data violates the corner-map or domain contracts."""


# ---------------------------------------------------------------------------
# Map norms
# ---------------------------------------------------------------------------


class DfNorms:
    __slots__ = ("df_norm", "wedge2_norm", "singular_values")
    def __init__(self, df_norm: float, wedge2_norm: float, singular_values: tuple):
        self.df_norm, self.wedge2_norm = df_norm, wedge2_norm
        self.singular_values = singular_values


def df_norms(jac: np.ndarray) -> DfNorms:
    """Operator norms of df and of the induced map on 2-vectors.

    ``|df|`` is the largest singular value mu_1; ``|^2 df| = mu_1 mu_2``
    (zero when the rank is < 2).
    """
    sv = np.linalg.svd(np.asarray(jac, dtype=float), compute_uv=False)
    df = float(sv[0]) if sv.size else 0.0
    wedge = float(sv[0] * sv[1]) if sv.size >= 2 else 0.0
    return DfNorms(df, wedge, tuple(float(s) for s in sv))


# ---------------------------------------------------------------------------
# Scenes: domains, metrics, corner map
# ---------------------------------------------------------------------------


class CornerMap:
    """Component expressions of f, one per target coordinate, plus the declared
    face correspondence, source face index -> target face index (0-based)."""

    __slots__ = ("components", "face_map")
    def __init__(self, components: tuple, face_map: dict):
        self.components, self.face_map = components, face_map

    def jet(self, pts: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """Images ``(m, k)`` and Jacobians ``(m, k, n)`` of f at the rows of
        ``pts`` (shape ``(m, n)``), one jet per component over the stack."""
        parts = [e.jet(pts)[:2] for e in self.components]
        return (np.stack([value for value, _ in parts], axis=-1),
                np.stack([grad for _, grad in parts], axis=1))


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
        """Check the declared correspondence: faces map into faces, and df is
        injective on edge normal spans, transverse to the target edge."""
        _mapped_strata(self, SampleSpec(seed=seed))


# ---------------------------------------------------------------------------
# Deterministic stratum sampling
# ---------------------------------------------------------------------------


def _halton_block(first: int, count: int, shift: np.ndarray) -> np.ndarray:
    """Rows k = first, ..., first + count - 1 of the Halton sequence (base
    ``_PRIMES[d]`` on axis d) with the Cranley-Patterson rotation ``shift``."""
    out = np.empty((count, len(shift)))
    for d, offset in enumerate(shift):
        base = _PRIMES[d % len(_PRIMES)]
        index, value, f = np.arange(first, first + count), np.zeros(count), 1.0
        while index.any():
            f /= base
            value += f * (index % base)
            index //= base
        out[:, d] = (value + offset) % 1.0
    return out


def _window_box(domain: PolyDomain) -> tuple[np.ndarray, np.ndarray]:
    if domain.window is not None:
        lo, hi = domain.window
        return np.asarray(lo, dtype=float), np.asarray(hi, dtype=float)
    verts = domain.vertices()
    if len(verts) >= 2:
        lo, hi = verts.min(axis=0), verts.max(axis=0)
        pad = 1e-9 * max(1.0, float(np.abs(verts).max()))
        return lo - pad, hi + pad
    raise DomainError(
        "domain needs an explicit sampling window (it has too few vertices "
        "to infer a bounding box)"
    )


def _parallel(a: np.ndarray, b: np.ndarray) -> bool:
    """Whether the planes of unit normals ``a``, ``b`` never meet in an edge:
    the rows' smaller singular value ``min |a -+ b| / sqrt(2)`` is <= 1e-10."""
    return min(np.linalg.norm(a - b), np.linalg.norm(a + b)) <= math.sqrt(2.0) * 1e-10


def sample_stratum(domain: PolyDomain, stratum: str, count: int, seed: int,
                   allow_empty: bool = False) -> np.ndarray:
    """Deterministic low-discrepancy samples on a stratum, as a ``(k, n)`` array.

    ``stratum`` is ``"interior"``, ``"face:i"`` or ``"edge:i,j"`` with
    0-based indices.  Halton points with a seeded Cranley-Patterson
    rotation are pushed into the stratum's affine chart in doubling blocks
    and filtered by membership; the first ``count`` accepted candidates (of
    at most ``max(200, 2000 count)``) are returned, fewer only with
    ``allow_empty``.  Identical (stratum, count, seed) give identical points.
    """
    lo, hi = _window_box(domain)
    n = domain.dim
    rng = np.random.default_rng(seed)
    tol = 1e-9 * max(1.0, float(np.abs(np.concatenate([lo, hi])).max()))

    if stratum == "interior":
        faces, origin = [], None
    elif stratum.startswith("face:"):
        faces = [int(stratum.split(":")[1])]
        origin = domain.offsets[faces[0]] * domain.normals[faces[0]]
    elif stratum.startswith("edge:"):
        faces = [int(v) for v in stratum.split(":")[1].split(",")]
        rows = domain.normals[faces]
        if _parallel(rows[0], rows[1]):
            if allow_empty:
                return np.zeros((0, n))
            raise DomainError(f"faces {faces[0]} and {faces[1]} are parallel; no edge")
        origin, *_ = np.linalg.lstsq(rows, domain.offsets[faces], rcond=None)
    else:
        raise ValueError(f"unknown stratum {stratum!r}")

    def accept(x):
        return domain.on_faces(faces, x, tol) if faces else domain.contains(x, tol=-1e-12)

    if faces:
        basis = _nullspace(domain.normals[faces])
        # recenter the chart near the window center for better acceptance
        x0 = origin + basis @ (basis.T @ (0.5 * (lo + hi) - origin))
    dim_par = n - len(faces)
    if dim_par == 0:
        pt = origin[None, :]
        if accept(pt)[0]:
            return pt[:count]
        if allow_empty:
            return np.zeros((0, n))
        raise DomainError(f"stratum {stratum} is empty")

    shift = rng.uniform(size=dim_par)
    span = float(np.linalg.norm(hi - lo))
    max_tries = max(200, 2000 * count)
    found = [np.zeros((0, n))]
    first, block, got = 1, 2 * count, 0
    while got < count and first <= max_tries:
        u = _halton_block(first, min(block, max_tries - first + 1), shift)
        x = lo + u * (hi - lo) if not faces else x0 + ((u - 0.5) * span) @ basis.T
        found.append(x[accept(x)])
        got += len(found[-1])
        first += len(u)
        block *= 2
    out = np.concatenate(found)[:count]
    if len(out) < count and not allow_empty:
        raise DomainError(
            f"could not draw {count} samples on {stratum} "
            f"(got {len(out)} after {max_tries} tries)"
        )
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


def _singular_values(gsrc: np.ndarray, gdst: np.ndarray,
                     jac: np.ndarray) -> np.ndarray:
    """Singular values of df measured by both metrics, largest first, over
    a leading point axis.  With g = L L^T (Cholesky), L_src^-1 J^T L_dst
    has the singular values of sqrt(gdst) J sqrt(gsrc)^-1."""
    tilted = np.linalg.solve(np.linalg.cholesky(gsrc),
                             np.swapaxes(jac, -1, -2) @ np.linalg.cholesky(gdst))
    return np.linalg.svd(tilted, compute_uv=False)


def _mapped_strata(scene: CompareScene, spec: SampleSpec) -> tuple[list, list]:
    """``(i, j, points, images, jacobians)`` per mapped face and ``(i, j, points,
    images)`` per edge i < j between mapped faces (not parallel), sampled and
    jetted once at ``max(per_face, _CHECK_PER_FACE)`` / ``max(per_edge,
    _CHECK_PER_EDGE)`` points, all checked against the declared correspondence."""
    f = scene.corner_map
    src, dst = scene.domain_src, scene.domain_dst
    scale = max(1.0, dst.diameter())
    faces, edges = [], []
    for i, j in f.face_map.items():
        ys = sample_stratum(src, f"face:{i}", max(spec.per_face, _CHECK_PER_FACE), spec.seed)
        imgs, jac = f.jet(ys)
        off = ~dst.on_faces([j], imgs, _CHECK_TOL * scale)
        if off.any():
            k = int(np.argmax(off))
            raise SceneError(f"face {i + 1} sample {list(ys[k])} maps to "
                             f"{list(imgs[k])}, not on target face {j + 1}")
        faces.append((i, j, ys, imgs, jac))
    for i, j in ((i, j) for i in f.face_map for j in f.face_map
                 if i < j and not _parallel(src.normals[i], src.normals[j])):
        zs = sample_stratum(src, f"edge:{i},{j}", max(spec.per_edge, _CHECK_PER_EDGE),
                            spec.seed, allow_empty=True)
        imgs, jac = f.jet(zs)
        pushed = jac @ src.normals[[i, j]].T  # (k, m, 2)
        if np.any(np.linalg.svd(pushed, compute_uv=False)[:, -1] < 1e-8):
            raise SceneError(f"differential drops rank on the normal span at edge "
                             f"({i + 1},{j + 1})")
        edge_tan = _nullspace(dst.normals[[f.face_map[i], f.face_map[j]]])
        joint = np.concatenate(
            [pushed, np.broadcast_to(edge_tan, (len(zs),) + edge_tan.shape)], axis=-1)
        if (joint.shape[-1] == joint.shape[-2]
                and np.any(np.abs(np.linalg.det(joint)) < 1e-10)):
            raise SceneError(f"pushed normal span meets the target edge tangent at edge "
                             f"({i + 1},{j + 1})")
        edges.append((i, j, zs, imgs))
    return faces, edges


def _pointwise_quantities(scene: CompareScene, spec: SampleSpec) -> list:
    """Rows (name, stratum, point, hypothesis_margin, equality_residual),
    one batch per stratum: interior points, then each face, then each edge; a
    face or edge reads the first per_face / per_edge points of its stratum."""
    f = scene.corner_map
    src, dst = scene.domain_src, scene.domain_dst
    faces, edges = _mapped_strata(scene, spec)
    rows = []

    def extend(name, stratum, pts, gaps):
        rows.extend((name, stratum, x, gap, abs(gap)) for x, gap in zip(pts, gaps))

    xs = sample_stratum(src, "interior", spec.interior, spec.seed)
    fxs, jac = f.jet(xs)
    gsrc, _, _, _, _, sc_src = _curvature(scene.metric_src, xs)
    gdst, _, _, _, _, sc_dst = _curvature(scene.metric_dst, fxs)
    sv = _singular_values(gsrc, gdst, jac)
    wedge2 = sv[:, 0] * sv[:, 1] if sv.shape[1] > 1 else np.zeros(len(sv))
    extend("scalar", "interior", xs, sc_src - wedge2 * sc_dst)
    for i, j, ys, fys, jac in faces:
        ys, fys, jac = ys[:spec.per_face], fys[:spec.per_face], jac[:spec.per_face]
        off = ~dst.on_faces([j], fys)
        if off.any():
            raise DomainError(f"point {list(fys[np.argmax(off)])} is not on face {j}")
        gsrc, ginv, _, bracket, _ = _first_order(scene.metric_src, ys)
        h_src = np.trace(_face_forms(src, i, gsrc, ginv, bracket)[0], axis1=1, axis2=2)
        gdst, ginv, _, bracket, _ = _first_order(scene.metric_dst, fys)
        h_dst = np.trace(_face_forms(dst, j, gdst, ginv, bracket)[0], axis1=1, axis2=2)
        sv = _singular_values(gsrc, gdst, jac)
        extend("mean_curvature", f"face:{i + 1}", ys, h_src - sv[:, 0] * h_dst)
    for i, j, zs, fzs in edges:
        zs, fzs = zs[:spec.per_edge], fzs[:spec.per_edge]
        stratum = f"edge:{i + 1},{j + 1}"
        th_src = _dihedral_angles(scene.metric_src, src, i, j, zs)
        th_dst = _dihedral_angles(scene.metric_dst, dst, f.face_map[i], f.face_map[j], fzs)
        for z, gap, cap in zip(zs, (th_dst - th_src).tolist(), (math.pi - th_dst).tolist()):
            rows.append(("angle", stratum, z, gap, abs(gap)))
            rows.append(("angle_cap", stratum, z, cap, abs(cap)))
    return rows


def _run_report(scene: CompareScene, spec: SampleSpec, mode: str,
                tolerance: float) -> ComparisonReport:
    table = tuple(
        (name, stratum, tuple(float(v) for v in pt),
         float(hyp_margin if mode == "hypotheses" else eq_resid))
        for name, stratum, pt, hyp_margin, eq_resid in _pointwise_quantities(scene, spec))
    worst: dict[str, MarginRecord] = {}
    for name, stratum, pt, value in table:
        if mode == "hypotheses":
            better = name not in worst or value < worst[name].value
        else:
            if name == "angle_cap":
                continue  # the cap is a hypothesis, not an equality claim
            better = name not in worst or value > worst[name].value
        if better:
            worst[name] = MarginRecord(value, pt, stratum)
    if mode == "hypotheses":
        holds = all(rec.value >= -tolerance for rec in worst.values())
    else:
        holds = all(rec.value <= tolerance for rec in worst.values())
    return ComparisonReport(mode, worst, tolerance, holds, table)


def check_hypotheses(scene: CompareScene, spec: SampleSpec = SampleSpec(),
                     tolerance: float = DEFAULT_TOLERANCE) -> ComparisonReport:
    """Worst hypothesis margins over the sampled strata; nonnegative margins
    (up to tolerance) mean the comparison hypotheses hold on the samples."""
    return _run_report(scene, spec, "hypotheses", tolerance)


def check_conclusions(scene: CompareScene, spec: SampleSpec = SampleSpec(),
                      tolerance: float = DEFAULT_TOLERANCE) -> ComparisonReport:
    """Largest equality residuals of the rigidity conclusions on the samples."""
    return _run_report(scene, spec, "conclusions", tolerance)


# ---------------------------------------------------------------------------
# Conformal identities
# ---------------------------------------------------------------------------


def _laplacian_and_gradient(pack: CurvaturePack, h: Expr):
    """div grad h (trace of the Hessian), |dh|^2 and dh at ``pack.point``,
    with respect to the metric of ``pack``."""
    _, grad, hess = (part[0] for part in h.jet(np.atleast_2d(pack.point)))
    hess_cov = hess - np.einsum("kij,k->ij", pack.gamma, grad)
    lap = float(np.einsum("ij,ij->", pack.metric_inv, hess_cov))
    grad_sq = float(grad @ pack.metric_inv @ grad)
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
    sc_bar = pack_bar.scalar
    sc_scaled = curvature_tensors(scaled, x).scalar
    rhs = (sc_bar / hval**2 - 2.0 * (n - 1) / hval**3 * lap
           - (n - 1) * (n - 4) / hval**4 * grad_sq)
    out = {"scalar": float(sc_scaled - rhs)}

    if face is not None:
        if domain is None:
            raise ValueError("mean-curvature variant needs the domain")
        fg = face_geometry(scaled, domain, face, x)
        second_bar, _, nu_bar = _face_forms(domain, face, pack_bar.metric,
                                            pack_bar.metric_inv, pack_bar.bracket)
        dh_dn = float(grad @ nu_bar)
        rhs_h = float(np.trace(second_bar)) / hval - (n - 1) / hval**2 * dh_dn
        out["mean_curvature"] = float(fg.mean_curvature - rhs_h)
    return out
