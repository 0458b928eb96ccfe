"""Comparison machinery: map norms, PSD certificates, margin reports.

Everything here evaluates the inequalities that a curvature / mean-curvature
/ dihedral-angle comparison between a source domain (N, gbar) and a target
domain (M, g) must satisfy, at deterministically sampled points:

- hypothesis margins  ``Sc(gbar) - |^2 df| f*Sc``, ``Hbar - |df| f*H``,
  ``f*theta - thetabar`` and the cap ``pi - f*theta``;
- the operator inequalities behind the interior and boundary estimates,
  as positive-semidefiniteness certificates over explicit Clifford modules;
- the conformal identities used by the rigidity argument.  The Laplacian
  here is div grad (the trace of the Hessian); with that sign the scalar
  identity holds exactly, as does the integration by parts
  ``int h^k lap h = - int <d h^k, dh>`` against an inner-normal-derivative
  boundary term.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from itertools import combinations
from typing import Sequence

import numpy as np

from .clifford import CliffordModule
from .curvature import (
    DomainError,
    PolyDomain,
    _nullspace,
    christoffel,
    curvature_tensors,
    dihedral_angle,
    face_geometry,
    wedge_pairs,
)
from .expressions import (
    BinOp,
    Expr,
    MetricField,
    eval_with_derivatives,
    metric_at,
    metric_from_scene,
    parse_expression,
)

__all__ = [
    "DfNorms",
    "df_norms",
    "wedge_square_map",
    "bianchi_residual",
    "random_curvature_operator",
    "curvature_certificate",
    "boundary_certificate",
    "CornerMap",
    "CompareScene",
    "SampleSpec",
    "MarginRecord",
    "ComparisonReport",
    "check_hypotheses",
    "check_conclusions",
    "per_sample_table",
    "sample_grid",
    "sample_stratum",
    "conformal_identities",
    "SceneError",
]

DEFAULT_TOLERANCE = 1e-6
_PRIMES = (2, 3, 5, 7, 11, 13, 17, 19)


class SceneError(ValueError):
    """Scene data violates the corner-map or domain contracts."""


# ---------------------------------------------------------------------------
# Map norms
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class DfNorms:
    df_norm: float
    wedge2_norm: float
    singular_values: tuple


def df_norms(jac: np.ndarray) -> DfNorms:
    """Operator norms of df and of the induced map on 2-vectors.

    ``|df|`` is the largest singular value mu_1; ``|^2 df| = mu_1 mu_2``
    (zero when the rank is < 2).
    """
    sv = np.linalg.svd(np.asarray(jac, dtype=float), compute_uv=False)
    df = float(sv[0]) if sv.size else 0.0
    wedge = float(sv[0] * sv[1]) if sv.size >= 2 else 0.0
    return DfNorms(df, wedge, tuple(float(s) for s in sv))


def wedge_square_map(jac: np.ndarray) -> np.ndarray:
    """Matrix of Lambda^2 J on the ordered wedge bases (rows: target pairs)."""
    jac = np.asarray(jac, dtype=float)
    m, n = jac.shape
    rows = wedge_pairs(m)
    cols = wedge_pairs(n)
    out = np.empty((len(rows), len(cols)))
    for p, (a, b) in enumerate(rows):
        for q, (c, d) in enumerate(cols):
            out[p, q] = jac[a, c] * jac[b, d] - jac[a, d] * jac[b, c]
    return out


# ---------------------------------------------------------------------------
# PSD certificates
# ---------------------------------------------------------------------------


def _check_psd(mat: np.ndarray, name: str, tol: float = 1e-10) -> None:
    mat = np.asarray(mat, dtype=float)
    if mat.shape[0] != mat.shape[1] or np.abs(mat - mat.T).max() > 1e-9:
        raise ValueError(f"{name} must be a symmetric matrix")
    if np.linalg.eigvalsh(mat)[0] < -tol:
        raise ValueError(f"{name} is not positive semidefinite")


def bianchi_residual(rop: np.ndarray, n: int) -> float:
    """Largest first-Bianchi violation of a symmetric operator on Lambda^2.

    A symmetric matrix on 2-vectors is an algebraic curvature operator only
    if the total antisymmetrization of the associated 4-tensor vanishes;
    for arbitrary positive matrices it does not, and the interior estimate
    genuinely fails for such data.
    """
    rop = np.asarray(rop, dtype=float)
    index = [[0] * n for _ in range(n)]
    for k, (a, b) in enumerate(wedge_pairs(n)):
        index[a][b] = k
    # for i < j < k < l every pair below is already ordered
    return max(
        (abs(rop[index[i][j], index[k][l]] - rop[index[i][k], index[j][l]]
             + rop[index[i][l], index[j][k]])
         for i, j, k, l in combinations(range(n), 4)),
        default=0.0,
    )


def random_curvature_operator(n: int, rng: np.random.Generator,
                              terms: int | None = None) -> np.ndarray:
    """Random PSD operator on Lambda^2 R^n satisfying the Bianchi identity.

    Built as a sum of squares of decomposable 2-vectors u ^ v; every such
    sum is a valid algebraic curvature operator (the square of a
    decomposable 2-vector has vanishing wedge with itself).
    """
    pairs = wedge_pairs(n)
    if terms is None:
        terms = len(pairs) + 2
    rop = np.zeros((len(pairs), len(pairs)))
    for _ in range(terms):
        u = rng.normal(size=n)
        v = rng.normal(size=n)
        w = np.array([u[a] * v[b] - u[b] * v[a] for a, b in pairs])
        rop += np.outer(w, w)
    return rop


def _actions(module: CliffordModule, pairs) -> np.ndarray:
    """Stack of the 2-vector actions c(e_a) c(e_b) over ``pairs``."""
    gens = module.generators
    return np.array([gens[a] @ gens[b] for a, b in pairs])


def _twisted_min_eig(coeff: np.ndarray, target_actions: np.ndarray,
                     source_actions: np.ndarray, shift: float) -> float:
    """Minimum eigenvalue of ``shift Id - 1/2 sum_pq coeff[p, q] cbar_q (x) c_p``.

    ``c_p`` and ``cbar_q`` are the stacked target / source actions; the sum
    is contracted over q first, then over p into the Kronecker layout.
    """
    q, ds, _ = source_actions.shape
    dt = target_actions.shape[1]
    half = (-0.5 * coeff @ source_actions.reshape(q, -1)).reshape(-1, ds, ds)
    endo = np.einsum("pij,pkl->ikjl", half, target_actions).reshape(ds * dt, ds * dt)
    return float(np.linalg.eigvalsh(endo + shift * np.eye(ds * dt))[0])


def curvature_certificate(
    rop: np.ndarray,
    jac: np.ndarray,
    source: CliffordModule,
    target: CliffordModule,
) -> float:
    """Minimum eigenvalue of E + |^2 df| (Sc/4) Id on the tensor fiber.

    E is the curvature endomorphism
    ``-1/2 sum <Rop (L^2 J) wbar_j, w_i> cbar(wbar_j) (x) c(w_i)`` with
    Clifford action of 2-vectors c(u ^ v) = c(u) c(v); Sc = 2 tr(Rop) in
    the orthonormal wedge basis.  A nonnegative return value (up to
    tolerance) certifies the interior estimate for this data.
    """
    rop = np.asarray(rop, dtype=float)
    jac = np.asarray(jac, dtype=float)
    m, n = jac.shape
    if source.n != n or target.n != m:
        raise ValueError("Clifford module dimensions do not match the Jacobian")
    pairs_m = wedge_pairs(m)
    if rop.shape != (len(pairs_m), len(pairs_m)):
        raise ValueError("curvature operator has wrong wedge dimension")
    _check_psd(rop, "curvature operator")
    scale = max(1.0, float(np.abs(rop).max()))
    if bianchi_residual(rop, m) > 1e-8 * scale:
        raise ValueError(
            "operator violates the first Bianchi identity; it is not an "
            "algebraic curvature operator and the interior estimate does "
            "not apply"
        )
    coeff = rop @ wedge_square_map(jac)  # [target pair, source pair]
    scalar = 2.0 * float(np.trace(rop))
    shift = df_norms(jac).wedge2_norm * scalar / 4.0
    return _twisted_min_eig(
        coeff,
        _actions(target, pairs_m),
        _actions(source, wedge_pairs(n)),
        shift,
    )


def boundary_certificate(
    second_fundamental: np.ndarray,
    boundary_jac: np.ndarray,
    source: CliffordModule,
    target: CliffordModule,
) -> float:
    """Minimum eigenvalue of E_boundary + |df| (tr A / 2) Id.

    The boundary Clifford actions are ``cbar(e_n) cbar(e_lam)`` and
    ``c(e_n) c(e_mu)`` with the last basis vector playing the inner normal
    on both sides; tangential indices run over the first n-1 / m-1 axes.
    """
    amat = np.asarray(second_fundamental, dtype=float)
    jac = np.asarray(boundary_jac, dtype=float)
    n, m = source.n, target.n
    if jac.shape != (m - 1, n - 1):
        raise ValueError("boundary Jacobian must map face tangents to face tangents")
    if amat.shape != (m - 1, m - 1):
        raise ValueError("second fundamental form has wrong size")
    _check_psd(amat, "second fundamental form")
    coeff = amat.T @ jac  # [mu, lambda] = A(f_* ebar_lam, e_mu)
    shift = df_norms(jac).df_norm * float(np.trace(amat)) / 2.0
    return _twisted_min_eig(
        coeff,
        _actions(target, [(m - 1, mu) for mu in range(m - 1)]),
        _actions(source, [(n - 1, lam) for lam in range(n - 1)]),
        shift,
    )


# ---------------------------------------------------------------------------
# Scenes: domains, metrics, corner map
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class CornerMap:
    """Component expressions of f plus the declared face correspondence."""

    components: tuple  # Expr per target coordinate
    face_map: dict  # source face index -> target face index (0-based)

    def __call__(self, x: Sequence[float]) -> np.ndarray:
        return np.array([e.eval(x) for e in self.components])

    def jacobian(self, x: Sequence[float]) -> np.ndarray:
        n = len(x)
        jac = np.empty((len(self.components), n))
        for k, e in enumerate(self.components):
            vals = eval_with_derivatives(e, x, [(i,) for i in range(n)])
            for i in range(n):
                jac[k, i] = vals[(i,)]
        return jac


@dataclass(frozen=True)
class CompareScene:
    domain_src: PolyDomain
    metric_src: MetricField
    domain_dst: PolyDomain
    metric_dst: MetricField
    corner_map: CornerMap

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

    def validate(self, samples_per_face: int = 8, seed: int = 0,
                 tol: float = 1e-6) -> None:
        """Check the declared correspondence: faces map into faces, and the
        differential is injective on edge normal spans, transverse to the
        target edge."""
        f = self.corner_map
        scale = max(1.0, self.domain_dst.diameter())
        for i, j in f.face_map.items():
            for y in sample_stratum(self.domain_src, f"face:{i}",
                                    samples_per_face, seed):
                img = f(y)
                if not self.domain_dst.on_face(j, img, tol=tol * scale):
                    raise SceneError(
                        f"face {i + 1} sample {list(y)} maps to {list(img)}, "
                        f"not on target face {j + 1}"
                    )
        pairs = [(i, j) for i in f.face_map for j in f.face_map if i < j]
        for i, j in pairs:
            pts = sample_stratum(self.domain_src, f"edge:{i},{j}", 4, seed,
                                 allow_empty=True)
            for z in pts:
                nspan = self.domain_src.normals[[i, j]].T  # (n, 2)
                jac = f.jacobian(z)
                pushed = jac @ nspan
                if np.linalg.svd(pushed, compute_uv=False)[-1] < 1e-8:
                    raise SceneError(
                        f"differential drops rank on the normal span at edge "
                        f"({i + 1},{j + 1})"
                    )
                ti, tj = f.face_map[i], f.face_map[j]
                edge_tan = _nullspace(self.domain_dst.normals[[ti, tj]])
                joint = np.hstack([pushed, edge_tan])
                if joint.shape[1] == joint.shape[0]:
                    if abs(np.linalg.det(joint)) < 1e-10:
                        raise SceneError(
                            f"pushed normal span meets the target edge "
                            f"tangent at edge ({i + 1},{j + 1})"
                        )


# ---------------------------------------------------------------------------
# Deterministic stratum sampling
# ---------------------------------------------------------------------------


def _halton(index: int, base: int) -> float:
    out, f = 0.0, 1.0
    while index > 0:
        f /= base
        out += f * (index % base)
        index //= base
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


def sample_stratum(domain: PolyDomain, stratum: str, count: int, seed: int,
                   allow_empty: bool = False) -> list[np.ndarray]:
    """Deterministic low-discrepancy samples on a stratum.

    ``stratum`` is ``"interior"``, ``"face:i"`` or ``"edge:i,j"`` with
    0-based indices.  Halton points with a seeded Cranley-Patterson
    rotation are pushed into the stratum's affine chart and filtered by
    membership, so identical (stratum, count, seed) inputs always return
    identical points.
    """
    lo, hi = _window_box(domain)
    n = domain.dim
    rng = np.random.default_rng(seed)
    tol = 1e-9 * max(1.0, float(np.abs(np.concatenate([lo, hi])).max()))

    if stratum == "interior":
        dim_par = n
        origin = None
        basis = np.eye(n)

        def accept(x):
            return domain.contains(x, tol=-1e-12)  # strictly inside
    elif stratum.startswith("face:"):
        i = int(stratum.split(":")[1])
        a, b = domain.normals[i], domain.offsets[i]
        origin = b * a
        basis = _nullspace(a[None, :])
        dim_par = n - 1

        def accept(x):
            return domain.on_face(i, x, tol=tol)
    elif stratum.startswith("edge:"):
        i, j = (int(v) for v in stratum.split(":")[1].split(","))
        rows = domain.normals[[i, j]]
        if np.linalg.matrix_rank(rows, tol=1e-10) < 2:
            # parallel supporting planes never meet in an edge
            if allow_empty:
                return []
            raise DomainError(f"faces {i} and {j} are parallel; no edge")
        origin, *_ = np.linalg.lstsq(rows, domain.offsets[[i, j]], rcond=None)
        basis = _nullspace(rows)
        dim_par = n - 2

        def accept(x):
            return domain.on_edge(i, j, x, tol=tol)
    else:
        raise ValueError(f"unknown stratum {stratum!r}")

    if dim_par == 0:
        pt = np.asarray(origin, dtype=float)
        if accept(pt):
            return [pt] * min(count, 1) or []
        if allow_empty:
            return []
        raise DomainError(f"stratum {stratum} is empty")

    shift = rng.uniform(size=dim_par)
    span = float(np.linalg.norm(hi - lo))
    center = 0.5 * (lo + hi)
    out: list[np.ndarray] = []
    k = 1
    max_tries = max(200, 2000 * count)
    while len(out) < count and k <= max_tries:
        u = np.array([
            (_halton(k, _PRIMES[d % len(_PRIMES)]) + shift[d]) % 1.0
            for d in range(dim_par)
        ])
        if stratum == "interior":
            x = lo + u * (hi - lo)
        else:
            t = (u - 0.5) * span
            x0 = np.asarray(origin, dtype=float)
            # recenter the chart near the window center for better acceptance
            x0 = x0 + basis @ (basis.T @ (center - x0))
            x = x0 + basis @ t
        if accept(x):
            out.append(x)
        k += 1
    if len(out) < count and not allow_empty:
        raise DomainError(
            f"could not draw {count} samples on {stratum} "
            f"(got {len(out)} after {max_tries} tries)"
        )
    return out


def sample_grid(domain: PolyDomain, grid_spec: dict) -> list[np.ndarray]:
    """Samples from the JSON grid form
    ``{"stratum": "interior"|"face:i"|"edge:i,j", "count": k, "seed": s}``
    with 1-based face indices in the file."""
    try:
        stratum = str(grid_spec["stratum"])
        count = int(grid_spec["count"])
        seed = int(grid_spec["seed"])
    except KeyError as exc:
        raise SceneError(f"sample grid missing key {exc}") from exc
    if stratum.startswith("face:"):
        stratum = f"face:{int(stratum.split(':')[1]) - 1}"
    elif stratum.startswith("edge:"):
        i, j = (int(v) - 1 for v in stratum.split(":")[1].split(","))
        stratum = f"edge:{i},{j}"
    return sample_stratum(domain, stratum, count, seed)


# ---------------------------------------------------------------------------
# Margin reports
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class SampleSpec:
    interior: int = 16
    per_face: int = 8
    per_edge: int = 4
    seed: int = 0


@dataclass(frozen=True)
class MarginRecord:
    value: float
    witness: tuple
    stratum: str

    def to_dict(self):
        return {
            "value": self.value,
            "witness": list(self.witness),
            "stratum": self.stratum,
        }


@dataclass(frozen=True)
class ComparisonReport:
    mode: str  # "hypotheses" | "conclusions"
    margins: dict  # name -> MarginRecord
    tolerance: float
    holds: bool

    def to_dict(self):
        return {
            "mode": self.mode,
            "tolerance": self.tolerance,
            "holds": self.holds,
            "margins": {k: v.to_dict() for k, v in self.margins.items()},
        }


def _sqrtm_spd(mat: np.ndarray) -> np.ndarray:
    w, v = np.linalg.eigh(mat)
    return (v * np.sqrt(w)) @ v.T


def _metric_norms(scene: CompareScene, x: np.ndarray) -> DfNorms:
    """Singular values of df with respect to both metrics."""
    jac = scene.corner_map.jacobian(x)
    gsrc = metric_at(scene.metric_src, x)
    gdst = metric_at(scene.metric_dst, scene.corner_map(x))
    tilted = _sqrtm_spd(gdst) @ jac @ np.linalg.inv(_sqrtm_spd(gsrc))
    return df_norms(tilted)


def _pointwise_quantities(scene: CompareScene, spec: SampleSpec):
    """Yield (name, stratum, point, hypothesis_margin, equality_residual)."""
    f = scene.corner_map
    for x in sample_stratum(scene.domain_src, "interior", spec.interior, spec.seed):
        norms = _metric_norms(scene, x)
        sc_src = curvature_tensors(scene.metric_src, x).scalar
        sc_dst = curvature_tensors(scene.metric_dst, f(x)).scalar
        gap = sc_src - norms.wedge2_norm * sc_dst
        yield ("scalar", "interior", x, gap, abs(gap))
    for i, j in f.face_map.items():
        for y in sample_stratum(scene.domain_src, f"face:{i}", spec.per_face,
                                spec.seed):
            norms = _metric_norms(scene, y)
            h_src = face_geometry(scene.metric_src, scene.domain_src, i, y
                                  ).mean_curvature
            h_dst = face_geometry(scene.metric_dst, scene.domain_dst, j, f(y)
                                  ).mean_curvature
            gap = h_src - norms.df_norm * h_dst
            yield ("mean_curvature", f"face:{i + 1}", y, gap, abs(gap))
    pairs = [(i, j) for i in f.face_map for j in f.face_map if i < j]
    for i, j in pairs:
        pts = sample_stratum(scene.domain_src, f"edge:{i},{j}", spec.per_edge,
                             spec.seed, allow_empty=True)
        for z in pts:
            th_src = dihedral_angle(scene.metric_src, scene.domain_src, i, j, z)
            th_dst = dihedral_angle(
                scene.metric_dst, scene.domain_dst,
                f.face_map[i], f.face_map[j], f(z))
            yield ("angle", f"edge:{i + 1},{j + 1}", z, th_dst - th_src,
                   abs(th_dst - th_src))
            yield ("angle_cap", f"edge:{i + 1},{j + 1}", z,
                   math.pi - th_dst, abs(math.pi - th_dst))


def _run_report(scene: CompareScene, spec: SampleSpec, mode: str,
                tolerance: float) -> ComparisonReport:
    scene.validate(seed=spec.seed)
    worst: dict[str, MarginRecord] = {}
    for name, stratum, pt, hyp_margin, eq_resid in _pointwise_quantities(scene, spec):
        if mode == "hypotheses":
            value = hyp_margin
            better = name not in worst or value < worst[name].value
        else:
            if name == "angle_cap":
                continue  # the cap is a hypothesis, not an equality claim
            value = eq_resid
            better = name not in worst or value > worst[name].value
        if better:
            worst[name] = MarginRecord(float(value),
                                       tuple(float(v) for v in pt), stratum)
    if mode == "hypotheses":
        holds = all(rec.value >= -tolerance for rec in worst.values())
    else:
        holds = all(rec.value <= tolerance for rec in worst.values())
    return ComparisonReport(mode, worst, tolerance, holds)


def check_hypotheses(scene: CompareScene, spec: SampleSpec = SampleSpec(),
                     tolerance: float = DEFAULT_TOLERANCE) -> ComparisonReport:
    """Worst hypothesis margins over the sampled strata; nonnegative margins
    (up to tolerance) mean the comparison hypotheses hold on the samples."""
    return _run_report(scene, spec, "hypotheses", tolerance)


def check_conclusions(scene: CompareScene, spec: SampleSpec = SampleSpec(),
                      tolerance: float = DEFAULT_TOLERANCE) -> ComparisonReport:
    """Largest equality residuals of the rigidity conclusions on the samples."""
    return _run_report(scene, spec, "conclusions", tolerance)


def per_sample_table(scene: CompareScene, spec: SampleSpec = SampleSpec(),
                     mode: str = "hypotheses") -> list[tuple]:
    """Every sampled value, one row per point:
    ``(margin name, stratum, point tuple, value)``."""
    scene.validate(seed=spec.seed)
    rows = []
    for name, stratum, pt, hyp_margin, eq_resid in _pointwise_quantities(scene, spec):
        value = hyp_margin if mode == "hypotheses" else eq_resid
        rows.append((name, stratum, tuple(float(v) for v in pt), float(value)))
    return rows


# ---------------------------------------------------------------------------
# Conformal identities
# ---------------------------------------------------------------------------


def _laplacian_and_gradient(gbar: MetricField, h: Expr, x: Sequence[float]):
    """div grad h and |dh|^2 with respect to gbar (trace of the Hessian)."""
    n = gbar.dim
    gmat, ginv, gamma = christoffel(gbar, x)
    idx1 = [(i,) for i in range(n)]
    idx2 = [(i, j) for i in range(n) for j in range(i, n)]
    vals = eval_with_derivatives(h, x, idx1 + idx2)
    grad = np.array([vals[(i,)] for i in range(n)])
    hess = np.empty((n, n))
    for i, j in idx2:
        hess[i, j] = vals[(i, j)]
        hess[j, i] = vals[(i, j)]
    hess_cov = hess - np.einsum("kij,k->ij", gamma, grad)
    lap = float(np.einsum("ij,ij->", ginv, hess_cov))
    grad_sq = float(grad @ ginv @ grad)
    return lap, grad_sq, grad, gmat, ginv


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

    lap, grad_sq, grad, gmat, ginv = _laplacian_and_gradient(gbar, h, x)
    sc_bar = curvature_tensors(gbar, x).scalar
    sc_scaled = curvature_tensors(scaled, x).scalar
    rhs = (sc_bar / hval**2 - 2.0 * (n - 1) / hval**3 * lap
           - (n - 1) * (n - 4) / hval**4 * grad_sq)
    out = {"scalar": float(sc_scaled - rhs)}

    if face is not None:
        if domain is None:
            raise ValueError("mean-curvature variant needs the domain")
        h_bar = face_geometry(gbar, domain, face, x).mean_curvature
        fg = face_geometry(scaled, domain, face, x)
        nu = face_geometry(gbar, domain, face, x).inner_normal
        dh_dn = float(grad @ nu)
        rhs_h = h_bar / hval - (n - 1) / hval**2 * dh_dn
        out["mean_curvature"] = float(fg.mean_curvature - rhs_h)
    return out
