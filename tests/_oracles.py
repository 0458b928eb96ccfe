"""Independent oracles used by several test modules: sympy closed forms,
the d Gamma chain for Riemann, a central finite-difference evaluator of
expression derivatives, the per-point comparison path and dihedral angle,
the mean curvature of a face as a divergence (sympy derivatives evaluated in
mpmath), the mpmath dihedral angle of given float metric and normals, the SVD null
space basis,
the term-by-term random curvature operator,
the trial-by-trial certificate loop, the face lattice's edges by ``linprog``
and its pulling triangulations by affine rank, the dense Hardy kernel and its
ARPACK (``svds``) norm over blocked numpy prefix sums, the per-entry assembly
of the link operator's tridiagonal form, the
``linprog`` domain validation with the per-subset vertex loop, the K_nu quadrature with
its Gauss-Legendre table built once at import, the corner fillet with its Simpson
rule on numpy arrays, and the cochain complexes of grid polygons with their Betti
numbers (the engine behind the closed-form index), and the arrays that the
library no longer builds: stacked jets and a domain's normals, offsets and
slacks."""

import math
import random
from functools import lru_cache, reduce
from itertools import combinations
from dataclasses import dataclass
from operator import add
from typing import Sequence

import mpmath
import numpy as np
import sympy as sp

from dihedral_lab.clifford import boundary_certificate, curvature_certificate
from dihedral_lab.comparison import _PRIMES, CompareScene, SampleSpec, _window_box
from dihedral_lab.corner_smoothing import ARC_SAMPLES, SmoothedCorner
from dihedral_lab.curvature import (
    _FEAS_TOL,
    DegenerateCornerError,
    DomainError,
    PolyDomain,
    _nullspace,
    curvature_tensors,
)
from dihedral_lab.expressions import Expr, MetricField, _full, parse_expression
from dihedral_lab.index_lab import PolygonError

# Central finite-difference steps (scaled by max(1, |x_i|) per axis).
FIRST_ORDER_STEP = 1e-6
SECOND_ORDER_STEP = 1e-4


def _steps(x: Sequence[float], base: float) -> np.ndarray:
    return np.array([base * max(1.0, abs(float(xi))) for xi in x])


def eval_with_derivatives(
    e: Expr,
    x: Sequence[float],
    wanted: Sequence[tuple[int, ...]],
    first_step: float = FIRST_ORDER_STEP,
    second_step: float = SECOND_ORDER_STEP,
) -> dict[tuple[int, ...], float]:
    """Evaluate ``e`` and the requested partial derivatives at ``x``.

    ``wanted`` holds multi-indices as tuples of 0-based axis indices:
    ``()`` for the value, ``(i,)`` for d/dx_i, ``(i, j)`` for the mixed
    second derivative.  Central stencils; truncation error is O(step^2).
    """
    x = [float(v) for v in x]
    h1 = _steps(x, first_step)
    h2 = _steps(x, second_step)
    out: dict[tuple[int, ...], float] = {}
    for idx in wanted:
        if len(idx) > 2:
            raise ValueError(f"derivative order {len(idx)} > 2 not supported")
        key = tuple(sorted(idx))
        if key in out:
            continue
        if key == ():
            out[key] = e.eval(x)
        elif len(key) == 1:
            (i,) = key
            xp, xm = list(x), list(x)
            xp[i] += h1[i]
            xm[i] -= h1[i]
            out[key] = (e.eval(xp) - e.eval(xm)) / (2.0 * h1[i])
        elif key[0] == key[1]:
            i = key[0]
            xp, xm = list(x), list(x)
            xp[i] += h2[i]
            xm[i] -= h2[i]
            out[key] = (e.eval(xp) - 2.0 * e.eval(x) + e.eval(xm)) / (h2[i] ** 2)
        else:
            i, j = key
            vals = 0.0
            for si, sj in ((1, 1), (1, -1), (-1, 1), (-1, -1)):
                xx = list(x)
                xx[i] += si * h2[i]
                xx[j] += sj * h2[j]
                vals += si * sj * e.eval(xx)
            out[key] = vals / (4.0 * h2[i] * h2[j])
    return {tuple(sorted(idx)): out[tuple(sorted(idx))] for idx in wanted}



def symbolic_curvature(g_matrix, xs, point):
    """Christoffels / lowered Riemann / Ricci / scalar at a point, computed
    symbolically with the same sign conventions the library promises:
    R(X,Y)Z = [nabla_X, nabla_Y]Z - nabla_[X,Y]Z, R_ijkl = g(R(di,dj)dk, dl),
    Ric_jk = g^{ml} R_mjkl, Sc = g^{jk} Ric_jk.
    """
    n = len(xs)
    g = sp.Matrix(g_matrix)
    ginv = g.inv()
    gamma = [[[sum(ginv[k, l] * (sp.diff(g[j, l], xs[i]) + sp.diff(g[i, l], xs[j])
                                 - sp.diff(g[i, j], xs[l])) for l in range(n)) / 2
               for j in range(n)] for i in range(n)] for k in range(n)]
    rup = [[[[sp.diff(gamma[m][j][k], xs[i]) - sp.diff(gamma[m][i][k], xs[j])
              + sum(gamma[l][j][k] * gamma[m][i][l]
                    - gamma[l][i][k] * gamma[m][j][l] for l in range(n))
              for k in range(n)] for j in range(n)] for i in range(n)]
           for m in range(n)]
    subs = dict(zip(xs, point))

    def ev(expr):
        return float(sp.N(expr.subs(subs)))

    gamma_num = np.array([[[ev(gamma[k][i][j]) for j in range(n)]
                           for i in range(n)] for k in range(n)])
    riem = np.zeros((n, n, n, n))
    gnum = np.array([[ev(g[i, j]) for j in range(n)] for i in range(n)])
    rup_num = np.array([[[[ev(rup[m][i][j][k]) for k in range(n)]
                          for j in range(n)] for i in range(n)] for m in range(n)])
    riem = np.einsum("ml,mijk->ijkl", gnum, rup_num)
    ginv_num = np.linalg.inv(gnum)
    ric = np.einsum("ml,mjkl->jk", ginv_num, riem)
    sc = float(np.einsum("jk,jk->", ginv_num, ric))
    return gamma_num, riem, ric, sc


def sphere_chart_metric_sympy(n):
    """Stereographic round-sphere chart 4/(1+|x|^2)^2 * delta as sympy data."""
    xs = sp.symbols(f"x1:{n + 1}", real=True)
    conf = 4 / (1 + sum(v**2 for v in xs)) ** 2
    return sp.eye(n) * conf, list(xs)


def expr_jet(e: Expr, pts) -> tuple:
    """Value ``(m,)``, gradient ``(m, n)`` and Hessian ``(m, n, n)`` of ``e``
    at the rows of ``pts``: ``Expr.jet_parts`` point by point, stacked."""
    parts = [e.jet_parts(tuple(map(float, x))) for x in pts]
    n = len(pts[0])
    return (np.array([value for value, _, _ in parts]),
            np.array([grad for _, grad, _ in parts]).reshape(len(pts), n),
            np.array([_full(hess, n) for _, _, hess in parts]).reshape(len(pts), n, n))


def metric_jet(g: MetricField, pts) -> tuple:
    """Metric ``g[p, i, j]``, ``dg[p, k, i, j] = d_k g_ij`` and ``d2g[p, a, b,
    i, j] = d_a d_b g_ij`` at the rows of ``pts``: ``MetricField.jet_parts``
    point by point, stacked."""
    gm, dg, d2g = (np.array(part) for part in zip(
        *(g.jet_parts(tuple(map(float, x))) for x in pts)))
    return gm, np.moveaxis(dg, 3, 1), np.moveaxis(d2g, (3, 4), (1, 2))


def normals(domain: PolyDomain) -> np.ndarray:
    """The unit normals of ``domain`` as a ``(k, n)`` array."""
    return np.array(domain.a, dtype=float).reshape(-1, domain.dim)


def offsets(domain: PolyDomain) -> np.ndarray:
    """The offsets of the unit normals as a ``(k,)`` array."""
    return np.array(domain.b, dtype=float)


def slacks(domain: PolyDomain, x) -> np.ndarray:
    """``<a_i, x> - b_i`` for every face (leading point axes broadcast),
    summed left to right as ``PolyDomain._on_faces_at`` sums them."""
    x, rows = np.asarray(x, dtype=float)[..., None, :], normals(domain)
    return reduce(add, (x[..., m] * rows[:, m] for m in range(domain.dim)), 0.0) - offsets(domain)


def contains(domain: PolyDomain, x, tol: float = 1e-12) -> bool:
    """Whether ``x`` lies in the region of ``domain`` up to ``tol``."""
    s = slacks(domain, x)
    if domain.region == "intersection":
        return bool(np.all(s >= -tol))
    return bool(np.any(s <= tol))


def dgamma_curvature(g: MetricField, pts: np.ndarray):
    """Riemann, Ricci and scalar curvature at the rows of ``pts`` by
    differentiating the second-kind symbols: d g^{-1}, d Gamma, the mixed
    R^m_{ijk}, then lowered with g.  The library's kernel uses the lowered
    formula on the second derivatives of g instead."""
    gmat, dg, d2g = metric_jet(g, pts)
    ginv = np.linalg.inv(gmat)
    bracket = dg + np.swapaxes(dg, -3, -2) - np.moveaxis(dg, -3, -1)
    gamma = 0.5 * np.einsum("...kl,...ijl->...kij", ginv, bracket)
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
    mixed = (
        np.einsum("...imjk->...mijk", dgamma)
        - np.einsum("...jmik->...mijk", dgamma)
        + np.einsum("...ljk,...mil->...mijk", gamma, gamma)
        - np.einsum("...lik,...mjl->...mijk", gamma, gamma)
    )
    riemann = np.einsum("...ml,...mijk->...ijkl", gmat, mixed)
    ricci = np.einsum("...ml,...mjkl->...jk", ginv, riemann)
    scalar = np.einsum("...jk,...jk->...", ginv, ricci)
    return riemann, ricci, scalar


def wedge_compound_matrix(j):
    """Induced map on Lambda^2 from the 2x2 minors of J (independent of
    the SVD route used by the library)."""
    j = np.asarray(j, dtype=float)
    m, n = j.shape
    rows = [(a, b) for a in range(m) for b in range(a + 1, m)]
    cols = [(c, d) for c in range(n) for d in range(c + 1, n)]
    out = np.empty((len(rows), len(cols)))
    for p, (a, b) in enumerate(rows):
        for q, (c, d) in enumerate(cols):
            out[p, q] = j[a, c] * j[b, d] - j[a, d] * j[b, c]
    return out


def _wedge_pairs(n):
    return [(a, b) for a in range(n) for b in range(a + 1, n)]


def bianchi_residual_closure(rop, n):
    """First-Bianchi violation through a sign-normalizing entry closure,
    over the cyclic sum R(i,j,k,l) + R(i,k,l,j) + R(i,l,j,k)."""
    rop = np.asarray(rop, dtype=float)
    pidx = {p: k for k, p in enumerate(_wedge_pairs(n))}

    def entry(i, j, k, l):
        if i == j or k == l:
            return 0.0
        sign = 1.0
        if i > j:
            i, j, sign = j, i, -sign
        if k > l:
            k, l, sign = l, k, -sign
        return sign * rop[pidx[(i, j)], pidx[(k, l)]]

    worst = 0.0
    for i in range(n):
        for j in range(i + 1, n):
            for k in range(j + 1, n):
                for l in range(k + 1, n):
                    worst = max(worst, abs(
                        entry(i, j, k, l) + entry(i, k, l, j) + entry(i, l, j, k)
                    ))
    return worst


def loop_curvature_operator(n, rng, terms=None):
    """Sum of squares of random decomposable 2-vectors, drawn term by term
    (u, then v) and accumulated with np.outer."""
    pairs = _wedge_pairs(n)
    if terms is None:
        terms = len(pairs) + 2
    rop = np.zeros((len(pairs), len(pairs)))
    for _ in range(terms):
        u = rng.normal(size=n)
        v = rng.normal(size=n)
        w = np.array([u[a] * v[b] - u[b] * v[a] for a, b in pairs])
        rop += np.outer(w, w)
    return rop


def loop_certify(n, trials, rng, source, target):
    """Worst curvature and boundary certificates trial by trial through the
    one-trial public functions, drawing in the order the ``certify``
    command uses."""
    worst_c, worst_b = math.inf, math.inf
    for _ in range(trials):
        rop = loop_curvature_operator(n, rng)
        jac = rng.normal(size=(n, n))
        worst_c = min(worst_c, curvature_certificate(rop, jac, source, target))
        ell = rng.normal(size=(n - 1, n - 1))
        amat = ell.T @ ell
        jac_b = rng.normal(size=(n - 1, n - 1))
        worst_b = min(worst_b, boundary_certificate(amat, jac_b, source, target))
    return worst_c, worst_b


def kron_curvature_endomorphism(rop, jac, source, target):
    """E + |^2 df| Sc/4 Id accumulated pair by pair with np.kron, and the
    scale sum |coeff| + |shift| of its entries.  The 2x2 minors of jac
    give Lambda^2 df independently of the library."""
    rop = np.asarray(rop, dtype=float)
    jac = np.asarray(jac, dtype=float)
    m, n = jac.shape
    coeff = rop @ wedge_compound_matrix(jac)
    dim = source.fiber_dim * target.fiber_dim
    endo = np.zeros((dim, dim), dtype=complex)
    for q, (c, d) in enumerate(_wedge_pairs(n)):
        cbar = source.generators[c] @ source.generators[d]
        for p, (a, b) in enumerate(_wedge_pairs(m)):
            cw = target.generators[a] @ target.generators[b]
            endo += (-0.5 * coeff[p, q]) * np.kron(cbar, cw)
    sv = np.linalg.svd(jac, compute_uv=False)
    shift = sv[0] * sv[1] * 2.0 * np.trace(rop) / 4.0
    return endo + shift * np.eye(dim), np.abs(coeff).sum() + abs(shift)


def kron_boundary_endomorphism(amat, jac, source, target):
    """E_boundary + |df| tr(A)/2 Id accumulated with np.kron over the
    actions cbar(e_n) cbar(e_lam) (x) c(e_m) c(e_mu), and its scale."""
    amat = np.asarray(amat, dtype=float)
    jac = np.asarray(jac, dtype=float)
    n, m = source.n, target.n
    coeff = jac.T @ amat
    dim = source.fiber_dim * target.fiber_dim
    endo = np.zeros((dim, dim), dtype=complex)
    for lam in range(n - 1):
        cbar = source.generators[n - 1] @ source.generators[lam]
        for mu in range(m - 1):
            cpart = target.generators[m - 1] @ target.generators[mu]
            endo += (-0.5 * coeff[lam, mu]) * np.kron(cbar, cpart)
    shift = np.linalg.norm(jac, 2) * np.trace(amat) / 2.0
    return endo + shift * np.eye(dim), np.abs(coeff).sum() + abs(shift)


# ---------------------------------------------------------------------------
# Per-point comparison path (the reference for the batched ``compare`` rows):
# the scalar Halton sampler, the per-point corner map and the per-point
# pointwise quantities, as they were before ``compare`` ran in batches.
# Use ``pointwise_scene(scene)`` to give a scene the per-point corner map.
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class PointwiseCornerMap:
    components: tuple
    face_map: dict

    def __call__(self, x: Sequence[float]) -> np.ndarray:
        return np.array([e.eval(x) for e in self.components])

    def jacobian(self, x: Sequence[float]) -> np.ndarray:
        return np.array([e.jet_parts(tuple(map(float, x)))[1] for e in self.components])


def pointwise_scene(scene):
    cmap = scene.corner_map
    return CompareScene(scene.domain_src, scene.metric_src, scene.domain_dst,
                        scene.metric_dst, PointwiseCornerMap(cmap.components, cmap.face_map))


def svd_nullspace(rows) -> np.ndarray:
    """Orthonormal basis (columns) of the null space of ``rows`` from a full
    SVD, singular values above 1e-12 counted as rank."""
    _, sing, vt = np.linalg.svd(np.asarray(rows, dtype=float))
    return vt[int(np.sum(sing > 1e-12)):].T


def _halton(index: int, base: int) -> float:
    out, f = 0.0, 1.0
    while index > 0:
        f /= base
        out += f * (index % base)
        index //= base
    return out


def lattice_points(domain: PolyDomain) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """``(points, rows, offsets)``: the program's lattice vertices, taken as
    given (without a window they round to ``vertices()``, which
    ``loop_vertices`` checks), and the half-spaces of the cell, the window
    box's appended when the domain has one."""
    rows, offs = normals(domain), offsets(domain)
    if domain.window is not None:
        eye = np.eye(domain.dim)
        rows = np.vstack([rows] + [np.vstack([eye[c], -eye[c]]) for c in range(domain.dim)])
        offs = np.concatenate([offs] + [[lo, -hi] for lo, hi in zip(*domain.window)])
    return np.array(domain._lattice[0]).reshape(-1, domain.dim), rows, offs


def affine_rank(points: np.ndarray) -> int:
    """Dimension of the affine hull of the rows of ``points`` (-1 if none),
    from the singular values of their differences."""
    if len(points) == 0:
        return -1
    diffs = points[1:] - points[0]
    if len(diffs) == 0:
        return 0
    return int(np.linalg.matrix_rank(diffs, tol=1e-9 * max(1.0, float(np.abs(points).max()))))


def lattice_incidence(domain: PolyDomain) -> tuple[np.ndarray, list]:
    """``(points, on)``: the lattice vertices and, per half-space (the
    window's after the domain's), the set of vertex numbers on its plane by
    numpy slacks, each within 1e-9 of the size of the terms it cancels."""
    pts, rows, offs = lattice_points(domain)
    scale = np.abs(rows) @ np.abs(pts).T + np.abs(offs)[:, None]
    return pts, [frozenset(np.flatnonzero(row).tolist()) for row in
                 np.abs(rows @ pts.T - offs[:, None]) <= _FEAS_TOL * np.maximum(1.0, scale)]


def pulling_cells(domain: PolyDomain, faces: tuple) -> list[tuple]:
    """The pulling triangulation of a face or edge, from scratch: dimensions
    by affine rank, each face coned from its least vertex over its facets
    (the vertex sets on one more plane, one dimension lower) that miss it;
    sorted tuples of vertex numbers."""
    pts, on = lattice_incidence(domain)

    def pull(vs):
        d = affine_rank(pts[sorted(vs)])
        if d == 0:
            return [(min(vs),)]
        facets = {vs & s for s in on if affine_rank(pts[sorted(vs & s)]) == d - 1}
        return sorted((min(vs), *cell) for facet in facets if min(vs) not in facet
                      for cell in pull(facet))

    vs = frozenset.intersection(*(on[f] for f in faces))
    return pull(vs) if vs else []


def sample_stratum(domain: PolyDomain, faces: tuple, count: int, seed: int) -> list[np.ndarray]:
    """Deterministic low-discrepancy samples on a stratum: ``()`` the
    interior, ``(i,)`` face i, ``(i, j)`` the edge of faces i < j.

    Halton points take a Cranley-Patterson rotation, the first draws of
    ``random.Random(seed)``.  Interior points fill the window box and are
    kept strictly inside.  A face or edge is sampled on ``pulling_cells``:
    coordinate 0 picks a simplex by its volume (a numpy determinant) and
    the other coordinates place the point as a cone over a cone, apex first.
    """
    lo, hi = map(np.array, _window_box(domain))
    n = domain.dim
    rng = random.Random(seed)
    shift = [rng.random() for _ in range(n)]

    def halton(k, dims):
        return [(_halton(k, _PRIMES[d % len(_PRIMES)]) + shift[d]) % 1.0 for d in range(dims)]

    if not faces:
        out, max_tries = [], max(200, 2000 * count)
        for k in range(1, max_tries + 1):
            if len(out) == count:
                break
            x = lo + np.array(halton(k, n)) * (hi - lo)
            if contains(domain, x, tol=-1e-12):  # strictly inside
                out.append(x)
        if len(out) < count:
            raise DomainError(f"could not draw {count} samples on interior")
        return out
    pts = [tuple(p) for p in lattice_points(domain)[0].tolist()]
    cells = [[pts[v] for v in cell] for cell in pulling_cells(domain, faces)]
    d = len(cells[0]) - 1
    if d == 0:
        return [np.array(cells[0][0])][:count]
    vols = [math.sqrt(max(0.0, np.linalg.det(legs @ legs.T))) for legs in (
        np.array(cell[1:]) - np.array(cell[0]) for cell in cells)]
    cum = np.cumsum(vols) / sum(vols)
    out = []
    for k in range(1, count + 1):
        u = halton(k, d + 1)
        cell = cells[min(int(np.searchsorted(cum, u[0], side="right")), len(cells) - 1)]
        y = cell[d]
        for m in range(d - 1, -1, -1):
            r = u[m + 1] ** (1.0 / (d - m))
            y = [p + r * (q - p) for p, q in zip(cell[m], y)]
        out.append(np.array(y))
    return out


def _sqrtm_spd(mat: np.ndarray) -> np.ndarray:
    w, v = np.linalg.eigh(mat)
    return (v * np.sqrt(w)) @ v.T


def _metric_norms(scene: CompareScene, x: np.ndarray) -> tuple[float, float]:
    """``|df|`` and ``|^2 df|``, from the singular values of df with respect
    to both metrics."""
    jac = scene.corner_map.jacobian(x)
    gsrc = np.array(scene.metric_src.matrix_at(x))
    gdst = np.array(scene.metric_dst.matrix_at(scene.corner_map(x)))
    tilted = _sqrtm_spd(gdst) @ jac @ np.linalg.inv(_sqrtm_spd(gsrc))
    sv = np.linalg.svd(tilted, compute_uv=False)
    return float(sv[0]), float(sv[0] * sv[1]) if len(sv) > 1 else 0.0


@lru_cache(maxsize=None)
def _metric_first_derivatives(texts: tuple, n: int):
    """mpmath functions of the metric entries ``g[i][j]`` and of their first
    derivatives ``dg[k][i][j] = d_k g_ij``, from sympy on the entry texts
    (``texts[n i + j]``, with ``^`` as ``**``)."""
    xs = sp.symbols(f"x1:{n + 1}", real=True)
    names = {f"x{k + 1}": x for k, x in enumerate(xs)}
    entries = [sp.sympify(t.replace("^", "**"), locals=names) for t in texts]
    g = [[sp.lambdify([xs], entries[n * i + j], "mpmath") for j in range(n)] for i in range(n)]
    dg = [[[sp.lambdify([xs], sp.diff(entries[n * i + j], x), "mpmath") for j in range(n)]
           for i in range(n)] for x in xs]
    return g, dg


def mean_curvature(g: MetricField, domain: PolyDomain, i: int, x) -> float:
    """Mean curvature of face ``i`` at ``x`` with respect to its inner unit
    normal, as ``H = -div_g nu`` at 30 digits on the given floats.

    ``nu = s g^-1 a / sqrt(a^T g^-1 a)`` (s = 1 for the intersection, -1 for
    the complement) is a g-unit field, so the divergence ``div_g X = d_i X^i
    + X^i d_i log sqrt(det g)`` of it on the face is minus the trace of the
    second fundamental form.  Its derivatives need only g's first ones:
    ``d_k g^-1 = -g^-1 (d_k g) g^-1`` and ``d_k log sqrt(det g) = 1/2 tr(g^-1
    d_k g)``; g^-1 is inverted numerically, never symbolically."""
    n = g.dim
    texts = tuple(g.entries[min(r, c), max(r, c)].to_text() for r in range(n) for c in range(n))
    gf, dgf = _metric_first_derivatives(texts, n)
    sign = 1 if domain.region == "intersection" else -1
    with mpmath.workdps(30):
        pt = [mpmath.mpf(float(v)) for v in x]
        ginv = mpmath.inverse(mpmath.matrix([[e(pt) for e in row] for row in gf]))
        a = mpmath.matrix([mpmath.mpf(v) for v in domain.a[i]])
        w = ginv * a  # g^-1 a
        size = mpmath.sqrt((a.T * w)[0])
        div = 0
        for k, rows in enumerate(dgf):
            dgk = mpmath.matrix([[e(pt) for e in row] for row in rows])
            dw = -(ginv * dgk * w)  # d_k (g^-1 a)
            dsize = -(w.T * dgk * w)[0] / (2 * size)  # d_k sqrt(a^T g^-1 a)
            dlog = sum((ginv * dgk)[r, r] for r in range(n)) / 2
            div += dw[k] / size - w[k] * dsize / size**2 + w[k] / size * dlog
        return float(-sign * div)


def _edge_normal_in_face(domain: PolyDomain, gmat: np.ndarray, i: int, j: int
                         ) -> np.ndarray:
    """g-unit vector tangent to face i, g-orthogonal to the edge plane
    intersection, pointing to the <a_j, .> > 0 side."""
    a_i, a_j = normals(domain)[[i, j]]
    face_basis = np.reshape(_nullspace([a_i]), (-1, len(a_i))).T  # (n, n-1)
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
    """Dihedral angle of faces (i, j) at one edge point, in (0, pi) u (pi, 2 pi):
    the angle theta between the unit inner normals of the edge inside each
    face, or ``2 pi - theta`` on the closure of the complement."""
    if i == j:
        raise DomainError("need two distinct faces")
    if not domain.on_edge(i, j, x):
        raise DomainError(f"point {list(x)} is not on edge ({i}, {j})")
    gmat = np.array(g.matrix_at(x))
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


def exact_dihedral_angle(gmat, a_i: Sequence[float], a_j: Sequence[float],
                         region: str = "intersection"):
    """``(cos, angle)`` of the corner of faces with normals ``a_i`` and ``a_j``
    under the metric matrix ``gmat``, at 50 digits on the given floats:
    ``cos = -<a_i, a_j>_{g^-1} / (|a_i| |a_j|)`` and ``angle = acos(cos)``,
    or ``2 pi - acos(cos)`` on the closure of the complement."""
    with mpmath.workdps(50):
        g = mpmath.matrix([[mpmath.mpf(float(v)) for v in row] for row in gmat])
        a, b = ([mpmath.mpf(float(v)) for v in vec] for vec in (a_i, a_j))
        ga, gb = (mpmath.lu_solve(g, mpmath.matrix(vec)) for vec in (a, b))
        inner = lambda u, w: mpmath.fsum(p * q for p, q in zip(u, w))  # noqa: E731
        cos = -inner(a, gb) / mpmath.sqrt(inner(a, ga) * inner(b, gb))
        angle = mpmath.acos(cos)
        return cos, angle if region == "intersection" else 2 * mpmath.pi - angle


def _pointwise_quantities(scene: CompareScene, spec: SampleSpec):
    """Yield (name, stratum, point, hypothesis_margin, equality_residual)."""
    f = scene.corner_map
    for x in sample_stratum(scene.domain_src, (), spec.interior, spec.seed):
        wedge2 = _metric_norms(scene, x)[1]
        sc_src = curvature_tensors(scene.metric_src, x).scalar
        sc_dst = curvature_tensors(scene.metric_dst, f(x)).scalar
        gap = sc_src - wedge2 * sc_dst
        yield ("scalar", "interior", x, gap, abs(gap))
    for i, j in f.face_map.items():
        for y in sample_stratum(scene.domain_src, (i,), spec.per_face, spec.seed):
            h_src = mean_curvature(scene.metric_src, scene.domain_src, i, y)
            h_dst = mean_curvature(scene.metric_dst, scene.domain_dst, j, f(y))
            gap = h_src - _metric_norms(scene, y)[0] * h_dst
            yield ("mean_curvature", f"face:{i + 1}", y, gap, abs(gap))
    pts, on = lattice_incidence(scene.domain_src)
    for i, j in [(i, j) for i in f.face_map for j in f.face_map if i < j]:
        if affine_rank(pts[sorted(on[i] & on[j])]) != scene.domain_src.dim - 2:
            continue  # the faces meet in no edge
        for z in sample_stratum(scene.domain_src, (i, j), spec.per_edge, spec.seed):
            th_src = dihedral_angle(scene.metric_src, scene.domain_src, i, j, z)
            th_dst = dihedral_angle(
                scene.metric_dst, scene.domain_dst,
                f.face_map[i], f.face_map[j], f(z))
            yield ("angle", f"edge:{i + 1},{j + 1}", z, th_dst - th_src,
                   abs(th_dst - th_src))
            yield ("angle_cap", f"edge:{i + 1},{j + 1}", z,
                   math.pi - th_dst, abs(math.pi - th_dst))


def dense_hardy_norm(lam: float, delta: float = 1.0, grid: int = 1200) -> float:
    """Largest singular value of the Hardy triangle kernel, built as a full
    (grid, grid) matrix and decomposed by a dense SVD."""
    h = delta / grid
    r = (np.arange(grid) + 0.5) * h
    ratio = r[None, :] / r[:, None]  # ratio[i, j] = t_j / r_i
    # ratio**lam overflows off the triangle for |lam| >~ 91; np.where drops it
    with np.errstate(over="ignore"):
        if lam > 0:
            kernel = np.where(ratio <= 1.0, ratio**lam, 0.0) * h
        else:
            kernel = -np.where(ratio >= 1.0, ratio**lam, 0.0) * h
    return float(np.linalg.svd(kernel, compute_uv=False)[0])


_BLOCK_RISE = 600.0  # exp(+-600) stays inside the float range


def _damped_prefix_sum(logs: np.ndarray, w: np.ndarray) -> np.ndarray:
    """``s_i = sum_{j <= i} exp(logs_j - logs_i) w_j`` for nondecreasing ``logs``,
    in blocks over which ``logs`` rises by at most ``_BLOCK_RISE`` (no factor
    overflows), the running sum carried across blocks by a factor <= 1."""
    out = np.empty_like(w)
    carry, start = 0.0, 0
    while start < len(logs):
        stop = int(np.searchsorted(logs, logs[start] + _BLOCK_RISE, side="right"))
        rise = logs[start:stop] - logs[start]
        out[start:stop] = np.exp(-rise) * (carry + np.cumsum(np.exp(rise) * w[start:stop]))
        if stop < len(logs):
            carry = out[stop - 1] * math.exp(logs[stop - 1] - logs[stop])
        start = stop
    return out


def svds_hardy_norm(lam: float, delta: float = 1.0, grid: int = 1200) -> float:
    """Norm of the matrix-free Hardy kernel from ARPACK: ``svds(k=1)`` on a
    ``LinearOperator`` over the blocked numpy prefix sums above (not the
    library's qd passes over the bidiagonal inverse), from the vector of ones."""
    from scipy.sparse.linalg import LinearOperator, svds

    # K = h M with M free of delta (r_i / h = i + 1/2); the sign flip for
    # lam < 0 leaves the norm alone, so M is applied without it
    logs = abs(lam) * np.log(np.arange(grid) + 0.5)

    def prefix(f):
        return _damped_prefix_sum(logs, np.ravel(f))

    def suffix(f):
        return _damped_prefix_sum(-logs[::-1], np.ravel(f)[::-1])[::-1]

    forward, adjoint = (prefix, suffix) if lam > 0 else (suffix, prefix)
    op = LinearOperator((grid, grid), matvec=forward, rmatvec=adjoint, dtype=float)
    return delta / grid * float(svds(op, k=1, tol=0, v0=np.ones(grid),
                                     return_singular_vectors=False)[0])


def loop_tridiagonal_system(alpha: float, beta: float, n: int):
    """Diagonal and off-diagonal of the discretized link operator, assembled
    entry by entry (phi0 nodes, lumped half cells, phi1 midpoints)."""
    h = alpha / n
    half = 0.5 * (beta - alpha)
    robin = -math.tan(half)
    size = 2 * n + 1
    mass = np.empty(size)
    mass[0::2] = h
    mass[0] = 0.5 * h
    mass[-1] = 0.5 * h
    mass[1::2] = h
    diag = np.full(size, -0.5)
    diag[-1] += robin / mass[-1]
    offdiag = np.empty(size - 1)
    for p in range(size - 1):
        sign = -1.0 if p % 2 == 0 else 1.0  # phi0 -> right midpoint: -1
        offdiag[p] = sign / math.sqrt(mass[p] * mass[p + 1])
    return diag, offdiag


def tridiagonal_spectrum(alpha: float, beta: float, grid: int, count: int) -> tuple:
    """The ``count`` eigenvalues nearest zero of the assembled tridiagonal
    discretization, from LAPACK's ``eigh_tridiagonal`` restricted to the
    window ``|lambda| <= (count + 2) pi / alpha + |beta - alpha| + 1``."""
    from scipy.linalg import eigh_tridiagonal

    diag, off = loop_tridiagonal_system(alpha, beta, grid)
    window = (count + 2) * math.pi / alpha + abs(beta - alpha) + 1.0
    eigs = eigh_tridiagonal(diag, off, select="v",
                            select_range=(-window, window),
                            eigvals_only=True)
    eigs = sorted(eigs, key=abs)[:count]
    return tuple(sorted(float(v) for v in eigs))


def linprog_edges(domain: PolyDomain) -> set:
    """The pairs i < j of facets that meet the cell (cut by the window box
    if the domain has one) in dimension n - 2.  Faces ``idx`` meet it in
    dimension n - len(idx) iff their normals are independent and one HiGHS
    ``linprog`` on their common plane finds a point where every other
    half-space, unless its plane holds that flat, has slack above 1e-8 (the
    largest least slack t, ``t <= 1``); a facet is a face that does alone."""
    from scipy.optimize import linprog

    _, rows, rhs = lattice_points(domain)
    n = domain.dim

    def open_flat(idx):
        idx = list(idx)
        flat = np.column_stack([rows[idx], rhs[idx]])
        if np.linalg.matrix_rank(rows[idx], tol=1e-10) < len(idx):
            return False
        rest = [l for l in range(len(rows)) if np.linalg.matrix_rank(
            np.vstack([flat, np.append(rows[l], rhs[l])]), tol=1e-10) == len(idx) + 1]
        c = np.zeros(n + 1)
        c[-1] = -1.0
        res = linprog(c, A_ub=np.hstack([-rows[rest], np.ones((len(rest), 1))]),
                      b_ub=-rhs[rest], A_eq=np.hstack([rows[idx], np.zeros((len(idx), 1))]),
                      b_eq=rhs[idx], bounds=[(None, None)] * n + [(None, 1.0)],
                      method="highs", options={"primal_feasibility_tolerance": 1e-10,
                                               "dual_feasibility_tolerance": 1e-10})
        return res.status == 0 and -res.fun > 1e-8

    facets = [i for i in range(domain.face_count) if open_flat((i,))]
    return {(i, j) for i, j in combinations(facets, 2) if open_flat((i, j))}


def linprog_validate(domain: PolyDomain) -> None:
    """Nonempty interior of the convex cell; every face supports it.

    The reference: one HiGHS ``linprog`` for the largest slack and one
    feasibility LP per face, raising the same ``DomainError`` messages."""
    from scipy.optimize import linprog

    rows, rhs = normals(domain), offsets(domain)
    k, n = rows.shape
    # maximize slack t subject to A x - t >= b, 0 <= t <= 1
    c = np.zeros(n + 1)
    c[-1] = -1.0
    a_ub = np.hstack([-rows, np.ones((k, 1))])
    res = linprog(c, A_ub=a_ub, b_ub=-rhs,
                  bounds=[(None, None)] * n + [(0.0, 1.0)], method="highs")
    if not res.success or res.x is None or res.x[-1] <= _FEAS_TOL:
        raise DomainError("domain has empty interior")
    for i in range(k):
        feas = linprog(
            np.zeros(n),
            A_ub=-rows,
            b_ub=-rhs,
            A_eq=rows[i: i + 1],
            b_eq=rhs[i: i + 1],
            bounds=[(None, None)] * n,
            method="highs",
        )
        if not feas.success:
            raise DomainError(f"face {i + 1} does not support the domain")


def loop_vertices(domain: PolyDomain) -> np.ndarray:
    """Vertices by one ``det`` and ``solve`` per n-subset of faces."""
    n = domain.dim
    out = []
    for subset in combinations(range(domain.face_count), n):
        a = normals(domain)[list(subset)]
        b = offsets(domain)[list(subset)]
        if abs(np.linalg.det(a)) < 1e-12:
            continue
        v = np.linalg.solve(a, b)
        if np.all(slacks(domain, v) >= -1e-9):
            out.append(v)
    # return_index sorts stably, so of rows equal up to signed zeros the
    # first is kept, as past 16 rows the default sort does not
    return np.unique(np.round(np.array(out), 9), axis=0, return_index=True)[0] if out \
        else np.zeros((0, n))


# ---------------------------------------------------------------------------
# Corner fillet and Simpson rule on numpy arrays
# ---------------------------------------------------------------------------


def numpy_smoothing_arc(angle: float, radius: float,
                        edge_length: float = 1.0) -> SmoothedCorner:
    """Canonical circular fillet for a corner of interior ``angle``.

    ``angle`` must lie in (0, pi) u (pi, 2 pi); a straight corner needs no
    smoothing and is rejected.  ``radius`` must leave the tangent points
    within the edges.
    """
    if not (0.0 < angle < 2.0 * math.pi) or angle == math.pi:
        raise ValueError("corner angle must lie in (0, pi) or (pi, 2 pi)")
    if radius <= 0.0:
        raise ValueError("radius must be positive")
    if angle < math.pi:
        opening = angle        # fillet of the corner itself, inside
        sign = 1.0
    else:
        opening = 2.0 * math.pi - angle  # fillet of the complementary wedge
        sign = -1.0
    half = 0.5 * opening
    tangent_dist = radius / math.tan(half)
    if tangent_dist > edge_length:
        raise ValueError(
            f"radius {radius} needs tangent points at distance "
            f"{tangent_dist:.3g} > edge length {edge_length}"
        )
    center_dist = radius / math.sin(half)
    if angle < math.pi:
        center_angle = 0.5 * angle
    else:
        # bisector of the complementary wedge, outside the domain
        center_angle = angle + half
    center = center_dist * np.array([math.cos(center_angle),
                                     math.sin(center_angle)])
    sweep = math.pi - opening
    length = radius * sweep

    # radius direction at the tangent point on the x-axis edge; the arc is
    # traversed from there to the other edge (radius vector rotating
    # clockwise for the interior fillet, counterclockwise for the exterior)
    p_start = np.array([tangent_dist, 0.0])
    start_dir = (p_start - center) / radius
    phi0 = math.atan2(start_dir[1], start_dir[0])
    m = ARC_SAMPLES + 1
    s = np.linspace(0.0, length, m)
    phis = phi0 - sign * s / radius
    points = center + radius * np.stack([np.cos(phis), np.sin(phis)], axis=1)
    tangents = sign * np.stack([np.sin(phis), -np.cos(phis)], axis=1)
    curvature = np.full(m, sign / radius)
    return SmoothedCorner(angle, radius, s, points, tangents, curvature)


def numpy_simpson(values: np.ndarray, spacing: float) -> float:
    if len(values) % 2 == 0:
        raise ValueError("composite Simpson needs an odd sample count")
    weights = np.ones(len(values))
    weights[1:-1:2] = 4.0
    weights[2:-1:2] = 2.0
    return float(np.dot(weights, values)) * spacing / 3.0


def numpy_mean_curvature_limit(angle: float, test_function: Expr | str,
                               radii: list[float] | tuple = (0.1, 0.05, 0.025),
                               edge_length: float | None = None) -> list[float]:
    """Integrals ``integral k(s) phi(x(s))^2 ds`` for a shrinking fillet.

    As the radius drops to zero these converge to
    ``(pi - angle) phi(vertex)^2`` with an O(radius) error; consecutive
    errors shrink proportionally to the radius ratio.
    """
    phi = (parse_expression(test_function)
           if isinstance(test_function, str) else test_function)
    if edge_length is None:
        edge_length = max(1.0, 10.0 * max(radii))
    out = []
    for r in radii:
        corner = numpy_smoothing_arc(angle, r, edge_length=edge_length)
        values = np.array([phi.eval(p) for p in corner.points])
        spacing = corner.arclength[1] - corner.arclength[0]
        out.append(numpy_simpson(corner.curvature * values**2, spacing))
    return out


# ---------------------------------------------------------------------------
# The Betti engine behind the closed-form index: primal cochain complexes of
# grid squares (cubical) and right triangles (simplicial) as index arrays,
# and their harmonic dimensions from graph components and Euler-Poincare.
# ---------------------------------------------------------------------------

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


def _part_complexes(polygon: dict, resolution: int) -> list:
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
            out.extend(_part_complexes(part, resolution))
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
    return _assemble(_part_complexes(polygon, resolution))


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
