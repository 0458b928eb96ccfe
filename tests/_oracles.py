"""Independent oracles used by several test modules: sympy closed forms,
a central finite-difference evaluator of expression derivatives, the
per-point comparison path, the term-by-term random curvature operator,
the trial-by-trial certificate loop, the dense Hardy kernel and its
ARPACK (``svds``) norm, the per-entry assembly of the link operator's tridiagonal form, and the
``linprog`` domain validation with the per-subset vertex loop."""

import math
from itertools import combinations
from dataclasses import dataclass, replace
from typing import Sequence

import numpy as np
import sympy as sp

from dihedral_lab.comparison import (
    _PRIMES,
    CompareScene,
    DfNorms,
    SampleSpec,
    _window_box,
    boundary_certificate,
    curvature_certificate,
    df_norms,
)
from dihedral_lab.curvature import (
    _FEAS_TOL,
    DomainError,
    PolyDomain,
    _nullspace,
    curvature_tensors,
    dihedral_angle,
    face_geometry,
)
from dihedral_lab.expressions import Expr, metric_at
from dihedral_lab.sector_spectra import _damped_prefix_sum

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
        return np.array([e.jet(np.atleast_2d(x))[1][0] for e in self.components])


def pointwise_scene(scene):
    cmap = scene.corner_map
    return replace(scene, corner_map=PointwiseCornerMap(cmap.components, cmap.face_map))


def _halton(index: int, base: int) -> float:
    out, f = 0.0, 1.0
    while index > 0:
        f /= base
        out += f * (index % base)
        index //= base
    return out


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


def svds_hardy_norm(lam: float, delta: float = 1.0, grid: int = 1200) -> float:
    """Norm of the matrix-free Hardy kernel from ARPACK: ``svds(k=1)`` on a
    ``LinearOperator`` over the same blocked prefix sums, from the vector
    of ones."""
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


def linprog_validate(domain: PolyDomain) -> None:
    """Nonempty interior of the convex cell; every face supports it.

    The reference: one HiGHS ``linprog`` for the largest slack and one
    feasibility LP per face, raising the same ``DomainError`` messages."""
    from scipy.optimize import linprog

    k, n = domain.normals.shape
    # maximize slack t subject to A x - t >= b, 0 <= t <= 1
    c = np.zeros(n + 1)
    c[-1] = -1.0
    a_ub = np.hstack([-domain.normals, np.ones((k, 1))])
    res = linprog(c, A_ub=a_ub, b_ub=-domain.offsets,
                  bounds=[(None, None)] * n + [(0.0, 1.0)], method="highs")
    if not res.success or res.x is None or res.x[-1] <= _FEAS_TOL:
        raise DomainError("domain has empty interior")
    for i in range(k):
        feas = linprog(
            np.zeros(n),
            A_ub=-domain.normals,
            b_ub=-domain.offsets,
            A_eq=domain.normals[i: i + 1],
            b_eq=domain.offsets[i: i + 1],
            bounds=[(None, None)] * n,
            method="highs",
        )
        if not feas.success:
            raise DomainError(f"face {i} does not support the domain")


def loop_vertices(domain: PolyDomain) -> np.ndarray:
    """Vertices by one ``det`` and ``solve`` per n-subset of faces."""
    n = domain.dim
    out = []
    for subset in combinations(range(domain.face_count), n):
        a = domain.normals[list(subset)]
        b = domain.offsets[list(subset)]
        if abs(np.linalg.det(a)) < 1e-12:
            continue
        v = np.linalg.solve(a, b)
        if np.all(domain.slacks(v) >= -1e-9):
            out.append(v)
    return np.unique(np.round(np.array(out), 9), axis=0) if out else np.zeros((0, n))
