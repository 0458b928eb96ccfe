"""Independent oracles used by several test modules: sympy closed forms and
a central finite-difference evaluator of expression derivatives."""

from typing import Sequence

import numpy as np
import sympy as sp

from dihedral_lab.expressions import Expr

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
