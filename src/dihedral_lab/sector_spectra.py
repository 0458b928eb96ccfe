r"""Spectra of the arc-link operator and related one-dimensional analysis.

The operator on the link of a two-dimensional cone sector is

    P = [[-1/2, -d/dtheta], [d/dtheta, -1/2]]

acting on pairs (phi_0, phi_1) over [0, alpha], with boundary conditions
``phi_1(0) = 0`` and ``-phi_0(alpha) sin(d/2) + phi_1(alpha) cos(d/2) = 0``
where ``d = beta - alpha`` is the angle mismatch of the comparison map.
Its spectrum is the explicit lattice ``{-beta/(2 alpha) + k pi / alpha}``;
the operator is essentially self-adjoint in the relevant cone problem iff
``min |spec| >= 1/2``, which for angles at most pi happens iff
``alpha <= beta``.

The discretization is a staggered grid (phi_0 on nodes, phi_1 on cell
midpoints) with central differences and lumped half cells at the ends.
Its eigenvalues near 0 are ``-1/2 + (2/h) sin phi``, h = alpha/grid, at the
roots of ``2 grid phi + arctan(tan(d/2) / cos phi) = j pi``, one per j on the
band ``cos phi > 1/(4 grid)``: second-order accurate, the k = 0 mode exact.

Deficiency of the cone operator is probed through the L^2 membership of
the modified-Bessel solution pair sqrt(r) K_{lambda -+ 1/2}(r) near r = 0:
one 16-point Gauss-Legendre panel per dyadic shell, summed with ``math.fsum``
(correctly rounded, the same on every machine).  The shell integrals tend to
a geometric sequence of ratio 2^-(1 - 2|lambda|); the verdict reads that
decay exponent off the last shells.  The
Hardy-type triangle kernel (t/r)^lambda is bounded in norm by
1/(|lambda| - 1/2); that quantitative constant is validated numerically
here, it is not a quoted result.  The discretized kernel is never stored:
it is applied as damped recurrences in O(grid) time and memory, and its
norm comes from Golub-Kahan-Lanczos steps from a fixed start vector.  The
module runs on the standard library; only a Hardy norm too large for it
(``grid * sqrt(1 + |lambda|) > 1e4``) imports numpy.
"""

from __future__ import annotations

import math
from array import array
from operator import mul
from typing import Iterable

from .bessel import _bessel_k

__all__ = [
    "SectorPair",
    "SpectrumReport",
    "DeficiencyResult",
    "p_spectrum_closed",
    "esa_verdict",
    "esa_verdict_mixed",
    "p_spectrum_numeric",
    "gallot_meyer_bound",
    "deficiency_test",
    "hardy_norm",
]

ESA_THRESHOLD = 0.5
_NUMERIC_ESA_TOL = 1e-9
_SECULAR_STEPS = 100  # 3 steps on benchmark inputs, 8 at the band edge
# numpy.polynomial.legendre.leggauss(16), bit for bit
_GL_NODES = (-0.9894009349916499, -0.9445750230732326, -0.8656312023878318,
             -0.755404408355003, -0.6178762444026438, -0.45801677765722737,
             -0.2816035507792589, -0.09501250983763744, 0.09501250983763744,
             0.2816035507792589, 0.45801677765722737, 0.6178762444026438,
             0.755404408355003, 0.8656312023878318, 0.9445750230732326,
             0.9894009349916499)
_GL_WEIGHTS = (0.027152459411754176, 0.062253523938647456, 0.0951585116824926,
               0.12462897125553407, 0.1495959888165767, 0.16915651939500265,
               0.18260341504492364, 0.18945061045506864, 0.18945061045506864,
               0.18260341504492364, 0.16915651939500265, 0.1495959888165767,
               0.12462897125553407, 0.0951585116824926, 0.062253523938647456,
               0.027152459411754176)


class SectorPair:
    """Source sector angle alpha and target sector angle beta (radians)."""

    __slots__ = ("alpha", "beta")
    def __init__(self, alpha: float, beta: float):
        if not (0.0 < alpha < math.inf and 0.0 < beta < math.inf):
            raise ValueError("sector angles must be finite and positive")
        self.alpha, self.beta = alpha, beta

    @property
    def delta(self) -> float:
        return self.beta - self.alpha


class SpectrumReport:
    __slots__ = ("eigenvalues", "min_abs", "esa")
    def __init__(self, eigenvalues: tuple, min_abs: float, esa: bool):
        self.eigenvalues, self.min_abs, self.esa = eigenvalues, min_abs, esa

    def to_dict(self):
        return {
            "eigenvalues": list(self.eigenvalues),
            "min_abs": self.min_abs,
            "esa": self.esa,
        }


def p_spectrum_closed(pair: SectorPair, k_range: Iterable[int] = range(-5, 6)
                      ) -> SpectrumReport:
    """Exact spectrum lattice -beta/(2 alpha) + k pi / alpha.

    ``min_abs`` is the distance of the lattice to zero over *all* integers
    (nearest-lattice-point formula, not a scan of ``k_range``).  From
    beta/(2 pi) = 2^52 on, ``beta/2 - pi k*`` keeps no correct digit.
    """
    alpha, beta = pair.alpha, pair.beta
    if beta / (2.0 * math.pi) >= 2.0 ** 52:
        raise ValueError(f"beta = {beta} is too large: beta/(2 pi) must stay below 2**52")
    eigs = tuple(sorted(-beta / (2.0 * alpha) + k * math.pi / alpha
                        for k in k_range))
    if not all(math.isfinite(v) for v in eigs):
        raise ValueError(f"lattice point past the float range at alpha = {alpha}, "
                         f"beta = {beta}")
    k_star = round(beta / (2.0 * math.pi))
    min_abs = abs(beta / 2.0 - math.pi * k_star) / alpha
    return SpectrumReport(eigs, min_abs, min_abs >= ESA_THRESHOLD)


def esa_verdict(pair: SectorPair) -> tuple[bool, str]:
    """Essential self-adjointness for the matched boundary condition.

    Valid for alpha, beta <= pi; there the criterion is exactly
    ``alpha <= beta`` and coincides with ``min |spec| >= 1/2``.
    """
    if pair.alpha > math.pi or pair.beta > math.pi:
        raise ValueError("verdict requires both angles <= pi")
    if pair.alpha <= pair.beta:
        return True, (
            f"alpha = {pair.alpha:.6g} <= beta = {pair.beta:.6g}: "
            "spectrum stays outside (-1/2, 1/2)"
        )
    return False, (
        f"alpha = {pair.alpha:.6g} > beta = {pair.beta:.6g}: eigenvalue "
        f"-beta/(2 alpha) = {-pair.beta / (2 * pair.alpha):.6g} lies in (-1/2, 1/2)"
    )


def esa_verdict_mixed(alpha: float) -> tuple[bool, str]:
    """Mixed condition (one edge takes the orthogonal complement): the
    threshold angle is pi/2."""
    if alpha <= 0.0:
        raise ValueError("sector angle must be positive")
    if alpha <= math.pi / 2.0:
        return True, f"alpha = {alpha:.6g} <= pi/2"
    return False, f"alpha = {alpha:.6g} > pi/2"


def p_spectrum_numeric(pair: SectorPair, grid: int = 4096, count: int = 5
                       ) -> SpectrumReport:
    """Eigenvalues of the discretized link operator nearest zero.

    Mass-scaled, the eigenvectors are ``cos(k theta)`` (even at 0, Robin at
    alpha), so with ``phi = pi/2 - theta`` and ``t = tan(d/2)`` each one in
    the window solves ``2 grid phi + arctan(t / cos phi) = j pi``: one root
    per j on the band ``cos phi > 1/(4 grid)``, where the map below contracts
    by ``1/(4 grid cos phi)`` or less; the rest have |lambda + 1/2| > 2/h.
    """
    if grid < 64:
        raise ValueError("grid must be at least 64")
    if grid > 2**53:  # float(grid) would round or overflow
        raise ValueError("grid must be at most 2**53")
    half = 0.5 * pair.delta
    if abs(math.cos(half)) < 1e-12:
        raise ValueError("angle mismatch too close to pi for the mixed condition")
    t, h = math.tan(half), pair.alpha / grid
    window = (count + 2) * math.pi / pair.alpha + abs(pair.delta) + 1.0
    top = 0.5 * h * (0.5 + window)  # sin(phi) at the upper end of the window
    if top * top >= 1.0 - (0.25 / grid) ** 2:
        raise ValueError(f"count {count} is too large for grid {grid} (window past the band)")
    lo, hi = (2 * grid * p + math.atan(t / math.cos(p))
              for p in (math.asin(0.5 * h * (0.5 - window)), math.asin(top)))
    j_pi = [math.pi * j for j in range(math.ceil(lo / math.pi), math.floor(hi / math.pi) + 1)]
    phi = [(v - math.atan(t)) / (2 * grid) for v in j_pi]
    for _ in range(_SECULAR_STEPS):
        phi, last = [(v - math.atan(t / math.cos(p))) / (2 * grid)
                     for v, p in zip(j_pi, phi)], phi
        if all(abs(p - q) <= 2 * math.ulp(p) for p, q in zip(phi, last)):
            break
    else:
        raise RuntimeError(f"secular equation did not settle in {_SECULAR_STEPS} steps")
    eigs = sorted((-0.5 + 2.0 / h * math.sin(p) for p in phi), key=abs)[:count]
    eigs = tuple(sorted(eigs))
    min_abs = min(abs(v) for v in eigs)
    return SpectrumReport(eigs, min_abs, min_abs >= ESA_THRESHOLD - _NUMERIC_ESA_TOL)


def gallot_meyer_bound(n: int) -> float:
    """Spectral bound sqrt((n-1)(n-2))/2 for links of n-dimensional cones.

    Also verifies the quadratic identity behind it: for every form degree p
    the combination p(n-1-p) + (p - (n-1)/2)^2 equals (n-1)^2/4 exactly.
    Times 4 both sides are integers and the difference is quadratic in p,
    so checking it in integers at p = 0, 1, 2 proves it for every p.
    """
    if n < 3:
        raise ValueError("the bound applies in dimension >= 3")
    for p in range(3):
        if 4 * p * (n - 1 - p) + (2 * p - n + 1) ** 2 != (n - 1) ** 2:
            raise AssertionError(f"degree identity failed at p = {p}")
    try:
        return math.sqrt((n - 1) * (n - 2)) / 2.0
    except OverflowError:
        raise ValueError(f"dimension {n} out of range: its bound overflows a float") from None


# ---------------------------------------------------------------------------
# Modified Bessel deficiency probe
# ---------------------------------------------------------------------------


# Forty shells reach r = 2^-40, where the shell ratio is within 1e-13 of its
# limit for |lam| >= 0.3 (it converges like r^min(4|lam|, 2)) and the last
# shell is still only ~1e100 at |lam| = 4.5.  L^2 iff the exponent exceeds
# ten drifts plus 1e-12: rounding moves it by < 1e-15, |lam| = 1/2 gives -0.0
# with no drift, and |lam| = 1/2 - 1e-10 gives 2e-10.
_DEFICIENCY_LEVELS, _DRIFT_MULTIPLE, _EXPONENT_FLOOR = 40, 10.0, 1e-12


class DeficiencyResult:
    """Integrals over the dyadic shells (2^-(k+1), 2^-k], outermost first.

    ``decay_exponent`` is -log2 of the last shell ratio, 1 - 2|lam| in the
    limit; ``exponent_drift``, the spread of the last three log2 ratios, says
    how far from geometric the shells still are and is no error bound (at
    |lam| = 0.01 the exponent is 1e-2 off, the drift 4e-4).  ``tail``, the
    geometric remainder below the last shell, is None when not L^2."""

    __slots__ = ("lam", "is_l2", "shells", "decay_exponent", "exponent_drift", "tail")
    def __init__(self, lam: float, is_l2: bool, shells: tuple, decay_exponent: float,
                 exponent_drift: float, tail: float | None):
        self.lam, self.is_l2, self.shells = lam, is_l2, shells
        self.decay_exponent, self.exponent_drift, self.tail = (
            decay_exponent, exponent_drift, tail)

    def to_dict(self):
        return {
            "lambda": self.lam,
            "is_l2": self.is_l2,
            "levels": len(self.shells),
            "final_eps": 2.0 ** -len(self.shells),
            "final_integral": math.fsum(self.shells),
            "decay_exponent": self.decay_exponent,
            "exponent_drift": self.exponent_drift,
            "tail": self.tail,
        }


def _deficiency_integrand(lam: float, r: float) -> float:
    # square after the sqrt(r) weighting; the bare K^2 overflows first
    s_minus = math.sqrt(r) * _bessel_k(lam - 0.5, r)
    s_plus = math.sqrt(r) * _bessel_k(lam + 0.5, r)
    return s_minus * s_minus + s_plus * s_plus


def deficiency_test(lam: float) -> DeficiencyResult:
    """L^2 verdict for the Bessel solution pair sqrt(r) K_{lam -+ 1/2} on (0, 1],
    right for every |1/2 - |lam|| >= 1e-10."""
    if not math.isfinite(lam):
        raise ValueError(f"lambda must be finite, got {lam}")
    if abs(lam) > 4.5:
        raise ValueError("|lambda| > 4.5 exceeds the supported Bessel range")
    shells = []
    for k in range(_DEFICIENCY_LEVELS):
        mid, hw = 0.75 * 2.0 ** -k, 0.25 * 2.0 ** -k
        shells.append(hw * math.fsum(w * _deficiency_integrand(lam, mid + hw * x)
                                     for x, w in zip(_GL_NODES, _GL_WEIGHTS)))
    logs = [math.log2(b / a) for a, b in zip(shells[-4:], shells[-3:])]
    exponent, drift = -logs[-1], max(logs) - min(logs)
    is_l2 = exponent > _DRIFT_MULTIPLE * drift + _EXPONENT_FLOOR
    rho = shells[-1] / shells[-2]
    tail = shells[-1] * rho / (1.0 - rho) if is_l2 else None
    return DeficiencyResult(lam, is_l2, tuple(shells), exponent, drift, tail)


# ---------------------------------------------------------------------------
# Hardy-type kernel bound
# ---------------------------------------------------------------------------


_BLOCK_RISE = 600.0  # exp(+-600) stays inside the float range
_CANCELLED = 0.5 ** 0.5  # a Gram-Schmidt pass that keeps less of the norm is repeated
_LANCZOS_STEPS = 100  # the slowest tested case (lam = 400, grid 1200) takes 47
# The Lanczos steps depend on lam alone (about 10 (1 + |lam|)^(1/4) once grid >= 300),
# so the stdlib cost grows as grid * sqrt(1 + |lam|); at this value it matches the
# numpy path with its import (60-80 ms on a 2-CPU box), beyond it numpy takes over
_STDLIB_WORK = 1e4


def _damped_prefix_sum(q, w) -> list:
    """``s_i = q_i s_{i-1} + w_i`` from ``s_0 = w_0`` for ``0 <= q_i <= 1`` (no overflow),
    each addition's rounding error ``c`` fed back (Kahan): summed plainly, the errors on
    a smooth ``w`` drift one way and moved the Hardy norm at grid 200,000 by 7e-13."""
    s, c, out = 0.0, 0.0, []
    for qi, wi in zip(q, w):
        p, y = qi * s, wi - qi * c
        s = p + y
        c = (s - p) - y
        out.append(s)
    return out


def _blocked_prefix_sum(logs, w):
    """``s_i = sum_{j <= i} exp(logs_j - logs_i) w_j`` for nondecreasing numpy ``logs``,
    in blocks over which ``logs`` rises by at most ``_BLOCK_RISE`` (no factor
    overflows), the running sum carried across blocks by a factor <= 1."""
    import numpy as np

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


def _bidiagonal_top(alphas: list, betas: list) -> tuple[float, float]:
    """Top singular value of the upper bidiagonal B (diagonal ``alphas``, superdiagonal
    ``betas``) and the last entry of its top left singular vector: with B scaled to
    entries <= 1, bisection finds the least x in [1, 5] with all LDL^T pivots of
    ``x I - B B^T`` positive, and two solves with them from ones give the vector."""
    scale = max(map(abs, alphas + betas))
    a, b = [v / scale for v in alphas], [v / scale for v in betas] + [0.0]
    diag, off = [x * x + y * y for x, y in zip(a, b)], [y * x for y, x in zip(b, a[1:])]

    def pivots(x):  # every pivot after the first one <= 0 reads -1
        out = [x - diag[0]]
        for d, e in zip(diag[1:], off):
            out.append(x - d - e * e / out[-1] if out[-1] > 0.0 else -1.0)
        return out

    lo, hi = 1.0, 5.0
    while lo < (mid := 0.5 * (lo + hi)) < hi:
        lo, hi = (lo, mid) if min(pivots(mid)) > 0.0 else (mid, hi)
    piv = pivots(hi)
    ratios, y = [e / p for e, p in zip(off, piv)], [1.0] * len(a)
    for _ in range(2):  # L, then D, then L^T
        for i, r in enumerate(ratios):
            y[i + 1] += r * y[i]
        y = [v / p for v, p in zip(y, piv)]
        for i in reversed(range(len(ratios))):
            y[i] += ratios[i] * y[i + 1]
    return scale * math.sqrt(hi), y[-1] / math.sqrt(sum(map(mul, y, y)))


def _top_singular_value(forward, adjoint, n: int) -> float:
    """Largest singular value of an n x n operator (``forward``, ``adjoint``: n floats
    to n floats) by Golub-Kahan-Lanczos from the unit vector of ones, the right basis
    in ``array('d')`` rows fully reorthogonalized by classical Gram-Schmidt, a second
    pass only after one that cancelled (Daniel, Gragg, Kaufman and Stewart); converged
    once the top Ritz pair's residual ``|beta_k p_k|`` is at most 1e-15 sigma or the
    basis spans R^n."""
    basis = [array("d", [1.0 / math.sqrt(n)]) * n]  # grows by one row a step
    u = forward(basis[0])
    alphas, betas = [math.sqrt(sum(map(mul, u, u)))], []
    for _ in range(_LANCZOS_STEPS):
        u = [x / alphas[-1] for x in u]
        w = [x - alphas[-1] * y for x, y in zip(adjoint(u), basis[-1])]
        beta = math.sqrt(sum(map(mul, w, w)))
        for _ in range(2):  # w -= V^T (V w), by columns of V
            cs = [sum(map(mul, v, w)) for v in basis]
            w = [x - sum(map(mul, cs, col)) for x, col in zip(w, zip(*basis))]
            beta, before = math.sqrt(sum(map(mul, w, w))), beta
            if beta > _CANCELLED * before:
                break
        sigma, last = _bidiagonal_top(alphas, betas)
        if beta * abs(last) <= 1e-15 * sigma or len(alphas) == n:
            return sigma
        basis.append(array("d", [x / beta for x in w]))
        u = [x - beta * y for x, y in zip(forward(basis[-1]), u)]
        alphas.append(math.sqrt(sum(map(mul, u, u))))
        betas.append(beta)
    raise RuntimeError(f"Lanczos did not converge in {_LANCZOS_STEPS} steps")


def _top_singular_value_numpy(forward, adjoint, n: int) -> float:
    """``_top_singular_value`` on numpy vectors: the basis reorthogonalized twice by
    matrix products, the bidiagonal step by ``numpy.linalg.svd``."""
    import numpy as np

    basis = np.full((1, n), 1.0 / math.sqrt(n))  # grows by one row a step
    u = forward(basis[0])
    alphas, betas = [math.sqrt(u @ u)], []
    for _ in range(_LANCZOS_STEPS):
        u /= alphas[-1]
        w = adjoint(u) - alphas[-1] * basis[-1]
        for _ in range(2):  # twice is enough
            w -= basis.T @ (basis @ w)
        beta = math.sqrt(w @ w)
        left, sigma, _ = np.linalg.svd(np.diag(alphas) + np.diag(betas, 1))
        if beta * abs(left[-1, 0]) <= 1e-15 * sigma[0] or len(alphas) == n:
            return float(sigma[0])
        basis = np.vstack([basis, w / beta])
        u = forward(basis[-1]) - beta * u
        alphas.append(math.sqrt(u @ u))
        betas.append(beta)
    raise RuntimeError(f"Lanczos did not converge in {_LANCZOS_STEPS} steps")


def hardy_norm(lam: float, delta: float = 1.0, grid: int = 1200
               ) -> tuple[float, float]:
    """Numeric norm of the triangle kernel (t/r)^lam against 1/(|lam| - 1/2).

    For lam >= 1/2 the operator integrates from 0 to r; for lam <= -1/2
    from r to delta (the adjoint of the first kind).  Returns
    ``(largest singular value of the discretized kernel, analytic bound)``;
    the analytic constant is normalized to delta = 1.  Matrix-free: the
    kernel ``(K f)_i = h sum_{j <= i} (r_j / r_i)^lam f_j`` is the recurrence
    ``s_i = (r_{i-1} / r_i)^|lam| s_{i-1} + f_i`` (for lam < 0 run backwards
    with the sign flipped; the adjoint is the reversed run), O(grid) in time
    and memory, and Golub-Kahan-Lanczos from the fixed start vector of ones
    gives a deterministic norm, or ``RuntimeError``, never an unconverged
    value.  Up to ``grid * sqrt(1 + |lam|) = _STDLIB_WORK`` this runs on
    Python floats; beyond, where it would cost more than importing numpy,
    on numpy arrays (the recurrence as blocked prefix sums).
    """
    if not (math.isfinite(lam) and math.isfinite(delta)):
        raise ValueError("lambda and delta must be finite")
    if abs(lam) <= 0.5:
        raise ValueError("|lambda| must exceed 1/2 (threshold is unbounded)")
    if delta <= 0.0 or grid < 16:
        raise ValueError("need delta > 0 and a sensible grid")
    # K = h M with M free of delta (r_i / h = i + 1/2); the sign flip for
    # lam < 0 leaves the norm alone, so M is applied without it; row i of M
    # is row i - 1 damped by (r_{i-1} / r_i)^|lam|, plus the diagonal 1
    if grid * math.sqrt(1.0 + abs(lam)) <= _STDLIB_WORK:
        ahead = array("d", [0.0, *(((i - 0.5) / (i + 0.5)) ** abs(lam) for i in range(1, grid))])
        back = ahead[:1] + ahead[:0:-1]  # the same factors for the reversed run
        maps = (lambda f: _damped_prefix_sum(ahead, f),  # prefix sum, then suffix sum
                lambda f: _damped_prefix_sum(back, f[::-1])[::-1])
        top = _top_singular_value
    else:
        import numpy as np

        logs = abs(lam) * np.log(np.arange(grid) + 0.5)
        maps = (lambda f: _blocked_prefix_sum(logs, f),
                lambda f: _blocked_prefix_sum(-logs[::-1], f[::-1])[::-1])
        top = _top_singular_value_numpy
    forward, adjoint = maps if lam > 0 else maps[::-1]
    numeric = delta / grid * top(forward, adjoint, grid)
    return numeric, 1.0 / (abs(lam) - 0.5)
