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
one 16-point Gauss-Legendre panel per dyadic shell (``bessel._gauss_legendre``),
summed with ``math.fsum``, so each sum is correctly rounded from terms computed
by ``math``'s functions.  The shell integrals tend to
a geometric sequence of ratio 2^-(1 - 2|lambda|); the verdict reads that
decay exponent off the last shells.  The
Hardy-type triangle kernel (t/r)^lambda is bounded in norm by
1/(|lambda| - 1/2); that quantitative constant is validated numerically
here, it is not a quoted result.  The discretized kernel is ``h B^-1`` with
B unit lower bidiagonal, so it is never stored: its norm is ``h / sigma_min(B)``,
and ``sigma_min(B)^2`` is the least eigenvalue of ``B B^T``, counted to high
relative accuracy by stationary qd passes (Demmel and Kahan, SIAM J. Sci. Stat.
Comput. 11, 1990; Parlett and Dhillon, LAA 309, 2000).  Each pass is O(grid) on
Python floats (about 0.1 s at grid 200,000 on a 2-CPU box); Laguerre's method
needs 5 or 6 of them at |lambda| <= 10 (grid 200,000: about 0.5 s) and 14 at
lambda = 400.  The module runs on the standard library at every size.
"""

from __future__ import annotations

import math
from array import array
from itertools import repeat
from operator import truediv
from typing import Iterable

from .bessel import _bessel_k, _gauss_legendre

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
        width = 2.0 ** -(k + 1)  # the shell [width, 2 width]
        shells.append(width * math.fsum(w * _deficiency_integrand(lam, width * (1.0 + s))
                                        for s, w in _gauss_legendre(16)))
    logs = [math.log2(b / a) for a, b in zip(shells[-4:], shells[-3:])]
    exponent, drift = -logs[-1], max(logs) - min(logs)
    is_l2 = exponent > _DRIFT_MULTIPLE * drift + _EXPONENT_FLOOR
    rho = shells[-1] / shells[-2]
    tail = shells[-1] * rho / (1.0 - rho) if is_l2 else None
    return DeficiencyResult(lam, is_l2, tuple(shells), exponent, drift, tail)


# ---------------------------------------------------------------------------
# Hardy-type kernel bound
# ---------------------------------------------------------------------------


_QD_PASSES = 100  # lam = 400 takes 14 at grid 1200, 19 at grid 17; lam = 1e4 at 20,000, 46
_SETTLED = 1e-14  # relative width of the final count bracket on lambda_min(B B^T)
_ZERO_PIVOT = 2.0 ** -53  # the least nonzero |1 + s|; an exact zero counts as negative


def _qd_pass(q2: array, tau: float) -> tuple[int, float, float]:
    """One stationary qd pass (dstqds) of ``B B^T - tau I``, B unit lower bidiagonal with
    ``B[i+1, i]^2 = q2[i]`` (``q2[-1]`` is unused): the pivots are ``1 + s_i``, from
    ``s_0 = -tau`` by ``s_{i+1} = q2[i] s_i / (1 + s_i) - tau``, and the negative ones
    count the eigenvalues below tau.  The tau-derivatives of s carried along give
    ``G = sum 1/(lam_k - tau)`` and ``H = sum 1/(lam_k - tau)^2``.  Each ``- tau``
    addition's rounding error is fed forward (Kahan): summed plainly, the errors drift
    one way and moved the Hardy norm at grid 200,000 by 1e-12."""
    s, c, e, d2 = -tau, 0.0, 1.0, 0.0  # e = -ds/dtau, d2 = d^2 s/dtau^2
    below, g, h = 0, 0.0, 0.0
    for q in q2:
        p = 1.0 + s or -_ZERO_PIVOT
        if p < 0.0:
            below += 1
        r = 1.0 / p
        u = e * r
        g += u
        h += u * u - d2 * r
        a = q * r
        b = a * r
        d2 = b * (d2 - 2.0 * e * u)
        e = b * e + 1.0
        t, y = a * s, b * c + tau
        s = t - y
        c = (s - t) + y
    return below, g, h


def _least_eigenvalue(q2: array) -> float:
    """``lambda_min(B B^T)`` (B as in ``_qd_pass``): the midpoint of a bracket
    ``[lo, hi]``, ``hi <= lo (1 + _SETTLED)``, whose ends count none and at least one
    eigenvalue below them.  Laguerre's method climbs to it from tau = 0 monotonically,
    cubically at the end (the characteristic polynomial is real-rooted), in steps of
    at least ``_SETTLED / 2`` relative, so the climb ends in a count above it.  Below a
    crossing the probes back off by distances doubling from ``_SETTLED / 2`` relative,
    never past the bracket's midpoint: at the end of a climb the crossing is rounding
    (the Laguerre point and the counts differ by up to 1e-14 relative) and one or two
    probes close the bracket; on a clustered spectrum (lam = 400 at grid 16, where
    ``n H - G^2`` cancels and the first step lands past lambda_min) the doubling finds
    the lower end.  A Laguerre step from ``lo`` that reaches ``hi`` bisects instead."""
    n, lo, hi, tau, back = len(q2), 0.0, math.inf, 0.0, 0.5 * _SETTLED
    for _ in range(_QD_PASSES):
        below, g, h = _qd_pass(q2, tau)
        if below:
            hi, tau, back = tau, max(tau * (1.0 - back), 0.5 * (lo + tau)), 2.0 * back
        else:
            step = n / (g + math.sqrt(max((n - 1) * (n * h - g * g), 0.0)))
            lo, tau = tau, tau + max(0.5 * _SETTLED * tau, step)
            if tau >= hi:
                tau = 0.5 * (lo + hi)
        if lo < hi <= lo * (1.0 + _SETTLED):
            return 0.5 * (lo + hi)
    raise RuntimeError(f"Hardy norm did not converge in {_QD_PASSES} qd passes")


def hardy_norm(lam: float, delta: float = 1.0, grid: int = 1200
               ) -> tuple[float, float]:
    """Numeric norm of the triangle kernel (t/r)^lam against 1/(|lam| - 1/2).

    For lam >= 1/2 the operator integrates from 0 to r; for lam <= -1/2
    from r to delta (the adjoint of the first kind).  Returns
    ``(largest singular value of the discretized kernel, analytic bound)``;
    the analytic constant is normalized to delta = 1.  The kernel
    ``(K f)_i = h sum_{j <= i} (r_j / r_i)^lam f_j`` is ``h B^-1``, B unit lower
    bidiagonal with ``-((i - 1/2)/(i + 1/2))^|lam|`` below the diagonal (for lam < 0
    reversed and negated: the same singular values), so its norm is
    ``h / sigma_min(B)``, from the qd passes of ``_least_eigenvalue`` over 8 bytes
    per grid point.  A pass costs about 0.5 us per grid point on a 2-CPU box; 5 or 6
    passes at |lam| <= 10, 14 at lam = 400, more past that; grid 200,000 at lam = 0.6
    takes 5 passes, about 0.5 s.  The result is bracketed by eigenvalue counts, or
    ``RuntimeError`` after ``_QD_PASSES`` passes, never an unconverged value.
    """
    if not (math.isfinite(lam) and math.isfinite(delta)):
        raise ValueError("lambda and delta must be finite")
    if abs(lam) <= 0.5:
        raise ValueError("|lambda| must exceed 1/2 (threshold is unbounded)")
    if delta <= 0.0 or grid < 16:
        raise ValueError("need delta > 0 and a sensible grid")
    # r_i / h = i + 1/2, so B is free of delta; (2i + 1)/(2i + 3) is (i + 1/2)/(i + 3/2) exactly
    q2 = array("d", map(pow, map(truediv, range(1, 2 * grid, 2), range(3, 2 * grid, 2)),
                        repeat(2.0 * abs(lam))))
    q2.append(0.0)  # the last pivot has no successor
    return delta / grid / math.sqrt(_least_eigenvalue(q2)), 1.0 / (abs(lam) - 0.5)
