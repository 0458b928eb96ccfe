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
the modified-Bessel solution pair sqrt(r) K_{lambda -+ 1/2}(r) near r = 0,
and the Hardy-type triangle kernel (t/r)^lambda is bounded in norm by
1/(|lambda| - 1/2); that quantitative constant is validated numerically
here, it is not a quoted result.  The discretized kernel is never stored:
it is applied as blocked prefix sums in O(grid) time and memory, and its
norm comes from Golub-Kahan-Lanczos steps from a fixed start vector.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Iterable, Sequence

import numpy as np

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
_GL_NODES, _GL_WEIGHTS = np.polynomial.legendre.leggauss(16)


@dataclass(frozen=True)
class SectorPair:
    """Source sector angle alpha and target sector angle beta (radians)."""

    alpha: float
    beta: float

    def __post_init__(self):
        if not (0.0 < self.alpha < math.inf and 0.0 < self.beta < math.inf):
            raise ValueError("sector angles must be finite and positive")

    @property
    def delta(self) -> float:
        return self.beta - self.alpha


@dataclass(frozen=True)
class SpectrumReport:
    eigenvalues: tuple
    min_abs: float
    esa: bool

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
    (nearest-lattice-point formula, not a scan of ``k_range``).
    """
    alpha, beta = pair.alpha, pair.beta
    eigs = tuple(sorted(-beta / (2.0 * alpha) + k * math.pi / alpha
                        for k in k_range))
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
    j_pi = math.pi * np.arange(math.ceil(lo / math.pi), math.floor(hi / math.pi) + 1)
    phi = (j_pi - math.atan(t)) / (2 * grid)
    for _ in range(_SECULAR_STEPS):
        phi, last = (j_pi - np.arctan(t / np.cos(phi))) / (2 * grid), phi
        if np.all(np.abs(phi - last) <= 2 * np.spacing(np.abs(phi))):
            break
    else:
        raise RuntimeError(f"secular equation did not settle in {_SECULAR_STEPS} steps")
    eigs = sorted(-0.5 + 2.0 / h * np.sin(phi), key=abs)[:count]
    eigs = tuple(sorted(float(v) for v in eigs))
    min_abs = min(abs(v) for v in eigs)
    return SpectrumReport(eigs, min_abs, min_abs >= ESA_THRESHOLD - _NUMERIC_ESA_TOL)


def gallot_meyer_bound(n: int) -> float:
    """Spectral bound sqrt((n-1)(n-2))/2 for links of n-dimensional cones.

    Also verifies the quadratic identity behind it: for every form degree p
    the combination p(n-1-p) + (p - (n-1)/2)^2 equals (n-1)^2/4 exactly.
    """
    if n < 3:
        raise ValueError("the bound applies in dimension >= 3")
    target = (n - 1) ** 2 / 4.0
    for p in range(n):
        value = p * (n - 1 - p) + (p - (n - 1) / 2.0) ** 2
        if value != target:
            raise AssertionError(
                f"degree identity failed at p = {p}: {value} != {target}"
            )
    return math.sqrt((n - 1) * (n - 2)) / 2.0


# ---------------------------------------------------------------------------
# Modified Bessel deficiency probe
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class DeficiencyResult:
    lam: float
    is_l2: bool
    integrals: tuple  # (eps, integral) pairs, outermost first

    def to_dict(self):
        return {
            "lambda": self.lam,
            "is_l2": self.is_l2,
            "integrals": [list(p) for p in self.integrals],
        }


def _deficiency_integrand(lam: float, rs: np.ndarray) -> np.ndarray:
    out = np.empty_like(rs)
    for i, r in enumerate(rs):
        # square after the sqrt(r) weighting; the bare K^2 overflows first
        s_minus = math.sqrt(r) * _bessel_k(lam - 0.5, r)
        s_plus = math.sqrt(r) * _bessel_k(lam + 0.5, r)
        out[i] = s_minus * s_minus + s_plus * s_plus
    return out


def deficiency_test(lam: float, eps_sequence: Sequence[float] | None = None,
                    rtol: float = 1e-6) -> DeficiencyResult:
    """L^2 verdict for the Bessel solution pair sqrt(r) K_{lam -+ 1/2} on (0, 1].

    Integrates the squared pair over (eps, 1] along the decreasing
    ``eps_sequence`` (default: dyadic, 2^-2 down to 2^-500) and declares
    L^2 once two consecutive refinements change the integral by less than
    ``rtol`` relatively; growth without stabilization (or numeric blow-up)
    is the not-L^2 verdict.  Matches |lam| < 1/2 exactly on the lattice of
    interesting parameters.
    """
    if abs(lam) > 4.5:
        raise ValueError("|lambda| > 4.5 exceeds the supported Bessel range")
    if eps_sequence is None:
        # the slowest convergent case in scope (|lam| = 0.49, integrand
        # ~ r^-0.98) stabilizes to 1e-6 only around eps ~ 2^-700; the
        # integrand stays below the float overflow threshold past 2^-800
        eps_sequence = [2.0 ** (-k) for k in range(2, 801)]
    eps_sequence = list(eps_sequence)
    if any(b >= a for a, b in zip(eps_sequence, eps_sequence[1:])):
        raise ValueError("eps sequence must be strictly decreasing")
    if eps_sequence[0] >= 1.0:
        raise ValueError("eps sequence must start below 1")

    def panel(a: float, b: float) -> float:
        mid, hw = 0.5 * (a + b), 0.5 * (b - a)
        rs = mid + hw * _GL_NODES
        return hw * float(np.dot(_GL_WEIGHTS, _deficiency_integrand(lam, rs)))

    total = panel(eps_sequence[0], 1.0)
    trace = [(eps_sequence[0], total)]
    small_steps = 0
    for prev, eps in zip(eps_sequence, eps_sequence[1:]):
        inc = panel(eps, prev)
        total += inc
        trace.append((eps, total))
        if not math.isfinite(total) or total > 1e12:
            return DeficiencyResult(lam, False, tuple(trace))
        small_steps = small_steps + 1 if inc <= rtol * total else 0
        if small_steps >= 2:
            return DeficiencyResult(lam, True, tuple(trace))
    return DeficiencyResult(lam, False, tuple(trace))


# ---------------------------------------------------------------------------
# Hardy-type kernel bound
# ---------------------------------------------------------------------------


_BLOCK_RISE = 600.0  # exp(+-600) stays inside the float range
_LANCZOS_STEPS = 100  # the slowest tested case (lam = 400, grid 1200) takes 47


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


def _top_singular_value(forward, adjoint, n: int) -> float:
    """Largest singular value of an n x n operator by Golub-Kahan-Lanczos
    bidiagonalization from the unit vector of ones, the right basis fully
    reorthogonalized; converged once the top Ritz pair's residual
    ``|beta_k p_k|`` is at most 1e-15 sigma or the basis spans R^n."""
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
    kernel ``(K f)_i = h sum_{j <= i} (r_j / r_i)^lam f_j`` is a blocked
    prefix sum (for lam < 0 a suffix sum with the sign flipped; the adjoint
    is the reversed sum), O(grid) in time and memory, and Golub-Kahan-Lanczos
    from the fixed start vector of ones gives a deterministic norm, or
    ``RuntimeError``, never an unconverged value.
    """
    if not (math.isfinite(lam) and math.isfinite(delta)):
        raise ValueError("lambda and delta must be finite")
    if abs(lam) <= 0.5:
        raise ValueError("|lambda| must exceed 1/2 (threshold is unbounded)")
    if delta <= 0.0 or grid < 16:
        raise ValueError("need delta > 0 and a sensible grid")

    # K = h M with M free of delta (r_i / h = i + 1/2); the sign flip for
    # lam < 0 leaves the norm alone, so M is applied without it
    logs = abs(lam) * np.log(np.arange(grid) + 0.5)

    maps = (lambda f: _damped_prefix_sum(logs, f),  # prefix sum, then suffix sum
            lambda f: _damped_prefix_sum(-logs[::-1], f[::-1])[::-1])
    forward, adjoint = maps if lam > 0 else maps[::-1]
    numeric = delta / grid * _top_singular_value(forward, adjoint, grid)
    return numeric, 1.0 / (abs(lam) - 0.5)
