r"""Modified Bessel functions I_nu and K_nu on the ranges the lab needs.

Strategy (documented, fixed):

- ``I_nu(r)``: ascending power series (DLMF 10.25.2) everywhere in range;
  for r <= 10 the series converges to machine precision in < 60 terms.
- ``K_nu(r)``, r < 2: reflection formula
  ``K_nu = pi/2 * (I_{-nu} - I_nu) / sin(nu*pi)`` for non-integer orders,
  and the logarithmic series DLMF 10.31.2 for integer orders.  The
  cancellation in the reflection formula is bounded by exp(2r) ~ 55 for
  r < 2, so double precision keeps ~13 significant digits.
- ``K_nu(r)``, r >= 2: Gauss-Legendre quadrature of the integral
  representation ``K_nu(r) = \int_0^\infty exp(-r cosh t) cosh(nu t) dt``
  (DLMF 10.32.9).  The large-r asymptotic expansion is *not* used: its
  optimal truncation error at r = 2..10 is 1e-2..1e-8, short of the
  1e-10 accuracy contract.

The public entry point :func:`bessel_kr` enforces the supported range
0 < r <= 10, |nu| <= 5.  The private ``_bessel_i`` / ``_bessel_k`` helpers
accept any r > 0 with |nu| <= 5 (the deficiency integral walks r far below
the public range) and are validated in the test suite down to r = 1e-130.
Everything runs on floats: the quadrature takes its 48-point rule from
:func:`_gauss_legendre`, the one Gauss-Legendre generator of the package
(``gauss_bonnet_defect`` and the deficiency shells use it too), and sums
each panel with ``math.fsum``.
"""

from __future__ import annotations

import functools
import math

__all__ = ["bessel_kr", "BesselRangeError"]

_SERIES_MAX_TERMS = 600


class BesselRangeError(ValueError):
    """Arguments outside the supported (nu, r) range."""


def _is_integer(nu: float) -> bool:
    return nu == round(nu)


def _bessel_i(nu: float, r: float) -> float:
    """Ascending series for I_nu(r), r > 0."""
    if nu < 0 and _is_integer(nu):
        nu = -nu  # I_{-n} = I_n
    half = 0.5 * r
    q = half * half
    # leading term (r/2)^nu / Gamma(nu+1); pow keeps (r/2)^nu to an ulp,
    # where exp(nu log(r/2)) loses ~|nu log(r/2)| ulps
    try:
        lead = half ** nu / math.gamma(nu + 1.0)
    except OverflowError:
        return math.inf
    total = lead
    term = lead
    for m in range(1, _SERIES_MAX_TERMS):
        term *= q / (m * (m + nu))
        total += term
        if abs(term) < 1e-18 * abs(total) and m > half:
            break
    return total


def _k_integer_series(n: int, r: float) -> float:
    """DLMF 10.31.2 for integer order, r < 2."""
    n = abs(n)
    half = 0.5 * r
    q = half * half
    lg = math.log(half)
    # finite sum: (1/2)(r/2)^{-n} sum_{k<n} (n-k-1)!/k! (-q)^k
    fin = 0.0
    if n > 0:
        c = math.factorial(n - 1)  # k = 0 term coefficient
        p = 1.0
        for k in range(n):
            fin += c * p
            p *= -q
            if k + 1 < n:
                c = c / ((k + 1) * (n - k - 1))
        fin *= 0.5 * half ** (-n)
    # log term
    logterm = (-1.0) ** (n + 1) * lg * _bessel_i(n, r)
    # psi series
    psi1 = -0.5772156649015328606  # psi(1)
    psik = psi1          # psi(k+1)
    psink = psi1 + sum(1.0 / j for j in range(1, n + 1))  # psi(n+k+1)
    term = 1.0 / math.factorial(n)
    acc = (psik + psink) * term
    for k in range(1, _SERIES_MAX_TERMS):
        term *= q / (k * (n + k))
        psik += 1.0 / k
        psink += 1.0 / (n + k)
        delta = (psik + psink) * term
        acc += delta
        if abs(delta) < 1e-18 * abs(acc):
            break
    series = (-1.0) ** n * 0.5 * half**n * acc
    return fin + logterm + series


@functools.cache
def _gauss_legendre(n: int) -> tuple:
    """``(node, weight)`` of the n-point Gauss-Legendre rule moved to [0, 1],
    nodes ascending: Newton's method on P_n from ``cos(pi (k - 1/4) / (n +
    1/2))``, weights ``2 / ((1 - x^2) P_n'(x)^2)`` halved; built once per n."""
    def legendre(x):  # P_n(x) and P_n'(x) by the three-term recurrence
        p0, p1 = 1.0, x
        for m in range(2, n + 1):
            p0, p1 = p1, ((2 * m - 1) * x * p1 - (m - 1) * p0) / m
        return p1, n * (x * p1 - p0) / (x * x - 1.0)

    rule = []
    for k in range(n, 0, -1):
        x = math.cos(math.pi * (k - 0.25) / (n + 0.5))
        for _ in range(10):  # converged to rounding after 4 or 5 steps at n <= 48
            p, dp = legendre(x)
            x -= p / dp
        dp = legendre(x)[1]
        rule.append((0.5 * (1.0 + x), 1.0 / ((1.0 - x * x) * dp * dp)))
    return tuple(rule)


def _k_quadrature(nu: float, r: float) -> float:
    """Integral representation, effective for r >= ~0.3."""
    nu = abs(nu)
    # choose t_max with exp(-r cosh t + nu t) below 1e-20 * scale
    t = 1.0
    while r * math.cosh(t) - nu * t < r + 60.0 and t < 60.0:
        t += 0.5
    panels = max(8, int(math.ceil(t / 0.75)))
    width, rule = t / panels, _gauss_legendre(48)
    terms = []
    for p in range(panels):
        for s, w in rule:
            ts = (p + s) * width
            # exponent form keeps the integrand finite for large nu*t
            e = -r * math.cosh(ts)
            terms.append(w * (math.exp(e + nu * ts) + math.exp(e - nu * ts)))
    return 0.5 * width * math.fsum(terms)


def _bessel_k(nu: float, r: float) -> float:
    """K_nu(r) for r > 0; K is even in nu."""
    nu = abs(nu)
    if r >= 2.0:
        return _k_quadrature(nu, r)
    if _is_integer(nu):
        return _k_integer_series(int(nu), r)
    return 0.5 * math.pi * (_bessel_i(-nu, r) - _bessel_i(nu, r)) / math.sin(nu * math.pi)


def bessel_kr(nu: float, r: float) -> tuple[float, float]:
    """Return ``(I_nu(r), K_nu(r))`` to 1e-10 relative accuracy.

    Supported range: 0 < r <= 10 and |nu| <= 5.
    """
    if not (0.0 < r <= 10.0):
        raise BesselRangeError(f"r = {r} outside supported range (0, 10]")
    if abs(nu) > 5.0:
        raise BesselRangeError(f"|nu| = {abs(nu)} exceeds supported bound 5")
    return _bessel_i(nu, r), _bessel_k(nu, r)
