"""Concrete Clifford modules, boundary projectors, and the form dictionary.

Generators are built by the standard recursive tensor construction from
2 x 2 blocks and multiplied by the imaginary unit, so that

    c(e_i) c(e_j) + c(e_j) c(e_i) = -2 delta_ij,    c(e_i)^* = -c(e_i)

hold with exact matrix entries (all entries are 0, +-1 or +-i, so the
floating point products are exact).  The grading is Clifford
multiplication by the volume element ``i^{n/2} c(e_1) ... c(e_n)``.

Geometric modules pass unit normals in; nothing here knows about metrics.
The PSD certificates of the interior and boundary estimates take curvature
operators and Jacobians as plain arrays.
"""

from __future__ import annotations

import math
from itertools import combinations
from typing import Sequence

import numpy as np

__all__ = [
    "CliffordModule",
    "BoundaryProjector",
    "clifford_module",
    "boundary_projector",
    "forms_isomorphism",
    "tangential_subspace",
    "wedge_pairs",
    "wedge_square_map",
    "bianchi_residual",
    "random_curvature_operator",
    "curvature_certificate",
    "boundary_certificate",
    "random_certificates",
]

_SIGMA_X = np.array([[0.0, 1.0], [1.0, 0.0]], dtype=complex)
_SIGMA_Y = np.array([[0.0, -1.0j], [1.0j, 0.0]], dtype=complex)
_SIGMA_Z = np.array([[1.0, 0.0], [0.0, -1.0]], dtype=complex)


class CliffordModule:
    """Skew-adjoint generators of Cl(R^n) on a 2^(n/2)-dimensional fiber, a
    tuple of (2^(n/2), 2^(n/2)) complex ndarrays, and the grading."""

    __slots__ = ("n", "generators", "grading")
    def __init__(self, n: int, generators: tuple, grading: np.ndarray):
        self.n, self.generators, self.grading = n, generators, grading

    @property
    def fiber_dim(self) -> int:
        return 2 ** (self.n // 2)

    def c(self, v: Sequence[float]) -> np.ndarray:
        """Clifford action of the vector ``v`` (components in the ONB)."""
        v = np.asarray(v, dtype=float)
        if v.shape != (self.n,):
            raise ValueError(f"vector must have {self.n} components")
        out = np.zeros((self.fiber_dim, self.fiber_dim), dtype=complex)
        for vi, ci in zip(v, self.generators):
            if vi != 0.0:
                out += vi * ci
        return out

    def c_product(self, indices: Sequence[int]) -> np.ndarray:
        """c(e_{i1}) ... c(e_{ik}) for 0-based ``indices`` (empty = identity)."""
        out = np.eye(self.fiber_dim, dtype=complex)
        for i in indices:
            out = out @ self.generators[i]
        return out


def _gamma_matrices(n: int) -> list[np.ndarray]:
    """Hermitian gammas with {g_i, g_j} = +2 delta_ij, recursive in pairs."""
    if n == 2:
        return [_SIGMA_X, _SIGMA_Y]
    prev = _gamma_matrices(n - 2)
    gammas = [np.kron(g, _SIGMA_Z) for g in prev]
    eye = np.eye(2 ** (n // 2 - 1), dtype=complex)
    gammas.append(np.kron(eye, _SIGMA_X))
    gammas.append(np.kron(eye, _SIGMA_Y))
    return gammas


def clifford_module(n: int) -> CliffordModule:
    """Concrete Clifford module for even ``n <= 8``."""
    if n % 2 != 0 or n < 2:
        raise ValueError(
            f"n = {n}: only even dimensions carry this module; odd n is "
            "handled by taking a product with an interval first"
        )
    if n > 8:
        raise ValueError(f"n = {n} exceeds the supported bound 8")
    gens = tuple(1j * g for g in _gamma_matrices(n))
    vol = np.eye(2 ** (n // 2), dtype=complex)
    for g in gens:
        vol = vol @ g
    grading = (1j ** (n // 2)) * vol
    mod = CliffordModule(n, gens, grading)
    _check_module(mod)
    return mod


def _check_module(mod: CliffordModule, tol: float = 1e-12) -> None:
    n, eye = mod.n, np.eye(mod.fiber_dim)
    for i, ci in enumerate(mod.generators):
        if np.abs(ci + ci.conj().T).max() > tol:
            raise AssertionError(f"generator {i} is not skew-adjoint")
        for j, cj in enumerate(mod.generators):
            anti = ci @ cj + cj @ ci
            target = -2.0 * eye if i == j else 0.0
            if np.abs(anti - target).max() > tol:
                raise AssertionError(f"bad Clifford relation ({i}, {j})")
    eps = mod.grading
    if np.abs(eps @ eps - eye).max() > tol:
        raise AssertionError("grading is not an involution")
    if np.abs(eps - eps.conj().T).max() > tol:
        raise AssertionError("grading is not self-adjoint")
    for i, ci in enumerate(mod.generators):
        if np.abs(eps @ ci + ci @ eps).max() > tol:
            raise AssertionError(f"grading fails to anticommute with c(e_{i})")
    signs = np.diagonal(eps)  # the certificates split S into S+ and S- by these
    if np.any(eps != np.diag(signs)) or np.any(abs(signs) != 1) or signs.sum() != 0:
        raise AssertionError("grading is not diagonal with half its entries +1, half -1")


class BoundaryProjector:
    """Orthogonal projector onto the local boundary condition subspace.

    ``involution`` is Q = (grading (x) grading)(c(nbar) (x) c(n)); the
    projector is (1 - Q)/2 and its image is ker(1 + Q).
    """

    __slots__ = ("pi", "involution", "normal_src", "normal_dst")
    def __init__(self, pi: np.ndarray, involution: np.ndarray, normal_src: np.ndarray,
                 normal_dst: np.ndarray):
        self.pi, self.involution = pi, involution
        self.normal_src, self.normal_dst = normal_src, normal_dst

    @property
    def rank(self) -> int:
        return int(round(np.real(np.trace(self.pi))))


def boundary_projector(
    source: CliffordModule,
    target: CliffordModule,
    normal_src: Sequence[float],
    normal_dst: Sequence[float],
    tol: float = 1e-12,
) -> BoundaryProjector:
    """Projector onto ker(1 + (eps (x) eps)(c(nbar) (x) c(n))) on the tensor fiber."""
    nbar = np.asarray(normal_src, dtype=float)
    nvec = np.asarray(normal_dst, dtype=float)
    if abs(np.linalg.norm(nbar) - 1.0) > 1e-10 or abs(np.linalg.norm(nvec) - 1.0) > 1e-10:
        raise ValueError("normals must be unit vectors")
    q = np.kron(source.grading @ source.c(nbar), target.grading @ target.c(nvec))
    dim = q.shape[0]
    if np.abs(q @ q - np.eye(dim)).max() > tol:
        raise AssertionError("boundary involution fails Q^2 = 1")
    pi = 0.5 * (np.eye(dim) - q)
    return BoundaryProjector(pi, q, nbar, nvec)


# ---------------------------------------------------------------------------
# Clifford algebra <-> endomorphisms of the spinor fiber
# ---------------------------------------------------------------------------


def _form_basis(n: int) -> list[tuple[int, ...]]:
    """Index sets of the 2^n Clifford/exterior basis monomials, degree order."""
    out: list[tuple[int, ...]] = []
    for k in range(n + 1):
        out.extend(combinations(range(n), k))
    return out


def forms_isomorphism(n: int) -> tuple[np.ndarray, list[tuple[int, ...]]]:
    """Matrix of Cl(R^n) -> fiber of S (x) S on a basis of monomials.

    Columns are indexed by the returned monomial list (degree order);
    column I is the flattened matrix c(e_I) T, where the twist
    T = c(e_1) c(e_n) is the unique algebraic choice (up to scale) that
    commutes with the grading and anticommutes with c(e_n).  With it the
    even/odd monomial degree matches the (grading (x) grading) bi-grading
    and the tangential monomials (n not in I) span the image of the
    boundary projector for normals e_n on both factors.
    """
    if n % 2 != 0 or not (2 <= n <= 6):
        raise ValueError(f"n = {n}: supported even dimensions are 2, 4, 6")
    mod = clifford_module(n)
    twist = mod.generators[0] @ mod.generators[n - 1]
    basis = _form_basis(n)
    cols = [(mod.c_product(idx) @ twist).reshape(-1) for idx in basis]
    phi = np.stack(cols, axis=1)
    return phi, basis


def tangential_subspace(n: int) -> np.ndarray:
    """Image under the forms isomorphism of the monomials tangential to
    the boundary with inner normal e_n (orthonormal columns)."""
    phi, basis = forms_isomorphism(n)
    cols = [phi[:, k] for k, idx in enumerate(basis) if (n - 1) not in idx]
    qmat, _ = np.linalg.qr(np.stack(cols, axis=1))
    return qmat


# ---------------------------------------------------------------------------
# Wedge bases and PSD certificates
# ---------------------------------------------------------------------------

_TRIAL_CHUNK = 64  # trials per stack: a (64, 64, 64) complex block is 4 MB at n = 8


def wedge_pairs(n: int) -> list[tuple[int, int]]:
    return [(i, j) for i in range(n) for j in range(i + 1, n)]


def wedge_square_map(jac: np.ndarray) -> np.ndarray:
    """Matrix of Lambda^2 J on the ordered wedge bases (rows: target pairs),
    over any leading stack axes of ``jac``."""
    jac = np.asarray(jac, dtype=float)
    a, b = (k[:, None] for k in np.triu_indices(jac.shape[-2], 1))  # wedge_pairs order
    c, d = np.triu_indices(jac.shape[-1], 1)
    return jac[..., a, c] * jac[..., b, d] - jac[..., a, d] * jac[..., b, c]


def _check_psd(mats: np.ndarray, name: str, tol: float = 1e-10) -> None:
    """Raise unless every matrix of the stack ``mats`` is symmetric PSD."""
    if np.abs(mats - np.swapaxes(mats, -1, -2)).max() > 1e-9:
        raise ValueError(f"{name} must be a symmetric matrix")
    if np.linalg.eigvalsh(mats)[..., 0].min() < -tol:
        raise ValueError(f"{name} is not positive semidefinite")


def bianchi_residual(rop: np.ndarray, n: int) -> float | np.ndarray:
    """Largest first-Bianchi violation of a symmetric operator on Lambda^2,
    over any leading stack axes of ``rop``.

    A symmetric matrix on 2-vectors is an algebraic curvature operator only
    if the total antisymmetrization of the associated 4-tensor vanishes;
    for arbitrary positive matrices it does not, and the interior estimate
    genuinely fails for such data.
    """
    rop = np.asarray(rop, dtype=float)
    index = np.zeros((n, n), dtype=int)
    index[np.triu_indices(n, 1)] = np.arange(n * (n - 1) // 2)  # wedge_pairs order
    # for i < j < k < l every pair below is already ordered
    i, j, k, l = np.array(list(combinations(range(n), 4)), dtype=int).reshape(-1, 4).T
    return np.abs(rop[..., index[i, j], index[k, l]] - rop[..., index[i, k], index[j, l]]
                  + rop[..., index[i, l], index[j, k]]).max(axis=-1, initial=0.0)


def random_curvature_operator(n: int, rng: np.random.Generator,
                              terms: int | None = None) -> np.ndarray:
    """Random PSD operator on Lambda^2 R^n satisfying the Bianchi identity.

    Built as a sum of squares of decomposable 2-vectors u ^ v; every such
    sum is a valid algebraic curvature operator (the square of a
    decomposable 2-vector has vanishing wedge with itself).  The ``terms``
    pairs (u, v) come from one ``(terms, 2, n)`` normal draw.
    """
    if terms is None:
        terms = n * (n - 1) // 2 + 2
    return _sum_of_squares(rng.normal(size=(terms, 2, n)))


def _sum_of_squares(uv: np.ndarray) -> np.ndarray:
    """``sum_t (u_t ^ v_t) (u_t ^ v_t)^T`` over ``uv[..., t, :, :] = (u_t, v_t)``."""
    a, b = np.triu_indices(uv.shape[-1], 1)  # wedge_pairs order
    w = uv[..., 0, a] * uv[..., 1, b] - uv[..., 0, b] * uv[..., 1, a]
    rop = np.zeros(w.shape[:-2] + (len(a), len(a)))
    for t in range(w.shape[-2]):
        rop += w[..., t, :, None] * w[..., t, None, :]
    return rop


def _graded_actions(module: CliffordModule, pairs) -> list:
    """The 2-vector actions c(e_a) c(e_b) over ``pairs`` on S+ and on S-."""
    acts = np.array([module.generators[a] @ module.generators[b] for a, b in pairs])
    signs = np.diagonal(module.grading).real
    return [acts[:, half][:, :, half] for half in (signs > 0, signs < 0)]


def _twisted_min_eigs(coeff: np.ndarray, shift: np.ndarray, target: CliffordModule,
                      target_pairs, source: CliffordModule, source_pairs) -> np.ndarray:
    """Minimum eigenvalues of ``shift Id - 1/2 sum_pq coeff[p, q] cbar_q (x) c_p``
    over a stack of trials (the leading axis of ``coeff`` and ``shift``).

    ``c_p`` and ``cbar_q`` are the target / source actions over the pairs.
    They are even, so they commute with the (diagonal, +-1) gradings: the
    endomorphism keeps the 4 tensor products of half-spin spaces.  Each
    block is contracted from the graded halves of the actions, over q, then
    over p into the Kronecker layout, and diagonalized on its own.
    """
    low = np.full(len(coeff), np.inf)
    a, b = source.fiber_dim // 2, target.fiber_dim // 2
    target_halves = _graded_actions(target, target_pairs)
    for src in _graded_actions(source, source_pairs):
        half = (-0.5 * coeff) @ src.reshape(len(src), -1)
        for tgt in target_halves:
            block = (np.swapaxes(half, 1, 2) @ tgt.reshape(len(tgt), -1)).reshape(
                -1, a, a, b, b).transpose(0, 1, 3, 2, 4).reshape(-1, a * b, a * b)
            block += shift[:, None, None] * np.eye(a * b)
            low = np.minimum(low, np.linalg.eigvalsh(block)[:, 0])
    return low


def _curvature_min_eigs(rops: np.ndarray, jacs: np.ndarray,
                        source: CliffordModule, target: CliffordModule) -> np.ndarray:
    """``curvature_certificate`` over stacks of operators and Jacobians."""
    rops, jacs = np.asarray(rops, dtype=float), np.asarray(jacs, dtype=float)
    m, n = jacs.shape[1:]
    if source.n != n or target.n != m:
        raise ValueError("Clifford module dimensions do not match the Jacobian")
    pairs_m = wedge_pairs(m)
    if rops.shape[1:] != (len(pairs_m), len(pairs_m)):
        raise ValueError("curvature operator has wrong wedge dimension")
    _check_psd(rops, "curvature operator")
    scale = np.maximum(1.0, np.abs(rops).max(axis=(1, 2)))
    if np.any(bianchi_residual(rops, m) > 1e-8 * scale):
        raise ValueError(
            "operator violates the first Bianchi identity; it is not an "
            "algebraic curvature operator and the interior estimate does "
            "not apply"
        )
    coeff = rops @ wedge_square_map(jacs)  # [target pair, source pair]
    sv = np.linalg.svd(jacs, compute_uv=False)
    shift = sv[:, 0] * sv[:, 1] * (2.0 * np.trace(rops, axis1=1, axis2=2)) / 4.0
    return _twisted_min_eigs(coeff, shift, target, pairs_m, source, wedge_pairs(n))


def _boundary_min_eigs(amats: np.ndarray, jacs: np.ndarray,
                       source: CliffordModule, target: CliffordModule) -> np.ndarray:
    """``boundary_certificate`` over stacks of forms and Jacobians."""
    amats, jacs = np.asarray(amats, dtype=float), np.asarray(jacs, dtype=float)
    n, m = source.n, target.n
    if jacs.shape[1:] != (m - 1, n - 1):
        raise ValueError("boundary Jacobian must map face tangents to face tangents")
    if amats.shape[1:] != (m - 1, m - 1):
        raise ValueError("second fundamental form has wrong size")
    _check_psd(amats, "second fundamental form")
    coeff = np.swapaxes(amats, 1, 2) @ jacs  # [mu, lambda] = A(f_* ebar_lam, e_mu)
    df_norm = np.linalg.svd(jacs, compute_uv=False)[:, 0]
    shift = df_norm * np.trace(amats, axis1=1, axis2=2) / 2.0
    return _twisted_min_eigs(coeff, shift, target, [(m - 1, mu) for mu in range(m - 1)],
                             source, [(n - 1, lam) for lam in range(n - 1)])


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
    return float(_curvature_min_eigs([rop], [jac], source, target)[0])


def boundary_certificate(
    amat: np.ndarray,
    boundary_jac: np.ndarray,
    source: CliffordModule,
    target: CliffordModule,
) -> float:
    """Minimum eigenvalue of E_boundary + |df| (tr A / 2) Id, with ``amat``
    the second fundamental form A.

    The boundary Clifford actions are ``cbar(e_n) cbar(e_lam)`` and
    ``c(e_n) c(e_mu)`` with the last basis vector playing the inner normal
    on both sides; tangential indices run over the first n-1 / m-1 axes.
    """
    return float(_boundary_min_eigs([amat], [boundary_jac], source, target)[0])


def random_certificates(n: int, trials: int,
                        rng: np.random.Generator) -> tuple[float, float]:
    """Worst curvature and boundary certificates of ``trials`` random trials
    on the dimension-n module (source and target alike).

    A trial draws a random curvature operator, an n x n Jacobian, a factor L
    of A = L^T L and an (n-1) x (n-1) boundary Jacobian, in this order; one
    draw per stack of ``_TRIAL_CHUNK`` trials consumes ``rng`` identically.
    """
    module = clifford_module(n)
    terms = n * (n - 1) // 2 + 2
    cuts = np.cumsum([2 * n * terms, n * n, (n - 1) ** 2, (n - 1) ** 2])
    worst_c = worst_b = math.inf
    for done in range(0, trials, _TRIAL_CHUNK):
        draws = rng.normal(size=(min(_TRIAL_CHUNK, trials - done), cuts[-1]))
        uv, jac, ell, jac_b = np.split(draws, cuts[:-1], axis=1)
        rops = _sum_of_squares(uv.reshape(-1, terms, 2, n))
        worst_c = min(worst_c, _curvature_min_eigs(
            rops, jac.reshape(-1, n, n), module, module).min())
        ell = ell.reshape(-1, n - 1, n - 1)
        worst_b = min(worst_b, _boundary_min_eigs(
            np.swapaxes(ell, 1, 2) @ ell, jac_b.reshape(-1, n - 1, n - 1),
            module, module).min())
    return float(worst_c), float(worst_b)
