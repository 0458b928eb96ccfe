"""Concrete Clifford modules, boundary projectors, and the form dictionary.

Generators are built by the standard recursive tensor construction from
2 x 2 blocks and multiplied by the imaginary unit, so that

    c(e_i) c(e_j) + c(e_j) c(e_i) = -2 delta_ij,    c(e_i)^* = -c(e_i)

hold with exact matrix entries (all entries are 0, +-1 or +-i, so the
floating point products are exact).  The grading is Clifford
multiplication by the volume element ``i^{n/2} c(e_1) ... c(e_n)``.

Geometric modules pass unit normals in; nothing here knows about metrics.
"""

from __future__ import annotations

from dataclasses import dataclass
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
]

_SIGMA_X = np.array([[0.0, 1.0], [1.0, 0.0]], dtype=complex)
_SIGMA_Y = np.array([[0.0, -1.0j], [1.0j, 0.0]], dtype=complex)
_SIGMA_Z = np.array([[1.0, 0.0], [0.0, -1.0]], dtype=complex)


@dataclass(frozen=True)
class CliffordModule:
    """Skew-adjoint generators of Cl(R^n) on a 2^(n/2)-dimensional fiber."""

    n: int
    generators: tuple  # tuple of (2^(n/2), 2^(n/2)) complex ndarrays
    grading: np.ndarray

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


@dataclass(frozen=True)
class BoundaryProjector:
    """Orthogonal projector onto the local boundary condition subspace.

    ``involution`` is Q = (grading (x) grading)(c(nbar) (x) c(n)); the
    projector is (1 - Q)/2 and its image is ker(1 + Q).
    """

    pi: np.ndarray
    involution: np.ndarray
    normal_src: np.ndarray
    normal_dst: np.ndarray

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
