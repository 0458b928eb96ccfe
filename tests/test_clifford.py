import numpy as np
import pytest

from dihedral_lab.clifford import (
    CliffordModule,
    _check_module,
    boundary_projector,
    clifford_module,
    forms_isomorphism,
    tangential_subspace,
)

EVEN_DIMS = [2, 4, 6]
TOL = 1e-12


def subspace_contains(basis: np.ndarray, vec: np.ndarray, tol: float) -> bool:
    """Is vec in the column span of the orthonormal basis, to tolerance?"""
    resid = vec - basis @ (basis.conj().T @ vec)
    return np.linalg.norm(resid) <= tol * max(1.0, np.linalg.norm(vec))


class TestModule:
    @pytest.mark.parametrize("n", EVEN_DIMS + [8])
    def test_relations_exact(self, n):
        mod = clifford_module(n)
        eye = np.eye(mod.fiber_dim)
        for i, ci in enumerate(mod.generators):
            assert np.abs(ci + ci.conj().T).max() <= TOL
            for j, cj in enumerate(mod.generators):
                target = -2.0 * eye if i == j else np.zeros_like(eye)
                assert np.abs(ci @ cj + cj @ ci - target).max() <= TOL

    @pytest.mark.parametrize("n", EVEN_DIMS + [8])
    def test_grading(self, n):
        mod = clifford_module(n)
        eps = mod.grading
        assert np.abs(eps @ eps - np.eye(mod.fiber_dim)).max() <= TOL
        for ci in mod.generators:
            assert np.abs(eps @ ci + ci @ eps).max() <= TOL
        # grading is i^{n/2} c(e_1)...c(e_n) by construction
        vol = mod.c_product(range(n))
        assert np.abs(eps - (1j ** (n // 2)) * vol).max() <= TOL

    @pytest.mark.parametrize("n", EVEN_DIMS + [8])
    def test_grading_is_diagonal_and_balanced(self, n):
        mod = clifford_module(n)
        signs, half = np.diagonal(mod.grading), mod.fiber_dim // 2
        assert np.array_equal(mod.grading, np.diag(signs))
        assert sorted(signs.real) == [-1.0] * half + [1.0] * half

    def test_check_module_rejects_non_diagonal_grading(self):
        # a unitary change of basis keeps every relation but the diagonal grading
        mod = clifford_module(4)
        u = np.linalg.qr(np.random.default_rng(0).normal(size=(4, 4)))[0]
        moved = CliffordModule(4, tuple(u @ g @ u.T for g in mod.generators),
                               u @ mod.grading @ u.T)
        with pytest.raises(AssertionError, match="not diagonal"):
            _check_module(moved)

    def test_sizes(self):
        assert clifford_module(2).fiber_dim == 2
        assert clifford_module(4).fiber_dim == 4
        assert clifford_module(6).fiber_dim == 8

    def test_odd_dimension_rejected(self):
        with pytest.raises(ValueError):
            clifford_module(3)

    def test_too_large_rejected(self):
        with pytest.raises(ValueError):
            clifford_module(10)

    def test_vector_action(self):
        mod = clifford_module(2)
        v = np.array([0.6, 0.8])
        cv = mod.c(v)
        # unit vector: c(v)^2 = -1
        assert np.abs(cv @ cv + np.eye(2)).max() <= TOL


class TestBoundaryProjector:
    @pytest.mark.parametrize("n", EVEN_DIMS)
    def test_idempotent_selfadjoint_halfrank(self, n):
        s = clifford_module(n)
        e_n = np.zeros(n)
        e_n[-1] = 1.0
        proj = boundary_projector(s, s, e_n, e_n)
        pi = proj.pi
        dim = pi.shape[0]
        assert np.abs(pi @ pi - pi).max() <= TOL
        assert np.abs(pi - pi.conj().T).max() <= TOL
        assert proj.rank == dim // 2

    def test_rank2_on_4dim_fiber(self):
        s = clifford_module(2)
        proj = boundary_projector(s, s, (0.0, 1.0), (0.0, 1.0))
        assert proj.pi.shape == (4, 4)
        assert proj.rank == 2

    @pytest.mark.parametrize("n", EVEN_DIMS)
    def test_involution_squares_to_identity(self, n):
        s = clifford_module(n)
        e_n = np.zeros(n)
        e_n[-1] = 1.0
        q = boundary_projector(s, s, e_n, e_n).involution
        assert np.abs(q @ q - np.eye(q.shape[0])).max() <= TOL

    @pytest.mark.parametrize("n", EVEN_DIMS)
    def test_normal_action_maps_image_to_complement(self, n):
        # symmetry algebra: u in image => c(nbar) (x) 1 u is orthogonal to image
        s = clifford_module(n)
        e_n = np.zeros(n)
        e_n[-1] = 1.0
        proj = boundary_projector(s, s, e_n, e_n)
        cn = np.kron(s.c(e_n), np.eye(s.fiber_dim))
        moved = cn @ proj.pi
        assert np.abs(proj.pi @ moved).max() <= TOL

    @pytest.mark.parametrize("n", EVEN_DIMS)
    def test_projected_boundary_action_vanishes(self, n):
        # Pi c(nbar)c(tangent) (x) 1 Pi = 0, exactly, for every tangential direction
        s = clifford_module(n)
        e_n = np.zeros(n)
        e_n[-1] = 1.0
        proj = boundary_projector(s, s, e_n, e_n)
        eye = np.eye(s.fiber_dim)
        for lam in range(n - 1):
            cpartial = np.kron(s.generators[n - 1] @ s.generators[lam], eye)
            q = proj.involution
            assert np.abs(q @ cpartial + cpartial @ q).max() <= TOL
            assert np.abs(proj.pi @ cpartial @ proj.pi).max() <= TOL

    def test_tilted_normals(self):
        s = clifford_module(4)
        nbar = np.array([0.5, 0.5, 0.5, 0.5])
        nvec = np.array([0.0, 0.6, 0.0, 0.8])
        proj = boundary_projector(s, s, nbar, nvec)
        assert proj.rank == proj.pi.shape[0] // 2
        assert np.abs(proj.pi @ proj.pi - proj.pi).max() <= TOL

    def test_non_unit_normal_rejected(self):
        s = clifford_module(2)
        with pytest.raises(ValueError):
            boundary_projector(s, s, (1.0, 1.0), (0.0, 1.0))


class TestFormsIsomorphism:
    @pytest.mark.parametrize("n", [2, 4, 6])
    def test_invertible(self, n):
        phi, basis = forms_isomorphism(n)
        assert phi.shape == (2**n, 2**n)
        assert len(basis) == 2**n
        sv = np.linalg.svd(phi, compute_uv=False)
        assert sv[-1] > 1e-10

    @pytest.mark.parametrize("n", [2, 4, 6])
    def test_grading_correspondence(self, n):
        # even/odd monomials are +-1 eigenvectors of the bi-grading diagonal
        mod = clifford_module(n)
        phi, basis = forms_isomorphism(n)
        bigrading = np.kron(mod.grading, mod.grading)
        for k, idx in enumerate(basis):
            sign = 1.0 if len(idx) % 2 == 0 else -1.0
            assert np.abs(bigrading @ phi[:, k] - sign * phi[:, k]).max() <= 1e-12

    @pytest.mark.parametrize("n", [2, 4])
    def test_tangential_monomials_hit_projector_image(self, n):
        mod = clifford_module(n)
        e_n = np.zeros(n)
        e_n[-1] = 1.0
        proj = boundary_projector(mod, mod, e_n, e_n)
        phi, basis = forms_isomorphism(n)
        for k, idx in enumerate(basis):
            col = phi[:, k]
            projected = proj.pi @ col
            if (n - 1) not in idx:  # tangential monomial -> inside the image
                assert np.linalg.norm(projected - col) <= 1e-10 * np.linalg.norm(col)
            else:  # normal-containing monomial -> in the complement
                assert np.linalg.norm(projected) <= 1e-10 * np.linalg.norm(col)

    def test_dimension_match_n2(self):
        # dim image(Pi) = 2 = fiber dimension of forms on the boundary line
        mod = clifford_module(2)
        proj = boundary_projector(mod, mod, (0.0, 1.0), (0.0, 1.0))
        assert proj.rank == 2
        assert tangential_subspace(2).shape == (4, 2)

    @pytest.mark.parametrize("n", [2, 4])
    def test_subspace_equality_brute_force(self, n):
        # compare the two subspaces through orthonormal bases
        mod = clifford_module(n)
        e_n = np.zeros(n)
        e_n[-1] = 1.0
        proj = boundary_projector(mod, mod, e_n, e_n)
        tang = tangential_subspace(n)
        assert tang.shape[1] == 2 ** (n - 1)
        # every basis vector of the projector image lies in the tangential span
        eigval, eigvec = np.linalg.eigh(proj.involution)
        image = eigvec[:, eigval < 0]  # Q = -1 eigenspace
        assert image.shape[1] == tang.shape[1]
        for k in range(image.shape[1]):
            assert subspace_contains(tang, image[:, k], 1e-10)

    def test_odd_or_large_rejected(self):
        with pytest.raises(ValueError):
            forms_isomorphism(3)
        with pytest.raises(ValueError):
            forms_isomorphism(8)
