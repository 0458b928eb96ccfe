"""Acceptance suite: one test (and one printed pass/fail line) per criterion.

Run with ``pytest -s tests/test_acceptance.py`` to see the lines as the
criteria execute; tolerances are pinned here and nowhere else.
"""

import math
import time
from contextlib import contextmanager

import numpy as np
import pytest

from _oracles import dec_complex, harmonic_dims
from dihedral_lab.bessel import bessel_kr
from dihedral_lab.clifford import (
    boundary_certificate,
    boundary_projector,
    clifford_module,
    curvature_certificate,
    forms_isomorphism,
    random_curvature_operator,
    tangential_subspace,
)
from dihedral_lab.curvature import conformal_identities
from dihedral_lab.corner_smoothing import (
    mean_curvature_limit,
    smoothing_arc,
    turning_integral,
)
from dihedral_lab.curvature import (
    PolyDomain,
    curvature_tensors,
    gauss_bonnet_defect,
)
from dihedral_lab.expressions import euclidean_metric, parse_metric
from dihedral_lab.index_lab import index_experiment
from dihedral_lab.sector_spectra import (
    SectorPair,
    deficiency_test,
    esa_verdict,
    esa_verdict_mixed,
    gallot_meyer_bound,
    hardy_norm,
    p_spectrum_closed,
    p_spectrum_numeric,
)

ANGLE_SET = (math.pi / 3, math.pi / 2, 2 * math.pi / 3, math.pi)


@contextmanager
def criterion(number: int, label: str):
    try:
        yield
    except BaseException:
        print(f"[criterion {number:2d}] FAIL  {label}")
        raise
    print(f"[criterion {number:2d}] PASS  {label}")


def sphere_metric(n):
    r2 = "+".join(f"x{i}^2" for i in range(1, n + 1))
    expr = f"4/(1+{r2})^2"
    return parse_metric({f"{i}{i}": expr for i in range(1, n + 1)}, n)


def unit_square_domain():
    return PolyDomain.from_halfspaces([
        ((1.0, 0.0), 0.0), ((-1.0, 0.0), -1.0),
        ((0.0, 1.0), 0.0), ((0.0, -1.0), -1.0),
    ])


def test_criterion_01_sector_spectrum_reproduction():
    with criterion(1, "sector spectra: numeric matches the closed lattice, "
                      "second-order convergence, < 30 s"):
        start = time.perf_counter()
        for alpha in ANGLE_SET:
            for beta in ANGLE_SET:
                pair = SectorPair(alpha, beta)
                closed = p_spectrum_closed(pair, range(-12, 13)).eigenvalues

                def max_err(grid):
                    rep = p_spectrum_numeric(pair, grid=grid, count=5)
                    return max(min(abs(v - c) for c in closed)
                               for v in rep.eigenvalues)

                err_fine = max_err(4096)
                assert err_fine <= 1e-3
                ratio = max_err(2048) / err_fine
                assert 3.5 <= ratio <= 4.5
        assert time.perf_counter() - start < 30.0


def test_criterion_02_esa_truth_table():
    with criterion(2, "ESA truth table on the 20 x 20 angle grid, "
                      "mixed variant flips at pi/2"):
        disagreements = 0
        for i in range(1, 21):
            for j in range(1, 21):
                alpha = (i / 20) * math.pi
                beta = (j / 20) * math.pi
                verdict, _ = esa_verdict(SectorPair(alpha, beta))
                closed = p_spectrum_closed(SectorPair(alpha, beta))
                agree = (verdict == (alpha <= beta)
                         == (closed.min_abs >= 0.5) == closed.esa)
                disagreements += 0 if agree else 1
        assert disagreements == 0
        half_pi = math.pi / 2
        for i in range(1, 21):
            alpha = half_pi * (i / 10)
            assert esa_verdict_mixed(alpha)[0] == (i <= 10)


def test_criterion_03_bessel_deficiency():
    with criterion(3, "deficiency verdicts match |lambda| < 1/2; half-integer "
                      "closed forms to 1e-10 relative"):
        for lam in (0.0, 0.25, -0.25, 0.49, -0.49, 0.5, -0.5,
                    0.75, -0.75, 1.0, -1.0):
            assert deficiency_test(lam).is_l2 == (abs(lam) < 0.5)
        for r in (0.25, 0.5, 1.0, 2.0, 4.0, 8.0):
            i_half, k_half = bessel_kr(0.5, r)
            assert k_half == pytest.approx(
                math.sqrt(math.pi / (2 * r)) * math.exp(-r), rel=1e-10)
            assert i_half == pytest.approx(
                math.sqrt(2 / (math.pi * r)) * math.sinh(r), rel=1e-10)
            _, k_three = bessel_kr(1.5, r)
            assert k_three == pytest.approx(
                math.sqrt(math.pi / (2 * r)) * math.exp(-r) * (1 + 1 / r),
                rel=1e-10)


def test_criterion_04_clifford_algebra():
    with criterion(4, "Clifford relations, projectors and the tangential-form "
                      "dictionary at 1e-12 / 1e-10"):
        for n in (2, 4, 6):
            mod = clifford_module(n)
            eye = np.eye(mod.fiber_dim)
            for i, ci in enumerate(mod.generators):
                assert np.abs(ci + ci.conj().T).max() <= 1e-12
                for j, cj in enumerate(mod.generators):
                    target = -2.0 * eye if i == j else 0.0
                    assert np.abs(ci @ cj + cj @ ci - target).max() <= 1e-12
                assert np.abs(mod.grading @ ci + ci @ mod.grading).max() <= 1e-12
            assert np.abs(mod.grading @ mod.grading - eye).max() <= 1e-12
            normal = np.zeros(n)
            normal[-1] = 1.0
            proj = boundary_projector(mod, mod, normal, normal)
            assert np.abs(proj.pi @ proj.pi - proj.pi).max() <= 1e-12
            assert proj.rank == proj.pi.shape[0] // 2
            cn = np.kron(mod.c(normal), np.eye(mod.fiber_dim))
            assert np.abs(proj.pi @ cn @ proj.pi).max() <= 1e-12
            for lam in range(n - 1):
                cpart = np.kron(mod.generators[n - 1] @ mod.generators[lam],
                                np.eye(mod.fiber_dim))
                assert np.abs(proj.involution @ cpart
                              + cpart @ proj.involution).max() <= 1e-12
                assert np.abs(proj.pi @ cpart @ proj.pi).max() <= 1e-12
        for n in (2, 4):
            mod = clifford_module(n)
            normal = np.zeros(n)
            normal[-1] = 1.0
            proj = boundary_projector(mod, mod, normal, normal)
            phi, basis = forms_isomorphism(n)
            for k, idx in enumerate(basis):
                col = phi[:, k]
                projected = proj.pi @ col
                if (n - 1) not in idx:
                    assert np.linalg.norm(projected - col) <= 1e-10 * np.linalg.norm(col)
                else:
                    assert np.linalg.norm(projected) <= 1e-10 * np.linalg.norm(col)
            assert tangential_subspace(n).shape[1] == proj.rank


def test_criterion_05_certificates():
    with criterion(5, "1000 randomized PSD certificate trials at n = 2 and 4, "
                      "min eigenvalue >= -1e-9, < 60 s"):
        start = time.perf_counter()
        for n in (2, 4):
            mod = clifford_module(n)
            rng = np.random.default_rng(20240600 + n)
            for _ in range(1000):
                rop = random_curvature_operator(n, rng)
                jac = rng.normal(size=(n, n))
                assert curvature_certificate(rop, jac, mod, mod) >= -1e-9
                ell = rng.normal(size=(n - 1, n - 1))
                amat = ell.T @ ell
                jac_b = rng.normal(size=(n - 1, n - 1))
                assert boundary_certificate(amat, jac_b, mod, mod) >= -1e-9
        assert time.perf_counter() - start < 60.0


def test_criterion_06_curvature_engine():
    with criterion(6, "sphere charts reproduce Sc = n(n-1) at 2e-13, conformal "
                      "Gauss-Bonnet at 3e-9, flat cases at 1e-13"):
        assert abs(curvature_tensors(sphere_metric(2), (0.3, -0.2)).scalar
                   - 2.0) <= 1e-13
        assert abs(curvature_tensors(sphere_metric(3), (0.1, 0.2, -0.1)).scalar
                   - 6.0) <= 2e-13
        flat = curvature_tensors(euclidean_metric(3), (0.4, -0.7, 0.2))
        assert abs(flat.scalar) <= 1e-13
        assert np.abs(flat.riemann).max() <= 1e-13
        square = unit_square_domain()
        assert abs(gauss_bonnet_defect(euclidean_metric(2), square,
                                       resolution=2)) <= 1e-13
        conf = parse_metric({
            "11": "exp(2*0.1*sin(x1)*sin(x2))",
            "22": "exp(2*0.1*sin(x1)*sin(x2))",
        }, 2)
        assert abs(gauss_bonnet_defect(conf, square, resolution=12)) <= 3e-9


def test_criterion_07_corner_smoothing():
    with criterion(7, "turning integrals hit pi - angle at 1e-8 and the "
                      "distributional limit converges at first order"):
        for angle in (math.pi / 3, math.pi / 2, 2 * math.pi / 3,
                      1.5 * math.pi):
            value = turning_integral(smoothing_arc(angle, 0.05))
            assert abs(value - (math.pi - angle)) <= 1e-8
        radii = (0.1, 0.05, 0.025)
        values = mean_curvature_limit(math.pi / 2, "1 + x1", radii)
        target = math.pi / 2
        errors = [abs(v - target) for v in values]
        for e0, e1 in zip(errors, errors[1:]):
            assert 1.5 <= e0 / e1 <= 2.5


def test_criterion_08_index_experiment():
    with criterion(8, "square identity scene: harmonic dims (1,0,0), index "
                      "1 = chi x deg; two components give 2; < 5 s"):
        start = time.perf_counter()
        assert harmonic_dims(dec_complex({"type": "square"}, 8)) == (1, 0, 0)
        one = index_experiment({
            "resolution": 8,
            "M": {"type": "square"},
            "N": [{"polygon": {"type": "square"},
                   "map": {"matrix": [[1.0, 0.0], [0.0, 1.0]],
                           "offset": [0.0, 0.0]}}],
        })
        assert (one["b0"], one["b1"], one["b2"]) == (1, 0, 0)
        assert one["index"] == 1 == one["chi"] * one["deg"]
        assert one["match"] is True
        two = index_experiment({
            "resolution": 8,
            "M": {"type": "square"},
            "N": [{"polygon": {"type": "square"},
                   "map": {"matrix": [[1.0, 0.0], [0.0, 1.0]],
                           "offset": [0.0, 0.0]}},
                  {"polygon": {"type": "square"},
                   "map": {"matrix": [[1.0, 0.0], [0.0, 1.0]],
                           "offset": [0.0, 0.0]}}],
        })
        assert two["index"] == 2
        assert two["match"] is True
        assert time.perf_counter() - start < 5.0


def test_criterion_09_hardy_operator():
    with criterion(9, "Hardy kernel norms below 1.01 x the analytic bound"):
        for lam in (0.6, 1.0, 2.0):
            numeric, bound = hardy_norm(lam)
            assert bound == pytest.approx(1.0 / (abs(lam) - 0.5))
            assert numeric <= 1.01 * bound


def test_criterion_10_conformal_identities():
    with criterion(10, "conformal identity residuals at 1e-13 for nonconstant "
                       "and constant factors"):
        flat3 = euclidean_metric(3)
        out = conformal_identities(flat3, "1 + 0.1*sin(x1)", (0.4, 0.2, -0.5))
        assert abs(out["scalar"]) <= 1e-13
        out_const = conformal_identities(flat3, "2.0", (0.2, -0.1, 0.3))
        assert abs(out_const["scalar"]) <= 1e-13
        square = unit_square_domain()
        out_face = conformal_identities(euclidean_metric(2), "1.5",
                                        (0.0, 0.5), domain=square, face=0)
        assert abs(out_face["mean_curvature"]) <= 1e-13


def test_criterion_11_gallot_meyer():
    with criterion(11, "link bounds equal sqrt((n-1)(n-2))/2 exactly and "
                       "exceed 1/2 for n = 3..8"):
        for n in range(3, 9):
            value = gallot_meyer_bound(n)
            assert value == math.sqrt((n - 1) * (n - 2)) / 2.0
            assert value >= 0.5
