import ast
import itertools
import math
import os
import pathlib
import subprocess
import sys
from array import array

import mpmath
import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from dihedral_lab.sector_spectra import (
    DeficiencyResult,
    SectorPair,
    deficiency_test,
    esa_verdict,
    esa_verdict_mixed,
    gallot_meyer_bound,
    hardy_norm,
    p_spectrum_closed,
    p_spectrum_numeric,
)

from dihedral_lab import sector_spectra
from _oracles import (dense_hardy_norm, loop_tridiagonal_system, svds_hardy_norm,
                      tridiagonal_spectrum)


class TestClosedSpectrum:
    def test_equal_angles_pi(self):
        rep = p_spectrum_closed(SectorPair(math.pi, math.pi), range(-2, 3))
        expected = {-2.5, -1.5, -0.5, 0.5, 1.5}
        assert set(round(v, 12) for v in rep.eigenvalues) == expected
        assert rep.min_abs == 0.5
        assert rep.esa

    def test_alpha_half_beta(self):
        # alpha = pi/2, beta = pi: lattice -1 + 2k
        rep = p_spectrum_closed(SectorPair(math.pi / 2, math.pi), range(-2, 3))
        assert rep.eigenvalues == pytest.approx((-5.0, -3.0, -1.0, 1.0, 3.0))
        assert rep.min_abs == pytest.approx(1.0)
        assert rep.esa

    def test_alpha_pi_beta_half(self):
        # alpha = pi, beta = pi/2: lattice -1/4 + k
        rep = p_spectrum_closed(SectorPair(math.pi, math.pi / 2), range(-2, 3))
        assert rep.eigenvalues == pytest.approx((-2.25, -1.25, -0.25, 0.75, 1.75))
        assert rep.min_abs == pytest.approx(0.25)
        assert not rep.esa

    def test_min_abs_matches_listed_eigenvalues(self):
        rng = np.random.default_rng(8)
        for _ in range(100):
            pair = SectorPair(rng.uniform(0.1, math.pi), rng.uniform(0.1, math.pi))
            rep = p_spectrum_closed(pair, range(-50, 51))
            assert rep.min_abs == pytest.approx(
                min(abs(v) for v in rep.eigenvalues), rel=1e-12)

    def test_invalid_angles(self):
        with pytest.raises(ValueError):
            SectorPair(0.0, 1.0)
        with pytest.raises(ValueError):
            SectorPair(1.0, -1.0)

    @pytest.mark.parametrize("alpha,beta", [(math.inf, 1.0), (1.0, math.inf),
                                            (math.nan, 1.0), (1.0, math.nan)])
    def test_non_finite_angles_rejected(self, alpha, beta):
        with pytest.raises(ValueError, match="finite"):
            SectorPair(alpha, beta)

    @settings(max_examples=300, deadline=None)
    @given(st.floats(min_value=0.05, max_value=math.pi),
           st.floats(min_value=0.05, max_value=math.pi))
    def test_three_way_agreement_property(self, alpha, beta):
        pair = SectorPair(alpha, beta)
        rep = p_spectrum_closed(pair)
        verdict, _ = esa_verdict(pair)
        # min_abs >= 1/2, alpha <= beta, and the verdict coincide, with the
        # harmless caveat that float rounding of beta/(2 alpha) near the
        # boundary alpha == beta cannot disagree by construction
        assert rep.esa == (rep.min_abs >= 0.5)
        if abs(alpha - beta) > 1e-12 * max(alpha, beta) or alpha == beta:
            assert verdict == rep.esa


class TestEsaVerdict:
    def test_examples(self):
        assert esa_verdict(SectorPair(math.pi / 3, math.pi / 2))[0] is True
        assert esa_verdict(SectorPair(math.pi / 2, math.pi / 3))[0] is False

    def test_out_of_hypothesis(self):
        with pytest.raises(ValueError):
            esa_verdict(SectorPair(1.0, 3.5))

    def test_mixed_threshold(self):
        assert esa_verdict_mixed(math.pi / 2)[0] is True
        assert esa_verdict_mixed(0.6 * math.pi)[0] is False
        with pytest.raises(ValueError):
            esa_verdict_mixed(-1.0)

    def test_truth_table_20x20(self):
        half_pi = math.pi / 2
        for i in range(1, 21):
            for j in range(1, 21):
                alpha = (i / 20) * math.pi
                beta = (j / 20) * math.pi
                pair = SectorPair(alpha, beta)
                verdict, _ = esa_verdict(pair)
                closed = p_spectrum_closed(pair)
                assert verdict == (alpha <= beta) == closed.esa == (
                    closed.min_abs >= 0.5)
        # mixed variant flips exactly at pi/2
        for i in range(1, 21):
            alpha = half_pi * (i / 10)
            assert esa_verdict_mixed(alpha)[0] == (i <= 10)

    def test_spectral_chain_on_the_20x20_grid(self):
        """The closed spectrum, the Bessel deficiency test and the ESA rule
        as one chain: on the same grid, every distinct lattice eigenvalue
        with |lam| <= 4.5 and |1/2 - |lam|| >= 1e-10 (k = -5..5 reaches every
        lattice point of that range, the spacing pi / alpha being at least 1)
        is L^2 iff |lam| < 1/2, and a pair is essentially self-adjoint iff
        none of its eigenvalues is L^2."""
        spectra = {}
        for i, j in itertools.product(range(1, 21), repeat=2):
            pair = SectorPair((i / 20) * math.pi, (j / 20) * math.pi)
            spectra[pair] = [lam for lam in p_spectrum_closed(pair).eigenvalues
                             if abs(lam) <= 4.5 and abs(0.5 - abs(lam)) >= 1e-10]
        is_l2 = {lam: deficiency_test(lam).is_l2
                 for lam in sorted({lam for lams in spectra.values() for lam in lams})}
        assert len(is_l2) > 1300
        assert [lam for lam, l2 in is_l2.items() if l2 != (abs(lam) < 0.5)] == []
        assert [(pair.alpha, pair.beta) for pair, lams in spectra.items()
                if esa_verdict(pair)[0] == any(is_l2[lam] for lam in lams)] == []


def _operator_norm(alpha, beta, grid):
    """Gershgorin-type scale (2 + 2 |tan(d/2)|) grid / alpha of the matrix."""
    return (2.0 + 2.0 * abs(math.tan(0.5 * (beta - alpha)))) * grid / alpha


def _assert_matches_tridiagonal(alpha, beta, grid):
    """Same count as LAPACK on the entry-by-entry assembly, and within
    1e-13 of the matrix norm."""
    numeric = p_spectrum_numeric(SectorPair(alpha, beta), grid, 5).eigenvalues
    reference = tridiagonal_spectrum(alpha, beta, grid, 5)
    assert len(numeric) == len(reference) == 5
    scale = 1e-13 * _operator_norm(alpha, beta, grid)
    for v, r in zip(numeric, reference):
        assert abs(v - r) <= scale


class TestNumericSpectrum:
    @pytest.mark.parametrize("alpha,beta", [
        (math.pi / 2, math.pi / 2),
        (2 * math.pi / 3, math.pi),
        (math.pi, math.pi / 2),
        (math.pi / 3, 2 * math.pi / 3),
    ])
    def test_matches_closed_form(self, alpha, beta):
        pair = SectorPair(alpha, beta)
        numeric = p_spectrum_numeric(pair, grid=512, count=5)
        closed = p_spectrum_closed(pair, range(-12, 13)).eigenvalues
        for v in numeric.eigenvalues:
            assert min(abs(v - c) for c in closed) <= 1e-3

    def test_exact_zero_mode(self):
        # at alpha = beta the k = 0 mode is reproduced exactly as -1/2
        rep = p_spectrum_numeric(SectorPair(1.0, 1.0), grid=128, count=3)
        assert min(abs(v + 0.5) for v in rep.eigenvalues) <= 1e-13

    def test_second_order_convergence(self):
        pair = SectorPair(2 * math.pi / 3, math.pi)
        closed = p_spectrum_closed(pair, range(-12, 13)).eigenvalues

        def err(n):
            rep = p_spectrum_numeric(pair, grid=n, count=5)
            return max(min(abs(v - c) for c in closed) for v in rep.eigenvalues)

        ratio = err(256) / err(512)
        assert 3.5 <= ratio <= 4.5

    def test_esa_agreement(self):
        for alpha, beta in [(1.0, 1.5), (1.5, 1.0), (2.0, 2.0)]:
            pair = SectorPair(alpha, beta)
            assert p_spectrum_numeric(pair, grid=256).esa == \
                p_spectrum_closed(pair).esa

    def test_grid_floor(self):
        with pytest.raises(ValueError):
            p_spectrum_numeric(SectorPair(1.0, 1.0), grid=32)

    def test_second_order_convergence_at_fine_grids(self):
        pair = SectorPair(2 * math.pi / 3, math.pi)
        closed = p_spectrum_closed(pair, range(-12, 13)).eigenvalues

        def err(n):
            rep = p_spectrum_numeric(pair, grid=n, count=5)
            return max(min(abs(v - c) for c in closed) for v in rep.eigenvalues)

        ratio = err(2**16) / err(2**17)
        assert 3.5 <= ratio <= 4.5

    def test_huge_grid_matches_lattice(self):
        rep = p_spectrum_numeric(SectorPair(1.0, 2.0), grid=10**10, count=5)
        closed = p_spectrum_closed(SectorPair(1.0, 2.0), range(-12, 13)).eigenvalues
        assert len(rep.eigenvalues) == 5
        for v in rep.eigenvalues:
            assert min(abs(v - c) for c in closed) <= 1e-9

    def test_step_cap_raises(self, monkeypatch):
        monkeypatch.setattr(sector_spectra, "_SECULAR_STEPS", 1)
        with pytest.raises(RuntimeError, match="did not settle in 1 steps"):
            p_spectrum_numeric(SectorPair(0.9, 2.8), grid=4096)

    @pytest.mark.parametrize("alpha,beta", [
        (1.0, 1.0), (2 * math.pi / 3, math.pi), (0.3, 2.9), (math.pi, 0.1)])
    @pytest.mark.parametrize("grid", [64, 65, 4096])
    def test_assembly_bit_equal_to_loop(self, alpha, beta, grid):
        _assert_matches_tridiagonal(alpha, beta, grid)


class TestSecularEquation:
    """The closed-form eigenvalues against solvers of the assembled matrix
    (LAPACK tridiagonal, dense) and against 40-digit roots of the boundary
    condition."""

    @settings(max_examples=40, deadline=None)
    @given(st.floats(min_value=0.05, max_value=2 * math.pi),
           st.floats(min_value=0.05, max_value=2 * math.pi),
           st.integers(min_value=64, max_value=20000))
    def test_matches_tridiagonal_eigensolver_property(self, alpha, beta, grid):
        _assert_matches_tridiagonal(alpha, beta, grid)

    @pytest.mark.parametrize("alpha,beta", [
        (1.0, 1.0), (2 * math.pi / 3, math.pi), (0.3, 2.9), (math.pi, 0.1),
        (6.0, 0.2), (0.05, 6.2)])
    def test_matches_dense_eigvalsh(self, alpha, beta):
        diag, off = loop_tridiagonal_system(alpha, beta, 64)
        dense = np.linalg.eigvalsh(np.diag(diag) + np.diag(off, 1) + np.diag(off, -1))
        window = 7 * math.pi / alpha + abs(beta - alpha) + 1.0
        nearest = sorted(sorted(dense[np.abs(dense) <= window], key=abs)[:5])
        numeric = p_spectrum_numeric(SectorPair(alpha, beta), 64, 5).eigenvalues
        scale = 1e-14 * _operator_norm(alpha, beta, 64)
        for v, r in zip(numeric, nearest, strict=True):
            assert abs(v - r) <= scale

    @pytest.mark.parametrize("alpha,beta", [(1.0, 2.0), (math.pi, 0.1), (0.3, 2.9)])
    def test_band_edge_matches_dense_eigvalsh(self, alpha, beta):
        # at the largest count the band admits, the highest modes returned sit
        # far from the lattice and still match the assembled matrix
        pair, count = SectorPair(alpha, beta), 1
        while True:
            try:
                p_spectrum_numeric(pair, 64, count + 1)
            except ValueError:
                break
            count += 1
        diag, off = loop_tridiagonal_system(alpha, beta, 64)
        dense = np.linalg.eigvalsh(np.diag(diag) + np.diag(off, 1) + np.diag(off, -1))
        window = (count + 2) * math.pi / alpha + abs(beta - alpha) + 1.0
        nearest = sorted(sorted(dense[np.abs(dense) <= window], key=abs)[:count])
        numeric = p_spectrum_numeric(pair, 64, count).eigenvalues
        scale = 1e-14 * _operator_norm(alpha, beta, 64)
        for v, r in zip(numeric, nearest, strict=True):
            assert abs(v - r) <= scale

    def test_matches_mpmath_roots(self):
        # the Robin condition in the original variable,
        # sin(2 n theta) sin(theta) = t cos(2 n theta), solved to 40 digits
        import mpmath

        alpha, beta, grid = 0.3, 2.9, 16384
        numeric = p_spectrum_numeric(SectorPair(alpha, beta), grid, 5).eigenvalues
        with mpmath.workdps(40):
            h = mpmath.mpf(alpha) / grid
            t = mpmath.tan((mpmath.mpf(beta) - mpmath.mpf(alpha)) / 2)

            def robin(theta):
                return (mpmath.sin(2 * grid * theta) * mpmath.sin(theta)
                        - t * mpmath.cos(2 * grid * theta))

            for v in numeric:
                start = mpmath.acos((mpmath.mpf(v) + 0.5) * h / 2)
                theta = mpmath.findroot(robin, start)
                exact = -0.5 + 2 / h * mpmath.cos(theta)
                assert abs(v - exact) <= 1e-13


class TestGallotMeyer:
    def test_values(self):
        assert gallot_meyer_bound(3) == pytest.approx(math.sqrt(2) / 2)
        assert gallot_meyer_bound(3) == pytest.approx(0.70711, abs=1e-5)
        assert gallot_meyer_bound(4) == pytest.approx(math.sqrt(6) / 2)
        assert gallot_meyer_bound(4) == pytest.approx(1.2247, abs=1e-4)

    def test_all_above_half(self):
        for n in range(3, 9):
            value = gallot_meyer_bound(n)
            assert value == pytest.approx(math.sqrt((n - 1) * (n - 2)) / 2)
            assert value >= 0.5

    def test_too_small_dimension(self):
        with pytest.raises(ValueError):
            gallot_meyer_bound(2)

    def test_degree_identity_at_n5(self):
        # the quadratic in p has its vertex value (n-1)^2/4 = 4 at n = 5,
        # and the combination is constant in p, so the minimum equals it
        n = 5
        values = [p * (n - 1 - p) + (p - (n - 1) / 2.0) ** 2 for p in range(n)]
        assert min(values) == 4.0
        assert all(v == 4.0 for v in values)

    @pytest.mark.parametrize("n", [3, 7, 1000, 10**6, 10**20, 3 * 10**40])
    def test_large_dimensions_exact_formula(self, n):
        # the float identity check failed past 2^53 and took O(n) steps
        assert gallot_meyer_bound(n) == math.sqrt((n - 1) * (n - 2)) / 2.0

    def test_past_float_range(self):
        with pytest.raises(ValueError, match="out of range: its bound overflows a float"):
            gallot_meyer_bound(10**160)


class TestDeficiency:
    def test_gauss_legendre_literals_are_leggauss_16(self):
        """The shells' 16-point rule, moved back to [-1, 1], against ``leggauss``."""
        nodes, weights = np.polynomial.legendre.leggauss(16)
        rule = sector_spectra._gauss_legendre(16)
        assert np.abs(np.array([2.0 * t - 1.0 for t, _ in rule]) - nodes).max() <= 1e-14
        assert np.abs(np.array([2.0 * w for _, w in rule]) / weights - 1.0).max() <= 1e-14

    @pytest.mark.parametrize("lam", [0.0, 0.3, -0.49, 1.5, 3.7])
    def test_panel_sums_match_numpy_dot(self, lam):
        """The fsum shells against the same panels summed by ``numpy.dot``:
        only the summation order and rounding differ."""
        nodes, weights = np.polynomial.legendre.leggauss(16)
        res = deficiency_test(lam)
        total = 0.0
        for k, got in enumerate(res.shells):
            a, b = 2.0 ** -(k + 1), 2.0 ** -k
            mid, hw = 0.5 * (a + b), 0.5 * (b - a)
            vals = [sector_spectra._deficiency_integrand(lam, r) for r in mid + hw * nodes]
            panel = hw * float(np.dot(weights, vals))
            total += panel
            assert got == pytest.approx(panel, rel=1e-14)
        assert res.to_dict()["final_integral"] == pytest.approx(total, rel=1e-14)

    @pytest.mark.parametrize("lam", [0.0, 0.25, -0.25, 0.49, -0.49, 0.495, -0.499,
                                     0.4999999999, -0.4999999999])
    def test_l2_cases(self, lam):
        assert deficiency_test(lam).is_l2

    @pytest.mark.parametrize("lam", [0.5, -0.5, 0.5000000001, -0.5000000001,
                                     0.75, -0.75, 1.0, -1.0])
    def test_non_l2_cases(self, lam):
        assert not deficiency_test(lam).is_l2

    def test_trace_is_monotone(self):
        values = list(itertools.accumulate(deficiency_test(0.25).shells))
        assert all(b >= a - 1e-15 for a, b in zip(values, values[1:]))

    def test_lambda_zero_integral_value(self):
        # closed form: r K_{1/2}(r)^2 = (pi/2) e^{-2r}; integral over (0,1]
        res = deficiency_test(0.0)
        expected = 2.0 * (math.pi / 2.0) * (1.0 - math.exp(-2.0)) / 2.0
        assert res.to_dict()["final_integral"] + res.tail == pytest.approx(expected, rel=1e-14)

    @pytest.mark.parametrize("lam", [0.0, 0.05, 0.25, 0.45, 0.49, 0.495, 0.4999])
    def test_integral_matches_mpmath(self, lam):
        """The shells plus the geometric tail against the whole integral over
        (0, 1] from mpmath, in t = -ln r, at 30 digits."""
        with mpmath.workdps(30):
            nu = mpmath.mpf(lam)
            ref = float(mpmath.quad(
                lambda t: mpmath.exp(-2 * t) * (mpmath.besselk(nu - 0.5, mpmath.exp(-t)) ** 2
                                                + mpmath.besselk(nu + 0.5, mpmath.exp(-t)) ** 2),
                [0, 1, 10, 100, mpmath.inf]))
        for signed in (lam, -lam):
            res = deficiency_test(signed)
            assert res.to_dict()["final_integral"] + res.tail == pytest.approx(ref, rel=1e-11)

    @pytest.mark.parametrize("lam", [0.3, 0.35, 0.45, 0.49, 0.4999, 0.5, 0.5001, 0.55, 0.75,
                                     1.0, 1.5, 2.25, 3.7, 4.5])
    def test_exponent_matches_closed_form(self, lam):
        """From |lam| = 0.3 up the exponent is 1 - 2|lam| to 1e-13 and the
        drift bounds its error up to rounding."""
        for signed in (lam, -lam):
            res = deficiency_test(signed)
            error = abs(res.decay_exponent - (1.0 - 2.0 * lam))
            assert error <= 1e-13
            assert error <= res.exponent_drift + 1e-14

    def test_exponent_near_the_threshold_to_rounding(self):
        """Next to |lam| = 1/2 the shell ratio is geometric to 2^-80, so the
        exponent error is the rounding of the Bessel series alone: a few ulps,
        where exp(nu log(r/2)) for (r/2)^nu would lose ~|nu log(r/2)| ulps."""
        for lam in (0.45 + 0.005 * i for i in range(21)):
            for signed in (lam, -lam):
                error = abs(deficiency_test(signed).decay_exponent - (1.0 - 2.0 * lam))
                assert error <= 2e-15

    def test_drift_is_no_error_bound_for_small_lambda(self):
        # the K_{|lam|-1/2} term fades only like r^(4|lam|): at 2^-40 the
        # exponent is still 1e-2 off, twenty drifts
        res = deficiency_test(0.01)
        assert res.is_l2
        assert res.decay_exponent - 0.98 > 20 * res.exponent_drift

    def test_half_is_log_divergent(self):
        res = deficiency_test(0.5)
        assert (res.decay_exponent, res.exponent_drift, res.tail) == (0.0, 0.0, None)
        assert not res.is_l2

    def test_result_shape(self):
        res = deficiency_test(0.0)
        assert isinstance(res, DeficiencyResult)
        assert res.to_dict()["is_l2"] is True
        assert res.to_dict()["levels"] == len(res.shells) == 40
        assert res.to_dict()["final_eps"] == 2.0 ** -40


class TestHardy:
    def test_lambda_one(self):
        numeric, bound = hardy_norm(1.0, delta=1.0)
        assert bound == pytest.approx(2.0)
        assert numeric <= 2.02
        assert numeric > 0.1  # sanity: not trivially small

    def test_lambda_two(self):
        numeric, bound = hardy_norm(2.0)
        assert numeric <= bound * 1.01
        assert numeric <= 0.673

    def test_lambda_0p6(self):
        numeric, bound = hardy_norm(0.6)
        assert bound == pytest.approx(10.0)
        assert numeric <= bound * 1.01

    def test_negative_branch_matches_positive(self):
        # T_{-lam} is the adjoint of T_{lam}: equal norms
        a, _ = hardy_norm(1.3)
        b, _ = hardy_norm(-1.3)
        assert a == pytest.approx(b, rel=1e-10)

    def test_monotone_toward_threshold(self):
        n1, _ = hardy_norm(0.6)
        n2, _ = hardy_norm(0.51)
        assert n2 > n1

    def test_threshold_rejected(self):
        with pytest.raises(ValueError):
            hardy_norm(0.5)
        with pytest.raises(ValueError):
            hardy_norm(-0.3)


class TestHardyMatrixFree:
    """``hardy_norm`` runs qd passes over the kernel's bidiagonal inverse; the
    dense kernel and SVD it replaced are the reference."""

    @pytest.mark.parametrize("grid", [16, 17, 1200])
    @pytest.mark.parametrize("lam", [s * v for v in (0.51, 0.6, 1.0, 1.3, 2.0, 4.0,
                                                     40.0, 95.0, 150.0, 400.0)
                                     for s in (1.0, -1.0)])
    def test_matches_dense_svd(self, lam, grid):
        numeric, _ = hardy_norm(lam, delta=0.8, grid=grid)
        assert numeric == pytest.approx(dense_hardy_norm(lam, 0.8, grid), rel=1e-12, abs=0)

    @pytest.mark.parametrize("delta", [1e-300, 1e300])
    def test_extreme_delta_matches_dense_svd(self, delta):
        # the qd passes run on B, free of h, and h / sigma_min(B) is formed last:
        # h^2 would under/overflow here
        numeric, _ = hardy_norm(1.3, delta=delta, grid=64)
        assert numeric == pytest.approx(dense_hardy_norm(1.3, delta, 64), rel=1e-12, abs=0)

    def test_grid_beyond_dense_reach(self):
        # the dense kernel would need 8 * 200_000**2 bytes = 320 GB
        numeric, bound = hardy_norm(0.6, grid=200_000)
        assert math.isfinite(numeric) and 0.3 < numeric < bound

    def test_memory_is_linear_in_grid(self):
        import tracemalloc

        grid = 4000
        hardy_norm(1.0, grid=16)  # imports outside the traced window
        tracemalloc.start()
        try:
            hardy_norm(1.0, grid=grid)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 16 * grid  # one array of doubles; the (grid, grid) kernel is 8 * grid**2

    @pytest.mark.parametrize("lam, delta", [(math.inf, 1.0), (-math.inf, 1.0),
                                            (math.nan, 1.0), (1.0, math.nan),
                                            (1.0, math.inf)])
    def test_non_finite_input_rejected(self, lam, delta):
        with pytest.raises(ValueError, match="finite"):
            hardy_norm(lam, delta=delta)


class TestHardyLanczos:
    """The qd norm against ARPACK's Lanczos (``svds``) on the matrix-free
    operator, applied by blocked numpy prefix sums."""

    @pytest.mark.parametrize("grid", [16, 17, 1200, 2400])
    @pytest.mark.parametrize("lam", [s * v for v in (0.51, 0.6, 1.0, 2.0, 40.0, 400.0)
                                     for s in (1.0, -1.0)])
    def test_matches_svds(self, lam, grid):
        numeric, _ = hardy_norm(lam, grid=grid)
        assert numeric == pytest.approx(svds_hardy_norm(lam, grid=grid), rel=1e-13, abs=0)

    def test_matches_svds_beyond_dense_reach(self):
        numeric, _ = hardy_norm(0.6, grid=200_000)
        assert numeric == pytest.approx(svds_hardy_norm(0.6, grid=200_000), rel=1e-12, abs=0)

    def test_step_cap_raises(self, monkeypatch):
        # lam = 400 on grid 1200 needs 14 qd passes; an unconverged value is
        # never returned
        monkeypatch.setattr(sector_spectra, "_QD_PASSES", 2)
        with pytest.raises(RuntimeError, match="did not converge"):
            hardy_norm(400.0, grid=1200)


class TestHardyPaths:
    """``hardy_norm`` has one path, on the standard library at every size."""

    def test_step_cap_raises_on_the_stdlib_path(self, monkeypatch):
        # lam = 400 needs 8 qd passes on grid 300
        monkeypatch.setattr(sector_spectra, "_QD_PASSES", 2)
        with pytest.raises(RuntimeError, match="did not converge"):
            hardy_norm(400.0, grid=300)

    @pytest.mark.parametrize("lam, grid, passes", [(0.6, 2400, 5), (1.0, 1200, 5), (-1.0, 1200, 5),
                                                   (2.0, 1200, 6), (0.5000001, 2400, 6),
                                                   (400.0, 1200, 14), (400.0, 17, 19)])
    def test_qd_passes(self, lam, grid, passes, monkeypatch):
        # the benchmark's jobs, a Laguerre point 9e-15 past the counts' crossing
        # (lam = 0.5000001: 27 passes when the probes bisect) and a clustered spectrum
        taus = []
        qd_pass = sector_spectra._qd_pass
        monkeypatch.setattr(sector_spectra, "_qd_pass",
                            lambda q2, tau: taus.append(tau) or qd_pass(q2, tau))
        hardy_norm(lam, grid=grid)
        assert len(taus) <= passes

    @pytest.mark.parametrize("off", [1, -1])
    def test_count_off_by_one_raises(self, off, monkeypatch):
        # off by one at tau = 0, where B B^T has no eigenvalue below, the counts
        # never bracket lambda_min
        qd_pass = sector_spectra._qd_pass

        def miscounted(q2, tau):
            below, g, h = qd_pass(q2, tau)
            return below + off, g, h

        monkeypatch.setattr(sector_spectra, "_qd_pass", miscounted)
        with pytest.raises(RuntimeError, match="did not converge"):
            hardy_norm(1.0, grid=64)

    def test_no_numpy_at_any_size(self):
        out = _fresh_python("from dihedral_lab.sector_spectra import hardy_norm\n"
                            "hardy_norm(400.0, grid=1200)\n"
                            "hardy_norm(0.6, grid=200_000)\n"
                            "print('numpy' in sys.modules)\n")
        assert out.split() == ["False"]

    def test_module_imports_no_numpy(self):
        tree = ast.parse(pathlib.Path(sector_spectra.__file__).read_text())
        imported = [alias.name for node in ast.walk(tree) if isinstance(node, ast.Import)
                    for alias in node.names]
        imported += [node.module or "" for node in ast.walk(tree)
                     if isinstance(node, ast.ImportFrom)]
        assert imported and not [m for m in imported if m.split(".")[0] == "numpy"]


def _gram_eigenvalues(q2):
    """Eigenvalues of ``B B^T`` for the unit lower bidiagonal B with
    ``B[i+1, i]^2 = q2[i]``, by ``numpy.linalg.eigvalsh``."""
    b = np.eye(len(q2)) - np.diag(np.sqrt(q2[:-1]), -1)
    return np.linalg.eigvalsh(b @ b.T)


def _hardy_q2(lam, grid):
    """The squared subdiagonal of the Hardy kernel's B, then the ignored last entry."""
    r = np.arange(grid) + 0.5
    return np.append((r[:-1] / r[1:]) ** (2.0 * abs(lam)), 0.0)


def _clear(eigs, tau):
    """tau at least 1e-13 ||B B^T|| from every eigenvalue: ``eigvalsh`` is accurate
    to a few eps ||B B^T||, the qd count to O(grid eps) relative."""
    return np.min(np.abs(eigs - tau)) > 1e-13 * eigs[-1]


def _assert_count(q2, eigs, tau):
    assert sector_spectra._qd_pass(array("d", q2), tau)[0] == np.count_nonzero(eigs < tau)


class TestQdCount:
    """The negative pivots of one qd pass against the eigenvalues of ``B B^T``
    below tau."""

    @settings(max_examples=200, deadline=None, derandomize=True)
    @given(st.floats(0.51, 400.0), st.integers(16, 64), st.floats(0.0, 1.0))
    def test_matches_eigvalsh_on_hardy_kernels(self, lam, grid, where):
        q2 = _hardy_q2(lam, grid)
        eigs = _gram_eigenvalues(q2)
        tau = 0.5 * eigs[0] * (3.0 * eigs[-1] / eigs[0]) ** where  # log-uniform
        assume(_clear(eigs, tau))
        _assert_count(q2, eigs, tau)

    @settings(max_examples=200, deadline=None, derandomize=True)
    @given(st.integers(16, 64).flatmap(
               lambda n: st.lists(st.floats(0.0, 1.0), min_size=n - 1, max_size=n - 1)),
           st.floats(0.0, 4.0))
    def test_matches_eigvalsh_on_any_bidiagonal(self, q, tau):
        q2 = np.append(q, 0.0)
        eigs = _gram_eigenvalues(q2)
        assume(_clear(eigs, tau))
        _assert_count(q2, eigs, tau)

    @pytest.mark.parametrize("lam, grid", [(400.0, 16), (-400.0, 16), (400.0, 17),
                                           (-400.0, 17), (0.51, 16), (0.51, 64)])
    def test_pinned_cases(self, lam, grid):
        # lam = 400 at grids 16/17: B B^T is the identity to 1e-11, a clustered
        # spectrum; tau just around lambda_min and between separable neighbours
        q2 = _hardy_q2(lam, grid)
        eigs = _gram_eigenvalues(q2)
        taus = [eigs[0] * (1 - 1e-6), eigs[0] * (1 + 1e-6), *(0.5 * (eigs[1:] + eigs[:-1]))]
        taus = [tau for tau in taus if _clear(eigs, tau)]
        assert len(taus) >= 3
        for tau in taus:
            _assert_count(q2, eigs, tau)

    def test_identity_zero_pivots(self):
        # |lam| > 372 grid: q2 underflows, B = I, and every pivot at tau = 1 is an
        # exact 0, counted as negative
        q2 = array("d", [0.0] * 16)
        assert sector_spectra._qd_pass(q2, 1.0)[0] == 16
        assert sector_spectra._least_eigenvalue(q2) == pytest.approx(1.0, rel=1e-14, abs=0)
        assert hardy_norm(1e300, grid=16)[0] == pytest.approx(1 / 16, rel=1e-14, abs=0)


def test_library_calls_load_no_numpy():
    """Start-up guard below the command line: the Hardy norm, the deficiency
    probe, the numeric sector spectrum and the Gallot-Meyer bound all run
    without importing numpy."""
    out = _fresh_python("from dihedral_lab.sector_spectra import (SectorPair, deficiency_test,\n"
                        "    gallot_meyer_bound, hardy_norm, p_spectrum_numeric)\n"
                        "hardy_norm(1.0, grid=64)\n"
                        "deficiency_test(0.25)\n"
                        "p_spectrum_numeric(SectorPair(1.1, 2.2), 128)\n"
                        "gallot_meyer_bound(4)\n"
                        "print('numpy' in sys.modules)\n")
    assert out.strip() == "False"


def _fresh_python(code):
    """The standard output of ``code`` (with ``sys`` imported) in a new interpreter."""
    src = pathlib.Path(__file__).resolve().parents[1] / "src"
    env = dict(os.environ, PYTHONPATH=str(src))
    return subprocess.run([sys.executable, "-c", "import sys\n" + code], env=env,
                          check=True, capture_output=True, text=True).stdout
