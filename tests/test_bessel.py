import math
import os
import pathlib
import subprocess
import sys

import mpmath
import pytest
import scipy.special as special

from dihedral_lab.bessel import BesselRangeError, _bessel_i, _bessel_k, bessel_kr


def k_half_exact(r):
    return math.sqrt(math.pi / (2.0 * r)) * math.exp(-r)


def i_half_exact(r):
    return math.sqrt(2.0 / (math.pi * r)) * math.sinh(r)


def k_three_halves_exact(r):
    return math.sqrt(math.pi / (2.0 * r)) * math.exp(-r) * (1.0 + 1.0 / r)


class TestClosedForms:
    def test_k_half_at_one(self):
        _, k = bessel_kr(0.5, 1.0)
        assert k == pytest.approx(0.461068504, abs=1e-9)
        assert k == pytest.approx(k_half_exact(1.0), rel=1e-12)

    def test_i_half_at_one(self):
        i, _ = bessel_kr(0.5, 1.0)
        assert i == pytest.approx(0.937674888, abs=1e-9)
        assert i == pytest.approx(i_half_exact(1.0), rel=1e-12)

    @pytest.mark.parametrize("r", [0.01, 0.1, 0.5, 1.0, 1.9, 2.0, 2.1, 5.0, 10.0])
    def test_half_integer_forms_across_range(self, r):
        i, k = bessel_kr(0.5, r)
        assert i == pytest.approx(i_half_exact(r), rel=1e-11)
        assert k == pytest.approx(k_half_exact(r), rel=1e-11)
        _, k3 = bessel_kr(1.5, r)
        assert k3 == pytest.approx(k_three_halves_exact(r), rel=1e-11)

    def test_nu_symmetry(self):
        _, ka = bessel_kr(0.3, 0.7)
        _, kb = bessel_kr(-0.3, 0.7)
        assert abs(ka - kb) <= 1e-12


class TestAgainstScipy:
    NUS = [0.0, 0.01, 0.25, 0.5, 0.99, 1.0, 1.5, 2.0, 2.7, 3.0, 4.5, 5.0]
    RS = [0.02, 0.1, 0.5, 1.0, 1.7, 1.99, 2.0, 2.3, 3.0, 6.0, 10.0]

    @pytest.mark.parametrize("nu", NUS)
    @pytest.mark.parametrize("r", RS)
    def test_grid(self, nu, r):
        i, k = bessel_kr(nu, r)
        assert i == pytest.approx(float(special.iv(nu, r)), rel=1e-10)
        assert k == pytest.approx(float(special.kv(nu, r)), rel=1e-10)

    @pytest.mark.parametrize("nu", [-0.5, -0.99, -1.0, -2.5, -5.0])
    def test_negative_orders(self, nu):
        i, k = bessel_kr(nu, 1.3)
        assert i == pytest.approx(float(special.iv(nu, 1.3)), rel=1e-10)
        assert k == pytest.approx(float(special.kv(nu, 1.3)), rel=1e-10)


class TestWronskian:
    # I_nu(r) K_{nu+1}(r) + I_{nu+1}(r) K_nu(r) = 1/r
    @pytest.mark.parametrize("nu", [0.0, 0.3, 1.0, 2.2, 3.9])
    @pytest.mark.parametrize("r", [0.2, 1.0, 2.5, 8.0])
    def test_wronskian(self, nu, r):
        i0, k0 = bessel_kr(nu, r)
        i1, k1 = bessel_kr(nu + 1.0, r)
        assert i0 * k1 + i1 * k0 == pytest.approx(1.0 / r, rel=1e-10)


class TestRange:
    def test_r_out_of_range(self):
        with pytest.raises(BesselRangeError):
            bessel_kr(0.5, 11.0)
        with pytest.raises(BesselRangeError):
            bessel_kr(0.5, 0.0)

    def test_nu_out_of_range(self):
        with pytest.raises(BesselRangeError):
            bessel_kr(5.5, 1.0)


class TestTinyArguments:
    """The deficiency integral evaluates K far below the public range."""

    @pytest.mark.parametrize("exp2", [-20, -100, -300, -407])
    def test_small_r_vs_mpmath(self, exp2):
        import mpmath

        r = 2.0**exp2
        with mpmath.workdps(50):
            for nu in (0.25, 0.49, 0.99, 1.0, 1.5):
                expected = float(mpmath.besselk(nu, mpmath.mpf(2) ** exp2))
                assert _bessel_k(nu, r) == pytest.approx(expected, rel=1e-10)

    def test_small_r_log_case(self):
        r = 1e-40
        # K_0(r) ~ -ln(r/2) - gamma
        expected = -math.log(r / 2.0) - 0.5772156649015329
        assert _bessel_k(0.0, r) == pytest.approx(expected, rel=1e-10)

    def test_i_at_tiny_r(self):
        r = 1e-60
        assert _bessel_i(1.0, r) == pytest.approx(r / 2.0, rel=1e-12)


class TestLazyNumpy:
    """The module runs on floats: no branch loads numpy, and the quadrature
    branch (r >= 2) agrees with mpmath."""

    def test_import_loads_no_numpy(self):
        root = pathlib.Path(__file__).resolve().parents[1]
        code = ("import sys\n"
                "from dihedral_lab.bessel import bessel_kr\n"
                "from dihedral_lab.sector_spectra import deficiency_test\n"
                "bessel_kr(0.5, 8.0)\n"
                "bessel_kr(2.25, 1.5)\n"
                "deficiency_test(0.3)\n"
                "print('numpy' in sys.modules)")
        env = dict(os.environ, PYTHONPATH=str(root / "src"))
        out = subprocess.run([sys.executable, "-c", code], env=env, check=True,
                             capture_output=True, text=True).stdout
        assert out.strip() == "False"

    @pytest.mark.parametrize("nu", [0.0, 0.3, 0.5, 1.0, 2.25, 4.0, 5.0])
    @pytest.mark.parametrize("r", [2.0, 2.5, 3.7, 6.0, 10.0])
    def test_quadrature_matches_table_at_import(self, nu, r):
        """The 48-point rule of ``_gauss_legendre``, summed with ``math.fsum``,
        against 30-digit mpmath."""
        with mpmath.workdps(30):
            expected = mpmath.besselk(nu, r)
            assert abs(bessel_kr(nu, r)[1] / expected - 1) <= 1e-13
