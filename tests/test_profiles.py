"""Smooth compactly supported profiles and their exact derivatives."""

import numpy as np
import pytest

from onewave import profiles


class TestBump:
    def test_normalization_and_support(self):
        assert profiles.bump(np.array([0.0]))[0] == pytest.approx(1.0)
        assert profiles.bump(np.array([1.0]))[0] == 0.0
        assert profiles.bump(np.array([-1.2]))[0] == 0.0

    @pytest.mark.parametrize("order", range(1, 9))
    def test_derivatives_match_finite_differences(self, order):
        u = np.linspace(-0.93, 0.93, 41)
        h = 1e-6
        fd = (profiles.bump(u + h, order - 1) -
              profiles.bump(u - h, order - 1)) / (2 * h)
        an = profiles.bump(u, order)
        scale = np.max(np.abs(an))
        # the finite difference itself loses accuracy at high orders (value
        # scales grow ~ 50x per order); the analytic path is the exact one
        tol = 1e-7 if order <= 6 else 1e-6
        assert np.max(np.abs(fd - an)) <= tol * scale

    def test_even_symmetry(self):
        u = np.linspace(0, 0.99, 30)
        assert np.allclose(profiles.bump(u), profiles.bump(-u))
        assert np.allclose(profiles.bump(u, 1), -profiles.bump(-u, 1))

    def test_boundary_band_is_clean_zero(self):
        u = np.array([0.9999999, 1.0, 1.0000001])
        for k in range(0, 10):
            assert np.all(np.isfinite(profiles.bump(u, k)))


class TestStep:
    def test_plateau_values_exact(self):
        v = np.array([-1.0, 0.0, 1.0, 2.0])
        s = profiles.step(v)
        assert s[0] == 1.0 and s[1] == 1.0
        assert s[2] == 0.0 and s[3] == 0.0

    def test_monotone_decreasing(self):
        v = np.linspace(-0.2, 1.2, 200)
        assert np.all(np.diff(profiles.step(v)) <= 1e-15)

    @pytest.mark.parametrize("order", range(1, 6))
    def test_derivatives(self, order):
        v = np.linspace(0.05, 0.95, 37)
        h = 1e-6
        fd = (profiles.step(v + h, order - 1) -
              profiles.step(v - h, order - 1)) / (2 * h)
        an = profiles.step(v, order)
        assert np.max(np.abs(fd - an)) <= 1e-7 * np.max(np.abs(an))


class TestPlateau:
    def test_flat_regions(self):
        assert profiles.plateau(np.array([0.5]), 1.0, 2.0)[0] == 1.0
        assert profiles.plateau(np.array([-0.99]), 1.0, 2.0)[0] == 1.0
        assert profiles.plateau(np.array([2.3]), 1.0, 2.0)[0] == 0.0

    def test_invalid_radii(self):
        with pytest.raises(ValueError):
            profiles.plateau(np.array([0.0]), 2.0, 1.0)
