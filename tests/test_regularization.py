"""Mollifier construction, data embedding, symbol regularization."""

import numpy as np
import pytest
from numpy.polynomial.legendre import leggauss

from onewave import profiles
from onewave.errors import BadEps, UnsupportedRoughKind
from onewave.grid import Grid, GridFunction
from onewave.regularization import (Mollifier, MollifiedCoefficient,
                                    RoughCoefficient, RoughTransport,
                                    embed_data, omega_of_eps,
                                    regularize_symbol, regularized_family,
                                    verify_log_type_of_regularization)
from onewave.symbols import SampleBox

TWO_PI = 2.0 * np.pi


def kernel_direct(y, k=0, lo=1.0, hi=2.0):
    """Independent kernel evaluation: Gauss-Legendre quadrature of the
    frequency profile (does not share code with the production series path
    or the FFT sampler)."""
    y = np.atleast_1d(np.asarray(y, float))
    n = 200 + int(2.8 * float(np.max(np.abs(y))))
    xg, wg = leggauss(n)
    xi = 0.5 * hi * (xg + 1.0)
    w = 0.5 * hi * wg
    ph = profiles.plateau(xi, lo, hi) * xi ** k
    return (ph * np.cos(np.outer(y, xi) + k * np.pi / 2)) @ w / np.pi


class TestOmega:
    def test_cube_root(self):
        assert omega_of_eps(np.exp(-8.0), 3) == pytest.approx(2.0)

    def test_unit(self):
        assert omega_of_eps(np.exp(-1.0), 1) == pytest.approx(1.0)

    def test_sqrt_log(self):
        assert omega_of_eps(1e-4, 2) == pytest.approx(3.034854, abs=1e-5)

    def test_monotone(self):
        eps = np.geomspace(0.9, 1e-8, 20)
        vals = [omega_of_eps(e, 2) for e in eps]
        assert np.all(np.diff(vals) > 0)

    def test_bad_eps(self):
        with pytest.raises(BadEps):
            omega_of_eps(1.5, 1)
        with pytest.raises(BadEps):
            omega_of_eps(0.0, 1)


class TestMollifierMoments:
    def test_unit_mass(self):
        assert Mollifier().moment(0) == pytest.approx(1.0, abs=1e-10)

    def test_low_moments_vanish(self):
        # direct windowed quadrature resolves orders 1-3; higher orders hit
        # the double-precision cancellation limit (y^a amplifies the sampled
        # kernel's noise floor faster than the tail decays) and are covered
        # by the transform-flatness round trip below
        m = Mollifier()
        assert abs(m.moment(1)) <= 1e-8
        assert abs(m.moment(2)) <= 1e-8
        assert abs(m.moment(3)) <= 1e-6

    def test_second_moment_vanishes(self):
        # windowed quadrature: the even moments cancel oscillatorily; the
        # window keeps the y^a amplification below the noise floor
        m = Mollifier()
        y, rho = m.kernel_samples(y_max=3000.0)
        val = np.trapezoid(y ** 2 * rho, y)
        assert abs(val) <= 1e-8

    def test_transform_flat_on_plateau(self):
        # inverse-transform round trip: the kernel integrates back to a flat
        # plateau near 0, which encodes all higher moments vanishing at the
        # same resolution (direct y-quadrature of y^a*rho for a >= 3 exceeds
        # double-precision cancellation)
        m = Mollifier()
        y, rho = m.kernel_samples(y_max=3000.0)
        xi = np.linspace(0.0, 0.95, 40)
        vals = np.trapezoid(rho[None, :] * np.cos(np.outer(xi, y)), y, axis=1)
        assert np.max(np.abs(vals - 1.0)) <= 1e-8
        xi_out = np.linspace(2.05, 3.0, 20)
        vals = np.trapezoid(rho[None, :] * np.cos(np.outer(xi_out, y)), y, axis=1)
        assert np.max(np.abs(vals)) <= 1e-8

    def test_kernel_real_even(self):
        m = Mollifier()
        y, rho = m.kernel_samples(y_max=50.0)
        sym = np.interp(-y, y, rho)
        assert np.max(np.abs(rho - sym)) <= 1e-12


class TestEmbedData:
    def test_band_limited_identity(self):
        g = Grid(1, 128, TWO_PI)
        w = GridFunction(g, np.exp(np.sin(g.x_axis())))
        out = embed_data(w, 0.005)
        assert np.max(np.abs(out.values - w.values)) <= 1e-13

    def test_delta_becomes_kernel(self):
        g = Grid(1, 256, TWO_PI)
        delta = GridFunction.delta(g, (128,))
        eps = 0.05
        out = embed_data(delta, eps)
        # independent check: periodized scaled kernel at grid nodes
        x = g.x_axis() - g.x_axis()[128]
        expected = np.zeros_like(x)
        for m in (-1, 0, 1):
            expected += kernel_direct((x + m * TWO_PI) / eps) / eps
        assert np.max(np.abs(out.values.real - expected)) <= 1e-6

    def test_contraction(self, rng):
        g = Grid(1, 64, TWO_PI)
        w = GridFunction(g, rng.standard_normal(64) + 1j * rng.standard_normal(64))
        for eps in (0.01, 0.1, 0.5):
            assert np.sqrt(embed_data(w, eps).norm_sq()) <= \
                np.sqrt(w.norm_sq()) + 1e-12

    def test_error_monotone_decreasing(self, rng):
        g = Grid(1, 64, TWO_PI)
        w = GridFunction(g, rng.standard_normal(64))
        errs = [np.sqrt(g.norm_sq(w.values - embed_data(w, eps).values))
                for eps in np.geomspace(0.5, 1e-3, 12)]
        assert all(a >= b - 1e-14 for a, b in zip(errs, errs[1:]))
        assert errs[-1] <= 1e-12


class TestRoughCoefficients:
    def test_unsupported_kind(self):
        with pytest.raises(UnsupportedRoughKind):
            RoughCoefficient("spline", TWO_PI, breakpoints=[0], values=[1])

    def test_piecewise_constant_eval(self):
        c = RoughCoefficient("piecewise_constant", TWO_PI,
                             breakpoints=[1.0, 4.0], values=[2.0, 1.0])
        assert c.eval_raw(np.array([2.0]))[0] == 2.0
        assert c.eval_raw(np.array([5.0]))[0] == 1.0
        assert c.eval_raw(np.array([0.5]))[0] == 1.0  # wraps below b_0

    def test_parse_every_kind(self):
        # each `rough` production of docs/symbol_schema.md, hand-written,
        # against the coefficient built in code
        cases = [
            ({"kind": "piecewise_constant", "period": TWO_PI,
              "breakpoints": [1.0, 4.0], "values": [2.0, 1.0]},
             RoughCoefficient("piecewise_constant", TWO_PI,
                              breakpoints=[1.0, 4.0], values=[2.0, 1.0])),
            ({"kind": "piecewise_linear", "period": TWO_PI,
              "breakpoints": [0.0, 2.0, 4.0], "values": [1.0, 2.0, 0.5]},
             RoughCoefficient("piecewise_linear", TWO_PI,
                              breakpoints=[0.0, 2.0, 4.0],
                              values=[1.0, 2.0, 0.5])),
            ({"kind": "table", "period": 3.0, "values": [0.5, 1.5, -1.0]},
             RoughCoefficient("table", 3.0, values=[0.5, 1.5, -1.0])),
            ({"kind": "fourier", "period": TWO_PI, "modes": [1, -1, 2],
              "coeffs": [[0.0, -0.5], [0.0, 0.5], [0.25, 0.0]]},
             RoughCoefficient("fourier", TWO_PI, modes=[1, -1, 2],
                              coeffs=[-0.5j, 0.5j, 0.25])),
        ]
        y = np.linspace(-1.0, 2.0 * TWO_PI, 53)
        k = np.arange(-8, 9)
        for data, built in cases:
            parsed = RoughCoefficient.from_json(data)
            assert parsed.kind == built.kind == data["kind"]
            assert np.array_equal(parsed.eval_raw(y), built.eval_raw(y))
            assert np.array_equal(parsed.fourier_coeff(k),
                                  built.fourier_coeff(k))

    def test_unread_key_refused(self):
        # a misspelled or another kind's key is named, not ignored
        for extra in ({"valuez": [9.0]}, {"modes": [1]}):
            with pytest.raises(ValueError, match=repr(next(iter(extra)))):
                RoughCoefficient.from_json(
                    {"kind": "table", "period": 3.0, "values": [0.5], **extra})

    def test_fourier_kind(self):
        c = RoughCoefficient("fourier", TWO_PI, modes=[1, -1],
                             coeffs=[-0.5j, 0.5j])
        y = np.linspace(0, TWO_PI, 64, endpoint=False)
        assert np.allclose(c.eval_raw(y), np.sin(y), atol=1e-14)


class TestMollifiedCoefficient:
    def setup_method(self):
        self.pc = RoughCoefficient("piecewise_constant", TWO_PI,
                                   breakpoints=[1.0, 4.0], values=[2.0, 1.0])

    def _conv_oracle(self, rough, omega, order=0, n_fine=32768):
        """Fine-grid periodized discrete convolution (independent route)."""
        xf = np.linspace(0, TWO_PI, n_fine, endpoint=False)
        u = np.where(xf > np.pi, xf - TWO_PI, xf)
        ker = np.zeros(n_fine)
        for m in range(-6, 7):
            ker += omega ** (order + 1) * kernel_direct(
                omega * (u + m * TWO_PI), order)
        conv = np.fft.ifft(np.fft.fft(rough.eval_raw(xf)) *
                           np.fft.fft(ker)).real * (TWO_PI / n_fine)
        return xf, conv

    def test_value_matches_convolution_oracle(self):
        omega = 4.0
        mc = MollifiedCoefficient(self.pc, omega)
        xf, conv = self._conv_oracle(self.pc, omega)
        x = np.linspace(0, TWO_PI, 257, endpoint=False)
        assert np.max(np.abs(mc.eval(x) - np.interp(x, xf, conv))) <= 5e-4

    def test_derivative_matches_convolution_oracle(self):
        omega = 4.0
        mc = MollifiedCoefficient(self.pc, omega)
        xf, conv = self._conv_oracle(self.pc, omega, order=1)
        x = np.linspace(0, TWO_PI, 257, endpoint=False)
        scale = np.max(np.abs(conv))
        assert np.max(np.abs(mc.eval(x, 1) - np.interp(x, xf, conv))) <= 2e-3 * scale

    def test_derivative_sup_grows_linearly_in_omega(self):
        y = np.linspace(0.0, self.pc.period, 4096, endpoint=False)
        sups = {om: np.max(np.abs(
                    MollifiedCoefficient(self.pc, om).eval(y, 1)))
                for om in (2.0, 4.0, 8.0)}
        for om, s in sups.items():
            assert s / om == pytest.approx(0.5, abs=0.05)

    def test_constant_coefficient_untouched(self):
        cst = RoughCoefficient("piecewise_constant", TWO_PI,
                               breakpoints=[0.0], values=[3.0])
        x = np.linspace(0, TWO_PI, 97)
        for om in (0.7, 2.0, 9.0):
            mc = MollifiedCoefficient(cst, om)
            assert np.max(np.abs(mc.eval(x) - 3.0)) <= 1e-12

    def test_smooth_coefficient_converges(self):
        # moments vanish, so smooth inputs reproduce once the plateau covers
        # their band; sup-difference certainly below C / omega^2
        sin_c = RoughCoefficient("fourier", TWO_PI, modes=[1, -1],
                                 coeffs=[-0.5j, 0.5j])
        x = np.linspace(0, TWO_PI, 257, endpoint=False)
        for om, bound in ((0.6, 10.0 / 0.6 ** 2), (1.5, 1e-12), (4.0, 1e-12)):
            diff = np.max(np.abs(MollifiedCoefficient(sin_c, om)
                                 .eval(x) - np.sin(x)))
            assert diff <= bound


class TestRegularizeSymbol:
    def test_real_output_for_real_input(self):
        pc = RoughCoefficient("piecewise_constant", TWO_PI,
                              breakpoints=[2.0, 4.3], values=[2.0, 1.0])
        sym = regularize_symbol(RoughTransport(speeds=(pc,)), 1, 0.01)
        box = SampleBox(1, TWO_PI, x_count=33, xi_max=64.0,
                        xi_uniform_count=9)
        from onewave.symbols import check_real_valued
        assert check_real_valued(sym.a1, box, 0.0)

    def test_family_members_share_structure(self):
        pc = RoughCoefficient("piecewise_constant", TWO_PI,
                              breakpoints=[2.0, 4.3], values=[2.0, 1.0])
        fam = regularized_family(RoughTransport(speeds=(pc,)), 1,
                                 [0.1 * 0.2 ** i for i in range(6)])
        assert fam.member(0.1).dim == 1

    def test_log_type_verification(self):
        pc = RoughCoefficient("piecewise_constant", TWO_PI,
                              breakpoints=[2.0, 4.3], values=[2.0, 1.0])
        box = SampleBox(1, TWO_PI, xi_max=128.0)
        eps = list(np.geomspace(1e-1, 1e-6, 6))
        rep = verify_log_type_of_regularization(
            regularized_family(pc, 1, eps), 1, box)
        assert rep["is_log_type"]
        # l = 0 is trivially log-type (mollification preserves the sup bound)
        assert rep["orders"][0]["is_log_type"]
        # first-derivative growth coefficient close to jump * kernel peak
        assert rep["orders"][1]["fitted_coeff"] == pytest.approx(0.43, abs=0.1)

    def test_second_derivative_scales_with_omega_squared(self):
        # with k=2 the mollification rate is sqrt(log 1/eps), so second
        # x-derivatives grow like its square, i.e. log(1/eps)
        pc = RoughCoefficient("piecewise_constant", TWO_PI,
                              breakpoints=[2.0, 4.3], values=[2.0, 1.0])
        box = SampleBox(1, TWO_PI, xi_max=128.0)
        eps = list(np.geomspace(1e-1, 1e-6, 6))
        rep = verify_log_type_of_regularization(
            regularized_family(pc, 2, eps), 2, box)
        assert rep["is_log_type"]
        assert rep["orders"][2]["is_log_type"]
