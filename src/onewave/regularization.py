"""Moment-vanishing mollifiers and eps-regularization of rough data/symbols.

The mollifier is built in frequency space: its transform is an even smooth
plateau, identically 1 on |xi| <= 1 and 0 on |xi| >= 2.  A flat plateau at
the origin makes every moment of order >= 1 vanish exactly, and spectral
embedding of grid data becomes an exact multiplier.

Rough spatial coefficients are stored analytically (breakpoints and values)
and treated as periodic on their stated period.  Their mollification then has
an exact finite Fourier series,

    (rho_omega * c)(x) = sum_k  c_hat_k * rho_hat(xi_k / omega) * e^(i xi_k x),

truncated by the compact support of rho_hat, so values and x-derivatives of
any order are closed-form.  Grid sampling happens only at quantization time.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import expr as ex
from . import profiles
from .errors import BadEps, GridMismatch, UnsupportedRoughKind
from .grid import GridFunction
from .symbols import (GenSymbolFamily, HyperbolicSymbol, SymbolExpr,
                      classify_log_type)

__all__ = [
    "Mollifier", "RoughCoefficient", "MollifiedCoefficient",
    "omega_of_eps", "embed_data", "regularize_symbol", "regularized_family",
    "verify_log_type_of_regularization",
]


class Mollifier:
    """Even real mollifier defined by its frequency-space plateau profile,
    radial, so one serves every dimension."""

    cutoff_radius = 2.0     # rho_hat is 0 from here on

    def __init__(self):
        self._kernel_cache = None

    def profile(self, r):
        """rho_hat as a function of radial frequency (vectorized)."""
        return profiles.plateau(np.asarray(r, dtype=float), 1.0,
                                self.cutoff_radius)

    def kernel_samples(self, y_max: float):
        """Sample the 1-D kernel rho uniformly via an FFT over |xi| <= 16.

        Returns (y, rho(y)); used as the independent y-space route for moment
        and convolution oracles (the production path never needs rho itself).
        """
        if self._kernel_cache is None:
            n = 1 << 20
            dxi = 2.0 * 16.0 / n
            xi = (np.arange(n) - n // 2) * dxi
            prof = self.profile(np.abs(xi))
            # continuous FT convention: rho(y) = (1/2pi) int rho_hat e^{iy xi} dxi
            vals = np.fft.fft(np.fft.ifftshift(prof)) * dxi / (2.0 * np.pi)
            y = 2.0 * np.pi * np.fft.fftfreq(n, d=dxi)
            order = np.argsort(y)
            self._kernel_cache = (y[order], vals[order].real)
        y, vals = self._kernel_cache
        keep = np.abs(y) <= y_max
        return y[keep], vals[keep]

    def moment(self, alpha: int) -> float:
        """Numerical moment integral of y^alpha rho(y) dy over the sampled
        kernel (trapezoid over |y| <= 3000).

        The window balances the superpolynomial kernel tail against the
        y^alpha amplification of sampling noise; moments of order >= 3 sit at
        the double-precision cancellation limit, which is why the moment
        property is additionally verified through the flat-plateau transform
        round trip (see the regularization tests)."""
        y, rho = self.kernel_samples(y_max=3000.0)
        return float(np.trapezoid(y ** alpha * rho, y))


def omega_of_eps(eps: float, k: int = 1) -> float:
    """Mollification rate (log(1/eps))^(1/k); strictly increasing as eps -> 0."""
    if not 0.0 < eps < 1.0:
        raise BadEps(f"eps must lie in (0, 1), got {eps}")
    if k < 1 or int(k) != k:
        raise ValueError("k must be an integer >= 1")
    return math.log(1.0 / eps) ** (1.0 / k)


class RoughCoefficient:
    """Periodic rough coefficient given analytically.

    kinds:
      piecewise_constant  breakpoints b_i in [0, P), value v_i on [b_i, b_{i+1})
      piecewise_linear    node values v_i at b_i, linear in between (wraps)
      table               uniform piecewise-constant samples over the period
      fourier             finite series sum_k coeff_k e^(2 pi i k y / P)
    """

    # the JSON keys each kind reads besides "kind" and "period"
    FIELDS = {"piecewise_constant": {"breakpoints", "values"},
              "piecewise_linear": {"breakpoints", "values"},
              "table": {"values"}, "fourier": {"modes", "coeffs"}}
    KINDS = tuple(FIELDS)

    def __init__(self, kind: str, period: float, breakpoints=None, values=None,
                 modes=None, coeffs=None):
        if kind not in self.KINDS:
            raise UnsupportedRoughKind(f"unsupported rough kind {kind!r}")
        if period <= 0:
            raise ValueError("period must be positive")
        self.kind = kind
        self.period = float(period)
        if kind == "fourier":
            self.modes = np.asarray(modes, dtype=int)
            self.coeffs = np.asarray(coeffs, dtype=complex)
            if self.modes.shape != self.coeffs.shape:
                raise ValueError("modes and coeffs must align")
            self.breakpoints = None
            self.values = None
        elif kind == "table":
            self.values = np.asarray(values, dtype=float)
            n = self.values.size
            self.breakpoints = np.arange(n) * self.period / n
        else:
            self.breakpoints = np.asarray(breakpoints, dtype=float)
            self.values = np.asarray(values, dtype=float)
            if self.breakpoints.size != self.values.size:
                raise ValueError("breakpoints and values must align")
            if np.any(np.diff(self.breakpoints) <= 0):
                raise ValueError("breakpoints must be strictly increasing")
            if self.breakpoints[0] < 0 or self.breakpoints[-1] >= period:
                raise ValueError("breakpoints must lie in [0, period)")
        if self.values is not None and not np.all(np.isfinite(
                np.append(self.breakpoints, self.values))):
            raise ValueError("breakpoints and values must be finite")

    # -- analytic Fourier coefficients ---------------------------------------
    def fourier_coeff(self, k: np.ndarray) -> np.ndarray:
        """Exact Fourier coefficients c_hat_k, c(y) = sum c_hat_k e^(i xi_k y)."""
        k = np.asarray(k, dtype=int)
        xi = 2.0 * np.pi * k / self.period
        out = np.zeros(k.shape, dtype=complex)
        if self.kind == "fourier":
            for m, c in zip(self.modes, self.coeffs):
                out[k == m] = c
            return out
        b = self.breakpoints
        v = self.values
        nz = k != 0
        if self.kind in ("piecewise_constant", "table"):
            widths = np.diff(np.append(b, b[0] + self.period))
            out[~nz] = np.sum(v * widths) / self.period
            jumps = v - np.roll(v, 1)  # jump of c at each breakpoint
            xin = xi[nz]
            phase = np.exp(-1j * np.outer(xin, b))
            out[nz] = (phase @ jumps) / (1j * xin * self.period)
            return out
        # piecewise linear: c' is piecewise constant with slope jumps at b
        widths = np.diff(np.append(b, b[0] + self.period))
        v_next = np.roll(v, -1)
        slopes = (v_next - v) / widths
        out[~nz] = np.sum(0.5 * (v + v_next) * widths) / self.period
        slope_jumps = slopes - np.roll(slopes, 1)
        xin = xi[nz]
        phase = np.exp(-1j * np.outer(xin, b))
        out[nz] = (phase @ slope_jumps) / ((1j * xin) ** 2 * self.period)
        return out

    def eval_raw(self, y) -> np.ndarray:
        """Direct evaluation of the unmollified coefficient (oracle path)."""
        y = np.mod(np.asarray(y, dtype=float), self.period)
        if self.kind == "fourier":
            xi = 2.0 * np.pi * self.modes / self.period
            out = np.zeros(y.shape, dtype=complex)
            for w, c in zip(xi, self.coeffs):
                out += c * np.exp(1j * w * y)
            return out.real
        idx = np.searchsorted(self.breakpoints, y, side="right") - 1
        idx = np.mod(idx, self.breakpoints.size)
        if self.kind in ("piecewise_constant", "table"):
            return self.values[idx]
        b = self.breakpoints
        widths = np.diff(np.append(b, b[0] + self.period))
        v_next = np.roll(self.values, -1)
        frac = np.mod(y - b[idx], self.period) / widths[idx]
        return self.values[idx] * (1 - frac) + v_next[idx] * frac

    @staticmethod
    def from_json(data: dict) -> "RoughCoefficient":
        """Parse a rough coefficient; a key its kind does not read is
        refused, also inside an expression node, which the config schema
        leaves open."""
        kind = data["kind"]
        if kind in RoughCoefficient.FIELDS:
            unread = sorted(set(data) - {"kind", "period"}
                            - RoughCoefficient.FIELDS[kind])
            if unread:
                raise ValueError(f"rough coefficient of kind {kind!r} does "
                                 f"not read {', '.join(map(repr, unread))}")
        if kind == "fourier":
            coeffs = [complex(c[0], c[1]) for c in data["coeffs"]]
            return RoughCoefficient(kind, data["period"], modes=data["modes"],
                                    coeffs=coeffs)
        if kind == "table":
            return RoughCoefficient(kind, data["period"], values=data["values"])
        return RoughCoefficient(kind, data["period"],
                                breakpoints=data["breakpoints"],
                                values=data["values"])


class MollifiedCoefficient:
    """Exact finite Fourier series of the omega-mollified rough coefficient.

    Its modes k with nonzero coefficients (xi_k = 2 pi k / period) fall
    into runs of consecutive modes.  A run k_0..k_r is summed as
    e^(i xi_k_0 y) (w_0 + z (w_1 + ... + z w_r)) by Horner's rule in
    z = e^(2 pi i y / period), so a value costs one exponential per run
    (and z) and one multiply-add per further mode at each point, grid nodes
    and sample points alike; lone modes are summed as a direct sum does."""

    def __init__(self, rough: RoughCoefficient, omega: float):
        kmax = int(math.floor(Mollifier.cutoff_radius * omega *
                              rough.period / (2.0 * math.pi)))
        if rough.kind == "fourier":
            kmax = min(kmax, int(np.max(np.abs(rough.modes))) if rough.modes.size else 0)
        k = np.arange(-kmax, kmax + 1)
        xi = 2.0 * np.pi * k / rough.period
        damp = Mollifier().profile(np.abs(xi) / omega)
        coeffs = rough.fourier_coeff(k) * damp
        keep = np.abs(coeffs) > 0
        if not keep.any():
            keep[k == 0] = True
        self.xi = xi[keep]
        self.coeffs = coeffs[keep]
        # the first index of each run of consecutive modes, and its end
        self.first = np.flatnonzero(np.diff(k[keep], prepend=-kmax - 2) != 1)
        self.runs = list(zip(self.first.tolist(),
                             self.first[1:].tolist() + [len(self.xi)]))
        self.z_xi = 2.0 * np.pi / rough.period

    def eval(self, y: np.ndarray, order: int = 0) -> np.ndarray:
        """Re sum_k c_k (i xi_k)^order e^(i xi_k y), the order-th
        x-derivative, at the points y (any shape)."""
        y = np.asarray(y, dtype=float)
        flat = y.reshape(-1)
        weights = self.coeffs * (1j * self.xi) ** order
        phases = np.exp(1j * np.outer(flat, self.xi[self.first]))
        out = phases @ weights[self.first]
        if len(self.runs) < len(self.xi):       # some run has more modes
            z = np.exp(1j * self.z_xi * flat)
        for r, (first, end) in enumerate(self.runs):
            if end - first > 1:     # z (w_1 + z (w_2 + ...)), by Horner
                acc = np.full(flat.shape, weights[end - 1])
                for w in weights[end - 2:first:-1]:
                    np.multiply(acc, z, out=acc)
                    acc += w
                acc *= z
                acc *= phases[:, r]
                out += acc
        return out.real.reshape(y.shape)


def embed_data(w, eps: float) -> GridFunction:
    """Spectral embedding w * rho_eps computed as w_hat(xi) * rho_hat(eps xi),
    rho the Mollifier.

    Exact on the grid for band-limited w; a contraction in L2 because the
    profile is bounded by 1.
    """
    if not isinstance(w, GridFunction):
        raise GridMismatch("embed_data expects a GridFunction on the target grid")
    if eps <= 0:
        raise BadEps("eps must be positive")
    mag = np.sqrt(sum(np.asarray(c) ** 2 for c in w.grid.xi_mesh()))
    return GridFunction(w.grid, np.fft.ifftn(
        np.fft.fftn(w.values) * Mollifier().profile(eps * mag)))


@dataclass
class RoughTransport:
    """Rough data for a symbol of the form sum_j c_j(x) xi_j + b(x)."""

    speeds: tuple
    zero_order: RoughCoefficient | None = None
    x_independent_outside: float | None = None

    def __post_init__(self):
        if isinstance(self.speeds, RoughCoefficient):
            self.speeds = (self.speeds,)
        self.speeds = tuple(self.speeds)
        if not self.speeds:
            raise ValueError("at least one speed coefficient required")

    @property
    def dim(self):
        return len(self.speeds)


def regularize_symbol(rough, k: int, eps: float) -> HyperbolicSymbol:
    """Mollify each rough coefficient at rate omega_of_eps(eps, k) and
    assemble the hyperbolic symbol; x-derivatives stay exact via the
    mollified expression node."""
    if isinstance(rough, RoughCoefficient):
        rough = RoughTransport((rough,))
    dim = rough.dim
    omega = omega_of_eps(eps, k)

    def mollified_node(coeff: RoughCoefficient, axis: int) -> ex.Expr:
        return ex.MollifiedCoeff(MollifiedCoefficient(coeff, omega),
                                 axis=axis)

    terms = []
    for axis, coeff in enumerate(rough.speeds):
        terms.append(ex.mul(mollified_node(coeff, axis), ex.CoordXi(axis)))
    a1 = SymbolExpr(ex.add(*terms), 1.0, dim)
    a0 = None
    if rough.zero_order is not None:
        a0 = SymbolExpr(mollified_node(rough.zero_order, 0), 0.0, dim)
    return HyperbolicSymbol(a1=a1, a0=a0,
                            x_independent_outside=rough.x_independent_outside)


def regularized_family(rough, k: int, eps_grid) -> GenSymbolFamily:
    builder = lambda eps: regularize_symbol(rough, k, eps)
    return GenSymbolFamily(builder, eps_grid)


def verify_log_type_of_regularization(fam: GenSymbolFamily, k: int,
                                      box) -> dict:
    """Classify log-type growth of ``fam`` = regularized_family(rough, k, ...)
    for every x-derivative order l <= k (the orders its rate protects)."""
    per_order = {}
    all_ok = True
    for l in range(k + 1):
        verdict = classify_log_type(fam, 0, l, box)
        per_order[l] = verdict
        all_ok = all_ok and verdict["is_log_type"]
    return {"is_log_type": all_ok, "orders": per_order,
            "mollification_k": k}
