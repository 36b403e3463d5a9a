"""Periodic grids and complex grid functions.

The torus [0, L)^n replaces unbounded space: quantization is spectrally
exact there, at the price of wrap-around for data approaching the boundary.
Scenarios keep supports at least L/4 away from the seam over the whole time
horizon.

Conventions: nodes x_j = j*dx with dx = L/M; frequencies xi_k = 2*pi*k/L for
k in [-M/2, M/2) in FFT ordering; Fourier coefficients u_hat = fftn(u)/M^n so
that u(x) = sum_k u_hat_k exp(i x.xi_k).  The Nyquist mode k = -M/2 has no
partner; scenarios keep data band-limited below half the Nyquist frequency.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import GridMismatch, NonFinite


@dataclass(frozen=True)
class Grid:
    dim: int
    points: int
    length: float

    def __post_init__(self):
        if self.dim not in (1, 2):
            raise ValueError("dim must be 1 or 2")
        if self.points < 2 or self.points % 2:
            raise ValueError("points per axis must be even and >= 2")
        if self.length <= 0:
            raise ValueError("length must be positive")

    @property
    def dx(self) -> float:
        return self.length / self.points

    @property
    def shape(self):
        return (self.points,) * self.dim

    @property
    def size(self) -> int:
        return self.points ** self.dim

    @property
    def cell_volume(self) -> float:
        return self.dx ** self.dim

    @property
    def axes(self):
        """The grid axes of a stack of grid functions (..., *shape)."""
        return tuple(range(-self.dim, 0))

    def x_axis(self) -> np.ndarray:
        return np.arange(self.points) * self.dx

    def xi_axis(self) -> np.ndarray:
        return 2.0 * np.pi * np.fft.fftfreq(self.points, d=self.dx)

    def x_mesh(self):
        ax = self.x_axis()
        if self.dim == 1:
            return (ax,)
        return tuple(np.meshgrid(ax, ax, indexing="ij"))

    def xi_mesh(self):
        ax = self.xi_axis()
        if self.dim == 1:
            return (ax,)
        return tuple(np.meshgrid(ax, ax, indexing="ij"))

    def max_abs_xi(self) -> float:
        return np.pi * self.points / self.length

    def flat_points(self) -> np.ndarray:
        """All nodes as an (size, dim) array (row-major like the values)."""
        mesh = self.x_mesh()
        return np.stack([m.ravel() for m in mesh], axis=-1)

    def norm_sq(self, values: np.ndarray) -> np.ndarray:
        """dx^n * sum |u|^2 of each grid function in values (..., *shape)."""
        sq = np.abs(values)
        sq **= 2
        return self.cell_volume * np.sum(sq, axis=self.axes)

    def spectral_derivative(self, values: np.ndarray, *alphas) -> list:
        """Exact derivatives of the trigonometric interpolant of each grid
        function in values (..., *shape), one array per axis-order
        multi-index in ``alphas``, all from one forward transform; each is
        bitwise the one-alpha call's; no alpha takes no transform."""
        if not alphas:
            return []
        coeffs = np.fft.fftn(values, self.shape, self.axes)
        coeffs /= self.size
        out = []
        for k, alpha in enumerate(alphas):
            d = coeffs if k == len(alphas) - 1 else coeffs.copy()
            for axis, order in enumerate(alpha):
                if order:
                    shape = [1] * self.dim
                    shape[axis] = self.points
                    d *= (1j * self.xi_axis().reshape(shape)) ** order
            np.fft.ifftn(d, self.shape, self.axes, out=d)
            d *= self.size
            out.append(d)
        return out


class GridFunction:
    """Complex-valued function on a periodic grid."""

    __slots__ = ("grid", "values")

    def __init__(self, grid: Grid, values: np.ndarray):
        values = np.asarray(values, dtype=complex)
        if values.shape != grid.shape:
            raise GridMismatch(f"values shape {values.shape} != grid {grid.shape}")
        self.grid = grid
        self.values = values

    @staticmethod
    def zeros(grid: Grid) -> "GridFunction":
        return GridFunction(grid, np.zeros(grid.shape, dtype=complex))

    @staticmethod
    def delta(grid: Grid, node) -> "GridFunction":
        """Unit discrete mass: 1/dx^n at the grid index tuple ``node``, one
        index per axis (fewer would index a whole row)."""
        if len(node) != grid.dim:
            raise ValueError(f"delta node {list(node)} needs one index per "
                             f"axis of a {grid.dim}-D grid")
        vals = np.zeros(grid.shape, dtype=complex)
        vals[tuple(node)] = 1.0 / grid.cell_volume
        return GridFunction(grid, vals)

    def copy(self) -> "GridFunction":
        return GridFunction(self.grid, self.values.copy())

    def check_finite(self):
        if not np.all(np.isfinite(self.values.real)) or \
           not np.all(np.isfinite(self.values.imag)):
            raise NonFinite("grid function contains non-finite values")
        return self

    def __mul__(self, scalar):
        return GridFunction(self.grid, self.values * scalar)

    __rmul__ = __mul__

    def norm_sq(self) -> float:
        return float(self.grid.norm_sq(self.values))

    def dft(self) -> np.ndarray:
        return np.fft.fftn(self.values) / self.grid.size

    @staticmethod
    def from_dft(grid: Grid, coeffs: np.ndarray) -> "GridFunction":
        return GridFunction(grid, np.fft.ifftn(coeffs) * grid.size)
