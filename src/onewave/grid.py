"""Periodic grids and complex grid functions.

The torus [0, L)^n replaces unbounded space: quantization is spectrally
exact there, at the price of wrap-around for data approaching the boundary.
Scenarios keep supports at least L/4 away from the seam over the whole time
horizon.

Conventions: nodes x_j = j*dx with dx = L/M; frequencies xi_k = 2*pi*k/L for
k in [-M/2, M/2) in FFT ordering; a spectrum is the plain u_hat = fftn(u), so
that u(x_j) = M^-n sum_k u_hat_k exp(i x_j.xi_k).  The Nyquist mode k = -M/2
has no partner; scenarios keep data band-limited below half the Nyquist
frequency.
"""

from __future__ import annotations

import math
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

    def derivative_spectra(self, spectra: np.ndarray, alpha) -> np.ndarray:
        """The spectra (fftn of grid values, or a real function's half
        spectrum, rfftn's M/2 + 1 columns on the last axis) of d_x^alpha of
        the grid functions whose spectra are in spectra: the multiply by
        (i xi)^alpha, alpha one order per axis; spectra for alpha = 0."""
        if not any(alpha):
            return spectra
        width = spectra.shape[-1]
        return math.prod((1j * xi[..., :width]) ** order
                         for xi, order in zip(self.xi_mesh(), alpha)) * spectra

    def spectral_norm_sq(self, spectra: np.ndarray, sq=None) -> np.ndarray:
        """norm_sq of each grid function whose spectrum is in spectra, by
        Parseval: dx^n sum |u^|^2 / M^n over fftn's spectrum (..., *shape).
        A half spectrum, read by its width M/2 + 1 < M, weights its last
        axis's columns 1, 2, ..., 2, 1 (columns 1..M/2-1 stand for their
        conjugates), summed as twice the whole less columns 0 and M/2.
        ``sq``, a real array of spectra's shape, takes |u^|^2 if given."""
        sq = np.abs(spectra, out=sq)
        sq **= 2
        total = self.cell_volume * sq.sum(self.axes) / self.size
        if spectra.shape[-1] == self.points:
            return total
        edges = np.ascontiguousarray(sq[..., ::self.points // 2])
        return 2.0 * total - self.cell_volume * edges.sum(self.axes) / \
            self.size

    def inverse(self, spectra: np.ndarray) -> np.ndarray:
        """The grid values, complex, of the spectra in spectra: ifftn, or
        irfftn of half spectra (see spectral_norm_sq)."""
        if spectra.shape[-1] == self.points:
            return np.fft.ifftn(spectra, self.shape, self.axes)
        return np.fft.irfftn(spectra, self.shape, self.axes).astype(complex)

    def forward(self, values: np.ndarray, like: np.ndarray) -> np.ndarray:
        """The spectra of the grid values in values, as wide as the spectra
        ``like``: fftn, or rfftn of real values for half spectra."""
        if like.shape[-1] == self.points:
            return np.fft.fftn(values, self.shape, self.axes)
        return np.fft.rfftn(values, self.shape, self.axes)

    def full_spectra(self, spectra: np.ndarray) -> np.ndarray:
        """fftn's spectra of the grid functions whose spectra are in
        spectra: spectra itself, or a half spectrum's Hermitian completion,
        column k > M/2 of the last axis the conjugate of column M - k at
        the negated indices of the other axes."""
        n = spectra.shape[-1]
        if n == self.points:
            return spectra
        return np.concatenate([spectra, np.conjugate(np.roll(np.flip(
            spectra[..., 1:n - 1], self.axes), 1, self.axes[:-1]))], axis=-1)

    def spectral_derivative(self, values: np.ndarray, alpha) -> np.ndarray:
        """d_x^alpha of the trigonometric interpolant of each grid function
        in values (..., *shape), alpha one order per axis."""
        hat = self.derivative_spectra(
            np.fft.fftn(values, self.shape, self.axes), alpha)
        return np.fft.ifftn(hat, self.shape, self.axes, out=hat)


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
