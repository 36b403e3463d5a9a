import numpy as np
import pytest

from onewave import expr as ex
from onewave import quantization
from onewave.grid import Grid, GridFunction
from onewave.symbols import SymbolExpr

TWO_PI = 2.0 * np.pi


@pytest.fixture
def rng():
    return np.random.default_rng(20240817)


@pytest.fixture
def grid32():
    return Grid(1, 32, TWO_PI)


@pytest.fixture
def grid256():
    return Grid(1, 256, TWO_PI)


@pytest.fixture
def xi_symbol():
    """a(x, xi) = xi, the unit transport symbol."""
    return SymbolExpr(ex.CoordXi(0), 1.0, 1)


@pytest.fixture
def variable_speed_symbol():
    """a(x, xi) = (2 + sin x) xi."""
    c = ex.add(ex.Const(2.0), ex.Sin(ex.CoordX(0)))
    return SymbolExpr(ex.mul(c, ex.CoordXi(0)), 1.0, 1)


@pytest.fixture
def bump_speed_symbol():
    """a(x, xi) = bump(x) xi with compact x-support."""
    bump = ex.SmoothBump(ex.CoordX(0), np.pi, 2.4)
    return SymbolExpr(ex.mul(bump, ex.CoordXi(0)), 1.0, 1)


def random_grid_function(grid, rng):
    vals = rng.standard_normal(grid.shape) + 1j * rng.standard_normal(grid.shape)
    return GridFunction(grid, vals)


def band_projector(grid):
    """The norm estimators' band projector on grid values:
    ifftn(mask * fftn(v)), with the mask they multiply spectra by."""
    mask = quantization._band_mask(grid)

    def project(v):
        return np.fft.ifftn(np.fft.fftn(v, grid.shape, grid.axes) * mask,
                            grid.shape, grid.axes)
    return project
