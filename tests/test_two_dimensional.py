"""Two-dimensional coverage: symbols, semi-norms, solves."""

import numpy as np
import pytest

from onewave import expr as ex
from onewave.cauchy import CauchyProblem, DtPolicy, check_case_variants, \
    check_energy_estimate, solve_fixed_eps
from onewave.grid import Grid, GridFunction
from onewave.quantization import adjoint_defect_norm
from onewave.symbols import (HyperbolicSymbol, SampleBox, SymbolExpr,
                             eval_symbol, seminorm_c)

TWO_PI = 2.0 * np.pi


def plane_symbol():
    """a = c1(x1) xi1 + c2(x2) xi2 with smooth speeds."""
    c1 = ex.add(ex.Const(2.0), ex.mul(ex.Const(0.5), ex.Sin(ex.CoordX(0))))
    c2 = ex.add(ex.Const(1.5), ex.mul(ex.Const(0.3), ex.Cos(ex.CoordX(1))))
    root = ex.add(ex.mul(c1, ex.CoordXi(0)), ex.mul(c2, ex.CoordXi(1)))
    return SymbolExpr(root, 1.0, 2)


class TestSymbols2D:
    def test_mixed_partial(self):
        s = plane_symbol()
        # d_xi1 d_x1 a = 0.5 cos(x1)
        got = eval_symbol(s, 0.0, (1.0, 2.0), (3.0, -1.0),
                          alpha=(1, 0), beta=(1, 0))
        assert got == pytest.approx(0.5 * np.cos(1.0))

    def test_japanese_bracket_radial(self):
        s = SymbolExpr(ex.JapaneseBracket(1.0), 1.0, 2)
        val = eval_symbol(s, 0.0, (0.0, 0.0), (3.0, 4.0))
        assert val == pytest.approx(np.sqrt(26.0))

    def test_seminorm_order_one(self):
        box = SampleBox(2, TWO_PI, x_count=17, xi_max=64.0,
                        xi_uniform_count=9)
        v = seminorm_c(plane_symbol(), 1.0, (0, 0), (0, 0), box)
        # the diagonal xi direction dominates: (max c1 + max c2)/sqrt(2) ~ 3.04
        assert 2.8 <= v <= 3.1


class TestSolve2D:
    def test_constant_transport_exact(self):
        grid = Grid(2, 32, TWO_PI)
        a1 = SymbolExpr(ex.add(ex.CoordXi(0),
                               ex.mul(ex.Const(0.5), ex.CoordXi(1))), 1.0, 2)
        sym = HyperbolicSymbol(a1=a1, x_independent_outside=0.0)
        x1, x2 = grid.x_mesh()
        g0 = GridFunction(grid, np.sin(x1) + np.cos(2 * x2))
        prob = CauchyProblem(symbol=sym, initial=g0, horizon=0.5)
        res = solve_fixed_eps(prob, DtPolicy(dt=2e-3), seed=0)
        exact = np.sin(x1 - 0.5) + np.cos(2 * (x2 - 0.25))
        assert np.max(np.abs(res.final().values - exact)) <= 1e-8

    def test_variable_speed_energy(self):
        grid = Grid(2, 32, TWO_PI)
        sym = HyperbolicSymbol(a1=plane_symbol())
        x1, x2 = grid.x_mesh()
        g0 = GridFunction(grid, np.sin(x1) * np.cos(x2))
        prob = CauchyProblem(symbol=sym, initial=g0, horizon=0.3)
        res = solve_fixed_eps(prob, seed=0)
        rep = check_energy_estimate(res.ledger)
        assert rep["pointwise_ok"] and rep["gronwall_ok"]

    def test_defect_norm_bounded(self):
        grid = Grid(2, 32, TWO_PI)
        est = adjoint_defect_norm(plane_symbol(), 0.0, grid, seed=1)
        # skew defect ~ max |div of the speed field| ~ 0.5
        assert est.value <= 1.0

    def test_real_a0_case_c(self):
        grid = Grid(2, 32, TWO_PI)
        a0 = SymbolExpr(ex.mul(ex.Const(0.5),
                               ex.Cos(ex.add(ex.CoordX(0), ex.CoordX(1)))),
                        0.0, 2)
        sym = HyperbolicSymbol(a1=plane_symbol(), a0=a0)
        x1, x2 = grid.x_mesh()
        g0 = GridFunction(grid, np.sin(x1) * np.cos(x2))
        prob = CauchyProblem(symbol=sym, initial=g0, horizon=0.1)
        rep = check_case_variants(
            prob, solve_fixed_eps(prob, seed=0),
            seed=0)
        assert rep["case_c"]["applicable"]
        assert rep["case_c"]["dominates_measured"]
        assert rep["case_c"]["gronwall_ok"]
