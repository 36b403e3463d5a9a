"""Grids, grid functions, and artifact serialization."""

import numpy as np
import pytest

from onewave import io as owio
from onewave.cauchy import CauchyProblem, solve_fixed_eps
from onewave.errors import GridMismatch
from onewave.grid import Grid, GridFunction
from onewave.symbols import HyperbolicSymbol, SymbolExpr
from onewave import expr as ex

TWO_PI = 2.0 * np.pi


class TestGrid:
    def test_frequencies_symmetric_except_nyquist(self, grid32):
        xi = grid32.xi_axis()
        mask = np.arange(grid32.points) == grid32.points // 2
        assert mask.sum() == 1
        paired = np.sort(xi[~mask])
        assert np.allclose(paired, -paired[::-1])

    def test_rejects_odd_points(self):
        with pytest.raises(ValueError):
            Grid(1, 33, TWO_PI)

    def test_norm_convention(self, grid32):
        ones = GridFunction(grid32, np.ones(32))
        assert ones.norm_sq() == pytest.approx(TWO_PI)

    def test_spectral_derivative(self, grid32):
        x = grid32.x_axis()
        [du] = grid32.spectral_derivative(np.sin(3 * x), (1,))
        assert np.max(np.abs(du - 3 * np.cos(3 * x))) <= 1e-11

    def test_grid_mismatch(self, grid32):
        with pytest.raises(GridMismatch):
            GridFunction(grid32, np.zeros(64))

    def test_delta_unit_mass(self, grid32):
        d = GridFunction.delta(grid32, (5,))
        assert grid32.cell_volume * np.sum(d.values.real) == pytest.approx(1.0)


class TestTrajectoryFormat:
    def test_round_trip(self, grid32, tmp_path):
        a1 = SymbolExpr(ex.CoordXi(0), 1.0, 1)
        x = grid32.x_axis()
        prob = CauchyProblem(symbol=HyperbolicSymbol(a1=a1),
                             initial=GridFunction(grid32, np.sin(x)),
                             horizon=0.25)
        res = solve_fixed_eps(prob, 0.01, seed=0)
        path = owio.write_trajectory(tmp_path / "traj.bin", res)
        grid_back, dt, stride, snap_times, states = owio.read_trajectory(path)
        assert grid_back == grid32
        assert dt == pytest.approx(res.dt)
        assert len(snap_times) == len(res.snap_times)
        assert snap_times == pytest.approx(res.snap_times)
        assert np.array_equal(states, res.states)

    def test_one_step_solve_has_stride_one(self, grid32, tmp_path):
        # two snapshots, t = 0 and t = dt, one step apart
        prob = CauchyProblem(symbol=HyperbolicSymbol(
            a1=SymbolExpr(ex.CoordXi(0), 1.0, 1)),
            initial=GridFunction(grid32, np.sin(grid32.x_axis())),
            horizon=0.1)
        res = solve_fixed_eps(prob, 0.1, seed=0)
        path = owio.write_trajectory(tmp_path / "traj.bin", res)
        _, dt, stride, snap_times, _ = owio.read_trajectory(path)
        assert len(snap_times) == 2 and dt == 0.1
        assert stride == 1

    def test_magic_guard(self, tmp_path):
        bad = tmp_path / "bad.bin"
        bad.write_bytes(b"NOTMAGIC" + b"\x00" * 64)
        with pytest.raises(ValueError):
            owio.read_trajectory(bad)


class TestCsvDeterminism:
    def test_byte_identical(self, tmp_path):
        rows = [(0.1, 1.23456789012345e-7, 3, True, "x"),
                (0.2, 2.0, 4, False, "y")]
        p1 = owio.write_csv(tmp_path / "a.csv", ("t", "v", "n", "flag", "tag"),
                            rows)
        p2 = owio.write_csv(tmp_path / "b.csv", ("t", "v", "n", "flag", "tag"),
                            rows)
        assert p1.read_bytes() == p2.read_bytes()

    def test_ledger_csv_columns(self, grid32, tmp_path):
        a1 = SymbolExpr(ex.CoordXi(0), 1.0, 1)
        x = grid32.x_axis()
        prob = CauchyProblem(symbol=HyperbolicSymbol(a1=a1),
                             initial=GridFunction(grid32, np.sin(x)),
                             horizon=0.25)
        res = solve_fixed_eps(prob, 0.01, seed=0)
        path = owio.write_ledger_csv(tmp_path / "ledger.csv", res.ledger)
        header = path.read_text().splitlines()[0]
        assert header == "t,u_norm_sq,f_norm_sq,bound_rhs,margin"
