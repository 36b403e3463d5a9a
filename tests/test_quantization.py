"""Operator application, adjoints, norms, and the oscillatory remainder."""

import functools
import json
import math
import os
import subprocess
import sys
import tracemalloc
import weakref
from collections import Counter
from pathlib import Path
from types import SimpleNamespace

import numpy as np
import pytest

from onewave import asymptotics, cauchy, quantization, scenario
from onewave import expr as ex
from onewave.config import TRAJECTORY_STRIDE
from onewave.errors import BoxTooSmall, DimensionMismatch, TooLarge
from onewave.grid import Grid, GridFunction
from onewave.presets import get_preset, list_presets
from onewave.profiles import _gl_nodes, plateau
from onewave.quantization import (LAM, PeriodicOperator,
                                  _contract, _kernel, _r_theta,
                                  _remainder_integrand_trees,
                                  adjoint_defect_norm, adjoint_defect_norms,
                                  adjoint_symbol_remainder,
                                  check_remainder_estimate, op_matrix,
                                  operator_norm, operator_norms,
                                  power_iteration,
                                  symbol_from_matrix)
from onewave.scenario import run_scenario
from onewave.symbols import (HyperbolicSymbol, SampleBox, SymbolExpr,
                             seminorm_Q)

from conftest import band_projector, random_grid_function

TWO_PI = 2.0 * np.pi
BENCH = Path(__file__).resolve().parents[1] / "bench"

# Operator-norm calibration: measured L2 norm of an order-0 symbol
# <= CV_CONSTANT * Q^0_{0,f,f} with f = floor(n/2)+1.  Corpus maxima were
# 0.995 (n=1) and 0.865 (n=2); frozen with a 1.25 safety factor.
CV_CONSTANT = {1: 1.25, 2: 1.25}


def apply_op(s, t, u):
    return GridFunction(u.grid, PeriodicOperator(s, u.grid).apply(t, u.values))


class TestApplyOp:
    def test_identity_symbol(self, grid32, rng):
        one = SymbolExpr(ex.ONE, 0.0, 1)
        u = random_grid_function(grid32, rng)
        assert np.max(np.abs(apply_op(one, 0.0, u).values - u.values)) <= 1e-13

    def test_fourier_mode_eigenvector(self, grid32, xi_symbol):
        x = grid32.x_axis()
        for k in (1.0, 3.0, -5.0):
            mode = GridFunction(grid32, np.exp(1j * k * x))
            out = apply_op(xi_symbol, 0.0, mode)
            assert np.max(np.abs(out.values - k * mode.values)) <= 1e-11

    def test_multiplication_operator(self, grid32, rng):
        s = SymbolExpr(ex.Sin(ex.CoordX(0)), 0.0, 1)
        u = random_grid_function(grid32, rng)
        out = apply_op(s, 0.0, u)
        expected = np.sin(grid32.x_axis()) * u.values
        assert np.max(np.abs(out.values - expected)) <= 1e-12

    def test_matches_dense_matrix(self, variable_speed_symbol, rng):
        for m in (16, 32, 64):
            g = Grid(1, m, TWO_PI)
            op = PeriodicOperator(variable_speed_symbol, g)
            mat = op.matrix(0.0)
            u = random_grid_function(g, rng)
            via_apply = op.apply(0.0, u.values)
            via_matrix = (mat @ u.values.ravel()).reshape(g.shape)
            assert np.max(np.abs(via_apply - via_matrix)) <= 1e-10

    def test_dense_path_matches_matrix(self, grid32, rng):
        # sin(x * xi) is not separable, forcing the dense table route
        mixed = SymbolExpr(ex.Sin(ex.mul(ex.CoordX(0), ex.CoordXi(0))), 0.0, 1)
        op = PeriodicOperator(mixed, grid32)
        assert not op.separable
        u = random_grid_function(grid32, rng)
        via_apply = op.apply(0.0, u.values)
        via_matrix = (op.matrix(0.0) @ u.values.ravel()).reshape(grid32.shape)
        assert np.max(np.abs(via_apply - via_matrix)) <= 1e-12

    @pytest.mark.parametrize("dim", [1, 2])
    def test_dense_stack_applies_row_by_row(self, dim, rng):
        # a stack of grid functions meets a dense table one row at a time,
        # each row bitwise its one-row apply
        grid = Grid(dim, 8, TWO_PI)
        mixed = SymbolExpr(ex.Sin(ex.mul(ex.CoordX(0), ex.CoordXi(dim - 1))),
                           0.0, dim)
        op = PeriodicOperator(mixed, grid)
        assert not op.separable
        stack = np.stack([random_grid_function(grid, rng).values
                          for _ in range(3)])
        for apply in (op.apply, op.apply_adjoint):
            got = apply(0.0, stack)
            assert got.shape == stack.shape
            for row, want in zip(got, stack):
                assert np.array_equal(row, apply(0.0, want))

    def test_two_dimensional_consistency(self, rng):
        g = Grid(2, 8, TWO_PI)
        s = SymbolExpr(
            ex.add(ex.mul(ex.add(ex.Const(2.0), ex.Sin(ex.CoordX(0))),
                          ex.CoordXi(0)),
                   ex.mul(ex.Cos(ex.CoordX(1)), ex.CoordXi(1))), 1.0, 2)
        op = PeriodicOperator(s, g)
        u = rng.standard_normal((8, 8)) + 1j * rng.standard_normal((8, 8))
        via_apply = op.apply(0.0, u)
        via_matrix = (op.matrix(0.0) @ u.ravel()).reshape(8, 8)
        assert np.max(np.abs(via_apply - via_matrix)) <= 1e-12

    def test_multiplier_composition_commutes(self, grid32, rng):
        g_sym = SymbolExpr(ex.SmoothStep(ex.JapaneseBracket(1.0), 4.0, 8.0),
                           0.0, 1)
        h_sym = SymbolExpr(ex.JapaneseBracket(-1.0), 0.0, 1)
        gh = SymbolExpr(ex.mul(g_sym.root, h_sym.root), 0.0, 1)
        u = random_grid_function(grid32, rng)
        a = apply_op(g_sym, 0.0, apply_op(h_sym, 0.0, u))
        b = apply_op(h_sym, 0.0, apply_op(g_sym, 0.0, u))
        c = apply_op(gh, 0.0, u)
        assert np.max(np.abs(a.values - c.values)) <= 1e-10
        assert np.max(np.abs(b.values - c.values)) <= 1e-10

    def test_dimension_mismatch(self, grid32):
        s2 = SymbolExpr(ex.CoordXi(1), 1.0, 2)
        with pytest.raises(DimensionMismatch):
            PeriodicOperator(s2, grid32)

    def test_dense_guard(self):
        g = Grid(1, 8192, TWO_PI)
        mixed = SymbolExpr(ex.Sin(ex.mul(ex.CoordX(0), ex.CoordXi(0))), 0.0, 1)
        op = PeriodicOperator(mixed, g)
        with pytest.raises(TooLarge):
            op.apply(0.0, np.zeros(g.shape, dtype=complex))


class TestRows:
    """Row k of a stack applies its own symbol at its own time, bitwise its
    one-symbol apply."""

    # (1 + t)(2 + sin x) xi and cos(x) xi^2 / 8: separable, one term each;
    # xi + 0.01 (1 + t) sin(x xi): dense
    T_SEP = ex.mul(ex.add(ex.Const(1.0), ex.CoordT()),
                   ex.add(ex.Const(2.0), ex.Sin(ex.CoordX(0))), ex.CoordXi(0))
    FIXED_SEP = ex.mul(ex.Const(0.125), ex.Cos(ex.CoordX(0)),
                       ex.CoordXi(0), ex.CoordXi(0))
    T_DENSE = ex.add(ex.CoordXi(0), ex.mul(
        ex.Const(0.01), ex.add(ex.Const(1.0), ex.CoordT()),
        ex.Sin(ex.mul(ex.CoordX(0), ex.CoordXi(0)))))

    def test_symbol_per_row(self, grid32, rng):
        syms = [SymbolExpr(root, 1.0, 1) for root in
                (self.T_SEP, self.FIXED_SEP, self.T_SEP)]
        ts = [0.0, 0.5, 0.25]
        stack = np.stack([random_grid_function(grid32, rng).values
                          for _ in syms])
        op = PeriodicOperator(syms, grid32)
        for name in ("apply", "apply_adjoint"):
            got = getattr(op, name)(ts, stack)
            for s, t, row, out in zip(syms, ts, stack, got):
                want = getattr(PeriodicOperator(s, grid32), name)(t, row)
                assert np.array_equal(out, want)

    def test_tables_of_some_rows_are_their_own(self, grid32):
        # some rows of a t-dependent stack at their own times, as the
        # stepper and the norm estimators read them: bitwise each row's
        # one-symbol tables, split included
        t_cos = ex.mul(ex.add(ex.Const(1.0), ex.CoordT()),
                       ex.Cos(ex.CoordX(0)), ex.CoordXi(0))
        syms = [SymbolExpr(root, 1.0, 1)
                for root in (self.T_SEP, t_cos, self.T_SEP, t_cos)]
        ts = [0.1, 0.5, 0.25, 0.75]
        op = PeriodicOperator(syms, grid32)
        op.tables(ts)                       # every row first
        for rows in ([0, 2], [1, 2, 3]):
            got = op.tables([ts[r] for r in rows], rows)
            for k, r in enumerate(rows):
                want = PeriodicOperator(syms[r], grid32).tables(ts[r])
                pairs = [(got.split[1][k], want.split[1])] + [
                    (a[k], b) for name in ("f", "g")
                    for a, b in zip(getattr(got, name), getattr(want, name))]
                for a, b in pairs:
                    assert a.shape == b.shape and a.tobytes() == b.tobytes()

    @pytest.mark.parametrize("root", [T_SEP, FIXED_SEP, T_DENSE])
    def test_one_symbol_time_per_row(self, root, grid32, rng):
        s = SymbolExpr(root, 1.0, 1)
        ts = np.array([0.0, 0.3, 0.6])
        stack = np.stack([random_grid_function(grid32, rng).values
                          for _ in ts])
        got = PeriodicOperator(s, grid32).apply(ts, stack)
        for t, row, out in zip(ts, stack, got):
            want = PeriodicOperator(s, grid32).apply(t, row)
            assert np.array_equal(out, want)

    def test_rows_of_one_symbol_share_its_tables(self, grid32, rng):
        a, b = (SymbolExpr(root, 1.0, 1) for root in (self.T_SEP,
                                                      self.FIXED_SEP))
        syms, ts = [a, b, a, a], [0.5, 0.5, 0.5, 0.25]
        stack = np.stack([random_grid_function(grid32, rng).values
                          for _ in syms])
        op = PeriodicOperator(syms, grid32)
        for name in ("apply", "apply_adjoint"):
            for s, t, row, out in zip(syms, ts, stack,
                                      getattr(op, name)(ts, stack)):
                want = getattr(PeriodicOperator(s, grid32), name)(t, row)
                assert np.array_equal(out, want)
        assert op._of == [0, 1, 0, 0]     # two tables objects, not four
        # rows 0, 2 and 3 (symbol a) read one tables object, row 1 another
        at = [op.tables(0.5, [r]) for r in range(4)]
        assert at[0] is at[2] is at[3] and at[1] is not at[0]
        # row 3 at its own time keeps the tables of its symbol a
        assert op.tables(0.25, [3]) is op.tables(0.25, [0])
        # rows that all read one tables object broadcast it
        got = PeriodicOperator([b, b, b], grid32).apply(0.0, stack[:3])
        want = PeriodicOperator(b, grid32).apply(0.0, stack[:3])
        assert np.array_equal(got, want)

    def test_rows_share_one_table_layout(self, grid32):
        two_terms = ex.add(ex.CoordXi(0), ex.Sin(ex.CoordX(0)))
        with pytest.raises(ValueError):
            PeriodicOperator([SymbolExpr(self.FIXED_SEP, 1.0, 1),
                              SymbolExpr(two_terms, 1.0, 1)], grid32)


class TestApplyRoute:
    """Every operator application on grid values is a call of
    PeriodicOperator.apply or apply_adjoint, the names the benchmark's trace
    counts; the norm estimators and the solve's stepping loop work on
    spectra and call neither, and the post-processing reads a solve's
    spectra through apply_spectrum."""

    @pytest.fixture
    def calls(self, monkeypatch):
        counts = Counter()
        for name in ("apply", "apply_spectrum", "apply_adjoint"):
            def counted(self, t, values, _name=name,
                        _fn=getattr(PeriodicOperator, name), **kwargs):
                counts[_name] += 1
                return _fn(self, t, values, **kwargs)
            monkeypatch.setattr(PeriodicOperator, name, counted)
        return counts

    def test_solve_applies_four_times_per_step(self, calls, monkeypatch,
                                               variable_speed_symbol, grid32):
        # each of a step's four stages applies the rest R to a spectrum: one
        # inverse and one forward transform call, rfftn and irfftn for real
        # data, fftn and ifftn for complex data; one forward call takes g to
        # its spectrum, and the snapshots are stored as spectra, with no
        # transform (a half spectrum's other half is its Hermitian copy)
        monkeypatch.setattr(cauchy, "_measure_norms", lambda problems, grid,
                            seed: [(0.0, 1.0)] * len(problems))
        for name in ("fftn", "ifftn", "rfftn", "irfftn"):
            def counted(*args, _name=name, _fn=getattr(np.fft, name),
                        **kwargs):
                calls[_name] += 1
                return _fn(*args, **kwargs)
            monkeypatch.setattr(np.fft, name, counted)
        x = grid32.x_axis()
        for g, fwd, inv in ((np.sin(x), "rfftn", "irfftn"),
                            (np.exp(1j * x), "fftn", "ifftn")):
            calls.clear()
            problem = cauchy.CauchyProblem(
                HyperbolicSymbol(variable_speed_symbol),
                GridFunction(grid32, g), 2.0)
            result = cauchy.solve_fixed_eps(problem)
            steps = len(result.times) - 1
            assert steps > TRAJECTORY_STRIDE
            want = Counter({fwd: 4 * steps + 1, inv: 4 * steps})
            assert calls == want
            # the grid values take one inverse call per read, u(T) one
            states, final = result.states, result.final().values
            want[inv] += 2
            assert calls == want
            assert np.array_equal(final, states[-1])

    def test_norms_apply_per_iteration(self, calls, variable_speed_symbol,
                                       grid32, monkeypatch):
        # per iteration, one ifftn and one fftn call per B = A - A^dagger,
        # or per A and per A^dagger; one fftn more starts the iteration, and
        # the skew bound of a transport symbol takes one fftn and one ifftn
        for name in ("fftn", "ifftn"):
            def counted(*args, _name=name, _fn=getattr(np.fft, name),
                        **kwargs):
                calls[_name] += 1
                return _fn(*args, **kwargs)
            monkeypatch.setattr(np.fft, name, counted)
        est = adjoint_defect_norm(variable_speed_symbol, 0.0, grid32, seed=1)
        assert est.upper is not None
        assert calls == {"fftn": 2 * est.iterations + 2,
                         "ifftn": 2 * est.iterations + 1}
        calls.clear()
        est = operator_norm(SymbolExpr(ex.Sin(ex.CoordX(0)), 0.0, 1), 0.0,
                            grid32, seed=1)
        assert calls == {"fftn": 2 * est.iterations + 1,
                         "ifftn": 2 * est.iterations}

    @pytest.mark.parametrize("root, want", [
        (TestRows.FIXED_SEP, 2), (TestRows.T_SEP, 3)])
    def test_t_derivative_norms_skip_zero_derivatives(self, calls, root, want,
                                                      grid32):
        # d_t^2 u = -i op(a) d_t u - i op(d_t a) u: op(d_t a) = 0 is skipped
        # when a does not depend on t
        u = GridFunction(grid32, np.cos(grid32.x_axis()))
        problem = cauchy.CauchyProblem(
            HyperbolicSymbol(SymbolExpr(root, 1.0, 1)), u, 0.1)
        snaps = SimpleNamespace(snap_times=np.array([0.0, 0.1]),
                                spectra=np.fft.fftn(np.stack([u.values] * 2),
                                                    axes=(-1,)))
        asymptotics._t_derivative_norms(problem, snaps, [(2, (0,))])
        assert calls == {"apply_spectrum": want}


    def test_derivative_operators_built_once(self, monkeypatch, grid32):
        # one op(d_t^i a) per i and one op(d_x^beta a) per beta, however
        # many (d, i) and (alpha, beta) pairs apply them
        built = []

        def init(op, symbols, grid, _init=PeriodicOperator.__init__):
            built.append(symbols)
            _init(op, symbols, grid)
        x = grid32.x_axis()
        problem = cauchy.CauchyProblem(
            HyperbolicSymbol(SymbolExpr(TestRows.T_SEP, 1.0, 1)),
            GridFunction(grid32, np.sin(x)), 0.2)
        result = cauchy.solve_fixed_eps(problem)
        monkeypatch.setattr(PeriodicOperator, "__init__", init)
        asymptotics._t_derivative_norms(problem, result, [(3, (0,))])
        assert len(built) == 3
        built.clear()
        cauchy.derivative_cascade(problem, result, max_order=3)
        assert len(built) == 3

    def test_one_dense_table_alive(self, monkeypatch, grid32):
        # the solve's op(a) (its steps; its sup|a| builds none), the norm
        # step's operators, and op(d_t^i a) and op(d_x^beta a), each built
        # once, of a dense symbol with or without t: no table outlives its
        # use, so at most one dense table is alive at a time
        tables, peak = [], []

        def table(op, i, t, _table=PeriodicOperator._symbol_table):
            peak.append(1 + sum(ref() is not None for ref in tables))
            out = _table(op, i, t)
            tables.append(weakref.ref(out))
            return out
        monkeypatch.setattr(PeriodicOperator, "_symbol_table", table)
        x = grid32.x_axis()
        for root in (TestRows.T_DENSE, ex.add(ex.CoordXi(0), ex.mul(
                ex.Const(0.01), ex.Sin(ex.mul(ex.CoordX(0), ex.CoordXi(0)))))):
            tables.clear()
            peak.clear()
            problem = cauchy.CauchyProblem(
                HyperbolicSymbol(SymbolExpr(root, 1.0, 1)),
                GridFunction(grid32, np.sin(x)), 0.2)
            result = cauchy.solve_fixed_eps(problem)
            asymptotics._t_derivative_norms(problem, result, [(3, (0,))])
            cauchy.derivative_cascade(problem, result, max_order=3)
            assert len(tables) > 3 * len(result.snap_times)
            assert max(peak) == 1

    def test_dense_sup_builds_no_table(self, monkeypatch, grid32):
        # |E| = 1, so sup|s| is read from the symbol's values: it matches
        # the max over the table S o E within rounding, and builds none
        op = PeriodicOperator(SymbolExpr(TestRows.T_DENSE, 1.0, 1), grid32)
        want = [float(np.max(np.abs(op._symbol_table(0, t))))
                for t in (0.0, 0.5, 1.0)]

        def table(*args):
            raise AssertionError("sup_abs built a dense table")
        monkeypatch.setattr(PeriodicOperator, "_symbol_table", table)
        for t, w in zip((0.0, 0.5, 1.0), want):
            sup_a, sup_r = op.sup_abs(t)
            assert sup_r == sup_a
            assert sup_a == pytest.approx(w, rel=1e-15)

    def test_dense_adjoint_copies_no_table(self, rng):
        # conj(conj(row) @ S) per row: a dense adjoint apply allocates rows,
        # never a conjugated copy of the table S (1 MB at 2-D M=16)
        grid = Grid(2, 16, TWO_PI)
        op = PeriodicOperator(SymbolExpr(ex.add(ex.CoordXi(0), ex.Sin(
            ex.mul(ex.CoordX(0), ex.CoordXi(1)))), 1.0, 2), grid)
        values = np.stack([random_grid_function(grid, rng).values
                           for _ in range(2)])
        op.apply_adjoint(0.0, values)       # builds the table, which stays
        table = op.tables(0.0)
        assert not op.separable and table.nbytes == 16 * grid.size ** 2
        tracemalloc.start()
        try:
            op.apply_adjoint(0.0, values)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 0.1 * table.nbytes


# sin(x xi) in 1-D and xi0 + sin(x0 xi0) + cos(x1 xi1) in 2-D: not
# separable, so they take the dense table
DENSE_1D = SymbolExpr(ex.Sin(ex.mul(ex.CoordX(0), ex.CoordXi(0))), 1.0, 1)
DENSE_2D = SymbolExpr(ex.add(
    ex.CoordXi(0), ex.Sin(ex.mul(ex.CoordX(0), ex.CoordXi(0))),
    ex.Cos(ex.mul(ex.CoordX(1), ex.CoordXi(1)))), 1.0, 2)
DENSE_CASES = [(DENSE_1D, Grid(1, 16, TWO_PI)),
               (DENSE_1D, Grid(1, 32, TWO_PI)),
               (DENSE_2D, Grid(2, 8, TWO_PI))]


class TestAdjoint:
    @pytest.mark.parametrize("s, grid", DENSE_CASES)
    def test_dense_pairing_identity(self, s, grid, rng):
        op = PeriodicOperator(s, grid)
        assert not op.separable
        u = random_grid_function(grid, rng).values
        w = random_grid_function(grid, rng).values
        lhs = np.vdot(w, op.apply(0.0, u))
        rhs = np.vdot(op.apply_adjoint(0.0, w), u)
        assert abs(lhs - rhs) <= 1e-12 * abs(lhs)

    @pytest.mark.parametrize("s, grid", DENSE_CASES)
    def test_dense_adjoint_is_matrix_conjugate_transpose(self, s, grid, rng):
        # the adjoint apply against matrix().conj().T, and both norm
        # estimates against the 2-norms of the band-projected dense matrices
        # (to the power iteration's tolerance, POWER_RTOL = 1e-6 on the
        # squared norm)
        op = PeriodicOperator(s, grid)
        mat = op.matrix(0.0)
        w = random_grid_function(grid, rng).values
        want = (mat.conj().T @ w.ravel()).reshape(grid.shape)
        got = op.apply_adjoint(0.0, w)
        assert np.max(np.abs(got - want)) <= 1e-12 * np.max(np.abs(want))
        proj = band_projector(grid)
        pmat = np.stack([proj(col.reshape(grid.shape)).ravel()
                         for col in np.eye(grid.size)], axis=1)
        for estimate, exact in (
                (adjoint_defect_norm, pmat @ (mat - mat.conj().T) @ pmat),
                (operator_norm, pmat @ mat @ pmat)):
            est = estimate(s, 0.0, grid, seed=1)
            assert est.converged
            assert est.value == pytest.approx(np.linalg.norm(exact, 2),
                                              rel=1e-5)

    def test_pairing_identity(self, variable_speed_symbol, grid32, rng):
        op = PeriodicOperator(variable_speed_symbol, grid32)
        u = random_grid_function(grid32, rng)
        w = random_grid_function(grid32, rng)
        dv = grid32.cell_volume
        lhs = dv * np.vdot(w.values, op.apply(0.0, u.values))
        rhs = dv * np.vdot(op.apply_adjoint(0.0, w.values), u.values)
        assert abs(lhs - rhs) <= 1e-12 * max(abs(lhs), 1.0)

    def test_defect_zero_for_multiplier(self, grid32, xi_symbol):
        assert adjoint_defect_norm(xi_symbol, 0.0, grid32, seed=1).value <= 1e-12

    def test_defect_zero_for_real_multiplication(self, grid32):
        s = SymbolExpr(ex.Sin(ex.CoordX(0)), 0.0, 1)
        assert adjoint_defect_norm(s, 0.0, grid32, seed=1).value <= 1e-12

    def test_defect_stable_under_refinement(self, variable_speed_symbol):
        values = [adjoint_defect_norm(variable_speed_symbol, 0.0,
                                      Grid(1, m, TWO_PI), seed=1).value
                  for m in (64, 128, 256)]
        assert max(values) / min(values) <= 1.1

    def test_unitary_evolution_generator(self, grid256, xi_symbol):
        # i * (real x-independent order-1 symbol) generates isometries;
        # its defect vanishes at machine precision
        est = adjoint_defect_norm(xi_symbol, 0.0, grid256, seed=3)
        assert est.value <= 1e-12

    def test_adjoint_two_routes_agree(self, bump_speed_symbol, grid32):
        # route 1: conjugate transpose of the dense matrix; route 2: the
        # quantization of conj(a) + remainder with the remainder taken from
        # the oscillatory-integral formula (xi-independent for affine-in-xi
        # symbols); both restricted to the resolved band where discrete
        # quantization is alias-free
        mat = op_matrix(bump_speed_symbol, 0.0, grid32)
        route1 = mat.conj().T
        pts = grid32.x_axis()
        rem = np.array([adjoint_symbol_remainder(bump_speed_symbol, 0.0,
                                                 x, 0.0) for x in pts])
        xis = grid32.xi_axis()
        conj_table = np.conj(np.broadcast_to(np.asarray(
            bump_speed_symbol.root.eval(0.0, (pts[:, None],),
                                        (xis[None, :],))),
            (grid32.points, grid32.points)))
        astar_table = conj_table + rem[:, None]
        xi_flat = xis[None, :]
        E = np.exp(1j * pts[:, None] * xi_flat)
        route2 = (astar_table * E) @ E.conj().T / grid32.points
        proj = band_projector(grid32)
        pmat = np.stack([proj(col) for col in np.eye(grid32.points)], axis=1)
        r1 = pmat @ route1 @ pmat
        r2 = pmat @ route2 @ pmat
        scale = np.linalg.norm(r1, 2)
        assert np.linalg.norm(r1 - r2, 2) / scale <= 5e-2


class TestOperatorNorm:
    def test_constant_symbol(self, grid32):
        s = SymbolExpr(ex.Const(3.0), 0.0, 1)
        assert operator_norm(s, 0.0, grid32, seed=1).value == \
            pytest.approx(3.0, rel=1e-6)

    def test_multiplication_bounded_by_sup(self, grid32):
        s = SymbolExpr(ex.Sin(ex.CoordX(0)), 0.0, 1)
        res = operator_norm(s, 0.0, grid32, seed=1)
        assert res.value <= 1.0 + 1e-9

    def test_cv_bound_dominates(self, grid32):
        s = SymbolExpr(ex.mul(ex.Sin(ex.CoordX(0)),
                              ex.SmoothStep(ex.JapaneseBracket(1.0), 4.0, 4.0)),
                       0.0, 1)
        box = SampleBox(1, grid32.length, xi_max=grid32.max_abs_xi())
        cv_bound = CV_CONSTANT[1] * seminorm_Q(s, 0, 1, 1, box)
        assert operator_norm(s, 0.0, grid32, seed=1).value <= cv_bound

    def test_invariant_under_dft_conjugation(self, variable_speed_symbol, grid32):
        mat = op_matrix(variable_speed_symbol, 0.0, grid32)
        n = grid32.points
        F = np.exp(-2j * np.pi * np.outer(np.arange(n), np.arange(n)) / n) / \
            np.sqrt(n)
        conjugated = F @ mat @ F.conj().T
        s1 = np.linalg.norm(mat, 2)
        s2 = np.linalg.norm(conjugated, 2)
        assert s1 == pytest.approx(s2, rel=1e-10)

    def test_generator_seed_refused(self, variable_speed_symbol, grid32):
        # the rows of a stacked estimate would share one generator's state,
        # so no row would start like its one-member estimate
        for seed in (np.random.default_rng(5), np.random.PCG64(5)):
            with pytest.raises(TypeError, match="int or None"):
                adjoint_defect_norm(variable_speed_symbol, 0.0, grid32,
                                    seed=seed)

    def test_seed_contract(self, variable_speed_symbol, grid32):
        # None is 0; integers of any type draw alike; anything else that is
        # not an integer is refused, and so is a negative seed
        start = quantization._start
        assert start(None, grid32).tobytes() == start(0, grid32).tobytes()
        assert start(np.int64(3), grid32).tobytes() == \
            start(3, grid32).tobytes()
        assert start(3, grid32).tobytes() != start(4, grid32).tobytes()
        for seed in (1.5, 2.0, "3", [1, 2]):
            with pytest.raises(TypeError, match="int or None"):
                adjoint_defect_norm(variable_speed_symbol, 0.0, grid32,
                                    seed=seed)
        with pytest.raises(ValueError, match="non-negative"):
            operator_norm(variable_speed_symbol, 0.0, grid32, seed=-1)

    def test_start_is_a_complex_normal_draw(self):
        # independent standard normal real and imaginary parts, to a few
        # standard errors of 2-D M=128's 16384 points
        z = quantization._start(5, Grid(2, 128, TWO_PI)).ravel()
        err = 4.0 / math.sqrt(z.size)
        for part in (z.real, z.imag):
            assert abs(np.mean(part)) <= err
            assert abs(np.mean(part ** 2) - 1.0) <= 2.0 * err
            assert abs(np.mean(part ** 3)) <= 4.0 * err
        assert abs(np.mean(z.real * z.imag)) <= err

    def test_numpy_random_stays_unimported(self):
        # the start draw uses the standard library's generator, so a run
        # never pays numpy.random's import; config validation interprets
        # the schema without jsonschema, and the sample boxes sort their
        # points without np.unique, which imports numpy.ma
        child = """
import sys
import numpy as np
from onewave import expr as ex
from onewave.cauchy import CauchyProblem, solve_fixed_eps
from onewave.grid import Grid, GridFunction
from onewave.presets import PRESETS, get_preset
from onewave.quantization import adjoint_defect_norm
from onewave.scenario import run_scenario, validate_config
from onewave.symbols import HyperbolicSymbol, SampleBox, SymbolExpr
grid = Grid(1, 64, 2.0 * np.pi)
speed = ex.add(ex.Const(1.0), ex.mul(ex.Const(0.5), ex.Sin(ex.CoordX(0))))
a1 = SymbolExpr(ex.mul(speed, ex.CoordXi(0)), 1.0, 1)
assert adjoint_defect_norm(a1, 0.0, grid, seed=1).value > 0.0
problem = CauchyProblem(HyperbolicSymbol(a1), GridFunction(
    grid, np.exp(np.cos(grid.x_mesh()[0])) + 0j), 0.5)
assert np.all(np.isfinite(solve_fixed_eps(problem, seed=1).final().values))
for name in PRESETS:
    validate_config(get_preset(name))
assert run_scenario(get_preset("adjoint_remainder_desk"),
                    echo=lambda line: None)[0]
assert SampleBox(2, 2.0 * np.pi).xi_points().shape == (241, 2)
print([name for name in ("numpy.random", "jsonschema", "numpy.ma")
       if name in sys.modules])
"""
        src = str(Path(__file__).resolve().parents[1] / "src")
        done = subprocess.run([sys.executable, "-c", child], check=True,
                              capture_output=True, text=True,
                              env={**os.environ, "PYTHONPATH": src})
        assert done.stdout.strip() == "[]"

    def test_power_iteration_zero_operator(self, rng):
        [(lam, ok, _)] = power_iteration(lambda rows, v: np.zeros_like(v),
                                         rng.standard_normal((1, 16)) + 0j,
                                         [None])
        assert lam == 0.0 and ok


def exact_band_norms(s, t, grid):
    """(||P B P||, ||P A P||), A = op(s) at t and B = A - A^dagger, from the
    dense matrix: the band block of A in the unitary Fourier basis, whose
    largest singular values they are."""
    unitary = quantization._fourier_matrix(grid) / np.sqrt(grid.size)
    band = quantization._band_mask(grid).ravel()
    block = (unitary.conj().T @ op_matrix(s, t, grid) @ unitary)[
        np.ix_(band, band)]
    return (float(np.linalg.norm(block - block.conj().T, 2)),
            float(np.linalg.norm(block, 2)))


def bump_speed():
    """The desk's a1, a smooth bump of width 2.4 times xi: not band-limited,
    so the skew bound's hi term is nonzero on coarse grids."""
    cfg = get_preset("adjoint_remainder_desk")
    return scenario.ScenarioContext(cfg).fixed_symbol.a1


def preset_symbols():
    """(name, symbol) for the a1 and a0 of every preset, the rough ones at
    their largest and smallest eps."""
    out = []
    for name in list_presets():
        ctx = scenario.ScenarioContext(get_preset(name))
        if ctx.fixed_symbol is not None:
            fixed = [ctx.fixed_symbol]
        else:
            fixed = [ctx.family.member(eps) for eps in
                     (ctx.eps_grid[0], ctx.eps_grid[-1])]
        out += [(name, part) for sym in fixed for part in (sym.a1, sym.a0)
                if part is not None]
    return out


class TestNormBracket:
    """The dense exact band norms lie in [value, upper]; the symbols the
    bound does not cover keep the POWER_RTOL estimate."""

    @staticmethod
    def assert_bracketed(s, grid, t=0.0):
        """Each estimate at most its exact norm, and the exact norm at most
        the upper end, up to rounding (both ends are 0 for a real x-free
        defect); returns (defect estimate, exact defect)."""
        exact = exact_band_norms(s, t, grid)
        allowance = 1e-10 * (1.0 + exact[1])
        got = (adjoint_defect_norm(s, t, grid, seed=7),
               operator_norm(s, t, grid, seed=7))
        for est, norm in zip(got, exact):
            assert est.value <= norm + allowance
            if est.upper is not None:
                assert norm <= est.upper + allowance
        return got[0], exact[0]

    def test_preset_symbols(self):
        grid = Grid(1, 64, TWO_PI)
        bounded = 0
        for name, s in preset_symbols():
            est, _ = self.assert_bracketed(s, grid)
            bounded += est.upper is not None
        assert bounded == len(preset_symbols())     # all transport or x-only

    @pytest.mark.parametrize("points", [32, 64, 128, 256])
    def test_rough_members(self, points):
        ctx = scenario.ScenarioContext(get_preset("piecewise_speed_logtype"))
        grid = Grid(1, points, TWO_PI)
        for eps in (ctx.eps_grid[0], ctx.eps_grid[3], ctx.eps_grid[-1]):
            est, _ = self.assert_bracketed(ctx.family.member(eps).a1, grid)
            assert est.upper is not None

    def test_bump_hi_term(self):
        # the bound tightens as the grid resolves the bump: upper / exact
        # is about 1.31, 1.10, 1.014, 1.002 at M = 32, 64, 128, 256
        ratios = []
        for points in (32, 64, 128, 256):
            est, exact = self.assert_bracketed(bump_speed(),
                                               Grid(1, points, TWO_PI))
            ratios.append(est.upper / exact)
        assert ratios == sorted(ratios, reverse=True)
        assert ratios[0] > 1.2 and ratios[-1] < 1.01

    @pytest.mark.parametrize("points", [16, 24])
    def test_plane_2d(self, points):
        cfg = json.loads((BENCH / "plane_2d.json").read_text())
        cfg["grid"]["points"] = points
        symbol = scenario.ScenarioContext(cfg).fixed_symbol
        grid = Grid(2, points, TWO_PI)
        for part in (symbol.a1, symbol.a0):
            est, _ = self.assert_bracketed(part, grid)
            assert est.upper is not None

    def test_bound_builds_no_tables_of_its_own(self, monkeypatch):
        # a t-dependent transport symbol's rows at 9 times: the bound reads
        # the tables the iteration reads, so each time's are built once
        grid = Grid(1, 64, TWO_PI)
        s = SymbolExpr(ex.mul(ex.add(ex.Const(1.0), ex.CoordT()), ex.add(
            ex.Const(2.0), ex.Sin(ex.CoordX(0))), ex.CoordXi(0)), 1.0, 1)
        built = []
        tables = PeriodicOperator._tables

        def counted(op, i, key):
            if op._cache[i][0] != key:
                built.append(key)
            return tables(op, i, key)
        monkeypatch.setattr(PeriodicOperator, "_tables", counted)
        times = np.linspace(0.0, 1.0, 9)
        found = adjoint_defect_norms([(s, t) for t in times], grid, seed=1)
        assert all(est.upper is not None for est in found)
        assert built == list(times)

    def test_unbounded_symbols_keep_the_rtol_estimate(self, monkeypatch):
        # a complex speed and the forced dense symbol get no upper end, and
        # their estimates, stacked with a bounded one or not, are those of
        # the POWER_RTOL rule alone
        grid = Grid(1, 64, TWO_PI)
        complex_speed = SymbolExpr(ex.mul(ex.add(ex.Const(2.0), ex.mul(
            ex.Const(0.5j), ex.Sin(ex.CoordX(0)))), ex.CoordXi(0)), 1.0, 1)
        cfg = json.loads((Path(__file__).parent /
                          "forced_dense_t_dependent.json").read_text())
        dense = scenario.ScenarioContext(cfg).fixed_symbol.a1
        pairs = [(complex_speed, 0.0), (dense, 0.5), (bump_speed(), 0.0)]
        got = [estimate(pairs, grid, seed=3)
               for estimate in (adjoint_defect_norms, operator_norms)]
        assert all(est.upper is None for row in got for est in row[:2])
        assert got[0][2].upper is not None
        monkeypatch.setattr(quantization, "_skew_upper",
                            lambda s, tables, grid: None)
        monkeypatch.setattr(quantization, "_operator_upper",
                            lambda s, tables: None)
        for estimate, row in zip((adjoint_defect_norms, operator_norms), got):
            assert estimate(pairs[:2], grid, seed=3) == row[:2]


class TestSkewShare:
    """The multiplier's share d - conj(d) of the adjoint defect is formed
    once per tables object, not once per application, and the estimates
    are bitwise those of the share formed per application."""

    @staticmethod
    def symbol():
        # (2 + sin x) xi + i (1 + cos(x) / 2): the split's multiplier
        # 2 xi + i is not real, so the share 2i is not 0
        speed = ex.mul(ex.add(ex.Const(2.0), ex.Sin(_X)), _XI)
        damping = ex.mul(ex.Const(1j), ex.add(
            ex.ONE, ex.mul(ex.Const(0.5), ex.Cos(_X))))
        return SymbolExpr(ex.add(speed, damping), 1.0, 1)

    def test_share_formed_once_per_tables(self, monkeypatch, grid32):
        made = []

        def skew(terms, _skew=quantization._Terms.skew.func):
            made.append(terms)
            return _skew(terms)
        prop = functools.cached_property(skew)
        prop.__set_name__(quantization._Terms, "skew")
        monkeypatch.setattr(quantization._Terms, "skew", prop)
        est = adjoint_defect_norm(self.symbol(), 0.0, grid32, seed=3)
        assert est.iterations > 1 and est.value > 0
        assert len(made) == 1
        assert np.any(made[0].skew != 0)
        assert made[0].skew is made[0].skew

    def test_estimates_bitwise_per_application_share(self, monkeypatch,
                                                     variable_speed_symbol):
        def per_application(tables, hat, grid, mask):
            """_skew_spectrum with d - conj(d) formed on every call, as it
            was before the share was kept on the tables."""
            p = hat * mask
            share = None
            if isinstance(tables, quantization._Terms):
                tables, d = tables.split
                share = (d - np.conjugate(d)) * p
            av = np.empty(p.shape, dtype=complex)
            quantization._synth(tables, p, grid, av, carry=p)
            out = quantization._analyse(tables, p, grid, np.empty_like(p),
                                        carry=av)
            np.subtract(av, out, out=out)
            if share is not None:
                np.add(out, share, out=out)
            return np.multiply(out, mask, out=out)

        for grid in (Grid(1, 64, TWO_PI), Grid(2, 16, TWO_PI)):
            symbols = ([self.symbol(), variable_speed_symbol]
                       if grid.dim == 1 else
                       [SymbolExpr(ex.mul(ex.Sin(ex.CoordX(1)), _XI), 1.0,
                                   2)])
            pairs = [(s, t) for s in symbols for t in (0.0, 0.5)]
            got = adjoint_defect_norms(pairs, grid, seed=4)
            with monkeypatch.context() as patch:
                patch.setattr(quantization, "_skew_spectrum", per_application)
                want = adjoint_defect_norms(pairs, grid, seed=4)
            assert [(_bits(e.value), e.iterations, e.converged) for e in got] \
                == [(_bits(e.value), e.iterations, e.converged) for e in want]


class TestSymbolRecovery:
    def test_round_trip(self, variable_speed_symbol, grid32):
        mat = op_matrix(variable_speed_symbol, 0.0, grid32)
        table = symbol_from_matrix(mat, grid32)
        pts = grid32.x_axis()
        xis = grid32.xi_axis()
        truth = (2.0 + np.sin(pts))[:, None] * xis[None, :]
        assert np.max(np.abs(table - truth)) <= 1e-10


class TestOscillatoryRemainder:
    def test_x_independent_vanishes(self, xi_symbol):
        for xi in (0.0, 2.0, 16.0):
            val = adjoint_symbol_remainder(xi_symbol, 0.0, 1.0, xi)
            assert abs(val) <= 1e-10

    def test_matches_closed_form(self, bump_speed_symbol):
        # for a = c(x) xi the full adjoint symbol is conj(a) - i c'(x)
        xp = np.pi + 0.7
        got = adjoint_symbol_remainder(bump_speed_symbol, 0.0, xp, 0.0)
        cprime = SymbolExpr(bump_speed_symbol.root, 1.0, 1).derivative(
            0, (0,), (1,)).eval(0.0, xp, 1.0)
        # derivative of c(x) xi in x, evaluated at xi = 1, equals c'(x)
        assert got == pytest.approx(-1j * complex(cprime), rel=2e-3)

    def test_bounded_along_xi_ladder(self, bump_speed_symbol):
        xp = np.pi + 0.7
        vals = [abs(adjoint_symbol_remainder(bump_speed_symbol, 0.0, xp, xi))
                for xi in (0.0, 1.0, 4.0, 16.0)]
        assert max(vals) / max(min(vals), 1e-300) <= 1.2

    def test_box_too_small(self):
        # d_x of x^6 xi grows like y^5 across the box, so at x = 1 the y
        # shell holds 0.312 of the integrand's mass, above TAIL_TOL
        s = SymbolExpr(ex.mul(ex.Power(_X, 6), _XI), 1.0, 1)
        with pytest.raises(BoxTooSmall, match="0.312"):
            adjoint_symbol_remainder(s, 0.0, 1.0, 0.0)

    def test_estimate_x_independent(self, xi_symbol):
        rep = check_remainder_estimate(xi_symbol, TWO_PI)
        assert rep["lhs"] == 0.0 and rep["ratio"] == 0.0

    @pytest.fixture
    def nan_total(self, monkeypatch):
        """The kernel with sum(K) NaN: xi's integrand trees are constant
        zeros, whose contraction is 0 * sum(K)."""
        def kernel(refined):
            return _kernel(refined)._replace(total=complex(math.nan))
        monkeypatch.setattr(quantization, "_kernel", kernel)

    def test_nan_remainder_is_kept(self, xi_symbol, nan_total):
        assert math.isnan(abs(adjoint_symbol_remainder(xi_symbol, 0.0, 1.0,
                                                       0.0)))
        assert math.isnan(check_remainder_estimate(xi_symbol, TWO_PI)["lhs"])

    def test_nan_remainder_fails_remainder_oracle(self, nan_total):
        # the desk bump's two constant trees contract to 0 * sum(K)
        cfg = get_preset("adjoint_remainder_desk")
        cfg["checks"] = ["remainder_oracle"]
        ok, [outcome] = run_scenario(cfg, echo=lambda line: None)
        assert not ok and math.isnan(outcome.number)

    def test_estimate_stable_under_refinement(self, bump_speed_symbol):
        base = check_remainder_estimate(bump_speed_symbol, TWO_PI)
        refined = check_remainder_estimate(bump_speed_symbol, TWO_PI,
                                           refined=True)
        assert base["ratio"] > 0
        change = abs(refined["ratio"] - base["ratio"]) / base["ratio"]
        assert change <= 0.2


# (y half-width, y points, eta half-width, eta points) of the base box and
# of the refined one, written out for the references below
BOXES = {False: (14.0, 361, 40.0, 361),
         True: (14.0 * 1.4, 505, 40.0 * 1.4, 505)}


def _reference_r_theta(s, t, x, xi, theta, refined):
    """r_theta of a 1-D symbol as one full phase-matrix sum, rebuilt per call.

    The oracle for the cached kernel and its shape-chosen contractions:
    integrand sum_i C(lam, i) (-theta^2)^i Lap_xi^i d_xi d_x conj(s) on the
    whole (y, eta) grid, times exp(-i y eta) (1 + y^2)^-lam and the windowed
    trapezoid weights.
    """
    def axis(half, points):
        nodes = np.linspace(-half, half, points)
        w = np.full(points, nodes[1] - nodes[0])
        w[0] *= 0.5
        w[-1] *= 0.5
        return nodes, w * plateau(nodes, 0.6 * half, half)

    y_half, y_points, eta_half, eta_points = BOXES[refined]
    y, w_y = axis(y_half, y_points)
    eta, w_e = axis(eta_half, eta_points)
    tree = ex.Conj(s.root).d_xi(0).d_x(0)
    integrand = np.zeros((y.size, eta.size), dtype=complex)
    for i in range(LAM + 1):
        integrand += math.comb(LAM, i) * (-theta * theta) ** i * \
            tree.eval(t, (x + y[:, None],), (xi + theta * eta[None, :],))
        tree = tree.d_xi(0).d_xi(0)
    phase = np.exp(-1j * np.outer(y, eta))
    damp = ((1.0 + y ** 2) ** (-LAM))[:, None]
    return np.sum(phase * damp * integrand * w_y[:, None] * w_e[None, :]) / \
        (2.0 * np.pi)


def _reference_remainder(s, x, xi):
    nodes, weights = np.polynomial.legendre.leggauss(7)
    return -1j * sum(0.5 * w * _reference_r_theta(s, 0.0, x, xi,
                                                  0.5 * (th + 1.0), False)
                     for th, w in zip(nodes, weights))


_BUMP = ex.SmoothBump(ex.CoordX(0), np.pi, 2.4)
_X, _XI = ex.CoordX(0), ex.CoordXi(0)
# Integrand shapes over the (y, eta) grid: the trees Lap_xi^i d_xi d_x conj(s)
# are bump'(x) (a y column); 2 bump'(x) xi (the full grid); 3 xi^2 (an eta
# row, quadratic so that its theta^2 moment counts) and 6 (a constant).
# bump_xi2_dxi = d_xi bump_xi2 gives 2 bump'(x) (a y column) and zeros.
SHAPE_SYMBOLS = {
    "bump_xi": SymbolExpr(ex.mul(_BUMP, _XI), 1.0, 1),
    "bump_xi2": SymbolExpr(ex.mul(_BUMP, _XI, _XI), 2.0, 1),
    "x_xi3": SymbolExpr(ex.mul(_X, _XI, _XI, _XI), 3.0, 1),
    "bump_xi2_dxi": SymbolExpr(ex.mul(_BUMP, _XI, _XI).d_xi(0), 1.0, 1),
}


class TestRemainderKernelOracle:
    # (symbol, refined box); the ids number the cases
    CASES = [("bump_xi", False), ("bump_xi2", False), ("x_xi3", False),
             ("bump_xi2_dxi", False), ("bump_xi", True), ("bump_xi2", True)]
    IDS = ["bump_xi-0-cfg0", "bump_xi2-0-cfg1", "x_xi3-0-cfg2",
           "bump_xi2-1-cfg3", "bump_xi-0-cfg4", "bump_xi2-0-cfg5"]

    @pytest.mark.parametrize("name, refined", CASES, ids=IDS)
    def test_r_theta_matches_full_phase_sum(self, name, refined):
        s = SHAPE_SYMBOLS[name]
        trees = _remainder_integrand_trees(s)
        for x, xi, theta in ((np.pi + 0.7, 1.0, 0.0), (2.0, 3.0, 0.6)):
            [got] = _r_theta(trees, 0.0, [x], [(xi, theta)], refined)[0]
            want = _reference_r_theta(s, 0.0, x, xi, theta, refined)
            assert abs(want) > 1e-6
            assert abs(got - want) <= 1e-12 * abs(want)

    @pytest.mark.parametrize("name, x, xi", [
        ("bump_xi", 2.0, 3.0), ("bump_xi2", 2.0, 3.0),
        ("bump_xi2", np.pi + 0.7, 16.0)],
        ids=["bump_xi-cfg0", "bump_xi2-cfg1", "bump_xi2-cfg2"])
    def test_remainder_matches_full_phase_sum(self, name, x, xi):
        s = SHAPE_SYMBOLS[name]
        got = adjoint_symbol_remainder(s, 0.0, x, xi)
        want = _reference_remainder(s, x, xi)
        assert abs(got - want) <= 1e-12 * abs(want)

    @pytest.mark.parametrize("refined", [False, True])
    def test_kernel_bitwise_one_expression_peak_below_1_5_k(self, refined):
        # the row-block build against the one-expression build it
        # replaced, the reference: K and its sums bitwise, at a
        # tracemalloc peak below 1.5 times K's bytes (about 3 for the
        # expression, whose phase and products were full temporaries)
        _kernel.cache_clear()
        tracemalloc.start()
        try:
            k = _kernel(refined)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        want = _one_expression_kernel(refined)
        assert k.K.tobytes() == want.tobytes()
        assert k.rows.tobytes() == want.sum(axis=1).tobytes()
        assert k.cols.tobytes() == want.sum(axis=0).tobytes()
        assert k.total == complex(want.sum())
        assert peak / k.K.nbytes < 1.5

    def test_kernel_built_once_per_config(self):
        # one kernel per box, and the cache holds no more than the two boxes
        s = SHAPE_SYMBOLS["bump_xi"]
        _kernel.cache_clear()
        for refined in (False, False, True):
            check_remainder_estimate(s, TWO_PI, refined)
        adjoint_symbol_remainder(s, 0.0, 2.0, 0.0)
        info = _kernel.cache_info()
        assert info.misses == 2
        assert info.currsize == info.maxsize == 2


def _one_expression_kernel(refined):
    """The weighted kernel K built as one expression of full temporaries,
    as it was before the row-block build, kept as the bitwise reference."""
    if refined:
        y_half = quantization.Y_HALF * quantization.REFINE
        eta_half = quantization.ETA_HALF * quantization.REFINE
        points = int(quantization.BOX_POINTS * quantization.REFINE) | 1
    else:
        y_half, eta_half = quantization.Y_HALF, quantization.ETA_HALF
        points = quantization.BOX_POINTS
    y_nodes, y_w, _ = quantization._axis_quad(y_half, points)
    e_nodes, e_w, _ = quantization._axis_quad(eta_half, points)
    y, eta = y_nodes[:, None], e_nodes[None, :]
    phase = np.exp(-1j * (y * eta))
    damp = (1.0 + y ** 2) ** (-LAM)
    return phase * damp * y_w[:, None] * (e_w / (2.0 * np.pi))[None, :]


def _r_theta_per_pair(trees, t, x, xi, theta, refined, tail_report=None):
    """r_theta at one (t, x, xi, theta) point, every tree evaluated and
    contracted afresh: the quadrature as it was before the trees that read
    no xi were shared across (xi, theta) pairs, kept as the bitwise
    reference."""
    k = _kernel(refined)
    x_args = (x + k.y,)
    xi_args = (xi + theta * k.eta,)
    coeffs = [math.comb(LAM, i) * (-theta * theta) ** i
              for i in range(LAM + 1)]
    vals = [np.asarray(tr.eval(t, x_args, xi_args)) for tr in trees]
    total = 0.0 + 0.0j
    total += sum(c * _contract(k, v) for c, v in zip(coeffs, vals))
    if tail_report is not None:
        mag = k.tail_w * np.abs(sum(c * v for c, v in zip(coeffs, vals)))
        scale = k.K.size // mag.size
        tail_report.append((float(np.sum(mag * k.shell)) * scale,
                            float(np.sum(mag)) * scale))
    return total


def _estimate_per_pair(s):
    """check_remainder_estimate's dict on the base box from one
    _r_theta_per_pair call per (x, xi, theta) probe, in the same order."""
    box = SampleBox(1, 2 * math.pi, x_count=9, xi_max=64.0,
                    xi_uniform_count=5)
    trees = _remainder_integrand_trees(s)
    lhs = 0.0
    for xp in np.linspace(0.0, 2 * math.pi, 9):
        for xip in (0.0, 1.0, 4.0, 16.0, 64.0):
            for theta in np.linspace(0.0, 1.0, 5):
                val = _r_theta_per_pair(trees, 0.0, float(xp), xip,
                                        float(theta), False)
                lhs = max(lhs, abs(val))
    rhs = seminorm_Q(s, 0, 3, 3, box)
    return {"lhs": lhs, "rhs_seminorm": rhs, "ratio": lhs / rhs}


def _bits(values) -> bytes:
    return np.asarray(values).tobytes()


def _expr_classes(cls=ex.Expr):
    yield cls
    for sub in cls.__subclasses__():
        yield from _expr_classes(sub)


class TestRemainderSharing:
    """The trees that read no xi are evaluated and contracted once per x
    point and shared by its (xi, theta) pairs, bitwise as a fresh per-pair
    evaluation; the trees themselves are built once per symbol."""

    PAIRS = [(xi, theta) for xi in (0.0, 3.0, 16.0)
             for theta in (0.0, 0.6, 1.0)]

    def test_cases_cover_xi_free_and_xi_reading_trees(self):
        def reads_xi(name):
            return [tr.depends_xi()
                    for tr in _remainder_integrand_trees(SHAPE_SYMBOLS[name])]
        assert not any(reads_xi("bump_xi"))
        assert any(reads_xi("bump_xi2")) and any(reads_xi("x_xi3"))

    @pytest.mark.parametrize("name, refined", TestRemainderKernelOracle.CASES,
                             ids=TestRemainderKernelOracle.IDS)
    def test_r_theta_bitwise_per_pair(self, name, refined):
        trees = _remainder_integrand_trees(SHAPE_SYMBOLS[name])
        got_tails, want_tails = [], []
        got = _r_theta(trees, 0.0, [2.0], self.PAIRS, refined, got_tails)[0]
        want = [_r_theta_per_pair(trees, 0.0, 2.0, xi, theta, refined,
                                  want_tails) for xi, theta in self.PAIRS]
        assert _bits(got) == _bits(want)
        assert len(got_tails) == len(want_tails) == len(self.PAIRS)
        for got_entry, want_entry in zip(got_tails, want_tails):
            assert _bits(got_entry) == _bits(want_entry)

    @pytest.mark.parametrize("name", ["bump_xi", "bump_xi2", "x_xi3"],
                             # the ids number the cases
                             ids=["bump_xi-alpha0-beta0",
                                  "bump_xi2-alpha1-beta1",
                                  "x_xi3-alpha2-beta2"])
    def test_estimate_bitwise_per_pair(self, name):
        s = SHAPE_SYMBOLS[name]
        got = check_remainder_estimate(s, TWO_PI)
        want = _estimate_per_pair(s)
        assert got["lhs"] > 0
        assert {k: _bits(v) for k, v in got.items()} == \
            {k: _bits(v) for k, v in want.items()}

    def test_trees_built_once_per_symbol(self, monkeypatch):
        s = SymbolExpr(ex.mul(_BUMP, _XI, _XI), 2.0, 1)
        first = adjoint_symbol_remainder(s, 0.0, 2.0, 3.0)
        built = []
        for cls in _expr_classes():
            if "d" in vars(cls):
                monkeypatch.setattr(cls, "d", lambda node, var, _d=vars(cls)[
                    "d"]: built.append(var) or _d(node, var))
        assert adjoint_symbol_remainder(s, 0.0, 2.0, 3.0) == first
        assert built == []
        # the count sees the nodes a symbol without cached trees builds
        adjoint_symbol_remainder(SymbolExpr(s.root, 2.0, 1), 0.0, 2.0, 3.0)
        assert built

    def test_cached_trees_are_immutable(self):
        s = SymbolExpr(ex.mul(_BUMP, _XI, _XI), 2.0, 1)
        trees = _remainder_integrand_trees(s)
        assert len(trees) == LAM + 1
        assert _remainder_integrand_trees(s) is trees
        with pytest.raises(TypeError):
            trees[0] = ex.ZERO
        with pytest.raises(AttributeError):
            trees.append(ex.ZERO)

    def test_kernel_guarded_before_it_allocates(self):
        # the quadrature is 1-D: a 2-D symbol is refused at both entry
        # points before any kernel is built
        plane = SymbolExpr(ex.mul(ex.CoordX(1), _XI), 1.0, 2)
        _kernel.cache_clear()
        with pytest.raises(DimensionMismatch, match="1-D"):
            adjoint_symbol_remainder(plane, 0.0, 2.0, 3.0)
        with pytest.raises(DimensionMismatch, match="1-D"):
            check_remainder_estimate(plane, TWO_PI)
        assert _kernel.cache_info().currsize == 0


class TestRemainderBatch:
    """The quadrature over a batch of x points: a tree that reads no xi is
    evaluated once for the batch, one that reads xi per (x, xi, theta), and
    every value and tail entry is bitwise a lone point's."""

    XS = [0.5, np.pi + 0.7, 5.9]
    PAIRS = TestRemainderSharing.PAIRS

    @pytest.mark.parametrize("refined", [False, True])
    @pytest.mark.parametrize("name", sorted(SHAPE_SYMBOLS))
    def test_r_theta_bitwise_per_pair(self, name, refined):
        trees = _remainder_integrand_trees(SHAPE_SYMBOLS[name])
        tails = []
        got = _r_theta(trees, 0.0, self.XS, self.PAIRS, refined, tails)
        assert got.shape == (len(self.XS), len(self.PAIRS))
        assert len(tails) == len(self.PAIRS)
        for n, x in enumerate(self.XS):
            want_tails = []
            want = [_r_theta_per_pair(trees, 0.0, x, xi, theta, refined,
                                      want_tails) for xi, theta in self.PAIRS]
            assert _bits(got[n]) == _bits(want)
            assert _bits([(shell[n], total[n]) for shell, total in tails]) \
                == _bits(want_tails)

    @pytest.mark.parametrize("name", sorted(SHAPE_SYMBOLS))
    def test_array_call_bitwise_scalar_calls(self, name):
        s = SHAPE_SYMBOLS[name]
        got = adjoint_symbol_remainder(s, 0.0, np.array(self.XS), 3.0)
        want = [adjoint_symbol_remainder(s, 0.0, x, 3.0) for x in self.XS]
        assert all(type(value) is complex for value in want)
        assert got.shape == (len(self.XS),)
        assert _bits(got) == _bits(want) == \
            _bits([_remainder_per_pair(s, x, 3.0) for x in self.XS])

    def test_xi_free_trees_evaluated_once_per_call(self, monkeypatch):
        # every tree has a Conj at its root; bump_xi's LAM + 1 trees read
        # no xi and are evaluated once each for 32 points and 7 theta
        # nodes, bump_xi2's one xi-reading tree once per point and node
        calls = []

        def counted(node, t, x, xi, _eval=ex.Conj.eval):
            calls.append(np.shape(x[0]))
            return _eval(node, t, x, xi)
        monkeypatch.setattr(ex.Conj, "eval", counted)
        xs = np.linspace(0.0, TWO_PI, 32, endpoint=False)
        batch, point = (32, BOXES[False][1], 1), (BOXES[False][1], 1)
        adjoint_symbol_remainder(SHAPE_SYMBOLS["bump_xi"], 0.0, xs, 1.0)
        assert calls == [batch] * (LAM + 1)
        calls.clear()
        adjoint_symbol_remainder(SHAPE_SYMBOLS["bump_xi2"], 0.0, xs, 1.0)
        assert Counter(calls) == {batch: LAM, point: 32 * 7}

    def test_batch_of_xi_reading_trees_peaks_as_one_point(self):
        # bump_xi2's tree 2 bump'(x) xi reads xi on the full (y, eta) grid,
        # so one point's integrand alone holds one base kernel's bytes; 32
        # points peak less than one kernel above one point: no (x, y, eta)
        # array is formed
        s = SHAPE_SYMBOLS["bump_xi2"]
        xs = np.linspace(0.0, TWO_PI, 32, endpoint=False)
        adjoint_symbol_remainder(s, 0.0, xs[:1], 3.0)    # kernel, trees

        def peak(points):
            tracemalloc.start()
            try:
                adjoint_symbol_remainder(s, 0.0, points, 3.0)
                return tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
        one, batch = peak(xs[:1]), peak(xs)
        assert batch - one < _kernel(False).K.nbytes

    def test_box_too_small_names_the_first_failing_point(self):
        # x^6 xi: at x = 50 the y shell holds a small share and passes; at
        # x = 1 it holds 0.312 and at x = 2 0.190, so the batch reports x = 1
        s = SymbolExpr(ex.mul(ex.Power(_X, 6), _XI), 1.0, 1)
        adjoint_symbol_remainder(s, 0.0, 50.0, 0.0)
        with pytest.raises(BoxTooSmall, match="fraction 0.312 exceeds"):
            adjoint_symbol_remainder(s, 0.0, np.array([50.0, 1.0, 2.0]),
                                     0.0)
        with pytest.raises(BoxTooSmall, match="fraction 0.190 exceeds"):
            adjoint_symbol_remainder(s, 0.0, np.array([50.0, 2.0, 1.0]),
                                     0.0)



def _remainder_per_pair(s, x, xi):
    """adjoint_symbol_remainder at one x from one _r_theta_per_pair call
    per theta node, accumulated as the one-point quadrature did."""
    trees = _remainder_integrand_trees(s)
    nodes, weights = _gl_nodes(quantization.THETA_NODES)
    acc = 0.0 + 0.0j
    for theta, w in zip(0.5 * (nodes + 1.0), 0.5 * weights):
        acc += w * _r_theta_per_pair(trees, 0.0, float(x), float(xi),
                                     float(theta), False)
    return complex(-1j * acc)


class TestBandProjector:
    def test_idempotent(self, grid32, rng):
        # on spectra the projector is the mask multiply, exactly idempotent
        mask = quantization._band_mask(grid32)
        hat = np.fft.fftn(random_grid_function(grid32, rng).values)
        assert np.array_equal(hat * mask * mask, hat * mask)
        proj = band_projector(grid32)
        u = random_grid_function(grid32, rng)
        once = proj(u.values)
        twice = proj(once)
        assert np.max(np.abs(once - twice)) <= 1e-13
