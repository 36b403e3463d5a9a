"""The sweep's hot loops write into arrays they own.  The allocating
versions they replaced stay here as references: every in-place result must
equal theirs bitwise, since the floating-point operations, their operands
and their order are the same."""

import numpy as np
import pytest

from onewave import cauchy, quantization
from onewave import expr as ex
from onewave.cauchy import (CauchyProblem, Forcing, TimeProfile,
                            derivative_cascade, solve_stack)
from onewave.grid import Grid, GridFunction
from onewave.quantization import (PeriodicOperator, adjoint_defect_norms,
                                  operator_norms)
from onewave.symbols import HyperbolicSymbol, SymbolExpr

from conftest import random_grid_function

TWO_PI = 2.0 * np.pi


# -- the allocating references ----------------------------------------------

def reference_apply_tables(tables, values, grid, adjoint, out):
    """_apply_tables with one new array per expression, written into out."""
    shape, axes = grid.shape, grid.axes
    if not isinstance(tables, quantization._Terms):
        mat = tables.conj().T if adjoint else tables
        rows = values if adjoint else \
            np.fft.fftn(values, shape, axes) / grid.size
        res = np.stack([mat @ row for row in rows.reshape(-1, grid.size)])
        res = (res / grid.size if adjoint else res).reshape(values.shape)
    else:
        res = np.zeros(values.shape, dtype=complex)
        u_hat = None if adjoint else np.fft.fftn(values, shape, axes)
        for f_m, g_m in zip(tables.f, tables.g):
            if adjoint:
                res += np.fft.ifftn(np.conjugate(g_m) * np.fft.fftn(
                    np.conjugate(f_m) * values, shape, axes), shape, axes)
            else:
                res += f_m * np.fft.ifftn(g_m * u_hat, shape, axes)
    out[...] = res
    return out


def reference_rk4(stack, members, out):
    """cauchy._rk4 with new stage arrays every step."""
    if members:
        u = np.stack([m.states[0] for m in members])
        dt = np.array([m.dt for m in members]).reshape(
            (-1,) + (1,) * stack.grid.dim)

    def rhs(ts, v):
        k = -1j * stack.apply(ts, v)
        for row, (m, t) in enumerate(zip(members, ts)):
            if m.forcing is not None:
                k[row] += m.forcing.value(t)
        return k

    step = 0
    while members:
        step += 1
        t0 = [(step - 1) * m.dt for m in members]
        th = [t + m.dt / 2.0 for t, m in zip(t0, members)]
        k1 = rhs(t0, u)
        k2 = rhs(th, u + dt / 2.0 * k1)
        k3 = rhs(th, u + dt / 2.0 * k2)
        k4 = rhs([t + m.dt for t, m in zip(t0, members)], u + dt * k3)
        u = u + dt / 6.0 * (k1 + 2.0 * k2 + 2.0 * k3 + k4)
        nsq, keep = stack.grid.norm_sq(u), []
        for row, m in enumerate(members):
            done = m.advance(step, u[row], float(nsq[row]))
            if done is None:
                keep.append(row)
            out[m.slot] = done
        if len(keep) < len(members):
            members, u, dt = [members[r] for r in keep], u[keep], dt[keep]
            stack.narrow([m.row for m in members])


def reference_band_projector(grid):
    xi = grid.xi_mesh()
    mag = np.sqrt(sum(np.asarray(c) ** 2 for c in xi))
    mask = mag <= 0.5 * grid.max_abs_xi() + 1e-12

    def project(v):
        return np.fft.ifftn(np.fft.fftn(v, grid.shape, grid.axes) * mask,
                            grid.shape, grid.axes)
    return project


def reference_norm_sq(grid, values):
    return grid.cell_volume * np.sum(np.abs(values) ** 2, axis=grid.axes)


def reference_spectral_derivative(grid, values, alpha):
    coeffs = np.fft.fftn(values, grid.shape, grid.axes)
    coeffs /= grid.size
    for axis, order in enumerate(alpha):
        if order:
            shape = [1] * grid.dim
            shape[axis] = grid.points
            coeffs *= (1j * grid.xi_axis().reshape(shape)) ** order
    out = np.fft.ifftn(coeffs, grid.shape, grid.axes)
    out *= grid.size
    return out


@pytest.fixture
def allocating(monkeypatch):
    """Run what follows on the allocating references."""
    def use():
        monkeypatch.setattr(cauchy, "_rk4", reference_rk4)
        monkeypatch.setattr(quantization, "_apply_tables",
                            reference_apply_tables)
        monkeypatch.setattr(quantization, "band_projector",
                            reference_band_projector)
        monkeypatch.setattr(Grid, "norm_sq", reference_norm_sq)
    return use


def same_bits(a, b) -> bool:
    a, b = np.asarray(a), np.asarray(b)
    return a.dtype == b.dtype and a.shape == b.shape and \
        a.tobytes() == b.tobytes()


def assert_same_bits(got, want):
    assert len(got) == len(want)
    for g, w in zip(got, want):
        for name in ("times", "u_norm_sq", "f_norm_sq"):
            assert same_bits(getattr(g.ledger, name), getattr(w.ledger, name))
        for name in ("skew_norm", "c_measured"):
            assert same_bits(getattr(g.ledger, name), getattr(w.ledger, name))
        assert same_bits(g.dt, w.dt)
        assert same_bits(g.snap_times, w.snap_times)
        assert same_bits(g.states, w.states)


# -- symbols ----------------------------------------------------------------

def speed_term(c, axis=0):
    """(c + 0.5 sin x_axis) xi_axis: one separable term."""
    return ex.mul(ex.add(ex.Const(c), ex.mul(ex.Const(0.5),
                                             ex.Sin(ex.CoordX(axis)))),
                  ex.CoordXi(axis))


# xi + 0.01 (1 + t) sin(x xi): not separable, so it takes the dense table
T_DENSE = ex.add(ex.CoordXi(0), ex.mul(
    ex.Const(0.01), ex.add(ex.Const(1.0), ex.CoordT()),
    ex.Sin(ex.mul(ex.CoordX(0), ex.CoordXi(0)))))


def one_d_problems(grid):
    """One-term rows whose dt differ (they leave the stack at different
    steps), a forced row with an a0, and a dense row."""
    x = grid.x_axis()
    g = GridFunction(grid, np.sin(x) + 0.3 * np.cos(5 * x))
    forcing = Forcing.separable(TimeProfile(amp=0.5 + 0.2j, power=1,
                                            freq=3.0),
                                GridFunction(grid, np.cos(2 * x)))
    sym = [HyperbolicSymbol(SymbolExpr(speed_term(c), 1.0, 1))
           for c in (1.0, 1.7, 2.3)]
    forced = HyperbolicSymbol(
        SymbolExpr(speed_term(1.2), 1.0, 1),
        a0=SymbolExpr(ex.mul(ex.Const(0.3), ex.Cos(ex.CoordX(0))), 0.0, 1))
    dense = HyperbolicSymbol(SymbolExpr(T_DENSE, 1.0, 1))
    return [CauchyProblem(s, g, 0.8) for s in sym] + [
        CauchyProblem(forced, g, 0.8, forcing), CauchyProblem(dense, g, 0.8)]


def two_d_problems(grid):
    """Three-term full symbols a1 + a0, one of them t-dependent."""
    x0, x1 = grid.x_mesh()
    g = GridFunction(grid, np.sin(x0) * np.cos(x1) + 0.2 * np.sin(3 * x1))
    a0 = SymbolExpr(ex.mul(ex.Const(0.3), ex.Cos(ex.CoordX(0))), 0.0, 2)
    fixed = ex.add(speed_term(1.0), speed_term(0.8, 1))
    growing = ex.add(ex.mul(ex.add(ex.Const(1.0), ex.mul(
        ex.Const(0.25), ex.CoordT())), speed_term(1.3)), speed_term(0.9, 1))
    return [CauchyProblem(HyperbolicSymbol(SymbolExpr(root, 1.0, 2), a0=a0),
                          g, 0.6) for root in (fixed, growing)]


class TestInPlaceEqualsAllocating:
    @pytest.mark.parametrize("grid, problems", [
        (Grid(1, 32, TWO_PI), one_d_problems),
        (Grid(2, 16, TWO_PI), two_d_problems)])
    def test_solves(self, grid, problems, allocating):
        got = solve_stack(problems(grid), seed=3)
        assert len({r.dt for r in got}) > 1
        allocating()
        assert_same_bits(got, solve_stack(problems(grid), seed=3))

    def test_norm_estimates(self, allocating):
        runs = []
        for grid, problems in ((Grid(1, 32, TWO_PI), one_d_problems),
                               (Grid(2, 16, TWO_PI), two_d_problems)):
            pairs = [pair for p in problems(grid) for pair in (
                (p.symbol.full(), 0.0), (p.symbol.a1, 0.3))]
            runs += [(estimate, pairs, grid)
                     for estimate in (adjoint_defect_norms, operator_norms)]
        got = [estimate(pairs, grid, seed=2) for estimate, pairs, grid in runs]
        allocating()
        assert got == [estimate(pairs, grid, seed=2)
                       for estimate, pairs, grid in runs]

    @pytest.mark.parametrize("name", ["apply", "apply_adjoint"])
    def test_applies(self, name, rng):
        # one symbol, a symbol per row at per-row times (stacked tables),
        # and the dense table; a given out is overwritten and returned.  A
        # zero row meets cos(x) xi, whose terms are signed zeros: the sum
        # starts from +0.
        for grid, problems in ((Grid(1, 32, TWO_PI), one_d_problems),
                               (Grid(2, 16, TWO_PI), two_d_problems)):
            signed = SymbolExpr(ex.mul(ex.Cos(ex.CoordX(0)),
                                       ex.CoordXi(grid.dim - 1)), 1.0, grid.dim)
            syms = [signed] + [p.symbol.full() for p in problems(grid)]
            for op, ts in [(PeriodicOperator(s, grid), 0.4) for s in syms] + [
                    (PeriodicOperator(syms[1:3], grid), [0.1, 0.7]),
                    (PeriodicOperator(syms[-1], grid), [0.1, 0.7])]:
                rows = 2 if isinstance(ts, list) else 3
                values = np.stack([random_grid_function(grid, rng).values
                                   for _ in range(rows)])
                values[0] = 0.0
                kept = values.copy()
                out = np.full(values.shape, np.nan + 0j)
                assert getattr(op, name)(ts, values, out=out) is out
                assert same_bits(values, kept)
                want = np.empty_like(out)
                for k, row in enumerate(values):
                    t = ts[k] if isinstance(ts, list) else ts
                    one = PeriodicOperator(
                        op.symbols[k % len(op.symbols)], grid)
                    reference_apply_tables(
                        one._tables(0, one._key(0, t)), row, grid,
                        name == "apply_adjoint", want[k])
                assert same_bits(out, want)
                assert same_bits(getattr(op, name)(ts, values), want)


class TestSpectralDerivatives:
    @pytest.mark.parametrize("dim", [1, 2])
    def test_several_alphas_equal_one_alpha_calls(self, dim, rng):
        grid = Grid(dim, 32 if dim == 1 else 16, TWO_PI)
        stack = np.stack([random_grid_function(grid, rng).values
                          for _ in range(3)])
        alphas = [(0,) * dim, (1,) * dim, (3,) + (0,) * (dim - 1),
                  (0,) * (dim - 1) + (2,), (1,) * dim]
        kept = stack.copy()
        several = grid.spectral_derivative(stack, *alphas)
        assert same_bits(stack, kept)
        assert len(several) == len(alphas)
        for alpha, got in zip(alphas, several):
            [one] = grid.spectral_derivative(stack, alpha)
            assert same_bits(got, one)
            assert same_bits(got, reference_spectral_derivative(
                grid, stack, alpha))
        assert grid.spectral_derivative(stack) == []

    def test_cascade_reads_given_derivatives(self):
        # the sweep hands the cascade the snapshot derivatives it computed
        # for the norms; the report is bitwise the one computed here
        grid = Grid(1, 32, TWO_PI)
        problem = one_d_problems(grid)[3]
        [result] = solve_stack([problem])
        alphas = [(3,), (1,), (0,), (2,), (4,)]
        shared = dict(zip(alphas, grid.spectral_derivative(result.states,
                                                           *alphas)))
        got = derivative_cascade(problem, result, 3, shared)
        want = derivative_cascade(problem, result, 3)
        assert list(got) == list(want) == [(1,), (2,), (3,)]
        for alpha in want:
            for key in ("v_norm_sq", "H", "bound"):
                assert same_bits(got[alpha][key], want[alpha][key])
            assert got[alpha]["H_integral"] == want[alpha]["H_integral"]
