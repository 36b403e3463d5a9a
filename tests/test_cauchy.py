"""Fixed-eps solves: exactness, stability policy, energy bookkeeping."""

import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from onewave import cauchy, scenario
from onewave import expr as ex
from onewave.cauchy import (CauchyProblem, Forcing, TimeProfile,
                            check_case_variants, check_energy_estimate,
                            derivative_cascade, seminorm_constant,
                            solve_fixed_eps)
from onewave.config import CALIBRATED_C, CFL_MARGIN, CFL_SAFETY
from onewave.errors import NonFinite, UnstableStep
from onewave.grid import Grid, GridFunction
from onewave.presets import get_preset
from onewave.quantization import PeriodicOperator
from onewave.symbols import HyperbolicSymbol, SymbolExpr

TWO_PI = 2.0 * np.pi


def transport_problem(grid, horizon=1.0, extra_mode=True):
    a1 = SymbolExpr(ex.CoordXi(0), 1.0, 1)
    sym = HyperbolicSymbol(a1=a1, x_independent_outside=0.0)
    x = grid.x_axis()
    vals = np.sin(x) + 0.6 * np.cos(2 * x)
    if extra_mode:
        vals = vals + 0.1 * np.sin(20 * x)
    return CauchyProblem(symbol=sym, initial=GridFunction(grid, vals),
                         horizon=horizon)


def transport_exact(grid, t, extra_mode=True):
    x = np.mod(grid.x_axis() - t, grid.length)
    vals = np.sin(x) + 0.6 * np.cos(2 * x)
    if extra_mode:
        vals = vals + 0.1 * np.sin(20 * x)
    return vals


class TestTransport:
    def test_exactness(self, grid256):
        prob = transport_problem(grid256)
        res = solve_fixed_eps(prob, 1e-3, seed=0)
        err = np.max(np.abs(res.final().values - transport_exact(grid256, 1.0)))
        assert err <= 1e-6

    def test_rk4_order(self, grid256):
        prob = transport_problem(grid256)
        errs = []
        for dt in (4e-3, 2e-3, 1e-3):
            res = solve_fixed_eps(prob, dt, seed=0)
            errs.append(np.max(np.abs(res.final().values -
                                      transport_exact(grid256, 1.0))))
        for a, b in zip(errs, errs[1:]):
            assert 16.0 * 0.8 <= a / b <= 16.0 * 1.2

    def test_unitarity_drift(self, grid256):
        prob = transport_problem(grid256, extra_mode=False)
        res = solve_fixed_eps(prob, 1e-3, seed=0)
        norms = np.sqrt(res.ledger.u_norm_sq)
        drift = np.max(np.abs(norms - norms[0])) / norms[0]
        assert drift <= 1e-10

    def test_final_is_a_read_only_copy(self, grid32):
        # a view of states would keep the whole snapshot stack alive
        res = solve_fixed_eps(transport_problem(grid32, horizon=0.1), seed=0)
        final = res.final().values
        assert final.base is None and not final.flags.writeable
        assert np.array_equal(final, res.states[-1])
        assert res.states.shape == (len(res.snap_times),) + grid32.shape

    def test_zero_data_stays_zero(self, grid32):
        a1 = SymbolExpr(ex.mul(ex.add(ex.Const(2.0), ex.Sin(ex.CoordX(0))),
                               ex.CoordXi(0)), 1.0, 1)
        prob = CauchyProblem(symbol=HyperbolicSymbol(a1=a1),
                             initial=GridFunction.zeros(grid32), horizon=0.5)
        res = solve_fixed_eps(prob, seed=0)
        assert np.all(res.final().values == 0.0)
        assert np.all(res.ledger.u_norm_sq == 0.0)


class TestInvariants:
    def test_linearity(self, grid32, rng):
        a1 = SymbolExpr(ex.mul(ex.add(ex.Const(2.0), ex.Sin(ex.CoordX(0))),
                               ex.CoordXi(0)), 1.0, 1)
        sym = HyperbolicSymbol(a1=a1)
        g1 = GridFunction(grid32, rng.standard_normal(32) +
                          1j * rng.standard_normal(32))
        g2 = GridFunction(grid32, rng.standard_normal(32))
        alpha, beta = 0.7 - 0.2j, 1.3 + 0.4j

        def solve_with(g0):
            return solve_fixed_eps(
                CauchyProblem(symbol=sym, initial=g0, horizon=0.3),
                seed=0).final()

        combo = solve_with(GridFunction(grid32, alpha * g1.values +
                                        beta * g2.values))
        separate = alpha * solve_with(g1).values + beta * solve_with(g2).values
        assert np.max(np.abs(combo.values - separate)) <= 1e-10

    def test_time_reversibility(self, grid256):
        # t-independent real symbol: forward with a then forward with -a
        # retraces the evolution
        c = ex.add(ex.Const(2.0), ex.Sin(ex.CoordX(0)))
        a1 = SymbolExpr(ex.mul(c, ex.CoordXi(0)), 1.0, 1)
        x = grid256.x_axis()
        g0 = GridFunction(grid256, np.exp(np.sin(x)))
        fwd = solve_fixed_eps(
            CauchyProblem(symbol=HyperbolicSymbol(a1=a1), initial=g0,
                          horizon=0.5),
            1e-3, seed=0)
        a1_neg = SymbolExpr(ex.mul(ex.Const(-1.0), c, ex.CoordXi(0)), 1.0, 1)
        back = solve_fixed_eps(
            CauchyProblem(symbol=HyperbolicSymbol(a1=a1_neg),
                          initial=fwd.final(), horizon=0.5),
            1e-3, seed=0)
        assert np.max(np.abs(back.final().values - g0.values)) <= 1e-8

    def test_cfl_policy_rejects_large_dt(self, grid256):
        prob = transport_problem(grid256)
        with pytest.raises(UnstableStep, match="exceeds margin"):
            solve_fixed_eps(prob, 0.1, seed=0)

    def test_cfl_override_allows_and_guard_catches(self, grid256,
                                                   monkeypatch):
        # with no CFL margin, the growth guard stops the unstable step
        monkeypatch.setattr(cauchy, "CFL_MARGIN", math.inf)
        prob = transport_problem(grid256)
        with pytest.raises(UnstableStep, match="Gronwall"):
            solve_fixed_eps(prob, 0.1, seed=0)

    def test_non_finite_sup_is_a_runtime_error(self):
        # a NaN sup|a| would otherwise reach math.ceil as a ValueError
        for dt in (None, 1e-3):
            with pytest.raises(NonFinite, match="sup"):
                cauchy.step_size(dt, 1.0, math.nan)


class TestSolveNeeds:
    """A solve computes dt, the guard norms and the Gronwall constant; the
    semi-norm constant is left to the verdicts that compare against it."""

    def test_solve_never_computes_seminorm_constant(self, grid256,
                                                    monkeypatch):
        def refuse(*args, **kwargs):
            raise AssertionError("a solve computed the semi-norm constant")
        monkeypatch.setattr(cauchy, "seminorm_constant", refuse)
        solve_fixed_eps(transport_problem(grid256), 1e-3, seed=0)
        scenario.ScenarioContext(get_preset("transport_smoke")).solve(dt=2e-3)

    def test_transport_smoke_computes_constant_three_times(self, monkeypatch):
        # energy once, case_variants for cases b and c; no solve computes it
        calls = []

        def counted(*args, **kwargs):
            calls.append(args)
            return seminorm_constant(*args, **kwargs)
        for module in (cauchy, scenario):
            monkeypatch.setattr(module, "seminorm_constant", counted)
        ok, _ = scenario.run_scenario(get_preset("transport_smoke"),
                                      echo=lambda line: None)
        assert ok
        assert len(calls) == 3

    def test_each_solve_and_sweep_runs_once(self, monkeypatch):
        # rk4_convergence's factor-1 dt is transport_smoke's own dt; every
        # sweep check of a scenario reads one sweep, cascade included
        calls = []

        def counted(name, fn):
            def run(*args, **kwargs):
                calls.append(name)
                return fn(*args, **kwargs)
            return run
        monkeypatch.setattr(scenario, "solve_fixed_eps", counted(
            "solve", scenario.solve_fixed_eps))
        monkeypatch.setattr(scenario, "run_sweep", counted(
            "sweep", scenario.run_sweep))
        scenario.run_scenario(get_preset("transport_smoke"),
                              echo=lambda line: None)
        assert calls == ["solve"] * 3
        calls.clear()
        cfg = get_preset("piecewise_speed_logtype")
        cfg["grid"]["points"] = 64
        cfg["checks"] = ["gronwall_fit", "moderateness", "negligible"]
        scenario.run_scenario(cfg, echo=lambda line: None)
        assert calls == ["sweep"]

    def test_automatic_dt_meets_cfl_on_full_grid(self):
        # (1 - 0.5 cos 32 x1) xi0 + 0.001 sin(x0 xi0) on a 2-D M=64 grid: a
        # dense symbol whose speed 1.5 sits on the odd x1 nodes only
        grid = Grid(2, 64, TWO_PI)
        speed = ex.add(ex.Const(1.0), ex.mul(ex.Const(-0.5), ex.Cos(
            ex.mul(ex.Const(32.0), ex.CoordX(1)))))
        root = ex.add(ex.mul(speed, ex.CoordXi(0)), ex.mul(
            ex.Const(0.001), ex.Sin(ex.mul(ex.CoordX(0), ex.CoordXi(0)))))
        symbol = SymbolExpr(root, 1.0, 2)
        op = PeriodicOperator(symbol, grid)
        assert not op.separable
        dt = cauchy.step_size(None, 1.0, op.sup_abs(0.0))
        del op      # the dense table holds 4096^2 complex entries
        # reference: max|a| over every (x_j, xi_k), a block of rows at a time
        pts = grid.flat_points()
        xi = tuple(m.ravel()[None, :] for m in grid.xi_mesh())
        sup = max(float(np.max(np.abs(root.eval(
            0.0, tuple(pts[i:i + 256, a][:, None] for a in range(2)), xi))))
            for i in range(0, grid.size, 256))
        assert sup == pytest.approx(48.0, rel=1e-3)
        assert dt * sup <= CFL_SAFETY * CFL_MARGIN * (1.0 + 1e-12)


    def test_dense_table_peaks_below_400_mb(self):
        # the dense table of the case above, built in a fresh interpreter:
        # 4096^2 complex entries are 268 MB, and filling the phase and the
        # symbol a block of rows at a time keeps the peak near that
        child = """
import resource
import numpy as np
from onewave import expr as ex
from onewave.grid import Grid
from onewave.quantization import PeriodicOperator
from onewave.symbols import SymbolExpr
speed = ex.add(ex.Const(1.0), ex.mul(ex.Const(-0.5), ex.Cos(
    ex.mul(ex.Const(32.0), ex.CoordX(1)))))
root = ex.add(ex.mul(speed, ex.CoordXi(0)), ex.mul(
    ex.Const(0.001), ex.Sin(ex.mul(ex.CoordX(0), ex.CoordXi(0)))))
op = PeriodicOperator(SymbolExpr(root, 1.0, 2), Grid(2, 64, 2.0 * np.pi))
assert not op.separable and op.sup_abs(0.0) > 0.0
print(resource.getrusage(resource.RUSAGE_SELF).ru_maxrss)
"""
        src = str(Path(__file__).resolve().parents[1] / "src")
        done = subprocess.run([sys.executable, "-c", child], check=True,
                              capture_output=True, text=True,
                              env={**os.environ, "PYTHONPATH": src})
        assert int(done.stdout) / 1024 <= 400.0     # ru_maxrss is in KiB


class TestEnergy:
    def test_constant_transport_pointwise(self, grid256):
        prob = transport_problem(grid256)
        res = solve_fixed_eps(prob, 1e-3, seed=0)
        c_sem = seminorm_constant(prob.symbol, grid256, prob.horizon)
        rep = check_energy_estimate(res.ledger, c_sem)
        assert rep["pointwise_ok"] and rep["gronwall_ok"]
        assert rep["seminorm_dominates"]

    def test_calibration_rescale(self, grid256):
        # the check compares the constant it is given: rescaling the
        # calibration C rescales the constant passed in
        prob = transport_problem(grid256)
        res = solve_fixed_eps(prob, 1e-3, seed=0)
        c_sem = seminorm_constant(prob.symbol, grid256, prob.horizon)
        base = check_energy_estimate(res.ledger, c_sem)
        huge = check_energy_estimate(res.ledger,
                                     c_sem * 100.0 / CALIBRATED_C[1])
        assert huge["c_seminorm"] > base["c_seminorm"]
        tiny = check_energy_estimate(res.ledger,
                                     c_sem * 1e-6 / CALIBRATED_C[1])
        assert tiny["seminorm_dominates"] is False
        assert check_energy_estimate(res.ledger)["seminorm_dominates"] is None

    def test_damping_keeps_norm_down(self, grid256):
        # a = c(x) xi + i b(x) with b <= 0 damps; the measured bound must
        # still dominate (oracle: run and compare against the bound)
        c = ex.add(ex.Const(2.0), ex.Sin(ex.CoordX(0)))
        a1 = SymbolExpr(ex.mul(c, ex.CoordXi(0)), 1.0, 1)
        damp = ex.mul(ex.Const(1j),
                      ex.add(ex.Const(-0.6), ex.mul(ex.Const(0.4),
                                                    ex.Cos(ex.CoordX(0)))))
        a0 = SymbolExpr(damp, 0.0, 1)
        x = grid256.x_axis()
        g0 = GridFunction(grid256, np.exp(np.sin(x)))
        prob = CauchyProblem(symbol=HyperbolicSymbol(a1=a1, a0=a0),
                             initial=g0, horizon=0.75)
        res = solve_fixed_eps(prob, seed=0)
        rep = check_energy_estimate(res.ledger)
        assert rep["pointwise_ok"] and rep["gronwall_ok"]
        # i*(negative real) is dissipative: the norm must not grow
        assert res.ledger.u_norm_sq[-1] <= res.ledger.u_norm_sq[0] * (1 + 1e-9)

    def test_forced_problem(self, grid256):
        a1 = SymbolExpr(ex.CoordXi(0), 1.0, 1)
        x = grid256.x_axis()
        shape = GridFunction(grid256, np.cos(x))
        forcing = Forcing.separable(TimeProfile(amp=0.5, freq=2.0), shape)
        prob = CauchyProblem(symbol=HyperbolicSymbol(a1=a1),
                             initial=GridFunction.zeros(grid256),
                             horizon=1.0, forcing=forcing)
        res = solve_fixed_eps(prob, 1e-3, seed=0)
        rep = check_energy_estimate(res.ledger)
        assert rep["pointwise_ok"] and rep["gronwall_ok"]
        assert res.ledger.u_norm_sq[-1] > 0


class TestCaseVariants:
    def test_x_independent_qualifies_for_case_b(self, grid256):
        prob = transport_problem(grid256, extra_mode=False)
        rep = check_case_variants(prob, solve_fixed_eps(prob, seed=0), seed=0)
        assert rep["case_b"]["applicable"]
        assert rep["case_b"]["dominates_measured"]
        assert rep["case_b"]["gronwall_ok"]

    def test_real_symbol_case_c(self, grid256):
        c = ex.add(ex.Const(2.0), ex.Sin(ex.CoordX(0)))
        a1 = SymbolExpr(ex.mul(c, ex.CoordXi(0)), 1.0, 1)
        x = grid256.x_axis()
        prob = CauchyProblem(symbol=HyperbolicSymbol(a1=a1),
                             initial=GridFunction(grid256, np.sin(x)),
                             horizon=0.5)
        rep = check_case_variants(prob, solve_fixed_eps(prob, seed=0), seed=0)
        assert rep["case_c"]["applicable"]
        assert rep["case_c"]["dominates_measured"]
        assert rep["case_c"]["gronwall_ok"]

    def test_complex_a0_not_case_c(self, grid32):
        a1 = SymbolExpr(ex.CoordXi(0), 1.0, 1)
        a0 = SymbolExpr(ex.mul(ex.Const(2j), ex.Sin(ex.CoordX(0))), 0.0, 1)
        prob = CauchyProblem(symbol=HyperbolicSymbol(a1=a1, a0=a0),
                             initial=GridFunction.zeros(grid32), horizon=0.25)
        rep = check_case_variants(prob, solve_fixed_eps(prob, seed=0), seed=0)
        assert not rep["case_c"]["applicable"]
        assert "reason" in rep["case_c"]

    def test_case_c_constant_leaves_out_a0(self, grid32):
        # a real a0 enters case c only through its adjoint defect
        a1 = SymbolExpr(ex.CoordXi(0), 1.0, 1)
        a0 = SymbolExpr(ex.Sin(ex.CoordX(0)), 0.0, 1)
        prob = CauchyProblem(symbol=HyperbolicSymbol(a1=a1, a0=a0),
                             initial=GridFunction.zeros(grid32), horizon=0.25)
        rep = check_case_variants(prob, solve_fixed_eps(prob, seed=0), seed=0)
        without_a0 = seminorm_constant(HyperbolicSymbol(a1=a1), grid32, 0.25)
        assert rep["case_c"]["c_seminorm"] == without_a0
        assert seminorm_constant(prob.symbol, grid32, 0.25) > without_a0

    def test_unknown_case_rejected(self, grid32):
        # not case a under another label
        prob = transport_problem(grid32)
        with pytest.raises(ValueError, match="unknown case 'x'"):
            seminorm_constant(prob.symbol, grid32, prob.horizon, case="x")


class TestCascade:
    def test_commutators_vanish_for_multiplier(self, grid256):
        # x-independent symbol: d^alpha u solves the same problem with data
        # d^alpha g, so the cascade ledger must match a fresh solve
        prob = transport_problem(grid256, extra_mode=False)
        result = solve_fixed_eps(prob, 1e-3, seed=0)
        rep = derivative_cascade(prob, result, max_order=2)
        for alpha, entry in rep.items():
            assert np.max(entry["H"]) <= 1e-20
            [g_alpha] = grid256.spectral_derivative(prob.initial.values, alpha)
            fresh = solve_fixed_eps(
                CauchyProblem(symbol=prob.symbol,
                              initial=GridFunction(grid256, g_alpha),
                              horizon=prob.horizon),
                1e-3, seed=0)
            snap_t = entry["times"]
            fresh_interp = np.interp(snap_t, fresh.times,
                                     fresh.ledger.u_norm_sq)
            assert np.max(np.abs(entry["v_norm_sq"] - fresh_interp)) <= 1e-10

    def test_variable_speed_bounds_hold(self, grid256):
        c = ex.add(ex.Const(2.0), ex.Sin(ex.CoordX(0)))
        a1 = SymbolExpr(ex.mul(c, ex.CoordXi(0)), 1.0, 1)
        x = grid256.x_axis()
        g0 = GridFunction(grid256, np.sin(x) + 0.5 * np.sin(10 * x))
        prob = CauchyProblem(symbol=HyperbolicSymbol(a1=a1), initial=g0,
                             horizon=0.5)
        result = solve_fixed_eps(prob, seed=0)
        rep = derivative_cascade(prob, result, max_order=3)
        assert all(entry["ok"] for entry in rep.values())
        assert set(rep) == {(1,), (2,), (3,)}
