"""Fixed-eps solves: exactness, stability policy, energy bookkeeping."""

import json
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
                            seminorm_dominates, solve_fixed_eps)
from onewave.config import CALIBRATED_C, CFL_MARGIN, CFL_SAFETY
from onewave.errors import NonFinite, TooLarge, UnstableStep
from onewave.grid import Grid, GridFunction
from onewave.presets import get_preset
from onewave.quantization import (PeriodicOperator, adjoint_defect_norm,
                                  operator_norms)
from onewave.regularization import (RoughCoefficient, RoughTransport,
                                    regularize_symbol)
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


SPEED = ex.add(ex.Const(2.0), ex.Sin(ex.CoordX(0)))
# (2 + sin x) xi, then with the factor 1 + t/4 (a t-dependent symbol steps
# with d = 0), then plus 0.05 sin(x xi) (not separable: the dense table)
ORDER_ROOTS = {
    "lawson": ex.mul(SPEED, ex.CoordXi(0)),
    "t_dependent": ex.mul(ex.add(ex.Const(1.0), ex.mul(
        ex.Const(0.25), ex.CoordT())), SPEED, ex.CoordXi(0)),
    "dense": ex.add(ex.mul(SPEED, ex.CoordXi(0)), ex.mul(ex.Const(0.05), ex.Sin(
        ex.mul(ex.CoordX(0), ex.CoordXi(0))))),
}


def variable_speed_problem(grid, root=ORDER_ROOTS["lawson"], horizon=0.5):
    x = grid.x_axis()
    return CauchyProblem(
        symbol=HyperbolicSymbol(SymbolExpr(root, 1.0, 1)),
        initial=GridFunction(grid, np.sin(x) + 0.5 * np.sin(10 * x)),
        horizon=horizon)


def halving_ratios(problem, dts=(4e-3, 2e-3, 1e-3)):
    """Error ratios of successive dt halvings against the solve at the
    last dt / 4, as the rk4_convergence check takes them."""
    ref = solve_fixed_eps(problem, dts[-1] / 4, seed=0).states[-1]
    errs = [np.max(np.abs(solve_fixed_eps(problem, dt, seed=0).states[-1]
                          - ref)) for dt in dts]
    return [a / b for a, b in zip(errs, errs[1:])]


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
        # the exact multiplier leaves transport no step error, so the order
        # is measured on a variable speed against a refined solve
        for ratio in halving_ratios(variable_speed_problem(grid256)):
            assert 16.0 * 0.8 <= ratio <= 16.0 * 1.2

    @pytest.mark.parametrize("kind", ["t_dependent", "dense"])
    def test_rk4_order_with_zero_multiplier(self, kind):
        # these rows take d = 0: the loop is classical RK4
        grid = Grid(1, 64, TWO_PI)
        for ratio in halving_ratios(variable_speed_problem(
                grid, ORDER_ROOTS[kind])):
            assert 16.0 * 0.8 <= ratio <= 16.0 * 1.2

    @pytest.mark.parametrize("dt", [None, 1e-3])
    def test_x_free_symbol_is_stepped_exactly(self, grid256, dt):
        # a1 = xi is all multiplier: its rest is 0, any dt is stable, and
        # the automatic step is the whole horizon
        res = solve_fixed_eps(transport_problem(grid256), dt, seed=0)
        err = np.max(np.abs(res.final().values - transport_exact(grid256, 1.0)))
        assert err <= 1e-12
        assert len(res.times) - 1 == (1 if dt is None else 1000)

    def test_unitarity_drift(self, grid256):
        prob = transport_problem(grid256, extra_mode=False)
        res = solve_fixed_eps(prob, 1e-3, seed=0)
        norms = np.sqrt(res.ledger.u_norm_sq)
        drift = np.max(np.abs(norms - norms[0])) / norms[0]
        assert drift <= 1e-10

    def test_final_is_a_read_only_copy(self, grid32):
        # u(T) comes from the last spectrum alone, so it keeps no snapshot
        # alive; the grid values are the spectra inverse-transformed
        res = solve_fixed_eps(transport_problem(grid32, horizon=0.1), seed=0)
        final = res.final().values
        assert final.base is None and not final.flags.writeable
        assert np.array_equal(final, res.states[-1])
        assert res.states.shape == res.spectra.shape == \
            (len(res.snap_times),) + grid32.shape
        assert not res.states.flags.writeable
        assert not res.spectra.flags.writeable
        assert np.array_equal(res.states, np.fft.ifftn(res.spectra,
                                                       axes=(-1,)))

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
        prob = variable_speed_problem(grid256)
        with pytest.raises(UnstableStep, match="exceeds margin"):
            solve_fixed_eps(prob, 0.1, seed=0)

    def test_cfl_override_allows_and_guard_catches(self, grid256,
                                                   monkeypatch):
        # with no CFL margin, the growth guard stops the unstable step
        monkeypatch.setattr(cauchy, "CFL_MARGIN", math.inf)
        prob = variable_speed_problem(grid256, horizon=1.0)
        with pytest.raises(UnstableStep, match="Gronwall"):
            solve_fixed_eps(prob, 0.1, seed=0)

    def test_t_dependent_step_reads_every_sample_time(self):
        # (1 + 9 sin^2(4 pi t / T)) (2 + sin x) xi with T = 1: sup|a| is 96
        # at t = 0, T/4, T/2, 3T/4 and T, but 960 at T/8, one of the
        # symbol's sample times; the step reads the sup over all of them
        grid, horizon = Grid(1, 64, TWO_PI), 1.0
        wave = ex.Sin(ex.mul(ex.Const(4.0 * math.pi / horizon), ex.CoordT()))
        pulse = ex.add(ex.Const(1.0), ex.mul(ex.Const(9.0), wave, wave))
        symbol = HyperbolicSymbol(SymbolExpr(
            ex.mul(pulse, SPEED, ex.CoordXi(0)), 1.0, 1))
        x = grid.x_axis()
        problem = CauchyProblem(symbol, GridFunction(grid, np.sin(x)),
                                horizon)
        op = PeriodicOperator(symbol.full(), grid)
        sups = [op.sup_abs(t)[0] for t in symbol.sample_times(horizon)]
        assert max(sups[::8]) == pytest.approx(96.0)
        assert max(sups) == pytest.approx(960.0)
        result = solve_fixed_eps(problem, seed=0)
        assert result.dt * max(sups) <= CFL_MARGIN
        assert len(result.times) - 1 == 381     # ceil(960 / 2.52)
        assert np.isfinite(result.ledger.u_norm_sq[-1])
        # an explicit step stable at the five times alone is refused
        with pytest.raises(UnstableStep, match="exceeds margin"):
            solve_fixed_eps(problem, CFL_SAFETY * CFL_MARGIN / 96.0, seed=0)

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
        # every transport_smoke check reads its one solve; rk4_convergence
        # adds its reference and its dt * 4 and dt * 2 solves, its factor-1
        # dt being the config's own; every sweep check of a scenario reads
        # one sweep, cascade included
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
        assert calls == ["solve"]
        calls.clear()
        cfg = get_preset("variable_speed_smooth")
        cfg["dt"] = 1e-3
        cfg["checks"] = ["rk4_convergence", "energy"]
        scenario.run_scenario(cfg, echo=lambda line: None)
        assert calls == ["solve"] * 4
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
        sup_a, sup_r = op.sup_abs(0.0)
        assert sup_r == sup_a       # a dense table has no multiplier share
        dt = cauchy.step_size(None, 1.0, sup_a)
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
assert not op.separable
assert np.all(np.isfinite(op.apply(0.0, np.ones(op.grid.shape))))
print(resource.getrusage(resource.RUSAGE_SELF).ru_maxrss)
"""
        src = str(Path(__file__).resolve().parents[1] / "src")
        done = subprocess.run([sys.executable, "-c", child], check=True,
                              capture_output=True, text=True,
                              env={**os.environ, "PYTHONPATH": src})
        assert int(done.stdout) / 1024 <= 400.0     # ru_maxrss is in KiB


class TestStackCaps:
    def test_members_share_the_step_cap(self, monkeypatch):
        # 600,000 steps each are under config.MAX_STEPS, 1,200,000 together
        # are not: the call is refused before any member steps
        def step(stack, members, out):
            raise AssertionError("a refused stack stepped")
        monkeypatch.setattr(cauchy, "_rk4", step)
        grid = Grid(1, 2, TWO_PI)
        problems = [transport_problem(grid, horizon=600.0) for _ in range(2)]
        with pytest.raises(TooLarge,
                           match="2 stacked solves take 1200000 steps"):
            cauchy.solve_stack(problems, 1e-3)


class TestEnergy:
    def test_constant_transport_pointwise(self, grid256):
        prob = transport_problem(grid256)
        res = solve_fixed_eps(prob, 1e-3, seed=0)
        rep = check_energy_estimate(res.ledger)
        assert rep["pointwise_ok"] and rep["gronwall_ok"]
        assert seminorm_dominates(
            seminorm_constant(prob.symbol, grid256, prob.horizon),
            res.ledger.c_measured)

    def test_calibration_rescale(self, grid256):
        # the rule compares the constant it is given: rescaling the
        # calibration C rescales that constant, and the estimate itself
        # compares no semi-norm constant
        prob = transport_problem(grid256)
        res = solve_fixed_eps(prob, 1e-3, seed=0)
        c_sem = seminorm_constant(prob.symbol, grid256, prob.horizon)
        c_meas = res.ledger.c_measured
        assert seminorm_dominates(c_sem * 100.0 / CALIBRATED_C[1], c_meas)
        assert not seminorm_dominates(c_sem * 1e-6 / CALIBRATED_C[1], c_meas)
        assert set(check_energy_estimate(res.ledger)) == {
            "pointwise_ok", "gronwall_ok", "pointwise_margin_min"}

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


class TestDominanceRule:
    def test_infinite_constant_fails_every_check(self, monkeypatch):
        # energy, case_variants and gronwall_fit share one rule: a semi-norm
        # constant dominates when it is finite and at least the measured one
        contexts = []
        for preset, checks in (("variable_speed_smooth",
                                 ["energy", "case_variants"]),
                                ("piecewise_speed_logtype", ["gronwall_fit"])):
            cfg = get_preset(preset)
            cfg["checks"] = checks
            contexts.append(scenario.ScenarioContext(cfg))

        def outcomes():
            return [check(ctx).line() for ctx in contexts
                    for check in ctx.checks]
        assert all(line.startswith("PASS") for line in outcomes())
        for module in (cauchy, scenario):
            monkeypatch.setattr(module, "seminorm_constant",
                                lambda *args, **kwargs: math.inf)
        lines = outcomes()
        assert len(lines) == 3
        assert all(line.startswith("FAIL") for line in lines), lines


class TestCaseVariants:
    def test_x_independent_qualifies_for_case_b(self, grid256):
        prob = transport_problem(grid256, extra_mode=False)
        rep = check_case_variants(prob, solve_fixed_eps(prob, seed=0), seed=0)
        assert rep["case_b"]["applicable"]
        assert rep["case_b"]["dominates_measured"]
        assert rep["case_b"]["gronwall_ok"]

    @pytest.mark.parametrize("tag, reason", [
        (0.0, "the symbol varies in x 0 or more from the midpoint"),
        (1e9, "no sample x lies 1e+09 or more from the midpoint")],
        ids=["radius_0", "radius_1e9"])
    def test_false_tag_not_case_b(self, tag, reason):
        # (2 + sin x) xi is a multiplier nowhere: the tag is checked on
        # samples, so case b does not apply whatever its radius
        cfg = get_preset("variable_speed_smooth")
        cfg["grid"]["points"] = 128
        cfg["symbol"]["x_independent_outside"] = tag
        cfg["checks"] = ["case_variants"]
        ok, [outcome] = scenario.run_scenario(cfg, echo=lambda line: None)
        assert ok, outcome.line()
        assert f"case_b: n/a ({reason})" in outcome.message

    def test_tagged_rough_family_not_case_b(self, grid32):
        # a mollified member is a trigonometric polynomial in x, so it is
        # constant on no interval
        pc = RoughCoefficient("piecewise_constant", TWO_PI,
                              breakpoints=[2.0, 4.3], values=[2.0, 1.0])
        member = regularize_symbol(RoughTransport(
            speeds=(pc,), x_independent_outside=0.0), 1, 1e-3)
        assert member.outside_tag_refusal(grid32, 1.0) == \
            "the symbol varies in x 0 or more from the midpoint"

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

    @staticmethod
    def _t_dependent_a0(grid, a0_root):
        """variable_speed_smooth's solve with a0 = a0_root, which reads t."""
        c = ex.add(ex.Const(2.0), ex.Sin(ex.CoordX(0)))
        a1 = SymbolExpr(ex.mul(c, ex.CoordXi(0)), 1.0, 1)
        a0 = SymbolExpr(a0_root, 0.0, 1)
        prob = CauchyProblem(symbol=HyperbolicSymbol(a1=a1, a0=a0),
                             initial=GridFunction(grid, np.sin(grid.x_axis())),
                             horizon=0.75)
        result = solve_fixed_eps(prob, seed=0)
        return prob, result, check_case_variants(prob, result, seed=0)

    def test_a0_complex_after_t0_not_case_c(self, grid256):
        # a0 = 4i t sin x is real at t = 0 only
        _, _, rep = self._t_dependent_a0(grid256, ex.mul(
            ex.Const(4j), ex.CoordT(), ex.Sin(ex.CoordX(0))))
        assert not rep["case_c"]["applicable"]

    def test_case_c_a0_defect_over_the_horizon(self, grid256):
        # real a0 = 3 t sin(x) xi <xi>^-1: its defect is 0 at t = 0 and
        # largest at T, where the ledger's norms also sample it
        a0_root = ex.mul(ex.Const(3.0), ex.CoordT(), ex.Sin(ex.CoordX(0)),
                         ex.CoordXi(0), ex.JapaneseBracket(-1.0))
        prob, result, rep = self._t_dependent_a0(grid256, a0_root)
        defect = adjoint_defect_norm(SymbolExpr(a0_root, 0.0, 1), 0.75,
                                     grid256, seed=0).value
        assert defect > 1.0
        assert rep["case_c"]["applicable"]
        assert rep["case_c"]["c_measured_reduced"] == \
            1.0 + result.ledger.skew_norm + defect

    def test_a0_vanishing_at_0_half_and_end_is_sampled(self):
        # variable_speed_smooth with a0 = 4i sin(2 pi t / T) sin x, which is
        # 0 at t = 0, T/2 and T: the norms and the reality check sample the
        # semi-norms' 33 times, so c_measured carries 2 sup_t ||a0|| and
        # case c does not apply
        cfg = get_preset("variable_speed_smooth")
        horizon = cfg["horizon"]
        cfg["symbol"]["a0"]["expr"] = {"node": "product", "children": [
            {"node": "constant", "re": 0.0, "im": 4.0},
            {"node": "sin", "child": {"node": "product", "children": [
                {"node": "constant", "re": 2 * np.pi / horizon, "im": 0.0},
                {"node": "coord_t"}]}},
            {"node": "sin", "child": {"node": "coord_x", "axis": 0}}]}
        cfg["checks"] = ["case_variants"]
        ctx = scenario.ScenarioContext(cfg)
        [variants] = [check(ctx) for check in ctx.checks]
        problem, result = ctx.solve()
        # a0 is x-only, so c_measured reads each estimate's upper end
        a0_norm = max(est.upper for est in operator_norms(
            [(problem.symbol.a0, t) for t in np.linspace(0.0, horizon, 33)],
            ctx.grid, seed=ctx.seed))
        assert a0_norm > 3.9
        assert result.ledger.c_measured == \
            1.0 + result.ledger.skew_norm + 2.0 * a0_norm
        assert variants.number == result.ledger.c_measured
        assert "case_c: n/a (a0 is not real-valued)" in variants.message
        # nor does case b, untagged, so no case compares anything
        assert not variants.ok

    def test_complex_a0_not_case_c(self, grid32):
        a1 = SymbolExpr(ex.CoordXi(0), 1.0, 1)
        a0 = SymbolExpr(ex.mul(ex.Const(2j), ex.Sin(ex.CoordX(0))), 0.0, 1)
        prob = CauchyProblem(symbol=HyperbolicSymbol(a1=a1, a0=a0),
                             initial=GridFunction.zeros(grid32), horizon=0.25)
        rep = check_case_variants(prob, solve_fixed_eps(prob, seed=0), seed=0)
        assert not rep["case_c"]["applicable"]
        assert "reason" in rep["case_c"]

    @pytest.mark.parametrize("grid, a0", [
        # imaginary only on x in (3 pi - 1, 3 pi + 1), beyond [0, 2 pi]
        ({"length": 4 * np.pi}, {"node": "product", "children": [
            {"node": "constant", "re": 0.0, "im": 1.0},
            {"node": "smooth_bump", "child": {"node": "coord_x", "axis": 0},
             "center": 3 * np.pi, "width": 1.0}]}),
        # 0.3i for |xi| > 91, which M=256 resolves (max |xi| 128)
        ({"points": 256}, {"node": "product", "children": [
            {"node": "constant", "re": 0.0, "im": 0.3},
            {"node": "smooth_step", "edge": -91.0, "width": 1.0,
             "child": {"node": "product", "children": [
                 {"node": "constant", "re": -1.0, "im": 0.0},
                 {"node": "japanese_bracket", "order": 1.0}]}}]})],
        ids=["length_4pi", "xi_above_90"])
    def test_complex_a0_beyond_default_box_not_case_c(self, grid, a0):
        # the reality test samples the grid's domain and frequencies
        cfg = get_preset("variable_speed_smooth")
        cfg["grid"].update(grid)
        cfg["symbol"]["a0"]["expr"] = a0
        cfg["checks"] = ["case_variants"]
        lines = []
        ok, _ = scenario.run_scenario(cfg, echo=lines.append)
        assert "case_c: n/a (a0 is not real-valued)" in lines[0]
        # nor does case b, untagged, so no case compares anything
        assert not ok

    def test_no_applicable_case_fails(self):
        # a0 = i cos x is not real and (2 + sin x) xi has no tag: neither
        # case compares a constant, so the check FAILs, naming both reasons
        cfg = get_preset("variable_speed_smooth")
        cfg["grid"]["points"] = 128
        cfg["symbol"]["a0"]["expr"] = {"node": "product", "children": [
            {"node": "constant", "re": 0.0, "im": 1.0},
            cfg["symbol"]["a0"]["expr"]]}
        cfg["checks"] = ["case_variants"]
        ok, [outcome] = scenario.run_scenario(cfg, echo=lambda line: None)
        assert not ok and outcome.status == "FAIL"
        assert outcome.message == (
            "case_b: n/a (x_independent_outside tag missing); "
            "case_c: n/a (a0 is not real-valued); no case applies")

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


# a forced member with a t-dependent, non-separable symbol, which CI runs
# too: its case-c semi-norm constant is ~1e13
STEPPER_PATHS = Path(__file__).resolve().parent / "forced_dense_t_dependent.json"


class TestGronwallOverflow:
    """A Gronwall bound past the float range is +inf, true but vacuous: the
    run ends in a verdict, with no warning (an error under the suite's
    filter) and no exception."""

    def test_bound_overflows_to_inf_and_zero_stays_zero(self):
        times = np.array([0.0, 400.0, 800.0])
        ledger = cauchy.EnergyLedger(times, np.array([2.0, 2.0, 2.0]),
                                     np.zeros(3), 0.0, 1.0)
        assert ledger.gronwall_bound().tolist() == [2.0, 2.0 * math.exp(400),
                                                    math.inf]
        zero = cauchy.EnergyLedger(times, np.zeros(3), np.zeros(3), 0.0, 1.0)
        assert zero.gronwall_bound().tolist() == [0.0, 0.0, 0.0]

    def test_long_horizon_transport(self):
        # one automatic step of 800: the solve's guard, the ledger's bound
        # and the cascade's bound each reach e^800
        cfg = get_preset("transport_smoke")
        cfg.update(horizon=800.0, dt=None)
        cfg["checks"].append({"check": "cascade_bounds", "max_order": 1})
        ok, outcomes = scenario.run_scenario(cfg, echo=lambda line: None)
        assert ok, [o.line() for o in outcomes]
        problem, result = scenario.ScenarioContext(cfg).solve()
        assert result.ledger.gronwall_bound()[-1] == math.inf
        cascade = derivative_cascade(problem, result, max_order=1)
        assert cascade[(1,)]["bound"][-1] == math.inf

    def test_case_c_constant_of_1e10(self):
        # the checked-in config without its t factor, at M=32: one semi-norm
        # time, so the run stays short
        cfg = json.loads(STEPPER_PATHS.read_text())
        cfg["grid"]["points"] = 32
        cfg["symbol"]["a1"]["expr"]["children"][0]["children"].pop(0)
        cfg["checks"] = ["case_variants"]
        ctx = scenario.ScenarioContext(cfg)
        [outcome] = [check(ctx) for check in ctx.checks]
        assert outcome.ok, outcome.line()
        problem, result = ctx.solve()
        case_c = check_case_variants(problem, result)["case_c"]
        assert case_c["c_seminorm"] > 1e10
        assert case_c["gronwall_ok"]

    def test_checked_in_config_builds(self):
        ctx = scenario.ScenarioContext(json.loads(STEPPER_PATHS.read_text()))
        symbol = ctx.fixed_symbol.full()
        assert ctx.forcing.terms and symbol.depends_t()
        assert not PeriodicOperator(symbol, ctx.grid).separable


class TestCascade:
    def test_commutators_vanish_for_multiplier(self, grid256):
        # x-independent symbol: d^alpha u solves the same problem with data
        # d^alpha g, so the cascade ledger must match a fresh solve
        prob = transport_problem(grid256, extra_mode=False)
        result = solve_fixed_eps(prob, 1e-3, seed=0)
        rep = derivative_cascade(prob, result, max_order=2)
        for alpha, entry in rep.items():
            assert np.max(entry["H"]) <= 1e-20
            g_alpha = grid256.spectral_derivative(prob.initial.values, alpha)
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
