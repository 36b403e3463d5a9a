"""Sweep classification: moderateness, negligibility, association, regularity."""

import dataclasses
import itertools
import math
import re

import numpy as np
import pytest

from onewave import asymptotics, cauchy, quantization, scenario
from onewave import expr as ex
from onewave.asymptotics import (DataBuilder, SweepPlan, check_association,
                                 check_ginf, check_negligible, fit_exponent,
                                 run_sweep)
from onewave.cauchy import (CauchyProblem, Forcing, TimeProfile,
                            derivative_cascade, solve_fixed_eps, solve_stack)
from onewave.config import CFL_MARGIN, CFL_SAFETY
from onewave.errors import BadEps, OnewaveError, UnstableStep
from onewave.grid import Grid, GridFunction
from onewave.presets import get_preset
from onewave.quantization import (PeriodicOperator, adjoint_defect_norm,
                                  adjoint_defect_norms, operator_norm,
                                  operator_norms, stacks)
from onewave.regularization import (MollifiedCoefficient, RoughCoefficient,
                                    RoughTransport, omega_of_eps,
                                    regularized_family)
from onewave.scenario import run_scenario
from onewave.symbols import (GenSymbolFamily, HyperbolicSymbol, SymbolExpr,
                             multi_indices)

TWO_PI = 2.0 * np.pi
EPS6 = [0.1 * 0.2 ** i for i in range(6)]


def const_family(eps_grid=EPS6):
    a1 = SymbolExpr(ex.CoordXi(0), 1.0, 1)
    sym = HyperbolicSymbol(a1=a1, x_independent_outside=0.0)
    return GenSymbolFamily(lambda eps: sym, eps_grid)


def smooth_g(grid):
    x = grid.x_axis()
    return GridFunction(grid, np.sin(x) + 0.5 * np.sin(10 * x))


class TestRunSweep:
    def test_eps_independent_has_flat_exponents(self, grid256):
        plan = SweepPlan(family=const_family(), data=DataBuilder(
            kind="fixed", g=smooth_g(grid256)), grid=grid256, horizon=0.5,
            orders=((0, (0,)), (0, (1,)), (1, (0,)), (2, (1,))))
        rep = run_sweep(plan)
        assert not rep.incomplete
        for fit in rep.fits.values():
            assert abs(fit["N_hat"]) <= 0.05
        assert all(rep.energy_ok)

    def test_scaling_data_shifts_exponent(self, grid256):
        base = SweepPlan(family=const_family(), data=DataBuilder(
            kind="fixed", g=smooth_g(grid256)), grid=grid256, horizon=0.5)
        scaled = SweepPlan(family=const_family(), data=DataBuilder(
            kind="scaled_power", g=smooth_g(grid256), power=2.0),
            grid=grid256, horizon=0.5)
        n0 = run_sweep(base).fits[(0, (0,))]["N_hat"]
        n2 = run_sweep(scaled).fits[(0, (0,))]["N_hat"]
        assert n2 - n0 == pytest.approx(-2.0, abs=0.05)

    def test_regression_stability_without_largest_eps(self, grid256):
        speed = RoughCoefficient("piecewise_constant", TWO_PI,
                                 breakpoints=[2.0, 4.3], values=[2.0, 1.0])
        eps = list(np.geomspace(1e-1, 1e-6, 6))
        fam = regularized_family(RoughTransport(speeds=(speed,)), 1, eps)
        fam_short = regularized_family(RoughTransport(speeds=(speed,)), 1,
                                       eps[1:])
        data = DataBuilder(kind="fixed", g=smooth_g(grid256))
        full = run_sweep(SweepPlan(family=fam, data=data, grid=grid256,
                                   horizon=1.0, orders=((0, (1,)),)))
        short = run_sweep(SweepPlan(family=fam_short, data=data, grid=grid256,
                                    horizon=1.0, orders=((0, (1,)),)))
        delta = abs(full.fits[(0, (1,))]["N_hat"] -
                    short.fits[(0, (1,))]["N_hat"])
        assert delta <= 0.1

    def test_gronwall_cross_check_recorded(self, grid256):
        plan = SweepPlan(family=const_family(), data=DataBuilder(
            kind="fixed", g=smooth_g(grid256)), grid=grid256, horizon=0.5,
            cascade_max_order=1)
        rep = run_sweep(plan)
        assert all(rep.energy_ok)
        assert (1,) in rep.predicted_exponents
        # the semi-norm constant dominates every member's measured constant
        assert all(cauchy.seminorm_constant(plan.family.member(eps), grid256,
                                            0.5) >= cm
                   for eps, cm in zip(rep.eps, rep.c_measured))

    def test_fit_exponent_of_vanishing_sequence(self):
        n, _, _ = fit_exponent([0.1, 0.01, 0.001], [0.0, 0.0, 0.0])
        assert n is None


class TestGronwallFitDominance:
    """gronwall_fit compares each completed member's semi-norm constant
    with its measured constant, whatever the cascade order."""

    def _run(self, cfg, monkeypatch, constant=None):
        calls = []

        def patched(symbol, grid, horizon):
            calls.append(symbol)
            if constant is None:
                return cauchy.seminorm_constant(symbol, grid, horizon)
            return constant
        monkeypatch.setattr(scenario, "seminorm_constant", patched)
        cfg["checks"] = ["gronwall_fit"]
        _, [outcome] = run_scenario(cfg, echo=lambda line: None)
        return outcome, calls

    @pytest.mark.parametrize("constant", [0.5, math.nan, math.inf])
    def test_low_or_non_finite_constant_fails_without_cascade(
            self, constant, monkeypatch):
        # every measured constant is 1 + skew + 2||a0|| >= 1; with no
        # moderateness check the sweep runs no cascade
        cfg = get_preset("piecewise_speed_logtype")
        outcome, calls = self._run(cfg, monkeypatch, constant)
        assert outcome.status == "FAIL"
        assert calls

    def test_no_cascade_without_moderateness(self, monkeypatch):
        calls = []
        monkeypatch.setattr(asymptotics, "derivative_cascade",
                            lambda *args: calls.append(args))
        cfg = get_preset("piecewise_speed_logtype")
        cfg["grid"]["points"] = 128
        cfg["checks"] = ["log_type", "gronwall_fit"]
        ctx = scenario.ScenarioContext(cfg)
        assert ctx.cascade_max_order == 0
        assert all(check(ctx).ok for check in ctx.checks)
        assert calls == []

    def test_moderateness_predicts_every_tracked_order(self):
        # the cascade order is derived from the d = 0 orders, so every one
        # of them has a predicted exponent to be compared with
        cfg = get_preset("piecewise_speed_logtype")
        cfg["grid"]["points"] = 128
        cfg["orders"] = [[0, [0]], [0, [1]], [0, [2]], [1, [0]]]
        cfg["checks"] = ["moderateness"]
        ctx = scenario.ScenarioContext(cfg)
        assert ctx.cascade_max_order == 2
        [moderateness] = ctx.checks
        assert moderateness(ctx).ok
        _, rep = ctx.sweep()
        assert sorted(rep.predicted_exponents) == [(0,), (1,), (2,)]
        assert all(p is not None for p in rep.predicted_exponents.values())

    def test_moderateness_compares_alpha_0_without_cascade(self):
        # alpha = 0 is predicted from the ledger's Gronwall bound, so the
        # base order alone, whose derived cascade order is 0, is compared
        cfg = get_preset("piecewise_speed_logtype")
        cfg["grid"]["points"] = 128
        cfg["orders"] = [[0, [0]]]
        cfg["checks"] = ["moderateness"]
        ctx = scenario.ScenarioContext(cfg)
        assert ctx.cascade_max_order == 0
        [moderateness] = ctx.checks
        outcome = moderateness(ctx)
        _, rep = ctx.sweep()
        assert list(rep.predicted_exponents) == [(0,)]
        assert rep.predicted_exponents[(0,)] is not None
        assert outcome.ok, outcome.line()
        assert outcome.message.endswith("all bounded by energy prediction")

    def test_moderateness_without_a_comparison_fails(self):
        # no tracked order has d = 0, so no fitted exponent has a
        # prediction to be compared with
        cfg = get_preset("piecewise_speed_logtype")
        cfg["grid"]["points"] = 128
        cfg["orders"] = [[1, [0]], [1, [1]]]
        cfg["checks"] = ["moderateness"]
        _, [outcome] = run_scenario(cfg, echo=lambda line: None)
        assert outcome.status == "FAIL"
        assert outcome.message.endswith(
            "no fitted exponent compared with a prediction")


class TestRoughZeroOrder:
    def test_piecewise_zero_order_runs_the_sweep_checks(self):
        # no preset builds symbol.zero_order: each member's a0 is the
        # mollified coefficient along x0, and the sweep checks pass on it
        cfg = get_preset("piecewise_speed_logtype")
        cfg["grid"]["points"] = 64
        cfg["symbol"]["zero_order"] = {
            "kind": "piecewise_constant", "period": TWO_PI,
            "breakpoints": [1.0, 3.0], "values": [0.5, -0.25]}
        ctx = scenario.ScenarioContext(cfg)
        outcomes = [check(ctx) for check in ctx.checks]
        assert [o.name for o in outcomes if o.ok] == [
            "log_type", "gronwall_fit", "moderateness"]
        _, report = ctx.sweep()
        assert report.eps == ctx.eps_grid and not report.incomplete
        x = ctx.grid.x_axis()
        rough = ctx.rough_transport.zero_order
        for eps in ctx.eps_grid:
            a0 = ctx.family.member(eps).a0
            want = MollifiedCoefficient(rough, omega_of_eps(eps, 1)).eval(x)
            assert np.array_equal(a0.eval(0.0, (x,), (np.zeros_like(x),)),
                                  want)


class TestNegligible:
    def test_zero_data(self, grid256):
        plan = SweepPlan(family=const_family(), data=DataBuilder(kind="fixed"),
                         grid=grid256, horizon=0.5)
        rep = check_negligible(plan, run_sweep(plan))
        assert rep["is_negligible"]

    def test_exponentially_small_data(self, grid256):
        plan = SweepPlan(family=const_family(), data=DataBuilder(
            kind="scaled_exp", g=smooth_g(grid256)), grid=grid256, horizon=0.5)
        rep = check_negligible(plan, run_sweep(plan))
        assert rep["is_negligible"]
        assert rep["max_passed_q"] >= 10

    def test_linear_scaling_fails_at_q2(self, grid256):
        plan = SweepPlan(family=const_family(), data=DataBuilder(
            kind="scaled_power", g=smooth_g(grid256), power=1.0),
            grid=grid256, horizon=0.5)
        rep = check_negligible(plan, run_sweep(plan))
        assert not rep["is_negligible"]
        assert rep["max_passed_q"] == 1


class TestAssociation:
    def test_band_limited_data_identical(self, grid256):
        # mollification is the identity below the plateau, so the sweep
        # members coincide with the classical solution
        eps_grid = [0.02 * 0.6 ** i for i in range(6)]
        plan = SweepPlan(family=const_family(eps_grid), data=DataBuilder(
            kind="mollified", g=smooth_g(grid256)), grid=grid256, horizon=1.0)
        from onewave.cauchy import CauchyProblem, solve_fixed_eps
        classical = solve_fixed_eps(
            CauchyProblem(symbol=const_family(eps_grid).member(0.02),
                          initial=smooth_g(grid256), horizon=1.0),
            seed=0).final()

        def probe(x):
            return np.cos(x)

        def reference(phi):
            vals = np.asarray(phi(grid256.x_axis()))
            return complex(grid256.cell_volume *
                           np.sum(classical.values * np.conjugate(vals)))

        rep = check_association(plan.grid, run_sweep(plan), [probe],
                                reference)
        assert max(rep["terminal_residuals"]) <= 1e-10
        assert rep["monotone_tail"]

    def test_delta_pairing_converges(self, grid256):
        eps_grid = [0.3 * 0.55 ** i for i in range(6)]
        delta = GridFunction.delta(grid256, (64,))
        x0 = grid256.x_axis()[64]
        plan = SweepPlan(family=const_family(eps_grid), data=DataBuilder(
            kind="mollified", g=delta), grid=grid256, horizon=1.0)
        probes = []
        for center, width in ((x0 + 1.0, 1.2), (x0 + 1.5, 1.8),
                              (x0 + 0.6, 0.9)):
            tree = ex.SmoothBump(ex.CoordX(0), center, width)
            probes.append(lambda X, t=tree:
                          np.asarray(t.eval(0.0, (X,), (np.zeros_like(X),))))

        def reference(phi):
            return complex(phi(np.array([x0 + 1.0]))[0])

        rep = check_association(plan.grid, run_sweep(plan), probes,
                                reference)
        assert rep["monotone_tail"]
        res = np.array(rep["residuals"])
        assert np.all(res[-1] <= res[0])


class TestGinf:
    def test_smooth_symbol_smooth_data(self, grid256):
        plan = SweepPlan(
            family=const_family(), data=DataBuilder(kind="fixed",
                                                    g=smooth_g(grid256)),
            grid=grid256, horizon=0.5,
            orders=((0, (0,)), (0, (1,)), (0, (2,)), (0, (3,)), (0, (4,)),
                    (1, (0,)), (1, (3,)), (2, (2,))))
        rep = check_ginf(plan, run_sweep(plan))
        assert rep["gate_passed"]
        assert rep["is_ginf"]
        assert rep["p_hat"] == pytest.approx(1.0, abs=0.1)

    def test_shrinking_scale_data_fails(self, grid256):
        eps_grid = [0.3 * 0.31 ** i for i in range(7)]
        x = grid256.x_axis()
        envelope = GridFunction(grid256, np.sin(x))
        plan = SweepPlan(
            family=const_family(eps_grid),
            data=DataBuilder(kind="oscillating", g=envelope),
            grid=grid256, horizon=0.5,
            orders=((0, (0,)), (0, (1,)), (0, (2,)), (0, (3,)), (0, (4,))))
        rep = check_ginf(plan, run_sweep(plan))
        assert rep["gate_passed"]
        assert not rep["is_ginf"]

    def test_insufficient_orders_rejected(self, grid256):
        from onewave.errors import InsufficientOrders
        plan = SweepPlan(family=const_family(), data=DataBuilder(
            kind="fixed", g=smooth_g(grid256)), grid=grid256, horizon=0.5,
            orders=((0, (0,)), (0, (1,))))
        with pytest.raises(InsufficientOrders):
            check_ginf(plan, run_sweep(plan))

    def test_orders_without_base_order_rejected(self, grid256):
        from onewave.errors import InsufficientOrders
        plan = SweepPlan(family=const_family(), data=DataBuilder(
            kind="fixed", g=smooth_g(grid256)), grid=grid256, horizon=0.5,
            orders=((1, (0,)), (0, (4,))))
        with pytest.raises(InsufficientOrders, match="base order"):
            check_ginf(plan, run_sweep(plan))

    def test_slow_scale_violating_family_not_applicable(self, grid256):
        def member(eps):
            a1 = SymbolExpr(ex.mul(ex.Const(eps ** -0.5),
                                   ex.add(ex.Const(2.0),
                                          ex.Sin(ex.CoordX(0))),
                                   ex.CoordXi(0)), 1.0, 1)
            return HyperbolicSymbol(a1=a1)
        fam = GenSymbolFamily(member, [0.1 * 0.1 ** i for i in range(6)])
        plan = SweepPlan(
            family=fam, data=DataBuilder(kind="fixed", g=smooth_g(grid256)),
            grid=grid256, horizon=0.02,
            orders=((0, (0,)), (0, (1,)), (0, (2,)), (0, (3,)), (0, (4,))))
        rep = check_ginf(plan, run_sweep(plan))
        assert rep["status"] == "not_applicable"
        assert not rep["gate_passed"]
        assert not rep["is_ginf"]


def every_solve_fails(problems, *args, **kwargs):
    return [UnstableStep("injected failure") for _ in problems]


class TestIncompleteSweep:
    @pytest.mark.parametrize("preset, check_index", [
        ("negligible_uniqueness", 0),
        ("ginf_regularity", 0),
        ("ginf_regularity", 1),
        ("delta_association", 0),
    ])
    def test_missing_eps_point_fails_verdict(self, monkeypatch, preset,
                                             check_index):
        calls = []

        def second_solve_fails(problems, *args, **kwargs):
            calls.extend(problems)
            results = solve_stack(problems, *args, **kwargs)
            results[1] = UnstableStep("injected failure")
            return results

        monkeypatch.setattr(asymptotics, "solve_stack", second_solve_fails)
        cfg = get_preset(preset)
        cfg["checks"] = [cfg["checks"][check_index]]
        ok, outcomes = run_scenario(cfg, echo=lambda line: None)
        assert len(calls) > 2
        assert not ok and outcomes[0].status == "FAIL"

    def test_no_completed_eps_point_fails_negligible(self, monkeypatch):
        monkeypatch.setattr(asymptotics, "solve_stack", every_solve_fails)
        cfg = get_preset("negligible_uniqueness")
        ok, outcomes = run_scenario(cfg, echo=lambda line: None)
        assert not ok and outcomes[0].status == "FAIL"

    def test_empty_sweep_observes_no_regularity(self, monkeypatch, grid256):
        plan = SweepPlan(family=const_family(), data=DataBuilder(kind="fixed"),
                         grid=grid256, horizon=0.5,
                         orders=((0, (0,)), (0, (4,))))
        # an all-zero but complete sweep stays regular
        zero = check_ginf(plan, run_sweep(plan))
        assert zero["is_ginf"] and zero["conclusion_observed"]
        monkeypatch.setattr(asymptotics, "solve_stack", every_solve_fails)
        report = run_sweep(plan)
        assert report.eps == [] and len(report.incomplete) == len(EPS6)
        rep = check_ginf(plan, report)
        assert not rep["is_ginf"] and not rep["conclusion_observed"]


def one_member_solves(problems, dt=None, seed=0):
    """The serial reference of solve_stack: one one-member solve per slot."""
    out = []
    for problem in problems:
        try:
            out.append(solve_fixed_eps(problem, dt, seed=seed))
        except OnewaveError as err:
            out.append(err)
    return out


def assert_same_solves(stacked, serial):
    assert len(stacked) == len(serial)
    for got, want in zip(stacked, serial):
        assert type(got) is type(want)
        if isinstance(want, OnewaveError):
            assert str(got) == str(want)
            continue
        for name in ("times", "u_norm_sq", "f_norm_sq"):
            assert np.array_equal(getattr(got.ledger, name),
                                  getattr(want.ledger, name))
        for name in ("skew_norm", "c_measured"):
            assert getattr(got.ledger, name) == getattr(want.ledger, name)
        assert got.dt == want.dt and np.array_equal(got.times, want.times)
        assert np.array_equal(got.snap_times, want.snap_times)
        assert np.array_equal(got.spectra, want.spectra)


def xi_term(coeff, axis=0):
    return ex.mul(ex.Const(coeff), ex.CoordXi(axis))


def varying_xi_term(coeff, axis=0, amp=1.0):
    """coeff (1 + amp sin x_0) xi_axis: the multiplier coeff xi_axis and
    the rest coeff amp sin(x_0) xi_axis."""
    return ex.mul(ex.Const(coeff), ex.add(ex.Const(1.0), ex.mul(
        ex.Const(amp), ex.Sin(ex.CoordX(0)))), ex.CoordXi(axis))


class TestStackedSolve:
    """The members of one sweep advance as one stack; each member's
    arithmetic must equal its one-member solve exactly."""

    H = 2.0

    def speed(self, steps):
        # automatic dt takes ceil(H sup|a| / (CFL_SAFETY CFL_MARGIN)) steps;
        # max|xi| = 32 on the M=64 grid
        return CFL_SAFETY * CFL_MARGIN * (steps - 0.5) / (self.H * 32.0)

    def mixed_family(self):
        """423/424/425 steps over two table layouts and a t-dependent
        symbol; eps 0.3 fails to build."""
        sin_x = ex.Sin(ex.CoordX(0))
        members = {
            0.5: HyperbolicSymbol(
                SymbolExpr(xi_term(self.speed(423)), 1.0, 1)),
            0.4: HyperbolicSymbol(SymbolExpr(ex.add(
                xi_term(self.speed(424) - 0.1),
                ex.mul(ex.Const(0.1), sin_x, ex.CoordXi(0))), 1.0, 1)),
            0.2: HyperbolicSymbol(SymbolExpr(ex.mul(
                ex.add(ex.Const(1.0), ex.mul(ex.Const(0.25), ex.CoordT())),
                xi_term(self.speed(425) / (1.0 + self.H / 4.0))), 1.0, 1)),
            0.1: HyperbolicSymbol(
                SymbolExpr(xi_term(self.speed(424)), 1.0, 1),
                a0=SymbolExpr(ex.mul(ex.Const(0.3), ex.Cos(ex.CoordX(0))),
                              0.0, 1)),
        }

        def member(eps):
            if eps not in members:
                raise BadEps(f"no member at eps={eps}")
            return members[eps]
        return GenSymbolFamily(member, [0.5, 0.4, 0.3, 0.2, 0.1])

    def test_stacks_split_rows_by_t_dependence(self):
        # the stepper reads one Lawson rule per stack,
        # PeriodicOperator.frozen: it is each row's rule because the rows
        # of a stack share their dependence on t
        fam, syms = self.mixed_family(), []
        for eps in (0.5, 0.4, 0.2, 0.1):
            syms += [fam.member(eps).full(), fam.member(eps).a1]
        ops = list(stacks(syms, Grid(1, 64, TWO_PI)))
        assert sorted(r for rows, _ in ops for r in rows) == \
            list(range(len(syms)))
        assert {op.frozen for _, op in ops} == {True, False}
        for rows, op in ops:
            assert len({syms[r].depends_t() for r in rows}) == 1
            assert op.frozen == (op.separable and
                                 not syms[rows[0]].depends_t())

    def sweep_pair(self, monkeypatch, plan):
        stacked = run_sweep(plan)
        with monkeypatch.context() as patch:
            patch.setattr(asymptotics, "solve_stack", one_member_solves)
            serial = run_sweep(plan)
        assert stacked.incomplete == serial.incomplete
        assert stacked.eps == serial.eps and stacked.norms == serial.norms
        assert stacked.c_measured == serial.c_measured
        assert stacked.energy_ok == serial.energy_ok
        assert len(stacked.finals) == len(serial.finals)
        for a, b in zip(stacked.finals, serial.finals):
            assert np.array_equal(a.values, b.values)
        return stacked

    def test_unequal_steps_layouts_forcing_and_failed_build(self,
                                                            monkeypatch):
        grid = Grid(1, 64, TWO_PI)
        forcing = Forcing.separable(TimeProfile(amp=0.5, freq=3.0),
                                    GridFunction(grid, np.cos(grid.x_axis())))
        plan = SweepPlan(family=self.mixed_family(), data=DataBuilder(
            kind="fixed", g=smooth_g(grid), forcing=forcing), grid=grid,
            horizon=self.H, orders=((0, (0,)), (1, (0,))))
        report = self.sweep_pair(monkeypatch, plan)
        assert report.eps == [0.5, 0.4, 0.2, 0.1]
        assert report.incomplete == {0.3: "BadEps: no member at eps=0.3"}
        problems = [CauchyProblem(plan.family.member(eps), smooth_g(grid),
                                  self.H, forcing) for eps in report.eps]
        stacked = solve_stack(problems)
        assert [len(r.times) - 1 for r in stacked] == [423, 424, 425, 424]
        assert_same_solves(stacked, one_member_solves(problems))

    def test_member_fails_mid_stack(self, monkeypatch):
        # dt |R| = 3.5 > 2.8 is outside RK4's stability interval: that member
        # blows up within the horizon and leaves the stack; the rest go on
        grid = Grid(1, 64, TWO_PI)
        family = GenSymbolFamily(lambda eps: HyperbolicSymbol(SymbolExpr(
            varying_xi_term(3.5 if eps == 0.3 else 1.0 / eps / 10), 1.0, 1)),
            [0.5, 0.3, 0.1])
        monkeypatch.setattr(cauchy, "CFL_MARGIN", math.inf)
        dt = 1.0 / 32.0
        plan = SweepPlan(family=family, data=DataBuilder(
            kind="fixed", g=smooth_g(grid)), grid=grid, horizon=100 / 32.0,
            dt=dt)
        report = self.sweep_pair(monkeypatch, plan)
        assert report.eps == [0.5, 0.1]
        reason = report.incomplete[0.3]
        assert reason.startswith("UnstableStep: norm^2")
        assert 0.0 < float(re.search(r"at t=(\S+) ", reason).group(1)) < 3.0
        problems = [CauchyProblem(family.member(eps), smooth_g(grid),
                                  100 / 32.0) for eps in family.eps_grid]
        assert_same_solves(solve_stack(problems, dt),
                           one_member_solves(problems, dt))

    def test_two_dimensional_stack(self):
        # M=16: one- and two-term separable members and a dense one
        grid = Grid(2, 16, TWO_PI)
        x0, x1 = grid.x_mesh()
        g = GridFunction(grid, np.sin(x0) * np.cos(x1) + 0.2 * np.sin(3 * x1))
        roots = [varying_xi_term(1.0, amp=0.5),
                 ex.add(varying_xi_term(0.7, amp=0.5),
                        varying_xi_term(0.9, 1, amp=0.5)),
                 ex.add(varying_xi_term(1.3, amp=0.5), ex.mul(
                     ex.Const(0.01), ex.Sin(
                         ex.mul(ex.CoordX(0), ex.CoordXi(0))))),
                 varying_xi_term(1.9, amp=0.5)]
        problems = [CauchyProblem(HyperbolicSymbol(SymbolExpr(r, 1.0, 2)), g,
                                  2.0) for r in roots]
        stacked = solve_stack(problems, seed=2)
        assert len({len(r.times) for r in stacked}) == 4
        assert_same_solves(stacked, one_member_solves(problems, seed=2))

    def test_stacked_norm_estimates_equal_one_member_estimates(self):
        grid = Grid(1, 32, TWO_PI)
        sin_x = ex.Sin(ex.CoordX(0))
        pairs = [
            (SymbolExpr(ex.CoordXi(0), 1.0, 1), 0.0),
            (SymbolExpr(ex.mul(ex.add(ex.Const(2.0), sin_x), ex.CoordXi(0)),
                        1.0, 1), 0.0),
            (SymbolExpr(ex.add(ex.mul(sin_x, ex.CoordXi(0)),
                               ex.Cos(ex.CoordX(0))), 1.0, 1), 0.3),
            (SymbolExpr(ex.mul(ex.CoordT(), sin_x, ex.CoordXi(0)), 1.0, 1),
             0.5),
            (SymbolExpr(ex.Sin(ex.mul(ex.CoordX(0), ex.CoordXi(0))), 1.0, 1),
             0.0),
        ]
        for stacked, single in ((adjoint_defect_norms, adjoint_defect_norm),
                                (operator_norms, operator_norm)):
            got = stacked(pairs, grid, seed=4)
            assert got == [single(s, t, grid, seed=4) for s, t in pairs]
        # the rows leave the stack at different iterations
        assert len({e.iterations for e in adjoint_defect_norms(
            pairs, grid, seed=4)}) > 1


class TestLawsonSteps:
    """The exact multiplier leaves the automatic step to the rest R:
    sup|R| of c(x) xi is half the range of c times max|xi| (128 at M=256),
    where sup|a| is the largest |c| times it."""

    @pytest.mark.parametrize("preset, steps", [
        ("piecewise_speed_logtype", 30),    # sup|a| took 106 or 107
        ("ginf_regularity", 26)])           # sup|a| took 77
    def test_automatic_steps_per_member(self, preset, steps, monkeypatch):
        seen = []

        def counted(problems, *args, _solve=asymptotics.solve_stack,
                    **kwargs):
            out = _solve(problems, *args, **kwargs)
            seen.extend(len(r.times) - 1 for r in out)
            return out
        monkeypatch.setattr(asymptotics, "solve_stack", counted)
        ctx = scenario.ScenarioContext(get_preset(preset))
        assert ctx.grid.points == 256
        ctx.sweep()
        assert seen == [steps] * len(ctx.eps_grid)


class TestSharedWork:
    """Work whose result is already known is not done again: identical
    problems step as one row, zero problems are not stepped, and a repeated
    (symbol, t) norm request is estimated once.  Every result stays bitwise
    the one the full work gives."""

    H = 0.5

    @staticmethod
    def symbol():
        """(2 + sin x) xi + 0.3 cos x: a fresh object per call."""
        return HyperbolicSymbol(
            SymbolExpr(ex.mul(ex.add(ex.Const(2.0), ex.Sin(ex.CoordX(0))),
                              ex.CoordXi(0)), 1.0, 1),
            a0=SymbolExpr(ex.mul(ex.Const(0.3), ex.Cos(ex.CoordX(0))), 0.0, 1))

    @staticmethod
    def forcing(grid):
        return Forcing.separable(TimeProfile(amp=0.5, freq=3.0),
                                 GridFunction(grid, np.cos(grid.x_axis())))

    @pytest.fixture
    def stepped(self, monkeypatch):
        """The number of rows each RK4 loop steps."""
        rows = []

        def counted(stack, members, out, _rk4=cauchy._rk4):
            rows.append(len(members))
            return _rk4(stack, members, out)
        monkeypatch.setattr(cauchy, "_rk4", counted)
        return rows

    def shared_and_fresh(self, data, grid, stepped):
        """(report, rows stepped) of the sweep with one symbol object for
        every eps, then of the sweep with a fresh equal symbol per eps."""
        shared, out = self.symbol(), []
        for member in (lambda eps: shared, lambda eps: self.symbol()):
            stepped.clear()
            out.append((run_sweep(SweepPlan(
                family=GenSymbolFamily(member, EPS6), data=data, grid=grid,
                horizon=self.H, orders=((0, (0,)), (1, (1,))))), sum(stepped)))
        (got, got_rows), (want, want_rows) = out
        assert got.incomplete == want.incomplete == {}
        assert got.eps == want.eps and got.norms == want.norms
        assert got.c_measured == want.c_measured
        assert got.energy_ok == want.energy_ok
        for a, b in zip(got.finals, want.finals, strict=True):
            assert np.array_equal(a.values, b.values)
        assert want_rows == len(EPS6)
        return got, got_rows

    def test_shared_symbol_and_data_step_one_row(self, stepped):
        grid = Grid(1, 64, TWO_PI)
        data = DataBuilder(kind="fixed", g=smooth_g(grid),
                           forcing=self.forcing(grid))
        _, rows = self.shared_and_fresh(data, grid, stepped)
        assert rows == 1
        shared, forcing = self.symbol(), self.forcing(grid)
        results = solve_stack([CauchyProblem(shared, smooth_g(grid), self.H,
                                             forcing) for _ in EPS6])
        assert all(r is results[0] for r in results)
        assert not results[0].final().values.flags.writeable
        assert not results[0].ledger.u_norm_sq.flags.writeable
        assert_same_solves(results, solve_stack([CauchyProblem(
            self.symbol(), smooth_g(grid), self.H, forcing) for _ in EPS6]))
        # other data, zero data with forcing among them, step on their own
        others = [CauchyProblem(shared, g, self.H, forcing) for g in (
            smooth_g(grid), 0.5 * smooth_g(grid), GridFunction.zeros(grid))]
        got = solve_stack(others)
        assert_same_solves(got, one_member_solves(others))
        assert got[2].ledger.u_norm_sq[-1] > 0.0

    def test_shared_symbol_distinct_data_and_forced_zero_data(self, stepped):
        # exp(-1/eps) g: nonzero at the three largest eps, exactly 0 g at
        # the three smallest, whose forced solves are identical
        grid = Grid(1, 64, TWO_PI)
        data = DataBuilder(kind="scaled_exp", g=smooth_g(grid),
                           forcing=self.forcing(grid))
        assert [bool(np.any(data.build(eps, grid)[0].values))
                for eps in EPS6] == [True] * 3 + [False] * 3
        report, rows = self.shared_and_fresh(data, grid, stepped)
        assert rows == 4
        assert min(report.norms[(0, (0,))]) > 0.0

    def test_zero_members_leave_the_stack(self, monkeypatch):
        grid = Grid(1, 64, TWO_PI)
        x = grid.x_axis()
        sym, zero = self.symbol(), GridFunction.zeros(grid)
        problems = [
            CauchyProblem(sym, smooth_g(grid), self.H),
            CauchyProblem(sym, zero, self.H),
            CauchyProblem(self.symbol(), zero.copy(), self.H),
            CauchyProblem(sym, GridFunction(grid, 0.5 * np.cos(3 * x)),
                          self.H)]
        rows = []

        def synth(tables, hat, *args, _synth=cauchy._synth, **kwargs):
            rows.extend(hat.reshape(-1, grid.points))
            return _synth(tables, hat, *args, **kwargs)
        with monkeypatch.context() as patch:
            patch.setattr(cauchy, "_synth", synth)
            got = solve_stack(problems)
        assert rows and all(np.any(row) for row in rows)
        # a zero-valued forcing term is not zero forcing: these step.  A
        # forced member's step reads sup|a|, so they take the unforced
        # members' dt, past that margin: zero stays zero at any step
        zero_term = Forcing(grid, [(TimeProfile(), np.zeros(grid.shape))])
        with monkeypatch.context() as patch:
            patch.setattr(cauchy, "CFL_MARGIN", math.inf)
            stepped_zeros = one_member_solves([CauchyProblem(
                p.symbol, p.initial, self.H, zero_term)
                for p in problems[1:3]], got[0].dt)
        assert_same_solves(got[::3], one_member_solves(problems[::3]))
        assert_same_solves(got[1:3], stepped_zeros)
        for r in got[1:3]:
            assert np.array_equal(r.times, got[0].times)
            assert np.array_equal(r.snap_times, got[0].snap_times)
            assert not np.any(r.ledger.u_norm_sq)
            assert not np.any(r.states)
        # zero data with nonzero forcing is stepped
        forced = solve_stack([CauchyProblem(sym, zero, self.H,
                                            self.forcing(grid))])[0]
        assert forced.ledger.u_norm_sq[-1] > 0.0

    def test_repeated_norm_pairs_estimated_once(self, monkeypatch):
        grid = Grid(1, 32, TWO_PI)
        sin_x = ex.Sin(ex.CoordX(0))
        a = SymbolExpr(ex.mul(ex.add(ex.Const(2.0), sin_x), ex.CoordXi(0)),
                       1.0, 1)
        b = SymbolExpr(ex.mul(ex.CoordT(), sin_x, ex.CoordXi(0)), 1.0, 1)
        pairs = [(a, 0.0), (b, 0.5), (a, 0.0), (b, 0.25), (b, 0.5), (a, 0.0)]
        once = [0, 1, 3]
        runs = []

        def counted(apply_hermitian, v, stops,
                    _power=quantization.power_iteration):
            found = _power(apply_hermitian, v, stops)
            runs.append((len(v), sum(used for _, _, used in found)))
            return found
        monkeypatch.setattr(quantization, "power_iteration", counted)
        for stacked, single in ((adjoint_defect_norms, adjoint_defect_norm),
                                (operator_norms, operator_norm)):
            want = [single(s, t, grid, seed=4) for s, t in pairs]
            runs.clear()
            assert stacked(pairs, grid, seed=4) == want
            assert sum(n for n, _ in runs) == len(once)
            assert sum(it for _, it in runs) == \
                sum(want[i].iterations for i in once)


def forcing_at(forcing, t):
    """f(t), summed term by term as a one-time evaluation does."""
    out = np.zeros(forcing.grid.shape, dtype=complex)
    for prof, vals in forcing.terms:
        out = out + prof.value(t) * vals
    return out


def derivative_op(full, d, beta, grid):
    return PeriodicOperator(SymbolExpr(full.derivative_root(
        d, (0,) * grid.dim, beta), 1.0, grid.dim), grid)


def t_derivative_norms_per_snapshot(symbol, forcing, result, grid, orders,
                                    d_max):
    """Snapshot-by-snapshot reference of asymptotics._t_derivative_norms,
    on each snapshot's spectrum."""
    full = symbol.full()
    ops = [derivative_op(full, i, (0,) * grid.dim, grid) for i in range(d_max)]
    f_derivs = [forcing]
    for _ in range(d_max):
        f_derivs.append(f_derivs[-1].t_derivative())
    out = {order: 0.0 for order in orders}
    for t, hat in zip(result.snap_times, result.spectra):
        layers = [hat]
        for d in range(1, d_max + 1):
            acc = np.zeros(grid.shape, dtype=complex)
            for i in range(d):
                acc = acc - 1j * math.comb(d - 1, i) * ops[i].apply_spectrum(
                    t, layers[d - 1 - i])
            if not f_derivs[d - 1].is_zero:
                acc = acc + forcing_at(f_derivs[d - 1], t)
            layers.append(np.fft.fftn(acc))
        for d, alpha in orders:
            layer = grid.derivative_spectra(layers[d], alpha)
            val = float(np.sqrt(grid.spectral_norm_sq(layer)))
            out[(d, alpha)] = max(out[(d, alpha)], val)
    return out


def cascade_per_snapshot(problem, result, max_order):
    """Snapshot-by-snapshot reference of cauchy.derivative_cascade, on
    each snapshot's spectrum: per alpha, (||d^alpha u||^2, H) at the
    snapshots, beta in product order."""
    grid = problem.grid
    full = problem.symbol.full()
    hats = {alpha: [grid.derivative_spectra(hat, alpha)
                    for hat in result.spectra]
            for alpha in multi_indices(grid.dim, max_order)}
    out = {}
    for alpha in hats:
        if sum(alpha) == 0:
            continue
        f_alpha = problem.forcing.x_derivative(alpha)
        h_vals = []
        for k, t in enumerate(result.snap_times):
            acc = np.zeros(grid.shape, dtype=complex) + forcing_at(f_alpha, t)
            for beta in itertools.product(*(range(a + 1) for a in alpha)):
                if sum(beta) == 0:
                    continue
                coeff = math.prod(math.comb(a, b) for a, b in zip(alpha, beta))
                low = tuple(a - b for a, b in zip(alpha, beta))
                acc = acc - 1j * coeff * derivative_op(
                    full, 0, beta, grid).apply_spectrum(t, hats[low][k])
            h_vals.append(float(grid.cell_volume * np.sum(np.abs(acc) ** 2)))
        out[alpha] = (np.array([float(grid.spectral_norm_sq(v))
                                for v in hats[alpha]]), np.array(h_vals))
    return out


def t_derivative_norms_on_grid_values(problem, result, orders):
    """The referee of the spectral post-processing: the t-derivative norms
    on the snapshots' grid values, every derivative and every apply taking
    its own forward transform and every norm summed in x space."""
    grid, full, forcing = problem.grid, problem.symbol.full(), problem.forcing
    d_max = max(d for d, _ in orders)
    ops = [derivative_op(full, i, (0,) * grid.dim, grid) for i in range(d_max)]
    ts = result.snap_times
    layers = [result.states]
    for d in range(1, d_max + 1):
        acc = np.zeros(layers[0].shape, dtype=complex)
        for i in range(d):
            acc = acc - 1j * math.comb(d - 1, i) * ops[i].apply(
                ts, layers[d - 1 - i])
        if not forcing.is_zero:
            acc = acc + forcing.values(ts)
        forcing = forcing.t_derivative()
        layers.append(acc)
    return {(d, alpha): float(np.max(np.sqrt(grid.norm_sq(
        grid.spectral_derivative(layers[d], alpha)
        if sum(alpha) else layers[d])))) for d, alpha in orders}


def cascade_on_grid_values(problem, result, max_order):
    """The referee of derivative_cascade on the snapshots' grid values:
    per alpha, (||d^alpha u||^2, H) at the snapshots."""
    grid, full, ts = problem.grid, problem.symbol.full(), result.snap_times
    derivs = {alpha: grid.spectral_derivative(result.states, alpha)
              for alpha in multi_indices(grid.dim, max_order)}
    out = {}
    for alpha in (a for a in derivs if sum(a)):
        acc = problem.forcing.x_derivative(alpha).values(ts)
        for beta in itertools.product(*(range(a + 1) for a in alpha)):
            if sum(beta):
                coeff = math.prod(math.comb(a, b) for a, b in zip(alpha, beta))
                low = tuple(a - b for a, b in zip(alpha, beta))
                acc = acc - 1j * coeff * derivative_op(
                    full, 0, beta, grid).apply(ts, derivs[low])
        out[alpha] = (grid.norm_sq(derivs[alpha]), grid.norm_sq(acc))
    return out


def assert_close(got, want, rel=1e-12):
    """Equal within rel times the largest |want|."""
    got, want = np.asarray(got), np.asarray(want)
    assert got.shape == want.shape
    assert np.max(np.abs(got - want)) <= rel * np.max(np.abs(want))


class TestStackedPostProcessing:
    """The t-derivative norms and the cascade run over the stack of a
    solve's snapshot spectra; each row must equal its snapshot-by-snapshot
    value exactly, and the whole must match the grid-value route within
    rounding."""

    ORDERS = ((0, (0,)), (0, (2,)), (1, (0,)), (1, (1,)), (2, (0,)),
              (2, (3,)))

    def forced_problem(self, grid, a1, horizon=0.6):
        x = grid.x_mesh()
        g = GridFunction(grid, np.sin(x[0]) * np.cos(x[-1]) +
                         0.3 * np.cos(2.0 * x[-1]))
        shape = GridFunction(grid, np.cos(x[0] + x[-1]))
        forcing = Forcing.separable(
            TimeProfile(amp=0.5 + 0.2j, power=1, freq=3.0), shape)
        return CauchyProblem(HyperbolicSymbol(SymbolExpr(a1, 1.0, grid.dim)),
                             g, horizon, forcing)

    # (1 + t/4)(2 + sin x) xi: separable; xi + 0.01 (1 + t) sin(x xi): dense
    T_DEPENDENT = {
        "separable": ex.mul(
            ex.add(ex.Const(1.0), ex.mul(ex.Const(0.25), ex.CoordT())),
            ex.add(ex.Const(2.0), ex.Sin(ex.CoordX(0))), ex.CoordXi(0)),
        "dense": ex.add(ex.CoordXi(0), ex.mul(
            ex.Const(0.01), ex.add(ex.Const(1.0), ex.CoordT()),
            ex.Sin(ex.mul(ex.CoordX(0), ex.CoordXi(0))))),
    }

    @pytest.mark.parametrize("layout", sorted(T_DEPENDENT))
    def test_t_derivative_norms_equal_per_snapshot(self, layout):
        grid = Grid(1, 32, TWO_PI)
        problem = self.forced_problem(grid, self.T_DEPENDENT[layout])
        assert problem.symbol.full().depends_t()
        result = solve_fixed_eps(problem, seed=0)
        got = asymptotics._t_derivative_norms(problem, result, self.ORDERS)
        want = t_derivative_norms_per_snapshot(
            problem.symbol, problem.forcing, result, grid, self.ORDERS, 2)
        assert got == want

    @pytest.mark.parametrize("layout", sorted(T_DEPENDENT))
    def test_cascade_equals_per_snapshot(self, layout):
        grid = Grid(1, 32, TWO_PI)
        problem = self.forced_problem(grid, self.T_DEPENDENT[layout])
        result = solve_fixed_eps(problem, seed=0)
        self.assert_cascade_exact(problem, result, 3)

    def two_dimensional_problem(self):
        grid = Grid(2, 16, TWO_PI)
        x0, x1 = ex.CoordX(0), ex.CoordX(1)
        a1 = ex.add(
            ex.mul(ex.add(ex.Const(2.0), ex.mul(ex.Sin(x0), ex.Cos(x1))),
                   ex.CoordXi(0)),
            ex.mul(ex.add(ex.Const(1.0), ex.mul(ex.Const(0.5), ex.Cos(x0))),
                   ex.CoordXi(1)))
        return self.forced_problem(grid, a1, horizon=0.4)

    def test_two_dimensional_cascade_equals_per_snapshot(self):
        # alpha = (1, 2) sums over five betas: their order shows in the bits
        problem = self.two_dimensional_problem()
        result = solve_fixed_eps(problem, seed=0)
        rep = self.assert_cascade_exact(problem, result, 3)
        assert (1, 2) in rep and np.max(rep[(1, 2)]["H"]) > 0.0

    def assert_cascade_exact(self, problem, result, max_order):
        rep = derivative_cascade(problem, result, max_order=max_order)
        want = cascade_per_snapshot(problem, result, max_order)
        assert list(rep) == list(want)
        for alpha, (v_norm_sq, h_vals) in want.items():
            assert np.array_equal(rep[alpha]["v_norm_sq"], v_norm_sq)
            assert np.array_equal(rep[alpha]["H"], h_vals)
            assert rep[alpha]["H_integral"] == float(
                np.trapezoid(h_vals, rep[alpha]["times"]))
        return rep

    @staticmethod
    def assert_matches_grid_values(problem, result, orders, max_order):
        got = asymptotics._t_derivative_norms(problem, result, orders)
        want = t_derivative_norms_on_grid_values(problem, result, orders)
        assert list(got) == list(want)
        for order in orders:
            assert_close(got[order], want[order])
        rep = derivative_cascade(problem, result, max_order)
        want = cascade_on_grid_values(problem, result, max_order)
        assert list(rep) == list(want)
        for alpha, (v_norm_sq, h_vals) in want.items():
            assert_close(rep[alpha]["v_norm_sq"], v_norm_sq)
            assert_close(rep[alpha]["H"], h_vals)

    @pytest.mark.parametrize("layout", sorted(T_DEPENDENT))
    def test_spectra_match_grid_values(self, layout):
        grid = Grid(1, 32, TWO_PI)
        problem = self.forced_problem(grid, self.T_DEPENDENT[layout])
        self.assert_matches_grid_values(
            problem, solve_fixed_eps(problem, seed=0), self.ORDERS, 3)

    def test_two_dimensional_spectra_match_grid_values(self):
        problem = self.two_dimensional_problem()
        orders = ((0, (0, 0)), (0, (1, 2)), (1, (0, 0)), (2, (1, 0)))
        self.assert_matches_grid_values(
            problem, solve_fixed_eps(problem, seed=0), orders, 3)

    def test_piecewise_member_spectra_match_grid_values(self):
        # the smallest eps of piecewise_speed_logtype at M=256, with its
        # x-derivative orders, two t-derivative orders and its cascade
        cfg = get_preset("piecewise_speed_logtype")
        cfg["grid"]["points"] = 256
        ctx = scenario.ScenarioContext(cfg)
        eps = min(ctx.eps_grid)
        g, f = ctx.data_builder.build(eps, ctx.grid)
        problem = CauchyProblem(ctx.family.member(eps), g, ctx.horizon, f)
        self.assert_matches_grid_values(
            problem, solve_fixed_eps(problem, seed=ctx.seed),
            ctx.orders + ((1, (1,)), (2, (0,))), ctx.cascade_max_order)

    def test_constant_transport_oracle(self):
        # a = c xi: d_t u = -c d_x u, so
        # ||d_t^d d_x^a u|| = c^d ||d_x^(d+a) u||
        grid, c = Grid(1, 64, TWO_PI), 1.7
        symbol = HyperbolicSymbol(SymbolExpr(xi_term(c), 1.0, 1))
        problem = CauchyProblem(symbol, smooth_g(grid), 0.5)
        result = solve_fixed_eps(problem, seed=0)
        orders = [(d, (a,)) for d in range(3) for a in range(3)] + \
            [(0, (a,)) for a in range(3, 5)]
        for k in range(len(result.snap_times)):
            snap = dataclasses.replace(
                result, snap_times=result.snap_times[k:k + 1],
                spectra=result.spectra[k:k + 1])
            norms = asymptotics._t_derivative_norms(problem, snap, orders)
            for d in (1, 2):
                for a in range(3):
                    assert norms[(d, (a,))] == pytest.approx(
                        c ** d * norms[(0, (d + a,))], rel=1e-12)
