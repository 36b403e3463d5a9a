"""Acceptance suite: every criterion at its stated tolerance, one line each.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the PASS/FAIL lines.
Sweep scenarios assert the per-run pointwise/Gronwall energy flags; the
calibrated-constant domination is asserted wherever semi-norm constants are
measured.
"""

import time

import numpy as np
import pytest

from onewave import expr as ex
from onewave.cauchy import CauchyProblem, solve_fixed_eps
from onewave.grid import Grid, GridFunction
from onewave.presets import get_preset
from onewave.quantization import PeriodicOperator, op_matrix
from onewave.regularization import embed_data
from onewave.scenario import ScenarioContext, run_scenario
from onewave.symbols import HyperbolicSymbol, SymbolExpr

TWO_PI = 2.0 * np.pi


def run_preset(name, budget_s):
    t0 = time.time()
    ok, outcomes = run_scenario(get_preset(name), echo=lambda s: None)
    elapsed = time.time() - t0
    return ok, {o.name: o for o in outcomes}, elapsed


def report(criterion, ok, detail):
    line = f"ACCEPTANCE {criterion}: {'PASS' if ok else 'FAIL'}  {detail}"
    print(line)
    assert ok, line


class TestAcceptance:
    def test_01_transport_exactness(self):
        ok, oc, elapsed = run_preset("transport_smoke", 10.0)
        t_err = oc["transport_exactness"]
        conv = oc["rk4_convergence"]
        good = t_err.ok and conv.ok and elapsed <= 10.0
        report("1 transport", good,
               f"max-norm error {t_err.number:.2e} (tol 1e-6); "
               f"dt-halving ratio {conv.number:.2f} (16 +-20%); "
               f"{elapsed:.1f}s of 10s")

    def test_02_unitarity(self):
        t0 = time.time()
        ok, oc, _ = run_preset("unitary_multiplier", 10.0)
        elapsed = time.time() - t0
        drift = oc["unitarity"]
        report("2 unitarity", drift.ok and elapsed <= 10.0,
               f"norm drift {drift.number:.2e} per unit time (tol 1e-10); "
               f"{elapsed:.1f}s of 10s")

    def test_03_energy_estimate_all_scenarios(self):
        t0 = time.time()
        failures = []
        numbers = []
        for name in ("transport_smoke", "unitary_multiplier",
                     "variable_speed_smooth"):
            cfg = get_preset(name)
            cfg["checks"] = ["energy"]
            ctx = ScenarioContext(cfg)
            outcome = ctx.checks[0](ctx)
            numbers.append(f"{name}:{outcome.number:.3g}")
            if not outcome.ok:
                failures.append(name)
        # sweep scenarios: per-eps pointwise/Gronwall flags plus calibrated
        # domination where the semi-norm constant is measured
        ctx = ScenarioContext(get_preset("piecewise_speed_logtype"))
        _, rep = ctx.sweep()
        if not all(rep.energy_ok):
            failures.append("piecewise_speed_logtype(energy)")
        if not all(cs >= cm for cs, cm in zip(rep.c_seminorm, rep.c_measured)):
            failures.append("piecewise_speed_logtype(domination)")
        elapsed = time.time() - t0
        report("3 energy", not failures and elapsed <= 120.0,
               f"pointwise margins {numbers}; sweep energy_ok "
               f"{all(rep.energy_ok)}; {elapsed:.1f}s of 120s")

    def test_04_gronwall_moderateness(self):
        t0 = time.time()
        ok, oc, _ = run_preset("piecewise_speed_logtype", 600.0)
        elapsed = time.time() - t0
        fit = oc["gronwall_fit"]
        mod = oc["moderateness"]
        lt = oc["log_type"]
        report("4 gronwall/moderateness",
               fit.ok and mod.ok and lt.ok and elapsed <= 600.0,
               f"C_eps log-fit residual {fit.number:.3f} (tol 0.15); "
               f"max exponent {mod.number:.3f} bounded by prediction; "
               f"{elapsed:.1f}s of 600s")

    def test_05_negligibility(self):
        t0 = time.time()
        ok, oc, _ = run_preset("negligible_uniqueness", 300.0)
        elapsed = time.time() - t0
        neg = oc["negligible"]
        report("5 negligibility", neg.ok and elapsed <= 300.0,
               f"q-decay passed through q = {neg.number:.0f} (need 10); "
               f"{elapsed:.1f}s of 300s")

    def test_06_association(self):
        t0 = time.time()
        # (i) band-limited data: the mollified and classical solutions are
        # the same grid function
        grid = Grid(1, 256, TWO_PI)
        x = grid.x_axis()
        g0 = GridFunction(grid, np.sin(x) + 0.5 * np.sin(10 * x))
        a1 = SymbolExpr(ex.CoordXi(0), 1.0, 1)
        sym = HyperbolicSymbol(a1=a1)
        classical = solve_fixed_eps(
            CauchyProblem(symbol=sym, initial=g0, horizon=1.0),
            1e-3, seed=0).final()
        mollified = solve_fixed_eps(
            CauchyProblem(symbol=sym, initial=embed_data(g0, 0.05),
                          horizon=1.0),
            1e-3, seed=0).final()
        ident = np.max(np.abs(classical.values - mollified.values))
        # (ii) delta pairings against the exact transported values
        ok, oc, _ = run_preset("delta_association", 300.0)
        elapsed = time.time() - t0
        assoc = oc["association"]
        report("6 association", ident <= 1e-10 and assoc.ok and
               elapsed <= 300.0,
               f"band-limited identity {ident:.2e} (tol 1e-10); terminal "
               f"pairing residual {assoc.number:.2e}, non-increasing tail; "
               f"{elapsed:.1f}s of 300s")

    def test_07_adjoint_appendix(self):
        t0 = time.time()
        ok, oc, _ = run_preset("adjoint_remainder_desk", 300.0)
        elapsed = time.time() - t0
        good = all(oc[n].ok for n in ("remainder_xindep", "remainder_oracle",
                                      "remainder_stability",
                                      "defect_stability"))
        report("7 adjoint", good and elapsed <= 300.0,
               f"x-indep {oc['remainder_xindep'].number:.1e} (tol 1e-10); "
               f"oracle rel {oc['remainder_oracle'].number:.3f} (tol 0.05); "
               f"refinement change {oc['remainder_stability'].number:.1e} "
               f"(tol 0.2); defect ratio {oc['defect_stability'].number:.3f} "
               f"(tol 1.1); {elapsed:.1f}s of 300s")

    def test_08_ginf_regularity(self):
        t0 = time.time()
        ok, oc, _ = run_preset("ginf_regularity", 600.0)
        elapsed = time.time() - t0
        good = oc["ginf_regular"].ok and oc["ginf_irregular"].ok
        report("8 ginf", good and elapsed <= 600.0,
               f"smooth data regular (exp {oc['ginf_regular'].number:.2f}); "
               f"shrinking-scale data irregular "
               f"(exp {oc['ginf_irregular'].number:.2f}); "
               f"{elapsed:.1f}s of 600s")

    def test_09_oracle_equivalence(self):
        t0 = time.time()
        rng = np.random.default_rng(90210)
        x0, xi0 = ex.CoordX(0), ex.CoordXi(0)

        def random_symbol():
            c0 = 1.5 + rng.uniform(0.0, 1.0)
            c1 = rng.uniform(-0.8, 0.8)
            k = int(rng.integers(1, 4))
            speed = ex.add(ex.Const(c0),
                           ex.mul(ex.Const(c1),
                                  ex.Sin(ex.mul(ex.Const(float(k)), x0))))
            return SymbolExpr(ex.mul(speed, xi0), 1.0, 1)

        # dense-matrix agreement on random inputs at every M <= 64
        worst_dense = 0.0
        for m in (16, 32, 64):
            grid = Grid(1, m, TWO_PI)
            for _ in range(5):
                s = random_symbol()
                op = PeriodicOperator(s, grid)
                mat = op.matrix(0.0)
                u = rng.standard_normal(m) + 1j * rng.standard_normal(m)
                diff = np.max(np.abs(op.apply(0.0, u) -
                                     (mat @ u).reshape(grid.shape)))
                worst_dense = max(worst_dense, diff)

        grid = Grid(1, 64, TWO_PI)
        x = grid.x_axis()
        worst_lin = 0.0
        for _ in range(50):
            s = random_symbol()
            sym = HyperbolicSymbol(a1=s)
            g1 = GridFunction(grid, rng.standard_normal(64) +
                              1j * rng.standard_normal(64))
            g2 = GridFunction(grid, rng.standard_normal(64))
            al = complex(rng.standard_normal(), rng.standard_normal())
            be = complex(rng.standard_normal(), rng.standard_normal())

            def solve(g):
                return solve_fixed_eps(
                    CauchyProblem(symbol=sym, initial=g, horizon=0.2),
                    seed=0).final()

            combo = solve(GridFunction(grid, al * g1.values + be * g2.values))
            split = al * solve(g1).values + be * solve(g2).values
            worst_lin = max(worst_lin, np.max(np.abs(combo.values - split)))

        worst_rev = 0.0
        for _ in range(25):
            s = random_symbol()
            neg = SymbolExpr(ex.mul(ex.Const(-1.0), s.root), 1.0, 1)
            modes = rng.integers(-8, 9, size=3)
            amps = rng.standard_normal(3) + 1j * rng.standard_normal(3)
            vals = sum(a * np.exp(1j * k * x) for a, k in zip(amps, modes))
            g0 = GridFunction(grid, vals)
            fwd = solve_fixed_eps(
                CauchyProblem(symbol=HyperbolicSymbol(a1=s), initial=g0,
                              horizon=0.3),
                1e-3, seed=0)
            back = solve_fixed_eps(
                CauchyProblem(symbol=HyperbolicSymbol(a1=neg),
                              initial=fwd.final(), horizon=0.3),
                1e-3, seed=0)
            rel = np.max(np.abs(back.final().values - g0.values)) / \
                max(np.max(np.abs(g0.values)), 1e-300)
            worst_rev = max(worst_rev, rel)

        worst_dft = 0.0
        n = 32
        gridc = Grid(1, n, TWO_PI)
        F = np.exp(-2j * np.pi * np.outer(np.arange(n), np.arange(n)) / n) / \
            np.sqrt(n)
        for _ in range(25):
            mat = op_matrix(random_symbol(), 0.0, gridc)
            s1 = np.linalg.norm(mat, 2)
            s2 = np.linalg.norm(F @ mat @ F.conj().T, 2)
            worst_dft = max(worst_dft, abs(s1 - s2) / s1)

        elapsed = time.time() - t0
        good = (worst_dense <= 1e-10 and worst_lin <= 1e-10 and
                worst_rev <= 1e-8 and worst_dft <= 1e-10 and elapsed <= 120.0)
        report("9 oracle-equivalence", good,
               f"apply-vs-matrix {worst_dense:.1e} (tol 1e-10); linearity "
               f"{worst_lin:.1e} (tol 1e-10); reversibility {worst_rev:.1e} "
               f"(tol 1e-8); DFT-conjugation {worst_dft:.1e} (tol 1e-10); "
               f"100 trials; {elapsed:.1f}s of 120s")
