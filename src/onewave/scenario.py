"""Scenario execution: config dict -> built objects -> named checks.

Each check returns a CheckOutcome with a PASS/FAIL/REPORT status and one
headline number; run_scenario prints one line per check and writes machine
artifacts (CSV/JSON/binary) to the output directory.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from . import expr as ex
from . import io as owio
from .asymptotics import (DataBuilder, SweepPlan, check_association,
                          check_ginf, check_negligible, run_sweep)
from .cauchy import (CauchyProblem, DtPolicy, Forcing, TimeProfile,
                     check_case_variants, check_energy_estimate,
                     derivative_cascade, solve_fixed_eps)
from .config import DEFAULT_THRESHOLDS, Thresholds
from .errors import ConfigInvalid
from .grid import Grid, GridFunction
from .quantization import (OscIntConfig, adjoint_defect_norm,
                           adjoint_symbol_remainder,
                           check_remainder_estimate, op_matrix,
                           symbol_from_matrix)
from .regularization import (Mollifier, MollifiedCoefficient,
                             RoughCoefficient, RoughTransport,
                             regularized_family,
                             verify_log_type_of_regularization)
from .symbols import (GenSymbolFamily, HyperbolicSymbol, SampleBox,
                      SymbolExpr)


def mollifier_factory(mollifier: Mollifier | None = None):
    moll = mollifier or Mollifier()

    def build(rough_json, omega):
        return MollifiedCoefficient(RoughCoefficient.from_json(rough_json),
                                    moll, omega)

    return build


def _x_expression(expr_json, x) -> np.ndarray:
    """Values of an x-only data expression at coordinate arrays x (xi = 0)."""
    sym = SymbolExpr(ex.from_json(expr_json, mollifier_factory()), 0.0, len(x))
    zeros = tuple(np.zeros_like(c) for c in x)
    return np.asarray(sym.eval(0.0, x, zeros), dtype=complex) * \
        np.ones_like(x[0])


@dataclass
class CheckOutcome:
    name: str
    status: str          # PASS | FAIL | REPORT
    number: float | None
    message: str = ""
    details: dict = field(default_factory=dict)

    @property
    def ok(self) -> bool:
        return self.status != "FAIL"

    def line(self) -> str:
        num = "" if self.number is None else f" {self.number:.6g}"
        msg = f"  ({self.message})" if self.message else ""
        return f"{self.status:6s} {self.name}{num}{msg}"


class ScenarioContext:
    """Built objects and caches shared by the checks of one scenario."""

    def __init__(self, cfg: dict, outdir=None):
        self.cfg = cfg
        self.outdir = Path(outdir) if outdir else None
        self.seed = int(cfg["seed"])
        gc = cfg["grid"]
        self.grid = Grid(gc["dim"], gc["points"], gc["length"])
        self.thresholds = Thresholds(**{**DEFAULT_THRESHOLDS.as_dict(),
                                        **cfg.get("thresholds", {})})
        self._solve_cache = {}
        self._plan_cache = {}
        self._sweep_cache = {}
        self._family = None

    # -- symbol -----------------------------------------------------------
    def rough_transport(self) -> RoughTransport:
        sc = self.cfg["symbol"]
        if sc["kind"] != "rough_transport":
            raise ConfigInvalid("symbol.kind must be rough_transport "
                                "for this check")
        speeds = tuple(RoughCoefficient.from_json(r) for r in sc["speeds"])
        zero = (RoughCoefficient.from_json(sc["zero_order"])
                if sc.get("zero_order") else None)
        return RoughTransport(speeds=speeds, zero_order=zero,
                              x_independent_outside=sc.get("x_independent_outside"))

    def mollification_k(self) -> int:
        return int(self.cfg["symbol"].get("mollification_k", 1))

    def eps_grid(self):
        sw = self.cfg.get("sweep")
        if not sw:
            raise ConfigInvalid("scenario requires a sweep section")
        count = int(sw["count"])
        if "ratio" in sw:
            return [sw["eps0"] * sw["ratio"] ** i for i in range(count)]
        return list(np.geomspace(sw["eps0"], sw["eps_min"], count))

    def mollifier(self) -> Mollifier:
        width = float(self.cfg["symbol"].get("transition_width", 1.0))
        return Mollifier(dim=self.grid.dim, transition_width=width)

    def family(self) -> GenSymbolFamily:
        if self._family is not None:
            return self._family
        sc = self.cfg["symbol"]
        if sc["kind"] == "rough_transport":
            self._family = regularized_family(self.rough_transport(),
                                              self.mollification_k(),
                                              self.eps_grid(),
                                              mollifier=self.mollifier())
        else:
            fixed = self.fixed_symbol()
            self._family = GenSymbolFamily(lambda eps: fixed, self.eps_grid())
        return self._family

    def fixed_symbol(self) -> HyperbolicSymbol:
        sc = self.cfg["symbol"]
        if sc["kind"] == "expr":
            factory = mollifier_factory()
            a1 = SymbolExpr.from_json(sc["a1"], factory)
            a0 = SymbolExpr.from_json(sc["a0"], factory) if sc.get("a0") else None
            return HyperbolicSymbol(a1=a1, a0=a0,
                                    x_independent_outside=sc.get(
                                        "x_independent_outside"))
        raise ConfigInvalid("fixed-symbol checks need symbol.kind == 'expr'")

    # -- data ----------------------------------------------------------------
    def initial_data(self, data_cfg=None) -> GridFunction:
        dc = data_cfg or self.cfg["data"]
        gspec = dc.get("g", {"kind": "zero"})
        kind = gspec["kind"]
        if kind == "zero":
            return GridFunction.zeros(self.grid)
        if kind == "delta":
            return GridFunction.delta(self.grid, tuple(gspec["node"]))
        if kind == "expression":
            return GridFunction(self.grid, _x_expression(gspec["expr"],
                                                         self.grid.x_mesh()))
        raise ConfigInvalid(f"unknown data.g kind {kind!r}")

    def forcing(self, data_cfg=None) -> Forcing:
        dc = data_cfg or self.cfg["data"]
        fspec = dc.get("f")
        if not fspec or fspec.get("kind", "zero") == "zero":
            return Forcing.zero(self.grid)
        if fspec["kind"] == "separable":
            prof = fspec.get("profile", {})
            profile = TimeProfile(
                amp=complex(prof.get("amp_re", 1.0), prof.get("amp_im", 0.0)),
                power=int(prof.get("power", 0)),
                freq=float(prof.get("freq", 0.0)),
                phase=float(prof.get("phase", 0.0)))
            shape = GridFunction(self.grid, _x_expression(fspec["shape"],
                                                          self.grid.x_mesh()))
            return Forcing.separable(profile, shape)
        raise ConfigInvalid(f"unknown data.f kind {fspec['kind']!r}")

    def data_builder(self, data_cfg=None) -> DataBuilder:
        dc = data_cfg or self.cfg["data"]
        return DataBuilder(kind=dc.get("builder", "fixed"),
                           g=self.initial_data(dc), forcing=self.forcing(dc),
                           power=float(dc.get("power", 1.0)),
                           gamma=float(dc.get("gamma", 0.5)))

    def dt_policy(self, dt=None) -> DtPolicy:
        return DtPolicy(dt=self.cfg.get("dt") if dt is None else dt)

    # -- cached runs --------------------------------------------------------
    def solve(self, dt=None):
        if dt not in self._solve_cache:
            problem = CauchyProblem(symbol=self.fixed_symbol(),
                                    initial=self.initial_data(),
                                    horizon=self.cfg["horizon"],
                                    forcing=self.forcing())
            self._solve_cache[dt] = (problem, solve_fixed_eps(
                problem, self.dt_policy(dt), seed=self.seed))
        return self._solve_cache[dt]

    def sweep_plan(self, data_cfg=None, cascade: int = 0) -> SweepPlan:
        key = (repr(data_cfg), cascade)
        if key not in self._plan_cache:
            orders = tuple((d, tuple(a)) for d, a in
                           self.cfg.get("orders", [[0, [0] * self.grid.dim]]))
            self._plan_cache[key] = SweepPlan(
                family=self.family(), data=self.data_builder(data_cfg),
                grid=self.grid, horizon=self.cfg["horizon"], orders=orders,
                dt_policy=self.dt_policy(), seed=self.seed,
                cascade_max_order=cascade, measure_seminorms=cascade > 0)
        return self._plan_cache[key]

    def sweep_report(self, data_cfg=None, cascade: int = 0):
        key = (repr(data_cfg), cascade)
        if key not in self._sweep_cache:
            self._sweep_cache[key] = run_sweep(self.sweep_plan(data_cfg, cascade),
                                               self.thresholds)
        return self._sweep_cache[key]

    def artifact(self, name: str):
        if self.outdir is None:
            return None
        return self.outdir / f"{self.cfg['name']}_{name}"


# -- check implementations ----------------------------------------------------

def _transported_data(ctx: ScenarioContext, check: str, speed: float):
    """Exact constant-speed transport g(x - c T) of expression data g."""
    gspec = ctx.cfg["data"]["g"]
    if gspec["kind"] != "expression" or ctx.grid.dim != 1:
        raise ConfigInvalid(f"{check} needs expression data on a 1-D grid")
    shifted = np.mod(ctx.grid.x_axis() - speed * ctx.cfg["horizon"],
                     ctx.grid.length)
    return _x_expression(gspec["expr"], (shifted,))


def _check_transport_exactness(ctx: ScenarioContext, p: dict) -> CheckOutcome:
    tol = float(p.get("tol", 1e-6))
    exact = _transported_data(ctx, "transport_exactness",
                              float(p.get("speed", 1.0)))
    _, result = ctx.solve()
    err = float(np.max(np.abs(result.final().values - exact)))
    if ctx.artifact("ledger.csv"):
        owio.write_ledger_csv(ctx.artifact("ledger.csv"), result.ledger, "energy")
        owio.write_trajectory(ctx.artifact("trajectory.bin"), result, ctx.grid)
    return CheckOutcome("transport_exactness",
                        "PASS" if err <= tol else "FAIL", err,
                        f"max-norm error vs g(x - ct), tol {tol:g}")


def _check_rk4_convergence(ctx: ScenarioContext, p: dict) -> CheckOutcome:
    base_dt = ctx.cfg.get("dt") or 1e-3
    exact = _transported_data(ctx, "rk4_convergence", float(p.get("speed", 1.0)))
    errs = []
    for factor in (4, 2, 1):
        _, res = ctx.solve(dt=base_dt * factor)
        errs.append(float(np.max(np.abs(res.final().values - exact))))
    floor = 1e-12
    ratios = []
    for i in range(2):
        if errs[i + 1] > 50 * floor:
            ratios.append(errs[i] / errs[i + 1])
    ok = bool(ratios) and all(16.0 * 0.8 <= r <= 16.0 * 1.2 for r in ratios)
    return CheckOutcome("rk4_convergence", "PASS" if ok else "FAIL",
                        ratios[0] if ratios else None,
                        f"dt-halving error ratios {['%.2f' % r for r in ratios]}"
                        f" target 16 +-20%",
                        {"errors": errs})


def _check_unitarity(ctx: ScenarioContext, p: dict) -> CheckOutcome:
    tol = float(p.get("tol", 1e-10))
    _, result = ctx.solve()
    norms = np.sqrt(result.ledger.u_norm_sq)
    drift = float(np.max(np.abs(norms - norms[0])) /
                  (norms[0] * ctx.cfg["horizon"]))
    return CheckOutcome("unitarity", "PASS" if drift <= tol else "FAIL",
                        drift, f"norm drift per unit time, tol {tol:g}")


def _check_energy(ctx: ScenarioContext, p: dict) -> CheckOutcome:
    _, result = ctx.solve()
    rep = check_energy_estimate(result.ledger)
    ok = rep["pointwise_ok"] and rep["gronwall_ok"] and \
        (rep["seminorm_dominates"] is not False)
    if ctx.artifact("energy_ledger.csv"):
        owio.write_ledger_csv(ctx.artifact("energy_ledger.csv"),
                              result.ledger, "energy")
    return CheckOutcome("energy", "PASS" if ok else "FAIL",
                        rep["pointwise_margin_min"],
                        f"pointwise={rep['pointwise_ok']} "
                        f"gronwall={rep['gronwall_ok']} "
                        f"dominates={rep['seminorm_dominates']}",
                        rep)


def _check_case_variants(ctx: ScenarioContext, p: dict) -> CheckOutcome:
    problem, result = ctx.solve()
    rep = check_case_variants(problem, result, seed=ctx.seed)
    ok = True
    msgs = []
    for case in ("case_b", "case_c"):
        entry = rep[case]
        if entry["applicable"]:
            good = entry["dominates_measured"] and entry["gronwall_ok"]
            ok = ok and good
            msgs.append(f"{case}: dominates={entry['dominates_measured']}")
        else:
            msgs.append(f"{case}: n/a ({entry['reason']})")
    return CheckOutcome("case_variants", "PASS" if ok else "FAIL",
                        rep["c_measured"], "; ".join(msgs), rep)


def _check_cascade_bounds(ctx: ScenarioContext, p: dict) -> CheckOutcome:
    problem, result = ctx.solve()
    rep = derivative_cascade(problem, result,
                             max_order=int(p.get("max_order", 2)))
    ok = all(entry["ok"] for entry in rep.values())
    worst = min((np.min(entry["bound"] - entry["v_norm_sq"])
                 for entry in rep.values()), default=0.0)
    return CheckOutcome("cascade_bounds", "PASS" if ok else "FAIL",
                        float(worst),
                        f"orders up to {p.get('max_order', 2)}; "
                        f"min bound margin")


def _check_log_type(ctx: ScenarioContext, p: dict) -> CheckOutcome:
    k = ctx.mollification_k()
    box = SampleBox(x_lo=(0.0,) * ctx.grid.dim,
                    x_hi=(ctx.grid.length,) * ctx.grid.dim,
                    xi_max=ctx.grid.max_abs_xi())
    rep = verify_log_type_of_regularization(ctx.rough_transport(), k,
                                            ctx.eps_grid(), box,
                                            mollifier=ctx.mollifier(),
                                            thresholds=ctx.thresholds)
    coeff = rep["orders"][k]["fitted_coeff"]
    if ctx.artifact("seminorms.csv"):
        rows = []
        for l, verdict in rep["orders"].items():
            for eps, q in zip(verdict["eps"], verdict["q_values"]):
                rows.append((eps, 1.0, 0, 0, l, q))
        owio.write_seminorm_csv(ctx.artifact("seminorms.csv"), rows)
    return CheckOutcome("log_type", "PASS" if rep["is_log_type"] else "FAIL",
                        coeff, f"fit coefficient at derivative order {k}",
                        {str(l): {kk: vv for kk, vv in v.items()
                                  if kk != "q_values"}
                         for l, v in rep["orders"].items()})


def _check_gronwall_fit(ctx: ScenarioContext, p: dict) -> CheckOutcome:
    tol = float(p.get("residual_tol", ctx.thresholds.log_type_residual))
    rep = ctx.sweep_report(cascade=ctx.cfg.get("cascade_max_order", 0))
    fit = rep.c_log_fit
    energy_all = all(rep.energy_ok)
    dominate_all = all(cs >= cm for cs, cm in
                       zip(rep.c_seminorm, rep.c_measured)
                       if math.isfinite(cs))
    ok = bool(fit) and fit["residual"] < tol and fit["coeff"] >= 0 and \
        energy_all and dominate_all and not rep.incomplete
    return CheckOutcome("gronwall_fit", "PASS" if ok else "FAIL",
                        fit.get("residual") if fit else None,
                        f"C_eps ~ {fit.get('coeff', 0):.3f} log(1/eps) + "
                        f"{fit.get('intercept', 0):.3f}; energy_ok={energy_all}",
                        {"fit": fit, "energy_ok": rep.energy_ok})


def _check_moderateness(ctx: ScenarioContext, p: dict) -> CheckOutcome:
    cascade = ctx.cfg.get("cascade_max_order", 0)
    rep = ctx.sweep_report(cascade=cascade)
    slack = ctx.thresholds.exponent_fit_slack
    ok = not rep.incomplete
    worst = None
    rows = []
    for order, fit in rep.fits.items():
        n_hat = fit["N_hat"]
        if n_hat is None:
            continue
        worst = n_hat if worst is None else max(worst, n_hat)
        ok = ok and fit["moderate"]
        d, alpha = order
        pred = rep.predicted_exponents.get(alpha) if d == 0 else None
        if pred is not None:
            ok = ok and (n_hat <= pred + slack)
            rows.append(("asymptotics", f"exponent d={d} alpha={alpha}",
                         n_hat, pred, n_hat / pred if pred else 0.0,
                         f"M={ctx.grid.points}"))
    if ctx.artifact("sweep_report.json"):
        owio.write_json(ctx.artifact("sweep_report.json"), rep.to_json())
        owio.write_check_csv(ctx.artifact("exponents.csv"), rows)
    return CheckOutcome("moderateness", "PASS" if ok else "FAIL", worst,
                        "max fitted exponent; all bounded by energy "
                        "prediction", {"fits": {str(k): v for k, v in
                                                rep.fits.items()}})


def _check_negligible(ctx: ScenarioContext, p: dict) -> CheckOutcome:
    thr = ctx.thresholds
    if "q_max" in p:
        d = thr.as_dict()
        d["q_max"] = int(p["q_max"])
        thr = Thresholds(**d)
    report = ctx.sweep_report()
    rep = check_negligible(ctx.sweep_plan(), report, thr)
    if ctx.artifact("negligible.json"):
        owio.write_json(ctx.artifact("negligible.json"), rep)
    ok = rep["is_negligible"] and not report.incomplete
    return CheckOutcome("negligible", "PASS" if ok else "FAIL",
                        rep["max_passed_q"],
                        f"max passed q of q_max={thr.q_max}")


def _check_association(ctx: ScenarioContext, p: dict) -> CheckOutcome:
    probes_json = p.get("probes")
    if not probes_json:
        raise ConfigInvalid("association check requires probes")
    probes = [lambda *mesh, pj=pj: _x_expression(pj, mesh)
              for pj in probes_json]
    gspec = ctx.cfg["data"]["g"]
    reference = "solve"
    if gspec["kind"] == "delta" and "speed" in p:
        x0 = ctx.grid.x_axis()[tuple(gspec["node"])[0]]
        target = x0 + float(p["speed"]) * ctx.cfg["horizon"]

        def exact_reference(phi):
            pt = np.mod(np.array([target]), ctx.grid.length)
            return complex(phi(pt)[0])
        reference = exact_reference
    report = ctx.sweep_report()
    rep = check_association(ctx.sweep_plan(), report, probes, reference,
                            ctx.thresholds)
    terminal = max(rep["terminal_residuals"], default=math.inf)
    tol = float(p.get("terminal_tol", math.inf))
    ok = rep["monotone_tail"] and terminal <= tol and not report.incomplete
    if ctx.artifact("association.csv"):
        rows = [(eps, *res) for eps, res in zip(rep["eps"], rep["residuals"])]
        owio.write_csv(ctx.artifact("association.csv"),
                       ("eps",) + tuple(f"probe{i}" for i in
                                        range(len(probes))), rows)
    return CheckOutcome("association", "PASS" if ok else "FAIL", terminal,
                        f"monotone_tail={rep['monotone_tail']}, "
                        f"reference={rep['reference']}")


def _check_ginf(ctx: ScenarioContext, p: dict) -> CheckOutcome:
    expect = bool(p.get("expect", True))
    data_cfg = p.get("data")
    report = ctx.sweep_report(data_cfg)
    rep = check_ginf(ctx.sweep_plan(data_cfg), report, thresholds=ctx.thresholds)
    # checked here, not in is_ginf: a short sweep must not pass expect=False
    ok = rep["is_ginf"] == expect and rep["gate_passed"] and not report.incomplete
    name = "ginf" + ("_regular" if expect else "_irregular")
    return CheckOutcome(name, "PASS" if ok else "FAIL",
                        rep["max_tracked_exponent"],
                        f"is_ginf={rep['is_ginf']} expect={expect} "
                        f"p_hat={rep['p_hat']:.3f}",
                        {k: v for k, v in rep.items()
                         if k not in ("gate_slow_scale", "gate_log_type")})


def _check_remainder_xindep(ctx: ScenarioContext, p: dict) -> CheckOutcome:
    tol = float(p.get("tol", 1e-10))
    s = SymbolExpr(ex.CoordXi(0), 1.0, 1)
    worst = 0.0
    for xp in (0.5, 2.0, 4.0):
        for xip in (0.0, 2.0, 8.0):
            worst = max(worst, abs(adjoint_symbol_remainder(s, 0.0, [xp], [xip])))
    return CheckOutcome("remainder_xindep", "PASS" if worst <= tol else "FAIL",
                        worst, f"|remainder| of x-independent symbol, tol {tol:g}")


def _check_remainder_oracle(ctx: ScenarioContext, p: dict) -> CheckOutcome:
    rel_tol = float(p.get("rel_tol", 5e-2))
    symbol = ctx.fixed_symbol().full()
    grid = ctx.grid
    mat = op_matrix(symbol, 0.0, grid)
    astar = symbol_from_matrix(mat.conj().T, grid)
    pts = grid.x_axis()
    xis = grid.xi_axis()
    conj_table = np.conj(np.broadcast_to(np.asarray(
        symbol.root.eval(0.0, (pts[:, None],), (xis[None, :],))),
        (grid.points, grid.points)))
    rem_matrix = astar - conj_table
    k0 = int(np.where(xis == 0.0)[0][0])
    quad = np.array([adjoint_symbol_remainder(symbol, 0.0, [x], [0.0])
                     for x in pts])
    scale = float(np.max(np.abs(rem_matrix[:, k0])))
    rel = float(np.max(np.abs(quad - rem_matrix[:, k0]))) / scale
    return CheckOutcome("remainder_oracle", "PASS" if rel <= rel_tol else "FAIL",
                        rel, f"relative sup deviation vs dense adjoint "
                        f"symbol at xi=0, tol {rel_tol:g}",
                        {"scale": scale})


def _check_remainder_stability(ctx: ScenarioContext, p: dict) -> CheckOutcome:
    rel_change = float(p.get("rel_change", 0.2))
    symbol = ctx.fixed_symbol().full()
    base_cfg = OscIntConfig()
    base = check_remainder_estimate(symbol, (0,), (0,), cfg=base_cfg)
    refined = check_remainder_estimate(symbol, (0,), (0,),
                                       cfg=base_cfg.refined(1.4))
    change = abs(refined["ratio"] - base["ratio"]) / max(base["ratio"], 1e-300)
    ok = change <= rel_change and base["ratio"] > 0
    if ctx.artifact("remainder_checks.csv"):
        rows = [("quantization", "remainder_estimate", base["lhs"],
                 base["rhs_seminorm"], base["ratio"], "base"),
                ("quantization", "remainder_estimate", refined["lhs"],
                 refined["rhs_seminorm"], refined["ratio"], "refined")]
        owio.write_check_csv(ctx.artifact("remainder_checks.csv"), rows)
    return CheckOutcome("remainder_stability", "PASS" if ok else "FAIL",
                        change, f"ratio change under theta/box refinement, "
                        f"tol {rel_change:g}",
                        {"base": base, "refined": refined})


def _check_defect_stability(ctx: ScenarioContext, p: dict) -> CheckOutcome:
    points = p.get("points", [64, 128, 256])
    max_ratio = float(p.get("max_ratio", 1.1))
    symbol = ctx.fixed_symbol().a1
    values = []
    for m in points:
        g = Grid(ctx.grid.dim, int(m), ctx.grid.length)
        values.append(adjoint_defect_norm(symbol, 0.0, g, seed=ctx.seed).value)
    ratio = max(values) / min(values)
    return CheckOutcome("defect_stability",
                        "PASS" if ratio <= max_ratio else "FAIL", ratio,
                        f"defect norms {['%.4f' % v for v in values]} "
                        f"across M={points}")


CHECKS = {
    "transport_exactness": _check_transport_exactness,
    "rk4_convergence": _check_rk4_convergence,
    "unitarity": _check_unitarity,
    "energy": _check_energy,
    "case_variants": _check_case_variants,
    "cascade_bounds": _check_cascade_bounds,
    "log_type": _check_log_type,
    "gronwall_fit": _check_gronwall_fit,
    "moderateness": _check_moderateness,
    "negligible": _check_negligible,
    "association": _check_association,
    "ginf": _check_ginf,
    "remainder_xindep": _check_remainder_xindep,
    "remainder_oracle": _check_remainder_oracle,
    "remainder_stability": _check_remainder_stability,
    "defect_stability": _check_defect_stability,
}


def run_scenario(cfg: dict, outdir=None, echo=print):
    """Execute the scenario's checks; returns (all_ok, outcomes)."""
    checks = [dict(entry) if isinstance(entry, dict) else {"check": entry}
              for entry in cfg["checks"]]
    unknown = [c["check"] for c in checks if c["check"] not in CHECKS]
    if unknown:
        raise ConfigInvalid(f"unknown check {unknown[0]!r}")
    ctx = ScenarioContext(cfg, outdir=outdir)
    outcomes = []
    for params in checks:
        outcome = CHECKS[params.pop("check")](ctx, params)
        outcomes.append(outcome)
        echo(outcome.line())
    if outdir is not None:
        payload = {
            "scenario": cfg["name"],
            "outcomes": [{"name": o.name, "status": o.status,
                          "number": o.number, "message": o.message}
                         for o in outcomes],
        }
        owio.write_json(Path(outdir) / f"{cfg['name']}_summary.json", payload)
    return all(o.ok for o in outcomes), outcomes
