"""Scenario execution: config dict -> built objects -> named checks.

The one module that knows the config format.  ScenarioContext(cfg) builds:
it validates the config, constructs every object the checks use, binds every
check and raises only ConfigInvalid.  run_scenario then runs the checks,
prints one PASS/FAIL line per CheckOutcome and writes machine
artifacts (CSV/JSON/binary) to the output directory.
"""

from __future__ import annotations

import functools
import inspect
import math
import numbers
import operator
from dataclasses import asdict, dataclass
from pathlib import Path

import numpy as np

from . import expr as ex
from . import io as owio
from .asymptotics import (DataBuilder, SweepPlan, check_association,
                          check_ginf, check_negligible, require_ginf_orders,
                          run_sweep)
from .cauchy import (CauchyProblem, Forcing, TimeProfile, check_case_variants,
                     check_energy_estimate, derivative_cascade,
                     seminorm_constant, seminorm_dominates, solve_fixed_eps)
from .config import (ASSOCIATION_TERMINAL_TOL, EXPONENT_FIT_SLACK,
                     LOG_TYPE_RESIDUAL, MAX_DIFF_ORDER, Q_MAX)
from .errors import ConfigInvalid, OnewaveError
from .grid import Grid, GridFunction
from .quantization import (adjoint_defect_norm, adjoint_symbol_remainder,
                           check_remainder_estimate, op_matrix,
                           symbol_from_matrix)
from .regularization import (RoughCoefficient, RoughTransport,
                             regularized_family,
                             verify_log_type_of_regularization)
from .symbols import (GenSymbolFamily, HyperbolicSymbol, SampleBox,
                      SymbolExpr, _grid_box, check_real_valued)


def _x_function(expr_json, dim: int):
    """An x-only data expression as a function of coordinate arrays (xi = 0)."""
    sym = SymbolExpr(ex.from_json(expr_json), 0.0, dim)

    def values(*x) -> np.ndarray:
        zeros = tuple(np.zeros_like(c) for c in x)
        # an overflow is refused by the caller's finite check, not raised
        with np.errstate(over="ignore", invalid="ignore"):
            return np.asarray(sym.eval(0.0, x, zeros), dtype=complex) * \
                np.ones_like(x[0])

    return values


@dataclass
class CheckOutcome:
    name: str
    status: str          # PASS | FAIL
    number: float | None
    message: str = ""

    @property
    def ok(self) -> bool:
        return self.status == "PASS"

    def line(self) -> str:
        num = "" if self.number is None else f" {self.number:.6g}"
        msg = f"  ({self.message})" if self.message else ""
        return f"{self.status:6s} {self.name}{num}{msg}"


# -- check implementations ----------------------------------------------------
# Each check takes the built context and its config parameters as keywords.
# The criteria that no config sets:
TRANSPORT_TOL = 1e-6            # transport_exactness: max-norm error
UNITARITY_TOL = 1e-10           # unitarity: norm drift per unit time
ORACLE_REL_TOL = 5e-2           # remainder_oracle: relative sup deviation
STABILITY_REL_CHANGE = 0.2      # remainder_stability: ratio change
DEFECT_POINTS = (64, 128, 256)  # defect_stability: the grid sizes M
DEFECT_MAX_RATIO = 1.1          # defect_stability: largest / smallest norm


def _transported_data(ctx: ScenarioContext):
    """Exact constant-speed transport g(x - c T) of the 1-D expression data,
    c the symbol's speed."""
    shifted = np.mod(ctx.grid.x_axis() - ctx.speed * ctx.horizon,
                     ctx.grid.length)
    return ctx.g_1d(shifted)


def _check_transport_exactness(ctx: ScenarioContext) -> CheckOutcome:
    exact = _transported_data(ctx)
    _, result = ctx.solve()
    err = float(np.max(np.abs(result.final().values - exact)))
    # the ledger is the energy check's artifact
    if ctx.artifact("trajectory.bin"):
        owio.write_trajectory(ctx.artifact("trajectory.bin"), result)
    return CheckOutcome("transport_exactness",
                        "PASS" if err <= TRANSPORT_TOL else "FAIL", err,
                        f"max-norm error vs g(x - ct), tol {TRANSPORT_TOL:g}")


# Time refinement of rk4_convergence's reference solve.
REFERENCE_REFINEMENT = 4


def _check_rk4_convergence(ctx: ScenarioContext) -> CheckOutcome:
    # the reference is a refined solve: the exact multiplier of an x-free
    # symbol leaves g(x - cT) no step error to measure
    base_dt = ctx.dt or 1e-3
    _, ref = ctx.solve(dt=base_dt / REFERENCE_REFINEMENT)
    ref_final = ref.final().values
    errs = []
    for factor in (4, 2, 1):
        _, res = ctx.solve(dt=base_dt * factor)
        errs.append(float(np.max(np.abs(res.final().values - ref_final))))
    floor = 1e-12
    ratios = []
    for i in range(2):
        if errs[i + 1] > 50 * floor:
            ratios.append(errs[i] / errs[i + 1])
    ok = bool(ratios) and all(16.0 * 0.8 <= r <= 16.0 * 1.2 for r in ratios)
    return CheckOutcome("rk4_convergence", "PASS" if ok else "FAIL",
                        ratios[0] if ratios else None,
                        f"dt-halving error ratios {['%.2f' % r for r in ratios]}"
                        f" target 16 +-20%, vs dt/{REFERENCE_REFINEMENT}")


def _check_unitarity(ctx: ScenarioContext) -> CheckOutcome:
    _, result = ctx.solve()
    norms = np.sqrt(result.ledger.u_norm_sq)
    drift = float(np.max(np.abs(norms - norms[0])) /
                  (norms[0] * ctx.horizon))
    return CheckOutcome("unitarity",
                        "PASS" if drift <= UNITARITY_TOL else "FAIL", drift,
                        f"norm drift per unit time, tol {UNITARITY_TOL:g}")


def _check_energy(ctx: ScenarioContext) -> CheckOutcome:
    problem, result = ctx.solve()
    rep = check_energy_estimate(result.ledger)
    dominates = seminorm_dominates(
        seminorm_constant(problem.symbol, ctx.grid, ctx.horizon),
        result.ledger.c_measured)
    ok = rep["pointwise_ok"] and rep["gronwall_ok"] and dominates
    if ctx.artifact("energy_ledger.csv"):
        owio.write_ledger_csv(ctx.artifact("energy_ledger.csv"),
                              result.ledger)
    return CheckOutcome("energy", "PASS" if ok else "FAIL",
                        rep["pointwise_margin_min"],
                        f"pointwise={rep['pointwise_ok']} "
                        f"gronwall={rep['gronwall_ok']} "
                        f"dominates={dominates}")


def _check_case_variants(ctx: ScenarioContext) -> CheckOutcome:
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
    # a case that does not apply compares nothing, so one must apply
    if not (rep["case_b"]["applicable"] or rep["case_c"]["applicable"]):
        ok = False
        msgs.append("no case applies")
    return CheckOutcome("case_variants", "PASS" if ok else "FAIL",
                        rep["c_measured"], "; ".join(msgs))


def _check_cascade_bounds(ctx: ScenarioContext, max_order=2) -> CheckOutcome:
    problem, result = ctx.solve()
    rep = derivative_cascade(problem, result, max_order=int(max_order))
    ok = all(entry["ok"] for entry in rep.values())
    worst = min((np.min(entry["bound"] - entry["v_norm_sq"])
                 for entry in rep.values()), default=0.0)
    return CheckOutcome("cascade_bounds", "PASS" if ok else "FAIL",
                        float(worst),
                        f"orders up to {max_order}; min bound margin")


def _check_log_type(ctx: ScenarioContext) -> CheckOutcome:
    k = ctx.mollification_k
    box = SampleBox(ctx.grid.dim, ctx.grid.length,
                    xi_max=ctx.grid.max_abs_xi())
    # the sweep's family: its members and their derivatives are built once
    rep = verify_log_type_of_regularization(ctx.family, k, box)
    coeff = rep["orders"][k]["fitted_coeff"]
    if ctx.artifact("seminorms.csv"):
        rows = []
        for l, verdict in rep["orders"].items():
            for eps, q in zip(verdict["eps"], verdict["q_values"]):
                rows.append((eps, 1.0, 0, 0, l, q))
        owio.write_seminorm_csv(ctx.artifact("seminorms.csv"), rows)
    return CheckOutcome("log_type", "PASS" if rep["is_log_type"] else "FAIL",
                        coeff, f"fit coefficient at derivative order {k}")


def _check_gronwall_fit(ctx: ScenarioContext) -> CheckOutcome:
    plan, rep = ctx.sweep()
    fit = rep.c_log_fit
    energy_all = all(rep.energy_ok)
    # each completed member's semi-norm constant must dominate its
    # measured constant
    constants = [seminorm_constant(plan.family.member(eps), ctx.grid,
                                   ctx.horizon) for eps in rep.eps]
    dominate_all = all(map(seminorm_dominates, constants, rep.c_measured))
    ok = bool(fit) and fit["residual"] < LOG_TYPE_RESIDUAL and \
        fit["coeff"] >= 0 and energy_all and dominate_all and \
        not rep.incomplete
    return CheckOutcome("gronwall_fit", "PASS" if ok else "FAIL",
                        fit.get("residual") if fit else None,
                        f"C_eps ~ {fit.get('coeff', 0):.3f} log(1/eps) + "
                        f"{fit.get('intercept', 0):.3f}; energy_ok={energy_all}")


def _check_moderateness(ctx: ScenarioContext) -> CheckOutcome:
    _, rep = ctx.sweep()
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
            ok = ok and (n_hat <= pred + EXPONENT_FIT_SLACK)
            rows.append(("asymptotics", f"exponent d={d} alpha={alpha}",
                         n_hat, pred, n_hat / pred if pred else 0.0,
                         f"M={ctx.grid.points}"))
    if ctx.artifact("sweep_report.json"):
        owio.write_json(ctx.artifact("sweep_report.json"), rep.to_json())
        owio.write_check_csv(ctx.artifact("exponents.csv"), rows)
    # a verdict that compared no exponent with its prediction bounds nothing
    return CheckOutcome("moderateness", "PASS" if ok and rows else "FAIL",
                        worst, "max fitted exponent; " + (
                            "all bounded by energy prediction" if rows else
                            "no fitted exponent compared with a prediction"))


def _check_negligible(ctx: ScenarioContext) -> CheckOutcome:
    plan, report = ctx.sweep()
    rep = check_negligible(plan, report)
    if ctx.artifact("negligible.json"):
        owio.write_json(ctx.artifact("negligible.json"), rep)
    ok = rep["is_negligible"] and not report.incomplete
    return CheckOutcome("negligible", "PASS" if ok else "FAIL",
                        rep["max_passed_q"],
                        f"max passed q of q_max={Q_MAX}")


def _check_association(ctx: ScenarioContext, probes) -> CheckOutcome:
    # the exact reference: a delta moves with the symbol's speed, and the
    # pairing <u, phi> conjugates the probe, so it tends to conj(phi(x0 + cT))
    x0 = ctx.grid.x_axis()[ctx.delta_node[0]]
    target = np.mod(np.array([x0 + ctx.speed * ctx.horizon]), ctx.grid.length)

    def reference(phi):
        return complex(np.conjugate(phi(target)[0]))
    _, report = ctx.sweep()
    rep = check_association(ctx.grid, report, probes, reference)
    terminal = max(rep["terminal_residuals"], default=math.inf)
    ok = rep["monotone_tail"] and terminal <= ASSOCIATION_TERMINAL_TOL and \
        not report.incomplete
    if ctx.artifact("association.csv"):
        rows = [(eps, *res) for eps, res in zip(rep["eps"], rep["residuals"])]
        owio.write_csv(ctx.artifact("association.csv"),
                       ("eps",) + tuple(f"probe{i}" for i in
                                        range(len(probes))), rows)
    return CheckOutcome("association", "PASS" if ok else "FAIL", terminal,
                        f"monotone_tail={rep['monotone_tail']}, "
                        "reference=exact")


def _check_ginf(ctx: ScenarioContext, expect=True, data=None) -> CheckOutcome:
    plan, report = ctx.sweep(data)
    rep = check_ginf(plan, report)
    # checked here, not in is_ginf: a short sweep must not pass expect=False
    ok = rep["is_ginf"] == expect and rep["gate_passed"] and not report.incomplete
    name = "ginf" + ("_regular" if expect else "_irregular")
    return CheckOutcome(name, "PASS" if ok else "FAIL",
                        rep["max_tracked_exponent"],
                        f"is_ginf={rep['is_ginf']} expect={expect} "
                        f"p_hat={rep['p_hat']:.3f}")


def _check_remainder_oracle(ctx: ScenarioContext) -> CheckOutcome:
    symbol = ctx.symbol_1d.full()
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
    quad = adjoint_symbol_remainder(symbol, 0.0, pts, 0.0)
    scale = float(np.max(np.abs(rem_matrix[:, k0])))
    # a zero dense remainder leaves the relative deviation undefined: FAIL
    rel = (float(np.max(np.abs(quad - rem_matrix[:, k0]))) / scale
           if scale > 0 else None)
    return CheckOutcome("remainder_oracle", "PASS" if rel is not None and
                        rel <= ORACLE_REL_TOL else "FAIL", rel,
                        f"relative sup deviation vs dense adjoint symbol at "
                        f"xi=0, tol {ORACLE_REL_TOL:g}" +
                        ("; zero dense remainder" if rel is None else ""))


def _check_remainder_stability(ctx: ScenarioContext) -> CheckOutcome:
    symbol = ctx.symbol_1d.full()
    base = check_remainder_estimate(symbol, ctx.grid.length)
    refined = check_remainder_estimate(symbol, ctx.grid.length, refined=True)
    change = abs(refined["ratio"] - base["ratio"]) / max(base["ratio"], 1e-300)
    ok = change <= STABILITY_REL_CHANGE and base["ratio"] > 0
    if ctx.artifact("remainder_checks.csv"):
        rows = [("quantization", "remainder_estimate", base["lhs"],
                 base["rhs_seminorm"], base["ratio"], "base"),
                ("quantization", "remainder_estimate", refined["lhs"],
                 refined["rhs_seminorm"], refined["ratio"], "refined")]
        owio.write_check_csv(ctx.artifact("remainder_checks.csv"), rows)
    return CheckOutcome("remainder_stability", "PASS" if ok else "FAIL",
                        change, f"ratio change under box refinement, "
                        f"tol {STABILITY_REL_CHANGE:g}")


def _check_defect_stability(ctx: ScenarioContext) -> CheckOutcome:
    symbol = ctx.fixed_symbol.a1
    values = []
    for m in DEFECT_POINTS:
        g = Grid(ctx.grid.dim, m, ctx.grid.length)
        values.append(adjoint_defect_norm(symbol, 0.0, g, seed=ctx.seed).value)
    # a norm can be zero, and then the ratio is undefined: FAIL
    zero = [m for m, v in zip(DEFECT_POINTS, values) if v == 0.0]
    ratio = None if zero else max(values) / min(values)
    return CheckOutcome("defect_stability", "PASS" if not zero and
                        ratio <= DEFECT_MAX_RATIO else "FAIL",
                        ratio, f"defect norms {['%.4f' % v for v in values]} "
                        f"across M={list(DEFECT_POINTS)}" +
                        (f"; zero at M={zero}" if zero else ""))


# CHECKS: name -> (check, the ScenarioContext attributes it needs).  The build
# rejects a check whose needs the config does not meet; _NEEDS says why.
_NEEDS = {"fixed_symbol": "symbol.kind 'expr'",
          "symbol_1d": "symbol.kind 'expr' on a 1-D grid",
          "speed": "a constant-speed symbol a1 = c xi (no a0) on a 1-D grid",
          "rough_transport": "symbol.kind 'rough_transport'",
          "family": "a sweep section",
          "g_1d": "expression data g on a 1-D grid",
          "delta_node": "delta data g"}

_TRANSPORT = ("speed", "g_1d")
CHECKS = {
    "transport_exactness": (_check_transport_exactness, _TRANSPORT),
    "rk4_convergence": (_check_rk4_convergence, ("fixed_symbol",)),
    "unitarity": (_check_unitarity, ("fixed_symbol",)),
    "energy": (_check_energy, ("fixed_symbol",)),
    "case_variants": (_check_case_variants, ("fixed_symbol",)),
    "cascade_bounds": (_check_cascade_bounds, ("fixed_symbol",)),
    "log_type": (_check_log_type, ("rough_transport", "family")),
    "gronwall_fit": (_check_gronwall_fit, ("family",)),
    "moderateness": (_check_moderateness, ("family",)),
    "negligible": (_check_negligible, ("family",)),
    "association": (_check_association, ("family", "speed", "delta_node")),
    "ginf": (_check_ginf, ("family",)),
    "remainder_oracle": (_check_remainder_oracle, ("symbol_1d",)),
    "remainder_stability": (_check_remainder_stability, ("symbol_1d",)),
    "defect_stability": (_check_defect_stability, ("fixed_symbol",)),
}

# -- config schema ----------------------------------------------------------

def _requires(key: str, value: str, *names) -> dict:
    """Schema clause: an object whose `key` is `value` must have `names`."""
    return {"if": {"properties": {key: {"const": value}}, "required": [key]},
            "then": {"required": list(names)}}


_NUMBER = {"type": "number"}
_POSITIVE = {"type": "number", "exclusiveMinimum": 0}
_MULTI_INDEX = {"type": "array", "items": {"type": "integer", "minimum": 0}}
# A derivative order a run takes; capped, as its work grows with it.
_ORDER = {"type": "integer", "minimum": 0, "maximum": MAX_DIFF_ORDER}
# One that must be at least 1, as order 0 would sample or compare nothing.
_ORDER_1 = {**_ORDER, "minimum": 1}

# Expression nodes stay open here: each node kind reads its own fields, and
# expr.from_json refuses any other key at build.  Every other object schema
# closes with additionalProperties false, so a misspelled key is refused
# rather than replaced by its default.
_EXPR = {"type": "object",
         "properties": {"node": {"type": "string"}},
         "required": ["node"]}
_NUMBERS = {"type": "array", "items": _NUMBER}

# A symbol document by its declared order, which the semi-norms read.
_SYMBOL_EXPR = {
    order: {"type": "object",
            "properties": {"dim": {"type": "integer", "enum": [1, 2]},
                           "declared_order": {"type": "number",
                                              "const": order},
                           "expr": _EXPR},
            "required": ["dim", "declared_order", "expr"],
            "additionalProperties": False}
    for order in (0, 1)}

_ROUGH = {
    "type": "object",
    "properties": {
        "kind": {"enum": list(RoughCoefficient.KINDS)},
        "period": _POSITIVE,
        "breakpoints": _NUMBERS,
        "values": _NUMBERS,
        "modes": {"type": "array", "items": {"type": "integer"}},
        "coeffs": {"type": "array", "items": {**_NUMBERS, "minItems": 2,
                                              "maxItems": 2}},
    },
    "required": ["kind", "period"],
    "additionalProperties": False,
}

_DATA = {
    "type": "object",
    "properties": {
        "g": {"type": "object",
              "properties": {"kind": {"enum": ["zero", "delta", "expression"]},
                             "node": _MULTI_INDEX,
                             "expr": _EXPR},
              "required": ["kind"],
              "additionalProperties": False,
              "allOf": [_requires("kind", "delta", "node"),
                        _requires("kind", "expression", "expr")]},
        "builder": {"enum": ["fixed", "mollified", "scaled_exp",
                             "scaled_power", "oscillating"]},
        "power": _NUMBER,
        "f": {"type": "object",
              "properties": {
                  "kind": {"enum": ["zero", "separable"]},
                  "profile": {"type": "object", "properties": {
                      "power": {"type": "integer", "minimum": 0},
                      **dict.fromkeys(("amp_re", "amp_im", "freq", "phase"),
                                      _NUMBER)},
                      "additionalProperties": False},
                  "shape": _EXPR},
              "additionalProperties": False,
              **_requires("kind", "separable", "shape")},
    },
    "required": ["g"],
    "additionalProperties": False,
}

# Every check parameter, once; which check takes which is its signature.
_CHECK_PARAMS = {
    "max_order": _ORDER_1,
    "expect": {"type": "boolean"},
    "probes": {"type": "array", "items": _EXPR, "minItems": 1},
    "data": _DATA,
}

CONFIG_SCHEMA = {
    "$schema": "https://json-schema.org/draft/2020-12/schema",
    "type": "object",
    "properties": {
        "name": {"type": "string"},
        "description": {"type": "string"},
        "grid": {
            "type": "object",
            "properties": {
                "dim": {"type": "integer", "enum": [1, 2]},
                "points": {"type": "integer", "minimum": 2, "multipleOf": 2},
                "length": _POSITIVE,
            },
            "required": ["dim", "points", "length"],
            "additionalProperties": False,
        },
        "horizon": _POSITIVE,
        "dt": {"type": ["number", "null"], "exclusiveMinimum": 0},
        "seed": {"type": "integer", "minimum": 0},
        "symbol": {
            "type": "object",
            "properties": {
                "kind": {"enum": ["expr", "rough_transport"]},
                "a1": _SYMBOL_EXPR[1],
                "a0": {**_SYMBOL_EXPR[0], "type": ["object", "null"]},
                "x_independent_outside": {"type": ["number", "null"]},
                "speeds": {"type": "array", "items": _ROUGH, "minItems": 1},
                "zero_order": {**_ROUGH, "type": ["object", "null"]},
                "mollification_k": _ORDER_1,
            },
            "required": ["kind"],
            "additionalProperties": False,
            "allOf": [_requires("kind", "expr", "a1"),
                      _requires("kind", "rough_transport", "speeds")],
        },
        "data": _DATA,
        "sweep": {
            "type": "object",
            "properties": {
                "eps0": _POSITIVE,
                "eps_min": _POSITIVE,
                "ratio": {"type": "number", "exclusiveMinimum": 0,
                          "exclusiveMaximum": 1},
                # a fitted exponent and a trend need three points
                "count": {"type": "integer", "minimum": 3},
            },
            "required": ["eps0", "count"],
            "additionalProperties": False,
        },
        "orders": {"type": "array", "minItems": 1,
                   "items": {"type": "array", "minItems": 2, "maxItems": 2,
                             "prefixItems": [_ORDER, {"type": "array",
                                                      "items": _ORDER}]}},
        "checks": {
            "type": "array", "minItems": 1,
            "items": {"if": {"type": "string"},
                      "then": {"enum": list(CHECKS)},
                      "else": {"type": "object",
                               "properties": {"check": {"enum": list(CHECKS)},
                                              **_CHECK_PARAMS},
                               "required": ["check"],
                               "additionalProperties": False,
                               **_requires("check", "association", "probes")}},
        },
    },
    "required": ["name", "grid", "horizon", "seed", "symbol", "data",
                 "checks"],
    "additionalProperties": False,
}

# -- config validation --------------------------------------------------------
# validate_config interprets CONFIG_SCHEMA itself, with exactly the Draft
# 2020-12 keywords the schema uses; the tests referee it against jsonschema.
SCHEMA_KEYWORDS = frozenset({
    "$schema", "type", "enum", "const", "minimum", "maximum",
    "exclusiveMinimum", "exclusiveMaximum", "multipleOf", "required",
    "properties", "additionalProperties", "items", "prefixItems", "minItems",
    "maxItems", "allOf", "if", "then", "else"})

_TYPES = {"object": dict, "array": list, "string": str, "boolean": bool,
          "null": type(None), "number": numbers.Number}
# bound keyword: (the test a value fails it by, jsonschema's wording)
_BOUNDS = {"minimum": (operator.lt, "less than the minimum"),
           "maximum": (operator.gt, "greater than the maximum"),
           "exclusiveMinimum": (operator.le,
                                "less than or equal to the minimum"),
           "exclusiveMaximum": (operator.ge,
                                "greater than or equal to the maximum")}


def _is_type(value, kind: str) -> bool:
    # a bool is not a number; a float with a zero fraction is an integer
    if kind in ("number", "integer") and isinstance(value, bool):
        return False
    if kind == "integer":
        return isinstance(value, int) or \
            isinstance(value, float) and value.is_integer()
    return isinstance(value, _TYPES[kind])


def _equal(a, b) -> bool:
    """JSON equality of scalars: true is not 1."""
    return a == b and isinstance(a, bool) == isinstance(b, bool)


def _violations(value, schema: dict, path=()):
    """(path, message, type_matched) per violation of `schema` by `value`,
    worded and ordered as jsonschema's errors; type_matched: the failing
    schema names a type that `value` has."""
    kinds = schema.get("type", ())
    kinds = [kinds] if isinstance(kinds, str) else kinds
    matched = any(_is_type(value, k) for k in kinds)
    is_object, is_array = isinstance(value, dict), isinstance(value, list)
    is_number = _is_type(value, "number")
    for key, arg in schema.items():
        msg = None
        if key == "type" and not matched:
            msg = f"{value!r} is not of type {', '.join(map(repr, kinds))}"
        elif key == "enum" and not any(_equal(a, value) for a in arg):
            msg = f"{value!r} is not one of {arg!r}"
        elif key == "const" and not _equal(arg, value):
            msg = f"{arg!r} was expected"
        elif key in _BOUNDS and is_number and _BOUNDS[key][0](value, arg):
            msg = f"{value!r} is {_BOUNDS[key][1]} of {arg!r}"
        elif key == "multipleOf" and is_number and value % arg:
            msg = f"{value!r} is not a multiple of {arg}"   # integer steps
        elif key == "required" and is_object:
            for name in arg:
                if name not in value:
                    yield path, f"{name!r} is a required property", matched
        elif key == "properties" and is_object:
            for name, sub in arg.items():
                if name in value:
                    yield from _violations(value[name], sub, path + (name,))
        elif key == "additionalProperties" and is_object:   # false here
            extras = sorted(set(value) - set(schema.get("properties", ())))
            if extras:
                msg = (f"Additional properties are not allowed "
                       f"({', '.join(map(repr, extras))} "
                       f"{'was' if len(extras) == 1 else 'were'} unexpected)")
        elif key == "items" and is_array:
            for i in range(len(schema.get("prefixItems", ())), len(value)):
                yield from _violations(value[i], arg, path + (i,))
        elif key == "prefixItems" and is_array:
            for i, sub in enumerate(arg[:len(value)]):
                yield from _violations(value[i], sub, path + (i,))
        elif key == "minItems" and is_array and len(value) < arg:
            msg = f"{value!r} " + ("should be non-empty" if arg == 1
                                   else "is too short")
        elif key == "maxItems" and is_array and len(value) > arg:
            msg = f"{value!r} " + ("is expected to be empty" if arg == 0
                                   else "is too long")
        elif key == "allOf":
            for sub in arg:
                yield from _violations(value, sub, path)
        elif key == "if":
            branch = "else" if any(_violations(value, arg, path)) else "then"
            if branch in schema:
                yield from _violations(value, schema[branch], path)
        if msg is not None:
            yield path, msg, matched


def _non_finite(value, path=()):
    """(path, message, True) per NaN or infinity: JSON has no such number,
    but Python's json module reads them."""
    if isinstance(value, float) and not math.isfinite(value):
        yield path, f"{value!r} is not a finite number", True
    elif isinstance(value, (dict, list)):
        items = value.items() if isinstance(value, dict) else enumerate(value)
        for key, child in items:
            yield from _non_finite(child, path + (key,))


def _relevance(violation):
    """jsonschema's best_match order: the shallowest violation, then the
    last path among siblings, then one whose value misses the named type."""
    path, _, matched = violation
    return -len(path), path, not matched


def validate_config(cfg: dict) -> dict:
    """`cfg` itself; raises ConfigInvalid naming the violation jsonschema's
    best_match picks, or else the first non-finite number."""
    found = max(_violations(cfg, CONFIG_SCHEMA), key=_relevance,
                default=None) or next(_non_finite(cfg), None)
    if found is not None:
        path, msg, _ = found
        path = "/".join(map(str, path)) or "<root>"
        raise ConfigInvalid(f"config field {path!r}: {msg}")
    return cfg


# -- build ------------------------------------------------------------------

class ScenarioContext:
    """The built objects, bound checks and run caches of one scenario."""

    def __init__(self, cfg: dict, outdir=None):
        validate_config(cfg)
        self.outdir = Path(outdir) if outdir else None
        self._solve_cache = {}
        self._sweep_cache = {}
        try:
            self._build(cfg)
        except (ValueError, TypeError, KeyError, IndexError,
                OnewaveError) as err:
            raise ConfigInvalid(
                f"config does not build ({type(err).__name__}): {err}") from err

    def _build(self, cfg: dict):
        self.name = cfg["name"]
        self.seed = int(cfg["seed"])
        self.horizon = cfg["horizon"]
        gc = cfg["grid"]
        # the schema counts 10.0 as an integer; range() and numpy do not
        self.grid = Grid(int(gc["dim"]), int(gc["points"]), gc["length"])
        dim = self.grid.dim
        self.dt = cfg.get("dt")

        sc = cfg["symbol"]
        self.fixed_symbol = self.rough_transport = None
        self.mollification_k = None
        if sc["kind"] == "expr":
            self.fixed_symbol = HyperbolicSymbol(
                a1=SymbolExpr.from_json(sc["a1"]),
                a0=SymbolExpr.from_json(sc["a0"]) if sc.get("a0") else None,
                x_independent_outside=sc.get("x_independent_outside"))
            origin = (np.zeros(1),) * dim     # IndexError for an axis >= dim
            self.fixed_symbol.full().root.eval(0.0, origin, origin)
            # the verdicts take a1 real: case c, the energy rule, the speed
            box, a1 = _grid_box(self.grid), self.fixed_symbol.a1
            if not all(check_real_valued(a1, box, t) for t in
                       self.fixed_symbol.sample_times(self.horizon)):
                raise ValueError("symbol a1 is not real-valued on the grid's "
                                 "sample box")
        else:
            zero = sc.get("zero_order")
            self.rough_transport = RoughTransport(
                speeds=tuple(RoughCoefficient.from_json(r) for r in sc["speeds"]),
                zero_order=RoughCoefficient.from_json(zero) if zero else None,
                x_independent_outside=sc.get("x_independent_outside"))
            self.mollification_k = int(sc.get("mollification_k", 1))
        symbol_dim = (self.fixed_symbol or self.rough_transport).dim
        if symbol_dim != dim:
            raise ValueError(f"symbol dimension {symbol_dim} != grid.dim {dim}")
        self.speed = (self.fixed_symbol.transport_speed(self.grid)
                      if self.fixed_symbol else None)
        # the remainder quadrature is 1-D
        self.symbol_1d = self.fixed_symbol if dim == 1 else None

        self.eps_grid = self.family = None
        sw = cfg.get("sweep")
        if sw:
            count = int(sw["count"])
            if "ratio" in sw:
                self.eps_grid = [sw["eps0"] * sw["ratio"] ** i for i in range(count)]
            else:
                self.eps_grid = list(np.geomspace(sw["eps0"], sw["eps_min"], count))
            if self.rough_transport is not None:
                self.family = regularized_family(
                    self.rough_transport, self.mollification_k, self.eps_grid)
            else:
                fixed = self.fixed_symbol
                self.family = GenSymbolFamily(lambda eps: fixed, self.eps_grid)
        self.orders = tuple((int(d), tuple(int(a) for a in alpha))
                            for d, alpha in cfg.get("orders", [[0, [0] * dim]]))
        if any(len(alpha) != dim for _, alpha in self.orders):
            raise ValueError("orders multi-index length must equal grid.dim")

        self.data_builder = self._data_builder(cfg["data"])
        self.initial_data = self.data_builder.g
        self.forcing = self.data_builder.forcing
        g = cfg["data"]["g"]
        self.delta_node = (tuple(map(int, g["node"]))
                           if g["kind"] == "delta" else None)
        self.g_1d = (_x_function(g["expr"], 1)
                     if g["kind"] == "expression" and dim == 1 else None)
        self.checks = [self._bind(entry) for entry in cfg["checks"]]
        # the sweep's cascade serves only moderateness's predicted exponents,
        # one per tracked d = 0 order
        self.cascade_max_order = max(
            (sum(alpha) for d, alpha in self.orders if d == 0), default=0) \
            if any(c.func is _check_moderateness for c in self.checks) else 0

    def _data_builder(self, dc: dict) -> DataBuilder:
        def on_grid(expr_json) -> GridFunction:
            return GridFunction(self.grid, _x_function(
                expr_json, self.grid.dim)(*self.grid.x_mesh())).check_finite()

        g, fspec = dc["g"], dc.get("f") or {}
        if g["kind"] == "delta":    # the schema counts 64.0 as an integer
            initial = GridFunction.delta(self.grid, tuple(map(int, g["node"])))
        elif g["kind"] == "expression":
            initial = on_grid(g["expr"])
        else:
            initial = GridFunction.zeros(self.grid)
        forcing = Forcing.zero(self.grid)
        if fspec.get("kind") == "separable":
            prof = fspec.get("profile", {})
            profile = TimeProfile(
                amp=complex(prof.get("amp_re", 1.0), prof.get("amp_im", 0.0)),
                power=int(prof.get("power", 0)),
                freq=float(prof.get("freq", 0.0)),
                phase=float(prof.get("phase", 0.0)))
            forcing = Forcing.separable(profile, on_grid(fspec["shape"]))
        builder = DataBuilder(
            kind=dc.get("builder", "fixed"), g=initial, forcing=forcing,
            power=float(dc.get("power", 1.0)))
        if self.eps_grid:   # the smallest eps has the finest data scale
            builder.build(min(self.eps_grid), self.grid)
        return builder

    def _bind(self, entry):
        params = dict(entry) if isinstance(entry, dict) else {"check": entry}
        name = params.pop("check")
        run, needs = CHECKS[name]
        for need in needs:
            if getattr(self, need) is None:
                raise ValueError(f"check {name!r} needs {_NEEDS[need]}")
        # InsufficientSweep and InsufficientOrders, before any sweep runs
        if name in ("log_type", "negligible", "ginf"):
            self.family.require_regression_sweep()
        if name == "ginf":
            require_ginf_orders(self.orders)
        if "data" in params:
            params["data"] = self._data_builder(params["data"])
        if "probes" in params:
            params["probes"] = [_x_function(pj, self.grid.dim)
                                for pj in params["probes"]]
            for phi in params["probes"]:    # IndexError for an axis >= dim
                GridFunction(self.grid, phi(*self.grid.x_mesh())).check_finite()
        # TypeError for a parameter this check does not take
        inspect.signature(run).bind(self, **params)
        return functools.partial(run, **params)     # called with the context

    # -- cached runs --------------------------------------------------------
    def solve(self, dt=None):
        """(problem, result) of the fixed-symbol solve, run once per
        effective dt (None: the config's dt, or the automatic step)."""
        dt = self.dt if dt is None else dt
        if dt not in self._solve_cache:
            problem = CauchyProblem(symbol=self.fixed_symbol,
                                    initial=self.initial_data,
                                    horizon=self.horizon, forcing=self.forcing)
            self._solve_cache[dt] = (
                problem, solve_fixed_eps(problem, dt, seed=self.seed))
        return self._solve_cache[dt]

    def sweep(self, data: DataBuilder | None = None):
        """(plan, report) of the eps sweep, run once per data."""
        data = data or self.data_builder
        if id(data) not in self._sweep_cache:
            plan = SweepPlan(
                family=self.family, data=data, grid=self.grid,
                horizon=self.horizon, orders=self.orders,
                dt=self.dt, seed=self.seed,
                cascade_max_order=self.cascade_max_order)
            self._sweep_cache[id(data)] = (plan, run_sweep(plan))
        return self._sweep_cache[id(data)]

    def artifact(self, name: str):
        if self.outdir is None:
            return None
        return self.outdir / f"{self.name}_{name}"


def run_scenario(cfg: dict, outdir=None, echo=print):
    """Build the scenario, then run its checks; returns (all_ok, outcomes)."""
    ctx = ScenarioContext(cfg, outdir=outdir)
    outcomes = []
    for check in ctx.checks:
        outcome = check(ctx)
        outcomes.append(outcome)
        echo(outcome.line())
    if ctx.outdir is not None:
        owio.write_json(ctx.artifact("summary.json"), {
            "scenario": ctx.name, "outcomes": [asdict(o) for o in outcomes]})
    return all(o.ok for o in outcomes), outcomes
