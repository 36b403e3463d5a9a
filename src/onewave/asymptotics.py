"""Epsilon sweeps and asymptotic classification of solution families.

A sweep solves the Cauchy problem for every eps on a geometric grid (the
members advance as one stack through cauchy.solve_stack, and members that
share one result are post-processed once), tracks max_t ||d_t^d d_x^alpha
u_eps(t)|| for requested orders on the solves' snapshot spectra (d_x^alpha
a multiply, each norm by Parseval), and fits growth exponents against
log(1/eps).  Verdicts (moderate, negligible, regular, slow-scale,
associated) are finite-sweep regressions against the fixed criteria of
onewave.config; reports never claim asymptotic proof.

t-derivatives are obtained from the equation itself (substituted
recursively), never by finite differencing the trajectory, so dt-order error
cannot contaminate the fitted exponents.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .cauchy import (CauchyProblem, Forcing, SolveResult, check_energy_estimate,
                     derivative_cascade, solve_stack)
from .config import (ASSOCIATION_TREND_SLACK, GINF_ORDER_CAP, GINF_SLACK,
                     MODERATE_EXPONENT_CAP, NEGLIGIBLE_SLACK, Q_MAX)
from .errors import GridMismatch, InsufficientOrders, OnewaveError, TooLarge
from .grid import Grid, GridFunction
from .quantization import DENSE_GUARD, PeriodicOperator
from .regularization import embed_data
from .symbols import (GenSymbolFamily, SampleBox, classify_log_type,
                      classify_slow_scale, log_fit, multi_indices)

__all__ = [
    "DataBuilder", "SweepPlan", "SweepReport", "run_sweep",
    "check_negligible", "check_association", "check_ginf", "fit_exponent",
]


@dataclass
class DataBuilder:
    """Map eps -> (g_eps, f_eps) for the supported data families.

    kinds:
      fixed        eps-independent g (and optional forcing)
      mollified    g_eps = embed_data(g, eps)
      scaled       g_eps = scale(eps) * g, scale in {exp_neg_inv, power}
      oscillating  g_eps = g * cos(round((1/eps)^(1/2)) * 2 pi x / L); a
                   carrier mode at or above the Nyquist mode M/2 is refused
    """

    kind: str = "fixed"
    g: GridFunction | None = None
    forcing: Forcing | None = None
    power: float = 1.0

    def build(self, eps: float, grid: Grid):
        if self.g is None:
            g = GridFunction.zeros(grid)
        elif self.g.grid != grid:
            raise GridMismatch("data builder grid mismatch")
        else:
            g = self.g
        f = self.forcing or Forcing.zero(grid)
        if self.kind == "fixed":
            return g.copy(), f
        if self.kind == "mollified":
            return embed_data(g, eps), f
        if self.kind == "scaled_exp":
            scale = math.exp(-1.0 / eps) if 1.0 / eps < 700 else 0.0
            return scale * g, f
        if self.kind == "scaled_power":
            return (eps ** self.power) * g, f
        if self.kind == "oscillating":
            k_eps = max(1, int(round((1.0 / eps) ** 0.5)))
            if 2 * k_eps >= grid.points:
                raise OnewaveError(
                    f"oscillating carrier mode {k_eps} at eps={eps:.3g} "
                    f"reaches the Nyquist mode {grid.points // 2}")
            mesh = grid.x_mesh()
            carrier = np.cos(k_eps * 2.0 * np.pi * mesh[0] / grid.length)
            return GridFunction(grid, g.values * carrier), f
        raise ValueError(f"unknown data builder kind {self.kind!r}")


@dataclass
class SweepPlan:
    family: GenSymbolFamily
    data: DataBuilder
    grid: Grid
    horizon: float
    orders: tuple = ((0, (0,)),)   # (d, alpha), len(alpha) == grid.dim
    dt: float | None = None     # None: the automatic step
    seed: int = 0
    cascade_max_order: int = 0


def fit_exponent(eps, values):
    """Slope of log(value) against log(1/eps): value ~ eps^(-N_hat).

    Returns (N_hat, stderr, rel_residual); vanishing sequences report
    N_hat None.
    """
    eps = np.asarray(eps, dtype=float)
    values = np.asarray(values, dtype=float)
    mask = values > 1e-280
    if mask.sum() < 3:
        return None, 0.0, 0.0
    n_hat, _, resid, stderr = log_fit(eps[mask], np.log(values[mask]))
    return n_hat, stderr, resid


def _t_derivative_norms(problem: CauchyProblem, result: SolveResult, orders):
    """max over the snapshots of ||d_t^d d_x^alpha u|| per (d, alpha) in
    ``orders``, via the equation, over the stack of snapshot spectra:

    d_t^d u = -i sum_i C(d-1, i) op(d_t^i a) d_t^(d-1-i) u + d_t^(d-1) f.

    Every layer is kept as spectra: one forward transform for each d >= 1.
    """
    full, forcing, grid = problem.symbol.full(), problem.forcing, problem.grid
    d_max = max(d for d, _ in orders)
    ts = result.snap_times
    layers = [result.spectra]
    # d_t^i a = 0 for i >= 1 when a does not depend on t
    ops = [PeriodicOperator(full.derivative(i, None, None), grid)
           for i in range(d_max if full.depends_t() else min(d_max, 1))]
    for d in range(1, d_max + 1):
        acc = np.zeros(layers[0].shape, dtype=complex)
        for i, op in enumerate(ops[:d]):
            acc -= 1j * math.comb(d - 1, i) * op.apply_spectrum(
                ts, layers[d - 1 - i])
        if not forcing.is_zero:
            acc += forcing.values(ts)
        forcing = forcing.t_derivative()
        layers.append(np.fft.fftn(acc, grid.shape, grid.axes, out=acc))
    return {(d, alpha): max(0.0, *np.sqrt(grid.spectral_norm_sq(
        grid.derivative_spectra(layers[d], alpha))).tolist())
        for d, alpha in orders}


@dataclass
class SweepReport:
    eps: list
    orders: list
    norms: dict
    fits: dict
    c_measured: list
    c_log_fit: dict
    energy_ok: list
    predicted_exponents: dict
    incomplete: dict
    finals: list            # u_eps(T) per completed eps; not serialized

    def to_json(self) -> dict:
        def keyed(d):
            # str keys: json would sort the float keys of `incomplete` by
            # value, and cannot write the tuple keys of the others
            return {str(k): v for k, v in d.items()}

        return {
            "eps": self.eps,
            "orders": [[d, list(alpha)] for d, alpha in self.orders],
            "norms": keyed(self.norms),
            "fits": keyed(self.fits),
            "c_measured": self.c_measured,
            "c_log_fit": self.c_log_fit,
            "energy_ok": self.energy_ok,
            "predicted_exponents": keyed(self.predicted_exponents),
            "incomplete": keyed(self.incomplete),
        }


def run_sweep(plan: SweepPlan) -> SweepReport:
    """Solve every eps, track derivative norms, fit exponents, and
    cross-check each run against its own Gronwall bound.  Build every
    member, solve them as one stack, then post-process each eps in order;
    an OnewaveError in any phase is recorded for its eps, save TooLarge,
    which refuses the sweep."""
    orders = list(plan.orders)
    eps_list = list(plan.family.eps_grid)
    # the members share a solve's byte cap, and each holds at least its
    # data and two snapshots
    least = 3 * 16 * plan.grid.size * len(eps_list)
    if least > 16 * DENSE_GUARD ** 2:
        raise TooLarge(
            f"a sweep of {len(eps_list)} members holds at least {least:.3g} B "
            f"(each its data and two snapshots of {plan.grid.size} nodes), "
            f"above the cap of {DENSE_GUARD ** 2} complex entries")
    failed, problems, results = {}, {}, {}
    for eps in eps_list:
        try:
            symbol = plan.family.member(eps)
            g_eps, f_eps = plan.data.build(eps, plan.grid)
            problems[eps] = CauchyProblem(symbol=symbol, initial=g_eps,
                                          horizon=plan.horizon, forcing=f_eps)
        except OnewaveError as err:
            failed[eps] = err
    solved = solve_stack(list(problems.values()), plan.dt, seed=plan.seed)
    for eps, result in zip(problems, solved):
        if isinstance(result, OnewaveError):
            failed[eps] = result
            continue
        shared = [e for e in results if results[e][1] is result]
        if shared:      # identical problems: post-processed once
            results[eps] = results[shared[0]]
            continue
        problem = problems[eps]
        try:
            norms = _t_derivative_norms(problem, result, orders)
            energy = check_energy_estimate(result.ledger)
            cascade = {}
            if plan.cascade_max_order > 0:
                cascade = derivative_cascade(problem, result,
                                             plan.cascade_max_order)
            results[eps] = norms, result, energy, cascade
        except OnewaveError as err:
            failed[eps] = err
    incomplete = {eps: f"{type(failed[eps]).__name__}: {failed[eps]}"
                  for eps in eps_list if eps in failed}

    done = [eps for eps in eps_list if eps in results]
    norms = {order: [results[eps][0][order] for eps in done]
             for order in orders}
    fits = {}
    for order in orders:
        n_hat, stderr, resid = fit_exponent(done, norms[order])
        fits[order] = {"N_hat": n_hat, "stderr": stderr, "residual": resid,
                       "moderate": (n_hat is None or
                                    n_hat <= MODERATE_EXPONENT_CAP)}
    c_measured = [results[eps][1].ledger.c_measured for eps in done]
    c_log_fit = {}
    if len(done) >= 3:
        c_log_fit = dict(zip(("coeff", "intercept", "residual"),
                             log_fit(done, c_measured)[:3]))
    energy_ok = [bool(results[eps][2]["pointwise_ok"] and
                      results[eps][2]["gronwall_ok"]) for eps in done]

    # alpha = 0 reads the ledger's Gronwall bound, so it needs no cascade
    predicted = {}
    for alpha in multi_indices(plan.grid.dim, plan.cascade_max_order):
        if sum(alpha) == 0:
            # base Gronwall bound in norm terms
            vals = [math.sqrt(results[eps][1].ledger.gronwall_bound()[-1])
                    for eps in done]
        else:
            vals = [math.sqrt(results[eps][3][alpha]["bound"][-1])
                    for eps in done]
        slope, _, _ = fit_exponent(done, vals)
        predicted[alpha] = slope

    return SweepReport(
        eps=done, orders=orders, norms=norms, fits=fits,
        c_measured=c_measured, c_log_fit=c_log_fit,
        energy_ok=energy_ok, predicted_exponents=predicted, incomplete=incomplete,
        finals=[results[eps][1].final() for eps in done])


def check_negligible(plan: SweepPlan, report: SweepReport) -> dict:
    """q-decay check for superpolynomially small data on the plan's sweep.

    Normalizes at the largest completed eps: for each q <= Q_MAX the
    sequence max_t ||u_eps|| must stay below (eps/eps_0)^q times the first
    value times NEGLIGIBLE_SLACK, i.e. decay at least as fast as every
    tested power along the sweep.  A sweep with no completed
    eps point passes no q.
    """
    plan.family.require_regression_sweep()
    order = report.orders[0]
    vals = np.array(report.norms[order])
    eps = np.array(report.eps)
    base = vals[0] if vals.size else 0.0
    per_q = {}
    max_passed = -1
    for q in range(Q_MAX + 1):
        if base < 1e-280:
            ok = bool(np.all(vals < 1e-280 * NEGLIGIBLE_SLACK + 1e-300))
            ok = ok or bool(np.all(vals <= 1e-250))
        else:
            bound = base * (eps / eps[0]) ** q * NEGLIGIBLE_SLACK
            ok = bool(np.all(vals <= bound + 1e-300))
        per_q[q] = ok = ok and vals.size > 0
        if ok and max_passed == q - 1:
            max_passed = q
    return {"is_negligible": max_passed >= Q_MAX, "max_passed_q": max_passed,
            "per_q": per_q, "norms": vals.tolist(), "eps": eps.tolist()}


def check_association(grid: Grid, report: SweepReport, probes,
                      reference) -> dict:
    """Weak-pairing residuals of the sweep's u_eps(T) on ``grid`` against an
    exact reference.

    ``probes`` are callables phi(x mesh arrays); ``reference`` is a callable
    probe -> the exact pairing value of the eps -> 0 limit.  Residuals must
    be non-increasing over the last three completed sweep points (up to
    ASSOCIATION_TREND_SLACK).
    """
    def pairing(u: GridFunction, phi_vals: np.ndarray) -> complex:
        return complex(grid.cell_volume *
                       np.sum(u.values * np.conjugate(phi_vals)))

    phis = [np.asarray(phi(*grid.x_mesh()), dtype=complex) for phi in probes]
    ref_pairings = [complex(reference(phi)) for phi in probes]
    residuals = np.array([[abs(pairing(final, pv) - rp)
                           for pv, rp in zip(phis, ref_pairings)]
                          for final in report.finals])
    tail = residuals[-3:]
    monotone = bool(np.all(np.diff(tail, axis=0) <= ASSOCIATION_TREND_SLACK))
    return {
        "eps": report.eps,
        "residuals": residuals.tolist(),
        "monotone_tail": monotone,
        "terminal_residuals": residuals[-1].tolist() if len(residuals) else [],
    }


def require_ginf_orders(orders):
    """Raise InsufficientOrders unless ``orders`` holds the base order
    (0, 0), whose fit gives check_ginf's p_hat, and some (d, alpha) reaches
    d + |alpha| = GINF_ORDER_CAP, the highest order its conclusion reads."""
    if (0, (0,) * len(orders[0][1])) not in orders:
        raise InsufficientOrders("orders must hold the base order (0, 0)")
    if not any(d + sum(alpha) >= GINF_ORDER_CAP for d, alpha in orders):
        raise InsufficientOrders(
            f"orders must reach d + |alpha| = {GINF_ORDER_CAP}")


def check_ginf(plan: SweepPlan, report: SweepReport) -> dict:
    """Uniform-exponent regularity check of the plan's sweep report.

    Gate: the symbol family must classify as slow scale with log-type
    growth; then is_ginf requires every tracked exponent to stay within
    p_hat + GINF_SLACK where p_hat = N_hat(0,0) + 1.  The gate can pass while the
    conclusion fails and vice versa; both facts are reported separately.  A
    report with no completed eps point observes no conclusion.
    """
    dim = plan.grid.dim
    require_ginf_orders(report.orders)
    covered = [o for o in report.orders
               if o[0] + sum(o[1]) <= GINF_ORDER_CAP]
    box = SampleBox(dim, plan.grid.length, x_count=33,
                    xi_max=min(plan.grid.max_abs_xi(), 256.0),
                    xi_uniform_count=9, t_max=plan.horizon)
    gate_slow = classify_slow_scale(plan.family, 0, 1, 1, box)
    gate_log = classify_log_type(plan.family, 0, 1, box)
    gate_passed = gate_slow["is_slow_scale"] and gate_log["is_log_type"]
    base = report.fits[(0, (0,) * dim)]["N_hat"]
    base = 0.0 if base is None else base
    p_hat = base + 1.0
    worst = None
    conclusion = bool(report.eps)
    for order in covered:
        n_hat = report.fits[order]["N_hat"]
        if n_hat is None:
            continue
        worst = n_hat if worst is None else max(worst, n_hat)
        if n_hat > p_hat + GINF_SLACK:
            conclusion = False
    out = {
        "status": "ok" if gate_passed else "not_applicable",
        "gate_passed": gate_passed,
        "is_ginf": bool(gate_passed and conclusion),
        "conclusion_observed": bool(conclusion),
        "p_hat": p_hat,
        "max_tracked_exponent": worst,
    }
    return out
