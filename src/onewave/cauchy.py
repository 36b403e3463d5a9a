"""Fixed-eps Cauchy solves: spectral in space, Lawson RK4 in time.

du/dt = -i a(t,x,D_x) u + f(t),  u(0) = g  on the periodic grid, with an
energy ledger recording ||u(t)||^2 (by Parseval), ||f(t)||^2 and the
measured skew-defect and order-0 operator norms.  The state is a spectrum.
A t-free separable symbol is the Fourier multiplier d plus the quantized
rest R (quantization's _Terms.split): the integrating-factor (Lawson) step
takes d exactly, by diagonal multiplies, and RK4 only R, so the step obeys
dt * sup|R| <= CFL margin (imaginary-axis stability of RK4), read from the
tables; a forced member, whose stages rotate f by e^(-i d s), reads sup|a|,
and a t-dependent or dense one takes d = 0 (R = a) in the same loop.  The
pointwise energy inequality is checked with centered differences plus a
slack term absorbing time-discretization error.  The semi-norm constant
belongs to the symbol: seminorm_constant computes it for the verdicts that
compare against it.

One stepper, solve_stack, advances the members of a stack on one grid
(the eps members of a scenario's sweeps) as rows of one PeriodicOperator
per table layout, each with its own dt and step count, after one band-norm
iteration over the stack; solve_fixed_eps is one member.  Identical
problems step as one row, and zero data with zero forcing is not stepped.
A SolveResult keeps the loop's snapshot spectra, half spectra for a real
solution; its grid values are derived from them.  derivative_cascade
builds each op(d_x^beta a) once and applies it to the snapshot spectra as
one stack.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .config import (CALIBRATED_C, CFL_MARGIN, CFL_SAFETY, ENERGY_SLACK,
                     INSTABILITY_FACTOR, MAX_STEPS, TRAJECTORY_STRIDE)
from .errors import (GridMismatch, NonFinite, OnewaveError, TooLarge,
                     UnstableStep)
from .grid import Grid, GridFunction
from .quantization import (DENSE_GUARD, PeriodicOperator, _distinct,
                           _sum_terms, _synth, adjoint_defect_norms,
                           operator_norms, stacks)
from .symbols import HyperbolicSymbol, SampleBox, multi_indices, seminorm_Q

__all__ = [
    "TimeProfile", "Forcing", "CauchyProblem", "step_size", "EnergyLedger",
    "SolveResult", "solve_fixed_eps", "solve_stack", "check_energy_estimate",
    "check_case_variants", "derivative_cascade",
]


@dataclass(frozen=True)
class TimeProfile:
    """amp * t^power * cos(freq*t + phase); closed under differentiation."""

    amp: complex = 1.0
    power: int = 0
    freq: float = 0.0
    phase: float = 0.0

    def value(self, t: float) -> complex:
        return self.amp * t ** self.power * math.cos(self.freq * t + self.phase)

    def derivative(self) -> list:
        out = []
        if self.power > 0:
            out.append(TimeProfile(self.amp * self.power, self.power - 1,
                                   self.freq, self.phase))
        if self.freq != 0.0:
            out.append(TimeProfile(self.amp * self.freq, self.power,
                                   self.freq, self.phase + math.pi / 2.0))
        return out


class Forcing:
    """Finite sum of separable source terms profile_m(t) * F_m(x)."""

    def __init__(self, grid: Grid, terms=()):
        self.grid = grid
        self.terms = [(prof, np.asarray(vals, dtype=complex)) for prof, vals in terms]
        for _, vals in self.terms:
            if vals.shape != grid.shape:
                raise GridMismatch("forcing term shape mismatch")

    @staticmethod
    def zero(grid: Grid) -> "Forcing":
        return Forcing(grid, ())

    @staticmethod
    def separable(profile: TimeProfile, shape: GridFunction) -> "Forcing":
        return Forcing(shape.grid, [(profile, shape.values)])

    @property
    def is_zero(self) -> bool:
        return not self.terms

    def values(self, ts) -> np.ndarray:
        """f at each time of ts, stacked as (len(ts), *grid.shape)."""
        out = np.zeros((len(ts),) + self.grid.shape, dtype=complex)
        for prof, vals in self.terms:
            out += np.array([prof.value(t) for t in ts]).reshape(
                (-1,) + (1,) * self.grid.dim) * vals
        return out

    def value(self, t: float) -> np.ndarray:
        return self.values([t])[0]

    def norm(self, t: float) -> float:
        return float(np.sqrt(self.grid.norm_sq(self.value(t))))

    def t_derivative(self) -> "Forcing":
        new_terms = []
        for prof, vals in self.terms:
            for dp in prof.derivative():
                new_terms.append((dp, vals))
        return Forcing(self.grid, new_terms)

    def x_derivative(self, alpha) -> "Forcing":
        new_terms = [(prof, self.grid.spectral_derivative(vals, alpha))
                     for prof, vals in self.terms]
        return Forcing(self.grid, new_terms)


@dataclass
class CauchyProblem:
    symbol: HyperbolicSymbol
    initial: GridFunction
    horizon: float
    forcing: Forcing | None = None

    def __post_init__(self):
        if self.horizon <= 0:
            raise ValueError("horizon must be positive")
        if self.forcing is None:
            self.forcing = Forcing.zero(self.initial.grid)
        if self.forcing.grid != self.initial.grid:
            raise GridMismatch("forcing and initial data on different grids")
        if self.symbol.dim != self.initial.grid.dim:
            raise GridMismatch("symbol dimension does not match the grid")

    @property
    def grid(self) -> Grid:
        return self.initial.grid


def step_size(dt: float | None, horizon: float, symbol_sup: float) -> float:
    """The step that divides ``horizon`` evenly: an explicit ``dt`` must
    satisfy dt * sup <= CFL_MARGIN; None steps automatically at
    CFL_SAFETY * CFL_MARGIN / sup, for ``symbol_sup`` the sup the RK4
    stages see: sup|R|, or sup|a| if forced, t-dependent or dense."""
    if not math.isfinite(symbol_sup):
        raise NonFinite(f"sup|R| or sup|a| = {symbol_sup} is not finite")
    if dt is None:
        dt = CFL_SAFETY * CFL_MARGIN / max(symbol_sup, 1e-30)
    elif symbol_sup * dt > CFL_MARGIN * (1 + 1e-12):
        raise UnstableStep(f"dt*sup = {dt * symbol_sup:.3f} exceeds margin "
                           f"{CFL_MARGIN} (sup|R|, or sup|a| if forced, "
                           "t-dependent or dense)")
    if not math.isfinite(horizon / dt):
        raise TooLarge(f"horizon {horizon:g} over dt {dt:.3g} is no finite "
                       "step count")
    steps = max(1, math.ceil(horizon / dt - 1e-12))
    return horizon / steps


def case_orders(dim: int, case: str) -> dict:
    """Semi-norm orders (k', l') for a0 and (k, l) for a1 per estimate case."""
    half = dim // 2 + 1
    if case == "a":
        return {"k_prime": half, "l_prime": half,
                "k": 3 * half, "l": 2 * (dim + 2)}
    if case == "b":
        return {"k_prime": 0, "l_prime": dim + 1, "k": 1, "l": dim + 2}
    raise ValueError(f"unknown case {case!r}")


@dataclass
class EnergyLedger:
    times: np.ndarray
    u_norm_sq: np.ndarray
    f_norm_sq: np.ndarray
    skew_norm: float
    c_measured: float       # the measured Gronwall constant 1 + skew + 2*a0

    def forcing_integral(self) -> float:
        """Trapezoid of ||f(t)||^2 over the full horizon."""
        return float(np.trapezoid(self.f_norm_sq, self.times))

    def gronwall_bound(self, c: float | None = None) -> np.ndarray:
        c = self.c_measured if c is None else c
        return _gronwall(self.u_norm_sq[0] + self.forcing_integral(), c,
                         self.times)


@dataclass
class SolveResult:
    """A solve's ledger and its snapshots: spectra[k] is fftn(u) at
    snap_times[k], one read-only array (n_snap, *grid.shape) that the
    stepping loop fills, or for a member of the half path rfftn(u), its
    last axis M/2 + 1 wide (Grid.spectral_norm_sq); the grid values are
    derived from it."""

    grid: Grid
    times: np.ndarray
    snap_times: np.ndarray
    spectra: np.ndarray
    ledger: EnergyLedger
    dt: float

    @property
    def states(self) -> np.ndarray:
        """The snapshots' grid values, read-only, transformed on each read."""
        return _read_only(self.grid.inverse(self.spectra))

    def final(self) -> GridFunction:
        """u(T), read-only, from the last spectrum alone."""
        return GridFunction(self.grid, _read_only(self.grid.inverse(
            self.spectra[-1])))


def _gronwall(base: float, c: float, times) -> np.ndarray:
    """base * e^(c t) at each of ``times``; +inf, without a warning, where
    e^(c t) overflows and base > 0: a bound past the float range is true
    but vacuous, not an error."""
    with np.errstate(over="ignore"):
        growth = np.exp(c * np.asarray(times))
    return base * growth if base else np.zeros_like(growth)


def _read_only(values: np.ndarray) -> np.ndarray:
    values.flags.writeable = False
    return values


def _upper_end(est) -> float:
    """What a Gronwall constant reads of a NormEstimate: its certified
    upper end where one is known, else its Rayleigh estimate."""
    return est.value if est.upper is None else est.upper


def _measure_norms(problems, grid: Grid, seed) -> list:
    """Per problem, (skew, Gronwall constant 1 + skew + 2 a0 norm): the max
    over its symbol's sample times of the upper end (_upper_end) of its a1
    skew-defect norm and of its a0 norm, each estimator run once over the
    stack of all problems and sample times."""
    syms = [p.symbol for p in problems]
    pairs = [(i, t) for i, p in enumerate(problems)
             for t in p.symbol.sample_times(p.horizon)]
    norms = {"a1": [0.0] * len(syms), "a0": [0.0] * len(syms)}
    for part, estimate in (("a1", adjoint_defect_norms),
                           ("a0", operator_norms)):
        used = [(i, t) for i, t in pairs
                if getattr(syms[i], part) is not None]
        for (i, _), est in zip(used, estimate(
                [(getattr(syms[i], part), t) for i, t in used], grid, seed)):
            norms[part][i] = max(norms[part][i], _upper_end(est))
    return [(skew, 1.0 + skew + 2.0 * a0n)
            for skew, a0n in zip(norms["a1"], norms["a0"])]


def seminorm_constant(symbol: HyperbolicSymbol, grid: Grid, horizon: float,
                      case: str = "a") -> float:
    """C * (1 + Q^0_{0,k',l'}(a0) + Q^1_{0,k,l}(a1)) at the orders of
    estimate case "a" or "b"; the a0 term is 0 without an a0."""
    dim = symbol.dim
    orders = case_orders(dim, case)
    C = CALIBRATED_C[dim]
    # 2-D sampling thins the x grid: the derivative-order set is ~16x larger
    # and the sampled sup is a lower bound either way.
    box = SampleBox(dim, grid.length, x_count=129 if dim == 1 else 17,
                    xi_max=grid.max_abs_xi(),
                    xi_uniform_count=33 if dim == 1 else 9, t_max=horizon)
    q1 = seminorm_Q(symbol.a1, 0, orders["k"], orders["l"], box)
    q0 = 0.0
    if symbol.a0 is not None:
        q0 = seminorm_Q(symbol.a0, 0, orders["k_prime"], orders["l_prime"],
                        box)
    return C * (1.0 + q0 + q1)


def solve_fixed_eps(problem: CauchyProblem, dt: float | None = None,
                    seed=0) -> SolveResult:
    """The one-member solve_stack; raises the error that stopped it."""
    [result] = solve_stack([problem], dt, seed)
    if isinstance(result, OnewaveError):
        raise result
    return result


def solve_stack(problems, dt: float | None = None, seed=0) -> list:
    """Lawson RK4 with full energy bookkeeping for problems on one grid;
    per problem, its SolveResult or the OnewaveError that stopped it.  The
    members share one solve's caps, on steps and on the bytes of ledgers
    and snapshots: past either, by one member or by all of them, the call
    raises TooLarge.  The
    members of one table layout step as one stack, each with its step from
    ``dt`` and its own sup (step_size), and leave it after their last
    step, so each member's arithmetic is its one-member solve's.  A member
    aborts with UnstableStep when its norm exceeds INSTABILITY_FACTOR times
    its Gronwall bound.
    Identical problems (one symbol and forcing object and horizon, bitwise
    equal data) step as one member and share its read-only result; zero
    data with zero forcing stays exactly zero, so it is not stepped, and
    its ledger is filled at once.  The members of one path (_Member.path,
    chosen per member) step together.
    """
    grid = problems[0].grid if problems else None
    if any(p.grid != grid for p in problems):
        raise GridMismatch("stacked problems on different grids")
    once, slots = _distinct(problems, lambda p: (
        id(p.symbol), p.horizon, None if p.forcing.is_zero else id(p.forcing),
        p.initial.values.astype(complex).tobytes()))
    out = [None] * len(once)
    size = steps = 0        # the members' bytes and steps, under one cap each
    for rows, stack in stacks([p.symbol.full() for p in once], grid):
        members = []
        for k, i in enumerate(rows):
            try:
                members.append(_Member(k, i, once[i], stack, dt))
            except TooLarge:
                raise       # past a cap alone, so past the shared one
            except OnewaveError as err:
                out[i] = err
        size += sum(m.size for m in members)
        steps += sum(m.n_steps for m in members)
        if size > 16 * DENSE_GUARD ** 2 or steps > MAX_STEPS:
            raise TooLarge(
                f"{len(once)} stacked solves take {steps} steps, whose "
                f"ledgers and snapshots ({size:.3g} B) pass the caps they "
                f"share: {MAX_STEPS} steps and {DENSE_GUARD ** 2} complex "
                "entries")
        for m, norms in zip(members, _measure_norms(
                [m.problem for m in members], stack.grid, seed)):
            m.norms = norms
        live = [m for m in members
                if m.forcing is not None or np.any(m.problem.initial.values)]
        for m in (m for m in members if m not in live):     # stays zero
            m.ledger[0] = np.arange(m.n_steps + 1) * m.dt
            m.snap_times[:] = m.ledger[0, np.minimum(np.arange(
                len(m.snap_times)) * TRAJECTORY_STRIDE, m.n_steps)]
            out[m.slot] = m.result()
        for path in ("half", "projected", "complex"):
            _rk4(stack, [m for m in live if m.path == path], out)
    return [out[k] for k in slots]


class _Member:
    """One row of a solve stack: its step, factors, guard base and ledger,
    which the loop (_rk4) fills."""

    def __init__(self, row, slot, problem: CauchyProblem, op, dt):
        self.row, self.slot, self.problem = row, slot, problem
        self.forcing = None if problem.forcing.is_zero else problem.forcing
        grid = problem.grid
        rest, d = (op.tables(0.0, [row]).split if op.frozen     # else R = a
                   else (None, np.zeros(grid.shape)))
        pick = op.frozen and self.forcing is None   # sup|R|, else sup|a|
        self.sup = max(op.sup_abs(t, row)[pick]
                       for t in problem.symbol.sample_times(problem.horizon))
        self.dt = step_size(dt, problem.horizon, self.sup)
        self.n_steps = int(round(problem.horizon / self.dt))
        # real-preserving at a stable step: projected tables (_hermitian)
        self.path = "complex" if not (op.frozen and self.forcing is None
            and self.dt * self.sup <= 2.0 * math.sqrt(2.0)
            and _projected(rest, grid, None, d)) \
            else "projected" if np.any(problem.initial.values.imag) else "half"
        # step 0 (set by the loop), every TRAJECTORY_STRIDE-th step, the last
        rows = 2 + (self.n_steps - 1) // TRAJECTORY_STRIDE
        # the snapshots, their times and the ledger's three arrays, in bytes
        self.size = 16 * rows * problem.grid.size + 8 * rows + \
            24 * (self.n_steps + 1)
        if self.size > 16 * DENSE_GUARD ** 2:
            raise TooLarge(
                f"horizon {problem.horizon:g} takes {self.n_steps:.3g} steps, "
                f"whose ledger and {rows:.3g} snapshots of "
                f"{problem.grid.size} nodes ({self.size:.3g} B) exceed the "
                f"cap of {DENSE_GUARD ** 2} complex entries")
        if self.n_steps > MAX_STEPS:
            raise TooLarge(
                f"horizon {problem.horizon:g} takes {self.n_steps} steps, "
                f"above the cap of {MAX_STEPS} steps")
        width = grid.points // 2 + 1 if self.path == "half" else grid.points
        p = -1j * d if self.path == "complex" else \
            _hermitian(-1j * d, grid)[0][..., :width]
        self.factors = (np.exp(self.dt * p), np.exp(self.dt / 2.0 * p))
        self.g_norm_sq = problem.initial.norm_sq()
        # forcing integral over the horizon for the instability guard
        guard_t = np.linspace(0.0, problem.horizon, 65)
        self.guard_base = self.g_norm_sq + float(np.trapezoid(
            [self.f_norm_sq(t) for t in guard_t], guard_t))
        # times, ||u||^2 and ||f||^2 per step, filled by the loop
        self.ledger = np.zeros((3, self.n_steps + 1))
        self.ledger[:, 0] = 0.0, self.g_norm_sq, self.f_norm_sq(0.0)
        self.snap_times = np.zeros(rows)
        self.spectra = np.zeros((rows,) + grid.shape[:-1] + (width,),
                                dtype=complex)

    def f_norm_sq(self, t: float) -> float:
        return 0.0 if self.forcing is None else self.forcing.norm(t) ** 2

    def result(self) -> SolveResult:
        """The SolveResult of the filled ledger and snapshots."""
        for v in (self.ledger, self.snap_times, self.spectra):
            v.flags.writeable = False       # identical problems share them
        times, u_norms, f_norms = self.ledger
        skew, c_meas = self.norms
        ledger = EnergyLedger(
            times=times, u_norm_sq=u_norms, f_norm_sq=f_norms,
            skew_norm=skew, c_measured=c_meas)
        return SolveResult(grid=self.problem.grid, times=times,
                           snap_times=self.snap_times, spectra=self.spectra,
                           ledger=ledger, dt=self.dt)

    def failure(self, step: int, nsq: float) -> OnewaveError:
        """The error of step ``step``, which left norm^2 nsq not finite or
        above INSTABILITY_FACTOR times its Gronwall bound."""
        tn = step * self.dt
        if not math.isfinite(nsq):
            return NonFinite(f"solution norm non-finite at t={tn:.4g}")
        try:
            growth = math.exp(self.norms[1] * tn)
        except OverflowError:       # the guard bounds nothing
            growth = math.inf
        bound = INSTABILITY_FACTOR * max(self.guard_base, 1e-300) * growth
        return UnstableStep(
            f"norm^2 {nsq:.3e} exceeds {INSTABILITY_FACTOR}x Gronwall "
            f"prediction {bound:.3e} at t={tn:.4g} (dt={self.dt:.3e}, "
            f"step sup={self.sup:.3e})")


def _rk4(stack, members, out):
    """The Lawson RK4 loop on spectra u: the live members take each step
    at once, as the rows of a stack over a leading member axis, each with
    its own dt, times and factors E = e^(-i d dt), E2 = e^(-i d dt/2).  A
    frozen stack's R tables are read from stack.tables once per live set;
    otherwise each stage reads the live rows' tables at its stage times.
    Stage times are formed only where a table or a forcing reads them.
    For N(t, v) = fftn(-i R ifftn(v) + f(t)): k1 = N(t, u), k2 = N(t +
    dt/2, E2 (u + dt/2 k1)), k3 = N(t + dt/2, E2 u + dt/2 k2), k4 = N(t +
    dt, E u + dt E2 k3) and u <- E u + dt/6 (E k1 + 2 E2 (k2 + k3) + k4),
    each sum formed in place.  Projected members fold -i into the tables
    P_m (_projected) and half ones step rfftn/irfftn on M/2 + 1 columns
    (_Member.path).  Each live set allocates its buffers once, its ledger
    columns with their times step * dt and guard bounds formed in advance;
    a step takes one |u^|^2 pass and one comparison with the bounds.  A
    live set ends when a member leaves, and writes its columns into the
    members' ledgers; the stack's step cap (MAX_STEPS) bounds them too."""
    grid = stack.grid
    shape, axes = grid.shape, grid.axes
    path = members[0].path if members else None
    forward, inverse = ((np.fft.rfftn, np.fft.irfftn) if path == "half"
                        else (np.fft.fftn, np.fft.ifftn))
    if members:
        u = np.stack([m.problem.initial.values for m in members])
        u = forward(u.real if path == "half" else u, shape, axes)
        for m, u0 in zip(members, u):
            m.spectra[0] = u0

    def rhs(ts, v, k):
        if path != "complex":       # -i is folded into the tables
            _sum_terms(*rest, v, inverse, grid, k if x is None else x, None,
                       scratch)
        else:
            _synth(rest or stack.tables(ts, rows), v, grid, k)
            np.multiply(-1j, k, out=k)
            for row in forced:
                k[row] += members[row].forcing.value(ts[row])
        forward(k if x is None else x, shape, axes, out=k)

    step = 0
    while members:
        n = len(members)
        rows = [m.row for m in members]
        rest = stack.tables(0.0, rows).split[0] if stack.frozen else None
        x = scratch = None
        if path != "complex":
            # the tables at the shapes they multiply, u's and that of the
            # inverse transform's values: a broadcast multiply is slower
            inner, outer = _projected(rest, grid, u.shape[-1])
            rest = ([np.broadcast_to(p, u.shape).copy() for p in inner],
                    [np.broadcast_to(f, (n,) + shape).copy() for f in outer])
            scratch = np.empty((len(inner),) + u.shape, dtype=complex), None
        if path == "half":
            x = np.empty((n,) + shape)
            scratch = scratch[0], np.empty((len(inner), n) + shape)
        forced = [r for r, m in enumerate(members) if m.forcing is not None]
        timed = forced or not stack.frozen
        t0 = th = t1 = None
        dts = np.array([m.dt for m in members])
        col = dts.reshape((-1,) + (1,) * grid.dim)
        # dt, dt/2 and dt/6 per row as complex arrays of u's shape: a stage
        # multiply casts them so, and broadcasting a real column is slower
        dt, half, sixth = (np.broadcast_to(c, u.shape).astype(complex)
                           for c in (col, col / 2.0, col / 6.0))
        e, e2 = (np.stack(f) for f in zip(*(m.factors for m in members)))
        k1, k2, k3, k4, v, w = (np.empty_like(u) for _ in range(6))
        sq = np.empty(u.shape)
        # this live set's ledger columns, (steps, rows), and the guard's
        # bounds, capped so that a norm^2 passes only if it is finite
        first, stop = step, min(m.n_steps for m in members)
        times = np.arange(first + 1, stop + 1)[:, None] * dts
        nsq = np.empty(times.shape)
        fsq = np.zeros(times.shape) if forced else None
        base = np.array([m.guard_base for m in members])
        with np.errstate(over="ignore"):
            cap = np.exp(np.array([m.norms[1] for m in members]) * times)
        cap *= INSTABILITY_FACTOR * np.maximum(base, 1e-300)
        cap[:, base <= 0] = math.inf        # zero data and forcing
        np.minimum(cap, np.finfo(float).max, out=cap)
        ends = [r for r, m in enumerate(members) if m.n_steps == stop]
        while True:
            step += 1
            j = step - first - 1
            if timed:
                t0 = [(step - 1) * m.dt for m in members]
                th = [t + m.dt / 2.0 for t, m in zip(t0, members)]
                t1 = [t + m.dt for t, m in zip(t0, members)]
            rhs(t0, u, k1)
            np.add(u, np.multiply(half, k1, out=v), out=v)
            rhs(th, np.multiply(e2, v, out=v), k2)
            np.multiply(e2, u, out=w)
            rhs(th, np.add(w, np.multiply(half, k2, out=v), out=v), k3)
            np.multiply(dt, np.multiply(e2, k3, out=v), out=v)
            rhs(t1, np.add(np.multiply(e, u, out=w), v, out=v), k4)
            np.multiply(e2, np.add(k2, k3, out=k2), out=k2)
            np.add(np.multiply(e, k1, out=k1), np.multiply(2.0, k2, out=k2),
                   out=k1)
            np.add(k1, k4, out=k1)
            np.add(w, np.multiply(sixth, k1, out=k1), out=u)
            nsq[j] = grid.spectral_norm_sq(u, sq)
            for r in forced:
                fsq[j, r] = members[r].f_norm_sq(float(times[j, r]))
            failed = [] if (nsq[j] <= cap[j]).all() else [
                r for r in range(n) if not nsq[j, r] <= cap[j, r]]
            last = step == stop
            snaps = range(n) if step % TRAJECTORY_STRIDE == 0 else \
                ends if last else ()
            row = -(-step // TRAJECTORY_STRIDE)     # ceil(step / stride)
            for r in snaps:
                members[r].snap_times[row] = times[j, r]
                members[r].spectra[row] = u[r]
            if failed or last:
                break
        keep = []
        for r, m in enumerate(members):
            if r in failed:
                out[m.slot] = m.failure(step, float(nsq[j, r]))
                continue
            m.ledger[0, first + 1:step + 1] = times[:j + 1, r]
            m.ledger[1, first + 1:step + 1] = nsq[:j + 1, r]
            if forced:
                m.ledger[2, first + 1:step + 1] = fsq[:j + 1, r]
            if last and r in ends:
                out[m.slot] = m.result()
            else:
                keep.append(r)
        members, u = [members[r] for r in keep], u[keep]


def _projected(tables, grid: Grid, width, *more):
    """-i op(s) of separable tables as a real-preserving stage reads it,
    with -i folded in: (the projected tables P_m of -i g_m (_hermitian) on
    the first ``width`` columns of the last axis, the real parts of the
    f_m); None unless it maps real data to real data, every f_m real and
    each -i g_m, and -i p for each of ``more`` (a split's multiplier d),
    unchanged by the projection off the Nyquist planes."""
    if any(np.any(f_m.imag) for f_m in tables.f):
        return None
    proj = [_hermitian(-1j * p, grid) for p in list(tables.g) + list(more)]
    if not all(same for _, same in proj):
        return None
    return ([q[..., :width] for q, _ in proj[:len(tables.g)]],
            [f_m.real for f_m in tables.f])


# The real-preserving projection changes a table only on the Nyquist planes:
# where a half spectrum's modes there are at most this fraction of its
# largest, snapshot by snapshot, the projected and the unprojected operator
# agree on it to rounding.
_NYQUIST_ROUNDING = 1e-13


def _minus_i_ops(spectra: np.ndarray, ops, grid: Grid) -> tuple:
    """(the spectra to post-process, per op of ``ops`` a function (ts, hat)
    -> -i op(s) ifftn(hat), grid values, on the rows of hat at ts (as
    PeriodicOperator.apply_spectrum)).  Half spectra stay half where every
    op is frozen and real-preserving and their Nyquist modes are at
    rounding (_NYQUIST_ROUNDING): each op applies as the half path's stage
    does, by its projected tables (_projected), to real values; otherwise
    they become their full spectra (Grid.full_spectra)."""
    if spectra.shape[-1] != grid.points:
        kernels = [op.frozen and _projected(op.tables(0.0), grid,
                                            spectra.shape[-1]) for op in ops]
        mags = np.abs(spectra)
        peak = _NYQUIST_ROUNDING * mags.max(grid.axes)      # per snapshot
        if all(kernels) and all((mags.take(grid.points // 2, axis).max(
                grid.axes[1:]) <= peak).all() for axis in grid.axes):
            return spectra, [lambda ts, hat, k=k: _sum_terms(
                *k, hat, np.fft.irfftn, grid,
                np.empty(hat.shape[:-grid.dim] + grid.shape), None)
                for k in kernels]
        spectra = grid.full_spectra(spectra)
    return spectra, [lambda ts, hat, op=op: -1j * op.apply_spectrum(ts, hat)
                     for op in ops]


def _hermitian(p: np.ndarray, grid: Grid) -> tuple:
    """(P + conj P(-k)) / 2 over the grid axes of the spectral table P, the
    real-preserving projection, and whether it leaves P unchanged off the
    Nyquist planes, where an odd symbol has no real-preserving value."""
    neg = -np.arange(grid.points) % grid.points     # the index of -k
    q = (p + np.conjugate(p[(..., *np.ix_(*[neg] * grid.dim))])) / 2
    moved = q != p
    for axis in range(grid.dim):    # the Nyquist planes do not count
        moved[(..., grid.points // 2) + (slice(None),) * axis] = False
    return q, not moved.any()


def _under_bound(values, bound) -> bool:
    """Gronwall test: every value stays below its bound up to rounding."""
    return bool(np.all(values <= bound * (1.0 + 1e-9) + 1e-300))


def seminorm_dominates(c_seminorm: float, c_measured: float) -> bool:
    """The one dominance rule: a semi-norm constant dominates a measured
    one when it is finite and at least as large."""
    return bool(math.isfinite(c_seminorm) and c_seminorm >= c_measured)


def check_energy_estimate(ledger: EnergyLedger) -> dict:
    """Pointwise differential inequality and Gronwall bound from the ledger.

    pointwise:  d/dt ||u||^2 <= ||f||^2 + (1 + skew + 2*a0) ||u||^2
    (centered differences; one-sided at the ends; ENERGY_SLACK absorbs the
    time-discretization error of the derivative estimate).
    gronwall:   ||u(t)||^2 <= (||g||^2 + int_0^T ||f||^2) exp(c_meas * t).
    """
    t, usq, fsq = ledger.times, ledger.u_norm_sq, ledger.f_norm_sq
    c = ledger.c_measured
    dsq = np.gradient(usq, t)
    rhs = fsq + c * usq + ENERGY_SLACK * (1.0 + usq)
    margins = rhs - dsq
    pointwise_ok = bool(np.all(margins >= 0.0))
    gronwall_ok = _under_bound(usq, ledger.gronwall_bound())
    return {
        "pointwise_ok": pointwise_ok,
        "gronwall_ok": gronwall_ok,
        "pointwise_margin_min": float(np.min(margins)),
    }


def check_case_variants(problem: CauchyProblem, result: SolveResult,
                        seed=0) -> dict:
    """Reduced-order semi-norm constants for the tagged special cases.

    case b (multiplier outside a radius: the x_independent_outside tag,
    checked on samples by outside_tag_refusal) uses k=1, l=n+2, k'=0,
    l'=n+1; case c (real symbol) drops the a0 term, at case b's orders if
    case b applies.  Each applicable case must still dominate the measured
    constant and the measured trajectory growth.  Inapplicable cases are
    reported with a reason.
    """
    ledger = result.ledger
    grid = problem.grid
    report = {"c_measured": ledger.c_measured}

    def gronwall_ok(c):     # an infinite constant bounds nothing
        return math.isfinite(c) and _under_bound(ledger.u_norm_sq,
                                                 ledger.gronwall_bound(c))

    refusal = problem.symbol.outside_tag_refusal(grid, problem.horizon)
    if refusal is None:
        c_b = seminorm_constant(problem.symbol, grid, problem.horizon,
                                case="b")
        report["case_b"] = {"applicable": True, "c_seminorm": c_b,
                            "dominates_measured": seminorm_dominates(
                                c_b, ledger.c_measured),
                            "gronwall_ok": gronwall_ok(c_b)}
    else:
        report["case_b"] = {"applicable": False, "reason": refusal}

    if problem.symbol.is_real(grid, problem.horizon):
        base_case = "b" if refusal is None else "a"
        c_c = seminorm_constant(HyperbolicSymbol(problem.symbol.a1), grid,
                                problem.horizon, case=base_case)
        # real a0 contributes only through its adjoint defect (zero for a
        # real multiplication part), so the measured side drops 2||a0|| too;
        # the defect is the max over the times the ledger's norms sample
        defect_a0 = 0.0
        if problem.symbol.a0 is not None:
            defect_a0 = max(_upper_end(est) for est in adjoint_defect_norms(
                [(problem.symbol.a0, t)
                 for t in problem.symbol.sample_times(problem.horizon)],
                grid, seed))
        c_meas_c = 1.0 + ledger.skew_norm + defect_a0
        report["case_c"] = {"applicable": True, "c_seminorm": c_c,
                            "c_measured_reduced": c_meas_c,
                            "dominates_measured": seminorm_dominates(
                                c_c, c_meas_c),
                            "gronwall_ok": gronwall_ok(c_c)}
    else:
        report["case_c"] = {"applicable": False,
                            "reason": "a0 is not real-valued"}
    return report


def derivative_cascade(problem: CauchyProblem, result: SolveResult,
                       max_order: int = 2) -> dict:
    """Energy ledgers for spatial derivatives of the solution.

    d_x^alpha u solves the same equation with commutator forcing
    F_alpha = d^alpha f - i sum_{0<beta<=alpha} C(alpha,beta)
              op(d_x^beta a) d^{alpha-beta} u,
    so the base energy estimate applies verbatim with forcing F_alpha:
    ||d^alpha u(t)||^2 <= (||d^alpha g||^2 + int_0^T ||F_alpha||^2)
                           * exp(c_meas * t), evaluated on the stored
    snapshots, which are taken as one stack of spectra: d^alpha is a
    multiply, ||d^alpha u||^2 comes by Parseval, and -i op(d_x^beta a)
    applies to the spectra, half spectra where _minus_i_ops keeps them.
    """
    grid = problem.grid
    full = problem.symbol.full()
    snap_t = result.snap_times
    c_meas = result.ledger.c_measured
    alphas = multi_indices(grid.dim, max_order)
    ops = {beta: PeriodicOperator(full.derivative(0, None, beta), grid)
           for beta in alphas if sum(beta)}
    spectra, minus_i = _minus_i_ops(result.spectra, ops.values(), grid)
    minus_i = dict(zip(ops, minus_i))
    hats = {alpha: grid.derivative_spectra(spectra, alpha)
            for alpha in alphas}

    report = {}
    for alpha in (a for a in alphas if sum(a)):
        v_norm_sq = grid.spectral_norm_sq(hats[alpha])
        acc = 0.0 if problem.forcing.is_zero else \
            problem.forcing.x_derivative(alpha).values(snap_t)
        for beta in sorted(ops):        # lexicographic order of the sum
            if all(b <= a for a, b in zip(alpha, beta)):
                coeff = math.prod(math.comb(a, b) for a, b in zip(alpha, beta))
                low = tuple(a - b for a, b in zip(alpha, beta))
                acc = acc + coeff * minus_i[beta](snap_t, hats[low])
        h_vals = grid.norm_sq(acc)
        h_int = float(np.trapezoid(h_vals, snap_t))
        bound = _gronwall(v_norm_sq[0] + h_int, c_meas, snap_t)
        report[alpha] = {
            "times": snap_t, "v_norm_sq": v_norm_sq, "H": h_vals,
            "H_integral": h_int, "bound": bound,
            "ok": _under_bound(v_norm_sq, bound),
        }
    return report
