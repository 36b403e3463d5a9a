"""The sweep's hot loops write into arrays they own.  The allocating
versions they replaced stay here as references: every in-place result must
equal theirs bitwise, since the floating-point operations, their operands
and their order are the same."""

import copy
import json
import math
import pathlib

import numpy as np
import pytest

from onewave import cauchy, quantization
from onewave import expr as ex
from onewave.cauchy import CauchyProblem, Forcing, TimeProfile, solve_stack
from onewave.config import BRACKET_WIDTH, POWER_ITERS, TRAJECTORY_STRIDE
from onewave.grid import Grid, GridFunction
from onewave.presets import get_preset
from onewave.quantization import (PeriodicOperator, adjoint_defect_norms,
                                  operator_norms)
from onewave.scenario import ScenarioContext
from onewave.symbols import HyperbolicSymbol, SymbolExpr

from conftest import band_projector, random_grid_function

TWO_PI = 2.0 * np.pi


# -- the allocating references ----------------------------------------------

def reference_apply(tables, values, grid, name, out):
    """PeriodicOperator's ``name`` on one row, with one new array per
    expression, written into out: apply_spectrum = synth, apply = synth o
    fftn and apply_adjoint = ifftn o analyse."""
    shape, axes = grid.shape, grid.axes
    if name == "apply_adjoint":
        res = np.fft.ifftn(reference_analyse(tables, values, grid), shape,
                           axes)
    elif name == "apply":
        res = reference_synth(tables, np.fft.fftn(values, shape, axes), grid)
    else:
        res = reference_synth(tables, values, grid)
    out[...] = res
    return out


def reference_synth(tables, hat, grid):
    """op(s) ifftn(hat): T (hat / N) per row for a dense table T = S o E."""
    if not isinstance(tables, quantization._Terms):
        return np.stack([tables @ row for row in (
            hat / grid.size).reshape(-1, grid.size)]).reshape(hat.shape)
    res = np.zeros(hat.shape, dtype=complex)
    for f_m, g_m in zip(tables.f, tables.g):
        res += f_m * np.fft.ifftn(g_m * hat, grid.shape, grid.axes)
    return res


def reference_analyse(tables, values, grid):
    """fftn(op(s)^dagger values): T^H values per row for a dense table."""
    if not isinstance(tables, quantization._Terms):
        return np.stack([tables.conj().T @ row for row in values.reshape(
            -1, grid.size)]).reshape(values.shape)
    res = np.zeros(values.shape, dtype=complex)
    for f_m, g_m in zip(tables.f, tables.g):
        res += np.conjugate(g_m) * np.fft.fftn(np.conjugate(f_m) * values,
                                               grid.shape, grid.axes)
    return res


def reference_split(tables, grid):
    """_Terms.split: the terms less the centres c_m of their bounding boxes
    on each row, and the multiplier d = sum_m c_m g_m."""
    axes = tuple(range(-grid.dim, 0))

    def mid(p):
        return (p.max(axes, keepdims=True) + p.min(axes, keepdims=True)) / 2.0
    d, rest = 0, []
    for f_m, g_m in zip(tables.f, tables.g):
        c = mid(f_m.real) + 1j * mid(f_m.imag)
        d = d + c * g_m
        rest.append(f_m - c)
    return quantization._Terms(rest, tables.g, grid.dim), d


def reference_skew_gram(tables, hat, grid, mask):
    skew = None
    if isinstance(tables, quantization._Terms):
        tables, d = reference_split(tables, grid)
        skew = d - np.conjugate(d)

    def b_apply(v_hat):
        p = v_hat * mask
        av = np.fft.fftn(reference_synth(tables, p, grid), grid.shape,
                         grid.axes)
        res = av - reference_analyse(
            tables, np.fft.ifftn(p, grid.shape, grid.axes), grid)
        if skew is not None:
            res = res + skew * p
        return res * mask
    return -b_apply(b_apply(hat))


def reference_operator_gram(tables, hat, grid, mask):
    shape, axes = grid.shape, grid.axes
    av = np.fft.fftn(reference_synth(tables, hat * mask, grid), shape, axes)
    v = np.fft.ifftn(av * mask, shape, axes)
    return reference_analyse(tables, v, grid) * mask


def reference_hermitian(p, grid):
    """(P + conj P(-k)) / 2, P(-k) read at the negated frequency indices."""
    neg = np.ix_(*[-np.arange(grid.points) % grid.points] * grid.dim)
    return (p + np.conjugate(p[(Ellipsis,) + neg])) / 2.0


def reference_advance(m, step, u, nsq):
    """The per-row bookkeeping the loop replaced by array operations:
    record step ``step`` of member m, which left the spectrum u with
    norm^2 nsq; returns m's SolveResult after its last step, its error,
    or None."""
    tn = step * m.dt
    skew, c_meas = m.norms
    try:
        growth = math.exp(c_meas * tn)
    except OverflowError:       # the guard bounds nothing
        growth = math.inf
    bound = cauchy.INSTABILITY_FACTOR * max(m.guard_base, 1e-300) * growth
    if not math.isfinite(nsq) or m.guard_base > 0 and nsq > bound:
        return m.failure(step, nsq)
    m.ledger[:, step] = tn, nsq, m.f_norm_sq(tn)
    if step % TRAJECTORY_STRIDE == 0 or step == m.n_steps:
        row = -(-step // TRAJECTORY_STRIDE)
        m.snap_times[row], m.spectra[row] = tn, u
    return m.result() if step == m.n_steps else None


def reference_rk4(stack, members, out):
    """cauchy._rk4, the Lawson loop on spectra, with new stage arrays every
    step and one reference_advance call per row and step; it stores the
    snapshots' spectra.  A projected member's stages sum f_m inverse(P_m
    v) over P_m, the projected -i g_m, and half spectra step with rfftn
    and irfftn and record the weighted half-spectrum sum."""
    grid = stack.grid
    shape, axes = grid.shape, grid.axes
    frozen = stack.separable and not any(s.depends_t() for s in stack.symbols)
    path = members[0].path if members else None
    half = path == "half"
    width = grid.points // 2 + 1 if half else grid.points
    forward, inverse = ((np.fft.rfftn, np.fft.irfftn) if half
                        else (np.fft.fftn, np.fft.ifftn))
    if members:
        values = np.stack([m.problem.initial.values for m in members])
        u = forward(values.real if half else values, shape, axes)
        for m, u0 in zip(members, u):
            m.spectra[0] = u0
        dt = np.array([m.dt for m in members]).reshape(
            (-1,) + (1,) * grid.dim)
        e = np.stack([m.factors[0] for m in members])
        e2 = np.stack([m.factors[1] for m in members])

    def rhs(ts, v):
        tables = stack.tables(ts, [m.row for m in members])
        if frozen:
            tables = reference_split(tables, grid)[0]
        if path != "complex":
            res = np.zeros((len(members),) + shape,
                           dtype=float if half else complex)
            for f_m, g_m in zip(tables.f, tables.g):
                p_m = reference_hermitian(-1j * g_m, grid)[..., :width]
                res += f_m.real * inverse(p_m * v, shape, axes)
            return forward(res, shape, axes)
        k = -1j * reference_synth(tables, v, grid)
        for row, (m, t) in enumerate(zip(members, ts)):
            if m.forcing is not None:
                k[row] += m.forcing.value(t)
        return np.fft.fftn(k, shape, axes)

    step = 0
    while members:
        step += 1
        t0 = [(step - 1) * m.dt for m in members]
        th = [t + m.dt / 2.0 for t, m in zip(t0, members)]
        k1 = rhs(t0, u)
        k2 = rhs(th, e2 * (u + dt / 2.0 * k1))
        k3 = rhs(th, e2 * u + dt / 2.0 * k2)
        k4 = rhs([t + m.dt for t, m in zip(t0, members)],
                 e * u + dt * (e2 * k3))
        u = e * u + dt / 6.0 * (e * k1 + 2.0 * (e2 * (k2 + k3)) + k4)
        nsq, keep = reference_norm_sq(grid, u) / grid.size, []
        if half:
            nsq = 2.0 * nsq - reference_norm_sq(
                grid, u[..., ::grid.points // 2]) / grid.size
        for row, m in enumerate(members):
            done = reference_advance(m, step, u[row], float(nsq[row]))
            if done is None:
                keep.append(row)
            out[m.slot] = done
        if len(keep) < len(members):
            members, u, dt = [members[r] for r in keep], u[keep], dt[keep]
            e, e2 = e[keep], e2[keep]


def x_space_rk4(problem, dt, steps):
    """Classical RK4 on grid values, u + dt/6 (k1 + 2 k2 + 2 k3 + k4), the
    stepper the Lawson loop replaced: u(steps * dt) of one problem."""
    op = PeriodicOperator(problem.symbol.full(), problem.grid)

    def rhs(t, v):
        return -1j * op.apply(t, v) + problem.forcing.value(t)
    u = problem.initial.values.astype(complex)
    for n in range(steps):
        t = n * dt
        k1 = rhs(t, u)
        k2 = rhs(t + dt / 2.0, u + dt / 2.0 * k1)
        k3 = rhs(t + dt / 2.0, u + dt / 2.0 * k2)
        k4 = rhs(t + dt, u + dt * k3)
        u = u + dt / 6.0 * (k1 + 2.0 * k2 + 2.0 * k3 + k4)
    return u


def reference_upper(s, t, grid, defect):
    """The upper end of a norm estimate, worked out from the symbol's dense
    values S[j, k] = s(t, x_j, xi_k) rather than its separable tables:
    for an x-only s (S constant in k), max|a - conj a| (``defect``) or
    max|a|; for a defect whose x-varying part S - mean_j S is
    sum_a c_a(x_j) xi_a with real c_a (read at the frequency e_a), the lo
    part's max |div c_lo| plus (M/2)(2 pi/L) sum_a max |c_a - c_a,lo|, lo
    the modes with every |k_b| < M/4, plus the band's max |m - conj m| of
    the x-mean m; None otherwise."""
    pts, xi = grid.flat_points(), quantization._flat_frequencies(grid)
    table = np.asarray(s.root.eval(
        t, tuple(pts[:, a][:, None] for a in range(grid.dim)),
        tuple(xi[:, a][None, :] for a in range(grid.dim))), dtype=complex)
    table = np.broadcast_to(table, (grid.size, grid.size))
    if np.all(table == table[:, :1]):                   # x-only
        a = table[:, 0]
        return float(np.max(np.abs(a - a.conj()) if defect else np.abs(a)))
    if not defect:
        return None
    mean = table.mean(axis=0)
    vary = table - mean
    unit = 2.0 * np.pi / grid.length
    coeffs = [vary[:, int(np.flatnonzero(np.all(
        np.isclose(xi, unit * np.eye(grid.dim)[a]), axis=1))[0])] / unit
        for a in range(grid.dim)]
    linear = sum(c[:, None] * xi[None, :, a] for a, c in enumerate(coeffs))
    scale = np.max(np.abs(vary))
    if np.max(np.abs(vary - linear)) > 1e-12 * scale or \
            max(np.max(np.abs(c.imag)) for c in coeffs) > 1e-12 * scale:
        return None
    k = np.fft.fftfreq(grid.points, 1.0 / grid.points)
    lo = np.abs(k) < grid.points / 4.0
    div = 0.0
    hi = 0.0
    for a, c in enumerate(coeffs):
        c = c.real.reshape(grid.shape)
        hat = np.fft.fftn(c)
        for b in range(grid.dim):
            hat = hat * lo.reshape([-1 if i == b else 1
                                    for i in range(grid.dim)])
        wave = (unit * k).reshape([-1 if i == a else 1
                                   for i in range(grid.dim)])
        div = div + np.fft.ifftn(1j * wave * hat)
        hi += np.max(np.abs(c - np.fft.ifftn(hat)))
    mask = quantization._band_mask(grid).ravel()
    share = np.max(np.abs(mean - mean.conj())[mask])
    return float(np.max(np.abs(div)) + grid.max_abs_xi() * hi + share)


def x_space_norms(pairs, grid, seed, defect):
    """The referee of the spectral norm estimators (adjoint_defect_norms if
    ``defect``, else operator_norms): the same power iteration on grid
    values, from the same seeded draw, each Gram product projecting,
    applying, adjoint-applying and projecting again in x space, every step
    its own transforms, every row its own operator, each row stopping
    once its estimate is within BRACKET_WIDTH of its reference_upper."""
    proj = band_projector(grid)
    start = quantization._start(seed, grid)

    def b_apply(op, t, v):
        pv = proj(v)
        return proj(op.apply(t, pv) - op.apply_adjoint(t, pv))

    def gram(op, t, v):
        if defect:
            return -b_apply(op, t, b_apply(op, t, v))
        return proj(op.apply_adjoint(t, proj(op.apply(t, proj(v)))))

    once, slot = quantization._distinct(
        pairs, lambda pair: (id(pair[0]), float(pair[1])))
    out = [None] * len(once)
    for rows, _ in quantization.stacks([s for s, _ in once], grid):
        ops = [(PeriodicOperator(once[i][0], grid), once[i][1]) for i in rows]
        tops = [reference_upper(*once[i], grid, defect) for i in rows]
        found = quantization.power_iteration(
            lambda live, v: np.stack([gram(*ops[k], row)
                                      for k, row in zip(live, v)]),
            np.stack([start] * len(rows)),
            [None if top is None else ((1.0 - BRACKET_WIDTH) * top) ** 2
             for top in tops])
        for i, top, (lam, ok, used) in zip(rows, tops, found):
            out[i] = quantization.NormEstimate(np.sqrt(lam), ok, used, top)
    return [out[k] for k in slot]


def reference_norm_sq(grid, values):
    return grid.cell_volume * np.sum(np.abs(values) ** 2, axis=grid.axes)


def reference_spectral_derivative(grid, values, alpha):
    """d_x^alpha from the one-axis wavenumbers: fftn, then one new
    multiplier (i xi_axis)^order per axis, broadcast, then ifftn."""
    mult = 1
    for axis, order in enumerate(alpha):
        shape = [1] * grid.dim
        shape[axis] = grid.points
        mult = mult * (1j * grid.xi_axis().reshape(shape)) ** order
    coeffs = np.fft.fftn(values, grid.shape, grid.axes)
    return np.fft.ifftn(mult * coeffs if any(alpha) else coeffs, grid.shape,
                        grid.axes)


@pytest.fixture
def allocating(monkeypatch):
    """Run what follows on the allocating references."""
    def use():
        monkeypatch.setattr(cauchy, "_rk4", reference_rk4)
        monkeypatch.setattr(quantization, "_skew_gram", reference_skew_gram)
        monkeypatch.setattr(quantization, "_operator_gram",
                            reference_operator_gram)
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
        assert same_bits(g.spectra, w.spectra)


# -- symbols ----------------------------------------------------------------

def speed_term(c, axis=0, amp=0.5):
    """(c + amp sin x_axis) xi_axis: one separable term."""
    return ex.mul(ex.add(ex.Const(c), ex.mul(ex.Const(amp),
                                             ex.Sin(ex.CoordX(axis)))),
                  ex.CoordXi(axis))


# xi + 0.01 (1 + t) sin(x xi): not separable, so it takes the dense table
T_DENSE = ex.add(ex.CoordXi(0), ex.mul(
    ex.Const(0.01), ex.add(ex.Const(1.0), ex.CoordT()),
    ex.Sin(ex.mul(ex.CoordX(0), ex.CoordXi(0)))))


def one_d_problems(grid):
    """One-term rows whose dt differ (their x-dependent shares differ, so
    they leave the stack at different steps), a forced row with an a0, and
    a dense row."""
    x = grid.x_axis()
    g = GridFunction(grid, np.sin(x) + 0.3 * np.cos(5 * x))
    forcing = Forcing.separable(TimeProfile(amp=0.5 + 0.2j, power=1,
                                            freq=3.0),
                                GridFunction(grid, np.cos(2 * x)))
    sym = [HyperbolicSymbol(SymbolExpr(speed_term(c, amp=c / 2.0), 1.0, 1))
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

    @staticmethod
    def norm_runs():
        """(estimator, pairs, grid): one- and two-term, x-independent real,
        t-dependent and dense symbols, and x-only ones for the operator
        norm, 1-D and 2-D, stacked, at per-row times."""
        runs = []
        for grid, problems in ((Grid(1, 32, TWO_PI), one_d_problems),
                               (Grid(1, 64, TWO_PI), one_d_problems),
                               (Grid(2, 16, TWO_PI), two_d_problems)):
            xi = SymbolExpr(ex.CoordXi(grid.dim - 1), 1.0, grid.dim)
            pairs = [pair for p in problems(grid) for pair in (
                (p.symbol.full(), 0.0), (p.symbol.a1, 0.3))] + [(xi, 0.0)]
            # x-only: their defect is 0 exactly here, but not in x space
            x_only = [(p.symbol.a0, 0.3) for p in problems(grid)
                      if p.symbol.a0 is not None]
            runs += [(adjoint_defect_norms, pairs, grid),
                     (operator_norms, pairs + x_only, grid)]
        return runs

    def test_norm_estimates(self, allocating):
        runs = self.norm_runs()
        got = [estimate(pairs, grid, seed=2) for estimate, pairs, grid in runs]
        allocating()
        assert got == [estimate(pairs, grid, seed=2)
                       for estimate, pairs, grid in runs]

    def test_norm_estimates_equal_x_space_estimates(self):
        # the spectral iterate, its exact mask and its batched transforms
        # against the x-space Gram products: rounding apart, the same
        # iteration, with the same upper ends; rows without one, and rows
        # whose bracket closes before the cap, occur
        seen = set()
        for estimate, pairs, grid in self.norm_runs():
            got = estimate(pairs, grid, seed=2)
            want = x_space_norms(pairs, grid, 2,
                                 estimate is adjoint_defect_norms)
            seen |= {(w.upper is None, w.upper is not None and w.upper > 0.0
                      and w.iterations < POWER_ITERS) for w in want}
            for g, w in zip(got, want):
                assert (g.iterations, g.converged) == \
                    (w.iterations, w.converged)
                assert abs(g.value - w.value) <= 1e-12 * w.value
                assert (g.upper is None) == (w.upper is None)
                if w.upper is not None:
                    assert abs(g.upper - w.upper) <= 1e-12 * (1.0 + w.upper)
        assert {(True, False), (False, True)} <= seen

    @pytest.mark.parametrize("gram", ["_skew_gram", "_operator_gram"])
    def test_spectral_grams(self, gram, rng):
        # one symbol's tables, separable tables stacked per row at
        # per-row times, and a dense table; the input is not written
        for grid, problems in ((Grid(1, 32, TWO_PI), one_d_problems),
                               (Grid(2, 16, TWO_PI), two_d_problems)):
            mask = quantization._band_mask(grid)
            syms = [p.symbol.full() for p in problems(grid)]
            for op, ts in [(PeriodicOperator(s, grid), 0.4) for s in syms] + [
                    (PeriodicOperator(syms[:2], grid), [0.1, 0.7])]:
                tables = op.tables(ts)
                hat = np.stack([np.fft.fftn(random_grid_function(
                    grid, rng).values) for _ in range(2)])
                kept = hat.copy()
                got = getattr(quantization, gram)(tables, hat, grid, mask)
                assert same_bits(hat, kept)
                want = globals()["reference" + gram](tables, hat, grid, mask)
                assert same_bits(got, want)

    @pytest.mark.parametrize("name", ["apply", "apply_spectrum",
                                      "apply_adjoint"])
    def test_applies(self, name, rng):
        # one symbol, a symbol per row at per-row times (stacked tables),
        # and the dense table; values are not written.  A zero row meets cos(x) xi, whose terms are signed zeros: the sum
        # starts from +0.  apply_spectrum reads the rows as spectra.
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
                got = getattr(op, name)(ts, values)
                assert same_bits(values, kept)
                want = np.empty_like(got)
                for k, row in enumerate(values):
                    t = ts[k] if isinstance(ts, list) else ts
                    one = PeriodicOperator(
                        op.symbols[k % len(op.symbols)], grid)
                    reference_apply(one.tables(t), row, grid, name, want[k])
                assert same_bits(got, want)


class TestLawsonAgainstXSpaceRK4:
    @pytest.mark.parametrize("grid, problems", [
        (Grid(1, 32, TWO_PI), one_d_problems),
        (Grid(2, 16, TWO_PI), two_d_problems)])
    def test_solves_match_eight_times_finer_rk4(self, grid, problems):
        # u(T) at the automatic Lawson step against the replaced x-space
        # RK4 at an eighth of that step: within 2.5e-2 of max|u(T)| (the
        # largest, 1.7e-2, is the 6-step row (2.3 + 1.15 sin x) xi; the
        # replaced stepper's own error at its automatic step, 18 steps
        # there, is 8.4e-3)
        probs = problems(grid)
        for problem, result in zip(probs, solve_stack(probs, seed=3)):
            steps = len(result.times) - 1
            want = x_space_rk4(problem, result.dt / 8.0, 8 * steps)
            err = np.max(np.abs(result.states[-1] - want))
            assert err <= 2.5e-2 * np.max(np.abs(want))


class TestSpectralDerivatives:
    @pytest.mark.parametrize("dim", [1, 2])
    def test_derivative_equals_allocating_reference(self, dim, rng):
        grid = Grid(dim, 32 if dim == 1 else 16, TWO_PI)
        stack = np.stack([random_grid_function(grid, rng).values
                          for _ in range(3)])
        kept = stack.copy()
        for alpha in [(0,) * dim, (1,) * dim, (3,) + (0,) * (dim - 1),
                      (0,) * (dim - 1) + (2,)]:
            got = grid.spectral_derivative(stack, alpha)
            assert same_bits(stack, kept)
            assert same_bits(got, reference_spectral_derivative(
                grid, stack, alpha))


# -- half spectra -----------------------------------------------------------

def preset_context(name, points, **sweep):
    cfg = copy.deepcopy(get_preset(name))
    cfg["grid"]["points"] = points
    cfg["sweep"].update(sweep)
    return ScenarioContext(cfg)


def path_of(problem):
    """The stepping path ("half", "projected" or "complex") of a problem."""
    [(_, op)] = quantization.stacks([problem.symbol.full()], problem.grid)
    return cauchy._Member(0, 0, problem, op, None).path


def count_rfftn(monkeypatch):
    calls = []

    def counted(*args, _fn=np.fft.rfftn, **kwargs):
        calls.append(1)
        return _fn(*args, **kwargs)
    monkeypatch.setattr(np.fft, "rfftn", counted)
    return calls


class TestHalfSpectra:
    @staticmethod
    def transport_stacks():
        """The eps = 1e-6 piecewise_speed_logtype member, a ginf_regularity
        oscillating member and (2 + sin x) xi at M=1024, each on its own
        data, and one 2-D M=16 transport stack of two rows, whose one step
        carries the data's modes |k| <= 1 no further than |k| = 5: the two
        paths differ on the Nyquist planes, where these solutions stay at
        rounding."""
        logtype = preset_context("piecewise_speed_logtype", 1024,
                                 eps_min=1e-6)
        ginf = preset_context("ginf_regularity", 1024)
        [osc] = [c for c in get_preset("ginf_regularity")["checks"]
                 if "data" in c]
        eps = ginf.eps_grid[-1]
        grid = ginf.grid
        builder = ginf._data_builder(osc["data"])
        stacks = [
            [CauchyProblem(logtype.family.member(logtype.eps_grid[-1]),
                           logtype.initial_data, logtype.horizon)],
            [CauchyProblem(ginf.family.member(eps),
                           builder.build(eps, grid)[0], ginf.horizon)],
            [CauchyProblem(ginf.fixed_symbol, ginf.initial_data,
                           ginf.horizon)]]
        grid2 = Grid(2, 16, TWO_PI)
        x0, x1 = grid2.x_mesh()
        g2 = GridFunction(grid2, np.sin(x0) * np.cos(x1))
        stacks.append([CauchyProblem(HyperbolicSymbol(SymbolExpr(ex.add(
            speed_term(c), speed_term(0.8, 1)), 1.0, 2)), g2, 0.3)
            for c in (1.0, 1.6)])
        return stacks

    def test_half_path_matches_complex_loop(self, monkeypatch):
        # the half path against the complex reference loop on the full,
        # unprojected tables: u(T) and the ledger agree to rounding, and the
        # step, the times and the measured norms are the same bits
        stacks = self.transport_stacks()
        assert {path_of(p) for probs in stacks for p in probs} == {"half"}
        got = [solve_stack(probs) for probs in stacks]
        monkeypatch.setattr(cauchy, "_rk4", reference_rk4)
        monkeypatch.setattr(cauchy, "_hermitian",
                            lambda p, grid: (p, False))
        want = [solve_stack(probs) for probs in stacks]
        for gs, ws in zip(got, want):
            for g, w in zip(gs, ws):
                uw = w.final().values
                assert np.max(np.abs(g.final().values - uw)) <= \
                    1e-12 * np.max(np.abs(uw))
                assert np.max(np.abs(g.ledger.u_norm_sq - w.ledger.u_norm_sq)
                              / w.ledger.u_norm_sq) <= 1e-13
                for name in ("dt", "times", "snap_times"):
                    assert same_bits(getattr(g, name), getattr(w, name))
                for name in ("skew_norm", "c_measured"):
                    assert same_bits(getattr(g.ledger, name),
                                     getattr(w.ledger, name))

    def test_path_choice(self, monkeypatch):
        # a real member steps alone on the half path, so its result is the
        # same bits beside members that take a full path, none of which
        # calls rfftn; its snapshots stay half spectra, M/2 + 1 columns,
        # whose grid values are real
        grid = Grid(1, 32, TWO_PI)
        x = grid.x_axis()
        real, forced, dense = [one_d_problems(grid)[k] for k in (0, 3, 4)]
        with_a0 = CauchyProblem(HyperbolicSymbol(
            real.symbol.a1, a0=forced.symbol.a0), real.initial, 0.8)
        timed = two_d_problems(Grid(2, 16, TWO_PI))[1]
        growing = CauchyProblem(HyperbolicSymbol(SymbolExpr(ex.mul(ex.add(
            ex.Const(1.0), ex.CoordT()), speed_term(1.0)), 1.0, 1)),
            real.initial, 0.8)
        complex_data = CauchyProblem(real.symbol, GridFunction(
            grid, np.exp(1j * x)), 0.8)
        others = [complex_data, with_a0, forced, growing, dense]
        assert path_of(real) == "half"
        assert [path_of(p) for p in others] == \
            ["projected", "complex", "complex", "complex", "complex"]
        calls = count_rfftn(monkeypatch)
        for p in others + [timed]:
            solve_stack([p], seed=3)
        assert not calls
        [alone] = solve_stack([real], seed=3)
        assert calls
        for other in others:
            assert_same_bits(solve_stack([real, other], seed=3)[:1], [alone])
        assert alone.spectra.shape == (len(alone.snap_times),
                                       grid.points // 2 + 1)
        assert not np.any(alone.states.imag)
        # bench/plane_2d.json's a0 = 0.5 cos(x0 + x1): -i a0 is not
        # Hermitian, so it steps on the complex path
        cfg = json.loads((pathlib.Path(__file__).parent.parent / "bench" /
                          "plane_2d.json").read_text())
        cfg["grid"]["points"] = 16
        ctx = ScenarioContext(cfg)
        assert path_of(CauchyProblem(ctx.fixed_symbol, ctx.initial_data,
                                     ctx.horizon)) == "complex"


class TestLiveSetShrink:
    def test_members_leave_after_different_steps(self, monkeypatch):
        # piecewise_speed_logtype at M=1024: eps = 0.1, 0.01 and 0.001 take
        # 120, 118 and 119 steps on the half path, so the live set shrinks
        # twice; the eps = 1e-4 member, whose guard bound is made to decay
        # as e^(-60 t), fails mid-stack, and a zero-data member is filled
        # without a step
        ctx = preset_context("piecewise_speed_logtype", 1024)
        members = [CauchyProblem(ctx.family.member(eps), ctx.initial_data,
                                 ctx.horizon) for eps in ctx.eps_grid[:4]]
        zero = CauchyProblem(members[0].symbol,
                             GridFunction.zeros(ctx.grid), ctx.horizon)
        measure = cauchy._measure_norms

        def decaying(problems, grid, seed):
            return [(skew, -60.0 if p is members[3] else c) for p, (skew, c)
                    in zip(problems, measure(problems, grid, seed))]
        monkeypatch.setattr(cauchy, "_measure_norms", decaying)
        problems = members + [zero]
        assert {path_of(p) for p in problems} == {"half"}
        got = solve_stack(problems, seed=3)
        assert [len(r.times) - 1 for r in got[:3]] == [120, 118, 119]
        failure = str(got[3])
        assert failure.startswith("norm^2")
        assert 0.0 < float(failure.split(" at t=")[1].split()[0]) < 0.5
        n = len(got[4].times) - 1
        assert same_bits(got[4].times, np.array([k * got[4].dt
                                                 for k in range(n + 1)]))
        assert same_bits(got[4].snap_times, got[4].times[np.minimum(
            np.arange(len(got[4].snap_times)) * TRAJECTORY_STRIDE, n)])
        assert not np.any(got[4].ledger.u_norm_sq) and \
            not np.any(got[4].spectra)
        monkeypatch.setattr(cauchy, "_rk4", reference_rk4)
        for problem, result in zip(members[:3], got):
            assert_same_bits([result], solve_stack([problem], seed=3))
        assert str(solve_stack(problems, seed=3)[3]) == failure
