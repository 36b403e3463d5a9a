"""The sweep's hot loops write into arrays they own.  The allocating
versions they replaced stay here as references: every in-place result must
equal theirs bitwise, since the floating-point operations, their operands
and their order are the same."""

import numpy as np
import pytest

from onewave import cauchy, quantization
from onewave import expr as ex
from onewave.cauchy import CauchyProblem, Forcing, TimeProfile, solve_stack
from onewave.config import BRACKET_WIDTH, POWER_ITERS
from onewave.grid import Grid, GridFunction
from onewave.quantization import (PeriodicOperator, adjoint_defect_norms,
                                  operator_norms)
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


def reference_rk4(stack, members, out):
    """cauchy._rk4, the Lawson loop on spectra, with new stage arrays every
    step; it stores the snapshots' spectra."""
    grid = stack.grid
    shape, axes = grid.shape, grid.axes
    frozen = stack.separable and not any(s.depends_t() for s in stack.symbols)
    if members:
        u = np.fft.fftn(np.stack([m.problem.initial.values
                                  for m in members]), shape, axes)
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
        for row, m in enumerate(members):
            done = m.advance(step, u[row], float(nsq[row]))
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
