"""Expression trees, semi-norms, and the asymptotic classifiers."""

import dataclasses

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from onewave import cauchy, quantization, symbols
from onewave import expr as ex
from onewave.errors import EmptyBox, InsufficientSweep, NonFinite
from onewave.grid import Grid
from onewave.presets import PRESETS, get_preset
from onewave.scenario import run_scenario
from onewave.symbols import (GenSymbolFamily, HyperbolicSymbol, SampleBox,
                             SymbolExpr, classify_log_type,
                             classify_slow_scale, seminorm_Q,
                             seminorm_c, seminorm_q)

TWO_PI = 2.0 * np.pi


def box_1d(**kw):
    defaults = dict(dim=1, length=TWO_PI, xi_max=1000.0)
    defaults.update(kw)
    return SampleBox(**defaults)


class TestEvalSymbol:
    def test_linear_xi_derivative(self):
        s = SymbolExpr(ex.CoordXi(0), 1.0, 1)
        assert s.derivative(0, (1,), None).eval(0.3, 1.1, 2.5) == 1.0 + 0j

    def test_constant(self):
        s = SymbolExpr(ex.Const(5), 0.0, 1)
        assert s.eval(0.0, 0.7, -3.0) == 5.0 + 0j

    def test_product_rule_closed_form(self):
        s = SymbolExpr(ex.mul(ex.Sin(ex.CoordX(0)), ex.CoordXi(0)), 1.0, 1)
        # d/dx [sin(x) xi] at x=0, xi=3 -> cos(0)*3
        assert s.derivative(0, None, (1,)).eval(0.0, 0.0, 3.0) == \
            pytest.approx(3.0)

    def test_japanese_bracket_derivative(self):
        s = SymbolExpr(ex.JapaneseBracket(1.0), 1.0, 1)
        got = s.derivative(0, (1,), None).eval(0.0, 0.0, 3.0)
        assert got == pytest.approx(3.0 / np.sqrt(10.0))


# small strategy of random expression trees over (t, x, xi)
_leaves = st.sampled_from(["x", "xi", "t", "const", "bracket"])


def _make_leaf(tag, value):
    return {"x": ex.CoordX(0), "xi": ex.CoordXi(0), "t": ex.CoordT(),
            "const": ex.Const(value), "bracket": ex.JapaneseBracket(1.0)}[tag]


@st.composite
def trees(draw, depth=0):
    if depth >= 2 or draw(st.booleans()):
        tag = draw(_leaves)
        return _make_leaf(tag, draw(st.floats(-2, 2)))
    kind = draw(st.sampled_from(["sum", "prod", "sin", "cos", "bump"]))
    if kind in ("sum", "prod"):
        a = draw(trees(depth=depth + 1))
        b = draw(trees(depth=depth + 1))
        return ex.add(a, b) if kind == "sum" else ex.mul(a, b)
    child = draw(trees(depth=depth + 1))
    if kind == "sin":
        return ex.Sin(child)
    if kind == "cos":
        return ex.Cos(child)
    if isinstance(child, (ex.Const, ex.CoordX, ex.CoordT)):
        return ex.SmoothBump(child, 0.25, 2.0)
    return ex.Cos(child)


class TestTreeDifferentiation:
    @settings(max_examples=60, deadline=None)
    @given(tree=trees(), direction=st.sampled_from(["t", "x", "xi"]))
    def test_matches_central_difference(self, tree, direction):
        s = SymbolExpr(tree, 1.0, 1)
        t0, x0, xi0 = 0.37, 1.21, 0.83
        h = 1e-6
        d, alpha, beta = 0, (0,), (0,)
        if direction == "t":
            d = 1
            lo = s.eval(t0 - h, x0, xi0)
            hi = s.eval(t0 + h, x0, xi0)
        elif direction == "x":
            beta = (1,)
            lo = s.eval(t0, x0 - h, xi0)
            hi = s.eval(t0, x0 + h, xi0)
        else:
            alpha = (1,)
            lo = s.eval(t0, x0, xi0 - h)
            hi = s.eval(t0, x0, xi0 + h)
        fd = (np.asarray(hi) - np.asarray(lo)) / (2 * h)
        an = s.derivative(d, alpha, beta).eval(t0, x0, xi0)
        scale = max(abs(complex(np.asarray(an).item())), 1.0)
        assert abs(complex(np.asarray(an).item()) -
                   complex(np.asarray(fd).item())) <= 1e-6 * scale


class TestParse:
    def test_every_node_kind(self):
        # each `expr` production of docs/symbol_schema.md, hand-written,
        # against the tree built in code, both evaluated on one 2-D mesh
        x0, x1, xi0, xi1 = ({"node": "coord_x", "axis": 0},
                            {"node": "coord_x", "axis": 1},
                            {"node": "coord_xi", "axis": 0},
                            {"node": "coord_xi", "axis": 1})
        cases = {
            "constant": ({"node": "constant", "re": 1.5, "im": -0.5},
                         ex.Const(1.5 - 0.5j)),
            "coord_t": ({"node": "coord_t"}, ex.CoordT()),
            "coord_x": (x1, ex.CoordX(1)),
            "coord_xi": (xi1, ex.CoordXi(1)),
            "sum": ({"node": "sum", "children": [x0, xi1]},
                    ex.add(ex.CoordX(0), ex.CoordXi(1))),
            "product": ({"node": "product", "children": [x1, xi0]},
                        ex.mul(ex.CoordX(1), ex.CoordXi(0))),
            "power": ({"node": "power", "base": xi0, "exponent": 3},
                      ex.Power(ex.CoordXi(0), 3)),
            "sin": ({"node": "sin", "child": x0}, ex.Sin(ex.CoordX(0))),
            "cos": ({"node": "cos", "child": xi1}, ex.Cos(ex.CoordXi(1))),
            "conj": ({"node": "conj", "child": {
                "node": "product", "children": [
                    {"node": "constant", "re": 0.0, "im": 1.0}, xi0]}},
                ex.Conj(ex.mul(ex.Const(1j), ex.CoordXi(0)))),
            "smooth_bump": ({"node": "smooth_bump", "child": x0,
                             "center": 3.0, "width": 2.5},
                            ex.SmoothBump(ex.CoordX(0), 3.0, 2.5)),
            "smooth_step": ({"node": "smooth_step", "child": x1,
                             "edge": 2.0, "width": 3.0},
                            ex.SmoothStep(ex.CoordX(1), 2.0, 3.0)),
            "japanese_bracket": ({"node": "japanese_bracket", "order": -1.5},
                                 ex.JapaneseBracket(-1.5)),
        }
        assert set(cases) == set(ex._NODE_KEYS)
        x = (np.linspace(0.1, 6.0, 7)[:, None, None],
             np.linspace(0.2, 5.9, 5)[None, :, None])
        xi = (np.linspace(-4.0, 4.0, 3), np.linspace(-3.0, 5.0, 3))
        for kind, (data, tree) in cases.items():
            parsed = SymbolExpr.from_json(
                {"dim": 2, "declared_order": 1.0, "expr": data})
            assert parsed.dim == 2 and parsed.declared_order == 1.0
            built = SymbolExpr(tree, 1.0, 2)
            assert np.array_equal(parsed.eval(0.7, x, xi),
                                  built.eval(0.7, x, xi)), kind


class TestSeminorms:
    def test_linear_symbol_value(self, xi_symbol):
        v = seminorm_c(xi_symbol, (0,), (0,), box_1d())
        assert 0.99 <= v < 1.0

    def test_linear_symbol_xi_derivative_exact(self, xi_symbol):
        assert seminorm_c(xi_symbol, (1,), (0,), box_1d()) == 1.0

    def test_sin_speed_derivative(self, variable_speed_symbol):
        v = seminorm_c(variable_speed_symbol, (0,), (1,), box_1d())
        assert 0.99 <= v < 1.0
        # dense-grid maximization oracle at 10x resolution
        x = np.linspace(0, TWO_PI, 1290)
        xi = np.linspace(-1000, 1000, 4001)
        oracle = np.max(np.abs(np.cos(x))[:, None] * np.abs(xi)[None, :] /
                        (1 + np.abs(xi))[None, :])
        assert v == pytest.approx(oracle, abs=1e-3)

    def test_q_max_of_c(self, xi_symbol):
        assert seminorm_q(xi_symbol, 1, 1, box_1d()) == 1.0

    def test_q_zero_symbol(self):
        z = SymbolExpr(ex.Const(0.0), 0.0, 1)
        assert seminorm_q(z, 2, 2, box_1d()) == 0.0

    def test_q_monotone_in_orders(self, variable_speed_symbol):
        box = box_1d()
        q01 = seminorm_q(variable_speed_symbol, 0, 1, box)
        q11 = seminorm_q(variable_speed_symbol, 1, 1, box)
        assert q11 >= q01

    def test_Q_t_independent_collapses(self, variable_speed_symbol):
        box = box_1d()
        for j in (0, 1, 3):
            assert seminorm_Q(variable_speed_symbol, j, 1, 1, box) == \
                seminorm_q(variable_speed_symbol, 1, 1, box)

    def test_Q_t_linear(self):
        s = SymbolExpr(ex.mul(ex.CoordT(), ex.CoordXi(0)), 1.0, 1)
        v = seminorm_Q(s, 1, 0, 0, box_1d(t_max=1.0))
        assert 0.99 <= v < 1.0

    def test_Q_sin_t_sin_x(self):
        s = SymbolExpr(ex.mul(ex.Sin(ex.CoordT()), ex.Sin(ex.CoordX(0))),
                       0.0, 1)
        v = seminorm_Q(s, 2, 0, 0, box_1d(t_max=np.pi))
        assert v == pytest.approx(1.0, abs=1e-4)

    def test_monotone_in_box_refinement(self, variable_speed_symbol):
        coarse = seminorm_c(variable_speed_symbol, (0,), (1,),
                            box_1d(x_count=65))
        fine = seminorm_c(variable_speed_symbol, (0,), (1,),
                          box_1d(x_count=129))
        assert fine >= coarse

    def test_declared_order_bounded_under_xi_doubling(self, variable_speed_symbol):
        prev = seminorm_c(variable_speed_symbol, (0,), (0,),
                          box_1d(xi_max=512.0))
        last = seminorm_c(variable_speed_symbol, (0,), (0,),
                          box_1d(xi_max=1024.0))
        assert last / prev <= 1.05

    def test_empty_box_rejected(self):
        with pytest.raises(EmptyBox):
            SampleBox(1, 1.0, x_count=0)

    def test_nan_sample_raises(self):
        # a bump of width 1e-60 has NaN high x-derivatives, which the max
        # over orders would drop, leaving q = 2 from the constant speed
        bump = ex.SmoothBump(ex.CoordX(0), 1.0, 1e-60)
        s = SymbolExpr(ex.mul(ex.add(ex.Const(2.0), bump), ex.CoordXi(0)),
                       1.0, 1)
        with np.errstate(all="ignore"):
            with pytest.raises(NonFinite, match=r"alpha=\(0,\), "
                               r"beta=\(6,\), t=0"):
                seminorm_q(s, 6, 6, SampleBox(1, TWO_PI))


    @pytest.mark.parametrize("dim", [1, 2])
    def test_box_points_computed_once_read_only(self, dim):
        box = SampleBox(dim, TWO_PI, x_count=9, xi_max=64.0,
                        xi_uniform_count=5)
        for points in (box.x_points, box.xi_points):
            assert points() is points() and not points().flags.writeable
        with pytest.raises(dataclasses.FrozenInstanceError):
            box.x_count = 17
        assert box.x_points().shape == (9 ** dim, dim)

    def test_xi_points_are_np_uniques(self):
        # the xi points, bit for bit, of np.unique over the magnitudes along
        # the grid directions; np.unique leaves the sign of the zero point
        # to its sort order (in 1-D with numpy 2.4 on x86-64: -0.0 at
        # xi_max 1024, +0.0 at xi_max 16), and adding +0.0 makes it +0.0
        def unique_points(box):
            mags = set(np.linspace(0.0, 4.0, box.xi_uniform_count))
            j = 0
            while 2.0 ** j <= box.xi_max:
                mags.add(2.0 ** j)
                j += 1
            mags.add(box.xi_max)
            mags = np.array(sorted(mags))
            if box.dim == 1:
                xi = np.unique(np.concatenate([-mags[::-1], mags]))[:, None]
            else:
                r = 1.0 / np.sqrt(2.0)
                dirs = np.array([(1, 0), (0, 1), (-1, 0), (0, -1), (r, r),
                                 (-r, -r)])
                xi = np.unique(np.round((mags[:, None, None] * dirs).reshape(
                    -1, 2), 12), axis=0)
            return xi + 0.0

        # every xi_max and uniform count the package's boxes take, on each
        # preset's grid at its own M and at M = 64 and 1024
        boxes = {SampleBox(cfg["grid"]["dim"], 1.0, xi_max=xi_max,
                           xi_uniform_count=count)
                 for cfg in PRESETS.values()
                 for m in (cfg["grid"]["points"], 64, 1024)
                 for top in [Grid(cfg["grid"]["dim"], m,
                                  cfg["grid"]["length"]).max_abs_xi()]
                 for xi_max in (top, min(top, 256.0), 64.0, 1024.0)
                 for count in (5, 9, 33)}
        # and random ones, with magnitudes that round to equal 2-D points
        rng = np.random.default_rng(7)
        boxes |= {SampleBox(int(rng.integers(1, 3)), 1.0,
                            xi_max=float(rng.uniform(1e-3, 5000.0)),
                            xi_uniform_count=int(rng.integers(1, 80)))
                  for _ in range(40)}
        boxes |= {SampleBox(dim, 1.0, xi_max=xi_max) for dim in (1, 2)
                  for xi_max in (1e-14, 1.0 + 1e-14, np.sqrt(2.0))}
        for box in boxes:
            assert box.xi_points().tobytes() == unique_points(box).tobytes()
            assert box.xi_points().shape == unique_points(box).shape


def _scenario(preset, checks, points=None, drop_a0=False):
    """A run of ``checks`` on ``preset``, whatever their verdicts."""
    def run(_):
        cfg = get_preset(preset)
        if points is not None:
            cfg["grid"]["points"] = points
        if drop_a0:
            del cfg["symbol"]["a0"]
        cfg["checks"] = checks
        run_scenario(cfg, echo=lambda line: None)
    return run


def _fixed_family(a1):
    """classify_log_type on a family whose one member serves every eps."""
    member = HyperbolicSymbol(a1=a1)
    verdict = classify_log_type(GenSymbolFamily(lambda eps: member, EPS6), 0,
                                1, box_1d(xi_max=128.0))
    assert verdict["q_values"] == [verdict["q_values"][0]] * len(EPS6)


# Each consumer reads some semi-norm more than once: the energy and case c
# constants of one a1 (no a0, and case b does not apply), the base and the
# refined remainder estimates, a fixed symbol's family, and gronwall_fit's
# constant of a fixed symbol at every eps.
SEMINORM_CONSUMERS = {
    "seminorm_constant": _scenario("variable_speed_smooth",
                                   ["energy", "case_variants"], 64, True),
    "remainder_estimate": _scenario("adjoint_remainder_desk",
                                    ["remainder_stability"]),
    "family_Q_values": _fixed_family,
    "gronwall_fit": _scenario("ginf_regularity", ["gronwall_fit"], 64),
}


class TestSampledOnce:
    @pytest.mark.parametrize("consumer", sorted(SEMINORM_CONSUMERS))
    def test_each_seminorm_sampled_once(self, consumer, monkeypatch,
                                        variable_speed_symbol):
        # seminorm_Q keeps what it samples on the symbol, so a consumer
        # that reads one Q twice samples it once
        reads, samples = [], []

        def read(s, *args, _Q=symbols.seminorm_Q):
            reads.append((s, *args))
            return _Q(s, *args)

        def sample(s, k, l, box, t=0.0, _q=symbols.seminorm_q):
            samples.append((s.root, s.declared_order, k, l, box, t))
            return _q(s, k, l, box, t)
        for module in (symbols, cauchy, quantization):
            monkeypatch.setattr(module, "seminorm_Q", read)
        monkeypatch.setattr(symbols, "seminorm_q", sample)
        SEMINORM_CONSUMERS[consumer](variable_speed_symbol)

        def distinct(calls):     # the calls hold their symbols alive
            return {(id(s), *rest) for s, *rest in calls}
        assert len(reads) > len(distinct(reads)) >= 1
        assert len(samples) == len(distinct(samples))


class TestFullSymbol:
    def test_full_symbol_built_once(self, variable_speed_symbol):
        # every caller shares one a1 + a0 object and its derivative cache
        a0 = SymbolExpr(ex.Sin(ex.CoordX(0)), 0.0, 1)
        h = HyperbolicSymbol(a1=variable_speed_symbol, a0=a0)
        assert h.full() is h.full()
        assert h.full().derivative_root(0, None, (1,)) is \
            h.full().derivative_root(0, None, (1,))
        plain = HyperbolicSymbol(a1=variable_speed_symbol)
        assert plain.full() is variable_speed_symbol


class TestTransportSpeed:
    def test_constant_speed_read_from_the_symbol(self, grid32):
        two_xi = SymbolExpr(ex.mul(ex.Const(2.0), ex.CoordXi(0)), 1.0, 1)
        assert HyperbolicSymbol(a1=two_xi).transport_speed(grid32) == 2.0
        still = SymbolExpr(ex.mul(ex.Const(0.0), ex.CoordXi(0)), 1.0, 1)
        assert HyperbolicSymbol(a1=still).transport_speed(grid32) == 0.0

    @pytest.mark.parametrize("symbol", [
        # (2 + sin x) xi depends on x; t xi on t
        HyperbolicSymbol(a1=SymbolExpr(ex.mul(ex.add(ex.Const(2.0), ex.Sin(
            ex.CoordX(0))), ex.CoordXi(0)), 1.0, 1)),
        HyperbolicSymbol(a1=SymbolExpr(ex.mul(ex.CoordT(), ex.CoordXi(0)),
                                       1.0, 1)),
        # an a0, even a zero one
        HyperbolicSymbol(a1=SymbolExpr(ex.CoordXi(0), 1.0, 1),
                         a0=SymbolExpr(ex.Const(0.0), 0.0, 1)),
        # complex c; xi + 0.3 <xi> is not linear in xi
        HyperbolicSymbol(a1=SymbolExpr(ex.mul(ex.Const(1j), ex.CoordXi(0)),
                                       1.0, 1)),
        HyperbolicSymbol(a1=SymbolExpr(ex.add(ex.CoordXi(0), ex.mul(
            ex.Const(0.3), ex.JapaneseBracket(1.0))), 1.0, 1)),
        # c xi + 1e-9 misses by more than 1e-12 relative at xi = 0
        HyperbolicSymbol(a1=SymbolExpr(ex.add(ex.CoordXi(0), ex.Const(1e-9)),
                                       1.0, 1)),
    ])
    def test_no_speed(self, symbol, grid32):
        assert symbol.transport_speed(grid32) is None

    def test_no_speed_in_two_dimensions(self):
        a1 = SymbolExpr(ex.CoordXi(0), 1.0, 2)
        assert HyperbolicSymbol(a1=a1).transport_speed(
            Grid(2, 16, TWO_PI)) is None


class TestRealityCheck:
    def test_real_a1_tagged(self, variable_speed_symbol):
        h = HyperbolicSymbol(a1=variable_speed_symbol)
        assert h.is_real(Grid(1, 128, TWO_PI), 1.0)

    def test_complex_a0_flagged(self, variable_speed_symbol):
        a0 = SymbolExpr(ex.mul(ex.Const(1j), ex.Sin(ex.CoordX(0))), 0.0, 1)
        h = HyperbolicSymbol(a1=variable_speed_symbol, a0=a0)
        assert not h.is_real(Grid(1, 128, TWO_PI), 1.0)


def _const_family(symbol, eps_grid):
    return GenSymbolFamily(lambda eps: HyperbolicSymbol(a1=symbol), eps_grid)


EPS6 = [0.1 * 0.2 ** i for i in range(6)]


class TestClassifiers:
    def test_log_type_constant_family(self, variable_speed_symbol):
        fam = _const_family(variable_speed_symbol, EPS6)
        verdict = classify_log_type(fam, 0, 1, box_1d(xi_max=128.0))
        assert verdict["is_log_type"]
        # eps-independent family: fitted coefficient below 1% of the level
        level = np.mean(verdict["q_values"])
        assert abs(verdict["fitted_coeff"]) <= 0.01 * level

    def test_log_type_rejects_power_growth(self):
        def member(eps):
            a1 = SymbolExpr(ex.mul(ex.Const(1.0 / eps),
                                   ex.Sin(ex.CoordX(0)), ex.CoordXi(0)),
                            1.0, 1)
            return HyperbolicSymbol(a1=a1)
        fam = GenSymbolFamily(member, EPS6)
        verdict = classify_log_type(fam, 0, 0, box_1d(xi_max=128.0))
        assert not verdict["is_log_type"]

    def test_slow_scale_constant_family(self, variable_speed_symbol):
        fam = _const_family(variable_speed_symbol, EPS6)
        verdict = classify_slow_scale(fam, 0, 0, 1, box_1d(xi_max=128.0))
        assert verdict["is_slow_scale"]

    def test_slow_scale_log_family(self):
        def member(eps):
            scale = np.log(1.0 / eps)
            a1 = SymbolExpr(ex.mul(ex.Const(scale), ex.Sin(ex.CoordX(0)),
                                   ex.CoordXi(0)), 1.0, 1)
            return HyperbolicSymbol(a1=a1)
        fam = GenSymbolFamily(member, EPS6)
        verdict = classify_slow_scale(fam, 0, 0, 0, box_1d(xi_max=128.0))
        assert verdict["is_slow_scale"]

    def test_slow_scale_fails_at_p3_for_sqrt_growth(self):
        def member(eps):
            a1 = SymbolExpr(ex.mul(ex.Const(eps ** -0.5), ex.Sin(ex.CoordX(0)),
                                   ex.CoordXi(0)), 1.0, 1)
            return HyperbolicSymbol(a1=a1)
        fam = GenSymbolFamily(member, [0.1 * 0.1 ** i for i in range(6)])
        verdict = classify_slow_scale(fam, 0, 0, 0, box_1d(xi_max=128.0))
        assert not verdict["is_slow_scale"]
        assert verdict["largest_p"] == 2

    def test_insufficient_sweep_rejected(self, variable_speed_symbol):
        fam = _const_family(variable_speed_symbol, [0.1, 0.05, 0.02])
        with pytest.raises(InsufficientSweep):
            classify_log_type(fam, 0, 0, box_1d())
