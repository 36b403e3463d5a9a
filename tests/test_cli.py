"""CLI surface: presets, schema validation, determinism, exit codes."""

import contextlib
import io
import json
import math
import tempfile
from pathlib import Path

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st
from jsonschema import Draft202012Validator
from jsonschema.exceptions import best_match

from onewave import asymptotics, cauchy, regularization, symbols
from onewave.cli import (CONFIG_SCHEMA, _apply_overrides, build_parser,
                         load_config, main, validate_config)
from onewave.config import MAX_STEPS
from onewave.errors import ConfigInvalid
from onewave.presets import PRESETS, get_preset, list_presets
from onewave.quantization import DENSE_GUARD
from onewave.scenario import (_EXPR, SCHEMA_KEYWORDS, ScenarioContext,
                              _relevance, _violations, run_scenario)


class TestPresets:
    def test_catalog_size(self):
        assert len(list_presets()) >= 8

    def test_expected_names_present(self):
        names = set(PRESETS)
        for required in ("transport_smoke", "unitary_multiplier",
                         "variable_speed_smooth", "piecewise_speed_logtype",
                         "delta_association", "negligible_uniqueness",
                         "adjoint_remainder_desk", "ginf_regularity"):
            assert required in names

    def test_all_presets_validate(self):
        for name in PRESETS:
            validate_config(get_preset(name))
            ScenarioContext(get_preset(name))
            assert main(["validate", name]) == 0

    def test_get_preset_returns_copy(self):
        a = get_preset("transport_smoke")
        a["grid"]["points"] = 4
        assert PRESETS["transport_smoke"]["grid"]["points"] == 256

    def test_schema_round_trip(self):
        for name in PRESETS:
            cfg = get_preset(name)
            assert json.loads(json.dumps(cfg)) == cfg

    def test_every_object_schema_but_expressions_is_closed(self):
        # a key an object schema does not list must be refused; expression
        # nodes stay open, and `if` conditions only test a key
        def open_objects(node, path):
            if isinstance(node, list):
                for i, child in enumerate(node):
                    yield from open_objects(child, f"{path}/{i}")
            elif isinstance(node, dict) and node is not _EXPR:
                if "properties" in node and \
                        node.get("additionalProperties") is not False:
                    yield path
                for key, child in node.items():
                    if key != "if":
                        yield from open_objects(child, f"{path}/{key}")
        assert list(open_objects(CONFIG_SCHEMA, "")) == []

    def test_schema_is_a_valid_draft_2020_12_schema(self):
        # validate_config interprets the schema and never checks it
        Draft202012Validator.check_schema(CONFIG_SCHEMA)

    def test_schema_uses_only_interpreted_keywords(self):
        # validate_config interprets SCHEMA_KEYWORDS, additionalProperties
        # false only, integer multipleOf steps and scalar enum and const
        # values; a schema that outgrows it fails here
        def walk(schema, path):
            assert set(schema) <= SCHEMA_KEYWORDS, \
                (path, set(schema) - SCHEMA_KEYWORDS)
            assert schema.get("additionalProperties", False) is False, path
            assert isinstance(schema.get("multipleOf", 1), int), path
            assert all(isinstance(v, (str, int, float)) for v in
                       [*schema.get("enum", ()), schema.get("const", 0)]), path
            for key, sub in schema.items():
                if key == "properties":
                    for name, child in sub.items():
                        walk(child, f"{path}/properties/{name}")
                elif key in ("items", "if", "then", "else"):
                    walk(sub, f"{path}/{key}")
                elif key in ("prefixItems", "allOf"):
                    for i, child in enumerate(sub):
                        walk(child, f"{path}/{key}/{i}")
        walk(CONFIG_SCHEMA, "")


class TestValidation:
    def test_missing_symbol_field_named(self):
        cfg = get_preset("transport_smoke")
        del cfg["symbol"]
        with pytest.raises(ConfigInvalid) as err:
            validate_config(cfg)
        assert "symbol" in str(err.value)

    def test_bad_grid_points_named(self):
        cfg = get_preset("transport_smoke")
        cfg["grid"]["points"] = -4
        with pytest.raises(ConfigInvalid) as err:
            validate_config(cfg)
        assert "points" in str(err.value)

    def test_field_at_fault_named_inside_check_entry(self):
        cfg = get_preset("delta_association")
        cfg["checks"][0]["probes"] = "abc"
        with pytest.raises(ConfigInvalid, match="'checks/0/probes'"):
            validate_config(cfg)

    def test_expr_symbol_requires_a1(self):
        cfg = get_preset("transport_smoke")
        del cfg["symbol"]["a1"]
        with pytest.raises(ConfigInvalid):
            validate_config(cfg)

    def test_load_config_unknown_source(self):
        with pytest.raises(ConfigInvalid):
            load_config("/nonexistent/path.json")

    def test_load_config_from_file(self, tmp_path):
        cfg = get_preset("transport_smoke")
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps(cfg))
        assert load_config(str(path))["name"] == "transport_smoke"

    def test_load_config_only_loads(self, tmp_path):
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps({"name": "x"}))
        assert load_config(str(path)) == {"name": "x"}

    def test_invalid_json_file(self, tmp_path):
        path = tmp_path / "broken.json"
        path.write_text("{not json")
        with pytest.raises(ConfigInvalid):
            load_config(str(path))


class TestExitCodes:
    def test_validate_ok(self, capsys):
        assert main(["validate", "transport_smoke"]) == 0

    def test_config_error_is_3(self, tmp_path, capsys):
        path = tmp_path / "bad.json"
        path.write_text(json.dumps({"name": "x"}))
        assert main(["run", str(path)]) == 3

    def test_presets_lists(self, capsys):
        assert main(["presets"]) == 0
        out = capsys.readouterr().out
        assert "transport_smoke" in out

    def test_check_failure_is_2(self, tmp_path, capsys):
        cfg = get_preset("transport_smoke")
        # an x-free symbol has zero defect norms, which defect_stability
        # FAILs: a FAIL line and exit code 2
        cfg["checks"] = ["defect_stability"]
        path = tmp_path / "strict.json"
        path.write_text(json.dumps(cfg))
        assert main(["run", str(path)]) == 2

    def test_transport_checks_need_1d_expression_data(self, tmp_path, capsys):
        delta = get_preset("transport_smoke")
        delta["data"]["g"] = {"kind": "delta", "node": [0]}
        delta["checks"] = ["transport_exactness"]
        plane = get_preset("transport_smoke")
        plane["grid"].update(dim=2, points=16)
        plane["symbol"]["a1"]["dim"] = 2
        plane["checks"] = ["transport_exactness"]
        for i, cfg in enumerate((delta, plane)):
            path = tmp_path / f"cfg{i}.json"
            path.write_text(json.dumps(cfg))
            assert main(["run", str(path)]) == 3

    def test_transport_checks_need_a_constant_speed(self, tmp_path, capsys):
        cfg = get_preset("transport_smoke")
        cfg["symbol"]["a1"] = get_preset("variable_speed_smooth")[
            "symbol"]["a1"]        # (2 + sin x) xi
        cfg["checks"] = ["transport_exactness"]
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps(cfg))
        assert main(["run", str(path)]) == 3
        assert "needs a constant-speed symbol a1 = c xi" in \
            capsys.readouterr().err

    def test_remainder_checks_need_a_1d_grid(self, tmp_path, capsys):
        for name in ("remainder_oracle", "remainder_stability"):
            cfg = get_preset("delta_association")
            _plane([5, 5], [name])(cfg)
            path = tmp_path / f"{name}.json"
            path.write_text(json.dumps(cfg))
            assert main(["run", str(path)]) == 3
            assert f"check '{name}' needs symbol.kind 'expr' on a 1-D grid" \
                in capsys.readouterr().err

    def test_unknown_check_rejected_before_any_check_runs(self, tmp_path,
                                                          capsys):
        cfg = get_preset("transport_smoke")
        cfg["checks"] = ["unitarity", "no_such_check"]
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps(cfg))
        out = tmp_path / "out"
        assert main(["run", str(path), "--out", str(out)]) == 3
        assert capsys.readouterr().out == ""
        assert not out.exists() or not any(out.iterdir())


class TestDeterminism:
    def test_identical_artifacts(self, tmp_path, capsys):
        cfg = get_preset("transport_smoke")
        cfg["checks"] = [{"check": "transport_exactness"},
                         {"check": "energy"}]
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps(cfg))
        out1 = tmp_path / "run1"
        out2 = tmp_path / "run2"
        assert main(["run", str(path), "--out", str(out1)]) == 0
        assert main(["run", str(path), "--out", str(out2)]) == 0
        files1 = sorted(p.name for p in out1.iterdir())
        files2 = sorted(p.name for p in out2.iterdir())
        assert files1 == files2
        for name in files1:
            assert (out1 / name).read_bytes() == (out2 / name).read_bytes()

    def test_overrides_applied(self, capsys):
        parser = build_parser()
        args = parser.parse_args(["run", "transport_smoke", "--grid-M", "64",
                                  "--seed", "7"])
        cfg = get_preset("transport_smoke")
        cfg = _apply_overrides(cfg, args)
        assert cfg["grid"]["points"] == 64
        assert cfg["seed"] == 7


class TestScenarioDataPaths:
    def test_forcing_from_config(self):
        cfg = get_preset("transport_smoke")
        cfg["data"]["f"] = {
            "kind": "separable",
            "profile": {"amp_re": 0.5, "freq": 2.0},
            "shape": {"node": "cos", "child": {"node": "coord_x", "axis": 0}},
        }
        cfg["checks"] = [{"check": "energy"}]
        ctx = ScenarioContext(cfg)
        forcing = ctx.forcing
        assert not forcing.is_zero
        assert forcing.norm(0.0) > 0
        outcome = ctx.checks[0](ctx)
        assert outcome.ok

    def test_transport_speed_read_from_the_symbol(self):
        # a1 = 2 xi: the exact solution is g(x - 2t), with no speed given
        cfg = get_preset("transport_smoke")
        cfg["symbol"]["a1"]["expr"] = {"node": "product", "children": [
            {"node": "constant", "re": 2.0, "im": 0.0}, _XI]}
        cfg["checks"] = ["transport_exactness"]
        ok, outcomes = run_scenario(cfg, echo=lambda line: None)
        assert ok, [o.line() for o in outcomes]

    def test_association_reference_is_exact_for_a_delta(self):
        cfg = get_preset("delta_association")
        cfg["grid"]["points"] = 64
        cfg["data"]["g"]["node"] = [16]
        cfg["checks"] = [{"check": "association",
                          "probes": cfg["checks"][0]["probes"]}]
        lines = []
        run_scenario(cfg, echo=lines.append)
        [line] = lines
        assert "reference=exact" in line

    def test_association_reference_conjugates_the_probe(self):
        # <u, phi> conjugates phi, so a complex probe must pass as its real
        # part does: the exact reference is conj(phi(x0 + cT))
        cfg = get_preset("delta_association")
        scale = {"node": "constant", "re": 1.0, "im": 0.5}
        cfg["checks"][0]["probes"] = [
            {"node": "product", "children": [scale, probe]}
            for probe in cfg["checks"][0]["probes"]]
        ok, [outcome] = run_scenario(cfg, echo=lambda line: None)
        assert ok, outcome.line()
        assert outcome.number <= 1e-6

    def test_log_type_reads_the_sweep_family(self, monkeypatch):
        # the log_type check classifies the very symbols the sweep solves:
        # the mollified family is built once per scenario
        cfg = get_preset("piecewise_speed_logtype")
        cfg["grid"]["points"] = 64
        seen = {}

        def classify(fam, *args, _classify=symbols.classify_log_type):
            seen.setdefault("log_type", [fam.member(e) for e in fam.eps_grid])
            return _classify(fam, *args)

        def solve(problems, *args, _solve=asymptotics.solve_stack, **kw):
            seen.setdefault("sweep", [p.symbol for p in problems])
            return _solve(problems, *args, **kw)
        monkeypatch.setattr(regularization, "classify_log_type", classify)
        monkeypatch.setattr(asymptotics, "solve_stack", solve)
        run_scenario(cfg, echo=lambda line: None)
        assert len(seen["log_type"]) == len(seen["sweep"]) == 6
        assert all(a is b for a, b in zip(seen["log_type"], seen["sweep"]))


def _set(path, value):
    """Config mutation: set the leaf at `path` (keys and list indices)."""
    def mutate(cfg):
        node = cfg
        for key in path[:-1]:
            node = node[key]
        node[path[-1]] = value
    return mutate


_XI = {"node": "coord_xi", "axis": 0}
_X = {"node": "coord_x", "axis": 0}


def _plane(node, checks=None):
    """delta_association on a 2-D M=16 grid with its delta at `node`, and
    `checks` in place of its own when given."""
    def mutate(cfg):
        cfg["grid"].update(dim=2, points=16)
        cfg["symbol"]["a1"]["dim"] = 2
        cfg["data"]["g"]["node"] = node
        if checks is not None:
            cfg["checks"] = checks
            cfg["orders"] = [[0, [0, 0]], [0, [4, 0]]]
    return mutate


# (preset, config mutation, run flags): each config must be rejected with
# exit 3 before any check runs, by `run` and by `validate` alike.
CONFIG_PROBES = {
    "unknown_threshold": ("transport_smoke", _set(["thresholds"], {"q": 1}), []),
    "odd_points": ("transport_smoke", _set(["grid", "points"], 127), []),
    "unknown_node": ("transport_smoke", _set(
        ["symbol", "a1", "expr"], {"node": "tan", "child": _XI}), []),
    "negative_power": ("transport_smoke", _set(
        ["symbol", "a1", "expr"],
        {"node": "power", "base": _XI, "exponent": -1}), []),
    "delta_out_of_grid": ("delta_association",
                          _set(["data", "g", "node"], [999]), []),
    # a 2-D delta node needs two indices: one would put mass on a whole row
    "delta_node_short_2d": ("delta_association", _plane([5], [
        {"check": "association", "probes": [_X]}]), []),
    "check_delta_node_short_2d": ("delta_association", _plane([5, 5], [
        {"check": "ginf", "data": {"g": {"kind": "delta", "node": [5]}}}]),
        []),
    # the remainder quadrature is 1-D
    "remainder_oracle_2d": ("delta_association",
                            _plane([5, 5], ["remainder_oracle"]), []),
    "remainder_stability_2d": ("delta_association",
                               _plane([5, 5], ["remainder_stability"]), []),
    # the speed is the symbol's: a check entry cannot set it
    "check_speed": ("transport_smoke", _set(["checks", 0, "speed"], 1.0), []),
    # the semi-norms weight a1 with order 1 and a0 with order 0
    "a1_order_two": ("transport_smoke",
                     _set(["symbol", "a1", "declared_order"], 2), []),
    "forcing_profile_misspelled": ("transport_smoke", _set(["data", "f"], {
        "kind": "separable", "profile": {"frq": 2.0}, "shape": _X}), []),
    "max_order_not_int": ("variable_speed_smooth",
                          _set(["checks", 2, "max_order"], "x"), []),
    "expression_without_expr": ("transport_smoke", _set(
        ["data", "g"], {"kind": "expression"}), []),
    "misaligned_rough": ("piecewise_speed_logtype", _set(
        ["symbol", "speeds", 0, "values"], [2.0]), []),
    "orders_dim_mismatch": ("piecewise_speed_logtype",
                            _set(["orders"], [[0, [0, 0]]]), []),
    "symbol_dim_mismatch": ("transport_smoke",
                            _set(["symbol", "a1", "dim"], 2), []),
    "eps_above_one": ("negligible_uniqueness",
                      _set(["sweep", "eps0"], 2.0), []),
    "ginf_orders_below_cap": ("ginf_regularity", _set(
        ["orders"], [[0, [0]], [0, [1]]]), []),
    "probe_axis_beyond_grid": ("delta_association", _set(
        ["checks", 0, "probes"], [{"node": "coord_x", "axis": 1}]), []),
    "symbol_axis_beyond_grid": ("variable_speed_smooth", _set(
        ["symbol", "a0", "expr", "child", "axis"], 1), []),
    "ginf_orders_without_base": ("ginf_regularity",
                                 _set(["orders", 0, 0], 1), []),
    "negative_seed": ("transport_smoke", _set(["seed"], -1), []),
    "null_breakpoint": ("piecewise_speed_logtype", _set(
        ["symbol", "speeds", 0, "breakpoints", 0], None), []),
    "seed_flag_negative": ("ginf_regularity", lambda cfg: None,
                           ["--seed", "-1"]),
    "grid_M_odd": ("transport_smoke", lambda cfg: None, ["--grid-M", "127"]),
    "eps_count_one": ("negligible_uniqueness", lambda cfg: None,
                      ["--eps-count", "1"]),
    # every derivative order is capped at config.MAX_DIFF_ORDER
    "t_order_above_cap": ("ginf_regularity", _set(["orders", 1], [234, [1]]),
                          []),
    "x_order_above_cap": ("ginf_regularity", _set(["orders", 1], [0, [7]]),
                          []),
    "max_order_above_cap": ("variable_speed_smooth",
                            _set(["checks", 2, "max_order"], 7), []),
    "mollification_k_above_cap": ("piecewise_speed_logtype", _set(
        ["symbol", "mollification_k"], 7), []),
    # an empty `orders` tracks no norm, and a cascade to order 0 compares
    # no bound
    "orders_empty": ("piecewise_speed_logtype", _set(["orders"], []), []),
    "max_order_zero": ("variable_speed_smooth",
                       _set(["checks", 3, "max_order"], 0), []),
    # the oscillating data's carrier reaches mode 61 at the smallest eps: at
    # or above the Nyquist mode M/2 it would alias
    "carrier_above_nyquist_M32": ("ginf_regularity", lambda cfg: None,
                                  ["--grid-M", "32"]),
    "carrier_above_nyquist_M64": ("ginf_regularity", lambda cfg: None,
                                  ["--grid-M", "64"]),
    # a fitted exponent and a residual trend need three eps points
    "sweep_count_two_moderateness": ("piecewise_speed_logtype", _set(
        ["sweep", "count"], 2), []),
    "sweep_count_two_association": ("delta_association", _set(
        ["sweep", "count"], 2), []),
    # association's reference is exact: a delta moved at the symbol's speed
    "association_expression_data": ("delta_association", _set(
        ["data", "g"], {"kind": "expression",
                        "expr": {"node": "sin", "child": _X}}), []),
    "association_rough_family": ("piecewise_speed_logtype", lambda cfg: cfg[
        "checks"].append({"check": "association", "probes": [_X]}), []),
    # the regression verdicts need >= 5 eps points over >= 3 decades, and
    # say so before the sweep runs
    "negligible_eps_count_four": ("negligible_uniqueness", lambda cfg: None,
                                  ["--eps-count", "4"]),
    "log_type_eps_count_four": ("piecewise_speed_logtype", lambda cfg: None,
                                ["--eps-count", "4"]),
    "ginf_eps_count_four": ("ginf_regularity", lambda cfg: None,
                            ["--eps-count", "4"]),
    "ginf_sweep_below_three_decades": ("ginf_regularity", _set(
        ["sweep", "ratio"], 0.5), []),
    # a misspelled key is refused, not replaced by its default
    "unknown_root_key": ("piecewise_speed_logtype",
                         _set(["horizn"], 1), []),
    "unknown_grid_key": ("transport_smoke", _set(["grid", "point"], 64), []),
    "unknown_symbol_key": ("piecewise_speed_logtype",
                           _set(["symbol", "mollification_K"], 2), []),
    "unknown_a1_key": ("transport_smoke",
                       _set(["symbol", "a1", "order"], 1.0), []),
    "unknown_rough_key": ("piecewise_speed_logtype",
                          _set(["symbol", "speeds", 0, "value"], [1.0]), []),
    "unknown_data_key": ("negligible_uniqueness",
                         _set(["data", "gama"], 0.5), []),
    "unknown_g_key": ("delta_association",
                      _set(["data", "g", "nodes"], [3]), []),
    "unknown_f_key": ("transport_smoke", _set(["data", "f"], {
        "kind": "separable", "shape": _X, "shap": _X}), []),
    "unknown_sweep_key": ("piecewise_speed_logtype",
                          _set(["sweep", "eps_mn"], 1e-3), []),
    # an expression node refuses the keys its kind does not read
    "unknown_expr_key_misspelled": ("adjoint_remainder_desk", _set(
        ["symbol", "a1", "expr", "children", 0, "ordr"], 3), []),
    "unknown_expr_key_extra": ("adjoint_remainder_desk", _set(
        ["symbol", "a1", "expr", "children", 0, "widht"], 0.1), []),
    # JSON has no NaN or Infinity, but Python's json module reads them: a
    # non-finite number is refused anywhere, open expression nodes included
    "horizon_nan": ("transport_smoke", _set(["horizon"], math.nan), []),
    "horizon_infinity": ("transport_smoke", _set(["horizon"], math.inf), []),
    "dt_nan": ("transport_smoke", _set(["dt"], math.nan), []),
    "a1_constant_infinity": ("variable_speed_smooth", _set(
        ["symbol", "a1", "expr", "children", 0, "children", 0, "re"],
        math.inf), []),
    # a1 must be real: case c, the energy rule and the speed assume it
    # (transport_smoke's complex speed drops transport_exactness, whose
    # need of a real speed would refuse it first)
    "a1_complex_variable_speed": ("variable_speed_smooth", lambda cfg: cfg[
        "symbol"]["a1"].update(expr={"node": "product", "children": [
            {"node": "constant", "re": 1.0, "im": 0.2},
            cfg["symbol"]["a1"]["expr"]]}), []),
    "a1_complex_speed": ("transport_smoke", lambda cfg: cfg.update(
        symbol={**cfg["symbol"], "a1": {**cfg["symbol"]["a1"], "expr": {
            "node": "product", "children": [
                {"node": "constant", "re": 1.0, "im": 0.05}, _XI]}}},
        checks=cfg["checks"][1:]), []),
    # remainder_xindep is retired: its remainders were 0 whatever the kernel
    "retired_check_remainder_xindep": (
        "adjoint_remainder_desk",
        lambda cfg: cfg["checks"].insert(0, "remainder_xindep"), []),
    # no config writes a mollified coefficient, which only a rough_transport
    # symbol builds, nor a profile's derivative order, which only tree
    # differentiation takes
    "mollified_in_x_node": ("variable_speed_smooth", _set(
        ["symbol", "a1", "expr", "children", 0],
        {"node": "mollified_in_x", "omega": 3.0,
         "rough": {"kind": "piecewise_constant", "period": 2 * math.pi,
                   "breakpoints": [2.0, 4.3], "values": [2.0, 1.0]}}), []),
    "profile_order_key": ("adjoint_remainder_desk", _set(
        ["symbol", "a1", "expr", "children", 0, "order"], 1), []),
}

# Values that no shipped config changed are constants now: a config that
# still sets one is refused, naming the key.
DELETED_KEYS = [
    ("transport_smoke", ["checks", 0, "tol"]),
    ("transport_smoke", ["checks", 1, "tol"]),
    ("adjoint_remainder_desk", ["checks", 0, "tol"]),
    ("adjoint_remainder_desk", ["checks", 0, "rel_tol"]),
    ("adjoint_remainder_desk", ["checks", 1, "rel_change"]),
    ("adjoint_remainder_desk", ["checks", 2, "points"]),
    ("adjoint_remainder_desk", ["checks", 2, "max_ratio"]),
    ("piecewise_speed_logtype", ["symbol", "transition_width"]),
    ("ginf_regularity", ["data", "gamma"]),
    ("ginf_regularity", ["checks", 1, "data", "gamma"]),
    ("negligible_uniqueness", ["thresholds"]),
    ("delta_association", ["checks", 0, "terminal_tol"]),
    # a sweep's cascade order is derived from `orders`
    ("piecewise_speed_logtype", ["cascade_max_order"])]


class TestRunPhaseExits:
    """Configs that build and then end in a documented exit, not a traceback."""

    def _run(self, cfg, tmp_path):
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps(cfg))
        return main(["run", str(path)])

    def test_integral_float_grid_runs(self, tmp_path, capsys):
        cfg = get_preset("transport_smoke")
        cfg["grid"].update(dim=1.0, points=256.0)
        assert self._run(cfg, tmp_path) == 0

    def test_integral_float_delta_node_runs(self, tmp_path, capsys):
        cfg = get_preset("delta_association")
        assert self._run(cfg, tmp_path) == 0
        expected = capsys.readouterr().out
        cfg["data"]["g"]["node"] = [64.0]
        assert self._run(cfg, tmp_path) == 0
        assert capsys.readouterr().out == expected

    def test_dense_symbol_sweep_runs(self, tmp_path, capsys):
        # a non-separable symbol sends every member and every snapshot
        # stack of the sweep through the dense table
        cfg = get_preset("ginf_regularity")
        cfg["grid"]["points"] = 32
        xi = {"node": "coord_xi", "axis": 0}
        cfg["symbol"]["a1"]["expr"] = {"node": "sum", "children": [xi, {
            "node": "product", "children": [
                {"node": "constant", "re": 0.01, "im": 0.0},
                {"node": "sin", "child": {"node": "product", "children": [
                    {"node": "coord_x", "axis": 0}, xi]}}]}]}
        # the oscillating-data check needs more than 32 points to resolve
        # its carrier, so only the regular check runs
        cfg["checks"] = cfg["checks"][:1]
        assert self._run(cfg, tmp_path) == 0
        assert capsys.readouterr().out.startswith("PASS   ginf_regular")

    def test_zero_dense_remainder_fails(self, tmp_path, capsys):
        # a bump centred off the grid leaves an x-independent symbol, whose
        # dense adjoint remainder is zero
        cfg = get_preset("adjoint_remainder_desk")
        cfg["symbol"]["a1"]["expr"]["children"][0]["center"] = -3.0
        cfg["checks"] = [cfg["checks"][0]]
        assert self._run(cfg, tmp_path) == 2
        out = capsys.readouterr().out
        assert out.startswith("FAIL   remainder_oracle")
        assert "zero dense remainder" in out

    def test_remainder_estimate_samples_the_grid(self, tmp_path, capsys):
        # a 4 pi grid with the bump centred at 3 pi: the estimate samples
        # [0, 4 pi] and so sees the bump, and its ratio is as stable under
        # refinement as on the shipped 2 pi grid with the bump at pi
        cfg = get_preset("adjoint_remainder_desk")
        cfg["grid"]["length"] = 4 * math.pi
        cfg["symbol"]["a1"]["expr"]["children"][0]["center"] = 3 * math.pi
        cfg["checks"] = [cfg["checks"][1]]
        assert cfg["checks"][0]["check"] == "remainder_stability"
        assert self._run(cfg, tmp_path) == 0
        assert capsys.readouterr().out.startswith(
            "PASS   remainder_stability 3.1")

    def test_huge_horizon_is_too_large(self, tmp_path, capsys):
        # refused before the snapshot stack, or the step count, is made
        for horizon, words in ((1e300, f"cap of {DENSE_GUARD ** 2}"),
                               (1.7e308, "no finite step count")):
            cfg = get_preset("transport_smoke")
            cfg["horizon"] = horizon
            assert self._run(cfg, tmp_path) == 4
            err = capsys.readouterr().err
            assert f"(TooLarge): horizon {horizon:g}" in err and words in err

    def test_long_ledger_is_too_large(self, tmp_path, capsys, monkeypatch):
        # 10M steps at M=2: 240 MB of per-step ledger beside 40 MB of
        # snapshots, refused when the member is built, before any step
        def step(stack, members, out):
            assert not members, "a refused solve stepped"
        monkeypatch.setattr(cauchy, "_rk4", step)
        cfg = get_preset("transport_smoke")
        cfg["grid"]["points"] = 2
        cfg["horizon"] = 1e4
        assert self._run(cfg, tmp_path) == 4
        assert "(TooLarge): horizon 10000 takes 1e+07 steps, whose ledger" \
            in capsys.readouterr().err

    def test_step_count_above_cap_is_too_large(self, tmp_path, capsys,
                                               monkeypatch):
        # 2M steps at M=2: 58 MB of ledger and snapshots, under the byte
        # cap, but above config.MAX_STEPS; refused before any step
        def step(stack, members, out):
            assert not members, "a refused solve stepped"
        monkeypatch.setattr(cauchy, "_rk4", step)
        cfg = get_preset("transport_smoke")
        cfg["grid"]["points"] = 2
        cfg["horizon"] = 2000.0
        assert self._run(cfg, tmp_path) == 4
        assert "(TooLarge): horizon 2000 takes 2000000 steps, above the " \
            f"cap of {MAX_STEPS} steps" in capsys.readouterr().err

    def test_sweep_count_past_the_cap_is_too_large(self, tmp_path, capsys,
                                                   monkeypatch):
        # a million members of 128 nodes hold at least their data and two
        # snapshots each, 6.1 GB: refused before any member is built
        built = []

        def counted(rough, k, eps, _build=regularization.regularize_symbol):
            built.append(eps)
            assert len(built) <= 2, "a sweep member was built"
            return _build(rough, k, eps)
        monkeypatch.setattr(regularization, "regularize_symbol", counted)
        cfg = get_preset("piecewise_speed_logtype")
        cfg["grid"]["points"] = 128
        cfg["sweep"]["count"] = 1_000_000
        cfg["checks"] = ["moderateness"]
        assert self._run(cfg, tmp_path) == 4
        # the family's first and last, built to compare their dimensions
        assert len(built) == 2
        err = capsys.readouterr().err
        assert "(TooLarge): a sweep of 1000000 members" in err
        assert f"cap of {DENSE_GUARD ** 2} complex entries" in err

    @pytest.mark.parametrize("preset", ["piecewise_speed_logtype",
                                        "negligible_uniqueness"])
    def test_sweep_member_past_the_caps_is_too_large(self, preset, tmp_path,
                                                     capsys, monkeypatch):
        # at M=64 a horizon of 1e6 takes each member 7.46e6 steps, past both
        # caps on its own, and 1e5 takes the six members 4.4e6 steps between
        # them: either refuses the sweep before any member steps
        def step(stack, members, out):
            assert not members, "a refused solve stepped"
        monkeypatch.setattr(cauchy, "_rk4", step)
        for horizon, words in (
                (1e6, "horizon 1e+06 takes 7.46e+06 steps"),
                (1e5, "6 stacked solves take 4407054 steps")):
            cfg = get_preset(preset)
            cfg["grid"]["points"] = 64
            cfg["horizon"] = horizon
            assert self._run(cfg, tmp_path) == 4
            assert f"(TooLarge): {words}" in capsys.readouterr().err

    @pytest.mark.parametrize("g", [None, {"kind": "zero"}],
                             ids=["preset_data", "zero_data"])
    def test_sweep_without_a_log_spread_is_refused(self, g, tmp_path,
                                                   capsys):
        # eps points 1 ulp apart leave every fit against log(1/eps) without
        # a slope: the norms' fits, or with zero data the constants' fit
        cfg = get_preset("piecewise_speed_logtype")
        cfg["grid"]["points"] = 64
        cfg["sweep"] = {"eps0": 0.1, "count": 6, "ratio": 1.0 - 2.0 ** -53}
        cfg["checks"] = ["gronwall_fit"]
        if g is not None:
            cfg["data"]["g"] = g
        assert self._run(cfg, tmp_path) == 4
        assert "(InsufficientSweep): the eps points do not resolve a fit " \
            "against log(1/eps)" in capsys.readouterr().err

    def test_association_fails_on_its_terminal_residual(self, tmp_path,
                                                        capsys):
        # five eps points leave a monotone tail whose terminal residual,
        # 1.22e-6, is above config.ASSOCIATION_TERMINAL_TOL
        cfg = get_preset("delta_association")
        cfg["sweep"]["count"] = 5
        assert self._run(cfg, tmp_path) == 2
        out = capsys.readouterr().out
        assert out.startswith("FAIL   association 1.223")
        assert "monotone_tail=True" in out

    def test_zero_defect_norm_fails_naming_m(self, tmp_path, capsys):
        # the bump centred off the grid leaves a zero symbol, whose defect
        # norm is zero at every M
        cfg = get_preset("adjoint_remainder_desk")
        cfg["symbol"]["a1"]["expr"]["children"][0]["center"] = -3.0
        cfg["checks"] = ["defect_stability"]
        assert self._run(cfg, tmp_path) == 2
        out = capsys.readouterr().out
        assert out.startswith("FAIL   defect_stability")
        assert "zero at M=[64, 128, 256]" in out


class TestConfigContract:
    @pytest.mark.parametrize("probe", sorted(CONFIG_PROBES))
    def test_rejected_before_any_check_runs(self, probe, tmp_path, capsys):
        preset, mutate, flags = CONFIG_PROBES[probe]
        cfg = get_preset(preset)
        mutate(cfg)
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps(cfg))
        out = tmp_path / "out"
        assert main(["run", str(path), "--out", str(out), *flags]) == 3
        assert capsys.readouterr().out == ""
        assert not out.exists() or not any(out.iterdir())
        # validate sees the config the run flags would have produced
        args = build_parser().parse_args(["run", str(path), *flags])
        path.write_text(json.dumps(_apply_overrides(cfg, args)))
        assert main(["validate", str(path)]) == 3

    @pytest.mark.parametrize("probe, need", [
        ("association_expression_data", "delta data g"),
        ("association_rough_family", "a constant-speed symbol a1 = c xi")])
    def test_association_names_its_missing_need(self, probe, need, tmp_path,
                                                capsys):
        preset, mutate, _ = CONFIG_PROBES[probe]
        cfg = get_preset(preset)
        mutate(cfg)
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps(cfg))
        for command in ("run", "validate"):
            assert main([command, str(path)]) == 3
            err = capsys.readouterr().err
            assert "check 'association' needs" in err and need in err

    @pytest.mark.parametrize("probe, words", [
        ("a1_complex_variable_speed", "symbol a1 is not real-valued"),
        ("a1_complex_speed", "symbol a1 is not real-valued"),
        ("retired_check_remainder_xindep",
         "'remainder_xindep' is not one of"),
        ("mollified_in_x_node", "unknown expression node 'mollified_in_x'"),
        ("profile_order_key", "'smooth_bump' does not read 'order'"),
        ("mollification_k_above_cap",
         "'symbol/mollification_k': 7 is greater than the maximum of 6"),
        ("orders_empty", "'orders': [] should be non-empty"),
        ("max_order_zero",
         "'checks/3/max_order': 0 is less than the minimum of 1")])
    def test_refusal_names_its_cause(self, probe, words, tmp_path, capsys):
        preset, mutate, _ = CONFIG_PROBES[probe]
        cfg = get_preset(preset)
        mutate(cfg)
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps(cfg))
        for command in ("run", "validate"):
            assert main([command, str(path)]) == 3
            assert words in capsys.readouterr().err

    @pytest.mark.parametrize("preset, path", DELETED_KEYS)
    def test_deleted_key_is_named(self, preset, path, tmp_path, capsys):
        cfg = get_preset(preset)
        _set(path, 1.0)(cfg)
        source = tmp_path / "cfg.json"
        source.write_text(json.dumps(cfg))
        assert main(["run", str(source)]) == 3
        assert f"'{path[-1]}' was unexpected" in capsys.readouterr().err

    def test_unread_expression_key_is_named(self):
        cfg = get_preset("adjoint_remainder_desk")
        cfg["symbol"]["a1"]["expr"]["children"][0]["ordr"] = 3
        with pytest.raises(ConfigInvalid,
                           match="'smooth_bump' does not read 'ordr'"):
            ScenarioContext(cfg)


def _leaf_paths(node, path=()):
    if isinstance(node, dict) and node:
        for key, child in node.items():
            yield from _leaf_paths(child, path + (key,))
    elif isinstance(node, list) and node:
        for i, child in enumerate(node):
            yield from _leaf_paths(child, path + (i,))
    else:
        yield path


LEAVES = [(name, path) for name in sorted(PRESETS)
          for path in _leaf_paths(PRESETS[name])]

LEAF_VALUES = st.one_of(st.integers(-3, 300), st.floats(-10.0, 10.0),
                        st.text(max_size=3), st.none(), st.just([]),
                        st.just({}))


# Small values keep every run that builds cheap: no long horizon, no high
# derivative order, no large grid.
RUN_VALUES = st.one_of(st.integers(-3, 8), st.floats(-4.0, 4.0),
                       st.text(max_size=3), st.none(), st.just([]),
                       st.just({}))


class TestBuildFuzz:
    @settings(max_examples=300, derandomize=True, deadline=None,
              suppress_health_check=[HealthCheck.too_slow])
    @given(leaf=st.sampled_from(LEAVES), value=LEAF_VALUES)
    def test_build_raises_only_config_invalid(self, leaf, value):
        name, path = leaf
        cfg = get_preset(name)
        _set(list(path), value)(cfg)
        try:
            ScenarioContext(cfg)
        except ConfigInvalid:
            pass

    @settings(max_examples=150, derandomize=True, deadline=None,
              suppress_health_check=[HealthCheck.too_slow])
    @given(leaf=st.sampled_from(LEAVES), value=RUN_VALUES)
    def test_built_config_runs_to_a_documented_exit(self, leaf, value):
        # a config that builds runs its checks to exit 0, 2 or 4; an error
        # escaping main would be a traceback and fails the example
        name, path = leaf
        cfg = get_preset(name)
        _set(list(path), value)(cfg)
        try:
            ScenarioContext(cfg)
        except ConfigInvalid:
            return
        with tempfile.TemporaryDirectory() as tmp:
            path, out = Path(tmp) / "cfg.json", Path(tmp) / "out"
            path.write_text(json.dumps(cfg))
            err = io.StringIO()
            with contextlib.redirect_stdout(io.StringIO()), \
                    contextlib.redirect_stderr(err):
                code = main(["run", str(path), "--out", str(out)])
        assert code in (0, 2, 4), err.getvalue()
        assert "Traceback" not in err.getvalue()


REFEREE = Draft202012Validator(CONFIG_SCHEMA)


def _referee(cfg):
    """The ConfigInvalid message of jsonschema's best_match error, or None."""
    err = best_match(REFEREE.iter_errors(cfg))
    if err is None:
        return None
    path = "/".join(str(p) for p in err.absolute_path) or "<root>"
    return f"config field {path!r}: {err.message}"


def _verdict(cfg):
    """validate_config's ConfigInvalid message, or None."""
    try:
        validate_config(cfg)
    except ConfigInvalid as err:
        return str(err)
    return None


def _nodes(node, path=()):
    """(path, node) of every node of a config, the root first."""
    yield path, node
    if isinstance(node, (dict, list)):
        items = node.items() if isinstance(node, dict) else enumerate(node)
        for key, child in items:
            yield from _nodes(child, path + (key,))


# The fuzz's leaf values as a fixed list: the ends of its ranges, values
# between, each other kind once, and a bool, which is no number.
REFEREE_VALUES = [-3, 0, 1, 2, 3, 7, 127, 300, -10.0, -1.0, 0.0, 0.5, 1.0,
                  2.0, 2.5, 10.0, "", "a", "abc", None, [], {}, True]


def _single_faults(name):
    """Preset `name` with one fault: a leaf set to a referee value, another
    node set to [] or {}, a key deleted, or an unknown key added to an
    object."""
    leaves = set(_leaf_paths(PRESETS[name]))
    for path, node in _nodes(PRESETS[name]):
        for value in REFEREE_VALUES if path in leaves else \
                [[], {}] if path else []:
            cfg = get_preset(name)
            _set(list(path), value)(cfg)
            yield cfg
        if path and isinstance(path[-1], str):
            cfg = get_preset(name)
            parent = cfg
            for key in path[:-1]:
                parent = parent[key]
            del parent[path[-1]]
            yield cfg
        if isinstance(node, dict):
            cfg = get_preset(name)
            _set([*path, "unknown_key"], 1)(cfg)
            yield cfg


class TestReferee:
    """validate_config against jsonschema's Draft 2020-12 validator and its
    best_match: on finite configs both accept, or both name the same field
    with the same message."""

    @pytest.mark.parametrize("name", sorted(PRESETS))
    def test_single_faults_agree(self, name):
        corpus = [get_preset(name), *_single_faults(name)]
        verdicts = [(_verdict(cfg), _referee(cfg)) for cfg in corpus]
        assert [v for v in verdicts if v[0] != v[1]] == []
        assert verdicts[0] == (None, None)
        assert any(ours is not None for ours, _ in verdicts)

    @pytest.mark.parametrize("schema", [
        {"type": "integer"}, {"type": ["number", "null"]}, {"enum": [1, 2]},
        {"const": 0}, {"minimum": 2}, {"maximum": 6}, {"exclusiveMinimum": 0},
        {"exclusiveMaximum": 1}, {"multipleOf": 2}, {"minItems": 1},
        {"minItems": 2}, {"maxItems": 0}, {"maxItems": 2},
        # the shallowest violation, then the last path among siblings
        {"type": "object", "required": ["b"],
         "properties": {"a": {"type": "string"}, "b": {"type": "string"}},
         "additionalProperties": False},
        {"prefixItems": [{"type": "string"}], "items": {"type": "integer"}},
        # a violation whose schema names no type outranks one whose value
        # has the type its schema names, at the same path
        {"type": "object", "required": ["a"], "allOf": [{"required": ["b"]}]},
        {"if": {"required": ["a"]}, "then": {"required": ["b"]},
         "else": {"required": ["c"]}}])
    def test_each_keyword_agrees(self, schema):
        referee = Draft202012Validator(schema)
        for value in [True, False, 0, 1, 1.0, 2, 2.5, -1, 7, "a", None, [],
                      ["a"], ["a", 1, 2.0], [1, "b", 3], {}, {"a": 1},
                      {"a": 1, "b": 2}, {"a": "x", "b": 1}, {"c": 0, "d": 1}]:
            ours = max(_violations(value, schema), key=_relevance,
                       default=None)
            theirs = best_match(referee.iter_errors(value))
            assert (ours and ours[:2]) == \
                (theirs and (tuple(theirs.absolute_path), theirs.message))

    def test_probes_and_deleted_keys_agree(self):
        corpus = []
        for preset, mutate, flags in CONFIG_PROBES.values():
            cfg = get_preset(preset)
            mutate(cfg)
            args = build_parser().parse_args(["run", preset, *flags])
            corpus.append(_apply_overrides(cfg, args))
        for preset, path in DELETED_KEYS:
            cfg = get_preset(preset)
            _set(path, 1.0)(cfg)
            corpus.append(cfg)
        stricter = []
        for cfg in corpus:
            ours, theirs = _verdict(cfg), _referee(cfg)
            try:
                json.dumps(cfg, allow_nan=False)
            except ValueError:
                # the one place the validator is stricter than jsonschema
                assert theirs is None
                stricter.append(ours)
            else:
                assert ours == theirs
        assert stricter == [
            f"config field {path!r}: {value} is not a finite number"
            for path, value in [
                ("horizon", "nan"), ("horizon", "inf"), ("dt", "nan"),
                ("symbol/a1/expr/children/0/children/0/re", "inf")]]
