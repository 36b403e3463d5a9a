"""Command-line entry point.

    onewave run <config.json | preset-name> [--out DIR] [--eps-count N]
                [--grid-M N] [--seed S]
    onewave presets
    onewave validate <config.json | preset-name>

Human-readable summary goes to stdout; machine artifacts (CSV, JSON, binary
trajectories) are written to the output directory only.  Exit codes: 0 all
checks pass, 2 check failure, 3 invalid configuration, 4 runtime error.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

import jsonschema

from .errors import ConfigInvalid, OnewaveError
from .presets import PRESETS, get_preset, list_presets
from .scenario import run_scenario

_EXPR = {"type": "object",
         "properties": {"node": {"type": "string"}},
         "required": ["node"]}

_SYMBOL_EXPR = {
    "type": "object",
    "properties": {
        "dim": {"type": "integer", "enum": [1, 2]},
        "declared_order": {"type": "number"},
        "expr": _EXPR,
    },
    "required": ["dim", "declared_order", "expr"],
}

_ROUGH = {
    "type": "object",
    "properties": {
        "kind": {"enum": ["piecewise_constant", "piecewise_linear", "table",
                          "fourier"]},
        "period": {"type": "number", "exclusiveMinimum": 0},
    },
    "required": ["kind", "period"],
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
                "points": {"type": "integer", "minimum": 2},
                "length": {"type": "number", "exclusiveMinimum": 0},
            },
            "required": ["dim", "points", "length"],
        },
        "horizon": {"type": "number", "exclusiveMinimum": 0},
        "dt": {"type": ["number", "null"]},
        "seed": {"type": "integer"},
        "symbol": {
            "type": "object",
            "properties": {
                "kind": {"enum": ["expr", "rough_transport"]},
                "a1": _SYMBOL_EXPR,
                "a0": {"oneOf": [_SYMBOL_EXPR, {"type": "null"}]},
                "x_independent_outside": {"type": ["number", "null"]},
                "speeds": {"type": "array", "items": _ROUGH, "minItems": 1},
                "zero_order": {"oneOf": [_ROUGH, {"type": "null"}]},
                "mollification_k": {"type": "integer", "minimum": 1},
                "transition_width": {"type": "number", "exclusiveMinimum": 0},
            },
            "required": ["kind"],
            "allOf": [
                {"if": {"properties": {"kind": {"const": "expr"}}},
                 "then": {"required": ["a1"]}},
                {"if": {"properties": {"kind": {"const": "rough_transport"}}},
                 "then": {"required": ["speeds"]}},
            ],
        },
        "data": {
            "type": "object",
            "properties": {
                "g": {"type": "object",
                      "properties": {"kind": {"enum": ["zero", "delta",
                                                       "expression"]}},
                      "required": ["kind"]},
                "builder": {"enum": ["fixed", "mollified", "scaled_exp",
                                     "scaled_power", "oscillating"]},
                "power": {"type": "number"},
                "gamma": {"type": "number"},
                "f": {"type": "object"},
            },
            "required": ["g"],
        },
        "sweep": {
            "type": "object",
            "properties": {
                "eps0": {"type": "number", "exclusiveMinimum": 0},
                "eps_min": {"type": "number", "exclusiveMinimum": 0},
                "ratio": {"type": "number", "exclusiveMinimum": 0,
                          "exclusiveMaximum": 1},
                "count": {"type": "integer", "minimum": 2},
            },
            "required": ["eps0", "count"],
        },
        "orders": {"type": "array",
                   "items": {"type": "array", "minItems": 2, "maxItems": 2}},
        "cascade_max_order": {"type": "integer", "minimum": 0},
        "checks": {
            "type": "array", "minItems": 1,
            "items": {"oneOf": [
                {"type": "string"},
                {"type": "object", "properties": {"check": {"type": "string"}},
                 "required": ["check"]},
            ]},
        },
        "thresholds": {"type": "object"},
        "output": {"type": "object"},
    },
    "required": ["name", "grid", "horizon", "seed", "symbol", "data",
                 "checks"],
}


def validate_config(cfg: dict) -> dict:
    try:
        jsonschema.validate(cfg, CONFIG_SCHEMA)
    except jsonschema.ValidationError as err:
        path = "/".join(str(p) for p in err.absolute_path) or "<root>"
        raise ConfigInvalid(f"config field {path!r}: {err.message}") from err
    return cfg


def load_config(source: str) -> dict:
    """Accept either a preset name or a path to a JSON file."""
    if source in PRESETS:
        return validate_config(get_preset(source))
    path = Path(source)
    if not path.exists():
        raise ConfigInvalid(
            f"{source!r} is neither a preset ({sorted(PRESETS)}) nor a file")
    try:
        cfg = json.loads(path.read_text())
    except json.JSONDecodeError as err:
        raise ConfigInvalid(f"config {source}: invalid JSON ({err})") from err
    return validate_config(cfg)


def _apply_overrides(cfg: dict, args) -> dict:
    if args.grid_M:
        cfg["grid"]["points"] = args.grid_M
    if args.eps_count and "sweep" in cfg:
        cfg["sweep"]["count"] = args.eps_count
    if args.seed is not None:
        cfg["seed"] = args.seed
    return cfg


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="onewave",
        description="Solve and verify hyperbolic pseudodifferential Cauchy "
                    "problems with mollified symbols on a periodic grid.")
    sub = parser.add_subparsers(dest="command", required=True)

    run = sub.add_parser("run", help="execute a scenario")
    run.add_argument("config", help="preset name or JSON config path")
    run.add_argument("--out", default=None, help="artifact directory")
    run.add_argument("--eps-count", type=int, default=None,
                     help="override sweep point count")
    run.add_argument("--grid-M", type=int, default=None,
                     help="override grid points per axis")
    run.add_argument("--seed", type=int, default=None, help="override seed")

    sub.add_parser("presets", help="list shipped scenario presets")

    val = sub.add_parser("validate", help="validate a config against the schema")
    val.add_argument("config", help="preset name or JSON config path")
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    if args.command == "presets":
        for name, desc in list_presets().items():
            print(f"{name:26s} {desc}")
        return 0
    try:
        cfg = load_config(args.config)
    except ConfigInvalid as err:
        print(f"config error: {err}", file=sys.stderr)
        return 3
    if args.command == "validate":
        print(f"ok {cfg['name']}")
        return 0
    cfg = _apply_overrides(cfg, args)
    try:
        ok, _ = run_scenario(cfg, outdir=args.out)
    except ConfigInvalid as err:
        print(f"config error: {err}", file=sys.stderr)
        return 3
    except OnewaveError as err:
        print(f"runtime error ({type(err).__name__}): {err}", file=sys.stderr)
        return 4
    return 0 if ok else 2


if __name__ == "__main__":
    sys.exit(main())
