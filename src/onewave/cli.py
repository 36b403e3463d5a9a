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

from .errors import ConfigInvalid, OnewaveError
from .presets import PRESETS, get_preset, list_presets
# CONFIG_SCHEMA and validate_config are re-exported: callers import them here.
from .scenario import (CONFIG_SCHEMA, ScenarioContext,  # noqa: F401
                       run_scenario, validate_config)


def load_config(source: str):
    """Load a preset by name or a JSON file by path; nothing is validated."""
    if source in PRESETS:
        return get_preset(source)
    path = Path(source)
    if not path.is_file():
        raise ConfigInvalid(
            f"{source!r} is neither a preset ({sorted(PRESETS)}) nor a file")
    try:
        return json.loads(path.read_text())
    except ValueError as err:
        raise ConfigInvalid(f"config {source}: invalid JSON ({err})") from err


def _apply_overrides(cfg, args):
    """Write the run flags into the config before it is validated and built."""
    if isinstance(cfg, dict):
        for section, key, value in (("grid", "points", args.grid_M),
                                    ("sweep", "count", args.eps_count)):
            if value is not None and isinstance(cfg.get(section), dict):
                cfg[section][key] = value
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

    val = sub.add_parser("validate", help="validate and build a config "
                         "without running its checks")
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
        if args.command == "validate":
            ScenarioContext(cfg)
            print(f"ok {cfg['name']}")
            return 0
        ok, _ = run_scenario(_apply_overrides(cfg, args), outdir=args.out)
    except ConfigInvalid as err:
        print(f"config error: {err}", file=sys.stderr)
        return 3
    except OnewaveError as err:
        print(f"runtime error ({type(err).__name__}): {err}", file=sys.stderr)
        return 4
    return 0 if ok else 2


if __name__ == "__main__":
    sys.exit(main())
