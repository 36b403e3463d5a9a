"""The benchmark's workloads: lists of scenario configs built from a seed.

The seed is written into each config's ``seed``; the program sees only the
generated configs.  Importing this module imports nothing from onewave.
"""

from __future__ import annotations

import json
from pathlib import Path

PLANE_CONFIG = Path(__file__).resolve().parent / "plane_2d.json"

SWEEP_PRESETS = ("piecewise_speed_logtype", "negligible_uniqueness",
                 "ginf_regularity")

# No timed 2-D workload: a third workload would cut every run to 20 s within
# the benchmark's total time budget, too short to average out the speed
# swings of a shared 2-vCPU host.  plane_2d.json serves the defect probe.
WORKLOADS = ("desk_adjoint", "sweep_1024")

# Every check the timed scenarios run, by outcome name.
CHECK_NAMES = ("remainder_xindep", "remainder_oracle", "remainder_stability",
               "defect_stability", "log_type", "gronwall_fit", "moderateness",
               "negligible", "ginf_regular", "ginf_irregular")


def scenarios(workload: str, seed: int) -> list[dict]:
    """Configs of one timed iteration, in the order they run."""
    from onewave.presets import get_preset

    if workload == "desk_adjoint":
        cfgs = [get_preset("adjoint_remainder_desk")]
    elif workload == "sweep_1024":
        cfgs = [get_preset(name) for name in SWEEP_PRESETS]
        for cfg in cfgs:
            cfg["grid"]["points"] = 1024
    else:
        raise ValueError(f"unknown workload {workload!r}; have {WORKLOADS}")
    for cfg in cfgs:
        cfg["seed"] = seed
    return cfgs


def known_defect_probes(workload: str, seed: int) -> list[dict]:
    """Untimed scenarios run once per run that hit a known package defect.

    ``HyperbolicSymbol.is_real`` builds a 2-D sample box with the 1-D default
    ``x_lo``, so ``case_variants`` on a 2-D symbol with an a0 (plane_2d.json
    at M=64) raises ``EmptyBox``.  The failure is counted in
    ``checks_passed_ratio`` of ``sweep_1024``.
    """
    if workload != "sweep_1024":
        return []
    cfg = json.loads(PLANE_CONFIG.read_text())
    cfg["name"] = "plane_2d_case_variants"
    cfg["grid"]["points"] = 64
    cfg["checks"] = ["case_variants"]
    cfg["seed"] = seed
    return [cfg]


def validated(workload: str, seed: int) -> tuple[list[dict], list[dict]]:
    """(timed configs, probe configs), each checked against the schema."""
    from onewave.cli import validate_config

    timed = [validate_config(c) for c in scenarios(workload, seed)]
    probes = [validate_config(c) for c in known_defect_probes(workload, seed)]
    return timed, probes
