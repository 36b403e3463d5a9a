"""Shipped scenario presets.

Each preset is a plain JSON-compatible dict validating against the scenario
schema; `onewave run <name>` executes it.  Domain length is 2*pi throughout
so integer frequencies are exact grid modes.
"""

import math

TWO_PI = 2.0 * math.pi

# g(x) = sin x + 0.6 cos 2x + 0.1 sin 20x: smooth and band-limited, with
# mode-20 content that the constant-speed checks must carry exactly.
_TRIG_G = {"node": "sum", "children": [
    {"node": "sin", "child": {"node": "coord_x", "axis": 0}},
    {"node": "product", "children": [
        {"node": "constant", "re": 0.6, "im": 0.0},
        {"node": "cos", "child": {"node": "product", "children": [
            {"node": "constant", "re": 2.0, "im": 0.0},
            {"node": "coord_x", "axis": 0}]}}]},
    {"node": "product", "children": [
        {"node": "constant", "re": 0.1, "im": 0.0},
        {"node": "sin", "child": {"node": "product", "children": [
            {"node": "constant", "re": 20.0, "im": 0.0},
            {"node": "coord_x", "axis": 0}]}}]},
]}

# low-band variant.  Its band does not matter to unitarity: the Lawson step
# takes an x-free symbol's multiplier exactly, so unitary_multiplier drifts
# by rounding alone, 1.0e-14 per unit time on it and 9.2e-15 on _TRIG_G
_LOW_G = {"node": "sum", "children": [
    {"node": "sin", "child": {"node": "coord_x", "axis": 0}},
    {"node": "product", "children": [
        {"node": "constant", "re": 0.5, "im": 0.0},
        {"node": "sin", "child": {"node": "product", "children": [
            {"node": "constant", "re": 10.0, "im": 0.0},
            {"node": "coord_x", "axis": 0}]}}]},
]}

_XI = {"node": "coord_xi", "axis": 0}
_X = {"node": "coord_x", "axis": 0}


def _const(v):
    return {"node": "constant", "re": float(v), "im": 0.0}


def _mul(*children):
    return {"node": "product", "children": list(children)}


def _add(*children):
    return {"node": "sum", "children": list(children)}


_SPEED_2_SIN = _add(_const(2.0), {"node": "sin", "child": _X})

_BUMP_PROBES = [
    {"node": "smooth_bump", "child": _X, "center": 2.57, "width": 1.2},
    {"node": "smooth_bump", "child": _X, "center": 3.07, "width": 1.8},
    {"node": "smooth_bump", "child": _X, "center": 2.17, "width": 0.9},
]

PRESETS = {
    "transport_smoke": {
        "name": "transport_smoke",
        "description": "Constant-speed transport: closed-form exactness, "
                       "unitarity, energy ledger.",
        "grid": {"dim": 1, "points": 256, "length": TWO_PI},
        "horizon": 1.0,
        "dt": 1e-3,
        "seed": 1234,
        "symbol": {"kind": "expr",
                   "a1": {"dim": 1, "declared_order": 1.0, "expr": _XI},
                   "x_independent_outside": 0.0},
        "data": {"g": {"kind": "expression", "expr": _TRIG_G},
                 "builder": "fixed"},
        "checks": [
            {"check": "transport_exactness"},
            {"check": "unitarity"},
            {"check": "energy"},
            {"check": "case_variants"},
        ],
    },
    "unitary_multiplier": {
        "name": "unitary_multiplier",
        "description": "Real x-independent order-1 symbol: norm conservation "
                       "to 1e-10 per unit time.",
        "grid": {"dim": 1, "points": 128, "length": TWO_PI},
        "horizon": 1.0,
        "dt": 1e-3,
        "seed": 1234,
        "symbol": {"kind": "expr",
                   "a1": {"dim": 1, "declared_order": 1.0,
                          "expr": _add(_XI, _mul(_const(0.3),
                                                 {"node": "japanese_bracket",
                                                  "order": 1.0}))},
                   "x_independent_outside": 0.0},
        "data": {"g": {"kind": "expression", "expr": _LOW_G},
                 "builder": "fixed"},
        "checks": [
            {"check": "unitarity"},
            {"check": "energy"},
        ],
    },
    "variable_speed_smooth": {
        "name": "variable_speed_smooth",
        "description": "Smooth variable speed (2+sin x) xi with real order-0 "
                       "part: RK4 order, energy estimate, case variants, "
                       "cascade.",
        "grid": {"dim": 1, "points": 256, "length": TWO_PI},
        "horizon": 0.75,
        "dt": None,
        "seed": 1234,
        "symbol": {"kind": "expr",
                   "a1": {"dim": 1, "declared_order": 1.0,
                          "expr": _mul(_SPEED_2_SIN, _XI)},
                   "a0": {"dim": 1, "declared_order": 0.0,
                          "expr": {"node": "cos", "child": _X}}},
        "data": {"g": {"kind": "expression", "expr": _LOW_G},
                 "builder": "fixed"},
        "checks": [
            {"check": "rk4_convergence"},
            {"check": "energy"},
            {"check": "case_variants"},
            {"check": "cascade_bounds", "max_order": 2},
        ],
    },
    "piecewise_speed_logtype": {
        "name": "piecewise_speed_logtype",
        "description": "One-way wave with piecewise-constant speed mollified "
                       "at rate log(1/eps): log-type constants, moderate "
                       "solution exponents bounded by the energy prediction.",
        "grid": {"dim": 1, "points": 256, "length": TWO_PI},
        "horizon": 1.0,
        "dt": None,
        "seed": 1234,
        "symbol": {"kind": "rough_transport",
                   "speeds": [{"kind": "piecewise_constant", "period": TWO_PI,
                               "breakpoints": [2.0, 4.3],
                               "values": [2.0, 1.0]}],
                   "mollification_k": 1},
        "data": {"g": {"kind": "expression", "expr": _LOW_G},
                 "builder": "fixed"},
        "sweep": {"eps0": 1e-1, "eps_min": 1e-6, "count": 6},
        "orders": [[0, [0]], [0, [1]], [0, [2]], [0, [3]]],
        "checks": [
            {"check": "log_type"},
            {"check": "gronwall_fit"},
            {"check": "moderateness"},
        ],
    },
    "delta_association": {
        "name": "delta_association",
        "description": "Mollified discrete delta under constant-speed "
                       "transport: weak pairings converge to the transported "
                       "point values.",
        "grid": {"dim": 1, "points": 256, "length": TWO_PI},
        "horizon": 1.0,
        "dt": None,
        "seed": 1234,
        "symbol": {"kind": "expr",
                   "a1": {"dim": 1, "declared_order": 1.0, "expr": _XI},
                   "x_independent_outside": 0.0},
        "data": {"g": {"kind": "delta", "node": [64]},
                 "builder": "mollified"},
        "sweep": {"eps0": 0.3, "ratio": 0.55, "count": 6},
        "checks": [
            {"check": "association", "probes": _BUMP_PROBES},
        ],
    },
    "negligible_uniqueness": {
        "name": "negligible_uniqueness",
        "description": "Superpolynomially small data through the log-type "
                       "family: solutions pass every tested q-decay.",
        "grid": {"dim": 1, "points": 128, "length": TWO_PI},
        "horizon": 1.0,
        "dt": None,
        "seed": 1234,
        "symbol": {"kind": "rough_transport",
                   "speeds": [{"kind": "piecewise_constant", "period": TWO_PI,
                               "breakpoints": [2.0, 4.3],
                               "values": [2.0, 1.0]}],
                   "mollification_k": 1},
        "data": {"g": {"kind": "expression", "expr": _LOW_G},
                 "builder": "scaled_exp"},
        "sweep": {"eps0": 1e-1, "eps_min": 1e-6, "count": 6},
        "checks": [
            {"check": "negligible"},
        ],
    },
    "adjoint_remainder_desk": {
        "name": "adjoint_remainder_desk",
        "description": "Desk-scale adjoint verification: oscillatory-integral "
                       "remainder vs dense-matrix adjoint symbol, estimate "
                       "ratios, defect stability across resolutions.",
        "grid": {"dim": 1, "points": 32, "length": TWO_PI},
        "horizon": 1.0,
        "dt": None,
        "seed": 1234,
        "symbol": {"kind": "expr",
                   "a1": {"dim": 1, "declared_order": 1.0,
                          "expr": _mul({"node": "smooth_bump", "child": _X,
                                        "center": math.pi, "width": 2.4},
                                       _XI)}},
        "data": {"g": {"kind": "zero"}, "builder": "fixed"},
        "checks": [
            {"check": "remainder_oracle"},
            {"check": "remainder_stability"},
            {"check": "defect_stability"},
        ],
    },
    "ginf_regularity": {
        "name": "ginf_regularity",
        "description": "Uniform-exponent regularity: true for smooth symbol "
                       "and eps-independent data, false for eps-shrinking "
                       "oscillation scales.",
        "grid": {"dim": 1, "points": 256, "length": TWO_PI},
        "horizon": 0.5,
        "dt": None,
        "seed": 1234,
        "symbol": {"kind": "expr",
                   "a1": {"dim": 1, "declared_order": 1.0,
                          "expr": _mul(_SPEED_2_SIN, _XI)}},
        "data": {"g": {"kind": "expression", "expr": _LOW_G},
                 "builder": "fixed"},
        "sweep": {"eps0": 0.3, "ratio": 0.31, "count": 7},
        "orders": [[0, [0]], [0, [1]], [0, [2]], [0, [3]], [0, [4]],
                   [1, [0]], [1, [3]], [2, [2]]],
        "checks": [
            {"check": "ginf", "expect": True},
            {"check": "ginf", "expect": False,
             "data": {"g": {"kind": "expression",
                            "expr": {"node": "sin", "child": _X}},
                      "builder": "oscillating"}},
        ],
    },
}


def list_presets():
    """Catalog of shipped presets: name -> one-line description."""
    return {name: cfg["description"] for name, cfg in PRESETS.items()}


def get_preset(name: str) -> dict:
    import copy
    if name not in PRESETS:
        raise KeyError(f"unknown preset {name!r}; have {sorted(PRESETS)}")
    return copy.deepcopy(PRESETS[name])
