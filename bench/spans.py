"""In-memory spans around the public functions of each onewave layer.

The package is not modified: `Tracer.install` replaces each listed function
by a wrapper in its defining module (or class) and in every onewave module
that imported the same object by value (``from .quantization import
adjoint_defect_norm`` binds the name in ``cauchy`` and ``scenario`` too).
`Tracer.uninstall` puts the originals back.

A span is ``(name, start, end, parent)``, with ``parent`` the index of the
enclosing span or -1.  A layer's self time is the sum over its spans of the
duration minus the time covered by their child spans.
"""

from __future__ import annotations

import importlib
import os
import sys
import time
from collections import Counter, defaultdict


def _norm_counts(result):
    if isinstance(result, dict):
        iterations, converged = result["iterations"], result["converged"]
    else:
        iterations, converged = result.iterations, result.converged
    return {"quantization.norm.iterations": int(iterations),
            "quantization.norm.unconverged": int(not converged)}


def _solve_counts(result):
    return {"cauchy.solve.rk4_steps": len(result.times) - 1}


def _sweep_counts(report):
    attempted = len(report.eps) + len(report.incomplete)
    return {"asymptotics.eps_points": attempted,
            "asymptotics.eps_incomplete": len(report.incomplete)}


def _tree_counts(tree):
    stack, size = [tree], 0
    while stack:
        node = stack.pop()
        size += 1
        stack.extend(node.children())
    return {"expr.derivative.nodes": size}


def _write_counts(path):
    return {"io.write.bytes": os.path.getsize(path)}


_Q, _S, _C = "onewave.quantization", "onewave.symbols", "onewave.cauchy"

# (group, module, attribute path, counts taken from the return value).
# Return-value counts are taken only at the outermost span of a group, so a
# writer that delegates to another writer counts its bytes once.
SPANS = [
    ("quantization.remainder", _Q, "adjoint_symbol_remainder", None),
    ("quantization.remainder", _Q, "check_remainder_estimate", None),
    ("quantization.dense", _Q, "op_matrix", None),
    ("quantization.dense", _Q, "symbol_from_matrix", None),
    ("quantization.apply", _Q, "PeriodicOperator.apply", None),
    ("quantization.apply", _Q, "PeriodicOperator.apply_adjoint", None),
    ("quantization.norm", _Q, "adjoint_defect_norm", _norm_counts),
    ("quantization.norm", _Q, "operator_norm", _norm_counts),
    ("symbols.seminorm", _S, "seminorm_c", None),
    ("symbols.seminorm", _S, "seminorm_Q", None),
    ("symbols.classify", _S, "classify_log_type", None),
    ("symbols.classify", _S, "classify_slow_scale", None),
    ("expr.derivative", _S, "SymbolExpr.derivative_root", _tree_counts),
    ("cauchy.solve", _C, "solve_fixed_eps", _solve_counts),
    ("cauchy.seminorm_constant", _C, "seminorm_constant", None),
    ("cauchy.cascade", _C, "derivative_cascade", None),
    ("asymptotics.sweep", "onewave.asymptotics", "run_sweep", _sweep_counts),
    ("regularization.member", _S, "GenSymbolFamily.member", None),
    ("regularization.coeff_eval", "onewave.regularization",
     "MollifiedCoefficient.eval", None),
] + [("io.write", "onewave.io", name, _write_counts)
     for name in ("write_csv", "write_ledger_csv", "write_seminorm_csv",
                  "write_check_csv", "write_json", "write_trajectory")]

# Call counters without spans: too frequent and too thin for a span each.
COUNTERS = [
    ("quantization.fft.calls", "numpy.fft", "fftn"),
    ("quantization.fft.calls", "numpy.fft", "ifftn"),
    ("quantization.operator.builds", _Q, "PeriodicOperator.__init__"),
]

# Counts that depend only on the inputs, never on the machine or the clock.
EXACT_COUNTS = ("quantization.fft.calls", "quantization.apply.calls",
                "quantization.norm.iterations", "cauchy.solve.rk4_steps",
                "symbols.seminorm.calls", "expr.derivative.nodes")

GROUPS = sorted({g for g, *_ in SPANS})
COUNT_NAMES = (
    ["quantization.fft.calls", "quantization.operator.builds"]
    + [f"{g}.calls" for g in GROUPS]
    + ["quantization.norm.iterations", "quantization.norm.unconverged",
       "cauchy.solve.rk4_steps", "asymptotics.eps_points",
       "asymptotics.eps_incomplete", "expr.derivative.nodes",
       "io.write.bytes"])


def _resolve(module, path):
    """(owner, attribute name, current value) for 'func' or 'Class.method'."""
    owner = importlib.import_module(module)
    *classes, name = path.split(".")
    for cls in classes:
        owner = getattr(owner, cls)
    return owner, name, getattr(owner, name)


class Patches:
    """Rebinds functions everywhere they are bound; undone by `restore`."""

    def __init__(self):
        self._undo = []

    def rebind(self, module, path, make_wrapper):
        owner, name, original = _resolve(module, path)
        wrapper = make_wrapper(original)
        self._set(owner, name, wrapper)
        if not isinstance(owner, type):
            for mod_name, mod in list(sys.modules.items()):
                if mod is owner or mod is None or (
                        mod_name.split(".")[0] != "onewave"):
                    continue
                for attr, value in list(vars(mod).items()):
                    if value is original:
                        self._set(mod, attr, wrapper)

    def _set(self, owner, name, value):
        self._undo.append((owner, name, owner.__dict__[name]))
        setattr(owner, name, value)

    def restore(self):
        while self._undo:
            owner, name, value = self._undo.pop()
            setattr(owner, name, value)


class Tracer:
    """Spans and counts for one traced iteration at a time."""

    def __init__(self):
        self.patches = Patches()
        self._reset()

    def _reset(self):
        self.spans = []
        self.counts = Counter()
        self.self_s = defaultdict(float)
        self._stack = []          # [group, span index, child seconds]

    def install(self):
        """Start a fresh set of spans and counts and put the wrappers in."""
        self._reset()
        for group, module, path, counts in SPANS:
            label = f"{group}:{path}"
            self.patches.rebind(module, path, lambda fn, g=group, la=label,
                                c=counts: self._span(g, la, fn, c))
        for name, module, path in COUNTERS:
            self.patches.rebind(module, path,
                                lambda fn, n=name: self._counter(n, fn))

    def uninstall(self):
        self.patches.restore()

    def _counter(self, name, fn):
        counts = self.counts

        def counted(*args, **kwargs):
            counts[name] += 1
            return fn(*args, **kwargs)
        return counted

    def _span(self, group, label, fn, counts_of):
        spans, stack, counts = self.spans, self._stack, self.counts
        clock = time.perf_counter

        def traced(*args, **kwargs):
            parent = stack[-1] if stack else None
            frame = [group, len(spans), 0.0]
            spans.append(None)
            stack.append(frame)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                spans[frame[1]] = (label, start, end,
                                   parent[1] if parent else -1)
                duration = end - start
                self.self_s[group] += duration - frame[2]
                if parent is not None:
                    parent[2] += duration
            counts[f"{group}.calls"] += 1
            outermost = parent is None or parent[0] != group
            if counts_of is not None and outermost:
                counts.update(counts_of(result))
            return result
        return traced

    def layer_metrics(self):
        """Counts and self times of the current iteration, all names."""
        out = {name: self.counts.get(name, 0) for name in COUNT_NAMES}
        out.update({f"{g}.self_s": self.self_s.get(g, 0.0) for g in GROUPS})
        return out
