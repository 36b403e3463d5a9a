"""Benchmark of onewave's verdict workloads: seconds to a trustworthy verdict.

    python3 bench/run.py --workload {desk_adjoint,sweep_1024}
                         --seed N --seconds S --trace {0,1}

Run from anywhere; the package is imported from ``src/`` next to this
directory.  Each workload is a closed loop of one client: the scenarios of
one iteration run in-process through ``onewave.scenario.run_scenario``, one
after another, and the next iteration starts when the previous one ends.
BLAS is pinned to one thread before numpy loads.

Set-up runs several fresh interpreters that import onewave and validate the
workload's configs, then one untimed warm-up iteration in this process.
Iterations then repeat for ``--seconds`` (at least one).  Every timed check
must PASS, every eps point of every sweep must complete, and each
iteration's artifacts must be byte-identical to the warm-up's; ``failed``
counts the timed operations that did not.  Scenarios that hit a known
package defect run once, untimed, and only lower ``checks_passed_ratio``.

``--trace 0`` reports the end-to-end metrics.  ``--trace 1`` alternates
untraced and traced iterations and reports per-layer metrics from spans put
around the package's public functions (see ``spans.py``); the spans of the
last traced iteration are written to ``bench/out/spans-<workload>.jsonl``.

The next-to-last stdout line is a JSON run record (machine, settings,
samples, verdicts); the last line is the result:
``{"correct", "attempted", "failed", "metrics"}``.
"""

from __future__ import annotations

import argparse
import copy
import ctypes
import hashlib
import json
import os
import platform
import resource
import shutil
import subprocess
import sys
import tempfile
import time
from collections import defaultdict
from pathlib import Path
from statistics import median, median_low

import spans
import workloads

BENCH_DIR = Path(__file__).resolve().parent
SRC = BENCH_DIR.parent / "src"
OUT_DIR = BENCH_DIR / "out"

BLAS_THREADS = "1"
BLAS_ENV = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
SETUP_REPEATS = 3


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=workloads.WORKLOADS)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-only", action="store_true",
                        help="import onewave, validate the configs and exit")
    return parser.parse_args(argv)


def _digest(directory: Path) -> str:
    h = hashlib.sha256()
    for path in sorted(p for p in directory.rglob("*") if p.is_file()):
        h.update(str(path.relative_to(directory)).encode() + b"\0")
        h.update(path.read_bytes())
    return h.hexdigest()


class Iteration:
    """Timings, verdicts and artifact digest of one pass over the scenarios."""

    def __init__(self):
        self.wall_s = 0.0
        self.cpu_s = 0.0
        self.ops = {}                         # operation id -> passed
        self.check_s = defaultdict(float)     # outcome name -> seconds
        self.errors = []
        self.digest = ""


class Runner:
    """Runs iterations of one workload and records their sweep reports."""

    def __init__(self, cfgs, workdir: Path):
        from onewave.scenario import run_scenario

        self.run_scenario = run_scenario
        self.cfgs = cfgs
        self.workdir = workdir
        self.sweeps = []
        # Keep every SweepReport so incomplete eps points count as failures.
        self._patches = spans.Patches()
        self._patches.rebind("onewave.asymptotics", "run_sweep",
                             self._recording)

    def _recording(self, run_sweep):
        sweeps = self.sweeps

        def recorded(*args, **kwargs):
            report = run_sweep(*args, **kwargs)
            sweeps.append(report)
            return report
        return recorded

    def close(self):
        self._patches.restore()

    def iteration(self, cfgs=None) -> Iteration:
        cfgs = copy.deepcopy(self.cfgs if cfgs is None else cfgs)
        it = Iteration()
        outdir = Path(tempfile.mkdtemp(prefix="iter-", dir=self.workdir))
        self.sweeps.clear()
        ran = []        # (config, echoed [status, name] pairs, stamps, sweeps)
        wall0, cpu0 = time.perf_counter(), time.process_time()
        for i, cfg in enumerate(cfgs):
            stamps, found, first = [time.perf_counter()], [], len(self.sweeps)

            def echo(line, stamps=stamps, found=found):
                stamps.append(time.perf_counter())
                found.append(line.split()[:2])
            try:
                self.run_scenario(cfg, outdir=outdir / f"{i}_{cfg['name']}",
                                  echo=echo)
            except Exception as err:  # a raised error is a failed check
                it.errors.append(f"{cfg['name']}: {type(err).__name__}: {err}")
            ran.append((cfg, found, stamps, self.sweeps[first:]))
        it.wall_s = time.perf_counter() - wall0
        it.cpu_s = time.process_time() - cpu0
        it.digest = _digest(outdir)
        shutil.rmtree(outdir)

        for cfg, found, stamps, sweeps in ran:
            name = cfg["name"]
            for k, entry in enumerate(cfg["checks"]):
                check = entry if isinstance(entry, str) else entry["check"]
                passed = k < len(found) and found[k][0] == "PASS"
                it.ops[("check", name, k, check)] = passed
            for k, (_, outcome) in enumerate(found):
                it.check_s[outcome] += stamps[k + 1] - stamps[k]
            for j, report in enumerate(sweeps):
                for eps in report.eps:
                    it.ops[("eps", name, j, float(eps))] = True
                for eps in report.incomplete:
                    it.ops[("eps", name, j, float(eps))] = False
        return it


def _blas_threads():
    """Thread count reported by the loaded OpenBLAS, or None."""
    try:
        with open("/proc/self/maps") as fh:
            libs = sorted({line.split()[-1] for line in fh
                           if "blas" in line.lower() and "/" in line})
    except OSError:
        return None
    for lib in libs:
        try:
            handle = ctypes.CDLL(lib)
        except OSError:
            continue
        for name in ("scipy_openblas_get_num_threads64_",
                     "openblas_get_num_threads64_",
                     "openblas_get_num_threads"):
            fn = getattr(handle, name, None)
            if fn is not None:
                fn.restype, fn.argtypes = ctypes.c_int, []
                return int(fn())
    return None


def _cpu_model():
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or platform.machine()


def machine_record():
    import numpy as np

    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {"nproc": len(os.sched_getaffinity(0)), "cpu": _cpu_model(),
            "python": platform.python_version(), "numpy": np.__version__,
            "blas": f"{blas.get('name')} {blas.get('version')}",
            "blas_threads": _blas_threads(),
            "blas_env": {v: os.environ.get(v) for v in BLAS_ENV}}


def _setup_child_s(args) -> float:
    start = time.perf_counter()
    subprocess.run([sys.executable, str(Path(__file__).resolve()),
                    "--workload", args.workload, "--seed", str(args.seed),
                    "--setup-only"], check=True, stdout=subprocess.DEVNULL)
    return time.perf_counter() - start


def _metric(value, unit):
    return {"value": value, "unit": unit}


def measure(args, runner, probes, record):
    """Set-up, timed loop and probes; returns (metrics, attempted, failed)."""
    child_s = [_setup_child_s(args) for _ in range(SETUP_REPEATS)]
    warm = runner.iteration()
    record["setup"] = {"child_s": child_s, "warmup_s": warm.wall_s}
    setup_s = median(child_s) + warm.wall_s

    timed, traced, layers = [], [], []
    tracer = spans.Tracer() if args.trace else None
    start = time.perf_counter()
    while not timed or time.perf_counter() - start < args.seconds:
        timed.append(runner.iteration())
        if tracer is not None:
            tracer.install()
            try:
                traced.append(runner.iteration())
            finally:
                tracer.uninstall()
            layers.append(tracer.layer_metrics())

    ops_timed = []
    for it in timed + traced:
        ops = dict(it.ops)
        ops[("digest",)] = it.digest == warm.digest
        ops_timed.append(ops)
    if len(layers) > 1:
        ops_timed[-1][("exact_counts",)] = all(
            layer[n] == layers[0][n]
            for layer in layers[1:] for n in spans.EXACT_COUNTS)

    # One verdict per distinct operation: passed only if it passed every time.
    distinct = {}
    for ops in ops_timed:
        for key, ok in ops.items():
            distinct[key] = distinct.get(key, True) and ok
    for cfg in probes:
        probe = runner.iteration([cfg])
        ok = not probe.errors and all(probe.ops.values())
        distinct[("probe", cfg["name"])] = ok
        record.setdefault("probes", []).append(
            {"scenario": cfg["name"], "passed": ok, "errors": probe.errors})

    record["iterations"] = {"wall_s": [it.wall_s for it in timed],
                            "cpu_s": [it.cpu_s for it in timed]}
    record["verdicts"] = {"/".join(map(str, k)): ok
                          for k, ok in sorted(distinct.items(), key=str)}
    record["errors"] = sorted({e for it in [warm] + timed + traced
                               for e in it.errors})

    if tracer is None:
        rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
        metrics = {
            "wall_s": _metric(median([it.wall_s for it in timed]), "s"),
            "cpu_s": _metric(median([it.cpu_s for it in timed]), "s"),
            "setup_s": _metric(setup_s, "s"),
            "peak_rss_mb": _metric(rss_mb, "MB"),
            "checks_passed_ratio": _metric(
                sum(distinct.values()) / len(distinct), "ratio"),
        }
    else:
        record["iterations"]["traced_wall_s"] = [it.wall_s for it in traced]
        metrics = {}
        for name in layers[0]:
            values = [la[name] for la in layers]
            if name.endswith("_s"):
                metrics[name] = _metric(median(values), "s")
            else:
                unit = "B" if name.endswith(".bytes") else "count"
                metrics[name] = _metric(median_low(values), unit)
        for name in workloads.CHECK_NAMES:
            metrics[f"scenario.check.{name}.wall_s"] = _metric(
                median([it.check_s.get(name, 0.0) for it in traced]), "s")
        metrics["trace.overhead_ratio"] = _metric(
            median([it.wall_s for it in traced]) /
            median([it.wall_s for it in timed]), "ratio")
        record["spans_file"] = str(write_spans(args.workload, tracer.spans))

    attempted = sum(len(ops) for ops in ops_timed)
    failed = sum(not ok for ops in ops_timed for ok in ops.values())
    return metrics, attempted, failed


def write_spans(workload, spans_list) -> Path:
    path = OUT_DIR / f"spans-{workload}.jsonl"
    with open(path, "w") as fh:
        for name, start, end, parent in spans_list:
            fh.write(json.dumps([name, start, end, parent]) + "\n")
    return path.relative_to(BENCH_DIR.parent)


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (SRC / "onewave" / "__init__.py").is_file():
        print(f"bench: onewave sources not found under {SRC}", file=sys.stderr)
        return 2
    for var in BLAS_ENV:
        os.environ[var] = BLAS_THREADS
    sys.path.insert(0, str(SRC))
    cfgs, probes = workloads.validated(args.workload, args.seed)
    if args.setup_only:
        return 0

    record = {"workload": args.workload, "seed": args.seed,
              "seconds": args.seconds, "trace": args.trace,
              "machine": machine_record(),
              "loop": "closed, one client, serial scenarios"}
    OUT_DIR.mkdir(exist_ok=True)
    workdir = Path(tempfile.mkdtemp(prefix="run-", dir=OUT_DIR))
    runner = Runner(cfgs, workdir)
    try:
        metrics, attempted, failed = measure(args, runner, probes, record)
    finally:
        runner.close()
        shutil.rmtree(workdir, ignore_errors=True)
    print(json.dumps({"record": record}))
    print(json.dumps({"correct": failed == 0, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
