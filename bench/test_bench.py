"""Tests of the benchmark itself:  python3 -m pytest bench/test_bench.py

Each test runs ``bench/run.py`` in a subprocess on the shorter workload.
"""

import json
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path

import pytest

BENCH_DIR = Path(__file__).resolve().parent
sys.path.insert(0, str(BENCH_DIR))

from spans import EXACT_COUNTS  # noqa: E402


def _run(bench_dir: Path, *args):
    return subprocess.run([sys.executable, str(bench_dir / "run.py"), *args],
                          capture_output=True, text=True, timeout=170)


def _result(proc):
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout.strip().splitlines()[-1])


@pytest.fixture(scope="module")
def traced_pair():
    args = ("--workload", "sweep_1024", "--seed", "7", "--seconds", "1",
            "--trace", "1")
    return [_result(_run(BENCH_DIR, *args)) for _ in range(2)]


def test_traced_runs_pass_and_report_every_layer(traced_pair):
    names = {m["name"] for m in json.loads(
        (BENCH_DIR.parent / "BENCHMARK.json").read_text())["per_layer"]}
    for result in traced_pair:
        assert result["correct"] and result["failed"] == 0
        assert set(result["metrics"]) == names


def test_exact_counts_repeat_across_runs(traced_pair):
    first, second = (r["metrics"] for r in traced_pair)
    for name in EXACT_COUNTS:
        assert first[name]["value"] == second[name]["value"], name
    assert first["quantization.fft.calls"]["value"] > 0
    assert first["symbols.seminorm.calls"]["value"] > 0


def test_untraced_run_reports_end_to_end_metrics():
    result = _result(_run(BENCH_DIR, "--workload", "sweep_1024",
                          "--seed", "7", "--seconds", "1", "--trace", "0"))
    spec = json.loads((BENCH_DIR.parent / "BENCHMARK.json").read_text())
    assert set(result["metrics"]) == {m["name"] for m in spec["end_to_end"]}
    assert result["correct"] and result["attempted"] > 0
    assert 0.0 < result["metrics"]["checks_passed_ratio"]["value"] <= 1.0


def test_refuses_to_run_without_the_package():
    (BENCH_DIR / "out").mkdir(exist_ok=True)
    alone = Path(tempfile.mkdtemp(prefix="alone-", dir=BENCH_DIR / "out"))
    try:
        shutil.copytree(BENCH_DIR, alone / "bench",
                        ignore=shutil.ignore_patterns("out", "__pycache__"))
        proc = _run(alone / "bench", "--workload", "sweep_1024",
                    "--seed", "1", "--seconds", "1", "--trace", "0")
    finally:
        shutil.rmtree(alone)
    assert proc.returncode != 0
    assert proc.stdout == ""
