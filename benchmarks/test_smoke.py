"""Smoke test of the benchmark itself, at tiny sizes.

    python3 -m pytest benchmarks
"""

import json
import shutil
import subprocess
import sys

import pytest

import run
import workloads
from dcffair import cli

BENCHMARK = json.loads((run.ROOT / "BENCHMARK.json").read_text())


@pytest.fixture
def tiny(monkeypatch):
    monkeypatch.setitem(cli.DEMO_CONFIG["sim"], "horizon_slots", 5000)
    monkeypatch.setattr(workloads, "POISSON_HORIZON_US", 30_000_000)
    monkeypatch.setattr(workloads, "COLD_REPS", 3)
    monkeypatch.setattr(workloads, "LONG_HORIZON_SLOTS",
                        {2: 2000, 10: 2000, 50: 2000})
    monkeypatch.setattr(workloads, "PMF_LS", (1, 100))
    monkeypatch.setattr(workloads, "HORIZON_TARGETS", ((0.5, 0.05),))
    monkeypatch.setattr(workloads, "GPS_PACKETS", 50)
    monkeypatch.setattr(run, "SETUP_REPEATS", 1)


@pytest.mark.parametrize("trace", [False, True])
@pytest.mark.parametrize("workload", sorted(workloads.WORKLOADS))
def test_every_metric_is_emitted_with_its_unit(tiny, workload, trace):
    result, _, errors, _ = run.run_benchmark(workload, seed=3,
                                             seconds=0.0, trace=trace)
    assert errors == []
    assert result["correct"] and result["failed"] == 0
    assert result["attempted"] == run.MIN_OPS + 2
    table = BENCHMARK["per_layer" if trace else "end_to_end"]
    assert ({name: m["unit"] for name, m in result["metrics"].items()}
            == {m["name"]: m["unit"] for m in table})
    if not trace:
        assert all(m["value"] > 0 for m in result["metrics"].values())


def test_corrupted_output_counts_as_failure(tiny, monkeypatch):
    run_op = workloads.Demo.run

    def run_and_drop_last_slot(self, k):
        calls = run_op(self, k)
        path = self.op_dir(k) / "slot_trace.csv"
        path.write_text("".join(path.read_text().splitlines(True)[:-1]))
        return calls

    monkeypatch.setattr(workloads.Demo, "run", run_and_drop_last_slot)
    result, _, errors, _ = run.run_benchmark("demo", seed=3, seconds=0.0,
                                             trace=False)
    assert not result["correct"]
    assert result["failed"] == result["attempted"] == run.MIN_OPS + 2
    assert all("slot_trace.csv" in e for e in errors)


def test_fails_without_the_sources(tmp_path):
    shutil.copy(run.ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(run.BENCH_DIR, tmp_path / "benchmarks",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run(
        [sys.executable, "benchmarks/run.py", "--workload", "analytic",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
