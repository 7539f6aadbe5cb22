"""dcffair benchmark: one workload, measured in this process.

    python3 benchmarks/run.py --workload demo --seed 1 --seconds 10 --trace 0

Workloads (see workloads.py and BENCHMARK.json): demo, poisson, montecarlo,
analytic. The run repeats the workload's operation, each with its own seed
derived from --seed, until --seconds of operation time are measured, checks
every operation's outputs outside the timed region, and repeats operation 0
at the end to check that the same seed gives the same outputs.

With --trace 0 it reports the end-to-end metrics:

* setup_s: median seconds, over SETUP_REPEATS fresh processes, from
  process start to the workload's configs being built and validated,
  scaled to the reference host speed (BARE_START_REF_S);
* wall_s: median seconds per operation (one CLI pipeline for demo and
  poisson, one round of replications and long runs for montecarlo, one
  sweep for analytic), scaled to the reference host speed (CALIB_REF_S);
* peak_rss_mb: ru_maxrss of this process.

With --trace 1 it alternates untraced and traced operations, reports the
per-layer metrics (spans.PER_LAYER) from the spans of the traced ones plus
the tracing overhead, and writes the spans to .bench_out/.

The last line on stdout is the result; the line before it holds the run's
metadata, including the unscaled set-up and operation times:

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

``failed / attempted`` is the error rate: a failure is an exception, a
non-zero CLI exit code or a failed output check.
"""

from __future__ import annotations

import argparse
import contextlib
import csv
import dataclasses
import heapq
import io
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
import traceback
from pathlib import Path

import numpy as np

import workloads  # first: puts this tree's src/ on sys.path
import spans

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
WORK_ROOT = ROOT / ".bench_work"
OUT_ROOT = ROOT / ".bench_out"

SETUP_REPEATS = 5
SETUP_TIMEOUT_S = 60
MIN_OPS = 3  # traced runs need at least one traced operation

# The host's speed drifts by up to +-20% over tens of seconds (shared
# 2-core VM), far more than one run can average out. Every operation is
# therefore bracketed by a fixed calibration loop and its time scaled to the
# speed at which that loop takes CALIB_REF_S, its typical time on the 2-core
# Xeon VM this benchmark was written on.
CALIB_REF_S = 0.06
# Set-up times are scaled likewise by a bare Python start that imports numpy,
# which takes BARE_START_REF_S on that VM.
BARE_START = [sys.executable, "-c", "import numpy; print('ready', flush=True)"]
BARE_START_REF_S = 0.14

# name -> (unit, better)
END_TO_END = {
    "setup_s": ("s", "lower"),
    "wall_s": ("s", "lower"),
    "peak_rss_mb": ("MB", "lower"),
}


class _Counter:
    __slots__ = ("total",)

    def __init__(self):
        self.total = 0

    def add(self, x: int) -> int:
        self.total += x
        return self.total & 4095


@dataclasses.dataclass(frozen=True)
class _Row:
    index: int
    start: int
    outcome: str


def calibration_s() -> float:
    """Wall seconds of a fixed mix of the work dcffair does (integer and
    dict work, method calls on slotted objects, heaps, numpy scalar reads
    and RNG construction, array reductions, frozen dataclasses, list growth
    and CSV formatting): the host's current speed."""
    started = time.perf_counter()
    table = {}
    total = 0
    for i in range(50_000):
        total += i * i
        table[i & 1023] = total
    counters = [_Counter() for _ in range(64)]
    heap: list[tuple[int, int]] = []
    for i in range(15_000):
        heapq.heappush(heap, (counters[i & 63].add(i), i))
        if len(heap) > 32:
            heapq.heappop(heap)
    for i in range(100):
        seq = np.random.SeedSequence(entropy=i, spawn_key=(i, 1))
        buffer = np.random.Generator(np.random.Philox(seq)).random(256)
    for i in range(20_000):
        total += int(buffer[i & 255] * 32)
    x = np.arange(100_000, dtype=float)
    float((x * x).sum() + np.cumsum(x)[-1])
    rows = [_Row(i, i * 20, "idle") for i in range(5_000)]
    grown = []
    for i in range(50_000):
        grown.append(i & 255)
    csv.writer(io.StringIO()).writerows(
        [r.index, r.start, r.outcome, str(r.index & 7), 8972] for r in rows)
    return time.perf_counter() - started


def reference_timed(fn):
    """fn()'s result, its wall seconds, and those seconds at the reference
    speed, from calibration loops just before and just after it."""
    before = calibration_s()
    started = time.perf_counter()
    result = fn()
    elapsed = time.perf_counter() - started
    after = calibration_s()
    return result, elapsed, elapsed * 2 * CALIB_REF_S / (before + after)


def _start_until_ready(argv: list[str]) -> float:
    """Wall seconds from starting argv to its "ready" line; waits for exit."""
    started = time.perf_counter()
    proc = subprocess.Popen(argv, stdout=subprocess.PIPE, text=True)
    try:
        line = proc.stdout.readline()
        elapsed = time.perf_counter() - started
        proc.communicate(timeout=SETUP_TIMEOUT_S)
    finally:
        if proc.poll() is None:
            proc.kill()
            proc.wait()
    if line.strip() != "ready" or proc.returncode != 0:
        raise RuntimeError(f"{argv} failed (exit code {proc.returncode})")
    return elapsed


def time_setup(name: str, seed: int, work: Path) -> list[tuple[float, float]]:
    """(wall, reference) seconds from starting a process to the workload
    being ready, for each of SETUP_REPEATS fresh processes.

    Set-up covers starting Python, importing dcffair and building and
    validating the workload's configs. Process start-up tracks the host's
    speed differently from the calibration loop, so each set-up is scaled
    by bare ``import numpy`` process starts just before and after it.
    """
    bare = [_start_until_ready(BARE_START)]
    times = []
    for i in range(SETUP_REPEATS):
        probe_dir = work / f"setup{i}"
        elapsed = _start_until_ready(
            [sys.executable, str(BENCH_DIR / "workloads.py"), name,
             str(seed), str(probe_dir)])
        shutil.rmtree(probe_dir, ignore_errors=True)
        bare.append(_start_until_ready(BARE_START))
        times.append((elapsed,
                      elapsed * 2 * BARE_START_REF_S / (bare[-2] + bare[-1])))
    return times


def measure(wl, seconds: float, recorder: spans.SpanRecorder | None):
    """Run operations until `seconds` of operation time are measured.

    Operation 0 is a warm-up, checked but not timed, and is repeated at the
    end to check that the same seed gives the same outputs. With a recorder,
    even-numbered operations are traced. Returns the (wall, reference)
    seconds of the untraced and of the traced operations, the attempted and
    failed counts and the failure messages.
    """
    times: dict[bool, list[tuple[float, float]]] = {False: [], True: []}
    attempted = failed = 0
    spent = 0.0
    errors: list[str] = []

    def attempt(k: int, trace: bool):
        """Fingerprint of operation k's outputs, or None if it failed."""
        nonlocal attempted, failed, spent
        attempted += 1
        started = time.perf_counter()
        elapsed = None
        try:
            with (recorder.recording(k) if trace
                  else contextlib.nullcontext()):
                result, elapsed, ref = reference_timed(lambda: wl.run(k))
            times[trace].append((elapsed, ref))
            return wl.check(k, result)
        except Exception:  # a failed operation is counted and reported
            failed += 1
            errors.append(f"operation {k}: {traceback.format_exc()}")
            return None
        finally:
            spent += (elapsed if elapsed is not None
                      else time.perf_counter() - started)
            wl.clean(k)

    first = attempt(0, False)
    times[False].clear()
    spent = 0.0
    k = 1
    while k <= MIN_OPS or spent < seconds:
        attempt(k, recorder is not None and k % 2 == 0)
        k += 1
    measured = len(times[False])
    repeat = attempt(0, False)
    del times[False][measured:]
    if first is not None and repeat is not None and first != repeat:
        failed += 1
        errors.append("operation 0 repeated with the same seed gave "
                      "different outputs")
    return times[False], times[True], attempted, failed, errors


def _git_commit() -> str | None:
    head = ROOT / ".git" / "HEAD"
    if not head.is_file():
        return None
    ref = head.read_text().strip()
    if not ref.startswith("ref: "):
        return ref
    ref_file = ROOT / ".git" / ref[5:]
    if ref_file.is_file():
        return ref_file.read_text().strip()
    packed = ROOT / ".git" / "packed-refs"
    if packed.is_file():
        for line in packed.read_text().splitlines():
            if line.endswith(" " + ref[5:]):
                return line.split()[0]
    return None


def _cpu_model() -> str:
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or platform.machine()


def metadata(args) -> dict:
    src_lines = sum(len(p.read_text().splitlines())
                    for p in sorted((ROOT / "src").rglob("*.py")))
    return {
        "workload": args.workload, "seed": args.seed,
        "seconds": args.seconds, "trace": args.trace,
        "nproc": len(os.sched_getaffinity(0)), "cpu": _cpu_model(),
        "python": platform.python_version(), "numpy": np.__version__,
        "commit": _git_commit(), "src_lines": src_lines,
    }


def _median(pairs: list[tuple[float, float]], i: int) -> float:
    return statistics.median(p[i] for p in pairs) if pairs else 0.0


def run_benchmark(workload: str, seed: int, seconds: float,
                  trace: bool) -> tuple[dict, dict, list[str], list[dict]]:
    """Result object, wall-clock figures, failure messages and spans of one
    benchmark run."""
    work = WORK_ROOT / f"{workload}-{os.getpid()}"
    work.mkdir(parents=True, exist_ok=True)
    try:
        setup = [] if trace else time_setup(workload, seed, work)
        wl = workloads.WORKLOADS[workload](seed, work)
        recorder = spans.SpanRecorder() if trace else None
        untraced, traced, attempted, failed, errors = measure(
            wl, seconds, recorder)
        peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    finally:
        shutil.rmtree(work, ignore_errors=True)
        if WORK_ROOT.is_dir() and not any(WORK_ROOT.iterdir()):
            WORK_ROOT.rmdir()
    wall = {"setup_wall_s": _median(setup, 0),
            "untraced_wall_s": _median(untraced, 0),
            "traced_wall_s": _median(traced, 0)}
    if trace:
        values = spans.per_layer(recorder, _median(untraced, 1),
                                 _median(traced, 1))
        units = spans.PER_LAYER
        span_list = recorder.to_json()
    else:
        values = {"setup_s": _median(setup, 1),
                  "wall_s": _median(untraced, 1),
                  "peak_rss_mb": peak_rss_mb}
        units = END_TO_END
        span_list = []
    result = {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": float(values[name]), "unit": unit}
                    for name, (unit, _) in units.items()},
    }
    return result, wall, errors, span_list


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    # dcffair reads DCFFAIR_* config overrides from the environment; a stray
    # one would change the workload
    for key in [k for k in os.environ if k.startswith("DCFFAIR_")]:
        del os.environ[key]

    result, wall, errors, span_list = run_benchmark(
        args.workload, args.seed, args.seconds, bool(args.trace))
    for message in errors:
        print(message, file=sys.stderr)
    meta = {**metadata(args), "calibration_ref_s": CALIB_REF_S, **wall}
    print(json.dumps({"meta": meta}), flush=True)
    if args.trace:
        OUT_ROOT.mkdir(exist_ok=True)
        path = OUT_ROOT / f"spans-{args.workload}-seed{args.seed}.json"
        path.write_text(json.dumps({"meta": meta, "spans": span_list}))
    print(json.dumps(result), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
