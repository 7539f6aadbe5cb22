"""Span recorder for the traced benchmark run, and the per-layer metrics.

While an operation is recorded, the public functions in TARGETS are
replaced at the attribute each caller resolves: ``dcffair.<module>.<f>``,
plus the names ``cli`` imported from ``mac`` directly. Each call becomes a
span (operation, name, parent, start, end, counts) kept in memory; the
originals are restored after the operation. Self time is a span's duration
minus the durations of its child spans.
"""

from __future__ import annotations

import functools
import os
import statistics
import time
from contextlib import contextmanager

import numpy as np

import workloads  # noqa: F401  (first: puts this tree's src/ on sys.path)
from dcffair import cli, clock, estimator, fairness, mac, netcalc, sim, traceio


def _write_counts(args, kwargs, result):
    # every caller passes (data, path) positionally
    return {"rows": len(args[0]), "bytes": os.path.getsize(args[1])}


def _read_counts(args, kwargs, result):
    return {"rows": len(result)}


def _sim_counts(args, kwargs, result):
    c = result.counters
    return {"n": result.config.n, "mode": result.config.mode,
            "cold": kwargs.get("stop_after_tagged") is not None,
            "slots": c.n_slots, "success": c.success_slots,
            "tx": c.success_slots + c.collision_slots}


_MAC = ("solve_attempt_fixed_point", "solve_attempt_fixed_point_vector",
        "slot_distribution", "saturation_throughput")
_TRACE_IO = tuple(f"{way}_{kind}_csv" for way in ("write", "read")
                  for kind in ("slot_trace", "event_trace", "ownership"))

# (module, attributes, layer): the span of module.attribute is named
# "<layer>.<attribute>"; cli's own imports of mac names count as mac
_SPANNED = (
    (cli, ("main", "cmd_demo", "cmd_simulate", "cmd_model", "cmd_fairness",
           "cmd_clock", "cmd_servicecurve", "cmd_estimate"), "cli"),
    (cli, _MAC, "mac"),
    (mac, _MAC, "mac"),
    (sim, ("run",), "sim"),
    (traceio, _TRACE_IO, "traceio"),
    (clock, ("gps_finish_times", "dcf_clock"), "clock"),
    (fairness, ("conditional_pmf", "short_term_horizon", "windowed_fairness"),
     "fairness"),
    (netcalc, ("optimize_theta", "service_curve"), "netcalc"),
    (estimator, ("estimate_fair_rate", "convergence_report",
                 "detect_busy_periods"), "estimator"),
)

# counts(args, kwargs, result) recorded with the span of that name
_COUNTS = {
    **{f"traceio.{f}": _write_counts for f in _TRACE_IO
       if f.startswith("write")},
    **{f"traceio.{f}": _read_counts for f in _TRACE_IO
       if f.startswith("read")},
    "sim.run": _sim_counts,
    "mac.solve_attempt_fixed_point_vector":
        lambda a, kw, r: {"iterations": r.iterations},
    "clock.gps_finish_times": lambda a, kw, r: {"intervals": len(r.intervals)},
    "fairness.conditional_pmf": lambda a, kw, r: {"terms": int(r.pmf.size)},
    "estimator.detect_busy_periods": _read_counts,
}

TARGETS = [(module, attr, f"{layer}.{attr}", _COUNTS.get(f"{layer}.{attr}"))
           for module, attrs, layer in _SPANNED for attr in attrs]


class SpanRecorder:
    """In-memory spans of the recorded operations."""

    def __init__(self):
        # [op, name, parent index or -1, start, end, counts or None]
        self.spans: list[list] = []
        self._stack: list[int] = []
        self._op = -1

    def _wrap(self, name, fn, counts):
        spans, stack = self.spans, self._stack

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span = [self._op, name, stack[-1] if stack else -1, 0.0, 0.0,
                    None]
            stack.append(len(spans))
            spans.append(span)
            span[3] = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                span[4] = time.perf_counter()
                stack.pop()
            if counts is not None:
                span[5] = counts(args, kwargs, result)
            return result
        return traced

    @contextmanager
    def recording(self, op: int):
        """Record spans of operation op; the originals are restored after."""
        saved = []
        for module, attr, name, counts in TARGETS:
            original = getattr(module, attr)
            saved.append((module, attr, original))
            setattr(module, attr, self._wrap(name, original, counts))
        self._op = op
        try:
            yield
        finally:
            for module, attr, original in reversed(saved):
                setattr(module, attr, original)
            self._op = -1

    def self_times(self) -> list[float]:
        child = [0.0] * len(self.spans)
        for op, name, parent, start, end, _ in self.spans:
            if parent >= 0:
                child[parent] += end - start
        return [s[4] - s[3] - c for s, c in zip(self.spans, child)]

    def to_json(self) -> list[dict]:
        return [{"op": op, "name": name, "parent": parent, "start": start,
                 "end": end, "self": own, "counts": counts}
                for (op, name, parent, start, end, counts), own
                in zip(self.spans, self.self_times())]


# name -> (unit, better); traced runs report every one of them, and 0 for a
# layer the workload does not call
PER_LAYER = {
    **{f"traceio.{kind}_{way}_rows_per_s": ("1/s", "higher")
       for kind in ("slot", "event", "ownership")
       for way in ("write", "read")},
    "traceio.rows": ("count", "lower"),
    "traceio.bytes_written": ("bytes", "lower"),
    "sim.tx_slots_per_s.n2": ("1/s", "higher"),
    "sim.tx_slots_per_s.n10": ("1/s", "higher"),
    "sim.tx_slots_per_s.n50": ("1/s", "higher"),
    "sim.cold_run_ms.p50": ("ms", "lower"),
    "sim.cold_run_ms.p99": ("ms", "lower"),
    "sim.poisson_slots_per_s": ("1/s", "higher"),
    "sim.run_s": ("s", "lower"),
    "sim.run_calls": ("count", "lower"),
    "sim.tx_slots": ("count", "lower"),
    "sim.success_frac": ("ratio", "higher"),
    "clock.gps_s": ("s", "lower"),
    "clock.gps_intervals": ("count", "lower"),
    "clock.dcf_clock_s": ("s", "lower"),
    "fairness.conditional_pmf_s": ("s", "lower"),
    "fairness.pmf_builds": ("count", "lower"),
    "fairness.pmf_terms": ("count", "lower"),
    "fairness.short_term_horizon_s": ("s", "lower"),
    "fairness.windowed_s": ("s", "lower"),
    "mac.fixed_point_ms": ("ms", "lower"),
    "mac.vector_fixed_point_ms": ("ms", "lower"),
    "mac.vector_iterations": ("count", "lower"),
    "netcalc.optimize_theta_ms": ("ms", "lower"),
    "netcalc.service_curve_s": ("s", "lower"),
    "estimator.estimate_s": ("s", "lower"),
    "estimator.convergence_s": ("s", "lower"),
    "estimator.busy_periods": ("count", "lower"),
    **{f"cli.{cmd}_s": ("s", "lower")
       for cmd in ("simulate", "model", "fairness", "clock", "servicecurve",
                   "estimate", "self")},
    "bench.untraced_wall_s": ("s", "lower"),
    "bench.traced_wall_s": ("s", "lower"),
    "bench.trace_overhead_frac": ("ratio", "lower"),
}


def _median(values) -> float:
    return float(statistics.median(values)) if values else 0.0


def _rate(work, seconds) -> float:
    return work / seconds if seconds > 0 else 0.0


def per_layer(rec: SpanRecorder, untraced_s: float,
              traced_s: float) -> dict[str, float]:
    """Per-layer metrics from the recorded spans.

    Seconds per operation are medians over the recorded operations; per-call
    milliseconds are medians over calls; rates are total work over total
    span time; counts cover the first recorded operation only, so they
    repeat exactly for a seed whatever the run length. untraced_s and
    traced_s are the median operation times at the reference speed.
    """
    ops = sorted({s[0] for s in rec.spans})
    first = ops[0] if ops else None
    spans = [(op, name, end - start, own, counts or {})
             for (op, name, _, start, end, counts), own
             in zip(rec.spans, rec.self_times())]

    def select(name, pred=lambda c: True):
        return [s for s in spans if s[1] == name and pred(s[4])]

    def per_op_s(name):
        total = dict.fromkeys(ops, 0.0)
        for op, _, dur, _, _ in select(name):
            total[op] += dur
        return _median(list(total.values()))

    def call_ms(name, pred=lambda c: True, q=None):
        durs = [dur * 1e3 for _, _, dur, _, _ in select(name, pred)]
        if not durs:
            return 0.0
        return float(np.percentile(durs, q)) if q else _median(durs)

    def first_count(name, key=None):
        """Sum of a count, or the number of calls, in the first operation."""
        return sum(c[key] if key else 1 for op, _, _, _, c in select(name)
                   if op == first)

    def rate(name, key, pred=lambda c: True):
        chosen = select(name, pred)
        return _rate(sum(c[key] for *_, c in chosen),
                     sum(dur for _, _, dur, _, _ in chosen))

    m = {}
    for kind in ("slot_trace", "event_trace", "ownership"):
        short = kind.split("_")[0]
        m[f"traceio.{short}_write_rows_per_s"] = rate(
            f"traceio.write_{kind}_csv", "rows")
        m[f"traceio.{short}_read_rows_per_s"] = rate(
            f"traceio.read_{kind}_csv", "rows")
    m["traceio.rows"] = sum(
        first_count(f"traceio.{way}_{kind}_csv", "rows")
        for way in ("write", "read")
        for kind in ("slot_trace", "event_trace", "ownership"))
    m["traceio.bytes_written"] = sum(
        first_count(f"traceio.write_{kind}_csv", "bytes")
        for kind in ("slot_trace", "event_trace", "ownership"))

    def long_run(n):
        return lambda c: c["n"] == n and c["mode"] == "saturated" \
            and not c["cold"]
    for n in (2, 10, 50):
        m[f"sim.tx_slots_per_s.n{n}"] = rate("sim.run", "tx", long_run(n))
    cold = lambda c: c["cold"]  # noqa: E731
    m["sim.cold_run_ms.p50"] = call_ms("sim.run", cold)
    m["sim.cold_run_ms.p99"] = call_ms("sim.run", cold, q=99)
    m["sim.poisson_slots_per_s"] = rate("sim.run", "slots",
                                        lambda c: c["mode"] == "poisson")
    m["sim.run_s"] = per_op_s("sim.run")
    m["sim.run_calls"] = first_count("sim.run")
    m["sim.tx_slots"] = first_count("sim.run", "tx")
    m["sim.success_frac"] = _rate(first_count("sim.run", "success"),
                                  m["sim.tx_slots"])

    m["clock.gps_s"] = per_op_s("clock.gps_finish_times")
    m["clock.gps_intervals"] = first_count("clock.gps_finish_times",
                                           "intervals")
    m["clock.dcf_clock_s"] = per_op_s("clock.dcf_clock")

    m["fairness.conditional_pmf_s"] = per_op_s("fairness.conditional_pmf")
    m["fairness.pmf_builds"] = first_count("fairness.conditional_pmf")
    m["fairness.pmf_terms"] = first_count("fairness.conditional_pmf", "terms")
    m["fairness.short_term_horizon_s"] = per_op_s(
        "fairness.short_term_horizon")
    m["fairness.windowed_s"] = per_op_s("fairness.windowed_fairness")

    m["mac.fixed_point_ms"] = call_ms("mac.solve_attempt_fixed_point")
    m["mac.vector_fixed_point_ms"] = call_ms(
        "mac.solve_attempt_fixed_point_vector")
    m["mac.vector_iterations"] = first_count(
        "mac.solve_attempt_fixed_point_vector", "iterations")
    m["netcalc.optimize_theta_ms"] = call_ms("netcalc.optimize_theta")
    m["netcalc.service_curve_s"] = per_op_s("netcalc.service_curve")

    m["estimator.estimate_s"] = per_op_s("estimator.estimate_fair_rate")
    m["estimator.convergence_s"] = per_op_s("estimator.convergence_report")
    m["estimator.busy_periods"] = first_count(
        "estimator.detect_busy_periods", "rows")

    for cmd in ("simulate", "model", "fairness", "clock", "servicecurve",
                "estimate"):
        m[f"cli.{cmd}_s"] = per_op_s(f"cli.cmd_{cmd}")
    cli_self = dict.fromkeys(ops, 0.0)
    for op, name, _, own, _ in spans:
        if name.startswith("cli."):
            cli_self[op] += own
    m["cli.self_s"] = _median(list(cli_self.values()))

    m["bench.untraced_wall_s"] = untraced_s
    m["bench.traced_wall_s"] = traced_s
    m["bench.trace_overhead_frac"] = _rate(traced_s, untraced_s) - 1.0
    return m
