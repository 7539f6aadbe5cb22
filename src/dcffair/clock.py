"""GPS fluid reference and the recursive departure clock of a tagged station.

The fluid GPS reference serves every backlogged station at rate
C * phi_i / sum_{j in B} phi_j whenever B is the backlogged set, which is
perfectly fair on any time scale. The departure clock decomposes the tagged
station's packet departures into T_j = T_{j-1} + I_j, where I_j sums the
slot durations strictly after the (j-1)-th tagged success up to and
including the j-th; subtracting a fair increment leaves per-packet error
terms e_j = I_j - fair_increment whose sample mean vanishes when the fair
increment matches the true mean service spacing.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .errors import AlignmentError, EmptyClockError
from .traceio import SUCCESS, SlotTrace


@dataclass(frozen=True)
class GpsInterval:
    """Maximal interval with a constant backlogged set."""

    start: float
    end: float
    backlogged: tuple[int, ...]
    delivered: np.ndarray  # fluid per station over the interval


@dataclass
class GpsReference:
    """Fluid GPS finish times per station, plus the backlog intervals."""

    weights: np.ndarray
    capacity: float  # work units per second
    finish_times: list[np.ndarray]
    intervals: list[GpsInterval]


@dataclass
class ClockTrace:
    """Tagged-station departures, increments, and error terms.

    departures[j] = sum of increments[0..j], exact in integer microseconds.
    The first increment includes the partial interval from the trace start
    to the first tagged success; discard it as a warm-up sample when that
    matters.
    """

    departures: np.ndarray     # int64 us
    increments: np.ndarray     # int64 us
    fair_increment: float      # us
    errors: np.ndarray         # float us


@dataclass(frozen=True)
class DeviationSummary:
    """Per-packet deviation statistics between two departure series."""

    count: int
    mean: float
    p05: float
    p50: float
    p95: float
    max_abs: float


_BREAKPOINT_TOL = 1e-9  # us


def gps_finish_times(
    arrivals: Sequence[Sequence[tuple[float, float]]],
    weights: Sequence[float] | np.ndarray,
    capacity: float,
) -> GpsReference:
    """Fluid-GPS packet finish times.

    arrivals[i] lists (arrival_us, size) per packet of station i, time
    ordered; capacity is in work units per second. Simulation proceeds over
    backlog-change breakpoints; a packet finishes when its cumulative fluid
    equals its size.
    """
    weights = np.asarray(weights, dtype=float)
    n = weights.size
    if len(arrivals) != n:
        raise ValueError("one arrival list per station required")
    if capacity <= 0.0:
        raise ValueError("capacity must be positive")
    if np.any(weights <= 0.0):
        raise ValueError("weights must be positive")
    cap_us = capacity * 1e-6

    arr = [list(a) for a in arrivals]
    for a in arr:
        times = [t for t, _ in a]
        if times != sorted(times):
            raise ValueError("arrivals must be time ordered per station")

    next_pkt = [0] * n          # next packet not yet queued
    queue: list[list[float]] = [[] for _ in range(n)]  # remaining sizes
    head: list[int] = [0] * n   # index of the head-of-line packet
    finish: list[list[float]] = [[] for _ in range(n)]
    intervals: list[GpsInterval] = []

    pending = [a[0][0] for a in arr if a]
    t = min(pending) if pending else 0.0

    def admit(now: float) -> None:
        for i in range(n):
            while (next_pkt[i] < len(arr[i])
                   and arr[i][next_pkt[i]][0] <= now + _BREAKPOINT_TOL):
                size = arr[i][next_pkt[i]][1]
                if size <= 0.0:
                    raise ValueError("packet sizes must be positive")
                queue[i].append(size)
                next_pkt[i] += 1

    admit(t)
    while True:
        backlogged = [i for i in range(n) if head[i] < len(queue[i])]
        if not backlogged:
            upcoming = [arr[i][next_pkt[i]][0] for i in range(n)
                        if next_pkt[i] < len(arr[i])]
            if not upcoming:
                break
            t = min(upcoming)
            admit(t)
            continue
        phi_total = float(np.sum(weights[backlogged]))
        rates = {i: cap_us * weights[i] / phi_total for i in backlogged}
        dt_finish = min(queue[i][head[i]] / rates[i] for i in backlogged)
        upcoming = [arr[i][next_pkt[i]][0] for i in range(n)
                    if next_pkt[i] < len(arr[i])]
        dt_arrival = min(upcoming) - t if upcoming else np.inf
        dt = min(dt_finish, dt_arrival)
        t_new = t + dt
        delivered = np.zeros(n)
        for i in backlogged:
            remaining = queue[i][head[i]]
            # a head within breakpoint tolerance of completing completes
            if remaining / rates[i] <= dt * (1.0 + 1e-12) + _BREAKPOINT_TOL:
                delivered[i] = remaining
                finish[i].append(t_new)
                head[i] += 1
            else:
                served = rates[i] * dt
                delivered[i] = served
                queue[i][head[i]] = remaining - served
        intervals.append(GpsInterval(start=t, end=t_new,
                                     backlogged=tuple(backlogged),
                                     delivered=delivered))
        t = t_new
        admit(t)

    return GpsReference(
        weights=weights,
        capacity=capacity,
        finish_times=[np.array(f) for f in finish],
        intervals=intervals,
    )


def dcf_clock(slot_trace: SlotTrace, tagged: int,
              fair_increment: float) -> ClockTrace:
    """Departure clock of the tagged station over a slot trace.

    fair_increment is the reference spacing subtracted from every
    increment; use the analytical mean increment for zero-mean error terms,
    or any user-chosen value for sensitivity studies.
    """
    if len(slot_trace) == 0:
        raise ValueError("slot trace is empty")
    is_tagged_success = (slot_trace.codes == SUCCESS) & (slot_trace.owners == tagged)
    if not np.any(is_tagged_success):
        raise EmptyClockError(
            f"station {tagged} never succeeds in this trace"
        )
    cumulative = np.cumsum(slot_trace.durations)
    departures = cumulative[is_tagged_success]
    increments = np.diff(departures, prepend=np.int64(0))
    errors = increments.astype(float) - fair_increment
    return ClockTrace(
        departures=departures,
        increments=increments,
        fair_increment=fair_increment,
        errors=errors,
    )


def clock_vs_gps(clock: ClockTrace,
                 reference: np.ndarray) -> DeviationSummary:
    """Per-packet deviation of the clock from a reference departure series.

    reference holds the tagged station's reference finish times in us, such
    as gps_finish_times(...).finish_times[tagged]; deviation_j = T_j -
    reference[j], and the two series must cover the same packet index range.
    """
    if reference.size != clock.departures.size:
        raise AlignmentError(
            f"clock has {clock.departures.size} packets, reference has "
            f"{reference.size}"
        )
    dev = clock.departures.astype(float) - reference
    return DeviationSummary(
        count=int(dev.size),
        mean=float(np.mean(dev)),
        p05=float(np.quantile(dev, 0.05)),
        p50=float(np.quantile(dev, 0.50)),
        p95=float(np.quantile(dev, 0.95)),
        max_abs=float(np.max(np.abs(dev))),
    )
