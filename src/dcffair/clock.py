"""GPS fluid reference and the recursive departure clock of a tagged station.

The fluid GPS reference serves every backlogged station at rate C * phi_i /
sum_{j in B} phi_j whenever B is the backlogged set, which is perfectly
fair on any time scale. It runs in virtual time and reports its busy time
as maximal intervals of constant B. The departure clock decomposes the
tagged station's packet departures into T_j = T_{j-1} + I_j, where I_j sums
the slot durations strictly after the (j-1)-th tagged success up to and
including the j-th; subtracting a fair increment leaves per-packet error
terms e_j = I_j - fair_increment whose sample mean vanishes when the fair
increment matches the true mean service spacing.
"""

from __future__ import annotations

import heapq
import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .errors import AlignmentError, EmptyClockError
from .traceio import SUCCESS, SlotTrace


@dataclass(frozen=True)
class GpsIntervals:
    """Maximal busy intervals as columns: one backlogged set per row."""

    start: np.ndarray        # us, shape (m,)
    end: np.ndarray          # us, shape (m,)
    backlogged: np.ndarray   # bool, shape (m, n)
    delivered: np.ndarray    # work units per station, shape (m, n)

    def __len__(self) -> int:
        return self.start.size


@dataclass
class GpsReference:
    """GPS finish times per station, by virtual time, and busy intervals."""

    weights: np.ndarray
    capacity: float  # work units per second
    finish_times: list[np.ndarray]
    intervals: GpsIntervals


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


def gps_finish_times(arrivals: Sequence[Sequence[tuple[float, float]]],
                     weights: Sequence[float] | np.ndarray,
                     capacity: float) -> GpsReference:
    """Fluid-GPS packet finish times, computed in virtual time.

    arrivals[i] lists (arrival_us, size) per packet of station i, time
    ordered; capacity is in work units per second. Virtual time V grows at
    rate C / sum_{j in B} phi_j while the backlogged set B is not empty; a
    packet of station i arriving at a gets the finish tag max(V(a), last tag
    of i) + size / phi_i and finishes when V reaches it (Parekh & Gallager
    1993). B changes only at arrivals and when V reaches a station's last
    tag, so the loop visits those events alone and the finish times come
    from inverting the piecewise-linear V(t) at the end.
    """
    weights = np.asarray(weights, dtype=float)
    n = weights.size
    if n == 0 or len(arrivals) != n:
        raise ValueError("one arrival list per station required")
    packets = [np.asarray(a, dtype=float).reshape(len(a), 2) for a in arrivals]
    times, sizes = np.concatenate(packets).T
    station = np.repeat(np.arange(n), [p.shape[0] for p in packets])
    order = np.lexsort((station, times))  # by time, then station
    work = sizes[order] / weights[station[order]]  # service in virtual time
    cap_us = capacity * 1e-6
    if not (0.0 < cap_us < math.inf and np.all(np.isfinite(times))
            and np.all((weights > 0.0) & (weights < math.inf))
            and np.all((work > 0.0) & (work < math.inf))):
        raise ValueError("capacity, weights and size / weight must be "
                         "positive and finite, arrival times finite")
    if np.any((np.diff(times) < 0.0) & (np.diff(station) == 0)):
        raise ValueError("arrivals must be time ordered per station")

    phi = weights.tolist()
    last = [0.0] * n  # last finish tag per station
    backlogged = [False] * n
    heap: list[tuple[float, int]] = []  # (tag, station), refreshed lazily
    tags: list[float] = []
    t = v = phi_b = 0.0
    # row r: from time t_r on, V = v_r + (t - t_r) * C / phi_r with the
    # backlogged set of the row; a row starts only where that set changes
    rows = [(-math.inf, 0.0, 0.0, tuple(backlogged))]

    def mark() -> None:
        if rows[-1][0] == t:
            rows.pop()
        if rows[-1][3] != tuple(backlogged):
            rows.append((t, v, phi_b, tuple(backlogged)))

    for a, i, w in zip(times[order].tolist() + [math.inf],
                       station[order].tolist() + [-1], work.tolist() + [0]):
        while heap:  # stations whose last tag V reaches by time a
            f, j = heap[0]
            if f != last[j]:
                heapq.heapreplace(heap, (last[j], j))
                continue
            t_empty = t + (f - v) * phi_b / cap_us
            if t_empty > a:
                break
            heapq.heappop(heap)
            t, v = max(t, t_empty), max(v, f)
            backlogged[j] = False
            phi_b = phi_b - phi[j] if heap else 0.0
            mark()
        if i < 0:
            break
        if heap:
            v += (a - t) * cap_us / phi_b
        t = a
        last[i] = max(v, last[i]) + w
        tags.append(last[i])
        if not backlogged[i]:
            backlogged[i] = True
            phi_b += phi[i]
            heapq.heappush(heap, (last[i], i))
            mark()

    row_t, row_v, row_phi, sets = (np.array(c) for c in zip(*rows))
    k = np.searchsorted(row_v, tags)  # the first row whose V reaches a tag
    finish = np.empty_like(work)
    finish[order] = np.where(row_v[k] == tags, row_t[k], row_t[k - 1] + (
        tags - row_v[k - 1]) * row_phi[k - 1] / cap_us)
    busy = row_phi[:-1] > 0.0
    sets = sets[:-1][busy]
    intervals = GpsIntervals(row_t[:-1][busy], row_t[1:][busy], sets,
                             sets * weights * np.diff(row_v)[busy, None])
    return GpsReference(weights, capacity, np.split(
        finish, np.searchsorted(station, np.arange(1, n))), intervals)


def dcf_clock(slot_trace: SlotTrace, tagged: int,
              fair_increment: float) -> ClockTrace:
    """Departure clock of the tagged station over a slot trace.

    fair_increment is the reference spacing subtracted from every
    increment; use the analytical mean increment for zero-mean error terms,
    or any user-chosen value for sensitivity studies. Raises
    EmptyClockError when the tagged station never succeeds, as in an empty
    trace.
    """
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
