"""Virtual-time GPS against the breakpoint loop it replaced.

The reference below is the earlier loop, kept verbatim but for its name: it
steps from one packet completion or arrival to the next and rebuilds the
backlogged set at every step. Both compute the same fluid schedule, so the
finish times must agree to 1e-9 relative, and the reference's intervals,
joined where the backlogged set does not change, must be the new maximal
intervals.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np
import pytest

from dcffair import GpsReference, gps_finish_times


# --- reference: the loop gps_finish_times replaced ---

@dataclass(frozen=True)
class GpsInterval:
    """Maximal interval with a constant backlogged set."""

    start: float
    end: float
    backlogged: tuple[int, ...]
    delivered: np.ndarray  # fluid per station over the interval


_BREAKPOINT_TOL = 1e-9  # us


def _ref_gps_finish_times(
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


# --- set-ups ---

def _random_setup(rng: np.random.Generator, n: int, load: float):
    """Bursty arrivals over 5 ms: simultaneous and single packets."""
    weights = rng.uniform(1.0, 4.0, n)
    grid = np.round(rng.uniform(0.0, 5000.0, 3 * n), 0)  # shared instants
    arrivals = []
    for _ in range(n):
        packets = int(rng.choice([1, 1, 2, 5, 20]))
        times = np.sort(np.where(rng.random(packets) < 0.5,
                                 rng.choice(grid, packets),
                                 rng.uniform(0.0, 5000.0, packets)))
        arrivals.append([(float(t), float(s)) for t, s in
                         zip(times, rng.uniform(0.5, 40.0, packets))])
    work = sum(s for a in arrivals for _, s in a)
    return arrivals, weights, work / 5000e-6 / load


LOADS = [0.3, 0.8, 2.0]  # idle gaps are common at 0.3, absent at 2.0


def _joined(intervals):
    """Reference intervals joined where the backlogged set stays the same."""
    joined = []
    for itv in intervals:
        if joined and joined[-1][2] == itv.backlogged and abs(
                joined[-1][1] - itv.start) <= 1e-9 * max(1.0, itv.start):
            joined[-1][1] = itv.end
        else:
            joined.append([itv.start, itv.end, itv.backlogged])
    return joined


def _assert_same_schedule(arrivals, weights, capacity):
    new = gps_finish_times(arrivals, weights, capacity)
    ref = _ref_gps_finish_times(arrivals, weights, capacity)
    assert len(new.finish_times) == len(ref.finish_times)
    for got, want in zip(new.finish_times, ref.finish_times):
        np.testing.assert_allclose(got, want, rtol=1e-9, atol=0.0)
    itv = new.intervals
    joined = _joined(ref.intervals)
    assert len(itv) == len(joined)
    np.testing.assert_allclose(itv.start, [j[0] for j in joined], rtol=1e-9)
    np.testing.assert_allclose(itv.end, [j[1] for j in joined], rtol=1e-9)
    for row, (_, _, backlogged) in zip(itv.backlogged, joined):
        assert tuple(np.flatnonzero(row)) == backlogged
    # maximal: neighbours differ in their set or an idle gap parts them
    assert np.all(np.any(itv.backlogged[1:] != itv.backlogged[:-1], axis=1)
                  | (itv.start[1:] > itv.end[:-1]))
    work = [sum(s for _, s in a) for a in arrivals]
    np.testing.assert_allclose(itv.delivered.sum(axis=0), work, rtol=1e-9)


@pytest.mark.parametrize("n", [1, 2, 3, 5, 8, 13, 20])
@pytest.mark.parametrize("load", LOADS)
def test_random_setups_match_reference(n, load):
    rng = np.random.default_rng([n, LOADS.index(load)])
    _assert_same_schedule(*_random_setup(rng, n, load))


def test_setups_cover_what_they_claim():
    gaps = singles = same_station = across_stations = 0
    for n in (1, 2, 3, 5, 8, 13, 20):
        for load in LOADS:
            rng = np.random.default_rng([n, LOADS.index(load)])
            arrivals, weights, capacity = _random_setup(rng, n, load)
            itv = gps_finish_times(arrivals, weights, capacity).intervals
            gaps += int(np.sum(itv.start[1:] > itv.end[:-1]))
            singles += sum(len(a) == 1 for a in arrivals)
            times = [[t for t, _ in a] for a in arrivals]
            same_station += sum(len(t) - len(set(t)) for t in times)
            flat = [t for ts in times for t in set(ts)]
            across_stations += len(flat) - len(set(flat))
    assert min(gaps, singles, same_station, across_stations) >= 10


@pytest.mark.parametrize("seed", [0, 1, 2, 3])
def test_arrival_at_the_instant_a_station_empties(seed):
    rng = np.random.default_rng(seed)
    arrivals, weights, capacity = _random_setup(rng, 6, 0.8)
    empties = sorted((float(f[-1]), i) for i, f in enumerate(
        gps_finish_times(arrivals, weights, capacity).finish_times))
    # a packet for the station that empties first, and one for another
    # station, arriving at exactly the instant it empties; everything
    # before that instant is unchanged, so the instant stays an emptying
    t_empty, i = empties[0]
    other = (i + 1) % len(arrivals)
    for station in (i, other):
        late = [(t, s) for t, s in arrivals[station] if t > t_empty]
        early = [(t, s) for t, s in arrivals[station] if t <= t_empty]
        arrivals[station] = early + [(t_empty, 3.0)] + late
    _assert_same_schedule(arrivals, weights, capacity)


def test_station_reenters_as_it_empties():
    # station 0 empties at exactly 2000 us, when its next packet arrives:
    # it stays backlogged, so one interval covers both packets
    arrivals = [[(0.0, 1.0), (2000.0, 1.0)], [(0.0, 1.0), (0.0, 1.0)]]
    gps = gps_finish_times(arrivals, [1.0, 1.0], capacity=1000.0)
    assert gps.finish_times[0] == pytest.approx([2000.0, 4000.0])
    assert gps.finish_times[1] == pytest.approx([2000.0, 4000.0])
    assert gps.intervals.start.tolist() == [0.0]
    assert gps.intervals.end.tolist() == [4000.0]
    _assert_same_schedule(arrivals, [1.0, 1.0], 1000.0)
