"""The busy-period estimator against the loops it replaced.

The reference below is the earlier estimator, kept verbatim but for its
names: detect_busy_periods merges arrivals and departures one event at a
time into a list of BusyPeriod objects, and the sample and convergence code
masks the whole departure array once per period. The column version must
give the same results by repr, hence bit for bit, and the same exception
type and message, on every case family below.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
import pytest

from dcffair import (EventTrace, NotEnoughBacklogError, SimConfig,
                     TraceFormatError, convergence_report, detect_busy_periods,
                     estimate_fair_rate, run)
from dcffair.estimator import ConvergencePoint, RateEstimate


# --- reference: the estimator before busy periods became columns ---

@dataclass(frozen=True)
class BusyPeriod:
    """Maximal interval with a non-empty queue."""

    start: float
    end: float
    departures: int


def _ref_validated(events: EventTrace) -> tuple[np.ndarray, np.ndarray]:
    if len(events) == 0:
        raise NotEnoughBacklogError("empty event trace", busy_fraction=0.0)
    if np.unique(events.station).size > 1:
        raise TraceFormatError(
            "event trace mixes stations; filter with for_station() first"
        )
    arr = events.arrival
    dep = events.departure
    if np.any(np.diff(arr) < 0):
        raise TraceFormatError("arrivals are not time ordered")
    if np.any(np.diff(dep) < 0):
        raise TraceFormatError(
            "FIFO violation: departures not ordered as arrivals"
        )
    if np.any(dep <= arr):
        raise TraceFormatError("departure at or before arrival")
    return arr, dep


def _ref_detect_busy_periods(events: EventTrace) -> list[BusyPeriod]:
    """Busy periods of one station's queue, disjoint and time ordered."""
    arr, dep = _ref_validated(events)
    periods: list[BusyPeriod] = []
    n = arr.size
    ai = di = 0
    q = 0
    start = 0.0
    dep_count = 0
    while di < n:
        # arrivals first on ties, so back-to-back packets bridge the point
        if ai < n and arr[ai] <= dep[di]:
            if q == 0:
                start = float(arr[ai])
                dep_count = 0
            q += 1
            ai += 1
        else:
            q -= 1
            dep_count += 1
            if q == 0:
                periods.append(BusyPeriod(start=start, end=float(dep[di]),
                                          departures=dep_count))
            di += 1
    return periods


def _ref_period_samples(events: EventTrace,
                    min_period_departures: int) -> tuple[list[np.ndarray],
                                                         list[BusyPeriod],
                                                         float]:
    periods = _ref_detect_busy_periods(events)
    dep = events.departure
    qualifying = [p for p in periods if p.departures >= min_period_departures]
    samples = []
    for p in qualifying:
        inside = dep[(dep > p.start) & (dep <= p.end)]
        samples.append(np.diff(inside))
    span = float(dep.max() - events.arrival.min())
    busy_time = sum(p.end - p.start for p in periods)
    busy_fraction = busy_time / span if span > 0 else 0.0
    return samples, qualifying, busy_fraction


def _ref_delta_method(samples: np.ndarray) -> tuple[float, float]:
    # rate = 1/mean; Var(rate) ~ Var(mean) / mean^4
    mean = float(np.mean(samples))
    rate = 1e6 / mean
    if samples.size < 2:
        return rate, 0.0
    sd = float(np.std(samples, ddof=1))
    stderr = 1e6 * sd / (np.sqrt(samples.size) * mean * mean)
    return rate, stderr


def _ref_estimate_fair_rate(events: EventTrace,
                       min_period_departures: int = 2) -> RateEstimate:
    """Fair-rate estimate in packets per second, with a 95% CI.

    Uses inter-departure gaps strictly inside busy periods that contain at
    least min_period_departures departures. The first gap of each period is
    kept. Raises when no qualifying samples exist.
    """
    per_period, qualifying, busy_fraction = _ref_period_samples(
        events, min_period_departures)
    if not per_period or sum(s.size for s in per_period) == 0:
        raise NotEnoughBacklogError(
            "no busy period holds enough departures for a rate sample "
            f"(busy fraction {busy_fraction:.3f})",
            busy_fraction=busy_fraction,
        )
    samples = np.concatenate(per_period)
    rate, stderr = _ref_delta_method(samples)
    if samples.size >= 3 and np.std(samples) > 0:
        x, y = samples[:-1], samples[1:]
        lag1 = float(np.corrcoef(x, y)[0, 1])
    else:
        lag1 = 0.0
    busy_us = sum(p.end - p.start for p in qualifying)
    deps = sum(p.departures for p in qualifying)
    return RateEstimate(
        rate_pps=rate,
        stderr_pps=stderr,
        ci95=(rate - 1.96 * stderr, rate + 1.96 * stderr),
        samples=int(samples.size),
        busy_fraction=busy_fraction,
        lag1_autocorr=lag1,
        ratio_rate_pps=1e6 * deps / busy_us,
    )


def _ref_convergence_report(events: EventTrace, sample_counts: list[int],
                       min_period_departures: int = 2) -> list[ConvergencePoint]:
    """Prefix estimates over growing sample counts.

    For each m, uses the first m inter-departure samples in trace order. An
    m beyond the available samples is truncated to all of them and flagged.
    The ratio estimate for a prefix covers the busy time walked through up
    to the departure that closes the m-th sample.
    """
    per_period, qualifying, busy_fraction = _ref_period_samples(
        events, min_period_departures)
    if not per_period or sum(s.size for s in per_period) == 0:
        raise NotEnoughBacklogError(
            "no qualifying busy periods "
            f"(busy fraction {busy_fraction:.3f})",
            busy_fraction=busy_fraction,
        )
    all_samples = np.concatenate(per_period)
    sizes = [s.size for s in per_period]
    dep = events.departure
    report: list[ConvergencePoint] = []
    for requested in sample_counts:
        if requested < 1:
            raise ValueError("sample counts must be >= 1")
        used = min(requested, all_samples.size)
        truncated = used < requested
        prefix = all_samples[:used]
        rate, stderr = _ref_delta_method(prefix)
        # walk periods to locate the departure closing the used-th sample
        remaining = used
        busy_us = 0.0
        deps = 0
        for p, size in zip(qualifying, sizes):
            inside = dep[(dep > p.start) & (dep <= p.end)]
            if remaining >= size:
                remaining -= size
                busy_us += p.end - p.start
                deps += p.departures
                if remaining == 0:
                    break
            else:
                closing = inside[remaining]  # departure ending the sample
                busy_us += float(closing) - p.start
                deps += remaining + 1
                remaining = 0
                break
        ratio = 1e6 * deps / busy_us if busy_us > 0 else float("nan")
        report.append(ConvergencePoint(
            requested_m=requested,
            used_m=int(used),
            truncated=truncated,
            rate_pps=rate,
            ci_low=rate - 1.96 * stderr,
            ci_high=rate + 1.96 * stderr,
            ci_width=2 * 1.96 * stderr,
            ratio_rate_pps=ratio,
        ))
    return report


# --- cases ---

MIN_DEPARTURES = (1, 2, 3, 4)
SAMPLE_COUNTS = [1, 2, 3, 7, 50, 400, 10**6]


def _trace(arrivals, departures, station=0) -> EventTrace:
    n = len(arrivals)
    return EventTrace.from_lists([station] * n, list(range(n)),
                                 arrivals, departures)


def _fifo_trace(rng: np.random.Generator, n: int, integral: bool,
                tie_share: float) -> EventTrace:
    """A FIFO queue with random load; tie_share of the packets arrive at
    the instant the previous packet departs, some arrivals coincide."""
    scale = rng.choice([50.0, 300.0, 2000.0])
    gaps = rng.exponential(scale, n) * (rng.random(n) > 0.1)
    service = rng.uniform(10.0, 600.0, n)
    if integral:
        gaps, service = np.round(gaps), np.maximum(np.round(service), 1.0)
    arr = np.empty(n)
    dep = np.empty(n)
    a = d = 0.0
    for i in range(n):
        a = d if i and rng.random() < tie_share else a + gaps[i]
        d = max(d, a) + service[i]
        arr[i], dep[i] = a, d
    return _trace(arr, dep)


def _outcome(fn, *args):
    try:
        return ("ok", fn(*args))
    except (NotEnoughBacklogError, TraceFormatError, ValueError) as exc:
        return ("raise", type(exc), str(exc),
                repr(getattr(exc, "busy_fraction", None)))


def _columns(periods):
    return list(zip(periods.start.tolist(), periods.end.tolist(),
                    periods.departures.tolist()))


def _assert_same(events: EventTrace, counts=SAMPLE_COUNTS) -> None:
    old = _outcome(_ref_detect_busy_periods, events)
    new = _outcome(detect_busy_periods, events)
    if old[0] == "ok":
        assert new[0] == "ok"
        assert repr(_columns(new[1])) == repr(
            [(p.start, p.end, p.departures) for p in old[1]])
        assert len(new[1]) == len(old[1])
    else:
        assert new == old
    for m in MIN_DEPARTURES:
        old = _outcome(_ref_estimate_fair_rate, events, m)
        new = _outcome(estimate_fair_rate, events, m)
        assert repr(new) == repr(old)
        old = _outcome(_ref_convergence_report, events, counts, m)
        new = _outcome(convergence_report, events, counts, m)
        assert repr(new) == repr(old)


@pytest.mark.parametrize("integral", [False, True])
@pytest.mark.parametrize("tie_share", [0.0, 0.3, 0.9])
def test_random_fifo_traces(integral, tie_share):
    rng = np.random.default_rng(int(integral) * 10 + int(tie_share * 10))
    for n in [1, 2, 3, 5, 8, 20, 60, 250] * 5:
        _assert_same(_fifo_trace(rng, n, integral, tie_share))


def test_back_to_back_packets_bridge_one_period():
    _assert_same(_trace([0, 500, 1000, 3000], [500, 1000, 1500, 3500]))
    _assert_same(_trace([0, 0, 0, 100], [10, 20, 30, 110]))
    _assert_same(_trace([0.25, 0.5, 0.75], [0.5, 0.75, 1.0]))


def test_hand_built_periods():
    _assert_same(_trace([0, 1000, 2000], [500, 1500, 2500]))
    _assert_same(_trace([0, 100], [500, 900]))
    _assert_same(_trace([0, 100, 5000], [400, 900, 5400]))
    _assert_same(_trace([0, 1000, 2000], [10, 1010, 2010]))
    _assert_same(_trace([7.5], [8.0]))


@pytest.mark.parametrize("arrivals, departures, station", [
    ([0, 10], [500, 400], [0, 0]),            # FIFO violation
    ([0, 10], [500, 10], [0, 0]),             # departure at arrival
    ([10, 0], [500, 600], [0, 0]),            # arrivals out of order
    ([0, 10], [5, 20], [0, 1]),               # two stations
    ([], [], []),                             # empty
])
def test_rejected_traces(arrivals, departures, station):
    n = len(arrivals)
    events = EventTrace.from_lists(station, list(range(n)), arrivals,
                                   departures)
    _assert_same(events)


@pytest.mark.parametrize("counts", [[0], [5, 0], [-1], [3, 2, 1]])
def test_sample_counts(counts, rng):
    _assert_same(_fifo_trace(rng, 40, False, 0.5), counts)


@pytest.mark.parametrize("mode, horizon", [("saturated", 3000),
                                           ("poisson", 400_000)])
def test_simulated_traces(mode, horizon):
    rates = (300.0, 900.0, 1500.0) if mode == "poisson" else None
    for seed in range(3):
        result = run(SimConfig(
            n=3, mode=mode, arrival_rate_pps=rates, seed=seed,
            horizon_slots=horizon if mode == "saturated" else None,
            horizon_us=horizon if mode == "poisson" else None,
            record_slot_trace=False))
        for station in range(3):
            _assert_same(result.events.for_station(station))


def test_cases_cover_what_they_claim():
    """The random families hold ties, one-packet periods and long periods."""
    rng = np.random.default_rng(3)
    sizes = []
    ties = 0
    for _ in range(20):
        events = _fifo_trace(rng, 250, True, 0.3)
        ties += int(np.isin(events.arrival, events.departure).sum())
        sizes.extend(detect_busy_periods(events).departures.tolist())
    assert ties > 0
    assert min(sizes) == 1 and max(sizes) >= 5
